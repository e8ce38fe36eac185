//! Microbenchmarks of the substrate crates: spatial index queries,
//! candidate-set construction, Christofides, blossom matching, and the
//! discrete-event simulator.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use uavdc_core::{Alg2Planner, CandidateSet, Planner};
use uavdc_geom::{Point2, SpatialGrid};
use uavdc_graph::christofides::christofides;
use uavdc_graph::matching::{min_weight_perfect_matching_with, MatchingBackend};
use uavdc_graph::DistMatrix;
use uavdc_net::generator::{uniform, ScenarioParams};
use uavdc_sim::{simulate, SimConfig};

fn bench_spatial_index(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate_spatial_index");
    let pts: Vec<Point2> = (0..5000)
        .map(|i| Point2::new(((i * 37) % 1000) as f64, ((i * 61) % 1000) as f64))
        .collect();
    group.bench_function("grid_build_5000", |b| {
        b.iter(|| SpatialGrid::build(&pts, 50.0))
    });
    let grid = SpatialGrid::build(&pts, 50.0);
    group.bench_function("grid_query_radius_50", |b| {
        let mut buf = Vec::new();
        b.iter(|| grid.query_radius_into(Point2::new(500.0, 500.0), 50.0, &mut buf));
    });
    group.finish();
}

fn bench_candidates(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate_candidates");
    group.sample_size(10);
    let scenario = uniform(&ScenarioParams::default().scaled(0.3), 1);
    for delta in [5.0, 10.0, 20.0] {
        group.bench_with_input(BenchmarkId::new("build", delta as u64), &delta, |b, &d| {
            b.iter(|| CandidateSet::build(&scenario, d));
        });
    }
    group.finish();
}

fn bench_graph_algorithms(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate_graph");
    group.sample_size(10);
    for n in [50usize, 100] {
        let pts: Vec<(f64, f64)> = (0..n)
            .map(|i| (((i * 37) % 1000) as f64, ((i * 61) % 1000) as f64))
            .collect();
        let m = DistMatrix::from_euclidean(&pts);
        group.bench_with_input(BenchmarkId::new("christofides", n), &m, |b, m| {
            b.iter(|| christofides(m));
        });
        // Matching on an even subset.
        let even = m.submatrix(&(0..(n & !1)).collect::<Vec<_>>());
        group.bench_with_input(BenchmarkId::new("blossom_matching", n), &even, |b, m| {
            b.iter(|| min_weight_perfect_matching_with(m, MatchingBackend::Blossom));
        });
    }
    group.finish();
}

fn bench_simulator(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate_simulator");
    group.sample_size(20);
    let scenario = uniform(&ScenarioParams::default().scaled(0.2), 1);
    let plan = Alg2Planner::default().plan(&scenario);
    group.bench_function("simulate_plan", |b| {
        b.iter(|| simulate(&scenario, &plan, &SimConfig::default()));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_spatial_index,
    bench_candidates,
    bench_graph_algorithms,
    bench_simulator
);
criterion_main!(benches);
