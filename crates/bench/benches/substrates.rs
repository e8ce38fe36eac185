//! Microbenchmarks of the substrate crates: spatial index queries,
//! candidate-set construction and dominance pruning, Christofides,
//! perfect matching (dense blossom vs the certified sparse `Auto` path on
//! the benchmark heuristic's real odd set), and the discrete-event
//! simulator.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use uavdc_core::{Alg2Planner, CandidateSet, Planner};
use uavdc_geom::{Point2, SpatialGrid};
use uavdc_graph::christofides::christofides;
use uavdc_graph::matching::{min_weight_perfect_matching_with, MatchingBackend};
use uavdc_graph::mst::{odd_degree_vertices, prim_mst};
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
        // Includes cloning the built set, which the pruning consumes.
        let built = CandidateSet::build(&scenario, delta);
        group.bench_with_input(
            BenchmarkId::new("prune_dominated", delta as u64),
            &built,
            |b, built| {
                b.iter(|| {
                    let mut set = built.clone();
                    set.prune_dominated();
                    set
                });
            },
        );
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
    }
    // The benchmark heuristic's matching: the MST odd set of depot + 500
    // uniform devices in 1 km² (~210 vertices).
    let scenario = uniform(&ScenarioParams::default(), 1);
    let pts: Vec<(f64, f64)> = std::iter::once(scenario.depot)
        .chain(scenario.devices.iter().map(|d| d.pos))
        .map(|p| (p.x, p.y))
        .collect();
    let m = DistMatrix::from_euclidean(&pts);
    let odd = odd_degree_vertices(pts.len(), &prim_mst(&m).edges);
    let sub = m.submatrix(&odd);
    for (name, backend) in [
        ("blossom_matching", MatchingBackend::Blossom),
        ("auto_matching", MatchingBackend::Auto),
    ] {
        group.bench_with_input(BenchmarkId::new(name, odd.len()), &sub, |b, m| {
            b.iter(|| min_weight_perfect_matching_with(m, backend, &uavdc_obs::NOOP));
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
