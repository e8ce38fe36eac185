//! Ablation benches for the design choices called out in DESIGN.md §6:
//! Algorithm 2's candidate ranking (full Christofides per candidate vs
//! cheapest-insertion delta), the Christofides matching backend, the
//! orienteering backend, and dominated-candidate pruning.

use criterion::{criterion_group, criterion_main, Criterion};
use uavdc_core::{Alg2Config, Alg2Planner, Planner, TourMode};
use uavdc_graph::christofides::{christofides_with, ChristofidesConfig};
use uavdc_graph::matching::MatchingBackend;
use uavdc_graph::DistMatrix;
use uavdc_net::generator::{uniform, ScenarioParams};
use uavdc_orienteering::{solve, Backend, GraspConfig, OrienteeringInstance};

fn bench_alg2_tour_mode(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_alg2_tour_mode");
    group.sample_size(10);
    // Small instance so PaperChristofides stays tractable.
    let params = ScenarioParams::default().scaled(0.05);
    let scenario = uniform(&params, 1);
    group.bench_function("fast_insertion", |b| {
        let p = Alg2Planner::new(Alg2Config {
            delta: 20.0,
            tour_mode: TourMode::FastInsertion,
            ..Alg2Config::default()
        });
        b.iter(|| p.plan(&scenario));
    });
    group.bench_function("paper_christofides", |b| {
        let p = Alg2Planner::new(Alg2Config {
            delta: 20.0,
            tour_mode: TourMode::PaperChristofides,
            ..Alg2Config::default()
        });
        b.iter(|| p.plan(&scenario));
    });
    group.finish();
}

fn bench_matching_backends(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_christofides_matching");
    group.sample_size(10);
    let pts: Vec<(f64, f64)> = (0..60)
        .map(|i| (((i * 37) % 500) as f64, ((i * 61) % 500) as f64))
        .collect();
    let m = DistMatrix::from_euclidean(&pts);
    for (name, backend) in [
        ("blossom", MatchingBackend::Blossom),
        ("auto", MatchingBackend::Auto),
        ("greedy", MatchingBackend::Greedy),
    ] {
        group.bench_function(name, |b| {
            let cfg = ChristofidesConfig {
                matching: backend,
                polish: false,
            };
            b.iter(|| christofides_with(&m, &cfg));
        });
    }
    group.finish();
}

fn bench_orienteering_backends(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_orienteering_backend");
    group.sample_size(10);
    let pts: Vec<(f64, f64)> = (0..40)
        .map(|i| (((i * 41) % 300) as f64, ((i * 73) % 300) as f64))
        .collect();
    let m = DistMatrix::from_euclidean(&pts);
    let prizes: Vec<f64> = (0..40).map(|i| 1.0 + (i % 7) as f64).collect();
    let inst = OrienteeringInstance::new(m, prizes, 0, 500.0);
    group.bench_function("greedy", |b| b.iter(|| solve(&inst, Backend::Greedy)));
    group.bench_function("grasp_default", |b| {
        b.iter(|| solve(&inst, Backend::Grasp(GraspConfig::default())))
    });
    group.finish();
}

fn bench_dominance_pruning(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_dominance_pruning");
    group.sample_size(10);
    let params = ScenarioParams::default().scaled(0.1);
    let scenario = uniform(&params, 1);
    for (name, prune) in [("pruned", true), ("unpruned", false)] {
        group.bench_function(name, |b| {
            let p = Alg2Planner::new(Alg2Config {
                delta: 10.0,
                prune_dominated: prune,
                ..Alg2Config::default()
            });
            b.iter(|| p.plan(&scenario));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_alg2_tour_mode,
    bench_matching_backends,
    bench_orienteering_backends,
    bench_dominance_pruning
);
criterion_main!(benches);
