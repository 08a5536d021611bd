//! The Figure 2 kernels: expansion sweeps, balanced bisection
//! (resilience) and spanning-tree distortion on representative balls.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use topogen_generators::canonical::{kary_tree, mesh, random_gnp};
use topogen_generators::plrg::{plrg, PlrgParams};
use topogen_graph::components::largest_component;
use topogen_graph::Graph;
use topogen_metrics::balls::{sample_centers, PlainBalls};
use topogen_metrics::distortion::{graph_distortion, DistortionParams};
use topogen_metrics::engine::BallPlan;
use topogen_metrics::partition::min_balanced_cut;

fn fixtures() -> Vec<(&'static str, Graph)> {
    let mut rng = StdRng::seed_from_u64(7);
    vec![
        ("tree", kary_tree(3, 6)),
        ("mesh", mesh(30, 30)),
        (
            "random",
            largest_component(&random_gnp(1200, 0.0035, &mut rng)).0,
        ),
        (
            "plrg",
            largest_component(&plrg(
                &PlrgParams {
                    n: 1300,
                    alpha: 2.246,
                    max_degree: None,
                },
                &mut rng,
            ))
            .0,
        ),
    ]
}

fn bench_expansion(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig2/expansion");
    g.sample_size(10);
    for (name, graph) in fixtures() {
        let src = PlainBalls { graph: &graph };
        let mut rng = StdRng::seed_from_u64(3);
        let centers = sample_centers(graph.node_count(), 60, &mut rng);
        g.bench_function(name, |b| {
            b.iter(|| {
                BallPlan::new(&src, 40, 0)
                    .expansion_centers(centers.clone())
                    .run()
                    .expansion
            })
        });
    }
    g.finish();
}

fn bench_resilience(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig2/resilience-partition");
    g.sample_size(10);
    for (name, graph) in fixtures() {
        g.bench_function(name, |b| b.iter(|| min_balanced_cut(&graph, 2, 1).unwrap()));
    }
    g.finish();
}

fn bench_distortion(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig2/distortion");
    g.sample_size(10);
    let params = DistortionParams::default();
    for (name, graph) in fixtures() {
        // Whole-graph distortion (the largest ball of the curve).
        g.bench_function(name, |b| {
            b.iter(|| graph_distortion(&graph, &params).unwrap())
        });
    }
    g.finish();
}

criterion_group!(benches, bench_expansion, bench_resilience, bench_distortion);
criterion_main!(benches);
