//! Generator throughput (supports Table 1 / Figure 11 reproductions):
//! how long each topology generator takes at the paper's working sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use topogen_generators::ba::{barabasi_albert, BaParams};
use topogen_generators::brite::{brite, BriteParams};
use topogen_generators::canonical::random_gnp;
use topogen_generators::glp::{glp, GlpParams};
use topogen_generators::inet::{inet, InetParams};
use topogen_generators::plrg::{plrg, PlrgParams};
use topogen_generators::tiers::{tiers, TiersParams};
use topogen_generators::transit_stub::{transit_stub, TransitStubParams};
use topogen_generators::waxman::{waxman, WaxmanParams};

fn bench_generators(c: &mut Criterion) {
    let mut g = c.benchmark_group("generators");
    g.sample_size(10);
    let n = 2000usize;

    g.bench_function(BenchmarkId::new("plrg", n), |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(1);
            plrg(
                &PlrgParams {
                    n,
                    alpha: 2.246,
                    max_degree: None,
                },
                &mut rng,
            )
        })
    });
    g.bench_function(BenchmarkId::new("ba", n), |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(1);
            barabasi_albert(&BaParams { n, m: 2 }, &mut rng)
        })
    });
    g.bench_function(BenchmarkId::new("glp", n), |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(1);
            glp(&GlpParams::paper_as_fit(n), &mut rng)
        })
    });
    g.bench_function(BenchmarkId::new("inet", n), |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(1);
            inet(&InetParams::paper_default(n), &mut rng)
        })
    });
    g.bench_function(BenchmarkId::new("brite", n), |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(1);
            brite(&BriteParams::paper_default(n), &mut rng)
        })
    });
    g.bench_function(BenchmarkId::new("waxman", 1200), |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(1);
            waxman(
                &WaxmanParams {
                    n: 1200,
                    alpha: 0.02,
                    beta: 0.3,
                },
                &mut rng,
            )
        })
    });
    // The pair loop splits across workers from 2²² pairs on: the row
    // above (7·10⁵ pairs) runs one chunk, the paper's Figure 1 instance
    // (1.25·10⁷ pairs) and the sampled tier's (2·10⁸ pairs) split.
    g.bench_function(BenchmarkId::new("waxman", 5000), |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(1);
            waxman(&WaxmanParams::paper_default(), &mut rng)
        })
    });
    g.bench_function(BenchmarkId::new("waxman", 20_000), |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(1);
            waxman(
                &WaxmanParams {
                    n: 20_000,
                    alpha: 0.001_25,
                    beta: 0.3,
                },
                &mut rng,
            )
        })
    });
    g.bench_function("transit_stub/1008", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(1);
            transit_stub(&TransitStubParams::paper_default(), &mut rng)
        })
    });
    g.bench_function("tiers/950", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(1);
            tiers(
                &TiersParams {
                    mans_per_wan: 10,
                    lans_per_man: 8,
                    wan_nodes: 350,
                    man_nodes: 20,
                    lan_nodes: 5,
                    ..TiersParams::paper_default()
                },
                &mut rng,
            )
        })
    });
    g.bench_function(BenchmarkId::new("gnp", n), |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(1);
            random_gnp(n, 0.002, &mut rng)
        })
    });
    g.finish();
}

criterion_group!(benches, bench_generators);
criterion_main!(benches);
