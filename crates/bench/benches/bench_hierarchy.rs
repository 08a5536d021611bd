//! The §5 kernels behind Figures 3–5 and 14: traversal-set
//! accumulation and weighted-vertex-cover link values, plain and policy
//! — plus the engine speedup report.
//!
//! Besides the criterion timings, this bench measures `link_values` on a
//! ~2,000-node PLRG (the scale the paper reserved for the RL *core*,
//! footnote 29) and valley-free `link_values` on the 400-node annotated
//! AS graph, each with the serial pre-arena baseline and with the
//! parallel engine at 1/2/8 workers, checks the outputs are
//! bit-identical, and archives everything as `out/BENCH_hierarchy.json`
//! (the CI bench workflow uploads it next to the metrics bench output).
//! `--quick` shrinks the PLRG and the repetitions for smoke runs.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};
use topogen_generators::canonical::kary_tree;
use topogen_generators::plrg::{plrg, PlrgParams};
use topogen_graph::components::largest_component;
use topogen_graph::Graph;
use topogen_hierarchy::baseline::link_values_ref;
use topogen_hierarchy::linkvalue::{link_values, link_values_threads, PathMode};
use topogen_hierarchy::traversal::link_traversals;
use topogen_measured::as_graph::{internet_as, InternetAs, InternetAsParams};
use topogen_par::{Instrument, TimingReport};

/// The 400-node annotated Internet both the criterion group and the
/// speedup report run valley-free link values on.
fn as400() -> InternetAs {
    internet_as(
        &InternetAsParams {
            n: 400,
            ..InternetAsParams::default_scaled()
        },
        &mut StdRng::seed_from_u64(5),
    )
}

fn bench_linkvalues(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig3/link-values");
    g.sample_size(10);
    let mut rng = StdRng::seed_from_u64(5);
    let plrg_g = largest_component(&plrg(
        &PlrgParams {
            n: 400,
            alpha: 2.246,
            max_degree: None,
        },
        &mut rng,
    ))
    .0;
    let tree = kary_tree(3, 5);

    g.bench_function("traversal-sets/plrg400", |b| {
        b.iter(|| link_traversals(&plrg_g, &PathMode::Shortest))
    });
    g.bench_function("link-values/plrg400", |b| {
        b.iter(|| link_values(&plrg_g, &PathMode::Shortest))
    });
    g.bench_function("link-values/plrg400-serial-baseline", |b| {
        b.iter(|| link_values_ref(&plrg_g, &PathMode::Shortest))
    });
    g.bench_function("link-values/tree364", |b| {
        b.iter(|| link_values(&tree, &PathMode::Shortest))
    });

    // Policy link values on a smaller annotated Internet.
    let m = as400();
    g.bench_function("link-values/as400-policy", |b| {
        b.iter(|| link_values(&m.graph, &PathMode::Policy(&m.annotations)))
    });
    g.finish();
}

/// Minimum wall time of `reps` runs.
fn time_min<F: FnMut() -> R, R>(reps: usize, mut f: F) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..reps {
        let start = Instant::now();
        std::hint::black_box(f());
        best = best.min(start.elapsed());
    }
    best
}

/// One graph's serial-baseline vs engine timings.
struct Speedup {
    baseline: Duration,
    per_thread: Vec<(usize, Duration)>,
    auto: Duration,
    bit_identical: bool,
    counters: TimingReport,
}

impl Speedup {
    /// Time the baseline and the engine at 1/2/8 workers and on every
    /// core, and check each engine run against the baseline's bits.
    fn measure(g: &Graph, mode: &PathMode<'_>, reps: usize) -> Speedup {
        let baseline = time_min(reps, || link_values_ref(g, mode));
        let serial_values = link_values_ref(g, mode);
        let mut per_thread = Vec::new();
        let mut bit_identical = true;
        for threads in [1usize, 2, 8] {
            let t = time_min(reps, || link_values_threads(g, mode, Some(threads), None));
            let values = link_values_threads(g, mode, Some(threads), None);
            bit_identical &= values.len() == serial_values.len()
                && values
                    .iter()
                    .zip(&serial_values)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            per_thread.push((threads, t));
        }
        let auto = time_min(reps, || link_values(g, mode));
        let ins = Instrument::new();
        let _ = link_values_threads(g, mode, None, Some(&ins));
        Speedup {
            baseline,
            per_thread,
            auto,
            bit_identical,
            counters: ins.report(),
        }
    }

    fn best(&self) -> Duration {
        self.per_thread
            .iter()
            .map(|&(_, t)| t)
            .chain(std::iter::once(self.auto))
            .min()
            .unwrap()
    }

    fn speedup(&self) -> f64 {
        self.baseline.as_secs_f64() / self.best().as_secs_f64()
    }

    fn threads_json(&self) -> String {
        let rows: Vec<String> = self
            .per_thread
            .iter()
            .map(|(k, t)| format!("    \"{k}\": {:.6}", t.as_secs_f64()))
            .collect();
        rows.join(",\n")
    }
}

/// Serial-baseline vs engine speedup on a ~2,000-node PLRG (shortest
/// paths) and the 400-node annotated AS graph (valley-free paths),
/// archived as `out/BENCH_hierarchy.json`.
fn speedup_report(_c: &mut Criterion) {
    let quick = std::env::args().any(|a| a == "--quick");
    let (n, reps) = if quick { (500, 1) } else { (2000, 3) };
    let mut rng = StdRng::seed_from_u64(7);
    let g: Graph = largest_component(&plrg(
        &PlrgParams {
            n,
            alpha: 2.246,
            max_degree: None,
        },
        &mut rng,
    ))
    .0;
    let plain = Speedup::measure(&g, &PathMode::Shortest, reps);
    let asg = as400();
    let policy = Speedup::measure(&asg.graph, &PathMode::Policy(&asg.annotations), reps);

    for (name, graph, s) in [("plrg", &g, &plain), ("as400-policy", &asg.graph, &policy)] {
        println!(
            "speedup report: {name} ({} nodes, {} links) baseline {:?}, engine best {:?} ({:.2}x), bit-identical {}",
            graph.node_count(),
            graph.edge_count(),
            s.baseline,
            s.best(),
            s.speedup(),
            s.bit_identical,
        );
    }

    let json = format!(
        "{{\n  \"graph\": {{ \"model\": \"PLRG\", \"alpha\": 2.246, \"nodes\": {}, \"links\": {} }},\n  \"quick\": {},\n  \"reps\": {},\n  \"serial_baseline_secs\": {:.6},\n  \"arena_engine_secs\": {{\n{}\n  }},\n  \"arena_engine_auto_secs\": {:.6},\n  \"speedup_vs_serial_baseline\": {:.3},\n  \"bit_identical_across_1_2_8_threads\": {},\n  \"dag_states\": {},\n  \"pairs_accumulated\": {},\n  \"arena_bytes\": {},\n  \"policy_graph\": {{ \"model\": \"AS\", \"nodes\": {}, \"links\": {} }},\n  \"policy_serial_baseline_secs\": {:.6},\n  \"policy_engine_secs\": {{\n{}\n  }},\n  \"policy_engine_auto_secs\": {:.6},\n  \"policy_speedup_vs_serial_baseline\": {:.3},\n  \"policy_bit_identical_across_1_2_8_threads\": {},\n  \"policy_dag_states\": {},\n  \"policy_pairs_accumulated\": {},\n  \"policy_arena_bytes\": {}\n}}\n",
        g.node_count(),
        g.edge_count(),
        quick,
        reps,
        plain.baseline.as_secs_f64(),
        plain.threads_json(),
        plain.auto.as_secs_f64(),
        plain.speedup(),
        plain.bit_identical,
        plain.counters.dag_states,
        plain.counters.pairs_accumulated,
        plain.counters.arena_bytes,
        asg.graph.node_count(),
        asg.graph.edge_count(),
        policy.baseline.as_secs_f64(),
        policy.threads_json(),
        policy.auto.as_secs_f64(),
        policy.speedup(),
        policy.bit_identical,
        policy.counters.dag_states,
        policy.counters.pairs_accumulated,
        policy.counters.arena_bytes,
    );
    // Benches run with the package dir as cwd; anchor the default output
    // at the workspace root so CI finds it at out/BENCH_hierarchy.json.
    let dir = std::env::var("BENCH_OUT_DIR")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../out").into());
    if let Err(e) = std::fs::create_dir_all(&dir)
        .and_then(|_| std::fs::write(format!("{dir}/BENCH_hierarchy.json"), &json))
    {
        eprintln!("warning: cannot write {dir}/BENCH_hierarchy.json: {e}");
    } else {
        println!("wrote {dir}/BENCH_hierarchy.json");
    }
    assert!(
        plain.bit_identical && policy.bit_identical,
        "thread counts 1/2/8 must agree with the baseline bit-for-bit"
    );
}

criterion_group!(benches, bench_linkvalues, speedup_report);
criterion_main!(benches);
