//! The million-node machinery's two scale contracts: a memory-budgeted
//! `GraphBuilder` build is bit-identical to the in-memory one, and a
//! store-checkpointed batched suite — including a resume forced to
//! rebuild from persisted batch partials — reproduces the one-shot
//! curves fingerprint-for-fingerprint.

use crate::gen;
use crate::invariant::{Check, Suite};
use rand::rngs::StdRng;
use rand::SeedableRng;
use topogen_core::ctx::RunCtx;
use topogen_core::suite::{plain_curves_key, run_suite_in, SuiteParams, SuiteResult};
use topogen_core::zoo::{build_in, Scale, TopologySpec};
use topogen_generators::canonical;
use topogen_graph::{Graph, GraphBuilder};

/// The `scale` suite.
pub fn suite() -> Suite {
    Suite {
        name: "scale",
        description: "budgeted CSR builds and checkpointed suite resumes are \
                      bit-identical to the unbounded in-memory paths",
        invariants: vec![
            Box::new(Check {
                name: "streamed-csr-identity",
                property: "a generator emitted into a budgeted GraphBuilder whose \
                           budget is so tight it spills sorted runs to disk and k-way \
                           merges them produces exactly the in-memory graph (same \
                           nodes, same normalized edge list)",
                oracle: "the unbudgeted build of the same seed",
                shrink_hint: "shrink the node count, then raise the budget until the \
                              spill count drops to zero",
                max_cases: 32,
                run: streamed_csr_identity,
            }),
            Box::new(Check {
                name: "checkpoint-resume-identity",
                property: "a batched suite run persisting per-batch partials to a store, \
                           and a resumed run whose final curves entry was evicted (the \
                           mid-suite-kill shape), both reproduce the one-shot curves \
                           bit-for-bit — and the resume is served from partial hits",
                oracle: "the un-batched, store-less run_suite_in over the same topology",
                shrink_hint: "shrink the mesh side, then fix the batch size at 1",
                max_cases: 6,
                run: checkpoint_resume_identity,
            }),
        ],
    }
}

/// Normalized edge list plus node count — everything a CSR build is.
fn graph_fingerprint(g: &Graph) -> (usize, Vec<(u32, u32)>) {
    (
        g.node_count(),
        g.edges().iter().map(|e| (e.a, e.b)).collect(),
    )
}

fn streamed_csr_identity(seed: u64) -> Result<(), String> {
    let mut pick = gen::Lcg::new(seed);
    // Dense enough that a 64 KiB budget (4096-edge fill buffer) must
    // spill at least once; the one `*_into` body guarantees both builds
    // consume the identical RNG stream.
    let n = 400 + pick.below(150);
    let p = 0.08;
    let budget = 64 * 1024;

    let mut mem_rng = StdRng::seed_from_u64(seed);
    let in_memory = canonical::random_gnp(n, p, &mut mem_rng);

    let dir = std::env::temp_dir().join(format!(
        "topogen-check-scale-{}-{seed:016x}",
        std::process::id()
    ));
    let _ = std::fs::create_dir_all(&dir);
    let mut sink = GraphBuilder::budgeted(budget, &dir);
    let mut budget_rng = StdRng::seed_from_u64(seed);
    canonical::random_gnp_into(n, p, &mut budget_rng, &mut sink);
    let (budgeted, stats) = sink.build_counted();
    let _ = std::fs::remove_dir_all(&dir);

    if stats.spill_runs == 0 {
        return Err(format!(
            "budget {budget} never spilled over {} edges — the case exercised \
             nothing beyond the in-memory path",
            in_memory.edge_count()
        ));
    }
    if graph_fingerprint(&budgeted) != graph_fingerprint(&in_memory) {
        return Err(format!(
            "budgeted build diverged: {} nodes / {} edges vs in-memory \
             {} nodes / {} edges (spill_runs={})",
            budgeted.node_count(),
            budgeted.edge_count(),
            in_memory.node_count(),
            in_memory.edge_count(),
            stats.spill_runs
        ));
    }
    Ok(())
}

/// Bit-level fingerprint of everything an archived curves JSON carries.
fn suite_fingerprint(r: &SuiteResult) -> (Vec<u64>, Vec<(u32, u64, u64)>, String) {
    (
        r.expansion.iter().map(|v| v.to_bits()).collect(),
        r.resilience
            .iter()
            .chain(r.distortion.iter())
            .map(|pt| (pt.radius, pt.avg_size.to_bits(), pt.value.to_bits()))
            .collect(),
        r.signature.to_string(),
    )
}

fn checkpoint_resume_identity(seed: u64) -> Result<(), String> {
    let mut pick = gen::Lcg::new(seed);
    let side = 8 + pick.below(4);
    let t = build_in(
        &RunCtx::new(),
        &TopologySpec::Mesh { side },
        Scale::Small,
        seed,
    );
    let mut params = SuiteParams::quick();
    params.seed = seed;

    let one_shot = suite_fingerprint(&run_suite_in(&RunCtx::new(), &t, &params));

    let dir = std::env::temp_dir().join(format!(
        "topogen-check-ckpt-{}-{seed:016x}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let store = std::sync::Arc::new(
        topogen_store::Store::open(&dir).map_err(|e| format!("store open: {e}"))?,
    );
    let ctx = RunCtx::new().with_store(store.clone());
    params.batch = Some(1 + pick.below(3));

    let cold = run_suite_in(&ctx, &t, &params);
    if suite_fingerprint(&cold) != one_shot {
        let _ = std::fs::remove_dir_all(&dir);
        return Err(format!(
            "cold batched run (batch={:?}) diverged from the one-shot curves",
            params.batch
        ));
    }

    // The mid-suite-kill shape: batch partials persisted, final curves
    // entry absent. The resumed run must rebuild purely from partials.
    store.remove(&plain_curves_key(&t, &params));
    let before = store.counters().snapshot();
    let resumed = run_suite_in(&ctx, &t, &params);
    let partial_hits = before.delta_to(&store.counters().snapshot()).hits;
    let fp = suite_fingerprint(&resumed);
    let _ = std::fs::remove_dir_all(&dir);
    if fp != one_shot {
        return Err(format!(
            "resumed run (batch={:?}) diverged from the one-shot curves",
            params.batch
        ));
    }
    if partial_hits == 0 {
        return Err("resumed run recomputed every batch: no partial checkpoint hits".to_string());
    }
    // A hit counts as soon as the entry verifies; a partial that then
    // fails to decode is recomputed. Every partial was persisted, so the
    // engine must not have run at all.
    if resumed.timings.bfs_runs != 0 {
        return Err(format!(
            "resumed run recomputed batches: {} BFS runs",
            resumed.timings.bfs_runs
        ));
    }
    Ok(())
}
