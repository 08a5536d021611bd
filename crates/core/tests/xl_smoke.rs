//! The xl-tier smoke drill (ignored by default — run it with
//! `cargo test --release -- --ignored` or via the CI scale job): a
//! million-node topology built under an explicit memory budget must
//! stream through spill-and-merge without the edge scratch ever
//! exceeding the budget, and a sampled-center expansion sweep over the
//! result must complete and classify.

use topogen_core::suite::{run_suite_in, SuiteParams};
use topogen_core::zoo::{build_in, Scale, TopologySpec};
use topogen_core::RunCtx;

/// 16 MiB: far below the ~24 MiB the xl PLRG's raw edge buffer would
/// need in memory, so the build is forced through spill runs.
const BUDGET: u64 = 16 * 1024 * 1024;

#[test]
#[ignore = "xl tier: ~1M nodes, release-mode minutes; exercised by the CI scale job"]
fn million_node_streamed_build_and_sampled_expansion_under_budget() {
    let run = std::sync::Arc::new(topogen_par::Instrument::new());
    let ctx = RunCtx::new()
        .with_mem_budget(Some(BUDGET))
        .with_instrument(run.clone());
    let spec = TopologySpec::Plrg(topogen_generators::plrg::PlrgParams {
        n: 1_000_000,
        alpha: 2.246,
        max_degree: None,
    });
    let t = build_in(&ctx, &spec, Scale::Xl, 42);
    assert!(
        t.graph.node_count() >= 500_000,
        "largest component of the xl PLRG should keep most of the 1M nodes, got {}",
        t.graph.node_count()
    );

    let report = run.report();
    let (peak, spills) = (report.arena_bytes_peak, report.spill_runs);
    assert!(spills >= 1, "a {BUDGET}-byte budget must spill at 1M nodes");
    assert!(
        peak > 0 && peak <= BUDGET,
        "edge-scratch peak {peak} exceeded the {BUDGET}-byte budget"
    );

    // Sampled expansion at the xl knobs (8 centers, 64 sources): the
    // full metric suite over the streamed graph must complete and
    // produce finite expansion mass.
    let params = SuiteParams {
        centers: 8,
        expansion_sources: 64,
        max_radius: 32,
        max_ball_nodes: 900,
        batch: Some(4),
        ..SuiteParams::quick()
    };
    let r = run_suite_in(&ctx, &t, &params);
    assert!(
        r.expansion.iter().any(|v| *v > 0.0),
        "sampled expansion curve is empty"
    );
}
