//! Robustness experiments for the paper's methodological caveats.
//!
//! §3.1.1: "We have computed our topology metrics for at least three
//! different snapshots of both topologies ... the qualitative
//! conclusions we draw in this paper hold across these different
//! snapshots", and "Both these topologies may be incomplete ... We hope
//! that the qualitative conclusions ... will be fairly robust to minor
//! methodological improvements in topology collection."
//!
//! We test both: (a) *snapshots* — regenerate the synthetic Internet
//! with different seeds and sizes and confirm the signature and
//! hierarchy class are stable; (b) *incompleteness* — observe the AS
//! graph from few vantage points (losing peripheral peering links, as
//! real BGP collection does) or drop random edges, and confirm the
//! classifications survive.

use crate::ExpCtx;
use rand::rngs::StdRng;
use rand::SeedableRng;
use topogen_core::hier::{hierarchy_report_timed_in, HierOptions};
use topogen_core::report::TableData;
use topogen_core::suite::run_suite_in;
use topogen_core::zoo::{build_in, BuiltTopology, TopologySpec};
use topogen_core::RunCtx;
use topogen_graph::components::largest_component;
use topogen_measured::as_graph::{internet_as, InternetAsParams};
use topogen_measured::observe::{observed_from_top_vantages, random_edge_loss};

fn classify_graph(ctx: &ExpCtx, rctx: &RunCtx, name: &str, g: topogen_graph::Graph) -> Vec<String> {
    let t = BuiltTopology::plain(name, g);
    let sig = run_suite_in(rctx, &t, &ctx.suite_params())
        .signature
        .to_string();
    let hier = if t.graph.node_count() <= 1500 {
        hierarchy_report_timed_in(rctx, &t, &HierOptions::default())
            .0
            .class
    } else {
        "-".into()
    };
    vec![
        name.to_string(),
        t.graph.node_count().to_string(),
        format!("{:.2}", t.graph.average_degree()),
        sig,
        hier,
    ]
}

/// Snapshot stability: the AS model at several seeds and sizes.
pub fn run_snapshots(ctx: &ExpCtx, rctx: &RunCtx) -> TableData {
    let mut rows = Vec::new();
    for (label, n, seed) in [
        ("AS snapshot A", 1100usize, ctx.seed),
        ("AS snapshot B", 1100, ctx.seed ^ 0xB),
        ("AS snapshot C", 1100, ctx.seed ^ 0xC),
        ("AS half-size", 550, ctx.seed),
        ("AS double-size", 2200, ctx.seed),
    ] {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = internet_as(
            &InternetAsParams {
                n,
                ..InternetAsParams::default_scaled()
            },
            &mut rng,
        );
        rows.push(classify_graph(ctx, rctx, label, m.graph));
    }
    TableData {
        id: "robustness-snapshots".into(),
        header: vec![
            "Snapshot".into(),
            "Nodes".into(),
            "AvgDeg".into(),
            "Signature".into(),
            "Hierarchy".into(),
        ],
        rows,
        failures: Vec::new(),
    }
}

/// Incompleteness: the AS graph as seen from k vantages, and under
/// random edge loss.
pub fn run_incompleteness(ctx: &ExpCtx, rctx: &RunCtx) -> TableData {
    let t = build_in(rctx, &TopologySpec::MeasuredAs, ctx.scale, ctx.seed);
    let ann = t.annotations.as_ref().expect("AS annotations");
    let mut rows = Vec::new();
    rows.push(classify_graph(ctx, rctx, "AS (complete)", t.graph.clone()));
    for k in [1usize, 3, 10] {
        let o = observed_from_top_vantages(&t.graph, ann, k);
        let (lcc, _) = largest_component(&o);
        rows.push(classify_graph(
            ctx,
            rctx,
            &format!("AS seen from {k} vantage(s)"),
            lcc,
        ));
    }
    // Router-level incompleteness: the RL graph as a traceroute mapper
    // with k sources would see it (the paper's RL collection method).
    let rl = build_in(rctx, &TopologySpec::MeasuredRl, ctx.scale, ctx.seed);
    rows.push(classify_graph(ctx, rctx, "RL (complete)", rl.graph.clone()));
    for k in [3usize, 10] {
        let mut rng = StdRng::seed_from_u64(ctx.seed ^ (0x7 + k as u64));
        let o = topogen_measured::observe::traceroute_observed_sampled(&rl.graph, k, 1, &mut rng);
        let (lcc, _) = largest_component(&o);
        rows.push(classify_graph(
            ctx,
            rctx,
            &format!("RL seen by {k} traceroute sources"),
            lcc,
        ));
    }
    for loss in [0.05f64, 0.15] {
        let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0x1055);
        let lossy = random_edge_loss(&t.graph, loss, &mut rng);
        let (lcc, _) = largest_component(&lossy);
        rows.push(classify_graph(
            ctx,
            rctx,
            &format!("AS with {:.0}% random edge loss", 100.0 * loss),
            lcc,
        ));
    }
    TableData {
        id: "robustness-incompleteness".into(),
        header: vec![
            "View".into(),
            "Nodes".into(),
            "AvgDeg".into(),
            "Signature".into(),
            "Hierarchy".into(),
        ],
        rows,
        failures: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshots_share_signature() {
        let t = run_snapshots(&ExpCtx::default(), &RunCtx::new());
        let sigs: std::collections::HashSet<&String> = t.rows.iter().map(|r| &r[3]).collect();
        assert_eq!(sigs.len(), 1, "snapshot signatures diverged: {t:?}");
        assert!(t.rows.iter().all(|r| r[3] == "HHL"));
    }
}
