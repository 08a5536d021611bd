//! Ablations the paper calls out in §4.4:
//!
//! * **TS redundancy** (footnote 17): raising Transit-Stub's extra-edge
//!   budget raises resilience — but the distortion rises with it "to
//!   match that of the random graph"; you cannot buy the Internet's HHL
//!   signature with redundancy knobs.
//! * **Extreme parameter regimes**: Waxman under extreme geographic
//!   bias tends to a Euclidean-MST-like LLL graph; Tiers with minimal
//!   redundancy tends to an MST; a TS that is mostly transit tends to a
//!   random graph.
//! * **Distortion heuristic quality**: the spanning-tree local search
//!   ([`topogen_metrics::distortion::improve_tree_distortion`]) vs the
//!   plain BFS-root heuristics (our analogue of the paper's footnote 15
//!   comparison against Bartal's algorithm).

use crate::ExpCtx;
use rand::rngs::StdRng;
use rand::SeedableRng;
use topogen_core::report::TableData;
use topogen_core::suite::run_suite_in;
use topogen_core::zoo::{build_in, BuiltTopology, TopologySpec};
use topogen_core::RunCtx;
use topogen_generators::tiers::TiersParams;
use topogen_generators::transit_stub::TransitStubParams;
use topogen_generators::waxman::WaxmanParams;
use topogen_metrics::distortion::{graph_distortion, DistortionParams};

fn sig_of(ctx: &ExpCtx, rctx: &RunCtx, spec: &TopologySpec) -> (String, f64, f64) {
    let t = build_in(rctx, spec, ctx.scale, ctx.seed);
    let r = run_suite_in(rctx, &t, &ctx.suite_params());
    let last = |c: &[topogen_metrics::CurvePoint]| {
        c.iter()
            .rev()
            .find(|p| p.value.is_finite())
            .map(|p| p.value)
            .unwrap_or(f64::NAN)
    };
    (
        r.signature.to_string(),
        last(&r.resilience),
        last(&r.distortion),
    )
}

/// Footnote 17: the TS extra-edge ladder — resilience and distortion
/// both rise; the signature leaves HLL but lands on the random graph's
/// HHH, never the Internet's HHL.
pub fn run_ts_redundancy(ctx: &ExpCtx, rctx: &RunCtx) -> TableData {
    let ladder = [(0usize, 0usize), (20, 40), (75, 200), (200, 800)];
    let mut rows = Vec::new();
    for (ets, ess) in ladder {
        let spec = TopologySpec::TransitStub(TransitStubParams {
            extra_transit_stub_edges: ets,
            extra_stub_stub_edges: ess,
            ..TransitStubParams::paper_default()
        });
        let (sig, r, d) = sig_of(ctx, rctx, &spec);
        rows.push(vec![
            format!("TS +{ets}ts +{ess}ss"),
            sig,
            format!("{r:.1}"),
            format!("{d:.2}"),
        ]);
    }
    TableData {
        id: "ablation-ts-redundancy".into(),
        header: vec![
            "Instance".into(),
            "Signature".into(),
            "R(last)".into(),
            "D(last)".into(),
        ],
        rows,
        failures: Vec::new(),
    }
}

/// §4.4's extreme regimes.
pub fn run_extremes(ctx: &ExpCtx, rctx: &RunCtx) -> TableData {
    let mut rows = Vec::new();
    // Waxman with extreme geographic bias: fragmented, MST-like LCC.
    let frag = TopologySpec::Waxman(WaxmanParams {
        n: 1200,
        alpha: 0.05,
        beta: 0.02,
    });
    let (sig, r, d) = sig_of(ctx, rctx, &frag);
    rows.push(vec![
        "Waxman beta=0.02 (extreme bias)".into(),
        sig,
        format!("{r:.1}"),
        format!("{d:.2}"),
    ]);

    // Tiers with minimal redundancy: an MST with stars.
    let mst_tiers = TopologySpec::Tiers(TiersParams {
        mans_per_wan: 10,
        lans_per_man: 5,
        wan_nodes: 350,
        man_nodes: 20,
        lan_nodes: 4,
        wan_redundancy: 1,
        man_redundancy: 1,
        man_wan_redundancy: 1,
        lan_man_redundancy: 1,
        ..TiersParams::paper_default()
    });
    let (sig, r, d) = sig_of(ctx, rctx, &mst_tiers);
    rows.push(vec![
        "Tiers redundancy=1 (MST-like)".into(),
        sig,
        format!("{r:.1}"),
        format!("{d:.2}"),
    ]);

    // TS with a dominant transit portion: tends toward a random graph
    // ("For two-level TS hierarchies with a large transit portion, TS
    // tends toward a random graph", §4.4).
    let transit_heavy = TopologySpec::TransitStub(TransitStubParams {
        stubs_per_transit_node: 1,
        transit_domains: 6,
        transit_nodes_per_domain: 60,
        transit_edge_prob: 0.08,
        transit_domain_edge_prob: 0.8,
        stub_nodes_per_domain: 2,
        stub_edge_prob: 0.5,
        ..TransitStubParams::paper_default()
    });
    let (sig, r, d) = sig_of(ctx, rctx, &transit_heavy);
    rows.push(vec![
        "TS transit-heavy".into(),
        sig,
        format!("{r:.1}"),
        format!("{d:.2}"),
    ]);

    TableData {
        id: "ablation-extremes".into(),
        header: vec![
            "Instance".into(),
            "Signature".into(),
            "R(last)".into(),
            "D(last)".into(),
        ],
        rows,
        failures: Vec::new(),
    }
}

/// The distortion-heuristic ablation: plain BFS-root heuristics vs the
/// polished local search, on the graphs where tree choice matters.
pub fn run_distortion_polish(ctx: &ExpCtx, rctx: &RunCtx) -> TableData {
    let specs: Vec<(&str, BuiltTopology)> = vec![
        (
            "Mesh 16x16",
            build_in(rctx, &TopologySpec::Mesh { side: 16 }, ctx.scale, ctx.seed),
        ),
        (
            "Waxman 450",
            build_in(
                rctx,
                &TopologySpec::Waxman(WaxmanParams {
                    n: 450,
                    alpha: 0.05,
                    beta: 0.3,
                }),
                ctx.scale,
                ctx.seed,
            ),
        ),
        (
            "Tiers small",
            build_in(
                rctx,
                &TopologySpec::Tiers(TiersParams {
                    mans_per_wan: 6,
                    lans_per_man: 4,
                    wan_nodes: 150,
                    man_nodes: 12,
                    lan_nodes: 4,
                    ..TiersParams::paper_default()
                }),
                ctx.scale,
                ctx.seed,
            ),
        ),
    ];
    let mut rows = Vec::new();
    let _rng = StdRng::seed_from_u64(ctx.seed);
    for (name, t) in specs {
        let plain = graph_distortion(
            &t.graph,
            &DistortionParams {
                polish: false,
                ..Default::default()
            },
        )
        .unwrap_or(f64::NAN);
        let polished = graph_distortion(
            &t.graph,
            &DistortionParams {
                polish: true,
                ..Default::default()
            },
        )
        .unwrap_or(f64::NAN);
        rows.push(vec![
            name.to_string(),
            format!("{plain:.3}"),
            format!("{polished:.3}"),
            format!("{:.1}%", 100.0 * (plain - polished) / plain.max(1e-9)),
        ]);
    }
    TableData {
        id: "ablation-distortion-polish".into(),
        header: vec![
            "Graph".into(),
            "D (BFS heuristics)".into(),
            "D (with local search)".into(),
            "improvement".into(),
        ],
        rows,
        failures: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn polish_never_hurts() {
        let t = run_distortion_polish(&ExpCtx::default(), &RunCtx::new());
        for row in &t.rows {
            let plain: f64 = row[1].parse().unwrap();
            let polished: f64 = row[2].parse().unwrap();
            assert!(
                polished <= plain + 1e-9,
                "{}: polish worsened {plain} → {polished}",
                row[0]
            );
        }
    }
}
