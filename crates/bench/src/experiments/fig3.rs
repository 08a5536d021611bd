//! Figures 3 & 4 (link-value rank distributions) and Figure 14 (the same
//! for the degree-based variants). The two paper figures plot identical
//! data with log- and linear-scaled x axes, so one series set serves
//! both.

use crate::ExpCtx;
use topogen_core::hier::{hierarchy_report_timed_in, HierOptions};
use topogen_core::report::{FigureData, Series};
use topogen_core::zoo::{build_in, BuiltTopology, TopologySpec};
use topogen_core::RunCtx;
use topogen_generators::plrg::PlrgParams;
use topogen_generators::tiers::TiersParams;
use topogen_generators::transit_stub::TransitStubParams;
use topogen_generators::waxman::WaxmanParams;
use topogen_hierarchy::linkvalue::normalized_rank_distribution;

/// Link-value-experiment instances: smaller than the Figure 1 zoo
/// because traversal sets need all-pairs analysis (the paper likewise
/// fell back to the RL core, footnote 29). At `quick` ≈ 300–500 nodes,
/// thorough ≈ 1000+.
pub fn linkvalue_zoo(ctx: &ExpCtx) -> Vec<TopologySpec> {
    let f: usize = if ctx.quick { 1 } else { 3 };
    vec![
        TopologySpec::Tree {
            k: 3,
            depth: 4 + (f > 1) as usize,
        },
        TopologySpec::Mesh { side: 16 * f },
        TopologySpec::Random {
            n: 450 * f,
            p: 0.009 / f as f64,
        },
        TopologySpec::Waxman(WaxmanParams {
            n: 450 * f,
            alpha: 0.05 / f as f64,
            beta: 0.3,
        }),
        TopologySpec::TransitStub(TransitStubParams {
            transit_domains: 3 * f,
            stubs_per_transit_node: 2,
            stub_nodes_per_domain: 6,
            ..TransitStubParams::paper_default()
        }),
        TopologySpec::Tiers(TiersParams {
            mans_per_wan: 6 * f,
            lans_per_man: 4,
            wan_nodes: 150 * f,
            man_nodes: 12,
            lan_nodes: 4,
            ..TiersParams::paper_default()
        }),
        TopologySpec::Plrg(PlrgParams {
            n: 500 * f,
            alpha: 2.246,
            max_degree: None,
        }),
        TopologySpec::MeasuredAs,
    ]
}

fn rank_series(name: &str, values: &[f64]) -> Series {
    let dist = normalized_rank_distribution(values);
    let x: Vec<f64> = dist.iter().map(|p| p.normalized_rank).collect();
    let y: Vec<f64> = dist.iter().map(|p| p.value).collect();
    Series::new(name, &x, &y)
}

/// Figures 3/4: rank distributions for the zoo, with the AS policy
/// variant.
pub fn run(ctx: &ExpCtx, rctx: &RunCtx) -> FigureData {
    let mut series = Vec::new();
    for spec in linkvalue_zoo(ctx) {
        let t = build_in(rctx, &spec, ctx.scale, ctx.seed);
        let r = hierarchy_report_timed_in(rctx, &t, &HierOptions::default()).0;
        series.push(rank_series(&r.name, &r.values));
        if t.annotations.is_some() {
            let rp = hierarchy_report_timed_in(rctx, &t, &HierOptions { policy: true }).0;
            series.push(rank_series(&format!("{}(Policy)", t.name), &rp.values));
        }
    }
    FigureData {
        id: "fig3-linkvalue-rank".into(),
        x_label: "normalized link rank".into(),
        y_label: "normalized link value".into(),
        series,
        failures: Vec::new(),
    }
}

/// Figure 14: the same distributions for the degree-based variants
/// (B-A, Brite, BT, Inet, PLRG), which the paper shows all fall in the
/// moderate band of the measured networks.
pub fn run_variants(ctx: &ExpCtx, rctx: &RunCtx) -> FigureData {
    let n = if ctx.quick { 500 } else { 1500 };
    let mut specs = vec![
        TopologySpec::Ba(topogen_generators::ba::BaParams { n, m: 2 }),
        TopologySpec::Brite(topogen_generators::brite::BriteParams::paper_default(n)),
        TopologySpec::Glp(topogen_generators::glp::GlpParams::paper_as_fit(n)),
        TopologySpec::Inet(topogen_generators::inet::InetParams::paper_default(n)),
        TopologySpec::Plrg(PlrgParams {
            n,
            alpha: 2.246,
            max_degree: None,
        }),
    ];
    specs.push(TopologySpec::MeasuredAs);
    let mut series = Vec::new();
    for spec in specs {
        let t: BuiltTopology = build_in(rctx, &spec, ctx.scale, ctx.seed);
        let r = hierarchy_report_timed_in(rctx, &t, &HierOptions::default()).0;
        series.push(rank_series(&r.name, &r.values));
    }
    FigureData {
        id: "fig14-linkvalue-variants".into(),
        x_label: "normalized link rank".into(),
        y_label: "normalized link value".into(),
        series,
        failures: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zoo_has_eight_entries() {
        assert_eq!(linkvalue_zoo(&ExpCtx::default()).len(), 8);
    }
}
