//! Appendix D, Figures 12 & 13: the degree-based generator variants.
//!
//! Figure 12: degree CCDF plus the three basic metrics for B-A, Brite,
//! BT (GLP), Inet and PLRG — "they are all qualitatively similar with
//! respect to our metrics".
//!
//! Figure 13: the "Modified B-A" / "Modified Brite" experiment — extract
//! each graph's degree sequence, reconnect it with the PLRG method, and
//! show the metric curves coincide with the originals, demonstrating
//! that "what seems to determine the qualitative behavior ... is the
//! degree distribution, not the connectivity method". We also include
//! the *deterministic* connectivity contrast (Appendix D.1's closing
//! observation that deterministic wiring is NOT equivalent).

use crate::experiments::fig2::Metric;
use crate::ExpCtx;
use rand::rngs::StdRng;
use rand::SeedableRng;
use topogen_core::classify::Signature;
use topogen_core::report::{FigureData, Series, TableData};
use topogen_core::suite::run_suite_in;
use topogen_core::zoo::{build_in, BuiltTopology, TopologySpec};
use topogen_core::RunCtx;
use topogen_generators::connectivity::match_deterministic;
use topogen_generators::degseq::degree_ccdf;
use topogen_graph::components::largest_component;

/// Figure 12: CCDF + metric curves for the degree-based panel. Returns
/// `(ccdf figure, [expansion, resilience, distortion] figures)`.
pub fn run(ctx: &ExpCtx, rctx: &RunCtx) -> (FigureData, Vec<FigureData>) {
    let specs = TopologySpec::degree_based_zoo(ctx.scale);
    let built: Vec<BuiltTopology> = specs
        .iter()
        .map(|s| build_in(rctx, s, ctx.scale, ctx.seed))
        .collect();
    let ccdf_series = built
        .iter()
        .map(|t| {
            let c = degree_ccdf(&t.graph);
            Series::new(
                &t.name,
                &c.iter().map(|p| p.degree as f64).collect::<Vec<_>>(),
                &c.iter().map(|p| p.fraction).collect::<Vec<_>>(),
            )
        })
        .collect();
    let ccdf = FigureData {
        id: "fig12-ccdf".into(),
        x_label: "degree".into(),
        y_label: "complementary cumulative frequency".into(),
        series: ccdf_series,
        failures: Vec::new(),
    };
    let params = ctx.suite_params();
    let mut figs = Vec::new();
    let results: Vec<_> = built
        .iter()
        .map(|t| run_suite_in(rctx, t, &params))
        .collect();
    for metric in Metric::all() {
        let series = built
            .iter()
            .zip(&results)
            .map(|(t, r)| match metric {
                Metric::Expansion => {
                    let x: Vec<f64> = (0..r.expansion.len()).map(|h| h as f64).collect();
                    Series::new(&t.name, &x, &r.expansion)
                }
                Metric::Resilience => Series::new(
                    &t.name,
                    &r.resilience.iter().map(|p| p.avg_size).collect::<Vec<_>>(),
                    &r.resilience.iter().map(|p| p.value).collect::<Vec<_>>(),
                ),
                Metric::Distortion => Series::new(
                    &t.name,
                    &r.distortion.iter().map(|p| p.avg_size).collect::<Vec<_>>(),
                    &r.distortion.iter().map(|p| p.value).collect::<Vec<_>>(),
                ),
            })
            .collect();
        figs.push(FigureData {
            id: format!("fig12-{}", metric.label()),
            x_label: "h or n".into(),
            y_label: metric.label().into(),
            series,
            failures: Vec::new(),
        });
    }
    (ccdf, figs)
}

/// Figure 13 + the deterministic contrast, as a signature table: each
/// variant, its PLRG-rewired "Modified" twin, and (for PLRG) the
/// deterministic-wiring twin.
pub fn run_modified(ctx: &ExpCtx, rctx: &RunCtx) -> TableData {
    let params = ctx.suite_params();
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut push = |name: &str, sig: Signature, g: &topogen_graph::Graph| {
        // Diameter estimate (eccentricity of node 0 — within 2× of the
        // true diameter) and clustering: the fine structure where the
        // deterministic threshold-like graph departs from the random
        // variants even when the coarse L/H signature coincides.
        let ecc = topogen_graph::bfs::eccentricity(g, 0);
        let clus = topogen_metrics::clustering::graph_clustering(g).unwrap_or(0.0);
        rows.push(vec![
            name.to_string(),
            sig.to_string(),
            ecc.to_string(),
            format!("{clus:.3}"),
        ]);
    };
    for spec in TopologySpec::degree_based_zoo(ctx.scale) {
        let original = build_in(rctx, &spec, ctx.scale, ctx.seed);
        let orig_sig = run_suite_in(rctx, &original, &params).signature;
        push(&original.name, orig_sig, &original.graph);
        let modified = build_in(
            rctx,
            &TopologySpec::PlrgRewired(Box::new(spec.clone())),
            ctx.scale,
            ctx.seed,
        );
        let mod_sig = run_suite_in(rctx, &modified, &params).signature;
        push(&modified.name, mod_sig, &modified.graph);
    }
    // Appendix D.1's full connectivity sweep over one PLRG degree
    // sequence: every *random* rule should keep the HHL signature;
    // the deterministic rule should not.
    let base = build_in(
        rctx,
        &TopologySpec::Plrg(topogen_generators::plrg::PlrgParams {
            n: if ctx.quick { 1300 } else { 9000 },
            alpha: 2.246,
            max_degree: None,
        }),
        ctx.scale,
        ctx.seed,
    );
    let degrees = base.graph.degrees();
    let wrap =
        |name: &str, g: topogen_graph::Graph| BuiltTopology::plain(name, largest_component(&g).0);
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0xD1);
    let variants: Vec<(&str, topogen_graph::Graph)> = vec![
        (
            "PLRG(uniform wiring)",
            topogen_generators::connectivity::match_uniform(&degrees, &mut rng),
        ),
        (
            "PLRG(highest-first uniform)",
            topogen_generators::connectivity::match_highest_first(
                &degrees,
                topogen_generators::connectivity::PartnerRule::Uniform,
                &mut rng,
            ),
        ),
        (
            "PLRG(highest-first proportional)",
            topogen_generators::connectivity::match_highest_first(
                &degrees,
                topogen_generators::connectivity::PartnerRule::ProportionalToDegree,
                &mut rng,
            ),
        ),
        (
            "PLRG(highest-first unsatisfied)",
            topogen_generators::connectivity::match_highest_first(
                &degrees,
                topogen_generators::connectivity::PartnerRule::ProportionalToUnsatisfied,
                &mut rng,
            ),
        ),
        ("PLRG(deterministic wiring)", match_deterministic(&degrees)),
    ];
    for (name, g) in variants {
        let t = wrap(name, g);
        let sig = run_suite_in(rctx, &t, &params).signature;
        push(name, sig, &t.graph);
    }
    TableData {
        id: "fig13-modified-variants".into(),
        header: vec![
            "Topology".into(),
            "Signature".into(),
            "Ecc(0)".into(),
            "Clustering".into(),
        ],
        rows,
        failures: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ccdf_has_five_variants() {
        let (ccdf, figs) = run(&ExpCtx::default(), &RunCtx::new());
        assert_eq!(ccdf.series.len(), 5);
        assert_eq!(figs.len(), 3);
    }
}
