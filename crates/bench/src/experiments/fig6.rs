//! Appendix A, Figure 6: complementary cumulative degree distributions
//! for the canonical, measured and generated networks — "only the PLRG
//! qualitatively captures the degree distribution of the measured
//! networks".

use crate::experiments::{build_zoo, zoo_figure_degraded};
use crate::ExpCtx;
use topogen_core::report::{FigureData, Series};
use topogen_core::RunCtx;
use topogen_generators::degseq::degree_ccdf;

/// All zoo CCDFs as one figure.
pub fn run(ctx: &ExpCtx, rctx: &RunCtx) -> FigureData {
    zoo_figure_degraded(
        rctx,
        ctx.scale,
        ctx.seed,
        "fig6-degree-ccdf",
        "degree",
        "complementary cumulative frequency",
        |t| {
            let c = degree_ccdf(&t.graph);
            let x: Vec<f64> = c.iter().map(|p| p.degree as f64).collect();
            let y: Vec<f64> = c.iter().map(|p| p.fraction).collect();
            Some(Series::new(&t.name, &x, &y))
        },
    )
}

/// The qualitative claim of Appendix A as a check: the heavy-tail span
/// (max degree / mean degree) of PLRG and the measured graphs is an
/// order of magnitude beyond the structural generators'.
pub fn heavy_tail_ordering(ctx: &ExpCtx, rctx: &RunCtx) -> Vec<(String, f64)> {
    let zoo = build_zoo(rctx, ctx.scale, ctx.seed);
    zoo.iter()
        .map(|t| {
            (
                t.name.clone(),
                topogen_generators::degseq::max_to_mean_degree_ratio(&t.graph),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ccdf_series_start_at_one() {
        let f = run(&ExpCtx::default(), &RunCtx::new());
        assert_eq!(f.series.len(), 9);
        for s in &f.series {
            assert!(
                (s.y[0] - 1.0).abs() < 1e-9,
                "{} CCDF starts at {}",
                s.label,
                s.y[0]
            );
        }
    }

    #[test]
    fn plrg_and_measured_heavy_tailed_structural_not() {
        let ratios = heavy_tail_ordering(&ExpCtx::default(), &RunCtx::new());
        let get = |n: &str| ratios.iter().find(|(name, _)| name == n).unwrap().1;
        assert!(get("PLRG") > 10.0);
        assert!(get("AS") > 10.0);
        assert!(get("RL") > 10.0);
        assert!(get("TS") < 5.0);
        assert!(get("Mesh") < 2.0);
        assert!(get("Tree") < 3.0);
        // Tiers' WAN/MAN routers have bounded nearest-neighbor degree.
        assert!(get("Tiers") < 10.0);
    }
}
