//! Appendix B, Figure 7: (a–c) eigenvalue vs rank, (d–f) normalized
//! eccentricity distributions.

use crate::experiments::zoo_figure_degraded;
use crate::ExpCtx;
use rand::rngs::StdRng;
use rand::SeedableRng;
use topogen_core::report::{FigureData, Series};
use topogen_core::RunCtx;
use topogen_metrics::eccentricity::{eccentricity_histogram, eccentricity_sample};
use topogen_metrics::spectrum::eigenvalue_spectrum;

/// Figure 7(a–c): the top `k` adjacency eigenvalues against rank. The
/// paper skipped the RL graph ("too large"); Lanczos handles our scaled
/// substitute, but at quick settings we skip it too for time parity.
pub fn run_eigen(ctx: &ExpCtx, rctx: &RunCtx) -> FigureData {
    let k = if ctx.quick { 20 } else { 60 };
    zoo_figure_degraded(
        rctx,
        ctx.scale,
        ctx.seed,
        "fig7-eigenvalues",
        "rank",
        "eigenvalue",
        |t| {
            if ctx.quick && t.name == "RL" {
                return None;
            }
            let spec = eigenvalue_spectrum(&t.graph, k, ctx.seed ^ 0xE16);
            let pts: Vec<(f64, f64)> = spec
                .iter()
                .enumerate()
                .filter(|(_, &v)| v > 0.0)
                .map(|(i, &v)| ((i + 1) as f64, v))
                .collect();
            let x: Vec<f64> = pts.iter().map(|p| p.0).collect();
            let y: Vec<f64> = pts.iter().map(|p| p.1).collect();
            Some(Series::new(&t.name, &x, &y))
        },
    )
}

/// Figure 7(d–f): histogram of node eccentricities normalized by the
/// mean — the "node diameter distribution" of Zegura et al.
pub fn run_diameter(ctx: &ExpCtx, rctx: &RunCtx) -> FigureData {
    let samples = if ctx.quick { 150 } else { 1000 };
    let bins = 11;
    zoo_figure_degraded(
        rctx,
        ctx.scale,
        ctx.seed,
        "fig7-eccentricity",
        "normalized eccentricity",
        "fraction of nodes",
        |t| {
            let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0xD1A);
            let eccs = eccentricity_sample(&t.graph, samples, &mut rng);
            let hist = eccentricity_histogram(&eccs, bins);
            let x: Vec<f64> = hist.iter().map(|b| b.normalized).collect();
            let y: Vec<f64> = hist.iter().map(|b| b.fraction).collect();
            Some(Series::new(&t.name, &x, &y))
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eigen_series_descending() {
        let f = run_eigen(&ExpCtx::default(), &RunCtx::new());
        assert!(f.series.len() >= 8);
        for s in &f.series {
            assert!(
                s.y.windows(2).all(|w| w[0] >= w[1] - 1e-9),
                "{} spectrum not sorted",
                s.label
            );
        }
    }

    #[test]
    fn eccentricity_histograms_normalized() {
        let f = run_diameter(&ExpCtx::default(), &RunCtx::new());
        for s in &f.series {
            let total: f64 = s.y.iter().sum();
            assert!((total - 1.0).abs() < 1e-9, "{}: Σ = {total}", s.label);
        }
    }
}
