//! Appendix B, Figure 9: attack tolerance (a–c) and error tolerance
//! (d–f) — average path length of the largest component as nodes are
//! removed by decreasing degree (attack) or at random (error).

use crate::experiments::{build_zoo, zoo_figure_degraded};
use crate::ExpCtx;
use rand::rngs::StdRng;
use rand::SeedableRng;
use topogen_core::report::{FigureData, Series};
use topogen_core::RunCtx;
use topogen_metrics::tolerance::{standard_fractions, tolerance_curve, Removal};

/// One tolerance panel.
pub fn run(ctx: &ExpCtx, rctx: &RunCtx, mode: Removal) -> FigureData {
    let samples = if ctx.quick { 12 } else { 60 };
    let fractions = standard_fractions();
    let label = match mode {
        Removal::Attack => "attack",
        Removal::Error => "error",
    };
    zoo_figure_degraded(
        rctx,
        ctx.scale,
        ctx.seed,
        format!("fig9-{label}-tolerance"),
        "fraction of nodes removed",
        "average path length (largest component)",
        |t| {
            if ctx.quick && t.name == "RL" {
                // Path-length sampling on the 15k-node RL graph at every
                // removal fraction is minutes-scale; thorough runs include it.
                return None;
            }
            let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0x7019);
            let pts = tolerance_curve(&t.graph, mode, &fractions, samples, &mut rng);
            let x: Vec<f64> = pts.iter().map(|p| p.fraction).collect();
            let y: Vec<f64> = pts.iter().map(|p| p.avg_path_length).collect();
            Some(Series::new(&t.name, &x, &y))
        },
    )
}

/// The Albert-et-al. claim the panel supports: power-law graphs (PLRG,
/// AS) suffer far more under attack than under error; returns per-name
/// `(attack path stretch, error path stretch)` at 10% removal.
pub fn attack_vs_error(ctx: &ExpCtx, rctx: &RunCtx) -> Vec<(String, f64, f64)> {
    let samples = if ctx.quick { 12 } else { 60 };
    let fr = [0.0, 0.1];
    let zoo = build_zoo(rctx, ctx.scale, ctx.seed);
    let mut out = Vec::new();
    for t in &zoo {
        if t.name == "RL" && ctx.quick {
            continue;
        }
        let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0xAE);
        let atk = tolerance_curve(&t.graph, Removal::Attack, &fr, samples, &mut rng);
        let err = tolerance_curve(&t.graph, Removal::Error, &fr, samples, &mut rng);
        // "Stretch": relative growth of the path length, weighted by how
        // much of the network even survives.
        let stretch = |pts: &[topogen_metrics::tolerance::TolerancePoint]| {
            let base = pts[0].avg_path_length.max(1e-9);
            let survived = pts[1].largest_component as f64 / pts[0].largest_component.max(1) as f64;
            if pts[1].avg_path_length.is_nan() || survived < 0.05 {
                f64::INFINITY // shattered
            } else {
                pts[1].avg_path_length / base / survived
            }
        };
        out.push((t.name.clone(), stretch(&atk), stretch(&err)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_panel_has_series() {
        let f = run(&ExpCtx::default(), &RunCtx::new(), Removal::Error);
        assert!(f.series.len() >= 8);
        for s in &f.series {
            assert_eq!(s.x[0], 0.0);
            assert!(s.y[0] > 1.0, "{}: baseline APL {}", s.label, s.y[0]);
        }
    }

    #[test]
    fn plrg_attack_fragility() {
        let rows = attack_vs_error(&ExpCtx::default(), &RunCtx::new());
        let (_, atk, err) = rows.iter().find(|(n, ..)| n == "PLRG").unwrap();
        assert!(
            atk > err,
            "PLRG must degrade more under attack: attack {atk} vs error {err}"
        );
    }
}
