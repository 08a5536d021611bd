//! Appendix B, Figure 8: (a–c) vertex cover vs ball size and (d–f)
//! biconnected components vs ball size.

use crate::experiments::{ball_grown_curve, zoo_figure_degraded};
use crate::ExpCtx;
use rand::rngs::StdRng;
use rand::SeedableRng;
use topogen_core::report::{FigureData, Series};
use topogen_core::RunCtx;
use topogen_metrics::balls::sample_centers;
use topogen_metrics::engine::{BallMetric, BiconMetric, CoverMetric};

fn run_ball_metric(
    ctx: &ExpCtx,
    rctx: &RunCtx,
    id: &str,
    y_label: &str,
    which: &str,
) -> FigureData {
    let centers_n = if ctx.quick { 8 } else { 24 };
    let max_ball = if ctx.quick { 1_200 } else { 4_000 };
    let max_h = if ctx.quick { 40 } else { 64 };
    let cover = CoverMetric {
        max_ball_nodes: max_ball,
    };
    let bicon = BiconMetric {
        max_ball_nodes: max_ball,
    };
    let metric: &dyn BallMetric = match which {
        "cover" => &cover,
        "bicon" => &bicon,
        other => panic!("unknown metric {other:?}"),
    };
    zoo_figure_degraded(rctx, ctx.scale, ctx.seed, id, "ball size", y_label, |t| {
        // The RL graph at quick settings is large; its balls are capped
        // like everything else's, so it stays included.
        let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0xF18);
        let centers = sample_centers(t.graph.node_count(), centers_n, &mut rng);
        let curve = ball_grown_curve(rctx, &t.graph, centers, max_h, max_ball, metric);
        let x: Vec<f64> = curve.iter().map(|p| p.avg_size).collect();
        let y: Vec<f64> = curve.iter().map(|p| p.value).collect();
        Some(Series::new(&t.name, &x, &y))
    })
}

/// Figure 8(a–c): vertex cover growth.
pub fn run_cover(ctx: &ExpCtx, rctx: &RunCtx) -> FigureData {
    run_ball_metric(ctx, rctx, "fig8-vertex-cover", "vertex cover", "cover")
}

/// Figure 8(d–f): biconnected-component growth.
pub fn run_bicon(ctx: &ExpCtx, rctx: &RunCtx) -> FigureData {
    run_ball_metric(
        ctx,
        rctx,
        "fig8-biconnectivity",
        "number of biconnected components",
        "bicon",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cover_grows_with_ball() {
        let ctx = ExpCtx {
            quick: true,
            ..Default::default()
        };
        let f = run_cover(&ctx, &RunCtx::new());
        // Vertex cover grows monotonically with ball size for every zoo
        // member (within finite-sample noise: allow tiny dips).
        for s in &f.series {
            let first = s.y.iter().find(|v| **v > 0.0).copied().unwrap_or(0.0);
            let last = *s.y.last().unwrap();
            assert!(last >= first, "{}: cover shrank {first} → {last}", s.label);
        }
    }

    #[test]
    fn tree_bicon_tracks_edges() {
        let f = run_bicon(&ExpCtx::default(), &RunCtx::new());
        let tree = f.series.iter().find(|s| s.label == "Tree").unwrap();
        // For trees, #biconnected components = #edges = ball size − 1.
        for (x, y) in tree.x.iter().zip(&tree.y) {
            if *x >= 2.0 {
                assert!((y - (x - 1.0)).abs() < 1.5, "ball {x}: {y} components");
            }
        }
    }
}
