//! Figure 10: clustering coefficient vs ball size, plus the §4.4
//! whole-graph clustering observation (PLRG tracks the AS graph under
//! ball-growing, but not on the whole graph).

use crate::experiments::{ball_grown_curve, build_zoo_degraded, zoo_figure_degraded};
use crate::ExpCtx;
use rand::rngs::StdRng;
use rand::SeedableRng;
use topogen_core::report::{FigureData, Series, TableData};
use topogen_core::RunCtx;
use topogen_metrics::balls::sample_centers;
use topogen_metrics::clustering::graph_clustering;
use topogen_metrics::engine::ClusteringMetric;

/// The ball-growing clustering curves.
pub fn run(ctx: &ExpCtx, rctx: &RunCtx) -> FigureData {
    let centers_n = if ctx.quick { 8 } else { 24 };
    let max_ball = if ctx.quick { 1_500 } else { 5_000 };
    let max_h = if ctx.quick { 40 } else { 64 };
    let metric = ClusteringMetric {
        max_ball_nodes: max_ball,
    };
    zoo_figure_degraded(
        rctx,
        ctx.scale,
        ctx.seed,
        "fig10-clustering",
        "ball size",
        "clustering coefficient",
        |t| {
            let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0xC1);
            let centers = sample_centers(t.graph.node_count(), centers_n, &mut rng);
            let curve = ball_grown_curve(rctx, &t.graph, centers, max_h, max_ball, &metric);
            let x: Vec<f64> = curve.iter().map(|p| p.avg_size).collect();
            let y: Vec<f64> = curve.iter().map(|p| p.value).collect();
            Some(Series::new(&t.name, &x, &y))
        },
    )
}

/// Whole-graph clustering coefficients (the §4.4 caveat table).
pub fn whole_graph_table(ctx: &ExpCtx, rctx: &RunCtx) -> TableData {
    let zoo = build_zoo_degraded(rctx, ctx.scale, ctx.seed);
    let rows = zoo
        .built
        .iter()
        .map(|t| {
            vec![
                t.name.clone(),
                graph_clustering(&t.graph)
                    .map(|c| format!("{c:.4}"))
                    .unwrap_or_else(|| "-".into()),
            ]
        })
        .collect();
    let mut table = TableData::new(
        "fig10-global-clustering",
        vec!["Topology".into(), "global clustering".into()],
        rows,
    );
    for (name, reason) in zoo.failures {
        table.push_failed_row(name, reason);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_clustering_zero() {
        let t = whole_graph_table(&ExpCtx::default(), &RunCtx::new());
        for name in ["Tree", "Mesh"] {
            let row = t.rows.iter().find(|r| r[0] == name).unwrap();
            let c: f64 = row[1].parse().unwrap();
            assert_eq!(c, 0.0, "{name}");
        }
    }

    #[test]
    fn curves_bounded() {
        let f = run(&ExpCtx::default(), &RunCtx::new());
        for s in &f.series {
            assert!(s.y.iter().all(|&c| (0.0..=1.0).contains(&c)), "{}", s.label);
        }
    }
}
