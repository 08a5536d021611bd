//! One module per reproduced table/figure.

pub mod ablations;
pub mod bgp;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig15;
pub mod fig2;
pub mod fig3;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod robustness;
pub mod signatures;
pub mod tab1;

use topogen_core::zoo::{build_in, BuiltTopology, Scale, TopologySpec};
use topogen_core::RunCtx;
use topogen_metrics::balls::PlainBalls;
use topogen_metrics::engine::{BallMetric, BallPlan};
use topogen_metrics::CurvePoint;
use topogen_par::{cancel, panic_message};

/// Build the Figure 1 zoo (shared by most experiments) under `ctx`.
/// Building is seconds-scale at `Scale::Small`.
pub fn build_zoo(ctx: &RunCtx, scale: Scale, seed: u64) -> Vec<BuiltTopology> {
    TopologySpec::figure1_zoo(scale)
        .iter()
        .map(|s| build_in(ctx, s, scale, seed))
        .collect()
}

/// Run one component of an experiment (one topology's build or suite)
/// with panic isolation: a panic becomes `Err(redacted message)` so the
/// rest of the table/figure still renders. Deadline cancellations are
/// *not* absorbed — they unwind the whole unit so timeouts stay prompt.
pub fn catching<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(v) => Ok(v),
        Err(payload) => {
            if cancel::is_cancelled_payload(payload.as_ref()) {
                std::panic::resume_unwind(payload);
            }
            Err(panic_message(payload.as_ref()))
        }
    }
}

/// The Figure 1 zoo with per-topology fault isolation: topologies that
/// fail to build are reported as `(name, reason)` instead of aborting
/// the whole experiment (the degraded entries render as footnotes).
pub struct ZooBuild {
    /// The topologies that built successfully, in zoo order.
    pub built: Vec<BuiltTopology>,
    /// `(topology name, redacted reason)` for each failed build.
    pub failures: Vec<(String, String)>,
}

/// The common shape of the zoo figures (fig6–fig10): one series per
/// topology, with per-topology panic isolation at both the build and
/// the measure stage. `f` returns `None` to skip a topology (the
/// existing RL-at-quick-settings escape hatches); panics inside `f`
/// become footnoted failures instead of aborting the figure.
pub fn zoo_figure_degraded(
    ctx: &RunCtx,
    scale: Scale,
    seed: u64,
    id: impl Into<String>,
    x_label: &str,
    y_label: &str,
    mut f: impl FnMut(&BuiltTopology) -> Option<topogen_core::report::Series>,
) -> topogen_core::report::FigureData {
    let zoo = build_zoo_degraded(ctx, scale, seed);
    let mut fig = topogen_core::report::FigureData::new(id, x_label, y_label, Vec::new());
    for (name, reason) in zoo.failures {
        fig.note_failure(name, reason);
    }
    for t in &zoo.built {
        match catching(|| f(t)) {
            Ok(Some(s)) => fig.series.push(s),
            Ok(None) => {}
            Err(reason) => fig.note_failure(t.name.clone(), reason),
        }
    }
    fig
}

/// [`build_zoo`] with per-topology panic isolation.
pub fn build_zoo_degraded(ctx: &RunCtx, scale: Scale, seed: u64) -> ZooBuild {
    let mut built = Vec::new();
    let mut failures = Vec::new();
    for s in &TopologySpec::figure1_zoo(scale) {
        match catching(|| build_in(ctx, s, scale, seed)) {
            Ok(t) => built.push(t),
            Err(reason) => failures.push((s.name(), reason)),
        }
    }
    ZooBuild { built, failures }
}

/// One Appendix-B ball-growing curve (Figures 8 and 10): `metric` over
/// plain shortest-path balls of radii `0..=max_h` around `centers`, on
/// the shared-ball engine under `ctx`. The plan's size cap sits at
/// `max_ball`, the consumers' own cap, above which they decline a ball.
pub fn ball_grown_curve(
    ctx: &RunCtx,
    g: &topogen_graph::Graph,
    centers: Vec<topogen_graph::NodeId>,
    max_h: u32,
    max_ball: usize,
    metric: &dyn BallMetric,
) -> Vec<CurvePoint> {
    let src = PlainBalls { graph: g };
    let mut out = BallPlan::new(&src, max_h, 0)
        .ball_centers(centers)
        .metric(metric)
        .kernel(ctx.kernel)
        .ball_size_cap(Some(max_ball))
        .context(ctx.engine())
        .run();
    out.curves.swap_remove(0)
}

/// The canonical / measured / generated grouping the paper's figures use.
pub fn group_of(name: &str) -> &'static str {
    match name {
        "Tree" | "Mesh" | "Random" | "Complete" | "Linear" => "canonical",
        "AS" | "RL" => "measured",
        "B-A" | "Brite" | "BT" | "Inet" | "AB" => "degree-based",
        _ => "generated",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups() {
        assert_eq!(group_of("Tree"), "canonical");
        assert_eq!(group_of("AS"), "measured");
        assert_eq!(group_of("PLRG"), "generated");
        assert_eq!(group_of("BT"), "degree-based");
    }
}
