//! Figure 2: the paper's centerpiece — expansion, resilience and
//! distortion curves for the canonical (a–c), measured (d–f), generated
//! (g–i) and degree-based (j–l) panels, including the AS/RL policy
//! variants.

use crate::experiments::{build_zoo, catching};
use crate::ExpCtx;
use topogen_core::report::{FigureData, Series};
use topogen_core::suite::{run_suite_in, run_suite_policy_in, run_suite_rl_policy_in, SuiteResult};
use topogen_core::zoo::{build_in, BuiltTopology, TopologySpec};
use topogen_core::RunCtx;
use topogen_metrics::CurvePoint;

/// Which of the three metrics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Metric {
    /// E(h).
    Expansion,
    /// R(n).
    Resilience,
    /// D(n).
    Distortion,
}

impl Metric {
    /// All three.
    pub fn all() -> [Metric; 3] {
        [Metric::Expansion, Metric::Resilience, Metric::Distortion]
    }

    /// Label for ids/axes.
    pub fn label(&self) -> &'static str {
        match self {
            Metric::Expansion => "expansion",
            Metric::Resilience => "resilience",
            Metric::Distortion => "distortion",
        }
    }
}

fn curve_series(label: &str, metric: Metric, r: &SuiteResult) -> Series {
    match metric {
        Metric::Expansion => {
            let x: Vec<f64> = (0..r.expansion.len()).map(|h| h as f64).collect();
            Series::new(label, &x, &r.expansion)
        }
        Metric::Resilience => points_series(label, &r.resilience),
        Metric::Distortion => points_series(label, &r.distortion),
    }
}

fn points_series(label: &str, pts: &[CurvePoint]) -> Series {
    let x: Vec<f64> = pts.iter().map(|p| p.avg_size).collect();
    let y: Vec<f64> = pts.iter().map(|p| p.value).collect();
    Series::new(label, &x, &y)
}

/// One Figure 2 panel: `panel` ∈ {"canonical", "measured", "generated",
/// "degree-based"}, one figure per metric.
pub fn run(ctx: &ExpCtx, rctx: &RunCtx, panel: &str, metric: Metric) -> FigureData {
    let params = ctx.suite_params();
    let mut series = Vec::new();
    let mut failures: Vec<(String, String)> = Vec::new();
    let specs: Vec<TopologySpec> = match panel {
        "canonical" => named_specs(ctx, &["Tree", "Mesh", "Random"]),
        "measured" => vec![TopologySpec::MeasuredAs, TopologySpec::MeasuredRl],
        "generated" => named_specs(ctx, &["TS", "Tiers", "Waxman", "PLRG"]),
        "degree-based" => TopologySpec::degree_based_zoo(ctx.scale),
        other => panic!("unknown panel {other:?}"),
    };
    // Per-topology fault isolation, at both stages: a topology that
    // fails to build or to measure is footnoted instead of aborting the
    // panel (its seeding is independent, so the survivors are unchanged).
    let mut topologies: Vec<BuiltTopology> = Vec::new();
    for s in &specs {
        match catching(|| build_in(rctx, s, ctx.scale, ctx.seed)) {
            Ok(t) => topologies.push(t),
            Err(reason) => failures.push((s.name(), reason)),
        }
    }
    for t in &topologies {
        let measured = catching(|| {
            let mut local = Vec::new();
            let r = run_suite_in(rctx, t, &params);
            local.push(curve_series(&t.name, metric, &r));
            // Policy variants, exactly as the paper plots them: AS(Policy)
            // through valley-free balls, RL(Policy) through the Appendix E
            // router overlay.
            if t.annotations.is_some() {
                let rp = run_suite_policy_in(rctx, t, &params);
                local.push(curve_series(&format!("{}(Policy)", t.name), metric, &rp));
            }
            if t.as_overlay.is_some() {
                let rp = run_suite_rl_policy_in(rctx, t, &params);
                local.push(curve_series(&format!("{}(Policy)", t.name), metric, &rp));
            }
            local
        });
        match measured {
            Ok(local) => series.extend(local),
            Err(reason) => failures.push((t.name.clone(), reason)),
        }
    }
    let (x_label, y_label) = match metric {
        Metric::Expansion => ("ball radius h", "expansion E(h)"),
        Metric::Resilience => ("ball size n", "resilience R(n)"),
        Metric::Distortion => ("ball size n", "distortion D(n)"),
    };
    let mut fig = FigureData::new(
        format!("fig2-{}-{}", metric.label(), panel),
        x_label,
        y_label,
        series,
    );
    for (label, reason) in failures {
        fig.note_failure(label, reason);
    }
    fig
}

/// Look up zoo specs by topology name (each `build` seeds its own RNG,
/// so building just the named specs matches building the whole zoo).
fn named_specs(ctx: &ExpCtx, names: &[&str]) -> Vec<TopologySpec> {
    let zoo = TopologySpec::figure1_zoo(ctx.scale);
    names
        .iter()
        .map(|n| {
            zoo.iter()
                .find(|s| s.name() == *n)
                .unwrap_or_else(|| panic!("{n} not in zoo"))
                .clone()
        })
        .collect()
}

/// The qualitative checks the panels support (used by EXPERIMENTS.md and
/// the integration tests): returns (claim, holds).
#[allow(clippy::vec_init_then_push)]
pub fn qualitative_checks(ctx: &ExpCtx, rctx: &RunCtx) -> Vec<(String, bool)> {
    use topogen_metrics::expansion::expansion_growth_rate;
    let params = ctx.suite_params();
    let zoo = build_zoo(rctx, ctx.scale, ctx.seed);
    let get = |name: &str| zoo.iter().find(|t| t.name == name).unwrap();
    let suite = |t: &BuiltTopology| run_suite_in(rctx, t, &params);

    let mesh = suite(get("Mesh"));
    let tiers = suite(get("Tiers"));
    let tree = suite(get("Tree"));
    let ts = suite(get("TS"));
    let plrg = suite(get("PLRG"));
    let asg = suite(get("AS"));
    let waxman = suite(get("Waxman"));
    let random = suite(get("Random"));

    let last = |c: &[CurvePoint]| {
        c.iter()
            .rev()
            .find(|p| p.value.is_finite())
            .map(|p| p.value)
            .unwrap_or(f64::NAN)
    };
    let mut checks = Vec::new();
    checks.push((
        "Tiers and Mesh expand slowly; all others exponentially".into(),
        expansion_growth_rate(&tiers.expansion) < 0.2
            && expansion_growth_rate(&mesh.expansion) < 0.2
            && expansion_growth_rate(&plrg.expansion) > 0.2
            && expansion_growth_rate(&asg.expansion) > 0.2,
    ));
    checks.push((
        "TS and Tree have low resilience; PLRG/AS/Waxman/Random high".into(),
        last(&ts.resilience) < 10.0
            && last(&tree.resilience) < 10.0
            && last(&plrg.resilience) > 30.0
            && last(&asg.resilience) > 30.0
            && last(&waxman.resilience) > 30.0,
    ));
    checks.push((
        "Waxman/Random/Mesh have high distortion; AS/PLRG/TS/Tiers low".into(),
        last(&waxman.distortion) > last(&asg.distortion)
            && last(&random.distortion) > last(&plrg.distortion)
            && last(&mesh.distortion) > last(&ts.distortion),
    ));
    checks.push((
        "the AS and RL graphs behave alike (same signature)".into(),
        asg.signature == suite(get("RL")).signature,
    ));
    checks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_panel_has_three_series() {
        let f = run(
            &ExpCtx::default(),
            &RunCtx::new(),
            "canonical",
            Metric::Expansion,
        );
        assert_eq!(f.series.len(), 3);
        assert!(f.id.contains("expansion"));
        // Expansion curves approach 1 (the quick radius budget of 40
        // truncates the 58-hop mesh slightly).
        for s in &f.series {
            let last = *s.y.last().unwrap();
            assert!(last > 0.9, "{}: E ends at {last}", s.label);
        }
    }

    #[test]
    #[should_panic]
    fn unknown_panel_panics() {
        let _ = run(
            &ExpCtx::default(),
            &RunCtx::new(),
            "nope",
            Metric::Expansion,
        );
    }
}
