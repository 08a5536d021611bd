use topogen_core::suite::{run_suite_in, SuiteParams};
use topogen_core::zoo::{build_in, Scale, TopologySpec};
use topogen_core::RunCtx;
use topogen_metrics::expansion::expansion_growth_rate;
use topogen_metrics::resilience::resilience_growth_exponent;

fn main() {
    let mut specs = TopologySpec::figure1_zoo(Scale::Small);
    specs.push(TopologySpec::Complete { n: 150 });
    specs.push(TopologySpec::Linear { n: 600 });
    let ctx = RunCtx::new();
    for spec in specs {
        let t = build_in(&ctx, &spec, Scale::Small, 42);
        let r = run_suite_in(&ctx, &t, &SuiteParams::quick());
        let er = expansion_growth_rate(&r.expansion);
        let rx = resilience_growth_exponent(&r.resilience);
        let rlast = r.resilience.iter().rev().find(|p| p.value.is_finite());
        let dlast = r
            .distortion
            .iter()
            .rev()
            .find(|p| p.value.is_finite() && p.avg_size >= 8.0);
        println!(
            "{:10} n={:6} sig={} | E-rate={:.3} | R-expo={:.3} R-last=({:.0},{:.1}) | D-last=({:.0},{:.2} thr {:.2})",
            t.name, t.graph.node_count(), r.signature, er, rx,
            rlast.map(|p| p.avg_size).unwrap_or(0.0), rlast.map(|p| p.value).unwrap_or(f64::NAN),
            dlast.map(|p| p.avg_size).unwrap_or(0.0), dlast.map(|p| p.value).unwrap_or(f64::NAN),
            dlast.map(|p| 0.40 * p.avg_size.ln()).unwrap_or(f64::NAN),
        );
    }
}
