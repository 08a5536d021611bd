//! The two classification tables: §3.2.1/§4.4's Low/High signature table
//! and §5.1's strict/moderate/loose hierarchy table — the paper's two
//! headline results.

use crate::experiments::catching;
use crate::experiments::fig3::linkvalue_zoo;
use crate::ExpCtx;
use topogen_core::hier::{hierarchy_report_timed_in, HierOptions};
use topogen_core::report::{TableData, TimingReport};
use topogen_core::suite::{run_suite_in, run_suite_policy_in, run_suite_rl_policy_in, SuiteCis};
use topogen_core::zoo::{build_in, Scale, TopologySpec};
use topogen_core::RunCtx;

/// The paper's expected signature per topology (§4.4's table).
pub fn paper_signature(name: &str) -> Option<&'static str> {
    Some(match name {
        "Mesh" => "LHH",
        "Random" => "HHH",
        "Tree" => "HLL",
        "Complete" => "HHL",
        "Linear" => "LLL",
        "AS" | "RL" | "PLRG" => "HHL",
        "AS(Policy)" | "RL(Policy)" => "HHL",
        "Tiers" => "LHL",
        "TS" => "HLL",
        "Waxman" => "HHH",
        _ => return None,
    })
}

/// Bootstrap 95% half-width cells for a sampled-tier row ("-" when the
/// suite ran without bootstrap resampling).
fn ci_cells(cis: Option<&SuiteCis>) -> [String; 3] {
    match cis {
        Some(c) => [
            SuiteCis::pm(c.expansion_rate),
            SuiteCis::pm(c.resilience_peak),
            SuiteCis::pm(c.distortion_last),
        ],
        None => ["-".to_string(), "-".to_string(), "-".to_string()],
    }
}

/// The §4.4 signature table over the full zoo (plus Complete and Linear
/// for calibration), with the paper's expected column and a match flag.
pub fn run_signature_table(ctx: &ExpCtx, rctx: &RunCtx) -> TableData {
    run_signature_table_timed(ctx, rctx).0
}

/// [`run_signature_table`] plus the merged engine instrumentation of
/// every suite run it performed (what `repro tab-signature --timings`
/// prints and archives as `BENCH_tab-signature.json`).
pub fn run_signature_table_timed(ctx: &ExpCtx, rctx: &RunCtx) -> (TableData, TimingReport) {
    let params = ctx.suite_params();
    // At the sampled-center tiers the curves are estimates over a
    // center subsample, so the table records the population and sample
    // sizes next to each signature, plus bootstrap 95% half-widths for
    // the three classified statistics; Small/Paper keep the historical
    // four-column shape byte-identical.
    let sampled = matches!(ctx.scale, Scale::Large | Scale::Xl);
    let mut timings = TimingReport::default();
    let mut specs = TopologySpec::figure1_zoo(ctx.scale);
    specs.push(TopologySpec::Complete { n: 150 });
    specs.push(TopologySpec::Linear { n: 600 });
    // Extension: the N-level hierarchy from Zegura et al.'s original
    // comparison — expected to behave like the structural family.
    specs.push(TopologySpec::NLevel(
        topogen_generators::nlevel::NLevelParams::three_level_1000(),
    ));
    let mut rows = Vec::new();
    let mut failures: Vec<(String, String)> = Vec::new();
    for spec in specs {
        // Per-topology isolation: a failed build or suite degrades this
        // spec's rows instead of aborting the table.
        let outcome = catching(|| {
            let t = build_in(rctx, &spec, ctx.scale, ctx.seed);
            let r = run_suite_in(rctx, &t, &params);
            (t, r)
        });
        let (t, r) = match outcome {
            Ok(tr) => tr,
            Err(reason) => {
                failures.push((spec.name(), reason));
                continue;
            }
        };
        timings.merge(&r.timings);
        let n = t.graph.node_count();
        let centers = params.centers.min(n);
        let sig = r.signature.to_string();
        let expect = paper_signature(&t.name).unwrap_or("-");
        let ok = if expect == "-" || sig == expect {
            "yes"
        } else {
            "NO"
        };
        let mut row = vec![
            t.name.clone(),
            sig.clone(),
            expect.to_string(),
            ok.to_string(),
        ];
        if sampled {
            row.push(n.to_string());
            row.push(centers.to_string());
            row.extend(ci_cells(r.cis.as_ref()));
        }
        rows.push(row);
        if t.annotations.is_some() {
            let rp = run_suite_policy_in(rctx, &t, &params);
            timings.merge(&rp.timings);
            let psig = rp.signature.to_string();
            let pname = format!("{}(Policy)", t.name);
            let pexpect = paper_signature(&pname).unwrap_or("-");
            let pok = if pexpect == "-" || psig == pexpect {
                "yes"
            } else {
                "NO"
            };
            let mut row = vec![pname, psig, pexpect.to_string(), pok.to_string()];
            if sampled {
                row.push(n.to_string());
                row.push(centers.to_string());
                row.extend(ci_cells(rp.cis.as_ref()));
            }
            rows.push(row);
        }
        if t.as_overlay.is_some() {
            let rp = run_suite_rl_policy_in(rctx, &t, &params);
            timings.merge(&rp.timings);
            let psig = rp.signature.to_string();
            let pname = format!("{}(Policy)", t.name);
            let pexpect = paper_signature(&pname).unwrap_or("-");
            let pok = if pexpect == "-" || psig == pexpect {
                "yes"
            } else {
                "NO"
            };
            let mut row = vec![pname, psig, pexpect.to_string(), pok.to_string()];
            if sampled {
                row.push(n.to_string());
                row.push(centers.to_string());
                row.extend(ci_cells(rp.cis.as_ref()));
            }
            rows.push(row);
        }
    }
    let mut header = vec![
        "Topology".to_string(),
        "Signature".to_string(),
        "Paper".to_string(),
        "Match".to_string(),
    ];
    if sampled {
        header.push("Nodes".to_string());
        header.push("Centers".to_string());
        header.push("Exp±".to_string());
        header.push("Res±".to_string());
        header.push("Dist±".to_string());
    }
    let mut table = TableData::new("tab-signature", header, rows);
    for (name, reason) in failures {
        table.push_failed_row(name, reason);
    }
    (table, timings)
}

/// The paper's expected hierarchy class per topology (§5.1's table).
pub fn paper_hierarchy(name: &str) -> Option<&'static str> {
    Some(match name {
        "Mesh" | "Random" | "Waxman" => "loose",
        "Tree" | "Tiers" | "TS" => "strict",
        "AS" | "RL" | "PLRG" | "AS(Policy)" | "RL(Policy)" => "moderate",
        _ => return None,
    })
}

/// The §5.1 strict/moderate/loose table (with the AS policy variant).
pub fn run_hierarchy_table(ctx: &ExpCtx, rctx: &RunCtx) -> TableData {
    run_hierarchy_table_timed(ctx, rctx).0
}

/// [`run_hierarchy_table`] plus the merged link-value engine
/// instrumentation of every hierarchy analysis it performed (what
/// `repro tab-hierarchy --timings` prints and archives as
/// `BENCH_tab-hierarchy.json`): per-stage wall times, DAG states
/// visited, pairs accumulated, arena bytes.
pub fn run_hierarchy_table_timed(ctx: &ExpCtx, rctx: &RunCtx) -> (TableData, TimingReport) {
    let mut timings = TimingReport::default();
    let mut rows = Vec::new();
    let mut failures: Vec<(String, String)> = Vec::new();
    for spec in linkvalue_zoo(ctx) {
        let outcome = catching(|| {
            let t = build_in(rctx, &spec, ctx.scale, ctx.seed);
            let (r, rt) = hierarchy_report_timed_in(rctx, &t, &HierOptions::default());
            (t, r, rt)
        });
        let (t, r, rt) = match outcome {
            Ok(trt) => trt,
            Err(reason) => {
                failures.push((spec.name(), reason));
                continue;
            }
        };
        timings.merge(&rt);
        let expect = paper_hierarchy(&t.name).unwrap_or("-");
        let ok = if expect == "-" || r.class == expect {
            "yes"
        } else {
            "NO"
        };
        rows.push(vec![
            r.name.clone(),
            r.class.clone(),
            format!("{:.4}", r.max),
            expect.to_string(),
            ok.to_string(),
        ]);
        if t.annotations.is_some() {
            let (rp, rpt) = hierarchy_report_timed_in(rctx, &t, &HierOptions { policy: true });
            timings.merge(&rpt);
            let pname = format!("{}(Policy)", t.name);
            let pexpect = paper_hierarchy(&pname).unwrap_or("-");
            let pok = if pexpect == "-" || rp.class == pexpect {
                "yes"
            } else {
                "NO"
            };
            rows.push(vec![
                pname,
                rp.class.clone(),
                format!("{:.4}", rp.max),
                pexpect.to_string(),
                pok.to_string(),
            ]);
        }
    }
    let mut table = TableData::new(
        "tab-hierarchy",
        vec![
            "Topology".into(),
            "Class".into(),
            "MaxValue".into(),
            "Paper".into(),
            "Match".into(),
        ],
        rows,
    );
    for (name, reason) in failures {
        table.push_failed_row(name, reason);
    }
    (table, timings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_tables_complete() {
        assert_eq!(paper_signature("PLRG"), Some("HHL"));
        assert_eq!(paper_signature("nonsense"), None);
        assert_eq!(paper_hierarchy("Waxman"), Some("loose"));
        assert_eq!(paper_hierarchy("nonsense"), None);
    }
}
