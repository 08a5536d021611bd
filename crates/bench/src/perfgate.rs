//! `repro perf-gate` — a ratcheting, count-based CI performance gate.
//!
//! Wall-clock CI timings are too noisy to gate on: shared runners
//! jitter by 2–3x. The engines instead expose deterministic operation
//! counters — traversals performed, balls built, DAG states visited,
//! bitset words scanned — that are identical across machines and thread
//! counts for a fixed seed. The gate compares those counters in the
//! current run's `BENCH_*.json` files against archived baselines
//! (committed under `ci/perf-baselines/`) and fails when any gated
//! counter regresses by more than the tolerance. Phase times are not
//! read: the gate is count-only.
//!
//! The gate *ratchets*: when a counter improves past the tolerance the
//! gate prints a ratchet-candidate note, and the improvement is locked
//! in by copying the current file over the committed baseline (see
//! CONTRIBUTING.md for the refresh procedure).
//!
//! Two file shapes are understood:
//!
//! - A [`TimingReport`](topogen_core::report::TimingReport) archive
//!   (what `repro <exp> --timings --json` writes): the counters the
//!   table in `topogen_par::instrument` marks gated
//!   ([`gated_counters`]) are compared. Cache-dependent counters
//!   (`ball_cache_hits`) are not gated — they depend on store state,
//!   not on algorithmic work.
//! - A document with a top-level `"gate"` object of integer counters
//!   (what the `bench_scale` harness writes into `BENCH_scale.json`):
//!   every baseline gate counter is compared by name.

use serde::Content;
use std::path::{Path, PathBuf};
use topogen_par::instrument::gated_counters;

use crate::ExitCode;

/// Default allowed regression before the gate fails (5%).
pub const DEFAULT_TOLERANCE: f64 = 0.05;

/// Gate configuration: where the archived baselines and the current
/// run's outputs live, and how much regression to tolerate.
#[derive(Clone, Debug)]
pub struct GateOptions {
    /// Directory of committed baseline `BENCH_*.json` files.
    pub baseline_dir: PathBuf,
    /// Directory holding the current run's `BENCH_*.json` files.
    pub current_dir: PathBuf,
    /// Allowed fractional regression per counter (0.05 = 5%).
    pub tolerance: f64,
}

impl Default for GateOptions {
    fn default() -> Self {
        GateOptions {
            baseline_dir: PathBuf::from("ci/perf-baselines"),
            current_dir: PathBuf::from("out"),
            tolerance: DEFAULT_TOLERANCE,
        }
    }
}

/// One compared counter that tripped the gate or the ratchet note.
#[derive(Clone, Debug, PartialEq)]
pub struct CounterDelta {
    /// `BENCH_*.json` file name the counter came from.
    pub file: String,
    /// Counter name.
    pub counter: String,
    /// Archived baseline value.
    pub baseline: u64,
    /// Current run's value.
    pub current: u64,
}

impl CounterDelta {
    fn pct(&self) -> f64 {
        if self.baseline == 0 {
            f64::INFINITY
        } else {
            (self.current as f64 / self.baseline as f64 - 1.0) * 100.0
        }
    }
}

/// The gate's verdict: regressions (fail), improvements past tolerance
/// (ratchet candidates), and bookkeeping.
#[derive(Clone, Debug, Default)]
pub struct GateReport {
    /// Counters that regressed past tolerance — these fail the gate.
    pub regressions: Vec<CounterDelta>,
    /// Counters that improved past tolerance — refresh the baseline.
    pub ratchet_candidates: Vec<CounterDelta>,
    /// Baseline files compared.
    pub files_compared: usize,
    /// Counters compared across all files.
    pub counters_compared: usize,
    /// Baseline files whose current counterpart was missing/unreadable.
    pub missing: Vec<String>,
    /// `(file, counter, baseline)` triples for counters the baseline
    /// gates on that the current run's document does not carry at all.
    /// Reading those as zero used to make a renamed or dropped counter
    /// look like a total improvement and pass silently; a nonzero
    /// baseline vanishing is a gate failure until the baseline is
    /// refreshed deliberately.
    pub missing_counters: Vec<(String, String, u64)>,
}

impl GateReport {
    /// Whether the gate passes.
    pub fn passed(&self) -> bool {
        self.regressions.is_empty() && self.missing.is_empty() && self.missing_counters.is_empty()
    }

    /// Render the verdict as the lines `repro perf-gate` prints.
    pub fn render(&self, tolerance: f64) -> String {
        let mut out = String::new();
        for d in &self.regressions {
            out.push_str(&format!(
                "FAIL {}: {} regressed {} -> {} (+{:.1}%, tolerance {:.1}%)\n",
                d.file,
                d.counter,
                d.baseline,
                d.current,
                d.pct(),
                tolerance * 100.0
            ));
        }
        for f in &self.missing {
            out.push_str(&format!("FAIL {f}: no current-run counterpart\n"));
        }
        for (file, counter, base) in &self.missing_counters {
            out.push_str(&format!(
                "FAIL {file}: counter {counter} (baseline {base}) is absent from the current \
                 run; refresh the baseline if it was removed deliberately\n"
            ));
        }
        for d in &self.ratchet_candidates {
            out.push_str(&format!(
                "ratchet {}: {} improved {} -> {} ({:.1}%); refresh the baseline to lock it in\n",
                d.file,
                d.counter,
                d.baseline,
                d.current,
                d.pct()
            ));
        }
        out.push_str(&format!(
            "perf-gate: {} counter(s) across {} file(s): {}\n",
            self.counters_compared,
            self.files_compared,
            if self.passed() { "PASS" } else { "FAIL" }
        ));
        out
    }
}

/// A counter value read from a JSON tree, distinguishing absence
/// (`None`) from an explicit zero — the gate treats a nonzero-baselined
/// counter that vanished entirely as a failure, not an improvement.
fn counter_lookup(doc: &Content, key: &str) -> Option<u64> {
    match doc.get(key)? {
        Content::U64(v) => Some(*v),
        Content::I64(v) if *v >= 0 => Some(*v as u64),
        Content::F64(v) if *v >= 0.0 => Some(*v as u64),
        _ => None,
    }
}

/// A counter value read leniently: absent keys and non-numeric values
/// read as zero (the emit-when-nonzero convention).
fn counter_of(doc: &Content, key: &str) -> u64 {
    counter_lookup(doc, key).unwrap_or(0)
}

/// The `(name, value)` counters a document exposes to the gate: the
/// entries of its top-level `"gate"` object when present, else the
/// [`gated_counters`] of a timing report.
fn gate_counters(doc: &Content) -> Vec<(String, u64)> {
    if let Some(Content::Map(entries)) = doc.get("gate") {
        return entries
            .iter()
            .filter_map(|(k, v)| match v {
                Content::U64(n) => Some((k.clone(), *n)),
                Content::I64(n) if *n >= 0 => Some((k.clone(), *n as u64)),
                _ => None,
            })
            .collect();
    }
    gated_counters()
        .map(|k| (k.to_string(), counter_of(doc, k)))
        .collect()
}

/// Compare one baseline document against the current one.
fn compare_docs(
    file: &str,
    baseline: &Content,
    current: &Content,
    tolerance: f64,
    report: &mut GateReport,
) {
    for (name, base) in gate_counters(baseline) {
        let cur_doc = current.get("gate").unwrap_or(current);
        report.counters_compared += 1;
        let cur = match counter_lookup(cur_doc, &name) {
            Some(v) => v,
            // The emit-when-nonzero convention makes absence read as
            // zero — legitimate for a counter the baseline also has at
            // zero, but a nonzero baseline disappearing wholesale means
            // the counter was renamed or dropped, and "0, improved
            // 100%" would wave that through silently.
            None if base > 0 => {
                report.missing_counters.push((file.to_string(), name, base));
                continue;
            }
            None => 0,
        };
        let delta = CounterDelta {
            file: file.to_string(),
            counter: name,
            baseline: base,
            current: cur,
        };
        if cur as f64 > base as f64 * (1.0 + tolerance) {
            report.regressions.push(delta);
        } else if base > 0 && (cur as f64) < base as f64 * (1.0 - tolerance) {
            report.ratchet_candidates.push(delta);
        }
    }
}

/// Baseline `BENCH_*.json` file names under `dir`, sorted for a
/// deterministic report order.
fn baseline_files(dir: &Path) -> std::io::Result<Vec<String>> {
    let mut names = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with("BENCH_") && name.ends_with(".json") {
            names.push(name);
        }
    }
    names.sort();
    Ok(names)
}

/// Run the gate: compare every baseline file against its current-run
/// counterpart. `Err` is a usage-level problem (missing/empty baseline
/// directory); regressions are reported in the `Ok` report.
pub fn run_gate(opts: &GateOptions) -> Result<GateReport, String> {
    let names = baseline_files(&opts.baseline_dir).map_err(|e| {
        format!(
            "cannot read baseline dir {}: {e}",
            opts.baseline_dir.display()
        )
    })?;
    if names.is_empty() {
        return Err(format!(
            "no BENCH_*.json baselines under {}",
            opts.baseline_dir.display()
        ));
    }
    let mut report = GateReport::default();
    for name in names {
        let base_text = std::fs::read_to_string(opts.baseline_dir.join(&name))
            .map_err(|e| format!("cannot read baseline {name}: {e}"))?;
        let baseline: Content = serde_json::from_str(&base_text)
            .map_err(|e| format!("baseline {name} is not valid JSON: {e}"))?;
        let cur_path = opts.current_dir.join(&name);
        let current: Content = match std::fs::read_to_string(&cur_path)
            .ok()
            .and_then(|t| serde_json::from_str(&t).ok())
        {
            Some(c) => c,
            None => {
                report.missing.push(name);
                continue;
            }
        };
        report.files_compared += 1;
        compare_docs(&name, &baseline, &current, opts.tolerance, &mut report);
    }
    Ok(report)
}

/// The `repro perf-gate` entry point: parse flags, run, print, map to
/// an exit code.
pub fn run_cli(args: &[String]) -> ExitCode {
    let mut opts = GateOptions::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--baseline" => match it.next() {
                Some(d) => opts.baseline_dir = PathBuf::from(d),
                None => {
                    eprintln!("--baseline needs a directory");
                    return ExitCode::Usage;
                }
            },
            "--current" => match it.next() {
                Some(d) => opts.current_dir = PathBuf::from(d),
                None => {
                    eprintln!("--current needs a directory");
                    return ExitCode::Usage;
                }
            },
            "--tolerance" => {
                let Some(pct) = it.next().and_then(|v| v.parse::<f64>().ok()) else {
                    eprintln!("--tolerance needs a percentage");
                    return ExitCode::Usage;
                };
                if !(0.0..=100.0).contains(&pct) {
                    eprintln!("--tolerance must be in 0..=100 (percent)");
                    return ExitCode::Usage;
                }
                opts.tolerance = pct / 100.0;
            }
            other => {
                eprintln!("unknown perf-gate flag {other:?}");
                return ExitCode::Usage;
            }
        }
    }
    match run_gate(&opts) {
        Ok(report) => {
            print!("{}", report.render(opts.tolerance));
            if report.passed() {
                ExitCode::Clean
            } else {
                ExitCode::Failures
            }
        }
        Err(e) => {
            eprintln!("perf-gate: {e}");
            ExitCode::Usage
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("topogen-perfgate-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write(dir: &Path, name: &str, json: &str) {
        std::fs::write(dir.join(name), json).unwrap();
    }

    const BASE: &str = r#"{"bfs_runs": 100, "balls_built": 50, "ball_cache_hits": 7,
        "partitioner_restarts": 4, "dag_states": 0, "pairs_accumulated": 0,
        "arena_bytes": 0, "store_hits": 3, "store_misses": 1,
        "store_bytes_read": 9, "store_bytes_written": 9,
        "phases": [{"name": "balls", "seconds": 1.5}]}"#;

    #[test]
    fn passes_on_identical_reports() {
        let (b, c) = (tmpdir("pass-b"), tmpdir("pass-c"));
        write(&b, "BENCH_x.json", BASE);
        write(&c, "BENCH_x.json", BASE);
        let opts = GateOptions {
            baseline_dir: b.clone(),
            current_dir: c.clone(),
            tolerance: 0.05,
        };
        let r = run_gate(&opts).unwrap();
        assert!(r.passed(), "{:?}", r.regressions);
        assert_eq!(r.files_compared, 1);
        assert_eq!(r.counters_compared, gated_counters().count());
        assert!(r.render(0.05).contains("PASS"));
        let _ = std::fs::remove_dir_all(&b);
        let _ = std::fs::remove_dir_all(&c);
    }

    #[test]
    fn fails_on_counter_regression_only_past_tolerance() {
        let (b, c) = (tmpdir("reg-b"), tmpdir("reg-c"));
        write(&b, "BENCH_x.json", BASE);
        // bfs_runs 100 -> 104 is inside 5%; balls_built 50 -> 60 is not.
        write(
            &c,
            "BENCH_x.json",
            &BASE
                .replace("\"bfs_runs\": 100", "\"bfs_runs\": 104")
                .replace("\"balls_built\": 50", "\"balls_built\": 60"),
        );
        let opts = GateOptions {
            baseline_dir: b.clone(),
            current_dir: c.clone(),
            tolerance: 0.05,
        };
        let r = run_gate(&opts).unwrap();
        assert!(!r.passed());
        assert_eq!(r.regressions.len(), 1);
        assert_eq!(r.regressions[0].counter, "balls_built");
        assert!(r.render(0.05).contains("balls_built regressed 50 -> 60"));
        let _ = std::fs::remove_dir_all(&b);
        let _ = std::fs::remove_dir_all(&c);
    }

    #[test]
    fn cache_counters_are_not_gated() {
        let (b, c) = (tmpdir("cache-b"), tmpdir("cache-c"));
        write(&b, "BENCH_x.json", BASE);
        // A cold store (hits -> 0, misses way up) must not trip the gate.
        write(
            &c,
            "BENCH_x.json",
            &BASE
                .replace("\"store_hits\": 3", "\"store_hits\": 0")
                .replace("\"store_misses\": 1", "\"store_misses\": 999")
                .replace("\"ball_cache_hits\": 7", "\"ball_cache_hits\": 999"),
        );
        let opts = GateOptions {
            baseline_dir: b.clone(),
            current_dir: c.clone(),
            tolerance: 0.05,
        };
        assert!(run_gate(&opts).unwrap().passed());
        let _ = std::fs::remove_dir_all(&b);
        let _ = std::fs::remove_dir_all(&c);
    }

    #[test]
    fn improvement_past_tolerance_is_a_ratchet_candidate() {
        let (b, c) = (tmpdir("ratchet-b"), tmpdir("ratchet-c"));
        write(&b, "BENCH_x.json", BASE);
        write(
            &c,
            "BENCH_x.json",
            &BASE.replace("\"bfs_runs\": 100", "\"bfs_runs\": 80"),
        );
        let opts = GateOptions {
            baseline_dir: b.clone(),
            current_dir: c.clone(),
            tolerance: 0.05,
        };
        let r = run_gate(&opts).unwrap();
        assert!(r.passed());
        assert_eq!(r.ratchet_candidates.len(), 1);
        assert!(r.render(0.05).contains("ratchet"));
        let _ = std::fs::remove_dir_all(&b);
        let _ = std::fs::remove_dir_all(&c);
    }

    #[test]
    fn gate_object_counters_compared_by_name() {
        let (b, c) = (tmpdir("gate-b"), tmpdir("gate-c"));
        write(
            &b,
            "BENCH_scale.json",
            r#"{"rows": [], "gate": {"words_scanned": 1000, "frontier_passes": 12}}"#,
        );
        write(
            &c,
            "BENCH_scale.json",
            r#"{"rows": [], "gate": {"words_scanned": 2000, "frontier_passes": 12}}"#,
        );
        let opts = GateOptions {
            baseline_dir: b.clone(),
            current_dir: c.clone(),
            tolerance: 0.05,
        };
        let r = run_gate(&opts).unwrap();
        assert_eq!(r.counters_compared, 2);
        assert_eq!(r.regressions.len(), 1);
        assert_eq!(r.regressions[0].counter, "words_scanned");
        let _ = std::fs::remove_dir_all(&b);
        let _ = std::fs::remove_dir_all(&c);
    }

    #[test]
    fn missing_current_file_fails_and_empty_baseline_is_usage() {
        let (b, c) = (tmpdir("miss-b"), tmpdir("miss-c"));
        write(&b, "BENCH_x.json", BASE);
        let opts = GateOptions {
            baseline_dir: b.clone(),
            current_dir: c.clone(),
            tolerance: 0.05,
        };
        let r = run_gate(&opts).unwrap();
        assert!(!r.passed());
        assert_eq!(r.missing, vec!["BENCH_x.json".to_string()]);

        let empty = tmpdir("miss-empty");
        let opts = GateOptions {
            baseline_dir: empty.clone(),
            current_dir: c.clone(),
            tolerance: 0.05,
        };
        assert!(run_gate(&opts).is_err());
        let _ = std::fs::remove_dir_all(&b);
        let _ = std::fs::remove_dir_all(&c);
        let _ = std::fs::remove_dir_all(&empty);
    }

    #[test]
    fn nonzero_baseline_counter_absent_from_current_fails_by_name() {
        let (b, c) = (tmpdir("drop-b"), tmpdir("drop-c"));
        write(&b, "BENCH_x.json", BASE);
        // balls_built (baseline 50) vanishes from the current report:
        // under the old absent-reads-as-zero rule this was a "100%
        // improvement" that passed silently.
        write(
            &c,
            "BENCH_x.json",
            &BASE.replace("\"balls_built\": 50,", ""),
        );
        let opts = GateOptions {
            baseline_dir: b.clone(),
            current_dir: c.clone(),
            tolerance: 0.05,
        };
        let r = run_gate(&opts).unwrap();
        assert!(!r.passed());
        assert_eq!(
            r.missing_counters,
            vec![("BENCH_x.json".to_string(), "balls_built".to_string(), 50)]
        );
        assert!(r.regressions.is_empty() && r.ratchet_candidates.is_empty());
        assert!(r
            .render(0.05)
            .contains("counter balls_built (baseline 50) is absent"));
        let _ = std::fs::remove_dir_all(&b);
        let _ = std::fs::remove_dir_all(&c);
    }

    #[test]
    fn zero_baseline_counter_may_stay_absent() {
        let (b, c) = (tmpdir("zeroabs-b"), tmpdir("zeroabs-c"));
        write(&b, "BENCH_x.json", BASE);
        // dag_states is 0 in the baseline; the emit-when-nonzero
        // convention omits it from a run that also did no DAG work.
        write(&c, "BENCH_x.json", &BASE.replace("\"dag_states\": 0,", ""));
        let opts = GateOptions {
            baseline_dir: b.clone(),
            current_dir: c.clone(),
            tolerance: 0.05,
        };
        let r = run_gate(&opts).unwrap();
        assert!(r.passed(), "{:?}", r.missing_counters);
        let _ = std::fs::remove_dir_all(&b);
        let _ = std::fs::remove_dir_all(&c);
    }

    #[test]
    fn gate_object_counter_absent_from_current_fails_by_name() {
        let (b, c) = (tmpdir("gatedrop-b"), tmpdir("gatedrop-c"));
        write(
            &b,
            "BENCH_scale.json",
            r#"{"rows": [], "gate": {"words_scanned": 1000, "frontier_passes": 12}}"#,
        );
        write(
            &c,
            "BENCH_scale.json",
            r#"{"rows": [], "gate": {"frontier_passes": 12}}"#,
        );
        let opts = GateOptions {
            baseline_dir: b.clone(),
            current_dir: c.clone(),
            tolerance: 0.05,
        };
        let r = run_gate(&opts).unwrap();
        assert!(!r.passed());
        assert_eq!(r.missing_counters.len(), 1);
        assert_eq!(r.missing_counters[0].1, "words_scanned");
        let _ = std::fs::remove_dir_all(&b);
        let _ = std::fs::remove_dir_all(&c);
    }

    #[test]
    fn zero_baseline_trips_on_any_growth() {
        let (b, c) = (tmpdir("zero-b"), tmpdir("zero-c"));
        write(&b, "BENCH_x.json", BASE);
        write(
            &c,
            "BENCH_x.json",
            &BASE.replace("\"dag_states\": 0", "\"dag_states\": 5"),
        );
        let opts = GateOptions {
            baseline_dir: b.clone(),
            current_dir: c.clone(),
            tolerance: 0.05,
        };
        let r = run_gate(&opts).unwrap();
        assert_eq!(r.regressions.len(), 1);
        assert_eq!(r.regressions[0].counter, "dag_states");
        let _ = std::fs::remove_dir_all(&b);
        let _ = std::fs::remove_dir_all(&c);
    }
}
