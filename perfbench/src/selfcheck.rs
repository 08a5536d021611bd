//! The benchmark's self-check: every workload in its tiny mode, untraced
//! and traced, must emit every declared metric with its declared unit
//! and no failures; a corrupted first operation must be counted as a
//! failed operation. Also checks that the declarations here match
//! `BENCHMARK.json` when one is in the working directory.

use std::path::{Path, PathBuf};

use serde::Content;

use crate::report::{END_TO_END, PER_LAYER};
use crate::workloads::{self, Config, Size, Workload};

type Declared = Vec<(String, String)>;

/// `(end_to_end, per_layer)` names and units from a `BENCHMARK.json`.
fn declared_in(path: &Path) -> Option<Result<(Declared, Declared), String>> {
    let text = std::fs::read_to_string(path).ok()?;
    let parsed = || -> Result<(Declared, Declared), String> {
        let doc: Content = serde_json::from_str(&text).map_err(|e| e.to_string())?;
        let list = |key: &str| -> Result<Declared, String> {
            let Some(Content::Seq(items)) = doc.get(key) else {
                return Err(format!("{key} is not a list"));
            };
            items
                .iter()
                .map(|m| match (m.get("name"), m.get("unit")) {
                    (Some(Content::Str(n)), Some(Content::Str(u))) => Ok((n.clone(), u.clone())),
                    _ => Err(format!("malformed entry in {key}")),
                })
                .collect()
        };
        Ok((list("end_to_end")?, list("per_layer")?))
    };
    Some(parsed())
}

fn owned(list: &[(&str, &str)]) -> Declared {
    list.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

/// Check one result line: exactly the four keys, and exactly the
/// declared metrics, each a number with its declared unit.
pub fn check_line(line: &str, declared: &[(&str, &str)]) -> Result<bool, String> {
    let doc: Content =
        serde_json::from_str(line).map_err(|e| format!("result is not JSON: {e}"))?;
    let Content::Map(top) = &doc else {
        return Err("result is not an object".into());
    };
    let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        return Err(format!("result keys are {keys:?}"));
    }
    let Some(Content::Bool(correct)) = doc.get("correct") else {
        return Err("correct is not a boolean".into());
    };
    let Some(Content::Map(metrics)) = doc.get("metrics") else {
        return Err("metrics is not an object".into());
    };
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let want: Vec<&str> = declared.iter().map(|(n, _)| *n).collect();
    if names != want {
        return Err(format!("emitted metrics {names:?}, declared {want:?}"));
    }
    for ((name, m), (_, unit)) in metrics.iter().zip(declared) {
        if !matches!(
            m.get("value"),
            Some(Content::F64(_) | Content::U64(_) | Content::I64(_))
        ) {
            return Err(format!("{name} has no numeric value"));
        }
        if m.get("unit") != Some(&Content::Str(unit.to_string())) {
            return Err(format!("{name} is not in {unit}"));
        }
    }
    Ok(*correct)
}

/// Run the self-check against the declarations in `benchmark_json`
/// (skipped when that file is absent). `Ok` carries the log; `Err` the
/// log with at least one failure.
pub fn run(benchmark_json: &Path, scratch: PathBuf) -> Result<Vec<String>, Vec<String>> {
    let mut log = Vec::new();
    let mut ok = true;
    let mut fail = |log: &mut Vec<String>, msg: String| {
        ok = false;
        log.push(format!("FAIL {msg}"));
    };
    match declared_in(benchmark_json) {
        None => log.push("BENCHMARK.json not found: checking the built-in declarations".into()),
        Some(Err(e)) => fail(&mut log, format!("BENCHMARK.json: {e}")),
        Some(Ok((e2e, layer))) => {
            if e2e != owned(&END_TO_END) || layer != owned(&PER_LAYER) {
                fail(
                    &mut log,
                    "BENCHMARK.json metrics differ from the benchmark's declarations".into(),
                );
            } else {
                log.push("ok   BENCHMARK.json matches the declared metrics".into());
            }
        }
    }
    for w in Workload::ALL {
        for (trace, corrupt) in [(false, false), (true, false), (false, true)] {
            let cfg = Config {
                workload: w,
                seed: 42,
                seconds: 0.0,
                trace,
                size: Size::Tiny,
                corrupt_first_op: corrupt,
                scratch: scratch.join(w.name()),
            };
            let out = workloads::run(&cfg);
            let declared: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
            let what = format!(
                "{} tiny trace={} corrupt={}",
                w.name(),
                u8::from(trace),
                u8::from(corrupt)
            );
            let line = out.metrics.line(declared, out.attempted, out.failed);
            match check_line(&line, declared) {
                Err(e) => fail(&mut log, format!("{what}: {e}")),
                Ok(correct) if corrupt && (correct || out.failed == 0) => fail(
                    &mut log,
                    format!("{what}: the corrupted operation was not counted as failed"),
                ),
                Ok(correct) if !corrupt && (!correct || out.failed > 0) => {
                    for note in &out.notes {
                        log.push(format!("     {note}"));
                    }
                    fail(
                        &mut log,
                        format!(
                            "{what}: {} of {} operations failed",
                            out.failed, out.attempted
                        ),
                    )
                }
                Ok(_) => log.push(format!(
                    "ok   {what}: {} metrics, {} attempted, {} failed",
                    declared.len(),
                    out.attempted,
                    out.failed
                )),
            }
        }
    }
    if ok {
        Ok(log)
    } else {
        Err(log)
    }
}
