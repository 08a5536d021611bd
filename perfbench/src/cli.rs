//! Command line: argument parsing, the environment guard, and output.

use std::path::PathBuf;

use crate::adapter::{Session, REFUSED_ENV};
use crate::report::{END_TO_END, PER_LAYER};
use crate::workloads::{self, Config, Size, Workload};
use crate::{selfcheck, sys};

const USAGE: &str = "usage: perfbench --workload <signature|hierarchy|sampled-large|warm-replay> \
--seed <n> --seconds <s> --trace <0|1>
       perfbench --self-check";

/// Where runs keep scratch files (the warm-replay store): under the
/// build directory of the checkout they run in.
fn scratch_dir() -> PathBuf {
    PathBuf::from(".bench_build")
        .join("perfbench-tmp")
        .join(std::process::id().to_string())
}

fn parse(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or_else(|| format!("unknown workload {v}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s >= 0.0 && s.is_finite()) {
                    return Err("--seconds must be a finite number >= 0".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        size: Size::Full,
        corrupt_first_op: false,
        scratch: scratch_dir(),
    })
}

/// The environment line recorded with every result.
pub fn environment() -> String {
    format!(
        "nproc={} threads={} kernel={} profile={} rev={} src={}",
        sys::nproc(),
        sys::threads(),
        Session::new(false, None).kernel_policy(),
        sys::profile(),
        sys::git_revision(),
        sys::source_digest(),
    )
}

/// Run the command; returns the process exit code.
pub fn main(args: &[String]) -> i32 {
    if let Some(var) = REFUSED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("perfbench: refusing to run with {var} set (it perturbs the program under test)");
        return 2;
    }
    if args.len() == 1 && args[0] == "--self-check" {
        return match selfcheck::run(std::path::Path::new("BENCHMARK.json"), scratch_dir()) {
            Ok(lines) => {
                lines.iter().for_each(|l| println!("{l}"));
                println!("self-check: PASS");
                0
            }
            Err(lines) => {
                lines.iter().for_each(|l| println!("{l}"));
                println!("self-check: FAIL");
                1
            }
        };
    }
    let cfg = match parse(args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return 2;
        }
    };
    println!("perfbench env: {}", environment());
    let out = workloads::run(&cfg);
    for note in &out.notes {
        eprintln!("perfbench: {note}");
    }
    println!(
        "perfbench run: workload={} seed={} input_seeds={:?} trace={} passes={} ops_per_pass={} op_samples={} failed={} digest={:016x}",
        cfg.workload.name(),
        cfg.seed,
        workloads::table_seeds(&cfg),
        u8::from(cfg.trace),
        out.passes,
        out.ops_per_pass,
        out.attempted,
        out.failed,
        out.digest,
    );
    let declared: &[(&str, &str)] = if cfg.trace { &PER_LAYER } else { &END_TO_END };
    println!("{}", out.metrics.line(declared, out.attempted, out.failed));
    0
}
