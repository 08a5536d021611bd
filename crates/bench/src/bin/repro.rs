//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro <experiment> [--scale small|paper|large|xl] [--seed N] [--thorough] [--json DIR]
//!                    [--timings] [--mem-budget BYTES]
//!                    [--keep-going] [--resume] [--deadline SECS] [--retries N]
//!                    [--strict-checks] [--cache[=DIR]] [--trace[=DIR]]
//!
//! --scale large (~170k-node structural/degree-based graphs) and xl
//! (~1M nodes where the generators allow) run the sampled-center
//! tiers: metric curves are estimated over a seeded center subsample
//! and the tables record population + sample sizes per row, plus
//! bootstrap 95% half-width columns for the classified statistics.
//!
//! --mem-budget BYTES (binary K/M/G suffixes accepted) caps the edge
//! buffer used while building topologies: streaming-capable generators
//! emit through a bounded builder that spills sorted runs to out/ and
//! k-way merges them into the final CSR. The built graph is identical
//! to the in-memory path; the run ledger records each unit's peak
//! buffer bytes (arena_bytes_peak) and spill-run count (spill_runs).
//! At the sampled tiers suite jobs also run in store-checkpointed
//! batches, so a killed run restarted with --resume and --cache serves
//! completed batches from the store.
//!
//! --timings prints the parallel engines' instrumentation — shared-ball
//! counters (traversals, cache hits) for the metric suite, hierarchy
//! counters (DAG states, pairs accumulated, arena bytes) for the
//! link-value stage, and per-phase seconds summed over the threads that
//! ran them — and with --json also archives it as BENCH_<id>.json.
//! Store traffic is counted by the store itself: the run ledger's
//! per-unit `cache` block and the `>>> store-cache:` line.
//!
//! --trace[=DIR] records a structured span log — suite units and retry
//! attempts, per-center metric-engine stages, hierarchy traversal/cover
//! stages, store get/put/gc — to an append-only JSONL file
//! DIR/<cmd>-seed<seed>.jsonl (default DIR: out/trace). Timestamps live
//! only in the trace file: archived tables/figures stay byte-identical
//! with tracing on or off. With --timings, span rollups (count + summed
//! wall time per span name) are folded into the timing output and
//! BENCH_<id>.json. `repro trace export [PATH]` converts a JSONL log
//! (default: the newest in the trace dir) to Chrome trace-event JSON
//! next to it (.trace.json), loadable in chrome://tracing or Perfetto.
//!
//! --cache[=DIR] caches topologies and derived artifacts (metric
//! curves, link values) in a content-addressed store (default
//! out/store); warm runs reuse them and produce byte-identical outputs.
//! Disabled automatically under TOPOGEN_FAULTS so injected failures
//! never poison the store.
//!
//! Every experiment runs as an isolated unit (panics are caught and
//! recorded, not fatal). For `all`, outcomes land in the run ledger
//! `out/run-ledger.json`:
//!   --keep-going        run the remaining units past a failure
//!   --resume            skip units the ledger already shows completed
//!   --deadline SECS     per-unit wall-clock deadline (cooperative)
//!   --retries N         reseeded retries after a failed attempt (default 1)
//!   --strict-checks     fig2 [FAIL] qualitative checks fail the unit
//!
//! Exit codes: 0 everything completed, 1 failures or timeouts,
//! 2 usage error (an unknown flag, or a flag's value missing or
//! unreadable), 3 a measured-graph load error.
//!
//! Fault injection (tests/CI): TOPOGEN_FAULTS=site[@scope]:kind:rate:seed
//! with sites build/metric/hier, kinds panic/delay[MS].
//!
//! experiments:
//!   tab1                 Figure 1: the topology table
//!   fig2                 Figure 2: expansion/resilience/distortion, all panels
//!   fig3|fig4            Figures 3/4: link-value rank distributions
//!   fig5                 Figure 5: link-value ↔ degree correlations
//!   fig6                 Appendix A: degree CCDFs
//!   fig7                 Appendix B: eigenvalues + eccentricity
//!   fig8                 Appendix B: vertex cover + biconnectivity
//!   fig9                 Appendix B: attack + error tolerance
//!   fig10                clustering coefficient curves + global table
//!   fig11                Appendix C: parameter exploration
//!   fig12                Appendix D: degree-based variants
//!   fig13                Appendix D: Modified B-A/Brite + deterministic wiring
//!   fig14                Appendix D.2: variant link values
//!   fig15                Appendix E: policy-ball example + router overlay
//!   tab-signature        §4.4: the L/H signature table
//!   tab-hierarchy        §5.1: the strict/moderate/loose table
//!   bgp-vs-policy        Gao–Rexford BGP vs the paper's shortest-valley-free model
//!   robustness-snapshots     §3.1.1: stability across snapshots/sizes
//!   robustness-incompleteness §3.1.1: vantage/loss incompleteness
//!   ablation-ts          footnote 17: TS redundancy trade-off
//!   ablation-extremes    §4.4: extreme parameter regimes
//!   ablation-distortion  spanning-tree local-search quality
//!   load-measured PATH   load a graph file (text `u v` edge list or
//!                        binary .tgr, sniffed by magic), cut it to its
//!                        giant component, and print its size and degree
//!                        statistics, its L/H signature and its §5
//!                        hierarchy — the batch experiments' suite
//!                        parameters, so --seed/--thorough/--scale/
//!                        --cache/--deadline apply as for any experiment
//!   gen FILE|-           build the topology of a measure request (the
//!                        document `measure` reads) and print its
//!                        analysis graph as a `u v` edge list
//!   store ls             list the artifact store's entries
//!   store verify         checksum-walk every entry, report corruption
//!   store gc --max-bytes N  evict least-recently-used entries over N
//!   trace export [PATH]  convert a trace JSONL log to Chrome trace JSON
//!   check [--suite NAME] [--cases N] [--seed S] [--json]
//!                        run the registered invariant suites
//!                        (crates/check): differential oracles for the
//!                        kernels, threading, codec, degree sequences,
//!                        store/ledger, trace spans, and hierarchy
//!                        baseline. --json archives the structured
//!                        report as out/check-report.json. On a
//!                        violation, prints a one-line
//!                        TOPOGEN_CHECK=suite:invariant:seed repro;
//!                        exporting that env var replays exactly the
//!                        recorded case.
//!   perf-gate [--baseline DIR] [--current DIR] [--tolerance PCT]
//!                        compare the current run's BENCH_*.json op
//!                        counters against committed baselines
//!                        (ci/perf-baselines); fail on >PCT% regression
//!                        (default 5%); phase times are not compared
//!   serve --addr HOST:PORT  run the topology-metrics daemon: POST
//!                        /measure with a schema_version=1 JSON request
//!                        (topology + seed + scale + metric set), bounded
//!                        worker pool with 429 backpressure, per-request
//!                        deadlines, store-backed repeat queries, NDJSON
//!                        progress streaming, JSONL request ledger;
//!                        SIGTERM/SIGINT drain gracefully under
//!                        --drain-deadline SECS and print a summary;
//!                        --self-test boots one and probes it end to end;
//!                        --chaos-soak [--requests N] hammers one under
//!                        an armed I/O fault matrix and asserts no
//!                        deadlock, no worker loss, no corruption
//!   measure FILE|-       answer one measure request on stdout (the
//!                        daemon's byte-identical batch twin)
//!   all                  everything above (except load-measured/gen/
//!                        store/trace/check/perf-gate/serve/measure)
//! ```

use std::io::Write as _;
use std::time::Duration;
use topogen_bench::experiments as exp;
use topogen_bench::runner::{self, RunnerOptions, Unit, UnitError};
use topogen_bench::serve;
use topogen_bench::{tracefmt, ExitCode, ExpCtx};
use topogen_core::hier::{hierarchy_report_timed_in, HierOptions};
use topogen_core::report::{render_figure, FigureData, TableData, TimingReport};
use topogen_core::suite::run_suite_in;
use topogen_core::zoo::BuiltTopology;
use topogen_core::RunCtx;
use topogen_metrics::tolerance::Removal;
use topogen_par::trace;

/// The `all` suite, in execution order.
const ALL_UNITS: [&str; 22] = [
    "tab1",
    "tab-signature",
    "tab-hierarchy",
    "fig2",
    "fig3",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "bgp-vs-policy",
    "robustness-snapshots",
    "robustness-incompleteness",
    "ablation-ts",
    "ablation-extremes",
    "ablation-distortion",
];

struct Output {
    json_dir: Option<String>,
    timings: bool,
    strict_checks: bool,
    /// Degraded components noted while rendering this unit's artifacts;
    /// drained at the end of `run_cmd` to fail the unit (the outputs are
    /// still printed and archived with their `n/a (failed)` cells).
    degraded: std::sync::Mutex<Vec<String>>,
    /// Trace position at the start of the current unit attempt; spans
    /// recorded past it are rolled up into that unit's `--timings`
    /// report. `None` when tracing is off.
    trace_mark: std::sync::Mutex<Option<trace::Mark>>,
}

impl Clone for Output {
    fn clone(&self) -> Self {
        Output {
            json_dir: self.json_dir.clone(),
            timings: self.timings,
            strict_checks: self.strict_checks,
            degraded: std::sync::Mutex::new(Vec::new()),
            trace_mark: std::sync::Mutex::new(None),
        }
    }
}

impl Output {
    fn note_degraded(&self, id: &str, failures: &[topogen_core::report::Degradation]) {
        if failures.is_empty() {
            return;
        }
        let mut held = self.degraded.lock().unwrap_or_else(|p| p.into_inner());
        for f in failures {
            held.push(format!("{id}/{}: {}", f.label, f.reason));
        }
    }

    fn take_degraded(&self) -> Vec<String> {
        std::mem::take(&mut *self.degraded.lock().unwrap_or_else(|p| p.into_inner()))
    }

    /// Remember where the trace buffer stands right now, so this unit's
    /// `--timings` report can roll up just the spans it records.
    fn mark_trace(&self) {
        let mark = trace::active().map(|sink| sink.mark());
        *self.trace_mark.lock().unwrap_or_else(|p| p.into_inner()) = mark;
    }

    fn table(&self, t: &TableData) {
        println!("== {} ==", t.id);
        println!("{}", t.render());
        self.note_degraded(&t.id, &t.failures);
        self.dump(&t.id, serde_json::to_string_pretty(t).unwrap());
    }

    fn figure(&self, f: &FigureData) {
        println!("== {} ==", f.id);
        println!("{}", render_figure(f));
        self.note_degraded(&f.id, &f.failures);
        self.dump(&f.id, serde_json::to_string_pretty(f).unwrap());
    }

    /// Print (and archive as `BENCH_<id>.json`) an experiment's merged
    /// engine instrumentation when `--timings` was given.
    fn timing_report(&self, id: &str, r: &TimingReport) {
        if !self.timings {
            return;
        }
        let mut r = r.clone();
        if let Some(sink) = trace::active() {
            if let Some(mark) = &*self.trace_mark.lock().unwrap_or_else(|p| p.into_inner()) {
                r.spans = sink.rollup_since(mark);
            }
        }
        println!("== {id} timings ==");
        print!("{}", r.render());
        self.dump(
            &format!("BENCH_{id}"),
            serde_json::to_string_pretty(&r).unwrap(),
        );
    }

    fn dump(&self, id: &str, json: String) {
        if let Some(dir) = &self.json_dir {
            let path = format!("{dir}/{id}.json");
            match std::fs::File::create(&path) {
                Ok(mut f) => {
                    let _ = f.write_all(json.as_bytes());
                }
                Err(e) => eprintln!("warning: cannot write {path}: {e}"),
            }
        }
    }
}

/// Parse a byte count with an optional binary K/M/G suffix ("65536",
/// "64K", "256M", "2G").
fn parse_byte_count(s: &str) -> Option<u64> {
    let (num, mult) = match s.as_bytes().last()? {
        b'K' | b'k' => (&s[..s.len() - 1], 1u64 << 10),
        b'M' | b'm' => (&s[..s.len() - 1], 1u64 << 20),
        b'G' | b'g' => (&s[..s.len() - 1], 1u64 << 30),
        _ => (s, 1),
    };
    num.parse::<u64>().ok()?.checked_mul(mult)
}

fn usage() -> ! {
    eprintln!(
        "usage: repro <experiment> [--scale small|paper|large|xl] [--seed N] [--thorough] \
         [--json DIR] [--timings] [--mem-budget BYTES] \
         [--keep-going] [--resume] [--deadline SECS] [--retries N] [--strict-checks] \
         [--cache[=DIR]] [--trace[=DIR]]"
    );
    eprintln!("       repro store <ls|verify|gc> [--cache[=DIR]] [--max-bytes N]");
    eprintln!("       repro trace export [PATH] [--trace[=DIR]]");
    eprintln!("       repro check [--suite NAME] [--cases N] [--seed S] [--json]");
    eprintln!("       repro perf-gate [--baseline DIR] [--current DIR] [--tolerance PCT]");
    eprintln!(
        "       repro serve --addr HOST:PORT [--workers N] [--queue N] [--cache[=DIR]] \
         [--deadline SECS] [--drain-deadline SECS] [--ledger PATH] \
         [--self-test] [--chaos-soak [--requests N]]"
    );
    eprintln!("       repro measure FILE|-");
    eprintln!("       repro gen FILE|-");
    eprintln!(
        "       repro load-measured PATH [--seed N] [--thorough] [--scale S] [--cache[=DIR]] \
         [--deadline SECS]"
    );
    eprintln!("run `repro list` for the experiment index");
    ExitCode::Usage.exit();
}

/// The value given after `flag`, read by `parse`. A missing or
/// unreadable value is a usage error: name the flag and what it wants,
/// print the usage and exit 2.
fn flag_value<T>(
    flag: &str,
    want: &str,
    value: Option<impl AsRef<str>>,
    parse: impl FnOnce(&str) -> Option<T>,
) -> T {
    let value = value.as_ref().map(AsRef::as_ref);
    if let Some(v) = value.and_then(parse) {
        return v;
    }
    match value {
        Some(v) => eprintln!("bad {flag} value {v:?} (want {want})"),
        None => eprintln!("{flag} needs {want}"),
    }
    usage()
}

/// A flag value parsed with [`str::parse`].
fn parsed<T: std::str::FromStr>(v: &str) -> Option<T> {
    v.parse().ok()
}

/// The non-empty directory of a `--flag=DIR` argument.
fn dir_value(arg: &str) -> String {
    let (flag, dir) = arg.split_once('=').expect("a --flag=DIR argument");
    flag_value(flag, "a directory", Some(dir), |d| {
        (!d.is_empty()).then(|| d.to_string())
    })
}

/// A duration in seconds: a finite, non-negative number.
fn seconds(v: &str) -> Option<Duration> {
    Duration::try_from_secs_f64(v.parse().ok()?).ok()
}

fn main() {
    topogen_par::faults::init_from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    // The daemon and one-shot measure modes have their own flag sets;
    // dispatch before the batch parser can trip over them.
    match args.first().map(String::as_str) {
        Some("serve") => run_serve_cmd(&args[1..]).exit(),
        Some("measure") => run_measure_cmd(&args[1..]).exit(),
        Some("gen") => run_gen_cmd(&args[1..]).exit(),
        Some("check") => run_check_cmd(&args[1..]).exit(),
        Some("perf-gate") => topogen_bench::perfgate::run_cli(&args[1..]).exit(),
        _ => {}
    }
    let mut ctx = ExpCtx::default();
    let mut run_ctx = RunCtx::new();
    let mut json_dir = None;
    let mut timings = false;
    let mut strict_checks = false;
    let mut cache_dir: Option<String> = None;
    let mut trace_dir: Option<String> = None;
    let mut max_bytes: Option<u64> = None;
    let mut opts = RunnerOptions::default();
    let mut positional: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--timings" => timings = true,
            "--cache" => cache_dir = Some("out/store".to_string()),
            other if other.starts_with("--cache=") => cache_dir = Some(dir_value(other)),
            "--trace" => trace_dir = Some("out/trace".to_string()),
            other if other.starts_with("--trace=") => trace_dir = Some(dir_value(other)),
            "--max-bytes" => {
                max_bytes = Some(flag_value("--max-bytes", "a byte count", it.next(), parsed));
            }
            "--keep-going" => opts.keep_going = true,
            "--resume" => opts.resume = true,
            "--strict-checks" => strict_checks = true,
            "--deadline" => {
                opts.deadline = Some(flag_value(
                    "--deadline",
                    "a number of seconds",
                    it.next(),
                    seconds,
                ));
            }
            "--retries" => opts.retries = flag_value("--retries", "a count", it.next(), parsed),
            "--scale" => {
                ctx.scale = flag_value("--scale", "small|paper|large|xl", it.next(), |v| {
                    serve::wire::parse_scale(v).ok()
                });
            }
            "--mem-budget" => {
                run_ctx.mem_budget = Some(flag_value(
                    "--mem-budget",
                    "BYTES, e.g. 64M",
                    it.next(),
                    |v| parse_byte_count(v).filter(|&b| b > 0),
                ));
            }
            "--seed" => ctx.seed = flag_value("--seed", "a u64", it.next(), parsed),
            "--thorough" => ctx.quick = false,
            "--json" => {
                let dir: String = flag_value("--json", "a directory", it.next(), parsed);
                if let Err(e) = std::fs::create_dir_all(&dir) {
                    eprintln!("cannot create --json directory {dir:?}: {e}");
                    usage();
                }
                json_dir = Some(dir);
            }
            other if other.starts_with("--") => {
                eprintln!("unknown flag {other:?}");
                usage();
            }
            other => positional.push(other.to_string()),
        }
    }
    let cmd = match positional.first() {
        Some(c) => c.clone(),
        None => usage(),
    };
    let arg = positional.get(1).cloned();
    if positional.len() > 2 && cmd != "trace" {
        eprintln!("unexpected argument {:?}", positional[2]);
        usage();
    }

    if cmd == "store" {
        run_store_cmd(
            arg.as_deref(),
            cache_dir.as_deref().unwrap_or("out/store"),
            max_bytes,
        )
        .exit();
    }
    if cmd == "trace" {
        if positional.len() > 3 {
            eprintln!("unexpected argument {:?}", positional[3]);
            usage();
        }
        run_trace_cmd(
            arg.as_deref(),
            positional.get(2).map(|s| s.as_str()),
            trace_dir.as_deref().unwrap_or("out/trace"),
        )
        .exit();
    }
    if max_bytes.is_some() {
        eprintln!("--max-bytes only applies to `repro store gc`");
        usage();
    }

    // Attach the artifact store to the run context. Faulted runs never
    // cache: an injected panic mid-build must not leave a
    // plausible-looking entry behind for clean runs to consume.
    if let Some(dir) = &cache_dir {
        if topogen_par::faults::active() {
            eprintln!("warning: TOPOGEN_FAULTS active; --cache disabled for this run");
        } else {
            match topogen_store::Store::open(dir) {
                Ok(store) => {
                    run_ctx.store = Some(std::sync::Arc::new(store));
                    opts.store = Some(runner::StoreInfo {
                        path: dir.clone(),
                        codec_version: topogen_store::codec::CODEC_VERSION as u64,
                    });
                }
                Err(e) => {
                    eprintln!("cannot open store at {dir}: {e}");
                    ExitCode::Usage.exit();
                }
            }
        }
    }
    // Attach the trace sink. Recording is append-only and off the
    // result path: experiment outputs are byte-identical either way.
    if trace_dir.is_some() {
        run_ctx.trace = Some(std::sync::Arc::new(trace::TraceSink::new()));
    }
    let out = Output {
        json_dir,
        timings,
        strict_checks,
        degraded: std::sync::Mutex::new(Vec::new()),
        trace_mark: std::sync::Mutex::new(None),
    };

    if cmd == "list" {
        println!("tab1 fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11");
        println!("fig12 fig13 fig14 fig15 tab-signature tab-hierarchy");
        println!("bgp-vs-policy robustness-snapshots robustness-incompleteness");
        println!("ablation-ts ablation-extremes ablation-distortion");
        println!("load-measured gen measure serve store trace check perf-gate all");
        return;
    }
    if cmd == "load-measured" && arg.is_none() {
        eprintln!("load-measured needs a PATH argument");
        usage();
    }
    if let Some(extra) = arg.as_deref().filter(|_| cmd != "load-measured") {
        eprintln!("unexpected argument {extra:?}");
        usage();
    }
    let known = cmd == "all"
        || cmd == "load-measured"
        || cmd == "fig4"
        || ALL_UNITS.contains(&cmd.as_str());
    if !known {
        eprintln!("unknown experiment {cmd:?}; run `repro list`");
        ExitCode::Usage.exit();
    }

    // Suppress the expected control-flow panic chatter (deadline
    // cancellations, injected faults); genuine panics still print.
    runner::quiet_expected_panics();

    let scale_label = topogen_core::cache::scale_tag(ctx.scale);
    let unit_for = |id: &str| -> Unit {
        let id_owned = id.to_string();
        let out = out.clone();
        let arg = arg.clone();
        let base = ctx;
        Unit::new(id, move |run, attempt| {
            let mut c = base;
            c.seed = runner::reseed(base.seed, attempt);
            run_cmd(&id_owned, arg.as_deref(), &c, run, &out)
        })
    };

    let units: Vec<Unit> = if cmd == "all" {
        opts.ledger_path
            .get_or_insert_with(|| "out/run-ledger.json".to_string());
        ALL_UNITS.iter().map(|c| unit_for(c)).collect()
    } else {
        vec![unit_for(&cmd)]
    };

    let report = runner::run_units(&units, &opts, &run_ctx, ctx.seed, scale_label);
    if let (Some(sink), Some(dir)) = (&run_ctx.trace, &trace_dir) {
        match flush_trace(sink, dir, &cmd, ctx.seed) {
            Ok((path, events)) => eprintln!(">>> trace: {events} event(s) at {path}"),
            Err(e) => eprintln!("warning: cannot write trace log: {e}"),
        }
    }
    if let Some(c) = run_ctx.store.as_ref().map(|s| s.counters().snapshot()) {
        if !c.is_zero() {
            eprintln!(
                ">>> store-cache: {} hit(s), {} miss(es), {}B read, {}B written{}",
                c.hits,
                c.misses,
                c.bytes_read,
                c.bytes_written,
                if c.corrupt > 0 {
                    format!(", {} corrupt entr(ies) recomputed", c.corrupt)
                } else {
                    String::new()
                },
            );
        }
    }
    if cmd == "all" {
        let done = report
            .ledger
            .units
            .iter()
            .filter(|u| u.status.completed())
            .count();
        eprintln!(
            ">>> suite: {done}/{} units completed ({} executed, ledger at {})",
            report.ledger.units.len(),
            report.executed.len(),
            opts.ledger_path.as_deref().unwrap_or("-"),
        );
    }
    report.exit_code.exit();
}

/// Append the sink's recorded events to `<dir>/<cmd>-seed<seed>.jsonl`.
/// Returns the path and the number of events written.
fn flush_trace(
    sink: &trace::TraceSink,
    dir: &str,
    cmd: &str,
    seed: u64,
) -> std::io::Result<(String, usize)> {
    std::fs::create_dir_all(dir)?;
    let path = format!("{dir}/{cmd}-seed{seed}.jsonl");
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)?;
    let events = sink.write_jsonl(&mut file)?;
    file.sync_all()?;
    Ok((path, events))
}

/// `repro trace export [PATH]` — convert a trace JSONL log (default:
/// the newest `.jsonl` under the trace dir) to Chrome trace-event JSON
/// written next to it as `<stem>.trace.json`.
fn run_trace_cmd(sub: Option<&str>, path: Option<&str>, dir: &str) -> ExitCode {
    if sub != Some("export") {
        eprintln!(
            "trace needs the subcommand `export [PATH]`{}",
            sub.map(|s| format!(" (got {s:?})")).unwrap_or_default()
        );
        return ExitCode::Usage;
    }
    let src = match path {
        Some(p) => std::path::PathBuf::from(p),
        None => match newest_jsonl(dir) {
            Some(p) => p,
            None => {
                eprintln!("no .jsonl trace logs under {dir}; run with --trace first");
                return ExitCode::Failures;
            }
        },
    };
    let text = match std::fs::read_to_string(&src) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {}: {e}", src.display());
            return ExitCode::Failures;
        }
    };
    let events = match tracefmt::parse_jsonl(&text) {
        Ok(evs) => evs,
        Err(e) => {
            eprintln!("{}: {e}", src.display());
            return ExitCode::Failures;
        }
    };
    let json = tracefmt::chrome_trace(&events);
    let dst = src.with_extension("trace.json");
    if let Err(e) = std::fs::write(&dst, json) {
        eprintln!("cannot write {}: {e}", dst.display());
        return ExitCode::Failures;
    }
    println!(
        "exported {} event(s): {} -> {} (open in chrome://tracing or ui.perfetto.dev)",
        events.len(),
        src.display(),
        dst.display()
    );
    ExitCode::Clean
}

/// The most recently modified `.jsonl` file directly under `dir`.
fn newest_jsonl(dir: &str) -> Option<std::path::PathBuf> {
    let mut best: Option<(std::time::SystemTime, std::path::PathBuf)> = None;
    for entry in std::fs::read_dir(dir).ok()? {
        let Ok(entry) = entry else { continue };
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) != Some("jsonl") {
            continue;
        }
        let Ok(modified) = entry.metadata().and_then(|m| m.modified()) else {
            continue;
        };
        if best.as_ref().is_none_or(|(t, _)| modified > *t) {
            best = Some((modified, path));
        }
    }
    best.map(|(_, p)| p)
}

/// `repro store <ls|verify|gc>` — inspect and maintain the artifact
/// store without running any experiment.
fn run_store_cmd(sub: Option<&str>, dir: &str, max_bytes: Option<u64>) -> ExitCode {
    let store = match topogen_store::Store::open(dir) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot open store at {dir}: {e}");
            return ExitCode::Usage;
        }
    };
    match sub {
        Some("ls") => {
            let entries = store.ls();
            let total: u64 = entries.iter().map(|e| e.bytes).sum();
            for e in &entries {
                println!(
                    "{}  {:>10}  {}",
                    e.hash,
                    e.bytes,
                    e.key.as_deref().unwrap_or("-")
                );
            }
            println!("{} entr(ies), {total} bytes at {dir}", entries.len());
            ExitCode::Clean
        }
        Some("verify") => {
            let report = store.verify();
            for (rel, err) in &report.corrupt {
                eprintln!("corrupt: {rel}: {err}");
            }
            println!(
                "verified {} entr(ies) at {dir}: {} ok, {} corrupt",
                report.ok + report.corrupt.len(),
                report.ok,
                report.corrupt.len()
            );
            if report.corrupt.is_empty() {
                ExitCode::Clean
            } else {
                ExitCode::Failures
            }
        }
        Some("gc") => {
            let Some(limit) = max_bytes else {
                eprintln!("store gc needs --max-bytes N");
                return ExitCode::Usage;
            };
            let report = store.gc(limit);
            println!(
                "evicted {} entr(ies) ({} bytes); kept {} ({} bytes) under {limit} at {dir}",
                report.evicted.len(),
                report.bytes_freed,
                report.kept,
                report.bytes_kept
            );
            ExitCode::Clean
        }
        other => {
            eprintln!(
                "store needs a subcommand ls|verify|gc{}",
                other.map(|o| format!(" (got {o:?})")).unwrap_or_default()
            );
            ExitCode::Usage
        }
    }
}

/// `repro serve`: run (or self-test) the topology-metrics daemon.
/// Process-level shutdown signals for the foreground daemon. `std` has
/// no signal API, so this registers handlers through libc's `signal`
/// (always linked on unix) — the handler only flips an atomic, which is
/// async-signal-safe; the foreground loop does the actual drain.
#[cfg(unix)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub static SHUTDOWN: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        SHUTDOWN.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }

    pub fn requested() -> bool {
        SHUTDOWN.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod sig {
    pub fn install() {}
    pub fn requested() -> bool {
        false
    }
}

fn run_serve_cmd(args: &[String]) -> ExitCode {
    let mut config = serve::ServeConfig::new("127.0.0.1:7878");
    let mut cache_dir: Option<String> = None;
    let mut self_test = false;
    let mut chaos_soak = false;
    let mut soak_requests = 96usize;
    let mut drain_deadline = Duration::from_secs(30);
    let mut ledger_given = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => config.addr = flag_value("--addr", "HOST:PORT", it.next(), parsed),
            "--workers" => {
                config.workers = flag_value("--workers", "a positive count", it.next(), |v| {
                    parsed(v).filter(|&w| w > 0)
                });
            }
            "--queue" => config.queue = flag_value("--queue", "a count", it.next(), parsed),
            "--ledger" => {
                config.ledger_path = flag_value("--ledger", "a path", it.next(), parsed);
                ledger_given = true;
            }
            "--deadline" => {
                config.default_deadline = Some(flag_value(
                    "--deadline",
                    "a number of seconds",
                    it.next(),
                    seconds,
                ));
            }
            "--drain-deadline" => {
                drain_deadline = flag_value(
                    "--drain-deadline",
                    "a positive number of seconds",
                    it.next(),
                    |v| seconds(v).filter(|d| !d.is_zero()),
                );
            }
            "--requests" => {
                soak_requests = flag_value("--requests", "a count", it.next(), parsed);
            }
            "--chaos-soak" => chaos_soak = true,
            "--cache" => cache_dir = Some("out/store".to_string()),
            other if other.starts_with("--cache=") => cache_dir = Some(dir_value(other)),
            "--self-test" => self_test = true,
            other => {
                eprintln!("unknown serve flag {other:?}");
                return ExitCode::Usage;
            }
        }
    }
    if chaos_soak {
        // The soak brings its own scratch store and daemon; only the
        // ledger location is honored (so CI can keep it as an artifact).
        return serve::chaos_soak(
            soak_requests,
            ledger_given.then(|| config.ledger_path.clone()),
        );
    }
    if let Some(dir) = &cache_dir {
        match topogen_store::Store::open(dir) {
            Ok(store) => config.store = Some(std::sync::Arc::new(store)),
            Err(e) => {
                eprintln!("cannot open store at {dir}: {e}");
                return ExitCode::Usage;
            }
        }
    }
    if self_test {
        return serve::daemon::self_test(config);
    }
    let ledger = config.ledger_path.display().to_string();
    match serve::serve(config) {
        Ok(mut handle) => {
            println!("serving on http://{} (ledger: {ledger})", handle.addr());
            println!(
                "POST /measure with a schema_version={} document; GET /healthz to probe",
                serve::WIRE_VERSION
            );
            if handle.recovered_lines() > 0 {
                println!(
                    "ledger: recovered_lines={} (damaged lines skipped at open)",
                    handle.recovered_lines()
                );
            }
            // Serve until SIGTERM/SIGINT, then drain: stop accepting,
            // finish in-flight work within the drain deadline, cancel
            // stragglers, flush the ledger, and report.
            sig::install();
            while !sig::requested() {
                std::thread::sleep(Duration::from_millis(50));
            }
            eprintln!(
                "serve: shutdown signal received; draining (deadline {:.0}s)",
                drain_deadline.as_secs_f64()
            );
            let summary = handle.drain(drain_deadline);
            println!("{summary}");
            ExitCode::Clean
        }
        Err(e) => {
            eprintln!("cannot serve: {e}");
            ExitCode::Usage
        }
    }
}

/// `repro check`: run the registered invariant suites (crates/check)
/// against their independent oracles and report every violation with a
/// replayable `TOPOGEN_CHECK=suite:invariant:seed` line. Exporting that
/// env var makes the next `repro check` replay exactly the recorded
/// case (with whatever `TOPOGEN_FAULTS` the original run had, if any,
/// re-armed by the caller).
fn run_check_cmd(args: &[String]) -> ExitCode {
    let mut opts = topogen_check::CheckOptions::default();
    let mut json = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--suite" => {
                opts.suite = Some(flag_value("--suite", "a suite name", it.next(), parsed))
            }
            "--cases" => {
                opts.cases = flag_value("--cases", "a positive integer", it.next(), |v| {
                    parsed(v).filter(|&n| n > 0)
                });
            }
            "--seed" => opts.seed = flag_value("--seed", "a u64", it.next(), parsed),
            "--json" => json = true,
            other => {
                eprintln!("unknown check flag {other:?}");
                return ExitCode::Usage;
            }
        }
    }
    if let Ok(line) = std::env::var("TOPOGEN_CHECK") {
        match topogen_check::ReplaySpec::parse(&line) {
            Ok(spec) => {
                eprintln!(">>> replaying TOPOGEN_CHECK={}", spec.render());
                opts.replay = Some(spec);
            }
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::Usage;
            }
        }
    }
    let report = match topogen_check::run_checks(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::Usage;
        }
    };
    if report.faults_armed {
        eprintln!(">>> TOPOGEN_FAULTS armed: violations below may be injected");
    }
    for s in &report.suites {
        for inv in &s.invariants {
            let status = if inv.failures.is_empty() {
                "ok"
            } else {
                "FAIL"
            };
            println!(
                "{status:>4}  {}:{}  ({} case(s))",
                s.suite, inv.invariant, inv.cases_run
            );
        }
    }
    for (suite, inv, f) in report.failures() {
        eprintln!(
            "FAIL {suite}:{} case seed {}: {}",
            inv.invariant, f.case_seed, f.detail
        );
        eprintln!("     shrink: {}", f.shrink_hint);
        eprintln!("     repro:  {}", f.repro);
    }
    println!(
        "check: {} suite(s), {} case(s), {} violation(s)",
        report.suites.len(),
        report.cases_run(),
        report.failure_count()
    );
    if json {
        let path = "out/check-report.json";
        let body = serde_json::to_string_pretty(&report).expect("report serializes");
        if let Err(e) = std::fs::create_dir_all("out").and_then(|()| std::fs::write(path, body)) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::Failures;
        }
        eprintln!(">>> report: {path}");
    }
    if report.ok() {
        ExitCode::Clean
    } else {
        ExitCode::Failures
    }
}

/// Read and decode the measure request document that `measure` and
/// `gen` take: a file path, or `-` for stdin.
fn read_request(cmd: &str, args: &[String]) -> Result<serve::MeasureRequest, ExitCode> {
    let [path] = args else {
        eprintln!("{cmd} needs exactly one argument: FILE or `-` for stdin");
        return Err(ExitCode::Usage);
    };
    let text = if path == "-" {
        let mut buf = String::new();
        std::io::Read::read_to_string(&mut std::io::stdin(), &mut buf).map_err(|e| {
            eprintln!("cannot read stdin: {e}");
            ExitCode::LoadError
        })?;
        buf
    } else {
        std::fs::read_to_string(path).map_err(|e| {
            eprintln!("cannot read {path}: {e}");
            ExitCode::LoadError
        })?
    };
    serve::MeasureRequest::from_json(&text).map_err(|e| {
        eprintln!("bad request: {e}");
        ExitCode::Usage
    })
}

/// `repro measure FILE|-`: execute one measure request inline and print
/// the exact response body the daemon would serve for it.
fn run_measure_cmd(args: &[String]) -> ExitCode {
    let req = match read_request("measure", args) {
        Ok(req) => req,
        Err(code) => return code,
    };
    runner::quiet_expected_panics();
    let body = serve::run_measure(&RunCtx::new(), &req).body();
    print!("{body}");
    ExitCode::Clean
}

/// `repro gen FILE|-`: print the analysis graph that a measure request
/// builds as a `u v` edge list, ready for `load-measured`.
fn run_gen_cmd(args: &[String]) -> ExitCode {
    let req = match read_request("gen", args) {
        Ok(req) => req,
        Err(code) => return code,
    };
    let t = topogen_core::zoo::build_in(&RunCtx::new(), &req.spec, req.scale, req.seed);
    let text = topogen_graph::io::to_edge_list(&t.graph);
    match std::io::stdout().lock().write_all(text.as_bytes()) {
        Ok(()) => ExitCode::Clean,
        Err(e) => {
            eprintln!("cannot write the edge list: {e}");
            ExitCode::Failures
        }
    }
}

/// The `load-measured` table: the file's size and degree statistics,
/// then its signature and §5 hierarchy under the batch experiments'
/// suite parameters and the default hierarchy options.
fn load_measured_table(ctx: &ExpCtx, run: &RunCtx, path: &str) -> Result<TableData, UnitError> {
    let m = topogen_measured::load_measured(path).map_err(|e| UnitError::Load(e.to_string()))?;
    let g = &m.graph;
    let or_dash = |v: Option<String>| v.unwrap_or_else(|| "-".to_string());
    let mut stats = vec![
        ("raw nodes", m.raw_nodes.to_string()),
        ("raw edges", m.raw_edges.to_string()),
        ("giant component nodes", g.node_count().to_string()),
        ("giant component edges", g.edge_count().to_string()),
        ("avg degree", format!("{:.2}", m.avg_degree())),
        ("max degree", g.max_degree().to_string()),
        (
            "power-law alpha (MLE, x_min = 2)",
            or_dash(
                topogen_generators::degseq::fit_power_law_exponent(&g.degrees(), 2)
                    .map(|a| format!("{a:.3}")),
            ),
        ),
        (
            "clustering",
            or_dash(topogen_metrics::clustering::graph_clustering(g).map(|c| format!("{c:.4}"))),
        ),
    ];
    let t = BuiltTopology::plain(m.name, m.graph);
    let suite = run_suite_in(run, &t, &ctx.suite_params());
    stats.push(("signature", suite.signature.to_string()));
    let mut rows: Vec<Vec<String>> = stats
        .into_iter()
        .map(|(q, v)| vec![t.name.clone(), q.to_string(), v])
        .collect();
    // The hierarchy rows name the graph §5 analyzed: "<name> (core)"
    // when a large graph was cut to its degree>1 core.
    let (h, _) = hierarchy_report_timed_in(run, &t, &HierOptions::default());
    for (q, v) in [
        ("links analyzed", h.values.len().to_string()),
        ("max link value", format!("{:.4}", h.max)),
        ("median link value", format!("{:.4}", h.median)),
        ("hierarchy class", h.class.clone()),
        (
            "degree correlation",
            or_dash(h.degree_correlation.map(|c| format!("{c:.3}"))),
        ),
    ] {
        rows.push(vec![h.name.clone(), q.to_string(), v]);
    }
    Ok(TableData::new(
        "load-measured",
        vec!["Graph".into(), "Quantity".into(), "Value".into()],
        rows,
    ))
}

fn run_cmd(
    cmd: &str,
    arg: Option<&str>,
    ctx: &ExpCtx,
    run: &RunCtx,
    out: &Output,
) -> Result<(), UnitError> {
    if ALL_UNITS.contains(&cmd) || cmd == "fig4" {
        eprintln!(">>> {cmd}");
    }
    let _ = out.take_degraded(); // drop leftovers from an aborted attempt
    out.mark_trace();
    match cmd {
        "tab1" => out.table(&exp::tab1::run(ctx, run)),
        "fig2" => {
            for panel in ["canonical", "measured", "generated", "degree-based"] {
                for metric in exp::fig2::Metric::all() {
                    out.figure(&exp::fig2::run(ctx, run, panel, metric));
                }
            }
            println!("# qualitative checks (paper §4.1–4.3):");
            let mut failed = Vec::new();
            for (claim, holds) in exp::fig2::qualitative_checks(ctx, run) {
                println!("#   [{}] {}", if holds { "PASS" } else { "FAIL" }, claim);
                if !holds {
                    failed.push(claim);
                }
            }
            if out.strict_checks && !failed.is_empty() {
                return Err(UnitError::Failed(format!(
                    "{} qualitative check(s) failed: {}",
                    failed.len(),
                    failed.join("; ")
                )));
            }
        }
        "fig3" | "fig4" => out.figure(&exp::fig3::run(ctx, run)),
        "fig5" => out.table(&exp::fig5::run(ctx, run)),
        "fig6" => out.figure(&exp::fig6::run(ctx, run)),
        "fig7" => {
            out.figure(&exp::fig7::run_eigen(ctx, run));
            out.figure(&exp::fig7::run_diameter(ctx, run));
        }
        "fig8" => {
            out.figure(&exp::fig8::run_cover(ctx, run));
            out.figure(&exp::fig8::run_bicon(ctx, run));
        }
        "fig9" => {
            out.figure(&exp::fig9::run(ctx, run, Removal::Attack));
            out.figure(&exp::fig9::run(ctx, run, Removal::Error));
        }
        "fig10" => {
            out.figure(&exp::fig10::run(ctx, run));
            out.table(&exp::fig10::whole_graph_table(ctx, run));
        }
        "fig11" => out.table(&exp::fig11::run(ctx)),
        "fig12" => {
            let (ccdf, figs) = exp::fig12::run(ctx, run);
            out.figure(&ccdf);
            for f in figs {
                out.figure(&f);
            }
        }
        "fig13" => out.table(&exp::fig12::run_modified(ctx, run)),
        "fig14" => out.figure(&exp::fig3::run_variants(ctx, run)),
        "fig15" => {
            out.table(&exp::fig15::run(ctx));
            out.table(&exp::fig15::run_overlay(ctx));
        }
        "tab-signature" => {
            let (table, timings) = exp::signatures::run_signature_table_timed(ctx, run);
            out.table(&table);
            out.timing_report(&table.id, &timings);
        }
        "tab-hierarchy" => {
            let (table, timings) = exp::signatures::run_hierarchy_table_timed(ctx, run);
            out.table(&table);
            out.timing_report(&table.id, &timings);
        }
        "bgp-vs-policy" => out.table(&exp::bgp::run(ctx, run)),
        "robustness-snapshots" => out.table(&exp::robustness::run_snapshots(ctx, run)),
        "robustness-incompleteness" => out.table(&exp::robustness::run_incompleteness(ctx, run)),
        "ablation-ts" => out.table(&exp::ablations::run_ts_redundancy(ctx, run)),
        "ablation-extremes" => out.table(&exp::ablations::run_extremes(ctx, run)),
        "ablation-distortion" => out.table(&exp::ablations::run_distortion_polish(ctx, run)),
        "load-measured" => {
            let path = arg.expect("validated in main");
            out.table(&load_measured_table(ctx, run, path)?);
        }
        other => {
            // Unknown ids are rejected in main; reaching this is a bug.
            return Err(UnitError::Failed(format!("unknown experiment {other:?}")));
        }
    }
    // Degraded components fail the unit (the artifacts above were still
    // printed and archived); a reseeded retry may recover stochastic
    // failures, and `--resume` re-runs exactly these units.
    let degraded = out.take_degraded();
    if !degraded.is_empty() {
        return Err(UnitError::Failed(format!(
            "{} degraded component(s): {}",
            degraded.len(),
            degraded.join("; ")
        )));
    }
    Ok(())
}
