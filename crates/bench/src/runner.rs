//! Fault-tolerant execution of the experiment suite.
//!
//! Each experiment runs as an isolated *unit*: on its own thread, under
//! `catch_unwind`, in the scope of its own copy of the run's [`RunCtx`],
//! which carries an optional per-unit wall-clock deadline (cooperatively
//! enforced — the engines check the scoped [`topogen_par::Deadline`]
//! between chunks and at phase boundaries) and a fresh counter sink for
//! the ledger; failed attempts get a bounded retry-with-reseed. Every
//! unit's outcome lands in a [`RunLedger`] (`out/run-ledger.json`): status,
//! duration, attempt count, and the redacted panic payload. `--resume`
//! skips units the ledger already shows completed; `--keep-going` runs
//! the rest of the suite past a failure; the process exit code reflects
//! the aggregate status (0 all ok, 1 failures/timeouts, 3 load errors).

use serde::{Content, DeError, Deserialize, Serialize};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};
use topogen_core::RunCtx;
use topogen_par::{cancel, faults, panic_message, trace, Instrument};

/// Extra wall-clock slack past the deadline before the runner abandons
/// a unit: the cooperative cancellation usually lands the `Cancelled`
/// unwind shortly after expiry, which is cleaner than detaching.
const DEADLINE_GRACE: Duration = Duration::from_secs(2);

/// How a unit failed (determines retry eligibility and exit code).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UnitError {
    /// The unit completed but reported failure (degraded components, a
    /// `--strict-checks` violation, …). Retried — it may be stochastic.
    Failed(String),
    /// A measured-graph load error: deterministic, never retried, and
    /// the suite exits 3 (the CLI contract for missing/corrupt inputs).
    Load(String),
}

impl UnitError {
    fn message(&self) -> &str {
        match self {
            UnitError::Failed(m) | UnitError::Load(m) => m,
        }
    }
}

/// The body of a [`Unit`]: the attempt's run context and the attempt
/// number (0 = first try, so retries can reseed deterministically).
pub type UnitWork = dyn Fn(&RunCtx, u64) -> Result<(), UnitError> + Send + Sync;

/// One isolated piece of suite work.
pub struct Unit {
    /// Stable id (the `repro` experiment name).
    pub id: String,
    /// The work; panics are caught by the runner.
    pub work: Arc<UnitWork>,
}

impl Unit {
    /// Convenience constructor.
    pub fn new(
        id: impl Into<String>,
        work: impl Fn(&RunCtx, u64) -> Result<(), UnitError> + Send + Sync + 'static,
    ) -> Unit {
        Unit {
            id: id.into(),
            work: Arc::new(work),
        }
    }
}

/// Mix an attempt number into a seed (SplitMix64 finalizer); attempt 0
/// returns the seed unchanged so fault-free runs are byte-identical.
pub fn reseed(seed: u64, attempt: u64) -> u64 {
    if attempt == 0 {
        return seed;
    }
    let mut z = seed ^ attempt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Terminal status of one unit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnitStatus {
    /// Completed on the first attempt.
    Ok,
    /// Completed, but only after at least one reseeded retry.
    Retried,
    /// Every attempt failed (panic or reported failure).
    Failed,
    /// The per-unit deadline expired.
    TimedOut,
}

impl UnitStatus {
    fn as_str(&self) -> &'static str {
        match self {
            UnitStatus::Ok => "ok",
            UnitStatus::Retried => "retried",
            UnitStatus::Failed => "failed",
            UnitStatus::TimedOut => "timed-out",
        }
    }

    /// Whether the unit produced its outputs.
    pub fn completed(&self) -> bool {
        matches!(self, UnitStatus::Ok | UnitStatus::Retried)
    }
}

impl Serialize for UnitStatus {
    fn to_content(&self) -> Content {
        Content::Str(self.as_str().to_string())
    }
}

impl Deserialize for UnitStatus {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        match c {
            Content::Str(s) => match s.as_str() {
                "ok" => Ok(UnitStatus::Ok),
                "retried" => Ok(UnitStatus::Retried),
                "failed" => Ok(UnitStatus::Failed),
                "timed-out" => Ok(UnitStatus::TimedOut),
                other => Err(DeError(format!("unknown unit status {other:?}"))),
            },
            other => Err(DeError(format!("expected status string, got {other:?}"))),
        }
    }
}

/// Per-unit artifact-store traffic, recorded when a cache is active and
/// the unit touched it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheBlock {
    /// Entries served from the store.
    pub hits: u64,
    /// Lookups that fell through to computation.
    pub misses: u64,
    /// Bytes read on hits.
    pub bytes_read: u64,
    /// Bytes written on misses.
    pub bytes_written: u64,
}

/// One ledger row.
#[derive(Clone, Debug)]
pub struct LedgerUnit {
    /// Unit id (`repro` experiment name).
    pub id: String,
    /// Terminal status.
    pub status: UnitStatus,
    /// Wall-clock duration of the **terminal attempt only**, seconds —
    /// what the unit's outputs actually cost, agreeing with the
    /// `--timings` phase tables (which are also per-attempt). Earlier
    /// failed attempts land in `duration_total_secs` instead; blending
    /// them here used to over-report every retried unit.
    pub duration_secs: f64,
    /// Wall-clock duration across *all* attempts, seconds; present only
    /// when the unit ran more than one attempt (otherwise it would
    /// equal `duration_secs`).
    pub duration_total_secs: Option<f64>,
    /// Attempts performed (1 = no retries).
    pub attempts: u64,
    /// Redacted failure message (panic payload / reported reason),
    /// `null` for successful units.
    pub error: Option<String>,
    /// Store traffic attributed to this unit; absent when no cache was
    /// active or the unit never touched it.
    pub cache: Option<CacheBlock>,
    /// High-water mark (bytes) of the largest single buffer held during
    /// the terminal attempt — a hierarchy link-range buffer or a
    /// streamed build's edge buffer — vs the cumulative `arena_bytes`
    /// counter in `--timings`. Absent when the unit held neither.
    pub arena_bytes_peak: Option<u64>,
    /// Sorted runs the memory-budgeted streaming builder spilled to
    /// disk during the terminal attempt. Absent when no build streamed
    /// (no `--mem-budget`, or the build fit its buffer).
    pub spill_runs: Option<u64>,
}

// Manual serde: `cache` / `duration_total_secs` are omitted (not null)
// when absent, and ledgers written before the fields existed must keep
// loading for `--resume`.
impl Serialize for LedgerUnit {
    fn to_content(&self) -> Content {
        let mut fields = vec![
            ("id".to_string(), self.id.to_content()),
            ("status".to_string(), self.status.to_content()),
            ("duration_secs".to_string(), self.duration_secs.to_content()),
        ];
        if let Some(total) = self.duration_total_secs {
            fields.push(("duration_total_secs".to_string(), total.to_content()));
        }
        fields.push(("attempts".to_string(), self.attempts.to_content()));
        fields.push(("error".to_string(), self.error.to_content()));
        if let Some(cache) = &self.cache {
            fields.push(("cache".to_string(), cache.to_content()));
        }
        if let Some(peak) = self.arena_bytes_peak {
            fields.push(("arena_bytes_peak".to_string(), peak.to_content()));
        }
        if let Some(runs) = self.spill_runs {
            fields.push(("spill_runs".to_string(), runs.to_content()));
        }
        Content::Map(fields)
    }
}

impl Deserialize for LedgerUnit {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        let field = |k: &str| c.get(k).ok_or_else(|| DeError(format!("missing {k}")));
        Ok(LedgerUnit {
            id: String::from_content(field("id")?)?,
            status: UnitStatus::from_content(field("status")?)?,
            duration_secs: f64::from_content(field("duration_secs")?)?,
            duration_total_secs: match c.get("duration_total_secs") {
                Some(v) => Some(f64::from_content(v)?),
                None => None,
            },
            attempts: u64::from_content(field("attempts")?)?,
            error: Option::from_content(field("error")?)?,
            cache: match c.get("cache") {
                Some(v) => Some(CacheBlock::from_content(v)?),
                None => None,
            },
            arena_bytes_peak: match c.get("arena_bytes_peak") {
                Some(v) => Some(u64::from_content(v)?),
                None => None,
            },
            spill_runs: match c.get("spill_runs") {
                Some(v) => Some(u64::from_content(v)?),
                None => None,
            },
        })
    }
}

/// Which artifact store a run used — recorded in the ledger so
/// `--resume` only trusts entries produced against the same cache.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreInfo {
    /// Store root directory as given on the command line.
    pub path: String,
    /// `.tgr` codec version the store was written with.
    pub codec_version: u64,
}

/// The structured run ledger (`out/run-ledger.json`).
#[derive(Clone, Debug)]
pub struct RunLedger {
    /// Schema version.
    pub version: u64,
    /// Master seed of the run.
    pub seed: u64,
    /// Scale label ("small" / "paper").
    pub scale: String,
    /// The artifact store this run cached through, if any.
    pub store: Option<StoreInfo>,
    /// Per-unit outcomes, in execution order.
    pub units: Vec<LedgerUnit>,
}

// Manual serde for the same reason as [`LedgerUnit`]: `store` is
// omitted when absent, and pre-cache ledgers must keep loading.
impl Serialize for RunLedger {
    fn to_content(&self) -> Content {
        let mut fields = vec![
            ("version".to_string(), self.version.to_content()),
            ("seed".to_string(), self.seed.to_content()),
            ("scale".to_string(), self.scale.to_content()),
        ];
        if let Some(store) = &self.store {
            fields.push(("store".to_string(), store.to_content()));
        }
        fields.push(("units".to_string(), self.units.to_content()));
        Content::Map(fields)
    }
}

impl Deserialize for RunLedger {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        let field = |k: &str| c.get(k).ok_or_else(|| DeError(format!("missing {k}")));
        Ok(RunLedger {
            version: u64::from_content(field("version")?)?,
            seed: u64::from_content(field("seed")?)?,
            scale: String::from_content(field("scale")?)?,
            store: match c.get("store") {
                Some(v) => Some(StoreInfo::from_content(v)?),
                None => None,
            },
            units: Vec::from_content(field("units")?)?,
        })
    }
}

impl RunLedger {
    /// An empty ledger for a run configuration.
    pub fn new(seed: u64, scale: &str) -> RunLedger {
        RunLedger {
            version: 1,
            seed,
            scale: scale.to_string(),
            store: None,
            units: Vec::new(),
        }
    }

    /// Load a ledger from disk (for `--resume`).
    pub fn load(path: &str) -> Result<RunLedger, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
    }

    /// Persist to disk (rewritten after every unit, so a crash of the
    /// runner itself loses at most the unit in flight).
    pub fn save(&self, path: &str) -> Result<(), String> {
        if let Some(dir) = std::path::Path::new(path).parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            }
        }
        std::fs::write(path, serde_json::to_string_pretty(self).unwrap())
            .map_err(|e| format!("{path}: {e}"))
    }

    /// The recorded entry for `id`, if any.
    pub fn unit(&self, id: &str) -> Option<&LedgerUnit> {
        self.units.iter().find(|u| u.id == id)
    }
}

/// Runner configuration.
#[derive(Clone, Debug)]
pub struct RunnerOptions {
    /// Continue past failed units instead of stopping at the first.
    pub keep_going: bool,
    /// Skip units a prior ledger shows completed; re-run the rest.
    pub resume: bool,
    /// Per-unit wall-clock deadline.
    pub deadline: Option<Duration>,
    /// Reseeded retries per unit after a failed attempt.
    pub retries: u64,
    /// Where to persist the ledger (`None` = in-memory only).
    pub ledger_path: Option<String>,
    /// The artifact store the run caches through (recorded in the
    /// ledger; `--resume` rejects prior ledgers from a different store).
    pub store: Option<StoreInfo>,
}

impl Default for RunnerOptions {
    fn default() -> Self {
        RunnerOptions {
            keep_going: false,
            resume: false,
            deadline: None,
            retries: 1,
            ledger_path: None,
            store: None,
        }
    }
}

/// The aggregate result of a suite run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// The final ledger (carried-over entries first-class).
    pub ledger: RunLedger,
    /// Aggregate process exit code: [`Clean`](crate::ExitCode::Clean)
    /// when all completed, [`LoadError`](crate::ExitCode::LoadError) on
    /// any load error, [`Failures`](crate::ExitCode::Failures) on any
    /// other failure or timeout.
    pub exit_code: crate::ExitCode,
    /// Ids actually executed this run (resume skips are absent).
    pub executed: Vec<String>,
}

/// Install a process-wide panic hook that suppresses the expected
/// control-flow panics (deadline `Cancelled` unwinds and injected
/// faults) while leaving genuine panics visible. Idempotent.
pub fn quiet_expected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            if cancel::is_cancelled_payload(payload) {
                return;
            }
            let msg = payload
                .downcast_ref::<&str>()
                .copied()
                .map(str::to_string)
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            if msg.starts_with("injected fault at ") {
                return;
            }
            previous(info);
        }));
    });
}

/// The outcome of one attempt.
enum Attempt {
    Success,
    Soft(UnitError),
    Panicked(String),
    TimedOut,
}

/// Run one attempt of `work` on its own thread, under `catch_unwind`
/// and the scope of `ctx`, the attempt's own run context; `limit` is
/// the wall-clock budget its deadline was armed with.
fn run_attempt(
    work: &Arc<UnitWork>,
    attempt: u64,
    ctx: &RunCtx,
    limit: Option<Duration>,
) -> Attempt {
    // The attempt span opens on the runner thread (so timed-out,
    // abandoned unit threads still close it) and parents everything the
    // unit thread traces via the captured parent id.
    let _attempt_span = trace::span_labeled("attempt", &attempt.to_string());
    let trace_parent = trace::current_parent();
    let (tx, rx) = mpsc::channel();
    let work = Arc::clone(work);
    let deadline = ctx.deadline.clone();
    let ctx = ctx.clone();
    let builder = std::thread::Builder::new()
        .name("topogen-unit".to_string())
        // Deep generator/metric recursion fits comfortably; match the
        // main thread rather than the 2 MiB spawn default.
        .stack_size(16 * 1024 * 1024);
    let handle = builder.spawn(move || {
        let body =
            || std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| work(&ctx, attempt)));
        let result = ctx.scope(|| trace::with_parent(trace_parent, body));
        // The receiver may have abandoned us after the grace period.
        let _ = tx.send(result);
    });
    let handle = match handle {
        Ok(h) => h,
        Err(e) => return Attempt::Panicked(format!("spawn failed: {e}")),
    };

    let received = match limit {
        None => rx.recv().ok(),
        Some(limit) => match rx.recv_timeout(limit + DEADLINE_GRACE) {
            Ok(r) => Some(r),
            Err(_) => {
                // Cooperative cancellation did not land in time: tell
                // the workers once more and abandon the thread (it will
                // unwind at its next checkpoint).
                if let Some(d) = &deadline {
                    d.token().cancel();
                }
                drop(handle);
                return Attempt::TimedOut;
            }
        },
    };
    if limit.is_none() {
        let _ = handle.join();
    }
    match received {
        Some(Ok(Ok(()))) => Attempt::Success,
        Some(Ok(Err(soft))) => Attempt::Soft(soft),
        Some(Err(payload)) => {
            if cancel::is_cancelled_payload(payload.as_ref()) {
                Attempt::TimedOut
            } else {
                Attempt::Panicked(panic_message(payload.as_ref()))
            }
        }
        None => Attempt::Panicked("unit thread vanished without a result".to_string()),
    }
}

/// Execute `units` in order under the runner's fault-isolation policy.
/// The runner's own spans land in `ctx`'s trace sink, and each attempt
/// runs on a copy of `ctx` carrying that attempt's deadline and a fresh
/// counter sink, whose arena peak and spill count the ledger records.
pub fn run_units(
    units: &[Unit],
    opts: &RunnerOptions,
    ctx: &RunCtx,
    seed: u64,
    scale: &str,
) -> RunReport {
    ctx.scope(|| run_units_scoped(units, opts, ctx, seed, scale))
}

fn run_units_scoped(
    units: &[Unit],
    opts: &RunnerOptions,
    ctx: &RunCtx,
    seed: u64,
    scale: &str,
) -> RunReport {
    let prior = match (&opts.ledger_path, opts.resume) {
        (Some(path), true) => match RunLedger::load(path) {
            Ok(l) if l.seed != seed || l.scale != scale => {
                eprintln!("runner: ledger at a different seed/scale; ignoring for --resume");
                None
            }
            Ok(l) if l.store != opts.store => {
                eprintln!("runner: ledger from a different store config; ignoring for --resume");
                None
            }
            Ok(l) => Some(l),
            Err(e) => {
                eprintln!("runner: cannot load ledger ({e}); running everything");
                None
            }
        },
        _ => None,
    };

    let mut ledger = RunLedger::new(seed, scale);
    ledger.store = opts.store.clone();
    let mut executed = Vec::new();
    let mut any_load = false;
    let mut any_failed = false;

    let _suite_span = trace::span_labeled("suite", scale);
    for unit in units {
        // Resume: carry completed entries over verbatim.
        if let Some(prev) = prior.as_ref().and_then(|l| l.unit(&unit.id)) {
            if prev.status.completed() {
                ledger.units.push(prev.clone());
                continue;
            }
        }

        executed.push(unit.id.clone());
        faults::set_current_unit(Some(&unit.id));
        let unit_span = trace::span_labeled("unit", &unit.id);
        let store_counters = || ctx.store.as_ref().map(|s| s.counters().snapshot());
        let store_before = store_counters();
        let started = Instant::now();
        let mut attempts = 0u64;
        let mut entry: Option<LedgerUnit> = None;
        let mut terminal = Arc::new(Instrument::new());
        while attempts <= opts.retries {
            let attempt = attempts;
            attempts += 1;
            // Snapshot per attempt: the recorded duration covers only
            // the terminal attempt, so it matches what the unit's
            // outputs (and the `--timings` phase tables) actually cost;
            // earlier failed/retried attempts are kept apart in
            // `duration_total_secs` instead of blended in.
            let attempt_started = Instant::now();
            // A fresh counter sink per attempt, so the recorded peaks
            // cover exactly the terminal attempt (an abandoned unit
            // thread keeps writing only to its own).
            terminal = Arc::new(Instrument::new());
            let attempt_ctx = RunCtx {
                deadline: opts.deadline.map(cancel::Deadline::after),
                instrument: Some(terminal.clone()),
                ..ctx.clone()
            };
            match run_attempt(&unit.work, attempt, &attempt_ctx, opts.deadline) {
                Attempt::Success => {
                    entry = Some(LedgerUnit {
                        id: unit.id.clone(),
                        status: if attempt == 0 {
                            UnitStatus::Ok
                        } else {
                            UnitStatus::Retried
                        },
                        duration_secs: attempt_started.elapsed().as_secs_f64(),
                        duration_total_secs: None,
                        attempts,
                        error: None,
                        cache: None,
                        arena_bytes_peak: None,
                        spill_runs: None,
                    });
                    break;
                }
                Attempt::TimedOut => {
                    // A longer run would time out again: no retry.
                    entry = Some(LedgerUnit {
                        id: unit.id.clone(),
                        status: UnitStatus::TimedOut,
                        duration_secs: attempt_started.elapsed().as_secs_f64(),
                        duration_total_secs: None,
                        attempts,
                        error: Some("deadline exceeded".to_string()),
                        cache: None,
                        arena_bytes_peak: None,
                        spill_runs: None,
                    });
                    break;
                }
                Attempt::Soft(UnitError::Load(msg)) => {
                    // Deterministic input problem: no retry, exit 3.
                    any_load = true;
                    entry = Some(LedgerUnit {
                        id: unit.id.clone(),
                        status: UnitStatus::Failed,
                        duration_secs: attempt_started.elapsed().as_secs_f64(),
                        duration_total_secs: None,
                        attempts,
                        error: Some(msg),
                        cache: None,
                        arena_bytes_peak: None,
                        spill_runs: None,
                    });
                    break;
                }
                Attempt::Soft(err) => {
                    if attempts > opts.retries {
                        entry = Some(LedgerUnit {
                            id: unit.id.clone(),
                            status: UnitStatus::Failed,
                            duration_secs: attempt_started.elapsed().as_secs_f64(),
                            duration_total_secs: None,
                            attempts,
                            error: Some(err.message().to_string()),
                            cache: None,
                            arena_bytes_peak: None,
                            spill_runs: None,
                        });
                    } else {
                        eprintln!(
                            "runner: {} attempt {} failed ({}); retrying with reseed",
                            unit.id,
                            attempt,
                            err.message()
                        );
                    }
                }
                Attempt::Panicked(msg) => {
                    if attempts > opts.retries {
                        entry = Some(LedgerUnit {
                            id: unit.id.clone(),
                            status: UnitStatus::Failed,
                            duration_secs: attempt_started.elapsed().as_secs_f64(),
                            duration_total_secs: None,
                            attempts,
                            error: Some(msg),
                            cache: None,
                            arena_bytes_peak: None,
                            spill_runs: None,
                        });
                    } else {
                        eprintln!(
                            "runner: {} attempt {attempt} panicked ({msg}); retrying with reseed",
                            unit.id
                        );
                    }
                }
            }
        }
        drop(unit_span);
        faults::set_current_unit(None);

        let mut entry = entry.expect("every unit records an outcome");
        if attempts > 1 {
            entry.duration_total_secs = Some(started.elapsed().as_secs_f64());
        }
        let run = terminal.report();
        entry.arena_bytes_peak = Some(run.arena_bytes_peak).filter(|&b| b > 0);
        entry.spill_runs = Some(run.spill_runs).filter(|&n| n > 0);
        if let (Some(before), Some(after)) = (store_before, store_counters()) {
            let d = before.delta_to(&after);
            if !d.is_zero() {
                entry.cache = Some(CacheBlock {
                    hits: d.hits,
                    misses: d.misses,
                    bytes_read: d.bytes_read,
                    bytes_written: d.bytes_written,
                });
            }
        }
        let ok = entry.status.completed();
        if !ok {
            any_failed = true;
            eprintln!(
                "runner: {} {} after {} attempt(s): {}",
                entry.id,
                entry.status.as_str(),
                entry.attempts,
                entry.error.as_deref().unwrap_or("-")
            );
        }
        ledger.units.push(entry);
        if let Some(path) = &opts.ledger_path {
            if let Err(e) = ledger.save(path) {
                eprintln!("runner: cannot write ledger: {e}");
            }
        }
        if !ok && !opts.keep_going {
            break;
        }
    }

    let exit_code = if any_load {
        crate::ExitCode::LoadError
    } else if any_failed {
        crate::ExitCode::Failures
    } else {
        crate::ExitCode::Clean
    };
    RunReport {
        ledger,
        exit_code,
        executed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn counting_unit(
        id: &str,
        counter: Arc<AtomicU64>,
        behavior: impl Fn(u64) -> Result<(), UnitError> + Send + Sync + 'static,
    ) -> Unit {
        Unit::new(id, move |_, attempt| {
            counter.fetch_add(1, Ordering::SeqCst);
            behavior(attempt)
        })
    }

    #[test]
    fn keep_going_records_failure_and_continues() {
        let ran = Arc::new(AtomicU64::new(0));
        let units = vec![
            counting_unit("a", ran.clone(), |_| Ok(())),
            Unit::new("b", |_, _| panic!("unit b exploded")),
            counting_unit("c", ran.clone(), |_| Ok(())),
        ];
        let opts = RunnerOptions {
            keep_going: true,
            retries: 0,
            ..Default::default()
        };
        let report = run_units(&units, &opts, &RunCtx::new(), 42, "small");
        assert_eq!(report.exit_code, crate::ExitCode::Failures);
        assert_eq!(ran.load(Ordering::SeqCst), 2, "a and c both ran");
        let statuses: Vec<_> = report.ledger.units.iter().map(|u| u.status).collect();
        assert_eq!(
            statuses,
            vec![UnitStatus::Ok, UnitStatus::Failed, UnitStatus::Ok]
        );
        let b = report.ledger.unit("b").unwrap();
        assert_eq!(b.error.as_deref(), Some("unit b exploded"));
    }

    #[test]
    fn ledger_records_the_attempt_arena_peak_and_spills() {
        use topogen_core::zoo::{build_in, Scale, TopologySpec};
        // A budget below the mesh's edge buffer forces spill runs; the
        // build reports them to the attempt's counter sink.
        let budget = 16 * 1024;
        let unit = Unit::new("budgeted", move |run, _| {
            let budgeted = run.clone().with_mem_budget(Some(budget));
            build_in(&budgeted, &TopologySpec::Mesh { side: 40 }, Scale::Small, 1);
            Ok(())
        });
        let report = run_units(
            &[unit],
            &RunnerOptions::default(),
            &RunCtx::new(),
            1,
            "small",
        );
        let u = &report.ledger.units[0];
        assert!(u.spill_runs.is_some_and(|n| n > 0), "{:?}", u.spill_runs);
        assert!(
            u.arena_bytes_peak.is_some_and(|b| b > 0 && b <= budget),
            "{:?}",
            u.arena_bytes_peak
        );
        // A unit that streams nothing records neither field.
        let plain = run_units(
            &[Unit::new("plain", |_, _| Ok(()))],
            &RunnerOptions::default(),
            &RunCtx::new(),
            1,
            "small",
        );
        assert_eq!(plain.ledger.units[0].spill_runs, None);
        assert_eq!(plain.ledger.units[0].arena_bytes_peak, None);
    }

    #[test]
    fn stop_on_first_failure_without_keep_going() {
        let ran = Arc::new(AtomicU64::new(0));
        let units = vec![
            Unit::new("a", |_, _| panic!("down")),
            counting_unit("b", ran.clone(), |_| Ok(())),
        ];
        let opts = RunnerOptions {
            retries: 0,
            ..Default::default()
        };
        let report = run_units(&units, &opts, &RunCtx::new(), 1, "small");
        assert_eq!(report.exit_code, crate::ExitCode::Failures);
        assert_eq!(report.ledger.units.len(), 1);
        assert_eq!(ran.load(Ordering::SeqCst), 0, "b never ran");
    }

    #[test]
    fn retry_with_reseed_flips_stochastic_failure_to_retried() {
        let unit = Unit::new("flaky", |_, attempt| {
            if attempt == 0 {
                panic!("bad seed");
            }
            Ok(())
        });
        let opts = RunnerOptions {
            retries: 1,
            ..Default::default()
        };
        let report = run_units(&[unit], &opts, &RunCtx::new(), 9, "small");
        assert_eq!(report.exit_code, crate::ExitCode::Clean);
        let u = &report.ledger.units[0];
        assert_eq!(u.status, UnitStatus::Retried);
        assert_eq!(u.attempts, 2);
        assert!(u.error.is_none());
    }

    #[test]
    fn load_errors_exit_three_without_retry() {
        let tries = Arc::new(AtomicU64::new(0));
        let unit = counting_unit("measured", tries.clone(), |_| {
            Err(UnitError::Load("as.edges:17: bad line".to_string()))
        });
        let opts = RunnerOptions {
            retries: 3,
            keep_going: true,
            ..Default::default()
        };
        let report = run_units(&[unit], &opts, &RunCtx::new(), 2, "small");
        assert_eq!(report.exit_code, crate::ExitCode::LoadError);
        assert_eq!(tries.load(Ordering::SeqCst), 1, "load errors never retry");
        assert_eq!(
            report.ledger.units[0].error.as_deref(),
            Some("as.edges:17: bad line")
        );
    }

    #[test]
    fn deadline_expiry_is_timed_out_not_a_hang() {
        // The unit sleeps far past the deadline but checkpoints after,
        // exactly like a delay fault inside an engine phase.
        let unit = Unit::new("slow", |_, _| {
            std::thread::sleep(Duration::from_millis(150));
            cancel::checkpoint();
            Ok(())
        });
        let opts = RunnerOptions {
            deadline: Some(Duration::from_millis(30)),
            retries: 2,
            ..Default::default()
        };
        let started = Instant::now();
        let report = run_units(&[unit], &opts, &RunCtx::new(), 3, "small");
        assert!(started.elapsed() < Duration::from_secs(5), "no hang");
        let u = &report.ledger.units[0];
        assert_eq!(u.status, UnitStatus::TimedOut);
        assert_eq!(u.attempts, 1, "timeouts are not retried");
        assert_eq!(report.exit_code, crate::ExitCode::Failures);
    }

    #[test]
    fn resume_skips_completed_and_reruns_failed() {
        let dir = std::env::temp_dir().join(format!(
            "topogen-runner-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run-ledger.json").to_string_lossy().to_string();

        let first = vec![
            Unit::new("good", |_, _| Ok(())),
            Unit::new("bad", |_, _| panic!("first pass fails")),
        ];
        let opts = RunnerOptions {
            keep_going: true,
            retries: 0,
            ledger_path: Some(path.clone()),
            ..Default::default()
        };
        let r1 = run_units(&first, &opts, &RunCtx::new(), 7, "small");
        assert_eq!(r1.exit_code, crate::ExitCode::Failures);
        assert_eq!(r1.executed, vec!["good", "bad"]);

        // Second pass: "bad" is fixed; --resume must re-run only it.
        let good_runs = Arc::new(AtomicU64::new(0));
        let second = vec![
            counting_unit("good", good_runs.clone(), |_| Ok(())),
            Unit::new("bad", |_, _| Ok(())),
        ];
        let opts2 = RunnerOptions {
            resume: true,
            ..opts
        };
        let r2 = run_units(&second, &opts2, &RunCtx::new(), 7, "small");
        assert_eq!(r2.exit_code, crate::ExitCode::Clean);
        assert_eq!(r2.executed, vec!["bad"], "only the failed unit re-ran");
        assert_eq!(good_runs.load(Ordering::SeqCst), 0);
        assert_eq!(r2.ledger.unit("good").unwrap().status, UnitStatus::Ok);
        assert_eq!(r2.ledger.unit("bad").unwrap().status, UnitStatus::Ok);

        // The persisted ledger reflects the second pass.
        let reloaded = RunLedger::load(&path).unwrap();
        assert!(reloaded.units.iter().all(|u| u.status.completed()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reseed_identity_on_first_attempt() {
        assert_eq!(reseed(42, 0), 42);
        assert_ne!(reseed(42, 1), 42);
        assert_ne!(reseed(42, 1), reseed(42, 2));
    }

    #[test]
    fn ledger_round_trips_through_json() {
        let mut l = RunLedger::new(5, "small");
        l.store = Some(StoreInfo {
            path: "out/store".into(),
            codec_version: 1,
        });
        l.units.push(LedgerUnit {
            id: "tab1".into(),
            status: UnitStatus::TimedOut,
            duration_secs: 1.25,
            duration_total_secs: None,
            attempts: 1,
            error: Some("deadline exceeded".into()),
            cache: None,
            arena_bytes_peak: None,
            spill_runs: None,
        });
        l.units.push(LedgerUnit {
            id: "tab2".into(),
            status: UnitStatus::Ok,
            duration_secs: 0.5,
            duration_total_secs: Some(0.9),
            attempts: 1,
            error: None,
            cache: Some(CacheBlock {
                hits: 3,
                misses: 1,
                bytes_read: 4096,
                bytes_written: 1024,
            }),
            arena_bytes_peak: Some(2048),
            spill_runs: Some(3),
        });
        let j = serde_json::to_string_pretty(&l).unwrap();
        assert!(j.contains("timed-out"));
        let back: RunLedger = serde_json::from_str(&j).unwrap();
        assert_eq!(back.units[0].status, UnitStatus::TimedOut);
        assert_eq!(back.units[0].error.as_deref(), Some("deadline exceeded"));
        assert_eq!(back.units[0].cache, None);
        assert_eq!(back.units[0].duration_total_secs, None);
        assert_eq!(back.units[0].arena_bytes_peak, None);
        assert_eq!(back.units[0].spill_runs, None);
        assert_eq!(back.units[1].arena_bytes_peak, Some(2048));
        assert_eq!(back.units[1].spill_runs, Some(3));
        assert_eq!(back.units[1].duration_total_secs, Some(0.9));
        assert_eq!(back.units[1].cache.unwrap().hits, 3);
        assert_eq!(back.store, l.store);
        assert_eq!(back.seed, 5);
    }

    #[test]
    fn pre_cache_ledgers_still_load() {
        // A ledger written before the cache/store fields existed.
        let old = r#"{
            "version": 1,
            "seed": 7,
            "scale": "small",
            "units": [
                {"id": "a", "status": "ok", "duration_secs": 0.1,
                 "attempts": 1, "error": null}
            ]
        }"#;
        let l: RunLedger = serde_json::from_str(old).unwrap();
        assert_eq!(l.store, None);
        assert_eq!(l.units[0].cache, None);
        assert!(l.units[0].status.completed());
    }

    #[test]
    fn resume_rejects_ledger_from_different_store() {
        let dir = std::env::temp_dir().join(format!(
            "topogen-runner-store-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run-ledger.json").to_string_lossy().to_string();

        // First pass: cacheless, everything completes.
        let opts = RunnerOptions {
            retries: 0,
            ledger_path: Some(path.clone()),
            ..Default::default()
        };
        let r1 = run_units(
            &[Unit::new("good", |_, _| Ok(()))],
            &opts,
            &RunCtx::new(),
            7,
            "small",
        );
        assert_eq!(r1.exit_code, crate::ExitCode::Clean);

        // Second pass resumes with a store configured: the prior
        // (storeless) ledger must not be trusted, so "good" re-runs.
        let ran = Arc::new(AtomicU64::new(0));
        let opts2 = RunnerOptions {
            resume: true,
            store: Some(StoreInfo {
                path: "out/store".into(),
                codec_version: 1,
            }),
            ..opts
        };
        let r2 = run_units(
            &[counting_unit("good", ran.clone(), |_| Ok(()))],
            &opts2,
            &RunCtx::new(),
            7,
            "small",
        );
        assert_eq!(r2.executed, vec!["good"], "store mismatch forces a re-run");
        assert_eq!(ran.load(Ordering::SeqCst), 1);
        assert_eq!(r2.ledger.store, opts2.store, "new ledger records the store");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
