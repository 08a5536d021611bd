//! The daemon: accept loop, request routing, per-request contexts.
//!
//! Every measure request gets its own [`RunCtx`] — the shared store,
//! a private deadline, and (for streaming requests) a private trace
//! sink — so concurrent requests are fully disjoint: one request's
//! timeout or panic never leaks into a neighbor, and results are
//! byte-identical to a solo batch run regardless of interleaving.
//!
//! Failure posture: a panicking request is caught and answered `500`
//! (the durable ledger records it with the payload redacted), a request
//! key that panics [`QUARANTINE_AFTER`] times in a row is quarantined
//! with `503` for the daemon's lifetime (a success before the threshold
//! resets the count; a restart clears the list), and shutdown can
//! [`drain`](DaemonHandle::drain) — stop accepting, finish in-flight
//! work under a budget, cancel stragglers, flush the ledger.

use std::collections::{HashMap, HashSet};
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use topogen_core::cache::{scale_tag, spec_canonical};
use topogen_core::ctx::RunCtx;
use topogen_par::cancel::{is_cancelled_payload, CancelToken, Deadline};
use topogen_par::trace::{self, TraceSink};
use topogen_store::Store;

use super::http::{read_request, status_for_parse_error, write_response, HttpRequest};
use super::ledger::{Ledger, LedgerEntry};
use super::measure::{measure_body, response_key};
use super::pool::{DispatchError, PoolStats, WorkerPool};
use super::wire::{error_body, MeasureRequest};
use crate::ExitCode;

/// How often a streaming response flushes accumulated span events.
const STREAM_POLL: Duration = Duration::from_millis(50);

/// Consecutive panics on one request key before it is quarantined.
pub const QUARANTINE_AFTER: u32 = 3;

/// Seconds advertised in `Retry-After` on backpressure (`429`) and
/// drain (`503`) rejections.
const RETRY_AFTER_SECS: &str = "1";

/// Extra time granted past the drain budget for cancelled requests to
/// reach their next cooperative checkpoint.
const DRAIN_CANCEL_GRACE: Duration = Duration::from_secs(5);

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7878` (port 0 for ephemeral).
    pub addr: String,
    /// Worker threads executing requests.
    pub workers: usize,
    /// Waiting requests beyond the busy workers before `429`.
    pub queue: usize,
    /// Shared artifact store (response cache + engine caches); `None`
    /// disables caching.
    pub store: Option<Arc<Store>>,
    /// Request-ledger path.
    pub ledger_path: PathBuf,
    /// Deadline applied when a request doesn't carry one; `None` means
    /// such requests run unbounded.
    pub default_deadline: Option<Duration>,
}

impl ServeConfig {
    /// Defaults: 4 workers, a queue of 8, ledger at
    /// `out/serve-ledger.jsonl`, no cache, no default deadline.
    pub fn new(addr: impl Into<String>) -> ServeConfig {
        ServeConfig {
            addr: addr.into(),
            workers: 4,
            queue: 8,
            store: None,
            ledger_path: PathBuf::from("out/serve-ledger.jsonl"),
            default_deadline: None,
        }
    }
}

struct DaemonState {
    store: Option<Arc<Store>>,
    ledger: Ledger,
    default_deadline: Option<Duration>,
    next_id: AtomicU64,
    /// Accepted requests not yet answered (queued + running).
    in_flight: AtomicUsize,
    /// Cancel tokens of registered measure requests, by request id.
    cancels: Mutex<HashMap<u64, CancelToken>>,
    /// Consecutive-panic counts per request key (the poison guard).
    quarantine: Mutex<HashMap<String, u32>>,
    /// Set when the drain budget has expired: jobs starting now answer
    /// `503` immediately instead of computing.
    drain_expired: AtomicBool,
}

impl DaemonState {
    fn quarantined(&self, key: &str) -> bool {
        self.quarantine
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(key)
            .is_some_and(|&n| n >= QUARANTINE_AFTER)
    }

    /// Record a (non-deadline) panic against `key`; returns the new
    /// consecutive count.
    fn note_panic(&self, key: &str) -> u32 {
        let mut map = self.quarantine.lock().unwrap_or_else(|e| e.into_inner());
        let n = map.entry(key.to_string()).or_insert(0);
        *n += 1;
        *n
    }

    fn clear_panics(&self, key: &str) {
        self.quarantine
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(key);
    }
}

/// Decrements the in-flight gauge exactly once — when its job finishes,
/// unwinds, or is dropped unexecuted (rejected dispatch).
struct InFlight(Arc<DaemonState>);

impl Drop for InFlight {
    fn drop(&mut self) {
        self.0.in_flight.fetch_sub(1, Ordering::SeqCst);
    }
}

/// What a [`DaemonHandle::drain`] accomplished.
#[derive(Clone, Copy, Debug)]
pub struct DrainSummary {
    /// Requests in flight when the drain began.
    pub in_flight_at_stop: usize,
    /// Requests still running at the budget that were told to cancel.
    pub cancelled: usize,
    /// True when every in-flight request finished (or cancelled out)
    /// before the grace period ran out.
    pub drained: bool,
    /// Wall-clock seconds the drain took.
    pub elapsed_secs: f64,
    /// Pool health at the end of the drain.
    pub pool: PoolStats,
    /// Damaged ledger lines recovered when this daemon opened.
    pub recovered_lines: u64,
}

impl std::fmt::Display for DrainSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "drain: in_flight={} cancelled={} drained={} elapsed={:.2}s \
             workers={}/{} panics={} respawns={} recovered_lines={}",
            self.in_flight_at_stop,
            self.cancelled,
            self.drained,
            self.elapsed_secs,
            self.pool.live,
            self.pool.size,
            self.pool.panics,
            self.pool.respawns,
            self.recovered_lines,
        )
    }
}

/// A running daemon; dropping it shuts the daemon down.
pub struct DaemonHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    ledger_path: PathBuf,
    state: Arc<DaemonState>,
    pool: Arc<WorkerPool>,
}

impl DaemonHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Where this daemon's request ledger lives.
    pub fn ledger_path(&self) -> &std::path::Path {
        &self.ledger_path
    }

    /// Worker-pool health (size, live, panics, respawns).
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Damaged ledger lines recovered when this daemon's ledger opened.
    pub fn recovered_lines(&self) -> u64 {
        self.state.ledger.recovered_lines()
    }

    /// Requests accepted but not yet answered.
    pub fn in_flight(&self) -> usize {
        self.state.in_flight.load(Ordering::SeqCst)
    }

    /// Graceful shutdown: stop accepting, let in-flight requests finish
    /// within `budget`, cancel whatever is still running past it, join
    /// everything, and fsync the ledger. Idempotent with
    /// [`shutdown`](Self::shutdown) — whichever runs first wins.
    pub fn drain(&mut self, budget: Duration) -> DrainSummary {
        let start = Instant::now();
        // `live` is sampled before the stop flag goes up: the accept
        // thread shuts the pool down as soon as it wakes, so a later
        // reading only measures how far that teardown got. Sampled here
        // it answers the operator's question — did the daemon reach its
        // drain at full strength? The cumulative counters (panics,
        // respawns) are re-sampled at the end instead, so panics during
        // the drain itself still show.
        let live_at_stop = self.pool.stats().live;
        if !self.stop.swap(true, Ordering::SeqCst) {
            // The accept loop blocks in accept(); poke it awake.
            let _ = TcpStream::connect(self.addr);
        }
        let in_flight_at_stop = self.state.in_flight.load(Ordering::SeqCst);
        while self.state.in_flight.load(Ordering::SeqCst) > 0 && start.elapsed() < budget {
            std::thread::sleep(Duration::from_millis(5));
        }
        let mut cancelled_ids: HashSet<u64> = HashSet::new();
        if self.state.in_flight.load(Ordering::SeqCst) > 0 {
            // Budget exhausted: tell every running request to stop at
            // its next checkpoint, and keep sweeping — queued jobs may
            // register after the first pass (they answer 503 anyway
            // once `drain_expired` is up).
            self.state.drain_expired.store(true, Ordering::SeqCst);
            let grace = Instant::now() + DRAIN_CANCEL_GRACE;
            loop {
                {
                    let cancels = self.state.cancels.lock().unwrap_or_else(|e| e.into_inner());
                    for (id, token) in cancels.iter() {
                        token.cancel();
                        cancelled_ids.insert(*id);
                    }
                }
                if self.state.in_flight.load(Ordering::SeqCst) == 0 || Instant::now() >= grace {
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        if let Err(e) = self.state.ledger.sync() {
            eprintln!("serve: ledger sync failed during drain: {e}");
        }
        let mut pool = self.pool.stats();
        pool.live = live_at_stop;
        DrainSummary {
            in_flight_at_stop,
            cancelled: cancelled_ids.len(),
            drained: self.state.in_flight.load(Ordering::SeqCst) == 0,
            elapsed_secs: start.elapsed().as_secs_f64(),
            pool,
            recovered_lines: self.state.ledger.recovered_lines(),
        }
    }

    /// Stop accepting, finish in-flight requests, join all threads.
    pub fn shutdown(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            if let Some(handle) = self.accept_thread.take() {
                let _ = handle.join();
            }
            return;
        }
        // The accept loop blocks in accept(); poke it awake.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for DaemonHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Bind and start serving; returns once the listener is live.
pub fn serve(config: ServeConfig) -> std::io::Result<DaemonHandle> {
    // Deadline expiries unwind with a Cancelled payload; don't let the
    // default hook spam stderr for those expected panics.
    crate::runner::quiet_expected_panics();
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let state = Arc::new(DaemonState {
        store: config.store.clone(),
        ledger: Ledger::open(&config.ledger_path)?,
        default_deadline: config.default_deadline,
        next_id: AtomicU64::new(1),
        in_flight: AtomicUsize::new(0),
        cancels: Mutex::new(HashMap::new()),
        quarantine: Mutex::new(HashMap::new()),
        drain_expired: AtomicBool::new(false),
    });
    let stop = Arc::new(AtomicBool::new(false));
    let accept_stop = Arc::clone(&stop);
    let pool = Arc::new(WorkerPool::new(config.workers, config.queue));
    let accept_pool = Arc::clone(&pool);
    let accept_state = Arc::clone(&state);
    let accept_thread = std::thread::Builder::new()
        .name("serve-accept".into())
        .spawn(move || {
            for conn in listener.incoming() {
                if accept_stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                let state = Arc::clone(&accept_state);
                // Count the request the moment it is accepted; the
                // guard decrements whether the job runs, unwinds, or is
                // dropped unexecuted by a refused dispatch.
                state.in_flight.fetch_add(1, Ordering::SeqCst);
                let guard = InFlight(Arc::clone(&state));
                let dispatched = accept_pool.try_dispatch(Box::new({
                    let state = Arc::clone(&state);
                    let mut stream = stream.try_clone().expect("clone TCP stream");
                    move || {
                        let _guard = guard;
                        handle_connection(&state, &mut stream);
                    }
                }));
                match dispatched {
                    Ok(()) => {}
                    Err(DispatchError::Saturated) => {
                        // Rejection must not block the accept loop on a
                        // slow client; a throwaway thread is fine for
                        // the (rare, cheap) overload path.
                        std::thread::spawn(move || reject_saturated(&state, stream));
                    }
                    Err(DispatchError::Closed) => break,
                }
            }
            accept_pool.shutdown();
        })?;
    Ok(DaemonHandle {
        addr,
        stop,
        accept_thread: Some(accept_thread),
        ledger_path: config.ledger_path,
        state,
        pool,
    })
}

/// Answer `429` without touching the worker pool — the whole point of
/// the bounded queue is that saturation is cheap to report.
fn reject_saturated(state: &DaemonState, mut stream: TcpStream) {
    // Drain the request before answering: closing a socket with unread
    // request bytes raises a TCP reset that can destroy the response
    // before the client reads it.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let _ = read_request(&mut stream);
    let exit = ExitCode::Failures;
    let body = error_body("saturated: all workers busy and queue full", exit);
    let mut headers = status_headers(exit, "-");
    headers.push(("Retry-After", RETRY_AFTER_SECS.to_string()));
    let _ = write_response(
        &mut stream,
        429,
        "Too Many Requests",
        &headers,
        "application/json",
        body.as_bytes(),
    );
    record(
        state,
        LedgerEntry {
            request_id: state.next_id.fetch_add(1, Ordering::SeqCst),
            topology: "-".into(),
            seed: 0,
            scale: "-".into(),
            status: exit,
            http: 429,
            cache: "-",
            duration_secs: 0.0,
            error: Some("saturated".into()),
        },
    );
}

fn status_headers(exit: ExitCode, cache: &str) -> Vec<(&'static str, String)> {
    vec![
        ("X-Topogen-Status", exit.as_str().to_string()),
        ("X-Topogen-Code", exit.code().to_string()),
        ("X-Topogen-Cache", cache.to_string()),
    ]
}

fn record(state: &DaemonState, entry: LedgerEntry) {
    if let Err(e) = state.ledger.append(&entry) {
        eprintln!("serve: ledger append failed: {e}");
    }
}

fn handle_connection(state: &DaemonState, stream: &mut TcpStream) {
    let request_id = state.next_id.fetch_add(1, Ordering::SeqCst);
    let started = Instant::now();
    // A stalled peer must not pin a worker forever.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let req = match read_request(stream) {
        Ok(req) => req,
        Err(e) => {
            let (http, _) = status_for_parse_error(&e);
            respond_error(
                state,
                stream,
                request_id,
                started,
                http,
                &format!("bad request: {e}"),
            );
            return;
        }
    };
    if state.drain_expired.load(Ordering::SeqCst) {
        // The drain budget is spent; anything starting now is refused
        // fast so the daemon can finish dying.
        respond_unavailable(
            state,
            stream,
            request_id,
            started,
            "draining: shutting down",
        );
        return;
    }
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => {
            let exit = ExitCode::Clean;
            let _ = write_response(
                stream,
                200,
                "OK",
                &status_headers(exit, "-"),
                "text/plain",
                b"ok\n",
            );
            record(
                state,
                LedgerEntry {
                    request_id,
                    topology: "-".into(),
                    seed: 0,
                    scale: "-".into(),
                    status: exit,
                    http: 200,
                    cache: "-",
                    duration_secs: started.elapsed().as_secs_f64(),
                    error: None,
                },
            );
        }
        ("POST", "/measure") => handle_measure(state, stream, request_id, started, &req),
        (method, path) => {
            respond_error(
                state,
                stream,
                request_id,
                started,
                404,
                &format!("no route for {method} {path}"),
            );
        }
    }
}

/// Usage-class failure: malformed HTTP, bad JSON, unknown route.
fn respond_error(
    state: &DaemonState,
    stream: &mut TcpStream,
    request_id: u64,
    started: Instant,
    http: u16,
    error: &str,
) {
    let exit = ExitCode::Usage;
    let reason = match http {
        400 => "Bad Request",
        404 => "Not Found",
        413 => "Payload Too Large",
        _ => "Error",
    };
    let body = error_body(error, exit);
    let _ = write_response(
        stream,
        http,
        reason,
        &status_headers(exit, "-"),
        "application/json",
        body.as_bytes(),
    );
    record(
        state,
        LedgerEntry {
            request_id,
            topology: "-".into(),
            seed: 0,
            scale: "-".into(),
            status: exit,
            http,
            cache: "-",
            duration_secs: started.elapsed().as_secs_f64(),
            error: Some(error.to_string()),
        },
    );
}

/// `503 Service Unavailable` with `Retry-After` — quarantined keys and
/// requests arriving after the drain budget expired.
fn respond_unavailable(
    state: &DaemonState,
    stream: &mut TcpStream,
    request_id: u64,
    started: Instant,
    error: &str,
) {
    let exit = ExitCode::Failures;
    let body = error_body(error, exit);
    let mut headers = status_headers(exit, "-");
    headers.push(("Retry-After", RETRY_AFTER_SECS.to_string()));
    let _ = write_response(
        stream,
        503,
        "Service Unavailable",
        &headers,
        "application/json",
        body.as_bytes(),
    );
    record(
        state,
        LedgerEntry {
            request_id,
            topology: "-".into(),
            seed: 0,
            scale: "-".into(),
            status: exit,
            http: 503,
            cache: "-",
            duration_secs: started.elapsed().as_secs_f64(),
            error: Some(error.to_string()),
        },
    );
}

/// Unregisters a request's cancel token when the request finishes —
/// including by unwind, so the drain sweep never cancels a dead id.
struct CancelReg<'a> {
    state: &'a DaemonState,
    id: u64,
}

impl Drop for CancelReg<'_> {
    fn drop(&mut self) {
        self.state
            .cancels
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&self.id);
    }
}

fn handle_measure(
    state: &DaemonState,
    stream: &mut TcpStream,
    request_id: u64,
    started: Instant,
    http_req: &HttpRequest,
) {
    let text = match std::str::from_utf8(&http_req.body) {
        Ok(t) => t,
        Err(_) => {
            respond_error(state, stream, request_id, started, 400, "body is not UTF-8");
            return;
        }
    };
    let req = match MeasureRequest::from_json(text) {
        Ok(req) => req,
        Err(e) => {
            respond_error(state, stream, request_id, started, 400, &e.0);
            return;
        }
    };
    // The poison guard: a key that keeps panicking is refused before it
    // can take down more requests (a success before the threshold
    // resets its count; past it, only a restart does).
    let key = response_key(&req);
    if state.quarantined(&key) {
        respond_unavailable(
            state,
            stream,
            request_id,
            started,
            &format!("quarantined: {QUARANTINE_AFTER} consecutive panics on this request key"),
        );
        return;
    }
    // Every request gets a cancellable deadline — cancel-only when
    // unbounded — registered so the drain path can stop stragglers.
    let deadline = req
        .deadline_secs
        .map(Duration::from_secs_f64)
        .or(state.default_deadline)
        .map(Deadline::after)
        .unwrap_or_else(Deadline::cancel_only);
    state
        .cancels
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .insert(request_id, deadline.token());
    let _cancel_reg = CancelReg {
        state,
        id: request_id,
    };
    let mut ctx = RunCtx::new();
    ctx.store = state.store.clone();
    ctx.deadline = Some(deadline);
    let mut entry = LedgerEntry {
        request_id,
        topology: spec_canonical(&req.spec),
        seed: req.seed,
        scale: scale_tag(req.scale).to_string(),
        status: ExitCode::Clean,
        http: 200,
        cache: "-",
        duration_secs: 0.0,
        error: None,
    };
    if req.stream {
        stream_measure(state, stream, ctx, &req, &key, &mut entry);
    } else {
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| measure_body(&ctx, &req)));
        match settle(state, &key, outcome, &mut entry) {
            Ok(body) => {
                let _ = write_response(
                    stream,
                    200,
                    "OK",
                    &status_headers(ExitCode::Clean, entry.cache),
                    "application/json",
                    body.as_bytes(),
                );
            }
            Err(failure) => {
                entry.http = failure.http;
                let body = error_body(&failure.error, ExitCode::Failures);
                let _ = write_response(
                    stream,
                    failure.http,
                    failure.reason,
                    &status_headers(ExitCode::Failures, "-"),
                    "application/json",
                    body.as_bytes(),
                );
                if failure.http == 504 {
                    // The deadline path must not leave a half-open
                    // socket behind: shut both directions so the peer
                    // sees FIN, not a dangling connection.
                    let _ = stream.shutdown(Shutdown::Both);
                }
            }
        }
    }
    entry.duration_secs = started.elapsed().as_secs_f64();
    record(state, entry);
}

/// A measurement that unwound, as its requester is told about it.
struct Failure {
    http: u16,
    reason: &'static str,
    error: String,
}

/// Settle one measurement's outcome for either transport. A success
/// clears the key's panic count and notes whether the store served it;
/// a cancellation is a `504` "deadline exceeded"; any other unwind
/// counts toward the key's quarantine and is a `500`. The ledger entry
/// gets the logical outcome, but never a panic's payload — it can carry
/// arbitrary internal state — while the returned failure still tells
/// the requester what happened.
fn settle(
    state: &DaemonState,
    key: &str,
    outcome: std::thread::Result<(String, bool)>,
    entry: &mut LedgerEntry,
) -> Result<String, Failure> {
    let payload = match outcome {
        Ok((body, hit)) => {
            state.clear_panics(key);
            entry.cache = if hit { "hit" } else { "miss" };
            return Ok(body);
        }
        Err(payload) => payload,
    };
    entry.status = ExitCode::Failures;
    if is_cancelled_payload(&*payload) {
        entry.error = Some("deadline exceeded".to_string());
        return Err(Failure {
            http: 504,
            reason: "Gateway Timeout",
            error: "deadline exceeded".to_string(),
        });
    }
    state.note_panic(key);
    entry.error = Some("panicked (payload redacted)".to_string());
    Err(Failure {
        http: 500,
        reason: "Internal Server Error",
        error: format!(
            "measurement panicked: {}",
            topogen_par::panic_message(&*payload)
        ),
    })
}

/// Streaming flavor: HTTP status is committed up front (`200`, NDJSON,
/// close-delimited), progress spans flow as one JSON object per line,
/// and the final line is the compact result — or an error document
/// whose `status`/`code` carry the real outcome.
fn stream_measure(
    state: &DaemonState,
    stream: &mut TcpStream,
    ctx: RunCtx,
    req: &MeasureRequest,
    key: &str,
    entry: &mut LedgerEntry,
) {
    let sink = Arc::new(TraceSink::new());
    let mut ctx = ctx;
    ctx.trace = Some(Arc::clone(&sink));
    let head = "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nConnection: close\r\n\r\n";
    if stream.write_all(head.as_bytes()).is_err() {
        entry.status = ExitCode::Failures;
        entry.error = Some("client went away before the stream started".into());
        return;
    }
    let (done_tx, done_rx) = mpsc::channel();
    let compute = {
        let ctx = ctx.clone();
        let req = req.clone();
        std::thread::spawn(move || {
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| measure_body(&ctx, &req)));
            let _ = done_tx.send(outcome);
        })
    };
    let mut mark = sink.mark();
    let outcome = loop {
        match done_rx.recv_timeout(STREAM_POLL) {
            Ok(outcome) => break outcome,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                let (events, next) = sink.drain_since(&mark);
                mark = next;
                for ev in &events {
                    let mut line = trace::event_json(ev);
                    line.push('\n');
                    // A gone client can't cancel the engines; just stop
                    // feeding it and let the computation finish.
                    let _ = stream.write_all(line.as_bytes());
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                break Err(Box::new("compute thread vanished".to_string())
                    as Box<dyn std::any::Any + Send>)
            }
        }
    };
    let _ = compute.join();
    let (events, _) = sink.drain_since(&mark);
    for ev in &events {
        let mut line = trace::event_json(ev);
        line.push('\n');
        let _ = stream.write_all(line.as_bytes());
    }
    // The HTTP status was already committed as 200, so the ledger keeps
    // it and the tail line carries the outcome to the client.
    let final_line = match settle(state, key, outcome, entry) {
        // The cached/pretty body is multi-line; the stream's result
        // line is its compact re-rendering.
        Ok(body) => compact_json_line(&body),
        Err(failure) => {
            let mut line = error_line(&failure.error);
            line.push('\n');
            line
        }
    };
    let _ = stream.write_all(final_line.as_bytes());
    let _ = stream.flush();
}

/// Re-render a pretty JSON body as one compact line.
fn compact_json_line(pretty: &str) -> String {
    match serde_json::from_str::<serde::Content>(pretty) {
        Ok(c) => {
            let mut s = serde_json::to_string(&c).unwrap_or_else(|_| pretty.trim().to_string());
            s.push('\n');
            s
        }
        Err(_) => {
            let mut s = pretty.trim().to_string();
            s.push('\n');
            s
        }
    }
}

/// Compact single-line error document for stream tails.
fn error_line(error: &str) -> String {
    let exit = ExitCode::Failures;
    let doc = serde::Content::Map(vec![
        (
            "schema_version".to_string(),
            serde::Content::U64(super::wire::WIRE_VERSION),
        ),
        ("error".to_string(), serde::Content::Str(error.to_string())),
        (
            "status".to_string(),
            serde::Content::Str(exit.as_str().to_string()),
        ),
        ("code".to_string(), serde::Content::U64(exit.code() as u64)),
    ]);
    serde_json::to_string(&doc).expect("error serializes")
}

/// `repro serve --self-test`: boot a daemon on an ephemeral port,
/// exercise the protocol end to end with the std-only client, and
/// report. This is the CI smoke path — no fixtures, no network beyond
/// loopback.
pub fn self_test(mut config: ServeConfig) -> ExitCode {
    config.addr = "127.0.0.1:0".into();
    // The warm-request check needs a response cache; give the test its
    // own throwaway store when the caller didn't bring one.
    let scratch = if config.store.is_none() {
        let dir =
            std::env::temp_dir().join(format!("topogen-serve-selftest-{}", std::process::id()));
        match Store::open(&dir) {
            Ok(store) => {
                config.store = Some(Arc::new(store));
                Some(dir)
            }
            Err(e) => {
                eprintln!("self-test: scratch store failed to open: {e}");
                return ExitCode::Failures;
            }
        }
    } else {
        None
    };
    let handle = match serve(config) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("self-test: daemon failed to start: {e}");
            return ExitCode::Failures;
        }
    };
    let addr = handle.addr();
    let mut failures = 0usize;
    let mut check = |name: &str, ok: bool| {
        println!("self-test: {name}: {}", if ok { "ok" } else { "FAIL" });
        if !ok {
            failures += 1;
        }
    };

    let status_of = |r: &std::io::Result<super::http::HttpResponse>| -> u16 {
        r.as_ref().map(|r| r.status).unwrap_or(0)
    };
    let health = super::http::http_get(addr, "/healthz");
    check("healthz", status_of(&health) == 200);

    let req = MeasureRequest::new(
        topogen_core::zoo::TopologySpec::Mesh { side: 12 },
        7,
        topogen_core::zoo::Scale::Small,
    );
    let cold = super::http::http_post(addr, "/measure", &req.to_json());
    check("measure (cold)", status_of(&cold) == 200);
    let warm = super::http::http_post(addr, "/measure", &req.to_json());
    check("measure (warm)", status_of(&warm) == 200);
    if let (Ok(cold), Ok(warm)) = (&cold, &warm) {
        check("warm equals cold byte-for-byte", warm.body == cold.body);
        check(
            "warm served from cache",
            warm.headers.get("x-topogen-cache").map(String::as_str) == Some("hit"),
        );
    }

    let bad = super::http::http_post(
        addr,
        "/measure",
        r#"{"schema_version":99,"topology":"Mesh","seed":1}"#,
    );
    check(
        "unknown schema_version rejected with 400",
        status_of(&bad) == 400,
    );

    let ledger_ok = std::fs::read_to_string(handle.ledger_path())
        .map(|text| text.lines().count() >= 4)
        .unwrap_or(false);
    check("ledger recorded every request", ledger_ok);

    drop(handle);
    if let Some(dir) = scratch {
        let _ = std::fs::remove_dir_all(dir);
    }
    if failures == 0 {
        println!("self-test: all checks passed");
        ExitCode::Clean
    } else {
        eprintln!("self-test: {failures} check(s) failed");
        ExitCode::Failures
    }
}
