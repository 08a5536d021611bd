//! Bounded worker pool with explicit backpressure and self-healing.
//!
//! The daemon must never buffer unboundedly: requests are dispatched
//! into a bounded queue drained by a fixed set of workers, and a full
//! queue surfaces immediately as [`DispatchError::Saturated`] so the
//! accept loop can answer `429` instead of stacking work. Shutdown is
//! cooperative — drop the sender side, join the workers.
//!
//! Self-healing has two layers. Every job runs under `catch_unwind`,
//! so a panicking request costs that request, not a worker. If a panic
//! somehow escapes the catch anyway (a panicking `Drop` in the payload,
//! say), a sentinel respawns the thread from its own `Drop` — the pool
//! never shrinks below its configured size for longer than one respawn.
//! [`stats`](WorkerPool::stats) exposes live/panics/respawns so the
//! chaos-soak can assert zero worker loss.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// A job the pool runs.
pub type Job = Box<dyn FnOnce() + Send + 'static>;

/// Why a dispatch was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DispatchError {
    /// Queue full: every worker busy and every queue slot taken.
    Saturated,
    /// Pool already shut down.
    Closed,
}

/// A point-in-time health report for the pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoolStats {
    /// Configured pool size.
    pub size: usize,
    /// Worker threads currently alive.
    pub live: usize,
    /// Jobs whose panic the per-job `catch_unwind` absorbed.
    pub panics: u64,
    /// Workers respawned after a panic escaped the per-job catch.
    pub respawns: u64,
}

struct Shared {
    rx: Mutex<Receiver<Job>>,
    live: AtomicUsize,
    panics: AtomicU64,
    respawns: AtomicU64,
    next_id: AtomicUsize,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

/// A fixed-size worker pool over a bounded queue. All methods take
/// `&self`, so the pool shares cleanly behind an `Arc` (the accept loop
/// dispatches while the drain path shuts down).
pub struct WorkerPool {
    tx: Mutex<Option<SyncSender<Job>>>,
    shared: Arc<Shared>,
    size: usize,
}

impl WorkerPool {
    /// Spawn `workers` threads sharing a queue of `queue` waiting jobs.
    /// Returns once every worker has registered, so [`stats`](Self::stats)
    /// reports all of them live from the start.
    ///
    /// # Panics
    /// Panics if `workers == 0`.
    pub fn new(workers: usize, queue: usize) -> WorkerPool {
        assert!(workers > 0, "worker pool needs at least one worker");
        let (tx, rx) = std::sync::mpsc::sync_channel::<Job>(queue);
        let shared = Arc::new(Shared {
            rx: Mutex::new(rx),
            live: AtomicUsize::new(0),
            panics: AtomicU64::new(0),
            respawns: AtomicU64::new(0),
            next_id: AtomicUsize::new(workers),
            handles: Mutex::new(Vec::new()),
        });
        let (registered_tx, registered) = std::sync::mpsc::channel();
        for i in 0..workers {
            spawn_worker(&shared, i, Some(registered_tx.clone()));
        }
        drop(registered_tx);
        for _ in 0..workers {
            registered
                .recv()
                .expect("a worker exited before registering");
        }
        WorkerPool {
            tx: Mutex::new(Some(tx)),
            shared,
            size: workers,
        }
    }

    /// Hand `job` to the pool without blocking.
    pub fn try_dispatch(&self, job: Job) -> Result<(), DispatchError> {
        let tx = self.tx.lock().unwrap_or_else(|e| e.into_inner()).clone();
        match tx {
            None => Err(DispatchError::Closed),
            Some(tx) => match tx.try_send(job) {
                Ok(()) => Ok(()),
                Err(TrySendError::Full(_)) => Err(DispatchError::Saturated),
                Err(TrySendError::Disconnected(_)) => Err(DispatchError::Closed),
            },
        }
    }

    /// Current pool health.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            size: self.size,
            live: self.shared.live.load(Ordering::SeqCst),
            panics: self.shared.panics.load(Ordering::SeqCst),
            respawns: self.shared.respawns.load(Ordering::SeqCst),
        }
    }

    /// Stop accepting work, drain queued jobs, and join every worker —
    /// including any respawned mid-shutdown.
    pub fn shutdown(&self) {
        self.tx.lock().unwrap_or_else(|e| e.into_inner()).take();
        loop {
            let handles: Vec<_> = {
                let mut guard = self
                    .shared
                    .handles
                    .lock()
                    .unwrap_or_else(|e| e.into_inner());
                guard.drain(..).collect()
            };
            if handles.is_empty() {
                break;
            }
            for handle in handles {
                let _ = handle.join();
            }
            // A worker dying during the joins may have respawned a
            // replacement; its handle is visible by the time the dying
            // thread's join returns, so one more pass picks it up.
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Spawn worker `id`; it signals `registered`, if given, once it counts
/// itself live.
fn spawn_worker(shared: &Arc<Shared>, id: usize, registered: Option<Sender<()>>) {
    let for_worker = Arc::clone(shared);
    let handle = std::thread::Builder::new()
        .name(format!("serve-worker-{id}"))
        .spawn(move || worker_run(&for_worker, registered))
        .expect("spawn worker thread");
    shared
        .handles
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .push(handle);
}

/// Decrements `live` on the way out and, when the exit is a panic that
/// escaped the per-job catch, respawns a replacement worker.
struct Sentinel {
    shared: Arc<Shared>,
}

impl Drop for Sentinel {
    fn drop(&mut self) {
        self.shared.live.fetch_sub(1, Ordering::SeqCst);
        if std::thread::panicking() {
            self.shared.respawns.fetch_add(1, Ordering::SeqCst);
            let id = self.shared.next_id.fetch_add(1, Ordering::SeqCst);
            spawn_worker(&self.shared, id, None);
        }
    }
}

fn worker_run(shared: &Arc<Shared>, registered: Option<Sender<()>>) {
    shared.live.fetch_add(1, Ordering::SeqCst);
    let sentinel = Sentinel {
        shared: Arc::clone(shared),
    };
    if let Some(registered) = registered {
        // `new` is still waiting on the other end.
        let _ = registered.send(());
    }
    loop {
        // Hold the lock only while waiting for the next job, not while
        // running it — otherwise the pool degrades to one worker.
        let job = match shared.rx.lock().unwrap_or_else(|e| e.into_inner()).recv() {
            Ok(job) => job,
            Err(_) => break,
        };
        // A panicking job costs the job, not the worker.
        if std::panic::catch_unwind(AssertUnwindSafe(job)).is_err() {
            shared.panics.fetch_add(1, Ordering::SeqCst);
        }
    }
    drop(sentinel);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc::channel;
    use std::time::{Duration, Instant};

    #[test]
    fn jobs_run_and_shutdown_drains() {
        let counter = Arc::new(AtomicUsize::new(0));
        let pool = WorkerPool::new(3, 16);
        for _ in 0..10 {
            let counter = Arc::clone(&counter);
            pool.try_dispatch(Box::new(move || {
                counter.fetch_add(1, Ordering::SeqCst);
            }))
            .unwrap();
        }
        pool.shutdown();
        assert_eq!(counter.load(Ordering::SeqCst), 10);
        assert_eq!(
            pool.try_dispatch(Box::new(|| {})),
            Err(DispatchError::Closed)
        );
    }

    #[test]
    fn saturation_is_reported_not_buffered() {
        let pool = WorkerPool::new(1, 1);
        let (release_tx, release_rx) = channel::<()>();
        let (started_tx, started_rx) = channel::<()>();
        pool.try_dispatch(Box::new(move || {
            started_tx.send(()).unwrap();
            release_rx.recv().unwrap();
        }))
        .unwrap();
        // Wait until the worker is provably busy, then fill the single
        // queue slot; the next dispatch must be refused.
        started_rx.recv().unwrap();
        pool.try_dispatch(Box::new(|| {})).unwrap();
        assert_eq!(
            pool.try_dispatch(Box::new(|| {})),
            Err(DispatchError::Saturated)
        );
        release_tx.send(()).unwrap();
        pool.shutdown();
    }

    #[test]
    fn new_returns_with_every_worker_live() {
        for workers in [1, 2, 4] {
            let pool = WorkerPool::new(workers, 4);
            assert_eq!(pool.stats().live, workers);
            pool.shutdown();
            assert_eq!(pool.stats().live, 0);
        }
    }

    #[test]
    fn panicking_jobs_do_not_shrink_the_pool() {
        let pool = WorkerPool::new(2, 32);
        let done = Arc::new(AtomicUsize::new(0));
        let mut accepted = 0u64;
        let mut panickers = 0u64;
        for i in 0..20 {
            let done = Arc::clone(&done);
            let ok = pool
                .try_dispatch(Box::new(move || {
                    if i % 3 == 0 {
                        panic!("injected fault at test-job ({i})");
                    }
                    done.fetch_add(1, Ordering::SeqCst);
                }))
                .is_ok();
            // Bounded queue may saturate under the burst; the test only
            // cares that accepted jobs complete and workers survive.
            if ok {
                accepted += 1;
                if i % 3 == 0 {
                    panickers += 1;
                }
            }
        }
        // Wait until every accepted job has either finished or panicked.
        let deadline = Instant::now() + Duration::from_secs(10);
        while done.load(Ordering::SeqCst) as u64 + pool.stats().panics < accepted
            && Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(pool.stats().panics, panickers);
        let stats = pool.stats();
        assert_eq!(stats.live, 2, "panicking jobs must not kill workers");
        assert!(stats.panics > 0, "the panics were counted");
        assert_eq!(stats.respawns, 0, "catch_unwind absorbed them all");
        pool.shutdown();
        assert_eq!(pool.stats().live, 0);
    }

    #[test]
    fn stats_report_full_strength_after_heavy_panic_load() {
        let pool = WorkerPool::new(4, 64);
        for _ in 0..64 {
            let _ = pool.try_dispatch(Box::new(|| {
                panic!("injected fault at test-job (storm)");
            }));
        }
        // Drain by dispatching a sentinel through each worker.
        let done = Arc::new(AtomicUsize::new(0));
        let deadline = Instant::now() + Duration::from_secs(10);
        while done.load(Ordering::SeqCst) == 0 && Instant::now() < deadline {
            let done = Arc::clone(&done);
            let _ = pool.try_dispatch(Box::new(move || {
                done.fetch_add(1, Ordering::SeqCst);
            }));
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(done.load(Ordering::SeqCst) > 0, "pool still serves jobs");
        assert_eq!(pool.stats().live, 4, "no worker loss under panic storm");
        pool.shutdown();
    }
}
