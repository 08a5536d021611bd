//! Lightweight instrumentation sink for the parallel engines.
//!
//! [`Instrument`] is a set of atomic counters plus a coarse phase-timer
//! that worker threads update while an engine runs — the shared-ball
//! `BallPlan` of `topogen-metrics` or the link-value pipeline of
//! `topogen-hierarchy`; [`Instrument::report`] snapshots it into a plain
//! [`InstrumentReport`] that callers can aggregate or serialize. The
//! counters exist to make the engines' sharing *observable*: a suite run
//! can assert (and a timing report can show) that the BFS/ball work per
//! center no longer scales with the number of registered metrics, and
//! that the hierarchy stage's DAG/arena volumes match expectations.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Shared counters + phase wall-times, updated concurrently by engine
/// workers. All methods take `&self`; ordering is relaxed (counters are
/// independent tallies, read only after the run joins its workers).
#[derive(Debug, Default)]
pub struct Instrument {
    /// Distance-field computations (one BFS-equivalent traversal each).
    bfs_runs: AtomicU64,
    /// Ball subgraphs constructed.
    balls_built: AtomicU64,
    /// Reuses of an already-built ball or distance field by an
    /// additional consumer (what the shared plan saves over per-metric
    /// `balls_up_to` calls).
    ball_cache_hits: AtomicU64,
    /// Partitioner restarts performed by resilience consumers.
    partitioner_restarts: AtomicU64,
    /// Path-DAG states visited by the link-value traversal stage (§5).
    dag_states: AtomicU64,
    /// (source, target) pairs accumulated into traversal sets.
    pairs_accumulated: AtomicU64,
    /// Bytes held by the traversal-set arena (offsets + flat pair
    /// buffer), summed over link-value runs.
    arena_bytes: AtomicU64,
    /// `u64` bitset words touched by the batched BFS kernels (frontier
    /// OR/AND-NOT sweeps plus bottom-up pulls).
    words_scanned: AtomicU64,
    /// Frontier-expansion passes executed by the batched BFS kernels
    /// (one per level per direction-optimized sweep).
    frontier_passes: AtomicU64,
    /// Peak per-source scratch bytes of the hierarchy traversal stage
    /// (a max across sources, not a sum — the compressed frontier-local
    /// representation's high-water mark).
    scratch_bytes: AtomicU64,
    /// Largest single arena held: a traversal-set arena or a streaming
    /// build's edge buffer (a max, where `arena_bytes` is a sum).
    arena_peak: AtomicU64,
    /// Sorted runs spilled to disk by memory-budgeted streaming builds.
    spill_runs: AtomicU64,
    /// Artifact-store lookups served from disk (`repro --cache`).
    store_hits: AtomicU64,
    /// Artifact-store lookups that fell through to computation.
    store_misses: AtomicU64,
    /// Bytes of verified store entries read.
    store_bytes_read: AtomicU64,
    /// Bytes of new store entries written.
    store_bytes_written: AtomicU64,
    /// Accumulated wall time per named phase, in nanoseconds.
    phase_nanos: Mutex<Vec<(String, u64)>>,
}

impl Instrument {
    /// A fresh sink with all counters at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `n` distance-field computations.
    pub fn add_bfs_runs(&self, n: u64) {
        self.bfs_runs.fetch_add(n, Ordering::Relaxed);
    }

    /// Record `n` ball subgraph constructions.
    pub fn add_balls_built(&self, n: u64) {
        self.balls_built.fetch_add(n, Ordering::Relaxed);
    }

    /// Record `n` reuses of shared per-center work.
    pub fn add_ball_cache_hits(&self, n: u64) {
        self.ball_cache_hits.fetch_add(n, Ordering::Relaxed);
    }

    /// Record `n` partitioner restarts.
    pub fn add_partitioner_restarts(&self, n: u64) {
        self.partitioner_restarts.fetch_add(n, Ordering::Relaxed);
    }

    /// Record `n` path-DAG states visited by the traversal stage.
    pub fn add_dag_states(&self, n: u64) {
        self.dag_states.fetch_add(n, Ordering::Relaxed);
    }

    /// Record `n` pairs accumulated into traversal sets.
    pub fn add_pairs_accumulated(&self, n: u64) {
        self.pairs_accumulated.fetch_add(n, Ordering::Relaxed);
    }

    /// Record `n` bytes held by a traversal-set arena.
    pub fn add_arena_bytes(&self, n: u64) {
        self.arena_bytes.fetch_add(n, Ordering::Relaxed);
    }

    /// Record `n` bitset words scanned by a batched BFS kernel.
    pub fn add_words_scanned(&self, n: u64) {
        self.words_scanned.fetch_add(n, Ordering::Relaxed);
    }

    /// Record `n` frontier-expansion passes by a batched BFS kernel.
    pub fn add_frontier_passes(&self, n: u64) {
        self.frontier_passes.fetch_add(n, Ordering::Relaxed);
    }

    /// Raise the per-source scratch high-water mark to at least `n`
    /// bytes (deterministic: a max over sources is thread-order free).
    pub fn record_scratch_peak(&self, n: u64) {
        self.scratch_bytes.fetch_max(n, Ordering::Relaxed);
    }

    /// Raise the largest-single-arena mark to at least `bytes`.
    pub fn record_arena_peak(&self, bytes: u64) {
        self.arena_peak.fetch_max(bytes, Ordering::Relaxed);
    }

    /// Record `n` spilled streaming-build runs.
    pub fn add_spill_runs(&self, n: u64) {
        self.spill_runs.fetch_add(n, Ordering::Relaxed);
    }

    /// Record artifact-store traffic: `hits`/`misses` lookups plus the
    /// bytes read from and written to the store.
    pub fn add_store_traffic(&self, hits: u64, misses: u64, bytes_read: u64, bytes_written: u64) {
        self.store_hits.fetch_add(hits, Ordering::Relaxed);
        self.store_misses.fetch_add(misses, Ordering::Relaxed);
        self.store_bytes_read
            .fetch_add(bytes_read, Ordering::Relaxed);
        self.store_bytes_written
            .fetch_add(bytes_written, Ordering::Relaxed);
    }

    /// Add wall time to the named phase (accumulates across threads, so
    /// parallel phases can exceed elapsed wall-clock time).
    pub fn add_phase(&self, name: &str, elapsed: Duration) {
        let nanos = elapsed.as_nanos() as u64;
        let mut phases = self.phase_nanos.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(entry) = phases.iter_mut().find(|(n, _)| n == name) {
            entry.1 += nanos;
        } else {
            phases.push((name.to_string(), nanos));
        }
    }

    /// Snapshot the counters into a plain report.
    pub fn report(&self) -> InstrumentReport {
        let phases = self
            .phase_nanos
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .iter()
            .map(|(name, nanos)| PhaseTiming {
                name: name.clone(),
                seconds: *nanos as f64 / 1e9,
            })
            .collect();
        InstrumentReport {
            bfs_runs: self.bfs_runs.load(Ordering::Relaxed),
            balls_built: self.balls_built.load(Ordering::Relaxed),
            ball_cache_hits: self.ball_cache_hits.load(Ordering::Relaxed),
            partitioner_restarts: self.partitioner_restarts.load(Ordering::Relaxed),
            dag_states: self.dag_states.load(Ordering::Relaxed),
            pairs_accumulated: self.pairs_accumulated.load(Ordering::Relaxed),
            arena_bytes: self.arena_bytes.load(Ordering::Relaxed),
            words_scanned: self.words_scanned.load(Ordering::Relaxed),
            frontier_passes: self.frontier_passes.load(Ordering::Relaxed),
            scratch_bytes: self.scratch_bytes.load(Ordering::Relaxed),
            arena_bytes_peak: self.arena_peak.load(Ordering::Relaxed),
            spill_runs: self.spill_runs.load(Ordering::Relaxed),
            store_hits: self.store_hits.load(Ordering::Relaxed),
            store_misses: self.store_misses.load(Ordering::Relaxed),
            store_bytes_read: self.store_bytes_read.load(Ordering::Relaxed),
            store_bytes_written: self.store_bytes_written.load(Ordering::Relaxed),
            phases,
        }
    }
}

/// Wall time attributed to one named engine phase.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseTiming {
    /// Phase name (`"distances"`, `"balls"`, or a metric's name).
    pub name: String,
    /// Accumulated wall time in seconds (summed across worker threads).
    pub seconds: f64,
}

/// Plain snapshot of an [`Instrument`] after a run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct InstrumentReport {
    /// Distance-field computations performed.
    pub bfs_runs: u64,
    /// Ball subgraphs constructed.
    pub balls_built: u64,
    /// Reuses of shared per-center work by additional consumers.
    pub ball_cache_hits: u64,
    /// Partitioner restarts performed.
    pub partitioner_restarts: u64,
    /// Path-DAG states visited by the link-value traversal stage.
    pub dag_states: u64,
    /// Pairs accumulated into traversal sets.
    pub pairs_accumulated: u64,
    /// Bytes held by traversal-set arenas.
    pub arena_bytes: u64,
    /// Bitset words touched by the batched BFS kernels.
    pub words_scanned: u64,
    /// Frontier-expansion passes executed by the batched BFS kernels.
    pub frontier_passes: u64,
    /// Peak per-source hierarchy-traversal scratch bytes (max, not sum).
    pub scratch_bytes: u64,
    /// Largest single arena or streaming-build buffer (max, not sum).
    pub arena_bytes_peak: u64,
    /// Sorted runs spilled by memory-budgeted streaming builds.
    pub spill_runs: u64,
    /// Artifact-store lookups served from disk.
    pub store_hits: u64,
    /// Artifact-store lookups that fell through to computation.
    pub store_misses: u64,
    /// Bytes of verified store entries read.
    pub store_bytes_read: u64,
    /// Bytes of new store entries written.
    pub store_bytes_written: u64,
    /// Per-phase accumulated wall times.
    pub phases: Vec<PhaseTiming>,
}

impl InstrumentReport {
    /// Merge another report into this one (summing counters and phases),
    /// for aggregating per-topology runs into a suite-level report.
    pub fn merge(&mut self, other: &InstrumentReport) {
        self.bfs_runs += other.bfs_runs;
        self.balls_built += other.balls_built;
        self.ball_cache_hits += other.ball_cache_hits;
        self.partitioner_restarts += other.partitioner_restarts;
        self.dag_states += other.dag_states;
        self.pairs_accumulated += other.pairs_accumulated;
        self.arena_bytes += other.arena_bytes;
        self.words_scanned += other.words_scanned;
        self.frontier_passes += other.frontier_passes;
        self.scratch_bytes = self.scratch_bytes.max(other.scratch_bytes);
        self.arena_bytes_peak = self.arena_bytes_peak.max(other.arena_bytes_peak);
        self.spill_runs += other.spill_runs;
        self.store_hits += other.store_hits;
        self.store_misses += other.store_misses;
        self.store_bytes_read += other.store_bytes_read;
        self.store_bytes_written += other.store_bytes_written;
        for p in &other.phases {
            if let Some(mine) = self.phases.iter_mut().find(|q| q.name == p.name) {
                mine.seconds += p.seconds;
            } else {
                self.phases.push(p.clone());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let ins = Instrument::new();
        ins.add_bfs_runs(3);
        ins.add_bfs_runs(2);
        ins.add_balls_built(7);
        ins.add_ball_cache_hits(4);
        ins.add_partitioner_restarts(9);
        ins.add_dag_states(100);
        ins.add_pairs_accumulated(50);
        ins.add_arena_bytes(1024);
        ins.add_words_scanned(77);
        ins.add_frontier_passes(6);
        ins.add_store_traffic(2, 3, 100, 200);
        ins.add_store_traffic(1, 0, 50, 0);
        let r = ins.report();
        assert_eq!(r.bfs_runs, 5);
        assert_eq!(r.balls_built, 7);
        assert_eq!(r.ball_cache_hits, 4);
        assert_eq!(r.partitioner_restarts, 9);
        assert_eq!(r.dag_states, 100);
        assert_eq!(r.pairs_accumulated, 50);
        assert_eq!(r.arena_bytes, 1024);
        assert_eq!(r.words_scanned, 77);
        assert_eq!(r.frontier_passes, 6);
        assert_eq!(r.store_hits, 3);
        assert_eq!(r.store_misses, 3);
        assert_eq!(r.store_bytes_read, 150);
        assert_eq!(r.store_bytes_written, 200);
    }

    #[test]
    fn phases_accumulate_by_name() {
        let ins = Instrument::new();
        ins.add_phase("balls", Duration::from_millis(10));
        ins.add_phase("balls", Duration::from_millis(5));
        ins.add_phase("resilience", Duration::from_millis(2));
        let r = ins.report();
        assert_eq!(r.phases.len(), 2);
        let balls = r.phases.iter().find(|p| p.name == "balls").unwrap();
        assert!((balls.seconds - 0.015).abs() < 1e-9);
    }

    #[test]
    fn arena_peak_tracks_max() {
        let ins = Instrument::new();
        assert_eq!(ins.report().arena_bytes_peak, 0);
        ins.record_arena_peak(100);
        ins.record_arena_peak(700);
        ins.record_arena_peak(300);
        assert_eq!(ins.report().arena_bytes_peak, 700);
    }

    #[test]
    fn merge_sums_reports() {
        let a = Instrument::new();
        a.add_bfs_runs(1);
        a.add_dag_states(10);
        a.add_phase("x", Duration::from_secs(1));
        let b = Instrument::new();
        b.add_bfs_runs(2);
        b.add_dag_states(5);
        b.add_arena_bytes(64);
        b.add_words_scanned(8);
        b.add_frontier_passes(2);
        b.add_store_traffic(1, 2, 3, 4);
        b.add_phase("x", Duration::from_secs(2));
        b.add_phase("y", Duration::from_secs(3));
        let mut ra = a.report();
        ra.merge(&b.report());
        assert_eq!(ra.bfs_runs, 3);
        assert_eq!(ra.dag_states, 15);
        assert_eq!(ra.arena_bytes, 64);
        assert_eq!(ra.words_scanned, 8);
        assert_eq!(ra.frontier_passes, 2);
        assert_eq!(ra.store_hits, 1);
        assert_eq!(ra.store_misses, 2);
        assert_eq!(ra.store_bytes_read, 3);
        assert_eq!(ra.store_bytes_written, 4);
        assert_eq!(ra.phases.len(), 2);
        assert!((ra.phases[0].seconds - 3.0).abs() < 1e-9);
    }
}
