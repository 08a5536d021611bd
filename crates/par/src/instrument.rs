//! Engine telemetry: one table of counters, one phase timer, one report.
//!
//! [`Instrument`] is the sink worker threads update while an engine runs
//! — the shared-ball `BallPlan` of `topogen-metrics` or the link-value
//! pipeline of `topogen-hierarchy`. [`Instrument::report`] snapshots it
//! into a [`TimingReport`], which callers merge across calls, print
//! (`repro --timings`) and archive (`BENCH_*.json`). The counters make
//! the engines' sharing *observable*: a suite run can assert (and a
//! timing report can show) that the BFS/ball work per center does not
//! scale with the number of registered metrics, and that the hierarchy
//! stage's DAG/arena volumes match expectations.
//!
//! Every counter is one row of the `counters!` table below. The row
//! declares the field, its adder, its doc, how two values merge (`Sum`
//! or `Max`), whether JSON and the `--timings` text write it `Always`
//! or only when `Nonzero` (counters added after the first archives were
//! committed, so older archives stay byte-identical), and whether
//! `repro perf-gate` compares it. The atomics, the adders, the report
//! fields, [`TimingReport::merge`], the JSON, the text and
//! [`gated_counters`] are all generated from or loop over that table.
//!
//! Phase times come from [`phase`]: one guard that opens the trace span
//! of the same name and, on drop, adds its elapsed time to the
//! instrument's phase. Guards opened on worker threads sum across them,
//! so a phase row is thread time summed over the threads that ran it.

use serde::{Content, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::trace::{self, SpanGuard, SpanRollup};

/// How [`TimingReport::merge`] (and concurrent adders) combine values.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Merge {
    /// A tally: values add.
    Sum,
    /// A high-water mark: the larger value wins (thread-order free).
    Max,
}

/// When the JSON and the `--timings` text write a counter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Emit {
    /// Always, even at zero.
    Always,
    /// Only when nonzero.
    Nonzero,
}

/// One row of the counter table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Counter {
    /// Field name, JSON key and `--timings` label.
    name: &'static str,
    /// How two values combine.
    merge: Merge,
    /// When the counter is written out.
    emit: Emit,
    /// Whether `repro perf-gate` compares it: deterministic operation
    /// counts are gated, cache-dependent counters are not.
    gated: bool,
}

macro_rules! counters {
    (@gated gated) => { true };
    (@gated ungated) => { false };
    ($($(#[doc = $doc:literal])+ $field:ident: $adder:ident, $merge:ident, $emit:ident, $gate:ident;)+) => {
        /// Shared counters + phase times, updated concurrently by engine
        /// workers. All methods take `&self`; ordering is relaxed
        /// (counters are independent tallies, read only after the run
        /// joins its workers).
        #[derive(Debug, Default)]
        pub struct Instrument {
            $($field: AtomicU64,)+
            /// Accumulated time per named phase, in nanoseconds.
            phase_nanos: Mutex<Vec<(&'static str, u64)>>,
        }

        impl Instrument {
            $(
                #[doc = concat!("Record `n` into [`TimingReport::", stringify!($field), "`] (`", stringify!($merge), "`).")]
                pub fn $adder(&self, n: u64) {
                    match Merge::$merge {
                        Merge::Sum => self.$field.fetch_add(n, Ordering::Relaxed),
                        Merge::Max => self.$field.fetch_max(n, Ordering::Relaxed),
                    };
                }
            )+

            /// Snapshot the counters and phases into a report.
            pub fn report(&self) -> TimingReport {
                let phases = self
                    .phase_nanos
                    .lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .iter()
                    .map(|&(name, nanos)| Phase {
                        name: name.to_string(),
                        seconds: nanos as f64 / 1e9,
                    })
                    .collect();
                TimingReport {
                    $($field: self.$field.load(Ordering::Relaxed),)+
                    phases,
                    spans: Vec::new(),
                }
            }
        }

        /// Counters, phase times and span rollups of one or more engine
        /// runs: what `repro --timings` prints and archives as
        /// `BENCH_<id>.json`.
        #[derive(Clone, Debug, Default, PartialEq)]
        pub struct TimingReport {
            $($(#[doc = $doc])+ pub $field: u64,)+
            /// Seconds per phase, summed over the threads that ran it, in
            /// first-recorded order.
            pub phases: Vec<Phase>,
            /// Trace span rollups (populated only under `--trace`).
            pub spans: Vec<SpanRollup>,
        }

        /// The counter table, in declaration (= JSON) order.
        const COUNTERS: &[Counter] = &[$(Counter {
            name: stringify!($field),
            merge: Merge::$merge,
            emit: Emit::$emit,
            gated: counters!(@gated $gate),
        },)+];

        impl TimingReport {
            /// Each counter's value, in table order.
            fn values(&self) -> impl Iterator<Item = u64> {
                [$(self.$field),+].into_iter()
            }

            fn values_mut(&mut self) -> impl Iterator<Item = &mut u64> {
                [$(&mut self.$field),+].into_iter()
            }
        }
    };
}

counters! {
    /// Distance-field computations performed (one BFS-equivalent
    /// traversal each).
    bfs_runs: add_bfs_runs, Sum, Always, gated;
    /// Ball subgraphs constructed.
    balls_built: add_balls_built, Sum, Always, gated;
    /// Reuses of an already-built ball or center growth by an
    /// additional consumer: each built ball's metrics after the first,
    /// and an expansion center's counts read from its ball sizes (what
    /// the shared plan saves over growing each center per metric).
    ball_cache_hits: add_ball_cache_hits, Sum, Always, ungated;
    /// Partitioner restarts performed by resilience consumers.
    partitioner_restarts: add_partitioner_restarts, Sum, Always, gated;
    /// Path-DAG states visited by the link-value traversal stage (§5).
    dag_states: add_dag_states, Sum, Always, gated;
    /// (source, target) pairs accumulated into traversal sets.
    pairs_accumulated: add_pairs_accumulated, Sum, Always, gated;
    /// Traversal-set bytes the link-value covers gather (offsets + flat
    /// pair buffer, as one arena would hold them), summed over runs.
    arena_bytes: add_arena_bytes, Sum, Always, gated;
    /// `u64` lane words touched by the 64-lane BFS passes (frontier
    /// OR/AND-NOT sweeps plus bottom-up pulls); lane passes only, so
    /// zero when no plan picked lanes.
    words_scanned: add_words_scanned, Sum, Nonzero, gated;
    /// Frontier-expansion levels executed by the 64-lane BFS passes (one
    /// per level per pass); lane passes only.
    frontier_passes: add_frontier_passes, Sum, Nonzero, gated;
    /// Peak per-pair scratch bytes of the hierarchy traversal stage: the
    /// raw `(link, share)` contributions of the pair that emitted most.
    scratch_bytes: record_scratch_peak, Max, Nonzero, gated;
    /// Sorted runs spilled to disk by memory-budgeted graph builds.
    spill_runs: add_spill_runs, Sum, Nonzero, gated;
    /// Largest single buffer held: a hierarchy link-range buffer or a
    /// budgeted graph build's edge buffer (a max, where `arena_bytes` is
    /// a sum).
    arena_bytes_peak: record_arena_peak, Max, Nonzero, ungated;
    /// Brandes sources swept by distortion's ball-center computations: the
    /// folded 2-core's sources, plus every node when the reference pass
    /// runs; zero for a reused center.
    brandes_sources: add_brandes_sources, Sum, Nonzero, ungated;
    /// Adjacency entries those Brandes sweeps scanned (forward BFS plus
    /// reverse accumulation).
    brandes_edge_visits: add_brandes_edge_visits, Sum, Nonzero, ungated;
}

impl Instrument {
    /// A fresh sink with all counters at zero.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Names of the counters `repro perf-gate` compares, in table order.
pub fn gated_counters() -> impl Iterator<Item = &'static str> {
    COUNTERS.iter().filter(|c| c.gated).map(|c| c.name)
}

/// Time attributed to one named phase.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct Phase {
    /// Phase name (`"balls"`, `"distances"`, a metric's name,
    /// `"hier-traversal"`, `"hier-cover"`).
    pub name: String,
    /// Seconds, summed over the threads that ran the phase.
    pub seconds: f64,
}

impl TimingReport {
    /// The counters the JSON and the `--timings` text write, with their
    /// values, in table order.
    fn emitted(&self) -> impl Iterator<Item = (&'static Counter, u64)> {
        COUNTERS
            .iter()
            .zip(self.values())
            .filter(|(c, v)| c.emit == Emit::Always || *v > 0)
    }

    /// Merge another report into this one — counters per their table
    /// row, phases and spans by name — for aggregating per-call reports
    /// into an experiment-level one.
    pub fn merge(&mut self, other: &TimingReport) {
        for ((c, mine), theirs) in COUNTERS.iter().zip(self.values_mut()).zip(other.values()) {
            *mine = match c.merge {
                Merge::Sum => *mine + theirs,
                Merge::Max => (*mine).max(theirs),
            };
        }
        for p in &other.phases {
            match self.phases.iter_mut().find(|q| q.name == p.name) {
                Some(mine) => mine.seconds += p.seconds,
                None => self.phases.push(p.clone()),
            }
        }
        for s in &other.spans {
            match self.spans.iter_mut().find(|q| q.name == s.name) {
                Some(mine) => {
                    mine.count += s.count;
                    mine.nanos += s.nanos;
                }
                None => self.spans.push(s.clone()),
            }
        }
    }

    /// Render as aligned text lines (what `repro --timings` prints).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (c, v) in self.emitted() {
            out.push_str(&format!("  {:<22} {v:>12}\n", c.name));
        }
        if !self.phases.is_empty() {
            out.push_str("phases (seconds summed over threads):\n");
            for p in &self.phases {
                out.push_str(&format!("  {:<14} {:>9.3}s\n", p.name, p.seconds));
            }
        }
        if !self.spans.is_empty() {
            out.push_str("trace spans:\n");
            for s in &self.spans {
                out.push_str(&format!(
                    "  {:<14} {:>7}x {:>9.3}s\n",
                    s.name,
                    s.count,
                    s.nanos as f64 / 1e9
                ));
            }
        }
        out
    }
}

/// The emitted counters, then `phases`, then `spans` only when
/// populated, so untraced `BENCH_*.json` files keep their historical
/// shape.
impl Serialize for TimingReport {
    fn to_content(&self) -> Content {
        let mut fields: Vec<(String, Content)> = self
            .emitted()
            .map(|(c, v)| (c.name.to_string(), Content::U64(v)))
            .collect();
        fields.push(("phases".to_string(), self.phases.to_content()));
        if !self.spans.is_empty() {
            let spans = self
                .spans
                .iter()
                .map(|s| {
                    Content::Map(vec![
                        ("name".to_string(), s.name.to_content()),
                        ("count".to_string(), s.count.to_content()),
                        ("seconds".to_string(), (s.nanos as f64 / 1e9).to_content()),
                    ])
                })
                .collect();
            fields.push(("spans".to_string(), Content::Seq(spans)));
        }
        Content::Map(fields)
    }
}

/// Open phase `name`: a trace span of that name plus, when `instrument`
/// is given, a timer whose elapsed time lands in the instrument's phase
/// of the same name when the guard drops (unwinding included).
#[must_use = "dropping immediately times an empty region"]
pub fn phase<'a>(instrument: Option<&'a Instrument>, name: &'static str) -> PhaseGuard<'a> {
    PhaseGuard {
        timer: instrument.map(|ins| (ins, Instant::now())),
        name,
        _span: trace::span(name),
    }
}

/// RAII handle of one [`phase`]. Must be dropped on the thread that
/// opened it, like the span it holds.
#[derive(Debug)]
pub struct PhaseGuard<'a> {
    timer: Option<(&'a Instrument, Instant)>,
    name: &'static str,
    _span: SpanGuard,
}

impl Drop for PhaseGuard<'_> {
    fn drop(&mut self) {
        if let Some((ins, start)) = self.timer {
            let nanos = start.elapsed().as_nanos() as u64;
            let mut phases = ins.phase_nanos.lock().unwrap_or_else(|p| p.into_inner());
            match phases.iter_mut().find(|(n, _)| *n == self.name) {
                Some(entry) => entry.1 += nanos,
                None => phases.push((self.name, nanos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{with_sink, TraceEvent, TraceSink};
    use std::sync::Arc;

    /// A report whose counter in table row `i` reads `f(i)`.
    fn report_with(f: impl Fn(usize) -> u64) -> TimingReport {
        let mut r = TimingReport::default();
        for (i, v) in r.values_mut().enumerate() {
            *v = f(i);
        }
        r
    }

    #[test]
    fn every_row_merges_emits_and_gates_per_the_table() {
        // Merge: sum rows add, max rows keep the larger value.
        let a = report_with(|i| 10 + i as u64);
        let b = report_with(|i| 3 * i as u64);
        let mut merged = a.clone();
        merged.merge(&b);
        for (i, (c, v)) in COUNTERS.iter().zip(merged.values()).enumerate() {
            let (x, y) = (10 + i as u64, 3 * i as u64);
            let want = match c.merge {
                Merge::Sum => x + y,
                Merge::Max => x.max(y),
            };
            assert_eq!(v, want, "{} ({:?})", c.name, c.merge);
        }

        // Emission: at zero only `Always` rows are written, when nonzero
        // every row is, each in table order, in JSON and text alike.
        let keys = |r: &TimingReport| -> Vec<String> {
            match r.to_content() {
                Content::Map(fields) => fields.into_iter().map(|(k, _)| k).collect(),
                other => panic!("report is not a map: {other:?}"),
            }
        };
        let always: Vec<&str> = COUNTERS
            .iter()
            .filter(|c| c.emit == Emit::Always)
            .map(|c| c.name)
            .collect();
        let all: Vec<&str> = COUNTERS.iter().map(|c| c.name).collect();
        let zero = TimingReport::default();
        assert_eq!(keys(&zero), [&always[..], &["phases"]].concat());
        assert_eq!(keys(&a), [&all[..], &["phases"]].concat());
        let text = |r: &TimingReport| -> Vec<String> {
            r.render()
                .lines()
                .map(|l| l.split_whitespace().next().unwrap_or("").to_string())
                .collect()
        };
        assert_eq!(text(&zero), always);
        assert_eq!(text(&a), all);

        // Gate: exactly the deterministic operation counts.
        let mut gated: Vec<&str> = gated_counters().collect();
        gated.sort_unstable();
        assert_eq!(
            gated,
            [
                "arena_bytes",
                "balls_built",
                "bfs_runs",
                "dag_states",
                "frontier_passes",
                "pairs_accumulated",
                "partitioner_restarts",
                "scratch_bytes",
                "spill_runs",
                "words_scanned",
            ]
        );
    }

    #[test]
    fn adders_follow_the_merge_rule() {
        let ins = Instrument::new();
        ins.add_bfs_runs(3);
        ins.add_bfs_runs(2);
        ins.record_arena_peak(700);
        ins.record_arena_peak(300);
        let r = ins.report();
        assert_eq!((r.bfs_runs, r.arena_bytes_peak), (5, 700));
    }

    #[test]
    fn phase_guard_spans_with_and_without_an_instrument_and_sums_by_name() {
        let sink = Arc::new(TraceSink::new());
        let ins = Instrument::new();
        with_sink(Some(sink.clone()), || {
            drop(phase(None, "bare"));
            let parent = crate::trace::current_parent();
            std::thread::scope(|s| {
                for _ in 0..3 {
                    s.spawn(|| {
                        with_sink(Some(sink.clone()), || {
                            crate::trace::with_parent(parent, || {
                                let _p = phase(Some(&ins), "work");
                                std::thread::sleep(std::time::Duration::from_millis(5));
                            })
                        })
                    });
                }
            });
            drop(phase(Some(&ins), "other"));
        });
        let entered = |want: &str| {
            sink.snapshot()
                .iter()
                .filter(|e| matches!(e, TraceEvent::Enter { name, .. } if *name == want))
                .count()
        };
        assert_eq!(entered("bare"), 1, "span opens without an instrument");
        assert_eq!(entered("work"), 3);
        let r = ins.report();
        let names: Vec<&str> = r.phases.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["work", "other"], "one row per name");
        // Three threads each held "work" for at least 5 ms.
        assert!(r.phases[0].seconds >= 0.015, "{:?}", r.phases[0]);
    }

    #[test]
    fn phases_and_spans_merge_by_name_and_spans_serialize_only_when_present() {
        let mut a = TimingReport::default();
        assert_eq!(a.to_content().get("spans"), None);
        let phase = |name: &str, seconds| Phase {
            name: name.to_string(),
            seconds,
        };
        let span = |name, count, nanos| SpanRollup { name, count, nanos };
        a.phases.push(phase("x", 1.0));
        a.spans.push(span("balls", 2, 1_000_000_000));
        let b = TimingReport {
            phases: vec![phase("x", 2.0), phase("y", 3.0)],
            spans: vec![span("balls", 3, 500_000_000), span("center", 1, 100)],
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.phases, [phase("x", 3.0), phase("y", 3.0)]);
        assert_eq!(
            a.spans,
            [span("balls", 5, 1_500_000_000), span("center", 1, 100)]
        );
        let Some(Content::Seq(spans)) = a.to_content().get("spans").cloned() else {
            panic!("spans missing");
        };
        assert_eq!(
            spans[0],
            Content::Map(vec![
                ("name".to_string(), Content::Str("balls".to_string())),
                ("count".to_string(), Content::U64(5)),
                ("seconds".to_string(), Content::F64(1.5)),
            ])
        );
        assert!(a.render().contains("trace spans"));
    }
}
