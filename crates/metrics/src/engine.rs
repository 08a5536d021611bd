//! The shared-ball metrics engine: the one path every ball-growing
//! curve (§3.2.1, and Appendix B's Figures 8 and 10) is computed on.
//!
//! Per sampled center, [`BallPlan`] grows the center **once** (a
//! [`Growth`]: the ball size at every radius), and one row loop then
//! builds each radius's ball in turn and hands it to every registered
//! [`BallMetric`] consumer, so k metrics over the same centers cost one
//! traversal + ball construction per center, not k. The loop stops at
//! the first ball over [`BallPlan::ball_size_cap`], on every kernel and
//! for every [`BallSource`]. An [`Instrument`] sink counts traversals,
//! balls built, cache hits and partitioner restarts so the sharing is
//! observable in timing reports.
//!
//! Determinism: per-center RNG seeds are derived from the plan seed and
//! the center id (SplitMix64 finalizer), work is distributed by
//! [`topogen_par::par_map_threads`] which preserves input order, and
//! aggregation walks centers in their fixed sampled order — so results
//! are bit-identical for any thread count, including one.
//!
//! Kernel selection: when the source exposes a plain graph
//! ([`BallSource::plain_graph`]), the plan decides through
//! [`select_kernel`] — an explicit heuristic over (n, density, centers
//! requested), overridable with [`BallPlan::kernel`] — whether its
//! expansion-only centers share the 64-lane passes of
//! [`topogen_graph::bfs_bitset`]. Every other center grows through its
//! source, a plain one on a [`DistScratch`] the plan lends it. The
//! decision is instrumented (a `kernel-select` trace span plus nonzero
//! `words_scanned` / `frontier_passes` counters when lanes run), and
//! lane ring counts equal the scalar ones, so every curve and expansion
//! value is bit-identical either way. The row loop and the aggregation
//! ([`aggregate_rows`], [`aggregate_counts`]) are shared.

use crate::balls::{cumulative, BallSource};
use crate::instrument::{phase, Instrument, TimingReport};
use crate::partition::min_balanced_cut;
use crate::CurvePoint;
use std::sync::Mutex;
use topogen_graph::bfs::DistScratch;
use topogen_graph::bfs_bitset::{select_kernel, BfsStats, KernelChoice, LaneScratch, MAX_LANES};
use topogen_graph::{Graph, NodeId};
use topogen_par::{par_map_threads, worker_count};

pub use topogen_graph::bfs_bitset::KernelPolicy;

/// Per-ball context handed to a [`BallMetric`]: which ball this is, a
/// deterministic seed unique to (plan seed, center, radius), and the
/// instrumentation sink.
pub struct MeasureCtx<'a> {
    /// The original-graph id of the ball's center.
    pub center: NodeId,
    /// The ball's radius.
    pub radius: u32,
    /// Deterministic seed for this (center, radius) ball, independent of
    /// scheduling and thread count.
    pub seed: u64,
    /// Counter sink (consumers report restarts etc. here).
    pub instrument: &'a Instrument,
}

/// A per-ball metric consumer registered with a [`BallPlan`].
///
/// `measure` maps one ball subgraph to a value; `None` skips the ball
/// (too small / too large), and a skipped ball contributes to neither
/// the size nor the value average of its radius.
pub trait BallMetric: Sync {
    /// Short stable name: the name of the metric's phase and trace
    /// span, and its curve's lookup key.
    fn name(&self) -> &'static str;

    /// Metric value on one ball, or `None` to skip it.
    fn measure(&self, ball: &Graph, ctx: &MeasureCtx<'_>) -> Option<f64>;
}

/// Per-job output of the measurement phase: per-metric `(size, value)`
/// rows for ball centers, expansion cumulative counts for expansion
/// centers.
///
/// Rows are indexed by radius. A NaN value is a declined ball. Under
/// [`BallPlan::ball_size_cap`] the rows end at the first radius whose
/// ball exceeds the cap, with a `(size, NaN…)` row, on every kernel and
/// source; a radius with no row counts as declined too.
/// [`aggregate_rows`] skips both alike.
///
/// A job's output depends only on the plan's seed, radius budget and the
/// job's own `(center, is_ball, is_expansion)` triple — never on which
/// other jobs ran alongside it (per-center seeds come from
/// [`mix_seed`], ring counts are exact integers on every kernel). That
/// independence is what makes batched, checkpointed suite runs
/// bit-identical to one-shot runs: collect any partition of
/// [`BallPlan::jobs`] in any number of [`BallPlan::run_collect`] calls,
/// concatenate in job order, and [`BallPlan::aggregate`] reproduces
/// [`BallPlan::run`] exactly.
pub type JobOut = (Option<Vec<(f64, Vec<f64>)>>, Option<Vec<usize>>);

/// SplitMix64 finalizer: decorrelates per-center/per-radius seeds.
fn mix_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Resilience R(n) as an engine consumer: min balanced cut per ball
/// (seeded from the ball context, restarts reported to the instrument).
pub struct ResilienceMetric {
    /// Multilevel partitioner restarts per ball.
    pub restarts: usize,
    /// Skip balls larger than this.
    pub max_ball_nodes: usize,
}

impl BallMetric for ResilienceMetric {
    fn name(&self) -> &'static str {
        "resilience"
    }

    fn measure(&self, ball: &Graph, ctx: &MeasureCtx<'_>) -> Option<f64> {
        if ball.node_count() < 2 || ball.node_count() > self.max_ball_nodes {
            return None;
        }
        ctx.instrument
            .add_partitioner_restarts(self.restarts as u64);
        min_balanced_cut(ball, self.restarts, ctx.seed).map(|c| c as f64)
    }
}

/// Distortion D(n) as an engine consumer (BFS-tree heuristics + Bartal
/// cross-check, seeded from the ball context).
pub struct DistortionMetric {
    /// Skip balls larger than this.
    pub max_ball_nodes: usize,
    /// Run the Bartal-style decomposition cross-check.
    pub use_bartal: bool,
    /// Polish candidate trees with re-parenting local search.
    pub polish: bool,
}

impl BallMetric for DistortionMetric {
    fn name(&self) -> &'static str {
        "distortion"
    }

    fn measure(&self, ball: &Graph, ctx: &MeasureCtx<'_>) -> Option<f64> {
        if ball.node_count() > self.max_ball_nodes {
            return None;
        }
        let params = crate::distortion::DistortionParams {
            max_ball_nodes: self.max_ball_nodes,
            use_bartal: self.use_bartal,
            polish: self.polish,
            seed: ctx.seed,
        };
        let (value, work) = crate::distortion::graph_distortion_counted(ball, &params);
        ctx.instrument.add_brandes_sources(work.sources);
        ctx.instrument.add_brandes_edge_visits(work.edge_visits);
        value
    }
}

/// Vertex cover growth (Appendix B, Figure 8(a–c)) as an engine consumer.
pub struct CoverMetric {
    /// Skip balls larger than this.
    pub max_ball_nodes: usize,
}

impl BallMetric for CoverMetric {
    fn name(&self) -> &'static str {
        "cover"
    }

    fn measure(&self, ball: &Graph, _ctx: &MeasureCtx<'_>) -> Option<f64> {
        if ball.node_count() > self.max_ball_nodes {
            return None;
        }
        Some(crate::cover::vertex_cover_size(ball) as f64)
    }
}

/// Biconnected-component growth (Appendix B, Figure 8(d–f)) as an
/// engine consumer.
pub struct BiconMetric {
    /// Skip balls larger than this.
    pub max_ball_nodes: usize,
}

impl BallMetric for BiconMetric {
    fn name(&self) -> &'static str {
        "bicon"
    }

    fn measure(&self, ball: &Graph, _ctx: &MeasureCtx<'_>) -> Option<f64> {
        if ball.node_count() > self.max_ball_nodes {
            return None;
        }
        Some(topogen_graph::bicon::biconnected_component_count(ball) as f64)
    }
}

/// Ball-grown clustering coefficient (Figure 10) as an engine consumer.
pub struct ClusteringMetric {
    /// Skip balls larger than this.
    pub max_ball_nodes: usize,
}

impl BallMetric for ClusteringMetric {
    fn name(&self) -> &'static str {
        "clustering"
    }

    fn measure(&self, ball: &Graph, _ctx: &MeasureCtx<'_>) -> Option<f64> {
        if ball.node_count() > self.max_ball_nodes {
            return None;
        }
        crate::clustering::graph_clustering(ball)
    }
}

/// Per-ball average path length (footnote 22) as an engine consumer.
pub struct PathLengthMetric {
    /// Skip balls larger than this.
    pub max_ball_nodes: usize,
}

impl BallMetric for PathLengthMetric {
    fn name(&self) -> &'static str {
        "path_length"
    }

    fn measure(&self, ball: &Graph, _ctx: &MeasureCtx<'_>) -> Option<f64> {
        if ball.node_count() < 2 || ball.node_count() > self.max_ball_nodes {
            return None;
        }
        let nodes: Vec<NodeId> = ball.nodes().collect();
        topogen_graph::bfs::average_path_length(ball, &nodes)
    }
}

/// Expected center→surface max flow (footnote 22) as an engine
/// consumer: the mean unit max flow from the ball's center to up to
/// `surface_samples` nodes at its maximum distance.
pub struct SurfaceFlowMetric {
    /// Skip balls larger than this.
    pub max_ball_nodes: usize,
    /// Surface nodes sampled per ball.
    pub surface_samples: usize,
}

impl BallMetric for SurfaceFlowMetric {
    fn name(&self) -> &'static str {
        "surface_flow"
    }

    fn measure(&self, ball: &Graph, _ctx: &MeasureCtx<'_>) -> Option<f64> {
        crate::extra::ball_surface_flow(ball, self.max_ball_nodes, self.surface_samples)
    }
}

/// Everything a [`BallPlan::run`] produces: one curve per registered
/// metric (same order as registration), the expansion curve (empty if
/// no expansion centers were set), and the instrumentation snapshot.
#[derive(Clone, Debug)]
pub struct PlanResult {
    /// Metric names, parallel to `curves`.
    pub names: Vec<&'static str>,
    /// One ball-growing curve per registered metric.
    pub curves: Vec<Vec<CurvePoint>>,
    /// E(h) over the expansion centers (empty when none were set).
    pub expansion: Vec<f64>,
    /// Counter + phase-timing snapshot of the run.
    pub report: TimingReport,
}

impl PlanResult {
    /// The curve of the metric registered under `name`, if any.
    pub fn curve(&self, name: &str) -> Option<&[CurvePoint]> {
        self.names
            .iter()
            .position(|&n| n == name)
            .map(|i| self.curves[i].as_slice())
    }
}

/// A configured shared-ball run: source, centers, radius budget,
/// registered consumers. Build with [`BallPlan::new`] + the builder
/// methods, then call [`BallPlan::run`].
pub struct BallPlan<'a, S: BallSource> {
    source: &'a S,
    max_radius: u32,
    seed: u64,
    threads: Option<usize>,
    ball_centers: Vec<NodeId>,
    expansion_centers: Vec<NodeId>,
    metrics: Vec<&'a dyn BallMetric>,
    ctx: Option<topogen_par::EngineCtx>,
    kernel: KernelPolicy,
    ball_size_cap: Option<usize>,
}

impl<'a, S: BallSource> BallPlan<'a, S> {
    /// A plan over `source` with ball radii `0..=max_radius` and the
    /// given master seed (per-ball seeds derive from it).
    pub fn new(source: &'a S, max_radius: u32, seed: u64) -> Self {
        BallPlan {
            source,
            max_radius,
            seed,
            threads: None,
            ball_centers: Vec::new(),
            expansion_centers: Vec::new(),
            metrics: Vec::new(),
            ctx: None,
            kernel: KernelPolicy::default(),
            ball_size_cap: None,
        }
    }

    /// Kernel policy for this plan (default [`KernelPolicy::Auto`],
    /// which consults [`select_kernel`]); forcing `Scalar`/`Bitset`
    /// pins whether expansion-only centers share lane passes. Suite runs
    /// pass their run context's policy. Ball centers grow the same way
    /// under either.
    pub fn kernel(mut self, policy: KernelPolicy) -> Self {
        self.kernel = policy;
        self
    }

    /// Skip *constructing* ball subgraphs larger than `cap` nodes. The
    /// first oversized ball gets the row every metric's decline would
    /// give it (size + NaN per metric) and the rows end there (see
    /// [`JobOut`]); a plain ball-only center also stops its BFS at that
    /// radius.
    ///
    /// Only set this when **every** registered metric returns `None` for
    /// balls larger than `cap` (the suite metrics all skip above their
    /// shared `max_ball_nodes`); otherwise the curves would change.
    pub fn ball_size_cap(mut self, cap: Option<usize>) -> Self {
        self.ball_size_cap = cap;
        self
    }

    /// Centers whose balls feed the registered metrics.
    pub fn ball_centers(mut self, centers: Vec<NodeId>) -> Self {
        self.ball_centers = centers;
        self
    }

    /// Centers for the expansion average (typically a larger sample;
    /// any overlap with ball centers is served from the shared balls).
    pub fn expansion_centers(mut self, centers: Vec<NodeId>) -> Self {
        self.expansion_centers = centers;
        self
    }

    /// Explicit worker-thread count (`None` = available parallelism).
    /// Results are identical for every setting; tests use `Some(1)`.
    pub fn threads(mut self, threads: Option<usize>) -> Self {
        self.threads = threads;
        self
    }

    /// Register a per-ball metric consumer.
    pub fn metric(mut self, m: &'a dyn BallMetric) -> Self {
        self.metrics.push(m);
        self
    }

    /// Run under an explicit engine context instead of whatever
    /// deadline/sink the calling thread's scope installed — the
    /// re-entrant path concurrent callers (one context per request)
    /// use. Without this, [`run`](Self::run) observes the caller's
    /// scope.
    pub fn context(mut self, ctx: topogen_par::EngineCtx) -> Self {
        self.ctx = Some(ctx);
        self
    }

    /// Run the plan: one growth per center, its balls shared by all
    /// metrics and its sizes by the expansion average.
    pub fn run(&self) -> PlanResult {
        let (outputs, report) = self.run_collect(&self.jobs());
        self.aggregate(&outputs, report)
    }

    /// The deduplicated, sorted job list this plan runs: one
    /// `(center, is_ball, is_expansion)` triple per distinct center.
    /// Checkpointed suites partition this list into batches and feed
    /// each through [`run_collect`](Self::run_collect).
    pub fn jobs(&self) -> Vec<(NodeId, bool, bool)> {
        self.merge_centers()
    }

    /// Measurement phase only, over an explicit job slice: returns one
    /// [`JobOut`] per job (same order) plus the instrument snapshot of
    /// just this batch. See [`JobOut`] for the batching-independence
    /// contract that makes partial collects resumable.
    pub fn run_collect(&self, jobs: &[(NodeId, bool, bool)]) -> (Vec<JobOut>, TimingReport) {
        let body = || {
            let instrument = Instrument::new();
            let outputs = self.collect_with(jobs, &instrument);
            // Phase boundary between measurement and aggregation (or
            // the next checkpoint batch).
            topogen_par::cancel::checkpoint();
            (outputs, instrument.report())
        };
        match &self.ctx {
            Some(ctx) => ctx.scope(body),
            None => body(),
        }
    }

    fn collect_with(&self, jobs: &[(NodeId, bool, bool)], instrument: &Instrument) -> Vec<JobOut> {
        // Fault site + deadline checkpoint at the phase boundary; both
        // are no-ops unless armed / a deadline is ambient.
        topogen_par::faults::inject(
            "metric",
            self.metrics.first().map_or("expansion", |m| m.name()),
        );
        topogen_par::cancel::checkpoint();
        let _plan_span = topogen_par::trace::span("ball-plan");

        // Kernel selection: lane passes need plain shortest-path balls
        // over an exposed graph; policy/overlay sources grow every
        // center through the source.
        let graph = self.source.plain_graph();
        let choice = match graph {
            Some(g) => select_kernel(self.kernel, g.node_count(), g.edge_count(), jobs.len()),
            None => KernelChoice::Scalar,
        };
        drop(topogen_par::trace::span_labeled(
            "kernel-select",
            choice.tag(),
        ));

        // One parallel map: first, when the plan picked lanes, a single
        // lane task that advances the expansion-only centers in 64-lane
        // passes, one after another; then one `run_job` task per other
        // job. All BFS scratch is allocated here, before the map, and
        // lent to the tasks — one `LaneScratch` for the lane task and
        // one `DistScratch` per worker from a pool — so worker threads
        // never allocate traversal buffers of their own. Outputs land at
        // each job's original index, so the aggregation is oblivious to
        // the kernel.
        let lane_graph = graph.filter(|_| choice == KernelChoice::Bitset);
        let laned = |&(_, is_ball, is_exp): &(NodeId, bool, bool)| {
            lane_graph.is_some() && !is_ball && is_exp
        };
        let exp_only: Vec<usize> = (0..jobs.len()).filter(|&i| laned(&jobs[i])).collect();
        // `None` is the lane task, `Some(i)` the task of job `i`.
        let tasks: Vec<Option<usize>> = (!exp_only.is_empty())
            .then_some(None)
            .into_iter()
            .chain((0..jobs.len()).filter(|&i| !laned(&jobs[i])).map(Some))
            .collect();

        let n = graph.map_or(0, Graph::node_count);
        let lane_nodes = if exp_only.is_empty() { 0 } else { n };
        let lanes = Mutex::new(LaneScratch::with_nodes(lane_nodes));
        let workers = worker_count(self.threads, tasks.len()).min(jobs.len() - exp_only.len());
        let pool = Mutex::new(
            (0..workers)
                .map(|_| DistScratch::with_nodes(n))
                .collect::<Vec<_>>(),
        );
        let task_outs = par_map_threads(&tasks, self.threads, |task| match *task {
            None => {
                let g = lane_graph.expect("the lane task runs only over a plain graph");
                let mut lanes = lanes.lock().expect("only the lane task locks it");
                self.run_lanes_bitset(g, jobs, &exp_only, &mut lanes, instrument)
            }
            Some(i) => {
                let lock = || {
                    pool.lock()
                        .expect("the pool is never locked across a panic")
                };
                // One scratch per worker: the pool only runs dry if the
                // map used more workers than `worker_count` said.
                let mut scratch = lock().pop().unwrap_or_else(|| DistScratch::with_nodes(n));
                let out = self.run_job(jobs[i], &mut scratch, instrument);
                lock().push(scratch);
                vec![(i, out)]
            }
        });

        let mut outputs: Vec<JobOut> = vec![(None, None); jobs.len()];
        for (i, out) in task_outs.into_iter().flatten() {
            outputs[i] = out;
        }
        outputs
    }

    /// Aggregation phase: fold concatenated per-job outputs (in job
    /// order — see [`Self::jobs`]) into the final [`PlanResult`], with
    /// `report` as the run's instrument snapshot. `run` =
    /// `aggregate(run_collect(jobs))`; checkpointed suites call this
    /// once after the last batch lands.
    pub fn aggregate(&self, outputs: &[JobOut], report: TimingReport) -> PlanResult {
        let radii = self.max_radius as usize + 1;
        let curves = (0..self.metrics.len())
            .map(|mi| aggregate_rows(outputs, mi, radii))
            .collect();
        let expansion = if self.expansion_centers.is_empty() {
            Vec::new()
        } else {
            aggregate_counts(
                outputs,
                self.expansion_centers.len(),
                self.source.node_count(),
                radii,
            )
        };
        PlanResult {
            names: self.metrics.iter().map(|m| m.name()).collect(),
            curves,
            expansion,
            report,
        }
    }

    /// The size cap the row loop applies (`usize::MAX` when none is set).
    fn cap(&self) -> usize {
        self.ball_size_cap.unwrap_or(usize::MAX)
    }

    /// One job outside the lane passes, for every source: grow the
    /// center once through the source, on the lent `scratch` — a ball-only
    /// center may stop at the first radius over the cap, where its rows
    /// end, while an expansion center grows to the radius budget because
    /// it needs every ball size — then run the row loop of a ball
    /// center: build each radius's ball in turn, hand it to every metric
    /// and drop it. The first ball over the cap is not built — every
    /// metric would decline it and the larger ones after it — so its row
    /// is `(size, NaN…)` and the rows end there. An expansion center's
    /// E(h) counts are its ball sizes.
    fn run_job(
        &self,
        (c, is_ball, is_exp): (NodeId, bool, bool),
        scratch: &mut DistScratch,
        instrument: &Instrument,
    ) -> JobOut {
        let _center_span = topogen_par::trace::span("center");
        let grow_phase = phase(
            Some(instrument),
            if is_ball { "balls" } else { "distances" },
        );
        let cap = self.cap();
        let limit = if is_exp { usize::MAX } else { cap };
        let mut growth = self.source.grow(c, self.max_radius, limit, scratch);
        instrument.add_bfs_runs(1);
        drop(grow_phase);
        if !is_ball {
            return (None, Some(growth.sizes));
        }
        let center_seed = mix_seed(self.seed, c as u64);
        let mut rows = Vec::new();
        for h in 0..growth.sizes.len() {
            let size = growth.sizes[h];
            if size > cap {
                rows.push((size as f64, vec![f64::NAN; self.metrics.len()]));
                break;
            }
            let (ball, _) = {
                let _build_phase = phase(Some(instrument), "balls");
                growth.ball(h as u32)
            };
            let ctx = MeasureCtx {
                center: c,
                radius: h as u32,
                seed: mix_seed(center_seed, h as u64),
                instrument,
            };
            let vals = self
                .metrics
                .iter()
                .map(|m| {
                    let _m_phase = phase(Some(instrument), m.name());
                    m.measure(&ball, &ctx).unwrap_or(f64::NAN)
                })
                .collect();
            rows.push((ball.node_count() as f64, vals));
        }
        let built = growth.sizes.iter().take_while(|&&size| size <= cap).count() as u64;
        instrument.add_balls_built(built);
        if self.metrics.len() > 1 {
            // Every consumer after the first reuses each ball.
            instrument.add_ball_cache_hits(built * (self.metrics.len() as u64 - 1));
        }
        if is_exp {
            // The ball of radius h holds exactly the nodes within h
            // hops: expansion comes free from the ball sizes.
            instrument.add_ball_cache_hits(1);
        }
        (Some(rows), is_exp.then_some(growth.sizes))
    }

    /// The lane task: the expansion-only jobs `exp_only` in 64-lane
    /// multi-source passes over one reused scratch, each pass one
    /// traversal for up to 64 centers. Returns `(job index, output)`.
    fn run_lanes_bitset(
        &self,
        g: &Graph,
        jobs: &[(NodeId, bool, bool)],
        exp_only: &[usize],
        lanes: &mut LaneScratch,
        instrument: &Instrument,
    ) -> Vec<(usize, JobOut)> {
        let mut outs = Vec::with_capacity(exp_only.len());
        for chunk in exp_only.chunks(MAX_LANES) {
            let _dist_phase = phase(Some(instrument), "distances");
            let sources: Vec<NodeId> = chunk.iter().map(|&i| jobs[i].0).collect();
            let mut stats = BfsStats::default();
            let rings = lanes.ring_counts(g, &sources, self.max_radius, &mut stats);
            instrument.add_bfs_runs(sources.len() as u64);
            instrument.add_words_scanned(stats.words_scanned);
            instrument.add_frontier_passes(stats.frontier_passes);
            for (&i, rings) in chunk.iter().zip(rings) {
                outs.push((i, (None, Some(cumulative(rings)))));
            }
        }
        outs
    }

    /// Merge the two sorted center lists into one deduplicated job list
    /// of `(center, is_ball, is_expansion)`, preserving sorted order.
    fn merge_centers(&self) -> Vec<(NodeId, bool, bool)> {
        let mut jobs = Vec::with_capacity(self.ball_centers.len() + self.expansion_centers.len());
        let (mut i, mut j) = (0, 0);
        while i < self.ball_centers.len() || j < self.expansion_centers.len() {
            let b = self.ball_centers.get(i).copied();
            let e = self.expansion_centers.get(j).copied();
            match (b, e) {
                (Some(b), Some(e)) if b == e => {
                    jobs.push((b, true, true));
                    i += 1;
                    j += 1;
                }
                (Some(b), Some(e)) if b < e => {
                    jobs.push((b, true, false));
                    i += 1;
                }
                (_, Some(e)) => {
                    jobs.push((e, false, true));
                    j += 1;
                }
                (Some(b), None) => {
                    jobs.push((b, true, false));
                    i += 1;
                }
                (None, None) => unreachable!(),
            }
        }
        jobs
    }
}

/// One metric's curve from the ball-center rows in `outputs` (metric
/// index `metric`, radii `0..radii`): per radius, the average size and
/// value over the balls the metric measured, in output order. Declined
/// balls (NaN) and radii past a center's last row contribute nothing.
/// This and [`aggregate_counts`] are the only readers of [`JobOut`]
/// rows, for [`BallPlan::aggregate`] and the suite's bootstrap
/// resamples alike.
pub fn aggregate_rows<'o>(
    outputs: impl IntoIterator<Item = &'o JobOut>,
    metric: usize,
    radii: usize,
) -> Vec<CurvePoint> {
    // (size sum, value sum, balls measured) per radius.
    let mut sums = vec![(0.0, 0.0, 0usize); radii];
    for rows in outputs.into_iter().filter_map(|(rows, _)| rows.as_ref()) {
        for ((size, vals), sum) in rows.iter().zip(&mut sums) {
            if vals[metric].is_finite() {
                sum.0 += size;
                sum.1 += vals[metric];
                sum.2 += 1;
            }
        }
    }
    sums.into_iter()
        .enumerate()
        .map(|(h, (size_sum, val_sum, n))| CurvePoint {
            radius: h as u32,
            avg_size: if n > 0 { size_sum / n as f64 } else { 0.0 },
            value: if n > 0 { val_sum / n as f64 } else { f64::NAN },
        })
        .collect()
}

/// E(h) for radii `0..radii` from the expansion counts in `outputs`:
/// the summed cumulative counts over `centers × n`.
pub fn aggregate_counts<'o>(
    outputs: impl IntoIterator<Item = &'o JobOut>,
    centers: usize,
    n: usize,
    radii: usize,
) -> Vec<f64> {
    let denom = centers as f64 * n as f64;
    let mut total = vec![0usize; radii];
    for counts in outputs
        .into_iter()
        .filter_map(|(_, counts)| counts.as_ref())
    {
        for (t, &c) in total.iter_mut().zip(counts) {
            *t += c;
        }
    }
    total.into_iter().map(|t| t as f64 / denom).collect()
}

/// One metric's curve over plain shortest-path balls around `centers`
/// (sorted): the unit tests' single-consumer plan.
#[cfg(test)]
pub(crate) fn plain_curve(
    g: &Graph,
    centers: &[NodeId],
    max_h: u32,
    seed: u64,
    metric: &dyn BallMetric,
) -> Vec<CurvePoint> {
    let src = crate::balls::PlainBalls { graph: g };
    let mut out = BallPlan::new(&src, max_h, seed)
        .ball_centers(centers.to_vec())
        .metric(metric)
        .run();
    out.curves.swap_remove(0)
}

/// E(h) over plain balls from the sorted expansion `centers`.
#[cfg(test)]
pub(crate) fn plain_expansion(g: &Graph, centers: &[NodeId], max_h: u32) -> Vec<f64> {
    let src = crate::balls::PlainBalls { graph: g };
    BallPlan::new(&src, max_h, 0)
        .expansion_centers(centers.to_vec())
        .run()
        .expansion
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balls::PlainBalls;
    use topogen_graph::Graph;

    /// Seed-independent test metric: edge count of the ball.
    struct EdgeCount;

    impl BallMetric for EdgeCount {
        fn name(&self) -> &'static str {
            "edges"
        }

        fn measure(&self, ball: &Graph, _ctx: &MeasureCtx<'_>) -> Option<f64> {
            Some(ball.edge_count() as f64)
        }
    }

    fn mesh(side: u32) -> Graph {
        let mut e = Vec::new();
        for r in 0..side {
            for c in 0..side {
                let v = r * side + c;
                if c + 1 < side {
                    e.push((v, v + 1));
                }
                if r + 1 < side {
                    e.push((v, v + side));
                }
            }
        }
        Graph::from_edges((side * side) as usize, e)
    }

    /// 1.0 on balls of at least three nodes, undefined below.
    struct OneFromThree;

    impl BallMetric for OneFromThree {
        fn name(&self) -> &'static str {
            "one"
        }

        fn measure(&self, ball: &Graph, _ctx: &MeasureCtx<'_>) -> Option<f64> {
            (ball.node_count() >= 3).then_some(1.0)
        }
    }

    fn path5() -> Graph {
        Graph::from_edges(5, (0..4).map(|i| (i, i + 1)))
    }

    #[test]
    fn curve_averages_size_and_value_per_radius() {
        // Edge count on the path graph from every center.
        let curve = plain_curve(&path5(), &[0, 1, 2, 3, 4], 1, 0, &EdgeCount);
        assert_eq!(curve.len(), 2);
        assert_eq!(curve[0].value, 0.0);
        // Radius 1 around ends: 1 edge; around middle: 2 edges → avg 8/5.
        assert!((curve[1].value - 8.0 / 5.0).abs() < 1e-12);
        assert!((curve[1].avg_size - (2.0 + 3.0 + 3.0 + 3.0 + 2.0) / 5.0).abs() < 1e-12);
    }

    #[test]
    fn curve_skips_declined_balls() {
        let curve = plain_curve(&path5(), &[0, 1, 2, 3, 4], 1, 0, &OneFromThree);
        assert!(curve[0].value.is_nan());
        assert_eq!(curve[1].value, 1.0); // only middle balls counted
    }

    #[test]
    fn expansion_served_from_shared_balls_when_centers_overlap() {
        let g = mesh(8);
        let src = PlainBalls { graph: &g };
        let centers: Vec<NodeId> = vec![0, 20, 40];
        // Expansion-only centers take the standalone distance pass.
        let standalone = plain_expansion(&g, &centers, 6);
        let em = EdgeCount;
        let out = BallPlan::new(&src, 6, 1)
            .ball_centers(centers.clone())
            .expansion_centers(centers)
            .metric(&em)
            .run();
        for (a, b) in out.expansion.iter().zip(&standalone) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // All three centers shared: no standalone distance pass at all.
        assert_eq!(out.report.bfs_runs, 3);
        assert_eq!(out.report.ball_cache_hits, 3); // one per shared center
    }

    #[test]
    fn cache_hits_count_extra_consumers() {
        let g = mesh(8);
        let src = PlainBalls { graph: &g };
        let em = EdgeCount;
        let res = ResilienceMetric {
            restarts: 1,
            max_ball_nodes: 100,
        };
        let out = BallPlan::new(&src, 4, 7)
            .ball_centers(vec![0, 36])
            .metric(&em)
            .metric(&res)
            .run();
        // 2 centers × 5 radii × (2 consumers - 1) reuses.
        assert_eq!(out.report.ball_cache_hits, 10);
        assert_eq!(out.report.balls_built, 10);
        assert_eq!(out.report.bfs_runs, 2);
        assert!(out.report.partitioner_restarts > 0);
    }

    #[test]
    fn thread_counts_bit_identical() {
        let g = mesh(8);
        let src = PlainBalls { graph: &g };
        let centers: Vec<NodeId> = (0..64).step_by(3).collect();
        let exp: Vec<NodeId> = (0..64).collect();
        let run = |threads| {
            let res = ResilienceMetric {
                restarts: 2,
                max_ball_nodes: 64,
            };
            let dis = DistortionMetric {
                max_ball_nodes: 64,
                use_bartal: true,
                polish: false,
            };
            let plan = BallPlan::new(&src, 8, 0x51DE)
                .ball_centers(centers.clone())
                .expansion_centers(exp.clone())
                .threads(Some(threads))
                .metric(&res)
                .metric(&dis);
            let out = plan.run();
            (
                out.expansion
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                out.curves
                    .iter()
                    .map(|c| {
                        c.iter()
                            .map(|p| (p.avg_size.to_bits(), p.value.to_bits()))
                            .collect::<Vec<_>>()
                    })
                    .collect::<Vec<_>>(),
            )
        };
        let one = run(1);
        for t in [2, 4, 7] {
            assert_eq!(run(t), one, "threads={t}");
        }
    }

    fn fingerprint(out: &PlanResult) -> (Vec<u64>, Vec<Vec<(u64, u64)>>) {
        (
            out.expansion.iter().map(|v| v.to_bits()).collect(),
            out.curves
                .iter()
                .map(|c| {
                    c.iter()
                        .map(|p| (p.avg_size.to_bits(), p.value.to_bits()))
                        .collect()
                })
                .collect(),
        )
    }

    #[test]
    fn bitset_kernel_bit_identical_to_scalar_any_thread_count() {
        // On the 12×12 mesh 115 expansion-only centers need two 64-lane
        // passes, which share one lane scratch while ball tasks run.
        for side in [8, 12] {
            let g = mesh(side);
            let src = PlainBalls { graph: &g };
            let nodes = side * side;
            let centers: Vec<NodeId> = (0..nodes).step_by(5).collect();
            let exp: Vec<NodeId> = (0..nodes).collect();
            let run = |policy, threads| {
                let res = ResilienceMetric {
                    restarts: 2,
                    max_ball_nodes: 40,
                };
                let dis = DistortionMetric {
                    max_ball_nodes: 40,
                    use_bartal: true,
                    polish: false,
                };
                let out = BallPlan::new(&src, 8, 0x51DE)
                    .ball_centers(centers.clone())
                    .expansion_centers(exp.clone())
                    .threads(Some(threads))
                    .kernel(policy)
                    .ball_size_cap(Some(40))
                    .metric(&res)
                    .metric(&dis)
                    .run();
                (fingerprint(&out), out.report)
            };
            let (scalar, scalar_report) = run(KernelPolicy::Scalar, 1);
            assert_eq!(
                scalar_report.words_scanned, 0,
                "the scalar path runs no lane pass"
            );
            for threads in [1, 2, 8] {
                let (bitset, report) = run(KernelPolicy::Bitset, threads);
                assert_eq!(bitset, scalar, "side={side} bitset threads={threads}");
                assert!(report.words_scanned > 0);
                assert!(report.frontier_passes > 0);
                // One traversal per center on both paths.
                assert_eq!(report.bfs_runs, scalar_report.bfs_runs);
            }
        }
    }

    #[test]
    fn bitset_cap_matches_uncapped_when_metrics_skip() {
        // The cap only skips constructing balls every metric declines:
        // capped and uncapped runs must agree bit-for-bit, on either
        // kernel.
        let g = mesh(8);
        let src = PlainBalls { graph: &g };
        let run = |policy, cap| {
            let res = ResilienceMetric {
                restarts: 1,
                max_ball_nodes: 20,
            };
            let out = BallPlan::new(&src, 10, 3)
                .ball_centers(vec![0, 27, 63])
                .expansion_centers(vec![0, 9, 33])
                .kernel(policy)
                .ball_size_cap(cap)
                .metric(&res)
                .run();
            fingerprint(&out)
        };
        for policy in [KernelPolicy::Scalar, KernelPolicy::Bitset] {
            assert_eq!(run(policy, Some(20)), run(policy, None), "{policy:?}");
        }
    }

    #[test]
    fn capped_rows_end_at_the_first_over_cap_radius() {
        // Corner 0 of the 8×8 mesh has balls of 1, 3, 6, 10, 15, …
        // nodes; under a cap of 12 its rows end at radius 4, the first
        // over the cap. Center 27 is also an expansion source, so its
        // BFS runs to the radius budget and returns every ring size.
        let g = mesh(8);
        let src = PlainBalls { graph: &g };
        let res = ResilienceMetric {
            restarts: 1,
            max_ball_nodes: 12,
        };
        let plan = |policy| {
            BallPlan::new(&src, 10, 5)
                .ball_centers(vec![0, 27])
                .expansion_centers(vec![27, 40])
                .kernel(policy)
                .ball_size_cap(Some(12))
                .metric(&res)
        };
        let bitset = plan(KernelPolicy::Bitset);
        let jobs = bitset.jobs();
        assert_eq!(
            jobs,
            [(0, true, false), (27, true, true), (40, false, true)]
        );

        let (outs, _) = bitset.run_collect(&jobs);
        let rows = outs[0].0.as_ref().expect("ball rows");
        let sizes: Vec<f64> = rows.iter().map(|(s, _)| *s).collect();
        assert_eq!(sizes, [1.0, 3.0, 6.0, 10.0, 15.0]);
        assert!(rows[4].1[0].is_nan(), "the over-cap ball is declined");
        assert!(outs[0].1.is_none());
        // The BFS stopped at radius 4, not the 10 of the radius budget.
        let mut scratch = DistScratch::new();
        bitset.run_job(jobs[0], &mut scratch, &Instrument::new());
        assert_eq!(scratch.ring_sizes(10), [1, 2, 3, 4, 5, 0, 0, 0, 0, 0, 0]);

        for (job, (_, cum)) in jobs.iter().zip(&outs).skip(1) {
            let want: Vec<usize> = topogen_graph::bfs::ring_sizes(&g, job.0, 10)
                .iter()
                .scan(0, |acc, &r| {
                    *acc += r;
                    Some(*acc)
                })
                .collect();
            assert_eq!(cum.as_deref(), Some(&want[..]), "center {}", job.0);
        }
        let rows27 = outs[1].0.as_ref().expect("ball rows");
        assert!(rows27.len() < 11 && rows27.last().unwrap().0 > 12.0);

        // The scalar kernel's rows end at the same radius, with the same
        // counts, and aggregate to the same bits.
        let scalar = plan(KernelPolicy::Scalar);
        let (scalar_outs, _) = scalar.run_collect(&jobs);
        let scalar_sizes: Vec<f64> = scalar_outs[0]
            .0
            .as_ref()
            .expect("ball rows")
            .iter()
            .map(|(s, _)| *s)
            .collect();
        assert_eq!(scalar_sizes, [1.0, 3.0, 6.0, 10.0, 15.0]);
        for (a, b) in scalar_outs.iter().zip(&outs) {
            assert_eq!(a.0.as_ref().map(Vec::len), b.0.as_ref().map(Vec::len));
            assert_eq!(a.1, b.1);
        }
        assert_eq!(
            fingerprint(&bitset.aggregate(&outs, TimingReport::default())),
            fingerprint(&scalar.aggregate(&scalar_outs, TimingReport::default()))
        );
    }

    /// Rows of a capped plan over `src`: the sizes each ball center's
    /// rows record, and the plan's `balls_built`.
    fn capped_rows<S: BallSource>(
        src: &S,
        centers: Vec<NodeId>,
        cap: usize,
    ) -> (Vec<Vec<f64>>, u64) {
        let em = EdgeCount;
        let plan = BallPlan::new(src, 10, 5)
            .ball_centers(centers)
            .ball_size_cap(Some(cap))
            .metric(&em);
        let (outs, report) = plan.run_collect(&plan.jobs());
        let sizes = outs
            .iter()
            .map(|(rows, _)| {
                rows.as_ref()
                    .expect("ball rows")
                    .iter()
                    .map(|(s, _)| *s)
                    .collect()
            })
            .collect();
        (sizes, report.balls_built)
    }

    #[test]
    fn policy_and_overlay_rows_end_at_the_first_over_cap_radius() {
        // A path 0-1-2-3-4-5 of ASes, each the provider of the next, so
        // from AS 0 every hop descends: policy balls around 0 grow like
        // plain ones, one node per radius. Under a cap of 3 the rows end
        // at radius 3, the first over the cap, and only the three balls
        // within it are built.
        let g = Graph::from_edges(6, (0..5).map(|i| (i, i + 1)));
        let providers: Vec<(NodeId, NodeId)> = (0..5).map(|i| (i, i + 1)).collect();
        let ann = topogen_policy::rel::annotations_from_pairs(&g, &providers, &[], &[]);
        let policy = crate::balls::PolicyBalls {
            graph: &g,
            annotations: &ann,
        };
        let (sizes, built) = capped_rows(&policy, vec![0], 3);
        assert_eq!(sizes, [[1.0, 2.0, 3.0, 4.0]]);
        assert_eq!(built, 3);

        // The same AS chain with two routers per AS: router 2a and 2a+1
        // belong to AS a, and each AS's second router links to the next
        // AS's first. Router balls around router 0 grow by one router
        // per radius; under a cap of 4 the rows end at radius 4.
        let routers = Graph::from_edges(12, (0..11).map(|i| (i, i + 1)));
        let router_as: Vec<NodeId> = (0..12).map(|r| r / 2).collect();
        let overlay = crate::balls::OverlayBalls {
            overlay: topogen_policy::overlay::RouterOverlay::new(&routers, &router_as, &g, &ann),
        };
        let (sizes, built) = capped_rows(&overlay, vec![0], 4);
        assert_eq!(sizes, [[1.0, 2.0, 3.0, 4.0, 5.0]]);
        assert_eq!(built, 4);
    }

    #[test]
    fn auto_policy_keeps_scalar_on_small_graphs() {
        // mesh(8) is far below the Auto threshold: the plan must run no
        // lane pass (words_scanned stays zero).
        let g = mesh(8);
        let src = PlainBalls { graph: &g };
        let em = EdgeCount;
        let out = BallPlan::new(&src, 4, 1)
            .ball_centers(vec![0, 9])
            .expansion_centers(vec![0, 5, 22])
            .kernel(KernelPolicy::Auto)
            .metric(&em)
            .run();
        assert_eq!(out.report.words_scanned, 0);
        assert_eq!(out.report.frontier_passes, 0);
    }

    #[test]
    fn curve_lookup_by_name() {
        let g = mesh(8);
        let src = PlainBalls { graph: &g };
        let em = EdgeCount;
        let out = BallPlan::new(&src, 2, 1)
            .ball_centers(vec![0])
            .metric(&em)
            .run();
        assert!(out.curve("edges").is_some());
        assert!(out.curve("nope").is_none());
    }

    #[test]
    fn phase_timings_present() {
        let g = mesh(8);
        let src = PlainBalls { graph: &g };
        let em = EdgeCount;
        let out = BallPlan::new(&src, 3, 1)
            .ball_centers(vec![0, 9])
            .expansion_centers(vec![5])
            .metric(&em)
            .run();
        let names: Vec<&str> = out.report.phases.iter().map(|p| p.name.as_str()).collect();
        assert!(names.contains(&"balls"));
        assert!(names.contains(&"distances"));
        assert!(names.contains(&"edges"));
    }
}
