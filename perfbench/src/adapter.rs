//! The benchmark's one adapter onto the topogen library.
//!
//! Every call the benchmark makes into the program goes through this
//! file, and only through explicit-context entry points:
//! [`build_in`], [`run_suite_in`], [`run_suite_policy_in`],
//! [`run_suite_rl_policy_in`] and [`hierarchy_report_timed_in`], plus
//! the public layer functions the distortion probe times. Contexts start
//! from [`RunCtx::new`]; nothing ambient is read or installed, and a
//! store is attached only when the caller asks for one (the warm-replay
//! workload). The rest of the benchmark sees plain data: curves as
//! [`Point`]s, counters as [`Counters`], spans as [`SpanRec`]s.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use topogen_bench::experiments::fig3::linkvalue_zoo;
use topogen_bench::experiments::signatures;
use topogen_bench::ExpCtx;
use topogen_core::hier::{hierarchy_report_timed_in, HierOptions};
use topogen_core::report::TimingReport;
use topogen_core::suite::{
    run_suite_in, run_suite_policy_in, run_suite_rl_policy_in, SuiteParams, SuiteResult,
};
use topogen_core::zoo::{build_in, BuiltTopology, Scale, TopologySpec};
use topogen_core::RunCtx;
use topogen_graph::apsp::betweenness_center;
use topogen_graph::tree::{distortion_of_tree, RootedTree};
use topogen_graph::{Graph, NodeId};
use topogen_metrics::balls::{sample_centers, BallSource, OverlayBalls, PlainBalls, PolicyBalls};
use topogen_metrics::distortion::{bartal_tree, graph_distortion, DistortionParams};
use topogen_metrics::engine::{BallMetric, BallPlan, MeasureCtx};
use topogen_metrics::partition::min_balanced_cut;
use topogen_par::{TraceEvent, TraceSink};
use topogen_policy::overlay::RouterOverlay;
use topogen_store::Store;

/// Environment variables that arm the program's fault injection or
/// replay a recorded check case; a benchmark run refuses both.
pub const REFUSED_ENV: [&str; 2] = ["TOPOGEN_FAULTS", "TOPOGEN_CHECK"];

/// Topology scale tier of a workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// CI-sized graphs (hundreds to a few thousand nodes).
    Small,
    /// The sampled ~170k-node tier.
    Large,
}

impl Tier {
    fn scale(self) -> Scale {
        match self {
            Tier::Small => Scale::Small,
            Tier::Large => Scale::Large,
        }
    }
}

/// A buildable topology at a fixed tier.
#[derive(Clone, Debug)]
pub struct Spec {
    spec: TopologySpec,
    tier: Tier,
}

/// The §4.4 signature table's topologies: the Figure-1 zoo plus
/// Complete, Linear and N-Level, exactly as `repro tab-signature` lists
/// them.
pub fn signature_specs() -> Vec<Spec> {
    let mut specs = TopologySpec::figure1_zoo(Scale::Small);
    specs.push(TopologySpec::Complete { n: 150 });
    specs.push(TopologySpec::Linear { n: 600 });
    specs.push(TopologySpec::NLevel(
        topogen_generators::nlevel::NLevelParams::three_level_1000(),
    ));
    small(specs)
}

/// The §5.1 hierarchy table's topologies (`linkvalue_zoo` at quick
/// settings).
pub fn hierarchy_specs(seed: u64) -> Vec<Spec> {
    small(linkvalue_zoo(&exp_ctx(Tier::Small, seed)))
}

/// The large tier's Tree, Random, Waxman, PLRG and RL.
pub fn large_specs() -> Vec<Spec> {
    TopologySpec::figure1_zoo(Scale::Large)
        .into_iter()
        .filter(|s| {
            matches!(
                s.name().as_str(),
                "Tree" | "Random" | "Waxman" | "PLRG" | "RL"
            )
        })
        .map(|spec| Spec {
            spec,
            tier: Tier::Large,
        })
        .collect()
}

/// Small stand-ins for the self-check's tiny mode: a tree, a chain and
/// the annotated AS graph (so the policy variants run too).
pub fn tiny_specs() -> Vec<Spec> {
    small(vec![
        TopologySpec::Tree { k: 3, depth: 4 },
        TopologySpec::Linear { n: 120 },
        TopologySpec::MeasuredAs,
    ])
}

fn small(specs: Vec<TopologySpec>) -> Vec<Spec> {
    specs
        .into_iter()
        .map(|spec| Spec {
            spec,
            tier: Tier::Small,
        })
        .collect()
}

fn exp_ctx(tier: Tier, seed: u64) -> ExpCtx {
    ExpCtx {
        scale: tier.scale(),
        seed,
        quick: true,
    }
}

/// The paper's expected signature for a row label, if it has one.
pub fn paper_signature(name: &str) -> Option<&'static str> {
    signatures::paper_signature(name)
}

/// The paper's expected hierarchy class for a row label, if it has one.
pub fn paper_hierarchy(name: &str) -> Option<&'static str> {
    signatures::paper_hierarchy(name)
}

/// Suite sampling parameters: `ExpCtx{tier, seed, quick}.suite_params()`.
#[derive(Clone, Copy, Debug)]
pub struct Params(SuiteParams);

impl Params {
    /// The repository's own parameters for `tier` at workload `seed`.
    pub fn for_tier(tier: Tier, seed: u64) -> Params {
        Params(exp_ctx(tier, seed).suite_params())
    }

    /// The same parameters with fewer centers (the self-check's tiny
    /// mode).
    pub fn tiny(mut self) -> Params {
        self.0.centers = self.0.centers.min(4);
        self.0.expansion_sources = self.0.expansion_sources.min(16);
        self
    }

    /// The same parameters with per-ball metrics capped at small balls:
    /// the curves keep their full radius range (NaN past the cap), but
    /// computing them costs little next to the store traffic.
    pub fn replay_budget(mut self) -> Params {
        self.0.centers = self.0.centers.min(4);
        self.0.max_ball_nodes = self.0.max_ball_nodes.min(64);
        self
    }
}

/// One built topology plus the spec and seed it came from.
pub struct Topo {
    spec: Spec,
    seed: u64,
    built: BuiltTopology,
}

impl Topo {
    /// Display name.
    pub fn name(&self) -> &str {
        &self.built.name
    }

    /// Edge count of the analysis graph.
    pub fn edges(&self) -> usize {
        self.built.graph.edge_count()
    }

    /// The spec this topology was built from.
    pub fn spec(&self) -> &Spec {
        &self.spec
    }

    /// The build seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether AS relationship annotations are present (AS(Policy) rows).
    pub fn has_policy(&self) -> bool {
        self.built.annotations.is_some()
    }

    /// Whether the router-level AS overlay is present (RL(Policy) rows).
    pub fn has_rl_policy(&self) -> bool {
        self.built.router_as.is_some() && self.built.as_overlay.is_some()
    }
}

/// Which suite entry point a row calls.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SuiteKind {
    /// Plain shortest-path balls (`run_suite_in`).
    Plain,
    /// Policy-induced AS balls (`run_suite_policy_in`).
    Policy,
    /// Policy-constrained router balls (`run_suite_rl_policy_in`).
    RlPolicy,
}

/// One point of a ball-grown curve.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Point {
    /// Ball radius.
    pub radius: u32,
    /// Average ball size at this radius.
    pub avg_size: f64,
    /// Average metric value at this radius.
    pub value: f64,
}

/// Engine and store counters of one or more calls, plus phase times
/// (the program's `TimingReport`, flattened).
#[derive(Clone, Debug, Default)]
pub struct Counters {
    /// Distance-field computations.
    pub bfs_runs: u64,
    /// Ball subgraphs constructed.
    pub balls_built: u64,
    /// Reuses of shared per-center work.
    pub ball_cache_hits: u64,
    /// Partitioner restarts.
    pub partitioner_restarts: u64,
    /// Path-DAG states visited by the link-value traversal.
    pub dag_states: u64,
    /// Pairs accumulated into traversal sets.
    pub pairs_accumulated: u64,
    /// Bytes held by traversal-set arenas (summed over calls).
    pub arena_bytes: u64,
    /// Bitset words scanned by the batched BFS kernels.
    pub words_scanned: u64,
    /// Frontier passes of the batched BFS kernels.
    pub frontier_passes: u64,
    /// Peak per-source hierarchy scratch bytes (a max).
    pub scratch_bytes: u64,
    /// Phase times in seconds, by phase name.
    pub phases: Vec<(String, f64)>,
}

impl Counters {
    fn from_report(r: &TimingReport) -> Counters {
        Counters {
            bfs_runs: r.bfs_runs,
            balls_built: r.balls_built,
            ball_cache_hits: r.ball_cache_hits,
            partitioner_restarts: r.partitioner_restarts,
            dag_states: r.dag_states,
            pairs_accumulated: r.pairs_accumulated,
            arena_bytes: r.arena_bytes,
            words_scanned: r.words_scanned,
            frontier_passes: r.frontier_passes,
            scratch_bytes: r.scratch_bytes,
            phases: r
                .phases
                .iter()
                .map(|p| (p.name.clone(), p.seconds))
                .collect(),
        }
    }

    /// Add another call's counters into these.
    pub fn merge(&mut self, o: &Counters) {
        self.bfs_runs += o.bfs_runs;
        self.balls_built += o.balls_built;
        self.ball_cache_hits += o.ball_cache_hits;
        self.partitioner_restarts += o.partitioner_restarts;
        self.dag_states += o.dag_states;
        self.pairs_accumulated += o.pairs_accumulated;
        self.arena_bytes += o.arena_bytes;
        self.words_scanned += o.words_scanned;
        self.frontier_passes += o.frontier_passes;
        self.scratch_bytes = self.scratch_bytes.max(o.scratch_bytes);
        for (name, s) in &o.phases {
            match self.phases.iter_mut().find(|(n, _)| n == name) {
                Some(mine) => mine.1 += s,
                None => self.phases.push((name.clone(), *s)),
            }
        }
    }

    /// Seconds recorded under phase `name` (0 when absent).
    pub fn phase(&self, name: &str) -> f64 {
        self.phases
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |p| p.1)
    }
}

/// What one suite call returned.
#[derive(Clone, Debug)]
pub struct SuiteOut {
    /// The three-letter L/H signature.
    pub signature: String,
    /// E(h) per radius.
    pub expansion: Vec<f64>,
    /// R(n) curve.
    pub resilience: Vec<Point>,
    /// D(n) curve.
    pub distortion: Vec<Point>,
    /// Engine counters of the call.
    pub counters: Counters,
}

fn points(c: &[topogen_metrics::CurvePoint]) -> Vec<Point> {
    c.iter()
        .map(|p| Point {
            radius: p.radius,
            avg_size: p.avg_size,
            value: p.value,
        })
        .collect()
}

impl From<SuiteResult> for SuiteOut {
    fn from(r: SuiteResult) -> SuiteOut {
        SuiteOut {
            signature: r.signature.to_string(),
            resilience: points(&r.resilience),
            distortion: points(&r.distortion),
            counters: Counters::from_report(&r.timings),
            expansion: r.expansion,
        }
    }
}

/// What one hierarchy call returned.
#[derive(Clone, Debug)]
pub struct HierOut {
    /// strict / moderate / loose.
    pub class: String,
    /// Normalized link values, sorted descending.
    pub values: Vec<f64>,
    /// Pearson correlation with min endpoint degree.
    pub degree_correlation: Option<f64>,
    /// Link-value engine counters of the call.
    pub counters: Counters,
}

/// A handle on a fresh artifact store (warm-replay only).
#[derive(Clone)]
pub struct StoreHandle(Arc<Store>);

/// Store traffic counters since the store was opened.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Lookups served.
    pub hits: u64,
    /// Lookups that found nothing usable.
    pub misses: u64,
    /// Bytes of verified entries read.
    pub bytes_read: u64,
    /// Bytes of new entries written.
    pub bytes_written: u64,
}

impl StoreStats {
    /// Traffic between two snapshots (`later - self`).
    pub fn delta_to(&self, later: &StoreStats) -> StoreStats {
        StoreStats {
            hits: later.hits - self.hits,
            misses: later.misses - self.misses,
            bytes_read: later.bytes_read - self.bytes_read,
            bytes_written: later.bytes_written - self.bytes_written,
        }
    }
}

impl StoreHandle {
    /// Open (creating) a store rooted at `dir`.
    pub fn open(dir: &Path) -> std::io::Result<StoreHandle> {
        Ok(StoreHandle(Arc::new(Store::open(dir)?)))
    }

    /// Current traffic counters.
    pub fn stats(&self) -> StoreStats {
        let c = self.0.counters().snapshot();
        StoreStats {
            hits: c.hits,
            misses: c.misses,
            bytes_read: c.bytes_read,
            bytes_written: c.bytes_written,
        }
    }
}

/// One completed span from the program's trace.
#[derive(Clone, Debug)]
pub struct SpanRec {
    /// Span id.
    pub id: u64,
    /// Enclosing span id (0 for roots).
    pub parent: u64,
    /// Span name.
    pub name: &'static str,
    /// Dynamic label, when the site attached one.
    pub label: Option<String>,
    /// Duration in seconds.
    pub seconds: f64,
}

/// Position in a session's trace; see [`Session::spans_since`].
pub struct TraceMark(Option<topogen_par::trace::Mark>);

/// An explicit run context plus the handles the benchmark reads back:
/// the trace sink (traced sessions only) and the store (warm-replay
/// only). Every call runs inside [`RunCtx::scope`], so the program's
/// store spans land in the session's own sink too.
pub struct Session {
    ctx: RunCtx,
    sink: Option<Arc<TraceSink>>,
}

impl Session {
    /// A context from [`RunCtx::new`], traced into a private sink when
    /// `trace` is set, with `store` attached when given.
    pub fn new(trace: bool, store: Option<&StoreHandle>) -> Session {
        let mut ctx = RunCtx::new();
        let sink = trace.then(|| Arc::new(TraceSink::new()));
        if let Some(s) = &sink {
            ctx = ctx.with_trace(s.clone());
        }
        if let Some(s) = store {
            ctx = ctx.with_store(s.0.clone());
        }
        Session { ctx, sink }
    }

    /// The BFS kernel policy the session's context carries.
    pub fn kernel_policy(&self) -> &'static str {
        self.ctx.kernel.tag()
    }

    /// Build `spec` at `seed` (`build_in`).
    pub fn build(&self, spec: &Spec, seed: u64) -> Topo {
        let built = self
            .ctx
            .scope(|| build_in(&self.ctx, &spec.spec, spec.tier.scale(), seed));
        Topo {
            spec: spec.clone(),
            seed,
            built,
        }
    }

    /// Run one suite entry point on `t`.
    ///
    /// # Panics
    /// Panics (inside the program) when `kind` needs annotations or an
    /// overlay that `t` lacks.
    pub fn suite(&self, t: &Topo, kind: SuiteKind, p: &Params) -> SuiteOut {
        let r = self.ctx.scope(|| match kind {
            SuiteKind::Plain => run_suite_in(&self.ctx, &t.built, &p.0),
            SuiteKind::Policy => run_suite_policy_in(&self.ctx, &t.built, &p.0),
            SuiteKind::RlPolicy => run_suite_rl_policy_in(&self.ctx, &t.built, &p.0),
        });
        r.into()
    }

    /// The §5 analysis of `t` (`hierarchy_report_timed_in`), plain or
    /// valley-free.
    pub fn hierarchy(&self, t: &Topo, policy: bool) -> HierOut {
        let opts = HierOptions {
            policy,
            ..HierOptions::default()
        };
        let (r, timings) = self
            .ctx
            .scope(|| hierarchy_report_timed_in(&self.ctx, &t.built, &opts));
        HierOut {
            class: r.class,
            values: r.values,
            degree_correlation: r.degree_correlation,
            counters: Counters::from_report(&timings),
        }
    }

    /// Current trace position (inert on untraced sessions).
    pub fn mark(&self) -> TraceMark {
        TraceMark(self.sink.as_ref().map(|s| s.mark()))
    }

    /// Spans completed since `mark`, enter and exit paired by id.
    pub fn spans_since(&self, mark: &TraceMark) -> Vec<SpanRec> {
        let (Some(sink), Some(m)) = (&self.sink, &mark.0) else {
            return Vec::new();
        };
        let (events, _) = sink.drain_since(m);
        let mut open = std::collections::HashMap::new();
        let mut out = Vec::new();
        for ev in events {
            match ev {
                TraceEvent::Enter {
                    id,
                    parent,
                    name,
                    label,
                    ..
                } => {
                    open.insert(id, (parent, name, label.map(String::from)));
                }
                TraceEvent::Exit { id, dur_ns, .. } => {
                    if let Some((parent, name, label)) = open.remove(&id) {
                        out.push(SpanRec {
                            id,
                            parent,
                            name,
                            label,
                            seconds: dur_ns as f64 / 1e9,
                        });
                    }
                }
            }
        }
        out.sort_by_key(|s| s.id);
        out
    }
}

/// Time spent hashing a topology's graph the way cache keys do
/// (`cache::graph_hash`), measured by a separate call.
pub fn time_graph_hash(t: &Topo) -> Duration {
    let start = Instant::now();
    std::hint::black_box(topogen_core::cache::graph_hash(&t.built.graph));
    start.elapsed()
}

/// Time spent decoding `t`'s stored topology entry and, for plain rows,
/// its stored curves entry — measured by separate calls on bytes
/// fetched (untimed) from `store`. `None` when an entry is missing.
pub fn time_decode(store: &StoreHandle, t: &Topo, kind: SuiteKind, p: &Params) -> Option<Duration> {
    let topo_bytes = store.0.get(&topogen_core::cache::topology_key(
        &t.spec.spec,
        t.spec.tier.scale(),
        t.seed,
    ))?;
    let curve_bytes = match kind {
        SuiteKind::Plain => Some(
            store
                .0
                .get(&topogen_core::suite::plain_curves_key(&t.built, &p.0))?,
        ),
        _ => None,
    };
    let start = Instant::now();
    std::hint::black_box(topogen_core::cache::decode_topology(
        &topo_bytes,
        &t.spec.spec,
    )?);
    if let Some(b) = &curve_bytes {
        std::hint::black_box(topogen_core::cache::decode_curves(b)?);
    }
    Some(start.elapsed())
}

/// Stage times and volumes the distortion probe measured, summed over
/// the probe's workers.
#[derive(Clone, Debug, Default)]
pub struct Stages {
    /// Balls the resilience wrapper measured (within the size cap).
    pub resilience_balls: u64,
    /// Seconds inside `min_balanced_cut`.
    pub cut_s: f64,
    /// Balls the distortion wrapper measured (within the cap, with edges).
    pub distortion_balls: u64,
    /// Σ n·m over those balls.
    pub ball_nm_sum: f64,
    /// Seconds inside separate `betweenness_center` calls.
    pub betweenness_s: f64,
    /// Seconds inside separate `RootedTree::bfs_tree` +
    /// `distortion_of_tree` calls (betweenness-center and hub roots).
    pub bfs_tree_s: f64,
    /// Seconds inside separate `bartal_tree` + `distortion_of_tree`
    /// calls (two trees per ball, as the suite draws them).
    pub bartal_s: f64,
}

/// The probe's curves (to compare with the suite's) and its stage times.
pub struct ProbeOut {
    /// R(n) curve.
    pub resilience: Vec<Point>,
    /// D(n) curve.
    pub distortion: Vec<Point>,
    /// E(h) curve.
    pub expansion: Vec<f64>,
    /// Stage times and volumes.
    pub stages: Stages,
}

#[derive(Default)]
struct Tally {
    res_balls: AtomicU64,
    cut_ns: AtomicU64,
    dis_balls: AtomicU64,
    nm: AtomicU64,
    bc_ns: AtomicU64,
    tree_ns: AtomicU64,
    bartal_ns: AtomicU64,
}

fn add_ns(a: &AtomicU64, since: Instant) {
    a.fetch_add(since.elapsed().as_nanos() as u64, Ordering::Relaxed);
}

/// Mirrors the engine's `ResilienceMetric` call for call, timing the cut.
struct ResilienceProbe<'a> {
    restarts: usize,
    max_ball_nodes: usize,
    tally: &'a Tally,
}

impl BallMetric for ResilienceProbe<'_> {
    fn name(&self) -> &'static str {
        "resilience"
    }

    fn measure(&self, ball: &Graph, ctx: &MeasureCtx<'_>) -> Option<f64> {
        if ball.node_count() < 2 || ball.node_count() > self.max_ball_nodes {
            return None;
        }
        ctx.instrument
            .add_partitioner_restarts(self.restarts as u64);
        let start = Instant::now();
        let cut = min_balanced_cut(ball, self.restarts, ctx.seed);
        add_ns(&self.tally.cut_ns, start);
        self.tally.res_balls.fetch_add(1, Ordering::Relaxed);
        cut.map(|c| c as f64)
    }
}

/// Mirrors the engine's `DistortionMetric`, then re-runs each stage of
/// `graph_distortion` separately to time it.
struct DistortionProbe<'a> {
    max_ball_nodes: usize,
    tally: &'a Tally,
}

impl BallMetric for DistortionProbe<'_> {
    fn name(&self) -> &'static str {
        "distortion"
    }

    fn measure(&self, ball: &Graph, ctx: &MeasureCtx<'_>) -> Option<f64> {
        if ball.node_count() > self.max_ball_nodes {
            return None;
        }
        let params = DistortionParams {
            max_ball_nodes: self.max_ball_nodes,
            use_bartal: true,
            polish: false,
            seed: ctx.seed,
        };
        let value = graph_distortion(ball, &params);
        if ball.edge_count() == 0 {
            return value;
        }
        let t = self.tally;
        t.dis_balls.fetch_add(1, Ordering::Relaxed);
        t.nm.fetch_add(
            (ball.node_count() * ball.edge_count()) as u64,
            Ordering::Relaxed,
        );
        let start = Instant::now();
        let center = betweenness_center(ball);
        add_ns(&t.bc_ns, start);
        let start = Instant::now();
        let hub = (0..ball.node_count() as NodeId).max_by_key(|&v| ball.degree(v));
        for root in center.into_iter().chain(hub) {
            let tree = RootedTree::bfs_tree(ball, root);
            std::hint::black_box(distortion_of_tree(ball, &tree));
        }
        add_ns(&t.tree_ns, start);
        let start = Instant::now();
        let mut rng = StdRng::seed_from_u64(params.seed);
        for _ in 0..2 {
            let tree = bartal_tree(ball, &mut rng);
            std::hint::black_box(distortion_of_tree(ball, &tree));
        }
        add_ns(&t.bartal_ns, start);
        value
    }
}

/// The distortion stage probe: a public [`BallPlan`] over the same ball
/// source, centers, seed, radius budget, kernel policy and size cap the
/// suite call of `kind` uses, with wrapper metrics that call
/// `min_balanced_cut` and `graph_distortion` exactly as the suite's do
/// and additionally time each distortion stage on every measured ball.
/// Runs untraced, so its work never mixes into the session's spans.
pub fn probe(session: &Session, t: &Topo, kind: SuiteKind, p: &Params) -> ProbeOut {
    let b = &t.built;
    match kind {
        SuiteKind::Plain => probe_with(session, &PlainBalls { graph: &b.graph }, p),
        SuiteKind::Policy => {
            let annotations = b.annotations.as_ref().expect("policy row has annotations");
            probe_with(
                session,
                &PolicyBalls {
                    graph: &b.graph,
                    annotations,
                },
                p,
            )
        }
        SuiteKind::RlPolicy => {
            let router_as = b.router_as.as_ref().expect("RL(Policy) row has router_as");
            let ov = b
                .as_overlay
                .as_ref()
                .expect("RL(Policy) row has an overlay");
            let overlay = RouterOverlay::new(&b.graph, router_as, &ov.as_graph, &ov.annotations);
            probe_with(session, &OverlayBalls { overlay }, p)
        }
    }
}

fn probe_with<S: BallSource>(session: &Session, src: &S, p: &Params) -> ProbeOut {
    let p = &p.0;
    // Same draw order as the suite: expansion sources, then centers.
    let mut rng = StdRng::seed_from_u64(p.seed);
    let exp_sources = sample_centers(src.node_count(), p.expansion_sources, &mut rng);
    let centers = sample_centers(src.node_count(), p.centers, &mut rng);
    let tally = Tally::default();
    let res = ResilienceProbe {
        restarts: p.restarts,
        max_ball_nodes: p.max_ball_nodes,
        tally: &tally,
    };
    let dis = DistortionProbe {
        max_ball_nodes: p.max_ball_nodes,
        tally: &tally,
    };
    let plan = BallPlan::new(src, p.max_radius, p.seed)
        .ball_centers(centers)
        .expansion_centers(exp_sources)
        .metric(&res)
        .metric(&dis)
        .kernel(session.ctx.kernel)
        .ball_size_cap(Some(p.max_ball_nodes))
        .context(topogen_par::EngineCtx::new());
    // Same job batching as the suite (sampled tiers collect a few jobs
    // at a time), so the probe's workers see the suite's parallelism.
    let out = match p.batch {
        None if p.bootstrap.is_none() => plan.run(),
        batch => {
            let jobs = plan.jobs();
            let chunk = batch.unwrap_or(jobs.len()).max(1);
            let mut outputs = Vec::with_capacity(jobs.len());
            for slice in jobs.chunks(chunk) {
                outputs.extend(plan.run_collect(slice).0);
            }
            plan.aggregate(&outputs, Default::default())
        }
    };
    let secs = |a: &AtomicU64| a.load(Ordering::Relaxed) as f64 / 1e9;
    ProbeOut {
        resilience: points(&out.curves[0]),
        distortion: points(&out.curves[1]),
        expansion: out.expansion,
        stages: Stages {
            resilience_balls: tally.res_balls.load(Ordering::Relaxed),
            cut_s: secs(&tally.cut_ns),
            distortion_balls: tally.dis_balls.load(Ordering::Relaxed),
            ball_nm_sum: tally.nm.load(Ordering::Relaxed) as f64,
            betweenness_s: secs(&tally.bc_ns),
            bfs_tree_s: secs(&tally.tree_ns),
            bartal_s: secs(&tally.bartal_ns),
        },
    }
}
