//! The metric suite: expansion, resilience, distortion — with policy
//! variants for annotated topologies — and the resulting L/H signature.

use crate::classify::{
    classify_distortion, classify_expansion, classify_resilience, ClassifyThresholds, Signature,
};
use crate::report::TimingReport;
use crate::zoo::BuiltTopology;
use rand::rngs::StdRng;
use rand::SeedableRng;
use topogen_metrics::balls::{sample_centers, BallSource, PlainBalls, PolicyBalls};
use topogen_metrics::engine::{
    aggregate_counts, aggregate_rows, BallPlan, DistortionMetric, JobOut, ResilienceMetric,
};
use topogen_metrics::CurvePoint;

/// Sampling and budget knobs for one suite run.
#[derive(Clone, Copy, Debug)]
pub struct SuiteParams {
    /// Ball centers sampled per metric (the paper samples "a
    /// sufficiently large number of randomly chosen nodes" for big
    /// graphs).
    pub centers: usize,
    /// Sources sampled for the expansion average.
    pub expansion_sources: usize,
    /// Maximum ball radius (should exceed the diameter for full curves).
    pub max_radius: u32,
    /// Largest ball (in nodes) fed to the partitioner / distortion
    /// heuristics.
    pub max_ball_nodes: usize,
    /// Partitioner restarts.
    pub restarts: usize,
    /// Master seed.
    pub seed: u64,
    /// Centers per checkpointed batch. A batch is a checkpoint unit, so
    /// this applies only when the run context has a store: `Some(b)`
    /// then collects the engine's job list `b` jobs at a time, each
    /// batch's outputs persisted under a deterministic
    /// [`crate::cache::suite_partial_key`] before the next starts — a
    /// killed run resumes from the last completed batch. Without a
    /// store, or with `None` (the historical default), every job runs in
    /// one engine call. Results are bit-identical either way (see
    /// [`topogen_metrics::engine::JobOut`]), so this knob is *not* part
    /// of the curves cache key.
    pub batch: Option<usize>,
    /// Bootstrap resamples for 95% CIs on the classification summary
    /// statistics. `None` (default, and always at small/paper) computes
    /// no CIs; sampled tiers set `Some(200)`. Never affects the curves.
    pub bootstrap: Option<u32>,
}

impl SuiteParams {
    /// Fast settings for tests and CI (seconds per topology).
    pub fn quick() -> Self {
        SuiteParams {
            centers: 10,
            expansion_sources: 60,
            max_radius: 40,
            max_ball_nodes: 900,
            restarts: 2,
            seed: 0x51DE,
            batch: None,
            bootstrap: None,
        }
    }

    /// Thorough settings for the figure reproductions.
    pub fn thorough() -> Self {
        SuiteParams {
            centers: 32,
            expansion_sources: 400,
            max_radius: 64,
            max_ball_nodes: 2_500,
            restarts: 4,
            seed: 0x51DE,
            batch: None,
            bootstrap: None,
        }
    }
}

/// Bootstrap 95% confidence intervals `(lo, hi)` for the three summary
/// statistics the L/H classification thresholds on — resampled over
/// centers, so they quantify center-sampling noise at the sampled
/// (large/xl) tiers. Rendered as `±` half-width columns next to the
/// signature.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SuiteCis {
    /// CI of the mid-curve expansion growth rate.
    pub expansion_rate: (f64, f64),
    /// CI of the large-ball resilience peak.
    pub resilience_peak: (f64, f64),
    /// CI of the headline (largest-ball) distortion value.
    pub distortion_last: (f64, f64),
}

impl SuiteCis {
    /// Render one interval as the `±` half-width string used in table
    /// columns ("-" when the interval is degenerate or non-finite).
    pub fn pm(interval: (f64, f64)) -> String {
        let half = (interval.1 - interval.0) / 2.0;
        if half.is_finite() {
            format!("±{half:.3}")
        } else {
            "-".to_string()
        }
    }
}

/// The three curves plus the signature and the run's instrumentation.
#[derive(Clone, Debug)]
pub struct SuiteResult {
    /// E(h) per radius.
    pub expansion: Vec<f64>,
    /// R(n) curve.
    pub resilience: Vec<CurvePoint>,
    /// D(n) curve.
    pub distortion: Vec<CurvePoint>,
    /// The L/H signature under default thresholds.
    pub signature: Signature,
    /// Engine counters and phase wall times for this run.
    pub timings: TimingReport,
    /// Bootstrap 95% CIs of the classification summaries; present only
    /// when [`SuiteParams::bootstrap`] was set (sampled tiers).
    pub cis: Option<SuiteCis>,
}

/// Run the three metrics over plain shortest-path balls under `ctx`:
/// curves are served from and persisted to `ctx.store`, and the engines
/// run under the context's deadline, trace sink and kernel policy.
pub fn run_suite_in(
    ctx: &crate::ctx::RunCtx,
    t: &BuiltTopology,
    params: &SuiteParams,
) -> SuiteResult {
    let key = curves_key("plain", params)
        .hash("graph", crate::cache::graph_hash(&t.graph))
        .finish();
    with_curve_cache(ctx, key.clone(), || {
        let src = PlainBalls { graph: &t.graph };
        run_with_source(ctx, &src, t.graph.node_count(), params, &key)
    })
}

/// The store key [`run_suite_in`] caches `t`'s plain curves under —
/// exposed so resume drills (the check suite's checkpoint invariant,
/// the CI kill-and-resume job) can evict exactly the final entry and
/// force the next run to rebuild from persisted batch partials.
pub fn plain_curves_key(t: &BuiltTopology, params: &SuiteParams) -> String {
    curves_key("plain", params)
        .hash("graph", crate::cache::graph_hash(&t.graph))
        .finish()
}

/// Run the three metrics over policy-induced balls (Appendix E) under
/// `ctx`; the topology must carry annotations.
///
/// # Panics
/// Panics if `t.annotations` is `None`.
pub fn run_suite_policy_in(
    ctx: &crate::ctx::RunCtx,
    t: &BuiltTopology,
    params: &SuiteParams,
) -> SuiteResult {
    let ann = t
        .annotations
        .as_ref()
        .expect("policy suite needs an annotated topology");
    let key = curves_key("policy", params)
        .hash("graph", crate::cache::graph_hash(&t.graph))
        .hash(
            "ann",
            crate::cache::annotations_hash(ann, t.graph.edge_count()),
        )
        .finish();
    with_curve_cache(ctx, key.clone(), || {
        let src = PolicyBalls {
            graph: &t.graph,
            annotations: ann,
        };
        run_with_source(ctx, &src, t.graph.node_count(), params, &key)
    })
}

/// Run the three metrics over policy-constrained *router-level* balls
/// (Appendix E's RL(Policy) construction) under `ctx`; the topology
/// must carry the AS overlay data (`MeasuredRl` does).
///
/// # Panics
/// Panics if `t.router_as` or `t.as_overlay` is `None`.
pub fn run_suite_rl_policy_in(
    ctx: &crate::ctx::RunCtx,
    t: &BuiltTopology,
    params: &SuiteParams,
) -> SuiteResult {
    let router_as = t.router_as.as_ref().expect("RL policy needs router_as");
    let ov = t
        .as_overlay
        .as_ref()
        .expect("RL policy needs the AS overlay");
    let key = curves_key("rl-policy", params)
        .hash("graph", crate::cache::graph_hash(&t.graph))
        .hash("router_as", crate::cache::router_as_hash(router_as))
        .hash("overlay", crate::cache::graph_hash(&ov.as_graph))
        .hash(
            "overlay_ann",
            crate::cache::annotations_hash(&ov.annotations, ov.as_graph.edge_count()),
        )
        .finish();
    with_curve_cache(ctx, key.clone(), || {
        let overlay = topogen_policy::overlay::RouterOverlay::new(
            &t.graph,
            router_as,
            &ov.as_graph,
            &ov.annotations,
        );
        let src = topogen_metrics::balls::OverlayBalls { overlay };
        run_with_source(ctx, &src, t.graph.node_count(), params, &key)
    })
}

/// Common key prefix for cached metric curves: ball mode + every
/// sampling/budget knob that shapes the curves.
fn curves_key(mode: &str, params: &SuiteParams) -> topogen_store::key::KeyBuilder {
    let kb = topogen_store::key::KeyBuilder::new("metric-curves")
        .field("mode", mode)
        .u64("centers", params.centers as u64)
        .u64("expansion_sources", params.expansion_sources as u64)
        .u64("max_radius", params.max_radius as u64)
        .u64("max_ball_nodes", params.max_ball_nodes as u64)
        .u64("restarts", params.restarts as u64)
        .u64("seed", params.seed);
    // The bootstrap knob changes the cached *payload* (an extra CI
    // section) but never the curves; render it only when set so every
    // historical (small/paper) key stays byte-identical. `batch` is
    // deliberately absent: batched and one-shot runs produce the same
    // bits.
    match params.bootstrap {
        Some(b) => kb.u64("bootstrap", b as u64),
        None => kb,
    }
}

/// Serve a suite run from the context's artifact store when possible.
///
/// The cached payload is the three curves, exact to the bit; the
/// signature is reclassified from them (a pure function, so hit and
/// cold results are identical). On a hit the timing report is empty —
/// the engine never ran; the store counts its own traffic.
fn with_curve_cache(
    ctx: &crate::ctx::RunCtx,
    key: String,
    compute: impl FnOnce() -> SuiteResult,
) -> SuiteResult {
    let Some(store) = ctx.store.clone() else {
        return compute();
    };
    if let Some(bytes) = store.get(&key) {
        if let Some((expansion, resilience, distortion)) = crate::cache::decode_curves(&bytes) {
            let th = ClassifyThresholds::default();
            let signature = Signature {
                expansion: classify_expansion(&expansion, &th),
                resilience: classify_resilience(&resilience, &th),
                distortion: classify_distortion(&distortion, &th),
            };
            return SuiteResult {
                expansion,
                resilience,
                distortion,
                signature,
                timings: TimingReport::default(),
                cis: crate::cache::decode_curve_cis(&bytes),
            };
        }
    }
    let r = compute();
    let bytes =
        crate::cache::encode_curves_ci(&r.expansion, &r.resilience, &r.distortion, r.cis.as_ref());
    store.put(&key, &bytes);
    r
}

fn run_with_source<S: BallSource>(
    ctx: &crate::ctx::RunCtx,
    src: &S,
    n: usize,
    params: &SuiteParams,
    cache_key: &str,
) -> SuiteResult {
    // Sampling order (expansion sources, then ball centers) is part of
    // the seeded contract: reordering would shift every curve.
    let mut rng = StdRng::seed_from_u64(params.seed);
    let exp_sources = sample_centers(n, params.expansion_sources, &mut rng);
    let centers = sample_centers(n, params.centers, &mut rng);

    // One shared-ball plan: each center's balls are built once and feed
    // both per-ball metrics; expansion reuses them where the center
    // samples overlap.
    let res_metric = ResilienceMetric {
        restarts: params.restarts,
        max_ball_nodes: params.max_ball_nodes,
    };
    let dis_metric = DistortionMetric {
        max_ball_nodes: params.max_ball_nodes,
        use_bartal: true,
        polish: false,
    };
    // Kernel policy rides in on the context (shared by serve + batch);
    // the cap mirrors `max_ball_nodes`, above which both suite metrics
    // decline a ball — so the engine can skip constructing oversized
    // balls without changing any output bit.
    let plan = BallPlan::new(src, params.max_radius, params.seed)
        .ball_centers(centers)
        .expansion_centers(exp_sources)
        .metric(&res_metric)
        .metric(&dis_metric)
        .kernel(ctx.kernel)
        .ball_size_cap(Some(params.max_ball_nodes))
        .context(ctx.engine());

    let jobs = plan.jobs();
    let (outputs, timings) = match (ctx.store.as_deref(), params.batch) {
        // Each batch is a checkpoint: serve completed batches from the
        // store (that is the whole restart story: a killed run left
        // them behind), compute and persist the rest before moving on.
        (Some(store), Some(batch)) => {
            let chunk = batch.max(1);
            let mut outputs = Vec::with_capacity(jobs.len());
            let mut timings = TimingReport::default();
            for (i, slice) in jobs.chunks(chunk).enumerate() {
                let pkey = crate::cache::suite_partial_key(cache_key, chunk, i);
                let cached = store
                    .get(&pkey)
                    .and_then(|bytes| crate::cache::decode_suite_partial(&bytes))
                    .filter(|outs| outs.len() == slice.len());
                match cached {
                    Some(mut outs) => outputs.append(&mut outs),
                    None => {
                        let (outs, report) = plan.run_collect(slice);
                        timings.merge(&report);
                        store.put(&pkey, &crate::cache::encode_suite_partial(&outs));
                        outputs.extend(outs);
                    }
                }
            }
            (outputs, timings)
        }
        // Nothing to checkpoint: one engine call.
        _ => plan.run_collect(&jobs),
    };
    let out = plan.aggregate(&outputs, TimingReport::default());
    let expansion = out.expansion;
    let resilience = out.curves[0].clone();
    let distortion = out.curves[1].clone();

    let th = ClassifyThresholds::default();
    let signature = Signature {
        expansion: classify_expansion(&expansion, &th),
        resilience: classify_resilience(&resilience, &th),
        distortion: classify_distortion(&distortion, &th),
    };
    let cis = params.bootstrap.map(|resamples| {
        bootstrap_cis(
            &jobs,
            &outputs,
            n,
            params.max_radius as usize + 1,
            resamples,
            params.seed,
        )
    });
    SuiteResult {
        expansion,
        resilience,
        distortion,
        signature,
        timings,
        cis,
    }
}

/// Bootstrap the three classification summaries over centers: resample
/// expansion sources (for the growth rate) and ball centers (for the
/// resilience peak and distortion headline) with replacement,
/// recompute each statistic per resample through the engine's own
/// aggregation, and take the 2.5th/97.5th percentiles. Fully seeded —
/// the CIs are as deterministic as the curves themselves.
fn bootstrap_cis(
    jobs: &[(topogen_graph::NodeId, bool, bool)],
    outputs: &[JobOut],
    n: usize,
    radii: usize,
    resamples: u32,
    seed: u64,
) -> SuiteCis {
    use rand::Rng;
    let exp_idx: Vec<usize> = (0..jobs.len()).filter(|&i| jobs[i].2).collect();
    let ball_idx: Vec<usize> = (0..jobs.len()).filter(|&i| jobs[i].1).collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xB007_57A9);
    let mut resample = |idx: &[usize]| -> Vec<usize> {
        (0..idx.len())
            .map(|_| idx[rng.gen_range(0..idx.len())])
            .collect()
    };
    let mut rate = Vec::with_capacity(resamples as usize);
    let mut peak = Vec::with_capacity(resamples as usize);
    let mut last = Vec::with_capacity(resamples as usize);
    for _ in 0..resamples {
        if !exp_idx.is_empty() {
            let picks = resample(&exp_idx);
            let curve = aggregate_counts(picks.iter().map(|&j| &outputs[j]), picks.len(), n, radii);
            rate.push(topogen_metrics::expansion::expansion_growth_rate(&curve));
        }
        if !ball_idx.is_empty() {
            // Resilience is metric 0 of the plan, distortion metric 1.
            let picks = resample(&ball_idx);
            let curve_for = |mi| aggregate_rows(picks.iter().map(|&j| &outputs[j]), mi, radii);
            peak.push(crate::classify::resilience_peak(&curve_for(0)).1);
            last.push(
                crate::classify::distortion_headline(&curve_for(1))
                    .map(|(_, v)| v)
                    .unwrap_or(f64::NAN),
            );
        }
    }
    SuiteCis {
        expansion_rate: percentile_interval(&mut rate),
        resilience_peak: percentile_interval(&mut peak),
        distortion_last: percentile_interval(&mut last),
    }
}

/// Nearest-rank 2.5%/97.5% interval over finite samples; `(NaN, NaN)`
/// when nothing finite was observed.
fn percentile_interval(samples: &mut Vec<f64>) -> (f64, f64) {
    samples.retain(|v| v.is_finite());
    if samples.is_empty() {
        return (f64::NAN, f64::NAN);
    }
    samples.sort_by(f64::total_cmp);
    let b = samples.len();
    let lo = samples[((b as f64 * 0.025) as usize).min(b - 1)];
    let hi = samples[((b as f64 * 0.975).ceil() as usize)
        .saturating_sub(1)
        .min(b - 1)];
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::RunCtx;
    use crate::zoo::{build_in, Scale, TopologySpec};
    use topogen_metrics::engine::KernelPolicy;

    fn sig(spec: &TopologySpec) -> String {
        let t = build_in(&RunCtx::new(), spec, Scale::Small, 42);
        run_suite_in(&RunCtx::new(), &t, &SuiteParams::quick())
            .signature
            .to_string()
    }

    #[test]
    fn canonical_signatures_match_paper_table() {
        // §3.2.1's calibration table.
        assert_eq!(sig(&TopologySpec::Tree { k: 3, depth: 6 }), "HLL", "Tree");
        assert_eq!(sig(&TopologySpec::Mesh { side: 30 }), "LHH", "Mesh");
        assert_eq!(
            sig(&TopologySpec::Random { n: 1200, p: 0.0035 }),
            "HHH",
            "Random"
        );
        assert_eq!(sig(&TopologySpec::Linear { n: 600 }), "LLL", "Linear");
    }

    #[test]
    fn complete_graph_signature() {
        assert_eq!(sig(&TopologySpec::Complete { n: 150 }), "HHL", "Complete");
    }

    #[test]
    fn plrg_matches_internet_signature() {
        // §4.4's headline: PLRG (and the measured graphs) are HHL.
        assert_eq!(
            sig(&TopologySpec::Plrg(topogen_generators::plrg::PlrgParams {
                n: 1300,
                alpha: 2.246,
                max_degree: None
            })),
            "HHL",
            "PLRG"
        );
    }

    #[test]
    fn measured_as_is_hhl() {
        assert_eq!(sig(&TopologySpec::MeasuredAs), "HHL", "AS");
    }

    #[test]
    fn rl_policy_suite_keeps_signature() {
        // Appendix E's router-level policy construction: the RL graph
        // stays HHL under policy-constrained balls.
        let t = build_in(&RunCtx::new(), &TopologySpec::MeasuredRl, Scale::Small, 42);
        let r = run_suite_rl_policy_in(&RunCtx::new(), &t, &SuiteParams::quick());
        assert_eq!(r.signature.to_string(), "HHL");
    }

    #[test]
    fn batched_checkpointed_suite_matches_one_shot() {
        // The checkpointing contract: any batch size, with or without a
        // store, reproduces the one-shot curves bit-for-bit — and a
        // second run over the same store serves every batch from the
        // persisted partials without touching the engine.
        let t = build_in(
            &RunCtx::new(),
            &TopologySpec::Mesh { side: 14 },
            Scale::Small,
            21,
        );
        let params = SuiteParams::quick();
        let one_shot = run_suite_in(&RunCtx::new(), &t, &params);
        assert!(one_shot.cis.is_none());

        let fp = |r: &SuiteResult| {
            (
                r.expansion.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                r.resilience
                    .iter()
                    .map(|p| (p.radius, p.avg_size.to_bits(), p.value.to_bits()))
                    .collect::<Vec<_>>(),
                r.distortion
                    .iter()
                    .map(|p| (p.radius, p.avg_size.to_bits(), p.value.to_bits()))
                    .collect::<Vec<_>>(),
                r.signature.to_string(),
            )
        };

        for batch in [1usize, 3, 1000] {
            let mut p = params;
            p.batch = Some(batch);
            // No store: nothing persisted.
            let r = run_suite_in(&RunCtx::new(), &t, &p);
            assert_eq!(fp(&r), fp(&one_shot), "batch={batch}, no store");
        }

        // Without a store a batch checkpoints nothing, so the batched
        // run is the one-shot run's single engine call, down to the
        // bitset kernels' lane passes.
        let bitset = RunCtx::new().with_kernel(KernelPolicy::Bitset);
        let one_call = run_suite_in(&bitset, &t, &params);
        let mut p = params;
        p.batch = Some(4);
        p.bootstrap = Some(50);
        let batched = run_suite_in(&bitset, &t, &p);
        assert_eq!(fp(&one_call), fp(&one_shot), "bitset one-shot");
        assert_eq!(fp(&batched), fp(&one_shot), "bitset batched, no store");
        assert_eq!(
            batched.timings.frontier_passes,
            one_call.timings.frontier_passes
        );
        assert_eq!(
            batched.timings.words_scanned,
            one_call.timings.words_scanned
        );

        let dir = std::env::temp_dir().join(format!("topogen-suite-batch-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = std::sync::Arc::new(topogen_store::Store::open(&dir).unwrap());
        let ctx = RunCtx::new().with_store(store.clone());
        let mut p = params;
        p.batch = Some(4);
        p.bootstrap = Some(50);
        let cold = run_suite_in(&ctx, &t, &p);
        assert_eq!(fp(&cold), fp(&one_shot), "batched+stored");
        let cis = cold.cis.expect("bootstrap CIs at sampled settings");
        assert!(cis.expansion_rate.0 <= cis.expansion_rate.1);
        assert!(cis.resilience_peak.0 <= cis.resilience_peak.1);
        // Warm run: the final curves entry hits, CIs replay from it.
        let before = store.counters().snapshot();
        let warm = run_suite_in(&ctx, &t, &p);
        assert_eq!(fp(&warm), fp(&one_shot), "warm replay");
        assert_eq!(warm.cis, Some(cis), "CIs survive the cache round-trip");
        assert!(before.delta_to(&store.counters().snapshot()).hits >= 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sampled_suite_cis_match_across_kernels() {
        // Sampled settings on a graph larger than the ball cap: ball-only
        // centers stop their BFS at the first over-cap radius and return
        // shorter rows, and with lane passes the curves, expansion and
        // bootstrap CIs must still equal the scalar run's bit for bit.
        let t = build_in(
            &RunCtx::new(),
            &TopologySpec::Mesh { side: 24 },
            Scale::Small,
            11,
        );
        let params = SuiteParams {
            max_ball_nodes: 150,
            bootstrap: Some(50),
            ..SuiteParams::quick()
        };
        assert!(t.graph.node_count() > params.max_ball_nodes);
        let run =
            |policy: KernelPolicy| run_suite_in(&RunCtx::new().with_kernel(policy), &t, &params);
        let (scalar, bitset) = (run(KernelPolicy::Scalar), run(KernelPolicy::Bitset));
        assert!(bitset.timings.frontier_passes > 0, "bitset path not taken");
        let bits = |r: &SuiteResult| {
            let curve = |c: &[CurvePoint]| {
                c.iter()
                    .map(|p| (p.radius, p.avg_size.to_bits(), p.value.to_bits()))
                    .collect::<Vec<_>>()
            };
            let cis = r.cis.expect("bootstrap CIs at sampled settings");
            let pair = |(lo, hi): (f64, f64)| (lo.to_bits(), hi.to_bits());
            (
                r.expansion.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                curve(&r.resilience),
                curve(&r.distortion),
                [
                    pair(cis.expansion_rate),
                    pair(cis.resilience_peak),
                    pair(cis.distortion_last),
                ],
            )
        };
        assert_eq!(bits(&bitset), bits(&scalar));
    }

    #[test]
    fn partial_checkpoints_resume_without_recompute() {
        // Simulate a mid-suite kill: run with a store (partials land on
        // disk), delete only the final curves entry, then re-run. The
        // resumed run must rebuild the result purely from partial hits.
        let t = build_in(
            &RunCtx::new(),
            &TopologySpec::Mesh { side: 12 },
            Scale::Small,
            33,
        );
        let mut p = SuiteParams::quick();
        p.batch = Some(3);
        let dir = std::env::temp_dir().join(format!("topogen-suite-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = std::sync::Arc::new(topogen_store::Store::open(&dir).unwrap());
        let ctx = RunCtx::new().with_store(store.clone());
        let cold = run_suite_in(&ctx, &t, &p);
        // Drop the aggregate entry, keep the partials — the state a
        // SIGKILL between the last batch and the final put leaves.
        let key = curves_key("plain", &p)
            .hash("graph", crate::cache::graph_hash(&t.graph))
            .finish();
        store.remove(&key);
        let before = store.counters().snapshot();
        let resumed = run_suite_in(&ctx, &t, &p);
        let hits = before.delta_to(&store.counters().snapshot()).hits;
        assert!(hits >= 3, "all batches must replay: {hits}");
        // A hit counts before the partial decodes; no engine run proves
        // every batch was accepted.
        assert_eq!(resumed.timings.bfs_runs, 0, "no batch recomputed");
        for (a, b) in resumed.expansion.iter().zip(&cold.expansion) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(resumed.signature.to_string(), cold.signature.to_string());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unbatched_stored_suite_writes_only_the_curves_entry() {
        // The warm-replay shape: a store-less build, then a small-tier
        // suite run with a store and `batch: None`. Without a batch
        // there is nothing to checkpoint, bootstrap or not, so the run
        // persists its curves and no `suite-partial` entry.
        let t = build_in(
            &RunCtx::new(),
            &TopologySpec::Mesh { side: 8 },
            Scale::Small,
            5,
        );
        for bootstrap in [None, Some(20)] {
            let dir = std::env::temp_dir().join(format!(
                "topogen-suite-unbatched-{bootstrap:?}-{}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let store = std::sync::Arc::new(topogen_store::Store::open(&dir).unwrap());
            let p = SuiteParams {
                bootstrap,
                ..SuiteParams::quick()
            };
            run_suite_in(&RunCtx::new().with_store(store.clone()), &t, &p);
            let keys: Vec<Option<String>> = store.ls().into_iter().map(|e| e.key).collect();
            assert_eq!(keys, [Some(plain_curves_key(&t, &p))], "{bootstrap:?}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn policy_suite_runs_on_as() {
        let t = build_in(&RunCtx::new(), &TopologySpec::MeasuredAs, Scale::Small, 42);
        let r = run_suite_policy_in(&RunCtx::new(), &t, &SuiteParams::quick());
        // Policy routing does not change the classification (§4.4).
        assert_eq!(r.signature.to_string(), "HHL");
    }
}
