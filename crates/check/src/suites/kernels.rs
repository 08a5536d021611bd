//! Kernel equivalence: the node-limited single-source BFS and the
//! 64-lane expansion passes must reproduce the scalar oracles, and a
//! plan whose expansion-only centers share lane passes must reproduce
//! the scalar per-center path bit-for-bit, from raw distance vectors
//! all the way up to full archived suite curves — and both must match a
//! small serial reference of the ball-growing methodology itself.

use crate::gen;
use crate::invariant::{Check, Suite};
use rand::rngs::StdRng;
use rand::SeedableRng;
use topogen_core::ctx::RunCtx;
use topogen_core::suite::{run_suite_in, SuiteParams, SuiteResult};
use topogen_core::zoo::{build_in, Scale, TopologySpec};
use topogen_graph::bfs::DistScratch;
use topogen_graph::bfs_bitset::{self, BfsStats, MAX_LANES};
use topogen_graph::{bfs, subgraph, Graph, NodeId, UNREACHED};
use topogen_measured::as_graph::AsTier;
use topogen_measured::{expand_to_routers, InternetAs, RouterExpansionParams};
use topogen_metrics::balls::{BallSource, OverlayBalls, PlainBalls, PolicyBalls};
use topogen_metrics::engine::{
    BallMetric, BallPlan, BiconMetric, ClusteringMetric, CoverMetric, DistortionMetric,
    KernelPolicy, MeasureCtx, ResilienceMetric,
};
use topogen_metrics::{CurvePoint, Instrument};
use topogen_policy::balls::policy_ball;
use topogen_policy::overlay::RouterOverlay;
use topogen_policy::valley::policy_shortest_path_dag;

/// The `kernels` suite.
pub fn suite() -> Suite {
    Suite {
        name: "kernels",
        description: "the node-limited and 64-lane BFS match their oracles, and lane passes \
                      leave the scalar per-center path's curves bit-identical",
        invariants: vec![
            Box::new(Check {
                name: "bfs-bitset-vs-scalar",
                property: "the single-source BFS under a reached-node limit stops after \
                           the first level whose reached set exceeds it and otherwise \
                           matches bounded BFS distances, and 64-lane ring counts for 1-64 \
                           sources equal per-source ring sizes, on sparse, dense, \
                           small-world and disconnected graphs of up to 300 nodes",
                oracle: "bfs::distances_bounded (a queue BFS with no scratch) and \
                         per-source bfs::ring_sizes",
                shrink_hint: "shrink the node count, then the edge count, then the radius",
                max_cases: u32::MAX,
                run: bfs_bitset_vs_scalar,
            }),
            Box::new(Check {
                name: "ballplan-kernel-identity",
                property: "a BallPlan forced to the bitset kernels reproduces the \
                           forced-scalar curves bit-for-bit on arbitrary connected graphs, \
                           with expansion-only centers spanning one or more lane passes \
                           and, in half the cases, a ball size cap below the node count",
                oracle: "the same plan with KernelPolicy::Scalar",
                shrink_hint: "shrink the node count, then drop the distortion metric",
                max_cases: u32::MAX,
                run: ballplan_kernel_identity,
            }),
            Box::new(Check {
                name: "ballplan-matches-reference",
                property: "a BallPlan of the Appendix-B consumers (cover, bicon, clustering) \
                           plus an edge count, with expansion centers and the consumers' \
                           size cap, matches a serial reference bit-for-bit over plain \
                           balls of arbitrary graphs, policy balls of annotated AS graphs \
                           and router balls of RL router maps over them, under forced \
                           scalar and forced bitset kernels",
                oracle: "a serial loop: every radius's ball built from scratch \
                         (subgraph::ball, policy_ball, policy_router_ball), finite values \
                         averaged per radius, one distance field per expansion center",
                shrink_hint: "shrink the node count, then drop metrics one at a time, \
                              then lower the radius, then try the plain source",
                max_cases: u32::MAX,
                run: ballplan_matches_reference,
            }),
            Box::new(Check {
                name: "zoo-archive-kernel-identity",
                property: "the full metric suite under KernelPolicy::Bitset matches the \
                           scalar run on every Figure-1 topology (everything an archived \
                           JSON contains, bit-for-bit)",
                oracle: "the forced-scalar suite run (the archived curves' producer)",
                shrink_hint: "drop topologies from the zoo, then shrink SuiteParams::quick",
                max_cases: 1,
                run: zoo_archive_kernel_identity,
            }),
        ],
    }
}

fn bfs_bitset_vs_scalar(seed: u64) -> Result<(), String> {
    bfs_bitset_case(seed).map(drop)
}

/// One `bfs-bitset-vs-scalar` case. Returns the multi-source pass's
/// counters, so that a sweep can show both lane directions ran.
fn bfs_bitset_case(seed: u64) -> Result<BfsStats, String> {
    let mut rng = gen::Lcg::new(seed);
    let g = gen::bfs_graph(rng.next() as u64);
    let n = g.node_count();
    // A radius that may stop mid-traversal, or none at all.
    let max_h = if rng.below(4) == 0 {
        u32::MAX
    } else {
        1 + rng.below(8) as u32
    };
    // 1–64 sources, duplicates allowed.
    let sources: Vec<NodeId> = (0..1 + rng.below(MAX_LANES))
        .map(|_| rng.below(n) as NodeId)
        .collect();
    let case = format!(
        "n={n} m={} h={max_h} sources={}",
        g.edge_count(),
        sources.len()
    );
    let mut scratch = DistScratch::new();
    for &src in &sources {
        let scalar = bfs::distances_bounded(&g, src, max_h);
        // A node limit ends the run after the first level whose reached
        // set exceeds it: find that level from the scalar level sizes.
        let limit = rng.below(n + 1);
        let mut levels = Vec::new();
        for &d in scalar.iter().filter(|&&d| d != UNREACHED) {
            if levels.len() <= d as usize {
                levels.resize(d as usize + 1, 0);
            }
            levels[d as usize] += 1;
        }
        let (mut stop, mut reached) = (0, levels[0]);
        while reached <= limit && stop + 1 < levels.len() {
            stop += 1;
            reached += levels[stop];
        }
        scratch.run_bounded(&g, src, max_h, limit);
        for v in g.nodes() {
            let d = scalar[v as usize];
            let want = if d as usize <= stop { d } else { UNREACHED };
            if scratch.dist(v) != want {
                return Err(format!(
                    "{case}: source {src} limit {limit}: node {v} at {} vs scalar {want}",
                    scratch.dist(v)
                ));
            }
        }
    }
    // Multi-source lanes against per-source scalar ring sizes; n hops
    // stand in for "no radius".
    let ring_h = max_h.min(n as u32);
    let mut lane_stats = BfsStats::default();
    let rings = bfs_bitset::multi_source_ring_counts(&g, &sources, ring_h, &mut lane_stats);
    for (lane, &src) in sources.iter().enumerate() {
        let scalar = bfs::ring_sizes(&g, src, ring_h);
        if rings[lane] != scalar {
            return Err(format!(
                "{case}: ring counts for source {src} diverge: scalar {scalar:?} vs lane {:?}",
                rings[lane]
            ));
        }
    }
    Ok(lane_stats)
}

fn ballplan_kernel_identity(seed: u64) -> Result<(), String> {
    let mut rng = gen::Lcg::new(seed);
    // Above 64 expansion-only centers the lane task needs a second pass.
    let n = 8 + rng.below(153);
    let g = gen::connected_graph(n, rng.below(2 * n), rng.next() as u64);
    let src = PlainBalls { graph: &g };
    // About three quarters of the nodes are expansion centers, served
    // by the multi-source lane kernel unless they are also among the
    // quarter that are ball centers; the other ball centers are
    // ball-only.
    let exp_centers: Vec<NodeId> = g.nodes().filter(|_| rng.below(4) != 0).collect();
    let centers: Vec<NodeId> = g.nodes().filter(|_| rng.below(4) == 0).collect();
    // In half the cases the metrics decline balls above a cap below the
    // node count, and the plan carries that cap: ball-only centers then
    // stop their BFS at the first over-cap radius.
    let cap = (rng.below(2) == 0).then(|| 1 + rng.below(n - 1));
    let max_ball_nodes = cap.unwrap_or(1_000);
    let res = ResilienceMetric {
        restarts: 2,
        max_ball_nodes,
    };
    let dis = DistortionMetric {
        max_ball_nodes,
        use_bartal: false,
        polish: false,
    };
    let run = |policy: KernelPolicy| {
        BallPlan::new(&src, 8, seed)
            .ball_centers(centers.clone())
            .expansion_centers(exp_centers.clone())
            .kernel(policy)
            .ball_size_cap(cap)
            .metric(&res)
            .metric(&dis)
            .run()
    };
    let scalar = run(KernelPolicy::Scalar);
    let bitset = run(KernelPolicy::Bitset);
    if scalar.expansion.len() != bitset.expansion.len()
        || scalar
            .expansion
            .iter()
            .zip(&bitset.expansion)
            .any(|(a, b)| a.to_bits() != b.to_bits())
    {
        return Err(format!(
            "n={n} cap={cap:?}: expansion diverges between kernels"
        ));
    }
    if scalar.curves.len() != bitset.curves.len() {
        return Err(format!("n={n}: curve count diverges between kernels"));
    }
    for (i, (ca, cb)) in scalar.curves.iter().zip(&bitset.curves).enumerate() {
        let same = ca.len() == cb.len()
            && ca.iter().zip(cb).all(|(x, y)| {
                x.radius == y.radius
                    && x.avg_size.to_bits() == y.avg_size.to_bits()
                    && x.value.to_bits() == y.value.to_bits()
            });
        if !same {
            return Err(format!(
                "n={n} cap={cap:?}: metric curve {i} diverges between kernels"
            ));
        }
    }
    Ok(())
}

/// Edge count of a ball, declining balls above the cap like the
/// Appendix-B consumers do (so the plan's size cap stays valid).
struct CappedEdges {
    max_ball_nodes: usize,
}

impl BallMetric for CappedEdges {
    fn name(&self) -> &'static str {
        "edges"
    }

    fn measure(&self, ball: &Graph, _ctx: &MeasureCtx<'_>) -> Option<f64> {
        (ball.node_count() <= self.max_ball_nodes).then(|| ball.edge_count() as f64)
    }
}

/// How the serial reference builds one center's ball of radius `h` and
/// one center's distance field, each from scratch under the source's
/// path notion.
struct Reference<'r> {
    ball: &'r dyn Fn(NodeId, u32) -> Graph,
    distances: &'r dyn Fn(NodeId) -> Vec<u32>,
}

/// The ball-growing methodology as one serial loop, independent of the
/// engine's job merging, growth, kernels, scratch reuse and size cap:
/// per ball center (in order) every ball built from scratch, each
/// metric's finite values averaged per radius together with their ball
/// sizes; E(h) from one distance field per expansion center. The
/// metrics must ignore the per-ball seed (the Appendix-B consumers do).
fn reference_plan(
    reference: &Reference<'_>,
    n: usize,
    ball_centers: &[NodeId],
    exp_centers: &[NodeId],
    max_h: u32,
    metrics: &[&dyn BallMetric],
) -> (Vec<Vec<CurvePoint>>, Vec<f64>) {
    let instrument = Instrument::new();
    let radii = max_h as usize + 1;
    // rows[center][h] = (ball size, one value per metric; NaN = declined)
    let rows: Vec<Vec<(f64, Vec<f64>)>> = ball_centers
        .iter()
        .map(|&c| {
            (0..=max_h)
                .map(|h| {
                    let ball = (reference.ball)(c, h);
                    let ctx = MeasureCtx {
                        center: c,
                        radius: h,
                        seed: 0,
                        instrument: &instrument,
                    };
                    let vals = metrics
                        .iter()
                        .map(|m| m.measure(&ball, &ctx).unwrap_or(f64::NAN))
                        .collect();
                    (ball.node_count() as f64, vals)
                })
                .collect()
        })
        .collect();
    let curves = (0..metrics.len())
        .map(|mi| {
            (0..radii)
                .map(|h| {
                    let (mut size_sum, mut val_sum, mut n) = (0.0, 0.0, 0usize);
                    for row in &rows {
                        let (size, vals) = &row[h];
                        if vals[mi].is_finite() {
                            size_sum += size;
                            val_sum += vals[mi];
                            n += 1;
                        }
                    }
                    CurvePoint {
                        radius: h as u32,
                        avg_size: if n > 0 { size_sum / n as f64 } else { 0.0 },
                        value: if n > 0 { val_sum / n as f64 } else { f64::NAN },
                    }
                })
                .collect()
        })
        .collect();
    let mut expansion = Vec::new();
    if !exp_centers.is_empty() {
        let mut total = vec![0usize; radii];
        for &c in exp_centers {
            for d in (reference.distances)(c) {
                if d != UNREACHED && d <= max_h {
                    for t in &mut total[d as usize..] {
                        *t += 1;
                    }
                }
            }
        }
        let denom = exp_centers.len() as f64 * n as f64;
        expansion = total.iter().map(|&t| t as f64 / denom).collect();
    }
    (curves, expansion)
}

fn ballplan_matches_reference(seed: u64) -> Result<(), String> {
    let mut rng = gen::Lcg::new(seed);
    let n = 2 + rng.below(120);
    let max_h = 1 + rng.below(8) as u32;
    let graph_seed = rng.next() as u64;
    match rng.below(3) {
        0 => {
            let g = gen::sparse_graph(n, rng.below(3 * n + 1), graph_seed);
            let reference = Reference {
                ball: &|c, h| subgraph::ball(&g, c, h).0,
                distances: &|c| bfs::distances(&g, c),
            };
            let src = PlainBalls { graph: &g };
            plan_matches_reference(&src, "plain", &reference, max_h, &mut rng, seed)
        }
        1 => {
            let (g, ann) = gen::annotated_graph(n, rng.below(2 * n), graph_seed);
            let reference = Reference {
                ball: &|c, h| policy_ball(&g, &ann, c, h).0,
                distances: &|c| policy_shortest_path_dag(&g, &ann, c).node_dist,
            };
            let src = PolicyBalls {
                graph: &g,
                annotations: &ann,
            };
            plan_matches_reference(&src, "policy", &reference, max_h, &mut rng, seed)
        }
        _ => {
            // The RL generator's router map (core rings, access routers,
            // border links) over an annotated AS graph, 1–4 routers per AS.
            let (graph, annotations) =
                gen::annotated_graph(1 + n / 4, rng.below(n / 4 + 1), graph_seed);
            let tiers = vec![AsTier::Stub; graph.node_count()];
            let m = InternetAs {
                graph,
                annotations,
                tiers,
            };
            let per_as = RouterExpansionParams {
                routers_per_degree: 1.0,
                min_routers: 1,
                max_routers: 4,
            };
            let rl = expand_to_routers(&m, &per_as, &mut StdRng::seed_from_u64(rng.next() as u64));
            let src = OverlayBalls {
                overlay: RouterOverlay::new(&rl.graph, &rl.router_as, &m.graph, &m.annotations),
            };
            let reference = Reference {
                ball: &|c, h| src.overlay.policy_router_ball(c, h).0,
                distances: &|c| src.overlay.policy_router_distances(c),
            };
            plan_matches_reference(&src, "overlay", &reference, max_h, &mut rng, seed)
        }
    }
}

/// One `ballplan-matches-reference` case over a drawn source: the
/// Appendix-B consumers plus a capped edge count, with ball centers,
/// expansion centers and the size cap drawn from `rng`, under forced
/// scalar and forced bitset kernels (policy sources grow the same way
/// under both).
fn plan_matches_reference<S: BallSource>(
    src: &S,
    kind: &str,
    reference: &Reference<'_>,
    max_h: u32,
    rng: &mut gen::Lcg,
    seed: u64,
) -> Result<(), String> {
    let n = src.node_count();
    let cap = 1 + rng.below(n);
    let ball_centers: Vec<NodeId> = (0..n as NodeId).filter(|_| rng.below(3) == 0).collect();
    let exp_centers: Vec<NodeId> = (0..n as NodeId).filter(|_| rng.below(2) == 0).collect();
    let cover = CoverMetric {
        max_ball_nodes: cap,
    };
    let bicon = BiconMetric {
        max_ball_nodes: cap,
    };
    let clustering = ClusteringMetric {
        max_ball_nodes: cap,
    };
    let edges = CappedEdges {
        max_ball_nodes: cap,
    };
    let metrics: [&dyn BallMetric; 4] = [&cover, &bicon, &clustering, &edges];
    let (want_curves, want_expansion) =
        reference_plan(reference, n, &ball_centers, &exp_centers, max_h, &metrics);
    let case = format!(
        "{kind} n={n} h={max_h} cap={cap} ball centers={} expansion centers={}",
        ball_centers.len(),
        exp_centers.len()
    );
    for policy in [KernelPolicy::Scalar, KernelPolicy::Bitset] {
        let plan = metrics.iter().fold(
            BallPlan::new(src, max_h, seed)
                .ball_centers(ball_centers.clone())
                .expansion_centers(exp_centers.clone())
                .kernel(policy)
                .ball_size_cap(Some(cap)),
            |plan, &m| plan.metric(m),
        );
        let out = plan.run();
        let bits = |e: &[f64]| e.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        if bits(&out.expansion) != bits(&want_expansion) {
            return Err(format!(
                "{case} kernel={}: expansion {:?} vs reference {:?}",
                policy.tag(),
                out.expansion,
                want_expansion
            ));
        }
        for ((got, want), m) in out.curves.iter().zip(&want_curves).zip(metrics) {
            if curve_bits(got) != curve_bits(want) {
                return Err(format!(
                    "{case} kernel={}: {} curve {got:?} vs reference {want:?}",
                    policy.tag(),
                    m.name()
                ));
            }
        }
    }
    Ok(())
}

/// One metric curve as exact bit patterns: (radius, avg_size, value).
type CurveBits = Vec<(u32, u64, u64)>;

fn curve_bits(curve: &[CurvePoint]) -> CurveBits {
    curve
        .iter()
        .map(|p| (p.radius, p.avg_size.to_bits(), p.value.to_bits()))
        .collect()
}

/// Bitwise fingerprint of everything an archived suite JSON contains.
fn fingerprint(r: &SuiteResult) -> (Vec<u64>, CurveBits, CurveBits, String) {
    (
        r.expansion.iter().map(|v| v.to_bits()).collect(),
        curve_bits(&r.resilience),
        curve_bits(&r.distortion),
        r.signature.to_string(),
    )
}

fn zoo_archive_kernel_identity(_seed: u64) -> Result<(), String> {
    // The archives are produced at seed 42: this is exactly the claim
    // the CI byte-diff of forced-scalar vs forced-bitset archives used
    // to make, as one registered invariant. The build seed is pinned to
    // the archival seed; arbitrary-seed coverage lives in
    // `ballplan-kernel-identity`.
    let build_seed = 42;
    let params = SuiteParams::quick();
    let mut zoo = TopologySpec::figure1_zoo(Scale::Small);
    // The full-zoo sweep is the release-mode (CI) claim; debug builds
    // are an order of magnitude slower on the metric suite, so they
    // spot-check a canonical/degree-based/measured subset to keep
    // `cargo test` responsive.
    if cfg!(debug_assertions) {
        let keep = [0usize, 2, 6, 7]; // Tree, Random, PLRG, AS
        let mut i = 0;
        zoo.retain(|_| {
            let k = keep.contains(&i);
            i += 1;
            k
        });
    }
    for spec in zoo {
        let t = build_in(&RunCtx::new(), &spec, Scale::Small, build_seed);
        let run =
            |policy: KernelPolicy| run_suite_in(&RunCtx::new().with_kernel(policy), &t, &params);
        let scalar = run(KernelPolicy::Scalar);
        let bitset = run(KernelPolicy::Bitset);
        if fingerprint(&scalar) != fingerprint(&bitset) {
            return Err(format!(
                "{} (build seed {build_seed}): bitset suite diverged from the \
                 scalar path",
                t.name
            ));
        }
        if scalar.timings.words_scanned != 0 {
            return Err(format!(
                "{}: scalar path touched the bitset counters",
                t.name
            ));
        }
        if bitset.timings.words_scanned == 0 {
            return Err(format!(
                "{}: forced bitset run recorded no kernel work",
                t.name
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bfs_cases_run_both_lane_directions() {
        // Across a sweep the multi-source passes must take both
        // directions, and some single pass must mix them.
        let (mut total, mut mixed) = (BfsStats::default(), 0);
        for seed in 0..48 {
            let stats = bfs_bitset_case(seed).expect("green case");
            mixed +=
                usize::from(0 < stats.pull_passes && stats.pull_passes < stats.frontier_passes);
            total.merge(&stats);
        }
        assert!(total.pull_passes > 0, "no level ran bottom-up");
        assert!(
            total.pull_passes < total.frontier_passes,
            "no level ran top-down"
        );
        assert!(mixed > 0, "no pass mixed the two directions");
    }
}
