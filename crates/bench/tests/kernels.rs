//! End-to-end kernel-equivalence tests: the batched bitset BFS kernels
//! must produce byte-identical suite outputs to the scalar per-center
//! path at every scale — the bit-identity contract the archived JSONs
//! and the perf gate both lean on.

use proptest::prelude::*;
use topogen_bench::ExpCtx;
use topogen_check::gen::arb_graph;
use topogen_core::ctx::RunCtx;
use topogen_core::suite::{run_suite_in, SuiteResult};
use topogen_core::zoo::{build_in, Scale, TopologySpec};
use topogen_graph::NodeId;
use topogen_metrics::balls::PlainBalls;
use topogen_metrics::engine::{BallPlan, KernelPolicy, PlanResult, ResilienceMetric};

/// One metric curve as exact bit patterns: (radius, avg_size, value).
type CurveBits = Vec<(u32, u64, u64)>;

/// Bitwise fingerprint of everything an archived suite JSON contains.
fn fingerprint(r: &SuiteResult) -> (Vec<u64>, CurveBits, CurveBits, String) {
    (
        r.expansion.iter().map(|v| v.to_bits()).collect(),
        r.resilience
            .iter()
            .map(|p| (p.radius, p.avg_size.to_bits(), p.value.to_bits()))
            .collect(),
        r.distortion
            .iter()
            .map(|p| (p.radius, p.avg_size.to_bits(), p.value.to_bits()))
            .collect(),
        r.signature.to_string(),
    )
}

fn run_with(
    t: &topogen_core::zoo::BuiltTopology,
    ctx: &ExpCtx,
    policy: KernelPolicy,
) -> SuiteResult {
    let rctx = RunCtx::new().with_kernel(policy);
    run_suite_in(&rctx, t, &ctx.suite_params())
}

/// The acceptance contract of the kernel layer: at the calibration
/// scale, forcing the bitset kernels reproduces the scalar path's
/// archived curves bit-for-bit on every Figure-1 topology (seed 42).
#[test]
fn bitset_suite_matches_scalar_across_figure1_zoo_at_small() {
    let ctx = ExpCtx::default(); // small, seed 42, quick
    for spec in TopologySpec::figure1_zoo(Scale::Small) {
        let t = build_in(&RunCtx::new(), &spec, Scale::Small, ctx.seed);
        let scalar = run_with(&t, &ctx, KernelPolicy::Scalar);
        let bitset = run_with(&t, &ctx, KernelPolicy::Bitset);
        assert_eq!(
            fingerprint(&scalar),
            fingerprint(&bitset),
            "{}: bitset kernels diverged from the scalar path",
            t.name
        );
        assert_eq!(
            scalar.timings.words_scanned, 0,
            "{}: scalar path must not touch bitset counters",
            t.name
        );
        assert!(
            bitset.timings.words_scanned > 0,
            "{}: forced bitset run recorded no kernel work",
            t.name
        );
    }
}

/// The sampled-center tier: Mesh at `Scale::Large` (414 x 414 =
/// 171,396 nodes) runs the suite under Auto — which must pick the
/// bitset kernels at this size — and agree with a forced-scalar run
/// exactly. The signature is pinned so silent heuristic or budget
/// drift at the large tier shows up as a test diff, not as a quietly
/// different archive.
#[test]
fn large_scale_mesh_signature_pinned_and_kernel_identical() {
    let ctx = ExpCtx {
        scale: Scale::Large,
        seed: 42,
        quick: true,
    };
    let t = build_in(
        &RunCtx::new(),
        &TopologySpec::Mesh { side: 414 },
        Scale::Large,
        ctx.seed,
    );
    assert_eq!(t.graph.node_count(), 414 * 414);
    let auto = run_with(&t, &ctx, KernelPolicy::Auto);
    assert!(
        auto.timings.words_scanned > 0,
        "Auto must select the bitset kernels at 171k nodes"
    );
    let scalar = run_with(&t, &ctx, KernelPolicy::Scalar);
    assert_eq!(fingerprint(&auto), fingerprint(&scalar));
    // Not the paper-scale "LHH": at 171k nodes the sampled 40-hop
    // window sees only the locally-flat neighborhood, which reads as
    // high expansion. Pinned so tier drift is loud, not silent.
    assert_eq!(
        auto.signature.to_string(),
        "HHH",
        "large-tier Mesh signature"
    );
}

/// A plan result as exact bit patterns, for whole-plan comparison.
fn plan_bits(r: &PlanResult) -> (Vec<u64>, Vec<CurveBits>) {
    (
        r.expansion.iter().map(|v| v.to_bits()).collect(),
        r.curves
            .iter()
            .map(|c| {
                c.iter()
                    .map(|p| (p.radius, p.avg_size.to_bits(), p.value.to_bits()))
                    .collect()
            })
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The zoo tests above pin the forced kernels; this pins the *Auto*
    /// heuristic on arbitrary (possibly disconnected) graphs from the
    /// shared `topogen-check` generators: whatever kernel Auto picks,
    /// the curves must match the forced-scalar reference bit-for-bit.
    #[test]
    fn auto_policy_matches_forced_scalar_on_arbitrary_graphs(
        g in arb_graph(),
        seed in any::<u64>(),
    ) {
        let src = PlainBalls { graph: &g };
        let centers: Vec<NodeId> = g.nodes().collect();
        let metric = ResilienceMetric { restarts: 1, max_ball_nodes: 500 };
        let run = |policy: KernelPolicy| {
            BallPlan::new(&src, 6, seed)
                .ball_centers(centers.clone())
                .expansion_centers(centers.clone())
                .kernel(policy)
                .metric(&metric)
                .run()
        };
        prop_assert_eq!(
            plan_bits(&run(KernelPolicy::Auto)),
            plan_bits(&run(KernelPolicy::Scalar))
        );
    }
}
