//! Scalar-vs-bitset kernel equivalence: the batched bitset BFS path
//! must reproduce the scalar per-center path bit-for-bit, from raw
//! distance vectors all the way up to full archived suite curves.

use crate::gen;
use crate::invariant::{Check, Suite};
use topogen_core::ctx::RunCtx;
use topogen_core::suite::{run_suite_in, SuiteParams, SuiteResult};
use topogen_core::zoo::{build, Scale, TopologySpec};
use topogen_graph::bfs;
use topogen_graph::bfs_bitset::{self, BfsStats};
use topogen_graph::NodeId;
use topogen_metrics::balls::PlainBalls;
use topogen_metrics::engine::{BallPlan, DistortionMetric, KernelPolicy, ResilienceMetric};

/// The `kernels` suite.
pub fn suite() -> Suite {
    Suite {
        name: "kernels",
        description: "bitset BFS kernels are bit-identical to the scalar per-center path",
        invariants: vec![
            Box::new(Check {
                name: "bfs-bitset-vs-scalar",
                property: "bitset bounded BFS distances, ring sizes, and multi-source \
                           ring counts equal the scalar kernels on arbitrary graphs",
                oracle: "the scalar per-center BFS kernels",
                shrink_hint: "shrink the node count, then the edge count, then the radius",
                max_cases: u32::MAX,
                run: bfs_bitset_vs_scalar,
            }),
            Box::new(Check {
                name: "ballplan-kernel-identity",
                property: "a BallPlan forced to the bitset kernels reproduces the \
                           forced-scalar curves bit-for-bit on arbitrary connected graphs, \
                           with expansion-only centers spanning one or more lane passes",
                oracle: "the same plan with KernelPolicy::Scalar",
                shrink_hint: "shrink the node count, then drop the distortion metric",
                max_cases: u32::MAX,
                run: ballplan_kernel_identity,
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
    let mut rng = gen::Lcg::new(seed);
    let n = 2 + rng.below(40);
    let g = gen::sparse_graph(n, rng.below(3 * n + 1), rng.next() as u64);
    let max_h = 1 + rng.below(8) as u32;
    let mut stats = BfsStats::default();
    for src in 0..n as NodeId {
        let scalar = bfs::distances_bounded(&g, src, max_h);
        let bitset = bfs_bitset::distances_bounded(&g, src, max_h, &mut stats);
        if scalar != bitset {
            return Err(format!(
                "n={n} h={max_h}: distances from {src} diverge: scalar {scalar:?} \
                 vs bitset {bitset:?}"
            ));
        }
    }
    // Multi-source lanes against per-source scalar ring sizes.
    let lanes: Vec<NodeId> = (0..n.min(64) as NodeId).collect();
    let rings = bfs_bitset::multi_source_ring_counts(&g, &lanes, max_h, &mut stats);
    for (lane, &src) in lanes.iter().enumerate() {
        let scalar = bfs::ring_sizes(&g, src, max_h);
        if rings[lane] != scalar {
            return Err(format!(
                "n={n} h={max_h}: ring counts for source {src} diverge: scalar \
                 {scalar:?} vs lane {:?}",
                rings[lane]
            ));
        }
    }
    Ok(())
}

fn ballplan_kernel_identity(seed: u64) -> Result<(), String> {
    let mut rng = gen::Lcg::new(seed);
    // Above 64 expansion-only centers the lane task needs a second pass.
    let n = 8 + rng.below(153);
    let g = gen::connected_graph(n, rng.below(2 * n), rng.next() as u64);
    let src = PlainBalls { graph: &g };
    // Every node is an expansion center and about a quarter are also
    // ball centers, so the multi-source lane kernel serves the rest.
    let exp_centers: Vec<NodeId> = g.nodes().collect();
    let centers: Vec<NodeId> = g.nodes().filter(|_| rng.below(4) == 0).collect();
    let res = ResilienceMetric {
        restarts: 2,
        max_ball_nodes: 1_000,
    };
    let dis = DistortionMetric {
        max_ball_nodes: 1_000,
        use_bartal: false,
        polish: false,
    };
    let run = |policy: KernelPolicy| {
        BallPlan::new(&src, 8, seed)
            .ball_centers(centers.clone())
            .expansion_centers(exp_centers.clone())
            .kernel(policy)
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
        return Err(format!("n={n}: expansion diverges between kernels"));
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
            return Err(format!("n={n}: metric curve {i} diverges between kernels"));
        }
    }
    Ok(())
}

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
        let t = build(&spec, Scale::Small, build_seed);
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
