//! Thread-count bit-identity: the engines must produce the same bits
//! at 1, 2, and 8 worker threads — the determinism contract behind
//! every archived JSON and every cached curve — and Waxman's split pair
//! loop must draw exactly what the serial loop it replaced drew.

use crate::gen;
use crate::invariant::{Check, Suite};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use topogen_generators::waxman::{waxman_with_points_threads, WaxmanParams};
use topogen_graph::geometry::Point;
use topogen_graph::{Graph, GraphBuilder, NodeId};
use topogen_metrics::balls::PlainBalls;
use topogen_metrics::engine::{BallPlan, DistortionMetric, ResilienceMetric};
use topogen_metrics::CurvePoint;

/// The `threads` suite.
pub fn suite() -> Suite {
    Suite {
        name: "threads",
        description: "engine outputs are bit-identical at 1, 2, and 8 worker threads, \
                      and a split Waxman pair loop draws what the serial one did",
        invariants: vec![
            Box::new(Check {
                name: "ballplan-thread-identity",
                property: "a BallPlan's expansion and metric curves are bit-identical \
                           at 1, 2, and 8 threads",
                oracle: "the 1-thread run of the same plan",
                shrink_hint: "shrink the node count, then drop extra edges, then metrics",
                max_cases: u32::MAX,
                run: ballplan_thread_identity,
            }),
            Box::new(Check {
                name: "hier-thread-identity",
                property: "link_values_threads returns bit-identical values at 1, 2, \
                           and 8 threads",
                oracle: "the 1-thread run on the same graph",
                shrink_hint: "shrink the node count, then the extra-edge count",
                max_cases: u32::MAX,
                run: hier_thread_identity,
            }),
            Box::new(Check {
                name: "waxman-thread-identity",
                property: "waxman_with_points split into 1, 2, 3 and 8 row chunks returns \
                           the same points and edges as the serial pair loop, and leaves \
                           the caller's generator at the same next draw, for 2–300 nodes \
                           and α in (0, 1] (1 and 1e-9 included); the 1-, 2- and 3-chunk \
                           splits run on the calling thread, the 8-chunk split on up to 8 workers",
                oracle: "the serial pair loop it replaced, kept verbatim",
                shrink_hint: "shrink the node count, then try α = 1",
                max_cases: u32::MAX,
                run: waxman_thread_identity,
            }),
        ],
    }
}

fn same_bits(a: &[CurvePoint], b: &[CurvePoint]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.radius == y.radius
                && x.avg_size.to_bits() == y.avg_size.to_bits()
                && x.value.to_bits() == y.value.to_bits()
        })
}

fn ballplan_thread_identity(seed: u64) -> Result<(), String> {
    let mut rng = gen::Lcg::new(seed);
    let n = 8 + rng.below(40);
    let g = gen::connected_graph(n, n / 2 + rng.below(n), rng.next() as u64);
    let src = PlainBalls { graph: &g };
    let ball_centers: Vec<NodeId> = g.nodes().step_by(2).collect();
    let exp_centers: Vec<NodeId> = g.nodes().collect();
    let res = ResilienceMetric {
        restarts: 2,
        max_ball_nodes: 1_000,
    };
    let dis = DistortionMetric {
        max_ball_nodes: 1_000,
        use_bartal: false,
        polish: false,
    };
    let run = |threads: usize| {
        BallPlan::new(&src, 6, seed)
            .ball_centers(ball_centers.clone())
            .expansion_centers(exp_centers.clone())
            .threads(Some(threads))
            .metric(&res)
            .metric(&dis)
            .run()
    };
    let one = run(1);
    for threads in [2usize, 8] {
        let many = run(threads);
        for (i, (ca, cb)) in one.curves.iter().zip(&many.curves).enumerate() {
            if !same_bits(ca, cb) {
                return Err(format!(
                    "n={n}: curve {i} differs between 1 and {threads} threads"
                ));
            }
        }
        if one.curves.len() != many.curves.len() {
            return Err(format!("n={n}: curve count differs at {threads} threads"));
        }
        if one
            .expansion
            .iter()
            .zip(&many.expansion)
            .any(|(a, b)| a.to_bits() != b.to_bits())
            || one.expansion.len() != many.expansion.len()
        {
            return Err(format!(
                "n={n}: expansion differs between 1 and {threads} threads"
            ));
        }
    }
    Ok(())
}

fn hier_thread_identity(seed: u64) -> Result<(), String> {
    let mut rng = gen::Lcg::new(seed);
    let n = 6 + rng.below(26);
    let g = gen::connected_graph(n, rng.below(n + 1), rng.next() as u64);
    let mode = topogen_hierarchy::PathMode::Shortest;
    let one = topogen_hierarchy::link_values_threads(&g, &mode, Some(1), None);
    for threads in [2usize, 8] {
        let many = topogen_hierarchy::link_values_threads(&g, &mode, Some(threads), None);
        if one.len() != many.len() {
            return Err(format!("n={n}: value count differs at {threads} threads"));
        }
        for (i, (a, b)) in one.iter().zip(&many).enumerate() {
            if a.to_bits() != b.to_bits() {
                return Err(format!(
                    "n={n}: link {i} differs at {threads} threads: {a} vs {b}"
                ));
            }
        }
    }
    Ok(())
}

/// The Waxman generator before its pair loop split, verbatim: one
/// serial loop, one `gen::<f64>()` per pair.
fn waxman_ref<R: Rng>(params: &WaxmanParams, rng: &mut R) -> (Graph, Vec<Point>) {
    let WaxmanParams { n, alpha, beta } = *params;
    assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
    assert!(beta > 0.0, "beta must be positive");
    let points: Vec<Point> = (0..n)
        .map(|_| Point::new(rng.gen::<f64>(), rng.gen::<f64>()))
        .collect();
    let l = 2f64.sqrt(); // max distance in the unit square
    let mut b = GraphBuilder::new(n);
    for i in 0..n {
        for j in (i + 1)..n {
            // One uniform draw per pair, as always. The link probability
            // `α·exp(−d/βL)` is at most α: the exponent is ≤ 0, so `exp`
            // returns at most 1, and rounding the product is monotone. A
            // draw ≥ α therefore rejects the pair without its distance or
            // its `exp`, and every decision is the one the full test makes.
            let x = rng.gen::<f64>();
            if x < alpha && x < alpha * (-points[i].dist(&points[j]) / (beta * l)).exp() {
                b.add_edge(i as NodeId, j as NodeId);
            }
        }
    }
    (b.build(), points)
}

fn waxman_thread_identity(seed: u64) -> Result<(), String> {
    let mut rng = gen::Lcg::new(seed);
    let n = 2 + rng.below(299);
    let unit = |r: &mut gen::Lcg| (1 + r.below(1 << 30)) as f64 / (1u64 << 30) as f64;
    let alpha = match rng.below(4) {
        0 => 1.0,
        1 => 1e-9,
        2 => unit(&mut rng),
        _ => 1e-6f64.powf(unit(&mut rng)),
    };
    let p = WaxmanParams {
        n,
        alpha,
        beta: unit(&mut rng),
    };
    let mut want_rng = StdRng::seed_from_u64(seed);
    let (want, want_points) = waxman_ref(&p, &mut want_rng);
    let want_next = want_rng.next_u64();
    for chunks in [1usize, 2, 3, 8] {
        let mut got_rng = StdRng::seed_from_u64(seed);
        let (got, points) = waxman_with_points_threads(&p, &mut got_rng, Some(chunks));
        let same_points = points.len() == want_points.len()
            && points
                .iter()
                .zip(&want_points)
                .all(|(a, b)| a.x.to_bits() == b.x.to_bits() && a.y.to_bits() == b.y.to_bits());
        if !same_points {
            return Err(format!("{p:?}: points differ at {chunks} chunks"));
        }
        if got.edges() != want.edges() {
            return Err(format!(
                "{p:?}: {} edges at {chunks} chunks, the serial loop has {}",
                got.edge_count(),
                want.edge_count()
            ));
        }
        if got_rng.next_u64() != want_next {
            return Err(format!(
                "{p:?}: the caller's next draw differs at {chunks} chunks"
            ));
        }
    }
    Ok(())
}
