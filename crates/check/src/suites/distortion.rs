//! Distortion's ball centers (footnote 14): the allocation-free Brandes
//! pass against the per-source shortest-path-DAG loop it replaced, kept
//! verbatim below as the oracle, and `graph_distortion`'s per-thread
//! center reuse against a fresh thread.

use crate::gen;
use crate::invariant::{Check, Suite};
use topogen_generators::canonical::complete;
use topogen_graph::apsp::{betweenness, betweenness_center};
use topogen_graph::bfs::shortest_path_dag;
use topogen_graph::{Graph, NodeId};
use topogen_metrics::distortion::{graph_distortion, DistortionParams};

/// The `distortion` suite.
pub fn suite() -> Suite {
    Suite {
        name: "distortion",
        description: "ball centers match the DAG-based Brandes reference, reused or not",
        invariants: vec![
            Box::new(Check {
                name: "brandes-matches-reference",
                property: "betweenness returns bit-identical values, and betweenness_center \
                           the same node, as the per-source shortest-path-DAG loop on \
                           arbitrary graphs (disconnected, isolated nodes), a complete \
                           graph, and the empty graph",
                oracle: "the DAG-based Brandes loop it replaced, kept verbatim",
                shrink_hint: "shrink the node count, then the edge count",
                max_cases: u32::MAX,
                run: brandes_matches_reference,
            }),
            Box::new(Check {
                name: "center-reuse-identity",
                property: "graph_distortion returns the same bits on a fresh thread as on \
                           a thread primed with the same ball, a different ball, or the \
                           same ball at the other polish value",
                oracle: "the same call on a freshly spawned thread",
                shrink_hint: "shrink the node count, then the extra-edge count",
                max_cases: u32::MAX,
                run: center_reuse_identity,
            }),
        ],
    }
}

/// The Brandes loop `apsp::betweenness` replaced, verbatim: one
/// shortest-path DAG, with stored predecessor lists, per source.
#[allow(clippy::needless_range_loop)] // index loops mirror Brandes' pseudocode
fn betweenness_ref(g: &Graph) -> Vec<f64> {
    let n = g.node_count();
    let mut bc = vec![0.0f64; n];
    let mut delta = vec![0.0f64; n];
    for s in 0..n as NodeId {
        let dag = shortest_path_dag(g, s);
        for d in delta.iter_mut() {
            *d = 0.0;
        }
        // Accumulate in reverse BFS order.
        for &w in dag.order.iter().rev() {
            for &v in &dag.preds[w as usize] {
                let share =
                    dag.sigma[v as usize] / dag.sigma[w as usize] * (1.0 + delta[w as usize]);
                delta[v as usize] += share;
            }
            if w != s {
                bc[w as usize] += delta[w as usize];
            }
        }
    }
    bc
}

/// `betweenness_center`'s rule over the reference values: the maximum,
/// ties to the lowest id.
fn center_ref(bc: &[f64]) -> Option<NodeId> {
    bc.iter()
        .enumerate()
        .max_by(|a, b| {
            a.1.partial_cmp(b.1)
                .expect("betweenness is never NaN")
                .then(b.0.cmp(&a.0))
        })
        .map(|(i, _)| i as NodeId)
}

fn brandes_matches_reference(seed: u64) -> Result<(), String> {
    let mut rng = gen::Lcg::new(seed);
    let n = 1 + rng.below(60);
    let cases = [
        (
            "sparse",
            gen::sparse_graph(n, rng.below(3 * n + 1), rng.next() as u64),
        ),
        ("complete", complete(1 + rng.below(24))),
        ("empty", Graph::empty(0)),
    ];
    for (what, g) in &cases {
        let shape = format!("{what} n={} m={}", g.node_count(), g.edge_count());
        let got = betweenness(g);
        let want = betweenness_ref(g);
        if got.len() != want.len() {
            return Err(format!(
                "{shape}: {} values, reference {}",
                got.len(),
                want.len()
            ));
        }
        if let Some(v) = (0..got.len()).find(|&v| got[v].to_bits() != want[v].to_bits()) {
            return Err(format!(
                "{shape}: node {v} has betweenness {}, reference {}",
                got[v], want[v]
            ));
        }
        let (center, want_center) = (betweenness_center(g), center_ref(&want));
        if center != want_center {
            return Err(format!(
                "{shape}: center {center:?}, reference {want_center:?}"
            ));
        }
    }
    Ok(())
}

fn center_reuse_identity(seed: u64) -> Result<(), String> {
    let mut rng = gen::Lcg::new(seed);
    let n = 4 + rng.below(36);
    let ball = gen::connected_graph(n, rng.below(2 * n), rng.next() as u64);
    let other = gen::connected_graph(n, rng.below(2 * n), rng.next() as u64);
    let bartal_seed = rng.next() as u64;
    for polish in [false, true] {
        let params = DistortionParams {
            polish,
            seed: bartal_seed,
            ..Default::default()
        };
        let want = on_fresh_thread(&[], &ball, &params);
        // The engine regrows an unchanged ball under a new seed.
        let reseeded = DistortionParams {
            seed: !bartal_seed,
            ..params
        };
        let other_polish = DistortionParams {
            polish: !polish,
            ..params
        };
        for (primed_with, prime) in [
            ("the same ball", (&ball, reseeded)),
            ("a different ball", (&other, params)),
            ("the other polish value", (&ball, other_polish)),
        ] {
            let got = on_fresh_thread(&[prime], &ball, &params);
            if got != want {
                return Err(format!(
                    "n={n} polish={polish}: primed with {primed_with}, got bits \
                     {got:?}, fresh thread {want:?}"
                ));
            }
        }
    }
    Ok(())
}

/// Bits of `graph_distortion(g, params)` on a newly spawned thread,
/// after the `primes` calls ran on that thread first.
fn on_fresh_thread(
    primes: &[(&Graph, DistortionParams)],
    g: &Graph,
    params: &DistortionParams,
) -> Option<u64> {
    std::thread::scope(|s| {
        s.spawn(|| {
            for (ball, p) in primes {
                graph_distortion(ball, p);
            }
            graph_distortion(g, params).map(f64::to_bits)
        })
        .join()
        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    })
}
