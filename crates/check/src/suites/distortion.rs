//! Distortion's ball centers (footnote 14): the allocation-free Brandes
//! pass against the per-source shortest-path-DAG loop it replaced, kept
//! verbatim below as the oracle; the leaf-folding fast path against its
//! documented error bound; and `graph_distortion`'s per-thread center
//! reuse against a fresh thread.

use crate::gen;
use crate::invariant::{Check, Suite};
use topogen_generators::canonical::complete;
use topogen_graph::apsp::{betweenness, betweenness_center, folded_betweenness};
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
                           graph, the empty graph, and leaf- and tie-heavy shapes: random \
                           trees, a cycle or clique with pendant trees, stars, even-node \
                           paths whose two middle nodes tie, symmetric pendants on a \
                           cycle, a single edge, and mirrored halves whose images tie",
                oracle: "the DAG-based Brandes loop it replaced, kept verbatim",
                shrink_hint: "shrink the node count, then the edge count",
                max_cases: u32::MAX,
                run: brandes_matches_reference,
            }),
            Box::new(Check {
                name: "folded-within-bound",
                property: "on arbitrary connected graphs and the leaf-heavy shapes, \
                           folded_betweenness answers whenever there is a leaf, every \
                           folded value lies within its documented tolerance of \
                           betweenness (exactly equal on trees), and a certified center \
                           is always the reference center",
                oracle: "the DAG-based Brandes loop, kept verbatim",
                shrink_hint: "shrink the node count, then the extra-edge count",
                max_cases: u32::MAX,
                run: folded_within_bound,
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

/// Leaf- and tie-heavy connected shapes, where the fast path folds most
/// of the graph or cannot separate the top two values.
fn leafy_shapes(rng: &mut gen::Lcg) -> Vec<(&'static str, Graph)> {
    let n = 2 + rng.below(50);
    let k = 3 + rng.below(8);
    let path = 2 * (1 + rng.below(20));
    vec![
        ("tree", gen::connected_graph(n, 0, rng.next() as u64)),
        ("cycle+trees", with_pendant_trees(cycle_edges(k), k, n, rng)),
        (
            "clique+trees",
            with_pendant_trees(clique_edges(k), k, n, rng),
        ),
        (
            "star",
            Graph::from_edges(n, (1..n as NodeId).map(|v| (0, v))),
        ),
        (
            "even-path",
            Graph::from_edges(path, (1..path as NodeId).map(|v| (v - 1, v))),
        ),
        (
            "cycle+leaf-each",
            Graph::from_edges(
                2 * k,
                cycle_edges(k)
                    .into_iter()
                    .chain((0..k as NodeId).map(|v| (v, v + k as NodeId))),
            ),
        ),
        ("edge", Graph::from_edges(2, vec![(0, 1)])),
        ("mirrored", mirrored(rng)),
    ]
}

/// Two copies of a random connected graph, joined by one edge between
/// the two copies of a random node: mirror images tie exactly, but
/// their values sum different fractions in different orders, so
/// rounding can split the tie either way.
fn mirrored(rng: &mut gen::Lcg) -> Graph {
    let h = 3 + rng.below(20);
    let half = gen::connected_graph(h, rng.below(h), rng.next() as u64);
    let u = rng.below(h) as NodeId;
    let h = h as NodeId;
    let edges = half
        .edges()
        .iter()
        .flat_map(|e| [(e.a, e.b), (e.a + h, e.b + h)])
        .chain([(u, u + h)]);
    Graph::from_edges(2 * h as usize, edges)
}

fn cycle_edges(k: usize) -> Vec<(NodeId, NodeId)> {
    (0..k as NodeId)
        .map(|v| (v, (v + 1) % k as NodeId))
        .collect()
}

fn clique_edges(k: usize) -> Vec<(NodeId, NodeId)> {
    let k = k as NodeId;
    (0..k)
        .flat_map(|u| (u + 1..k).map(move |v| (u, v)))
        .collect()
}

/// `edges` on nodes `0..k`, plus nodes `k..k + extra` each hung off a
/// random earlier node: trees pendant to that core.
fn with_pendant_trees(
    mut edges: Vec<(NodeId, NodeId)>,
    k: usize,
    extra: usize,
    rng: &mut gen::Lcg,
) -> Graph {
    edges.extend((k..k + extra).map(|v| (rng.below(v) as NodeId, v as NodeId)));
    Graph::from_edges(k + extra, edges)
}

fn brandes_matches_reference(seed: u64) -> Result<(), String> {
    let mut rng = gen::Lcg::new(seed);
    let n = 1 + rng.below(60);
    let mut cases = vec![
        (
            "sparse",
            gen::sparse_graph(n, rng.below(3 * n + 1), rng.next() as u64),
        ),
        ("complete", complete(1 + rng.below(24))),
        ("empty", Graph::empty(0)),
    ];
    cases.extend(leafy_shapes(&mut rng));
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

fn folded_within_bound(seed: u64) -> Result<(), String> {
    let mut rng = gen::Lcg::new(seed);
    let n = 2 + rng.below(60);
    let mut cases = vec![(
        "connected",
        gen::connected_graph(n, rng.below(2 * n), rng.next() as u64),
    )];
    cases.extend(leafy_shapes(&mut rng));
    for (what, g) in &cases {
        let shape = format!("{what} n={} m={}", g.node_count(), g.edge_count());
        let has_leaf = g.nodes().any(|v| g.degree(v) == 1);
        let Some(folded) = folded_betweenness(g) else {
            if has_leaf {
                return Err(format!("{shape}: has a leaf, but the fast path declined"));
            }
            continue;
        };
        let want = betweenness_ref(g);
        let is_tree = g.edge_count() + 1 == g.node_count();
        if (folded.tolerance == 0.0) != is_tree {
            return Err(format!(
                "{shape}: tolerance {} on a {}",
                folded.tolerance,
                if is_tree {
                    "tree"
                } else {
                    "graph with a cycle"
                }
            ));
        }
        for (v, (&fast, &slow)) in folded.values.iter().zip(&want).enumerate() {
            if (fast - slow).abs() > folded.tolerance * fast {
                return Err(format!(
                    "{shape}: node {v} folded {fast}, reference {slow}, beyond the \
                     tolerance {:e}",
                    folded.tolerance
                ));
            }
        }
        if let Some(center) = folded.certified_center() {
            if Some(center) != center_ref(&want) {
                return Err(format!(
                    "{shape}: certified center {center}, reference {:?}",
                    center_ref(&want)
                ));
            }
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
