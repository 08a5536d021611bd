//! Determinism and gather invariants of the parallel link-value engine.
//!
//! The engine's contract: results are *bit-identical* at any thread
//! count (1, 2, 8 — including more workers than cores), for plain and
//! policy paths, and they reproduce the serial pre-arena reference
//! implementation exactly — traversal sets list for list, in order.

use topogen_generators::canonical::{kary_tree, mesh};
use topogen_graph::{bfs, Graph, NodeId};
use topogen_hierarchy::baseline::{link_traversals_ref, link_values_ref};
use topogen_hierarchy::linkvalue::{link_values, link_values_threads, PathMode};
use topogen_hierarchy::traversal::{link_traversals, link_traversals_threads, PairWeight};
use topogen_policy::rel::{annotations_from_pairs, AsAnnotations, Relationship};

fn star(n: usize) -> Graph {
    Graph::from_edges(n, (1..n as NodeId).map(|i| (0, i)))
}

/// A small annotated graph exercising providers, peers, and equal-cost
/// policy paths: two mid-tier nodes under a peered top pair, with
/// multihomed leaves.
fn policy_graph() -> (Graph, AsAnnotations) {
    let g = Graph::from_edges(
        8,
        vec![
            (0, 1), // peers (top tier)
            (0, 2),
            (0, 3),
            (1, 2),
            (1, 3),
            (2, 4),
            (2, 5),
            (3, 5),
            (3, 6),
            (4, 7),
            (5, 7),
        ],
    );
    let ann = annotations_from_pairs(
        &g,
        &[
            (0, 2),
            (0, 3),
            (1, 2),
            (1, 3),
            (2, 4),
            (2, 5),
            (3, 5),
            (3, 6),
            (4, 7),
            (5, 7),
        ],
        &[(0, 1)],
        &[],
    );
    (g, ann)
}

/// Traversal sets equal list for list, pair for pair, weight bits
/// included.
fn assert_same_sets(got: &[Vec<PairWeight>], want: &[Vec<PairWeight>], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: link count");
    for (l, (a, b)) in got.iter().zip(want).enumerate() {
        let bits = |ps: &[PairWeight]| -> Vec<(NodeId, NodeId, u64)> {
            ps.iter().map(|p| (p.u, p.v, p.w.to_bits())).collect()
        };
        assert_eq!(bits(a), bits(b), "{what}: link {l} differs");
    }
}

/// Bit-identical traversal sets and link values across 1/2/8 workers.
fn assert_thread_invariance(g: &Graph, mode: &PathMode<'_>) {
    let t1 = link_traversals_threads(g, mode, Some(1), None);
    let v1 = link_values_threads(g, mode, Some(1), None);
    for threads in [2, 8] {
        let tn = link_traversals_threads(g, mode, Some(threads), None);
        assert_same_sets(&tn, &t1, &format!("{threads} threads"));
        let vn = link_values_threads(g, mode, Some(threads), None);
        assert_eq!(v1.len(), vn.len());
        for (i, (a, b)) in v1.iter().zip(&vn).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "link {i} value differs at {threads} threads: {a} vs {b}"
            );
        }
    }
}

#[test]
fn thread_invariance_tree() {
    assert_thread_invariance(&kary_tree(3, 4), &PathMode::Shortest);
}

#[test]
fn thread_invariance_mesh() {
    assert_thread_invariance(&mesh(7, 7), &PathMode::Shortest);
}

#[test]
fn thread_invariance_star() {
    assert_thread_invariance(&star(24), &PathMode::Shortest);
}

#[test]
fn thread_invariance_policy() {
    let (g, ann) = policy_graph();
    // Sanity: the policy mode actually constrains some pairs, so this
    // exercises multi-state DAGs rather than collapsing to plain BFS.
    let plain: usize = link_traversals(&g, &PathMode::Shortest)
        .iter()
        .map(Vec::len)
        .sum();
    let pol: usize = link_traversals(&g, &PathMode::Policy(&ann))
        .iter()
        .map(Vec::len)
        .sum();
    assert!(pol <= plain);
    assert!(pol > 0, "policy graph must route something");
    assert_thread_invariance(&g, &PathMode::Policy(&ann));
}

/// The gather reproduces the serial pre-arena reference bit-for-bit.
#[test]
fn traversals_match_reference_engine() {
    for (g, mode) in [
        (kary_tree(2, 5), PathMode::Shortest),
        (mesh(6, 6), PathMode::Shortest),
        (star(12), PathMode::Shortest),
    ] {
        // The reference pushes a pair's links in HashMap order, but each
        // link still receives its pairs in (u, v) order.
        assert_same_sets(
            &link_traversals(&g, &mode),
            &link_traversals_ref(&g, &mode),
            "ref",
        );
        let values = link_values(&g, &mode);
        let ref_values = link_values_ref(&g, &mode);
        assert_eq!(values.len(), ref_values.len());
        for (i, (a, b)) in values.iter().zip(&ref_values).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "value {i}: {a} vs {b}");
        }
    }
}

/// Annotations cycling provider-customer (both ways), peer and sibling
/// over the edges, so valley-free mode leaves some pairs unroutable.
fn cycled_annotations(g: &Graph) -> AsAnnotations {
    let kinds = [
        Relationship::ProviderOfB,
        Relationship::Peer,
        Relationship::CustomerOfB,
        Relationship::Sibling,
    ];
    AsAnnotations::new(g, (0..g.edge_count()).map(|i| kinds[i % 4]).collect())
}

/// A star with `leaves` spokes whose center heads a path of `tail` more
/// nodes: the links near the junction carry every star–path pair.
fn star_with_tail(leaves: usize, tail: usize) -> Graph {
    let n = 1 + leaves + tail;
    let spokes = (1..=leaves as NodeId).map(|i| (0, i));
    let mut prev = 0;
    let path = (leaves as NodeId + 1..n as NodeId).map(move |v| {
        let e = (prev, v);
        prev = v;
        e
    });
    Graph::from_edges(n, spokes.chain(path))
}

/// The link-range gather's edge cases against the reference, list for
/// list, plain and valley-free, at 1/2/8 threads.
#[test]
fn gather_edge_cases_match_reference() {
    let heavy = star_with_tail(60, 8);
    let heavy_sets = link_traversals_ref(&heavy, &PathMode::Shortest);
    let total: usize = heavy_sets.iter().map(Vec::len).sum();
    let most = heavy_sets.iter().map(Vec::len).max().unwrap();
    // The engine cuts at least 16 ranges; this link alone holds more
    // than a sixteenth of all pairs.
    assert!(16 * most > total, "{most} of {total}");
    let cases = [
        // Fewer links than ranges.
        ("single edge", Graph::from_edges(2, vec![(0, 1)])),
        ("3-node path", Graph::from_edges(3, vec![(0, 1), (1, 2)])),
        (
            "disconnected",
            Graph::from_edges(9, vec![(0, 1), (1, 2), (2, 0), (4, 5), (5, 6), (6, 7)]),
        ),
        ("star with tail", heavy),
    ];
    for (name, g) in &cases {
        let ann = cycled_annotations(g);
        for mode in [PathMode::Shortest, PathMode::Policy(&ann)] {
            let want = link_traversals_ref(g, &mode);
            let want_values = link_values_ref(g, &mode);
            for threads in [1, 2, 8] {
                let what = format!("{name}, {threads} threads");
                let got = link_traversals_threads(g, &mode, Some(threads), None);
                assert_same_sets(&got, &want, &what);
                let values = link_values_threads(g, &mode, Some(threads), None);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&values), bits(&want_values), "{what}: values");
            }
        }
    }
}

#[test]
fn policy_values_match_reference() {
    let (g, ann) = policy_graph();
    let mode = PathMode::Policy(&ann);
    let values = link_values(&g, &mode);
    let reference = link_values_ref(&g, &mode);
    assert_eq!(values.len(), reference.len());
    for (a, b) in values.iter().zip(&reference) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

/// Flow conservation on the gathered sets: for every pair,
/// Σ_links w(u, v, l) equals the pair's shortest-path distance.
#[test]
fn flow_conservation() {
    let g = mesh(6, 6);
    let t = link_traversals(&g, &PathMode::Shortest);
    let n = g.node_count();
    let mut per_pair = vec![0.0f64; n * n];
    for link in &t {
        for pw in link {
            assert!(pw.u < pw.v, "pairs are normalized");
            assert!(pw.w > 0.0 && pw.w <= 1.0 + 1e-9);
            per_pair[pw.u as usize * n + pw.v as usize] += pw.w;
        }
    }
    for u in 0..n as NodeId {
        let dist = bfs::distances(&g, u);
        for v in (u + 1)..n as NodeId {
            let total = per_pair[u as usize * n + v as usize];
            let d = dist[v as usize] as f64;
            assert!(
                (total - d).abs() < 1e-9,
                "pair ({u},{v}): Σw = {total}, d = {d}"
            );
        }
    }
}

#[test]
fn empty_graph_edge_cases() {
    let g = Graph::empty(5);
    assert!(link_traversals(&g, &PathMode::Shortest).is_empty());
    assert!(link_values(&g, &PathMode::Shortest).is_empty());
    // Zero-node graph.
    let g0 = Graph::empty(0);
    assert!(link_values(&g0, &PathMode::Shortest).is_empty());
}

#[test]
fn disconnected_graph_edge_cases() {
    // Two components + an isolated node: pairs never span components.
    let g = Graph::from_edges(7, vec![(0, 1), (1, 2), (4, 5), (5, 6)]);
    let t = link_traversals_threads(&g, &PathMode::Shortest, Some(4), None);
    assert_eq!(t.len(), 4);
    for link in &t {
        for pw in link {
            let left = pw.u <= 2 && pw.v <= 2;
            let right = (4..=6).contains(&pw.u) && (4..=6).contains(&pw.v);
            assert!(left || right, "cross-component pair ({}, {})", pw.u, pw.v);
        }
    }
    // Flow conservation still holds within components.
    let values = link_values(&g, &PathMode::Shortest);
    assert_eq!(values.len(), 4);
    assert!(values.iter().all(|&v| v > 0.0));
    assert_thread_invariance(&g, &PathMode::Shortest);
}
