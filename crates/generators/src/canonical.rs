//! Canonical calibration networks (paper §3.1.3 and §3.2.1).
//!
//! The paper calibrates its metrics on a k-ary Tree, a rectangular Mesh,
//! and an Erdős–Rényi Random graph, and reasons about two further
//! "standard networks" — the Complete graph and the Linear chain — whose
//! known low/high metric signatures anchor the classification table.

use rand::Rng;
use topogen_graph::{Graph, GraphBuilder, NodeId};

/// Build in memory: the shared body of every `fn xyz() -> Graph`
/// convenience wrapper around its `xyz_into` body.
fn collect<F: FnOnce(&mut GraphBuilder)>(f: F) -> Graph {
    let mut b = GraphBuilder::new(0);
    f(&mut b);
    b.build()
}

/// [`kary_tree`] emitting into `sink`, an in-memory or a
/// [`budgeted`](GraphBuilder::budgeted) builder. Every `*_into` body is
/// its wrapper's only implementation, so a budgeted build is identical
/// to the in-memory one by construction.
pub fn kary_tree_into(k: usize, depth: usize, sink: &mut GraphBuilder) {
    assert!(k >= 2, "k-ary tree needs k >= 2");
    // Node count: (k^(depth+1) - 1) / (k - 1).
    let mut n: usize = 1;
    let mut level = 1usize;
    for _ in 0..depth {
        level *= k;
        n += level;
    }
    sink.ensure_nodes(n);
    // Children of node v are k*v + 1 ... k*v + k (standard heap layout).
    for v in 0..n {
        for c in 1..=k {
            let child = k * v + c;
            if child < n {
                sink.add_edge(v as NodeId, child as NodeId);
            }
        }
    }
}

/// Complete k-ary tree of the given `depth` (depth 0 = a single root).
/// The paper's Tree instance is `k = 3, D = 6` → 1093 nodes, the node
/// count `(k^(D+1) - 1) / (k - 1)`.
///
/// # Panics
/// Panics if `k == 0`, or if `k == 1` (use [`linear`] for chains).
pub fn kary_tree(k: usize, depth: usize) -> Graph {
    collect(|b| kary_tree_into(k, depth, b))
}

/// [`mesh`] emitting into `sink`.
pub fn mesh_into(rows: usize, cols: usize, sink: &mut GraphBuilder) {
    let n = rows * cols;
    sink.ensure_nodes(n);
    for r in 0..rows {
        for c in 0..cols {
            let v = (r * cols + c) as NodeId;
            if c + 1 < cols {
                sink.add_edge(v, v + 1);
            }
            if r + 1 < rows {
                sink.add_edge(v, v + cols as NodeId);
            }
        }
    }
}

/// Rectangular grid ("Mesh") with `rows × cols` nodes, 4-neighbor
/// connectivity. The paper uses a 30×30 grid (900 nodes).
pub fn mesh(rows: usize, cols: usize) -> Graph {
    collect(|b| mesh_into(rows, cols, b))
}

/// [`linear`] emitting into `sink`.
pub fn linear_into(n: usize, sink: &mut GraphBuilder) {
    sink.ensure_nodes(n);
    for i in 1..n {
        sink.add_edge((i - 1) as NodeId, i as NodeId);
    }
}

/// Linear chain of `n` nodes (the paper's low/low/low reference network).
pub fn linear(n: usize) -> Graph {
    collect(|b| linear_into(n, b))
}

/// Cycle of `n` nodes.
///
/// # Panics
/// Panics if `n < 3` (smaller cycles are not simple graphs).
pub fn ring(n: usize) -> Graph {
    assert!(n >= 3, "a simple cycle needs at least 3 nodes");
    let mut b = GraphBuilder::new(n);
    for i in 0..n {
        b.add_edge(i as NodeId, ((i + 1) % n) as NodeId);
    }
    b.build()
}

/// [`complete`] emitting into `sink`.
pub fn complete_into(n: usize, sink: &mut GraphBuilder) {
    sink.ensure_nodes(n);
    for i in 0..n {
        for j in (i + 1)..n {
            sink.add_edge(i as NodeId, j as NodeId);
        }
    }
}

/// Complete graph on `n` nodes (the paper's high/high/low reference — the
/// only standard network sharing the Internet's metric signature).
pub fn complete(n: usize) -> Graph {
    collect(|b| complete_into(n, b))
}

/// [`random_gnp`] emitting into `sink`.
pub fn random_gnp_into<R: Rng>(n: usize, p: f64, rng: &mut R, sink: &mut GraphBuilder) {
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    sink.ensure_nodes(n);
    if p <= 0.0 || n < 2 {
        return;
    }
    if p >= 1.0 {
        complete_into(n, sink);
        return;
    }
    // Iterate potential edges in lexicographic order, skipping ahead by
    // geometric jumps (Batagelj–Brandes).
    let ln_q = (1.0 - p).ln();
    let total: u64 = (n as u64) * (n as u64 - 1) / 2;
    let mut idx: f64 = -1.0;
    loop {
        let r: f64 = rng.gen::<f64>();
        // Next success index.
        let skip = ((1.0 - r).ln() / ln_q).floor();
        idx += 1.0 + skip;
        if !idx.is_finite() || idx >= total as f64 {
            break;
        }
        let e = idx as u64;
        let (u, v) = unrank_edge(n as u64, e);
        sink.add_edge(u as NodeId, v as NodeId);
    }
}

/// Erdős–Rényi `G(n, p)`: each of the `n(n-1)/2` possible edges appears
/// independently with probability `p`. The paper's Random instance is
/// `n = 5018, p = 0.0008` (Figure 1 — the node count is the largest
/// connected component of a slightly larger draw).
///
/// May be disconnected; callers typically extract the largest component.
///
/// Implementation: geometric skipping over the ordered edge list, O(n + m)
/// expected time rather than O(n²) Bernoulli trials.
pub fn random_gnp<R: Rng>(n: usize, p: f64, rng: &mut R) -> Graph {
    collect(|b| random_gnp_into(n, p, rng, b))
}

/// Map an index `0 <= e < n(n-1)/2` to the e-th edge in lexicographic
/// order over pairs (u, v), u < v.
fn unrank_edge(n: u64, e: u64) -> (u64, u64) {
    // Row u starts at offset u*n - u*(u+3)/2 ... solve incrementally via
    // the quadratic formula for robustness at large n.
    // Edges in row u: n - 1 - u. Cumulative before row u:
    //   C(u) = u*n - u - u*(u-1)/2.
    // Find the largest u with C(u) <= e via the quadratic formula, then
    // fix up with a local scan (floating point slack).
    let nf = n as f64;
    let ef = e as f64;
    let mut u = ((2.0 * nf - 1.0 - ((2.0 * nf - 1.0).powi(2) - 8.0 * ef).max(0.0).sqrt()) / 2.0)
        .floor() as u64;
    let cum = |u: u64| u * n - u - u * u.saturating_sub(1) / 2;
    loop {
        let cu = cum(u);
        if cu > e {
            u -= 1;
            continue;
        }
        if cum(u + 1) <= e {
            u += 1;
            continue;
        }
        let v = u + 1 + (e - cu);
        return (u, v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use topogen_graph::components::is_connected;

    #[test]
    fn tree_node_count_matches_paper() {
        // k=3, D=6 → 1093 nodes with average degree ≈ 2.00 (Figure 1).
        let t = kary_tree(3, 6);
        assert_eq!(t.node_count(), 1093);
        assert_eq!(t.edge_count(), 1092);
        assert!((t.average_degree() - 2.0).abs() < 0.01);
        assert!(is_connected(&t));
    }

    #[test]
    fn tree_depth_zero() {
        let t = kary_tree(4, 0);
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.edge_count(), 0);
    }

    #[test]
    fn tree_degrees() {
        let t = kary_tree(2, 2); // 7 nodes
        assert_eq!(t.degree(0), 2); // root
        assert_eq!(t.degree(1), 3); // internal
        assert_eq!(t.degree(3), 1); // leaf
    }

    #[test]
    fn mesh_matches_paper_instance() {
        // 30x30 grid: 900 nodes, avg degree 3.87 (Figure 1).
        let m = mesh(30, 30);
        assert_eq!(m.node_count(), 900);
        assert_eq!(m.edge_count(), 2 * 30 * 29);
        assert!((m.average_degree() - 3.87).abs() < 0.01);
        assert!(is_connected(&m));
    }

    #[test]
    fn mesh_corner_and_center_degrees() {
        let m = mesh(3, 3);
        assert_eq!(m.degree(0), 2); // corner
        assert_eq!(m.degree(1), 3); // edge
        assert_eq!(m.degree(4), 4); // center
    }

    #[test]
    fn mesh_degenerate_shapes() {
        assert_eq!(mesh(1, 5).edge_count(), 4); // a path
        assert_eq!(mesh(1, 1).node_count(), 1);
        assert_eq!(mesh(0, 5).node_count(), 0);
    }

    #[test]
    fn linear_and_ring() {
        let l = linear(5);
        assert_eq!(l.edge_count(), 4);
        assert_eq!(l.degree(0), 1);
        assert_eq!(l.degree(2), 2);
        let r = ring(5);
        assert_eq!(r.edge_count(), 5);
        assert!(r.nodes().all(|v| r.degree(v) == 2));
    }

    #[test]
    fn complete_graph() {
        let g = complete(6);
        assert_eq!(g.edge_count(), 15);
        assert!(g.nodes().all(|v| g.degree(v) == 5));
    }

    #[test]
    fn gnp_extremes() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(random_gnp(10, 0.0, &mut rng).edge_count(), 0);
        assert_eq!(random_gnp(10, 1.0, &mut rng).edge_count(), 45);
        assert_eq!(random_gnp(0, 0.5, &mut rng).node_count(), 0);
        assert_eq!(random_gnp(1, 0.5, &mut rng).edge_count(), 0);
    }

    #[test]
    fn gnp_edge_count_concentrates() {
        let mut rng = StdRng::seed_from_u64(42);
        let n = 400;
        let p = 0.05;
        let g = random_gnp(n, p, &mut rng);
        let expected = p * (n * (n - 1) / 2) as f64;
        let got = g.edge_count() as f64;
        // within 10% of the mean — std dev is ~sqrt(expected) ≈ 63.
        assert!(
            (got - expected).abs() < 0.1 * expected,
            "edges {got} vs expected {expected}"
        );
    }

    #[test]
    fn gnp_deterministic_under_seed() {
        let g1 = random_gnp(100, 0.05, &mut StdRng::seed_from_u64(9));
        let g2 = random_gnp(100, 0.05, &mut StdRng::seed_from_u64(9));
        assert_eq!(g1.edges(), g2.edges());
    }

    #[test]
    fn unrank_edge_bijection() {
        let n = 7u64;
        let mut seen = std::collections::HashSet::new();
        for e in 0..(n * (n - 1) / 2) {
            let (u, v) = unrank_edge(n, e);
            assert!(u < v && v < n, "bad edge ({u},{v}) for index {e}");
            assert!(seen.insert((u, v)), "duplicate edge for index {e}");
        }
        assert_eq!(seen.len() as u64, n * (n - 1) / 2);
    }

    #[test]
    fn paper_random_instance_degree() {
        // Figure 1: Random with n≈5018, p = 0.0008 → avg degree ≈ 4.18.
        let mut rng = StdRng::seed_from_u64(7);
        let g = random_gnp(5018, 0.0008, &mut rng);
        assert!(
            (g.average_degree() - 4.0).abs() < 0.4,
            "avg degree {}",
            g.average_degree()
        );
    }
}
