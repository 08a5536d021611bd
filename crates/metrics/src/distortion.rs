//! Distortion D(n): tree-like behavior (§3.2.1, after Hu \[22\]).
//!
//! For a spanning tree T of a graph G, the distortion of T is the average
//! T-distance between the endpoints of G's edges; the distortion of G is
//! the minimum over spanning trees — NP-hard, so the paper (footnotes
//! 14–15) uses heuristics: a BFS tree rooted at the ball's "center" (the
//! node the most shortest paths traverse), plus Bartal's probabilistic
//! decomposition as a cross-check, reporting the smaller. We do the
//! same, additionally trying the maximum-degree node as a root (cheap and
//! occasionally better).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use topogen_graph::apsp::{betweenness_center_counted, BrandesWork};
use topogen_graph::tree::{distortion_of_tree, RootedTree};
use topogen_graph::{Graph, NodeId};

/// Tunables for the distortion computation.
#[derive(Clone, Copy, Debug)]
pub struct DistortionParams {
    /// Skip balls larger than this (betweenness is O(n·m) per ball).
    pub max_ball_nodes: usize,
    /// Also run the Bartal-style decomposition cross-check.
    pub use_bartal: bool,
    /// Polish each candidate tree with re-parenting local search
    /// ([`improve_tree_distortion`]). Tightens the estimate, at a
    /// noticeable per-ball cost — off by default; the ablation bench
    /// quantifies the difference.
    pub polish: bool,
    /// Seed for the Bartal decomposition's randomness.
    pub seed: u64,
}

impl Default for DistortionParams {
    fn default() -> Self {
        DistortionParams {
            max_ball_nodes: 3_000,
            use_bartal: true,
            polish: false,
            seed: 0xBA27A1,
        }
    }
}

/// Distortion of one (connected) graph: min over the heuristic spanning
/// trees, each polished by re-parenting local search. Returns `None`
/// for graphs without edges.
pub fn graph_distortion(g: &Graph, params: &DistortionParams) -> Option<f64> {
    graph_distortion_counted(g, params).0
}

/// [`graph_distortion`], with the Brandes work its center computation did
/// (none when the center was reused or the graph has no edges).
pub(crate) fn graph_distortion_counted(
    g: &Graph,
    params: &DistortionParams,
) -> (Option<f64>, BrandesWork) {
    if g.edge_count() == 0 {
        return (None, BrandesWork::default());
    }
    let mut best = f64::INFINITY;
    let consider = |t: RootedTree, best: &mut f64| {
        let d = if params.polish {
            improve_tree_distortion(g, t, 8).1
        } else {
            distortion_of_tree(g, &t).unwrap_or(f64::NAN)
        };
        if d.is_finite() {
            *best = best.min(d);
        }
    };
    // Root 1: the betweenness center (the paper's footnote-14 heuristic).
    let (center, work) = ball_center(g);
    let tree_span = topogen_par::trace::span("tree");
    if let Some(center) = center {
        consider(RootedTree::bfs_tree(g, center), &mut best);
    }
    // Root 2: the maximum-degree node.
    let hub = (0..g.node_count() as NodeId).max_by_key(|&v| g.degree(v));
    if let Some(hub) = hub {
        consider(RootedTree::bfs_tree(g, hub), &mut best);
    }
    drop(tree_span);
    // Cross-check: Bartal-style random decomposition tree.
    if params.use_bartal {
        let _bartal_span = topogen_par::trace::span("bartal");
        let mut rng = StdRng::seed_from_u64(params.seed);
        for _ in 0..2 {
            consider(bartal_tree(g, &mut rng), &mut best);
        }
    }
    (best.is_finite().then_some(best), work)
}

thread_local! {
    /// This worker's last ball whose center was computed, and that center.
    static LAST_CENTER: RefCell<Option<(Graph, Option<NodeId>)>> = const { RefCell::new(None) };
}

/// [`betweenness_center_counted`] of `g`, reusing this
/// worker's previous answer (at no Brandes work) when `g` is the same ball.
/// Every radius past a center's eccentricity regrows an identical ball
/// under a new seed, which only the Bartal trees read. Only the center —
/// a pure function of the ball — is kept, never a distortion, so calls
/// that differ in `polish` or seed cannot alias.
fn ball_center(g: &Graph) -> (Option<NodeId>, BrandesWork) {
    LAST_CENTER.with(|slot| {
        let mut slot = slot.borrow_mut();
        if let Some((ball, center)) = slot.as_ref() {
            if ball == g {
                return (*center, BrandesWork::default());
            }
        }
        let _span = topogen_par::trace::span("betweenness");
        let (center, work) = betweenness_center_counted(g);
        *slot = Some((g.clone(), center));
        (center, work)
    })
}

/// Local search over spanning trees: repeatedly take the non-tree edges
/// with the worst tree distance and try re-parenting one endpoint under
/// the other (valid when the new parent is outside the endpoint's
/// subtree), keeping any move that lowers the total distortion. This is
/// the kind of problem-specific polishing the paper alludes to ("our own
/// heuristics resulted in smaller distortion values", footnote 15); it
/// matters most on geometric graphs (Tiers, Waxman) where BFS trees
/// separate spatially adjacent nodes.
///
/// Returns the improved tree and its distortion (`NaN` for edgeless
/// graphs).
pub fn improve_tree_distortion(
    g: &Graph,
    mut tree: RootedTree,
    rounds: usize,
) -> (RootedTree, f64) {
    let mut current = match distortion_of_tree(g, &tree) {
        Some(d) => d,
        None => return (tree, f64::NAN),
    };
    let m = g.edge_count() as f64;
    for _ in 0..rounds {
        let lca = topogen_graph::tree::Lca::new(&tree);
        // Worst-stretched non-tree edges.
        let mut stretched: Vec<(u32, NodeId, NodeId)> = g
            .edges()
            .iter()
            .filter_map(|e| {
                let d = lca.tree_distance(e.a, e.b);
                if d >= 3 {
                    Some((d, e.a, e.b))
                } else {
                    None
                }
            })
            .collect();
        stretched.sort_by_key(|&(d, ..)| std::cmp::Reverse(d));
        stretched.truncate(24);
        let mut improved = false;
        for (_, a, b) in stretched {
            for (child, parent) in [(a, b), (b, a)] {
                if child == tree.root {
                    continue;
                }
                // `parent` must not be in `child`'s subtree: walk up from
                // `parent`; if we hit `child`, skip.
                let mut x = parent;
                let mut in_subtree = false;
                while x != tree.root {
                    if x == child {
                        in_subtree = true;
                        break;
                    }
                    x = tree.parent[x as usize];
                }
                if in_subtree || tree.parent[child as usize] == parent {
                    continue;
                }
                let old_parent = tree.parent[child as usize];
                tree.parent[child as usize] = parent;
                let candidate = RootedTree::from_parents(tree.parent.clone(), tree.root);
                match distortion_of_tree(g, &candidate) {
                    Some(d) if d + 1e-12 / m < current => {
                        tree = candidate;
                        current = d;
                        improved = true;
                        break; // recompute LCA before further moves
                    }
                    _ => {
                        tree.parent[child as usize] = old_parent;
                    }
                }
            }
            if improved {
                break;
            }
        }
        if !improved {
            break;
        }
    }
    (tree, current)
}

/// A Bartal-style hierarchical decomposition spanning tree: recursively
/// split the node set into balls of geometrically shrinking radius around
/// random centers, connecting each cluster's center to its parent
/// cluster's center by a BFS path in the original graph projected onto
/// tree edges. The construction here is the simple variant: each
/// recursion level picks random centers and assigns every node to the
/// closest picked center within the level's radius; cluster centers
/// become children of the previous level's center through a BFS-tree
/// fragment. The result is a valid spanning tree of the connected input.
pub fn bartal_tree<R: Rng>(g: &Graph, rng: &mut R) -> RootedTree {
    let n = g.node_count();
    assert!(n > 0);
    // Work over the whole (assumed connected) graph: recursively refine.
    // parent[] built as we go; start from a random root.
    let root = rng.gen_range(0..n as NodeId);
    let mut parent = vec![NodeId::MAX; n];
    parent[root as usize] = root;
    // Level sets: start with the whole vertex set at radius = ecc(root).
    let full: Vec<NodeId> = (0..n as NodeId).collect();
    let ecc = topogen_graph::bfs::eccentricity(g, root).max(1);
    decompose(g, &full, root, ecc, &mut parent, rng);
    // Any node left unattached (disconnected input) hangs directly off
    // nothing; keep the tree well-formed by attaching via BFS remnants.
    RootedTree::from_parents(parent, root)
}

fn decompose<R: Rng>(
    g: &Graph,
    nodes: &[NodeId],
    center: NodeId,
    radius: u32,
    parent: &mut [NodeId],
    rng: &mut R,
) {
    if nodes.len() <= 1 {
        return;
    }
    // Membership mask of the current cluster.
    let mut in_cluster = vec![false; g.node_count()];
    for &v in nodes {
        in_cluster[v as usize] = true;
    }
    if radius <= 1 || nodes.len() <= 3 {
        // Base case: BFS tree within the cluster from the center.
        attach_bfs(g, &in_cluster, center, parent);
        return;
    }
    // Pick sub-centers: the center first, then random nodes; assign every
    // node to the first sub-center within radius/2 (BFS order).
    let half = (radius / 2).max(1);
    let mut assigned = vec![false; g.node_count()];
    let mut claimed = 0;
    let mut order: Vec<NodeId> = nodes.to_vec();
    order.shuffle(rng);
    let mut subcenters: Vec<NodeId> = vec![center];
    for &v in &order {
        if v != center {
            subcenters.push(v);
        }
    }
    let mut clusters: Vec<(NodeId, Vec<NodeId>)> = Vec::new();
    for &c in &subcenters {
        if assigned[c as usize] {
            continue;
        }
        // Hop-bounded BFS within the cluster claiming unassigned nodes.
        let members = claim_ball(g, &in_cluster, &mut assigned, c, half);
        claimed += members.len();
        clusters.push((c, members));
        if claimed == nodes.len() {
            break;
        }
    }
    // Connect sub-centers to the parent center by BFS-tree paths inside
    // the full cluster (ensures tree connectivity across sub-clusters).
    attach_centers(g, &in_cluster, center, &clusters, parent);
    // Recurse into sub-clusters.
    for (c, members) in clusters {
        if c != center || members.len() < nodes.len() {
            decompose(g, &members, c, half, parent, rng);
        } else {
            // No progress (one cluster swallowed everything): BFS base.
            attach_bfs(g, &in_cluster, center, parent);
            return;
        }
    }
}

/// Claim `c` and every unassigned in-cluster node within `h` hops of it,
/// in BFS order. A node is claimed when first reached, so `members` is
/// also the BFS queue, walked one hop level at a time.
fn claim_ball(
    g: &Graph,
    in_cluster: &[bool],
    assigned: &mut [bool],
    c: NodeId,
    h: u32,
) -> Vec<NodeId> {
    assigned[c as usize] = true;
    let mut members = vec![c];
    let mut level = 0..1;
    for _ in 0..h {
        for i in level.clone() {
            for &w in g.neighbors(members[i]) {
                if in_cluster[w as usize] && !assigned[w as usize] {
                    assigned[w as usize] = true;
                    members.push(w);
                }
            }
        }
        level = level.end..members.len();
        if level.is_empty() {
            break;
        }
    }
    members
}

/// Attach each sub-center to the main center along a BFS path within the
/// cluster, writing parent pointers along the way for nodes still
/// unattached.
fn attach_centers(
    g: &Graph,
    in_cluster: &[bool],
    center: NodeId,
    clusters: &[(NodeId, Vec<NodeId>)],
    parent: &mut [NodeId],
) {
    // BFS tree of the whole cluster from the center.
    let mut pre = vec![NodeId::MAX; g.node_count()];
    let mut q = std::collections::VecDeque::new();
    pre[center as usize] = center;
    q.push_back(center);
    while let Some(u) = q.pop_front() {
        for &w in g.neighbors(u) {
            if in_cluster[w as usize] && pre[w as usize] == NodeId::MAX {
                pre[w as usize] = u;
                q.push_back(w);
            }
        }
    }
    for &(c, _) in clusters {
        // Walk the BFS path from c to the center, setting parents for any
        // node not yet in the tree.
        let mut v = c;
        while v != center && parent[v as usize] == NodeId::MAX {
            let p = pre[v as usize];
            if p == NodeId::MAX {
                break; // disconnected fragment
            }
            parent[v as usize] = p;
            v = p;
        }
    }
}

/// BFS-tree attach of every unattached node in the cluster.
fn attach_bfs(g: &Graph, in_cluster: &[bool], center: NodeId, parent: &mut [NodeId]) {
    let mut q = std::collections::VecDeque::new();
    let mut seen = vec![false; g.node_count()];
    seen[center as usize] = true;
    q.push_back(center);
    while let Some(u) = q.pop_front() {
        for &w in g.neighbors(u) {
            if in_cluster[w as usize] && !seen[w as usize] {
                seen[w as usize] = true;
                if parent[w as usize] == NodeId::MAX {
                    parent[w as usize] = u;
                }
                q.push_back(w);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balls::sample_centers;
    use crate::engine::{plain_curve, DistortionMetric};
    use topogen_generators::canonical::{kary_tree, mesh, random_gnp, ring};
    use topogen_graph::components::largest_component;

    fn params() -> DistortionParams {
        DistortionParams {
            max_ball_nodes: 2_000,
            use_bartal: true,
            polish: false,
            seed: 2,
        }
    }

    #[test]
    fn tree_distortion_is_one() {
        let g = kary_tree(3, 5);
        let d = graph_distortion(&g, &params()).unwrap();
        assert!((d - 1.0).abs() < 1e-12, "tree distortion {d}");
    }

    #[test]
    fn ring_distortion() {
        // Best spanning tree of C_n is a path: distortion = (n-1+... )/n:
        // n-1 edges at distance 1, one edge at distance n-1 → (2n-2)/n.
        let g = ring(20);
        let d = graph_distortion(&g, &params()).unwrap();
        assert!((d - 38.0 / 20.0).abs() < 1e-9, "ring distortion {d}");
    }

    #[test]
    fn mesh_distortion_grows_with_size() {
        let small = graph_distortion(&mesh(6, 6), &params()).unwrap();
        let large = graph_distortion(&mesh(20, 20), &params()).unwrap();
        assert!(large > small, "mesh distortion {small} → {large}");
        assert!(large > 2.5, "large mesh distortion {large}");
    }

    #[test]
    fn random_graph_distortion_loglike() {
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(11);
        let g = random_gnp(400, 0.02, &mut rng);
        let (lcc, _) = largest_component(&g);
        let d = graph_distortion(&lcc, &params()).unwrap();
        assert!(d > 2.0, "random distortion {d}");
        assert!(d < 10.0);
    }

    #[test]
    fn tree_ball_distortion_flat_at_one() {
        let g = kary_tree(2, 7);
        use rand::SeedableRng;
        let centers = sample_centers(g.node_count(), 10, &mut StdRng::seed_from_u64(5));
        let metric = DistortionMetric {
            max_ball_nodes: 2_000,
            use_bartal: true,
            polish: false,
        };
        let curve = plain_curve(&g, &centers, 8, 2, &metric);
        for p in curve.iter().filter(|p| p.value.is_finite()) {
            assert!(
                (p.value - 1.0).abs() < 1e-9,
                "D({}) = {}",
                p.avg_size,
                p.value
            );
        }
    }

    #[test]
    fn bartal_tree_is_spanning() {
        use rand::SeedableRng;
        let g = mesh(8, 8);
        let t = bartal_tree(&g, &mut StdRng::seed_from_u64(3));
        assert_eq!(t.size(), 64);
        // Valid distortion computable.
        let d = distortion_of_tree(&g, &t).unwrap();
        assert!(d >= 1.0);
    }

    #[test]
    fn bartal_tree_on_random_graph() {
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(17);
        let g = random_gnp(200, 0.04, &mut rng);
        let (lcc, _) = largest_component(&g);
        let t = bartal_tree(&lcc, &mut rng);
        assert_eq!(t.size(), lcc.node_count());
    }

    #[test]
    fn edgeless_graph_none() {
        let g = Graph::empty(4);
        assert!(graph_distortion(&g, &params()).is_none());
    }

    #[test]
    fn mesh_vs_tree_distinguished() {
        // The headline qualitative distinction of Figure 2(c).
        let t = graph_distortion(&kary_tree(3, 5), &params()).unwrap();
        let m = graph_distortion(&mesh(18, 18), &params()).unwrap();
        assert!(m > 2.0 * t, "mesh {m} vs tree {t}");
    }
}
