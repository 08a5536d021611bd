//! All-pairs shortest paths over small (sub)graphs.
//!
//! Several per-ball computations — the distortion heuristic's "center"
//! selection (paper footnote 14) and pairwise statistics — need all-pairs
//! hop distances on ball subgraphs. Dense Floyd–Warshall would be O(n³);
//! repeated BFS is O(n·m) and wins on the sparse graphs at hand.

use crate::bfs::distances;
use crate::prune::peel_leaves;
use crate::subgraph::induced_subgraph;
use crate::{Graph, NodeId, UNREACHED};

/// All-pairs hop distance matrix, row-major: `d[u * n + v]`.
/// `UNREACHED` marks disconnected pairs.
pub fn all_pairs_distances(g: &Graph) -> Vec<u32> {
    let n = g.node_count();
    let mut d = vec![UNREACHED; n * n];
    for u in 0..n as NodeId {
        let du = distances(g, u);
        d[(u as usize) * n..(u as usize + 1) * n].copy_from_slice(&du);
    }
    d
}

/// Brandes work one betweenness computation did: the sources it swept
/// and the adjacency entries those sweeps scanned (forward BFS plus the
/// reverse accumulation).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BrandesWork {
    /// Sources swept.
    pub sources: u64,
    /// Adjacency entries scanned.
    pub edge_visits: u64,
}

/// Node betweenness centrality (Brandes' algorithm, unweighted). Returns
/// the per-node betweenness (sum over ordered source–target pairs of the
/// fraction of shortest paths through the node). The reference for
/// [`betweenness_center`]'s fast path, and its fallback.
///
/// Allocation-free per source: `dist`/`sigma`/`delta` live across
/// sources and only the previous source's reached nodes are reset;
/// `order` doubles as the BFS queue. Predecessor lists are not stored —
/// in the accumulation, `w`'s predecessors are its neighbours one hop
/// closer to the source. Every `delta[v]` and `bc[w]` receives the same
/// addends in the same order as the textbook per-source DAG loop, so
/// the result is bit-identical to it.
pub fn betweenness(g: &Graph) -> Vec<f64> {
    betweenness_counted(g, &mut BrandesWork::default())
}

/// [`betweenness`], adding its work to `work`.
fn betweenness_counted(g: &Graph, work: &mut BrandesWork) -> Vec<f64> {
    let n = g.node_count();
    let mut bc = vec![0.0f64; n];
    let mut dist = vec![UNREACHED; n];
    let mut sigma = vec![0.0f64; n];
    let mut delta = vec![0.0f64; n];
    let mut order: Vec<NodeId> = Vec::with_capacity(n);
    let mut visits = 0usize;
    for s in 0..n as NodeId {
        for &v in &order {
            dist[v as usize] = UNREACHED;
            sigma[v as usize] = 0.0;
            delta[v as usize] = 0.0;
        }
        order.clear();
        dist[s as usize] = 0;
        sigma[s as usize] = 1.0;
        order.push(s);
        let mut head = 0;
        while let Some(&u) = order.get(head) {
            head += 1;
            let du = dist[u as usize];
            visits += g.degree(u);
            for &v in g.neighbors(u) {
                if dist[v as usize] == UNREACHED {
                    dist[v as usize] = du + 1;
                    order.push(v);
                }
                if dist[v as usize] == du + 1 {
                    sigma[v as usize] += sigma[u as usize];
                }
            }
        }
        // Accumulate in reverse BFS order. A node at distance 1 has the
        // source as its only predecessor, whose `delta` is never read.
        for &w in order.iter().rev() {
            let dw = dist[w as usize];
            if dw >= 2 {
                visits += g.degree(w);
                let (sigma_w, delta_w) = (sigma[w as usize], delta[w as usize]);
                for &v in g.neighbors(w) {
                    if dist[v as usize] + 1 == dw {
                        delta[v as usize] += sigma[v as usize] / sigma_w * (1.0 + delta_w);
                    }
                }
            }
            if w != s {
                bc[w as usize] += delta[w as usize];
            }
        }
    }
    work.sources += n as u64;
    work.edge_visits += visits as u64;
    bc
}

/// The node with maximum betweenness — the paper's "center" of a ball:
/// "the node through which the highest number of pairs traverse"
/// (footnote 14). Ties break to the lowest id. Returns `None` for the
/// empty graph.
///
/// The answer is always the argmax of [`betweenness`]. A connected graph
/// with a leaf takes the fast path, [`folded_betweenness`], and keeps its
/// center when [`Folded::certified_center`] proves it is that argmax;
/// anything else runs [`betweenness`] itself.
pub fn betweenness_center(g: &Graph) -> Option<NodeId> {
    betweenness_center_counted(g).0
}

/// [`betweenness_center`], with the Brandes work it did: the fast path's
/// sweep, plus the reference sweep when it fell back.
pub fn betweenness_center_counted(g: &Graph) -> (Option<NodeId>, BrandesWork) {
    let mut work = BrandesWork::default();
    if let Some(center) = fold_and_sweep(g, &mut work).and_then(|f| f.certified_center()) {
        return (Some(center), work);
    }
    let bc = betweenness_counted(g, &mut work);
    (argmax(&bc).map(|(v, _)| v), work)
}

/// The maximum and its node, ties to the lowest id.
fn argmax(values: &[f64]) -> Option<(NodeId, f64)> {
    values
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap().then(b.0.cmp(&a.0)))
        .map(|(i, &x)| (i as NodeId, x))
}

/// Betweenness from [`folded_betweenness`]: every node's value and the
/// relative distance within which each lies of [`betweenness`]'s.
#[derive(Clone, Debug, PartialEq)]
pub struct Folded {
    /// Per-node betweenness.
    pub values: Vec<f64>,
    /// For every node `v`, `|values[v] − betweenness(g)[v]| ≤ tolerance ·
    /// values[v]`. Zero when the graph is a tree: both sides are then
    /// the exact integers.
    pub tolerance: f64,
}

impl Folded {
    /// The argmax of `values` (ties to the lowest id), when it is
    /// provably the argmax of [`betweenness`] too: the values are exact,
    /// or the top value beats every other by more than `4 · tolerance ·
    /// top`. Within the tolerance, the reference's top value is at
    /// least `top·(1 − tolerance)` and every other at most
    /// `second·(1 + tolerance)`, so a gap above `2 · tolerance · top`
    /// already orders them; the factor 2 on top absorbs the rounding of
    /// the test itself. `None` means a near-tie the values cannot settle.
    pub fn certified_center(&self) -> Option<NodeId> {
        let (center, top) = argmax(&self.values)?;
        if self.tolerance == 0.0 {
            return Some(center);
        }
        let second = self
            .values
            .iter()
            .enumerate()
            .filter(|&(v, _)| v != center as usize)
            .map(|(_, &x)| x)
            .fold(0.0f64, f64::max);
        (top - second > 4.0 * self.tolerance * top).then_some(center)
    }
}

/// Largest node count whose betweenness values are exact in an `f64`:
/// every value is at most `(n − 1)² < 2^53`.
const MAX_EXACT_NODES: usize = 1 << 26;

/// Path counts at or above this may already have been rounded.
const SIGMA_LIMIT: f64 = 9_007_199_254_740_992.0; // 2^53

/// Betweenness by folding degree-1 trees (Baglioni et al., ASONAM 2012),
/// then sweeping only the 2-core. `None`, and [`betweenness`] is the
/// answer, when `g` has no leaf, is disconnected, has a path count that
/// reaches 2^53, or is too large for the bound below to mean anything.
///
/// **Fold.** [`peel_leaves`] removes leaves until only the 2-core is
/// left. A node `v` carries `r_v`, itself plus everything folded into it,
/// and `sq_v`, the sum of `r_c²` over the subtrees `c` folded into it.
/// Its branches are those subtrees and the `N − r_v` nodes beyond it, and
/// every path between two different branches crosses `v` exactly once,
/// so `v` lies on `(N − 1)² − sq_v − (N − r_v)²` ordered pairs that
/// way. That is the whole betweenness of a folded node, an exact
/// integer; a graph that folds completely is a tree and needs nothing
/// more.
///
/// **Sweep.** The remaining pairs have both endpoints' subtrees hanging
/// off different 2-core nodes `s ≠ t` and run `s → t` inside the 2-core,
/// which the fold leaves with the same path counts σ. A weighted Brandes
/// pass over a compacted CSR of the 2-core counts them: per source `s`,
/// `δ_v += σ_v · (r_w + δ_w) / σ_w` over each successor `w`, then
/// `bc_w += r_s · δ_w`.
///
/// **Bound.** With σ below 2^53 every σ is exact, and both this and
/// [`betweenness`] sum products and quotients of non-negative numbers:
/// no cancellation, and nothing underflows. Each result is then within
/// `γ_k = k·u / (1 − k·u)` (u = 2^−53) of the exact value, relative,
/// where `k` bounds the roundings along any term's chain. A successor's
/// term costs 3 roundings (add, divide, multiply) on top of the
/// successor's own, and summing at most Δ terms (Δ the maximum degree)
/// costs Δ − 1, so δ at BFS depth `d` carries at most `(D − d)(Δ + 2)`,
/// with `D` the largest BFS depth. The sum over sources adds one per
/// source, and here the weight and the fold's integer one more each:
/// - reference: `k_ref = (D − 1)(Δ + 2) + N − 1`, where `D ≤ D_core +
///   2H` for `H` the deepest folded subtree;
/// - fast: `k_fast = (D_core − 1)(Δ + 2) + n_core + 1`.
///
/// Both are within their γ of the same exact value, so `tolerance =
/// 2(γ_ref + γ_fast)` bounds their distance relative to this value (for
/// γ below 1/2).
pub fn folded_betweenness(g: &Graph) -> Option<Folded> {
    fold_and_sweep(g, &mut BrandesWork::default())
}

/// [`folded_betweenness`], adding its sweep's work to `work` — also when
/// it gives up partway.
fn fold_and_sweep(g: &Graph, work: &mut BrandesWork) -> Option<Folded> {
    let n = g.node_count();
    if n > MAX_EXACT_NODES || !g.nodes().any(|v| g.degree(v) == 1) {
        return None;
    }
    let mut r = vec![1u64; n];
    let mut sq = vec![0u64; n];
    let mut height = vec![0u32; n];
    let mut roots = 0;
    let removed = peel_leaves(g, |v, parent| match parent {
        Some(p) => {
            let (v, p) = (v as usize, p as usize);
            r[p] += r[v];
            sq[p] += r[v] * r[v];
            height[p] = height[p].max(height[v] + 1);
        }
        None => roots += 1,
    });
    let total = n as u64;
    let mut values: Vec<f64> = (0..n)
        .map(|v| ((total - 1).pow(2) - sq[v] - (total - r[v]).pow(2)) as f64)
        .collect();
    let core: Vec<NodeId> = (0..n as NodeId).filter(|&v| !removed[v as usize]).collect();
    if core.is_empty() {
        // A tree (one root) or a forest (several).
        return (roots == 1).then_some(Folded {
            values,
            tolerance: 0.0,
        });
    }
    if roots > 0 {
        return None; // a tree component apart from the 2-core
    }
    let weight: Vec<f64> = core.iter().map(|&v| r[v as usize] as f64).collect();
    let (core_bc, core_depth) = weighted_sweep(&induced_subgraph(g, &core).0, &weight, work)?;
    for (&v, &x) in core.iter().zip(&core_bc) {
        values[v as usize] += x;
    }
    let depth_bound = |d: u32| f64::from(d.saturating_sub(1));
    let max_degree = g.max_degree() as f64;
    let deepest_fold = core.iter().map(|&v| height[v as usize]).max().unwrap_or(0);
    let k_ref = depth_bound(core_depth + 2 * deepest_fold) * (max_degree + 2.0) + n as f64 - 1.0;
    let k_fast = depth_bound(core_depth) * (max_degree + 2.0) + core.len() as f64 + 1.0;
    let tolerance = 2.0 * (gamma(k_ref)? + gamma(k_fast)?);
    Some(Folded { values, tolerance })
}

/// Higham's `γ_k = k·u / (1 − k·u)`, `u = 2^−53`; `None` once `k·u`
/// reaches 10^−3, where a relative bound no longer says anything useful.
fn gamma(k: f64) -> Option<f64> {
    let ku = k * (f64::EPSILON / 2.0);
    (ku < 1e-3).then(|| ku / (1.0 - ku))
}

/// The weighted Brandes pass over a connected 2-core whose node `v`
/// carries `weight[v]` folded nodes: each node's betweenness over pairs
/// hanging off two other 2-core nodes, and the largest BFS depth. `None`
/// when the core is disconnected or a path count reaches 2^53.
fn weighted_sweep(core: &Graph, weight: &[f64], work: &mut BrandesWork) -> Option<(Vec<f64>, u32)> {
    let n = core.node_count();
    let mut bc = vec![0.0f64; n];
    let mut dist = vec![UNREACHED; n];
    let mut sigma = vec![0.0f64; n];
    let mut delta = vec![0.0f64; n];
    let mut order: Vec<NodeId> = Vec::with_capacity(n);
    let mut depth = 0;
    for s in 0..n as NodeId {
        for &v in &order {
            dist[v as usize] = UNREACHED;
            sigma[v as usize] = 0.0;
            delta[v as usize] = 0.0;
        }
        order.clear();
        dist[s as usize] = 0;
        sigma[s as usize] = 1.0;
        order.push(s);
        let mut head = 0;
        while let Some(&u) = order.get(head) {
            head += 1;
            let du = dist[u as usize];
            for &v in core.neighbors(u) {
                if dist[v as usize] == UNREACHED {
                    dist[v as usize] = du + 1;
                    order.push(v);
                }
                if dist[v as usize] == du + 1 {
                    sigma[v as usize] += sigma[u as usize];
                }
            }
        }
        work.sources += 1;
        work.edge_visits += 2 * core.edge_count() as u64;
        if order.len() < n {
            return None;
        }
        depth = depth.max(dist[order[n - 1] as usize]);
        let weight_s = weight[s as usize];
        for &w in order.iter().rev() {
            let dw = dist[w as usize];
            if sigma[w as usize] >= SIGMA_LIMIT {
                return None;
            }
            if dw >= 2 {
                work.edge_visits += core.degree(w) as u64;
                let coeff = (weight[w as usize] + delta[w as usize]) / sigma[w as usize];
                for &v in core.neighbors(w) {
                    if dist[v as usize] + 1 == dw {
                        delta[v as usize] += sigma[v as usize] * coeff;
                    }
                }
            }
            if w != s {
                bc[w as usize] += weight_s * delta[w as usize];
            }
        }
    }
    Some((bc, depth))
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;

    #[test]
    fn apsp_on_path() {
        let g = Graph::from_edges(4, (0..3).map(|i| (i, i + 1)));
        let d = all_pairs_distances(&g);
        let n = 4;
        for u in 0..n {
            for v in 0..n {
                assert_eq!(d[u * n + v], (u as i64 - v as i64).unsigned_abs() as u32);
            }
        }
    }

    #[test]
    fn apsp_disconnected() {
        let g = Graph::from_edges(3, vec![(0, 1)]);
        let d = all_pairs_distances(&g);
        assert_eq!(d[2], UNREACHED);
        assert_eq!(d[2 * 3 + 2], 0);
    }

    #[test]
    fn betweenness_path_middle_highest() {
        let g = Graph::from_edges(5, (0..4).map(|i| (i, i + 1)));
        let bc = betweenness(&g);
        // Middle node lies on the most shortest paths.
        assert!(bc[2] > bc[1]);
        assert!(bc[1] > bc[0]);
        assert_eq!(bc[0], 0.0);
        assert_eq!(betweenness_center(&g), Some(2));
    }

    #[test]
    fn betweenness_star_center() {
        let g = Graph::from_edges(5, (1..5).map(|i| (0, i)));
        let bc = betweenness(&g);
        // Ordered pairs among 4 leaves = 12, all through the hub.
        assert!((bc[0] - 12.0).abs() < 1e-9);
        for v in 1..5 {
            assert_eq!(bc[v], 0.0);
        }
        assert_eq!(betweenness_center(&g), Some(0));
    }

    #[test]
    fn betweenness_cycle_symmetric() {
        let g = Graph::from_edges(6, (0..6).map(|i| (i, (i + 1) % 6)));
        let bc = betweenness(&g);
        for v in 1..6 {
            assert!(
                (bc[v] - bc[0]).abs() < 1e-9,
                "cycle betweenness must be uniform"
            );
        }
    }

    #[test]
    fn betweenness_equal_cost_split() {
        // 4-cycle: paths between opposite nodes split over both sides.
        let g = Graph::from_edges(4, vec![(0, 1), (1, 2), (2, 3), (3, 0)]);
        let bc = betweenness(&g);
        // By symmetry all nodes have the same betweenness: each pair of
        // opposite nodes contributes 1/2 to each intermediate node, and
        // there are 2 ordered pairs through each node → 1.0.
        for v in 0..4 {
            assert!((bc[v] - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn center_of_empty_graph() {
        assert_eq!(betweenness_center(&Graph::empty(0)), None);
    }

    /// Triangle 0-1-2 with the path 2-3-4 and the leaf 1-5 hanging off.
    fn triangle_with_tails() -> Graph {
        Graph::from_edges(6, vec![(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (1, 5)])
    }

    #[test]
    fn folded_tree_values_are_the_exact_integers() {
        // A path of 6: the two middle nodes tie, and the lower id wins.
        let path = Graph::from_edges(6, (0..5).map(|i| (i, i + 1)));
        let tree = Graph::from_edges(7, vec![(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)]);
        let star = Graph::from_edges(5, (1..5).map(|i| (0, i)));
        for g in [path, tree, star, Graph::from_edges(2, vec![(0, 1)])] {
            let folded = folded_betweenness(&g).expect("a tree folds");
            assert_eq!(folded.tolerance, 0.0);
            assert_eq!(folded.values, betweenness(&g));
            assert_eq!(folded.certified_center(), betweenness_center_counted(&g).0);
        }
        let path = Graph::from_edges(6, (0..5).map(|i| (i, i + 1)));
        assert_eq!(betweenness_center(&path), Some(2));
        // A tree needs no sweep at all.
        assert_eq!(betweenness_center_counted(&path).1, BrandesWork::default());
    }

    #[test]
    fn folded_values_lie_within_the_tolerance() {
        let g = triangle_with_tails();
        let folded = folded_betweenness(&g).expect("connected with leaves");
        let reference = betweenness(&g);
        assert!(folded.tolerance > 0.0 && folded.tolerance < 1e-12);
        for (v, (&fast, &slow)) in folded.values.iter().zip(&reference).enumerate() {
            assert!(
                (fast - slow).abs() <= folded.tolerance * fast,
                "node {v}: folded {fast}, reference {slow}"
            );
        }
        // Node 2 joins the 3-4 tail to nodes 0, 1, 5: 12 ordered pairs;
        // node 1 joins leaf 5 to the other four: 8.
        assert_eq!((reference[1], reference[2]), (8.0, 12.0));
        assert_eq!(folded.certified_center(), Some(2));
        let (center, work) = betweenness_center_counted(&g);
        assert_eq!(center, Some(2));
        // Only the triangle is swept: 3 sources, 6 entries forward each.
        assert_eq!(work.sources, 3);
        assert_eq!(work.edge_visits, 18);
    }

    #[test]
    fn no_fast_path_without_a_leaf_or_when_disconnected() {
        let cycle = Graph::from_edges(5, (0..5).map(|i| (i, (i + 1) % 5)));
        assert_eq!(folded_betweenness(&cycle), None);
        let two_paths = Graph::from_edges(4, vec![(0, 1), (2, 3)]);
        assert_eq!(folded_betweenness(&two_paths), None);
        let tree_beside_cycle =
            Graph::from_edges(7, vec![(0, 1), (1, 2), (2, 0), (2, 3), (4, 5), (5, 6)]);
        assert_eq!(folded_betweenness(&tree_beside_cycle), None);
        // The reference answers instead, and reports its full sweep.
        let (center, work) = betweenness_center_counted(&cycle);
        assert_eq!(center, Some(0));
        assert_eq!(work.sources, 5);
    }

    #[test]
    fn exact_ties_are_not_certified() {
        // A 4-cycle with one leaf on each of two opposite corners: the
        // corners tie exactly, so the fast values cannot pick one.
        let g = Graph::from_edges(6, vec![(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (2, 5)]);
        let folded = folded_betweenness(&g).expect("connected with leaves");
        assert_eq!(folded.certified_center(), None);
        let (center, work) = betweenness_center_counted(&g);
        assert_eq!(center, Some(0));
        // Fast sweep over the 4-cycle, then the reference over all 6.
        assert_eq!(work.sources, 4 + 6);
    }
}
