//! Weighted vertex cover of a traversal set (§5, footnote 27).
//!
//! The traversal set of a link forms a graph over the nodes appearing in
//! its pairs; each node `x` carries weight `W(x) = avg w(x, v, l)` over
//! the pairs containing `x`. The link's value is the minimum weighted
//! vertex cover of the pair set — approximated with the classical
//! primal-dual (local-ratio) algorithm \[30\], a 2-approximation.
//!
//! The hot loop (behind [`link_value`]) runs on a dense per-worker
//! node-indexed table: each distinct endpoint gets a compact index on
//! first sight, every per-node quantity (weight sums, primal-dual
//! residuals) lives in a dense vector behind it, and only the chosen
//! cover's nodes are sorted, to sum the value in ascending id order —
//! no hash maps and no per-pair searches anywhere on the link-value path.

use crate::traversal::PairWeight;
use topogen_graph::NodeId;

/// Node weights `W(x, l)` for one link's traversal set, remapped to a
/// compact index space: `ids` holds the sorted distinct endpoints and
/// `weights[i]` the average pair weight of `ids[i]`.
#[derive(Clone, Debug, PartialEq)]
pub struct NodeWeights {
    ids: Vec<NodeId>,
    weights: Vec<f64>,
}

impl NodeWeights {
    /// Build from explicit `(id, weight)` pairs (ids need not be
    /// sorted; duplicates are rejected). Mostly for tests and callers
    /// supplying custom weightings.
    pub fn from_pairs_list(mut entries: Vec<(NodeId, f64)>) -> NodeWeights {
        entries.sort_by_key(|&(x, _)| x);
        assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "duplicate node id in weight list"
        );
        NodeWeights {
            ids: entries.iter().map(|&(x, _)| x).collect(),
            weights: entries.iter().map(|&(_, w)| w).collect(),
        }
    }

    /// The sorted distinct node ids.
    pub fn ids(&self) -> &[NodeId] {
        &self.ids
    }

    /// Weights parallel to [`ids`](Self::ids).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Number of distinct nodes.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the traversal set was empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Weight of node `x`, if it appears in the set.
    pub fn get(&self, x: NodeId) -> Option<f64> {
        self.index_of(x).map(|i| self.weights[i])
    }

    /// Total weight over all nodes.
    pub fn total(&self) -> f64 {
        self.weights.iter().sum()
    }

    /// Compact index of node `x`.
    fn index_of(&self, x: NodeId) -> Option<usize> {
        self.ids.binary_search(&x).ok()
    }
}

/// Node weights `W(x, l)` for one link's traversal set: the average
/// pair weight over the pairs containing each node.
pub fn traversal_node_weights(pairs: &[PairWeight]) -> NodeWeights {
    let mut s = CoverScratch::for_pairs(pairs);
    s.weigh(pairs);
    NodeWeights::from_pairs_list(
        s.ids
            .iter()
            .copied()
            .zip(s.weights.iter().copied())
            .collect(),
    )
}

/// Primal-dual 2-approximate minimum weighted vertex cover of the pair
/// set, given node weights. Returns `(value, cover)` where `value` is
/// the total weight of the chosen nodes; the cover is listed in
/// ascending node-id order (and `value` summed in that order, so the
/// result is deterministic).
pub fn weighted_vertex_cover(pairs: &[PairWeight], weights: &NodeWeights) -> (f64, Vec<NodeId>) {
    let mut residual = weights.weights.clone();
    primal_dual(
        &mut residual,
        pairs.iter().map(|p| {
            let iu = weights.index_of(p.u).expect("pair endpoint has a weight");
            let iv = weights.index_of(p.v).expect("pair endpoint has a weight");
            (iu, iv)
        }),
    );
    let mut value = 0.0;
    let mut cover = Vec::new();
    for (i, &r) in residual.iter().enumerate() {
        if r <= TIGHT {
            value += weights.weights[i];
            cover.push(weights.ids[i]);
        }
    }
    (value, cover)
}

/// Residual at or below which a node counts as paid for (in the cover).
const TIGHT: f64 = 1e-12;

/// The primal-dual loop: for each pair in order whose endpoints both
/// still have residual weight, lower both by the smaller residual.
fn primal_dual(residual: &mut [f64], pairs: impl Iterator<Item = (usize, usize)>) {
    for (iu, iv) in pairs {
        if iu == iv {
            continue;
        }
        if residual[iu] <= TIGHT || residual[iv] <= TIGHT {
            continue; // already covered
        }
        let eps = residual[iu].min(residual[iv]);
        residual[iu] -= eps;
        residual[iv] -= eps;
    }
}

/// End-to-end value of one link: node weights from its traversal set,
/// then the weighted cover value. Zero for an empty traversal set.
pub fn link_value(pairs: &[PairWeight]) -> f64 {
    CoverScratch::for_pairs(pairs).link_value(pairs)
}

/// Marks a node without a compact index in [`CoverScratch`].
const UNSEEN: u32 = u32::MAX;

/// Reusable state of [`CoverScratch::link_value`]: a node-indexed table
/// of compact indices plus the dense per-index vectors behind it.
#[derive(Clone, Debug, Default)]
pub(crate) struct CoverScratch {
    /// Compact index of each node id, or [`UNSEEN`].
    slot: Vec<u32>,
    /// Distinct endpoints, in first-appearance order.
    ids: Vec<NodeId>,
    /// Per index: the weight sum, then the average weight.
    weights: Vec<f64>,
    /// Per index: pairs containing the node.
    counts: Vec<u32>,
    /// Per index: primal-dual residual.
    residual: Vec<f64>,
    /// The cover's `(id, weight)`s, sorted by id to sum the value.
    cover: Vec<(NodeId, f64)>,
}

impl CoverScratch {
    /// Scratch for traversal sets over nodes `0..n`.
    pub(crate) fn new(n: usize) -> CoverScratch {
        CoverScratch {
            slot: vec![UNSEEN; n],
            ..CoverScratch::default()
        }
    }

    /// Scratch sized for the endpoints of `pairs`.
    fn for_pairs(pairs: &[PairWeight]) -> CoverScratch {
        let n = pairs.iter().map(|p| p.u.max(p.v) as usize + 1).max();
        CoverScratch::new(n.unwrap_or(0))
    }

    /// [`link_value`] on this scratch: the same sums, residuals and
    /// ascending-id total, bit for bit.
    pub(crate) fn link_value(&mut self, pairs: &[PairWeight]) -> f64 {
        if pairs.is_empty() {
            return 0.0;
        }
        self.weigh(pairs);
        self.residual.clone_from(&self.weights);
        let slot = &self.slot;
        primal_dual(
            &mut self.residual,
            pairs
                .iter()
                .map(|p| (slot[p.u as usize] as usize, slot[p.v as usize] as usize)),
        );
        self.cover.clear();
        for (i, &r) in self.residual.iter().enumerate() {
            if r <= TIGHT {
                self.cover.push((self.ids[i], self.weights[i]));
            }
        }
        self.cover.sort_unstable_by_key(|&(x, _)| x);
        let value = self.cover.iter().fold(0.0, |acc, &(_, w)| acc + w);
        for &x in &self.ids {
            self.slot[x as usize] = UNSEEN;
        }
        value
    }

    /// Give each distinct endpoint a compact index and its average pair
    /// weight, summed in pair order.
    fn weigh(&mut self, pairs: &[PairWeight]) {
        self.ids.clear();
        self.weights.clear();
        self.counts.clear();
        for p in pairs {
            for x in [p.u, p.v] {
                let s = &mut self.slot[x as usize];
                if *s == UNSEEN {
                    *s = self.ids.len() as u32;
                    self.ids.push(x);
                    self.weights.push(0.0);
                    self.counts.push(0);
                }
                self.weights[*s as usize] += p.w;
                self.counts[*s as usize] += 1;
            }
        }
        for (w, &c) in self.weights.iter_mut().zip(&self.counts) {
            *w /= c as f64;
        }
    }
}

/// Validation helper: does `cover` hit every pair?
pub fn covers_all(pairs: &[PairWeight], cover: &[NodeId]) -> bool {
    let mut set: Vec<NodeId> = cover.to_vec();
    set.sort_unstable();
    pairs
        .iter()
        .all(|p| set.binary_search(&p.u).is_ok() || set.binary_search(&p.v).is_ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pw(u: NodeId, v: NodeId, w: f64) -> PairWeight {
        PairWeight { u, v, w }
    }

    #[test]
    fn access_link_cover_is_leaf() {
        // Star access link: pairs (leaf, x) for all x; leaf weight 1.
        let pairs: Vec<PairWeight> = (1..5).map(|v| pw(0, v, 1.0)).collect();
        let w = traversal_node_weights(&pairs);
        assert!((w.get(0).unwrap() - 1.0).abs() < 1e-12);
        let (value, cover) = weighted_vertex_cover(&pairs, &w);
        assert!(covers_all(&pairs, &cover));
        // The singleton {leaf} covers everything at weight 1 — the
        // paper's "access links have a vertex cover of 1".
        assert!(value <= 2.0, "value {value} (OPT = 1, 2-approx bound 2)");
    }

    #[test]
    fn bipartite_product_cover() {
        // Pairs = {0,1} × {2,3,4}, all weight 1: OPT covers {0,1} = 2.
        let mut pairs = Vec::new();
        for u in 0..2 {
            for v in 2..5 {
                pairs.push(pw(u, v, 1.0));
            }
        }
        let w = traversal_node_weights(&pairs);
        let (value, cover) = weighted_vertex_cover(&pairs, &w);
        assert!(covers_all(&pairs, &cover));
        assert!(value <= 4.0 + 1e-9, "value {value} (OPT 2)");
        assert!(value >= 2.0 - 1e-9);
    }

    #[test]
    fn empty_traversal_zero() {
        assert_eq!(link_value(&[]), 0.0);
    }

    #[test]
    fn single_pair() {
        let pairs = vec![pw(3, 7, 0.5)];
        let v = link_value(&pairs);
        // Each endpoint has weight 0.5; cover takes (at least) one.
        assert!((v - 0.5).abs() < 1e-9 || (v - 1.0).abs() < 1e-9);
    }

    #[test]
    fn two_approximation_bound_on_weighted_case() {
        // Triangle of pairs with distinct weights: OPT picks the two
        // cheapest? Pairs (0,1),(1,2),(0,2) — any cover needs 2 nodes.
        let pairs = vec![pw(0, 1, 1.0), pw(1, 2, 1.0), pw(0, 2, 1.0)];
        let w = NodeWeights::from_pairs_list(vec![(0, 1.0), (1, 0.1), (2, 1.0)]);
        let (value, cover) = weighted_vertex_cover(&pairs, &w);
        assert!(covers_all(&pairs, &cover));
        // OPT = {1, 0} or {1, 2} = 1.1; 2-approx allows ≤ 2.2.
        assert!(value <= 2.2 + 1e-9, "value {value}");
    }

    #[test]
    fn cover_value_monotone_in_pairs() {
        // More pairs can only increase (or keep) the cover value.
        let small = vec![pw(0, 1, 1.0)];
        let big = vec![pw(0, 1, 1.0), pw(2, 3, 1.0), pw(4, 5, 1.0)];
        assert!(link_value(&big) >= link_value(&small) - 1e-9);
    }

    #[test]
    fn scratch_matches_the_sorted_table_bit_for_bit() {
        // Endpoints arrive out of id order, so first-appearance indices
        // differ from sorted ones; the value must not.
        let pairs = vec![
            pw(9, 12, 0.3),
            pw(2, 9, 0.7),
            pw(4, 12, 0.1),
            pw(2, 4, 0.9),
            pw(0, 9, 0.25),
        ];
        let w = traversal_node_weights(&pairs);
        let (want, _) = weighted_vertex_cover(&pairs, &w);
        let mut s = CoverScratch::new(13);
        for _ in 0..2 {
            // Reuse leaves no state behind.
            assert_eq!(s.link_value(&pairs).to_bits(), want.to_bits());
        }
        assert_eq!(link_value(&pairs).to_bits(), want.to_bits());
    }

    #[test]
    fn compact_table_is_sorted_and_queryable() {
        let pairs = vec![pw(9, 2, 0.5), pw(2, 4, 1.0)];
        let w = traversal_node_weights(&pairs);
        assert_eq!(w.ids(), &[2, 4, 9]);
        assert_eq!(w.len(), 3);
        // Node 2 appears in both pairs: avg (0.5 + 1.0) / 2.
        assert!((w.get(2).unwrap() - 0.75).abs() < 1e-12);
        assert!(w.get(3).is_none());
        assert!((w.total() - (0.75 + 1.0 + 0.5)).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn duplicate_ids_rejected() {
        let _ = NodeWeights::from_pairs_list(vec![(1, 0.5), (1, 0.7)]);
    }
}
