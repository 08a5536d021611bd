//! Induced subgraphs and ball extraction.
//!
//! A *ball* of radius `h` around a node is the subgraph induced by all
//! nodes within `h` hops — the basic unit of the paper's ball-growing
//! methodology (§3.2.1): resilience, distortion, vertex cover,
//! biconnectivity and clustering are all computed on subgraphs inside
//! balls of growing radius.

use crate::bfs::ball_nodes;
use crate::{Graph, GraphBuilder, NodeId};

/// Mapping between a subgraph's dense node ids and the original graph's.
#[derive(Clone, Debug, Default)]
pub struct SubgraphMap {
    /// `to_orig[sub_id] = original_id`.
    to_orig: Vec<NodeId>,
}

impl SubgraphMap {
    /// An empty mapping.
    pub fn empty() -> Self {
        SubgraphMap {
            to_orig: Vec::new(),
        }
    }

    /// Build from an explicit `subgraph id → original id` table.
    pub fn from_originals(to_orig: Vec<NodeId>) -> Self {
        SubgraphMap { to_orig }
    }

    /// The original id of subgraph node `v`.
    pub fn to_original(&self, v: NodeId) -> NodeId {
        self.to_orig[v as usize]
    }

    /// Number of nodes in the subgraph.
    pub fn len(&self) -> usize {
        self.to_orig.len()
    }

    /// Whether the subgraph is empty.
    pub fn is_empty(&self) -> bool {
        self.to_orig.is_empty()
    }

    /// Slice of original ids indexed by subgraph id.
    pub fn originals(&self) -> &[NodeId] {
        &self.to_orig
    }
}

/// The subgraph induced by `keep` (need not be sorted; duplicates are a
/// bug and panic in debug builds). Returns the new graph plus the mapping
/// to original ids; subgraph ids follow the order of `keep`.
pub fn induced_subgraph(g: &Graph, keep: &[NodeId]) -> (Graph, SubgraphMap) {
    let mut inv = vec![u32::MAX; g.node_count()];
    for (i, &v) in keep.iter().enumerate() {
        debug_assert_eq!(inv[v as usize], u32::MAX, "duplicate node in keep set");
        inv[v as usize] = i as u32;
    }
    induced_subgraph_by(g, keep, |w| {
        Some(inv[w as usize]).filter(|&j| j != u32::MAX)
    })
}

/// [`induced_subgraph`] with the caller's lookup of each node's index in
/// `keep` (`None` when not kept), for callers that can answer it
/// without an `n`-sized inverse map.
pub(crate) fn induced_subgraph_by(
    g: &Graph,
    keep: &[NodeId],
    index: impl Fn(NodeId) -> Option<u32>,
) -> (Graph, SubgraphMap) {
    let mut b = GraphBuilder::new(keep.len());
    for (i, &v) in keep.iter().enumerate() {
        for &w in g.neighbors(v) {
            // Add each edge once (from the smaller subgraph id).
            if let Some(j) = index(w) {
                if (i as u32) < j {
                    b.add_edge(i as NodeId, j);
                }
            }
        }
    }
    (
        b.build(),
        SubgraphMap {
            to_orig: keep.to_vec(),
        },
    )
}

/// The ball of radius `h` centered at `center`: the subgraph induced by
/// all nodes within `h` hops. Node 0 of the returned subgraph is always
/// the center.
pub fn ball(g: &Graph, center: NodeId, h: u32) -> (Graph, SubgraphMap) {
    let nodes = ball_nodes(g, center, h);
    debug_assert_eq!(nodes.first(), Some(&center));
    induced_subgraph(g, &nodes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid3() -> Graph {
        // 3x3 grid, ids row-major.
        let mut e = Vec::new();
        for r in 0..3u32 {
            for c in 0..3u32 {
                let v = r * 3 + c;
                if c + 1 < 3 {
                    e.push((v, v + 1));
                }
                if r + 1 < 3 {
                    e.push((v, v + 3));
                }
            }
        }
        Graph::from_edges(9, e)
    }

    #[test]
    fn induced_preserves_internal_edges() {
        let g = grid3();
        let (sub, map) = induced_subgraph(&g, &[0, 1, 3, 4]);
        assert_eq!(sub.node_count(), 4);
        // 2x2 corner of the grid: 4 edges.
        assert_eq!(sub.edge_count(), 4);
        assert_eq!(map.to_original(0), 0);
        assert_eq!(map.to_original(3), 4);
    }

    #[test]
    fn induced_empty_keep() {
        let g = grid3();
        let (sub, map) = induced_subgraph(&g, &[]);
        assert_eq!(sub.node_count(), 0);
        assert!(map.is_empty());
    }

    #[test]
    fn ball_radius_zero_is_center() {
        let g = grid3();
        let (sub, map) = ball(&g, 4, 0);
        assert_eq!(sub.node_count(), 1);
        assert_eq!(sub.edge_count(), 0);
        assert_eq!(map.to_original(0), 4);
    }

    #[test]
    fn ball_radius_one_around_grid_center() {
        let g = grid3();
        let (sub, map) = ball(&g, 4, 1);
        // Center 4 plus its 4 neighbors; plus edges only among those:
        // the cross has 4 edges (no edges among the arms).
        assert_eq!(sub.node_count(), 5);
        assert_eq!(sub.edge_count(), 4);
        assert_eq!(map.to_original(0), 4);
    }

    #[test]
    fn ball_covers_whole_graph_at_diameter() {
        let g = grid3();
        let (sub, _) = ball(&g, 0, 4);
        assert_eq!(sub.node_count(), 9);
        assert_eq!(sub.edge_count(), 12);
    }

    #[test]
    fn ball_excludes_other_component() {
        let g = Graph::from_edges(5, vec![(0, 1), (1, 2), (3, 4)]);
        let (sub, map) = ball(&g, 0, 10);
        assert_eq!(sub.node_count(), 3);
        assert!(map.originals().iter().all(|&v| v <= 2));
    }

    #[test]
    fn subgraph_ids_follow_keep_order() {
        let g = grid3();
        let (_, map) = induced_subgraph(&g, &[8, 2, 5]);
        assert_eq!(map.originals(), &[8, 2, 5]);
        assert_eq!(map.to_original(1), 2);
    }
}
