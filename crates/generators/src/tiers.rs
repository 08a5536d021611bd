//! The Tiers structural generator (Doar \[14\]) — §3.1.2.
//!
//! Tiers models three levels of real network engineering: one WAN, a set
//! of MANs attached to it, and LANs hanging off each MAN. Every
//! non-LAN tier places its nodes in the plane, connects them with a
//! Euclidean *minimum spanning tree*, and then adds redundancy links "in
//! order of increasing inter-node Euclidean distance"; LANs are stars.
//! Inter-tier links attach each MAN to the WAN and each LAN to its MAN,
//! again with a configurable redundancy count.
//!
//! The geometric MST + nearest-neighbor redundancy is exactly why the
//! paper finds Tiers *mesh-like* in expansion (Figure 2(g)): its
//! connectivity is planar-geometric rather than random.
//!
//! Parameter vector order follows Appendix C: `W M L NW NM NL RW RM RL
//! RMW RLM` (number of WANs — fixed to 1 in the original tool — MANs per
//! WAN, LANs per MAN, nodes per tier, intra-network redundancies,
//! inter-network redundancies).

use rand::rngs::StdRng;
use rand::Rng;
use topogen_graph::geometry::{euclidean_mst, pairs_by_distance, Point};
use topogen_graph::{Graph, GraphBuilder, NodeId};

/// Parameters for the Tiers generator, in the Appendix C order.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TiersParams {
    /// Number of WANs (the original tool supports only 1).
    pub wans: usize,
    /// MANs per WAN.
    pub mans_per_wan: usize,
    /// LANs per MAN.
    pub lans_per_man: usize,
    /// Nodes per WAN.
    pub wan_nodes: usize,
    /// Nodes per MAN.
    pub man_nodes: usize,
    /// Nodes per LAN (including the LAN's hub).
    pub lan_nodes: usize,
    /// Intra-network redundancy for WAN nodes: each node is linked to its
    /// `RW` nearest neighbors (the MST provides the first links).
    pub wan_redundancy: usize,
    /// Intra-network redundancy for MAN nodes.
    pub man_redundancy: usize,
    /// Intra-network redundancy for LAN nodes (LANs are stars; values > 1
    /// add links between the star's leaves in distance order — rarely
    /// used).
    pub lan_redundancy: usize,
    /// Inter-network redundancy MAN→WAN: links from each MAN to the WAN.
    pub man_wan_redundancy: usize,
    /// Inter-network redundancy LAN→MAN: links from each LAN hub to its
    /// MAN.
    pub lan_man_redundancy: usize,
}

impl TiersParams {
    /// A 5000-node instance in the shape of the paper's Figure 1 row
    /// (1 WAN of 500 nodes, 50 MANs of 40 nodes, 10 LANs of 5 nodes per
    /// MAN; the printed redundancy values are not recoverable from the
    /// scan, so we use small redundancies that land on the reported
    /// average degree ≈ 2.8).
    pub fn paper_default() -> Self {
        TiersParams {
            wans: 1,
            mans_per_wan: 50,
            lans_per_man: 10,
            wan_nodes: 500,
            man_nodes: 40,
            lan_nodes: 5,
            wan_redundancy: 3,
            man_redundancy: 3,
            lan_redundancy: 1,
            man_wan_redundancy: 2,
            lan_man_redundancy: 1,
        }
    }

    /// Total node count.
    pub fn node_count(&self) -> usize {
        self.wans
            * (self.wan_nodes
                + self.mans_per_wan * (self.man_nodes + self.lans_per_man * self.lan_nodes))
    }
}

/// Tier of a node in a generated Tiers topology.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TierRole {
    /// WAN backbone node.
    Wan,
    /// MAN node (with its MAN index).
    Man {
        /// MAN index.
        man: u32,
    },
    /// LAN node (hub or leaf) with its global LAN index.
    Lan {
        /// LAN index.
        lan: u32,
        /// Whether this node is the LAN's star hub.
        hub: bool,
    },
}

/// A Tiers topology plus annotations (§5's sanity check: "the highest
/// valued links in Tiers are in the WAN").
#[derive(Clone, Debug)]
pub struct TiersTopology {
    /// The generated graph (always connected).
    pub graph: Graph,
    /// Tier of each node.
    pub roles: Vec<TierRole>,
}

impl crate::generate::Generate for TiersParams {
    fn generate(&self, rng: &mut StdRng) -> Graph {
        // Tiers is connected by construction (every network is an MST or
        // a star, every MAN/LAN uplinks at least once), so the full graph
        // is its own largest component — the paper's analysis graph.
        tiers_full(self, rng).graph
    }

    fn canonical_params(&self) -> String {
        format!(
            "wans={},mans_per_wan={},lans_per_man={},wan_nodes={},man_nodes={},lan_nodes={},\
             wan_redundancy={},man_redundancy={},lan_redundancy={},man_wan_redundancy={},\
             lan_man_redundancy={}",
            self.wans,
            self.mans_per_wan,
            self.lans_per_man,
            self.wan_nodes,
            self.man_nodes,
            self.lan_nodes,
            self.wan_redundancy,
            self.man_redundancy,
            self.lan_redundancy,
            self.man_wan_redundancy,
            self.lan_man_redundancy
        )
    }
}

/// Generate a Tiers *graph* — the analysis graph the paper measures.
///
/// This is the [`Generate`](crate::generate::Generate) entry point in
/// free-function form, consistent with the other generators. The richer
/// [`TiersTopology`] (graph plus per-node [`TierRole`] annotations, used
/// by the §5 hierarchy checks) remains available via [`tiers_full`].
///
/// # Panics
/// Panics if `wans != 1` (matching the original tool), or any count is 0.
pub fn tiers<R: Rng>(params: &TiersParams, rng: &mut R) -> Graph {
    tiers_full(params, rng).graph
}

/// Generate a full Tiers topology: the graph *and* the tier role of
/// every node.
///
/// # Panics
/// Panics if `wans != 1` (matching the original tool), or any count is 0.
pub fn tiers_full<R: Rng>(params: &TiersParams, rng: &mut R) -> TiersTopology {
    let p = *params;
    assert_eq!(p.wans, 1, "the Tiers tool supports exactly one WAN");
    assert!(p.wan_nodes >= 1 && p.man_nodes >= 1 && p.lan_nodes >= 1);
    let n = p.node_count();
    let mut b = GraphBuilder::new(n);
    let mut roles = Vec::with_capacity(n);

    // --- WAN ---
    let wan_pts: Vec<Point> = (0..p.wan_nodes)
        .map(|_| Point::new(rng.gen(), rng.gen()))
        .collect();
    let wan_ids: Vec<NodeId> = (0..p.wan_nodes as NodeId).collect();
    roles.extend(std::iter::repeat_n(TierRole::Wan, p.wan_nodes));
    mst_with_redundancy(&mut b, &wan_ids, &wan_pts, p.wan_redundancy);

    // --- MANs ---
    // Each MAN sits at a geographic location in the WAN's plane and
    // uplinks to the *nearest* WAN nodes (the original tool's placement;
    // attaching randomly instead would create small-world shortcuts and
    // destroy the mesh-like expansion the paper measures for Tiers).
    let mut next = p.wan_nodes;
    let mut man_ids_all: Vec<Vec<NodeId>> = Vec::with_capacity(p.mans_per_wan);
    for m in 0..p.mans_per_wan {
        let ids: Vec<NodeId> = (next..next + p.man_nodes).map(|v| v as NodeId).collect();
        next += p.man_nodes;
        roles.extend(std::iter::repeat_n(
            TierRole::Man { man: m as u32 },
            p.man_nodes,
        ));
        let center = Point::new(rng.gen(), rng.gen());
        // Intra-MAN geometry in a small disc around the center.
        let pts: Vec<Point> = (0..p.man_nodes)
            .map(|_| {
                Point::new(
                    center.x + 0.02 * (rng.gen::<f64>() - 0.5),
                    center.y + 0.02 * (rng.gen::<f64>() - 0.5),
                )
            })
            .collect();
        mst_with_redundancy(&mut b, &ids, &pts, p.man_redundancy);
        // Uplinks: the WAN nodes nearest to the MAN's location.
        let links = p.man_wan_redundancy.max(1);
        let mut order: Vec<usize> = (0..wan_pts.len()).collect();
        order.sort_by(|&a, &c| {
            wan_pts[a]
                .dist2(&center)
                .partial_cmp(&wan_pts[c].dist2(&center))
                .unwrap()
        });
        for k in 0..links.min(order.len()) {
            let u = ids[rng.gen_range(0..ids.len())];
            b.add_edge(u, wan_ids[order[k]]);
        }
        man_ids_all.push(ids);
    }

    // --- LANs ---
    let mut lan_idx = 0u32;
    for man_ids in &man_ids_all {
        for _ in 0..p.lans_per_man {
            let hub = next as NodeId;
            let ids: Vec<NodeId> = (next..next + p.lan_nodes).map(|v| v as NodeId).collect();
            next += p.lan_nodes;
            roles.push(TierRole::Lan {
                lan: lan_idx,
                hub: true,
            });
            roles.extend(std::iter::repeat_n(
                TierRole::Lan {
                    lan: lan_idx,
                    hub: false,
                },
                p.lan_nodes - 1,
            ));
            // Star topology around the hub.
            for &leaf in &ids[1..] {
                b.add_edge(hub, leaf);
            }
            // LAN → MAN uplinks from the hub.
            let links = p.lan_man_redundancy.max(1);
            for _ in 0..links {
                let v = man_ids[rng.gen_range(0..man_ids.len())];
                b.add_edge(hub, v);
            }
            lan_idx += 1;
        }
    }
    debug_assert_eq!(next, n);

    TiersTopology {
        graph: b.build(),
        roles,
    }
}

/// Connect `ids` with the Euclidean MST of `pts`, then raise redundancy:
/// iterate node pairs in order of increasing distance and add a link
/// whenever either endpoint still has fewer than `redundancy` links
/// within this network (the MST links count toward the quota).
fn mst_with_redundancy(b: &mut GraphBuilder, ids: &[NodeId], pts: &[Point], redundancy: usize) {
    debug_assert_eq!(ids.len(), pts.len());
    let k = ids.len();
    if k == 0 {
        return;
    }
    let mut local_deg = vec![0usize; k];
    let mut present = std::collections::HashSet::new();
    for (a, c) in euclidean_mst(pts) {
        b.add_edge(ids[a as usize], ids[c as usize]);
        local_deg[a as usize] += 1;
        local_deg[c as usize] += 1;
        present.insert((a.min(c), a.max(c)));
    }
    if redundancy <= 1 || k < 3 {
        return;
    }
    for (a, c) in pairs_by_distance(pts) {
        let key = (a.min(c), a.max(c));
        if present.contains(&key) {
            continue;
        }
        if local_deg[a as usize] < redundancy && local_deg[c as usize] < redundancy {
            b.add_edge(ids[a as usize], ids[c as usize]);
            local_deg[a as usize] += 1;
            local_deg[c as usize] += 1;
            present.insert(key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use topogen_graph::components::is_connected;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(123)
    }

    #[test]
    fn paper_instance_counts_and_connectivity() {
        let p = TiersParams::paper_default();
        assert_eq!(p.node_count(), 5000);
        let g = tiers(&p, &mut rng());
        assert_eq!(g.node_count(), 5000);
        assert!(is_connected(&g));
        // Figure 1 reports 2.83.
        let avg = g.average_degree();
        assert!((2.2..3.4).contains(&avg), "avg degree {avg}");
    }

    #[test]
    fn graph_entry_point_matches_full_topology() {
        let p = TiersParams::paper_default();
        let g = tiers(&p, &mut StdRng::seed_from_u64(8));
        let t = tiers_full(&p, &mut StdRng::seed_from_u64(8));
        assert_eq!(g.edges(), t.graph.edges());
    }

    #[test]
    fn role_counts() {
        let t = tiers_full(&TiersParams::paper_default(), &mut rng());
        let wan = t
            .roles
            .iter()
            .filter(|r| matches!(r, TierRole::Wan))
            .count();
        let man = t
            .roles
            .iter()
            .filter(|r| matches!(r, TierRole::Man { .. }))
            .count();
        let hubs = t
            .roles
            .iter()
            .filter(|r| matches!(r, TierRole::Lan { hub: true, .. }))
            .count();
        assert_eq!(wan, 500);
        assert_eq!(man, 2000);
        assert_eq!(hubs, 500);
    }

    #[test]
    fn lan_leaves_have_degree_one() {
        let t = tiers_full(&TiersParams::paper_default(), &mut rng());
        for v in t.graph.nodes() {
            if matches!(t.roles[v as usize], TierRole::Lan { hub: false, .. }) {
                assert_eq!(t.graph.degree(v), 1, "LAN leaf {v}");
            }
        }
    }

    #[test]
    fn redundancy_increases_edges() {
        let mut hi = TiersParams::paper_default();
        hi.wan_redundancy = 4;
        hi.man_redundancy = 4;
        let base = tiers(&TiersParams::paper_default(), &mut StdRng::seed_from_u64(1));
        let dense = tiers(&hi, &mut StdRng::seed_from_u64(1));
        assert!(dense.edge_count() > base.edge_count());
    }

    #[test]
    fn minimal_instance() {
        let p = TiersParams {
            wans: 1,
            mans_per_wan: 1,
            lans_per_man: 1,
            wan_nodes: 3,
            man_nodes: 2,
            lan_nodes: 2,
            wan_redundancy: 1,
            man_redundancy: 1,
            lan_redundancy: 1,
            man_wan_redundancy: 1,
            lan_man_redundancy: 1,
        };
        assert_eq!(p.node_count(), 7);
        let g = tiers(&p, &mut rng());
        assert!(is_connected(&g));
    }

    #[test]
    fn deterministic() {
        let p = TiersParams::paper_default();
        let a = tiers(&p, &mut StdRng::seed_from_u64(4));
        let b = tiers(&p, &mut StdRng::seed_from_u64(4));
        assert_eq!(a.edges(), b.edges());
    }

    #[test]
    #[should_panic]
    fn multiple_wans_rejected() {
        let mut p = TiersParams::paper_default();
        p.wans = 2;
        let _ = tiers(&p, &mut rng());
    }
}
