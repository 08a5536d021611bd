//! The Transit-Stub structural generator (GT-ITM; Calvert, Doar, Zegura
//! \[10\]) — §3.1.2.
//!
//! Transit-Stub imposes a two-level routing hierarchy: a connected random
//! graph of *transit domains*, each a connected random graph of transit
//! nodes; attached to every transit node are several *stub domains*
//! (connected random graphs) that reach the rest of the world through
//! their transit node. Optional extra transit-to-stub and stub-to-stub
//! edges add cross-hierarchy shortcuts.
//!
//! The paper's Figure 1 instance uses 3 stub domains per transit node, no
//! extra edges, 6 transit domains with edge probability 0.55, 6 nodes per
//! transit domain with edge probability 0.32, and 9 nodes per stub domain
//! with edge probability 0.248 → 1008 nodes, average degree ≈ 2.8.
//! GT-ITM guarantees every random sub-block is connected by resampling;
//! we patch components together instead (equivalent for the metrics, and
//! deterministic in the number of retries).

use rand::rngs::StdRng;
use rand::Rng;
use topogen_graph::unionfind::UnionFind;
use topogen_graph::{Graph, GraphBuilder, NodeId};

/// Parameters for the Transit-Stub generator, in GT-ITM order.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TransitStubParams {
    /// Stub domains attached to each transit node.
    pub stubs_per_transit_node: usize,
    /// Extra random transit-to-stub edges.
    pub extra_transit_stub_edges: usize,
    /// Extra random stub-to-stub edges.
    pub extra_stub_stub_edges: usize,
    /// Number of transit domains.
    pub transit_domains: usize,
    /// Edge probability between transit domains (domain-level graph).
    pub transit_domain_edge_prob: f64,
    /// Nodes per transit domain.
    pub transit_nodes_per_domain: usize,
    /// Edge probability among nodes within a transit domain.
    pub transit_edge_prob: f64,
    /// Nodes per stub domain.
    pub stub_nodes_per_domain: usize,
    /// Edge probability among nodes within a stub domain.
    pub stub_edge_prob: f64,
}

impl TransitStubParams {
    /// The paper's Figure 1 instance: `3 0 0 6 0.55 6 0.32 9 0.248`
    /// → 1008 nodes, average degree ≈ 2.78.
    pub fn paper_default() -> Self {
        TransitStubParams {
            stubs_per_transit_node: 3,
            extra_transit_stub_edges: 0,
            extra_stub_stub_edges: 0,
            transit_domains: 6,
            transit_domain_edge_prob: 0.55,
            transit_nodes_per_domain: 6,
            transit_edge_prob: 0.32,
            stub_nodes_per_domain: 9,
            stub_edge_prob: 0.248,
        }
    }

    /// Total node count this parameterization produces.
    pub fn node_count(&self) -> usize {
        let transit = self.transit_domains * self.transit_nodes_per_domain;
        transit + transit * self.stubs_per_transit_node * self.stub_nodes_per_domain
    }
}

/// Node roles in a generated Transit-Stub topology.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TsRole {
    /// A node inside a transit domain (the domain's index).
    Transit {
        /// Transit domain index.
        domain: u32,
    },
    /// A node inside a stub domain.
    Stub {
        /// Stub domain index (global, across all transit nodes).
        domain: u32,
    },
}

/// A Transit-Stub topology plus its hierarchy annotations (used by the
/// hierarchy sanity checks of §5: "the highest valued links in TS are in
/// the transit cloud").
#[derive(Clone, Debug)]
pub struct TransitStubTopology {
    /// The generated graph (always connected).
    pub graph: Graph,
    /// Role of each node.
    pub roles: Vec<TsRole>,
}

impl crate::generate::Generate for TransitStubParams {
    fn generate(&self, rng: &mut StdRng) -> Graph {
        // The sub-blocks are patched connected, so the projection is the
        // whole (connected) graph; roles stay available via
        // [`transit_stub`].
        transit_stub(self, rng).graph
    }

    fn canonical_params(&self) -> String {
        format!(
            "stubs_per_transit_node={},extra_transit_stub_edges={},extra_stub_stub_edges={},\
             transit_domains={},transit_domain_edge_prob={:?},transit_nodes_per_domain={},\
             transit_edge_prob={:?},stub_nodes_per_domain={},stub_edge_prob={:?}",
            self.stubs_per_transit_node,
            self.extra_transit_stub_edges,
            self.extra_stub_stub_edges,
            self.transit_domains,
            self.transit_domain_edge_prob,
            self.transit_nodes_per_domain,
            self.transit_edge_prob,
            self.stub_nodes_per_domain,
            self.stub_edge_prob
        )
    }
}

/// Generate a Transit-Stub topology.
///
/// # Panics
/// Panics if any structural count is zero or a probability is invalid.
pub fn transit_stub<R: Rng>(params: &TransitStubParams, rng: &mut R) -> TransitStubTopology {
    let p = *params;
    assert!(p.transit_domains >= 1 && p.transit_nodes_per_domain >= 1);
    assert!(p.stub_nodes_per_domain >= 1);
    assert!((0.0..=1.0).contains(&p.transit_domain_edge_prob));
    assert!((0.0..=1.0).contains(&p.transit_edge_prob));
    assert!((0.0..=1.0).contains(&p.stub_edge_prob));

    let n = p.node_count();
    let mut b = GraphBuilder::new(n);
    let mut roles = Vec::with_capacity(n);

    // Layout: transit nodes first (domain-major), then stub domains.
    let tn = p.transit_nodes_per_domain;
    let transit_count = p.transit_domains * tn;
    let transit_node = |domain: usize, i: usize| (domain * tn + i) as NodeId;
    for d in 0..p.transit_domains {
        for _ in 0..tn {
            let _ = d;
            roles.push(TsRole::Transit { domain: d as u32 });
        }
    }

    // 1. Connected random graph inside each transit domain.
    for d in 0..p.transit_domains {
        let members: Vec<NodeId> = (0..tn).map(|i| transit_node(d, i)).collect();
        connected_random_block(&mut b, &members, p.transit_edge_prob, rng);
    }

    // 2. Domain-level connectivity: random graph over domains, patched to
    // a connected graph; each domain edge becomes one node-level edge
    // between random members.
    let mut domain_edges: Vec<(usize, usize)> = Vec::new();
    for a in 0..p.transit_domains {
        for c in (a + 1)..p.transit_domains {
            if rng.gen::<f64>() < p.transit_domain_edge_prob {
                domain_edges.push((a, c));
            }
        }
    }
    let mut uf = UnionFind::new(p.transit_domains);
    for &(a, c) in &domain_edges {
        uf.union(a as u32, c as u32);
    }
    // Patch disconnected domain graph with a random chain of components.
    for d in 1..p.transit_domains {
        if !uf.same(0, d as u32) {
            uf.union(0, d as u32);
            let other = rng.gen_range(0..d);
            domain_edges.push((other, d));
        }
    }
    for (a, c) in domain_edges {
        let u = transit_node(a, rng.gen_range(0..tn));
        let v = transit_node(c, rng.gen_range(0..tn));
        b.add_edge(u, v);
    }

    // 3. Stub domains: connected random graphs, one edge up to their
    // transit node.
    let sn = p.stub_nodes_per_domain;
    let mut stub_domain_start: Vec<NodeId> = Vec::new(); // first node of each stub domain
    let mut next = transit_count;
    for t in 0..transit_count {
        for _ in 0..p.stubs_per_transit_node {
            let start = next;
            next += sn;
            let domain_idx = stub_domain_start.len() as u32;
            stub_domain_start.push(start as NodeId);
            for _ in 0..sn {
                roles.push(TsRole::Stub { domain: domain_idx });
            }
            let members: Vec<NodeId> = (start..start + sn).map(|v| v as NodeId).collect();
            connected_random_block(&mut b, &members, p.stub_edge_prob, rng);
            // Uplink: a random stub node to the owning transit node.
            let up = members[rng.gen_range(0..members.len())];
            b.add_edge(up, t as NodeId);
        }
    }
    debug_assert_eq!(next, n);
    debug_assert_eq!(roles.len(), n);

    // 4. Extra cross-hierarchy edges.
    let stub_domains = stub_domain_start.len();
    for _ in 0..p.extra_transit_stub_edges {
        let sd = rng.gen_range(0..stub_domains);
        let su = stub_domain_start[sd] + rng.gen_range(0..sn) as NodeId;
        let tv = rng.gen_range(0..transit_count) as NodeId;
        b.add_edge(su, tv);
    }
    for _ in 0..p.extra_stub_stub_edges {
        if stub_domains < 2 {
            break;
        }
        let d1 = rng.gen_range(0..stub_domains);
        let mut d2 = rng.gen_range(0..stub_domains - 1);
        if d2 >= d1 {
            d2 += 1;
        }
        let u = stub_domain_start[d1] + rng.gen_range(0..sn) as NodeId;
        let v = stub_domain_start[d2] + rng.gen_range(0..sn) as NodeId;
        b.add_edge(u, v);
    }

    TransitStubTopology {
        graph: b.build(),
        roles,
    }
}

/// Add a G(k, prob) random graph over `members`, then patch components
/// together with random inter-component edges so the block is connected.
fn connected_random_block<R: Rng>(
    b: &mut GraphBuilder,
    members: &[NodeId],
    prob: f64,
    rng: &mut R,
) {
    let k = members.len();
    let mut uf = UnionFind::new(k);
    for i in 0..k {
        for j in (i + 1)..k {
            if rng.gen::<f64>() < prob {
                b.add_edge(members[i], members[j]);
                uf.union(i as u32, j as u32);
            }
        }
    }
    for i in 1..k {
        if !uf.same(0, i as u32) {
            uf.union(0, i as u32);
            let other = rng.gen_range(0..i);
            b.add_edge(members[other], members[i]);
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
        StdRng::seed_from_u64(99)
    }

    #[test]
    fn paper_instance_counts() {
        let p = TransitStubParams::paper_default();
        assert_eq!(p.node_count(), 1008);
        let t = transit_stub(&p, &mut rng());
        assert_eq!(t.graph.node_count(), 1008);
        assert!(is_connected(&t.graph));
        // Figure 1 reports average degree 2.78; allow heuristic slack.
        let avg = t.graph.average_degree();
        assert!((2.2..3.4).contains(&avg), "avg degree {avg}");
    }

    #[test]
    fn role_partition() {
        let t = transit_stub(&TransitStubParams::paper_default(), &mut rng());
        let transit = t
            .roles
            .iter()
            .filter(|r| matches!(r, TsRole::Transit { .. }))
            .count();
        assert_eq!(transit, 36);
        assert_eq!(t.roles.len() - transit, 972);
    }

    #[test]
    fn stub_nodes_reach_world_via_transit() {
        // Removing all transit nodes must disconnect stub domains from
        // each other (no extra stub-stub edges in the default instance).
        let t = transit_stub(&TransitStubParams::paper_default(), &mut rng());
        let g = &t.graph;
        let stub_nodes: Vec<NodeId> = g
            .nodes()
            .filter(|&v| matches!(t.roles[v as usize], TsRole::Stub { .. }))
            .collect();
        let (stub_only, _) = topogen_graph::subgraph::induced_subgraph(g, &stub_nodes);
        let comps = topogen_graph::components::components(&stub_only);
        // Each stub domain is its own component: 36 transit nodes × 3.
        assert_eq!(comps.count(), 108);
    }

    #[test]
    fn extra_edges_add_shortcuts() {
        let mut p = TransitStubParams::paper_default();
        p.extra_stub_stub_edges = 50;
        p.extra_transit_stub_edges = 25;
        let base = transit_stub(
            &TransitStubParams::paper_default(),
            &mut StdRng::seed_from_u64(1),
        );
        let extra = transit_stub(&p, &mut StdRng::seed_from_u64(1));
        assert!(extra.graph.edge_count() > base.graph.edge_count() + 40);
    }

    #[test]
    fn two_level_hierarchy_single_transit_domain() {
        let p = TransitStubParams {
            stubs_per_transit_node: 2,
            extra_transit_stub_edges: 0,
            extra_stub_stub_edges: 0,
            transit_domains: 1,
            transit_domain_edge_prob: 1.0,
            transit_nodes_per_domain: 4,
            transit_edge_prob: 0.5,
            stub_nodes_per_domain: 5,
            stub_edge_prob: 0.3,
        };
        assert_eq!(p.node_count(), 4 + 4 * 2 * 5);
        let t = transit_stub(&p, &mut rng());
        assert!(is_connected(&t.graph));
    }

    #[test]
    fn deterministic() {
        let p = TransitStubParams::paper_default();
        let t1 = transit_stub(&p, &mut StdRng::seed_from_u64(5));
        let t2 = transit_stub(&p, &mut StdRng::seed_from_u64(5));
        assert_eq!(t1.graph.edges(), t2.graph.edges());
    }
}
