//! Barabási–Albert preferential attachment \[4\] and the Albert–Barabási
//! extended model with link addition and rewiring \[2\].
//!
//! The B-A model grows the graph one node at a time; each new node
//! attaches `m` links to existing nodes with probability proportional to
//! their current degree. The extended model interleaves growth with two
//! local events: with probability `p` add `m` links between existing
//! nodes (one endpoint uniform, the other preferential), with probability
//! `q` rewire `m` existing links preferentially, and otherwise grow as in
//! plain B-A. Appendix D.1 uses both as alternative connectivity methods
//! for power-law graphs.

use rand::rngs::StdRng;
use rand::Rng;
use topogen_graph::{Graph, GraphBuilder, NodeId};

/// Parameters for the plain B-A model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BaParams {
    /// Final number of nodes.
    pub n: usize,
    /// Links added per new node (also the size of the initial clique).
    pub m: usize,
}

/// Grow a Barabási–Albert graph: start from an `m`-node connected seed
/// (a clique keeps early attachment well-defined) and attach each new
/// node with `m` preferential links. Always connected.
///
/// # Panics
/// Panics if `m == 0` or `n < m`.
pub fn barabasi_albert<R: Rng>(params: &BaParams, rng: &mut R) -> Graph {
    let BaParams { n, m } = *params;
    assert!(m >= 1, "BA needs m >= 1");
    assert!(n >= m.max(2), "n must be at least max(m, 2)");
    let mut b = GraphBuilder::new(n);
    // `targets` holds one entry per degree unit — sampling uniformly from
    // it is exactly degree-proportional sampling.
    let mut stubs: Vec<NodeId> = Vec::with_capacity(4 * n * m);
    let seed = m.max(2).min(n);
    for i in 0..seed {
        for j in (i + 1)..seed {
            b.add_edge(i as NodeId, j as NodeId);
            stubs.push(i as NodeId);
            stubs.push(j as NodeId);
        }
    }
    for v in seed..n {
        let v = v as NodeId;
        let mut chosen: Vec<NodeId> = Vec::with_capacity(m);
        let mut guard = 0usize;
        while chosen.len() < m && guard < 100 * (m + 1) {
            guard += 1;
            let t = stubs[rng.gen_range(0..stubs.len())];
            if t != v && !chosen.contains(&t) {
                chosen.push(t);
            }
        }
        for &t in &chosen {
            b.add_edge(v, t);
            stubs.push(v);
            stubs.push(t);
        }
    }
    b.build()
}

impl crate::generate::Generate for BaParams {
    fn generate(&self, rng: &mut StdRng) -> Graph {
        barabasi_albert(self, rng)
    }

    fn canonical_params(&self) -> String {
        format!("n={},m={}", self.n, self.m)
    }
}

/// Parameters for the Albert–Barabási extended model \[2\].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AlbertBarabasiParams {
    /// Final number of nodes.
    pub n: usize,
    /// Links manipulated per event.
    pub m: usize,
    /// Probability of a link-addition event.
    pub p: f64,
    /// Probability of a rewiring event (`p + q < 1`; the rest grows).
    pub q: f64,
}

/// The Albert–Barabási "local events and universality" model: growth
/// interleaved with preferential link addition and rewiring.
///
/// # Panics
/// Panics on invalid probabilities (`p + q >= 1`) or `m == 0`.
pub fn albert_barabasi<R: Rng>(params: &AlbertBarabasiParams, rng: &mut R) -> Graph {
    let AlbertBarabasiParams { n, m, p, q } = *params;
    assert!(m >= 1);
    assert!(p >= 0.0 && q >= 0.0 && p + q < 1.0, "need p + q < 1");
    // Maintain an explicit adjacency to support rewiring.
    let mut adj: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    let mut degree: Vec<usize> = vec![0; n];
    let seed = (m + 1).min(n);
    let mut active = seed; // nodes 0..active exist
    let add = |adj: &mut Vec<Vec<NodeId>>, degree: &mut Vec<usize>, u: NodeId, v: NodeId| {
        adj[u as usize].push(v);
        adj[v as usize].push(u);
        degree[u as usize] += 1;
        degree[v as usize] += 1;
    };
    for i in 0..seed {
        for j in (i + 1)..seed {
            add(&mut adj, &mut degree, i as NodeId, j as NodeId);
        }
    }
    // Preferential pick among nodes 0..active using "degree + 1" weights
    // (the model's smoothing so isolated nodes stay reachable).
    fn pick_pref<R: Rng>(degree: &[usize], active: usize, rng: &mut R) -> NodeId {
        let total: usize = degree[..active].iter().map(|&d| d + 1).sum();
        let mut r = rng.gen_range(0..total);
        for (v, &d) in degree[..active].iter().enumerate() {
            let w = d + 1;
            if r < w {
                return v as NodeId;
            }
            r -= w;
        }
        (active - 1) as NodeId
    }

    while active < n {
        let roll: f64 = rng.gen();
        if roll < p {
            // Add m links: one end uniform, other preferential.
            for _ in 0..m {
                let u = rng.gen_range(0..active) as NodeId;
                let v = pick_pref(&degree, active, rng);
                if u != v && !adj[u as usize].contains(&v) {
                    add(&mut adj, &mut degree, u, v);
                }
            }
        } else if roll < p + q {
            // Rewire m links: detach a random end of a random link from a
            // uniform node, re-attach preferentially.
            for _ in 0..m {
                let u = rng.gen_range(0..active) as NodeId;
                if adj[u as usize].is_empty() {
                    continue;
                }
                let k = rng.gen_range(0..adj[u as usize].len());
                let old = adj[u as usize][k];
                let newt = pick_pref(&degree, active, rng);
                if newt != u && newt != old && !adj[u as usize].contains(&newt) {
                    // Remove (u, old).
                    adj[u as usize].swap_remove(k);
                    let pos = adj[old as usize].iter().position(|&x| x == u).unwrap();
                    adj[old as usize].swap_remove(pos);
                    degree[old as usize] -= 1;
                    degree[u as usize] -= 1;
                    add(&mut adj, &mut degree, u, newt);
                }
            }
        } else {
            // Growth: new node with m preferential links.
            let v = active as NodeId;
            active += 1;
            let mut added = 0usize;
            let mut guard = 0usize;
            while added < m && guard < 100 * (m + 1) {
                guard += 1;
                let t = pick_pref(&degree, active - 1, rng);
                if t != v && !adj[v as usize].contains(&t) {
                    add(&mut adj, &mut degree, v, t);
                    added += 1;
                }
            }
        }
    }
    let mut b = GraphBuilder::new(n);
    for (u, nbrs) in adj.iter().enumerate() {
        for &v in nbrs {
            if (u as NodeId) < v {
                b.add_edge(u as NodeId, v);
            }
        }
    }
    b.build()
}

impl crate::generate::Generate for AlbertBarabasiParams {
    fn generate(&self, rng: &mut StdRng) -> Graph {
        // Rewiring can strand nodes; analyze the largest component.
        topogen_graph::components::largest_component(&albert_barabasi(self, rng)).0
    }

    fn canonical_params(&self) -> String {
        format!("n={},m={},p={:?},q={:?}", self.n, self.m, self.p, self.q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use topogen_graph::components::is_connected;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(23)
    }

    #[test]
    fn ba_node_and_edge_counts() {
        let g = barabasi_albert(&BaParams { n: 1000, m: 2 }, &mut rng());
        assert_eq!(g.node_count(), 1000);
        // Seed clique (1 edge for m=2) + 2 per subsequent node.
        assert_eq!(g.edge_count(), 1 + 2 * 998);
        assert!(is_connected(&g));
    }

    #[test]
    fn ba_minimum_degree_is_m() {
        let g = barabasi_albert(&BaParams { n: 500, m: 3 }, &mut rng());
        assert!(g.nodes().all(|v| g.degree(v) >= 3));
    }

    #[test]
    fn ba_heavy_tail() {
        let g = barabasi_albert(&BaParams { n: 5000, m: 2 }, &mut rng());
        // P(k) ~ k^-3: the max degree should far exceed the mean (≈4).
        assert!(g.max_degree() > 50, "max degree {}", g.max_degree());
    }

    #[test]
    fn ba_rich_get_richer() {
        // Early nodes should end with higher average degree than late ones.
        let g = barabasi_albert(&BaParams { n: 2000, m: 2 }, &mut rng());
        let early: f64 = (0..100).map(|v| g.degree(v) as f64).sum::<f64>() / 100.0;
        let late: f64 = (1900..2000).map(|v| g.degree(v) as f64).sum::<f64>() / 100.0;
        assert!(early > 2.0 * late, "early {early} vs late {late}");
    }

    #[test]
    fn ba_deterministic() {
        let p = BaParams { n: 300, m: 2 };
        let g1 = barabasi_albert(&p, &mut StdRng::seed_from_u64(4));
        let g2 = barabasi_albert(&p, &mut StdRng::seed_from_u64(4));
        assert_eq!(g1.edges(), g2.edges());
    }

    #[test]
    #[should_panic]
    fn ba_rejects_zero_m() {
        let _ = barabasi_albert(&BaParams { n: 10, m: 0 }, &mut rng());
    }

    #[test]
    fn ab_extended_runs_and_is_heavy_tailed() {
        let g = albert_barabasi(
            &AlbertBarabasiParams {
                n: 2000,
                m: 2,
                p: 0.2,
                q: 0.1,
            },
            &mut rng(),
        );
        assert_eq!(g.node_count(), 2000);
        assert!(g.max_degree() > 30, "max degree {}", g.max_degree());
    }

    #[test]
    fn ab_pure_growth_equals_ba_shape() {
        // p = q = 0 reduces to growth-only; degree floor ≈ m.
        let g = albert_barabasi(
            &AlbertBarabasiParams {
                n: 800,
                m: 2,
                p: 0.0,
                q: 0.0,
            },
            &mut rng(),
        );
        let min_deg = g.nodes().map(|v| g.degree(v)).min().unwrap();
        assert!(min_deg >= 1);
        assert!(is_connected(&g));
    }

    #[test]
    #[should_panic]
    fn ab_rejects_bad_probabilities() {
        let _ = albert_barabasi(
            &AlbertBarabasiParams {
                n: 10,
                m: 1,
                p: 0.6,
                q: 0.5,
            },
            &mut rng(),
        );
    }
}
