//! The Bu–Towsley Generalized Linear Preference (GLP) generator \[8\] —
//! the paper's "BT" degree-based generator.
//!
//! GLP modifies Barabási–Albert preferential attachment in two ways:
//! attachment probability is proportional to `degree − β` for a tunable
//! `β < 1` (letting the model match both the power-law exponent *and* the
//! clustering behaviour of the measured AS graph), and with probability
//! `p` each step adds links between existing nodes instead of growing.

use rand::rngs::StdRng;
use rand::Rng;
use topogen_graph::{Graph, GraphBuilder, NodeId};

/// Parameters for the GLP ("BT") generator.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GlpParams {
    /// Final number of nodes.
    pub n: usize,
    /// Links per event.
    pub m: usize,
    /// Probability that an event adds links among existing nodes rather
    /// than adding a node.
    pub p: f64,
    /// Preference shift β < 1 (Bu–Towsley fit β ≈ 0.6447 for the AS
    /// graph; attachment weight is `degree − β`).
    pub beta: f64,
}

impl GlpParams {
    /// Bu–Towsley's published AS-graph fit: m = 1.13 rounded to 1,
    /// p = 0.4695, β = 0.6447.
    pub fn paper_as_fit(n: usize) -> Self {
        GlpParams {
            n,
            m: 1,
            p: 0.4695,
            beta: 0.6447,
        }
    }
}

/// Generate a GLP graph.
///
/// # Panics
/// Panics if `beta >= 1`, `m == 0`, or `p` is not a probability.
pub fn glp<R: Rng>(params: &GlpParams, rng: &mut R) -> Graph {
    let GlpParams { n, m, p, beta } = *params;
    assert!(beta < 1.0, "GLP needs beta < 1");
    assert!(m >= 1);
    assert!((0.0..=1.0).contains(&p));
    let seed = (m + 1).max(2).min(n);
    let mut adj: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    let mut degree: Vec<f64> = vec![0.0; n];
    let mut active = seed;
    let connect = |adj: &mut Vec<Vec<NodeId>>, degree: &mut Vec<f64>, u: NodeId, v: NodeId| {
        adj[u as usize].push(v);
        adj[v as usize].push(u);
        degree[u as usize] += 1.0;
        degree[v as usize] += 1.0;
    };
    // Seed: a path (keeps degrees low so β-shifted weights stay positive).
    for i in 1..seed {
        connect(&mut adj, &mut degree, (i - 1) as NodeId, i as NodeId);
    }

    fn pick<R: Rng>(degree: &[f64], active: usize, beta: f64, rng: &mut R) -> NodeId {
        // Weight max(d − β, ε) keeps weights positive for any β < 1.
        let w = |d: f64| (d - beta).max(1e-9);
        let total: f64 = degree[..active].iter().map(|&d| w(d)).sum();
        let mut r = rng.gen::<f64>() * total;
        for (v, &d) in degree[..active].iter().enumerate() {
            r -= w(d);
            if r <= 0.0 {
                return v as NodeId;
            }
        }
        (active - 1) as NodeId
    }

    while active < n {
        if rng.gen::<f64>() < p && active >= 2 {
            // Add m links between existing nodes, both ends preferential.
            for _ in 0..m {
                let u = pick(&degree, active, beta, rng);
                let mut guard = 0;
                loop {
                    let v = pick(&degree, active, beta, rng);
                    guard += 1;
                    if (v != u && !adj[u as usize].contains(&v)) || guard > 50 {
                        if v != u && !adj[u as usize].contains(&v) {
                            connect(&mut adj, &mut degree, u, v);
                        }
                        break;
                    }
                }
            }
        } else {
            // Grow: new node with m preferential links.
            let v = active as NodeId;
            active += 1;
            let mut added = 0;
            let mut guard = 0;
            while added < m && guard < 100 * (m + 1) {
                guard += 1;
                let t = pick(&degree, active - 1, beta, rng);
                if t != v && !adj[v as usize].contains(&t) {
                    connect(&mut adj, &mut degree, v, t);
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

impl crate::generate::Generate for GlpParams {
    fn generate(&self, rng: &mut StdRng) -> Graph {
        // Link-addition events can leave stragglers behind; analyze the
        // largest component.
        topogen_graph::components::largest_component(&glp(self, rng)).0
    }

    fn canonical_params(&self) -> String {
        format!(
            "n={},m={},p={:?},beta={:?}",
            self.n, self.m, self.p, self.beta
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use topogen_graph::components::largest_component;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(31)
    }

    #[test]
    fn glp_basic_shape() {
        let g = glp(
            &GlpParams {
                n: 2000,
                m: 1,
                p: 0.45,
                beta: 0.64,
            },
            &mut rng(),
        );
        assert_eq!(g.node_count(), 2000);
        // Roughly (1/(1-p)) * m links per node.
        let avg = g.average_degree();
        assert!((1.5..6.0).contains(&avg), "avg degree {avg}");
    }

    #[test]
    fn glp_heavy_tail() {
        let g = glp(&GlpParams::paper_as_fit(5000), &mut rng());
        assert!(g.max_degree() > 50, "max degree {}", g.max_degree());
    }

    #[test]
    fn glp_largest_component_dominates() {
        let g = glp(&GlpParams::paper_as_fit(3000), &mut rng());
        let (lcc, _) = largest_component(&g);
        assert!(lcc.node_count() as f64 > 0.95 * 3000.0);
    }

    #[test]
    fn glp_deterministic() {
        let p = GlpParams {
            n: 400,
            m: 1,
            p: 0.3,
            beta: 0.5,
        };
        let g1 = glp(&p, &mut StdRng::seed_from_u64(8));
        let g2 = glp(&p, &mut StdRng::seed_from_u64(8));
        assert_eq!(g1.edges(), g2.edges());
    }

    #[test]
    fn glp_negative_beta_allowed() {
        // β < 0 flattens preference; still a valid regime.
        let g = glp(
            &GlpParams {
                n: 500,
                m: 2,
                p: 0.2,
                beta: -1.0,
            },
            &mut rng(),
        );
        assert_eq!(g.node_count(), 500);
    }

    #[test]
    #[should_panic]
    fn glp_rejects_beta_one() {
        let _ = glp(
            &GlpParams {
                n: 10,
                m: 1,
                p: 0.2,
                beta: 1.0,
            },
            &mut rng(),
        );
    }
}
