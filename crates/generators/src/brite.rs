//! A BRITE v1.0-style generator (Medina, Lakhina, Matta, Byers \[28\]).
//!
//! BRITE places nodes on a plane — uniformly or with a heavy-tailed
//! per-square density — and grows the network incrementally, joining each
//! new node to `m` existing nodes with probability proportional to their
//! degree, optionally damped by a Waxman distance factor. The paper used
//! "a heavy-tailed option when generating a network in our study" without
//! the geographic-bias feature; both options are exposed here.

use rand::rngs::StdRng;
use rand::Rng;
use topogen_graph::geometry::Point;
use topogen_graph::{Graph, GraphBuilder, NodeId};

/// Node placement strategy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Placement {
    /// Uniform over the unit square.
    Random,
    /// Heavy-tailed: the plane is divided into `squares × squares` cells
    /// and each cell receives a Pareto-distributed share of nodes — the
    /// "HT" placement the paper selected.
    HeavyTailed {
        /// Grid resolution (BRITE's "HS" parameter); 10–30 is typical.
        squares: usize,
    },
}

/// Parameters for the BRITE-like generator.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BriteParams {
    /// Final number of nodes.
    pub n: usize,
    /// Links per joining node (BRITE's `m`).
    pub m: usize,
    /// Node placement strategy.
    pub placement: Placement,
    /// Optional Waxman geographic damping `(alpha, beta)`; `None`
    /// reproduces the paper's configuration (pure preferential
    /// connectivity).
    pub waxman_bias: Option<(f64, f64)>,
}

impl BriteParams {
    /// The configuration the paper ran: heavy-tailed placement,
    /// incremental preferential attachment, no geographic bias.
    pub fn paper_default(n: usize) -> Self {
        BriteParams {
            n,
            m: 2,
            placement: Placement::HeavyTailed { squares: 20 },
            waxman_bias: None,
        }
    }
}

/// Generate a BRITE-style graph. Always connected (incremental growth
/// attaches every node to the existing component).
///
/// # Panics
/// Panics if `m == 0` or `n < 2`.
pub fn brite<R: Rng>(params: &BriteParams, rng: &mut R) -> Graph {
    let BriteParams {
        n,
        m,
        placement,
        waxman_bias,
    } = *params;
    assert!(m >= 1);
    assert!(n >= 2);
    let points = place_nodes(n, placement, rng);
    let mut b = GraphBuilder::new(n);
    let mut degree: Vec<f64> = vec![0.0; n];
    // Seed: connect node 1 to node 0.
    b.add_edge(0, 1);
    degree[0] = 1.0;
    degree[1] = 1.0;
    let max_dist = 2f64.sqrt();
    for v in 2..n {
        let vid = v as NodeId;
        let mut chosen: Vec<NodeId> = Vec::with_capacity(m);
        let want = m.min(v);
        let mut guard = 0usize;
        while chosen.len() < want && guard < 200 * (m + 1) {
            guard += 1;
            // Weight: degree (+1 smoothing), optionally × Waxman factor.
            let weight = |u: usize| -> f64 {
                let pref = degree[u] + 1.0;
                match waxman_bias {
                    None => pref,
                    Some((alpha, beta)) => {
                        let d = points[v].dist(&points[u]);
                        pref * alpha * (-d / (beta * max_dist)).exp()
                    }
                }
            };
            let total: f64 = (0..v).map(weight).sum();
            let mut r = rng.gen::<f64>() * total;
            let mut pick = v - 1;
            for u in 0..v {
                r -= weight(u);
                if r <= 0.0 {
                    pick = u;
                    break;
                }
            }
            let t = pick as NodeId;
            if !chosen.contains(&t) {
                chosen.push(t);
            }
        }
        for &t in &chosen {
            b.add_edge(vid, t);
            degree[v] += 1.0;
            degree[t as usize] += 1.0;
        }
    }
    b.build()
}

impl crate::generate::Generate for BriteParams {
    fn generate(&self, rng: &mut StdRng) -> Graph {
        // Incremental growth keeps the graph connected by construction.
        brite(self, rng)
    }

    fn canonical_params(&self) -> String {
        let placement = match self.placement {
            Placement::Random => "random".to_string(),
            Placement::HeavyTailed { squares } => format!("ht({squares})"),
        };
        let bias = match self.waxman_bias {
            None => "none".to_string(),
            Some((alpha, beta)) => format!("({alpha:?},{beta:?})"),
        };
        format!(
            "n={},m={},placement={placement},waxman_bias={bias}",
            self.n, self.m
        )
    }
}

/// Place `n` nodes per the requested strategy.
pub fn place_nodes<R: Rng>(n: usize, placement: Placement, rng: &mut R) -> Vec<Point> {
    match placement {
        Placement::Random => (0..n)
            .map(|_| Point::new(rng.gen::<f64>(), rng.gen::<f64>()))
            .collect(),
        Placement::HeavyTailed { squares } => {
            let squares = squares.max(1);
            // Pareto weight per cell, then multinomial split of n.
            let cells = squares * squares;
            let weights: Vec<f64> = (0..cells)
                .map(|_| {
                    // Pareto(1, 1): 1 / U.
                    1.0 / rng.gen::<f64>().max(1e-12)
                })
                .collect();
            let total: f64 = weights.iter().sum();
            let mut points = Vec::with_capacity(n);
            for _ in 0..n {
                let mut r = rng.gen::<f64>() * total;
                let mut cell = cells - 1;
                for (c, &w) in weights.iter().enumerate() {
                    r -= w;
                    if r <= 0.0 {
                        cell = c;
                        break;
                    }
                }
                let cx = (cell % squares) as f64;
                let cy = (cell / squares) as f64;
                let s = squares as f64;
                points.push(Point::new(
                    (cx + rng.gen::<f64>()) / s,
                    (cy + rng.gen::<f64>()) / s,
                ));
            }
            points
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
        StdRng::seed_from_u64(77)
    }

    #[test]
    fn brite_connected_and_sized() {
        let g = brite(&BriteParams::paper_default(1500), &mut rng());
        assert_eq!(g.node_count(), 1500);
        assert!(is_connected(&g));
        // m=2 growth → ~2 edges per node.
        assert!((g.average_degree() - 4.0).abs() < 1.0);
    }

    #[test]
    fn brite_heavy_tail() {
        let g = brite(&BriteParams::paper_default(4000), &mut rng());
        assert!(g.max_degree() > 40, "max degree {}", g.max_degree());
    }

    #[test]
    fn brite_with_waxman_bias_connected() {
        let p = BriteParams {
            n: 800,
            m: 2,
            placement: Placement::Random,
            waxman_bias: Some((0.15, 0.2)),
        };
        let g = brite(&p, &mut rng());
        assert!(is_connected(&g));
    }

    #[test]
    fn brite_deterministic() {
        let p = BriteParams::paper_default(300);
        let g1 = brite(&p, &mut StdRng::seed_from_u64(2));
        let g2 = brite(&p, &mut StdRng::seed_from_u64(2));
        assert_eq!(g1.edges(), g2.edges());
    }

    #[test]
    fn heavy_tailed_placement_is_clustered() {
        // Under heavy-tailed placement the busiest cell holds far more
        // than the uniform share of nodes.
        let squares = 10usize;
        let pts = place_nodes(5000, Placement::HeavyTailed { squares }, &mut rng());
        let mut counts = vec![0usize; squares * squares];
        for p in &pts {
            let cx = ((p.x * squares as f64) as usize).min(squares - 1);
            let cy = ((p.y * squares as f64) as usize).min(squares - 1);
            counts[cy * squares + cx] += 1;
        }
        let max = *counts.iter().max().unwrap();
        let uniform_share = 5000 / (squares * squares);
        assert!(
            max > 4 * uniform_share,
            "max cell {max} vs uniform {uniform_share}"
        );
    }

    #[test]
    fn random_placement_in_unit_square() {
        let pts = place_nodes(100, Placement::Random, &mut rng());
        assert!(pts
            .iter()
            .all(|p| (0.0..1.0).contains(&p.x) && (0.0..1.0).contains(&p.y)));
    }

    #[test]
    #[should_panic]
    fn brite_rejects_tiny_n() {
        let _ = brite(
            &BriteParams {
                n: 1,
                m: 1,
                placement: Placement::Random,
                waxman_bias: None,
            },
            &mut rng(),
        );
    }
}
