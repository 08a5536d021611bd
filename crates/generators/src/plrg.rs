//! The Power-Law Random Graph (PLRG) generator of Aiello, Chung and Lu
//! \[1\] — the paper's primary degree-based generator (§3.1.2).
//!
//! Given `n` and an exponent α, degrees are drawn from a power law; each
//! node is then *cloned* once per unit of degree, and clones are paired
//! uniformly at random until none remain. Self-loops and duplicate links
//! are discarded (footnote 6), which slightly lowers realized degrees of
//! the largest hubs. The graph may be disconnected; the paper (and our
//! harness) analyzes the largest connected component.

use crate::degseq::{evenize, natural_cutoff, power_law_degrees};
use rand::rngs::StdRng;
use rand::Rng;
use topogen_graph::{Graph, GraphBuilder};

/// Parameters for the PLRG generator.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PlrgParams {
    /// Number of nodes to draw degrees for (the final largest component
    /// is somewhat smaller).
    pub n: usize,
    /// Power-law exponent α (Figure 1 uses 2.246; Appendix C explores
    /// 2.25–2.55).
    pub alpha: f64,
    /// Optional cap on sampled degrees; `None` uses the natural cutoff
    /// `n^(1/(α-1))`.
    pub max_degree: Option<usize>,
}

impl PlrgParams {
    /// The paper's Figure 1 instance: 9230 nodes (largest component) at
    /// α = 2.246, average degree 4.46.
    pub fn paper_default() -> Self {
        PlrgParams {
            n: 10_000,
            alpha: 2.246,
            max_degree: None,
        }
    }
}

/// Generate a PLRG. Returns the *whole* graph (possibly disconnected);
/// use [`topogen_graph::components::largest_component`] for the paper's
/// analysis graph.
///
/// ```
/// use rand::SeedableRng;
/// use topogen_generators::plrg::{plrg, PlrgParams};
/// use topogen_graph::components::largest_component;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(42);
/// let g = plrg(&PlrgParams { n: 500, alpha: 2.246, max_degree: None }, &mut rng);
/// let (lcc, _) = largest_component(&g);
/// // Heavy tail: the biggest hub dwarfs the average node.
/// assert!(lcc.max_degree() as f64 > 5.0 * lcc.average_degree());
/// ```
pub fn plrg<R: Rng>(params: &PlrgParams, rng: &mut R) -> Graph {
    let mut b = GraphBuilder::new(0);
    plrg_into(params, rng, &mut b);
    b.build()
}

/// [`plrg`] emitting the raw matching into `sink`, an in-memory or a
/// [`budgeted`](GraphBuilder::budgeted) builder (the
/// xl tier's build path). Shares one body (and RNG order) with
/// [`plrg`], so the budgeted graph is identical by construction.
pub fn plrg_into<R: Rng>(params: &PlrgParams, rng: &mut R, sink: &mut GraphBuilder) {
    let cutoff = params
        .max_degree
        .unwrap_or_else(|| natural_cutoff(params.n, params.alpha));
    let mut degrees = power_law_degrees(params.n, params.alpha, cutoff, rng);
    evenize(&mut degrees);
    crate::connectivity::match_plrg_into(&degrees, rng, sink);
}

impl crate::generate::Generate for PlrgParams {
    fn generate(&self, rng: &mut StdRng) -> Graph {
        // Random matching leaves a fringe of small components; the paper
        // analyzes the giant component.
        topogen_graph::components::largest_component(&plrg(self, rng)).0
    }

    fn canonical_params(&self) -> String {
        let max_degree = match self.max_degree {
            None => "none".to_string(),
            Some(d) => d.to_string(),
        };
        format!(
            "n={},alpha={:?},max_degree={max_degree}",
            self.n, self.alpha
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
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn node_and_degree_scale_matches_paper() {
        // Figure 1: PLRG with α=2.246 → largest component ≈ 92% of draws,
        // average degree ≈ 4.5.
        let g = plrg(&PlrgParams::paper_default(), &mut rng());
        let (lcc, _) = largest_component(&g);
        let frac = lcc.node_count() as f64 / 10_000.0;
        assert!(frac > 0.75, "largest component fraction {frac}");
        assert!(
            (2.0..8.0).contains(&lcc.average_degree()),
            "avg degree {}",
            lcc.average_degree()
        );
    }

    #[test]
    fn heavy_tail_present() {
        let g = plrg(&PlrgParams::paper_default(), &mut rng());
        // Hubs must be an order of magnitude above the mean.
        assert!(g.max_degree() as f64 > 15.0 * g.average_degree());
    }

    #[test]
    fn deterministic_under_seed() {
        let p = PlrgParams {
            n: 500,
            alpha: 2.3,
            max_degree: None,
        };
        let g1 = plrg(&p, &mut StdRng::seed_from_u64(1));
        let g2 = plrg(&p, &mut StdRng::seed_from_u64(1));
        assert_eq!(g1.edges(), g2.edges());
    }

    #[test]
    fn higher_alpha_means_sparser() {
        let lo = plrg(
            &PlrgParams {
                n: 3000,
                alpha: 2.1,
                max_degree: None,
            },
            &mut StdRng::seed_from_u64(5),
        );
        let hi = plrg(
            &PlrgParams {
                n: 3000,
                alpha: 2.9,
                max_degree: None,
            },
            &mut StdRng::seed_from_u64(5),
        );
        assert!(lo.average_degree() > hi.average_degree());
    }
}
