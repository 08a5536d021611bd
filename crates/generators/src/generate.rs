//! The unified generator API: the [`Generate`] trait.
//!
//! Every generator in this crate historically exposed a free function
//! with its own return type (`Graph`, `TiersTopology`,
//! `TransitStubTopology`, …) and its own connectivity caveats. The
//! [`Generate`] trait unifies them behind a single entry point with a
//! single contract:
//!
//! > `params.generate(rng)` returns the **analysis graph** — the graph
//! > the paper's methodology measures. For generators that may produce
//! > disconnected output (Waxman, PLRG, GLP, Inet, Albert–Barabási)
//! > this is the largest connected component;
//! > generators that are connected by construction (B-A, BRITE,
//! > Transit-Stub, Tiers, N-level) return the full graph.
//!
//! The free functions remain available and unchanged in semantics (raw
//! generator output, hierarchy annotations where the model has them) so
//! callers can migrate incrementally. Migration example:
//!
//! ```
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//! use topogen_generators::ba::{barabasi_albert, BaParams};
//! use topogen_generators::Generate;
//!
//! let p = BaParams { n: 200, m: 2 };
//! let mut rng = StdRng::seed_from_u64(7);
//! // Before: per-generator free function…
//! let g1 = barabasi_albert(&p, &mut StdRng::seed_from_u64(7));
//! // After: the uniform trait entry point.
//! let g2 = p.generate(&mut rng);
//! assert_eq!(g1.edges(), g2.edges());
//! ```
//!
//! `generate` takes the workspace's one generator, [`StdRng`], rather
//! than any `Rng`: Waxman's pair loop splits across workers by jumping
//! that generator ahead ([`StdRng::advance`]), which a generic RNG
//! cannot do. Callers that need dispatch over topology kinds should use
//! `topogen_core::zoo::TopologySpec`, which builds on this trait.

use rand::rngs::StdRng;
use topogen_graph::Graph;

/// A parameter struct that can generate its topology's analysis graph.
///
/// See the [module documentation](self) for the exact contract; the
/// short version is that the returned graph is always the one the
/// paper's metrics run on (largest connected component when the raw
/// model output may be disconnected).
pub trait Generate {
    /// Generate the analysis graph deterministically from `rng`.
    fn generate(&self, rng: &mut StdRng) -> Graph;

    /// A canonical, deterministic rendering of this parameter set —
    /// `name=value` pairs in declaration order, floats in `{:?}`
    /// (shortest round-trip) form so the same `f64` always prints the
    /// same bytes. The artifact store folds this string into cache
    /// keys, so two parameter sets map to the same entry **iff** they
    /// generate the same distribution.
    fn canonical_params(&self) -> String;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ba::{barabasi_albert, AlbertBarabasiParams, BaParams};
    use crate::brite::BriteParams;
    use crate::glp::GlpParams;
    use crate::inet::InetParams;
    use crate::nlevel::NLevelParams;
    use crate::plrg::{plrg, PlrgParams};
    use crate::tiers::TiersParams;
    use crate::transit_stub::TransitStubParams;
    use crate::waxman::WaxmanParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use topogen_graph::components::{is_connected, largest_component};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    /// The trait contract: every implementor returns a connected graph.
    #[test]
    fn every_implementor_returns_connected_analysis_graph() {
        let graphs: Vec<(&str, Graph)> = vec![
            ("ba", BaParams { n: 300, m: 2 }.generate(&mut rng())),
            (
                "ab",
                AlbertBarabasiParams {
                    n: 300,
                    m: 2,
                    p: 0.2,
                    q: 0.2,
                }
                .generate(&mut rng()),
            ),
            (
                "brite",
                BriteParams::paper_default(300).generate(&mut rng()),
            ),
            ("glp", GlpParams::paper_as_fit(300).generate(&mut rng())),
            ("inet", InetParams::paper_default(400).generate(&mut rng())),
            (
                "plrg",
                PlrgParams {
                    n: 400,
                    alpha: 2.1,
                    max_degree: None,
                }
                .generate(&mut rng()),
            ),
            ("tiers", small_tiers().generate(&mut rng())),
            (
                "ts",
                TransitStubParams::paper_default().generate(&mut rng()),
            ),
            (
                "nlevel",
                NLevelParams::three_level_1000().generate(&mut rng()),
            ),
            (
                "waxman",
                WaxmanParams {
                    n: 400,
                    alpha: 0.05,
                    beta: 0.3,
                }
                .generate(&mut rng()),
            ),
        ];
        for (name, g) in graphs {
            assert!(g.node_count() > 50, "{name}: only {} nodes", g.node_count());
            assert!(is_connected(&g), "{name}: disconnected analysis graph");
        }
    }

    fn small_tiers() -> TiersParams {
        TiersParams {
            mans_per_wan: 5,
            lans_per_man: 4,
            wan_nodes: 60,
            man_nodes: 10,
            lan_nodes: 4,
            ..TiersParams::paper_default()
        }
    }

    /// Trait calls match the free-function + largest-component recipe
    /// bit-for-bit from the same seed.
    #[test]
    fn trait_matches_free_function_composition() {
        let p = PlrgParams {
            n: 500,
            alpha: 2.2,
            max_degree: None,
        };
        let via_trait = p.generate(&mut StdRng::seed_from_u64(9));
        let via_fn = largest_component(&plrg(&p, &mut StdRng::seed_from_u64(9))).0;
        assert_eq!(via_trait.edges(), via_fn.edges());

        let b = BaParams { n: 250, m: 3 };
        let via_trait = b.generate(&mut StdRng::seed_from_u64(9));
        let via_fn = barabasi_albert(&b, &mut StdRng::seed_from_u64(9));
        assert_eq!(via_trait.edges(), via_fn.edges());
    }

    /// Canonical params are deterministic, distinguish different
    /// parameter sets, and render floats in shortest round-trip form.
    #[test]
    fn canonical_params_deterministic_and_distinct() {
        let a = WaxmanParams {
            n: 400,
            alpha: 0.05,
            beta: 0.3,
        };
        assert_eq!(a.canonical_params(), "n=400,alpha=0.05,beta=0.3");
        assert_eq!(a.canonical_params(), a.canonical_params());
        let b = WaxmanParams { beta: 0.31, ..a };
        assert_ne!(a.canonical_params(), b.canonical_params());

        assert_eq!(BaParams { n: 300, m: 2 }.canonical_params(), "n=300,m=2");
        assert_eq!(
            PlrgParams {
                n: 400,
                alpha: 2.1,
                max_degree: None
            }
            .canonical_params(),
            "n=400,alpha=2.1,max_degree=none"
        );
        // Every implementor produces non-empty `name=value` output.
        let all = vec![
            AlbertBarabasiParams {
                n: 300,
                m: 2,
                p: 0.2,
                q: 0.2,
            }
            .canonical_params(),
            BriteParams::paper_default(300).canonical_params(),
            GlpParams::paper_as_fit(300).canonical_params(),
            InetParams::paper_default(400).canonical_params(),
            small_tiers().canonical_params(),
            TransitStubParams::paper_default().canonical_params(),
            NLevelParams::three_level_1000().canonical_params(),
        ];
        for p in all {
            assert!(p.contains('='), "{p}");
            assert!(!p.contains('|'), "key-separator char in params: {p}");
        }
    }

    #[test]
    fn generate_is_deterministic() {
        let p = WaxmanParams {
            n: 300,
            alpha: 0.05,
            beta: 0.3,
        };
        let a = p.generate(&mut StdRng::seed_from_u64(3));
        let b = p.generate(&mut StdRng::seed_from_u64(3));
        assert_eq!(a.edges(), b.edges());
    }
}
