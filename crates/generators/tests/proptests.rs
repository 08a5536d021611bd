//! Property-based tests over the generators: every generator must
//! produce a simple graph of the requested shape for arbitrary valid
//! parameters and seeds.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use topogen_generators::ba::{barabasi_albert, BaParams};
use topogen_generators::canonical::{kary_tree, mesh, random_gnp};
use topogen_generators::connectivity::{match_deterministic, match_plrg};
use topogen_generators::degseq::{degree_ccdf, evenize, is_graphical, power_law_degrees};
use topogen_generators::glp::{glp, GlpParams};
use topogen_generators::inet::inet_from_degrees;
use topogen_generators::plrg::{plrg, PlrgParams};
use topogen_generators::waxman::{waxman, WaxmanParams};
use topogen_graph::components::is_connected;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn tree_node_count_formula(k in 2usize..5, depth in 0usize..6) {
        let g = kary_tree(k, depth);
        let mut want = 1usize;
        let mut level = 1usize;
        for _ in 0..depth {
            level *= k;
            want += level;
        }
        prop_assert_eq!(g.node_count(), want);
        prop_assert_eq!(g.edge_count(), want - 1);
        prop_assert!(is_connected(&g));
    }

    #[test]
    fn mesh_edge_count_formula(r in 1usize..12, c in 1usize..12) {
        let g = mesh(r, c);
        prop_assert_eq!(g.edge_count(), r * (c - 1) + c * (r - 1));
    }

    #[test]
    fn gnp_edges_within_support(n in 2usize..60, p in 0.0f64..1.0, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = random_gnp(n, p, &mut rng);
        prop_assert_eq!(g.node_count(), n);
        prop_assert!(g.edge_count() <= n * (n - 1) / 2);
        prop_assert!(g.nodes().all(|v| g.degree(v) < n));
    }

    #[test]
    fn power_law_degrees_in_range(
        n in 1usize..500,
        alpha in 1.5f64..3.5,
        cutoff in 1usize..200,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let d = power_law_degrees(n, alpha, cutoff, &mut rng);
        prop_assert_eq!(d.len(), n);
        prop_assert!(d.iter().all(|&x| x >= 1 && x <= cutoff));
    }

    #[test]
    fn evenize_makes_even(mut d in proptest::collection::vec(0usize..20, 1..50)) {
        evenize(&mut d);
        prop_assert_eq!(d.iter().sum::<usize>() % 2, 0);
    }

    #[test]
    fn plrg_degrees_bounded(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let degrees = power_law_degrees(60, 2.3, 20, &mut rng);
        let mut d = degrees.clone();
        evenize(&mut d);
        let g = match_plrg(&d, &mut rng);
        for (v, &want) in d.iter().enumerate() {
            prop_assert!(g.degree(v as u32) <= want);
        }
    }

    #[test]
    fn deterministic_realizes_graphical_exactly(seed in any::<u64>()) {
        // Build a graphical sequence via an actual graph's degrees.
        let mut rng = StdRng::seed_from_u64(seed);
        let base = random_gnp(25, 0.2, &mut rng);
        let degrees = base.degrees();
        prop_assert!(is_graphical(&degrees));
        let g = match_deterministic(&degrees);
        // Havel–Hakimi-style greedy realizes any graphical sequence.
        prop_assert_eq!(g.degrees(), degrees);
    }

    #[test]
    fn inet_connected_when_core_exists(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut degrees = power_law_degrees(80, 2.2, 20, &mut rng);
        if !degrees.iter().any(|&d| d > 1) {
            degrees[0] = 3;
        }
        evenize(&mut degrees);
        let g = inet_from_degrees(&degrees, &mut rng);
        prop_assert!(is_connected(&g), "Inet must connect everything");
    }

    #[test]
    fn ba_always_connected(n in 3usize..200, m in 1usize..4, seed in any::<u64>()) {
        prop_assume!(n > m);
        let mut rng = StdRng::seed_from_u64(seed);
        let g = barabasi_albert(&BaParams { n, m }, &mut rng);
        prop_assert!(is_connected(&g));
        prop_assert_eq!(g.node_count(), n);
    }

    #[test]
    fn glp_shape(seed in any::<u64>(), p in 0.0f64..0.7) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = glp(&GlpParams { n: 120, m: 1, p, beta: 0.6 }, &mut rng);
        prop_assert_eq!(g.node_count(), 120);
        prop_assert!(g.edge_count() >= 100, "at least the growth edges");
    }

    #[test]
    fn waxman_simple(seed in any::<u64>(), alpha in 0.01f64..0.3, beta in 0.05f64..0.9) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = waxman(&WaxmanParams { n: 60, alpha, beta }, &mut rng);
        prop_assert_eq!(g.node_count(), 60);
        // Simple graph: degree < n.
        prop_assert!(g.nodes().all(|v| g.degree(v) < 60));
    }

    #[test]
    fn ccdf_is_valid_distribution(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = plrg(&PlrgParams { n: 150, alpha: 2.4, max_degree: None }, &mut rng);
        let c = degree_ccdf(&g);
        prop_assert!(c.windows(2).all(|w| w[0].fraction >= w[1].fraction));
        prop_assert!(c.iter().all(|p| p.fraction > 0.0 && p.fraction <= 1.0));
        if let Some(first) = c.first() {
            prop_assert_eq!(first.fraction, 1.0);
        }
    }
}
