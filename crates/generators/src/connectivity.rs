//! Connectivity variants for a fixed degree sequence (Appendix D.1).
//!
//! The paper asks whether it is the power-law *degree distribution* or
//! the particular *connection rule* that gives degree-based generators
//! their Internet-like large-scale structure. To answer it, Appendix D.1
//! connects the same degree sequence in several different ways:
//!
//! * [`match_plrg`] — the PLRG's clone-matching rule;
//! * [`match_uniform`] — pick two nodes with *unsatisfied* degree
//!   uniformly (not degree-proportionally) and link them;
//! * [`match_highest_first`] — start with the highest-degree node and
//!   connect it to partners chosen uniformly, degree-proportionally, or
//!   proportionally to *unsatisfied* degree ([`PartnerRule`]);
//! * [`match_deterministic`] — the deterministic descending rule
//!   (Havel–Hakimi-style), which Appendix D.1 reports produces graphs
//!   "quite different from the PLRG";
//! * [`rewire_as_plrg`] — extract a graph's degree sequence and reconnect
//!   it with the PLRG rule (the "Modified B-A" / "Modified Brite" graphs
//!   of Figure 13).
//!
//! All randomized rules discard self-loops and duplicate links, as the
//! paper does (footnote 6), so realized degrees are upper-bounded by the
//! requested sequence.

use rand::Rng;
use topogen_graph::{Graph, GraphBuilder, NodeId};

/// [`match_plrg`] emitting into `sink`, an in-memory or a
/// [`budgeted`](GraphBuilder::budgeted) builder. One body serves both,
/// so the RNG consumption (and therefore the matching) is identical
/// whether the raw pairs stay in memory or spill to sorted runs.
pub fn match_plrg_into<R: Rng>(degrees: &[usize], rng: &mut R, sink: &mut GraphBuilder) {
    let mut clones: Vec<NodeId> = Vec::with_capacity(degrees.iter().sum());
    for (v, &d) in degrees.iter().enumerate() {
        clones.extend(std::iter::repeat_n(v as NodeId, d));
    }
    // Fisher–Yates shuffle.
    for i in (1..clones.len()).rev() {
        let j = rng.gen_range(0..=i);
        clones.swap(i, j);
    }
    sink.ensure_nodes(degrees.len());
    for pair in clones.chunks_exact(2) {
        sink.add_edge(pair[0], pair[1]);
    }
}

/// PLRG clone matching \[1\]: make `d(v)` copies of node `v`, shuffle,
/// pair adjacent copies. Self-loops/duplicates dropped at build time.
pub fn match_plrg<R: Rng>(degrees: &[usize], rng: &mut R) -> Graph {
    let mut b = GraphBuilder::new(0);
    match_plrg_into(degrees, rng, &mut b);
    b.build()
}

/// Uniformly random connectivity: repeatedly pick two distinct nodes with
/// unsatisfied degree uniformly at random (ignoring how much residual
/// degree they carry) and link them. Appendix D.1: "even for the
/// uniformly random connectivity method ... the large-scale metrics are
/// qualitatively similar to the PLRG".
pub fn match_uniform<R: Rng>(degrees: &[usize], rng: &mut R) -> Graph {
    let mut residual: Vec<usize> = degrees.to_vec();
    let mut open: Vec<NodeId> = (0..degrees.len() as NodeId)
        .filter(|&v| residual[v as usize] > 0)
        .collect();
    let mut b = GraphBuilder::new(degrees.len());
    let mut adj: Vec<std::collections::HashSet<NodeId>> = vec![Default::default(); degrees.len()];
    // Each round removes at least one unit of residual degree, and we
    // stop when fewer than two open nodes remain or progress stalls.
    let mut stall = 0usize;
    while open.len() >= 2 && stall < 4 * degrees.len() + 100 {
        let i = rng.gen_range(0..open.len());
        let mut j = rng.gen_range(0..open.len() - 1);
        if j >= i {
            j += 1;
        }
        let (u, v) = (open[i], open[j]);
        if adj[u as usize].contains(&v) {
            stall += 1;
            continue;
        }
        adj[u as usize].insert(v);
        adj[v as usize].insert(u);
        stall = 0;
        b.add_edge(u, v);
        residual[u as usize] -= 1;
        residual[v as usize] -= 1;
        // Compact the open list only when a node completed: O(n) per
        // completed node, O(n²) overall — fine at Appendix-D scales.
        if residual[u as usize] == 0 || residual[v as usize] == 0 {
            open.retain(|&w| residual[w as usize] > 0);
        }
    }
    b.build()
}

/// Partner-selection rule for [`match_highest_first`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PartnerRule {
    /// Choose partners uniformly among nodes with unsatisfied degree.
    Uniform,
    /// Choose partners proportionally to their *assigned* degree.
    ProportionalToDegree,
    /// Choose partners proportionally to their *unsatisfied* (residual)
    /// degree.
    ProportionalToUnsatisfied,
}

/// Highest-first random connectivity (Appendix D.1's "start with the
/// highest degree nodes and connect to other nodes either uniformly, or
/// in proportion to the degree, or in proportion to the unsatisfied
/// degree").
pub fn match_highest_first<R: Rng>(degrees: &[usize], rule: PartnerRule, rng: &mut R) -> Graph {
    let n = degrees.len();
    let mut residual: Vec<usize> = degrees.to_vec();
    let mut order: Vec<NodeId> = (0..n as NodeId).collect();
    order.sort_by_key(|&v| std::cmp::Reverse(degrees[v as usize]));
    let mut b = GraphBuilder::new(n);
    let mut adj: Vec<std::collections::HashSet<NodeId>> = vec![Default::default(); n];
    for &v in &order {
        let mut attempts = 0usize;
        while residual[v as usize] > 0 && attempts < 50 + 10 * n {
            attempts += 1;
            let candidates: Vec<NodeId> = (0..n as NodeId)
                .filter(|&w| w != v && residual[w as usize] > 0 && !adj[v as usize].contains(&w))
                .collect();
            if candidates.is_empty() {
                break;
            }
            let w = match rule {
                PartnerRule::Uniform => candidates[rng.gen_range(0..candidates.len())],
                PartnerRule::ProportionalToDegree => {
                    weighted_pick(&candidates, |c| degrees[c as usize] as f64, rng)
                }
                PartnerRule::ProportionalToUnsatisfied => {
                    weighted_pick(&candidates, |c| residual[c as usize] as f64, rng)
                }
            };
            b.add_edge(v, w);
            adj[v as usize].insert(w);
            adj[w as usize].insert(v);
            residual[v as usize] -= 1;
            residual[w as usize] -= 1;
        }
    }
    b.build()
}

fn weighted_pick<R: Rng>(items: &[NodeId], weight: impl Fn(NodeId) -> f64, rng: &mut R) -> NodeId {
    let total: f64 = items.iter().map(|&i| weight(i)).sum();
    if total <= 0.0 {
        return items[rng.gen_range(0..items.len())];
    }
    let mut r = rng.gen::<f64>() * total;
    for &i in items {
        r -= weight(i);
        if r <= 0.0 {
            return i;
        }
    }
    *items.last().unwrap()
}

/// Deterministic descending connectivity (Appendix D.1): "start with the
/// highest degree node, add one link each from this node to each lower
/// degree node in decreasing degree order (skipping nodes whose degree
/// has already been satisfied), then repeat for the next highest degree
/// node whose degree has not been satisfied."
pub fn match_deterministic(degrees: &[usize]) -> Graph {
    // Havel–Hakimi: repeatedly take the node with the largest residual
    // degree d and connect it to the d next-largest-residual nodes.
    // Re-sorting by *residual* each round is what makes this realize
    // every graphical sequence exactly (the fixed-initial-order variant
    // can strand residual degree).
    let n = degrees.len();
    let mut residual: Vec<usize> = degrees.to_vec();
    let mut b = GraphBuilder::new(n);
    let mut adj: Vec<std::collections::HashSet<NodeId>> = vec![Default::default(); n];
    loop {
        let mut order: Vec<NodeId> = (0..n as NodeId)
            .filter(|&v| residual[v as usize] > 0)
            .collect();
        if order.len() < 2 {
            break;
        }
        // Decreasing residual, ties by id for determinism.
        order.sort_by_key(|&v| (std::cmp::Reverse(residual[v as usize]), v));
        let v = order[0];
        let mut connected_any = false;
        let want = residual[v as usize];
        let mut made = 0usize;
        for &w in order.iter().skip(1) {
            if made == want {
                break;
            }
            if adj[v as usize].contains(&w) {
                continue;
            }
            b.add_edge(v, w);
            adj[v as usize].insert(w);
            adj[w as usize].insert(v);
            residual[w as usize] -= 1;
            made += 1;
            connected_any = true;
        }
        residual[v as usize] -= made;
        if !connected_any {
            // Infeasible remainder (non-graphical input): stop.
            break;
        }
    }
    b.build()
}

/// Extract `g`'s degree sequence and reconnect it with the PLRG rule —
/// the construction behind the "Modified B-A" and "Modified Brite" graphs
/// of Figure 13. Returns the whole (possibly disconnected) graph.
pub fn rewire_as_plrg<R: Rng>(g: &Graph, rng: &mut R) -> Graph {
    let mut degrees = g.degrees();
    crate::degseq::evenize(&mut degrees);
    match_plrg(&degrees, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(17)
    }

    fn total_degree(g: &Graph) -> usize {
        2 * g.edge_count()
    }

    #[test]
    fn plrg_matching_conserves_most_degree() {
        let degrees: Vec<usize> = vec![10, 5, 5, 3, 3, 2, 2, 2, 1, 1, 1, 1];
        let g = match_plrg(&degrees, &mut rng());
        let want: usize = degrees.iter().sum();
        // Self-loop/dup removal loses a little; most stubs survive.
        assert!(total_degree(&g) <= want);
        assert!(total_degree(&g) >= want / 2);
        for (v, &d) in degrees.iter().enumerate() {
            assert!(g.degree(v as u32) <= d);
        }
    }

    #[test]
    fn plrg_zero_degrees_isolated() {
        let g = match_plrg(&[0, 2, 2, 0], &mut rng());
        assert_eq!(g.degree(0), 0);
        assert_eq!(g.degree(3), 0);
    }

    #[test]
    fn uniform_respects_degrees() {
        let degrees = vec![4, 3, 3, 2, 2, 1, 1];
        let g = match_uniform(&degrees, &mut rng());
        for (v, &d) in degrees.iter().enumerate() {
            assert!(
                g.degree(v as u32) <= d,
                "node {v}: {} > {d}",
                g.degree(v as u32)
            );
        }
        assert!(g.edge_count() >= 3);
    }

    #[test]
    fn highest_first_rules_all_run() {
        let degrees = vec![6, 4, 3, 2, 2, 2, 1, 1, 1];
        for rule in [
            PartnerRule::Uniform,
            PartnerRule::ProportionalToDegree,
            PartnerRule::ProportionalToUnsatisfied,
        ] {
            let g = match_highest_first(&degrees, rule, &mut rng());
            for (v, &d) in degrees.iter().enumerate() {
                assert!(g.degree(v as u32) <= d);
            }
            assert!(g.edge_count() >= degrees.len() / 2);
        }
    }

    #[test]
    fn deterministic_matches_havel_hakimi_star() {
        // Star sequence: 3,1,1,1 → hub connects to all three leaves.
        let g = match_deterministic(&[3, 1, 1, 1]);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.degree(0), 3);
    }

    #[test]
    fn deterministic_realizes_graphical_sequences_exactly() {
        // Havel–Hakimi realizes any graphical sequence; descending-order
        // greedy does too for these standard cases.
        for degrees in [vec![2, 2, 2], vec![3, 3, 3, 3], vec![4, 2, 2, 2, 2]] {
            assert!(crate::degseq::is_graphical(&degrees));
            let g = match_deterministic(&degrees);
            for (v, &d) in degrees.iter().enumerate() {
                assert_eq!(g.degree(v as u32), d, "sequence {degrees:?} node {v}");
            }
        }
    }

    #[test]
    fn deterministic_is_deterministic() {
        let d = vec![5, 4, 3, 3, 2, 2, 2, 1];
        let g1 = match_deterministic(&d);
        let g2 = match_deterministic(&d);
        assert_eq!(g1.edges(), g2.edges());
    }

    #[test]
    fn rewire_preserves_degree_distribution_shape() {
        // Rewire a star-ish graph: max degree stays (approximately) put.
        // Clone matching loses hub stubs to self-loop pairs (~10 of 29 in
        // expectation here), so a single draw is noisy; average a few.
        let mut b = topogen_graph::GraphBuilder::new(30);
        for i in 1..30 {
            b.add_edge(0, i);
        }
        for i in 1..10 {
            b.add_edge(i, i + 10);
        }
        let g = b.build();
        let mut total_max = 0usize;
        let runs = 5;
        for s in 0..runs {
            let r = rewire_as_plrg(&g, &mut StdRng::seed_from_u64(17 + s));
            assert_eq!(r.node_count(), 30);
            total_max += r.max_degree();
        }
        // The hub's 29 stubs mostly survive matching.
        let mean = total_max as f64 / runs as f64;
        assert!(mean >= 13.0, "mean hub degree {mean}");
    }

    #[test]
    fn empty_sequences() {
        assert_eq!(match_plrg(&[], &mut rng()).node_count(), 0);
        assert_eq!(match_uniform(&[], &mut rng()).node_count(), 0);
        assert_eq!(match_deterministic(&[]).node_count(), 0);
    }
}
