//! Valley-free (policy) shortest paths via a two-phase state machine.
//!
//! The paper's policy model (§3.2.1): "the shortest AS path between two
//! nodes that does not violate provider-customer relationships ... once a
//! path traverses down a customer AS, it will never traverse up to a
//! provider AS". Formally a valid path is `up* peer? down*`, where *up*
//! steps go customer→provider, *down* steps go provider→customer, at most
//! one peer link may appear at the apex, and sibling links are free.
//!
//! We run BFS over the product of the graph with a two-state automaton:
//!
//! * **Ascending** — only up/sibling steps taken so far; may still climb,
//!   peer once, or descend.
//! * **Descending** — a peer or down step has been taken; only
//!   down/sibling steps remain.
//!
//! Each physical valley-free path corresponds to exactly one state
//! trajectory, so path counts (σ) over the state DAG equal physical
//! equal-cost path counts — which the hierarchy analysis (§5, footnote
//! 27) relies on. The BFS is the graph crate's [`path_dag`] with two
//! states per node and [`step`] as its rule.

use crate::rel::{AsAnnotations, Relationship};
use topogen_graph::bfs::{path_dag, PathDag};
use topogen_graph::{Graph, NodeId};

/// Phase of the valley-free automaton.
pub const PHASE_UP: u32 = 0;
/// See [`PHASE_UP`].
pub const PHASE_DOWN: u32 = 1;

/// State id for `(node, phase)`, as [`PathDag`] numbers it.
#[inline]
pub fn state(node: NodeId, phase: u32) -> u32 {
    node * 2 + phase
}

/// The valley-free step rule: the phase a path in `phase` at `u` enters
/// its neighbour `v` in when it crosses their link (annotated `rel`), or
/// `None` when the step would break `up* peer? down*`. Ascending, an up
/// or sibling step keeps climbing and a peer or down step starts the
/// descent; descending, only down and sibling steps remain.
pub fn step(rel: Relationship, u: NodeId, v: NodeId, phase: u32) -> Option<u32> {
    let (a, b) = (u.min(v), u.max(v));
    let up = rel.provider(a, b) == Some(v);
    let down = rel.customer(a, b) == Some(v);
    let sib = rel == Relationship::Sibling;
    if phase == PHASE_UP {
        if up || sib {
            Some(PHASE_UP)
        } else if down || rel == Relationship::Peer {
            Some(PHASE_DOWN)
        } else {
            None
        }
    } else if down || sib {
        Some(PHASE_DOWN)
    } else {
        None
    }
}

/// Shortest valley-free distances (in AS hops) from `src` to every node.
/// Unreachable-under-policy nodes get
/// [`UNREACHED`](topogen_graph::UNREACHED).
///
/// ```
/// use topogen_graph::{Graph, UNREACHED};
/// use topogen_policy::rel::annotations_from_pairs;
/// use topogen_policy::valley::policy_distances;
///
/// // 0 and 2 are both customers of 1: the path 0→1→2 (up, down) is
/// // valley-free, so they can reach each other through their provider.
/// let g = Graph::from_edges(3, vec![(0, 1), (1, 2)]);
/// let ann = annotations_from_pairs(&g, &[(1, 0), (1, 2)], &[], &[]);
/// assert_eq!(policy_distances(&g, &ann, 0)[2], 2);
///
/// // Flip the middle AS to be the *customer* of both: now 0→1→2 would
/// // descend and climb again (a valley) — unroutable.
/// let ann = annotations_from_pairs(&g, &[(0, 1), (2, 1)], &[], &[]);
/// assert_eq!(policy_distances(&g, &ann, 0)[2], UNREACHED);
/// ```
pub fn policy_distances(g: &Graph, ann: &AsAnnotations, src: NodeId) -> Vec<u32> {
    policy_shortest_path_dag(g, ann, src).node_dist
}

/// The valley-free shortest-path DAG from `src`: per-state distances,
/// equal-cost path counts σ and predecessors, with state
/// [`state`]`(v, phase)` — everything the policy-aware hierarchy and
/// ball-growing computations consume.
pub fn policy_shortest_path_dag(g: &Graph, ann: &AsAnnotations, src: NodeId) -> PathDag {
    path_dag(g, src, 2, |u, v, phase| {
        let rel = ann.get(g, u, v).expect("annotated graph covers every edge");
        step(rel, u, v, phase)
    })
}

/// Reconstruct one shortest policy path from the DAG's source to `v`
/// (first-predecessor choice; deterministic). Returns the node sequence
/// source..=v, or `None` if unreachable.
pub fn one_policy_path(dag: &PathDag, v: NodeId) -> Option<Vec<NodeId>> {
    let terminals = dag.terminal_states(v);
    let mut s = *terminals.first()?;
    let mut rev = vec![dag.node_of(s)];
    while dag.dist[s as usize] > 0 {
        s = dag.preds[s as usize][0];
        rev.push(dag.node_of(s));
    }
    rev.reverse();
    Some(rev)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rel::annotations_from_pairs;
    use topogen_graph::{Graph, UNREACHED};

    /// The paper's Appendix E example (Figure 15):
    /// provider→customer: A→B, A→C, A→H(?) — we reconstruct the figure:
    /// nodes A=0,B=1,C=2,D=3,E=4,F=5,G=6,H=7 with
    /// A→B, A→C, A→H, B→E, C→D, E→G, E→F, D→E? The figure's stated
    /// balls: radius 3 from A = {A,B,C,D,E,G,H} with links (A,B),(A,C),
    /// (A,H),(B,E),(C,D),(E,G); radius 4 adds F and links (D,E),(E,F).
    /// That is consistent with: A provider of B, C, H; B provider of E;
    /// C provider of D; E provider of G and F; D provider of E.
    fn figure15() -> (Graph, crate::rel::AsAnnotations) {
        let g = Graph::from_edges(
            8,
            vec![
                (0, 1), // A-B
                (0, 2), // A-C
                (0, 7), // A-H
                (1, 4), // B-E
                (2, 3), // C-D
                (3, 4), // D-E
                (4, 6), // E-G
                (4, 5), // E-F
            ],
        );
        let ann = annotations_from_pairs(
            &g,
            &[
                (0, 1),
                (0, 2),
                (0, 7),
                (1, 4),
                (2, 3),
                (3, 4),
                (4, 6),
                (4, 5),
            ],
            &[],
            &[],
        );
        (g, ann)
    }

    #[test]
    fn figure15_distances_from_a() {
        let (g, ann) = figure15();
        let d = policy_distances(&g, &ann, 0);
        // A=0 B=1 C=1 H=1 E=2 D=2 G=3 F=3? The paper says F enters at
        // radius 4 via D→E→F because the direct B→E→F path... wait:
        // A→B→E→F is all downhill (A prov B, B prov E, E prov F): F at 3.
        // But the paper's figure places F at h=4. The figure must orient
        // B–E differently: E provider of B would block A→B→E.
        // See figure15_paper_variant below; here F is at 3.
        assert_eq!(d[0], 0);
        assert_eq!(d[1], 1);
        assert_eq!(d[2], 1);
        assert_eq!(d[7], 1);
        assert_eq!(d[4], 2);
        assert_eq!(d[3], 2);
        assert_eq!(d[6], 3);
        assert_eq!(d[5], 3);
    }

    /// The exact Figure 15 semantics: with E a *customer* of B replaced
    /// by E being reached only via the valley path, F lands at hop 4.
    fn figure15_paper() -> (Graph, crate::rel::AsAnnotations) {
        let g = Graph::from_edges(
            8,
            vec![
                (0, 1), // A-B
                (0, 2), // A-C
                (0, 7), // A-H
                (1, 4), // B-E: E provider of B (customer-provider from B)
                (2, 3), // C-D
                (3, 4), // D-E
                (4, 6), // E-G
                (4, 5), // E-F
            ],
        );
        let ann = annotations_from_pairs(
            &g,
            &[
                (0, 1),
                (0, 2),
                (0, 7),
                (4, 1), // E provider of B
                (2, 3),
                (3, 4), // D provider of E
                (4, 6),
                (4, 5),
            ],
            &[],
            &[],
        );
        (g, ann)
    }

    #[test]
    fn figure15_paper_ball_semantics() {
        let (g, ann) = figure15_paper();
        let d = policy_distances(&g, &ann, 0);
        // A cannot reach E via B (that would be down A→B then up B→E).
        // E is reached via A→C→D→E (down, down, down): distance 3.
        assert_eq!(d[4], 3);
        // F and G hang below E: distance 4.
        assert_eq!(d[5], 4);
        assert_eq!(d[6], 4);
        // B, C, H at 1; D at 2.
        assert_eq!(d[1], 1);
        assert_eq!(d[3], 2);
    }

    #[test]
    fn valley_is_blocked() {
        // 0 is provider of 1; 2 is provider of 1. Path 0→1→2 would be
        // down-then-up: invalid. 0 and 2 are mutually unreachable.
        let g = Graph::from_edges(3, vec![(0, 1), (1, 2)]);
        let ann = annotations_from_pairs(&g, &[(0, 1), (2, 1)], &[], &[]);
        let d = policy_distances(&g, &ann, 0);
        assert_eq!(d[1], 1);
        assert_eq!(d[2], UNREACHED);
        // And symmetrically.
        let d2 = policy_distances(&g, &ann, 2);
        assert_eq!(d2[0], UNREACHED);
    }

    #[test]
    fn up_then_down_allowed() {
        // Customer 0 → provider 1 → customer 2: classic up-down path.
        let g = Graph::from_edges(3, vec![(0, 1), (1, 2)]);
        let ann = annotations_from_pairs(&g, &[(1, 0), (1, 2)], &[], &[]);
        let d = policy_distances(&g, &ann, 0);
        assert_eq!(d[2], 2);
    }

    #[test]
    fn single_peer_at_apex() {
        // 0 up to 1, peer 1-2, down 2-3: valid (up* peer down*).
        let g = Graph::from_edges(4, vec![(0, 1), (1, 2), (2, 3)]);
        let ann = annotations_from_pairs(&g, &[(1, 0), (2, 3)], &[(1, 2)], &[]);
        let d = policy_distances(&g, &ann, 0);
        assert_eq!(d[3], 3);
    }

    #[test]
    fn two_peer_links_blocked() {
        // 0 peer 1 peer 2: second peer step is invalid.
        let g = Graph::from_edges(3, vec![(0, 1), (1, 2)]);
        let ann = annotations_from_pairs(&g, &[], &[(0, 1), (1, 2)], &[]);
        let d = policy_distances(&g, &ann, 0);
        assert_eq!(d[1], 1);
        assert_eq!(d[2], UNREACHED);
    }

    #[test]
    fn peer_then_up_blocked() {
        // 0 peer 1, then 1 up to 2: invalid.
        let g = Graph::from_edges(3, vec![(0, 1), (1, 2)]);
        let ann = annotations_from_pairs(&g, &[(2, 1)], &[(0, 1)], &[]);
        let d = policy_distances(&g, &ann, 0);
        assert_eq!(d[2], UNREACHED);
    }

    #[test]
    fn siblings_are_transparent() {
        // down, sibling, down: valid. up after sibling-down: invalid.
        let g = Graph::from_edges(4, vec![(0, 1), (1, 2), (2, 3)]);
        let ann = annotations_from_pairs(&g, &[(0, 1), (2, 3)], &[], &[(1, 2)]);
        let d = policy_distances(&g, &ann, 0);
        assert_eq!(d[3], 3);
    }

    #[test]
    fn sibling_up_down_flexible() {
        // sibling then up is fine (sibling keeps the ascending phase).
        let g = Graph::from_edges(3, vec![(0, 1), (1, 2)]);
        let ann = annotations_from_pairs(&g, &[(2, 1)], &[], &[(0, 1)]);
        let d = policy_distances(&g, &ann, 0);
        assert_eq!(d[2], 2);
    }

    #[test]
    fn policy_distance_longer_than_shortest() {
        // Square 0-1-2-3-0. Direct 0-1 is customer→customer of different
        // providers... construct: 1 provider of 0 and 2; 3 provider of 0
        // and 2. Distance 0→2 is 2 both raw and policy. Now make policy
        // force the long way: chain where shortcut is a valley.
        // 0-1 (1 prov 0), 1-2 (1 prov 2): up then down = 2. OK valid.
        // Use the classic: path inflation happens when the valley path is
        // shorter: 0-1 (0 prov 1), 1-2 (2 prov 1): 0→1→2 is down-up =
        // invalid; alternative 0-3 (3 prov 0), 3-2 (3 prov 2): up-down
        // valid, length 2. With both, policy distance equals 2 but only
        // one of the two 2-hop paths is policy-compliant.
        let g = Graph::from_edges(4, vec![(0, 1), (1, 2), (0, 3), (2, 3)]);
        let ann = annotations_from_pairs(&g, &[(0, 1), (2, 1), (3, 0), (3, 2)], &[], &[]);
        let dag = policy_shortest_path_dag(&g, &ann, 0);
        assert_eq!(dag.node_dist[2], 2);
        assert_eq!(dag.sigma_to(2), 1.0, "only the 0-3-2 path is valid");
    }

    #[test]
    fn sigma_counts_equal_cost_policy_paths() {
        // Two disjoint up-down paths 0→{1,2}→3 of equal length.
        let g = Graph::from_edges(4, vec![(0, 1), (1, 3), (0, 2), (2, 3)]);
        let ann = annotations_from_pairs(&g, &[(1, 0), (1, 3), (2, 0), (2, 3)], &[], &[]);
        let dag = policy_shortest_path_dag(&g, &ann, 0);
        assert_eq!(dag.node_dist[3], 2);
        assert_eq!(dag.sigma_to(3), 2.0);
    }

    #[test]
    fn one_policy_path_reconstruction() {
        let (g, ann) = figure15_paper();
        let dag = policy_shortest_path_dag(&g, &ann, 0);
        let p = one_policy_path(&dag, 5).unwrap();
        assert_eq!(p, vec![0, 2, 3, 4, 5]);
        assert_eq!(one_policy_path(&dag, 0).unwrap(), vec![0]);
    }

    #[test]
    fn unreachable_has_no_path() {
        let g = Graph::from_edges(3, vec![(0, 1), (1, 2)]);
        let ann = annotations_from_pairs(&g, &[(0, 1), (2, 1)], &[], &[]);
        let dag = policy_shortest_path_dag(&g, &ann, 0);
        assert!(one_policy_path(&dag, 2).is_none());
        assert!(dag.terminal_states(2).is_empty());
        assert_eq!(dag.sigma_to(2), 0.0);
    }

    #[test]
    fn up_then_down_ends_in_the_descending_state() {
        // 0 → 1 → 2 with 1 the provider of both.
        let g = Graph::from_edges(3, vec![(0, 1), (1, 2)]);
        let ann = annotations_from_pairs(&g, &[(1, 0), (1, 2)], &[], &[]);
        let dag = policy_shortest_path_dag(&g, &ann, 0);
        assert_eq!(dag.dist.len(), 6);
        assert_eq!(dag.node_dist[2], 2);
        assert_eq!(dag.sigma_to(2), 1.0);
        // Node 2 is reached only in the descending phase.
        assert_eq!(dag.terminal_states(2), vec![state(2, PHASE_DOWN)]);
        assert_eq!(dag.node_of(state(2, PHASE_DOWN)), 2);
    }
}
