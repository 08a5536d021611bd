//! Traversal sets: which node pairs use which link, with equal-cost
//! splitting weights (§5, footnote 27).
//!
//! For each unordered pair `(u, v)` and link `l`, the weight `w(u, v, l)`
//! is the fraction of the equal-cost shortest paths between `u` and `v`
//! that traverse `l`. We compute them with one DAG per source and a
//! per-target backward accumulation (the same bookkeeping as Brandes'
//! betweenness, but keeping per-pair resolution because the vertex cover
//! of §5 needs the pair structure, not just totals).
//!
//! The engine is parallel and arena-backed: sources are spread over
//! worker threads (each computes its whole DAG plus all of its pairs'
//! accumulations independently), per-pair link weights go through a
//! frontier-local compressed `(link, share)` scratch sized by one pair's
//! path states (not the whole edge set — the former dense epoch-stamped
//! arrays pinned 12·m bytes per worker, which dominated memory at the
//! large/xl tiers), and the per-source contributions are merged in ascending
//! source order into one flat CSR-style arena ([`LinkTraversals`]) — a
//! counting pass, one buffer, one offsets array. Because the merge order
//! is fixed and every floating-point operation happens within a single
//! source's worker, the output is bit-identical at any thread count
//! (the same determinism contract as the shared-ball metrics engine).

use crate::dag::PathDag;
use crate::linkvalue::PathMode;
use topogen_graph::{Graph, NodeId, UNREACHED};
use topogen_par::{par_map_threads, phase, Instrument};

/// One traversal-set entry: pair `(u, v)` crosses the link with weight
/// `w` (0 < w ≤ 1).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PairWeight {
    /// Smaller pair endpoint.
    pub u: NodeId,
    /// Larger pair endpoint.
    pub v: NodeId,
    /// Fraction of the pair's equal-cost paths crossing the link.
    pub w: f64,
}

/// The traversal sets of every link, indexed like [`Graph::edges`],
/// stored as one flat arena: `offsets[l]..offsets[l+1]` slices the
/// shared `pairs` buffer. Replaces the former `Vec<Vec<PairWeight>>`
/// (millions of small allocations on full graphs) with exactly two
/// allocations regardless of graph size.
#[derive(Clone, Debug)]
pub struct LinkTraversals {
    /// `offsets[l]..offsets[l+1]` bounds link `l`'s pairs; length
    /// `link_count + 1`.
    offsets: Vec<usize>,
    /// All pair weights, concatenated per link in ascending
    /// `(u, v)` order within each link.
    pairs: Vec<PairWeight>,
}

impl LinkTraversals {
    /// Number of links (same as [`Graph::edge_count`]).
    pub fn link_count(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Whether there are no links at all.
    pub fn is_empty(&self) -> bool {
        self.link_count() == 0
    }

    /// The traversal set of link `l` (indexed as in [`Graph::edges`]).
    pub fn link(&self, l: usize) -> &[PairWeight] {
        &self.pairs[self.offsets[l]..self.offsets[l + 1]]
    }

    /// Iterate over every link's traversal set, in edge-index order.
    pub fn iter_links(&self) -> impl Iterator<Item = &[PairWeight]> {
        self.offsets
            .windows(2)
            .map(move |w| &self.pairs[w[0]..w[1]])
    }

    /// Traversal-set size of each link (number of pairs).
    pub fn sizes(&self) -> Vec<usize> {
        self.offsets.windows(2).map(|w| w[1] - w[0]).collect()
    }

    /// Total number of (pair, link) entries across all links.
    pub fn total_pairs(&self) -> usize {
        self.pairs.len()
    }

    /// Bytes held by the arena (offsets plus the flat pair buffer).
    pub fn arena_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<usize>()
            + self.pairs.len() * std::mem::size_of::<PairWeight>()
    }
}

/// One source's contribution: for each of its pairs' links, the edge
/// index, the target, and the accumulated weight (the source itself is
/// implicit). Entries are emitted in ascending target order.
struct SourceContrib {
    entries: Vec<(u32, NodeId, f64)>,
    /// DAG states visited during the backward accumulations.
    states_visited: u64,
    /// Pairs accumulated (reachable targets above the source).
    pairs: u64,
    /// Peak frontier-local scratch entries held by any single pair's
    /// accumulation (the compressed replacement for the former dense
    /// per-edge arrays).
    scratch_peak: usize,
}

/// Compute all traversal sets under the given path mode. Pairs are
/// unordered (`u < v`); each link's list accumulates every pair whose
/// shortest-path DAG crosses it. Uses every available core; see
/// [`link_traversals_threads`] for explicit control.
///
/// Cost: O(Σ_pairs |states on the pair's shortest paths|) work and the
/// output's total size is Σ_pairs (path length) — the paper restricted
/// this to the RL *core* (footnote 29); the parallel arena engine
/// extends it to full measured graphs.
pub fn link_traversals(g: &Graph, mode: &PathMode<'_>) -> LinkTraversals {
    link_traversals_threads(g, mode, None, None)
}

/// [`link_traversals`] with an explicit worker count (`None` =
/// `available_parallelism`, `Some(1)` = serial) and an optional
/// instrumentation sink receiving the `hier-traversal` phase time plus
/// DAG-state / pair / arena-byte counters.
pub fn link_traversals_threads(
    g: &Graph,
    mode: &PathMode<'_>,
    threads: Option<usize>,
    ins: Option<&Instrument>,
) -> LinkTraversals {
    // Fault site + deadline checkpoint at the phase boundary; both are
    // no-ops unless armed / a deadline is ambient.
    topogen_par::faults::inject("hier", "traversal");
    topogen_par::cancel::checkpoint();
    let _phase = phase(ins, "hier-traversal");
    let n = g.node_count();
    let m = g.edge_count();
    let sources: Vec<NodeId> = (0..n as NodeId).collect();

    // Phase 1 (parallel): one DAG + all pair accumulations per source.
    let contribs: Vec<SourceContrib> =
        par_map_threads(&sources, threads, |&u| source_contrib(g, mode, u));

    // Phase boundary between traversal and merge.
    topogen_par::cancel::checkpoint();

    // Phase 2 (serial merge, ascending source order): counting pass,
    // offsets, then one placement sweep — per link, entries land in
    // ascending (u, v) order, independent of the thread count.
    let _merge_span = topogen_par::trace::span("hier-merge");
    let mut counts = vec![0usize; m];
    for c in &contribs {
        for &(l, _, _) in &c.entries {
            counts[l as usize] += 1;
        }
    }
    let mut offsets = Vec::with_capacity(m + 1);
    let mut acc = 0usize;
    offsets.push(0);
    for &c in &counts {
        acc += c;
        offsets.push(acc);
    }
    let mut pairs = vec![PairWeight { u: 0, v: 0, w: 0.0 }; acc];
    let mut cursor: Vec<usize> = offsets[..m].to_vec();
    for (u, c) in contribs.iter().enumerate() {
        for &(l, v, w) in &c.entries {
            let slot = cursor[l as usize];
            cursor[l as usize] += 1;
            pairs[slot] = PairWeight {
                u: u as NodeId,
                v,
                w,
            };
        }
    }
    let t = LinkTraversals { offsets, pairs };

    if let Some(ins) = ins {
        ins.add_dag_states(contribs.iter().map(|c| c.states_visited).sum());
        ins.add_pairs_accumulated(contribs.iter().map(|c| c.pairs).sum());
        ins.add_arena_bytes(t.arena_bytes() as u64);
        // High-water of the compressed per-pair scratch across all
        // workers — a max over sources, so thread-order free. The former
        // dense scratch pinned 12·m bytes per worker; this is what the
        // perf gate ratchets instead.
        let scratch = contribs.iter().map(|c| c.scratch_peak).max().unwrap_or(0);
        ins.record_scratch_peak((scratch * std::mem::size_of::<(u32, f64)>()) as u64);
    }
    t
}

/// All of one source's backward accumulations: build the DAG, then for
/// each reachable target `v > u` distribute the unit of traffic and
/// aggregate per-link weights through a frontier-local compressed
/// scratch (see [`accumulate_pair`]).
fn source_contrib(g: &Graph, mode: &PathMode<'_>, u: NodeId) -> SourceContrib {
    let n = g.node_count();
    let dag = match mode {
        PathMode::Shortest => PathDag::plain(g, u),
        PathMode::Policy(ann) => PathDag::policy(g, ann, u),
    };
    // Resolve each DAG edge's graph-edge index once per source instead of
    // binary-searching inside every target's accumulation. `SAME_NODE`
    // marks intra-node policy transitions (no graph edge crossed).
    let pred_edge: Vec<Vec<u32>> = dag
        .preds
        .iter()
        .enumerate()
        .map(|(s, ps)| {
            let node_s = dag.node_of[s];
            ps.iter()
                .map(|&p| {
                    let node_p = dag.node_of[p as usize];
                    if node_p == node_s {
                        SAME_NODE
                    } else {
                        g.edge_index(node_p, node_s)
                            .expect("DAG edge projects to a graph edge")
                            as u32
                    }
                })
                .collect()
        })
        .collect();
    let mut frac = vec![0.0f64; dag.state_count()];
    let mut touched: Vec<u32> = Vec::new();
    // Frontier-local compressed scratch, reused across the source's
    // pairs: raw `(link, share)` contributions in DAG-processing order.
    // Sized by the states on ONE pair's shortest paths — the former
    // dense epoch-stamped arrays were sized by the whole edge set
    // (12·m bytes per worker), which dominated worker memory at
    // large/xl.
    let mut contribs: Vec<(u32, f64)> = Vec::new();
    let mut out = SourceContrib {
        entries: Vec::new(),
        states_visited: 0,
        pairs: 0,
        scratch_peak: 0,
    };
    for v in (u + 1)..n as NodeId {
        if dag.node_dist[v as usize] == UNREACHED || dag.node_dist[v as usize] == 0 {
            continue;
        }
        accumulate_pair(&dag, &pred_edge, v, &mut frac, &mut touched, &mut contribs);
        out.pairs += 1;
        out.states_visited += touched.len() as u64;
        out.scratch_peak = out.scratch_peak.max(contribs.len());
        // Aggregate the raw contributions per link. The sort is STABLE,
        // so within one link the shares keep their emission order, and
        // the running sum below performs the exact float additions (in
        // the exact order) the dense scratch's `+=` used to — the
        // compressed path is bit-identical by construction.
        contribs.sort_by_key(|&(l, _)| l);
        let mut i = 0usize;
        while i < contribs.len() {
            let l = contribs[i].0;
            let mut w = contribs[i].1;
            let mut j = i + 1;
            while j < contribs.len() && contribs[j].0 == l {
                w += contribs[j].1;
                j += 1;
            }
            out.entries.push((l, v, w));
            i = j;
        }
    }
    out
}

/// Marks a DAG transition between two states of the same node (policy
/// phase changes) in the per-source `pred_edge` table.
const SAME_NODE: u32 = u32::MAX;

/// Backward accumulation for one (source, target) pair: distribute the
/// unit of traffic over the shortest-path DAG, emitting one raw
/// `(link, share)` pair into `contribs` per crossed transition (the
/// caller aggregates per link; see [`source_contrib`]). `pred_edge`
/// mirrors `dag.preds` with each transition's pre-resolved graph-edge
/// index.
fn accumulate_pair(
    dag: &PathDag,
    pred_edge: &[Vec<u32>],
    v: NodeId,
    frac: &mut [f64],
    touched: &mut Vec<u32>,
    contribs: &mut Vec<(u32, f64)>,
) {
    contribs.clear();
    touched.clear();
    let terminals = dag.terminal_states(v);
    let sigma_tot: f64 = terminals.iter().map(|&s| dag.sigma[s as usize]).sum();
    if sigma_tot <= 0.0 {
        return;
    }
    for &s in &terminals {
        frac[s as usize] = dag.sigma[s as usize] / sigma_tot;
        touched.push(s);
    }
    // Process states in decreasing distance order. Distances decrease by
    // exactly 1 along preds, so a simple bucket walk works: a queue
    // ordered by discovery suffices because all terminals share one
    // distance and each step goes one level down.
    let mut i = 0usize;
    while i < touched.len() {
        let s = touched[i];
        i += 1;
        let fs = frac[s as usize];
        if fs <= 0.0 {
            continue;
        }
        for (&p, &e) in dag.preds[s as usize].iter().zip(&pred_edge[s as usize]) {
            let share = fs * dag.sigma[p as usize] / dag.sigma[s as usize];
            if e != SAME_NODE {
                // A link can receive multiple contributions per pair
                // (policy states); emit them raw and let the caller's
                // stable-sorted run-sum aggregate — the scratch stays
                // proportional to one pair's path states, not the whole
                // edge set.
                contribs.push((e, share));
            }
            if frac[p as usize] == 0.0 {
                touched.push(p);
            }
            frac[p as usize] += share;
        }
    }
    for &s in touched.iter() {
        frac[s as usize] = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topogen_policy::rel::annotations_from_pairs;

    #[test]
    fn path_graph_traversals() {
        // 0-1-2: link (0,1) carries pairs (0,1),(0,2); link (1,2) carries
        // (1,2),(0,2); all weights 1.
        let g = Graph::from_edges(3, vec![(0, 1), (1, 2)]);
        let t = link_traversals(&g, &PathMode::Shortest);
        assert_eq!(t.sizes(), vec![2, 2]);
        for link in t.iter_links() {
            for pw in link {
                assert!((pw.w - 1.0).abs() < 1e-12);
                assert!(pw.u < pw.v);
            }
        }
    }

    #[test]
    fn equal_cost_split_on_square() {
        // 4-cycle: pair (0,2) splits 50/50 over the two sides.
        let g = Graph::from_edges(4, vec![(0, 1), (1, 2), (2, 3), (3, 0)]);
        let t = link_traversals(&g, &PathMode::Shortest);
        let idx01 = g.edge_index(0, 1).unwrap();
        let pw: Vec<&PairWeight> = t
            .link(idx01)
            .iter()
            .filter(|p| p.u == 0 && p.v == 2)
            .collect();
        assert_eq!(pw.len(), 1);
        assert!((pw[0].w - 0.5).abs() < 1e-12);
        // Adjacent pair (0,1) uses the link fully.
        let adj: Vec<&PairWeight> = t
            .link(idx01)
            .iter()
            .filter(|p| p.u == 0 && p.v == 1)
            .collect();
        assert!((adj[0].w - 1.0).abs() < 1e-12);
    }

    #[test]
    fn access_link_carries_n_minus_1_pairs() {
        // Star: every spoke is an access link with traversal set size
        // n-1 (paper's observation in §5).
        let g = Graph::from_edges(5, (1..5).map(|i| (0, i)));
        let t = link_traversals(&g, &PathMode::Shortest);
        for s in t.sizes() {
            assert_eq!(s, 4);
        }
    }

    #[test]
    fn weights_sum_to_path_length() {
        // Σ_l w(u,v,l) = d(u,v) for every pair (flow conservation).
        let g = Graph::from_edges(
            6,
            vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 4)],
        );
        let t = link_traversals(&g, &PathMode::Shortest);
        let mut per_pair: std::collections::HashMap<(NodeId, NodeId), f64> = Default::default();
        for link in t.iter_links() {
            for pw in link {
                *per_pair.entry((pw.u, pw.v)).or_insert(0.0) += pw.w;
            }
        }
        for ((u, v), total) in per_pair {
            let d = topogen_graph::bfs::distances(&g, u)[v as usize] as f64;
            assert!(
                (total - d).abs() < 1e-9,
                "pair ({u},{v}): Σw = {total}, d = {d}"
            );
        }
    }

    #[test]
    fn policy_excludes_valley_pairs() {
        // 0 prov 1, 2 prov 1: pair (0,2) is unroutable; link loads drop.
        let g = Graph::from_edges(3, vec![(0, 1), (1, 2)]);
        let ann = annotations_from_pairs(&g, &[(0, 1), (2, 1)], &[], &[]);
        let t = link_traversals(&g, &PathMode::Policy(&ann));
        // Each link carries only its adjacent pair.
        assert_eq!(t.sizes(), vec![1, 1]);
    }

    #[test]
    fn policy_concentrates_usage() {
        // Square with a peer shortcut: 0-1 (1 prov 0), 1-2 (1 prov 2),
        // plus 0-2 peer, 2-3 (2 prov 3). Paths from 3: 3→2 up, then peer
        // 2-0 or down 2-1 — but NOT 3→2→0→… anything beyond.
        let g = Graph::from_edges(4, vec![(0, 1), (1, 2), (0, 2), (2, 3)]);
        let ann = annotations_from_pairs(&g, &[(1, 0), (1, 2), (2, 3)], &[(0, 2)], &[]);
        let plain = link_traversals(&g, &PathMode::Shortest);
        let pol = link_traversals(&g, &PathMode::Policy(&ann));
        let total_plain: usize = plain.sizes().iter().sum();
        let total_pol: usize = pol.sizes().iter().sum();
        assert!(total_pol <= total_plain);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty(3);
        let t = link_traversals(&g, &PathMode::Shortest);
        assert!(t.is_empty());
        assert_eq!(t.total_pairs(), 0);
    }

    #[test]
    fn arena_slices_match_sizes() {
        let g = Graph::from_edges(5, vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let t = link_traversals(&g, &PathMode::Shortest);
        let sizes = t.sizes();
        assert_eq!(sizes.len(), t.link_count());
        for (l, &s) in sizes.iter().enumerate() {
            assert_eq!(t.link(l).len(), s);
        }
        assert_eq!(t.total_pairs(), sizes.iter().sum::<usize>());
        assert!(t.arena_bytes() >= t.total_pairs() * std::mem::size_of::<PairWeight>());
    }

    #[test]
    fn instrument_counters_populate() {
        let g = Graph::from_edges(4, vec![(0, 1), (1, 2), (2, 3)]);
        let ins = Instrument::new();
        let t = link_traversals_threads(&g, &PathMode::Shortest, Some(1), Some(&ins));
        let r = ins.report();
        assert_eq!(r.pairs_accumulated, 6); // C(4,2) reachable pairs
        assert!(r.dag_states > 0);
        assert_eq!(r.arena_bytes, t.arena_bytes() as u64);
        assert!(r.phases.iter().any(|p| p.name == "hier-traversal"));
    }
}
