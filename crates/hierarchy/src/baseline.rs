//! Reference implementation of the §5 link-value pipeline: fully
//! serial, per-pair `HashMap` accumulation, `Vec<Vec<PairWeight>>`
//! traversal sets, `HashMap`-keyed node weights.
//!
//! This is the pre-arena engine, retained verbatim for two jobs:
//!
//! * **correctness oracle** — the equivalence tests assert the parallel
//!   arena engine of [`crate::traversal`] / [`crate::cover`] reproduces
//!   these results bit-for-bit (every floating-point operation happens
//!   in the same order in both);
//! * **bench baseline** — `bench_hierarchy` measures the arena engine's
//!   speedup against this code and records it in `BENCH_hierarchy.json`.
//!
//! Each source's DAG is the graph crate's `bfs::shortest_path_dag` or
//! `valley::policy_shortest_path_dag`, one `PathDag` type for both.
//!
//! Do not use it for real workloads: it makes millions of small
//! allocations (one map per pair, one `Vec` per link) and runs on one
//! core.

use crate::cover::covers_all;
use crate::linkvalue::PathMode;
use crate::traversal::PairWeight;
use std::collections::HashMap;
use topogen_graph::bfs::{shortest_path_dag, PathDag};
use topogen_graph::{Graph, NodeId, UNREACHED};
use topogen_policy::valley::policy_shortest_path_dag;

/// Serial traversal sets as per-link vectors (the pre-arena layout).
pub fn link_traversals_ref(g: &Graph, mode: &PathMode<'_>) -> Vec<Vec<PairWeight>> {
    let n = g.node_count();
    let m = g.edge_count();
    let mut per_link: Vec<Vec<PairWeight>> = vec![Vec::new(); m];
    let mut frac: Vec<f64> = Vec::new();
    let mut touched: Vec<u32> = Vec::new();
    for u in 0..n as NodeId {
        let dag = match mode {
            PathMode::Shortest => shortest_path_dag(g, u),
            PathMode::Policy(ann) => policy_shortest_path_dag(g, ann, u),
        };
        frac.clear();
        frac.resize(dag.dist.len(), 0.0);
        for v in (u + 1)..n as NodeId {
            if dag.node_dist[v as usize] == UNREACHED || dag.node_dist[v as usize] == 0 {
                continue;
            }
            accumulate_pair_ref(g, &dag, u, v, &mut frac, &mut touched, &mut per_link);
        }
    }
    per_link
}

/// Backward accumulation for one (source, target) pair, aggregating
/// per-link weights in a per-pair map (the allocation pattern the arena
/// engine eliminates).
fn accumulate_pair_ref(
    g: &Graph,
    dag: &PathDag,
    u: NodeId,
    v: NodeId,
    frac: &mut [f64],
    touched: &mut Vec<u32>,
    per_link: &mut [Vec<PairWeight>],
) {
    let terminals = dag.terminal_states(v);
    let sigma_tot: f64 = terminals.iter().map(|&s| dag.sigma[s as usize]).sum();
    if sigma_tot <= 0.0 {
        return;
    }
    touched.clear();
    for &s in &terminals {
        frac[s as usize] = dag.sigma[s as usize] / sigma_tot;
        touched.push(s);
    }
    let mut i = 0usize;
    let mut link_acc: HashMap<usize, f64> = Default::default();
    while i < touched.len() {
        let s = touched[i];
        i += 1;
        let fs = frac[s as usize];
        if fs <= 0.0 {
            continue;
        }
        let node_s = dag.node_of(s);
        for &p in &dag.preds[s as usize] {
            let share = fs * dag.sigma[p as usize] / dag.sigma[s as usize];
            let node_p = dag.node_of(p);
            if node_p != node_s {
                let idx = g
                    .edge_index(node_p, node_s)
                    .expect("DAG edge projects to a graph edge");
                *link_acc.entry(idx).or_insert(0.0) += share;
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
    for (idx, w) in link_acc {
        per_link[idx].push(PairWeight { u, v, w });
    }
}

/// Serial link value of one traversal set, with `HashMap`-keyed node
/// weights and the same primal-dual cover as the compact engine. The
/// cover value is summed in ascending node-id order so the result
/// matches [`crate::cover::link_value`] exactly.
pub fn link_value_ref(pairs: &[PairWeight]) -> f64 {
    if pairs.is_empty() {
        return 0.0;
    }
    let mut sum: HashMap<NodeId, (f64, usize)> = HashMap::new();
    for p in pairs {
        let e = sum.entry(p.u).or_insert((0.0, 0));
        e.0 += p.w;
        e.1 += 1;
        let e = sum.entry(p.v).or_insert((0.0, 0));
        e.0 += p.w;
        e.1 += 1;
    }
    let weights: HashMap<NodeId, f64> = sum
        .into_iter()
        .map(|(x, (s, c))| (x, s / c as f64))
        .collect();
    let mut residual: HashMap<NodeId, f64> = weights.clone();
    let tight = |residual: &HashMap<NodeId, f64>, x: NodeId| residual[&x] <= 1e-12;
    for p in pairs {
        if p.u == p.v {
            continue;
        }
        if tight(&residual, p.u) || tight(&residual, p.v) {
            continue;
        }
        let eps = residual[&p.u].min(residual[&p.v]);
        *residual.get_mut(&p.u).unwrap() -= eps;
        *residual.get_mut(&p.v).unwrap() -= eps;
    }
    let mut cover: Vec<NodeId> = weights
        .keys()
        .copied()
        .filter(|&x| residual[&x] <= 1e-12)
        .collect();
    cover.sort_unstable();
    debug_assert!(covers_all(pairs, &cover));
    cover.iter().map(|x| weights[x]).sum()
}

/// Serial end-to-end link values (the pre-arena pipeline): serial
/// traversal sets, serial covers, normalized by node count.
pub fn link_values_ref(g: &Graph, mode: &PathMode<'_>) -> Vec<f64> {
    let n = g.node_count();
    if n == 0 {
        return Vec::new();
    }
    let per_link = link_traversals_ref(g, mode);
    per_link
        .iter()
        .map(|pairs| link_value_ref(pairs) / n as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ref_matches_paper_example() {
        // 0-1-2 path: middle-free; both links carry 2 pairs.
        let g = Graph::from_edges(3, vec![(0, 1), (1, 2)]);
        let t = link_traversals_ref(&g, &PathMode::Shortest);
        assert_eq!(t.iter().map(Vec::len).collect::<Vec<_>>(), vec![2, 2]);
        let v = link_values_ref(&g, &PathMode::Shortest);
        assert_eq!(v.len(), 2);
        assert!(v.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn ref_empty_graph() {
        let g = Graph::empty(4);
        assert!(link_traversals_ref(&g, &PathMode::Shortest).is_empty());
        assert!(link_values_ref(&g, &PathMode::Shortest).is_empty());
    }
}
