//! Balanced graph bisection for the resilience metric.
//!
//! The paper defines resilience through "the minimum cut-set size for a
//! balanced bi-partition of a graph" and notes the problem is NP-hard,
//! using "the well-tested heuristics described in [Karypis–Kumar]". We
//! implement the same multilevel recipe:
//!
//! 1. **Coarsen** by heavy-edge matching until the graph is small,
//!    carrying node weights (merged node counts) and edge weights
//!    (merged multiplicities);
//! 2. **Initial partition** of the coarsest graph by greedy BFS region
//!    growing from a random seed to half the total weight;
//! 3. **Refine** while uncoarsening with Fiduccia–Mattheyses-style
//!    single-node moves under a balance constraint.
//!
//! Several random starts are taken and the best (smallest) balanced cut
//! returned. Balance tolerance is ±10% of half the weight, matching the
//! paper's "approximately n/2 nodes".

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use topogen_graph::Graph;

/// A weighted working graph used during coarsening.
#[derive(Clone, Debug)]
struct WGraph {
    /// adjacency: per node, (neighbor, edge weight).
    adj: Vec<Vec<(u32, u64)>>,
    /// node weights (number of original nodes merged).
    wnode: Vec<u64>,
}

impl WGraph {
    fn from_graph(g: &Graph) -> WGraph {
        let n = g.node_count();
        let mut adj = vec![Vec::new(); n];
        for e in g.edges() {
            adj[e.a as usize].push((e.b, 1));
            adj[e.b as usize].push((e.a, 1));
        }
        WGraph {
            adj,
            wnode: vec![1; n],
        }
    }

    fn n(&self) -> usize {
        self.wnode.len()
    }

    fn total_weight(&self) -> u64 {
        self.wnode.iter().sum()
    }
}

/// Result of a bisection.
#[derive(Clone, Debug)]
pub struct Bisection {
    /// Cut size (number of original edges crossing the partition).
    pub cut: u64,
    /// Side of each node (false/true).
    pub side: Vec<bool>,
}

/// Minimum balanced-bisection cut of `g` (heuristic): best of
/// `restarts` multilevel runs. Returns `None` for graphs with fewer than
/// 2 nodes. `seed` makes the heuristic deterministic.
pub fn min_balanced_bisection(g: &Graph, restarts: usize, seed: u64) -> Option<Bisection> {
    let n = g.node_count();
    if n < 2 {
        return None;
    }
    let mut best: Option<Bisection> = None;
    for r in 0..restarts.max(1) {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(r as u64).wrapping_mul(0x9E3779B9));
        let cand = multilevel_once(g, &mut rng);
        if best.as_ref().is_none_or(|b| cand.cut < b.cut) {
            best = Some(cand);
        }
    }
    best
}

/// Convenience: just the cut value.
pub fn min_balanced_cut(g: &Graph, restarts: usize, seed: u64) -> Option<u64> {
    min_balanced_bisection(g, restarts, seed).map(|b| b.cut)
}

fn multilevel_once<R: Rng>(g: &Graph, rng: &mut R) -> Bisection {
    multilevel_with(g, rng, coarsen)
}

/// One multilevel run, coarsening with `coarsen` (the tests swap in an
/// oracle).
fn multilevel_with<R: Rng>(
    g: &Graph,
    rng: &mut R,
    coarsen: impl Fn(&WGraph, &mut R) -> (WGraph, Vec<u32>),
) -> Bisection {
    // Build the level stack.
    let mut levels: Vec<WGraph> = vec![WGraph::from_graph(g)];
    let mut maps: Vec<Vec<u32>> = Vec::new(); // maps[l][v_fine] = v_coarse
    while levels.last().unwrap().n() > 32 {
        let (coarse, map) = coarsen(levels.last().unwrap(), rng);
        // Stop if coarsening stalls (e.g. a star collapses slowly).
        if coarse.n() as f64 > 0.95 * levels.last().unwrap().n() as f64 {
            break;
        }
        levels.push(coarse);
        maps.push(map);
    }
    // Initial partition on the coarsest level.
    // Initial partition on the coarsest level: grow a region from both a
    // random start (suits bushy graphs, where refinement cleans the
    // frontier) and a pseudo-peripheral one (suits elongated graphs,
    // where it leaves one boundary instead of two and single-node moves
    // can never merge them), keeping whichever refines to a smaller cut.
    // The coarsest graph is tiny, so trying both is nearly free.
    let coarsest = levels.last().unwrap();
    let mut side = {
        let mut a = initial_partition(coarsest, rng, false);
        refine(coarsest, &mut a, rng);
        let mut b = initial_partition(coarsest, rng, true);
        refine(coarsest, &mut b, rng);
        if cut_size(coarsest, &a) <= cut_size(coarsest, &b) {
            a
        } else {
            b
        }
    };
    // Uncoarsen with refinement.
    for l in (0..maps.len()).rev() {
        let fine = &levels[l];
        let map = &maps[l];
        let mut fine_side = vec![false; fine.n()];
        for v in 0..fine.n() {
            fine_side[v] = side[map[v] as usize];
        }
        side = fine_side;
        refine(fine, &mut side, rng);
    }
    let cut = cut_size(&levels[0], &side);
    Bisection { cut, side }
}

/// Heavy-edge matching coarsening.
fn coarsen<R: Rng>(g: &WGraph, rng: &mut R) -> (WGraph, Vec<u32>) {
    let n = g.n();
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.shuffle(rng);
    let mut matched = vec![u32::MAX; n];
    let mut coarse_id = vec![u32::MAX; n];
    let mut next = 0u32;
    for &v in &order {
        if matched[v as usize] != u32::MAX {
            continue;
        }
        // Heaviest-edge unmatched neighbor.
        let mut bestw = 0u64;
        let mut bestu = u32::MAX;
        for &(u, w) in &g.adj[v as usize] {
            if matched[u as usize] == u32::MAX && u != v && w > bestw {
                bestw = w;
                bestu = u;
            }
        }
        if bestu != u32::MAX {
            matched[v as usize] = bestu;
            matched[bestu as usize] = v;
            coarse_id[v as usize] = next;
            coarse_id[bestu as usize] = next;
        } else {
            matched[v as usize] = v;
            coarse_id[v as usize] = next;
        }
        next += 1;
    }
    // Build the coarse graph.
    let cn = next as usize;
    let mut wnode = vec![0u64; cn];
    for v in 0..n {
        wnode[coarse_id[v] as usize] += g.wnode[v];
    }
    // Coarse edges keyed (low, high): sort, then sum each run of equal
    // keys, so every coarse edge is pushed once, in key order.
    let mut edges: Vec<((u32, u32), u64)> = Vec::new();
    for v in 0..n {
        let cv = coarse_id[v];
        for &(u, w) in &g.adj[v] {
            let cu = coarse_id[u as usize];
            // Count each direction once (v < u).
            if cu != cv && (v as u32) < u {
                edges.push(((cv.min(cu), cv.max(cu)), w));
            }
        }
    }
    edges.sort_unstable_by_key(|&(key, _)| key);
    edges.dedup_by(|next, run| {
        let same = next.0 == run.0;
        if same {
            run.1 += next.1;
        }
        same
    });
    let mut adj = vec![Vec::new(); cn];
    for ((a, b), w) in edges {
        adj[a as usize].push((b, w));
        adj[b as usize].push((a, w));
    }
    (WGraph { adj, wnode }, coarse_id)
}

/// Farthest node from `from` by BFS (a pseudo-peripheral node when
/// `from` is random). Growing the region from the periphery leaves one
/// boundary instead of two on elongated graphs, where FM refinement
/// cannot help (every single-node move along a chain has gain ≤ 0).
fn farthest_from(g: &WGraph, from: usize) -> usize {
    let mut dist = vec![u32::MAX; g.n()];
    let mut q = std::collections::VecDeque::new();
    dist[from] = 0;
    q.push_back(from as u32);
    let mut last = from;
    while let Some(v) = q.pop_front() {
        last = v as usize;
        for &(u, _) in &g.adj[v as usize] {
            if dist[u as usize] == u32::MAX {
                dist[u as usize] = dist[v as usize] + 1;
                q.push_back(u);
            }
        }
    }
    last
}

/// Greedy BFS region growing to half the total weight, started from a
/// random node or (with `peripheral`) a pseudo-peripheral one.
fn initial_partition<R: Rng>(g: &WGraph, rng: &mut R, peripheral: bool) -> Vec<bool> {
    let n = g.n();
    let total = g.total_weight();
    let target = total / 2;
    let mut side = vec![false; n];
    let mut grown = 0u64;
    let mut start = rng.gen_range(0..n);
    if peripheral {
        start = farthest_from(g, start);
    }
    let mut q = std::collections::VecDeque::new();
    let mut seen = vec![false; n];
    q.push_back(start as u32);
    seen[start] = true;
    while let Some(v) = q.pop_front() {
        if grown >= target {
            break;
        }
        side[v as usize] = true;
        grown += g.wnode[v as usize];
        for &(u, _) in &g.adj[v as usize] {
            if !seen[u as usize] {
                seen[u as usize] = true;
                q.push_back(u);
            }
        }
        // If BFS exhausts a component, jump to an unseen node.
        if q.is_empty() && grown < target {
            if let Some(u) = (0..n).find(|&u| !seen[u]) {
                seen[u] = true;
                q.push_back(u as u32);
            }
        }
    }
    side
}

fn cut_size(g: &WGraph, side: &[bool]) -> u64 {
    let mut cut = 0u64;
    for v in 0..g.n() {
        for &(u, w) in &g.adj[v] {
            if (v as u32) < u && side[v] != side[u as usize] {
                cut += w;
            }
        }
    }
    cut
}

/// FM-style refinement: passes of best single-node moves under the
/// balance constraint, accepting only improving passes.
fn refine<R: Rng>(g: &WGraph, side: &mut [bool], rng: &mut R) {
    let n = g.n();
    let total = g.total_weight();
    let half = total as f64 / 2.0;
    let tol = (0.1 * half).max(1.0);
    let weight_true =
        |side: &[bool]| -> u64 { (0..n).filter(|&v| side[v]).map(|v| g.wnode[v]).sum() };
    let mut wt = weight_true(side);
    for _pass in 0..4 {
        let mut improved = false;
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.shuffle(rng);
        for &v in &order {
            let v = v as usize;
            // Gain of moving v to the other side.
            let mut internal = 0i64;
            let mut external = 0i64;
            for &(u, w) in &g.adj[v] {
                if side[u as usize] == side[v] {
                    internal += w as i64;
                } else {
                    external += w as i64;
                }
            }
            let gain = external - internal;
            if gain <= 0 {
                continue;
            }
            // Balance check after the move.
            let new_wt = if side[v] {
                wt - g.wnode[v]
            } else {
                wt + g.wnode[v]
            };
            // Never empty a side, and stay within the balance tolerance.
            if new_wt == 0 || new_wt == total || (new_wt as f64 - half).abs() > tol {
                continue;
            }
            side[v] = !side[v];
            wt = new_wt;
            improved = true;
        }
        if !improved {
            break;
        }
    }
    // Force balance if badly off (can happen on disconnected coarse
    // graphs): move lowest-degree nodes across until within tolerance.
    loop {
        let imbalance = wt as f64 - half;
        if imbalance.abs() <= tol.max(g.wnode.iter().copied().max().unwrap_or(1) as f64) {
            break;
        }
        let from_side = imbalance > 0.0;
        // Cheapest node to move: the one with minimal (internal-external).
        let mut best = None;
        let mut best_cost = i64::MAX;
        for v in 0..n {
            if side[v] != from_side {
                continue;
            }
            let mut cost = 0i64;
            for &(u, w) in &g.adj[v] {
                cost += if side[u as usize] == side[v] {
                    w as i64
                } else {
                    -(w as i64)
                };
            }
            if cost < best_cost {
                best_cost = cost;
                best = Some(v);
            }
        }
        match best {
            Some(v) => {
                let new_wt = if from_side {
                    wt - g.wnode[v]
                } else {
                    wt + g.wnode[v]
                };
                if new_wt == 0 || new_wt == total {
                    break;
                }
                side[v] = !side[v];
                wt = new_wt;
            }
            None => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topogen_generators::canonical::{complete, kary_tree, linear, mesh, ring};

    fn balanced(side: &[bool]) -> bool {
        let t = side.iter().filter(|&&s| s).count();
        let n = side.len();
        // within 40–60%
        t * 10 >= n * 4 && t * 10 <= n * 6
    }

    #[test]
    fn tree_cut_is_one_ish() {
        let g = kary_tree(2, 7); // 255 nodes
        let b = min_balanced_bisection(&g, 4, 7).unwrap();
        assert!(b.cut <= 3, "tree balanced cut {}, expected ~1", b.cut);
        assert!(balanced(&b.side));
    }

    #[test]
    fn linear_chain_cut_one() {
        let g = linear(100);
        let b = min_balanced_bisection(&g, 4, 7).unwrap();
        assert_eq!(b.cut, 1);
        assert!(balanced(&b.side));
    }

    #[test]
    fn ring_cut_two() {
        let g = ring(64);
        let b = min_balanced_bisection(&g, 4, 7).unwrap();
        assert_eq!(b.cut, 2);
    }

    #[test]
    fn mesh_cut_near_sqrt_n() {
        let g = mesh(16, 16); // optimal balanced cut = 16
        let b = min_balanced_bisection(&g, 6, 7).unwrap();
        assert!(
            (16..=24).contains(&(b.cut as usize)),
            "mesh cut {} (optimal 16)",
            b.cut
        );
        assert!(balanced(&b.side));
    }

    #[test]
    fn complete_graph_cut_quadratic() {
        // Balanced cut of K16 is 8·8 = 64; the heuristic's tolerance
        // admits 7/9 (= 63) — both are "approximately n/2" per the paper.
        let g = complete(16);
        let b = min_balanced_bisection(&g, 4, 7).unwrap();
        assert!((63..=64).contains(&b.cut), "cut {}", b.cut);
    }

    #[test]
    fn random_graph_cut_scales_linearly() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let g = topogen_generators::canonical::random_gnp(400, 0.05, &mut rng);
        let b = min_balanced_bisection(&g, 4, 7).unwrap();
        // Expected cut ≈ m/2 ≈ n²p/4 = 2000; heuristic should land below
        // the random-split expectation but in the same order.
        assert!((800..2400).contains(&(b.cut as usize)), "cut {}", b.cut);
        assert!(balanced(&b.side));
    }

    #[test]
    fn two_cliques_bridge_cut_one() {
        // Two K10s joined by a single edge: the optimal balanced cut is 1.
        let mut edges = Vec::new();
        for i in 0..10u32 {
            for j in (i + 1)..10 {
                edges.push((i, j));
                edges.push((i + 10, j + 10));
            }
        }
        edges.push((0, 10));
        let g = Graph::from_edges(20, edges);
        let b = min_balanced_bisection(&g, 4, 7).unwrap();
        assert_eq!(b.cut, 1);
    }

    #[test]
    fn tiny_graphs() {
        assert!(min_balanced_bisection(&Graph::empty(0), 2, 1).is_none());
        assert!(min_balanced_bisection(&Graph::empty(1), 2, 1).is_none());
        let pair = Graph::from_edges(2, vec![(0, 1)]);
        let b = min_balanced_bisection(&pair, 2, 1).unwrap();
        assert_eq!(b.cut, 1);
    }

    #[test]
    fn deterministic_given_seed() {
        let g = mesh(10, 10);
        let a = min_balanced_cut(&g, 3, 42);
        let b = min_balanced_cut(&g, 3, 42);
        assert_eq!(a, b);
    }

    /// The coarsening step `coarsen` replaced, verbatim: a `BTreeMap`
    /// edge accumulator.
    fn coarsen_btreemap<R: Rng>(g: &WGraph, rng: &mut R) -> (WGraph, Vec<u32>) {
        let n = g.n();
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.shuffle(rng);
        let mut matched = vec![u32::MAX; n];
        let mut coarse_id = vec![u32::MAX; n];
        let mut next = 0u32;
        for &v in &order {
            if matched[v as usize] != u32::MAX {
                continue;
            }
            // Heaviest-edge unmatched neighbor.
            let mut bestw = 0u64;
            let mut bestu = u32::MAX;
            for &(u, w) in &g.adj[v as usize] {
                if matched[u as usize] == u32::MAX && u != v && w > bestw {
                    bestw = w;
                    bestu = u;
                }
            }
            if bestu != u32::MAX {
                matched[v as usize] = bestu;
                matched[bestu as usize] = v;
                coarse_id[v as usize] = next;
                coarse_id[bestu as usize] = next;
            } else {
                matched[v as usize] = v;
                coarse_id[v as usize] = next;
            }
            next += 1;
        }
        // Build the coarse graph.
        let cn = next as usize;
        let mut wnode = vec![0u64; cn];
        for v in 0..n {
            wnode[coarse_id[v] as usize] += g.wnode[v];
        }
        let mut edge_acc: std::collections::BTreeMap<(u32, u32), u64> = Default::default();
        for v in 0..n {
            let cv = coarse_id[v];
            for &(u, w) in &g.adj[v] {
                let cu = coarse_id[u as usize];
                if cu == cv {
                    continue;
                }
                // Count each direction once (v < u).
                if (v as u32) < u {
                    let key = (cv.min(cu), cv.max(cu));
                    *edge_acc.entry(key).or_insert(0) += w;
                }
            }
        }
        let mut adj = vec![Vec::new(); cn];
        for ((a, b), w) in edge_acc {
            adj[a as usize].push((b, w));
            adj[b as usize].push((a, w));
        }
        (WGraph { adj, wnode }, coarse_id)
    }

    #[test]
    fn sort_merge_coarsening_matches_the_btreemap_oracle() {
        use rand::SeedableRng;
        for seed in 0..24u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let n = 20 + (seed as usize * 37) % 300;
            let g = topogen_generators::canonical::random_gnp(n, 6.0 / n as f64, &mut rng);
            // Each level of the stack, coarsened both ways from the same
            // RNG state.
            let mut level = WGraph::from_graph(&g);
            while level.n() > 32 {
                let (mut a, mut b) = (rng.clone(), rng.clone());
                let (coarse, map) = coarsen(&level, &mut a);
                let (want, want_map) = coarsen_btreemap(&level, &mut b);
                assert_eq!((&coarse.adj, &coarse.wnode), (&want.adj, &want.wnode));
                assert_eq!(map, want_map);
                assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "same RNG draws");
                if coarse.n() as f64 > 0.95 * level.n() as f64 {
                    break;
                }
                level = coarse;
                rng = a;
            }
            // Whole restarts: same cut, same sides.
            for r in 0..3u64 {
                let restart = || rand::rngs::StdRng::seed_from_u64(seed ^ (r << 32));
                let got = multilevel_once(&g, &mut restart());
                let want = multilevel_with(&g, &mut restart(), coarsen_btreemap);
                assert_eq!((got.cut, &got.side), (want.cut, &want.side), "seed {seed}");
            }
        }
    }

    #[test]
    fn disconnected_graph_cut_zero() {
        // Two disjoint K5s: a balanced bipartition with no crossing edges.
        let mut edges = Vec::new();
        for i in 0..5u32 {
            for j in (i + 1)..5 {
                edges.push((i, j));
                edges.push((i + 5, j + 5));
            }
        }
        let g = Graph::from_edges(10, edges);
        let b = min_balanced_bisection(&g, 4, 7).unwrap();
        assert_eq!(b.cut, 0);
    }
}
