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
//! The engine runs in two parallel stages over the shared `topogen-par`
//! map:
//!
//! 1. **Per source** (`hier-traversal`): each worker reuses one flat DAG
//!    whose predecessors live in CSR slots sized by degree (twice that
//!    for valley-free states), each slot carrying its link id from a
//!    slot→edge table built once per call; valley-free transitions are
//!    precomputed per adjacency slot the same way. The backward pass of
//!    every target `v > u` emits `(link, v, share)` entries. A plain DAG
//!    crosses each link at most once per pair, so its shares go straight
//!    out; valley-free states can cross one link twice, so those shares
//!    are stably sorted and run-summed per pair. A counting sort then
//!    moves each source's entries by link into one exactly-sized
//!    buffer, records where each block of links starts in it (at most
//!    256 blocks) and adds the source's per-link counts to its worker's
//!    totals.
//! 2. **Per link range** (`hier-cover` in [`link_values`]): a serial
//!    count (`hier-merge`) sums the workers' totals and cuts the blocks
//!    into contiguous ranges of balanced entry count. Each range then
//!    gathers its pairs from every source in source order, reading the
//!    span between two recorded block offsets, hands each link's set to
//!    the consumer, and drops its buffer.
//!
//! Every floating-point operation happens inside one source's worker, in
//! a fixed order, and each link's pairs arrive in ascending `(u, v)`
//! order, so the output is bit-identical at any thread count and to the
//! serial [`crate::baseline`] oracle.
//!
//! [`link_values`]: crate::linkvalue::link_values

use crate::linkvalue::PathMode;
use std::ops::Range;
use std::sync::{Mutex, PoisonError};
use topogen_graph::{Graph, NodeId, UNREACHED};
use topogen_par::{par_map_threads, phase, Instrument};
use topogen_policy::valley;

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

/// Compute all traversal sets under the given path mode, indexed like
/// [`Graph::edges`], each in ascending `(u, v)` order. Pairs are
/// unordered (`u < v`); each link's list holds every pair whose
/// shortest-path DAG crosses it. Uses every available core; see
/// [`link_traversals_threads`] for explicit control.
///
/// Cost: O(Σ_pairs |states on the pair's shortest paths|) work and the
/// output's total size is Σ_pairs (path length) — the paper restricted
/// this to the RL *core* (footnote 29). The link-value pipeline never
/// materializes this: it consumes one link range at a time.
pub fn link_traversals(g: &Graph, mode: &PathMode<'_>) -> Vec<Vec<PairWeight>> {
    link_traversals_threads(g, mode, None, None)
}

/// [`link_traversals`] with an explicit worker count (`None` =
/// `available_parallelism`, `Some(1)` = serial) and an optional
/// instrumentation sink receiving the `hier-traversal` phase time plus
/// the DAG-state / pair / traversal-byte counters. The sets come from
/// the same link-range gather the link values use, concatenated.
pub fn link_traversals_threads(
    g: &Graph,
    mode: &PathMode<'_>,
    threads: Option<usize>,
    ins: Option<&Instrument>,
) -> Vec<Vec<PairWeight>> {
    SourceSets::compute(g, mode, threads, ins)
        .map_ranges(threads, |range| {
            range.links().map(<[_]>::to_vec).collect::<Vec<_>>()
        })
        .concat()
}

/// One source's traversal entry: the pair `(source, v)` crosses `link`
/// with weight `w`.
#[derive(Clone, Copy, Debug)]
struct Entry {
    link: u32,
    v: NodeId,
    w: f64,
}

/// Every source's traversal entries, each source's sorted by link, plus
/// the link ranges the gather cuts them into.
pub(crate) struct SourceSets {
    /// Source `u`'s output at `sources[u]`.
    sources: Vec<SourceOut>,
    /// Entries per link, over all sources.
    counts: Vec<usize>,
    /// Links per block: ranges are cut between blocks, where every
    /// source recorded its entry offset.
    block: usize,
    /// Contiguous block ranges of balanced entry count, covering every
    /// block in order.
    ranges: Vec<Range<usize>>,
}

/// Entries a gathered range aims at (1 MiB of pairs): small enough that
/// a range buffer stays far below the traversal sets' total size.
const RANGE_ENTRIES: usize = 1 << 16;

/// Ranges every graph is cut into at least, so that even small graphs
/// spread their covers over the workers. A constant rather than a
/// worker multiple: the range split, and with it `arena_bytes_peak`,
/// does not depend on the thread count.
const MIN_RANGES: usize = 16;

/// Most link blocks a graph is cut into: each source records one entry
/// offset per block, so the gather finds a range's entries in every
/// source without searching them.
const MAX_BLOCKS: usize = 256;

impl SourceSets {
    /// Stage 1: every source's DAG and pair accumulations, in parallel,
    /// then the serial per-link count and range split. Records the
    /// `hier-traversal` phase (with the `hier-merge` span nested in it)
    /// and the DAG-state, pair, traversal-byte, scratch and range-buffer
    /// counters into `ins`.
    pub(crate) fn compute(
        g: &Graph,
        mode: &PathMode<'_>,
        threads: Option<usize>,
        ins: Option<&Instrument>,
    ) -> SourceSets {
        // Fault site + deadline checkpoint at the phase boundary; both are
        // no-ops unless armed / a deadline is ambient.
        topogen_par::faults::inject("hier", "traversal");
        topogen_par::cancel::checkpoint();
        let _phase = phase(ins, "hier-traversal");
        let tables = Tables::new(g, mode);
        let sources: Vec<NodeId> = (0..g.node_count() as NodeId).collect();
        // One DAG per worker: taken for a source, returned after it.
        let pool: Mutex<Vec<Dag>> = Mutex::new(Vec::new());
        let lock = || pool.lock().unwrap_or_else(PoisonError::into_inner);
        let outs: Vec<SourceOut> = par_map_threads(&sources, threads, |&u| {
            let mut dag = lock().pop().unwrap_or_else(|| Dag::new(&tables));
            let out = dag.source(&tables, u);
            lock().push(dag);
            out
        });

        // Phase boundary between traversal and merge.
        topogen_par::cancel::checkpoint();
        let _merge_span = topogen_par::trace::span("hier-merge");
        // Each worker's DAG counted the entries it sorted, per link.
        let mut counts = vec![0usize; g.edge_count()];
        for dag in pool.into_inner().unwrap_or_else(PoisonError::into_inner) {
            for (c, &t) in counts.iter_mut().zip(&dag.totals) {
                *c += t;
            }
        }
        let total: usize = counts.iter().sum();
        let per_block: Vec<usize> = counts
            .chunks(tables.block)
            .map(|c| c.iter().sum())
            .collect();
        let parts = total.div_ceil(RANGE_ENTRIES).max(MIN_RANGES);
        let sets = SourceSets {
            ranges: split_ranges(&per_block, parts),
            sources: outs,
            counts,
            block: tables.block,
        };
        if let Some(ins) = ins {
            let outs = &sets.sources;
            ins.add_dag_states(outs.iter().map(|o| o.states).sum());
            ins.add_pairs_accumulated(outs.iter().map(|o| o.pairs).sum());
            ins.add_arena_bytes(gathered_bytes(sets.counts.len(), total) as u64);
            let peak = (0..sets.ranges.len())
                .map(|k| {
                    let links = sets.links(k);
                    gathered_bytes(links.len(), sets.counts[links].iter().sum())
                })
                .max()
                .unwrap_or(0);
            ins.record_arena_peak(peak as u64);
            // High-water of one pair's raw (link, share) contributions —
            // a max over sources, so thread-order free.
            let scratch = outs.iter().map(|o| o.scratch_peak).max().unwrap_or(0);
            ins.record_scratch_peak((scratch * std::mem::size_of::<(u32, f64)>()) as u64);
        }
        sets
    }

    /// Stage 2: gather each link range's sets in parallel and apply `f`
    /// to it; the results come back in range (= link) order. Each range
    /// buffer lives only while `f` runs.
    pub(crate) fn map_ranges<R: Send>(
        &self,
        threads: Option<usize>,
        f: impl Fn(&RangeSets) -> R + Sync,
    ) -> Vec<R> {
        let ks: Vec<usize> = (0..self.ranges.len()).collect();
        par_map_threads(&ks, threads, |&k| f(&self.gather(k)))
    }

    /// The links of the `k`-th range.
    fn links(&self, k: usize) -> Range<usize> {
        let blocks = &self.ranges[k];
        blocks.start * self.block..(blocks.end * self.block).min(self.counts.len())
    }

    /// The `k`-th range's traversal sets, gathered from every source in
    /// ascending source order.
    fn gather(&self, k: usize) -> RangeSets {
        let links = self.links(k);
        let counts = &self.counts[links.clone()];
        let mut offsets = Vec::with_capacity(counts.len() + 1);
        offsets.push(0);
        let mut acc = 0usize;
        for &c in counts {
            acc += c;
            offsets.push(acc);
        }
        let mut pairs = vec![PairWeight { u: 0, v: 0, w: 0.0 }; acc];
        let mut cursor = offsets[..counts.len()].to_vec();
        let blocks = &self.ranges[k];
        for (u, src) in self.sources.iter().enumerate() {
            let at = src.block_at[blocks.start] as usize..src.block_at[blocks.end] as usize;
            for e in &src.entries[at] {
                let slot = &mut cursor[e.link as usize - links.start];
                pairs[*slot] = PairWeight {
                    u: u as NodeId,
                    v: e.v,
                    w: e.w,
                };
                *slot += 1;
            }
        }
        RangeSets { offsets, pairs }
    }
}

/// One link range's traversal sets: `pairs[offsets[k]..offsets[k + 1]]`
/// is the set of the range's `k`-th link, in ascending `(u, v)` order.
pub(crate) struct RangeSets {
    offsets: Vec<usize>,
    pairs: Vec<PairWeight>,
}

impl RangeSets {
    /// Each link's traversal set, in link order.
    pub(crate) fn links(&self) -> impl Iterator<Item = &[PairWeight]> {
        self.offsets.windows(2).map(|w| &self.pairs[w[0]..w[1]])
    }
}

/// Bytes of a gathered buffer holding `links` links' sets of `pairs`
/// pairs in all: the offsets plus the flat pair buffer.
fn gathered_bytes(links: usize, pairs: usize) -> usize {
    (links + 1) * std::mem::size_of::<usize>() + pairs * std::mem::size_of::<PairWeight>()
}

/// Cut blocks `0..counts.len()` into at most `parts` contiguous,
/// non-empty ranges of about `total / parts` entries each. A block is
/// never split, so one heavy block ends its range early and the cuts it
/// jumped past are skipped.
fn split_ranges(counts: &[usize], parts: usize) -> Vec<Range<usize>> {
    let total = counts.iter().sum::<usize>().max(1);
    let mut ranges = Vec::with_capacity(parts.min(counts.len()));
    let (mut start, mut acc, mut next_cut) = (0, 0, 1);
    for (l, &c) in counts.iter().enumerate() {
        acc += c;
        if next_cut < parts && acc * parts >= total * next_cut {
            ranges.push(start..l + 1);
            start = l + 1;
            next_cut = acc * parts / total + 1;
        }
    }
    if start < counts.len() {
        ranges.push(start..counts.len());
    }
    ranges
}

/// Marks a forbidden valley-free step in [`Tables::step`].
const NO_STEP: u8 = u8::MAX;

/// Per-call tables every source's DAG reads, built once per call.
struct Tables<'g> {
    g: &'g Graph,
    /// DAG states per node: 1 on shortest paths; 2 valley-free
    /// (ascending, descending — `topogen_policy::valley`'s numbering).
    states_per_node: usize,
    /// `slots[u]..slots[u + 1]` are `u`'s adjacency slots, in
    /// `g.neighbors(u)` order.
    slots: Vec<usize>,
    /// Link id (index into [`Graph::edges`]) of each adjacency slot.
    link: Vec<u32>,
    /// Valley-free only: per adjacency slot, the phase a path in phase
    /// 0 / 1 enters the neighbour in ([`valley::step`]), or [`NO_STEP`].
    step: Vec<[u8; 2]>,
    /// `pred_at[s]..pred_at[s + 1]`: state `s`'s predecessor slots, one
    /// per adjacency slot of its node per state of the neighbour.
    pred_at: Vec<usize>,
    /// Links per block of [`SourceSets`]' range split.
    block: usize,
}

impl<'g> Tables<'g> {
    fn new(g: &'g Graph, mode: &PathMode<'_>) -> Tables<'g> {
        let n = g.node_count();
        let mut slots = Vec::with_capacity(n + 1);
        let mut link = Vec::with_capacity(2 * g.edge_count());
        slots.push(0);
        for u in g.nodes() {
            link.extend(
                g.neighbors(u)
                    .iter()
                    .map(|&v| g.edge_index(u, v).expect("every neighbour is an edge") as u32),
            );
            slots.push(link.len());
        }
        let (states_per_node, step) = match mode {
            PathMode::Shortest => (1, Vec::new()),
            PathMode::Policy(ann) => {
                let mut step = Vec::with_capacity(link.len());
                for u in g.nodes() {
                    let ls = &link[slots[u as usize]..slots[u as usize + 1]];
                    for (&v, &l) in g.neighbors(u).iter().zip(ls) {
                        let rel = ann.by_index(l as usize);
                        step.push([valley::PHASE_UP, valley::PHASE_DOWN].map(|phase| {
                            valley::step(rel, u, v, phase).map_or(NO_STEP, |p| p as u8)
                        }));
                    }
                }
                (2, step)
            }
        };
        let mut pred_at = Vec::with_capacity(n * states_per_node + 1);
        pred_at.push(0);
        for u in 0..n {
            let width = states_per_node * (slots[u + 1] - slots[u]);
            for _ in 0..states_per_node {
                pred_at.push(pred_at.last().unwrap() + width);
            }
        }
        Tables {
            g,
            states_per_node,
            slots,
            link,
            step,
            pred_at,
            block: g.edge_count().div_ceil(MAX_BLOCKS).max(1),
        }
    }

    fn states(&self) -> usize {
        self.pred_at.len() - 1
    }
}

/// One source's output: its entries plus its counter contributions.
struct SourceOut {
    /// Entries in ascending `(link, v)` order, exactly sized.
    entries: Vec<Entry>,
    /// `block_at[j]`: offset of the first entry at or past block `j`'s
    /// first link; one past the last block holds `entries.len()`.
    block_at: Vec<u32>,
    /// DAG states visited by the backward accumulations.
    states: u64,
    /// Pairs accumulated (reachable targets above the source).
    pairs: u64,
    /// Most raw `(link, share)` contributions any one pair emitted.
    scratch_peak: usize,
}

/// One worker's reusable per-source DAG and accumulation scratch.
struct Dag {
    /// Distance per state (`UNREACHED` if not reached).
    dist: Vec<u32>,
    /// Equal-cost path count per state.
    sigma: Vec<f64>,
    /// Predecessors filled per state, in slots from `Tables::pred_at`.
    npred: Vec<u32>,
    /// `(predecessor state, link)` per predecessor slot.
    pred: Vec<(u32, u32)>,
    /// Reached states in BFS order (the queue, then the reset list).
    order: Vec<u32>,
    /// Traffic fraction per state during one pair's backward pass.
    frac: Vec<f64>,
    /// States the current backward pass touched, in visiting order.
    touched: Vec<u32>,
    /// Valley-free: one pair's raw `(link, share)` contributions.
    shares: Vec<(u32, f64)>,
    /// The current source's entries, in emission (ascending `v`) order.
    entries: Vec<Entry>,
    /// Per link: the current source's entry count, then its first
    /// output position (the counting sort by link); zero between sources.
    link_at: Vec<u32>,
    /// Per link: entries sorted by this worker over all its sources.
    totals: Vec<usize>,
}

impl Dag {
    fn new(t: &Tables<'_>) -> Dag {
        let states = t.states();
        Dag {
            dist: vec![UNREACHED; states],
            sigma: vec![0.0; states],
            npred: vec![0; states],
            pred: vec![(0, 0); t.pred_at[states]],
            order: Vec::with_capacity(states),
            frac: vec![0.0; states],
            touched: Vec::new(),
            shares: Vec::new(),
            entries: Vec::new(),
            link_at: vec![0; t.g.edge_count()],
            totals: vec![0; t.g.edge_count()],
        }
    }

    /// All of source `u`'s pairs: build its DAG, then run the backward
    /// pass of every reachable target `v > u`.
    fn source(&mut self, t: &Tables<'_>, u: NodeId) -> SourceOut {
        self.build(t, u);
        self.entries.clear();
        let (mut states, mut pairs, mut scratch_peak) = (0, 0, 0);
        let spn = t.states_per_node;
        for v in (u + 1)..t.g.node_count() as NodeId {
            let first = v as usize * spn;
            let d = self.dist[first..first + spn].iter().copied().min().unwrap();
            if d == UNREACHED {
                continue;
            }
            let raw = self.accumulate(t, v, d);
            pairs += 1;
            states += self.touched.len() as u64;
            scratch_peak = scratch_peak.max(raw);
        }
        let (entries, block_at) = self.sorted_by_link(t.block);
        SourceOut {
            entries,
            block_at,
            states,
            pairs,
            scratch_peak,
        }
    }

    /// The source's entries stably counting-sorted by link into one
    /// exactly-sized buffer (each link's entries keep their ascending
    /// `v`), plus the offset where each block of `block` links starts.
    /// Adds the per-link counts to `totals`.
    fn sorted_by_link(&mut self, block: usize) -> (Vec<Entry>, Vec<u32>) {
        for e in &self.entries {
            self.link_at[e.link as usize] += 1;
        }
        let mut block_at = Vec::with_capacity(self.link_at.len().div_ceil(block) + 1);
        let mut at = 0;
        for (l, (slot, total)) in self.link_at.iter_mut().zip(&mut self.totals).enumerate() {
            if l % block == 0 {
                block_at.push(at);
            }
            let count = *slot;
            *total += count as usize;
            *slot = at;
            at += count;
        }
        block_at.push(at);
        let mut sorted = vec![
            Entry {
                link: 0,
                v: 0,
                w: 0.0
            };
            self.entries.len()
        ];
        for &e in &self.entries {
            let slot = &mut self.link_at[e.link as usize];
            sorted[*slot as usize] = e;
            *slot += 1;
        }
        self.link_at.fill(0);
        (sorted, block_at)
    }

    /// BFS from `src` over the state graph, in the order of
    /// `topogen_graph::bfs::path_dag`: the same σ sums and the same
    /// predecessor order.
    fn build(&mut self, t: &Tables<'_>, src: NodeId) {
        for &s in &self.order {
            let s = s as usize;
            self.dist[s] = UNREACHED;
            self.sigma[s] = 0.0;
            self.npred[s] = 0;
        }
        self.order.clear();
        let spn = t.states_per_node;
        let s0 = src as usize * spn;
        self.dist[s0] = 0;
        self.sigma[s0] = 1.0;
        self.order.push(s0 as u32);
        let mut head = 0;
        while head < self.order.len() {
            let s = self.order[head] as usize;
            head += 1;
            let (u, phase) = (s / spn, s % spn);
            let d = self.dist[s] + 1;
            let slots = t.slots[u]..t.slots[u + 1];
            for (slot, &v) in slots.zip(t.g.neighbors(u as NodeId)) {
                let next = if spn == 1 {
                    v as usize
                } else {
                    match t.step[slot][phase] {
                        NO_STEP => continue,
                        p => v as usize * 2 + p as usize,
                    }
                };
                if self.dist[next] == UNREACHED {
                    self.dist[next] = d;
                    self.order.push(next as u32);
                }
                if self.dist[next] == d {
                    self.sigma[next] += self.sigma[s];
                    self.pred[t.pred_at[next] + self.npred[next] as usize] =
                        (s as u32, t.link[slot]);
                    self.npred[next] += 1;
                }
            }
        }
    }

    /// Backward accumulation for the pair (source, `v`), `v` at node
    /// distance `d`: distribute the unit of traffic over the DAG and
    /// append the pair's per-link weights to `entries`. Returns the raw
    /// `(link, share)` contributions emitted.
    fn accumulate(&mut self, t: &Tables<'_>, v: NodeId, d: u32) -> usize {
        self.touched.clear();
        self.shares.clear();
        let plain = t.states_per_node == 1;
        let first = v as usize * t.states_per_node;
        let terminals = (first..first + t.states_per_node).filter(|&s| self.dist[s] == d);
        let sigma_tot: f64 = terminals.clone().map(|s| self.sigma[s]).sum();
        if sigma_tot <= 0.0 {
            return 0;
        }
        for s in terminals {
            self.frac[s] = self.sigma[s] / sigma_tot;
            self.touched.push(s as u32);
        }
        let emitted = self.entries.len();
        // All terminals share one distance and every predecessor is one
        // level down, so the discovery-order queue walks levels downward.
        let mut i = 0usize;
        while i < self.touched.len() {
            let s = self.touched[i] as usize;
            i += 1;
            let fs = self.frac[s];
            if fs <= 0.0 {
                continue;
            }
            let preds = t.pred_at[s]..t.pred_at[s] + self.npred[s] as usize;
            for &(p, link) in &self.pred[preds] {
                let share = fs * self.sigma[p as usize] / self.sigma[s];
                if plain {
                    self.entries.push(Entry { link, v, w: share });
                } else {
                    self.shares.push((link, share));
                }
                if self.frac[p as usize] == 0.0 {
                    self.touched.push(p);
                }
                self.frac[p as usize] += share;
            }
        }
        for &s in &self.touched {
            self.frac[s as usize] = 0.0;
        }
        if plain {
            return self.entries.len() - emitted;
        }
        // Valley-free states can cross one link twice. The sort is
        // STABLE, so each link's shares are summed in emission order.
        self.shares.sort_by_key(|&(l, _)| l);
        for run in self.shares.chunk_by(|a, b| a.0 == b.0) {
            let w = run[1..].iter().fold(run[0].1, |w, &(_, s)| w + s);
            self.entries.push(Entry {
                link: run[0].0,
                v,
                w,
            });
        }
        self.shares.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topogen_policy::rel::annotations_from_pairs;

    fn sizes(t: &[Vec<PairWeight>]) -> Vec<usize> {
        t.iter().map(Vec::len).collect()
    }

    #[test]
    fn path_graph_traversals() {
        // 0-1-2: link (0,1) carries pairs (0,1),(0,2); link (1,2) carries
        // (1,2),(0,2); all weights 1.
        let g = Graph::from_edges(3, vec![(0, 1), (1, 2)]);
        let t = link_traversals(&g, &PathMode::Shortest);
        assert_eq!(sizes(&t), vec![2, 2]);
        for link in &t {
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
        let pw: Vec<&PairWeight> = t[idx01].iter().filter(|p| p.u == 0 && p.v == 2).collect();
        assert_eq!(pw.len(), 1);
        assert!((pw[0].w - 0.5).abs() < 1e-12);
        // Adjacent pair (0,1) uses the link fully.
        let adj: Vec<&PairWeight> = t[idx01].iter().filter(|p| p.u == 0 && p.v == 1).collect();
        assert!((adj[0].w - 1.0).abs() < 1e-12);
    }

    #[test]
    fn access_link_carries_n_minus_1_pairs() {
        // Star: every spoke is an access link with traversal set size
        // n-1 (paper's observation in §5).
        let g = Graph::from_edges(5, (1..5).map(|i| (0, i)));
        let t = link_traversals(&g, &PathMode::Shortest);
        assert_eq!(sizes(&t), vec![4; 4]);
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
        for pw in t.iter().flatten() {
            *per_pair.entry((pw.u, pw.v)).or_insert(0.0) += pw.w;
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
        assert_eq!(sizes(&t), vec![1, 1]);
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
        let total_plain: usize = sizes(&plain).iter().sum();
        let total_pol: usize = sizes(&pol).iter().sum();
        assert!(total_pol <= total_plain);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty(3);
        let t = link_traversals(&g, &PathMode::Shortest);
        assert!(t.is_empty());
    }

    #[test]
    fn ranges_cover_every_link_in_order() {
        for (counts, parts) in [
            (vec![3, 3, 3, 3], 2),
            (vec![1, 100, 1, 1, 1], 4),
            (vec![5], 16),
            (vec![2, 2], 16),
            (vec![0, 0, 0], 2),
            (vec![], 4),
        ] {
            let ranges = split_ranges(&counts, parts);
            assert!(ranges.len() <= parts, "{counts:?}: {ranges:?}");
            assert!(
                ranges.iter().all(|r| !r.is_empty()),
                "{counts:?}: {ranges:?}"
            );
            let flat: Vec<usize> = ranges.iter().cloned().flatten().collect();
            assert_eq!(flat, (0..counts.len()).collect::<Vec<_>>());
        }
        // Balanced counts split evenly; a heavy link ends its range and
        // the cuts it jumped past are skipped.
        assert_eq!(split_ranges(&[3, 3, 3, 3], 2), vec![0..2, 2..4]);
        assert_eq!(split_ranges(&[1, 100, 1, 1, 1], 4), vec![0..2, 2..5]);
    }

    #[test]
    fn instrument_counters_populate() {
        let g = Graph::from_edges(4, vec![(0, 1), (1, 2), (2, 3)]);
        let ins = Instrument::new();
        let t = link_traversals_threads(&g, &PathMode::Shortest, Some(1), Some(&ins));
        let r = ins.report();
        assert_eq!(r.pairs_accumulated, 6); // C(4,2) reachable pairs
        assert!(r.dag_states > 0);
        let total: usize = sizes(&t).iter().sum();
        assert_eq!(r.arena_bytes, gathered_bytes(t.len(), total) as u64);
        // Three links cut into one range each: the largest holds the
        // middle link's four pairs.
        assert_eq!(r.arena_bytes_peak, gathered_bytes(1, 4) as u64);
        assert!(r.phases.iter().any(|p| p.name == "hier-traversal"));
    }
}
