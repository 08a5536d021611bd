//! End-to-end link values and their rank distributions (Figures 3 & 4).

use crate::cover::CoverScratch;
use crate::traversal::SourceSets;
use topogen_graph::Graph;
use topogen_par::{phase, Instrument};
use topogen_policy::rel::AsAnnotations;

/// Which path notion defines the traversal sets.
pub enum PathMode<'a> {
    /// Plain shortest paths (all generated/canonical networks).
    Shortest,
    /// Valley-free policy paths (the measured AS/RL graphs with policy,
    /// §5: "for the AS and RL topologies, we use the simple policy model
    /// ... to evaluate link values using policy-constrained paths").
    Policy(&'a AsAnnotations),
}

/// Normalized link values: for each link (indexed as in
/// [`Graph::edges`]) the weighted-vertex-cover value of its traversal
/// set, divided by the node count (the paper's y-axis normalization).
///
/// ```
/// use topogen_graph::Graph;
/// use topogen_hierarchy::linkvalue::{link_values, PathMode};
///
/// // A 6-node path: the middle link carries every left-right pair, the
/// // end links only their leaf's traffic — a strict "backbone".
/// let g = Graph::from_edges(6, (0..5).map(|i| (i, i + 1)));
/// let v = link_values(&g, &PathMode::Shortest);
/// let middle = g.edge_index(2, 3).unwrap();
/// let end = g.edge_index(0, 1).unwrap();
/// assert!(v[middle] > 2.0 * v[end]);
/// ```
pub fn link_values(g: &Graph, mode: &PathMode<'_>) -> Vec<f64> {
    link_values_threads(g, mode, None, None)
}

/// [`link_values`] with an explicit worker count (`None` =
/// `available_parallelism`, `Some(1)` = fully serial) and an optional
/// instrumentation sink. Both pipeline stages — the per-source traversal
/// accumulation and the per-link-range gather plus weighted covers —
/// run on the shared `topogen-par` map, and both are bit-identical at
/// any thread count. The sink receives the `hier-traversal` /
/// `hier-cover` phase times plus the DAG-state, pair, traversal-byte
/// and range-buffer counters.
pub fn link_values_threads(
    g: &Graph,
    mode: &PathMode<'_>,
    threads: Option<usize>,
    ins: Option<&Instrument>,
) -> Vec<f64> {
    let n = g.node_count();
    if n == 0 {
        return Vec::new();
    }
    let sets = SourceSets::compute(g, mode, threads, ins);
    // Each range's covers are independent: spread them over cores.
    let _cover_phase = phase(ins, "hier-cover");
    sets.map_ranges(threads, |range| {
        let mut cover = CoverScratch::new(n);
        range
            .links()
            .map(|pairs| cover.link_value(pairs) / n as f64)
            .collect::<Vec<f64>>()
    })
    .concat()
}

/// One point of the link-value rank distribution.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RankPoint {
    /// Rank normalized by the number of links, in (0, 1]; rank 1 = the
    /// highest-valued link (the paper plots "a higher rank indicating a
    /// higher value" with the x-axis normalized by link count).
    pub normalized_rank: f64,
    /// Normalized link value.
    pub value: f64,
}

/// The link-value rank distribution of Figures 3/4: values sorted
/// descending, x = rank / #links.
pub fn normalized_rank_distribution(values: &[f64]) -> Vec<RankPoint> {
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
    let m = sorted.len().max(1) as f64;
    sorted
        .into_iter()
        .enumerate()
        .map(|(i, v)| RankPoint {
            normalized_rank: (i + 1) as f64 / m,
            value: v,
        })
        .collect()
}

/// Summary statistics of a link-value distribution, the inputs to the
/// strict/moderate/loose classification.
#[derive(Clone, Copy, Debug)]
pub struct LinkValueStats {
    /// Highest normalized link value.
    pub max: f64,
    /// Median normalized link value.
    pub median: f64,
    /// Fraction of links with value above 0.005 (the paper's cut in
    /// §5.1: "only about 10% have link values above 0.005").
    pub frac_above_005: f64,
    /// Fraction of links with value above 0.05 ("almost 70% of the links
    /// in these \[loose\] graphs have link values about 0.05").
    pub frac_above_05: f64,
}

/// Compute the summary statistics.
pub fn link_value_stats(values: &[f64]) -> LinkValueStats {
    if values.is_empty() {
        return LinkValueStats {
            max: 0.0,
            median: 0.0,
            frac_above_005: 0.0,
            frac_above_05: 0.0,
        };
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let m = sorted.len();
    LinkValueStats {
        max: sorted[m - 1],
        median: sorted[m / 2],
        frac_above_005: sorted.iter().filter(|&&v| v > 0.005).count() as f64 / m as f64,
        frac_above_05: sorted.iter().filter(|&&v| v > 0.05).count() as f64 / m as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topogen_generators::canonical::{kary_tree, mesh};

    #[test]
    fn tree_top_links_are_heavy() {
        // Ternary tree: the root's links each separate a third of the
        // graph; their normalized values approach 1/3 (§5.1: "For the
        // Tree ... some links have link values above 0.3").
        let g = kary_tree(3, 4); // 121 nodes
        let values = link_values(&g, &PathMode::Shortest);
        let stats = link_value_stats(&values);
        assert!(stats.max > 0.25, "tree max {}", stats.max);
        // And the distribution falls off fast: the median link is a
        // deep-tree link covering few nodes.
        assert!(stats.median < 0.1 * stats.max, "median {}", stats.median);
    }

    #[test]
    fn mesh_distribution_is_flat() {
        let g = mesh(8, 8);
        let values = link_values(&g, &PathMode::Shortest);
        let stats = link_value_stats(&values);
        // Loose hierarchy: median within an order of magnitude of max.
        assert!(
            stats.median > 0.15 * stats.max,
            "mesh median {} vs max {}",
            stats.median,
            stats.max
        );
    }

    #[test]
    fn rank_distribution_shape() {
        let values = vec![0.5, 0.1, 0.3];
        let r = normalized_rank_distribution(&values);
        assert_eq!(r.len(), 3);
        assert!((r[0].value - 0.5).abs() < 1e-12);
        assert!((r[0].normalized_rank - 1.0 / 3.0).abs() < 1e-12);
        assert!((r[2].normalized_rank - 1.0).abs() < 1e-12);
        assert!(r.windows(2).all(|w| w[0].value >= w[1].value));
    }

    #[test]
    fn stats_on_empty() {
        let s = link_value_stats(&[]);
        assert_eq!(s.max, 0.0);
    }

    #[test]
    fn access_links_have_small_values() {
        // Star: every link is an access link with cover {leaf}: value
        // 1/n each.
        let g = Graph::from_edges(6, (1..6).map(|i| (0, i)));
        let values = link_values(&g, &PathMode::Shortest);
        for v in values {
            assert!(v <= 2.0 / 6.0 + 1e-9, "access value {v}");
        }
    }
}
