//! Hierarchy-analysis glue (§5): link values, classification, and the
//! degree correlation for a built topology, with and without policy.

use crate::report::TimingReport;
use crate::zoo::BuiltTopology;
use serde::{Deserialize, Serialize};
use topogen_graph::prune::core as core_prune;
use topogen_hierarchy::correlation::link_value_degree_correlation;
use topogen_hierarchy::linkvalue::{link_value_stats, link_values_threads, PathMode};
use topogen_par::Instrument;

/// Everything §5 reports about one topology.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct HierarchyReport {
    /// Topology name.
    pub name: String,
    /// Whether policy-constrained paths were used.
    pub policy: bool,
    /// Normalized link values, sorted descending.
    pub values: Vec<f64>,
    /// Max normalized value.
    pub max: f64,
    /// Median normalized value.
    pub median: f64,
    /// strict / moderate / loose.
    pub class: String,
    /// Pearson correlation with min endpoint degree (Figure 5).
    pub degree_correlation: Option<f64>,
}

/// Options for the hierarchy analysis.
#[derive(Clone, Copy, Debug, Default)]
pub struct HierOptions {
    /// Use valley-free paths (requires annotations).
    pub policy: bool,
}

/// Shortest-path analyses of graphs above this many nodes run on the
/// degree>1 core — the paper's treatment of the RL graph (footnote 29).
const CORE_THRESHOLD: usize = 3_000;

/// Run the §5 analysis under `ctx`, plus the link-value engine's
/// instrumentation for this call (per-stage wall times, DAG states
/// visited, pairs accumulated, arena bytes) — what `repro tab-hierarchy
/// --timings` aggregates and archives as `BENCH_tab-hierarchy.json`.
/// Link values are served from and persisted to `ctx.store`, the
/// traversal runs under the context's deadline and trace sink, and the
/// largest link-range buffer raises `ctx.instrument`'s arena peak when
/// one is attached.
///
/// # Panics
/// Panics if `opts.policy` is set but the topology has no annotations
/// (policy analysis is only defined for the annotated AS graph).
pub fn hierarchy_report_timed_in(
    ctx: &crate::ctx::RunCtx,
    t: &BuiltTopology,
    opts: &HierOptions,
) -> (HierarchyReport, TimingReport) {
    // Core-prune very large graphs, as the paper did for RL. The pruned
    // graph loses the annotation alignment, so policy analysis skips the
    // pruning (the annotated AS graphs are small enough anyway).
    let (work, pruned): (std::borrow::Cow<'_, topogen_graph::Graph>, bool) =
        if !opts.policy && t.graph.node_count() > CORE_THRESHOLD {
            (std::borrow::Cow::Owned(core_prune(&t.graph).0), true)
        } else {
            (std::borrow::Cow::Borrowed(&t.graph), false)
        };
    let mode = if opts.policy {
        PathMode::Policy(
            t.annotations
                .as_ref()
                .expect("policy hierarchy needs annotations"),
        )
    } else {
        PathMode::Shortest
    };
    let ins = Instrument::new();
    let mut values = cached_link_values(ctx, &work, &mode, t, &ins);
    let timings = ins.report();
    if let Some(run) = &ctx.instrument {
        // The largest link-range buffer the covers held at once.
        run.record_arena_peak(timings.arena_bytes_peak);
    }
    let degree_correlation = link_value_degree_correlation(&work, &values);
    let class = topogen_hierarchy::classify_hierarchy(&values);
    let stats = link_value_stats(&values);
    values.sort_by(|a, b| b.partial_cmp(a).unwrap());
    let report = HierarchyReport {
        name: if pruned {
            format!("{} (core)", t.name)
        } else {
            t.name.clone()
        },
        policy: opts.policy,
        values,
        max: stats.max,
        median: stats.median,
        class: class.to_string(),
        degree_correlation,
    };
    (report, timings)
}

/// The raw link-value vector (edge order, pre-sort), served from the
/// context's artifact store when a matching entry exists. Everything
/// the report derives from it (correlation, class, stats, sorted
/// values) is a pure function of the vector + work graph, so warm
/// results are bit-identical to cold ones. The (potentially long)
/// traversal runs under the context's engine state.
fn cached_link_values(
    ctx: &crate::ctx::RunCtx,
    work: &topogen_graph::Graph,
    mode: &PathMode<'_>,
    t: &BuiltTopology,
    ins: &Instrument,
) -> Vec<f64> {
    let Some(store) = ctx.store.clone() else {
        return ctx.scope(|| link_values_threads(work, mode, None, Some(ins)));
    };
    let mut key = topogen_store::key::KeyBuilder::new("link-values")
        .hash("graph", crate::cache::graph_hash(work));
    key = match mode {
        PathMode::Shortest => key.field("mode", "shortest"),
        PathMode::Policy(ann) => key.field("mode", "policy").hash(
            "ann",
            crate::cache::annotations_hash(ann, t.graph.edge_count()),
        ),
    };
    let key = key.finish();
    if let Some(values) = store
        .get(&key)
        .and_then(|bytes| crate::cache::decode_link_values(&bytes, work.edge_count()))
    {
        return values;
    }
    let values = ctx.scope(|| link_values_threads(work, mode, None, Some(ins)));
    store.put(&key, &crate::cache::encode_link_values(&values));
    values
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::RunCtx;
    use crate::zoo::{build_in, Scale, TopologySpec};

    #[test]
    fn tree_reports_strict() {
        let t = build_in(
            &RunCtx::new(),
            &TopologySpec::Tree { k: 3, depth: 4 },
            Scale::Small,
            1,
        );
        let r = hierarchy_report_timed_in(&RunCtx::new(), &t, &HierOptions::default()).0;
        assert_eq!(r.class, "strict");
        assert!(r.max > 0.25);
        assert!(!r.policy);
    }

    #[test]
    fn timed_report_populates_hierarchy_counters() {
        let t = build_in(
            &RunCtx::new(),
            &TopologySpec::Mesh { side: 6 },
            Scale::Small,
            1,
        );
        let run = std::sync::Arc::new(Instrument::new());
        let ctx = RunCtx::new().with_instrument(run.clone());
        let (r, timings) = hierarchy_report_timed_in(&ctx, &t, &HierOptions::default());
        assert_eq!(r.values.len(), t.graph.edge_count());
        // The run-level sink keeps the largest range buffer as its peak;
        // one range never holds more than all the traversal sets.
        assert_eq!(run.report().arena_bytes_peak, timings.arena_bytes_peak);
        assert!(timings.arena_bytes_peak > 0);
        assert!(timings.arena_bytes_peak <= timings.arena_bytes);
        // 36 nodes, all reachable: C(36, 2) pairs accumulated.
        assert_eq!(timings.pairs_accumulated, 36 * 35 / 2);
        assert!(timings.dag_states > 0);
        // The traversal-set bytes the covers gather, unchanged from the
        // arena they replace: 61 offsets plus 7,420 pairs of 16 bytes.
        assert_eq!(timings.arena_bytes, 119_208);
        let names: Vec<&str> = timings.phases.iter().map(|p| p.name.as_str()).collect();
        assert!(names.contains(&"hier-traversal"), "phases: {names:?}");
        assert!(names.contains(&"hier-cover"), "phases: {names:?}");
    }

    #[test]
    fn values_sorted_descending() {
        let t = build_in(
            &RunCtx::new(),
            &TopologySpec::Mesh { side: 8 },
            Scale::Small,
            1,
        );
        let r = hierarchy_report_timed_in(&RunCtx::new(), &t, &HierOptions::default()).0;
        assert!(r.values.windows(2).all(|w| w[0] >= w[1]));
        assert_eq!(r.values.len(), t.graph.edge_count());
    }

    #[test]
    fn core_pruning_applies_to_big_graphs() {
        let t = build_in(
            &RunCtx::new(),
            &TopologySpec::Tree { k: 3, depth: 7 },
            Scale::Small,
            1,
        );
        let r = hierarchy_report_timed_in(&RunCtx::new(), &t, &HierOptions::default()).0;
        // A tree's core is empty → no link values.
        assert!(r.name.contains("core"));
        assert!(r.values.is_empty());
    }

    #[test]
    #[should_panic]
    fn policy_without_annotations_panics() {
        let t = build_in(
            &RunCtx::new(),
            &TopologySpec::Mesh { side: 5 },
            Scale::Small,
            1,
        );
        let _ = hierarchy_report_timed_in(&RunCtx::new(), &t, &HierOptions { policy: true });
    }
}
