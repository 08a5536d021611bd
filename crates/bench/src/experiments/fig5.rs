//! Figure 5: correlation between minimum endpoint degree and link value
//! for the nine networks of §5.2.

use crate::experiments::fig3::linkvalue_zoo;
use crate::ExpCtx;
use topogen_core::hier::{hierarchy_report_timed_in, HierOptions};
use topogen_core::report::TableData;
use topogen_core::zoo::build_in;
use topogen_core::RunCtx;

/// One correlation row.
#[derive(Clone, Debug)]
pub struct CorrRow {
    /// Topology name.
    pub name: String,
    /// Pearson correlation between link value and min endpoint degree.
    pub correlation: f64,
}

/// Compute the correlations (including the AS policy variant, as the
/// paper plots "AS(Policy)").
pub fn correlations(ctx: &ExpCtx, rctx: &RunCtx) -> Vec<CorrRow> {
    let mut rows = Vec::new();
    for spec in linkvalue_zoo(ctx) {
        let t = build_in(rctx, &spec, ctx.scale, ctx.seed);
        let r = hierarchy_report_timed_in(rctx, &t, &HierOptions::default()).0;
        rows.push(CorrRow {
            name: r.name.clone(),
            correlation: r.degree_correlation.unwrap_or(f64::NAN),
        });
        if t.annotations.is_some() {
            let rp = hierarchy_report_timed_in(rctx, &t, &HierOptions { policy: true }).0;
            rows.push(CorrRow {
                name: format!("{}(Policy)", t.name),
                correlation: rp.degree_correlation.unwrap_or(f64::NAN),
            });
        }
    }
    // The paper's bar chart is sorted by correlation, descending.
    rows.sort_by(|a, b| b.correlation.partial_cmp(&a.correlation).unwrap());
    rows
}

/// The figure as a table (it is a bar chart in the paper).
pub fn run(ctx: &ExpCtx, rctx: &RunCtx) -> TableData {
    let rows = correlations(ctx, rctx)
        .into_iter()
        .map(|r| vec![r.name, format!("{:.3}", r.correlation)])
        .collect();
    TableData {
        id: "fig5-degree-correlation".into(),
        header: vec!["Topology".into(), "corr(link value, min degree)".into()],
        rows,
        failures: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plrg_tops_tree() {
        // The §5.2 ordering claims we verify in integration tests too;
        // here just the cheap shape property (sorted descending).
        let rows = correlations(&ExpCtx::default(), &RunCtx::new());
        assert!(rows.len() >= 8);
        assert!(rows
            .windows(2)
            .all(|w| w[0].correlation >= w[1].correlation || w[1].correlation.is_nan()));
        let pos = |name: &str| rows.iter().position(|r| r.name == name).unwrap();
        assert!(pos("PLRG") < pos("Tree"), "PLRG must out-correlate Tree");
    }
}
