//! Table 1 (the paper's Figure 1): the topology zoo with node counts and
//! average degrees.
//!
//! Paper values for reference: RL 170589 / 2.53, AS 10941 / 4.13, PLRG
//! 9230 / 4.46, TS 1008 / 2.78, Tiers 5000 / 2.83, Waxman 5000 / 7.22,
//! Mesh 900 / 3.87, Random 5018 / 4.18, Tree 1093 / 2.00.

use crate::experiments::build_zoo_degraded;
use crate::ExpCtx;
use topogen_core::report::TableData;
use topogen_core::RunCtx;

/// Reference rows from the paper's Figure 1 for side-by-side printing.
fn paper_reference(name: &str) -> (&'static str, &'static str) {
    match name {
        "RL" => ("170589", "2.53"),
        "AS" => ("10941", "4.13"),
        "PLRG" => ("9230", "4.46"),
        "TS" => ("1008", "2.78"),
        "Tiers" => ("5000", "2.83"),
        "Waxman" => ("5000", "7.22"),
        "Mesh" => ("900", "3.87"),
        "Random" => ("5018", "4.18"),
        "Tree" => ("1093", "2.00"),
        _ => ("-", "-"),
    }
}

/// Build the zoo and emit the table. Topologies that fail to build are
/// rendered as degraded rows with the reason footnoted.
pub fn run(ctx: &ExpCtx, rctx: &RunCtx) -> TableData {
    let zoo = build_zoo_degraded(rctx, ctx.scale, ctx.seed);
    let rows = zoo
        .built
        .iter()
        .map(|t| {
            let (pn, pd) = paper_reference(&t.name);
            vec![
                t.name.clone(),
                t.graph.node_count().to_string(),
                format!("{:.2}", t.graph.average_degree()),
                pn.to_string(),
                pd.to_string(),
            ]
        })
        .collect();
    let mut table = TableData::new(
        "tab1",
        vec![
            "Topology".into(),
            "Nodes".into(),
            "AvgDeg".into(),
            "Paper nodes".into(),
            "Paper deg".into(),
        ],
        rows,
    );
    for (name, reason) in zoo.failures {
        table.push_failed_row(name, reason);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_has_all_zoo_rows() {
        let t = run(&ExpCtx::default(), &RunCtx::new());
        assert_eq!(t.rows.len(), 9);
        let names: Vec<&str> = t.rows.iter().map(|r| r[0].as_str()).collect();
        for want in [
            "Tree", "Mesh", "Random", "Waxman", "TS", "Tiers", "PLRG", "AS", "RL",
        ] {
            assert!(names.contains(&want), "{want} missing");
        }
    }

    #[test]
    fn average_degrees_in_realistic_band() {
        let t = run(&ExpCtx::default(), &RunCtx::new());
        for row in &t.rows {
            let deg: f64 = row[2].parse().unwrap();
            assert!((1.5..12.0).contains(&deg), "{}: degree {deg}", row[0]);
        }
    }
}
