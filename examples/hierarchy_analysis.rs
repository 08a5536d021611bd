//! The paper's Question #2 end to end: do degree-based generators
//! produce hierarchy, and where does it come from?
//!
//! ```sh
//! cargo run --release --example hierarchy_analysis
//! ```
//!
//! Computes link values (weighted vertex covers of traversal sets, §5)
//! for the canonical networks, the structural generators and the PLRG;
//! prints each topology's strict/moderate/loose class and its link-value
//! ↔ min-endpoint-degree correlation — reproducing the §5.1 grouping
//! table and the Figure 5 story.

use topogen::core::hier::{hierarchy_report_timed_in, HierOptions};
use topogen::core::zoo::{build_in, Scale, TopologySpec};
use topogen::core::RunCtx;
use topogen::generators::plrg::PlrgParams;
use topogen::generators::tiers::TiersParams;
use topogen::generators::transit_stub::TransitStubParams;
use topogen::generators::waxman::WaxmanParams;

fn main() {
    // Smaller instances than the metric suite: link values need an
    // all-pairs traversal analysis (the paper used the RL *core* for the
    // same reason).
    let specs = vec![
        TopologySpec::Tree { k: 3, depth: 5 },
        TopologySpec::Mesh { side: 16 },
        TopologySpec::Random { n: 450, p: 0.009 },
        TopologySpec::Waxman(WaxmanParams {
            n: 450,
            alpha: 0.05,
            beta: 0.3,
        }),
        TopologySpec::TransitStub(TransitStubParams {
            transit_domains: 3,
            stubs_per_transit_node: 2,
            stub_nodes_per_domain: 6,
            ..TransitStubParams::paper_default()
        }),
        TopologySpec::Tiers(TiersParams {
            mans_per_wan: 6,
            lans_per_man: 4,
            wan_nodes: 150,
            man_nodes: 12,
            lan_nodes: 4,
            ..TiersParams::paper_default()
        }),
        TopologySpec::Plrg(PlrgParams {
            n: 500,
            alpha: 2.246,
            max_degree: None,
        }),
        TopologySpec::MeasuredAs,
    ];

    println!(
        "{:10} {:>6} {:>9} {:>9} {:>10} {:>7}",
        "Topology", "Links", "MaxValue", "Median", "Class", "Corr"
    );
    println!("{}", "-".repeat(58));
    for spec in specs {
        // The AS graph at CI scale is ~1100 nodes — fine for this
        // analysis; everything else was sized above.
        let scale = Scale::Small;
        eprintln!("analyzing {} ...", spec.name());
        let topo = build_in(&RunCtx::new(), &spec, scale, 42);
        let report = hierarchy_report_timed_in(&RunCtx::new(), &topo, &HierOptions::default()).0;
        println!(
            "{:10} {:>6} {:>9.4} {:>9.4} {:>10} {:>7.2}",
            report.name,
            report.values.len(),
            report.max,
            report.median,
            report.class,
            report.degree_correlation.unwrap_or(f64::NAN)
        );
    }
    println!();
    println!("Paper §5: Tree/TS/Tiers are strict; AS and PLRG moderate; Mesh,");
    println!("Random and Waxman loose. PLRG's near-1 correlation shows its");
    println!("hierarchy lives entirely in the degree distribution — the");
    println!("resolution of the paper's paradox.");
}
