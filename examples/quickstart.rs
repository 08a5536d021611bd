//! Quickstart: generate a topology, measure it, classify it.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Builds the paper's canonical calibration networks plus a PLRG, runs
//! the three basic metrics on each, and prints the Low/High signature
//! table of §3.2.1/§4.4.

use topogen::core::suite::{run_suite_in, SuiteParams};
use topogen::core::zoo::{build_in, Scale, TopologySpec};
use topogen::core::RunCtx;
use topogen::generators::plrg::PlrgParams;

fn main() {
    let specs = vec![
        TopologySpec::Tree { k: 3, depth: 6 },
        TopologySpec::Mesh { side: 30 },
        TopologySpec::Random { n: 1200, p: 0.0035 },
        TopologySpec::Plrg(PlrgParams {
            n: 1300,
            alpha: 2.246,
            max_degree: None,
        }),
    ];
    println!(
        "{:10} {:>7} {:>9} {:>10}",
        "Topology", "Nodes", "AvgDeg", "Signature"
    );
    println!("{}", "-".repeat(40));
    for spec in specs {
        let topo = build_in(&RunCtx::new(), &spec, Scale::Small, 42);
        let result = run_suite_in(&RunCtx::new(), &topo, &SuiteParams::quick());
        println!(
            "{:10} {:>7} {:>9.2} {:>10}",
            topo.name,
            topo.graph.node_count(),
            topo.graph.average_degree(),
            result.signature
        );
    }
    println!();
    println!("The paper's claim: the Internet (and PLRG) read HHL — high");
    println!("expansion, high resilience, low distortion — the signature of");
    println!("a resilient, loosely hierarchical, tree-ish network.");
}
