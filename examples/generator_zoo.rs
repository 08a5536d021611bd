//! Tour of every generator in the workspace: build each one, print its
//! basic shape statistics and degree-distribution character.
//!
//! ```sh
//! cargo run --release --example generator_zoo
//! ```
//!
//! Reproduces the flavor of the paper's Figure 1 (the topology table)
//! and Appendix A (which generators have heavy-tailed degrees).

use topogen::core::zoo::{build_in, Scale, TopologySpec};
use topogen::core::RunCtx;
use topogen::generators::degseq::{fit_power_law_exponent, max_to_mean_degree_ratio};
use topogen::graph::bfs::eccentricity;

fn main() {
    let mut specs = TopologySpec::figure1_zoo(Scale::Small);
    specs.extend(TopologySpec::degree_based_zoo(Scale::Small));
    specs.push(TopologySpec::NLevel(
        topogen::generators::nlevel::NLevelParams::three_level_1000(),
    ));
    println!(
        "{:10} {:>7} {:>7} {:>8} {:>8} {:>9} {:>7}",
        "Topology", "Nodes", "Links", "AvgDeg", "MaxDeg", "Max/Mean", "Alpha"
    );
    println!("{}", "-".repeat(64));
    for spec in specs {
        let t = build_in(&RunCtx::new(), &spec, Scale::Small, 7);
        let g = &t.graph;
        let alpha = fit_power_law_exponent(&g.degrees(), 2)
            .map(|a| format!("{a:.2}"))
            .unwrap_or_else(|| "-".into());
        println!(
            "{:10} {:>7} {:>7} {:>8.2} {:>8} {:>9.1} {:>7}",
            t.name,
            g.node_count(),
            g.edge_count(),
            g.average_degree(),
            g.max_degree(),
            max_to_mean_degree_ratio(g),
            alpha
        );
    }
    println!();
    // A taste of structure: diameters of two contrasting networks.
    let mesh = build_in(
        &RunCtx::new(),
        &TopologySpec::Mesh { side: 30 },
        Scale::Small,
        7,
    );
    let plrg = build_in(
        &RunCtx::new(),
        &TopologySpec::Plrg(topogen::generators::plrg::PlrgParams {
            n: 1300,
            alpha: 2.246,
            max_degree: None,
        }),
        Scale::Small,
        7,
    );
    println!(
        "eccentricity of node 0: Mesh(900) = {}, PLRG(~1000) = {}",
        eccentricity(&mesh.graph, 0),
        eccentricity(&plrg.graph, 0)
    );
    println!("(the mesh is geometrically wide; the PLRG is a small world)");
}
