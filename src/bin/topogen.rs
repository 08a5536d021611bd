//! `topogen` — generate, inspect and classify network topologies from
//! the command line.
//!
//! ```text
//! topogen gen <generator> [--n N] [--seed S] [-o FILE] [generator args]
//! topogen info <FILE>
//! topogen classify <FILE> [--seed S]
//! topogen hierarchy <FILE>
//!
//! generators:
//!   tree --k K --depth D          mesh --side S        linear --n N
//!   random --n N --p P            waxman --n N --alpha A --beta B
//!   ts                            tiers
//!   plrg --n N --alpha A          ba --n N --m M
//!   glp --n N                     inet --n N           brite --n N
//! ```
//!
//! Graphs are exchanged as `u v` edge lists (`#`-comments allowed), so
//! real measured topologies (route-views, CAIDA) can be fed straight
//! into `classify` and `hierarchy`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use topogen::core::classify::{
    classify_distortion, classify_expansion, classify_resilience, ClassifyThresholds,
};
use topogen::core::hier::{hierarchy_report_timed_in, HierOptions};
use topogen::core::suite::{run_suite_in, SuiteParams};
use topogen::core::zoo::{BuiltTopology, TopologySpec};
use topogen::core::RunCtx;
use topogen::generators as gens;
use topogen::graph::io::{parse_edge_list, to_edge_list};
use topogen::graph::Graph;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    match args[0].as_str() {
        "gen" => cmd_gen(&args[1..]),
        "info" => cmd_info(&args[1..]),
        "classify" => cmd_classify(&args[1..]),
        "hierarchy" => cmd_hierarchy(&args[1..]),
        "compare" => cmd_compare(&args[1..]),
        _ => usage(),
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: topogen gen <generator> [--n N] [--seed S] [-o FILE] [args]\n\
         \x20      topogen info <FILE>\n\
         \x20      topogen classify <FILE> [--seed S]\n\
         \x20      topogen hierarchy <FILE>\n\
         \x20      topogen compare <FILE1> <FILE2>\n\
         generators: tree mesh linear random waxman ts tiers nlevel plrg ba glp inet brite"
    );
    std::process::exit(2);
}

/// Parse `--key value` pairs plus positional args.
fn parse_flags(args: &[String]) -> (Vec<String>, HashMap<String, String>) {
    let mut pos = Vec::new();
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if let Some(key) = a.strip_prefix("--") {
            let v = it.next().unwrap_or_else(|| {
                eprintln!("flag --{key} needs a value");
                std::process::exit(2);
            });
            flags.insert(key.to_string(), v.clone());
        } else if a == "-o" {
            let v = it.next().expect("-o needs a file");
            flags.insert("out".into(), v.clone());
        } else {
            pos.push(a.clone());
        }
    }
    (pos, flags)
}

fn get<T: std::str::FromStr>(flags: &HashMap<String, String>, key: &str, default: T) -> T {
    match flags.get(key) {
        None => default,
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("bad value for --{key}: {v}");
            std::process::exit(2);
        }),
    }
}

fn cmd_gen(args: &[String]) {
    let (pos, flags) = parse_flags(args);
    let Some(which) = pos.first() else { usage() };
    let seed: u64 = get(&flags, "seed", 42);
    let n: usize = get(&flags, "n", 1000);
    let mut rng = StdRng::seed_from_u64(seed);
    let g: Graph = match which.as_str() {
        "tree" => gens::canonical::kary_tree(get(&flags, "k", 3), get(&flags, "depth", 6)),
        "mesh" => {
            let s = get(&flags, "side", 30);
            gens::canonical::mesh(s, s)
        }
        "linear" => gens::canonical::linear(n),
        "random" => gens::canonical::random_gnp(n, get(&flags, "p", 0.004), &mut rng),
        "waxman" => gens::waxman::waxman(
            &gens::waxman::WaxmanParams {
                n,
                alpha: get(&flags, "alpha", 0.02),
                beta: get(&flags, "beta", 0.3),
            },
            &mut rng,
        ),
        "ts" => {
            gens::transit_stub::transit_stub(
                &gens::transit_stub::TransitStubParams::paper_default(),
                &mut rng,
            )
            .graph
        }
        "tiers" => gens::tiers::tiers(&gens::tiers::TiersParams::paper_default(), &mut rng),
        "plrg" => gens::plrg::plrg(
            &gens::plrg::PlrgParams {
                n,
                alpha: get(&flags, "alpha", 2.246),
                max_degree: None,
            },
            &mut rng,
        ),
        "ba" => gens::ba::barabasi_albert(
            &gens::ba::BaParams {
                n,
                m: get(&flags, "m", 2),
            },
            &mut rng,
        ),
        "glp" => gens::glp::glp(&gens::glp::GlpParams::paper_as_fit(n), &mut rng),
        "inet" => gens::inet::inet(&gens::inet::InetParams::paper_default(n), &mut rng),
        "brite" => gens::brite::brite(&gens::brite::BriteParams::paper_default(n), &mut rng),
        "nlevel" => gens::nlevel::n_level(
            &gens::nlevel::NLevelParams {
                nodes_per_level: get(&flags, "k", 10),
                edge_prob: get(&flags, "p", 0.4),
                levels: get(&flags, "levels", 3),
            },
            &mut rng,
        ),
        other => {
            eprintln!("unknown generator {other:?}");
            std::process::exit(2);
        }
    };
    let text = to_edge_list(&g);
    match flags.get("out") {
        Some(path) => {
            std::fs::write(path, text).expect("write output file");
            eprintln!(
                "wrote {} ({} nodes, {} edges)",
                path,
                g.node_count(),
                g.edge_count()
            );
        }
        None => print!("{text}"),
    }
}

fn load(path: &str) -> Graph {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(2);
    });
    parse_edge_list(&text).unwrap_or_else(|e| {
        eprintln!("cannot parse {path}: {e}");
        std::process::exit(2);
    })
}

fn cmd_info(args: &[String]) {
    let (pos, _) = parse_flags(args);
    let Some(path) = pos.first() else { usage() };
    let g = load(path);
    let (lcc, _) = topogen::graph::components::largest_component(&g);
    println!("nodes:            {}", g.node_count());
    println!("edges:            {}", g.edge_count());
    println!("average degree:   {:.3}", g.average_degree());
    println!("max degree:       {}", g.max_degree());
    println!("largest component: {} nodes", lcc.node_count());
    if let Some(alpha) = gens::degseq::fit_power_law_exponent(&g.degrees(), 2) {
        println!("power-law alpha:  {alpha:.3} (MLE, x_min = 2)");
    }
    if let Some(c) = topogen::metrics::clustering::graph_clustering(&lcc) {
        println!("clustering:       {c:.4}");
    }
}

fn cmd_classify(args: &[String]) {
    let (pos, flags) = parse_flags(args);
    let Some(path) = pos.first() else { usage() };
    let g = load(path);
    let (lcc, _) = topogen::graph::components::largest_component(&g);
    let t = BuiltTopology {
        name: path.clone(),
        graph: lcc,
        annotations: None,
        router_as: None,
        as_overlay: None,
        spec: TopologySpec::MeasuredAs, // placeholder, unused by the suite
    };
    let mut params = SuiteParams::quick();
    params.seed = get(&flags, "seed", 0x51DE);
    let r = run_suite_in(&RunCtx::new(), &t, &params);
    let th = ClassifyThresholds::default();
    println!("expansion:  {}", classify_expansion(&r.expansion, &th));
    println!("resilience: {}", classify_resilience(&r.resilience, &th));
    println!("distortion: {}", classify_distortion(&r.distortion, &th));
    println!("signature:  {}", r.signature);
    println!();
    println!("(HHL is the Internet's signature per the paper)");
}

/// Classify two graphs side by side and report whether they share the
/// paper's large-scale structure (signature + hierarchy class).
fn cmd_compare(args: &[String]) {
    let (pos, flags) = parse_flags(args);
    let (Some(p1), Some(p2)) = (pos.first(), pos.get(1)) else {
        usage()
    };
    let mut params = SuiteParams::quick();
    params.seed = get(&flags, "seed", 0x51DE);
    let mut results = Vec::new();
    for path in [p1, p2] {
        let g = load(path);
        let (lcc, _) = topogen::graph::components::largest_component(&g);
        let t = BuiltTopology {
            name: path.to_string(),
            graph: lcc,
            annotations: None,
            router_as: None,
            as_overlay: None,
            spec: TopologySpec::MeasuredAs,
        };
        let sig = run_suite_in(&RunCtx::new(), &t, &params).signature;
        let hier = if t.graph.node_count() <= 2500 {
            hierarchy_report_timed_in(&RunCtx::new(), &t, &HierOptions::default())
                .0
                .class
        } else {
            "-".into()
        };
        println!(
            "{path}: {} nodes, signature {sig}, hierarchy {hier}",
            t.graph.node_count()
        );
        results.push((sig.to_string(), hier));
    }
    println!();
    if results[0] == results[1] {
        println!("MATCH: the two topologies share the same large-scale structure");
    } else {
        println!("DIFFER: the topologies have different large-scale structure");
    }
}

fn cmd_hierarchy(args: &[String]) {
    let (pos, _) = parse_flags(args);
    let Some(path) = pos.first() else { usage() };
    let g = load(path);
    let (lcc, _) = topogen::graph::components::largest_component(&g);
    if lcc.node_count() > 2500 {
        eprintln!(
            "note: {} nodes — computing link values on the degree>1 core \
             (the paper's treatment of large graphs)",
            lcc.node_count()
        );
    }
    let t = BuiltTopology {
        name: path.clone(),
        graph: lcc,
        annotations: None,
        router_as: None,
        as_overlay: None,
        spec: TopologySpec::MeasuredAs,
    };
    let (r, _) = hierarchy_report_timed_in(
        &RunCtx::new(),
        &t,
        &HierOptions {
            policy: false,
            core_threshold: 2500,
        },
    );
    println!("links analyzed: {}", r.values.len());
    println!("max link value: {:.4}", r.max);
    println!("median value:   {:.4}", r.median);
    println!("hierarchy:      {}", r.class);
    if let Some(c) = r.degree_correlation {
        println!("degree corr.:   {c:.3}");
    }
}
