//! The topology zoo of Figure 1, plus the degree-based variants of
//! Appendix D and the synthetic measured graphs.
//!
//! Every spec builds deterministically from a seed, returns its largest
//! connected component (the paper's analysis graph), and — for the
//! synthetic AS/RL graphs — carries relationship annotations so the
//! policy-routing variants of every experiment can run.

use rand::rngs::StdRng;
use rand::SeedableRng;
use topogen_generators::ba::{AlbertBarabasiParams, BaParams};
use topogen_generators::brite::BriteParams;
use topogen_generators::canonical;
use topogen_generators::connectivity::rewire_as_plrg;
use topogen_generators::glp::GlpParams;
use topogen_generators::inet::InetParams;
use topogen_generators::plrg::PlrgParams;
use topogen_generators::tiers::TiersParams;
use topogen_generators::transit_stub::TransitStubParams;
use topogen_generators::waxman::WaxmanParams;
use topogen_generators::Generate;
use topogen_graph::components::largest_component;
use topogen_graph::{Graph, GraphBuilder, NodeId};
use topogen_measured::as_graph::{internet_as, InternetAsParams};
use topogen_measured::rl_graph::{expand_to_routers, RouterExpansionParams};
use topogen_policy::rel::AsAnnotations;

/// Run scale: CI-sized graphs versus the paper's Figure 1 sizes, plus
/// the large sampled-center tiers the bitset kernels unlock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Hundreds-to-a-few-thousand nodes; minutes-of-CPU experiments.
    Small,
    /// The paper's sizes (PLRG ≈ 9000, Tiers 5000, AS ≈ 11000, RL huge);
    /// expect long runtimes on the heavier metrics.
    Paper,
    /// Paper-RL-sized (~170k nodes where the generator permits): the
    /// paper's router-level population, tractable via sampled centers +
    /// the batched bitset BFS kernels. Waxman stays at 20k (its pair
    /// loop is O(n²)); TS/Tiers keep their paper structural sizes.
    Large,
    /// Million-node stretch tier for the canonical/degree-sequence
    /// generators; measured graphs stay at paper scale.
    Xl,
}

/// A buildable topology from the paper.
#[derive(Clone, Debug, PartialEq)]
pub enum TopologySpec {
    /// Canonical k-ary tree.
    Tree {
        /// Branching factor.
        k: usize,
        /// Depth.
        depth: usize,
    },
    /// Canonical rectangular grid.
    Mesh {
        /// Side length (rows = cols).
        side: usize,
    },
    /// Canonical linear chain.
    Linear {
        /// Node count.
        n: usize,
    },
    /// Complete graph.
    Complete {
        /// Node count.
        n: usize,
    },
    /// Erdős–Rényi random graph G(n, p).
    Random {
        /// Node count before largest-component extraction.
        n: usize,
        /// Edge probability.
        p: f64,
    },
    /// Waxman random graph.
    Waxman(WaxmanParams),
    /// GT-ITM Transit-Stub.
    TransitStub(TransitStubParams),
    /// Tiers.
    Tiers(TiersParams),
    /// Power-law random graph.
    Plrg(PlrgParams),
    /// Barabási–Albert.
    Ba(BaParams),
    /// Albert–Barabási with link addition/rewiring.
    AlbertBarabasi(AlbertBarabasiParams),
    /// BRITE-like.
    Brite(BriteParams),
    /// Bu–Towsley GLP (the paper's "BT").
    Glp(GlpParams),
    /// Inet-like.
    Inet(InetParams),
    /// GT-ITM N-level hierarchy (Zegura et al.'s original structural
    /// model).
    NLevel(topogen_generators::nlevel::NLevelParams),
    /// "Modified" variant (Figure 13): build the inner spec, then
    /// reconnect its degree sequence with the PLRG method.
    PlrgRewired(Box<TopologySpec>),
    /// Synthetic measured AS graph (with annotations).
    MeasuredAs,
    /// Synthetic measured router-level graph.
    MeasuredRl,
}

impl TopologySpec {
    /// Display name matching the paper's figures.
    pub fn name(&self) -> String {
        match self {
            TopologySpec::Tree { .. } => "Tree".into(),
            TopologySpec::Mesh { .. } => "Mesh".into(),
            TopologySpec::Linear { .. } => "Linear".into(),
            TopologySpec::Complete { .. } => "Complete".into(),
            TopologySpec::Random { .. } => "Random".into(),
            TopologySpec::Waxman(_) => "Waxman".into(),
            TopologySpec::TransitStub(_) => "TS".into(),
            TopologySpec::Tiers(_) => "Tiers".into(),
            TopologySpec::Plrg(_) => "PLRG".into(),
            TopologySpec::Ba(_) => "B-A".into(),
            TopologySpec::AlbertBarabasi(_) => "AB".into(),
            TopologySpec::Brite(_) => "Brite".into(),
            TopologySpec::Glp(_) => "BT".into(),
            TopologySpec::Inet(_) => "Inet".into(),
            TopologySpec::NLevel(_) => "N-Level".into(),
            TopologySpec::PlrgRewired(inner) => format!("Modified {}", inner.name()),
            TopologySpec::MeasuredAs => "AS".into(),
            TopologySpec::MeasuredRl => "RL".into(),
        }
    }

    /// The paper's Figure 1 zoo at the requested scale: Tree, Mesh,
    /// Random, Waxman, TS, Tiers, PLRG, AS, RL.
    pub fn figure1_zoo(scale: Scale) -> Vec<TopologySpec> {
        match scale {
            Scale::Paper => vec![
                TopologySpec::Tree { k: 3, depth: 6 },
                TopologySpec::Mesh { side: 30 },
                TopologySpec::Random { n: 5018, p: 0.0008 },
                TopologySpec::Waxman(WaxmanParams::paper_default()),
                TopologySpec::TransitStub(TransitStubParams::paper_default()),
                TopologySpec::Tiers(TiersParams::paper_default()),
                TopologySpec::Plrg(PlrgParams::paper_default()),
                TopologySpec::MeasuredAs,
                TopologySpec::MeasuredRl,
            ],
            Scale::Small => vec![
                TopologySpec::Tree { k: 3, depth: 6 },
                TopologySpec::Mesh { side: 30 },
                TopologySpec::Random { n: 1200, p: 0.0035 },
                TopologySpec::Waxman(WaxmanParams {
                    n: 1200,
                    alpha: 0.02,
                    beta: 0.3,
                }),
                TopologySpec::TransitStub(TransitStubParams::paper_default()),
                TopologySpec::Tiers(TiersParams {
                    mans_per_wan: 10,
                    lans_per_man: 8,
                    wan_nodes: 350,
                    man_nodes: 20,
                    lan_nodes: 5,
                    ..TiersParams::paper_default()
                }),
                TopologySpec::Plrg(PlrgParams {
                    n: 1300,
                    alpha: 2.246,
                    max_degree: None,
                }),
                TopologySpec::MeasuredAs,
                TopologySpec::MeasuredRl,
            ],
            // Paper-RL-sized canonical/degree-sequence graphs (~170k,
            // matching the measured router-level population at
            // `InternetAsParams::paper_scale`). Waxman's O(n²) pair
            // loop caps it at 20k; TS/Tiers keep the paper's own
            // structural sizes (their hierarchies don't scale by a
            // single knob).
            Scale::Large => vec![
                TopologySpec::Tree { k: 3, depth: 11 },
                TopologySpec::Mesh { side: 414 },
                TopologySpec::Random {
                    n: 170_000,
                    p: 2.5e-5,
                },
                TopologySpec::Waxman(WaxmanParams {
                    n: 20_000,
                    alpha: 0.001_25,
                    beta: 0.3,
                }),
                TopologySpec::TransitStub(TransitStubParams::paper_default()),
                TopologySpec::Tiers(TiersParams::paper_default()),
                TopologySpec::Plrg(PlrgParams {
                    n: 170_000,
                    alpha: 2.246,
                    max_degree: None,
                }),
                TopologySpec::MeasuredAs,
                TopologySpec::MeasuredRl,
            ],
            // Million-node stretch tier where the generator is
            // near-linear; Waxman/TS/Tiers/measured stay at their Large
            // sizes.
            Scale::Xl => vec![
                TopologySpec::Tree { k: 3, depth: 12 },
                TopologySpec::Mesh { side: 1000 },
                TopologySpec::Random {
                    n: 1_000_000,
                    p: 4.2e-6,
                },
                TopologySpec::Waxman(WaxmanParams {
                    n: 20_000,
                    alpha: 0.001_25,
                    beta: 0.3,
                }),
                TopologySpec::TransitStub(TransitStubParams::paper_default()),
                TopologySpec::Tiers(TiersParams::paper_default()),
                TopologySpec::Plrg(PlrgParams {
                    n: 1_000_000,
                    alpha: 2.246,
                    max_degree: None,
                }),
                TopologySpec::MeasuredAs,
                TopologySpec::MeasuredRl,
            ],
        }
    }

    /// The degree-based generator panel of Figure 2(j–l)/Appendix D.
    pub fn degree_based_zoo(scale: Scale) -> Vec<TopologySpec> {
        let n = match scale {
            Scale::Small => 1300,
            Scale::Paper => 9000,
            // Conservative at the big tiers: some degree-based
            // generators (AB's attachment scan, Inet's fitting loops)
            // are quadratic-ish, so the panel grows less aggressively
            // than the canonical zoo.
            Scale::Large => 50_000,
            Scale::Xl => 170_000,
        };
        vec![
            TopologySpec::Ba(BaParams { n, m: 2 }),
            TopologySpec::Brite(BriteParams::paper_default(n)),
            TopologySpec::Glp(GlpParams::paper_as_fit(n)),
            TopologySpec::Inet(InetParams::paper_default(n)),
            TopologySpec::Plrg(PlrgParams {
                n,
                alpha: 2.246,
                max_degree: None,
            }),
        ]
    }
}

/// The AS-level context a router-level topology was expanded from —
/// everything the Appendix E router policy construction needs.
#[derive(Clone, Debug)]
pub struct AsOverlayData {
    /// The AS graph.
    pub as_graph: Graph,
    /// Its relationship annotations.
    pub annotations: AsAnnotations,
}

/// A built topology: the largest connected component plus metadata.
#[derive(Clone, Debug)]
pub struct BuiltTopology {
    /// Display name.
    pub name: String,
    /// The analysis graph (largest connected component).
    pub graph: Graph,
    /// Relationship annotations, present for the synthetic AS graph
    /// (policy experiments run only when this is set).
    pub annotations: Option<AsAnnotations>,
    /// For MeasuredRl: owning AS of each router (in LCC ids).
    pub router_as: Option<Vec<NodeId>>,
    /// For MeasuredRl: the AS graph + annotations it was expanded from
    /// (enables the RL(Policy) experiments).
    pub as_overlay: Option<AsOverlayData>,
}

impl BuiltTopology {
    /// A topology that is just `graph`, with no annotations and no
    /// router overlay: a loaded file, or a graph an experiment derived.
    pub fn plain(name: impl Into<String>, graph: Graph) -> BuiltTopology {
        BuiltTopology {
            name: name.into(),
            graph,
            annotations: None,
            router_as: None,
            as_overlay: None,
        }
    }
}

/// Build a topology deterministically from `seed` under `ctx`.
///
/// When `ctx.store` is set (`repro --cache`, or the serve daemon's
/// shared store), the build is served from disk when a matching entry
/// exists and persisted after computing otherwise — the codec
/// round-trip is exact, so cached and computed results are
/// indistinguishable downstream. The CLI never supplies a store while
/// `TOPOGEN_FAULTS` is armed, so fault-perturbed builds are never
/// cached. The context's deadline and trace sink are installed around
/// the compute path.
pub fn build_in(
    ctx: &crate::ctx::RunCtx,
    spec: &TopologySpec,
    scale: Scale,
    seed: u64,
) -> BuiltTopology {
    let Some(store) = ctx.store.clone() else {
        return ctx.scope(|| build_uncached(ctx, spec, scale, seed));
    };
    let key = crate::cache::topology_key(spec, scale, seed);
    if let Some(bytes) = store.get(&key) {
        if let Some(t) = crate::cache::decode_topology(&bytes, spec) {
            return t;
        }
    }
    let t = ctx.scope(|| build_uncached(ctx, spec, scale, seed));
    store.put(&key, &crate::cache::encode_topology(&t));
    t
}

fn build_uncached(
    ctx: &crate::ctx::RunCtx,
    spec: &TopologySpec,
    scale: Scale,
    seed: u64,
) -> BuiltTopology {
    let mut rng = StdRng::seed_from_u64(seed);
    let name = spec.name();
    // Fault site for robustness tests; a no-op unless TOPOGEN_FAULTS
    // arms a `build` entry (optionally scoped to this topology's name).
    topogen_par::faults::inject("build", &name);
    let (graph, annotations, router_as) = match spec {
        // The canonical and degree-sequence generators emit into the
        // context's builder: budgeted under `repro --mem-budget`, in
        // memory otherwise. One body serves both, so the budgeted graph
        // is identical bit-for-bit.
        TopologySpec::Tree { k, depth } => (
            build_with(ctx, |b| canonical::kary_tree_into(*k, *depth, b)),
            None,
            None,
        ),
        TopologySpec::Mesh { side } => (
            build_with(ctx, |b| canonical::mesh_into(*side, *side, b)),
            None,
            None,
        ),
        TopologySpec::Linear { n } => (
            build_with(ctx, |b| canonical::linear_into(*n, b)),
            None,
            None,
        ),
        TopologySpec::Complete { n } => (
            build_with(ctx, |b| canonical::complete_into(*n, b)),
            None,
            None,
        ),
        TopologySpec::Random { n, p } => (
            largest_component(&build_with(ctx, |b| {
                canonical::random_gnp_into(*n, *p, &mut rng, b)
            }))
            .0,
            None,
            None,
        ),
        // Every parameterized generator goes through the uniform
        // `Generate` entry point, whose contract is exactly this zoo's:
        // return the analysis graph (largest component where needed).
        TopologySpec::Waxman(p) => (p.generate(&mut rng), None, None),
        TopologySpec::TransitStub(p) => (p.generate(&mut rng), None, None),
        TopologySpec::Tiers(p) => (p.generate(&mut rng), None, None),
        TopologySpec::Plrg(p) => (
            largest_component(&build_with(ctx, |b| {
                topogen_generators::plrg::plrg_into(p, &mut rng, b)
            }))
            .0,
            None,
            None,
        ),
        TopologySpec::Ba(p) => (p.generate(&mut rng), None, None),
        TopologySpec::AlbertBarabasi(p) => (p.generate(&mut rng), None, None),
        TopologySpec::Brite(p) => (p.generate(&mut rng), None, None),
        TopologySpec::Glp(p) => (p.generate(&mut rng), None, None),
        TopologySpec::Inet(p) => (p.generate(&mut rng), None, None),
        TopologySpec::NLevel(p) => (p.generate(&mut rng), None, None),
        TopologySpec::PlrgRewired(inner) => {
            // Recurse with the same context so the base build caches
            // against the same store.
            let base = build_in(ctx, inner, scale, seed);
            let rewired = rewire_as_plrg(&base.graph, &mut rng);
            (largest_component(&rewired).0, None, None)
        }
        TopologySpec::MeasuredAs => {
            let params = match scale {
                Scale::Small => InternetAsParams::default_scaled(),
                // The measured population has one "full" size — the
                // paper's — which Large/Xl share (RL ≈ 170k routers).
                Scale::Paper | Scale::Large | Scale::Xl => InternetAsParams::paper_scale(),
            };
            let m = internet_as(&params, &mut rng);
            // The generator guarantees connectivity, so annotations stay
            // aligned with the graph's edge order.
            (m.graph, Some(m.annotations), None)
        }
        TopologySpec::MeasuredRl => {
            let params = match scale {
                Scale::Small => InternetAsParams::default_scaled(),
                Scale::Paper | Scale::Large | Scale::Xl => InternetAsParams::paper_scale(),
            };
            let m = internet_as(&params, &mut rng);
            let rl = expand_to_routers(&m, &RouterExpansionParams::default(), &mut rng);
            return BuiltTopology {
                name,
                graph: rl.graph,
                annotations: None,
                router_as: Some(rl.router_as),
                as_overlay: Some(AsOverlayData {
                    as_graph: m.graph,
                    annotations: m.annotations,
                }),
            };
        }
    };
    BuiltTopology {
        name,
        graph,
        annotations,
        router_as,
        as_overlay: None,
    }
}

/// Build the graph `emit` adds to the context's builder: a
/// [`GraphBuilder::budgeted`] one spilling sorted runs under `out/`
/// when `ctx.mem_budget` is set, an in-memory one otherwise. A budgeted
/// build's peak scratch bytes and spill-run count go to the context's
/// run-level instrument, which the bench runner copies into the ledger
/// — the same sink the hierarchy arenas report their peak to.
fn build_with(ctx: &crate::ctx::RunCtx, emit: impl FnOnce(&mut GraphBuilder)) -> Graph {
    let mut b = match ctx.mem_budget {
        Some(budget) => GraphBuilder::budgeted(budget, std::path::Path::new("out")),
        None => GraphBuilder::new(0),
    };
    emit(&mut b);
    let (g, stats) = b.build_counted();
    if let (Some(_), Some(ins)) = (ctx.mem_budget, &ctx.instrument) {
        ins.record_arena_peak(stats.peak_bytes);
        ins.add_spill_runs(stats.spill_runs);
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use topogen_graph::components::is_connected;

    #[test]
    fn figure1_zoo_builds_connected() {
        for spec in TopologySpec::figure1_zoo(Scale::Small) {
            if spec == TopologySpec::MeasuredRl {
                continue; // exercised separately (slow)
            }
            let t = build_in(&crate::ctx::RunCtx::new(), &spec, Scale::Small, 7);
            assert!(
                is_connected(&t.graph),
                "{} not connected ({} nodes)",
                t.name,
                t.graph.node_count()
            );
            assert!(t.graph.node_count() >= 100, "{} too small", t.name);
        }
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(
            TopologySpec::Plrg(PlrgParams::paper_default()).name(),
            "PLRG"
        );
        assert_eq!(TopologySpec::MeasuredAs.name(), "AS");
        assert_eq!(
            TopologySpec::PlrgRewired(Box::new(TopologySpec::Ba(BaParams { n: 10, m: 1 }))).name(),
            "Modified B-A"
        );
    }

    #[test]
    fn measured_as_has_annotations() {
        let t = build_in(
            &crate::ctx::RunCtx::new(),
            &TopologySpec::MeasuredAs,
            Scale::Small,
            1,
        );
        assert!(t.annotations.is_some());
        let ann = t.annotations.as_ref().unwrap();
        // Alignment invariant: one relationship per edge.
        assert_eq!(
            ann.counts().0 + ann.counts().1 + ann.counts().2,
            t.graph.edge_count()
        );
    }

    #[test]
    fn measured_rl_has_router_map() {
        let t = build_in(
            &crate::ctx::RunCtx::new(),
            &TopologySpec::MeasuredRl,
            Scale::Small,
            1,
        );
        assert!(t.router_as.is_some());
        assert_eq!(t.router_as.as_ref().unwrap().len(), t.graph.node_count());
        assert!(is_connected(&t.graph));
    }

    #[test]
    fn build_is_deterministic() {
        let s = TopologySpec::Plrg(PlrgParams {
            n: 500,
            alpha: 2.3,
            max_degree: None,
        });
        let a = build_in(&crate::ctx::RunCtx::new(), &s, Scale::Small, 9);
        let b = build_in(&crate::ctx::RunCtx::new(), &s, Scale::Small, 9);
        assert_eq!(a.graph.edges(), b.graph.edges());
    }

    #[test]
    fn rewired_variant_builds() {
        let s = TopologySpec::PlrgRewired(Box::new(TopologySpec::Ba(BaParams { n: 300, m: 2 })));
        let t = build_in(&crate::ctx::RunCtx::new(), &s, Scale::Small, 3);
        assert!(t.graph.node_count() > 200);
    }

    #[test]
    fn budgeted_builds_match_unbudgeted() {
        // A tiny budget holds 4,096 edges, so Complete's 11,175 force
        // real spill runs; the resulting graphs must be bit-identical
        // to the in-memory builds (shared generator bodies, same RNG
        // draws, order-independent sort+dedup).
        let specs = [
            TopologySpec::Tree { k: 3, depth: 6 },
            TopologySpec::Mesh { side: 20 },
            TopologySpec::Linear { n: 400 },
            TopologySpec::Complete { n: 150 },
            TopologySpec::Random { n: 800, p: 0.004 },
            TopologySpec::Plrg(PlrgParams {
                n: 900,
                alpha: 2.246,
                max_degree: None,
            }),
        ];
        let plain = crate::ctx::RunCtx::new();
        let ins = std::sync::Arc::new(topogen_par::Instrument::new());
        let budgeted = crate::ctx::RunCtx::new()
            .with_mem_budget(Some(64 * 1024))
            .with_instrument(ins.clone());
        for spec in specs {
            let a = build_in(&plain, &spec, Scale::Small, 13);
            let b = build_in(&budgeted, &spec, Scale::Small, 13);
            assert_eq!(a.graph.edges(), b.graph.edges(), "{}", spec.name());
            assert_eq!(
                a.graph.node_count(),
                b.graph.node_count(),
                "{}",
                spec.name()
            );
        }
        // The run-level instrument saw the bounded buffer's peak and
        // the spilled runs.
        let report = ins.report();
        let peak = report.arena_bytes_peak;
        assert!(peak > 0 && peak <= 64 * 1024, "peak {peak}");
        assert!(report.spill_runs > 0, "no spill runs");
    }

    #[test]
    fn degree_based_zoo_heavy_tailed() {
        for spec in TopologySpec::degree_based_zoo(Scale::Small) {
            let t = build_in(&crate::ctx::RunCtx::new(), &spec, Scale::Small, 11);
            let ratio = t.graph.max_degree() as f64 / t.graph.average_degree();
            assert!(ratio > 5.0, "{}: max/mean degree ratio {ratio}", t.name);
        }
    }
}
