//! The paper's headline results as cross-crate integration tests: the
//! §4.4 signature table and the §5.1/§5.2 hierarchy results.

use topogen::core::hier::{hierarchy_report_timed_in, HierOptions};
use topogen::core::suite::{run_suite_in, run_suite_policy_in, SuiteParams};
use topogen::core::zoo::{build_in, Scale, TopologySpec};
use topogen::core::RunCtx;
use topogen::generators::plrg::PlrgParams;
use topogen::generators::tiers::TiersParams;
use topogen::generators::transit_stub::TransitStubParams;

fn sig(spec: &TopologySpec) -> String {
    let t = build_in(&RunCtx::new(), spec, Scale::Small, 42);
    run_suite_in(&RunCtx::new(), &t, &SuiteParams::quick())
        .signature
        .to_string()
}

#[test]
fn question_one_only_plrg_matches_the_internet() {
    // §4.4: "Tiers has low expansion, TS has low resilience, and Waxman
    // has high distortion. Only the PLRG matches the measured graphs in
    // all three metrics."
    let zoo = TopologySpec::figure1_zoo(Scale::Small);
    let mut results = std::collections::HashMap::new();
    for spec in zoo {
        results.insert(spec.name(), sig(&spec));
    }
    assert_eq!(results["AS"], "HHL");
    assert_eq!(results["RL"], "HHL");
    assert_eq!(results["PLRG"], "HHL");
    assert_eq!(results["TS"], "HLL", "TS must miss on resilience");
    assert_eq!(results["Tiers"], "LHL", "Tiers must miss on expansion");
    assert_eq!(results["Waxman"], "HHH", "Waxman must miss on distortion");
}

#[test]
fn policy_routing_does_not_change_the_classification() {
    let t = build_in(&RunCtx::new(), &TopologySpec::MeasuredAs, Scale::Small, 42);
    let plain = run_suite_in(&RunCtx::new(), &t, &SuiteParams::quick()).signature;
    let policy = run_suite_policy_in(&RunCtx::new(), &t, &SuiteParams::quick()).signature;
    assert_eq!(plain, policy);
}

#[test]
fn question_two_hierarchy_classes() {
    // §5.1's grouping, on the smaller link-value instances.
    let cases = vec![
        (TopologySpec::Tree { k: 3, depth: 4 }, "strict"),
        (
            TopologySpec::TransitStub(TransitStubParams {
                transit_domains: 3,
                stubs_per_transit_node: 2,
                stub_nodes_per_domain: 6,
                ..TransitStubParams::paper_default()
            }),
            "strict",
        ),
        (
            TopologySpec::Tiers(TiersParams {
                mans_per_wan: 6,
                lans_per_man: 4,
                wan_nodes: 150,
                man_nodes: 12,
                lan_nodes: 4,
                ..TiersParams::paper_default()
            }),
            "strict",
        ),
        (TopologySpec::Mesh { side: 16 }, "loose"),
        (TopologySpec::Random { n: 450, p: 0.009 }, "loose"),
        (TopologySpec::MeasuredAs, "moderate"),
    ];
    for (spec, want) in cases {
        let t = build_in(&RunCtx::new(), &spec, Scale::Small, 42);
        let r = hierarchy_report_timed_in(&RunCtx::new(), &t, &HierOptions::default()).0;
        assert_eq!(r.class, want, "{}", t.name);
    }
}

#[test]
fn hierarchy_correlation_story() {
    // §5.2: PLRG's hierarchy is degree-driven (high correlation), the
    // structural generators' is not.
    let plrg = build_in(
        &RunCtx::new(),
        &TopologySpec::Plrg(PlrgParams {
            n: 900,
            alpha: 2.246,
            max_degree: None,
        }),
        Scale::Small,
        42,
    );
    let rp = hierarchy_report_timed_in(&RunCtx::new(), &plrg, &HierOptions::default()).0;
    let tiers = build_in(
        &RunCtx::new(),
        &TopologySpec::Tiers(TiersParams {
            mans_per_wan: 6,
            lans_per_man: 4,
            wan_nodes: 150,
            man_nodes: 12,
            lan_nodes: 4,
            ..TiersParams::paper_default()
        }),
        Scale::Small,
        42,
    );
    let rt = hierarchy_report_timed_in(&RunCtx::new(), &tiers, &HierOptions::default()).0;
    let cp = rp.degree_correlation.unwrap();
    let ct = rt.degree_correlation.unwrap();
    assert!(cp > 0.7, "PLRG correlation {cp}");
    assert!(cp > ct + 0.3, "PLRG {cp} vs Tiers {ct}");
}

#[test]
fn as_and_rl_have_similar_properties() {
    // The paper's first finding: despite 15× different scales, AS and RL
    // share the metric signature.
    let a = sig(&TopologySpec::MeasuredAs);
    let r = sig(&TopologySpec::MeasuredRl);
    assert_eq!(a, r);
}
