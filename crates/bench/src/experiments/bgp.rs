//! BGP-vs-policy comparison: how good is the paper's shortest-valley-free
//! approximation of real routing?
//!
//! The paper's policy model (§3.2.1, after \[42\]) takes the *shortest*
//! valley-free path; real BGP under Gao–Rexford preferences (customer >
//! peer > provider, then shortest) can pick longer ones. This experiment
//! computes, over the synthetic AS graph:
//!
//! * mean plain shortest-path length,
//! * mean shortest valley-free length (the paper's model),
//! * mean Gao–Rexford selected length (the `bgp_sim` substrate),
//!
//! and the inflation between each pair — quantifying how much of the
//! total policy inflation the paper's approximation captures.

use crate::ExpCtx;
use topogen_core::report::TableData;
use topogen_core::zoo::{build_in, TopologySpec};
use topogen_core::RunCtx;
use topogen_graph::{bfs, NodeId, UNREACHED};
use topogen_policy::bgp_sim::routes_to;
use topogen_policy::valley::policy_distances;

/// Run the comparison over all (or sampled) destinations.
pub fn run(ctx: &ExpCtx, rctx: &RunCtx) -> TableData {
    let t = build_in(rctx, &TopologySpec::MeasuredAs, ctx.scale, ctx.seed);
    let g = &t.graph;
    let ann = t.annotations.as_ref().expect("AS annotations");
    let n = g.node_count();
    let step = if ctx.quick { (n / 120).max(1) } else { 1 };

    let mut sum_plain = 0u64;
    let mut sum_vf = 0u64;
    let mut sum_bgp = 0u64;
    let mut pairs = 0u64;
    let mut vf_inflated = 0u64;
    let mut bgp_over_vf = 0u64;
    let mut mismatched_reach = 0u64;
    for d in (0..n as NodeId).step_by(step) {
        let plain = bfs::distances(g, d);
        let vf = policy_distances(g, ann, d);
        let bgp = routes_to(g, ann, d);
        for u in 0..n {
            if u == d as usize {
                continue;
            }
            if vf[u] == UNREACHED || bgp.len[u] == UNREACHED {
                if (vf[u] == UNREACHED) != (bgp.len[u] == UNREACHED) {
                    mismatched_reach += 1;
                }
                continue;
            }
            pairs += 1;
            sum_plain += plain[u] as u64;
            sum_vf += vf[u] as u64;
            sum_bgp += bgp.len[u] as u64;
            if vf[u] > plain[u] {
                vf_inflated += 1;
            }
            if bgp.len[u] > vf[u] {
                bgp_over_vf += 1;
            }
        }
    }
    let p = pairs.max(1) as f64;
    let rows = vec![
        vec!["pairs sampled".into(), pairs.to_string()],
        vec![
            "mean plain shortest".into(),
            format!("{:.3}", sum_plain as f64 / p),
        ],
        vec![
            "mean valley-free shortest (paper's model)".into(),
            format!("{:.3}", sum_vf as f64 / p),
        ],
        vec![
            "mean BGP selected (Gao-Rexford)".into(),
            format!("{:.3}", sum_bgp as f64 / p),
        ],
        vec![
            "pairs inflated by valley-freeness".into(),
            format!("{:.1}%", 100.0 * vf_inflated as f64 / p),
        ],
        vec![
            "pairs further inflated by preferences".into(),
            format!("{:.1}%", 100.0 * bgp_over_vf as f64 / p),
        ],
        vec![
            "reachability mismatches (must be 0)".into(),
            mismatched_reach.to_string(),
        ],
    ];
    TableData {
        id: "bgp-vs-policy".into(),
        header: vec!["Quantity".into(), "Value".into()],
        rows,
        failures: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reachability_agrees_and_ordering_holds() {
        let t = run(&ExpCtx::default(), &RunCtx::new());
        let get = |name: &str| -> String {
            t.rows
                .iter()
                .find(|r| r[0].starts_with(name))
                .map(|r| r[1].clone())
                .unwrap()
        };
        assert_eq!(get("reachability mismatches"), "0");
        let plain: f64 = get("mean plain").parse().unwrap();
        let vf: f64 = get("mean valley-free").parse().unwrap();
        let bgp: f64 = get("mean BGP").parse().unwrap();
        assert!(
            vf >= plain - 1e-9,
            "valley-free below plain: {vf} < {plain}"
        );
        assert!(bgp >= vf - 1e-9, "BGP below valley-free: {bgp} < {vf}");
    }
}
