//! Hierarchy link values: the production engine (flat per-source DAGs
//! plus the link-range gather) against the kept-verbatim textbook
//! baseline (`topogen_hierarchy::baseline`), bit-for-bit, on shortest
//! and valley-free paths — the §5 backbone/hierarchy argument rests on
//! these numbers.

use crate::gen;
use crate::invariant::{Check, Suite};
use topogen_hierarchy::baseline::link_values_ref;
use topogen_hierarchy::{link_values, link_values_threads, PathMode};

/// The `hierarchy` suite.
pub fn suite() -> Suite {
    Suite {
        name: "hierarchy",
        description: "the link-value engine matches the kept verbatim baseline oracle",
        invariants: vec![
            Box::new(Check {
                name: "linkvalues-match-baseline",
                property: "the link-value engine returns bit-identical values to \
                           the textbook per-pair baseline on arbitrary connected graphs",
                oracle: "baseline::link_values_ref (the kept pre-optimization code)",
                shrink_hint: "shrink the node count, then the extra-edge count",
                max_cases: u32::MAX,
                run: linkvalues_match_baseline,
            }),
            Box::new(Check {
                name: "threaded-linkvalues-match-baseline",
                property: "the threaded engine (2 and 8 workers) still matches the \
                           serial baseline bit-for-bit",
                oracle: "baseline::link_values_ref",
                shrink_hint: "shrink the node count, then pin threads to 2",
                max_cases: u32::MAX,
                run: threaded_linkvalues_match_baseline,
            }),
            Box::new(Check {
                name: "policy-linkvalues-match-baseline",
                property: "valley-free link values (1, 2 and 8 workers) match the \
                           serial baseline bit-for-bit on randomly annotated graphs",
                oracle: "baseline::link_values_ref under PathMode::Policy",
                shrink_hint: "shrink the node count, then the extra-edge count, then \
                              pin threads to 1",
                max_cases: u32::MAX,
                run: policy_linkvalues_match_baseline,
            }),
        ],
    }
}

fn compare(n: usize, got: &[f64], want: &[f64], what: &str) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "n={n}: {what} returned {} values, baseline {}",
            got.len(),
            want.len()
        ));
    }
    for (i, (a, b)) in got.iter().zip(want).enumerate() {
        if a.to_bits() != b.to_bits() {
            return Err(format!(
                "n={n}: {what} diverges from baseline at link {i}: {a} vs {b}"
            ));
        }
    }
    Ok(())
}

fn linkvalues_match_baseline(seed: u64) -> Result<(), String> {
    let mut rng = gen::Lcg::new(seed);
    let n = 4 + rng.below(26);
    let g = gen::connected_graph(n, rng.below(n + 1), rng.next() as u64);
    let mode = PathMode::Shortest;
    let got = link_values(&g, &mode);
    let want = link_values_ref(&g, &mode);
    compare(n, &got, &want, "link_values")
}

fn threaded_linkvalues_match_baseline(seed: u64) -> Result<(), String> {
    let mut rng = gen::Lcg::new(seed);
    let n = 4 + rng.below(22);
    let g = gen::connected_graph(n, rng.below(n + 1), rng.next() as u64);
    let mode = PathMode::Shortest;
    let want = link_values_ref(&g, &mode);
    for threads in [2usize, 8] {
        let got = link_values_threads(&g, &mode, Some(threads), None);
        compare(n, &got, &want, "link_values_threads")?;
    }
    Ok(())
}

fn policy_linkvalues_match_baseline(seed: u64) -> Result<(), String> {
    let mut rng = gen::Lcg::new(seed);
    let n = 4 + rng.below(22);
    let (g, ann) = gen::annotated_graph(n, rng.below(n + 1), rng.next() as u64);
    let mode = PathMode::Policy(&ann);
    let want = link_values_ref(&g, &mode);
    for threads in [1usize, 2, 8] {
        let got = link_values_threads(&g, &mode, Some(threads), None);
        compare(n, &got, &want, &format!("link_values_threads({threads})"))?;
    }
    Ok(())
}
