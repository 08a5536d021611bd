//! Machine-checked invariants and differential oracles for the whole
//! engine — the safety net that lets scale and speed refactors rip
//! through the metric pipeline without silent behavior drift.
//!
//! The paper's degree-based-vs-structural argument rests on exact
//! metric definitions: a quiet change in expansion, resilience, or the
//! §5 link-value DAG flips L/H signatures and reclassifies generators.
//! This crate centralizes those correctness claims as a *named
//! registry* of [`Invariant`]s, each pairing a seeded case generator
//! with a property and an independent oracle:
//!
//! | suite       | claim                                                | oracle |
//! |-------------|------------------------------------------------------|--------|
//! | `threads`   | engine outputs bit-identical at 1/2/8 threads        | the 1-thread run |
//! | `kernels`   | node-limited and 64-lane BFS ≡ their oracles; lane passes ≡ scalar path, BFS to full suite; BallPlan ≡ serial ball-growing loop | queue BFS and per-source ring sizes; a serial reference |
//! | `codec`     | `.tgr` round-trip exact; every corruption rejected   | original bytes / checksum |
//! | `degseq`    | Erdős–Gallai test ≡ constructive realizability       | independent Havel–Hakimi |
//! | `store`     | ledger ↔ entries consistent; gc keeps LRU frontier   | re-derived frontier from pre-gc state |
//! | `trace`     | span streams form per-thread LIFO trees              | independent stream verifier |
//! | `hierarchy` | link-value engine ≡ kept textbook baseline, shortest and valley-free paths | `baseline::link_values_ref` |
//! | `distortion`| allocation-free Brandes ≡ DAG-based Brandes; folded values within their bound, certified centers ≡ reference; center reuse ≡ fresh thread | the kept DAG loop; a fresh thread |
//!
//! Every failure is replayable: the runner prints (and records in
//! `check-report.json`) a one-line `TOPOGEN_CHECK=suite:invariant:seed`
//! string that re-runs exactly the violated case. The `repro check`
//! subcommand is the CLI surface; CI runs all suites per push and
//! additionally asserts that an injected fault
//! (`TOPOGEN_FAULTS=ledger-append:err:1:S`) is *caught* — the checker
//! checks itself.

pub mod gen;
pub mod invariant;
pub mod run;
pub mod suites;

pub use invariant::{Check, Invariant, Suite};
pub use run::{run_checks, CheckOptions, CheckReport, ReplaySpec};

/// The full registry: every suite this build knows how to check.
/// Order is stable (it is the report and `--list` order).
pub fn registry() -> Vec<Suite> {
    vec![
        suites::threads::suite(),
        suites::kernels::suite(),
        suites::codec::suite(),
        suites::degseq::suite(),
        suites::store::suite(),
        suites::trace::suite(),
        suites::hierarchy::suite(),
        suites::scale::suite(),
        suites::distortion::suite(),
    ]
}

#[cfg(test)]
mod tests {
    #[test]
    fn registry_names_are_unique_and_documented() {
        let suites = super::registry();
        assert!(suites.len() >= 7, "the contract is at least seven suites");
        let mut suite_names = std::collections::HashSet::new();
        for s in &suites {
            assert!(suite_names.insert(s.name), "duplicate suite {}", s.name);
            assert!(!s.description.is_empty());
            assert!(!s.invariants.is_empty(), "suite {} is empty", s.name);
            let mut inv_names = std::collections::HashSet::new();
            for inv in &s.invariants {
                assert!(
                    inv_names.insert(inv.name()),
                    "duplicate invariant {} in {}",
                    inv.name(),
                    s.name
                );
                assert!(!inv.property().is_empty());
                assert!(!inv.oracle().is_empty());
                assert!(!inv.shrink_hint().is_empty());
                assert!(inv.max_cases() >= 1);
            }
        }
    }
}
