//! End-to-end harness tests: the registry sweeps green on a clean
//! engine, stays green under fail-open fault injection, catches a
//! genuine injected violation with a replayable repro line, and the
//! report serializes.

use topogen_check::run::{case_seed, FailureReport};
use topogen_check::{run_checks, CheckOptions, CheckReport, ReplaySpec};
use topogen_par::faults;

fn opts(suite: Option<&str>, cases: u32) -> CheckOptions {
    CheckOptions {
        suite: suite.map(str::to_string),
        cases,
        seed: 42,
        replay: None,
    }
}

#[test]
fn all_suites_green_at_seed_42() {
    // Other tests here arm process-wide faults; a store-write fault
    // landing mid-sweep would drop the scale suite's checkpoints.
    let _guard = faults::exclusive_for_tests();
    let report = run_checks(&opts(None, 2)).unwrap();
    assert!(report.suites.len() >= 7, "expected >= 7 suites");
    let failures = report.failures();
    assert!(
        report.ok(),
        "clean engine must sweep green; first failure: {} ({})",
        failures[0].2.repro,
        failures[0].2.detail
    );
    assert!(report.cases_run() >= report.suites.len() as u64);
    assert!(!report.faults_armed);
}

/// A zero-case sweep checks nothing, so it must be an option error (the
/// CLI maps it to exit 2), never a vacuous green report — and every
/// requested case must actually run, not get clamped.
#[test]
fn zero_cases_is_an_error_not_a_vacuous_pass() {
    let _guard = faults::exclusive_for_tests();
    let err = run_checks(&opts(None, 0)).expect_err("0 cases must not produce a report");
    assert!(
        err.contains("--cases") && err.contains("vacuous"),
        "error names the option and the hazard: {err}"
    );
    // The boundary case still runs exactly one case per invariant.
    let one = run_checks(&opts(None, 1)).unwrap();
    assert!(one
        .suites
        .iter()
        .flat_map(|s| &s.invariants)
        .all(|i| i.cases_run == 1));
}

/// Satellite coverage: the store/ledger consistency suite with
/// `store-write` faults armed. The store fails *open* on write faults
/// (a dropped put is a miss, never an inconsistency), so the suite must
/// stay green — and the report must record that faults were armed.
#[test]
fn store_suite_green_with_store_write_faults_armed() {
    let _guard = faults::exclusive_for_tests();
    faults::install_spec("store-write:err:0.3:7").unwrap();
    let report = run_checks(&opts(Some("store"), 3));
    faults::clear();
    let report = report.unwrap();
    assert!(report.faults_armed);
    let failures = report.failures();
    assert!(
        report.ok(),
        "fail-open write faults must not break consistency; first: {} ({})",
        failures[0].2.repro,
        failures[0].2.detail
    );
}

/// The checker checks itself: a `ledger-append` fault drops the line
/// that records a published entry — a genuine consistency violation
/// that the store suite must catch and report with a replayable
/// `TOPOGEN_CHECK` line.
#[test]
fn injected_ledger_fault_trips_store_suite_with_replayable_repro() {
    let _guard = faults::exclusive_for_tests();
    faults::install_spec("ledger-append:err:1:7").unwrap();
    let report = run_checks(&opts(Some("store"), 2));
    faults::clear();
    let report = report.unwrap();
    assert!(
        !report.ok(),
        "an always-on ledger fault must violate ledger/store consistency"
    );
    let failures = report.failures();
    let (_, _, first) = failures[0];
    assert!(
        first.repro.starts_with("TOPOGEN_CHECK=store:"),
        "repro line: {}",
        first.repro
    );

    // Replay the recorded case, faults re-armed: same violation.
    let spec = ReplaySpec::parse(first.repro.trim_start_matches("TOPOGEN_CHECK=")).unwrap();
    assert_eq!(spec.seed, first.case_seed);
    faults::install_spec("ledger-append:err:1:7").unwrap();
    let replay = run_checks(&CheckOptions {
        suite: None,
        cases: 2,
        seed: 42,
        replay: Some(spec.clone()),
    });
    faults::clear();
    let replay = replay.unwrap();
    assert_eq!(replay.cases_run(), 1, "replay runs exactly the named case");
    assert!(!replay.ok(), "replay must reproduce the violation");
    assert_eq!(replay.failures()[0].2.case_seed, spec.seed);

    // And with faults disarmed the very same case is green again — the
    // violation was the injection, not the store.
    let clean = run_checks(&CheckOptions {
        suite: None,
        cases: 2,
        seed: 42,
        replay: Some(spec),
    })
    .unwrap();
    assert!(clean.ok(), "disarmed replay must pass");
}

#[test]
fn report_serializes_with_failures_and_roundtrips() {
    let mut report = run_checks(&opts(Some("codec"), 1)).unwrap();
    // Attach a synthetic failure so the failure path serializes too.
    report.suites[0].invariants[0].failures.push(FailureReport {
        case_seed: case_seed(42, "codec", "graph-roundtrip", 0),
        detail: "synthetic".into(),
        shrink_hint: "none".into(),
        repro: "TOPOGEN_CHECK=codec:graph-roundtrip:1".into(),
    });
    let json = serde_json::to_string_pretty(&report).unwrap();
    assert!(json.contains("\"suites\""));
    assert!(json.contains("graph-roundtrip"));
    let back: CheckReport = serde_json::from_str(&json).unwrap();
    assert_eq!(back.failure_count(), 1);
    assert_eq!(back.suites.len(), report.suites.len());
    assert_eq!(back.seed, 42);
}
