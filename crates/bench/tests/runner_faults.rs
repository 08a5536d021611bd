//! End-to-end tests of the fault-tolerant runner against the
//! deterministic fault-injection harness: deadline expiry through a
//! delay fault, the CI panic-smoke scenario (exactly one failed unit),
//! resume after an injected failure, and degraded table rendering.

use std::sync::Arc;
use std::time::{Duration, Instant};
use topogen_bench::experiments as exp;
use topogen_bench::runner::{run_units, RunLedger, RunnerOptions, Unit, UnitError, UnitStatus};
use topogen_bench::ExpCtx;
use topogen_core::report::FAILED_CELL;
use topogen_core::RunCtx;
use topogen_par::{cancel, faults};

/// A unit body imitating an engine phase: hit the fault site, then the
/// cooperative cancellation checkpoint — the same order the metrics
/// engine and hierarchy traversal use.
fn phase(site: &'static str, label: &'static str) -> Unit {
    Unit::new(label, move |_, _| {
        faults::inject(site, label);
        cancel::checkpoint();
        Ok(())
    })
}

#[test]
fn delay_fault_past_deadline_times_out() {
    let _guard = faults::exclusive_for_tests();
    faults::install_spec("metric:delay400:1:7").unwrap();
    let opts = RunnerOptions {
        deadline: Some(Duration::from_millis(50)),
        retries: 2,
        ..Default::default()
    };
    let started = Instant::now();
    let report = run_units(
        &[phase("metric", "slow-unit")],
        &opts,
        &RunCtx::new(),
        11,
        "small",
    );
    faults::clear();
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "timed out promptly, no hang"
    );
    let u = &report.ledger.units[0];
    assert_eq!(u.status, UnitStatus::TimedOut);
    assert_eq!(u.attempts, 1, "deadline expiry is not retried");
    assert_eq!(u.error.as_deref(), Some("deadline exceeded"));
    assert_eq!(report.exit_code, topogen_bench::ExitCode::Failures);
}

#[test]
fn unit_scoped_panic_fails_exactly_one_unit() {
    let _guard = faults::exclusive_for_tests();
    // The CI smoke scenario: a panic pinned to one suite unit via the
    // @scope matcher; every other unit must complete.
    faults::install_spec("build@unit-b:panic:1:1").unwrap();
    let units = vec![
        phase("build", "unit-a"),
        phase("build", "unit-b"),
        phase("build", "unit-c"),
    ];
    let opts = RunnerOptions {
        keep_going: true,
        retries: 0,
        ..Default::default()
    };
    let report = run_units(&units, &opts, &RunCtx::new(), 42, "small");
    faults::clear();
    assert_eq!(report.exit_code, topogen_bench::ExitCode::Failures);
    let failed: Vec<&str> = report
        .ledger
        .units
        .iter()
        .filter(|u| !u.status.completed())
        .map(|u| u.id.as_str())
        .collect();
    assert_eq!(failed, vec!["unit-b"], "exactly one failed unit");
    let err = report
        .ledger
        .unit("unit-b")
        .unwrap()
        .error
        .as_deref()
        .unwrap();
    assert!(err.contains("injected fault"), "{err}");
}

#[test]
fn resume_reruns_only_the_faulted_unit() {
    let _guard = faults::exclusive_for_tests();
    let dir = std::env::temp_dir().join(format!("topogen-runner-faults-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("run-ledger.json").to_string_lossy().to_string();

    faults::install_spec("build@unit-b:panic:1:1").unwrap();
    let units = vec![
        phase("build", "unit-a"),
        phase("build", "unit-b"),
        phase("build", "unit-c"),
    ];
    let opts = RunnerOptions {
        keep_going: true,
        retries: 0,
        ledger_path: Some(path.clone()),
        ..Default::default()
    };
    let r1 = run_units(&units, &opts, &RunCtx::new(), 42, "small");
    assert_eq!(r1.executed.len(), 3);
    assert_eq!(r1.exit_code, topogen_bench::ExitCode::Failures);

    // Faults off: --resume must re-run only unit-b and fully recover.
    faults::clear();
    let units2 = vec![
        phase("build", "unit-a"),
        phase("build", "unit-b"),
        phase("build", "unit-c"),
    ];
    let opts2 = RunnerOptions {
        resume: true,
        ..opts
    };
    let r2 = run_units(&units2, &opts2, &RunCtx::new(), 42, "small");
    assert_eq!(r2.executed, vec!["unit-b"], "only the failed unit re-ran");
    assert_eq!(r2.exit_code, topogen_bench::ExitCode::Clean);
    let reloaded = RunLedger::load(&path).unwrap();
    assert!(reloaded.units.iter().all(|u| u.status.completed()));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn retry_durations_attribute_only_the_terminal_attempt() {
    let _guard = faults::exclusive_for_tests();
    // Every attempt crosses a 300ms injected delay; the first attempt
    // then fails, the reseeded retry succeeds. The ledger's
    // `duration_secs` must cover only the terminal attempt (matching
    // what the `--timings` phase tables measure), with the failed
    // attempt's time kept apart in `duration_total_secs` — not blended.
    faults::install_spec("metric:delay300:1:5").unwrap();
    let unit = Unit::new("flaky", move |_, attempt| {
        faults::inject("metric", "flaky");
        cancel::checkpoint();
        if attempt == 0 {
            Err(UnitError::Failed("transient failure".into()))
        } else {
            Ok(())
        }
    });
    let opts = RunnerOptions {
        retries: 1,
        ..Default::default()
    };
    let report = run_units(&[unit], &opts, &RunCtx::new(), 9, "small");
    faults::clear();
    assert_eq!(report.exit_code, topogen_bench::ExitCode::Clean);
    let u = &report.ledger.units[0];
    assert_eq!(u.status, UnitStatus::Retried);
    assert_eq!(u.attempts, 2);
    let total = u
        .duration_total_secs
        .expect("retried units record the all-attempts total");
    assert!(
        u.duration_secs >= 0.25,
        "terminal attempt crossed the delay: {}",
        u.duration_secs
    );
    assert!(
        total >= u.duration_secs + 0.25,
        "total covers the failed attempt too: total {total}, terminal {}",
        u.duration_secs
    );

    // Single-attempt successes record no separate total.
    let clean = run_units(
        &[phase("metric", "clean-unit")],
        &RunnerOptions::default(),
        &RunCtx::new(),
        9,
        "small",
    );
    assert_eq!(clean.ledger.units[0].attempts, 1);
    assert_eq!(clean.ledger.units[0].duration_total_secs, None);
}

#[test]
fn build_fault_degrades_table_instead_of_aborting() {
    let _guard = faults::exclusive_for_tests();
    // Panic every Mesh build: tab1 must still produce every other row,
    // with Mesh rendered as a failed row and footnoted.
    faults::install_spec("build@Mesh:panic:1:3").unwrap();
    let table = exp::tab1::run(&ExpCtx::default(), &RunCtx::new());
    faults::clear();
    assert!(
        !table.failures.is_empty(),
        "the faulted topology is recorded as a failure"
    );
    assert!(table.failures.iter().any(|f| f.label == "Mesh"));
    assert!(table
        .failures
        .iter()
        .all(|f| f.reason.contains("injected fault")));
    // Other topologies still have real rows; Mesh's row is degraded.
    let random = table.rows.iter().find(|r| r[0] == "Random").unwrap();
    assert!(random[1].parse::<usize>().is_ok(), "real node count");
    let mesh = table.rows.iter().find(|r| r[0] == "Mesh").unwrap();
    assert!(mesh[1..].iter().all(|c| c == FAILED_CELL), "{mesh:?}");
    // Rendering shows the degraded cell and the footnote.
    let rendered = table.render();
    assert!(rendered.contains(FAILED_CELL), "{rendered}");
    assert!(rendered.contains("Mesh"), "{rendered}");
}

#[test]
fn fractional_rate_is_deterministic_across_runs() {
    let _guard = faults::exclusive_for_tests();
    // A 50% panic rate must fire at the same unit indices on every run:
    // run the same 8-unit suite twice and compare ledgers.
    let run_once = || {
        faults::install_spec("build:panic:0.5:99").unwrap();
        let units: Vec<Unit> = (0..8)
            .map(|i| {
                let id = format!("u{i}");
                let label: Arc<str> = Arc::from(id.as_str());
                Unit::new(id, move |_, _| {
                    faults::inject("build", &label);
                    Ok(())
                })
            })
            .collect();
        let opts = RunnerOptions {
            keep_going: true,
            retries: 0,
            ..Default::default()
        };
        let r = run_units(&units, &opts, &RunCtx::new(), 1, "small");
        faults::clear();
        r.ledger
            .units
            .iter()
            .map(|u| (u.id.clone(), u.status.completed()))
            .collect::<Vec<_>>()
    };
    let a = run_once();
    let b = run_once();
    assert_eq!(a, b, "fault firing pattern is reproducible");
    assert!(a.iter().any(|(_, ok)| !ok), "some unit failed at rate 0.5");
    assert!(a.iter().any(|(_, ok)| *ok), "some unit passed at rate 0.5");
}
