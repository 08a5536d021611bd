//! Integration tests of the span-tracing layer: tracing must never
//! perturb results (archived JSON byte-identical with the sink on or
//! off, engines bit-identical at any thread count), and recorded span
//! trees must stay well-formed even when injected faults unwind worker
//! threads mid-span.

use std::sync::Arc;
use topogen_bench::experiments as exp;
use topogen_bench::runner::{run_units, RunnerOptions, Unit};
use topogen_bench::tracefmt;
use topogen_bench::ExpCtx;
use topogen_core::RunCtx;
use topogen_generators::canonical::kary_tree;
use topogen_hierarchy::linkvalue::{link_values_threads, PathMode};
use topogen_par::{cancel, faults, trace};

/// Run `f` in the scope of a run context tracing into a fresh sink and
/// return `f`'s result plus the parsed JSONL events it recorded.
fn with_sink<R>(f: impl FnOnce(&RunCtx) -> R) -> (R, Vec<tracefmt::TraceLine>) {
    let sink = Arc::new(trace::TraceSink::new());
    let ctx = RunCtx::new().with_trace(sink.clone());
    let r = ctx.scope(|| f(&ctx));
    let mut buf = Vec::new();
    sink.write_jsonl(&mut buf).unwrap();
    let text = String::from_utf8(buf).unwrap();
    let events = tracefmt::parse_jsonl(&text).unwrap_or_else(|e| panic!("bad JSONL: {e}"));
    (r, events)
}

#[test]
fn archived_json_is_byte_identical_with_tracing_on_and_off() {
    // The builds pass fault sites another test here arms.
    let _fault_guard = faults::exclusive_for_tests();
    let ctx = ExpCtx::default();
    let untraced = serde_json::to_string_pretty(&exp::tab1::run(&ctx, &RunCtx::new())).unwrap();
    let (traced, _events) =
        with_sink(|run| serde_json::to_string_pretty(&exp::tab1::run(&ctx, run)).unwrap());
    assert_eq!(untraced, traced, "tracing must not change archived JSON");
}

#[test]
fn traced_results_are_identical_across_thread_counts() {
    let _fault_guard = faults::exclusive_for_tests();
    let g = kary_tree(3, 4);
    let (values, events): (Vec<Vec<f64>>, _) = with_sink(|_| {
        [1usize, 2, 8]
            .iter()
            .map(|&t| link_values_threads(&g, &PathMode::Shortest, Some(t), None))
            .collect()
    });
    assert_eq!(values[0], values[1], "1 vs 2 threads");
    assert_eq!(values[0], values[2], "1 vs 8 threads");
    // All three runs recorded their stage spans.
    let covers = events
        .iter()
        .filter(|e| e.ev == "enter" && e.name == "hier-cover")
        .count();
    assert_eq!(covers, 3);
    tracefmt::check_well_formed(&events).unwrap();
}

#[test]
fn span_tree_is_well_formed_under_injected_panics() {
    let _fault_guard = faults::exclusive_for_tests();
    // Panic every `build` fault-site hit: the worker thread unwinds out
    // of whatever spans are open. SpanGuard drops during the unwind, so
    // every enter must still have a LIFO-matching exit per thread.
    faults::install_spec("build:panic:1:3").unwrap();
    let units = vec![
        Unit::new("faulted-a", |_, _| {
            let _inner = trace::span("inner-work");
            faults::inject("build", "faulted-a");
            cancel::checkpoint();
            Ok(())
        }),
        Unit::new("faulted-b", |_, _| {
            let _inner = trace::span("inner-work");
            faults::inject("build", "faulted-b");
            cancel::checkpoint();
            Ok(())
        }),
    ];
    let opts = RunnerOptions {
        keep_going: true,
        retries: 1,
        ..Default::default()
    };
    let (report, events) = with_sink(|run| run_units(&units, &opts, run, 21, "small"));
    faults::clear();
    assert_eq!(
        report.exit_code,
        topogen_bench::ExitCode::Failures,
        "both units fail under the fault"
    );

    tracefmt::check_well_formed(&events).unwrap();
    let enters = events.iter().filter(|e| e.ev == "enter").count();
    let exits = events.iter().filter(|e| e.ev == "exit").count();
    assert_eq!(enters, exits, "every span entered was closed");
    // The panicking inner spans were recorded and closed by the unwind:
    // 2 units x 2 attempts.
    let inner_exits = events
        .iter()
        .filter(|e| e.ev == "exit" && e.name == "inner-work")
        .count();
    assert_eq!(inner_exits, 4);
    // Runner instrumentation is present: a suite span, per-unit spans,
    // and per-attempt spans with the retry visible.
    assert_eq!(
        events
            .iter()
            .filter(|e| e.ev == "enter" && e.name == "suite")
            .count(),
        1
    );
    assert_eq!(
        events
            .iter()
            .filter(|e| e.ev == "enter" && e.name == "unit")
            .count(),
        2
    );
    let attempts: Vec<&str> = events
        .iter()
        .filter(|e| e.ev == "enter" && e.name == "attempt")
        .map(|e| e.label.as_deref().unwrap_or(""))
        .collect();
    assert_eq!(attempts, vec!["0", "1", "0", "1"]);
}

#[test]
fn attempt_spans_parent_under_their_unit() {
    // The runner sets the fault harness's process-wide current unit.
    let _fault_guard = faults::exclusive_for_tests();
    let units = vec![Unit::new("solo", |_, _| Ok(()))];
    let (_report, events) =
        with_sink(|run| run_units(&units, &RunnerOptions::default(), run, 7, "small"));
    tracefmt::check_well_formed(&events).unwrap();
    let find_enter = |name: &str| {
        events
            .iter()
            .find(|e| e.ev == "enter" && e.name == name)
            .unwrap_or_else(|| panic!("no {name} span"))
    };
    let suite = find_enter("suite");
    let unit = find_enter("unit");
    let attempt = find_enter("attempt");
    assert_eq!(suite.parent, Some(0), "suite is a root span");
    assert_eq!(unit.parent, Some(suite.id));
    assert_eq!(attempt.parent, Some(unit.id));
    assert_eq!(unit.label.as_deref(), Some("solo"));
    // The unit body runs on a spawned thread: the attempt's parent link
    // crosses the thread boundary, so tids may differ but ids connect.
    let inner: Vec<_> = events
        .iter()
        .filter(|e| e.ev == "enter" && e.parent == Some(attempt.id))
        .collect();
    assert!(
        inner.is_empty() || inner.iter().all(|e| e.id > attempt.id),
        "children open after their parent"
    );
}
