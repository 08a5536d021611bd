//! End-to-end tests for the `topogen-serve` daemon: concurrent
//! requests stay byte-identical to batch runs, repeats come from the
//! store, deadlines cancel without collateral damage, and saturation
//! rejects instead of buffering.

use std::sync::Arc;
use std::time::Duration;

use topogen_bench::serve::http::{http_post, HttpResponse};
use topogen_bench::serve::{self, MeasureRequest, ServeConfig};
use topogen_core::ctx::RunCtx;
use topogen_core::zoo::{Scale, TopologySpec};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("topogen-serve-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn config(tag: &str, dir: &std::path::Path) -> ServeConfig {
    let mut config = ServeConfig::new("127.0.0.1:0");
    config.ledger_path = dir.join(format!("{tag}-ledger.jsonl"));
    config
}

fn mesh_request(seed: u64) -> MeasureRequest {
    MeasureRequest::new(TopologySpec::Mesh { side: 12 }, seed, Scale::Small)
}

#[test]
fn concurrent_requests_match_batch_outputs_byte_for_byte() {
    let dir = temp_dir("concurrent");
    let mut config = config("concurrent", &dir);
    config.store = Some(Arc::new(
        topogen_store::Store::open(dir.join("store")).unwrap(),
    ));
    config.workers = 4;
    let handle = serve::serve(config).unwrap();
    let addr = handle.addr();

    // Four different-seed requests in flight at once against one daemon.
    let responses: Vec<(u64, HttpResponse)> = [1u64, 2, 3, 4]
        .iter()
        .map(|&seed| {
            std::thread::spawn(move || {
                let req = mesh_request(seed);
                (seed, http_post(addr, "/measure", &req.to_json()).unwrap())
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|t| t.join().unwrap())
        .collect();

    for (seed, resp) in &responses {
        assert_eq!(resp.status, 200, "seed {seed}: {}", resp.text());
        // The daemon's answer must be byte-identical to a solo batch
        // computation of the same params, whatever the interleaving.
        let batch = serve::run_measure(&RunCtx::new(), &mesh_request(*seed)).body();
        assert_eq!(resp.text(), batch, "seed {seed} diverged from batch");
    }

    // And byte-identical to the `repro measure` CLI for one of them.
    let req_path = dir.join("req.json");
    std::fs::write(&req_path, mesh_request(3).to_json()).unwrap();
    let cli = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("measure")
        .arg(&req_path)
        .output()
        .unwrap();
    assert!(
        cli.status.success(),
        "{}",
        String::from_utf8_lossy(&cli.stderr)
    );
    let daemon_body = &responses.iter().find(|(s, _)| *s == 3).unwrap().1.body;
    assert_eq!(
        cli.stdout, *daemon_body,
        "daemon body and `repro measure` stdout disagree"
    );

    drop(handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn repeat_request_is_served_from_the_store() {
    let dir = temp_dir("repeat");
    let mut config = config("repeat", &dir);
    config.store = Some(Arc::new(
        topogen_store::Store::open(dir.join("store")).unwrap(),
    ));
    let handle = serve::serve(config).unwrap();
    let addr = handle.addr();

    let req = mesh_request(42);
    let cold = http_post(addr, "/measure", &req.to_json()).unwrap();
    let warm = http_post(addr, "/measure", &req.to_json()).unwrap();
    assert_eq!(cold.status, 200);
    assert_eq!(warm.status, 200);
    assert_eq!(
        cold.headers.get("x-topogen-cache").map(String::as_str),
        Some("miss")
    );
    assert_eq!(
        warm.headers.get("x-topogen-cache").map(String::as_str),
        Some("hit")
    );
    assert_eq!(cold.body, warm.body, "cache hit changed the bytes");

    drop(handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn deadline_cancels_one_request_while_neighbors_complete() {
    let dir = temp_dir("deadline");
    let mut config = config("deadline", &dir);
    config.workers = 2;
    let handle = serve::serve(config).unwrap();
    let addr = handle.addr();

    // A heavy request with a deadline it cannot meet... (quick budgets:
    // the engines checkpoint per center, and a thorough center on a
    // 2500-node graph would make the *cancellation* itself slow in
    // debug builds)
    let heavy = std::thread::spawn(move || {
        let mut req =
            MeasureRequest::new(TopologySpec::Random { n: 2500, p: 0.003 }, 9, Scale::Small);
        req.deadline_secs = Some(0.15);
        http_post(addr, "/measure", &req.to_json()).unwrap()
    });
    // ...alongside a quick request that must be unaffected.
    let quick = http_post(addr, "/measure", &mesh_request(5).to_json()).unwrap();
    let heavy = heavy.join().unwrap();

    assert_eq!(heavy.status, 504, "expected a timeout: {}", heavy.text());
    assert_eq!(
        heavy.headers.get("x-topogen-status").map(String::as_str),
        Some("failures")
    );
    assert!(
        heavy.text().contains("deadline exceeded"),
        "{}",
        heavy.text()
    );
    // Pinned: the 504 arrives as a complete JSON document over a
    // cleanly closed connection — the client read to EOF without an
    // error, and the body parses standalone.
    assert!(
        serde_json::from_str::<serde::Content>(&heavy.text()).is_ok(),
        "504 body is not standalone JSON: {}",
        heavy.text()
    );
    assert_eq!(quick.status, 200, "neighbor was harmed: {}", quick.text());

    drop(handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn saturated_daemon_rejects_with_429_instead_of_buffering() {
    let dir = temp_dir("saturate");
    let mut config = config("saturate", &dir);
    config.workers = 1;
    config.queue = 1;
    let handle = serve::serve(config).unwrap();
    let addr = handle.addr();

    // Occupy the only worker with a deadline-bounded heavy request,
    // then pile on concurrently: with one queue slot, at least two of
    // the four followers must be turned away with 429 immediately.
    let mut blocker =
        MeasureRequest::new(TopologySpec::Random { n: 2500, p: 0.003 }, 1, Scale::Small);
    blocker.deadline_secs = Some(3.0);
    let blocker_json = blocker.to_json();
    let blocker_thread =
        std::thread::spawn(move || http_post(addr, "/measure", &blocker_json).unwrap());
    std::thread::sleep(Duration::from_millis(300));

    let followers: Vec<HttpResponse> = (0..4u64)
        .map(|i| {
            std::thread::spawn(move || {
                http_post(addr, "/measure", &mesh_request(100 + i).to_json()).unwrap()
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|t| t.join().unwrap())
        .collect();
    let rejected = followers.iter().filter(|r| r.status == 429).count();
    assert!(
        rejected >= 1,
        "expected at least one 429, got statuses {:?}",
        followers.iter().map(|r| r.status).collect::<Vec<_>>()
    );
    for resp in followers.iter().filter(|r| r.status == 429) {
        assert!(resp.text().contains("saturated"), "{}", resp.text());
        assert_eq!(
            resp.headers.get("x-topogen-status").map(String::as_str),
            Some("failures")
        );
        // Pinned: backpressure rejections advertise when to come back.
        assert_eq!(
            resp.headers.get("retry-after").map(String::as_str),
            Some("1"),
            "429 must carry Retry-After"
        );
    }
    let _ = blocker_thread.join().unwrap();

    // Every request — served, timed out, or rejected — must be in the
    // ledger.
    let ledger = std::fs::read_to_string(handle.ledger_path()).unwrap();
    assert!(
        ledger.lines().count() >= 5,
        "ledger is missing requests:\n{ledger}"
    );
    assert!(ledger.contains("\"http\":429"), "no 429 line:\n{ledger}");

    drop(handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_schema_version_is_rejected_cleanly() {
    let dir = temp_dir("version");
    let handle = serve::serve(config("version", &dir)).unwrap();
    let resp = http_post(
        handle.addr(),
        "/measure",
        r#"{"schema_version":99,"topology":"Mesh","seed":1}"#,
    )
    .unwrap();
    assert_eq!(resp.status, 400);
    assert!(
        resp.text().contains("unsupported schema_version 99"),
        "{}",
        resp.text()
    );
    assert_eq!(
        resp.headers.get("x-topogen-code").map(String::as_str),
        Some("2"),
        "usage errors carry exit code 2"
    );
    drop(handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn deadline_too_long_for_a_duration_is_a_usage_error() {
    let dir = temp_dir("huge-deadline");
    let mut config = config("huge-deadline", &dir);
    config.workers = 2;
    let mut handle = serve::serve(config).unwrap();
    let live = handle.pool_stats().live;
    let resp = http_post(
        handle.addr(),
        "/measure",
        r#"{"schema_version":1,"topology":"Mesh","seed":1,"deadline_secs":1e300}"#,
    )
    .expect("the daemon answers instead of dropping the connection");
    assert_eq!(resp.status, 400, "{}", resp.text());
    assert!(resp.text().contains("deadline_secs"), "{}", resp.text());
    assert_eq!(handle.pool_stats().live, live, "worker lost to the request");

    // The drain waits for the request to finish, so its line is written.
    handle.drain(Duration::from_secs(5));
    let ledger = std::fs::read_to_string(handle.ledger_path()).unwrap();
    assert!(
        ledger
            .lines()
            .any(|l| l.contains("\"http\":400") && l.contains("deadline_secs")),
        "no ledger line for the request:\n{ledger}"
    );

    drop(handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn drain_under_load_cancels_stragglers_and_flushes_the_ledger() {
    let dir = temp_dir("drain");
    let mut config = config("drain", &dir);
    config.workers = 2;
    let mut handle = serve::serve(config).unwrap();
    let addr = handle.addr();

    // A heavy request with no deadline of its own: only the drain's
    // cancel sweep can stop it.
    let heavy = std::thread::spawn(move || {
        let req = MeasureRequest::new(TopologySpec::Random { n: 2500, p: 0.003 }, 9, Scale::Small);
        http_post(addr, "/measure", &req.to_json()).unwrap()
    });
    // Wait until it is provably in flight, then drain with a budget it
    // cannot meet.
    let arrived = std::time::Instant::now();
    while handle.in_flight() == 0 && arrived.elapsed() < Duration::from_secs(10) {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(handle.in_flight() > 0, "heavy request never arrived");
    let summary = handle.drain(Duration::from_millis(200));
    assert!(summary.in_flight_at_stop >= 1);
    assert!(
        summary.cancelled >= 1,
        "the straggler was told to cancel: {summary}"
    );
    assert!(summary.drained, "drain must finish within grace: {summary}");
    assert_eq!(handle.in_flight(), 0);
    assert_eq!(
        summary.pool.live, 2,
        "full pool strength at drain: {summary}"
    );

    // The cancelled request was answered 504, not dropped on the floor.
    let heavy = heavy.join().unwrap();
    assert_eq!(heavy.status, 504, "{}", heavy.text());

    // The drain fsynced a complete ledger: every line parses, the tail
    // is whole, and the cancelled request is accounted for.
    let ledger = std::fs::read_to_string(handle.ledger_path()).unwrap();
    assert!(ledger.ends_with('\n'), "torn ledger tail after drain");
    for line in ledger.lines() {
        assert!(
            serde_json::from_str::<serde::Content>(line).is_ok(),
            "unparseable ledger line after drain: {line}"
        );
    }
    assert!(
        ledger.contains("\"http\":504"),
        "cancelled request missing from ledger:\n{ledger}"
    );

    drop(handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn panicking_requests_answer_500_quarantine_their_key_and_spare_the_pool() {
    let _x = topogen_par::faults::exclusive_for_tests();
    let dir = temp_dir("heal");
    let mut config = config("heal", &dir);
    config.workers = 2;
    let handle = serve::serve(config).unwrap();
    let addr = handle.addr();

    // Scoped to `Linear` builds so concurrent tests in this binary
    // (all Mesh/Random) never see the fault.
    topogen_par::faults::install_spec("build@Linear:panic:1:9").unwrap();
    let poison = MeasureRequest::new(TopologySpec::Linear { n: 32 }, 1, Scale::Small);
    for attempt in 0..serve::daemon::QUARANTINE_AFTER {
        let resp = http_post(addr, "/measure", &poison.to_json()).unwrap();
        assert_eq!(resp.status, 500, "attempt {attempt}: {}", resp.text());
        assert!(resp.text().contains("panicked"), "{}", resp.text());
    }
    topogen_par::faults::clear();

    // The key is quarantined now — refused before compute even though
    // the fault is gone (it's the guard talking, not the fault).
    let refused = http_post(addr, "/measure", &poison.to_json()).unwrap();
    assert_eq!(refused.status, 503, "{}", refused.text());
    assert!(refused.text().contains("quarantined"), "{}", refused.text());
    assert_eq!(
        refused.headers.get("retry-after").map(String::as_str),
        Some("1"),
        "quarantine rejections must carry Retry-After"
    );

    // The panics cost three requests, zero workers: the pool is at full
    // strength and other keys still serve.
    assert_eq!(handle.pool_stats().live, 2, "worker lost to a panic");
    let ok = http_post(addr, "/measure", &mesh_request(11).to_json()).unwrap();
    assert_eq!(ok.status, 200, "{}", ok.text());

    // The durable ledger records the panics with the payload redacted.
    let ledger = std::fs::read_to_string(handle.ledger_path()).unwrap();
    assert!(
        ledger.contains("panicked (payload redacted)"),
        "no redacted panic line:\n{ledger}"
    );
    assert!(
        !ledger.contains("injected fault"),
        "panic payload leaked into the ledger:\n{ledger}"
    );

    drop(handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn damaged_ledger_is_recovered_and_counted_at_startup() {
    let dir = temp_dir("recover");
    let config = config("recover", &dir);
    // A previous "crash" left one garbage line and a torn tail.
    std::fs::write(
        &config.ledger_path,
        "not json at all\n{\"schema_version\":1,\"torn\":",
    )
    .unwrap();
    let handle = serve::serve(config).unwrap();
    assert_eq!(handle.recovered_lines(), 2, "garbage line + torn tail");
    // The daemon starts and serves normally regardless.
    let resp = http_post(handle.addr(), "/measure", &mesh_request(3).to_json()).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
    let ledger = std::fs::read_to_string(handle.ledger_path()).unwrap();
    assert!(ledger.ends_with('\n'));
    drop(handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn streaming_request_emits_progress_then_result() {
    let dir = temp_dir("stream");
    let handle = serve::serve(config("stream", &dir)).unwrap();
    let mut req = mesh_request(7);
    req.stream = true;
    let resp = http_post(handle.addr(), "/measure", &req.to_json()).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(
        resp.headers.get("content-type").map(String::as_str),
        Some("application/x-ndjson")
    );
    let text = resp.text();
    let lines: Vec<&str> = text.lines().collect();
    assert!(
        lines.len() > 1,
        "expected span events before the result, got {} line(s)",
        lines.len()
    );
    // Every line is standalone JSON; the last one is the result.
    let last = lines.last().unwrap();
    assert!(last.contains("\"topology\""), "bad tail line: {last}");
    let batch = serve::run_measure(&RunCtx::new(), &mesh_request(7)).body();
    let batch_compact: serde::Content = serde_json::from_str(&batch).unwrap();
    assert_eq!(
        *last,
        serde_json::to_string(&batch_compact).unwrap(),
        "stream tail differs from the batch result"
    );
    drop(handle);
    let _ = std::fs::remove_dir_all(&dir);
}
