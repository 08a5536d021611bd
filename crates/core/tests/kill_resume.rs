//! The mid-suite kill drill: a real child process running a batched,
//! store-checkpointed suite is SIGKILLed while its batch partials are
//! landing, and a resumed run over the surviving store must reproduce
//! the one-shot curves bit-for-bit — served from the dead child's
//! checkpoints, not recomputed from scratch.
//!
//! The child is this same test binary re-executed with
//! `TOPOGEN_KILL_CHILD` pointing at the shared store directory; the
//! parent polls the store for the first persisted entries and then
//! kills without warning, which is exactly the failure `--resume` must
//! absorb.

use std::process::Command;
use std::sync::Arc;
use std::time::{Duration, Instant};

use topogen_core::suite::{plain_curves_key, run_suite_in, SuiteParams, SuiteResult};
use topogen_core::zoo::{build_in, Scale, TopologySpec};
use topogen_core::RunCtx;
use topogen_store::Store;

const CHILD_ENV: &str = "TOPOGEN_KILL_CHILD";

/// The topology and parameters both processes must agree on.
fn drill_setup() -> (TopologySpec, SuiteParams) {
    let mut params = SuiteParams::quick();
    params.seed = 4242;
    // One job per batch: every completed job is a durable checkpoint,
    // so a kill at any point strands a meaningful partial prefix.
    params.batch = Some(1);
    (TopologySpec::Mesh { side: 16 }, params)
}

fn fingerprint(r: &SuiteResult) -> (Vec<u64>, Vec<(u32, u64, u64)>, String) {
    (
        r.expansion.iter().map(|v| v.to_bits()).collect(),
        r.resilience
            .iter()
            .chain(r.distortion.iter())
            .map(|p| (p.radius, p.avg_size.to_bits(), p.value.to_bits()))
            .collect(),
        r.signature.to_string(),
    )
}

/// Count `.tgr` entries under the store root (two-level sharding).
fn entry_count(root: &std::path::Path) -> usize {
    let Ok(shards) = std::fs::read_dir(root) else {
        return 0;
    };
    shards
        .flatten()
        .filter(|s| s.path().is_dir())
        .flat_map(|s| std::fs::read_dir(s.path()).into_iter().flatten().flatten())
        .filter(|e| e.path().extension().and_then(|x| x.to_str()) == Some("tgr"))
        .count()
}

#[test]
fn sigkilled_suite_resumes_fingerprint_identical() {
    let (spec, params) = drill_setup();

    // Child mode: run the batched suite against the shared store until
    // the parent kills us (or to completion — the drill still holds).
    if let Ok(dir) = std::env::var(CHILD_ENV) {
        let store = Arc::new(Store::open(dir.as_ref() as &std::path::Path).unwrap());
        let t = build_in(&RunCtx::new(), &spec, Scale::Small, 7);
        let ctx = RunCtx::new().with_store(store);
        let _ = run_suite_in(&ctx, &t, &params);
        return;
    }

    let dir = std::env::temp_dir().join(format!("topogen-kill-drill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let exe = std::env::current_exe().unwrap();
    let mut child = Command::new(&exe)
        .args([
            "--exact",
            "sigkilled_suite_resumes_fingerprint_identical",
            "--test-threads=1",
            "--nocapture",
        ])
        .env(CHILD_ENV, &dir)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn child drill process");

    // Kill as soon as checkpoints start landing (entry 1 is the cached
    // topology, so wait for at least one batch partial on top of it).
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        if entry_count(&dir) >= 2 {
            break;
        }
        if child.try_wait().expect("poll child").is_some() {
            break; // finished before we could kill — drill still valid
        }
        assert!(
            Instant::now() < deadline,
            "child never persisted a checkpoint"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let _ = child.kill(); // SIGKILL on unix: no destructors, no flush
    let _ = child.wait();

    // The dead child's store must now carry partials. Evict the final
    // curves entry in case the child got that far, so the resumed run
    // is forced through the partial-checkpoint path.
    let t = build_in(&RunCtx::new(), &spec, Scale::Small, 7);
    let store = Arc::new(Store::open(&dir).unwrap());
    store.remove(&plain_curves_key(&t, &params));
    let ctx = RunCtx::new().with_store(store.clone());
    let before = store.counters().snapshot();
    let resumed = run_suite_in(&ctx, &t, &params);
    let resumed_hits = before.delta_to(&store.counters().snapshot()).hits;

    let one_shot = run_suite_in(
        &RunCtx::new(),
        &t,
        &SuiteParams {
            batch: None,
            ..params
        },
    );

    assert_eq!(
        fingerprint(&resumed),
        fingerprint(&one_shot),
        "resume after SIGKILL must reproduce the one-shot curves bit-for-bit"
    );
    assert!(
        resumed_hits >= 1,
        "resume must be served from the killed run's checkpoints"
    );
    assert!(
        resumed.timings.bfs_runs < one_shot.timings.bfs_runs,
        "resume must skip the checkpointed batches: {} vs {} BFS runs",
        resumed.timings.bfs_runs,
        one_shot.timings.bfs_runs
    );
    let _ = std::fs::remove_dir_all(&dir);
}
