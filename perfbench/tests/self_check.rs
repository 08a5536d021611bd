//! The benchmark checks itself: every workload's tiny mode emits every
//! metric declared in the repository's `BENCHMARK.json` with its unit,
//! and a corrupted operation is counted as failed.

use std::path::Path;

#[test]
fn every_workload_emits_declared_metrics_and_counts_corruption() {
    let declared = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let scratch = Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-self-check");
    match topogen_perfbench::selfcheck::run(&declared, scratch) {
        Ok(_) => {}
        Err(log) => panic!("self-check failed:\n{}", log.join("\n")),
    }
}
