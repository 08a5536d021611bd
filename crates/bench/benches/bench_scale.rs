//! The `--scale large` BFS-kernel workload: per-center scalar BFS vs
//! the 64-lane multi-source bitset kernel over seeded sampled centers,
//! on the structural (Mesh) and degree-based (PLRG) families.
//!
//! Besides wall-clock, the run checks the two kernels produce identical
//! ring profiles, streams a million-node PLRG through the
//! memory-budgeted spill-and-merge builder (asserting the edge scratch
//! stays under budget), and archives `out/BENCH_scale.json`:
//! per-topology timings, the xl build record, plus a top-level `"gate"`
//! object of deterministic operation counters (`words_scanned`,
//! `frontier_passes`, `spill_runs`) that `repro perf-gate` ratchets
//! against the committed baseline in `ci/perf-baselines/`.
//! Wall-clock fields are advisory-only — the gate never reads them.
//! `--quick` shrinks the graphs for smoke runs (and is what the
//! committed baseline was produced with).

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};
use topogen_generators::canonical::mesh;
use topogen_generators::plrg::{plrg, plrg_into, PlrgParams};
use topogen_graph::bfs;
use topogen_graph::bfs_bitset::{multi_source_ring_counts, BfsStats};
use topogen_graph::components::largest_component;
use topogen_graph::{Graph, GraphBuilder};
use topogen_metrics::balls::sample_centers;

/// Minimum wall time of `reps` runs.
fn time_min<F: FnMut() -> R, R>(reps: usize, mut f: F) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..reps {
        let start = Instant::now();
        std::hint::black_box(f());
        best = best.min(start.elapsed());
    }
    best
}

struct Row {
    name: String,
    nodes: usize,
    edges: usize,
    sources: usize,
    scalar_secs: f64,
    bitset_secs: f64,
    identical: bool,
    /// Bitset levels that ran bottom-up (of `BfsStats::frontier_passes`).
    pull_passes: u64,
}

/// One topology's scalar-vs-bitset comparison; returns the row plus the
/// bitset kernel's deterministic counters.
fn compare(name: &str, g: &Graph, max_h: u32, reps: usize) -> (Row, BfsStats) {
    let mut rng = StdRng::seed_from_u64(42);
    let sources = sample_centers(g.node_count(), 64, &mut rng);

    let t_scalar = time_min(reps, || {
        sources
            .iter()
            .map(|&s| bfs::ring_sizes(g, s, max_h))
            .collect::<Vec<_>>()
    });
    let scalar_rings: Vec<Vec<usize>> = sources
        .iter()
        .map(|&s| bfs::ring_sizes(g, s, max_h))
        .collect();

    let t_bitset = time_min(reps, || {
        let mut stats = BfsStats::default();
        multi_source_ring_counts(g, &sources, max_h, &mut stats)
    });
    let mut stats = BfsStats::default();
    let bitset_rings = multi_source_ring_counts(g, &sources, max_h, &mut stats);

    let row = Row {
        name: name.to_string(),
        nodes: g.node_count(),
        edges: g.edge_count(),
        sources: sources.len(),
        scalar_secs: t_scalar.as_secs_f64(),
        bitset_secs: t_bitset.as_secs_f64(),
        identical: bitset_rings == scalar_rings,
        pull_passes: stats.pull_passes,
    };
    (row, stats)
}

/// The archived scale report: Mesh (structural) and PLRG (degree-based)
/// at `--scale large`-style sizes, written to `out/BENCH_scale.json`.
fn scale_report(_c: &mut Criterion) {
    let quick = std::env::args().any(|a| a == "--quick");
    // Quick mirrors the committed perf-gate baseline; full runs the
    // actual large-tier populations (Mesh 414^2 = 171,396; PLRG 170k).
    let (mesh_side, plrg_n, reps) = if quick {
        (64, 12_000, 1)
    } else {
        (414, 170_000, 3)
    };
    let max_h = 64;

    let mesh_g = mesh(mesh_side, mesh_side);
    let mut rng = StdRng::seed_from_u64(9);
    let plrg_g = largest_component(&plrg(
        &PlrgParams {
            n: plrg_n,
            alpha: 2.246,
            max_degree: None,
        },
        &mut rng,
    ))
    .0;

    let mut rows = Vec::new();
    let mut gate = BfsStats::default();
    for (name, g) in [
        (format!("Mesh{mesh_side}"), &mesh_g),
        (format!("PLRG{plrg_n}"), &plrg_g),
    ] {
        let (row, stats) = compare(&name, g, max_h, reps);
        println!(
            "scale report: {} ({} nodes, {} edges, {} sources) scalar {:.4}s, bitset {:.4}s ({:.2}x), identical {}, {} of {} levels pulled",
            row.name,
            row.nodes,
            row.edges,
            row.sources,
            row.scalar_secs,
            row.bitset_secs,
            row.scalar_secs / row.bitset_secs.max(1e-12),
            row.identical,
            row.pull_passes,
            stats.frontier_passes,
        );
        gate.merge(&stats);
        rows.push(row);
    }
    let all_identical = rows.iter().all(|r| r.identical);

    // The xl probe: a million-node PLRG built by a budgeted
    // `GraphBuilder` (spill and merge) under a hard 8 MiB budget —
    // the tier whose raw edge buffer the in-memory builder cannot
    // afford to hold. Runs in quick mode too (seconds in release), so
    // the committed baseline gates its spill count.
    let xl_budget: u64 = 8 * 1024 * 1024;
    let xl_n = 1_000_000usize;
    let scratch = std::env::temp_dir().join(format!("topogen-bench-xl-{}", std::process::id()));
    let _ = std::fs::create_dir_all(&scratch);
    let xl_start = Instant::now();
    let mut sink = GraphBuilder::budgeted(xl_budget, &scratch);
    let mut xl_rng = StdRng::seed_from_u64(77);
    plrg_into(
        &PlrgParams {
            n: xl_n,
            alpha: 2.246,
            max_degree: None,
        },
        &mut xl_rng,
        &mut sink,
    );
    let (xl_g, xl_stats) = sink.build_counted();
    let xl_secs = xl_start.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&scratch);
    println!(
        "scale report: PLRG{xl_n} streamed under {xl_budget} B: {} nodes, {} edges, \
         peak {} B, {} spill run(s), {xl_secs:.3}s",
        xl_g.node_count(),
        xl_g.edge_count(),
        xl_stats.peak_bytes,
        xl_stats.spill_runs,
    );
    assert!(
        xl_stats.spill_runs >= 1,
        "the xl build must exercise the spill path"
    );
    assert!(
        xl_stats.peak_bytes <= xl_budget,
        "edge-scratch peak {} exceeded the {xl_budget}-byte budget",
        xl_stats.peak_bytes
    );

    let rows_json: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{ \"name\": \"{}\", \"nodes\": {}, \"edges\": {}, \"sources\": {}, \"scalar_secs\": {:.6}, \"bitset_secs\": {:.6}, \"speedup\": {:.3}, \"identical\": {}, \"pull_passes\": {} }}",
                r.name,
                r.nodes,
                r.edges,
                r.sources,
                r.scalar_secs,
                r.bitset_secs,
                r.scalar_secs / r.bitset_secs.max(1e-12),
                r.identical,
                r.pull_passes,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"quick\": {},\n  \"max_h\": {},\n  \"reps\": {},\n  \"rows\": [\n{}\n  ],\n  \"bit_identical\": {},\n  \"xl\": {{\n    \"name\": \"PLRG{}\",\n    \"nodes\": {},\n    \"edges\": {},\n    \"budget_bytes\": {},\n    \"peak_bytes\": {},\n    \"spill_runs\": {},\n    \"build_secs\": {:.6}\n  }},\n  \"gate\": {{\n    \"words_scanned\": {},\n    \"frontier_passes\": {},\n    \"spill_runs\": {}\n  }}\n}}\n",
        quick,
        max_h,
        reps,
        rows_json.join(",\n"),
        all_identical,
        xl_n,
        xl_g.node_count(),
        xl_g.edge_count(),
        xl_budget,
        xl_stats.peak_bytes,
        xl_stats.spill_runs,
        xl_secs,
        gate.words_scanned,
        gate.frontier_passes,
        xl_stats.spill_runs,
    );
    // Benches run with the package dir as cwd; anchor the default output
    // at the workspace root so CI finds it at out/BENCH_scale.json.
    let dir = std::env::var("BENCH_OUT_DIR")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../out").into());
    if let Err(e) = std::fs::create_dir_all(&dir)
        .and_then(|_| std::fs::write(format!("{dir}/BENCH_scale.json"), &json))
    {
        eprintln!("warning: cannot write {dir}/BENCH_scale.json: {e}");
    } else {
        println!("wrote {dir}/BENCH_scale.json");
    }
    assert!(all_identical, "bitset rings must match scalar BFS exactly");
}

criterion_group!(benches, scale_report);
criterion_main!(benches);
