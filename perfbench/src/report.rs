//! Metric declarations, summary statistics, digests, and the result line.

use std::time::Duration;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 52] = [
    ("zoo.build_s", "s"),
    ("zoo.builds", "count"),
    ("zoo.edges_per_s", "1/s"),
    ("suite.plain_s", "s"),
    ("suite.policy_s", "s"),
    ("suite.rl_policy_s", "s"),
    ("suite.calls", "count"),
    ("engine.bfs_runs", "count"),
    ("engine.balls_built", "count"),
    ("engine.ball_cache_hits", "count"),
    ("engine.ball_reuse_ratio", "ratio"),
    ("engine.balls_cpu_s", "s"),
    ("engine.center_cpu_s", "s"),
    ("par.busy_frac", "ratio"),
    ("bfs.distances_cpu_s", "s"),
    ("bfs.words_scanned", "count"),
    ("bfs.frontier_passes", "count"),
    ("bfs.bitset_plans", "count"),
    ("bfs.scalar_plans", "count"),
    ("resilience.cpu_s", "s"),
    ("resilience.balls", "count"),
    ("partition.restarts", "count"),
    ("partition.cut_s", "s"),
    ("distortion.cpu_s", "s"),
    ("distortion.balls", "count"),
    ("distortion.betweenness_s", "s"),
    ("distortion.bfs_tree_s", "s"),
    ("distortion.bartal_s", "s"),
    ("distortion.ball_nm_sum", "count"),
    ("distortion.betweenness_ns_per_nm", "ns"),
    ("hier.plain_s", "s"),
    ("hier.policy_s", "s"),
    ("hier.traversal_cpu_s", "s"),
    ("hier.merge_s", "s"),
    ("hier.cover_cpu_s", "s"),
    ("hier.dag_states", "count"),
    ("hier.pairs_accumulated", "count"),
    ("hier.arena_bytes", "B"),
    ("hier.scratch_bytes", "B"),
    ("hier.pairs_per_cpu_s", "1/s"),
    ("store.gets", "count"),
    ("store.hits", "count"),
    ("store.misses", "count"),
    ("store.hit_ratio", "ratio"),
    ("store.bytes_read", "B"),
    ("store.bytes_written", "B"),
    ("store.get_s", "s"),
    ("store.put_s", "s"),
    ("cache.graph_hash_s", "s"),
    ("cache.decode_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.spans", "count"),
];

/// Metric values by name; [`Metrics::line`] renders them with the
/// declared units.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    /// Record `name` (must be declared) as `value`; non-finite values
    /// (an undefined ratio) are recorded as 0.
    pub fn set(&mut self, name: &'static str, value: f64) {
        let v = if value.is_finite() { value } else { 0.0 };
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = v,
            None => self.0.push((name, v)),
        }
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|m| m.1)
    }

    /// The result object: `correct`, `attempted`, `failed`, and every
    /// metric of `declared` (in declaration order) with its unit.
    ///
    /// # Panics
    /// Panics if a declared metric was never recorded — a benchmark bug.
    pub fn line(&self, declared: &[(&str, &str)], attempted: u64, failed: u64) -> String {
        let body: Vec<String> = declared
            .iter()
            .map(|(name, unit)| {
                let v = self
                    .get(name)
                    .unwrap_or_else(|| panic!("metric {name} was not recorded"));
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            failed == 0 && attempted > 0,
            body.join(", ")
        )
    }
}

/// Median of durations in seconds (mean of the middle two when even).
pub fn median_s(xs: &[Duration]) -> f64 {
    let mut v: Vec<f64> = xs.iter().map(Duration::as_secs_f64).collect();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Percentile `p` (0 ≤ p ≤ 1) of durations in ms, interpolating
/// linearly between the two nearest order statistics (rank `p·(n−1)`),
/// so that with few samples it does not jump from one sample to the next.
pub fn percentile_ms(xs: &[Duration], p: f64) -> f64 {
    let mut v: Vec<f64> = xs.iter().map(|d| d.as_secs_f64() * 1e3).collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// 64-bit FNV-1a, for output digests.
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv {
    /// A fresh hasher.
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Feed bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Feed 64-bit words.
    pub fn words(&mut self, ws: &[u64]) {
        for w in ws {
            self.bytes(&w.to_le_bytes());
        }
    }

    /// The digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}
