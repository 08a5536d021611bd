//! # topogen-bench
//!
//! The experiment harness: one function per table/figure of the paper,
//! each returning the same rows/series the paper reports (as
//! [`topogen_core::report`] records), plus the `repro` binary that
//! prints them and Criterion benches over the computational kernels.
//!
//! Experiment index (see DESIGN.md §4 for the full mapping):
//!
//! | id | paper artifact | function |
//! |----|----------------|----------|
//! | `tab1` | Figure 1 topology table | [`experiments::tab1::run`] |
//! | `fig2` | Figure 2(a–l) expansion/resilience/distortion | [`experiments::fig2::run`] |
//! | `fig3` / `fig4` | link-value rank distributions | [`experiments::fig3::run`] |
//! | `fig5` | link-value ↔ degree correlation | [`experiments::fig5::run`] |
//! | `fig6` | Appendix A degree CCDFs | [`experiments::fig6::run`] |
//! | `fig7` | eigenvalues & eccentricity distributions | [`experiments::fig7::run_eigen`] |
//! | `fig8` | vertex cover & biconnectivity growth | [`experiments::fig8::run_cover`] |
//! | `fig9` | attack & error tolerance | [`experiments::fig9::run`] |
//! | `fig10` | clustering coefficient curves | [`experiments::fig10::run`] |
//! | `fig11` | Appendix C parameter exploration | [`experiments::fig11::run`] |
//! | `fig12` / `fig13` | degree-based variants & PLRG re-wiring | [`experiments::fig12::run`] |
//! | `fig14` | link values of PLRG variants | [`experiments::fig3::run_variants`] |
//! | `fig15` | policy-induced ball example | [`experiments::fig15::run`] |
//! | `tab-signature` | §3.2.1 + §4.4 L/H tables | [`experiments::signatures::run_signature_table`] |
//! | `tab-hierarchy` | §5.1 strict/moderate/loose table | [`experiments::signatures::run_hierarchy_table`] |
//! | `bgp-vs-policy` | Gao–Rexford BGP vs the paper's policy model | [`experiments::bgp::run`] |
//! | `robustness-snapshots` | §3.1.1 snapshot stability | [`experiments::robustness::run_snapshots`] |
//! | `robustness-incompleteness` | §3.1.1 incompleteness caveat | [`experiments::robustness::run_incompleteness`] |
//! | `ablation-ts` | footnote 17 TS redundancy trade-off | [`experiments::ablations::run_ts_redundancy`] |
//! | `ablation-extremes` | §4.4 extreme-parameter regimes | [`experiments::ablations::run_extremes`] |
//! | `ablation-distortion` | spanning-tree polish quality | [`experiments::ablations::run_distortion_polish`] |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod perfgate;
pub mod runner;
pub mod serve;
pub mod tracefmt;

use topogen_core::zoo::Scale;

/// The `repro` exit-code taxonomy, shared verbatim by the serve
/// daemon's per-request status field: `0` clean, `1` failures (including
/// timeouts), `2` usage error, `3` load error (corrupt/missing input).
/// Promoted from scattered literals so every producer and consumer —
/// batch CLI, runner, daemon ledger — agrees on one vocabulary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExitCode {
    /// Everything completed (0).
    Clean,
    /// At least one unit failed or timed out (1).
    Failures,
    /// Bad invocation or malformed request (2).
    Usage,
    /// Input could not be loaded (3).
    LoadError,
}

impl ExitCode {
    /// The process exit code / wire status code.
    pub fn code(self) -> i32 {
        match self {
            ExitCode::Clean => 0,
            ExitCode::Failures => 1,
            ExitCode::Usage => 2,
            ExitCode::LoadError => 3,
        }
    }

    /// Stable human-readable label (the daemon ledger's `status`).
    pub fn as_str(self) -> &'static str {
        match self {
            ExitCode::Clean => "clean",
            ExitCode::Failures => "failures",
            ExitCode::Usage => "usage",
            ExitCode::LoadError => "load-error",
        }
    }

    /// Terminate the process with this code.
    pub fn exit(self) -> ! {
        std::process::exit(self.code())
    }
}

/// Shared experiment context.
#[derive(Clone, Copy, Debug)]
pub struct ExpCtx {
    /// Topology scale.
    pub scale: Scale,
    /// Master seed.
    pub seed: u64,
    /// Quick (CI) vs thorough sampling budgets.
    pub quick: bool,
}

impl Default for ExpCtx {
    fn default() -> Self {
        ExpCtx {
            scale: Scale::Small,
            seed: 42,
            quick: true,
        }
    }
}

impl ExpCtx {
    /// Suite parameters matching this context.
    ///
    /// `Small`/`Paper` keep the historical quick/thorough budgets so
    /// archived outputs stay byte-identical. The `large`/`xl` tiers
    /// sample centers (the paper's "sufficiently large number of
    /// randomly chosen nodes") with budgets sized so one signature
    /// table stays CI-feasible: fewer, shallower balls as the graphs
    /// grow, leaning on the batched bitset BFS kernels for the
    /// expansion sweeps. The sampled tiers additionally run in
    /// checkpointed batches when a store is attached (partials land in
    /// the store, so a killed suite resumes mid-run) and attach
    /// bootstrap 95% CIs to the sampled estimates; the archived tiers
    /// keep both off. A batch holds [`MAX_LANES`] jobs, at most one
    /// lane pass plus enough ball centers to fill the workers; it must
    /// not depend on the thread count, because the batch size is part
    /// of every partial's store key.
    ///
    /// [`MAX_LANES`]: topogen_graph::bfs_bitset::MAX_LANES
    pub fn suite_params(&self) -> topogen_core::suite::SuiteParams {
        let mut p = if self.quick {
            topogen_core::suite::SuiteParams::quick()
        } else {
            topogen_core::suite::SuiteParams::thorough()
        };
        match self.scale {
            Scale::Small | Scale::Paper => {}
            Scale::Large => {
                p.centers = 16;
                p.expansion_sources = 128;
                p.max_radius = 40;
                p.max_ball_nodes = 900;
                p.batch = Some(topogen_graph::bfs_bitset::MAX_LANES);
                p.bootstrap = Some(200);
            }
            Scale::Xl => {
                p.centers = 8;
                p.expansion_sources = 64;
                p.max_radius = 32;
                p.max_ball_nodes = 900;
                p.batch = Some(topogen_graph::bfs_bitset::MAX_LANES);
                p.bootstrap = Some(200);
            }
        }
        p.seed = self.seed ^ 0x5EED;
        p
    }
}
