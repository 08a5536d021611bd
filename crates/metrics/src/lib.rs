//! # topogen-metrics
//!
//! The paper's topology metrics, built on the ball-growing methodology of
//! §3.2.1: measure a quantity on the subgraph inside a ball of radius
//! `h`, then study how it grows with ball size — which factors out the
//! order-of-magnitude size differences between the compared networks.
//!
//! **The three basic metrics** (the smallest set that distinguishes all
//! the paper's topologies):
//!
//! * [`expansion`] — E(h), the average fraction of nodes within `h` hops
//!   (§3.2.1 "rate of spreading").
//! * [`resilience`] — R(n), the average minimum cut-set of a balanced
//!   bipartition of an `n`-node ball ("existence of alternate paths"),
//!   computed with the multilevel partitioning heuristics of
//!   [`partition`] (after Karypis–Kumar \[25\]).
//! * [`distortion`] — D(n), the average spanning-tree distortion of an
//!   `n`-node ball ("tree-like behavior", after Hu \[22\]), using the
//!   paper's center-rooted-BFS heuristic (footnote 14) plus a
//!   Bartal-style decomposition cross-check (footnote 15).
//!
//! **The auxiliary metrics of Appendix B:**
//!
//! * [`spectrum`] — adjacency eigenvalues vs rank (Figure 7(a–c)).
//! * [`eccentricity`] — node diameter distribution (Figure 7(d–f)).
//! * [`cover`] — vertex cover growth (Figure 8(a–c)).
//! * [`bicon_metric`] — biconnected component growth (Figure 8(d–f)).
//! * [`tolerance`] — attack and error tolerance (Figure 9, after Albert
//!   et al. \[3\]).
//! * [`clustering`] — clustering coefficients, ball-grown and global
//!   (Figure 10, after Watts–Strogatz \[46\] / Bu–Towsley \[8\]).
//! * [`extra`] — the footnote-22 extras: per-ball average path length
//!   and expected center-to-surface max flow.
//!
//! [`balls`] provides the shared ball-source abstraction — plain BFS
//! balls or policy-induced balls (Appendix E) — so every metric can run
//! with and without policy routing, exactly as the paper reports for the
//! AS and RL graphs. [`engine`] is the one ball-growing path: every
//! ball-grown curve is a [`BallMetric`] consumer of a [`BallPlan`],
//! which runs all registered metrics over one shared set of balls per
//! center (one traversal serves every consumer), with [`instrument`]
//! counting the work it saves. The scoped-thread
//! parallel map spreading per-center computations over cores lives in
//! the shared `topogen-par` crate (re-exported here as [`par`]), which
//! also serves the `topogen-hierarchy` link-value pipeline (this
//! workload is CPU-bound; threads, not async).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use topogen_par::instrument;
pub use topogen_par::par;

pub mod balls;
pub mod bicon_metric;
pub mod clustering;
pub mod cover;
pub mod distortion;
pub mod eccentricity;
pub mod engine;
pub mod expansion;
pub mod extra;
pub mod partition;
pub mod resilience;
pub mod spectrum;
pub mod tolerance;

pub use balls::{BallSource, PlainBalls, PolicyBalls};
pub use engine::{BallMetric, BallPlan, MeasureCtx, PlanResult};
pub use instrument::{Instrument, TimingReport};

/// A point on a ball-growing curve: the average ball size and average
/// metric value over all sampled balls of one radius.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CurvePoint {
    /// Ball radius `h`.
    pub radius: u32,
    /// Average number of nodes inside balls of this radius.
    pub avg_size: f64,
    /// Average metric value over those balls.
    pub value: f64,
}
