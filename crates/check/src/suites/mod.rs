//! The registered suites, one module per subsystem under check.

pub mod codec;
pub mod degseq;
pub mod distortion;
pub mod hierarchy;
pub mod kernels;
pub mod scale;
pub mod store;
pub mod threads;
pub mod trace;
