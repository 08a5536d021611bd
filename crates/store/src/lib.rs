//! Persistence layer for the reproduction: a versioned binary graph
//! codec plus a content-addressed on-disk artifact store.
//!
//! The paper's methodology is re-run-heavy — every figure regenerates
//! the same zoo topologies and re-grows the same balls. This crate lets
//! `repro --cache` persist generated topologies and expensive derived
//! artifacts (metric curves, link-value summaries) across runs:
//!
//! * [`codec`] — the `.tgr` binary CSR graph format (magic/version
//!   header, explicit little-endian layout, FNV-1a content checksum)
//!   plus a tagged-section container for composite artifacts. Exact
//!   round-trip with the text loader in `topogen_graph::io`.
//! * [`store`] — the content-addressed store: entries live at
//!   `<root>/<2-hex>/<16-hex>` keyed by an FNV-1a hash of a canonical
//!   key string, with a deterministic plain-text ledger driving
//!   LRU-by-access-order eviction (`gc`), a checksum walk (`verify`),
//!   and hit/miss/byte counters for per-unit reporting.
//! * [`key`] — canonical key construction: artifact kind, generator
//!   name + canonicalized parameters, seed, scale, codec version, and
//!   an engine code-version stamp, so any change that could shift
//!   results invalidates old entries.
//!
//! A run reaches the store through the handle its run context carries
//! (`topogen_core::RunCtx::store`); nothing here is process-global.
//!
//! Zero external dependencies (consistent with the vendored-shim
//! policy): hashing, encoding, and the ledger are all hand-rolled.

pub mod codec;
pub mod fnv;
pub mod key;
pub mod store;

pub use codec::{decode_graph, encode_graph, CodecError, CODEC_VERSION};
pub use store::{Store, StoreCounters};
