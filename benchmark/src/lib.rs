//! `isbbench`: the repo's end-to-end benchmark, and the pieces `isbtrace`
//! (the per-layer traced run) shares with it.
//!
//! Everything here stays on a deliberately narrow slice of the repo's API —
//! `Server::start/stop`, `KvClient`, `Store::open_sized/hashmap/queue/heap`,
//! the structures' operations, `nvm::stats::snapshot`, `nvm::tid::set_tid` —
//! so that a change reshaping an inner layer cannot break the gate that
//! judges it. The wide-API code (the inline request-path replica and the
//! layer probes) lives only in the `isbtrace` binary.

#![warn(missing_docs)]

pub mod host;
pub mod keyset;
pub mod kv;
pub mod queue;
pub mod report;
pub mod restart;
pub mod rng;
pub mod run;
pub mod stats;

/// The tuning arm every structure is opened with — the arm the KV service
/// itself uses.
pub const ARM: u8 = kvserve::server::ARM;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["kv_update", "kv_lookup", "queue_2t", "map_restart"];
