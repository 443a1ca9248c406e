//! # `bench_harness` — workloads, figure runners and the crash harness
//!
//! Three jobs:
//! 1. [`workload`]: the paper's benchmark driver — N threads, timed runs,
//!    uniform keys, operation mixes, throughput + persistency-instruction
//!    counts per operation (Figures 1, 3–7).
//! 2. [`adapters`]: a uniform [`adapters::SetBench`] / [`adapters::QueueBench`]
//!    view over every evaluated implementation (ISB and baselines).
//! 3. [`crash`]: the crash-recovery test harness over [`nvm::SimNvm`]:
//!    seeded system-wide crashes, adversarial NVM-image reconstruction,
//!    per-process recovery, and exactly-once/detectability validation —
//!    over [`ops`], the operation vocabulary the SIGKILL legs of the `tests`
//!    crate speak too.
//!
//! [`placement::LineAligned`] is the allocator the count-reporting binaries
//! install, so a pinned count does not follow where malloc put an object.

#![warn(missing_docs)]

pub mod adapters;
pub mod crash;
pub mod ops;
pub mod placement;
pub mod report;
pub mod workload;
