//! Live-object and pool-reuse counters for leak/double-free detection and
//! for proving that the recycle path runs.
//!
//! Every node/Info construction counts an allocation, every drop a free;
//! pool hits count a reuse instead. The counts are entries of
//! [`nvm::stats`] — per tid and always on, like every persistency
//! instruction count — and the readers below sum them over every tid. After
//! dropping a structure (and its collector and pools), the live counts must
//! return to their baseline — the integration tests assert this.

use nvm::stats;

/// Test coordination: the counters are process-global, so leak assertions
/// need exclusive use while ordinary allocating tests hold the shared side.
/// (Poisoning is ignored — a panicked test must not cascade.)
pub static TEST_GATE: std::sync::RwLock<()> = std::sync::RwLock::new(());

/// Shared gate guard for tests that allocate but don't assert on counters.
pub fn gate_shared() -> std::sync::RwLockReadGuard<'static, ()> {
    TEST_GATE.read().unwrap_or_else(|e| e.into_inner())
}

/// Exclusive gate guard for leak-assertion tests.
pub fn gate_exclusive() -> std::sync::RwLockWriteGuard<'static, ()> {
    TEST_GATE.write().unwrap_or_else(|e| e.into_inner())
}

/// Number of live nodes across all structures in this process.
pub fn live_nodes() -> isize {
    let s = stats::snapshot();
    s.node_allocs as isize - s.node_frees as isize
}

/// Number of live Info descriptors across all structures in this process.
pub fn live_infos() -> isize {
    let s = stats::snapshot();
    s.info_allocs as isize - s.info_frees as isize
}

/// Total node allocations served from a pool free list instead of the heap
/// (monotonic).
pub fn node_reuses() -> u64 {
    stats::snapshot().node_reuses
}

/// Total Info allocations served from a pool free list instead of the heap
/// (monotonic).
pub fn info_reuses() -> u64 {
    stats::snapshot().info_reuses
}
