//! Live-object and pool-reuse counters for leak/double-free detection and
//! for proving that the recycle path runs.
//!
//! Every node/Info heap allocation increments, every deallocation decrements;
//! pool hits bump the reuse counters instead. After dropping a structure (and
//! its collector and pools), the live counts must return to their baseline —
//! the integration tests assert this.
//!
//! The counters are **compiled out of the hot path by default**: they are
//! active only under `cfg(test)` (this crate's own unit tests) or the
//! `count-allocs` feature (enabled by the `tests` package). Production users
//! of `isb` pay nothing. When disabled, every accessor reports zero.

#[cfg(any(test, feature = "count-allocs"))]
use std::sync::atomic::{AtomicIsize, AtomicU64, Ordering::Relaxed};

#[cfg(any(test, feature = "count-allocs"))]
static NODES: AtomicIsize = AtomicIsize::new(0);
#[cfg(any(test, feature = "count-allocs"))]
static INFOS: AtomicIsize = AtomicIsize::new(0);
#[cfg(any(test, feature = "count-allocs"))]
static NODE_REUSE: AtomicU64 = AtomicU64::new(0);
#[cfg(any(test, feature = "count-allocs"))]
static INFO_REUSE: AtomicU64 = AtomicU64::new(0);

pub(crate) fn node_alloc() {
    #[cfg(any(test, feature = "count-allocs"))]
    NODES.fetch_add(1, Relaxed);
}
pub(crate) fn node_free() {
    #[cfg(any(test, feature = "count-allocs"))]
    NODES.fetch_sub(1, Relaxed);
}
pub(crate) fn info_alloc() {
    #[cfg(any(test, feature = "count-allocs"))]
    INFOS.fetch_add(1, Relaxed);
}
pub(crate) fn info_free() {
    #[cfg(any(test, feature = "count-allocs"))]
    INFOS.fetch_sub(1, Relaxed);
}
pub(crate) fn node_reuse() {
    #[cfg(any(test, feature = "count-allocs"))]
    NODE_REUSE.fetch_add(1, Relaxed);
}
pub(crate) fn info_reuse() {
    #[cfg(any(test, feature = "count-allocs"))]
    INFO_REUSE.fetch_add(1, Relaxed);
}

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

/// Number of live nodes across all structures in this process (0 when the
/// counters are compiled out).
pub fn live_nodes() -> isize {
    #[cfg(any(test, feature = "count-allocs"))]
    return NODES.load(Relaxed);
    #[cfg(not(any(test, feature = "count-allocs")))]
    0
}

/// Number of live Info descriptors across all structures in this process
/// (0 when the counters are compiled out).
pub fn live_infos() -> isize {
    #[cfg(any(test, feature = "count-allocs"))]
    return INFOS.load(Relaxed);
    #[cfg(not(any(test, feature = "count-allocs")))]
    0
}

/// Total node allocations served from a pool free list instead of the heap
/// (monotonic; 0 when the counters are compiled out).
pub fn node_reuses() -> u64 {
    #[cfg(any(test, feature = "count-allocs"))]
    return NODE_REUSE.load(Relaxed);
    #[cfg(not(any(test, feature = "count-allocs")))]
    0
}

/// Total Info allocations served from a pool free list instead of the heap
/// (monotonic; 0 when the counters are compiled out).
pub fn info_reuses() -> u64 {
    #[cfg(any(test, feature = "count-allocs"))]
    return INFO_REUSE.load(Relaxed);
    #[cfg(not(any(test, feature = "count-allocs")))]
    0
}

/// Whether the allocation counters are compiled in (`cfg(test)` or the
/// `count-allocs` feature). Callers can skip count-based assertions when not.
pub const fn enabled() -> bool {
    cfg!(any(test, feature = "count-allocs"))
}
