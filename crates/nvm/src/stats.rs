//! Persistency-instruction statistics.
//!
//! Figures 1b, 1c, 5 and 6 of the paper plot, per operation, the number of
//! **pbarriers** (a `pwb` immediately followed by a fence — in the paper's
//! measured code a `clflush; mfence` pair) and the number of **stand-alone
//! flushes** (`pwb`s not part of a barrier). We keep per-process counters on
//! padded slots (no cross-thread contention) and sum them on demand.

use crate::pad::CachePadded;
use crate::tid;
use crate::MAX_PROCS;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// One process's counters.
#[derive(Debug, Default)]
pub struct Slot {
    /// Stand-alone `pwb` calls (one per word/line flushed outside barriers).
    pub pwb: AtomicU64,
    /// `pbarrier` calls (each = flush(es) + fence).
    pub pbarrier: AtomicU64,
    /// Cache lines flushed *inside* barriers (≥ pbarrier when flushing multi-line objects).
    pub pbarrier_lines: AtomicU64,
    /// `pfence` calls.
    pub pfence: AtomicU64,
    /// `psync` calls.
    pub psync: AtomicU64,
    /// Coalesced `pwb`s elided as duplicates of an already-pending line
    /// (see [`crate::coalesce`]); these issued no write-back and are *not*
    /// included in `pwb`.
    pub pwb_elided: AtomicU64,
    /// Lines written back by fence-time drains of the coalescing set. Each
    /// was already counted in `pwb` when noted; this tracks how much traffic
    /// went through the deferred path.
    pub lines_coalesced: AtomicU64,
    /// Persistent-heap block allocations ([`crate::MappedHeap::alloc`]).
    pub heap_allocs: AtomicU64,
    /// Heap allocations served from a free list (per-thread cache, global
    /// stack, or cold map) rather than the bump cursor.
    pub free_list_hits: AtomicU64,
    /// Slab refills: bump-cursor reservations that carved a batch of blocks
    /// for a per-thread cache.
    pub slab_refills: AtomicU64,
    /// Heap segments added by growth past the initial mapping.
    pub segments_grown: AtomicU64,
    /// Milliseconds spent in the parallel phases of attach (validate walk,
    /// census, sweep). Wall-clock, summed across attaches.
    pub attach_par_ms: AtomicU64,
    /// Dead participants of a shared heap recovered online by this process
    /// (per-pid replay completed and the registry slot reclaimed).
    pub peers_recovered: AtomicU64,
    /// Recovery leases taken over from a recoverer that itself died
    /// mid-recovery (lease CAS supersession).
    pub leases_stolen: AtomicU64,
    /// Pinned epoch announcements of dead participants released by the
    /// recovery path — each one was wedging cross-process reclamation.
    pub epoch_stalls: AtomicU64,
    /// KV-service requests applied to a structure (excludes dedup replays).
    pub kv_requests: AtomicU64,
    /// KV-service retries answered from the durable response table without
    /// re-applying the operation (the client-visible exactly-once path).
    pub kv_dedup_hits: AtomicU64,
    /// KV-service in-flight intents resolved by attach or peer recovery
    /// (each was a request interrupted by a crash and decided
    /// Completed-with-response or Restart).
    pub kv_intents_resolved: AtomicU64,
}

struct Table {
    slots: Vec<CachePadded<Slot>>,
}

impl Table {
    fn new() -> Self {
        Self { slots: (0..MAX_PROCS).map(|_| CachePadded::new(Slot::default())).collect() }
    }
}

fn table() -> &'static Table {
    use std::sync::OnceLock;
    static TABLE: OnceLock<Table> = OnceLock::new();
    TABLE.get_or_init(Table::new)
}

#[inline]
fn my_slot() -> &'static Slot {
    &table().slots[tid::try_tid().unwrap_or(0)]
}

/// Record one stand-alone flush.
#[inline]
pub fn count_pwb(n: u64) {
    my_slot().pwb.fetch_add(n, Relaxed);
}

/// Record one barrier flushing `lines` cache lines.
#[inline]
pub fn count_pbarrier(lines: u64) {
    let s = my_slot();
    s.pbarrier.fetch_add(1, Relaxed);
    s.pbarrier_lines.fetch_add(lines, Relaxed);
}

/// Record one `pfence`.
#[inline]
pub fn count_pfence() {
    my_slot().pfence.fetch_add(1, Relaxed);
}

/// Record one `psync`.
#[inline]
pub fn count_psync() {
    my_slot().psync.fetch_add(1, Relaxed);
}

/// Record `n` coalesced-away (duplicate-line) `pwb`s.
#[inline]
pub fn count_pwb_elided(n: u64) {
    my_slot().pwb_elided.fetch_add(n, Relaxed);
}

/// Record `n` lines drained from the coalescing set at a fence.
#[inline]
pub fn count_lines_coalesced(n: u64) {
    my_slot().lines_coalesced.fetch_add(n, Relaxed);
}

/// Record `n` persistent-heap allocations.
#[inline]
pub fn count_heap_allocs(n: u64) {
    my_slot().heap_allocs.fetch_add(n, Relaxed);
}

/// Record `n` allocations served from a free list.
#[inline]
pub fn count_free_list_hits(n: u64) {
    my_slot().free_list_hits.fetch_add(n, Relaxed);
}

/// Record `n` per-thread slab refills from the bump cursor.
#[inline]
pub fn count_slab_refills(n: u64) {
    my_slot().slab_refills.fetch_add(n, Relaxed);
}

/// Record `n` heap segments added by growth.
#[inline]
pub fn count_segments_grown(n: u64) {
    my_slot().segments_grown.fetch_add(n, Relaxed);
}

/// Record `ms` milliseconds spent in parallel attach phases.
#[inline]
pub fn count_attach_par_ms(ms: u64) {
    my_slot().attach_par_ms.fetch_add(ms, Relaxed);
}

/// Record `n` dead peers recovered online.
#[inline]
pub fn count_peers_recovered(n: u64) {
    my_slot().peers_recovered.fetch_add(n, Relaxed);
}

/// Record `n` recovery leases stolen from a dead recoverer.
#[inline]
pub fn count_leases_stolen(n: u64) {
    my_slot().leases_stolen.fetch_add(n, Relaxed);
}

/// Record `n` dead-peer pinned epochs released (reclamation stalls cleared).
#[inline]
pub fn count_epoch_stalls(n: u64) {
    my_slot().epoch_stalls.fetch_add(n, Relaxed);
}

/// Record `n` KV-service requests applied to a structure.
#[inline]
pub fn count_kv_requests(n: u64) {
    my_slot().kv_requests.fetch_add(n, Relaxed);
}

/// Record `n` KV-service dedup replays (responses served from the table).
#[inline]
pub fn count_kv_dedup_hits(n: u64) {
    my_slot().kv_dedup_hits.fetch_add(n, Relaxed);
}

/// Record `n` KV in-flight intents resolved by attach or peer recovery.
#[inline]
pub fn count_kv_intents_resolved(n: u64) {
    my_slot().kv_intents_resolved.fetch_add(n, Relaxed);
}

/// Aggregated snapshot of all per-process counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Snapshot {
    /// Stand-alone flushes.
    pub pwb: u64,
    /// Barrier events.
    pub pbarrier: u64,
    /// Lines flushed inside barriers.
    pub pbarrier_lines: u64,
    /// Fences.
    pub pfence: u64,
    /// Syncs.
    pub psync: u64,
    /// Duplicate-line `pwb`s elided by coalescing.
    pub pwb_elided: u64,
    /// Lines drained from the coalescing set at fences.
    pub lines_coalesced: u64,
    /// Persistent-heap allocations.
    pub heap_allocs: u64,
    /// Allocations served from a free list.
    pub free_list_hits: u64,
    /// Per-thread slab refills from the bump cursor.
    pub slab_refills: u64,
    /// Heap segments added by growth.
    pub segments_grown: u64,
    /// Milliseconds spent in parallel attach phases.
    pub attach_par_ms: u64,
    /// Dead peers recovered online.
    pub peers_recovered: u64,
    /// Recovery leases stolen from dead recoverers.
    pub leases_stolen: u64,
    /// Dead-peer pinned epochs released by recovery.
    pub epoch_stalls: u64,
    /// KV-service requests applied to a structure.
    pub kv_requests: u64,
    /// KV-service dedup replays served from the response table.
    pub kv_dedup_hits: u64,
    /// KV in-flight intents resolved by attach or peer recovery.
    pub kv_intents_resolved: u64,
}

impl Snapshot {
    /// Process `t`'s counters alone. A test that owns tid `t` diffs two of
    /// these to read exactly its own traffic, whatever sibling threads
    /// count meanwhile; [`snapshot`] is the sum over every tid.
    ///
    /// # Panics
    /// If `t >= MAX_PROCS`.
    pub fn of_tid(t: usize) -> Snapshot {
        sum(&table().slots[t..=t])
    }

    /// Component-wise difference (`self - earlier`), saturating at zero.
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        Snapshot {
            pwb: self.pwb.saturating_sub(earlier.pwb),
            pbarrier: self.pbarrier.saturating_sub(earlier.pbarrier),
            pbarrier_lines: self.pbarrier_lines.saturating_sub(earlier.pbarrier_lines),
            pfence: self.pfence.saturating_sub(earlier.pfence),
            psync: self.psync.saturating_sub(earlier.psync),
            pwb_elided: self.pwb_elided.saturating_sub(earlier.pwb_elided),
            lines_coalesced: self.lines_coalesced.saturating_sub(earlier.lines_coalesced),
            heap_allocs: self.heap_allocs.saturating_sub(earlier.heap_allocs),
            free_list_hits: self.free_list_hits.saturating_sub(earlier.free_list_hits),
            slab_refills: self.slab_refills.saturating_sub(earlier.slab_refills),
            segments_grown: self.segments_grown.saturating_sub(earlier.segments_grown),
            attach_par_ms: self.attach_par_ms.saturating_sub(earlier.attach_par_ms),
            peers_recovered: self.peers_recovered.saturating_sub(earlier.peers_recovered),
            leases_stolen: self.leases_stolen.saturating_sub(earlier.leases_stolen),
            epoch_stalls: self.epoch_stalls.saturating_sub(earlier.epoch_stalls),
            kv_requests: self.kv_requests.saturating_sub(earlier.kv_requests),
            kv_dedup_hits: self.kv_dedup_hits.saturating_sub(earlier.kv_dedup_hits),
            kv_intents_resolved: self
                .kv_intents_resolved
                .saturating_sub(earlier.kv_intents_resolved),
        }
    }
}

/// Sums every process's counters.
pub fn snapshot() -> Snapshot {
    sum(&table().slots)
}

fn sum(slots: &[CachePadded<Slot>]) -> Snapshot {
    let mut s = Snapshot::default();
    for slot in slots {
        s.pwb += slot.pwb.load(Relaxed);
        s.pbarrier += slot.pbarrier.load(Relaxed);
        s.pbarrier_lines += slot.pbarrier_lines.load(Relaxed);
        s.pfence += slot.pfence.load(Relaxed);
        s.psync += slot.psync.load(Relaxed);
        s.pwb_elided += slot.pwb_elided.load(Relaxed);
        s.lines_coalesced += slot.lines_coalesced.load(Relaxed);
        s.heap_allocs += slot.heap_allocs.load(Relaxed);
        s.free_list_hits += slot.free_list_hits.load(Relaxed);
        s.slab_refills += slot.slab_refills.load(Relaxed);
        s.segments_grown += slot.segments_grown.load(Relaxed);
        s.attach_par_ms += slot.attach_par_ms.load(Relaxed);
        s.peers_recovered += slot.peers_recovered.load(Relaxed);
        s.leases_stolen += slot.leases_stolen.load(Relaxed);
        s.epoch_stalls += slot.epoch_stalls.load(Relaxed);
        s.kv_requests += slot.kv_requests.load(Relaxed);
        s.kv_dedup_hits += slot.kv_dedup_hits.load(Relaxed);
        s.kv_intents_resolved += slot.kv_intents_resolved.load(Relaxed);
    }
    s
}

/// Resets every counter to zero. Only call while no instrumented threads run.
pub fn reset() {
    for slot in &table().slots {
        slot.pwb.store(0, Relaxed);
        slot.pbarrier.store(0, Relaxed);
        slot.pbarrier_lines.store(0, Relaxed);
        slot.pfence.store(0, Relaxed);
        slot.psync.store(0, Relaxed);
        slot.pwb_elided.store(0, Relaxed);
        slot.lines_coalesced.store(0, Relaxed);
        slot.heap_allocs.store(0, Relaxed);
        slot.free_list_hits.store(0, Relaxed);
        slot.slab_refills.store(0, Relaxed);
        slot.segments_grown.store(0, Relaxed);
        slot.attach_par_ms.store(0, Relaxed);
        slot.peers_recovered.store(0, Relaxed);
        slot.leases_stolen.store(0, Relaxed);
        slot.epoch_stalls.store(0, Relaxed);
        slot.kv_requests.store(0, Relaxed);
        slot.kv_dedup_hits.store(0, Relaxed);
        slot.kv_intents_resolved.store(0, Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_diff() {
        tid::set_tid(40);
        let before = Snapshot::of_tid(40);
        count_pwb(2);
        count_pbarrier(3);
        count_pfence();
        count_psync();
        count_psync();
        let d = Snapshot::of_tid(40).since(&before);
        assert_eq!(d.pwb, 2);
        assert_eq!(d.pbarrier, 1);
        assert_eq!(d.pbarrier_lines, 3);
        assert_eq!(d.pfence, 1);
        assert_eq!(d.psync, 2);
    }

    /// Each thread's counts land in its own tid's slot only, and the global
    /// snapshot includes them all (sibling tests may add to it meanwhile,
    /// so the sum is bounded from below).
    #[test]
    fn counters_sum_across_threads() {
        let tids = 41..44;
        let before_all = snapshot();
        let before: Vec<_> = tids.clone().map(Snapshot::of_tid).collect();
        let hs: Vec<_> = tids
            .clone()
            .map(|i| {
                std::thread::spawn(move || {
                    tid::set_tid(i);
                    count_pwb(1);
                    count_pbarrier(1);
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        for (t, b) in tids.zip(&before) {
            let d = Snapshot::of_tid(t).since(b);
            assert_eq!((d.pwb, d.pbarrier), (1, 1), "tid {t}");
        }
        let d = snapshot().since(&before_all);
        assert!(d.pwb >= 3 && d.pbarrier >= 3, "{d:?}");
    }
}
