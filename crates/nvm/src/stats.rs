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

/// Declares the counters — once. Each entry is a [`Slot`] field (the atomic)
/// and the [`Snapshot`] field of the same name and meaning; `since`, the sum
/// behind [`snapshot`] / [`Snapshot::of_tid`] and [`reset`] visit every entry,
/// so a counter cannot exist in one and read zero in another. `name: count_fn`
/// also generates the recording function `count_fn(n)`.
macro_rules! counters {
    ($($(#[doc = $doc:literal])+ $name:ident $(: $count:ident)?,)+) => {
        /// One process's counters.
        #[derive(Debug, Default)]
        pub struct Slot {
            $($(#[doc = $doc])+ pub $name: AtomicU64,)+
        }

        /// Aggregated snapshot of all per-process counters.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct Snapshot {
            $($(#[doc = $doc])+ pub $name: u64,)+
        }

        impl Snapshot {
            /// Component-wise difference (`self - earlier`), saturating at zero.
            pub fn since(&self, earlier: &Snapshot) -> Snapshot {
                Snapshot { $($name: self.$name.saturating_sub(earlier.$name),)+ }
            }
        }

        fn sum(slots: &[CachePadded<Slot>]) -> Snapshot {
            let mut s = Snapshot::default();
            for slot in slots {
                $(s.$name += slot.$name.load(Relaxed);)+
            }
            s
        }

        fn reset_slots(slots: &[CachePadded<Slot>]) {
            for slot in slots {
                $(slot.$name.store(0, Relaxed);)+
            }
        }

        $($(
            #[doc = concat!("Adds `n` to this process's [`Snapshot::", stringify!($name), "`].")]
            #[inline]
            pub fn $count(n: u64) {
                my_slot().$name.fetch_add(n, Relaxed);
            }
        )?)+

        /// Every counter: its name and its two accessors.
        #[cfg(test)]
        #[allow(clippy::type_complexity)]
        const FIELDS: &[(&str, fn(&Slot) -> &AtomicU64, fn(&Snapshot) -> u64)] =
            &[$((stringify!($name), |s| &s.$name, |s| s.$name),)+];
    };
}

counters! {
    /// Stand-alone `pwb` calls (one per word/line flushed outside barriers).
    pwb: count_pwb,
    /// `pbarrier` calls (each = flush(es) + fence).
    pbarrier,
    /// Cache lines flushed *inside* barriers (≥ pbarrier when flushing multi-line objects).
    pbarrier_lines,
    /// `pfence` calls.
    pfence,
    /// `psync` calls.
    psync,
    /// Coalesced `pwb`s elided as duplicates of an already-pending line
    /// (see [`crate::coalesce`]); these issued no write-back and are *not*
    /// included in `pwb`.
    pwb_elided: count_pwb_elided,
    /// Lines written back by fence-time drains of the coalescing set. Each
    /// was already counted in `pwb` when noted; this tracks how much traffic
    /// went through the deferred path.
    lines_coalesced: count_lines_coalesced,
    /// Persistent-heap block allocations ([`crate::MappedHeap::alloc`]).
    heap_allocs: count_heap_allocs,
    /// Heap allocations served from a free list (per-thread cache, global
    /// stack, or cold map) rather than the bump cursor.
    free_list_hits: count_free_list_hits,
    /// Slab carves: bump-cursor reservations that carved a slab of blocks
    /// for a per-thread cache.
    slab_refills: count_slab_refills,
    /// Heap segments added by growth past the initial mapping.
    segments_grown: count_segments_grown,
    /// Milliseconds spent in the parallel phases of attach (validate walk,
    /// census). Wall-clock, summed across attaches.
    attach_par_ms: count_attach_par_ms,
    /// Dead participants of a shared heap recovered online by this process
    /// (per-pid replay completed and the registry slot reclaimed).
    peers_recovered: count_peers_recovered,
    /// Recovery leases taken over from a recoverer that itself died
    /// mid-recovery (lease CAS supersession).
    leases_stolen: count_leases_stolen,
    /// Pinned epoch announcements of dead participants released by the
    /// recovery path — each one was wedging cross-process reclamation.
    epoch_stalls: count_epoch_stalls,
    /// KV-service requests applied to a structure (excludes dedup replays).
    kv_requests: count_kv_requests,
    /// KV-service retries answered from the durable response table without
    /// re-applying the operation (the client-visible exactly-once path).
    kv_dedup_hits: count_kv_dedup_hits,
    /// KV-service in-flight intents resolved by attach or peer recovery
    /// (each was a request interrupted by a crash and decided
    /// Completed-with-response or Restart).
    kv_intents_resolved: count_kv_intents_resolved,
    /// Structure nodes constructed (a heap or arena refill, or a bare `Box`).
    node_allocs: count_node_allocs,
    /// Structure nodes dropped; `node_allocs - node_frees` is the live count.
    node_frees: count_node_frees,
    /// Node draws served from a pool free list instead of a refill.
    node_reuses: count_node_reuses,
    /// Info descriptors constructed.
    info_allocs: count_info_allocs,
    /// Info descriptors dropped.
    info_frees: count_info_frees,
    /// Descriptor draws served from a pool free list instead of a refill.
    info_reuses: count_info_reuses,
}

fn table() -> &'static [CachePadded<Slot>] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<Vec<CachePadded<Slot>>> = OnceLock::new();
    TABLE.get_or_init(|| (0..MAX_PROCS).map(|_| CachePadded::new(Slot::default())).collect())
}

#[inline]
fn my_slot() -> &'static Slot {
    &table()[tid::try_tid().unwrap_or(0)]
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

impl Snapshot {
    /// Process `t`'s counters alone. A test that owns tid `t` diffs two of
    /// these to read exactly its own traffic, whatever sibling threads
    /// count meanwhile; [`snapshot`] is the sum over every tid.
    ///
    /// # Panics
    /// If `t >= MAX_PROCS`.
    pub fn of_tid(t: usize) -> Snapshot {
        sum(&table()[t..=t])
    }
}

/// Sums every process's counters.
pub fn snapshot() -> Snapshot {
    sum(table())
}

/// Resets every counter to zero. Only call while no instrumented threads run.
pub fn reset() {
    reset_slots(table());
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

    /// Every counter reaches `Snapshot`, `since` and `reset`. (`reset` is
    /// checked on a table of its own: the global one belongs to whatever
    /// sibling tests are counting right now.)
    #[test]
    fn every_counter_is_recorded_diffed_and_reset() {
        tid::set_tid(45);
        let before = Snapshot::of_tid(45);
        count_pwb(1);
        count_pbarrier(1);
        count_pfence();
        count_psync();
        count_pwb_elided(1);
        count_lines_coalesced(1);
        count_heap_allocs(1);
        count_free_list_hits(1);
        count_slab_refills(1);
        count_segments_grown(1);
        count_attach_par_ms(1);
        count_peers_recovered(1);
        count_leases_stolen(1);
        count_epoch_stalls(1);
        count_kv_requests(1);
        count_kv_dedup_hits(1);
        count_kv_intents_resolved(1);
        count_node_allocs(1);
        count_node_frees(1);
        count_node_reuses(1);
        count_info_allocs(1);
        count_info_frees(1);
        count_info_reuses(1);
        let d = Snapshot::of_tid(45).since(&before);
        for (name, _, read) in FIELDS {
            assert_eq!(read(&d), 1, "{name} bumped once");
        }

        let slots: Vec<CachePadded<Slot>> = (0..2).map(|_| Default::default()).collect();
        for (i, (_, cell, _)) in FIELDS.iter().enumerate() {
            cell(&slots[0]).store(100 + i as u64, Relaxed);
            cell(&slots[1]).store(1000, Relaxed);
        }
        let (total, earlier) = (sum(&slots), sum(&slots[..1]));
        for (i, (name, _, read)) in FIELDS.iter().enumerate() {
            assert_eq!(read(&total), 1100 + i as u64, "{name} summed over slots");
            assert_eq!(read(&total.since(&earlier)), 1000, "{name} diffed");
            assert_eq!(read(&earlier.since(&total)), 0, "{name} saturates");
        }
        reset_slots(&slots);
        for (name, cell, _) in FIELDS {
            assert_eq!(cell(&slots[0]).load(Relaxed) + cell(&slots[1]).load(Relaxed), 0, "{name}");
        }
        assert_eq!(sum(&slots), Snapshot::default());
    }
}
