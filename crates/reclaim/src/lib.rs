//! # `reclaim` — epoch-based memory reclamation (EBR)
//!
//! The paper's implementations "rely on garbage collectors that correctly
//! recycle memory once it becomes unreachable" (Section 7). Rust has no GC,
//! so this crate provides the substrate: a classic three-epoch EBR scheme
//! with per-process (padded) slots, per-process limbo bags and a global
//! epoch.
//!
//! * A thread **pins** ([`Collector::pin`]) before traversing a structure and
//!   holds the [`Guard`] for the duration of one operation attempt. Pins are
//!   re-entrant.
//! * Unreachable objects are **retired** ([`Guard::retire_box`] /
//!   [`Guard::retire_with`]); they are freed only after every thread pinned
//!   at retirement time has unpinned (two global epoch advances).
//! * A [`Collector`] can be created **disabled** ([`Collector::disabled`]):
//!   pins become no-ops and retired objects are kept until the collector is
//!   dropped. This is the defined behaviour of crash-simulation runs — a
//!   crash must not free anything, because recovery code may still inspect
//!   it (recoverable memory managers are future work in the paper, too).
//!
//! ## Epoch regions
//!
//! Every enabled collector reads its global epoch and its per-process
//! *announce* and *depth* words from an epoch region laid out as
//! [`shared_region_bytes`] describes: one cache line for the global epoch,
//! then one line per process slot holding its announce word and a
//! cross-collector pin depth. [`Collector::new`] owns a region of its own, so
//! an in-process structure is its own epoch domain and a stalled thread in
//! one structure never blocks reclamation in another.
//!
//! Every structure of a mapped heap, in every process attached to it, must
//! instead agree on epochs — an address retired through one structure, by
//! one process, may still be read through another structure or by another
//! process. [`Collector::shared`] builds a collector over a caller-provided
//! region of the shared arena, and every collector built over the same
//! region forms one epoch domain. Limbo bags stay process-local: each
//! process frees only what *it* retired, once the shared epoch has advanced
//! past every announced pin — including the announcements of peer
//! processes. A SIGKILLed peer leaves its announce word pinned, which stalls
//! (never corrupts) reclamation until the recovery path calls
//! [`Collector::release_shared_band`] for the dead slot.
//!
//! ## Recycling rules (object pools)
//!
//! [`Guard::retire_ctx`] defers an arbitrary *recycle* action instead of a
//! free: the `isb` object pools use it to route a retired descriptor/node
//! back into a per-thread free list (or, under the mapped backend, back to
//! the persistent arena). The contract is exactly that of a free — the
//! action runs only after two global epoch advances, so an address re-enters
//! circulation no earlier than deallocation would have allowed, and the
//! ABA argument for tagged info pointers carries over unchanged. Only
//! *enabled* collectors accept `retire_ctx`; disabled (crash-sim) collectors
//! park plain frees so [`Collector::take_parked`] can deduplicate them
//! against the post-crash reachable set.

#![warn(missing_docs)]

use nvm::pad::CachePadded;
use nvm::tid;
use nvm::MAX_PROCS;
use std::cell::UnsafeCell;
use std::sync::atomic::AtomicU64;
use std::sync::atomic::Ordering::{Relaxed, SeqCst};
use std::sync::Mutex;

/// A deferred deallocation handed back by [`Collector::take_parked`]: the
/// raw allocation plus the function that frees it (exactly once).
pub type DeferredFree = (*mut u8, unsafe fn(*mut u8));

/// A deferred reclamation action: either a plain deallocation or a
/// context-carrying recycle hook ([`Guard::retire_ctx`] — object pools route
/// retirement back into their free lists through this).
enum Garbage {
    Plain { ptr: *mut u8, drop_fn: unsafe fn(*mut u8) },
    Ctx { ptr: *mut u8, ctx: *mut u8, drop_fn: unsafe fn(*mut u8, *mut u8) },
}

unsafe impl Send for Garbage {}

impl Garbage {
    unsafe fn free(self) {
        match self {
            Garbage::Plain { ptr, drop_fn } => unsafe { drop_fn(ptr) },
            Garbage::Ctx { ptr, ctx, drop_fn } => unsafe { drop_fn(ptr, ctx) },
        }
    }
}

unsafe fn drop_box<T>(p: *mut u8) {
    drop(unsafe { Box::from_raw(p as *mut T) });
}

const UNPINNED: u64 = 0;
const GENS: usize = 3;
/// How many pins between attempts to advance the global epoch.
const ADVANCE_PERIOD: u64 = 64;

/// Bytes an epoch region occupies: one cache line for the global epoch plus
/// one per process slot (announce word at offset 0, cross-collector pin
/// depth at offset 8). See the crate docs.
pub const fn shared_region_bytes() -> usize {
    (1 + MAX_PROCS) * nvm::CACHE_LINE
}

/// One cache line of an epoch region a collector owns ([`Collector::new`]).
#[repr(C, align(64))]
#[derive(Default)]
struct Line([AtomicU64; 8]);

const _: () = assert!(std::mem::size_of::<Line>() == nvm::CACHE_LINE);

/// Pointer to an epoch region (layout: [`shared_region_bytes`]).
struct Region(*mut u8);

impl Region {
    /// Word `off` of line `line`.
    #[inline]
    fn word(&self, line: usize, off: usize) -> &AtomicU64 {
        // SAFETY: `self.0` points to `shared_region_bytes()` valid, 8-aligned
        // bytes outliving the borrow (`Collector::new` owns them;
        // `Collector::shared`'s contract), and `line <= MAX_PROCS` (tid() is
        // bounded).
        unsafe { &*(self.0.add(line * nvm::CACHE_LINE + off) as *const AtomicU64) }
    }

    #[inline]
    fn global(&self) -> &AtomicU64 {
        self.word(0, 0)
    }

    #[inline]
    fn announce(&self, pid: usize) -> &AtomicU64 {
        self.word(1 + pid, 0)
    }

    /// Cross-collector pin depth for `pid` — read and written only by the
    /// thread registered under `pid` (and by recovery once that thread's
    /// process is dead), so every access is `Relaxed`: no other thread reads
    /// it, and the announce word beside it carries the ordering.
    #[inline]
    fn depth(&self, pid: usize) -> &AtomicU64 {
        self.word(1 + pid, 8)
    }
}

/// Thread-private reclamation state (owned exclusively by the slot's thread).
struct Bags {
    depth: u32,
    pins: u64,
    bags: [Vec<Garbage>; GENS],
    bag_epochs: [u64; GENS],
}

impl Default for Bags {
    fn default() -> Self {
        Self { depth: 0, pins: 0, bags: Default::default(), bag_epochs: [u64::MAX; GENS] }
    }
}

/// An epoch-based garbage collector (see crate docs).
pub struct Collector {
    /// The epoch region: the global epoch, then each process slot's announce
    /// and depth words.
    region: Region,
    /// The region's memory when this collector owns it ([`Collector::new`]);
    /// empty over a caller's region ([`Collector::shared`]). A `Vec`, whose
    /// pointer stays valid while the collector moves.
    _owned: Vec<Line>,
    /// Per-process limbo bags, each touched only by its slot's thread.
    slots: Vec<CachePadded<UnsafeCell<Bags>>>,
    enabled: bool,
    /// The owner's word for this collector ([`Collector::set_tag`]).
    tag: usize,
    /// Retired-but-never-freed garbage in disabled mode (freed on drop).
    parked: Mutex<Vec<Garbage>>,
}

// SAFETY: `region` names atomics only, in memory `_owned` holds or the
// `shared` contract keeps alive; each slot's bags are touched only by the
// thread registered under that slot (or under `&mut self`); `parked` is a
// mutex; retired pointers are handed over with the ownership their
// `retire_*` contract transfers.
unsafe impl Send for Collector {}
unsafe impl Sync for Collector {}

impl Default for Collector {
    fn default() -> Self {
        Self::new()
    }
}

impl Collector {
    /// A collector that actually reclaims memory, in an epoch region of its
    /// own.
    pub fn new() -> Self {
        Self::owning(true)
    }

    /// A collector whose `retire`s are parked until drop (crash-sim mode).
    pub fn disabled() -> Self {
        Self::owning(false)
    }

    fn owning(enabled: bool) -> Self {
        let owned: Vec<Line> = (0..=MAX_PROCS).map(|_| Line::default()).collect();
        let base = owned.as_ptr() as *mut u8;
        // SAFETY: `shared_region_bytes()` fresh, line-aligned bytes the
        // collector keeps alive; every word is an atomic.
        unsafe { Self::init_shared_region(base) };
        Self::over(Region(base), owned, enabled)
    }

    /// A collector over a shared epoch region (typically a mapped heap's
    /// root block): every collector built over the same region — across
    /// structures *and* processes — is in one epoch domain.
    ///
    /// Limbo bags stay process-local: objects retired through this collector
    /// are freed by this process once the shared epoch advances two steps,
    /// which requires every live participant to unpin. On drop a collector
    /// tries to advance the epoch twice and frees what is then ripe; over a
    /// shared region it **leaks** the rest instead of freeing it — a pinned
    /// peer may still be reading it, and the blocks live in the persistent
    /// arena anyway; the sweep of the next full attach reclaims them.
    ///
    /// Within one process, several collectors (one per structure) may share
    /// the region. They share one announce word per process slot; a
    /// per-slot depth word makes the announcement re-entrant across
    /// collectors, so interleaved guards from different structures cannot
    /// clear each other's pin.
    ///
    /// # Safety
    /// `region` must point to [`shared_region_bytes`] bytes of 8-aligned
    /// memory shared by all participants, initialised exactly once via
    /// [`Collector::init_shared_region`], and outliving this collector. All
    /// participants must agree on [`MAX_PROCS`] and process slot assignment.
    pub unsafe fn shared(region: *mut u8) -> Self {
        Self::over(Region(region), Vec::new(), true)
    }

    fn over(region: Region, owned: Vec<Line>, enabled: bool) -> Self {
        Self {
            region,
            _owned: owned,
            slots: (0..MAX_PROCS).map(|_| CachePadded::default()).collect(),
            enabled,
            tag: 0,
            parked: Mutex::new(Vec::new()),
        }
    }

    /// Whether this collector actually frees memory.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Sets an opaque word every guard reports ([`Guard::tag`]; 0 unset):
    /// the address of the descriptor pools of the owning environment.
    pub fn set_tag(&mut self, tag: usize) {
        self.tag = tag;
    }

    /// Zeroes an epoch region and seeds the global epoch to 1. The *initial*
    /// attacher of a mapped heap calls this exactly once, before any
    /// collector is built over it; joiners must not (a live region holds
    /// peers' pins).
    ///
    /// # Safety
    /// `region` must point to [`shared_region_bytes`] writable, 8-aligned
    /// bytes not currently in use by any collector.
    pub unsafe fn init_shared_region(region: *mut u8) {
        unsafe { std::ptr::write_bytes(region, 0, shared_region_bytes()) };
        Region(region).global().store(1, SeqCst);
    }

    /// Releases the announce words of the process slots in `band` — the
    /// recovery path calls this for a dead participant's tid band, so an
    /// epoch pinned at the moment of death stops wedging reclamation.
    /// Returns how many words were actually found pinned (each was stalling
    /// global advance).
    ///
    /// # Safety
    /// `region` must be a live shared epoch region and every slot in `band`
    /// must belong to a dead (or never-started) process: releasing a live
    /// process's pin would expose it to use-after-free.
    pub unsafe fn release_shared_band(region: *mut u8, band: std::ops::Range<usize>) -> usize {
        let r = Region(region);
        let mut stalled = 0;
        for pid in band {
            if r.announce(pid).swap(UNPINNED, SeqCst) != UNPINNED {
                stalled += 1;
            }
            r.depth(pid).store(0, Relaxed);
        }
        stalled
    }

    /// Pins the calling thread; reclamation of anything retired afterwards
    /// is deferred until the returned guard (and any nested guards) drop.
    ///
    /// Nested pins take a fast path: a thread already pinned only bumps its
    /// re-entrancy depth — no epoch-table traffic. Data structures exploit
    /// this by holding **one** guard per operation and letting interior
    /// helpers (`op_recover`, recursive helping) re-pin for free.
    #[inline]
    pub fn pin(&self) -> Guard<'_> {
        let pid = tid::tid();
        if !self.enabled {
            return Guard { c: self, pid, active: false };
        }
        // SAFETY: `bags` is only touched by the thread owning slot `pid`.
        let bags = unsafe { &mut *self.slots[pid].get() };
        bags.depth += 1;
        if bags.depth == 1 {
            self.pin_outermost(pid, bags);
        }
        Guard { c: self, pid, active: true }
    }

    /// The outermost-pin slow path: announce an epoch, free ripe bags, and
    /// periodically try to advance the global epoch.
    fn pin_outermost(&self, pid: usize, bags: &mut Bags) {
        // Collectors over one region share one announce word per process
        // slot. Only the first outermost pin across all of them announces;
        // later ones adopt the already-announced epoch (older or equal —
        // strictly more conservative for `collect`). The depth word is the
        // owning thread's alone, so a relaxed load/store pair is race-free
        // and orders nothing it needs.
        let (announce, depth) = (self.region.announce(pid), self.region.depth(pid));
        let d = depth.load(Relaxed);
        depth.store(d + 1, Relaxed);
        let epoch = if d == 0 { self.announce(announce) } else { announce.load(SeqCst) >> 1 };
        bags.pins += 1;
        self.collect(bags, epoch);
        if bags.pins.is_multiple_of(ADVANCE_PERIOD) {
            self.try_advance(epoch);
        }
    }

    /// Announce-and-stabilise: publish a pin at the current global epoch,
    /// re-reading until the announced value is the epoch the global held
    /// *after* the store became visible.
    fn announce(&self, state: &AtomicU64) -> u64 {
        let mut epoch = self.region.global().load(SeqCst);
        loop {
            state.store((epoch << 1) | 1, SeqCst);
            let now = self.region.global().load(SeqCst);
            if now == epoch {
                return epoch;
            }
            epoch = now;
        }
    }

    /// Frees bags at least two epochs old.
    fn collect(&self, bags: &mut Bags, epoch: u64) {
        for i in 0..GENS {
            let e = bags.bag_epochs[i];
            if e != u64::MAX && epoch >= e + 2 && !bags.bags[i].is_empty() {
                for g in bags.bags[i].drain(..) {
                    // SAFETY: retired in epoch e, and every thread pinned at
                    // that time has since unpinned (global advanced by ≥2).
                    unsafe { g.free() };
                }
                bags.bag_epochs[i] = u64::MAX;
            }
        }
    }

    fn try_advance(&self, epoch: u64) {
        for pid in 0..MAX_PROCS {
            let s = self.region.announce(pid).load(SeqCst);
            if s != UNPINNED && (s >> 1) != epoch {
                return;
            }
        }
        let _ = self.region.global().compare_exchange(epoch, epoch + 1, SeqCst, SeqCst);
    }

    fn unpin(&self, pid: usize) {
        // SAFETY: slot owner.
        let bags = unsafe { &mut *self.slots[pid].get() };
        debug_assert!(bags.depth > 0);
        bags.depth -= 1;
        if bags.depth == 0 {
            // Mirror of the pin path: only the last collector of this
            // process to unpin clears the region's announce word.
            let depth = self.region.depth(pid);
            let d = depth.load(Relaxed);
            debug_assert!(d > 0, "unpin without a region pin");
            depth.store(d.saturating_sub(1), Relaxed);
            if d <= 1 {
                self.region.announce(pid).store(UNPINNED, SeqCst);
            }
        }
    }

    fn retire_raw(&self, pid: usize, g: Garbage) {
        if !self.enabled {
            self.parked.lock().unwrap().push(g);
            return;
        }
        // SAFETY: slot owner; retire is only legal while pinned.
        let bags = unsafe { &mut *self.slots[pid].get() };
        debug_assert!(bags.depth > 0, "retire outside of a pin");
        // Seal with the CURRENT global epoch, not the epoch this thread
        // pinned at. The global may have advanced one step during our pin
        // (advancement only waits for threads announcing OLDER epochs), so
        // a reader pinned at `pin_epoch + 1` may have obtained a reference
        // to this object before we unlinked it. Sealing with `pin_epoch`
        // would free at global `pin_epoch + 2` — an advancement that reader
        // does NOT block (it announces `pin_epoch + 1`) — a one-epoch-early
        // use-after-free. Sealing with the epoch loaded here (SeqCst,
        // strictly after the unlink) is airtight: in the SeqCst total order
        // every reader that obtained the pointer before the unlink pinned
        // no later than this load, so it announced at most `e` and blocks
        // advancement beyond `e + 1`, while the bag is freed only once the
        // global reaches `e + 2`. The same argument carries to shared
        // regions verbatim: announce words and the global live in memory
        // with SeqCst semantics regardless of which process wrote them.
        let e = self.region.global().load(SeqCst);
        let idx = (e % GENS as u64) as usize;
        if bags.bag_epochs[idx] != e {
            // The slot cycled to a new epoch: its old content is ≥3 epochs old.
            for old in bags.bags[idx].drain(..) {
                unsafe { old.free() };
            }
            bags.bag_epochs[idx] = e;
        }
        bags.bags[idx].push(g);
    }

    /// Takes ownership of all *parked* garbage (disabled mode). Used by
    /// structure teardown after a simulated crash: the crash image may have
    /// rolled pointers back, resurrecting reachability to retired objects,
    /// so the structure must free the union of {reachable} ∪ {parked}
    /// deduplicated by address rather than let both sides free separately.
    ///
    /// Returns `(address, drop_fn)` pairs; the caller becomes responsible
    /// for freeing each address exactly once. (`&self`: the teardown runs
    /// beside a shared borrow of the structure it walks.)
    pub fn take_parked(&self) -> Vec<DeferredFree> {
        self.parked
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .drain(..)
            .map(|g| match g {
                Garbage::Plain { ptr, drop_fn } => (ptr, drop_fn),
                // retire_ctx asserts the collector is enabled, so parked
                // garbage is always plain.
                Garbage::Ctx { .. } => unreachable!("ctx retire parked on a disabled collector"),
            })
            .collect()
    }

    /// Number of objects currently awaiting reclamation (diagnostics only;
    /// racy when other threads are active).
    pub fn pending(&self) -> usize {
        let parked = self.parked.lock().unwrap().len();
        let mut n = parked;
        for slot in &self.slots {
            let bags = unsafe { &*slot.get() };
            n += bags.bags.iter().map(Vec::len).sum::<usize>();
        }
        n
    }
}

impl Drop for Collector {
    fn drop(&mut self) {
        // Free what two epoch advances ripen — every bag when nobody is
        // pinned, which is always so in an owned region (every guard borrows
        // this collector) — and LEAK the rest instead of force-freeing: a
        // peer pinned in a shared region may still read it, and the objects
        // are arena blocks the sweep of the next full attach reclaims.
        (0..2).for_each(|_| self.try_advance(self.region.global().load(SeqCst)));
        let epoch = self.region.global().load(SeqCst);
        for slot in &self.slots {
            // SAFETY: `&mut self` — no thread holds any slot's bags.
            self.collect(unsafe { &mut *slot.get() }, epoch);
        }
        for g in self.parked.get_mut().unwrap().drain(..) {
            unsafe { g.free() };
        }
    }
}

/// RAII pin token; see [`Collector::pin`].
pub struct Guard<'c> {
    c: &'c Collector,
    pid: usize,
    active: bool,
}

impl Guard<'_> {
    /// The word the collector's owner set ([`Collector::set_tag`]).
    #[inline]
    pub fn tag(&self) -> usize {
        self.c.tag
    }

    /// Defers deallocation of `ptr` (a `Box::into_raw` allocation) until no
    /// pinned thread can still hold a reference.
    ///
    /// # Safety
    /// `ptr` must be a valid `Box<T>` allocation, unreachable to any thread
    /// that pins after this call, and retired exactly once.
    pub unsafe fn retire_box<T>(&self, ptr: *mut T) {
        self.c.retire_raw(self.pid, Garbage::Plain { ptr: ptr as *mut u8, drop_fn: drop_box::<T> });
    }

    /// Defers an arbitrary reclamation action (same contract as
    /// [`Guard::retire_box`]; `drop_fn` runs on the retiring thread later).
    ///
    /// # Safety
    /// See [`Guard::retire_box`]; additionally `drop_fn(ptr)` must be safe to
    /// call once `ptr` is unreachable.
    pub unsafe fn retire_with(&self, ptr: *mut u8, drop_fn: unsafe fn(*mut u8)) {
        self.c.retire_raw(self.pid, Garbage::Plain { ptr, drop_fn });
    }

    /// Defers a reclamation action that carries a context pointer —
    /// `drop_fn(ptr, ctx)` runs once no pinned thread can still reference
    /// `ptr` (two global epoch advances, like [`Guard::retire_box`]). Object
    /// pools use this to route retirement back into a free list instead of
    /// the allocator: the epoch delay is exactly what makes address reuse
    /// safe under the same argument as deallocation.
    ///
    /// Only legal on an enabled collector: parked (crash-sim) garbage must
    /// stay expressible as plain frees for [`Collector::take_parked`].
    ///
    /// # Safety
    /// See [`Guard::retire_box`]; additionally `ctx` must stay valid until
    /// the collector is dropped, and `drop_fn(ptr, ctx)` must be safe to
    /// call once `ptr` is unreachable.
    pub unsafe fn retire_ctx(
        &self,
        ptr: *mut u8,
        ctx: *mut u8,
        drop_fn: unsafe fn(*mut u8, *mut u8),
    ) {
        assert!(self.c.enabled, "retire_ctx on a disabled collector");
        self.c.retire_raw(self.pid, Garbage::Ctx { ptr, ctx, drop_fn });
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if self.active {
            self.c.unpin(self.pid);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
    use std::sync::Arc;

    struct Tracked(Arc<AtomicUsize>);
    impl Drop for Tracked {
        fn drop(&mut self) {
            self.0.fetch_add(1, Relaxed);
        }
    }

    fn churn(c: &Collector, rounds: usize, drops: &Arc<AtomicUsize>) {
        for _ in 0..rounds {
            let g = c.pin();
            let p = Box::into_raw(Box::new(Tracked(Arc::clone(drops))));
            unsafe { g.retire_box(p) };
        }
    }

    #[test]
    fn retired_objects_eventually_free() {
        tid::set_tid(0);
        let drops = Arc::new(AtomicUsize::new(0));
        let c = Collector::new();
        churn(&c, 1000, &drops);
        drop(c);
        assert_eq!(drops.load(Relaxed), 1000);
    }

    #[test]
    fn progress_frees_before_drop() {
        tid::set_tid(0);
        let drops = Arc::new(AtomicUsize::new(0));
        let c = Collector::new();
        churn(&c, 10_000, &drops);
        // Single thread, epoch advances every ADVANCE_PERIOD pins: almost
        // everything must already be free before collector drop.
        assert!(drops.load(Relaxed) > 9_000, "only {} freed", drops.load(Relaxed));
        drop(c);
        assert_eq!(drops.load(Relaxed), 10_000);
    }

    #[test]
    fn disabled_collector_parks_until_drop() {
        tid::set_tid(0);
        let drops = Arc::new(AtomicUsize::new(0));
        let c = Collector::disabled();
        churn(&c, 100, &drops);
        assert_eq!(drops.load(Relaxed), 0);
        assert_eq!(c.pending(), 100);
        drop(c);
        assert_eq!(drops.load(Relaxed), 100);
    }

    #[test]
    fn nested_pins_are_reentrant() {
        tid::set_tid(0);
        let drops = Arc::new(AtomicUsize::new(0));
        let c = Collector::new();
        let g1 = c.pin();
        let g2 = c.pin();
        let p = Box::into_raw(Box::new(Tracked(Arc::clone(&drops))));
        unsafe { g2.retire_box(p) };
        drop(g2);
        drop(g1);
        churn(&c, 500, &drops); // force epochs forward; must not double-free
        drop(c);
        assert_eq!(drops.load(Relaxed), 501);
    }

    #[test]
    fn pinned_reader_blocks_reclamation() {
        let freed = Arc::new(AtomicUsize::new(0));
        let c = Arc::new(Collector::new());

        struct Flag(Arc<AtomicUsize>);
        impl Drop for Flag {
            fn drop(&mut self) {
                self.0.fetch_add(1, Relaxed);
            }
        }

        // Reader thread: pins and holds.
        let c2 = Arc::clone(&c);
        let hold = Arc::new(AtomicUsize::new(0));
        let hold2 = Arc::clone(&hold);
        let reader = std::thread::spawn(move || {
            tid::set_tid(1);
            let g = c2.pin();
            hold2.store(1, Relaxed);
            while hold2.load(Relaxed) != 2 {
                std::hint::spin_loop();
            }
            drop(g);
        });
        while hold.load(Relaxed) != 1 {
            std::hint::spin_loop();
        }

        // Writer: retire an object *after* the reader pinned, then churn.
        let c3 = Arc::clone(&c);
        let freed2 = Arc::clone(&freed);
        let writer = std::thread::spawn(move || {
            tid::set_tid(2);
            {
                let g = c3.pin();
                let p = Box::into_raw(Box::new(Flag(freed2)));
                unsafe { g.retire_box(p) };
            }
            for _ in 0..1000 {
                drop(c3.pin());
            }
        });
        writer.join().unwrap();
        assert_eq!(freed.load(Relaxed), 0, "freed while a pre-retirement reader is pinned");

        hold.store(2, Relaxed);
        reader.join().unwrap();
        // Churn on the retiring slot until the flag is freed.
        for _ in 0..10 {
            std::thread::spawn({
                let c = Arc::clone(&c);
                move || {
                    tid::set_tid(2);
                    for _ in 0..1000 {
                        drop(c.pin());
                    }
                }
            })
            .join()
            .unwrap();
            if freed.load(Relaxed) == 1 {
                break;
            }
        }
        assert_eq!(freed.load(Relaxed), 1, "object never freed after reader unpinned");
    }

    #[test]
    fn retire_ctx_runs_with_context_after_epochs() {
        tid::set_tid(0);
        let c = Collector::new();
        let sink: Box<Mutex<Vec<usize>>> = Box::new(Mutex::new(Vec::new()));
        unsafe fn collect_into(p: *mut u8, ctx: *mut u8) {
            let sink = unsafe { &*(ctx as *const Mutex<Vec<usize>>) };
            sink.lock().unwrap().push(p as usize);
            drop(unsafe { Box::from_raw(p as *mut u64) });
        }
        let p = Box::into_raw(Box::new(7u64));
        {
            let g = c.pin();
            unsafe { g.retire_ctx(p as *mut u8, &*sink as *const _ as *mut u8, collect_into) };
        }
        // Not freed while the current epoch set could still reference it.
        assert_eq!(c.pending(), 1);
        for _ in 0..500 {
            drop(c.pin());
        }
        drop(c);
        assert_eq!(sink.lock().unwrap().as_slice(), &[p as usize]);
    }

    #[test]
    #[should_panic(expected = "retire_ctx on a disabled collector")]
    fn retire_ctx_rejects_disabled_collectors() {
        unsafe fn nop(_p: *mut u8, _ctx: *mut u8) {}
        tid::set_tid(0);
        let c = Collector::disabled();
        let g = c.pin();
        let p = Box::into_raw(Box::new(1u64));
        unsafe { g.retire_ctx(p as *mut u8, std::ptr::null_mut(), nop) };
        drop(unsafe { Box::from_raw(p) }); // unreachable; keeps miri-style hygiene
    }

    /// An 8-aligned scratch buffer standing in for a mapped-heap root block.
    fn scratch_region() -> Vec<u64> {
        vec![0u64; shared_region_bytes() / 8]
    }

    #[test]
    fn shared_announce_is_reentrant_across_collectors() {
        tid::set_tid(0);
        let mut region = scratch_region();
        let base = region.as_mut_ptr() as *mut u8;
        unsafe { Collector::init_shared_region(base) };
        let (a, b) = unsafe { (Collector::shared(base), Collector::shared(base)) };

        // Announce word of process slot 0 (line 1 of the region).
        let announce0 =
            || unsafe { &*(base.add(nvm::CACHE_LINE) as *const AtomicU64) }.load(SeqCst);
        let ga = a.pin();
        assert_ne!(announce0(), UNPINNED, "pin must announce");
        let gb = b.pin();
        drop(gb);
        // The interleaved guard from the *other* structure must not clear
        // this process's announcement while `ga` is still live.
        assert_ne!(announce0(), UNPINNED, "cross-collector unpin cleared a live pin");
        drop(ga);
        assert_eq!(announce0(), UNPINNED);
        drop(a);
        drop(b);
    }

    #[test]
    fn shared_collectors_form_one_epoch_domain() {
        tid::set_tid(0);
        let mut region = scratch_region();
        let base = region.as_mut_ptr() as *mut u8;
        unsafe { Collector::init_shared_region(base) };
        let drops = Arc::new(AtomicUsize::new(0));
        let (a, b) = unsafe { (Collector::shared(base), Collector::shared(base)) };

        {
            let g = a.pin();
            let p = Box::into_raw(Box::new(Tracked(Arc::clone(&drops))));
            unsafe { g.retire_box(p) };
        }
        // Churn on B advances the SHARED global epoch...
        for _ in 0..500 {
            drop(b.pin());
        }
        // ...so a couple of pins on A suffice to collect A's ripe bag.
        for _ in 0..4 {
            drop(a.pin());
        }
        assert_eq!(drops.load(Relaxed), 1, "peer-collector churn did not ripen the bag");
        drop(a);
        drop(b);
    }

    /// A shared collector's drop frees a bag only once no pin protects it:
    /// with a peer pinned it leaks the bag, with nobody pinned it frees it.
    #[test]
    fn shared_drop_leaks_deferred_garbage() {
        tid::set_tid(0);
        let mut region = scratch_region();
        let base = region.as_mut_ptr() as *mut u8;
        unsafe { Collector::init_shared_region(base) };
        let drops = Arc::new(AtomicUsize::new(0));
        let retire_and_drop = || {
            let c = unsafe { Collector::shared(base) };
            {
                let g = c.pin();
                let p = Box::into_raw(Box::new(Tracked(Arc::clone(&drops))));
                unsafe { g.retire_box(p) };
            }
            drop(c);
        };
        // A peer pinned on tid 1 blocks the second advance.
        let peer = unsafe { Collector::shared(base) };
        tid::set_tid(1);
        let pin = peer.pin();
        tid::set_tid(0);
        retire_and_drop();
        // Intentional leak: the peer may be reading it; the next full attach
        // sweeps. (The test leaks one heap Box — bounded and deliberate.)
        assert_eq!(drops.load(Relaxed), 0, "shared drop must not force-free");
        tid::set_tid(1);
        drop(pin);
        tid::set_tid(0);
        retire_and_drop();
        assert_eq!(drops.load(Relaxed), 1, "nobody pinned: the drop frees the ripe bag");
        drop(peer);
    }

    #[test]
    fn release_shared_band_clears_dead_pins_and_counts_stalls() {
        let mut region = scratch_region();
        let base = region.as_mut_ptr() as *mut u8;
        unsafe { Collector::init_shared_region(base) };
        let base_addr = base as usize;
        let drops = Arc::new(AtomicUsize::new(0));

        // A "dead peer": pins on slot 5 and never unpins (guard forgotten —
        // exactly what a SIGKILL mid-operation leaves behind).
        {
            let dead = unsafe { Collector::shared(base) };
            std::thread::spawn(move || {
                tid::set_tid(5);
                std::mem::forget(dead.pin());
                dead
            })
            .join()
            .map(drop) // shared drop: leaks bags, leaves the announce pinned
            .unwrap();
        }

        // A survivor retires an object; churn cannot ripen it because the
        // dead peer's announce wedges the global epoch.
        std::thread::spawn({
            let drops = Arc::clone(&drops);
            move || {
                tid::set_tid(0);
                let base = base_addr as *mut u8;
                let s = unsafe { Collector::shared(base) };
                {
                    let g = s.pin();
                    let p = Box::into_raw(Box::new(Tracked(Arc::clone(&drops))));
                    unsafe { g.retire_box(p) };
                }
                for _ in 0..500 {
                    drop(s.pin());
                }
                assert_eq!(drops.load(Relaxed), 0, "advanced past a pinned dead peer");
                // Recovery releases the dead band: exactly one stall cleared,
                // and a second release is a no-op.
                assert_eq!(unsafe { Collector::release_shared_band(base, 5..6) }, 1);
                assert_eq!(unsafe { Collector::release_shared_band(base, 5..6) }, 0);
                for _ in 0..500 {
                    drop(s.pin());
                }
                assert_eq!(drops.load(Relaxed), 1, "release did not unwedge reclamation");
            }
        })
        .join()
        .unwrap();
        drop(region); // outlived every collector above
    }

    /// Two owned collectors are two epoch domains: a guard held on A does not
    /// stop B from freeing what it retired (a region wrongly shared between
    /// them would wedge B's epoch behind A's pin).
    #[test]
    fn in_process_collectors_stay_separate_domains() {
        let drops = Arc::new(AtomicUsize::new(0));
        let (a, b) = (Collector::new(), Collector::new());
        tid::set_tid(1);
        let held = a.pin();
        tid::set_tid(0);
        churn(&b, 1000, &drops);
        // Single-threaded and deterministic: B's own advances ripen all but
        // its last few bags; in one domain with A it would free nothing.
        assert!(drops.load(Relaxed) > 500, "A's pin held back B: {} freed", drops.load(Relaxed));
        tid::set_tid(1);
        drop(held);
        tid::set_tid(0);
        drop(b);
        assert_eq!(drops.load(Relaxed), 1000);
        drop(a);
    }

    #[test]
    fn concurrent_churn_is_sound() {
        let c = Arc::new(Collector::new());
        let drops = Arc::new(AtomicUsize::new(0));
        let total: usize = 4 * 2000;
        let hs: Vec<_> = (0..4)
            .map(|i| {
                let c = Arc::clone(&c);
                let drops = Arc::clone(&drops);
                std::thread::spawn(move || {
                    tid::set_tid(10 + i);
                    churn(&c, 2000, &drops);
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        drop(c);
        assert_eq!(drops.load(Relaxed), total);
    }
}
