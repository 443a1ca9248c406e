//! Per-thread, epoch-recycled object pools for Info descriptors and nodes.
//!
//! The paper assumes a garbage collector, so its pseudocode allocates a fresh
//! Info per attempt and fresh nodes per operation. A faithful port pays
//! malloc/free on every hot-path operation — measurably more than the CASes
//! and pwbs the paper studies. This module removes that churn without
//! touching the persistency placement:
//!
//! * A [`Pool`] keeps one free list of recycled allocations per process
//!   (tid), padded like the reclamation slots; `take`/`give` touch only the
//!   calling thread's list.
//! * Objects are ordinary `Box` allocations, refilled a fixed-size slab
//!   (`SLAB`) at a time, so every teardown path (grave scan, parked-bag
//!   dedup, leak counters) keeps working on individual allocations.
//! * **Retirement routes through the EBR collector**: [`Pool::retire`] defers
//!   a *recycle* (via [`reclaim::Guard::retire_ctx`]) exactly like a free, so
//!   an address re-enters circulation only after two global epoch advances —
//!   the same delay that makes deallocation safe, preserving the
//!   info-pointer ABA argument of DESIGN.md §5 (see §9).
//! * Objects that were **never published** — read-only descriptors, new
//!   nodes of an attempt that failed privately — skip the EBR round-trip and
//!   go straight back to the free list ([`Pool::give`]): no other thread can
//!   hold their address, per the engine's `installs` accounting.
//!
//! A pool is the **only** source of nodes and descriptors: every sentinel a
//! constructor draws and every object an operation publishes comes from
//! [`Pool::take`] / [`Pool::draw`]. Crash simulation (`M::SIMULATED`) and
//! disabled collectors run the pool in **passthrough** mode: every take is a
//! `Box<T::fresh()>` of its own and every give/retire a real (or parked)
//! free, so the adversarial harness and the grave-scan dedup keep seeing
//! stable, unique addresses.
//!
//! **Mapped mode** (a pool built by a mapped [`crate::env::Env`]): refills
//! allocate blocks from a persistent [`nvm::mapped::MappedHeap`] (committed
//! only after full initialization), overflow and teardown return blocks to
//! the arena's persistent free list, and the per-thread caches work
//! unchanged on top. An arena reaches a pool only through
//! [`crate::recovery::AttachEnv::env`], so no volatile structure can draw
//! arena blocks.
//! The EBR retirement path is identical — the epoch delay is what makes
//! *address* reuse safe, regardless of which allocator owns the address.
//! Arena objects never run Rust destructors: persistent objects are plain
//! words with no owned resources.

use nvm::mapped::MappedHeap;
use nvm::pad::CachePadded;
use nvm::tid;
use nvm::MAX_PROCS;
use reclaim::Guard;
use std::cell::UnsafeCell;
use std::sync::Arc;

/// Objects a [`Pool`] can manage.
///
/// # Safety-adjacent contract
/// `fresh()` must produce a fully initialized object that is safe to hand to
/// any consumer after its in-place re-initialization.
pub trait PoolItem: Send + Sized + 'static {
    /// Construct a blank object (heap-refill path). Implementations bump
    /// their heap-allocation counter here.
    fn fresh() -> Self;
    /// Counter hook: the object was served from a free list.
    fn count_reuse() {}
}

/// How many objects a heap refill allocates at once.
const SLAB: usize = 16;

/// Per-process free-list capacity (objects beyond it are freed for real).
/// Bounds live-but-idle memory per process and per object type.
pub const DEFAULT_CAPACITY: usize = 256;

/// The shared pool state. Heap-allocated behind [`Pool`] (reference-counted,
/// so clones of one pool — e.g. a descriptor pool a [`crate::store::Store`]
/// shares across every structure in one heap — all feed the same free
/// lists) so its address is stable across moves of the owning structure
/// (retired garbage holds raw `PoolInner` pointers until the collector
/// frees it; the [`crate::env::Env`] that built the pool keeps the inner
/// alive through its collector's drop-time drain).
pub struct PoolInner<T: PoolItem> {
    /// Per-process free lists; each is touched only by its owning thread
    /// (same discipline as the reclamation slots).
    lists: Vec<CachePadded<UnsafeCell<Vec<*mut T>>>>,
    /// Mapped mode: refills allocate from (and overflow/teardown frees to)
    /// this persistent arena instead of the process heap.
    arena: Option<Arc<MappedHeap>>,
}

unsafe impl<T: PoolItem> Send for PoolInner<T> {}
unsafe impl<T: PoolItem> Sync for PoolInner<T> {}

impl<T: PoolItem> PoolInner<T> {
    /// The calling thread's free list. Threads without a registered tid
    /// (drop-time teardown) use slot 0 — teardown has exclusive access.
    #[allow(clippy::mut_from_ref)] // per-tid exclusivity, as in reclaim::Slot
    fn my_list(&self) -> &mut Vec<*mut T> {
        let t = tid::try_tid().unwrap_or(0);
        unsafe { &mut *self.lists[t].get() }
    }

    /// Push a reusable object, freeing it for real if the list is full.
    ///
    /// # Safety
    /// `p` must be a live allocation from this pool's backing allocator
    /// (heap `Box` or its arena) that no thread can reach.
    unsafe fn recycle(&self, p: *mut T) {
        let list = self.my_list();
        if list.len() < DEFAULT_CAPACITY {
            list.push(p);
        } else {
            unsafe { self.dealloc(p) };
        }
    }

    /// Return `p` to the backing allocator. Arena blocks run no destructor:
    /// persistent objects hold no owned resources (plain words), and their
    /// bookkeeping counters are process-local anyway.
    ///
    /// # Safety
    /// As [`PoolInner::recycle`].
    unsafe fn dealloc(&self, p: *mut T) {
        match &self.arena {
            Some(h) => unsafe { h.free(p as *mut u8) },
            None => drop(unsafe { Box::from_raw(p) }),
        }
    }
}

impl<T: PoolItem> Drop for PoolInner<T> {
    fn drop(&mut self) {
        for l in &self.lists {
            for p in unsafe { &mut *l.get() }.drain(..) {
                // Mapped mode returns the idle objects to the arena's
                // persistent free list (so the next attach sees them as
                // FREE blocks); heap mode frees the boxes.
                unsafe { self.dealloc(p) };
            }
        }
    }
}

/// The EBR recycle hook: `ctx` is the `PoolInner` the object came from.
unsafe fn recycle_thunk<T: PoolItem>(p: *mut u8, ctx: *mut u8) {
    unsafe { (*(ctx as *const PoolInner<T>)).recycle(p as *mut T) };
}

/// A per-thread, epoch-recycled object pool (see module docs). Clones share
/// the same free lists (the underlying state is reference-counted).
pub struct Pool<T: PoolItem> {
    /// `None` when pooling is off (passthrough mode).
    inner: Option<Arc<PoolInner<T>>>,
}

impl<T: PoolItem> Clone for Pool<T> {
    fn clone(&self) -> Self {
        Self { inner: self.inner.clone() }
    }
}

impl<T: PoolItem> Pool<T> {
    /// The one constructor, and the one place the safety-critical gate
    /// lives: a pool recycles under an enabled collector and a non-simulated
    /// model, and is passthrough otherwise (see module docs) — and an
    /// `arena`-backed pool must never be passthrough: its `Box` draws would
    /// hand out volatile memory whose addresses get persisted into the
    /// arena and dangle after a restart. Structures reach it through
    /// [`crate::env::Env::pool`].
    pub(crate) fn new_for<M: nvm::Persist>(
        collector: &reclaim::Collector,
        arena: Option<Arc<MappedHeap>>,
    ) -> Self {
        let pooled = collector.is_enabled() && !M::SIMULATED;
        assert!(
            pooled || arena.is_none(),
            "arena-backed pools require an enabled collector and a non-simulated persistency model"
        );
        Self {
            inner: pooled.then(|| {
                Arc::new(PoolInner {
                    lists: (0..MAX_PROCS)
                        .map(|_| CachePadded::new(UnsafeCell::new(Vec::new())))
                        .collect(),
                    arena,
                })
            }),
        }
    }

    /// A type-erased hold on the shared free lists (`None` in passthrough
    /// mode): what the [`crate::env::Env`] that built the pool keeps, so the
    /// lists outlive its collector's drop-time drain.
    pub(crate) fn hold(&self) -> Option<Arc<dyn std::any::Any + Send + Sync>> {
        self.inner.clone().map(|i| i as _)
    }

    /// Pop a reusable object from the calling thread's free list, refilling
    /// a slab from the heap when empty; in passthrough mode a fresh
    /// `Box<T::fresh()>` of its own.
    ///
    /// The returned object is *dirty*: the caller must re-initialize every
    /// field it will publish.
    pub fn take(&self) -> *mut T {
        let Some(inner) = self.inner.as_deref() else {
            return Box::into_raw(Box::new(T::fresh()));
        };
        let list = inner.my_list();
        if let Some(p) = list.pop() {
            T::count_reuse();
            return p;
        }
        // Refill a slab. Mapped mode draws blocks from the persistent arena,
        // each committed only after `T::fresh()` fully initialized it, so a
        // kill mid-refill leaves torn blocks the next attach poisons. The
        // arena grows new segments on demand, so its panic means the VA
        // reservation (or a `create_bounded` cap) is genuinely exhausted.
        let arena = inner.arena.as_deref();
        // The tid-band rule (`Store::open`): a joiner's threads stay in its
        // band, or its recovery slots and announce words are a peer's.
        debug_assert!(
            arena
                .and_then(MappedHeap::my_participant)
                .is_none_or(|s| s == 0 || MappedHeap::tid_band(s).contains(&nvm::tid::tid())),
            "tid {} outside its participant's band",
            nvm::tid::tid()
        );
        for _ in 0..SLAB {
            let raw = match arena {
                Some(heap) => {
                    let raw = heap
                        .alloc(std::mem::size_of::<T>())
                        .unwrap_or_else(|e| panic!("persistent arena refill failed: {e}"))
                        as *mut T;
                    // SAFETY: freshly allocated, exclusively owned block
                    // large enough for a `T` (64-byte aligned payload).
                    unsafe { raw.write(T::fresh()) };
                    raw
                }
                None => Box::into_raw(Box::new(T::fresh())),
            };
            if let Some(heap) = arena {
                heap.commit(raw as *mut u8);
            }
            list.push(raw);
        }
        list.pop().expect("a slab was just refilled")
    }

    /// Draw an object to initialise and publish: [`Pool::take`], then `init`
    /// over it (a recycled object is dirty).
    #[inline]
    pub fn draw(&self, init: impl FnOnce(&T)) -> *mut T {
        let p = self.take();
        // SAFETY: a drawn object is live and exclusively the caller's until
        // it is published.
        init(unsafe { &*p });
        p
    }

    /// Return a **never-published** object directly to the free list — the
    /// private-failure fast path, no EBR round-trip.
    ///
    /// Passthrough mode retires through `g` instead of freeing in place:
    /// under a disabled (crash-sim) collector that *parks* the object, which
    /// is load-bearing — the object's words are registered with the crash
    /// simulator, and freeing them mid-scenario would leave dangling
    /// addresses for `build_crash_image` to poke (heap corruption; the
    /// registry contract requires every registered word to stay alive until
    /// `sim::reset`).
    ///
    /// # Safety
    /// `p` must be a live object of this pool whose address no other thread
    /// can hold (never installed in a shared cell, never passed to `help`).
    pub unsafe fn give(&self, p: *mut T, g: &Guard<'_>) {
        match self.inner.as_deref() {
            Some(inner) => unsafe { inner.recycle(p) },
            None => unsafe { g.retire_box(p) },
        }
    }

    /// Retire a **published** object: recycled only after two global epoch
    /// advances, via the collector (passthrough mode: plain EBR free).
    ///
    /// # Safety
    /// As [`reclaim::Guard::retire_box`]: `p` unreachable to any thread that
    /// pins after this call, retired exactly once.
    pub unsafe fn retire(&self, p: *mut T, g: &Guard<'_>) {
        match self.inner.as_deref() {
            Some(inner) => unsafe {
                g.retire_ctx(
                    p as *mut u8,
                    inner as *const PoolInner<T> as *mut u8,
                    recycle_thunk::<T>,
                )
            },
            None => unsafe { g.retire_box(p) },
        }
    }

    /// Visits every object currently idle on the free lists. `&mut self`
    /// because the per-thread lists are unsynchronized: reading them while
    /// other threads take/give would be a data race, so quiescent exclusive
    /// access (across every clone of this pool) is required, not merely
    /// recommended. The mapped backend's attach uses this to keep
    /// cache-resident blocks out of its arena sweep.
    pub fn each_idle(&mut self, mut f: impl FnMut(*mut T)) {
        if let Some(i) = self.inner.as_deref() {
            for l in i.lists.iter() {
                // SAFETY: quiescent exclusive access per the contract above.
                for &p in unsafe { &*l.get() }.iter() {
                    f(p);
                }
            }
        }
    }
}

#[cfg(test)]
impl<T: PoolItem> Pool<T> {
    /// Whether this pool actually recycles (false = passthrough).
    pub(crate) fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Objects currently waiting on free lists (`&mut self`: as
    /// [`Pool::each_idle`]).
    pub(crate) fn idle(&mut self) -> usize {
        let mut n = 0;
        self.each_idle(|_| n += 1);
        n
    }

    /// Whether refills draw from a persistent arena.
    pub(crate) fn arena_backed(&self) -> bool {
        self.inner.as_ref().is_some_and(|i| i.arena.is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reclaim::Collector;
    use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

    static LIVE: AtomicUsize = AtomicUsize::new(0);

    fn obj_pool() -> Pool<Obj> {
        Pool::new_for::<nvm::CountingNvm>(&Collector::new(), None)
    }

    /// Every test here allocates `Obj`s and some compare `LIVE` exactly, so
    /// they take turns (a poisoned turn is still a turn).
    fn live_turn() -> std::sync::MutexGuard<'static, ()> {
        static TURN: std::sync::Mutex<()> = std::sync::Mutex::new(());
        TURN.lock().unwrap_or_else(|e| e.into_inner())
    }

    struct Obj(#[allow(dead_code)] u64);
    impl PoolItem for Obj {
        fn fresh() -> Self {
            LIVE.fetch_add(1, Relaxed);
            Obj(0)
        }
    }
    impl Drop for Obj {
        fn drop(&mut self) {
            LIVE.fetch_sub(1, Relaxed);
        }
    }

    #[test]
    fn take_give_reuses_addresses_immediately() {
        let _turn = live_turn();
        nvm::tid::set_tid(0);
        let c = Collector::new();
        let g = c.pin();
        let pool: Pool<Obj> = obj_pool();
        let a = pool.take();
        unsafe { pool.give(a, &g) };
        let b = pool.take();
        assert_eq!(a, b, "give must feed the next take (LIFO)");
        unsafe { pool.give(b, &g) };
    }

    #[test]
    fn passthrough_give_retires_through_ebr() {
        let _turn = live_turn();
        nvm::tid::set_tid(0);
        let c = Collector::new();
        // A simulated model makes the pool passthrough under any collector.
        let pool: Pool<Obj> = Pool::new_for::<nvm::SimNvm>(&c, None);
        assert!(!pool.is_enabled());
        let live = LIVE.load(Relaxed);
        let p = pool.take();
        assert_eq!(LIVE.load(Relaxed), live + 1, "a passthrough take is one fresh object");
        {
            let g = c.pin();
            unsafe { pool.give(p, &g) };
        }
        drop(c); // collector drop frees the retired object
        assert_eq!(LIVE.load(Relaxed), live, "passthrough give frees via EBR");
    }

    #[test]
    fn passthrough_give_parks_under_disabled_collector() {
        // Crash-sim discipline: a disabled collector must PARK passthrough
        // gives (freeing registered words mid-scenario corrupts the crash
        // image builder).
        let _turn = live_turn();
        nvm::tid::set_tid(0);
        let c = Collector::disabled();
        let pool: Pool<Obj> = Pool::new_for::<nvm::CountingNvm>(&c, None);
        assert!(!pool.is_enabled(), "a disabled collector makes the pool passthrough");
        let p = pool.take();
        let live = LIVE.load(Relaxed);
        {
            let g = c.pin();
            unsafe { pool.give(p, &g) };
        }
        assert_eq!(LIVE.load(Relaxed), live, "parked, not freed");
        let parked = c.take_parked();
        assert_eq!(parked.len(), 1);
        assert_eq!(parked[0].0, p as *mut u8);
        for (ptr, f) in parked {
            unsafe { f(ptr) };
        }
        assert_eq!(LIVE.load(Relaxed), live - 1);
    }

    #[test]
    fn retire_recycles_only_after_epoch_advances() {
        let _turn = live_turn();
        nvm::tid::set_tid(0);
        let c = Collector::new();
        let mut pool: Pool<Obj> = obj_pool();
        let p = pool.take();
        let idle0 = pool.idle();
        {
            let g = c.pin();
            unsafe { pool.retire(p, &g) };
        }
        assert_eq!(pool.idle(), idle0, "retired object must not be reusable yet");
        for _ in 0..500 {
            drop(c.pin());
        }
        assert_eq!(pool.idle(), idle0 + 1, "recycled after the epochs advanced");
        drop(c);
        drop(pool);
    }

    #[test]
    fn capacity_bounds_the_free_list() {
        let _turn = live_turn();
        nvm::tid::set_tid(0);
        let c = Collector::new();
        let g = c.pin();
        let mut pool: Pool<Obj> = obj_pool();
        let taken = 300; // more than the capacity
        let ps: Vec<_> = (0..taken).map(|_| pool.take()).collect();
        // Slab refills leave the rest of the last slab on the list.
        let idle = pool.idle();
        let live = LIVE.load(Relaxed);
        for p in ps {
            unsafe { pool.give(p, &g) };
        }
        assert_eq!(pool.idle(), DEFAULT_CAPACITY, "free list capped at capacity");
        let freed = idle + taken - DEFAULT_CAPACITY;
        assert_eq!(LIVE.load(Relaxed), live - freed, "overflow freed for real");
    }

    #[test]
    fn pool_drop_frees_idle_objects() {
        let _turn = live_turn();
        nvm::tid::set_tid(0);
        let live0 = LIVE.load(Relaxed);
        {
            let c = Collector::new();
            let g = c.pin();
            let mut pool: Pool<Obj> = obj_pool();
            let ps: Vec<_> = (0..40).map(|_| pool.take()).collect();
            for p in ps {
                unsafe { pool.give(p, &g) };
            }
            assert!(pool.idle() >= 40);
        }
        assert_eq!(LIVE.load(Relaxed), live0, "pool drop leaked");
    }
}
