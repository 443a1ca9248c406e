//! The environment a structure's operations run in: its recovery area, its
//! collector, the descriptor pools and the memory behind them — one owner,
//! built in one place.
//!
//! The paper tracks progress per *process*: `RD_q` / `CP_q`, the descriptor
//! they name and the memory it lives in belong to the process and its heap,
//! not to a structure. A structure therefore owns nothing but its roots, its
//! node pool and one [`Env`], held inline; the invocation skeleton every
//! operation shares runs over `&Env` (the methods of [`crate::op`]).
//!
//! There are two ways to get one, and no knob a caller can get wrong:
//!
//! * [`Env::volatile`] — the in-process models. The collector is *derived*
//!   from the model: disabled exactly under crash simulation
//!   (`M::SIMULATED`), where a crash must not free memory and retired
//!   objects park until teardown; reclaiming otherwise.
//! * [`crate::recovery::AttachEnv::env`] — the mapped backend: a collector in
//!   the heap's epoch domain, a view of the heap-wide recovery slots, the
//!   heap-wide descriptor pools, and the heap itself. It is the only
//!   way an arena reaches a pool, so a structure whose nodes are arena
//!   blocks always knows it is mapped (its `Drop` tears nothing down).
//!
//! **The drop-order rule, once.** A collector that still holds garbage
//! drains when it drops, and draining *recycles*: each deferred object is
//! pushed onto the free list of the pool it came from. Those lists must be
//! alive at that point. They were not, once: a stack dropped last in its
//! store drained another structure's descriptor — handed over through the
//! shared `RD_q` — into an Info pool whose last clone had already gone (PR 21).
//! So the fields below are declared, and therefore dropped, collector first,
//! and the `Env` keeps a hold on every pool its collector can drain into:
//! the descriptor pools it holds, and each node pool it built ([`Env::pool`]).
//! A structure may declare its own fields in any order.

use crate::engine::{Info, InfoPair, Lines};
use crate::graph::{self, Graph};
use crate::pool::{Pool, PoolItem};
use crate::recovery::RecArea;
use nvm::mapped::MappedHeap;
use nvm::Persist;
use reclaim::{Collector, Guard};
use std::any::Any;
use std::sync::Arc;

/// The descriptor pools of an environment, one per class ([`Lines`]). An
/// [`Env`] tags its collector with their address, so [`Info::release`]
/// finds them through the guard it releases under: a descriptor whose last
/// reference goes recycles into the releasing environment's pools —
/// under a heap, the process's heap-wide ones, whichever process drew it.
pub(crate) struct Infos<M: Persist> {
    line: Pool<Info<M>>,
    pair: Pool<InfoPair<M>>,
}

impl<M: Persist> Infos<M> {
    /// Both pools, over `arena` in a heap ([`Pool::new_for`]).
    fn new(collector: &Collector, arena: Option<Arc<MappedHeap>>) -> Arc<Self> {
        Arc::new(Self {
            line: Pool::new_for::<M>(collector, arena.clone()),
            pair: Pool::new_for::<M>(collector, arena),
        })
    }

    /// Draw a descriptor of class `lines`.
    #[inline]
    pub(crate) fn take(&self, lines: Lines) -> *mut Info<M> {
        match lines {
            Lines::One => self.line.take(),
            Lines::Two => self.pair.take().cast(),
        }
    }

    /// Returns a descriptor whose last reference went to the pool of its
    /// class: a never-shared one straight away, a shared one after the
    /// epoch delay ([`Pool::give`], [`Pool::retire`]).
    ///
    /// # Safety
    /// `info` is a live descriptor from a pool of the same backing (the
    /// heap's, or the process heap), referenced nowhere.
    pub(crate) unsafe fn put(&self, info: *mut Info<M>, g: &Guard<'_>) {
        // SAFETY: the caller's.
        let i = unsafe { &*info };
        // Never passed through `help` ⇒ never installed in a shared cell ⇒
        // only this thread can hold the address: back to the pool without
        // the EBR round-trip. Read-only descriptors (70% of a read-heavy
        // mix) take this path every operation.
        let private = !i.shared();
        // SAFETY: the caller's; the class names the pool's item type.
        unsafe {
            match (i.class(), private) {
                (Lines::One, true) => self.line.give(info, g),
                (Lines::One, false) => self.line.retire(info, g),
                (Lines::Two, true) => self.pair.give(info.cast(), g),
                (Lines::Two, false) => self.pair.retire(info.cast(), g),
            }
        }
    }

    /// Visits every descriptor idle on either pool's free lists
    /// (quiescent, as [`Pool::each_idle`]).
    pub(crate) fn each_idle(&self, mut f: impl FnMut(*mut Info<M>)) {
        self.line.clone().each_idle(&mut f);
        self.pair.clone().each_idle(|p| f(p.cast()));
    }
}

#[cfg(test)]
impl<M: Persist> Infos<M> {
    /// Whether the pools recycle (false = passthrough).
    pub(crate) fn is_enabled(&self) -> bool {
        self.line.is_enabled() && self.pair.is_enabled()
    }

    /// Descriptors idle on either pool's free lists.
    pub(crate) fn idle(&self) -> usize {
        let mut n = 0;
        self.each_idle(|_| n += 1);
        n
    }

    /// Whether refills draw from a persistent arena.
    pub(crate) fn arena_backed(&self) -> bool {
        self.line.arena_backed() && self.pair.arena_backed()
    }
}

/// What one structure's operations run in (see module docs).
pub struct Env<M: Persist> {
    /// The recovery area every operation on the structure publishes through.
    pub(crate) rec: RecArea<M>,
    /// The structure's collector. Drops — and drains — before the pools.
    pub(crate) collector: Collector,
    /// The descriptor pools, whose address the collector is tagged with
    /// (mapped mode: the heap-wide ones, because the `RD_q` hand-over
    /// releases the *previous* operation's descriptor whichever structure
    /// it belonged to).
    pub(crate) infos: Arc<Infos<M>>,
    /// The class of the descriptors the structure's operations draw: one
    /// line, two for the BST, whose updates' shapes do not fit one.
    pub(crate) lines: Lines,
    /// A hold on every node pool [`Env::pool`] built.
    pools: Vec<Arc<dyn Any + Send + Sync>>,
    /// Mapped mode: the persistent heap everything lives in.
    heap: Option<Arc<MappedHeap>>,
}

impl<M: Persist> Env<M> {
    /// The environment of an in-process structure: pooled, or passthrough
    /// under crash simulation.
    pub fn volatile() -> Self {
        let collector = if M::SIMULATED { Collector::disabled() } else { Collector::new() };
        let infos = Infos::new(&collector, None);
        Self::over(RecArea::new(), collector, infos, None)
    }

    /// The environment over its parts, the collector tagged with `infos`.
    fn over(
        rec: RecArea<M>,
        mut collector: Collector,
        infos: Arc<Infos<M>>,
        heap: Option<Arc<MappedHeap>>,
    ) -> Self {
        collector.set_tag(Arc::as_ptr(&infos) as usize);
        Self { rec, collector, infos, lines: Lines::One, pools: Vec::new(), heap }
    }

    /// The environment of a structure inside `heap`
    /// ([`crate::recovery::AttachEnv::env`]); `infos` are the heap-wide
    /// descriptor pools, built here when the caller has none yet.
    pub(crate) fn mapped(
        rec: RecArea<M>,
        collector: Collector,
        infos: Option<Arc<Infos<M>>>,
        heap: Arc<MappedHeap>,
    ) -> Self {
        let infos = infos.unwrap_or_else(|| Infos::new(&collector, Some(heap.clone())));
        Self::over(rec, collector, infos, Some(heap))
    }

    /// A node pool for a structure placed at `ARM`, a level checked at
    /// compile time (`arm::placed`): arena-backed in a heap (never falling
    /// back to `Box` — the pool constructor panics instead), otherwise pooled
    /// or passthrough as the model decides.
    pub fn pool<N: PoolItem, const ARM: u8>(&mut self) -> Pool<N> {
        crate::arm::placed::<ARM>();
        let pool = Pool::new_for::<M>(&self.collector, self.heap.clone());
        self.pools.extend(pool.hold());
        pool
    }

    /// The persistent heap of a mapped-mode structure.
    pub fn heap(&self) -> &Arc<MappedHeap> {
        self.heap.as_ref().expect("a mapped-mode structure")
    }

    /// The one drop-time path. Mapped mode: nothing — the arena is the
    /// durable state the next attach recovers, and the pools return their
    /// caches to its free list when they drop. Otherwise
    /// [`graph::teardown`] over `graph`, this environment's parked garbage
    /// and published descriptors.
    ///
    /// # Safety
    /// As [`graph::teardown`]: the `Drop` of the structure that owns both
    /// `graph` and this environment, every node a `Box<N>` its pools drew.
    pub(crate) unsafe fn teardown<N>(&self, graph: &impl Graph<M>) {
        if self.heap.is_none() {
            let parked = self.collector.take_parked();
            unsafe { graph::teardown::<M, N>(graph, parked, &self.rec) };
        }
    }
}

#[cfg(test)]
impl<M: Persist> Env<M> {
    /// What dropping this environment does first — its collector drops,
    /// draining (a collector in a heap's epoch domain drains what no pin
    /// protects and leaks the rest) — run
    /// now and observed: how many descriptors the drop recycled into the
    /// descriptor pools.
    pub(crate) fn drain_observed(&mut self) -> usize {
        let before = self.infos.idle();
        let mut fresh = Collector::new();
        fresh.set_tag(Arc::as_ptr(&self.infos) as usize);
        self.collector = fresh;
        self.infos.idle() - before
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvm::{CountingNvm, SimNvm};

    struct Obj;
    impl PoolItem for Obj {
        fn fresh() -> Self {
            Obj
        }
    }

    /// A descriptor whose last reference goes recycles into the pool of its
    /// class, found through the tag of the collector it is released under:
    /// the next draw of that class — and only that class — returns it.
    #[test]
    fn a_descriptor_recycles_into_the_pool_of_its_class() {
        use crate::engine::{InfoFill, RES_TRUE};
        let _gate = crate::counters::gate_shared();
        nvm::tid::set_tid(0);
        let env = Env::<CountingNvm>::volatile();
        for (lines, other) in [(Lines::One, Lines::Two), (Lines::Two, Lines::One)] {
            let info = env.infos.take(lines);
            let fill = InfoFill {
                optype: 1,
                affect: &[(0x8, 0)],
                write: &[],
                newset: &[],
                node_words: 0,
                del_mask: 0,
                presult: RES_TRUE,
            };
            let g = env.collector.pin();
            // SAFETY: drawn above, private; never published, so its two
            // references (RD_q's and the affect slot's) are ours to drop.
            unsafe {
                Info::fill(info, &fill);
                Info::release(info, 2, &g);
            }
            assert_ne!(env.infos.take(other), info, "{lines:?}: drawn as {other:?}");
            assert_eq!(env.infos.take(lines), info, "{lines:?}: not back in its pool");
        }
    }

    /// Only the BST draws two-line descriptors: every other kind's shapes
    /// fit one line ([`crate::info`]).
    #[test]
    fn only_the_bst_draws_two_line_descriptors() {
        use crate::{bst::RBst, hashmap::RHashMap, list::RList, queue::RQueue, stack::RStack};
        type M = CountingNvm;
        let _gate = crate::counters::gate_shared();
        nvm::tid::set_tid(0);
        let kinds = [
            ("map", RHashMap::<M, 3>::new().env.lines),
            ("list", RList::<M, 3>::new().env.lines),
            ("stack", RStack::<M>::new().0.env.lines),
            ("queue", RQueue::<M, 3>::new().env.lines),
            ("BST", RBst::<M, 3>::new().env.lines),
        ];
        for (kind, lines) in kinds {
            let want = if kind == "BST" { Lines::Two } else { Lines::One };
            assert_eq!(lines, want, "{kind}");
        }
    }

    #[test]
    fn volatile_collector_and_pools_follow_the_model() {
        let mut sim = Env::<SimNvm>::volatile();
        assert!(!sim.collector.is_enabled(), "a simulated crash must not free memory");
        assert!(!sim.infos.is_enabled() && !sim.pool::<Obj, 0>().is_enabled(), "passthrough");
        let mut pooled = Env::<CountingNvm>::volatile();
        assert!(pooled.collector.is_enabled());
        assert!(pooled.infos.is_enabled() && pooled.pool::<Obj, 0>().is_enabled());
        // The exchanger holds an `Env` too, so it parks under the simulator.
        let x = crate::exchanger::RExchanger::<SimNvm>::new();
        assert!(!x.env.collector.is_enabled(), "an exchanger must not free under simulation");
    }
}
