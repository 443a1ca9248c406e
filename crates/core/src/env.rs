//! The environment a structure's operations run in: its recovery area, its
//! collector, the descriptor pool and the memory behind them — one owner,
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
//!   the heap's epoch domain, a view of the heap-wide recovery slots, a clone
//!   of the heap-wide descriptor pool, and the heap itself. It is the only
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
//! the descriptor pool it owns, and each node pool it built ([`Env::pool`]).
//! A structure may declare its own fields in any order.

use crate::engine::Info;
use crate::graph::{self, Graph};
use crate::pool::{Pool, PoolItem};
use crate::recovery::RecArea;
use nvm::mapped::MappedHeap;
use nvm::Persist;
use reclaim::Collector;
use std::any::Any;
use std::sync::Arc;

/// What one structure's operations run in (see module docs).
pub struct Env<M: Persist> {
    /// The recovery area every operation on the structure publishes through.
    pub(crate) rec: RecArea<M>,
    /// The structure's collector. Drops — and drains — before the pools.
    pub(crate) collector: Collector,
    /// The descriptor pool (mapped mode: a clone of the heap-wide one,
    /// because the `RD_q` hand-over releases the *previous* operation's
    /// descriptor whichever structure it belonged to).
    pub(crate) infos: Pool<Info<M>>,
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
        let infos = Pool::new_for::<M>(&collector, None);
        Self { rec: RecArea::new(), collector, infos, pools: Vec::new(), heap: None }
    }

    /// The environment of a structure inside `heap`
    /// ([`crate::recovery::AttachEnv::env`]); `infos` is the heap-wide
    /// descriptor pool, built here when the caller has none yet. The
    /// collector is tagged with that pool's handle: [`Info::release`]
    /// recycles a descriptor only into the pool its guard names.
    pub(crate) fn mapped(
        rec: RecArea<M>,
        mut collector: Collector,
        infos: Option<Pool<Info<M>>>,
        heap: Arc<MappedHeap>,
    ) -> Self {
        let infos = infos.unwrap_or_else(|| Pool::new_for::<M>(&collector, Some(heap.clone())));
        collector.set_tag(infos.handle() as usize);
        Self { rec, collector, infos, pools: Vec::new(), heap: Some(heap) }
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
    /// descriptor pool.
    pub(crate) fn drain_observed(&mut self) -> usize {
        let before = self.infos.idle();
        self.collector = Collector::new();
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
