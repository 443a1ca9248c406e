//! A structure's node graph and the visitors over it.
//!
//! Each structure kind writes **one** traversal of its node shape,
//! [`Graph::walk`]; everything that needs "every reachable node and its info
//! word" is a visitor written once, here (the attach driver that runs the
//! first two is [`crate::recovery::finish_attach`]):
//!
//! | visitor | admits | does |
//! |---|---|---|
//! | [`validate_unit`] | what the caller checked (whole-node spans inside the mapping), budgeted | collects the descriptors an untrusted image references; the offending link otherwise |
//! | [`census_unit`] | everything | live node set + per-descriptor reference counts |
//! | [`scrub_unit`] / [`scrub`] | everything | helps every tagged info until a pass finds none, at most [`SCRUB_PASSES`] |
//! | [`teardown`] | everything | frees the deduplicated union of reachable, parked and published objects |

use crate::engine::Info;
use crate::recovery::{AttachError, RecArea};
use crate::tag::{self, Base};
use nvm::Persist;
use reclaim::Collector;
use std::collections::{HashMap, HashSet};

/// A structure's node graph, under every persistency model: its name, its
/// partition into independent work units, and the **one** traversal the
/// structure writes. Everything that reaches "every node and its info word"
/// is a visitor over [`Graph::walk`] written once in this module:
/// [`validate_unit`] and [`census_unit`] for the attach driver, the scrub
/// ([`scrub_unit`]) and the drop-time [`teardown`].
pub trait Graph<M: Persist> {
    /// Human-readable kind name (errors/diagnostics).
    fn kind_name(&self) -> &'static str;

    /// The base the graph's link words are offsets from ([`crate::tag`]).
    fn base(&self) -> Base;

    /// Number of independent work units (one per hash-map shard; the
    /// default is one — the whole structure). Units partition the graph's
    /// nodes and cells, so per-unit walks never touch the same memory and
    /// the attach driver may run them on scoped worker threads.
    fn work_units(&self) -> usize {
        1
    }

    /// Visits every node reachable in work unit `unit` as
    /// `visit(node address, info word)`: iteratively, at most `budget`
    /// nodes, asking `admit` about every link word (a [`Base`] offset)
    /// **before** it is followed. An info cell outside any node (the queue's
    /// anchor) is reported with node address 0. A node's links are read
    /// *after* `visit` returns, so a visitor may help the descriptor it was
    /// shown.
    ///
    /// `Err(w)`: link `w` was null where a node must be, refused by
    /// `admit`, or the one the budget ran out at (a cycle).
    ///
    /// # Safety
    /// Every non-null link `admit` accepts must name a node of this
    /// structure at [`Graph::base`]. Trusted callers (a live structure,
    /// quiescent or pinned) pass `&|_| true`; attach over an untrusted image
    /// passes a whole-node span check.
    unsafe fn walk(
        &self,
        unit: usize,
        admit: &dyn Fn(u64) -> bool,
        budget: usize,
        visit: &mut dyn FnMut(u64, u64),
    ) -> Result<(), u64>;
}

/// The link word of the descriptor an info word names (tagged or not), if
/// any.
fn descriptor_of(info: u64) -> Option<u64> {
    let w = tag::untagged(info);
    (w != 0).then_some(w)
}

/// Upper bound on scrub passes over one work unit. Each pass helps every
/// descriptor visible in it; descriptors are finite (at most one per
/// process) and helping never re-tags, so a couple of passes quiesce. The
/// bound turns a logic bug, or a hostile image, into a diagnosis.
pub const SCRUB_PASSES: usize = 64;

/// The scrub visitor: completes helping obligations left *visible* in work
/// unit `unit` by a crash — runs `Help` on every tagged info the walk shows
/// until a full pass finds none. Call after every process ran its
/// `Op-Recover`.
///
/// Needed by the tuned placements, which do not fence the cleanup phase: the
/// adversarial crash image may roll a completed operation's untag
/// write-backs back, resurrecting its tags on reachable nodes, and a
/// partially-tagged failed attempt whose earlier cells rolled back leaves
/// its later tags behind. During normal execution lazy helping heals them on
/// first contact; this performs the same idempotent helping eagerly, so a
/// quiescent post-recovery structure is tag-free. The effects themselves
/// cannot roll back — an operation only reports completion after the update
/// phase's `psync` — so re-helping can only untag, never re-apply.
pub fn scrub_unit<M: Persist, const ARM: u8>(
    graph: &(impl Graph<M> + ?Sized),
    unit: usize,
    collector: &Collector,
) -> Result<(), AttachError> {
    for _ in 0..SCRUB_PASSES {
        let (g, b) = (collector.pin(), graph.base());
        let mut dirty = false;
        // SAFETY: a live structure (the caller's); tagged infos name live
        // descriptors (validated by attach, never freed in crash mode).
        let _ = unsafe {
            graph.walk(unit, &|_| true, usize::MAX, &mut |_, info| {
                if tag::is_tagged(info) {
                    dirty = true;
                    crate::engine::help::<M, ARM>(b, b.at(info), false, &g);
                }
            })
        };
        if !dirty {
            return Ok(());
        }
    }
    Err(AttachError::ScrubStalled { kind: graph.kind_name(), unit, passes: SCRUB_PASSES })
}

/// [`scrub_unit`] over every work unit of `graph`.
pub fn scrub<M: Persist, const ARM: u8>(
    graph: &(impl Graph<M> + ?Sized),
    collector: &Collector,
) -> Result<(), AttachError> {
    (0..graph.work_units()).try_for_each(|unit| scrub_unit::<M, ARM>(graph, unit, collector))
}

/// Drop-time teardown of a process-heap structure, shared by every model:
/// frees the deduplicated union of {`parked` garbage of the structure's
/// collector} ∪ {descriptors published in `rec`} ∪ {nodes the walk reaches
/// and the descriptors they reference} exactly once. Deduplicated by address because after a
/// simulated crash the NVM image may have rolled pointers back, making
/// *retired* (parked) nodes reachable again.
///
/// # Safety
/// Quiescent exclusive access (the structure's `Drop`); every node is a
/// `Box<N>`, every descriptor a `Box` of its class (what a heap-mode or
/// passthrough pool draws), owned by the structure.
pub unsafe fn teardown<M: Persist, N>(
    graph: &impl Graph<M>,
    parked: Vec<reclaim::DeferredFree>,
    rec: &RecArea<M>,
) {
    use crate::op::drop_raw;
    let mut grave: HashMap<usize, unsafe fn(*mut u8)> =
        parked.into_iter().map(|(p, f)| (p as usize, f)).collect();
    let descriptor = |info| descriptor_of(info).map(|w| rec.base.at::<u8>(w) as usize);
    for rd in rec.published_words() {
        grave.insert(rec.base.at::<u8>(rd) as usize, Info::<M>::drop_boxed);
    }
    for unit in 0..graph.work_units() {
        let _ = unsafe {
            graph.walk(unit, &|_| true, usize::MAX, &mut |n, info| {
                if n != 0 {
                    grave.insert(n as usize, drop_raw::<N>);
                }
                if let Some(info) = descriptor(info) {
                    grave.insert(info, Info::<M>::drop_boxed);
                }
            })
        };
    }
    for (p, free) in grave {
        unsafe { free(p as *mut u8) };
    }
}

/// The validation visitor over work unit `unit` of an **untrusted** image:
/// no node is dereferenced unless `admit` accepted its pointer, the walk
/// stops after `budget` nodes (a cycle), and the descriptors the nodes
/// reference are only *collected* into `infos` — the caller range-checks
/// them before anything follows one ([`crate::recovery::validate_infos`]).
/// `Err` carries the offending link word.
///
/// # Safety
/// As [`Graph::walk`]: `admit` must accept only dereferenceable nodes.
pub unsafe fn validate_unit<M: Persist>(
    graph: &(impl Graph<M> + ?Sized),
    unit: usize,
    admit: &dyn Fn(u64) -> bool,
    budget: usize,
    infos: &mut HashSet<u64>,
) -> Result<(), u64> {
    unsafe {
        graph.walk(unit, admit, budget, &mut |_, info| {
            infos.extend(descriptor_of(info));
        })
    }
}

/// The census visitor over work unit `unit` of a quiescent structure: every
/// reachable node's address into `live`, and per descriptor still referenced
/// from an info cell (keyed by its link word) the number of referencing
/// cells into `info_refs`.
///
/// # Safety
/// Quiescent exclusive access to a live (or validated) structure.
pub unsafe fn census_unit<M: Persist>(
    graph: &(impl Graph<M> + ?Sized),
    unit: usize,
    live: &mut HashSet<usize>,
    info_refs: &mut HashMap<u64, u32>,
) {
    let _ = unsafe {
        graph.walk(unit, &|_| true, usize::MAX, &mut |n, info| {
            if n != 0 {
                live.insert(n as usize);
            }
            if let Some(info) = descriptor_of(info) {
                *info_refs.entry(info).or_insert(0) += 1;
            }
        })
    };
}
