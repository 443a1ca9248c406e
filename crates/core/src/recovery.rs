//! Per-process recovery data: `RD_q` and the check-point `CP_q`.
//!
//! The detectability protocol (Algorithm 1, lines 1–5 / 16–19 and
//! Op-Recover):
//!
//! 1. The *system* sets `CP_q := 0` (persisted) just before an operation of
//!    process `q` starts — the invocation glue, run by [`RecArea::begin`] or,
//!    ahead of it, by [`RecArea::mark_invoked`].
//! 2. The operation runs `RD_q := Null; pbarrier(RD_q); CP_q := 1;
//!    pwb(CP_q); psync` — the `pbarrier` **orders** the reset of `RD_q`
//!    before `CP_q = 1` becomes durable, so recovery can never observe the
//!    previous operation's info pointer together with `CP_q = 1`. (`Isb-LP`
//!    has no step 2: its `CP_q` is written by step 3.)
//! 3. Before each call to `Help`, the attempt's Info pointer is published:
//!    `RD_q := opInfo; pwb; psync` ([`RecArea::publish`]). `Isb-LP` stores
//!    `CP_q :=` the digest of the publication first, in the same line, and
//!    its descriptor's write-backs join this `psync`'s window.
//! 4. On recovery ([`RecArea::read`]): `CP_q = 0` or `RD_q = Null` — under
//!    `Isb-LP` also a `CP_q` that does not validate the descriptor `RD_q`
//!    names — means the
//!    operation made no changes — restart it. Otherwise `Help(RD_q)` is run
//!    and the Info's done bit decides: set ⇒ the operation took effect and
//!    its precomputed response is the answer; unset ⇒ it did not take effect
//!    and is re-invoked.
//!
//! Steps 1–2 as written are arm [`crate::arm::PAPER`]. The hand-tuned arm
//! ([`crate::arm::TUNED`], "Isb-Opt" in the evaluation) defers the durability
//! of `CP_q = 1` to the attempt's publish `psync` (ordering is still enforced
//! with a `pfence`), saving one `psync` per operation.
//!
//! `Isb-LP` ([`crate::arm::LP`]) has no step 2 of its own. `RD_q` and `CP_q`
//! share one cache line, so its glue is `(RD_q, CP_q) := (Null, 0)`, both
//! words made durable by the one barrier step 1 pays anyway. Its `CP_q` is
//! not a flag but the *digest* of the publication `RD_q` names
//! ([`Info::digest`]: the descriptor's link word and persisted words, and
//! every word of its new nodes), stored by each publish
//! ([`RecArea::publish_arm`]) in the same line and under the same `psync` as
//! `RD_q := opInfo`. That `psync` is also the first fence the descriptor and
//! its new nodes meet (step 3 without its `pbarrier`: an invocation no
//! caller record carries fences nothing ahead of its publish), so a crash
//! image may hold any subset of descriptor, new nodes and recovery line.
//! Step 4 then reads: `CP_q = 0`, `RD_q = Null`, or a `CP_q` that does not
//! validate the descriptor `RD_q` names ([`Info::validates`]) means the
//! operation made no changes — no tag is stored before the publish `psync`
//! returns, so a torn publication has no durable effect — and otherwise
//! `Help(RD_q)` and the done bit decide. Every image of a crashed publish —
//! `(Null, 0)`, `(Null, d)`, `(info, 0)`, `(info, d)` over a complete or a
//! torn descriptor — is decided that way (DESIGN.md §12, "Validated
//! publication").
//! An operation that finds nothing to change (a `find`, an `insert` of a
//! present key, …) never reaches a publish in this arm: it leaves the line
//! as the glue (or an earlier, failed attempt) left it, which step 4 maps to
//! a restart, and re-invoking an operation that changed nothing is a legal
//! linearisation (DESIGN.md §12). The glue of the *next* invocation then
//! reads the line back as `(Null, 0)` — durably so, since every store that
//! makes a slot fresh is made with its barrier — and skips both the stores
//! and the barrier: an operation that follows a no-effect one on the same
//! pid pays for its invocation nothing at all.
//!
//! A caller that writes intent records of its own around the structure (a
//! write-ahead log, a request journal) needs the glue *earlier* than the
//! operation's prologue, before its record: it runs it through
//! [`RecArea::mark_invoked`]. Under `Isb-LP` the prologue that follows
//! reads the line back fresh and persists nothing again; arms 0/1 persist
//! `CP_q := 0` a second time.
//!
//! A caller whose durable per-operation record *is* the invocation record
//! needs no glue at all. The KV service's client slot
//! ([`crate::resptable`]) stores the lane's `RD_q` as it stands into its
//! `prior` word before its `pending` word, in one line, and hands its
//! record over ([`record_invocation`]): the `Isb-LP` prologue that follows
//! runs no glue and stores, in the recovery line before any `RD_q` of the
//! operation, the line as it found it — the rollback target — and the
//! record checks: the slot's `pending` must have reached the request's
//! sequence number, and a handed-over slot's `last_seq` its own
//! ([`crate::recarea`]). Each publish of that operation then writes back the
//! record's line, the descriptor and the recovery line in its one `psync`
//! window, with no fence ahead of it; step 4 treats a publication whose
//! digest or record check fails as torn and rolls the line back, durably,
//! to that target ([`RecArea::validated`]), and retires the record of one
//! it finds whole before deciding it. Step 1's purpose — recovery never
//! attaching an older operation's completed descriptor to the new one — is
//! then served by the record: an in-flight request whose pid's `RD_q` still
//! equals its `prior` published nothing and resolves `Restart`; any other
//! `RD_q` is one of its own attempts, decided by step 4. `RD_q` keeps its
//! reference on `prior` until the operation returns
//! ([`crate::env::Env::release_prior`]), so no attempt can draw that
//! descriptor back from the pool and make `RD_q == prior` after an effect,
//! and a rollback to `prior` names a live descriptor. The service's reads
//! call [`mark_recorded`] with no record at all: a `find` owes recovery
//! nothing, and its glue would move `RD_q` off the descriptor a deferred
//! response is recovered from ([`crate::resptable`]).

use crate::arm::{CfgWord, KindTag};
use crate::engine::Info;
pub use crate::recarea::{
    mark_recorded, record_invocation, recorded_pending, Check, ProcRec, RecArea, ARENA_SLOT_STRIDE,
};
use crate::tag::Base;
use nvm::{PWord, Persist, PersistWords, MAX_PROCS};

/// Outcome of the generic recovery decision (Op-Recover, lines 22–26).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recovered {
    /// The crashed operation took effect; this is its (encoded) response.
    Completed(u64),
    /// The operation did not take effect and must be re-invoked.
    Restart,
}

impl Recovered {
    /// The boolean response of a completed set operation; `None` on
    /// `Restart`.
    pub fn as_bool(self) -> Option<bool> {
        match self {
            Recovered::Completed(v) => Some(v == crate::engine::RES_TRUE),
            Recovered::Restart => None,
        }
    }
}

/// Generic Op-Recover: decide whether the pending operation of `pid` took
/// effect, completing it via `Help` if necessary.
///
/// # Safety
/// Must be called in a quiescent-or-recovering context where the published
/// info pointer, if any, is a live `Info<M>` (guaranteed by the protocol:
/// never freed while published, nor in crash mode). Its words are followed
/// only once they are known complete: persisted before publication (arms
/// 0/1), or validated by `CP_q`'s digest and the line's record checks
/// (`Isb-LP`, [`RecArea::validated`], which rolls a torn line back), whose
/// new nodes are then live too, as is every word a record check names.
pub unsafe fn op_recover<M: Persist, const ARM: u8>(
    rec: &RecArea<M>,
    pid: usize,
    guard: &reclaim::Guard<'_>,
) -> Recovered {
    // The replay's placement, not the one of the last operation this thread
    // ran: arms 0/1 legitimately re-flush a line.
    nvm::coalesce::lint::set_armed(crate::arm::is_lp(ARM));
    let rd = if crate::arm::is_lp(ARM) {
        // A torn publication — `CP_q` not the digest of what `RD_q` names,
        // or a record check failed — has no durable effect (no tag is
        // stored before its `psync`) and is rolled back first.
        // SAFETY: the caller's; a validated descriptor's new nodes are live.
        unsafe { rec.validated(pid) }
    } else {
        let (cp, rd) = rec.read(pid);
        (cp == 1 && rd != 0).then_some(rd)
    };
    let Some(rd) = rd else {
        return Recovered::Restart;
    };
    match unsafe { crate::engine::help_recovering::<M, ARM>(rec.base, rec.base.at(rd), guard) } {
        crate::engine::RES_BOT => Recovered::Restart,
        res => Recovered::Completed(res),
    }
}

/// **Online** per-pid recovery: a *survivor* of a shared heap resolves the
/// pending operation of a SIGKILLed peer while every structure keeps
/// serving. This is Op-Recover for exactly one pid — `Help` is lock-free
/// and idempotent, so replaying it concurrently with live traffic is the
/// ordinary helping path, not a special mode — followed by a durable slot
/// reset and the release of the slot's descriptor reference.
///
/// `on_decision` runs **after** the decision is computed but **before** the
/// slot is durably cleared. Callers that mirror the decision into their own
/// durable state (the KV response table resolving a dead server's in-flight
/// op-IDs) need exactly this window: if the recoverer dies inside the hook,
/// the slot still carries `CP`/`RD`, so a superseding recoverer recomputes
/// the *same* decision and re-runs the hook — which must therefore be
/// idempotent.
///
/// The sequence is crash-ordered for a recoverer that itself dies: the
/// reference release runs only *after* `RD` is durably nulled, so a
/// superseding recoverer either sees the old `RD` (predecessor had not
/// released — it releases) or `RD = Null` (nothing left to do). A death
/// between the slot clear and the release leaks one reference; the next
/// full attach recomputes true counts and sweeps it.
///
/// # Safety
/// `pid` must belong to a participant that is **dead** (liveness-probed)
/// and whose recovery lease the caller holds
/// ([`nvm::mapped::MappedHeap::lease_try_claim_for`]) — the lease is what
/// makes "at most one resolver at a time" true. The published descriptor,
/// if any, must be a valid `Info` (protocol invariant: persisted before
/// publication, never freed while published).
pub unsafe fn recover_dead_pid_with(
    rec: &RecArea<MappedNvm>,
    pid: usize,
    guard: &reclaim::Guard<'_>,
    on_decision: impl FnOnce(Recovered),
) -> Recovered {
    // SAFETY: caller holds the recovery lease over a validated published
    // descriptor; help is the ordinary concurrent helping path, at the one
    // placement a mapped structure has.
    let decision = unsafe { op_recover::<MappedNvm, { crate::arm::LP }>(rec, pid, guard) };
    // What the slot names once a torn publication is rolled back (only a
    // power-failure image tears one, and attach rolls those back first).
    let rd = rec.published(pid);
    on_decision(decision);
    rec.clear_slot(pid);
    if rd != 0 {
        // SAFETY: the RD slot held one reference on the descriptor and was
        // durably cleared above, so this release runs at most once across
        // recoverer supersessions. A final release recycles the block into
        // this process's pools (one epoch domain per heap).
        unsafe { Info::<MappedNvm>::release(rec.base.at(rd), 1, guard) };
    }
    decision
}

/// Root-directory keys a [`crate::store::Store`] registers in its heap's
/// superblock. Structures are not among them: each one's root block is
/// named by its catalog entry.
pub mod rootkeys {
    /// The heap-wide [`super::RecArea`] slot array (shared by every
    /// structure in a store: one pending operation per process).
    pub const RECAREA: u64 = 0x5245_4341; // "RECA"
    /// The [`crate::store::Store`] catalog block.
    pub const CATALOG: u64 = 0x4341_5441; // "CATA"
    /// The heap's one epoch region ([`reclaim::Collector::shared`]):
    /// global epoch + per-tid announce words, one domain per heap.
    pub const EPOCHS: u64 = 0x4550_4F43; // "EPOC"
    /// The KV-service response table ([`crate::resptable::ResponseTable`]):
    /// one slot per client holding its dedup pair and the op-ID in flight,
    /// resolved against the replay decisions on every attach.
    pub const RESPTAB: u64 = 0x5245_5350; // "RESP"
}

use crate::env::{Env, Infos};
use crate::graph::{census_unit, scrub, validate_unit, Graph};
use nvm::mapped::{fan_out, MapError, MappedHeap, MappedNvm};
use reclaim::Collector;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Typed failures of the mapped attach path ([`crate::store::Store`] and the
/// [`MappedLayout`] driver under it). Every shape of damaged image, mismatched
/// configuration or non-quiescing recovery surfaces here — attach never
/// panics the process and never exhibits undefined behaviour.
#[derive(Debug)]
pub enum AttachError {
    /// Heap-level failure (I/O, corruption, exhaustion, superblock kind).
    Map(MapError),
    /// The post-replay scrub did not quiesce within its pass budget: some
    /// tagged descriptor could not be helped to completion, which no crash
    /// of a correct execution can produce (a diagnosis, not a panic).
    ScrubStalled {
        /// Structure kind name ([`Graph::kind_name`]).
        kind: &'static str,
        /// The work unit that did not quiesce (e.g. the hash-map shard).
        unit: usize,
        /// Passes attempted before giving up ([`crate::graph::SCRUB_PASSES`]).
        passes: usize,
    },
    /// The named entry hosts a different structure kind than the caller
    /// asked for — or, with an empty name, the heap is not a store's.
    WrongKind {
        /// Entry name (empty for the heap's own superblock kind).
        name: String,
        /// Kind tag the caller expected.
        expected: u64,
        /// Kind tag recorded in the image.
        found: u64,
    },
    /// The entry exists with a different configuration word (shard count /
    /// tuning) than the caller asked for.
    CfgMismatch {
        /// Entry name.
        name: String,
        /// Configuration word the caller expected.
        expected: u64,
        /// Configuration word recorded in the image.
        found: u64,
    },
    /// The named entry was written in a format this build no longer opens
    /// (a stack of the retired direct-tracked format). Refused before any
    /// entry is opened or recovered: the entry and every structure in the
    /// heap stay as they were. (The heap-level attach that precedes reading
    /// the catalog has already run, as on every open: it persisted a new
    /// attach epoch and rebuilt the allocator's free stacks.)
    RetiredFormat {
        /// Entry name.
        name: String,
        /// The retired format, as an operator reads it.
        format: &'static str,
    },
    /// The caller passed an unusable configuration (e.g. a non-power-of-two
    /// shard count). Rejected **before** anything durable happens — a bad
    /// config must never reach the catalog, where it would brick the heap.
    InvalidCfg {
        /// Structure kind name.
        kind: &'static str,
        /// What was wrong.
        reason: String,
    },
    /// The caller passed an unusable entry name (empty, or longer than the
    /// catalog's inline name buffer). Rejected before anything durable
    /// happens.
    InvalidName {
        /// The offending name.
        name: String,
    },
    /// The KV response table carries state no crash of a correct execution
    /// can produce (e.g. a `pending` word naming a tid that does not exist,
    /// or the header magic of the retired two-array layout).
    /// Torn-but-reachable shapes are *healed* instead; this is the
    /// unreachable-shape diagnosis, surfaced typed rather than UB.
    CorruptResponseTable {
        /// Table position of the offending client slot (0 for the header).
        slot: usize,
        /// What was wrong.
        reason: &'static str,
    },
}

impl std::fmt::Display for AttachError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttachError::Map(e) => write!(f, "{e}"),
            AttachError::ScrubStalled { kind, unit, passes } => {
                write!(f, "{kind} unit {unit}: scrub did not quiesce after {passes} passes")
            }
            AttachError::WrongKind { name, expected, found } => {
                let (found, want) = (KindTag(*found), KindTag(*expected));
                if !name.is_empty() {
                    return write!(f, "entry {name:?} hosts {found}, expected {want}");
                }
                // Kinds 1..=5 are the stamps of the retired single-structure heap.
                let opens =
                    if found.name().is_some() { "no longer opens" } else { "does not open" };
                write!(f, "heap hosts {found}, a heap format this build {opens}; expected {want}")
            }
            AttachError::CfgMismatch { name, expected, found } => {
                let (was, now) = (CfgWord(*found), CfgWord(*expected));
                write!(f, "entry {name:?} was created with {was}, this build opens it with ")?;
                // Say on the second side only what differs from the first.
                match (was.arm() == now.arm(), was.shards() == now.shards()) {
                    (false, true) => write!(f, "{}", now.arm_name()),
                    (true, false) => write!(f, "{} shards", now.low()),
                    _ => write!(f, "{now}"),
                }
            }
            AttachError::RetiredFormat { name, format } => {
                write!(f, "entry {name:?} holds {format}, a format this build no longer opens")
            }
            AttachError::InvalidCfg { kind, reason } => {
                write!(f, "unusable {kind} configuration: {reason}")
            }
            AttachError::InvalidName { name } => {
                write!(
                    f,
                    "unusable entry name {name:?} (must be 1..={} bytes)",
                    nvm::mapped::CATALOG_NAME_BYTES
                )
            }
            AttachError::CorruptResponseTable { slot, reason } => {
                write!(f, "response table slot {slot}: {reason}")
            }
        }
    }
}

impl std::error::Error for AttachError {}

impl From<MapError> for AttachError {
    fn from(e: MapError) -> Self {
        AttachError::Map(e)
    }
}

/// What the generic driver hands a [`MappedLayout::open`] implementation:
/// the attached heap and the way to an [`Env`] inside it ([`AttachEnv::env`]).
pub struct AttachEnv {
    /// The opened (or freshly created) heap.
    pub heap: Arc<MappedHeap>,
    /// The heap-wide recovery-slot block.
    pub(crate) rec_base: *const u8,
    /// The heap's epoch region: every structure's collector, in every
    /// attached process, attaches here, forming one epoch domain.
    pub(crate) epoch_region: *mut u8,
    /// The attacher's own environment: the view of the recovery slots the
    /// attach replay and [`crate::store::Store::recover_peer`] decide over,
    /// the collector they pin, and the heap-wide descriptor pools every
    /// structure's environment shares.
    pub(crate) own: Env<MappedNvm>,
}

impl AttachEnv {
    /// The attach prologue of every store open, as single owner or as
    /// joiner: the check that the heap is a store's, the heap-wide recovery
    /// area and its recorded geometry, the heap's epoch region, and the
    /// heap-wide descriptor pools. Returns the environment and whether the
    /// heap is fresh.
    pub(crate) fn open(heap: Arc<MappedHeap>) -> Result<(Self, bool), AttachError> {
        let (joined, found) = (heap.report().joined, heap.kind());
        let expected = crate::store::KIND_STORE;
        // kind == 0 also covers a creation cut short before the final stamp:
        // every init step is idempotent, so re-running completes it. (Not for
        // a joiner: the initial attacher stamps the kind before it lets
        // anyone in.)
        let fresh = found == 0 && !joined;
        if !fresh && found != expected {
            return Err(AttachError::WrongKind { name: String::new(), expected, found });
        }
        let (rec_base, _) =
            heap.root_alloc(rootkeys::RECAREA, RecArea::<MappedNvm>::slots_bytes())?;
        // Record (fresh) or validate (re-attach) the recovery-area geometry in
        // the superblock: a binary compiled with different MAX_PROCS / slot
        // stride must fail typed instead of misreading a peer's slots.
        heap.validate_rec_geometry(MAX_PROCS as u64, ARENA_SLOT_STRIDE as u64)?;
        let (epoch_region, created) =
            heap.root_alloc(rootkeys::EPOCHS, reclaim::shared_region_bytes())?;
        if !joined {
            // SAFETY: committed root block of the required size; we are the
            // sole live participant (attach flock held), so re-initialising
            // over a prior run's stale pins is safe — and required, since a
            // SIGKILLed fleet leaves announce words pinned forever.
            unsafe { Collector::init_shared_region(epoch_region) };
        } else if created {
            // A live heap always carries the epoch region (the initial
            // attacher installs it before releasing the lock).
            return Err(MapError::BadSuperblock("live heap without an epoch region").into());
        }
        // SAFETY: `rec_base` / `epoch_region` are the root blocks of `heap`
        // obtained above. `None`: this is where the heap-wide pool is built.
        let own = unsafe { Self::env_over(rec_base, epoch_region, None, heap.clone()) };
        Ok((Self { heap, rec_base, epoch_region, own }, fresh))
    }

    /// An environment in `heap`: a collector attached to the heap's epoch
    /// region, where every structure and process forms a single epoch
    /// domain — required, since a descriptor `RD_q` hands over may be
    /// released through another structure's environment than the one it
    /// was helped in, and a node retired by one process may be read by any
    /// peer — over a view of the recovery slots.
    ///
    /// # Safety
    /// `rec_base` must be `heap`'s committed recovery-slot root block
    /// (`RecArea::slots_bytes()` zero-initialised bytes) and `epoch_region`
    /// its committed EPOCHS root block (`shared_region_bytes()` long,
    /// 64-aligned, initialised by the initial attacher before any joiner
    /// builds structures); both live as long as the heap, which the
    /// environment keeps alive.
    unsafe fn env_over(
        rec_base: *const u8,
        epoch_region: *mut u8,
        infos: Option<Arc<Infos<MappedNvm>>>,
        heap: Arc<MappedHeap>,
    ) -> Env<MappedNvm> {
        // SAFETY: the caller's EPOCHS block.
        let collector = unsafe { Collector::shared(epoch_region) };
        let base = Base(heap.base() as usize);
        Env::mapped(unsafe { RecArea::attach_raw(rec_base, base) }, collector, infos, heap)
    }

    /// The environment of one structure in the heap: its own collector (in
    /// the heap's epoch domain), its own view of the **same** recovery slots,
    /// the heap-wide descriptor pools, and the heap its node pool draws
    /// arena blocks from.
    pub fn env(&self) -> Env<MappedNvm> {
        let infos = Some(self.own.infos.clone());
        // SAFETY: the root blocks of `self.heap` (`open`).
        unsafe { Self::env_over(self.rec_base, self.epoch_region, infos, self.heap.clone()) }
    }
}

/// Persists a freshly created structure's durable roots **sentinels first,
/// root words last**: every drawn sentinel is written back, a fence orders
/// those write-backs, then `roots[i] := values[i]`, the root lines are
/// written back, and a final fence makes them durable. A power failure
/// anywhere in the sequence therefore never leaves a durable root naming a
/// sentinel whose fields did not reach memory: either the root word is
/// still zero (the creation re-runs; the abandoned sentinels are swept by
/// the next non-fresh attach) or everything it names is durable. Storing a
/// value a root already holds is harmless, so re-running is idempotent.
///
/// # Safety
/// Single-threaded creation; every sentinel is a live, initialised node.
pub(crate) unsafe fn install_roots<M: Persist, N: PersistWords<M>>(
    sentinels: &[*mut N],
    roots: &[PWord<M>],
    values: &[u64],
) {
    assert_eq!(roots.len(), values.len());
    for &s in sentinels {
        M::pwb_obj(unsafe { &*s });
    }
    M::pfence();
    for (w, &v) in roots.iter().zip(values) {
        w.store(v);
    }
    M::pwb_obj(roots);
    M::psync();
}

/// A structure's root block, the words its initial shape hangs from: owned
/// on the process heap by an in-process structure, or a root block of the
/// mapped backend's persistent arena, which must survive the process. Either
/// way the kind's one construction function builds over it, sentinels
/// before roots ([`install_roots`]).
pub(crate) enum Rooted<T: ?Sized> {
    /// The in-process models.
    Owned(Box<T>),
    /// A root block of the structure's [`MappedHeap`].
    Arena(*const T),
}

impl<T: ?Sized> std::ops::Deref for Rooted<T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        match self {
            Rooted::Owned(b) => b,
            // SAFETY: the arena root block outlives the structure (which
            // keeps its MappedHeap alive).
            Rooted::Arena(p) => unsafe { &**p },
        }
    }
}

impl<M: Persist> Rooted<[PWord<M>]> {
    /// An in-process root block of `words` zero words. The structure holds
    /// it for its lifetime: the crash simulator registers the words when the
    /// creation stores to them.
    pub(crate) fn zeroed(words: usize) -> Self {
        Rooted::Owned((0..words).map(|_| PWord::new(0)).collect())
    }
}

/// A mapped structure's root block as persistent words.
///
/// # Safety
/// `root` must be a committed root block of at least `words * 8` bytes that
/// outlives the returned block (the structure keeps its heap alive).
pub(crate) unsafe fn root_words(root: *mut u8, words: usize) -> Rooted<[PWord<MappedNvm>]> {
    Rooted::Arena(std::ptr::slice_from_raw_parts(root as *const PWord<MappedNvm>, words))
}

/// What a kind supplies to the attach driver beyond its [`Graph`] — the
/// object-safe half of [`MappedLayout`] (a [`crate::store::Store`] drives a
/// heterogeneous set of these). Validation, census, reachability and the
/// default scrub are *derived* from [`Graph::walk`] by the driver
/// ([`finish_attach`]); a kind states only facts, plus the two policies that
/// differ on purpose.
///
/// All methods run during the quiescent attach sequence: no structure
/// operation runs concurrently.
pub trait SlotOps: Graph<MappedNvm> + std::any::Any + Send + Sync {
    /// Size of one node. The driver admits a pointer only when this whole
    /// span, 8-aligned, lies inside the mapping — for the walk over the
    /// untrusted image and for every value a descriptor installs.
    fn node_bytes(&self) -> usize;

    /// Post-replay scrub **policy**. The default is the eager one: the
    /// scrub visitor over every unit, helping at `Isb-LP` as every live
    /// operation and the replay do; the queue and the BST run it. The set kinds
    /// ([`crate::hashmap::RHashMap`], and the list and stack over it)
    /// override it on purpose: they *defer* the pass to first contact per
    /// shard (attach stays O(descriptors), not O(keys)).
    fn attach_scrub(&self) -> Result<(), AttachError> {
        scrub::<MappedNvm, { crate::arm::LP }>(self, &Collector::new())
    }

    /// Post-scrub structural repair (the queue's tail-hint heal).
    fn heal(&mut self) {}

    /// Every arena block currently cached in this structure's node pool
    /// (kept out of the sweep; the driver adds the heap-wide descriptor
    /// pools').
    fn each_cached(&mut self, f: &mut dyn FnMut(usize));
}

/// A mapped structure kind: everything the generic attach driver needs to
/// create, re-open and recover one detectably recoverable structure inside
/// a [`MappedHeap`] — the per-kind constants and constructor on top of the
/// facts of [`SlotOps`] and the traversal of [`Graph`].
///
/// Implementations are thin: the whole remap → validate → replay → scrub →
/// census → sweep lifecycle lives once in [`crate::store::Store`] and
/// [`finish_attach`], shared by every structure. Each kind implements it
/// (and [`SlotOps`]) at `Isb-LP` only: that is the one placement a mapped
/// structure has, and the one the replay and the scrub run.
pub trait MappedLayout: SlotOps + Sized {
    /// Structure-kind tag of the catalog entry.
    const KIND: u64;
    /// Construction parameters beyond the heap (e.g. shard count).
    type Cfg: Copy;

    /// Rejects unusable configurations with a typed error **before**
    /// anything durable happens — once a config reaches the catalog it is
    /// permanent, so a bad one must never get that far.
    fn validate_cfg(_cfg: Self::Cfg) -> Result<(), AttachError> {
        Ok(())
    }

    /// Encodes `cfg` (plus the arm, `Isb-LP`, in bits 32..40) into the
    /// persisted configuration word checked on re-attach.
    fn cfg_word(cfg: Self::Cfg) -> u64;

    /// Size of the structure's persistent root block.
    fn root_bytes(cfg: Self::Cfg) -> usize;

    /// Constructs the structure over `root` (a committed, zero-initialised
    /// on first use root block of [`MappedLayout::root_bytes`] bytes inside
    /// `env.heap`) through the kind's one construction function, the one its
    /// in-process constructor runs over owned words: it installs fresh roots
    /// when the block is still zeroed (through `install_roots`, sentinels
    /// first) and loads them otherwise. Idempotent — a creation cut short by
    /// a kill re-runs it.
    ///
    /// # Safety
    /// `root` must be such a block, and no other thread may be creating the
    /// same structure (single-threaded attach, or the heap's file lock).
    unsafe fn open(env: &AttachEnv, cfg: Self::Cfg, root: *mut u8) -> Result<Self, AttachError>;
}

/// The shared restart-recovery epilogue over an already re-attached heap,
/// every walk of it a visitor over [`Graph::walk`]:
///
/// 1. **validate** every structure's graph and every referenced descriptor
///    against the mapping (typed [`MapError::CorruptPointer`], never UB): the
///    walk admits a pointer only when its whole node span lies inside the
///    mapping, stops at a budget of the heap's block count, and only
///    *collects* the descriptors it sees for [`validate_infos`],
/// 2. **replay** Op-Recover per pid over the shared recovery area, with
///    refcount bookkeeping suspended,
/// 3. **scrub** every structure per its policy ([`SlotOps::attach_scrub`];
///    typed [`AttachError::ScrubStalled`] on a non-quiescing image) and run
///    structural heals,
/// 4. **census + sweep** over the **union** of all structures' live sets:
///    every reachable node, and per descriptor the number of cells that
///    reference it (tagged cells too, so a descriptor kept alive only by a
///    not-yet-scrubbed tag survives); rebuild every surviving descriptor's
///    volatile bookkeeping and garbage-collect blocks the dead process
///    leaked.
///
/// Validation and census are split into [`Graph::work_units`] and run on
/// attach-scoped worker threads; everything else stays on the attaching
/// thread.
///
/// # Safety
/// Quiescent single-threaded attach over the heap `env` was opened on;
/// `slots` must cover **every** structure it hosts (a missing one would have
/// its blocks swept) and `extra_live` every root/metadata block address
/// beyond the prologue's own (recovery area, epoch region). The calling
/// thread must be registered.
pub unsafe fn finish_attach(
    env: &AttachEnv,
    slots: &mut [Box<dyn SlotOps>],
    extra_live: &[usize],
) -> Result<(Vec<(usize, Recovered)>, usize), AttachError> {
    let (heap, rec) = (&*env.heap, &env.own.rec);
    let in_node = |s: &dyn SlotOps, off: u64| {
        off & 7 == 0 && heap.contains_span(off as usize, s.node_bytes())
    };
    // 1. Pre-recovery validation of the untrusted image: no link is
    // followed by the replay/scrub/census below unless the whole object
    // graph stays inside the mapping and terminates. This is what turns a
    // damaged link into a typed error instead of undefined behaviour.
    let par_start = std::time::Instant::now();
    let units: Vec<(usize, usize)> = slots
        .iter()
        .enumerate()
        .flat_map(|(i, s)| (0..s.work_units().max(1)).map(move |u| (i, u)))
        .collect();
    // The heap's block count bounds every structure's node count: two
    // half blocks per granule at most.
    let budget = 2 * heap.bump_granules() + 8;
    let mut infos: HashSet<u64> = HashSet::new();
    let validated = fan_out(
        units.len(),
        || Ok(HashSet::new()),
        |acc: &mut Result<HashSet<u64>, MapError>, k| {
            let (i, u) = units[k];
            let Ok(local) = acc else { return };
            let s = &*slots[i];
            // SAFETY: `in_node` admits whole-node spans inside the mapping.
            if let Err(addr) = unsafe { validate_unit(s, u, &|a| in_node(s, a), budget, local) } {
                *acc = Err(MapError::CorruptPointer { addr });
            }
        },
    );
    for local in validated {
        infos.extend(local?);
    }
    let validate_elapsed = par_start.elapsed();
    // A value a descriptor installs is a node pointer the census walk will
    // dereference: it must be a whole node of some structure in the heap.
    let valid_install = |a| slots.iter().any(|s| in_node(&**s, a));
    // A torn publication is no damage: it had no durable effect, so its
    // slot is rolled back before anything follows `RD_q` (the replay then
    // decides what its invocation found) rather than the heap refused over
    // a torn word.
    roll_back_torn_publications(heap, rec, valid_install);
    infos.extend(rec.published_words());
    validate_infos::<MappedNvm>(heap, &infos, valid_install)?;

    // 2. Replay + scrub with refcount bookkeeping suspended: the counts the
    // dead process persisted are recomputed from scratch below.
    let recovered = crate::engine::with_release_suspended(|| {
        let col = Collector::new();
        let decisions = (0..MAX_PROCS)
            .map(|pid| {
                // SAFETY: quiescent attach; every published descriptor was
                // validated above. Replay runs `Help` at `Isb-LP`, the one
                // placement a mapped structure has.
                (pid, unsafe { op_recover::<MappedNvm, { crate::arm::LP }>(rec, pid, &col.pin()) })
            })
            .collect::<Vec<_>>();
        for s in slots.iter() {
            s.attach_scrub()?;
        }
        Ok::<_, AttachError>(decisions)
    })?;
    for s in slots.iter_mut() {
        s.heal();
    }

    // 3. Census: the union live set and the true reference count per
    // descriptor across every structure plus the RD slots. Same work-unit
    // fan-out as validation; merging unions the live sets and sums the
    // per-descriptor counts, which equals the serial census because units
    // partition the referencing cells.
    let census_start = std::time::Instant::now();
    let mut live: HashSet<usize> = HashSet::new();
    let mut info_refs: HashMap<u64, u32> = HashMap::new();
    let counted = fan_out(
        units.len(),
        || (HashSet::new(), HashMap::new()),
        |(l_live, l_refs): &mut (HashSet<usize>, HashMap<u64, u32>), k| {
            let (i, u) = units[k];
            // SAFETY: quiescent exclusive access to a validated image; units
            // partition the graph, so no two workers visit the same node.
            unsafe { census_unit(&*slots[i], u, l_live, l_refs) };
        },
    );
    for (l_live, l_refs) in counted {
        live.extend(l_live);
        for (k, v) in l_refs {
            *info_refs.entry(k).or_insert(0) += v;
        }
    }
    // Parallel-phase wall clock: validation up front plus the census here
    // (replay and scrub between them are serial by design).
    nvm::stats::count_attach_par_ms((validate_elapsed + census_start.elapsed()).as_millis() as u64);
    for rd in rec.published_words() {
        *info_refs.entry(rd).or_insert(0) += 1;
    }
    live.extend(extra_live.iter().copied());
    live.extend([env.rec_base as usize, env.epoch_region as usize]);
    for s in slots.iter_mut() {
        s.each_cached(&mut |p| {
            live.insert(p);
        });
    }
    env.own.infos.each_idle(|p| {
        live.insert(p as usize);
    });
    // Rewrite every live descriptor's volatile bookkeeping (recomputed
    // reference count) and keep it.
    for (&info, &cnt) in &info_refs {
        // SAFETY: quiescent; `info_refs` holds the true counts (cells + RD
        // slots) of descriptors validated above.
        let info = rec.base.at::<Info<MappedNvm>>(info);
        unsafe { (*info).reset_after_attach(cnt) };
        live.insert(info as usize);
    }
    // SAFETY: quiescent; `live` covers roots, graphs, descriptors and this
    // process's caches across every structure in the heap.
    let swept = unsafe { heap.sweep_except(&live) };
    Ok((recovered, swept))
}

/// Rolls back, durably, every recovery slot that names a torn publication
/// ([`RecArea::validated`]): one the process died inside, with its
/// descriptor, a new node or a record word not on media. Its rollback
/// target — a recorded invocation's `prior`, or `(Null, 0)` — is what
/// [`validate_infos`] then checks. A slot whose `RD_q` is on media beside
/// `CP_q` still the glue's 0, an image whose descriptor nothing vouches
/// for, is cleared. Every such slot decides as its rollback target does (a
/// mapped structure is `Isb-LP`), and the census recomputes the references
/// without the torn descriptor. The descriptor is read only once it is a
/// committed block of its class ([`Info::in_block`]) and never past the
/// block, its new nodes only once [`Info::validate_bounds`] admits them,
/// and a record word only inside the mapping (one outside fails its
/// check); a sealed slot that fails either of the first two is left for
/// [`validate_infos`] to refuse.
fn roll_back_torn_publications(
    heap: &MappedHeap,
    rec: &RecArea<MappedNvm>,
    valid_install: impl Fn(u64) -> bool + Copy,
) {
    let cell_ok = |a: u64| a & 7 == 0 && heap.contains_span(a as usize, 8);
    for pid in 0..MAX_PROCS {
        let (cp, rd) = rec.read(pid);
        if rd == 0 {
            continue;
        }
        if cp == 0 {
            rec.clear_slot(pid);
            continue;
        }
        let info = rec.base.at::<Info<MappedNvm>>(rd);
        // SAFETY: every read is inside the committed block of `n` bytes at
        // `rd`, a descriptor of its class once `in_block` holds, and the
        // reads past it are inside the mapping: every new node's span and
        // every admitted record word.
        let torn = |n| unsafe {
            Info::in_block(info, n)
                && (!Info::sealed_by(info, rd, cp)
                    || Info::validate_bounds(info, n, cell_ok, valid_install)
                        && rec.torn(pid, cell_ok))
        };
        let torn = cp & crate::engine::SEALED != 0
            && cell_ok(rd)
            && heap.committed_payload_bytes(info as *const u8).is_some_and(torn);
        if torn {
            rec.roll_back(pid);
        }
    }
}

/// Pre-recovery validation of every collected descriptor offset against the
/// mapping: the descriptor must be a **committed block** of the heap, whose
/// payload size bounds every read, and (via [`Info::validate_bounds`]) a
/// block of its class whose shape fits it, every cell offset it names must
/// have an in-heap 8-byte span, and every value it installs must satisfy
/// `valid_install` (callers pass a node-span check — installed values are
/// node offsets the census walk will follow). Any violation is a typed
/// [`nvm::MapError::CorruptPointer`] naming the offending word, never a
/// dereference.
pub fn validate_infos<M: Persist>(
    heap: &nvm::mapped::MappedHeap,
    infos: &std::collections::HashSet<u64>,
    valid_install: impl Fn(u64) -> bool + Copy,
) -> Result<(), nvm::MapError> {
    let cell_ok = |a: u64| a & 7 == 0 && heap.contains_span(a as usize, 8);
    for &info in infos {
        let at = Base(heap.base() as usize).at::<Info<M>>(info);
        let block = heap.committed_payload_bytes(at as *const u8);
        // SAFETY: read only inside the committed block at `info`.
        let valid = |n| unsafe { Info::validate_bounds(at, n, cell_ok, valid_install) };
        if !cell_ok(info) || !block.is_some_and(valid) {
            return Err(nvm::MapError::CorruptPointer { addr: info });
        }
    }
    Ok(())
}

/// What a [`crate::store::Store`] open found and did: the heap-level
/// [`nvm::mapped::AttachReport`] plus the structure-level recovery outcome.
#[derive(Debug)]
pub struct AttachSummary {
    /// Heap-level report (created / joined / poisoned torn blocks / …).
    pub heap: nvm::mapped::AttachReport,
    /// Per-pid Op-Recover decisions of the replay pass (empty on a fresh
    /// heap). `Completed(res)` carries the crashed operation's response.
    pub recovered: Vec<(usize, Recovered)>,
    /// Committed blocks swept by the attach-time garbage collection (blocks
    /// the killed process leaked from pool caches and deferred-free bags).
    pub swept: usize,
}

impl AttachSummary {
    /// The summary of an attach that replayed nothing: a fresh heap, or a
    /// join of a live one.
    pub(crate) fn of(heap: &MappedHeap) -> Self {
        Self { heap: *heap.report(), recovered: Vec::new(), swept: 0 }
    }

    /// The replayed recovery decision for `pid` (`Restart` on a fresh heap).
    pub fn decision(&self, pid: usize) -> Recovered {
        self.recovered
            .iter()
            .find(|(p, _)| *p == pid)
            .map(|(_, r)| *r)
            .unwrap_or(Recovered::Restart)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{help, Info, InfoFill, RES_TRUE};
    use crate::pool::{Pool, PoolItem};
    use nvm::CountingNvm;
    use reclaim::Collector;

    type M = CountingNvm;

    /// What an operator reads when a build meets a heap stamped by another:
    /// arm names and shard counts, not two hex words.
    #[test]
    fn cfg_mismatch_reads_as_arms_and_shards() {
        use crate::hashmap::RHashMap;
        use crate::queue::RQueue;
        use nvm::mapped::MappedNvm;
        // The retired arm's stamp: the same word with arm byte 2.
        let retired = |word: u64| word & 0xFFFF_FFFF | (crate::arm::RETIRED as u64) << 32;
        let map = RHashMap::<MappedNvm, 3>::cfg_word;
        let show = |name: &str, found: u64, expected: u64| {
            AttachError::CfgMismatch { name: name.into(), expected, found }.to_string()
        };
        assert_eq!(
            show("kv", retired(map(256)), map(256)),
            "entry \"kv\" was created with arm Isb-Coal (256 shards), \
             this build opens it with Isb-LP"
        );
        assert_eq!(
            show("kv", map(8), map(16)),
            "entry \"kv\" was created with arm Isb-LP (8 shards), \
             this build opens it with 16 shards"
        );
        assert_eq!(
            show("kv", retired(map(8)), map(16)),
            "entry \"kv\" was created with arm Isb-Coal (8 shards), \
             this build opens it with arm Isb-LP (16 shards)"
        );
        let queue = RQueue::<MappedNvm, 3>::cfg_word(());
        assert_eq!(
            show("jobs", retired(queue), queue),
            "entry \"jobs\" was created with arm Isb-Coal, this build opens it with Isb-LP"
        );
        // An arm byte no build ever stamped stays legible as what it is.
        assert!(show("jobs", queue | 0xAB << 32, queue).contains("arm 0xab,"));
    }

    #[test]
    fn begin_resets_and_publish_installs() {
        let _gate = crate::counters::gate_shared();
        nvm::tid::set_tid(0);
        let rec: RecArea<M> = RecArea::new();
        assert_eq!(rec.read(3), (0, 0), "fresh slot");
        let prev = rec.begin::<0>(3);
        assert_eq!(prev, 0);
        assert_eq!(rec.read(3), (1, 0), "CP set, RD null");
        rec.publish(3, 0xABC0);
        assert_eq!(rec.read(3), (1, 0xABC0));
        // Next operation: begin returns the previous RD and resets.
        let prev = rec.begin::<1>(3);
        assert_eq!(prev, 0xABC0);
        assert_eq!(rec.read(3), (1, 0));
    }

    #[test]
    fn begin_readonly_only_clears_checkpoint() {
        let _gate = crate::counters::gate_shared();
        nvm::tid::set_tid(0);
        let rec: RecArea<M> = RecArea::new();
        rec.begin::<0>(1);
        rec.publish(1, 0x1230);
        let prev = rec.begin_readonly(1);
        assert_eq!(prev, 0x1230, "RD untouched by the read-only prologue");
        assert_eq!(rec.read(1), (0, 0x1230), "CP cleared, RD kept");
    }

    /// The Op-Recover decision table (Algorithm 1, lines 22–26).
    #[test]
    fn op_recover_decision_table() {
        let _gate = crate::counters::gate_shared();
        nvm::tid::set_tid(0);
        let c = Collector::new();
        let rec: RecArea<M> = RecArea::new();

        // CP = 0 ⇒ restart, regardless of RD.
        {
            let g = c.pin();
            assert_eq!(unsafe { op_recover::<M, 0>(&rec, 0, &g) }, Recovered::Restart);
        }
        // CP = 1, RD = Null ⇒ restart.
        rec.begin::<0>(0);
        {
            let g = c.pin();
            assert_eq!(unsafe { op_recover::<M, 0>(&rec, 0, &g) }, Recovered::Restart);
        }
        // CP = 1, RD → info whose help cannot proceed and is not done ⇒ restart.
        let cell: nvm::PWord<M> = nvm::PWord::new(0xDEAD0);
        let info = Box::into_raw(Box::new(Info::<M>::fresh()));
        unsafe {
            Info::fill(
                info,
                &InfoFill {
                    optype: 1,
                    affect: &[(&cell as *const _ as u64, 0x5550)], // stale expected
                    write: &[],
                    newset: &[],
                    node_words: 0,
                    del_mask: 0,
                    presult: RES_TRUE,
                },
            );
        }
        rec.publish(0, info as u64);
        {
            let g = c.pin();
            assert_eq!(unsafe { op_recover::<M, 0>(&rec, 0, &g) }, Recovered::Restart);
        }
        // CP = 1, RD → info whose help completes ⇒ Completed(presult).
        let cell2: nvm::PWord<M> = nvm::PWord::new(0);
        let info2 = Box::into_raw(Box::new(Info::<M>::fresh()));
        unsafe {
            Info::fill(
                info2,
                &InfoFill {
                    optype: 1,
                    affect: &[(&cell2 as *const _ as u64, 0)],
                    write: &[],
                    newset: &[],
                    node_words: 0,
                    del_mask: 0,
                    presult: RES_TRUE,
                },
            );
        }
        rec.publish(0, info2 as u64);
        {
            let g = c.pin();
            assert_eq!(unsafe { op_recover::<M, 0>(&rec, 0, &g) }, Recovered::Completed(RES_TRUE));
        }
        // Drop the descriptors (test owns them).
        unsafe {
            drop(Box::from_raw(info));
            drop(Box::from_raw(info2));
        }

        // `Isb-LP`: `CP_q` is the digest of the publication `RD_q` names. A
        // complete one is decided by `Help`; every torn image of one —
        // a descriptor word, a new-node word, or the recovery line's
        // `{CP_q new, RD_q old}` — by `Restart`, sound because no tag is
        // stored before the publish `psync` returns.
        let lp = |image: &dyn Fn(&LpPublication), want: Recovered, row: &str| {
            let p = LpPublication::new(&rec);
            image(&p);
            let got = unsafe { op_recover::<M, { crate::arm::LP }>(&rec, 0, &c.pin()) };
            assert_eq!(got, want, "{row}: {}", unsafe { rec.describe(0) });
            let applied = want != Recovered::Restart;
            assert_eq!(p.effect.load() != 0, applied, "{row}: the write");
        };
        lp(&|_| {}, Recovered::Completed(RES_TRUE), "complete");
        // A torn `meta` reads `POISON`, whose `DONE` bit is set.
        lp(&|p| p.word(0).store(nvm::sim::POISON), Recovered::Restart, "torn meta");
        lp(&|p| p.word(3).store(nvm::sim::POISON), Recovered::Restart, "torn set word");
        lp(&|p| p.node[0].store(nvm::sim::POISON), Recovered::Restart, "torn new node");
        lp(&|p| p.node[1].store(nvm::sim::POISON), Recovered::Restart, "torn new-node link");
        let old = LpPublication::new(&rec);
        let done = unsafe { help::<M, { crate::arm::LP }>(Base(0), old.info, true, &c.pin()) };
        assert_eq!(done, crate::engine::HelpOutcome::Done);
        let rd_old = |_: &LpPublication| rec.slot(0).rd.store(old.info as u64);
        lp(&rd_old, Recovered::Restart, "{CP_q new, RD_q old}: not the old one's Completed");
        // Done, then its new node linked on and untagged: still its own.
        let relinked = |p: &LpPublication| {
            let g = c.pin();
            let done = unsafe { help::<M, { crate::arm::LP }>(Base(0), p.info, true, &g) };
            assert_eq!(done, crate::engine::HelpOutcome::Done);
            p.node[1].store(0x4000);
            assert_ne!(p.node[2].load(), crate::tag::tagged(p.info as u64), "cleanup untagged it");
        };
        lp(&relinked, Recovered::Completed(RES_TRUE), "done, its new node changed since");
        // A live helper finishes the operation while validation runs (online
        // recovery of a dead peer beside live traffic): `DONE` still clear
        // at the first read, the node untagged by cleanup before it is read.
        let helped_meanwhile = |p: &LpPublication| {
            let info = p.info;
            let help_now: Box<dyn FnOnce()> = Box::new(move || {
                let g = Collector::new();
                let done = unsafe { help::<M, { crate::arm::LP }>(Base(0), info, true, &g.pin()) };
                assert_eq!(done, crate::engine::HelpOutcome::Done);
            });
            crate::engine::VALIDATES_RACE.with(|f| f.set(Some(help_now)));
        };
        lp(&helped_meanwhile, Recovered::Completed(RES_TRUE), "helped between the DONE reads");
        // A recycled descriptor whose previous fill's `meta` — the same
        // shape, `DONE` set — is what reached media beside the new words:
        // the fill generation tells them apart.
        let p = LpPublication::new(&rec);
        let done = unsafe { help::<M, { crate::arm::LP }>(Base(0), p.info, true, &c.pin()) };
        assert_eq!(done, crate::engine::HelpOutcome::Done);
        let stale = p.word(0).load();
        p.publish(&rec);
        p.word(0).store(stale);
        let got = unsafe { op_recover::<M, { crate::arm::LP }>(&rec, 0, &c.pin()) };
        assert_eq!(got, Recovered::Restart, "a recycled descriptor's stale done meta");

        // A recorded publication (the KV slot's) is torn too when a record
        // word it checks is not on media — the request's `pending`, or the
        // `last_seq` of the slot it handed over — and is rolled back to the
        // line its invocation found: `prior`, done, whose `Completed` is
        // the deferred request's acknowledged answer. Its own effect is
        // never applied.
        let prior = LpPublication::new(&rec);
        let done = unsafe { help::<M, { crate::arm::LP }>(Base(0), prior.info, true, &c.pin()) };
        assert_eq!(done, crate::engine::HelpOutcome::Done);
        let (pending, last_seq) = (PWord::<M>::new(5 | 9 << 56), PWord::<M>::new(4));
        let at = |w: &PWord<M>| Base(0).word(w);
        let recorded = |image: &dyn Fn(&LpPublication), rolled_back: bool, row: &str| {
            let checks = [Check { at: at(&pending), seq: 5 }, Check { at: at(&last_seq), seq: 4 }];
            record_invocation(0, checks);
            let p = LpPublication::new(&rec);
            image(&p);
            let got = unsafe { op_recover::<M, { crate::arm::LP }>(&rec, 0, &c.pin()) };
            assert_eq!(got, Recovered::Completed(RES_TRUE), "{row}: {}", unsafe {
                rec.describe(0)
            });
            let want = if rolled_back { prior.info } else { p.info };
            assert_eq!(rec.published(0), want as u64, "{row}: the line after");
            assert_eq!(p.effect.load() != 0, !rolled_back, "{row}: its write");
            pending.store(5 | 9 << 56);
            last_seq.store(4);
            std::mem::forget(p); // the line may still name its descriptor
        };
        recorded(&|_| pending.store(4 | 9 << 56), true, "RD_q, CP_q durable; pending lost");
        recorded(&|_| last_seq.store(3), true, "RD_q, CP_q durable; the hand-over lost");
        let torn_deferred_lost = |p: &LpPublication| {
            p.word(3).store(nvm::sim::POISON);
            last_seq.store(3);
        };
        recorded(&torn_deferred_lost, true, "descriptor torn, the deferred stores lost");
        recorded(&|_| last_seq.store(9), false, "its record on media, a later request's too");
        // A whole recorded publication is decided once: the recovery that
        // finds it whole retires its record before acting on it. Here its
        // attempt failed, so resolution restarts the request and steps its
        // `pending` back below the check; a second recovery (the first one
        // killed, or the next attach) still decides the publication, not
        // `prior`, whose reference the first one's caller may have released.
        record_invocation(0, [Check { at: at(&pending), seq: 5 }, Check::default()]);
        let failed = LpPublication::new(&rec);
        failed.cell.store(0x5550);
        for pass in ["first", "second"] {
            let got = unsafe { op_recover::<M, { crate::arm::LP }>(&rec, 0, &c.pin()) };
            assert_eq!(got, Recovered::Restart, "{pass} recovery of a failed attempt");
            assert_eq!(rec.published(0), failed.info as u64, "{pass} recovery: the line after");
            pending.store(4 | 9 << 56);
        }
        std::mem::forget(failed);
    }

    /// An `Isb-LP` publication on pid 0 of a recovery area: one affect
    /// cell, one write, one three-word new node, published by
    /// [`RecArea::publish_arm`] after the glue. The test owns its memory.
    struct LpPublication {
        cell: Box<PWord<M>>,
        effect: Box<PWord<M>>,
        node: Box<[PWord<M>; 3]>,
        info: *mut Info<M>,
    }

    impl LpPublication {
        fn new(rec: &RecArea<M>) -> Self {
            let p = Self {
                cell: Box::new(PWord::new(0)),
                effect: Box::new(PWord::new(0)),
                node: Box::new([7, 0, 0].map(PWord::new)),
                info: Box::into_raw(Box::new(Info::<M>::fresh())),
            };
            p.publish(rec);
            p
        }

        /// Fills the descriptor — again, for a recycled one — and
        /// publishes it after the glue.
        fn publish(&self, rec: &RecArea<M>) {
            let word = |w: &PWord<M>| w as *const PWord<M> as u64;
            unsafe {
                Info::fill(
                    self.info,
                    &InfoFill {
                        optype: 1,
                        affect: &[(word(&self.cell), 0)],
                        write: &[(word(&self.effect), 0, word(&self.node[0]))],
                        newset: &[word(&self.node[2])],
                        node_words: 3,
                        del_mask: 0,
                        presult: RES_TRUE,
                    },
                );
            }
            self.node[2].store(crate::tag::tagged(self.info as u64));
            let _ = rec.begin::<{ crate::arm::LP }>(0);
            // SAFETY: filled above; its new node is `node`, live.
            unsafe { rec.publish_arm::<{ crate::arm::LP }>(0, self.info as u64) };
        }

        /// Persisted word `k` of the descriptor.
        fn word(&self, k: usize) -> &PWord<M> {
            let (mut n, mut at) = (0, std::ptr::null());
            // SAFETY: the test owns the descriptor.
            unsafe { Info::words(self.info) }.each_word(&mut |w| {
                if n == k {
                    at = w as *const PWord<M>;
                }
                n += 1;
            });
            // SAFETY: a word of the live descriptor.
            unsafe { &*at }
        }
    }

    impl Drop for LpPublication {
        fn drop(&mut self) {
            // SAFETY: the test's own, referenced by nothing live past here.
            drop(unsafe { Box::from_raw(self.info) });
        }
    }

    /// The first half of [`RecArea::clear_slot`], as a peer recoverer killed
    /// between its two barriers leaves `pid`'s line: `CP_q = 0` durable,
    /// `RD_q` still naming the dead operation's descriptor.
    fn torn_clear<N: Persist>(rec: &RecArea<N>, pid: usize) {
        let s = rec.slot(pid);
        s.cp.store(0);
        N::pbarrier(&s.cp);
    }

    /// Flushed lines and fences tid `t` has issued so far.
    fn persists(t: usize) -> (u64, u64) {
        let s = nvm::stats::Snapshot::of_tid(t);
        (s.pwb + s.pbarrier_lines, s.pbarrier + s.pfence + s.psync)
    }

    /// `(lines, fences)` that `f` issues under tid `t`.
    fn cost(t: usize, f: impl FnOnce()) -> (u64, u64) {
        let before = persists(t);
        f();
        let after = persists(t);
        (after.0 - before.0, after.1 - before.1)
    }

    /// Under `Isb-LP` the glue is the whole prologue (one line, one fence),
    /// and `mark_invoked` + prologue runs it once, not twice: whichever call
    /// ran it hands out the previous `RD_q` — once; on a line nothing
    /// published to since the last glue (a fresh slot, or after an operation
    /// with no effect) it costs nothing at all. A line whose `CP_q = 0` sits
    /// beside a named `RD_q` — a peer recoverer's `clear_slot` killed
    /// between its two barriers — is not fresh: it is reset durably, and the
    /// named descriptor handed out.
    #[test]
    fn marked_invocation_persists_the_checkpoint_once() {
        let _gate = crate::counters::gate_shared();
        const T: usize = MAX_PROCS - 3; // counters of its own
        const LP: u8 = crate::arm::LP;
        nvm::tid::set_tid(T);
        let rec: RecArea<M> = RecArea::new();
        // Two unfilled descriptors: a digest reads their words, no node.
        let infos: [Box<Info<M>>; 2] = [(); 2].map(|_| Box::new(Info::fresh()));
        let [x, y] = [0, 1].map(|i| &*infos[i] as *const Info<M> as u64);
        // SAFETY: `x` and `y` are live descriptors without new nodes.
        let publish = |info| unsafe { rec.publish_arm::<LP>(T, info) };
        let first = cost(T, || assert_eq!(rec.begin::<LP>(T), 0));
        assert_eq!(first, (0, 0), "a fresh line elides the glue");
        let unrecorded = cost(T, || publish(x));
        assert_eq!(unrecorded, (1, 1), "one line, its psync: no fence ahead of it");
        let bare = cost(T, || assert_eq!(rec.begin::<LP>(T), x));
        assert_eq!(bare, (1, 1), "the glue barrier is the whole prologue");
        let fresh = cost(T, || {
            assert_eq!(rec.mark_invoked::<LP>(T), 0);
            assert_eq!(rec.begin::<LP>(T), 0);
        });
        assert_eq!(fresh, (0, 0), "after a no-effect operation, marked or not");
        publish(x);
        let marked = cost(T, || {
            let handed = (rec.mark_invoked::<LP>(T), rec.begin::<LP>(T));
            assert_eq!(handed, (x, 0), "the previous RD_q is handed out once");
        });
        assert_eq!(marked, bare, "the prologue must not re-persist what mark_invoked did");
        assert_eq!(rec.read(T), (0, 0));

        publish(y);
        torn_clear(&rec, T);
        assert_eq!(rec.read(T), (0, y), "CP_q = 0, but RD_q is not the glue's Null");
        let reset = cost(T, || assert_eq!(rec.begin::<LP>(T), y));
        assert_eq!(reset, (1, 1), "reset durably");
        assert_eq!(rec.read(T), (0, 0));

        // A recorded invocation's publishes cost what an unrecorded one's
        // do: its record rides the publish `psync`, checked at recovery.
        mark_recorded(T);
        assert_eq!(cost(T, || assert_eq!(rec.begin::<LP>(T), 0, "no glue")), (0, 0));
        assert!(!recorded_pending(), "the prologue consumed the record");
        for info in [x, y] {
            assert_eq!(cost(T, || publish(info)), unrecorded, "one window, no fence ahead");
        }
        assert_eq!(rec.begin::<LP>(T), y);
        assert_eq!(cost(T, || publish(x)), unrecorded);
    }

    /// What the swept invocation does once its glue has run.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Attempt {
        /// Returns at once: an `Isb-LP` no-effect operation.
        None,
        /// Publishes a descriptor whose `Help` cannot take effect, then
        /// returns: a no-effect outcome found after one failed attempt.
        Fails,
        /// Publishes a descriptor and helps it to completion.
        Succeeds,
    }

    /// What ran on the pid between the operation that completed and the
    /// swept invocation.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Before {
        /// Nothing: the line still names the completed operation.
        Completed,
        /// An operation of the swept arm that changed nothing. Under
        /// `Isb-LP` it leaves the line fresh, so the swept glue elides.
        NoEffect,
        /// The arms-0/1 `find` prologue: `CP_q = 0` beside the completed
        /// operation's descriptor, still published.
        Find,
        /// A peer recoverer's `clear_slot`, killed between its barriers
        /// ([`torn_clear`]): the same `(RD_q, 0)` image, the one way it
        /// reaches an `Isb-LP` line.
        TornClear,
    }

    /// The pid's previous operation completed (`CP_q = 1`, `RD_q` → a
    /// descriptor marked done), then `before` ran. Crash the next
    /// invocation at every instruction from `mark_invoked` (or, unmarked,
    /// from the prologue) to its return, over per-word-drop seeds. The
    /// decision is never the previous operation's `Completed`: it is
    /// `Restart`, or — only when the new operation's own attempt can
    /// succeed — that attempt's response. And the previous descriptor is
    /// handed out for release at most once, exactly once if `RD_q` no
    /// longer names it (`Isb-LP`'s glue takes it out and returns it in one
    /// uncrashable step).
    fn no_stale_completed_sweep<const ARM: u8>(before: Before, attempt: Attempt) {
        use nvm::{sim, SimNvm};
        const P: usize = 2;
        const NEXT_RESPONSE: u64 = crate::engine::RES_FALSE;
        let _session = crate::simtest::session();
        nvm::tid::set_tid(P);
        let fill = |info: *mut Info<SimNvm>, cell: &PWord<SimNvm>, expected, presult| unsafe {
            Info::fill(
                info,
                &InfoFill {
                    optype: 1,
                    affect: &[(cell as *const _ as u64, expected)],
                    write: &[],
                    newset: &[],
                    node_words: 0,
                    del_mask: 0,
                    presult,
                },
            );
        };
        let mut crashes = 0u64;
        for marked in [true, false] {
            for seed in 0..64u64 {
                for fuse in 1.. {
                    sim::reset();
                    let c = Collector::new();
                    let rec: RecArea<SimNvm> = RecArea::new();
                    let cells: [Box<PWord<SimNvm>>; 2] =
                        [Box::new(PWord::new(0)), Box::new(PWord::new(0xDEAD0))];
                    let [done, next] =
                        [(); 2].map(|_| Box::into_raw(Box::new(Info::<SimNvm>::fresh())));
                    fill(done, &cells[0], 0, RES_TRUE);
                    // A stale expected value cannot take effect.
                    let expected = if attempt == Attempt::Succeeds { 0xDEAD0 } else { 0x5550 };
                    fill(next, &cells[1], expected, NEXT_RESPONSE);
                    rec.begin::<ARM>(P);
                    // SAFETY: `done` is filled and live; it has no new node.
                    unsafe { rec.publish_arm::<ARM>(P, done as u64) };
                    let decide = || unsafe { op_recover::<SimNvm, ARM>(&rec, P, &c.pin()) };
                    assert_eq!(decide(), Recovered::Completed(RES_TRUE), "the stale verdict");
                    cells[1].store(0xDEAD0); // registers the word
                    sim::persist_all();

                    let handed = std::cell::Cell::new(0);
                    let hand = |prev: u64| handed.set(handed.get() + (prev == done as u64) as u32);
                    match before {
                        Before::Completed => {}
                        Before::NoEffect => hand(rec.begin::<ARM>(P)),
                        Before::Find => assert_eq!(rec.begin_readonly(P), done as u64),
                        Before::TornClear => torn_clear(&rec, P),
                    }
                    if marked {
                        hand(rec.mark_invoked::<ARM>(P));
                    }
                    let crashed = crate::simtest::crashed_at(fuse, seed, || {
                        hand(rec.begin::<ARM>(P));
                        if attempt != Attempt::None {
                            // SAFETY: as `done`.
                            unsafe { rec.publish_arm::<ARM>(P, next as u64) };
                            // SAFETY: `next` is filled, live, and persisted
                            // by `persist_all`.
                            let _ = unsafe { help::<SimNvm, ARM>(Base(0), next, true, &c.pin()) };
                        }
                    });
                    crashes += crashed as u64;
                    let at = format!(
                        "arm {ARM} {before:?} {attempt:?} marked {marked} fuse {fuse} seed {seed}"
                    );
                    let decision = decide();
                    let completed = Recovered::Completed(NEXT_RESPONSE);
                    match attempt {
                        Attempt::Succeeds if !crashed => assert_eq!(decision, completed, "{at}"),
                        Attempt::Succeeds => assert!(
                            [Recovered::Restart, completed].contains(&decision),
                            "{at}: {decision:?} from {:?}",
                            rec.read(P)
                        ),
                        _ => assert_eq!(decision, Recovered::Restart, "{at}: {:?}", rec.read(P)),
                    }
                    let still_named = (rec.read(P).1 == done as u64) as u32;
                    assert!(handed.get() + still_named <= 1, "{at}: released twice");
                    if crate::arm::is_lp(ARM) {
                        assert_eq!(handed.get() + still_named, 1, "{at}: leaked by the glue");
                    }
                    // SAFETY: the test owns both descriptors.
                    unsafe {
                        drop(Box::from_raw(done));
                        drop(Box::from_raw(next));
                    }
                    if !crashed {
                        break;
                    }
                }
            }
        }
        // An `Isb-LP` no-effect invocation, marked or not, is the glue
        // alone: nothing in it can crash.
        if attempt == Attempt::None && crate::arm::is_lp(ARM) {
            assert_eq!(crashes, 0, "the glue is uncrashable");
        } else {
            assert!(crashes >= 640, "the sweep ran: {crashes}");
        }
    }

    /// Mutation-checked, each against the `Isb-LP` elision:
    /// - the line read before the glue's uncrashable half fails at
    ///   `Completed None`, unmarked, fuse 1 — a crash on the load decides
    ///   the previous operation's `Completed`;
    /// - eliding on `CP_q = 0` alone fails at `TornClear Fails`, marked,
    ///   fuse 4, "leaked by the glue" (the old `RD_q` is neither handed out
    ///   nor named once the attempt publishes); without that check, at fuse 7
    ///   the publish has persisted `CP_q = 1` beside the old `RD_q` and the
    ///   decision is its stale `Completed`.
    ///
    /// `Find` runs at arms 0/1 only: it is their own `find`'s prologue, and
    /// no `find` of theirs shares a line with an `Isb-LP` structure.
    #[test]
    fn sim_crash_before_first_publish_never_decides_stale_completed() {
        use crate::arm::{LP, PAPER, TUNED};
        for attempt in [Attempt::None, Attempt::Fails, Attempt::Succeeds] {
            for before in [Before::Completed, Before::NoEffect, Before::Find, Before::TornClear] {
                no_stale_completed_sweep::<PAPER>(before, attempt);
                no_stale_completed_sweep::<TUNED>(before, attempt);
                if before != Before::Find {
                    no_stale_completed_sweep::<LP>(before, attempt);
                }
            }
        }
    }

    /// The words of the node at `p` as the crash image left them, after
    /// checking that the link naming it survived.
    fn image_of<N: PersistWords<nvm::SimNvm>>(p: u64, at: &str) -> Vec<u64> {
        assert!(p != 0 && p != nvm::sim::POISON, "{at}: a torn link {p:#x}");
        let mut words = Vec::new();
        // SAFETY: a surviving link names a node the creation drew (and
        // leaked: its words stay registered until the next reset).
        unsafe { (*(p as *const N)).each_word(&mut |w| words.push(w.peek())) };
        words
    }

    /// Every kind's one construction function — the buckets of the list
    /// (and so the stack) and the map, the queue's sentinel and anchor, the
    /// BST's five dummies — crashed at every instruction over per-word-drop
    /// seeds, on a root block the test owns: a root word the image kept
    /// names sentinels of their own whose every field the image kept too; a
    /// root word it dropped is still zero, so the creation re-runs; a
    /// creation that completed set every root word.
    #[test]
    fn sim_crash_during_creation_never_leaves_a_root_over_a_torn_sentinel() {
        use crate::{bst, queue, set_core};
        use nvm::{sim, SimNvm};
        type Build = fn(&[PWord<SimNvm>]);
        type Check = fn(&[u64], bool, &str);
        // Passthrough, as under every simulated model: each draw is a `Box`
        // of its own, which a crashed creation abandons.
        fn pool<N: PoolItem>() -> Pool<N> {
            Pool::new_for::<SimNvm>(&Collector::disabled(), None)
        }
        fn distinct(nodes: &[u64], at: &str) {
            let mut sorted = nodes.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), nodes.len(), "{at}: shared sentinels {nodes:#x?}");
        }
        let buckets: Build = |r| drop(unsafe { set_core::buckets(Base(0), &pool(), r) });
        let bucket_shape: Check = |roots, crashed, at| {
            type N = set_core::Node<SimNvm>;
            let mut drawn = Vec::new();
            for &head in roots {
                if head == 0 {
                    assert!(crashed, "{at}: a completed creation installs every bucket");
                    continue;
                }
                let fields = image_of::<N>(head, at);
                assert_eq!((fields[0], fields[2]), (set_core::KEY_MIN, 0), "{at}: torn head");
                let tail = fields[1];
                assert_eq!(image_of::<N>(tail, at), [set_core::KEY_MAX, 0, 0], "{at}: torn tail");
                drawn.extend([head, tail]);
            }
            distinct(&drawn, at);
        };
        let kinds: [(&str, usize, Build, Check); 4] = [
            ("list", 1, buckets, bucket_shape),
            ("map", 2, buckets, bucket_shape),
            (
                "queue",
                3,
                // SAFETY: three words laid out as the `repr(C)` anchor.
                |r| unsafe {
                    queue::sentinel(
                        Base(0),
                        &pool(),
                        &*(r.as_ptr() as *const queue::Anchor<SimNvm>),
                    )
                },
                |anchor, crashed, at| {
                    assert_eq!(anchor[1], 0, "{at}: the anchor's info word");
                    let (head, tail) = (anchor[0], anchor[2]);
                    if !crashed || head != 0 && tail != 0 {
                        assert!(head != 0 && head == tail, "{at}: one sentinel, head and tail");
                    }
                    for s in [head, tail].into_iter().filter(|&s| s != 0) {
                        assert_eq!(image_of::<queue::Node<SimNvm>>(s, at), [0; 3], "{at}: torn");
                    }
                },
            ),
            (
                "bst",
                1,
                |r| {
                    unsafe { bst::dummies(Base(0), &pool(), &r[0]) };
                },
                |root, crashed, at| {
                    type N = bst::Node<SimNvm>;
                    use bst::{KEY_INF1 as I1, KEY_INF2 as I2};
                    if root[0] == 0 {
                        assert!(crashed, "{at}: a completed creation installs the root");
                        return;
                    }
                    let top = image_of::<N>(root[0], at);
                    let inner = image_of::<N>(top[1], at);
                    let keys = [top[0], top[3], inner[0], inner[3]];
                    assert_eq!(keys, [I2, 0, I1, 0], "{at}: torn internals");
                    assert_eq!(image_of::<N>(top[2], at), [I2, 0, 0, 0], "{at}: torn");
                    assert_eq!(image_of::<N>(inner[1], at), [0; 4], "{at}: torn");
                    assert_eq!(image_of::<N>(inner[2], at), [I1, 0, 0, 0], "{at}: torn");
                    distinct(&[root[0], top[1], top[2], inner[1], inner[2]], at);
                },
            ),
        ];
        let _session = crate::simtest::session();
        nvm::tid::set_tid(3);
        for (kind, words, build, shape) in kinds {
            let mut crashes = 0u64;
            for seed in 0..64u64 {
                for fuse in 1.. {
                    sim::reset();
                    let roots: Vec<PWord<SimNvm>> = (0..words).map(|_| PWord::new(0)).collect();
                    sim::persist_all(); // a zeroed root block: the clean start
                    let crashed = crate::simtest::crashed_at(fuse, seed, || build(&roots));
                    crashes += crashed as u64;
                    let image: Vec<u64> = roots.iter().map(PWord::peek).collect();
                    let at = format!("{kind}: fuse {fuse} seed {seed}, roots {image:#x?}");
                    shape(&image, crashed, &at);
                    if !crashed {
                        break;
                    }
                }
            }
            assert!(crashes >= 64 * 8, "{kind}: the sweep ran: {crashes}");
        }
    }

    #[test]
    fn slots_are_isolated_per_process() {
        let _gate = crate::counters::gate_shared();
        nvm::tid::set_tid(0);
        let rec: RecArea<M> = RecArea::new();
        rec.begin::<0>(0);
        rec.publish(0, 0x10);
        rec.begin::<0>(7);
        rec.publish(7, 0x70);
        assert_eq!(rec.read(0), (1, 0x10));
        assert_eq!(rec.read(7), (1, 0x70));
        let mut seen: Vec<u64> = rec.published_words().collect();
        seen.sort();
        assert_eq!(seen, vec![0x10, 0x70]);
    }
}
