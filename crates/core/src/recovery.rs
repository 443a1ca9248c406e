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
//!    previous operation's info pointer together with `CP_q = 1`.
//! 3. Before each call to `Help`, the attempt's Info pointer is published:
//!    `RD_q := opInfo; pwb; psync` ([`RecArea::publish`]).
//! 4. On recovery ([`RecArea::read`]): `CP_q = 0` or `RD_q = Null` means the
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
//! words made durable by the one barrier step 1 pays anyway, and
//! `CP_q := 1` is stored by the first publish ([`RecArea::publish_arm`]), in
//! the same line and under the same `psync` as `RD_q := opInfo`. Every image
//! of a crashed first publish — `(Null, 0)`, `(Null, 1)`, `(info, 0)`,
//! `(info, 1)` — is decided by step 4 as it stands.
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
//! `prior` word before its `pending` word, in one line, and calls
//! [`mark_recorded`]; the `Isb-LP` prologue that follows consumes the mark
//! and leaves the line as it is. Step 1's purpose — recovery never
//! attaching an older operation's completed descriptor to the new one — is
//! then served by the record: an in-flight request whose pid's `RD_q` still
//! equals its `prior` published nothing and resolves `Restart`; any other
//! `RD_q` is one of its own attempts, decided by step 4. `RD_q` keeps its
//! reference on `prior` until the operation returns
//! ([`crate::env::Env::release_prior`]), so no attempt can draw that
//! descriptor back from the pool and make `RD_q == prior` after an effect.

use crate::arm::{CfgWord, KindTag};
use crate::engine::Info;
use crate::tag::Base;
use nvm::pad::CachePadded;
use nvm::{PWord, Persist, PersistWords, MAX_PROCS};
use std::cell::Cell;

thread_local! {
    /// `pid + 1` of an invocation a durable record carries ([`mark_recorded`])
    /// until its operation's `Isb-LP` prologue consumes it; 0 when none.
    static RECORDED: Cell<usize> = const { Cell::new(0) };
}

/// Notes that the calling thread's next `Isb-LP` operation on `pid` has its
/// invocation recorded by the caller: a durable per-operation record that
/// holds the `RD_q` of `pid` as it stood, stored before the record's own
/// in-flight word in one line (the KV client slot's `prior`, see
/// [`crate::resptable`]). That operation's prologue then runs no glue
/// ([`RecArea::begin`]), and the caller releases `RD_q`'s old reference
/// after the operation ([`crate::env::Env::release_prior`]).
pub fn mark_recorded(pid: usize) {
    RECORDED.with(|r| r.set(pid + 1));
}

/// Whether a recorded invocation ([`mark_recorded`]) still waits, on this
/// thread, for the prologue of its operation.
pub fn recorded_pending() -> bool {
    RECORDED.with(|r| r.get() != 0)
}

/// One process's persistent private recovery variables: two words of one
/// cache line (the owned layout pads each slot to its own lines, the arena
/// layout starts each slot on one).
#[repr(C)]
pub struct ProcRec<M: Persist> {
    /// `RD_q`: the Info structure of the last attempt (a link word).
    pub rd: PWord<M>,
    /// `CP_q`: 1 once `RD_q` has been initialised for the current operation.
    pub cp: PWord<M>,
}

impl<M: Persist> Default for ProcRec<M> {
    fn default() -> Self {
        Self { rd: PWord::new(0), cp: PWord::new(0) }
    }
}

// SAFETY: `rd` and `cp` are the only fields, visited both, of a `repr(C)`
// struct.
unsafe impl<M: Persist> PersistWords<M> for ProcRec<M> {
    fn each_word(&self, f: &mut dyn FnMut(&PWord<M>)) {
        f(&self.rd);
        f(&self.cp);
    }
}

/// Where a [`RecArea`]'s slots live: owned on the process heap (the
/// in-process backends) or borrowed from a persistent arena (the mapped
/// backend, where `RD_q`/`CP_q` must survive the process).
enum Slots<M: Persist> {
    Owned(Vec<CachePadded<ProcRec<M>>>),
    /// Base of [`MAX_PROCS`] slots at [`ARENA_SLOT_STRIDE`]-byte stride.
    Arena(*const u8),
}

/// Byte stride of one arena-resident recovery slot: the padding of the
/// owned layout without its 128-byte *alignment* demand (arena payloads are
/// 64-byte aligned).
pub const ARENA_SLOT_STRIDE: usize = 128;

/// Per-process recovery areas for one data structure, and the [`Base`] its
/// link words — `RD_q` and every word of the descriptors and nodes it
/// reaches — are offsets from.
pub struct RecArea<M: Persist> {
    slots: Slots<M>,
    pub(crate) base: Base,
}

// SAFETY: all slot state is atomics behind `&self`; the arena pointer is
// only dereferenced at fixed per-pid offsets inside a mapping the owning
// structure keeps alive (attach_raw contract).
unsafe impl<M: Persist> Send for RecArea<M> {}
unsafe impl<M: Persist> Sync for RecArea<M> {}

impl<M: Persist> Default for RecArea<M> {
    fn default() -> Self {
        Self::new()
    }
}

/// Runs the system's (non-crashable) glue instructions: under the crash
/// simulator they execute with injection suspended; the real modes skip the
/// thread-local bookkeeping entirely (it sat on every operation's prologue).
#[inline]
fn system_glue<M: Persist, R>(f: impl FnOnce() -> R) -> R {
    if M::SIMULATED {
        nvm::sim::suspended(f)
    } else {
        f()
    }
}

impl<M: Persist> RecArea<M> {
    /// Creates recovery slots for [`MAX_PROCS`] processes.
    pub fn new() -> Self {
        let slots = (0..MAX_PROCS).map(|_| CachePadded::new(ProcRec::default())).collect();
        Self { slots: Slots::Owned(slots), base: Base(0) }
    }

    /// Bytes an arena-resident recovery area occupies
    /// ([`MAX_PROCS`] × [`ARENA_SLOT_STRIDE`]).
    pub const fn slots_bytes() -> usize {
        MAX_PROCS * ARENA_SLOT_STRIDE
    }

    /// A recovery area over persistent slots at `slots` (the mapped backend's
    /// root block) of a heap mapped at `base`. Zeroed memory is a valid fresh
    /// state (`CP = 0`, `RD = Null`); previously persisted slots are exactly
    /// what recovery needs to read.
    ///
    /// # Safety
    /// `slots` must point to [`RecArea::slots_bytes`] bytes of 8-aligned
    /// memory that outlives the returned area and is zeroed or holds a
    /// previously persisted slot array; `M::Meta` must be zero-sized (the
    /// mapped/real models — the crash simulator keeps its shadow state on
    /// the process heap and cannot live in an arena).
    pub unsafe fn attach_raw(slots: *const u8, base: Base) -> Self {
        assert!(std::mem::size_of::<ProcRec<M>>() <= ARENA_SLOT_STRIDE);
        assert_eq!(std::mem::size_of::<M::Meta>(), 0, "arena slots require metadata-free models");
        Self { slots: Slots::Arena(slots), base }
    }

    #[inline]
    pub(crate) fn slot(&self, pid: usize) -> &ProcRec<M> {
        match &self.slots {
            Slots::Owned(v) => &v[pid],
            Slots::Arena(base) => {
                assert!(pid < MAX_PROCS);
                // SAFETY: in-bounds fixed-stride slot per attach_raw.
                unsafe { &*(base.add(pid * ARENA_SLOT_STRIDE) as *const ProcRec<M>) }
            }
        }
    }

    /// The *system* half of an invocation, which the paper models as
    /// executing atomically when the operation is invoked (Section 2): the
    /// system itself does not crash, so crash injection is suspended for it.
    ///
    /// Arms 0/1: `CP_q := 0`, persisted; returns `0` (`RD_q` is the
    /// operation's to reset). `Isb-LP`: `(RD_q, CP_q) := (Null, 0)`,
    /// both words of the one line persisted by the one barrier; returns the
    /// previous `RD_q`, whose reference the caller releases — after the
    /// barrier, so a process that dies in between leaks it to the next
    /// attach's sweep instead of freeing a descriptor `RD_q` durably names.
    ///
    /// `Isb-LP` skips the stores and the barrier when the line already reads
    /// back `(Null, 0)`: a fresh line is a durably fresh line, because every
    /// store that can make it read so is made with its barrier —
    /// - this glue, both words under one `pbarrier_obj`;
    /// - [`RecArea::clear_slot`], each word under its own `pbarrier`;
    /// - creation: zeroed arena memory, or a model's initial persisted
    ///   value (attach replay and the peer sweep read slots and reset
    ///   nothing but through `clear_slot`).
    ///
    /// No arms-0/1 store reaches an `Isb-LP` line: a store places every
    /// structure at `Isb-LP`, and an in-process structure owns its area.
    ///
    /// Both words take part. `clear_slot` makes `CP_q = 0` durable a barrier
    /// before `RD_q = Null`, so a peer recoverer killed between the two
    /// leaves `(RD_q, CP_q) = (X, 0)`, the dead operation's descriptor still
    /// named; the next attach's replay decides it `Restart` and resets
    /// nothing. That line is not fresh: eliding there leaks `X`'s reference,
    /// and lets this operation's first publish persist `CP_q = 1` beside
    /// `X`. The read sits *inside* the uncrashable system half: read before
    /// it, a crash on the load itself would leave the previous operation's
    /// `(RD_q, 1)` standing for this invocation.
    #[inline]
    fn glue<const ARM: u8>(s: &ProcRec<M>) -> u64 {
        system_glue::<M, _>(|| {
            if crate::arm::is_lp(ARM) {
                let prev = s.rd.load();
                if prev == 0 && s.cp.load() == 0 {
                    return 0;
                }
                s.rd.store(0);
                s.cp.store(0);
                M::pbarrier_obj(s);
                prev
            } else {
                s.cp.store(0);
                M::pbarrier(&s.cp);
                0
            }
        })
    }

    /// Steps 1–2 of the protocol (see module docs). Returns the *previous*
    /// operation's published info pointer so the caller can release its
    /// reference-count hold on it — `0` under `Isb-LP` after
    /// [`mark_recorded`] for `pid`: the prologue consumes the mark, runs no
    /// glue, and `RD_q` keeps its reference until the recording caller
    /// releases it.
    pub fn begin<const ARM: u8>(&self, pid: usize) -> u64 {
        // `Isb-LP` routes every batched flush through the line set, so a
        // duplicate stand-alone pwb inside one fence window is a flush-diet
        // regression; arm the (feature-gated) lint. Lower arms legitimately
        // re-flush lines, so disarm.
        nvm::coalesce::lint::set_armed(crate::arm::is_lp(ARM));
        let s = self.slot(pid);
        let recorded = || RECORDED.with(|r| r.get() == pid + 1);
        if crate::arm::is_lp(ARM) {
            if recorded() {
                RECORDED.with(|r| r.set(0));
                return 0;
            }
            // The glue is the whole prologue: it resets `RD_q` inside its
            // own barrier, and `CP_q := 1` waits for the first publish.
            return Self::glue::<ARM>(s);
        }
        // Arms 0/1 do more than the glue: no record stands in for them.
        debug_assert!(!recorded(), "a recorded invocation below Isb-LP");
        Self::glue::<ARM>(s);
        let prev = s.rd.load();
        s.rd.store(0);
        if crate::arm::is_tuned(ARM) {
            M::pwb(&s.rd);
            M::pfence(); // order RD=Null before CP=1 durability
            s.cp.store(1);
            M::pwb(&s.cp);
            // Durability of CP=1 deferred to the attempt's publish psync.
        } else {
            M::pbarrier(&s.rd);
            s.cp.store(1);
            M::pwb(&s.cp);
            M::psync();
        }
        prev
    }

    /// Arms 0/1: `CP_q := 0` (persisted) only — the prologue of their
    /// `find`, which skips `RD_q := Null / CP_q := 1` because restarting it
    /// is always safe. Returns the previously published info pointer, which
    /// stays published until the find's own descriptor replaces it. (An
    /// `Isb-LP` `find` runs [`RecArea::begin`], which is no more than the
    /// glue there.)
    pub fn begin_readonly(&self, pid: usize) -> u64 {
        let s = self.slot(pid);
        // System glue FIRST: `CP_q := 0` happens at invocation, before any
        // (crashable) operation code — otherwise a crash on the operation's
        // first instruction would leave `CP_q = 1` pointing at the previous
        // operation's descriptor and recovery would return a stale response.
        Self::glue::<{ crate::arm::PAPER }>(s);
        s.rd.load()
    }

    /// Step 3: publish the current attempt's Info pointer durably.
    pub fn publish(&self, pid: usize, info: u64) {
        let s = self.slot(pid);
        s.rd.store(info);
        M::pwb(&s.rd);
        M::psync();
    }

    /// Arm-aware [`RecArea::publish`]. `Isb-LP` stores `CP_q := 1` here,
    /// not in [`RecArea::begin`]: CP and RD live in one cache line
    /// ([`ProcRec`]), so noting both in the line set makes the publish flush
    /// a single write-back where TUNED pays one in begin and one here. Only
    /// attempts that go on to `Help` publish in that arm.
    pub fn publish_arm<const ARM: u8>(&self, pid: usize, info: u64) {
        if !crate::arm::is_lp(ARM) {
            return self.publish(pid, info);
        }
        let s = self.slot(pid);
        s.cp.store(1);
        crate::arm::pwb_arm::<M, ARM>(&s.cp);
        s.rd.store(info);
        crate::arm::pwb_arm::<M, ARM>(&s.rd); // same line: elided
        M::psync();
    }

    /// Step 4 input: `(CP_q, RD_q)` as found after a crash.
    pub fn read(&self, pid: usize) -> (u64, u64) {
        let s = self.slot(pid);
        (s.cp.load(), s.rd.load())
    }

    /// The currently published info pointer (diagnostics / drop-scan).
    pub fn published(&self, pid: usize) -> u64 {
        self.slot(pid).rd.load()
    }

    /// One line for a failure report: `pid`'s `(CP_q, RD_q)` and, when
    /// `RD_q` names a descriptor, [`Info::describe`] of it.
    ///
    /// # Safety
    /// As [`op_recover`], in a quiescent context (the descriptor's affect
    /// cells are dereferenced).
    pub unsafe fn describe(&self, pid: usize) -> String {
        let (cp, rd) = self.read(pid);
        let mut out = format!("CP_q {cp} RD_q {rd:#x}");
        if rd != 0 {
            out += ": ";
            out += &unsafe { (*self.base.at::<Info<M>>(rd)).describe(self.base) };
        }
        out
    }

    /// Every published descriptor's link word (drop-time info scan).
    pub fn published_words(&self) -> impl Iterator<Item = u64> + '_ {
        (0..MAX_PROCS).map(|pid| self.slot(pid).rd.load()).filter(|&rd| rd != 0)
    }

    /// Runs the invocation glue ([`RecArea::begin`]'s first step) ahead of
    /// the operation. Under `Isb-LP` the operation's own prologue then reads
    /// the fresh line back and skips its copy; arms 0/1 persist `CP_q := 0`
    /// a second time. Returns the previous `RD_q` `Isb-LP`'s glue took out
    /// (`0` otherwise); the caller releases it ([`Info::release`], as
    /// [`crate::env::Env::note_invocation`] does).
    ///
    /// Callers that write their own intent records around a mapped structure
    /// (write-ahead logs, request journals) and keep no `prior` in them
    /// ([`mark_recorded`]) must call this *before* logging the intent:
    /// otherwise a crash between the log write and the operation's first
    /// instruction leaves `CP_q = 1` pointing at the *previous* operation's
    /// descriptor, and recovery would hand the new operation a stale
    /// response.
    #[must_use = "the reference taken out of RD_q must be released"]
    pub fn mark_invoked<const ARM: u8>(&self, pid: usize) -> u64 {
        Self::glue::<ARM>(self.slot(pid))
    }

    /// Durably resets a dead peer's slot to the fresh state (`CP = 0`,
    /// `RD = Null`) after a survivor resolved its pending operation
    /// ([`recover_dead_pid_with`]). `CP` is cleared (and persisted) **first**: a
    /// superseding recoverer that reads the slot mid-clear sees `CP = 0`,
    /// decides `Restart`, and releases the still-published `RD` reference
    /// exactly as the dead recoverer would have — never a double help of a
    /// half-torn decision.
    pub fn clear_slot(&self, pid: usize) {
        let s = self.slot(pid);
        s.cp.store(0);
        M::pbarrier(&s.cp);
        s.rd.store(0);
        M::pbarrier(&s.rd);
    }
}

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
/// info pointer, if any, is a valid `Info<M>` (guaranteed by the protocol:
/// infos are persisted before publication and never freed in crash mode).
pub unsafe fn op_recover<M: Persist, const ARM: u8>(
    rec: &RecArea<M>,
    pid: usize,
    guard: &reclaim::Guard<'_>,
) -> Recovered {
    // The replay's placement, not the one of the last operation this thread
    // ran: arms 0/1 legitimately re-flush a line.
    nvm::coalesce::lint::set_armed(crate::arm::is_lp(ARM));
    let (cp, rd) = rec.read(pid);
    if cp != 1 || rd == 0 {
        return Recovered::Restart;
    }
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
    let rd = rec.published(pid);
    // SAFETY: caller holds the recovery lease over a validated published
    // descriptor; help is the ordinary concurrent helping path, at the one
    // placement a mapped structure has.
    let decision = unsafe { op_recover::<MappedNvm, { crate::arm::LP }>(rec, pid, guard) };
    on_decision(decision);
    rec.clear_slot(pid);
    if rd != 0 {
        // SAFETY: the RD slot held one reference on the descriptor and was
        // durably cleared above, so this release runs at most once across
        // recoverer supersessions. A foreign-owned final release leaks the
        // block by design (engine owner-slot guard); full attach sweeps it.
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
    /// The shared cross-process epoch region ([`reclaim::Collector::attach_shared`]):
    /// global epoch + per-participant announce words, one domain per heap.
    pub const EPOCHS: u64 = 0x4550_4F43; // "EPOC"
    /// The KV-service response table ([`crate::resptable::ResponseTable`]):
    /// one slot per client holding its dedup pair and the op-ID in flight,
    /// resolved against the replay decisions on every attach.
    pub const RESPTAB: u64 = 0x5245_5350; // "RESP"
}

use crate::env::Env;
use crate::graph::{census_unit, scrub, validate_unit, Graph};
use crate::pool::Pool;
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
    /// Shared cross-process epoch region (null ⇒ exclusive heap, collectors
    /// keep private epochs): every structure's collector attaches here,
    /// forming one epoch domain across processes.
    pub(crate) epoch_region: *mut u8,
    /// The attacher's own environment: the view of the recovery slots the
    /// attach replay and [`crate::store::Store::recover_peer`] decide over,
    /// the collector they pin, and the heap-wide Info-descriptor pool every
    /// structure's environment holds a clone of.
    pub(crate) own: Env<MappedNvm>,
}

impl AttachEnv {
    /// The attach prologue of every store open, as single owner or as
    /// joiner: the check that the heap is a store's, the heap-wide recovery
    /// area and its recorded geometry, the cross-process epoch region of a
    /// shared heap, and the heap-wide Info pool. Returns the environment and
    /// whether the heap is fresh.
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
        let mut epoch_region = std::ptr::null_mut();
        if heap.is_shared() {
            let (e, created) = heap.root_alloc(rootkeys::EPOCHS, reclaim::shared_region_bytes())?;
            if !joined {
                // SAFETY: committed root block of the required size; we are
                // the sole live participant (attach flock held), so
                // re-initialising over a prior run's stale pins is safe — and
                // required, since a SIGKILLed fleet leaves announce words
                // pinned forever.
                unsafe { Collector::init_shared_region(e) };
            } else if created {
                // A live shared heap always carries the epoch region (the
                // initial attacher installs it before releasing the lock);
                // its absence means the image predates shared mode.
                return Err(MapError::BadSuperblock("shared heap without an epoch region").into());
            }
            epoch_region = e;
        }
        // SAFETY: `rec_base` / `epoch_region` are the root blocks of `heap`
        // obtained above. `None`: this is where the heap-wide pool is built.
        let own = unsafe { Self::env_over(rec_base, epoch_region, None, heap.clone()) };
        Ok((Self { heap, rec_base, epoch_region, own }, fresh))
    }

    /// An environment in `heap`: a collector — private-epoch on an exclusive
    /// heap (null region), attached to the shared epoch region in
    /// multi-process mode, where every structure and process forms a single
    /// epoch domain (required, since a node retired by one process may be
    /// read by any peer) — over a view of the recovery slots.
    ///
    /// # Safety
    /// `rec_base` must be `heap`'s committed recovery-slot root block
    /// (`RecArea::slots_bytes()` zero-initialised bytes) and `epoch_region`
    /// null or its committed EPOCHS root block (`shared_region_bytes()`
    /// long, 64-aligned, initialised by the initial attacher before any
    /// joiner builds structures); both live as long as the heap, which the
    /// environment keeps alive.
    unsafe fn env_over(
        rec_base: *const u8,
        epoch_region: *mut u8,
        infos: Option<Pool<Info<MappedNvm>>>,
        heap: Arc<MappedHeap>,
    ) -> Env<MappedNvm> {
        let mut collector = Collector::new();
        if !epoch_region.is_null() {
            // SAFETY: the caller's EPOCHS block; nothing is pinned or retired yet.
            unsafe { collector.attach_shared(epoch_region) };
        }
        let base = Base(heap.base() as usize);
        Env::mapped(unsafe { RecArea::attach_raw(rec_base, base) }, collector, infos, heap)
    }

    /// The environment of one structure in the heap: its own collector (in
    /// the heap's epoch domain), its own view of the **same** recovery slots,
    /// a clone of the heap-wide Info pool, and the heap its node pool draws
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
    /// (kept out of the sweep; the driver adds the heap-wide Info pool's).
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
    let (heap, rec, owner) = (&*env.heap, &env.own.rec, env.own.infos.handle());
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
    let budget = heap.bump_granules() + 8;
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
    infos.extend(rec.published_words());
    // A value a descriptor installs is a node pointer the census walk will
    // dereference: it must be a whole node of some structure in the heap.
    validate_infos::<MappedNvm>(heap, &infos, |a| slots.iter().any(|s| in_node(&**s, a)))?;

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
    // (An exclusive heap's null epoch region adds 0, no block's address.)
    live.extend([env.rec_base as usize, env.epoch_region as usize]);
    for s in slots.iter_mut() {
        s.each_cached(&mut |p| {
            live.insert(p);
        });
    }
    env.own.infos.clone().each_idle(|p| {
        live.insert(p as usize);
    });
    // Shared heaps: descriptors this attach reclaims are re-owned by *this*
    // process's pool, so stamp our participant slot (exclusive heaps keep 0).
    let owner_slot =
        if heap.is_shared() { heap.my_participant().map_or(0, |s| s as u16 + 1) } else { 0 };
    // Rewrite every live descriptor's volatile bookkeeping (recomputed
    // reference count, this process's Info pool as owner) and keep it.
    for (&info, &cnt) in &info_refs {
        // SAFETY: quiescent; `info_refs` holds the true counts (cells + RD
        // slots) of descriptors validated above.
        let info = rec.base.at::<Info<MappedNvm>>(info);
        unsafe { (*info).reset_after_attach(cnt, owner, owner_slot) };
        live.insert(info as usize);
    }
    // SAFETY: quiescent; `live` covers roots, graphs, descriptors and this
    // process's caches across every structure in the heap.
    let swept = unsafe { heap.sweep_except(&live) };
    Ok((recovered, swept))
}

/// Pre-recovery validation of every collected descriptor offset against the
/// mapping: the descriptor's **whole span** must lie inside the heap, and
/// (via [`Info::validate_bounds`]) every cell offset it names must have an
/// in-heap 8-byte span while every value it installs must satisfy
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
        let inside = cell_ok(info) && heap.contains_span(info as usize, size_of::<Info<M>>());
        // SAFETY: read only once the descriptor's whole span is inside the mapping.
        let at = || unsafe { &*Base(heap.base() as usize).at::<Info<M>>(info) };
        if !inside || !at().validate_bounds(cell_ok, valid_install) {
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
    use crate::pool::PoolItem;
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
        let first = cost(T, || assert_eq!(rec.begin::<LP>(T), 0));
        assert_eq!(first, (0, 0), "a fresh line elides the glue");
        rec.publish_arm::<LP>(T, 0x1230);
        let bare = cost(T, || assert_eq!(rec.begin::<LP>(T), 0x1230));
        assert_eq!(bare, (1, 1), "the glue barrier is the whole prologue");
        let fresh = cost(T, || {
            assert_eq!(rec.mark_invoked::<LP>(T), 0);
            assert_eq!(rec.begin::<LP>(T), 0);
        });
        assert_eq!(fresh, (0, 0), "after a no-effect operation, marked or not");
        rec.publish_arm::<LP>(T, 0x1230);
        let marked = cost(T, || {
            let handed = (rec.mark_invoked::<LP>(T), rec.begin::<LP>(T));
            assert_eq!(handed, (0x1230, 0), "the previous RD_q is handed out once");
        });
        assert_eq!(marked, bare, "the prologue must not re-persist what mark_invoked did");
        assert_eq!(rec.read(T), (0, 0));

        rec.publish_arm::<LP>(T, 0x80);
        torn_clear(&rec, T);
        assert_eq!(rec.read(T), (0, 0x80), "CP_q = 0, but RD_q is not the glue's Null");
        let reset = cost(T, || assert_eq!(rec.begin::<LP>(T), 0x80));
        assert_eq!(reset, (1, 1), "reset durably");
        assert_eq!(rec.read(T), (0, 0));
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
                    rec.publish_arm::<ARM>(P, done as u64);
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
                            rec.publish_arm::<ARM>(P, next as u64);
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
