//! The recovery line: one process's `RD_q` / `CP_q` and what recovery needs
//! beside them to tell a whole publication from a torn one.
//!
//! A [`ProcRec`] is one 64-byte line under every real model. Besides `RD_q`
//! and `CP_q` (the protocol of [`crate::recovery`]) an `Isb-LP` line holds
//! the line *as the current invocation found it* — `(RD_q, CP_q)` at its
//! prologue, the rollback target of a torn publication — and up to two
//! *record checks*: words outside the line (the KV client slot's `pending`,
//! the `last_seq` of a slot handed over) that must have reached a sequence
//! number on media before the publication may be trusted. All of it is
//! stored before `RD_q`, in the one line, so any prefix of the line's store
//! order that holds a new `RD_q` holds them too (Px86).
//!
//! An invocation whose durable record is the caller's own ([`crate::resptable`]'s
//! client slot) hands its checks over with [`record_invocation`]; the
//! `Isb-LP` prologue that follows stores them and the rollback target and
//! runs no glue. Every publish of that operation is then an ordinary one:
//! the slot's line, a handed-over slot's line, the descriptor, its new nodes
//! and the recovery line are written back in the publish `psync`'s one
//! window, and recovery ([`RecArea::validated`]) rolls a publication whose
//! digest or record check fails back to the line its invocation found —
//! sound because no tag is stored before that `psync` returns. A recovery
//! that finds the publication whole retires the record, durably, before it
//! acts on it, so a checked word lowered afterwards (the request restarted)
//! never makes a decided publication look torn.

use crate::engine::{Info, SEALED};
use crate::tag::Base;
use nvm::pad::CachePadded;
use nvm::{PWord, Persist, PersistWords, MAX_PROCS};
use std::cell::Cell;

thread_local! {
    /// The pid and checks of an invocation a durable record carries
    /// ([`record_invocation`]) until its operation's `Isb-LP` prologue
    /// consumes it.
    static RECORDED: Cell<Option<(usize, [Check; 2])>> = const { Cell::new(None) };
}

/// Bits of a checked word that hold its sequence number: the rest (the KV
/// slot's tid above `pending`'s sequence) is not compared.
pub const SEQ_BITS: u32 = 56;

/// A record check: the word at link `at` must hold, in its low [`SEQ_BITS`]
/// bits, at least `seq`. `at == 0` checks nothing. A checked word never
/// falls below a sequence number it has reached on media while a check
/// names it: a later request of the same client only raises it, and the
/// one store that lowers it — the checked request itself restarted — is
/// made by a recovery that has retired the record first
/// ([`RecArea::validated`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Check {
    /// Link word ([`Base::word`]) of the checked word.
    pub at: u64,
    /// The sequence number it must have reached.
    pub seq: u64,
}

/// Notes that the calling thread's next `Isb-LP` operation on `pid` has its
/// invocation recorded by the caller: a durable per-operation record that
/// holds the `RD_q` of `pid` as it stood (the KV client slot's `prior`, see
/// [`crate::resptable`]), whose words `checks` name. That operation's
/// prologue runs no glue ([`RecArea::begin`]) and stores the checks in the
/// line, and the caller releases `RD_q`'s old reference after the
/// operation ([`crate::env::Env::release_prior`]).
pub fn record_invocation(pid: usize, checks: [Check; 2]) {
    RECORDED.with(|r| r.set(Some((pid, checks))));
}

/// [`record_invocation`] with nothing to check: an operation that never
/// publishes (the service's reads), whose glue would move `RD_q` off the
/// descriptor a deferred response is recovered from.
pub fn mark_recorded(pid: usize) {
    record_invocation(pid, [Check::default(); 2]);
}

/// Whether a recorded invocation still waits, on this thread, for the
/// prologue of its operation.
pub fn recorded_pending() -> bool {
    RECORDED.with(|r| r.get().is_some())
}

/// The checks of the invocation recorded for `pid`, consumed.
fn take_record(pid: usize) -> Option<[Check; 2]> {
    RECORDED.with(|r| match r.get() {
        Some((p, checks)) if p == pid => {
            r.set(None);
            Some(checks)
        }
        _ => None,
    })
}

/// One process's persistent private recovery variables: one cache line
/// under every real model, each slot [`ARENA_SLOT_STRIDE`] bytes from the
/// next in an arena (see `RecArea::slot` for the in-process stride).
#[repr(C)]
pub struct ProcRec<M: Persist> {
    /// `RD_q`: the Info structure of the last attempt (a link word).
    pub rd: PWord<M>,
    /// `CP_q`: 1 once `RD_q` has been initialised for the current operation
    /// (arms 0/1); under `Isb-LP` the digest of the publication `RD_q` names
    /// ([`RecArea::publish_arm`]), 0 before the first.
    pub cp: PWord<M>,
    /// `Isb-LP`: `RD_q` and `CP_q` as the current invocation found them —
    /// what a torn publication rolls back to. The glue's `(Null, 0)` for an
    /// unrecorded invocation; a recorded one's `prior` and its digest.
    back_rd: PWord<M>,
    back_cp: PWord<M>,
    /// `Isb-LP`: the record checks of a recorded invocation, `(at, seq)`
    /// twice ([`Check`]); zero for an unrecorded one.
    checks: [PWord<M>; 4],
}

const _: () = assert!(size_of::<ProcRec<nvm::mapped::MappedNvm>>() == 64, "one line");

impl<M: Persist> Default for ProcRec<M> {
    fn default() -> Self {
        let w = || PWord::new(0);
        Self { rd: w(), cp: w(), back_rd: w(), back_cp: w(), checks: [w(), w(), w(), w()] }
    }
}

// SAFETY: every field, visited, of a `repr(C)` struct.
unsafe impl<M: Persist> PersistWords<M> for ProcRec<M> {
    fn each_word(&self, f: &mut dyn FnMut(&PWord<M>)) {
        [&self.rd, &self.cp, &self.back_rd, &self.back_cp].into_iter().for_each(&mut *f);
        self.checks.iter().for_each(f);
    }
}

impl<M: Persist> ProcRec<M> {
    /// The prologue of a recorded invocation: the line as it stands becomes
    /// the rollback target — `back_rd` stored first, so a prefix of the
    /// line that holds a new check names the line's own `RD_q` as the
    /// target, and a line whose `RD_q` is its rollback target is checked
    /// against nothing ([`RecArea::validated`]) — then the checks. Nothing
    /// is written back: the operation's publish carries the line.
    fn note_record(&self, checks: [Check; 2]) {
        self.back_rd.store(self.rd.load());
        self.back_cp.store(self.cp.load());
        for (k, c) in checks.iter().enumerate() {
            self.checks[2 * k].store(c.at);
            self.checks[2 * k + 1].store(c.seq);
        }
    }

    /// Retires the record, durably, once a recovery found the publication
    /// whole and is about to act on it: resolving its request may restart
    /// it (`pending` steps back below the checked sequence), and the
    /// reference on the rollback target may be released with the next
    /// `RD_q`. A check that failed after that would roll a decided
    /// publication back onto a descriptor nothing holds, so the line
    /// becomes an unrecorded one: rollback target `(Null, 0)`, no checks.
    /// `back_rd` goes first, so no prefix of the stores pairs the old
    /// target with another `CP_q`.
    fn retire_record(&self) {
        let words = [&self.back_rd, &self.back_cp, &self.checks[0], &self.checks[2]];
        if words.iter().any(|w| w.load() != 0) {
            words.iter().for_each(|w| w.store(0));
            M::pbarrier_obj(self);
        }
    }

    /// An unrecorded invocation's record: none, and the glue's `(Null, 0)`
    /// as the rollback target. Stores only words that differ, after the
    /// glue's `RD_q := Null`.
    fn clear_record(&self) {
        for w in [&self.back_rd, &self.back_cp].into_iter().chain(&self.checks) {
            if w.load() != 0 {
                w.store(0);
            }
        }
    }

    /// Whether every record check holds, each checked word admitted by
    /// `word_ok` before it is read (a word it refuses fails its check).
    ///
    /// # Safety
    /// Every word `word_ok` admits must be live at `base`.
    unsafe fn checks_hold(&self, base: Base, word_ok: impl Fn(u64) -> bool) -> bool {
        const MASK: u64 = (1 << SEQ_BITS) - 1;
        (0..2).all(|k| {
            let (at, seq) = (self.checks[2 * k].load(), self.checks[2 * k + 1].load());
            // SAFETY: admitted by `word_ok`, the caller's.
            at == 0 || word_ok(at) && unsafe { (*base.at::<PWord<M>>(at)).load() } & MASK >= seq
        })
    }
}

/// Byte stride of one recovery slot in an arena, and in process memory
/// under every model whose words carry no metadata: a padded [`ProcRec`]
/// (arena payloads are 64-byte aligned, so an arena slot keeps the stride
/// without the padding's 128-byte alignment).
pub const ARENA_SLOT_STRIDE: usize = 128;

/// Per-process recovery areas for one data structure, and the [`Base`] its
/// link words — `RD_q` and every word of the descriptors and nodes it
/// reaches — are offsets from.
///
/// Its [`MAX_PROCS`] slots lie one stride apart from `slots`, wherever they
/// live: in memory the area owns ([`RecArea::new`], the in-process
/// backends) or in a persistent arena ([`RecArea::attach_raw`], the mapped
/// backend, where `RD_q`/`CP_q` must survive the process).
pub struct RecArea<M: Persist> {
    slots: *const u8,
    /// The slots' memory when the area owns it; empty over an arena. A
    /// `Vec`, whose pointer stays valid while the area moves.
    _owned: Vec<CachePadded<ProcRec<M>>>,
    pub(crate) base: Base,
}

// SAFETY: all slot state is atomics behind `&self`; `slots` is only
// dereferenced at fixed per-pid offsets inside memory the area owns or a
// mapping the owning structure keeps alive (attach_raw contract).
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
    /// The stride of this model's slots: [`ARENA_SLOT_STRIDE`] under every
    /// model whose words carry no metadata. The simulator's words carry
    /// their shadow, so its padded line is three strides' worth.
    const STRIDE: usize = size_of::<CachePadded<ProcRec<M>>>();

    /// Creates recovery slots for [`MAX_PROCS`] processes.
    pub fn new() -> Self {
        let owned: Vec<_> = (0..MAX_PROCS).map(|_| CachePadded::new(ProcRec::default())).collect();
        Self { slots: owned.as_ptr() as *const u8, _owned: owned, base: Base(0) }
    }

    /// Bytes an arena-resident recovery area occupies
    /// ([`MAX_PROCS`] × [`ARENA_SLOT_STRIDE`]).
    pub const fn slots_bytes() -> usize {
        MAX_PROCS * ARENA_SLOT_STRIDE
    }

    /// A recovery area over persistent slots at `slots` (the mapped backend's
    /// root block, laid out as an owned area: one slot per
    /// [`ARENA_SLOT_STRIDE`] bytes) of a heap mapped at `base`, read and
    /// written by the same code as an owned area. Zeroed memory is a valid
    /// fresh state (`CP = 0`, `RD = Null`); previously persisted slots are
    /// exactly what recovery needs to read.
    ///
    /// # Safety
    /// `slots` must point to [`RecArea::slots_bytes`] bytes of 8-aligned
    /// memory that outlives the returned area and is zeroed or holds a
    /// previously persisted slot array; `M::Meta` must be zero-sized (the
    /// mapped/real models — the crash simulator keeps its shadow state on
    /// the process heap and cannot live in an arena).
    pub unsafe fn attach_raw(slots: *const u8, base: Base) -> Self {
        assert_eq!(size_of::<M::Meta>(), 0, "arena slots require metadata-free models");
        Self { slots, _owned: Vec::new(), base }
    }

    #[inline]
    pub(crate) fn slot(&self, pid: usize) -> &ProcRec<M> {
        // A padded slot is one arena stride long under every model an arena
        // can hold, so one address rule serves owned and arena slots.
        const {
            assert!(size_of::<M::Meta>() != 0 || Self::STRIDE == ARENA_SLOT_STRIDE);
        }
        assert!(pid < MAX_PROCS);
        // SAFETY: in-bounds fixed-stride slot of memory the area owns or
        // borrows (attach_raw contract).
        unsafe { &*(self.slots.add(pid * Self::STRIDE) as *const ProcRec<M>) }
    }

    /// The *system* half of an invocation, which the paper models as
    /// executing atomically when the operation is invoked (Section 2): the
    /// system itself does not crash, so crash injection is suspended for it.
    ///
    /// Arms 0/1: `CP_q := 0`, persisted; returns `0` (`RD_q` is the
    /// operation's to reset). `Isb-LP`: `(RD_q, CP_q) := (Null, 0)`,
    /// both words of the one line persisted by the one barrier, with no
    /// record ([`ProcRec::clear_record`]); returns the
    /// previous `RD_q`, whose reference the caller releases — after the
    /// barrier, so a process that dies in between leaks it to the next
    /// attach's sweep instead of freeing a descriptor `RD_q` durably names.
    ///
    /// `Isb-LP` skips the stores and the barrier when the line already reads
    /// back `(Null, 0)`: a fresh line is a durably fresh line, because every
    /// store that can make it read so is made with its barrier —
    /// - this glue, both words under one `pbarrier_obj`;
    /// - [`RecArea::clear_slot`], each word under its own `pbarrier`;
    /// - a rollback ([`RecArea::validated`]) to an unrecorded invocation's
    ///   `(Null, 0)`, under one `pbarrier_obj`;
    /// - creation: zeroed arena memory, or a model's initial persisted
    ///   value (attach replay and the peer sweep read slots and reset
    ///   nothing but through `clear_slot` and the rollback).
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
                    s.clear_record();
                    return 0;
                }
                s.rd.store(0);
                s.cp.store(0);
                s.clear_record();
                M::pbarrier_obj(s);
                prev
            } else {
                s.cp.store(0);
                M::pbarrier(&s.cp);
                0
            }
        })
    }

    /// Steps 1–2 of the protocol (see [`crate::recovery`]). Returns the
    /// *previous* operation's published info pointer so the caller can
    /// release its reference-count hold on it — `0` under `Isb-LP` after
    /// [`record_invocation`] for `pid`: the prologue consumes the record,
    /// stores its checks in the line (`ProcRec::note_record`), runs no
    /// glue, and `RD_q` keeps its reference until the recording caller
    /// releases it.
    pub fn begin<const ARM: u8>(&self, pid: usize) -> u64 {
        // `Isb-LP` routes every batched flush through the line set, so a
        // duplicate stand-alone pwb inside one fence window is a flush-diet
        // regression; arm the (feature-gated) lint. Lower arms legitimately
        // re-flush lines, so disarm.
        nvm::coalesce::lint::set_armed(crate::arm::is_lp(ARM));
        let s = self.slot(pid);
        if crate::arm::is_lp(ARM) {
            if let Some(checks) = take_record(pid) {
                s.note_record(checks);
                return 0;
            }
            // The glue is the whole prologue: it resets `RD_q` inside its
            // own barrier, and `CP_q` waits for the first publish.
            return Self::glue::<ARM>(s);
        }
        // Arms 0/1 do more than the glue: no record stands in for them.
        debug_assert!(take_record(pid).is_none(), "a recorded invocation below Isb-LP");
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

    /// Arm-aware [`RecArea::publish`]. `Isb-LP` stores `CP_q` here, not in
    /// [`RecArea::begin`]: CP and RD live in one cache line ([`ProcRec`]),
    /// so noting both in the line set makes the publish flush a single
    /// write-back where TUNED pays one in begin and one here. Only attempts
    /// that go on to `Help` publish in that arm.
    ///
    /// `CP_q` is the digest of the publication ([`Info::digest`]), stored
    /// before `RD_q` in the line, after the prologue's record: the
    /// descriptor's and its new nodes' lines, noted by an update attempt
    /// (`op::Update::attempt`) with no fence — and a
    /// recorded invocation's record lines, noted by its caller — are
    /// written back in this `psync`'s window together with the line, and
    /// recovery trusts `RD_q` only when `CP_q` validates what it names and
    /// the record's checks hold ([`RecArea::validated`]).
    ///
    /// # Safety
    /// Under `Isb-LP`, `info` must name a filled, live descriptor whose
    /// new-node cells lie in live nodes ([`Info::digest`]).
    pub unsafe fn publish_arm<const ARM: u8>(&self, pid: usize, info: u64) {
        if !crate::arm::is_lp(ARM) {
            return self.publish(pid, info);
        }
        // SAFETY: the caller's.
        let cp = unsafe { Info::digest(self.base.at::<Info<M>>(info), self.base, info) };
        let s = self.slot(pid);
        s.cp.store(cp);
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

    /// Step 4 under `Isb-LP`: the descriptor `pid`'s line names once a torn
    /// publication is rolled back, if `CP_q` validates it. A publication is
    /// torn when `CP_q` holds a digest (`SEALED`) that does not validate
    /// the descriptor `RD_q` names ([`Info::validates`]), or when `RD_q` is
    /// not the line's rollback target and a record check fails: a record
    /// word that had not reached media when the publish `psync` was cut.
    /// Such a line is rolled back, durably, to the `(RD_q, CP_q)` its
    /// invocation found — no tag is stored before that `psync` returns, so
    /// the publication had no durable effect, and the invocation's `prior`
    /// (a recorded one's) stays referenced until the operation returns.
    /// A whole publication has its record retired, durably, before it is
    /// returned (`ProcRec::retire_record`): what the caller does with it
    /// may make a check fail, and a later recovery must find it whole too.
    /// `None`: nothing published (`RD_q = Null` or `CP_q = 0`, left as it
    /// is), or a rollback target that does not validate.
    ///
    /// # Safety
    /// As [`crate::recovery::op_recover`]; every word a record check names
    /// is live.
    pub unsafe fn validated(&self, pid: usize) -> Option<u64> {
        let (cp, rd) = self.read(pid);
        if cp == 0 || rd == 0 {
            return None;
        }
        // SAFETY: the caller's.
        if !unsafe { self.torn(pid, |_| true) } {
            self.slot(pid).retire_record();
            return Some(rd);
        }
        let (cp, rd) = self.roll_back(pid);
        // SAFETY: the caller's: the rollback target is the line's too.
        (cp != 0
            && rd != 0
            && unsafe { Info::validates(self.base.at::<Info<M>>(rd), self.base, rd, cp) })
        .then_some(rd)
    }

    /// Whether `pid`'s sealed line names a torn publication
    /// ([`RecArea::validated`]), a record check's word admitted by
    /// `word_ok` before it is read.
    ///
    /// # Safety
    /// `RD_q` names a live descriptor whose new-node cells lie in live
    /// nodes, and every word `word_ok` admits is live.
    pub(crate) unsafe fn torn(&self, pid: usize, word_ok: impl Fn(u64) -> bool) -> bool {
        let s = self.slot(pid);
        let (cp, rd) = (s.cp.load(), s.rd.load());
        // SAFETY: the caller's.
        !unsafe { Info::validates(self.base.at::<Info<M>>(rd), self.base, rd, cp) }
            || rd != s.back_rd.load() && !unsafe { s.checks_hold(self.base, word_ok) }
    }

    /// Rolls `pid`'s line back, durably, to the `(RD_q, CP_q)` its
    /// invocation found, `CP_q` stored first (a prefix that holds it beside
    /// the torn `RD_q` is torn again), and returns it. Unrecorded, that is
    /// the glue's `(Null, 0)`.
    pub(crate) fn roll_back(&self, pid: usize) -> (u64, u64) {
        let s = self.slot(pid);
        let back = (s.back_cp.load(), s.back_rd.load());
        if (s.cp.load(), s.rd.load()) != back {
            s.cp.store(back.0);
            s.rd.store(back.1);
            M::pbarrier_obj(s);
        }
        back
    }

    /// One line for a failure report: `pid`'s `(CP_q, RD_q)`, whether an
    /// `Isb-LP` line names a torn publication (`digest ok` or `torn`,
    /// [`RecArea::validated`]) and, when `RD_q` names a descriptor that
    /// `CP_q` vouches for, [`Info::describe`] of it.
    ///
    /// # Safety
    /// As [`crate::recovery::op_recover`], in a quiescent context (the
    /// descriptor's affect cells are dereferenced).
    pub unsafe fn describe(&self, pid: usize) -> String {
        let (cp, rd) = self.read(pid);
        let s = self.slot(pid);
        let mut out = format!("CP_q {cp:#x} RD_q {rd:#x} back {:#x}", s.back_rd.load());
        if rd == 0 {
            return out;
        }
        if cp & SEALED != 0 {
            // SAFETY: as `op_recover`'s validation.
            if unsafe { self.torn(pid, |_| true) } {
                // What a torn descriptor names is not to be followed.
                return out + " (torn)";
            }
            out += " (digest ok)";
        } else if cp != 1 {
            // `Isb-LP`'s `RD_q` may name a torn publication beside `CP_q = 0`
            // (the line's two words are written back in one window).
            return out + " (not checked)";
        }
        // SAFETY: the caller's.
        out + ": " + &unsafe { Info::describe(self.base.at::<Info<M>>(rd), self.base) }
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
    /// ([`record_invocation`]) must call this *before* logging the intent:
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
    /// ([`crate::recovery::recover_dead_pid_with`]). `CP` is cleared (and
    /// persisted) **first**: a
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

#[cfg(test)]
impl RecArea<nvm::SimNvm> {
    /// Declares `pid`'s line one line to the crash simulator
    /// ([`nvm::sim::declare_line`]): a crash keeps a prefix of its store
    /// order, as hardware does.
    pub(crate) fn declare_line(&self, pid: usize) {
        let mut words = Vec::new();
        self.slot(pid).each_word(&mut |w| words.push(w as *const PWord<nvm::SimNvm>));
        // SAFETY: the words of a slot of this area, alive with it.
        nvm::sim::declare_line(&words.iter().map(|&w| unsafe { &*w }).collect::<Vec<_>>());
    }
}
