//! Durable KV-service response table: client-visible exactly-once.
//!
//! The network service (`crates/kvserve`) lets clients name every request
//! with a `(client_id, op_seq)` operation ID. This module is the durable
//! half of that contract: one root block ([`rootkeys::RESPTAB`]) holding one
//! 64-byte `ClientSlot` per registered client, and that slot is the
//! **only** durable record a request writes. It carries
//!
//! * the highest acknowledged sequence number (`last_seq`) and the encoded
//!   response of exactly that operation (`resp`). A retried request whose
//!   `op_seq == last_seq` is answered from here without touching any
//!   structure — byte-identical to the original acknowledgement, applied
//!   exactly once;
//! * the packed word `pending = (tid << 56) | op_seq`: the sequence number
//!   being applied for this client and the process slot (tid) it runs
//!   under. A request is **in flight iff `pending.op_seq == last_seq + 1`**.
//!   After a crash every in-flight request is resolvable: the attach
//!   replay's per-pid [`Recovered`] decision says whether the interrupted
//!   operation took effect, and [`ResponseTable::resolve`] maps that verdict
//!   onto the slot `pending` names the pid in;
//! * `prior`: the pid's `RD_q` as it stood when the request began. It is
//!   the request's invocation record — the paper's step 1, `CP_q := 0` —
//!   kept where the request's own record is, and it is only ever compared
//!   with `RD_q`, never dereferenced.
//!
//! Only sequenced requests come here. A `get` is unsequenced on the wire
//! (`op_seq = 0`): the service answers it from the map before step 1 and
//! records nothing, because recovery owes a read nothing — killed in flight
//! it has no outcome to resolve, and the client's re-issue is a fresh,
//! linearisable read. It still calls [`crate::recovery::mark_recorded`]
//! before its `find`, so its prologue runs no invocation glue: nothing but
//! a request's own publish ever moves a lane's `RD_q`, which step 5 relies
//! on.
//!
//! # Write ordering (the crash-window argument)
//!
//! The request path is, in order:
//!
//! 1. failover guard ([`ResponseTable::foreign_inflight`] → typed
//!    `Recovering`): the client's own slot is in flight under a tid of
//!    another process, whose recovery has not resolved it yet;
//! 2. dedup check (`op_seq == last_seq` → replay stored response);
//! 3. [`ResponseTable::begin_op`] — the pid's `RD_q` stored into `prior`,
//!    **then** `pending`, and the slot's line noted for write-back, **no
//!    fence**. An operation with an effect publishes before any `Help`
//!    CAS, and its publish `psync` writes back the note in the window that
//!    moves `RD_q`; an operation with no effect issues no fence, and the
//!    note folds into step 5's write-back. When the pid's previous request
//!    deferred its write-back (step 5), that slot's line is noted too — the
//!    *hand-over* — so the same publish window writes it back. On the
//!    thread that deferred it the note is a duplicate; on another
//!    connection's thread it is a write-back of its own, since a fence
//!    orders only its own core's write-backs. `begin_op` then hands its
//!    record over ([`crate::recovery::record_invocation`]): the operation's
//!    `Isb-LP` prologue runs no invocation glue and stores, in the recovery
//!    line before any `RD_q` of the operation, the line as it found it
//!    (`RD_q` = `prior`) and the record checks — `pending` must have
//!    reached `op_seq`, and the handed-over slot's `last_seq` its own.
//!    Recovery rolls a publication whose check fails back to `prior`
//!    ([`crate::recovery::RecArea::validated`]): the lines of one window
//!    reach media in any order, and no tag is stored before its `psync`
//!    returns, so such a publication took no effect;
//! 4. apply the structure operation (which publishes its own descriptor);
//! 5. [`ResponseTable::finish_op`] — `resp` stored **before** `last_seq`.
//!    The `last_seq` store itself retires the record (`pending.op_seq ==
//!    last_seq` is no longer in flight); there is no clear step. Then one
//!    of two things:
//!    * the pid's `RD_q` names a descriptor other than `prior` whose `DONE`
//!      bit is set, with `presult == resp`: the request's last attempt took
//!      effect, and `help` made `DONE` durable before it returned (every
//!      path to `Done` fences it on the returning thread, whoever set it).
//!      The descriptor already is the durable response, so the slot's line is
//!      only noted — *deferred* — and the lane's next fence carries it
//!      (the hand-over of step 3, or [`ResponseTable::flush_deferred`] at
//!      a clean stop, which the table's last handle also runs when it
//!      drops);
//!    * otherwise (the request published nothing, or its last attempt
//!      failed) one write-back of the slot's line and one `psync`;
//! 6. release `RD_q`'s reference on `prior` if the operation moved `RD_q`
//!    ([`crate::env::Env::release_prior`]);
//! 7. acknowledge on the socket.
//!
//! Steps 3 and 5 lean on the slot being **one 64-byte line** (its size is
//! asserted below): hardware persists the stores to one line in store order
//! (Px86), so whatever part of the line reaches media — by a write-back or
//! by an eviction at any moment — is a prefix of `prior`, `pending`,
//! `resp`, `last_seq` as they were stored, and a fence between two of
//! those stores would order the line only against itself. `prior` before
//! `pending` is load-bearing: a request found in flight has its `prior` on
//! media, and [`ResponseTable::resolve`] answers `Restart` while the pid's
//! `RD_q` still equals it — the request published nothing, and whatever
//! `RD_q` names is an earlier request's descriptor, whose `Completed` is
//! not this request's. Any other `RD_q` is one of this request's own
//! attempts: only the lane writes it, and it holds its reference on
//! `prior` until step 6, so no attempt can draw that address back from the
//! descriptor pool. Step 5's store order makes the pair atomic for
//! readers: `op_seq == last_seq` proves `resp` is that operation's
//! response, for a live reader (release/acquire) and in every crash image
//! (line order) alike.
//!
//! Crash windows, per step: before 3, or with `pending` not yet on media →
//! not in flight, decision ignored, client retry re-applies as fresh: the
//! operation's publication, if its `RD_q` reached media, fails its record
//! check and is rolled back to `prior`, so it took no effect. From the
//! publish `psync` after 3 to the end of 5 → in flight; `Completed(res)`
//! finalizes `res` exactly as step 5 would (re-finalizing a half-written
//! pair writes the same words), `Restart` steps `pending` back to
//! `last_seq` and the retry re-applies: never below an earlier request's
//! sequence number, which a recovery line may still check, and the
//! request's own check was retired by the recovery that decided it. After a
//! fenced 5 → the retry is a dedup hit. After a deferred 5 → the slot may
//! still read in flight on media, with `pending` and `prior` durable (the
//! publish window wrote step 3's note back) and `RD_q` naming the done
//! descriptor: no publication of the next request counts before its window
//! has written the hand-over back — its check rolls it back to that
//! descriptor otherwise. Op-Recover answers `Completed(presult)`, the
//! acknowledged response, and resolution finalizes it — the path a kill
//! between `DONE` and a fenced 5 takes anyway. In that window a second slot
//! may be in flight under the same pid: the next request's, begun with
//! `prior` = that `RD_q`, which resolves `Restart`; resolution therefore
//! visits every slot. A process that dies there loses its volatile record
//! of the deferred slot, whose stores its cache still holds, and two paths
//! then move `RD_q` with nothing handed over: peer recovery's
//! [`RecArea::clear_slot`], and a new process's first publish on the tid.
//! Both come after [`ResponseTable::resolve`] on the pid, which therefore
//! writes back every slot whose `pending` names the pid, in flight or not,
//! and fences before it returns. In every window the operation applies
//! exactly once and the response the client eventually reads is the
//! original. The transitions are generic over the persistency model, and
//! the tests below crash them at every instruction under [`nvm::SimNvm`]
//! with the slot and the recovery line each declared one line
//! ([`nvm::sim::declare_line`]) — the model that makes the argument true.
//!
//! # GC / ack watermark
//!
//! `last_seq` *is* the garbage collection: a client slot retains exactly one
//! response — the newest acknowledged one — and every older response is
//! reclaimed by overwrite. That is safe because the wire protocol pins the
//! client to `op_seq ∈ {last_seq, last_seq + 1}`: acknowledging `op_seq`
//! is the client's promise that every earlier response was received, so
//! `last_seq` is the ack watermark and nothing below it can be re-asked
//! (such a request is answered with a typed `StaleSeq` error, not silence).
//! Client slots themselves are never evicted — a table-full registration
//! fails typed (`TableFull` on the wire) rather than silently recycling a
//! slot whose owner might still retry.

use crate::engine::{Info, RES_BOT};
use crate::recovery::{rootkeys, AttachError, Check, RecArea, Recovered};
use crate::tag::Base;
use nvm::mapped::{MappedHeap, MappedNvm};
use nvm::{PWord, Persist};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;

/// Registered clients the table can hold (one 64-byte slot each).
pub const CLIENT_SLOTS: usize = 256;
/// Largest sequence number a request may carry: `pending` packs the tid
/// into the 8 bits above it.
pub const MAX_OP_SEQ: u64 = (1 << SEQ_BITS) - 1;

const SEQ_BITS: u32 = crate::recarea::SEQ_BITS;
const SLOT_BYTES: usize = 64;
/// Header magic, stamped when the block is first initialised. "RTB1" was
/// the layout with a separate per-tid intent array; it is refused typed.
const MAGIC: u64 = 0x5254_4232; // "RTB2"

const _: () = assert!(nvm::MAX_PROCS <= 1 << (64 - SEQ_BITS), "a tid must fit above the sequence");
const _: () = assert!(std::mem::size_of::<ClientSlot<MappedNvm>>() == SLOT_BYTES);

/// Client-slot ID left when healing drops a duplicate registration.
/// [`ResponseTable::find`] probes *past* a tombstone (writing a plain 0
/// mid-chain would truncate the probe chain of every client that passed
/// through the slot, orphaning their watermarks), and registration may
/// reclaim it. `u64::MAX` is reserved: client IDs must be below it.
const TOMBSTONE: u64 = u64::MAX;

/// One client's durable record: dedup pair plus the request in flight.
/// Generic over the persistency model so the crash simulator can own one
/// (the table itself addresses arena-resident `ClientSlot<MappedNvm>`s).
#[repr(C)]
struct ClientSlot<M: Persist> {
    /// Owning client ID (nonzero; 0 = free). CAS-claimed at registration.
    id: PWord<M>,
    /// Highest acknowledged sequence number — the ack watermark.
    last_seq: PWord<M>,
    /// Encoded response of operation `last_seq` (engine result word).
    resp: PWord<M>,
    /// `(tid << 56) | op_seq` of the newest request begun for this client;
    /// in flight iff `op_seq == last_seq + 1`.
    pending: PWord<M>,
    /// `RD_q` of that request's tid when it began; stored before `pending`.
    prior: PWord<M>,
    _pad: [u64; 3],
}

impl<M: Persist> ClientSlot<M> {
    /// `(tid, op_seq)` of the request in flight on this slot, if any.
    fn inflight(&self) -> Option<(usize, u64)> {
        let pending = self.pending.load();
        let op_seq = pending & MAX_OP_SEQ;
        (op_seq == self.last_seq.load() + 1).then_some(((pending >> SEQ_BITS) as usize, op_seq))
    }

    /// Records `op_seq` as in flight under `tid`, whose `RD_q` reads
    /// `prior`, and notes the slot's line for write-back without a fence:
    /// the operation's publish `psync` writes it back in the window that
    /// moves `RD_q`, and an operation with no effect folds the note into
    /// [`ClientSlot::finalize`]'s write-back. `prior` is stored first, so
    /// no prefix of the line shows `pending` without it. `handed` is the
    /// slot whose write-back `tid`'s previous request deferred
    /// ([`ClientSlot::settle`]); its line is noted too. Then the record is
    /// handed over ([`crate::recovery::record_invocation`]): the
    /// operation's prologue stores in the recovery line that `pending`
    /// must have reached `op_seq`, and `handed`'s `last_seq` its own, for
    /// a publication to count — links at `base`.
    fn begin(
        &self,
        handed: Option<&ClientSlot<M>>,
        tid: usize,
        op_seq: u64,
        prior: u64,
        base: Base,
    ) {
        assert!(tid < nvm::MAX_PROCS && op_seq <= MAX_OP_SEQ, "pending word out of range");
        let check = |w: &PWord<M>, seq| Check { at: base.word(w), seq };
        let hand = handed.map_or(Check::default(), |h| {
            M::pwb_coal(&h.last_seq);
            check(&h.last_seq, h.last_seq.load())
        });
        self.prior.store(prior);
        self.pending.store((tid as u64) << SEQ_BITS | op_seq);
        M::pwb_coal(&self.pending);
        crate::recovery::record_invocation(tid, [check(&self.pending, op_seq), hand]);
    }

    /// `resp` first, `last_seq` second, then one write-back and one fence:
    /// the line persists in store order, so `last_seq` — the commit point
    /// of the pair, and the store that retires `pending` — never reaches
    /// media without `resp` (or without `pending`).
    fn finalize(&self, op_seq: u64, resp: u64) {
        debug_assert!(resp != RES_BOT, "finalized responses are never ⊥");
        self.resp.store(resp);
        self.last_seq.store(op_seq);
        M::pwb_coal(&self.last_seq);
        M::psync();
    }

    /// The request's end: [`ClientSlot::finalize`], unless `rd` — the
    /// pid's `RD_q` — already holds `resp` durably
    /// ([`ClientSlot::answer_behind`]). Then the same two stores, with the
    /// line noted and no fence: a crash image that lost them still has the
    /// slot in flight behind that descriptor, which resolves to `resp`.
    /// Returns whether it deferred; the pid's next [`ClientSlot::begin`]
    /// must then be handed this slot.
    fn settle(&self, op_seq: u64, resp: u64, rd: u64, base: Base) -> bool {
        let answer = self.answer_behind(rd, base);
        debug_assert!(
            answer.is_none_or(|a| a == resp),
            "the request's done attempt answers otherwise"
        );
        if answer != Some(resp) {
            self.finalize(op_seq, resp);
            return false;
        }
        self.resp.store(resp);
        self.last_seq.store(op_seq);
        M::pwb_coal(&self.last_seq);
        true
    }

    /// What Op-Recover answers behind `rd`, the `RD_q` of the pid this
    /// slot's request runs under, when that names one of the request's own
    /// attempts (not `prior`) that took effect: its `presult`, durable with
    /// its `DONE` bit.
    fn answer_behind(&self, rd: u64, base: Base) -> Option<u64> {
        if rd == 0 || rd == self.prior.load() {
            return None;
        }
        // SAFETY: `RD_q` holds a reference on the descriptor it names, and
        // only the lane running this request moves it.
        unsafe { (*base.at::<Info<M>>(rd)).response() }
    }

    /// Disposes of the request in flight under `tid` (if any) by `decision`,
    /// the Op-Recover verdict on `rd`, `tid`'s `RD_q`: `Completed` finalizes,
    /// `Restart` steps `pending`'s sequence back to the watermark — and so
    /// does `rd == prior`, whatever the verdict: the request published
    /// nothing, and the descriptor `rd` names is an earlier request's.
    /// Either way the slot is no longer in flight, so a second call is a
    /// no-op. Stepping back, not clearing: a recovery line that checks an
    /// earlier request of this client ([`crate::recarea::Check`]) still
    /// reads it reached, and only this request's own check — retired by the
    /// recovery that decided it — can fail.
    fn resolve(&self, tid: usize, rd: u64, decision: Recovered) -> Option<Resolution> {
        let (_, op_seq) = self.inflight().filter(|&(t, _)| t == tid)?;
        let client_id = self.id.load();
        let decision = if rd == self.prior.load() { Recovered::Restart } else { decision };
        Some(match decision {
            Recovered::Completed(resp) if resp != RES_BOT => {
                self.finalize(op_seq, resp);
                Resolution::Finalized { client_id, op_seq, resp }
            }
            _ => {
                self.pending.store((tid as u64) << SEQ_BITS | (op_seq - 1));
                M::pbarrier(&self.pending);
                Resolution::Restarted { client_id, op_seq }
            }
        })
    }

    /// Whether the newest request begun on this slot ran under `tid`, in
    /// flight or not.
    fn names(&self, tid: usize) -> bool {
        let pending = self.pending.load();
        pending != 0 && (pending >> SEQ_BITS) as usize == tid
    }

    /// Zeroes everything but the ID, durably: `pending` first and the
    /// watermark last, so no prefix of the line pairs a cleared watermark
    /// with the old `pending` (which [`ClientSlot::validate`] refuses).
    fn wipe(&self) {
        self.pending.store(0);
        self.prior.store(0);
        self.resp.store(0);
        self.last_seq.store(0);
        M::pwb(&self.last_seq);
        M::psync();
    }

    /// Drops a duplicate registration: the residue is durably zero before
    /// the tombstone stamp, so a later reclaim starts from a clean watermark.
    fn bury(&self) {
        self.wipe();
        self.id.store(TOMBSTONE);
        M::pwb(&self.id);
        M::psync();
    }

    /// Refuses shapes no crash of a correct execution leaves behind.
    fn validate(&self) -> Result<(), &'static str> {
        let (last_seq, pending) = (self.last_seq.load(), self.pending.load());
        if last_seq > MAX_OP_SEQ {
            return Err("watermark beyond the sequence range");
        }
        if (pending >> SEQ_BITS) as usize >= nvm::MAX_PROCS {
            return Err("pending names a tid beyond MAX_PROCS");
        }
        if pending & MAX_OP_SEQ > last_seq + 1 {
            return Err("pending sequence skips ahead of the watermark");
        }
        Ok(())
    }
}

/// Resolves every slot of `slots` in flight under `tid` by `decision`, the
/// Op-Recover verdict on `rd`, `tid`'s `RD_q` as Op-Recover left it — a
/// publication torn by a lost record already rolled back to its `prior`
/// ([`RecArea::validated`]) — ([`ClientSlot::resolve`]),
/// and returns the last resolution. Every other slot whose `pending` names
/// `tid` is written back, with one `psync` for them all before it returns:
/// the slot `tid`'s last request settled behind its descriptor reads
/// finalized here, yet its line may still be in flight on media, and the
/// caller is about to let `RD_q` move — peer recovery clears it, and a new
/// process on the tid publishes over it with nothing handed over.
fn resolve_under<'s, M: Persist + 's>(
    slots: impl IntoIterator<Item = &'s ClientSlot<M>>,
    tid: usize,
    rd: u64,
    decision: Recovered,
) -> Option<Resolution> {
    let (mut last, mut written) = (None, false);
    for s in slots.into_iter().filter(|s| s.names(tid)) {
        match s.resolve(tid, rd, decision) {
            Some(r) => last = Some(r),
            None => {
                M::pwb_coal(&s.last_seq);
                written = true;
            }
        }
    }
    if written {
        M::psync();
    }
    last
}

/// What healing/validation found and repaired (all zero on a clean image).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct HealReport {
    /// Client slots zeroed because registration tore before the ID stamp
    /// persisted (`id == 0` with residue in the other words).
    pub torn_clients: usize,
    /// Duplicate registrations collapsed: the slot with the lower
    /// `last_seq` was tombstoned (deterministically, ties keep the first;
    /// a tombstone keeps later chain entries reachable and is reusable by
    /// new registrations).
    pub dup_clients: usize,
}

/// How [`ResponseTable::resolve`] disposed of one in-flight request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolution {
    /// The interrupted operation took effect: its response was finalized
    /// into the client slot (idempotently), the retry will dedup-hit.
    Finalized {
        /// The client whose slot now carries the response.
        client_id: u64,
        /// The resolved operation's sequence number.
        op_seq: u64,
        /// The encoded response.
        resp: u64,
    },
    /// The interrupted operation did not take effect: `pending` was stepped
    /// back to the watermark and the client's retry will re-apply as a
    /// fresh operation.
    Restarted {
        /// The client whose request must be retried.
        client_id: u64,
        /// The unapplied operation's sequence number.
        op_seq: u64,
    },
}

/// Handle over the committed [`rootkeys::RESPTAB`] root block.
///
/// Cheap to clone; the durable state is in the mapped heap, and the clones
/// share the per-pid record of deferred write-backs. Concurrency contract:
/// a client slot is written only under the tid the client is routed to —
/// the service routes each `client_id` to exactly one tid lane and runs one
/// request per lane at a time — or, once that tid's process is dead and the
/// slot is in flight under it, by the holder of the process's recovery
/// lease, while every live server answers the client `Recovering`. Slot
/// writes therefore never race. A live tid has at most one slot in flight;
/// a crash image may show two (see the module docs).
/// Cross-thread *reads* are safe against the documented write orderings.
#[derive(Clone)]
pub struct ResponseTable {
    /// The heap-wide recovery slots, whose `RD_q` a request's `prior` holds.
    rec: Arc<RecArea<MappedNvm>>,
    /// The client slots and the deferred record, one for every clone.
    block: Arc<Block>,
}

/// The table's root block and the per-pid record of deferred write-backs,
/// shared by a table's clones. It keeps the heap mapped, and the last
/// clone's drop writes back every slot still deferred: a clean detach
/// leaves no acknowledged response leaning on an `RD_q` that the next
/// process on the tid publishes over.
struct Block {
    _heap: Arc<MappedHeap>,
    base: *mut u8,
    /// Per pid, `1 +` the index of the client slot whose write-back the
    /// pid's last [`ResponseTable::finish_op`] deferred; 0 when none. The
    /// pid's next [`ResponseTable::begin_op`] takes it. Volatile: after a
    /// crash, resolution reads what it stood for from `RD_q`.
    deferred: Box<[AtomicUsize]>,
}

impl Block {
    fn client(&self, idx: usize) -> &ClientSlot<MappedNvm> {
        assert!(idx < CLIENT_SLOTS);
        // SAFETY: in-bounds fixed-stride slot of the committed root block.
        unsafe { &*(self.base.add(SLOT_BYTES * (1 + idx)) as *const ClientSlot<MappedNvm>) }
    }

    fn take_deferred(&self, pid: usize) -> Option<usize> {
        self.deferred[pid].swap(0, Relaxed).checked_sub(1)
    }

    /// Writes back the line of every slot a pid deferred and fences once.
    fn flush_deferred(&self) {
        let mut any = false;
        for pid in 0..nvm::MAX_PROCS {
            if let Some(idx) = self.take_deferred(pid) {
                MappedNvm::pwb_coal(&self.client(idx).last_seq);
                any = true;
            }
        }
        if any {
            MappedNvm::psync();
        }
    }
}

impl Drop for Block {
    fn drop(&mut self) {
        self.flush_deferred();
    }
}

// SAFETY: the raw base points into the heap mapping, which `_heap` keeps
// alive; all access goes through atomics (PWord).
unsafe impl Send for Block {}
// SAFETY: as above — interior mutability is atomic-word-based.
unsafe impl Sync for Block {}

impl ResponseTable {
    /// Size of the root block: header + client slots.
    pub fn bytes() -> usize {
        SLOT_BYTES * (1 + CLIENT_SLOTS)
    }

    /// Allocates (or re-opens) the table on `heap`, then validates it,
    /// writing nothing. Must run while the caller has exclusive ownership
    /// of the heap (attach flock held, no live peers), which then heals the
    /// table ([`ResponseTable::heal`]) once the replay has decided every
    /// pid.
    pub(crate) fn attach_excl(heap: &Arc<MappedHeap>) -> Result<Self, AttachError> {
        let t = Self::open(heap)?;
        t.validate()?;
        Ok(t)
    }

    /// Opens the table without validation — the joiner's path (the image
    /// was validated by the initial attacher; peers are live and mid-write,
    /// so healing here would race their slot updates).
    pub(crate) fn open(heap: &Arc<MappedHeap>) -> Result<Self, AttachError> {
        let (base, fresh) = heap.root_alloc(rootkeys::RESPTAB, Self::bytes())?;
        let (rec_base, _) =
            heap.root_alloc(rootkeys::RECAREA, RecArea::<MappedNvm>::slots_bytes())?;
        // SAFETY: the heap's committed recovery-slot block, alive with `block`'s heap.
        let rec = Arc::new(unsafe { RecArea::attach_raw(rec_base, Base(heap.base() as usize)) });
        let deferred = (0..nvm::MAX_PROCS).map(|_| AtomicUsize::new(0)).collect();
        let t = Self { rec, block: Arc::new(Block { _heap: Arc::clone(heap), base, deferred }) };
        let magic = t.header().load();
        if fresh || magic == 0 {
            t.header().store(MAGIC);
            MappedNvm::pbarrier(t.header());
        } else if magic != MAGIC {
            return Err(AttachError::CorruptResponseTable { slot: 0, reason: "bad header magic" });
        }
        Ok(t)
    }

    fn header(&self) -> &PWord<MappedNvm> {
        // SAFETY: word 0 of the committed root block.
        unsafe { &*(self.block.base as *const PWord<MappedNvm>) }
    }

    fn client(&self, idx: usize) -> &ClientSlot<MappedNvm> {
        self.block.client(idx)
    }

    fn probe_start(client_id: u64) -> usize {
        // Fibonacci hash; the table is a power of two.
        (client_id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % CLIENT_SLOTS
    }

    /// Finds `client_id`'s slot index, if registered. Only a free slot
    /// (`id == 0`) terminates the probe: tombstones and other clients'
    /// slots are probed past.
    fn find(&self, client_id: u64) -> Option<usize> {
        let start = Self::probe_start(client_id);
        for i in 0..CLIENT_SLOTS {
            let idx = (start + i) % CLIENT_SLOTS;
            let id = self.client(idx).id.load();
            if id == client_id {
                return Some(idx);
            }
            if id == 0 {
                return None;
            }
        }
        None
    }

    /// Registers `client_id` (idempotent), returning its slot index, or
    /// `None` when the table is full. `client_id` must be nonzero and
    /// below `u64::MAX` (the tombstone value).
    pub fn register(&self, client_id: u64) -> Option<usize> {
        assert_ne!(client_id, 0, "client IDs are nonzero");
        assert_ne!(client_id, TOMBSTONE, "client ID u64::MAX is reserved");
        // A lost CAS race below means a different client claimed the slot
        // mid-probe (a racing claim for the *same* id cannot exist — one
        // lane per client); re-probe from the start against the new
        // occupancy. Each retry follows another client's successful claim,
        // so the loop terminates: the table fills in ≤ CLIENT_SLOTS claims.
        'probe: loop {
            let start = Self::probe_start(client_id);
            // Earliest tombstone passed on this probe: the preferred claim
            // target — reusing it keeps chains short and stops repeated
            // heals from leaking slots forever.
            let mut grave: Option<usize> = None;
            for i in 0..CLIENT_SLOTS {
                let idx = (start + i) % CLIENT_SLOTS;
                let id = self.client(idx).id.load();
                if id == client_id {
                    return Some(idx);
                }
                if id == TOMBSTONE {
                    grave.get_or_insert(idx);
                    continue;
                }
                if id == 0 {
                    // Free terminator: `client_id` is not registered (a
                    // registered slot is never zeroed, so no chain passes
                    // a 0). Claim the earliest tombstone if we passed one,
                    // else this free slot.
                    let (claim, expect) = match grave {
                        Some(g) => (g, TOMBSTONE),
                        None => (idx, 0),
                    };
                    let s = self.client(claim);
                    if s.id.cas(expect, client_id) == expect {
                        // The ID stamp is the slot's commit point: persist
                        // it before any response lands here. A crash before
                        // this flush reaches media leaves the slot free (or
                        // tombstoned) with zero residue — still claimable.
                        MappedNvm::pbarrier(&s.id);
                        return Some(claim);
                    }
                    continue 'probe;
                }
            }
            // No free terminator: full scan. A passed tombstone is still
            // claimable (the full scan proved `client_id` is nowhere).
            let g = grave?;
            let s = self.client(g);
            if s.id.cas(TOMBSTONE, client_id) == TOMBSTONE {
                MappedNvm::pbarrier(&s.id);
                return Some(g);
            }
        }
    }

    /// The client's ack watermark and the response stored at it:
    /// `(last_seq, resp)`, or `None` for an unregistered client. A
    /// `last_seq` of 0 means no operation was ever acknowledged. `resp` is
    /// stored before `last_seq`, and `last_seq` is read first here, so the
    /// response is at least as new as the watermark; the
    /// client's lane holder — the sole live writer — reads them as a pair.
    pub fn lookup(&self, client_id: u64) -> Option<(u64, u64)> {
        let idx = self.find(client_id)?;
        let s = self.client(idx);
        let seq = s.last_seq.load();
        let resp = s.resp.load();
        Some((seq, resp))
    }

    /// Records `op_seq` as in flight for the registered client `client_id`
    /// under `pid`, with `pid`'s `RD_q` as its `prior`, and the slot's line
    /// noted but not fenced: the structure operation's publish `psync`
    /// makes it durable, and [`ResponseTable::finish_op`] drains it if no
    /// fence came. The line of the slot whose write-back `pid`'s previous
    /// request deferred is noted with it, on this thread. This is the
    /// invocation record (see module docs): call it
    /// before the structure operation's first instruction, on the thread
    /// that runs both, and no invocation glue — the operation's `Isb-LP`
    /// prologue consumes the record this hands over instead; after the
    /// operation, release `RD_q`'s hold on [`ResponseTable::prior`]. The
    /// wire opcode and argument are not recorded: resolution never
    /// re-applies.
    pub fn begin_op(&self, pid: usize, client_id: u64, op_seq: u64, _op: u64, _arg: u64) {
        let idx = self.find(client_id).expect("begin_op follows register");
        let handed = self.block.take_deferred(pid).map(|d| self.client(d));
        self.client(idx).begin(handed, pid, op_seq, self.rec.published(pid), self.rec.base);
    }

    /// The `prior` the newest [`ResponseTable::begin_op`] of the client at
    /// `client_idx` recorded.
    pub fn prior(&self, client_idx: usize) -> u64 {
        self.client(client_idx).prior.load()
    }

    /// Stores the response into the client slot, which also retires the
    /// in-flight record, and makes it recoverable before returning: by one
    /// write-back and one `psync`, or — when `pid`'s `RD_q` names the
    /// request's own attempt, done with `resp` as its `presult` — by that
    /// descriptor, the slot's line only noted until `pid`'s next
    /// [`ResponseTable::begin_op`] hands it over (module docs, step 5).
    /// `client_idx` is the index [`ResponseTable::register`] returned for
    /// the request's client.
    pub fn finish_op(&self, pid: usize, client_idx: usize, op_seq: u64, resp: u64) {
        let slot = self.client(client_idx);
        if slot.settle(op_seq, resp, self.rec.published(pid), self.rec.base) {
            let was = self.block.deferred[pid].swap(client_idx + 1, Relaxed);
            debug_assert!(
                was == 0 || was == client_idx + 1,
                "a deferred slot was never handed over"
            );
        }
    }

    /// Writes back the line of every slot whose write-back a pid deferred
    /// and fences once, so that no acknowledged response leans on a
    /// descriptor any more. For a clean stop, after the last request; the
    /// last clone's drop does it too.
    pub fn flush_deferred(&self) {
        self.block.flush_deferred();
    }

    /// Whether the lines pending on the calling thread are at most what a
    /// deferred [`ResponseTable::finish_op`] on `pid` leaves there: none,
    /// or the line of the slot `pid` deferred. Call it holding `pid`'s lane.
    pub fn holds_only_deferred(&self, pid: usize) -> bool {
        match nvm::coalesce::pending() {
            0 => true,
            1 => self
                .deferred_slot(pid)
                .is_some_and(|s| nvm::coalesce::is_pending(s.last_seq.addr())),
            _ => false,
        }
    }

    /// Whether the slot `pid` deferred, if any, is recoverable as
    /// acknowledged: `pid`'s `RD_q` names a done descriptor other than the
    /// slot's `prior`, answering the slot's response. Call it holding
    /// `pid`'s lane.
    pub fn deferred_is_recoverable(&self, pid: usize) -> bool {
        self.deferred_slot(pid).is_none_or(|s| {
            s.answer_behind(self.rec.published(pid), self.rec.base) == Some(s.resp.load())
        })
    }

    fn deferred_slot(&self, pid: usize) -> Option<&ClientSlot<MappedNvm>> {
        self.block.deferred[pid].load(Relaxed).checked_sub(1).map(|idx| self.client(idx))
    }

    /// Resolves the requests in flight under `pid` (if any) against the
    /// replay decision for that pid — the attach-time and peer-recovery
    /// wiring — and returns the last resolution. Idempotent: once resolved,
    /// a slot is no longer in flight and later calls are no-ops. A crash
    /// image may hold two: a request whose write-back was deferred and the
    /// next one, begun with `prior` = `RD_q` (module docs); each resolves
    /// by its own `prior`. Every other slot `pid` ran a request on is
    /// written back and fenced before it returns, so that a response `pid`
    /// deferred before it died no longer leans on `RD_q`.
    ///
    /// `Completed(res)` finalizes `res` as the request's response, unless
    /// `pid`'s `RD_q` still equals the slot's `prior` (the module docs'
    /// write-ordering argument: then the request published nothing, and the
    /// decision is an earlier request's); `Restart` steps `pending` back to
    /// the watermark so the client's retry re-applies. Call it while `RD_q`
    /// still holds what the decision was computed from.
    pub fn resolve(&self, pid: usize, decision: Recovered) -> Option<Resolution> {
        let slots = (0..CLIENT_SLOTS).map(|idx| self.client(idx));
        resolve_under(slots, pid, self.rec.published(pid), decision)
    }

    /// `true` when `client_id`'s slot is in flight under a pid *outside*
    /// `own_band`: the client's previous request died with a peer whose
    /// recovery has not resolved it yet — applying now could double-apply,
    /// so the server answers a typed `Recovering` error and the client
    /// retries after the healer has run. The healer's last store
    /// (`last_seq`, or `pending` stepped back) is what ends the in-flight
    /// state, so a miss here means the slot is fully resolved.
    pub fn foreign_inflight(&self, client_id: u64, own_band: std::ops::Range<usize>) -> bool {
        self.find(client_id)
            .and_then(|idx| self.client(idx).inflight())
            .is_some_and(|(tid, _)| !own_band.contains(&tid))
    }

    /// Refuses, typed, a registered slot of a shape no crash of a correct
    /// execution leaves behind ([`ClientSlot::validate`]). Writes nothing.
    fn validate(&self) -> Result<(), AttachError> {
        for idx in 0..CLIENT_SLOTS {
            let s = self.client(idx);
            if ![0, TOMBSTONE].contains(&s.id.load()) {
                s.validate()
                    .map_err(|reason| AttachError::CorruptResponseTable { slot: idx, reason })?;
            }
        }
        Ok(())
    }

    /// Deterministic healing of a validated table (exclusive access only —
    /// see [`ResponseTable::attach_excl`]): the torn shapes a crash of a
    /// correct execution may leave. It runs after the attach replay, whose
    /// decisions retire every record check a recovery line holds
    /// ([`RecArea::validated`]): a wiped or buried slot drops its
    /// sequence numbers, which would otherwise fail a check that names it.
    pub(crate) fn heal(&self) -> HealReport {
        let mut report = HealReport::default();
        let mut seen: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
        for idx in 0..CLIENT_SLOTS {
            let s = self.client(idx);
            let id = s.id.load();
            if id == 0 || id == TOMBSTONE {
                let residue = [&s.last_seq, &s.resp, &s.pending, &s.prior];
                if residue.iter().any(|w| w.load() != 0) {
                    // Registration tore before the ID stamp persisted but
                    // after other words landed — impossible under the
                    // live ordering (ID is persisted at claim), yet cheap
                    // to heal deterministically: the slot is claimable.
                    s.wipe();
                    report.torn_clients += 1;
                }
                continue;
            }
            if let Some(&prev) = seen.get(&id) {
                // Duplicate registration (a torn probe chain). Keep the
                // slot with the higher watermark — it supersedes the other
                // by the ack-watermark argument; ties keep the earlier
                // slot, which the probe order reaches first. The dropped
                // slot becomes a TOMBSTONE, not 0: a mid-chain 0 would
                // stop `find` short and orphan every client whose probe
                // chain passed through this slot (it would re-register in
                // the hole with a fresh watermark and be answered `SeqGap`
                // forever after).
                let (keep, drop_) = if self.client(prev).last_seq.load() >= s.last_seq.load() {
                    (prev, idx)
                } else {
                    (idx, prev)
                };
                self.client(drop_).bury();
                seen.insert(id, keep);
                report.dup_clients += 1;
            } else {
                seen.insert(id, idx);
            }
        }
        report
    }

    /// Diagnostic view of the request in flight under `pid`:
    /// `(client_id, op_seq)`.
    pub fn inflight(&self, pid: usize) -> Option<(u64, u64)> {
        (0..CLIENT_SLOTS).find_map(|idx| {
            let s = self.client(idx);
            s.inflight().filter(|&(tid, _)| tid == pid).map(|(_, op_seq)| (s.id.load(), op_seq))
        })
    }
}

#[cfg(test)]
impl ResponseTable {
    /// Forges an image healing collapses: a duplicate registration of
    /// `client_id` in the free slot after its own, acknowledged through
    /// `last_seq`.
    pub(crate) fn forge_duplicate(&self, client_id: u64, last_seq: u64) {
        let s = self.client((self.find(client_id).unwrap() + 1) % CLIENT_SLOTS);
        assert_eq!(s.id.load(), 0, "a free slot");
        s.last_seq.store(last_seq);
        s.id.store(client_id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{help, res_val, Info, InfoFill, RES_FALSE, RES_TRUE};
    use crate::pool::PoolItem;
    use crate::recovery::op_recover;
    use crate::simtest::crashed_at;
    use nvm::{sim, SimNvm};
    use reclaim::Collector;

    fn mk(name: &str) -> (Arc<MappedHeap>, ResponseTable) {
        let path =
            std::env::temp_dir().join(format!("isb-resptable-{}-{}", name, std::process::id()));
        let _ = std::fs::remove_file(&path);
        let heap = MappedHeap::create(&path, 1 << 20).unwrap();
        // The mapping outlives the name: nothing is left behind, whatever
        // the test does.
        std::fs::remove_file(&path).unwrap();
        let t = ResponseTable::open(&heap).unwrap();
        (heap, t)
    }

    #[test]
    fn register_lookup_roundtrip() {
        nvm::tid::set_tid(0);
        let (_h, t) = mk("roundtrip");
        let idx = t.register(7).unwrap();
        assert_eq!(t.register(7), Some(idx), "idempotent");
        assert_eq!(t.lookup(7), Some((0, 0)), "fresh watermark");
        assert_eq!(t.lookup(8), None);
        t.begin_op(3, 7, 1, 2, 40);
        assert_eq!(t.inflight(3), Some((7, 1)));
        assert_eq!(nvm::coalesce::pending(), 1, "begin notes the slot's line, unfenced");
        t.finish_op(3, idx, 1, RES_TRUE);
        assert_eq!(nvm::coalesce::pending(), 0, "finish drains it");
        assert_eq!(t.inflight(3), None, "the watermark store retires the record");
        assert_eq!(t.lookup(7), Some((1, RES_TRUE)));
    }

    #[test]
    fn resolve_completed_finalizes_and_restart_clears() {
        nvm::tid::set_tid(0);
        let (_h, t) = mk("resolve");
        let idx = t.register(9).unwrap();
        t.finish_op(5, idx, 3, RES_FALSE);
        t.begin_op(5, 9, 4, 5, 0);
        assert_eq!(t.resolve(6, Recovered::Restart), None, "another pid's decision");
        // `RD_q` still reads the request's `prior`: it published nothing,
        // and the verdict is an earlier request's.
        let r = t.resolve(5, Recovered::Completed(res_val(77))).unwrap();
        assert_eq!(r, Resolution::Restarted { client_id: 9, op_seq: 4 });
        t.begin_op(5, 9, 4, 5, 0);
        t.rec.publish(5, 0x40); // an attempt of its own
        let r = t.resolve(5, Recovered::Completed(res_val(123))).unwrap();
        assert_eq!(r, Resolution::Finalized { client_id: 9, op_seq: 4, resp: res_val(123) });
        assert_eq!(t.lookup(9), Some((4, res_val(123))));
        assert_eq!(t.resolve(5, Recovered::Restart), None, "idempotent");

        t.begin_op(5, 9, 5, 1, 7);
        assert_eq!(t.prior(idx), 0x40, "the next request records RD_q as it stands");
        let r = t.resolve(5, Recovered::Restart).unwrap();
        assert_eq!(r, Resolution::Restarted { client_id: 9, op_seq: 5 });
        assert_eq!(t.lookup(9), Some((4, res_val(123))), "watermark untouched");
        assert_eq!(t.inflight(5), None);
        assert_eq!(t.resolve(5, Recovered::Restart), None, "idempotent");
    }

    /// A crash image of a deferred `finish_op` followed by the next
    /// request's `begin_op` holds two slots in flight under one pid: the
    /// deferred one, behind the descriptor `RD_q` names, and the next one,
    /// whose `prior` is that `RD_q`. Resolution visits both: the first
    /// finalizes the decision, the second restarts.
    #[test]
    fn resolve_visits_every_slot_in_flight_under_the_pid() {
        nvm::tid::set_tid(0);
        let (_h, t) = mk("two_inflight");
        t.register(7).unwrap();
        t.register(8).unwrap();
        t.begin_op(5, 7, 1, 1, 40);
        t.rec.publish(5, 0x40); // its attempt; its `finish_op` is lost
        t.begin_op(5, 8, 1, 1, 41);
        assert_eq!(t.inflight(5), Some((7, 1)), "two in flight, the first found first");
        let r = t.resolve(5, Recovered::Completed(RES_TRUE));
        assert_eq!(r, Some(Resolution::Restarted { client_id: 8, op_seq: 1 }));
        assert_eq!(t.lookup(7), Some((1, RES_TRUE)), "the deferred request finalized");
        assert_eq!(t.lookup(8), Some((0, 0)), "the next one restarts");
        assert_eq!(t.inflight(5), None);
    }

    #[test]
    fn foreign_inflight_sees_other_bands_only() {
        nvm::tid::set_tid(0);
        let (_h, t) = mk("foreign");
        let idx = t.register(11).unwrap();
        t.register(12).unwrap();
        assert!(!t.foreign_inflight(11, 0..8), "nothing in flight yet");
        t.begin_op(17, 11, 1, 1, 0);
        assert!(t.foreign_inflight(11, 0..8));
        assert!(!t.foreign_inflight(11, 16..24), "own band excluded");
        assert!(!t.foreign_inflight(12, 0..8), "other clients unaffected");
        assert!(!t.foreign_inflight(13, 0..8), "unregistered clients have nothing in flight");
        t.finish_op(17, idx, 1, RES_TRUE);
        assert!(!t.foreign_inflight(11, 0..8), "retired by the watermark");
    }

    /// `n` distinct nonzero IDs sharing one probe start (a forced chain).
    fn colliding_ids(n: usize) -> Vec<u64> {
        let target = ResponseTable::probe_start(1);
        let mut ids = Vec::new();
        let mut id = 1u64;
        while ids.len() < n {
            if ResponseTable::probe_start(id) == target {
                ids.push(id);
            }
            id += 1;
        }
        ids
    }

    #[test]
    fn heal_dup_collapse_keeps_chain_reachable_and_reuses_tombstone() {
        nvm::tid::set_tid(0);
        let (_h, t) = mk("dupchain");
        let ids = colliding_ids(3);
        let (a, b, c) = (ids[0], ids[1], ids[2]);
        let ia = t.register(a).unwrap();
        // Forge the corrupt image healing must cope with: a duplicate
        // registration of `a` in the next slot of its probe chain.
        let dup = (ia + 1) % CLIENT_SLOTS;
        t.client(dup).id.store(a);
        let ib = t.register(b).unwrap();
        assert_eq!(ib, (ia + 2) % CLIENT_SLOTS, "b probed past the duplicate");
        t.finish_op(0, ib, 1, RES_TRUE);
        t.validate().unwrap();
        let report = t.heal();
        assert_eq!(report.dup_clients, 1);
        // b's chain passes through the collapsed slot: it must still
        // resolve to its slot and watermark (a zeroed slot would strand b
        // behind a probe terminator and reset its watermark).
        assert_eq!(t.register(b), Some(ib), "chain past the collapsed slot intact");
        assert_eq!(t.lookup(b), Some((1, RES_TRUE)), "watermark survived the heal");
        assert_eq!(t.lookup(a), Some((0, 0)), "kept slot still registered");
        // A new colliding client reclaims the tombstone instead of
        // growing the chain.
        let ic = t.register(c).unwrap();
        assert_eq!(ic, dup, "tombstone reclaimed");
        assert_eq!(t.lookup(c), Some((0, 0)), "clean watermark on reclaim");
        assert_eq!(t.register(b), Some(ib), "chain intact after the reclaim");
    }

    #[test]
    fn table_full_fails_typed_not_silent() {
        nvm::tid::set_tid(0);
        let (_h, t) = mk("full");
        for id in 1..=CLIENT_SLOTS as u64 {
            assert!(t.register(id).is_some());
        }
        assert_eq!(t.register(CLIENT_SLOTS as u64 + 1), None);
        assert!(t.register(5).is_some(), "existing clients still resolve");
    }

    const TID: usize = 9;
    const OLD: (u64, u64) = (4, RES_FALSE);
    const NEW: (u64, u64) = (5, RES_TRUE);
    const LP: u8 = crate::arm::LP;

    fn words(s: &ClientSlot<SimNvm>) -> [u64; 5] {
        [s.id.peek(), s.last_seq.peek(), s.resp.peek(), s.pending.peek(), s.prior.peek()]
    }

    /// A registered slot, declared one line, whose `words` are the durable
    /// state: acknowledged through `OLD` when fresh, a crash image when
    /// re-installed. Words built before it (the stand-ins) are durable too.
    fn durable_slot(words: [u64; 5]) -> Box<ClientSlot<SimNvm>> {
        let [id, last_seq, resp, pending, prior] = words.map(PWord::new);
        let s = Box::new(ClientSlot { id, last_seq, resp, pending, prior, _pad: [0; 3] });
        sim::declare_line(&[&s.id, &s.last_seq, &s.resp, &s.pending, &s.prior]);
        sim::persist_all();
        s
    }

    /// What every crash image of a slot must satisfy: it validates and
    /// never shows the new watermark beside another response than `answer`.
    fn check_image(slot: &ClientSlot<SimNvm>, answer: u64, ctx: &str) {
        let [_, last_seq, resp, _, _] = words(slot);
        assert!(last_seq != NEW.0 || resp == answer, "{ctx}: new watermark, old response");
        slot.validate().unwrap_or_else(|e| panic!("{ctx}: {e}"));
    }

    /// Fills `info` to tag `tag`, expected to read `expected`, and (if
    /// given) to move `effect` 0 → 1, answering `presult`.
    fn fill<M: Persist>(
        info: *mut Info<M>,
        (tag, expected): (&PWord<M>, u64),
        effect: Option<&PWord<M>>,
        presult: u64,
    ) -> *mut Info<M> {
        let write: Vec<_> = effect.iter().map(|w| (Base(0).word(*w), 0, 1)).collect();
        let affect = [(Base(0).word(tag), expected)];
        let f = InfoFill {
            optype: 1,
            affect: &affect,
            write: &write,
            newset: &[],
            node_words: 0,
            del_mask: 0,
            presult,
        };
        // SAFETY: a descriptor drawn for the caller, not yet published.
        unsafe { Info::fill(info, &f) };
        info
    }

    /// A fresh boxed descriptor, [`fill`]ed; the caller frees it.
    fn descriptor<M: Persist>(tag: &PWord<M>, effect: &PWord<M>, presult: u64) -> *mut Info<M> {
        fill(Box::into_raw(Box::new(Info::fresh())), (tag, 0), Some(effect), presult)
    }

    /// A second request's sequence number and the answer its effect has.
    const NEXT: (u64, u64) = (6, 0x66);
    /// The answer of a request that took no effect.
    const QUIET: u64 = 0x77;

    /// What a sweep's first request does between `begin` and `settle`.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Attempt {
        /// Nothing: `RD_q` stays X, and `settle` fences.
        Idle,
        /// Publishes Y, whose `Help` takes effect: `settle` defers.
        Takes,
        /// Publishes a descriptor whose tag fails, then answers with no
        /// effect: `RD_q` moved to a descriptor that is not done, so
        /// `settle` fences.
        Fails,
    }

    /// What follows a deferred first request on the same pid.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Then {
        Nothing,
        /// The same client's next request, which publishes Z and takes effect.
        Effect,
        /// The same client's next request, which changes nothing.
        NoEffect,
        /// Another client's request on another thread, publishing Z: its
        /// `begin` must write the deferred slot's line back itself.
        OtherThread,
        /// The process dies (its stores stay in the cache, the deferred
        /// record is gone) and a peer recovers the pid: Op-Recover,
        /// resolution, then `clear_slot` nulls `RD_q`.
        PeerRecovery,
        /// The process dies and a new one attaches: Op-Recover and
        /// resolution, then another client's request on the pid publishes
        /// Z with nothing handed over.
        Reattach,
    }

    /// One request of a sweep, as the judge of an image sees it.
    struct Req {
        seq: u64,
        answer: u64,
        /// Its effect word is on media.
        effect: bool,
        /// `settle` returned: the client holds the answer.
        acked: bool,
    }

    /// Runs the operation of a request on the pid: its prologue consumes
    /// the record the request's `begin` handed over, and its publish of the
    /// descriptor at `d` writes the lot back in one window, then it helps.
    fn attempt(rec: &RecArea<SimNvm>, d: usize, c: &Collector) {
        assert_eq!(rec.begin::<LP>(TID), 0, "a recorded prologue runs no glue");
        // SAFETY: `d` is a filled descriptor without new nodes, live until
        // the sweep's iteration ends.
        unsafe { rec.publish_arm::<LP>(TID, d as u64) };
        // SAFETY: `d` is a filled descriptor, live until the sweep's iteration ends.
        unsafe { help::<SimNvm, LP>(Base(0), d as *mut Info<SimNvm>, true, &c.pin()) };
    }

    /// Resolves `slot` as the attach does — `decision` is Op-Recover's on
    /// the image's recovery line, whose `RD_q` is `rd` — and checks the
    /// outcome: nothing left in flight; the watermark the old one `old` or
    /// one of `reqs`, beside that request's answer (or a later one's,
    /// stored by a `settle` the crash cut before its watermark: the client
    /// acknowledged the earlier answer by sending its successor); and every
    /// request that was acknowledged or whose effect is on media at or
    /// below the watermark — otherwise the client's retry applies it a
    /// second time, or reads another answer.
    fn judge(
        slot: &ClientSlot<SimNvm>,
        rd: u64,
        decision: Recovered,
        old: (u64, u64),
        reqs: &[Req],
        ctx: &str,
    ) {
        slot.resolve(TID, rd, decision);
        assert_eq!(slot.inflight(), None, "{ctx}: still in flight");
        let pair = (slot.last_seq.peek(), slot.resp.peek());
        let history: Vec<_> =
            std::iter::once(old).chain(reqs.iter().map(|r| (r.seq, r.answer))).collect();
        let at = history.iter().position(|&(seq, _)| seq == pair.0);
        let answered = at.is_some_and(|k| history[k..].iter().any(|&(_, a)| a == pair.1));
        assert!(answered, "{ctx}: resolved to {pair:?}");
        for r in reqs.iter().filter(|r| r.acked || r.effect) {
            let why = if r.acked { "acknowledged" } else { "with its effect on media" };
            assert!(pair.0 >= r.seq, "{ctx}: request {} {why} resolved to {pair:?}", r.seq);
        }
    }

    /// The whole crash argument lives in two lines, the client slot and
    /// the lane's recovery line `(RD_q, CP_q)`, so it is checked there,
    /// under the line model that makes it true. Request `OLD.0` published
    /// descriptor X and completed (`RD_q` = X, `CP_q` = 1, answer
    /// `OLD.1`). Crash request `NEW.0` at every instruction over every seed
    /// — `begin` (`prior` = X) → no publish, or its publish of descriptor
    /// Y, whose one window writes back the slot, Y and the recovery line,
    /// and Y's `Help` (one effect word), or
    /// such a publish whose `Help` fails → `settle`, which defers its
    /// write-back only behind the done Y — and once more after the
    /// acknowledgement. Behind a deferred `settle`, crash at every
    /// instruction of what follows on the pid: the same client's next
    /// request with an effect (descriptor Z) or without one, or another
    /// client's request with an effect on another thread, whose `begin`
    /// hands the deferred line over; or the process dies there and the pid
    /// is recovered — by a peer, which resolves it and clears its recovery
    /// line, or by a new process's attach, which resolves it and runs
    /// another client's request with an effect with nothing handed over.
    /// Each image validates, never shows
    /// `NEW.0`'s watermark beside another response, and resolves — by
    /// Op-Recover on the recovery line, as the attach does, every slot —
    /// to each request's own answer: an acknowledged one, or one whose
    /// effect is on media, is never left below the watermark. Then hand
    /// each image of the first request to resolve under the decisions
    /// recovery could reach, crash *that* at every instruction too, and
    /// resolve again: idempotent, and the answer the decision names. Some
    /// images hold a publication's recovery line without its record — a
    /// `pending` or a handed-over `last_seq` — which the sweep counts: the
    /// record check rolls those back to the invocation's `prior`.
    ///
    /// Mutation-checked: with the record check skipped, an image decides
    /// Y with `pending` lost ("Takes then Nothing … request 5 with its
    /// effect on media resolved to (4, 1)": the retry applies it twice);
    /// with the rollback a clear, the deferred request's answer is lost
    /// ("Takes then Effect … request 5 acknowledged resolved to (4, 1)");
    /// with the hand-over check skipped, "Takes then OtherThread … resolved
    /// to (5, 102)". With `resolve` ignoring `prior`, or with `begin`
    /// storing `prior` after `pending`, an image resolves to X's `OLD.1`;
    /// with `begin` not noting the handed slot, the other thread's publish
    /// leaves the acknowledged request in flight behind Z, and it resolves
    /// to Z's answer; with resolution not writing back the slots that name
    /// the pid, the peer's `clear_slot` leaves it in flight behind a null
    /// `RD_q` and it restarts, and the reattach's publish leaves it behind
    /// Z; with `settle` deferring behind any descriptor other
    /// than `prior`, done or not, the failed attempt trips its answer check.
    #[test]
    fn sim_crash_at_every_instruction_of_begin_finalize_resolve() {
        use std::cell::Cell;
        use std::sync::atomic::AtomicBool;
        let _session = crate::simtest::session();
        nvm::tid::set_tid(0);
        let c = Collector::new();
        let (mut images, mut torn_records) = (Vec::new(), 0);
        let scenarios = [
            (Attempt::Idle, Then::Nothing),
            (Attempt::Takes, Then::Nothing),
            (Attempt::Fails, Then::Nothing),
            (Attempt::Takes, Then::Effect),
            (Attempt::Takes, Then::NoEffect),
            (Attempt::Takes, Then::OtherThread),
            (Attempt::Takes, Then::PeerRecovery),
            (Attempt::Takes, Then::Reattach),
        ];
        for (first_does, then) in scenarios {
            let answer = if first_does == Attempt::Fails { QUIET } else { NEW.1 };
            let other_client = matches!(then, Then::OtherThread | Then::Reattach);
            let next = (if other_client { 1 } else { NEXT.0 }, NEXT.1);
            let next = if then == Then::NoEffect { (next.0, QUIET) } else { next };
            for seed in 0..64u64 {
                for fuse in 1.. {
                    sim::reset();
                    // Tag cell and effect word of X, Y and Z, then the tag
                    // cell of the failing attempt.
                    let cells: [Box<PWord<SimNvm>>; 7] = [(); 7].map(|_| Box::new(PWord::new(0)));
                    cells.iter().for_each(|w| w.store(0)); // registers the words
                    let x = descriptor(&cells[0], &cells[1], OLD.1);
                    let y = match first_does {
                        Attempt::Fails => {
                            let fresh = Box::into_raw(Box::new(Info::fresh()));
                            fill(fresh, (&cells[6], 0xBAD0), Some(&cells[3]), NEW.1)
                        }
                        _ => descriptor(&cells[2], &cells[3], NEW.1),
                    };
                    let z = descriptor(&cells[4], &cells[5], NEXT.1);
                    let (yd, zd) = (y as usize, z as usize);
                    let rec = RecArea::<SimNvm>::new();
                    // SAFETY: `x` is filled, without new nodes.
                    unsafe { rec.publish_arm::<LP>(TID, x as u64) };
                    // SAFETY: `x` is filled and live until the iteration ends.
                    unsafe { help::<SimNvm, LP>(Base(0), x, true, &c.pin()) };
                    sim::persist_all();
                    rec.declare_line(TID);
                    let slot = durable_slot([7, OLD.0, OLD.1, (TID as u64) << SEQ_BITS | OLD.0, 0]);
                    let other = durable_slot([8, 0, 0, 0, 0]);
                    let (begun, acked, acked_next) =
                        (Cell::new(false), Cell::new(false), AtomicBool::new(false));
                    // The follow-up request on `s`, handed `handed`.
                    let follow = |s: &ClientSlot<SimNvm>, handed, publishes: bool| {
                        s.begin(handed, TID, next.0, rec.published(TID), Base(0));
                        if publishes {
                            attempt(&rec, zd, &c);
                        }
                        s.settle(next.0, next.1, rec.published(TID), Base(0));
                        acked_next.store(true, Relaxed);
                    };
                    // What follows the first request, on a thread of its own
                    // (a fresh set of noted lines): the fuse burns there
                    // alone, and this thread dies at its next instruction
                    // once that one has.
                    let elsewhere = |work: &(dyn Fn() + Sync)| {
                        sim::crash_after(0);
                        std::thread::scope(|t| {
                            t.spawn(|| {
                                nvm::tid::set_tid(TID + 1);
                                sim::crash_after(fuse);
                                let _ = sim::run_crashable(|| {
                                    work();
                                    SimNvm::check_crash(); // after its last store
                                });
                            });
                        });
                    };
                    let crashed = crashed_at(fuse, seed, || {
                        let first = || {
                            slot.begin(None, TID, NEW.0, rec.published(TID), Base(0));
                            begun.set(true);
                            if first_does != Attempt::Idle {
                                attempt(&rec, yd, &c);
                            }
                            slot.settle(NEW.0, answer, rec.published(TID), Base(0));
                            acked.set(true);
                        };
                        match then {
                            Then::Nothing => first(),
                            Then::Effect | Then::NoEffect => {
                                sim::suspended(first);
                                follow(&slot, Some(&slot), then == Then::Effect);
                            }
                            Then::OtherThread => {
                                sim::suspended(first);
                                elsewhere(&|| follow(&other, Some(&slot), true));
                            }
                            Then::PeerRecovery | Then::Reattach => {
                                sim::suspended(first);
                                elsewhere(&|| {
                                    // SAFETY: the recovery line names `y`, live.
                                    let d =
                                        unsafe { op_recover::<SimNvm, LP>(&rec, TID, &c.pin()) };
                                    resolve_under([&*slot, &*other], TID, rec.published(TID), d);
                                    if then == Then::PeerRecovery {
                                        rec.clear_slot(TID);
                                    } else {
                                        follow(&other, None, true);
                                    }
                                });
                            }
                        }
                        SimNvm::check_crash(); // after the acknowledgement
                    });
                    let image = words(&slot);
                    // The publish wrote `RD_q` back in the window that
                    // wrote back `pending`, and only `RD_q` reached media.
                    let record_lost =
                        |s: &ClientSlot<SimNvm>, seq| s.pending.peek() & MAX_OP_SEQ < seq;
                    if rec.published(TID) == yd as u64 && record_lost(&slot, NEW.0)
                        || rec.published(TID) == zd as u64
                            && (record_lost(&other, next.0) || slot.last_seq.peek() < NEW.0)
                    {
                        torn_records += 1;
                    }
                    // SAFETY: the recovery line names `x`, `y` or `z`, all live.
                    let decision = unsafe { op_recover::<SimNvm, LP>(&rec, TID, &c.pin()) };
                    // What the decision was made on: a torn publication
                    // rolled back to what its invocation found.
                    let rd = rec.published(TID);
                    let ctx = format!(
                        "{first_does:?} then {then:?} fuse {fuse} seed {seed}: {image:?} {:?}",
                        words(&other)
                    );
                    if then == Then::Nothing {
                        check_image(&slot, answer, &ctx);
                    }
                    // (A follow-up's `settle` may store its answer beside
                    // `NEW.0`: `judge`'s history allows exactly that.)
                    slot.validate().unwrap_or_else(|e| panic!("{ctx}: {e}"));
                    other.validate().unwrap_or_else(|e| panic!("{ctx}: {e}"));
                    let reqs = [
                        Req {
                            seq: NEW.0,
                            answer,
                            effect: cells[3].peek() == 1,
                            acked: acked.get(),
                        },
                        Req {
                            seq: next.0,
                            answer: next.1,
                            effect: cells[5].peek() == 1,
                            acked: acked_next.load(Relaxed),
                        },
                    ];
                    let [mine, theirs] = &reqs;
                    match then {
                        Then::Nothing => judge(&slot, rd, decision, OLD, &reqs[..1], &ctx),
                        Then::Effect | Then::NoEffect => {
                            judge(&slot, rd, decision, OLD, &reqs, &ctx)
                        }
                        Then::PeerRecovery => {
                            judge(&slot, rd, decision, OLD, std::slice::from_ref(mine), &ctx)
                        }
                        Then::OtherThread | Then::Reattach => {
                            judge(&slot, rd, decision, OLD, std::slice::from_ref(mine), &ctx);
                            judge(&other, rd, decision, (0, 0), std::slice::from_ref(theirs), &ctx);
                        }
                    }
                    // SAFETY: nothing refers to them past this iteration.
                    for info in [x, y, z] {
                        drop(unsafe { Box::from_raw(info) });
                    }
                    if !crashed {
                        let done =
                            matches!(then, Then::Nothing | Then::PeerRecovery) || theirs.acked;
                        assert!(mine.acked && done, "{ctx}: an uncrashed run ends acknowledged");
                        break;
                    }
                    if then == Then::Nothing && first_does != Attempt::Fails {
                        images.push((
                            seed,
                            fuse,
                            image,
                            begun.get(),
                            rd,
                            rd == yd as u64,
                            mine.acked,
                        ));
                    }
                }
            }
        }
        let mut resolved = 0;
        for &(seed, fuse, image, begun, rd, published, acked) in &images {
            for decision in [Recovered::Completed(NEW.1), Recovered::Restart] {
                // Recovery completes an operation whose descriptor is
                // durably published, and only such a one; an acknowledged
                // one's is durably done, so recovery completes it while
                // `RD_q` names it. (What moves `RD_q` afterwards — a peer's
                // `clear_slot`, a new process's publish — is swept above,
                // behind resolution's write-back.)
                if decision != Recovered::Restart && !published
                    || decision == Recovered::Restart && acked && published
                {
                    continue;
                }
                for fuse2 in 1.. {
                    sim::reset();
                    let slot = durable_slot(image);
                    let was_inflight = slot.inflight().is_some();
                    let crashed2 = crashed_at(fuse2, seed ^ (fuse2 << 8), || {
                        slot.resolve(TID, rd, decision);
                    });
                    let ctx = format!("fuse {fuse}/{fuse2} seed {seed} {decision:?}");
                    check_image(&slot, NEW.1, &ctx);
                    let first = slot.resolve(TID, rd, decision);
                    assert!(first.is_none() || (crashed2 && was_inflight));
                    assert_eq!(slot.resolve(TID, rd, decision), None, "resolve is idempotent");
                    assert_eq!(slot.inflight(), None);
                    slot.validate().unwrap();
                    resolved += 1;
                    let [id, last_seq, resp, _, _] = words(&slot);
                    assert_eq!(id, 7);
                    match decision {
                        // The publish counts, so `pending` and `prior` are
                        // durable: its record check says so. Either the
                        // slot was still in flight
                        // and is now finalized, or `settle` completed.
                        Recovered::Completed(_) => assert_eq!((last_seq, resp), NEW, "{ctx}"),
                        // The old watermark may sit beside the new response
                        // when the crash hit `settle`: the client has
                        // acknowledged `OLD.0` by sending its successor, so
                        // that response cannot be re-asked.
                        Recovered::Restart => {
                            assert!(last_seq == OLD.0 || (last_seq, resp) == NEW, "{ctx}");
                            assert!(begun || (last_seq, resp) == OLD, "{ctx}");
                        }
                    }
                    if !crashed2 {
                        break;
                    }
                }
            }
        }
        let n = images.len();
        assert!(n >= 2 * 64 * 10 && resolved > n, "the sweep ran: {n} / {resolved}");
        assert!(torn_records > 0, "no image with the recovery line durable and a record not");
    }

    /// An acknowledged request whose invoker completed through `help`'s
    /// foreign-value branch, on a `DONE` that a cut helper stored and never
    /// fenced, resolves to its answer. Helper 1 (on its own thread) tags
    /// both cells and fences them, writes the effect and `DONE`, and is cut
    /// before it writes `DONE` back: its remaining write-backs never
    /// complete. Helper 2 (a second thread, a real `help`) finds every tag
    /// held and `DONE` set, completes through the epilogue and untags. The
    /// invoker then meets its first cell untagged — a foreign value with
    /// `DONE` set — and `settle` defers the slot's write-back behind the
    /// descriptor. Every crash image after the acknowledgement resolves to
    /// the request's answer: whoever returned `Done` fenced `DONE` itself.
    /// Mutation-checked: with the epilogue's fence skipped when `DONE` was
    /// already set, an image that lost `DONE` and the slot's line but kept
    /// the untag resolves the acknowledged request `Restart` ("request 5
    /// acknowledged resolved to (4, 1)").
    #[test]
    fn an_acked_request_done_behind_a_cut_helper_resolves_to_its_answer() {
        use crate::engine::{HelpOutcome, DONE};
        let _session = crate::simtest::session();
        nvm::tid::set_tid(0);
        let c = Collector::new();
        for seed in 0..64u64 {
            sim::reset();
            // Two tag cells, then the effect word.
            let cells: [Box<PWord<SimNvm>>; 3] = [(); 3].map(|_| Box::new(PWord::new(0)));
            cells.iter().for_each(|w| w.store(0));
            let info = Info::<SimNvm>::boxed(crate::engine::Lines::Two);
            let affect = [(Base(0).word(&*cells[0]), 0), (Base(0).word(&*cells[1]), 0)];
            let f = InfoFill {
                optype: 1,
                affect: &affect,
                write: &[(Base(0).word(&*cells[2]), 0, 1)],
                newset: &[],
                node_words: 0,
                del_mask: 0,
                presult: NEW.1,
            };
            // SAFETY: a fresh descriptor, not yet published.
            unsafe { Info::fill(info, &f) };
            let rec = RecArea::<SimNvm>::new();
            rec.declare_line(TID);
            let slot = durable_slot([7, OLD.0, OLD.1, (TID as u64) << SEQ_BITS | OLD.0, 0]);
            slot.begin(None, TID, NEW.0, rec.published(TID), Base(0));
            assert_eq!(rec.begin::<LP>(TID), 0);
            // SAFETY: filled above, without new nodes.
            unsafe { rec.publish_arm::<LP>(TID, info as u64) };
            let tagged = crate::tag::tagged(info as u64);
            let d = info as usize;
            std::thread::scope(|t| {
                t.spawn(|| {
                    for w in &cells[..2] {
                        w.store(tagged);
                        SimNvm::pwb(w);
                    }
                    SimNvm::psync();
                    cells[2].store(1);
                    SimNvm::pwb(&cells[2]);
                    // SAFETY: live until the iteration ends.
                    unsafe { &*(d as *const Info<SimNvm>) }.mark(DONE);
                });
            });
            std::thread::scope(|t| {
                t.spawn(|| {
                    nvm::tid::set_tid(TID + 1);
                    // SAFETY: as above; every cell it names is live.
                    let got = unsafe {
                        help::<SimNvm, LP>(Base(0), d as *mut Info<SimNvm>, false, &c.pin())
                    };
                    assert_eq!(got, HelpOutcome::Done, "helper 2 completes");
                });
            });
            assert_eq!(cells[0].peek(), info as u64, "helper 2 untagged");
            // SAFETY: live until the iteration ends.
            let got = unsafe { help::<SimNvm, LP>(Base(0), info, true, &c.pin()) };
            assert_eq!(got, HelpOutcome::Done, "the foreign-value branch");
            assert!(slot.settle(NEW.0, NEW.1, rec.published(TID), Base(0)), "deferred");
            sim::trigger_crash(); // after the acknowledgement
            sim::build_crash_image(seed);
            // SAFETY: the recovery line names `info`, live.
            let decision = unsafe { op_recover::<SimNvm, LP>(&rec, TID, &c.pin()) };
            let me = Req { seq: NEW.0, answer: NEW.1, effect: cells[2].peek() == 1, acked: true };
            let ctx = format!("seed {seed}: {:?} {decision:?}", words(&slot));
            judge(&slot, rec.published(TID), decision, OLD, &[me], &ctx);
            // SAFETY: nothing refers to it past this iteration.
            unsafe { Info::<SimNvm>::drop_boxed(info.cast()) };
        }
    }

    /// `RD_q`'s reference on a recorded request's `prior` is held until the
    /// operation returns, checked with a pool that hands a released
    /// descriptor straight back. Request `OLD.0` left X in `RD_q`, a done
    /// descriptor that never went through `Help` (the read-only answer's
    /// shape): private, so its last release returns it to this thread's
    /// free list at once. Request `NEW.0` is recorded; its operation's
    /// first attempt fails, and the retry takes effect. Released at that
    /// first publish, X is what the retry draws, so `RD_q == prior` after
    /// a real effect and a kill there resolves `Restart` — the client's
    /// retry would apply it twice. Held, the kill finalizes, and X returns
    /// to the pool only once the operation has returned.
    #[test]
    fn a_recorded_request_holds_its_prior_until_the_operation_returns() {
        use crate::engine::{HelpOutcome, DONE};
        use crate::env::Env;
        type C = nvm::CountingNvm;
        let _gate = crate::counters::gate_shared();
        nvm::tid::set_tid(TID);
        let env = Env::<C>::volatile();
        let g = env.collector.pin();
        // X's tag cell, then the retry's tag cell and its effect word.
        let cells: [PWord<C>; 3] = [0, 0, 0].map(PWord::new);
        env.begin::<LP>(TID, &g);
        let x = fill(env.alloc_info(), (&cells[0], 0), None, OLD.1);
        // SAFETY: `x` is live; the release is its never-installed affect slot.
        unsafe {
            (*x).mark(DONE);
            env.persist_descriptor::<LP>(x);
            Info::release(x, 1, &g);
        }
        env.publish::<LP>(TID, x, &mut 0, &g);

        let slot = ClientSlot::<C> {
            id: PWord::new(7),
            last_seq: PWord::new(OLD.0),
            resp: PWord::new(OLD.1),
            pending: PWord::new(0),
            prior: PWord::new(0),
            _pad: [0; 3],
        };
        slot.begin(None, TID, NEW.0, env.rec.published(TID), Base(0));
        env.begin::<LP>(TID, &g);
        assert!(!crate::recovery::recorded_pending(), "the prologue consumed the record");
        let mut published = 0;
        let failed = fill(env.alloc_info(), (&cells[1], 0xBAD0), None, NEW.1);
        // SAFETY: drawn and filled above, live while published.
        unsafe { env.persist_descriptor::<LP>(failed) };
        env.publish::<LP>(TID, failed, &mut published, &g);
        assert!(matches!(
            unsafe { help::<C, LP>(Base(0), failed, true, &g) },
            HelpOutcome::FailedAt(0)
        ));
        let retry = fill(env.alloc_info(), (&cells[1], 0), Some(&cells[2]), NEW.1);
        // SAFETY: as `failed`.
        unsafe { env.persist_descriptor::<LP>(retry) };
        env.publish::<LP>(TID, retry, &mut published, &g);
        assert!(matches!(unsafe { help::<C, LP>(Base(0), retry, true, &g) }, HelpOutcome::Done));
        assert_eq!(cells[2].load(), 1, "the effect");

        // Killed here, the request resolves to its own answer.
        // SAFETY: `RD_q` names `retry`, live.
        let decision = unsafe { op_recover::<C, LP>(&env.rec, TID, &g) };
        let resolution = slot.resolve(TID, env.rec.published(TID), decision);
        let finalized = Resolution::Finalized { client_id: 7, op_seq: NEW.0, resp: NEW.1 };
        assert_eq!(resolution, Some(finalized), "an effect behind RD_q == prior");
        // Returned: the hold ends, once, and the pool hands X out again.
        env.release_prior::<LP>(TID, x as u64);
        assert_eq!(env.alloc_info(), x, "RD_q's reference on prior released");
    }

    /// A request that completed on one pid stays decided when the same
    /// client's next request, begun on another pid, restarts: the step
    /// back of its `pending` must not fail the first pid's record check.
    /// Request `NEW.0` publishes D on `TID` over X and returns, releasing
    /// `prior`; request `NEXT.0` begins on a second pid and is restarted
    /// before it publishes. Recovering `TID` then decides D and releases
    /// `RD_q`'s reference on it, as peer recovery does: rolled back to X,
    /// it would answer request `OLD.0` and release X a second time.
    #[test]
    fn a_completed_request_stays_decided_when_its_clients_next_request_restarts() {
        use crate::engine::{HelpOutcome, DONE};
        use crate::env::Env;
        type C = nvm::CountingNvm;
        let _gate = crate::counters::gate_shared();
        nvm::tid::set_tid(TID);
        let env = Env::<C>::volatile();
        let g = env.collector.pin();
        let cells: [PWord<C>; 3] = [0, 0, 0].map(PWord::new);
        env.begin::<LP>(TID, &g);
        let x = fill(env.alloc_info(), (&cells[0], 0), None, OLD.1);
        // SAFETY: `x` is live; the release is its never-installed affect slot.
        unsafe {
            (*x).mark(DONE);
            env.persist_descriptor::<LP>(x);
            Info::release(x, 1, &g);
        }
        env.publish::<LP>(TID, x, &mut 0, &g);

        let slot = ClientSlot::<C> {
            id: PWord::new(7),
            last_seq: PWord::new(OLD.0),
            resp: PWord::new(OLD.1),
            pending: PWord::new(0),
            prior: PWord::new(0),
            _pad: [0; 3],
        };
        slot.begin(None, TID, NEW.0, env.rec.published(TID), Base(0));
        env.begin::<LP>(TID, &g);
        let d = fill(env.alloc_info(), (&cells[1], 0), Some(&cells[2]), NEW.1);
        // SAFETY: drawn and filled above, live while published.
        unsafe { env.persist_descriptor::<LP>(d) };
        env.publish::<LP>(TID, d, &mut 0, &g);
        assert!(matches!(unsafe { help::<C, LP>(Base(0), d, true, &g) }, HelpOutcome::Done));
        slot.settle(NEW.0, NEW.1, env.rec.published(TID), Base(0));
        env.release_prior::<LP>(TID, x as u64);

        let other = TID + 1;
        slot.begin(None, other, NEXT.0, env.rec.published(other), Base(0));
        let _ = env.rec.begin::<LP>(other);
        let restarted = Resolution::Restarted { client_id: 7, op_seq: NEXT.0 };
        let rd = env.rec.published(other);
        assert_eq!(slot.resolve(other, rd, Recovered::Restart), Some(restarted));
        assert_eq!(slot.pending.load(), (other as u64) << SEQ_BITS | NEW.0, "stepped back");

        // SAFETY: `RD_q` names `d`, live.
        let decision = unsafe { op_recover::<C, LP>(&env.rec, TID, &g) };
        assert_eq!(decision, Recovered::Completed(NEW.1), "request NEW.0's own answer");
        assert_eq!(env.rec.published(TID), d as u64, "not rolled back onto the released X");
        assert_eq!(slot.resolve(TID, d as u64, decision), None, "nothing in flight under TID");
        env.rec.clear_slot(TID);
        // SAFETY: `RD_q`'s one reference on `d`, durably cleared above.
        unsafe { Info::release(d, 1, &g) };
    }

    /// `heal`'s two slot writes — the wipe of a torn registration
    /// and the burial of a duplicate — crashed at every instruction under
    /// the line model. The residue is in flight at `op_seq` 4, so a cleared
    /// watermark beside it would skip ahead: every image must be one the
    /// next attach heals (a tombstone only over zero residue), never one it
    /// refuses, and healing again from it must finish the job.
    #[test]
    fn sim_crash_at_every_instruction_of_wipe_and_bury() {
        let _session = crate::simtest::session();
        nvm::tid::set_tid(0);
        type Heal = fn(&ClientSlot<SimNvm>);
        let heals: [(u64, Heal, u64); 2] =
            [(0, ClientSlot::wipe, 0), (7, ClientSlot::bury, TOMBSTONE)];
        let mut images = 0;
        for (id, heal, healed_id) in heals {
            for seed in 0..32u64 {
                for fuse in 1.. {
                    sim::reset();
                    let pending = (TID as u64) << SEQ_BITS | 4;
                    let slot = durable_slot([id, 3, RES_TRUE, pending, 0x40]);
                    let crashed = crashed_at(fuse, seed, || heal(&slot));
                    images += 1;
                    let image = words(&slot);
                    let ctx = format!("id {id} fuse {fuse} seed {seed}: {image:?}");
                    match image[0] {
                        0 => {}
                        TOMBSTONE => assert_eq!(image[1..], [0; 4], "{ctx}: residue"),
                        _ => {
                            if let Err(reason) = slot.validate() {
                                let e = AttachError::CorruptResponseTable { slot: 0, reason };
                                panic!("{ctx}: the next attach refuses: {e:?}");
                            }
                        }
                    }
                    heal(&slot);
                    assert_eq!(words(&slot), [healed_id, 0, 0, 0, 0], "{ctx}: healing again");
                    if !crashed {
                        break;
                    }
                }
            }
        }
        assert!(images >= 2 * 32 * 5, "the sweep ran: {images}");
    }
}
