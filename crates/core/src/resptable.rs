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
//! linearisable read.
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
//!    fence**. The structure operation's first fence drains the note (under
//!    every arm an operation with an effect fences its descriptor, then
//!    publishes it, before any `Help` CAS), so `pending` is durable before
//!    any effect can be; an operation with no effect issues no fence, and
//!    the note folds into step 5's write-back. `begin_op` also marks the
//!    invocation recorded ([`crate::recovery::mark_recorded`]): the
//!    operation's `Isb-LP` prologue runs no invocation glue;
//! 4. apply the structure operation (which publishes its own descriptor);
//! 5. [`ResponseTable::finish_op`] — `resp` stored **before** `last_seq`,
//!    then one write-back of the slot's line and one `psync`. The
//!    `last_seq` store itself retires the record (`pending.op_seq ==
//!    last_seq` is no longer in flight); there is no clear step;
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
//! operation published nothing (its first fence had not drained `pending`),
//! so it took no effect and recovery would only restart it. From the first
//! fence after 3 to the end of 5 → in flight; `Completed(res)` finalizes
//! `res` exactly as step 5 would (re-finalizing a half-written pair writes
//! the same words), `Restart` clears `pending` and the retry re-applies.
//! After 5 → the retry is a dedup hit. In every window the operation
//! applies exactly once and the response the client eventually reads is
//! the original. The transitions are generic over the persistency model,
//! and the tests below crash them at every instruction under
//! [`nvm::SimNvm`] with the slot and the recovery line each declared one
//! line ([`nvm::sim::declare_line`]) — the model that makes the argument
//! true.
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

use crate::engine::RES_BOT;
use crate::recovery::{rootkeys, AttachError, RecArea, Recovered};
use crate::tag::Base;
use nvm::mapped::{MappedHeap, MappedNvm};
use nvm::{PWord, Persist};
use std::sync::Arc;

/// Registered clients the table can hold (one 64-byte slot each).
pub const CLIENT_SLOTS: usize = 256;
/// Largest sequence number a request may carry: `pending` packs the tid
/// into the 8 bits above it.
pub const MAX_OP_SEQ: u64 = (1 << SEQ_BITS) - 1;

const SEQ_BITS: u32 = 56;
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
    /// the operation's first fence drains it before any effect can become
    /// durable, and an operation with no effect folds the note into
    /// [`ClientSlot::finalize`]'s write-back. `prior` is stored first, so
    /// no prefix of the line shows `pending` without it.
    fn begin(&self, tid: usize, op_seq: u64, prior: u64) {
        assert!(tid < nvm::MAX_PROCS && op_seq <= MAX_OP_SEQ, "pending word out of range");
        self.prior.store(prior);
        self.pending.store((tid as u64) << SEQ_BITS | op_seq);
        M::pwb_coal(&self.pending);
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

    /// Disposes of the request in flight under `tid` (if any) by `decision`,
    /// the Op-Recover verdict on `rd`, `tid`'s `RD_q`: `Completed` finalizes,
    /// `Restart` clears `pending` — and so does `rd == prior`, whatever the
    /// verdict: the request published nothing, and the descriptor `rd`
    /// names is an earlier request's. Either way the slot is no longer in
    /// flight, so a second call is a no-op.
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
                self.pending.store(0);
                M::pbarrier(&self.pending);
                Resolution::Restarted { client_id, op_seq }
            }
        })
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
    /// The interrupted operation did not take effect: `pending` was cleared
    /// and the client's retry will re-apply as a fresh operation.
    Restarted {
        /// The client whose request must be retried.
        client_id: u64,
        /// The unapplied operation's sequence number.
        op_seq: u64,
    },
}

/// Handle over the committed [`rootkeys::RESPTAB`] root block.
///
/// Cheap to clone; all state is in the mapped heap. Concurrency contract:
/// a client slot is written only under the tid the client is routed to —
/// the service routes each `client_id` to exactly one tid lane and runs one
/// request per lane at a time — or, once that tid's process is dead and the
/// slot is in flight under it, by the holder of the process's recovery
/// lease, while every live server answers the client `Recovering`. Slot
/// writes therefore never race, and a tid has at most one slot in flight.
/// Cross-thread *reads* are safe against the documented write orderings.
#[derive(Clone)]
pub struct ResponseTable {
    _heap: Arc<MappedHeap>,
    base: *mut u8,
    /// The heap-wide recovery slots, whose `RD_q` a request's `prior` holds.
    rec: Arc<RecArea<MappedNvm>>,
}

// SAFETY: the raw base points into the heap mapping, which `_heap` keeps
// alive; all access goes through atomics (PWord).
unsafe impl Send for ResponseTable {}
// SAFETY: as above — interior mutability is atomic-word-based.
unsafe impl Sync for ResponseTable {}

impl ResponseTable {
    /// Size of the root block: header + client slots.
    pub fn bytes() -> usize {
        SLOT_BYTES * (1 + CLIENT_SLOTS)
    }

    /// Allocates (or re-opens) the table on `heap`, then validates and
    /// heals it. Must run while the caller has exclusive ownership of the
    /// heap (attach flock held, no live peers) — healing rewrites slots.
    pub(crate) fn attach_excl(heap: &Arc<MappedHeap>) -> Result<(Self, HealReport), AttachError> {
        let t = Self::open(heap)?;
        let report = t.validate_heal()?;
        Ok((t, report))
    }

    /// Opens the table without validation — the joiner's path (the image
    /// was validated by the initial attacher; peers are live and mid-write,
    /// so healing here would race their slot updates).
    pub(crate) fn open(heap: &Arc<MappedHeap>) -> Result<Self, AttachError> {
        let (base, fresh) = heap.root_alloc(rootkeys::RESPTAB, Self::bytes())?;
        let (rec_base, _) =
            heap.root_alloc(rootkeys::RECAREA, RecArea::<MappedNvm>::slots_bytes())?;
        // SAFETY: the heap's committed recovery-slot block, alive with `_heap`.
        let rec = Arc::new(unsafe { RecArea::attach_raw(rec_base, Base(heap.base() as usize)) });
        let t = Self { _heap: Arc::clone(heap), base, rec };
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
        unsafe { &*(self.base as *const PWord<MappedNvm>) }
    }

    fn client(&self, idx: usize) -> &ClientSlot<MappedNvm> {
        assert!(idx < CLIENT_SLOTS);
        // SAFETY: in-bounds fixed-stride slot of the committed root block.
        unsafe { &*(self.base.add(SLOT_BYTES * (1 + idx)) as *const ClientSlot<MappedNvm>) }
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
    /// noted but not fenced: the structure operation's first fence makes it
    /// durable, and [`ResponseTable::finish_op`] drains it if no fence
    /// came. This is the invocation record (see module docs): call it
    /// before the structure operation's first instruction, on the thread
    /// that runs both, and no invocation glue — the operation's `Isb-LP`
    /// prologue consumes the mark this leaves instead; after the
    /// operation, release `RD_q`'s hold on [`ResponseTable::prior`]. The
    /// wire opcode and argument are not recorded: resolution never
    /// re-applies.
    pub fn begin_op(&self, pid: usize, client_id: u64, op_seq: u64, _op: u64, _arg: u64) {
        let idx = self.find(client_id).expect("begin_op follows register");
        self.client(idx).begin(pid, op_seq, self.rec.published(pid));
        crate::recovery::mark_recorded(pid);
    }

    /// The `prior` the newest [`ResponseTable::begin_op`] of the client at
    /// `client_idx` recorded.
    pub fn prior(&self, client_idx: usize) -> u64 {
        self.client(client_idx).prior.load()
    }

    /// Durably finalizes the response into the client slot, which also
    /// retires the in-flight record. `client_idx` is the index
    /// [`ResponseTable::register`] returned for the request's client.
    pub fn finish_op(&self, _pid: usize, client_idx: usize, op_seq: u64, resp: u64) {
        self.client(client_idx).finalize(op_seq, resp);
    }

    /// Resolves the request in flight under `pid` (if any) against the
    /// replay decision for that pid — the attach-time and peer-recovery
    /// wiring. Idempotent: once resolved, the slot is no longer in flight
    /// and later calls are no-ops.
    ///
    /// `Completed(res)` finalizes `res` as the request's response, unless
    /// `pid`'s `RD_q` still equals the slot's `prior` (the module docs'
    /// write-ordering argument: then the request published nothing, and the
    /// decision is an earlier request's); `Restart` clears `pending` so the
    /// client's retry re-applies. Call it while `RD_q` still holds what the
    /// decision was computed from.
    pub fn resolve(&self, pid: usize, decision: Recovered) -> Option<Resolution> {
        let rd = self.rec.published(pid);
        (0..CLIENT_SLOTS).find_map(|idx| self.client(idx).resolve(pid, rd, decision))
    }

    /// `true` when `client_id`'s slot is in flight under a pid *outside*
    /// `own_band`: the client's previous request died with a peer whose
    /// recovery has not resolved it yet — applying now could double-apply,
    /// so the server answers a typed `Recovering` error and the client
    /// retries after the healer has run. The healer's last store
    /// (`last_seq`, or the cleared `pending`) is what ends the in-flight
    /// state, so a miss here means the slot is fully resolved.
    pub fn foreign_inflight(&self, client_id: u64, own_band: std::ops::Range<usize>) -> bool {
        self.find(client_id)
            .and_then(|idx| self.client(idx).inflight())
            .is_some_and(|(tid, _)| !own_band.contains(&tid))
    }

    /// Validation + deterministic healing (exclusive access only — see
    /// [`ResponseTable::attach_excl`]). Torn shapes reachable by a crash of
    /// a correct execution are healed; unreachable shapes fail typed.
    fn validate_heal(&self) -> Result<HealReport, AttachError> {
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
            s.validate()
                .map_err(|reason| AttachError::CorruptResponseTable { slot: idx, reason })?;
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
        Ok(report)
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
        let report = t.validate_heal().unwrap();
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
    /// never shows the new watermark beside the old response.
    fn check_image(slot: &ClientSlot<SimNvm>, ctx: &str) {
        let [_, last_seq, resp, _, _] = words(slot);
        assert!(last_seq != NEW.0 || resp == NEW.1, "{ctx}: new watermark, old response");
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

    /// The whole crash argument lives in two lines, the client slot and
    /// the lane's recovery line `(RD_q, CP_q)`, so it is checked there,
    /// under the line model that makes it true. Request `OLD.0` published
    /// descriptor X and completed (`RD_q` = X, `CP_q` = 1, answer
    /// `OLD.1`). Crash request `NEW.0` at every instruction over every seed
    /// — `begin` (`prior` = X) → either no publish, or the operation's
    /// first fence, its publish of descriptor Y and Y's `Help` (one effect
    /// word) → `finalize` — and check each image: besides [`check_image`],
    /// an operation whose effect is durable is never retired at the old
    /// watermark (the retry would apply it twice). Resolve each image as
    /// the attach does, by Op-Recover on the recovery line: never to X's
    /// answer, and `Restart` only with the effect off media. Then hand each
    /// image to resolve under the decisions recovery could reach, crash
    /// *that* at every instruction too, and resolve again: idempotent, and
    /// the answer the decision names.
    ///
    /// Mutation-checked: with `resolve` ignoring `prior`, or with `begin`
    /// storing `prior` after `pending`, an image resolves to X's `OLD.1`.
    #[test]
    fn sim_crash_at_every_instruction_of_begin_finalize_resolve() {
        let _session = crate::simtest::session();
        nvm::tid::set_tid(0);
        let c = Collector::new();
        let mut images = Vec::new();
        for publishes in [false, true] {
            for seed in 0..64u64 {
                for fuse in 1.. {
                    sim::reset();
                    // X's tag cell and effect word, then Y's.
                    let cells: [Box<PWord<SimNvm>>; 4] = [(); 4].map(|_| Box::new(PWord::new(0)));
                    cells.iter().for_each(|w| w.store(0)); // registers the words
                    let (x, y) = (
                        descriptor(&cells[0], &cells[1], OLD.1),
                        descriptor(&cells[2], &cells[3], NEW.1),
                    );
                    let rec = RecArea::<SimNvm>::new();
                    rec.publish_arm::<LP>(TID, x as u64);
                    // SAFETY: `x` is filled and live until the iteration ends.
                    unsafe { help::<SimNvm, LP>(Base(0), x, true, &c.pin()) };
                    sim::persist_all();
                    let line = rec.slot(TID);
                    sim::declare_line(&[&line.rd, &line.cp]);
                    let slot = durable_slot([7, OLD.0, OLD.1, (TID as u64) << SEQ_BITS | OLD.0, 0]);
                    let mut begun = false;
                    let crashed = crashed_at(fuse, seed, || {
                        slot.begin(TID, NEW.0, rec.published(TID));
                        begun = true;
                        if publishes {
                            SimNvm::pfence(); // the descriptor's (`Env::persist_descriptor`)
                            rec.publish_arm::<LP>(TID, y as u64);
                            // SAFETY: as `x`.
                            unsafe { help::<SimNvm, LP>(Base(0), y, true, &c.pin()) };
                        }
                        slot.finalize(NEW.0, NEW.1);
                    });
                    let (image, rd) = (words(&slot), rec.published(TID));
                    let effect = cells[3].peek() == 1;
                    let ctx = format!("publishes {publishes} fuse {fuse} seed {seed}: {image:?}");
                    check_image(&slot, &ctx);
                    let finalized = (image[1], image[2]) == NEW;
                    if effect {
                        let in_flight = slot.inflight() == Some((TID, NEW.0));
                        assert!(
                            in_flight || finalized,
                            "{ctx}: effect durable, slot not in flight"
                        );
                    }
                    // SAFETY: the recovery line names `x` or `y`, both live.
                    let decision = unsafe { op_recover::<SimNvm, LP>(&rec, TID, &c.pin()) };
                    match slot.resolve(TID, rd, decision) {
                        Some(Resolution::Finalized { resp, .. }) => {
                            assert_eq!(resp, NEW.1, "{ctx}: resolved to request {}'s answer", OLD.0)
                        }
                        Some(Resolution::Restarted { .. }) => {
                            assert!(!effect, "{ctx}: a durable effect restarted: applied twice")
                        }
                        // Not in flight: acknowledged, or `pending` off
                        // media and so (above) no effect either.
                        None => {}
                    }
                    // SAFETY: nothing refers to them past this iteration.
                    for info in [x, y] {
                        drop(unsafe { Box::from_raw(info) });
                    }
                    if !crashed {
                        assert!(finalized, "an uncrashed run ends acknowledged");
                        break;
                    }
                    images.push((seed, fuse, image, begun, rd, rd == y as u64));
                }
            }
        }
        let mut resolved = 0;
        for &(seed, fuse, image, begun, rd, published) in &images {
            for decision in [Recovered::Completed(NEW.1), Recovered::Restart] {
                // Recovery completes an operation whose descriptor is
                // durably published, and only such a one.
                if decision != Recovered::Restart && !published {
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
                    check_image(&slot, &ctx);
                    let first = slot.resolve(TID, rd, decision);
                    assert!(first.is_none() || (crashed2 && was_inflight));
                    assert_eq!(slot.resolve(TID, rd, decision), None, "resolve is idempotent");
                    assert_eq!(slot.inflight(), None);
                    slot.validate().unwrap();
                    resolved += 1;
                    let [id, last_seq, resp, _, _] = words(&slot);
                    assert_eq!(id, 7);
                    match decision {
                        // The publish is durable, so `pending` and `prior`
                        // are: the fence before it drained `begin`'s
                        // write-back. Either the slot was still in flight
                        // and is now finalized, or `finalize` completed.
                        Recovered::Completed(_) => assert_eq!((last_seq, resp), NEW, "{ctx}"),
                        // The old watermark may sit beside the new response
                        // when the crash hit `finalize`: the client has
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
        slot.begin(TID, NEW.0, env.rec.published(TID));
        crate::recovery::mark_recorded(TID);
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

    /// `validate_heal`'s two slot writes — the wipe of a torn registration
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
