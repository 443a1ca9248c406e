//! Durable KV-service response table: client-visible exactly-once.
//!
//! The network service (`crates/kvserve`) lets clients name every request
//! with a `(client_id, op_seq)` operation ID. This module is the durable
//! half of that contract, one root block ([`rootkeys::RESPTAB`]) holding two
//! arrays:
//!
//! * **Client slots** — one per registered client: the highest acknowledged
//!   sequence number (`last_seq`) and the encoded response of exactly that
//!   operation. A retried request whose `op_seq == last_seq` is answered
//!   from here without touching any structure — byte-identical to the
//!   original acknowledgement, applied exactly once.
//! * **Intent slots** — one per process slot (`MAX_PROCS`, indexed by the
//!   tid the request runs under): the op-ID currently being applied there. An
//!   intent is recorded *after* [`RecArea::mark_invoked`](crate::recovery::RecArea::mark_invoked)
//!   (see below) and
//!   cleared after the response is finalized, so after a crash every
//!   in-flight request is resolvable: the attach replay's per-pid
//!   [`Recovered`] decision says whether the interrupted operation took
//!   effect, and [`ResponseTable::resolve`] maps that verdict back onto the
//!   client slot.
//!
//! # Write ordering (the crash-window argument)
//!
//! The request path is, in order:
//!
//! 1. foreign-intent check ([`ResponseTable::foreign_inflight`] → typed
//!    `Recovering`) — **before any read of the client slot**: a dead
//!    peer's resolver finalizes into the client slot and only then clears
//!    the intent, so the observed absence of the intent is what proves
//!    the dedup pair below is quiescent and the watermark fully resolved;
//! 2. dedup check (`op_seq == last_seq` → replay stored response);
//! 3. `mark_invoked(pid)` — the system half: `CP_q := 0`, persisted;
//! 4. [`ResponseTable::begin_op`] — durable intent record, state word
//!    stamped last (after a flush + fence over the payload words);
//! 5. apply the structure operation (which publishes its own descriptor);
//! 6. [`ResponseTable::finish_op`] — durable response finalize into the
//!    client slot (`resp` word flushed and fenced **before** `last_seq`),
//!    then the intent is cleared;
//! 7. acknowledge on the socket.
//!
//! Step 3 before step 4 is load-bearing: because `CP_q` is durably zero
//! before the intent record exists, a `Completed` replay decision found
//! behind an in-flight intent can only describe *this* operation — never a
//! stale descriptor of the previous one (see
//! [`RecArea::mark_invoked`](crate::recovery::RecArea::mark_invoked)).
//! Step 6's internal order makes the client-slot pair atomic for readers:
//! `last_seq` is written only after its response word is flush+fenced, so
//! `op_seq == last_seq` proves `resp` is that operation's response — given
//! step 1, which rules out a concurrent resolver mid-finalize on the slot.
//!
//! Crash windows, per step: before 4 → no intent, decision ignored, client
//! retry re-applies as fresh (the operation never started, or at worst
//! published nothing: `Restart`). Between 4 and 6 → intent in flight;
//! `Completed(res)` finalizes `res` into the client slot, `Restart` just
//! clears the intent and the retry re-applies. Between 6's finalize and the
//! intent clear → re-finalizing is idempotent (same words). After 6 → the
//! retry is a dedup hit. In every window the operation applies exactly once
//! and the response the client eventually reads is the original.
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
use crate::recovery::{rootkeys, AttachError, Recovered};
use nvm::mapped::{MappedHeap, MappedNvm};
use nvm::{PWord, Persist};
use std::sync::Arc;

/// Registered clients the table can hold (one 64-byte slot each).
pub const CLIENT_SLOTS: usize = 256;

const SLOT_BYTES: usize = 64;
/// Header magic, stamped when the block is first initialised.
const MAGIC: u64 = 0x5254_4231; // "RTB1"

/// Intent state: no in-flight op recorded for this pid.
const ST_EMPTY: u64 = 0;
/// Intent state: the recorded op-ID is being applied.
const ST_INFLIGHT: u64 = 1;

/// Client-slot ID left when healing drops a duplicate registration.
/// [`ResponseTable::find`] probes *past* a tombstone (writing a plain 0
/// mid-chain would truncate the probe chain of every client that passed
/// through the slot, orphaning their watermarks), and registration may
/// reclaim it. `u64::MAX` is reserved: client IDs must be below it.
const TOMBSTONE: u64 = u64::MAX;

/// One client's dedup/response record (64 bytes).
#[repr(C)]
struct ClientSlot {
    /// Owning client ID (nonzero; 0 = free). CAS-claimed at registration.
    id: PWord<MappedNvm>,
    /// Highest acknowledged sequence number — the ack watermark.
    last_seq: PWord<MappedNvm>,
    /// Encoded response of operation `last_seq` (engine result word).
    resp: PWord<MappedNvm>,
    _pad: [u64; 5],
}

/// One tid's in-flight op-ID record (64 bytes).
#[repr(C)]
struct IntentSlot {
    /// State word, stamped **last** on record and first on clear.
    state: PWord<MappedNvm>,
    /// Client owning the in-flight request.
    client_id: PWord<MappedNvm>,
    /// The request's sequence number.
    op_seq: PWord<MappedNvm>,
    /// Wire opcode (for diagnostics; resolution doesn't re-apply).
    op: PWord<MappedNvm>,
    /// The request argument (key or value).
    arg: PWord<MappedNvm>,
    _pad: [u64; 3],
}

/// What healing/validation found and repaired (all zero on a clean image).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct HealReport {
    /// Client slots zeroed because registration tore before the ID stamp
    /// persisted (`id == 0` with residue in `last_seq`/`resp`).
    pub torn_clients: usize,
    /// Duplicate registrations collapsed: the slot with the lower
    /// `last_seq` was tombstoned (deterministically, ties keep the first;
    /// a tombstone keeps later chain entries reachable and is reusable by
    /// new registrations).
    pub dup_clients: usize,
    /// In-flight intents naming no registered client, cleared (the crash
    /// predates the client's first durable registration — nothing to
    /// finalize, the client will re-register and retry fresh).
    pub orphan_intents: usize,
}

/// How [`ResponseTable::resolve`] disposed of one in-flight intent.
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
    /// The interrupted operation did not take effect: the intent was
    /// cleared and the client's retry will re-apply as a fresh operation.
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
/// a pid's intent slot is written only by the thread currently holding that
/// tid (or, after its process's death, by the holder of its recovery lease),
/// and a client slot is written only under the tid the client is routed to —
/// the service routes each `client_id` to exactly one tid lane and runs one
/// request per lane at a time, so slot writes never race. Cross-thread
/// *reads* (dedup scans, [`ResponseTable::foreign_inflight`]) are safe
/// against the documented write orderings.
#[derive(Clone)]
pub struct ResponseTable {
    _heap: Arc<MappedHeap>,
    base: *mut u8,
}

// SAFETY: the raw base points into the heap mapping, which `_heap` keeps
// alive; all access goes through atomics (PWord).
unsafe impl Send for ResponseTable {}
// SAFETY: as above — interior mutability is atomic-word-based.
unsafe impl Sync for ResponseTable {}

impl ResponseTable {
    /// Size of the root block: header + per-pid intents + client slots.
    pub fn bytes() -> usize {
        SLOT_BYTES * (1 + nvm::MAX_PROCS + CLIENT_SLOTS)
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
        let t = Self { _heap: Arc::clone(heap), base };
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

    fn intent(&self, pid: usize) -> &IntentSlot {
        assert!(pid < nvm::MAX_PROCS);
        // SAFETY: in-bounds fixed-stride slot of the committed root block.
        unsafe { &*(self.base.add(SLOT_BYTES * (1 + pid)) as *const IntentSlot) }
    }

    fn client(&self, idx: usize) -> &ClientSlot {
        assert!(idx < CLIENT_SLOTS);
        // SAFETY: in-bounds fixed-stride slot of the committed root block.
        unsafe { &*(self.base.add(SLOT_BYTES * (1 + nvm::MAX_PROCS + idx)) as *const ClientSlot) }
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
    /// `last_seq` of 0 means no operation was ever acknowledged.
    ///
    /// The pair is read as written (`resp` paired with `last_seq`) only
    /// while no concurrent writer is finalizing the slot. The holder of the
    /// client's lane is the sole live writer; a dead peer's *resolver* is the
    /// other one — which is why the service checks
    /// [`ResponseTable::foreign_inflight`] **before** calling this (a
    /// resolver finalizes, then clears the intent, so no foreign intent ⇒
    /// the slot is quiescent).
    pub fn lookup(&self, client_id: u64) -> Option<(u64, u64)> {
        let idx = self.find(client_id)?;
        let s = self.client(idx);
        let seq = s.last_seq.load();
        let resp = s.resp.load();
        Some((seq, resp))
    }

    /// Durably records pid's in-flight op-ID. Call **after**
    /// [`crate::recovery::RecArea::mark_invoked`] (see module docs) and
    /// before the structure operation's first instruction.
    pub fn begin_op(&self, pid: usize, client_id: u64, op_seq: u64, op: u64, arg: u64) {
        let s = self.intent(pid);
        debug_assert_eq!(s.state.load(), ST_EMPTY, "one in-flight op per pid");
        s.client_id.store(client_id);
        s.op_seq.store(op_seq);
        s.op.store(op);
        s.arg.store(arg);
        // One line (64-byte slot): a single write-back covers the payload.
        MappedNvm::pwb(&s.client_id);
        MappedNvm::pfence();
        // Commit point: the state word is stamped only over a durable
        // payload, so an in-flight intent always names a real op-ID.
        s.state.store(ST_INFLIGHT);
        MappedNvm::pwb(&s.state);
        MappedNvm::psync();
    }

    /// Durably finalizes the response into the client slot, then clears
    /// pid's intent. `client_idx` is the index [`ResponseTable::register`]
    /// returned for the request's client.
    pub fn finish_op(&self, pid: usize, client_idx: usize, op_seq: u64, resp: u64) {
        self.finalize(client_idx, op_seq, resp);
        self.clear_intent(pid);
    }

    /// The client-slot half of [`ResponseTable::finish_op`]: `resp` first
    /// (flushed, fenced), `last_seq` second — readers treat `last_seq` as
    /// the commit point of the pair.
    fn finalize(&self, client_idx: usize, op_seq: u64, resp: u64) {
        let s = self.client(client_idx);
        debug_assert!(resp != RES_BOT, "finalized responses are never ⊥");
        s.resp.store(resp);
        MappedNvm::pwb(&s.resp);
        MappedNvm::pfence();
        s.last_seq.store(op_seq);
        MappedNvm::pwb(&s.last_seq);
        MappedNvm::psync();
    }

    fn clear_intent(&self, pid: usize) {
        let s = self.intent(pid);
        s.state.store(ST_EMPTY);
        MappedNvm::pbarrier(&s.state);
    }

    /// Resolves pid's in-flight intent (if any) against the replay decision
    /// for that pid — the attach-time and peer-recovery wiring. Idempotent:
    /// once resolved, the intent is clear and later calls are no-ops.
    ///
    /// `Completed(res)` finalizes `res` as the intent's op-ID response (the
    /// write-ordering argument in the module docs is what makes the
    /// decision attributable to this op-ID); `Restart` clears the intent so
    /// the client's retry re-applies. An intent whose client was never
    /// durably registered is cleared bare (nothing to finalize — the crash
    /// predates the client's first persisted state).
    pub fn resolve(&self, pid: usize, decision: Recovered) -> Option<Resolution> {
        let s = self.intent(pid);
        if s.state.load() != ST_INFLIGHT {
            return None;
        }
        let client_id = s.client_id.load();
        let op_seq = s.op_seq.load();
        let out = match decision {
            Recovered::Completed(resp) if resp != RES_BOT => {
                match self.find(client_id) {
                    Some(idx) => {
                        self.finalize(idx, op_seq, resp);
                        Resolution::Finalized { client_id, op_seq, resp }
                    }
                    // Registration never became durable: the client has no
                    // slot to carry the response; it will re-register and
                    // retry, and the retry must re-apply. That is still
                    // exactly-once: with no durable registration the
                    // operation's effects were swept with the crash's
                    // unreachable state only if the decision says so —
                    // Completed with an unregistered client cannot occur
                    // for a correctly ordered client (register is durable
                    // before the first request is sent). Treat as restart.
                    None => Resolution::Restarted { client_id, op_seq },
                }
            }
            _ => Resolution::Restarted { client_id, op_seq },
        };
        self.clear_intent(pid);
        Some(out)
    }

    /// `true` when some pid *outside* `own_band` holds an in-flight intent
    /// for `client_id`. The service checks this **before reading the
    /// client slot at all** (step 1 of the module docs): a hit means the
    /// client's previous request died with a peer whose recovery has not
    /// resolved it yet — applying now could double-apply, so the server
    /// answers a typed `Recovering` error and the client retries after
    /// the healer has run. Conversely, a miss proves the slot quiescent:
    /// [`ResponseTable::resolve`] finalizes (psync) before clearing the
    /// intent, and the state-word load here is an acquire, so a cleared
    /// intent makes the finalized watermark visible to a later lookup.
    pub fn foreign_inflight(&self, client_id: u64, own_band: std::ops::Range<usize>) -> bool {
        (0..nvm::MAX_PROCS).any(|pid| {
            !own_band.contains(&pid) && {
                let s = self.intent(pid);
                s.state.load() == ST_INFLIGHT && s.client_id.load() == client_id
            }
        })
    }

    /// Validation + deterministic healing (exclusive access only — see
    /// [`ResponseTable::attach_excl`]). Torn shapes reachable by a crash of
    /// a correct execution are healed; unreachable shapes fail typed.
    fn validate_heal(&self) -> Result<HealReport, AttachError> {
        let mut report = HealReport::default();
        // -- client slots ---------------------------------------------------
        let mut seen: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
        for idx in 0..CLIENT_SLOTS {
            let s = self.client(idx);
            let id = s.id.load();
            if id == 0 || id == TOMBSTONE {
                if s.last_seq.load() != 0 || s.resp.load() != 0 {
                    // Registration tore before the ID stamp persisted but
                    // after response words landed — impossible under the
                    // live ordering (ID is persisted at claim), yet cheap
                    // to heal deterministically: the slot is claimable.
                    s.last_seq.store(0);
                    s.resp.store(0);
                    MappedNvm::pwb(&s.last_seq);
                    MappedNvm::psync();
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
                let d = self.client(drop_);
                d.last_seq.store(0);
                d.resp.store(0);
                MappedNvm::pwb(&d.last_seq);
                MappedNvm::pfence();
                // Residue is durably zero before the tombstone stamp, so a
                // later reclaim starts from a clean watermark.
                d.id.store(TOMBSTONE);
                MappedNvm::pwb(&d.id);
                MappedNvm::psync();
                seen.insert(id, keep);
                report.dup_clients += 1;
            } else {
                seen.insert(id, idx);
            }
        }
        // -- intent slots ---------------------------------------------------
        for pid in 0..nvm::MAX_PROCS {
            let s = self.intent(pid);
            match s.state.load() {
                ST_EMPTY => {}
                ST_INFLIGHT => {
                    let cid = s.client_id.load();
                    if cid == 0 || self.find(cid).is_none() {
                        // In-flight for a client with no durable slot:
                        // nothing to finalize into; clear so the pid
                        // starts clean.
                        self.clear_intent(pid);
                        report.orphan_intents += 1;
                    }
                }
                _ => {
                    // The state word is stamped from 0→1 and cleared 1→0
                    // with barriers; any other value was never written by
                    // this code.
                    return Err(AttachError::CorruptResponseTable {
                        slot: pid,
                        reason: "intent state word is neither empty nor in-flight",
                    });
                }
            }
        }
        Ok(report)
    }

    /// Diagnostic view of pid's in-flight intent:
    /// `(client_id, op_seq, op, arg)`.
    pub fn inflight(&self, pid: usize) -> Option<(u64, u64, u64, u64)> {
        let s = self.intent(pid);
        if s.state.load() != ST_INFLIGHT {
            return None;
        }
        Some((s.client_id.load(), s.op_seq.load(), s.op.load(), s.arg.load()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{res_val, RES_TRUE};

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
        assert_eq!(t.inflight(3), Some((7, 1, 2, 40)));
        t.finish_op(3, idx, 1, RES_TRUE);
        assert_eq!(t.inflight(3), None);
        assert_eq!(t.lookup(7), Some((1, RES_TRUE)));
    }

    #[test]
    fn resolve_completed_finalizes_and_restart_clears() {
        nvm::tid::set_tid(0);
        let (_h, t) = mk("resolve");
        let idx = t.register(9).unwrap();
        let _ = idx;
        t.begin_op(5, 9, 4, 5, 0);
        let r = t.resolve(5, Recovered::Completed(res_val(123))).unwrap();
        assert_eq!(r, Resolution::Finalized { client_id: 9, op_seq: 4, resp: res_val(123) });
        assert_eq!(t.lookup(9), Some((4, res_val(123))));
        assert_eq!(t.resolve(5, Recovered::Restart), None, "idempotent");

        t.begin_op(5, 9, 5, 1, 7);
        let r = t.resolve(5, Recovered::Restart).unwrap();
        assert_eq!(r, Resolution::Restarted { client_id: 9, op_seq: 5 });
        assert_eq!(t.lookup(9), Some((4, res_val(123))), "watermark untouched");
    }

    #[test]
    fn foreign_inflight_sees_other_bands_only() {
        nvm::tid::set_tid(0);
        let (_h, t) = mk("foreign");
        t.register(11).unwrap();
        t.begin_op(17, 11, 2, 1, 0);
        assert!(t.foreign_inflight(11, 0..8));
        assert!(!t.foreign_inflight(11, 16..24), "own band excluded");
        assert!(!t.foreign_inflight(12, 0..8), "other clients unaffected");
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
}
