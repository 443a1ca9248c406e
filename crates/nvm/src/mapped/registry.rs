//! The participant registry and its recovery leases.
//!
//! The superblock carries fixed slots of `(pid, birth stamp, recovery
//! lease)`, one cache line each, one per attached process. The birth
//! stamp (`/proc` start time) defeats pid reuse; liveness verdicts come from
//! the heap's injectable [`crate::PidLiveness`] probe.
//!
//! Invariants this file owns:
//!
//! * **Claim: fields first, pid last.** A slot is reserved with a CAS to the
//!   `CLAIMING` sentinel, its fields are made durable, and the pid — the valid
//!   flag — is stored last. A crash mid-claim leaves `CLAIMING`, which is
//!   never a live pid. **Retire: pid first.** The pid is cleared and made
//!   durable before the lease and the fields, so a lease claimant observes
//!   `Gone` before the lease word ever reads as free.
//! * **Claims run under the attach flock.** While it is held a `CLAIMING`
//!   slot can only be the leftover of a crashed claimant, so torn claims are
//!   reclaimed there ([`MappedHeap::reclaim_torn_claim`]) and never leased.
//! * **At most one recoverer per dead slot.** The lease word is `(seq << 8) |
//!   (holder slot + 1)` and moves by a single CAS per transition; a live
//!   participant's slot is never claimable, and a lease whose holder is
//!   itself dead is stolen with a fresh sequence number. See DESIGN.md §14
//!   for the full argument.

use super::superblock::{
    claim_is_live, persist, persist_all, persist_line, CLAIMING, PART_SLOTS, PART_WORDS, PW_BIRTH,
    PW_LEASE, PW_PID, W_PART0,
};
use super::{MapError, MappedHeap, PART_TIDS};
use crate::stats;
use std::sync::atomic::AtomicU64;
use std::sync::atomic::Ordering::{AcqRel, Acquire, Relaxed};

/// Result of a recovery-lease claim attempt (see
/// [`MappedHeap::lease_try_claim_for`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeaseOutcome {
    /// This claimant holds the lease (freshly claimed, re-entered, or stolen
    /// from a dead recoverer); `seq` is its lease generation.
    Won {
        /// Lease sequence number (monotonic per dead slot).
        seq: u64,
    },
    /// A **live** recoverer already holds the lease; back off.
    Held {
        /// The holder's participant slot.
        holder: usize,
    },
    /// The slot was already reclaimed — recovery finished elsewhere.
    Gone,
    /// The slot's participant is **alive** (the caller's dead-list was stale,
    /// or the probe's verdict flipped): a live peer's slot is never
    /// lease-claimable, so its rec-slots, epochs and registration stay
    /// untouched.
    Live {
        /// The live participant's pid.
        pid: u64,
    },
    /// The slot is torn mid-claim (`PW_PID` still holds the claim sentinel).
    /// It carries no recoverable state and may belong to a *live* joiner
    /// between its slot reservation and its pid stamp, so it is never
    /// leased; reclaim it under the attach flock with
    /// [`MappedHeap::reclaim_torn_claim`].
    Torn,
}

impl MappedHeap {
    #[inline]
    fn part_word(&self, slot: usize, w: usize) -> &AtomicU64 {
        debug_assert!(slot < PART_SLOTS && w < PART_WORDS);
        self.word(W_PART0 + slot * PART_WORDS + w)
    }

    /// Claims a free registry slot for `(pid, birth)` (see the module docs
    /// for the crash ordering). A full registry answers
    /// [`MapError::RegistryFull`] having written nothing.
    fn claim_slot_raw(&self, pid: u64, birth: u64) -> Result<usize, MapError> {
        for s in 0..PART_SLOTS {
            let pw = self.part_word(s, PW_PID);
            if pw.load(Acquire) != 0 || pw.compare_exchange(0, CLAIMING, AcqRel, Acquire).is_err() {
                continue;
            }
            persist_all([(self.part_word(s, PW_BIRTH), birth), (self.part_word(s, PW_LEASE), 0)]);
            persist(pw, pid);
            return Ok(s);
        }
        Err(MapError::RegistryFull)
    }

    /// Claims this process's registry slot (every attach path does this).
    pub(super) fn claim_participant(&self) -> Result<usize, MapError> {
        let slot = self.claim_slot_raw(std::process::id() as u64, crate::liveness::self_birth())?;
        self.my_slot.store(slot, Relaxed);
        Ok(slot)
    }

    /// Clears every claimed registry slot (full attach, after the live-pid
    /// guard established they are all dead or mid-claim).
    pub(super) fn registry_clear_stale(&self) {
        for s in 0..PART_SLOTS {
            if self.part_word(s, PW_PID).load(Acquire) != 0 {
                self.clear_participant(s);
            }
        }
    }

    /// Frees registry slot `slot`, pid first (clearing the lease first would
    /// let a second survivor win a lease on a slot that is mid-retire, then
    /// wipe state a *new* claimant of the slot owns). Crash-safe in either
    /// half: a re-claim overwrites birth and lease before re-stamping the
    /// pid, so stale field bytes are never paired with a valid flag. Public
    /// for the recovery path, which calls it only after the dead peer's
    /// per-pid replay completed.
    pub fn clear_participant(&self, slot: usize) {
        persist(self.part_word(slot, PW_PID), 0);
        persist_all([PW_LEASE, PW_BIRTH].map(|w| (self.part_word(slot, w), 0)));
    }

    /// Whether registry slot `slot` holds a fully-claimed, live participant.
    pub(super) fn slot_is_live(&self, slot: usize) -> bool {
        slot < PART_SLOTS
            && claim_is_live(
                self.part_word(slot, PW_PID).load(Acquire),
                self.part_word(slot, PW_BIRTH).load(Acquire),
                &*self.liveness,
            )
    }

    /// Every claimed registry slot as `(slot, pid, birth)` (`pid` may be the
    /// mid-claim sentinel; diagnostics and tests).
    pub fn participants(&self) -> Vec<(usize, u64, u64)> {
        (0..PART_SLOTS)
            .filter_map(|s| {
                let pid = self.part_word(s, PW_PID).load(Acquire);
                (pid != 0).then(|| (s, pid, self.part_word(s, PW_BIRTH).load(Acquire)))
            })
            .collect()
    }

    /// This process's registry slot (`None` before a claim — only possible
    /// on a heap mid-construction).
    pub fn my_participant(&self) -> Option<usize> {
        let s = self.my_slot.load(Relaxed);
        (s != usize::MAX).then_some(s)
    }

    /// The disjoint tid band owned by participant slot `slot`: every thread
    /// of that process must register a tid in this range so recovery-area
    /// slots, stats slots, epoch announce words and allocator caches stay
    /// per-process disjoint.
    pub fn tid_band(slot: usize) -> std::ops::Range<usize> {
        slot * PART_TIDS..(slot + 1) * PART_TIDS
    }

    /// Registry slots whose participant is **dead** (pid gone, recycled with
    /// a different birth stamp, zombie, or a claim torn mid-flight). Never
    /// includes this process's own slot.
    pub fn dead_participants(&self) -> Vec<usize> {
        let mine = self.my_slot.load(Relaxed);
        (0..PART_SLOTS)
            .filter(|&s| {
                s != mine && self.part_word(s, PW_PID).load(Acquire) != 0 && !self.slot_is_live(s)
            })
            .collect()
    }

    /// Tries to take the recovery lease on dead participant `dead` for this
    /// process. See [`MappedHeap::lease_try_claim_for`].
    pub fn lease_try_claim(&self, dead: usize) -> LeaseOutcome {
        match self.my_participant() {
            Some(me) => self.lease_try_claim_for(dead, me),
            None => LeaseOutcome::Held { holder: usize::MAX },
        }
    }

    /// Tries to take the recovery lease on dead participant `dead` for the
    /// claimant slot `claimant`. A single CAS per seq transition means **at
    /// most one winner** even when several survivors (or a falsely-dead
    /// verdict) race for it.
    ///
    /// The slot itself is probed before the lease is touched: a **live**
    /// participant's slot is never claimable ([`LeaseOutcome::Live`] — a
    /// stale dead-list must not erase a live registration), and a slot torn
    /// mid-claim carries no state to recover and may belong to a live joiner
    /// ([`LeaseOutcome::Torn`] — reclaim it under the attach flock instead).
    /// After winning the CAS the probed `(pid, birth)` identity is
    /// re-verified: the slot may have been retired — `clear_participant`
    /// clears the pid strictly before the lease — or even re-claimed between
    /// probe and CAS, in which case the claim is rolled back (by CAS, so a
    /// stale winner never wipes a successor's lease) and re-evaluated.
    pub fn lease_try_claim_for(&self, dead: usize, claimant: usize) -> LeaseOutcome {
        let lw = self.part_word(dead, PW_LEASE);
        loop {
            let pid = self.part_word(dead, PW_PID).load(Acquire);
            if pid == 0 {
                return LeaseOutcome::Gone;
            }
            if pid == CLAIMING {
                return LeaseOutcome::Torn;
            }
            let birth = self.part_word(dead, PW_BIRTH).load(Acquire);
            if self.liveness.is_alive(pid, birth) {
                return LeaseOutcome::Live { pid };
            }
            let cur = lw.load(Acquire);
            let holder = (cur & 0xFF) as usize;
            let next = (((cur >> 8) + 1) << 8) | (claimant as u64 + 1);
            if holder == claimant + 1 {
                // Re-entrant: we already hold it (idempotent recovery redo).
                return LeaseOutcome::Won { seq: cur >> 8 };
            }
            if holder != 0 && self.slot_is_live(holder - 1) {
                return LeaseOutcome::Held { holder: holder - 1 };
            }
            let stolen = holder != 0;
            if lw.compare_exchange(cur, next, AcqRel, Acquire).is_err() {
                continue;
            }
            if self.part_word(dead, PW_PID).load(Acquire) != pid
                || self.part_word(dead, PW_BIRTH).load(Acquire) != birth
            {
                let _ = lw.compare_exchange(next, 0, AcqRel, Acquire);
                persist_line(lw);
                continue;
            }
            persist_line(lw);
            if stolen {
                stats::count_leases_stolen(1);
            }
            return LeaseOutcome::Won { seq: next >> 8 };
        }
    }

    /// Reclaims a registry slot torn mid-claim (`PW_PID` still holds the
    /// claim sentinel), serialized under the attach flock. Returns whether
    /// the slot was reclaimed (`false`: the claim completed or cleared in the
    /// meantime).
    pub fn reclaim_torn_claim(&self, slot: usize) -> Result<bool, MapError> {
        self.with_file_lock(|| {
            let torn = self.part_word(slot, PW_PID).load(Acquire) == CLAIMING;
            if torn {
                self.clear_participant(slot);
            }
            torn
        })
    }

    /// Test hook: registers a fake participant `(pid, birth)` in the
    /// registry, as if that process had attached. Returns its slot. Unlike a
    /// real claim this does not hold the attach flock — tests only.
    #[doc(hidden)]
    pub fn debug_register_peer(&self, pid: u64, birth: u64) -> Result<usize, MapError> {
        self.claim_slot_raw(pid, birth)
    }

    /// Test hook: leaves registry slot `slot`'s pid word at the mid-claim
    /// sentinel, as a claimant crashed between its slot reservation and its
    /// pid stamp would. Tests only.
    #[doc(hidden)]
    pub fn debug_tear_claim(&self, slot: usize) {
        persist(self.part_word(slot, PW_PID), CLAIMING);
    }
}
