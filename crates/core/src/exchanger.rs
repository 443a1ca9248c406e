//! Detectably recoverable exchanger (paper Section 6).
//!
//! An exchanger pairs up two operations so they can swap values. Processes
//! exchange **ExInfo structures** rather than raw values: the first arrival
//! captures the slot with a CAS to its ExInfo and waits; the second installs
//! its own ExInfo into the waiter's `partner` field (one CAS — the
//! collision), after which both sides read each other's `value`.
//!
//! **Withdrawal** is a CAS on the same word: a waiter whose budget runs out
//! claims its own `partner` field with `WITHDRAWN`, a mark no ExInfo
//! address equals, and clears the slot only once that CAS wins. So exactly
//! one of the collision and the withdrawal takes effect; a waiter whose
//! withdrawal fails has a partner and completes the exchange.
//!
//! Detectability: `RD_q` names the operation's ExInfo; its `result` is
//! persisted before returning. On recovery, a set `result` is returned
//! directly; a `partner` naming an ExInfo lets the response be recomputed;
//! an offer that was (or now is) withdrawn did not take effect — the paper's
//! "tracked progress" distilled to three fields.

use crate::engine::{res_val, val_of, RES_BOT, RES_EMPTY};
use crate::env::Env;
use crate::pool::{Pool, PoolItem};
use nvm::{PWord, Persist, PersistWords};

/// A withdrawn offer's `partner` word: ExInfos are 8-aligned, so no
/// collider's link word equals it.
const WITHDRAWN: u64 = 1;

/// The per-operation descriptor exchanged between processes.
#[repr(C)]
pub struct ExInfo<M: Persist> {
    value: PWord<M>,
    partner: PWord<M>,
    result: PWord<M>,
}

unsafe impl<M: Persist> PersistWords<M> for ExInfo<M> {
    fn each_word(&self, f: &mut dyn FnMut(&PWord<M>)) {
        f(&self.value);
        f(&self.partner);
        f(&self.result);
    }
}

impl<M: Persist> ExInfo<M> {
    /// Re-initialize a pool-recycled descriptor.
    fn init(&self, v: u64) {
        self.value.store(v);
        self.partner.store(0);
        self.result.store(RES_BOT);
    }
}

impl<M: Persist> PoolItem for ExInfo<M> {
    fn fresh() -> Self {
        nvm::stats::count_info_allocs(1);
        ExInfo { value: PWord::new(0), partner: PWord::new(0), result: PWord::new(RES_BOT) }
    }

    fn count_reuse() {
        nvm::stats::count_info_reuses(1);
    }
}

/// Outcome of [`RExchanger::exchange`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExchangeResult {
    /// Paired: the partner's value.
    Exchanged(u64),
    /// Nobody arrived within the spin budget; the offer was withdrawn.
    TimedOut,
}

/// A detectably recoverable exchanger.
pub struct RExchanger<M: Persist> {
    slot: PWord<M>,
    pool: Pool<ExInfo<M>>,
    pub(crate) env: Env<M>,
}

unsafe impl<M: Persist> Send for RExchanger<M> {}
unsafe impl<M: Persist> Sync for RExchanger<M> {}

impl<M: Persist> Default for RExchanger<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M: Persist> RExchanger<M> {
    /// New exchanger.
    pub fn new() -> Self {
        let mut env = Env::volatile();
        Self { slot: PWord::new(0), pool: env.pool::<_, 1>(), env }
    }

    fn alloc_info(&self, v: u64) -> *mut ExInfo<M> {
        self.pool.draw(|i| i.init(v))
    }

    /// Complete with `partner`'s value: persist the response, then return it.
    unsafe fn finish(&self, info: *mut ExInfo<M>, partner: u64) -> u64 {
        let v = unsafe { (*self.env.rec.base.at::<ExInfo<M>>(partner)).value.load() };
        unsafe { Self::answer(info, res_val(v)) };
        v
    }

    /// Persist `info`'s response (its partner's value, or `RES_EMPTY` for
    /// an offer nobody can take any more).
    unsafe fn answer(info: *mut ExInfo<M>, result: u64) {
        unsafe {
            M::store(&(*info).result, result);
            M::pwb(&(*info).result);
            M::psync();
        }
    }

    /// Attempt to exchange `v` with another process, spinning for at most
    /// `budget` iterations while waiting.
    pub fn exchange(&self, pid: usize, v: u64, budget: usize) -> ExchangeResult {
        // ONE pin covers the retirement of the previous descriptor and the
        // whole collision loop.
        let (g, b) = (self.env.collector.pin(), self.env.rec.base);
        let prev = self.env.rec.begin::<1>(pid);
        if prev != 0 {
            // Published in RD_q and possibly seen by a past partner: the
            // pool's epoch delay applies.
            unsafe { self.pool.retire(b.at(prev), &g) };
        }
        let info = self.alloc_info(v);
        unsafe {
            M::pwb_obj(&*info);
            M::pfence();
        }
        let me = b.word(info);
        self.env.rec.publish(pid, me);
        let mut spins = 0;
        loop {
            let cur = self.slot.load();
            if cur == 0 {
                // Try to capture the slot and wait for a partner.
                if self.slot.cas(0, me) == 0 {
                    M::pwb(&self.slot);
                    loop {
                        let p = unsafe { (*info).partner.load() };
                        if p != 0 {
                            let v = unsafe { self.finish(info, p) };
                            let _ = self.slot.cas(me, 0);
                            return ExchangeResult::Exchanged(v);
                        }
                        spins += 1;
                        // Withdraw by claiming our own `partner` word; if
                        // that fails, a partner just arrived (next round).
                        if spins > budget && unsafe { (*info).partner.cas(0, WITHDRAWN) } == 0 {
                            let _ = self.slot.cas(me, 0);
                            unsafe { Self::answer(info, RES_EMPTY) };
                            return ExchangeResult::TimedOut;
                        }
                        std::hint::spin_loop();
                    }
                }
            } else {
                // Collide with the waiter.
                let waiter = b.at::<ExInfo<M>>(cur);
                if unsafe { (*waiter).partner.cas(0, me) } == 0 {
                    unsafe { M::pwb(&(*waiter).partner) };
                    let v = unsafe { self.finish(info, cur) };
                    let _ = self.slot.cas(cur, 0); // release for the next pair
                    return ExchangeResult::Exchanged(v);
                }
                // Already matched or withdrawn: help clear the slot and retry.
                let _ = self.slot.cas(cur, 0);
            }
            spins += 1;
            if spins > budget {
                unsafe { Self::answer(info, RES_EMPTY) };
                drop(g);
                return ExchangeResult::TimedOut;
            }
        }
    }

    /// `Exchange.Recover`: decide from the tracked ExInfo whether the
    /// crashed exchange took effect.
    pub fn recover_exchange(&self, pid: usize, v: u64, budget: usize) -> ExchangeResult {
        let (cp, rd) = self.env.rec.read(pid);
        if cp != 1 || rd == 0 {
            return self.exchange(pid, v, budget);
        }
        let info = self.env.rec.base.at::<ExInfo<M>>(rd);
        unsafe {
            let r = (*info).result.load();
            if r == RES_EMPTY {
                return ExchangeResult::TimedOut;
            }
            if r != RES_BOT {
                return ExchangeResult::Exchanged(val_of(r));
            }
            // Result not persisted: withdraw the offer (a no-op when it was
            // withdrawn before the crash). A partner that collided first
            // makes the withdrawal fail, and the exchange took effect.
            let p = (*info).partner.cas(0, WITHDRAWN);
            if p != 0 && p != WITHDRAWN {
                return ExchangeResult::Exchanged(self.finish(info, p));
            }
            let _ = self.slot.cas(rd, 0);
        }
        self.exchange(pid, v, budget)
    }
}

impl<M: Persist> Drop for RExchanger<M> {
    fn drop(&mut self) {
        let b = self.env.rec.base;
        let mut grave: std::collections::HashSet<*mut ExInfo<M>> =
            self.env.rec.published_words().map(|rd| b.at(rd)).collect();
        for (p, _) in self.env.collector.take_parked() {
            grave.remove(&p.cast()); // parked ExInfos freed below once
            unsafe { drop(Box::from_raw(p.cast::<ExInfo<M>>())) };
        }
        for p in grave {
            unsafe { drop(Box::from_raw(p)) };
        }
    }
}

impl<M: Persist> Drop for ExInfo<M> {
    fn drop(&mut self) {
        nvm::stats::count_info_frees(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvm::CountingNvm;
    use std::sync::Arc;

    type X = RExchanger<CountingNvm>;

    #[test]
    fn lone_exchange_times_out() {
        let _gate = crate::counters::gate_shared();
        nvm::tid::set_tid(0);
        let x = X::new();
        assert_eq!(x.exchange(0, 7, 100), ExchangeResult::TimedOut);
    }

    #[test]
    fn two_threads_swap_values() {
        let _gate = crate::counters::gate_shared();
        let x = Arc::new(X::new());
        let x2 = Arc::clone(&x);
        let h = std::thread::spawn(move || {
            nvm::tid::set_tid(1);
            loop {
                if let ExchangeResult::Exchanged(v) = x2.exchange(1, 111, 1_000_000) {
                    return v;
                }
            }
        });
        nvm::tid::set_tid(0);
        let mine = loop {
            if let ExchangeResult::Exchanged(v) = x.exchange(0, 222, 1_000_000) {
                break v;
            }
        };
        let theirs = h.join().unwrap();
        assert_eq!((mine, theirs), (111, 222));
    }

    #[test]
    fn many_pairs_all_match() {
        let _gate = crate::counters::gate_shared();
        let x = Arc::new(X::new());
        let n = 100u64;
        let x2 = Arc::clone(&x);
        let h = std::thread::spawn(move || {
            nvm::tid::set_tid(1);
            let mut got = Vec::new();
            for i in 0..n {
                loop {
                    if let ExchangeResult::Exchanged(v) = x2.exchange(1, 1000 + i, 10_000_000) {
                        got.push(v);
                        break;
                    }
                }
            }
            got
        });
        nvm::tid::set_tid(0);
        let mut got = Vec::new();
        for i in 0..n {
            loop {
                if let ExchangeResult::Exchanged(v) = x.exchange(0, 2000 + i, 10_000_000) {
                    got.push(v);
                    break;
                }
            }
        }
        let other = h.join().unwrap();
        // Each side received exactly the other's values, in order.
        assert_eq!(got, (0..n).map(|i| 1000 + i).collect::<Vec<_>>());
        assert_eq!(other, (0..n).map(|i| 2000 + i).collect::<Vec<_>>());
    }

    /// Short budgets make offers time out all the time, so withdrawals race
    /// collisions: whoever answers `Exchanged(v)` must have been answered
    /// `Exchanged(mine)` by the owner of `v` — a withdrawn offer is never
    /// taken, and a taken one is never withdrawn.
    #[test]
    fn a_withdrawn_offer_is_never_taken() {
        let _gate = crate::counters::gate_shared();
        let x = Arc::new(X::new());
        let per = 200_000u64;
        // Thread t offers `t << 32 | i`; answers[t][i] is what it got back.
        let answers: Vec<Vec<ExchangeResult>> = (0..2u64)
            .map(|t| {
                let x = Arc::clone(&x);
                std::thread::spawn(move || {
                    nvm::tid::set_tid(t as usize);
                    (0..per).map(|i| x.exchange(t as usize, t << 32 | i, i as usize % 8)).collect()
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect();
        let mut matched = 0;
        for (t, mine) in answers.iter().enumerate() {
            for (i, &r) in mine.iter().enumerate() {
                if let ExchangeResult::Exchanged(v) = r {
                    let (owner, j) = ((v >> 32) as usize, (v & 0xFFFF_FFFF) as usize);
                    let offered = (t as u64) << 32 | i as u64;
                    assert_ne!(owner, t, "{offered:#x} got its own side's value {v:#x}");
                    assert_eq!(
                        answers[owner][j],
                        ExchangeResult::Exchanged(offered),
                        "{offered:#x} took {v:#x}, whose owner was not answered with it"
                    );
                    matched += 1;
                }
            }
        }
        assert!(matched > 0, "the two threads never met");
    }

    #[test]
    fn recovery_of_completed_exchange_returns_same_value() {
        let _gate = crate::counters::gate_shared();
        let x = Arc::new(X::new());
        let x2 = Arc::clone(&x);
        let h = std::thread::spawn(move || {
            nvm::tid::set_tid(1);
            x2.exchange(1, 5, 50_000_000)
        });
        nvm::tid::set_tid(0);
        let r = x.exchange(0, 6, 50_000_000);
        assert_eq!(r, ExchangeResult::Exchanged(5));
        // "Crash" right after return: recovery must reproduce the response.
        assert_eq!(x.recover_exchange(0, 6, 100), ExchangeResult::Exchanged(5));
        assert_eq!(h.join().unwrap(), ExchangeResult::Exchanged(6));
    }

    #[test]
    fn recovery_of_lonely_offer_withdraws_and_retries() {
        let _gate = crate::counters::gate_shared();
        nvm::tid::set_tid(0);
        let x = X::new();
        // Simulate a crash while waiting alone: capture the slot manually.
        let r = x.exchange(0, 9, 10);
        assert_eq!(r, ExchangeResult::TimedOut);
        // Recovery with nothing pending times out again (re-invoked).
        assert_eq!(x.recover_exchange(0, 9, 10), ExchangeResult::TimedOut);
    }
}
