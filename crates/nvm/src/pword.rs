//! [`PWord`]: one 64-bit word of persistent state.
//!
//! All shared, persistent fields of every data structure in this workspace
//! (node keys, `next` pointers, `info` pointers, recovery data `RD_q`,
//! check-points `CP_q`, operation results, …) are `PWord`s. Pointers are
//! stored as `u64` with an optional tag in bit 0 (everything is ≥8-aligned).
//!
//! A `PWord` is an `AtomicU64` plus mode-specific metadata: empty for the
//! real modes, shadow-tracking state for the crash simulator ([`crate::SimNvm`]).
//! All accesses go through the [`crate::Persist`] trait so the simulator can
//! observe them; the real modes compile down to plain atomics.

use crate::persist::Persist;
use std::sync::atomic::AtomicU64;

/// A persistent 64-bit word (see module docs).
#[derive(Debug)]
#[repr(C)]
pub struct PWord<M: Persist> {
    pub(crate) v: AtomicU64,
    pub(crate) meta: M::Meta,
}

impl<M: Persist> Default for PWord<M> {
    fn default() -> Self {
        Self::new(0)
    }
}

impl<M: Persist> PWord<M> {
    /// Creates a word holding `v`.
    ///
    /// Note: creation writes the *volatile* value only. Under the crash
    /// simulator a word becomes durable the first time it is covered by a
    /// `pwb` + `psync`/`pfence` (or [`crate::sim::persist_all`]).
    pub fn new(v: u64) -> Self {
        Self { v: AtomicU64::new(v), meta: M::Meta::default() }
    }

    /// Atomic load (Acquire).
    #[inline]
    pub fn load(&self) -> u64 {
        M::load(self)
    }

    /// Atomic store (Release).
    #[inline]
    pub fn store(&self, v: u64) {
        M::store(self, v)
    }

    /// Atomic compare-and-swap. Returns **the value read** (the paper's CAS
    /// convention): equal to `old` iff the swap happened.
    #[inline]
    pub fn cas(&self, old: u64, new: u64) -> u64 {
        M::cas(self, old, new)
    }

    /// Address of the word (for range flushes).
    #[inline]
    pub fn addr(&self) -> *const u8 {
        &self.v as *const AtomicU64 as *const u8
    }

    /// Direct volatile read bypassing instrumentation. Only for the crash
    /// simulator's image builder and `Drop` impls.
    #[inline]
    pub fn peek(&self) -> u64 {
        self.v.load(std::sync::atomic::Ordering::Acquire)
    }

    /// Direct volatile write bypassing instrumentation. Only for the crash
    /// simulator's image builder (single-threaded contexts).
    #[inline]
    pub fn poke(&self, v: u64) {
        self.v.store(v, std::sync::atomic::Ordering::Release)
    }
}

/// Objects whose persistent words can be enumerated, so whole-object flushes
/// (`pbarrier(*opInfo, NewSet)` in the paper's pseudocode) work in every
/// mode: the real modes flush the object's cache-line range; the simulator
/// visits each word.
///
/// # Safety
/// `each_word` must visit **every** `PWord` in the object whose durability
/// matters, and the object must be `#[repr(C)]`-stable for the address-range
/// flush to cover it.
pub unsafe trait PersistWords<M: Persist> {
    /// Visit every persistent word.
    fn each_word(&self, f: &mut dyn FnMut(&PWord<M>));

    /// Byte range of the object, flushed line-by-line in real modes.
    fn addr_range(&self) -> (*const u8, usize) {
        (self as *const Self as *const u8, core::mem::size_of_val(self))
    }

    /// Byte range that actually needs persisting (defaults to the whole
    /// object). Descriptors with fixed-capacity arrays override this so a
    /// whole-object barrier flushes only the used prefix — the paper's
    /// "a single pwb flushes all fields fitting in a cache line".
    fn used_range(&self) -> (*const u8, usize) {
        self.addr_range()
    }
}

// SAFETY: a slice is its elements, contiguous; each one is visited.
unsafe impl<M: Persist> PersistWords<M> for [PWord<M>] {
    fn each_word(&self, f: &mut dyn FnMut(&PWord<M>)) {
        self.iter().for_each(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::RealNvm;

    #[test]
    fn load_store_cas_roundtrip() {
        let w: PWord<RealNvm> = PWord::new(10);
        assert_eq!(w.load(), 10);
        w.store(11);
        assert_eq!(w.load(), 11);
        // Successful CAS returns the old value it read.
        assert_eq!(w.cas(11, 12), 11);
        assert_eq!(w.load(), 12);
        // Failed CAS returns the differing value and leaves the word alone.
        assert_eq!(w.cas(11, 99), 12);
        assert_eq!(w.load(), 12);
    }

    #[test]
    fn peek_poke_bypass() {
        let w: PWord<RealNvm> = PWord::new(1);
        w.poke(5);
        assert_eq!(w.peek(), 5);
        assert_eq!(w.load(), 5);
    }

    #[test]
    fn real_pword_is_just_an_atomic() {
        assert_eq!(core::mem::size_of::<PWord<RealNvm>>(), 8);
    }
}
