//! The [`Persist`] trait and its real-machine implementations.

use crate::coalesce;
use crate::pword::{PWord, PersistWords};
use crate::stats;
use crate::CACHE_LINE;
use std::sync::atomic::Ordering::{Acquire, Release, SeqCst};

/// A persistency model (see crate docs). Monomorphised into every data
/// structure; the real modes compile to plain atomics plus (optionally) the
/// machine's write-back instruction, fences and counter bumps.
pub trait Persist: Sized + Send + Sync + 'static {
    /// Human-readable mode name (reported by the benchmark harness).
    const NAME: &'static str;
    /// True for the crash simulator (enables extra bookkeeping in callers).
    const SIMULATED: bool = false;
    /// True for the mapped (file-backed) backend: callers gate their
    /// attach-time-only bookkeeping (e.g. release suspension during the
    /// recovery replay) on this so every other model compiles it away.
    const MAPPED: bool = false;
    /// Per-word metadata (empty except for the simulator).
    type Meta: Default + Send + Sync;

    /// Atomic load (Acquire). Like `store` and `cas`, a plain atomic in
    /// every model but the simulator, which shadows it.
    #[inline]
    fn load(w: &PWord<Self>) -> u64 {
        w.v.load(Acquire)
    }
    /// Atomic store (Release).
    #[inline]
    fn store(w: &PWord<Self>, v: u64) {
        w.v.store(v, Release)
    }
    /// Atomic CAS returning the value read.
    #[inline]
    fn cas(w: &PWord<Self>, old: u64, new: u64) -> u64 {
        match w.v.compare_exchange(old, new, SeqCst, SeqCst) {
            Ok(prev) | Err(prev) => prev,
        }
    }

    /// `pwb`: initiate write-back of the line containing `w` (stand-alone).
    fn pwb(w: &PWord<Self>);
    /// `pfence`: order preceding `pwb`s before subsequent ones.
    fn pfence();
    /// `psync`: wait for all preceding `pwb`s to complete.
    fn psync();

    /// `pbarrier(w)` = `pwb(w); pfence()`, counted as one barrier.
    fn pbarrier(w: &PWord<Self>);

    /// Flush every line of `obj` (stand-alone flushes).
    fn pwb_obj<T: PersistWords<Self> + ?Sized>(obj: &T);
    /// Flush every line of `obj` then fence — the paper's multi-argument
    /// `pbarrier(*opInfo, NewSet)`; counted as one barrier event.
    fn pbarrier_obj<T: PersistWords<Self> + ?Sized>(obj: &T);

    /// Coalescing `pwb`: durability-equivalent to [`Persist::pwb`] (the
    /// write-back is outstanding until the next fence either way), but modes
    /// with a physical flush may defer it into the per-thread
    /// [`crate::coalesce`] line set and write each unique line back once when
    /// the phase-ending fence drains the set. Callers must ensure a drain
    /// (any fence, or [`Persist::coal_drain`]) runs before a noted object can
    /// be freed. Defaults to plain `pwb` for modes without deferral
    /// (simulator, private-cache).
    #[inline]
    fn pwb_coal(w: &PWord<Self>) {
        Self::pwb(w);
    }
    /// Coalescing variant of [`Persist::pwb_obj`]: every line of `obj` is
    /// noted in (or elided against) the pending set instead of being flushed
    /// immediately.
    #[inline]
    fn pwb_obj_coal<T: PersistWords<Self> + ?Sized>(obj: &T) {
        Self::pwb_obj(obj);
    }
    /// Write back all pending coalesced lines *without* fencing. For phases
    /// that end without a fence (the engine's deferred cleanup) but whose
    /// noted objects may be recycled after the operation returns.
    #[inline]
    fn coal_drain() {}

    /// Crash-injection hook; no-op outside the simulator.
    #[inline]
    fn check_crash() {}
}

/// Note every cache line of `[p, p+len)` in the coalescing set, counting New
/// lines as issued `pwb`s and duplicates as elisions; `flush_through` handles
/// capacity overflow (immediate write-back).
#[inline]
pub(crate) fn coal_note_range(p: *const u8, len: usize, mut flush_through: impl FnMut(u64)) {
    let mut line = coalesce::line_of(p);
    let end = p as u64 + len as u64;
    while line < end {
        match coalesce::note(line as *const u8) {
            coalesce::Note::New => stats::count_pwb(1),
            coalesce::Note::Dup => stats::count_pwb_elided(1),
            coalesce::Note::Full => {
                flush_through(line);
                stats::count_pwb(1);
            }
        }
        line += CACHE_LINE as u64;
    }
}

/// The `Persist` impl of the shared-cache models: [`RealNvm`],
/// [`crate::MappedNvm`] and [`CountingNvm`] differ only in `NAME`, `MAPPED`
/// and `$exec`, whether the machine instructions run. With `$exec`, `pwb` is
/// one [`crate::flush::flush`] of the machine's [`crate::flush::Kind`],
/// `pfence` is [`crate::flush::pfence`] (an `sfence` when that kind is weakly
/// ordered, free under `clflush`), `psync` and the barriers end in `mfence`;
/// without it nothing executes. Every persistency instruction is counted the
/// same either way ([`crate::flush::flush_range`] returns
/// [`crate::flush::lines_in_range`]); counts do not depend on the kind.
macro_rules! shared_cache_persist {
    ($ty:ty, $name:literal, $mapped:literal, $exec:literal) => {
        const _: () = {
            use $crate::coalesce::{self, lint};
            use $crate::persist::{coal_note_range, Persist};
            use $crate::{flush, stats, PWord, PersistWords};

            /// Writes back the line at `l` when the instructions execute.
            #[inline(always)]
            fn flush_line(l: *const u8) {
                if $exec {
                    // SAFETY: every caller passes a line of a live object
                    // (`pwb`'s word, a noted or overflowing coalesced line).
                    unsafe { flush::flush(l) };
                }
            }

            /// Writes back `[p, p + len)` when the instructions execute;
            /// the number of lines either way.
            #[inline(always)]
            fn flush_range(p: *const u8, len: usize) -> u64 {
                if $exec {
                    // SAFETY: `used_range` is a sub-range of the live object
                    // it came from (PersistWords safety contract).
                    unsafe { flush::flush_range(p, len) }
                } else {
                    flush::lines_in_range(p, len)
                }
            }

            impl Persist for $ty {
                const NAME: &'static str = $name;
                const MAPPED: bool = $mapped;
                type Meta = ();

                #[inline]
                fn pwb(w: &PWord<Self>) {
                    lint::note_pwb(w.addr());
                    flush_line(w.addr());
                    stats::count_pwb(1);
                }
                #[inline]
                fn pfence() {
                    // Pending coalesced lines are written back first, so that
                    // they are ordered before post-fence flushes.
                    Self::coal_drain();
                    lint::fence();
                    if $exec {
                        flush::pfence();
                    }
                    stats::count_pfence();
                }
                #[inline]
                fn psync() {
                    Self::coal_drain();
                    lint::fence();
                    if $exec {
                        flush::mfence();
                    }
                    stats::count_psync();
                }
                #[inline]
                fn pbarrier(w: &PWord<Self>) {
                    Self::coal_drain();
                    lint::fence();
                    flush_line(w.addr());
                    if $exec {
                        flush::mfence();
                    }
                    stats::count_pbarrier(1);
                }
                #[inline]
                fn pwb_obj<T: PersistWords<Self> + ?Sized>(obj: &T) {
                    let (p, len) = obj.used_range();
                    stats::count_pwb(flush_range(p, len));
                }
                #[inline]
                fn pbarrier_obj<T: PersistWords<Self> + ?Sized>(obj: &T) {
                    Self::coal_drain();
                    lint::fence();
                    let (p, len) = obj.used_range();
                    let n = flush_range(p, len);
                    if $exec {
                        flush::mfence();
                    }
                    stats::count_pbarrier(n);
                }

                #[inline]
                fn pwb_coal(w: &PWord<Self>) {
                    coal_note_range(w.addr(), 1, |l| flush_line(l as *const u8));
                }
                #[inline]
                fn pwb_obj_coal<T: PersistWords<Self> + ?Sized>(obj: &T) {
                    let (p, len) = obj.used_range();
                    coal_note_range(p, len, |l| flush_line(l as *const u8));
                }
                #[inline]
                fn coal_drain() {
                    // Every pending line was noted from an object that is,
                    // per the `pwb_coal` contract, still live at the draining
                    // fence (and a mapped-heap object is never unmapped while
                    // its structure is attached).
                    let n = coalesce::drain(|l| flush_line(l as *const u8));
                    if n > 0 {
                        stats::count_lines_coalesced(n);
                    }
                }
            }
        };
    };
}
pub(crate) use shared_cache_persist;

/// Shared-cache model on real hardware: `pwb` is the machine's write-back
/// instruction ([`crate::flush::kind`]: `clwb`, `clflushopt`, or the paper's
/// `clflush`), `psync` = `mfence`, `pfence` = `sfence` for the weakly-ordered
/// kinds and a no-op under `clflush` (as in the paper's evaluation). All
/// persistency instructions are counted.
pub struct RealNvm;

shared_cache_persist!(RealNvm, "real", false, true);

/// Shared-cache model with *counted but not executed* flushes. Portable,
/// used by CI and by counting-only experiments where flush latency is not
/// itself under study.
pub struct CountingNvm;

shared_cache_persist!(CountingNvm, "counting", false, false);

/// Private-cache model: shared variables are always persistent, so every
/// persistency instruction is free (and uncounted). Used for Figure 4 and
/// Figure 7 (middle/right).
pub struct NoPersist;

impl Persist for NoPersist {
    const NAME: &'static str = "private-cache";
    type Meta = ();

    #[inline]
    fn pwb(_w: &PWord<Self>) {}
    #[inline]
    fn pfence() {}
    #[inline]
    fn psync() {}
    #[inline]
    fn pbarrier(_w: &PWord<Self>) {}
    #[inline]
    fn pwb_obj<T: PersistWords<Self> + ?Sized>(_obj: &T) {}
    #[inline]
    fn pbarrier_obj<T: PersistWords<Self> + ?Sized>(_obj: &T) {}
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{flush, tid};

    /// Registers the calling test thread as `t` — a tid no sibling test
    /// uses — and returns a reader of that tid's counters alone.
    fn own_tid(t: usize) -> impl Fn() -> stats::Snapshot {
        tid::set_tid(t);
        move || stats::Snapshot::of_tid(t)
    }

    #[test]
    fn counting_mode_counts() {
        let snap = own_tid(45);
        let before = snap();
        let w: PWord<CountingNvm> = PWord::new(0);
        CountingNvm::pwb(&w);
        CountingNvm::pbarrier(&w);
        CountingNvm::psync();
        let d = snap().since(&before);
        assert_eq!(d.pwb, 1);
        assert_eq!(d.pbarrier, 1);
        assert_eq!(d.psync, 1);
    }

    #[test]
    fn no_persist_counts_nothing() {
        let snap = own_tid(46);
        let before = snap();
        let w: PWord<NoPersist> = PWord::new(0);
        NoPersist::pwb(&w);
        NoPersist::pbarrier(&w);
        NoPersist::psync();
        let d = snap().since(&before);
        assert_eq!(d, stats::Snapshot::default());
    }

    /// Under every write-back kind this CPU has (not only the detected one):
    /// `pwb` of `w` executes, leaves the value intact and counts one `pwb`,
    /// and `pfence` executes an `sfence` exactly when the kind is weakly
    /// ordered. The calling thread must be registered as `t`.
    pub(crate) fn every_kind_flushes_and_counts<M: Persist>(w: &PWord<M>, t: usize) {
        flush::tests::for_each_supported_kind(|k| {
            let before = stats::Snapshot::of_tid(t);
            let sfences = flush::SFENCES.get();
            w.store(7 + k as u64);
            M::pwb(w);
            M::pfence();
            M::pwb_coal(w);
            M::psync();
            assert_eq!(w.load(), 7 + k as u64, "{}: flushing must not corrupt", k.name());
            let d = stats::Snapshot::of_tid(t).since(&before);
            assert_eq!((d.pwb, d.pfence, d.psync), (2, 1, 1), "{}", k.name());
            assert_eq!(d.lines_coalesced, 1, "{}: the drain flushes too", k.name());
            let executed = flush::SFENCES.get() - sfences;
            assert_eq!(executed, k.weakly_ordered() as u64, "{}: pfence", k.name());
        });
    }

    #[test]
    fn real_mode_flushes_and_counts() {
        tid::set_tid(47);
        every_kind_flushes_and_counts(&PWord::<RealNvm>::new(7), 47);
    }

    #[test]
    fn coalesced_pwb_counts_at_issue_and_drains_at_fence() {
        let snap = own_tid(48);
        one::<RealNvm>(&snap);
        one::<CountingNvm>(&snap);

        fn one<M: Persist>(snap: &impl Fn() -> stats::Snapshot) {
            // Two words in the same line (ProcRec-style layout).
            #[repr(C, align(64))]
            struct Pair<M: Persist>(PWord<M>, PWord<M>);
            let pair: Pair<M> = Pair(PWord::new(1), PWord::new(2));

            let before = snap();
            M::pwb_coal(&pair.0);
            M::pwb_coal(&pair.1); // same line: elided
            let d = snap().since(&before);
            assert_eq!(d.pwb, 1, "{}: first note counts as a pwb", M::NAME);
            assert_eq!(d.pwb_elided, 1, "{}: duplicate line elided", M::NAME);
            assert_eq!(d.lines_coalesced, 0, "{}: nothing drained yet", M::NAME);

            M::psync();
            let d = snap().since(&before);
            assert_eq!(d.pwb, 1, "{}: drain adds no pwb", M::NAME);
            assert_eq!(d.lines_coalesced, 1, "{}: one line drained", M::NAME);
            assert_eq!(d.psync, 1);
            assert_eq!(pair.0.load(), 1, "flush must not corrupt");
            assert_eq!(pair.1.load(), 2);

            // After the drain the same line counts fresh again, and a pfence
            // also drains (ordering would be lost otherwise).
            let before = snap();
            M::pwb_coal(&pair.0);
            M::pfence();
            let d = snap().since(&before);
            assert_eq!(d.pwb, 1, "{}", M::NAME);
            assert_eq!(d.lines_coalesced, 1, "{}: pfence drains too", M::NAME);
        }
    }

    #[test]
    fn cas_returns_read_value_in_all_modes() {
        fn check<M: Persist>() {
            let w: PWord<M> = PWord::new(1);
            assert_eq!(M::cas(&w, 1, 2), 1);
            assert_eq!(M::cas(&w, 1, 3), 2);
            assert_eq!(M::load(&w), 2);
        }
        check::<RealNvm>();
        check::<CountingNvm>();
        check::<NoPersist>();
    }
}
