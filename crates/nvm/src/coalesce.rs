//! Per-operation cache-line flush coalescing (the "flush diet").
//!
//! Batched persist phases (the tag loops and cleanup loops of the ISB engine,
//! multi-word object flushes) frequently target words that share a cache
//! line: `next`/`info` fields of the same 24-byte node, the `RD_q`/`CP_q`
//! pair of one process record, two nodes drawn one after the other (the
//! mapped heap hands them out as the two 32-byte halves of one line, so an
//! insert's `newnd` and `newcurr` are one write-back). A real machine
//! write-back works at line granularity, so issuing one flush per *word*
//! is pure overhead. This module provides the per-thread **`LineSet`**: a
//! tiny fixed-capacity dedupe set of pending line addresses that the
//! coalescing [`crate::Persist::pwb_coal`] entry points write into, with the
//! actual flushes issued once per unique line when the phase-ending fence
//! ([`crate::Persist::pfence`]/[`crate::Persist::psync`]/`pbarrier*`) drains
//! the set.
//!
//! Semantics (see `DESIGN.md` §12):
//!
//! * A coalesced `pwb` is **outstanding until the next fence** — exactly the
//!   durability the explicit-epoch model already grants an un-fenced `pwb`,
//!   and exactly how the crash simulator ([`crate::SimNvm`]) models every
//!   `pwb`. Deferring the write-back to the fence therefore leaves the set of
//!   reachable crash images unchanged.
//! * The set is **thread-local and capacity-bounded** ([`LINESET_CAP`]
//!   lines). On overflow the line is flushed through immediately
//!   ([`Note::Full`]) — correctness never depends on capacity, only the
//!   dedupe rate does.
//! * Statistics discipline is *count at issue*: a newly-noted line counts as
//!   one `pwb`, a duplicate counts as one elision
//!   ([`crate::stats::count_pwb_elided`]), and the drain itself adds nothing
//!   to `pwb` (it bumps [`crate::stats::count_lines_coalesced`] with the
//!   number of lines it wrote back). `pwb - pwb_elided`-style arithmetic is
//!   not needed: `pwb` already *is* the number of lines physically written
//!   back.
//!
//! The module only manages addresses; the caller decides what "flush" means
//! (a real [`crate::flush::flush`] for `RealNvm`/`MappedNvm`, nothing for
//! `CountingNvm`).

use crate::CACHE_LINE;
use std::cell::RefCell;

/// Capacity of the per-thread pending-line set. One ISB operation touches
/// well under 16 distinct lines per persist phase (descriptor ≤ 2, a handful
/// of node/record lines), so overflow is a contended-helping corner case,
/// not the common path.
pub const LINESET_CAP: usize = 16;

/// Outcome of noting a line in the pending set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Note {
    /// First time this line is seen since the last drain: count a `pwb`,
    /// defer the flush.
    New,
    /// Line already pending: the flush (and its count) is elided.
    Dup,
    /// Set at capacity: caller must flush through immediately.
    Full,
}

struct LineSet {
    lines: [u64; LINESET_CAP],
    len: usize,
}

impl LineSet {
    const fn new() -> Self {
        Self { lines: [0; LINESET_CAP], len: 0 }
    }
}

thread_local! {
    static PENDING: RefCell<LineSet> = const { RefCell::new(LineSet::new()) };
}

/// Base address of the cache line containing `addr`.
#[inline]
pub fn line_of(addr: *const u8) -> u64 {
    addr as u64 & !(CACHE_LINE as u64 - 1)
}

/// Note the line containing `addr` as pending. Linear scan: the set is tiny
/// and lives in one or two cache lines of its own.
#[inline]
pub fn note(addr: *const u8) -> Note {
    let line = line_of(addr);
    PENDING.with(|p| {
        let mut p = p.borrow_mut();
        if p.lines[..p.len].contains(&line) {
            return Note::Dup;
        }
        if p.len == LINESET_CAP {
            return Note::Full;
        }
        let at = p.len;
        p.lines[at] = line;
        p.len += 1;
        Note::New
    })
}

/// Drain the pending set, invoking `f` with each unique line base address,
/// and return how many lines were drained. Callers follow with (or embed
/// this in) the fence that makes the write-backs durable.
#[inline]
pub fn drain(mut f: impl FnMut(u64)) -> u64 {
    PENDING.with(|p| {
        let mut p = p.borrow_mut();
        let n = p.len;
        for &line in &p.lines[..n] {
            f(line);
        }
        p.len = 0;
        n as u64
    })
}

/// Number of lines currently pending (diagnostics/tests).
pub fn pending() -> usize {
    PENDING.with(|p| p.borrow().len)
}

/// Whether the line containing `addr` is pending on this thread.
pub fn is_pending(addr: *const u8) -> bool {
    let line = line_of(addr);
    PENDING.with(|p| {
        let p = p.borrow();
        p.lines[..p.len].contains(&line)
    })
}

/// Feature-gated "flush-diet lint": detects two *stand-alone* (non-coalesced)
/// `pwb`s to the same cache line with no intervening fence — a wasted flush
/// the coalescing layer exists to remove. The golden counts in
/// `persist_placement.rs` would only show such a regression as an opaque
/// count diff; the lint turns it into a panic naming the duplicated line.
///
/// The lint is armed per-thread by the core layer only for coalescing arms
/// (the paper/TUNED placements legitimately re-flush lines whose sharing is
/// allocator-dependent). With the `flush-lint` feature disabled every entry
/// point is an empty `#[inline]` function.
pub mod lint {
    /// Arm or disarm the lint for the current thread.
    #[cfg(feature = "flush-lint")]
    pub fn set_armed(on: bool) {
        S.with(|s| {
            let mut s = s.borrow_mut();
            s.armed = on;
            s.lines.clear();
        });
    }

    /// Arm or disarm the lint for the current thread (no-op: feature off).
    #[cfg(not(feature = "flush-lint"))]
    #[inline]
    pub fn set_armed(_on: bool) {}

    /// Record a stand-alone flush of the line containing `addr`.
    #[cfg(feature = "flush-lint")]
    pub fn note_pwb(addr: *const u8) {
        let line = super::line_of(addr);
        S.with(|s| {
            let mut s = s.borrow_mut();
            if !s.armed {
                return;
            }
            if s.lines.contains(&line) {
                panic!(
                    "flush-diet lint: stand-alone pwb to line {line:#x} twice \
                     without an intervening fence (coalescing arm should route \
                     this through pwb_coal)"
                );
            }
            s.lines.push(line);
        });
    }

    /// Record a stand-alone flush (no-op: feature off).
    #[cfg(not(feature = "flush-lint"))]
    #[inline]
    pub fn note_pwb(_addr: *const u8) {}

    /// A fence ran: all earlier flushes are complete, clear the window.
    #[cfg(feature = "flush-lint")]
    pub fn fence() {
        S.with(|s| s.borrow_mut().lines.clear());
    }

    /// A fence ran (no-op: feature off).
    #[cfg(not(feature = "flush-lint"))]
    #[inline]
    pub fn fence() {}

    #[cfg(feature = "flush-lint")]
    struct LintState {
        armed: bool,
        lines: Vec<u64>,
    }

    #[cfg(feature = "flush-lint")]
    thread_local! {
        static S: std::cell::RefCell<LintState> =
            std::cell::RefCell::new(LintState { armed: false, lines: Vec::new() });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedupes_within_a_line_and_drains_once() {
        // Start from a clean set (other unit tests share the thread).
        drain(|_| {});
        let buf = [0u8; 256];
        let base = line_of(&buf[64] as *const u8) as *const u8; // line-aligned, inside buf
        assert_eq!(note(base), Note::New);
        // Same line, different word.
        assert_eq!(note(unsafe { base.add(8) }), Note::Dup);
        // Next line.
        assert_eq!(note(unsafe { base.add(CACHE_LINE) }), Note::New);
        assert_eq!(pending(), 2);
        assert!(is_pending(unsafe { base.add(63) }) && !is_pending(unsafe { base.add(128) }));
        let mut seen = Vec::new();
        assert_eq!(drain(|l| seen.push(l)), 2);
        assert_eq!(seen.len(), 2);
        assert_eq!(seen[0], line_of(base));
        assert_eq!(pending(), 0);
        // After a drain the same line is New again.
        assert_eq!(note(base), Note::New);
        drain(|_| {});
    }

    #[test]
    fn overflow_reports_full() {
        drain(|_| {});
        let buf = vec![0u8; CACHE_LINE * (LINESET_CAP + 2)];
        let base = line_of(&buf[CACHE_LINE] as *const u8) as *const u8;
        for i in 0..LINESET_CAP {
            assert_eq!(note(unsafe { base.add(i * CACHE_LINE) }), Note::New);
        }
        assert_eq!(note(unsafe { base.add(LINESET_CAP * CACHE_LINE) }), Note::Full);
        // A pending line still dedupes at capacity.
        assert_eq!(note(base), Note::Dup);
        assert_eq!(drain(|_| {}), LINESET_CAP as u64);
    }
}
