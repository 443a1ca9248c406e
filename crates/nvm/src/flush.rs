//! Raw cache-line write-back and fence primitives.
//!
//! The paper's model is explicit epoch persistency: `pwb` only *initiates* a
//! write-back, `pfence` orders write-backs and `psync` waits for them. With
//! the `real-flush` feature (default) on x86_64, [`flush`] issues the best
//! write-back instruction the CPU reports — its [`Kind`], detected once from
//! CPUID: `clwb`, else `clflushopt`, else the paper's `clflush` (table in
//! `DESIGN.md` §2). The first two are ordered only by a fence or a locked
//! instruction, so [`pfence`] is a real `sfence` exactly for them; `clflush`es
//! are ordered among themselves, so there it stays free, and `psync` is
//! [`mfence`] throughout. On other architectures — or with the feature
//! disabled — a calibrated spin delay preserves benchmark *shapes*, which are
//! driven by the relative number of persistency instructions.

use crate::CACHE_LINE;

/// True when the real x86_64 flush/fence instructions are compiled in.
pub const HAS_REAL_FLUSH: bool = cfg!(all(target_arch = "x86_64", feature = "real-flush"));

/// The write-back instruction behind [`flush`] on this machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `clwb`: weakly-ordered write-back that keeps the line cached.
    Clwb = 1,
    /// `clflushopt`: weakly-ordered write-back that evicts the line.
    ClflushOpt = 2,
    /// `clflush`: serialising evict, ordered with other `clflush`es.
    Clflush = 3,
    /// No flush instruction compiled in: a calibrated spin delay.
    SpinDelay = 4,
}

impl Kind {
    /// The instruction's name, as reported in benchmark host lines.
    pub const fn name(self) -> &'static str {
        match self {
            Kind::Clwb => "clwb",
            Kind::ClflushOpt => "clflushopt",
            Kind::Clflush => "clflush",
            Kind::SpinDelay => "spin-delay",
        }
    }

    /// True when write-backs of this kind are ordered only by a fence, i.e.
    /// when [`pfence`] has to execute one.
    pub const fn weakly_ordered(self) -> bool {
        matches!(self, Kind::Clwb | Kind::ClflushOpt)
    }
}

/// The detected kind (0 = not yet detected). `Relaxed`: the value publishes
/// nothing else, and racing detections store the same byte.
#[cfg(all(target_arch = "x86_64", feature = "real-flush"))]
static KIND: std::sync::atomic::AtomicU8 = std::sync::atomic::AtomicU8::new(0);

#[cfg(test)]
thread_local! {
    /// Test hook: the kind this thread's flushes use instead of the detected
    /// one (any kind the CPU supports is correct to execute).
    pub(crate) static FORCED: std::cell::Cell<Option<Kind>> = const { std::cell::Cell::new(None) };
    /// Test hook: `sfence`s this thread executed.
    pub(crate) static SFENCES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// The write-back instruction this machine uses, detected on first call.
#[inline]
pub fn kind() -> Kind {
    #[cfg(test)]
    if let Some(k) = FORCED.get() {
        return k;
    }
    #[cfg(all(target_arch = "x86_64", feature = "real-flush"))]
    match KIND.load(std::sync::atomic::Ordering::Relaxed) {
        1 => Kind::Clwb,
        2 => Kind::ClflushOpt,
        3 => Kind::Clflush,
        _ => detect(),
    }
    #[cfg(not(all(target_arch = "x86_64", feature = "real-flush")))]
    Kind::SpinDelay
}

/// First call of [`kind`]: reads CPUID leaf 7 (sub-leaf 0) EBX — bit 24 is
/// `clwb`, bit 23 `clflushopt` — and caches the verdict.
#[cfg(all(target_arch = "x86_64", feature = "real-flush"))]
#[cold]
fn detect() -> Kind {
    use core::arch::x86_64::{__cpuid, __cpuid_count};
    let ebx = if __cpuid(0).eax >= 7 { __cpuid_count(7, 0).ebx } else { 0 };
    let k = if ebx & (1 << 24) != 0 {
        Kind::Clwb
    } else if ebx & (1 << 23) != 0 {
        Kind::ClflushOpt
    } else {
        Kind::Clflush
    };
    KIND.store(k as u8, std::sync::atomic::Ordering::Relaxed);
    k
}

/// Initiate write-back of the cache line containing `p` with the detected
/// [`Kind`] — the one entry point behind every `pwb` and metadata flush. All
/// three instructions are unprivileged and operate on ordinary DRAM, which is
/// how the paper simulates `pwb` in the absence of NVRAM.
///
/// # Safety
/// `p` must point into a live allocation (the instruction touches the whole
/// cache line containing it).
#[inline]
pub unsafe fn flush(p: *const u8) {
    #[cfg(all(target_arch = "x86_64", feature = "real-flush"))]
    // SAFETY: the caller guarantees a live line, and `kind()` only selects an
    // instruction CPUID reports. The asm blocks are memory clobbers, so the
    // compiler keeps the flushed store before them.
    unsafe {
        use core::arch::asm;
        match kind() {
            Kind::Clwb => asm!("clwb [{}]", in(reg) p, options(nostack, preserves_flags)),
            Kind::ClflushOpt => {
                asm!("clflushopt [{}]", in(reg) p, options(nostack, preserves_flags))
            }
            _ => core::arch::x86_64::_mm_clflush(p),
        }
    }
    #[cfg(not(all(target_arch = "x86_64", feature = "real-flush")))]
    {
        let _ = p;
        spin_delay(FALLBACK_FLUSH_SPINS);
    }
}

/// `pfence`: order preceding [`flush`]es before subsequent ones. An `sfence`
/// when the kind is weakly ordered, free otherwise (`clflush`es are ordered
/// among themselves and with stores under TSO).
#[inline]
pub fn pfence() {
    if kind().weakly_ordered() {
        sfence();
    }
}

/// Full memory fence ordering loads, stores and flushes of every kind
/// (`mfence`).
#[inline]
pub fn mfence() {
    #[cfg(all(target_arch = "x86_64", feature = "real-flush"))]
    // SAFETY: `mfence` is baseline x86_64 (SSE2).
    unsafe {
        core::arch::x86_64::_mm_mfence()
    }
    #[cfg(not(all(target_arch = "x86_64", feature = "real-flush")))]
    {
        std::sync::atomic::fence(std::sync::atomic::Ordering::SeqCst);
        spin_delay(FALLBACK_FENCE_SPINS);
    }
}

/// Store fence (`sfence`): orders stores and flushes of every kind.
#[inline]
pub fn sfence() {
    #[cfg(test)]
    SFENCES.set(SFENCES.get() + 1);
    #[cfg(all(target_arch = "x86_64", feature = "real-flush"))]
    // SAFETY: `sfence` is baseline x86_64 (SSE).
    unsafe {
        core::arch::x86_64::_mm_sfence()
    }
    #[cfg(not(all(target_arch = "x86_64", feature = "real-flush")))]
    std::sync::atomic::fence(std::sync::atomic::Ordering::Release);
}

#[cfg(not(all(target_arch = "x86_64", feature = "real-flush")))]
const FALLBACK_FLUSH_SPINS: u32 = 60;
#[cfg(not(all(target_arch = "x86_64", feature = "real-flush")))]
const FALLBACK_FENCE_SPINS: u32 = 30;

/// Busy-wait used to emulate flush latency on targets without a flush
/// instruction.
#[cfg(not(all(target_arch = "x86_64", feature = "real-flush")))]
#[inline]
fn spin_delay(iters: u32) {
    for _ in 0..iters {
        std::hint::spin_loop();
    }
}

/// Flush every cache line overlapping `[start, start + len)`.
///
/// Returns the number of lines flushed (used by statistics).
///
/// # Safety
/// `[start, start + len)` must lie within a live allocation.
#[inline]
pub unsafe fn flush_range(start: *const u8, len: usize) -> u64 {
    let n = lines_in_range(start, len);
    let first = start as usize & !(CACHE_LINE - 1);
    for i in 0..n as usize {
        // SAFETY: every flushed line overlaps the caller-guaranteed range.
        unsafe { flush((first + i * CACHE_LINE) as *const u8) };
    }
    n
}

/// Number of cache lines overlapping `[start, start+len)` without flushing.
#[inline]
pub fn lines_in_range(start: *const u8, len: usize) -> u64 {
    if len == 0 {
        return 0;
    }
    let first = start as usize & !(CACHE_LINE - 1);
    let last = (start as usize + len - 1) & !(CACHE_LINE - 1);
    ((last - first) / CACHE_LINE) as u64 + 1
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The kinds this CPU can execute, best first (the detected one leads),
    /// from the test's own reading of CPUID.7.0:EBX bits 24 / 23.
    #[cfg(all(target_arch = "x86_64", feature = "real-flush"))]
    fn supported_kinds() -> Vec<Kind> {
        use core::arch::x86_64::{__cpuid, __cpuid_count};
        let ebx = if __cpuid(0).eax >= 7 { __cpuid_count(7, 0).ebx } else { 0 };
        let mut kinds = vec![Kind::Clflush];
        if ebx & (1 << 23) != 0 {
            kinds.insert(0, Kind::ClflushOpt);
        }
        if ebx & (1 << 24) != 0 {
            kinds.insert(0, Kind::Clwb);
        }
        kinds
    }
    #[cfg(not(all(target_arch = "x86_64", feature = "real-flush")))]
    fn supported_kinds() -> Vec<Kind> {
        vec![Kind::SpinDelay]
    }

    /// Runs `f` once per supported kind with that kind forced on this thread.
    pub(crate) fn for_each_supported_kind(mut f: impl FnMut(Kind)) {
        for k in supported_kinds() {
            FORCED.set(Some(k));
            assert_eq!(kind(), k);
            f(k);
            FORCED.set(None);
        }
    }

    #[test]
    fn flush_range_counts_lines() {
        let buf = vec![0u8; 4096];
        unsafe {
            // A single byte is one line.
            assert_eq!(flush_range(buf.as_ptr(), 1), 1);
            // Exactly one aligned line.
            let aligned = ((buf.as_ptr() as usize + 63) & !63) as *const u8;
            assert_eq!(flush_range(aligned, 64), 1);
            assert_eq!(flush_range(aligned, 65), 2);
            // Straddling: 2 bytes crossing a boundary span two lines.
            assert_eq!(flush_range(aligned.add(63), 2), 2);
            assert_eq!(flush_range(buf.as_ptr(), 0), 0);
        }
    }

    #[test]
    fn lines_in_range_matches_flush_count() {
        let buf = vec![0u8; 1024];
        for off in [0usize, 1, 31, 63] {
            for len in [1usize, 2, 64, 65, 128, 200] {
                unsafe {
                    let p = buf.as_ptr().add(off);
                    assert_eq!(lines_in_range(p, len), flush_range(p, len));
                }
            }
        }
    }

    #[test]
    fn fences_do_not_crash() {
        for_each_supported_kind(|k| {
            let x = 42u64 + k as u64;
            unsafe { flush(&x as *const u64 as *const u8) };
            mfence();
            sfence();
            assert_eq!(x, 42 + k as u64, "{}: flush must not corrupt", k.name());
        });
    }

    /// `pfence` executes an `sfence` exactly when the kind is weakly ordered:
    /// on a CPU with neither `clwb` nor `clflushopt` (here: with `clflush`
    /// forced) the instruction stream is `clflush`, free `pfence`, `mfence`.
    #[test]
    fn pfence_is_an_sfence_exactly_for_weakly_ordered_kinds() {
        for_each_supported_kind(|k| {
            let before = SFENCES.get();
            pfence();
            let executed = SFENCES.get() - before;
            assert_eq!(executed, k.weakly_ordered() as u64, "{}", k.name());
        });
        assert!(!Kind::Clflush.weakly_ordered() && !Kind::SpinDelay.weakly_ordered());
    }

    #[cfg(all(target_arch = "x86_64", feature = "real-flush"))]
    #[test]
    fn kind_agrees_with_cpuid_and_cpuinfo() {
        let k = kind();
        assert_eq!(k, supported_kinds()[0], "kind() is the best kind CPUID reports");
        assert_eq!(kind(), k, "cached kind is stable");
        assert_ne!(k, Kind::SpinDelay);
        // The kernel's view, when readable.
        if let Ok(cpuinfo) = std::fs::read_to_string("/proc/cpuinfo") {
            if let Some(flags) = cpuinfo.lines().find(|l| l.starts_with("flags")) {
                let has = |f: &str| flags.split_whitespace().any(|w| w == f);
                let from_flags = if has("clwb") {
                    Kind::Clwb
                } else if has("clflushopt") {
                    Kind::ClflushOpt
                } else {
                    Kind::Clflush
                };
                assert_eq!(k, from_flags, "CPUID and /proc/cpuinfo disagree");
            }
        }
    }

    #[cfg(not(all(target_arch = "x86_64", feature = "real-flush")))]
    #[test]
    fn without_real_flush_the_kind_is_spin_delay() {
        assert_eq!(kind(), Kind::SpinDelay);
        assert_eq!(kind().name(), "spin-delay");
    }
}
