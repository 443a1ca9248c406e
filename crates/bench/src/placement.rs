//! A global allocator that starts allocations on their own cache line(s),
//! so a persistency count does not follow where malloc put an object (a
//! 24-byte node can straddle two lines, or share one with a neighbour and
//! dedupe in the coalescing set). Whole, aligned lines are the placement the
//! mapped backend gives every block. [`LineAligned::ALWAYS`] rounds every
//! allocation of the process; [`LineAligned::SCOPED`] only those made while
//! [`line_aligned`] runs, and is `malloc` everywhere else, so a binary can
//! pin a few count points without moving what its timed points see. Both go
//! straight to the C allocator: `free` takes a block whatever layout it was
//! asked with, so one allocated inside the window may be freed outside it.

use std::alloc::{GlobalAlloc, Layout};
use std::ffi::{c_int, c_void};
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};

extern "C" {
    fn malloc(size: usize) -> *mut c_void;
    fn realloc(p: *mut c_void, size: usize) -> *mut c_void;
    fn posix_memalign(out: *mut *mut c_void, align: usize, size: usize) -> c_int;
    fn free(p: *mut c_void);
}

/// `malloc`'s alignment on the 64-bit targets this runs on.
const MIN_ALIGN: usize = 16;

static ALIGNING: AtomicBool = AtomicBool::new(false);

/// Rounds allocations up to whole, aligned cache lines (module docs).
pub struct LineAligned {
    scoped: bool,
}

impl LineAligned {
    /// Every allocation of the process.
    pub const ALWAYS: Self = Self { scoped: false };
    /// Only the allocations made inside [`line_aligned`].
    pub const SCOPED: Self = Self { scoped: true };
}

/// Runs `f` with a [`LineAligned::SCOPED`] allocator rounding every
/// allocation, on any thread. Not re-entrant.
pub fn line_aligned<R>(f: impl FnOnce() -> R) -> R {
    struct Off;
    impl Drop for Off {
        fn drop(&mut self) {
            ALIGNING.store(false, Relaxed);
        }
    }
    assert!(!ALIGNING.swap(true, Relaxed), "line_aligned is not re-entrant");
    let _off = Off;
    f()
}

// SAFETY: every block comes from `malloc` (when it aligns enough, as in
// `System`) or `posix_memalign`, at least as large and as aligned as asked,
// and goes back through `free`.
unsafe impl GlobalAlloc for LineAligned {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        let (mut size, mut align) = (l.size(), l.align());
        if !self.scoped || ALIGNING.load(Relaxed) {
            (size, align) = (size.next_multiple_of(nvm::CACHE_LINE), align.max(nvm::CACHE_LINE));
        }
        if align <= MIN_ALIGN && align <= size {
            return unsafe { malloc(size) as *mut u8 };
        }
        let (mut p, align) = (std::ptr::null_mut(), align.max(std::mem::size_of::<usize>()));
        match unsafe { posix_memalign(&mut p, align, size) } {
            0 => p as *mut u8,
            _ => std::ptr::null_mut(),
        }
    }

    unsafe fn dealloc(&self, p: *mut u8, _: Layout) {
        unsafe { free(p as *mut c_void) }
    }

    unsafe fn realloc(&self, p: *mut u8, l: Layout, size: usize) -> *mut u8 {
        if self.scoped && !ALIGNING.load(Relaxed) && l.align() <= MIN_ALIGN && l.align() <= size {
            return unsafe { realloc(p as *mut c_void, size) as *mut u8 };
        }
        // SAFETY: the caller's contract (`size` valid for `l.align()`, `p`
        // holds `l.size()` bytes).
        let grown = unsafe { self.alloc(Layout::from_size_align_unchecked(size, l.align())) };
        if !grown.is_null() {
            // SAFETY: two live blocks of at least `min(l.size(), size)`
            // bytes; `p` is this allocator's and not used again.
            unsafe { std::ptr::copy_nonoverlapping(p, grown, l.size().min(size)) };
            unsafe { free(p as *mut c_void) };
        }
        grown
    }
}
