//! [`MappedNvm`] + [`MappedHeap`]: a file-backed persistent heap with true
//! cross-process restart recovery.
//!
//! The other persistency models ([`crate::RealNvm`], [`crate::CountingNvm`],
//! [`crate::SimNvm`]) live entirely inside one process: a "crash" is a panic
//! in the same address space, and all persistent words sit on the ordinary
//! Rust heap. This module adds the third backend the evaluation stack needs:
//! a **`mmap`-backed arena** whose contents survive the death of the process
//! (`SIGKILL`, `abort`, power-independent kill), so detectable recovery can be
//! exercised across an *actual* process restart — the deployment model of
//! real persistent-memory pools (cf. memento's file-backed pool in PAPERS.md).
//!
//! ## Pieces
//!
//! * [`MappedNvm`] — a [`crate::Persist`] implementation sharing its definition
//!   with [`crate::RealNvm`] (counted `pwb` = the machine's write-back
//!   instruction, see [`crate::flush::Kind`]; `psync` = `mfence`).
//!   Under kill-style crashes every completed *store* is durable (the page
//!   cache survives the process), so flushes matter for the persist-count
//!   experiments and for real-NVM deployments, not for `SIGKILL` testing.
//! * [`MappedHeap`] — the arena itself: a superblock (magic / version /
//!   base / sizes / attach epoch / **segment directory**), per-segment
//!   **commit bitmaps**, a sharded size-class allocator over a lock-free
//!   bump cursor handing out 64-byte-granular blocks, and a small **root
//!   directory** mapping well-known keys to stable payload offsets
//!   (recovery areas and structure heads live there).
//! * [`AttachReport`] — what [`MappedHeap::attach`] found: whether the heap
//!   was created fresh, whether it had to be **relocated** to a new base
//!   address, how many segments it spans, and how many torn tail
//!   allocations were poisoned.
//!
//! ## Multi-process sharing
//!
//! The superblock carries a durable **participant registry**: fixed slots of
//! `(pid, birth stamp, recovery lease, attach mode)`, claimed via CAS with
//! the same fields-first/valid-last crash ordering as the segment directory.
//! The birth stamp (`/proc` start time) defeats pid reuse. Exclusive
//! attaches fail typed ([`MapError::AlreadyAttached`]) when any registered
//! participant is still alive; [`MappedHeap::open_shared`] instead *joins*
//! a live heap — refusing live exclusive attachers
//! ([`MapError::ExclusivePeer`]), mapping the **whole reservation
//! file-backed** strictly at the recorded base (so a peer's later growth is
//! readable without a remap — growth extends the file before publishing the
//! segment), claiming a slot, and running none of the crash-healing passes.
//! In shared mode the bump path serializes under a liveness-arbitrated lock
//! word (stolen, with pad healing of the un-published reservation gap, from
//! SIGKILLed holders) and the per-class free stacks are cross-process (their
//! heads are superblock words). Survivors detect dead peers through
//! [`crate::PidLiveness`] and recover them **online** under a CAS-claimed,
//! sequence-stamped recovery lease ([`MappedHeap::lease_try_claim`]) that
//! probes the slot's liveness and re-verifies its `(pid, birth)` identity
//! after the claim CAS — a live peer's slot is never claimable, and a
//! recoverer that itself dies is detected and superseded. Slots torn
//! mid-claim are reclaimed under the attach flock
//! ([`MappedHeap::reclaim_torn_claim`]), never leased. See DESIGN.md §14 for
//! the full argument.
//!
//! ## Growable multi-segment arena (format v3)
//!
//! A fresh heap reserves a large contiguous virtual-address window (`PROT_NONE`
//! anonymous mapping, recorded in the superblock) and maps **segment 0** — the
//! superblock page, its bitmap, and its data region — over the front of it.
//! When allocation exhausts the mapped space the heap *grows*: the file is
//! extended, the new byte range is mapped (`MAP_FIXED`) directly after the
//! previous segments inside the reservation (file offset == VA offset, so the
//! arena stays contiguous), and the new segment is published in the
//! superblock's **segment directory**. Each extra segment is self-describing
//! from its byte length alone: `[commit bitmap][data]`, no superblock page.
//!
//! Growth publication is crash-ordered like every other heap mutation:
//!
//! 1. `ftruncate` extends the file (zero-filled = a valid, empty segment);
//! 2. the directory entry (the segment's byte length) is stamped and flushed;
//! 3. the **segment count is bumped last** and flushed — the count is the
//!    valid flag, mirroring the header-before-bump discipline below.
//!
//! A crash between (1)/(2) and (3) leaves a file longer than the directory
//! total — benign: attach maps exactly the published total and ignores the
//! tail (the next growth re-truncates and re-stamps). A file *shorter* than
//! the published total is typed corruption ([`MapError::Truncated`]).
//!
//! ## Sharded allocation
//!
//! Blocks of 1..=[`MAX_CLASS`] payload granules (the node/descriptor sizes on
//! every hot path) are served from per-thread (tid-indexed, cache-padded)
//! free lists, refilled [`SLAB_BLOCKS`] at a time from the bump cursor and
//! spilled to per-class **lock-free global stacks** (version-counted Treiber
//! stacks whose next-links live in the spare words of the free blocks'
//! header granules — volatile state in persistent space, rebuilt on every
//! attach). Larger blocks (recovery areas, roots, catalogs — cold paths) go
//! through a small non-poisoning mutex. The bump cursor itself is lock-free:
//! a volatile reservation cursor is advanced by CAS, and the persistent bump
//! word is published in reservation order so the header-before-bump invariant
//! below is preserved without a lock.
//!
//! ## Crash consistency
//!
//! Allocation state is reconstructible from the block headers plus the
//! commit bitmaps alone; the volatile free lists are rebuilt on every attach:
//!
//! 1. `alloc` writes the block header (`ALLOCATED`, size) **before**
//!    publishing the new bump offset, so every granule below `bump` always
//!    carries a valid header. (With the lock-free cursor this holds
//!    transitively: a reservation publishes the bump word only after all
//!    earlier reservations published theirs, and only after its own headers
//!    — including segment-tail `PAD` fillers — are written.)
//! 2. The caller initializes the payload, then `commit` sets the block's
//!    bitmap bit **before** flipping the header to `COMMITTED`.
//! 3. `free` flips the header to `FREE` **before** clearing the bitmap bit.
//!
//! The attach walk therefore classifies every torn state deterministically:
//! an `ALLOCATED` block is a torn tail allocation (poisoned with [`POISON`]
//! and freed), a `FREE` block with a set bit lost the bit-clear of step 3
//! (healed), and any other header/bitmap disagreement is *corruption* and
//! fails with a typed [`MapError`] — never undefined behaviour. Blocks never
//! straddle a segment boundary (the reservation path pads the tail with a
//! header-only `PAD` block), which is what makes the walk — and the sweep —
//! **embarrassingly parallel over segments** (see [`set_attach_threads`]).
//!
//! ## Addressing
//!
//! Structures store **absolute pointers** in their persistent words (the
//! same representation the in-process models use, so the entire engine is
//! shared). The heap therefore asks the kernel for a fixed base address
//! (`MAP_FIXED_NOREPLACE` at the base recorded in the superblock) on attach.
//! When that address is taken, attach falls back to an **offset-relocation
//! pass**: every word of every committed payload whose (tag-stripped) value
//! lands inside the old mapping is rebased to the new one. This is sound
//! because every persistent pointer in the ISB structures points into the
//! arena, and *user payloads must not alias the arena's address range*
//! (a 48-bit window; offset-based pointers à la memento would avoid the
//! caveat at the cost of an indirection on every dereference — see
//! DESIGN.md §10 for the trade-off discussion).

use crate::flush;
use crate::pad::CachePadded;
use crate::stats;
use crate::tid;
use crate::MAX_PROCS;
use std::cell::UnsafeCell;
use std::collections::{HashMap, HashSet};
use std::fs::OpenOptions;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering::{AcqRel, Acquire, Relaxed, Release, SeqCst};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

// ---------------------------------------------------------------------------
// Raw mmap/munmap (no libc in this workspace; the build environment has no
// registry access). Linux x86_64 + aarch64; other targets report Unsupported.
// ---------------------------------------------------------------------------

const PROT_NONE: usize = 0;
const PROT_READ: usize = 1;
const PROT_WRITE: usize = 2;
const MAP_SHARED: usize = 0x01;
const MAP_PRIVATE: usize = 0x02;
const MAP_FIXED: usize = 0x10;
const MAP_ANONYMOUS: usize = 0x20;
const MAP_NORESERVE: usize = 0x4000;
const MAP_FIXED_NOREPLACE: usize = 0x10_0000;

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
unsafe fn sys_mmap(
    addr: usize,
    len: usize,
    prot: usize,
    flags: usize,
    fd: i32,
    off: usize,
) -> isize {
    let ret: isize;
    unsafe {
        core::arch::asm!(
            "syscall",
            inlateout("rax") 9isize => ret, // __NR_mmap (takes a byte offset)
            in("rdi") addr,
            in("rsi") len,
            in("rdx") prot,
            in("r10") flags,
            in("r8") fd as isize,
            in("r9") off,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack)
        );
    }
    ret
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
unsafe fn sys_munmap(addr: usize, len: usize) -> isize {
    let ret: isize;
    unsafe {
        core::arch::asm!(
            "syscall",
            inlateout("rax") 11isize => ret, // __NR_munmap
            in("rdi") addr,
            in("rsi") len,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack)
        );
    }
    ret
}

#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
unsafe fn sys_mmap(
    addr: usize,
    len: usize,
    prot: usize,
    flags: usize,
    fd: i32,
    off: usize,
) -> isize {
    let ret: isize;
    unsafe {
        core::arch::asm!(
            "svc 0",
            in("x8") 222usize, // __NR_mmap (takes a byte offset)
            inlateout("x0") addr => ret,
            in("x1") len,
            in("x2") prot,
            in("x3") flags,
            in("x4") fd as isize,
            in("x5") off,
            options(nostack)
        );
    }
    ret
}

#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
unsafe fn sys_munmap(addr: usize, len: usize) -> isize {
    let ret: isize;
    unsafe {
        core::arch::asm!(
            "svc 0",
            in("x8") 215usize, // __NR_munmap
            inlateout("x0") addr => ret,
            in("x1") len,
            options(nostack)
        );
    }
    ret
}

#[cfg(not(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"))))]
unsafe fn sys_mmap(
    _addr: usize,
    _len: usize,
    _prot: usize,
    _flags: usize,
    _fd: i32,
    _off: usize,
) -> isize {
    -38 // ENOSYS
}

#[cfg(not(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"))))]
unsafe fn sys_munmap(_addr: usize, _len: usize) -> isize {
    -38 // ENOSYS
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
unsafe fn sys_flock(fd: i32, op: usize) -> isize {
    let ret: isize;
    unsafe {
        core::arch::asm!(
            "syscall",
            inlateout("rax") 73isize => ret, // __NR_flock
            in("rdi") fd as isize,
            in("rsi") op,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack)
        );
    }
    ret
}

#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
unsafe fn sys_flock(fd: i32, op: usize) -> isize {
    let ret: isize;
    unsafe {
        core::arch::asm!(
            "svc 0",
            in("x8") 32usize, // __NR_flock
            inlateout("x0") fd as isize => ret,
            in("x1") op,
            options(nostack)
        );
    }
    ret
}

#[cfg(not(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"))))]
unsafe fn sys_flock(_fd: i32, _op: usize) -> isize {
    -38 // ENOSYS
}

const LOCK_EX: usize = 2;
const LOCK_UN: usize = 8;

/// Takes the advisory exclusive lock on `file` (blocking; retried on EINTR).
/// Attach-time only — the lock serializes attach/join/create decisions
/// across processes, never the operation hot path. Auto-released by the
/// kernel if the holder dies.
fn flock_ex(file: &std::fs::File) -> Result<(), MapError> {
    let fd = std::os::fd::AsRawFd::as_raw_fd(file);
    loop {
        let r = unsafe { sys_flock(fd, LOCK_EX) };
        if !is_sys_err(r) {
            return Ok(());
        }
        if r != -4 {
            // anything but EINTR
            return Err(sys_to_err(r));
        }
    }
}

fn flock_un(file: &std::fs::File) {
    let fd = std::os::fd::AsRawFd::as_raw_fd(file);
    unsafe { sys_flock(fd, LOCK_UN) };
}

/// `true` iff the raw-syscall return value is an error (`-errno`).
fn is_sys_err(r: isize) -> bool {
    (-4095..0).contains(&r)
}

fn sys_to_err(r: isize) -> MapError {
    if r == -38 {
        MapError::Unsupported
    } else {
        MapError::MapFailed(-r as i32)
    }
}

// ---------------------------------------------------------------------------
// Layout constants
// ---------------------------------------------------------------------------

/// Allocation granule (one cache line): blocks are sized and aligned to it,
/// and the commit bitmaps track one bit per granule.
pub const GRANULE: usize = 64;
const PAGE: usize = 4096;
/// Superblock magic ("ISBMAP01").
pub const MAGIC: u64 = 0x4953_424D_4150_3031;
/// On-disk format version. v2: the root directory's per-structure keys
/// (`HEADS`/`ANCHOR`) were replaced by the generic `STRUCT` key and the
/// named-structure catalog was added. v3: the growable multi-segment arena —
/// segment directory (`W_SEG_COUNT`, per-segment byte lengths) and the VA
/// reservation size joined the superblock, and the `PAD` block state was
/// added for segment-tail filler. Pre-v3 heaps must fail typed
/// (`BadVersion`) rather than silently attach with an empty directory.
pub const VERSION: u64 = 3;
/// Base address requested for fresh heaps: high in the 47-bit user window,
/// far from the default heap/mmap/stack regions of both parent and child
/// processes, so cross-process re-attach almost always lands at the same
/// address and the relocation pass stays a fallback.
pub const PREFERRED_BASE: usize = 0x6000_0000_0000;
/// Pattern written over the payload of torn (allocated-but-never-committed)
/// tail blocks before they are returned to the free list.
pub const POISON: u64 = 0xDEAD_BEEF_DEAD_BEEF;

const HDR_MAGIC: u64 = 0xB10C;
const ST_ALLOCATED: u64 = 1;
const ST_COMMITTED: u64 = 2;
const ST_FREE: u64 = 3;
/// Segment-tail filler written by the reservation path so blocks never
/// straddle a segment boundary. Header-only: the payload-granule count may
/// be zero, the commit bit is never set, and pads never enter a free list.
const ST_PAD: u64 = 4;

// Superblock word indices (u64 words from the start of the mapping).
const W_MAGIC: usize = 0;
const W_VERSION: usize = 1;
const W_BASE: usize = 2;
const W_SIZE: usize = 3; // bytes of segment 0 (the full file for a 1-segment heap)
const W_EPOCH: usize = 4;
const W_BUMP: usize = 5; // global granule-space bump (all segments)
const W_DATA_OFF: usize = 6;
const W_BM_OFF: usize = 7;
const W_GRANULES: usize = 8; // granules of segment 0
const W_KIND: usize = 9;
const W_SEG_COUNT: usize = 10; // number of *extra* segments (the valid flag)
const W_RESERVE: usize = 11; // VA reservation bytes (growth ceiling)
/// Shared-mode bump-path lock: holder participant slot + 1, 0 when free.
/// Volatile-in-persistent-space; stolen (with gap healing) from dead holders.
const W_ALLOC_LOCK: usize = 12;
/// Volatile reservation cursor over the global granule space; the persistent
/// `W_BUMP` trails it. Lives in the superblock so concurrent attachers of a
/// shared heap see one cursor; reset from `W_BUMP` on every full attach.
const W_BUMP_RESV: usize = 13;
/// Recovery-area geometry recorded by the first attach that placed a
/// recovery area on this heap: slot count and per-slot stride in bytes
/// (0 = not recorded yet). Peers built with different geometry must fail
/// typed ([`MapError::LayoutMismatch`]) instead of silently aliasing slots.
const W_REC_SLOTS: usize = 14;
const W_REC_STRIDE: usize = 15;
/// Number of root-directory slots.
pub const ROOT_SLOTS: usize = 16;
const W_ROOT0: usize = 16; // ROOT_SLOTS (key, payload-offset) pairs
/// Maximum number of *extra* segments a heap can grow (directory capacity).
pub const MAX_SEGMENTS: usize = 32;
const W_SEG0: usize = W_ROOT0 + 2 * ROOT_SLOTS; // MAX_SEGMENTS byte-length words
/// Per-class global free-stack heads (volatile-in-persistent-space, shared
/// by every attached process; reset + restocked by each full attach walk).
const W_GLOBAL0: usize = W_SEG0 + MAX_SEGMENTS;

// -- participant registry ----------------------------------------------------

/// Participant slots in the registry: the maximum number of processes that
/// can share one heap concurrently. Each slot owns a disjoint band of
/// [`PART_TIDS`] tids, keeping recovery-area slots, stats slots, reclamation
/// announce words and allocator thread caches per-process disjoint.
pub const PART_SLOTS: usize = 8;
/// Tids per participant band (`MAX_PROCS / PART_SLOTS`).
pub const PART_TIDS: usize = MAX_PROCS / PART_SLOTS;
/// One registry slot is one cache line of superblock words.
const PART_WORDS: usize = 8;
const W_PART0: usize = 96; // PART_SLOTS × PART_WORDS words (96..160)
/// Registry slot word indices.
const PW_PID: usize = 0; // claim/valid word: 0 free, CLAIMING mid-claim, else pid
const PW_BIRTH: usize = 1; // /proc starttime of the claimant
const PW_LEASE: usize = 2; // recovery lease: (seq << 8) | (recoverer slot + 1)
const PW_MODE: usize = 3; // attach mode of the claimant (MODE_*)
/// `PW_MODE` values. Stamped (with the birth) before the pid — the valid
/// flag — under the attach flock, so a live slot always carries the mode its
/// owner attached with. Joiners refuse heaps with a live **exclusive**
/// attacher: its collectors run private epochs and its bump path ignores
/// `W_ALLOC_LOCK`, so sharing the arena behind its back would be unsound.
const MODE_EXCLUSIVE: u64 = 1;
const MODE_SHARED: u64 = 2;
/// Mid-claim sentinel for `PW_PID`: reserves the slot before the birth stamp
/// is written (fields first, pid — the valid flag — last). Never a real pid,
/// so a crash mid-claim leaves a trivially-dead, reclaimable slot.
const CLAIMING: u64 = u64::MAX;

/// Smallest heap [`MappedHeap::create`] accepts.
pub const MIN_HEAP_BYTES: usize = 64 * 1024;
/// Default heap size used by the structures' `attach` constructors (the
/// *initial* segment; the arena grows on demand up to its VA reservation).
pub const DEFAULT_HEAP_BYTES: usize = 64 * 1024 * 1024;

/// Largest size class (payload granules) served by the sharded free lists;
/// larger blocks take the cold mutex path.
pub const MAX_CLASS: usize = 8;
/// Blocks carved from the bump region per sharded free-list refill.
pub const SLAB_BLOCKS: usize = 8;
/// Per-thread free-list capacity per class; overflow spills to the global
/// lock-free stack.
const CACHE_CAP: usize = 64;

#[inline]
fn encode_hdr(state: u64, payload_granules: u64) -> u64 {
    (HDR_MAGIC << 48) | (state << 40) | payload_granules
}

#[inline]
fn decode_hdr(h: u64) -> Option<(u64, u64)> {
    if h >> 48 != HDR_MAGIC {
        return None;
    }
    Some(((h >> 40) & 0xFF, h & 0xFFFF_FFFF))
}

/// Geometry of an extra (non-0) segment of `bytes`: `[bitmap][data]`, both
/// granule-aligned, derived deterministically from the byte length alone.
/// Returns `(bitmap_bytes, data_granules)`.
fn seg_geometry(bytes: usize) -> (usize, usize) {
    let bm_bytes = (bytes / GRANULE).div_ceil(8).next_multiple_of(GRANULE);
    (bm_bytes, bytes.saturating_sub(bm_bytes) / GRANULE)
}

/// Non-poisoning lock. The allocator/growth mutexes guard coordination state
/// that is consistent between operations; if a holder panics (e.g. an
/// assertion in unrelated caller code while an alloc is on the stack), later
/// operations must see the state, not a cascading `PoisonError` panic.
fn lock_np<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

// ---------------------------------------------------------------------------
// Attach parallelism knob
// ---------------------------------------------------------------------------

static ATTACH_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Sets the number of worker threads used by the parallel attach phases
/// (segment walk, relocation, sweep — and the structure-level validate and
/// census drivers in `isb::recovery`). `0` restores the default
/// (`ISB_ATTACH_THREADS` env var, else `available_parallelism`).
pub fn set_attach_threads(n: usize) {
    ATTACH_THREADS.store(n, Relaxed);
}

/// Current attach worker-thread count (≥ 1). See [`set_attach_threads`].
pub fn attach_threads() -> usize {
    let n = ATTACH_THREADS.load(Relaxed);
    if n != 0 {
        return n;
    }
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::env::var("ISB_ATTACH_THREADS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    })
}

// ---------------------------------------------------------------------------
// Errors and reports
// ---------------------------------------------------------------------------

/// Typed attach/allocation failures. Every corrupt-image shape the attach
/// walk can encounter maps to one of these — attaching a damaged heap must
/// fail cleanly, never exhibit undefined behaviour.
#[derive(Debug)]
pub enum MapError {
    /// Filesystem error (open/create/metadata/resize).
    Io(std::io::Error),
    /// The platform has no mmap implementation in this build.
    Unsupported,
    /// `mmap` itself failed (`-errno`).
    MapFailed(i32),
    /// The file is shorter than its superblock + segment directory claim
    /// (or than a superblock). A file *longer* than the directory total is
    /// benign — a crash inside a growth extended the file before the new
    /// segment's directory entry was published.
    Truncated {
        /// Bytes the superblock (or format) requires.
        expected: u64,
        /// Bytes actually present.
        found: u64,
    },
    /// The superblock magic does not match [`MAGIC`].
    BadMagic(u64),
    /// The superblock version is not [`VERSION`].
    BadVersion(u64),
    /// Superblock geometry is inconsistent (unaligned/out-of-window base,
    /// impossible offsets, bump beyond the data region, an impossible
    /// segment-directory entry, …).
    BadSuperblock(&'static str),
    /// A block header below the bump offset is not a valid header.
    CorruptHeader {
        /// Granule index of the bad header.
        granule: usize,
    },
    /// The commit bitmap disagrees with the block headers in a way no crash
    /// ordering can produce (a set bit with no committed block under it, or
    /// a committed block whose bit is clear).
    CorruptBitmap {
        /// Granule index of the disagreement.
        granule: usize,
    },
    /// The heap hosts a different structure kind (or configuration) than the
    /// caller asked to attach.
    WrongKind {
        /// Kind/config expected by the caller.
        expected: u64,
        /// Kind/config recorded in the heap.
        found: u64,
    },
    /// A persistent pointer read from the image points outside the mapping
    /// (or the object graph does not terminate) — e.g. a superblock whose
    /// recorded base was rewritten to a different address, so the structure's
    /// absolute pointers no longer land inside the arena. Caught by the
    /// structures' pre-recovery validation walk before any dereference.
    CorruptPointer {
        /// The offending pointer value.
        addr: u64,
    },
    /// A catalog entry is inconsistent: unknown structure kind, impossible
    /// root offset, or a malformed name. No crash ordering produces this —
    /// entry creation stamps the kind word last, so a torn creation leaves
    /// the slot invisible, not damaged.
    CorruptCatalog {
        /// Catalog slot index of the bad entry.
        slot: usize,
    },
    /// The catalog has no free slot for another named structure.
    CatalogFull,
    /// The arena is out of space (VA reservation or segment directory full).
    Exhausted,
    /// The heap's participant registry holds a slot owned by a **live**
    /// process: an exclusive attach (or create over a live heap) would share
    /// the arena behind that process's back. Use the shared-attach API to
    /// join a live heap instead.
    AlreadyAttached {
        /// Pid recorded in the live registry slot.
        pid: u64,
    },
    /// Every participant slot of the registry is claimed (by live peers, or
    /// by dead ones whose online recovery has not reclaimed them yet).
    RegistryFull,
    /// A shared join found a live participant that attached in **exclusive**
    /// mode: it runs private epochs and an unlocked bump path, so joining
    /// would free memory it still reads. Wait for it to detach, or open the
    /// heap exclusively.
    ExclusivePeer {
        /// Pid of the live exclusive attacher.
        pid: u64,
    },
    /// A shared join could not map the heap at its recorded base address
    /// (taken in this process) — relocation is impossible while peers are
    /// live, because absolute pointers are shared.
    BaseTaken {
        /// The base address the live peers are using.
        base: u64,
    },
    /// A durable layout field recorded in the superblock disagrees with the
    /// geometry this build was compiled with (e.g. recovery-area slot count
    /// or stride). Mismatched builds must not silently alias shared state.
    LayoutMismatch {
        /// Which field disagreed.
        what: &'static str,
        /// Value this build expects.
        expected: u64,
        /// Value recorded in the heap.
        found: u64,
    },
}

impl std::fmt::Display for MapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MapError::Io(e) => write!(f, "persistent heap I/O error: {e}"),
            MapError::Unsupported => write!(f, "mapped heaps are unsupported on this platform"),
            MapError::MapFailed(e) => write!(f, "mmap failed (errno {e})"),
            MapError::Truncated { expected, found } => {
                write!(f, "heap file truncated: expected {expected} bytes, found {found}")
            }
            MapError::BadMagic(m) => write!(f, "bad superblock magic {m:#x}"),
            MapError::BadVersion(v) => write!(f, "unsupported heap version {v}"),
            MapError::BadSuperblock(why) => write!(f, "corrupt superblock: {why}"),
            MapError::CorruptHeader { granule } => {
                write!(f, "corrupt block header at granule {granule}")
            }
            MapError::CorruptBitmap { granule } => {
                write!(f, "commit bitmap disagrees with headers at granule {granule}")
            }
            MapError::WrongKind { expected, found } => {
                write!(f, "heap hosts kind/config {found}, expected {expected}")
            }
            MapError::CorruptPointer { addr } => {
                write!(f, "persistent pointer {addr:#x} points outside the mapped arena")
            }
            MapError::CorruptCatalog { slot } => {
                write!(f, "corrupt catalog entry in slot {slot}")
            }
            MapError::CatalogFull => {
                write!(f, "catalog full ({CATALOG_SLOTS} named structures per heap)")
            }
            MapError::Exhausted => write!(f, "persistent heap exhausted"),
            MapError::AlreadyAttached { pid } => {
                write!(f, "heap is attached by live process {pid} (join it with the shared API)")
            }
            MapError::RegistryFull => {
                write!(f, "participant registry full ({PART_SLOTS} processes per shared heap)")
            }
            MapError::ExclusivePeer { pid } => {
                write!(f, "cannot join: live process {pid} attached this heap exclusively")
            }
            MapError::BaseTaken { base } => {
                write!(f, "cannot join shared heap: its base address {base:#x} is taken here")
            }
            MapError::LayoutMismatch { what, expected, found } => {
                write!(f, "heap layout mismatch: {what} is {found}, this build expects {expected}")
            }
        }
    }
}

impl std::error::Error for MapError {}

impl From<std::io::Error> for MapError {
    fn from(e: std::io::Error) -> Self {
        MapError::Io(e)
    }
}

/// What an attach found and did (see module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct AttachReport {
    /// The heap file did not exist (or was empty) and was created fresh.
    pub created: bool,
    /// The recorded base address was unavailable; every in-arena pointer was
    /// rebased by the offset-relocation pass.
    pub relocated: bool,
    /// Attach epoch after this attach (1 for a fresh heap).
    pub attach_epoch: u64,
    /// This attach *joined* a live shared heap: peers were already attached,
    /// so no walk/heal/relocation ran (the heap state is live, not a crash
    /// image).
    pub joined: bool,
    /// Torn tail allocations (allocated, never committed) that were poisoned
    /// and returned to the free list.
    pub poisoned: usize,
    /// `FREE` blocks whose commit bit was still set (crash between the two
    /// halves of a free) — healed by clearing the bit.
    pub healed_bits: usize,
    /// Committed (live) blocks found by the walk.
    pub committed: usize,
    /// Free blocks found by the walk.
    pub free_blocks: usize,
    /// Segments mapped (1 = the heap never grew past its initial segment).
    pub segments: usize,
}

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

// ---------------------------------------------------------------------------
// The heap
// ---------------------------------------------------------------------------

/// Volatile descriptor of one mapped segment. Slots are append-only: fields
/// are written, then the segment count is `Release`-published, so readers
/// that `Acquire`-load the count see fully initialized slots.
#[derive(Default)]
struct SegSlot {
    /// First global granule index served by this segment.
    g_start: AtomicUsize,
    /// Data granules in this segment.
    granules: AtomicUsize,
    /// VA offset (from `base`) of this segment's commit bitmap.
    bm_off: AtomicUsize,
    /// VA offset (from `base`) of this segment's data region.
    data_off: AtomicUsize,
}

/// Per-thread size-class free lists (header granule indices). Indexed by the
/// registered tid and only ever touched by that thread, which is what makes
/// the `UnsafeCell` sound (same discipline as `isb::pool`).
type ThreadCache = [Vec<u32>; MAX_CLASS];

/// Per-segment result of the (parallel) attach walk.
#[derive(Default)]
struct SegWalk {
    committed: Vec<(usize, usize)>,
    free: HashMap<u32, Vec<u32>>,
    poisoned: usize,
    healed: usize,
    free_blocks: usize,
}

/// A won bump reservation: granules `[from, end)` belong to the caller;
/// usable blocks start at `start` (pads, if any, were written to
/// `[from, start)`). The caller must write headers for every granule in
/// `[start, end)` and then call `publish_bump(from, end)`.
struct Resv {
    from: usize,
    start: usize,
    end: usize,
}

/// Holds the shared-mode bump lock (`W_ALLOC_LOCK`); released on drop. See
/// [`MappedHeap::lock_shared_bump`].
struct BumpLockGuard<'a> {
    heap: &'a MappedHeap,
}

impl Drop for BumpLockGuard<'_> {
    fn drop(&mut self) {
        self.heap.word(W_ALLOC_LOCK).store(0, Release);
    }
}

/// A file-backed persistent heap (see module docs).
///
/// One `MappedHeap` hosts one or more data structures (plus their recovery
/// areas); the structures' `attach` constructors enforce the kind via the
/// superblock. Exclusive attaches ([`MappedHeap::open`] /
/// [`MappedHeap::attach`]) admit **one process at a time**, enforced by the
/// durable participant registry ([`MapError::AlreadyAttached`]); shared
/// attaches ([`MappedHeap::open_shared`]) let up to [`PART_SLOTS`] processes
/// mutate the arena concurrently and recover a SIGKILLed peer online. All
/// allocation routes through [`MappedHeap::alloc`] / [`MappedHeap::commit`] /
/// [`MappedHeap::free`]; the object pools in `isb::pool` layer their
/// per-thread caches on top.
pub struct MappedHeap {
    base: *mut u8,
    /// VA reservation length — the munmap span and the growth ceiling.
    reserve: usize,
    /// Total mapped file bytes (all segments); grows.
    size: AtomicUsize,
    /// Published segment slots (including segment 0).
    n_segs: AtomicUsize,
    segs: [SegSlot; MAX_SEGMENTS + 1],
    /// Total data granules across published segments.
    total_granules: AtomicUsize,
    /// Segment 0 data offset (superblock validation/catalog bounds).
    data_off: usize,
    path: PathBuf,
    file: std::fs::File,
    /// Serializes growth and segment refresh (cold paths).
    grow_lock: Mutex<()>,
    /// Free lists for blocks above `MAX_CLASS` payload granules.
    cold: Mutex<HashMap<u32, Vec<u32>>>,
    caches: Vec<CachePadded<UnsafeCell<ThreadCache>>>,
    /// Shared (multi-process) mode: the bump path serializes under
    /// `W_ALLOC_LOCK` and segment publications by peers are re-mapped on
    /// demand. Exclusive mode keeps the lock-free single-process paths.
    shared: bool,
    /// This process's participant-registry slot (`usize::MAX` = none).
    my_slot: AtomicUsize,
    /// Liveness verdict source (injectable by tests).
    liveness: Arc<dyn crate::liveness::PidLiveness>,
    /// Whether `file` still holds the attach flock (shared initial attacher
    /// keeps it through structure-level replay; see `release_attach_lock`).
    attach_flock: AtomicBool,
    report: AttachReport,
}

unsafe impl Send for MappedHeap {}
unsafe impl Sync for MappedHeap {}

impl std::fmt::Debug for MappedHeap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MappedHeap")
            .field("path", &self.path)
            .field("base", &self.base)
            .field("size", &self.size.load(Relaxed))
            .field("segments", &self.n_segs.load(Relaxed))
            .finish_non_exhaustive()
    }
}

impl Drop for MappedHeap {
    fn drop(&mut self) {
        // A clean detach retires this process's registry slot so later
        // attaches need no liveness probe to reclaim it.
        let slot = *self.my_slot.get_mut();
        if slot != usize::MAX {
            self.clear_participant(slot);
        }
        // The mapping is MAP_SHARED: all completed stores are already in the
        // page cache and reach the file regardless of this munmap. Unmapping
        // the whole reservation drops the tail too (PROT_NONE in exclusive
        // mode, file-backed in shared mode). Closing the
        // file also releases a still-held attach flock.
        unsafe { sys_munmap(self.base as usize, self.reserve) };
    }
}

/// Reserves `len` bytes of PROT_NONE address space, preferably at `hint`.
/// Returns the reservation base, or `None` when the hinted range is taken.
fn reserve_va(len: usize, hint: Option<usize>) -> Result<Option<*mut u8>, MapError> {
    let anon = MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE;
    match hint {
        Some(h) => {
            let r = unsafe { sys_mmap(h, len, PROT_NONE, anon | MAP_FIXED_NOREPLACE, -1, 0) };
            if is_sys_err(r) {
                if r == -38 {
                    return Err(MapError::Unsupported);
                }
                return Ok(None); // range taken (EEXIST) or otherwise refused
            }
            if r as usize != h {
                // Old kernels ignore NOREPLACE and map elsewhere: undo.
                unsafe { sys_munmap(r as usize, len) };
                return Ok(None);
            }
            Ok(Some(r as *mut u8))
        }
        None => {
            let r = unsafe { sys_mmap(0, len, PROT_NONE, anon, -1, 0) };
            if is_sys_err(r) {
                return Err(sys_to_err(r));
            }
            Ok(Some(r as *mut u8))
        }
    }
}

/// Maps `len` bytes of `fd` at file offset `off` to exactly `addr` (inside a
/// reservation this heap owns, so plain `MAP_FIXED` is safe).
fn map_file_at(fd: i32, len: usize, addr: usize, off: usize) -> Result<(), MapError> {
    let r = unsafe { sys_mmap(addr, len, PROT_READ | PROT_WRITE, MAP_SHARED | MAP_FIXED, fd, off) };
    if is_sys_err(r) {
        return Err(sys_to_err(r));
    }
    debug_assert_eq!(r as usize, addr);
    Ok(())
}

/// Maps `len` bytes of `fd` from file offset 0 to exactly `hint`
/// (`MAP_SHARED`), claiming the whole range in one mapping. Returns `None`
/// when the hinted range is taken. Shared attachers map their **entire** VA
/// reservation file-backed this way (file offset == VA offset): a peer that
/// grows the heap extends the file *before* publishing the new segment, and
/// pages of a shared file mapping become readable the instant the file covers
/// them — so a pointer a peer links into a structure is dereferenceable here
/// the moment it exists, with no remap, no segment refresh, and no fault
/// window. Pages past EOF are plain address space; nothing points into them
/// until a growth has extended the file underneath.
fn map_shared_window(fd: i32, len: usize, hint: usize) -> Result<Option<*mut u8>, MapError> {
    let r = unsafe {
        sys_mmap(hint, len, PROT_READ | PROT_WRITE, MAP_SHARED | MAP_FIXED_NOREPLACE, fd, 0)
    };
    if is_sys_err(r) {
        if r == -38 {
            return Err(MapError::Unsupported);
        }
        return Ok(None); // range taken (EEXIST) or otherwise refused
    }
    if r as usize != hint {
        // Old kernels ignore NOREPLACE and map elsewhere: undo.
        unsafe { sys_munmap(r as usize, len) };
        return Ok(None);
    }
    Ok(Some(r as *mut u8))
}

/// Overlays `[from, reserve)` of an attacher's reservation with the heap
/// file's bytes at the same offsets (see [`map_shared_window`]; shared mode
/// only — exclusive attachers keep the PROT_NONE tail). `MAP_FIXED` is safe:
/// the span lies inside a reservation this process owns.
fn map_window_tail(fd: i32, base: *mut u8, from: usize, reserve: usize) -> Result<(), MapError> {
    if from >= reserve {
        return Ok(());
    }
    map_file_at(fd, reserve - from, base as usize + from, from)
}

/// Reserves a VA window of `reserve` bytes (at `preferred` when possible) and
/// maps every `(file_offset, len)` segment contiguously over its front.
/// Returns `(base, relocated)`.
fn reserve_and_map(
    fd: i32,
    segs: &[(usize, usize)],
    reserve: usize,
    preferred: Option<usize>,
) -> Result<(*mut u8, bool), MapError> {
    let (base, relocated) = match preferred.and_then(|h| reserve_va(reserve, Some(h)).transpose()) {
        Some(r) => (r?, false),
        None => {
            let b = reserve_va(reserve, None)?.expect("hint-less reservation cannot be refused");
            (b, true)
        }
    };
    for &(off, len) in segs {
        if let Err(e) = map_file_at(fd, len, base as usize + off, off) {
            unsafe { sys_munmap(base as usize, reserve) };
            return Err(e);
        }
    }
    Ok((base, relocated))
}

fn empty_caches() -> Vec<CachePadded<UnsafeCell<ThreadCache>>> {
    (0..MAX_PROCS).map(|_| CachePadded::new(UnsafeCell::new(ThreadCache::default()))).collect()
}

/// Reads the superblock page with `pread` (no file-cursor mutation, so the
/// attach paths can re-read it at will).
fn read_page0(file: &std::fs::File) -> Result<[u8; PAGE], MapError> {
    use std::os::unix::fs::FileExt;
    let mut sb = [0u8; PAGE];
    file.read_exact_at(&mut sb, 0)?;
    Ok(sb)
}

/// First **live** participant pid recorded in superblock page `sb`, if any.
/// Non-heap / other-version pages answer `None` (no registry to honour).
fn sb_live_pid(sb: &[u8; PAGE], live: &dyn crate::liveness::PidLiveness) -> Option<u64> {
    let w = |i: usize| u64::from_le_bytes(sb[i * 8..i * 8 + 8].try_into().unwrap());
    if w(W_MAGIC) != MAGIC || w(W_VERSION) != VERSION {
        return None;
    }
    for s in 0..PART_SLOTS {
        let pid = w(W_PART0 + s * PART_WORDS + PW_PID);
        if pid != 0 && pid != CLAIMING && live.is_alive(pid, w(W_PART0 + s * PART_WORDS + PW_BIRTH))
        {
            return Some(pid);
        }
    }
    None
}

/// Superblock geometry parsed and validated from a plain (pre-mmap) read.
/// Segment 0's byte length is `spans[0].1`.
struct SbGeom {
    /// Byte lengths of the extra segments, in directory order.
    seg_lens: Vec<usize>,
    /// `(file_offset, len)` of every segment, including segment 0.
    spans: Vec<(usize, usize)>,
    /// Published bytes across all segments.
    total: usize,
    /// VA reservation length.
    reserve: usize,
    /// Base address recorded in the superblock.
    old_base: usize,
    /// Segment-0 data offset.
    data_off: usize,
    /// Segment-0 data granules.
    granules: usize,
    /// Data granules across all segments.
    total_granules: usize,
}

/// Validates the superblock page of a `len`-byte file (see the attach docs
/// for which shapes are benign-torn vs typed corruption).
fn parse_sb(sb: &[u8; PAGE], len: u64) -> Result<SbGeom, MapError> {
    let w = |i: usize| u64::from_le_bytes(sb[i * 8..i * 8 + 8].try_into().unwrap());
    if w(W_MAGIC) != MAGIC {
        return Err(MapError::BadMagic(w(W_MAGIC)));
    }
    if w(W_VERSION) != VERSION {
        return Err(MapError::BadVersion(w(W_VERSION)));
    }
    let size = w(W_SIZE);
    if size < PAGE as u64 || !(size as usize).is_multiple_of(PAGE) {
        return Err(MapError::BadSuperblock("segment-0 size is not a page multiple"));
    }
    // Segment directory: the count is the valid flag; each entry is the
    // segment's byte length. The published total must fit in the file
    // (a *longer* file is benign torn growth — see module docs).
    let seg_count = w(W_SEG_COUNT) as usize;
    if seg_count > MAX_SEGMENTS {
        return Err(MapError::BadSuperblock("segment count exceeds the directory"));
    }
    let mut seg_lens = Vec::with_capacity(seg_count);
    let mut total = size;
    for k in 0..seg_count {
        let b = w(W_SEG0 + k);
        if b < PAGE as u64 || !(b as usize).is_multiple_of(PAGE) || b >= 1 << 46 {
            return Err(MapError::BadSuperblock("impossible segment-directory entry"));
        }
        seg_lens.push(b as usize);
        total =
            total.checked_add(b).ok_or(MapError::BadSuperblock("segment directory overflows"))?;
    }
    if len < total {
        return Err(MapError::Truncated { expected: total, found: len });
    }
    let total = total as usize;
    let reserve = w(W_RESERVE) as usize;
    if reserve < total || !reserve.is_multiple_of(PAGE) || reserve >= 1 << 47 {
        return Err(MapError::BadSuperblock("VA reservation does not cover the segments"));
    }
    let old_base = w(W_BASE) as usize;
    if old_base == 0 || !old_base.is_multiple_of(PAGE) || old_base >= 1 << 47 {
        return Err(MapError::BadSuperblock("recorded base address is not a valid mapping"));
    }
    let size = size as usize;
    let data_off = w(W_DATA_OFF) as usize;
    let granules = w(W_GRANULES) as usize;
    if data_off < PAGE
        || !data_off.is_multiple_of(GRANULE)
        || data_off
            .checked_add(
                granules
                    .checked_mul(GRANULE)
                    .ok_or(MapError::BadSuperblock("granule count overflows the data region"))?,
            )
            .is_none_or(|end| end > size)
    {
        return Err(MapError::BadSuperblock("data region exceeds the file"));
    }
    // The commit bitmap (one bit per data granule, starting at PAGE)
    // must fit below the data region: otherwise bm_set/bm_clear would
    // silently write inside the data blocks.
    if w(W_BM_OFF) as usize != PAGE || PAGE + granules.div_ceil(64) * 8 > data_off {
        return Err(MapError::BadSuperblock("commit bitmap does not fit its region"));
    }
    let mut total_granules = granules;
    for &b in &seg_lens {
        total_granules += seg_geometry(b).1;
    }
    if (w(W_BUMP) as usize) > total_granules {
        return Err(MapError::BadSuperblock("bump offset beyond the data region"));
    }
    let mut spans = Vec::with_capacity(1 + seg_lens.len());
    spans.push((0usize, size));
    let mut off = size;
    for &b in &seg_lens {
        spans.push((off, b));
        off += b;
    }
    Ok(SbGeom { seg_lens, spans, total, reserve, old_base, data_off, granules, total_granules })
}

impl MappedHeap {
    // -- mapping ----------------------------------------------------------

    /// Creates a fresh heap whose *initial segment* holds (at least) `bytes`
    /// at `path`, truncating any existing file. The arena grows on demand up
    /// to a default VA reservation of `max(16 × bytes, 256 MiB)`. Prefer
    /// [`MappedHeap::open`].
    pub fn create(path: &Path, bytes: usize) -> Result<Arc<Self>, MapError> {
        Self::create_bounded(path, bytes, 0)
    }

    /// [`MappedHeap::create`] with an explicit growth ceiling: the arena
    /// never exceeds `max_bytes` in total (`max_bytes == bytes` disables
    /// growth entirely — used by exhaustion tests). `0` selects the default
    /// reservation.
    pub fn create_bounded(
        path: &Path,
        bytes: usize,
        max_bytes: usize,
    ) -> Result<Arc<Self>, MapError> {
        let file =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(path)?;
        flock_ex(&file)?;
        Self::create_locked(file, path, bytes, max_bytes, false, crate::liveness::default_probe())
    }

    /// Creation body. `file` is open (NOT yet truncated) and holds the attach
    /// flock; error paths release it implicitly by dropping/closing the file.
    /// Guards against creating over a heap with **live** participants (which
    /// would truncate the file out from under them — `SIGBUS` on their next
    /// access), then zeroes the file and lays the heap out. Exclusive mode
    /// releases the flock before returning; shared mode keeps holding it
    /// (see [`MappedHeap::release_attach_lock`]).
    fn create_locked(
        file: std::fs::File,
        path: &Path,
        bytes: usize,
        max_bytes: usize,
        shared: bool,
        live: Arc<dyn crate::liveness::PidLiveness>,
    ) -> Result<Arc<Self>, MapError> {
        if file.metadata()?.len() >= PAGE as u64 {
            if let Some(pid) = sb_live_pid(&read_page0(&file)?, &*live) {
                return Err(MapError::AlreadyAttached { pid });
            }
        }
        let size = bytes.max(MIN_HEAP_BYTES).next_multiple_of(PAGE);
        let reserve = if max_bytes == 0 {
            (size * 16).max(256 * 1024 * 1024)
        } else {
            max_bytes.max(size).next_multiple_of(PAGE)
        };
        // Shrink to zero first so every byte of the new extent — including
        // any stale superblock content — reads back as zero.
        file.set_len(0)?;
        file.set_len(size as u64)?;
        let fd = std::os::fd::AsRawFd::as_raw_fd(&file);

        // Segment-0 geometry: superblock page, then the bitmap (one bit per
        // data granule, rounded to a granule), then the data region.
        let data_guess = size - PAGE;
        let bm_bytes = (data_guess / GRANULE).div_ceil(8).next_multiple_of(GRANULE);
        let data_off = PAGE + bm_bytes;
        let granules = (size - data_off) / GRANULE;

        let (base, _) = reserve_and_map(fd, &[(0, size)], reserve, Some(PREFERRED_BASE))?;
        if shared {
            // Shared mode maps the unpublished tail of the reservation
            // file-backed too, so segments any peer grows later are readable
            // here without a remap (see `map_shared_window`).
            if let Err(e) = map_window_tail(fd, base, size, reserve) {
                unsafe { sys_munmap(base as usize, reserve) };
                return Err(e);
            }
        }
        let heap = MappedHeap {
            base,
            reserve,
            size: AtomicUsize::new(size),
            n_segs: AtomicUsize::new(1),
            segs: std::array::from_fn(|_| SegSlot::default()),
            total_granules: AtomicUsize::new(granules),
            data_off,
            path: path.to_path_buf(),
            file,
            grow_lock: Mutex::new(()),
            cold: Mutex::new(HashMap::new()),
            caches: empty_caches(),
            shared,
            my_slot: AtomicUsize::new(usize::MAX),
            liveness: live,
            attach_flock: AtomicBool::new(false),
            report: AttachReport {
                created: true,
                attach_epoch: 1,
                segments: 1,
                ..Default::default()
            },
        };
        heap.segs[0].granules.store(granules, Relaxed);
        heap.segs[0].bm_off.store(PAGE, Relaxed);
        heap.segs[0].data_off.store(data_off, Relaxed);
        // Init order: every field first, the magic last — a creation cut
        // short by a crash leaves a file that fails attach with BadMagic
        // instead of a half-valid superblock.
        heap.word(W_VERSION).store(VERSION, SeqCst);
        heap.word(W_BASE).store(base as u64, SeqCst);
        heap.word(W_SIZE).store(size as u64, SeqCst);
        heap.word(W_EPOCH).store(1, SeqCst);
        heap.word(W_BUMP).store(0, SeqCst);
        heap.word(W_DATA_OFF).store(data_off as u64, SeqCst);
        heap.word(W_BM_OFF).store(PAGE as u64, SeqCst);
        heap.word(W_GRANULES).store(granules as u64, SeqCst);
        heap.word(W_KIND).store(0, SeqCst);
        heap.word(W_SEG_COUNT).store(0, SeqCst);
        heap.word(W_RESERVE).store(reserve as u64, SeqCst);
        heap.word(W_MAGIC).store(MAGIC, SeqCst);
        heap.claim_participant()?;
        if shared {
            heap.attach_flock.store(true, Relaxed);
        } else {
            flock_un(&heap.file);
        }
        Ok(Arc::new(heap))
    }

    /// Attaches an existing heap at its recorded base address, falling back
    /// to the relocation pass (see module docs).
    pub fn attach(path: &Path) -> Result<Arc<Self>, MapError> {
        Self::attach_opts(path, false)
    }

    /// [`MappedHeap::attach`] with the fixed-base request suppressed, forcing
    /// the offset-relocation pass (exercised directly by tests).
    pub fn attach_opts(path: &Path, force_new_base: bool) -> Result<Arc<Self>, MapError> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        flock_ex(&file)?;
        Self::attach_locked(file, path, force_new_base, false, crate::liveness::default_probe())
    }

    /// Full (walking) attach body. `file` holds the attach flock; error paths
    /// release it implicitly by dropping/closing the file. Fails typed with
    /// [`MapError::AlreadyAttached`] when a live participant is registered —
    /// the walk resets shared volatile-in-persistent allocator state and
    /// heals "torn" blocks, which must never run under a live peer. Exclusive
    /// mode releases the flock before returning; shared mode keeps holding it
    /// (see [`MappedHeap::release_attach_lock`]).
    fn attach_locked(
        file: std::fs::File,
        path: &Path,
        force_new_base: bool,
        shared: bool,
        live: Arc<dyn crate::liveness::PidLiveness>,
    ) -> Result<Arc<Self>, MapError> {
        let len = file.metadata()?.len();
        if len < PAGE as u64 {
            return Err(MapError::Truncated { expected: PAGE as u64, found: len });
        }
        // Validate the superblock from a plain read before mapping anything.
        let sb = read_page0(&file)?;
        if let Some(pid) = sb_live_pid(&sb, &*live) {
            return Err(MapError::AlreadyAttached { pid });
        }
        let g = parse_sb(&sb, len)?;

        let fd = std::os::fd::AsRawFd::as_raw_fd(&file);
        let preferred = if force_new_base { None } else { Some(g.old_base) };
        let (base, _) = reserve_and_map(fd, &g.spans, g.reserve, preferred)?;
        let relocated = base as usize != g.old_base;
        if shared {
            // As in `create_locked`: keep the whole reservation file-backed
            // so peer growth never leaves an unmapped hole under a shared
            // pointer (see `map_shared_window`).
            if let Err(e) = map_window_tail(fd, base, g.total, g.reserve) {
                unsafe { sys_munmap(base as usize, g.reserve) };
                return Err(e);
            }
        }

        let mut heap = MappedHeap {
            base,
            reserve: g.reserve,
            size: AtomicUsize::new(g.total),
            n_segs: AtomicUsize::new(g.spans.len()),
            segs: std::array::from_fn(|_| SegSlot::default()),
            total_granules: AtomicUsize::new(g.total_granules),
            data_off: g.data_off,
            path: path.to_path_buf(),
            file,
            grow_lock: Mutex::new(()),
            cold: Mutex::new(HashMap::new()),
            caches: empty_caches(),
            shared,
            my_slot: AtomicUsize::new(usize::MAX),
            liveness: live,
            attach_flock: AtomicBool::new(false),
            report: AttachReport { relocated, ..Default::default() },
        };
        heap.publish_seg_slots(&g);
        // Stale registry slots (every one is dead or mid-claim: the guard
        // above passed) are reclaimed before this process claims its own.
        heap.registry_clear_stale();
        let committed = heap.walk_and_heal()?;
        if relocated {
            heap.relocate(g.old_base, &committed);
            heap.word(W_BASE).store(base as u64, SeqCst);
        }
        let epoch = heap.word(W_EPOCH).load(Acquire) + 1;
        heap.word(W_EPOCH).store(epoch, SeqCst);
        heap.report.attach_epoch = epoch;
        heap.claim_participant()?;
        if shared {
            heap.attach_flock.store(true, Relaxed);
        } else {
            flock_un(&heap.file);
        }
        Ok(Arc::new(heap))
    }

    /// Joins a **live** shared heap: refuses live *exclusive* attachers
    /// ([`MapError::ExclusivePeer`]), maps the whole reservation file-backed
    /// strictly at the recorded base (peers exchange absolute pointers, so
    /// relocation is impossible — [`MapError::BaseTaken`]), claims a
    /// participant slot, and runs *no* walk/heal/sweep: the heap is live
    /// state, not a crash image. Releases the attach flock before returning.
    fn join_locked(
        file: std::fs::File,
        path: &Path,
        live: Arc<dyn crate::liveness::PidLiveness>,
    ) -> Result<Arc<Self>, MapError> {
        let len = file.metadata()?.len();
        if len < PAGE as u64 {
            return Err(MapError::Truncated { expected: PAGE as u64, found: len });
        }
        let sb = read_page0(&file)?;
        let g = parse_sb(&sb, len)?;
        // A live heap is only joinable when every live participant attached
        // in *shared* mode: an exclusive attacher runs private epochs and an
        // unlocked bump path, so sharing the arena behind its back frees
        // memory it still reads. The mode word is stamped before the pid
        // under this same flock, so a live slot always carries its mode
        // (checked from the page-0 buffer, before any mapping is attempted).
        let w = |i: usize| u64::from_le_bytes(sb[i * 8..i * 8 + 8].try_into().unwrap());
        for s in 0..PART_SLOTS {
            let pid = w(W_PART0 + s * PART_WORDS + PW_PID);
            if pid != 0
                && pid != CLAIMING
                && live.is_alive(pid, w(W_PART0 + s * PART_WORDS + PW_BIRTH))
                && w(W_PART0 + s * PART_WORDS + PW_MODE) != MODE_SHARED
            {
                return Err(MapError::ExclusivePeer { pid });
            }
        }
        let fd = std::os::fd::AsRawFd::as_raw_fd(&file);
        // Map the ENTIRE reservation file-backed at the recorded base — not
        // just the published segments — so a peer's later growth is readable
        // here the moment it happens (see `map_shared_window`).
        let Some(base) = map_shared_window(fd, g.reserve, g.old_base)? else {
            return Err(MapError::BaseTaken { base: g.old_base as u64 });
        };
        let mut heap = MappedHeap {
            base,
            reserve: g.reserve,
            size: AtomicUsize::new(g.total),
            n_segs: AtomicUsize::new(g.spans.len()),
            segs: std::array::from_fn(|_| SegSlot::default()),
            total_granules: AtomicUsize::new(g.total_granules),
            data_off: g.data_off,
            path: path.to_path_buf(),
            file,
            grow_lock: Mutex::new(()),
            cold: Mutex::new(HashMap::new()),
            caches: empty_caches(),
            shared: true,
            my_slot: AtomicUsize::new(usize::MAX),
            liveness: live,
            attach_flock: AtomicBool::new(false),
            report: AttachReport { joined: true, segments: g.spans.len(), ..Default::default() },
        };
        heap.publish_seg_slots(&g);
        heap.claim_participant()?;
        let epoch = heap.word(W_EPOCH).fetch_add(1, SeqCst) + 1;
        heap.report.attach_epoch = epoch;
        flock_un(&heap.file);
        Ok(Arc::new(heap))
    }

    /// Fills the volatile segment slots from parsed superblock geometry.
    fn publish_seg_slots(&self, g: &SbGeom) {
        self.segs[0].granules.store(g.granules, Relaxed);
        self.segs[0].bm_off.store(PAGE, Relaxed);
        self.segs[0].data_off.store(g.data_off, Relaxed);
        let mut g_start = g.granules;
        for (k, &b) in g.seg_lens.iter().enumerate() {
            let (bm_bytes, gr) = seg_geometry(b);
            let s = &self.segs[1 + k];
            s.g_start.store(g_start, Relaxed);
            s.granules.store(gr, Relaxed);
            s.bm_off.store(g.spans[1 + k].0, Relaxed);
            s.data_off.store(g.spans[1 + k].0 + bm_bytes, Relaxed);
            g_start += gr;
        }
    }

    /// Attach `path` if it exists (and is non-empty), otherwise create a
    /// fresh heap of `bytes` there.
    pub fn open(path: &Path, bytes: usize) -> Result<Arc<Self>, MapError> {
        match std::fs::metadata(path) {
            Ok(m) if m.len() > 0 => Self::attach(path),
            _ => Self::create(path, bytes),
        }
    }

    /// Opens `path` for **shared multi-process** use: creates the heap when
    /// the file is absent/empty, *joins* it when live participants are
    /// registered, and otherwise runs a full walking attach. The decision is
    /// serialized across processes by an exclusive `flock` on the heap file
    /// (kernel-released if the holder dies). The initial attacher (create or
    /// full attach) returns **still holding** the lock, so the caller can
    /// finish structure-level recovery before admitting joiners — call
    /// [`MappedHeap::release_attach_lock`] when the heap is serviceable.
    /// Joiners return with the lock already released.
    pub fn open_shared(path: &Path, bytes: usize) -> Result<Arc<Self>, MapError> {
        Self::open_shared_with(path, bytes, crate::liveness::default_probe())
    }

    /// [`MappedHeap::open_shared`] with an injected liveness probe (tests
    /// exercise "falsely dead" / pid-reuse verdicts through this).
    pub fn open_shared_with(
        path: &Path,
        bytes: usize,
        live: Arc<dyn crate::liveness::PidLiveness>,
    ) -> Result<Arc<Self>, MapError> {
        let file =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(path)?;
        flock_ex(&file)?;
        if file.metadata()?.len() < PAGE as u64 {
            return Self::create_locked(file, path, bytes, 0, true, live);
        }
        if sb_live_pid(&read_page0(&file)?, &*live).is_some() {
            Self::join_locked(file, path, live)
        } else {
            Self::attach_locked(file, path, false, true, live)
        }
    }

    /// Releases the attach flock a shared-mode initial attach still holds
    /// (no-op otherwise, including for joiners). Until this is called,
    /// concurrent [`MappedHeap::open_shared`] callers block — that window is
    /// where the initial attacher replays structure-level recovery on what
    /// is still a crash image.
    pub fn release_attach_lock(&self) {
        if self.attach_flock.swap(false, AcqRel) {
            flock_un(&self.file);
        }
    }

    /// Runs `f` under an exclusive `flock` on the heap file — the
    /// cross-process mutex shared-mode catalog mutation serializes on. The
    /// kernel releases it if the holder dies, so a SIGKILLed peer can never
    /// wedge it. Must not be called while this handle still holds the
    /// *attach* lock (the unlock here would release that early); the
    /// store's shared open releases it before returning.
    pub fn with_file_lock<R>(&self, f: impl FnOnce() -> R) -> Result<R, MapError> {
        debug_assert!(
            !self.attach_flock.load(Relaxed),
            "with_file_lock while the attach flock is still held"
        );
        flock_ex(&self.file)?;
        let r = f();
        flock_un(&self.file);
        Ok(r)
    }

    // -- participant registry and recovery leases --------------------------

    #[inline]
    fn part_word(&self, slot: usize, w: usize) -> &AtomicU64 {
        debug_assert!(slot < PART_SLOTS && w < PART_WORDS);
        self.word(W_PART0 + slot * PART_WORDS + w)
    }

    /// Flushes a registry slot's cache line and fences — every registry
    /// transition is crash-ordered like the segment directory.
    fn flush_part(&self, slot: usize) {
        self.flush_at((W_PART0 + slot * PART_WORDS) * 8);
        flush::mfence();
    }

    /// Claims a free registry slot for `(pid, birth)` attaching in `mode`.
    /// Crash-ordering: the slot is reserved with a CAS to the `CLAIMING`
    /// sentinel, the fields (birth, lease, mode) are written and flushed, and
    /// the **pid — the valid flag — is stored last** and flushed. A crash
    /// mid-claim leaves `CLAIMING`, which is never a live pid; it is
    /// reclaimed under the attach flock ([`MappedHeap::reclaim_torn_claim`]),
    /// never leased, because the sentinel may equally belong to a live joiner
    /// between its CAS and its pid stamp.
    fn claim_slot_raw(&self, pid: u64, birth: u64, mode: u64) -> Result<usize, MapError> {
        for s in 0..PART_SLOTS {
            let pw = self.part_word(s, PW_PID);
            if pw.load(Acquire) != 0 {
                continue;
            }
            if pw.compare_exchange(0, CLAIMING, AcqRel, Acquire).is_err() {
                continue;
            }
            self.part_word(s, PW_BIRTH).store(birth, SeqCst);
            self.part_word(s, PW_LEASE).store(0, SeqCst);
            self.part_word(s, PW_MODE).store(mode, SeqCst);
            self.flush_part(s);
            pw.store(pid, SeqCst);
            self.flush_part(s);
            return Ok(s);
        }
        Err(MapError::RegistryFull)
    }

    /// Claims this process's registry slot (every attach path does this).
    fn claim_participant(&self) -> Result<usize, MapError> {
        let mode = if self.shared { MODE_SHARED } else { MODE_EXCLUSIVE };
        let slot =
            self.claim_slot_raw(std::process::id() as u64, crate::liveness::self_birth(), mode)?;
        self.my_slot.store(slot, Relaxed);
        Ok(slot)
    }

    /// Clears every claimed registry slot (full attach, after the live-pid
    /// guard established they are all dead or mid-claim).
    fn registry_clear_stale(&self) {
        for s in 0..PART_SLOTS {
            if self.part_word(s, PW_PID).load(Acquire) != 0 {
                self.clear_participant(s);
            }
        }
    }

    /// Frees registry slot `slot`: the pid — the valid flag — is cleared and
    /// flushed **first**, so a concurrent lease claimant observes `Gone`
    /// before the lease word ever reads as free (clearing the lease first
    /// would let a second survivor win a lease on a slot that is mid-retire,
    /// then wipe state a *new* claimant of the slot owns). Crash-safe in
    /// either half: a re-claim overwrites birth/lease/mode before re-stamping
    /// the pid, so stale field bytes are never paired with a valid flag.
    /// Public for the recovery path, which calls it only after the dead
    /// peer's per-pid replay completed.
    pub fn clear_participant(&self, slot: usize) {
        self.part_word(slot, PW_PID).store(0, SeqCst);
        self.flush_part(slot);
        self.part_word(slot, PW_LEASE).store(0, SeqCst);
        self.part_word(slot, PW_BIRTH).store(0, SeqCst);
        self.part_word(slot, PW_MODE).store(0, SeqCst);
        self.flush_part(slot);
    }

    /// Whether registry slot `slot` holds a fully-claimed, live participant.
    fn slot_is_live(&self, slot: usize) -> bool {
        if slot >= PART_SLOTS {
            return false;
        }
        let pid = self.part_word(slot, PW_PID).load(Acquire);
        pid != 0
            && pid != CLAIMING
            && self.liveness.is_alive(pid, self.part_word(slot, PW_BIRTH).load(Acquire))
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

    /// Whether this handle attached in shared (multi-process) mode.
    pub fn is_shared(&self) -> bool {
        self.shared
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

    /// The injected liveness probe (recovery layers share its verdicts).
    pub fn liveness(&self) -> &Arc<dyn crate::liveness::PidLiveness> {
        &self.liveness
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
    /// claimant slot `claimant`. The lease word is `(seq << 8) | (holder
    /// slot + 1)`: a single CAS per seq transition means **at most one
    /// winner** even when several survivors (or a falsely-dead verdict)
    /// race for it. A lease whose holder is itself dead is *stolen* with a
    /// fresh sequence number, superseding the dead recoverer.
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
                self.flush_part(dead);
                continue;
            }
            self.flush_part(dead);
            if stolen {
                stats::count_leases_stolen(1);
            }
            return LeaseOutcome::Won { seq: next >> 8 };
        }
    }

    /// Reclaims a registry slot torn mid-claim (`PW_PID` still holds the
    /// claim sentinel), serialized under the attach flock. Claims themselves
    /// run under the flock, so while it is held a `CLAIMING` slot can only be
    /// the leftover of a crashed claimant — never a live joiner mid-claim —
    /// and clearing it races with nothing. Returns whether the slot was
    /// reclaimed (`false`: the claim completed or cleared in the meantime).
    pub fn reclaim_torn_claim(&self, slot: usize) -> Result<bool, MapError> {
        self.with_file_lock(|| {
            if self.part_word(slot, PW_PID).load(Acquire) == CLAIMING {
                self.clear_participant(slot);
                true
            } else {
                false
            }
        })
    }

    /// Drops a recovery lease without reclaiming the slot (a recoverer
    /// backing off; normally [`MappedHeap::clear_participant`] retires the
    /// lease together with the slot).
    pub fn lease_release(&self, dead: usize) {
        self.part_word(dead, PW_LEASE).store(0, SeqCst);
        self.flush_part(dead);
    }

    /// Test hook: registers a fake shared participant `(pid, birth)` in the
    /// registry, as if that process had attached. Returns its slot. Unlike a
    /// real claim this does not hold the attach flock — tests only.
    #[doc(hidden)]
    pub fn debug_register_peer(&self, pid: u64, birth: u64) -> Result<usize, MapError> {
        self.claim_slot_raw(pid, birth, MODE_SHARED)
    }

    /// Test hook: leaves registry slot `slot`'s pid word at the mid-claim
    /// sentinel, as a claimant crashed between its slot reservation and its
    /// pid stamp would. Tests only.
    #[doc(hidden)]
    pub fn debug_tear_claim(&self, slot: usize) {
        self.part_word(slot, PW_PID).store(CLAIMING, SeqCst);
        self.flush_part(slot);
    }

    /// Validates (or, on first use, records) the durable recovery-area
    /// geometry: builds whose slot count or stride disagree with what the
    /// heap was laid out with must fail typed instead of silently aliasing
    /// recovery slots across processes.
    pub fn validate_rec_geometry(&self, slots: u64, stride: u64) -> Result<(), MapError> {
        for (wi, what, expected) in [
            (W_REC_SLOTS, "recovery-area slot count", slots),
            (W_REC_STRIDE, "recovery-area slot stride", stride),
        ] {
            let w = self.word(wi);
            let found = w.load(Acquire);
            if found == 0 {
                w.store(expected, SeqCst);
                self.flush_at(wi * 8);
                flush::mfence();
            } else if found != expected {
                return Err(MapError::LayoutMismatch { what, expected, found });
            }
        }
        Ok(())
    }

    // -- words, headers, bitmap -------------------------------------------

    #[inline]
    fn word(&self, idx: usize) -> &AtomicU64 {
        debug_assert!((idx + 1) * 8 <= PAGE);
        // SAFETY: inside the live, 8-aligned mapping.
        unsafe { &*(self.base.add(idx * 8) as *const AtomicU64) }
    }

    /// The one metadata flush: writes back the line at byte offset `off` of
    /// the mapping, *uncounted* (allocator-internal durability, not part of
    /// the measured op-level protocol). The write-back may be weakly ordered
    /// ([`flush::Kind`]): callers fence before the store that depends on it.
    #[inline]
    fn flush_at(&self, off: usize) {
        // SAFETY: callers pass offsets of words inside the live mapping.
        unsafe { flush::flush(self.base.add(off) as *const u8) };
    }

    /// Index of the published segment holding global granule `g`.
    #[inline]
    fn seg_of_granule(&self, g: usize) -> Option<usize> {
        let n = self.n_segs.load(Acquire);
        // Newest segment first: the bump cursor lives there.
        for i in (0..n).rev() {
            let s = &self.segs[i];
            let start = s.g_start.load(Relaxed);
            if g >= start && g < start + s.granules.load(Relaxed) {
                return Some(i);
            }
        }
        None
    }

    /// As [`MappedHeap::seg_of_granule`], but a miss first re-maps segments a
    /// peer of a shared heap may have published since our last look.
    #[inline]
    fn seg_of_granule_refresh(&self, g: usize) -> Option<usize> {
        self.seg_of_granule(g).or_else(|| {
            self.refresh_segments().ok()?;
            self.seg_of_granule(g)
        })
    }

    /// VA offset of the *header granule* of global granule `g`.
    #[inline]
    fn granule_off(&self, g: usize) -> usize {
        let i = self.seg_of_granule_refresh(g).expect("granule inside the mapped arena");
        let s = &self.segs[i];
        s.data_off.load(Relaxed) + (g - s.g_start.load(Relaxed)) * GRANULE
    }

    #[inline]
    fn hdr(&self, g: usize) -> &AtomicU64 {
        // SAFETY: granule g starts inside a mapped data region.
        unsafe { &*(self.base.add(self.granule_off(g)) as *const AtomicU64) }
    }

    /// Second word of the header granule: the free-list next-link (volatile
    /// state in persistent space, rebuilt on attach; torn values harmless).
    #[inline]
    fn link_word(&self, g: usize) -> &AtomicU64 {
        // SAFETY: word 1 of the 8-word header granule.
        unsafe { &*(self.base.add(self.granule_off(g) + 8) as *const AtomicU64) }
    }

    #[inline]
    fn payload(&self, g: usize) -> *mut u8 {
        // Payload starts one granule after the header granule.
        unsafe { self.base.add(self.granule_off(g) + GRANULE) }
    }

    /// Granule index of the block whose payload starts at `p`.
    #[inline]
    fn granule_of(&self, p: *mut u8) -> usize {
        if let Some(g) = self.try_granule_of(p) {
            return g;
        }
        // Shared mode: the pointer may land in a segment a peer grew.
        let _ = self.refresh_segments();
        self.try_granule_of(p).expect("payload pointer outside every mapped segment")
    }

    fn try_granule_of(&self, p: *mut u8) -> Option<usize> {
        let off = (p as usize).checked_sub(self.base as usize)?;
        let n = self.n_segs.load(Acquire);
        for i in (0..n).rev() {
            let s = &self.segs[i];
            let doff = s.data_off.load(Relaxed);
            if off >= doff && off < doff + s.granules.load(Relaxed) * GRANULE {
                debug_assert!(off.is_multiple_of(GRANULE) && off >= doff + GRANULE);
                return Some(s.g_start.load(Relaxed) + (off - doff) / GRANULE - 1);
            }
        }
        None
    }

    /// Bitmap word + bit index covering global granule `g`.
    #[inline]
    fn bm_word(&self, g: usize) -> (&AtomicU64, u32) {
        let i = self.seg_of_granule_refresh(g).expect("granule inside the mapped arena");
        let s = &self.segs[i];
        let local = g - s.g_start.load(Relaxed);
        let off = s.bm_off.load(Relaxed) + (local / 64) * 8;
        debug_assert!(off + 8 <= s.data_off.load(Relaxed));
        // SAFETY: inside the segment's bitmap region.
        (unsafe { &*(self.base.add(off) as *const AtomicU64) }, (local % 64) as u32)
    }

    #[inline]
    fn bm_test(&self, g: usize) -> bool {
        let (w, b) = self.bm_word(g);
        w.load(Acquire) & (1 << b) != 0
    }

    #[inline]
    fn bm_set(&self, g: usize) {
        let (w, b) = self.bm_word(g);
        w.fetch_or(1 << b, SeqCst);
    }

    #[inline]
    fn bm_clear(&self, g: usize) {
        let (w, b) = self.bm_word(g);
        w.fetch_and(!(1 << b), SeqCst);
    }

    // -- attach walk -------------------------------------------------------

    /// Walks every block header up to the bump offset: rebuilds the free
    /// lists, poisons torn tail allocations, heals benign bitmap bits, and
    /// fails with a typed error on any state no crash ordering can produce.
    /// Blocks never straddle segments, so the walk runs **per segment on
    /// [`attach_threads`] scoped workers**. Returns the committed blocks as
    /// `(granule, payload_granules)`.
    fn walk_and_heal(&mut self) -> Result<Vec<(usize, usize)>, MapError> {
        let bump = self.word(W_BUMP).load(Acquire) as usize;
        // Reset the volatile-in-persistent allocator words (reservation
        // cursor, bump lock, global free-stack heads): their last-run values
        // are stale garbage, and the walk below restocks the stacks.
        self.word(W_BUMP_RESV).store(bump as u64, SeqCst);
        self.word(W_ALLOC_LOCK).store(0, SeqCst);
        for cls in 0..MAX_CLASS {
            self.word(W_GLOBAL0 + cls).store(0, SeqCst);
        }
        let n = self.n_segs.load(Acquire);
        let threads = attach_threads().min(n).max(1);
        let this = &*self;
        let results: Vec<Result<SegWalk, MapError>> = if threads <= 1 {
            (0..n).map(|i| this.walk_segment(i, bump)).collect()
        } else {
            let next = AtomicUsize::new(0);
            std::thread::scope(|sc| {
                let handles: Vec<_> = (0..threads)
                    .map(|_| {
                        let next = &next;
                        sc.spawn(move || {
                            let mut out = Vec::new();
                            loop {
                                let i = next.fetch_add(1, SeqCst);
                                if i >= n {
                                    break;
                                }
                                out.push((i, this.walk_segment(i, bump)));
                            }
                            out
                        })
                    })
                    .collect();
                let mut merged: Vec<Option<Result<SegWalk, MapError>>> =
                    (0..n).map(|_| None).collect();
                for h in handles {
                    for (i, r) in h.join().expect("attach walk worker panicked") {
                        merged[i] = Some(r);
                    }
                }
                merged.into_iter().map(|o| o.expect("every segment walked")).collect()
            })
        };
        let mut committed = Vec::new();
        let mut free: HashMap<u32, Vec<u32>> = HashMap::new();
        for r in results {
            let sw = r?;
            committed.extend(sw.committed);
            for (pg, mut list) in sw.free {
                free.entry(pg).or_default().append(&mut list);
            }
            self.report.poisoned += sw.poisoned;
            self.report.healed_bits += sw.healed;
            self.report.free_blocks += sw.free_blocks;
        }
        self.report.committed = committed.len();
        self.report.free_blocks += self.report.poisoned;
        self.report.segments = n;
        // Stock the allocator: hot classes into the lock-free stacks, the
        // rest into the cold map.
        for (pg, list) in free {
            if (pg as usize) <= MAX_CLASS {
                for g in list {
                    self.global_push(pg as usize - 1, g as usize);
                }
            } else {
                lock_np(&self.cold).entry(pg).or_default().extend(list);
            }
        }
        Ok(committed)
    }

    /// Walks one segment's slice of the granule space (see `walk_and_heal`).
    fn walk_segment(&self, i: usize, bump: usize) -> Result<SegWalk, MapError> {
        let s = &self.segs[i];
        let g0 = s.g_start.load(Relaxed);
        let granules = s.granules.load(Relaxed);
        // A segment that growth published but the bump never reached (a kill
        // between the two) lies wholly past the bump: empty, not corrupt.
        let limit = bump.clamp(g0, g0 + granules);
        let mut w = SegWalk::default();
        let mut committed_set: HashSet<usize> = HashSet::new();
        let mut g = g0;
        while g < limit {
            let (state, pg) = decode_hdr(self.hdr(g).load(Acquire))
                .ok_or(MapError::CorruptHeader { granule: g })?;
            let pg = pg as usize;
            if (state != ST_PAD && pg == 0) || g + 1 + pg > limit {
                return Err(MapError::CorruptHeader { granule: g });
            }
            match state {
                ST_PAD => {
                    // Segment-tail filler: skipped; its bits must be clear
                    // (enforced by the bitmap cross-check below).
                }
                ST_COMMITTED => {
                    if !self.bm_test(g) {
                        return Err(MapError::CorruptBitmap { granule: g });
                    }
                    w.committed.push((g, pg));
                    committed_set.insert(g);
                }
                ST_ALLOCATED => {
                    // Torn tail allocation: the owning operation never
                    // committed it, so nothing can reference it. Poison the
                    // payload (so any stale use is loud) and recycle it.
                    let p = self.payload(g) as *mut u64;
                    for k in 0..pg * (GRANULE / 8) {
                        // SAFETY: payload of a block wholly inside the arena.
                        unsafe { p.add(k).write(POISON) };
                    }
                    self.hdr(g).store(encode_hdr(ST_FREE, pg as u64), Release);
                    self.bm_clear(g);
                    w.free.entry(pg as u32).or_default().push(g as u32);
                    w.poisoned += 1;
                }
                ST_FREE => {
                    if self.bm_test(g) {
                        // Crash between the two halves of a free: benign.
                        self.bm_clear(g);
                        w.healed += 1;
                    }
                    w.free.entry(pg as u32).or_default().push(g as u32);
                    w.free_blocks += 1;
                }
                _ => return Err(MapError::CorruptHeader { granule: g }),
            }
            g += 1 + pg;
        }
        if g != limit {
            return Err(MapError::CorruptHeader { granule: g });
        }
        // Cross-check: every set bitmap bit must sit under a committed
        // header. A bit with no block under it cannot result from any crash
        // ordering — it is corruption.
        for wi in 0..granules.div_ceil(64) {
            let (word, _) = self.bm_word(g0 + wi * 64);
            let mut bits = word.load(Acquire);
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let gran = g0 + wi * 64 + b;
                if !committed_set.contains(&gran) {
                    return Err(MapError::CorruptBitmap { granule: gran });
                }
            }
        }
        Ok(w)
    }

    /// The offset-relocation pass: rebases every committed payload word that
    /// points into the old mapping (see module docs for the aliasing caveat).
    /// Chunked over [`attach_threads`] workers — blocks are disjoint, so the
    /// chunks race on nothing.
    fn relocate(&self, old_base: usize, committed: &[(usize, usize)]) {
        let threads = attach_threads().max(1);
        if threads <= 1 || committed.len() < 1024 {
            self.relocate_chunk(old_base, committed);
            return;
        }
        let chunk = committed.len().div_ceil(threads);
        std::thread::scope(|sc| {
            for part in committed.chunks(chunk) {
                sc.spawn(move || self.relocate_chunk(old_base, part));
            }
        });
    }

    fn relocate_chunk(&self, old_base: usize, committed: &[(usize, usize)]) {
        let new_base = self.base as usize;
        let span = self.size.load(Acquire);
        for &(g, pg) in committed {
            let p = self.payload(g) as *mut u64;
            for i in 0..pg * (GRANULE / 8) {
                // SAFETY: exclusive attach; chunks hold disjoint blocks.
                let v = unsafe { p.add(i).read() };
                let t = v & !1; // strip the info-pointer tag bit
                if t >= old_base as u64 && t < (old_base + span) as u64 {
                    unsafe { p.add(i).write((t - old_base as u64 + new_base as u64) | (v & 1)) };
                }
            }
        }
    }

    // -- growth and the lock-free bump cursor ------------------------------

    /// Extends the arena by a new segment (double the current total, at
    /// least enough for `need_granules`, capped by the VA reservation).
    /// Returns `Ok` without growing when a concurrent grower already made
    /// room. See the module docs for the crash-ordering argument.
    fn grow(&self, need_granules: usize) -> Result<(), MapError> {
        let _guard = lock_np(&self.grow_lock);
        // A peer of a shared heap may have grown already: map its published
        // segments before extending the file ourselves.
        self.refresh_segments_locked()?;
        // Re-check under the lock: another thread may have grown while we
        // waited, or freed bump space past a pad.
        let cur = self.word(W_BUMP_RESV).load(Acquire) as usize;
        let mut pos = cur;
        while let Some(i) = self.seg_of_granule(pos) {
            let s = &self.segs[i];
            let end = s.g_start.load(Relaxed) + s.granules.load(Relaxed);
            if pos + need_granules <= end {
                return Ok(());
            }
            pos = end;
        }
        let n = self.n_segs.load(Acquire);
        let count = n - 1;
        if count >= MAX_SEGMENTS {
            return Err(MapError::Exhausted);
        }
        let total = self.size.load(Acquire);
        // Double the heap, but at least enough for the request; the VA
        // reservation is the hard ceiling.
        let min_bytes = ((need_granules + 2) * GRANULE * 2).next_multiple_of(PAGE);
        let mut new_bytes = total.max(min_bytes);
        if total.checked_add(new_bytes).is_none_or(|t| t > self.reserve) {
            new_bytes = self.reserve - total;
        }
        let (bm_bytes, granules) = seg_geometry(new_bytes);
        if new_bytes < PAGE || granules < need_granules {
            return Err(MapError::Exhausted);
        }
        // (1) Extend the file: the new range is zero-filled, i.e. a valid,
        // empty segment. (A longer leftover from a torn growth is truncated
        // away first — it was never published, so nothing points there.)
        self.file.set_len((total + new_bytes) as u64)?;
        let fd = std::os::fd::AsRawFd::as_raw_fd(&self.file);
        map_file_at(fd, new_bytes, self.base as usize + total, total)?;
        // (2) Stamp the directory entry, (3) publish the count last. The
        // flushes make the ordering hold on real NVM as well; they are
        // deliberately *uncounted* — allocator-internal durability, not part
        // of the measured op-level persistency protocol (persist-placement
        // goldens must not move).
        self.word(W_SEG0 + count).store(new_bytes as u64, SeqCst);
        self.flush_at((W_SEG0 + count) * 8);
        flush::mfence();
        self.word(W_SEG_COUNT).store((count + 1) as u64, SeqCst);
        self.flush_at(W_SEG_COUNT * 8);
        flush::mfence();
        // Volatile publication: slot fields first, slot count (Release) last.
        let g_start = self.total_granules.load(Acquire);
        let slot = &self.segs[n];
        slot.g_start.store(g_start, Relaxed);
        slot.granules.store(granules, Relaxed);
        slot.bm_off.store(total, Relaxed);
        slot.data_off.store(total + bm_bytes, Relaxed);
        self.total_granules.store(g_start + granules, Release);
        self.size.store(total + new_bytes, Release);
        self.n_segs.store(n + 1, Release);
        stats::count_segments_grown(1);
        Ok(())
    }

    /// Adopts any segments a *peer* published since our last look (shared
    /// heaps only; exclusive mode can never miss a segment). Cheap when
    /// nothing changed: one superblock load. This maintains the **volatile
    /// allocator metadata** (segment slots, granule ranges) — it does *not*
    /// gate dereference safety: shared attachers map their whole reservation
    /// file-backed up front, so peer-published bytes are readable before any
    /// refresh runs (see `map_shared_window`). The allocator refreshes on
    /// demand; public so readers about to translate a peer-published granule
    /// (catalog adoption) can refresh without allocating.
    pub fn refresh_segments(&self) -> Result<(), MapError> {
        if !self.shared
            || (self.word(W_SEG_COUNT).load(Acquire) as usize) < self.n_segs.load(Acquire)
        {
            return Ok(());
        }
        let _guard = lock_np(&self.grow_lock);
        self.refresh_segments_locked()
    }

    /// [`MappedHeap::refresh_segments`] body; caller holds `grow_lock`.
    /// Mirrors `grow`'s volatile publication (fields first, counts Release
    /// last), mapping each new segment at its file offset inside our own
    /// reservation — the grower already extended the file before publishing
    /// the directory entry, so `MAP_FIXED` of the published span is safe.
    fn refresh_segments_locked(&self) -> Result<(), MapError> {
        if !self.shared {
            return Ok(());
        }
        let published = self.word(W_SEG_COUNT).load(Acquire) as usize + 1;
        let n = self.n_segs.load(Acquire);
        if published <= n {
            return Ok(());
        }
        if published > MAX_SEGMENTS + 1 {
            return Err(MapError::BadSuperblock("segment count exceeds the directory"));
        }
        let fd = std::os::fd::AsRawFd::as_raw_fd(&self.file);
        for k in n..published {
            let bytes = self.word(W_SEG0 + k - 1).load(Acquire) as usize;
            if bytes < PAGE || !bytes.is_multiple_of(PAGE) {
                return Err(MapError::BadSuperblock("impossible segment-directory entry"));
            }
            let total = self.size.load(Acquire);
            if total + bytes > self.reserve {
                return Err(MapError::BadSuperblock("VA reservation does not cover the segments"));
            }
            map_file_at(fd, bytes, self.base as usize + total, total)?;
            let (bm_bytes, granules) = seg_geometry(bytes);
            let g_start = self.total_granules.load(Acquire);
            let slot = &self.segs[k];
            slot.g_start.store(g_start, Relaxed);
            slot.granules.store(granules, Relaxed);
            slot.bm_off.store(total, Relaxed);
            slot.data_off.store(total + bm_bytes, Relaxed);
            self.total_granules.store(g_start + granules, Release);
            self.size.store(total + bytes, Release);
            self.n_segs.store(k + 1, Release);
        }
        Ok(())
    }

    /// Serializes the shared-mode bump path under the `W_ALLOC_LOCK`
    /// superblock word (holder = participant slot + 1), stealing the lock —
    /// and healing the holder's un-published reservation gap — when the
    /// holder process is dead. Returns `None` in exclusive mode, where the
    /// bump path stays lock-free.
    fn lock_shared_bump(&self) -> Option<BumpLockGuard<'_>> {
        if !self.shared {
            return None;
        }
        let me = self.my_slot.load(Relaxed) as u64 + 1;
        let lock = self.word(W_ALLOC_LOCK);
        let mut spins = 0u32;
        loop {
            if lock.compare_exchange_weak(0, me, AcqRel, Acquire).is_ok() {
                self.heal_bump_gap();
                return Some(BumpLockGuard { heap: self });
            }
            spins = spins.wrapping_add(1);
            if spins.is_multiple_of(1024) {
                // Periodically probe the holder: a SIGKILLed peer can die
                // with the lock held. (Threads of our own process read as
                // live — they release in finite time.)
                let cur = lock.load(Acquire);
                if cur != 0
                    && cur != me
                    && !self.slot_is_live((cur - 1) as usize)
                    && lock.compare_exchange(cur, me, AcqRel, Acquire).is_ok()
                {
                    self.heal_bump_gap();
                    return Some(BumpLockGuard { heap: self });
                }
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }

    /// Closes the gap a dead bump-lock holder left between the persistent
    /// bump word and the reservation cursor: the granules were reserved but
    /// their headers may be missing, so the whole gap is overwritten with
    /// `PAD` filler (split at segment boundaries) and the bump published to
    /// the cursor. Restores the header-before-bump invariant for the next
    /// full-attach walk. Caller holds the bump lock; under it at most one
    /// reservation is ever outstanding, and a gap only exists after a steal.
    fn heal_bump_gap(&self) {
        let bump = self.word(W_BUMP).load(Acquire) as usize;
        let resv = self.word(W_BUMP_RESV).load(Acquire) as usize;
        if bump >= resv {
            return;
        }
        let mut g = bump;
        while g < resv {
            let i = match self.seg_of_granule(g) {
                Some(i) => i,
                None => {
                    let _ = self.refresh_segments();
                    self.seg_of_granule(g).expect("bump gap inside the mapped arena")
                }
            };
            let s = &self.segs[i];
            let end = (s.g_start.load(Relaxed) + s.granules.load(Relaxed)).min(resv);
            self.hdr(g).store(encode_hdr(ST_PAD, (end - g - 1) as u64), Release);
            self.flush_at(self.granule_off(g));
            g = end;
        }
        flush::mfence();
        self.word(W_BUMP).store(resv as u64, Release);
        self.flush_at(W_BUMP * 8);
        flush::mfence();
    }

    /// Reserves `need` contiguous granules from the bump region (growing the
    /// arena when exhausted). Lock-free: CASes the volatile reservation
    /// cursor forward, writing `PAD` filler over any segment tail it skips.
    fn bump_reserve(&self, need: usize) -> Result<Resv, MapError> {
        let resv = self.word(W_BUMP_RESV);
        loop {
            let cur = resv.load(Acquire) as usize;
            let mut pads: Vec<(usize, usize)> = Vec::new();
            let mut pos = cur;
            let start = loop {
                let Some(i) = self.seg_of_granule(pos) else { break None };
                let s = &self.segs[i];
                let seg_end = s.g_start.load(Relaxed) + s.granules.load(Relaxed);
                if pos + need <= seg_end {
                    break Some(pos);
                }
                pads.push((pos, seg_end - pos - 1));
                pos = seg_end;
            };
            let Some(start) = start else {
                self.grow(need)?;
                continue;
            };
            let end = start + need;
            if resv.compare_exchange(cur as u64, end as u64, AcqRel, Acquire).is_err() {
                continue;
            }
            // Won [cur, end): write the pad headers now; the caller writes
            // the block headers and then publishes the persistent bump.
            for (g, ppg) in pads {
                self.hdr(g).store(encode_hdr(ST_PAD, ppg as u64), Release);
            }
            return Ok(Resv { from: cur, start, end });
        }
    }

    /// Publishes the persistent bump word for the reservation `[from, to)`,
    /// **in reservation order**: waits until every earlier reservation has
    /// published (and therefore written its headers), preserving the
    /// header-before-bump invariant across threads.
    fn publish_bump(&self, from: usize, to: usize) {
        let w = self.word(W_BUMP);
        let mut spins = 0u32;
        while w.load(Acquire) != from as u64 {
            spins += 1;
            if spins > 128 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
        w.store(to as u64, Release);
    }

    // -- allocation --------------------------------------------------------

    /// Pops from / pushes to the per-class global lock-free stack. The heads
    /// live in superblock words ([`W_GLOBAL0`]), so in shared mode every
    /// attached process pushes to and pops from the same stacks.
    fn global_pop(&self, cls: usize) -> Option<usize> {
        let head = self.word(W_GLOBAL0 + cls);
        loop {
            let h = head.load(Acquire);
            let g1 = h & 0xFFFF_FFFF;
            if g1 == 0 {
                return None;
            }
            let g = (g1 - 1) as usize;
            let next = self.link_word(g).load(Acquire) & 0xFFFF_FFFF;
            let ver = (h >> 32).wrapping_add(1) & 0xFFFF_FFFF;
            if head.compare_exchange_weak(h, (ver << 32) | next, AcqRel, Acquire).is_ok() {
                return Some(g);
            }
        }
    }

    fn global_push(&self, cls: usize, g: usize) {
        let head = self.word(W_GLOBAL0 + cls);
        loop {
            let h = head.load(Acquire);
            self.link_word(g).store(h & 0xFFFF_FFFF, Release);
            let ver = (h >> 32).wrapping_add(1) & 0xFFFF_FFFF;
            if head.compare_exchange_weak(h, (ver << 32) | (g as u64 + 1), AcqRel, Acquire).is_ok()
            {
                return;
            }
        }
    }

    /// This thread's size-class cache, when it has a registered tid.
    ///
    /// SAFETY (of the cell access): the slot is indexed by the caller's own
    /// tid and only ever touched by that thread.
    #[allow(clippy::mut_from_ref)]
    fn my_cache(&self) -> Option<&mut ThreadCache> {
        let t = tid::try_tid()?;
        Some(unsafe { &mut *self.caches[t].get() })
    }

    /// Allocates a block with at least `bytes` of payload (64-byte aligned,
    /// rounded up to whole granules). The block is `ALLOCATED`: the caller
    /// must initialize the payload and then call [`MappedHeap::commit`];
    /// until then an attach treats it as torn and poisons it.
    pub fn alloc(&self, bytes: usize) -> Result<*mut u8, MapError> {
        stats::count_heap_allocs(1);
        let pg = bytes.max(1).div_ceil(GRANULE);
        if pg <= MAX_CLASS {
            self.alloc_sharded(pg)
        } else {
            self.alloc_cold(pg)
        }
    }

    /// Flips a free-list block back to `ALLOCATED` and returns its payload.
    fn take_block(&self, g: usize, pg: usize) -> *mut u8 {
        self.hdr(g).store(encode_hdr(ST_ALLOCATED, pg as u64), Release);
        self.payload(g)
    }

    fn alloc_sharded(&self, pg: usize) -> Result<*mut u8, MapError> {
        let cls = pg - 1;
        if let Some(cache) = self.my_cache() {
            if let Some(g) = cache[cls].pop() {
                stats::count_free_list_hits(1);
                return Ok(self.take_block(g as usize, pg));
            }
        }
        if let Some(g) = self.global_pop(cls) {
            stats::count_free_list_hits(1);
            return Ok(self.take_block(g, pg));
        }
        // Slab refill: carve SLAB_BLOCKS same-class blocks out of one bump
        // reservation. Block 0 is returned ALLOCATED; the rest are stocked
        // FREE (crash-safe: a lost cache is rebuilt from their headers).
        // Shared mode serializes the reserve+publish window under the bump
        // lock so a SIGKILLed peer can leave at most one healable gap.
        stats::count_slab_refills(1);
        let stride = 1 + pg;
        let bump_lock = self.lock_shared_bump();
        let r = self.bump_reserve(stride * SLAB_BLOCKS)?;
        self.hdr(r.start).store(encode_hdr(ST_ALLOCATED, pg as u64), Release);
        for i in 1..SLAB_BLOCKS {
            self.hdr(r.start + i * stride).store(encode_hdr(ST_FREE, pg as u64), Release);
        }
        self.publish_bump(r.from, r.end);
        drop(bump_lock);
        if let Some(cache) = self.my_cache() {
            for i in 1..SLAB_BLOCKS {
                cache[cls].push((r.start + i * stride) as u32);
            }
        } else {
            for i in 1..SLAB_BLOCKS {
                self.global_push(cls, r.start + i * stride);
            }
        }
        Ok(self.payload(r.start))
    }

    /// The mutex path: blocks above `MAX_CLASS` (recovery areas, roots,
    /// catalogs).
    fn alloc_cold(&self, pg: usize) -> Result<*mut u8, MapError> {
        let mut cold = lock_np(&self.cold);
        if let Some(list) = cold.get_mut(&(pg as u32)) {
            if let Some(g) = list.pop() {
                stats::count_free_list_hits(1);
                return Ok(self.take_block(g as usize, pg));
            }
        }
        // The cold mutex stays held across the bump: large blocks are rare.
        let bump_lock = self.lock_shared_bump();
        let r = self.bump_reserve(1 + pg)?;
        self.hdr(r.start).store(encode_hdr(ST_ALLOCATED, pg as u64), Release);
        self.publish_bump(r.from, r.end);
        drop(bump_lock);
        Ok(self.payload(r.start))
    }

    /// Marks the block at payload `p` fully initialized. Bitmap bit before
    /// header state (see module docs for the crash analysis).
    pub fn commit(&self, p: *mut u8) {
        let g = self.granule_of(p);
        let (state, pg) = decode_hdr(self.hdr(g).load(Acquire)).expect("commit of a non-block");
        debug_assert_eq!(state, ST_ALLOCATED, "commit of a block not in ALLOCATED state");
        self.bm_set(g);
        self.hdr(g).store(encode_hdr(ST_COMMITTED, pg), Release);
    }

    /// Returns the block at payload `p` to the free lists (header to `FREE`
    /// before the bitmap bit clears; no destructor runs).
    ///
    /// # Safety
    /// `p` must be a payload pointer obtained from this heap's
    /// [`MappedHeap::alloc`] whose block no thread can still reach, freed at
    /// most once per allocation.
    pub unsafe fn free(&self, p: *mut u8) {
        let g = self.granule_of(p);
        let (_, pg) = decode_hdr(self.hdr(g).load(Acquire)).expect("free of a non-block");
        self.hdr(g).store(encode_hdr(ST_FREE, pg), Release);
        self.bm_clear(g);
        let pg = pg as usize;
        if pg <= MAX_CLASS {
            let cls = pg - 1;
            if let Some(cache) = self.my_cache() {
                if cache[cls].len() < CACHE_CAP {
                    cache[cls].push(g as u32);
                    return;
                }
            }
            self.global_push(cls, g);
        } else {
            lock_np(&self.cold).entry(pg as u32).or_default().push(g as u32);
        }
    }

    /// Frees every committed block whose payload address is **not** in
    /// `live` (attach-time garbage collection of blocks leaked by a crash:
    /// pool caches, limbo bags, unlinked nodes). Runs per segment on
    /// [`attach_threads`] workers; the frees land in the lock-free stacks /
    /// cold map, which are safe under that concurrency. Returns the number
    /// swept.
    ///
    /// # Safety
    /// Requires quiescent exclusive access, and `live` must contain every
    /// payload address still reachable from the structure's roots.
    pub unsafe fn sweep_except(&self, live: &HashSet<usize>) -> usize {
        let bump = self.word(W_BUMP).load(Acquire) as usize;
        let n = self.n_segs.load(Acquire);
        let threads = attach_threads().min(n).max(1);
        if threads <= 1 {
            let mut swept = 0;
            for i in 0..n {
                swept += unsafe { self.sweep_segment(i, bump, live) };
            }
            return swept;
        }
        let next = AtomicUsize::new(0);
        let swept = AtomicUsize::new(0);
        std::thread::scope(|sc| {
            for _ in 0..threads {
                let next = &next;
                let swept = &swept;
                sc.spawn(move || loop {
                    let i = next.fetch_add(1, SeqCst);
                    if i >= n {
                        break;
                    }
                    swept.fetch_add(unsafe { self.sweep_segment(i, bump, live) }, SeqCst);
                });
            }
        });
        swept.load(SeqCst)
    }

    /// # Safety
    /// As [`MappedHeap::sweep_except`] (one segment's slice).
    unsafe fn sweep_segment(&self, i: usize, bump: usize, live: &HashSet<usize>) -> usize {
        let s = &self.segs[i];
        let g0 = s.g_start.load(Relaxed);
        let limit = bump.min(g0 + s.granules.load(Relaxed));
        let mut swept = 0;
        let mut g = g0;
        while g < limit {
            let (state, pg) = decode_hdr(self.hdr(g).load(Acquire)).expect("swept a corrupt heap");
            let pg = pg as usize;
            if state == ST_COMMITTED && !live.contains(&(self.payload(g) as usize)) {
                unsafe { self.free(self.payload(g)) };
                swept += 1;
            }
            g += 1 + pg;
        }
        swept
    }

    // -- root directory and metadata --------------------------------------

    /// Looks up a root-directory entry.
    pub fn root_get(&self, key: u64) -> Option<*mut u8> {
        debug_assert_ne!(key, 0, "root keys are nonzero");
        for s in 0..ROOT_SLOTS {
            if self.word(W_ROOT0 + 2 * s).load(Acquire) == key {
                let off = self.word(W_ROOT0 + 2 * s + 1).load(Acquire) as usize;
                // SAFETY: offsets are validated at registration.
                return Some(unsafe { self.base.add(off) });
            }
        }
        None
    }

    /// Returns the root block for `key`, allocating (zeroed) and registering
    /// a committed block of `bytes` on first use. The `bool` is `true` iff
    /// the block was created by this call.
    pub fn root_alloc(&self, key: u64, bytes: usize) -> Result<(*mut u8, bool), MapError> {
        if let Some(p) = self.root_get(key) {
            return Ok((p, false));
        }
        let p = self.alloc(bytes)?;
        // Blocks recycled from the free list carry stale payloads.
        unsafe { std::ptr::write_bytes(p, 0, bytes.max(1).div_ceil(GRANULE) * GRANULE) };
        self.commit(p);
        let off = (p as usize - self.base as usize) as u64;
        for s in 0..ROOT_SLOTS {
            let kw = self.word(W_ROOT0 + 2 * s);
            if kw.load(Acquire) == 0 {
                // Offset first, key last: the key word is the valid flag.
                self.word(W_ROOT0 + 2 * s + 1).store(off, SeqCst);
                kw.store(key, SeqCst);
                return Ok((p, true));
            }
        }
        Err(MapError::BadSuperblock("root directory full"))
    }

    /// Structure kind recorded in the superblock (0 = none yet).
    pub fn kind(&self) -> u64 {
        self.word(W_KIND).load(Acquire)
    }

    /// Records the structure kind hosted by this heap.
    pub fn set_kind(&self, kind: u64) {
        self.word(W_KIND).store(kind, SeqCst);
    }

    /// Whether `addr` lies inside this heap's mapping.
    pub fn contains(&self, addr: usize) -> bool {
        addr >= self.base as usize && addr < self.base as usize + self.size.load(Acquire)
    }

    /// Whether the whole `len`-byte span starting at `addr` lies inside the
    /// mapping — the check attach-time pointer validation must use before
    /// dereferencing an object of that size (an object *starting* in the
    /// last bytes of the mapping would otherwise be read past its end).
    pub fn contains_span(&self, addr: usize, len: usize) -> bool {
        addr >= self.base as usize
            && addr
                .checked_add(len)
                .is_some_and(|end| end <= self.base as usize + self.size.load(Acquire))
    }

    /// Base address of the mapping.
    pub fn base(&self) -> *mut u8 {
        self.base
    }

    /// Mapped size in bytes (all segments; grows).
    pub fn size(&self) -> usize {
        self.size.load(Acquire)
    }

    /// Mapped segments (1 until the heap first grows).
    pub fn segments(&self) -> usize {
        self.n_segs.load(Acquire)
    }

    /// Path of the backing file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// What this attach found and did.
    pub fn report(&self) -> &AttachReport {
        &self.report
    }

    /// Granules currently allocated from the bump region (diagnostics).
    pub fn bump_granules(&self) -> usize {
        self.word(W_BUMP).load(Acquire) as usize
    }

    // -- named-structure catalog -------------------------------------------

    /// Returns (allocating on first use) the catalog block: a fixed array
    /// of [`CATALOG_SLOTS`] entries mapping *names* to
    /// `(kind, cfg, root block)` so one heap can host many structures
    /// (the store layer). The caller registers it under its own root key.
    pub fn catalog_root(&self, key: u64) -> Result<*mut u8, MapError> {
        let (p, _) = self.root_alloc(key, CATALOG_SLOTS * CATALOG_ENTRY_BYTES)?;
        Ok(p)
    }

    /// Entry slot `i` of the catalog block at `cat`.
    ///
    /// # Safety
    /// `cat` must be the committed catalog block of this heap.
    unsafe fn catalog_word(&self, cat: *mut u8, slot: usize, word: usize) -> &AtomicU64 {
        debug_assert!(slot < CATALOG_SLOTS && word < CATALOG_ENTRY_BYTES / 8);
        // SAFETY: in-bounds word of the committed catalog block.
        unsafe { &*(cat.add(slot * CATALOG_ENTRY_BYTES + word * 8) as *const AtomicU64) }
    }

    /// Decodes every valid catalog entry. Returns a typed
    /// [`MapError::CorruptCatalog`] for any slot whose kind word is set but
    /// whose fields are inconsistent (root offset out of bounds, oversized
    /// or non-UTF-8 name) — shapes no crash ordering can produce.
    ///
    /// # Safety
    /// `cat` must be the committed catalog block of this heap.
    pub unsafe fn catalog_entries(&self, cat: *mut u8) -> Result<Vec<CatalogEntry>, MapError> {
        let mut out = Vec::new();
        for slot in 0..CATALOG_SLOTS {
            // SAFETY: in-bounds catalog words.
            let e = unsafe { self.catalog_read(cat, slot) }?;
            if let Some(e) = e {
                out.push(e);
            }
        }
        Ok(out)
    }

    /// Decodes one catalog slot (`None` when empty).
    ///
    /// # Safety
    /// As [`MappedHeap::catalog_entries`].
    unsafe fn catalog_read(
        &self,
        cat: *mut u8,
        slot: usize,
    ) -> Result<Option<CatalogEntry>, MapError> {
        // SAFETY: in-bounds catalog words per CATALOG_SLOTS.
        let w = |i: usize| unsafe { self.catalog_word(cat, slot, i) }.load(Acquire);
        let kind = w(0);
        if kind == 0 {
            return Ok(None);
        }
        let cfg = w(1);
        let root_off = w(2) as usize;
        let name_len = w(3) as usize;
        if name_len == 0
            || name_len > CATALOG_NAME_BYTES
            || root_off < self.data_off
            || root_off >= self.size.load(Acquire)
        {
            return Err(MapError::CorruptCatalog { slot });
        }
        let mut raw = [0u8; CATALOG_NAME_BYTES];
        for (i, chunk) in raw.chunks_mut(8).enumerate() {
            chunk.copy_from_slice(&w(4 + i).to_le_bytes());
        }
        let Ok(name) = std::str::from_utf8(&raw[..name_len]) else {
            return Err(MapError::CorruptCatalog { slot });
        };
        Ok(Some(CatalogEntry {
            slot,
            name: name.to_string(),
            kind,
            cfg,
            // SAFETY: offset bounds-checked above.
            root: unsafe { self.base.add(root_off) },
        }))
    }

    /// Appends a named entry: allocates a zeroed, committed root block of
    /// `root_bytes`, writes the entry fields, and stamps the kind word
    /// **last** (the valid flag) — a creation cut short by a kill leaves
    /// the slot empty and the orphaned root block unreferenced, which the
    /// next attach sweeps. The caller must have checked the name is not
    /// already present.
    ///
    /// # Safety
    /// `cat` must be the committed catalog block of this heap; single
    /// attach-owner discipline (no concurrent catalog writers).
    pub unsafe fn catalog_append(
        &self,
        cat: *mut u8,
        name: &str,
        kind: u64,
        cfg: u64,
        root_bytes: usize,
    ) -> Result<*mut u8, MapError> {
        assert!(kind != 0, "kind 0 is the empty-slot marker");
        assert!(
            !name.is_empty() && name.len() <= CATALOG_NAME_BYTES,
            "catalog names must be 1..={CATALOG_NAME_BYTES} bytes, got {:?}",
            name
        );
        let slot = (0..CATALOG_SLOTS)
            // SAFETY: in-bounds catalog words.
            .find(|&s| unsafe { self.catalog_word(cat, s, 0) }.load(Acquire) == 0)
            .ok_or(MapError::CatalogFull)?;
        let root = self.alloc(root_bytes)?;
        // Blocks recycled from the free list carry stale payloads.
        // SAFETY: freshly allocated block of at least root_bytes.
        unsafe { std::ptr::write_bytes(root, 0, root_bytes.max(1).div_ceil(GRANULE) * GRANULE) };
        self.commit(root);
        let mut raw = [0u8; CATALOG_NAME_BYTES];
        raw[..name.len()].copy_from_slice(name.as_bytes());
        // SAFETY: in-bounds catalog words; fields first, kind (valid) last.
        unsafe {
            self.catalog_word(cat, slot, 1).store(cfg, SeqCst);
            self.catalog_word(cat, slot, 2)
                .store((root as usize - self.base as usize) as u64, SeqCst);
            self.catalog_word(cat, slot, 3).store(name.len() as u64, SeqCst);
            for (i, chunk) in raw.chunks(8).enumerate() {
                self.catalog_word(cat, slot, 4 + i)
                    .store(u64::from_le_bytes(chunk.try_into().unwrap()), SeqCst);
            }
            self.catalog_word(cat, slot, 0).store(kind, SeqCst);
        }
        Ok(root)
    }
}

/// Catalog geometry: entries per heap and bytes per entry / name.
pub const CATALOG_SLOTS: usize = 16;
/// Bytes of one catalog entry (one allocation granule).
pub const CATALOG_ENTRY_BYTES: usize = 64;
/// Maximum name length in bytes (UTF-8).
pub const CATALOG_NAME_BYTES: usize = 32;

/// One decoded catalog entry: a named structure hosted by the heap.
#[derive(Debug, Clone)]
pub struct CatalogEntry {
    /// Catalog slot index (error reporting).
    pub slot: usize,
    /// The structure's name (unique per heap).
    pub name: String,
    /// Structure-kind tag (the store layer interprets it).
    pub kind: u64,
    /// Configuration word recorded at creation.
    pub cfg: u64,
    /// The structure's root block payload.
    pub root: *mut u8,
}

// ---------------------------------------------------------------------------
// The persistency model
// ---------------------------------------------------------------------------

/// Shared-cache persistency model over a [`MappedHeap`]: the same instruction
/// behaviour as [`crate::RealNvm`], from the same definition (`pwb` = the
/// machine's [`flush::Kind`], `pfence` = `sfence` when that kind is weakly
/// ordered, `psync` = `mfence`, all counted), but the persistent words live in
/// a file-backed mapping, so the structure state survives the process. See
/// the module docs for what `SIGKILL`-durability does and does not require.
pub struct MappedNvm;

crate::persist::real_flush_persist!(MappedNvm, "mapped", true);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PWord, Persist};

    fn tmp(name: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!(
            "isb_mapped_{}_{}_{name}.heap",
            std::process::id(),
            rand_suffix()
        ));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn rand_suffix() -> u64 {
        use std::time::{SystemTime, UNIX_EPOCH};
        SystemTime::now().duration_since(UNIX_EPOCH).unwrap().subsec_nanos() as u64
    }

    #[test]
    fn create_alloc_commit_reattach_roundtrip() {
        let path = tmp("roundtrip");
        let vals: Vec<u64> = (0..100).map(|i| 0x1234_5678 + i).collect();
        let offs: Vec<usize> = {
            let heap = MappedHeap::create(&path, MIN_HEAP_BYTES).unwrap();
            assert!(heap.report().created);
            vals.iter()
                .map(|&v| {
                    let p = heap.alloc(24).unwrap();
                    unsafe { (p as *mut u64).write(v) };
                    heap.commit(p);
                    p as usize - heap.base() as usize
                })
                .collect()
        }; // heap dropped: unmapped, file persists
        let heap = MappedHeap::attach(&path).unwrap();
        assert!(!heap.report().created);
        assert_eq!(heap.report().committed, 100);
        assert_eq!(heap.report().poisoned, 0);
        for (off, &v) in offs.iter().zip(&vals) {
            let p = unsafe { heap.base().add(*off) } as *const u64;
            assert_eq!(unsafe { p.read() }, v);
        }
        drop(heap);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_allocation_is_poisoned_and_recycled() {
        let path = tmp("torn");
        {
            let heap = MappedHeap::create(&path, MIN_HEAP_BYTES).unwrap();
            let p = heap.alloc(64).unwrap();
            unsafe { (p as *mut u64).write(7) };
            heap.commit(p);
            let torn = heap.alloc(64).unwrap();
            unsafe { (torn as *mut u64).write(0xAAAA) };
            // no commit: simulates a crash mid-allocation
        }
        let heap = MappedHeap::attach(&path).unwrap();
        assert_eq!(heap.report().poisoned, 1);
        assert_eq!(heap.report().committed, 1);
        // The torn block was recycled: the next same-size alloc reuses it,
        // and its payload was poisoned in between.
        let p = heap.alloc(64).unwrap();
        assert_eq!(unsafe { (p as *const u64).read() }, POISON);
        drop(heap);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn free_and_reuse_across_attach() {
        let path = tmp("freelist");
        let (off_kept, off_freed) = {
            let heap = MappedHeap::create(&path, MIN_HEAP_BYTES).unwrap();
            let a = heap.alloc(16).unwrap();
            heap.commit(a);
            let b = heap.alloc(16).unwrap();
            heap.commit(b);
            unsafe { heap.free(b) };
            (a as usize - heap.base() as usize, b as usize - heap.base() as usize)
        };
        let heap = MappedHeap::attach(&path).unwrap();
        assert_eq!(heap.report().committed, 1);
        // The slab refill carved extra FREE blocks besides the one we freed.
        assert!(heap.report().free_blocks >= 1);
        // Free blocks feed later allocations of their size class: the next
        // alloc comes off a rebuilt free list, not the bump cursor.
        let bump = heap.bump_granules();
        let c = heap.alloc(16).unwrap();
        assert!(c as usize - heap.base() as usize != off_kept);
        assert_eq!(heap.bump_granules(), bump, "allocation bypassed the free lists");
        let _ = off_freed;
        drop(heap);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn root_directory_persists() {
        let path = tmp("roots");
        {
            let heap = MappedHeap::create(&path, MIN_HEAP_BYTES).unwrap();
            let (p, fresh) = heap.root_alloc(42, 128).unwrap();
            assert!(fresh);
            unsafe { (p as *mut u64).write(0xC0FFEE) };
            heap.set_kind(7);
        }
        let heap = MappedHeap::attach(&path).unwrap();
        assert_eq!(heap.kind(), 7);
        let (p, fresh) = heap.root_alloc(42, 128).unwrap();
        assert!(!fresh);
        assert_eq!(unsafe { (p as *const u64).read() }, 0xC0FFEE);
        assert!(heap.root_get(99).is_none());
        drop(heap);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn exhaustion_is_a_typed_error() {
        let path = tmp("exhaust");
        // Growth disabled: the reservation equals the initial segment.
        let heap = MappedHeap::create_bounded(&path, MIN_HEAP_BYTES, MIN_HEAP_BYTES).unwrap();
        let mut n = 0;
        loop {
            match heap.alloc(4096) {
                Ok(p) => {
                    heap.commit(p);
                    n += 1;
                }
                Err(MapError::Exhausted) => break,
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(n > 5, "only {n} blocks fit");
        assert_eq!(heap.segments(), 1);
        drop(heap);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn heap_grows_past_initial_segment_and_reattaches() {
        let path = tmp("grow");
        let offs: Vec<usize> = {
            let heap = MappedHeap::create(&path, MIN_HEAP_BYTES).unwrap();
            // ~4096 blocks of 2 payload granules ≈ 768 KiB of data — far
            // beyond the 64 KiB initial segment.
            let offs = (0..4096u64)
                .map(|i| {
                    let p = heap.alloc(120).unwrap();
                    unsafe { (p as *mut u64).write(i) };
                    heap.commit(p);
                    p as usize - heap.base() as usize
                })
                .collect();
            assert!(heap.segments() > 1, "heap never grew");
            offs
        };
        let heap = MappedHeap::attach(&path).unwrap();
        assert!(heap.report().segments > 1);
        assert_eq!(heap.report().committed, 4096);
        assert_eq!(heap.report().poisoned, 0);
        for (i, off) in offs.iter().enumerate() {
            let p = unsafe { heap.base().add(*off) } as *const u64;
            assert_eq!(unsafe { p.read() }, i as u64);
        }
        // The grown arena keeps allocating without error.
        let p = heap.alloc(120).unwrap();
        heap.commit(p);
        drop(heap);
        let _ = std::fs::remove_file(&path);
    }

    /// A kill between growth publishing a segment and the first bump
    /// publication into it leaves a segment wholly past the bump: empty, not
    /// corrupt (the mid-growth SIGKILL leg of `restart.rs` hits this window).
    #[test]
    fn attach_accepts_grown_segment_the_bump_never_reached() {
        let path = tmp("grow_nobump");
        {
            let heap = MappedHeap::create(&path, MIN_HEAP_BYTES).unwrap();
            let p = heap.alloc(64).unwrap();
            heap.commit(p);
            // More than segment 0 has left, so this publishes segment 1.
            heap.grow(heap.total_granules.load(Acquire)).unwrap();
            assert_eq!(heap.segments(), 2);
        }
        let heap = MappedHeap::attach(&path).unwrap();
        assert_eq!((heap.report().segments, heap.report().committed), (2, 1));
        let p = heap.alloc(64).unwrap();
        heap.commit(p);
        drop(heap);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn grown_heap_relocates_across_segments() {
        let path = tmp("grow_reloc");
        let (off_cell, off_target) = {
            let heap = MappedHeap::create(&path, MIN_HEAP_BYTES).unwrap();
            // Fill past the first segment, then store a cross-segment
            // pointer: a late (segment-1) cell pointing at an early
            // (segment-0) target.
            let target = heap.alloc(8).unwrap();
            unsafe { (target as *mut u64).write(4242) };
            heap.commit(target);
            for _ in 0..2048 {
                let p = heap.alloc(120).unwrap();
                heap.commit(p);
            }
            assert!(heap.segments() > 1);
            let cell = heap.alloc(16).unwrap();
            unsafe { (cell as *mut u64).write(target as u64 | 1) };
            heap.commit(cell);
            (cell as usize - heap.base() as usize, target as usize - heap.base() as usize)
        };
        let heap = MappedHeap::attach_opts(&path, true).unwrap();
        let cell = unsafe { heap.base().add(off_cell) } as *const u64;
        let want = (heap.base() as usize + off_target) as u64 | 1;
        assert_eq!(unsafe { cell.read() }, want, "cross-segment pointer rebased");
        drop(heap);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn forced_relocation_rebases_in_arena_pointers() {
        let path = tmp("reloc");
        let (old_base, off_cell, off_target) = {
            let heap = MappedHeap::create(&path, MIN_HEAP_BYTES).unwrap();
            let target = heap.alloc(8).unwrap();
            unsafe { (target as *mut u64).write(4242) };
            heap.commit(target);
            let cell = heap.alloc(16).unwrap();
            // word 0: tagged in-arena pointer; word 1: user data that must
            // NOT be rebased.
            unsafe {
                (cell as *mut u64).write(target as u64 | 1);
                (cell as *mut u64).add(1).write(555);
            }
            heap.commit(cell);
            (
                heap.base() as usize,
                cell as usize - heap.base() as usize,
                target as usize - heap.base() as usize,
            )
        };
        let heap = MappedHeap::attach_opts(&path, true).unwrap();
        assert!(heap.report().relocated || heap.base() as usize == old_base);
        let cell = unsafe { heap.base().add(off_cell) } as *const u64;
        let want = (heap.base() as usize + off_target) as u64 | 1;
        assert_eq!(unsafe { cell.read() }, want, "tagged pointer rebased, tag preserved");
        assert_eq!(unsafe { cell.add(1).read() }, 555, "non-pointer word untouched");
        // The rebased pointer dereferences to the original value.
        let t = (unsafe { cell.read() } & !1) as *const u64;
        assert_eq!(unsafe { t.read() }, 4242);
        drop(heap);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sweep_frees_unmarked_blocks() {
        let path = tmp("sweep");
        let heap = MappedHeap::create(&path, MIN_HEAP_BYTES).unwrap();
        let keep = heap.alloc(32).unwrap();
        heap.commit(keep);
        let lost = heap.alloc(32).unwrap();
        heap.commit(lost);
        let mut live = HashSet::new();
        live.insert(keep as usize);
        assert_eq!(unsafe { heap.sweep_except(&live) }, 1);
        // The swept block is reusable.
        let again = heap.alloc(32).unwrap();
        assert_eq!(again, lost);
        drop(heap);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sharded_allocator_round_trips_across_threads() {
        let path = tmp("sharded");
        let heap = MappedHeap::create(&path, MIN_HEAP_BYTES).unwrap();
        let mut handles = Vec::new();
        for t in 0..4usize {
            let heap = Arc::clone(&heap);
            handles.push(std::thread::spawn(move || {
                tid::set_tid(MAX_PROCS - 8 + t);
                let mut ptrs = Vec::new();
                for i in 0..200u64 {
                    let p = heap.alloc(48).unwrap();
                    unsafe { (p as *mut u64).write((t as u64) << 32 | i) };
                    heap.commit(p);
                    ptrs.push((p, (t as u64) << 32 | i));
                    if i % 3 == 0 {
                        let (q, _) = ptrs.swap_remove(ptrs.len() / 2);
                        unsafe { heap.free(q) };
                    }
                }
                for (p, v) in ptrs {
                    assert_eq!(unsafe { (p as *const u64).read() }, v);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        drop(heap);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn cold_free_list_reuses_large_blocks() {
        let path = tmp("cold");
        let heap = MappedHeap::create(&path, MIN_HEAP_BYTES).unwrap();
        let big = (MAX_CLASS + 1) * GRANULE;
        let a = heap.alloc(big).unwrap();
        heap.commit(a);
        unsafe { heap.free(a) };
        let b = heap.alloc(big).unwrap();
        assert_eq!(a, b, "cold free list reuses the freed block");
        drop(heap);
        let _ = std::fs::remove_file(&path);
    }

    /// Configurable liveness verdicts: a pid is alive iff it is in the set.
    /// Birth stamps are ignored, so pid-reuse semantics stay with the real
    /// probe tests in `crate::liveness`.
    struct FakeProbe(Mutex<HashSet<u64>>);

    impl FakeProbe {
        fn with(pids: &[u64]) -> Arc<Self> {
            let mut set: HashSet<u64> = pids.iter().copied().collect();
            set.insert(std::process::id() as u64);
            Arc::new(FakeProbe(Mutex::new(set)))
        }
        fn kill(&self, pid: u64) {
            self.0.lock().unwrap().remove(&pid);
        }
    }

    impl crate::liveness::PidLiveness for FakeProbe {
        fn is_alive(&self, pid: u64, _birth: u64) -> bool {
            self.0.lock().unwrap().contains(&pid)
        }
    }

    #[test]
    fn exclusive_double_attach_fails_typed() {
        let path = tmp("double");
        let heap = MappedHeap::create(&path, MIN_HEAP_BYTES).unwrap();
        assert_eq!(heap.my_participant(), Some(0));
        match MappedHeap::attach(&path) {
            Err(MapError::AlreadyAttached { pid }) => {
                assert_eq!(pid, std::process::id() as u64)
            }
            other => panic!("expected AlreadyAttached, got {other:?}"),
        }
        // A clean drop retires the slot; the next attach succeeds.
        drop(heap);
        let heap = MappedHeap::attach(&path).unwrap();
        assert_eq!(heap.participants().len(), 1);
        drop(heap);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn stale_and_pid_reused_slots_read_as_dead_and_are_reclaimed() {
        let path = tmp("stale");
        {
            let heap = MappedHeap::create(&path, MIN_HEAP_BYTES).unwrap();
            // A nonexistent pid and our own pid with a recycled (wrong)
            // birth stamp: both must read as dead.
            heap.debug_register_peer(u32::MAX as u64, 1).unwrap();
            let my_birth = crate::liveness::self_birth();
            heap.debug_register_peer(std::process::id() as u64, my_birth + 17).unwrap();
            let dead = heap.dead_participants();
            assert_eq!(dead.len(), 2, "fake peers must both read as dead: {dead:?}");
            // Leak the slots: skip the Drop cleanup of *our* slot too by
            // forgetting the heap? No — drop normally; only our own slot is
            // cleared, the fake peers stay behind as stale slots.
        }
        let heap = MappedHeap::attach(&path).unwrap();
        // The full attach reclaimed the two stale slots and claimed ours.
        assert_eq!(heap.participants().len(), 1);
        drop(heap);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn lease_cas_arbitration_has_a_single_winner() {
        tid::set_tid(50); // own stats slot: sibling tests steal leases too
        let path = tmp("lease");
        let probe = FakeProbe::with(&[1111, 2222]);
        let heap = MappedHeap::open_shared_with(&path, MIN_HEAP_BYTES, probe.clone()).unwrap();
        heap.release_attach_lock();
        let a = heap.debug_register_peer(1111, 5).unwrap();
        let b = heap.debug_register_peer(2222, 5).unwrap();
        let dead = heap.debug_register_peer(4242, 5).unwrap();
        assert_eq!(heap.dead_participants(), vec![dead]);

        // Two live survivors race for the lease (e.g. both saw a "dead" —
        // possibly falsely-dead — verdict): exactly one wins the CAS, the
        // loser observes a live holder and backs off.
        assert_eq!(heap.lease_try_claim_for(dead, a), LeaseOutcome::Won { seq: 1 });
        assert_eq!(heap.lease_try_claim_for(dead, b), LeaseOutcome::Held { holder: a });
        // Re-entry by the holder is idempotent.
        assert_eq!(heap.lease_try_claim_for(dead, a), LeaseOutcome::Won { seq: 1 });

        // The recoverer itself dies: the lease is stolen with a fresh seq.
        let before = stats::Snapshot::of_tid(50);
        probe.kill(1111);
        assert_eq!(heap.lease_try_claim_for(dead, b), LeaseOutcome::Won { seq: 2 });
        assert_eq!(stats::Snapshot::of_tid(50).since(&before).leases_stolen, 1);

        // Recovery completed: the slot is reclaimed, late claimants see Gone.
        heap.clear_participant(dead);
        assert_eq!(heap.lease_try_claim_for(dead, b), LeaseOutcome::Gone);
        drop(heap);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn lease_refuses_live_slots() {
        let path = tmp("leaselive");
        let probe = FakeProbe::with(&[1111, 2222]);
        let heap = MappedHeap::open_shared_with(&path, MIN_HEAP_BYTES, probe.clone()).unwrap();
        heap.release_attach_lock();
        let a = heap.debug_register_peer(1111, 5).unwrap();
        let b = heap.debug_register_peer(2222, 5).unwrap();
        // A stale dead-list (or a caller bug) names a live peer: the lease
        // must refuse, leaving the slot's registration untouched.
        assert_eq!(heap.lease_try_claim_for(a, b), LeaseOutcome::Live { pid: 1111 });
        assert!(heap.participants().iter().any(|&(s, pid, _)| s == a && pid == 1111));
        // The verdict flips (the peer actually died): now claimable.
        probe.kill(1111);
        assert_eq!(heap.lease_try_claim_for(a, b), LeaseOutcome::Won { seq: 1 });
        drop(heap);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_claims_are_never_leased_and_reclaim_under_the_flock() {
        let path = tmp("torn");
        let probe = FakeProbe::with(&[2222]);
        let heap = MappedHeap::open_shared_with(&path, MIN_HEAP_BYTES, probe).unwrap();
        heap.release_attach_lock();
        let b = heap.debug_register_peer(2222, 5).unwrap();
        let torn = heap.debug_register_peer(4242, 5).unwrap();
        heap.debug_tear_claim(torn);
        // The torn slot reads as dead, but the lease path refuses it — the
        // sentinel may equally be a live joiner between CAS and pid stamp.
        assert!(heap.dead_participants().contains(&torn));
        assert_eq!(heap.lease_try_claim_for(torn, b), LeaseOutcome::Torn);
        // Under the attach flock the sentinel can only be a crashed claimant.
        assert!(heap.reclaim_torn_claim(torn).unwrap());
        assert!(!heap.reclaim_torn_claim(torn).unwrap(), "second reclaim is a no-op");
        assert_eq!(heap.lease_try_claim_for(torn, b), LeaseOutcome::Gone);
        // The reclaimed slot is re-claimable by a fresh participant.
        assert_eq!(heap.debug_register_peer(5555, 9).unwrap(), torn);
        drop(heap);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn join_refuses_live_exclusive_attacher() {
        let path = tmp("exclpeer");
        // A real exclusive attach (default liveness probe) holds the heap.
        let excl = MappedHeap::create(&path, MIN_HEAP_BYTES).unwrap();
        // A shared open sees a live participant and takes the join path —
        // which must refuse: the live peer registered MODE_EXCLUSIVE.
        let probe = FakeProbe::with(&[]);
        match MappedHeap::open_shared_with(&path, MIN_HEAP_BYTES, probe.clone()) {
            Err(MapError::ExclusivePeer { pid }) => assert_eq!(pid, std::process::id() as u64),
            other => panic!("expected ExclusivePeer, got {other:?}"),
        }
        drop(excl);
        // Once the exclusive attacher detaches cleanly, shared open works.
        let heap = MappedHeap::open_shared_with(&path, MIN_HEAP_BYTES, probe).unwrap();
        assert!(heap.is_shared());
        heap.release_attach_lock();
        drop(heap);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn shared_join_with_base_taken_fails_typed() {
        let path = tmp("basetaken");
        let probe = FakeProbe::with(&[]);
        let heap = MappedHeap::open_shared_with(&path, MIN_HEAP_BYTES, probe.clone()).unwrap();
        assert!(heap.is_shared());
        assert!(!heap.report().joined);
        heap.release_attach_lock();
        // A second open_shared in the *same* process sees a live participant
        // (us) and takes the join path — which cannot map the recorded base
        // because our own mapping occupies it.
        match MappedHeap::open_shared_with(&path, MIN_HEAP_BYTES, probe.clone()) {
            Err(MapError::BaseTaken { base }) => assert_eq!(base, heap.base() as u64),
            other => panic!("expected BaseTaken, got {other:?}"),
        }
        drop(heap);
        // After a clean exit no participant is live: full attach, not join.
        let heap = MappedHeap::open_shared_with(&path, MIN_HEAP_BYTES, probe).unwrap();
        assert!(!heap.report().joined);
        heap.release_attach_lock();
        drop(heap);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rec_geometry_mismatch_is_typed() {
        let path = tmp("recgeom");
        let heap = MappedHeap::create(&path, MIN_HEAP_BYTES).unwrap();
        heap.validate_rec_geometry(64, 128).unwrap();
        heap.validate_rec_geometry(64, 128).unwrap();
        match heap.validate_rec_geometry(64, 256) {
            Err(MapError::LayoutMismatch { what, expected, found }) => {
                assert_eq!(what, "recovery-area slot stride");
                assert_eq!(expected, 256);
                assert_eq!(found, 128);
            }
            other => panic!("expected LayoutMismatch, got {other:?}"),
        }
        drop(heap);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mapped_nvm_counts_like_real() {
        crate::tid::set_tid(49);
        let before = stats::Snapshot::of_tid(49);
        let w: PWord<MappedNvm> = PWord::new(9);
        MappedNvm::pwb(&w);
        MappedNvm::pbarrier(&w);
        MappedNvm::psync();
        assert_eq!(w.load(), 9);
        let d = stats::Snapshot::of_tid(49).since(&before);
        assert_eq!(d.pwb, 1);
        assert_eq!(d.pbarrier, 1);
        assert_eq!(d.psync, 1);
    }

    #[test]
    fn mapped_heap_word_flushes_under_every_kind() {
        crate::tid::set_tid(44);
        let path = tmp("flushkind");
        let heap = MappedHeap::create(&path, MIN_HEAP_BYTES).unwrap();
        let p = heap.alloc(64).unwrap();
        heap.commit(p);
        // SAFETY: a committed, 64-aligned, 64-byte block of the live mapping
        // nothing else references; `PWord<MappedNvm>` is one `AtomicU64`.
        let w = unsafe {
            (p as *mut PWord<MappedNvm>).write(PWord::new(0));
            &*(p as *const PWord<MappedNvm>)
        };
        crate::persist::tests::every_kind_flushes_and_counts(w, 44);
        // The uncounted metadata flush goes through the same entry point.
        crate::flush::tests::for_each_supported_kind(|_| {
            let before = stats::Snapshot::of_tid(44);
            heap.flush_at(W_BUMP * 8);
            flush::mfence();
            assert_eq!(stats::Snapshot::of_tid(44).since(&before), stats::Snapshot::default());
        });
        drop(heap);
        let _ = std::fs::remove_file(&path);
    }
}
