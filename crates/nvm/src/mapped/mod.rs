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
//! * [`MappedHeap`] — the arena itself, one layer per file, each opening with
//!   the invariants it owns: `sys` (the raw syscalls: one mapping per heap,
//!   the attach flock), `superblock` (page-0 word layout, its pre-mmap
//!   parser, the one durable metadata write), `segments` (the growable
//!   contiguous granule space and its bump cursor), `alloc` (slab and block
//!   headers, commit bitmaps, the sharded allocator, the attach walk and
//!   sweep), `registry` (participants and recovery leases),
//!   `catalog` (named structures), `fanout` (the one attach-time thread
//!   fan-out). This file holds the handle, the errors and the attach
//!   pipeline that strings the layers together.
//! * [`AttachReport`] — what an attach found: whether the heap was created
//!   fresh or joined live, how many segments it spans, and how many torn
//!   tail allocations were poisoned.
//!
//! ## One attach pipeline
//!
//! There is one attach mode. Create, full attach and join all run under the
//! attach flock and share one shape: read and validate page 0 with `pread`
//! (nothing is mapped on the word of a damaged superblock), decide from the
//! registry's live participants (create refuses a heap with one —
//! [`MapError::AlreadyAttached`]; an open *joins* it), map the **whole VA
//! reservation file-backed** in one `mmap`, build the handle through the
//! one constructor, and claim a registry slot. A full attach additionally
//! reclaims stale slots and walks and heals every segment; a join runs none
//! of that — the heap is live state, not a crash image. Every attacher
//! serializes the bump path under the heap's bump lock and adopts segments a
//! peer published on demand, and `isb` puts every collector of every
//! attacher into the heap's one epoch domain.
//!
//! ## Addressing
//!
//! Every attacher maps wherever the kernel puts the reservation
//! ([`MappedHeap::base`] differs per attach, and per handle when one process
//! holds two). Nothing in the image depends on it: the superblock, the root
//! directory and the catalog name blocks by heap offset, and the structures
//! store their links as heap offsets too (`isb::tag::Base`, DESIGN.md §10),
//! so no attach ever rewrites a payload word.

mod alloc;
mod catalog;
mod fanout;
mod registry;
mod segments;
mod superblock;
mod sys;

pub use alloc::{block_bytes, HeapUsage, CLASSES, HALF, MAX_CLASS};
pub use catalog::{CatalogEntry, CATALOG_ENTRY_BYTES, CATALOG_NAME_BYTES, CATALOG_SLOTS};
pub use fanout::fan_out;
pub use registry::LeaseOutcome;
pub use superblock::{describe_page0, MAX_SEGMENTS, PART_SLOTS, ROOT_SLOTS};

use crate::liveness::PidLiveness;
use crate::pad::CachePadded;
use crate::MAX_PROCS;
use segments::{seg_geometry, SegSlot};
use std::cell::UnsafeCell;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering::{AcqRel, Acquire, Relaxed, SeqCst};
use std::sync::atomic::{AtomicBool, AtomicUsize};
use std::sync::{Arc, Mutex, MutexGuard};
use superblock::{persist, persist_line, Page0, SbGeom, PAGE, W_EPOCH};

/// Allocation granule (one cache line): blocks above [`HALF`] bytes are
/// sized and aligned to it, smaller ones are halves of it, and the commit
/// bitmaps track one bit per granule.
pub const GRANULE: usize = 64;
/// Superblock magic ("ISBMAP01").
pub const MAGIC: u64 = 0x4953_424D_4150_3031;
/// On-disk format version. v2: the root directory's per-structure keys
/// (`HEADS`/`ANCHOR`) gave way to one generic key and the named-structure
/// catalog was added. (The single-structure heap behind that key was retired
/// later with no version bump: a store's image did not change, and the `isb`
/// store refuses the old heap by its superblock kind.) v3: the growable
/// multi-segment arena — segment directory (`W_SEG_COUNT`, per-segment byte
/// lengths) and the VA reservation size joined the superblock, and the `PAD`
/// block state was added for segment-tail filler. Pre-v3 heaps must fail typed
/// (`BadVersion`) rather than silently attach with an empty directory. v4:
/// the structures' operation descriptor (`isb::engine::Info`) lost its
/// `result` word to a done bit in its first word and moved its first new-node
/// entry into its first cache line, so a v3 heap's published descriptors
/// would be misread; it fails typed (`BadVersion(3)`). v5: small blocks
/// share one header granule per 64-granule slab (class, allocated and
/// committed masks) instead of one each, cold blocks and pads start on a
/// slab boundary, a commit bit marks a payload's first granule rather than
/// a header, and the free-list links moved into the free payloads; a v4
/// walk would misread every block, so a v4 heap fails typed
/// (`BadVersion(4)`). v6: the structures' links became heap offsets and
/// superblock word 2 (the recorded base) was retired; a v5 heap's links are
/// absolute addresses, so it fails typed (`BadVersion(5)`). v7: the
/// descriptor shrank from three cache lines to two — its sets packed into
/// one array whose offsets follow the set sizes, the second write entry
/// gone — so a v6 heap's descriptors would be misread and its slabs hold
/// the old size class; it fails typed (`BadVersion(6)`). v8: one attach
/// mode — the registry slot's attach-mode word is neither written nor read,
/// and every attacher joins one epoch domain and takes the bump lock; a v7
/// heap's live peer may be an exclusive attacher that does neither, so it
/// fails typed (`BadVersion(7)`) and is left as it was. v9: validated
/// publication — an `Isb-LP` recovery slot's `CP_q` holds the digest of the
/// publication its `RD_q` names, not 1, and a descriptor's first word
/// carries its new nodes' word count; a v8 heap's slots would all read as
/// torn publications, so it fails typed (`BadVersion(8)`) and is left as it
/// was. v10: a recorded publication rides the publish window — the recovery
/// line also holds its rollback target and record checks, which a v9
/// writer left stale beside a recorded `RD_q`, so a v9 heap fails typed
/// (`BadVersion(9)`) and is left as it was. v11: descriptors come in two
/// classes, one cache line (the queue's) and two — the volatile bookkeeping
/// moved to word 0 as one word with the block's class byte, and new-set
/// entry 0 is no longer stored — so a v10 heap's descriptors would be
/// misread; it fails typed (`BadVersion(10)`) and is left as it was. v12:
/// the half slab — blocks of up to 32 bytes (every node) are halves of a
/// granule, two to a payload granule under one header whose words 3..5
/// hold the odd halves' masks and bitmap, and the free stacks name blocks by
/// half-granule index — so a v11 walk would misread class 0 and every odd
/// half; it fails typed (`BadVersion(11)`) and is left as it was. v13: a
/// descriptor stores a response code, its write's cell and its write's old
/// value in `meta` whenever its other words give them, the set words start
/// right after `meta`, and the map, list and stack draw one-line
/// descriptors — so a v12 heap's descriptors would be misread; it fails
/// typed (`BadVersion(12)`) and is left as it was.
pub const VERSION: u64 = 13;
/// Pattern written over the payload of torn (allocated-but-never-committed)
/// tail blocks before they are returned to the free list.
pub const POISON: u64 = 0xDEAD_BEEF_DEAD_BEEF;
/// Tids per participant band (`MAX_PROCS / PART_SLOTS`).
pub const PART_TIDS: usize = MAX_PROCS / PART_SLOTS;
/// Smallest heap [`MappedHeap::create`] accepts.
pub const MIN_HEAP_BYTES: usize = 64 * 1024;
/// Default heap size used by `isb::store::Store::open` (the *initial*
/// segment; the arena grows on demand up to its VA reservation).
pub const DEFAULT_HEAP_BYTES: usize = 64 * 1024 * 1024;

/// Non-poisoning lock. The allocator/growth mutexes guard coordination state
/// that is consistent between operations; if a holder panics (e.g. an
/// assertion in unrelated caller code while an alloc is on the stack), later
/// operations must see the state, not a cascading `PoisonError` panic.
fn lock_np<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
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
    /// A chunk header below the bump offset is not a valid header, or a
    /// slab's masks name a block no crash ordering can produce.
    CorruptHeader {
        /// Granule index of the bad header, or of the block a mask misnames.
        granule: usize,
    },
    /// The commit bitmap disagrees with the headers in a way no crash
    /// ordering can produce (a set bit with no committed block starting at
    /// its granule, or a committed block whose bit is clear).
    CorruptBitmap {
        /// Granule index of the disagreement.
        granule: usize,
    },
    /// A link read from the image (a heap offset) names a span outside the
    /// mapping, or the object graph does not terminate. Caught by the
    /// structures' pre-recovery validation walk before any dereference.
    CorruptPointer {
        /// The offending link word.
        addr: u64,
    },
    /// A catalog entry is inconsistent: unknown structure kind, a root that
    /// is not a committed block large enough for the structure, or a
    /// malformed name. No crash ordering produces this — entry creation
    /// stamps the kind word last, so a torn creation leaves the slot
    /// invisible, not damaged.
    CorruptCatalog {
        /// Catalog slot index of the bad entry.
        slot: usize,
    },
    /// The catalog has no free slot for another named structure.
    CatalogFull,
    /// The arena is out of space (VA reservation or segment directory full).
    Exhausted,
    /// The heap's participant registry holds a slot owned by a **live**
    /// process: a create would truncate the file under it. Open the heap
    /// ([`MappedHeap::open`]) to join it instead.
    AlreadyAttached {
        /// Pid recorded in the live registry slot.
        pid: u64,
    },
    /// Every participant slot of the registry is claimed (by live peers, or
    /// by dead ones whose online recovery has not reclaimed them yet).
    RegistryFull,
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
            MapError::CorruptPointer { addr } => {
                write!(f, "persistent link {addr:#x} points outside the mapped arena")
            }
            MapError::CorruptCatalog { slot } => {
                write!(f, "corrupt catalog entry in slot {slot}")
            }
            MapError::CatalogFull => {
                write!(f, "catalog full ({CATALOG_SLOTS} named structures per heap)")
            }
            MapError::Exhausted => write!(f, "persistent heap exhausted"),
            MapError::AlreadyAttached { pid } => {
                write!(f, "heap is attached by live process {pid} (open it to join)")
            }
            MapError::RegistryFull => {
                write!(f, "participant registry full ({PART_SLOTS} processes per heap)")
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
    /// Attach epoch after this attach (1 for a fresh heap).
    pub attach_epoch: u64,
    /// This attach *joined* a live heap: peers were already attached,
    /// so no walk/heal ran (the heap state is live, not a crash image).
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

// ---------------------------------------------------------------------------
// The heap
// ---------------------------------------------------------------------------

/// A file-backed persistent heap (see module docs).
///
/// One `MappedHeap` hosts one or more data structures (plus their recovery
/// areas); `isb::store::Store` enforces the heap kind via the superblock.
/// Every open ([`MappedHeap::open`]) registers a participant in the durable
/// registry, so up to [`PART_SLOTS`] processes mutate the arena concurrently
/// and recover a SIGKILLed peer online. All
/// allocation routes through [`MappedHeap::alloc`] / [`MappedHeap::commit`] /
/// [`MappedHeap::free`]; the object pools in `isb::pool` layer their
/// per-thread caches on top.
pub struct MappedHeap {
    base: *mut u8,
    /// VA reservation length — the span of the one mapping and the growth
    /// ceiling.
    reserve: usize,
    /// Published file bytes (all adopted segments); grows.
    size: AtomicUsize,
    /// Adopted segment slots (including segment 0).
    n_segs: AtomicUsize,
    segs: [SegSlot; MAX_SEGMENTS + 1],
    path: PathBuf,
    file: File,
    /// Serializes growth and segment refresh (cold paths).
    grow_lock: Mutex<()>,
    /// Free lists for blocks above `MAX_CLASS` payload granules.
    cold: Mutex<HashMap<u32, Vec<u32>>>,
    caches: Vec<CachePadded<UnsafeCell<alloc::ThreadCache>>>,
    /// This process's participant-registry slot (`usize::MAX` = none).
    my_slot: AtomicUsize,
    /// Liveness verdict source (injectable by tests).
    liveness: Arc<dyn PidLiveness>,
    /// Whether `file` still holds the attach flock (an initial attacher
    /// keeps it through structure-level replay; see `release_attach_lock`).
    attach_flock: AtomicBool,
    report: AttachReport,
}

// SAFETY: `base` points into a mapping the handle owns until `Drop`; every
// word of it is accessed through atomics (or, for payloads, under the caller's
// alloc/commit/free contract), the volatile state is atomics and mutexes, and
// each `caches` cell is touched only by the thread registered under its tid.
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
        // A line this thread noted and never fenced (an operation cut
        // short: a request begun and not run) is written back while it is
        // still mapped — once unmapped, its address names nothing.
        <MappedNvm as crate::Persist>::coal_drain();
        // Closing the file also releases a still-held attach flock.
        sys::munmap(self.base, self.reserve);
    }
}

/// Opens (creating if absent, never truncating) the heap file and takes the
/// attach flock; error paths release it by dropping the file.
fn open_locked(path: &Path, create: bool) -> Result<File, MapError> {
    let file =
        OpenOptions::new().read(true).write(true).create(create).truncate(false).open(path)?;
    sys::flock_ex(&file)?;
    Ok(file)
}

impl MappedHeap {
    /// Creates a fresh heap whose *initial segment* holds (at least) `bytes`
    /// at `path`, truncating any existing file unless a live participant is
    /// registered in it ([`MapError::AlreadyAttached`]). The arena grows on
    /// demand up to a default VA reservation of `max(16 × bytes, 256 MiB)`.
    /// Returns with the attach flock released: a fresh heap holds nothing to
    /// recover. Prefer [`MappedHeap::open`].
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
        let file = open_locked(path, true)?;
        let live = crate::liveness::default_probe();
        Ok(Self::create_locked(file, path, bytes, max_bytes, live)?.admit(false))
    }

    /// Opens `path`: creates the heap (of `bytes`) when the file is absent
    /// or empty, *joins* it when live participants are registered, and
    /// otherwise runs a full walking attach. Every open is a participant of
    /// the heap's one epoch domain, and up to [`PART_SLOTS`] processes hold
    /// it at once. The decision is serialized across processes by the
    /// attach flock. The initial attacher (create or full attach) returns
    /// **still holding** the lock, so the caller can finish structure-level
    /// recovery before admitting joiners — call
    /// [`MappedHeap::release_attach_lock`] when the heap is serviceable.
    /// Joiners return with the lock already released; a joiner that finds
    /// every registry slot claimed is refused with
    /// [`MapError::RegistryFull`] before it writes anything.
    pub fn open(path: &Path, bytes: usize) -> Result<Arc<Self>, MapError> {
        Self::open_with(path, bytes, crate::liveness::default_probe())
    }

    /// [`MappedHeap::open`] with an injected liveness probe (tests exercise
    /// "falsely dead" / pid-reuse verdicts through this).
    pub fn open_with(
        path: &Path,
        bytes: usize,
        live: Arc<dyn PidLiveness>,
    ) -> Result<Arc<Self>, MapError> {
        let file = open_locked(path, true)?;
        if file.metadata()?.len() == 0 {
            return Ok(Self::create_locked(file, path, bytes, 0, live)?.admit(true));
        }
        let page = Page0::read(&file)?;
        if page.live_participants(&*live).next().is_some() {
            Ok(Self::join_locked(file, &page, path, live)?.admit(false))
        } else {
            Ok(Self::attach_locked(file, &page, path, live)?.admit(true))
        }
    }

    // -- the attach pipeline (see module docs) -------------------------------

    /// Creation body. Guards against creating over a heap with **live**
    /// participants (which would truncate the file out from under them —
    /// `SIGBUS` on their next access), then zeroes the file and lays the
    /// heap out.
    fn create_locked(
        file: File,
        path: &Path,
        bytes: usize,
        max_bytes: usize,
        live: Arc<dyn PidLiveness>,
    ) -> Result<Self, MapError> {
        if file.metadata()?.len() >= PAGE as u64 {
            if let Some(p) = Page0::read(&file)?.live_participants(&*live).next() {
                return Err(MapError::AlreadyAttached { pid: p.pid });
            }
        }
        let g = SbGeom::fresh(bytes, max_bytes);
        // Shrink to zero first so every byte of the new extent — including
        // any stale superblock content — reads back as zero.
        file.set_len(0)?;
        file.set_len(g.seg0 as u64)?;
        let base = sys::map_file(&file, g.reserve)?;
        let report = AttachReport { created: true, attach_epoch: 1, ..Default::default() };
        let heap = Self::over(base, &g, file, path, live, report);
        heap.stamp_fresh(&g);
        heap.claim_participant()?;
        Ok(heap)
    }

    /// Full (walking) attach body, run only when no live participant is
    /// registered: the walk resets volatile-in-persistent allocator
    /// state and heals "torn" blocks, which must never run under a live
    /// peer.
    fn attach_locked(
        file: File,
        page: &Page0,
        path: &Path,
        live: Arc<dyn PidLiveness>,
    ) -> Result<Self, MapError> {
        let g = page.geometry(file.metadata()?.len())?;
        let base = sys::map_file(&file, g.reserve)?;
        let mut heap = Self::over(base, &g, file, path, live, AttachReport::default());
        // Stale registry slots (every one is dead or mid-claim: the caller
        // found no live one) are reclaimed before this process claims its own.
        heap.registry_clear_stale();
        heap.walk_and_heal()?;
        heap.report.attach_epoch = heap.word(W_EPOCH).load(Acquire) + 1;
        persist(heap.word(W_EPOCH), heap.report.attach_epoch);
        heap.claim_participant()?;
        Ok(heap)
    }

    /// Joins a **live** heap: *no* walk/heal/sweep runs, and the registry
    /// claim is the join's first write.
    fn join_locked(
        file: File,
        page: &Page0,
        path: &Path,
        live: Arc<dyn PidLiveness>,
    ) -> Result<Self, MapError> {
        let g = page.geometry(file.metadata()?.len())?;
        let base = sys::map_file(&file, g.reserve)?;
        let report = AttachReport { joined: true, ..Default::default() };
        let mut heap = Self::over(base, &g, file, path, live, report);
        heap.claim_participant()?;
        heap.report.attach_epoch = heap.word(W_EPOCH).fetch_add(1, SeqCst) + 1;
        persist_line(heap.word(W_EPOCH));
        Ok(heap)
    }

    /// The one constructor: a handle over the reservation mapped at `base`,
    /// with every segment of `g` adopted.
    fn over(
        base: *mut u8,
        g: &SbGeom,
        file: File,
        path: &Path,
        liveness: Arc<dyn PidLiveness>,
        report: AttachReport,
    ) -> MappedHeap {
        let heap = MappedHeap {
            base,
            reserve: g.reserve,
            size: AtomicUsize::new(g.seg0),
            n_segs: AtomicUsize::new(1),
            segs: std::array::from_fn(|_| SegSlot::default()),
            path: path.to_path_buf(),
            file,
            grow_lock: Mutex::new(()),
            cold: Mutex::new(HashMap::new()),
            caches: (0..MAX_PROCS).map(|_| Default::default()).collect(),
            my_slot: AtomicUsize::new(usize::MAX),
            liveness,
            attach_flock: AtomicBool::new(false),
            report: AttachReport { segments: 1 + g.seg_lens.len(), ..report },
        };
        heap.segs[0].granules.store(g.granules, Relaxed);
        heap.segs[0].bm_off.store(PAGE, Relaxed);
        heap.segs[0].data_off.store(g.data_off, Relaxed);
        for &bytes in &g.seg_lens {
            heap.adopt_segment(bytes);
        }
        heap
    }

    /// Last step of every attach: an initial attacher of [`MappedHeap::open`]
    /// keeps the attach flock (see [`MappedHeap::release_attach_lock`]);
    /// everyone else releases it here.
    fn admit(mut self, keep_flock: bool) -> Arc<Self> {
        *self.attach_flock.get_mut() = keep_flock;
        if !keep_flock {
            sys::flock_un(&self.file);
        }
        Arc::new(self)
    }

    /// Releases the attach flock an initial attach still holds (no-op
    /// otherwise, including for joiners). Until this is called, concurrent
    /// [`MappedHeap::open`] callers block — that window is
    /// where the initial attacher replays structure-level recovery on what
    /// is still a crash image.
    pub fn release_attach_lock(&self) {
        if self.attach_flock.swap(false, AcqRel) {
            sys::flock_un(&self.file);
        }
    }

    /// Runs `f` under an exclusive `flock` on the heap file — the
    /// cross-process mutex catalog mutation serializes on. The
    /// kernel releases it if the holder dies, so a SIGKILLed peer can never
    /// wedge it. Must not be called while this handle still holds the
    /// *attach* lock (the unlock here would release that early); the
    /// store's open releases it before returning.
    pub fn with_file_lock<R>(&self, f: impl FnOnce() -> R) -> Result<R, MapError> {
        debug_assert!(
            !self.attach_flock.load(Relaxed),
            "with_file_lock while the attach flock is still held"
        );
        sys::flock_ex(&self.file)?;
        let r = f();
        sys::flock_un(&self.file);
        Ok(r)
    }

    // -- accessors -----------------------------------------------------------

    /// Where this handle mapped the heap: the base its link words are
    /// offsets from.
    pub fn base(&self) -> *mut u8 {
        self.base
    }

    /// Adopted segments (1 until the heap first grows).
    pub fn segments(&self) -> usize {
        self.n_segs.load(Acquire)
    }

    /// What this attach found and did.
    pub fn report(&self) -> &AttachReport {
        &self.report
    }
}

// ---------------------------------------------------------------------------
// The persistency model
// ---------------------------------------------------------------------------

/// Shared-cache persistency model over a [`MappedHeap`]: the same instruction
/// behaviour as [`crate::RealNvm`], from the same definition (`pwb` = the
/// machine's [`crate::flush::Kind`], `pfence` = `sfence` when that kind is
/// weakly ordered, `psync` = `mfence`, all counted), but the persistent words
/// live in a file-backed mapping, so the structure state survives the
/// process. See the module docs for what `SIGKILL`-durability does and does
/// not require.
pub struct MappedNvm;

crate::persist::shared_cache_persist!(MappedNvm, "mapped", true, true);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{stats, tid, PWord, Persist};
    use std::collections::HashSet;

    pub(super) fn tmp(name: &str) -> PathBuf {
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
        let heap = MappedHeap::open(&path, MIN_HEAP_BYTES).unwrap();
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
        let torn_off = {
            let heap = MappedHeap::create(&path, MIN_HEAP_BYTES).unwrap();
            let p = heap.alloc(64).unwrap();
            unsafe { (p as *mut u64).write(7) };
            heap.commit(p);
            let torn = heap.alloc(64).unwrap();
            unsafe { std::ptr::write_bytes(torn, 0xAA, 64) };
            // no commit: simulates a crash mid-allocation
            torn as usize - heap.base() as usize
        };
        let heap = MappedHeap::open(&path, MIN_HEAP_BYTES).unwrap();
        assert_eq!(heap.report().poisoned, 1);
        assert_eq!(heap.report().committed, 1);
        // The torn block was recycled: the next same-size alloc reuses it,
        // and its payload was poisoned in between (all of it but word 0,
        // which held the block's free-list link since).
        let p = heap.alloc(64).unwrap() as *const u64;
        assert_eq!(p as usize - heap.base() as usize, torn_off);
        assert!((1..8).all(|k| unsafe { p.add(k).read() } == POISON));
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
        let heap = MappedHeap::open(&path, MIN_HEAP_BYTES).unwrap();
        assert_eq!(heap.report().committed, 1);
        // The slab carve stocked free blocks besides the one we freed.
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
        let heap = MappedHeap::open(&path, MIN_HEAP_BYTES).unwrap();
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
        let heap = MappedHeap::open(&path, MIN_HEAP_BYTES).unwrap();
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
            heap.grow(heap.segs[0].g_end()).unwrap();
            assert_eq!(heap.segments(), 2);
        }
        let heap = MappedHeap::open(&path, MIN_HEAP_BYTES).unwrap();
        assert_eq!((heap.report().segments, heap.report().committed), (2, 1));
        let p = heap.alloc(64).unwrap();
        heap.commit(p);
        drop(heap);
        let _ = std::fs::remove_file(&path);
    }

    /// Re-attaches `path` with its old base squatted (another mapping of this
    /// process sits there), so the heap maps elsewhere, and checks that no
    /// committed payload word moved: each `(offset, words)` cell reads back
    /// bit-identical at the new base.
    fn attach_elsewhere_unchanged(path: &Path, old_base: usize, cells: &[(usize, [u64; 2])]) {
        let squat = sys::Squat::at(old_base);
        let heap = MappedHeap::open(path, MIN_HEAP_BYTES).unwrap();
        // No squat means a sibling test's mapping holds the range already.
        assert!(squat.is_none() || heap.base() as usize != old_base);
        for &(off, words) in cells {
            let cell = unsafe { heap.base().add(off) } as *const [u64; 2];
            assert_eq!(unsafe { cell.read() }, words, "the payload at offset {off:#x} moved");
            // Word 1 is a link as the codec writes it (tagged offset): it
            // resolves against the new base to the target that holds 4242.
            let target = unsafe { heap.base().add(words[1] as usize & !1) } as *const u64;
            assert_eq!(unsafe { target.read() }, 4242, "the link at offset {off:#x}");
        }
        drop((heap, squat));
        let _ = std::fs::remove_file(path);
    }

    /// A grown heap attached at another base: a cell in a grown segment that
    /// links to a segment-0 target still reaches it, and its words — an
    /// in-window address and the tagged offset — are bit-identical.
    #[test]
    fn grown_heap_relocates_across_segments() {
        let path = tmp("grow_reloc");
        let (old_base, cell) = {
            let heap = MappedHeap::create(&path, MIN_HEAP_BYTES).unwrap();
            let target = heap.alloc(8).unwrap();
            unsafe { (target as *mut u64).write(4242) };
            heap.commit(target);
            for _ in 0..2048 {
                let p = heap.alloc(120).unwrap();
                heap.commit(p);
            }
            assert!(heap.segments() > 1, "the fill outgrows the initial segment");
            let late = heap.alloc(16).unwrap();
            let base = heap.base() as usize;
            let words = [target as u64, (target as usize - base) as u64 | 1];
            unsafe { (late as *mut [u64; 2]).write(words) };
            heap.commit(late);
            (base, (late as usize - base, words))
        };
        attach_elsewhere_unchanged(&path, old_base, &[cell]);
    }

    /// A forced relocation rebases in-arena pointers without rewriting them:
    /// a link is an offset that resolves against whatever base the heap maps
    /// at, and a user word that aliases the old window (plain or tagged) is
    /// not mistaken for one — every payload word reads back bit-identical.
    #[test]
    fn forced_relocation_rebases_in_arena_pointers() {
        let path = tmp("reloc");
        let (old_base, cell) = {
            let heap = MappedHeap::create(&path, MIN_HEAP_BYTES).unwrap();
            let target = heap.alloc(8).unwrap();
            unsafe { (target as *mut u64).write(4242) };
            heap.commit(target);
            let cell = heap.alloc(16).unwrap();
            let base = heap.base() as usize;
            let words = [target as u64 | 1, (target as usize - base) as u64 | 1];
            unsafe { (cell as *mut [u64; 2]).write(words) };
            heap.commit(cell);
            (base, (cell as usize - base, words))
        };
        attach_elsewhere_unchanged(&path, old_base, &[cell]);
    }

    /// The `/proc/self/maps` lines overlapping `[base, base + len)`.
    fn vmas(base: usize, len: usize) -> Vec<String> {
        std::fs::read_to_string("/proc/self/maps")
            .unwrap()
            .lines()
            .filter(|l| {
                let (lo, hi) = l.split_whitespace().next().unwrap().split_once('-').unwrap();
                let (lo, hi) = (usize::from_str_radix(lo, 16), usize::from_str_radix(hi, 16));
                lo.unwrap() < base + len && hi.unwrap() > base
            })
            .map(str::to_string)
            .collect()
    }

    /// Growth is an `ftruncate` and nothing else: the whole reservation is
    /// one file-backed mapping from attach on, so blocks in segments grown
    /// later are dereferenceable without a second `mmap`.
    #[test]
    fn exclusive_growth_needs_no_second_mapping() {
        let path = tmp("onemap");
        let heap = MappedHeap::create(&path, MIN_HEAP_BYTES).unwrap();
        let (base, reserve) = (heap.base() as usize, heap.reserve);
        let one_file_vma = |when: &str| {
            let v = vmas(base, reserve);
            assert_eq!(v.len(), 1, "{when}: the reservation is one mapping: {v:#?}");
            let want = format!("{:x}-{:x} rw-s 00000000", base, base + reserve);
            assert!(v[0].starts_with(&want), "{when}: {} is not {want}", v[0]);
            assert!(v[0].ends_with(path.to_str().unwrap()), "{when}: not file-backed: {}", v[0]);
        };
        one_file_vma("after create");
        let mut last_in_segment = Vec::new();
        for i in 0u64.. {
            let p = heap.alloc(120).unwrap();
            unsafe { (p as *mut u64).write(i) };
            heap.commit(p);
            let seg = heap.segments();
            if last_in_segment.len() < seg {
                last_in_segment.push((p, i));
            }
            if seg == 3 {
                break;
            }
        }
        one_file_vma("after two growths");
        for &(p, v) in &last_in_segment[1..] {
            assert!(p as usize >= base + MIN_HEAP_BYTES, "block not in a grown segment");
            assert_eq!(unsafe { (p as *const u64).read() }, v);
        }
        drop(heap);
        // (A sibling test's heap may take the freed range at once.)
        let left: Vec<_> = vmas(base, reserve);
        assert!(
            !left.iter().any(|l| l.ends_with(path.to_str().unwrap())),
            "drop unmaps: {left:#?}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn describe_page0_names_participants_and_allocator_words() {
        let path = tmp("describe");
        let heap = MappedHeap::open_with(&path, MIN_HEAP_BYTES, FakeProbe::with(&[])).unwrap();
        heap.release_attach_lock();
        let dead = heap.debug_register_peer(4242, 5).unwrap();
        assert_eq!(heap.lease_try_claim(dead), LeaseOutcome::Won { seq: 1 });
        let p = heap.alloc(64).unwrap();
        heap.commit(p);
        let text = describe_page0(&path);
        let birth = crate::liveness::self_birth();
        let me = format!("slot 0 pid {} birth {birth} lease seq 0 free", std::process::id());
        assert!(text.contains(&me), "{text}");
        assert!(text.contains("slot 1 pid 4242 birth 5 lease seq 1 held by slot 0"), "{text}");
        let bump = heap.bump_granules();
        assert!(
            text.contains(&format!("segments 1 bump {bump} resv {bump} bump-lock free")),
            "{text}"
        );
        drop(heap);
        let _ = std::fs::remove_file(&path);
        assert!(describe_page0(&path).contains("No such file"), "a missing file is reported");
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
        let heap = MappedHeap::open(&path, MIN_HEAP_BYTES).unwrap();
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
        let heap = MappedHeap::open_with(&path, MIN_HEAP_BYTES, probe.clone()).unwrap();
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
        let heap = MappedHeap::open_with(&path, MIN_HEAP_BYTES, probe.clone()).unwrap();
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
        let heap = MappedHeap::open_with(&path, MIN_HEAP_BYTES, probe).unwrap();
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
    fn a_full_registry_refuses_typed_and_a_freed_slot_is_claimed_again() {
        let path = tmp("regfull");
        let heap = MappedHeap::open_with(&path, MIN_HEAP_BYTES, FakeProbe::with(&[])).unwrap();
        heap.release_attach_lock();
        // This process holds slot 0; peers fill every other slot.
        let peers: Vec<usize> = (1..PART_SLOTS as u64)
            .map(|i| heap.debug_register_peer(9000 + i, 5).unwrap())
            .collect();
        let full = heap.participants();
        assert_eq!(full.len(), PART_SLOTS);
        assert!(matches!(heap.debug_register_peer(9999, 7), Err(MapError::RegistryFull)));
        assert_eq!(heap.participants(), full, "a refused claim writes nothing");
        heap.clear_participant(peers[2]);
        assert_eq!(heap.debug_register_peer(9999, 7).unwrap(), peers[2]);
        assert!(heap.participants().contains(&(peers[2], 9999, 7)));
        drop(heap);
        let _ = std::fs::remove_file(&path);
    }

    /// Every open of a live heap joins it — a second handle in this process
    /// takes the next registry slot — and only a create, which would
    /// truncate the file under the live one, is refused.
    #[test]
    fn a_second_open_joins_and_create_refuses_a_live_heap() {
        let path = tmp("second");
        let first = MappedHeap::open(&path, MIN_HEAP_BYTES).unwrap();
        first.release_attach_lock();
        assert_eq!(first.my_participant(), Some(0));
        let second = MappedHeap::open(&path, MIN_HEAP_BYTES).unwrap();
        assert!(second.report().joined);
        assert_eq!(second.my_participant(), Some(1));
        match MappedHeap::create(&path, MIN_HEAP_BYTES) {
            Err(MapError::AlreadyAttached { pid }) => {
                assert_eq!(pid, std::process::id() as u64)
            }
            other => panic!("expected AlreadyAttached, got {other:?}"),
        }
        // Clean drops retire both slots; the next open is a full attach.
        drop((first, second));
        let heap = MappedHeap::open(&path, MIN_HEAP_BYTES).unwrap();
        assert!(!heap.report().joined && !heap.report().created);
        assert_eq!(heap.participants().len(), 1);
        drop(heap);
        let _ = std::fs::remove_file(&path);
    }

    /// A line noted in a heap and never fenced is written back when the heap
    /// drops, not by a later fence of this thread, when its address is no
    /// longer mapped (a write-back there faults).
    #[test]
    fn dropping_a_heap_drains_its_unfenced_lines() {
        crate::tid::set_tid(46);
        let path = tmp("unfenced");
        let heap = MappedHeap::create(&path, MIN_HEAP_BYTES).unwrap();
        let p = heap.alloc(64).unwrap();
        heap.commit(p);
        // SAFETY: a committed, 64-aligned block nothing else references.
        MappedNvm::pwb_coal(unsafe { &*(p as *const PWord<MappedNvm>) });
        assert_eq!(crate::coalesce::pending(), 1);
        drop(heap);
        assert_eq!(crate::coalesce::pending(), 0, "the line left the set before the unmap");
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
            persist_line(heap.word(superblock::W_BUMP));
            assert_eq!(stats::Snapshot::of_tid(44).since(&before), stats::Snapshot::default());
        });
        drop(heap);
        let _ = std::fs::remove_file(&path);
    }
}
