//! The superblock: word layout of page 0, its pre-mmap parser, and the one
//! accessor every durable metadata write goes through.
//!
//! Page 0 is an array of little-endian `u64` words. Words 0..16 are the
//! header (magic / version / a retired word / sizes / attach epoch / bump / geometry /
//! kind / segment count / reservation / allocator lock and cursor /
//! recovery-area geometry), 16..48 the **root directory**
//! ([`ROOT_SLOTS`] `(key, payload offset)` pairs), 48..80 the **segment
//! directory** ([`MAX_SEGMENTS`] byte lengths), 80.. the per-class free-stack
//! heads, and 96..160 the **participant registry** ([`PART_SLOTS`] slots of
//! one cache line each).
//!
//! Invariants this file owns:
//!
//! * **Fields first, flag last.** Every multi-word publication stamps its
//!   fields, makes them durable, and only then stores the word that makes
//!   them visible: the magic for a fresh heap, the key word for a root entry,
//!   `W_SEG_COUNT` for a segment, the pid for a registry slot, the kind word
//!   for a catalog entry. A crash in between leaves the publication
//!   invisible, never half-valid.
//! * **One durable write.** [`persist`] / [`persist_all`] (store, write the
//!   line back, fence) are the only way the superblock, the registry, the
//!   segment directory and the catalog are written — one place to instrument
//!   for crash simulation. The write-backs are *uncounted*: allocator-internal
//!   durability, not part of the measured op-level protocol. (Block headers,
//!   commit bits and the bump word on the allocation hot path are plain
//!   ordered stores — see `alloc` — and the allocator's volatile words are
//!   rebuilt by every full attach.)
//! * **Validate before mapping.** [`Page0`] is read with `pread` and
//!   [`Page0::geometry`] rejects every impossible shape typed, so nothing is
//!   mapped — let alone dereferenced — on the word of a damaged superblock.

use super::{seg_geometry, MapError, MappedHeap, GRANULE, MAGIC, VERSION};
use crate::flush;
use crate::liveness::PidLiveness;
use std::sync::atomic::AtomicU64;
use std::sync::atomic::Ordering::{Acquire, SeqCst};

pub(super) const PAGE: usize = 4096;

// Superblock word indices (u64 words from the start of the mapping).
pub(super) const W_MAGIC: usize = 0;
pub(super) const W_VERSION: usize = 1;
// Word 2 held the recorded base address until format v6: links are heap
// offsets since, so nothing reads or writes it.
pub(super) const W_SIZE: usize = 3; // bytes of segment 0 (the full file for a 1-segment heap)
pub(super) const W_EPOCH: usize = 4;
pub(super) const W_BUMP: usize = 5; // global granule-space bump (all segments)
pub(super) const W_DATA_OFF: usize = 6;
pub(super) const W_BM_OFF: usize = 7;
pub(super) const W_GRANULES: usize = 8; // granules of segment 0
pub(super) const W_KIND: usize = 9;
pub(super) const W_SEG_COUNT: usize = 10; // number of *extra* segments (the valid flag)
pub(super) const W_RESERVE: usize = 11; // VA reservation bytes (growth ceiling)
/// Bump-path lock: holder participant slot + 1, 0 when free.
/// Volatile-in-persistent-space; stolen (with gap healing) from dead holders.
pub(super) const W_ALLOC_LOCK: usize = 12;
/// Volatile reservation cursor over the global granule space; the persistent
/// `W_BUMP` trails it. Lives in the superblock so concurrent attachers see
/// one cursor; reset from `W_BUMP` on every full attach.
pub(super) const W_BUMP_RESV: usize = 13;
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
pub(super) const W_SEG0: usize = W_ROOT0 + 2 * ROOT_SLOTS; // MAX_SEGMENTS byte-length words
/// Per-class global free-stack heads (volatile-in-persistent-space, shared
/// by every attached process; reset + restocked by each full attach walk).
pub(super) const W_GLOBAL0: usize = W_SEG0 + MAX_SEGMENTS;

// -- participant registry ----------------------------------------------------

/// Participant slots in the registry: the maximum number of processes that
/// can share one heap concurrently. Each slot owns a disjoint band of
/// [`super::PART_TIDS`] tids, keeping recovery-area slots, stats slots,
/// reclamation announce words and allocator thread caches per-process
/// disjoint.
pub const PART_SLOTS: usize = 8;
/// One registry slot is one cache line of superblock words.
pub(super) const PART_WORDS: usize = 8;
pub(super) const W_PART0: usize = 96; // PART_SLOTS × PART_WORDS words (96..160)
/// Registry slot word indices.
pub(super) const PW_PID: usize = 0; // claim/valid word: 0 free, CLAIMING mid-claim, else pid
pub(super) const PW_BIRTH: usize = 1; // /proc starttime of the claimant
pub(super) const PW_LEASE: usize = 2; // recovery lease: (seq << 8) | (recoverer slot + 1)
/// Mid-claim sentinel for `PW_PID`: reserves the slot before the birth stamp
/// is written (fields first, pid — the valid flag — last). Never a real pid,
/// so a crash mid-claim leaves a trivially-dead, reclaimable slot.
pub(super) const CLAIMING: u64 = u64::MAX;

// -- the one durable write -----------------------------------------------------

fn write_back(w: &AtomicU64) {
    // SAFETY: every caller passes a live word of the mapping.
    unsafe { flush::flush(w as *const AtomicU64 as *const u8) };
}

/// Writes back the line of `w` and fences: for a word a CAS or `fetch_add`
/// already wrote. See [`persist`].
pub(super) fn persist_line(w: &AtomicU64) {
    write_back(w);
    flush::mfence();
}

/// Stores every `(word, value)`, writes their lines back and fences once —
/// the "fields" half of a fields-first / flag-last publication, or any set of
/// stores with no order among themselves.
pub(super) fn persist_all<'a>(stores: impl IntoIterator<Item = (&'a AtomicU64, u64)>) {
    for (w, v) in stores {
        w.store(v, SeqCst);
        write_back(w);
    }
    flush::mfence();
}

/// The one durable metadata write: `w := v`, written back and fenced before
/// the caller's next store (see the module docs).
pub(super) fn persist(w: &AtomicU64, v: u64) {
    persist_all([(w, v)]);
}

// -- page 0, parsed before anything is mapped ----------------------------------

/// Whether a registry slot's `(pid, birth)` names a fully-claimed participant
/// the probe calls alive.
pub(super) fn claim_is_live(pid: u64, birth: u64, live: &dyn PidLiveness) -> bool {
    pid != 0 && pid != CLAIMING && live.is_alive(pid, birth)
}

/// One claimed registry slot, as read from page 0.
pub(super) struct Participant {
    pub(super) slot: usize,
    /// A pid, or [`CLAIMING`].
    pub(super) pid: u64,
    pub(super) birth: u64,
    pub(super) lease: u64,
}

/// Superblock geometry: parsed and validated from a plain read, or laid out
/// for a fresh heap.
pub(super) struct SbGeom {
    /// Bytes of segment 0.
    pub(super) seg0: usize,
    /// Byte lengths of the extra segments, in directory order.
    pub(super) seg_lens: Vec<usize>,
    /// VA reservation length.
    pub(super) reserve: usize,
    /// Segment-0 data offset.
    pub(super) data_off: usize,
    /// Segment-0 data granules.
    pub(super) granules: usize,
}

impl SbGeom {
    /// Layout of a fresh heap whose initial segment holds (at least) `bytes`:
    /// superblock page, then the bitmap (one bit per data granule, rounded to
    /// a granule), then the data region. `max_bytes == 0` selects the default
    /// reservation of `max(16 × bytes, 256 MiB)`.
    pub(super) fn fresh(bytes: usize, max_bytes: usize) -> SbGeom {
        let seg0 = bytes.max(super::MIN_HEAP_BYTES).next_multiple_of(PAGE);
        let reserve = if max_bytes == 0 {
            (seg0 * 16).max(256 * 1024 * 1024)
        } else {
            max_bytes.max(seg0).next_multiple_of(PAGE)
        };
        let bm_bytes = ((seg0 - PAGE) / GRANULE).div_ceil(8).next_multiple_of(GRANULE);
        let data_off = PAGE + bm_bytes;
        let granules = (seg0 - data_off) / GRANULE;
        SbGeom { seg0, seg_lens: Vec::new(), reserve, data_off, granules }
    }
}

/// The superblock page, read with `pread` (no file-cursor mutation, so the
/// attach paths can re-read it at will).
pub(super) struct Page0([u8; PAGE]);

impl Page0 {
    /// Reads page 0 of `file`; a file shorter than a superblock is
    /// [`MapError::Truncated`].
    pub(super) fn read(file: &std::fs::File) -> Result<Page0, MapError> {
        use std::os::unix::fs::FileExt;
        let len = file.metadata()?.len();
        if len < PAGE as u64 {
            return Err(MapError::Truncated { expected: PAGE as u64, found: len });
        }
        let mut sb = [0u8; PAGE];
        file.read_exact_at(&mut sb, 0)?;
        Ok(Page0(sb))
    }

    fn w(&self, i: usize) -> u64 {
        u64::from_le_bytes(self.0[i * 8..i * 8 + 8].try_into().unwrap())
    }

    /// Every claimed registry slot. Non-heap / other-version pages have no
    /// registry to honour and answer with nothing.
    pub(super) fn participants(&self) -> impl Iterator<Item = Participant> + '_ {
        let is_heap = self.w(W_MAGIC) == MAGIC && self.w(W_VERSION) == VERSION;
        (0..if is_heap { PART_SLOTS } else { 0 }).filter_map(move |slot| {
            let pw = |i: usize| self.w(W_PART0 + slot * PART_WORDS + i);
            (pw(PW_PID) != 0).then(|| Participant {
                slot,
                pid: pw(PW_PID),
                birth: pw(PW_BIRTH),
                lease: pw(PW_LEASE),
            })
        })
    }

    /// The one registry-liveness scan: every fully-claimed participant the
    /// probe calls alive. Create refuses a heap that has one; an open joins
    /// it instead of walking it.
    pub(super) fn live_participants<'a>(
        &'a self,
        live: &'a dyn PidLiveness,
    ) -> impl Iterator<Item = Participant> + 'a {
        self.participants().filter(move |p| claim_is_live(p.pid, p.birth, live))
    }

    /// Validates the superblock of a `len`-byte file. A file *longer* than
    /// the segment directory's total is benign torn growth; everything else
    /// that no crash ordering produces is typed corruption.
    pub(super) fn geometry(&self, len: u64) -> Result<SbGeom, MapError> {
        let w = |i: usize| self.w(i);
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
        // segment's byte length. The published total must fit in the file.
        let seg_count = w(W_SEG_COUNT) as usize;
        if seg_count > MAX_SEGMENTS {
            return Err(MapError::BadSuperblock("segment count exceeds the directory"));
        }
        let mut seg_lens = Vec::with_capacity(seg_count);
        let mut total = size;
        for k in 0..seg_count {
            let b = w(W_SEG0 + k);
            if !plausible_segment(b) {
                return Err(MapError::BadSuperblock("impossible segment-directory entry"));
            }
            seg_lens.push(b as usize);
            total = total
                .checked_add(b)
                .ok_or(MapError::BadSuperblock("segment directory overflows"))?;
        }
        if len < total {
            return Err(MapError::Truncated { expected: total, found: len });
        }
        let reserve = w(W_RESERVE) as usize;
        if reserve < total as usize || !reserve.is_multiple_of(PAGE) || reserve >= 1 << 47 {
            return Err(MapError::BadSuperblock("VA reservation does not cover the segments"));
        }
        let seg0 = size as usize;
        let data_off = w(W_DATA_OFF) as usize;
        let granules = w(W_GRANULES) as usize;
        if data_off < PAGE
            || !data_off.is_multiple_of(GRANULE)
            || data_off
                .checked_add(
                    granules.checked_mul(GRANULE).ok_or(MapError::BadSuperblock(
                        "granule count overflows the data region",
                    ))?,
                )
                .is_none_or(|end| end > seg0)
        {
            return Err(MapError::BadSuperblock("data region exceeds the file"));
        }
        // The commit bitmap (one bit per data granule, starting at PAGE)
        // must fit below the data region: otherwise bm_set/bm_clear would
        // silently write inside the data blocks.
        if w(W_BM_OFF) as usize != PAGE || PAGE + granules.div_ceil(64) * 8 > data_off {
            return Err(MapError::BadSuperblock("commit bitmap does not fit its region"));
        }
        let total_granules = granules + seg_lens.iter().map(|&b| seg_geometry(b).1).sum::<usize>();
        if (w(W_BUMP) as usize) > total_granules {
            return Err(MapError::BadSuperblock("bump offset beyond the data region"));
        }
        Ok(SbGeom { seg0, seg_lens, reserve, data_off, granules })
    }
}

/// Whether `bytes` can be a segment-directory entry at all.
pub(super) fn plausible_segment(bytes: u64) -> bool {
    bytes >= PAGE as u64 && (bytes as usize).is_multiple_of(PAGE) && bytes < 1 << 46
}

/// Renders the shared-state words of the heap file at `path` for a failure
/// report: every claimed participant with pid / birth and its lease
/// word, the bump-lock holder, `W_BUMP` against `W_BUMP_RESV`, and the
/// segment count. Read-only and lock-free — a `pread` of page 0, so it is
/// safe to call against a heap live processes are mutating (the words may
/// then be mutually stale).
pub fn describe_page0(path: &std::path::Path) -> String {
    let page = match std::fs::File::open(path).map_err(MapError::Io).and_then(|f| Page0::read(&f)) {
        Ok(p) => p,
        Err(e) => return format!("{}: {e}", path.display()),
    };
    let w = |i: usize| page.w(i);
    if w(W_MAGIC) != MAGIC || w(W_VERSION) != VERSION {
        return format!("{}: magic {:#x} version {}", path.display(), w(W_MAGIC), w(W_VERSION));
    }
    // A lock or lease word's low byte: holder slot + 1, 0 when free.
    let holder = |word: u64| match word & 0xFF {
        0 => "free".to_string(),
        h => format!("held by slot {}", h - 1),
    };
    let mut out = format!(
        "{}: epoch {} segments {} bump {} resv {} bump-lock {}\n",
        path.display(),
        w(W_EPOCH),
        w(W_SEG_COUNT) + 1,
        w(W_BUMP),
        w(W_BUMP_RESV),
        holder(w(W_ALLOC_LOCK)),
    );
    for p in page.participants() {
        let pid = if p.pid == CLAIMING { "CLAIMING".to_string() } else { p.pid.to_string() };
        out += &format!(
            "  slot {} pid {pid} birth {} lease seq {} {}\n",
            p.slot,
            p.birth,
            p.lease >> 8,
            holder(p.lease)
        );
    }
    out
}

// -- superblock words of a mapped heap -------------------------------------------

impl MappedHeap {
    #[inline]
    pub(super) fn word(&self, idx: usize) -> &AtomicU64 {
        debug_assert!((idx + 1) * 8 <= PAGE);
        // SAFETY: inside the live, 8-aligned mapping.
        unsafe { &*(self.base.add(idx * 8) as *const AtomicU64) }
    }

    /// Stamps a fresh superblock for geometry `g`: every field first, the
    /// magic last — a creation cut short by a crash leaves a file that fails
    /// attach with `BadMagic` instead of a half-valid superblock.
    pub(super) fn stamp_fresh(&self, g: &SbGeom) {
        persist_all(
            [
                (W_VERSION, VERSION),
                (W_SIZE, g.seg0 as u64),
                (W_EPOCH, 1),
                (W_DATA_OFF, g.data_off as u64),
                (W_BM_OFF, PAGE as u64),
                (W_GRANULES, g.granules as u64),
                (W_RESERVE, g.reserve as u64),
            ]
            .map(|(i, v)| (self.word(i), v)),
        );
        persist(self.word(W_MAGIC), MAGIC);
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
                persist(w, expected);
            } else if found != expected {
                return Err(MapError::LayoutMismatch { what, expected, found });
            }
        }
        Ok(())
    }

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
        let p = self.alloc_zeroed(bytes)?;
        let off = (p as usize - self.base as usize) as u64;
        for s in 0..ROOT_SLOTS {
            let kw = self.word(W_ROOT0 + 2 * s);
            if kw.load(Acquire) == 0 {
                // Offset first, key last: the key word is the valid flag.
                persist(self.word(W_ROOT0 + 2 * s + 1), off);
                persist(kw, key);
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
        persist(self.word(W_KIND), kind);
    }

    /// Granules currently allocated from the bump region (diagnostics).
    pub fn bump_granules(&self) -> usize {
        self.word(W_BUMP).load(Acquire) as usize
    }
}
