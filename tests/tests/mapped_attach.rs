//! Attach-time corruption matrix for the mapped backend: every damaged-image
//! shape must fail with a **typed** error (`MapError` via `AttachError`) —
//! never undefined behaviour — and the benign torn states must heal. Every
//! image is a `Store` heap, the one format a mapped structure lives in.
//! Covers the superblock/bitmap/header shapes, heaps of the retired
//! single-structure format, catalog-entry corruption and hostile links in
//! every structure kind. Complements the in-crate roundtrip tests and the
//! cross-process SIGKILL harness (`restart.rs`).

use isb::arm::LP;
use isb::engine::{RES_TRUE, RES_UNIT};
use isb::recovery::{rootkeys, AttachError, ARENA_SLOT_STRIDE};
use isb::store::Store;
use isb_tests::heap_file::{
    attach, by_deadline, patch, read_at, read_word, root_offset, sole, tmp, HEAP_BYTES, NAME,
    SHARDS,
};
use nvm::mapped::MappedHeap;
use nvm::MapError;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Builds a store heap at `path` holding one populated map and detaches
/// cleanly.
fn mk_map(path: &PathBuf) {
    nvm::tid::set_tid(0);
    let store = Store::open_sized(path, HEAP_BYTES).unwrap();
    assert!(store.summary().heap.created);
    let map = store.hashmap::<LP>(NAME, SHARDS).unwrap();
    for k in 1..=128u64 {
        assert!(map.insert(0, k));
    }
}

/// File offset of the root block of catalog slot 0's structure (entry word
/// 2, a heap offset, is one: the mapping starts at file offset 0).
fn entry_root(path: &PathBuf) -> u64 {
    read_at(path, root_offset(path, rootkeys::CATALOG) + 16)
}

/// Unwraps the heap-level error inside an `AttachError`.
fn map_err(r: Result<(), AttachError>) -> MapError {
    match r {
        Err(AttachError::Map(e)) => e,
        Err(e) => panic!("expected a heap-level MapError, got {e}"),
        Ok(()) => panic!("damaged heap must not attach"),
    }
}

#[test]
fn truncated_file_fails_typed() {
    let path = tmp("trunc");
    mk_map(&path);
    let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    f.set_len(HEAP_BYTES as u64 / 2).unwrap();
    drop(f);
    match map_err(attach(&path)) {
        MapError::Truncated { expected, found } => {
            assert_eq!(expected, HEAP_BYTES as u64);
            assert_eq!(found, HEAP_BYTES as u64 / 2);
        }
        e => panic!("expected Truncated, got {e}"),
    }
    // Sub-superblock truncation as well.
    let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    f.set_len(100).unwrap();
    drop(f);
    assert!(matches!(map_err(attach(&path)), MapError::Truncated { .. }));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn wrong_magic_fails_typed() {
    let path = tmp("magic");
    mk_map(&path);
    patch(&path, 0, &0xBAD0_BAD0_BAD0_BAD0u64.to_le_bytes());
    match map_err(attach(&path)) {
        MapError::BadMagic(m) => assert_eq!(m, 0xBAD0_BAD0_BAD0_BAD0),
        e => panic!("expected BadMagic, got {e}"),
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn wrong_version_fails_typed() {
    let path = tmp("version");
    mk_map(&path);
    patch(&path, 8, &99u64.to_le_bytes()); // word 1: version
    match map_err(attach(&path)) {
        MapError::BadVersion(v) => assert_eq!(v, 99),
        e => panic!("expected BadVersion, got {e}"),
    }
    let _ = std::fs::remove_file(&path);
}

/// A heap of a previous format fails typed before anything reads it, and is
/// left byte for byte as it was: version 11, whose nodes took a whole
/// granule each, with no half slab for a v12 walk to read, version 10,
/// whose descriptors were all two
/// lines with the volatile words last and new-set entry 0 stored, version
/// 9, whose recovery lines hold no
/// rollback target or record check beside a recorded publication, version
/// 8, whose recovery slots hold
/// `CP_q = 1` where this build reads a publication digest, version 7, whose live peer may be an
/// exclusive attacher (private epochs, an unlocked bump path) that a joiner
/// of this build could not share the arena with, version 6, whose
/// descriptors took three cache lines with the sets in fixed
/// slots, version 5, whose links are absolute addresses rather than heap
/// offsets, version 4, whose every block carried a header granule of its
/// own (a v5 walk would misread every block), and version 3, whose
/// descriptors kept a response word and their first new-node entry past the
/// first cache line.
#[test]
fn previous_descriptor_format_fails_typed() {
    assert_eq!(nvm::mapped::VERSION, 12);
    for old in [11u64, 10, 9, 8, 7, 6, 5, 4, 3] {
        let path = tmp("old_version");
        mk_map(&path);
        patch(&path, 8, &old.to_le_bytes()); // word 1: version
        if old == 7 {
            // Registry slot 0 (words 96, 97: pid, birth) names a live
            // process — this one, as a v7 attacher would have stamped it.
            patch(&path, 96 * 8, &(std::process::id() as u64).to_le_bytes());
            patch(&path, 97 * 8, &nvm::liveness::self_birth().to_le_bytes());
        }
        let image = std::fs::read(&path).unwrap();
        match map_err(attach(&path)) {
            MapError::BadVersion(v) => assert_eq!(v, old),
            e => panic!("expected BadVersion({old}), got {e}"),
        }
        assert!(std::fs::read(&path).unwrap() == image, "v{old}: the refusal wrote the heap");
        let _ = std::fs::remove_file(&path);
    }
}

/// A queue heap: pid 1 enqueued 10, then — with `rd_only` — pid 2
/// enqueued 20 and dequeued 10, so nothing but `RD_1` names pid 1's
/// enqueue descriptor (its cells were retagged and retired). Returns the
/// file offsets of that descriptor, a one-line block, and of the node
/// holding 10 or 20.
fn queue_descriptor(path: &PathBuf, rd_only: bool) -> (u64, u64) {
    nvm::tid::set_tid(0);
    {
        let store = Store::open_sized(path, HEAP_BYTES).unwrap();
        let q = store.queue::<LP>(NAME).unwrap();
        q.enqueue(1, 10);
        if rd_only {
            q.enqueue(2, 20);
            assert_eq!(q.dequeue(2), Some(10));
        }
    }
    let slot = root_offset(path, rootkeys::RECAREA) + ARENA_SLOT_STRIDE as u64; // pid 1
    let node = read_at(path, read_at(path, entry_root(path)) + 8); // the sentinel's next
    (read_at(path, slot), node)
}

/// Claims the BST delete's 4/1/1 in the `meta` (word 1) of the one-line
/// descriptor at `info`, its five set words (words 3..8, all the block
/// holds) naming the node at `node`, so every cell they name passes the
/// span checks: the set words the claim needs past them would be the next
/// block's. With `class`, the class byte (word 0, byte 6) too.
fn claim_bst_delete(path: &PathBuf, info: u64, node: u64, class: Option<u8>) {
    let meta = read_at(path, info + 8);
    patch(path, info + 8, &(meta & !0xff_ff_ff_00 | 4 << 8 | 1 << 16 | 1 << 24).to_le_bytes());
    for w in 3..8 {
        patch(path, info + 8 * w, &node.to_le_bytes());
    }
    if let Some(class) = class {
        patch(path, info + 6, &[class]);
    }
}

/// Opens the queue named [`NAME`] and closes the heap again.
fn attach_queue(path: &Path) -> Result<(), AttachError> {
    sole(path, |s| s.queue::<LP>(NAME)).map(drop)
}

/// A node cell naming a one-line descriptor whose `meta` claims more set
/// words than its block holds (the BST delete's 4/1/1 in the queue's
/// enqueue descriptor): only the class's capacity stands between attach and
/// a read of the next block. It fails typed, naming the descriptor; the
/// undamaged image attaches.
#[test]
fn over_capacity_descriptor_fails_typed() {
    let path = tmp("info_capacity");
    let (info, node) = queue_descriptor(&path, false);
    let intact: Vec<u64> = (0..8).map(|w| read_at(&path, info + 8 * w)).collect();
    claim_bst_delete(&path, info, node, None);
    match map_err(attach_queue(&path)) {
        MapError::CorruptPointer { addr } => assert_eq!(addr, info),
        e => panic!("expected CorruptPointer({info:#x}), got {e}"),
    }
    for (w, v) in intact.iter().enumerate() {
        patch(&path, info + 8 * w as u64, &v.to_le_bytes());
    }
    attach_queue(&path).unwrap_or_else(|e| panic!("the undamaged image must attach: {e}"));
    let _ = std::fs::remove_file(&path);
}

/// `RD_1` alone names the over-capacity one-line descriptor: with its
/// digest in `CP_1` (no longer matching) or `CP_1 = 0` the publication is
/// torn and rolled back, and pid 1 restarts; with a class byte claiming two
/// lines as well, the descriptor is not a block of its class and attach
/// refuses it, naming it, before reading a word past its block.
#[test]
fn over_capacity_descriptor_in_rd_q_is_rolled_back_or_refused() {
    use isb::recovery::Recovered;
    for (row, cp_zero, class) in
        [("CP_1 kept", false, None), ("CP_1 = 0", true, None), ("class byte 2", false, Some(2))]
    {
        let path = tmp("info_capacity_rd");
        let (info, node) = queue_descriptor(&path, true);
        claim_bst_delete(&path, info, node, class);
        let slot = root_offset(&path, rootkeys::RECAREA) + ARENA_SLOT_STRIDE as u64;
        if cp_zero {
            patch(&path, slot + 8, &0u64.to_le_bytes());
        }
        let p = path.clone();
        let opened = by_deadline(row, move || {
            Store::open_sized(&p, HEAP_BYTES).map(|store| {
                assert_eq!(store.summary().decision(1), Recovered::Restart, "{row}");
                let q = store.queue::<LP>(NAME).unwrap();
                assert_eq!((q.dequeue(0), q.dequeue(0)), (Some(20), None), "{row}");
            })
        });
        match (opened, class) {
            (Ok(()), None) => assert_eq!(read_at(&path, slot), 0, "{row}: RD_1 rolled back"),
            (Err(AttachError::Map(MapError::CorruptPointer { addr })), Some(_)) => {
                assert_eq!(addr, info, "{row}")
            }
            (r, _) => panic!("{row}: got {:?}", r.err().map(|e| e.to_string())),
        }
        let _ = std::fs::remove_file(&path);
    }
}

/// A publication torn by hand — a word of pid 1's descriptor rewritten to
/// a wild cell, or a record word not on media (a check naming a zero word)
/// — is what a process that died inside its publish `psync` can leave: it
/// had no durable effect. Attach checks `CP_q`'s digest and the record
/// checks before it follows `RD_q`, and rolls the slot back to what the
/// invocation found — `(Null, 0)`, or a recorded one's `prior` (here pid
/// 2's publication) — instead of refusing the heap as `CorruptPointer`; a
/// `CP_q` still the glue's 0 vouches for nothing (cleared). A digest beside
/// `RD_q = Null` names no descriptor: the slot is left as it is. Nothing
/// but `RD_q` names pid 1's descriptor (its cells were retagged and retired).
#[test]
fn torn_publication_is_cleared_not_refused() {
    use isb::recovery::Recovered;
    nvm::tid::set_tid(0);
    type Image = fn(u64) -> u64;
    let (keep, zero): (Image, Image) = (|w| w, |_| 0);
    // (row, CP_q, RD_q image, descriptor torn, CP_q after, recorded check)
    type Row = (&'static str, Image, Image, bool, Image, Option<u64>);
    let rows: [Row; 5] = [
        ("descriptor torn, CP_q kept", keep, keep, true, zero, None),
        ("descriptor torn, CP_q = 0", zero, keep, true, zero, None),
        ("RD_q = Null beside a digest", keep, zero, false, keep, None),
        ("recorded, descriptor torn", keep, keep, true, zero, Some(0)),
        ("recorded, its record not on media", keep, keep, false, zero, Some(1)),
    ];
    for (row, cp_image, rd_image, tear, cp_after, recorded) in rows {
        let path = tmp("torn_publish");
        {
            let store = Store::open_sized(&path, HEAP_BYTES).unwrap();
            let q = store.queue::<LP>(NAME).unwrap();
            q.enqueue(1, 10);
            q.enqueue(2, 20);
            assert_eq!(q.dequeue(2), Some(10));
        }
        let stride = ARENA_SLOT_STRIDE as u64;
        let slot = root_offset(&path, rootkeys::RECAREA) + stride; // pid 1
        let (rd, cp) = (read_at(&path, slot), read_at(&path, slot + 8));
        assert!(rd != 0 && cp >> 63 == 1, "pid 1 published: ({cp:#x}, {rd:#x})");
        let prior = (read_at(&path, slot + stride), read_at(&path, slot + stride + 8)); // pid 2's
        if tear {
            patch(&path, rd + 24, &0xFFFF_FFF8u64.to_le_bytes()); // its affect cell
        }
        patch(&path, slot, &rd_image(rd).to_le_bytes());
        patch(&path, slot + 8, &cp_image(cp).to_le_bytes());
        if let Some(seq) = recorded {
            // Rollback target, then one check: pid 3's zero `RD_q` word.
            for (k, w) in [prior.0, prior.1, slot + 2 * stride, seq].into_iter().enumerate() {
                patch(&path, slot + 16 + 8 * k as u64, &w.to_le_bytes());
            }
        }
        let p = path.clone();
        by_deadline(row, move || {
            let store = Store::open_sized(&p, HEAP_BYTES)
                .unwrap_or_else(|e| panic!("{row}: a torn publication is no damage: {e}"));
            let want =
                if recorded.is_some() { store.summary().decision(2) } else { Recovered::Restart };
            assert_eq!(store.summary().decision(1), want, "{row}");
            let q = store.queue::<LP>(NAME).unwrap();
            assert_eq!((q.dequeue(0), q.dequeue(0)), (Some(20), None), "{row}");
        });
        let after = (read_at(&path, slot), read_at(&path, slot + 8));
        let back = if recorded.is_some() { prior } else { (0, cp_after(cp_image(cp))) };
        assert_eq!(after, back, "{row}: the slot after attach");
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn invalid_reservation_fails_typed() {
    let path = tmp("resv");
    mk_map(&path);
    // Word 11: the VA reservation, the span every attacher maps. One that
    // is not page-aligned is rejected before anything is mapped.
    patch(&path, 11 * 8, &(read_word(&path, 11) + 8).to_le_bytes());
    assert!(matches!(map_err(attach(&path)), MapError::BadSuperblock(_)));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn pointer_at_mapping_end_fails_typed_not_oob() {
    let path = tmp("oob");
    mk_map(&path);
    // Point the map's first bucket head (word 0 of the root block its
    // catalog entry names) at the very last 8-aligned offset of the
    // mapping: it is aligned and *starts* inside the arena, but reading a
    // whole node there would run past the mapping end. The span-aware
    // validation must reject it before any dereference.
    let size = read_word(&path, 3);
    patch(&path, entry_root(&path), &(size - 8).to_le_bytes());
    match map_err(attach(&path)) {
        MapError::CorruptPointer { addr } => assert_eq!(addr, size - 8),
        e => panic!("expected CorruptPointer, got {e}"),
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn bitmap_overlapping_data_region_fails_typed() {
    let path = tmp("bmfit");
    mk_map(&path);
    // Shrink the recorded data offset to the superblock page: the commit
    // bitmap would then overlap the data region, and bm_set/bm_clear would
    // silently scribble over block payloads. Must be a typed error.
    patch(&path, 6 * 8, &4096u64.to_le_bytes());
    assert!(matches!(map_err(attach(&path)), MapError::BadSuperblock(_)));
    let _ = std::fs::remove_file(&path);
}

/// The chunk headers of a heap file below its bump, in order: `(granule,
/// state, count)` with the state and count fields of header word 0 (see
/// `nvm::mapped`'s `alloc` layer: state 2 a committed cold block, 4 a pad, 5
/// a slab whose count is its class).
fn chunks(path: &PathBuf) -> Vec<(u64, u64, u64)> {
    let (data_off, bump) = (read_word(path, 6), read_word(path, 5));
    let mut out = Vec::new();
    let mut g = 0;
    while g < bump {
        let h = read_at(path, data_off + g * 64);
        let (state, count) = (h >> 40 & 0xFF, h & 0xFFFF_FFFF);
        out.push((g, state, count));
        g += match state {
            5 => 64,
            4 => 1 + count,
            _ => (1 + count).next_multiple_of(64),
        };
    }
    out
}

/// Granule of the first slab of a heap file.
fn first_slab(path: &PathBuf) -> u64 {
    chunks(path).into_iter().find(|&(_, state, _)| state == 5).expect("a slab").0
}

#[test]
fn torn_bitmap_fails_typed() {
    // The commit bitmap starts at word 7's offset (PAGE = 4096). The first
    // chunk holds one committed cold block (the recovery area): granule 0
    // is its header, granule 1 starts its payload and carries the one set
    // bit of the chunk's word. A further bit on the header or inside the
    // payload starts no committed block: no crash ordering sets it.
    for granule in [0, 2] {
        let path = tmp("bitmap");
        mk_map(&path);
        let bm_off = read_word(&path, 7);
        let word0 = read_at(&path, bm_off);
        assert_eq!((chunks(&path)[0].1, word0), (2, 0b10), "a committed cold block at granule 0");
        patch(&path, bm_off, &(word0 | 1 << granule).to_le_bytes());
        match map_err(attach(&path)) {
            MapError::CorruptBitmap { granule: g } => assert_eq!(g, granule as usize),
            e => panic!("expected CorruptBitmap, got {e}"),
        }
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn committed_block_with_cleared_bit_fails_typed() {
    let path = tmp("bitclear");
    mk_map(&path);
    // Clear the bitmap word of the first slab: every block its committed
    // mask names is now committed with no bit — the other irreconcilable
    // direction. The first of them (the slab's granule 1) is named.
    let slab = first_slab(&path);
    let bm_word = read_word(&path, 7) + slab / 64 * 8;
    assert_eq!(read_at(&path, bm_word) & 0b10, 0b10, "the slab's first block is committed");
    patch(&path, bm_word, &0u64.to_le_bytes());
    match map_err(attach(&path)) {
        MapError::CorruptBitmap { granule } => assert_eq!(granule as u64, slab + 1),
        e => panic!("expected CorruptBitmap, got {e}"),
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn smashed_block_header_fails_typed() {
    // The first chunk header lives at data_off (superblock word 6); smash
    // it, and then (in a second image) the header of the first slab.
    for first in [true, false] {
        let path = tmp("header");
        mk_map(&path);
        let granule = if first { 0 } else { first_slab(&path) };
        let data_off = read_word(&path, 6);
        patch(&path, data_off + granule * 64, &0xFFFF_FFFF_FFFF_FFFFu64.to_le_bytes());
        match map_err(attach(&path)) {
            MapError::CorruptHeader { granule: g } => assert_eq!(g as u64, granule),
            e => panic!("expected CorruptHeader, got {e}"),
        }
        let _ = std::fs::remove_file(&path);
    }
}

/// Superblock word 9: the heap's kind stamp.
const W_KIND: u64 = 9;

/// A heap whose superblock kind is not a store's — one of the stamps 1..=5
/// of the retired single-structure heaps, or a tag no build knows — is
/// refused with a typed `WrongKind` whose text names both kinds, before
/// anything reads the image as a store. With its stamp restored, the same
/// image opens with its contents intact.
#[test]
fn retired_heap_formats_are_refused_in_words() {
    let path = tmp("retired");
    mk_map(&path);
    let store_kind = isb::store::KIND_STORE;
    assert_eq!(read_word(&path, W_KIND), store_kind);
    let retired =
        ["hashmap", "queue", "list", "bst", "stack"].into_iter().zip(1u64..).map(|(name, kind)| {
            (kind, format!("a {name} (kind {kind}), a heap format this build no longer opens"))
        });
    let unknown = (0xEE, "an unknown kind (238), a heap format this build does not open".into());
    for (kind, hosts) in retired.chain([unknown]) {
        patch(&path, W_KIND * 8, &kind.to_le_bytes());
        match Store::open_sized(&path, HEAP_BYTES) {
            Err(e @ AttachError::WrongKind { .. }) => {
                let want = format!("heap hosts {hosts}; expected a store (kind 6)");
                assert_eq!(e.to_string(), want);
                let AttachError::WrongKind { name, expected, found } = e else { unreachable!() };
                assert_eq!((name.as_str(), expected, found), ("", store_kind, kind));
            }
            Err(e) => panic!("kind {kind}: expected WrongKind, got {e}"),
            Ok(_) => panic!("kind {kind} must not open as a store"),
        }
    }
    patch(&path, W_KIND * 8, &store_kind.to_le_bytes());
    let mut map = sole(&path, |s| s.hashmap::<LP>(NAME, SHARDS)).expect("the restored stamp opens");
    assert_eq!(map.snapshot_keys(), (1..=128).collect::<Vec<u64>>());
    map.check_invariants();
    drop(map);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn heap_level_torn_tail_is_poisoned_through_structure_attach() {
    let path = tmp("torntail");
    mk_map(&path);
    {
        // Re-open at heap level and abandon an uncommitted allocation —
        // exactly the image a kill between `alloc` and `commit` leaves.
        let heap = MappedHeap::open(&path, nvm::mapped::MIN_HEAP_BYTES).unwrap();
        let p = heap.alloc(192).unwrap();
        unsafe { std::ptr::write_bytes(p, 0xAB, 192) };
        // no commit
    }
    nvm::tid::set_tid(0);
    let p = path.clone();
    let map = by_deadline("the torn tail's attach", move || {
        let store = Store::open_sized(&p, HEAP_BYTES).expect("torn tail must heal, not fail");
        assert_eq!(store.summary().heap.poisoned, 1, "exactly the abandoned block is poisoned");
        store.hashmap::<LP>(NAME, SHARDS).unwrap()
    });
    let mut map = Arc::into_inner(map).unwrap();
    assert_eq!(map.snapshot_keys(), (1..=128).collect::<Vec<u64>>());
    map.check_invariants();
    drop(map);
    let _ = std::fs::remove_file(&path);
}

// ---------------------------------------------------------------------------
// Catalog corruption (multi-structure store)
// ---------------------------------------------------------------------------

/// Builds a two-structure store and returns the catalog block's file offset.
fn mk_store(path: &PathBuf) -> u64 {
    nvm::tid::set_tid(0);
    {
        let store = Store::open_sized(path, HEAP_BYTES).unwrap();
        let m = store.hashmap::<LP>("users", SHARDS).unwrap();
        let q = store.queue::<LP>("jobs").unwrap();
        for k in 1..=64u64 {
            assert!(m.insert(0, k));
        }
        for v in 1..=32u64 {
            q.enqueue(0, v);
        }
    }
    root_offset(path, rootkeys::CATALOG)
}

fn store_err(path: &Path) -> AttachError {
    let path = path.to_path_buf();
    by_deadline(format!("the attach of {}", path.display()), move || {
        match Store::open_sized(&path, HEAP_BYTES) {
            Err(e) => e,
            Ok(_) => panic!("corrupt catalog must not attach"),
        }
    })
}

#[test]
fn catalog_root_offset_out_of_bounds_fails_typed() {
    let path = tmp("cat_root");
    let cat = mk_store(&path);
    // Entry word 2 is the root offset; point slot 0's outside the file.
    let size = read_word(&path, 3);
    patch(&path, cat + 16, &(size + 4096).to_le_bytes());
    match store_err(&path) {
        AttachError::Map(MapError::CorruptCatalog { slot }) => assert_eq!(slot, 0),
        e => panic!("expected CorruptCatalog, got {e}"),
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn catalog_oversized_name_fails_typed() {
    let path = tmp("cat_name");
    let cat = mk_store(&path);
    // Entry word 3 is the name length; 33 exceeds the inline name buffer.
    patch(&path, cat + 24, &33u64.to_le_bytes());
    assert!(matches!(store_err(&path), AttachError::Map(MapError::CorruptCatalog { slot: 0 })));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn catalog_unknown_kind_fails_typed() {
    let path = tmp("cat_kind");
    let cat = mk_store(&path);
    // Entry word 0 is the kind (valid flag); 0xEE is no known structure.
    patch(&path, cat, &0xEEu64.to_le_bytes());
    assert!(matches!(store_err(&path), AttachError::Map(MapError::CorruptCatalog { slot: 0 })));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn catalog_second_entry_corruption_reports_its_slot() {
    let path = tmp("cat_slot1");
    let cat = mk_store(&path);
    // Slot 1 ("jobs", 64 bytes after slot 0): zero name length.
    patch(&path, cat + 64 + 24, &0u64.to_le_bytes());
    assert!(matches!(store_err(&path), AttachError::Map(MapError::CorruptCatalog { slot: 1 })));
    let _ = std::fs::remove_file(&path);
}

/// Asserts that opening the store fails on catalog slot 0 and — once `undo`
/// has put the patched word back — that the failed open wrote nothing over
/// the structures: both attach intact.
fn assert_slot0_rejected_untouched(path: &PathBuf, undo: impl FnOnce()) {
    match store_err(path) {
        AttachError::Map(MapError::CorruptCatalog { slot }) => assert_eq!(slot, 0),
        e => panic!("expected CorruptCatalog, got {e}"),
    }
    undo();
    nvm::tid::set_tid(0);
    let store = Store::open_sized(path, HEAP_BYTES).expect("the undamaged image attaches");
    let m = store.hashmap::<LP>("users", SHARDS).unwrap();
    let q = store.queue::<LP>("jobs").unwrap();
    for k in 1..=96u64 {
        assert_eq!(m.find(0, k), k <= 64, "map key {k}");
    }
    for v in 1..=32u64 {
        assert_eq!(q.dequeue(0), Some(v), "queue order");
    }
    assert_eq!(q.dequeue(0), None);
    drop((m, q, store));
    let _ = std::fs::remove_file(path);
}

/// Entry word 1 is the configuration: a shard count whose bucket-head array
/// would run a megabyte past the 64-byte root block.
#[test]
fn catalog_shard_count_beyond_the_root_block_fails_typed() {
    let path = tmp("cat_shards");
    let cat = mk_store(&path);
    let cfg = read_at(&path, cat + 8);
    assert_eq!(cfg, SHARDS as u64 | (LP as u64) << 32, "slot 0 is the map");
    patch(&path, cat + 8, &(1u64 << 20 | (LP as u64) << 32).to_le_bytes());
    assert_slot0_rejected_untouched(&path, || patch(&path, cat + 8, &cfg.to_le_bytes()));
}

/// The arm byte of entry word 1: a level no build ever stamped. (Levels 0,
/// 1 and the retired 2 are refused by name instead: `kvserve`'s upgrade
/// test.)
#[test]
fn catalog_unknown_arm_fails_typed() {
    let path = tmp("cat_arm");
    let cat = mk_store(&path);
    patch(&path, cat + 12, &[9]);
    assert_slot0_rejected_untouched(&path, || patch(&path, cat + 12, &[LP]));
}

/// A stack entry of the retired direct-tracked format — its configuration
/// word patched back to that format's stamp, `0x53` at arm byte 0 — is
/// refused typed and by name, before anything durable happens: the file
/// keeps its length and the word, and once restored the stack opens intact.
#[test]
fn catalog_direct_tracked_stack_is_refused_by_name() {
    let path = tmp("cat_dt_stack");
    nvm::tid::set_tid(0);
    {
        let store = Store::open_sized(&path, HEAP_BYTES).unwrap();
        let s = store.stack(NAME).unwrap();
        (1..=3).for_each(|v| s.push(0, v));
    }
    let cfg_at = root_offset(&path, rootkeys::CATALOG) + 8; // slot 0, word 1
    let cfg = read_at(&path, cfg_at);
    assert_eq!(cfg, 0x53 | 3 << 32, "slot 0 is the stack, stamped Isb-LP");
    patch(&path, cfg_at, &0x53u64.to_le_bytes());
    let bytes = std::fs::metadata(&path).unwrap().len();
    match Store::open_sized(&path, HEAP_BYTES) {
        Err(e @ AttachError::RetiredFormat { .. }) => assert_eq!(
            e.to_string(),
            "entry \"s\" holds a direct-tracked stack, a format this build no longer opens"
        ),
        Err(e) => panic!("expected RetiredFormat, got {e}"),
        Ok(_) => panic!("a direct-tracked stack entry must not open"),
    }
    assert_eq!(std::fs::metadata(&path).unwrap().len(), bytes, "the refusal grew the heap");
    assert_eq!(read_at(&path, cfg_at), 0x53, "the refusal rewrote the entry");
    patch(&path, cfg_at, &cfg.to_le_bytes());
    let mut s = sole(&path, |s| s.stack(NAME)).expect("the restored stamp opens");
    assert_eq!(s.snapshot_vals(), [3, 2, 1]);
    s.check_invariants();
    drop(s);
    let _ = std::fs::remove_file(&path);
}

/// A root offset that lands inside another block's payload — the recovery
/// area's — right behind bytes forged to look like a committed header: the
/// commit bitmap, not the bytes, says where blocks start.
#[test]
fn catalog_root_inside_another_blocks_payload_fails_typed() {
    let path = tmp("cat_inside");
    let cat = mk_store(&path);
    let root = read_at(&path, cat + 16);
    // The unused back half of recovery slot 10's 128-byte stride.
    let forged_hdr = root_offset(&path, rootkeys::RECAREA) + 10 * ARENA_SLOT_STRIDE as u64 + 64;
    assert_eq!(read_at(&path, forged_hdr), 0);
    patch(&path, forged_hdr, &(0xB10C_u64 << 48 | 2 << 40 | 1).to_le_bytes());
    patch(&path, cat + 16, &(forged_hdr + 64).to_le_bytes());
    assert_slot0_rejected_untouched(&path, || {
        patch(&path, forged_hdr, &0u64.to_le_bytes());
        patch(&path, cat + 16, &root.to_le_bytes());
    });
}

/// A root offset in the very last granule of the mapping: in bounds as an
/// address, but no block was ever allocated there.
#[test]
fn catalog_root_in_the_last_granule_fails_typed() {
    let path = tmp("cat_last");
    let cat = mk_store(&path);
    let root = read_at(&path, cat + 16);
    let size = read_word(&path, 3);
    patch(&path, cat + 16, &(size - 64).to_le_bytes());
    assert_slot0_rejected_untouched(&path, || patch(&path, cat + 16, &root.to_le_bytes()));
    // Unaligned, it is not even a payload address.
    let path = tmp("cat_unaligned");
    let cat = mk_store(&path);
    let root = read_at(&path, cat + 16);
    patch(&path, cat + 16, &(root + 8).to_le_bytes());
    assert_slot0_rejected_untouched(&path, || patch(&path, cat + 16, &root.to_le_bytes()));
}

/// A cleared kind word is indistinguishable from a torn entry creation:
/// the slot is simply invisible, the orphaned blocks are swept, and the
/// rest of the store attaches fine.
#[test]
fn catalog_cleared_kind_word_is_a_benign_empty_slot() {
    let path = tmp("cat_torn");
    let cat = mk_store(&path);
    patch(&path, cat + 64, &0u64.to_le_bytes()); // slot 1's kind := 0
    nvm::tid::set_tid(0);
    let store = Store::open_sized(&path, HEAP_BYTES).unwrap();
    let names: Vec<String> = store.entries().into_iter().map(|(n, _, _)| n).collect();
    assert_eq!(names, vec!["users".to_string()], "slot 1 invisible, slot 0 intact");
    assert!(store.summary().swept > 0, "the orphaned entry's blocks are reclaimed");
    let m = store.hashmap::<LP>("users", SHARDS).unwrap();
    for k in 1..=64u64 {
        assert!(m.find(0, k), "surviving entry damaged by the sweep");
    }
    drop((m, store));
    let _ = std::fs::remove_file(&path);
}

/// One heap, two handles in one process: the second `Store::open` of the
/// live heap is a joiner, and it maps at a base
/// of its own (the first handle's mapping holds the first). Every structure
/// kind written through handle A is read and mutated through handle B, a map
/// key and a queue value equal to an address inside A's window come back
/// unchanged through B, and B's online peer recovery resolves a dead band's
/// dequeue, published under A, as completed with its value.
#[test]
fn one_shared_store_at_two_bases_in_one_process() {
    use isb::engine::res_val;
    use isb::recovery::Recovered;
    let path = tmp("two_bases");
    let a = Store::open_sized(&path, HEAP_BYTES).unwrap();
    let ta = MappedHeap::tid_band(a.heap().my_participant().unwrap()).start;
    nvm::tid::set_tid(ta);
    let (m, q) = (a.hashmap::<LP>("users", SHARDS).unwrap(), a.queue::<LP>("jobs").unwrap());
    let (l, t) = (a.list::<LP>("index").unwrap(), a.bst::<LP>("tree").unwrap());
    let s = a.stack("undo").unwrap();
    for k in 1..=100u64 {
        assert!(m.insert(ta, k) && l.insert(ta, k) && t.insert(ta, k * 7 % 101));
        q.enqueue(ta, k);
        s.push(ta, k);
    }
    let in_window = a.heap().base() as u64 + 0x1_0000;
    assert!(m.insert(ta, in_window));
    q.enqueue(ta, in_window);
    // A dead peer's band dequeues under A and dies before anyone learns the
    // answer.
    let dead = a.heap().debug_register_peer(u32::MAX as u64 - 21, 1).unwrap();
    let td = MappedHeap::tid_band(dead).start;
    nvm::tid::set_tid(td);
    assert_eq!(q.dequeue(td), Some(1));

    let b = Store::open_sized(&path, HEAP_BYTES).unwrap();
    assert!(b.summary().heap.joined);
    assert_ne!(b.heap().base(), a.heap().base(), "a joiner maps at a base of its own");
    let tb = MappedHeap::tid_band(b.heap().my_participant().unwrap()).start;
    nvm::tid::set_tid(tb);
    let decisions = b.recover_peer(dead).unwrap().expect("recovered under the lease");
    assert!(decisions.contains(&(td, Recovered::Completed(res_val(1)))), "{decisions:?}");
    let (m2, q2) = (b.hashmap::<LP>("users", SHARDS).unwrap(), b.queue::<LP>("jobs").unwrap());
    let (l2, t2) = (b.list::<LP>("index").unwrap(), b.bst::<LP>("tree").unwrap());
    let s2 = b.stack("undo").unwrap();
    for k in 1..=100u64 {
        assert!(m2.find(tb, k) && l2.find(tb, k) && t2.find(tb, k * 7 % 101), "key {k}");
        assert_eq!(s2.pop(tb), Some(101 - k));
    }
    for k in 2..=100u64 {
        assert_eq!(q2.dequeue(tb), Some(k));
    }
    assert!(m2.find(tb, in_window), "an in-window key reads back unchanged");
    assert_eq!(q2.dequeue(tb), Some(in_window), "an in-window value reads back unchanged");
    for k in 1001..=1100u64 {
        assert!(m2.insert(tb, k) && l2.insert(tb, k) && t2.insert(tb, k));
        q2.enqueue(tb, k);
        s2.push(tb, k);
    }
    // ...and what B wrote reads back through A.
    nvm::tid::set_tid(ta);
    assert!(m.find(ta, 1100) && l.find(ta, 1001) && t.find(ta, 1050));
    assert_eq!((q.dequeue(ta), s.pop(ta)), (Some(1001), Some(1100)));
    drop((m2, q2, l2, t2, s2, b));
    drop((m, q, l, t, s, a));
    let _ = std::fs::remove_file(&path);
}

/// A store closed and reopened at another base (a heap opened in between
/// holds the old range) keeps all five structure kinds answering and
/// mutating: its links are offsets, so nothing is rewritten on the way in.
/// The squatter keeps the old range mapped, mostly past its own end of file,
/// so a link decoded against the old base would fault (or scribble on the
/// squatter's blocks, which its re-attach walk would then reject).
#[test]
fn relocated_store_keeps_every_structure_kind_working() {
    let (path, squat_path) = (tmp("reloc_store"), tmp("reloc_squat"));
    nvm::tid::set_tid(0);
    let old_base = {
        let store = Store::open_sized(&path, HEAP_BYTES).unwrap();
        let (m, q) =
            (store.hashmap::<LP>("users", SHARDS).unwrap(), store.queue::<LP>("jobs").unwrap());
        let (l, t) = (store.list::<LP>("index").unwrap(), store.bst::<LP>("tree").unwrap());
        let s = store.stack("undo").unwrap();
        for k in 1..=200u64 {
            assert!(m.insert(0, k) && l.insert(0, k) && t.insert(0, k * 7 % 211));
            q.enqueue(0, k);
            s.push(0, k);
        }
        for k in (1..=200u64).step_by(3) {
            assert!(m.delete(0, k) && l.delete(0, k));
        }
        store.heap().base() as usize
    };
    let squatter = MappedHeap::create(&squat_path, nvm::mapped::MIN_HEAP_BYTES).unwrap();
    let squatted = squatter.base() as usize == old_base;
    let store = Store::open_sized(&path, HEAP_BYTES).unwrap();
    // (The kernel may put the squatter elsewhere; then the store need not
    // move, and the rest still runs.)
    assert!(store.heap().base() as usize != old_base || !squatted);
    let (m, q) =
        (store.hashmap::<LP>("users", SHARDS).unwrap(), store.queue::<LP>("jobs").unwrap());
    let (l, t) = (store.list::<LP>("index").unwrap(), store.bst::<LP>("tree").unwrap());
    let s = store.stack("undo").unwrap();
    for k in 1..=200u64 {
        assert_eq!(m.find(0, k), k % 3 != 1, "map key {k}");
        assert_eq!(l.find(0, k), k % 3 != 1, "list key {k}");
        assert!(t.find(0, k * 7 % 211), "bst key {k}");
        assert_eq!(q.dequeue(0), Some(k));
        assert_eq!(s.pop(0), Some(201 - k));
    }
    // ...and every kind keeps mutating: new nodes, recycled descriptors.
    for k in 1001..=1200u64 {
        assert!(m.insert(0, k) && l.insert(0, k) && t.insert(0, k));
        q.enqueue(0, k);
        s.push(0, k);
    }
    drop((m, q, l, t, s, store));
    // A third open, wherever it maps, replays and sweeps.
    let store = Store::open_sized(&path, HEAP_BYTES).unwrap();
    assert!(store.hashmap::<LP>("users", SHARDS).unwrap().find(0, 1200));
    drop((store, squatter));
    drop(
        MappedHeap::open(&squat_path, nvm::mapped::MIN_HEAP_BYTES)
            .expect("nothing scribbled on the squatter"),
    );
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&squat_path);
}

// ---------------------------------------------------------------------------
// Response-table corruption (the KV service's exactly-once dedup state)
// ---------------------------------------------------------------------------

// Root block layout (see isb::resptable): 64-byte header (word 0 = magic
// "RTB2"), then 256 client slots [id, last_seq, resp, pending] — 64 bytes
// each; pending = (tid << 56) | op_seq.
const RTAB_MAGIC: u64 = 0x5254_4232;
/// The retired layout with a separate per-tid intent array.
const RTB1_MAGIC: u64 = 0x5254_4231;
const LAST_SEQ: u64 = 8;
const RESP: u64 = 16;
const PENDING: u64 = 24;
/// A pid whose last operation completed (an enqueue, so the next attach
/// decides `Completed(RES_UNIT)` for it), and one that never ran
/// (`Restart`).
const DONE_PID: usize = 5;
const IDLE_PID: usize = 7;

fn rtab_offset(path: &PathBuf) -> u64 {
    root_offset(path, 0x5245_5350) // rootkeys::RESPTAB
}

fn rtab_client_off(rtab: u64, idx: usize) -> u64 {
    rtab + 64 * (1 + idx as u64)
}

fn pending_word(tid: usize, op_seq: u64) -> u64 {
    (tid as u64) << 56 | op_seq
}

/// Builds a store whose response table carries one finalized client record
/// (id 42, watermark seq 5, response `RES_TRUE`); returns the table's file
/// offset and the client's slot index.
fn mk_kv_store(path: &PathBuf) -> (u64, usize) {
    nvm::tid::set_tid(0);
    let idx = {
        let store = Store::open_sized(path, HEAP_BYTES).unwrap();
        let m = store.hashmap::<LP>("kv", SHARDS).unwrap();
        assert!(m.insert(0, 1));
        store.queue::<LP>("jobs").unwrap().enqueue(DONE_PID, 9);
        let tab = store.response_table();
        let idx = tab.register(42).expect("slot free");
        tab.finish_op(0, idx, 5, RES_TRUE);
        idx
    };
    let rtab = rtab_offset(path);
    assert_eq!(read_at(path, rtab), RTAB_MAGIC, "layout drifted: header not where expected");
    assert_eq!(read_at(path, rtab_client_off(rtab, idx)), 42, "layout drifted: slot moved");
    (rtab, idx)
}

#[test]
fn resptable_bad_magic_fails_typed() {
    for magic in [0xDEAD_BEEFu64, RTB1_MAGIC] {
        let path = tmp("rtab_magic");
        let (rtab, _idx) = mk_kv_store(&path);
        patch(&path, rtab, &magic.to_le_bytes());
        match store_err(&path) {
            AttachError::CorruptResponseTable { slot: 0, reason } => {
                assert_eq!(reason, "bad header magic");
            }
            e => panic!("expected CorruptResponseTable, got {e}"),
        }
        let _ = std::fs::remove_file(&path);
    }
}

/// `pending` is the whole in-flight record. A tid that does not exist or a
/// sequence number more than one ahead of the watermark is bit rot, not a
/// crash shape, and healing must refuse to guess.
#[test]
fn resptable_garbage_intent_state_fails_typed() {
    for (pending, why) in [
        (pending_word(nvm::MAX_PROCS, 6), "tid"),
        (pending_word(255, 0), "tid"),
        (pending_word(3, 7), "ahead"),
    ] {
        let path = tmp("rtab_state");
        let (rtab, idx) = mk_kv_store(&path);
        patch(&path, rtab_client_off(rtab, idx) + PENDING, &pending.to_le_bytes());
        match store_err(&path) {
            AttachError::CorruptResponseTable { slot, reason } => {
                assert_eq!(slot, idx, "error must name the damaged client slot");
                assert!(reason.contains(why), "unexpected reason: {reason}");
            }
            e => panic!("expected CorruptResponseTable, got {e}"),
        }
        let _ = std::fs::remove_file(&path);
    }
}

/// A byte-patched in-flight `pending` (watermark 5, sequence 6) resolves by
/// the attach replay's decision for the pid it names: stepped back to the
/// watermark under `Restart`, finalized to the decided response under `Completed`.
#[test]
fn resptable_inflight_pending_heals_by_decision() {
    for (pid, healed) in [(IDLE_PID, (5, RES_TRUE)), (DONE_PID, (6, RES_UNIT))] {
        let path = tmp("rtab_inflight");
        let (rtab, idx) = mk_kv_store(&path);
        let slot = rtab_client_off(rtab, idx);
        patch(&path, slot + PENDING, &pending_word(pid, 6).to_le_bytes());
        nvm::tid::set_tid(0);
        let store = Store::open_sized(&path, HEAP_BYTES).unwrap();
        let tab = store.response_table();
        assert_eq!(tab.inflight(pid), None, "resolved before the store is handed out");
        assert_eq!(tab.lookup(42), Some(healed));
        assert!(!tab.foreign_inflight(42, 0..1));
        drop((tab, store));
        assert_eq!((read_at(&path, slot + LAST_SEQ), read_at(&path, slot + RESP)), healed);
        let left = pending_word(pid, if pid == IDLE_PID { 5 } else { 6 });
        assert_eq!(read_at(&path, slot + PENDING), left, "Restart steps it back to the watermark");
        let _ = std::fs::remove_file(&path);
    }
}

/// A client slot with `id == 0` but residue in the other words is a torn
/// registration (the ID stamp never persisted): healing zeroes it, and the
/// client re-registers fresh.
#[test]
fn resptable_torn_client_slot_heals_to_empty() {
    let path = tmp("rtab_torn");
    let (rtab, idx) = mk_kv_store(&path);
    // A torn registration in some OTHER slot than client 42's.
    let torn = rtab_client_off(rtab, (idx + 7) % 256);
    assert_eq!(read_at(&path, torn), 0, "a free slot");
    patch(&path, torn + LAST_SEQ, &99u64.to_le_bytes());
    patch(&path, torn + RESP, &77u64.to_le_bytes());
    patch(&path, torn + PENDING, &pending_word(3, 100).to_le_bytes());
    nvm::tid::set_tid(0);
    let store = Store::open_sized(&path, HEAP_BYTES).unwrap();
    let tab = store.response_table();
    assert_eq!(tab.lookup(42), Some((5, RES_TRUE)), "intact slot survives healing");
    assert_eq!(tab.inflight(3), None);
    for word in [LAST_SEQ, RESP, PENDING] {
        assert_eq!(read_at(&path, torn + word), 0, "residue zeroed");
    }
    drop((tab, store));
    let _ = std::fs::remove_file(&path);
}

/// Two slots claiming the same client ID (a crash between a slot CAS and
/// its persist can leave the retried registration in a second slot): the
/// heal is deterministic — the higher ack watermark wins, the stale slot
/// becomes a tombstone (`u64::MAX`, not 0: a mid-chain 0 would truncate
/// the probe chain of every client that passed through the slot).
#[test]
fn resptable_duplicate_client_heals_to_higher_watermark() {
    let path = tmp("rtab_dup");
    let (rtab, idx) = mk_kv_store(&path);
    let dup = rtab_client_off(rtab, (idx + 11) % 256);
    patch(&path, dup, &42u64.to_le_bytes()); // same id
    patch(&path, dup + LAST_SEQ, &2u64.to_le_bytes()); // stale seq
    patch(&path, dup + RESP, &1u64.to_le_bytes()); // RES_FALSE
    patch(&path, dup + PENDING, &pending_word(3, 2).to_le_bytes()); // its retired record
    nvm::tid::set_tid(0);
    let store = Store::open_sized(&path, HEAP_BYTES).unwrap();
    let tab = store.response_table();
    assert_eq!(tab.lookup(42), Some((5, RES_TRUE)), "higher watermark must win");
    assert_eq!(read_at(&path, dup), u64::MAX, "stale duplicate tombstoned, not zeroed");
    for word in [LAST_SEQ, RESP, PENDING] {
        assert_eq!(read_at(&path, dup + word), 0, "residue zeroed");
    }
    drop((tab, store));
    let _ = std::fs::remove_file(&path);
}

// -- structure creation: sentinels first, root last ---------------------------

/// A power failure — unlike a SIGKILL, which drops no unflushed line — must
/// never find a durable root naming a sentinel whose fields did not reach
/// memory. Creating a catalog entry's structure therefore writes back every
/// sentinel it drew, fences, stores the root word(s), writes those lines
/// back and fences again, all through the counted instructions. (The order
/// itself is swept under the crash simulator by
/// `recovery::tests::sim_crash_during_creation_…`.)
#[test]
fn creation_writes_back_sentinels_and_roots() {
    const T: usize = 41; // counters of its own
    nvm::tid::set_tid(T);
    type Create = fn(&Store);
    // (kind, sentinel nodes, root-word lines, creator)
    let kinds: &[(&str, u64, u64, Create)] = &[
        ("hashmap", 128, 8, |s| drop(s.hashmap::<LP>(NAME, 64).unwrap())),
        ("list", 2, 1, |s| drop(s.list::<LP>(NAME).unwrap())),
        ("bst", 5, 1, |s| drop(s.bst::<LP>(NAME).unwrap())),
        ("queue", 1, 1, |s| drop(s.queue::<LP>(NAME).unwrap())),
    ];
    for &(kind, sentinels, root_lines, create) in kinds {
        let path = tmp(&format!("create_{kind}"));
        let store = Store::open_sized(&path, HEAP_BYTES).unwrap();
        let before = nvm::stats::Snapshot::of_tid(T);
        create(&store);
        let d = nvm::stats::Snapshot::of_tid(T).since(&before);
        // Every sentinel occupies a line of its own (arena blocks are
        // granule-aligned). The catalog entry is heap metadata, written
        // back outside the counted instructions.
        let lines = d.pwb + d.pbarrier_lines;
        assert!(
            lines >= sentinels + root_lines,
            "{kind}: {lines} lines written back, want the {sentinels} sentinels' and \
             {root_lines} of root words"
        );
        assert!(d.pfence >= 1, "{kind}: no fence between the sentinels and the root store");
        assert!(d.psync >= 1, "{kind}: no fence after the last root store");
        drop(store);
        let _ = std::fs::remove_file(&path);
    }
}

// -- hostile images, every kind, through the one walk -------------------------

/// File offset of the first link (`next` / `left`: word 1 of every node
/// shape) of the node the first root word of catalog slot 0's structure
/// names — the list's and the map's bucket head, the tree's root, the
/// queue's sentinel (the anchor leads with its link), the stack's top. A
/// link is a heap offset, and a heap offset is a file offset.
fn first_link(path: &PathBuf) -> u64 {
    read_at(path, entry_root(path)) + 8
}

/// One reachable link per kind patched to (a) the last word of the mapping —
/// aligned, starts inside, but a whole node there runs past the end; (b) an
/// in-heap offset that is not 8-aligned; (c) the node's own offset, a
/// cycle. Each attach is a typed `CorruptPointer` — naming the patched value
/// for (a) and (b), terminating on its walk budget for (c) — and once the
/// patch is undone the image attaches with its contents intact.
#[test]
fn hostile_links_fail_typed_in_every_kind() {
    nvm::tid::set_tid(0);
    type Step = fn(&PathBuf) -> Result<(), AttachError>;
    // (kind, build a small populated store, re-open it and check the contents)
    let kinds: &[(&str, Step, Step)] = &[
        (
            "list",
            |p| {
                let l = sole(p, |s| s.list::<LP>(NAME))?;
                (1..=8).for_each(|k| assert!(l.insert(0, k)));
                Ok(())
            },
            |p| {
                let keys = sole(p, |s| s.list::<LP>(NAME))?.snapshot_keys();
                assert_eq!(keys, (1..=8).collect::<Vec<_>>());
                Ok(())
            },
        ),
        (
            "hashmap",
            |p| {
                let m = sole(p, |s| s.hashmap::<LP>(NAME, SHARDS))?;
                (1..=32).for_each(|k| assert!(m.insert(0, k)));
                Ok(())
            },
            |p| {
                let keys = sole(p, |s| s.hashmap::<LP>(NAME, SHARDS))?.snapshot_keys();
                assert_eq!(keys, (1..=32).collect::<Vec<_>>());
                Ok(())
            },
        ),
        (
            "bst",
            |p| {
                let t = sole(p, |s| s.bst::<LP>(NAME))?;
                [9, 3, 12, 7].iter().for_each(|&k| assert!(t.insert(0, k)));
                Ok(())
            },
            |p| {
                assert_eq!(sole(p, |s| s.bst::<LP>(NAME))?.snapshot_keys(), vec![3, 7, 9, 12]);
                Ok(())
            },
        ),
        (
            "queue",
            |p| {
                let q = sole(p, |s| s.queue::<LP>(NAME))?;
                (1..=5).for_each(|v| q.enqueue(0, v));
                Ok(())
            },
            |p| {
                let vals = sole(p, |s| s.queue::<LP>(NAME))?.snapshot_vals();
                assert_eq!(vals, (1..=5).collect::<Vec<_>>());
                Ok(())
            },
        ),
        (
            "stack",
            |p| {
                let s = sole(p, |s| s.stack(NAME))?;
                (1..=4).for_each(|v| s.push(0, v));
                Ok(())
            },
            |p| {
                assert_eq!(sole(p, |s| s.stack(NAME))?.snapshot_vals(), vec![4, 3, 2, 1]);
                Ok(())
            },
        ),
    ];
    for &(kind, build, check) in kinds {
        let path = tmp(&format!("hostile_{kind}"));
        build(&path).unwrap();
        let (size, link) = (read_word(&path, 3), first_link(&path));
        let intact = read_at(&path, link);
        assert_ne!(intact, 0, "{kind}: the patched link is a live one");
        for (shape, named) in [("mapping end", true), ("unaligned", true), ("cycle", false)] {
            let hostile = match shape {
                "mapping end" => size - 8,
                "unaligned" => intact + 4,
                _ => link - 8, // the node's own offset
            };
            patch(&path, link, &hostile.to_le_bytes());
            match map_err(check(&path)) {
                MapError::CorruptPointer { addr } if !named || addr == hostile => {}
                e => panic!("{kind} / {shape}: expected CorruptPointer({hostile:#x}), got {e}"),
            }
            assert_eq!(read_at(&path, link), hostile, "{kind} / {shape}: the attach rewrote it");
            patch(&path, link, &intact.to_le_bytes());
        }
        check(&path).unwrap_or_else(|e| panic!("{kind}: the undamaged image must attach: {e}"));
        let _ = std::fs::remove_file(&path);
    }
}
