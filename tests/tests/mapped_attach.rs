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
use isb::recovery::AttachError;
use isb::store::Store;
use nvm::mapped::MappedHeap;
use nvm::MapError;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const SHARDS: usize = 4;
const HEAP_BYTES: usize = 2 * 1024 * 1024;
/// Catalog name of the one structure most images hold.
const NAME: &str = "s";

fn tmp(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!(
        "isb_corrupt_{}_{}_{name}.heap",
        std::process::id(),
        std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).unwrap().subsec_nanos()
    ));
    let _ = std::fs::remove_file(&p);
    p
}

/// Opens the store at `path`, takes one handle and closes the store again:
/// the returned structure is the handle's last owner (so `&mut` quiescent
/// checks run on it), and dropping it detaches the heap.
fn sole<T>(
    path: &PathBuf,
    get: impl FnOnce(&Store) -> Result<Arc<T>, AttachError>,
) -> Result<T, AttachError> {
    let store = Store::open_sized(path, HEAP_BYTES)?;
    let handle = get(&store)?;
    drop(store);
    Ok(Arc::into_inner(handle).expect("the store's last handle"))
}

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

/// Overwrites `bytes` at `offset` in the heap file.
fn patch(path: &PathBuf, offset: u64, bytes: &[u8]) {
    use std::io::{Seek, SeekFrom, Write};
    let mut f = std::fs::OpenOptions::new().write(true).open(path).unwrap();
    f.seek(SeekFrom::Start(offset)).unwrap();
    f.write_all(bytes).unwrap();
}

fn read_at(path: &PathBuf, offset: u64) -> u64 {
    use std::io::{Read, Seek, SeekFrom};
    let mut f = std::fs::File::open(path).unwrap();
    f.seek(SeekFrom::Start(offset)).unwrap();
    let mut b = [0u8; 8];
    f.read_exact(&mut b).unwrap();
    u64::from_le_bytes(b)
}

fn read_word(path: &PathBuf, word: u64) -> u64 {
    read_at(path, word * 8)
}

/// Root-directory scan (superblock words 16..): payload offset for `key`.
fn root_offset(path: &PathBuf, key: u64) -> u64 {
    for s in 0..16u64 {
        if read_word(path, 16 + 2 * s) == key {
            return read_word(path, 16 + 2 * s + 1);
        }
    }
    panic!("root key {key:#x} not registered");
}

/// File offset of the root block of catalog slot 0's structure (entry word
/// 2, a heap offset, is one: the mapping starts at file offset 0).
fn entry_root(path: &PathBuf) -> u64 {
    read_at(path, root_offset(path, 0x4341_5441) + 16) // rootkeys::CATALOG
}

fn attach(path: &PathBuf) -> Result<(), AttachError> {
    sole(path, |s| s.hashmap::<LP>(NAME, SHARDS)).map(drop)
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

/// A heap of a previous format fails typed before anything reads it: version
/// 6, whose descriptors took three cache lines with the sets in fixed
/// slots, version 5, whose links are absolute addresses rather than heap
/// offsets, version 4, whose every block carried a header granule of its
/// own (a v5 walk would misread every block), and version 3, whose
/// descriptors kept a response word and their first new-node entry past the
/// first cache line.
#[test]
fn previous_descriptor_format_fails_typed() {
    assert_eq!(nvm::mapped::VERSION, 7);
    for old in [6u64, 5, 4, 3] {
        let path = tmp("old_version");
        mk_map(&path);
        patch(&path, 8, &old.to_le_bytes()); // word 1: version
        match map_err(attach(&path)) {
            MapError::BadVersion(v) => assert_eq!(v, old),
            e => panic!("expected BadVersion({old}), got {e}"),
        }
        let _ = std::fs::remove_file(&path);
    }
}

/// File offsets of a node of the map that names a descriptor and of that
/// descriptor: the first non-zero `info` word (word 2 of a list node) along
/// the buckets, in shard order.
fn live_descriptor(path: &PathBuf) -> (u64, u64) {
    let root = entry_root(path);
    for shard in 0..SHARDS as u64 {
        let mut node = read_at(path, root + 8 * shard);
        while node != 0 {
            let info = read_at(path, node + 16) & !1;
            if info != 0 {
                return (node, info);
            }
            node = read_at(path, node + 8) & !1;
        }
    }
    panic!("no node of the map names a descriptor");
}

/// A committed descriptor whose `meta` claims the sets 4/1/3 — each within
/// its own capacity, together two words past the twelve set words (file
/// words 2..14 of the descriptor) — and whose set words all name a live
/// node, so every cell and install it names passes the span checks: only
/// the capacity check stands between attach and a read of its last
/// new-node cell past the set words. It fails typed, naming the
/// descriptor; the undamaged image attaches.
#[test]
fn over_capacity_descriptor_fails_typed() {
    let path = tmp("info_capacity");
    mk_map(&path);
    let (node, info) = live_descriptor(&path);
    let intact: Vec<u64> = (0..14).map(|w| read_at(&path, info + 8 * w)).collect();
    let claimed = intact[0] & !0xff_ff_ff_00 | 4 << 8 | 1 << 16 | 3 << 24;
    patch(&path, info, &claimed.to_le_bytes());
    for w in 2..14 {
        patch(&path, info + 8 * w, &node.to_le_bytes());
    }
    match map_err(attach(&path)) {
        MapError::CorruptPointer { addr } => assert_eq!(addr, info),
        e => panic!("expected CorruptPointer({info:#x}), got {e}"),
    }
    for (w, v) in intact.iter().enumerate() {
        patch(&path, info + 8 * w as u64, &v.to_le_bytes());
    }
    attach(&path).unwrap_or_else(|e| panic!("the undamaged image must attach: {e}"));
    let _ = std::fs::remove_file(&path);
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
        let heap = MappedHeap::attach(&path).unwrap();
        let p = heap.alloc(192).unwrap();
        unsafe { std::ptr::write_bytes(p, 0xAB, 192) };
        // no commit
    }
    nvm::tid::set_tid(0);
    let store = Store::open_sized(&path, HEAP_BYTES).expect("torn tail must heal, not fail");
    assert_eq!(store.summary().heap.poisoned, 1, "exactly the abandoned block is poisoned");
    let map = store.hashmap::<LP>(NAME, SHARDS).unwrap();
    drop(store);
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
    root_offset(path, 0x4341_5441) // rootkeys::CATALOG
}

fn store_err(path: &PathBuf) -> AttachError {
    match Store::open_sized(path, HEAP_BYTES) {
        Err(e) => e,
        Ok(_) => panic!("corrupt catalog must not attach"),
    }
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
    let cfg_at = root_offset(&path, 0x4341_5441) + 8; // rootkeys::CATALOG, slot 0, word 1
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
    let forged_hdr = root_offset(&path, 0x5245_4341) + 10 * 128 + 64; // rootkeys::RECAREA
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

/// One shared heap, two handles in one process: the second
/// `Store::open_shared` of the live heap is a joiner, and it maps at a base
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
    let a = Store::open_shared_sized(&path, HEAP_BYTES).unwrap();
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

    let b = Store::open_shared_sized(&path, HEAP_BYTES).unwrap();
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
    drop(MappedHeap::attach(&squat_path).expect("nothing scribbled on the squatter"));
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&squat_path);
}

// ---------------------------------------------------------------------------
// Segment-directory corruption (multi-segment growth)
// ---------------------------------------------------------------------------

// Superblock geometry of the v3 format (see nvm::mapped module docs):
// word 10 = extra-segment count (the growth valid flag), words 48..80 = the
// per-segment byte lengths.
const W_SEG_COUNT: u64 = 10;
const W_SEG0: u64 = 48;

/// Builds a heap at `path` that grew past its minimal initial segment and
/// detaches cleanly. Returns the recorded total byte length.
fn mk_grown(path: &PathBuf) -> u64 {
    let heap = MappedHeap::create(path, nvm::mapped::MIN_HEAP_BYTES).unwrap();
    for i in 0..2048u64 {
        let p = heap.alloc(120).unwrap();
        unsafe { (p as *mut u64).write(i) };
        heap.commit(p);
    }
    assert!(heap.segments() > 1, "fill must outgrow the initial segment");
    drop(heap);
    let n = read_word(path, W_SEG_COUNT);
    let mut total = read_word(path, 3);
    for s in 0..n {
        total += read_word(path, W_SEG0 + s);
    }
    total
}

fn heap_err(path: &Path) -> MapError {
    match MappedHeap::attach(path) {
        Err(e) => e,
        Ok(_) => panic!("damaged segment directory must not attach"),
    }
}

#[test]
fn grown_heap_truncated_below_recorded_total_fails_typed() {
    let path = tmp("seg_trunc");
    let total = mk_grown(&path);
    // Cut the file below the directory's recorded total — the published
    // count promises bytes the file no longer has.
    let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    f.set_len(total - 4096).unwrap();
    drop(f);
    match heap_err(&path) {
        MapError::Truncated { expected, found } => {
            assert_eq!(expected, total);
            assert_eq!(found, total - 4096);
        }
        e => panic!("expected Truncated, got {e}"),
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn torn_growth_stamped_entry_without_count_bump_is_benign() {
    let path = tmp("seg_torn");
    let total = mk_grown(&path);
    // The exact crash window of `grow`: the file was extended and the next
    // directory entry stamped, but the count (the valid flag) never moved.
    // The attach must ignore both the entry and the extra bytes.
    let n = read_word(&path, W_SEG_COUNT);
    patch(&path, (W_SEG0 + n) * 8, &(1u64 << 20).to_le_bytes());
    let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    f.set_len(total + (1 << 20)).unwrap();
    drop(f);
    let heap = MappedHeap::attach(&path).unwrap();
    assert_eq!(heap.segments() as u64, n + 1, "unpublished segment must stay invisible");
    assert_eq!(heap.report().poisoned, 0);
    assert_eq!(heap.report().committed, 2048);
    drop(heap);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn absurd_segment_entry_fails_typed() {
    let path = tmp("seg_absurd");
    mk_grown(&path);
    // Corrupt a *published* entry: not a page multiple.
    patch(&path, W_SEG0 * 8, &12345u64.to_le_bytes());
    assert!(matches!(heap_err(&path), MapError::BadSuperblock(_)));
    // And an implausibly huge one.
    patch(&path, W_SEG0 * 8, &(1u64 << 50).to_le_bytes());
    assert!(matches!(heap_err(&path), MapError::BadSuperblock(_)));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn segment_count_beyond_file_len_fails_typed() {
    let path = tmp("seg_count");
    let total = mk_grown(&path);
    // Bump the count over a plausible entry the file has no bytes for — a
    // directory that lies about its published length.
    let n = read_word(&path, W_SEG_COUNT);
    patch(&path, (W_SEG0 + n) * 8, &(1u64 << 20).to_le_bytes());
    patch(&path, W_SEG_COUNT * 8, &(n + 1).to_le_bytes());
    match heap_err(&path) {
        MapError::Truncated { expected, found } => {
            assert_eq!(expected, total + (1 << 20));
            assert_eq!(found, total);
        }
        e => panic!("expected Truncated, got {e}"),
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn segment_count_over_max_fails_typed() {
    let path = tmp("seg_max");
    mk_grown(&path);
    patch(&path, W_SEG_COUNT * 8, &((nvm::mapped::MAX_SEGMENTS as u64) + 1).to_le_bytes());
    assert!(matches!(heap_err(&path), MapError::BadSuperblock(_)));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn structure_survives_growth_across_attach() {
    let path = tmp("seg_struct");
    nvm::tid::set_tid(0);
    // A map on a deliberately tiny initial heap: the fill forces several
    // growth steps, and a later attach must walk every segment.
    let keys = 20_000u64;
    {
        let store = Store::open_sized(&path, nvm::mapped::MIN_HEAP_BYTES).unwrap();
        assert!(store.summary().heap.created);
        let map = store.hashmap::<LP>(NAME, SHARDS).unwrap();
        for k in 1..=keys {
            assert!(map.insert(0, k));
        }
        assert!(store.heap().segments() > 1, "fill must outgrow the initial segment");
    }
    let store = Store::open_sized(&path, nvm::mapped::MIN_HEAP_BYTES).unwrap();
    let s = store.summary();
    assert!(!s.heap.created);
    assert!(s.heap.segments > 1);
    assert_eq!(s.heap.poisoned, 0);
    let map = store.hashmap::<LP>(NAME, SHARDS).unwrap();
    drop(store);
    let mut map = Arc::into_inner(map).unwrap();
    assert_eq!(map.snapshot_keys(), (1..=keys).collect::<Vec<u64>>());
    map.check_invariants();
    drop(map);
    let _ = std::fs::remove_file(&path);
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
/// the attach replay's decision for the pid it names: cleared under
/// `Restart`, finalized to the decided response under `Completed`.
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
        let left = if pid == IDLE_PID { 0 } else { pending_word(pid, 6) };
        assert_eq!(read_at(&path, slot + PENDING), left, "only Restart clears the word");
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
