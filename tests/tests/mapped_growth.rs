//! Segment-directory corruption of a grown mapped heap: a heap that grew
//! past its initial segment must attach every published segment, refuse a
//! directory that lies about its lengths with a typed error, and ignore a
//! growth step cut before its count was published. The rest of the attach
//! corruption matrix is `mapped_attach.rs`; CI's heap-growth leg runs this
//! file in release.

use isb::arm::LP;
use isb::store::Store;
use isb_tests::heap_file::{patch, read_word, tmp, NAME, SHARDS};
use nvm::mapped::MappedHeap;
use nvm::MapError;
use std::path::{Path, PathBuf};
use std::sync::Arc;

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
    match MappedHeap::open(path, nvm::mapped::MIN_HEAP_BYTES) {
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
    let heap = MappedHeap::open(&path, nvm::mapped::MIN_HEAP_BYTES).unwrap();
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
