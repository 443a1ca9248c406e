//! Heap usage: what the bytes of a mapped heap hold, on a store shaped like
//! the benchmark's `map_restart` — 65 536 keys drawn from 1..=131 072 into a
//! 2 048-shard map on a 16 MiB first segment, then churned by 30/30/40
//! insert/delete/find on the hot range 1..=4 096 across a few re-opens
//! (each runs the attach walk and sweeps what the closed handle's pools
//! held).
//!
//! ```text
//! cargo run --release -p isb-examples --bin heap_usage
//! ```
//!
//! Prints `MappedHeap::usage()` per live key: nodes, descriptors, slab
//! headers and pads, idle free blocks and cold blocks, which sum to the
//! bumped bytes per key (the benchmark's `heap_bytes_per_key`).

use isb::engine::Info;
use isb::set_core::Node;
use isb::store::Store;
use nvm::mapped::{HeapUsage, MappedNvm, GRANULE, MAX_CLASS};
use std::collections::HashSet;

const KEY_SPACE: u64 = 131_072;
const HOT_KEYS: u64 = 4_096;
const SHARDS: usize = 2_048;
const FIRST_SEGMENT: usize = 16 << 20;
const ROUNDS: usize = 4;
/// Size classes (payload granules) of the map's node and descriptor.
const NODE: usize = size_of::<Node<MappedNvm>>().div_ceil(GRANULE);
const INFO: usize = size_of::<Info<MappedNvm>>().div_ceil(GRANULE);

/// SplitMix64: a seeded, dependency-free key stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

fn main() {
    nvm::tid::set_tid(0);
    let dir = std::env::temp_dir().join(format!("isb_heap_usage_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let path = dir.join("map.heap");
    let open = || {
        let store = Store::open_sized(&path, FIRST_SEGMENT).expect("open the store");
        let map = store.hashmap::<{ kvserve::server::ARM }>("m", SHARDS).expect("open the map");
        (store, map)
    };
    let mut rng = Rng(1);
    let mut keys = HashSet::new();
    let (mut store, mut map) = open();
    let prefill = isb_examples::scaled(65_536) as usize;
    while keys.len() < prefill {
        let k = 1 + rng.next() % KEY_SPACE;
        if keys.insert(k) {
            assert!(map.insert(0, k));
        }
    }
    let ops = isb_examples::scaled(200_000);
    for _ in 0..ROUNDS {
        for _ in 0..ops {
            let k = 1 + rng.next() % HOT_KEYS;
            match rng.next() % 10 {
                0..=2 => assert_eq!(map.insert(0, k), keys.insert(k)),
                3..=5 => assert_eq!(map.delete(0, k), keys.remove(&k)),
                _ => assert_eq!(map.find(0, k), keys.contains(&k)),
            }
        }
        drop((map, store));
        (store, map) = open();
    }
    let heap = store.heap();
    let u = heap.usage();
    assert_eq!(u.granules(), heap.bump_granules(), "usage accounts for every bumped granule");
    report(&u, keys.len());
    drop((map, store));
    let _ = std::fs::remove_dir_all(&dir);
}

/// One line per part of the heap, in bytes per live key.
fn report(u: &HeapUsage, keys: usize) {
    let per_key = |granules: usize| (granules * GRANULE) as f64 / keys as f64;
    let blocks = |n: &[usize; MAX_CLASS], class: usize| n[class - 1] * class;
    let other: usize =
        (1..=MAX_CLASS).filter(|&c| c != NODE && c != INFO).map(|c| blocks(&u.committed, c)).sum();
    let idle: usize = (1..=MAX_CLASS).map(|c| blocks(&u.free, c)).sum();
    let rows = [
        (format!("nodes ({} blocks)", u.committed[NODE - 1]), blocks(&u.committed, NODE)),
        (format!("descriptors ({} blocks)", u.committed[INFO - 1]), blocks(&u.committed, INFO)),
        ("other small blocks".to_string(), other),
        (format!("slab headers ({})", u.headers), u.headers),
        ("pads".to_string(), u.pads),
        (format!("idle free blocks ({})", u.free.iter().sum::<usize>()), idle),
        ("cold blocks".to_string(), u.cold),
    ];
    println!("{keys} live keys, {} granules bumped", u.granules());
    for (what, granules) in rows {
        println!("  {what:<28} {granules:>8} granules  {:>7.2} B/key", per_key(granules));
    }
    println!(
        "  {:<28} {:>8} granules  {:>7.2} B/key",
        "total",
        u.granules(),
        per_key(u.granules())
    );
}
