//! Heap usage: what the bytes of a mapped heap hold, on two stores.
//!
//! * **map** — shaped like the benchmark's `map_restart`: 65 536 keys drawn
//!   from 1..=131 072 into a 2 048-shard map on a 16 MiB first segment, then
//!   churned by 30/30/40 insert/delete/find on the hot range 1..=4 096
//!   across a few re-opens (each runs the attach walk and sweeps what the
//!   closed handle's pools held).
//! * **queue** — shaped like `queue_2t`'s count pass: 1 024 items enqueued
//!   on one thread, then 50 000 alternating enqueue / dequeue operations on
//!   another, on a 32 MiB first segment, then one re-open.
//!
//! ```text
//! cargo run --release -p isb-examples --bin heap_usage
//! ```
//!
//! Prints `MappedHeap::usage()` per live key (item) after the last re-open,
//! which returned every pool cache to the free lists: the half class — the
//! reachable nodes (a census walk), 32 bytes each, and any other half
//! block — the 1-granule class of one-line descriptors, the map's and the
//! queue's, and the 2-granule class of two-line descriptors, the BST's, then
//! slab headers and pads, idle free blocks and cold blocks, which sum to
//! the bumped bytes per key (the benchmark's `heap_bytes_per_key`).

use isb::engine::{Info, InfoPair};
use isb::graph::{census_unit, Graph};
use isb::store::Store;
use nvm::mapped::{block_bytes, MappedNvm, CLASSES, GRANULE, HALF, MAX_CLASS};
use std::collections::{HashMap, HashSet};

const KEY_SPACE: u64 = 131_072;
const HOT_KEYS: u64 = 4_096;
const SHARDS: usize = 2_048;
const FIRST_SEGMENT: usize = 16 << 20;
const ROUNDS: usize = 4;
/// The queue's items, its operations after them and its first segment.
const ITEMS: u64 = 1_024;
const QUEUE_OPS: u64 = 50_000;
const QUEUE_SEGMENT: usize = 32 << 20;
/// Size classes (payload granules) of the one-line and two-line descriptor;
/// the nodes are half blocks, class 0.
const LINE: usize = size_of::<Info<MappedNvm>>().div_ceil(GRANULE);
const PAIR: usize = size_of::<InfoPair<MappedNvm>>().div_ceil(GRANULE);

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
    map(&dir.join("map.heap"));
    queue(&dir.join("queue.heap"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `map_restart`-shaped store.
fn map(path: &std::path::Path) {
    let open = || {
        let store = Store::open_sized(path, FIRST_SEGMENT).expect("open the store");
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
    report("map", &store, &*map, keys.len(), "keys");
}

/// The `queue_2t`-shaped store: its count pass, pid 0 enqueuing on tid 0
/// and pid 1 alternating on tid 1, as the benchmark's threads do.
fn queue(path: &std::path::Path) {
    let open = || {
        let store = Store::open_sized(path, QUEUE_SEGMENT).expect("open the store");
        let queue = store.queue::<{ kvserve::server::ARM }>("q").expect("open the queue");
        (store, queue)
    };
    let (store, queue) = open();
    (1..=ITEMS).for_each(|v| queue.enqueue(0, v));
    std::thread::scope(|s| {
        s.spawn(|| {
            nvm::tid::set_tid(1);
            for i in 0..QUEUE_OPS {
                match i % 2 {
                    0 => queue.enqueue(1, ITEMS + 1 + i),
                    _ => assert!(queue.dequeue(1).is_some()),
                }
            }
        });
    });
    drop((queue, store));
    let (store, queue) = open();
    report("queue", &store, &*queue, ITEMS as usize, "items");
}

/// One line per part of `store`'s heap, in bytes per live key (item) of
/// `graph`, the structure it holds.
fn report(name: &str, store: &Store, graph: &dyn Graph<MappedNvm>, keys: usize, what: &str) {
    let heap = store.heap();
    let u = heap.usage();
    assert_eq!(u.granules(), heap.bump_granules(), "usage accounts for every bumped granule");
    let (mut live, mut refs) = (HashSet::new(), HashMap::new());
    for unit in 0..graph.work_units() {
        // SAFETY: quiescent — this thread alone uses the store.
        unsafe { census_unit(graph, unit, &mut live, &mut refs) };
    }
    let per_key = |bytes: usize| bytes as f64 / keys as f64;
    let nodes = live.len();
    let held = u.committed[0].checked_sub(nodes).expect("every node is a half block");
    let bytes = |n: &[usize; CLASSES], c: usize| n[c] * block_bytes(c);
    let other: usize =
        (1..=MAX_CLASS).filter(|&c| c != LINE && c != PAIR).map(|c| bytes(&u.committed, c)).sum();
    let idle: usize = (0..CLASSES).map(|c| bytes(&u.free, c)).sum();
    let rows = [
        (format!("nodes, half blocks ({nodes})"), nodes * HALF),
        (format!("other half blocks ({held})"), held * HALF),
        (format!("one-line descriptors ({})", u.committed[LINE]), bytes(&u.committed, LINE)),
        (format!("two-line descriptors ({})", u.committed[PAIR]), bytes(&u.committed, PAIR)),
        ("other small blocks".to_string(), other),
        (format!("slab headers ({})", u.headers), u.headers * GRANULE),
        ("pads".to_string(), u.pads * GRANULE),
        (format!("idle free blocks ({})", u.free.iter().sum::<usize>()), idle),
        ("cold blocks".to_string(), u.cold * GRANULE),
    ];
    println!("{name}: {keys} live {what}, {} granules bumped", u.granules());
    for (what, bytes) in rows {
        println!("  {what:<30} {bytes:>10} B  {:>7.2} B/key", per_key(bytes));
    }
    println!(
        "  {:<30} {:>8} granules  {:>7.2} B/key",
        "total",
        u.granules(),
        per_key(u.granules() * GRANULE)
    );
}
