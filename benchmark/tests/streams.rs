//! The inputs are a pure function of the seed.

use isb_benchmark::kv::{KvStream, Mix};
use isb_benchmark::restart::MapOp;
use isb_benchmark::rng::{distinct_keys, SplitMix};

fn kv_ops(seed: u64, mix: Mix) -> Vec<String> {
    let mut s = KvStream::new(seed, mix);
    let mut ops: Vec<String> = s.prefill(seed).iter().map(|op| format!("{op:?}")).collect();
    ops.extend((0..5_000).map(|_| format!("{:?}", s.next_op())));
    ops
}

fn map_ops(seed: u64) -> Vec<MapOp> {
    let mut rng = SplitMix::new(seed, 3);
    (0..5_000).map(|_| MapOp::mixed(&mut rng)).collect()
}

#[test]
fn same_seed_same_stream_other_seed_other_stream() {
    for mix in [Mix::Update, Mix::Lookup] {
        assert_eq!(kv_ops(7, mix), kv_ops(7, mix));
        assert_ne!(kv_ops(7, mix), kv_ops(8, mix));
    }
    assert_eq!(map_ops(7), map_ops(7));
    assert_ne!(map_ops(7), map_ops(8));
    let keys = |seed| distinct_keys(&mut SplitMix::new(seed, 1), 1_000, 500);
    assert_eq!(keys(7), keys(7));
    assert_ne!(keys(7), keys(8));
}

#[test]
fn prefill_keys_are_distinct_and_in_range() {
    let mut keys = distinct_keys(&mut SplitMix::new(3, 1), 1_000, 500);
    assert!(keys.iter().all(|k| (1..=1_000).contains(k)));
    keys.sort_unstable();
    keys.dedup();
    assert_eq!(keys.len(), 500);
}

#[test]
fn the_mixes_are_what_the_readme_says() {
    let mut s = KvStream::new(1, Mix::Update);
    let n = 160_000;
    let (mut put, mut del, mut enq, mut deq) = (0, 0, 0, 0);
    for _ in 0..n {
        match format!("{:?}", s.next_op()).split('(').next().unwrap() {
            "Put" => put += 1,
            "Del" => del += 1,
            "Enq" => enq += 1,
            "Deq" => deq += 1,
            other => panic!("update mix drew {other}"),
        }
    }
    let near = |got: i32, sixteenths: i32| (got - n * sixteenths / 16).abs() < n / 100;
    assert!(
        near(put, 7) && near(del, 7) && near(enq, 1) && near(deq, 1),
        "{put} {del} {enq} {deq}"
    );

    let mut s = KvStream::new(1, Mix::Lookup);
    let replays = (0..n).filter(|_| format!("{:?}", s.next_op()) == "Replay").count() as i32;
    assert!(near(replays, 1), "{replays}");
}
