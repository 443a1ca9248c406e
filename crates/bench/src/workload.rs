//! The paper's benchmark driver (Section 5, "Experimental setting"):
//! N threads, uniformly random keys from a range, a find/insert/delete mix,
//! timed runs, with prefill to ≈40% occupancy; reports throughput and
//! persistency-instruction counts per operation.

use crate::adapters::{QueueBench, SetBench};
use nvm::stats;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Operation mix: percentages of finds and inserts (deletes are the rest).
/// Paper: read-intensive = 70% finds, update-intensive = 30% finds, with
/// inserts/deletes split evenly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mix {
    /// Percent finds.
    pub find_pct: u8,
    /// Percent inserts.
    pub insert_pct: u8,
}

impl Mix {
    /// 70% finds, 15% inserts, 15% deletes.
    pub const READ_INTENSIVE: Mix = Mix { find_pct: 70, insert_pct: 15 };
    /// 30% finds, 35% inserts, 35% deletes.
    pub const UPDATE_INTENSIVE: Mix = Mix { find_pct: 30, insert_pct: 35 };
}

/// Configuration of one set-benchmark run.
#[derive(Debug, Clone, Copy)]
pub struct SetCfg {
    /// Concurrent threads (processes).
    pub threads: usize,
    /// Keys are drawn uniformly from `[1, key_range]`.
    pub key_range: u64,
    /// Operation mix.
    pub mix: Mix,
    /// Measured duration.
    pub duration: Duration,
    /// Seed for key streams.
    pub seed: u64,
}

impl Default for SetCfg {
    fn default() -> Self {
        Self {
            threads: 2,
            key_range: 500,
            mix: Mix::READ_INTENSIVE,
            duration: Duration::from_millis(300),
            seed: 42,
        }
    }
}

/// Result of one run.
#[derive(Debug, Clone, Copy)]
pub struct RunResult {
    /// Completed operations.
    pub ops: u64,
    /// Measured wall-clock time.
    pub elapsed: Duration,
    /// Persistency instructions during the measured window.
    pub stats: stats::Snapshot,
}

impl RunResult {
    /// Million operations per second.
    pub fn mops(&self) -> f64 {
        self.ops as f64 / self.elapsed.as_secs_f64() / 1e6
    }
    /// `pbarrier` events per operation.
    pub fn barriers_per_op(&self) -> f64 {
        self.stats.pbarrier as f64 / self.ops.max(1) as f64
    }
    /// Stand-alone flushes per operation.
    pub fn flushes_per_op(&self) -> f64 {
        self.stats.pwb as f64 / self.ops.max(1) as f64
    }
    /// `psync` events per operation.
    pub fn psyncs_per_op(&self) -> f64 {
        self.stats.psync as f64 / self.ops.max(1) as f64
    }
    /// Write-backs elided by the coalescing set per operation (zero on the
    /// non-coalescing arms and under models without `pwb_coal` overrides).
    pub fn elided_per_op(&self) -> f64 {
        self.stats.pwb_elided as f64 / self.ops.max(1) as f64
    }
    /// Unique cache lines drained out of the coalescing set at fences, per
    /// operation.
    pub fn coalesced_per_op(&self) -> f64 {
        self.stats.lines_coalesced as f64 / self.ops.max(1) as f64
    }
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Prefill a set to ≈40% of `key_range` (the paper performs `range/2`
/// uniform inserts; duplicates land it near 40%).
pub fn prefill_set<B: SetBench + ?Sized>(s: &B, key_range: u64, seed: u64) {
    nvm::tid::set_tid(0);
    let mut x = seed | 1;
    for _ in 0..key_range / 2 {
        let k = 1 + xorshift(&mut x) % key_range;
        s.insert(0, k);
    }
}

/// Runs the set benchmark: `cfg.threads` threads hammer `s` for
/// `cfg.duration`, counting completed operations and persistency
/// instructions (measured-window only).
pub fn run_set<B: SetBench + ?Sized + 'static>(s: Arc<B>, cfg: SetCfg) -> RunResult {
    let stop = Arc::new(AtomicBool::new(false));
    let total = Arc::new(AtomicU64::new(0));
    let barrier = Arc::new(Barrier::new(cfg.threads + 1));
    let mut handles = Vec::new();
    for t in 0..cfg.threads {
        let s = Arc::clone(&s);
        let stop = Arc::clone(&stop);
        let total = Arc::clone(&total);
        let barrier = Arc::clone(&barrier);
        let mix = cfg.mix;
        let range = cfg.key_range;
        let mut x = cfg.seed ^ ((t as u64 + 1) << 20) | 1;
        handles.push(std::thread::spawn(move || {
            nvm::tid::set_tid(t);
            barrier.wait();
            let mut ops = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let r = xorshift(&mut x);
                let k = 1 + (r >> 8) % range;
                let dice = (r % 100) as u8;
                if dice < mix.find_pct {
                    std::hint::black_box(s.find(t, k));
                } else if dice < mix.find_pct + mix.insert_pct {
                    std::hint::black_box(s.insert(t, k));
                } else {
                    std::hint::black_box(s.delete(t, k));
                }
                ops += 1;
            }
            total.fetch_add(ops, Ordering::Relaxed);
        }));
    }
    // Snapshot before the release: a worker's first operations must not
    // run ahead of it, or they count in `ops` and not in the deltas.
    let s0 = stats::snapshot();
    barrier.wait();
    let start = Instant::now();
    std::thread::sleep(cfg.duration);
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }
    let elapsed = start.elapsed();
    let s1 = stats::snapshot();
    RunResult { ops: total.load(Ordering::Relaxed), elapsed, stats: s1.since(&s0) }
}

/// Runs the set workload once per shard count: `mk(shards)` builds a fresh
/// sharded map, which is prefilled and hammered under `cfg`. Returns
/// `(shards, result)` per point — the shard-sweep workload behind the
/// `map_throughput` bench and the `fig8` figures experiment.
pub fn run_shard_sweep<B, F>(mk: F, shard_counts: &[usize], cfg: SetCfg) -> Vec<(usize, RunResult)>
where
    B: crate::adapters::MapBench + ?Sized + 'static,
    F: Fn(usize) -> Arc<B>,
{
    shard_counts
        .iter()
        .map(|&shards| {
            let m = mk(shards);
            assert_eq!(m.shard_count(), shards, "factory built the wrong shard count");
            prefill_set(&*m, cfg.key_range, cfg.seed | 1);
            (shards, run_set(m, cfg))
        })
        .collect()
}

/// Configuration of one queue run (paper: each thread alternates
/// enqueue/dequeue pairs; prefilled).
#[derive(Debug, Clone, Copy)]
pub struct QueueCfg {
    /// Concurrent threads.
    pub threads: usize,
    /// Initial queue population.
    pub prefill: u64,
    /// Measured duration.
    pub duration: Duration,
}

impl Default for QueueCfg {
    fn default() -> Self {
        Self { threads: 2, prefill: 10_000, duration: Duration::from_millis(300) }
    }
}

/// Runs the queue benchmark: each thread performs enqueue/dequeue pairs
/// (the paper's workload, scaled prefill).
pub fn run_queue<B: QueueBench + ?Sized + 'static>(q: Arc<B>, cfg: QueueCfg) -> RunResult {
    nvm::tid::set_tid(0);
    for i in 0..cfg.prefill {
        q.enqueue(0, i + 1);
    }
    let stop = Arc::new(AtomicBool::new(false));
    let total = Arc::new(AtomicU64::new(0));
    let barrier = Arc::new(Barrier::new(cfg.threads + 1));
    let mut handles = Vec::new();
    for t in 0..cfg.threads {
        let q = Arc::clone(&q);
        let stop = Arc::clone(&stop);
        let total = Arc::clone(&total);
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            nvm::tid::set_tid(t);
            barrier.wait();
            let mut ops = 0u64;
            let mut v = (t as u64 + 1) << 32;
            while !stop.load(Ordering::Relaxed) {
                v += 1;
                q.enqueue(t, v);
                std::hint::black_box(q.dequeue(t));
                ops += 2;
            }
            total.fetch_add(ops, Ordering::Relaxed);
        }));
    }
    // Snapshot before the release: a worker's first operations must not
    // run ahead of it, or they count in `ops` and not in the deltas.
    let s0 = stats::snapshot();
    barrier.wait();
    let start = Instant::now();
    std::thread::sleep(cfg.duration);
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }
    let elapsed = start.elapsed();
    let s1 = stats::snapshot();
    RunResult { ops: total.load(Ordering::Relaxed), elapsed, stats: s1.since(&s0) }
}
