//! The paper's benchmark driver (Section 5, "Experimental setting"):
//! N threads, uniformly random keys from a range, a find/insert/delete mix,
//! timed runs, with prefill to ≈40% occupancy; reports throughput and
//! persistency-instruction counts per operation.
//!
//! A timed run's op count — and with it every per-op count — follows the
//! clock. [`count_set`] / [`count_queue`] run the first thread's stream for
//! a fixed number of operations instead, so a 1-thread count point repeats
//! exactly per seed.

use crate::adapters::{QueueBench, SetBench};
use nvm::stats;
use std::sync::atomic::{AtomicBool, Ordering};
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
    /// Fences of every kind per operation: `pbarrier` + `pfence` + `psync`.
    pub fn fences_per_op(&self) -> f64 {
        (self.stats.pbarrier + self.stats.pfence + self.stats.psync) as f64 / self.ops.max(1) as f64
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

/// Operations a fixed-count point runs ([`count_set`], [`count_queue`]).
pub const COUNT_OPS: u64 = 1 << 16;

/// The key stream of thread `t` under `seed`.
fn stream(seed: u64, t: usize) -> u64 {
    seed ^ ((t as u64 + 1) << 20) | 1
}

/// Runs draw `r` of a set stream on `s` as process `t`: a find, insert or
/// delete (by `mix`) of a key from `[1, range]`.
#[inline]
fn set_op<B: SetBench + ?Sized>(s: &B, t: usize, r: u64, mix: Mix, range: u64) {
    let k = 1 + (r >> 8) % range;
    let dice = (r % 100) as u8;
    if dice < mix.find_pct {
        std::hint::black_box(s.find(t, k));
    } else if dice < mix.find_pct + mix.insert_pct {
        std::hint::black_box(s.insert(t, k));
    } else {
        std::hint::black_box(s.delete(t, k));
    }
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

/// Runs `work(t, stop)` on `threads` threads, tid `t` each, for `duration`;
/// each returns its op count. Counts are the measured window's.
fn timed<W>(threads: usize, duration: Duration, work: W) -> RunResult
where
    W: Fn(usize, &AtomicBool) -> u64 + Send + Sync + 'static,
{
    let (stop, barrier) = (Arc::new(AtomicBool::new(false)), Arc::new(Barrier::new(threads + 1)));
    let work = Arc::new(work);
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let (stop, barrier, work) =
                (Arc::clone(&stop), Arc::clone(&barrier), Arc::clone(&work));
            std::thread::spawn(move || {
                nvm::tid::set_tid(t);
                barrier.wait();
                work(t, &stop)
            })
        })
        .collect();
    // Snapshot before the release: a worker's first operations must not
    // run ahead of it, or they count in `ops` and not in the deltas.
    let s0 = stats::snapshot();
    barrier.wait();
    let start = Instant::now();
    std::thread::sleep(duration);
    stop.store(true, Ordering::Relaxed);
    let ops = handles.into_iter().map(|h| h.join().unwrap()).sum();
    let elapsed = start.elapsed();
    RunResult { ops, elapsed, stats: stats::snapshot().since(&s0) }
}

/// Runs the set benchmark: `cfg.threads` threads hammer `s` for
/// `cfg.duration`, counting completed operations and persistency
/// instructions (measured-window only).
pub fn run_set<B: SetBench + ?Sized + 'static>(s: Arc<B>, cfg: SetCfg) -> RunResult {
    timed(cfg.threads, cfg.duration, move |t, stop| {
        let (mut x, mut ops) = (stream(cfg.seed, t), 0u64);
        while !stop.load(Ordering::Relaxed) {
            set_op(&*s, t, xorshift(&mut x), cfg.mix, cfg.key_range);
            ops += 1;
        }
        ops
    })
}

/// Runs `op(1..=ops)` on the calling thread as tid 0 with no clock. The
/// counts are the tid's own, so nothing another thread counts leaks in.
fn count(ops: u64, op: impl FnMut(u64)) -> RunResult {
    nvm::tid::set_tid(0);
    let s0 = stats::Snapshot::of_tid(0);
    let start = Instant::now();
    (1..=ops).for_each(op);
    RunResult { ops, elapsed: start.elapsed(), stats: stats::Snapshot::of_tid(0).since(&s0) }
}

/// The first thread's stream of a [`run_set`] under `cfg` (its seed, mix
/// and key range), cut at `ops` operations on tid 0: every counter
/// repeats exactly per seed.
pub fn count_set<B: SetBench + ?Sized>(s: &B, cfg: SetCfg, ops: u64) -> RunResult {
    let mut x = stream(cfg.seed, 0);
    count(ops, |_| set_op(s, 0, xorshift(&mut x), cfg.mix, cfg.key_range))
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
    prefill_queue(&*q, cfg.prefill);
    timed(cfg.threads, cfg.duration, move |t, stop| {
        let (mut v, mut ops) = ((t as u64 + 1) << 32, 0u64);
        while !stop.load(Ordering::Relaxed) {
            v += 1;
            q.enqueue(t, v);
            std::hint::black_box(q.dequeue(t));
            ops += 2;
        }
        ops
    })
}

/// Enqueues `1..=n` as tid 0.
fn prefill_queue<B: QueueBench + ?Sized>(q: &B, n: u64) {
    nvm::tid::set_tid(0);
    (1..=n).for_each(|v| q.enqueue(0, v));
}

/// [`run_queue`]'s workload on one thread — `prefill` enqueues, then
/// enqueue/dequeue pairs — cut at `ops` operations on tid 0.
pub fn count_queue<B: QueueBench + ?Sized>(q: &B, prefill: u64, ops: u64) -> RunResult {
    prefill_queue(q, prefill);
    count(ops, |i| match i % 2 {
        1 => q.enqueue(0, 1 << 32 | i),
        _ => {
            std::hint::black_box(q.dequeue(0));
        }
    })
}
