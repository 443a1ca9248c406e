//! `queue_2t`: two pinned threads on one `RQueue`, no network.
//!
//! The only workload with real contention: both threads alternate
//! enqueue/dequeue on one queue, so head and tail are CAS + psync storms and
//! the paper's helping path runs. The server and response-table layers do
//! nothing here.

use crate::report::Tally;
use crate::run::{Env, Workload};
use crate::stats::SliceStat;
use isb::queue::RQueue;
use isb::store::Store;
use nvm::MappedNvm;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Items enqueued by set-up; the queue never runs empty afterwards.
pub const PREFILL: u64 = 1_024;
/// Heap size on creation.
pub const HEAP_BYTES: usize = 32 << 20;
/// Catalog name of the queue.
pub const NAME: &str = "q";
/// Every `SAMPLE_EVERY`-th op of a store workload is timed. Odd, so the
/// alternating enqueues and dequeues are sampled alike.
pub const SAMPLE_EVERY: u64 = 7;

const PRODUCERS: usize = 3; // set-up, thread A, thread B
const SEQ_BITS: u32 = 40;

/// The queue under test.
pub type Queue = RQueue<MappedNvm, { crate::ARM }>;

/// Heap file of the workload under `dir`.
pub fn heap_path(dir: &Path) -> PathBuf {
    dir.join("queue.heap")
}

/// Opens the store and its queue.
pub fn open(dir: &Path) -> Result<(Store, Arc<Queue>), String> {
    let store = Store::open_sized(heap_path(dir), HEAP_BYTES).map_err(|e| e.to_string())?;
    let queue = store.queue(NAME).map_err(|e| e.to_string())?;
    Ok((store, queue))
}

/// Value `seq` of `producer`: every enqueued value is unique and names who
/// enqueued it and in which order.
pub fn value(producer: usize, seq: u64) -> u64 {
    (producer as u64) << SEQ_BITS | seq
}

/// One thread's half of the no-loss/no-dup/FIFO check.
#[derive(Debug, Default, Clone)]
pub struct Ledger {
    /// This producer's next sequence number (sequence numbers start at 1).
    pub next_seq: u64,
    /// Count and wrapping sum of everything this thread enqueued …
    pub enq: (u64, u64),
    /// … and dequeued.
    pub deq: (u64, u64),
    /// Highest sequence number seen per producer: a FIFO queue hands any
    /// one consumer each producer's values in increasing order.
    last_seen: [u64; PRODUCERS],
    /// Outcomes.
    pub tally: Tally,
}

impl Ledger {
    /// The next value `producer` enqueues, recorded as enqueued.
    #[inline]
    pub fn produce(&mut self, producer: usize) -> u64 {
        self.next_seq += 1;
        let v = value(producer, self.next_seq);
        self.enq = (self.enq.0 + 1, self.enq.1.wrapping_add(v));
        self.tally.check(true);
        v
    }

    /// Records a dequeue result; `None` (empty) and out-of-order values fail.
    #[inline]
    pub fn consume(&mut self, got: Option<u64>) {
        let Some(v) = got else { return self.tally.check(false) };
        let (p, seq) = ((v >> SEQ_BITS) as usize, v & ((1 << SEQ_BITS) - 1));
        let in_order = p < PRODUCERS && seq > self.last_seen[p];
        if in_order {
            self.last_seen[p] = seq;
        }
        self.deq = (self.deq.0 + 1, self.deq.1.wrapping_add(v));
        self.tally.check(in_order);
    }
}

/// `(count, wrapping sum)` of a set of values.
pub type Sum = (u64, u64);

/// Everything enqueued and everything dequeued, over `ledgers`.
pub fn totals<'a>(ledgers: impl IntoIterator<Item = &'a Ledger> + Clone) -> (Sum, Sum) {
    let sum = |f: fn(&Ledger) -> Sum| {
        ledgers
            .clone()
            .into_iter()
            .map(f)
            .fold((0, 0), |a: Sum, x| (a.0 + x.0, a.1.wrapping_add(x.1)))
    };
    (sum(|l| l.enq), sum(|l| l.deq))
}

/// The final check. Drains `q` into `drain` — one more consumer, so
/// per-producer order must hold for it too — and compares counts and sums:
/// what `totals` says was enqueued must equal what it says was dequeued plus
/// what the drain finds. No loss, no duplicate.
pub fn drain_check(q: &Queue, drain: &mut Ledger, (enq, deq): (Sum, Sum)) {
    let already = drain.deq.1;
    for _ in 0..enq.0 - deq.0 {
        drain.consume(q.dequeue(0));
    }
    drain.tally.check(q.dequeue(0).is_none());
    drain.tally.check(enq.1 == deq.1.wrapping_add(drain.deq.1.wrapping_sub(already)));
}

/// One load thread: its CPU, process id, ledger and latency samples.
#[derive(Debug)]
struct Worker {
    cpu: usize,
    pid: usize,
    ledger: Ledger,
    lat_ns: Vec<u64>,
    ops_done: u64,
}

impl Worker {
    /// Op `i` of this thread's stream: even → enqueue, odd → dequeue.
    #[inline]
    fn op(&mut self, q: &Queue) {
        if self.ops_done.is_multiple_of(2) {
            q.enqueue(self.pid, self.ledger.produce(self.pid));
        } else {
            self.ledger.consume(q.dequeue(self.pid));
        }
        self.ops_done += 1;
    }

    /// Binds the calling thread to this worker's CPU and process id.
    fn enter(&self) {
        let _ = crate::host::pin_to(self.cpu);
        nvm::tid::set_tid(self.pid);
    }

    /// Runs until `deadline`, timing every [`SAMPLE_EVERY`]-th op; returns
    /// `(ops, seconds)`.
    fn run_until(&mut self, q: &Queue, deadline: Instant) -> (u64, f64) {
        self.enter();
        let start = Instant::now();
        let mut ops = 0u64;
        loop {
            let t0 = Instant::now();
            self.op(q);
            let t1 = Instant::now();
            self.lat_ns.push((t1 - t0).as_nanos() as u64);
            for _ in 1..SAMPLE_EVERY {
                self.op(q);
            }
            ops += SAMPLE_EVERY;
            if t1 >= deadline {
                return (ops, start.elapsed().as_secs_f64());
            }
        }
    }
}

/// The workload's state.
pub struct Queue2t {
    handles: Option<(Store, Arc<Queue>)>,
    workers: [Worker; 2],
    setup: Ledger,
    dir: PathBuf,
}

impl Queue2t {
    /// [`totals`] over all three ledgers.
    fn totals(&self) -> (Sum, Sum) {
        totals(std::iter::once(&self.setup).chain(self.workers.iter().map(|w| &w.ledger)))
    }

    /// Runs `f` on both workers concurrently, each on its own thread.
    fn both<R: Send>(&mut self, f: impl Fn(&mut Worker, &Queue) -> R + Sync) -> Vec<R> {
        let q = &*self.handles.as_ref().expect("open").1;
        let f = &f;
        std::thread::scope(|s| {
            let hs: Vec<_> = self.workers.iter_mut().map(|w| s.spawn(move || f(w, q))).collect();
            hs.into_iter().map(|h| h.join().expect("load thread")).collect()
        })
    }
}

impl Workload for Queue2t {
    fn pin_plan(allowed: &[usize]) -> Vec<usize> {
        vec![allowed[0], allowed[1 % allowed.len()]]
    }

    fn setup(env: &Env) -> Result<Self, String> {
        let _ = std::fs::remove_file(heap_path(&env.dir));
        let handles = open(&env.dir)?;
        let mut setup = Ledger::default();
        for _ in 0..PREFILL {
            handles.1.enqueue(0, setup.produce(0));
        }
        let cpus = Self::pin_plan(&env.cpus);
        let worker = |i: usize| Worker {
            cpu: cpus[i],
            pid: i + 1,
            ledger: Ledger::default(),
            lat_ns: Vec::with_capacity(1 << 16),
            ops_done: 0,
        };
        Ok(Queue2t {
            handles: Some(handles),
            workers: [worker(0), worker(1)],
            setup,
            dir: env.dir.clone(),
        })
    }

    /// The count pass runs on thread A alone, so that its counts repeat
    /// exactly; what contention adds shows in the timed phase.
    fn run_ops(&mut self, n: u64) {
        let q = &*self.handles.as_ref().expect("open").1;
        let w = &mut self.workers[0];
        std::thread::scope(|s| {
            s.spawn(|| {
                w.enter();
                (0..n).for_each(|_| w.op(q));
            });
        });
    }

    fn footprint(&self) -> (u64, u64) {
        let heap_bytes = self.handles.as_ref().expect("open").0.heap().bump_granules() as u64 * 64;
        let (enq, deq) = self.totals();
        (heap_bytes, enq.0 - deq.0)
    }

    fn run_slice(&mut self, dur: Duration) -> SliceStat {
        let deadline = Instant::now() + dur;
        let done = self.both(|w, q| w.run_until(q, deadline));
        let [a, b] = &mut self.workers;
        a.lat_ns.append(&mut b.lat_ns);
        let ops = done.iter().map(|d| d.0).sum();
        // Both threads ran the same wall time to within a few ops; summing
        // the per-thread rates keeps spawn skew out of the throughput.
        let rate: f64 = done.iter().map(|d| d.0 as f64 / d.1).sum();
        SliceStat::reduce(ops, ops as f64 / rate, &mut a.lat_ns)
    }

    fn finish(&mut self) -> Result<(), String> {
        nvm::tid::set_tid(0);
        let totals = self.totals();
        drain_check(&self.handles.as_ref().expect("open").1, &mut self.setup, totals);
        Ok(())
    }

    fn tally(&self) -> Tally {
        let mut t = self.setup.tally;
        for w in &self.workers {
            t.attempted += w.ledger.tally.attempted;
            t.failed += w.ledger.tally.failed;
        }
        t
    }
}

impl Drop for Queue2t {
    fn drop(&mut self) {
        self.handles = None;
        let _ = std::fs::remove_file(heap_path(&self.dir));
    }
}
