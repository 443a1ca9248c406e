//! `map_restart`: one thread on a large `RHashMap`, SIGKILLed and re-opened.
//!
//! The heap (65 536 keys over 2 048 shards, grown from a 16 MiB first
//! segment) is ten times the other workloads', so this is where attach work
//! — `store`, `recovery`, `mapped` — dominates. Its timed slices are the
//! plain single-thread structure throughput the paper plots, on a hot range
//! of [`HOT_KEYS`] keys inside that map: slices over the whole key space
//! miss to DRAM on every op and, on this shared host, measured the
//! neighbours' memory traffic (the same code drifted 2.0 → 3.3 us over ten
//! minutes while the cache-resident workloads moved 6 %).
//!
//! The timed phase is a number of cycles. Each cycle hands the heap to a
//! child mutator (this binary run with `--mutator`) that journals every
//! insert/delete before and after it runs, SIGKILLs the child a seeded
//! 50–150 ms later, times the re-open, checks the journal against the heap
//! (no acked op lost, the in-flight op resolved as `AttachSummary.recovered`
//! says), and then runs timed slices of 30/30/40 insert/delete/find.

use crate::host::RefLoop;
use crate::keyset::KeySet;
use crate::queue::SAMPLE_EVERY;
use crate::report::Tally;
use crate::rng::{distinct_keys, SplitMix};
use crate::run::{Env, Workload, SLICE};
use crate::stats::SliceStat;
use isb::engine::RES_TRUE;
use isb::hashmap::RHashMap;
use isb::recovery::Recovered;
use isb::store::Store;
use nvm::MappedNvm;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Keys are drawn from `1..=KEY_SPACE`.
pub const KEY_SPACE: u64 = 131_072;
/// Distinct keys inserted by set-up.
pub const PREFILL: u64 = 65_536;
/// The timed slices and the count pass draw keys from `1..=HOT_KEYS`; the
/// mutator and every check cover the whole key space.
pub const HOT_KEYS: u64 = 4_096;
/// Hash-map shards.
pub const SHARDS: usize = 2_048;
/// First heap segment; the prefill outgrows it, so growth is exercised.
pub const FIRST_SEGMENT: usize = 16 << 20;
/// Catalog name of the map.
pub const NAME: &str = "m";
/// Kill/re-open cycles in a full-length timed phase.
pub const CYCLES: usize = 20;
/// The process id every map op runs under (parent and child alike).
const PID: usize = 0;

type Map = RHashMap<MappedNvm, { crate::ARM }>;

/// A map op of the journal and of the timed slices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapOp {
    /// Insert a key.
    Insert(u64),
    /// Delete a key.
    Delete(u64),
    /// Membership query.
    Find(u64),
}

impl MapOp {
    /// Runs the op on `map`.
    #[inline]
    pub fn run(self, map: &Map) -> bool {
        match self {
            MapOp::Insert(k) => map.insert(PID, k),
            MapOp::Delete(k) => map.delete(PID, k),
            MapOp::Find(k) => map.find(PID, k),
        }
    }

    /// Applies the op to the model and returns the answer the map must give.
    #[inline]
    pub fn expect(self, model: &mut KeySet) -> bool {
        match self {
            MapOp::Insert(k) => model.insert(k),
            MapOp::Delete(k) => model.remove(k),
            MapOp::Find(k) => model.contains(k),
        }
    }

    /// The 30/30/40 insert/delete/find mix on uniform keys of the hot range.
    #[inline]
    pub fn mixed(rng: &mut SplitMix) -> MapOp {
        let r = rng.next_u64();
        let key = 1 + (r >> 8) % HOT_KEYS;
        match r % 10 {
            0..=2 => MapOp::Insert(key),
            3..=5 => MapOp::Delete(key),
            _ => MapOp::Find(key),
        }
    }

    /// The mutator's 50/50 insert/delete mix on uniform keys of the whole
    /// key space.
    #[inline]
    fn mutation(rng: &mut SplitMix) -> MapOp {
        let r = rng.next_u64();
        let key = 1 + (r >> 8) % KEY_SPACE;
        if r.is_multiple_of(2) {
            MapOp::Insert(key)
        } else {
            MapOp::Delete(key)
        }
    }
}

/// Heap file of the workload under `dir`.
pub fn heap_path(dir: &Path) -> PathBuf {
    dir.join("map.heap")
}

/// Opens the store and its map.
pub fn open(dir: &Path) -> Result<(Store, Arc<Map>), String> {
    let store = Store::open_sized(heap_path(dir), FIRST_SEGMENT).map_err(|e| e.to_string())?;
    let map = store.hashmap(NAME, SHARDS).map_err(|e| e.to_string())?;
    Ok((store, map))
}

// -- the child ---------------------------------------------------------------

const READY: u8 = b'R';
const START: u8 = b'S';
const ACK: u8 = b'A';
/// A mutator nobody kills (its parent died) ends itself after this long.
const MUTATOR_LIFETIME: Duration = Duration::from_secs(5);

/// If the command line is `--mutator <dir> <seed>`, runs the child half of a
/// cycle — and never returns, because the parent SIGKILLs it.
///
/// The journal is a file of unbuffered records: `R` once the heap is open,
/// then per op `S <op> <key>` *before* it runs and `A <result>` after. The
/// order is `note_invocation` → `S` → op → `A`: the system half of the
/// invocation precedes the intent record, so a `Completed` verdict found
/// behind an unacknowledged `S` can only describe that very op.
pub fn maybe_mutator() {
    let argv: Vec<String> = std::env::args().collect();
    if argv.get(1).map(String::as_str) != Some("--mutator") {
        return;
    }
    let dir = PathBuf::from(&argv[2]);
    let seed: u64 = argv[3].parse().expect("mutator seed");
    nvm::tid::set_tid(PID);
    let (_store, map) = open(&dir).expect("mutator open");
    let mut journal = std::fs::File::create(journal_path(&dir)).expect("mutator journal");
    journal.write_all(&[READY]).expect("journal");
    let mut rng = SplitMix::new(seed, 4);
    let born = Instant::now();
    for i in 0u64.. {
        let op = MapOp::mutation(&mut rng);
        let (code, key) = match op {
            MapOp::Insert(k) => (b'i', k),
            MapOp::Delete(k) => (b'd', k),
            MapOp::Find(_) => unreachable!("the mutator only mutates"),
        };
        let mut rec = [START, code, 0, 0, 0, 0, 0, 0, 0, 0];
        rec[2..].copy_from_slice(&key.to_le_bytes());
        map.note_invocation(PID);
        journal.write_all(&rec).expect("journal");
        let res = op.run(&map);
        journal.write_all(&[ACK, res as u8]).expect("journal");
        if i % 1024 == 0 && born.elapsed() > MUTATOR_LIFETIME {
            break;
        }
    }
    std::process::exit(3);
}

fn journal_path(dir: &Path) -> PathBuf {
    dir.join("journal")
}

/// Parses a journal into `(op, acked result)` records; a record torn by the
/// kill is dropped (a torn `S` never ran, a torn `A` is an unacked op).
fn parse_journal(raw: &[u8]) -> Vec<(MapOp, Option<bool>)> {
    let mut out: Vec<(MapOp, Option<bool>)> = Vec::new();
    let mut at = 1; // past READY
    while at < raw.len() {
        match raw[at] {
            START if at + 10 <= raw.len() => {
                let key = u64::from_le_bytes(raw[at + 2..at + 10].try_into().expect("8 bytes"));
                let op = if raw[at + 1] == b'i' { MapOp::Insert(key) } else { MapOp::Delete(key) };
                out.push((op, None));
                at += 10;
            }
            ACK if at + 2 <= raw.len() => {
                out.last_mut().expect("A follows S").1 = Some(raw[at + 1] == 1);
                at += 2;
            }
            _ => break,
        }
    }
    out
}

// -- the parent --------------------------------------------------------------

/// The workload's state.
pub struct MapRestart {
    handles: Option<(Store, Arc<Map>)>,
    model: KeySet,
    rng: SplitMix,
    tally: Tally,
    lat_ns: Vec<u64>,
    attach_ms: Vec<f64>,
    env: Env,
}

impl MapRestart {
    /// The store as last re-opened (`isbtrace` reads what its attach found).
    pub fn store(&self) -> &Store {
        &self.handles.as_ref().expect("open").0
    }

    /// Every post-kill re-open so far, in ms.
    pub fn attach_ms(&self) -> &[f64] {
        &self.attach_ms
    }

    fn map(&self) -> &Map {
        &self.handles.as_ref().expect("open").1
    }

    /// One op of the 30/30/40 mix, checked against the model.
    #[inline]
    fn step(&mut self) {
        let op = MapOp::mixed(&mut self.rng);
        let got = op.run(self.map());
        self.tally.check(got == op.expect(&mut self.model));
    }

    /// Hands the heap to a mutator, kills it `kill_after` past its ready
    /// mark, and returns its journal.
    fn kill_cycle(&mut self, cycle: u64, kill_after: Duration) -> Result<Vec<u8>, String> {
        self.handles = None;
        let journal = journal_path(&self.env.dir);
        let _ = std::fs::remove_file(&journal);
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = Command::new(exe)
            .arg("--mutator")
            .arg(&self.env.dir)
            .arg((self.env.seed ^ (cycle << 32)).to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn mutator: {e}"))?;
        let spawned = Instant::now();
        let ready = loop {
            if std::fs::metadata(&journal).is_ok_and(|m| m.len() > 0) {
                break true;
            }
            let exited = child.try_wait().map_err(|e| e.to_string())?.is_some();
            if exited || spawned.elapsed() > Duration::from_secs(30) {
                break false;
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        if ready {
            std::thread::sleep(kill_after);
        }
        let _ = child.kill(); // SIGKILL: no cleanup runs in the child
        child.wait().map_err(|e| e.to_string())?;
        if !ready {
            return Err("mutator never became ready".into());
        }
        std::fs::read(&journal).map_err(|e| format!("read journal: {e}"))
    }

    /// Checks the re-opened heap against the killed mutator's journal.
    fn verify(&mut self, journal: &[u8], decision: Recovered) {
        let records = parse_journal(journal);
        let last = records.len().saturating_sub(1);
        for (i, &(op, ack)) in records.iter().enumerate() {
            let want = op.expect(&mut self.model);
            let ok = match ack {
                Some(res) => res == want,
                // In flight when the kill landed: only the last record can
                // be, and the attach verdict resolves it detectably.
                None if i == last => match decision {
                    Recovered::Completed(res) => (res == RES_TRUE) == want,
                    // Did not take effect: re-invoke with the original
                    // arguments, as the paper's model does.
                    Recovered::Restart => op.run(self.map()) == want,
                },
                None => false,
            };
            self.tally.check(ok);
        }
        // Durability: every acked (and resolved) op is in the heap.
        self.sweep();
    }

    /// Looks every key of the key space up and compares with the model.
    fn sweep(&mut self) {
        for key in 1..=KEY_SPACE {
            let got = self.map().find(PID, key);
            self.tally.check(got == self.model.contains(key));
        }
    }
}

impl Workload for MapRestart {
    // Whether an update finds its key is a coin flip per op; more ops bring
    // the seed-to-seed scatter of the counts down to a fifth of their bound.
    const COUNT_OPS: u64 = 400_000;

    fn pin_plan(allowed: &[usize]) -> Vec<usize> {
        vec![*allowed.last().expect("at least one CPU")]
    }

    fn setup(env: &Env) -> Result<Self, String> {
        let _ = std::fs::remove_file(heap_path(&env.dir));
        let mut w = MapRestart {
            handles: Some(open(&env.dir)?),
            model: KeySet::new(KEY_SPACE),
            rng: SplitMix::new(env.seed, 3),
            tally: Tally::default(),
            lat_ns: Vec::with_capacity(1 << 16),
            attach_ms: Vec::new(),
            env: env.clone(),
        };
        for key in distinct_keys(&mut SplitMix::new(env.seed, 1), KEY_SPACE, PREFILL) {
            let op = MapOp::Insert(key);
            let got = op.run(w.map());
            w.tally.check(got == op.expect(&mut w.model));
        }
        Ok(w)
    }

    fn run_ops(&mut self, n: u64) {
        (0..n).for_each(|_| self.step());
    }

    fn footprint(&self) -> (u64, u64) {
        (self.store().heap().bump_granules() as u64 * 64, self.model.live())
    }

    fn run_slice(&mut self, dur: Duration) -> SliceStat {
        let start = Instant::now();
        let mut ops = 0u64;
        loop {
            let op = MapOp::mixed(&mut self.rng);
            let t0 = Instant::now();
            let got = op.run(self.map());
            let t1 = Instant::now();
            self.lat_ns.push((t1 - t0).as_nanos() as u64);
            self.tally.check(got == op.expect(&mut self.model));
            for _ in 1..SAMPLE_EVERY {
                self.step();
            }
            ops += SAMPLE_EVERY;
            if t1 - start >= dur {
                return SliceStat::reduce(ops, start.elapsed().as_secs_f64(), &mut self.lat_ns);
            }
        }
    }

    fn timed(&mut self, seconds: f64, refl: &mut RefLoop) -> Result<Vec<SliceStat>, String> {
        let cycles = (seconds as usize).clamp(2, CYCLES);
        let budget = Duration::from_secs_f64(seconds / cycles as f64);
        let mut kill_rng = SplitMix::new(self.env.seed, 5);
        let mut slices = Vec::new();
        for cycle in 0..cycles as u64 {
            let cycle_start = Instant::now();
            let kill_after = Duration::from_micros(50_000 + kill_rng.below(100_000));
            let journal = self.kill_cycle(cycle, kill_after)?;

            nvm::tid::set_tid(PID);
            let t0 = Instant::now();
            self.handles = Some(open(&self.env.dir).map_err(|e| format!("re-open: {e}"))?);
            self.attach_ms.push(t0.elapsed().as_secs_f64() * 1e3);

            let decision = self.store().summary().decision(PID);
            self.verify(&journal, decision);

            // Whatever the kill, the re-open and the check left of this
            // cycle's share of `--seconds` goes to the timed slices.
            refl.tick();
            let left = budget.saturating_sub(cycle_start.elapsed());
            for _ in 0..(left.as_secs_f64() / SLICE.as_secs_f64()).round().max(2.0) as usize {
                slices.push(self.run_slice(SLICE));
            }
        }
        Ok(slices)
    }

    fn finish(&mut self) -> Result<(), String> {
        self.sweep();
        Ok(())
    }

    /// Restart time is reported but not gated: the other workloads' heaps
    /// re-open in a few ms, too short to time steadily on this host.
    fn info(&self) -> Vec<(&'static str, f64, &'static str)> {
        vec![
            ("attach_ms", crate::stats::quiet_low(&self.attach_ms), "ms"),
            ("kill_cycles", self.attach_ms.len() as f64, "count"),
        ]
    }

    fn tally(&self) -> Tally {
        self.tally
    }
}

impl Drop for MapRestart {
    fn drop(&mut self) {
        self.handles = None;
        let _ = std::fs::remove_file(heap_path(&self.env.dir));
        let _ = std::fs::remove_file(journal_path(&self.env.dir));
    }
}
