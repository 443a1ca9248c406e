//! Regenerates every table/figure of the paper's evaluation (Section 5 and
//! supplementary material). See DESIGN.md §7 for the experiment index.
//!
//! ```text
//! figures --all                 # every figure, CI-scaled defaults
//! figures --fig fig1a           # one figure
//! figures --paper               # paper-scaled durations/thread counts
//! figures --threads 1,2,4,8    # custom thread sweep
//! figures --dur-ms 300          # per-point duration
//! figures --out results/        # also write CSV files
//! figures --json bench.json     # machine-readable archive of every table
//! ```
//!
//! Algorithms (paper names): `Isb`, `Isb-Opt`, `Capsules`, `Capsules-Opt`,
//! `DT-Opt`, `Harris-LL` (lists); `Isb-Q`, `Log-Queue`, `Capsules-General`,
//! `Capsules-Normal`, `MS-Queue` (queues). Shared-cache figures run with
//! real write-backs and fences (`nvm::flush::kind()`: `clwb` or `clflushopt`
//! where the CPU has them, the paper's `clflush` otherwise; reported in the
//! banner and the `--json` host block); Figure 4 and the private-cache parts
//! of Figure 7 run under the private-cache model.
//!
//! Figure 12's 1-thread counting-model row runs a fixed number of operations
//! ([`COUNT_OPS`]) from a fixed seed, and every allocation of its points
//! starts on its own cache line(s) ([`line_aligned`]), so it repeats exactly
//! whatever ran before it in the process. Every other point runs on the
//! process allocator's placement.

use baselines::capsules_list::CapsulesList;
use baselines::capsules_queue::CapsulesQueue;
use baselines::dt_list::DtList;
use baselines::harris::HarrisList;
use baselines::log_queue::LogQueue;
use baselines::ms_queue::MsQueue;
use bench_harness::adapters::{QueueBench, SetBench};
use bench_harness::placement::{line_aligned, LineAligned};
use bench_harness::report::Table;
use bench_harness::workload::{
    count_queue, count_set, prefill_set, run_queue, run_set, run_shard_sweep, Mix, QueueCfg,
    RunResult, SetCfg, COUNT_OPS,
};
use isb::arm::LP;
use isb::hashmap::RHashMap;
use isb::list::RList;
use isb::queue::RQueue;
use nvm::{CountingNvm, NoPersist, Persist, RealNvm};
use std::cell::RefCell;
use std::sync::Arc;
use std::time::Duration;

#[global_allocator]
static ALLOC: LineAligned = LineAligned::SCOPED;

struct Opts {
    figs: Vec<String>,
    threads: Vec<usize>,
    dur: Duration,
    out: Option<String>,
    json: Option<String>,
    queue_prefill: u64,
}

fn parse_args() -> Opts {
    let mut figs = Vec::new();
    let mut threads = vec![1, 2, 4, 8];
    let mut dur = Duration::from_millis(250);
    let mut out = None;
    let mut json = None;
    let mut queue_prefill = 100_000;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--all" => figs = ALL_FIGS.iter().map(|s| s.to_string()).collect(),
            "--fig" => figs.push(args.next().expect("--fig <id>")),
            "--threads" => {
                threads = args
                    .next()
                    .expect("--threads a,b,c")
                    .split(',')
                    .map(|s| s.parse().expect("thread count"))
                    .collect()
            }
            "--dur-ms" => {
                dur = Duration::from_millis(args.next().expect("--dur-ms n").parse().unwrap())
            }
            "--paper" => {
                threads = vec![1, 2, 4, 8, 16, 32];
                dur = Duration::from_millis(2000);
                queue_prefill = 1_000_000;
            }
            "--out" => out = Some(args.next().expect("--out dir")),
            "--json" => json = Some(args.next().expect("--json <path>")),
            "--help" | "-h" => {
                println!(
                    "figures [--all|--fig id]* [--paper] [--threads l] [--dur-ms n] [--out dir] \
                     [--json path]"
                );
                std::process::exit(0);
            }
            other => panic!("unknown argument {other}"),
        }
    }
    if figs.is_empty() {
        figs = ALL_FIGS.iter().map(|s| s.to_string()).collect();
    }
    Opts { figs, threads, dur, out, json, queue_prefill }
}

const ALL_FIGS: &[&str] = &[
    "fig1a", "fig1b", "fig1c", "fig1d", "fig1e", "fig1f", "fig3", "fig4", "fig5", "fig6", "fig7",
    "fig8", "fig10", "fig11", "fig12", "fig14",
];

/// The list algorithms of the figures, by paper name.
fn make_list<M: Persist>(name: &str) -> Arc<dyn SetBench> {
    match name {
        "Isb" => Arc::new(RList::<M, 0>::new()),
        "Isb-Opt" => Arc::new(RList::<M, 1>::new()),
        "Capsules" => Arc::new(CapsulesList::<M, false>::new()),
        "Capsules-Opt" => Arc::new(CapsulesList::<M, true>::new()),
        "DT-Opt" => Arc::new(DtList::<M>::new()),
        "Harris-LL" => Arc::new(HarrisList::<M>::new()),
        _ => panic!("unknown list algorithm {name}"),
    }
}

fn make_queue<M: Persist>(name: &str) -> Arc<dyn QueueBench> {
    match name {
        "Isb-Q" => Arc::new(RQueue::<M, 1>::new()),
        "Log-Queue" => Arc::new(LogQueue::<M>::new()),
        "Capsules-General" => Arc::new(CapsulesQueue::<M, false>::new()),
        "Capsules-Normal" => Arc::new(CapsulesQueue::<M, true>::new()),
        "MS-Queue" => Arc::new(MsQueue::<M>::new()),
        _ => panic!("unknown queue algorithm {name}"),
    }
}

/// `Isb-Q` at placement arm `arm` (Figure 12's ladder; Figure 7 runs
/// `Isb-Opt`).
fn isb_queue<M: Persist>(arm: u8) -> Arc<dyn QueueBench> {
    use isb::arm::{PAPER, TUNED};
    match arm {
        PAPER => Arc::new(RQueue::<M, PAPER>::new()),
        TUNED => Arc::new(RQueue::<M, TUNED>::new()),
        _ => Arc::new(RQueue::<M, LP>::new()),
    }
}

const SHARED_LIST_ALGOS: &[&str] = &["Isb", "Isb-Opt", "Capsules", "Capsules-Opt", "DT-Opt"];
const PRIVATE_LIST_ALGOS: &[&str] =
    &["Isb", "Isb-Opt", "Capsules", "Capsules-Opt", "DT-Opt", "Harris-LL"];

fn run_list_point<M: Persist>(
    algo: &str,
    threads: usize,
    range: u64,
    mix: Mix,
    dur: Duration,
) -> RunResult {
    let s = make_list::<M>(algo);
    prefill_set(&*s, range, 7);
    nvm::stats::reset();
    run_set(s, SetCfg { threads, key_range: range, mix, duration: dur, seed: 42 })
}

struct Ctx {
    threads: Vec<usize>,
    dur: Duration,
    out: Option<String>,
    json: Option<String>,
    /// Per-table JSON objects accumulated for the `--json` archive.
    collected: RefCell<Vec<String>>,
    queue_prefill: u64,
}

impl Ctx {
    fn emit(&self, id: &str, t: &Table) {
        println!("{}", t.to_markdown());
        if let Some(dir) = &self.out {
            std::fs::create_dir_all(dir).unwrap();
            std::fs::write(format!("{dir}/{id}.csv"), t.to_csv()).unwrap();
        }
        if self.json.is_some() {
            self.collected.borrow_mut().push(t.to_json(id));
        }
    }

    /// Throughput sweep over threads for one (range, mix) — Figures 1a/d/e/f, 3.
    fn list_throughput(&self, id: &str, title: &str, range: u64, mix: Mix) {
        let mut t = Table::new(
            format!("{title} (Mops/s; keys [1,{range}])"),
            SHARED_LIST_ALGOS.iter().map(|s| s.to_string()).collect(),
        );
        for &n in &self.threads {
            let vals = SHARED_LIST_ALGOS
                .iter()
                .map(|a| run_list_point::<RealNvm>(a, n, range, mix, self.dur).mops())
                .collect();
            t.row(n.to_string(), vals);
        }
        self.emit(id, &t);
    }

    /// Persistency-instruction counts per op — Figures 1b/1c/5/6.
    fn list_counts(&self, id: &str, title: &str, ranges: &[u64], mix: Mix) {
        for &range in ranges {
            let mut tb = Table::new(
                format!("{title}: pbarriers/op (keys [1,{range}])"),
                SHARED_LIST_ALGOS.iter().map(|s| s.to_string()).collect(),
            );
            let mut tf = Table::new(
                format!("{title}: stand-alone flushes/op (keys [1,{range}])"),
                SHARED_LIST_ALGOS.iter().map(|s| s.to_string()).collect(),
            );
            for &n in &self.threads {
                let results: Vec<RunResult> = SHARED_LIST_ALGOS
                    .iter()
                    .map(|a| run_list_point::<RealNvm>(a, n, range, mix, self.dur))
                    .collect();
                tb.row(n.to_string(), results.iter().map(|r| r.barriers_per_op()).collect());
                tf.row(n.to_string(), results.iter().map(|r| r.flushes_per_op()).collect());
            }
            self.emit(&format!("{id}_barriers_{range}"), &tb);
            self.emit(&format!("{id}_flushes_{range}"), &tf);
        }
    }

    /// Private-cache model throughput — Figure 4.
    fn fig4(&self) {
        for (mix, label) in
            [(Mix::READ_INTENSIVE, "read-intensive"), (Mix::UPDATE_INTENSIVE, "update-intensive")]
        {
            for range in [500u64, 1500] {
                let mut t = Table::new(
                    format!(
                        "Figure 4: private-cache throughput, {label} (Mops/s; keys [1,{range}])"
                    ),
                    PRIVATE_LIST_ALGOS.iter().map(|s| s.to_string()).collect(),
                );
                for &n in &self.threads {
                    let vals = PRIVATE_LIST_ALGOS
                        .iter()
                        .map(|a| run_list_point::<NoPersist>(a, n, range, mix, self.dur).mops())
                        .collect();
                    t.row(n.to_string(), vals);
                }
                self.emit(&format!("fig4_{label}_{range}"), &t);
            }
        }
    }

    /// Queue throughput — Figure 7 (left: shared cache; middle/right: private).
    fn fig7(&self) {
        let shared = ["Isb-Q", "Log-Queue", "Capsules-General", "Capsules-Normal"];
        let mut t = Table::new(
            "Figure 7 (left): queue throughput, shared cache (Mops/s)",
            shared.iter().map(|s| s.to_string()).collect(),
        );
        for &n in &self.threads {
            let vals = shared
                .iter()
                .map(|a| {
                    let q = make_queue::<RealNvm>(a);
                    nvm::stats::reset();
                    run_queue(
                        q,
                        QueueCfg { threads: n, prefill: self.queue_prefill, duration: self.dur },
                    )
                    .mops()
                })
                .collect();
            t.row(n.to_string(), vals);
        }
        self.emit("fig7_shared", &t);

        let private = ["Isb-Q", "Log-Queue", "Capsules-General", "Capsules-Normal", "MS-Queue"];
        let mut t = Table::new(
            "Figure 7 (middle+right): queue throughput, private cache (Mops/s)",
            private.iter().map(|s| s.to_string()).collect(),
        );
        for &n in &self.threads {
            let vals = private
                .iter()
                .map(|a| {
                    let q = make_queue::<NoPersist>(a);
                    run_queue(
                        q,
                        QueueCfg { threads: n, prefill: self.queue_prefill, duration: self.dur },
                    )
                    .mops()
                })
                .collect();
            t.row(n.to_string(), vals);
        }
        self.emit("fig7_private", &t);

        // Beside the throughput: what each queue persists per operation, on
        // one thread under the counting model (`Isb-Q` at every placement
        // arm). A `pbarrier` counts as its lines plus a `psync`.
        use isb::arm::{PAPER, TUNED};
        let algos: Vec<(String, Arc<dyn QueueBench>)> = [PAPER, TUNED, LP]
            .map(|arm| (format!("Isb-Q/{}", isb::arm::name(arm)), isb_queue::<CountingNvm>(arm)))
            .into_iter()
            .chain(shared[1..].iter().map(|a| (a.to_string(), make_queue::<CountingNvm>(a))))
            .collect();
        let mut t = Table::new(
            "Figure 7 (counts): queue persistency instructions per op, 1 thread (counting model)",
            algos.iter().map(|a| a.0.clone()).collect(),
        );
        let qcfg = QueueCfg { threads: 1, prefill: self.queue_prefill, duration: self.dur };
        let per_op: Vec<[f64; 3]> = algos
            .into_iter()
            .map(|(_, q)| {
                nvm::stats::reset();
                let r = run_queue(q, qcfg);
                let (s, n) = (r.stats, r.ops.max(1) as f64);
                [s.pwb + s.pbarrier_lines, s.pfence, s.psync + s.pbarrier].map(|c| c as f64 / n)
            })
            .collect();
        for (i, label) in ["pwb-eq/op", "pfence/op", "psync/op"].into_iter().enumerate() {
            t.row(label, per_op.iter().map(|c| c[i]).collect());
        }
        self.emit("fig7_counts", &t);
    }

    /// Sharded hash map shard sweep — Figure 8 (beyond the paper): RHashMap
    /// throughput per shard count, plus the hand-tuned placement at the
    /// default shard count. A single-shard map is exactly the Isb list, so
    /// the leftmost column doubles as the unsharded baseline.
    fn fig8(&self) {
        const SHARDS: &[usize] = &[1, 4, 16, 64];
        let range = 4096u64;
        for (mix, label) in
            [(Mix::READ_INTENSIVE, "read-intensive"), (Mix::UPDATE_INTENSIVE, "update-intensive")]
        {
            let mut cols: Vec<String> = SHARDS.iter().map(|s| format!("Isb-HM/{s}")).collect();
            cols.push("Isb-HM-Opt/16".to_string());
            let mut t = Table::new(
                format!("Figure 8: hash-map shard sweep, {label} (Mops/s; keys [1,{range}])"),
                cols,
            );
            for &n in &self.threads {
                let cfg =
                    SetCfg { threads: n, key_range: range, mix, duration: self.dur, seed: 42 };
                let mut vals: Vec<f64> = run_shard_sweep(
                    |s| {
                        nvm::stats::reset();
                        Arc::new(RHashMap::<RealNvm, 0>::with_shards(s))
                    },
                    SHARDS,
                    cfg,
                )
                .into_iter()
                .map(|(_, r)| r.mops())
                .collect();
                let opt = {
                    nvm::stats::reset();
                    let m = Arc::new(RHashMap::<RealNvm, 1>::with_shards(16));
                    prefill_set(&*m, range, 43);
                    run_set(m, cfg).mops()
                };
                vals.push(opt);
                t.row(n.to_string(), vals);
            }
            self.emit(&format!("fig8_{label}"), &t);
        }
    }

    /// Mapped-backend attach latency + throughput — Figure 10 (beyond the
    /// paper): how expensive is a *real* cross-process restart (remap +
    /// Op-Recover replay + scrub + census/sweep) as the store grows, and
    /// what running over a file-backed arena costs at runtime versus the
    /// same structure on the process heap. The mapped map is the one entry
    /// of a [`Store`](isb::store::Store).
    fn fig10(&self) {
        use isb::hashmap::RHashMap as HM;
        use isb::store::Store;

        nvm::tid::set_tid(nvm::MAX_PROCS - 1);
        let dir = std::env::temp_dir().join(format!("isb_fig10_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();

        // Attach latency vs store size (fresh process ≈ detach + re-attach).
        let mut t_attach = Table::new(
            "Figure 10: mapped-backend attach latency vs store size (16 shards, 64 MiB heap)"
                .to_string(),
            ATTACH_COLS.map(String::from).to_vec(),
        );
        for &n in &[1_000u64, 10_000, 50_000] {
            let row = attach_point(&dir.join(format!("attach_{n}.heap")), |store| {
                let map = store.hashmap::<LP>("map", 16).unwrap();
                (1..=n).for_each(|k| assert!(map.insert(nvm::MAX_PROCS - 1, k)));
            });
            t_attach.row(n.to_string(), row);
        }
        self.emit("fig10_attach", &t_attach);

        // Runtime throughput: mapped arena vs process heap, same structure,
        // same RealNvm-style flush behaviour.
        let range = 4096u64;
        let mut t_tp = Table::new(
            format!(
                "Figure 10: mapped vs in-heap hash-map throughput (Mops/s; 16 shards, \
                 keys [1,{range}], read-heavy)"
            ),
            vec!["Isb-HM/16-mapped".into(), "Isb-HM/16-heap".into()],
        );
        for &threads in &self.threads {
            // Read-intensive, seed 42: the default mix and seed.
            let cfg = SetCfg { threads, key_range: range, duration: self.dur, ..SetCfg::default() };
            let mapped = {
                let path = dir.join(format!("tp_{threads}.heap"));
                let _ = std::fs::remove_file(&path);
                let map = Store::open(&path).unwrap().hashmap::<LP>("map", 16).unwrap();
                prefill_set(&*map, range, 7);
                nvm::stats::reset();
                let r = run_set(map, cfg);
                let _ = std::fs::remove_file(&path);
                r
            };
            let heap = {
                let m = Arc::new(HM::<RealNvm, LP>::with_shards(16));
                prefill_set(&*m, range, 7);
                nvm::stats::reset();
                run_set(m, cfg)
            };
            t_tp.row(threads.to_string(), vec![mapped.mops(), heap.mops()]);
        }
        self.emit("fig10_throughput", &t_tp);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Multi-structure store — Figure 11 (beyond the paper): what the
    /// catalog layer costs. (a) store attach latency as the number of
    /// cataloged structures grows (the union census/sweep walks every
    /// entry's live set), (b) per-structure throughput of a map and a queue
    /// sharing ONE heap (shared bump allocator + shared recovery area).
    fn fig11(&self) {
        use isb::store::Store;

        nvm::tid::set_tid(nvm::MAX_PROCS - 1);
        let pid = nvm::MAX_PROCS - 1;
        let dir = std::env::temp_dir().join(format!("isb_fig11_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();

        // (a) Attach latency vs catalog entries (4k-key map per entry).
        let keys_per_entry = 4_000u64;
        let mut t_attach = Table::new(
            format!(
                "Figure 11: store attach latency vs catalog entries \
                 ({keys_per_entry} keys per entry, 8 shards each, 64 MiB heap)"
            ),
            ATTACH_COLS.map(String::from).to_vec(),
        );
        for &n in &[1usize, 2, 4, 8] {
            let row = attach_point(&dir.join(format!("attach_{n}.heap")), |store| {
                for e in 0..n {
                    let m = store.hashmap::<LP>(&format!("m{e}"), 8).unwrap();
                    (1..=keys_per_entry).for_each(|k| assert!(m.insert(pid, k)));
                }
            });
            t_attach.row(n.to_string(), row);
        }
        self.emit("fig11_attach", &t_attach);

        // (b) Shared-heap throughput, per structure.
        let range = 4096u64;
        let mut t_tp = Table::new(
            format!(
                "Figure 11: shared-heap (store) throughput \
                 (Mops/s; map: 16 shards, keys [1,{range}], read-heavy; queue: 10k prefill)"
            ),
            vec!["map shared".into(), "queue shared".into()],
        );
        for &threads in &self.threads {
            // Read-intensive, seed 42: the default mix and seed.
            let cfg = SetCfg { threads, key_range: range, duration: self.dur, ..SetCfg::default() };
            let qcfg = QueueCfg { threads, prefill: 10_000, duration: self.dur };
            let (map_shared, queue_shared) = {
                let path = dir.join(format!("shared_{threads}.heap"));
                let _ = std::fs::remove_file(&path);
                let store = Store::open(&path).unwrap();
                let m = store.hashmap::<LP>("users", 16).unwrap();
                let q = store.queue::<LP>("jobs").unwrap();
                prefill_set(&*m, range, 7);
                nvm::stats::reset();
                let rm = run_set(Arc::clone(&m), cfg);
                nvm::stats::reset();
                let rq = run_queue(Arc::clone(&q), qcfg);
                drop((m, q, store));
                let _ = std::fs::remove_file(&path);
                (rm.mops(), rq.mops())
            };
            t_tp.row(threads.to_string(), vec![map_shared, queue_shared]);
        }
        self.emit("fig11_throughput", &t_tp);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Flush-coalescing tuning arms — Figure 12 (beyond the paper): the arm
    /// ladder (`Isb` → `Isb-Opt` → `Isb-LP`) on the sharded hash map and the
    /// queue, under both the counting model (pwb-equivalents, elided
    /// write-backs and drained lines per op — the hardware-independent
    /// placement picture) and real flushes (Mops/s — what the saved
    /// `pwb`/`psync` traffic buys end-to-end). The `_coal` tables are
    /// `Isb-LP`'s coalescing traffic. The counting model's 1-thread row is
    /// a fixed-count point (`count_set` / `count_queue`) whose allocations
    /// all start on their own lines (`line_aligned`), exact per seed; CI's
    /// counts gate compares it with the committed baseline. The `_fences`
    /// tables hold that point alone: fences of every kind per op
    /// (`pbarrier` + `pfence` + `psync`), the only place the gate sees a
    /// `pfence`.
    fn fig12(&self) {
        use isb::arm::{PAPER, TUNED};
        const ARMS: [u8; 3] = [PAPER, TUNED, LP];
        fn map_for<M: Persist>(arm: u8) -> Arc<dyn SetBench> {
            match arm {
                PAPER => Arc::new(RHashMap::<M, PAPER>::with_shards(16)),
                TUNED => Arc::new(RHashMap::<M, TUNED>::with_shards(16)),
                _ => Arc::new(RHashMap::<M, LP>::with_shards(16)),
            }
        }
        let arm_cols = || ARMS.map(|a| isb::arm::name(a).to_string()).to_vec();
        let coal_cols = || vec!["Isb-LP elided/op".to_string(), "Isb-LP drained/op".to_string()];
        let coal_row = |lp: &RunResult| vec![lp.elided_per_op(), lp.coalesced_per_op()];
        let fences_title = |of: &str| {
            format!("Figure 12: {of} fences/op by tuning arm, pbarrier + pfence + psync (counting model, 1 thread)")
        };

        // Map: update-intensive (the arms tune the mutating hot path).
        let range = 4096u64;
        let mix = Mix::UPDATE_INTENSIVE;
        let mut t_pwb = Table::new(
            format!("Figure 12: hash-map pwb-equivalents/op by tuning arm (counting model; 16 shards, keys [1,{range}], update-intensive)"),
            arm_cols(),
        );
        let mut t_coal = Table::new(
            "Figure 12: hash-map coalescing traffic per op (counting model)".to_string(),
            coal_cols(),
        );
        let mut t_real = Table::new(
            format!("Figure 12: hash-map throughput by tuning arm, real flushes (Mops/s; 16 shards, keys [1,{range}], update-intensive)"),
            arm_cols(),
        );
        let mut t_fences = Table::new(fences_title("hash-map"), arm_cols());
        for &n in &self.threads {
            let cfg = SetCfg { threads: n, key_range: range, mix, duration: self.dur, seed: 42 };
            let counting: Vec<RunResult> = ARMS
                .iter()
                .map(|&arm| {
                    counting(n, || {
                        let m = map_for::<CountingNvm>(arm);
                        prefill_set(&*m, range, 7);
                        nvm::stats::reset();
                        match n {
                            1 => count_set(&*m, cfg, COUNT_OPS),
                            _ => run_set(m, cfg),
                        }
                    })
                })
                .collect();
            t_pwb.row(n.to_string(), counting.iter().map(|r| r.flushes_per_op()).collect());
            t_coal.row(n.to_string(), coal_row(&counting[2]));
            if n == 1 {
                t_fences.row(n.to_string(), counting.iter().map(|r| r.fences_per_op()).collect());
            }
            let real: Vec<f64> = ARMS
                .iter()
                .map(|&arm| {
                    let m = map_for::<RealNvm>(arm);
                    prefill_set(&*m, range, 7);
                    nvm::stats::reset();
                    run_set(m, cfg).mops()
                })
                .collect();
            t_real.row(n.to_string(), real);
        }
        self.emit("fig12_map_pwb", &t_pwb);
        self.emit("fig12_map_coal", &t_coal);
        self.emit("fig12_map_real", &t_real);
        self.emit("fig12_map_fences", &t_fences);

        // Queue: same ladder; the LP arm also merges a whole psync on
        // enqueue, so the psync column is reported alongside.
        let mut t_pwb = Table::new(
            "Figure 12: queue pwb-equivalents/op by tuning arm (counting model)".to_string(),
            arm_cols(),
        );
        let mut t_psync = Table::new(
            "Figure 12: queue psyncs/op by tuning arm (counting model)".to_string(),
            arm_cols(),
        );
        let mut t_coal = Table::new(
            "Figure 12: queue coalescing traffic per op (counting model)".to_string(),
            coal_cols(),
        );
        let mut t_real = Table::new(
            "Figure 12: queue throughput by tuning arm, real flushes (Mops/s)".to_string(),
            arm_cols(),
        );
        let mut t_fences = Table::new(fences_title("queue"), arm_cols());
        for &n in &self.threads {
            let qcfg = QueueCfg { threads: n, prefill: self.queue_prefill, duration: self.dur };
            let counting: Vec<RunResult> = ARMS
                .iter()
                .map(|&arm| {
                    counting(n, || {
                        let q = isb_queue::<CountingNvm>(arm);
                        nvm::stats::reset();
                        match n {
                            1 => count_queue(&*q, qcfg.prefill, COUNT_OPS),
                            _ => run_queue(q, qcfg),
                        }
                    })
                })
                .collect();
            t_pwb.row(n.to_string(), counting.iter().map(|r| r.flushes_per_op()).collect());
            t_psync.row(n.to_string(), counting.iter().map(|r| r.psyncs_per_op()).collect());
            t_coal.row(n.to_string(), coal_row(&counting[2]));
            if n == 1 {
                t_fences.row(n.to_string(), counting.iter().map(|r| r.fences_per_op()).collect());
            }
            let real: Vec<f64> = ARMS
                .iter()
                .map(|&arm| {
                    let q = isb_queue::<RealNvm>(arm);
                    nvm::stats::reset();
                    run_queue(q, qcfg).mops()
                })
                .collect();
            t_real.row(n.to_string(), real);
        }
        self.emit("fig12_queue_pwb", &t_pwb);
        self.emit("fig12_queue_psync", &t_psync);
        self.emit("fig12_queue_coal", &t_coal);
        self.emit("fig12_queue_real", &t_real);
        self.emit("fig12_queue_fences", &t_fences);
    }

    /// Live peer kill — Figure 14 (beyond the paper, PR 8): the service-level
    /// cost of losing one of two live processes sharing a heap. The parent
    /// hammers the shared map in 10 ms buckets while a child process (same
    /// binary, `ISB_FIG14_CHILD`) hammers it too; mid-run the child is
    /// SIGKILLed and the parent's healer thread detects the dead pid, claims
    /// the recovery lease, replays the dead band, releases its epoch pins and
    /// frees the slot — all while the parent's workload thread keeps serving.
    /// Reported per store size: steady-state vs dip vs post-recovery
    /// throughput, detection and recovery latency, and the recovery counters
    /// (`peers_recovered` / `leases_stolen` / `epoch_stalls`).
    fn fig14(&self) {
        use isb::store::Store;
        use nvm::mapped::MappedHeap;
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::time::Instant;

        const BUCKET: Duration = Duration::from_millis(10);
        const PRE: Duration = Duration::from_millis(150);
        const POST: Duration = Duration::from_millis(150);
        const CAP: Duration = Duration::from_secs(5);

        let dir = std::env::temp_dir().join(format!("isb_fig14_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut t_tp = Table::new(
            "Figure 14: throughput across a live peer SIGKILL (16 shards, 64 MiB shared heap, \
             parent + 1 child, 10 ms buckets)"
                .to_string(),
            vec![
                "baseline Mops/s".into(),
                "dip Mops/s".into(),
                "dip %".into(),
                "post Mops/s".into(),
                "detect ms".into(),
                "recover ms".into(),
            ],
        );
        let mut t_ctr = Table::new(
            "Figure 14: online-recovery counters (parent process, per run)".to_string(),
            vec!["peers_recovered".into(), "leases_stolen".into(), "epoch_stalls".into()],
        );
        for &keys in &[1_000u64, 10_000, 50_000] {
            let path = dir.join(format!("kill_{keys}.heap"));
            let _ = std::fs::remove_file(&path);
            let ready = dir.join(format!("ready_{keys}"));

            nvm::tid::set_tid(0);
            let store = Arc::new(Store::open_sized(&path, FIG14_HEAP_BYTES).expect("parent open"));
            let slot = store.heap().my_participant().expect("parent slot");
            let band = MappedHeap::tid_band(slot);
            nvm::tid::set_tid(band.start);
            let map = store.hashmap::<LP>("users", 16).expect("users");
            for k in 1..=keys {
                map.insert(band.start, k);
            }

            let mut child = std::process::Command::new(std::env::current_exe().unwrap())
                .env("ISB_FIG14_CHILD", &dir)
                .env("ISB_FIG14_HEAP", &path)
                .env("ISB_FIG14_READY", &ready)
                .env("ISB_FIG14_KEYS", keys.to_string())
                .stdout(std::process::Stdio::null())
                .stderr(std::process::Stdio::null())
                .spawn()
                .expect("spawn fig14 child");
            while !ready.exists() {
                std::thread::sleep(Duration::from_millis(1));
            }

            // detect/done instants as nanos-from-t0 (0 = not yet).
            let detect_ns = AtomicU64::new(0);
            let done_ns = AtomicU64::new(0);
            let s0 = nvm::stats::snapshot();
            let t0 = Instant::now();
            let mut buckets: Vec<u64> = Vec::new();
            std::thread::scope(|s| {
                let healer = {
                    let store = Arc::clone(&store);
                    let (detect_ns, done_ns) = (&detect_ns, &done_ns);
                    let healer_tid = band.start + 1;
                    s.spawn(move || {
                        nvm::tid::set_tid(healer_tid);
                        loop {
                            if let Some(&dead) = store.dead_peers().first() {
                                detect_ns.store(t0.elapsed().as_nanos() as u64, Ordering::SeqCst);
                                if store.claim_recovery(dead) {
                                    store.recover_peer(dead).expect("recover dead peer");
                                }
                                done_ns.store(t0.elapsed().as_nanos() as u64, Ordering::SeqCst);
                                return;
                            }
                            if t0.elapsed() > CAP {
                                return;
                            }
                            std::thread::sleep(Duration::from_micros(500));
                        }
                    })
                };

                // Workload loop: per-bucket op counts; the child is killed at
                // the end of the PRE window, and the loop runs until POST past
                // the healer's completion (or the cap).
                let mut rng = 0x9e37_79b9_7f4a_7c15u64 ^ keys;
                let mut killed = false;
                let mut ops_in_bucket = 0u64;
                let mut bucket_end = BUCKET;
                loop {
                    let el = t0.elapsed();
                    if el >= bucket_end {
                        buckets.push(ops_in_bucket);
                        ops_in_bucket = 0;
                        bucket_end += BUCKET;
                    }
                    if !killed && el >= PRE {
                        child.kill().expect("SIGKILL fig14 child");
                        killed = true;
                    }
                    let done = done_ns.load(Ordering::SeqCst);
                    if (done != 0 && el >= Duration::from_nanos(done) + POST) || el > CAP {
                        buckets.push(ops_in_bucket);
                        break;
                    }
                    let r = splitmix(&mut rng);
                    let k = 1 + splitmix(&mut rng) % keys;
                    match r % 4 {
                        0 => map.insert(band.start, k),
                        1 => map.delete(band.start, k),
                        _ => map.find(band.start, k),
                    };
                    ops_in_bucket += 1;
                }
                healer.join().unwrap();
            });
            let _ = child.wait();
            let d = nvm::stats::snapshot().since(&s0);

            let detect = Duration::from_nanos(detect_ns.load(Ordering::SeqCst));
            let done = Duration::from_nanos(done_ns.load(Ordering::SeqCst));
            assert!(done > Duration::ZERO, "fig14: the dead peer was never recovered");
            let rate = |b: u64| b as f64 / BUCKET.as_secs_f64() / 1e6;
            let b_of = |t: Duration| (t.as_nanos() / BUCKET.as_nanos()) as usize;
            let (kill_b, done_b) = (b_of(PRE), b_of(done).min(buckets.len() - 1));
            let mean = |r: &[u64]| r.iter().map(|&b| rate(b)).sum::<f64>() / r.len().max(1) as f64;
            let baseline = mean(&buckets[..kill_b.max(1)]);
            let dip =
                buckets[kill_b..=done_b].iter().map(|&b| rate(b)).fold(f64::INFINITY, f64::min);
            let post = mean(&buckets[(done_b + 1).min(buckets.len() - 1)..]);
            t_tp.row(
                keys.to_string(),
                vec![
                    baseline,
                    dip,
                    100.0 * dip / baseline.max(f64::MIN_POSITIVE),
                    post,
                    (detect - PRE).as_secs_f64() * 1e3,
                    (done - PRE).as_secs_f64() * 1e3,
                ],
            );
            t_ctr.row(
                keys.to_string(),
                vec![d.peers_recovered as f64, d.leases_stolen as f64, d.epoch_stalls as f64],
            );
            drop((map, store));
            let _ = std::fs::remove_file(&path);
        }
        self.emit("fig14_timeline", &t_tp);
        self.emit("fig14_counters", &t_ctr);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

const FIG14_HEAP_BYTES: usize = 64 << 20;

/// The columns of an [`attach_point`] row.
const ATTACH_COLS: [&str; 4] = ["fill ms", "attach ms", "committed blocks", "swept blocks"];

/// Fills a new store at `path`, drops it and times its re-open (Figures 10
/// and 11): the [`ATTACH_COLS`] row.
fn attach_point(path: &std::path::Path, fill: impl FnOnce(&isb::store::Store)) -> Vec<f64> {
    use isb::store::Store;
    let _ = std::fs::remove_file(path);
    let t0 = std::time::Instant::now();
    fill(&Store::open(path).unwrap());
    let fill_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t1 = std::time::Instant::now();
    let store = Store::open(path).unwrap();
    let attach_ms = t1.elapsed().as_secs_f64() * 1e3;
    let s = store.summary();
    let row = vec![fill_ms, attach_ms, s.heap.committed as f64, s.swept as f64];
    drop(store);
    let _ = std::fs::remove_file(path);
    row
}

/// A counting-model point at `n` threads; at 1 thread its allocations all
/// start on their own lines ([`line_aligned`]).
fn counting<R>(n: usize, point: impl FnOnce() -> R) -> R {
    match n {
        1 => line_aligned(point),
        _ => point(),
    }
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The fig14 child: joins the shared heap and hammers the map until the
/// parent SIGKILLs it (it never exits on its own).
fn fig14_child() -> ! {
    use isb::store::Store;
    let path = std::env::var("ISB_FIG14_HEAP").unwrap();
    let keys: u64 = std::env::var("ISB_FIG14_KEYS").unwrap().parse().unwrap();
    nvm::tid::set_tid(0);
    let store = Store::open_sized(&path, FIG14_HEAP_BYTES).expect("child open");
    let slot = store.heap().my_participant().expect("child slot");
    let t = nvm::mapped::MappedHeap::tid_band(slot).start;
    nvm::tid::set_tid(t);
    let map = store.hashmap::<LP>("users", 16).expect("users");
    std::fs::write(std::env::var("ISB_FIG14_READY").unwrap(), b"").unwrap();
    let mut rng = 0xdead_beef_cafe_f00du64;
    loop {
        let r = splitmix(&mut rng);
        let k = 1 + splitmix(&mut rng) % keys;
        match r % 4 {
            0 => map.insert(t, k),
            1 => map.delete(t, k),
            _ => map.find(t, k),
        };
    }
}

fn main() {
    if std::env::var_os("ISB_FIG14_CHILD").is_some() {
        fig14_child();
    }
    let opts = parse_args();
    // The instruction that actually runs (detected from the CPU), not the
    // compile-time feature: the paper's own evaluation is the `clflush` row.
    let flush = nvm::flush::kind();
    println!(
        "pwb/pfence/psync in RealNvm: {}/{}/mfence (shared-cache figures are only \
         comparable to the paper's when real flushes are compiled in)",
        flush.name(),
        if flush.weakly_ordered() { "sfence" } else { "-" },
    );
    let ctx = Ctx {
        threads: opts.threads,
        dur: opts.dur,
        out: opts.out,
        json: opts.json,
        collected: RefCell::new(Vec::new()),
        queue_prefill: opts.queue_prefill,
    };
    for fig in &opts.figs {
        match fig.as_str() {
            "fig1a" => ctx.list_throughput(
                "fig1a",
                "Figure 1a: throughput, read-intensive",
                500,
                Mix::READ_INTENSIVE,
            ),
            "fig1b" => ctx.list_counts("fig1b", "Figure 1b", &[500], Mix::READ_INTENSIVE),
            "fig1c" => ctx.list_counts("fig1c", "Figure 1c", &[500], Mix::UPDATE_INTENSIVE),
            "fig1d" => ctx.list_throughput(
                "fig1d",
                "Figure 1d: throughput, update-intensive",
                500,
                Mix::UPDATE_INTENSIVE,
            ),
            "fig1e" => ctx.list_throughput(
                "fig1e",
                "Figure 1e: throughput, read-intensive",
                1500,
                Mix::READ_INTENSIVE,
            ),
            "fig1f" => ctx.list_throughput(
                "fig1f",
                "Figure 1f: throughput, update-intensive",
                1500,
                Mix::UPDATE_INTENSIVE,
            ),
            "fig3" => {
                ctx.list_throughput(
                    "fig3_read_1000",
                    "Figure 3: throughput, read-intensive",
                    1000,
                    Mix::READ_INTENSIVE,
                );
                ctx.list_throughput(
                    "fig3_update_1000",
                    "Figure 3: throughput, update-intensive",
                    1000,
                    Mix::UPDATE_INTENSIVE,
                );
                ctx.list_throughput(
                    "fig3_read_2000",
                    "Figure 3: throughput, read-intensive",
                    2000,
                    Mix::READ_INTENSIVE,
                );
                ctx.list_throughput(
                    "fig3_update_2000",
                    "Figure 3: throughput, update-intensive",
                    2000,
                    Mix::UPDATE_INTENSIVE,
                );
            }
            "fig4" => ctx.fig4(),
            "fig5" => ctx.list_counts(
                "fig5",
                "Figure 5 (read-intensive)",
                &[1000, 1500, 2000],
                Mix::READ_INTENSIVE,
            ),
            "fig6" => ctx.list_counts(
                "fig6",
                "Figure 6 (update-intensive)",
                &[1000, 1500, 2000],
                Mix::UPDATE_INTENSIVE,
            ),
            "fig7" => ctx.fig7(),
            "fig8" => ctx.fig8(),
            "fig10" => ctx.fig10(),
            "fig11" => ctx.fig11(),
            "fig12" => ctx.fig12(),
            "fig14" => ctx.fig14(),
            other => panic!("unknown figure {other}"),
        }
    }
    if let Some(path) = &ctx.json {
        let figs = ctx.collected.borrow();
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        let body = format!(
            "{{\"schema\":1,\"host\":{{\"flush\":\"{}\",\"nproc\":{nproc}}},\"figures\":[{}]}}",
            flush.name(),
            figs.join(",")
        );
        std::fs::write(path, body).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("wrote {} figure tables to {path}", figs.len());
    }
}
