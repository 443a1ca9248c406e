//! The run shape every workload shares, and the command line.
//!
//! 1. *Set-up* [`SETUPS`] times on fresh heaps; `setup_s` is their lower
//!    quartile, the last instance is kept.
//! 2. *Count pass*: exactly [`Workload::COUNT_OPS`] ops of the seeded stream on one
//!    thread, persist counters read before and after — a fixed op count from
//!    a fixed seed repeats exactly, a time-boxed one does not. Heap and
//!    resident-set high-water marks are read here too, for the same reason.
//! 3. Warm-up.
//! 4. *Timed phase* of `--seconds`, cut into slices (see [`crate::stats`]).
//! 5. Final model check.

use crate::host::{self, Host, RefLoop};
use crate::report::{Report, Tally, END_TO_END};
use crate::stats::{self, SliceStat};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Set-ups per run.
pub const SETUPS: usize = 9;
/// Length of one timed slice.
pub const SLICE: Duration = Duration::from_millis(100);

/// What a workload needs from the command line.
#[derive(Debug, Clone)]
pub struct Env {
    /// Scratch directory for heaps (created by [`Args::scratch`]).
    pub dir: PathBuf,
    /// The input seed.
    pub seed: u64,
    /// CPUs this process was allowed when it started, before any pinning.
    pub cpus: Vec<usize>,
    /// Pin the process when the workload's plan is a single CPU. Only the
    /// README's recorded unpinned run turns this off (`--no-pin`).
    pub pin: bool,
}

/// One benchmark workload, driven by [`run`].
pub trait Workload: Sized {
    /// Ops in the count pass.
    const COUNT_OPS: u64 = 50_000;
    /// CPUs the load runs on, chosen from the `allowed` ones. A single CPU
    /// pins the whole process before any thread exists; several mean the
    /// workload pins its own threads.
    fn pin_plan(allowed: &[usize]) -> Vec<usize>;
    /// Builds everything on a fresh heap: create → prefill → open handles
    /// (or start the server and connect). Dropping the value tears it down
    /// and removes the heap.
    fn setup(env: &Env) -> Result<Self, String>;
    /// Runs exactly `n` ops of the stream on one thread.
    fn run_ops(&mut self, n: u64);
    /// `(heap bytes at the bump high-water mark, live items)`.
    fn footprint(&self) -> (u64, u64);
    /// Runs the stream for about `dur` and reduces it to one slice.
    fn run_slice(&mut self, dur: Duration) -> SliceStat;
    /// The timed phase: `seconds` of slices, the reference loop between.
    fn timed(&mut self, seconds: f64, refl: &mut RefLoop) -> Result<Vec<SliceStat>, String> {
        let n = ((seconds / SLICE.as_secs_f64()).round() as usize).max(2);
        Ok((0..n)
            .map(|i| {
                if i % 4 == 0 {
                    refl.tick();
                }
                self.run_slice(SLICE)
            })
            .collect())
    }
    /// Final model check of everything the run left in the heap.
    fn finish(&mut self) -> Result<(), String>;
    /// Outcomes counted so far.
    fn tally(&self) -> Tally;
    /// Extra `name value unit` facts for the run's `info` lines.
    fn info(&self) -> Vec<(&'static str, f64, &'static str)> {
        Vec::new()
    }
}

/// Runs workload `W` end to end and prints its result. Returns whether the
/// run was correct.
pub fn run<W: Workload>(env: &Env, seconds: f64) -> Result<bool, String> {
    let mut plan = W::pin_plan(&env.cpus);
    match plan[..] {
        [cpu] if env.pin => host::pin_to(cpu)?,
        [_] => plan.clear(),
        _ => {}
    }
    nvm::tid::set_tid(0);
    let host = Host::begin(&env.dir, env.cpus.len(), plan);

    let mut setup_s = Vec::new();
    let mut kept = None;
    for _ in 0..SETUPS {
        drop(kept.take());
        let t0 = Instant::now();
        kept = Some(W::setup(env)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut w = kept.expect("SETUPS > 0");

    let before = nvm::stats::snapshot();
    w.run_ops(W::COUNT_OPS);
    let d = nvm::stats::snapshot().since(&before);
    let (heap_bytes, items) = w.footprint();
    let peak_rss_mb = host::peak_rss_mb();

    w.run_slice(Duration::from_secs_f64((seconds / 10.0).clamp(0.2, 1.0)));
    let mut refl = RefLoop::default();
    let slices = w.timed(seconds, &mut refl)?;
    w.finish()?;
    let tally = w.tally();
    let info = w.info();
    drop(w);

    let q = stats::quiet(&slices);
    let per_op = |n: u64| n as f64 / W::COUNT_OPS as f64;
    let r = Report::declared(
        END_TO_END,
        &[
            ("setup_s", stats::lower_quartile(&setup_s)),
            ("ops_per_s", q.ops_per_s),
            ("p50_us", q.p50_us),
            ("pwb_per_op", per_op(d.pwb + d.pbarrier_lines)),
            ("fence_per_op", per_op(d.pbarrier + d.pfence + d.psync)),
            ("heap_bytes_per_key", heap_bytes as f64 / items.max(1) as f64),
            ("peak_rss_mb", peak_rss_mb),
        ],
    )?;
    // Tail latency is reported but not gated: on this host its run-to-run
    // spread is wider than any bound worth having (see README).
    println!("info p99_us {} us", q.p99_us);
    // How the slices were spread: the host's state during this run.
    let mut p50s: Vec<f64> = slices.iter().map(|s| s.p50_us).collect();
    p50s.sort_by(f64::total_cmp);
    let at = |q| stats::quantile(&p50s, q);
    println!(
        "info slice_p50_us min {:.3} q25 {:.3} q50 {:.3} q75 {:.3} max {:.3}",
        at(0.0),
        at(0.25),
        at(0.5),
        at(0.75),
        at(1.0)
    );
    for (name, value, unit) in info {
        println!("info {name} {value} {unit}");
    }

    let (ref_ns, ref_spread) = refl.summary();
    let extra = format!(
        ", \"slices\": {}, \"samples\": {}, \"timed_ops\": {}, \"ref_ns\": {ref_ns:.0}, \
         \"ref_spread\": {ref_spread:.4}",
        slices.len(),
        slices.iter().map(|s| s.samples).sum::<u64>(),
        slices.iter().map(|s| s.ops).sum::<u64>(),
    );
    Ok(r.print(&host.json(&extra), tally))
}

/// The parsed command line shared by `isbbench` and `isbtrace`.
#[derive(Debug)]
pub struct Args {
    /// `--workload`.
    pub workload: String,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`: length of the timed phase.
    pub seconds: f64,
    /// `--dir`: parent of the scratch directory.
    pub dir: Option<PathBuf>,
    /// `--no-pin`: leave a single-CPU workload unpinned.
    pub no_pin: bool,
}

impl Args {
    /// Parses `--workload <name> --seed <n> [--seconds <s>] [--trace <0|1>]
    /// [--dir <path>] [--no-pin]`.
    ///
    /// `trace` is the only value of `--trace` the calling binary answers to:
    /// 0 for `isbbench`, 1 for `isbtrace`.
    pub fn parse(argv: impl Iterator<Item = String>, trace: u8) -> Result<Args, String> {
        let mut a =
            Args { workload: String::new(), seed: 0, seconds: 20.0, dir: None, no_pin: false };
        let mut seen_seed = false;
        let mut argv = argv;
        while let Some(flag) = argv.next() {
            let mut val = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
            let bad = |v: String| format!("bad value for {flag}: {v}");
            match flag.as_str() {
                "--workload" => a.workload = val()?,
                "--seed" => {
                    let v = val()?;
                    a.seed = v.parse().map_err(|_| bad(v))?;
                    seen_seed = true;
                }
                "--seconds" => {
                    let v = val()?;
                    a.seconds = v.parse().ok().filter(|s| *s > 0.0).ok_or_else(|| bad(v))?;
                }
                "--trace" => {
                    let v = val()?;
                    if v.parse() != Ok(trace) {
                        return Err(format!(
                            "--trace {v}: isbbench runs --trace 0, isbtrace --trace 1 \
                             (benchmark/run.sh picks the binary)"
                        ));
                    }
                }
                "--dir" => a.dir = Some(val()?.into()),
                "--no-pin" => a.no_pin = true,
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        if a.workload.is_empty() || !seen_seed {
            return Err("usage: --workload <name> --seed <n> [--seconds <s>] [--dir <path>]".into());
        }
        Ok(a)
    }

    /// Creates this process's scratch directory: under `--dir`, else under
    /// `/dev/shm` (tmpfs, the usual NVRAM stand-in) when it exists, else
    /// under the system temporary directory.
    pub fn scratch(&self) -> Result<Scratch, String> {
        let parent = self.dir.clone().unwrap_or_else(|| {
            let shm = PathBuf::from("/dev/shm");
            if shm.is_dir() {
                shm
            } else {
                std::env::temp_dir()
            }
        });
        let dir = parent.join(format!("isbbench-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Scratch {
    /// What a workload needs, for the command line `args`.
    pub fn env(&self, args: &Args) -> Env {
        Env { dir: self.0.clone(), seed: args.seed, cpus: host::allowed_cpus(), pin: !args.no_pin }
    }
}

/// The scratch directory; removed, with everything in it, on drop.
#[derive(Debug)]
pub struct Scratch(pub PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
