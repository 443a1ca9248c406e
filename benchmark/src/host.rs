//! Host facts, CPU pinning, and the reference loop.
//!
//! Wall-clock numbers from a shared 2-vCPU sandbox mean little without the
//! host they were taken on, so every run reports these facts beside its
//! metrics — reported, never used to filter or normalise a metric.

use std::path::Path;
use std::time::Instant;

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
}

/// CPUs the calling thread may run on (first 64 CPUs; the sandbox has 2).
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = 0u64;
    // SAFETY: `mask` is a live 8-byte buffer and the size passed matches it.
    let rc = unsafe { sched_getaffinity(0, 8, &mut mask) };
    if rc != 0 {
        return vec![0];
    }
    (0..64).filter(|c| mask >> c & 1 == 1).collect()
}

/// Pins the calling thread (and every thread it later spawns) to `cpu`.
/// Call before spawning: already-running threads keep their own mask.
pub fn pin_to(cpu: usize) -> Result<(), String> {
    assert!(cpu < 64);
    let mask = 1u64 << cpu;
    // SAFETY: `mask` is a live 8-byte buffer and the size passed matches it.
    let rc = unsafe { sched_setaffinity(0, 8, &mask) };
    if rc == 0 {
        Ok(())
    } else {
        Err(format!("sched_setaffinity(cpu {cpu}): {}", std::io::Error::last_os_error()))
    }
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    read("/proc/self/status")
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `(steal, total)` jiffies summed over all CPUs since boot.
fn cpu_jiffies() -> (u64, u64) {
    let stat = read("/proc/stat");
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .map(|l| l.split_whitespace().skip(1).filter_map(|f| f.parse().ok()).collect())
        .unwrap_or_default();
    (fields.get(7).copied().unwrap_or(0), fields.iter().take(8).sum())
}

/// Filesystem type of the mount holding `path` (longest mount-point prefix).
fn fs_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    read("/proc/mounts")
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount).then(|| (mount.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// Facts about the host and this run's placement on it.
#[derive(Debug)]
pub struct Host {
    steal0: (u64, u64),
    nproc: usize,
    /// CPUs the load-generating threads were pinned to.
    pub pinned: Vec<usize>,
    heap_fs: String,
}

impl Host {
    /// Starts the run's steal-time window. `dir` is where the heaps live;
    /// `nproc` is the CPU count allowed before any pinning.
    pub fn begin(dir: &Path, nproc: usize, pinned: Vec<usize>) -> Host {
        Host { steal0: cpu_jiffies(), nproc, pinned, heap_fs: fs_of(dir) }
    }

    /// The facts as one JSON object, with the run's `extra` fields appended.
    pub fn json(&self, extra: &str) -> String {
        let cpuinfo = read("/proc/cpuinfo");
        let model = cpuinfo
            .lines()
            .find_map(|l| l.strip_prefix("model name"))
            .and_then(|l| l.split_once(':'))
            .map_or("unknown", |(_, m)| m.trim())
            .replace(['"', '\\'], "");
        let kernel = read("/proc/sys/kernel/osrelease").trim().replace(['"', '\\'], "");
        let (s1, t1) = cpu_jiffies();
        let steal_pct = 100.0 * (s1 - self.steal0.0) as f64 / (t1 - self.steal0.1).max(1) as f64;
        let flush = if nvm::flush::HAS_REAL_FLUSH { "clflush+mfence" } else { "spin-delay" };
        format!(
            "{{\"nproc\": {}, \"cpu\": \"{model}\", \"kernel\": \"{kernel}\", \"pinned\": {:?}, \
             \"flush\": \"{flush}\", \"arm\": \"{}\", \"heap_fs\": \"{}\", \
             \"steal_pct\": {steal_pct:.3}{extra}}}",
            self.nproc,
            self.pinned,
            isb::arm::name(crate::ARM),
            self.heap_fs,
        )
    }
}

/// A fixed amount of integer work (1 M dependent multiply-adds, ~1.5 ms), timed
/// between slices so a reader can see which speed mode the host was in.
#[derive(Debug, Default)]
pub struct RefLoop {
    ns: Vec<f64>,
}

impl RefLoop {
    /// Runs the loop once and records how long it took.
    pub fn tick(&mut self) {
        let t0 = Instant::now();
        let mut x = 1u64;
        for _ in 0..1_000_000u32 {
            x = std::hint::black_box(
                x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407),
            );
        }
        std::hint::black_box(x);
        self.ns.push(t0.elapsed().as_nanos() as f64);
    }

    /// `(quiet quantile in ns, interquartile range ÷ median)`.
    pub fn summary(&self) -> (f64, f64) {
        if self.ns.is_empty() {
            return (0.0, 0.0);
        }
        (crate::stats::quiet_low(&self.ns), crate::stats::spread(&self.ns))
    }
}
