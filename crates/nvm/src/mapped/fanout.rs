//! The one attach-time fan-out.
//!
//! Every parallel phase of an attach — the per-segment walk and sweep, and
//! the structure layer's per-work-unit validation and census — is the same
//! shape: `units` independent pieces of work, each
//! folded into the accumulator of whichever worker claimed it. Workers are
//! scoped threads, as many as the machine has cores but never more than there
//! are units; one unit (or one core) runs inline on the calling thread.
//!
//! Invariant this file owns: **each unit runs exactly once**, on exactly one
//! worker, and the caller gets every worker's accumulator back. Which worker
//! ran which unit is not specified, so callers merge with an operation that
//! does not care (sum, union, or sort by unit index). A panic in any unit
//! propagates to the caller.

use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::OnceLock;

/// Runs `work(&mut acc, unit)` for every `unit` in `0..units` and returns the
/// accumulators, one per worker that ran (see the module docs).
pub fn fan_out<A: Send>(
    units: usize,
    new_acc: impl Fn() -> A + Sync,
    work: impl Fn(&mut A, usize) + Sync,
) -> Vec<A> {
    // Asked once: on Linux the answer costs reads of /proc and the cgroup
    // files, which four fan-outs per attach would pay for again each time.
    static CORES: OnceLock<usize> = OnceLock::new();
    let cores = *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    fan_out_on(cores, units, new_acc, work)
}

/// [`fan_out`] on at most `workers` threads.
fn fan_out_on<A: Send>(
    workers: usize,
    units: usize,
    new_acc: impl Fn() -> A + Sync,
    work: impl Fn(&mut A, usize) + Sync,
) -> Vec<A> {
    // `Relaxed`: the counter only hands out unit numbers; what the units
    // compute reaches the caller through `join`.
    let next = AtomicUsize::new(0);
    let run = || {
        let mut acc = new_acc();
        loop {
            let unit = next.fetch_add(1, Relaxed);
            if unit >= units {
                return acc;
            }
            work(&mut acc, unit);
        }
    };
    let workers = workers.min(units);
    if workers <= 1 {
        return vec![run()];
    }
    std::thread::scope(|sc| {
        let handles: Vec<_> = (0..workers).map(|_| sc.spawn(run)).collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_unit_runs_exactly_once_across_the_accumulators() {
        for workers in [1, 2, 4, 9] {
            for units in [0, 1, 2, 7, 64] {
                let accs = fan_out_on(workers, units, Vec::new, |seen, u| seen.push(u));
                assert_eq!(accs.len(), workers.min(units).max(1), "{workers} workers, {units}");
                let mut all: Vec<usize> = accs.into_iter().flatten().collect();
                all.sort_unstable();
                assert_eq!(all, (0..units).collect::<Vec<_>>(), "{workers} workers, {units}");
            }
        }
    }

    #[test]
    fn one_unit_runs_inline_on_the_calling_thread() {
        let me = std::thread::current().id();
        let accs =
            fan_out_on(8, 1, || None, |ran_on, _| *ran_on = Some(std::thread::current().id()));
        assert_eq!(accs, vec![Some(me)]);
        // ...and so does everything on a one-core machine.
        let accs = fan_out_on(1, 5, Vec::new, |ids, _| ids.push(std::thread::current().id()));
        assert_eq!(accs, vec![vec![me; 5]]);
    }

    #[test]
    fn a_worker_panic_reaches_the_caller() {
        let caught = std::panic::catch_unwind(|| {
            fan_out_on(4, 16, || (), |_, u| assert_ne!(u, 11, "unit eleven is cursed"));
        });
        let msg = *caught.expect_err("the panic must propagate").downcast::<String>().unwrap();
        assert!(msg.contains("unit eleven is cursed"), "{msg}");
    }
}
