//! Micro-probes of layers no span can reach from outside: one flushed line,
//! one allocation, one epoch pin, a loaded response table, a handle lookup,
//! a bare loopback echo. Each is a fixed procedure on a scratch store, the
//! same on every workload.

use crate::Out;
use isb::store::Store;
use isb_benchmark::stats::{quiet_low, SliceStat};
use isb_benchmark::{kv, ARM};
use nvm::{MappedNvm, PWord, Persist};
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

/// Mean ns per call of `f`: quiet quantile over `batches` of `per_batch`.
pub fn time_ns(batches: usize, per_batch: usize, mut f: impl FnMut()) -> f64 {
    let means: Vec<f64> = (0..batches)
        .map(|_| {
            let t0 = Instant::now();
            (0..per_batch).for_each(|_| f());
            t0.elapsed().as_nanos() as f64 / per_batch as f64
        })
        .collect();
    quiet_low(&means)
}

/// Runs every micro-probe on a scratch store under `dir`.
pub fn run(dir: &Path, out: &mut Out) -> Result<(), String> {
    let path = dir.join("probe.heap");
    let _ = std::fs::remove_file(&path);
    nvm::tid::set_tid(0);
    let store = Store::open_sized(&path, kv::HEAP_BYTES).map_err(|e| e.to_string())?;
    let map = store.hashmap::<ARM>("probe", kv::SHARDS).map_err(|e| e.to_string())?;

    // One dirtied line written back and fenced — the unit every
    // `fence_per_op` is made of.
    let word = Box::new(PWord::<MappedNvm>::new(0));
    let mut v = 0u64;
    out.set(
        "flush.line_fence_ns",
        time_ns(20, 2_000, || {
            v += 1;
            word.store(v);
            MappedNvm::pbarrier(&word);
        }),
    );

    // One block through the allocator and back (steady state: the free is
    // what the next alloc's free-list hit takes).
    let heap = store.heap();
    let mut failed = false;
    out.set(
        "mapped.alloc_free_ns",
        time_ns(20, 2_000, || match heap.alloc(64) {
            Ok(p) => {
                heap.commit(p);
                // SAFETY: `p` is the committed block just allocated above;
                // nothing else holds a reference to it.
                unsafe { heap.free(black_box(p)) };
            }
            Err(_) => failed = true,
        }),
    );
    if failed {
        return Err("probe heap exhausted".into());
    }

    // Entering and leaving an epoch-protected section.
    let collector = map.collector();
    out.set("reclaim.pin_ns", time_ns(20, 10_000, || drop(black_box(collector.pin()))));

    // Dedup lookup with the table at 75 % load (probe chains at their
    // design length), cycling over every registered client.
    let table = store.response_table();
    let clients = (isb::resptable::CLIENT_SLOTS * 3 / 4) as u64;
    for id in 1..=clients {
        table.register(id * 7_919).ok_or("response table full at 75 %")?;
    }
    let mut id = 0u64;
    out.set(
        "resptable.lookup_full_ns",
        time_ns(20, 5_000, || {
            id = id % clients + 1;
            black_box(table.lookup(id * 7_919));
        }),
    );

    // Looking an existing structure up by name.
    out.set(
        "store.handle_lookup_ns",
        time_ns(20, 2_000, || {
            black_box(store.hashmap::<ARM>("probe", kv::SHARDS).is_ok());
        }),
    );

    drop((map, store));
    let _ = std::fs::remove_file(&path);
    out.set("server.echo_us", echo_us()?);
    Ok(())
}

/// Median round trip of a bare loopback echo with the protocol's frame
/// sizes (30 bytes out, 22 back) between two threads — what the sockets and
/// the scheduler cost with no server behind them.
fn echo_us() -> Result<f64, String> {
    let io = |e: std::io::Error| format!("echo: {e}");
    let listener = TcpListener::bind("127.0.0.1:0").map_err(io)?;
    let addr = listener.local_addr().map_err(io)?;
    let server = std::thread::spawn(move || -> std::io::Result<()> {
        let (mut s, _) = listener.accept()?;
        s.set_nodelay(true)?;
        let mut req = [0u8; 30];
        while s.read_exact(&mut req).is_ok() {
            s.write_all(&req[..22])?;
        }
        Ok(())
    });
    let mut c = TcpStream::connect(addr).map_err(io)?;
    c.set_nodelay(true).map_err(io)?;
    let (req, mut resp) = ([7u8; 30], [0u8; 22]);
    let mut lat_ns = Vec::new();
    let mut p50s = Vec::new();
    for _ in 0..8 {
        let start = Instant::now();
        let mut n = 0;
        while start.elapsed() < Duration::from_millis(50) {
            let t0 = Instant::now();
            c.write_all(&req).map_err(io)?;
            c.read_exact(&mut resp).map_err(io)?;
            lat_ns.push(t0.elapsed().as_nanos() as u64);
            n += 1;
        }
        p50s.push(SliceStat::reduce(n, start.elapsed().as_secs_f64(), &mut lat_ns).p50_us);
    }
    drop(c);
    server.join().map_err(|_| "echo thread panicked")?.map_err(io)?;
    Ok(quiet_low(&p50s))
}
