//! `isbbench --workload <name> --seed <n> [--seconds <s>] [--dir <path>]`:
//! the end-to-end run, tracing off.

use isb_benchmark::kv::Kv;
use isb_benchmark::queue::Queue2t;
use isb_benchmark::restart::{self, MapRestart};
use isb_benchmark::run::{self, Args};

fn main() {
    restart::maybe_mutator();
    let code = match real_main() {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("isbbench: {e}");
            2
        }
    };
    std::process::exit(code);
}

fn real_main() -> Result<bool, String> {
    let args = Args::parse(std::env::args().skip(1), 0)?;
    let scratch = args.scratch()?;
    let env = scratch.env(&args);
    match args.workload.as_str() {
        "kv_update" => run::run::<Kv<false>>(&env, args.seconds),
        "kv_lookup" => run::run::<Kv<true>>(&env, args.seconds),
        "queue_2t" => run::run::<Queue2t>(&env, args.seconds),
        "map_restart" => run::run::<MapRestart>(&env, args.seconds),
        other => Err(format!("unknown workload {other}")),
    }
}
