//! Runtime-executor performance record: serial vs. threaded execution of
//! the CALU task DAG at several lookahead depths, written as
//! `BENCH_runtime.json` so CI and later sessions can diff performance.
//!
//! Two win metrics are recorded, because the container running CI may be
//! single-core:
//!
//! * **measured**: wall-clock of the threaded executor vs. the serial
//!   executor on the host (meaningful when `host_threads > 1`);
//! * **modeled**: the DAG's critical path vs. its serial sum under the
//!   POWER5 γ-rate cost model — the schedule-quality win that does not
//!   depend on the host, and the acceptance evidence on single-core hosts.
//!
//! The measured-speedup claim is only meaningful with real parallelism:
//! when `available_parallelism` reports a single core the JSON carries
//! `"measured_speedup_valid": false` and the summary line says so, so a
//! committed record from a single-core CI container cannot be mistaken
//! for a parallel-win measurement (see EXPERIMENTS.md).
//!
//! Usage: `runtime_calu [--n N] [--nb NB] [--reps R] [--threads T]
//! [--out PATH] [--trace-out PATH]` (defaults: n=1024, nb=128, reps=1,
//! threads=0 = host, out=BENCH_runtime.json); each cell is the best of
//! `R` runs. With `--trace-out`, one extra threaded run at
//! the deepest lookahead exports its task timeline as a Chrome trace that
//! `bench_report --trace` (or `chrome://tracing`) can consume.

use calu_bench::{write_record, HostInfo};
use calu_core::{runtime_calu_factor, CaluOpts, RuntimeOpts};
use calu_matrix::{gen, Matrix};
use calu_netsim::MachineConfig;
use calu_obs::{JsonValue, Recorder};
use calu_runtime::{modeled_time, ExecutorKind, LuDag, LuShape};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

struct Args {
    n: usize,
    nb: usize,
    reps: usize,
    threads: usize,
    out: String,
    trace_out: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        n: 1024,
        nb: 128,
        reps: 1,
        threads: 0,
        out: "BENCH_runtime.json".into(),
        trace_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {flag}; try --help");
                std::process::exit(2);
            })
        };
        let parsed = |v: String| {
            v.parse().unwrap_or_else(|_| {
                eprintln!("bad numeric value {v:?}; try --help");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--n" => args.n = parsed(val()),
            "--nb" => args.nb = parsed(val()),
            "--reps" => args.reps = parsed(val()),
            "--threads" => args.threads = parsed(val()),
            "--out" => args.out = val(),
            "--trace-out" => args.trace_out = Some(val()),
            "--help" | "-h" => {
                eprintln!(
                    "usage: runtime_calu [--n N] [--nb NB] [--reps R] [--threads T] \
                     [--out PATH] [--trace-out PATH]"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown option {other}; try --help");
                std::process::exit(2);
            }
        }
    }
    args
}

struct Row {
    depth: usize,
    serial_s: f64,
    threaded_s: f64,
    tasks: usize,
    modeled_serial_s: f64,
    modeled_cp_s: f64,
}

fn best_of<F: FnMut() -> f64>(reps: usize, mut f: F) -> f64 {
    (0..reps.max(1)).map(|_| f()).fold(f64::INFINITY, f64::min)
}

fn main() {
    let args = parse_args();
    let (n, nb) = (args.n, args.nb);
    let host = HostInfo::detect(args.threads);
    let host_threads = host.host_threads;
    let mut rng = StdRng::seed_from_u64(2024);
    let a: Matrix = gen::randn(&mut rng, n, n);
    let opts = CaluOpts { block: nb, ..Default::default() };
    let shape = LuShape { m: n, n, nb };
    let mch = MachineConfig::power5();

    println!("runtime_calu: {n}x{n}, nb={nb}, host_threads={host_threads}, reps={}", args.reps);
    println!(
        "{:>5} {:>12} {:>12} {:>9} {:>12} {:>12} {:>9}",
        "depth", "serial", "threaded", "measured", "model 1-wkr", "model CP", "modeled"
    );

    let mut rows = Vec::new();
    for depth in [1usize, 2, 3] {
        let run = |executor: ExecutorKind| {
            let rt = RuntimeOpts { lookahead: depth, executor };
            let t0 = Instant::now();
            let (f, _rep) = runtime_calu_factor(&a, opts, rt).expect("factorization succeeds");
            let dt = t0.elapsed().as_secs_f64();
            // Keep the factors alive so the call is not optimized away.
            assert_eq!(f.ipiv.len(), n);
            dt
        };
        let serial_s = best_of(args.reps, || run(ExecutorKind::Serial));
        let threaded_s =
            best_of(args.reps, || run(ExecutorKind::Threaded { threads: args.threads }));

        let dag = LuDag::build(shape, depth);
        let modeled_serial_s = dag.total_cost(|t| modeled_time(&shape, t, &mch));
        let modeled_cp_s = dag.critical_path(|t| modeled_time(&shape, t, &mch));
        println!(
            "{:>5} {:>10.1}ms {:>10.1}ms {:>8.2}x {:>10.1}ms {:>10.1}ms {:>8.2}x",
            depth,
            serial_s * 1e3,
            threaded_s * 1e3,
            serial_s / threaded_s,
            modeled_serial_s * 1e3,
            modeled_cp_s * 1e3,
            modeled_serial_s / modeled_cp_s
        );
        rows.push(Row {
            depth,
            serial_s,
            threaded_s,
            tasks: dag.len(),
            modeled_serial_s,
            modeled_cp_s,
        });
    }

    let measured_valid = host.measured_speedup_valid;
    let best = rows
        .iter()
        .max_by(|a, b| (a.serial_s / a.threaded_s).total_cmp(&(b.serial_s / b.threaded_s)))
        .expect("rows non-empty");
    if measured_valid {
        println!(
            "\nbest measured win: depth {} at {:.2}x; best modeled critical-path win: {:.2}x",
            best.depth,
            best.serial_s / best.threaded_s,
            rows.iter().map(|r| r.modeled_serial_s / r.modeled_cp_s).fold(0.0, f64::max)
        );
    } else {
        println!(
            "\nsingle-core host ({host_threads} thread): measured 'speedup' is executor \
             overhead only, NOT a parallel win — the schedule-quality claim is the modeled \
             critical-path win of {:.2}x",
            rows.iter().map(|r| r.modeled_serial_s / r.modeled_cp_s).fold(0.0, f64::max)
        );
    }

    if let Some(path) = &args.trace_out {
        // One extra threaded run at the deepest lookahead, replayed into a
        // Chrome trace so `bench_report --trace` can profile it.
        let rt = RuntimeOpts {
            lookahead: 3,
            executor: ExecutorKind::Threaded { threads: args.threads },
        };
        let (f, rep) = runtime_calu_factor(&a, opts, rt).expect("traced run succeeds");
        assert_eq!(f.ipiv.len(), n);
        let rec = Recorder::new();
        rep.record_into(&rec, 0.0);
        std::fs::write(path, rec.chrome_trace()).expect("write trace json");
        println!("wrote {path} ({} spans)", rec.len());
    }

    let row_json = |r: &Row| {
        JsonValue::obj()
            .set("depth", r.depth)
            .set("tasks", r.tasks)
            .set("serial_s", r.serial_s)
            .set("threaded_s", r.threaded_s)
            .set("measured_speedup", r.serial_s / r.threaded_s)
            .set("modeled_serial_s", r.modeled_serial_s)
            .set("modeled_cp_s", r.modeled_cp_s)
            .set("modeled_cp_speedup", r.modeled_serial_s / r.modeled_cp_s)
    };
    let record = host
        .stamp(
            JsonValue::obj()
                .set("bench", "runtime_calu")
                .set("n", n)
                .set("nb", nb)
                .set("communicator", "shared_memory"),
        )
        .set("reps", args.reps)
        .set("model", "power5")
        .set("rows", rows.iter().map(row_json).collect::<JsonValue>());
    write_record(&args.out, &record);
}
