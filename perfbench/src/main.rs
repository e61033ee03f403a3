//! The repository's benchmark: seeded closed-loop workloads against the
//! public API of the CALU reproduction, every result checked.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload factor|dist|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! `BENCHMARK.json` lists `factor` and `dist`. `serve` runs by hand only:
//! its figures follow the shared host's state too closely for a
//! regression bound (`serve.rs` gives the measurements), and the `factor`
//! workload's traced run measures its layer instead.
//!
//! With `--trace 0` the run measures the end-to-end metrics with tracing
//! off. With `--trace 1` it measures the per-layer metrics instead: half
//! the time untraced, half traced (the benchmark's own spans around each
//! call it makes, merged with the spans the program returns, written as
//! one Chrome trace under `perfbench/out/`), then direct timings of the
//! kernels on the workload's tile shape. `src/catalog.rs` lists every
//! metric; the last line of standard output is the result object, and
//! the lines before it are the run's record (seed, parameters,
//! provenance). Any failed check makes the exit code non-zero.
//!
//! Every workload is a closed loop driven by one caller thread; the
//! program under test uses at most 2 threads. Inputs come only from
//! `--seed`. Every matrix fits in L3 (the record states both sizes), so no
//! figure here speaks for memory bandwidth.
//!
//! Expected effects of the open ROADMAP items, written down before any of
//! them is measured:
//!
//! * a packed `gemm` micro-kernel raises `ops_per_s` on `factor`, less on
//!   `dist`, and changes `serve` little;
//! * a persistent scheduler raises `serve.threaded_speedup` (the threaded
//!   executor on the serve traffic, against the serial one `serve` runs
//!   with) and `serve`'s throughput once it runs threaded, moves `factor`
//!   little and leaves `dist` unchanged (under the threaded communicator
//!   the rank threads replace the executor);
//! * deleting duplicate paths and adding NaN validation move nothing on
//!   any workload.

mod catalog;
mod check;
mod dist;
mod factor;
mod host;
mod kernels;
mod runtime_layer;
mod serve;
mod spans;
mod stats;

use calu_obs::{chrome_trace, JsonValue};
use check::Checker;
use rand::rngs::StdRng;
use rand::SeedableRng;
use spans::Tracer;
use std::collections::HashMap;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 15;
/// Seconds of the traced phase the Chrome trace file covers.
const TRACE_FILE_S: f64 = 2.0;
/// Seconds of direct kernel timing per kernel in the traced run.
const KERNEL_BUDGET_S: f64 = 0.2;

/// A closed-loop workload: one caller, the next round only after the
/// previous one completes.
pub trait Workload {
    /// The workload's fixed parameters, for the record.
    fn params(&self) -> JsonValue;
    /// Bytes of the largest matrix the workload factors.
    fn largest_matrix_bytes(&self) -> u64;
    /// Tile order of the workload's factorizations.
    fn tile(&self) -> usize;
    /// How `latency_tail_ms` is taken: its percentile cap keeps two long
    /// enough runs on the same statistic.
    fn tail_rule(&self) -> stats::TailRule;
    /// Operations after which `peak_rss_mb` is read. A fixed count, not
    /// the end of the run, so memory that grows per operation shows
    /// without a faster program reading as a larger one.
    fn rss_probe_ops(&self) -> u64;
    /// One set-up from scratch; returns the seconds spent in program calls
    /// (input generation excluded).
    fn setup(&mut self, tr: &Tracer, chk: &mut Checker) -> f64;
    /// One round; returns the seconds spent in program calls and pushes
    /// the latency of every operation that passed its check.
    fn round(&mut self, tr: &Tracer, chk: &mut Checker, lat: &mut Vec<f64>) -> f64;
    /// The per-layer metrics gathered by traced rounds, plus the
    /// workload's own extra measurements.
    fn layers(
        &mut self,
        tr: &Tracer,
        traced: &Phase,
        chk: &mut Checker,
        out: &mut Vec<(String, f64)>,
    );
}

/// What one timed phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Operations that completed and passed their checks.
    pub ops: u64,
    /// Seconds spent in program calls.
    pub program_s: f64,
    /// Latency of each passed operation, in seconds.
    pub lat: Vec<f64>,
    /// Per round: operations passed and seconds spent in program calls.
    pub rounds: Vec<(u64, f64)>,
    /// Peak resident memory once the phase had passed `rss_probe_ops`
    /// operations (or at its end), in MiB.
    pub peak_rss_mb: f64,
}

impl Phase {
    /// Completed, checked operations per second of program time: the
    /// median over consecutive windows of at least [`WINDOW_S`] program
    /// seconds, so a short stall of the shared host moves one window, not
    /// the figure.
    pub fn ops_per_s(&self) -> f64 {
        let rates = self.window_rates();
        if rates.is_empty() {
            return self.ops as f64 / self.program_s;
        }
        stats::median(&rates)
    }

    /// Operations per program second of each complete window.
    pub fn window_rates(&self) -> Vec<f64> {
        let mut rates = Vec::new();
        let (mut ops, mut secs) = (0u64, 0.0);
        for &(o, s) in &self.rounds {
            ops += o;
            secs += s;
            if secs >= WINDOW_S {
                rates.push(ops as f64 / secs);
                (ops, secs) = (0, 0.0);
            }
        }
        rates
    }
}

/// Program seconds per throughput window.
const WINDOW_S: f64 = 0.5;

/// Runs rounds until `seconds` of wall time have passed.
fn run_phase(w: &mut dyn Workload, seconds: f64, tr: &Tracer, chk: &mut Checker) -> Phase {
    let start = Instant::now();
    let passed0 = chk.passed();
    let mut p = Phase::default();
    while start.elapsed().as_secs_f64() < seconds {
        let before = chk.passed();
        let t = w.round(tr, chk, &mut p.lat);
        p.rounds.push((chk.passed() - before, t));
        p.program_s += t;
        if p.peak_rss_mb == 0.0 && chk.passed() - passed0 >= w.rss_probe_ops() {
            p.peak_rss_mb = host::peak_rss_mb();
        }
    }
    if p.peak_rss_mb == 0.0 {
        p.peak_rss_mb = host::peak_rss_mb();
    }
    p.ops = chk.passed() - passed0;
    p
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: calu-perfbench --workload factor|serve|dist --seed N --seconds S --trace 0|1"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args { workload: String::new(), seed: 0, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = val,
            "--seed" => args.seed = val.parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                args.seconds =
                    val.parse().ok().filter(|s: &f64| *s > 0.0).unwrap_or_else(|| usage())
            }
            "--trace" => {
                args.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    args
}

/// Fills the catalog's metrics, in its order, from measured values.
/// `absent` is the value of a metric the workload does not exercise
/// (`None`: every metric must be measured).
///
/// # Panics
/// On a measured name the catalog does not list (a benchmark bug), or a
/// missing one when `absent` is `None`.
fn emit(defs: &[catalog::MetricDef], values: Vec<(String, f64)>, absent: Option<f64>) -> JsonValue {
    let mut values: HashMap<String, f64> = values.into_iter().collect();
    let mut out = JsonValue::obj();
    for d in defs {
        assert!(catalog::valid_name(&d.name), "invalid metric name {}", d.name);
        let v = values
            .remove(&d.name)
            .or(absent)
            .unwrap_or_else(|| panic!("metric {} was not measured", d.name));
        out = out.set(&d.name, JsonValue::obj().set("value", v).set("unit", d.unit));
    }
    assert!(values.is_empty(), "metrics missing from the catalog: {:?}", values.keys());
    out
}

fn main() {
    let args = parse_args();
    let rng = StdRng::seed_from_u64(args.seed);
    let mut w: Box<dyn Workload> = match args.workload.as_str() {
        "factor" => Box::new(factor::Factor::new(rng)),
        "serve" => Box::new(serve::Serve::new(rng)),
        "dist" => Box::new(dist::Dist::new(rng)),
        _ => usage(),
    };
    let mut tr = Tracer::new();
    let mut chk = Checker::default();
    let setups: Vec<f64> = (0..SETUPS).map(|_| w.setup(&tr, &mut chk)).collect();
    let mut record = JsonValue::obj()
        .set("workload", args.workload.as_str())
        .set("seed", args.seed)
        .set("seconds", args.seconds)
        .set("trace", JsonValue::Bool(args.trace))
        .set("loop", "closed, one caller")
        .set("params", w.params())
        .set("host", host::provenance(w.largest_matrix_bytes()))
        .set("setup_runs_s", setups.iter().copied().collect::<JsonValue>());

    let metrics = if !args.trace {
        let ticks0 = host::cpu_ticks();
        let p = run_phase(&mut *w, args.seconds, &tr, &mut chk);
        if let (Some((s0, t0)), Some((s1, t1))) = (ticks0, host::cpu_ticks()) {
            record = record.set("steal_share", (s1 - s0) as f64 / (t1 - t0).max(1) as f64);
        }
        let r = stats::sorted(&p.window_rates());
        if !r.is_empty() {
            let q = |x: f64| stats::quantile(&r, x);
            record = record.set(
                "window_rates",
                JsonValue::obj().set("p10", q(0.1)).set("p50", q(0.5)).set("p90", q(0.9)),
            );
        }
        let mut values = vec![
            ("ops_per_s".to_string(), p.ops_per_s()),
            ("setup_s".into(), stats::median(&setups)),
            ("peak_rss_mb".into(), p.peak_rss_mb),
        ];
        if let Some((t, windows)) = stats::windowed_tail(&p.lat, w.tail_rule()) {
            values.push(("latency_tail_ms".into(), t.value * 1e3));
            record = record
                .set("tail_percentile", t.percentile)
                .set("tail_windows", windows)
                .set("samples_per_window", t.samples)
                .set("min_samples_beyond_tail", t.beyond);
        }
        if !p.lat.is_empty() {
            values.push(("latency_p50_ms".into(), stats::median(&p.lat) * 1e3));
            let s = stats::sorted(&p.lat);
            let q = |x: f64| stats::quantile(&s, x) * 1e3;
            record = record.set("latency_samples", s.len()).set(
                "latency_ms",
                JsonValue::obj()
                    .set("p90", q(0.9))
                    .set("p99", q(0.99))
                    .set("p99.9", q(0.999))
                    .set("max", q(1.0)),
            );
        }
        // A run whose checks failed may lack a latency; it reports null.
        emit(&catalog::end_to_end(), values, (chk.failed > 0).then_some(f64::NAN))
    } else {
        let base = run_phase(&mut *w, args.seconds / 2.0, &tr, &mut chk);
        tr.enable();
        let traced_from = tr.now();
        let traced = run_phase(&mut *w, args.seconds / 2.0, &tr, &mut chk);
        let mut values = Vec::new();
        w.layers(&tr, &traced, &mut chk, &mut values);
        let spans = tr.spans();
        let ops = traced.ops.max(1) as f64;
        values.push(("obs.trace_overhead".into(), base.ops_per_s() / traced.ops_per_s()));
        values.push(("obs.spans_per_op".into(), spans.len() as f64 / ops));
        for (layer, ns) in spans::self_ns(&spans) {
            values.push((format!("obs.self_ms.{layer}"), ns as f64 / 1e6 / ops));
        }
        kernels::measure(
            w.tile(),
            &mut StdRng::seed_from_u64(args.seed),
            KERNEL_BUDGET_S,
            &mut values,
        );
        // The trace file keeps the phase's first seconds: enough to read,
        // small enough to write on every run.
        let head: Vec<_> = spans
            .iter()
            .filter(|s| s.ts_us <= (traced_from + TRACE_FILE_S) * 1e6)
            .cloned()
            .collect();
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!("{dir}/trace_{}.json", args.workload);
        std::fs::create_dir_all(dir).expect("create the trace directory");
        std::fs::write(&path, chrome_trace(&head)).expect("write the Chrome trace");
        let map = catalog::per_layer()
            .into_iter()
            .fold(JsonValue::obj(), |m, d| m.set(&d.name, format!("{} -> {}", d.layer, d.moves)));
        record = record
            .set("per_layer_moves", map)
            .set("trace_file", path)
            .set("trace_file_spans", head.len())
            .set("trace_spans", spans.len());
        emit(&catalog::per_layer(), values, Some(0.0))
    };

    println!("{}", JsonValue::obj().set("record", record).to_json());
    let result = JsonValue::obj()
        .set("correct", JsonValue::Bool(chk.failed == 0))
        .set("attempted", chk.attempted)
        .set("failed", chk.failed)
        .set("metrics", metrics);
    println!("{}", result.to_json());
    if chk.failed > 0 {
        std::process::exit(1);
    }
}
