//! The `serve` traffic: one thread drives 64 logical clients against a
//! `SolverService` holding 8 registered `n = 256` matrices.
//!
//! Each round every client submits one solve against a Zipf-skewed matrix
//! id, one `process` pass runs and every ticket is taken. Between rounds,
//! with 2% probability, a random matrix is re-registered: the write bumps
//! its generation and invalidates its cached factors, so the next read
//! factors it again. The cache budget holds all 8 factorizations, so only
//! writes cause misses.
//!
//! Why: the factor cache, its invalidation and the batched solve
//! dominate, while kernels do little work and communication none.
//!
//! `BENCHMARK.json` does not list `serve` as a workload: on a shared
//! 2-vCPU host its end-to-end figures moved with the host's state. Runs of
//! the same code settled at levels up to 1.4 times apart for a whole run,
//! whatever the client count (16 to 128), matrix order (128 to 512),
//! executor or RHS tile, while `factor`, run alternately with it, moved by
//! about a tenth. The interquartile spread of ten runs reached 0.28 to
//! 0.35 on some end-to-end metric, beyond any bound the benchmark may
//! set. So the `factor`
//! workload's traced run drives this traffic for [`LAYER_S`] seconds to
//! measure the `core.serve` layer ([`layer_metrics`]), and
//! `--workload serve` still runs it alone, by hand, for its end-to-end
//! figures.
//!
//! The service runs the serial executor. The threaded executor starts its
//! workers afresh on every call; on the same host that made throughput
//! range from 2.2k to 6.4k requests/s across runs. The traced run measures
//! the threaded executor against the serial one on the same traffic
//! (`serve.threaded_speedup`), which is where a persistent scheduler
//! should show.

use crate::catalog::SOLVE_CATS;
use crate::check::{hpl, Checker};
use crate::kernels::solve_flops;
use crate::runtime_layer::RuntimeAcc;
use crate::spans::{Tracer, BENCH, CORE, STABILITY};
use crate::{stats, Phase, Workload};
use calu_core::{CacheStats, CaluOpts, PanelMode, RuntimeOpts, ServeOpts, SolverService};
use calu_matrix::{gen, Matrix};
use calu_netsim::machine::flops_lu;
use calu_obs::analyze::{intersection_ns, longest_chain_ns, merge_intervals, span_interval_ns};
use calu_obs::JsonValue;
use calu_runtime::ExecutorKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N: usize = 256;
const NB: usize = 64;
const P: usize = 4;
const MATRICES: usize = 8;
const CLIENTS: usize = 64;
const WRITE_PROBABILITY: f64 = 0.02;
const ZIPF_S: f64 = 1.0;
const LOOKAHEAD: usize = 2;
/// The executor of the measured service.
const EXECUTOR: ExecutorKind = ExecutorKind::Serial;
/// The executor the traced run compares against it.
const COMPARED: ExecutorKind = ExecutorKind::Threaded { threads: 2 };
/// Program seconds each executor gets at least in that comparison.
const BASELINE_S: f64 = 0.5;

fn serve_opts(executor: ExecutorKind) -> ServeOpts {
    ServeOpts {
        calu: CaluOpts { block: NB, p: P, panel_mode: PanelMode::Resident, ..Default::default() },
        rt: RuntimeOpts { lookahead: LOOKAHEAD, executor, ..Default::default() },
        ..Default::default()
    }
}

/// A live service with the time it was created on the tracer's clock
/// (the origin of the spans it records).
struct Live {
    svc: SolverService,
    epoch: f64,
}

/// Counters of the traced phase.
#[derive(Debug, Default)]
struct ServeAcc {
    passes: u64,
    batches: u64,
    factored: u64,
    requests: u64,
    rejected: u64,
    /// Cache counters at the start of the traced phase.
    start: Option<CacheStats>,
    /// Summed `process` call time, in seconds.
    process_s: f64,
    /// Task queue delay histogram (count, mean) at the phase start.
    queue_start: (f64, f64),
}

pub struct Serve {
    rng: StdRng,
    /// The registered matrices, as the benchmark last registered them.
    mats: Vec<Matrix>,
    zipf_cdf: Vec<f64>,
    live: Option<Live>,
    acc: ServeAcc,
    /// The tracer time the traced phase began.
    traced_from: Option<f64>,
}

/// One round's inputs, generated before the clock starts.
struct RoundInput {
    write: Option<(usize, Matrix)>,
    reqs: Vec<(usize, Vec<f64>)>,
    /// A copy of each right-hand side for the check, made untimed.
    kept: Vec<Vec<f64>>,
}

impl RoundInput {
    fn new(write: Option<(usize, Matrix)>, reqs: Vec<(usize, Vec<f64>)>) -> Self {
        let kept = reqs.iter().map(|(_, b)| b.clone()).collect();
        Self { write, reqs, kept }
    }
}

/// One answered request.
struct Answer {
    id: usize,
    rhs: Vec<f64>,
    /// Submit and completion times on the tracer's clock.
    submitted: f64,
    completed: f64,
    result: Result<Vec<f64>, String>,
}

/// What the timed part of a round returned.
struct RoundOutput {
    done: Vec<Answer>,
    rejected: u64,
    batches: usize,
    factored: usize,
    process: (f64, f64),
}

/// The task queue delay histogram's count, mean and p99, in seconds.
fn queue_hist(svc: &SolverService) -> (f64, f64, f64) {
    let snap = svc.metrics_snapshot();
    let h = snap.get("histograms").and_then(|h| h.get("serve.task_queue_delay_s"));
    let f = |k: &str| h.and_then(|h| h.get(k)).and_then(JsonValue::as_f64).unwrap_or(0.0);
    (f("count"), f("mean"), f("p99"))
}

impl Serve {
    pub fn new(mut rng: StdRng) -> Self {
        let mats = (0..MATRICES).map(|_| gen::randn(&mut rng, N, N)).collect();
        let weights: Vec<f64> = (1..=MATRICES).map(|k| (k as f64).powf(-ZIPF_S)).collect();
        let total: f64 = weights.iter().sum();
        let zipf_cdf = weights
            .iter()
            .scan(0.0, |acc, w| {
                *acc += w / total;
                Some(*acc)
            })
            .collect();
        Self { rng, mats, zipf_cdf, live: None, acc: ServeAcc::default(), traced_from: None }
    }

    fn zipf(&mut self) -> usize {
        let u: f64 = self.rng.gen();
        self.zipf_cdf.iter().position(|&c| u < c).unwrap_or(MATRICES - 1)
    }

    /// A fresh service with every matrix registered and factored; returns
    /// it with the seconds spent in program calls.
    fn fresh(&mut self, executor: ExecutorKind, tr: &Tracer, chk: &mut Checker) -> (Live, f64) {
        let copies = self.mats.clone();
        let reqs: Vec<(usize, Vec<f64>)> =
            (0..MATRICES).map(|id| (id, gen::hpl_rhs(&mut self.rng, N))).collect();
        let t0 = tr.now();
        let mut live = Live { svc: SolverService::new(serve_opts(executor)), epoch: t0 };
        for (id, a) in copies.into_iter().enumerate() {
            live.svc.register(id as u64, a);
        }
        let out = run_round(&mut live.svc, RoundInput::new(None, reqs), tr);
        let t1 = tr.now();
        self.check(out, chk, &mut Vec::new());
        (live, t1 - t0)
    }

    /// Checks every request of a round outside the latency spans; pushes
    /// the latencies of the passed ones.
    fn check(&self, out: RoundOutput, chk: &mut Checker, lat: &mut Vec<f64>) {
        for _ in 0..out.rejected {
            chk.record(Err("request refused".into()));
        }
        for a in out.done {
            let outcome = a.result.and_then(|x| hpl(&self.mats[a.id], &x, &a.rhs));
            if chk.record(outcome) {
                lat.push(a.completed - a.submitted);
            }
        }
    }

    fn input(&mut self) -> RoundInput {
        let write = (self.rng.gen::<f64>() < WRITE_PROBABILITY).then(|| {
            let id = self.rng.gen_range(0..MATRICES);
            (id, gen::randn(&mut self.rng, N, N))
        });
        let reqs = (0..CLIENTS)
            .map(|_| {
                let id = self.zipf();
                (id, gen::hpl_rhs(&mut self.rng, N))
            })
            .collect();
        RoundInput::new(write, reqs)
    }
}

/// The timed part of a round: the write (if any), every submit, one
/// `process` pass and every take.
fn run_round(svc: &mut SolverService, input: RoundInput, tr: &Tracer) -> RoundOutput {
    let t0 = tr.now();
    if let Some((id, a)) = input.write {
        svc.register(id as u64, a);
    }
    let mut tickets = Vec::with_capacity(input.reqs.len());
    let mut rejected = 0;
    for ((id, b), kept) in input.reqs.into_iter().zip(input.kept) {
        let submitted = tr.now();
        match svc.submit(id as u64, b) {
            Ok(t) => tickets.push((id, kept, submitted, t)),
            Err(e) => {
                eprintln!("submit refused: {e}");
                rejected += 1;
            }
        }
    }
    let p0 = tr.now();
    let rep = svc.process();
    let p1 = tr.now();
    let done = tickets
        .into_iter()
        .map(|(id, rhs, submitted, t)| {
            let result = match svc.try_take(t) {
                Some(Ok(x)) => Ok(x),
                Some(Err(e)) => Err(format!("solve: {e}")),
                None => Err("ticket not completed by the pass".into()),
            };
            Answer { id, rhs, submitted, completed: tr.now(), result }
        })
        .collect();
    let t1 = tr.now();
    tr.span("submit", CORE, t0, p0);
    tr.span("SolverService::process", CORE, p0, p1);
    tr.span("try_take", CORE, p1, t1);
    RoundOutput { done, rejected, batches: rep.batches, factored: rep.factored, process: (p0, p1) }
}

/// Seconds of traced serve traffic behind [`layer_metrics`].
pub const LAYER_S: f64 = 4.0;

/// Drives the serve traffic from `seed` for [`LAYER_S`] seconds with
/// tracing on, every request checked into `chk`, and returns the
/// `core.serve` layer's metrics (the `serve.*` names) and the solve DAG's
/// per-category task metrics, per request. Its spans stay on a tracer of
/// its own, so the calling workload's span metrics and trace file hold
/// only its own operations.
pub fn layer_metrics(seed: u64, chk: &mut Checker) -> Vec<(String, f64)> {
    let mut w = Serve::new(StdRng::seed_from_u64(seed));
    let mut tr = Tracer::new();
    w.setup(&tr, chk);
    tr.enable();
    let traced = crate::run_phase(&mut w, LAYER_S, &tr, chk);
    let mut out = Vec::new();
    w.layers(&tr, &traced, chk, &mut out);
    let solve_cat = |name: &str| SOLVE_CATS.iter().any(|c| name.ends_with(&format!(".{c}")));
    out.retain(|(name, _)| name.starts_with("serve.") || solve_cat(name));
    out
}

impl Workload for Serve {
    fn params(&self) -> JsonValue {
        JsonValue::obj()
            .set("n", N)
            .set("nb", NB)
            .set("p", P)
            .set("matrices", MATRICES)
            .set("clients", CLIENTS)
            .set("write_probability", WRITE_PROBABILITY)
            .set("zipf_s", ZIPF_S)
            .set("lookahead", LOOKAHEAD)
            .set("panel_mode", "resident")
            .set("executor", "serial")
            .set("compared_executor", "threaded(2)")
            .set("max_batch", ServeOpts::default().max_batch)
            .set("rhs_block", ServeOpts::default().rhs_block)
    }

    fn largest_matrix_bytes(&self) -> u64 {
        (N * N * 8) as u64
    }

    fn tail_rule(&self) -> stats::TailRule {
        // A round's requests finish together, so the tail is a tail of
        // rounds. 64,000 requests per window hold 1,000 rounds, about 20
        // of them re-factoring after a write: p99 lands among those, not
        // on the edge between them and ordinary rounds.
        stats::TailRule { cap: 0.99, window: 64_000 }
    }

    fn rss_probe_ops(&self) -> u64 {
        // The service keeps every task span it records; later in the run
        // the doubling of that buffer, not the program, sets the reading.
        2_000
    }

    fn tile(&self) -> usize {
        NB
    }

    /// Set-up: the `register` calls plus the first `process` pass, which
    /// fills the factor cache.
    fn setup(&mut self, tr: &Tracer, chk: &mut Checker) -> f64 {
        let (live, t) = self.fresh(EXECUTOR, tr, chk);
        self.live = Some(live);
        t
    }

    fn round(&mut self, tr: &Tracer, chk: &mut Checker, lat: &mut Vec<f64>) -> f64 {
        let input = self.input();
        if let Some((id, a)) = &input.write {
            self.mats[*id] = a.clone();
        }
        let live = self.live.as_mut().expect("set up before the first round");
        if tr.on() && self.traced_from.is_none() {
            self.traced_from = Some(tr.now());
            self.acc.start = Some(live.svc.cache_stats());
            let (count, mean, _) = queue_hist(&live.svc);
            self.acc.queue_start = (count, mean);
        }
        let r0 = tr.now();
        let out = run_round(&mut live.svc, input, tr);
        let r1 = tr.now();
        if tr.on() {
            self.acc.passes += 1;
            self.acc.batches += out.batches as u64;
            self.acc.factored += out.factored as u64;
            self.acc.requests += (out.done.len() as u64) + out.rejected;
            self.acc.rejected += out.rejected;
            self.acc.process_s += out.process.1 - out.process.0;
        }
        let c0 = tr.now();
        self.check(out, chk, lat);
        tr.span("hpl_tests", STABILITY, c0, tr.now());
        tr.span("round", BENCH, r0, tr.now());
        r1 - r0
    }

    fn layers(
        &mut self,
        tr: &Tracer,
        traced: &Phase,
        chk: &mut Checker,
        out: &mut Vec<(String, f64)>,
    ) {
        let live = self.live.as_ref().expect("set up before the traced phase");
        let from = self.traced_from.expect("the traced phase ran at least one round");
        let ops = traced.ops as f64;
        let a = &self.acc;
        let per_1k = |v: u64| v as f64 * 1e3 / a.requests.max(1) as f64;

        // The service's spans of the traced phase, on the tracer's clock.
        let from_us = (from - live.epoch) * 1e6;
        let spans: Vec<_> = live.svc.spans().into_iter().filter(|s| s.ts_us >= from_us).collect();
        tr.merge_spans(&spans, live.epoch);
        let is_solve = |cat: &str| cat.starts_with("solve_");
        let mut rt = RuntimeAcc::default();
        let (mut factor_ms, mut solve_ms) = (0.0, 0.0);
        let (mut passes, mut tasks) = (Vec::new(), Vec::new());
        for s in &spans {
            if s.cat == "serve" {
                passes.push(span_interval_ns(s));
                continue;
            }
            rt.add_task(s.cat, s.dur_us / 1e6);
            tasks.push(span_interval_ns(s));
            if is_solve(s.cat) {
                solve_ms += s.dur_us / 1e3;
            } else {
                factor_ms += s.dur_us / 1e3;
            }
        }
        // Per pass: the critical path of the tasks it ran. The passes'
        // self time is their span minus the tasks they ran (passes are
        // sequential, so their spans do not overlap).
        tasks.sort_unstable();
        for &(s, e) in &passes {
            let first = tasks.partition_point(|&(ts, _)| ts < s);
            let last = tasks.partition_point(|&(ts, _)| ts <= e);
            rt.cp_s += longest_chain_ns(&tasks[first..last]) as f64 / 1e9;
        }
        let pass_union = merge_intervals(&passes);
        let covered: u64 = pass_union.iter().map(|(s, e)| e - s).sum();
        let self_ns = covered - intersection_ns(&pass_union, &merge_intervals(&tasks));
        rt.busy_s = rt.cats.values().map(|(s, _)| s).sum();
        rt.capacity_s = a.process_s;
        // Every executor call's start-up lands in the pass's self time.
        rt.calls = a.batches + a.factored;
        rt.entry_overhead_s = self_ns as f64 / 1e9;
        let (count, mean, p99) = queue_hist(&live.svc);
        let (c0, m0) = a.queue_start;
        rt.queue_summary = Some((count * mean - c0 * m0, p99));
        rt.metrics(ops, out);

        let stats = live.svc.cache_stats();
        let start = a.start.expect("cache counters taken at the phase start");
        let (hits, misses) = (stats.hits - start.hits, stats.misses - start.misses);
        let passes_n = a.passes.max(1) as f64;
        out.extend([
            ("serve.cache_hit_ratio".into(), hits as f64 / (hits + misses).max(1) as f64),
            ("serve.refactors".into(), per_1k(a.factored)),
            ("serve.evictions".into(), per_1k(stats.evictions - start.evictions)),
            ("serve.rejected".into(), per_1k(a.rejected)),
            ("serve.batches_per_pass".into(), a.batches as f64 / passes_n),
            ("serve.mean_batch".into(), traced.ops as f64 / a.batches.max(1) as f64),
            (
                "serve.factor_ms".into(),
                if a.factored == 0 { 0.0 } else { factor_ms / a.factored as f64 },
            ),
            ("serve.solve_ms".into(), solve_ms / passes_n),
            ("serve.process_self_ms".into(), self_ns as f64 / 1e6 / passes_n),
            (
                "core.gflops".into(),
                (a.factored as f64 * flops_lu(N, N) + ops * solve_flops(N)) / a.process_s / 1e9,
            ),
        ]);

        // The threaded executor against the serial one on the same read
        // traffic, alternated round by round so both see the same host
        // load.
        let quiet = Tracer::new();
        let (mut threaded, _) = self.fresh(COMPARED, &quiet, chk);
        let mut serial = self.live.take().expect("set up before the traced phase");
        let (mut t_serial, mut t_threaded, mut n_serial, mut n_threaded) =
            (0.0, 0.0, 0usize, 0usize);
        while t_serial < BASELINE_S || t_threaded < BASELINE_S {
            for (live, t, n) in [
                (&mut serial, &mut t_serial, &mut n_serial),
                (&mut threaded, &mut t_threaded, &mut n_threaded),
            ] {
                let mut input = self.input();
                // Reads only: the comparison is between executors.
                input.write = None;
                let r0 = quiet.now();
                let out = run_round(&mut live.svc, input, &quiet);
                *t += quiet.now() - r0;
                *n += out.done.len();
                self.check(out, chk, &mut Vec::new());
            }
        }
        self.live = Some(serial);
        out.push((
            "serve.threaded_speedup".into(),
            (n_threaded as f64 / t_threaded) / (n_serial as f64 / t_serial),
        ));
    }
}
