//! The `factor` workload: one caller factors a fresh `randn` matrix on the
//! task-graph runtime and solves one right-hand side, in a closed loop.
//!
//! Why: the kernels and the panel tournament do most of the work (a
//! one-thread trace spends about half its time in `gemm` and a third in
//! panel phases); no cache and no communicator is involved. It is the
//! workload a faster `gemm` micro-kernel should move most.
//!
//! Its traced run also drives the `serve` traffic for a few seconds, so
//! the `core.serve` layer, which sits on the same runtime, is measured by
//! a workload `BENCHMARK.json` lists (see `serve.rs` for why `serve` is not
//! one).

use crate::check::{hpl, Checker};
use crate::kernels::op_flops;
use crate::runtime_layer::RuntimeAcc;
use crate::spans::{Tracer, BENCH, CORE, STABILITY};
use crate::stats::median;
use crate::{stats, Phase, Workload};
use calu_core::{runtime_calu_factor, CaluOpts, PanelMode, RuntimeOpts};
use calu_matrix::{gen, Matrix};
use calu_netsim::machine::flops_lu;
use calu_obs::JsonValue;
use calu_runtime::ExecutorKind;
use rand::rngs::StdRng;
use rand::Rng;

const N: usize = 1024;
const NB: usize = 128;
const P: usize = 8;
const LOOKAHEAD: usize = 2;
const THREADS: usize = 2;

pub struct Factor {
    rng: StdRng,
    rt: RuntimeAcc,
    /// Factorization call times of the traced phase, in seconds.
    factor_s: Vec<f64>,
    /// The last traced input, reused for the serial baseline.
    last: Option<(Matrix, Vec<f64>)>,
}

fn calu_opts() -> CaluOpts {
    CaluOpts { block: NB, p: P, panel_mode: PanelMode::Resident, ..Default::default() }
}

fn rt_opts(executor: ExecutorKind) -> RuntimeOpts {
    RuntimeOpts { lookahead: LOOKAHEAD, executor, ..Default::default() }
}

impl Factor {
    pub fn new(rng: StdRng) -> Self {
        Self { rng, rt: RuntimeAcc::default(), factor_s: Vec::new(), last: None }
    }

    /// Factors and solves one system; returns the seconds spent in program
    /// calls and the check's outcome.
    fn op(
        &mut self,
        a: &Matrix,
        b: &[f64],
        executor: ExecutorKind,
        tr: &Tracer,
    ) -> (f64, Result<(), String>) {
        let t0 = tr.now();
        let (f, rep) = match runtime_calu_factor(a, calu_opts(), rt_opts(executor)) {
            Ok(r) => r,
            Err(e) => return (tr.now() - t0, Err(format!("factorization: {e}"))),
        };
        let t1 = tr.now();
        let x = f.solve(b);
        let t2 = tr.now();
        let outcome = hpl(a, &x, b);
        if tr.on() {
            let t3 = tr.now();
            tr.span("runtime_calu_factor", CORE, t0, t1);
            tr.merge_report(&rep, t1);
            tr.span("LuFactors::solve", CORE, t1, t2);
            tr.span("hpl_tests", STABILITY, t2, t3);
            tr.span("op", BENCH, t0, t3);
            self.rt.add_report(&rep, t1 - t0);
            self.factor_s.push(t1 - t0);
        }
        (t2 - t0, outcome)
    }

    fn input(&mut self) -> (Matrix, Vec<f64>) {
        (gen::randn(&mut self.rng, N, N), gen::hpl_rhs(&mut self.rng, N))
    }
}

impl Workload for Factor {
    fn params(&self) -> JsonValue {
        JsonValue::obj()
            .set("n", N)
            .set("nb", NB)
            .set("p", P)
            .set("lookahead", LOOKAHEAD)
            .set("panel_mode", "resident")
            .set("executor", format!("threaded({THREADS})"))
            .set("flops_per_op", op_flops(N))
    }

    fn largest_matrix_bytes(&self) -> u64 {
        (N * N * 8) as u64
    }

    fn setup(&mut self, tr: &Tracer, chk: &mut Checker) -> f64 {
        let (a, b) = self.input();
        let (t, outcome) = self.op(&a, &b, ExecutorKind::Threaded { threads: THREADS }, tr);
        chk.record(outcome);
        t
    }

    fn round(&mut self, tr: &Tracer, chk: &mut Checker, lat: &mut Vec<f64>) -> f64 {
        let (a, b) = self.input();
        let (t, outcome) = self.op(&a, &b, ExecutorKind::Threaded { threads: THREADS }, tr);
        if chk.record(outcome) {
            lat.push(t);
        }
        if tr.on() {
            self.last = Some((a, b));
        }
        t
    }

    fn layers(
        &mut self,
        _tr: &Tracer,
        traced: &Phase,
        chk: &mut Checker,
        out: &mut Vec<(String, f64)>,
    ) {
        self.rt.metrics(traced.ops as f64, out);
        out.push(("core.gflops".into(), flops_lu(N, N) / median(&self.factor_s) / 1e9));
        // The plain single-thread baseline on the same input, alternated
        // with the threaded executor so both see the same host load.
        let (a, b) = self.last.take().expect("the traced phase ran at least one operation");
        let (mut serial, mut threaded) = (Vec::new(), Vec::new());
        let quiet = Tracer::new();
        for _ in 0..2 {
            for (executor, times) in [
                (ExecutorKind::Serial, &mut serial),
                (ExecutorKind::Threaded { threads: THREADS }, &mut threaded),
            ] {
                let (t, outcome) = self.op(&a, &b, executor, &quiet);
                chk.record(outcome);
                times.push(t);
            }
        }
        out.push(("runtime.speedup_vs_serial".into(), median(&serial) / median(&threaded)));
        out.extend(crate::serve::layer_metrics(self.rng.gen(), chk));
    }

    fn tail_rule(&self) -> stats::TailRule {
        // In a window of 50 operations p80 is the highest percentile with
        // ten beyond; a run holds four or five windows.
        stats::TailRule { cap: 0.8, window: 50 }
    }

    fn rss_probe_ops(&self) -> u64 {
        100
    }

    fn tile(&self) -> usize {
        NB
    }
}
