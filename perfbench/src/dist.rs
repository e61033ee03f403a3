//! The `dist` workload: one caller runs runtime-driven distributed CALU on
//! a 2×1 grid of rank threads over the threaded communicator, then solves
//! one right-hand side with the assembled factors, in a closed loop.
//!
//! Why: the communicator and the distributed task bodies do most of the
//! work (each operation sends about nine thousand messages, almost all of
//! them cross-owner pivot-row swaps); the executor pool and the serve
//! cache are not used. It is the workload on which a persistent scheduler
//! should change nothing, and the one that shows communication.

use crate::check::{hpl, Checker};
use crate::kernels::op_flops;
use crate::runtime_layer::RuntimeAcc;
use crate::spans::{Tracer, BENCH, CORE, STABILITY};
use crate::stats::median;
use crate::{stats, Phase, Workload};
use calu_core::dist::DistCaluConfig;
use calu_core::{dist_calu_factor_rt, CommKind, DistRtOpts, DistRtReport, LocalLu, LuFactors};
use calu_matrix::{gen, Matrix};
use calu_netsim::machine::flops_lu;
use calu_netsim::MachineConfig;
use calu_obs::{JsonValue, Profile, ProfileInputs};
use calu_runtime::ExecutorKind;
use rand::rngs::StdRng;
use std::collections::BTreeMap;

const N: usize = 768;
const B: usize = 64;
const GRID: (usize, usize) = (2, 1);
const LOOKAHEAD: usize = 2;

pub struct Dist {
    rng: StdRng,
    rt: RuntimeAcc,
    /// Distributed call times of the traced phase, in seconds.
    factor_s: Vec<f64>,
    /// Per ledger term: messages, words and blocked-fetch seconds.
    comm: BTreeMap<&'static str, (u64, u64, f64)>,
    /// Profile partition totals: compute, comm wait, overhead, idle (ns).
    partition: [u64; 4],
    /// Measured over modeled critical path, summed over operations.
    cp_ratio: f64,
    last: Option<(Matrix, Vec<f64>)>,
}

fn config() -> DistCaluConfig {
    DistCaluConfig { b: B, pr: GRID.0, pc: GRID.1, local: LocalLu::Recursive }
}

/// The measured configuration: ranks as OS threads, which replace the
/// executor (its field is ignored under this communicator).
const THREADED: DistRtOpts = DistRtOpts {
    lookahead: LOOKAHEAD,
    executor: ExecutorKind::Serial,
    communicator: CommKind::Threaded,
};
/// The plain single-thread baseline: in-process mailbox, serial executor.
const SERIAL: DistRtOpts = DistRtOpts {
    lookahead: LOOKAHEAD,
    executor: ExecutorKind::Serial,
    communicator: CommKind::InProcess,
};

/// The run's own consistency checks: no singular pivot, and every ledger
/// term the exact predictor covers measured exactly as predicted.
fn ledger_exact(rep: &DistRtReport, first_singular: Option<usize>) -> Result<(), String> {
    if let Some(step) = first_singular {
        return Err(format!("singular pivot at step {step}"));
    }
    match rep.mailbox_deltas().into_iter().find(|d| d.source == "mailbox_exact" && !d.exact()) {
        Some(d) => Err(format!(
            "ledger term {}: measured {:?} != exact {:?}",
            d.term, d.measured, d.expected
        )),
        None => Ok(()),
    }
}

impl Dist {
    pub fn new(rng: StdRng) -> Self {
        Self {
            rng,
            rt: RuntimeAcc::default(),
            factor_s: Vec::new(),
            comm: BTreeMap::new(),
            partition: [0; 4],
            cp_ratio: 0.0,
            last: None,
        }
    }

    fn input(&mut self) -> (Matrix, Vec<f64>) {
        (gen::randn(&mut self.rng, N, N), gen::hpl_rhs(&mut self.rng, N))
    }

    /// Factors and solves one system; returns the seconds spent in program
    /// calls and the checks' outcome.
    fn op(
        &mut self,
        a: &Matrix,
        b: &[f64],
        opts: DistRtOpts,
        tr: &Tracer,
    ) -> (f64, Result<(), String>) {
        let t0 = tr.now();
        let (rep, d) = dist_calu_factor_rt(a, config(), opts, MachineConfig::power5());
        let t1 = tr.now();
        let first_singular = d.first_singular;
        let f = LuFactors { lu: d.lu, ipiv: d.ipiv };
        let x = f.solve(b);
        let t2 = tr.now();
        let outcome = ledger_exact(&rep, first_singular).and_then(|()| hpl(a, &x, b));
        if tr.on() {
            let t3 = tr.now();
            tr.span("dist_calu_factor_rt", CORE, t0, t1);
            tr.merge_spans(&rep.spans, t1 - rep.exec.wall);
            tr.span("LuFactors::solve", CORE, t1, t2);
            tr.span("checks", STABILITY, t2, t3);
            tr.span("op", BENCH, t0, t3);
            self.observe(&rep, t1 - t0);
        }
        (t2 - t0, outcome)
    }

    fn observe(&mut self, rep: &DistRtReport, call_s: f64) {
        self.rt.add_report(&rep.exec, call_s);
        self.factor_s.push(call_s);
        let waits: BTreeMap<&str, u64> = rep.comm.wait_term_totals().into_iter().collect();
        for (term, c) in rep.comm.term_totals() {
            let e = self.comm.entry(term).or_default();
            e.0 += c.msgs;
            e.1 += c.words;
            e.2 += waits.get(term).copied().unwrap_or(0) as f64 / 1e9;
        }
        let lane_waits: Vec<((u32, u32), u64)> =
            rep.comm.wait_rank_totals().into_iter().map(|(r, ns)| ((r, r), ns)).collect();
        let overheads = rep.exec.queue_delay_ns_by_lane();
        let profile = Profile::build(
            &rep.spans,
            ProfileInputs {
                wall_s: rep.exec.wall,
                comm_wait_ns: &lane_waits,
                overhead_ns: &overheads,
            },
        );
        for w in &profile.workers {
            for (slot, v) in self.partition.iter_mut().zip([
                w.compute_ns,
                w.comm_wait_ns,
                w.overhead_ns,
                w.idle_ns,
            ]) {
                *slot += v;
            }
        }
        self.cp_ratio += profile.measured_cp_ns as f64 / 1e9 / rep.critical_path;
    }
}

impl Workload for Dist {
    fn params(&self) -> JsonValue {
        JsonValue::obj()
            .set("n", N)
            .set("b", B)
            .set("grid", format!("{}x{}", GRID.0, GRID.1))
            .set("lookahead", LOOKAHEAD)
            .set("communicator", CommKind::Threaded.label())
            .set("modeled_machine", "power5")
            .set("flops_per_op", op_flops(N))
    }

    fn largest_matrix_bytes(&self) -> u64 {
        (N * N * 8) as u64
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
        B
    }

    fn setup(&mut self, tr: &Tracer, chk: &mut Checker) -> f64 {
        let (a, b) = self.input();
        let (t, outcome) = self.op(&a, &b, THREADED, tr);
        chk.record(outcome);
        t
    }

    fn round(&mut self, tr: &Tracer, chk: &mut Checker, lat: &mut Vec<f64>) -> f64 {
        let (a, b) = self.input();
        let (t, outcome) = self.op(&a, &b, THREADED, tr);
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
        let ops = traced.ops as f64;
        self.rt.metrics(ops, out);
        out.push(("core.gflops".into(), flops_lu(N, N) / median(&self.factor_s) / 1e9));
        for (term, (msgs, words, wait_s)) in &self.comm {
            out.push((format!("comm.msgs.{term}"), *msgs as f64 / ops));
            out.push((format!("comm.words.{term}"), *words as f64 / ops));
            out.push((format!("comm.wait_ms.{term}"), wait_s * 1e3 / ops));
        }
        for (name, ns) in
            ["compute_ms", "comm_wait_ms", "overhead_ms", "idle_ms"].iter().zip(self.partition)
        {
            out.push((format!("dist.{name}"), ns as f64 / 1e6 / ops));
        }
        out.push((
            "dist.measured_vs_modeled_cp".into(),
            self.cp_ratio / self.factor_s.len() as f64,
        ));
        let (a, b) = self.last.take().expect("the traced phase ran at least one operation");
        let (mut serial, mut threaded) = (Vec::new(), Vec::new());
        let quiet = Tracer::new();
        for _ in 0..2 {
            for (opts, times) in [(SERIAL, &mut serial), (THREADED, &mut threaded)] {
                let (t, outcome) = self.op(&a, &b, opts, &quiet);
                chk.record(outcome);
                times.push(t);
            }
        }
        out.push(("runtime.speedup_vs_serial".into(), median(&serial) / median(&threaded)));
    }
}
