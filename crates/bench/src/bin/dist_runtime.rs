//! Distributed-runtime performance record: the `core::dist` layer driven
//! through the per-rank `calu-runtime` DAG, written as `BENCH_dist.json`.
//!
//! Two sections, because the container running CI may be single-core:
//!
//! * **modeled** (host-independent — the acceptance evidence): for each
//!   grid, the distributed DAG at lookahead depths 1-3 under the POWER5
//!   α-β-γ cost model. Per depth it records the infinite-parallelism
//!   critical path and the per-rank list-scheduled makespan; the
//!   `lookahead_win` column is `makespan(d=1) / makespan(d)` — the
//!   schedule-quality win of making lookahead a real parameter of the
//!   distributed algorithm (depth 1 reproduces the SPMD loop's coupling).
//! * **measured**: wall-clock of the real-data DAG execution (serial vs.
//!   threaded executor) on the host, with the factors asserted **bitwise
//!   identical** to the pre-refactor SPMD reference on every run. When
//!   `available_parallelism` reports one core the JSON carries
//!   `"measured_speedup_valid": false` — executor overhead is not a
//!   parallel win (see EXPERIMENTS.md).
//!
//! Usage: `dist_runtime [--n N] [--nb NB] [--model-n N] [--model-nb NB]
//! [--reps R] [--communicator in_process|threaded] [--out PATH]
//! [--trace-out PATH]` (defaults: n=512, nb=64, model-n=2000,
//! model-nb=50, reps=1, communicator=in_process, out=BENCH_dist.json).
//! Both communicators run the same rank task bodies and send the same
//! messages: `in_process` drives one DAG for the whole grid through the
//! executor, `threaded` runs every rank as an OS thread.

use calu_bench::{write_record, HostInfo};
use calu_core::dist::{dist_calu_factor_spmd, DistCaluConfig};
use calu_core::{dist_calu_factor_rt, CommKind, DistRtOpts, LocalLu};
use calu_matrix::{gen, Matrix};
use calu_netsim::MachineConfig;
use calu_obs::analyze::{dag_span_chain_ns, intervals_ns, measured_phase_ns, reconcile_phases};
use calu_obs::{JsonValue, Profile, ProfileInputs};
use calu_runtime::{
    simulate_dist_schedule, DistCostModel, DistGeom, DistPanelAlg, ExecutorKind, LuDag, LuShape,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::time::Instant;

struct Args {
    n: usize,
    nb: usize,
    model_n: usize,
    model_nb: usize,
    reps: usize,
    communicator: CommKind,
    out: String,
    trace_out: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        n: 512,
        nb: 64,
        model_n: 2000,
        model_nb: 50,
        reps: 1,
        communicator: CommKind::InProcess,
        out: "BENCH_dist.json".into(),
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
            "--model-n" => args.model_n = parsed(val()),
            "--model-nb" => args.model_nb = parsed(val()),
            "--reps" => args.reps = parsed(val()),
            "--communicator" => {
                let v = val();
                args.communicator = CommKind::parse(&v).unwrap_or_else(|| {
                    eprintln!("unknown communicator {v:?} (in_process | threaded); try --help");
                    std::process::exit(2);
                });
            }
            "--out" => args.out = val(),
            "--trace-out" => args.trace_out = Some(val()),
            "--help" | "-h" => {
                eprintln!(
                    "usage: dist_runtime [--n N] [--nb NB] [--model-n N] [--model-nb NB] \
                     [--reps R] [--communicator in_process|threaded] [--out PATH] \
                     [--trace-out PATH]\n\n\
                     --communicator picks the driver of the measured 'threaded' column; both \
                     run the same rank task bodies\n\
                     and send the same messages. in_process (default): one DAG for the whole \
                     grid on the threaded\n\
                     executor. threaded: every rank an OS thread running its share of the \
                     DAG's serial schedule."
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

struct ModelRow {
    depth: usize,
    tasks: usize,
    cp_s: f64,
    makespan_s: f64,
}

struct MeasuredRow {
    depth: usize,
    serial_s: f64,
    threaded_s: f64,
}

fn best_of<F: FnMut() -> f64>(reps: usize, mut f: F) -> f64 {
    (0..reps.max(1)).map(|_| f()).fold(f64::INFINITY, f64::min)
}

fn main() {
    let args = parse_args();
    let host = HostInfo::detect(0);
    let host_threads = host.host_threads;
    let mch = MachineConfig::power5();
    let grids: [(usize, usize); 3] = [(2, 2), (2, 4), (4, 4)];

    // --- Modeled section: lookahead over grids at paper-ish scale.
    let (mn, mb) = (args.model_n, args.model_nb);
    println!("dist_runtime: modeled {mn}x{mn}, b={mb} on the {} model", mch.name);
    println!(
        "{:>6} {:>5} {:>7} {:>12} {:>12} {:>9}",
        "grid", "depth", "tasks", "model CP", "model mksp", "la win"
    );
    let mut modeled: Vec<((usize, usize), Vec<ModelRow>)> = Vec::new();
    for &(pr, pc) in &grids {
        let shape = LuShape { m: mn, n: mn, nb: mb };
        let model = DistCostModel {
            geom: DistGeom { shape, pr, pc },
            alg: DistPanelAlg::Tslu,
            recursive_panel: true,
            mch: mch.clone(),
        };
        let mut rows = Vec::new();
        for depth in [1usize, 2, 3] {
            let dag = LuDag::build_dist(shape, (pr, pc), depth);
            let cp_s = dag.critical_path(|t| model.cost(t).total(&mch));
            let makespan_s = simulate_dist_schedule(&dag, |t| model.cost(t), &mch).makespan;
            rows.push(ModelRow { depth, tasks: dag.len(), cp_s, makespan_s });
        }
        let base = rows[0].makespan_s;
        for r in &rows {
            println!(
                "{:>6} {:>5} {:>7} {:>10.2}ms {:>10.2}ms {:>8.3}x",
                format!("{pr}x{pc}"),
                r.depth,
                r.tasks,
                r.cp_s * 1e3,
                r.makespan_s * 1e3,
                base / r.makespan_s
            );
        }
        modeled.push(((pr, pc), rows));
    }
    let best_win = modeled
        .iter()
        .flat_map(|(g, rows)| {
            let base = rows[0].makespan_s;
            rows.iter().filter(|r| r.depth >= 2).map(move |r| (*g, r.depth, base / r.makespan_s))
        })
        .max_by(|a, b| a.2.total_cmp(&b.2))
        .expect("modeled rows non-empty");
    println!(
        "\nbest modeled lookahead win: {:.3}x at depth {} on {}x{}",
        best_win.2, best_win.1, best_win.0 .0, best_win.0 .1
    );

    // --- Measured section: real-data execution, bitwise-checked.
    let (n, nb) = (args.n, args.nb);
    let (pr, pc) = (2usize, 2usize);
    let mut rng = StdRng::seed_from_u64(2026);
    let a: Matrix = gen::randn(&mut rng, n, n);
    let cfg = DistCaluConfig { b: nb, pr, pc, local: LocalLu::Recursive };
    let (_rep, reference) = dist_calu_factor_spmd(&a, cfg, MachineConfig::ideal());
    let communicator = args.communicator;
    println!(
        "\nmeasured: {n}x{n}, b={nb}, grid {pr}x{pc}, communicator={}, host_threads={}, reps={}",
        communicator.label(),
        host_threads,
        args.reps
    );
    // Under the threaded communicator the per-rank DAGs run on one OS
    // thread per rank and the executor knob is moot, so the "threaded"
    // column is the rank-thread wall clock; the "serial" column stays the
    // in-process baseline either way.
    println!("{:>5} {:>12} {:>12} {:>9}", "depth", "serial", "threaded", "measured");
    let mut measured = Vec::new();
    for depth in [1usize, 2, 3] {
        let run = |executor: ExecutorKind, communicator: CommKind| {
            let rt = DistRtOpts { lookahead: depth, executor, communicator };
            let t0 = Instant::now();
            let (_rep, d) = dist_calu_factor_rt(&a, cfg, rt, MachineConfig::ideal());
            let dt = t0.elapsed().as_secs_f64();
            assert_eq!(d.ipiv, reference.ipiv, "DAG pivots must match the SPMD reference");
            assert_eq!(
                d.lu.max_abs_diff(&reference.lu),
                0.0,
                "DAG factors must be bitwise identical to the SPMD reference"
            );
            dt
        };
        let serial_s = best_of(args.reps, || run(ExecutorKind::Serial, CommKind::InProcess));
        let threaded_s =
            best_of(args.reps, || run(ExecutorKind::Threaded { threads: 0 }, communicator));
        println!(
            "{:>5} {:>10.1}ms {:>10.1}ms {:>8.2}x",
            depth,
            serial_s * 1e3,
            threaded_s * 1e3,
            serial_s / threaded_s
        );
        measured.push(MeasuredRow { depth, serial_s, threaded_s });
    }
    if !host.measured_speedup_valid {
        println!(
            "single-core host ({host_threads} thread): measured 'speedup' is executor overhead \
             only — the schedule-quality claim is the modeled lookahead win above"
        );
    }
    println!("factors bitwise-identical to the SPMD reference on every run ✓");

    // --- Comm-ledger reconciliation: one instrumented run on the measured
    // grid; every mailbox word the run actually moved, reconciled against
    // the exact predictor (asserted equal) and the paper's skeleton.
    let rt = DistRtOpts { lookahead: 2, executor: ExecutorKind::Serial, communicator };
    let (rep, _d) = dist_calu_factor_rt(&a, cfg, rt, MachineConfig::ideal());
    for d in rep.mailbox_deltas() {
        if d.source == "mailbox_exact" {
            assert!(
                d.exact(),
                "term {}: measured {:?} != exact prediction {:?}",
                d.term,
                d.measured,
                d.expected
            );
        }
    }
    println!(
        "comm ledger: {} msgs / {} words measured on {pr}x{pc}, exact-predictor terms all \
         reconcile to zero gap ✓",
        rep.comm.total().msgs,
        rep.comm.total().words
    );
    let comm = rep
        .comm
        .to_json(&rep.expected_mailbox)
        .set("skeleton", rep.skeleton_deltas().iter().map(|d| d.to_json()).collect::<JsonValue>());

    // --- Wait-state profile and measured critical path of the
    // instrumented run. The sum-to-wall partition is exact per worker
    // (Profile::build asserts it); the measured critical path is
    // sandwiched between the DAG's longest executed span chain and the
    // wall clock.
    let mshape = LuShape { m: n, n, nb };
    let mdag = LuDag::build_dist(mshape, (pr, pc), 2);
    let intervals = intervals_ns(&rep.spans);
    // Collectives execute once per participant under the threaded
    // communicator, so one DAG task may own several span instances; the
    // task-level edges fan out to all instance pairs and the analyzer
    // keeps the temporally consistent ones.
    let mut instances: HashMap<String, Vec<usize>> = HashMap::new();
    for (i, s) in rep.spans.iter().enumerate() {
        instances.entry(s.name.clone()).or_default().push(i);
    }
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for u in 0..mdag.len() {
        let Some(us) = instances.get(&mdag.tasks()[u].to_string()) else { continue };
        for &v in mdag.successors(u) {
            let Some(vs) = instances.get(&mdag.tasks()[v].to_string()) else { continue };
            for &iu in us {
                for &iv in vs {
                    edges.push((iu, iv));
                }
            }
        }
    }
    let dag_chain_ns = dag_span_chain_ns(&intervals, &edges);
    let waits: Vec<((u32, u32), u64)> =
        rep.comm.wait_rank_totals().into_iter().map(|(r, ns)| ((r, r), ns)).collect();
    let overheads = rep.exec.queue_delay_ns_by_lane();
    let profile = Profile::build(
        &rep.spans,
        ProfileInputs { wall_s: rep.exec.wall, comm_wait_ns: &waits, overhead_ns: &overheads },
    );
    assert!(profile.workers.iter().all(|w| w.partition_exact()), "sum-to-wall must be exact");
    assert!(
        dag_chain_ns <= profile.measured_cp_ns,
        "the DAG's longest executed span chain bounds the measured critical path from below"
    );
    assert!(
        profile.measured_cp_ns <= profile.wall_ns,
        "the measured critical path cannot exceed the wall clock"
    );
    // Model-vs-measured reconciliation against the POWER5 skeleton, per
    // phase (task category), not just totals; the headline ratio compares
    // measured chained-span seconds to the modeled critical path.
    let meas_model = DistCostModel {
        geom: DistGeom { shape: mshape, pr, pc },
        alg: DistPanelAlg::Tslu,
        recursive_panel: true,
        mch: mch.clone(),
    };
    let modeled_cp_s = mdag.critical_path(|t| meas_model.cost(t).total(&mch));
    let measured_vs_modeled_cp = (dag_chain_ns as f64 / 1e9) / modeled_cp_s;
    let mut modeled_phase: std::collections::BTreeMap<&'static str, f64> = Default::default();
    for id in 0..mdag.len() {
        let t = mdag.tasks()[id];
        *modeled_phase.entry(t.cat()).or_default() += meas_model.cost(t).total(&mch);
    }
    let modeled_phase: Vec<(String, f64)> =
        modeled_phase.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
    let phases = reconcile_phases(&measured_phase_ns(&rep.spans), &modeled_phase);
    println!(
        "profile: {} workers partition {:.2}ms of wall exactly; DAG span chain {:.2}ms <= \
         measured CP {:.2}ms <= wall, measured/modeled CP = {:.3}",
        profile.workers.len(),
        profile.wall_ns as f64 / 1e6,
        dag_chain_ns as f64 / 1e6,
        profile.measured_cp_ns as f64 / 1e6,
        measured_vs_modeled_cp
    );
    let profile_json = profile
        .to_json()
        .set("dag_span_chain_ns", dag_chain_ns)
        .set("dag_span_chain_s", dag_chain_ns as f64 / 1e9)
        .set("modeled_cp_s", modeled_cp_s)
        .set("measured_vs_modeled_cp", measured_vs_modeled_cp)
        .set("phases", phases.iter().map(|p| p.to_json()).collect::<JsonValue>());

    if let Some(path) = &args.trace_out {
        std::fs::write(path, calu_obs::chrome_trace(&rep.spans))
            .unwrap_or_else(|e| panic!("failed to write {path}: {e}"));
        println!("wrote {path} ({} spans)", rep.spans.len());
    }

    // --- JSON record.
    let modeled_json: JsonValue = modeled
        .iter()
        .map(|((pr, pc), rows)| {
            let base = rows[0].makespan_s;
            let rows_json: JsonValue = rows
                .iter()
                .map(|r| {
                    JsonValue::obj()
                        .set("depth", r.depth)
                        .set("tasks", r.tasks)
                        .set("modeled_cp_s", r.cp_s)
                        .set("modeled_makespan_s", r.makespan_s)
                        .set("lookahead_win", base / r.makespan_s)
                })
                .collect();
            JsonValue::obj()
                .set("grid", format!("{pr}x{pc}"))
                .set("m", mn)
                .set("b", mb)
                .set("rows", rows_json)
        })
        .collect();
    let measured_json: JsonValue = measured
        .iter()
        .map(|r| {
            JsonValue::obj()
                .set("depth", r.depth)
                .set("serial_s", r.serial_s)
                .set("threaded_s", r.threaded_s)
                .set("measured_speedup", r.serial_s / r.threaded_s)
        })
        .collect();
    let record = host
        .stamp(JsonValue::obj().set("bench", "dist_runtime").set("model", "power5"))
        .set("communicator", communicator.label())
        .set("bitwise_equal_to_spmd", true)
        .set(
            "best_modeled_lookahead_win",
            JsonValue::obj()
                .set("grid", format!("{}x{}", best_win.0 .0, best_win.0 .1))
                .set("depth", best_win.1)
                .set("win", best_win.2),
        )
        .set("modeled", modeled_json)
        .set(
            "measured",
            JsonValue::obj()
                .set("n", n)
                .set("b", nb)
                .set("grid", format!("{pr}x{pc}"))
                .set("communicator", communicator.label())
                .set("rows", measured_json),
        )
        .set("comm", comm)
        .set("profile", profile_json);
    write_record(&args.out, &record);
}
