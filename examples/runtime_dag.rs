//! The task-graph runtime, made visible: builds the LU dependency DAG for
//! a small factorization, prints the deterministic critical-path-first
//! schedule the serial executor replays, shows how lookahead depth changes
//! the modeled critical path, then runs the threaded executor on real data
//! and renders the per-worker Gantt chart with the netsim tracer.
//!
//! Run: `cargo run --release --example runtime_dag`

use calu_repro::core::{calu_factor, runtime_calu_factor, CaluOpts, PanelMode, RuntimeOpts};
use calu_repro::matrix::{gen, Matrix};
use calu_repro::netsim::{render_gantt, MachineConfig};
use calu_repro::runtime::{modeled_time, ExecutorKind, LuDag, LuShape, Task};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let (m, n, nb) = (256usize, 256usize, 64usize);
    let shape = LuShape { m, n, nb };

    // --- 1. The DAG itself.
    let dag = LuDag::build(shape, 2);
    let (mut elects, mut reduces, mut finishes, mut applies) = (0, 0, 0, 0);
    let (mut swaps, mut trsms, mut gemms) = (0, 0, 0);
    for t in dag.tasks() {
        match t {
            Task::PanelElect { .. } => elects += 1,
            Task::PanelReduce { .. } => reduces += 1,
            Task::PanelFinish { .. } => finishes += 1,
            Task::PanelApply { .. } => applies += 1,
            Task::Swap { .. } => swaps += 1,
            Task::Trsm { .. } => trsms += 1,
            Task::Gemm { .. } => gemms += 1,
            Task::Dist(_) | Task::Solve(_) => {
                unreachable!("factorization DAGs emit no dist/solve tasks")
            }
        }
    }
    println!("LU task DAG for {m}x{n}, nb={nb}, lookahead depth 2");
    println!("  {} tasks: {swaps} Swap, {trsms} Trsm, {gemms} Gemm", dag.len());
    println!(
        "  panel subgraph: {elects} PanelElect, {reduces} PanelReduce, {finishes} PanelFinish, \
         {applies} PanelApply\n"
    );

    // --- 2. The deterministic serial schedule (what SerialExecutor replays).
    println!("serial critical-path-first schedule:");
    let order = dag.serial_schedule();
    let line: Vec<String> = order.iter().map(|&id| dag.tasks()[id].to_string()).collect();
    for chunk in line.chunks(6) {
        println!("  {}", chunk.join("  "));
    }

    // --- 3. Lookahead depth vs. modeled critical path (POWER5 kernel rates).
    let mch = MachineConfig::power5();
    println!("\nmodeled critical path vs. lookahead depth (POWER5 γ rates):");
    let total = dag.total_cost(|t| modeled_time(&shape, t, &mch));
    println!("  one worker (sum of tasks): {:>9.3} ms", total * 1e3);
    for depth in 1..=4 {
        let d = LuDag::build(shape, depth);
        let cp = d.critical_path(|t| modeled_time(&shape, t, &mch));
        println!(
            "  depth {depth}: critical path {:>9.3} ms  (parallelism {:.2}x)",
            cp * 1e3,
            total / cp
        );
    }

    // --- 4. A real run on the threaded executor, traced.
    let mut rng = StdRng::seed_from_u64(7);
    let a: Matrix = gen::randn(&mut rng, m, n);
    let opts = CaluOpts { block: nb, panel_mode: PanelMode::Resident, ..Default::default() };
    let rt = RuntimeOpts { lookahead: 2, executor: ExecutorKind::Threaded { threads: 0 } };
    let (f, report) = runtime_calu_factor(&a, opts, rt).expect("factorization succeeds");
    let seq = calu_factor(&a, opts).expect("sequential reference succeeds");
    assert_eq!(
        seq.lu.max_abs_diff(&f.lu),
        0.0,
        "runtime factors must be bitwise identical to sequential CALU"
    );

    println!(
        "\nthreaded run: {} workers, {:.3} ms wall, {:.3} ms busy ({} tasks)",
        report.workers,
        report.wall * 1e3,
        report.busy() * 1e3,
        report.order.len()
    );
    println!("{}", render_gantt(&report.traces(), 100));
    println!("factors verified bitwise identical to sequential CALU.");
}
