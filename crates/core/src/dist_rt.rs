//! Runtime-driven distributed CALU / `PDGETRF`: each rank's per-step work
//! is emitted as a `calu-runtime` DAG ([`LuDag::build_dist`]), so
//! lookahead depth and critical-path scheduling — long available to the
//! shared-memory layer — apply to the distributed setting too.
//!
//! Every rank owns only its own block-cyclic [`TileMatrix`]; the task
//! bodies ([`crate::dist_threaded`]) touch that storage and nothing else,
//! and every cross-rank payload travels as a keyed `f64`-word message
//! through a [`ThreadedComm`] (`T ↔ f64` round trips are exact for every
//! [`Scalar`]). Two drivers run the same bodies and send the same
//! messages, selected by [`DistRtOpts::communicator`]:
//!
//! * [`CommKind::InProcess`] — one DAG for the whole grid, driven by
//!   [`DistRtOpts::executor`]; each task runs the body of its rank. The
//!   DAG's edges order every post before its fetches and are the proof
//!   that concurrently running tasks of one rank touch disjoint elements.
//! * [`CommKind::Threaded`] — every rank an OS thread running its
//!   projection of the DAG's serial schedule, with blocking fetches.
//!
//! Factors are **bitwise identical** on any schedule, any executor, any
//! lookahead depth, under both drivers: to the SPMD reference
//! [`dist_calu_factor_spmd`](crate::dist::dist_calu_factor_spmd) for
//! CALU, and to the sequential blocked [`calu_matrix::lapack::getrf`] for
//! `PDGETRF` — the property tests assert it.
//!
//! # Failure semantics
//!
//! A singular pivot (exactly zero, or non-finite) on any rank fails its
//! task; the run is canceled **across ranks** (no hang — under the
//! executor dependents never start, on rank threads every blocked fetch
//! returns [`Error::Canceled`]) and the driver surfaces the absolute
//! elimination step as [`DistFactors::first_singular`], matching the step
//! the sequential references error at. The canceled factors beyond that
//! step are untouched — the leading part is still meaningful.
//!
//! # Reports
//!
//! [`DistRtReport`] carries the measured side — the communication ledger
//! of every message the bodies sent, the wall-clock [`ExecReport`] and
//! task spans — next to the modeled side: the per-rank schedule
//! ([`simulate_dist_schedule`] under a [`DistCostModel`]) as netsim
//! [`RankTrace`]s, a synthesized [`SimReport`], and the exact and
//! skeleton traffic predictions the ledger reconciles against.

use crate::comm::{CommKind, ThreadedComm};
use crate::dist::{assemble_2d, DistCaluConfig, DistFactors, DistPdgetrfConfig};
use crate::dist_threaded::{participants, run_rank_threads, RankWorker};
use crate::tslu::LocalLu;
use calu_matrix::{Error, MatViewMut, Matrix, Scalar, TileLayout, TileMatrix};
use calu_netsim::{MachineConfig, RankTrace, SimReport};
use calu_obs::{CommDelta, CommLedger, CommLedgerReport, CommTerm, Recorder, Span};
use calu_runtime::{
    expected_mailbox_comm, modeled_comm_terms, simulate_dist_schedule, DistCostModel, DistGeom,
    DistPanelAlg, ExecReport, ExecutorKind, LuDag, LuShape, Task,
};

/// How a runtime-driven distributed factorization should execute.
#[derive(Debug, Clone, Copy)]
pub struct DistRtOpts {
    /// Panel lookahead depth `d ≥ 1` — for the first time a real parameter
    /// of the distributed algorithm (depth 1 reproduces the step-coupled
    /// schedule of the SPMD loop's data flow).
    pub lookahead: usize,
    /// Which executor drives the DAG. The serial executor replays the
    /// deterministic critical-path order; the threaded executor runs
    /// ranks' tasks concurrently (factors are bitwise identical either
    /// way). Under [`CommKind::Threaded`] the rank threads *are* the
    /// parallelism and this field is ignored.
    pub executor: ExecutorKind,
    /// Which driver runs the ranks' task bodies: [`CommKind::InProcess`]
    /// (one DAG for the whole grid under [`Self::executor`], the default)
    /// or [`CommKind::Threaded`] (every rank an OS thread). Both send the
    /// same messages; factors are bitwise identical under either.
    pub communicator: CommKind,
}

impl Default for DistRtOpts {
    fn default() -> Self {
        Self { lookahead: 1, executor: ExecutorKind::Serial, communicator: CommKind::InProcess }
    }
}

/// What a runtime-driven distributed factorization did: the modeled
/// per-rank communication schedule plus the real execution record.
#[derive(Debug, Clone)]
pub struct DistRtReport {
    /// Synthesized per-rank accounting (modeled compute / α / β / idle
    /// times, message and word counts) in `run_sim` report form.
    pub sim: SimReport,
    /// Modeled per-rank timelines — compute, communication, and idle of
    /// all ranks in one trace, ready for `calu_netsim::render_gantt`.
    pub traces: Vec<RankTrace>,
    /// Wall-clock record of the executor run (empty when a singular pivot
    /// canceled the run).
    pub exec: ExecReport,
    /// Modeled critical path of the DAG (infinite parallelism bound).
    pub critical_path: f64,
    /// Modeled makespan of the per-rank schedule (what the Gantt shows).
    pub makespan: f64,
    /// Task count of the DAG.
    pub tasks: usize,
    /// **Measured** communication ledger: every message arrival and
    /// cross-owner pivot-row exchange the task bodies actually performed,
    /// counted per rank and per term, plus the end-of-run drain counters
    /// (`drained_words` is nonzero on success — the lookahead eviction
    /// horizon keeps the last window's payloads alive; `residual_words`
    /// is the leak detector, always 0).
    pub comm: CommLedgerReport,
    /// **Exact** expected mailbox traffic of this DAG
    /// ([`expected_mailbox_comm`]): candidate counts simulated through the
    /// butterfly, broadcast payloads and the `PDGETF2` picket fence from
    /// geometry. The measured ledger
    /// equals it term-for-term — [`Self::mailbox_deltas`] asserts so in
    /// the reconciliation tests.
    pub expected_mailbox: Vec<CommTerm>,
    /// **First-order** skeleton predictions ([`modeled_comm_terms`]): the
    /// [`DistCostModel`] word/message counts the paper's closed forms
    /// price. [`Self::skeleton_deltas`] quantifies the gap to the wire.
    pub modeled_terms: Vec<CommTerm>,
    /// Wall-clock spans of every executed task (pid = rank, tid =
    /// worker, or the rank itself on rank threads), ready for [`calu_obs::chrome_trace`] export. On a
    /// canceled run (singular pivot) the tasks that completed before
    /// cancellation are still present.
    pub spans: Vec<Span>,
    /// [`CommKind::label`] of the driver that ran the bodies
    /// (`"in_process"` or `"threaded"`).
    pub communicator: &'static str,
}

impl DistRtReport {
    /// Measured mailbox ledger vs the exact predictor — every delta whose
    /// source is `"mailbox_exact"` is exact on a successful run; the
    /// `swap` term surfaces as unmodeled (its pivot-row exchanges are
    /// data-dependent).
    pub fn mailbox_deltas(&self) -> Vec<CommDelta> {
        self.comm.reconcile(&self.expected_mailbox)
    }

    /// Measured ledger vs the paper's skeleton: per-term word/message
    /// gaps quantifying how far the first-order closed forms sit from
    /// the wire (full-width TSLU payloads on ragged steps, modeled
    /// `panel_getf2`/`swap` rounds vs data-dependent reality).
    pub fn skeleton_deltas(&self) -> Vec<CommDelta> {
        self.comm.reconcile(&self.modeled_terms)
    }

    /// This report's headline numbers in the standard [`calu_obs::Metrics`]
    /// snapshot form (the same vocabulary `SolverService` reports in):
    /// mailbox drain counters, total words/messages, fetch-wait totals
    /// (overall and per ledger term), and a per-rank wait-seconds
    /// histogram. Deterministic for a deterministic report.
    pub fn metrics_snapshot(&self) -> calu_obs::JsonValue {
        let m = calu_obs::Metrics::new();
        m.counter_add("dist.tasks", self.tasks as u64);
        m.counter_add("dist.executed", self.exec.order.len() as u64);
        m.counter_add("dist.mailbox_drained_words", self.comm.drained_words);
        m.counter_add("dist.mailbox_residual_words", self.comm.residual_words);
        let total = self.comm.total();
        m.counter_add("dist.comm.words", total.words);
        m.counter_add("dist.comm.msgs", total.msgs);
        m.counter_add("dist.fetch_wait_ns", self.comm.wait_total_ns());
        for (term, nanos) in self.comm.wait_term_totals() {
            m.counter_add(&format!("dist.fetch_wait_ns.{term}"), nanos);
        }
        for (_rank, nanos) in self.comm.wait_rank_totals() {
            m.observe("dist.rank_fetch_wait_s", nanos as f64 / 1e9);
        }
        m.gauge_set("dist.workers", self.exec.workers as f64);
        m.gauge_set("dist.wall_s", self.exec.wall);
        m.snapshot()
    }
}

// ---------------------------------------------------------------------------
// Shared-mutable cells
// ---------------------------------------------------------------------------

/// Shared-mutable handle to one rank's local [`TileMatrix`] — the
/// per-rank counterpart of `rt`'s `SharedTiles`. On a rank thread one
/// thread runs every task that touches it; under the executor driver the
/// DAG's edges prove that concurrently running tasks of the rank touch
/// disjoint elements.
pub(crate) struct RankCell<T> {
    ptr: *mut T,
    pub(crate) lay: TileLayout,
}

unsafe impl<T: Send> Send for RankCell<T> {}
unsafe impl<T: Sync> Sync for RankCell<T> {}

impl<T: Scalar> RankCell<T> {
    pub(crate) fn new(a: &mut TileMatrix<T>) -> Self {
        Self { ptr: a.as_mut_slice().as_mut_ptr(), lay: a.layout() }
    }

    /// Local rows of this rank.
    pub(crate) fn rows(&self) -> usize {
        self.lay.rows()
    }

    /// # Safety
    /// The caller's task must hold (via DAG ordering) access to the
    /// element.
    pub(crate) unsafe fn get(&self, li: usize, lj: usize) -> T {
        unsafe { *self.ptr.add(self.lay.elem_offset(li, lj)) }
    }

    /// # Safety
    /// The caller's task must hold exclusive access to the element.
    pub(crate) unsafe fn set(&self, li: usize, lj: usize, v: T) {
        unsafe { *self.ptr.add(self.lay.elem_offset(li, lj)) = v };
    }

    /// Mutable view of the `nr × nc` block at `(i0, j0)` inside tile
    /// `(ti, tj)`; built from raw parts so logically disjoint blocks never
    /// materialize overlapping `&mut` slices.
    ///
    /// # Safety
    /// The caller's task must hold exclusive element access via DAG
    /// ordering, and the block must be in range of the tile.
    pub(crate) unsafe fn tile_block(
        &self,
        ti: usize,
        tj: usize,
        i0: usize,
        j0: usize,
        nr: usize,
        nc: usize,
    ) -> MatViewMut<'_, T> {
        let h = self.lay.tile_height(ti);
        debug_assert!(i0 + nr <= h && j0 + nc <= self.lay.tile_width(tj));
        let off = self.lay.tile_offset(ti, tj) + j0 * h + i0;
        unsafe { MatViewMut::from_raw_parts(self.ptr.add(off), nr, nc, h) }
    }
}

/// Shared pivot vector (the `rt` module's cell, re-stated): the
/// diagonal rank's panel task writes each step's slots exclusively;
/// nothing reads them until assembly.
pub(crate) struct IpivCell {
    pub(crate) ptr: *mut usize,
    pub(crate) len: usize,
}

unsafe impl Send for IpivCell {}
unsafe impl Sync for IpivCell {}

impl IpivCell {
    /// # Safety
    /// Only the designated panel task of the step owning `base..` may
    /// call this, and nothing else may access the range concurrently.
    pub(crate) unsafe fn publish(&self, base: usize, local: &[usize]) {
        debug_assert!(base + local.len() <= self.len);
        for (i, &p) in local.iter().enumerate() {
            unsafe { *self.ptr.add(base + i) = base + p };
        }
    }
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

/// Sets up the ranks, runs them under the selected driver, and assembles
/// the report and factors — one routine for both [`CommKind`]s.
#[allow(clippy::too_many_arguments)]
fn run_dist<T: Scalar>(
    a: &Matrix<T>,
    b: usize,
    pr: usize,
    pc: usize,
    local: LocalLu,
    alg: DistPanelAlg,
    rt: DistRtOpts,
    mch: &MachineConfig,
) -> (DistRtReport, DistFactors<T>) {
    let (m, n) = (a.rows(), a.cols());
    let kn = m.min(n);
    assert!(b > 0 && pr > 0 && pc > 0, "block and grid must be positive");
    let glayout = TileLayout::new(m, n, b, b).with_grid(pr, pc);
    let mut locals: Vec<TileMatrix<T>> = (0..pr * pc)
        .map(|rank| {
            let (prow, pcol) = (rank % pr, rank / pr);
            TileMatrix::from_fn(glayout.local_layout(prow, pcol), |li, lj| {
                a[(glayout.global_row(prow, li), glayout.global_col(pcol, lj))]
            })
        })
        .collect();
    let shape = LuShape { m, n, nb: b };
    let geom = DistGeom { shape, pr, pc };
    let dag = LuDag::build_dist_with(shape, (pr, pc), rt.lookahead, alg);
    let mut ipiv = vec![0usize; kn];
    let ipiv_cell = IpivCell { ptr: ipiv.as_mut_ptr(), len: kn };
    let comm = ThreadedComm::new(pr * pc);
    let ledger = CommLedger::new();
    let recorder = Recorder::new();
    let workers: Vec<RankWorker<'_, T>> = locals
        .iter_mut()
        .enumerate()
        .map(|(rank, mat)| RankWorker {
            rank,
            prow: rank % pr,
            pcol: rank / pr,
            geom,
            glayout,
            alg,
            local,
            lookahead: rt.lookahead,
            cell: RankCell::new(mat),
            comm: &comm,
            ledger: &ledger,
            ipiv: &ipiv_cell,
        })
        .collect();
    let (exec, first_singular) = match rt.communicator {
        CommKind::InProcess => {
            let runner = |task: Task| RankWorker::run(&workers[participants(task, pr)], task);
            match rt.executor.execute_traced(&dag, &runner, Some(&recorder)) {
                Ok(rep) => (rep, None),
                Err(Error::SingularPivot { step }) => (ExecReport::default(), Some(step)),
                Err(e) => panic!("unexpected distributed task failure: {e:?}"),
            }
        }
        CommKind::Threaded => run_rank_threads(&dag, &workers, &recorder),
    };
    drop(workers);

    // Success or cancellation, undelivered payloads end with the run: the
    // last lookahead window's on success, those posted for canceled
    // receivers otherwise.
    let drained = comm.drain();
    let residual = comm.residual_words();
    ledger.set_drain(drained as u64, residual as u64);
    if first_singular.is_none() {
        assert_eq!(residual, 0, "mailboxes leaked {residual} words after the drain");
    }
    // Per-(rank, term) blocked-fetch wait rows ride next to the word
    // counts they explain.
    for rank in 0..pr * pc {
        for (term, nanos) in comm.wait_ns(rank) {
            ledger.record_wait(rank as u32, term, nanos);
        }
    }

    let model = DistCostModel {
        geom,
        alg,
        recursive_panel: matches!(local, LocalLu::Recursive),
        mch: mch.clone(),
    };
    let sched = simulate_dist_schedule(&dag, |t| model.cost(t), mch);
    let report = DistRtReport {
        sim: SimReport { per_rank: sched.per_rank },
        traces: sched.traces,
        exec,
        critical_path: dag.critical_path(|t| model.cost(t).total(mch)),
        makespan: sched.makespan,
        tasks: dag.len(),
        comm: ledger.report(),
        expected_mailbox: expected_mailbox_comm(&dag, &geom, alg),
        modeled_terms: modeled_comm_terms(&dag, &model),
        spans: recorder.take(),
        communicator: rt.communicator.label(),
    };
    let lu = assemble_2d(glayout, &locals);
    (report, DistFactors { lu, ipiv, first_singular })
}

/// Runtime-driven 2D block-cyclic CALU: the per-rank step work of
/// [`dist_calu_factor_spmd`](crate::dist::dist_calu_factor_spmd) emitted
/// as a [`LuDag::build_dist`] task graph and run under either driver at
/// any lookahead depth. Factors and pivots are **bitwise identical** to
/// the SPMD reference on every schedule (property-tested); the report
/// carries the modeled per-rank communication schedule.
pub fn dist_calu_factor_rt<T: Scalar>(
    a: &Matrix<T>,
    cfg: DistCaluConfig,
    rt: DistRtOpts,
    mch: MachineConfig,
) -> (DistRtReport, DistFactors<T>) {
    run_dist(a, cfg.b, cfg.pr, cfg.pc, cfg.local, DistPanelAlg::Tslu, rt, &mch)
}

/// Runtime-driven ScaLAPACK-style `PDGETRF`: the `PDGETF2` panel runs as
/// one task per step over the panel's process column (faithful to its
/// column-coupled picket fence), while swaps and the trailing update get
/// the full per-column task treatment — so even the baseline gains real
/// lookahead. Factors stay bitwise identical to the sequential blocked
/// [`calu_matrix::lapack::getrf`].
pub fn dist_pdgetrf_factor_rt<T: Scalar>(
    a: &Matrix<T>,
    cfg: DistPdgetrfConfig,
    rt: DistRtOpts,
    mch: MachineConfig,
) -> (DistRtReport, DistFactors<T>) {
    run_dist(a, cfg.b, cfg.pr, cfg.pc, LocalLu::Classic, DistPanelAlg::Getf2, rt, &mch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::dist_calu_factor_spmd;
    use calu_matrix::gen;
    use calu_matrix::lapack::{getrf, GetrfOpts};
    use calu_matrix::NoObs;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Every way to run the ranks: the executor driver under both
    /// executors, and the rank threads.
    fn drivers(lookahead: usize) -> [DistRtOpts; 3] {
        let opts = |executor, communicator| DistRtOpts { lookahead, executor, communicator };
        [
            opts(ExecutorKind::Serial, CommKind::InProcess),
            opts(ExecutorKind::Threaded { threads: 3 }, CommKind::InProcess),
            opts(ExecutorKind::Serial, CommKind::Threaded),
        ]
    }

    fn getrf_reference<T: Scalar>(a: &Matrix<T>, b: usize) -> (Matrix<T>, Vec<usize>) {
        let mut lu = a.clone();
        let mut ipiv = vec![0usize; a.rows().min(a.cols())];
        getrf(lu.view_mut(), &mut ipiv, GetrfOpts { block: b, ..Default::default() }, &mut NoObs)
            .unwrap();
        (lu, ipiv)
    }

    #[test]
    fn dag_calu_matches_spmd_bitwise_on_grids_and_depths() {
        let mut rng = StdRng::seed_from_u64(7001);
        for &(m, n, b) in &[(48usize, 48usize, 8usize), (52, 36, 8), (36, 52, 8)] {
            let a: Matrix = gen::randn(&mut rng, m, n);
            for &(pr, pc) in &[(1usize, 1usize), (2, 2), (2, 3), (3, 2)] {
                let cfg = DistCaluConfig { b, pr, pc, local: LocalLu::Recursive };
                let (_r, want) = dist_calu_factor_spmd(&a, cfg, MachineConfig::ideal());
                for depth in 1..=3 {
                    for rt in drivers(depth) {
                        let (rep, got) = dist_calu_factor_rt(&a, cfg, rt, MachineConfig::ideal());
                        assert_eq!(rep.communicator, rt.communicator.label());
                        assert_eq!(want.ipiv, got.ipiv, "{m}x{n} {pr}x{pc} {rt:?}");
                        assert_eq!(
                            want.lu.max_abs_diff(&got.lu),
                            0.0,
                            "{m}x{n} {pr}x{pc} {rt:?}: factors must be bitwise identical to \
                             the SPMD reference"
                        );
                        assert_eq!(got.first_singular, None);
                    }
                }
            }
        }
    }

    fn assert_pdgetrf_matches_getrf<T: Scalar>(a: &Matrix<T>) {
        let (lu, ipiv) = getrf_reference(a, 8);
        for &(pr, pc) in &[(1usize, 1usize), (2, 2), (3, 2), (2, 4)] {
            let cfg = DistPdgetrfConfig { b: 8, pr, pc };
            for depth in 1..=3 {
                for rt in drivers(depth) {
                    let (_rep, got) = dist_pdgetrf_factor_rt(a, cfg, rt, MachineConfig::ideal());
                    assert_eq!(ipiv, got.ipiv, "{pr}x{pc} {rt:?}");
                    assert_eq!(lu.max_abs_diff(&got.lu), T::ZERO, "{pr}x{pc} {rt:?}");
                }
            }
        }
    }

    #[test]
    fn dag_pdgetrf_matches_getrf_bitwise() {
        let mut rng = StdRng::seed_from_u64(7002);
        let a: Matrix = gen::randn(&mut rng, 44, 44);
        assert_pdgetrf_matches_getrf(&a);
        assert_pdgetrf_matches_getrf(&a.cast::<f32>());
    }

    #[test]
    fn report_carries_modeled_schedule_and_traces() {
        let mut rng = StdRng::seed_from_u64(7003);
        let a: Matrix = gen::randn(&mut rng, 64, 64);
        let cfg = DistCaluConfig { b: 16, pr: 2, pc: 2, local: LocalLu::Classic };
        let (rep, _f) =
            dist_calu_factor_rt(&a, cfg, DistRtOpts::default(), MachineConfig::power5());
        assert_eq!(rep.traces.len(), 4);
        assert_eq!(rep.sim.per_rank.len(), 4);
        assert!(rep.makespan > 0.0 && rep.critical_path > 0.0);
        assert!(rep.makespan + 1e-15 >= rep.critical_path * 0.999);
        assert!(rep.sim.total_msgs() > 0, "2x2 grid must move modeled messages");
        assert!(rep.sim.total_flops() > 0.0);
        assert_eq!(rep.exec.order.len(), rep.tasks);
        // The last lookahead window's payloads are still resident at the
        // end of a successful run; the driver drains them all.
        assert!(rep.comm.drained_words > 0);
        assert_eq!(rep.comm.residual_words, 0);
        // The DAG orders every post before its fetches: nothing waits.
        assert_eq!(rep.comm.wait_total_ns(), 0);
        // One wall-clock span per executed task, pids spanning the grid.
        assert_eq!(rep.spans.len(), rep.tasks);
        assert!(rep.spans.iter().any(|s| s.pid == 3));
        calu_obs::parse_chrome_trace(&calu_obs::chrome_trace(&rep.spans))
            .expect("executor spans must export as valid chrome trace");
        let gantt = calu_netsim::render_gantt(&rep.traces, 60);
        assert!(gantt.contains("r0") && gantt.contains("r3"));
    }

    /// The reconciliation property: on every grid × depth × algorithm ×
    /// driver, the measured ledger equals the exact per-term prediction —
    /// message counts and word counts both, the `PDGETF2` picket fence
    /// included — and the skeleton comparison shows agreeing message
    /// counts with a quantified (never negative) word gap on the TSLU
    /// term.
    #[test]
    fn measured_comm_equals_exact_prediction_on_grids_and_depths() {
        let mut rng = StdRng::seed_from_u64(7004);
        let a: Matrix = gen::randn(&mut rng, 48, 48);
        let assert_exact = |rep: &DistRtReport, what: &str| {
            let deltas = rep.mailbox_deltas();
            assert!(deltas.iter().any(|d| d.source == "mailbox_exact"));
            for d in deltas.iter().filter(|d| d.source == "mailbox_exact") {
                assert!(
                    d.exact(),
                    "{what} term {}: measured {:?} vs expected {:?}",
                    d.term,
                    d.measured,
                    d.expected
                );
            }
        };
        for &(pr, pc) in &[(2usize, 2usize), (2, 4), (3, 2)] {
            for depth in 1..=3 {
                for rt in drivers(depth) {
                    let cfg = DistCaluConfig { b: 8, pr, pc, local: LocalLu::Classic };
                    let (rep, f) = dist_calu_factor_rt(&a, cfg, rt, MachineConfig::ideal());
                    assert_eq!(f.first_singular, None);
                    assert_exact(&rep, &format!("calu {pr}x{pc} {rt:?}"));
                    // Skeleton: same message counts on the exact-modeled
                    // terms, word gap only from ragged-tail payloads.
                    for d in rep.skeleton_deltas().iter().filter(|d| d.term == "tslu_leg") {
                        assert_eq!(d.msg_gap(), 0, "{pr}x{pc} {rt:?}");
                        assert!(d.word_gap() <= 0, "measured can never exceed the skeleton");
                    }

                    let cfg = DistPdgetrfConfig { b: 8, pr, pc };
                    let (rep, f) = dist_pdgetrf_factor_rt(&a, cfg, rt, MachineConfig::ideal());
                    assert_eq!(f.first_singular, None);
                    assert!(
                        rep.expected_mailbox.iter().any(|t| t.term == "panel_getf2"),
                        "the PDGETF2 picket fence must be predicted term-for-term"
                    );
                    assert_exact(&rep, &format!("pdgetrf {pr}x{pc} {rt:?}"));
                }
            }
        }
    }

    /// Both drivers run the same bodies, so they send the same messages:
    /// for every grid × depth × panel algorithm the two ledgers agree row
    /// for row — rank, term, direction, messages and words — including
    /// the data-dependent `swap` term and `PDGETRF`'s `panel_getf2`.
    #[test]
    fn in_process_and_threaded_ledgers_match_term_for_term() {
        let mut rng = StdRng::seed_from_u64(7009);
        let a: Matrix = gen::randn(&mut rng, 44, 44);
        for &(pr, pc) in &[(1usize, 2usize), (2, 2), (2, 4), (3, 2)] {
            for depth in 1..=3 {
                let [in_process, _, threaded] = drivers(depth);
                let calu = |rt| {
                    let cfg = DistCaluConfig { b: 8, pr, pc, local: LocalLu::Classic };
                    dist_calu_factor_rt(&a, cfg, rt, MachineConfig::ideal()).0.comm
                };
                let pdgetrf = |rt| {
                    let cfg = DistPdgetrfConfig { b: 8, pr, pc };
                    dist_pdgetrf_factor_rt(&a, cfg, rt, MachineConfig::ideal()).0.comm
                };
                for (alg, run) in [("calu", &calu as &dyn Fn(_) -> _), ("pdgetrf", &pdgetrf)] {
                    let (want, got) = (run(in_process), run(threaded));
                    assert!(!want.rows.is_empty());
                    assert_eq!(want.rows, got.rows, "{alg} {pr}x{pc} d={depth}");
                    if alg == "pdgetrf" && pr > 1 {
                        assert!(want.term_total("panel_getf2").msgs > 0);
                    }
                }
            }
        }
    }

    /// The threaded report is coherent: spans and wall-clock timings come
    /// from every rank thread (multi-rank tasks appear once per
    /// participant, so there are at least as many executions as DAG
    /// tasks), the spans export as a valid per-rank chrome trace, and the
    /// drain leaves no residual words.
    #[test]
    fn threaded_report_is_coherent() {
        let mut rng = StdRng::seed_from_u64(7007);
        let a: Matrix = gen::randn(&mut rng, 64, 64);
        let cfg = DistCaluConfig { b: 16, pr: 2, pc: 2, local: LocalLu::Classic };
        let rt = DistRtOpts { communicator: CommKind::Threaded, ..Default::default() };
        let (rep, _f) = dist_calu_factor_rt(&a, cfg, rt, MachineConfig::power5());
        assert_eq!(rep.communicator, "threaded");
        assert_eq!(rep.exec.workers, 4);
        assert!(rep.exec.order.len() >= rep.tasks);
        assert_eq!(rep.spans.len(), rep.exec.order.len());
        for pid in 0..4 {
            assert!(
                rep.spans.iter().any(|s| s.pid == pid && s.tid == pid),
                "rank {pid} must contribute wall-clock spans"
            );
        }
        assert!(rep.comm.drained_words > 0);
        assert_eq!(rep.comm.residual_words, 0);
        calu_obs::parse_chrome_trace(&calu_obs::chrome_trace(&rep.spans))
            .expect("threaded spans must export as valid chrome trace");

        // The standard metrics snapshot carries the drain counters and
        // the fetch-wait totals, not just the raw report fields.
        let snap = rep.metrics_snapshot();
        let counters = snap.get("counters").expect("snapshot has counters");
        assert_eq!(
            counters.get("dist.mailbox_drained_words").and_then(calu_obs::JsonValue::as_u64),
            Some(rep.comm.drained_words)
        );
        assert_eq!(
            counters.get("dist.mailbox_residual_words").and_then(calu_obs::JsonValue::as_u64),
            Some(0)
        );
        assert_eq!(
            counters.get("dist.comm.words").and_then(calu_obs::JsonValue::as_u64),
            Some(rep.comm.total().words)
        );
        assert_eq!(
            counters.get("dist.fetch_wait_ns").and_then(calu_obs::JsonValue::as_u64),
            Some(rep.comm.wait_total_ns())
        );
        // Rank threads really blocked somewhere in this 2x2 run, and the
        // wait rows attribute that blocking per (rank, term).
        assert!(!rep.comm.waits.is_empty(), "threaded fetches must record wait rows");
        assert!(rep.comm.wait_total_ns() > 0);
    }
}
