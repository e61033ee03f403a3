//! The task DAG of blocked right-looking LU.
//!
//! [`LuDag::build`] emits, for any `(m, n, nb)`, the dependency graph of
//! a right-looking blocked factorization with a tile-resident tournament
//! panel:
//!
//! * [`Task::PanelElect`]`(k, ti)` — elect tile `(ti, k)`'s candidate
//!   pivot rows (one tournament leaf per `nb`-high tile of the panel);
//! * [`Task::PanelReduce`] — fold two subtrees' candidate sets up a
//!   deterministic binary tree ([`panel_tree_levels`]);
//! * [`Task::PanelFinish`]`(k)` — swap the winners on top of the panel's
//!   block column and factor its diagonal tile (`L₁₁\U₁₁`);
//! * [`Task::PanelApply`]`(k, ti)` — form tile `(ti, k)`'s `L₂₁` rows;
//! * [`Task::Swap`]`(k, j)` — apply panel `k`'s pivot sequence to block
//!   column `j ≠ k` (rows `k·nb..m`);
//! * [`Task::Trsm`]`(k, j)` — `U₁₂ = L₁₁⁻¹ A₁₂` on block column `j > k`;
//! * [`Task::Gemm`]`(k, i, j)` — `A(i,j) -= L₂₁(i) · U₁₂(j)` on the
//!   trailing tile at block row `i`, block column `j`.
//!
//! The edge set encodes exactly the data flow of the *sequential* sweep
//! (`calu_inplace` with the tile-leaf panel tree), including the two
//! orderings that are easy to miss:
//!
//! * **anti-dependence on `L`**: `Swap(k+1, k)` permutes rows of column
//!   block `k`, which every `Gemm(k, ·, ·)` still reads as `L₂₁` and every
//!   `PanelApply(k, ·)` writes — so the first left-swap of a column waits
//!   for *all* of them (swaps are deferred until the updates that read the
//!   unswapped `L` have finished);
//! * **lookahead throttle**: with lookahead depth `d`, the elects of step
//!   `k` carry edges from every task of step `k − d − 1`, so panels run at
//!   most `d` steps ahead of the slowest trailing update. Depth 1 is the
//!   HPL-style schedule; larger depths let panels `k+2, k+3, …` start
//!   while step `k`'s bulk `gemm`s drag on.
//!
//! Any topological execution of the DAG produces **bitwise identical**
//! factors to the sequential sweep: every read/write overlap is ordered by
//! an edge, tile splits of `gemm`/`trsm`/row-swaps are per-element
//! reorderings that do not change the fixed k-accumulation order of the
//! kernels, and the tournament tree is a pure function of the tile count.

use calu_netsim::MachineConfig;

/// Identifies a node in the DAG (index into [`LuDag::tasks`]).
pub type TaskId = usize;

/// One schedulable unit of work. Indices are in units of `nb`-wide blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Task {
    /// Tournament leaf of the tile-resident panel: elect tile `(ti, k)`'s
    /// `jb` candidate pivot rows by local LU on the resident tile (the
    /// tile is read in place; only the `≤ nb × jb` election copy
    /// intrinsic to tournament pivoting is made).
    PanelElect {
        /// Panel step.
        k: usize,
        /// Tile row whose candidates are elected (`k ≤ ti < rb`).
        ti: usize,
    },
    /// Internal node of the tile-resident panel's deterministic binary
    /// tournament tree: fold the candidate sets of two subtrees with
    /// `reduce_pair` (lower tile range first, so the winner set is
    /// execution-order-independent).
    PanelReduce {
        /// Panel step.
        k: usize,
        /// Tree level (`≥ 1`; leaves are level 0).
        level: usize,
        /// Lowest tile row of the left (lower) subtree being folded.
        ti: usize,
        /// Lowest tile row of the right (upper) subtree being folded.
        tj: usize,
    },
    /// Root of the tile-resident panel subgraph: publish the tournament's
    /// pivot sequence, apply the winner swaps across the panel's block
    /// column, and factor the diagonal tile's rows (`L₁₁\U₁₁`) — the step
    /// where a genuinely singular panel surfaces.
    PanelFinish {
        /// Panel step.
        k: usize,
    },
    /// Per-tile `L₂₁` formation of the tile-resident panel: scale and
    /// rank-1-update tile `(ti, k)`'s rows against the finished `U₁₁` —
    /// the restriction of the unpivoted panel elimination to that tile,
    /// running concurrently across tiles.
    PanelApply {
        /// Panel step.
        k: usize,
        /// Tile row whose `L₂₁` rows are formed (`ti > k`).
        ti: usize,
    },
    /// Apply panel `k`'s pivot swaps to rows `k·nb..m` of block column `j`.
    Swap {
        /// Panel step whose pivots are applied.
        k: usize,
        /// Target block column (`j < k`: finished `L` columns; `j > k`:
        /// not-yet-factored columns; `j == k`: the remainder of the
        /// panel's own block column when the final panel is narrower than
        /// `nb` — see [`LuShape::update_col_range`]).
        j: usize,
    },
    /// Triangular solve producing the `U₁₂` slice of block column `j` for
    /// step `k` (`j > k`, or `j == k` for the ragged-panel remainder).
    Trsm {
        /// Panel step providing `L₁₁`.
        k: usize,
        /// Target block column.
        j: usize,
    },
    /// Trailing update of the tile at block row `i`, block column `j` for
    /// step `k` (`i > k`, `j > k`).
    Gemm {
        /// Panel step providing `L₂₁` and `U₁₂`.
        k: usize,
        /// Target block row.
        i: usize,
        /// Target block column.
        j: usize,
    },
    /// A distributed-memory task of the 2D block-cyclic DAG
    /// ([`LuDag::build_dist`]): per-rank compute or an explicit
    /// communication task (panel broadcast, TSLU reduce leg, pivot-row
    /// exchange, …) carrying its owning rank. Never emitted by the
    /// shared-memory [`LuDag::build`].
    Dist(DistTask),
    /// A task of the solve-phase DAG ([`LuDag::build_solve`]): blocked
    /// `laswp`/`trsm` application of completed LU factors to a block of
    /// right-hand sides. Never emitted by the factorization builders.
    Solve(SolveTask),
}

/// One task of the triangular-solve DAG ([`LuDag::build_solve`]): apply
/// completed factors `P L U` to block column `j` of a multi-RHS matrix.
/// `k` is the diagonal (row) block the task pivots around, `i` the target
/// row block of an off-diagonal update (`i == k` for diagonal tasks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SolveTask {
    /// What the task does.
    pub kind: SolveKind,
    /// Diagonal row-block index (0 for `Piv`).
    pub k: u32,
    /// Target row block of an off-diagonal update; `== k` otherwise.
    pub i: u32,
    /// RHS block column.
    pub j: u32,
}

/// Task kinds of the solve DAG, in the order a `getrs` sweep applies
/// them: row swaps, then forward substitution with unit-lower `L`
/// (diagonal `TrsmL` blocks and trailing `GemmL` updates), then backward
/// substitution with upper `U` (`TrsmU` / `GemmU`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SolveKind {
    /// Apply the factorization's full pivot sequence to RHS block
    /// column `j` (`laswp`).
    Piv,
    /// Forward-substitute the diagonal block: `X(k,j) := L(k,k)⁻¹ X(k,j)`
    /// (unit lower).
    TrsmL,
    /// Forward update of row block `i > k`:
    /// `X(i,j) -= L(i,k) · X(k,j)`.
    GemmL,
    /// Back-substitute the diagonal block: `X(k,j) := U(k,k)⁻¹ X(k,j)`
    /// (non-unit upper).
    TrsmU,
    /// Backward update of row block `i < k`:
    /// `X(i,j) -= U(i,k) · X(k,j)`.
    GemmU,
}

/// One task of the distributed (2D block-cyclic) DAG. The `rank` tag is
/// the owning rank in column-major grid order (`rank = pcol·Pr + prow`,
/// the BLACS "C" order `calu_netsim::Grid` uses); cross-rank data flow is
/// realized as send/recv task pairs whose edges are the wires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DistTask {
    /// What the task does (and which side of a comm pair it is).
    pub kind: DistKind,
    /// Elimination step (block column index, units of `nb`).
    pub k: u32,
    /// Kind-specific index: target block column for
    /// `Swap`/`Trsm`/`USend`/`URecv`/`Gemm`, butterfly leg for `TsluLeg`,
    /// unused (0) otherwise.
    pub j: u32,
    /// Owning rank (column-major grid order).
    pub rank: u32,
}

/// Task kinds of the distributed DAG. Compute kinds run real kernels on
/// the owning rank's block-cyclic tiles; communication kinds carry modeled
/// `α + w·β` costs and stage/consume data across ranks (send/recv pairs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DistKind {
    /// TSLU phase 1a: local candidate election on one member of the
    /// panel-owning process column.
    Cand,
    /// One leg of TSLU's butterfly all-reduce of candidate sets along the
    /// process column (`j` = leg index): a pairwise sendrecv plus the
    /// redundant tournament combine.
    TsluLeg,
    /// The whole `PDGETF2` panel of the `PDGETRF` baseline: per column a
    /// scan, a column-combine, a pivot-row exchange, and a rank-1 update —
    /// a serialized picket fence modeled as one task on the diagonal rank
    /// (every rank of the process column takes part, which the
    /// column-barrier edges order).
    PanelGetf2,
    /// Send half of the swap-list broadcast along the owning process row.
    PivSend,
    /// Recv half of the swap-list broadcast on one non-root rank.
    PivRecv,
    /// Pivot-row exchange: apply panel `k`'s row swaps to block column `j`
    /// across the owning process column (the sequential pairwise
    /// exchanges of the swap sweep, one task per column block; every rank
    /// of the process column takes part and reads its own swap list).
    Swap,
    /// Send half of the post-swap `W` block broadcast down the process
    /// column (CALU second pass).
    WSend,
    /// CALU second pass on one panel-column member: redundant `W = L₁₁U₁₁`
    /// factorization plus the local `L₂₁ = A₂₁U₁₁⁻¹` solve.
    Second,
    /// Send half of the packed-panel broadcast along the process row (one
    /// per process row — each row carries its own panel rows).
    PanelSend,
    /// Recv half of the packed-panel broadcast on one non-root rank.
    PanelRecv,
    /// `U₁₂` triangular solve for block column `j` on the diagonal
    /// process row.
    Trsm,
    /// Send half of the `U₁₂` broadcast down the process column.
    USend,
    /// Recv half of the `U₁₂` broadcast on one non-diagonal process row.
    URecv,
    /// Local trailing `gemm` of block column `j` on one rank (all its
    /// owned row tiles).
    Gemm,
}

impl DistTask {
    /// `true` for kinds whose cost is (at least partly) a message — the
    /// segments the dual-layer Gantt draws as communication.
    pub fn is_comm(&self) -> bool {
        matches!(
            self.kind,
            DistKind::TsluLeg
                | DistKind::PivSend
                | DistKind::PivRecv
                | DistKind::Swap
                | DistKind::WSend
                | DistKind::PanelSend
                | DistKind::PanelRecv
                | DistKind::USend
                | DistKind::URecv
        )
    }
}

impl Task {
    /// The elimination step this task belongs to.
    pub fn step(&self) -> usize {
        match *self {
            Task::PanelElect { k, .. }
            | Task::PanelReduce { k, .. }
            | Task::PanelFinish { k }
            | Task::PanelApply { k, .. }
            | Task::Swap { k, .. }
            | Task::Trsm { k, .. }
            | Task::Gemm { k, .. } => k,
            Task::Dist(d) => d.k as usize,
            Task::Solve(s) => s.k as usize,
        }
    }

    /// The rank this task's work is attributed to — the trace exporter's
    /// `pid` lane. Distributed tasks carry their owning grid rank;
    /// shared-memory and solve tasks all run in one address space (rank 0).
    pub fn trace_rank(&self) -> u32 {
        match *self {
            Task::Dist(d) => d.rank,
            _ => 0,
        }
    }

    /// Stable kind slug for the trace exporter's `cat` field (Chrome and
    /// Perfetto group and filter events by category).
    pub fn cat(&self) -> &'static str {
        match *self {
            Task::PanelElect { .. } => "panel_elect",
            Task::PanelReduce { .. } => "panel_reduce",
            Task::PanelFinish { .. } => "panel_finish",
            Task::PanelApply { .. } => "panel_apply",
            Task::Swap { .. } => "swap",
            Task::Trsm { .. } => "trsm",
            Task::Gemm { .. } => "gemm",
            Task::Dist(d) => match d.kind {
                DistKind::Cand => "cand",
                DistKind::TsluLeg => "tslu_leg",
                DistKind::PanelGetf2 => "panel_getf2",
                DistKind::PivSend => "piv_send",
                DistKind::PivRecv => "piv_recv",
                DistKind::Swap => "swap",
                DistKind::WSend => "w_send",
                DistKind::Second => "second",
                DistKind::PanelSend => "panel_send",
                DistKind::PanelRecv => "panel_recv",
                DistKind::Trsm => "trsm",
                DistKind::USend => "u_send",
                DistKind::URecv => "u_recv",
                DistKind::Gemm => "gemm",
            },
            Task::Solve(s) => match s.kind {
                SolveKind::Piv => "solve_piv",
                SolveKind::TrsmL => "solve_trsm_l",
                SolveKind::GemmL => "solve_gemm_l",
                SolveKind::TrsmU => "solve_trsm_u",
                SolveKind::GemmU => "solve_gemm_u",
            },
        }
    }
}

impl std::fmt::Display for Task {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Task::PanelElect { k, ti } => write!(f, "PanelElect({k},{ti})"),
            Task::PanelReduce { k, level, ti, tj } => {
                write!(f, "PanelReduce({k},l{level},{ti}+{tj})")
            }
            Task::PanelFinish { k } => write!(f, "PanelFinish({k})"),
            Task::PanelApply { k, ti } => write!(f, "PanelApply({k},{ti})"),
            Task::Swap { k, j } => write!(f, "Swap({k},{j})"),
            Task::Trsm { k, j } => write!(f, "Trsm({k},{j})"),
            Task::Gemm { k, i, j } => write!(f, "Gemm({k},{i},{j})"),
            Task::Dist(DistTask { kind, k, j, rank }) => {
                write!(f, "{kind:?}({k},{j})@r{rank}")
            }
            Task::Solve(SolveTask { kind, k, i, j }) => match kind {
                SolveKind::Piv => write!(f, "SolvePiv({j})"),
                SolveKind::TrsmL | SolveKind::TrsmU => write!(f, "Solve{kind:?}({k},{j})"),
                SolveKind::GemmL | SolveKind::GemmU => write!(f, "Solve{kind:?}({k},{i},{j})"),
            },
        }
    }
}

/// Block geometry of an `m × n` matrix factored with panel width `nb`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LuShape {
    /// Matrix rows.
    pub m: usize,
    /// Matrix columns.
    pub n: usize,
    /// Panel width (block size).
    pub nb: usize,
}

impl LuShape {
    /// Number of panel steps, `⌈min(m,n)/nb⌉`.
    pub fn steps(&self) -> usize {
        self.m.min(self.n).div_ceil(self.nb)
    }

    /// Number of block columns, `⌈n/nb⌉`.
    pub fn col_blocks(&self) -> usize {
        self.n.div_ceil(self.nb)
    }

    /// Number of block rows, `⌈m/nb⌉`.
    pub fn row_blocks(&self) -> usize {
        self.m.div_ceil(self.nb)
    }

    /// Width of panel `k` (`nb`, except possibly the last step).
    pub fn panel_width(&self, k: usize) -> usize {
        self.nb.min(self.m.min(self.n) - k * self.nb)
    }

    /// Column range of block column `j`.
    pub fn col_range(&self, j: usize) -> std::ops::Range<usize> {
        j * self.nb..self.n.min((j + 1) * self.nb)
    }

    /// Row range of block row `i`.
    pub fn row_range(&self, i: usize) -> std::ops::Range<usize> {
        i * self.nb..self.m.min((i + 1) * self.nb)
    }

    /// The columns a `Swap(k, j)`/`Trsm(k, j)`/`Gemm(k, ·, j)` task
    /// touches: the whole block column for `j ≠ k`, or — when a ragged
    /// final panel leaves its block column partially unfactored — the
    /// remainder right of the panel for `j == k`.
    pub fn update_col_range(&self, k: usize, j: usize) -> std::ops::Range<usize> {
        let r = self.col_range(j);
        if j == k {
            (k * self.nb + self.panel_width(k)).min(r.end)..r.end
        } else {
            r
        }
    }
}

/// Scheduling priority: lexicographically smaller runs first among ready
/// tasks. The encoding is critical-path-first: all work on block column
/// `j` outranks work on columns right of it, so the column feeding the
/// next panel drains before the bulk — the generalization of HPL's
/// look-ahead. Left swaps (pivot fix-up of finished `L` columns) are off
/// the critical path and sort last.
pub type Prio = (u32, u8, u32, u32);

fn priority(shape: &LuShape, t: Task) -> Prio {
    let cb = shape.col_blocks() as u32;
    match t {
        // The panel subgraph comes first among step-k work; within it the
        // reduction spine drains root-ward first: finish, then reduces
        // (deeper level = closer to the root = smaller), then elects, then
        // the L₂₁ applies.
        Task::PanelFinish { k } => (k as u32, 0, 0, 0),
        Task::PanelReduce { k, level, .. } => (k as u32, 0, 1, u32::MAX - level as u32),
        Task::PanelElect { k, ti } => (k as u32, 0, 2, ti as u32),
        Task::PanelApply { k, ti } => (k as u32, 0, 3, ti as u32),
        Task::Swap { k, j } if j >= k => (j as u32, 1, k as u32, 0),
        Task::Trsm { k, j } => (j as u32, 2, k as u32, 0),
        Task::Gemm { k, i, j } => (j as u32, 3, k as u32, i as u32),
        Task::Swap { k, j } => (cb + k as u32, 4, j as u32, 0),
        Task::Dist(d) => dist_priority(cb, d),
        Task::Solve(s) => solve_priority(shape, s),
    }
}

/// Column-drain priorities for the solve DAG: all work on RHS block
/// column `j` outranks columns right of it (so a coalesced batch streams
/// whole solutions out instead of interleaving every column's forward
/// phase), the forward sweep outranks the backward sweep, and within a
/// sweep the diagonal chain (`TrsmL`/`TrsmU`) outranks the bulk updates
/// that hang off it — the same critical-path-first shape as the
/// factorization priorities.
fn solve_priority(shape: &LuShape, s: SolveTask) -> Prio {
    let kb = shape.row_blocks() as u32;
    let SolveTask { kind, k, i, j } = s;
    match kind {
        SolveKind::Piv => (j, 0, 0, 0),
        SolveKind::TrsmL => (j, 1, k, 0),
        SolveKind::GemmL => (j, 1, k, 1 + i),
        SolveKind::TrsmU => (j, 2, kb - 1 - k, 0),
        SolveKind::GemmU => (j, 2, kb - 1 - k, 1 + i),
    }
}

/// Critical-path-first priorities for the distributed task kinds: the
/// panel chain of step `k` (election, reduce legs, second pass, list and
/// panel broadcasts) outranks trailing work, per-column work on block
/// column `j` outranks columns right of it, left pivot fix-ups sort last —
/// the same encoding as the shared-memory DAG, with comm legs slotted into
/// their producing chain.
fn dist_priority(cb: u32, d: DistTask) -> Prio {
    use DistKind::*;
    let DistTask { kind, k, j, rank } = d;
    match kind {
        Cand | PanelGetf2 => (k, 0, 0, rank),
        TsluLeg => (k, 0, 1 + j, rank),
        WSend => (k, 1, 0, rank),
        Second => (k, 1, 1, rank),
        PivSend => (k, 1, 2, rank),
        PivRecv => (k, 1, 3, rank),
        PanelSend => (k, 1, 4, rank),
        PanelRecv => (k, 1, 5, rank),
        Swap if j >= k => (j, 2, k, 0),
        Trsm => (j, 3, k, 0),
        USend => (j, 4, k, 0),
        URecv => (j, 4, k, 1 + rank),
        Gemm => (j, 5, k, rank),
        Swap => (cb + k, 6, j, 0),
    }
}

/// Per-level node counts of the resident panel's tournament tree over `t`
/// leaf tiles: `counts[0] == t` leaves, each higher level pairing nodes
/// (`⌈·/2⌉`) until a single root. `counts.len() - 1` is the root level.
/// Empty input (`t == 0`) yields `[0]` — a degenerate tree with no root.
pub fn panel_tree_levels(t: usize) -> Vec<usize> {
    let mut counts = vec![t];
    while *counts.last().expect("non-empty") > 1 {
        let up = counts.last().expect("non-empty").div_ceil(2);
        counts.push(up);
    }
    counts
}

/// Resolves tree node `(level, i)` over `t` leaves to the node whose task
/// actually produces its candidate set: a node with two non-empty children
/// stores its own `reduce_pair` result, while a single-child node is a
/// pass-through that collapses to its lone descendant (ultimately a leaf).
/// Returns the storing node's `(level, i)`.
///
/// Shared between the DAG builder (edge endpoints) and the runtime's
/// candidate-slot store so both sides agree on where every subtree's
/// winners live.
pub fn panel_tree_resolve(t: usize, mut level: usize, mut i: usize) -> (usize, usize) {
    loop {
        if level == 0 {
            return (0, i);
        }
        let right_lo = (2 * i + 1) << (level - 1);
        if right_lo < t {
            return (level, i);
        }
        level -= 1;
        i *= 2;
    }
}

/// The [`Task`] producing tree node `(level, i)`'s candidate set for step
/// `k` over `t` leaf tiles (see [`panel_tree_resolve`]).
fn panel_tree_task(k: usize, t: usize, level: usize, i: usize) -> Task {
    let (l, i) = panel_tree_resolve(t, level, i);
    if l == 0 {
        Task::PanelElect { k, ti: k + i }
    } else {
        Task::PanelReduce { k, level: l, ti: k + (i << l), tj: k + ((2 * i + 1) << (l - 1)) }
    }
}

/// The dependency DAG of one blocked LU factorization — shared-memory
/// ([`LuDag::build`]) or distributed over a 2D block-cyclic grid
/// ([`LuDag::build_dist`]), where tasks are partitioned per rank and
/// cross-rank edges run through send/recv task pairs.
#[derive(Debug, Clone)]
pub struct LuDag {
    shape: LuShape,
    lookahead: usize,
    tasks: Vec<Task>,
    prio: Vec<Prio>,
    succs: Vec<Vec<TaskId>>,
    dep_count: Vec<usize>,
    /// Number of ranks tasks are partitioned over (1 for shared memory).
    pub(crate) ranks: usize,
    /// `(Pr, Pc)` grid of a distributed DAG, `None` for shared memory.
    pub(crate) grid: Option<(usize, usize)>,
}

impl LuDag {
    /// Builds the DAG for an `m × n` factorization with panel width `nb`
    /// and the given panel lookahead depth (`≥ 1`; depths beyond the step
    /// count leave panels unthrottled).
    ///
    /// Each panel is a per-tile tournament subgraph: one
    /// `PanelElect(k, ti)` per resident tile of the panel (each gated only
    /// on *its own tile's* step-`k-1` update, so elections start as the
    /// column drains tile by tile), the `PanelReduce` binary tree folding
    /// candidate sets root-ward, `PanelFinish(k)` as the panel boundary
    /// (trailing and left swaps hang off it, and the lookahead throttle
    /// gates the elects), and one `PanelApply(k, ti)` per trailing tile
    /// feeding that tile row's `Gemm`s.
    ///
    /// # Panics
    /// If `nb == 0` or `lookahead == 0`.
    pub fn build(shape: LuShape, lookahead: usize) -> Self {
        assert!(shape.nb > 0, "panel width nb must be positive");
        assert!(lookahead > 0, "lookahead depth must be at least 1");
        let steps = shape.steps();
        let cb = shape.col_blocks();
        let rb = shape.row_blocks();

        let mut tasks: Vec<Task> = Vec::new();
        let mut id_of = std::collections::HashMap::new();
        let mut by_step: Vec<Vec<TaskId>> = vec![Vec::new(); steps];
        let mut push = |t: Task, tasks: &mut Vec<Task>, by_step: &mut Vec<Vec<TaskId>>| {
            let id = tasks.len();
            tasks.push(t);
            by_step[t.step()].push(id);
            id_of.insert(t, id);
            id
        };

        for k in 0..steps {
            for ti in k..rb {
                push(Task::PanelElect { k, ti }, &mut tasks, &mut by_step);
            }
            let t = rb - k;
            for (level, &n_nodes) in panel_tree_levels(t).iter().enumerate().skip(1) {
                for i in 0..n_nodes {
                    let right_lo = (2 * i + 1) << (level - 1);
                    if right_lo < t {
                        let reduce =
                            Task::PanelReduce { k, level, ti: k + (i << level), tj: k + right_lo };
                        push(reduce, &mut tasks, &mut by_step);
                    }
                }
            }
            push(Task::PanelFinish { k }, &mut tasks, &mut by_step);
            for ti in k + 1..rb {
                push(Task::PanelApply { k, ti }, &mut tasks, &mut by_step);
            }
            for j in 0..k {
                push(Task::Swap { k, j }, &mut tasks, &mut by_step);
            }
            // Right of the panel: swap, trsm, and (when trailing rows
            // exist) one gemm per trailing block row. Whenever a step has
            // both trailing rows and columns its width is exactly nb, so
            // trailing rows start on the block grid at row (k+1)·nb.
            let jb = shape.panel_width(k);
            if jb < shape.nb && k * shape.nb + jb < shape.n {
                // Ragged final panel in a wide matrix: the rest of the
                // panel's own block column still needs swap + trsm.
                push(Task::Swap { k, j: k }, &mut tasks, &mut by_step);
                push(Task::Trsm { k, j: k }, &mut tasks, &mut by_step);
            }
            let has_rows_below = k * shape.nb + jb < shape.m;
            for j in k + 1..cb {
                push(Task::Swap { k, j }, &mut tasks, &mut by_step);
                push(Task::Trsm { k, j }, &mut tasks, &mut by_step);
                if has_rows_below {
                    debug_assert_eq!(jb, shape.nb, "ragged panels have no trailing block");
                    for i in k + 1..rb {
                        push(Task::Gemm { k, i, j }, &mut tasks, &mut by_step);
                    }
                }
            }
        }

        // Edges as (from, to) pairs; deduped below.
        let id = |t: Task| -> TaskId { *id_of.get(&t).expect("edge endpoint exists") };
        let mut edges: Vec<(TaskId, TaskId)> = Vec::new();
        for (tid, &t) in tasks.iter().enumerate() {
            match t {
                Task::PanelElect { k, ti } => {
                    // Only this tile's slice of the panel column must be
                    // updated through step k-1.
                    if k > 0 {
                        edges.push((id(Task::Gemm { k: k - 1, i: ti, j: k }), tid));
                    }
                    // Lookahead throttle on the subgraph's entry tasks.
                    if k > lookahead {
                        for &p in &by_step[k - lookahead - 1] {
                            edges.push((p, tid));
                        }
                    }
                }
                Task::PanelReduce { k, level, ti, .. } => {
                    // Fold the two child subtrees' candidate producers
                    // (pass-through single-child nodes resolve downward).
                    let t = rb - k;
                    let i = (ti - k) >> level;
                    edges.push((id(panel_tree_task(k, t, level - 1, 2 * i)), tid));
                    edges.push((id(panel_tree_task(k, t, level - 1, 2 * i + 1)), tid));
                }
                Task::PanelFinish { k } => {
                    // The tournament root; every elect reaches it through
                    // the reduce tree, so the cross-tile winner swaps and
                    // the diagonal-tile factorization are exclusive.
                    let t = rb - k;
                    let top = panel_tree_levels(t).len() - 1;
                    edges.push((id(panel_tree_task(k, t, top, 0)), tid));
                }
                Task::PanelApply { k, .. } => {
                    // Needs the published pivots, the swapped panel column,
                    // and the finished U₁₁ diagonal.
                    edges.push((id(Task::PanelFinish { k }), tid));
                }
                Task::Swap { k, j } if j >= k => {
                    edges.push((id(Task::PanelFinish { k }), tid));
                    if k > 0 {
                        // Column j fully updated through step k-1 first.
                        for i in k..rb {
                            edges.push((id(Task::Gemm { k: k - 1, i, j }), tid));
                        }
                    }
                }
                Task::Swap { k, j } => {
                    // j < k: pivot fix-up of a finished L column.
                    edges.push((id(Task::PanelFinish { k }), tid));
                    if j < k - 1 {
                        // Swaps on the same column do not commute.
                        edges.push((id(Task::Swap { k: k - 1, j }), tid));
                    } else {
                        // First left-swap of column j = k-1: anti-dependence
                        // on every reader of the unswapped L₂₁ of step k-1
                        // and on its per-tile writers.
                        for &gid in &by_step[k - 1] {
                            if matches!(tasks[gid], Task::Gemm { .. } | Task::PanelApply { .. }) {
                                edges.push((gid, tid));
                            }
                        }
                    }
                }
                Task::Trsm { k, j } => {
                    // The swap wrote the same rows; the panel root is
                    // covered transitively (Swap ← PanelFinish).
                    edges.push((id(Task::Swap { k, j }), tid));
                }
                Task::Gemm { k, i, j } => {
                    // Trsm(k,j) produced U₁₂; Swap(k,j) (last writer of the
                    // tile) is transitive. L₂₁ of tile row i comes from
                    // this tile's PanelApply.
                    edges.push((id(Task::Trsm { k, j }), tid));
                    edges.push((id(Task::PanelApply { k, ti: i }), tid));
                }
                Task::Dist(_) | Task::Solve(_) => {
                    unreachable!("factorization builder emits no dist/solve tasks")
                }
            }
        }
        Self::from_parts(shape, lookahead, tasks, edges, 1, None)
    }

    /// Finishes construction from a raw task/edge list (shared by the
    /// distributed builder): dedupes edges, computes successor lists,
    /// predecessor counts, and priorities.
    pub(crate) fn from_parts(
        shape: LuShape,
        lookahead: usize,
        tasks: Vec<Task>,
        mut edges: Vec<(TaskId, TaskId)>,
        ranks: usize,
        grid: Option<(usize, usize)>,
    ) -> Self {
        edges.sort_unstable();
        edges.dedup();
        let mut succs: Vec<Vec<TaskId>> = vec![Vec::new(); tasks.len()];
        let mut dep_count = vec![0usize; tasks.len()];
        for (from, to) in edges {
            debug_assert!(from != to, "self edge on {}", tasks[from]);
            succs[from].push(to);
            dep_count[to] += 1;
        }
        let prio = tasks.iter().map(|&t| priority(&shape, t)).collect();
        LuDag { shape, lookahead, tasks, prio, succs, dep_count, ranks, grid }
    }

    /// Number of ranks the tasks are partitioned over (1 for a
    /// shared-memory DAG).
    pub fn ranks(&self) -> usize {
        self.ranks
    }

    /// `(Pr, Pc)` process grid of a distributed DAG (`None` for shared
    /// memory).
    pub fn grid(&self) -> Option<(usize, usize)> {
        self.grid
    }

    /// Owning rank of a task (column-major grid order; 0 for every
    /// shared-memory task).
    pub fn owner(&self, id: TaskId) -> usize {
        match self.tasks[id] {
            Task::Dist(d) => d.rank as usize,
            _ => 0,
        }
    }

    /// The block geometry this DAG was built for.
    pub fn shape(&self) -> &LuShape {
        &self.shape
    }

    /// The lookahead depth the panel throttle was built with.
    pub fn lookahead(&self) -> usize {
        self.lookahead
    }

    /// All tasks; a [`TaskId`] indexes this slice.
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// `true` when the factorization is empty (`min(m,n) == 0`).
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Scheduling priority of a task (smaller runs first).
    pub fn priority(&self, id: TaskId) -> Prio {
        self.prio[id]
    }

    /// Successor tasks unblocked (in part) by `id`'s completion.
    pub fn successors(&self, id: TaskId) -> &[TaskId] {
        &self.succs[id]
    }

    /// Per-task predecessor counts (cloned as the executors' countdown).
    pub fn dep_counts(&self) -> &[usize] {
        &self.dep_count
    }

    /// The deterministic order the serial executor replays: a topological
    /// sort that always picks the highest-priority ready task.
    pub fn serial_schedule(&self) -> Vec<TaskId> {
        let mut deps = self.dep_count.clone();
        let mut heap = std::collections::BinaryHeap::new();
        for (id, &d) in deps.iter().enumerate() {
            if d == 0 {
                heap.push(std::cmp::Reverse((self.prio[id], id)));
            }
        }
        let mut order = Vec::with_capacity(self.len());
        while let Some(std::cmp::Reverse((_, id))) = heap.pop() {
            order.push(id);
            for &s in &self.succs[id] {
                deps[s] -= 1;
                if deps[s] == 0 {
                    heap.push(std::cmp::Reverse((self.prio[s], s)));
                }
            }
        }
        assert_eq!(order.len(), self.len(), "DAG must be acyclic");
        order
    }

    /// Longest path through the DAG under a per-task cost model — the
    /// makespan of an infinitely parallel machine.
    pub fn critical_path(&self, cost: impl Fn(Task) -> f64) -> f64 {
        let order = self.serial_schedule();
        let mut finish = vec![0.0_f64; self.len()];
        let mut best = 0.0_f64;
        for id in order {
            let f = finish[id] + cost(self.tasks[id]);
            best = best.max(f);
            for &s in &self.succs[id] {
                if f > finish[s] {
                    finish[s] = f;
                }
            }
        }
        best
    }

    /// Sum of all task costs — the makespan of a one-worker machine.
    pub fn total_cost(&self, cost: impl Fn(Task) -> f64) -> f64 {
        self.tasks.iter().map(|&t| cost(t)).sum()
    }
}

/// Which storage layout the matrix behind a DAG's tasks uses — the knob
/// of the cache-traffic model ([`modeled_cache_traffic`] /
/// [`modeled_time_layout`]).
///
/// Cache misses are memory-hierarchy communication: a flat column-major
/// matrix makes every `Gemm(k,i,j)` operand a strided block (leading
/// dimension `m`), while tile-major storage keeps each operand one
/// contiguous tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TileLocality {
    /// Flat column-major storage: task operands are strided sub-blocks
    /// with leading dimension `m`.
    Flat,
    /// Tile-major storage: every `Trsm`/`Gemm` and panel-task operand is a
    /// contiguous tile.
    TileMajor,
}

/// Modeled bytes moved between memory and cache by one task's operand
/// sweeps, at 64-byte cache-line granularity, under the given storage
/// layout and a [`MachineConfig`]'s cache capacity.
///
/// First-order model: each operand is swept once per read and once per
/// write. A contiguous operand touches `ceil(bytes / 64)` lines. When the
/// whole factorization's footprint (`m·n·8` bytes) exceeds
/// [`MachineConfig::cache_bytes`], operands cannot persist between tasks
/// and every flat strided operand re-streams with whole lines per column
/// — `ceil(rows·8 / 64) + 1`, the partial-line waste at both ends of
/// every column. On top of that, a flat leading dimension whose byte
/// stride is a multiple of 4 KiB (the classic power-of-two-`ld`
/// pathology — exactly the 512/1024/2048 benchmark sizes) maps all
/// columns of an operand onto the same cache sets, so a spilled strided
/// operand also cannot stay resident *within* a task between kernel
/// passes: its sweeps are charged twice. A matrix that fits in cache
/// streams once either way, so both layouts charge contiguous bytes. Row
/// swaps touch one line per element in either layout (rows are
/// orthogonal to column-major storage) and cost the same.
///
/// The panel subgraph charges its *main-matrix* operand sweeps only: the
/// elect reads its tile once, the finish read+writes the diagonal tile,
/// the apply read+writes its tile in place. `jb`-scale scratch — election
/// copies, candidate payloads folded by the reduces, the `U₁₁` block
/// every apply re-reads — stays uncharged as cache-resident.
///
/// The net effect matches the tiled-algorithms literature: tile-major
/// wins on the `gemm`-dominated trailing updates — the modeled difference
/// `layout_calu` records next to its measured times.
pub fn modeled_cache_traffic(
    shape: &LuShape,
    task: Task,
    mch: &MachineConfig,
    locality: TileLocality,
) -> f64 {
    const LINE: f64 = 64.0;
    const B: usize = 8; // modeled element bytes (the f64 calibration)
    let spills = ((shape.m * shape.n * B) as f64) > mch.cache_bytes;
    let aliased = spills && (shape.m * B).is_multiple_of(4096);
    let block_bytes = |r: usize, c: usize, sweeps: f64| -> f64 {
        if r == 0 || c == 0 {
            return 0.0;
        }
        let contiguous = ((r * c * B) as f64 / LINE).ceil();
        let lines = match locality {
            TileLocality::TileMajor => contiguous,
            TileLocality::Flat if !spills => contiguous,
            TileLocality::Flat => {
                let strided = c as f64 * (((r * B) as f64 / LINE).ceil() + 1.0);
                if aliased {
                    2.0 * strided
                } else {
                    strided
                }
            }
        };
        sweeps * lines * LINE
    };
    match task {
        Task::PanelElect { k, ti } => {
            block_bytes(shape.row_range(ti).len(), shape.panel_width(k), 1.0)
        }
        Task::PanelReduce { .. } => 0.0,
        Task::PanelFinish { k } => block_bytes(shape.row_range(k).len(), shape.panel_width(k), 2.0),
        Task::PanelApply { k, ti } => {
            block_bytes(shape.row_range(ti).len(), shape.panel_width(k), 2.0)
        }
        Task::Swap { k, j } => {
            let jb = shape.panel_width(k);
            let w = shape.update_col_range(k, j).len();
            2.0 * (jb * w) as f64 * LINE
        }
        Task::Trsm { k, j } => {
            let jb = shape.panel_width(k);
            let w = shape.update_col_range(k, j).len();
            block_bytes(jb, jb, 1.0) + block_bytes(jb, w, 2.0)
        }
        Task::Gemm { k, i, j } => {
            let jb = shape.panel_width(k);
            let h = shape.row_range(i).len();
            let w = shape.col_range(j).len();
            block_bytes(h, jb, 1.0) + block_bytes(jb, w, 1.0) + block_bytes(h, w, 2.0)
        }
        // Distributed tasks are costed by `dist::DistCostModel` (their
        // operands live in per-rank tile storage, never flat); solve-phase
        // tasks are O(n²) work the serve bench measures rather than models.
        Task::Dist(_) | Task::Solve(_) => 0.0,
    }
}

/// [`modeled_time`] plus the memory time of [`modeled_cache_traffic`],
/// streamed at the machine's BLAS-2 rate (γ₂ is calibrated as 2 flops per
/// 16 bytes streamed, i.e. 8 bytes per flop-second — the memory-bound
/// face of the same [`MachineConfig`]).
pub fn modeled_time_layout(
    shape: &LuShape,
    task: Task,
    mch: &MachineConfig,
    locality: TileLocality,
) -> f64 {
    let stream_bytes_per_s = 8.0 / mch.gamma2;
    modeled_time(shape, task, mch)
        + modeled_cache_traffic(shape, task, mch, locality) / stream_bytes_per_s
}

/// Modeled execution time of one task under a [`MachineConfig`]'s γ-class
/// kernel rates (the same model `calu-netsim` charges simulated ranks).
pub fn modeled_time(shape: &LuShape, task: Task, mch: &MachineConfig) -> f64 {
    match task {
        // Panel subgraph: per-tile elections, jb-scale tree folds, the
        // diagonal-tile finish, and per-tile L₂₁ formation (triangular
        // solve flops: jb²·h).
        Task::PanelElect { k, ti } => mch.t_getf2(shape.row_range(ti).len(), shape.panel_width(k)),
        Task::PanelReduce { k, .. } => {
            let jb = shape.panel_width(k);
            mch.t_getf2(2 * jb, jb)
        }
        Task::PanelFinish { k } => {
            let jb = shape.panel_width(k);
            mch.t_laswp(jb, jb) + mch.t_lu_nopiv(shape.row_range(k).len(), jb)
        }
        Task::PanelApply { k, ti } => {
            mch.t_trsm_left(shape.panel_width(k), shape.row_range(ti).len())
        }
        Task::Swap { k, j } => {
            let jb = shape.panel_width(k);
            mch.t_laswp(jb, shape.update_col_range(k, j).len())
        }
        Task::Trsm { k, j } => {
            mch.t_trsm_left(shape.panel_width(k), shape.update_col_range(k, j).len())
        }
        Task::Gemm { k, i, j } => {
            mch.t_gemm(shape.row_range(i).len(), shape.col_range(j).len(), shape.panel_width(k))
        }
        // Distributed tasks are costed by `dist::DistCostModel` (compute
        // plus α/β message terms); solve-phase tasks are measured by the
        // serve bench, not modeled.
        Task::Dist(_) | Task::Solve(_) => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dag(m: usize, n: usize, nb: usize, d: usize) -> LuDag {
        LuDag::build(LuShape { m, n, nb }, d)
    }

    #[test]
    fn counts_match_closed_form_square() {
        // 4x4 blocks: per step k there are t = 4-k elect leaves, t-1
        // reduces (any binary tree over t leaves folds t-1 pairs), one
        // finish, and 4-k-1 applies; (cb-1-k) right-swaps/trsms,
        // (rb-1-k)(cb-1-k) gemms, plus k left swaps.
        let d = dag(128, 128, 32, 1);
        let (mut elects, mut reduces, mut finishes, mut applies) = (0, 0, 0, 0);
        let (mut swaps, mut trsms, mut gemms) = (0, 0, 0);
        for t in d.tasks() {
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
        assert_eq!(elects, 4 + 3 + 2 + 1);
        assert_eq!(reduces, 3 + 2 + 1);
        assert_eq!(finishes, 4);
        assert_eq!(applies, 3 + 2 + 1);
        assert_eq!(trsms, 3 + 2 + 1);
        assert_eq!(swaps, (3 + 2 + 1) + (1 + 2 + 3)); // right + left
        assert_eq!(gemms, 9 + 4 + 1);
    }

    #[test]
    fn wide_matrix_has_final_step_trsm_but_no_gemm() {
        let d = dag(64, 128, 32, 1);
        // Step 1 is the last (kn = 64): its panel bottoms out at row 64,
        // so columns 2..4 still get swap+trsm but no gemm.
        assert!(d.tasks().iter().any(|t| matches!(t, Task::Trsm { k: 1, j: 2 })));
        assert!(d.tasks().iter().any(|t| matches!(t, Task::Trsm { k: 1, j: 3 })));
        assert!(!d.tasks().iter().any(|t| matches!(t, Task::Gemm { k: 1, .. })));
    }

    #[test]
    fn ragged_wide_matrix_updates_the_panel_block_remainder() {
        // m=60, n=100, nb=16: final panel (k=3) is 12 wide; columns 60..64
        // of block column 3 still need swap + trsm at step 3.
        let d = dag(60, 100, 16, 1);
        assert!(d.tasks().iter().any(|t| matches!(t, Task::Swap { k: 3, j: 3 })));
        assert!(d.tasks().iter().any(|t| matches!(t, Task::Trsm { k: 3, j: 3 })));
        assert_eq!(d.shape().update_col_range(3, 3), 60..64);
        assert_eq!(d.shape().update_col_range(3, 4), 64..80);
        // Steps with full-width panels have no remainder tasks.
        assert!(!d.tasks().iter().any(|t| matches!(t, Task::Swap { k: 0, j: 0 })));
    }

    #[test]
    fn tall_matrix_final_ragged_panel_has_no_trailing_tasks() {
        let d = dag(100, 40, 16, 2);
        // steps = ceil(40/16) = 3; final panel is 8 wide, no columns right.
        assert_eq!(d.shape().steps(), 3);
        assert_eq!(d.shape().panel_width(2), 8);
        assert!(!d.tasks().iter().any(|t| matches!(t, Task::Trsm { k: 2, .. })));
        assert!(!d.tasks().iter().any(|t| matches!(t, Task::Gemm { k: 2, .. })));
    }

    #[test]
    fn serial_schedule_is_topological_and_complete() {
        for &(m, n, nb, d) in &[
            (96, 96, 16, 1),
            (96, 96, 16, 3),
            (130, 70, 32, 2),
            (70, 130, 32, 9),
            (100, 60, 16, 2),
        ] {
            let g = dag(m, n, nb, d);
            let order = g.serial_schedule();
            assert_eq!(order.len(), g.len());
            let mut pos = vec![0usize; g.len()];
            for (p, &id) in order.iter().enumerate() {
                pos[id] = p;
            }
            for id in 0..g.len() {
                for &s in g.successors(id) {
                    assert!(pos[id] < pos[s], "{} must precede {}", g.tasks()[id], g.tasks()[s]);
                }
            }
        }
    }

    #[test]
    fn lookahead_throttle_orders_panels_behind_old_gemms() {
        // With depth 1, the elects of step 3 must come after every task of
        // step 1 in any topological order; with a huge depth that edge
        // disappears.
        let e3 = Task::PanelElect { k: 3, ti: 4 };
        let g1 = dag(160, 160, 32, 1);
        let p3 = g1.tasks().iter().position(|&t| t == e3).unwrap();
        let has_edge_from_step1 =
            (0..g1.len()).any(|id| g1.tasks()[id].step() == 1 && g1.successors(id).contains(&p3));
        assert!(has_edge_from_step1, "depth-1 throttle edge missing");

        let g9 = dag(160, 160, 32, 9);
        let p3 = g9.tasks().iter().position(|&t| t == e3).unwrap();
        let throttled = (0..g9.len()).any(|id| {
            matches!(g9.tasks()[id], Task::Gemm { k: 1, .. }) && g9.successors(id).contains(&p3)
        });
        assert!(!throttled, "deep lookahead must not throttle step 3 on step-1 gemms");
    }

    #[test]
    fn deeper_lookahead_shortens_the_critical_path() {
        let shape = LuShape { m: 1024, n: 1024, nb: 64 };
        let mch = MachineConfig::power5();
        let cp = |d: usize| LuDag::build(shape, d).critical_path(|t| modeled_time(&shape, t, &mch));
        let (c1, c2, c4) = (cp(1), cp(2), cp(4));
        assert!(c2 <= c1 + 1e-12, "depth 2 ({c2}) must not exceed depth 1 ({c1})");
        assert!(c4 <= c2 + 1e-12);
        // And the DAG exposes real parallelism against one worker.
        let g = LuDag::build(shape, 2);
        let total = g.total_cost(|t| modeled_time(&shape, t, &mch));
        assert!(total / c2 > 2.0, "modeled parallelism {}", total / c2);
    }

    #[test]
    fn tile_major_traffic_beats_flat_on_updates() {
        // 1024^2 doubles (8 MB) spill the XT4's 2 MB cache.
        let shape = LuShape { m: 1024, n: 1024, nb: 64 };
        let mch = MachineConfig::xt4();
        let gemm = Task::Gemm { k: 0, i: 5, j: 7 };
        let flat = modeled_cache_traffic(&shape, gemm, &mch, TileLocality::Flat);
        let tiled = modeled_cache_traffic(&shape, gemm, &mch, TileLocality::TileMajor);
        assert!(tiled < flat, "tile gemm traffic {tiled} must beat flat {flat}");
        // Exact useful bytes for the tile gemm: A + B read once, C
        // read+write, all contiguous.
        assert_eq!(tiled, (4 * 64 * 64 * 8) as f64);

        // The panel charges its main-matrix tile sweeps only: an elect
        // reads its tile once, an apply reads and writes it.
        let elect = modeled_cache_traffic(
            &shape,
            Task::PanelElect { k: 0, ti: 3 },
            &mch,
            TileLocality::TileMajor,
        );
        assert_eq!(elect, (64 * 64 * 8) as f64);
        let apply = modeled_cache_traffic(
            &shape,
            Task::PanelApply { k: 0, ti: 3 },
            &mch,
            TileLocality::TileMajor,
        );
        assert_eq!(apply, (2 * 64 * 64 * 8) as f64);

        // Whole-DAG traffic is gemm-dominated, so tile-major wins net.
        let dag = LuDag::build(shape, 1);
        let total = |loc| -> f64 {
            dag.tasks().iter().map(|&t| modeled_cache_traffic(&shape, t, &mch, loc)).sum()
        };
        assert!(
            total(TileLocality::TileMajor) < total(TileLocality::Flat),
            "net modeled traffic must favor the tile layout"
        );
        // And the layout-aware time model orders the same way while never
        // undercutting the pure compute model.
        let t = |loc| -> f64 {
            dag.tasks().iter().map(|&t| modeled_time_layout(&shape, t, &mch, loc)).sum()
        };
        let compute: f64 = dag.tasks().iter().map(|&t| modeled_time(&shape, t, &mch)).sum();
        assert!(t(TileLocality::TileMajor) < t(TileLocality::Flat));
        assert!(t(TileLocality::TileMajor) > compute);
    }

    #[test]
    fn cache_resident_flat_blocks_are_not_penalized() {
        // A matrix whose whole strided span fits in cache streams like a
        // contiguous one: no layout difference on Trsm/Gemm operands.
        let shape = LuShape { m: 64, n: 64, nb: 16 };
        let mch = MachineConfig::power5(); // 16 MB cache >> 32 KB matrix
        for t in LuDag::build(shape, 1).tasks() {
            if matches!(t, Task::Trsm { .. } | Task::Gemm { .. }) {
                assert_eq!(
                    modeled_cache_traffic(&shape, *t, &mch, TileLocality::Flat),
                    modeled_cache_traffic(&shape, *t, &mch, TileLocality::TileMajor),
                    "{t}"
                );
            }
        }
    }

    #[test]
    fn first_left_swap_waits_for_all_readers_of_l() {
        // Swap(1, 0) must depend on every Gemm(0, ·, ·) (readers of L₂₁)
        // and every PanelApply(0, ·) (its per-tile writers).
        let g = dag(96, 96, 32, 1);
        let target = g.tasks().iter().position(|t| matches!(t, Task::Swap { k: 1, j: 0 })).unwrap();
        for id in 0..g.len() {
            if matches!(g.tasks()[id], Task::Gemm { k: 0, .. } | Task::PanelApply { k: 0, .. }) {
                assert!(
                    g.successors(id).contains(&target),
                    "{} must precede Swap(1,0)",
                    g.tasks()[id]
                );
            }
        }
    }

    #[test]
    fn tree_edges_fold_candidates_to_the_finish() {
        // 5 leaf tiles at step 0: levels [5, 3, 2, 1]. Node (1,2) is a
        // pass-through (leaf 4 has no partner), so the level-2 reduce
        // folds (1,0)'s winner with leaf 4 directly.
        let g = dag(5 * 32, 4 * 32, 32, 1);
        let find = |t: Task| g.tasks().iter().position(|&x| x == t).unwrap();
        let r10 = find(Task::PanelReduce { k: 0, level: 1, ti: 0, tj: 1 });
        let r11 = find(Task::PanelReduce { k: 0, level: 1, ti: 2, tj: 3 });
        let r20 = find(Task::PanelReduce { k: 0, level: 2, ti: 0, tj: 2 });
        let r30 = find(Task::PanelReduce { k: 0, level: 3, ti: 0, tj: 4 });
        let fin = find(Task::PanelFinish { k: 0 });
        assert!(g.successors(r10).contains(&r20));
        assert!(g.successors(r11).contains(&r20));
        assert!(g.successors(r20).contains(&r30));
        assert!(g.successors(find(Task::PanelElect { k: 0, ti: 4 })).contains(&r30));
        assert!(g.successors(r30).contains(&fin));
        // Every elect reaches the finish transitively; leaves 0..4 feed
        // their level-1 parents (or the root, for the odd leaf).
        assert!(g.successors(find(Task::PanelElect { k: 0, ti: 0 })).contains(&r10));
        assert!(g.successors(find(Task::PanelElect { k: 0, ti: 3 })).contains(&r11));
        // Applies hang off the finish and feed their tile row's gemms.
        let a2 = find(Task::PanelApply { k: 0, ti: 2 });
        assert!(g.successors(fin).contains(&a2));
        assert!(g.successors(a2).contains(&find(Task::Gemm { k: 0, i: 2, j: 1 })));
    }

    #[test]
    fn elects_gate_per_tile_and_finish_is_the_panel_boundary() {
        let g = dag(160, 160, 32, 1);
        let find = |t: Task| g.tasks().iter().position(|&x| x == t).unwrap();
        // Per-tile refinement: Elect(1, ti) waits on Gemm(0, ti, 1) only.
        let e13 = find(Task::PanelElect { k: 1, ti: 3 });
        assert!(g.successors(find(Task::Gemm { k: 0, i: 3, j: 1 })).contains(&e13));
        assert!(!g.successors(find(Task::Gemm { k: 0, i: 2, j: 1 })).contains(&e13));
        // Depth-1 throttle: step-1 tasks gate the elects of step 3.
        let e3 = find(Task::PanelElect { k: 3, ti: 4 });
        let throttled =
            (0..g.len()).any(|id| g.tasks()[id].step() == 1 && g.successors(id).contains(&e3));
        assert!(throttled, "depth-1 throttle edge missing on elect");
        // Finish is the panel boundary: the trailing swap hangs off it.
        let fin = find(Task::PanelFinish { k: 1 });
        assert!(g.successors(fin).contains(&find(Task::Swap { k: 1, j: 2 })));
        assert!(g.successors(fin).contains(&find(Task::Swap { k: 1, j: 0 })));
    }

    #[test]
    fn panel_tree_helpers_agree_on_pass_throughs() {
        assert_eq!(panel_tree_levels(1), vec![1]);
        assert_eq!(panel_tree_levels(5), vec![5, 3, 2, 1]);
        assert_eq!(panel_tree_levels(0), vec![0]);
        // Node (1,2) over 5 leaves has only leaf 4 → resolves to the leaf.
        assert_eq!(panel_tree_resolve(5, 1, 2), (0, 4));
        // Node (2,1) covers leaves {4} only → same leaf.
        assert_eq!(panel_tree_resolve(5, 2, 1), (0, 4));
        // Two-child nodes store themselves.
        assert_eq!(panel_tree_resolve(5, 1, 0), (1, 0));
        assert_eq!(panel_tree_resolve(5, 3, 0), (3, 0));
    }

    #[test]
    fn empty_and_single_panel_shapes() {
        // A single-tile panel degenerates to elect -> finish.
        let g = dag(40, 40, 64, 1);
        assert_eq!(g.len(), 2, "single panel, nothing else");
        assert!(matches!(g.tasks()[0], Task::PanelElect { k: 0, ti: 0 }));
        assert!(matches!(g.tasks()[1], Task::PanelFinish { k: 0 }));
        assert!(g.successors(0).contains(&1));
        let e = LuDag::build(LuShape { m: 0, n: 16, nb: 8 }, 1);
        assert!(e.is_empty());
    }
}
