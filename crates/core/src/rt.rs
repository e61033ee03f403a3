//! CALU on the `calu-runtime` task DAG — the shared-memory execution
//! engine behind [`tiled_calu_inplace`](crate::tiled::tiled_calu_inplace),
//! exposed directly as [`runtime_calu_inplace`] for callers that want to
//! pick the executor and lookahead depth.
//!
//! The runtime schedules; this module supplies the kernels: a
//! [`calu_runtime::TaskRunner`] whose task bodies are the *same* calls the
//! sequential sweep makes under [`PanelMode::Resident`], carved into
//! tile granularity. Why the factors are **bitwise identical** to
//! [`calu_inplace`](crate::calu::calu_inplace) with
//! [`PanelMode::Resident`] under *any* topological execution order:
//!
//! * the panel subgraph runs the steps of the sequential sweep's
//!   tile-leaf TSLU (`tslu_factor_tiles`) one task each:
//!   per-tile elections, the same pairwise fold (the tree is a pure
//!   function of the tile count, so the winners do not depend on which
//!   reduce ran first), the top tile's elimination, and per-tile `L₂₁`;
//! * row swaps applied per block column are the same element swaps as one
//!   whole-matrix `apply_ipiv`;
//! * `trsm` forward-substitutes each column of `U₁₂` independently, so a
//!   column split changes nothing;
//! * `gemm` accumulates every `C(i,j)` along the inner (panel-width)
//!   dimension in a fixed order regardless of how `C` is partitioned, so
//!   tile splits of the trailing update are exact;
//! * every read/write overlap between tasks is ordered by a DAG edge
//!   (see `calu_runtime::dag`), so there are no racy interleavings to
//!   reorder arithmetic.
//!
//! The observer is shared behind a mutex, locked per callback (so a
//! concurrent tile's `on_stage` never waits out a panel); its statistics
//! are order-free (documented on [`crate::instrument::PivotStats`]), and
//! the pivot events — the only ordered ones — all come from one
//! `PanelFinish` per step, serialized by the panel chain.
//!
//! [`PanelMode::Resident`]: crate::calu::PanelMode::Resident

use calu_matrix::blas3::{gemm, trsm};
use calu_matrix::lapack::lu_nopiv;
use calu_matrix::perm::apply_ipiv;
use calu_matrix::{
    Diag, Error, MatViewMut, Matrix, NoObs, PivotObserver, Result, Scalar, Side, TileLayout,
    TileMatrix, Uplo,
};
use calu_runtime::{
    panel_tree_levels, panel_tree_resolve, ExecReport, ExecutorKind, LuDag, LuShape, Task,
    TaskRunner,
};
use std::sync::Mutex;

use crate::calu::{CaluOpts, LuFactors};
use crate::tournament::{reduce_pair, Candidates};
use crate::tslu::{apply_l21, elect_block, winners_to_ipiv};

/// How a runtime-scheduled factorization should execute.
#[derive(Debug, Clone, Copy)]
pub struct RuntimeOpts {
    /// Panel lookahead depth `d ≥ 1`: panels may run up to `d` steps ahead
    /// of the slowest trailing update. Depth 1 is the schedule of the old
    /// hardwired lookahead; `usize::MAX/2`-ish values mean "unthrottled".
    pub lookahead: usize,
    /// Which executor drives the DAG.
    pub executor: ExecutorKind,
}

impl Default for RuntimeOpts {
    fn default() -> Self {
        Self { lookahead: 1, executor: ExecutorKind::Threaded { threads: 0 } }
    }
}

/// Shared-mutable handle to the matrix being factored. Tasks carve
/// disjoint views out of it; the DAG's edges are the proof of
/// disjointness among concurrently running tasks (every overlapping pair
/// is ordered), which is exactly the invariant `MatViewMut` requires.
pub(crate) struct SharedMat<T> {
    ptr: *mut T,
    rows: usize,
    cols: usize,
    ld: usize,
}

unsafe impl<T: Send> Send for SharedMat<T> {}
unsafe impl<T: Sync> Sync for SharedMat<T> {}

impl<T: Scalar> SharedMat<T> {
    pub(crate) fn new(a: &mut MatViewMut<'_, T>) -> Self {
        let rows = a.rows();
        let cols = a.cols();
        let ld = a.ld();
        let ptr =
            if rows == 0 || cols == 0 { std::ptr::null_mut() } else { a.col_mut(0).as_mut_ptr() };
        Self { ptr, rows, cols, ld }
    }

    /// A mutable view of the block `rows × cols` at `(i, j)`, built from
    /// raw parts so that logically disjoint blocks whose strided spans
    /// interleave never materialize overlapping `&mut` slices.
    ///
    /// # Safety
    /// The caller must hold (via DAG ordering) exclusive access to the
    /// block's *elements* for the view's lifetime, and the block must be
    /// in range.
    pub(crate) unsafe fn block(
        &self,
        i: usize,
        j: usize,
        nr: usize,
        nc: usize,
    ) -> MatViewMut<'_, T> {
        debug_assert!(i + nr <= self.rows && j + nc <= self.cols);
        debug_assert!(nr > 0 && nc > 0, "tasks never touch empty blocks");
        unsafe { MatViewMut::from_raw_parts(self.ptr.add(j * self.ld + i), nr, nc, self.ld) }
    }
}

/// Shared pivot vector: `PanelFinish(k)` writes its `jb` slots
/// exclusively ([`Self::write`]), `Swap(k, ·)` tasks read them back
/// concurrently ([`Self::read`] — several same-step swaps may read at
/// once, so the read path hands out shared references only). Writes
/// happen-before all reads via the `Swap ← PanelFinish` edges (the
/// executor's pool lock carries the synchronization), and distinct panels
/// own disjoint slots.
struct SharedIpiv {
    ptr: *mut usize,
    len: usize,
}

unsafe impl Send for SharedIpiv {}
unsafe impl Sync for SharedIpiv {}

impl SharedIpiv {
    /// # Safety
    /// Only the `PanelFinish` task owning `range` may call this, and nothing
    /// else may access the range while the returned slice lives. (The
    /// `&self → &mut` shape is the whole point of the cell: the DAG, not
    /// the borrow checker, proves exclusivity.)
    #[allow(clippy::mut_from_ref)]
    unsafe fn write(&self, range: std::ops::Range<usize>) -> &mut [usize] {
        debug_assert!(range.end <= self.len);
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(range.start), range.len()) }
    }

    /// # Safety
    /// The caller's task must be DAG-ordered after the `PanelFinish` that
    /// wrote `range` (no writer may be live; concurrent readers are fine).
    unsafe fn read(&self, range: std::ops::Range<usize>) -> &[usize] {
        debug_assert!(range.end <= self.len);
        unsafe { std::slice::from_raw_parts(self.ptr.add(range.start), range.len()) }
    }

    /// Panel `k`'s pivot swaps, local to rows `k·nb..m` — the read-back
    /// both the flat and the tile runner use in their `Swap` tasks.
    ///
    /// # Safety
    /// The caller's task must be DAG-ordered after `PanelFinish(k)`.
    unsafe fn read_local(&self, shape: &LuShape, k: usize) -> Vec<usize> {
        let base = k * shape.nb;
        let jb = shape.panel_width(k);
        unsafe { self.read(base..base + jb) }.iter().map(|&p| p - base).collect()
    }

    /// Publishes a panel's elected pivots (local to the panel) into their
    /// absolute slots — the write-back both runners' `PanelFinish` tasks
    /// use.
    ///
    /// # Safety
    /// Only the `PanelFinish` task owning the slots at `base` may call this.
    unsafe fn publish(&self, base: usize, local: &[usize]) {
        let slots = unsafe { self.write(base..base + local.len()) };
        for (slot, &p) in slots.iter_mut().zip(local) {
            *slot = p + base;
        }
    }
}

/// Rebases a panel kernel's `SingularPivot` step (local to the panel
/// starting at row `base`) to the absolute elimination step.
fn rebase_singular(base: usize) -> impl Fn(Error) -> Error {
    move |e| match e {
        Error::SingularPivot { step } => Error::SingularPivot { step: step + base },
        other => other,
    }
}

/// Forwards observer callbacks through the shared mutex, locking per
/// event rather than per task — a concurrent `Gemm` tile's `on_stage`
/// never waits out a whole panel factorization, only one callback.
struct MutexObs<'a, 'o, O>(&'a Mutex<&'o mut O>);

impl<T: Scalar, O: PivotObserver<T> + Send> PivotObserver<T> for MutexObs<'_, '_, O> {
    fn on_pivot(&mut self, step: usize, pivot: T, col_max: T) {
        self.0.lock().expect("observer mutex poisoned").on_pivot(step, pivot, col_max);
    }

    fn on_stage(&mut self, changed: &calu_matrix::MatView<'_, T>) {
        self.0.lock().expect("observer mutex poisoned").on_stage(changed);
    }

    fn on_multipliers(&mut self, col_below_diag: &[T]) {
        self.0.lock().expect("observer mutex poisoned").on_multipliers(col_below_diag);
    }
}

/// Per-step candidate-slot store of the panel subgraph: one slot per
/// tournament-tree node (leaves included), written exactly once by the
/// node's `PanelElect`/`PanelReduce` task and taken exactly once by its
/// parent (or by `PanelFinish` at the root). The tree edges order every
/// write before its read; the per-slot mutex only publishes the memory
/// across workers — it is never contended beyond that handoff. Slot
/// placement uses the same [`panel_tree_resolve`] the DAG builder uses for
/// edge endpoints, so both sides agree on where each subtree's winners
/// live.
struct ResidentPanels<T> {
    steps: Vec<StepSlots<T>>,
}

struct StepSlots<T> {
    /// Leaf count: tiles spanned by this step's panel.
    t: usize,
    /// Flat-slot offset of each tree level.
    offsets: Vec<usize>,
    slots: Vec<Mutex<Option<Candidates<T>>>>,
}

impl<T: Scalar> ResidentPanels<T> {
    fn new(shape: &LuShape) -> Self {
        let rb = shape.row_blocks();
        let steps = (0..shape.steps())
            .map(|k| {
                let t = rb - k;
                let counts = panel_tree_levels(t);
                let mut offsets = Vec::with_capacity(counts.len());
                let mut total = 0usize;
                for &c in &counts {
                    offsets.push(total);
                    total += c;
                }
                StepSlots { t, offsets, slots: (0..total).map(|_| Mutex::new(None)).collect() }
            })
            .collect();
        Self { steps }
    }

    fn put(&self, k: usize, level: usize, i: usize, cand: Candidates<T>) {
        let s = &self.steps[k];
        let prev = s.slots[s.offsets[level] + i].lock().expect("slot mutex").replace(cand);
        debug_assert!(prev.is_none(), "candidate slot written twice");
    }

    /// Takes subtree node `(level, i)`'s candidate set, resolving
    /// pass-through single-child nodes down to the producing descendant.
    fn take(&self, k: usize, level: usize, i: usize) -> Candidates<T> {
        let s = &self.steps[k];
        let (l, i) = panel_tree_resolve(s.t, level, i);
        s.slots[s.offsets[l] + i]
            .lock()
            .expect("slot mutex")
            .take()
            .expect("candidate produced by a DAG-ordered predecessor")
    }

    /// `PanelReduce(k, level, ti, ·)` body shared by both runners: folds
    /// the node's two child subtrees, lower tiles first.
    fn reduce(&self, k: usize, level: usize, ti: usize) {
        let i = (ti - k) >> level;
        let lo = self.take(k, level - 1, 2 * i);
        let hi = self.take(k, level - 1, 2 * i + 1);
        self.put(k, level, i, reduce_pair(&lo, &hi));
    }

    /// Takes step `k`'s tournament winners as a swap sequence local to the
    /// panel's `rows` rows — the head of both runners' `PanelFinish`.
    fn winners(&self, k: usize, rows: usize) -> Vec<usize> {
        let root = self.take(k, self.steps[k].offsets.len() - 1, 0);
        winners_to_ipiv(&root.rows, rows)
    }
}

/// Binds the LU kernels to runtime tasks over one matrix.
struct LuRunner<'a, T, O> {
    mat: SharedMat<T>,
    ipiv: SharedIpiv,
    shape: LuShape,
    opts: CaluOpts,
    resident: ResidentPanels<T>,
    obs: Mutex<&'a mut O>,
}

impl<T: Scalar, O: PivotObserver<T> + Send> TaskRunner for LuRunner<'_, T, O> {
    fn run(&self, task: Task) -> Result<()> {
        let (m, nb) = (self.shape.m, self.shape.nb);
        match task {
            Task::PanelElect { k, ti } => {
                let base = k * nb;
                let jb = self.shape.panel_width(k);
                let rows = self.shape.row_range(ti);
                // SAFETY: the elect only reads its own tile's rows of
                // block column k (its gemm predecessor is done; the next
                // writer, PanelFinish, is DAG-ordered after it through the
                // reduce tree).
                let block = unsafe { self.mat.block(rows.start, base, rows.len(), jb) };
                let cand = elect_block(block.as_view(), rows.start - base, self.opts.local);
                self.resident.put(k, 0, ti - k, cand);
                Ok(())
            }
            Task::PanelReduce { k, level, ti, .. } => {
                self.resident.reduce(k, level, ti);
                Ok(())
            }
            Task::PanelFinish { k } => {
                let base = k * nb;
                let jb = self.shape.panel_width(k);
                let local = self.resident.winners(k, m - base);
                // Swap the tournament winners to the top of the panel's
                // own block column (every elect is DAG-ordered before this
                // task through the reduce tree, every later toucher after
                // it; the Swap tasks handle all other columns).
                // SAFETY: Finish exclusively owns rows base..m of block
                // column k and the step's ipiv slots.
                let panel = unsafe { self.mat.block(base, base, m - base, jb) };
                apply_ipiv(panel, &local);
                // Factor the diagonal block's rows (jb ≤ h_k): rows
                // 0..h_k of the pivoted panel fully determine their own
                // elimination, so this is self-contained — and where a
                // genuinely singular panel surfaces.
                let h = self.shape.row_range(k).len();
                let diag = unsafe { self.mat.block(base, base, h, jb) };
                let mut obs = MutexObs(&self.obs);
                lu_nopiv(diag, &mut obs).map_err(rebase_singular(base))?;
                unsafe { self.ipiv.publish(base, &local) };
                Ok(())
            }
            Task::PanelApply { k, ti } => {
                let base = k * nb;
                let jb = self.shape.panel_width(k);
                let rows = self.shape.row_range(ti);
                // SAFETY: the apply owns its tile's rows of block column
                // k; U₁₁ is stable under concurrent readers (sibling
                // applies and this step's trsms all read it).
                let u11 = unsafe { self.mat.block(base, base, jb, jb) };
                let tile = unsafe { self.mat.block(rows.start, base, rows.len(), jb) };
                let mut obs = MutexObs(&self.obs);
                apply_l21(u11.as_view(), tile, &mut obs);
                Ok(())
            }
            Task::Swap { k, j } => {
                let base = k * nb;
                let local = unsafe { self.ipiv.read_local(&self.shape, k) };
                let cols = self.shape.update_col_range(k, j);
                // SAFETY: Swap(k,j) owns rows base..m of block column j.
                let block = unsafe { self.mat.block(base, cols.start, m - base, cols.len()) };
                apply_ipiv(block, &local);
                Ok(())
            }
            Task::Trsm { k, j } => {
                let base = k * nb;
                let jb = self.shape.panel_width(k);
                let cols = self.shape.update_col_range(k, j);
                // SAFETY: Trsm(k,j) owns rows base..base+jb of block
                // column j and (shared, read-only among readers that are
                // all ordered before the next writer) L₁₁ of column k.
                let l11 = unsafe { self.mat.block(base, base, jb, jb) };
                let u12 = unsafe { self.mat.block(base, cols.start, jb, cols.len()) };
                trsm(Side::Left, Uplo::Lower, Diag::Unit, T::ONE, l11.as_view(), u12);
                Ok(())
            }
            Task::Gemm { k, i, j } => {
                let base = k * nb;
                let jb = self.shape.panel_width(k);
                let rows = self.shape.row_range(i);
                let cols = self.shape.col_range(j);
                // SAFETY: Gemm(k,i,j) owns its trailing tile; L₂₁ and U₁₂
                // are stable until the swaps that are DAG-ordered after
                // every gemm of step k.
                let l21 = unsafe { self.mat.block(rows.start, base, rows.len(), jb) };
                let u12 = unsafe { self.mat.block(base, cols.start, jb, cols.len()) };
                let tile =
                    unsafe { self.mat.block(rows.start, cols.start, rows.len(), cols.len()) };
                gemm(-T::ONE, l21.as_view(), u12.as_view(), T::ONE, tile);
                let tile =
                    unsafe { self.mat.block(rows.start, cols.start, rows.len(), cols.len()) };
                self.obs.lock().expect("observer mutex poisoned").on_stage(&tile.as_view());
                Ok(())
            }
            Task::Dist(_) | Task::Solve(_) => {
                unreachable!("factorization runner received a dist/solve task")
            }
        }
    }
}

/// Shared-mutable handle to a [`TileMatrix`] being factored — the
/// tile-major counterpart of [`SharedMat`]. Tasks carve views out of
/// single tiles (every operand of `Trsm`/`Gemm` and of the panel
/// subgraph's per-tile tasks lives inside one tile, which is the point of
/// the layout); only the cross-tile row swaps walk several tiles, and the
/// DAG's edges order every overlapping pair of tasks.
struct SharedTiles<T> {
    ptr: *mut T,
    layout: TileLayout,
}

unsafe impl<T: Send> Send for SharedTiles<T> {}
unsafe impl<T: Sync> Sync for SharedTiles<T> {}

impl<T: Scalar> SharedTiles<T> {
    fn new(a: &mut TileMatrix<T>) -> Self {
        Self { ptr: a.as_mut_slice().as_mut_ptr(), layout: a.layout() }
    }

    /// Mutable view of the `nr x nc` block at `(i0, j0)` *inside tile
    /// `(ti, tj)`* (tile-local coordinates). The view's leading dimension
    /// is the tile height, so the block is cache-contained.
    ///
    /// # Safety
    /// The caller must hold (via DAG ordering) exclusive access to the
    /// block's elements for the view's lifetime, and the block must be in
    /// range of the tile.
    unsafe fn tile_block(
        &self,
        ti: usize,
        tj: usize,
        i0: usize,
        j0: usize,
        nr: usize,
        nc: usize,
    ) -> MatViewMut<'_, T> {
        let h = self.layout.tile_height(ti);
        debug_assert!(i0 + nr <= h && j0 + nc <= self.layout.tile_width(tj));
        debug_assert!(nr > 0 && nc > 0, "tasks never touch empty blocks");
        let off = self.layout.tile_offset(ti, tj) + j0 * h + i0;
        unsafe { MatViewMut::from_raw_parts(self.ptr.add(off), nr, nc, h) }
    }

    /// Applies a swap sequence local to rows `base..` (row `base + i` <->
    /// row `base + local[i]`) across the global column range `cols`,
    /// crossing tile boundaries — the same element swaps a flat
    /// `apply_ipiv` performs.
    ///
    /// # Safety
    /// The caller's task must own rows `base..` over `cols` (DAG-ordered
    /// against every other toucher).
    unsafe fn apply_ipiv(&self, base: usize, local: &[usize], cols: std::ops::Range<usize>) {
        for (i, &p) in local.iter().enumerate() {
            if p == i {
                continue;
            }
            for j in cols.clone() {
                unsafe {
                    let a = self.ptr.add(self.layout.elem_offset(base + i, j));
                    let b = self.ptr.add(self.layout.elem_offset(base + p, j));
                    std::ptr::swap(a, b);
                }
            }
        }
    }
}

/// Binds the LU kernels to runtime tasks over tile-major storage. The
/// task set, DAG, and executors are exactly those of [`LuRunner`]; only
/// operand addressing differs — every task body except the row swaps
/// reads and writes single contiguous tiles.
struct LuTileRunner<'a, T, O> {
    tiles: SharedTiles<T>,
    ipiv: SharedIpiv,
    shape: LuShape,
    opts: CaluOpts,
    resident: ResidentPanels<T>,
    obs: Mutex<&'a mut O>,
}

impl<T: Scalar, O: PivotObserver<T> + Send> TaskRunner for LuTileRunner<'_, T, O> {
    fn run(&self, task: Task) -> Result<()> {
        let (m, nb) = (self.shape.m, self.shape.nb);
        match task {
            Task::PanelElect { k, ti } => {
                let base = k * nb;
                let jb = self.shape.panel_width(k);
                let h = self.shape.row_range(ti).len();
                // SAFETY: reads its own resident tile's panel columns
                // only; the next writer (PanelFinish's cross-tile swaps)
                // is DAG-ordered after it through the reduce tree.
                let src = unsafe { self.tiles.tile_block(ti, k, 0, 0, h, jb) };
                let cand = elect_block(src.as_view(), ti * nb - base, self.opts.local);
                self.resident.put(k, 0, ti - k, cand);
                Ok(())
            }
            Task::PanelReduce { k, level, ti, .. } => {
                self.resident.reduce(k, level, ti);
                Ok(())
            }
            Task::PanelFinish { k } => {
                let base = k * nb;
                let jb = self.shape.panel_width(k);
                let local = self.resident.winners(k, m - base);
                // Cross-tile winner swaps on the panel's own columns; the
                // Swap tasks handle every other column.
                // SAFETY: Finish exclusively owns rows base..m of block
                // column k (all elects are ordered before it, all applies
                // and swaps after) and the step's ipiv slots.
                unsafe { self.tiles.apply_ipiv(base, &local, base..base + jb) };
                let h = self.shape.row_range(k).len();
                let diag = unsafe { self.tiles.tile_block(k, k, 0, 0, h, jb) };
                let mut obs = MutexObs(&self.obs);
                lu_nopiv(diag, &mut obs).map_err(rebase_singular(base))?;
                unsafe { self.ipiv.publish(base, &local) };
                Ok(())
            }
            Task::PanelApply { k, ti } => {
                let jb = self.shape.panel_width(k);
                let h = self.shape.row_range(ti).len();
                // SAFETY: the apply owns tile (ti, k); U₁₁ (tile (k,k))
                // is stable under concurrent readers.
                let u11 = unsafe { self.tiles.tile_block(k, k, 0, 0, jb, jb) };
                let tile = unsafe { self.tiles.tile_block(ti, k, 0, 0, h, jb) };
                let mut obs = MutexObs(&self.obs);
                apply_l21(u11.as_view(), tile, &mut obs);
                Ok(())
            }
            Task::Swap { k, j } => {
                let base = k * nb;
                let local = unsafe { self.ipiv.read_local(&self.shape, k) };
                let cols = self.shape.update_col_range(k, j);
                // SAFETY: Swap(k,j) owns rows base..m of these columns.
                unsafe { self.tiles.apply_ipiv(base, &local, cols) };
                Ok(())
            }
            Task::Trsm { k, j } => {
                let jb = self.shape.panel_width(k);
                let cols = self.shape.update_col_range(k, j);
                let j0 = cols.start - j * nb;
                // SAFETY: Trsm(k,j) owns rows 0..jb of these columns of
                // tile (k,j); L₁₁ (tile (k,k)) is stable under readers.
                let l11 = unsafe { self.tiles.tile_block(k, k, 0, 0, jb, jb) };
                let u12 = unsafe { self.tiles.tile_block(k, j, 0, j0, jb, cols.len()) };
                trsm(Side::Left, Uplo::Lower, Diag::Unit, T::ONE, l11.as_view(), u12);
                Ok(())
            }
            Task::Gemm { k, i, j } => {
                let jb = self.shape.panel_width(k);
                let h = self.shape.row_range(i).len();
                let w = self.shape.col_range(j).len();
                // SAFETY: Gemm(k,i,j) owns tile (i,j); L₂₁ (tile (i,k))
                // and U₁₂ (tile (k,j) top rows) are stable until the
                // swaps DAG-ordered after every gemm of step k.
                let l21 = unsafe { self.tiles.tile_block(i, k, 0, 0, h, jb) };
                let u12 = unsafe { self.tiles.tile_block(k, j, 0, 0, jb, w) };
                let tile = unsafe { self.tiles.tile_block(i, j, 0, 0, h, w) };
                gemm(-T::ONE, l21.as_view(), u12.as_view(), T::ONE, tile);
                let tile = unsafe { self.tiles.tile_block(i, j, 0, 0, h, w) };
                self.obs.lock().expect("observer mutex poisoned").on_stage(&tile.as_view());
                Ok(())
            }
            Task::Dist(_) | Task::Solve(_) => {
                unreachable!("factorization runner received a dist/solve task")
            }
        }
    }
}

/// In-place CALU scheduled by the task-graph runtime, plus an
/// [`ExecReport`] of what actually ran where. Factors and pivots are
/// bitwise identical to [`calu_inplace`](crate::calu::calu_inplace) with
/// [`PanelMode::Resident`] at every lookahead depth and on both executors.
///
/// Panels always factor through the per-tile tournament subgraph, so
/// `opts.panel_mode` and `opts.p` are ignored; the observer's per-step
/// pivot thresholds are measured within the diagonal tile.
///
/// The observer sees the same events as the sequential sweep; only their
/// order differs (trailing-update stages arrive per tile, concurrent with
/// later panels), so order-free implementations like
/// [`PivotStats`](crate::instrument::PivotStats) record identical
/// statistics.
///
/// # Errors
/// [`Error::SingularPivot`] with the **absolute** elimination step; all
/// tasks depending on the failed panel are canceled.
///
/// [`PanelMode::Resident`]: crate::calu::PanelMode::Resident
pub fn runtime_calu_inplace<T: Scalar, O: PivotObserver<T> + Send>(
    mut a: MatViewMut<'_, T>,
    opts: CaluOpts,
    rt: RuntimeOpts,
    obs: &mut O,
) -> Result<(Vec<usize>, ExecReport)> {
    assert!(opts.block > 0, "block must be positive");
    let shape = LuShape { m: a.rows(), n: a.cols(), nb: opts.block };
    let mut ipiv = vec![0usize; shape.m.min(shape.n)];
    let dag = LuDag::build(shape, rt.lookahead);
    let runner = LuRunner {
        mat: SharedMat::new(&mut a),
        ipiv: SharedIpiv { ptr: ipiv.as_mut_ptr(), len: ipiv.len() },
        shape,
        opts,
        resident: ResidentPanels::new(&shape),
        obs: Mutex::new(obs),
    };
    let report = rt.executor.execute(&dag, &runner)?;
    Ok((ipiv, report))
}

/// Factors a copy of `a` on the runtime; see [`runtime_calu_inplace`].
///
/// # Errors
/// Singular pivot (exact zero) at the reported absolute step.
pub fn runtime_calu_factor<T: Scalar>(
    a: &Matrix<T>,
    opts: CaluOpts,
    rt: RuntimeOpts,
) -> Result<(LuFactors<T>, ExecReport)> {
    let mut lu = a.clone();
    let (ipiv, report) = runtime_calu_inplace(lu.view_mut(), opts, rt, &mut NoObs)?;
    Ok((LuFactors { lu, ipiv }, report))
}

/// In-place CALU over **tile-major** storage, scheduled by the task-graph
/// runtime: the same DAG, executors, priorities, and bitwise-vs-sequential
/// guarantee as [`runtime_calu_inplace`], with operand addressing moved to
/// cache-contained tiles — every task body except the row swaps touches
/// single contiguous tiles of the [`TileMatrix`], and row swaps cross tile
/// boundaries element-for-element.
///
/// The tile dimensions must both equal `opts.block` (the DAG's block
/// geometry *is* the storage geometry — that 1:1 mapping is the point of
/// the layout). Converting the result back with
/// [`TileMatrix::to_matrix`] yields factors bitwise identical to
/// [`calu_inplace`](crate::calu::calu_inplace) with
/// [`PanelMode::Resident`] on the flat copy.
///
/// # Panics
/// If `a`'s tile dimensions differ from `opts.block`.
///
/// # Errors
/// [`Error::SingularPivot`] with the absolute elimination step; dependent
/// tasks are canceled.
///
/// [`PanelMode::Resident`]: crate::calu::PanelMode::Resident
pub fn runtime_calu_tiles<T: Scalar, O: PivotObserver<T> + Send>(
    a: &mut TileMatrix<T>,
    opts: CaluOpts,
    rt: RuntimeOpts,
    obs: &mut O,
) -> Result<(Vec<usize>, ExecReport)> {
    assert!(opts.block > 0, "block must be positive");
    let layout = a.layout();
    assert_eq!(
        (layout.mb(), layout.nb()),
        (opts.block, opts.block),
        "tile dims must equal the runtime block size"
    );
    let shape = LuShape { m: a.rows(), n: a.cols(), nb: opts.block };
    let mut ipiv = vec![0usize; shape.m.min(shape.n)];
    let dag = LuDag::build(shape, rt.lookahead);
    let runner = LuTileRunner {
        tiles: SharedTiles::new(a),
        ipiv: SharedIpiv { ptr: ipiv.as_mut_ptr(), len: ipiv.len() },
        shape,
        opts,
        resident: ResidentPanels::new(&shape),
        obs: Mutex::new(obs),
    };
    let report = rt.executor.execute(&dag, &runner)?;
    Ok((ipiv, report))
}

/// Factors a tile-major copy of `a` on the runtime (convenience wrapper:
/// converts, runs [`runtime_calu_tiles`], returns the factored tiles).
///
/// # Errors
/// Singular pivot (exact zero) at the reported absolute step.
pub fn runtime_calu_tiles_factor<T: Scalar>(
    a: &Matrix<T>,
    opts: CaluOpts,
    rt: RuntimeOpts,
) -> Result<(TileMatrix<T>, Vec<usize>, ExecReport)> {
    let mut tiles = TileMatrix::from_matrix(a, opts.block, opts.block);
    let (ipiv, report) = runtime_calu_tiles(&mut tiles, opts, rt, &mut NoObs)?;
    Ok((tiles, ipiv, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calu::{calu_factor, calu_inplace, PanelMode};
    use crate::instrument::PivotStats;
    use calu_matrix::gen;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn executors() -> [ExecutorKind; 3] {
        [
            ExecutorKind::Serial,
            ExecutorKind::Threaded { threads: 2 },
            ExecutorKind::Threaded { threads: 4 },
        ]
    }

    /// The sequential oracle's options: the runtime's tile-leaf tree.
    fn resident(block: usize, p: usize) -> CaluOpts {
        CaluOpts { block, p, panel_mode: PanelMode::Resident, ..Default::default() }
    }

    #[test]
    fn runtime_matches_sequential_bitwise_all_depths_and_executors() {
        let mut rng = StdRng::seed_from_u64(900);
        for &(m, n, b, p) in &[
            (96usize, 96usize, 16usize, 4usize),
            (130, 130, 32, 8),
            (100, 60, 16, 4),
            (60, 100, 16, 4),
            (97, 97, 16, 3),
        ] {
            let a0: Matrix = gen::randn(&mut rng, m, n);
            let opts = resident(b, p);
            let seq = calu_factor(&a0, opts).unwrap();
            for depth in 1..=3 {
                for executor in executors() {
                    let rt = RuntimeOpts { lookahead: depth, executor };
                    let (f, rep) = runtime_calu_factor(&a0, opts, rt).unwrap();
                    assert_eq!(seq.ipiv, f.ipiv, "{m}x{n} b={b} d={depth} {executor:?}");
                    assert_eq!(
                        seq.lu.max_abs_diff(&f.lu),
                        0.0,
                        "{m}x{n} b={b} d={depth} {executor:?}: factors must be bitwise identical"
                    );
                    assert_eq!(rep.order.len(), rep.timings.len());
                }
            }
        }
    }

    #[test]
    fn tile_runtime_matches_sequential_bitwise_all_depths_and_executors() {
        let mut rng = StdRng::seed_from_u64(905);
        for &(m, n, b, p) in &[
            (96usize, 96usize, 16usize, 4usize),
            (130, 130, 32, 8),
            (100, 60, 16, 4),
            (60, 100, 16, 4),
            (97, 97, 16, 3), // ragged edge tiles in both dimensions
        ] {
            let a0: Matrix = gen::randn(&mut rng, m, n);
            let opts = resident(b, p);
            let seq = calu_factor(&a0, opts).unwrap();
            for depth in 1..=3 {
                for executor in executors() {
                    let rt = RuntimeOpts { lookahead: depth, executor };
                    let (tiles, ipiv, rep) = runtime_calu_tiles_factor(&a0, opts, rt).unwrap();
                    assert_eq!(seq.ipiv, ipiv, "{m}x{n} b={b} d={depth} {executor:?}");
                    assert_eq!(
                        seq.lu.max_abs_diff(&tiles.to_matrix()),
                        0.0,
                        "{m}x{n} b={b} d={depth} {executor:?}: tile factors must be bitwise \
                         identical to sequential"
                    );
                    assert_eq!(rep.order.len(), rep.timings.len());
                }
            }
        }
    }

    #[test]
    fn tile_runtime_observer_stats_match_sequential() {
        let mut rng = StdRng::seed_from_u64(906);
        let a0 = gen::randn(&mut rng, 120, 120);
        let opts = resident(24, 4);

        let mut s_seq = PivotStats::new(a0.max_abs());
        let mut w = a0.clone();
        calu_inplace(w.view_mut(), opts, &mut s_seq).unwrap();

        let mut s_rt = PivotStats::new(a0.max_abs());
        let mut tiles = calu_matrix::TileMatrix::from_matrix(&a0, 24, 24);
        let rt = RuntimeOpts { lookahead: 2, ..Default::default() };
        runtime_calu_tiles(&mut tiles, opts, rt, &mut s_rt).unwrap();

        assert_eq!(s_seq.steps(), s_rt.steps());
        assert_eq!(s_seq.tau_min(), s_rt.tau_min());
        assert_eq!(s_seq.max_elem, s_rt.max_elem);
        assert_eq!(s_seq.max_l, s_rt.max_l);
    }

    #[test]
    fn tile_runtime_singular_reports_absolute_step_and_cancels() {
        let n = 64;
        let mut rng = StdRng::seed_from_u64(907);
        let b = gen::randn(&mut rng, n, 20);
        let a = Matrix::from_fn(n, n, |i, j| if j < 20 { b[(i, j)] } else { 0.0 });
        let opts = CaluOpts { block: 8, p: 4, ..Default::default() };
        for depth in 1..=3 {
            for executor in executors() {
                let rt = RuntimeOpts { lookahead: depth, executor };
                let err = runtime_calu_tiles_factor(&a, opts, rt).unwrap_err();
                assert_eq!(
                    err,
                    Error::SingularPivot { step: 20 },
                    "d={depth} {executor:?}: absolute step"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "tile dims must equal the runtime block size")]
    fn tile_runtime_rejects_mismatched_tile_size() {
        let a: Matrix = Matrix::identity(32);
        let mut tiles = calu_matrix::TileMatrix::from_matrix(&a, 16, 16);
        let opts = CaluOpts { block: 8, p: 2, ..Default::default() };
        let _ = runtime_calu_tiles(&mut tiles, opts, RuntimeOpts::default(), &mut NoObs);
    }

    #[test]
    fn runtime_observer_stats_match_sequential() {
        let mut rng = StdRng::seed_from_u64(901);
        let a0 = gen::randn(&mut rng, 120, 120);
        let opts = resident(24, 4);

        let mut s_seq = PivotStats::new(a0.max_abs());
        let mut w = a0.clone();
        calu_inplace(w.view_mut(), opts, &mut s_seq).unwrap();

        let mut s_rt = PivotStats::new(a0.max_abs());
        let mut w2 = a0.clone();
        let rt = RuntimeOpts { lookahead: 2, ..Default::default() };
        runtime_calu_inplace(w2.view_mut(), opts, rt, &mut s_rt).unwrap();

        assert_eq!(s_seq.steps(), s_rt.steps());
        assert_eq!(s_seq.tau_min(), s_rt.tau_min());
        assert_eq!(s_seq.max_elem, s_rt.max_elem);
        assert_eq!(s_seq.max_l, s_rt.max_l);
    }

    #[test]
    fn runtime_singular_reports_absolute_step_and_cancels() {
        let n = 64;
        // Rank 20: the dead pivot surfaces inside PanelFinish's top-tile
        // elimination and must come back as absolute step 20.
        let mut rng = StdRng::seed_from_u64(902);
        let b = gen::randn(&mut rng, n, 20);
        let a = Matrix::from_fn(n, n, |i, j| if j < 20 { b[(i, j)] } else { 0.0 });
        let opts = CaluOpts { block: 8, p: 4, ..Default::default() };
        for depth in 1..=3 {
            for executor in executors() {
                let rt = RuntimeOpts { lookahead: depth, executor };
                let err = runtime_calu_factor(&a, opts, rt).unwrap_err();
                assert_eq!(
                    err,
                    Error::SingularPivot { step: 20 },
                    "d={depth} {executor:?}: absolute step"
                );
            }
        }
    }

    #[test]
    fn runtime_unthrottled_depth_still_exact() {
        let mut rng = StdRng::seed_from_u64(903);
        let a0: Matrix = gen::randn(&mut rng, 144, 144);
        let opts = resident(16, 4);
        let seq = calu_factor(&a0, opts).unwrap();
        let rt =
            RuntimeOpts { lookahead: 1_000_000, executor: ExecutorKind::Threaded { threads: 3 } };
        let (f, _) = runtime_calu_factor(&a0, opts, rt).unwrap();
        assert_eq!(seq.ipiv, f.ipiv);
        assert_eq!(seq.lu.max_abs_diff(&f.lu), 0.0);
    }

    #[test]
    fn runtime_report_covers_every_task() {
        let mut rng = StdRng::seed_from_u64(904);
        let a0: Matrix = gen::randn(&mut rng, 96, 96);
        let opts = CaluOpts { block: 32, p: 4, ..Default::default() };
        let (_, rep) = runtime_calu_factor(&a0, opts, RuntimeOpts::default()).unwrap();
        let dag = LuDag::build(LuShape { m: 96, n: 96, nb: 32 }, 1);
        assert_eq!(rep.order.len(), dag.len());
        assert!(rep.wall > 0.0);
        assert!(!rep.traces().is_empty());
    }

    #[test]
    fn runtime_ignores_panel_mode_and_p() {
        let mut rng = StdRng::seed_from_u64(910);
        let a0: Matrix = gen::randn(&mut rng, 97, 97);
        let rt = RuntimeOpts { lookahead: 2, executor: ExecutorKind::Serial };
        let (want, _) = runtime_calu_factor(&a0, resident(16, 4), rt).unwrap();
        let gathered = CaluOpts { block: 16, p: 3, ..Default::default() };
        let (f, _) = runtime_calu_factor(&a0, gathered, rt).unwrap();
        assert_eq!(want.ipiv, f.ipiv);
        assert_eq!(want.lu.max_abs_diff(&f.lu), 0.0);
    }

    #[test]
    fn runtime_run_to_run_deterministic() {
        let mut rng = StdRng::seed_from_u64(911);
        let a0: Matrix = gen::randn(&mut rng, 120, 120);
        let opts = CaluOpts { block: 24, ..Default::default() };
        let rt = RuntimeOpts { lookahead: 2, executor: ExecutorKind::Threaded { threads: 4 } };
        let (f1, _) = runtime_calu_factor(&a0, opts, rt).unwrap();
        for _ in 0..3 {
            let (f2, _) = runtime_calu_factor(&a0, opts, rt).unwrap();
            assert_eq!(f1.ipiv, f2.ipiv);
            assert_eq!(f1.lu.max_abs_diff(&f2.lu), 0.0, "run-to-run determinism");
        }
    }
}
