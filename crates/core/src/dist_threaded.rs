//! The distributed task bodies — each of the 14 `DistKind`s written once,
//! as the work of one rank — and the
//! [`CommKind::Threaded`](crate::comm::CommKind::Threaded) driver that
//! runs every rank as an OS thread.
//!
//! A `RankWorker` owns **only its own** block-cyclic
//! [`TileMatrix`](calu_matrix::TileMatrix) storage; everything another
//! rank needs crosses the seam as a point-to-point [`ThreadedComm`]
//! message. Both drivers in [`crate::dist_rt`] run these bodies:
//!
//! * the rank-thread driver (`run_rank_threads`) gives every rank its
//!   projection of the DAG's deterministic
//!   [`serial_schedule`](LuDag::serial_schedule) and runs the queues
//!   concurrently, one thread per rank;
//! * the executor driver hands each DAG task to the body of its rank.
//!
//! # Multi-rank tasks
//!
//! Two task kinds involve a whole process column:
//!
//! * `Swap(k, j)` — cross-owner pivot rows travel as paired `SWP`
//!   messages, item by item in pivot order, so chained pivots stay
//!   exchange-complete;
//! * `PanelGetf2(k)` — the `PDGETF2` picket fence: per column a 3-word
//!   `GCD` candidate all-gather (folded in ascending process-row order),
//!   the winner's trailing row as `GUR`, and the pivot-row exchange as
//!   paired `GRX` messages.
//!
//! Their bodies take a slice of participants and run in phases: every
//! participant posts, then every participant fetches. A rank thread passes
//! `[self]`, and its blocking fetches wait for the peers' threads; the
//! executor driver passes the whole process column, so every payload a
//! phase fetches was posted by the phase before and no fetch ever blocks
//! the executor's thread.
//!
//! Every other task is rank-local; send tasks compute their destination
//! sets from the same geometry and butterfly algebra the DAG builder uses.
//! Fetches are stash-first and blocking, which makes **any** per-rank
//! topological projection deadlock-free: whichever task needs a payload
//! first pulls it from the inbox into the rank's stash, and later tasks
//! re-read it there.
//!
//! # Why the factors are bitwise identical on every schedule
//!
//! Payloads are `f64` words and `T ↔ f64` round trips are exact for every
//! [`Scalar`]; the butterfly's ordered combine makes every process row's
//! final accumulator bitwise identical (so each rank derives the same
//! pivot list itself, with no extra broadcast); and the `PDGETF2` fold
//! visits candidates in the same ascending order on every participant.
//!
//! # Failure semantics
//!
//! A singular pivot on one rank thread cancels the whole grid through
//! [`ThreadedComm::cancel`]: every blocked and future fetch on every rank
//! returns [`Error::Canceled`], rank threads unwind their queues, and the
//! driver joins them all. A rank thread that *panics* cancels the grid
//! on its way out too, and the driver re-raises that original panic once
//! every thread has joined.

use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use crate::comm::{
    MailKey, ThreadedComm, MAIL_ACC as ACC, MAIL_GCD as GCD, MAIL_GRX as GRX, MAIL_GUR as GUR,
    MAIL_PAN as PAN, MAIL_PIV as PIV, MAIL_SWP as SWP, MAIL_U12 as U12, MAIL_WBK as WBK,
};
use crate::dist_rt::{IpivCell, RankCell};
use crate::tournament::{reduce_pair, Candidates};
use crate::tslu::{local_candidates, winners_to_ipiv, LocalLu};
use calu_matrix::blas1::scal;
use calu_matrix::blas2::ger;
use calu_matrix::blas3::{gemm, trsm};
use calu_matrix::lapack::lu_nopiv;
use calu_matrix::scalar::cast_slice;
use calu_matrix::{Diag, Error, Matrix, NoObs, Result, Scalar, Side, TileLayout, Uplo};
use calu_obs::{CommLedger, Recorder};
use calu_runtime::{
    tslu_acc_slot, tslu_leg_count, tslu_leg_role, DistGeom, DistKind, DistPanelAlg, DistTask,
    ExecReport, LegRole, LuDag, Task, TaskTiming,
};

/// The ranks that run `task` on a grid with `pr` process rows: its owner,
/// or for `Swap` and `PanelGetf2` the owner's whole process column.
pub(crate) fn participants(task: Task, pr: usize) -> Range<usize> {
    let Task::Dist(DistTask { kind, rank, .. }) = task else {
        unreachable!("distributed DAGs contain only distributed tasks")
    };
    let rank = rank as usize;
    match kind {
        DistKind::Swap | DistKind::PanelGetf2 => {
            let c0 = rank - rank % pr;
            c0..c0 + pr
        }
        _ => rank..rank + 1,
    }
}

/// Projects the DAG's deterministic serial schedule onto per-rank task
/// queues: every participant gets a task at the same global schedule
/// position, so the queues are consistent projections of one topological
/// order — the invariant the blocking-fetch deadlock-freedom argument
/// rests on.
fn rank_queues(dag: &LuDag, pr: usize) -> Vec<Vec<Task>> {
    let tasks = dag.tasks();
    let mut queues = vec![Vec::new(); dag.ranks()];
    for id in dag.serial_schedule() {
        for rank in participants(tasks[id], pr) {
            queues[rank].push(tasks[id]);
        }
    }
    queues
}

/// A `PDGETF2` pivot candidate: `(|v|, global row, v)`, global row
/// `usize::MAX` when the rank has no rows left in the column.
type Pivot<T> = (T, usize, T);

/// One rank: its grid position, its own tile storage, and the objects
/// every rank of the run shares (communicator, ledger, pivot vector).
pub(crate) struct RankWorker<'a, T> {
    pub(crate) rank: usize,
    pub(crate) prow: usize,
    pub(crate) pcol: usize,
    pub(crate) geom: DistGeom,
    pub(crate) glayout: TileLayout,
    pub(crate) alg: DistPanelAlg,
    pub(crate) local: LocalLu,
    pub(crate) lookahead: usize,
    /// This rank's local tiles — the only matrix storage its bodies touch.
    pub(crate) cell: RankCell<T>,
    pub(crate) comm: &'a ThreadedComm,
    pub(crate) ledger: &'a CommLedger,
    pub(crate) ipiv: &'a IpivCell,
}

// Every `cell` access below reads or writes this rank's local matrix. The
// elements a task touches are held by that task: on a rank thread because
// one thread runs all of the rank's tasks, under the executor because the
// DAG's edges order the task against every other task that touches the
// same elements of this rank. Each SAFETY comment names the elements.
impl<T: Scalar> RankWorker<'_, T> {
    fn nb(&self) -> usize {
        self.geom.shape.nb
    }

    fn post(&self, class: u8, k: usize, j: usize, who: usize, data: Vec<f64>, dests: &[usize]) {
        self.comm.post(self.rank, (class, k as u32, j as u32, who as u32), data, dests);
    }

    fn fetch(&self, class: u8, k: usize, j: usize, who: usize) -> Result<Arc<Vec<f64>>> {
        self.comm.fetch(self.rank, (class, k as u32, j as u32, who as u32))
    }

    /// The other ranks of this rank's process column.
    fn col_peers(&self) -> Vec<usize> {
        (0..self.geom.pr)
            .filter(|&r| r != self.prow)
            .map(|r| self.geom.rank(r, self.pcol))
            .collect()
    }

    /// This rank followed by the other ranks of its process row.
    fn self_and_row_peers(&self) -> Vec<usize> {
        let peers = (0..self.geom.pc).filter(|&c| c != self.pcol);
        std::iter::once(self.rank).chain(peers.map(|c| self.geom.rank(self.prow, c))).collect()
    }

    /// Destination ranks of an `ACC` post: who fetches butterfly slot
    /// `slot` of owner `owner`? Self always (own next leg / `PivSend`
    /// read it from the stash), plus every process row whose leg role
    /// names `owner` as partner while `owner`'s accumulator sits in
    /// `slot` — the same role/slot algebra the DAG builder's edges use,
    /// so routing and edges cannot drift apart.
    fn acc_dests(&self, slot: usize, owner: usize) -> Vec<usize> {
        let pr = self.geom.pr;
        let mut dests = vec![self.rank];
        for leg in 0..tslu_leg_count(pr) {
            if tslu_acc_slot(pr, leg, owner) != slot {
                continue;
            }
            for r in (0..pr).filter(|&r| r != owner) {
                let reads = match tslu_leg_role(pr, leg, r) {
                    LegRole::Exchange { partner }
                    | LegRole::FoldCombine { partner }
                    | LegRole::FoldRecv { partner } => partner == owner,
                    _ => false,
                };
                let rk = self.geom.rank(r, self.pcol);
                if reads && !dests.contains(&rk) {
                    dests.push(rk);
                }
            }
        }
        dests
    }

    /// Posts this process row's butterfly accumulator after `l` legs.
    fn post_acc(&self, k: usize, l: usize, acc: &Candidates<T>) {
        let dests = self.acc_dests(l, self.prow);
        self.post(ACC, k, l, self.prow, acc.to_payload(), &dests);
    }

    /// Own butterfly accumulator after `l` legs — stash-resident (every
    /// `ACC` post includes self in its destinations).
    fn fetch_acc(&self, k: usize, l: usize) -> Result<Candidates<T>> {
        let slot = tslu_acc_slot(self.geom.pr, l, self.prow);
        Ok(Candidates::from_payload(&self.fetch(ACC, k, slot, self.prow)?))
    }

    /// A partner's accumulator — the one fetch in the butterfly that
    /// crosses ranks. The transfer is ledgered here, at the consuming
    /// fetch, and attributed to the sending rank — which is precisely the
    /// leg's send-role side (`Exchange` partners fetch each other, a
    /// `FoldCombine` fetches its `FoldSend`, a `FoldRecv` its `FoldOut`),
    /// so per-rank totals match the cost model's send accounting.
    fn fetch_acc_wire(&self, k: usize, l: usize, partner: usize) -> Result<Candidates<T>> {
        let slot = tslu_acc_slot(self.geom.pr, l, partner);
        let raw = self.fetch(ACC, k, slot, partner)?;
        let sender = self.geom.rank(partner, self.pcol);
        self.ledger.record_send(sender as u32, "tslu_leg", raw.len() as u64);
        Ok(Candidates::from_payload(&raw))
    }

    /// This rank's copy of step `k`'s swap list.
    fn swap_list(&self, k: usize) -> Result<Vec<usize>> {
        Ok(self.fetch(PIV, k, 0, self.geom.cprow(k))?.iter().map(|&x| x as usize).collect())
    }

    /// Packs own local elements column-major as `f64` words.
    fn pack(&self, rows: Range<usize>, cols: Range<usize>) -> Vec<f64> {
        let mut v = Vec::with_capacity(rows.len() * cols.len());
        for lj in cols {
            // SAFETY: the caller's task is ordered after the range's last
            // writer and before its next one.
            v.extend(rows.clone().map(|li| unsafe { self.cell.get(li, lj) }.to_f64()));
        }
        v
    }

    /// Drops own stashed payloads of steps the lookahead throttle proves
    /// complete. Safe at *every* task of step `k`: all step-`k` tasks sit
    /// downstream of step `k`'s panel, whose throttle edges put every
    /// step-`≤ k−d−1` task — on every rank — before it, so this rank's
    /// consumers of those payloads have already run.
    fn maybe_evict(&self, k: usize) {
        if k > self.lookahead {
            self.comm.evict_before(self.rank, (k - self.lookahead - 1) as u32);
        }
    }

    /// Local column range of block column `j` touched by step `k`'s swap.
    fn swap_cols(&self, k: usize, j: usize) -> Range<usize> {
        let c0 = self.glayout.local_cols_below(self.pcol, j * self.nb());
        let skip = if self.alg == DistPanelAlg::Getf2 && j == k { self.geom.jb(k) } else { 0 };
        c0 + skip..c0 + self.geom.wj(j)
    }

    /// The local columns of block column `j` updated by step `k`, as
    /// `(first local col, width, col tile, intra-tile col)`.
    fn upd_cols(&self, k: usize, j: usize) -> (usize, usize, usize, usize) {
        let b = self.nb();
        let c0 = self.glayout.local_cols_below(self.pcol, j * b);
        let skip = if j == k { self.geom.jb(k) } else { 0 };
        let lo = c0 + skip;
        (lo, self.geom.upd_width(k, j), c0 / b, lo - (c0 / b) * b)
    }

    /// Swaps two locally-owned global rows over local columns `cols`.
    fn swap_local_rows(&self, r1: usize, r2: usize, cols: Range<usize>) {
        let (l1, l2) = (self.glayout.local_row(r1), self.glayout.local_row(r2));
        for lj in cols {
            // SAFETY: the swapping task holds both rows over `cols`.
            unsafe {
                let a = self.cell.get(l1, lj);
                self.cell.set(l1, lj, self.cell.get(l2, lj));
                self.cell.set(l2, lj, a);
            }
        }
    }

    /// First half of a cross-owner row exchange: ships own global row
    /// `mine` over `cols` to process row `partner` under `key` (its last
    /// slot offset by this rank's process row).
    fn post_row(&self, key: MailKey, mine: usize, partner: usize, cols: Range<usize>) {
        let lmine = self.glayout.local_row(mine);
        // SAFETY: the swapping task holds row `mine` over `cols`.
        let seg: Vec<f64> = cols.map(|lj| unsafe { self.cell.get(lmine, lj) }.to_f64()).collect();
        self.ledger.record_send(self.rank as u32, "swap", seg.len() as u64);
        let (class, k, j, who) = key;
        let dest = self.geom.rank(partner, self.pcol);
        self.post(class, k as usize, j as usize, who as usize + self.prow, seg, &[dest]);
    }

    /// Second half: overwrites own row `mine` with the partner's segment.
    fn fetch_row(
        &self,
        key: MailKey,
        mine: usize,
        partner: usize,
        cols: Range<usize>,
    ) -> Result<()> {
        let (class, k, j, who) = key;
        let theirs = self.fetch(class, k as usize, j as usize, who as usize + partner)?;
        let lmine = self.glayout.local_row(mine);
        for (lj, &v) in cols.zip(theirs.iter()) {
            // SAFETY: the swapping task holds row `mine` over `cols`.
            unsafe { self.cell.set(lmine, lj, T::from_f64(v)) };
        }
        Ok(())
    }

    /// Swaps global rows `r1 != r2` over local columns `cols` on the
    /// participants `ps` that own them. A cross-owner pair runs in two
    /// phases — both owners post, then both fetch — so it cannot deadlock,
    /// and the `f64` round trip keeps it bitwise exact.
    fn swap_rows(
        ps: &[Self],
        key: MailKey,
        (r1, r2): (usize, usize),
        cols: Range<usize>,
    ) -> Result<()> {
        let lay = &ps[0].glayout;
        let (o1, o2) = (lay.row_owner(r1), lay.row_owner(r2));
        if o1 == o2 {
            for w in ps.iter().filter(|w| w.prow == o1) {
                w.swap_local_rows(r1, r2, cols.clone());
            }
            return Ok(());
        }
        // (own row, partner process row) of an owning participant.
        let side = |w: &Self| match w.prow {
            p if p == o1 => Some((r1, o2)),
            p if p == o2 => Some((r2, o1)),
            _ => None,
        };
        for w in ps {
            if let Some((mine, partner)) = side(w) {
                w.post_row(key, mine, partner, cols.clone());
            }
        }
        for w in ps {
            if let Some((mine, partner)) = side(w) {
                w.fetch_row(key, mine, partner, cols.clone())?;
            }
        }
        Ok(())
    }

    // -- task bodies --------------------------------------------------------

    fn run_cand(&self, k: usize) -> Result<()> {
        let (gk, jb) = (k * self.nb(), self.geom.jb(k));
        let lr = self.cell.rows();
        let lr_k = self.glayout.local_rows_below(self.prow, gk);
        let pl0 = self.glayout.local_cols_below(self.pcol, gk);
        let cand = if lr > lr_k {
            // SAFETY: Cand(k) reads this rank's panel rows, last written
            // by step k-1's gemm on this rank.
            let block =
                Matrix::from_fn(lr - lr_k, jb, |i, j| unsafe { self.cell.get(lr_k + i, pl0 + j) });
            let idx: Vec<usize> =
                (lr_k..lr).map(|li| self.glayout.global_row(self.prow, li) - gk).collect();
            local_candidates(&block, &idx, self.local)
        } else {
            Candidates::<T>::new(Matrix::zeros(0, jb), vec![])
        };
        self.post_acc(k, 0, &cand);
        Ok(())
    }

    fn run_tslu_leg(&self, k: usize, leg: usize) -> Result<()> {
        let acc = match tslu_leg_role(self.geom.pr, leg, self.prow) {
            LegRole::Exchange { partner } => {
                let mine = self.fetch_acc(k, leg)?;
                let theirs = self.fetch_acc_wire(k, leg, partner)?;
                // The combine is ordered by member index, exactly as the
                // netsim butterfly orders it.
                if self.prow < partner {
                    reduce_pair(&mine, &theirs)
                } else {
                    reduce_pair(&theirs, &mine)
                }
            }
            LegRole::FoldCombine { partner } => {
                reduce_pair(&self.fetch_acc(k, leg)?, &self.fetch_acc_wire(k, leg, partner)?)
            }
            LegRole::FoldRecv { partner } => self.fetch_acc_wire(k, leg, partner)?,
            // Send halves: the producer's post already routed the payload
            // to the partner; the task models the injection.
            LegRole::FoldSend { .. } | LegRole::FoldOut { .. } => return Ok(()),
            LegRole::Idle => unreachable!("idle legs are not emitted"),
        };
        self.post_acc(k, leg + 1, &acc);
        Ok(())
    }

    fn run_piv_send(&self, k: usize) -> Result<()> {
        let cprow = self.geom.cprow(k);
        if self.alg == DistPanelAlg::Getf2 {
            // PDGETF2 computed and self-stashed the list; forward it to
            // the row peers whose PivRecv consumes it.
            let dests = self.self_and_row_peers();
            if dests.len() > 1 {
                let li = self.fetch(PIV, k, 0, cprow)?;
                self.post(PIV, k, 0, cprow, (*li).clone(), &dests[1..]);
            }
            return Ok(());
        }
        let gk = k * self.nb();
        // The ordered butterfly combine leaves every process row's final
        // accumulator bitwise identical, so each rank derives the swap
        // list from its own stash — no column broadcast.
        let winners = self.fetch_acc(k, tslu_leg_count(self.geom.pr))?;
        let li = winners_to_ipiv(&winners.rows, self.geom.shape.m - gk);
        if self.prow == cprow {
            // SAFETY: the diagonal PivSend of step k is the only writer.
            unsafe { self.ipiv.publish(gk, &li) };
        }
        let list = li.iter().map(|&x| x as f64).collect();
        self.post(PIV, k, 0, cprow, list, &self.self_and_row_peers());
        Ok(())
    }

    fn run_piv_recv(&self, k: usize) -> Result<()> {
        self.fetch(PIV, k, 0, self.geom.cprow(k))?;
        self.ledger.record_recv(self.rank as u32, "piv_bcast", self.geom.jb(k) as u64);
        Ok(())
    }

    fn run_swap(ps: &[Self], k: usize, j: usize) -> Result<()> {
        let cols = ps[0].swap_cols(k, j);
        if cols.is_empty() {
            return Ok(());
        }
        let gk = k * ps[0].nb();
        let pr = ps[0].geom.pr;
        // Every participant reads its own copy of the list.
        let lists = ps.iter().map(|w| w.swap_list(k)).collect::<Result<Vec<_>>>()?;
        debug_assert!(lists.iter().all(|l| *l == lists[0]));
        for (i, &p) in lists[0].iter().enumerate() {
            if p != i {
                // Items run in pivot order and each exchange completes
                // before the next starts, so chained pivots through one
                // row see the same intermediate states as a sequential
                // sweep.
                let key = (SWP, k as u32, j as u32, (i * pr) as u32);
                Self::swap_rows(ps, key, (gk + i, gk + p), cols.clone())?;
            }
        }
        Ok(())
    }

    fn run_w_send(&self, k: usize) -> Result<()> {
        let (gk, jb) = (k * self.nb(), self.geom.jb(k));
        let d0 = self.glayout.local_rows_below(self.prow, gk);
        let pl0 = self.glayout.local_cols_below(self.pcol, gk);
        let w = self.pack(d0..d0 + jb, pl0..pl0 + jb);
        let dests: Vec<usize> = (0..self.geom.pr).map(|r| self.geom.rank(r, self.pcol)).collect();
        self.post(WBK, k, 0, 0, w, &dests);
        Ok(())
    }

    fn run_second(&self, k: usize) -> Result<()> {
        let b = self.nb();
        let (gk, jb) = (k * b, self.geom.jb(k));
        let cprow = self.geom.cprow(k);
        let raw = self.fetch(WBK, k, 0, 0)?;
        let mut w: Matrix<T> = Matrix::from_col_major(jb, jb, cast_slice(&raw));
        // A genuinely singular panel cancels all dependents across ranks;
        // the driver reports the absolute step.
        if let Err(Error::SingularPivot { step }) = lu_nopiv(w.view_mut(), &mut NoObs) {
            return Err(Error::SingularPivot { step: gk + step });
        }
        let pl0 = self.glayout.local_cols_below(self.pcol, gk);
        if self.prow == cprow {
            let d0 = self.glayout.local_rows_below(cprow, gk);
            for lj in 0..jb {
                for li in 0..jb {
                    // SAFETY: Second(k) on the diagonal rank holds the W rows.
                    unsafe { self.cell.set(d0 + li, pl0 + lj, w[(li, lj)]) };
                }
            }
        } else {
            self.ledger.record_recv(self.rank as u32, "w_bcast", raw.len() as u64);
        }
        let lb0 = self.glayout.local_rows_below(self.prow, gk + jb);
        let u11 = w.view().submatrix(0, 0, jb, jb);
        let (tjc, jc) = (pl0 / b, pl0 % b);
        for (ti, rr) in self.cell.lay.row_tile_span(lb0..self.cell.rows()) {
            // SAFETY: Second(k) holds this rank's L₂₁ rows of the panel.
            let l21 = unsafe { self.cell.tile_block(ti, tjc, rr.start, jc, rr.len(), jb) };
            trsm(Side::Right, Uplo::Upper, Diag::NonUnit, T::ONE, u11, l21);
        }
        Ok(())
    }

    fn run_panel_send(&self, k: usize) -> Result<()> {
        let (gk, jb) = (k * self.nb(), self.geom.jb(k));
        let lr_k = self.glayout.local_rows_below(self.prow, gk);
        let pl0 = self.glayout.local_cols_below(self.pcol, gk);
        let v = self.pack(lr_k..self.cell.rows(), pl0..pl0 + jb);
        self.post(PAN, k, 0, self.prow, v, &self.self_and_row_peers());
        Ok(())
    }

    fn run_panel_recv(&self, k: usize) -> Result<()> {
        let v = self.fetch(PAN, k, 0, self.prow)?;
        self.ledger.record_recv(self.rank as u32, "panel_bcast", v.len() as u64);
        Ok(())
    }

    fn run_trsm(&self, k: usize, j: usize) -> Result<()> {
        let b = self.nb();
        let (gk, jb) = (k * b, self.geom.jb(k));
        let cprow = self.geom.cprow(k);
        let lr_panel = self.geom.panel_rows(cprow, k);
        let panel_l: Matrix<T> =
            Matrix::from_col_major(lr_panel, jb, cast_slice(&self.fetch(PAN, k, 0, cprow)?));
        let l11 = panel_l.view().submatrix(0, 0, jb, jb);
        let d0 = self.glayout.local_rows_below(cprow, gk);
        let (_lo, wid, tj, cr0) = self.upd_cols(k, j);
        // SAFETY: Trsm(k, j) holds rows d0..d0+jb of these columns.
        let u12 = unsafe { self.cell.tile_block(d0 / b, tj, d0 % b, cr0, jb, wid) };
        trsm(Side::Left, Uplo::Lower, Diag::Unit, T::ONE, l11, u12);
        Ok(())
    }

    fn run_u_send(&self, k: usize, j: usize) -> Result<()> {
        let g = &self.geom;
        let (gk, jb) = (k * self.nb(), g.jb(k));
        let cprow = g.cprow(k);
        let d0 = self.glayout.local_rows_below(cprow, gk);
        let (lo, wid, _tj, _cr0) = self.upd_cols(k, j);
        let v = self.pack(d0..d0 + jb, lo..lo + wid);
        let mut dests = vec![self.rank];
        dests.extend(
            (0..g.pr)
                .filter(|&r| r != cprow && g.below_rows(r, k) > 0)
                .map(|r| g.rank(r, self.pcol)),
        );
        self.post(U12, k, j, 0, v, &dests);
        Ok(())
    }

    fn run_u_recv(&self, k: usize, j: usize) -> Result<()> {
        let v = self.fetch(U12, k, j, 0)?;
        self.ledger.record_recv(self.rank as u32, "u_bcast", v.len() as u64);
        Ok(())
    }

    fn run_gemm(&self, k: usize, j: usize) -> Result<()> {
        let b = self.nb();
        let (gk, jb) = (k * b, self.geom.jb(k));
        let lr = self.cell.rows();
        let lr_k = self.glayout.local_rows_below(self.prow, gk);
        let panel_l: Matrix<T> =
            Matrix::from_col_major(lr - lr_k, jb, cast_slice(&self.fetch(PAN, k, 0, self.prow)?));
        let (_lo, wid, tj, cr0) = self.upd_cols(k, j);
        let u12: Matrix<T> =
            Matrix::from_col_major(jb, wid, cast_slice(&self.fetch(U12, k, j, 0)?));
        let lb0 = self.glayout.local_rows_below(self.prow, gk + jb);
        for (ti, rr) in self.cell.lay.row_tile_span(lb0..lr) {
            let l21 = panel_l.view().submatrix(ti * b + rr.start - lr_k, 0, rr.len(), jb);
            // SAFETY: Gemm(k, j) holds this rank's trailing rows of these
            // columns.
            let a22 = unsafe { self.cell.tile_block(ti, tj, rr.start, cr0, rr.len(), wid) };
            gemm(-T::ONE, l21, u12.view(), T::ONE, a22);
        }
        Ok(())
    }

    // -- PDGETF2 phases -----------------------------------------------------

    /// Scans own rows of panel column `jj` of step `k` (first strict max in
    /// ascending global order) and posts the candidate to the column peers.
    fn getf2_scan(&self, k: usize, jj: usize, pl0: usize) -> Pivot<T> {
        let gc = k * self.nb() + jj;
        let r0 = self.glayout.local_rows_below(self.prow, gc);
        let mut c = (T::NEG_INFINITY, usize::MAX, T::ZERO);
        for li in r0..self.cell.rows() {
            // SAFETY: PanelGetf2(k) holds this rank's panel rows.
            let v = unsafe { self.cell.get(li, pl0 + jj) };
            if v.abs() > c.0 {
                c = (v.abs(), self.glayout.global_row(self.prow, li), v);
            }
        }
        let peers = self.col_peers();
        if !peers.is_empty() {
            let row = if c.1 == usize::MAX { -1.0 } else { c.1 as f64 };
            self.post(GCD, k, jj, self.prow, vec![c.0.to_f64(), row, c.2.to_f64()], &peers);
        }
        c
    }

    /// Folds every process row's candidate, `own` included, in ascending
    /// process-row order with the max-abs / smaller-index tie-break.
    fn getf2_fold(&self, k: usize, jj: usize, own: Pivot<T>) -> Result<Pivot<T>> {
        let mut best = (T::NEG_INFINITY, usize::MAX, T::ZERO);
        for prow in 0..self.geom.pr {
            let c = if prow == self.prow {
                own
            } else {
                let raw = self.fetch(GCD, k, jj, prow)?;
                self.ledger.record_recv(self.rank as u32, "panel_getf2", raw.len() as u64);
                let row = if raw[1] < 0.0 { usize::MAX } else { raw[1] as usize };
                (T::from_f64(raw[0]), row, T::from_f64(raw[2]))
            };
            if c.0 > best.0 || (c.0 == best.0 && c.1 < best.1) {
                best = c;
            }
        }
        Ok(best)
    }

    /// The winner's owner: reads the trailing part of pivot row `row`
    /// (before the exchange moves it) and posts it to the column peers.
    fn getf2_post_urow(&self, k: usize, jj: usize, row: usize, pl0: usize) -> Vec<T> {
        let lw = self.glayout.local_row(row);
        let jb = self.geom.jb(k);
        // SAFETY: PanelGetf2(k) holds this rank's panel rows.
        let urow: Vec<T> = (jj + 1..jb).map(|c| unsafe { self.cell.get(lw, pl0 + c) }).collect();
        let peers = self.col_peers();
        if !peers.is_empty() {
            self.post(GUR, k, jj, 0, urow.iter().map(|v| v.to_f64()).collect(), &peers);
        }
        urow
    }

    fn getf2_fetch_urow(&self, k: usize, jj: usize) -> Result<Vec<T>> {
        let raw = self.fetch(GUR, k, jj, 0)?;
        self.ledger.record_recv(self.rank as u32, "panel_getf2", raw.len() as u64);
        Ok(cast_slice(&raw))
    }

    /// Scales own rows below the pivot of panel column `jj` and applies the
    /// rank-1 update with the winner's trailing row `urow`.
    fn getf2_eliminate(&self, k: usize, jj: usize, pl0: usize, pivot: T, urow: &[T]) {
        let b = self.nb();
        let (tjc, jc) = (pl0 / b, pl0 % b);
        let inv = pivot.recip();
        let r1 = self.glayout.local_rows_below(self.prow, k * b + jj + 1);
        for (ti, rr) in self.cell.lay.row_tile_span(r1..self.cell.rows()) {
            // SAFETY: PanelGetf2(k) holds this rank's panel rows; the
            // column and the trailing block are disjoint views.
            let mut col = unsafe { self.cell.tile_block(ti, tjc, rr.start, jc + jj, rr.len(), 1) };
            scal(inv, col.col_mut(0));
            if !urow.is_empty() {
                // SAFETY: as above.
                let trailing = unsafe {
                    self.cell.tile_block(ti, tjc, rr.start, jc + jj + 1, rr.len(), urow.len())
                };
                ger(-T::ONE, col.as_view().col(0), urow, trailing);
            }
        }
    }

    /// The `PDGETF2` panel of step `k` over the participants `ps`, column
    /// by column: scan and post candidates, fold them, share the winner's
    /// trailing row, exchange the pivot row, eliminate. Every participant
    /// folds the same candidates in the same order, so all reach the same
    /// pivot — and the same singular verdict, so the grid cancels
    /// coherently at one step.
    fn run_panel_getf2(ps: &[Self], k: usize) -> Result<()> {
        let w0 = &ps[0];
        let (gk, jb) = (k * w0.nb(), w0.geom.jb(k));
        let cprow = w0.geom.cprow(k);
        let pl0 = w0.glayout.local_cols_below(w0.pcol, gk);
        let mut li_piv = Vec::with_capacity(jb);
        for jj in 0..jb {
            let gc = gk + jj;
            let own: Vec<Pivot<T>> = ps.iter().map(|w| w.getf2_scan(k, jj, pl0)).collect();
            let mut wins = Vec::with_capacity(ps.len());
            for (w, &c) in ps.iter().zip(&own) {
                wins.push(w.getf2_fold(k, jj, c)?);
            }
            let (best, best_g, best_v) = wins[0];
            debug_assert!(wins.iter().all(|c| c.1 == best_g));
            li_piv.push(best_g.wrapping_sub(gk));
            if !(best != T::ZERO && best.is_finite()) {
                return Err(Error::SingularPivot { step: gc });
            }
            let urows = if jj + 1 < jb {
                let owner = w0.glayout.row_owner(best_g);
                let posted: Vec<Option<Vec<T>>> = ps
                    .iter()
                    .map(|w| (w.prow == owner).then(|| w.getf2_post_urow(k, jj, best_g, pl0)))
                    .collect();
                ps.iter()
                    .zip(posted)
                    .map(|(w, row)| row.map_or_else(|| w.getf2_fetch_urow(k, jj), Ok))
                    .collect::<Result<Vec<_>>>()?
            } else {
                vec![Vec::new(); ps.len()]
            };
            if best_g != gc {
                Self::swap_rows(ps, (GRX, k as u32, jj as u32, 0), (gc, best_g), pl0..pl0 + jb)?;
            }
            for (w, urow) in ps.iter().zip(&urows) {
                w.getf2_eliminate(k, jj, pl0, best_v, urow);
            }
        }
        let list: Vec<f64> = li_piv.iter().map(|&x| x as f64).collect();
        for w in ps {
            if w.prow == cprow {
                // SAFETY: the diagonal participant is the only writer.
                unsafe { w.ipiv.publish(gk, &li_piv) };
            }
            // Self-stash the swap list for this rank's Swap tasks;
            // PivSend forwards it to the row peers.
            w.post(PIV, k, 0, cprow, list.clone(), &[w.rank]);
        }
        Ok(())
    }

    /// Runs `task` as the participants `ps` (see [`participants`]): the
    /// owning rank of a rank-local task, or any run of ranks of the
    /// process column for `Swap` and `PanelGetf2`.
    pub(crate) fn run(ps: &[Self], task: Task) -> Result<()> {
        let Task::Dist(DistTask { kind, k, j, .. }) = task else {
            unreachable!("distributed runner received a shared-memory task")
        };
        let (k, j) = (k as usize, j as usize);
        for w in ps {
            w.maybe_evict(k);
        }
        let w = &ps[0];
        debug_assert!(ps.len() == 1 || matches!(kind, DistKind::Swap | DistKind::PanelGetf2));
        match kind {
            DistKind::Cand => w.run_cand(k),
            DistKind::TsluLeg => w.run_tslu_leg(k, j),
            DistKind::PanelGetf2 => Self::run_panel_getf2(ps, k),
            DistKind::PivSend => w.run_piv_send(k),
            DistKind::PivRecv => w.run_piv_recv(k),
            DistKind::Swap => Self::run_swap(ps, k, j),
            DistKind::WSend => w.run_w_send(k),
            DistKind::Second => w.run_second(k),
            DistKind::PanelSend => w.run_panel_send(k),
            DistKind::PanelRecv => w.run_panel_recv(k),
            DistKind::Trsm => w.run_trsm(k, j),
            DistKind::USend => w.run_u_send(k, j),
            DistKind::URecv => w.run_u_recv(k, j),
            DistKind::Gemm => w.run_gemm(k, j),
        }
    }

    /// Drives this rank's whole queue on its own thread. Returns the
    /// per-task timings plus the absolute elimination step if *this* rank
    /// hit the singular pivot (collateral [`Error::Canceled`] exits return
    /// `None` — the root cause is reported by the rank that found it).
    fn run_queue(
        &self,
        queue: &[Task],
        recorder: &Recorder,
        epoch: Instant,
    ) -> (Vec<TaskTiming>, Option<usize>) {
        let mut timings = Vec::with_capacity(queue.len());
        for &task in queue {
            let start = epoch.elapsed().as_secs_f64();
            match Self::run(std::slice::from_ref(self), task) {
                Ok(()) => {
                    let end = epoch.elapsed().as_secs_f64();
                    let lane = self.rank as u32;
                    recorder.record_interval(task.to_string(), task.cat(), lane, lane, start, end);
                    // Each rank replays its projection serially, so a task
                    // is "ready" the moment the rank reaches it: queue
                    // delay is zero by construction and the real waiting
                    // is inside tasks, accounted as blocked-fetch time.
                    timings.push(TaskTiming { task, worker: self.rank, ready: start, start, end });
                }
                Err(Error::SingularPivot { step }) => {
                    self.comm.cancel();
                    return (timings, Some(step));
                }
                Err(Error::Canceled) => return (timings, None),
                Err(e) => panic!("unexpected distributed task failure: {e:?}"),
            }
        }
        (timings, None)
    }
}

/// Runs `body` on one scoped OS thread per item. A thread that panics
/// cancels `comm` as it unwinds, so its peers' blocked fetches return
/// [`Error::Canceled`] within one poll instead of stalling; once every
/// thread has joined, the first panic is re-raised with its original
/// payload.
fn on_rank_threads<I, R, F>(comm: &ThreadedComm, items: I, body: F) -> Vec<R>
where
    I: IntoIterator,
    I::Item: Send,
    R: Send,
    F: Fn(I::Item) -> R + Sync,
{
    struct CancelOnUnwind<'c>(&'c ThreadedComm);
    impl Drop for CancelOnUnwind<'_> {
        fn drop(&mut self) {
            if std::thread::panicking() {
                self.0.cancel();
            }
        }
    }
    std::thread::scope(|s| {
        let body = &body;
        let handles: Vec<_> = items
            .into_iter()
            .map(|item| {
                s.spawn(move || {
                    let _cancel = CancelOnUnwind(comm);
                    body(item)
                })
            })
            .collect();
        let joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        joined
            .into_iter()
            .map(|r| r.unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
            .collect()
    })
}

/// The [`CommKind::Threaded`](crate::comm::CommKind::Threaded) driver:
/// one OS thread per rank, each running its projection of the DAG's
/// serial schedule. Returns the execution record (empty on a canceled
/// run) and the first singular step.
pub(crate) fn run_rank_threads<T: Scalar>(
    dag: &LuDag,
    workers: &[RankWorker<'_, T>],
    recorder: &Recorder,
) -> (ExecReport, Option<usize>) {
    let queues = rank_queues(dag, workers[0].geom.pr);
    let epoch = Instant::now();
    let results = on_rank_threads(workers[0].comm, workers.iter().zip(&queues), |(w, q)| {
        w.run_queue(q, recorder, epoch)
    });
    let first_singular = results.iter().filter_map(|(_, f)| *f).min();
    if first_singular.is_some() {
        return (ExecReport::default(), first_singular);
    }
    let mut timings: Vec<TaskTiming> = results.into_iter().flat_map(|(t, _)| t).collect();
    timings.sort_by(|x, y| x.end.total_cmp(&y.end).then(x.start.total_cmp(&y.start)));
    let exec = ExecReport {
        order: timings.iter().map(|t| t.task).collect(),
        timings,
        workers: workers.len(),
        wall: epoch.elapsed().as_secs_f64(),
    };
    (exec, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::MAIL_PAN;
    use std::time::Duration;

    /// A rank thread that panics must not leave its peers polling a
    /// payload that will never come until the stuck-fetch timeout: the
    /// peers see `Canceled` promptly, and the caller gets the original
    /// panic, not a peer's "never delivered" one.
    #[test]
    fn a_panicking_rank_cancels_its_peers_and_re_raises_its_panic() {
        let comm = ThreadedComm::new(3);
        let seen = std::sync::Mutex::new(Vec::new());
        let t0 = Instant::now();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            on_rank_threads(&comm, 0..3usize, |rank| {
                if rank == 1 {
                    panic!("rank 1 body failed");
                }
                // A payload rank 1 would have sent.
                let got = comm.fetch(rank, (MAIL_PAN, 0, 0, 1));
                seen.lock().unwrap().push((rank, got));
            })
        }));
        let payload = caught.expect_err("the rank panic must reach the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"rank 1 body failed"));
        let mut seen = seen.into_inner().unwrap();
        seen.sort_by_key(|s| s.0);
        assert_eq!(seen, vec![(0, Err(Error::Canceled)), (2, Err(Error::Canceled))]);
        assert!(t0.elapsed() < Duration::from_secs(5), "peers must not stall: {:?}", t0.elapsed());
    }

    #[test]
    fn queues_project_multi_rank_tasks_onto_the_whole_process_column() {
        let shape = calu_runtime::LuShape { m: 40, n: 40, nb: 8 };
        for alg in [DistPanelAlg::Tslu, DistPanelAlg::Getf2] {
            let dag = LuDag::build_dist_with(shape, (3, 2), 2, alg);
            let queues = rank_queues(&dag, 3);
            let total: usize = dag.tasks().iter().map(|&t| participants(t, 3).len()).sum();
            assert_eq!(queues.iter().map(Vec::len).sum::<usize>(), total);
            for (rank, q) in queues.iter().enumerate() {
                for &t in q {
                    assert!(participants(t, 3).contains(&rank));
                }
            }
        }
    }
}
