//! TSLU — Tall Skinny LU with tournament pivoting (paper Section 3),
//! sequential reference implementation.
//!
//! Two phases:
//! 1. **Preprocessing**: partition the `m x b` panel into `p` block-rows,
//!    elect `b` local pivot rows per block (GEPP on a copy — classic or
//!    recursive local LU, the `Cl`/`Rec` columns of Tables 3-4), then run
//!    the tournament to elect the `b` global winners.
//! 2. **Factorization**: permute the winners to the top (a LAPACK-style
//!    swap sequence) and factor the panel **without pivoting**.
//!
//! With `p == 1` or `b == 1` this is exactly partial pivoting (paper
//! Section 2), which the tests assert.
//!
//! `tslu_factor_tiles` runs the same two phases with one block row per
//! `nb`-high tile and a pairwise tree — the task-graph runtime's panel.

use crate::tournament::{reduce_pair, tournament, Candidates};
use calu_matrix::blas1::scal;
use calu_matrix::blas2::ger;
use calu_matrix::lapack::{getf2, lu_nopiv, rgetf2_info};
use calu_matrix::perm::apply_ipiv;
use calu_matrix::{MatView, MatViewMut, Matrix, NoObs, PivotObserver, Result, Scalar};

/// Local LU algorithm used to elect each block-row's candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LocalLu {
    /// Classic unblocked `getf2` (paper's `DGETF2`, "Cl").
    Classic,
    /// Recursive `rgetf2` (paper's `RGETF2`, "Rec") — the default, as the
    /// paper recommends for all but the smallest panels.
    #[default]
    Recursive,
}

/// Outcome of a TSLU panel factorization.
#[derive(Debug, Clone, PartialEq)]
pub struct TsluResult {
    /// LAPACK-style swap sequence (`row i <-> ipiv[i]`, local to the panel)
    /// that brings the winners to the top; callers apply it to the rest of
    /// the matrix.
    pub ipiv: Vec<usize>,
    /// Global winner row indices (local to the panel), in pivot order.
    pub pivot_rows: Vec<usize>,
}

/// Splits `m` rows into at most `p` non-empty, nearly equal, contiguous
/// chunks — the paper's block-row partition of the panel.
pub fn partition_rows(m: usize, p: usize) -> Vec<std::ops::Range<usize>> {
    assert!(m > 0 && p > 0);
    let p = p.min(m);
    let base = m / p;
    let extra = m % p;
    let mut out = Vec::with_capacity(p);
    let mut start = 0;
    for i in 0..p {
        let len = base + usize::from(i < extra);
        out.push(start..start + len);
        start += len;
    }
    debug_assert_eq!(start, m);
    out
}

/// Phase 1 only: elects the `min(m, b)` winning pivot rows of the panel
/// using a `p`-way tournament. Row indices are local to the panel view.
///
/// Never fails — see [`Candidates::from_block_row`] on rank deficiency.
pub fn tslu_pivots<T: Scalar>(panel: MatView<'_, T>, p: usize, local: LocalLu) -> Vec<usize> {
    let (m, b) = (panel.rows(), panel.cols());
    assert!(m >= 1 && b >= 1, "empty panel");
    let blocks = partition_rows(m, p)
        .into_iter()
        .map(|range| {
            elect_block(panel.submatrix(range.start, 0, range.len(), b), range.start, local)
        })
        .collect();
    tournament(blocks).rows
}

/// Elects one block row's candidates: `block` holds rows `r0..` of the
/// panel, so the elected [`Candidates::rows`] are panel-local row ids.
/// The election works on a copy; `block` itself is only read.
pub(crate) fn elect_block<T: Scalar>(
    block: MatView<'_, T>,
    r0: usize,
    local: LocalLu,
) -> Candidates<T> {
    let rows: Vec<usize> = (r0..r0 + block.rows()).collect();
    local_candidates(&block.to_matrix(), &rows, local)
}

/// Elects candidates from one block-row with the chosen local LU.
pub(crate) fn local_candidates<T: Scalar>(
    block: &Matrix<T>,
    global_rows: &[usize],
    local: LocalLu,
) -> Candidates<T> {
    match local {
        LocalLu::Classic => Candidates::from_block_row(block, global_rows),
        LocalLu::Recursive => {
            // Same contract as from_block_row but with the recursive kernel
            // (identical pivots — asserted in tests — different speed
            // profile, which only matters under the machine model).
            let b = block.cols();
            let keep = block.rows().min(b);
            let mut work = block.clone();
            if block.rows() >= b {
                let mut ipiv = vec![0usize; keep];
                let _info = rgetf2_info(work.view_mut(), &mut ipiv, &mut NoObs);
                let mut values = block.clone();
                apply_ipiv(values.view_mut(), &ipiv);
                let mut idx: Vec<usize> = global_rows.to_vec();
                for (i, &pv) in ipiv.iter().enumerate() {
                    idx.swap(i, pv);
                }
                let winners = values.view().submatrix(0, 0, keep, b).to_matrix();
                idx.truncate(keep);
                Candidates::new(winners, idx)
            } else {
                // Wide local block (fewer rows than b): fall back to getf2.
                Candidates::from_block_row(block, global_rows)
            }
        }
    }
}

/// Converts a winner list into a LAPACK swap sequence over `m` rows: after
/// applying it, row `i` holds original row `winners[i]`.
///
/// # Panics
/// If winners repeat or exceed `m`.
pub fn winners_to_ipiv(winners: &[usize], m: usize) -> Vec<usize> {
    // pos_of[orig] = current position of original row `orig`.
    let mut pos_of: Vec<usize> = (0..m).collect();
    let mut row_at: Vec<usize> = (0..m).collect();
    let mut ipiv = Vec::with_capacity(winners.len());
    for (i, &w) in winners.iter().enumerate() {
        assert!(w < m, "winner {w} out of {m} rows");
        let p = pos_of[w];
        assert!(p >= i, "winner {w} repeated");
        ipiv.push(p);
        let displaced = row_at[i];
        row_at.swap(i, p);
        pos_of[w] = i;
        pos_of[displaced] = p;
    }
    ipiv
}

/// Full TSLU: elect winners, permute them on top, factor the panel with no
/// pivoting (`L` strictly below the diagonal, `U` in the top `b x b`).
///
/// The observer sees the unpivoted factorization — its `on_pivot` ratios
/// are the paper's threshold `τ`, its `on_stage`/`on_multipliers` feed the
/// growth-factor and `|L|` statistics.
///
/// # Errors
/// A zero pivot in the no-pivot factorization after permutation (the panel
/// columns are genuinely linearly dependent).
pub fn tslu_factor<T: Scalar, O: PivotObserver<T>>(
    mut panel: MatViewMut<'_, T>,
    p: usize,
    local: LocalLu,
    obs: &mut O,
) -> Result<TsluResult> {
    let m = panel.rows();
    let winners = tslu_pivots(panel.as_view(), p, local);
    let ipiv = winners_to_ipiv(&winners, m);
    apply_ipiv(panel.rb_mut(), &ipiv);
    lu_nopiv(panel, obs)?;
    Ok(TsluResult { ipiv, pivot_rows: winners })
}

/// TSLU over tile leaves — the panel of
/// [`PanelMode::Resident`](crate::calu::PanelMode::Resident), written as
/// the sequence of task bodies the runtime's panel subgraph runs:
///
/// 1. elect one candidate set per `nb`-high tile (`PanelElect`);
/// 2. fold them pairwise level by level, lower tile first, an odd tail
///    passing through to the next level (`PanelReduce`, the tree of
///    [`panel_tree_levels`](calu_runtime::panel_tree_levels));
/// 3. swap the winners on top and factor the top tile without pivoting
///    (`PanelFinish`);
/// 4. form each lower tile's `L₂₁` rows in place (`PanelApply`).
///
/// Returns the panel-local swap sequence. The observer sees the top tile's
/// elimination and every tile's multipliers.
///
/// # Errors
/// A zero pivot in the top tile's no-pivot factorization.
pub(crate) fn tslu_factor_tiles<T: Scalar, O: PivotObserver<T>>(
    mut panel: MatViewMut<'_, T>,
    nb: usize,
    local: LocalLu,
    obs: &mut O,
) -> Result<Vec<usize>> {
    let (m, jb) = (panel.rows(), panel.cols());
    assert!(m >= 1 && jb >= 1 && nb >= 1, "empty panel or tile");
    let mut level: Vec<Candidates<T>> = (0..m)
        .step_by(nb)
        .map(|r0| elect_block(panel.as_view().submatrix(r0, 0, nb.min(m - r0), jb), r0, local))
        .collect();
    while level.len() > 1 {
        let mut nodes = level.into_iter();
        let mut next = Vec::new();
        while let Some(lo) = nodes.next() {
            next.push(match nodes.next() {
                Some(hi) => reduce_pair(&lo, &hi),
                None => lo,
            });
        }
        level = next;
    }
    let ipiv = winners_to_ipiv(&level[0].rows, m);
    apply_ipiv(panel.rb_mut(), &ipiv);
    let (mut diag, mut below) = panel.split_at_row_mut(nb.min(m));
    lu_nopiv(diag.rb_mut(), obs)?;
    let u11 = diag.as_view().submatrix(0, 0, jb, jb);
    for r0 in (0..below.rows()).step_by(nb) {
        let h = nb.min(below.rows() - r0);
        apply_l21(u11, below.rb_mut().into_submatrix(r0, 0, h, jb), obs);
    }
    Ok(ipiv)
}

/// Forms one tile's rows of a panel's `L₂₁` in place against the finished
/// `U₁₁`. For each panel column `j` it scales the tile's column by
/// `1/u_jj` and rank-1-updates the columns right of it — exactly the
/// restriction of `lu_nopiv`'s per-column `scal`+`ger` sweep to rows lying
/// entirely below the diagonal block, in the same column order with the
/// same kernels, so for a given pivot sequence the tile holds bitwise the
/// values a full-height panel elimination would have produced (column
/// `j`'s update of a row below the diagonal depends only on that row and
/// `U₁₁`, never on other trailing rows).
pub(crate) fn apply_l21<T: Scalar, O: PivotObserver<T>>(
    u11: MatView<'_, T>,
    mut tile: MatViewMut<'_, T>,
    obs: &mut O,
) {
    let jb = u11.cols();
    debug_assert_eq!(tile.cols(), jb);
    let mut urow = vec![T::ZERO; jb.saturating_sub(1)];
    for j in 0..jb {
        let inv = u11.get(j, j).recip();
        scal(inv, tile.col_mut(j));
        obs.on_multipliers(tile.col(j));
        let width = jb - j - 1;
        if width > 0 {
            for (c, u) in urow[..width].iter_mut().enumerate() {
                *u = u11.get(j, j + 1 + c);
            }
            let (left, mut right) = tile.rb_mut().split_at_col_mut(j + 1);
            ger(-T::ONE, left.col(j), &urow[..width], right.rb_mut());
            obs.on_stage(&right.as_view());
        }
    }
}

/// Reference GEPP panel factorization with identical output conventions
/// (used for the `p == 1`/`b == 1` equivalence tests and as the panel inside
/// the `PDGETRF` baseline model).
///
/// # Errors
/// Propagates singular panels.
pub fn gepp_panel<T: Scalar, O: PivotObserver<T>>(
    panel: MatViewMut<'_, T>,
    obs: &mut O,
) -> Result<TsluResult> {
    let m = panel.rows();
    let kn = m.min(panel.cols());
    let mut ipiv = vec![0usize; kn];
    getf2(panel, &mut ipiv, obs)?;
    Ok(TsluResult { pivot_rows: recover_winners(&ipiv, m), ipiv })
}

/// Recovers "winner" row order from a swap sequence (the original row that
/// occupies position `i` after all swaps).
fn recover_winners(ipiv: &[usize], m: usize) -> Vec<usize> {
    let mut row_at: Vec<usize> = (0..m).collect();
    for (i, &p) in ipiv.iter().enumerate() {
        row_at.swap(i, p);
    }
    row_at.truncate(ipiv.len());
    row_at
}

#[cfg(test)]
mod tests {
    use super::*;
    use calu_matrix::blas3::gemm;
    use calu_matrix::gen;
    use calu_matrix::perm::{ipiv_to_perm, permute_rows};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn check_panel_plu(orig: &Matrix, lu: &Matrix, ipiv: &[usize], tol: f64) {
        let perm = ipiv_to_perm(ipiv, orig.rows());
        let pa = permute_rows(orig, &perm);
        let l = lu.unit_lower();
        let u = lu.upper();
        let mut prod = Matrix::zeros(orig.rows(), orig.cols());
        gemm(1.0, l.view(), u.view(), 0.0, prod.view_mut());
        let d = pa.max_abs_diff(&prod);
        assert!(d < tol, "||P A - L U||_max = {d} > {tol}");
    }

    #[test]
    fn partition_rows_covers_everything() {
        for &(m, p) in &[(16, 4), (17, 4), (5, 8), (1, 1), (100, 7)] {
            let parts = partition_rows(m, p);
            assert!(parts.len() <= p);
            assert!(parts.iter().all(|r| !r.is_empty()));
            let total: usize = parts.iter().map(|r| r.len()).sum();
            assert_eq!(total, m);
            for w in parts.windows(2) {
                assert_eq!(w[0].end, w[1].start);
            }
        }
    }

    #[test]
    fn winners_to_ipiv_places_winners_on_top() {
        let winners = vec![5, 2, 7];
        let ipiv = winners_to_ipiv(&winners, 8);
        let mut rows: Vec<usize> = (0..8).collect();
        for (i, &p) in ipiv.iter().enumerate() {
            rows.swap(i, p);
        }
        assert_eq!(&rows[..3], &[5, 2, 7]);
    }

    #[test]
    fn winners_to_ipiv_handles_winners_in_top_region() {
        // Winner already sitting inside the top b rows but at a different slot.
        let winners = vec![1, 0, 3];
        let ipiv = winners_to_ipiv(&winners, 4);
        let mut rows: Vec<usize> = (0..4).collect();
        for (i, &p) in ipiv.iter().enumerate() {
            rows.swap(i, p);
        }
        assert_eq!(&rows[..3], &[1, 0, 3]);
    }

    #[test]
    fn tslu_reconstructs_panel() {
        let mut rng = StdRng::seed_from_u64(71);
        for &(m, b, p) in &[(64, 8, 4), (100, 10, 8), (33, 5, 4), (48, 16, 3), (20, 20, 2)] {
            let a0 = gen::randn(&mut rng, m, b);
            let mut a = a0.clone();
            let r = tslu_factor(a.view_mut(), p, LocalLu::Recursive, &mut NoObs).unwrap();
            assert_eq!(r.ipiv.len(), b.min(m));
            check_panel_plu(&a0, &a, &r.ipiv, 1e-8 * m as f64);
        }
    }

    #[test]
    fn tslu_p1_equals_partial_pivoting() {
        // p = 1: the tournament is a single local GEPP — pivots must match
        // getf2 exactly (paper Section 2).
        let mut rng = StdRng::seed_from_u64(72);
        let a0: Matrix = gen::randn(&mut rng, 50, 6);
        let mut a_t = a0.clone();
        let r = tslu_factor(a_t.view_mut(), 1, LocalLu::Classic, &mut NoObs).unwrap();
        let mut a_g = a0.clone();
        let mut ip_g = vec![0usize; 6];
        getf2(a_g.view_mut(), &mut ip_g, &mut NoObs).unwrap();
        assert_eq!(r.ipiv, ip_g);
        assert!(a_t.max_abs_diff(&a_g) < 1e-12);
    }

    #[test]
    fn tslu_b1_equals_partial_pivoting_any_p() {
        let mut rng = StdRng::seed_from_u64(73);
        let a0: Matrix = gen::randn(&mut rng, 64, 1);
        for p in [2usize, 4, 7, 8] {
            let mut a = a0.clone();
            let r = tslu_factor(a.view_mut(), p, LocalLu::Classic, &mut NoObs).unwrap();
            let best = calu_matrix::blas1::iamax(a0.col(0));
            assert_eq!(r.ipiv[0], best, "p={p}");
        }
    }

    #[test]
    fn classic_and_recursive_elect_identical_pivots() {
        let mut rng = StdRng::seed_from_u64(74);
        for &(m, b, p) in &[(64, 8, 4), (90, 15, 4), (128, 32, 8)] {
            let a0: Matrix = gen::randn(&mut rng, m, b);
            let pc = tslu_pivots(a0.view(), p, LocalLu::Classic);
            let pr = tslu_pivots(a0.view(), p, LocalLu::Recursive);
            assert_eq!(pc, pr, "m={m} b={b} p={p}");
        }
    }

    #[test]
    fn paper_figure1_example_pivot_rows() {
        // The 16 x 2 matrix of Figure 1 distributed over 4 processors of 4
        // contiguous rows each. The paper notes the TSLU winners coincide
        // with GEPP's pivots for this example; the final factorization's
        // leading pivot is the largest |entry| of column 0 (value 4).
        let a = Matrix::from_rows(&[
            &[2.0, 4.0],
            &[0.0, 1.0],
            &[2.0, 0.0],
            &[0.0, 0.0],
            &[0.0, 1.0],
            &[1.0, 4.0],
            &[2.0, 1.0],
            &[0.0, 2.0],
            &[2.0, 0.0],
            &[1.0, 2.0],
            &[4.0, 1.0],
            &[1.0, 0.0],
            &[0.0, 0.0],
            &[0.0, 2.0],
            &[1.0, 0.0],
            &[4.0, 2.0],
        ]);
        let winners = tslu_pivots(a.view(), 4, LocalLu::Classic);
        assert_eq!(winners.len(), 2);
        // First winner must carry |a| = 4 in column 0 (rows 10 or 15).
        assert_eq!(a[(winners[0], 0)].abs(), 4.0);
        // GEPP on the full matrix picks the same first pivot value.
        let gepp_first = calu_matrix::blas1::iamax(a.col(0));
        assert_eq!(a[(gepp_first, 0)].abs(), 4.0);
        // And the TSLU factorization succeeds with |L| <= 3 (threshold).
        let mut panel = a.clone();
        let r = tslu_factor(panel.view_mut(), 4, LocalLu::Classic, &mut NoObs).unwrap();
        assert_eq!(r.pivot_rows, winners);
        let l = panel.unit_lower();
        for j in 0..l.cols() {
            for i in j + 1..l.rows() {
                assert!(l[(i, j)].abs() <= 3.0 + 1e-12);
            }
        }
    }

    #[test]
    fn gepp_panel_winner_recovery() {
        let mut rng = StdRng::seed_from_u64(75);
        let a0: Matrix = gen::randn(&mut rng, 30, 5);
        let mut a = a0.clone();
        let r = gepp_panel(a.view_mut(), &mut NoObs).unwrap();
        // Winners must be where the permuted rows came from.
        let perm = ipiv_to_perm(&r.ipiv, 30);
        assert_eq!(&perm[..5], r.pivot_rows.as_slice());
    }
}
