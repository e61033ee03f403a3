//! Level-3 kernels: cache-blocked, packed `gemm` (serial and
//! rayon-parallel) and the four no-transpose `trsm` cases LU factorization
//! needs.
//!
//! `gemm` and the left lower `trsm` run on one packed, register-blocked
//! micro-kernel per instruction set: AVX-512F, AVX2, or portable Rust,
//! chosen once at run time from what the host supports
//! ([`kernel_variant`] names it). Operands are cut into cache blocks (NC
//! columns, KC k-steps, MC rows), `A` is packed into `MR`-row panels and
//! `alpha·B` into `NR`-column panels, and each `MR × NR` tile of `C` stays
//! in registers for its whole k-loop.
//!
//! # Order contract
//!
//! No variant changes any element's arithmetic. [`gemm_spec`] spells out
//! the operation sequence of every element of `C` (the grouped order);
//! the left lower `trsm` applies its updates in ascending k, one at a
//! time (the rank-1 order), exactly as forward substitution column by
//! column would. Multiplies and adds stay separate (no FMA). So every
//! variant gives the same bits as every other, on every host, and every
//! bitwise contract built on these kernels (runtime vs sequential, tile vs
//! flat layout, distributed vs sequential, batched vs single solves)
//! holds whatever ISA the host has. The other three `trsm` cases are the
//! plain substitution loops.

use crate::blas1::axpy;
use crate::kernel::{self, Variant, NC};
use crate::scalar::Scalar;
use crate::view::{MatView, MatViewMut};
use crate::{Diag, Side, Uplo};

/// Name of the kernel variant this host runs: `"avx512f"`, `"avx2"` or
/// `"portable"`. Every `gemm` and left lower `trsm` call uses it.
pub fn kernel_variant() -> &'static str {
    Variant::detect().name()
}

/// Names of every kernel variant this host can run, best first (the
/// first is [`kernel_variant`]; `"portable"` is always last).
pub fn kernel_variants() -> Vec<&'static str> {
    Variant::ALL.into_iter().filter(|v| v.supported()).map(Variant::name).collect()
}

/// The variant called `name`.
///
/// # Panics
/// If no variant has that name.
fn variant(name: &str) -> Variant {
    Variant::from_name(name).unwrap_or_else(|| panic!("unknown kernel variant {name:?}"))
}

/// The per-core ceiling of the named variant, in GFLOP/s: its register
/// tile's k-loop alone, timed in short bursts for about `seconds` on
/// packed panels that stay in L1 (no packing, no cache misses; the fastest
/// burst counts). Kernel benchmarks report it beside the rates `gemm` and
/// `trsm` reach.
///
/// # Panics
/// If the host cannot run `variant`.
pub fn tile_loop_gflops<T: Scalar>(variant_name: &str, seconds: f64) -> f64 {
    kernel::tile_loop_gflops::<T>(variant(variant_name), seconds)
}

/// `C = alpha * A * B + beta * C` (BLAS `DGEMM`, no transposes), serial.
///
/// Shapes: `A: m x k`, `B: k x n`, `C: m x n`.
///
/// # Panics
/// On dimension mismatch.
pub fn gemm<T: Scalar>(
    alpha: T,
    a: MatView<'_, T>,
    b: MatView<'_, T>,
    beta: T,
    c: MatViewMut<'_, T>,
) {
    gemm_on(Variant::detect(), alpha, a, b, beta, c)
}

/// [`gemm`] on the named kernel variant instead of the detected one, for
/// benchmarks that compare the variants (the result bits are the same).
///
/// # Panics
/// On dimension mismatch, or if the host cannot run `variant`.
pub fn gemm_with_variant<T: Scalar>(
    variant_name: &str,
    alpha: T,
    a: MatView<'_, T>,
    b: MatView<'_, T>,
    beta: T,
    c: MatViewMut<'_, T>,
) {
    gemm_on(variant(variant_name), alpha, a, b, beta, c)
}

fn gemm_on<T: Scalar>(
    v: Variant,
    alpha: T,
    a: MatView<'_, T>,
    b: MatView<'_, T>,
    beta: T,
    mut c: MatViewMut<'_, T>,
) {
    let (m, k) = (a.rows(), a.cols());
    let n = b.cols();
    assert_eq!(b.rows(), k, "gemm: inner dimension mismatch");
    assert_eq!(c.rows(), m, "gemm: C rows mismatch");
    assert_eq!(c.cols(), n, "gemm: C cols mismatch");

    scale(beta, c.rb_mut());
    if alpha == T::ZERO || m == 0 || n == 0 || k == 0 {
        return;
    }
    kernel::gemm(T::tile_kernel(v), alpha, a, b, c);
}

/// `C = alpha * A * B + beta * C`, splitting columns of `C` across the rayon
/// thread pool. Falls back to the serial path for small problems.
pub fn par_gemm<T: Scalar>(
    alpha: T,
    a: MatView<'_, T>,
    b: MatView<'_, T>,
    beta: T,
    c: MatViewMut<'_, T>,
) {
    let n = b.cols();
    let work = (a.rows() as u64) * (a.cols() as u64) * (n as u64);
    // Below ~8 Mflop the spawn overhead dominates on small core counts.
    if work < 4_000_000 || n < 2 * NC {
        gemm(alpha, a, b, beta, c);
        return;
    }
    par_gemm_cols(alpha, a, b, beta, c);
}

fn par_gemm_cols<T: Scalar>(
    alpha: T,
    a: MatView<'_, T>,
    b: MatView<'_, T>,
    beta: T,
    c: MatViewMut<'_, T>,
) {
    let n = c.cols();
    if n <= NC {
        gemm(alpha, a, b, beta, c);
        return;
    }
    let half = (n / 2 / NC).max(1) * NC;
    let (b_l, b_r) = b.split_at_col(half.min(n));
    let (c_l, c_r) = c.split_at_col_mut(half.min(n));
    rayon::join(
        || par_gemm_cols(alpha, a, b_l, beta, c_l),
        || par_gemm_cols(alpha, a, b_r, beta, c_r),
    );
}

fn scale<T: Scalar>(beta: T, mut c: MatViewMut<'_, T>) {
    if beta == T::ONE {
        return;
    }
    for j in 0..c.cols() {
        if beta == T::ZERO {
            c.col_mut(j).fill(T::ZERO);
        } else {
            crate::blas1::scal(beta, c.col_mut(j));
        }
    }
}

/// Triangular solve with multiple right-hand sides (BLAS `DTRSM`, no
/// transpose): overwrites `B` with `alpha * op(A)^{-1} B` (`side == Left`)
/// or `alpha * B * op(A)^{-1}` (`side == Right`).
///
/// The four `side x uplo` combinations cover everything LU needs:
/// * `Left/Lower/Unit` — compute `U12 = L11^{-1} A12` in the trailing update;
/// * `Left/Upper/NonUnit` — back-substitution in solves;
/// * `Right/Upper/NonUnit` — TSLU step 6, `L_i = A_i U^{-1}`;
/// * `Right/Lower/Unit` — completes the API (used in tests).
///
/// # Panics
/// If `A` is not square or shapes mismatch.
pub fn trsm<T: Scalar>(
    side: Side,
    uplo: Uplo,
    diag: Diag,
    alpha: T,
    a: MatView<'_, T>,
    b: MatViewMut<'_, T>,
) {
    trsm_on(Variant::detect(), side, uplo, diag, alpha, a, b)
}

/// [`trsm`] on the named kernel variant instead of the detected one, for
/// benchmarks that compare the variants (the result bits are the same).
///
/// # Panics
/// As [`trsm`], or if the host cannot run `variant`.
pub fn trsm_with_variant<T: Scalar>(
    variant_name: &str,
    side: Side,
    uplo: Uplo,
    diag: Diag,
    alpha: T,
    a: MatView<'_, T>,
    b: MatViewMut<'_, T>,
) {
    trsm_on(variant(variant_name), side, uplo, diag, alpha, a, b)
}

fn trsm_on<T: Scalar>(
    v: Variant,
    side: Side,
    uplo: Uplo,
    diag: Diag,
    alpha: T,
    a: MatView<'_, T>,
    mut b: MatViewMut<'_, T>,
) {
    let n_tri = a.rows();
    assert_eq!(a.cols(), n_tri, "trsm: A must be square");
    match side {
        Side::Left => assert_eq!(b.rows(), n_tri, "trsm: B rows != A order"),
        Side::Right => assert_eq!(b.cols(), n_tri, "trsm: B cols != A order"),
    }
    if alpha != T::ONE {
        scale(alpha, b.rb_mut());
    }
    if b.is_empty() {
        return;
    }
    match (side, uplo) {
        (Side::Left, Uplo::Lower) => {
            // Forward substitution on the packed kernel, in rank-1 order.
            kernel::trsm_lower(T::tile_kernel(v), diag == Diag::Unit, a, b)
        }
        (Side::Left, Uplo::Upper) => {
            let m = b.rows();
            for j in 0..b.cols() {
                let bcol = b.col_mut(j);
                for k in (0..m).rev() {
                    if let Diag::NonUnit = diag {
                        bcol[k] /= a.get(k, k);
                    }
                    let bk = bcol[k];
                    if bk != T::ZERO {
                        let acol = a.col(k);
                        for (i, bi) in bcol.iter_mut().enumerate().take(k) {
                            *bi -= acol[i] * bk;
                        }
                    }
                }
            }
        }
        (Side::Right, Uplo::Upper) => {
            // X U = B: columns left to right; x_j = (b_j - X[:, :j] u[:j, j]) / u_jj.
            let n = b.cols();
            for j in 0..n {
                for k in 0..j {
                    let u_kj = a.get(k, j);
                    if u_kj != T::ZERO {
                        let (xk, xj) = b.two_cols_mut(k, j);
                        axpy(-u_kj, xk, xj);
                    }
                }
                if let Diag::NonUnit = diag {
                    let inv = a.get(j, j).recip();
                    crate::blas1::scal(inv, b.col_mut(j));
                }
            }
        }
        (Side::Right, Uplo::Lower) => {
            // X L = B: columns right to left.
            let n = b.cols();
            for j in (0..n).rev() {
                for k in j + 1..n {
                    let l_kj = a.get(k, j);
                    if l_kj != T::ZERO {
                        let (xj, xk) = b.two_cols_mut(j, k);
                        axpy(-l_kj, xk, xj);
                    }
                }
                if let Diag::NonUnit = diag {
                    let inv = a.get(j, j).recip();
                    crate::blas1::scal(inv, b.col_mut(j));
                }
            }
        }
    }
}

/// Reference `gemm` as a naive triple loop; used by tests and property checks
/// to validate the blocked kernel.
pub fn gemm_naive<T: Scalar>(
    alpha: T,
    a: MatView<'_, T>,
    b: MatView<'_, T>,
    beta: T,
    mut c: MatViewMut<'_, T>,
) {
    let (m, k) = (a.rows(), a.cols());
    let n = b.cols();
    assert_eq!(b.rows(), k);
    assert_eq!(c.rows(), m);
    assert_eq!(c.cols(), n);
    for j in 0..n {
        for i in 0..m {
            let mut acc = T::ZERO;
            for l in 0..k {
                acc += a.get(i, l) * b.get(l, j);
            }
            let cur = c.get(i, j);
            c.set(i, j, alpha * acc + beta * cur);
        }
    }
}

/// The order contract of [`gemm`], stated one element at a time: the
/// exact operation sequence every kernel variant must reproduce bit for
/// bit. Slow; tests and property checks compare the kernels against it.
///
/// After `beta` is applied (and nothing more when `alpha == 0` or a
/// dimension is 0), element `(i, j)` takes, with `b'_l = alpha · b[l, j]`:
///
/// * for each group of four k-steps `l .. l + 4` with `l + 4 <= k`, in
///   ascending `l`: `c += ((a[i,l]·b'_l + a[i,l+1]·b'_{l+1}) +
///   a[i,l+2]·b'_{l+2}) + a[i,l+3]·b'_{l+3}`;
/// * then for each of the `k % 4` remaining steps, in ascending `l`:
///   `c += b'_l · a[i,l]`, skipped when `b'_l == 0`.
///
/// Every multiply and add rounds on its own (no FMA).
pub fn gemm_spec<T: Scalar>(
    alpha: T,
    a: MatView<'_, T>,
    b: MatView<'_, T>,
    beta: T,
    mut c: MatViewMut<'_, T>,
) {
    let (m, k) = (a.rows(), a.cols());
    let n = b.cols();
    assert_eq!(b.rows(), k);
    assert_eq!(c.rows(), m);
    assert_eq!(c.cols(), n);
    scale(beta, c.rb_mut());
    if alpha == T::ZERO || m == 0 || n == 0 || k == 0 {
        return;
    }
    let k4 = k - k % 4;
    for j in 0..n {
        let bp = |l: usize| alpha * b.get(l, j);
        for i in 0..m {
            let mut cij = c.get(i, j);
            for l in (0..k4).step_by(4) {
                cij += a.get(i, l) * bp(l)
                    + a.get(i, l + 1) * bp(l + 1)
                    + a.get(i, l + 2) * bp(l + 2)
                    + a.get(i, l + 3) * bp(l + 3);
            }
            for l in k4..k {
                if bp(l) != T::ZERO {
                    cij += bp(l) * a.get(i, l);
                }
            }
            c.set(i, j, cij);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::Matrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn assert_close(a: &Matrix, b: &Matrix, tol: f64) {
        let d = a.max_abs_diff(b);
        assert!(d < tol, "matrices differ by {d}");
    }

    #[test]
    fn gemm_matches_naive_on_random_shapes() {
        let mut rng = StdRng::seed_from_u64(7);
        for &(m, k, n) in
            &[(1, 1, 1), (5, 3, 4), (37, 19, 23), (64, 64, 64), (129, 65, 140), (300, 17, 260)]
        {
            let a = gen::randn(&mut rng, m, k);
            let b = gen::randn(&mut rng, k, n);
            let c0 = gen::randn(&mut rng, m, n);
            let mut c1 = c0.clone();
            let mut c2 = c0.clone();
            gemm(1.5, a.view(), b.view(), -0.5, c1.view_mut());
            gemm_naive(1.5, a.view(), b.view(), -0.5, c2.view_mut());
            assert_close(&c1, &c2, 1e-10 * (k as f64));
        }
    }

    #[test]
    fn par_gemm_matches_serial() {
        let mut rng = StdRng::seed_from_u64(8);
        let (m, k, n) = (150, 90, 310);
        let a = gen::randn(&mut rng, m, k);
        let b = gen::randn(&mut rng, k, n);
        let c0 = gen::randn(&mut rng, m, n);
        let mut c1 = c0.clone();
        let mut c2 = c0;
        gemm(1.0, a.view(), b.view(), 1.0, c1.view_mut());
        par_gemm(1.0, a.view(), b.view(), 1.0, c2.view_mut());
        assert_close(&c1, &c2, 1e-11 * (k as f64));
    }

    #[test]
    fn gemm_beta_zero_overwrites_nan() {
        // beta = 0 must overwrite even NaN garbage in C.
        let a = Matrix::identity(2);
        let b = Matrix::identity(2);
        let mut c = Matrix::from_fn(2, 2, |_, _| f64::NAN);
        gemm(1.0, a.view(), b.view(), 0.0, c.view_mut());
        assert_eq!(c, Matrix::identity(2));
    }

    #[test]
    fn gemm_empty_k_scales_only() {
        let a = Matrix::zeros(3, 0);
        let b = Matrix::zeros(0, 2);
        let mut c = Matrix::from_fn(3, 2, |_, _| 2.0);
        gemm(1.0, a.view(), b.view(), 0.5, c.view_mut());
        assert_eq!(c, Matrix::from_fn(3, 2, |_, _| 1.0));
    }

    fn random_lower_unit(rng: &mut StdRng, n: usize) -> Matrix {
        let mut l = gen::randn(rng, n, n);
        for i in 0..n {
            for j in 0..n {
                if j > i {
                    l[(i, j)] = 0.0;
                } else if j == i {
                    l[(i, j)] = 1.0;
                } else {
                    l[(i, j)] *= 0.3; // keep well-conditioned
                }
            }
        }
        l
    }

    fn random_upper(rng: &mut StdRng, n: usize) -> Matrix {
        let mut u = gen::randn(rng, n, n);
        for i in 0..n {
            for j in 0..n {
                if j < i {
                    u[(i, j)] = 0.0;
                } else if j == i {
                    u[(i, j)] = 2.0 + u[(i, j)].abs();
                }
            }
        }
        u
    }

    #[test]
    fn trsm_left_lower_unit_round_trip() {
        let mut rng = StdRng::seed_from_u64(3);
        let l = random_lower_unit(&mut rng, 17);
        let b0 = gen::randn(&mut rng, 17, 9);
        let mut x = b0.clone();
        trsm(Side::Left, Uplo::Lower, Diag::Unit, 1.0, l.view(), x.view_mut());
        let mut back = Matrix::zeros(17, 9);
        gemm(1.0, l.view(), x.view(), 0.0, back.view_mut());
        assert_close(&back, &b0, 1e-10);
    }

    #[test]
    fn trsm_left_upper_nonunit_round_trip() {
        let mut rng = StdRng::seed_from_u64(4);
        let u = random_upper(&mut rng, 13);
        let b0 = gen::randn(&mut rng, 13, 5);
        let mut x = b0.clone();
        trsm(Side::Left, Uplo::Upper, Diag::NonUnit, 1.0, u.view(), x.view_mut());
        let mut back = Matrix::zeros(13, 5);
        gemm(1.0, u.view(), x.view(), 0.0, back.view_mut());
        assert_close(&back, &b0, 1e-9);
    }

    #[test]
    fn trsm_right_upper_nonunit_round_trip() {
        // TSLU step 6: L = A U^{-1}  =>  L U = A.
        let mut rng = StdRng::seed_from_u64(5);
        let u = random_upper(&mut rng, 8);
        let a0 = gen::randn(&mut rng, 20, 8);
        let mut l = a0.clone();
        trsm(Side::Right, Uplo::Upper, Diag::NonUnit, 1.0, u.view(), l.view_mut());
        let mut back = Matrix::zeros(20, 8);
        gemm(1.0, l.view(), u.view(), 0.0, back.view_mut());
        assert_close(&back, &a0, 1e-9);
    }

    #[test]
    fn trsm_right_lower_unit_round_trip() {
        let mut rng = StdRng::seed_from_u64(6);
        let l_tri = random_lower_unit(&mut rng, 7);
        let b0 = gen::randn(&mut rng, 11, 7);
        let mut x = b0.clone();
        trsm(Side::Right, Uplo::Lower, Diag::Unit, 1.0, l_tri.view(), x.view_mut());
        let mut back = Matrix::zeros(11, 7);
        gemm(1.0, x.view(), l_tri.view(), 0.0, back.view_mut());
        assert_close(&back, &b0, 1e-10);
    }

    #[test]
    fn trsm_alpha_scales_rhs() {
        let l = Matrix::identity(3);
        let mut b = Matrix::from_fn(3, 2, |_, _| 1.0);
        trsm(Side::Left, Uplo::Lower, Diag::Unit, 2.0, l.view(), b.view_mut());
        assert_eq!(b, Matrix::from_fn(3, 2, |_, _| 2.0));
    }
}
