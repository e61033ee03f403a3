//! The `matrix` and `core.tournament` layers, timed by direct calls on a
//! workload's own tile shapes, and the flop counts every rate uses.

use crate::stats::median;
use calu_core::{reduce_pair, Candidates};
use calu_matrix::blas3::{gemm, trsm};
use calu_matrix::lapack::rgetf2;
use calu_matrix::{gen, Diag, Matrix, NoObs, Side, Uplo};
use calu_netsim::machine::{flops_gemm, flops_getf2, flops_lu, flops_trsm_left};
use rand::rngs::StdRng;
use std::hint::black_box;
use std::time::Instant;

/// Bytes of one `f64`.
const WORD: f64 = 8.0;

/// Flops of one benchmark operation on an `n × n` system: the LU
/// factorization plus one forward and one backward substitution.
pub fn op_flops(n: usize) -> f64 {
    flops_lu(n, n) + solve_flops(n)
}

/// Flops of one solve with packed `n × n` LU factors (two triangular
/// sweeps; the pivot swaps do no arithmetic).
pub fn solve_flops(n: usize) -> f64 {
    2.0 * (n * n) as f64
}

/// Computed arithmetic intensity of `C -= A B` on `m × k` by `k × n`
/// operands: each operand read once and `C` read and written once.
pub fn gemm_intensity(m: usize, n: usize, k: usize) -> f64 {
    flops_gemm(m, n, k) / (WORD * (m * k + k * n + 2 * m * n) as f64)
}

/// Computed intensity of a left triangular solve of a `t × t` triangle
/// against `n` right-hand sides: half the triangle read, `B` read and
/// written.
pub fn trsm_intensity(t: usize, n: usize) -> f64 {
    flops_trsm_left(t, n) / (WORD * ((t * t) as f64 / 2.0 + 2.0 * (t * n) as f64))
}

/// Computed intensity of an in-place `m × n` panel LU: the panel read and
/// written once.
pub fn getf2_intensity(m: usize, n: usize) -> f64 {
    flops_getf2(m, n) / (WORD * 2.0 * (m * n) as f64)
}

/// Times `call` repeatedly for at least `budget_s` seconds (and at least
/// five calls), re-running `prepare` untimed before each call, and
/// returns the median call time in seconds.
fn time_call<S>(budget_s: f64, mut prepare: impl FnMut() -> S, mut call: impl FnMut(S)) -> f64 {
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < 5 || start.elapsed().as_secs_f64() < budget_s {
        let state = prepare();
        let t = Instant::now();
        call(state);
        times.push(t.elapsed().as_secs_f64());
    }
    median(&times)
}

/// Times `gemm`, `trsm`, `rgetf2` and `reduce_pair` on `nb × nb` tiles
/// (the tile the factorization DAG's tasks work on) and appends the
/// `matrix.*` and `core.tournament.*` metrics.
pub fn measure(nb: usize, rng: &mut StdRng, budget_s: f64, out: &mut Vec<(String, f64)>) {
    let a: Matrix = gen::randn(rng, nb, nb);
    let b: Matrix = gen::randn(rng, nb, nb);
    let c: Matrix = gen::randn(rng, nb, nb);
    // A unit lower triangle with small off-diagonal entries keeps repeated
    // solves well scaled.
    let l = Matrix::from_fn(nb, nb, |i, j| if i > j { a[(i, j)] / nb as f64 } else { 0.0 });

    let t = time_call(
        budget_s,
        || c.clone(),
        |mut c| {
            gemm(-1.0, a.view(), b.view(), 1.0, c.view_mut());
            black_box(c);
        },
    );
    out.push(("matrix.gemm.gflops".into(), flops_gemm(nb, nb, nb) / t / 1e9));
    out.push(("matrix.gemm.flops_per_byte".into(), gemm_intensity(nb, nb, nb)));

    let t = time_call(
        budget_s,
        || b.clone(),
        |mut x| {
            trsm(Side::Left, Uplo::Lower, Diag::Unit, 1.0, l.view(), x.view_mut());
            black_box(x);
        },
    );
    out.push(("matrix.trsm.gflops".into(), flops_trsm_left(nb, nb) / t / 1e9));
    out.push(("matrix.trsm.flops_per_byte".into(), trsm_intensity(nb, nb)));

    let t = time_call(
        budget_s,
        || (a.clone(), vec![0usize; nb]),
        |(mut p, mut ipiv)| {
            rgetf2(p.view_mut(), &mut ipiv, &mut NoObs).expect("random tile is nonsingular");
            black_box((p, ipiv));
        },
    );
    out.push(("matrix.rgetf2.gflops".into(), flops_getf2(nb, nb) / t / 1e9));
    out.push(("matrix.rgetf2.flops_per_byte".into(), getf2_intensity(nb, nb)));

    let lo = Candidates::new(a.clone(), (0..nb).collect());
    let hi = Candidates::new(b.clone(), (nb..2 * nb).collect());
    let t = time_call(
        budget_s,
        || (),
        |()| {
            black_box(reduce_pair(black_box(&lo), black_box(&hi)));
        },
    );
    out.push(("core.tournament.reduce_pair_us".into(), t * 1e6));
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn flop_counts() {
        // LU of n × n is 2n³/3 flops at leading order; the solve is 2n².
        assert_eq!(solve_flops(256), 131_072.0);
        assert!(
            (op_flops(1024) - (2.0 / 3.0 * 1024f64.powi(3) + 2.0 * 1024f64.powi(2))).abs() < 1.0
        );
        assert_eq!(flops_gemm(128, 128, 128), 2.0 * 128f64.powi(3));
        assert_eq!(flops_trsm_left(128, 64), 128.0 * 128.0 * 64.0);
        // Intensity grows with the tile: a square gemm does 2n³ flops on
        // 4n² words, n/16 flop per byte.
        assert!((gemm_intensity(128, 128, 128) - 8.0).abs() < 1e-12);
        assert!(trsm_intensity(128, 128) < gemm_intensity(128, 128, 128));
        assert!(
            (getf2_intensity(64, 64) - (64f64.powi(3) * 2.0 / 3.0) / (8.0 * 2.0 * 4096.0)).abs()
                < 1e-12
        );
    }

    #[test]
    fn measure_reports_every_kernel() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut out = Vec::new();
        measure(16, &mut rng, 0.0, &mut out);
        assert_eq!(out.len(), 7);
        assert!(out.iter().all(|(_, v)| v.is_finite() && *v > 0.0));
    }
}
