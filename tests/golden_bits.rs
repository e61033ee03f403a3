//! Golden bits: seeded n = 256 factorizations hashed over every factor
//! bit (`lu` and `ipiv`) and compared with constants recorded before the
//! packed `gemm`/`trsm` kernels replaced the rank-4 column kernel.
//!
//! Every kernel variant keeps each element's operation order (see the
//! order contract in `calu_matrix::blas3`), so these hashes may not move
//! when the kernels change: not with the ISA the host runs, not with the
//! register tile or cache-block sizes. A change that moves one of them
//! changed the arithmetic, and every other bitwise contract with it.
//!
//! The panel width is 30, so the trailing updates see `k % 4 == 2`
//! remainders and ragged edge tiles, not only whole groups.

use calu_repro::core::dist::DistCaluConfig;
use calu_repro::core::{
    calu_factor, dist_calu_factor_rt, runtime_calu_factor, CaluOpts, DistRtOpts, LocalLu,
    PanelMode, RuntimeOpts,
};
use calu_repro::matrix::lapack::{getrf, GetrfOpts};
use calu_repro::matrix::{gen, Matrix, NoObs, Scalar};
use calu_repro::netsim::MachineConfig;
use calu_repro::runtime::ExecutorKind;
use rand::rngs::StdRng;
use rand::SeedableRng;

const N: usize = 256;
const B: usize = 30;
const SEED: u64 = 20_081_115;

/// FNV-1a over the factor bits and the pivot sequence. `f32` entries are
/// widened to `f64` first, which is exact.
fn hash<T: Scalar>(lu: &Matrix<T>, ipiv: &[usize]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |word: u64| {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for j in 0..lu.cols() {
        for i in 0..lu.rows() {
            eat(lu[(i, j)].to_f64().to_bits());
        }
    }
    for &p in ipiv {
        eat(p as u64);
    }
    h
}

/// Hashes of `[calu_factor, runtime_calu_factor (Resident), getrf,
/// dist_calu_factor_rt]` on the seeded matrix at precision `T`.
fn hashes<T: Scalar>() -> [u64; 4] {
    let a: Matrix<T> = gen::randn::<f64>(&mut StdRng::seed_from_u64(SEED), N, N).cast::<T>();
    let opts = CaluOpts { block: B, p: 4, local: LocalLu::Recursive, ..Default::default() };

    let seq = calu_factor(&a, opts).expect("calu_factor");

    let resident = CaluOpts { panel_mode: PanelMode::Resident, ..opts };
    let rt = RuntimeOpts { executor: ExecutorKind::Threaded { threads: 2 }, ..Default::default() };
    let (run, _) = runtime_calu_factor(&a, resident, rt).expect("runtime_calu_factor");

    let mut lu = a.clone();
    let mut ipiv = vec![0; N];
    getrf(lu.view_mut(), &mut ipiv, GetrfOpts { block: B, ..Default::default() }, &mut NoObs)
        .expect("getrf");

    let cfg = DistCaluConfig { b: B, pr: 2, pc: 2, local: LocalLu::Recursive };
    let (_, dist) = dist_calu_factor_rt(&a, cfg, DistRtOpts::default(), MachineConfig::ideal());
    assert_eq!(dist.first_singular, None);

    [
        hash(&seq.lu, &seq.ipiv),
        hash(&run.lu, &run.ipiv),
        hash(&lu, &ipiv),
        hash(&dist.lu, &dist.ipiv),
    ]
}

#[test]
fn factor_bits_match_the_recorded_hashes_f64() {
    assert_eq!(
        hashes::<f64>(),
        [
            0x3623_8cb5_2c2f_bf1d,
            0xa519_8eae_4a27_574f,
            0x9eac_cd43_4ba6_1bb7,
            0x12ba_d7f8_fd1b_51da
        ]
    );
}

#[test]
fn factor_bits_match_the_recorded_hashes_f32() {
    assert_eq!(
        hashes::<f32>(),
        [
            0xb764_1d3d_1c6d_5843,
            0x63a1_b67e_8797_150b,
            0x6c6a_4b03_0fc0_8d05,
            0xb9fc_e0cd_e6ff_6291
        ]
    );
}

/// The sequential sweep on the tile-leaf tree is the runtime's oracle: it
/// must hash to the runtime-resident constants above.
fn sequential_resident_hash<T: Scalar>() -> u64 {
    let a: Matrix<T> = gen::randn::<f64>(&mut StdRng::seed_from_u64(SEED), N, N).cast::<T>();
    let opts = CaluOpts {
        block: B,
        p: 4,
        local: LocalLu::Recursive,
        panel_mode: PanelMode::Resident,
        ..Default::default()
    };
    let f = calu_factor(&a, opts).expect("calu_factor");
    hash(&f.lu, &f.ipiv)
}

#[test]
fn sequential_resident_bits_match_the_runtime_hashes() {
    assert_eq!(sequential_resident_hash::<f64>(), 0xa519_8eae_4a27_574f);
    assert_eq!(sequential_resident_hash::<f32>(), 0x63a1_b67e_8797_150b);
}
