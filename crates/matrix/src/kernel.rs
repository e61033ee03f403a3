//! Packed, register-blocked micro-kernels behind [`crate::blas3::gemm`]
//! and the left lower [`crate::blas3::trsm`], one per instruction set,
//! chosen once at run time.
//!
//! # Order contract
//!
//! Every variant computes each element of `C` with exactly the operations,
//! in exactly the order, that [`crate::blas3::gemm_spec`] spells out:
//!
//! * **grouped order** (`gemm`): with `b' = alpha·b`, every group of four
//!   k-steps adds `((a0·b0' + a1·b1') + a2·b2') + a3·b3'` to `c`; the
//!   `k % 4` steps left over are applied one at a time, `c += b'·a`, and
//!   skipped when `b' == 0`;
//! * **rank-1 order** (`trsm`): every k-step is applied one at a time,
//!   `c += b'·a`, skipped when `b' == 0`, with `b' = −x` the negated,
//!   already solved row of `X`.
//!
//! Multiplies and adds stay separate (no FMA), so the result of every
//! element is the same bits on every variant, every host ISA, and every
//! register tile or cache-block size. Only NaN payloads may differ (IEEE
//! and LLVM leave them unspecified); a NaN stays a NaN.
//!
//! # Structure
//!
//! The drivers ([`gemm`], [`trsm_lower`]) are plain generic Rust: they
//! cut the operands into cache blocks, pack `A` into `MR`-row panels and
//! the scaled `B` into `NR`-column panels (zero-padded at the edges), and
//! hand each `MR × NR` tile of `C` to the [`TileKernel`] of the chosen
//! variant, which keeps the tile in registers for its whole k-loop. Only
//! that tile loop and `trsm`'s diagonal-block solve are compiled per
//! instruction set (`#[target_feature]`); [`Variant::detect`] is the one
//! place that chooses the variant.
//!
//! # Safety
//!
//! The tile loop reads and writes through raw pointers. The drivers are
//! the only callers; they derive every pointer from a packed buffer of the
//! right length or from a view whose tile they have bounds-checked, and
//! they only run a variant the host supports.

use crate::scalar::Scalar;
use crate::view::{MatView, MatViewMut};
use std::cell::Cell;
use std::thread::LocalKey;

/// Column-block width of `C` per driver step (and `par_gemm`'s split unit).
pub(crate) const NC: usize = 128;
/// Depth of one packed k-chunk.
pub(crate) const KC: usize = 256;
/// Row-block height of one packed `A` block.
pub(crate) const MC: usize = 128;

// Groups of four k-steps never straddle a KC chunk, so chunking leaves the
// grouped order of every element unchanged.
const _: () = assert!(KC.is_multiple_of(4));

/// A kernel variant: the instruction set its tile loop is compiled for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// 512-bit vectors (`avx512f`).
    Avx512f,
    /// 256-bit vectors (`avx2`).
    Avx2,
    /// Scalar Rust, any target.
    Portable,
}

impl Variant {
    /// Every variant, best first.
    pub const ALL: [Variant; 3] = [Variant::Avx512f, Variant::Avx2, Variant::Portable];

    /// The name reported by `kernel_variant` and the benchmark records.
    pub fn name(self) -> &'static str {
        match self {
            Variant::Avx512f => "avx512f",
            Variant::Avx2 => "avx2",
            Variant::Portable => "portable",
        }
    }

    /// The variant called `name`, if it exists.
    pub fn from_name(name: &str) -> Option<Variant> {
        Variant::ALL.into_iter().find(|v| v.name() == name)
    }

    /// Whether this host can run the variant.
    pub fn supported(self) -> bool {
        match self {
            #[cfg(target_arch = "x86_64")]
            Variant::Avx512f => is_x86_feature_detected!("avx512f"),
            #[cfg(target_arch = "x86_64")]
            Variant::Avx2 => is_x86_feature_detected!("avx2"),
            Variant::Portable => true,
            #[allow(unreachable_patterns)]
            _ => false,
        }
    }

    /// The variant every kernel call runs: the best one the host supports.
    /// This is the single dispatch point.
    pub fn detect() -> Variant {
        Variant::ALL.into_iter().find(|v| v.supported()).unwrap_or(Variant::Portable)
    }
}

/// One `MR × NR` tile update: its k-depth, how many leading k-steps run
/// in grouped order (a multiple of 4; the rest run in rank-1 order), the
/// packed panels, and the tile of `C`.
pub struct Tile<T> {
    kc: usize,
    grouped: usize,
    a: *const T,
    b: *const T,
    c: *mut T,
    ldc: usize,
}

/// A variant's register tile, the tile loop compiled for it, and the
/// packing routines for its tile shape.
#[derive(Clone, Copy)]
pub struct TileKernel<T> {
    mr: usize,
    nr: usize,
    /// # Safety
    /// `a` holds `kc` packed `mr`-vectors, `b` holds `kc` packed
    /// `nr`-vectors, `c + j·ldc .. c + j·ldc + mr` is valid and exclusive
    /// for every `j < nr`, and the host supports the variant.
    run: unsafe fn(&Tile<T>),
    pack_a: fn(MatView<'_, T>, &mut Vec<T>),
    pack_b: fn(MatView<'_, T>, usize, usize, T, &mut Vec<T>),
    /// # Safety
    /// The host supports the variant.
    solve: unsafe fn(bool, MatView<'_, T>, MatViewMut<'_, T>),
}

impl<T: Scalar> TileKernel<T> {
    /// The kernel with tile loop `run` for an `MR × NR` tile.
    fn new<const MR: usize, const NR: usize>(
        run: unsafe fn(&Tile<T>),
        solve: unsafe fn(bool, MatView<'_, T>, MatViewMut<'_, T>),
    ) -> Self {
        TileKernel { mr: MR, nr: NR, run, pack_a: pack_a::<T, MR>, pack_b: pack_b::<T, NR>, solve }
    }
}

/// Element types with packed kernels: `f32` and `f64`. A supertrait of
/// [`Scalar`] that code outside this crate cannot name, so it also seals
/// `Scalar` to those two types.
pub trait Packed: Copy + 'static {
    /// The tile kernel of `variant` for this element type: the only way to
    /// obtain a [`TileKernel`], so every one runs on its host.
    ///
    /// # Panics
    /// If the host does not support `variant`.
    fn tile_kernel(variant: Variant) -> TileKernel<Self>;
    /// This thread's two pack buffers (`A` panels, `B` panels), kept
    /// between calls so a steady stream of calls allocates nothing.
    fn pack_buffers() -> &'static LocalKey<Cell<[Vec<Self>; 2]>>;
}

/// The vector operations the tile loop needs, for one ISA and element.
///
/// # Safety
/// Every method may only run on a host that supports the ISA; `load` and
/// `store` need `LANES` valid elements at the pointer.
trait Simd {
    type T: Scalar;
    type V: Copy;
    const LANES: usize;
    unsafe fn splat(x: Self::T) -> Self::V;
    unsafe fn load(p: *const Self::T) -> Self::V;
    unsafe fn store(p: *mut Self::T, v: Self::V);
    unsafe fn add(a: Self::V, b: Self::V) -> Self::V;
    unsafe fn mul(a: Self::V, b: Self::V) -> Self::V;
}

/// The tile loop. `C` (`MV` vectors high, `NR` columns wide) is loaded
/// into registers once, takes every k-step of the tile, and is stored
/// once. Written once for every ISA; each variant instantiates it inside
/// a `#[target_feature]` function, where everything here inlines.
///
/// # Safety
/// As [`TileKernel::run`]: the panels hold `t.kc` packed vectors each,
/// the `MV·LANES × NR` tile at `t.c` is valid and exclusive, and the host
/// supports `S`'s ISA.
#[inline(always)]
unsafe fn tile<S: Simd, const MV: usize, const NR: usize>(t: &Tile<S::T>) {
    let mr = MV * S::LANES;
    let mut c = [[S::splat(S::T::ZERO); MV]; NR];
    for (j, cj) in c.iter_mut().enumerate() {
        for (v, cv) in cj.iter_mut().enumerate() {
            *cv = S::load(t.c.add(j * t.ldc + v * S::LANES));
        }
    }
    let (mut a, mut b) = (t.a, t.b);
    let mut k = 0;
    while k < t.grouped {
        let mut av = [[S::splat(S::T::ZERO); MV]; 4];
        for (l, al) in av.iter_mut().enumerate() {
            for (v, x) in al.iter_mut().enumerate() {
                *x = S::load(a.add(l * mr + v * S::LANES));
            }
        }
        for (j, cj) in c.iter_mut().enumerate() {
            let b0 = S::splat(*b.add(j));
            let b1 = S::splat(*b.add(NR + j));
            let b2 = S::splat(*b.add(2 * NR + j));
            let b3 = S::splat(*b.add(3 * NR + j));
            for (v, cv) in cj.iter_mut().enumerate() {
                let mut s = S::mul(av[0][v], b0);
                s = S::add(s, S::mul(av[1][v], b1));
                s = S::add(s, S::mul(av[2][v], b2));
                s = S::add(s, S::mul(av[3][v], b3));
                *cv = S::add(*cv, s);
            }
        }
        a = a.add(4 * mr);
        b = b.add(4 * NR);
        k += 4;
    }
    while k < t.kc {
        let mut av = [S::splat(S::T::ZERO); MV];
        for (v, x) in av.iter_mut().enumerate() {
            *x = S::load(a.add(v * S::LANES));
        }
        for (j, cj) in c.iter_mut().enumerate() {
            let bj = *b.add(j);
            if bj != S::T::ZERO {
                let bv = S::splat(bj);
                for (cv, &x) in cj.iter_mut().zip(&av) {
                    *cv = S::add(*cv, S::mul(bv, x));
                }
            }
        }
        a = a.add(mr);
        b = b.add(NR);
        k += 1;
    }
    for (j, cj) in c.iter().enumerate() {
        for (v, &cv) in cj.iter().enumerate() {
            S::store(t.c.add(j * t.ldc + v * S::LANES), cv);
        }
    }
}

/// Scalar "vectors": the portable variant, for any `Scalar`.
struct Portable<T>(std::marker::PhantomData<T>);

impl<T: Scalar> Simd for Portable<T> {
    type T = T;
    type V = T;
    const LANES: usize = 1;
    #[inline(always)]
    unsafe fn splat(x: T) -> T {
        x
    }
    #[inline(always)]
    unsafe fn load(p: *const T) -> T {
        *p
    }
    #[inline(always)]
    unsafe fn store(p: *mut T, v: T) {
        *p = v
    }
    #[inline(always)]
    unsafe fn add(a: T, b: T) -> T {
        a + b
    }
    #[inline(always)]
    unsafe fn mul(a: T, b: T) -> T {
        a * b
    }
}

/// # Safety
/// As [`tile`].
unsafe fn tile_portable<T: Scalar>(t: &Tile<T>) {
    tile::<Portable<T>, 4, 4>(t)
}

/// # Safety
/// None beyond the signature's (portable code runs on every host); `unsafe`
/// only to share the other variants' function-pointer type.
unsafe fn solve_portable<T: Scalar>(unit: bool, l: MatView<'_, T>, b: MatViewMut<'_, T>) {
    solve_block::<T, 4>(unit, l, b)
}

/// Register tiles per variant: two vectors high, as wide as the register
/// file allows without spilling (AVX-512 has 32 vector registers, AVX2 16).
const AVX512_NR: usize = 8;
const AVX2_NR: usize = 4;

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{solve_block, tile, Simd, Tile};
    use crate::scalar::Scalar;
    use crate::view::{MatView, MatViewMut};
    use std::arch::x86_64::*;

    macro_rules! simd {
        ($name:ident, $t:ty, $v:ty, $lanes:literal,
         $splat:ident, $load:ident, $store:ident, $add:ident, $mul:ident) => {
            pub struct $name;
            impl Simd for $name {
                type T = $t;
                type V = $v;
                const LANES: usize = $lanes;
                #[inline(always)]
                unsafe fn splat(x: $t) -> $v {
                    $splat(x)
                }
                #[inline(always)]
                unsafe fn load(p: *const $t) -> $v {
                    $load(p)
                }
                #[inline(always)]
                unsafe fn store(p: *mut $t, v: $v) {
                    $store(p, v)
                }
                #[inline(always)]
                unsafe fn add(a: $v, b: $v) -> $v {
                    $add(a, b)
                }
                #[inline(always)]
                unsafe fn mul(a: $v, b: $v) -> $v {
                    $mul(a, b)
                }
            }
        };
    }

    simd!(
        Avx512F64,
        f64,
        __m512d,
        8,
        _mm512_set1_pd,
        _mm512_loadu_pd,
        _mm512_storeu_pd,
        _mm512_add_pd,
        _mm512_mul_pd
    );
    simd!(
        Avx512F32,
        f32,
        __m512,
        16,
        _mm512_set1_ps,
        _mm512_loadu_ps,
        _mm512_storeu_ps,
        _mm512_add_ps,
        _mm512_mul_ps
    );
    simd!(
        Avx2F64,
        f64,
        __m256d,
        4,
        _mm256_set1_pd,
        _mm256_loadu_pd,
        _mm256_storeu_pd,
        _mm256_add_pd,
        _mm256_mul_pd
    );
    simd!(
        Avx2F32,
        f32,
        __m256,
        8,
        _mm256_set1_ps,
        _mm256_loadu_ps,
        _mm256_storeu_ps,
        _mm256_add_ps,
        _mm256_mul_ps
    );

    // Each entry point below compiles the shared generic code for one ISA.
    // # Safety (all four): the host supports the ISA they enable, and
    // `tile_*` take a `Tile` as `super::tile` requires.

    #[target_feature(enable = "avx512f")]
    pub unsafe fn tile_avx512<S: Simd, const MV: usize, const NR: usize>(t: &Tile<S::T>) {
        tile::<S, MV, NR>(t)
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn tile_avx2<S: Simd, const MV: usize, const NR: usize>(t: &Tile<S::T>) {
        tile::<S, MV, NR>(t)
    }

    #[target_feature(enable = "avx512f")]
    pub unsafe fn solve_avx512<T: Scalar, const MR: usize>(
        unit: bool,
        l: MatView<'_, T>,
        b: MatViewMut<'_, T>,
    ) {
        solve_block::<T, MR>(unit, l, b)
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn solve_avx2<T: Scalar, const MR: usize>(
        unit: bool,
        l: MatView<'_, T>,
        b: MatViewMut<'_, T>,
    ) {
        solve_block::<T, MR>(unit, l, b)
    }
}

macro_rules! packed {
    ($t:ty, $avx512:ident, $avx2:ident) => {
        impl Packed for $t {
            fn tile_kernel(variant: Variant) -> TileKernel<$t> {
                assert!(variant.supported(), "this host cannot run the {} kernel", variant.name());
                #[cfg(target_arch = "x86_64")]
                const LANES512: usize = <x86::$avx512 as Simd>::LANES;
                #[cfg(target_arch = "x86_64")]
                const LANES256: usize = <x86::$avx2 as Simd>::LANES;
                match variant {
                    #[cfg(target_arch = "x86_64")]
                    Variant::Avx512f => TileKernel::new::<{ 2 * LANES512 }, AVX512_NR>(
                        x86::tile_avx512::<x86::$avx512, 2, AVX512_NR>,
                        x86::solve_avx512::<$t, { 2 * LANES512 }>,
                    ),
                    #[cfg(target_arch = "x86_64")]
                    Variant::Avx2 => TileKernel::new::<{ 2 * LANES256 }, AVX2_NR>(
                        x86::tile_avx2::<x86::$avx2, 2, AVX2_NR>,
                        x86::solve_avx2::<$t, { 2 * LANES256 }>,
                    ),
                    _ => TileKernel::new::<4, 4>(tile_portable::<$t>, solve_portable::<$t>),
                }
            }

            fn pack_buffers() -> &'static LocalKey<Cell<[Vec<$t>; 2]>> {
                thread_local!(static BUFFERS: Cell<[Vec<$t>; 2]> = Cell::default());
                &BUFFERS
            }
        }
    };
}

packed!(f64, Avx512F64, Avx2F64);
packed!(f32, Avx512F32, Avx2F32);

/// Grows `buf` to at least `len` elements (never shrinks it: the buffer
/// is reused across calls).
fn reserve<T: Scalar>(buf: &mut Vec<T>, len: usize) {
    if buf.len() < len {
        buf.resize(len, T::ZERO);
    }
}

/// Packs `a` into `MR`-row panels: panel `p` holds rows `p·MR ..` as
/// `a.cols()` consecutive `MR`-vectors, zero-padded past the last row.
fn pack_a<T: Scalar, const MR: usize>(a: MatView<'_, T>, buf: &mut Vec<T>) {
    let (m, kc) = (a.rows(), a.cols());
    reserve(buf, m.div_ceil(MR) * MR * kc);
    for (p, panel) in buf.chunks_exact_mut(MR * kc).take(m.div_ceil(MR)).enumerate() {
        let i0 = p * MR;
        let rows = MR.min(m - i0);
        for (l, dst) in panel.chunks_exact_mut(MR).enumerate() {
            let src = &a.col(l)[i0..i0 + rows];
            if rows == MR {
                dst.copy_from_slice(src);
            } else {
                dst[..rows].copy_from_slice(src);
                dst[rows..].fill(T::ZERO);
            }
        }
    }
}

/// Packs `scale · b` into rows `k0 ..` of `NR`-column panels of depth
/// `depth`: row `l` of panel `q` is the `NR`-vector `scale · b[l, q·NR ..]`,
/// zero-padded past the last column.
fn pack_b<T: Scalar, const NR: usize>(
    b: MatView<'_, T>,
    depth: usize,
    k0: usize,
    scale: T,
    buf: &mut Vec<T>,
) {
    let (kc, n) = (b.rows(), b.cols());
    reserve(buf, n.div_ceil(NR) * NR * depth);
    for (q, panel) in buf.chunks_exact_mut(NR * depth).take(n.div_ceil(NR)).enumerate() {
        let cols = NR.min(n - q * NR);
        let src: [&[T]; NR] = std::array::from_fn(|jj| b.col(q * NR + jj.min(cols - 1)));
        for (l, dst) in panel[k0 * NR..(k0 + kc) * NR].chunks_exact_mut(NR).enumerate() {
            for (jj, d) in dst.iter_mut().enumerate() {
                *d = if jj < cols { scale * src[jj][l] } else { T::ZERO };
            }
        }
    }
}

/// Runs the tile kernel over every tile of `c`: `kc` k-steps (the first
/// `grouped` of them in grouped order) from the packed `apack` (panels of
/// depth `kc`) and `bpack` (panels of depth `bdepth ≥ kc`). Edge tiles go
/// through a zero-padded copy, so only the valid part of `c` is written.
fn sweep<T: Scalar>(
    kern: &TileKernel<T>,
    kc: usize,
    grouped: usize,
    apack: &[T],
    bpack: &[T],
    bdepth: usize,
    mut c: MatViewMut<'_, T>,
) {
    let (mr, nr) = (kern.mr, kern.nr);
    let (m, n, ldc) = (c.rows(), c.cols(), c.ld());
    assert!(apack.len() >= m.div_ceil(mr) * mr * kc && bdepth >= kc);
    assert!(bpack.len() >= n.div_ceil(nr) * nr * bdepth);
    // Room for the largest register tile (AVX-512 `f32`: 32 × 8).
    let mut edge = [T::ZERO; 32 * 8];
    assert!(mr * nr <= edge.len());
    for jr in (0..n).step_by(nr) {
        let nn = nr.min(n - jr);
        let b = bpack[jr * bdepth..].as_ptr();
        for ir in (0..m).step_by(mr) {
            let mm = mr.min(m - ir);
            let a = apack[ir * kc..].as_ptr();
            if mm == mr && nn == nr {
                // SAFETY: the tile lies inside `c` (checked by the loop
                // bounds), so every column slice is valid and exclusive.
                let cp = unsafe { c.as_mut_ptr().add(jr * ldc + ir) };
                // SAFETY: `a` and `b` start whole packed panels of depth
                // `kc` (asserted lengths above), the tile is inside `c`,
                // and `kern` came from `tile_kernel`, which checked that
                // the host supports its variant.
                unsafe { (kern.run)(&Tile { kc, grouped, a, b, c: cp, ldc }) };
            } else {
                for jj in 0..nn {
                    edge[jj * mr..jj * mr + mm].copy_from_slice(&c.col(jr + jj)[ir..ir + mm]);
                }
                let cp = edge.as_mut_ptr();
                // SAFETY: as above, with `edge` holding `nr` columns of
                // `mr` elements at `ldc = mr`.
                unsafe { (kern.run)(&Tile { kc, grouped, a, b, c: cp, ldc: mr }) };
                for jj in 0..nn {
                    c.col_mut(jr + jj)[ir..ir + mm].copy_from_slice(&edge[jj * mr..jj * mr + mm]);
                }
            }
        }
    }
}

/// Takes this thread's pack buffers (a nested call gets fresh ones).
fn take_buffers<T: Scalar>() -> [Vec<T>; 2] {
    T::pack_buffers().with(Cell::take)
}

/// Returns the pack buffers for the next call on this thread.
fn give_back<T: Scalar>(bufs: [Vec<T>; 2]) {
    T::pack_buffers().with(|c| c.set(bufs));
}

/// `C += alpha·A·B` in grouped order, on `kern`'s variant. The caller has
/// already applied `beta` and skipped the empty and `alpha == 0` cases.
pub(crate) fn gemm<T: Scalar>(
    kern: TileKernel<T>,
    alpha: T,
    a: MatView<'_, T>,
    b: MatView<'_, T>,
    mut c: MatViewMut<'_, T>,
) {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let [mut apack, mut bpack] = take_buffers::<T>();
    for jc in (0..n).step_by(NC) {
        let nb = NC.min(n - jc);
        for pc in (0..k).step_by(KC) {
            let kb = KC.min(k - pc);
            (kern.pack_b)(b.submatrix(pc, jc, kb, nb), kb, 0, alpha, &mut bpack);
            for ic in (0..m).step_by(MC) {
                let mb = MC.min(m - ic);
                (kern.pack_a)(a.submatrix(ic, pc, mb, kb), &mut apack);
                let c_blk = c.submatrix_mut(ic, jc, mb, nb);
                sweep(&kern, kb, kb - kb % 4, &apack, &bpack, kb, c_blk);
            }
        }
    }
    give_back([apack, bpack]);
}

/// Forward substitution `X = L⁻¹ B` in place, one column at a time: the
/// scalar loop that solves each diagonal block.
pub(crate) fn solve_lower<T: Scalar>(unit: bool, l: MatView<'_, T>, mut b: MatViewMut<'_, T>) {
    let m = b.rows();
    for j in 0..b.cols() {
        let col = b.col_mut(j);
        for k in 0..m {
            if !unit {
                col[k] /= l.get(k, k);
            }
            let bk = col[k];
            if bk != T::ZERO {
                let lk = l.col(k);
                for i in k + 1..m {
                    col[i] -= lk[i] * bk;
                }
            }
        }
    }
}

/// [`solve_lower`] for a diagonal block of exactly `MR` rows (others go
/// to [`solve_lower`] itself): the same operations in the same order on
/// every element, but `SOLVE_W` columns at a time, transposed into a
/// fixed-size block so each step is one vector operation across the
/// columns. The zero-skip guard becomes a per-column select, which keeps
/// a skipped element's bits exactly. Instantiated inside each variant's
/// `#[target_feature]` function.
#[inline(always)]
fn solve_block<T: Scalar, const MR: usize>(
    unit: bool,
    l: MatView<'_, T>,
    mut b: MatViewMut<'_, T>,
) {
    const W: usize = SOLVE_W;
    if b.rows() != MR {
        return solve_lower(unit, l, b);
    }
    let mut lt = [[T::ZERO; MR]; MR];
    for (k, lk) in lt.iter_mut().enumerate() {
        lk.copy_from_slice(l.col(k));
    }
    for j0 in (0..b.cols()).step_by(W) {
        let w = W.min(b.cols() - j0);
        // Padding columns hold zeros: their guard skips every update.
        let mut v = [[T::ZERO; W]; MR];
        for jj in 0..w {
            for (vi, &x) in v.iter_mut().zip(b.col(j0 + jj)) {
                vi[jj] = x;
            }
        }
        for k in 0..MR {
            if !unit {
                let d = lt[k][k];
                for x in v[k].iter_mut() {
                    *x /= d;
                }
            }
            let xk = v[k];
            for i in k + 1..MR {
                let lik = lt[k][i];
                for (y, &x) in v[i].iter_mut().zip(&xk) {
                    *y = if x != T::ZERO { *y - lik * x } else { *y };
                }
            }
        }
        for jj in 0..w {
            for (dst, vi) in b.col_mut(j0 + jj).iter_mut().zip(&v) {
                *dst = vi[jj];
            }
        }
    }
}

/// Columns per pass of [`solve_block`].
const SOLVE_W: usize = 8;

/// `B = L⁻¹ B` for lower triangular `L` (unit or not), in rank-1 order on
/// `kern`'s variant.
///
/// For each `KC`-deep diagonal block, each `MR`-row block of it first
/// takes every update from the rows solved before it in the block through
/// the tile kernel, then [`solve_block`] solves its own `MR × MR`
/// triangle, and its rows join the packed, negated `X`. The rows below the
/// diagonal block then take the whole block's update through the kernel.
/// Each element so receives every update in ascending k with the
/// zero-skip guard, exactly as [`solve_lower`] alone would apply them.
pub(crate) fn trsm_lower<T: Scalar>(
    kern: TileKernel<T>,
    unit: bool,
    l: MatView<'_, T>,
    mut b: MatViewMut<'_, T>,
) {
    let (m, n, mr) = (b.rows(), b.cols(), kern.mr);
    // One diagonal block, or fewer right-hand sides than half a register
    // tile: packing `L` would cost more than the tiles save.
    if m <= mr || 2 * n < kern.nr {
        return solve_lower(unit, l, b);
    }
    let [mut apack, mut xpack] = take_buffers::<T>();
    for jc in (0..n).step_by(NC) {
        let nb = NC.min(n - jc);
        let mut bj = b.submatrix_mut(0, jc, m, nb);
        for p in (0..m).step_by(KC) {
            let kb = KC.min(m - p);
            for i0 in (p..p + kb).step_by(mr) {
                let ib = mr.min(p + kb - i0);
                if i0 > p {
                    (kern.pack_a)(l.submatrix(i0, p, ib, i0 - p), &mut apack);
                    let rows = bj.submatrix_mut(i0, 0, ib, nb);
                    sweep(&kern, i0 - p, 0, &apack, &xpack, kb, rows);
                }
                let (lii, bi) = (l.submatrix(i0, i0, ib, ib), bj.submatrix_mut(i0, 0, ib, nb));
                // SAFETY: `kern` came from `tile_kernel`, which checked
                // that the host supports its variant.
                unsafe { (kern.solve)(unit, lii, bi) };
                (kern.pack_b)(bj.submatrix(i0, 0, ib, nb), kb, i0 - p, -T::ONE, &mut xpack);
            }
            for ic in (p + kb..m).step_by(MC) {
                let mb = MC.min(m - ic);
                (kern.pack_a)(l.submatrix(ic, p, mb, kb), &mut apack);
                sweep(&kern, kb, 0, &apack, &xpack, kb, bj.submatrix_mut(ic, 0, mb, nb));
            }
        }
    }
    give_back([apack, xpack]);
}

/// Rate of `v`'s tile loop alone, in GFLOP/s: one `MR × NR` tile run
/// over and over, in grouped order, on packed panels 128 k-steps deep,
/// which stay in L1. No packing, no cache misses, no edge tiles: the
/// per-core ceiling the kernel benchmark reports beside each rate. Timed
/// in bursts of 100 tiles for about `seconds`; the fastest burst counts,
/// since other work on the host can only slow a burst down.
pub(crate) fn tile_loop_gflops<T: Scalar>(v: Variant, seconds: f64) -> f64 {
    const DEPTH: usize = 128;
    const BURST: usize = 100;
    let kern = T::tile_kernel(v);
    let a = vec![T::ONE; kern.mr * DEPTH];
    let b = vec![T::from_f64(0.5); kern.nr * DEPTH];
    let mut c = vec![T::ZERO; kern.mr * kern.nr];
    let t = Tile {
        kc: DEPTH,
        grouped: DEPTH,
        a: a.as_ptr(),
        b: b.as_ptr(),
        c: c.as_mut_ptr(),
        ldc: kern.mr,
    };
    let start = std::time::Instant::now();
    let mut bursts = Vec::new();
    while bursts.len() < 5 || start.elapsed().as_secs_f64() < seconds {
        let t0 = std::time::Instant::now();
        for _ in 0..BURST {
            // SAFETY: the panels hold DEPTH vectors each and `c` one
            // whole tile; `T::tile_kernel` only hands out variants the
            // host supports.
            unsafe { (kern.run)(&t) };
        }
        bursts.push(t0.elapsed().as_secs_f64());
    }
    std::hint::black_box(&c);
    let fastest = bursts.into_iter().fold(f64::INFINITY, f64::min);
    2.0 * (kern.mr * kern.nr * DEPTH * BURST) as f64 / fastest / 1e9
}

#[cfg(test)]
mod tests {
    //! The order contract, checked bit for bit on every variant this host
    //! runs, each called directly.

    use super::*;
    use crate::blas3::gemm_spec;
    use crate::{gen, Matrix};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Bitwise equality, except that any NaN equals any NaN (payloads
    /// are unspecified).
    fn same_bits<T: Scalar>(x: &Matrix<T>, y: &Matrix<T>) -> Result<(), String> {
        for j in 0..x.cols() {
            for i in 0..x.rows() {
                let (a, b) = (x[(i, j)].to_f64(), y[(i, j)].to_f64());
                if a.to_bits() != b.to_bits() && !(a.is_nan() && b.is_nan()) {
                    return Err(format!("({i},{j}): {a:e} vs {b:e}"));
                }
            }
        }
        Ok(())
    }

    fn variants() -> Vec<Variant> {
        let v: Vec<_> = Variant::ALL.into_iter().filter(|v| v.supported()).collect();
        assert_eq!(v.last(), Some(&Variant::Portable));
        v
    }

    /// The rank-1 order of the left lower `trsm`, spelled out: column by
    /// column forward substitution, each update `b[i] -= l[i,k]·x[k]` in
    /// ascending k, skipped when `x[k] == 0`.
    fn trsm_spec<T: Scalar>(unit: bool, l: &Matrix<T>, b: &mut Matrix<T>) {
        let m = b.rows();
        for j in 0..b.cols() {
            for k in 0..m {
                if !unit {
                    b[(k, j)] /= l[(k, k)];
                }
                let xk = b[(k, j)];
                if xk != T::ZERO {
                    for i in k + 1..m {
                        b[(i, j)] -= l[(i, k)] * xk;
                    }
                }
            }
        }
    }

    /// Sprinkles the special values over `b`: zeros of both signs (which
    /// the rank-1 guard skips), NaN and both infinities.
    fn with_specials<T: Scalar>(mut b: Matrix<T>, every: usize) -> Matrix<T> {
        let specials = [T::ZERO, -T::ZERO, T::from_f64(f64::NAN), T::INFINITY, T::NEG_INFINITY];
        let (m, n) = (b.rows(), b.cols());
        for idx in (0..m * n).step_by(every) {
            b[(idx % m, idx / m)] = specials[(idx / every) % specials.len()];
        }
        b
    }

    /// Runs `gemm` through `kern` on strided views (ld > rows) and checks
    /// it against the spec bit for bit.
    fn check_gemm<T: Scalar>(v: Variant, m: usize, k: usize, n: usize, alpha: T, specials: bool) {
        let mut rng = StdRng::seed_from_u64((m * 131 + k * 17 + n) as u64);
        let pad = 3;
        let mut a: Matrix<T> = gen::randn(&mut rng, m + pad, k);
        let mut b: Matrix<T> = gen::randn(&mut rng, k + pad, n);
        let mut c0: Matrix<T> = gen::randn(&mut rng, m + pad, n);
        if specials {
            b = with_specials(b, 7);
            // An infinity of A that meets a zero of B in the rank-1 tail
            // gives NaN unless the guard skips the step.
            for l in k - k % 4..k {
                for i in (l % 3..m).step_by(3) {
                    a[(i, l)] = T::INFINITY;
                }
            }
            // C entries of -0.0 only survive a skipped update.
            for j in 0..n {
                c0[(j % (m + pad), j)] = -T::ZERO;
            }
        }
        let mut want = c0.clone();
        let mut got = c0.clone();
        let (av, bv) = (a.view().submatrix(0, 0, m, k), b.view().submatrix(0, 0, k, n));
        gemm_spec(alpha, av, bv, T::ONE, want.view_mut().into_submatrix(0, 0, m, n));
        gemm(T::tile_kernel(v), alpha, av, bv, got.view_mut().into_submatrix(0, 0, m, n));
        if let Err(e) = same_bits(&want, &got) {
            panic!("{} {} gemm {m}x{k}x{n} alpha={alpha}: {e}", v.name(), T::NAME);
        }
    }

    fn gemm_cases<T: Scalar>() {
        for v in variants() {
            // m % MR != 0, n % NR != 0, every k % 4, k > KC; the whole
            // matrix is one tile, many tiles, or several cache blocks.
            for &(m, n) in &[(1, 1), (5, 3), (37, 13), (16, 8), (70, 41), (131, 133)] {
                for k in [1, 2, 3, 4, 5, 6, 7, 8, 33, KC + 3] {
                    check_gemm::<T>(v, m, k, n, T::from_f64(-0.7), false);
                }
            }
            for (m, k, n) in [(29, 11, 19), (64, 262, 9), (300, 65, 260)] {
                for alpha in [1.0, -1.0, 1.5, -0.37] {
                    check_gemm::<T>(v, m, k, n, T::from_f64(alpha), false);
                }
            }
            for (m, n) in [(29, 19), (64, 9), (300, 260)] {
                for k in [1, 2, 3, 7, 65, KC + 2] {
                    check_gemm::<T>(v, m, k, n, T::from_f64(-2.5), true);
                }
            }
        }
    }

    #[test]
    fn gemm_matches_the_grouped_order_spec_on_every_variant_f64() {
        gemm_cases::<f64>();
    }

    #[test]
    fn gemm_matches_the_grouped_order_spec_on_every_variant_f32() {
        gemm_cases::<f32>();
    }

    fn check_trsm<T: Scalar>(v: Variant, m: usize, n: usize, unit: bool, specials: bool) {
        let mut rng = StdRng::seed_from_u64((m * 7 + n) as u64);
        let pad = 2;
        let mut l: Matrix<T> = gen::randn(&mut rng, m + pad, m);
        for i in 0..m {
            l[(i, i)] = T::from_f64(2.0) + l[(i, i)].abs();
            for j in 0..i {
                l[(i, j)] *= T::from_f64(0.3);
            }
        }
        let mut b0: Matrix<T> = gen::randn(&mut rng, m + pad, n);
        if specials {
            b0 = with_specials(b0, 11);
            // A column of signed zeros solves to exactly those zeros, and
            // only the guard keeps each -0.0 from turning into +0.0.
            for i in 0..m {
                b0[(i, 0)] = if i % 3 == 0 { T::ZERO } else { -T::ZERO };
            }
        }
        let lm = l.view().submatrix(0, 0, m, m).to_matrix();
        let mut want = b0.view().submatrix(0, 0, m, n).to_matrix();
        trsm_spec(unit, &lm, &mut want);
        let mut got = b0.clone();
        trsm_lower(
            T::tile_kernel(v),
            unit,
            l.view().submatrix(0, 0, m, m),
            got.view_mut().into_submatrix(0, 0, m, n),
        );
        let got = got.view().submatrix(0, 0, m, n).to_matrix();
        if let Err(e) = same_bits(&want, &got) {
            panic!("{} {} trsm {m}x{n} unit={unit}: {e}", v.name(), T::NAME);
        }
    }

    fn trsm_cases<T: Scalar>() {
        for v in variants() {
            // One diagonal block, a narrow B (the plain loop), ragged
            // row blocks and NR panels, several KC-deep diagonal blocks.
            for &(m, n) in
                &[(1, 1), (3, 5), (70, 2), (17, 9), (33, 8), (64, 64), (100, 37), (KC + 70, 140)]
            {
                for unit in [true, false] {
                    check_trsm::<T>(v, m, n, unit, false);
                    check_trsm::<T>(v, m, n, unit, true);
                }
            }
        }
    }

    #[test]
    fn trsm_matches_the_rank1_order_spec_on_every_variant_f64() {
        trsm_cases::<f64>();
    }

    #[test]
    fn trsm_matches_the_rank1_order_spec_on_every_variant_f32() {
        trsm_cases::<f32>();
    }

    #[test]
    fn variants_report_names_and_detect_the_best() {
        for v in Variant::ALL {
            assert_eq!(Variant::from_name(v.name()), Some(v));
        }
        assert!(Variant::Portable.supported());
        assert_eq!(Some(&Variant::detect()), variants().first());
    }

    #[test]
    fn pack_buffers_are_reused_across_calls() {
        let a: Matrix = Matrix::identity(40);
        let mut c: Matrix = Matrix::zeros(40, 40);
        let kern = f64::tile_kernel(Variant::detect());
        gemm(kern, 1.0, a.view(), a.view(), c.view_mut());
        let cap = f64::pack_buffers().with(|b| {
            let bufs = b.take();
            let caps = [bufs[0].capacity(), bufs[1].capacity()];
            b.set(bufs);
            caps
        });
        assert!(cap[0] > 0 && cap[1] > 0, "buffers kept after the call");
        gemm(kern, 1.0, a.view(), a.view(), c.view_mut());
        assert_eq!(c, {
            let mut two = Matrix::identity(40);
            two.view_mut().fill(0.0);
            for i in 0..40 {
                two[(i, i)] = 2.0;
            }
            two
        });
    }
}
