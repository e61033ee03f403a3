//! The [`Scalar`] abstraction: the floating-point element type every
//! kernel in this workspace is generic over.
//!
//! The paper's algorithms are precision-agnostic — tournament pivoting,
//! the blocked sweep, and the communication structure are identical
//! whether the words moved are 4 or 8 bytes — and restructuring LU around
//! precision pays the same way restructuring it around communication
//! does: factor fast in `f32`, refine cheaply in `f64`
//! (see `calu_core::solve::ir_solve`). Every kernel therefore takes
//! `T: Scalar`, with `f64` as the default type parameter so the original
//! double-precision API is unchanged at every call site.
//!
//! The trait is deliberately small: exactly the constants and operations
//! the kernels use (`abs`, `sqrt`, `max`/`min`, machine epsilon, f64
//! round trips for instrumentation and serialization), not a general
//! numeric tower. `from_f64`/`to_f64` are exact for every `f32` value,
//! which is what makes the mixed-precision payload round trips through
//! the netsim (`f64` words) bitwise faithful.

use std::fmt::{Debug, Display};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A real floating-point scalar the dense kernels can be instantiated at.
///
/// Implemented for `f32` and `f64`, and sealed to them: its supertrait
/// `Packed`, which code outside this crate cannot name, carries each
/// type's packed `gemm`/`trsm` kernels. All arithmetic used by the kernels is
/// expressed through the standard operator traits plus the handful of
/// intrinsics below; algorithms must not assume a particular width — any
/// precision-dependent tolerance belongs to [`Scalar::EPSILON`].
pub trait Scalar:
    Copy
    + Clone
    + Debug
    + Display
    + Default
    + PartialEq
    + PartialOrd
    + Send
    + Sync
    + 'static
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + Sum<Self>
    + crate::kernel::Packed
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Machine epsilon of this precision (`f32`: 2⁻²³, `f64`: 2⁻⁵²) —
    /// the knob every stability tolerance is parameterized by.
    const EPSILON: Self;
    /// Positive infinity.
    const INFINITY: Self;
    /// Negative infinity (the `iamax` scan seed).
    const NEG_INFINITY: Self;
    /// Short type name for reports and JSON records (`"f32"` / `"f64"`).
    const NAME: &'static str;
    /// Bytes per element (netsim words are scaled by this for β costs).
    const BYTES: usize;

    /// Absolute value.
    fn abs(self) -> Self;
    /// Square root.
    fn sqrt(self) -> Self;
    /// IEEE maximum (NaN-ignoring, like `f64::max`).
    fn max(self, other: Self) -> Self;
    /// IEEE minimum (NaN-ignoring, like `f64::min`).
    fn min(self, other: Self) -> Self;
    /// Reciprocal `1/self`.
    fn recip(self) -> Self;
    /// Integer power.
    fn powi(self, n: i32) -> Self;
    /// `true` when neither infinite nor NaN.
    fn is_finite(self) -> bool;
    /// `true` when NaN.
    fn is_nan(self) -> bool;
    /// Rounds an `f64` into this precision (exact for `f64`; IEEE
    /// round-to-nearest for `f32`).
    fn from_f64(v: f64) -> Self;
    /// Widens to `f64` (exact for both implementations).
    fn to_f64(self) -> f64;

    /// `n` as a scalar (exact up to 2⁵³ for `f64`, 2²⁴ for `f32` — fine
    /// for the dimension-sized factors the kernels use).
    #[inline(always)]
    fn from_usize(n: usize) -> Self {
        Self::from_f64(n as f64)
    }
}

macro_rules! impl_scalar {
    ($t:ty, $name:literal) => {
        impl Scalar for $t {
            const ZERO: Self = 0.0;
            const ONE: Self = 1.0;
            const EPSILON: Self = <$t>::EPSILON;
            const INFINITY: Self = <$t>::INFINITY;
            const NEG_INFINITY: Self = <$t>::NEG_INFINITY;
            const NAME: &'static str = $name;
            const BYTES: usize = std::mem::size_of::<$t>();

            #[inline(always)]
            fn abs(self) -> Self {
                self.abs()
            }
            #[inline(always)]
            fn sqrt(self) -> Self {
                self.sqrt()
            }
            #[inline(always)]
            fn max(self, other: Self) -> Self {
                self.max(other)
            }
            #[inline(always)]
            fn min(self, other: Self) -> Self {
                self.min(other)
            }
            #[inline(always)]
            fn recip(self) -> Self {
                self.recip()
            }
            #[inline(always)]
            fn powi(self, n: i32) -> Self {
                self.powi(n)
            }
            #[inline(always)]
            fn is_finite(self) -> bool {
                self.is_finite()
            }
            #[inline(always)]
            fn is_nan(self) -> bool {
                self.is_nan()
            }
            #[inline(always)]
            fn from_f64(v: f64) -> Self {
                v as $t
            }
            #[inline(always)]
            fn to_f64(self) -> f64 {
                self as f64
            }
        }
    };
}

impl_scalar!(f32, "f32");
impl_scalar!(f64, "f64");

/// Rounds a slice into another precision (`f64 → f32` demotion and
/// `f32 → f64` exact promotion; used by the mixed-precision solver).
pub fn cast_slice<S: Scalar, D: Scalar>(src: &[S]) -> Vec<D> {
    src.iter().map(|&v| D::from_f64(v.to_f64())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eps_of<T: Scalar>() -> f64 {
        T::EPSILON.to_f64()
    }

    #[test]
    fn constants_match_std() {
        assert_eq!(eps_of::<f32>(), f32::EPSILON as f64);
        assert_eq!(eps_of::<f64>(), f64::EPSILON);
        assert_eq!(f32::BYTES, 4);
        assert_eq!(f64::BYTES, 8);
        assert_eq!(f32::NAME, "f32");
        assert_eq!(f64::NAME, "f64");
    }

    #[test]
    fn f32_round_trip_through_f64_is_exact() {
        for v in [1.0f32, -0.1, 3.5e-30, f32::EPSILON, 1.0 + f32::EPSILON] {
            assert_eq!(f32::from_f64(v.to_f64()), v, "f32 values are exact f64s");
        }
    }

    #[test]
    fn generic_arithmetic_works_at_both_precisions() {
        fn quadratic<T: Scalar>(x: T) -> T {
            x * x + T::ONE
        }
        assert_eq!(quadratic(3.0f32), 10.0);
        assert_eq!(quadratic(3.0f64), 10.0);
        assert_eq!(T_from_usize::<f32>(7), 7.0);
        assert_eq!(T_from_usize::<f64>(7), 7.0);

        #[allow(non_snake_case)]
        fn T_from_usize<T: Scalar>(n: usize) -> T {
            T::from_usize(n)
        }
    }

    #[test]
    fn cast_slice_demotes_and_promotes() {
        let xs = [1.0f64, 0.1, -2.5];
        let lo: Vec<f32> = cast_slice(&xs);
        assert_eq!(lo[2], -2.5f32);
        let back: Vec<f64> = cast_slice(&lo);
        assert_eq!(back[0], 1.0);
        assert_ne!(back[1], 0.1, "0.1 is not representable in f32");
    }
}
