//! Q16.16 fixed-point arithmetic for the fault-injectable inference datapath.
//!
//! The Stochastic-HMD defense perturbs the *integer multiplier* of the CPU
//! core that runs detector inference. To expose that perturbation to the
//! neural-network code, inference runs over [`Q16`] fixed-point values whose
//! products are produced by a 64-bit multiplier. The raw 64-bit product
//! (format Q32.32) is the value the undervolting fault model corrupts, which
//! is what makes the bit-level fault distribution of the paper's Figure 1
//! physically meaningful here: a flip in product bit *k* changes the result
//! by `2^(k-32)`.
//!
//! # Example
//!
//! ```
//! use shmd_fixed::Q16;
//!
//! let a = Q16::from_f64(1.5);
//! let b = Q16::from_f64(-2.0);
//! assert_eq!((a * b).to_f64(), -3.0);
//!
//! // The raw product is what a fault injector corrupts:
//! let raw = Q16::raw_product(a, b);
//! assert_eq!(Q16::from_raw_product(raw), a * b);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Number of fractional bits in a [`Q16`] value.
pub const FRAC_BITS: u32 = 16;

/// Number of fractional bits in a raw Q32.32 product.
pub const PRODUCT_FRAC_BITS: u32 = 32;

/// A signed Q16.16 fixed-point number stored in an `i32`.
///
/// The representable range is roughly `[-32768, 32768)` with a resolution of
/// `2^-16 ≈ 1.5e-5`, which comfortably covers neural-network weights and
/// activations after input normalisation.
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Q16(i32);

impl Q16 {
    /// The value `0.0`.
    pub const ZERO: Q16 = Q16(0);
    /// The value `1.0`.
    pub const ONE: Q16 = Q16(1 << FRAC_BITS);
    /// The most positive representable value.
    pub const MAX: Q16 = Q16(i32::MAX);
    /// The most negative representable value.
    pub const MIN: Q16 = Q16(i32::MIN);

    /// Creates a value from its raw `i32` bit pattern (Q16.16).
    #[inline]
    pub const fn from_bits(bits: i32) -> Q16 {
        Q16(bits)
    }

    /// Returns the raw `i32` bit pattern (Q16.16).
    #[inline]
    pub const fn to_bits(self) -> i32 {
        self.0
    }

    /// Converts from an `f64`, saturating at the representable range and
    /// rounding half away from zero; NaN converts to zero.
    ///
    /// Branch-free, so loops over it vectorize: the scaled value is clamped
    /// to the `i32` range and rounded, and adding `1.5 · 2⁵²` to that
    /// integer leaves it, two's complement, in the low mantissa bits.
    #[inline]
    pub fn from_f64(value: f64) -> Q16 {
        const SHIFT: f64 = 6_755_399_441_055_744.0;
        let rounded = (value * f64::from(1i32 << FRAC_BITS))
            .clamp(i32::MIN as f64, i32::MAX as f64)
            .round();
        let bits = (rounded + SHIFT).to_bits() as i32;
        Q16(if rounded.is_nan() { 0 } else { bits })
    }

    /// Converts from an `f32`, saturating at the representable range.
    #[inline]
    pub fn from_f32(value: f32) -> Q16 {
        Q16::from_f64(f64::from(value))
    }

    /// Converts to an `f64` exactly.
    #[inline]
    pub fn to_f64(self) -> f64 {
        f64::from(self.0) / f64::from(1i32 << FRAC_BITS)
    }

    /// Converts to an `f32` (may round).
    #[inline]
    pub fn to_f32(self) -> f32 {
        self.to_f64() as f32
    }

    /// Saturating addition.
    #[inline]
    pub fn saturating_add(self, rhs: Q16) -> Q16 {
        Q16(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: Q16) -> Q16 {
        Q16(self.0.saturating_sub(rhs.0))
    }

    /// The raw 64-bit Q32.32 product of two Q16.16 values.
    ///
    /// This is the multiplier output that undervolting corrupts; feed it to a
    /// fault injector and reconstruct the Q16.16 result with
    /// [`Q16::from_raw_product`].
    #[inline]
    pub fn raw_product(a: Q16, b: Q16) -> i64 {
        i64::from(a.0) * i64::from(b.0)
    }

    /// Converts a raw Q32.32 product back to Q16.16, saturating.
    #[inline]
    pub fn from_raw_product(product: i64) -> Q16 {
        let shifted = product >> (PRODUCT_FRAC_BITS - FRAC_BITS);
        if shifted > i64::from(i32::MAX) {
            Q16::MAX
        } else if shifted < i64::from(i32::MIN) {
            Q16::MIN
        } else {
            Q16(shifted as i32)
        }
    }

    /// Returns the absolute value, saturating on `MIN`.
    #[inline]
    pub fn abs(self) -> Q16 {
        Q16(self.0.saturating_abs())
    }

    /// Clamps the value into `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    #[inline]
    pub fn clamp(self, lo: Q16, hi: Q16) -> Q16 {
        assert!(lo <= hi, "Q16::clamp: lo must not exceed hi");
        Q16(self.0.clamp(lo.0, hi.0))
    }
}

impl fmt::Debug for Q16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Q16({})", self.to_f64())
    }
}

impl fmt::Display for Q16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.to_f64(), f)
    }
}

impl From<i16> for Q16 {
    fn from(value: i16) -> Q16 {
        Q16(i32::from(value) << FRAC_BITS)
    }
}

impl Add for Q16 {
    type Output = Q16;
    #[inline]
    fn add(self, rhs: Q16) -> Q16 {
        self.saturating_add(rhs)
    }
}

impl AddAssign for Q16 {
    #[inline]
    fn add_assign(&mut self, rhs: Q16) {
        *self = *self + rhs;
    }
}

impl Sub for Q16 {
    type Output = Q16;
    #[inline]
    fn sub(self, rhs: Q16) -> Q16 {
        self.saturating_sub(rhs)
    }
}

impl SubAssign for Q16 {
    #[inline]
    fn sub_assign(&mut self, rhs: Q16) {
        *self = *self - rhs;
    }
}

impl Mul for Q16 {
    type Output = Q16;
    #[inline]
    fn mul(self, rhs: Q16) -> Q16 {
        Q16::from_raw_product(Q16::raw_product(self, rhs))
    }
}

impl Div for Q16 {
    type Output = Q16;
    #[inline]
    fn div(self, rhs: Q16) -> Q16 {
        if rhs.0 == 0 {
            return if self.0 >= 0 { Q16::MAX } else { Q16::MIN };
        }
        let wide = (i64::from(self.0) << FRAC_BITS) / i64::from(rhs.0);
        if wide > i64::from(i32::MAX) {
            Q16::MAX
        } else if wide < i64::from(i32::MIN) {
            Q16::MIN
        } else {
            Q16(wide as i32)
        }
    }
}

impl Neg for Q16 {
    type Output = Q16;
    #[inline]
    fn neg(self) -> Q16 {
        Q16(self.0.saturating_neg())
    }
}

impl Sum for Q16 {
    fn sum<I: Iterator<Item = Q16>>(iter: I) -> Q16 {
        iter.fold(Q16::ZERO, Q16::saturating_add)
    }
}

/// A Q32.32 accumulator for dot products.
///
/// Dot products accumulate raw products in 64 bits to avoid intermediate
/// rounding; convert back with [`Accumulator::to_q16`].
///
/// # Example
///
/// ```
/// use shmd_fixed::{Accumulator, Q16};
///
/// let mut acc = Accumulator::new();
/// acc.mac(Q16::from_f64(0.5), Q16::from_f64(4.0), |p| p);
/// acc.mac(Q16::from_f64(1.0), Q16::from_f64(1.0), |p| p);
/// assert_eq!(acc.to_q16().to_f64(), 3.0);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Accumulator {
    sum: i64,
}

impl Accumulator {
    /// Creates an empty (zero) accumulator.
    #[inline]
    pub fn new() -> Accumulator {
        Accumulator::default()
    }

    /// Adds the product of `a` and `b`, routing the raw Q32.32 product
    /// through `corrupt` (identity for an exact datapath).
    #[inline]
    pub fn mac(&mut self, a: Q16, b: Q16, corrupt: impl FnOnce(i64) -> i64) {
        self.sum = self.sum.saturating_add(corrupt(Q16::raw_product(a, b)));
    }

    /// Adds a Q16.16 value directly (e.g. a bias term).
    #[inline]
    pub fn add_q16(&mut self, value: Q16) {
        self.sum = self
            .sum
            .saturating_add(i64::from(value.to_bits()) << (PRODUCT_FRAC_BITS - FRAC_BITS));
    }

    /// Converts the Q32.32 sum back to Q16.16, saturating.
    #[inline]
    pub fn to_q16(self) -> Q16 {
        Q16::from_raw_product(self.sum)
    }

    /// Returns the raw Q32.32 running sum.
    #[inline]
    pub fn raw(self) -> i64 {
        self.sum
    }
}

/// `LANES` independent Q32.32 accumulators advanced in lock-step — the
/// structure-of-arrays counterpart of [`Accumulator`] for batched dot
/// products.
///
/// The batched inference path multiplies one shared weight against `LANES`
/// activations at a time. Keeping the running sums in a flat
/// `[i64; LANES]` array makes the fault-free MAC a straight-line
/// multiply/wrapping-add loop over fixed-width lanes that the
/// autovectorizer can unroll. A lane is bit-identical to a scalar
/// [`Accumulator`] fed the same (possibly corrupted) products in the same
/// order while the caller's magnitude bound rules out overflow; any other
/// lane is replayed by the caller and stored with
/// [`set_raw`](Self::set_raw).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LaneAccumulator<const LANES: usize> {
    sums: [i64; LANES],
}

impl<const LANES: usize> LaneAccumulator<LANES> {
    /// Creates `LANES` empty (zero) accumulators.
    #[inline]
    pub fn new() -> LaneAccumulator<LANES> {
        LaneAccumulator { sums: [0; LANES] }
    }

    /// Accumulates a whole fault-free *span*: `weights[j] · plane[j·LANES + l]`
    /// for every `j` and lane, with plain wrapping adds and no per-product
    /// branching. `plane` is a lane-major slice of exactly
    /// `weights.len() × LANES` activations. The whole nest is visible to
    /// the optimizer at once, so it unrolls and vectorizes without bounds
    /// checks or callback indirection.
    ///
    /// Each lane equals a scalar [`Accumulator`] fed the same products in
    /// order **only** when the caller has proved that no partial sum can
    /// leave the `i64` range (e.g. via a per-row `Σ|wᵢ| · 2³¹` magnitude
    /// bound over the accumulator's starting value): with that proof no
    /// add wraps, and none would have saturated. A lane without the proof
    /// must be recomputed sequentially and stored with
    /// [`set_raw`](Self::set_raw).
    ///
    /// # Panics
    ///
    /// Panics (debug) if `plane` is not `weights.len() × LANES` long.
    #[inline]
    pub fn mac_span_wrapping(&mut self, weights: &[Q16], plane: &[Q16]) {
        debug_assert_eq!(plane.len(), weights.len() * LANES);
        for (w, xs) in weights.iter().zip(plane.chunks_exact(LANES)) {
            for (s, &x) in self.sums.iter_mut().zip(xs) {
                *s = s.wrapping_add(Q16::raw_product(*w, x));
            }
        }
    }

    /// Adds a Q16.16 value (e.g. a shared bias term) to every lane.
    #[inline]
    pub fn add_q16(&mut self, value: Q16) {
        let raw = i64::from(value.to_bits()) << (PRODUCT_FRAC_BITS - FRAC_BITS);
        for l in 0..LANES {
            self.sums[l] = self.sums[l].saturating_add(raw);
        }
    }

    /// Converts lane `l`'s Q32.32 sum back to Q16.16, saturating.
    #[inline]
    pub fn to_q16(&self, lane: usize) -> Q16 {
        Q16::from_raw_product(self.sums[lane])
    }

    /// Returns lane `l`'s raw Q32.32 running sum.
    #[inline]
    pub fn raw(&self, lane: usize) -> i64 {
        self.sums[lane]
    }

    /// Replaces lane `l`'s raw Q32.32 running sum — the escape hatch for a
    /// caller that recomputed a lane sequentially (e.g. the batched MAC's
    /// exact replay when its no-overflow bound cannot be established).
    #[inline]
    pub fn set_raw(&mut self, lane: usize, raw: i64) {
        self.sums[lane] = raw;
    }

    /// Substitutes one product in lane `l`'s already-accumulated sum:
    /// removes `original` and adds `corrupted` in its place.
    ///
    /// Only valid when the caller has *proved* that no partial sum of the
    /// row — original, corrupted, or mid-patch — can leave the `i64`
    /// range (see the batched MAC's per-row magnitude bound); under that
    /// proof wrapping arithmetic never actually wraps and the patched sum
    /// is bit-identical to re-running the saturating accumulation with
    /// the corrupted product in sequence.
    #[inline]
    pub fn patch(&mut self, lane: usize, original: i64, corrupted: i64) {
        self.sums[lane] = self.sums[lane]
            .wrapping_sub(original)
            .wrapping_add(corrupted);
    }
}

impl<const LANES: usize> Default for LaneAccumulator<LANES> {
    fn default() -> LaneAccumulator<LANES> {
        LaneAccumulator::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn constants_round_trip() {
        assert_eq!(Q16::ZERO.to_f64(), 0.0);
        assert_eq!(Q16::ONE.to_f64(), 1.0);
        assert_eq!(Q16::from_f64(1.0), Q16::ONE);
    }

    #[test]
    fn from_f64_saturates() {
        assert_eq!(Q16::from_f64(1e9), Q16::MAX);
        assert_eq!(Q16::from_f64(-1e9), Q16::MIN);
    }

    #[test]
    fn from_f64_matches_the_saturating_cast() {
        // Rust's `as i32` saturates and sends NaN to 0. Checked on edges,
        // on half-steps between grid points and on raw bit patterns.
        let mut xs = vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 32_768.0];
        let mut s = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..1 << 18 {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let k = (s >> 30) as f64 - 8_589_934_592.0;
            xs.extend([(k + 0.5) / 65_536.0, k / 65_536.0, f64::from_bits(s)]);
        }
        for x in xs {
            let by_cast = (x * 65_536.0).round() as i32;
            assert_eq!(Q16::from_f64(x).to_bits(), by_cast, "{x:e}");
        }
    }

    #[test]
    fn exact_small_arithmetic() {
        let a = Q16::from_f64(2.25);
        let b = Q16::from_f64(0.5);
        assert_eq!((a + b).to_f64(), 2.75);
        assert_eq!((a - b).to_f64(), 1.75);
        assert_eq!((a * b).to_f64(), 1.125);
        assert_eq!((a / b).to_f64(), 4.5);
        assert_eq!((-a).to_f64(), -2.25);
    }

    #[test]
    fn division_by_zero_saturates() {
        assert_eq!(Q16::ONE / Q16::ZERO, Q16::MAX);
        assert_eq!(-Q16::ONE / Q16::ZERO, Q16::MIN);
    }

    #[test]
    fn raw_product_is_q32_32() {
        let a = Q16::from_f64(1.0);
        let b = Q16::from_f64(1.0);
        assert_eq!(Q16::raw_product(a, b), 1i64 << 32);
    }

    #[test]
    fn raw_product_round_trips_to_mul() {
        let a = Q16::from_f64(-3.5);
        let b = Q16::from_f64(1.25);
        assert_eq!(Q16::from_raw_product(Q16::raw_product(a, b)), a * b);
    }

    #[test]
    fn product_fault_changes_result() {
        let a = Q16::from_f64(1.0);
        let b = Q16::from_f64(1.0);
        // Flip product bit 40 => adds 2^(40-32) = 256 to the result.
        let faulty = Q16::from_raw_product(Q16::raw_product(a, b) ^ (1 << 40));
        assert_eq!(faulty.to_f64(), 257.0);
    }

    #[test]
    fn lsb_fault_is_invisible_after_truncation() {
        // Flips in the 8 LSBs of the product are far below Q16.16 resolution
        // (the >>16 shift discards bits 0..16 entirely).
        let a = Q16::from_f64(1.0);
        let b = Q16::from_f64(1.0);
        let faulty = Q16::from_raw_product(Q16::raw_product(a, b) ^ 0b1111_1111);
        assert_eq!(faulty, a * b);
    }

    #[test]
    fn accumulator_dot_product() {
        let mut acc = Accumulator::new();
        for i in 1..=4i16 {
            acc.mac(Q16::from(i), Q16::from(i), |p| p);
        }
        assert_eq!(acc.to_q16().to_f64(), 30.0);
    }

    #[test]
    fn accumulator_bias() {
        let mut acc = Accumulator::new();
        acc.add_q16(Q16::from_f64(-1.5));
        assert_eq!(acc.to_q16().to_f64(), -1.5);
    }

    #[test]
    fn wrapping_span_matches_scalar_lanes_under_the_magnitude_bound() {
        // The wrapping span is only claimed bit-identical to a scalar
        // Accumulator when Σ|wⱼ|·2³¹ stays inside i64 — build operands that
        // satisfy the bound (everything the quantizer emits does) and check
        // every lane, bias included. Rows past the bound are the batched
        // MAC's business and are checked against its sequential reference
        // in `shmd-ann`.
        const LANES: usize = 8;
        let mut x = 0x0123_4567_89ab_cdefu64;
        let mut draw = |scale: u32| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            Q16::from_bits((x >> scale) as i32)
        };
        // |w| < 2^14 bits each, 61 of them: Σ|w|·2³¹ < 2^51 ≪ 2^63.
        let weights: Vec<Q16> = (0..61).map(|_| draw(50)).collect();
        let plane: Vec<Q16> = (0..61 * LANES).map(|_| draw(33)).collect();
        let bound: u128 = weights
            .iter()
            .map(|w| u128::from(w.to_bits().unsigned_abs()) << 31)
            .sum();
        assert!(bound <= i64::MAX as u128, "fixture violates its own bound");
        let mut lanes = LaneAccumulator::<LANES>::new();
        lanes.mac_span_wrapping(&weights, &plane);
        let bias = Q16::from_f64(-1.25);
        lanes.add_q16(bias);
        for l in 0..LANES {
            let mut scalar = Accumulator::new();
            for (j, &w) in weights.iter().enumerate() {
                scalar.mac(w, plane[j * LANES + l], |p| p);
            }
            scalar.add_q16(bias);
            assert_eq!(lanes.raw(l), scalar.raw(), "lane {l} raw sum diverged");
            assert_eq!(lanes.to_q16(l), scalar.to_q16(), "lane {l} result diverged");
        }
        // An empty span is a no-op.
        let before = lanes;
        lanes.mac_span_wrapping(&[], &[]);
        assert_eq!(lanes, before);
    }

    #[test]
    fn lane_bias_saturates_like_scalar() {
        let mut lanes = LaneAccumulator::<2>::new();
        let mut scalar = Accumulator::new();
        for _ in 0..100_000 {
            scalar.mac(Q16::MAX, Q16::MAX, |p| p);
        }
        lanes.set_raw(0, scalar.raw());
        lanes.set_raw(1, scalar.raw());
        scalar.add_q16(Q16::MAX);
        lanes.add_q16(Q16::MAX);
        assert_eq!(lanes.raw(0), scalar.raw());
        assert_eq!(lanes.raw(1), i64::MAX);
        assert_eq!(lanes.to_q16(0), Q16::MAX);
    }

    #[test]
    fn display_and_debug_are_nonempty() {
        let v = Q16::from_f64(0.25);
        assert_eq!(format!("{v}"), "0.25");
        assert_eq!(format!("{v:?}"), "Q16(0.25)");
    }

    #[test]
    fn clamp_works() {
        let v = Q16::from_f64(5.0);
        assert_eq!(v.clamp(Q16::ZERO, Q16::ONE), Q16::ONE);
    }

    #[test]
    #[should_panic(expected = "lo must not exceed hi")]
    fn clamp_panics_on_inverted_bounds() {
        let _ = Q16::ONE.clamp(Q16::ONE, Q16::ZERO);
    }

    proptest! {
        #[test]
        fn round_trip_error_is_below_resolution(x in -30000.0f64..30000.0) {
            let q = Q16::from_f64(x);
            prop_assert!((q.to_f64() - x).abs() <= 1.0 / f64::from(1 << 15));
        }

        #[test]
        fn addition_is_commutative(a in -1000.0f64..1000.0, b in -1000.0f64..1000.0) {
            let (qa, qb) = (Q16::from_f64(a), Q16::from_f64(b));
            prop_assert_eq!(qa + qb, qb + qa);
        }

        #[test]
        fn multiplication_matches_float_within_tolerance(
            a in -100.0f64..100.0, b in -100.0f64..100.0
        ) {
            let q = Q16::from_f64(a) * Q16::from_f64(b);
            // Max error: operand rounding (|b|+|a|)*2^-17 plus product truncation.
            let tol = (a.abs() + b.abs() + 2.0) / f64::from(1 << 16);
            prop_assert!((q.to_f64() - a * b).abs() <= tol,
                "{} * {} = {} (expected {})", a, b, q.to_f64(), a * b);
        }

        #[test]
        fn negation_is_involutive(a in -30000.0f64..30000.0) {
            let q = Q16::from_f64(a);
            prop_assert_eq!(-(-q), q);
        }

        #[test]
        fn accumulator_matches_sequential_mul(
            xs in proptest::collection::vec((-50.0f64..50.0, -50.0f64..50.0), 1..20)
        ) {
            let mut acc = Accumulator::new();
            let mut expected = 0.0f64;
            for &(a, b) in &xs {
                let (qa, qb) = (Q16::from_f64(a), Q16::from_f64(b));
                acc.mac(qa, qb, |p| p);
                expected += qa.to_f64() * qb.to_f64();
            }
            prop_assert!((acc.to_q16().to_f64() - expected).abs() < 1e-3);
        }

        #[test]
        fn product_sign_bit_matches_sign(a in -30000.0f64..30000.0, b in -30000.0f64..30000.0) {
            let p = Q16::raw_product(Q16::from_f64(a), Q16::from_f64(b));
            if p != 0 {
                prop_assert_eq!(p < 0, (p >> 63) & 1 == 1);
            }
        }
    }
}
