//! Neuron activation functions (the FANN subset used by HMDs).

use shmd_fixed::Q16;

/// An activation function applied to a neuron's weighted sum.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Activation {
    /// Identity: `f(x) = x`.
    Linear,
    /// Logistic sigmoid: `f(x) = 1 / (1 + e^(−x))`, output in `(0, 1)`.
    /// FANN's `FANN_SIGMOID`; the output activation of the paper's HMD,
    /// whose score distribution Figure 2(b) plots.
    #[default]
    Sigmoid,
    /// Symmetric sigmoid `f(x) = tanh(x)`, output in `(−1, 1)`.
    /// FANN's `FANN_SIGMOID_SYMMETRIC`.
    SigmoidSymmetric,
    /// Rectified linear unit: `f(x) = max(0, x)`.
    Relu,
}

impl Activation {
    /// Applies the activation.
    #[inline]
    pub fn apply(self, x: f64) -> f64 {
        match self {
            Activation::Linear => x,
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Activation::SigmoidSymmetric => x.tanh(),
            Activation::Relu => x.max(0.0),
        }
    }

    /// `R::round(apply(x))` for each lane of `sums`, written to `out`: the
    /// one activation loop of both forward passes, the float one rounding
    /// to `f32` and the quantised one to [`Q16`].
    ///
    /// `tanh` takes a fast path: [`tanh_approx`] and [`guarded`] run over
    /// all `B` lanes without a branch, so that loop vectorizes, and a lane
    /// keeps its result only where the guard proves it rounds to libm's;
    /// every other lane, and every other activation, calls
    /// [`Activation::apply`].
    #[inline]
    pub(crate) fn apply_lanes<const B: usize, R: Rounding>(
        self,
        sums: &[f64; B],
        out: &mut [R; B],
    ) {
        if self == Activation::SigmoidSymmetric {
            let mut declined = [false; B];
            for ((y, d), &x) in out.iter_mut().zip(&mut declined).zip(sums) {
                let g = guarded(x, tanh_approx(x));
                *d = g.is_none();
                *y = g.unwrap_or_default();
            }
            for ((y, d), &x) in out.iter_mut().zip(declined).zip(sums) {
                if d {
                    *y = R::round(self.apply(x));
                }
            }
        } else {
            for (y, &x) in out.iter_mut().zip(sums) {
                *y = R::round(self.apply(x));
            }
        }
    }

    /// The derivative expressed in terms of the activation *output* `y`
    /// (how FANN computes it during backpropagation).
    #[inline]
    pub fn derivative_from_output(self, y: f64) -> f64 {
        match self {
            Activation::Linear => 1.0,
            // Clamp away from 0 like FANN does to keep training moving when
            // neurons saturate.
            Activation::Sigmoid => (y * (1.0 - y)).max(0.01),
            Activation::SigmoidSymmetric => (1.0 - y * y).max(0.01),
            Activation::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }

    /// The output range `(lo, hi)` of the activation, unbounded sides as
    /// infinities.
    pub fn output_range(self) -> (f64, f64) {
        match self {
            Activation::Linear => (f64::NEG_INFINITY, f64::INFINITY),
            Activation::Sigmoid => (0.0, 1.0),
            Activation::SigmoidSymmetric => (-1.0, 1.0),
            Activation::Relu => (0.0, f64::INFINITY),
        }
    }
}

/// The guard's slack `E = 2⁻⁴⁴`, absolute: 512 ulp of 1.0.
const TANH_SLACK: f64 = 1.0 / (1u64 << 44) as f64;
/// `|x|` at which [`tanh_approx`] clamps its input, far below where
/// `e^{2|x|}` overflows and far above where `tanh` rounds to ±1.0.
const TANH_CUTOFF: f64 = 64.0;
/// `1.5 · 2⁵²`: adding and subtracting it rounds a small `f64` to an
/// integer, to nearest even, with no branch or libm call.
const ROUND_SHIFT: f64 = 6_755_399_441_055_744.0;
/// fdlibm's split of ln 2: `ln2_hi` has trailing zero bits, so `k · ln2_hi`
/// is exact for every `k` this range reduction makes.
const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);
/// Taylor coefficients `1/n!` of `e^r` for `n = 0..=13`. Over the reduced
/// range `|r| ≤ ln 2 / 2` the truncation error is below `0.35¹⁴ / 14! · e^0.35
/// < 10⁻¹⁷` relative.
const EXP_TAYLOR: [f64; 14] = [
    1.0,
    1.0,
    1.0 / 2.0,
    1.0 / 6.0,
    1.0 / 24.0,
    1.0 / 120.0,
    1.0 / 720.0,
    1.0 / 5_040.0,
    1.0 / 40_320.0,
    1.0 / 362_880.0,
    1.0 / 3_628_800.0,
    1.0 / 39_916_800.0,
    1.0 / 479_001_600.0,
    1.0 / 6_227_020_800.0,
];

/// A branch-free `tanh(x)` for [`Activation::apply_lanes`]'s fast path:
/// `±(1 − 2 / (e^{2|x|} + 1))` with the sign of `x`. `e^y` reduces
/// `y = k · ln 2 + r` Cody–Waite style with fdlibm's `ln2_hi`/`ln2_lo`,
/// evaluates [`EXP_TAYLOR`] at `r` by Estrin's scheme (four dependent
/// steps where Horner's rule takes thirteen; no FMA, since Rust never
/// contracts), and adds `k` to the exponent as an integer.
///
/// Over a dense sweep of 1.4 · 10⁸ inputs (every step of 2⁻²⁰ in
/// `[−20, 20]`, 2¹² mantissas of every exponent from 2⁻⁶⁰ to 2⁶ at both
/// signs, and 10⁸ uniform draws in `(−24, 24)`) it differs from glibc's
/// `tanh` by at most 3 · 2⁻⁵³ absolute. NaN, infinite and
/// `|x| ≥ TANH_CUTOFF` inputs are computed as if `|x|` were the cutoff,
/// which gives exactly ±1.0: `2 / (e¹²⁸ + 1) < 10⁻⁵⁵` vanishes next to 1.
#[inline]
fn tanh_approx(x: f64) -> f64 {
    let y = (2.0 * x.abs()).min(2.0 * TANH_CUTOFF);
    let shifted = y * std::f64::consts::LOG2_E + ROUND_SHIFT;
    let k = shifted - ROUND_SHIFT;
    let r = (y - k * LN2_HI) - k * LN2_LO;
    let pair = |i: usize| EXP_TAYLOR[i] + EXP_TAYLOR[i + 1] * r;
    let r2 = r * r;
    let r4 = r2 * r2;
    let low = (pair(0) + pair(2) * r2) + (pair(4) + pair(6) * r2) * r4;
    let high = (pair(8) + pair(10) * r2) + pair(12) * r4;
    let p = low + high * (r4 * r4);
    // `shifted`'s low mantissa bits hold `k`; 0 ≤ k ≤ 185 here.
    let k = shifted.to_bits() - ROUND_SHIFT.to_bits();
    let exp_y = p * f64::from_bits((k + 1023) << 52);
    (1.0 - 2.0 / (exp_y + 1.0)).copysign(x)
}

/// An output type of [`Activation::apply_lanes`]: `f32` for the float
/// forward pass, [`Q16`] for the quantised one. [`guarded`]'s proof needs
/// only that `round` is monotone.
pub(crate) trait Rounding: Copy + Default + PartialEq {
    /// Rounds an activation to this type.
    fn round(y: f64) -> Self;
}

impl Rounding for f32 {
    #[inline]
    fn round(y: f64) -> f32 {
        y as f32
    }
}

impl Rounding for Q16 {
    #[inline]
    fn round(y: f64) -> Q16 {
        Q16::from_f64(y)
    }
}

/// `Some(R::round(tanh(x)))` when the approximation `t` of `tanh(x)` pins
/// down libm's rounded value, `None` when libm must decide.
///
/// The guard accepts only if `R::round(t − E) == R::round(t + E)` and `x`
/// is finite. Why that is exact: [`tanh_approx`] is within 3 · 2⁻⁵³ of
/// glibc's `tanh` on the sweep, and glibc documents `tanh` within 2 ulp of
/// the true value (2 · 2⁻⁵³ below 1.0), so the two differ by far less than
/// `E − ulp(t)` (ulp(t) ≤ 2⁻⁵³ covers the rounding of `t ± E`). Libm's
/// value then lies between the computed `t − E` and `t + E`, and both
/// roundings are monotone, so when both ends round to the same value,
/// libm's value does too. Saturated inputs need no rule of their own:
/// from `|x| = TANH_CUTOFF` on, `t` is exactly ±1.0, and the true `tanh`
/// is within 10⁻⁵⁵ of ±1, so glibc's is within 2 ulp of ±1, far inside
/// `E`; hence a quantised lane never leaves this path however far faults
/// push its sum. Rounding to `f32` declines near `f32` rounding midpoints
/// and at ±0 and subnormals (where `t ± E` straddle 0); rounding to `Q16`
/// declines near its midpoints `(k + ½) / 2¹⁶`, which no Q16 input reaches
/// (the activation tests enumerate the grid). Both decline at NaN and ±∞.
#[inline]
fn guarded<R: Rounding>(x: f64, t: f64) -> Option<R> {
    let lo = R::round(t - TANH_SLACK);
    let hi = R::round(t + TANH_SLACK);
    (lo == hi && x.is_finite()).then_some(lo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn sigmoid_fixed_points() {
        assert!((Activation::Sigmoid.apply(0.0) - 0.5).abs() < 1e-12);
        assert!(Activation::Sigmoid.apply(10.0) > 0.9999);
        assert!(Activation::Sigmoid.apply(-10.0) < 0.0001);
    }

    #[test]
    fn symmetric_sigmoid_is_tanh() {
        for x in [-2.0, -0.5, 0.0, 0.5, 2.0] {
            assert!((Activation::SigmoidSymmetric.apply(x) - f64::tanh(x)).abs() < 1e-12);
        }
    }

    #[test]
    fn relu_clips_negatives() {
        assert_eq!(Activation::Relu.apply(-3.0), 0.0);
        assert_eq!(Activation::Relu.apply(3.0), 3.0);
    }

    #[test]
    fn linear_is_identity() {
        assert_eq!(Activation::Linear.apply(4.2), 4.2);
        assert_eq!(Activation::Linear.derivative_from_output(4.2), 1.0);
    }

    #[test]
    fn sigmoid_derivative_peaks_at_half() {
        let d_half = Activation::Sigmoid.derivative_from_output(0.5);
        assert!((d_half - 0.25).abs() < 1e-12);
        assert!(Activation::Sigmoid.derivative_from_output(0.99) < d_half);
    }

    /// Runs `xs` through `apply_lanes` eight lanes at a time, rounding to
    /// `f32` and to `Q16`, and holds every lane of every activation to
    /// `R::round(apply(x))`, bit for bit.
    fn assert_lanes_are_apply(xs: &[f64]) {
        assert_rounded_lanes_are_apply(xs, |y: f32| u64::from(y.to_bits()));
        assert_rounded_lanes_are_apply(xs, |y: Q16| u64::from(y.to_bits() as u32));
    }

    fn assert_rounded_lanes_are_apply<R: Rounding>(xs: &[f64], bits: impl Fn(R) -> u64) {
        for act in [
            Activation::Linear,
            Activation::Sigmoid,
            Activation::SigmoidSymmetric,
            Activation::Relu,
        ] {
            for chunk in xs.chunks(8) {
                let mut sums = [0.0; 8];
                sums[..chunk.len()].copy_from_slice(chunk);
                let mut out = [R::default(); 8];
                act.apply_lanes(&sums, &mut out);
                for (&x, y) in sums.iter().zip(out) {
                    let want = R::round(act.apply(x));
                    assert_eq!(bits(y), bits(want), "{act:?}({x:e})");
                }
            }
        }
    }

    #[test]
    fn guarded_tanh_is_libm_on_a_dense_sweep() {
        // Every step of 2⁻¹² over [−40, 40], well into the range where
        // tanh is ±1.0 in f32.
        let steps: Vec<f64> = (-40 << 12..=40 << 12)
            .map(|i| f64::from(i) / 4096.0)
            .collect();
        assert_lanes_are_apply(&steps);
        // 64 mantissas of every binade from the subnormals to 2¹⁰ (past the
        // cutoff), both signs.
        let binades: Vec<f64> = (0..1034u64)
            .flat_map(|e| (0..64u64).map(move |m| f64::from_bits(e << 52 | m << 46 | 1)))
            .flat_map(|x| [x, -x])
            .collect();
        assert_lanes_are_apply(&binades);
    }

    #[test]
    fn quantised_tanh_is_libm_on_every_grid_point_without_a_decline() {
        // The quantised pass feeds `tanh` Q16 values only: every grid point
        // with |x| < 64 (where the approximation is not clamped), both
        // extremes, and a stride over the rest of the i32 range, where
        // faulty sums land and the clamp answers ±1.0.
        let mut raw: Vec<i32> = (-(64 << 16) + 1..64 << 16).collect();
        raw.extend((i32::MIN..=i32::MAX).step_by(997));
        raw.extend([i32::MIN, i32::MAX]);
        let act = Activation::SigmoidSymmetric;
        for chunk in raw.chunks(8) {
            let mut sums = [0.0; 8];
            for (s, &r) in sums.iter_mut().zip(chunk) {
                *s = Q16::from_bits(r).to_f64();
            }
            let mut out = [Q16::ZERO; 8];
            act.apply_lanes(&sums, &mut out);
            for (&x, y) in sums.iter().zip(out) {
                assert_eq!(y, Q16::from_f64(act.apply(x)), "tanh({x})");
                assert!(
                    guarded::<Q16>(x, tanh_approx(x)).is_some(),
                    "declined tanh({x})"
                );
            }
        }
    }

    #[test]
    fn guard_declines_signed_zeros_subnormals_and_non_finite_inputs() {
        let declined = [
            0.0,
            -0.0,
            f64::from_bits(1),
            -f64::MIN_POSITIVE / 3.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        for x in declined {
            assert_eq!(guarded::<f32>(x, tanh_approx(x)), None, "tanh({x:e})");
        }
        // The clamp answers exactly ±1.0 at and past the cutoff, so the
        // guard keeps those lanes.
        let accepted = [
            TANH_CUTOFF.next_down(),
            -TANH_CUTOFF.next_down(),
            TANH_CUTOFF,
            -TANH_CUTOFF,
            TANH_CUTOFF.next_up(),
            -TANH_CUTOFF.next_up(),
            f64::MAX,
            -f64::MAX,
            9.5,
            -0.75,
        ];
        for x in accepted {
            assert!(guarded::<f32>(x, tanh_approx(x)).is_some(), "tanh({x:e})");
            assert!(guarded::<Q16>(x, tanh_approx(x)).is_some(), "tanh({x:e})");
        }
        assert_eq!(tanh_approx(TANH_CUTOFF), 1.0);
        assert_eq!(tanh_approx(-f64::MAX), -1.0);
        assert_lanes_are_apply(&declined);
        assert_lanes_are_apply(&accepted);
        let mut out = [1.0f32; 2];
        Activation::SigmoidSymmetric.apply_lanes(&[0.0, -0.0], &mut out);
        assert_eq!(
            out.map(f32::to_bits),
            [0.0f32.to_bits(), (-0.0f32).to_bits()]
        );
    }

    #[test]
    fn guard_declines_next_to_f32_and_q16_rounding_midpoints() {
        // `x = atanh(m)` for the midpoint `m` of two neighbouring f32s, or
        // of two neighbouring Q16s: `tanh(x)` lies within a few f64 ulp of
        // `m`, so `t ± E` straddles it and only libm can say which way its
        // value rounds.
        let mut inputs = Vec::new();
        for bits in (0x3380_0000u32..0x3f80_0000).step_by(0x1_0003) {
            let a = f32::from_bits(bits);
            let m = (f64::from(a) + f64::from(a.next_up())) / 2.0;
            let x = m.atanh();
            assert_eq!(guarded::<f32>(x, tanh_approx(x)), None, "atanh({m:e})");
            assert_eq!(guarded::<f32>(-x, tanh_approx(-x)), None, "-atanh({m:e})");
            inputs.extend([x, -x]);
        }
        assert!(inputs.len() > 1_000);
        for k in 0..65_536 {
            let m = (f64::from(k) + 0.5) / 65_536.0;
            let x = m.atanh();
            assert_eq!(guarded::<Q16>(x, tanh_approx(x)), None, "atanh({m:e})");
            assert_eq!(guarded::<Q16>(-x, tanh_approx(-x)), None, "-atanh({m:e})");
            inputs.extend([x, -x]);
        }
        assert_lanes_are_apply(&inputs);
    }

    proptest! {
        #[test]
        fn outputs_stay_in_range(x in -50.0f64..50.0) {
            for act in [Activation::Linear, Activation::Sigmoid,
                        Activation::SigmoidSymmetric, Activation::Relu] {
                let y = act.apply(x);
                let (lo, hi) = act.output_range();
                prop_assert!(y >= lo && y <= hi);
            }
        }

        #[test]
        fn sigmoid_is_monotone(a in -20.0f64..20.0, b in -20.0f64..20.0) {
            prop_assume!(a < b);
            prop_assert!(Activation::Sigmoid.apply(a) < Activation::Sigmoid.apply(b));
        }
    }
}
