//! Neuron activation functions (the FANN subset used by HMDs).

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

    /// `apply(x) as f32` for each lane of `sums`, written to `out`: the
    /// float forward pass's one activation loop.
    ///
    /// `tanh` takes a fast path: [`tanh_approx`] and [`guarded_f32`] run
    /// over all `B` lanes without a branch, so that loop vectorizes, and a
    /// lane keeps its result only where the guard proves it rounds to
    /// libm's `f32`; every other lane, and every other activation, calls
    /// [`Activation::apply`].
    #[inline]
    pub(crate) fn apply_lanes<const B: usize>(self, sums: &[f64; B], out: &mut [f32; B]) {
        if self == Activation::SigmoidSymmetric {
            // NaN marks a declined lane: an accepted lane is finite.
            for (y, &x) in out.iter_mut().zip(sums) {
                *y = guarded_f32(x, tanh_approx(x)).unwrap_or(f32::NAN);
            }
            for (y, &x) in out.iter_mut().zip(sums) {
                if y.is_nan() {
                    *y = self.apply(x) as f32;
                }
            }
        } else {
            for (y, &x) in out.iter_mut().zip(sums) {
                *y = self.apply(x) as f32;
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
/// `|x|` from which `tanh` is left to libm. Below it `e^{2|x|}` stays far
/// from overflow; `tanh` is already 1.0 in `f32` from `|x| ≈ 9`.
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
/// `|x| ≥ TANH_CUTOFF` inputs are computed as if `|x|` were the cutoff;
/// [`guarded_f32`] rejects them.
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

/// `Some(tanh(x) as f32)` when the approximation `t` of `tanh(x)` pins
/// down libm's `f32`, `None` when libm must decide.
///
/// The guard accepts only if `(t − E) as f32 == (t + E) as f32` and
/// `|x| < TANH_CUTOFF`. Why that is exact: [`tanh_approx`] is within
/// 3 · 2⁻⁵³ of glibc's `tanh` on the sweep, and glibc documents `tanh`
/// within 2 ulp of the true value (2 · 2⁻⁵³ below 1.0), so the two differ
/// by far less than `E − ulp(t)` (ulp(t) ≤ 2⁻⁵³ covers the rounding of
/// `t ± E`). Libm's value then lies between the computed `t − E` and
/// `t + E`, and rounding to `f32` is monotone, so when both ends round to
/// the same `f32`, libm's value does too. Unlike serving's `fast_tanh`
/// table, whose Q16 input grid is enumerated in full, `f64` inputs cannot
/// be enumerated, hence the per-lane guard. It declines near `f32`
/// rounding midpoints, at ±0 and subnormals (where `t ± E` straddle 0),
/// and at NaN, ±∞ and the cutoff.
#[inline]
fn guarded_f32(x: f64, t: f64) -> Option<f32> {
    let lo = (t - TANH_SLACK) as f32;
    let hi = (t + TANH_SLACK) as f32;
    (lo == hi && x.abs() < TANH_CUTOFF).then_some(lo)
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

    /// Runs `xs` through `apply_lanes` eight lanes at a time and holds every
    /// lane of every activation to `apply(x) as f32`, bit for bit.
    fn assert_lanes_are_apply(xs: &[f64]) {
        for act in [
            Activation::Linear,
            Activation::Sigmoid,
            Activation::SigmoidSymmetric,
            Activation::Relu,
        ] {
            for chunk in xs.chunks(8) {
                let mut sums = [0.0; 8];
                sums[..chunk.len()].copy_from_slice(chunk);
                let mut out = [0.0f32; 8];
                act.apply_lanes(&sums, &mut out);
                for (&x, y) in sums.iter().zip(out) {
                    let want = act.apply(x) as f32;
                    assert_eq!(y.to_bits(), want.to_bits(), "{act:?}({x:e})");
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
    fn guard_declines_signed_zeros_subnormals_non_finite_and_the_cutoff() {
        let declined = [
            0.0,
            -0.0,
            f64::from_bits(1),
            -f64::MIN_POSITIVE / 3.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            TANH_CUTOFF,
            -TANH_CUTOFF,
            TANH_CUTOFF.next_up(),
            f64::MAX,
        ];
        for x in declined {
            assert_eq!(guarded_f32(x, tanh_approx(x)), None, "tanh({x:e})");
        }
        for x in [
            TANH_CUTOFF.next_down(),
            -TANH_CUTOFF.next_down(),
            9.5,
            -0.75,
        ] {
            assert!(guarded_f32(x, tanh_approx(x)).is_some(), "tanh({x:e})");
        }
        assert_lanes_are_apply(&declined);
        let mut out = [1.0f32; 2];
        Activation::SigmoidSymmetric.apply_lanes(&[0.0, -0.0], &mut out);
        assert_eq!(
            out.map(f32::to_bits),
            [0.0f32.to_bits(), (-0.0f32).to_bits()]
        );
    }

    #[test]
    fn guard_declines_next_to_f32_rounding_midpoints() {
        // `x = atanh(m)` for the midpoint `m` of two neighbouring f32s:
        // `tanh(x)` lies within a few f64 ulp of `m`, so `t ± E` straddles
        // it and only libm can say which way its value rounds.
        let mut inputs = Vec::new();
        for bits in (0x3380_0000u32..0x3f80_0000).step_by(0x1_0003) {
            let a = f32::from_bits(bits);
            let m = (f64::from(a) + f64::from(a.next_up())) / 2.0;
            let x = m.atanh();
            assert_eq!(guarded_f32(x, tanh_approx(x)), None, "atanh({m:e})");
            assert_eq!(guarded_f32(-x, tanh_approx(-x)), None, "-atanh({m:e})");
            inputs.extend([x, -x]);
        }
        assert!(inputs.len() > 1_000);
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
