//! Neuron activation functions (the FANN subset used by HMDs).

use shmd_fixed::Q16;

/// An activation function applied to a neuron's weighted sum.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Activation {
    /// Identity: `f(x) = x`.
    Linear,
    /// Logistic sigmoid: `f(x) = 1 / (1 + e^(−x))`, output in `[0, 1]`.
    /// FANN's `FANN_SIGMOID`; the output activation of the paper's HMD,
    /// whose score distribution Figure 2(b) plots.
    #[default]
    Sigmoid,
    /// Symmetric sigmoid `f(x) = tanh(x)`, output in `[−1, 1]`.
    /// FANN's `FANN_SIGMOID_SYMMETRIC`.
    SigmoidSymmetric,
    /// Rectified linear unit: `f(x) = max(0, x)`.
    Relu,
}

impl Activation {
    /// Applies the activation. `tanh` and the sigmoid are this crate's own
    /// branch-free approximations, not libm's, so every host computes the
    /// same bits: within 3 ulp of the exact value on the tested sweeps,
    /// exactly ±1.0, 0.0 or 1.0 once saturated, and NaN for NaN.
    #[inline]
    pub fn apply(self, x: f64) -> f64 {
        match self {
            Activation::Linear => x,
            Activation::Sigmoid => sigmoid(x),
            Activation::SigmoidSymmetric => tanh(x),
            Activation::Relu => x.max(0.0),
        }
    }

    /// `R::round(apply(x))` for each lane of `sums`, written to `out`: the
    /// one activation loop of both forward passes, the float one rounding
    /// to `f32` and the quantised one to [`Q16`]. `tanh` and the sigmoid
    /// are branch-free and picked once, outside the loop, so the loop
    /// vectorizes.
    #[inline]
    pub(crate) fn apply_lanes<const B: usize, R: Rounding>(
        self,
        sums: &[f64; B],
        out: &mut [R; B],
    ) {
        #[inline(always)]
        fn lanes<const B: usize, R: Rounding>(
            sums: &[f64; B],
            out: &mut [R; B],
            f: impl Fn(f64) -> f64,
        ) {
            for (y, &x) in out.iter_mut().zip(sums) {
                *y = R::round(f(x));
            }
        }
        match self {
            Activation::Sigmoid => lanes(sums, out, sigmoid),
            Activation::SigmoidSymmetric => lanes(sums, out, tanh),
            Activation::Linear | Activation::Relu => lanes(sums, out, |x| self.apply(x)),
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

    /// The output range `[lo, hi]` of the activation, unbounded sides as
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

/// `|x|` at which [`tanh`] clamps its input, so that `2^k` stays normal;
/// `tanh` is exactly ±1.0 from `|x| ≈ 19` on.
const TANH_CUTOFF: f64 = 64.0;
/// `|x|` from which [`sigmoid`] is exactly 0.0 or 1.0: `e^{−746}` is
/// below half the least subnormal, so it rounds to 0.
const SIGMOID_CUTOFF: f64 = 746.0;
/// `1.5 · 2⁵²`: adding and subtracting it rounds a small `f64` to an
/// integer, to nearest even, with no branch or libm call.
const ROUND_SHIFT: f64 = 6_755_399_441_055_744.0;
/// fdlibm's split of ln 2: `ln2_hi` has trailing zero bits, so `k · ln2_hi`
/// is exact for every `k` this range reduction makes.
const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);
/// `1/(n + 1)!` for `n = 0..=12`: `e^r − 1 = r · Σ rⁿ/(n + 1)!`. Over the
/// reduced range `|r| ≤ ln 2 / 2` the truncation error is below `0.35¹⁴ /
/// 14! · e^0.35 < 10⁻¹⁷` relative.
const EXPM1_TAYLOR: [f64; 13] = [
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

/// `e^y = 2^k · (1 + q)` as `(q, k)`, for `y` clamped below at `floor ≥
/// −745.5`: the one exponential core of [`tanh`] and [`sigmoid`], with no
/// branch or libm call. It reduces `y = k · ln 2 + r` Cody–Waite style
/// with fdlibm's `ln2_hi`/`ln2_lo`, and evaluates `q = e^r − 1` as `r`
/// times [`EXPM1_TAYLOR`] by Estrin's scheme (no FMA: Rust never
/// contracts). With no constant term in `q`, `e^y − 1` keeps its relative
/// precision as `y → 0`. A NaN `y` gives a NaN `q`.
#[inline]
fn exp_parts(y: f64, floor: f64) -> (f64, i64) {
    // Not `y.max(floor)`, which would turn a NaN into `floor`.
    let y = if y < floor { floor } else { y };
    let shifted = y * std::f64::consts::LOG2_E + ROUND_SHIFT;
    let k = shifted - ROUND_SHIFT;
    let r = (y - k * LN2_HI) - k * LN2_LO;
    let pair = |i: usize| EXPM1_TAYLOR[i] + EXPM1_TAYLOR[i + 1] * r;
    let r2 = r * r;
    let r4 = r2 * r2;
    let low = (pair(0) + pair(2) * r2) + (pair(4) + pair(6) * r2) * r4;
    let high = (pair(8) + pair(10) * r2) + EXPM1_TAYLOR[12] * r4;
    let q = r * (low + high * (r4 * r4));
    // `shifted`'s low mantissa bits hold `k`, two's complement.
    (q, shifted.to_bits() as i64 - ROUND_SHIFT.to_bits() as i64)
}

/// `2^k` for `−1 022 ≤ k ≤ 1 023`, built in the exponent field.
#[inline]
fn pow2(k: i64) -> f64 {
    f64::from_bits(((k + 1023) as u64) << 52)
}

/// `tanh(x) = −m / (2 + m)` with the sign of `x`, where `m = e^{−2|x|} − 1
/// = 2^k · q + (2^k − 1)`, both terms exact. Near 0, `m ≈ −2|x|` keeps its
/// precision, so tiny and subnormal `x` (±0 included) give `x` back.
#[inline]
fn tanh(x: f64) -> f64 {
    let (q, k) = exp_parts(-2.0 * x.abs(), -2.0 * TANH_CUTOFF);
    let s = pow2(k);
    let m = s * q + (s - 1.0);
    (-m / (2.0 + m)).copysign(x)
}

/// The logistic sigmoid from `e = e^{−|x|}`: `1 / (1 + e)` for `x ≥ 0` and
/// `e / (1 + e)` for `x < 0`, picked by a select, so no `e^y` overflows
/// and the left tail keeps its precision. `2^k` is applied in two halves,
/// so `e` rounds into the subnormals once.
#[inline]
fn sigmoid(x: f64) -> f64 {
    let (q, k) = exp_parts(-x.abs(), -SIGMOID_CUTOFF);
    let e = (1.0 + q) * pow2(k >> 1) * pow2(k - (k >> 1));
    (if x < 0.0 { e } else { 1.0 }) / (1.0 + e)
}

/// An output type of [`Activation::apply_lanes`]: `f32` for the float
/// forward pass, [`Q16`] for the quantised one.
pub(crate) trait Rounding: Copy + Default {
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

    /// `(x, tanh(x), sigmoid(x))` as `f64` bits: ±0, subnormals, tiny
    /// inputs, inputs whose true value lies next to an `f32` or a Q16
    /// rounding midpoint (as `atanh` or `logit` of the midpoint), the
    /// clamps and their neighbours, and the non-finite inputs.
    const KNOWN_ANSWERS: [(f64, u64, u64); 40] = [
        (0.0, 0x0000_0000_0000_0000, 0x3fe0_0000_0000_0000),
        (-0.0, 0x8000_0000_0000_0000, 0x3fe0_0000_0000_0000),
        (
            f64::from_bits(1),
            0x0000_0000_0000_0001,
            0x3fe0_0000_0000_0000,
        ),
        (
            -f64::MIN_POSITIVE / 3.0,
            0x8005_5555_5555_5555,
            0x3fe0_0000_0000_0000,
        ),
        (
            f64::MIN_POSITIVE,
            0x0010_0000_0000_0000,
            0x3fe0_0000_0000_0000,
        ),
        (1e-20, 0x3bc7_9ca1_0c92_4223, 0x3fe0_0000_0000_0000),
        (-1e-20, 0xbbc7_9ca1_0c92_4223, 0x3fe0_0000_0000_0000),
        (1e-8, 0x3e45_798e_e230_8c3a, 0x3fe0_0000_0157_98ee),
        (
            7.62939453139803e-6,
            0x3ee0_0000_0000_0000,
            0x3fe0_0004_0000_0000,
        ),
        (
            0.0010000004390387511,
            0x3f50_624d_efff_ffff,
            0x3fe0_020c_49c6_9707,
        ),
        (
            0.19065431587294238,
            0x3fc8_1cc0_0000_0000,
            0x3fe1_8548_15e4_f707,
        ),
        (
            -0.19065431587294238,
            0xbfc8_1cc0_0000_0000,
            0x3fdc_f56f_d436_11f3,
        ),
        (
            0.4488223131606096,
            0x3fda_f086_54a8_98c1,
            0x3fe3_8810_0000_0000,
        ),
        (0.5, 0x3fdd_9353_d756_8af3, 0x3fe3_eb2f_d4d3_4391),
        (
            0.5493061840704855,
            0x3fe0_0000_1000_0001,
            0x3fe4_4985_1c9b_01e2,
        ),
        (-0.75, 0xbfe4_5323_e552_f228, 0x3fd4_8856_10b9_b827),
        (
            1.0986124476138355,
            0x3fe9_9999_b851_eb58,
            0x3fe8_0000_1000_0001,
        ),
        (
            1.4722195209540867,
            0x3fec_cccc_d000_0000,
            0x3fea_0753_eb45_676a,
        ),
        (
            -4.595119825675614,
            0xbfef_fe54_18db_af02,
            0x3f84_7ae1_4fff_ffff,
        ),
        (
            5.689012758626812,
            0x3fef_ffcf_ffff_ffff,
            0x3fef_e461_660e_30d3,
        ),
        (9.5, 0x3fef_ffff_f9fb_ea41, 0x3fef_ff63_093c_d1d3),
        (
            -10.684866892405429,
            0xbfef_ffff_ff6f_fe50,
            0x3ef7_ffff_ffff_fffb,
        ),
        (19.0, 0x3ff0_0000_0000_0000, 0x3fef_ffff_fcfd_f520),
        (-37.0, 0xbff0_0000_0000_0000, 0x3c98_9847_1fca_6055),
        (
            TANH_CUTOFF.next_down(),
            0x3ff0_0000_0000_0000,
            0x3ff0_0000_0000_0000,
        ),
        (TANH_CUTOFF, 0x3ff0_0000_0000_0000, 0x3ff0_0000_0000_0000),
        (
            TANH_CUTOFF.next_up(),
            0x3ff0_0000_0000_0000,
            0x3ff0_0000_0000_0000,
        ),
        (
            -TANH_CUTOFF.next_down(),
            0xbff0_0000_0000_0000,
            0x3a29_69d4_7321_e4fe,
        ),
        (-TANH_CUTOFF, 0xbff0_0000_0000_0000, 0x3a29_69d4_7321_e4cc),
        (
            -TANH_CUTOFF.next_up(),
            0xbff0_0000_0000_0000,
            0x3a29_69d4_7321_e466,
        ),
        (-103.5, 0xbff0_0000_0000_0000, 0x3699_a733_e385_2834),
        (-709.0, 0xbff0_0000_0000_0000, 0x0008_bfe5_5de0_2338),
        (-745.0, 0xbff0_0000_0000_0000, 0x0000_0000_0000_0001),
        (
            -SIGMOID_CUTOFF,
            0xbff0_0000_0000_0000,
            0x0000_0000_0000_0000,
        ),
        (f64::MAX, 0x3ff0_0000_0000_0000, 0x3ff0_0000_0000_0000),
        (-f64::MAX, 0xbff0_0000_0000_0000, 0x0000_0000_0000_0000),
        (f64::INFINITY, 0x3ff0_0000_0000_0000, 0x3ff0_0000_0000_0000),
        (
            f64::NEG_INFINITY,
            0xbff0_0000_0000_0000,
            0x0000_0000_0000_0000,
        ),
        (f64::NAN, 0x7ff8_0000_0000_0000, 0xfff8_0000_0000_0000),
        (-f64::NAN, 0xfff8_0000_0000_0000, 0xfff8_0000_0000_0000),
    ];

    #[test]
    fn known_answers_are_pinned() {
        // Printed so a deliberate change to the law can regenerate the
        // table from `--nocapture`.
        for (x, _, _) in KNOWN_ANSWERS {
            println!(
                "({x:?}, {:#018x}, {:#018x}),",
                tanh(x).to_bits(),
                sigmoid(x).to_bits()
            );
        }
        for (x, tanh_bits, sigmoid_bits) in KNOWN_ANSWERS {
            for (act, want) in [
                (Activation::SigmoidSymmetric, tanh_bits),
                (Activation::Sigmoid, sigmoid_bits),
            ] {
                let want = f64::from_bits(want);
                let got = act.apply(x);
                assert!(
                    got.to_bits() == want.to_bits() || got.is_nan() && want.is_nan(),
                    "{act:?}({x:e}) = {got:e}, pinned {want:e}"
                );
                // Every lane of an eight-lane call, at both roundings.
                let mut f32s = [0.0f32; 8];
                act.apply_lanes(&[x; 8], &mut f32s);
                for y in f32s {
                    assert!(
                        y.to_bits() == (want as f32).to_bits() || y.is_nan() && want.is_nan(),
                        "{act:?}({x:e}) as f32"
                    );
                }
                let mut q16s = [Q16::ZERO; 8];
                act.apply_lanes(&[x; 8], &mut q16s);
                assert_eq!(q16s, [Q16::from_f64(want); 8], "{act:?}({x:e}) as Q16");
            }
        }
        assert!(KNOWN_ANSWERS.iter().any(|&(x, t, s)| x.is_nan()
            && f64::from_bits(t).is_nan()
            && f64::from_bits(s).is_nan()));
    }

    /// The stated bound against glibc: `tanh` within 3 · 2⁻⁵³ absolute
    /// and 6 · 2⁻⁵³ relative, the sigmoid (against `1/(1 + exp(−x))`)
    /// within 2 · 2⁻⁵³ and 5 · 2⁻⁵³. The full-density sweep measures
    /// 3.00/5.84 and 2.00/4.68; `--nocapture` prints this one's maxima.
    #[test]
    fn error_against_libm_is_bounded() {
        // The shape of the dense sweep in DESIGN.md (§17, "One activation
        // law") at a density a debug build runs in well under a second:
        // every step of 2⁻⁸ over [−20, 20], 2⁸ mantissas of every binade
        // from 2⁻⁶⁰ to 2⁶ at both signs, and 10⁵ uniform draws in
        // (−24, 24).
        let mut xs: Vec<f64> = (-20 << 8..=20 << 8).map(|i| f64::from(i) / 256.0).collect();
        for e in 1023 - 60..=1023 + 6u64 {
            for m in 0..256u64 {
                let x = f64::from_bits(e << 52 | m << 44 | 1);
                xs.extend([x, -x]);
            }
        }
        let mut s = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..100_000 {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            xs.push((s >> 11) as f64 / (1u64 << 53) as f64 * 48.0 - 24.0);
        }
        let ulp = f64::EPSILON / 2.0;
        for (act, libm, abs_bound, rel_bound) in [
            (
                Activation::SigmoidSymmetric,
                f64::tanh as fn(f64) -> f64,
                3.0 * ulp,
                6.0 * ulp,
            ),
            (
                Activation::Sigmoid,
                |x: f64| 1.0 / (1.0 + (-x).exp()),
                2.0 * ulp,
                5.0 * ulp,
            ),
        ] {
            let (mut abs, mut rel) = (0.0f64, 0.0f64);
            for &x in &xs {
                let (got, want) = (act.apply(x), libm(x));
                abs = abs.max((got - want).abs());
                if want != 0.0 {
                    rel = rel.max(((got - want) / want).abs());
                }
            }
            println!(
                "{act:?}: max |error| {:.2} · 2⁻⁵³, max relative {:.2} · 2⁻⁵³ over {} inputs",
                abs / ulp,
                rel / ulp,
                xs.len()
            );
            assert!(abs <= abs_bound && rel <= rel_bound, "{act:?}");
        }
    }

    #[test]
    fn lanes_are_apply_on_a_sweep() {
        // Every step of 2⁻⁸ over [−40, 40], and 16 mantissas of every
        // binade from the subnormals to 2¹⁰ (past both clamps), both signs.
        let mut xs: Vec<f64> = (-40 << 8..=40 << 8).map(|i| f64::from(i) / 256.0).collect();
        xs.extend(
            (0..1034u64)
                .flat_map(|e| (0..16u64).map(move |m| f64::from_bits(e << 52 | m << 48 | 1)))
                .flat_map(|x| [x, -x]),
        );
        assert_lanes_are_apply(&xs);
        assert_lanes_are_apply(&KNOWN_ANSWERS.map(|(x, _, _)| x));
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
