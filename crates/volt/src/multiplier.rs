//! Per-output-bit timing model of the 64-bit multiplier datapath.
//!
//! The multiplier is the only functional unit the paper observed faulting
//! under undervolting: its partial-product reduction tree and final carry
//! chain form the deepest combinational paths in the integer datapath.
//! Adders and bit-wise logic (modelled by [`AluTimingModel`]) are several
//! times shallower and never violate timing in the practical undervolting
//! window — reproducing the paper's "no faults were observed" for
//! add/sub/bit-wise operations.
//!
//! Two sub-models combine here:
//!
//! 1. **Voltage → fault rate** (physics). The critical path occupies a
//!    fraction `MultiplierTimingModel::utilization` of the clock period at
//!    nominal voltage; undervolting stretches it by the alpha-power-law
//!    factor of [`DelayModel`]; cycle-to-cycle supply/thermal noise jitters
//!    the arrival time by a Gaussian of relative width `jitter_sigma`. A
//!    timing violation occurs when the jittered arrival exceeds the clock
//!    period, so the per-multiplication fault probability is a Gaussian tail
//!    that sharpens from ~10⁻⁶ at the first-fault offset to ~1 near the
//!    freeze offset. Operands modulate the critical path: dense operands
//!    (more partial products) exercise longer carry chains, which is why the
//!    paper saw first faults anywhere between −103 mV and −145 mV
//!    "depending on inputs".
//!
//! 2. **Fault location** (empirical). Which output bit latches the wrong
//!    value is distributed per the paper's measured Figure 1: never the sign
//!    bit (a single XOR in the sign-magnitude view, far off the critical
//!    path), never the 8 LSBs (short carry chains), stochastically among the
//!    middle/high bits otherwise. [`BitErrorProfile::fig1`] encodes that
//!    distribution.

use crate::delay::DelayModel;
use crate::math::normal_cdf;
use crate::voltage::{Millivolts, Volts, NOMINAL_CORE_VOLTAGE};
use std::sync::OnceLock;

/// Width of the modelled multiplier output in bits.
pub const OUTPUT_BITS: usize = 64;

/// Index of the product sign bit (never faults).
pub const SIGN_BIT: usize = 63;

/// Number of low-order product bits that never fault.
pub const IMMUNE_LSBS: usize = 8;

/// Fault probability at which a fault becomes "observable" in a
/// characterisation run of ~10⁶ repetitions (used for first-fault offsets).
pub const OBSERVABLE_P: f64 = 1e-6;

/// Mean fault rate beyond which the modelled system freezes.
pub const FREEZE_ERROR_RATE: f64 = 0.5;

/// Relative weights of fault locations across the 64 product bits.
///
/// Weights are non-negative; the sign bit and the 8 LSBs are structurally
/// zero. Use [`BitErrorProfile::fig1`] for the distribution calibrated to
/// the paper's Figure 1 measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct BitErrorProfile {
    weights: Vec<f64>,
}

impl BitErrorProfile {
    /// The fault-location distribution measured in the paper's Figure 1
    /// (i7-5557U at 2.2 GHz, 49 °C, −130 mV): a broad bump over the middle
    /// and upper product bits peaking near bit 38, zero at the sign bit and
    /// the 8 LSBs.
    pub fn fig1() -> BitErrorProfile {
        BitErrorProfile::fig1_static().clone()
    }

    /// The Figure-1 profile as a process-wide singleton.
    ///
    /// Sweep loops construct thousands of [`crate::fault::FaultModel`]s; the
    /// profile (and its normalisation, [`BitErrorProfile::fig1_normalized`])
    /// never changes, so it is computed once and borrowed thereafter.
    pub fn fig1_static() -> &'static BitErrorProfile {
        static FIG1: OnceLock<BitErrorProfile> = OnceLock::new();
        FIG1.get_or_init(|| {
            let mut weights = vec![0.0; OUTPUT_BITS];
            let (centre, spread) = (38.0, 11.0);
            #[allow(clippy::needless_range_loop)]
            for i in (IMMUNE_LSBS + 1)..SIGN_BIT {
                let z = (i as f64 - centre) / spread;
                // Gaussian bump with a mild high-bit skew, matching the
                // measured asymmetry (upper bits retain non-negligible
                // rates).
                weights[i] = (-0.5 * z * z).exp() * (1.0 + 0.1 * (i as f64 - centre) / spread);
                if weights[i] < 0.0 {
                    weights[i] = 0.0;
                }
            }
            BitErrorProfile { weights }
        })
    }

    /// The normalised Figure-1 weights as a process-wide singleton (the
    /// borrow-only counterpart of `fig1().normalized()`).
    pub fn fig1_normalized() -> &'static [f64] {
        static FIG1_NORM: OnceLock<Vec<f64>> = OnceLock::new();
        FIG1_NORM.get_or_init(|| BitErrorProfile::fig1_static().normalized())
    }

    /// Builds a profile from explicit per-bit weights.
    ///
    /// # Errors
    ///
    /// Returns `Err` with a description if a weight is negative or
    /// non-finite, if the sign bit or an immune LSB has non-zero weight, or
    /// if all weights are zero.
    pub fn from_weights(weights: Vec<f64>) -> Result<BitErrorProfile, String> {
        if weights.len() != OUTPUT_BITS {
            return Err(format!(
                "expected {OUTPUT_BITS} weights, got {}",
                weights.len()
            ));
        }
        for (i, &w) in weights.iter().enumerate() {
            if !w.is_finite() || w < 0.0 {
                return Err(format!("weight for bit {i} is invalid: {w}"));
            }
            if (i == SIGN_BIT || i < IMMUNE_LSBS) && w != 0.0 {
                return Err(format!("bit {i} is fault-immune but has weight {w}"));
            }
        }
        if weights.iter().all(|&w| w == 0.0) {
            return Err("all weights are zero".to_string());
        }
        Ok(BitErrorProfile { weights })
    }

    /// The relative weight of faults landing on `bit`.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= 64`.
    #[inline]
    pub fn weight(&self, bit: usize) -> f64 {
        self.weights[bit]
    }

    /// Weights normalised to sum to 1.
    ///
    /// The all-zero case (unreachable through [`BitErrorProfile::from_weights`]
    /// but representable by a deserialized value) normalises to all zeros
    /// rather than dividing by zero and producing NaNs.
    pub fn normalized(&self) -> Vec<f64> {
        let total: f64 = self.weights.iter().sum();
        if total == 0.0 {
            return vec![0.0; self.weights.len()];
        }
        self.weights.iter().map(|w| w / total).collect()
    }

    /// The bit with the highest fault weight.
    pub fn peak_bit(&self) -> usize {
        self.weights
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .expect("profile is non-empty")
    }
}

impl Default for BitErrorProfile {
    fn default() -> BitErrorProfile {
        BitErrorProfile::fig1()
    }
}

/// Timing model of the 64-bit multiplier under undervolting.
#[derive(Clone, Debug, PartialEq)]
pub struct MultiplierTimingModel {
    delay: DelayModel,
    clock_ghz: f64,
    utilization: f64,
    jitter_sigma: f64,
    min_operand_factor: f64,
    profile: BitErrorProfile,
    /// `profile.normalized()`, cached: the per-operand characterisation
    /// builds one [`crate::fault::FaultModel`] per operand pair and must not
    /// renormalise the (immutable) profile every time.
    profile_normalized: Vec<f64>,
}

impl MultiplierTimingModel {
    /// A model calibrated to the paper's characterisation on the i7-5557U at
    /// 2.2 GHz: first faults at −103 mV for worst-case operands and at
    /// −145 mV for the least critical ones, with Figure-1 per-bit rates at
    /// −130 mV.
    pub fn broadwell_2_2ghz() -> MultiplierTimingModel {
        MultiplierTimingModel {
            delay: DelayModel::broadwell(),
            clock_ghz: 2.2,
            utilization: 0.90905,
            jitter_sigma: 0.0033,
            min_operand_factor: 0.96414,
            profile: BitErrorProfile::fig1(),
            profile_normalized: BitErrorProfile::fig1_normalized().to_vec(),
        }
    }

    /// Returns a copy using a different delay model (temperature or process
    /// variation — see [`crate::calibration`]).
    #[must_use]
    pub fn with_delay_model(mut self, delay: DelayModel) -> MultiplierTimingModel {
        self.delay = delay;
        self
    }

    /// The delay model in use.
    pub fn delay_model(&self) -> &DelayModel {
        &self.delay
    }

    /// The fault-location profile in use.
    pub fn profile(&self) -> &BitErrorProfile {
        &self.profile
    }

    /// The normalised fault-location weights (cached `profile.normalized()`).
    pub fn profile_normalized(&self) -> &[f64] {
        &self.profile_normalized
    }

    /// Clock frequency in GHz (the paper keeps it fixed at 2.2 GHz).
    pub fn clock_ghz(&self) -> f64 {
        self.clock_ghz
    }

    /// Criticality factor of an operand pair, in
    /// `[min_operand_factor, 1.0]`.
    ///
    /// Dense operands activate more partial products and longer carry
    /// chains; the factor scales the critical-path delay. All-ones operands
    /// are worst case (factor 1); sparse ones approach the minimum.
    pub fn operand_factor(&self, a: u64, b: u64) -> f64 {
        let activity = f64::from(a.count_ones() + b.count_ones()) / 128.0;
        self.min_operand_factor + (1.0 - self.min_operand_factor) * activity
    }

    /// Probability that a single multiplication with the given operand
    /// criticality faults at supply voltage `vdd`.
    pub fn violation_probability(&self, vdd: Volts, operand_factor: f64) -> f64 {
        let rel = self.delay.relative_delay(vdd);
        if rel.is_infinite() {
            return 1.0;
        }
        let arrival = self.utilization * operand_factor * rel;
        normal_cdf((arrival - 1.0) / self.jitter_sigma)
    }

    /// Mean fault probability over uniformly random operands at `vdd`.
    ///
    /// The operand activity of two independent uniform 64-bit operands is
    /// `Binomial(128, ½)/128`; the integral is evaluated with a 33-point
    /// normal-approximation quadrature.
    pub fn mean_error_rate(&self, vdd: Volts) -> f64 {
        const POINTS: usize = 33;
        let sigma_activity = (128.0f64 * 0.25).sqrt() / 128.0;
        let mut total = 0.0;
        let mut weight_sum = 0.0;
        for k in 0..POINTS {
            let z = -4.0 + 8.0 * (k as f64) / (POINTS as f64 - 1.0);
            let w = (-0.5 * z * z).exp();
            let activity = (0.5 + z * sigma_activity).clamp(0.0, 1.0);
            let factor = self.min_operand_factor + (1.0 - self.min_operand_factor) * activity;
            total += w * self.violation_probability(vdd, factor);
            weight_sum += w;
        }
        total / weight_sum
    }

    /// The undervolt offset at which faults first become observable
    /// (probability ≥ [`OBSERVABLE_P`]) for operands with the given
    /// criticality factor.
    ///
    /// The result is identical to the paper's 1 mV characterisation sweep;
    /// because the violation probability grows monotonically with undervolt
    /// depth, the crossing is bracketed with a coarse stride first and only
    /// the bracket is rescanned at 1 mV (~40 evaluations instead of 401).
    pub fn first_fault_offset(&self, operand_factor: f64) -> Millivolts {
        let v = |mv: i32| NOMINAL_CORE_VOLTAGE.with_offset(Millivolts::new(-mv));
        scan_first_crossing(|mv| self.violation_probability(v(mv), operand_factor) >= OBSERVABLE_P)
    }

    /// The undervolt offset at which the mean fault rate crosses
    /// [`FREEZE_ERROR_RATE`] and the modelled system freezes.
    ///
    /// Uses the same coarse-then-fine bracketing as
    /// [`MultiplierTimingModel::first_fault_offset`], which matters here:
    /// every probe runs the 33-point quadrature of
    /// [`MultiplierTimingModel::mean_error_rate`].
    pub fn freeze_offset(&self) -> Millivolts {
        let v = |mv: i32| NOMINAL_CORE_VOLTAGE.with_offset(Millivolts::new(-mv));
        scan_first_crossing(|mv| self.mean_error_rate(v(mv)) >= FREEZE_ERROR_RATE)
    }
}

impl Default for MultiplierTimingModel {
    fn default() -> MultiplierTimingModel {
        MultiplierTimingModel::broadwell_2_2ghz()
    }
}

/// Deepest undervolt offset (in mV below nominal) the characterisation
/// sweeps probe before giving up.
const SCAN_LIMIT_MV: i32 = 400;

/// Coarse bracketing stride for the characterisation sweeps, in mV.
const SCAN_STRIDE_MV: i32 = 16;

/// First offset in `0..=SCAN_LIMIT_MV` (as a negative [`Millivolts`] offset)
/// where the monotone predicate `crossed(mv)` holds, or −400 mV if it never
/// does — bit-identical to a plain 1 mV scan, but the crossing is bracketed
/// with a [`SCAN_STRIDE_MV`] stride first so only the final bracket pays the
/// per-probe cost at 1 mV resolution.
fn scan_first_crossing(crossed: impl Fn(i32) -> bool) -> Millivolts {
    let mut below = 0; // deepest probe known NOT to have crossed
    let mut mv = 0;
    loop {
        if crossed(mv) {
            break;
        }
        if mv >= SCAN_LIMIT_MV {
            return Millivolts::new(-SCAN_LIMIT_MV);
        }
        below = mv;
        mv = (mv + SCAN_STRIDE_MV).min(SCAN_LIMIT_MV);
    }
    for fine in below + 1..mv {
        if crossed(fine) {
            return Millivolts::new(-fine);
        }
    }
    Millivolts::new(-mv)
}

/// Timing model of the adder / logic datapath.
///
/// A 64-bit carry-lookahead adder is roughly 2–3× shallower than the
/// multiplier's reduction tree, so within the undervolting window in which
/// the system still runs it never violates timing — the paper "tried
/// undervolting addition, subtraction, and bit-wise operations, but no
/// faults were observed".
#[derive(Clone, Debug, PartialEq)]
pub struct AluTimingModel {
    multiplier: MultiplierTimingModel,
    depth_ratio: f64,
}

impl AluTimingModel {
    /// ALU model matched to [`MultiplierTimingModel::broadwell_2_2ghz`].
    pub fn broadwell_2_2ghz() -> AluTimingModel {
        AluTimingModel {
            multiplier: MultiplierTimingModel::broadwell_2_2ghz(),
            depth_ratio: 0.45,
        }
    }

    /// Fault probability of an add/sub/bit-wise operation at `vdd`.
    pub fn violation_probability(&self, vdd: Volts) -> f64 {
        let rel = self.multiplier.delay_model().relative_delay(vdd);
        if rel.is_infinite() {
            return 1.0;
        }
        let arrival = self.multiplier.utilization * self.depth_ratio * rel;
        normal_cdf((arrival - 1.0) / self.multiplier.jitter_sigma)
    }
}

impl Default for AluTimingModel {
    fn default() -> AluTimingModel {
        AluTimingModel::broadwell_2_2ghz()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn volts_at(mv: i32) -> Volts {
        NOMINAL_CORE_VOLTAGE.with_offset(Millivolts::new(mv))
    }

    #[test]
    fn fig1_profile_respects_immunities() {
        let p = BitErrorProfile::fig1();
        assert_eq!(p.weight(SIGN_BIT), 0.0, "sign bit never flips");
        for i in 0..IMMUNE_LSBS {
            assert_eq!(p.weight(i), 0.0, "LSB {i} never flips");
        }
        assert!(p.weight(p.peak_bit()) > 0.0);
    }

    #[test]
    fn fig1_profile_peaks_in_the_middle_bits() {
        let peak = BitErrorProfile::fig1().peak_bit();
        assert!((30..50).contains(&peak), "peak at bit {peak}");
    }

    #[test]
    fn profile_normalization_sums_to_one() {
        let total: f64 = BitErrorProfile::fig1().normalized().iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn profile_rejects_sign_bit_weight() {
        let mut w = vec![0.0; OUTPUT_BITS];
        w[SIGN_BIT] = 1.0;
        assert!(BitErrorProfile::from_weights(w).is_err());
    }

    #[test]
    fn profile_rejects_lsb_weight() {
        let mut w = vec![0.0; OUTPUT_BITS];
        w[3] = 1.0;
        assert!(BitErrorProfile::from_weights(w).is_err());
    }

    #[test]
    fn profile_rejects_all_zero() {
        assert!(BitErrorProfile::from_weights(vec![0.0; OUTPUT_BITS]).is_err());
    }

    #[test]
    fn profile_rejects_wrong_length() {
        assert!(BitErrorProfile::from_weights(vec![1.0; 10]).is_err());
    }

    #[test]
    fn all_zero_profile_normalizes_without_nans() {
        // Unreachable through from_weights, but representable by a
        // deserialized value; normalisation must not divide by zero.
        let p = BitErrorProfile {
            weights: vec![0.0; OUTPUT_BITS],
        };
        let q = p.normalized();
        assert_eq!(q.len(), OUTPUT_BITS);
        assert!(q.iter().all(|&w| w == 0.0), "expected all zeros: {q:?}");
    }

    #[test]
    fn fig1_singleton_matches_fresh_construction() {
        assert_eq!(&BitErrorProfile::fig1(), BitErrorProfile::fig1_static());
        let fresh = BitErrorProfile::fig1().normalized();
        assert_eq!(BitErrorProfile::fig1_normalized(), fresh.as_slice());
    }

    #[test]
    fn bracketed_scans_match_exhaustive_1mv_scan() {
        // Regression for the coarse-then-fine rewrite: offsets must be
        // bit-identical to the original exhaustive 1 mV sweep.
        let m = MultiplierTimingModel::broadwell_2_2ghz();
        let exhaustive = |crossed: &dyn Fn(i32) -> bool| -> i32 {
            (0..=400).find(|&mv| crossed(mv)).unwrap_or(400)
        };
        for factor in [m.min_operand_factor, 0.97, 0.98, 0.99, 1.0] {
            let expect =
                exhaustive(&|mv| m.violation_probability(volts_at(-mv), factor) >= OBSERVABLE_P);
            assert_eq!(
                m.first_fault_offset(factor).get(),
                -expect,
                "first-fault offset diverged at factor {factor}"
            );
        }
        let expect = exhaustive(&|mv| m.mean_error_rate(volts_at(-mv)) >= FREEZE_ERROR_RATE);
        assert_eq!(m.freeze_offset().get(), -expect, "freeze offset diverged");
    }

    #[test]
    fn first_faults_match_paper_window() {
        // Paper §II: "undervolting by −103 mV to −145 mV, depending on
        // inputs, was sufficient to generate faults".
        let m = MultiplierTimingModel::broadwell_2_2ghz();
        let worst = m.first_fault_offset(1.0).get();
        let easiest = m.first_fault_offset(m.min_operand_factor).get();
        assert!(
            (-110..=-96).contains(&worst),
            "worst-case first fault at {worst} mV (paper: −103 mV)"
        );
        assert!(
            (-152..=-138).contains(&easiest),
            "least-critical first fault at {easiest} mV (paper: −145 mV)"
        );
    }

    #[test]
    fn no_faults_at_mild_undervolt() {
        let m = MultiplierTimingModel::broadwell_2_2ghz();
        assert!(m.violation_probability(volts_at(-50), 1.0) < 1e-12);
    }

    #[test]
    fn fault_rate_grows_with_undervolt() {
        let m = MultiplierTimingModel::broadwell_2_2ghz();
        let p120 = m.mean_error_rate(volts_at(-120));
        let p135 = m.mean_error_rate(volts_at(-135));
        assert!(p135 > p120, "{p135} vs {p120}");
    }

    #[test]
    fn fig1_operating_point_has_small_error_rate() {
        let m = MultiplierTimingModel::broadwell_2_2ghz();
        let er = m.mean_error_rate(volts_at(-130));
        assert!(
            er > 1e-5 && er < 0.05,
            "error rate at −130 mV should be small but non-zero, got {er}"
        );
    }

    #[test]
    fn freeze_offset_is_below_first_fault_window() {
        let m = MultiplierTimingModel::broadwell_2_2ghz();
        let freeze = m.freeze_offset().get();
        assert!(freeze < -130, "freeze at {freeze} mV");
        assert!(freeze > -170, "freeze at {freeze} mV");
    }

    #[test]
    fn operand_factor_bounds() {
        let m = MultiplierTimingModel::broadwell_2_2ghz();
        assert!((m.operand_factor(u64::MAX, u64::MAX) - 1.0).abs() < 1e-12);
        assert!((m.operand_factor(0, 0) - m.min_operand_factor).abs() < 1e-12);
    }

    #[test]
    fn alu_never_faults_in_the_live_window() {
        // Paper §II: add/sub/bit-wise ops never faulted before the system
        // froze.
        let alu = AluTimingModel::broadwell_2_2ghz();
        let freeze = MultiplierTimingModel::broadwell_2_2ghz().freeze_offset();
        for mv in 0..=(-freeze.get()) {
            let p = alu.violation_probability(volts_at(-mv));
            assert!(p < OBSERVABLE_P, "ALU faulted at −{mv} mV (p = {p})");
        }
    }

    proptest! {
        #[test]
        fn operand_factor_is_monotone_in_density(a in any::<u64>(), b in any::<u64>()) {
            let m = MultiplierTimingModel::broadwell_2_2ghz();
            let f = m.operand_factor(a, b);
            prop_assert!(f >= m.min_operand_factor && f <= 1.0);
            // Setting one more bit cannot reduce criticality.
            let denser = a | (1 << 17);
            prop_assert!(m.operand_factor(denser, b) >= f);
        }

        #[test]
        fn violation_probability_is_a_probability(mv in -300i32..0, factor in 0.9f64..1.0) {
            let m = MultiplierTimingModel::broadwell_2_2ghz();
            let p = m.violation_probability(volts_at(mv), factor);
            prop_assert!((0.0..=1.0).contains(&p));
        }
    }
}
