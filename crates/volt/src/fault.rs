//! The stochastic fault model and injector.
//!
//! This is the Rust counterpart of the paper's "stochastic fault injection
//! tool that emulates timing violations at the output of arithmetic
//! operations, based on the error distribution model detailed in §II".
//!
//! A [`FaultModel`] holds per-bit flip probabilities for the 64-bit product,
//! constructed either from the abstract error-rate knob `er` (the quantity
//! swept by the paper's space exploration, Figs. 2 & 8) or from a physical
//! supply voltage through [`MultiplierTimingModel`]. A [`FaultStream`]
//! samples from the model with a seeded RNG and keeps [`FaultStats`] that
//! regenerate Figure 1.

use crate::multiplier::{BitErrorProfile, MultiplierTimingModel, OUTPUT_BITS};
use crate::voltage::Volts;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::fmt;

/// Default fraction of faults that land in the carry-ripple zone *above*
/// the product's most-significant bit.
///
/// The multiplier's final carry-propagate adder spans the full 64 bits; when
/// the intermediate sum contains a long run of ones, its carry chain ripples
/// far past the product MSB, so a timing violation occasionally corrupts a
/// bit of much higher significance than the product itself. These rare
/// catastrophic faults are what visibly moves the detector's decision
/// boundary; the frequent in-width faults only dither it.
pub const DEFAULT_RIPPLE_FRACTION: f64 = 0.03;

/// Default number of bits above the product MSB a carry-ripple fault can
/// reach.
pub const DEFAULT_RIPPLE_SPAN: u32 = 14;

/// Error rate used internally when `1.0` is requested.
///
/// A literal rate of 1 would make every weighted bit flip *deterministically*
/// (probability 1), destroying the stochasticity the defense relies on; the
/// physical system never reaches that regime either (it freezes first).
const MAX_EFFECTIVE_RATE: f64 = 0.9999;

/// Error building a [`FaultModel`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultModelError {
    /// The requested error rate is outside `[0, 1]` or not finite.
    InvalidErrorRate(f64),
    /// A state snapshot failed validation (see [`FaultModel::from_state`]).
    InvalidState(&'static str),
}

impl fmt::Display for FaultModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultModelError::InvalidErrorRate(er) => {
                write!(f, "error rate {er} is outside the valid range [0, 1]")
            }
            FaultModelError::InvalidState(what) => {
                write!(f, "invalid fault state snapshot: {what}")
            }
        }
    }
}

impl std::error::Error for FaultModelError {}

/// Per-bit flip probabilities for a 64-bit multiplier product.
///
/// The model guarantees `P(at least one bit flips) == error_rate` exactly:
/// each weighted bit flips independently with probability
/// `pᵢ = 1 − (1 − er)^{qᵢ}` where `qᵢ` are the normalised location weights,
/// so `∏(1 − pᵢ) = (1 − er)^{Σqᵢ} = 1 − er`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultModel {
    error_rate: f64,
    /// `(bit index, flip probability)` for bits with non-zero weight.
    flips: Vec<(u8, f64)>,
    /// CDF over which weighted bit is the *first* to flip, conditioned on at
    /// least one flip (enables O(1) fast-path sampling).
    first_flip_cdf: Vec<f64>,
    /// Fraction of flips diverted to the carry-ripple zone.
    ripple_fraction: f64,
    /// Reach of the carry-ripple zone above the product MSB, in bits.
    ripple_span: u32,
    /// Products whose active width is at most this many bits never fault.
    near_zero_width: u32,
    /// Precomputed geometric CDF of the gap to the next fault event:
    /// `gap_cdf[k] = P(gap ≤ k) = 1 − (1 − er)^{k+1}`, truncated once it
    /// covers ~99.9% of the mass (see [`FaultStream::corrupt_product`]).
    gap_cdf: Vec<f64>,
    /// Suffix no-flip probabilities over `flips`:
    /// `tail_none[j] = ∏_{i ≥ j} (1 − pᵢ)`, with `tail_none[len] = 1`.
    /// Drives the draw-per-flip tail sampler in [`apply_fault_event`].
    tail_none: Vec<f64>,
    /// Guide table over `gap_cdf` (see [`build_guide`]).
    gap_guide: Vec<u16>,
    /// Guide table over `first_flip_cdf` (see [`build_guide`]).
    first_flip_guide: Vec<u16>,
    /// Precomputed deterministic flip *positions*, indexed by
    /// `top * OUTPUT_BITS + profile_bit`: the activity-scaled placement
    /// `clamp(bit * top / 62, IMMUNE_LSBS + 1, top)` for every reachable
    /// active width `top`, so a fault event shifts a looked-up byte
    /// instead of re-deriving the multiply/divide/clamp per flipped bit
    /// (see [`apply_fault_event`]). Stored as bit positions rather than
    /// 64-bit masks so the whole table is ~4 KiB and stays L1-resident on
    /// the event path. Rows below the immunity floor are unreachable and
    /// stay zero.
    place_pos: Vec<u8>,
}

/// Bucket count for the inverse-CDF guide tables.
const GUIDE_BUCKETS: usize = 256;

/// Entry cap for the Figure-1 model cache: a sweep touches a few dozen
/// operating points at most, and an adversarial caller cycling through
/// arbitrary rates must not grow process memory without bound.
const FIG1_MODEL_CACHE_CAP: usize = 256;

/// Process-wide cache of models built from the Figure-1 profile, keyed by
/// the requested error rate's bit pattern (see
/// [`FaultModel::from_error_rate`]).
fn fig1_model_cache() -> &'static std::sync::Mutex<std::collections::HashMap<u64, FaultModel>> {
    static CACHE: std::sync::OnceLock<
        std::sync::Mutex<std::collections::HashMap<u64, FaultModel>>,
    > = std::sync::OnceLock::new();
    CACHE.get_or_init(|| std::sync::Mutex::new(std::collections::HashMap::new()))
}

/// Builds a guide table accelerating inverse-CDF sampling: `guide[b]` is a
/// lower bound on the inversion result for any uniform draw in
/// `[b/256, (b+1)/256)`, so a lookup is one table load plus a short
/// forward scan instead of a binary search. The search itself is cheap in
/// isolation, but inside a fault event its data-dependent branches form a
/// serial latency chain that dominates the event cost; the guided scan
/// returns the *same index for the same draw* in a fraction of the
/// latency. `strict` selects the comparison the scan will use
/// (`cdf[k] < u` vs `cdf[k] <= u`) so the bound matches exactly.
fn build_guide(cdf: &[f64], strict: bool) -> Vec<u16> {
    (0..=GUIDE_BUCKETS)
        .map(|b| {
            let u = b as f64 / GUIDE_BUCKETS as f64;
            let k = if strict {
                cdf.partition_point(|&c| c < u)
            } else {
                cdf.partition_point(|&c| c <= u)
            };
            k.min(usize::from(u16::MAX)) as u16
        })
        .collect()
}

impl FaultModel {
    /// A fault-free model (nominal voltage).
    pub fn exact() -> FaultModel {
        FaultModel {
            error_rate: 0.0,
            flips: Vec::new(),
            first_flip_cdf: Vec::new(),
            ripple_fraction: DEFAULT_RIPPLE_FRACTION,
            ripple_span: DEFAULT_RIPPLE_SPAN,
            near_zero_width: crate::multiplier::IMMUNE_LSBS as u32,
            gap_cdf: Vec::new(),
            tail_none: Vec::new(),
            gap_guide: Vec::new(),
            first_flip_guide: Vec::new(),
            place_pos: Vec::new(),
        }
    }

    /// Builds a model with the given probability that a multiplication
    /// result is faulty, using the Figure-1 fault-location distribution.
    ///
    /// This is the knob the paper's space exploration sweeps (`er` in
    /// Figs. 2 and 8); `er = 0.1` is the paper's selected operating point.
    ///
    /// # Errors
    ///
    /// Returns [`FaultModelError::InvalidErrorRate`] if `er` is not in
    /// `[0, 1]`.
    pub fn from_error_rate(er: f64) -> Result<FaultModel, FaultModelError> {
        if !er.is_finite() || !(0.0..=1.0).contains(&er) {
            return Err(FaultModelError::InvalidErrorRate(er));
        }
        // The Figure-1 profile is a process-wide singleton, and the derived
        // tables are a pure function of `er` under it — so a model for an
        // already-seen operating point is a clone, not a rebuild. Retune
        // and recalibrate hammer a handful of rates (the watchdog retargets
        // shards mid-stream), and without the cache every retarget rebuilt
        // four CDF/guide tables plus the flip-mask table from scratch.
        let key = er.to_bits();
        if let Ok(cache) = fig1_model_cache().lock() {
            if let Some(model) = cache.get(&key) {
                return Ok(model.clone());
            }
        }
        let model = FaultModel::from_normalized_weights(er, BitErrorProfile::fig1_normalized())?;
        if let Ok(mut cache) = fig1_model_cache().lock() {
            if cache.len() < FIG1_MODEL_CACHE_CAP {
                cache.insert(key, model.clone());
            }
        }
        Ok(model)
    }

    /// Like [`FaultModel::from_error_rate`] but with a custom fault-location
    /// profile (e.g. one measured on a different device).
    ///
    /// # Errors
    ///
    /// Returns [`FaultModelError::InvalidErrorRate`] if `er` is not in
    /// `[0, 1]`.
    pub fn from_error_rate_with_profile(
        er: f64,
        profile: &BitErrorProfile,
    ) -> Result<FaultModel, FaultModelError> {
        FaultModel::from_normalized_weights(er, &profile.normalized())
    }

    /// Like [`FaultModel::from_error_rate_with_profile`] but borrowing
    /// already-normalised location weights, so callers constructing many
    /// models from one profile (voltage sweeps, per-operand characterisation)
    /// normalise once up front.
    ///
    /// # Errors
    ///
    /// Returns [`FaultModelError::InvalidErrorRate`] if `er` is not in
    /// `[0, 1]`.
    pub fn from_normalized_weights(er: f64, q: &[f64]) -> Result<FaultModel, FaultModelError> {
        if !er.is_finite() || !(0.0..=1.0).contains(&er) {
            return Err(FaultModelError::InvalidErrorRate(er));
        }
        if er == 0.0 {
            return Ok(FaultModel::exact());
        }
        let er_eff = er.min(MAX_EFFECTIVE_RATE);
        let mut flips = Vec::new();
        for (bit, &qi) in q.iter().enumerate() {
            if qi > 0.0 {
                let p = 1.0 - (1.0 - er_eff).powf(qi);
                flips.push((bit as u8, p));
            }
        }
        Ok(FaultModel::assemble(
            er_eff,
            flips,
            DEFAULT_RIPPLE_FRACTION,
            DEFAULT_RIPPLE_SPAN,
            crate::multiplier::IMMUNE_LSBS as u32,
        ))
    }

    /// Builds the derived sampling tables from the free parameters. Every
    /// table is a pure `f64` function of `(er_eff, flips)`, so rebuilding
    /// from a [`FaultModelState`] snapshot reproduces the original model
    /// bit for bit — the snapshot never has to carry the tables.
    fn assemble(
        er_eff: f64,
        flips: Vec<(u8, f64)>,
        ripple_fraction: f64,
        ripple_span: u32,
        near_zero_width: u32,
    ) -> FaultModel {
        // P(first flip is flips[k] | >=1 flip) = p_k * prod_{j<k}(1-p_j) / er
        let mut cdf = Vec::with_capacity(flips.len());
        let mut none_so_far = 1.0;
        let mut cum = 0.0;
        for &(_, p) in &flips {
            cum += p * none_so_far / er_eff;
            none_so_far *= 1.0 - p;
            cdf.push(cum);
        }
        // Guard against rounding: force the last entry to 1.
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        // Geometric gap CDF, truncated at 99.9% coverage (the remaining
        // mass is sampled by the exact memoryless fallback). Bounded so a
        // minuscule error rate cannot allocate an unbounded table.
        let mut gap_cdf = Vec::new();
        let mut f = er_eff;
        while gap_cdf.len() < 1024 {
            gap_cdf.push(f);
            if f >= 0.999 {
                break;
            }
            f = 1.0 - (1.0 - f) * (1.0 - er_eff);
        }
        // Suffix products of the per-bit no-flip probabilities.
        let mut tail_none = vec![1.0; flips.len() + 1];
        for i in (0..flips.len()).rev() {
            tail_none[i] = tail_none[i + 1] * (1.0 - flips[i].1);
        }
        let gap_guide = build_guide(&gap_cdf, false);
        let first_flip_guide = build_guide(&cdf, true);
        // Deterministic flip positions for every (active width, profile
        // bit) pair. `top` ranges over the widths a faultable product can
        // present (`near_zero_width` absorbs anything narrower, and
        // `apply_fault_event` caps at OUTPUT_BITS - 2); rows outside that
        // band are unreachable and stay zero.
        let floor = crate::multiplier::IMMUNE_LSBS as u32 + 1;
        let mut place_pos = vec![0u8; (OUTPUT_BITS - 1) * OUTPUT_BITS];
        for top in floor..OUTPUT_BITS as u32 - 1 {
            for bit in 0..OUTPUT_BITS as u32 {
                let pos = (bit * top) / (OUTPUT_BITS as u32 - 2);
                place_pos[(top as usize) * OUTPUT_BITS + bit as usize] =
                    pos.clamp(floor, top) as u8;
            }
        }
        FaultModel {
            error_rate: er_eff,
            flips,
            first_flip_cdf: cdf,
            ripple_fraction,
            ripple_span,
            near_zero_width,
            gap_cdf,
            tail_none,
            gap_guide,
            first_flip_guide,
            place_pos,
        }
    }

    /// Snapshots the model's free parameters for checkpointing. The
    /// derived sampling tables are omitted; [`FaultModel::from_state`]
    /// rebuilds them bit-identically.
    pub fn export_state(&self) -> FaultModelState {
        FaultModelState {
            error_rate: self.error_rate,
            flips: self.flips.clone(),
            ripple_fraction: self.ripple_fraction,
            ripple_span: self.ripple_span,
            near_zero_width: self.near_zero_width,
        }
    }

    /// Rebuilds a model from an [`FaultModel::export_state`] snapshot,
    /// recomputing every derived table. Round-tripping is exact:
    /// `FaultModel::from_state(m.export_state()) == m` for any model a
    /// constructor can produce.
    ///
    /// # Errors
    ///
    /// Returns [`FaultModelError::InvalidState`] when the snapshot came
    /// from untrusted bytes and fails validation (non-probability rates,
    /// out-of-range bit indices), so a corrupted checkpoint is rejected
    /// instead of panicking or sampling garbage.
    pub fn from_state(state: FaultModelState) -> Result<FaultModel, FaultModelError> {
        if !state.error_rate.is_finite() || !(0.0..=1.0).contains(&state.error_rate) {
            return Err(FaultModelError::InvalidState("error rate"));
        }
        if !state.ripple_fraction.is_finite() || !(0.0..=1.0).contains(&state.ripple_fraction) {
            return Err(FaultModelError::InvalidState("ripple fraction"));
        }
        for &(bit, p) in &state.flips {
            if usize::from(bit) >= OUTPUT_BITS || !p.is_finite() || !(0.0..=1.0).contains(&p) {
                return Err(FaultModelError::InvalidState("flip table"));
            }
        }
        if state.error_rate == 0.0 || state.flips.is_empty() {
            // An exact model stores no flip table; preserve the overrides.
            return Ok(FaultModel::exact()
                .with_ripple(state.ripple_fraction, state.ripple_span)
                .with_near_zero_width(state.near_zero_width));
        }
        Ok(FaultModel::assemble(
            state.error_rate,
            state.flips,
            state.ripple_fraction,
            state.ripple_span,
            state.near_zero_width,
        ))
    }

    /// Overrides the carry-ripple parameters (the catastrophic-fault tail).
    ///
    /// Exposed for ablation studies; the defaults are calibrated to the
    /// paper's behaviour.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not in `[0, 1]`.
    #[must_use]
    pub fn with_ripple(mut self, fraction: f64, span: u32) -> FaultModel {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "ripple fraction must be a probability"
        );
        self.ripple_fraction = fraction;
        self.ripple_span = span;
        self
    }

    /// The fraction of flips diverted to the carry-ripple zone.
    pub fn ripple_fraction(&self) -> f64 {
        self.ripple_fraction
    }

    /// Overrides the near-zero immunity width: products whose active width
    /// is at most `bits` never fault.
    ///
    /// The default, [`crate::multiplier::IMMUNE_LSBS`], models the raw
    /// 64-bit integer multiplier view used by the §II characterisation. A
    /// fixed-point datapath should raise it so that immunity is judged on
    /// the bits of the *latched* result: for Q16.16 (whose raw Q32.32
    /// products sit 16 fractional bits below the latch), the paper's 8
    /// immune result LSBs correspond to a raw active width of `8 + 16`.
    /// This is how the paper's stated limitation — "models that operate on
    /// numbers that are very close to zero are not protected" — manifests
    /// end-to-end: products below ~2⁻⁸ of unit scale exercise only carry
    /// chains far too short to violate timing.
    #[must_use]
    pub fn with_near_zero_width(mut self, bits: u32) -> FaultModel {
        self.near_zero_width = bits;
        self
    }

    /// The active width (in raw product bits) at or below which a product
    /// is considered near-zero and never faults.
    pub fn near_zero_width(&self) -> u32 {
        self.near_zero_width
    }

    /// Builds a model for a physical supply voltage using the timing model's
    /// mean error rate over random operands.
    ///
    /// # Errors
    ///
    /// Propagates [`FaultModelError::InvalidErrorRate`] (cannot occur for a
    /// well-formed timing model, whose rates are probabilities).
    pub fn at_voltage(
        timing: &MultiplierTimingModel,
        vdd: Volts,
    ) -> Result<FaultModel, FaultModelError> {
        FaultModel::from_normalized_weights(
            timing.mean_error_rate(vdd),
            timing.profile_normalized(),
        )
    }

    /// Builds a model for a specific operand pair at a physical voltage
    /// (used by the §II characterisation experiments, which repeatedly
    /// multiply the *same* operands).
    ///
    /// # Errors
    ///
    /// Propagates [`FaultModelError::InvalidErrorRate`] (cannot occur for a
    /// well-formed timing model).
    pub fn at_voltage_for_operands(
        timing: &MultiplierTimingModel,
        vdd: Volts,
        a: u64,
        b: u64,
    ) -> Result<FaultModel, FaultModelError> {
        let factor = timing.operand_factor(a, b);
        let er = timing.violation_probability(vdd, factor);
        FaultModel::from_normalized_weights(er, timing.profile_normalized())
    }

    /// The probability that a multiplication result is faulty.
    #[inline]
    pub fn error_rate(&self) -> f64 {
        self.error_rate
    }

    /// The flip probability of each of the 64 product bits.
    pub fn per_bit_probabilities(&self) -> [f64; OUTPUT_BITS] {
        let mut out = [0.0; OUTPUT_BITS];
        for &(bit, p) in &self.flips {
            out[bit as usize] = p;
        }
        out
    }

    /// `true` if the model never injects faults.
    #[inline]
    pub fn is_exact(&self) -> bool {
        self.error_rate == 0.0
    }
}

impl Default for FaultModel {
    fn default() -> FaultModel {
        FaultModel::exact()
    }
}

/// The free parameters of a [`FaultModel`] — everything that is not a
/// derived table. Produced by [`FaultModel::export_state`], consumed by
/// [`FaultModel::from_state`]; the checkpoint codec serialises this
/// instead of the (much larger, fully recomputable) model.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultModelState {
    /// Effective error rate (already clamped to the model's maximum).
    pub error_rate: f64,
    /// `(bit index, flip probability)` for bits with non-zero weight.
    pub flips: Vec<(u8, f64)>,
    /// Fraction of flips diverted to the carry-ripple zone.
    pub ripple_fraction: f64,
    /// Reach of the carry-ripple zone above the product MSB, in bits.
    pub ripple_span: u32,
    /// Products at or below this active width never fault.
    pub near_zero_width: u32,
}

/// Statistics accumulated by a [`FaultStream`], sufficient to regenerate
/// the paper's Figure 1.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultStats {
    /// Total multiplications processed.
    pub multiplies: u64,
    /// Multiplications whose result was corrupted.
    pub faulty: u64,
    /// Per-bit flip counts.
    pub bit_flips: Vec<u64>,
}

/// Sink for the per-event statistics updates [`apply_fault_event`]
/// makes, so one body of the event law can feed either the scalar
/// [`FaultStats`] (heap histogram, checkpoint-serializable) or the
/// batched per-lane tallies (inline histogram, allocation-free).
trait FaultSink {
    /// Records one corrupting event with the given flip mask.
    fn record_fault(&mut self, mask: u64);
}

impl FaultSink for FaultStats {
    #[inline]
    fn record_fault(&mut self, mask: u64) {
        self.faulty += 1;
        let mut remaining = mask;
        while remaining != 0 {
            self.bit_flips[remaining.trailing_zeros() as usize] += 1;
            remaining &= remaining - 1;
        }
    }
}

/// Allocation-free per-lane statistics for [`BatchFaultStream`]: the same
/// counts as [`FaultStats`] with the per-bit histogram stored inline, so
/// arming a batch of lanes touches no heap and the per-flip histogram
/// update indexes a fixed-size array.
#[derive(Clone, Debug)]
struct LaneStats {
    multiplies: u64,
    faulty: u64,
    bit_flips: [u64; OUTPUT_BITS],
}

impl LaneStats {
    const ZERO: LaneStats = LaneStats {
        multiplies: 0,
        faulty: 0,
        bit_flips: [0; OUTPUT_BITS],
    };
}

impl FaultSink for LaneStats {
    #[inline]
    fn record_fault(&mut self, mask: u64) {
        self.faulty += 1;
        let mut remaining = mask;
        while remaining != 0 {
            self.bit_flips[remaining.trailing_zeros() as usize] += 1;
            remaining &= remaining - 1;
        }
    }
}

/// The additive summary of a fault stream's statistics — exactly what the
/// serving layer's telemetry fold consumes — producible from a batched
/// lane without materializing a heap-backed [`FaultStats`] per lane per
/// block.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultTally {
    /// Total multiplications processed.
    pub multiplies: u64,
    /// Multiplications whose result was corrupted.
    pub faulty: u64,
    /// Total product bits flipped.
    pub bit_flips: u64,
}

impl FaultStats {
    fn new() -> FaultStats {
        FaultStats {
            multiplies: 0,
            faulty: 0,
            bit_flips: vec![0; OUTPUT_BITS],
        }
    }

    /// Observed fraction of faulty multiplications.
    pub fn observed_error_rate(&self) -> f64 {
        if self.multiplies == 0 {
            0.0
        } else {
            self.faulty as f64 / self.multiplies as f64
        }
    }

    /// Per-bit error rates (flips per multiplication), the quantity plotted
    /// in Figure 1.
    pub fn bitwise_error_rates(&self) -> Vec<f64> {
        let n = self.multiplies.max(1) as f64;
        self.bit_flips.iter().map(|&c| c as f64 / n).collect()
    }

    /// Total product bits flipped across all faulty multiplications.
    pub fn total_flips(&self) -> u64 {
        self.bit_flips.iter().sum()
    }

    /// Mean flipped bits per faulty multiplication; 0 when nothing
    /// faulted.
    pub fn flips_per_fault(&self) -> f64 {
        if self.faulty == 0 {
            0.0
        } else {
            self.total_flips() as f64 / self.faulty as f64
        }
    }

    /// `true` when no multiplication has been processed.
    pub fn is_empty(&self) -> bool {
        self.multiplies == 0
    }

    /// Merges counts from another statistics record.
    pub fn merge(&mut self, other: &FaultStats) {
        self.multiplies += other.multiplies;
        self.faulty += other.faulty;
        if self.bit_flips.len() < other.bit_flips.len() {
            self.bit_flips.resize(other.bit_flips.len(), 0);
        }
        for (a, b) in self.bit_flips.iter_mut().zip(&other.bit_flips) {
            *a += b;
        }
    }
}

/// Anything that can transform a raw 64-bit product — the integration point
/// between the fault model and the fixed-point inference datapath.
pub trait ProductCorruptor {
    /// Transforms the exact product into the (possibly faulty) product the
    /// datapath latches.
    fn corrupt(&mut self, product: i64) -> i64;
}

/// Forwarding impl so monomorphic `infer_with`-style entry points accept
/// both owned corruptors and `&mut dyn ProductCorruptor` trait objects.
impl<C: ProductCorruptor + ?Sized> ProductCorruptor for &mut C {
    #[inline]
    fn corrupt(&mut self, product: i64) -> i64 {
        (**self).corrupt(product)
    }
}

/// The identity datapath: never faults (nominal voltage).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExactDatapath;

impl ProductCorruptor for ExactDatapath {
    #[inline]
    fn corrupt(&mut self, product: i64) -> i64 {
        product
    }
}

/// Logarithm-based geometric sampler: with `u` uniform on `(0, 1]`,
/// `⌊ln u / ln(1 − er)⌋` satisfies `P(gap ≥ k) = P(u ≤ (1−er)^k) = (1−er)^k`,
/// which is exactly the geometric tail. Used to seed the first gap and for
/// the rare mass past the precomputed CDF table.
fn sample_gap_ln(rng: &mut StdRng, er: f64) -> u64 {
    // The standard f64 draw is uniform on [0, 1); flip it onto (0, 1] so the
    // logarithm is finite.
    let u = 1.0 - rng.gen::<f64>();
    let denom = (1.0 - er).ln();
    if denom == 0.0 {
        // er below ~2⁻⁵³: 1 − er rounds to 1. The gap is astronomically
        // large; saturate rather than divide by zero.
        return u64::MAX;
    }
    let gap = u.ln() / denom;
    if gap >= u64::MAX as f64 {
        u64::MAX
    } else {
        gap as u64
    }
}

/// Resolves a guided CDF lookup without a data-dependent scan loop: the
/// guide bucket gives a lower bound for the answer, then each round adds
/// the sum of four comparison indicators. The CDF is non-decreasing, so
/// the indicators `[cdf[k+t] ≤ u]` (or `< u` when `STRICT`) form a
/// monotone run of ones followed by zeros — their sum IS the advance, no
/// early-exit branch per entry. Reads past the end pad with +∞ (indicator
/// zero), which both bounds the scan and caps the strict variant at
/// `cdf.len()`. Guide buckets almost never span more than four entries
/// (the tail buckets near a truncated CDF can), so the round loop is one
/// predictable iteration in the hot path.
#[inline]
fn guided_index<const STRICT: bool>(cdf: &[f64], guide: &[u16], u: f64) -> usize {
    let at = |i: usize| cdf.get(i).copied().unwrap_or(f64::INFINITY);
    let hit = |c: f64| if STRICT { c < u } else { c <= u };
    let mut k = usize::from(guide[(u * GUIDE_BUCKETS as f64) as usize]);
    loop {
        let step = usize::from(hit(at(k)))
            + usize::from(hit(at(k + 1)))
            + usize::from(hit(at(k + 2)))
            + usize::from(hit(at(k + 3)));
        k += step;
        if step < 4 {
            return k;
        }
    }
}

/// Samples the number of fault-free multiplications before the next fault
/// event from `Geom(er)`: `P(gap = k) = (1 − er)^k · er`.
///
/// The common case is a table lookup: `gap = k` exactly when
/// `F(k−1) ≤ u < F(k)` for the precomputed CDF `F`, located by a
/// [`build_guide`] table plus a short forward scan, with no
/// transcendental call. A draw past the truncated table lands in the
/// geometric's memoryless tail, so the exact remainder is
/// `table length + Geom(er)` via the logarithm sampler. Either way the
/// fault/no-fault sequence keeps the same law as one Bernoulli(er) draw
/// per multiplication, at one draw per *fault* instead of per *product*.
#[inline]
fn sample_gap(rng: &mut StdRng, model: &FaultModel) -> u64 {
    let cdf = &model.gap_cdf;
    match cdf.last() {
        Some(&last) => {
            let u: f64 = rng.gen();
            if u < last {
                // Same index `partition_point(|&c| c <= u)` would find:
                // the guide gives a lower bound for u's bucket and
                // `u < last` keeps the answer in range.
                if model.gap_guide.len() == GUIDE_BUCKETS + 1 {
                    guided_index::<false>(cdf, &model.gap_guide, u) as u64
                } else {
                    let mut k = 0;
                    while cdf[k] <= u {
                        k += 1;
                    }
                    k as u64
                }
            } else {
                (cdf.len() as u64).saturating_add(sample_gap_ln(rng, model.error_rate))
            }
        }
        // Hand-built model with no table (e.g. deserialized): exact path.
        None => sample_gap_ln(rng, model.error_rate),
    }
}

/// Applies one fault *event* to `product` (the event itself has already been
/// decided), updating `stats`. Shared between the geometric-skip
/// [`FaultStream`] and the per-draw [`PerDrawInjector`] oracle so the two
/// samplers differ only in *when* a fault happens and how the independent
/// tail is walked.
///
/// After the first flipped bit, the remaining weighted bits flip
/// independently with their (small) per-bit probabilities. `thin_tail`
/// selects how that tail is sampled:
///
/// - `false` — the reference scan: one uniform draw per remaining bit
///   (~50 draws per event for the Figure-1 profile). [`PerDrawInjector`]
///   keeps this path, preserving the seed implementation as the
///   statistical oracle and benchmark baseline.
/// - `true` — survival inversion over the precomputed suffix no-flip
///   products `tail_none`: one uniform per *flip* locates the next
///   flipping index by binary search, using
///   `P(next flip ≥ m | walking from j) = tail_none[j] / tail_none[m]`,
///   so bit `i` still flips with exactly `pᵢ`, independently. Expected
///   cost is `1 + E[#tail flips]` draws per event and no transcendental
///   calls.
///
/// Fault *locations* are activity-scaled: a timing violation can only
/// corrupt a column whose partial products actually switch, so the sampled
/// bit position (calibrated on full-width random operands, §II) is
/// compressed into the product's active bit-width. Events that land on a
/// near-zero product are absorbed — the product returns unchanged and
/// `stats.faulty` is not incremented, exactly as a per-draw sampler that
/// draws the event before inspecting the operand would behave.
#[inline]
fn apply_fault_event<S: FaultSink>(
    model: &FaultModel,
    rng: &mut StdRng,
    stats: &mut S,
    product: i64,
    thin_tail: bool,
) -> i64 {
    if model.flips.is_empty() {
        // Cannot arise from the constructors but can from a hand-crafted
        // deserialized model; treat it as exact rather than underflowing
        // below.
        return product;
    }
    // Active width: highest switching column, plus one for carry-out.
    // Never the sign bit (structurally an XOR off the critical path).
    let width = 64 - product.unsigned_abs().leading_zeros();
    if width <= model.near_zero_width {
        // Near-zero product: no carry chains long enough to violate.
        return product;
    }
    let top = (width + 1).min(OUTPUT_BITS as u32 - 2);
    let ripple_top = (width + model.ripple_span).min(OUTPUT_BITS as u32 - 2);
    let ripple_fraction = model.ripple_fraction;
    // The deterministic placement for this width, precomputed at model
    // build time (same clamp arithmetic, one byte load + shift per flip).
    // The oracle path keeps the legacy arithmetic verbatim; a model whose
    // immunity floor was lowered past the table's band falls back to it
    // too.
    let row_base = top as usize * OUTPUT_BITS;
    let positions: &[u8] = if thin_tail
        && top > crate::multiplier::IMMUNE_LSBS as u32
        && model.place_pos.len() >= row_base + OUTPUT_BITS
    {
        &model.place_pos[row_base..row_base + OUTPUT_BITS]
    } else {
        &[]
    };
    let place = |rng: &mut StdRng, bit: u8| -> u64 {
        if ripple_top > top && rng.gen::<f64>() < ripple_fraction {
            // Carry-propagate-adder ripple past the product MSB.
            1u64 << rng.gen_range(top + 1..=ripple_top)
        } else if !positions.is_empty() {
            1u64 << positions[usize::from(bit)]
        } else {
            let pos = (u32::from(bit) * top) / (OUTPUT_BITS as u32 - 2);
            1u64 << pos.clamp(crate::multiplier::IMMUNE_LSBS as u32 + 1, top)
        }
    };
    let mut mask = 0u64;
    // First flipped bit, conditioned on at least one flip. The guided
    // scan finds the same index as the binary search for the same draw;
    // the oracle/baseline path keeps the legacy binary search verbatim.
    let v: f64 = rng.gen();
    let k = if thin_tail && model.first_flip_guide.len() == GUIDE_BUCKETS + 1 {
        guided_index::<true>(&model.first_flip_cdf, &model.first_flip_guide, v)
            .min(model.flips.len() - 1)
    } else {
        model
            .first_flip_cdf
            .partition_point(|&c| c < v)
            .min(model.flips.len() - 1)
    };
    let (first_bit, _) = model.flips[k];
    mask ^= place(rng, first_bit);
    // Remaining bits flip independently.
    if thin_tail && model.tail_none.len() == model.flips.len() + 1 {
        let tn = &model.tail_none;
        let mut j = k + 1;
        while j < model.flips.len() {
            let u: f64 = rng.gen();
            // Inverse-transform the survival function: the next flipping
            // index is the largest m with `u·tail_none[m] ≤ tail_none[j]`
            // (the predicate holds on a prefix because tail_none is
            // non-decreasing). m == flips.len() means no further flip —
            // equivalently `u ≤ tail_none[j]` (the whole suffix survives);
            // that ~(1 − er) common case is tested first so it skips the
            // search's latency chain. Same draw, same outcome.
            if u <= tn[j] {
                break;
            }
            let m = j + tn[j..].partition_point(|&t| u * t <= tn[j]) - 1;
            if m >= model.flips.len() {
                break;
            }
            let (bit, _) = model.flips[m];
            mask ^= place(rng, bit);
            j = m + 1;
        }
    } else {
        for idx in k + 1..model.flips.len() {
            let (bit, p) = model.flips[idx];
            if rng.gen::<f64>() < p {
                mask ^= place(rng, bit);
            }
        }
    }
    if mask == 0 {
        // Scaled positions collided pairwise and cancelled.
        return product;
    }
    stats.record_fault(mask);
    product ^ (mask as i64)
}

/// Arms a fault-free gap under `model`: a `Geom(er)` draw, or a gap that
/// never drains (`u64::MAX`) for an exact model, so the hot path needs no
/// separate exactness branch.
#[inline]
fn arm_gap(rng: &mut StdRng, model: &FaultModel) -> u64 {
    if model.is_exact() {
        u64::MAX
    } else {
        sample_gap(rng, model)
    }
}

/// A seeded geometric-skip fault stream: the scalar fault injector.
///
/// `M` is how the stream holds its [`FaultModel`]. A stream that owns its
/// model (`FaultStream::new(model, seed)`, a `FaultStream<FaultModel>`)
/// suits a long-lived detector or a characterisation sweep. A stream that
/// borrows it (`FaultStream::new(&model, seed)`) suits a serving worker
/// that needs a fresh deterministic stream *per query*: the model holds
/// heap-allocated CDF and guide tables, so cloning it per query would
/// dominate the score itself, while a borrowing construction is one RNG
/// seed plus a single gap draw. Both walk the identical fault law
/// bit-for-bit from the same model and seed.
///
/// Restarting a fresh stream per query is statistically sound because the
/// geometric inter-fault gap is *memoryless*: a fresh `Geom(er)` draw at
/// every query boundary preserves the exact one-Bernoulli(er)-per-
/// multiplication fault law of a single long-lived stream.
///
/// # Example
///
/// ```
/// use shmd_volt::fault::{FaultModel, FaultStream, ProductCorruptor};
///
/// let mut stream = FaultStream::new(FaultModel::from_error_rate(0.5)?, 7);
/// let mut corrupted = 0;
/// for _ in 0..1000 {
///     if stream.corrupt(1 << 40) != 1 << 40 {
///         corrupted += 1;
///     }
/// }
/// assert!(corrupted > 400 && corrupted < 600);
/// # Ok::<(), shmd_volt::fault::FaultModelError>(())
/// ```
#[derive(Clone, Debug)]
pub struct FaultStream<M> {
    model: M,
    rng: StdRng,
    stats: FaultStats,
    /// Fault-free multiplications remaining before the next fault event
    /// (geometric gap sampling — see [`sample_gap`]; [`arm_gap`] parks an
    /// exact model at `u64::MAX`).
    skip: u64,
    /// The value `skip` was last (re)sampled to. `gap_len - skip` is the
    /// number of fault-free multiplications since the last event, which
    /// [`FaultStream::stats`] folds into the multiply count on demand —
    /// the fault-free path never touches memory for bookkeeping.
    gap_len: u64,
}

impl<M: Borrow<FaultModel>> FaultStream<M> {
    /// Creates a stream over `model` (owned or borrowed) with a
    /// deterministic seed.
    pub fn new(model: M, seed: u64) -> FaultStream<M> {
        let mut rng = StdRng::seed_from_u64(seed);
        let skip = arm_gap(&mut rng, model.borrow());
        FaultStream {
            model,
            rng,
            stats: FaultStats::new(),
            skip,
            gap_len: skip,
        }
    }

    /// The fault model in use.
    pub fn model(&self) -> &FaultModel {
        self.model.borrow()
    }

    /// Replaces the fault model (e.g. when re-calibrating for temperature).
    ///
    /// The gap to the next fault is resampled under the new error rate.
    pub fn set_model(&mut self, model: M) {
        // Multiplications run under the outgoing model still count.
        self.stats.multiplies += self.gap_len - self.skip;
        self.model = model;
        self.skip = arm_gap(&mut self.rng, self.model.borrow());
        self.gap_len = self.skip;
    }

    /// Accumulated statistics.
    ///
    /// Computed on demand: the multiply count folds in the fault-free
    /// calls made since the last fault event, which the hot path tracks
    /// only through the draining gap counter.
    pub fn stats(&self) -> FaultStats {
        let mut stats = self.stats.clone();
        stats.multiplies += self.gap_len - self.skip;
        stats
    }

    /// Corrupts a raw 64-bit product, updating statistics.
    ///
    /// Fault timing uses geometric gap sampling: the number of fault-free
    /// multiplications before the next fault event is drawn from `Geom(er)`
    /// and counted down, so the hot path is a decrement with *no* RNG draw
    /// — O(#faults) RNG cost instead of O(#multiplications), while the
    /// fault/no-fault sequence keeps the exact per-multiplication
    /// Bernoulli(er) law (see `sample_gap`; [`PerDrawInjector`] is the
    /// retained per-draw oracle). When the counter reaches a fault event,
    /// the first flipped bit is drawn from the conditional first-flip
    /// distribution and later bits flip independently, which reproduces
    /// exact independent per-bit Bernoulli sampling.
    ///
    /// Consequences faithfully mirror the paper: most faults are small
    /// *relative* errors, occasionally one lands near the product's MSB,
    /// and values very close to zero are not perturbed at all (the paper's
    /// stated limitation: "models that operate on numbers that are very
    /// close to zero are not protected"). A fault event that lands on a
    /// near-zero product is *absorbed* — exactly as the per-draw sampler
    /// absorbed it after its Bernoulli draw — so `observed_error_rate`
    /// still reflects only products wide enough to fault.
    #[inline]
    pub fn corrupt_product(&mut self, product: i64) -> i64 {
        if self.skip > 0 {
            self.skip -= 1;
            return product;
        }
        // Fault event: settle the multiply count for the drained gap plus
        // this call, then arm the next gap.
        let model = self.model.borrow();
        self.stats.multiplies += self.gap_len + 1;
        self.skip = sample_gap(&mut self.rng, model);
        self.gap_len = self.skip;
        apply_fault_event(model, &mut self.rng, &mut self.stats, product, true)
    }

    /// Corrupts an unsigned product (convenience for characterisation code).
    pub fn corrupt_unsigned(&mut self, product: u64) -> u64 {
        self.corrupt_product(product as i64) as u64
    }
}

impl<M: Borrow<FaultModel>> ProductCorruptor for FaultStream<M> {
    #[inline]
    fn corrupt(&mut self, product: i64) -> i64 {
        self.corrupt_product(product)
    }
}

/// The batched counterpart of [`ProductCorruptor`]: fault decisions for
/// `LANES` independent corruption streams, surfaced as *fault-free run
/// lengths per lane* rather than per-multiplication polls.
///
/// The batched MAC loop in `shmd-ann` drains each lane's events over a
/// span of multiplications (one neuron row) by calling
/// [`LaneCorruptor::lane_run`] with the multiplications that lane still
/// has in hand: `None` means the lane is fault-free for the whole span;
/// `Some(offset)` means the multiplication at `offset` (0-based within
/// the span) faults. Because every lane owns an independent RNG chain,
/// draining lane `l`'s events for a whole row before touching lane
/// `l + 1` consumes exactly the same per-lane draw sequence as the scalar
/// path — lane interleaving order is immaterial to bit-identity.
///
/// The contract mirrors the scalar geometric-skip law exactly:
///
/// - `Some(offset)` implies `offset < max` (the event multiplication is
///   within the caller's span);
/// - after `Some(offset)`, the lane **must** receive its
///   [`LaneCorruptor::fault`] call for that multiplication before its
///   next `lane_run`, because `fault` is what re-arms the lane's gap;
/// - after `None`, the lane has consumed all `max` multiplications
///   fault-free.
pub trait LaneCorruptor<const LANES: usize> {
    /// Advances lane `lane` by up to `max` multiplications: `Some(offset)`
    /// if the multiplication at `offset < max` faults, `None` if the lane
    /// consumed the whole span fault-free.
    fn lane_run(&mut self, lane: usize, max: u64) -> Option<u64>;

    /// Applies the fault event to `product` on the multiplication reported
    /// by the last [`LaneCorruptor::lane_run`] for this lane, re-arming
    /// that lane's gap.
    fn fault(&mut self, lane: usize, product: i64) -> i64;
}

/// Forwarding impl so batched entry points accept both owned corruptors
/// and mutable borrows, matching the scalar [`ProductCorruptor`] ergonomics.
impl<const LANES: usize, C: LaneCorruptor<LANES> + ?Sized> LaneCorruptor<LANES> for &mut C {
    #[inline]
    fn lane_run(&mut self, lane: usize, max: u64) -> Option<u64> {
        (**self).lane_run(lane, max)
    }

    #[inline]
    fn fault(&mut self, lane: usize, product: i64) -> i64 {
        (**self).fault(lane, product)
    }
}

/// The identity batch datapath: no lane ever faults (nominal voltage).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExactLanes;

impl<const LANES: usize> LaneCorruptor<LANES> for ExactLanes {
    #[inline]
    fn lane_run(&mut self, _lane: usize, _max: u64) -> Option<u64> {
        None
    }

    #[inline]
    fn fault(&mut self, _lane: usize, product: i64) -> i64 {
        product
    }
}

/// `LANES` independent [`FaultStream`]s advanced in lock-step, one per
/// batched inference lane.
///
/// Each lane owns its own RNG, statistics, and geometric gap countdown,
/// seeded exactly as a scalar stream would be — so lane `l`'s corruption
/// sequence (fault timing, flip masks, statistics) is bit-identical to
/// `FaultStream::new(model, seeds[l])` fed the same products in the same
/// order, at any batch width. The only structural difference is layout:
/// the countdowns live in a `[u64; LANES]` array, each lane advanced over
/// whole fault-free runs by [`LaneCorruptor::lane_run`] — one
/// compare-and-subtract per run, no per-product work, no cross-lane
/// synchronization — and only fault events (≈ `er` per lane-multiply)
/// enter the sampling machinery via [`LaneCorruptor::fault`].
#[derive(Clone, Debug)]
pub struct BatchFaultStream<'a, const LANES: usize> {
    model: &'a FaultModel,
    rngs: [StdRng; LANES],
    stats: [LaneStats; LANES],
    /// Per-lane fault-free multiplications remaining before the next
    /// event; exact models park at `u64::MAX` like the scalar injector.
    skip: [u64; LANES],
    /// Per-lane value `skip` was last (re)armed to, for the on-demand
    /// multiply-count fold (see [`BatchFaultStream::stats`]).
    gap_len: [u64; LANES],
}

impl<'a, const LANES: usize> BatchFaultStream<'a, LANES> {
    /// Creates `LANES` streams over a borrowed model, one deterministic
    /// seed per lane.
    ///
    /// # Panics
    ///
    /// Panics if `LANES` is 0 or exceeds 64 (the due mask is a `u64`).
    pub fn new(model: &'a FaultModel, seeds: [u64; LANES]) -> BatchFaultStream<'a, LANES> {
        assert!(
            (1..=64).contains(&LANES),
            "lane mask is a u64: 1..=64 lanes"
        );
        let mut skip = [0u64; LANES];
        let rngs = std::array::from_fn(|l| {
            let mut rng = StdRng::seed_from_u64(seeds[l]);
            skip[l] = arm_gap(&mut rng, model);
            rng
        });
        BatchFaultStream {
            model,
            rngs,
            stats: [LaneStats::ZERO; LANES],
            skip,
            gap_len: skip,
        }
    }

    /// The borrowed fault model.
    pub fn model(&self) -> &FaultModel {
        self.model
    }

    /// Lane `l`'s accumulated statistics, with its in-flight fault-free
    /// gap folded into the multiply count — identical to what the scalar
    /// [`FaultStream::stats`] reports at the same point in the stream.
    pub fn stats(&self, lane: usize) -> FaultStats {
        let s = &self.stats[lane];
        FaultStats {
            multiplies: s.multiplies + self.gap_len[lane] - self.skip[lane],
            faulty: s.faulty,
            bit_flips: s.bit_flips.to_vec(),
        }
    }

    /// Lane `l`'s additive statistics summary — the same numbers
    /// [`BatchFaultStream::stats`] reports (in-flight gap folded in) with
    /// the histogram collapsed to its total, and no heap traffic. This is
    /// what the serving layer folds into its telemetry once per lane per
    /// block, so the fold is three adds rather than a `Vec` clone.
    pub fn tally(&self, lane: usize) -> FaultTally {
        let s = &self.stats[lane];
        FaultTally {
            multiplies: s.multiplies + self.gap_len[lane] - self.skip[lane],
            faulty: s.faulty,
            bit_flips: s.bit_flips.iter().sum(),
        }
    }
}

impl<const LANES: usize> LaneCorruptor<LANES> for BatchFaultStream<'_, LANES> {
    /// Gap countdown over whole spans: one compare-and-subtract against
    /// the lane's entry in the `[u64; LANES]` skip array decides whether
    /// the lane crosses its next fault event inside the span — no RNG, no
    /// per-product work, no cross-lane synchronization. A due lane's
    /// counter parks at zero until [`BatchFaultStream::fault`] re-arms it,
    /// which replicates [`FaultStream::corrupt_product`] exactly (the
    /// scalar path also reaches `skip == 0` on the event multiplication and
    /// resamples inside the event).
    #[inline]
    fn lane_run(&mut self, lane: usize, max: u64) -> Option<u64> {
        let s = self.skip[lane];
        if s >= max {
            self.skip[lane] = s - max;
            None
        } else {
            self.skip[lane] = 0;
            Some(s)
        }
    }

    #[inline]
    fn fault(&mut self, lane: usize, product: i64) -> i64 {
        let rng = &mut self.rngs[lane];
        let stats = &mut self.stats[lane];
        // Settle the multiply count for the drained gap plus this call,
        // then arm the next gap — the same order as the scalar step, so
        // the RNG draw sequence stays aligned.
        stats.multiplies += self.gap_len[lane] + 1;
        let skip = sample_gap(rng, self.model);
        self.skip[lane] = skip;
        self.gap_len[lane] = skip;
        apply_fault_event(self.model, rng, stats, product, true)
    }
}

/// The pre-geometric reference sampler: one uniform Bernoulli draw per
/// multiplication, one uniform per weighted bit inside each fault event.
///
/// Statistically interchangeable with [`FaultStream`] — the same
/// per-multiplication fault law and the same per-bit flip law — but
/// implemented the straightforward way the seed revision did, without
/// geometric gap sampling or tail thinning. Retained as the statistical
/// oracle for the sampling property tests (two independent implementations
/// of one law must agree) and as the honest "before" baseline in the
/// throughput benchmarks; deployment code should use [`FaultStream`].
#[derive(Clone, Debug)]
pub struct PerDrawInjector {
    model: FaultModel,
    rng: StdRng,
    stats: FaultStats,
}

impl PerDrawInjector {
    /// Creates a per-draw injector with a deterministic seed.
    pub fn new(model: FaultModel, seed: u64) -> PerDrawInjector {
        PerDrawInjector {
            model,
            rng: StdRng::seed_from_u64(seed),
            stats: FaultStats::new(),
        }
    }

    /// The fault model in use.
    pub fn model(&self) -> &FaultModel {
        &self.model
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// Clears accumulated statistics.
    pub fn reset_stats(&mut self) {
        self.stats = FaultStats::new();
    }

    /// Corrupts a raw 64-bit product with one Bernoulli draw, updating
    /// statistics.
    pub fn corrupt_product(&mut self, product: i64) -> i64 {
        self.stats.multiplies += 1;
        if self.model.is_exact() {
            return product;
        }
        let u: f64 = self.rng.gen();
        if u >= self.model.error_rate {
            return product;
        }
        apply_fault_event(&self.model, &mut self.rng, &mut self.stats, product, false)
    }
}

impl ProductCorruptor for PerDrawInjector {
    #[inline]
    fn corrupt(&mut self, product: i64) -> i64 {
        self.corrupt_product(product)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multiplier::{IMMUNE_LSBS, SIGN_BIT};
    use proptest::prelude::*;

    #[test]
    fn fault_stream_folds_the_inflight_gap_into_stats() {
        let model = FaultModel::from_error_rate(0.01).expect("valid");
        let mut stream = FaultStream::new(&model, 7);
        for _ in 0..137 {
            stream.corrupt_product(1 << 40);
        }
        assert_eq!(stream.stats().multiplies, 137);
    }

    #[test]
    fn exact_fault_stream_is_identity() {
        let model = FaultModel::exact();
        let mut stream = FaultStream::new(&model, 1);
        for p in [0i64, -1, i64::MAX, i64::MIN, 12345] {
            assert_eq!(stream.corrupt_product(p), p);
        }
        assert_eq!(stream.stats().faulty, 0);
        assert_eq!(stream.stats().multiplies, 5);
    }

    #[test]
    fn invalid_rates_are_rejected() {
        assert!(FaultModel::from_error_rate(-0.1).is_err());
        assert!(FaultModel::from_error_rate(1.5).is_err());
        assert!(FaultModel::from_error_rate(f64::NAN).is_err());
    }

    #[test]
    fn rate_one_is_clamped_but_always_faulty() {
        let m = FaultModel::from_error_rate(1.0).expect("valid");
        assert!((m.error_rate() - MAX_EFFECTIVE_RATE).abs() < 1e-12);
        let mut inj = FaultStream::new(m, 3);
        // Full-width product: fault positions map one-to-one.
        let product = 3i64 << 60;
        let mut faulty = 0;
        for _ in 0..2000 {
            if inj.corrupt_product(product) != product {
                faulty += 1;
            }
        }
        assert!(faulty >= 1990, "expected ~all faulty, got {faulty}/2000");
    }

    #[test]
    fn observed_rate_matches_requested_rate() {
        for &er in &[0.01, 0.1, 0.5, 0.9] {
            let mut inj = FaultStream::new(FaultModel::from_error_rate(er).expect("valid"), 99);
            for _ in 0..20_000 {
                // Full-width product: observed rate matches the knob exactly.
                inj.corrupt_product(0x7123_4567_89ab_cdef);
            }
            let observed = inj.stats().observed_error_rate();
            assert!(
                (observed - er).abs() < 0.02,
                "er = {er}, observed = {observed}"
            );
        }
    }

    #[test]
    fn sign_bit_never_flips() {
        let mut inj = FaultStream::new(FaultModel::from_error_rate(0.9).expect("valid"), 5);
        for i in 0..20_000i64 {
            let p = i * 31_415_926;
            let c = inj.corrupt_product(p);
            assert_eq!(c < 0, p < 0, "sign changed: {p:#x} -> {c:#x}");
        }
        assert_eq!(inj.stats().bit_flips[SIGN_BIT], 0);
    }

    #[test]
    fn immune_lsbs_never_flip() {
        let mut inj = FaultStream::new(FaultModel::from_error_rate(0.9).expect("valid"), 6);
        for i in 0..20_000i64 {
            let p = i * 2_718_281;
            let c = inj.corrupt_product(p);
            assert_eq!((c ^ p) & 0xff, 0, "an immune LSB flipped: {p:#x} -> {c:#x}");
        }
        for bit in 0..IMMUNE_LSBS {
            assert_eq!(inj.stats().bit_flips[bit], 0);
        }
    }

    #[test]
    fn fault_locations_are_stochastic() {
        // The same operands must not always fault in the same place —
        // the paper's core §II observation.
        let mut inj = FaultStream::new(FaultModel::from_error_rate(1.0).expect("valid"), 8);
        let product = 0x00ff_00ff_00ff_00ffi64;
        let mut distinct = std::collections::HashSet::new();
        for _ in 0..200 {
            distinct.insert(inj.corrupt_product(product));
        }
        assert!(
            distinct.len() > 20,
            "only {} distinct faulty outputs",
            distinct.len()
        );
    }

    #[test]
    fn same_seed_reproduces_fault_sequence() {
        let model = FaultModel::from_error_rate(0.3).expect("valid");
        let mut a = FaultStream::new(model.clone(), 42);
        let mut b = FaultStream::new(model, 42);
        for i in 0..5000 {
            assert_eq!(a.corrupt_product(i * 7919), b.corrupt_product(i * 7919));
        }
    }

    #[test]
    fn bitwise_rates_follow_fig1_shape() {
        let mut inj = FaultStream::new(FaultModel::from_error_rate(0.5).expect("valid"), 11);
        for _ in 0..100_000 {
            inj.corrupt_product(0x0f0f_0f0f_0f0f_0f0f);
        }
        let rates = inj.stats().bitwise_error_rates();
        let peak = BitErrorProfile::fig1().peak_bit();
        assert!(rates[peak] > rates[15], "peak bit should dominate low bits");
        assert!(rates[peak] > rates[60], "peak bit should dominate top bits");
        assert_eq!(rates[SIGN_BIT], 0.0);
    }

    #[test]
    fn at_voltage_uses_timing_model() {
        use crate::voltage::{Millivolts, NOMINAL_CORE_VOLTAGE};
        let timing = MultiplierTimingModel::broadwell_2_2ghz();
        let nominal = FaultModel::at_voltage(&timing, NOMINAL_CORE_VOLTAGE).expect("valid");
        assert!(nominal.error_rate() < 1e-9, "no faults at nominal voltage");
        let deep = FaultModel::at_voltage(
            &timing,
            NOMINAL_CORE_VOLTAGE.with_offset(Millivolts::new(-140)),
        )
        .expect("valid");
        assert!(deep.error_rate() > nominal.error_rate());
    }

    #[test]
    fn operand_specific_models_differ() {
        use crate::voltage::{Millivolts, NOMINAL_CORE_VOLTAGE};
        let timing = MultiplierTimingModel::broadwell_2_2ghz();
        let v = NOMINAL_CORE_VOLTAGE.with_offset(Millivolts::new(-120));
        let dense =
            FaultModel::at_voltage_for_operands(&timing, v, u64::MAX, u64::MAX).expect("valid");
        let sparse = FaultModel::at_voltage_for_operands(&timing, v, 1, 1).expect("valid");
        assert!(
            dense.error_rate() > sparse.error_rate(),
            "dense operands must fault more: {} vs {}",
            dense.error_rate(),
            sparse.error_rate()
        );
    }

    #[test]
    fn near_zero_products_are_unprotected() {
        // Paper §IX "Limitations": since LSBs cannot flip, values very
        // close to zero are not protected.
        let mut inj = FaultStream::new(FaultModel::from_error_rate(1.0).expect("valid"), 13);
        for p in [0i64, 1, -1, 37, -200, 255] {
            for _ in 0..50 {
                assert_eq!(inj.corrupt_product(p), p, "tiny product {p} faulted");
            }
        }
    }

    #[test]
    fn faults_stay_within_active_width_plus_ripple() {
        // No switching activity above the product's top column ⇒ faults
        // stay within the active width, except rare carry-ripple faults
        // that reach at most DEFAULT_RIPPLE_SPAN bits higher.
        let mut inj = FaultStream::new(FaultModel::from_error_rate(1.0).expect("valid"), 14);
        let product = 1i64 << 20; // active width 21
        let mut in_width = 0u32;
        let mut rippled = 0u32;
        for _ in 0..2000 {
            let c = inj.corrupt_product(product);
            let diff = (c ^ product) as u64;
            assert_eq!(
                diff >> (21 + DEFAULT_RIPPLE_SPAN + 1),
                0,
                "fault too high: {diff:#x}"
            );
            if diff >> 23 != 0 {
                rippled += 1;
            } else if diff != 0 {
                in_width += 1;
            }
        }
        assert!(in_width > rippled, "in-width faults must dominate");
        assert!(rippled > 0, "the catastrophic tail must exist");
    }

    #[test]
    fn most_faults_are_small_relative_errors() {
        // The paper's FANN-integrated tool mostly perturbs low-significance
        // mantissa bits; verify the median faulty deviation is small at the
        // paper's er = 0.1 operating point (where faults are single flips).
        let mut inj = FaultStream::new(FaultModel::from_error_rate(0.1).expect("valid"), 15);
        let product = 1i64 << 40;
        let mut rel_errors: Vec<f64> = (0..40_000)
            .filter_map(|_| {
                let c = inj.corrupt_product(product);
                if c == product {
                    None
                } else {
                    Some(((c - product).abs() as f64) / (product as f64))
                }
            })
            .collect();
        rel_errors.sort_by(f64::total_cmp);
        let median = rel_errors[rel_errors.len() / 2];
        assert!(median < 0.05, "median relative error {median} too large");
        // ... but the tail must contain significant deviations, or the
        // defense would never move the decision boundary.
        let p95 = rel_errors[rel_errors.len() * 95 / 100];
        assert!(p95 > 1e-4, "p95 relative error {p95} too small");
    }

    #[test]
    fn gap_sampler_matches_per_draw_oracle() {
        // The ISSUE's statistical bar: the geometric-skip sampler and the
        // per-draw Bernoulli oracle must agree on the observed error rate to
        // within ±0.02 over 20k draws at each probed rate.
        for &er in &[0.01, 0.1, 0.5] {
            let model = FaultModel::from_error_rate(er).expect("valid");
            let mut geo = FaultStream::new(model.clone(), 99);
            let mut oracle = PerDrawInjector::new(model, 99);
            for _ in 0..20_000 {
                // Full-width product: observed rate matches the knob exactly.
                geo.corrupt_product(0x7123_4567_89ab_cdef);
                oracle.corrupt_product(0x7123_4567_89ab_cdef);
            }
            let g = geo.stats().observed_error_rate();
            let o = oracle.stats().observed_error_rate();
            assert!((g - er).abs() < 0.02, "er = {er}, geometric observed {g}");
            assert!((o - er).abs() < 0.02, "er = {er}, per-draw observed {o}");
            assert!((g - o).abs() < 0.02, "samplers disagree: {g} vs {o}");
        }
    }

    #[test]
    fn gap_sampler_absorbs_near_zero_like_per_draw() {
        // Interleave wide and near-zero products: fault events that land on
        // a near-zero product are absorbed by both samplers, so the observed
        // (wide-product) fault counts must still agree.
        let er = 0.3;
        let model = FaultModel::from_error_rate(er).expect("valid");
        let mut geo = FaultStream::new(model.clone(), 7);
        let mut oracle = PerDrawInjector::new(model, 7);
        for i in 0..40_000i64 {
            let p = if i % 2 == 0 { 0x7123_4567_89ab_cdef } else { 3 };
            assert_eq!(geo.corrupt_product(3), 3, "near-zero product faulted");
            geo.corrupt_product(p);
            oracle.corrupt_product(3);
            oracle.corrupt_product(p);
        }
        let g = geo.stats().observed_error_rate();
        let o = oracle.stats().observed_error_rate();
        // Half the events are absorbed twice over (¾ of products are
        // near-zero), so the observed rate sits near er/4 for both.
        assert!((g - o).abs() < 0.01, "samplers disagree: {g} vs {o}");
        assert!((g - er / 4.0).abs() < 0.01, "geometric observed {g}");
    }

    #[test]
    fn gap_sampler_fig1_shape_matches_per_draw() {
        // Where the faults land must be untouched by how fault timing is
        // sampled: the geometric sampler (thinned tail) and the per-draw
        // oracle (full tail scan) implement one per-bit law, so their
        // bitwise rate profiles over the same workload stay close.
        let model = FaultModel::from_error_rate(0.2).expect("valid");
        let mut geo = FaultStream::new(model.clone(), 21);
        let mut oracle = PerDrawInjector::new(model, 21);
        for _ in 0..50_000 {
            geo.corrupt_product(0x0f0f_0f0f_0f0f_0f0f);
            oracle.corrupt_product(0x0f0f_0f0f_0f0f_0f0f);
        }
        let g = geo.stats().bitwise_error_rates();
        let o = oracle.stats().bitwise_error_rates();
        for bit in 0..OUTPUT_BITS {
            assert!(
                (g[bit] - o[bit]).abs() < 0.01,
                "bit {bit} rates diverge: {} vs {}",
                g[bit],
                o[bit]
            );
        }
    }

    #[test]
    fn thinned_tail_matches_full_scan_on_multi_flip_events() {
        // At a deep-undervolt rate most events happen and the independent
        // tail fires often, so the *number* of flips per faulty product is
        // sensitive to how the tail is walked. The thinned walk (geometric
        // skips under the max-probability envelope) must reproduce the full
        // scan's mean flip multiplicity, not just the event rate.
        let model = FaultModel::from_error_rate(0.9).expect("valid");
        let mut geo = FaultStream::new(model.clone(), 33);
        let mut oracle = PerDrawInjector::new(model, 33);
        let product = 0x7fff_ffff_ffff_fff0i64;
        for _ in 0..50_000 {
            geo.corrupt_product(product);
            oracle.corrupt_product(product);
        }
        let flips_per_fault =
            |s: &FaultStats| s.bit_flips.iter().map(|&c| c as f64).sum::<f64>() / s.faulty as f64;
        let g = flips_per_fault(&geo.stats());
        let o = flips_per_fault(oracle.stats());
        assert!(
            g > 1.0,
            "deep undervolt must produce multi-flip events: {g}"
        );
        assert!(
            (g - o).abs() < 0.05,
            "flip multiplicity diverges between tail samplers: {g} vs {o}"
        );
    }

    #[test]
    fn set_model_resamples_the_gap() {
        // Raising the rate must take effect immediately, not after the stale
        // (long) gap for the old rate has drained.
        let mut inj = FaultStream::new(FaultModel::from_error_rate(0.001).expect("valid"), 17);
        inj.set_model(FaultModel::from_error_rate(1.0).expect("valid"));
        let product = 3i64 << 60;
        let mut faulty = 0;
        for _ in 0..100 {
            if inj.corrupt_product(product) != product {
                faulty += 1;
            }
        }
        assert!(faulty >= 95, "stale gap survived set_model: {faulty}/100");
    }

    #[test]
    fn model_state_round_trips_bit_identically() {
        for &er in &[0.01, 0.1, 0.5, 1.0] {
            let m = FaultModel::from_error_rate(er)
                .expect("valid")
                .with_ripple(0.07, 9)
                .with_near_zero_width(20);
            let r = FaultModel::from_state(m.export_state()).expect("round trip");
            assert_eq!(m, r, "er = {er}: derived tables must rebuild exactly");
        }
        let exact = FaultModel::exact().with_near_zero_width(20);
        assert_eq!(
            FaultModel::from_state(exact.export_state()).expect("round trip"),
            exact
        );
    }

    #[test]
    fn model_state_rejects_corrupted_snapshots() {
        let good = FaultModel::from_error_rate(0.3)
            .expect("valid")
            .export_state();
        let mut bad_bit = good.clone();
        bad_bit.flips.push((64, 0.5));
        assert!(FaultModel::from_state(bad_bit).is_err());
        let mut bad_rate = good.clone();
        bad_rate.error_rate = f64::NAN;
        assert!(FaultModel::from_state(bad_rate).is_err());
        let mut bad_ripple = good;
        bad_ripple.ripple_fraction = 1.5;
        assert!(FaultModel::from_state(bad_ripple).is_err());
    }

    #[test]
    fn stats_merge_accumulates() {
        let mut a = FaultStats::new();
        a.multiplies = 10;
        a.faulty = 2;
        a.bit_flips[40] = 2;
        let mut b = FaultStats::new();
        b.multiplies = 5;
        b.faulty = 1;
        b.bit_flips[40] = 1;
        a.merge(&b);
        assert_eq!(a.multiplies, 15);
        assert_eq!(a.faulty, 3);
        assert_eq!(a.bit_flips[40], 3);
    }

    #[test]
    fn stats_accessors_summarise_flip_counts() {
        let mut s = FaultStats::new();
        assert!(s.is_empty());
        assert_eq!(s.total_flips(), 0);
        assert_eq!(s.flips_per_fault(), 0.0);
        s.multiplies = 20;
        s.faulty = 4;
        s.bit_flips[30] = 5;
        s.bit_flips[50] = 1;
        assert!(!s.is_empty());
        assert_eq!(s.total_flips(), 6);
        assert!((s.flips_per_fault() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn batch_stream_lanes_match_scalar_streams_bit_for_bit() {
        // The determinism contract of the whole batched path: lane `l` of a
        // BatchFaultStream must walk the identical corruption sequence — the
        // same fault timing, the same flip masks, the same statistics — as a
        // scalar FaultStream from the same seed, fed the same products in
        // the same order. Mixed product widths exercise absorption mid-lane.
        // The batch side is driven through lane_run() with span lengths that
        // cycle through awkward sizes (1, primes, a span longer than most
        // gaps) and a per-lane phase shift, so fault-free runs straddle span
        // boundaries every way the MAC loop can produce — and lanes are
        // drained whole-row sequentially, exactly like the batched MAC.
        const LANES: usize = 8;
        let total = 20_000usize;
        for &er in &[0.05, 0.3, 0.9] {
            let model = FaultModel::from_error_rate(er).expect("valid");
            let seeds: [u64; LANES] = std::array::from_fn(|l| 1000 + 37 * l as u64);
            let mut batch = BatchFaultStream::<LANES>::new(&model, seeds);
            let mut scalars: Vec<FaultStream<&FaultModel>> =
                seeds.iter().map(|&s| FaultStream::new(&model, s)).collect();
            let mut x = 0x9e37_79b9_7f4a_7c15u64;
            let products: Vec<[i64; LANES]> = (0..total)
                .map(|_| {
                    std::array::from_fn(|l| {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        if (x ^ l as u64).is_multiple_of(5) {
                            3 // near-zero: event must be absorbed identically
                        } else {
                            (x >> 1) as i64
                        }
                    })
                })
                .collect();
            let spans = [1usize, 3, 7, 64, 5, 257, 2, 11];
            for (l, scalar) in scalars.iter_mut().enumerate() {
                let mut pos = 0usize;
                let mut call = l; // phase-shift the span cycle per lane
                while pos < total {
                    let max = spans[call % spans.len()].min(total - pos);
                    call += 1;
                    match batch.lane_run(l, max as u64) {
                        None => {
                            // The whole span is fault-free in this lane.
                            for p in &products[pos..pos + max] {
                                assert_eq!(
                                    scalar.corrupt_product(p[l]),
                                    p[l],
                                    "er = {er}, lane {l}: scalar faulted inside a batch run"
                                );
                            }
                            pos += max;
                        }
                        Some(offset) => {
                            assert!((offset as usize) < max, "event outside the span");
                            for p in &products[pos..pos + offset as usize] {
                                assert_eq!(
                                    scalar.corrupt_product(p[l]),
                                    p[l],
                                    "er = {er}, lane {l}: scalar faulted before the event"
                                );
                            }
                            pos += offset as usize;
                            let p = products[pos][l];
                            assert_eq!(
                                batch.fault(l, p),
                                scalar.corrupt_product(p),
                                "er = {er}, lane {l} diverged at product {pos}"
                            );
                            pos += 1;
                        }
                    }
                }
            }
            for (l, scalar) in scalars.iter().enumerate() {
                assert_eq!(
                    batch.stats(l),
                    scalar.stats(),
                    "er = {er}, lane {l} statistics diverged"
                );
            }
        }
    }

    #[test]
    fn batch_stream_exact_model_never_faults() {
        let model = FaultModel::exact();
        let mut batch = BatchFaultStream::<4>::new(&model, [1, 2, 3, 4]);
        for l in 0..4 {
            for _ in 0..50 {
                assert_eq!(
                    batch.lane_run(l, 100),
                    None,
                    "exact model reported a fault event"
                );
            }
        }
        for l in 0..4 {
            let stats = batch.stats(l);
            assert_eq!(stats.faulty, 0);
            assert_eq!(stats.multiplies, 5_000);
        }
    }

    #[test]
    fn batch_lane_preserves_gap_distribution_and_flip_multiplicity() {
        // The statistical bar for lane-indexed fault application: one lane
        // of a batch stream, with a seed unrelated to any scalar run, must
        // reproduce the scalar injector's inter-fault gap law (two-sample
        // Kolmogorov–Smirnov) and its per-fault flip multiplicity.
        const LANES: usize = 8;
        let er = 0.2;
        let model = FaultModel::from_error_rate(er).expect("valid");
        let product = 0x7123_4567_89ab_cdefi64;

        // Inter-fault gaps observed on lane 5 of a batch stream.
        let seeds: [u64; LANES] = std::array::from_fn(|l| 0xb00c + l as u64);
        let mut batch = BatchFaultStream::<LANES>::new(&model, seeds);
        let mut batch_gaps = Vec::new();
        let mut since = 0u64;
        let mut remaining = 40_000u64;
        while remaining > 0 {
            match batch.lane_run(5, remaining) {
                None => {
                    // The whole span is fault-free on lane 5.
                    since += remaining;
                    remaining = 0;
                }
                Some(offset) => {
                    since += offset;
                    remaining -= offset;
                    // Gaps are counted between product-*changing* faults so
                    // the scalar observation below measures the same events.
                    if batch.fault(5, product) != product {
                        batch_gaps.push(since);
                        since = 0;
                    } else {
                        since += 1;
                    }
                    remaining -= 1;
                }
            }
        }

        // The same law observed through a scalar injector, different seed.
        let mut scalar = FaultStream::new(model.clone(), 0xdead);
        let mut scalar_gaps = Vec::new();
        let mut since = 0u64;
        for _ in 0..40_000 {
            if scalar.corrupt_product(product) != product {
                scalar_gaps.push(since);
                since = 0;
            } else {
                since += 1;
            }
        }

        assert!(batch_gaps.len() > 2_000, "too few batch-lane fault events");
        assert!(scalar_gaps.len() > 2_000, "too few scalar fault events");

        // Two-sample KS statistic over the empirical gap CDFs. Gaps are
        // integers, so ties are heavy (P(gap = 0) = er): both pointers must
        // clear each distinct value before the CDFs are compared, or the
        // statistic inflates by the tie mass.
        batch_gaps.sort_unstable();
        scalar_gaps.sort_unstable();
        let (n, m) = (batch_gaps.len() as f64, scalar_gaps.len() as f64);
        let mut d: f64 = 0.0;
        let (mut i, mut j) = (0usize, 0usize);
        while i < batch_gaps.len() || j < scalar_gaps.len() {
            let v = match (batch_gaps.get(i), scalar_gaps.get(j)) {
                (Some(&a), Some(&b)) => a.min(b),
                (Some(&a), None) => a,
                (None, Some(&b)) => b,
                (None, None) => break,
            };
            while i < batch_gaps.len() && batch_gaps[i] == v {
                i += 1;
            }
            while j < scalar_gaps.len() && scalar_gaps[j] == v {
                j += 1;
            }
            d = d.max((i as f64 / n - j as f64 / m).abs());
        }
        // α = 0.001 critical value c(α)·√((n+m)/nm) with c(0.001) ≈ 1.95;
        // deterministic seeds keep the run reproducible.
        let critical = 1.95 * ((n + m) / (n * m)).sqrt();
        assert!(
            d < critical,
            "gap-distribution KS statistic {d:.4} exceeds critical {critical:.4}"
        );

        // Flip multiplicity: per-fault mean bit flips must match the scalar
        // law (same apply_fault_event, but prove the lane plumbing kept it).
        let batch_stats = batch.stats(5);
        let scalar_stats = scalar.stats();
        assert!(
            (batch_stats.flips_per_fault() - scalar_stats.flips_per_fault()).abs() < 0.1,
            "flip multiplicity diverged: {} vs {}",
            batch_stats.flips_per_fault(),
            scalar_stats.flips_per_fault()
        );
        // And the observed per-lane fault rate stays on the knob.
        assert!(
            (batch_stats.observed_error_rate() - er).abs() < 0.02,
            "lane 5 observed rate {} for er = {er}",
            batch_stats.observed_error_rate()
        );
    }

    #[test]
    fn cached_model_equals_rebuild_and_samples_identically() {
        // The from_error_rate cache must be invisible: a cache hit, a fresh
        // rebuild that bypasses the cache, and a state round-trip all
        // produce equal models whose injectors sample bit-identically.
        let er = 0.137;
        let first = FaultModel::from_error_rate(er).expect("valid"); // builds + caches
        let cached = FaultModel::from_error_rate(er).expect("valid"); // cache hit
        let rebuilt = FaultModel::from_normalized_weights(er, BitErrorProfile::fig1_normalized())
            .expect("valid"); // never consults the cache
        assert_eq!(first, cached);
        assert_eq!(first, rebuilt);
        let mut a = FaultStream::new(cached, 99);
        let mut b = FaultStream::new(rebuilt, 99);
        for i in 0..10_000i64 {
            let p = (i * 0x5851_f42d) << 16;
            assert_eq!(a.corrupt_product(p), b.corrupt_product(p));
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn place_mask_table_matches_arithmetic_placement() {
        // The precomputed flip-position table must be a pure lookup rewrite
        // of the clamp arithmetic: clearing the table (private-field
        // surgery only a test can do) forces the fallback path, and the
        // corruption stream must not move.
        let with_table = FaultModel::from_error_rate(0.4)
            .expect("valid")
            .with_near_zero_width(20);
        let mut without_table = with_table.clone();
        without_table.place_pos.clear();
        let mut a = FaultStream::new(with_table, 1234);
        let mut b = FaultStream::new(without_table, 1234);
        let mut x = 42u64;
        for _ in 0..30_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let p = (x >> 1) as i64;
            assert_eq!(a.corrupt_product(p), b.corrupt_product(p));
        }
        assert_eq!(a.stats(), b.stats());
    }

    proptest! {
        #[test]
        fn per_bit_probabilities_compose_to_error_rate(er in 0.001f64..0.999) {
            let m = FaultModel::from_error_rate(er).unwrap();
            let p_none: f64 = m.per_bit_probabilities().iter().map(|p| 1.0 - p).product();
            prop_assert!((1.0 - p_none - er).abs() < 1e-9,
                "P(any flip) = {} for er = {}", 1.0 - p_none, er);
        }

        #[test]
        fn gap_sampling_matches_bernoulli_rate(er in 0.01f64..0.6, seed in any::<u64>()) {
            // Property form of the oracle test: for any seed and rate, the
            // geometric-skip sampler's observed rate stays within a 5σ
            // binomial band of the requested Bernoulli rate.
            let n = 6000;
            let mut inj = FaultStream::new(FaultModel::from_error_rate(er).unwrap(), seed);
            for _ in 0..n {
                inj.corrupt_product(0x7123_4567_89ab_cdef);
            }
            let observed = inj.stats().observed_error_rate();
            let tol = 5.0 * (er * (1.0 - er) / f64::from(n)).sqrt() + 0.002;
            prop_assert!((observed - er).abs() < tol,
                "er = {}, observed = {}, tol = {}", er, observed, tol);
        }

        #[test]
        fn corruption_never_touches_immune_bits(
            product in any::<i64>(), er in 0.01f64..1.0, seed in any::<u64>()
        ) {
            let mut inj = FaultStream::new(FaultModel::from_error_rate(er).unwrap(), seed);
            let c = inj.corrupt_product(product);
            let diff = (c ^ product) as u64;
            prop_assert_eq!(diff & 0xff, 0, "immune LSB flipped");
            prop_assert_eq!(diff >> 63, 0, "sign bit flipped");
        }
    }
}
