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
//! regenerate Figure 1; a [`BatchFaultStream`] is `LANES` such streams,
//! and both run one gap countdown. Each is a [`LaneCorruptor`], the hook
//! through which the quantised network's one inference kernel (in
//! `shmd-ann`) corrupts its products.

use crate::multiplier::{BitErrorProfile, MultiplierTimingModel, OUTPUT_BITS};
use crate::voltage::Volts;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::borrow::Borrow;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};

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
///
/// Besides those free parameters the model carries the derived tables the
/// event law samples from. Every uniform test of the event law is made on
/// the draw's 53-bit mantissa against an integer cut (see `cut_le`), which
/// decides exactly what the `f64` comparison it replaces decides.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultModel {
    error_rate: f64,
    /// `(bit index, flip probability)` for bits with non-zero weight.
    flips: Vec<(u8, f64)>,
    /// CDF over which weighted bit is the *first* to flip, conditioned on at
    /// least one flip. The [`PerDrawInjector`] oracle searches it directly;
    /// the event law uses its cuts.
    first_flip_cdf: Vec<f64>,
    /// Fraction of flips diverted to the carry-ripple zone.
    ripple_fraction: f64,
    /// Reach of the carry-ripple zone above the product MSB, in bits.
    ripple_span: u32,
    /// Products whose active width is at most this many bits never fault.
    near_zero_width: u32,
    /// `cut_le` of the geometric gap CDF `P(gap ≤ k) = 1 − (1 − er)^{k+1}`,
    /// truncated once it covers ~99.9% of the mass (see [`sample_gap`]).
    gap: CutTable,
    /// `cut_lt` of `first_flip_cdf`: the first flip is the number of cuts
    /// at or below the draw's mantissa.
    first_flip: CutTable,
    /// `cut_le(ripple_fraction)`: a flip ripples when the draw's mantissa
    /// is below it.
    ripple_cut: u64,
    /// The tail continuation's tables (see [`tail_continuation`]).
    tail: TailTables,
    /// Precomputed deterministic flip *positions*, indexed by
    /// `(top − PLACE_FLOOR) * flips.len() + k`: the activity-scaled
    /// placement `clamp(bit * top / 62, IMMUNE_LSBS + 1, top)` of weighted
    /// bit `flips[k]` for every reachable active width `top`, so a fault
    /// event shifts a looked-up byte instead of re-deriving the
    /// multiply/divide/clamp per flipped bit, and never goes through
    /// `flips[k].0` to find its column (see [`apply_fault_event`]). Stored
    /// as bit positions rather than 64-bit masks so the whole table is
    /// ~3 KiB and stays L1-resident on the event path. Models with the same
    /// weighted bits share one table (see [`shared_place_table`]).
    place: Arc<[u8]>,
}

/// An inverse-CDF lookup over non-decreasing integer cuts: the answer for
/// a draw's mantissa `m` is the number of cuts at or below `m`.
///
/// `exact` answers most draws with one load. It splits the 53-bit
/// mantissa range into [`EXACT_BUCKETS`] equal buckets, and bucket `b`
/// stores the answer shared by every mantissa in it, or [`SPLIT`] when a
/// cut lies strictly inside the bucket, so that the answer changes within
/// it. Only those few buckets (at most one per cut) fall back to the
/// guided scan over `cuts` ([`guided_index`]), and so do buckets whose
/// answer is [`SPLIT`] or more, which only gap tables longer than 255
/// cuts, at error rates below about 0.027, reach.
#[derive(Clone, Debug, Default, PartialEq)]
struct CutTable {
    cuts: Vec<u64>,
    /// Guide table over `cuts` (see [`build_guide`]).
    guide: Vec<u16>,
    /// Exact answers per bucket (see [`build_exact`]).
    exact: Vec<u8>,
}

impl CutTable {
    fn new(cuts: Vec<u64>) -> CutTable {
        CutTable {
            guide: build_guide(&cuts),
            exact: build_exact(&cuts),
            cuts,
        }
    }

    /// The number of cuts at or below the mantissa `m`. The table must
    /// hold at least one cut.
    #[inline]
    fn count(&self, m: u64) -> usize {
        match self.exact[(m >> EXACT_SHIFT) as usize] {
            SPLIT => guided_index(&self.cuts, &self.guide, m),
            answer => usize::from(answer),
        }
    }
}

/// Bucket count for the inverse-CDF guide tables.
const GUIDE_BUCKETS: usize = 256;

/// `2⁵³`. The standard `f64` draw is `u = m·2⁻⁵³` for the 53-bit mantissa
/// `m = next_u64() >> 11` (see [`draw_mantissa`]).
const MANTISSA_SCALE: f64 = (1u64 << 53) as f64;

/// Shift from a mantissa to its guide bucket: `⌊u·256⌋ = m >> 45`.
const GUIDE_SHIFT: u32 = 53 - GUIDE_BUCKETS.trailing_zeros();

/// Bucket count for the exact-answer tables of [`CutTable`]. A bucket
/// spans `2⁴¹` mantissas (`2⁻¹²` of the unit interval), so a table of a
/// few dozen cuts leaves ≥98% of its buckets exact; at `2⁸` buckets that
/// share falls to about 80%.
const EXACT_BUCKETS: usize = 1 << 12;

/// Shift from a mantissa to its exact-answer bucket: `m >> 41`.
const EXACT_SHIFT: u32 = 53 - EXACT_BUCKETS.trailing_zeros();

/// The [`CutTable`] marker for a bucket whose answer is not constant, or
/// not below this value.
const SPLIT: u8 = u8::MAX;

/// The lowest column the placement table covers: the carry-out column of
/// the narrowest product that can fault (see [`MIN_NEAR_ZERO_WIDTH`]).
const PLACE_FLOOR: u32 = crate::multiplier::IMMUNE_LSBS as u32 + 1;

/// Narrowest near-zero width a model accepts: a product of width 8 or more
/// has its carry-out column `top` at or above the first non-immune bit,
/// which the placement table needs.
const MIN_NEAR_ZERO_WIDTH: u32 = crate::multiplier::IMMUNE_LSBS as u32 - 1;

/// The least mantissa `m` with `x ≤ m·2⁻⁵³`. For every draw,
/// `x ≤ u ⇔ cut_le(x) ≤ m` and `u < x ⇔ m < cut_le(x)`: scaling by `2⁵³`
/// is exact for any finite `x ≥ 0`, and `m` is an integer.
fn cut_le(x: f64) -> u64 {
    (x * MANTISSA_SCALE).ceil() as u64
}

/// The least mantissa `m` with `x < m·2⁻⁵³`. For every draw,
/// `x < u ⇔ cut_lt(x) ≤ m` and `u ≤ x ⇔ m < cut_lt(x)`.
fn cut_lt(x: f64) -> u64 {
    ((x * MANTISSA_SCALE).floor() as u64).saturating_add(1)
}

/// The 53-bit mantissa of the next standard uniform draw: the same RNG
/// step `rng.gen::<f64>()` takes, without the conversion.
#[inline]
fn draw_mantissa(rng: &mut StdRng) -> u64 {
    rng.next_u64() >> 11
}

/// Builds a guide table over non-decreasing integer cuts: `guide[b]` is the
/// number of cuts at or below `b << GUIDE_SHIFT`, the least mantissa of
/// bucket `b`, and so a lower bound on the scan result for any mantissa in
/// that bucket. A lookup is one table load plus a short forward scan
/// ([`guided_index`]) instead of a binary search, whose data-dependent
/// branches would form a serial latency chain inside the event. One merge
/// pass: O(cuts + buckets).
fn build_guide(cuts: &[u64]) -> Vec<u16> {
    let mut k = 0;
    (0..GUIDE_BUCKETS as u64)
        .map(|b| {
            while k < cuts.len() && cuts[k] <= b << GUIDE_SHIFT {
                k += 1;
            }
            k.min(usize::from(u16::MAX)) as u16
        })
        .collect()
}

/// Builds the exact-answer table of a [`CutTable`] in O(cuts + buckets)
/// with range fills. Bucket `b` holds the mantissas `[b·W, (b+1)·W)` for
/// `W = 2⁴¹`. Cut `i` counts for every mantissa at or above it, so the
/// buckets whose least mantissa lies below it, and above every earlier
/// cut, all answer `i`. A cut that is not its bucket's least mantissa
/// changes the answer inside that bucket, which becomes [`SPLIT`]. Cuts at
/// or above `2⁵³` lie above every mantissa and change nothing.
fn build_exact(cuts: &[u64]) -> Vec<u8> {
    const WIDTH: u64 = 1 << EXACT_SHIFT;
    let answer = |i: usize| i.min(usize::from(SPLIT)) as u8;
    let mut exact = Vec::with_capacity(EXACT_BUCKETS);
    for (i, &cut) in cuts.iter().enumerate() {
        // Buckets whose least mantissa lies below `cut`: `⌈cut / W⌉`.
        let below = (cut.div_ceil(WIDTH) as usize).min(EXACT_BUCKETS);
        if below > exact.len() {
            exact.resize(below, answer(i));
        }
    }
    exact.resize(EXACT_BUCKETS, answer(cuts.len()));
    for &cut in cuts {
        let bucket = (cut >> EXACT_SHIFT) as usize;
        if bucket < EXACT_BUCKETS && cut % WIDTH != 0 {
            exact[bucket] = SPLIT;
        }
    }
    exact
}

/// The gap table: `cut_le` of the geometric gap CDF `F(k) = 1 − (1 −
/// er)^{k+1}`, truncated at 99.9% coverage (the remaining mass is sampled
/// by the exact memoryless fallback) and bounded so that a minuscule error
/// rate cannot allocate an unbounded table.
fn gap_table(er_eff: f64) -> CutTable {
    let mut cuts = Vec::new();
    let mut f = er_eff;
    while cuts.len() < 1024 {
        cuts.push(cut_le(f));
        if f >= 0.999 {
            break;
        }
        f = 1.0 - (1.0 - f) * (1.0 - er_eff);
    }
    CutTable::new(cuts)
}

/// The first-flip CDF over `flips`, conditioned on at least one flip,
/// with its [`CutTable`] of `cut_lt` cuts:
/// `P(first flip is flips[k] | ≥1 flip) = p_k · ∏_{j<k}(1 − p_j) / er`.
fn first_flip_table(er_eff: f64, flips: &[(u8, f64)]) -> (Vec<f64>, CutTable) {
    let mut cdf = Vec::with_capacity(flips.len());
    let mut none_so_far = 1.0;
    let mut cum = 0.0;
    for &(_, p) in flips {
        cum += p * none_so_far / er_eff;
        none_so_far *= 1.0 - p;
        cdf.push(cum);
    }
    // Guard against rounding: force the last entry to 1.
    if let Some(last) = cdf.last_mut() {
        *last = 1.0;
    }
    let cuts = cdf.iter().map(|&c| cut_lt(c)).collect();
    (cdf, CutTable::new(cuts))
}

/// The tail-continuation tables over `flips`.
#[derive(Clone, Debug, Default, PartialEq)]
struct TailTables {
    /// Suffix no-flip probabilities over `flips`:
    /// `none[j] = ∏_{i ≥ j} (1 − pᵢ)`, with `none[len] = 1`.
    /// Drives the tail continuation in [`next_flip`].
    none: Vec<f64>,
    /// `cut_lt(none[j])`: the tail walking from `j` stops when the
    /// draw's mantissa is below it.
    stop_cuts: Vec<u64>,
    /// `1 / none[j]`, which turns a tail draw into the guide key of
    /// [`next_flip`] with one multiply.
    inverse: Vec<f64>,
    /// Guide table for [`next_flip`], keyed on the bit pattern of
    /// `u / none[j]` above that of 1.0, shifted right by `shift`.
    guide: Vec<u16>,
    /// Shift that fits the keys of `guide` into [`GUIDE_BUCKETS`].
    shift: u32,
}

fn tail_tables(flips: &[(u8, f64)]) -> TailTables {
    let mut none = vec![1.0; flips.len() + 1];
    for i in (0..flips.len()).rev() {
        none[i] = none[i + 1] * (1.0 - flips[i].1);
    }
    let stop_cuts = none.iter().map(|&t| cut_lt(t)).collect();
    let inverse: Vec<f64> = none.iter().map(|&t| 1.0 / t).collect();
    let (guide, shift) = build_tail_guide(&inverse);
    TailTables {
        none,
        stop_cuts,
        inverse,
        guide,
        shift,
    }
}

/// The placement table over `flips`, one row of `flips.len()` columns for
/// every active width `top` from [`PLACE_FLOOR`] up to `OUTPUT_BITS − 2`,
/// the widths a faultable product can present (`near_zero_width` absorbs
/// anything narrower, and [`FaultWindow::new`] caps at `OUTPUT_BITS − 2`).
fn place_table(flips: &[(u8, f64)]) -> Vec<u8> {
    let n = flips.len();
    let mut place = vec![0u8; (OUTPUT_BITS - 1 - PLACE_FLOOR as usize) * n];
    for (row, top) in place.chunks_exact_mut(n.max(1)).zip(PLACE_FLOOR..) {
        for (pos, &(bit, _)) in row.iter_mut().zip(flips) {
            *pos =
                ((u32::from(bit) * top) / (OUTPUT_BITS as u32 - 2)).clamp(PLACE_FLOOR, top) as u8;
        }
    }
    place
}

/// Entry cap for the placement cache: one entry per set of weighted bits,
/// and a process meets a handful of profiles at most.
const PLACE_CACHE_CAP: usize = 64;

/// [`place_table`], shared by every model whose weighted bits are the
/// same. The table depends on which bits carry weight, never on their
/// probabilities, so a retune to a new error rate reuses it. Flip tables
/// with bits in strictly increasing order, as every constructor makes
/// them, are keyed by their bit mask; any other order (a hand-made
/// checkpoint) builds its own table.
fn shared_place_table(flips: &[(u8, f64)]) -> Arc<[u8]> {
    static CACHE: OnceLock<Mutex<HashMap<u64, Arc<[u8]>>>> = OnceLock::new();
    if !flips.windows(2).all(|w| w[0].0 < w[1].0) {
        return place_table(flips).into();
    }
    let key = flips.iter().fold(0u64, |mask, &(bit, _)| mask | 1 << bit);
    let cache = CACHE.get_or_init(Mutex::default);
    if let Some(place) = cache.lock().ok().and_then(|c| c.get(&key).cloned()) {
        return place;
    }
    let place: Arc<[u8]> = place_table(flips).into();
    if let Ok(mut c) = cache.lock() {
        if c.len() < PLACE_CACHE_CAP {
            c.insert(key, Arc::clone(&place));
        }
    }
    place
}

/// The guide key of a tail draw: the bit pattern of `w = u / tail_none[j]`
/// above that of 1.0. Positive floats order like their bit patterns, so
/// the key is monotone in `w`; within one binade it is linear in `w`.
#[inline]
fn tail_key(w: f64) -> u64 {
    w.to_bits().saturating_sub(1.0f64.to_bits())
}

/// Builds the tail guide. `inverse` is `1 / tail_none`, non-increasing, and
/// a draw `w` continues to (about) the last index `i` with
/// `inverse[i] ≥ w`. Bucket `b` stores that index for the bucket's upper
/// key edge, a lower bound for the whole bucket up to rounding, which
/// [`next_flip`] corrects exactly. Returns the guide and the key shift
/// that fits the widest key, `inverse[0]`'s, into [`GUIDE_BUCKETS`].
fn build_tail_guide(inverse: &[f64]) -> (Vec<u16>, u32) {
    let widest = inverse.first().map_or(0, |&w| tail_key(w));
    let shift = (u64::BITS - widest.leading_zeros()).saturating_sub(GUIDE_BUCKETS.trailing_zeros());
    // `covered` counts the leading entries whose key reaches the edge.
    let mut covered = inverse.len();
    let guide = (0..GUIDE_BUCKETS as u64)
        .map(|b| {
            let edge = (b + 1) << shift;
            while covered > 0 && tail_key(inverse[covered - 1]) < edge {
                covered -= 1;
            }
            covered.saturating_sub(1).min(usize::from(u16::MAX)) as u16
        })
        .collect();
    (guide, shift)
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
            gap: CutTable::default(),
            first_flip: CutTable::default(),
            ripple_cut: cut_le(DEFAULT_RIPPLE_FRACTION),
            tail: TailTables::default(),
            place: Arc::default(),
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
        FaultModel::from_normalized_weights(er, BitErrorProfile::fig1_normalized())
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
    /// table is a pure `f64` function of `(er_eff, flips)` and the ripple
    /// fraction, so rebuilding from a [`FaultModelState`] snapshot
    /// reproduces the original model bit for bit — the snapshot never has
    /// to carry the tables. Each table is O(flips + [`GUIDE_BUCKETS`] +
    /// [`EXACT_BUCKETS`]), apart from the placement table, O(flips × 54),
    /// and the gap CDF, whose length depends on `er` alone.
    fn assemble(
        er_eff: f64,
        flips: Vec<(u8, f64)>,
        ripple_fraction: f64,
        ripple_span: u32,
        near_zero_width: u32,
    ) -> FaultModel {
        let (first_flip_cdf, first_flip) = first_flip_table(er_eff, &flips);
        FaultModel {
            error_rate: er_eff,
            first_flip_cdf,
            place: shared_place_table(&flips),
            tail: tail_tables(&flips),
            flips,
            ripple_fraction,
            ripple_span,
            near_zero_width,
            gap: gap_table(er_eff),
            first_flip,
            ripple_cut: cut_le(ripple_fraction),
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
    /// out-of-range bit indices, a ripple span above [`OUTPUT_BITS`], a
    /// near-zero width outside `IMMUNE_LSBS − 1..=OUTPUT_BITS`), so a
    /// corrupted checkpoint is rejected instead of panicking or sampling
    /// garbage.
    pub fn from_state(state: FaultModelState) -> Result<FaultModel, FaultModelError> {
        if !state.error_rate.is_finite() || !(0.0..=1.0).contains(&state.error_rate) {
            return Err(FaultModelError::InvalidState("error rate"));
        }
        if !state.ripple_fraction.is_finite() || !(0.0..=1.0).contains(&state.ripple_fraction) {
            return Err(FaultModelError::InvalidState("ripple fraction"));
        }
        if state.ripple_span > OUTPUT_BITS as u32 {
            return Err(FaultModelError::InvalidState("ripple span"));
        }
        if !(MIN_NEAR_ZERO_WIDTH..=OUTPUT_BITS as u32).contains(&state.near_zero_width) {
            return Err(FaultModelError::InvalidState("near-zero width"));
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
        self.ripple_cut = cut_le(fraction);
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
    ///
    /// A width below `IMMUNE_LSBS − 1` is raised to it: every column of so
    /// narrow a product, carry-out included, lies in the immune LSBs.
    #[must_use]
    pub fn with_near_zero_width(mut self, bits: u32) -> FaultModel {
        self.near_zero_width = bits.max(MIN_NEAR_ZERO_WIDTH);
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
#[derive(Clone, Debug, PartialEq)]
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
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Total multiplications processed.
    pub multiplies: u64,
    /// Multiplications whose result was corrupted.
    pub faulty: u64,
    /// Per-bit flip counts.
    pub bit_flips: Vec<u64>,
}

/// Sink for the per-event statistics updates a fault stream makes, so one
/// body of the event law can feed either [`LaneStats`] or the profiling
/// counters.
trait FaultSink {
    /// Counts `n` more multiplications: a drained gap and its event.
    fn count_multiplies(&mut self, n: u64);

    /// Records one corrupting event with the given flip mask.
    fn record_fault(&mut self, mask: u64);

    /// Notes one tail-continuation search and its predicate evaluations.
    /// Only the profiling counters ([`profile`]) keep it.
    #[inline]
    fn tail_search(&mut self, _probes: u32) {}
}

/// Allocation-free statistics of one injector lane: the same counts as
/// [`FaultStats`] with the per-bit histogram stored inline, so arming a
/// stream touches no heap and the per-flip histogram update indexes a
/// fixed-size array. The running flip total beside the histogram makes
/// [`BatchFaultStream::tally`] O(1).
#[derive(Clone, Debug)]
struct LaneStats {
    multiplies: u64,
    faulty: u64,
    /// Sum of `bit_flips`.
    flips: u64,
    bit_flips: [u64; OUTPUT_BITS],
}

impl Default for LaneStats {
    fn default() -> LaneStats {
        LaneStats {
            multiplies: 0,
            faulty: 0,
            flips: 0,
            bit_flips: [0; OUTPUT_BITS],
        }
    }
}

impl LaneStats {
    /// The public record, with `pending` more multiplications counted.
    fn export(&self, pending: u64) -> FaultStats {
        FaultStats {
            multiplies: self.multiplies + pending,
            faulty: self.faulty,
            bit_flips: self.bit_flips.to_vec(),
        }
    }
}

impl FaultSink for LaneStats {
    #[inline]
    fn count_multiplies(&mut self, n: u64) {
        self.multiplies += n;
    }

    #[inline]
    fn record_fault(&mut self, mask: u64) {
        self.faulty += 1;
        let mut remaining = mask;
        while remaining != 0 {
            self.flips += 1;
            self.bit_flips[remaining.trailing_zeros() as usize] += 1;
            remaining &= remaining - 1;
        }
    }
}

/// Compact fault-injection counters: the additive summary of a fault
/// stream's statistics with the per-bit histogram collapsed to its total.
/// A batched lane produces it without materializing a heap-backed
/// [`FaultStats`] ([`BatchFaultStream::tally`]), and the serving layer
/// folds, checkpoints and exports it: rates, not the 64-entry per-bit
/// profile, are what a service watches.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Total multiplications processed.
    pub multiplies: u64,
    /// Multiplications whose result was corrupted.
    pub faulty: u64,
    /// Total product bits flipped.
    pub bit_flips: u64,
}

impl FaultCounters {
    /// Adds another counter record into this one — the additive fold the
    /// serving layer uses for lane tallies and per-worker deltas alike.
    pub fn merge(&mut self, other: &FaultCounters) {
        self.multiplies += other.multiplies;
        self.faulty += other.faulty;
        self.bit_flips += other.bit_flips;
    }

    /// Observed fraction of faulty multiplications.
    pub fn observed_error_rate(&self) -> f64 {
        if self.multiplies == 0 {
            0.0
        } else {
            self.faulty as f64 / self.multiplies as f64
        }
    }
}

impl FaultStats {
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

/// Resolves a guided lookup over non-decreasing integer cuts: the number of
/// cuts at or below the mantissa `m`. The guide bucket `m >> 45` gives a
/// lower bound, then each round adds the sum of four comparison
/// indicators. The indicators `[cuts[k+t] ≤ m]` form a monotone run of
/// ones followed by zeros — their sum IS the advance, no early-exit branch
/// per entry. Reads past the end count as misses, which both bounds the
/// scan and caps the result at `cuts.len()`. Guide buckets almost never
/// span more than four entries (the tail buckets near a truncated CDF
/// can), so the round loop is one predictable iteration in the hot path.
#[inline]
fn guided_index(cuts: &[u64], guide: &[u16], m: u64) -> usize {
    let mut k = usize::from(guide[(m >> GUIDE_SHIFT) as usize]);
    loop {
        let step = match cuts.get(k..k + 4) {
            Some(four) => four.iter().map(|&c| usize::from(c <= m)).sum::<usize>(),
            None => cuts[k..].iter().map(|&c| usize::from(c <= m)).sum(),
        };
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
/// `F(k−1) ≤ u < F(k)` for the precomputed CDF `F`, which on the draw's
/// mantissa is the number of gap cuts at or below it ([`CutTable::count`]),
/// with no transcendental call. A draw at or past the last cut lands in
/// the geometric's memoryless tail, so the exact remainder is
/// `table length + Geom(er)` via the logarithm sampler. Either way the
/// fault/no-fault sequence keeps the same law as one Bernoulli(er) draw
/// per multiplication, at one draw per *fault* instead of per *product*.
#[inline]
fn sample_gap(rng: &mut StdRng, model: &FaultModel) -> u64 {
    let table = &model.gap;
    if table.cuts.is_empty() {
        // An exact model has no table; its gap saturates.
        return sample_gap_ln(rng, model.error_rate);
    }
    let gap = table.count(draw_mantissa(rng));
    if gap < table.cuts.len() {
        gap as u64
    } else {
        (table.cuts.len() as u64).saturating_add(sample_gap_ln(rng, model.error_rate))
    }
}

/// Where one event's flips can land on `product`: the placement row for
/// its active width and the carry-ripple zone above it.
///
/// Fault *locations* are activity-scaled: a timing violation can only
/// corrupt a column whose partial products actually switch, so the sampled
/// bit position (calibrated on full-width random operands, §II) is
/// compressed into the product's active bit-width.
struct FaultWindow<'m> {
    /// Highest column a non-ripple flip can reach: the active width plus
    /// one for the carry-out, never the sign bit.
    top: u32,
    /// Highest column a carry-ripple flip can reach.
    ripple_top: u32,
    /// `place` row for `top`, indexed by flip.
    row: &'m [u8],
}

impl<'m> FaultWindow<'m> {
    /// The window for `product`, or `None` when an event on it is absorbed:
    /// a near-zero product has no carry chains long enough to violate, and
    /// a model without weighted bits has nothing to flip.
    #[inline]
    fn new(model: &'m FaultModel, product: i64) -> Option<FaultWindow<'m>> {
        let width = 64 - product.unsigned_abs().leading_zeros();
        if model.flips.is_empty() || width <= model.near_zero_width {
            return None;
        }
        // `near_zero_width ≥ IMMUNE_LSBS − 1` keeps `top` inside the
        // placement table's filled rows.
        let top = (width + 1).min(OUTPUT_BITS as u32 - 2);
        let ripple_top = width
            .saturating_add(model.ripple_span)
            .min(OUTPUT_BITS as u32 - 2);
        let n = model.flips.len();
        let at = (top - PLACE_FLOOR) as usize * n;
        Some(FaultWindow {
            top,
            ripple_top,
            row: &model.place[at..at + n],
        })
    }

    /// The flip mask of weighted bit `flips[k]`: a carry-ripple flip above
    /// the product MSB with probability `ripple_fraction` (one draw, made
    /// only when the zone exists), else its scaled position.
    #[inline]
    fn place(&self, model: &FaultModel, rng: &mut StdRng, k: usize) -> u64 {
        if self.ripple_top > self.top && draw_mantissa(rng) < model.ripple_cut {
            1u64 << rng.gen_range(self.top + 1..=self.ripple_top)
        } else {
            1u64 << self.row[k]
        }
    }
}

/// The tail continuation's next flip when the walk from `j` did not stop,
/// that is, for a draw `u = m·2⁻⁵³ > tail_none[j]`.
///
/// Inverse-transforming the survival function
/// `P(next flip ≥ i | walking from j) = tail_none[j] / tail_none[i]`, the
/// next flip is the largest `i` with `u·tail_none[i] ≤ tail_none[j]`,
/// evaluated in `f64`, so bit `i` still flips with exactly `pᵢ`,
/// independently. The predicate holds on a prefix of `j..=len`: the
/// rounded product is monotone in `tail_none[i]`, which is non-decreasing.
/// It holds at `j` because `u < 1`, and fails at `len` because
/// `tail_none[len] = 1 < u`. The guide lands next to the boundary, and two
/// short walks settle it exactly, so the index equals the one a binary
/// search over the same predicate finds.
///
/// Returns the index and the number of predicate evaluations.
#[inline]
fn next_flip(model: &FaultModel, j: usize, m: u64) -> (usize, u32) {
    let tn = &model.tail.none;
    let u = m as f64 * (1.0 / MANTISSA_SCALE);
    let mut probes = 0;
    let mut holds = |i: usize| {
        probes += 1;
        u * tn[i] <= tn[j]
    };
    let key = tail_key(u * model.tail.inverse[j]) >> model.tail.shift;
    let mut i = usize::from(model.tail.guide[(key as usize).min(GUIDE_BUCKETS - 1)]).max(j);
    while !holds(i) {
        i -= 1;
    }
    while holds(i + 1) {
        i += 1;
    }
    (i, probes)
}

/// The first flip of an event on `window`, conditioned on at least one,
/// with its placement: the flip index and its mask. The index is the
/// number of first-flip cuts at or below the draw's mantissa
/// ([`CutTable::count`]), which is the index
/// `first_flip_cdf.partition_point(|&c| c < u)` finds; the last cut lies
/// above every mantissa, so it is in range.
#[inline]
fn first_placed_flip(
    model: &FaultModel,
    rng: &mut StdRng,
    window: &FaultWindow<'_>,
) -> (usize, u64) {
    let m = draw_mantissa(rng);
    let k = model.first_flip.count(m);
    (k, window.place(model, rng, k))
}

/// The tail continuation after flip `k`: the remaining weighted bits flip
/// independently with their (small) per-bit probabilities, sampled by
/// survival inversion ([`next_flip`]) at one draw per *flip* plus the one
/// that stops the walk, instead of one draw per remaining bit. The walk
/// from `j` stops when `u ≤ tail_none[j]` (the whole suffix survives), the
/// ~(1 − er) common case, tested on the draw's mantissa first. Returns the
/// mask of the further flips.
#[inline]
fn tail_continuation<S: FaultSink>(
    model: &FaultModel,
    rng: &mut StdRng,
    window: &FaultWindow<'_>,
    k: usize,
    stats: &mut S,
) -> u64 {
    let mut mask = 0;
    let mut j = k + 1;
    while j < model.flips.len() {
        let m = draw_mantissa(rng);
        if m < model.tail.stop_cuts[j] {
            break;
        }
        let (i, probes) = next_flip(model, j, m);
        stats.tail_search(probes);
        mask ^= window.place(model, rng, i);
        j = i + 1;
    }
    mask
}

/// Applies one fault *event* to `product` (the event itself has already been
/// decided), updating `stats`: the event law of [`FaultStream`] and
/// [`BatchFaultStream`].
///
/// The first flipped bit is drawn from the conditional first-flip
/// distribution and later bits flip independently
/// ([`tail_continuation`]), which reproduces exact independent per-bit
/// Bernoulli sampling; each flip lands where [`FaultWindow`] places it.
/// Every uniform test is an integer comparison on the draw's mantissa (see
/// [`cut_le`]), so the event consumes and decides exactly what the `f64`
/// law would. [`reference_fault_event`] is the same law written the
/// straightforward way, for the [`PerDrawInjector`] oracle.
///
/// Events that land on a near-zero product are absorbed — the product
/// returns unchanged and `stats.faulty` is not incremented, exactly as a
/// per-draw sampler that draws the event before inspecting the operand
/// would behave.
#[inline]
fn apply_fault_event<S: FaultSink>(
    model: &FaultModel,
    rng: &mut StdRng,
    stats: &mut S,
    product: i64,
) -> i64 {
    let Some(window) = FaultWindow::new(model, product) else {
        return product;
    };
    let (k, first) = first_placed_flip(model, rng, &window);
    let mask = first ^ tail_continuation(model, rng, &window, k, stats);
    if mask == 0 {
        // Scaled positions collided pairwise and cancelled.
        return product;
    }
    stats.record_fault(mask);
    product ^ (mask as i64)
}

/// [`apply_fault_event`]'s law written the straightforward way, as the
/// seed revision did, for the [`PerDrawInjector`] oracle: `f64` draws, a
/// binary search for the first flip, the placement arithmetic, and one
/// uniform draw per remaining weighted bit (~50 draws per event for the
/// Figure-1 profile).
fn reference_fault_event(
    model: &FaultModel,
    rng: &mut StdRng,
    stats: &mut LaneStats,
    product: i64,
) -> i64 {
    let Some(window) = FaultWindow::new(model, product) else {
        return product;
    };
    let (top, ripple_top) = (window.top, window.ripple_top);
    let place = |rng: &mut StdRng, bit: u8| -> u64 {
        if ripple_top > top && rng.gen::<f64>() < model.ripple_fraction {
            1u64 << rng.gen_range(top + 1..=ripple_top)
        } else {
            let pos = (u32::from(bit) * top) / (OUTPUT_BITS as u32 - 2);
            1u64 << pos.clamp(crate::multiplier::IMMUNE_LSBS as u32 + 1, top)
        }
    };
    let v: f64 = rng.gen();
    let k = model
        .first_flip_cdf
        .partition_point(|&c| c < v)
        .min(model.flips.len() - 1);
    let mut mask = place(rng, model.flips[k].0);
    for &(bit, p) in &model.flips[k + 1..] {
        if rng.gen::<f64>() < p {
            mask ^= place(rng, bit);
        }
    }
    if mask == 0 {
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

/// `L` independent seeded gap countdowns: the one step of every fault
/// stream. [`FaultStream`] is one lane of it, [`BatchFaultStream`] `L`
/// lanes, and [`profile::count`] drives one lane with counting sinks.
///
/// Each lane owns its RNG, its statistics sink and its countdown, kept as
/// arrays so a batch stays structure-of-arrays: advancing a lane over a
/// fault-free run touches one `u64`. The model is an argument of every
/// step rather than a field, so streams that own their model and streams
/// that borrow it run this same code.
#[derive(Clone, Debug)]
struct Lanes<const L: usize, S = LaneStats> {
    rngs: [StdRng; L],
    stats: [S; L],
    /// Per-lane fault-free multiplications remaining before the next
    /// event (geometric gap sampling, see [`sample_gap`]; [`arm_gap`]
    /// parks an exact model at `u64::MAX`).
    skip: [u64; L],
    /// Per-lane value `skip` was last (re)armed to. `gap_len − skip` is
    /// the number of fault-free multiplications since the last event,
    /// which [`Lanes::stats`] folds into the multiply count on demand, so
    /// the fault-free path never touches memory for bookkeeping.
    gap_len: [u64; L],
}

impl<const L: usize, S: FaultSink + Default> Lanes<L, S> {
    /// One lane per seed, each with its first gap armed under `model`.
    fn new(model: &FaultModel, seeds: [u64; L]) -> Lanes<L, S> {
        let mut skip = [0u64; L];
        let rngs = std::array::from_fn(|l| {
            let mut rng = StdRng::seed_from_u64(seeds[l]);
            skip[l] = arm_gap(&mut rng, model);
            rng
        });
        Lanes {
            rngs,
            stats: std::array::from_fn(|_| S::default()),
            skip,
            gap_len: skip,
        }
    }
}

impl<const L: usize, S: FaultSink> Lanes<L, S> {
    /// Gap countdown over a span of `max` multiplications: one
    /// compare-and-subtract decides whether the lane crosses its next
    /// event inside the span, with no RNG and no per-product work. A due
    /// lane's counter parks at zero until [`Lanes::fault`] re-arms it.
    #[inline]
    fn run(&mut self, lane: usize, max: u64) -> Option<u64> {
        let s = self.skip[lane];
        if s >= max {
            self.skip[lane] = s - max;
            None
        } else {
            self.skip[lane] = 0;
            Some(s)
        }
    }

    /// The fault event on the multiplication the last [`Lanes::run`]
    /// reported: settles the multiply count for the drained gap plus this
    /// call, arms the next gap, then applies the event law.
    #[inline]
    fn fault(&mut self, model: &FaultModel, lane: usize, product: i64) -> i64 {
        // The event runs on a register copy of the lane's RNG state.
        let mut rng = self.rngs[lane].clone();
        let stats = &mut self.stats[lane];
        stats.count_multiplies(self.gap_len[lane] + 1);
        let skip = sample_gap(&mut rng, model);
        self.skip[lane] = skip;
        self.gap_len[lane] = skip;
        let corrupted = apply_fault_event(model, &mut rng, stats, product);
        self.rngs[lane] = rng;
        corrupted
    }

    /// Moves `lane` onto `model`: the multiplications run under the
    /// outgoing model still count, and the gap is resampled under the new
    /// error rate.
    fn set_model(&mut self, model: &FaultModel, lane: usize) {
        self.stats[lane].count_multiplies(self.gap_len[lane] - self.skip[lane]);
        self.skip[lane] = arm_gap(&mut self.rngs[lane], model);
        self.gap_len[lane] = self.skip[lane];
    }
}

impl<const L: usize> Lanes<L> {
    /// Lane `lane`'s statistics with its in-flight gap folded in.
    fn stats(&self, lane: usize) -> FaultStats {
        self.stats[lane].export(self.gap_len[lane] - self.skip[lane])
    }

    /// Lane `lane`'s additive summary with its in-flight gap folded in.
    fn tally(&self, lane: usize) -> FaultCounters {
        let s = &self.stats[lane];
        FaultCounters {
            multiplies: s.multiplies + self.gap_len[lane] - self.skip[lane],
            faulty: s.faulty,
            bit_flips: s.flips,
        }
    }
}

/// A seeded geometric-skip fault stream: one lane of corruption.
///
/// `M` is how the stream holds its [`FaultModel`]. A stream that owns its
/// model (`FaultStream::new(model, seed)`, a `FaultStream<FaultModel>`)
/// suits a long-lived detector or a characterisation sweep. A stream that
/// borrows it (`FaultStream::new(&model, seed)`) suits a worker that needs
/// a fresh deterministic stream *per query*: the model holds heap-allocated
/// CDF and guide tables, so cloning it per query would dominate the score
/// itself, while a borrowing construction is one RNG seed plus a single
/// gap draw. Both walk the identical fault law bit-for-bit from the same
/// model and seed, and so does lane `l` of a [`BatchFaultStream`] seeded
/// the same way: all three run one step.
///
/// The stream drives the quantised network as a one-lane
/// [`LaneCorruptor`], or corrupts products one at a time through
/// [`FaultStream::corrupt_product`].
///
/// Restarting a fresh stream per query is statistically sound because the
/// geometric inter-fault gap is *memoryless*: a fresh `Geom(er)` draw at
/// every query boundary preserves the exact one-Bernoulli(er)-per-
/// multiplication fault law of a single long-lived stream.
///
/// # Example
///
/// ```
/// use shmd_volt::fault::{FaultModel, FaultStream};
///
/// let mut stream = FaultStream::new(FaultModel::from_error_rate(0.5)?, 7);
/// let mut corrupted = 0;
/// for _ in 0..1000 {
///     if stream.corrupt_product(1 << 40) != 1 << 40 {
///         corrupted += 1;
///     }
/// }
/// assert!(corrupted > 400 && corrupted < 600);
/// # Ok::<(), shmd_volt::fault::FaultModelError>(())
/// ```
#[derive(Clone, Debug)]
pub struct FaultStream<M> {
    model: M,
    lane: Lanes<1>,
}

impl<M: Borrow<FaultModel>> FaultStream<M> {
    /// Creates a stream over `model` (owned or borrowed) with a
    /// deterministic seed.
    pub fn new(model: M, seed: u64) -> FaultStream<M> {
        let lane = Lanes::new(model.borrow(), [seed]);
        FaultStream { model, lane }
    }

    /// The fault model in use.
    pub fn model(&self) -> &FaultModel {
        self.model.borrow()
    }

    /// Replaces the fault model (e.g. when re-calibrating for temperature).
    ///
    /// The gap to the next fault is resampled under the new error rate.
    pub fn set_model(&mut self, model: M) {
        self.model = model;
        self.lane.set_model(self.model.borrow(), 0);
    }

    /// Accumulated statistics.
    ///
    /// Computed on demand: the multiply count folds in the fault-free
    /// calls made since the last fault event, which the hot path tracks
    /// only through the draining gap counter.
    pub fn stats(&self) -> FaultStats {
        self.lane.stats(0)
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
        match self.lane.run(0, 1) {
            None => product,
            Some(_) => self.lane.fault(self.model.borrow(), 0, product),
        }
    }

    /// Corrupts an unsigned product (convenience for characterisation code).
    #[inline]
    pub fn corrupt_unsigned(&mut self, product: u64) -> u64 {
        self.corrupt_product(product as i64) as u64
    }
}

impl<M: Borrow<FaultModel>> LaneCorruptor<1> for FaultStream<M> {
    #[inline]
    fn lane_run(&mut self, lane: usize, max: u64) -> Option<u64> {
        self.lane.run(lane, max)
    }

    #[inline]
    fn fault(&mut self, lane: usize, product: i64) -> i64 {
        self.lane.fault(self.model.borrow(), lane, product)
    }
}

/// The hook between the fault model and the quantised inference datapath:
/// fault decisions for `LANES` independent corruption streams, surfaced as
/// *fault-free run lengths per lane* rather than per-multiplication polls.
///
/// The MAC loop in `shmd-ann` drains each lane's events over a span of
/// multiplications (one neuron row) by calling
/// [`LaneCorruptor::lane_run`] with the multiplications that lane still
/// has in hand: `None` means the lane is fault-free for the whole span;
/// `Some(offset)` means the multiplication at `offset` (0-based within
/// the span) faults. Because every lane owns an independent RNG chain,
/// draining lane `l`'s events for a whole row before touching lane
/// `l + 1` consumes exactly the per-lane draw sequence of a walk over the
/// products one at a time, so lane interleaving order is immaterial to
/// bit-identity. A per-product corruptor is a one-lane implementation
/// whose `lane_run` reports the next multiplication it wants to see.
///
/// The contract:
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

/// The identity datapath: no lane ever faults (nominal voltage).
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

/// `LANES` independent [`FaultStream`]s over one borrowed model, one per
/// batched inference lane.
///
/// Each lane owns its own RNG, statistics, and geometric gap countdown,
/// seeded exactly as a [`FaultStream`] would be — so lane `l`'s corruption
/// sequence (fault timing, flip masks, statistics) is bit-identical to
/// `FaultStream::new(model, seeds[l])` fed the same products in the same
/// order, at any batch width. The countdowns live in a `[u64; LANES]`
/// array, each lane advanced over whole fault-free runs by
/// [`LaneCorruptor::lane_run`] — one compare-and-subtract per run, no
/// per-product work, no cross-lane synchronization — and only fault events
/// (≈ `er` per lane-multiply) enter the sampling machinery via
/// [`LaneCorruptor::fault`].
#[derive(Clone, Debug)]
pub struct BatchFaultStream<'a, const LANES: usize> {
    model: &'a FaultModel,
    lanes: Lanes<LANES>,
}

impl<'a, const LANES: usize> BatchFaultStream<'a, LANES> {
    /// Creates `LANES` streams over a borrowed model, one deterministic
    /// seed per lane.
    ///
    /// # Panics
    ///
    /// Panics if `LANES` is 0.
    pub fn new(model: &'a FaultModel, seeds: [u64; LANES]) -> BatchFaultStream<'a, LANES> {
        assert!(LANES >= 1, "a batch fault stream needs at least one lane");
        BatchFaultStream {
            model,
            lanes: Lanes::new(model, seeds),
        }
    }

    /// The borrowed fault model.
    pub fn model(&self) -> &FaultModel {
        self.model
    }

    /// Lane `l`'s accumulated statistics, with its in-flight fault-free
    /// gap folded into the multiply count — identical to what
    /// [`FaultStream::stats`] reports at the same point in the stream.
    pub fn stats(&self, lane: usize) -> FaultStats {
        self.lanes.stats(lane)
    }

    /// Lane `l`'s additive statistics summary — the same numbers
    /// [`BatchFaultStream::stats`] reports (in-flight gap folded in) with
    /// the histogram collapsed to its total, and no heap traffic. This is
    /// what the serving layer folds into its telemetry once per lane per
    /// block, so the fold is three adds rather than a `Vec` clone.
    pub fn tally(&self, lane: usize) -> FaultCounters {
        self.lanes.tally(lane)
    }
}

impl<const LANES: usize> LaneCorruptor<LANES> for BatchFaultStream<'_, LANES> {
    #[inline]
    fn lane_run(&mut self, lane: usize, max: u64) -> Option<u64> {
        self.lanes.run(lane, max)
    }

    #[inline]
    fn fault(&mut self, lane: usize, product: i64) -> i64 {
        self.lanes.fault(self.model, lane, product)
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
/// As a one-lane [`LaneCorruptor`] it draws its Bernoulli per
/// multiplication inside [`LaneCorruptor::lane_run`].
#[derive(Clone, Debug)]
pub struct PerDrawInjector {
    model: FaultModel,
    rng: StdRng,
    stats: LaneStats,
}

impl PerDrawInjector {
    /// Creates a per-draw injector with a deterministic seed.
    pub fn new(model: FaultModel, seed: u64) -> PerDrawInjector {
        PerDrawInjector {
            model,
            rng: StdRng::seed_from_u64(seed),
            stats: LaneStats::default(),
        }
    }

    /// The fault model in use.
    pub fn model(&self) -> &FaultModel {
        &self.model
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> FaultStats {
        self.stats.export(0)
    }

    /// One multiplication's Bernoulli(er) draw: `true` when it faults.
    fn draw(&mut self) -> bool {
        self.stats.multiplies += 1;
        !self.model.is_exact() && self.rng.gen::<f64>() < self.model.error_rate
    }

    /// Corrupts a raw 64-bit product with one Bernoulli draw, updating
    /// statistics.
    pub fn corrupt_product(&mut self, product: i64) -> i64 {
        if self.draw() {
            reference_fault_event(&self.model, &mut self.rng, &mut self.stats, product)
        } else {
            product
        }
    }
}

impl LaneCorruptor<1> for PerDrawInjector {
    fn lane_run(&mut self, _lane: usize, max: u64) -> Option<u64> {
        (0..max).find(|_| self.draw())
    }

    fn fault(&mut self, _lane: usize, product: i64) -> i64 {
        reference_fault_event(&self.model, &mut self.rng, &mut self.stats, product)
    }
}

/// Stage-level entry points into the event law, for
/// `examples/profile_fault.rs`. Each runs the code the streams run; none
/// is part of the supported API.
#[doc(hidden)]
pub mod profile {
    use super::{
        apply_fault_event, first_flip_table, first_placed_flip, gap_table, place_table, sample_gap,
        tail_tables, FaultModel, FaultSink, FaultWindow, Lanes,
    };
    use rand::rngs::StdRng;

    /// What driving the event law over a product stream did.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct EventCounts {
        /// Fault events, absorbed ones included.
        pub events: u64,
        /// Tail-continuation searches (flips after an event's first).
        pub tail_searches: u64,
        /// Predicate evaluations those searches made.
        pub probes: u64,
    }

    impl FaultSink for EventCounts {
        fn count_multiplies(&mut self, _n: u64) {}

        fn record_fault(&mut self, _mask: u64) {}

        fn tail_search(&mut self, probes: u32) {
            self.tail_searches += 1;
            self.probes += u64::from(probes);
        }
    }

    /// One gap draw.
    pub fn gap(model: &FaultModel, rng: &mut StdRng) -> u64 {
        sample_gap(rng, model)
    }

    /// One event's first flip with its placement and ripple draw, or 0 for
    /// an absorbed event: the event up to its tail continuation.
    pub fn first_flip(model: &FaultModel, rng: &mut StdRng, product: i64) -> u64 {
        FaultWindow::new(model, product)
            .map_or(0, |window| first_placed_flip(model, rng, &window).1)
    }

    /// One whole event, without its gap draw.
    pub fn event(model: &FaultModel, rng: &mut StdRng, product: i64) -> i64 {
        apply_fault_event(model, rng, &mut EventCounts::default(), product)
    }

    /// Builds `model`'s gap table alone; returns its cut count.
    pub fn build_gap(model: &FaultModel) -> usize {
        gap_table(model.error_rate).cuts.len()
    }

    /// Builds `model`'s first-flip CDF and table alone; returns its cut
    /// count.
    pub fn build_first_flip(model: &FaultModel) -> usize {
        first_flip_table(model.error_rate, &model.flips)
            .1
            .cuts
            .len()
    }

    /// Builds `model`'s tail-continuation tables alone; returns their
    /// length.
    pub fn build_tail(model: &FaultModel) -> usize {
        tail_tables(&model.flips).none.len()
    }

    /// Builds `model`'s placement table alone; returns its length.
    pub fn build_place(model: &FaultModel) -> usize {
        place_table(&model.flips).len()
    }

    /// Drives a stream seeded with `seed` over `products`, as
    /// [`super::FaultStream::corrupt_product`] does, counting its events
    /// and tail searches.
    pub fn count(model: &FaultModel, seed: u64, products: &[i64]) -> EventCounts {
        let mut lane = Lanes::<1, EventCounts>::new(model, [seed]);
        let mut events = 0;
        for &product in products {
            if lane.run(0, 1).is_some() {
                events += 1;
                lane.fault(model, 0, product);
            }
        }
        EventCounts {
            events,
            ..lane.stats[0]
        }
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
        let o = flips_per_fault(&oracle.stats());
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

    fn zero_stats() -> FaultStats {
        LaneStats::default().export(0)
    }

    #[test]
    fn stats_merge_accumulates() {
        let mut a = zero_stats();
        a.multiplies = 10;
        a.faulty = 2;
        a.bit_flips[40] = 2;
        let mut b = zero_stats();
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
        let mut s = zero_stats();
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
            let mut merged = FaultCounters::default();
            for (l, scalar) in scalars.iter().enumerate() {
                let stats = scalar.stats();
                assert_eq!(
                    batch.stats(l),
                    stats,
                    "er = {er}, lane {l} statistics diverged"
                );
                // The tally is the same statistics, histogram summed.
                let tally = batch.tally(l);
                assert_eq!(
                    (tally.multiplies, tally.faulty, tally.bit_flips),
                    (stats.multiplies, stats.faulty, stats.total_flips()),
                    "er = {er}, lane {l} tally diverged"
                );
                merged.merge(&tally);
            }
            assert_eq!(merged.multiplies, (LANES * total) as u64);
            let faulty: u64 = (0..LANES).map(|l| batch.tally(l).faulty).sum();
            assert_eq!(merged.faulty, faulty);
            assert_eq!(
                merged.observed_error_rate(),
                faulty as f64 / merged.multiplies as f64
            );
        }
        assert_eq!(FaultCounters::default().observed_error_rate(), 0.0);
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

    /// The models the table tests sweep: seven rates of the Figure-1
    /// profile from nearly exact to the clamped maximum, a custom profile,
    /// a wider ripple and a raised near-zero floor.
    fn table_models() -> Vec<(String, FaultModel)> {
        let mut weights = vec![0.0; OUTPUT_BITS];
        for (bit, w) in weights
            .iter_mut()
            .enumerate()
            .take(SIGN_BIT)
            .skip(IMMUNE_LSBS)
        {
            *w = if bit % 5 == 0 {
                3.0
            } else {
                0.25 + bit as f64 / 64.0
            };
        }
        let custom = BitErrorProfile::from_weights(weights).expect("valid profile");
        let fig1 = |er: f64| FaultModel::from_error_rate(er).expect("valid");
        let mut models: Vec<(String, FaultModel)> =
            [1e-6, 1e-3, 0.1164, 0.178, 0.4135, 0.9, 0.9999]
                .into_iter()
                .map(|er| (format!("er {er}"), fig1(er)))
                .collect();
        models.push((
            "custom profile".into(),
            FaultModel::from_error_rate_with_profile(0.3, &custom).expect("valid"),
        ));
        models.push(("ripple".into(), fig1(0.178).with_ripple(0.4, 20)));
        models.push((
            "near-zero width".into(),
            fig1(0.178).with_near_zero_width(30),
        ));
        models
    }

    #[test]
    fn place_mask_table_matches_arithmetic_placement() {
        // The event law places a flip by table lookup; the oracle keeps
        // the clamp arithmetic. With the ripple off, both must put every
        // weighted bit in the same column at every active width.
        let mut rng = StdRng::seed_from_u64(5);
        for (name, model) in table_models() {
            let model = model.with_ripple(0.0, DEFAULT_RIPPLE_SPAN);
            for width in model.near_zero_width() + 1..=63 {
                let window = FaultWindow::new(&model, 1i64 << (width - 1)).expect("wide enough");
                for (k, &(bit, _)) in model.flips.iter().enumerate() {
                    let pos = (u32::from(bit) * window.top / (OUTPUT_BITS as u32 - 2))
                        .clamp(IMMUNE_LSBS as u32 + 1, window.top);
                    assert_eq!(
                        window.place(&model, &mut rng, k),
                        1 << pos,
                        "{name}: width {width}, bit {bit}"
                    );
                }
            }
        }
    }

    /// `sample_gap` as it was before the exact-answer tables: the guided
    /// scan for a draw below the last cut, else the logarithm sampler.
    fn scanned_gap(rng: &mut StdRng, model: &FaultModel) -> u64 {
        let cuts = &model.gap.cuts;
        let m = draw_mantissa(rng);
        if m < cuts[cuts.len() - 1] {
            guided_index(cuts, &model.gap.guide, m) as u64
        } else {
            (cuts.len() as u64).saturating_add(sample_gap_ln(rng, model.error_rate))
        }
    }

    #[test]
    fn exact_tables_answer_what_the_scans_answer() {
        // Every bucket's least and greatest mantissa, and random ones: the
        // gap table must answer what the guided scan answers, and the
        // first-flip table what a binary search over the f64 CDF answers.
        let mut rng = StdRng::seed_from_u64(17);
        let u = |m: u64| m as f64 * (1.0 / MANTISSA_SCALE);
        for (name, model) in &table_models() {
            let edges = (0..EXACT_BUCKETS as u64)
                .flat_map(|b| [b << EXACT_SHIFT, ((b + 1) << EXACT_SHIFT) - 1]);
            let random: Vec<u64> = (0..20_000).map(|_| rng.next_u64() >> 11).collect();
            let mut gaps_past_last = 0;
            for m in edges.chain(random) {
                let gap = &model.gap;
                let want = guided_index(&gap.cuts, &gap.guide, m);
                assert_eq!(gap.count(m), want, "{name}: gap at m {m}");
                gaps_past_last += usize::from(want == gap.cuts.len());
                let want = model.first_flip_cdf.partition_point(|&c| c < u(m));
                assert_eq!(
                    model.first_flip.count(m),
                    want,
                    "{name}: first flip at m {m}"
                );
            }
            assert!(
                gaps_past_last > 0,
                "{name}: no draw reached the ln fallback"
            );
            // Whole gap draws, the ln fallback included: the same gaps and
            // the same RNG state afterwards.
            for seed in 0..200 {
                let mut a = StdRng::seed_from_u64(seed);
                let mut b = a.clone();
                for _ in 0..50 {
                    assert_eq!(
                        sample_gap(&mut a, model),
                        scanned_gap(&mut b, model),
                        "{name}"
                    );
                }
                assert_eq!(a.next_u64(), b.next_u64(), "{name}: RNG state diverged");
            }
        }
        // At er = 1e-6 the truncated table ends far below 99.9% coverage,
        // so almost every gap lies beyond it.
        let sparse = FaultModel::from_error_rate(1e-6).expect("valid");
        assert_eq!(sparse.gap.cuts.len(), 1024);
        let mut rng = StdRng::seed_from_u64(3);
        assert!((0..100).all(|_| sample_gap(&mut rng, &sparse) >= 1024));
    }

    /// The error rates the event-law tests sweep: the serving operating
    /// points (0.116359 and 0.413512 are the rates the bench deployments
    /// deliver for targets 0.1 and 0.3) and the clamped maximum.
    const EVENT_RATES: [f64; 5] = [0.05, 0.116359, 0.3, 0.413512, 0.9999];

    #[test]
    fn integer_cuts_decide_what_the_f64_comparisons_decide() {
        let u = |m: u64| m as f64 * (1.0 / MANTISSA_SCALE);
        // The mantissas on either side of a cut, within the 53-bit range.
        let around = |cut: u64| {
            [cut.saturating_sub(1), cut, cut.saturating_add(1)]
                .into_iter()
                .filter(|&m| m < 1 << 53)
        };
        for er in EVENT_RATES {
            let model = FaultModel::from_error_rate(er).expect("valid");
            // Gap: `F(k) ≤ u`, with F rebuilt by the model's recurrence.
            let mut f = model.error_rate;
            for &cut in &model.gap.cuts {
                for m in around(cut) {
                    assert_eq!(f <= u(m), cut <= m, "er {er}: gap cut {cut}, m {m}");
                }
                f = 1.0 - (1.0 - f) * (1.0 - model.error_rate);
            }
            // First flip: `cdf[k] < u`.
            for (&c, &cut) in model.first_flip_cdf.iter().zip(&model.first_flip.cuts) {
                for m in around(cut) {
                    assert_eq!(c < u(m), cut <= m, "er {er}: first-flip cut {cut}, m {m}");
                }
            }
            // Ripple: `u < ripple_fraction`.
            for m in around(model.ripple_cut) {
                assert_eq!(u(m) < model.ripple_fraction, m < model.ripple_cut);
            }
            // Tail stop: `u ≤ tail_none[j]`.
            for (&t, &cut) in model.tail.none.iter().zip(&model.tail.stop_cuts) {
                for m in around(cut) {
                    assert_eq!(u(m) <= t, m < cut, "er {er}: tail-stop cut {cut}, m {m}");
                }
            }
        }
    }

    #[test]
    fn tail_search_finds_the_binary_search_index() {
        // `next_flip` must return the index the binary search over
        // `u·tail_none[i] ≤ tail_none[j]` returns, for every start and
        // for draws at the stop cut, just past it, and spread above it.
        let mut rng = StdRng::seed_from_u64(41);
        for er in EVENT_RATES {
            let model = FaultModel::from_error_rate(er).expect("valid");
            let tn = &model.tail.none;
            for j in 0..model.flips.len() {
                let stop = model.tail.stop_cuts[j];
                let draws = [stop, stop + 1, (1 << 53) - 1]
                    .into_iter()
                    .chain((0..200).map(|_| rng.gen_range(stop..1 << 53)));
                for m in draws {
                    let u = m as f64 * (1.0 / MANTISSA_SCALE);
                    let expected = j + tn[j..].partition_point(|&t| u * t <= tn[j]) - 1;
                    assert_eq!(next_flip(&model, j, m).0, expected, "er {er}, j {j}, m {m}");
                }
            }
        }
    }

    /// FNV-1a over 64-bit words, for pinning fault-stream output.
    struct WordHash(u64);

    impl WordHash {
        fn word(&mut self, w: u64) {
            for b in w.to_le_bytes() {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }

        fn stats(&mut self, s: &FaultStats) {
            self.word(s.multiplies);
            self.word(s.faulty);
            for &c in &s.bit_flips {
                self.word(c);
            }
        }
    }

    /// Products of every active width from 0 (near-zero) up to 62 bits,
    /// each width's top bit set, alternating in sign.
    fn pin_products(n: usize, salt: u64) -> Vec<i64> {
        let mut x = 0x2545_f491_4f6c_dd1d ^ salt;
        (0..n)
            .map(|i| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let width = (i % 63) as u32;
                let p = if width == 0 {
                    0
                } else {
                    ((x >> (64 - width)) | (1 << (width - 1))) as i64
                };
                if i % 2 == 0 {
                    p
                } else {
                    -p
                }
            })
            .collect()
    }

    /// Drives one lane of `batch` over `products` in rows of `row`
    /// multiplications, the way the batched MAC loop does, hashing every
    /// latched product.
    fn drive_lane<const LANES: usize>(
        batch: &mut BatchFaultStream<'_, LANES>,
        lane: usize,
        products: &[i64],
        row: usize,
        h: &mut WordHash,
    ) {
        for span in products.chunks(row) {
            let mut at = 0;
            while at < span.len() {
                match batch.lane_run(lane, (span.len() - at) as u64) {
                    None => {
                        span[at..].iter().for_each(|&p| h.word(p as u64));
                        at = span.len();
                    }
                    Some(offset) => {
                        let event = at + offset as usize;
                        span[at..event].iter().for_each(|&p| h.word(p as u64));
                        h.word(batch.fault(lane, span[event]) as u64);
                        at = event + 1;
                    }
                }
            }
        }
    }

    #[test]
    fn event_law_output_is_pinned() {
        // Every corrupted product and every statistic the scalar stream
        // and the one- and eight-lane batch streams produce, across
        // `EVENT_RATES`. Captured before the event law was rewritten on
        // integer cuts; any change to a drawn bit moves it.
        let mut h = WordHash(0xcbf2_9ce4_8422_2325);
        for er in EVENT_RATES {
            let model = FaultModel::from_error_rate(er).expect("valid");
            for seed in 0..4u64 {
                let products = pin_products(4_000, seed);
                let mut scalar = FaultStream::new(&model, seed);
                for &p in &products {
                    h.word(scalar.corrupt_product(p) as u64);
                }
                h.stats(&scalar.stats());
                let mut one = BatchFaultStream::<1>::new(&model, [seed ^ 0x51]);
                drive_lane(&mut one, 0, &products, 13, &mut h);
                h.stats(&one.stats(0));
                let seeds: [u64; 8] = std::array::from_fn(|l| seed * 8 + l as u64);
                let mut eight = BatchFaultStream::<8>::new(&model, seeds);
                for lane in 0..8 {
                    drive_lane(&mut eight, lane, &products[lane * 400..], 16, &mut h);
                    h.stats(&eight.stats(lane));
                }
            }
        }
        assert_eq!(h.0, 0x6e59_2e8f_74f0_5eeb, "the fault event law moved");
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
