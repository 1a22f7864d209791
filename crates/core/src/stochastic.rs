//! The Stochastic-HMD: the baseline model inferred on an undervolted core.

use crate::baseline::BaselineHmd;
use crate::detector::Detector;
use shmd_ann::network::{BatchScratch, InferenceScratch, QuantizedNetwork};
use shmd_volt::calibration::CalibrationCurve;
use shmd_volt::fault::{FaultModel, FaultModelError, FaultModelState, FaultStream, LaneCorruptor};
use shmd_volt::voltage::Millivolts;
use shmd_workload::features::{FeatureSpec, FEATURE_DIM};
use shmd_workload::trace::Trace;

/// A Stochastic-HMD: the *unmodified* trained model whose inference runs on
/// an undervolted multiplier, turning its decision boundary into a moving
/// target.
///
/// Construction never retrains or alters the model ("no retraining or fine
/// tuning is needed") — it only attaches a fault model, the software twin of
/// writing an undervolt offset to MSR `0x150`.
#[derive(Clone, Debug)]
pub struct StochasticHmd {
    name: String,
    spec: FeatureSpec,
    quantized: QuantizedNetwork,
    /// The detector's own fault stream, driven by
    /// [`StochasticHmd::score_features`]. It owns the live fault model that
    /// [`StochasticHmd::fault_model`] lends to external streams.
    stream: FaultStream<FaultModel>,
    error_rate: f64,
    offset: Option<Millivolts>,
    threshold: f64,
    /// Reusable activation buffers: the steady-state query path allocates
    /// nothing (see [`InferenceScratch`]).
    scratch: InferenceScratch,
}

/// Near-zero immunity width for the Q16.16 inference datapath.
///
/// The fault stream sees raw Q32.32 products, but the datapath only latches the
/// upper 32-bit Q16.16 word: faults below [`shmd_fixed::FRAC_BITS`] are
/// discarded by the normalising shift, and the immune-LSB zone of the §II
/// characterisation (the bottom 8 of 64 output columns, whose carry chains
/// are too short to violate timing) scales to the bottom 4 columns of the
/// 32-bit latched word. Products narrower than `16 + 4` raw bits — latched
/// magnitude below 2⁻¹² of unit scale — therefore never fault, which is how
/// the paper's stated limitation manifests end-to-end (§IX: "models that
/// operate on numbers that are very close to zero are not protected").
const DATAPATH_NEAR_ZERO_WIDTH: u32 =
    shmd_fixed::FRAC_BITS + (shmd_volt::multiplier::IMMUNE_LSBS as u32) / 2;

/// Adapts a fault model to the Q16.16 datapath's latch: immunity is judged
/// on latched bits, never below the raw-integer default.
fn for_datapath(model: FaultModel) -> FaultModel {
    let width = model.near_zero_width().max(DATAPATH_NEAR_ZERO_WIDTH);
    model.with_near_zero_width(width)
}

/// The operating point of a [`StochasticHmd`], for checkpointing: what the
/// detector holds beyond its (immutable, re-derivable) baseline model. The
/// fault law is stored as its free parameters, so
/// [`StochasticHmd::from_state`] rebuilds a detector whose
/// [`StochasticHmd::fault_model`] equals the original's, and any stream
/// seeded alike scores bit-identically against either. The detector's own
/// stream is not captured: a restore starts it afresh from a seed.
#[derive(Clone, Debug, PartialEq)]
pub struct StochasticHmdState {
    /// Display name (encodes how the detector was constructed).
    pub name: String,
    /// The effective multiplication error rate.
    pub error_rate: f64,
    /// The physical undervolt offset, when calibrated.
    pub offset: Option<Millivolts>,
    /// Decision threshold.
    pub threshold: f64,
    /// The live fault law's free parameters (already adapted to the
    /// datapath's near-zero width).
    pub model: FaultModelState,
}

impl StochasticHmd {
    /// Protects a baseline HMD with the abstract error-rate knob — the
    /// quantity the paper's space exploration sweeps. `er = 0.1` is the
    /// paper's selected operating point.
    ///
    /// # Errors
    ///
    /// Returns [`FaultModelError::InvalidErrorRate`] if `er` is outside
    /// `[0, 1]`.
    pub fn from_baseline(
        base: &BaselineHmd,
        er: f64,
        seed: u64,
    ) -> Result<StochasticHmd, FaultModelError> {
        let model = for_datapath(FaultModel::from_error_rate(er)?);
        Ok(StochasticHmd {
            name: format!("stochastic({}, er={er})", Detector::name(base)),
            spec: base.spec(),
            quantized: base.quantized().clone(),
            stream: FaultStream::new(model, seed),
            error_rate: er,
            offset: None,
            threshold: Detector::threshold(base),
            scratch: InferenceScratch::new(),
        })
    }

    /// Protects a baseline HMD with an explicit fault model (for ablation
    /// studies — e.g. varying the carry-ripple tail).
    pub fn with_fault_model(base: &BaselineHmd, model: FaultModel, seed: u64) -> StochasticHmd {
        let model = for_datapath(model);
        let er = model.error_rate();
        StochasticHmd {
            name: format!("stochastic({}, custom er={er})", Detector::name(base)),
            spec: base.spec(),
            quantized: base.quantized().clone(),
            stream: FaultStream::new(model, seed),
            error_rate: er,
            offset: None,
            threshold: Detector::threshold(base),
            scratch: InferenceScratch::new(),
        }
    }

    /// Protects a baseline HMD by running it at a physical undervolt offset
    /// on a calibrated device.
    ///
    /// # Errors
    ///
    /// Propagates fault-model construction errors (cannot occur for offsets
    /// within the calibrated range).
    pub fn at_offset(
        base: &BaselineHmd,
        curve: &CalibrationCurve,
        offset: Millivolts,
        seed: u64,
    ) -> Result<StochasticHmd, FaultModelError> {
        let model = for_datapath(curve.fault_model_at(offset)?);
        let er = model.error_rate();
        Ok(StochasticHmd {
            name: format!(
                "stochastic({}, {offset} on {})",
                Detector::name(base),
                curve.device()
            ),
            spec: base.spec(),
            quantized: base.quantized().clone(),
            stream: FaultStream::new(model, seed),
            error_rate: er,
            offset: Some(offset),
            threshold: Detector::threshold(base),
            scratch: InferenceScratch::new(),
        })
    }

    /// The effective multiplication error rate.
    pub fn error_rate(&self) -> f64 {
        self.error_rate
    }

    /// The physical undervolt offset, when constructed from a calibration
    /// curve.
    pub fn offset(&self) -> Option<Millivolts> {
        self.offset
    }

    /// The feature specification this detector consumes.
    pub fn spec(&self) -> FeatureSpec {
        self.spec
    }

    /// Accumulated fault statistics of the detector's own stream (the one
    /// [`StochasticHmd::score_features`] drives).
    pub fn fault_stats(&self) -> shmd_volt::fault::FaultStats {
        self.stream.stats()
    }

    /// The live fault model — the law an external corruption stream (e.g.
    /// a per-query [`shmd_volt::fault::FaultStream`]) must borrow to score
    /// under this detector's current calibration. Tracks
    /// [`StochasticHmd::retune`]: after a retune, newly constructed
    /// streams sample under the new error rate.
    pub fn fault_model(&self) -> &FaultModel {
        self.stream.model()
    }

    /// Retunes the live fault model to a new delivered error rate — the
    /// software twin of the physical world moving while the applied offset
    /// stays put (die temperature drifted, so the same undervolt now
    /// delivers a different fault rate). The detector's own stream keeps
    /// its RNG and accumulated statistics; only the fault law changes, for
    /// it and for every stream built afterwards from
    /// [`StochasticHmd::fault_model`].
    ///
    /// # Errors
    ///
    /// Returns [`FaultModelError::InvalidErrorRate`] if `er` is outside
    /// `[0, 1]`.
    pub fn retune(&mut self, er: f64) -> Result<(), FaultModelError> {
        let model = for_datapath(FaultModel::from_error_rate(er)?);
        self.stream.set_model(model);
        self.error_rate = er;
        Ok(())
    }

    /// Moves the detector to a new physical operating point in place — the
    /// software twin of writing a fresh undervolt offset to MSR `0x150`
    /// under a live detector (the budget scheduler's retarget path). Like
    /// [`StochasticHmd::retune`], the detector's own stream keeps its RNG
    /// and accumulated statistics; the fault law and the recorded offset
    /// change together so subsequent physics sweeps reason from the new
    /// operating point.
    ///
    /// # Errors
    ///
    /// Returns [`FaultModelError::InvalidErrorRate`] if `delivered_er` is
    /// outside `[0, 1]`.
    pub fn apply_offset(
        &mut self,
        offset: Millivolts,
        delivered_er: f64,
    ) -> Result<(), FaultModelError> {
        let model = for_datapath(FaultModel::from_error_rate(delivered_er)?);
        self.stream.set_model(model);
        self.error_rate = delivered_er;
        self.offset = Some(offset);
        Ok(())
    }

    /// Snapshots the detector's operating point for checkpointing: name,
    /// error rate, offset, threshold and fault law. The baseline model
    /// itself (weights, feature spec) is not captured — a restore rebuilds
    /// those from the baseline the service redeploys with — and neither is
    /// the detector's own stream.
    pub fn export_state(&self) -> StochasticHmdState {
        StochasticHmdState {
            name: self.name.clone(),
            error_rate: self.error_rate,
            offset: self.offset,
            threshold: self.threshold,
            model: self.fault_model().export_state(),
        }
    }

    /// Rebuilds a detector from an [`StochasticHmd::export_state`] snapshot
    /// against the baseline it was originally protecting. The fault law is
    /// restored verbatim (the snapshot's model already carries the
    /// datapath's near-zero width; it is *not* re-derived), so streams
    /// built from [`StochasticHmd::fault_model`] score bit-identically to
    /// the original's. The detector's own stream starts afresh from
    /// `seed`, with empty statistics.
    ///
    /// # Errors
    ///
    /// Propagates [`FaultModelError::InvalidState`] when the snapshot's
    /// model fails validation (see [`FaultModel::from_state`]).
    pub fn from_state(
        base: &BaselineHmd,
        state: StochasticHmdState,
        seed: u64,
    ) -> Result<StochasticHmd, FaultModelError> {
        let model = FaultModel::from_state(state.model)?;
        Ok(StochasticHmd {
            name: state.name,
            spec: base.spec(),
            quantized: base.quantized().clone(),
            stream: FaultStream::new(model, seed),
            error_rate: state.error_rate,
            offset: state.offset,
            threshold: state.threshold,
            scratch: InferenceScratch::new(),
        })
    }

    /// Scores an already-extracted feature vector (one stochastic
    /// detection).
    ///
    /// This is the deployment hot path: the detector's own stream drives
    /// the one-lane inference kernel and the activations live in the
    /// detector's [`InferenceScratch`], so a steady stream of queries
    /// performs no heap allocation and no per-MAC RNG draws (geometric gap
    /// sampling inside [`FaultStream`]). One stream runs across queries and
    /// across [`StochasticHmd::retune`] and [`StochasticHmd::apply_offset`].
    ///
    /// # Panics
    ///
    /// Panics if the feature width mismatches the network input.
    pub fn score_features(&mut self, features: &[f32]) -> f64 {
        let out = self
            .quantized
            .infer_into(features, &mut self.stream, &mut self.scratch);
        f64::from(out[0].to_f32())
    }

    /// Scores a feature vector through an *external* corruption stream,
    /// leaving the detector untouched (`&self`): the caller owns the fault
    /// stream and the scratch space, so many workers can score against one
    /// shared detector concurrently. It is
    /// [`StochasticHmd::score_features_batch_with`] at width 1, typically
    /// driven by a [`shmd_volt::fault::FaultStream`] borrowed from
    /// [`StochasticHmd::fault_model`].
    ///
    /// # Panics
    ///
    /// Panics if the feature width mismatches the network input.
    pub fn score_features_with<C: LaneCorruptor<1> + ?Sized>(
        &self,
        features: &[f32],
        corruptor: &mut C,
        scratch: &mut InferenceScratch,
    ) -> f64 {
        self.score_features_batch_with(&[features], corruptor, scratch)[0]
    }

    /// Scores `LANES` feature vectors simultaneously through one
    /// structure-of-arrays forward pass. Lane `l`'s score is bit-identical
    /// to `score_features_with(features[l], ..)` driven by the corruptor
    /// stream lane `l` wraps, because the kernel advances every lane
    /// through the same per-multiplication schedule at every width.
    ///
    /// # Panics
    ///
    /// Panics if any lane's feature width mismatches the network input.
    pub fn score_features_batch_with<const LANES: usize, C>(
        &self,
        features: &[&[f32]; LANES],
        corruptor: &mut C,
        scratch: &mut BatchScratch<LANES>,
    ) -> [f64; LANES]
    where
        C: LaneCorruptor<LANES> + ?Sized,
    {
        let out = self
            .quantized
            .infer_batch_into(features, corruptor, scratch);
        std::array::from_fn(|l| f64::from(out[l].to_f32()))
    }
}

impl Detector for StochasticHmd {
    fn name(&self) -> &str {
        &self.name
    }

    fn score(&mut self, trace: &Trace) -> f64 {
        let mut features = [0.0; FEATURE_DIM];
        self.spec.extract_into(trace, &mut features);
        self.score_features(&features)
    }

    fn threshold(&self) -> f64 {
        self.threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::{train_baseline, HmdTrainConfig};
    use shmd_ml::metrics::ConfusionMatrix;
    use shmd_volt::calibration::{Calibrator, DeviceProfile};
    use shmd_workload::dataset::{Dataset, DatasetConfig};

    fn setup() -> (Dataset, BaselineHmd) {
        let dataset = Dataset::generate(&DatasetConfig::small(100), 21);
        let split = dataset.three_fold_split(0);
        let hmd = train_baseline(
            &dataset,
            split.victim_training(),
            FeatureSpec::frequency(),
            &HmdTrainConfig::fast(),
        )
        .expect("training succeeds");
        (dataset, hmd)
    }

    #[test]
    fn invalid_error_rate_is_rejected() {
        let (_, base) = setup();
        assert!(StochasticHmd::from_baseline(&base, 1.5, 0).is_err());
    }

    #[test]
    fn zero_error_rate_matches_baseline() {
        let (dataset, base) = setup();
        let mut protected = StochasticHmd::from_baseline(&base, 0.0, 0).expect("valid");
        for i in 0..20 {
            let t = dataset.trace(i);
            assert_eq!(
                protected.score(t),
                base.score_features(&base.spec().extract(t))
            );
        }
    }

    #[test]
    fn accuracy_loss_is_small_at_er_0_1() {
        // Paper headline: < 2% accuracy loss at the er = 0.1 operating
        // point (we allow a slightly wider band on the small test dataset).
        let (dataset, base) = setup();
        let split = dataset.three_fold_split(0);
        let mut baseline_m = ConfusionMatrix::new();
        for &i in split.testing() {
            let f = base.spec().extract(dataset.trace(i));
            baseline_m.record(
                base.classify_features(&f).is_malware(),
                dataset.program(i).is_malware(),
            );
        }
        let mut protected = StochasticHmd::from_baseline(&base, 0.1, 7).expect("valid");
        let mut protected_m = ConfusionMatrix::new();
        for _ in 0..5 {
            for &i in split.testing() {
                protected_m.record(
                    protected.classify(dataset.trace(i)).is_malware(),
                    dataset.program(i).is_malware(),
                );
            }
        }
        let loss = baseline_m.accuracy() - protected_m.accuracy();
        assert!(
            loss < 0.06,
            "accuracy loss {loss} too high (baseline {}, stochastic {})",
            baseline_m.accuracy(),
            protected_m.accuracy()
        );
    }

    #[test]
    fn apply_offset_moves_the_operating_point_and_keeps_the_stream() {
        let (dataset, base) = setup();
        let curve = Calibrator::new()
            .with_step(2)
            .calibrate(&DeviceProfile::reference());
        let offset = curve.offset_for_error_rate(0.1).expect("reachable");
        let mut hmd = StochasticHmd::at_offset(&base, &curve, offset, 5).expect("valid");
        hmd.score(dataset.trace(0));
        let stats_before = hmd.fault_stats();
        let deeper = curve.offset_for_error_rate(0.3).expect("reachable");
        hmd.apply_offset(deeper, 0.3).expect("valid rate");
        assert_eq!(hmd.offset(), Some(deeper));
        assert_eq!(hmd.error_rate(), 0.3);
        // Like retune, the move keeps the detector stream's RNG and its
        // accumulated statistics.
        assert_eq!(hmd.fault_stats().multiplies, stats_before.multiplies);
        assert!(hmd.apply_offset(deeper, 1.5).is_err());
    }

    #[test]
    fn borrowed_stream_scoring_matches_the_owned_stream() {
        use shmd_volt::fault::FaultStream;
        let (dataset, base) = setup();
        let mut owned = StochasticHmd::from_baseline(&base, 0.3, 17).expect("valid");
        let shared = StochasticHmd::from_baseline(&base, 0.3, 17).expect("valid");
        let mut scratch = InferenceScratch::new();
        // A fresh FaultStream re-seeded from the detector seed walks the
        // same RNG stream as the just-constructed owned stream, so the
        // first query must score bit-identically; later queries continue
        // the owned stream while each borrowed stream restarts, so only
        // the first is comparable.
        let features = base.spec().extract(dataset.trace(0));
        let mut stream = FaultStream::new(shared.fault_model(), 17);
        assert_eq!(
            shared.score_features_with(&features, &mut stream, &mut scratch),
            owned.score_features(&features),
        );
        // `&self` scoring leaves the shared detector's stats untouched.
        assert_eq!(shared.fault_stats().multiplies, 0);
        assert!(stream.stats().multiplies > 0);
    }

    #[test]
    fn scores_vary_across_queries() {
        let (dataset, base) = setup();
        let mut protected = StochasticHmd::from_baseline(&base, 0.5, 3).expect("valid");
        let t = dataset.trace(1);
        let scores: std::collections::HashSet<u64> =
            (0..50).map(|_| protected.score(t).to_bits()).collect();
        assert!(scores.len() > 1, "moving-target defense must vary scores");
    }

    #[test]
    fn same_seed_is_reproducible() {
        let (dataset, base) = setup();
        let mut a = StochasticHmd::from_baseline(&base, 0.3, 5).expect("valid");
        let mut b = StochasticHmd::from_baseline(&base, 0.3, 5).expect("valid");
        for i in 0..10 {
            assert_eq!(a.score(dataset.trace(i)), b.score(dataset.trace(i)));
        }
    }

    #[test]
    fn physical_offset_construction_works() {
        let (dataset, base) = setup();
        let curve = Calibrator::new()
            .with_step(2)
            .calibrate(&DeviceProfile::reference());
        let offset = curve.offset_for_error_rate(0.1).expect("reachable");
        let mut protected = StochasticHmd::at_offset(&base, &curve, offset, 1).expect("valid");
        assert_eq!(protected.offset(), Some(offset));
        assert!(protected.error_rate() > 0.05);
        let s = protected.score(dataset.trace(0));
        assert!((0.0..=1.0).contains(&s));
    }

    #[test]
    fn protection_inherits_the_baseline_threshold() {
        let (_, base) = setup();
        let tuned = base.clone().with_threshold(0.7);
        let protected = StochasticHmd::from_baseline(&tuned, 0.1, 4).expect("valid");
        assert_eq!(Detector::threshold(&protected), 0.7);
    }

    #[test]
    fn retune_changes_the_fault_law_in_place() {
        let (dataset, base) = setup();
        let mut protected = StochasticHmd::from_baseline(&base, 0.0, 9).expect("valid");
        let t = dataset.trace(0);
        protected.score(t);
        assert_eq!(protected.fault_stats().faulty, 0, "er 0 never faults");
        protected.retune(0.5).expect("valid rate");
        assert_eq!(protected.error_rate(), 0.5);
        for _ in 0..5 {
            protected.score(t);
        }
        let after = protected.fault_stats();
        assert!(after.faulty > 0, "retuned stream must fault");
        assert_eq!(
            after.multiplies as usize,
            6 * base.quantized().mac_count(),
            "statistics survive the model swap"
        );
        assert!(protected.retune(1.5).is_err());
    }

    #[test]
    fn retuned_model_equals_a_fresh_build_over_a_sweep_of_rates() {
        // Fault models are rebuilt on every retune, never looked up, so a
        // detector retuned from its deploy rate must hold exactly the law a
        // fresh deployment at the new rate builds — and keep it through a
        // state round-trip — with injectors that sample bit-identically.
        use shmd_volt::fault::{FaultModel, FaultStream};
        let (_, base) = setup();
        for k in 0..9 {
            let er = 0.01 + 0.055 * f64::from(k);
            let mut retuned = StochasticHmd::from_baseline(&base, 0.1, 5).expect("valid");
            retuned.retune(er).expect("valid rate");
            let fresh = StochasticHmd::from_baseline(&base, er, 6).expect("valid");
            assert_eq!(retuned.fault_model(), fresh.fault_model(), "er {er}");
            let round_trip =
                FaultModel::from_state(retuned.fault_model().export_state()).expect("valid state");
            assert_eq!(&round_trip, fresh.fault_model(), "er {er} state round-trip");
            let mut a = FaultStream::new(retuned.fault_model(), 99);
            let mut b = FaultStream::new(fresh.fault_model(), 99);
            for i in 0..10_000i64 {
                let p = (i * 0x5851_f42d) << 16;
                assert_eq!(
                    a.corrupt_product(p),
                    b.corrupt_product(p),
                    "er {er}, product {i}"
                );
            }
            assert_eq!(a.stats(), b.stats(), "er {er}");
            assert!(a.stats().faulty > 0, "er {er} must fault");
        }
    }

    #[test]
    fn exported_state_restores_the_operating_point_and_fault_law() {
        use shmd_volt::fault::FaultStream;
        let (dataset, base) = setup();
        let curve = Calibrator::new()
            .with_step(2)
            .calibrate(&DeviceProfile::reference());
        let offset = curve.offset_for_error_rate(0.1).expect("reachable");
        let mut original = StochasticHmd::at_offset(&base, &curve, offset, 17).expect("valid");
        // A retune after some scoring gives a non-default fault law.
        for i in 0..7 {
            original.score(dataset.trace(i));
        }
        original.retune(0.45).expect("valid rate");
        let restored =
            StochasticHmd::from_state(&base, original.export_state(), 17).expect("valid state");
        assert_eq!(Detector::name(&restored), Detector::name(&original));
        assert_eq!(restored.error_rate(), original.error_rate());
        assert_eq!(restored.offset(), Some(offset));
        assert_eq!(
            Detector::threshold(&restored),
            Detector::threshold(&original)
        );
        assert_eq!(restored.fault_model(), original.fault_model());
        let mut scratch = InferenceScratch::new();
        for i in 0..40 {
            let features = base.spec().extract(dataset.trace(i % dataset.len()));
            let seed = 1000 + i as u64;
            let mut a = FaultStream::new(original.fault_model(), seed);
            let mut b = FaultStream::new(restored.fault_model(), seed);
            assert_eq!(
                original
                    .score_features_with(&features, &mut a, &mut scratch)
                    .to_bits(),
                restored
                    .score_features_with(&features, &mut b, &mut scratch)
                    .to_bits(),
                "scores diverged at query {i}"
            );
            assert_eq!(a.stats(), b.stats());
        }
    }

    #[test]
    fn fault_stats_accumulate() {
        let (dataset, base) = setup();
        let mut protected = StochasticHmd::from_baseline(&base, 0.2, 2).expect("valid");
        protected.score(dataset.trace(0));
        let stats = protected.fault_stats();
        assert_eq!(stats.multiplies as usize, base.quantized().mac_count());
    }
}
