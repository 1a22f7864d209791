//! The unprotected baseline HMD: an MLP over instruction-category features.

use crate::detector::{Detector, Label};
use shmd_ann::network::{InferenceScratch, Network, QuantizedNetwork};
use shmd_volt::fault::ExactLanes;
use shmd_workload::features::{FeatureSpec, FEATURE_DIM};
use shmd_workload::trace::Trace;

/// A trained, deterministic HMD.
///
/// The baseline scores with its quantised Q16.16 model through an exact
/// datapath — the very same datapath a [`crate::stochastic::StochasticHmd`]
/// undervolts, so baseline and protected detector differ *only* in supply
/// voltage, exactly as the paper deploys them.
#[derive(Clone, Debug)]
pub struct BaselineHmd {
    name: String,
    spec: FeatureSpec,
    network: Network,
    quantized: QuantizedNetwork,
    threshold: f64,
    /// Reusable activation buffers for the `&mut self` scoring path; pure
    /// scratch state, excluded from equality.
    scratch: InferenceScratch,
}

impl PartialEq for BaselineHmd {
    fn eq(&self, other: &BaselineHmd) -> bool {
        self.name == other.name
            && self.spec == other.spec
            && self.network == other.network
            && self.quantized == other.quantized
            && self.threshold == other.threshold
    }
}

impl BaselineHmd {
    /// Wraps a trained network as a detector with the default `0.5`
    /// decision threshold.
    ///
    /// # Panics
    ///
    /// Panics if the network's output is not a single score.
    pub fn new(name: impl Into<String>, spec: FeatureSpec, network: Network) -> BaselineHmd {
        assert_eq!(network.output_dim(), 1, "an HMD outputs one malware score");
        let quantized = network.quantized();
        BaselineHmd {
            name: name.into(),
            spec,
            network,
            quantized,
            threshold: 0.5,
            scratch: InferenceScratch::new(),
        }
    }

    /// Sets the decision threshold (e.g. one tuned with
    /// [`crate::roc::RocCurve::threshold_for_fpr`] to meet a deployment
    /// FPR budget). Every consumer — [`Detector::classify`], the §VI
    /// sweeps, and any [`crate::stochastic::StochasticHmd`] protecting
    /// this model — uses it, so exploration and deployment numbers agree.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is not a probability.
    #[must_use]
    pub fn with_threshold(mut self, threshold: f64) -> BaselineHmd {
        assert!(
            threshold.is_finite() && (0.0..=1.0).contains(&threshold),
            "threshold {threshold} must be a probability"
        );
        self.threshold = threshold;
        self
    }

    /// The feature specification this detector consumes.
    pub fn spec(&self) -> FeatureSpec {
        self.spec
    }

    /// The underlying float network.
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// The quantised deployment model.
    pub fn quantized(&self) -> &QuantizedNetwork {
        &self.quantized
    }

    /// Scores an already-extracted feature vector (deterministic).
    ///
    /// Allocates per call; callers holding a scratch (or `&mut self` — see
    /// [`Detector::score`]) get the allocation-free path via
    /// [`BaselineHmd::score_features_with`].
    ///
    /// # Panics
    ///
    /// Panics if the feature width mismatches the network input.
    pub fn score_features(&self, features: &[f32]) -> f64 {
        f64::from(self.quantized.infer(features, &mut ExactLanes)[0])
    }

    /// Like [`BaselineHmd::score_features`] but reusing caller-provided
    /// activation buffers: zero heap allocation on the steady path.
    ///
    /// # Panics
    ///
    /// Panics if the feature width mismatches the network input.
    pub fn score_features_with(&self, features: &[f32], scratch: &mut InferenceScratch) -> f64 {
        let out = self
            .quantized
            .infer_into(features, &mut ExactLanes, scratch);
        f64::from(out[0].to_f32())
    }

    /// Deterministic classification of a feature vector against this
    /// detector's threshold.
    ///
    /// # Panics
    ///
    /// Panics if the feature width mismatches the network input.
    pub fn classify_features(&self, features: &[f32]) -> Label {
        Label::from_bool(self.score_features(features) >= self.threshold)
    }
}

impl Detector for BaselineHmd {
    fn name(&self) -> &str {
        &self.name
    }

    fn score(&mut self, trace: &Trace) -> f64 {
        let mut features = [0.0; FEATURE_DIM];
        self.spec.extract_into(trace, &mut features);
        let out = self
            .quantized
            .infer_into(&features, &mut ExactLanes, &mut self.scratch);
        f64::from(out[0].to_f32())
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
    use shmd_workload::dataset::{Dataset, DatasetConfig};

    fn trained() -> (Dataset, BaselineHmd) {
        let dataset = Dataset::generate(&DatasetConfig::small(100), 11);
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
    fn baseline_detects_held_out_malware() {
        let (dataset, mut hmd) = trained();
        let split = dataset.three_fold_split(0);
        let m = ConfusionMatrix::from_pairs(split.testing().iter().map(|&i| {
            (
                hmd.classify(dataset.trace(i)).is_malware(),
                dataset.program(i).is_malware(),
            )
        }));
        assert!(m.accuracy() > 0.9, "baseline accuracy {}", m.accuracy());
    }

    #[test]
    fn baseline_is_deterministic() {
        let (dataset, mut hmd) = trained();
        let t = dataset.trace(0);
        let a = hmd.score(t);
        let b = hmd.score(t);
        assert_eq!(a, b, "the unprotected HMD must be deterministic");
    }

    #[test]
    fn scores_are_probabilities() {
        let (dataset, mut hmd) = trained();
        for i in 0..dataset.len().min(30) {
            let s = hmd.score(dataset.trace(i));
            assert!((0.0..=1.0).contains(&s), "score {s}");
        }
    }

    #[test]
    fn feature_and_trace_paths_agree() {
        let (dataset, mut hmd) = trained();
        let t = dataset.trace(2);
        let f = hmd.spec().extract(t);
        assert_eq!(hmd.score(t), hmd.score_features(&f));
    }

    #[test]
    fn tuned_threshold_drives_classification() {
        let (dataset, hmd) = trained();
        let t = dataset.trace(0);
        let f = hmd.spec().extract(t);
        let score = hmd.score_features(&f);
        let strict = hmd
            .clone()
            .with_threshold((score + 1.0).min(1.0) / 2.0 + 0.49);
        let lenient = hmd.clone().with_threshold(0.0);
        assert_eq!(Detector::threshold(&lenient), 0.0);
        assert!(lenient.classify_features(&f).is_malware());
        if score < Detector::threshold(&strict) {
            assert!(!strict.classify_features(&f).is_malware());
        }
    }

    #[test]
    fn scratch_scoring_matches_allocating_path() {
        let (dataset, mut hmd) = trained();
        let mut scratch = InferenceScratch::new();
        for i in 0..10 {
            let t = dataset.trace(i);
            let f = hmd.spec().extract(t);
            let plain = hmd.score_features(&f);
            assert_eq!(plain, hmd.score_features_with(&f, &mut scratch));
            assert_eq!(plain, hmd.score(t));
        }
    }

    #[test]
    fn equality_ignores_scratch_state() {
        let (dataset, mut hmd) = trained();
        let pristine = hmd.clone();
        hmd.score(dataset.trace(0)); // warms the internal scratch
        assert_eq!(hmd, pristine, "scratch buffers must not affect equality");
    }

    #[test]
    #[should_panic(expected = "must be a probability")]
    fn non_probability_threshold_is_rejected() {
        let (_, hmd) = trained();
        let _ = hmd.with_threshold(1.5);
    }

    #[test]
    #[should_panic(expected = "one malware score")]
    fn multi_output_network_is_rejected() {
        use shmd_ann::builder::NetworkBuilder;
        let net = NetworkBuilder::new(16).output(2).build().unwrap();
        let _ = BaselineHmd::new("bad", FeatureSpec::frequency(), net);
    }
}
