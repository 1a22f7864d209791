//! RHMD (MICRO 2017) — the randomization-based comparison defense.
//!
//! RHMD resists reverse engineering by storing several *diverse* base
//! detectors and switching among them uniformly at random on every
//! detection. Diversity comes from training on different feature vectors
//! (F) and different detection periods (P); the paper evaluates the four
//! constructions RHMD-2F, RHMD-3F, RHMD-2F2P, and RHMD-3F2P.
//!
//! Unlike a Stochastic-HMD, an RHMD must store every base detector
//! (memory), select one per query (latency), and runs at nominal voltage
//! (power) — the §VIII overheads.

use crate::baseline::BaselineHmd;
use crate::detector::Detector;
use crate::train::{train_baseline, HmdTrainConfig, TrainHmdError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use shmd_ml::anomaly::{AnomalyConfig, AnomalyScorer};
use shmd_workload::dataset::Dataset;
use shmd_workload::features::{DetectionPeriod, FeatureKind, FeatureSpec, FEATURE_DIM};
use shmd_workload::trace::Trace;
use std::fmt;

/// The four RHMD constructions evaluated by the paper (§VII-C).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RhmdConstruction {
    /// Two feature vectors, one detection period.
    TwoFeatures,
    /// Three feature vectors, one detection period.
    ThreeFeatures,
    /// Two feature vectors × two detection periods (4 base detectors).
    TwoFeaturesTwoPeriods,
    /// Three feature vectors × two detection periods (6 base detectors).
    ThreeFeaturesTwoPeriods,
}

impl RhmdConstruction {
    /// All constructions, in the paper's order.
    pub const ALL: [RhmdConstruction; 4] = [
        RhmdConstruction::TwoFeatures,
        RhmdConstruction::ThreeFeatures,
        RhmdConstruction::TwoFeaturesTwoPeriods,
        RhmdConstruction::ThreeFeaturesTwoPeriods,
    ];

    /// The feature specifications of the base detectors.
    pub fn specs(self) -> Vec<FeatureSpec> {
        let kinds: &[FeatureKind] = match self {
            RhmdConstruction::TwoFeatures | RhmdConstruction::TwoFeaturesTwoPeriods => {
                &[FeatureKind::Frequency, FeatureKind::Burstiness]
            }
            RhmdConstruction::ThreeFeatures | RhmdConstruction::ThreeFeaturesTwoPeriods => {
                &FeatureKind::ALL
            }
        };
        let periods: &[DetectionPeriod] = match self {
            RhmdConstruction::TwoFeatures | RhmdConstruction::ThreeFeatures => {
                &[DetectionPeriod::EVERY_WINDOW]
            }
            RhmdConstruction::TwoFeaturesTwoPeriods | RhmdConstruction::ThreeFeaturesTwoPeriods => {
                &[DetectionPeriod::EVERY_WINDOW, DetectionPeriod::EVERY_OTHER]
            }
        };
        let mut out = Vec::new();
        for &p in periods {
            for &k in kinds {
                out.push(FeatureSpec::new(k, p));
            }
        }
        out
    }

    /// Number of base detectors the construction stores.
    pub fn detector_count(self) -> usize {
        self.specs().len()
    }
}

impl fmt::Display for RhmdConstruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            RhmdConstruction::TwoFeatures => "RHMD-2F",
            RhmdConstruction::ThreeFeatures => "RHMD-3F",
            RhmdConstruction::TwoFeaturesTwoPeriods => "RHMD-2F2P",
            RhmdConstruction::ThreeFeaturesTwoPeriods => "RHMD-3F2P",
        };
        f.write_str(name)
    }
}

/// A trained RHMD: diverse base detectors plus a switching RNG, and
/// optionally a Tang-style unsupervised anomaly scorer as one more
/// switching target (see [`Rhmd::train_with_anomaly`]).
#[derive(Clone, Debug)]
pub struct Rhmd {
    name: String,
    construction: RhmdConstruction,
    bases: Vec<BaselineHmd>,
    /// Benign-only anomaly member: the feature spec it reads and the
    /// fitted scorer. Counts as one extra pick in the switching draw.
    anomaly: Option<(FeatureSpec, AnomalyScorer)>,
    rng: StdRng,
}

impl Rhmd {
    /// Trains an RHMD on a fold: one base detector per feature spec of the
    /// construction, each with a distinct initialisation seed.
    ///
    /// # Errors
    ///
    /// Propagates [`TrainHmdError`] from base-detector training.
    pub fn train(
        dataset: &Dataset,
        indices: &[usize],
        construction: RhmdConstruction,
        config: &HmdTrainConfig,
        switch_seed: u64,
    ) -> Result<Rhmd, TrainHmdError> {
        let mut bases = Vec::new();
        for (i, spec) in construction.specs().into_iter().enumerate() {
            let mut cfg = *config;
            cfg.seed = config.seed.wrapping_add(i as u64);
            bases.push(train_baseline(dataset, indices, spec, &cfg)?);
        }
        Ok(Rhmd {
            name: construction.to_string(),
            construction,
            bases,
            anomaly: None,
            rng: StdRng::seed_from_u64(switch_seed),
        })
    }

    /// Trains an RHMD whose switching pool additionally holds a
    /// Tang-style unsupervised anomaly scorer (RAID'14): fitted on the
    /// *benign* rows of the training fold only, over the construction's
    /// first feature spec. The scorer has a genuinely different failure
    /// surface from the supervised bases — an adversarial sample crafted
    /// against a discriminative boundary does not automatically sit
    /// inside the benign density — so the ensemble gains diversity at the
    /// cost of one more switching target.
    ///
    /// # Errors
    ///
    /// Propagates [`TrainHmdError`] from base-detector training;
    /// [`TrainHmdError::BadTrainingData`] when the fold holds no benign
    /// rows to fit the anomaly envelope on.
    pub fn train_with_anomaly(
        dataset: &Dataset,
        indices: &[usize],
        construction: RhmdConstruction,
        config: &HmdTrainConfig,
        switch_seed: u64,
    ) -> Result<Rhmd, TrainHmdError> {
        let mut rhmd = Rhmd::train(dataset, indices, construction, config, switch_seed)?;
        let spec = construction.specs()[0];
        let labeled = dataset.labeled_features(indices, spec);
        let benign: Vec<Vec<f32>> = labeled
            .inputs
            .iter()
            .zip(&labeled.labels)
            .filter(|(_, &malware)| !malware)
            .map(|(row, _)| row.clone())
            .collect();
        let scorer = AnomalyScorer::fit(&benign, &AnomalyConfig::default())
            .map_err(|e| TrainHmdError::BadTrainingData(e.to_string()))?;
        rhmd.name = format!("{construction}+A");
        rhmd.anomaly = Some((spec, scorer));
        Ok(rhmd)
    }

    /// The construction this RHMD implements.
    pub fn construction(&self) -> RhmdConstruction {
        self.construction
    }

    /// The base detectors.
    pub fn bases(&self) -> &[BaselineHmd] {
        &self.bases
    }

    /// The anomaly member, when trained via [`Rhmd::train_with_anomaly`].
    pub fn anomaly(&self) -> Option<&AnomalyScorer> {
        self.anomaly.as_ref().map(|(_, scorer)| scorer)
    }

    /// Total stored model size in bytes (every base detector, plus the
    /// anomaly member's moments when present).
    pub fn size_bytes(&self) -> usize {
        self.bases
            .iter()
            .map(|b| b.quantized().size_bytes())
            .sum::<usize>()
            + self
                .anomaly
                .as_ref()
                .map_or(0, |(_, scorer)| scorer.size_bytes())
    }
}

impl Detector for Rhmd {
    fn name(&self) -> &str {
        &self.name
    }

    fn score(&mut self, trace: &Trace) -> f64 {
        let pool = self.bases.len() + usize::from(self.anomaly.is_some());
        let pick = self.rng.gen_range(0..pool);
        match self.bases.get_mut(pick) {
            Some(base) => base.score(trace),
            None => match &self.anomaly {
                Some((spec, scorer)) => {
                    let mut features = [0.0; FEATURE_DIM];
                    spec.extract_into(trace, &mut features);
                    scorer.score(&features)
                }
                // Unreachable: pick < pool implies an anomaly member when
                // pick >= bases.len().
                None => 0.0,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::evaluate;
    use shmd_workload::dataset::DatasetConfig;

    fn dataset() -> Dataset {
        Dataset::generate(&DatasetConfig::small(100), 41)
    }

    #[test]
    fn constructions_have_paper_detector_counts() {
        assert_eq!(RhmdConstruction::TwoFeatures.detector_count(), 2);
        assert_eq!(RhmdConstruction::ThreeFeatures.detector_count(), 3);
        assert_eq!(RhmdConstruction::TwoFeaturesTwoPeriods.detector_count(), 4);
        assert_eq!(
            RhmdConstruction::ThreeFeaturesTwoPeriods.detector_count(),
            6
        );
    }

    #[test]
    fn specs_are_distinct() {
        for c in RhmdConstruction::ALL {
            let specs = c.specs();
            let set: std::collections::HashSet<_> = specs.iter().collect();
            assert_eq!(set.len(), specs.len(), "{c}: duplicate base specs");
        }
    }

    #[test]
    fn display_names_match_paper() {
        assert_eq!(RhmdConstruction::TwoFeatures.to_string(), "RHMD-2F");
        assert_eq!(
            RhmdConstruction::ThreeFeaturesTwoPeriods.to_string(),
            "RHMD-3F2P"
        );
    }

    #[test]
    fn rhmd_detects_malware() {
        let d = dataset();
        let split = d.three_fold_split(0);
        let mut rhmd = Rhmd::train(
            &d,
            split.victim_training(),
            RhmdConstruction::TwoFeatures,
            &HmdTrainConfig::fast(),
            7,
        )
        .expect("train");
        let m = evaluate(&mut rhmd, &d, split.testing());
        assert!(m.accuracy() > 0.85, "{m}");
    }

    #[test]
    fn rhmd_switching_produces_varying_scores() {
        let d = dataset();
        let split = d.three_fold_split(0);
        let mut rhmd = Rhmd::train(
            &d,
            split.victim_training(),
            RhmdConstruction::ThreeFeatures,
            &HmdTrainConfig::fast(),
            3,
        )
        .expect("train");
        // Saturated samples score exactly 1.0 on every base; look for at
        // least one test trace where switching is visible.
        let varying = split.testing().iter().any(|&i| {
            let t = d.trace(i);
            let scores: std::collections::HashSet<u64> =
                (0..30).map(|_| rhmd.score(t).to_bits()).collect();
            scores.len() > 1
        });
        assert!(varying, "random switching must vary scores somewhere");
    }

    #[test]
    fn anomaly_member_keeps_accuracy_and_grows_the_pool() {
        let d = dataset();
        let split = d.three_fold_split(0);
        let mut rhmd = Rhmd::train_with_anomaly(
            &d,
            split.victim_training(),
            RhmdConstruction::TwoFeatures,
            &HmdTrainConfig::fast(),
            7,
        )
        .expect("train");
        assert!(rhmd.anomaly().is_some());
        assert_eq!(rhmd.name(), "RHMD-2F+A");
        assert_eq!(rhmd.bases().len(), 2);
        // The anomaly member's moments count toward the stored size.
        let plain = Rhmd::train(
            &d,
            split.victim_training(),
            RhmdConstruction::TwoFeatures,
            &HmdTrainConfig::fast(),
            7,
        )
        .expect("train plain");
        assert!(rhmd.size_bytes() > plain.size_bytes());
        // Switching through the anomaly member keeps the ensemble usable.
        let m = evaluate(&mut rhmd, &d, split.testing());
        assert!(m.accuracy() > 0.7, "{m}");
    }

    #[test]
    fn rhmd_stores_every_base() {
        let d = dataset();
        let split = d.three_fold_split(0);
        let rhmd = Rhmd::train(
            &d,
            split.victim_training(),
            RhmdConstruction::TwoFeaturesTwoPeriods,
            &HmdTrainConfig::fast(),
            1,
        )
        .expect("train");
        assert_eq!(rhmd.bases().len(), 4);
        let single = rhmd.bases()[0].quantized().size_bytes();
        assert_eq!(rhmd.size_bytes(), 4 * single);
    }
}
