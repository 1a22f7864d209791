//! Custom dataset composition.
//!
//! [`crate::dataset::Dataset::generate`] reproduces the paper's corpus
//! shape (five malware families, four benign families, evenly spread).
//! Downstream users modelling *their* fleet need different mixes — a
//! server deployment sees no browsers; an IoT fleet is worm-heavy.
//! [`DatasetBuilder`] composes a dataset family by family.

use crate::dataset::Dataset;
use crate::families::ProgramClass;
use std::fmt;

/// Error building a custom dataset.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BuildDatasetError {
    /// No programs were requested.
    Empty,
    /// Only one class is present; detectors cannot train on it.
    SingleClass,
}

impl fmt::Display for BuildDatasetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildDatasetError::Empty => f.write_str("no programs requested"),
            BuildDatasetError::SingleClass => {
                f.write_str("a dataset needs both malware and benign programs")
            }
        }
    }
}

impl std::error::Error for BuildDatasetError {}

/// Builder for datasets with custom family mixes.
///
/// # Example
///
/// ```
/// use shmd_workload::builder::DatasetBuilder;
/// use shmd_workload::families::{BenignFamily, MalwareFamily, ProgramClass};
///
/// // An IoT fleet: worm-heavy threat mix, no browsers.
/// let dataset = DatasetBuilder::new()
///     .add(ProgramClass::Malware(MalwareFamily::Worm), 60)
///     .add(ProgramClass::Malware(MalwareFamily::Backdoor), 20)
///     .add(ProgramClass::Benign(BenignFamily::SystemUtility), 30)
///     .seed(7)
///     .build()?;
/// assert_eq!(dataset.len(), 110);
/// # Ok::<(), shmd_workload::builder::BuildDatasetError>(())
/// ```
#[derive(Clone, Debug)]
pub struct DatasetBuilder {
    groups: Vec<(ProgramClass, usize)>,
    seed: u64,
}

impl DatasetBuilder {
    /// Starts an empty builder.
    pub fn new() -> DatasetBuilder {
        DatasetBuilder {
            groups: Vec::new(),
            seed: 0,
        }
    }

    /// Adds `count` programs of a class.
    #[must_use]
    pub fn add(mut self, class: ProgramClass, count: usize) -> DatasetBuilder {
        self.groups.push((class, count));
        self
    }

    /// Sets the generation seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> DatasetBuilder {
        self.seed = seed;
        self
    }

    /// Generates the dataset.
    ///
    /// # Errors
    ///
    /// Returns [`BuildDatasetError`] when nothing was requested or only one
    /// class is present.
    pub fn build(self) -> Result<Dataset, BuildDatasetError> {
        let total: usize = self.groups.iter().map(|&(_, n)| n).sum();
        if total == 0 {
            return Err(BuildDatasetError::Empty);
        }
        let has_malware = self.groups.iter().any(|&(c, n)| n > 0 && c.is_malware());
        let has_benign = self.groups.iter().any(|&(c, n)| n > 0 && !c.is_malware());
        if !has_malware || !has_benign {
            return Err(BuildDatasetError::SingleClass);
        }
        Ok(Dataset::from_groups(&self.groups, self.seed))
    }
}

impl Default for DatasetBuilder {
    fn default() -> DatasetBuilder {
        DatasetBuilder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::families::{BenignFamily, MalwareFamily};

    fn worm_fleet() -> Dataset {
        DatasetBuilder::new()
            .add(ProgramClass::Malware(MalwareFamily::Worm), 40)
            .add(ProgramClass::Benign(BenignFamily::SystemUtility), 20)
            .seed(3)
            .build()
            .expect("valid mix")
    }

    #[test]
    fn builds_the_requested_mix() {
        let d = worm_fleet();
        assert_eq!(d.len(), 60);
        let worms = d
            .programs()
            .iter()
            .filter(|p| p.class() == ProgramClass::Malware(MalwareFamily::Worm))
            .count();
        assert_eq!(worms, 40);
    }

    #[test]
    fn custom_datasets_split_and_train() {
        use crate::features::FeatureSpec;
        let d = worm_fleet();
        let split = d.three_fold_split(0);
        let lf = d.labeled_features(split.victim_training(), FeatureSpec::frequency());
        assert!(lf.labels.iter().any(|&l| l));
        assert!(lf.labels.iter().any(|&l| !l));
    }

    #[test]
    fn empty_is_rejected() {
        assert_eq!(
            DatasetBuilder::new().build().unwrap_err(),
            BuildDatasetError::Empty
        );
    }

    #[test]
    fn single_class_is_rejected() {
        let err = DatasetBuilder::new()
            .add(ProgramClass::Malware(MalwareFamily::Trojan), 10)
            .build()
            .unwrap_err();
        assert_eq!(err, BuildDatasetError::SingleClass);
    }

    #[test]
    fn zero_count_groups_do_not_count_as_classes() {
        let err = DatasetBuilder::new()
            .add(ProgramClass::Malware(MalwareFamily::Trojan), 10)
            .add(ProgramClass::Benign(BenignFamily::Browser), 0)
            .build()
            .unwrap_err();
        assert_eq!(err, BuildDatasetError::SingleClass);
    }

    #[test]
    fn is_deterministic_per_seed() {
        let a = worm_fleet();
        let b = worm_fleet();
        assert_eq!(a.programs(), b.programs());
    }
}
