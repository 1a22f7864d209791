//! Training datasets.

use std::fmt;

/// Error constructing a [`TrainData`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrainDataError {
    /// The dataset contains no samples.
    Empty,
    /// Input and target sample counts differ.
    LengthMismatch {
        /// Number of inputs supplied.
        inputs: usize,
        /// Number of targets supplied.
        targets: usize,
    },
    /// A sample's width differs from the first sample's.
    RaggedSample(usize),
    /// A sample holds a NaN or an infinity, which would turn every weight
    /// it reaches into NaN.
    NonFinite {
        /// The sample's index.
        sample: usize,
        /// The value's position in the sample's input followed by its
        /// target: below the input width it is an input, from there on a
        /// target value.
        index: usize,
    },
}

impl fmt::Display for TrainDataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainDataError::Empty => f.write_str("training data is empty"),
            TrainDataError::LengthMismatch { inputs, targets } => {
                write!(f, "{inputs} inputs but {targets} targets")
            }
            TrainDataError::RaggedSample(i) => {
                write!(f, "sample {i} has a different width than sample 0")
            }
            TrainDataError::NonFinite { sample, index } => {
                write!(f, "sample {sample} has a non-finite value at index {index}")
            }
        }
    }
}

impl std::error::Error for TrainDataError {}

/// A supervised dataset of `(input, target)` pairs.
#[derive(Clone, Debug, PartialEq)]
pub struct TrainData {
    inputs: Vec<Vec<f32>>,
    targets: Vec<Vec<f32>>,
}

impl TrainData {
    /// Validates and wraps paired inputs and targets.
    ///
    /// # Errors
    ///
    /// Returns a [`TrainDataError`] when the sets are empty, mismatched in
    /// length, ragged, or hold a NaN or an infinity.
    pub fn new(inputs: Vec<Vec<f32>>, targets: Vec<Vec<f32>>) -> Result<TrainData, TrainDataError> {
        if inputs.is_empty() {
            return Err(TrainDataError::Empty);
        }
        if inputs.len() != targets.len() {
            return Err(TrainDataError::LengthMismatch {
                inputs: inputs.len(),
                targets: targets.len(),
            });
        }
        let in_w = inputs[0].len();
        let t_w = targets[0].len();
        for (i, (x, t)) in inputs.iter().zip(&targets).enumerate() {
            if x.len() != in_w || t.len() != t_w {
                return Err(TrainDataError::RaggedSample(i));
            }
            if let Some(index) = x.iter().chain(t).position(|v| !v.is_finite()) {
                return Err(TrainDataError::NonFinite { sample: i, index });
            }
        }
        Ok(TrainData { inputs, targets })
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.inputs.len()
    }

    /// `true` when there are no samples (cannot occur after validation).
    pub fn is_empty(&self) -> bool {
        self.inputs.is_empty()
    }

    /// Input feature width.
    pub fn input_dim(&self) -> usize {
        self.inputs[0].len()
    }

    /// Target width.
    pub fn target_dim(&self) -> usize {
        self.targets[0].len()
    }

    /// Iterates `(input, target)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&[f32], &[f32])> {
        self.inputs
            .iter()
            .map(Vec::as_slice)
            .zip(self.targets.iter().map(Vec::as_slice))
    }

    /// The sample at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    pub fn sample(&self, idx: usize) -> (&[f32], &[f32]) {
        (&self.inputs[idx], &self.targets[idx])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_data_reports_dims() {
        let d = TrainData::new(vec![vec![1., 2.], vec![3., 4.]], vec![vec![0.], vec![1.]])
            .expect("valid");
        assert_eq!(d.len(), 2);
        assert_eq!(d.input_dim(), 2);
        assert_eq!(d.target_dim(), 1);
        assert!(!d.is_empty());
    }

    #[test]
    fn empty_is_rejected() {
        assert_eq!(
            TrainData::new(vec![], vec![]).unwrap_err(),
            TrainDataError::Empty
        );
    }

    #[test]
    fn length_mismatch_is_rejected() {
        let err = TrainData::new(vec![vec![1.]], vec![]).unwrap_err();
        assert_eq!(
            err,
            TrainDataError::LengthMismatch {
                inputs: 1,
                targets: 0
            }
        );
    }

    #[test]
    fn ragged_is_rejected() {
        let err =
            TrainData::new(vec![vec![1., 2.], vec![3.]], vec![vec![0.], vec![1.]]).unwrap_err();
        assert_eq!(err, TrainDataError::RaggedSample(1));
    }

    #[test]
    fn non_finite_inputs_and_targets_are_rejected() {
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let err = TrainData::new(
                vec![vec![0., 0.], vec![0., 1.], vec![1., bad], vec![1., 1.]],
                vec![vec![0.], vec![1.], vec![1.], vec![1.]],
            )
            .unwrap_err();
            assert_eq!(
                err,
                TrainDataError::NonFinite {
                    sample: 2,
                    index: 1
                }
            );
            let err = TrainData::new(vec![vec![0., 0.], vec![0., 1.]], vec![vec![0.], vec![bad]])
                .unwrap_err();
            assert_eq!(
                err,
                TrainDataError::NonFinite {
                    sample: 1,
                    index: 2
                }
            );
        }
        assert!(TrainDataError::NonFinite {
            sample: 2,
            index: 1
        }
        .to_string()
        .contains("non-finite"));
    }

    #[test]
    fn iter_yields_pairs() {
        let d = TrainData::new(vec![vec![1.], vec![2.]], vec![vec![3.], vec![4.]]).unwrap();
        let pairs: Vec<_> = d.iter().collect();
        assert_eq!(pairs[0], (&[1.0f32][..], &[3.0f32][..]));
        assert_eq!(pairs[1], (&[2.0f32][..], &[4.0f32][..]));
    }

    #[test]
    fn error_messages_are_informative() {
        assert!(TrainDataError::RaggedSample(5).to_string().contains('5'));
    }
}
