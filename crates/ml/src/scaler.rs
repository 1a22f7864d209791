//! Feature standardisation.
//!
//! Logistic regression and MLP proxies converge faster on standardised
//! features (zero mean, unit variance per column). The scaler is fitted on
//! the attacker-training fold and applied to everything after — fitting it
//! on test data would leak.

use std::fmt;

/// Error fitting a [`StandardScaler`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FitScalerError {
    /// No rows supplied.
    Empty,
    /// A row's width differs from the first row's.
    RaggedRow(usize),
}

impl fmt::Display for FitScalerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FitScalerError::Empty => f.write_str("no rows to fit on"),
            FitScalerError::RaggedRow(i) => write!(f, "row {i} has inconsistent width"),
        }
    }
}

impl std::error::Error for FitScalerError {}

/// Per-column mean/std standardiser.
#[derive(Clone, Debug, PartialEq)]
pub struct StandardScaler {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl StandardScaler {
    /// Fits per-column statistics.
    ///
    /// Constant columns get a standard deviation of 1 so transformation is
    /// always well defined.
    ///
    /// # Errors
    ///
    /// Returns [`FitScalerError`] for empty or ragged input.
    pub fn fit(rows: &[Vec<f32>]) -> Result<StandardScaler, FitScalerError> {
        if rows.is_empty() {
            return Err(FitScalerError::Empty);
        }
        let width = rows[0].len();
        for (i, r) in rows.iter().enumerate() {
            if r.len() != width {
                return Err(FitScalerError::RaggedRow(i));
            }
        }
        let n = rows.len() as f64;
        let mut means = vec![0.0f64; width];
        for r in rows {
            for (m, &v) in means.iter_mut().zip(r) {
                *m += f64::from(v);
            }
        }
        for m in &mut means {
            *m /= n;
        }
        let mut stds = vec![0.0f64; width];
        for r in rows {
            for ((s, &v), m) in stds.iter_mut().zip(r).zip(&means) {
                *s += (f64::from(v) - m) * (f64::from(v) - m);
            }
        }
        for s in &mut stds {
            *s = (*s / n).sqrt();
            if *s < 1e-12 {
                *s = 1.0;
            }
        }
        Ok(StandardScaler { means, stds })
    }

    /// Standardises one row.
    ///
    /// # Panics
    ///
    /// Panics if the row width mismatches the fitted width.
    pub fn transform(&self, row: &[f32]) -> Vec<f32> {
        assert_eq!(row.len(), self.means.len(), "feature width mismatch");
        row.iter()
            .zip(self.means.iter().zip(&self.stds))
            .map(|(&v, (m, s))| ((f64::from(v) - m) / s) as f32)
            .collect()
    }

    /// Standardises many rows.
    ///
    /// # Panics
    ///
    /// Panics if any row width mismatches the fitted width.
    pub fn transform_all(&self, rows: &[Vec<f32>]) -> Vec<Vec<f32>> {
        rows.iter().map(|r| self.transform(r)).collect()
    }

    /// Number of feature columns the scaler was fitted on.
    pub fn width(&self) -> usize {
        self.means.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn standardises_to_zero_mean_unit_variance() {
        let rows = vec![vec![1.0f32, 10.0], vec![3.0, 20.0], vec![5.0, 30.0]];
        let scaler = StandardScaler::fit(&rows).expect("fits");
        let out = scaler.transform_all(&rows);
        for col in 0..2 {
            let mean: f32 = out.iter().map(|r| r[col]).sum::<f32>() / 3.0;
            let var: f32 = out.iter().map(|r| (r[col] - mean).powi(2)).sum::<f32>() / 3.0;
            assert!(mean.abs() < 1e-6, "column {col} mean {mean}");
            assert!((var - 1.0).abs() < 1e-5, "column {col} var {var}");
        }
    }

    #[test]
    fn constant_columns_are_safe() {
        let rows = vec![vec![7.0f32], vec![7.0], vec![7.0]];
        let scaler = StandardScaler::fit(&rows).expect("fits");
        assert_eq!(scaler.transform(&[7.0]), vec![0.0]);
        assert_eq!(scaler.transform(&[8.0]), vec![1.0]);
    }

    #[test]
    fn rejects_empty_and_ragged() {
        assert_eq!(StandardScaler::fit(&[]), Err(FitScalerError::Empty));
        let rows = vec![vec![1.0f32], vec![1.0, 2.0]];
        assert_eq!(
            StandardScaler::fit(&rows),
            Err(FitScalerError::RaggedRow(1))
        );
    }

    #[test]
    #[should_panic(expected = "feature width mismatch")]
    fn transform_checks_width() {
        let scaler = StandardScaler::fit(&[vec![1.0f32, 2.0]]).unwrap();
        let _ = scaler.transform(&[1.0]);
    }

    proptest! {
        #[test]
        fn transform_is_affine(
            a in -100.0f32..100.0, b in -100.0f32..100.0, x in -100.0f32..100.0
        ) {
            prop_assume!((a - b).abs() > 0.1);
            let scaler = StandardScaler::fit(&[vec![a], vec![b]]).unwrap();
            // Affine: midpoint maps to the midpoint of the images.
            let fa = scaler.transform(&[a])[0];
            let fb = scaler.transform(&[b])[0];
            let fm = scaler.transform(&[(a + b) / 2.0])[0];
            prop_assert!((fm - (fa + fb) / 2.0).abs() < 1e-3);
            let _ = x;
        }
    }
}
