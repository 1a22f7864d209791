//! Approximate entropy (ApEn) — the paper's stochasticity validation.
//!
//! §II validates that undervolting fault locations vary
//! non-deterministically across runs "using the approximate entropy test".
//! ApEn measures the regularity of a series: ~0 for constant or periodic
//! sequences, approaching `ln(alphabet size)` for i.i.d. uniform noise.

/// Computes the approximate entropy of a symbol series with pattern length
/// `m` and exact symbol matching (tolerance r = 0, appropriate for discrete
/// symbols such as fault bit positions).
///
/// Returns `ApEn(m) = Φ(m) − Φ(m+1)` where
/// `Φ(m) = (N−m+1)⁻¹ Σᵢ ln Cᵢᵐ`.
///
/// Returns `0.0` for series shorter than `m + 2`.
///
/// # Panics
///
/// Panics if `m == 0`.
///
/// # Example
///
/// ```
/// use shmd_volt::entropy::approximate_entropy;
///
/// let constant = vec![1u8; 100];
/// assert!(approximate_entropy(&constant, 2) < 1e-9);
/// ```
pub fn approximate_entropy(series: &[u8], m: usize) -> f64 {
    assert!(m > 0, "pattern length m must be positive");
    if series.len() < m + 2 {
        return 0.0;
    }
    phi(series, m) - phi(series, m + 1)
}

fn phi(series: &[u8], m: usize) -> f64 {
    let n = series.len() - m + 1;
    let mut total = 0.0;
    for i in 0..n {
        let mut matches = 0usize;
        for j in 0..n {
            if series[i..i + m] == series[j..j + m] {
                matches += 1;
            }
        }
        total += (matches as f64 / n as f64).ln();
    }
    total / n as f64
}

/// Convenience wrapper over boolean series (e.g. "was this multiplication
/// faulty?").
pub fn approximate_entropy_bits(series: &[bool], m: usize) -> f64 {
    let bytes: Vec<u8> = series.iter().map(|&b| u8::from(b)).collect();
    approximate_entropy(&bytes, m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn constant_series_has_zero_entropy() {
        assert!(approximate_entropy(&[7u8; 200], 2).abs() < 1e-9);
    }

    #[test]
    fn periodic_series_has_low_entropy() {
        let series: Vec<u8> = (0..200).map(|i| (i % 2) as u8).collect();
        assert!(approximate_entropy(&series, 2) < 0.01);
    }

    #[test]
    fn random_bits_approach_ln2() {
        let mut rng = StdRng::seed_from_u64(17);
        let series: Vec<u8> = (0..600).map(|_| rng.gen_range(0..2u8)).collect();
        let apen = approximate_entropy(&series, 2);
        assert!(
            (apen - std::f64::consts::LN_2).abs() < 0.1,
            "ApEn of random bits should approach ln 2, got {apen}"
        );
    }

    #[test]
    fn random_beats_periodic() {
        let mut rng = StdRng::seed_from_u64(3);
        let random: Vec<u8> = (0..400).map(|_| rng.gen_range(0..4u8)).collect();
        let periodic: Vec<u8> = (0..400).map(|i| (i % 4) as u8).collect();
        assert!(approximate_entropy(&random, 2) > approximate_entropy(&periodic, 2) + 0.5);
    }

    #[test]
    fn short_series_returns_zero() {
        assert_eq!(approximate_entropy(&[1, 2], 2), 0.0);
    }

    #[test]
    #[should_panic(expected = "pattern length m must be positive")]
    fn zero_m_panics() {
        let _ = approximate_entropy(&[1, 2, 3], 0);
    }

    #[test]
    fn bit_wrapper_matches_byte_version() {
        let bits = [true, false, true, true, false, false, true, false, true];
        let bytes: Vec<u8> = bits.iter().map(|&b| u8::from(b)).collect();
        assert_eq!(
            approximate_entropy_bits(&bits, 2),
            approximate_entropy(&bytes, 2)
        );
    }

    #[test]
    fn fault_injector_output_is_stochastic_by_apen() {
        // End-to-end §II validation: the fault-location series of an
        // undervolted multiplier has high approximate entropy.
        use crate::fault::{FaultModel, FaultStream};
        let mut inj = FaultStream::new(FaultModel::from_error_rate(1.0).unwrap(), 23);
        let product = 0x0aaa_5555_aaaa_5555i64;
        let series: Vec<u8> = (0..400)
            .map(|_| {
                let diff = (inj.corrupt_product(product) ^ product) as u64;
                (diff.trailing_zeros() % 64) as u8
            })
            .collect();
        let apen = approximate_entropy(&series, 1);
        assert!(
            apen > 1.0,
            "fault locations look deterministic: ApEn {apen}"
        );
    }
}
