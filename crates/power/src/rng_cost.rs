//! Costs of the software alternative: RNG-driven noise injection.
//!
//! Related randomisation defenses query a randomness source after every MAC
//! to add noise. §VIII "Comparison with TRNG" measures the consequences:
//! a TRNG-based implementation adds ≈62× performance and ≈112× energy
//! overhead; an in-core PRNG (the Lewis–Goodman–Miller generator the paper
//! cites) still adds ≈4× and ≈5.7×. Undervolting adds zero of either —
//! the noise source *is* the datapath.

use std::fmt;

/// Where the injected randomness comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NoiseSource {
    /// Undervolting: the stochastic datapath itself (no per-MAC query).
    Undervolting,
    /// An in-core pseudo-random generator queried per MAC.
    Prng,
    /// The shared off-core true-random generator queried per MAC.
    Trng,
}

impl fmt::Display for NoiseSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            NoiseSource::Undervolting => "undervolting",
            NoiseSource::Prng => "PRNG",
            NoiseSource::Trng => "TRNG",
        })
    }
}

/// Per-MAC cost model of noise injection.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RngCostModel {
    /// Effective cycles per MAC in the dense inference loop.
    mac_cycles: f64,
    /// Cycles per PRNG query (in-core ALU work).
    prng_cycles: f64,
    /// Cycles per TRNG query (off-core round trip; shared between cores).
    trng_cycles: f64,
    /// Energy per MAC, picojoules.
    mac_energy_pj: f64,
    /// Energy per PRNG query, picojoules.
    prng_energy_pj: f64,
    /// Energy per TRNG query, picojoules (off-core transfers dominate).
    trng_energy_pj: f64,
}

impl RngCostModel {
    /// Calibrated to the paper's measurements.
    pub fn i7_5557u() -> RngCostModel {
        RngCostModel {
            mac_cycles: 4.0,
            prng_cycles: 12.0,
            trng_cycles: 244.0,
            mac_energy_pj: 1.0,
            prng_energy_pj: 4.7,
            trng_energy_pj: 111.0,
        }
    }

    /// Performance overhead factor of running inference with per-MAC noise
    /// from `source`, relative to the plain (or undervolted) datapath.
    pub fn time_overhead(&self, source: NoiseSource) -> f64 {
        match source {
            NoiseSource::Undervolting => 1.0,
            NoiseSource::Prng => (self.mac_cycles + self.prng_cycles) / self.mac_cycles,
            NoiseSource::Trng => (self.mac_cycles + self.trng_cycles) / self.mac_cycles,
        }
    }

    /// Energy overhead factor, relative to the plain datapath.
    pub fn energy_overhead(&self, source: NoiseSource) -> f64 {
        match source {
            NoiseSource::Undervolting => 1.0,
            NoiseSource::Prng => (self.mac_energy_pj + self.prng_energy_pj) / self.mac_energy_pj,
            NoiseSource::Trng => (self.mac_energy_pj + self.trng_energy_pj) / self.mac_energy_pj,
        }
    }

    /// Absolute inference time in microseconds for `macs` MACs at
    /// `clock_ghz`, with noise from `source`.
    pub fn inference_us(&self, macs: usize, clock_ghz: f64, source: NoiseSource) -> f64 {
        let cycles = self.mac_cycles * macs as f64 * self.time_overhead(source);
        cycles / clock_ghz / 1000.0
    }
}

impl Default for RngCostModel {
    fn default() -> RngCostModel {
        RngCostModel::i7_5557u()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_paper_trng_overheads() {
        // Paper: "the TRNG based implementation adds ≈62× performance and
        // ≈112× energy consumption overheads".
        let m = RngCostModel::i7_5557u();
        let t = m.time_overhead(NoiseSource::Trng);
        let e = m.energy_overhead(NoiseSource::Trng);
        assert!(
            (55.0..=70.0).contains(&t),
            "TRNG time overhead {t}× (paper ≈62×)"
        );
        assert!(
            (100.0..=125.0).contains(&e),
            "TRNG energy overhead {e}× (paper ≈112×)"
        );
    }

    #[test]
    fn matches_paper_prng_overheads() {
        // Paper: "the PRNG based implementation adds ≈4× performance and
        // ≈5.7× energy consumption overheads".
        let m = RngCostModel::i7_5557u();
        let t = m.time_overhead(NoiseSource::Prng);
        let e = m.energy_overhead(NoiseSource::Prng);
        assert!(
            (3.0..=5.0).contains(&t),
            "PRNG time overhead {t}× (paper ≈4×)"
        );
        assert!(
            (5.0..=6.5).contains(&e),
            "PRNG energy overhead {e}× (paper ≈5.7×)"
        );
    }

    #[test]
    fn undervolting_is_free() {
        let m = RngCostModel::i7_5557u();
        assert_eq!(m.time_overhead(NoiseSource::Undervolting), 1.0);
        assert_eq!(m.energy_overhead(NoiseSource::Undervolting), 1.0);
    }

    #[test]
    fn trng_dwarfs_prng() {
        let m = RngCostModel::i7_5557u();
        assert!(m.time_overhead(NoiseSource::Trng) > 10.0 * m.time_overhead(NoiseSource::Prng));
    }

    #[test]
    fn absolute_times_scale_with_macs() {
        let m = RngCostModel::i7_5557u();
        let t1 = m.inference_us(1000, 2.2, NoiseSource::Undervolting);
        let t2 = m.inference_us(2000, 2.2, NoiseSource::Undervolting);
        assert!((t2 / t1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn display_names() {
        assert_eq!(NoiseSource::Undervolting.to_string(), "undervolting");
        assert_eq!(NoiseSource::Trng.to_string(), "TRNG");
    }
}
