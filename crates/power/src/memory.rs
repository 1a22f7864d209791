//! Model storage and Equation (1)'s storage savings.
//!
//! §VIII "Memory space": RHMD stores one model per base detector;
//! Stochastic-HMD stores exactly one. The paper's detector occupies 71 KB —
//! more than twice the 32 KB L1 data cache of contemporary cores, so every
//! extra base detector costs cache pressure too.

/// The paper's per-detector model size in bytes.
pub const PAPER_DETECTOR_BYTES: usize = 71 * 1024;

/// The L1 data-cache size the paper cites (Intel Tiger Lake).
pub const L1_DCACHE_BYTES: usize = 32 * 1024;

/// Equation (1): storage savings of a Stochastic-HMD over an RHMD with
/// `base_detectors` stored models, as a fraction.
///
/// # Panics
///
/// Panics if `base_detectors == 0`.
pub fn storage_savings(base_detectors: usize) -> f64 {
    assert!(
        base_detectors > 0,
        "an RHMD needs at least one base detector"
    );
    (base_detectors as f64 - 1.0) / base_detectors as f64
}

/// Memory footprint of an HMD deployment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemoryModel {
    /// Bytes per stored detector model.
    pub detector_bytes: usize,
}

impl MemoryModel {
    /// The paper's 71 KB detector.
    pub fn paper() -> MemoryModel {
        MemoryModel {
            detector_bytes: PAPER_DETECTOR_BYTES,
        }
    }

    /// Total bytes an RHMD with `base_detectors` models stores.
    pub fn rhmd_bytes(&self, base_detectors: usize) -> usize {
        self.detector_bytes * base_detectors
    }

    /// Bytes a (Stochastic-)HMD stores: one model.
    pub fn stochastic_bytes(&self) -> usize {
        self.detector_bytes
    }

    /// How many L1 data caches the deployment's models span (cache
    /// pressure indicator).
    pub fn l1_footprint(&self, base_detectors: usize) -> f64 {
        self.rhmd_bytes(base_detectors) as f64 / L1_DCACHE_BYTES as f64
    }
}

impl Default for MemoryModel {
    fn default() -> MemoryModel {
        MemoryModel::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equation_one_examples() {
        // Paper: "Stochastic-HMD storage saving over an RHMD-2F ... is 50%".
        assert_eq!(storage_savings(2), 0.5);
        assert_eq!(storage_savings(1), 0.0);
        assert_eq!(storage_savings(4), 0.75);
        assert!((storage_savings(6) - 5.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one base detector")]
    fn zero_detectors_panics() {
        let _ = storage_savings(0);
    }

    #[test]
    fn paper_detector_exceeds_l1() {
        // Paper: "every HMD takes 71 KB of memory, while the L1 cache size
        // ... is 32 KB".
        let m = MemoryModel::paper();
        assert!(m.l1_footprint(1) > 2.0);
        assert_eq!(m.stochastic_bytes(), 71 * 1024);
    }

    #[test]
    fn rhmd_scales_linearly() {
        let m = MemoryModel::paper();
        assert_eq!(m.rhmd_bytes(4), 4 * m.stochastic_bytes());
    }
}
