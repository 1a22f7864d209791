//! The software noise-injection MAC.
//!
//! [`NoisyMac`] emulates the *software* noise-injection alternative the
//! paper compares against (§VIII "Comparison with TRNG"): additive noise
//! drawn from an external RNG after every MAC, which costs an RNG query per
//! multiplication instead of being free like undervolting. It plugs into
//! [`crate::network::QuantizedNetwork`] as a one-lane
//! [`LaneCorruptor`] that reports every multiplication.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use shmd_volt::fault::LaneCorruptor;

/// Software noise injection: adds bounded uniform noise to every product,
/// querying an RNG per MAC.
///
/// This models the randomisation-defense baseline that needs a TRNG/PRNG
/// query for each of the `n` MAC operations — the source of the ≈62×/4×
/// performance overheads in the paper's §VIII comparison. The noise
/// amplitude is expressed in Q32.32 product LSBs.
#[derive(Clone, Debug)]
pub struct NoisyMac {
    rng: StdRng,
    amplitude: i64,
    queries: u64,
}

impl NoisyMac {
    /// Creates a noisy MAC with the given noise amplitude (Q32.32 units).
    pub fn new(amplitude: i64, seed: u64) -> NoisyMac {
        NoisyMac {
            rng: StdRng::seed_from_u64(seed),
            amplitude: amplitude.abs(),
            queries: 0,
        }
    }

    /// RNG queries issued so far (one per MAC).
    pub fn queries(&self) -> u64 {
        self.queries
    }
}

impl LaneCorruptor<1> for NoisyMac {
    /// Every multiplication is an event: the next one is always due.
    #[inline]
    fn lane_run(&mut self, _lane: usize, max: u64) -> Option<u64> {
        (max > 0).then_some(0)
    }

    #[inline]
    fn fault(&mut self, _lane: usize, product: i64) -> i64 {
        self.queries += 1;
        if self.amplitude == 0 {
            return product;
        }
        let noise = self.rng.gen_range(-self.amplitude..=self.amplitude);
        product.saturating_add(noise)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One product through the MAC, as the inference kernel drives it.
    fn corrupt(mac: &mut NoisyMac, product: i64) -> i64 {
        assert_eq!(mac.lane_run(0, 1), Some(0), "every product is due");
        mac.fault(0, product)
    }

    #[test]
    fn noisy_mac_queries_once_per_mac() {
        let mut mac = NoisyMac::new(1 << 20, 4);
        for _ in 0..100 {
            corrupt(&mut mac, 0);
        }
        assert_eq!(mac.queries(), 100);
    }

    #[test]
    fn noisy_mac_noise_is_bounded() {
        let amp = 1 << 24;
        let mut mac = NoisyMac::new(amp, 5);
        for _ in 0..1000 {
            let out = corrupt(&mut mac, 1 << 32);
            assert!((out - (1i64 << 32)).abs() <= amp);
        }
    }

    #[test]
    fn zero_amplitude_is_exact() {
        let mut mac = NoisyMac::new(0, 6);
        assert_eq!(corrupt(&mut mac, 12345), 12345);
    }

    #[test]
    fn noisy_mac_queries_once_per_network_mac() {
        use crate::builder::NetworkBuilder;
        let net = NetworkBuilder::new(3)
            .hidden(5)
            .output(1)
            .seed(1)
            .build()
            .unwrap();
        let q = net.quantized();
        let mut mac = NoisyMac::new(1 << 16, 2);
        q.infer(&[0.1, 0.2, 0.3], &mut mac);
        assert_eq!(mac.queries() as usize, q.mac_count());
    }
}
