//! Seeded thermal environment: die temperature as a pure function of time.
//!
//! §IX of the paper warns that undervolting-induced fault rates drift with
//! die temperature, and that over-aggressive offsets freeze the core. A
//! serving deployment therefore needs a *world model* to be tested
//! against: ambient temperature that wanders over a shift, load-dependent
//! self-heating that ramps as the monitor keeps its core busy, and sensor
//! noise. [`ThermalEnvironment`] provides exactly that — and nothing in it
//! reads a clock or a real sensor. The temperature at step `t` is a pure
//! function of the configuration, the seed, and `t` (per-step noise comes
//! from a splitmix64 hash of the seed and the step index), so a chaos or
//! recovery experiment replays bit-identically at any thread count.
//!
//! The module also answers the two physical questions a shard supervisor
//! has to ask about an operating point that the calibration-time curve can
//! no longer answer once the temperature has moved:
//! [`delivered_error_rate_at`] (what error rate does this offset *really*
//! deliver at this temperature?) and [`freezes_at`] (does this offset
//! cross [`FREEZE_ERROR_RATE`] here — i.e. does the core hang instead of
//! computing?).

use crate::calibration::{DeviceProfile, SWEEP_LIMIT_MV};
use crate::multiplier::FREEZE_ERROR_RATE;
use crate::voltage::{Millivolts, NOMINAL_CORE_VOLTAGE};

/// Configuration of a [`ThermalEnvironment`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EnvironmentConfig {
    /// Baseline ambient die temperature, °C.
    pub base_temp_c: f64,
    /// Amplitude of the slow ambient drift (triangle wave), °C. Zero
    /// disables ambient drift.
    pub drift_amplitude_c: f64,
    /// Steps per full ambient-drift cycle. Zero disables ambient drift.
    pub drift_period: u64,
    /// Asymptotic self-heating under sustained monitoring load, °C.
    pub load_heating_c: f64,
    /// Steps to reach ~63% of the load heating (exponential ramp). Zero
    /// applies the full heating immediately.
    pub heating_tau: u64,
    /// Half-width of the uniform per-step temperature noise, °C.
    pub noise_c: f64,
    /// Seed of the per-step noise stream.
    pub seed: u64,
}

impl EnvironmentConfig {
    /// A lab-stable environment pinned at `temp_c`: no drift, no heating,
    /// no noise. [`ThermalEnvironment::temperature_at`] returns `temp_c`
    /// at every step.
    pub fn steady(temp_c: f64) -> EnvironmentConfig {
        EnvironmentConfig {
            base_temp_c: temp_c,
            drift_amplitude_c: 0.0,
            drift_period: 0,
            load_heating_c: 0.0,
            heating_tau: 0,
            noise_c: 0.0,
            seed: 0,
        }
    }

    /// A realistic office deployment starting at `temp_c`: ±4 °C ambient
    /// drift over 512 steps, 6 °C of load heating with a 128-step ramp,
    /// and ±0.3 °C of sensor noise.
    pub fn drifting(temp_c: f64, seed: u64) -> EnvironmentConfig {
        EnvironmentConfig {
            base_temp_c: temp_c,
            drift_amplitude_c: 4.0,
            drift_period: 512,
            load_heating_c: 6.0,
            heating_tau: 128,
            noise_c: 0.3,
            seed,
        }
    }

    /// Sets the ambient drift (triangle wave) amplitude and period.
    #[must_use]
    pub fn with_drift(mut self, amplitude_c: f64, period: u64) -> EnvironmentConfig {
        self.drift_amplitude_c = amplitude_c;
        self.drift_period = period;
        self
    }

    /// Sets the load-heating asymptote and ramp time constant.
    #[must_use]
    pub fn with_load_heating(mut self, heating_c: f64, tau: u64) -> EnvironmentConfig {
        self.load_heating_c = heating_c;
        self.heating_tau = tau;
        self
    }

    /// Sets the per-step noise half-width.
    #[must_use]
    pub fn with_noise(mut self, noise_c: f64) -> EnvironmentConfig {
        self.noise_c = noise_c;
        self
    }

    /// Sets the noise seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> EnvironmentConfig {
        self.seed = seed;
        self
    }
}

impl Default for EnvironmentConfig {
    fn default() -> EnvironmentConfig {
        EnvironmentConfig::steady(DeviceProfile::reference().temp_c)
    }
}

/// Splitmix64 finalizer — the same avalanche the workspace uses for seed
/// derivation. `volt` sits below the crate that owns `derive_seed`, so the
/// mixer is reimplemented here (it is a pure 3-line hash).
fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The golden-gamma increment of splitmix64, used to decorrelate the step
/// index from the seed before hashing.
const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// A deterministic thermal trace: die temperature as a function of the
/// step index (the serving layer uses one step per batch).
///
/// `temperature_at(t)` = base + ambient triangle drift + exponential
/// load-heating ramp + seeded per-step noise. No wall-clock anywhere, so
/// a replay from the same configuration is bit-identical.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ThermalEnvironment {
    config: EnvironmentConfig,
}

impl ThermalEnvironment {
    /// Wraps a configuration.
    pub fn new(config: EnvironmentConfig) -> ThermalEnvironment {
        ThermalEnvironment { config }
    }

    /// The configuration.
    pub fn config(&self) -> &EnvironmentConfig {
        &self.config
    }

    /// Snapshots the environment for checkpointing. The environment is
    /// stateless — [`ThermalEnvironment::temperature_at`] is a pure
    /// function of `(config, step)` — so its complete state *is* the
    /// configuration; the step cursor lives with the caller (the serving
    /// layer uses its batch counter), and must be checkpointed there.
    pub fn export_state(&self) -> EnvironmentConfig {
        self.config
    }

    /// Rebuilds an environment from an [`ThermalEnvironment::export_state`]
    /// snapshot. Equivalent to [`ThermalEnvironment::new`]; named for
    /// symmetry with the other restore paths.
    pub fn from_state(config: EnvironmentConfig) -> ThermalEnvironment {
        ThermalEnvironment { config }
    }

    /// The die temperature at `step`, °C — a pure function of the
    /// configuration, the seed, and `step`.
    pub fn temperature_at(&self, step: u64) -> f64 {
        self.config.base_temp_c
            + self.ambient_at(step)
            + self.heating_at(step)
            + self.noise_at(step)
    }

    /// Triangle-wave ambient drift: 0 at step 0, peaks at +amplitude a
    /// quarter-period in, troughs at −amplitude three quarters in.
    fn ambient_at(&self, step: u64) -> f64 {
        let c = &self.config;
        if c.drift_period == 0 || c.drift_amplitude_c == 0.0 {
            return 0.0;
        }
        let frac = (step % c.drift_period) as f64 / c.drift_period as f64;
        let tri = if frac < 0.25 {
            4.0 * frac
        } else if frac < 0.75 {
            2.0 - 4.0 * frac
        } else {
            4.0 * frac - 4.0
        };
        c.drift_amplitude_c * tri
    }

    /// Exponential self-heating ramp towards the load asymptote.
    fn heating_at(&self, step: u64) -> f64 {
        let c = &self.config;
        if c.load_heating_c == 0.0 {
            return 0.0;
        }
        if c.heating_tau == 0 {
            return c.load_heating_c;
        }
        c.load_heating_c * (1.0 - (-(step as f64) / c.heating_tau as f64).exp())
    }

    /// Seeded uniform noise in `[-noise_c, +noise_c]`.
    fn noise_at(&self, step: u64) -> f64 {
        let c = &self.config;
        if c.noise_c == 0.0 {
            return 0.0;
        }
        let bits = splitmix64(c.seed ^ step.wrapping_mul(GOLDEN_GAMMA));
        // 53 high bits → uniform in [0, 1).
        let unit = (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        (2.0 * unit - 1.0) * c.noise_c
    }
}

/// The error rate `device` *actually* delivers at `offset` when the die
/// sits at `temp_c` — the physical ground truth a calibration curve taken
/// at another temperature no longer reflects.
pub fn delivered_error_rate_at(device: &DeviceProfile, offset: Millivolts, temp_c: f64) -> f64 {
    let mut at_temp = device.clone();
    at_temp.temp_c = temp_c;
    at_temp
        .timing_model()
        .mean_error_rate(NOMINAL_CORE_VOLTAGE.with_offset(offset))
}

/// Whether holding `offset` at `temp_c` crosses [`FREEZE_ERROR_RATE`]:
/// past that point the core does not compute wrong answers — it hangs.
/// A supervisor must treat this as a shard *crash*, not a drift.
pub fn freezes_at(device: &DeviceProfile, offset: Millivolts, temp_c: f64) -> bool {
    delivered_error_rate_at(device, offset, temp_c) >= FREEZE_ERROR_RATE
}

/// The deepest offset `device` can hold at `temp_c` without freezing,
/// backed off by `guard_band_mv` — the *physical* safety floor at the
/// current temperature, as opposed to the calibration-time floor a stale
/// curve remembers. A power scheduler clamps every retarget against this
/// before applying it, so a shard it deepens on a cool die can never be
/// scheduled into a hang. Scans the same 1 mV grid as the calibrator; if
/// no offset down to [`SWEEP_LIMIT_MV`] freezes, the sweep limit itself is
/// the floor.
pub fn deepest_safe_offset(device: &DeviceProfile, temp_c: f64, guard_band_mv: i32) -> Millivolts {
    let mut mv = 0i32;
    while mv >= SWEEP_LIMIT_MV {
        if freezes_at(device, Millivolts::new(mv), temp_c) {
            return Millivolts::new(mv + guard_band_mv.abs());
        }
        mv -= 1;
    }
    Millivolts::new(SWEEP_LIMIT_MV + guard_band_mv.abs())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::Calibrator;

    #[test]
    fn steady_environment_is_flat() {
        let env = ThermalEnvironment::new(EnvironmentConfig::steady(49.0));
        for step in [0, 1, 17, 1000, u64::MAX] {
            assert_eq!(env.temperature_at(step), 49.0);
        }
    }

    #[test]
    fn replays_are_bit_identical() {
        let a = ThermalEnvironment::new(EnvironmentConfig::drifting(49.0, 7));
        let b = ThermalEnvironment::new(EnvironmentConfig::drifting(49.0, 7));
        for step in 0..500 {
            assert_eq!(
                a.temperature_at(step).to_bits(),
                b.temperature_at(step).to_bits()
            );
        }
    }

    #[test]
    fn state_round_trip_replays_the_trace() {
        let a = ThermalEnvironment::new(EnvironmentConfig::drifting(49.0, 7));
        let b = ThermalEnvironment::from_state(a.export_state());
        for step in 0..300 {
            assert_eq!(
                a.temperature_at(step).to_bits(),
                b.temperature_at(step).to_bits()
            );
        }
    }

    #[test]
    fn seeds_change_the_noise_stream() {
        let a =
            ThermalEnvironment::new(EnvironmentConfig::steady(49.0).with_noise(0.5).with_seed(1));
        let b =
            ThermalEnvironment::new(EnvironmentConfig::steady(49.0).with_noise(0.5).with_seed(2));
        let differing = (0..100)
            .filter(|&s| a.temperature_at(s) != b.temperature_at(s))
            .count();
        assert!(differing > 50, "only {differing} steps differ");
    }

    #[test]
    fn noise_stays_within_its_half_width() {
        let env = ThermalEnvironment::new(EnvironmentConfig::steady(50.0).with_noise(0.3));
        for step in 0..2000 {
            let t = env.temperature_at(step);
            assert!((t - 50.0).abs() <= 0.3, "step {step}: {t}");
        }
    }

    #[test]
    fn triangle_drift_peaks_at_quarter_period() {
        let env = ThermalEnvironment::new(EnvironmentConfig::steady(40.0).with_drift(8.0, 400));
        assert_eq!(env.temperature_at(0), 40.0);
        assert_eq!(env.temperature_at(100), 48.0);
        assert_eq!(env.temperature_at(300), 32.0);
        assert_eq!(env.temperature_at(400), 40.0, "periodic");
    }

    #[test]
    fn load_heating_ramps_monotonically_to_the_asymptote() {
        let env =
            ThermalEnvironment::new(EnvironmentConfig::steady(45.0).with_load_heating(6.0, 64));
        let mut last = env.temperature_at(0);
        for step in 1..400 {
            let t = env.temperature_at(step);
            assert!(t >= last, "heating must not cool");
            last = t;
        }
        assert!(last < 51.0 && last > 50.9, "near the asymptote: {last}");
        let instant =
            ThermalEnvironment::new(EnvironmentConfig::steady(45.0).with_load_heating(6.0, 0));
        assert_eq!(instant.temperature_at(0), 51.0);
    }

    #[test]
    fn temperature_shifts_the_delivered_rate() {
        // Temperature inversion at low voltage (see `delay`): a hotter die
        // is *faster*, so at a fixed offset the delivered error rate falls
        // as the die heats and rises as it cools.
        let device = DeviceProfile::reference();
        let curve = Calibrator::new().with_step(2).calibrate(&device);
        let offset = curve.offset_for_error_rate(0.1).expect("reachable");
        let nominal = delivered_error_rate_at(&device, offset, device.temp_c);
        let hot = delivered_error_rate_at(&device, offset, device.temp_c + 30.0);
        let cold = delivered_error_rate_at(&device, offset, device.temp_c - 30.0);
        assert!(hot < nominal, "hot die must fault less: {nominal} -> {hot}");
        assert!(
            cold > nominal,
            "cold die must fault more: {nominal} -> {cold}"
        );
    }

    #[test]
    fn delivered_rate_matches_the_curve_at_calibration_temperature() {
        let device = DeviceProfile::reference();
        let curve = Calibrator::new().with_step(1).calibrate(&device);
        let offset = curve.offset_for_error_rate(0.1).expect("reachable");
        let delivered = delivered_error_rate_at(&device, offset, device.temp_c);
        assert_eq!(
            delivered.to_bits(),
            curve.error_rate_at(offset).to_bits(),
            "sweep points are exact evaluations of the same model"
        );
    }

    #[test]
    fn deepest_safe_offset_tracks_temperature_inversion() {
        let device = DeviceProfile::reference();
        let guard = 3;
        let at_cal = deepest_safe_offset(&device, device.temp_c, guard);
        // The floor must itself be safe, and one guard band deeper must
        // freeze (the scan stops at the first freezing millivolt).
        assert!(!freezes_at(&device, at_cal, device.temp_c));
        assert!(freezes_at(
            &device,
            Millivolts::new(at_cal.get() - guard),
            device.temp_c
        ));
        // Temperature inversion: a hot die tolerates deeper offsets, a
        // cold die fewer.
        let hot = deepest_safe_offset(&device, device.temp_c + 30.0, guard);
        let cold = deepest_safe_offset(&device, device.temp_c - 30.0, guard);
        assert!(hot.get() < at_cal.get(), "hot floor {hot} vs {at_cal}");
        assert!(cold.get() > at_cal.get(), "cold floor {cold} vs {at_cal}");
        // And it agrees with the calibrator's freeze point at the
        // calibration temperature.
        let curve = Calibrator::new().with_step(1).calibrate(&device);
        assert_eq!(at_cal.get(), curve.freeze_offset().get() + guard);
    }

    #[test]
    fn freeze_is_a_function_of_offset_and_temperature() {
        let device = DeviceProfile::reference();
        let curve = Calibrator::new().with_step(1).calibrate(&device);
        let freeze = curve.freeze_offset();
        assert!(freezes_at(&device, freeze, device.temp_c));
        assert!(!freezes_at(&device, Millivolts::new(0), device.temp_c));
        // An offset safe at the calibration temperature crosses the freeze
        // line when the die cools (temperature inversion: cold is slower).
        let near = Millivolts::new(freeze.get() + 4);
        assert!(!freezes_at(&device, near, device.temp_c));
        assert!(freezes_at(&device, near, device.temp_c - 40.0));
    }
}
