//! Shard supervision: health states, a delivered-rate watchdog, seeded
//! chaos plans, and deterministic recovery schedules.
//!
//! §IX of the paper warns that undervolting-induced fault rates drift with
//! die temperature and that over-aggressive offsets freeze the core; a
//! serving deployment (see [`crate::serve`]) therefore cannot calibrate a
//! shard once and trust the operating point forever. This module provides
//! the pieces the [`crate::serve::MonitoringService`] uses to supervise
//! its pool:
//!
//! - [`ShardHealth`] — the per-shard health-state machine
//!   (`Healthy → Drifting → Crashed → Quarantined → Recovering → Healthy`,
//!   with `Degraded` as the budget-exhausted fallback);
//! - [`SupervisionRecord`] — one shard's supervision state: health,
//!   transition/crash/drift/retry counters, the watchdog's reference
//!   window, and the retry schedule;
//! - [`ChaosPlan`] / [`ChaosEvent`] — seeded fault-injection plans (shard
//!   crashes, hangs, thermal spikes) pinned to *stream positions*, never
//!   wall-clock, so a chaos run replays bit-identically at any thread
//!   count;
//! - [`SupervisorConfig`] / [`Supervisor`] — the supervision engine: a
//!   [`ThermalEnvironment`] world model, an [`AdaptiveVoltageController`]
//!   for watchdog-triggered recalibration, and the watchdog/retry policy.
//!
//! Two design rules keep supervision deterministic:
//!
//! 1. **Everything is a function of the stream position.** Temperature,
//!    chaos events, watchdog windows, and retry schedules are keyed on the
//!    batch index; the retry backoff is derived from the shard seed via
//!    [`derive_seed`], never from wall-clock time.
//! 2. **The watchdog trusts the fault stream, not a sensor.** The
//!    delivered error rate is estimated online from windows of the
//!    shard's fault counters, folded at every batch boundary from its
//!    per-query fault streams, and compared against a reference
//!    window captured right after (re)calibration — the calibration target
//!    *as observed through this workload* — with a binomial confidence
//!    band. (Near-zero products absorb faults, so the observed rate sits
//!    below the model rate by a workload-dependent factor; judging against
//!    the post-calibration reference cancels that factor out.)

use crate::exec::derive_seed;
use crate::telemetry::FaultCounters;
use shmd_volt::calibration::{CalibrationError, Calibrator, DeviceProfile};
use shmd_volt::controller::{AdaptiveVoltageController, ControllerConfig};
use shmd_volt::environment::{EnvironmentConfig, ThermalEnvironment};
use std::fmt;

/// Tag mixed into chaos-plan seed derivations.
const CHAOS_TAG: u64 = 0xc405;

/// Tag mixed into retry-backoff seed derivations.
const RETRY_TAG: u64 = 0x00ba_c0ff;

/// One shard's health, as tracked by the supervisor.
///
/// ```text
///            watchdog drift              recalibration ok
///  Healthy ---------------> Drifting ----------------------+
///     |                        |                           v
///     | freeze / chaos         | recalibration failed   Recovering
///     v                        v                           |
///  Crashed --> Quarantined  Degraded                       | next step
///                 |  ^                                     v
///      retry ok   |  | retry failed (backoff)           Healthy
///                 v  |
///             Recovering     retries exhausted --> Degraded
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ShardHealth {
    /// Serving from its stochastic replica, delivered rate on target.
    Healthy,
    /// Serving, but the watchdog's delivered-rate estimate left the
    /// confidence band — a recalibration is in flight.
    Drifting,
    /// The operating point crossed the freeze threshold (or chaos killed
    /// the shard): the core hangs instead of computing. Transient — the
    /// supervisor quarantines a crashed shard in the same step.
    Crashed,
    /// Out of the serving set; traffic re-routed; retries scheduled.
    Quarantined,
    /// Rebuilt with a fresh generation seed; promoted to `Healthy` at the
    /// next supervision step.
    Recovering,
    /// Serving from the baseline fallback (no moving target): calibration
    /// unreachable or the retry budget ran out.
    Degraded,
}

impl ShardHealth {
    /// Whether a shard in this state is in the serving set (receives
    /// queries).
    pub fn is_serving(self) -> bool {
        !matches!(self, ShardHealth::Crashed | ShardHealth::Quarantined)
    }

    /// Stable lowercase name (used by telemetry JSON).
    pub fn as_str(self) -> &'static str {
        match self {
            ShardHealth::Healthy => "healthy",
            ShardHealth::Drifting => "drifting",
            ShardHealth::Crashed => "crashed",
            ShardHealth::Quarantined => "quarantined",
            ShardHealth::Recovering => "recovering",
            ShardHealth::Degraded => "degraded",
        }
    }

    /// Parses the form produced by [`ShardHealth::as_str`].
    pub fn parse(s: &str) -> Option<ShardHealth> {
        Some(match s {
            "healthy" => ShardHealth::Healthy,
            "drifting" => ShardHealth::Drifting,
            "crashed" => ShardHealth::Crashed,
            "quarantined" => ShardHealth::Quarantined,
            "recovering" => ShardHealth::Recovering,
            "degraded" => ShardHealth::Degraded,
            _ => return None,
        })
    }
}

impl fmt::Display for ShardHealth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One shard's supervision state: the health machine plus its counters,
/// the watchdog's window bookkeeping, and the retry schedule. Part of the
/// shard's durable record ([`crate::checkpoint::ShardState`]).
#[derive(Clone, Debug, PartialEq)]
pub struct SupervisionRecord {
    /// Current health.
    pub health: ShardHealth,
    /// Health transitions since deployment.
    pub transitions: u64,
    /// Crashes (freeze or chaos) since deployment.
    pub crashes: u64,
    /// Watchdog drift detections since deployment.
    pub drift_events: u64,
    /// Recalibration retries attempted since deployment.
    pub retries: u64,
    /// Failed retries since the shard was quarantined.
    pub attempt: u32,
    /// Batch index of the next scheduled retry, when quarantined.
    pub next_retry_batch: Option<u64>,
    /// Observed error rate of the reference window captured after the
    /// last (re)calibration — the watchdog's empirical target.
    pub reference_rate: Option<f64>,
    /// Fault counters at the start of the current watchdog window.
    pub window_mark: FaultCounters,
}

impl SupervisionRecord {
    /// A record starting in the given state (`Healthy` for a protected
    /// shard, `Degraded` for a deploy-time baseline fallback).
    pub fn starting(health: ShardHealth) -> SupervisionRecord {
        SupervisionRecord {
            health,
            transitions: 0,
            crashes: 0,
            drift_events: 0,
            retries: 0,
            attempt: 0,
            next_retry_batch: None,
            reference_rate: None,
            window_mark: FaultCounters::default(),
        }
    }

    /// Moves to `to`, counting the transition (a self-transition counts
    /// nothing).
    pub(crate) fn transition(&mut self, to: ShardHealth) {
        if self.health != to {
            self.health = to;
            self.transitions += 1;
        }
    }

    /// Resets the watchdog window state (called after any backend swap:
    /// the reference no longer describes the new operating point).
    pub(crate) fn reset_watchdog(&mut self, mark: FaultCounters) {
        self.reference_rate = None;
        self.window_mark = mark;
    }
}

impl Default for SupervisionRecord {
    fn default() -> SupervisionRecord {
        SupervisionRecord::starting(ShardHealth::Healthy)
    }
}

/// One scripted chaos event, pinned to a stream position (batch index).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ChaosEvent {
    /// Kill a shard outright at the start of the given batch.
    Crash {
        /// Batch index at which the shard dies.
        batch: u64,
        /// Victim shard.
        shard: usize,
    },
    /// Wedge a shard as if its core froze (same supervisor-visible
    /// outcome as a crash, distinct cause in telemetry).
    Hang {
        /// Batch index at which the shard wedges.
        batch: u64,
        /// Victim shard.
        shard: usize,
    },
    /// Shift the ambient temperature by `delta_c` for `duration` batches
    /// (cooling spikes are the dangerous direction: temperature inversion
    /// makes a cold die slower, pushing fixed offsets toward freeze).
    DriftSpike {
        /// First batch of the spike.
        batch: u64,
        /// Temperature shift, °C (negative = cooling).
        delta_c: f64,
        /// Batches the spike lasts.
        duration: u64,
    },
}

/// A deterministic chaos schedule: events at chosen stream positions.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ChaosPlan {
    events: Vec<ChaosEvent>,
}

impl ChaosPlan {
    /// An empty plan (no injected chaos).
    pub fn none() -> ChaosPlan {
        ChaosPlan { events: Vec::new() }
    }

    /// A plan from explicit events.
    pub fn new(events: Vec<ChaosEvent>) -> ChaosPlan {
        ChaosPlan { events }
    }

    /// Adds one event.
    #[must_use]
    pub fn with_event(mut self, event: ChaosEvent) -> ChaosPlan {
        self.events.push(event);
        self
    }

    /// A seeded random plan over `horizon` batches of a `shards`-wide
    /// pool: `crashes` shard kills and `spikes` cooling spikes, at
    /// positions derived from `seed` (bit-identical replays).
    pub fn seeded(
        seed: u64,
        shards: usize,
        horizon: u64,
        crashes: usize,
        spikes: usize,
    ) -> ChaosPlan {
        let shards = shards.max(1) as u64;
        let horizon = horizon.max(1);
        let mut events = Vec::new();
        for i in 0..crashes {
            let batch = derive_seed(seed, &[CHAOS_TAG, 1, i as u64]) % horizon;
            let shard = derive_seed(seed, &[CHAOS_TAG, 2, i as u64]) % shards;
            events.push(ChaosEvent::Crash {
                batch,
                shard: shard as usize,
            });
        }
        for i in 0..spikes {
            let batch = derive_seed(seed, &[CHAOS_TAG, 3, i as u64]) % horizon;
            let magnitude = derive_seed(seed, &[CHAOS_TAG, 4, i as u64]) % 16;
            let duration = 1 + derive_seed(seed, &[CHAOS_TAG, 5, i as u64]) % (horizon / 4).max(1);
            events.push(ChaosEvent::DriftSpike {
                batch,
                delta_c: -(10.0 + magnitude as f64),
                duration,
            });
        }
        ChaosPlan { events }
    }

    /// All scheduled events.
    pub fn events(&self) -> &[ChaosEvent] {
        &self.events
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Kill events (crashes and hangs) scheduled anywhere in the inclusive
    /// batch window `[from, to]`, in schedule order. Cadenced supervision
    /// processes the whole window at its next supervision point so no
    /// scripted kill is lost between cadence ticks.
    pub(crate) fn kills_in(
        &self,
        from: u64,
        to: u64,
    ) -> impl Iterator<Item = (usize, &'static str)> + '_ {
        self.events.iter().filter_map(move |e| match *e {
            ChaosEvent::Crash { batch: b, shard } if from <= b && b <= to => {
                Some((shard, "chaos: shard crashed"))
            }
            ChaosEvent::Hang { batch: b, shard } if from <= b && b <= to => {
                Some((shard, "chaos: shard hung"))
            }
            _ => None,
        })
    }

    /// Sum of the temperature shifts of all spikes active at `batch` — a
    /// pure function of the batch index, so replays are bit-identical.
    pub(crate) fn spike_delta_at(&self, batch: u64) -> f64 {
        self.events
            .iter()
            .map(|e| match *e {
                ChaosEvent::DriftSpike {
                    batch: b,
                    delta_c,
                    duration,
                } if b <= batch && batch < b.saturating_add(duration) => delta_c,
                _ => 0.0,
            })
            .sum()
    }
}

/// Fleet-level energy policy: a service-wide busy-core-power budget the
/// supervisor enforces DVFS-style at every supervision point by
/// retargeting individual shards' error rates (deeper undervolt = lower
/// power *and* stronger moving-target defense — the paper's two wins move
/// together, so the budget enforcer deepens rather than throttles).
///
/// The scheduling rules, applied in phase order on the main thread in
/// shard-id order (so replays are bit-identical at any thread count):
///
/// 1. **Back off** shards the watchdog flagged this tick (their delivered
///    rate left the confidence band): one `step_er` shallower, floored at
///    `min_target_er` — a drifting operating point earns margin, not
///    aggression.
/// 2. **Deepen** healthy shards one `step_er` when the die is cool
///    (`temp ≤ cool_temp_c`; temperature inversion makes a cool die fault
///    *more* at a fixed offset, so a cool tick buys the same error rate at
///    a shallower voltage — and budget headroom at a deeper one) and the
///    shard is lightly loaded (its share of the window's queries is at
///    most `light_load ×` fair share), capped at `max_target_er`.
/// 3. **Enforce the budget**: while the projected busy core power summed
///    over serving shards exceeds `budget_w`, deepen healthy shards one
///    step each in shard-id order; stop when within budget or no shard
///    can move.
///
/// Every retarget's offset is clamped at the *calibration* guard-band
/// floor and at the physical
/// [`shmd_volt::environment::deepest_safe_offset`] for the current
/// temperature, so no scheduled operating point ever satisfies
/// [`shmd_volt::environment::freezes_at`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PowerBudgetPolicy {
    /// Service-wide busy core power budget, watts, summed over serving
    /// shards.
    pub budget_w: f64,
    /// Shallowest per-shard error-rate target the back-off phase may
    /// reach.
    pub min_target_er: f64,
    /// Deepest per-shard error-rate target the deepening phases may
    /// reach.
    pub max_target_er: f64,
    /// Error-rate step of one retarget.
    pub step_er: f64,
    /// Deepen only when the die temperature is at or below this, °C.
    pub cool_temp_c: f64,
    /// Deepen only shards whose window query share is at most this
    /// multiple of the fair share.
    pub light_load: f64,
}

impl PowerBudgetPolicy {
    /// A budget of `budget_w` watts with the default scheduling band:
    /// targets in `[0.05, 0.30]`, steps of `0.05`, deepening below the
    /// reference calibration temperature at up to 1.1× fair-share load.
    pub fn new(budget_w: f64) -> PowerBudgetPolicy {
        PowerBudgetPolicy {
            budget_w,
            min_target_er: 0.05,
            max_target_er: 0.30,
            step_er: 0.05,
            cool_temp_c: DeviceProfile::reference().temp_c,
            light_load: 1.1,
        }
    }

    /// Sets the per-shard error-rate target band.
    #[must_use]
    pub fn with_target_band(mut self, min_er: f64, max_er: f64) -> PowerBudgetPolicy {
        self.min_target_er = min_er;
        self.max_target_er = max_er;
        self
    }

    /// Sets the retarget step.
    #[must_use]
    pub fn with_step(mut self, step_er: f64) -> PowerBudgetPolicy {
        self.step_er = step_er;
        self
    }

    /// Sets the cool-die threshold for the deepening phase.
    #[must_use]
    pub fn with_cool_below(mut self, temp_c: f64) -> PowerBudgetPolicy {
        self.cool_temp_c = temp_c;
        self
    }

    /// Sets the light-load threshold (multiple of fair share).
    #[must_use]
    pub fn with_light_load(mut self, multiple: f64) -> PowerBudgetPolicy {
        self.light_load = multiple;
        self
    }

    /// Clamps an error-rate target into the policy band.
    pub fn clamp_target(&self, er: f64) -> f64 {
        er.clamp(self.min_target_er, self.max_target_er)
    }
}

/// Supervision policy for a [`crate::serve::MonitoringService`].
#[derive(Clone, Debug)]
pub struct SupervisorConfig {
    /// The physical device the pool runs on (all shards share the die).
    pub device: DeviceProfile,
    /// The thermal world model the deployment is exposed to.
    pub environment: EnvironmentConfig,
    /// Scripted chaos, if any.
    pub chaos: ChaosPlan,
    /// Controller policy (guard band, recalibration threshold). The
    /// target error rate is overridden by the service's
    /// `ServeConfig::target_error_rate` at deploy time.
    pub controller: ControllerConfig,
    /// Sweep step (mV) for supervised recalibrations — coarser than the
    /// paper's 1 mV lab sweep because the supervisor recalibrates live.
    pub calibration_step_mv: i32,
    /// Minimum multiplies in a watchdog window before it is judged.
    pub watchdog_window: u64,
    /// Width of the confidence band, in binomial standard deviations of
    /// the window estimate.
    pub band_sigmas: f64,
    /// Absolute slack added to the band (guards the tiny-window regime
    /// and benign model retunes from thermal noise).
    pub band_floor: f64,
    /// Failed retries tolerated before a quarantined shard degrades to
    /// the baseline for good.
    pub max_retries: u32,
    /// Base retry backoff, in batches (exponential per attempt, jittered
    /// deterministically from the shard seed).
    pub backoff_base: u64,
    /// Whether a guard-band-clamped recalibration (delivered rate below
    /// target) counts as a successful recovery. `false` means the
    /// operator demands the full target rate: clamped retries fail and
    /// consume retry budget.
    pub allow_clamped_recovery: bool,
    /// Retune a live fault model when the physically delivered rate moves
    /// further than this from the model rate.
    pub physics_epsilon: f64,
    /// Batches between supervision points. The default of 1 supervises
    /// every batch (the historical behaviour); a cadence of `c` runs the
    /// supervisor only when `batch % c == 0`, processing the scripted
    /// kill window accumulated since the previous point and sampling the
    /// thermal world at the supervision batch. Amortizes supervision cost
    /// at high throughput; still a pure function of the batch index, so
    /// replays stay bit-identical at any thread count.
    pub supervision_cadence: u64,
    /// Fleet energy policy: when set, the supervisor retargets shard
    /// error rates at every supervision point to hold the service-wide
    /// busy-core-power budget (see [`PowerBudgetPolicy`]).
    pub power_budget: Option<PowerBudgetPolicy>,
}

impl SupervisorConfig {
    /// Supervision of `device` in a lab-steady environment with no chaos:
    /// watchdog windows of 4096 multiplies with a 6σ + 0.02 band, 3
    /// retries at base backoff 2, clamped recoveries allowed.
    pub fn new(device: DeviceProfile) -> SupervisorConfig {
        let environment = EnvironmentConfig::steady(device.temp_c);
        SupervisorConfig {
            device,
            environment,
            chaos: ChaosPlan::none(),
            controller: ControllerConfig::default(),
            calibration_step_mv: 2,
            watchdog_window: 4096,
            band_sigmas: 6.0,
            band_floor: 0.02,
            max_retries: 3,
            backoff_base: 2,
            allow_clamped_recovery: true,
            physics_epsilon: 1e-4,
            supervision_cadence: 1,
            power_budget: None,
        }
    }

    /// Sets the thermal environment.
    #[must_use]
    pub fn with_environment(mut self, environment: EnvironmentConfig) -> SupervisorConfig {
        self.environment = environment;
        self
    }

    /// Sets the chaos plan.
    #[must_use]
    pub fn with_chaos(mut self, chaos: ChaosPlan) -> SupervisorConfig {
        self.chaos = chaos;
        self
    }

    /// Sets the controller policy (its target error rate is still
    /// overridden by the service's at deploy time).
    #[must_use]
    pub fn with_controller(mut self, controller: ControllerConfig) -> SupervisorConfig {
        self.controller = controller;
        self
    }

    /// Sets the watchdog window and confidence band.
    #[must_use]
    pub fn with_watchdog(mut self, window: u64, sigmas: f64, floor: f64) -> SupervisorConfig {
        self.watchdog_window = window.max(1);
        self.band_sigmas = sigmas;
        self.band_floor = floor;
        self
    }

    /// Sets the retry budget and base backoff.
    #[must_use]
    pub fn with_retry_policy(mut self, max_retries: u32, backoff_base: u64) -> SupervisorConfig {
        self.max_retries = max_retries;
        self.backoff_base = backoff_base.max(1);
        self
    }

    /// Demands the full target rate on recovery: clamped recalibrations
    /// count as failed retries.
    #[must_use]
    pub fn require_full_target(mut self) -> SupervisorConfig {
        self.allow_clamped_recovery = false;
        self
    }

    /// Sets the supervision cadence in batches (clamped to at least 1).
    /// See [`SupervisorConfig::supervision_cadence`].
    #[must_use]
    pub fn with_supervision_cadence(mut self, cadence: u64) -> SupervisorConfig {
        self.supervision_cadence = cadence.max(1);
        self
    }

    /// Installs a fleet power budget (see [`PowerBudgetPolicy`]).
    #[must_use]
    pub fn with_power_budget(mut self, policy: PowerBudgetPolicy) -> SupervisorConfig {
        self.power_budget = Some(policy);
        self
    }
}

/// Batches until the retry numbered `attempt` (0-based) of the shard with
/// `shard_seed` fires: exponential in the attempt, plus a deterministic
/// jitter derived from the shard seed — two shards quarantined in the
/// same batch do not retry in lockstep, and nothing reads a clock.
///
/// The exponential is capped at attempt 6 (a 64× multiplier) and the
/// arithmetic saturates, so an arbitrarily large attempt count or base can
/// never shift or add past `u64::MAX` into a wrapped-around (nonsensically
/// *short*) delay — the worst case is a delay pinned at `u64::MAX`.
pub fn retry_backoff(shard_seed: u64, attempt: u32, base: u64) -> u64 {
    let base = base.max(1);
    let exponential = base.saturating_mul(1u64 << attempt.min(6));
    let jitter = derive_seed(shard_seed, &[RETRY_TAG, u64::from(attempt)]) % base;
    exponential.saturating_add(jitter)
}

/// The supervision engine owned by a supervised
/// [`crate::serve::MonitoringService`]: the world model (environment +
/// chaos) and the control loop (voltage controller + watchdog policy).
#[derive(Clone, Debug)]
pub struct Supervisor {
    config: SupervisorConfig,
    environment: ThermalEnvironment,
    controller: AdaptiveVoltageController,
}

impl Supervisor {
    /// Builds the engine: calibrates the controller on the configured
    /// device at the configured target rate.
    ///
    /// # Errors
    ///
    /// Propagates [`CalibrationError`] for an invalid target rate (an
    /// unreachable one clamps at the guard band instead).
    pub fn new(
        mut config: SupervisorConfig,
        target_error_rate: f64,
    ) -> Result<Supervisor, CalibrationError> {
        config.controller.target_error_rate = target_error_rate;
        let calibrator = Calibrator::new().with_step(config.calibration_step_mv.max(1));
        let controller = AdaptiveVoltageController::with_calibrator(
            config.device.clone(),
            config.controller,
            calibrator,
        )?;
        let environment = ThermalEnvironment::new(config.environment);
        Ok(Supervisor {
            config,
            environment,
            controller,
        })
    }

    /// The policy.
    pub fn config(&self) -> &SupervisorConfig {
        &self.config
    }

    /// The voltage controller (most recent calibration).
    pub fn controller(&self) -> &AdaptiveVoltageController {
        &self.controller
    }

    /// Mutable access for watchdog-triggered recalibration.
    pub(crate) fn controller_mut(&mut self) -> &mut AdaptiveVoltageController {
        &mut self.controller
    }

    /// Die temperature at `batch`: the thermal environment plus any
    /// active chaos spikes. A pure function of the batch index.
    pub fn temperature_at(&self, batch: u64) -> f64 {
        self.environment.temperature_at(batch) + self.config.chaos.spike_delta_at(batch)
    }

    /// Half-width of the watchdog's acceptance band around the reference
    /// rate for a window of `multiplies` observations: `band_floor` +
    /// `band_sigmas` binomial standard deviations.
    pub fn watchdog_band(&self, reference_rate: f64, multiplies: u64) -> f64 {
        let n = multiplies.max(1) as f64;
        let p = reference_rate.clamp(1e-9, 1.0 - 1e-9);
        self.config.band_floor + self.config.band_sigmas * (p * (1.0 - p) / n).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn health_names_round_trip() {
        for h in [
            ShardHealth::Healthy,
            ShardHealth::Drifting,
            ShardHealth::Crashed,
            ShardHealth::Quarantined,
            ShardHealth::Recovering,
            ShardHealth::Degraded,
        ] {
            assert_eq!(ShardHealth::parse(h.as_str()), Some(h));
        }
        assert_eq!(ShardHealth::parse("zombie"), None);
    }

    #[test]
    fn serving_set_excludes_crashed_and_quarantined() {
        assert!(ShardHealth::Healthy.is_serving());
        assert!(ShardHealth::Drifting.is_serving());
        assert!(ShardHealth::Recovering.is_serving());
        assert!(ShardHealth::Degraded.is_serving());
        assert!(!ShardHealth::Crashed.is_serving());
        assert!(!ShardHealth::Quarantined.is_serving());
    }

    #[test]
    fn transitions_count_changes_only() {
        let mut r = SupervisionRecord::default();
        r.transition(ShardHealth::Healthy); // self-transition: no count
        assert_eq!(r.transitions, 0);
        r.transition(ShardHealth::Drifting);
        r.transition(ShardHealth::Recovering);
        r.transition(ShardHealth::Healthy);
        assert_eq!(r.transitions, 3);
        assert_eq!(r.health, ShardHealth::Healthy);
    }

    #[test]
    fn backoff_is_exponential_and_deterministic() {
        let base = 2;
        for attempt in 0..5 {
            let a = retry_backoff(41, attempt, base);
            let b = retry_backoff(41, attempt, base);
            assert_eq!(a, b, "same seed and attempt must schedule identically");
            let floor = base << attempt;
            assert!(a >= floor && a < floor + base, "attempt {attempt}: {a}");
        }
        // The jitter decorrelates shards quarantined at the same batch.
        let schedules: std::collections::HashSet<u64> =
            (0..32).map(|seed| retry_backoff(seed, 0, 8)).collect();
        assert!(schedules.len() > 1, "jitter must vary across shard seeds");
    }

    #[test]
    fn backoff_shift_saturates() {
        // Attempts beyond 6 reuse the 64x multiplier instead of shifting
        // into overflow.
        let far = retry_backoff(1, 60, 4);
        assert!((4 << 6..(4 << 6) + 4).contains(&far));
    }

    #[test]
    fn backoff_never_overflows_into_a_short_delay() {
        // Attempt counts at and past the u64 bit width behave exactly like
        // the capped attempt 6 for ordinary bases...
        for attempt in [64, 65, 1000, u32::MAX] {
            let d = retry_backoff(1, attempt, 4);
            assert!(
                (4 << 6..(4 << 6) + 4).contains(&d),
                "attempt {attempt}: delay {d}"
            );
        }
        // ...and a base large enough that the 64x multiplier (or the
        // jitter add) would wrap saturates to u64::MAX instead of wrapping
        // into a nonsense near-zero delay.
        for base in [u64::MAX, u64::MAX / 2, 1 << 58] {
            for attempt in [6, 64, u32::MAX] {
                let d = retry_backoff(7, attempt, base);
                assert!(d >= base, "base {base}, attempt {attempt}: delay {d}");
            }
            assert_eq!(retry_backoff(7, 64, u64::MAX), u64::MAX);
        }
    }

    #[test]
    fn seeded_chaos_plans_replay_identically() {
        let a = ChaosPlan::seeded(9, 4, 100, 3, 2);
        let b = ChaosPlan::seeded(9, 4, 100, 3, 2);
        assert_eq!(a, b);
        assert_eq!(a.events().len(), 5);
        let c = ChaosPlan::seeded(10, 4, 100, 3, 2);
        assert_ne!(a, c, "a different seed must reschedule the chaos");
        for e in a.events() {
            match *e {
                ChaosEvent::Crash { batch, shard } => {
                    assert!(batch < 100);
                    assert!(shard < 4);
                }
                ChaosEvent::Hang { batch, shard } => {
                    assert!(batch < 100);
                    assert!(shard < 4);
                }
                ChaosEvent::DriftSpike {
                    batch,
                    delta_c,
                    duration,
                } => {
                    assert!(batch < 100);
                    assert!((-26.0..=-10.0).contains(&delta_c));
                    assert!(duration >= 1);
                }
            }
        }
    }

    #[test]
    fn spike_deltas_are_active_only_within_their_window() {
        let plan = ChaosPlan::none()
            .with_event(ChaosEvent::DriftSpike {
                batch: 10,
                delta_c: -15.0,
                duration: 5,
            })
            .with_event(ChaosEvent::DriftSpike {
                batch: 12,
                delta_c: -4.0,
                duration: 2,
            });
        assert_eq!(plan.spike_delta_at(9), 0.0);
        assert_eq!(plan.spike_delta_at(10), -15.0);
        assert_eq!(plan.spike_delta_at(12), -19.0, "overlapping spikes sum");
        assert_eq!(plan.spike_delta_at(14), -15.0);
        assert_eq!(plan.spike_delta_at(15), 0.0);
    }

    #[test]
    fn kills_at_matches_batch() {
        let plan = ChaosPlan::none()
            .with_event(ChaosEvent::Crash { batch: 3, shard: 1 })
            .with_event(ChaosEvent::Hang { batch: 3, shard: 2 })
            .with_event(ChaosEvent::Crash { batch: 5, shard: 0 });
        let at3: Vec<usize> = plan.kills_in(3, 3).map(|(s, _)| s).collect();
        assert_eq!(at3, vec![1, 2]);
        assert_eq!(plan.kills_in(4, 4).count(), 0);
    }

    #[test]
    fn kills_in_covers_the_whole_window() {
        let plan = ChaosPlan::none()
            .with_event(ChaosEvent::Crash { batch: 3, shard: 1 })
            .with_event(ChaosEvent::Hang { batch: 5, shard: 2 })
            .with_event(ChaosEvent::Crash { batch: 9, shard: 0 });
        let window: Vec<usize> = plan.kills_in(3, 8).map(|(s, _)| s).collect();
        assert_eq!(window, vec![1, 2], "inclusive window, schedule order");
        assert_eq!(plan.kills_in(4, 4).count(), 0);
        assert_eq!(plan.kills_in(0, 64).count(), 3);
    }

    #[test]
    fn supervisor_tracks_environment_and_spikes() {
        let device = DeviceProfile::reference();
        let config = SupervisorConfig::new(device).with_chaos(ChaosPlan::none().with_event(
            ChaosEvent::DriftSpike {
                batch: 2,
                delta_c: -20.0,
                duration: 3,
            },
        ));
        let sup = Supervisor::new(config, 0.1).expect("reference device reaches er 0.1");
        assert_eq!(sup.temperature_at(0), 49.0);
        assert_eq!(sup.temperature_at(2), 29.0);
        assert_eq!(sup.temperature_at(5), 49.0);
        assert!(sup.controller().offset().is_undervolt());
    }

    #[test]
    fn power_budget_policy_clamps_into_its_band() {
        let policy = PowerBudgetPolicy::new(30.0)
            .with_target_band(0.08, 0.25)
            .with_step(0.02)
            .with_cool_below(45.0)
            .with_light_load(1.0);
        assert_eq!(policy.budget_w, 30.0);
        assert_eq!(policy.clamp_target(0.01), 0.08);
        assert_eq!(policy.clamp_target(0.9), 0.25);
        assert_eq!(policy.clamp_target(0.1), 0.1);
        let config = SupervisorConfig::new(DeviceProfile::reference()).with_power_budget(policy);
        assert_eq!(config.power_budget, Some(policy));
        assert_eq!(
            SupervisorConfig::new(DeviceProfile::reference()).power_budget,
            None
        );
    }

    #[test]
    fn watchdog_band_shrinks_with_window_size() {
        let sup = Supervisor::new(SupervisorConfig::new(DeviceProfile::reference()), 0.1)
            .expect("constructs");
        let wide = sup.watchdog_band(0.08, 512);
        let narrow = sup.watchdog_band(0.08, 1 << 20);
        assert!(wide > narrow);
        assert!(narrow >= sup.config().band_floor);
    }

    #[test]
    fn invalid_target_rate_fails_construction() {
        let err = Supervisor::new(SupervisorConfig::new(DeviceProfile::reference()), f64::NAN);
        assert!(matches!(err, Err(CalibrationError::InvalidErrorRate(_))));
    }
}
