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
//!   for watchdog-triggered recalibration, the watchdog/retry policy, and
//!   the supervision tick the service runs before every batch (crashes,
//!   physics, retries, watchdog, and [`PowerBudgetPolicy`] scheduling).
//!   The service keeps the data plane; the tick changes a shard's backend
//!   only through the shard's own methods.
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

// The tick runs on the ingest path, like the data plane in `crate::serve`:
// no unwrap/expect may survive here either.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::baseline::BaselineHmd;
use crate::exec::derive_seed;
use crate::serve::Shard;
use crate::telemetry::FaultCounters;
use shmd_power::cmos::CmosPowerModel;
use shmd_volt::calibration::{CalibrationError, Calibrator, DeviceProfile};
use shmd_volt::controller::{AdaptiveVoltageController, ControllerAction, ControllerConfig};
use shmd_volt::environment::{
    deepest_safe_offset, delivered_error_rate_at, EnvironmentConfig, ThermalEnvironment,
};
use shmd_volt::multiplier::FREEZE_ERROR_RATE;
use shmd_volt::voltage::{Millivolts, NOMINAL_CORE_VOLTAGE};
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
///    rate left the confidence band): one
///    [`STEP_ER`](PowerBudgetPolicy::STEP_ER) shallower, floored at
///    [`MIN_TARGET_ER`](PowerBudgetPolicy::MIN_TARGET_ER) — a drifting
///    operating point earns margin, not aggression.
/// 2. **Deepen** healthy shards one step when the die is cool
///    (`temp ≤` [`COOL_TEMP_C`](PowerBudgetPolicy::COOL_TEMP_C);
///    temperature inversion makes a cool die fault *more* at a fixed
///    offset, so a cool tick buys the same error rate at a shallower
///    voltage — and budget headroom at a deeper one) and the shard is
///    lightly loaded (its share of the window's queries is at most
///    [`LIGHT_LOAD`](PowerBudgetPolicy::LIGHT_LOAD) × fair share), capped
///    at [`MAX_TARGET_ER`](PowerBudgetPolicy::MAX_TARGET_ER).
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
}

impl PowerBudgetPolicy {
    /// Shallowest per-shard error-rate target the back-off phase reaches.
    pub const MIN_TARGET_ER: f64 = 0.05;
    /// Deepest per-shard error-rate target the deepening phases reach.
    pub const MAX_TARGET_ER: f64 = 0.30;
    /// Error-rate step of one retarget.
    pub const STEP_ER: f64 = 0.05;
    /// Deepen only when the die is at or below this temperature, °C: the
    /// reference device's calibration temperature.
    pub const COOL_TEMP_C: f64 = 49.0;
    /// Deepen only shards whose window query share is at most this
    /// multiple of the fair share.
    pub const LIGHT_LOAD: f64 = 1.1;

    /// A budget of `budget_w` watts.
    pub fn new(budget_w: f64) -> PowerBudgetPolicy {
        PowerBudgetPolicy { budget_w }
    }

    /// Clamps an error-rate target into the scheduling band.
    pub fn clamp_target(er: f64) -> f64 {
        er.clamp(Self::MIN_TARGET_ER, Self::MAX_TARGET_ER)
    }
}

/// Sweep step (mV) of the supervisor's calibrations — coarser than the
/// paper's 1 mV lab sweep because the supervisor recalibrates live.
pub const CALIBRATION_STEP_MV: i32 = 2;

/// The supervision tick retunes a live fault model when the physically
/// delivered error rate moves further than this from the model rate.
pub const PHYSICS_EPSILON: f64 = 1e-4;

/// Supervision policy for a [`crate::serve::MonitoringService`].
#[derive(Clone, Debug)]
pub struct SupervisorConfig {
    /// The physical device the pool runs on (all shards share the die).
    pub device: DeviceProfile,
    /// The thermal world model the deployment is exposed to.
    pub environment: EnvironmentConfig,
    /// Scripted chaos, if any.
    pub chaos: ChaosPlan,
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
            watchdog_window: 4096,
            band_sigmas: 6.0,
            band_floor: 0.02,
            max_retries: 3,
            backoff_base: 2,
            allow_clamped_recovery: true,
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
    /// Builds the engine: calibrates the controller (default guard band,
    /// [`CALIBRATION_STEP_MV`] sweep) on the configured device at
    /// `target_error_rate`.
    ///
    /// # Errors
    ///
    /// Propagates [`CalibrationError`] for an invalid target rate (an
    /// unreachable one clamps at the guard band instead).
    pub fn new(
        config: SupervisorConfig,
        target_error_rate: f64,
    ) -> Result<Supervisor, CalibrationError> {
        let controller = AdaptiveVoltageController::with_calibrator(
            config.device.clone(),
            ControllerConfig {
                target_error_rate,
                ..ControllerConfig::default()
            },
            Calibrator::new().with_step(CALIBRATION_STEP_MV),
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

    /// Mutable access for restoring a checkpointed calibration.
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

    /// The supervision tick, run on the main thread before batch `batch`
    /// is dispatched. It acts only at supervision points (every
    /// [`SupervisorConfig::supervision_cadence`] batches) and there, in
    /// order: promotes the shards rebuilt at the previous point, crashes
    /// the shards chaos kills anywhere in the window since that point,
    /// crashes frozen operating points and retunes drifted ones, runs the
    /// due recovery retries, judges the watchdog windows, and schedules
    /// power. Everything is a function of the batch index and prior state,
    /// never of wall-clock or thread scheduling.
    ///
    /// `master_seed` seeds restarted shards, `target_error_rate` is the
    /// service target a shard's power schedule starts from, and
    /// `power_model` prices the budget. Returns the projected busy power
    /// when the power scheduler ran.
    pub(crate) fn tick(
        &mut self,
        shards: &mut [Shard],
        baseline: &BaselineHmd,
        master_seed: u64,
        target_error_rate: f64,
        power_model: &CmosPowerModel,
        batch: u64,
    ) -> Option<f64> {
        let cadence = self.config.supervision_cadence.max(1);
        if !batch.is_multiple_of(cadence) {
            return None;
        }
        let window_from = batch.saturating_sub(cadence - 1);
        let temp = self.temperature_at(batch);

        // Shards rebuilt at the previous point finish their recovery.
        for shard in shards.iter_mut() {
            let record = &mut shard.state.supervision;
            if record.health == ShardHealth::Recovering {
                record.transition(ShardHealth::Healthy);
            }
        }

        // Scripted chaos kills, anywhere in the window.
        for (victim, cause) in self.config.chaos.kills_in(window_from, batch) {
            if victim < shards.len() {
                self.crash(shards, victim, batch, cause.to_string(), baseline);
            }
        }

        // Physics: what the die actually delivers at this temperature. A
        // frozen operating point crashes the shard; a drifted one retunes
        // the live fault model so the fault streams follow the die rather
        // than the stale calibration. delivered < FREEZE_ERROR_RATE < 1 at
        // a retune, so it fails only if the physics model hands back a
        // non-probability — treated like a freeze instead of a panic.
        for id in 0..shards.len() {
            let Some((offset, hmd)) = shards[id].live_model() else {
                continue;
            };
            let delivered = delivered_error_rate_at(&self.config.device, offset, temp);
            let cause = if delivered >= FREEZE_ERROR_RATE {
                format!("froze: {offset} delivers er {delivered:.3} at {temp:.1} °C")
            } else if (delivered - hmd.error_rate()).abs() > PHYSICS_EPSILON
                && hmd.retune(delivered).is_err()
            {
                format!("retune rejected delivered er {delivered:.3}")
            } else {
                continue;
            };
            self.crash(shards, id, batch, cause, baseline);
        }

        // Due recovery retries of quarantined shards. A failed retry backs
        // off, until the budget runs out and the shard serves the baseline.
        for (id, shard) in shards.iter_mut().enumerate() {
            let record = &mut shard.state.supervision;
            let due = record.health == ShardHealth::Quarantined
                && record.next_retry_batch.is_some_and(|due| batch >= due);
            if !due {
                continue;
            }
            record.retries += 1;
            let accept_clamped = self.config.allow_clamped_recovery;
            if self.recover(shard, id, temp, accept_clamped, baseline, master_seed) {
                let record = &mut shard.state.supervision;
                record.attempt = 0;
                record.next_retry_batch = None;
                continue;
            }
            let record = &mut shard.state.supervision;
            // Saturating: a restored schedule may carry any attempt count.
            record.attempt = record.attempt.saturating_add(1);
            if record.attempt >= self.config.max_retries.max(1) {
                record.next_retry_batch = None;
                let reason = format!("retry budget exhausted after {} attempts", record.retries);
                shard.fail_over(baseline, reason);
            } else {
                let backoff =
                    retry_backoff(shard.state.seed, record.attempt, self.config.backoff_base);
                record.next_retry_batch = Some(batch.saturating_add(backoff));
            }
        }

        // Watchdog: judge each live model's observed error rate over the
        // completed window against its post-calibration reference. A drift
        // flags the shard for the power scheduler and recalibrates it; if
        // that fails the shard serves the baseline.
        let mut flagged = vec![false; shards.len()];
        for (id, shard) in shards.iter_mut().enumerate() {
            if shard.live_model().is_none() {
                continue;
            }
            let now = shard.state.faults;
            let record = &mut shard.state.supervision;
            let window = now.multiplies - record.window_mark.multiplies;
            if window < self.config.watchdog_window {
                continue;
            }
            let observed = (now.faulty - record.window_mark.faulty) as f64 / window as f64;
            let Some(reference) = record.reference_rate else {
                // First full window after (re)calibration: the target *as
                // observed through this workload* (the near-zero immune
                // region absorbs a workload-dependent fraction of injected
                // faults, so the raw target would misjudge every window).
                record.reference_rate = Some(observed);
                record.window_mark = now;
                continue;
            };
            if (observed - reference).abs() <= self.watchdog_band(reference, window) {
                record.window_mark = now;
                continue;
            }
            record.drift_events += 1;
            record.transition(ShardHealth::Drifting);
            flagged[id] = true;
            if !self.recover(shard, id, temp, true, baseline, master_seed) {
                let reason = "drift recalibration failed; serving baseline".to_string();
                shard.fail_over(baseline, reason);
            }
        }

        // Power scheduling last, so this tick's drift flags and recovery
        // restarts are visible to the budget policy.
        self.schedule_power(shards, temp, &flagged, target_error_rate, power_model)
    }

    /// Crashes shard `id` if it is serving: quarantined with its first
    /// retry scheduled, or failed over when it is the last serving shard.
    fn crash(
        &self,
        shards: &mut [Shard],
        id: usize,
        batch: u64,
        cause: String,
        baseline: &BaselineHmd,
    ) {
        let serving = shards
            .iter()
            .filter(|shard| shard.state.supervision.health.is_serving())
            .count();
        let shard = &mut shards[id];
        if !shard.state.supervision.health.is_serving() {
            return;
        }
        let retry_at = (serving > 1).then(|| {
            batch.saturating_add(retry_backoff(shard.state.seed, 0, self.config.backoff_base))
        });
        shard.crash(baseline, cause, retry_at);
    }

    /// The one recovery step of a retry and of a watchdog drift:
    /// recalibrates the controller at `temp` and restarts shard `id` at
    /// the fresh offset, `Recovering` with a reset watchdog. Returns
    /// `false`, leaving the shard as it was, when the calibration fails,
    /// clamps at the guard band without `accept_clamped`, or yields no
    /// fault model.
    fn recover(
        &mut self,
        shard: &mut Shard,
        id: usize,
        temp: f64,
        accept_clamped: bool,
        baseline: &BaselineHmd,
        master_seed: u64,
    ) -> bool {
        let restarted = match self.controller.force_recalibrate(temp) {
            Ok(ControllerAction::Clamped { .. }) if !accept_clamped => false,
            Ok(_) => {
                let (curve, offset) = (self.controller.curve(), self.controller.offset());
                shard.restart(id, baseline, curve, offset, master_seed)
            }
            Err(_) => false,
        };
        if restarted {
            let state = &mut shard.state;
            state.supervision.transition(ShardHealth::Recovering);
            state.supervision.reset_watchdog(state.faults);
        }
        restarted
    }

    /// One power-scheduling pass under the configured
    /// [`PowerBudgetPolicy`] (no-op without one): retargets every live
    /// model's error rate as load and temperature move, holding the
    /// projected busy-power total under the budget and every operating
    /// point a guard band shy of the freeze threshold. `flagged` marks the
    /// shards the watchdog flagged this tick. Returns the projection.
    fn schedule_power(
        &self,
        shards: &mut [Shard],
        temp: f64,
        flagged: &[bool],
        target_error_rate: f64,
        power_model: &CmosPowerModel,
    ) -> Option<f64> {
        let policy = self.config.power_budget?;
        let device = &self.config.device;
        let guard = self.controller.config().guard_band_mv;
        // The physical floor at this temperature: deepening stops a
        // guard band shy of wherever the freeze point sits *now*.
        let floor = deepest_safe_offset(device, temp, guard);
        let nominal_power = power_model.core_power_w(NOMINAL_CORE_VOLTAGE);
        let serving: Vec<usize> = (0..shards.len())
            .filter(|&id| shards[id].state.supervision.health.is_serving())
            .collect();
        if serving.is_empty() {
            return None;
        }

        // Per-shard load over the window since the previous tick,
        // against the fair share of the serving set.
        let window_total: u64 = serving
            .iter()
            .map(|&id| {
                let state = &shards[id].state;
                state.queries - state.power_window_queries
            })
            .sum();
        let fair = window_total as f64 / serving.len() as f64;

        // Phases A and B: tentative per-shard targets. A freshly
        // drift-flagged shard backs off one step toward the nominal end
        // of the band; a healthy shard on a cool die carrying no more
        // than its fair share deepens one step.
        let n = shards.len();
        let mut targets: Vec<Option<f64>> = vec![None; n];
        for &id in &serving {
            let shard = &mut shards[id];
            if shard.live_model().is_none() {
                continue;
            }
            let state = &shard.state;
            let current = state
                .power_target_er
                .unwrap_or_else(|| PowerBudgetPolicy::clamp_target(target_error_rate));
            let window = (state.queries - state.power_window_queries) as f64;
            let light = fair == 0.0 || window <= PowerBudgetPolicy::LIGHT_LOAD * fair;
            let target = if flagged[id] {
                PowerBudgetPolicy::clamp_target(current - PowerBudgetPolicy::STEP_ER)
            } else if temp <= PowerBudgetPolicy::COOL_TEMP_C && light {
                PowerBudgetPolicy::clamp_target(current + PowerBudgetPolicy::STEP_ER)
            } else {
                current
            };
            targets[id] = Some(target);
        }

        // A target's operating point: the controller's curve-derived
        // offset, clamped shallow of the physical floor, and the busy
        // core power it draws.
        let place = |target: f64| -> (Millivolts, f64) {
            let offset = match self.controller.offset_for_target(target) {
                Ok((offset, _clamped)) => offset,
                Err(_) => Millivolts::new(0),
            };
            let offset = Millivolts::new(offset.get().max(floor.get()));
            let power = power_model.core_power_w(NOMINAL_CORE_VOLTAGE.with_offset(offset));
            (offset, power)
        };
        let mut offsets: Vec<Option<Millivolts>> = vec![None; n];
        let mut powers: Vec<f64> = vec![0.0; n];
        for &id in &serving {
            match targets[id] {
                Some(target) => {
                    let (offset, power) = place(target);
                    offsets[id] = Some(offset);
                    powers[id] = power;
                }
                // Serving but not retargetable (degraded to baseline):
                // budgeted at nominal busy power.
                None => powers[id] = nominal_power,
            }
        }
        let mut total: f64 = serving.iter().map(|&id| powers[id]).sum();

        // Phase C: while the projection exceeds the budget, deepen
        // healthy shards one step each in id order. Stops as soon as the
        // projection fits, or when a full pass makes no progress (every
        // shard at its band cap or physical floor: the budget is held
        // best-effort, never by freezing a shard).
        while total > policy.budget_w {
            let before = total;
            for &id in &serving {
                let Some(target) = targets[id] else {
                    continue;
                };
                if flagged[id] || target >= PowerBudgetPolicy::MAX_TARGET_ER {
                    continue;
                }
                let deeper = PowerBudgetPolicy::clamp_target(target + PowerBudgetPolicy::STEP_ER);
                let (offset, power) = place(deeper);
                total += power - powers[id];
                targets[id] = Some(deeper);
                offsets[id] = Some(offset);
                powers[id] = power;
                if total <= policy.budget_w {
                    break;
                }
            }
            if total >= before {
                break;
            }
        }

        // Apply: write each schedule into the live fault model at the
        // rate the die physically delivers there, and rebase the
        // watchdog reference wherever the operating point moved.
        for &id in &serving {
            let (Some(target), Some(offset)) = (targets[id], offsets[id]) else {
                continue;
            };
            let shard = &mut shards[id];
            shard.state.power_target_er = Some(target);
            let Some((live, hmd)) = shard.live_model() else {
                continue;
            };
            if live == offset {
                continue;
            }
            let delivered = delivered_error_rate_at(device, offset, temp);
            if delivered >= FREEZE_ERROR_RATE || hmd.apply_offset(offset, delivered).is_err() {
                // Unreachable by construction (the floor keeps every
                // schedule a guard band shy of freezing), but a schedule
                // is never worth crashing a shard over.
                continue;
            }
            shard.state.supervision.reset_watchdog(shard.state.faults);
        }
        // Close the load window and publish the projection.
        for shard in shards.iter_mut() {
            shard.state.power_window_queries = shard.state.queries;
        }
        Some(total)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
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
        let policy = PowerBudgetPolicy::new(30.0);
        assert_eq!(policy.budget_w, 30.0);
        assert_eq!(PowerBudgetPolicy::clamp_target(0.01), 0.05);
        assert_eq!(PowerBudgetPolicy::clamp_target(0.9), 0.30);
        assert_eq!(PowerBudgetPolicy::clamp_target(0.1), 0.1);
        assert_eq!(
            PowerBudgetPolicy::COOL_TEMP_C,
            DeviceProfile::reference().temp_c
        );
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
