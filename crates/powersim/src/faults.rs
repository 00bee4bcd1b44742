//! Deterministic fault injection for the simulated plant.
//!
//! Real racks misbehave: power monitors drop samples, stick, or spike;
//! DVFS actuators lag and quantize; UPS strings fade and hit discharge
//! current limits; breakers carry unknown thermal preload; servers crash.
//! A [`FaultPlan`] describes such disturbances — as a schedule of
//! [`FaultEvent`]s and/or stochastic on/off processes — and a
//! [`FaultInjector`] replays them tick by tick inside the simulation
//! loop, seed-reproducibly.
//!
//! Two invariants matter:
//!
//! * **Determinism.** All randomness comes from one dedicated
//!   [`NoiseSource`] owned by the injector, so the same seed and the same
//!   plan replay bit-identically and never perturb the plant's own noise
//!   streams (monitor, fan, workload).
//! * **Zero drift when empty.** An empty plan consumes no random numbers
//!   and applies no transformations: a simulation built with
//!   [`FaultPlan::none`] is bit-identical to one built before this module
//!   existed.

use crate::noise::NoiseSource;
use crate::units::{Seconds, Watts};

/// One class of disturbance. Parameters describe the fault's *severity*;
/// its timing comes from the enclosing [`FaultEvent`] or
/// [`StochasticFault`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The power monitor returns no sample (reads as NaN downstream).
    MonitorDropout,
    /// The power monitor repeats its last pre-fault reading.
    MonitorStuckAt,
    /// The power monitor reads high by `magnitude` (EMI burst, clamp
    /// misread). Positive so a plausibility bound can catch it.
    MonitorSpike { magnitude: Watts },
    /// First-order actuator lag: applied frequency approaches the
    /// command with time constant `tau` instead of stepping instantly.
    ActuatorLag { tau: Seconds },
    /// Coarse DVFS quantization: commands snap to multiples of `step`
    /// (e.g. 0.25 → only 5 distinct frequencies).
    ActuatorQuantize { step: f64 },
    /// Permanent loss of a fraction of UPS capacity (cell fade). Applied
    /// once at fault onset; never restored.
    UpsCapacityFade { fraction: f64 },
    /// Discharge-current limit: while active, the UPS cannot deliver
    /// more than `max_discharge` regardless of its spec.
    UpsCurrentLimit { max_discharge: Watts },
    /// One-shot thermal preload: at onset the breaker's accumulated heat
    /// jumps by `delta` × trip budget (hot neighbour, miscalibration).
    BreakerHeatPerturb { delta: f64 },
    /// Server `server` loses power for the fault window and recovers
    /// when it closes (unless the rack browned out meanwhile).
    ServerCrash { server: usize },
}

impl FaultKind {
    /// Stable telemetry / reporting label for the fault class.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::MonitorDropout => "monitor_dropout",
            FaultKind::MonitorStuckAt => "monitor_stuck_at",
            FaultKind::MonitorSpike { .. } => "monitor_spike",
            FaultKind::ActuatorLag { .. } => "actuator_lag",
            FaultKind::ActuatorQuantize { .. } => "actuator_quantize",
            FaultKind::UpsCapacityFade { .. } => "ups_capacity_fade",
            FaultKind::UpsCurrentLimit { .. } => "ups_current_limit",
            FaultKind::BreakerHeatPerturb { .. } => "breaker_heat_perturb",
            FaultKind::ServerCrash { .. } => "server_crash",
        }
    }

    /// Name of the telemetry counter of ticks this class is active:
    /// `fault_active.` followed by [`FaultKind::label`].
    pub fn counter_name(&self) -> &'static str {
        match self {
            FaultKind::MonitorDropout => "fault_active.monitor_dropout",
            FaultKind::MonitorStuckAt => "fault_active.monitor_stuck_at",
            FaultKind::MonitorSpike { .. } => "fault_active.monitor_spike",
            FaultKind::ActuatorLag { .. } => "fault_active.actuator_lag",
            FaultKind::ActuatorQuantize { .. } => "fault_active.actuator_quantize",
            FaultKind::UpsCapacityFade { .. } => "fault_active.ups_capacity_fade",
            FaultKind::UpsCurrentLimit { .. } => "fault_active.ups_current_limit",
            FaultKind::BreakerHeatPerturb { .. } => "fault_active.breaker_heat_perturb",
            FaultKind::ServerCrash { .. } => "fault_active.server_crash",
        }
    }
}

/// A scheduled fault: `kind` is active on `start <= t < start + duration`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    pub start: Seconds,
    pub duration: Seconds,
    pub kind: FaultKind,
}

impl FaultEvent {
    pub fn new(start: Seconds, duration: Seconds, kind: FaultKind) -> Self {
        FaultEvent {
            start,
            duration,
            kind,
        }
    }

    fn active_at(&self, t: Seconds) -> bool {
        t.0 >= self.start.0 && t.0 < self.start.0 + self.duration.0
    }
}

/// A stochastic on/off fault process (a two-state Markov chain in
/// continuous time): while inactive the fault starts with probability
/// `start_rate`·dt per tick; once started it stays active for an
/// exponentially distributed time with mean `mean_duration`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StochasticFault {
    pub kind: FaultKind,
    /// Activations per second while inactive.
    pub start_rate: f64,
    pub mean_duration: Seconds,
}

/// The disturbance schedule for one run: deterministic events plus
/// stochastic processes. Cheap to clone; owned RNG state lives in the
/// per-run [`FaultInjector`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    pub events: Vec<FaultEvent>,
    pub stochastic: Vec<StochasticFault>,
}

impl FaultPlan {
    /// No disturbances (the nominal scenario).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.stochastic.is_empty()
    }

    /// Add a scheduled fault window.
    pub fn with_event(mut self, start: Seconds, duration: Seconds, kind: FaultKind) -> Self {
        self.events.push(FaultEvent::new(start, duration, kind));
        self
    }

    /// Add a stochastic on/off fault process.
    pub fn with_stochastic(mut self, fault: StochasticFault) -> Self {
        self.stochastic.push(fault);
        self
    }

    /// Random power-monitor dropouts covering `intensity` (0..1) of the
    /// run in expectation, in outages of mean length `mean_outage`.
    ///
    /// The on/off process spends `rate·mean / (1 + rate·mean)` of its
    /// time active, so the start rate is solved from the requested duty.
    pub fn monitor_dropout(intensity: f64, mean_outage: Seconds) -> Self {
        assert!(
            (0.0..1.0).contains(&intensity),
            "dropout intensity must be in [0, 1): {intensity}"
        );
        assert!(mean_outage.0 > 0.0, "mean outage must be positive");
        if intensity == 0.0 {
            return FaultPlan::none();
        }
        let start_rate = intensity / ((1.0 - intensity) * mean_outage.0);
        FaultPlan::none().with_stochastic(StochasticFault {
            kind: FaultKind::MonitorDropout,
            start_rate,
            mean_duration: mean_outage,
        })
    }
}

/// Everything the simulation engine needs to know about the faults that
/// are active this tick. Onset-edge actions (`ups_capacity_fade`,
/// `breaker_heat_delta`) appear exactly once, at the tick the fault
/// starts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ActiveFaults {
    pub monitor_dropout: bool,
    /// The reading the monitor is stuck at (captured at onset).
    pub monitor_stuck_at: Option<Watts>,
    /// Sum of active spike magnitudes added to the measurement.
    pub monitor_spike: Option<Watts>,
    /// Slowest active lag time constant.
    pub actuator_lag: Option<Seconds>,
    /// Coarsest active quantization step.
    pub actuator_quantize: Option<f64>,
    /// Tightest active discharge-current limit.
    pub ups_current_limit: Option<Watts>,
    /// Capacity fraction lost *this tick* (onset edge, applied once).
    pub ups_capacity_fade: Option<f64>,
    /// Breaker heat jump *this tick*, as a fraction of the trip budget
    /// (onset edge, applied once).
    pub breaker_heat_delta: Option<f64>,
    /// Servers without power this tick.
    pub crashed_servers: Vec<usize>,
}

impl ActiveFaults {
    pub fn any(&self) -> bool {
        self.monitor_dropout
            || self.monitor_stuck_at.is_some()
            || self.monitor_spike.is_some()
            || self.actuator_lag.is_some()
            || self.actuator_quantize.is_some()
            || self.ups_current_limit.is_some()
            || self.ups_capacity_fade.is_some()
            || self.breaker_heat_delta.is_some()
            || !self.crashed_servers.is_empty()
    }

    pub fn any_actuator(&self) -> bool {
        self.actuator_lag.is_some() || self.actuator_quantize.is_some()
    }

    /// Every fault class active this tick, as a [`FaultKind`] carrying
    /// its merged value (crashes name the first crashed server).
    /// Allocation-free, for the engine's per-tick telemetry.
    pub fn kinds(&self) -> impl Iterator<Item = FaultKind> {
        [
            self.monitor_dropout.then_some(FaultKind::MonitorDropout),
            self.monitor_stuck_at.map(|_| FaultKind::MonitorStuckAt),
            self.monitor_spike
                .map(|magnitude| FaultKind::MonitorSpike { magnitude }),
            self.actuator_lag.map(|tau| FaultKind::ActuatorLag { tau }),
            self.actuator_quantize
                .map(|step| FaultKind::ActuatorQuantize { step }),
            self.ups_capacity_fade
                .map(|fraction| FaultKind::UpsCapacityFade { fraction }),
            self.ups_current_limit
                .map(|max_discharge| FaultKind::UpsCurrentLimit { max_discharge }),
            self.breaker_heat_delta
                .map(|delta| FaultKind::BreakerHeatPerturb { delta }),
            self.crashed_servers
                .first()
                .map(|&server| FaultKind::ServerCrash { server }),
        ]
        .into_iter()
        .flatten()
    }

    fn merge(&mut self, kind: FaultKind, onset: bool, last_measured: Watts) {
        match kind {
            FaultKind::MonitorDropout => self.monitor_dropout = true,
            FaultKind::MonitorStuckAt => {
                // The stuck value is latched by the injector at onset;
                // `merge` only sees a placeholder when the latch is
                // installed elsewhere. Default: stick at the last
                // reported measurement.
                if self.monitor_stuck_at.is_none() {
                    self.monitor_stuck_at = Some(last_measured);
                }
            }
            FaultKind::MonitorSpike { magnitude } => {
                let prev = self.monitor_spike.map_or(0.0, |w| w.0);
                self.monitor_spike = Some(Watts(prev + magnitude.0));
            }
            FaultKind::ActuatorLag { tau } => {
                let cur = self.actuator_lag.map_or(0.0, |t| t.0);
                self.actuator_lag = Some(Seconds(cur.max(tau.0)));
            }
            FaultKind::ActuatorQuantize { step } => {
                let cur = self.actuator_quantize.unwrap_or(0.0);
                self.actuator_quantize = Some(cur.max(step));
            }
            FaultKind::UpsCapacityFade { fraction } => {
                if onset {
                    let cur = self.ups_capacity_fade.unwrap_or(0.0);
                    self.ups_capacity_fade = Some((cur + fraction).min(1.0));
                }
            }
            FaultKind::UpsCurrentLimit { max_discharge } => {
                let cur = self.ups_current_limit.map_or(f64::INFINITY, |w| w.0);
                self.ups_current_limit = Some(Watts(cur.min(max_discharge.0)));
            }
            FaultKind::BreakerHeatPerturb { delta } => {
                if onset {
                    let cur = self.breaker_heat_delta.unwrap_or(0.0);
                    self.breaker_heat_delta = Some(cur + delta);
                }
            }
            FaultKind::ServerCrash { server } => {
                if !self.crashed_servers.contains(&server) {
                    self.crashed_servers.push(server);
                }
            }
        }
    }
}

/// Per-run replay state for a [`FaultPlan`]. Owned by the simulation;
/// advanced once per tick *before* the plant is evaluated.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    noise: NoiseSource,
    /// Was each scheduled event active last tick (onset-edge detection)?
    event_was_active: Vec<bool>,
    /// Remaining active time per stochastic process (`None` = inactive).
    stoch_remaining: Vec<Option<Seconds>>,
    /// Was each stochastic process active last tick?
    stoch_was_active: Vec<bool>,
    /// Latched reading for any active stuck-at fault.
    stuck_value: Option<Watts>,
}

impl FaultInjector {
    /// `seed` must be dedicated to fault injection (the scenario builder
    /// derives it from the scenario seed with a fixed offset).
    pub fn new(plan: FaultPlan, seed: u64) -> Self {
        let n_events = plan.events.len();
        let n_stoch = plan.stochastic.len();
        FaultInjector {
            plan,
            noise: NoiseSource::new(seed),
            event_was_active: vec![false; n_events],
            stoch_remaining: vec![None; n_stoch],
            stoch_was_active: vec![false; n_stoch],
            stuck_value: None,
        }
    }

    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Advance one tick and resolve the set of active faults.
    /// `last_measured` is the previous tick's reported measurement — the
    /// value a stuck sensor latches onto.
    pub fn advance(&mut self, now: Seconds, dt: Seconds, last_measured: Watts) -> ActiveFaults {
        let mut active = ActiveFaults::default();
        if self.plan.is_empty() {
            // Fast path: no RNG draws, no state churn, zero drift.
            return active;
        }

        // Scheduled events.
        for i in 0..self.plan.events.len() {
            let ev = self.plan.events[i];
            let is_active = ev.active_at(now);
            let onset = is_active && !self.event_was_active[i];
            self.event_was_active[i] = is_active;
            if is_active {
                active.merge(ev.kind, onset, last_measured);
            }
        }

        // Stochastic processes. Each inactive process draws exactly one
        // uniform per tick (the Bernoulli start trial) and one more at
        // activation (the exponential duration), keeping the stream
        // aligned regardless of what other processes do.
        for i in 0..self.plan.stochastic.len() {
            let sf = self.plan.stochastic[i];
            let state = &mut self.stoch_remaining[i];
            match state {
                Some(remaining) => {
                    remaining.0 -= dt.0;
                    if remaining.0 <= 0.0 {
                        *state = None;
                    }
                }
                None => {
                    let u = self.noise.uniform();
                    if u < sf.start_rate * dt.0 {
                        // Exponential duration, at least one full tick.
                        let draw = self.noise.uniform().max(f64::MIN_POSITIVE);
                        let len = (-draw.ln() * sf.mean_duration.0).max(dt.0);
                        *state = Some(Seconds(len));
                    }
                }
            }
            let is_active = self.stoch_remaining[i].is_some();
            let onset = is_active && !self.stoch_was_active[i];
            self.stoch_was_active[i] = is_active;
            if is_active {
                active.merge(sf.kind, onset, last_measured);
            }
        }

        // Stuck-at latching: capture the last reported reading when the
        // fault first engages; release the latch when it clears.
        if active.monitor_stuck_at.is_some() {
            let latched = *self.stuck_value.get_or_insert(last_measured);
            active.monitor_stuck_at = Some(latched);
        } else {
            self.stuck_value = None;
        }

        active
    }

    /// Apply the active monitor faults to a raw measurement.
    /// Precedence: dropout (no sample) > stuck-at > spike.
    pub fn corrupt_measurement(&self, raw: Watts, active: &ActiveFaults) -> Watts {
        if active.monitor_dropout {
            return Watts(f64::NAN);
        }
        if let Some(stuck) = active.monitor_stuck_at {
            return stuck;
        }
        if let Some(spike) = active.monitor_spike {
            return Watts(raw.0 + spike.0);
        }
        raw
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_names_prefix_the_labels_and_kinds_cover_every_class() {
        let all = ActiveFaults {
            monitor_dropout: true,
            monitor_stuck_at: Some(Watts(1.0)),
            monitor_spike: Some(Watts(2.0)),
            actuator_lag: Some(Seconds(3.0)),
            actuator_quantize: Some(0.25),
            ups_current_limit: Some(Watts(4.0)),
            ups_capacity_fade: Some(0.5),
            breaker_heat_delta: Some(0.1),
            crashed_servers: vec![3, 5],
        };
        let labels: Vec<&str> = all.kinds().map(|k| k.label()).collect();
        assert_eq!(
            labels,
            [
                "monitor_dropout",
                "monitor_stuck_at",
                "monitor_spike",
                "actuator_lag",
                "actuator_quantize",
                "ups_capacity_fade",
                "ups_current_limit",
                "breaker_heat_perturb",
                "server_crash",
            ]
        );
        for kind in all.kinds() {
            assert_eq!(
                kind.counter_name(),
                format!("fault_active.{}", kind.label())
            );
        }
        assert_eq!(ActiveFaults::default().kinds().count(), 0);
    }

    #[test]
    fn empty_plan_is_inert() {
        let mut inj = FaultInjector::new(FaultPlan::none(), 7);
        for k in 0..100 {
            let af = inj.advance(Seconds(k as f64), Seconds(1.0), Watts(4000.0));
            assert!(!af.any());
            assert_eq!(af, ActiveFaults::default());
        }
        // The injector's RNG was never touched: a fresh source produces
        // the same next value.
        assert_eq!(inj.noise.uniform(), NoiseSource::new(7).uniform());
    }

    #[test]
    fn scheduled_event_windows_are_half_open() {
        let plan =
            FaultPlan::none().with_event(Seconds(10.0), Seconds(5.0), FaultKind::MonitorDropout);
        let mut inj = FaultInjector::new(plan, 1);
        for k in 0..30 {
            let t = Seconds(k as f64);
            let af = inj.advance(t, Seconds(1.0), Watts(4000.0));
            let expect = (10.0..15.0).contains(&t.0);
            assert_eq!(af.monitor_dropout, expect, "t={k}");
        }
    }

    #[test]
    fn onset_edges_fire_once() {
        let plan = FaultPlan::none().with_event(
            Seconds(5.0),
            Seconds(10.0),
            FaultKind::BreakerHeatPerturb { delta: 0.4 },
        );
        let mut inj = FaultInjector::new(plan, 1);
        let mut edges = 0;
        for k in 0..30 {
            let af = inj.advance(Seconds(k as f64), Seconds(1.0), Watts(4000.0));
            if af.breaker_heat_delta.is_some() {
                edges += 1;
                assert_eq!(k, 5, "heat jump only at onset");
            }
        }
        assert_eq!(edges, 1);
    }

    #[test]
    fn stuck_at_latches_the_pre_fault_reading() {
        let plan =
            FaultPlan::none().with_event(Seconds(2.0), Seconds(3.0), FaultKind::MonitorStuckAt);
        let mut inj = FaultInjector::new(plan, 1);
        // Feed a changing "last measurement" each tick; the stuck window
        // must hold the value from its first tick.
        let mut seen = Vec::new();
        for k in 0..8 {
            let last = Watts(1000.0 + 100.0 * k as f64);
            let af = inj.advance(Seconds(k as f64), Seconds(1.0), last);
            if let Some(v) = af.monitor_stuck_at {
                seen.push(v.0);
            }
        }
        assert_eq!(seen, vec![1200.0, 1200.0, 1200.0]);
    }

    #[test]
    fn stochastic_dropout_hits_the_requested_duty_roughly() {
        let plan = FaultPlan::monitor_dropout(0.2, Seconds(8.0));
        let mut inj = FaultInjector::new(plan, 99);
        let ticks = 20_000;
        let mut active = 0;
        for k in 0..ticks {
            let af = inj.advance(Seconds(k as f64), Seconds(1.0), Watts(4000.0));
            if af.monitor_dropout {
                active += 1;
            }
        }
        let duty = active as f64 / ticks as f64;
        assert!(
            (0.12..0.30).contains(&duty),
            "duty {duty} far from requested 0.2"
        );
    }

    #[test]
    fn stochastic_replay_is_deterministic() {
        let plan = FaultPlan::monitor_dropout(0.1, Seconds(5.0));
        let mut a = FaultInjector::new(plan.clone(), 42);
        let mut b = FaultInjector::new(plan, 42);
        for k in 0..5_000 {
            let t = Seconds(k as f64);
            assert_eq!(
                a.advance(t, Seconds(1.0), Watts(4000.0)),
                b.advance(t, Seconds(1.0), Watts(4000.0))
            );
        }
    }

    #[test]
    fn measurement_corruption_precedence() {
        let mut af = ActiveFaults {
            monitor_dropout: true,
            monitor_stuck_at: Some(Watts(3000.0)),
            monitor_spike: Some(Watts(500.0)),
            ..ActiveFaults::default()
        };
        let inj = FaultInjector::new(FaultPlan::none(), 1);
        assert!(!inj.corrupt_measurement(Watts(4000.0), &af).is_finite());
        af.monitor_dropout = false;
        assert_eq!(inj.corrupt_measurement(Watts(4000.0), &af), Watts(3000.0));
        af.monitor_stuck_at = None;
        assert_eq!(inj.corrupt_measurement(Watts(4000.0), &af), Watts(4500.0));
        af.monitor_spike = None;
        assert_eq!(inj.corrupt_measurement(Watts(4000.0), &af), Watts(4000.0));
    }
}
