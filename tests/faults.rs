//! Fault-injection integration tests: determinism of fault replay, the
//! zero-drift guarantee when faults are disabled, the mapping from each
//! fault class to its degraded-mode telemetry, and the headline
//! acceptance scenario (monitor dropout at 10% intensity).

use powersim::faults::{FaultKind, FaultPlan, StochasticFault};
use powersim::units::{Seconds, Watts};
use simkit::{run_policy, PolicyKind, Recorder, Scenario};

fn assert_bitwise_equal(a: &Recorder, b: &Recorder) {
    assert_eq!(a.samples().len(), b.samples().len());
    for (i, (x, y)) in a.samples().iter().zip(b.samples()).enumerate() {
        assert_eq!(
            x.p_total.0.to_bits(),
            y.p_total.0.to_bits(),
            "p_total diverges at sample {i}"
        );
        assert_eq!(
            x.p_measured.0.to_bits(),
            y.p_measured.0.to_bits(),
            "p_measured diverges at sample {i}"
        );
        assert_eq!(
            x.ups_power.0.to_bits(),
            y.ups_power.0.to_bits(),
            "ups_power diverges at sample {i}"
        );
        assert_eq!(
            x.breaker_margin.to_bits(),
            y.breaker_margin.to_bits(),
            "breaker_margin diverges at sample {i}"
        );
        assert_eq!(
            x.ups_soc.to_bits(),
            y.ups_soc.to_bits(),
            "ups_soc diverges at sample {i}"
        );
    }
}

fn busy_plan() -> FaultPlan {
    FaultPlan::none()
        .with_event(Seconds(60.0), Seconds(45.0), FaultKind::MonitorStuckAt)
        .with_event(
            Seconds(150.0),
            Seconds(60.0),
            FaultKind::ActuatorLag { tau: Seconds(4.0) },
        )
        .with_stochastic(StochasticFault {
            kind: FaultKind::MonitorDropout,
            start_rate: 0.02,
            mean_duration: Seconds(6.0),
        })
}

/// Same seed + same plan → bit-identical runs, even with stochastic
/// fault processes in the plan.
#[test]
fn fault_replay_is_bit_identical() {
    let scenario = Scenario::builder(7)
        .duration(Seconds::minutes(5.0))
        .deadline(Seconds::minutes(4.0))
        .faults(busy_plan())
        .build()
        .expect("valid scenario");
    let a = run_policy(&scenario, PolicyKind::SprintCon);
    let b = run_policy(&scenario, PolicyKind::SprintCon);
    assert_bitwise_equal(&a.recorder, &b.recorder);
    // The faults were actually live, not vacuously absent.
    assert!(a.metrics.counter("degraded.measurement_hold") > 0);
}

/// An empty fault plan is indistinguishable — bit for bit — from a plan
/// whose events never activate: the injector must not consume RNG or
/// perturb any state while idle.
#[test]
fn disabled_faults_cause_zero_drift() {
    let base = Scenario::builder(2019)
        .duration(Seconds::minutes(5.0))
        .deadline(Seconds::minutes(4.0))
        .build()
        .expect("valid scenario");
    let far_future = Scenario::builder(2019)
        .duration(Seconds::minutes(5.0))
        .deadline(Seconds::minutes(4.0))
        .faults(FaultPlan::none().with_event(
            Seconds(1e9),
            Seconds(60.0),
            FaultKind::MonitorDropout,
        ))
        .build()
        .expect("valid scenario");
    for kind in [PolicyKind::SprintCon, PolicyKind::Sgct] {
        let a = run_policy(&base, kind);
        let b = run_policy(&far_future, kind);
        assert_bitwise_equal(&a.recorder, &b.recorder);
        assert_eq!(a.metrics.counter("degraded.measurement_hold"), 0);
        assert_eq!(a.metrics.counter("server_ctrl_pid_fallback"), 0);
    }
}

/// Each fault class drives exactly the degraded-mode path built for it,
/// observable through the PR-1 telemetry counters.
#[test]
fn each_fault_class_hits_its_degraded_mode_counter() {
    // (fault, counter that must fire)
    let table: &[(FaultKind, &str)] = &[
        (FaultKind::MonitorDropout, "degraded.dropout"),
        (FaultKind::MonitorStuckAt, "degraded.stuck_sensor"),
        (
            FaultKind::MonitorSpike {
                magnitude: Watts(20_000.0),
            },
            "degraded.spike_rejected",
        ),
        (
            FaultKind::ActuatorLag { tau: Seconds(6.0) },
            "fault_active.actuator_lag",
        ),
        (
            FaultKind::ActuatorQuantize { step: 0.2 },
            "fault_active.actuator_quantize",
        ),
        (
            FaultKind::UpsCapacityFade { fraction: 0.4 },
            "fault_active.ups_capacity_fade",
        ),
        (
            FaultKind::UpsCurrentLimit {
                max_discharge: Watts(600.0),
            },
            "fault_active.ups_current_limit",
        ),
        (
            FaultKind::BreakerHeatPerturb { delta: 0.2 },
            "fault_active.breaker_heat_perturb",
        ),
        (
            FaultKind::ServerCrash { server: 0 },
            "fault_active.server_crash",
        ),
    ];
    for (kind, counter) in table {
        let scenario = Scenario::builder(11)
            .duration(Seconds::minutes(4.0))
            .deadline(Seconds::minutes(3.0))
            .faults(FaultPlan::none().with_event(Seconds(60.0), Seconds(90.0), *kind))
            .build()
            .expect("valid scenario");
        let out = run_policy(&scenario, PolicyKind::SprintCon);
        assert!(
            out.metrics.counter(counter) > 0,
            "{}: expected counter {counter} to fire\ncounters: {:?}",
            kind.label(),
            out.metrics
        );
        // Whatever the fault, the run itself must stay sane: no
        // brownout, all samples finite.
        assert!(!out.summary.shutdown, "{}: rack browned out", kind.label());
        for s in out.recorder.samples() {
            assert!(s.ups_power.0.is_finite() && s.cb_power.0.is_finite());
        }
    }
}

/// The acceptance scenario: with the power monitor dropping out 10% of
/// the time, SprintCon still completes the §VI-A sprint with zero
/// breaker trips, while the uncontrolled baseline trips.
#[test]
fn ten_percent_dropout_sprintcon_never_trips_uncontrolled_does() {
    let plan = FaultPlan::monitor_dropout(0.10, Seconds(8.0));
    let scenario = Scenario::builder(2019)
        .faults(plan)
        .build()
        .expect("valid scenario");

    let sprintcon = run_policy(&scenario, PolicyKind::SprintCon);
    assert_eq!(
        sprintcon.summary.trips, 0,
        "SprintCon must not trip under 10% monitor dropout"
    );
    assert!(!sprintcon.summary.shutdown);
    // The degradation ladder was exercised, not bypassed.
    assert!(sprintcon.metrics.counter("degraded.measurement_hold") > 0);

    let uncontrolled = run_policy(&scenario, PolicyKind::Sgct);
    assert!(
        uncontrolled.summary.trips >= 1,
        "uncontrolled sprinting should trip the breaker"
    );
}

/// The per-class `fault_active.*` counters keep their names and counts.
/// A monitor-dropout run with one overlapping actuator-lag window reports
/// the values pinned here, which the per-tick `format!` of the names
/// produced too. Every dropout tick also reads NaN, so the dropout count
/// equals the number of NaN readings.
#[test]
fn fault_counters_keep_their_names_and_counts() {
    let plan = FaultPlan::monitor_dropout(0.10, Seconds(8.0)).with_event(
        Seconds(60.0),
        Seconds(30.0),
        FaultKind::ActuatorLag { tau: Seconds(4.0) },
    );
    let scenario = Scenario::builder(5)
        .duration(Seconds::minutes(6.0))
        .deadline(Seconds::minutes(5.0))
        .faults(plan)
        .build()
        .expect("valid scenario");
    let out = run_policy(&scenario, PolicyKind::SprintCon);
    let counters: Vec<(&str, u64)> = out
        .metrics
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("fault_active."))
        .map(|(name, n)| (name.as_str(), *n))
        .collect();
    assert_eq!(
        counters,
        [
            ("fault_active.actuator_lag", 30),
            ("fault_active.monitor_dropout", 27)
        ]
    );
    let nan_readings = out
        .recorder
        .samples()
        .iter()
        .filter(|s| s.p_measured.0.is_nan())
        .count() as u64;
    assert_eq!(
        out.metrics.counter("fault_active.monitor_dropout"),
        nan_readings
    );
}
