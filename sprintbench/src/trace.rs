//! Benchmark-side tracing: time each `RackSim::step` and each
//! `Policy::control` call from outside the simulator.
//!
//! [`run_traced`] is the same run body as `simkit::run_policy_with`
//! (per-run collector, fresh sim and policy, one recorder sized to the
//! run, summary and snapshot inside the collector scope), except that
//! it drives the steps itself to time them and hands the engine a
//! [`TimedPolicy`]. The wrapper only reads a clock, so the traced run
//! computes the same program: its `run_digest` is bit-identical to the
//! untraced run's (the crate's tests check this on every workload).

use simkit::{
    Collector, NullSink, Policy, PolicyCommand, PolicyKind, PolicyOverrides, Recorder, RunOutput,
    RunSummary, Scenario, SimView,
};
use std::sync::Arc;
use std::time::Instant;

/// A [`Policy`] that forwards to `inner` and accumulates the wall time
/// of every `control` call.
pub struct TimedPolicy {
    inner: Box<dyn Policy>,
    /// Calls made so far.
    pub calls: u64,
    /// Σ nanoseconds spent in `inner.control`.
    pub nanos: u64,
}

impl TimedPolicy {
    pub fn new(inner: Box<dyn Policy>) -> Self {
        TimedPolicy {
            inner,
            calls: 0,
            nanos: 0,
        }
    }
}

impl Policy for TimedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn control(&mut self, view: &SimView<'_>) -> PolicyCommand {
        let start = Instant::now();
        let cmd = self.inner.control(view);
        self.nanos += start.elapsed().as_nanos() as u64;
        self.calls += 1;
        cmd
    }
}

/// One traced rack run: the run's output plus its host timings.
#[derive(Debug)]
pub struct TracedRun {
    pub kind: PolicyKind,
    pub output: RunOutput,
    /// Wall nanoseconds of each `RackSim::step` call, in order.
    pub step_ns: Vec<u64>,
    /// Σ nanoseconds inside `Policy::control`.
    pub policy_ns: u64,
    /// `Policy::control` calls.
    pub policy_calls: u64,
}

/// Run `kind` over `scenario`, timing every step and policy call.
pub fn run_traced(scenario: &Scenario, kind: PolicyKind, overrides: &PolicyOverrides) -> TracedRun {
    let collector = Arc::new(Collector::new(Box::new(NullSink)));
    simkit::with_collector(Arc::clone(&collector), || {
        let mut sim = scenario.build();
        let mut policy = TimedPolicy::new(kind.build_with(overrides));
        let steps = (scenario.duration.0 / scenario.dt.0).round() as usize;
        let mut rec = Recorder::with_capacity(steps);
        let mut step_ns = Vec::with_capacity(steps);
        for _ in 0..steps {
            let start = Instant::now();
            sim.step(&mut policy, &mut rec);
            step_ns.push(start.elapsed().as_nanos() as u64);
        }
        let summary = RunSummary::from_run(kind.name(), &sim, &rec);
        collector.flush();
        TracedRun {
            kind,
            output: RunOutput {
                recorder: rec,
                summary,
                metrics: collector.snapshot(),
            },
            step_ns,
            policy_ns: policy.nanos,
            policy_calls: policy.calls,
        }
    })
}

/// Host timings folded over many traced runs.
#[derive(Debug, Default)]
pub struct TraceAgg {
    /// Every step's wall nanoseconds.
    pub step_ns: Vec<u64>,
    /// Σ policy nanoseconds and calls, per [`PolicyKind::ALL`] index.
    pub policy_ns: [u64; 4],
    pub policy_calls: [u64; 4],
}

fn kind_index(kind: PolicyKind) -> usize {
    PolicyKind::ALL
        .iter()
        .position(|&k| k == kind)
        .expect("every kind is listed in PolicyKind::ALL")
}

impl TraceAgg {
    pub fn add(&mut self, run: &TracedRun) {
        self.step_ns.extend_from_slice(&run.step_ns);
        let i = kind_index(run.kind);
        self.policy_ns[i] += run.policy_ns;
        self.policy_calls[i] += run.policy_calls;
    }

    /// Mean µs per `control` call of `kind`; 0 if it never ran.
    pub fn policy_us_per_call(&self, kind: PolicyKind) -> f64 {
        let i = kind_index(kind);
        crate::stats::ratio(self.policy_ns[i] as f64, self.policy_calls[i] as f64) / 1e3
    }

    /// `(p50, p99, mean)` of the step time, µs.
    pub fn step_us(&self) -> (f64, f64, f64) {
        let mut sorted = self.step_ns.clone();
        sorted.sort_unstable();
        let total: u64 = sorted.iter().sum();
        (
            crate::stats::quantile_sorted(&sorted, 0.50) / 1e3,
            crate::stats::quantile_sorted(&sorted, 0.99) / 1e3,
            crate::stats::ratio(total as f64, sorted.len() as f64) / 1e3,
        )
    }

    /// Mean step time minus mean policy time over all steps, µs: plant,
    /// workload tier, fault/grid advance and recording.
    pub fn self_us_per_tick(&self) -> f64 {
        let steps: u64 = self.step_ns.iter().sum();
        let policy: u64 = self.policy_ns.iter().sum();
        crate::stats::ratio(steps as f64 - policy as f64, self.step_ns.len() as f64) / 1e3
    }
}
