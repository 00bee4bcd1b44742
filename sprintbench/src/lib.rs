//! End-to-end and per-layer benchmark of the SprintCon simulator.
//!
//! Three workloads drive the simulator through the entry points its
//! users call — [`simkit::Campaign::run_with`] for batches of
//! standalone rack runs and [`simkit::DatacenterSim`] for a floor — and
//! every input is generated here from one seed ([`workload`]).
//!
//! * [`report`] runs a workload and returns its metrics, with every
//!   correctness check folded into the attempted/failed op counts.
//! * [`trace`] is the benchmark-side instrumentation of the traced run:
//!   a [`simkit::Policy`] wrapper that times `control` and a rack runner
//!   that times each `RackSim::step` from outside. Nothing is added
//!   inside the simulator; the rest of the per-layer numbers are read
//!   from the counters and span histograms it already publishes.
//! * [`probe`] times single layers at the floor's shapes (market round,
//!   tree replay) and covers layers a workload does not run.
//! * [`checks`] holds the correctness checks.
//! * [`speed`] times a fixed kernel on every CPU during each timed
//!   pass, so the end-to-end times can be scaled to the reference
//!   host's speed.

pub mod checks;
pub mod probe;
pub mod report;
pub mod speed;
pub mod stats;
pub mod trace;
pub mod workload;

pub use report::{run, Metric, Report};
pub use workload::{Size, Workload};
