//! Single-layer timings at fixed shapes, and the floor runner shared by
//! the `floor` workload and the probe floor.
//!
//! * [`market_us_per_round`] times the public two-level market clearing
//!   (`allocate_headroom_two_level_with`) on a floor's `pdu_of` /
//!   `pdu_caps` with seeded bids shaped like the engine's (800 W
//!   overload swings, priorities in [1, 3]).
//! * [`replay_ns_per_tick`] times `Datacenter::step_pdu_loads` at a
//!   floor's PDU count with seeded loads below the PDU ratings.
//! * [`run_floor`] builds and runs a `DatacenterSim`, timing set-up and
//!   the run separately, and [`FloorRun::stats`] reads the rack span
//!   histograms the engine publishes.

use crate::speed;
use crate::stats::{ratio, splitmix64};
use crate::workload::RACK_RATED_W;
use powersim::datacenter::{Datacenter, DatacenterTopology};
use powersim::units::{Seconds, Watts};
use simkit::{DatacenterSim, DcError, DcRecordMode, DcRunOutput, DcScenario, ExecConfig};
use sprintcon::{allocate_headroom_two_level_with, HeadroomBid, MarketWorkspace};
use std::hint::black_box;
use std::time::Instant;

/// Uniform draw in [0, 1) from a SplitMix64 stream.
fn unit(state: &mut u64) -> f64 {
    *state = splitmix64(*state);
    (*state >> 11) as f64 / (1u64 << 53) as f64
}

/// The least host time a probe measures for, seconds.
const MIN_PROBE_SECS: f64 = 0.2;

/// Mean µs per market round on `topo` (racks rated at the paper rack's
/// 3.2 kW), cycling through eight seeded bid sets.
pub fn market_us_per_round(topo: &DatacenterTopology, seed: u64) -> f64 {
    let racks = topo.num_racks();
    let pdu_of: Vec<usize> = (0..racks).map(|r| topo.pdu_of_rack(r)).collect();
    let pdu_caps: Vec<Watts> = topo
        .pdus
        .iter()
        .map(|p| Watts(p.rating.0 - p.num_racks as f64 * RACK_RATED_W))
        .collect();
    let budget = Watts(topo.feeder_rating.0 - racks as f64 * RACK_RATED_W);
    let mut rng = seed;
    let bid_sets: Vec<Vec<HeadroomBid>> = (0..8)
        .map(|_| {
            (0..racks)
                .map(|id| {
                    let sprinting = unit(&mut rng) < 0.8;
                    HeadroomBid {
                        id,
                        request: Watts(if sprinting { 800.0 } else { 0.0 }),
                        priority: 1.0 + unit(&mut rng) + if sprinting { 1.0 } else { 0.0 },
                    }
                })
                .collect()
        })
        .collect();
    let mut ws = MarketWorkspace::new();
    let mut rounds = 0u64;
    let start = Instant::now();
    while rounds < 100 || start.elapsed().as_secs_f64() < MIN_PROBE_SECS {
        let bids = &bid_sets[rounds as usize % bid_sets.len()];
        black_box(allocate_headroom_two_level_with(
            &mut ws,
            black_box(bids),
            &pdu_of,
            &pdu_caps,
            budget,
        ));
        rounds += 1;
    }
    start.elapsed().as_secs_f64() * 1e6 / rounds as f64
}

/// Mean ns per `Datacenter::step_pdu_loads` tick on `topo`, with each
/// PDU loaded to 80–95% of its members' rated draw.
pub fn replay_ns_per_tick(topo: &DatacenterTopology, seed: u64) -> f64 {
    let mut dc = Datacenter::paper_calibrated(topo.clone()).expect("probe topology is valid");
    let pdus = topo.num_pdus();
    let mut rng = seed;
    const TICKS: usize = 30;
    let loads: Vec<f64> = (0..TICKS * pdus)
        .map(|i| {
            let members = topo.pdus[i % pdus].num_racks as f64;
            members * RACK_RATED_W * (0.8 + 0.15 * unit(&mut rng))
        })
        .collect();
    let mut delivered = vec![0.0; pdus];
    let mut tripped = vec![false; pdus];
    let mut ticks = 0usize;
    let start = Instant::now();
    while ticks < 10_000 || start.elapsed().as_secs_f64() < MIN_PROBE_SECS {
        let k = ticks % TICKS;
        black_box(dc.step_pdu_loads(
            black_box(&loads[k * pdus..(k + 1) * pdus]),
            Seconds(1.0),
            &mut delivered,
            &mut tripped,
        ));
        ticks += 1;
    }
    start.elapsed().as_secs_f64() * 1e9 / ticks as f64
}

/// One built-and-run floor.
pub struct FloorRun {
    pub out: DcRunOutput,
    /// Host seconds in `DatacenterSim::from_scenario_with`.
    pub setup_s: f64,
    /// Host seconds in `DatacenterSim::run`.
    pub wall_s: f64,
    /// Worker threads the run used.
    pub workers: usize,
    /// The host's slowdown against the reference host over the set-up
    /// and the run ([`speed::monitored`]).
    pub slowdown: f64,
}

/// Build `dc` with streaming retention and run it on `workers` threads,
/// with the speed monitors running.
pub fn run_floor(dc: &DcScenario, workers: usize) -> Result<FloorRun, DcError> {
    let (timed, slowdown) = speed::monitored(|| {
        let start = Instant::now();
        let sim = DatacenterSim::from_scenario_with(dc, DcRecordMode::Streaming)?;
        let setup_s = start.elapsed().as_secs_f64();
        let start = Instant::now();
        let out = sim.run(ExecConfig::jobs(workers));
        Ok((out, setup_s, start.elapsed().as_secs_f64()))
    });
    let (out, setup_s, wall_s) = timed?;
    Ok(FloorRun {
        out,
        setup_s,
        wall_s,
        slowdown,
        // The engine never runs more workers than racks.
        workers: workers.clamp(1, dc.topo.num_racks().max(1)),
    })
}

/// What the datacenter-layer metrics need from one floor run.
#[derive(Debug, Clone, Copy)]
pub struct FloorStats {
    pub wall_s: f64,
    pub workers: usize,
    /// Σ over racks of the `sim_tick.ns` span sums.
    pub tick_ns: f64,
    /// Rack ticks stepped.
    pub ticks: u64,
    pub epochs: usize,
}

impl FloorRun {
    pub fn stats(&self) -> FloorStats {
        let (mut tick_ns, mut ticks) = (0.0, 0);
        for rack in &self.out.racks {
            if let Some(h) = rack.metrics.histogram("sim_tick.ns") {
                tick_ns += h.sum;
                ticks += h.count;
            }
        }
        FloorStats {
            wall_s: self.wall_s,
            workers: self.workers,
            tick_ns,
            ticks,
            epochs: self.out.rounds.len(),
        }
    }
}

/// The `dc.*` metrics from a run on N workers (`par`) and on one
/// (`seq`): busy fraction of the N workers, non-tick time per epoch
/// (market, barrier wait, replay, streaming fold), wall-time scaling,
/// per-tick inflation at N workers, and market rounds.
pub fn dc_layer(par: &FloorStats, seq: &FloorStats) -> [(&'static str, f64); 5] {
    let capacity_ns = par.wall_s * 1e9 * par.workers as f64;
    [
        ("dc.busy_frac", ratio(par.tick_ns, capacity_ns)),
        (
            "dc.overhead_ms_per_epoch",
            ratio(capacity_ns - par.tick_ns, par.epochs as f64) / 1e6,
        ),
        ("dc.scaling", ratio(seq.wall_s, par.wall_s)),
        (
            "dc.tick_inflation",
            ratio(
                ratio(par.tick_ns, par.ticks as f64),
                ratio(seq.tick_ns, seq.ticks as f64),
            ),
        ),
        ("dc.market_rounds", par.epochs as f64),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::floor_topology;

    #[test]
    fn probes_measure_positive_times() {
        let topo = floor_topology(100);
        assert!(market_us_per_round(&topo, 1) > 0.0);
        assert!(replay_ns_per_tick(&topo, 1) > 0.0);
    }
}
