//! The three workloads and the inputs they generate from one seed.
//!
//! * `paper_campaign` — the §VI-A paper rack over 15 simulated minutes
//!   under all four §VII policies, several seeds, through
//!   [`simkit::Campaign`] with full retention.
//! * `floor` — ~1000 SprintCon racks under a scarce feeder → PDU → rack
//!   tree, streaming retention, long enough to clear 10 market epochs.
//! * `flash_crowd` — SprintCon on the paper rack serving an open-loop
//!   MMPP flash crowd at 60 rps/core, with a 3 kW grid curtailment
//!   overlapping it and a monitor-dropout fault plan, several seeds.
//!
//! Every scenario seed is derived from the user's seed through
//! [`splitmix64`], so the same seed always gives the same inputs.

use crate::stats::splitmix64;
use powersim::datacenter::DatacenterTopology;
use powersim::faults::FaultPlan;
use powersim::units::{Seconds, Watts};
use simkit::{
    Campaign, DcError, DcScenario, GridPlan, PolicyKind, Scenario, ScenarioError, WorkloadSource,
};

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperCampaign,
    Floor,
    FlashCrowd,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PaperCampaign,
        Workload::Floor,
        Workload::FlashCrowd,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperCampaign => "paper_campaign",
            Workload::Floor => "floor",
            Workload::FlashCrowd => "flash_crowd",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Policies each rack scenario of a campaign workload runs under.
    pub fn policies(self) -> &'static [PolicyKind] {
        match self {
            Workload::PaperCampaign => &PolicyKind::ALL,
            Workload::Floor | Workload::FlashCrowd => &[PolicyKind::SprintCon],
        }
    }

    /// Per-workload salt, so two workloads at one seed draw unrelated
    /// scenario seeds.
    fn salt(self) -> u64 {
        match self {
            Workload::PaperCampaign => 0x7061_7065_7200_0001,
            Workload::Floor => 0x666c_6f6f_7200_0002,
            Workload::FlashCrowd => 0x666c_6173_6800_0003,
        }
    }

    /// Seed of the `i`-th rack scenario (campaigns) or of the floor's
    /// rack template (`i = 0`; rack `r` then runs `seed + r`).
    pub fn scenario_seed(self, seed: u64, i: usize) -> u64 {
        splitmix64(splitmix64(seed ^ self.salt()).wrapping_add(i as u64))
    }
}

/// How much work one pass of a workload does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Size {
    /// Rack scenarios (seeds) per campaign pass.
    pub seeds: usize,
    /// Simulated seconds of each standalone rack run.
    pub rack_secs: f64,
    /// Racks on the floor.
    pub floor_racks: usize,
    /// Simulated seconds of the floor run.
    pub floor_secs: f64,
    /// Floor racks stepped standalone under the timing wrapper in the
    /// traced floor run.
    pub sample_racks: usize,
    /// Racks of the probe floor that stands in for the datacenter layer
    /// on the campaign workloads' traced runs.
    pub probe_racks: usize,
    /// Simulated seconds of the probe floor.
    pub probe_secs: f64,
    /// Simulated seconds of each SGCT-family probe run.
    pub sgct_probe_secs: f64,
}

impl Size {
    /// The benchmark's size for `w`.
    pub fn full(w: Workload) -> Size {
        Size {
            seeds: match w {
                Workload::PaperCampaign => 16,
                Workload::Floor => 0,
                Workload::FlashCrowd => 128,
            },
            rack_secs: 900.0,
            floor_racks: 1000,
            floor_secs: 300.0,
            sample_racks: 32,
            probe_racks: 200,
            probe_secs: 90.0,
            sgct_probe_secs: 120.0,
        }
    }

    /// A few seconds of work in total, for the benchmark's own tests.
    pub fn test() -> Size {
        Size {
            seeds: 2,
            rack_secs: 120.0,
            floor_racks: 12,
            floor_secs: 90.0,
            sample_racks: 3,
            probe_racks: 6,
            probe_secs: 60.0,
            sgct_probe_secs: 20.0,
        }
    }
}

/// The §VI-A rack at `seed`, run for `secs` with the paper's 12-minute
/// deadline (or the run length, on shorter runs).
fn paper_rack(seed: u64, secs: f64) -> Result<Scenario, ScenarioError> {
    Scenario::builder(seed)
        .duration(Seconds(secs))
        .deadline(Seconds(secs.min(720.0)))
        .build()
}

/// The flash-crowd rack: MMPP open-loop arrivals at 60 rps/core peak,
/// ρ > 1 at demand peaks; a 3 kW curtailment from a fifth of the run
/// for a third of it with a 30 s response deadline; a monitor that
/// drops out 10% of the time in 8 s outages.
pub fn flash_crowd_rack(seed: u64, secs: f64) -> Result<Scenario, ScenarioError> {
    let mut source = WorkloadSource::open_loop_flash_crowd();
    if let WorkloadSource::OpenLoop { arrivals, .. } = &mut source {
        arrivals.peak_rps_per_core = 60.0;
    }
    Scenario::builder(seed)
        .duration(Seconds(secs))
        .deadline(Seconds(secs.min(720.0)))
        .workload(source)
        .faults(FaultPlan::monitor_dropout(0.1, Seconds(8.0)))
        .grid(GridPlan::curtailment(
            Seconds(0.2 * secs),
            Seconds(secs / 3.0),
            Watts(3000.0),
            Seconds(30.0),
        ))
        .build()
}

/// The template scenario of workload `w` at scenario seed `seed`.
pub fn template(w: Workload, seed: u64, size: &Size) -> Result<Scenario, ScenarioError> {
    match w {
        Workload::PaperCampaign => paper_rack(seed, size.rack_secs),
        Workload::Floor => paper_rack(seed, size.floor_secs),
        Workload::FlashCrowd => flash_crowd_rack(seed, size.rack_secs),
    }
}

/// One pass of a campaign workload: `size.seeds` rack scenarios ×
/// the workload's policies, scenario-major. Validates every scenario.
pub fn campaign(w: Workload, seed: u64, size: &Size) -> Result<Campaign, ScenarioError> {
    let mut c = Campaign::new();
    for i in 0..size.seeds {
        let sc = template(w, w.scenario_seed(seed, i), size)?;
        for &kind in w.policies() {
            c.add(sc.clone(), kind);
        }
    }
    Ok(c)
}

/// Rack rating of the paper rack (W), which every floor rack shares.
pub const RACK_RATED_W: f64 = 3200.0;
/// Overload swing of one sprinting paper rack above its rating (W).
pub const RACK_SWING_W: f64 = 800.0;

/// A scarce floor: PDUs of (up to) 50 racks with headroom for a fifth
/// of their members' overload swings, and a feeder with headroom for
/// half of the PDU headrooms, so both market levels ration.
pub fn floor_topology(racks: usize) -> DatacenterTopology {
    let per_pdu = racks.clamp(1, 50);
    let pdus = racks.div_ceil(per_pdu);
    let pdu_headroom = (per_pdu as f64 * RACK_SWING_W / 5.0).max(RACK_SWING_W);
    let pdu_rating = per_pdu as f64 * RACK_RATED_W + pdu_headroom;
    let feeder_rating = (pdus * per_pdu) as f64 * RACK_RATED_W
        + (pdus as f64 * pdu_headroom / 2.0).max(RACK_SWING_W);
    let mut topo = DatacenterTopology::uniform(
        pdus,
        per_pdu,
        Watts(pdu_rating),
        Watts(feeder_rating.max(pdu_rating)),
    )
    .expect("uniform floor topology is valid");
    let extra = pdus * per_pdu - racks;
    if let Some(last) = topo.pdus.last_mut() {
        last.num_racks -= extra;
    }
    topo
}

/// A floor of `racks` paper racks running `secs` under the scarce
/// topology, rack template seeded from `base_seed`.
pub fn floor_of(base_seed: u64, racks: usize, secs: f64) -> Result<DcScenario, DcError> {
    let base = paper_rack(base_seed, secs).map_err(DcError::Scenario)?;
    DcScenario::new(base, floor_topology(racks))
}

/// The `floor` workload's scenario at `seed`.
pub fn floor(seed: u64, size: &Size) -> Result<DcScenario, DcError> {
    floor_of(
        Workload::Floor.scenario_seed(seed, 0),
        size.floor_racks,
        size.floor_secs,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn inputs_depend_only_on_the_seed() {
        let size = Size::test();
        for w in [Workload::PaperCampaign, Workload::FlashCrowd] {
            let a = campaign(w, 5, &size).unwrap();
            let b = campaign(w, 5, &size).unwrap();
            let c = campaign(w, 6, &size).unwrap();
            let seeds = |c: &Campaign| {
                c.entries()
                    .iter()
                    .map(|e| e.scenario.seed)
                    .collect::<Vec<_>>()
            };
            assert_eq!(seeds(&a), seeds(&b));
            assert_ne!(seeds(&a), seeds(&c));
            assert_eq!(a.len(), size.seeds * w.policies().len());
        }
    }

    #[test]
    fn floor_topology_is_scarce_at_both_levels() {
        let topo = floor_topology(1000);
        assert_eq!(topo.num_pdus(), 20);
        assert_eq!(topo.num_racks(), 1000);
        let pdu_headroom = topo.pdus[0].rating.0 - 50.0 * RACK_RATED_W;
        let feeder_headroom = topo.feeder_rating.0 - 1000.0 * RACK_RATED_W;
        // A fifth of the members' swings per PDU, half of that at the feeder.
        assert_eq!(pdu_headroom, 50.0 * RACK_SWING_W / 5.0);
        assert_eq!(feeder_headroom, 20.0 * pdu_headroom / 2.0);
        let small = floor_topology(12);
        assert_eq!(small.num_racks(), 12);
    }

    #[test]
    fn floor_clears_ten_market_epochs() {
        let size = Size::full(Workload::Floor);
        // The paper allocator period is 30 s.
        assert!(size.floor_secs / 30.0 >= 10.0);
    }
}
