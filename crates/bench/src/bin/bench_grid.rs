//! Grid-responsive scenario benchmark: proves the PR-level claims about
//! the curtailment / price / regulation event layer and emits them as
//! `BENCH_grid.json`.
//!
//! 1. **Transparency** — an explicitly wired `GridPlan::none()`
//!    reproduces all five committed golden digests bit for bit (the
//!    injector is zero-RNG and telemetry-silent when the plan is empty).
//! 2. **Determinism** — campaigns with active grid + fault plans, and
//!    datacenter runs with a feeder-curtailing plan, are bit-identical
//!    between sequential and parallel execution.
//! 3. **Compliance** — under SprintCon, grid-side draw (breaker power)
//!    is at or under a curtailed cap from the response deadline until
//!    the event clears, with zero breaker trips and a zero
//!    `grid.compliance_violations` count.
//! 4. **Separation** — during a curtailment overlapping an open-loop
//!    flash crowd, SprintCon's deadline-aware triage and hot-queue
//!    guard must still beat frequency-throttling SGCT on request p99.
//!
//! Flags: `--secs N` simulated seconds for the separation run (default
//! 240), `--seed N` (default 2019), `--out PATH` (default
//! `BENCH_grid.json`), `--check` CI gate mode (exit 1 on any failure).

use powersim::datacenter::DatacenterTopology;
use powersim::faults::{FaultKind, FaultPlan, StochasticFault};
use powersim::units::{Seconds, Watts};
use simkit::{
    qos_report, run_datacenter, run_digest, run_policy, Campaign, DcScenario, ExecConfig,
    GridEventKind, GridPlan, PolicyKind, Scenario, WorkloadSource,
};
use std::time::Instant;

struct Args {
    secs: f64,
    seed: u64,
    out: String,
    check_only: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        secs: 240.0,
        seed: 2019,
        out: "BENCH_grid.json".to_string(),
        check_only: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--check" => args.check_only = true,
            "--secs" => {
                let v = it.next().expect("--secs needs a value");
                args.secs = v.parse().expect("--secs expects seconds");
            }
            "--seed" => {
                let v = it.next().expect("--seed needs a value");
                args.seed = v.parse().expect("--seed expects an integer");
            }
            "--out" => args.out = it.next().expect("--out needs a path"),
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: bench_grid [--secs N] [--seed N] [--out PATH] [--check]");
                std::process::exit(2);
            }
        }
    }
    assert!(args.secs >= 200.0, "--secs must cover the event schedule");
    args
}

/// The committed golden digests of `tests/soa_substrate.rs`, duplicated
/// by value so this binary gates against the pinned history, not a
/// shared constant that could drift with it.
const GOLDEN_DIGESTS: [(&str, u64); 5] = [
    ("sprintcon_seed42_180s", 0xac6e6fb4df7eae04),
    ("sgctv2_seed7_180s", 0x156f96be14939a36),
    ("sgct_seed3_120s", 0x7df9c1e370ccfc0c),
    ("sprintcon_faults_seed11_240s", 0x1e12e6fe46843d20),
    ("sgctv1_faults_seed5_240s", 0x7a8855ae0bac74db),
];

fn golden_fault_plan() -> FaultPlan {
    FaultPlan::none()
        .with_event(Seconds(40.0), Seconds(30.0), FaultKind::MonitorStuckAt)
        .with_event(
            Seconds(90.0),
            Seconds(45.0),
            FaultKind::ActuatorLag { tau: Seconds(4.0) },
        )
        .with_event(
            Seconds(150.0),
            Seconds(30.0),
            FaultKind::ServerCrash { server: 3 },
        )
        .with_stochastic(StochasticFault {
            kind: FaultKind::MonitorDropout,
            start_rate: 40.0 / 3600.0,
            mean_duration: Seconds(5.0),
        })
}

fn golden_case(label: &str) -> (Scenario, PolicyKind) {
    let (seed, secs, deadline, faults, kind) = match label {
        "sprintcon_seed42_180s" => (42, 180.0, 150.0, false, PolicyKind::SprintCon),
        "sgctv2_seed7_180s" => (7, 180.0, 150.0, false, PolicyKind::SgctV2),
        "sgct_seed3_120s" => (3, 120.0, 100.0, false, PolicyKind::Sgct),
        "sprintcon_faults_seed11_240s" => (11, 240.0, 200.0, true, PolicyKind::SprintCon),
        "sgctv1_faults_seed5_240s" => (5, 240.0, 200.0, true, PolicyKind::SgctV1),
        other => panic!("unknown golden case {other}"),
    };
    let mut b = Scenario::builder(seed)
        .duration(Seconds(secs))
        .deadline(Seconds(deadline))
        .grid(GridPlan::none());
    if faults {
        b = b.faults(golden_fault_plan());
    }
    (b.build().expect("golden scenario is valid"), kind)
}

/// One curtailment plus a price spike and a regulation pulse.
fn busy_grid_plan() -> GridPlan {
    GridPlan::curtailment(Seconds(60.0), Seconds(120.0), Watts(3000.0), Seconds(30.0))
        .with_event(
            Seconds(20.0),
            Seconds(40.0),
            GridEventKind::PriceSpike { multiplier: 3.0 },
        )
        .with_event(
            Seconds(200.0),
            Seconds(30.0),
            GridEventKind::FreqRegulation {
                delta_w: Watts(-150.0),
                duration_s: Seconds(20.0),
            },
        )
}

/// Gate 1: the empty plan reproduces every pinned golden digest.
fn transparency_gate() -> Result<(), String> {
    for (label, want) in GOLDEN_DIGESTS {
        let (sc, kind) = golden_case(label);
        let got = run_digest(&run_policy(&sc, kind));
        if got != want {
            return Err(format!(
                "{label}: digest 0x{got:016x} != golden 0x{want:016x}"
            ));
        }
    }
    Ok(())
}

/// Gate 2: active grid + fault plans shard bit-identically, at the rack
/// campaign level and through the datacenter market.
fn determinism_gate(seed: u64) -> Result<(), String> {
    let gridded = Scenario::builder(seed)
        .duration(Seconds(240.0))
        .deadline(Seconds(200.0))
        .grid(busy_grid_plan())
        .faults(golden_fault_plan())
        .build()
        .map_err(|e| e.to_string())?;
    let mut c = Campaign::new();
    c.add(gridded.clone(), PolicyKind::SprintCon);
    c.add(gridded.clone(), PolicyKind::Sgct);
    c.add(gridded, PolicyKind::SgctV2);
    let seq = c.run_sequential();
    for jobs in [2usize, 4, 0] {
        let par = c.run_with(ExecConfig::jobs(jobs));
        for (p, s) in par.iter().zip(&seq) {
            if p.digest() != s.digest() {
                return Err(format!(
                    "jobs={jobs}: {} digest 0x{:016x} != sequential 0x{:016x}",
                    p.label,
                    p.digest(),
                    s.digest()
                ));
            }
        }
    }

    // Datacenter path: a feeder-curtailing plan through the market.
    let mut base = Scenario::paper_default(seed.wrapping_add(1));
    base.duration = Seconds(90.0);
    base.grid = GridPlan::curtailment(Seconds(0.0), Seconds(90.0), Watts(3300.0), Seconds(30.0));
    let topo = DatacenterTopology::uniform(
        2,
        2,
        Watts(2.0 * 3200.0 + 800.0),
        Watts(4.0 * 3200.0 + 1600.0),
    )
    .map_err(|e| e.to_string())?;
    let dc = DcScenario::new(base, topo).map_err(|e| e.to_string())?;
    let dseq = run_datacenter(&dc, ExecConfig::sequential()).map_err(|e| e.to_string())?;
    for jobs in [2usize, 4] {
        let dpar = run_datacenter(&dc, ExecConfig::jobs(jobs)).map_err(|e| e.to_string())?;
        if dpar.digest != dseq.digest {
            return Err(format!(
                "dc jobs={jobs}: digest 0x{:016x} != sequential 0x{:016x}",
                dpar.digest, dseq.digest
            ));
        }
    }
    // And the curtailment actually reached the feeder budget.
    for round in &dseq.rounds {
        if round.budget.0 > 400.0 + 1e-9 {
            return Err(format!(
                "epoch {}: curtailed feeder budget {} above 4*3300-4*3200 = 400 W",
                round.epoch, round.budget
            ));
        }
    }
    Ok(())
}

struct Compliance {
    peak_cb_post_deadline: f64,
    violations: u64,
    trips: usize,
}

/// Gate 3: grid-side draw obeys the cap from the deadline on, tripless.
fn compliance_gate(seed: u64) -> Result<Compliance, String> {
    let sc = Scenario::builder(seed)
        .duration(Seconds(240.0))
        .deadline(Seconds(200.0))
        .grid(GridPlan::curtailment(
            Seconds(60.0),
            Seconds(120.0),
            Watts(3000.0),
            Seconds(30.0),
        ))
        .build()
        .map_err(|e| e.to_string())?;
    let out = run_policy(&sc, PolicyKind::SprintCon);
    let trips = out.recorder.samples().iter().filter(|s| s.tripped).count();
    if trips != 0 {
        return Err(format!("{trips} breaker trips during curtailment"));
    }
    let mut peak = 0.0f64;
    for s in out.recorder.samples() {
        if s.t.0 > 91.0 && s.t.0 <= 180.0 {
            peak = peak.max(s.cb_power.0);
        }
    }
    if peak > 3000.0 + 1e-6 {
        return Err(format!(
            "post-deadline grid-side draw {peak:.1} W > 3000 W cap"
        ));
    }
    let violations = out.metrics.counter("grid.compliance_violations");
    if violations != 0 {
        return Err(format!("{violations} engine-counted compliance violations"));
    }
    Ok(Compliance {
        peak_cb_post_deadline: peak,
        violations,
        trips,
    })
}

/// A flash crowd overlapping the curtailment window, offered hot enough
/// (ρ > 1 at demand peaks) that queues form whenever interactive cores
/// are throttled — the regime the hot-queue guard exists for.
fn curtailed_flash_crowd(seed: u64, secs: f64) -> Scenario {
    let mut sc = Scenario::paper_default(seed);
    let mut src = WorkloadSource::open_loop_flash_crowd();
    if let WorkloadSource::OpenLoop { arrivals, .. } = &mut src {
        arrivals.peak_rps_per_core = 60.0;
    }
    sc.workload = src;
    sc.duration = Seconds(secs);
    sc.grid = GridPlan::curtailment(Seconds(60.0), Seconds(120.0), Watts(3000.0), Seconds(30.0));
    sc
}

struct Separation {
    sprintcon_p99: f64,
    sgct_p99: f64,
}

/// Gate 4: the hot-queue guard keeps SprintCon's request tail ahead of
/// SGCT's even while both racks ride through the curtailment.
fn separation_gate(seed: u64, secs: f64) -> Result<Separation, String> {
    let a = run_policy(&curtailed_flash_crowd(seed, secs), PolicyKind::SprintCon);
    let b = run_policy(&curtailed_flash_crowd(seed, secs), PolicyKind::Sgct);
    let qa = qos_report(&a.recorder, &[0.1, 0.25, 1.0]);
    let qb = qos_report(&b.recorder, &[0.1, 0.25, 1.0]);
    let pa = qa.request_p99_s.ok_or("SprintCon run has no tail")?;
    let pb = qb.request_p99_s.ok_or("SGCT run has no tail")?;
    if pa >= pb {
        return Err(format!(
            "no p99 separation under curtailment: SprintCon {pa:.4}s vs SGCT {pb:.4}s"
        ));
    }
    Ok(Separation {
        sprintcon_p99: pa,
        sgct_p99: pb,
    })
}

fn main() {
    let args = parse_args();
    println!("bench_grid: seed {} x {}s", args.seed, args.secs);
    let t0 = Instant::now();

    println!("transparency gate (empty plan vs 5 golden digests)...");
    if let Err(e) = transparency_gate() {
        eprintln!("TRANSPARENCY VIOLATION: {e}");
        std::process::exit(1);
    }
    println!("  ok: empty grid plans are bit-transparent");

    println!("determinism gate (grid+faults campaign, dc market, seq vs workers)...");
    if let Err(e) = determinism_gate(args.seed) {
        eprintln!("DETERMINISM VIOLATION: {e}");
        std::process::exit(1);
    }
    println!("  ok: active-plan digests bit-identical across worker counts");

    println!("compliance gate (3 kW cap, 30 s deadline, SprintCon)...");
    let compliance = match compliance_gate(args.seed) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("COMPLIANCE VIOLATION: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "  ok: post-deadline peak {:.1} W <= 3000 W, {} trips",
        compliance.peak_cb_post_deadline, compliance.trips
    );

    println!("separation gate (curtailment x flash crowd, SprintCon vs SGCT)...");
    let separation = match separation_gate(args.seed, args.secs) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("SEPARATION VIOLATION: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "  ok: p99 {:.4}s (SprintCon) < {:.4}s (SGCT)",
        separation.sprintcon_p99, separation.sgct_p99
    );

    let wall = t0.elapsed().as_secs_f64();
    let json = format!(
        "{{\n  \"seed\": {},\n  \"secs\": {},\n  \"wall_secs\": {:.3},\n  \
         \"transparency\": \"pass\",\n  \"determinism\": \"pass\",\n  \
         \"compliance\": {{\n    \"cap_w\": 3000.0,\n    \
         \"peak_cb_post_deadline_w\": {:.3},\n    \"violations\": {},\n    \
         \"trips\": {}\n  }},\n  \"separation\": {{\n    \
         \"sprintcon_p99_s\": {:.6},\n    \"sgct_p99_s\": {:.6}\n  }}\n}}\n",
        args.seed,
        args.secs,
        wall,
        compliance.peak_cb_post_deadline,
        compliance.violations,
        compliance.trips,
        separation.sprintcon_p99,
        separation.sgct_p99,
    );
    std::fs::write(&args.out, &json).unwrap_or_else(|e| panic!("writing {}: {e}", args.out));
    println!("json: {}", args.out);
    if args.check_only {
        println!("bench_grid --check: all gates passed");
    }
}
