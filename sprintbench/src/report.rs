//! Run one workload and report its metrics.
//!
//! The untraced run (`trace = false`) times the workload's own entry
//! points and reports the end-to-end metrics. The traced run reports the
//! per-layer metrics: it spends half its time on untraced passes and
//! half on pairs of an untraced pass and a pass through the benchmark's
//! timing wrapper ([`crate::trace`]), and adds probes for layers the
//! workload does not run itself, so every per-layer metric is a
//! measurement on every workload.
//!
//! Every op (one rack run of a campaign, one rack of a floor) passes
//! through the correctness checks of [`crate::checks`]; a failed check
//! counts the op as failed, and nothing is dropped from the inputs.

use crate::checks;
use crate::probe::{self, FloorStats};
use crate::speed;
use crate::stats::{median, peak_rss_bytes, ratio, rss_bytes};
use crate::trace::{run_traced, TraceAgg, TracedRun};
use crate::workload::{self, Size, Workload};
use simkit::{
    aggregate_metrics, sweep_parallel, Campaign, CampaignEntry, CampaignResult, ExecConfig,
    MetricsSnapshot, PolicyKind, RunSummary,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Which result line a metric belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Section {
    /// Reported by the untraced run.
    EndToEnd,
    /// Reported by the traced run.
    PerLayer,
}

/// A metric's name, unit and section, as `BENCHMARK.json` lists it.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub section: Section,
}

const fn e2e(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        section: Section::EndToEnd,
    }
}

const fn layer(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        section: Section::PerLayer,
    }
}

/// Every metric the benchmark reports, in output order.
pub const METRICS: &[MetricSpec] = &[
    e2e("rack_ticks_per_s", "1/s"),
    e2e("setup_s", "s"),
    e2e("peak_rss_mb", "MB"),
    e2e("sim.ups_dod", "fraction"),
    e2e("sim.interactive_freq", "fraction"),
    layer("failed_frac", "fraction"),
    layer("sim.sprintcon_trips", "count"),
    layer("sim.deadline_miss_frac", "fraction"),
    layer("sim.request_p99_ms", "ms"),
    layer("engine.tick_us_p50", "us"),
    layer("engine.tick_us_p99", "us"),
    layer("engine.tick_us_mean", "us"),
    layer("engine.self_us_per_tick", "us"),
    layer("policy.sprintcon.us_per_call", "us"),
    layer("core.server_controller.us_per_call", "us"),
    layer("control.mpc.us_per_call", "us"),
    layer("control.qp.us_per_solve", "us"),
    layer("control.qp.solves_per_tick", "count"),
    layer("control.qp.iters_mean", "count"),
    layer("control.qp.nonconverged", "count"),
    layer("control.fallbacks", "count"),
    layer("policy.sgct.us_per_call", "us"),
    layer("policy.sgct_v1.us_per_call", "us"),
    layer("policy.sgct_v2.us_per_call", "us"),
    layer("workloads.requests_arrived", "count"),
    layer("workloads.drop_frac", "fraction"),
    layer("powersim.fault_active_ticks", "count"),
    layer("powersim.grid.curtail_events", "count"),
    layer("powersim.grid.compliance_violations", "count"),
    layer("recorder.bytes_per_rack", "bytes"),
    layer("exec.busy_frac", "fraction"),
    layer("dc.busy_frac", "fraction"),
    layer("dc.overhead_ms_per_epoch", "ms"),
    layer("dc.scaling", "ratio"),
    layer("dc.tick_inflation", "ratio"),
    layer("dc.market_rounds", "count"),
    layer("bidding.market_us_per_round", "us"),
    layer("datacenter.replay_ns_per_tick", "ns"),
    layer("trace.overhead_frac", "fraction"),
];

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    /// Host seconds to spend on timed passes.
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    /// Worker threads for the campaign pool and the floor.
    pub workers: usize,
}

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The result of one benchmark run.
#[derive(Debug, Clone)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Why ops failed (the first few).
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Op accounting shared by every check.
#[derive(Debug, Default)]
struct Ops {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Ops {
    /// Count one op that passed or failed `result`.
    fn record(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.fail(1, e);
        }
    }

    /// Count `n` ops that all failed for `why`.
    fn fail_all(&mut self, n: u64, why: String) {
        self.attempted += n;
        self.fail(n, why);
    }

    fn fail(&mut self, n: u64, why: String) {
        self.failed += n;
        if self.failures.len() < 16 {
            self.failures.push(why);
        }
    }
}

type Values = BTreeMap<&'static str, f64>;

/// Span histograms whose means become per-layer timings.
const SPANS: [&str; 4] = [
    "sim_tick.ns",
    "server_controller_control.ns",
    "mpc_compute.ns",
    "qp_solve_time.ns",
];

/// Σ sum and Σ count of each of [`SPANS`] over many snapshots.
#[derive(Debug, Default, Clone, Copy)]
struct SpanSums([(f64, u64); 4]);

impl SpanSums {
    fn add(&mut self, m: &MetricsSnapshot) {
        for (slot, name) in self.0.iter_mut().zip(SPANS) {
            if let Some(h) = m.histogram(name) {
                slot.0 += h.sum;
                slot.1 += h.count;
            }
        }
    }

    fn tick_ns(&self) -> f64 {
        self.0[0].0
    }

    /// Mean µs of span `i`.
    fn mean_us(&self, i: usize) -> f64 {
        ratio(self.0[i].0, self.0[i].1 as f64) / 1e3
    }

    fn insert(&self, values: &mut Values) {
        values.insert("core.server_controller.us_per_call", self.mean_us(1));
        values.insert("control.mpc.us_per_call", self.mean_us(2));
        values.insert("control.qp.us_per_solve", self.mean_us(3));
    }
}

/// The simulated outcomes of SprintCon runs (`sprintcon` summaries),
/// plus tree-level trip periods on a floor.
fn insert_sim_outcomes(values: &mut Values, sprintcon: &[&RunSummary], tree_trips: u64) {
    let n = sprintcon.len() as f64;
    let trips: usize = sprintcon.iter().map(|s| s.trips).sum();
    let total: usize = sprintcon.iter().map(|s| s.deadlines_total).sum();
    let met: usize = sprintcon.iter().map(|s| s.deadlines_met).sum();
    let p99: Vec<f64> = sprintcon
        .iter()
        .filter_map(|s| s.open_loop.map(|t| t.p99_s * 1e3))
        .collect();
    values.insert("sim.sprintcon_trips", (trips as u64 + tree_trips) as f64);
    values.insert(
        "sim.deadline_miss_frac",
        ratio((total - met) as f64, total as f64),
    );
    values.insert(
        "sim.ups_dod",
        ratio(sprintcon.iter().map(|s| s.dod).sum(), n),
    );
    values.insert(
        "sim.interactive_freq",
        ratio(sprintcon.iter().map(|s| s.avg_freq_interactive).sum(), n),
    );
    values.insert(
        "sim.request_p99_ms",
        ratio(p99.iter().sum(), p99.len() as f64),
    );
}

/// Deterministic per-layer counts from the aggregated run metrics and
/// summaries of one pass. `sprintcon_ticks` is the control periods the
/// SprintCon runs stepped.
fn insert_layer_counts(
    values: &mut Values,
    m: &MetricsSnapshot,
    summaries: &[&RunSummary],
    sprintcon_ticks: u64,
) {
    values.insert(
        "control.qp.solves_per_tick",
        ratio(m.counter("qp_solve_total") as f64, sprintcon_ticks as f64),
    );
    values.insert(
        "control.qp.iters_mean",
        m.histogram("qp_solve_iters").map_or(0.0, |h| h.mean()),
    );
    values.insert(
        "control.qp.nonconverged",
        m.counter("qp_solve_nonconverged") as f64,
    );
    values.insert(
        "control.fallbacks",
        (m.counter("mpc_qp_fallback") + m.counter("server_ctrl_pid_fallback")) as f64,
    );
    let (arrived, dropped) = summaries
        .iter()
        .filter_map(|s| s.open_loop)
        .fold((0.0, 0.0), |(a, d), t| (a + t.arrived, d + t.dropped));
    values.insert("workloads.requests_arrived", arrived);
    values.insert("workloads.drop_frac", ratio(dropped, arrived));
    let fault_ticks: u64 = m
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("fault_active."))
        .map(|(_, v)| v)
        .sum();
    values.insert("powersim.fault_active_ticks", fault_ticks as f64);
    values.insert(
        "powersim.grid.curtail_events",
        m.counter("grid.curtail_events") as f64,
    );
    values.insert(
        "powersim.grid.compliance_violations",
        m.counter("grid.compliance_violations") as f64,
    );
}

/// The engine and policy timings of traced runs. `sgct` holds the runs
/// the SGCT-family timings come from.
fn insert_trace(values: &mut Values, agg: &TraceAgg, sgct: &TraceAgg) {
    let (p50, p99, mean) = agg.step_us();
    values.insert("engine.tick_us_p50", p50);
    values.insert("engine.tick_us_p99", p99);
    values.insert("engine.tick_us_mean", mean);
    values.insert("engine.self_us_per_tick", agg.self_us_per_tick());
    values.insert(
        "policy.sprintcon.us_per_call",
        agg.policy_us_per_call(PolicyKind::SprintCon),
    );
    for (name, kind) in [
        ("policy.sgct.us_per_call", PolicyKind::Sgct),
        ("policy.sgct_v1.us_per_call", PolicyKind::SgctV1),
        ("policy.sgct_v2.us_per_call", PolicyKind::SgctV2),
    ] {
        values.insert(name, sgct.policy_us_per_call(kind));
    }
}

/// The passes after the first: the first pass runs on a cold heap and
/// cold caches, so it is checked but not timed unless it is the only one.
fn warm(per_pass: &[f64]) -> &[f64] {
    if per_pass.len() > 1 {
        &per_pass[1..]
    } else {
        per_pass
    }
}

/// One line per untraced pass on stderr, for reading a run's noise:
/// wall-clock set-up and run times, and the host's slowdown against
/// the reference host around the pass.
fn log_pass(pass: usize, setup_s: f64, wall_s: f64, slowdown: f64) {
    eprintln!("pass {pass}: set-up {setup_s:.4} s, run {wall_s:.3} s, slowdown {slowdown:.3}");
}

/// Control periods of one rack run of `secs` at the paper's 1 s period.
fn ticks_of(secs: f64) -> usize {
    secs.round() as usize
}

/// Run a list of entries through the untimed campaign executor.
fn run_campaign(
    entries: &[CampaignEntry],
    exec: ExecConfig,
) -> Result<Vec<CampaignResult>, String> {
    let mut c = Campaign::new();
    for e in entries {
        c.add_entry(e.clone());
    }
    catch_unwind(AssertUnwindSafe(|| c.run_with(exec))).map_err(|_| "campaign panicked".into())
}

/// Run a list of entries through the timing wrapper on the campaign
/// executor's pool.
fn run_campaign_traced(
    entries: &[CampaignEntry],
    exec: ExecConfig,
) -> Result<Vec<TracedRun>, String> {
    catch_unwind(AssertUnwindSafe(|| {
        sweep_parallel(entries, exec, |e| {
            run_traced(&e.scenario, e.kind, &e.overrides)
        })
    }))
    .map_err(|_| "traced campaign panicked".into())
}

/// What the untraced passes of a campaign workload measured.
#[derive(Debug, Default)]
struct CampaignMeasure {
    /// Throughput and set-up time of each pass, at reference speed.
    tps: Vec<f64>,
    setup_s: Vec<f64>,
    /// Pass-1 entries and digests: the reference later passes, the
    /// 1-worker rerun and the traced passes must reproduce.
    entries: Vec<CampaignEntry>,
    digests: Vec<u64>,
}

/// Times a campaign pass sets up, so its set-up time is a median too.
const SETUP_REPS: usize = 5;

/// A campaign pass's set-up: validate every scenario and assemble every
/// entry's sim, as `Campaign::run_with` does before each run.
fn set_up_campaign(opts: &Options) -> Result<Campaign, String> {
    let c = workload::campaign(opts.workload, opts.seed, &opts.size).map_err(|e| e.to_string())?;
    for e in c.entries() {
        black_box(e.scenario.try_build().map_err(|e| e.to_string())?);
    }
    Ok(c)
}

/// Untraced passes of a campaign workload for `seconds` (at least two):
/// set-up (scenario validation and sim assembly for every entry,
/// [`SETUP_REPS`] times), then `Campaign::run_with`, then the checks;
/// then the 1-worker rerun of the first seed.
fn measure_campaign(
    opts: &Options,
    seconds: f64,
    ops: &mut Ops,
    values: &mut Values,
) -> CampaignMeasure {
    let w = opts.workload;
    let exec = ExecConfig::jobs(opts.workers);
    let ticks = ticks_of(opts.size.rack_secs);
    let runs = (opts.size.seeds * w.policies().len()) as u64;
    let mut m = CampaignMeasure::default();
    let mut spans = SpanSums::default();
    let start = Instant::now();
    while m.tps.len() < 2 || start.elapsed().as_secs_f64() < seconds {
        let rss_before = rss_bytes();
        let ((setup_s, timed), slowdown) = speed::monitored(|| {
            let mut setups = Vec::with_capacity(SETUP_REPS);
            let mut built = Err(String::new());
            for _ in 0..SETUP_REPS {
                let setup = Instant::now();
                built = set_up_campaign(opts);
                setups.push(setup.elapsed().as_secs_f64());
                if built.is_err() {
                    break;
                }
            }
            let timed = built
                .map_err(|e| format!("set-up: {e}"))
                .and_then(|campaign| {
                    let run_start = Instant::now();
                    let results = run_campaign(campaign.entries(), exec)?;
                    Ok((campaign, results, run_start.elapsed().as_secs_f64()))
                });
            (median(&setups), timed)
        });
        let (campaign, results, wall) = match timed {
            Ok(t) => t,
            Err(e) => {
                ops.fail_all(runs, e);
                return m;
            }
        };
        let first = m.digests.is_empty();
        let digests: Vec<u64> = results.iter().map(|r| r.digest()).collect();
        for (i, (r, e)) in results.iter().zip(campaign.entries()).enumerate() {
            let mut result = checks::run_ok(&r.output, ticks);
            if result.is_ok() && w == Workload::FlashCrowd {
                result = checks::requests_conserved(&r.output, e.scenario.num_servers);
            }
            if result.is_ok() && !first && digests[i] != m.digests[i] {
                result = Err("digest differs from the first pass".into());
            }
            ops.record(result.map_err(|e| format!("{}: {e}", r.label)));
        }
        for r in &results {
            spans.add(&r.output.metrics);
        }
        m.tps.push((results.len() * ticks) as f64 / wall * slowdown);
        m.setup_s.push(setup_s / slowdown);
        log_pass(m.tps.len(), setup_s, wall, slowdown);
        if first {
            if let (Some(before), Some(after)) = (rss_before, rss_bytes()) {
                values.insert(
                    "recorder.bytes_per_rack",
                    ratio(after.saturating_sub(before) as f64, results.len() as f64),
                );
            }
            let summaries: Vec<&RunSummary> = results.iter().map(|r| r.summary()).collect();
            let sprintcon: Vec<&RunSummary> = results
                .iter()
                .filter(|r| r.kind == PolicyKind::SprintCon)
                .map(|r| r.summary())
                .collect();
            insert_sim_outcomes(values, &sprintcon, 0);
            let agg = aggregate_metrics(results.iter().map(|r| &r.output));
            insert_layer_counts(values, &agg, &summaries, (sprintcon.len() * ticks) as u64);
            m.entries = campaign.entries().to_vec();
            m.digests = digests;
        }
    }
    spans.insert(values);

    // Determinism: the first seed's runs again, on the calling thread.
    let k = w.policies().len().min(m.entries.len());
    match run_campaign(&m.entries[..k], ExecConfig::sequential()) {
        Ok(rerun) => {
            for (r, &digest) in rerun.iter().zip(&m.digests) {
                ops.record(if r.digest() == digest {
                    Ok(())
                } else {
                    Err(format!("{}: 1-worker rerun digest differs", r.label))
                });
            }
        }
        Err(e) => ops.fail_all(k as u64, format!("1-worker rerun: {e}")),
    }
    m
}

/// A traced run is a whole, finite run that reproduces the untraced
/// run's digest.
fn traced_matches(run: &TracedRun, digest: u64, ticks: usize) -> Result<(), String> {
    checks::run_ok(&run.output, ticks)?;
    if simkit::run_digest(&run.output) == digest {
        Ok(())
    } else {
        Err("traced run digest differs from the untraced run".into())
    }
}

/// What alternating untraced and traced passes measured.
#[derive(Debug, Default)]
struct Paired {
    /// Traced ÷ untraced throughput of each pair.
    ratios: Vec<f64>,
    /// Σ `sim_tick.ns` ÷ (wall × workers) of each untraced pass.
    busy: Vec<f64>,
    agg: TraceAgg,
}

/// Untraced `Campaign::run_with` passes over `entries`, each followed by
/// the same runs through the timing wrapper, for `seconds` and at least
/// `min_pairs` pairs. A pair's two passes see the same host conditions,
/// so their ratio gives the tracing overhead. Every traced run must
/// reproduce its untraced digest.
fn paired_passes(
    entries: &[CampaignEntry],
    exec: ExecConfig,
    ticks: usize,
    seconds: f64,
    min_pairs: usize,
    ops: &mut Ops,
) -> Paired {
    let mut p = Paired::default();
    let workers = exec.resolved_jobs().min(entries.len()).max(1);
    let start = Instant::now();
    while p.ratios.len() < min_pairs || start.elapsed().as_secs_f64() < seconds {
        let plain_start = Instant::now();
        let plain = run_campaign(entries, exec);
        let plain_wall = plain_start.elapsed().as_secs_f64();
        let traced_start = Instant::now();
        let traced = run_campaign_traced(entries, exec);
        let traced_wall = traced_start.elapsed().as_secs_f64();
        let (plain, traced) = match (plain, traced) {
            (Ok(p), Ok(t)) => (p, t),
            (Err(e), _) | (_, Err(e)) => {
                ops.fail_all(entries.len() as u64, e);
                break;
            }
        };
        let mut spans = SpanSums::default();
        for (u, t) in plain.iter().zip(&traced) {
            spans.add(&u.output.metrics);
            let result = traced_matches(t, u.digest(), ticks);
            ops.record(result.map_err(|e| format!("{}: {e}", u.label)));
            p.agg.add(t);
        }
        p.busy
            .push(ratio(spans.tick_ns(), plain_wall * 1e9 * workers as f64));
        p.ratios.push(plain_wall / traced_wall);
    }
    p
}

/// Insert what paired passes measured: the exec layer's busy fraction
/// and the tracing overhead.
fn insert_paired(values: &mut Values, p: &Paired) {
    values.insert("exec.busy_frac", median(&p.busy));
    values.insert("trace.overhead_frac", 1.0 - median(&p.ratios));
}

/// The SGCT family over `template` for `secs`, through the timing
/// wrapper — the stand-in for the baselines layer on workloads that do
/// not run it.
fn sgct_probe(template: &simkit::Scenario, secs: f64, ops: &mut Ops) -> TraceAgg {
    let mut sc = template.clone();
    sc.duration = powersim::units::Seconds(secs);
    let mut agg = TraceAgg::default();
    for kind in [PolicyKind::Sgct, PolicyKind::SgctV1, PolicyKind::SgctV2] {
        match catch_unwind(AssertUnwindSafe(|| {
            run_traced(&sc, kind, &simkit::PolicyOverrides::default())
        })) {
            Ok(run) => {
                let result = checks::run_ok(&run.output, ticks_of(secs));
                ops.record(result.map_err(|e| format!("{} probe: {e}", kind.name())));
                agg.add(&run);
            }
            Err(_) => ops.fail_all(1, format!("{} probe panicked", kind.name())),
        }
    }
    agg
}

/// What the floor passes measured.
#[derive(Debug, Default)]
struct FloorMeasure {
    /// Throughput and set-up time of each pass, at reference speed.
    tps: Vec<f64>,
    setup_s: Vec<f64>,
    par: Option<FloorStats>,
    seq: Option<FloorStats>,
}

/// Build and run `dc` on `workers`, checking every rack; `reference`
/// holds the first pass's floor and rack digests.
fn floor_pass(
    dc: &simkit::DcScenario,
    workers: usize,
    reference: Option<&(u64, Vec<u64>)>,
    ops: &mut Ops,
) -> Option<probe::FloorRun> {
    let racks = dc.topo.num_racks();
    let run = match catch_unwind(AssertUnwindSafe(|| probe::run_floor(dc, workers))) {
        Ok(Ok(run)) => run,
        Ok(Err(e)) => {
            ops.fail_all(racks as u64, format!("floor set-up: {e}"));
            return None;
        }
        Err(_) => {
            ops.fail_all(racks as u64, "floor run panicked".into());
            return None;
        }
    };
    let out = &run.out;
    let mut why: Vec<Option<String>> = vec![None; racks];
    if out.racks.len() != racks {
        ops.fail_all(
            racks as u64,
            format!("floor returned {} racks", out.racks.len()),
        );
        return None;
    }
    for (r, rack) in out.racks.iter().enumerate() {
        if let Err(e) = checks::samples_finite(rack) {
            why[r] = Some(e);
        } else if !checks::summary_finite(&rack.summary) {
            why[r] = Some("summary has a non-finite field".into());
        }
    }
    for (r, reason) in checks::market_violations(out) {
        why[r].get_or_insert(reason);
    }
    if let Some((digest, rack_digests)) = reference {
        let bad = checks::digest_mismatches(rack_digests, &out.rack_digests);
        for &r in &bad {
            why[r].get_or_insert_with(|| "rack digest differs from the reference run".into());
        }
        if bad.is_empty() && *digest != out.digest {
            why.iter_mut().for_each(|w| {
                w.get_or_insert_with(|| "floor digest differs from the reference run".into());
            });
        }
    }
    for (r, w) in why.into_iter().enumerate() {
        ops.record(w.map_or(Ok(()), |e| Err(format!("rack {r}: {e}"))));
    }
    Some(run)
}

/// Floor passes for `seconds` (at least one) on `opts.workers`, then the
/// 1-worker rerun that must reproduce the first pass's digests.
fn measure_floor(
    opts: &Options,
    dc: &simkit::DcScenario,
    seconds: f64,
    ops: &mut Ops,
    values: &mut Values,
) -> FloorMeasure {
    let racks = dc.topo.num_racks();
    let ticks = ticks_of(dc.base.duration.0);
    let mut m = FloorMeasure::default();
    let mut reference: Option<(u64, Vec<u64>)> = None;
    let start = Instant::now();
    while m.tps.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let rss_before = rss_bytes();
        let Some(run) = floor_pass(dc, opts.workers, reference.as_ref(), ops) else {
            return m;
        };
        m.tps
            .push((racks * ticks) as f64 / run.wall_s * run.slowdown);
        m.setup_s.push(run.setup_s / run.slowdown);
        log_pass(m.tps.len(), run.setup_s, run.wall_s, run.slowdown);
        if reference.is_none() {
            if let (Some(before), Some(after)) = (rss_before, rss_bytes()) {
                values.insert(
                    "recorder.bytes_per_rack",
                    ratio(after.saturating_sub(before) as f64, racks as f64),
                );
            }
            let out = &run.out;
            let summaries: Vec<&RunSummary> = out.racks.iter().map(|r| &r.summary).collect();
            let tree_trips = out.pdu_trip_periods.iter().sum::<u64>() + out.feeder_trip_periods;
            insert_sim_outcomes(values, &summaries, tree_trips);
            let agg = aggregate_metrics(out.racks.iter());
            insert_layer_counts(values, &agg, &summaries, (racks * ticks) as u64);
            let mut spans = SpanSums::default();
            spans.add(&agg);
            spans.insert(values);
            m.par = Some(run.stats());
            reference = Some((out.digest, out.rack_digests.clone()));
        }
    }
    if let Some(run) = floor_pass(dc, 1, reference.as_ref(), ops) {
        m.seq = Some(run.stats());
    }
    m
}

/// The floor's first `n` rack scenarios as SprintCon campaign entries.
fn floor_sample(dc: &simkit::DcScenario, n: usize) -> Vec<CampaignEntry> {
    let mut c = Campaign::new();
    for r in 0..n.min(dc.topo.num_racks()) {
        c.add(dc.rack_scenario(r), PolicyKind::SprintCon);
    }
    c.entries().to_vec()
}

/// A campaign workload (`paper_campaign`, `flash_crowd`); returns its
/// throughput and set-up time.
fn campaign_workload(opts: &Options, ops: &mut Ops, values: &mut Values) -> (f64, f64) {
    let w = opts.workload;
    let untraced_secs = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let m = measure_campaign(opts, untraced_secs, ops, values);
    if opts.trace && !m.entries.is_empty() {
        let exec = ExecConfig::jobs(opts.workers);
        let ticks = ticks_of(opts.size.rack_secs);
        let paired = paired_passes(&m.entries, exec, ticks, opts.seconds / 2.0, 1, ops);
        insert_paired(values, &paired);
        let probe;
        let sgct = if w == Workload::PaperCampaign {
            &paired.agg
        } else {
            probe = sgct_probe(&m.entries[0].scenario, opts.size.sgct_probe_secs, ops);
            &probe
        };
        insert_trace(values, &paired.agg, sgct);
        // The datacenter layer, on a small floor of paper racks.
        let seed = w.scenario_seed(opts.seed, 0);
        match workload::floor_of(seed, opts.size.probe_racks, opts.size.probe_secs) {
            Ok(dc) => {
                let pm = measure_floor(opts, &dc, 0.0, ops, &mut Values::new());
                if let (Some(par), Some(seq)) = (pm.par, pm.seq) {
                    values.extend(probe::dc_layer(&par, &seq));
                }
            }
            Err(e) => ops.fail_all(opts.size.probe_racks as u64, format!("probe floor: {e}")),
        }
    }
    (median(warm(&m.tps)), median(warm(&m.setup_s)))
}

/// The `floor` workload; returns its throughput and set-up time.
fn floor_workload(opts: &Options, ops: &mut Ops, values: &mut Values) -> (f64, f64) {
    let dc = match workload::floor(opts.seed, &opts.size) {
        Ok(dc) => dc,
        Err(e) => {
            ops.fail_all(opts.size.floor_racks as u64, format!("floor scenario: {e}"));
            return (0.0, 0.0);
        }
    };
    let secs = if opts.trace { 0.0 } else { opts.seconds };
    let m = measure_floor(opts, &dc, secs, ops, values);
    if opts.trace {
        if let (Some(par), Some(seq)) = (m.par, m.seq) {
            values.extend(probe::dc_layer(&par, &seq));
        }
        // `DatacenterSim` cannot take a wrapped policy: the floor's first
        // racks are stepped standalone (no market grants) instead.
        let exec = ExecConfig::jobs(opts.workers);
        let entries = floor_sample(&dc, opts.size.sample_racks);
        let paired = paired_passes(&entries, exec, ticks_of(dc.base.duration.0), 0.0, 5, ops);
        insert_paired(values, &paired);
        let sgct = sgct_probe(&dc.base, opts.size.sgct_probe_secs, ops);
        insert_trace(values, &paired.agg, &sgct);
    }
    (median(warm(&m.tps)), median(warm(&m.setup_s)))
}

/// Run the workload `opts` names and report its metrics.
pub fn run(opts: &Options) -> Report {
    let mut ops = Ops::default();
    let mut values = Values::new();
    let (tps, setup_s) = match opts.workload {
        Workload::PaperCampaign | Workload::FlashCrowd => {
            campaign_workload(opts, &mut ops, &mut values)
        }
        Workload::Floor => floor_workload(opts, &mut ops, &mut values),
    };
    values.insert("rack_ticks_per_s", tps);
    values.insert("setup_s", setup_s);
    if opts.trace {
        let floor_topo = workload::floor_topology(opts.size.floor_racks);
        values.insert(
            "bidding.market_us_per_round",
            probe::market_us_per_round(&floor_topo, opts.seed),
        );
        values.insert(
            "datacenter.replay_ns_per_tick",
            probe::replay_ns_per_tick(&floor_topo, opts.seed),
        );
    }
    values.insert(
        "peak_rss_mb",
        peak_rss_bytes().map_or(0.0, |b| b as f64 / (1024.0 * 1024.0)),
    );
    values.insert(
        "failed_frac",
        ratio(ops.failed as f64, ops.attempted as f64),
    );

    let section = if opts.trace {
        Section::PerLayer
    } else {
        Section::EndToEnd
    };
    let metrics = METRICS
        .iter()
        .filter(|s| s.section == section)
        .map(|s| Metric {
            name: s.name,
            // A metric a failed pass never reached reads 0; the failure
            // itself is already counted.
            value: values
                .get(s.name)
                .copied()
                .filter(|v| v.is_finite())
                .unwrap_or(0.0),
            unit: s.unit,
        })
        .collect();
    Report {
        attempted: ops.attempted,
        failed: ops.failed,
        failures: ops.failures,
        metrics,
    }
}
