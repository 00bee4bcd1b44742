//! Execution-engine benchmark: proves the two PR-level performance
//! claims and emits them as `BENCH_engine.json`.
//!
//! 1. **Campaign parallelism** — wall-clock of a 16-run campaign
//!    (4 seeds × 4 policies) sequentially vs under 1/2/4/8 worker
//!    threads, with a digest comparison proving every parallel pass is
//!    bit-identical to the sequential one. Speedup scales with the
//!    host's core count; on a 1-core host the JSON carries
//!    `"speedup_meaningful": false` and no speedup claims are printed
//!    (the numbers are pure scheduling noise there). The determinism
//!    check is the invariant that must hold everywhere.
//! 2. **MPC hot path** — mean ns per control period of
//!    `MpcController::compute` at 64 channels. An **agreement gate**
//!    runs `compute` over a feedback sequence and, at every period,
//!    requires its decision vector to match the dense Eq. (8) oracle
//!    (`MpcController::dense_reference`) on the same inputs within 1e-6,
//!    with both solves KKT-certified (`structured_kkt` and `oracle_kkt`
//!    report each solve's worst residual). The same fixed 200-period run
//!    counts the structured solve's root-find evaluations per period
//!    (`evals_per_period`), a deterministic work counter.
//! 3. **Rack substrate** — ns per plant tick at the paper-default rack
//!    (16 servers × 8 cores), single-threaded, for the pre-rework
//!    AoS substrate (`Rack { servers: Vec<Server> }` with allocating
//!    per-`CoreId` access, replicated here verbatim) vs the SoA slab
//!    substrate, driven by an identical deterministic stimulus. A
//!    model-agreement gate requires both substrates to produce
//!    bit-identical power/frequency accumulations — the speedup is only
//!    a claim if the two compute the same plant. Also measures the
//!    whole-engine `server_ticks_per_sec` and compares against the
//!    committed pre-rework full-loop baseline.
//! 4. **SGCT hot path** — for each SGCT variant on the paper rack over
//!    the full 15-minute §VI-A run: end-to-end wall-clock ns per engine
//!    tick (an artifact only), and the deterministic work of its power
//!    probes (calls and server re-pricings per tick), counted by a
//!    wrapper probe in this bin. A transparency gate requires the
//!    counted run to reproduce the plain run's digest.
//!
//! Flags: `--secs N` scenario length (default 120), `--out PATH`
//! (default `BENCH_engine.json`), `--check` CI gate mode (small
//! campaign, no wall-clock sweep; exit 1 on digest mismatch, on
//! `compute`-vs-oracle disagreement > 1e-6, on substrate model
//! disagreement, on a substrate speedup under the floor, on a full loop
//! slower than the committed pre-rework baseline, or on a counted SGCT
//! run that diverges from the plain one).

use baselines::{EstimatorProbe, PlantProbe, PowerProbe, ProbeCache, SgctPolicy, SgctVariant};
use powersim::cpu::CoreRole;
use powersim::rack::Rack;
use powersim::units::{NormFreq, Seconds, Utilization, Watts};
use simkit::policy::tests_support::FixedPolicy;
use simkit::{
    run_digest, Campaign, ExecConfig, FreqCommand, MetricsSnapshot, ModeLabel, Policy,
    PolicyCommand, PolicyKind, RunOutput, RunSummary, Scenario, SimView,
};
use sprint_control::mpc::{MpcConfig, MpcController};
use std::time::Instant;

struct Args {
    secs: f64,
    out: String,
    check_only: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        secs: 120.0,
        out: "BENCH_engine.json".to_string(),
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
            "--out" => args.out = it.next().expect("--out needs a path"),
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: bench_engine [--secs N] [--out PATH] [--check]");
                std::process::exit(2);
            }
        }
    }
    assert!(args.secs > 0.0, "--secs must be positive");
    args
}

/// The 16-run campaign: 4 seeds × every §VII policy.
fn campaign(secs: f64) -> Campaign {
    let scenarios = (0..4).map(move |i| {
        let mut sc = Scenario::paper_default(2019 + i);
        sc.duration = Seconds(secs);
        sc
    });
    Campaign::new().with_grid(scenarios, &PolicyKind::ALL)
}

/// Compare digests run-by-run; returns the mismatched labels.
fn digest_mismatches(
    seq: &[simkit::CampaignResult],
    par: &[simkit::CampaignResult],
) -> Vec<String> {
    assert_eq!(seq.len(), par.len(), "result counts must agree");
    seq.iter()
        .zip(par)
        .filter(|(a, b)| a.digest() != b.digest())
        .map(|(a, _)| a.label.clone())
        .collect()
}

/// Deterministic feedback sequence shared by the MPC measurements.
fn feedback(i: usize) -> f64 {
    1500.0 + 80.0 * ((i as f64) * 0.37).sin()
}

/// Worst-case `compute`-vs-oracle deviation over a feedback sweep, each
/// solve's worst KKT residual, and the structured solve's root-find
/// work.
struct Agreement {
    max_solution_dev: f64,
    structured_kkt: f64,
    oracle_kkt: f64,
    /// Total `qp.iterations` of `compute` over the sweep divided by its
    /// period count: deterministic, so CI gates it exactly.
    evals_per_period: f64,
}

impl Agreement {
    fn pass(&self, tol: f64) -> bool {
        self.max_solution_dev <= tol && self.structured_kkt <= tol && self.oracle_kkt <= tol
    }
}

fn mk_controller(channels: usize) -> MpcController {
    MpcController::new(
        MpcConfig::paper_default(),
        vec![15.0; channels],
        vec![0.2; channels],
        vec![1.0; channels],
    )
}

/// The agreement gate: `compute` against the dense oracle on identical
/// inputs, every period. Decision vectors must track within `1e-6` and
/// both solves must stay KKT-certified.
fn check_agreement(channels: usize, periods: usize) -> Agreement {
    let mut ctrl = mk_controller(channels);
    let f_now = vec![0.6; channels];
    let target = 1700.0;
    let mut agg = Agreement {
        max_solution_dev: 0.0,
        structured_kkt: 0.0,
        oracle_kkt: 0.0,
        evals_per_period: 0.0,
    };
    let mut evals = 0;
    for i in 0..periods {
        let a = ctrl.compute(feedback(i), target, &f_now);
        let b = ctrl.dense_reference(feedback(i), target, &f_now);
        assert!(a.qp.converged && b.converged, "period {i} diverged");
        for (x, y) in a.qp.x.iter().zip(&b.x) {
            agg.max_solution_dev = agg.max_solution_dev.max((x - y).abs());
        }
        agg.structured_kkt = agg.structured_kkt.max(a.qp.kkt_residual);
        agg.oracle_kkt = agg.oracle_kkt.max(b.kkt_residual);
        evals += a.qp.iterations;
    }
    agg.evals_per_period = evals as f64 / periods as f64;
    agg
}

/// Mean ns per `compute` period over the shared feedback sequence.
fn bench_mpc_compute(channels: usize, periods: usize) -> f64 {
    let mut ctrl = mk_controller(channels);
    let f_now = vec![0.6; channels];
    let target = 1700.0;
    let mut sink = 0.0;
    // Warm up (page in, branch-train) before timing.
    for i in 0..10 {
        sink += ctrl.compute(feedback(i), target, &f_now).freqs[0];
    }
    let t = Instant::now();
    for i in 0..periods {
        sink += ctrl.compute(feedback(i), target, &f_now).freqs[0];
    }
    let ns = t.elapsed().as_nanos() as f64 / periods as f64;
    std::hint::black_box(sink);
    ns
}

/// The pre-rework AoS rack substrate, replicated operation-for-operation
/// from the last commit before the SoA rework: `Rack` was a
/// `Vec<Server>` (the `Server`/`CoreState` AoS types survive unchanged
/// for model calibration, so they are reused directly), every rack-wide
/// access went through a freshly allocated `Vec<CoreId>`, and the power
/// sum walked the nested structs server by server. This is the "before"
/// measurement of the substrate claim.
mod prework {
    use powersim::cpu::CoreRole;
    use powersim::server::{Server, ServerSpec};
    use powersim::units::{NormFreq, Watts};

    #[derive(Clone, Copy)]
    pub struct CoreId {
        pub server: usize,
        pub core: usize,
    }

    pub struct Rack {
        pub servers: Vec<Server>,
    }

    impl Rack {
        /// The paper's rack: 16 servers, 8 cores each, 4 interactive.
        pub fn paper_default() -> Self {
            Rack {
                servers: (0..16)
                    .map(|_| Server::new(ServerSpec::paper_default(), 4))
                    .collect(),
            }
        }

        /// All cores of a role, in deterministic order — allocates a
        /// fresh id vector on every call, as the old substrate did.
        pub fn cores_with_role(&self, role: CoreRole) -> Vec<CoreId> {
            let mut out = Vec::new();
            for (si, s) in self.servers.iter().enumerate() {
                for ci in s.cores_with_role(role) {
                    out.push(CoreId {
                        server: si,
                        core: ci,
                    });
                }
            }
            out
        }

        pub fn set_freq(&mut self, id: CoreId, f: NormFreq) {
            self.servers[id.server].set_core_freq(id.core, f);
        }

        pub fn freq(&self, id: CoreId) -> NormFreq {
            self.servers[id.server].cores[id.core].freq
        }

        /// Total power: per-server nested-struct walk.
        pub fn power(&self) -> Watts {
            self.servers.iter().map(|s| s.power()).sum()
        }
    }
}

/// Full-loop throughput of the last pre-rework commit on the reference
/// host (best of 3, same chunked-run methodology as
/// [`bench_full_loop`]). The full-loop gate: today's engine must never
/// fall below what the AoS engine delivered.
const PREWORK_FULL_LOOP_SERVER_TICKS_PER_SEC: f64 = 3_183_991.0;

/// CI floor for the substrate speedup. The headline claim is ≥5×; the
/// gate leaves slack for host variance and noisy CI runners.
const SUBSTRATE_SPEEDUP_FLOOR: f64 = 4.0;

/// Batch cores report this utilization while a job runs (mirrors the
/// engine's write-back; both substrates store the identical value).
const BATCH_BUSY_UTIL: f64 = 0.95;

/// Deterministic per-tick stimulus shared by both substrate
/// implementations: rotating batch DVFS commands and per-server
/// interactive loads. Precomputed so the timed loops measure the
/// substrate, not the stimulus generation.
struct Stimulus {
    batch_cmds: Vec<Vec<f64>>,
    loads: Vec<Vec<f64>>,
}

impl Stimulus {
    fn new(batch_lanes: usize, servers: usize) -> Self {
        let patterns = 8;
        let batch_cmds = (0..patterns)
            .map(|k| {
                (0..batch_lanes)
                    .map(|l| 0.2 + 0.8 * (((l * 7 + k * 13) % 17) as f64 / 16.0))
                    .collect()
            })
            .collect();
        let loads = (0..patterns)
            .map(|k| {
                (0..servers)
                    .map(|s| 0.05 + 0.9 * (((s * 5 + k * 3) % 11) as f64 / 10.0))
                    .collect()
            })
            .collect();
        Stimulus { batch_cmds, loads }
    }

    fn at(&self, t: usize) -> (&[f64], &[f64]) {
        let k = t % self.batch_cmds.len();
        (&self.batch_cmds[k], &self.loads[k])
    }
}

/// One plant tick on the pre-rework substrate: the exact operation
/// sequence the old engine performed against the rack each step —
/// DVFS actuation through a fresh id list, per-server interactive mean
/// frequency (allocating), tier load write-back through collected role
/// indices, batch frequency reads + utilization write-back through a
/// second fresh id list, the nested power sum, and the two allocating
/// effective-mean-frequency scans. Returns an accumulation of every
/// value read, so the model-agreement gate can compare substrates.
fn prework_tick(
    rack: &mut prework::Rack,
    powered: &[bool],
    cmd: &[f64],
    loads: &[f64],
    t: usize,
) -> f64 {
    let mut acc = 0.0;
    // Policy view: the old `SimView::batch_freqs()` — a fresh id vector
    // plus a fresh f64 vector through per-id getters, every period. One
    // rotating element feeds the accumulator; full-lane agreement is
    // carried by the power and mean-frequency folds below.
    let freqs: Vec<f64> = rack
        .cores_with_role(CoreRole::Batch)
        .iter()
        .map(|&id| rack.freq(id).0)
        .collect();
    acc += freqs[(t * 7) % freqs.len()];
    // DVFS actuation: interactive role-wide set (filter walk + quantize
    // per server), then per-id batch sets through a fresh id list.
    for s in rack.servers.iter_mut() {
        s.set_role_freq(CoreRole::Interactive, NormFreq::PEAK);
    }
    let ids = rack.cores_with_role(CoreRole::Batch);
    for (id, &f) in ids.iter().zip(cmd) {
        rack.set_freq(*id, NormFreq(f));
    }
    let inter: Vec<NormFreq> = rack
        .servers
        .iter()
        .map(|s| s.mean_freq(CoreRole::Interactive).unwrap_or(NormFreq::PEAK))
        .collect();
    acc += inter[t % inter.len()].0;
    for (s, &u) in loads.iter().enumerate() {
        for ci in rack.servers[s]
            .cores_with_role(CoreRole::Interactive)
            .collect::<Vec<_>>()
        {
            rack.servers[s].cores[ci].util = Utilization(u);
        }
    }
    // Per-server row subtotals folded into the accumulator — the same
    // chain shape as the SoA side, so the agreement gate stays
    // bit-exact without an artificial 64-add serial chain on either
    // side (the substrate ops — one getter and one util store per id —
    // are unchanged).
    let ids = rack.cores_with_role(CoreRole::Batch);
    let bpc = ids.len() / rack.servers.len();
    for (s, chunk) in ids.chunks(bpc).enumerate() {
        let mut row_acc = 0.0;
        for (j, id) in chunk.iter().enumerate() {
            let on = powered[id.server];
            row_acc += if on { rack.freq(*id).0 } else { 0.0 };
            let busy = !(s * bpc + j + t).is_multiple_of(16);
            rack.servers[id.server].cores[id.core].util =
                Utilization(if busy { BATCH_BUSY_UTIL } else { 0.0 });
        }
        acc += row_acc;
    }
    // Controller feedback input: per-server interactive utilization
    // (the Eq. (5) `U` vector), via the old allocating role scan.
    let utils: Vec<Utilization> = rack
        .servers
        .iter()
        .map(|s| {
            s.mean_util(CoreRole::Interactive)
                .unwrap_or(Utilization::IDLE)
        })
        .collect();
    acc += utils[t % utils.len()].0;
    acc += rack.power().0;
    for role in [CoreRole::Interactive, CoreRole::Batch] {
        let ids = rack.cores_with_role(role);
        let sum: f64 = ids
            .iter()
            .map(|&id| {
                if powered[id.server] {
                    rack.freq(id).0
                } else {
                    0.0
                }
            })
            .sum();
        acc += sum / ids.len() as f64;
    }
    acc
}

/// The same plant tick on the SoA substrate, using the batched slab
/// operations the engine uses today. The SoA side additionally steps
/// the thermal slab — extra work the AoS substrate never modeled, kept
/// in the timed loop so the comparison cannot flatter the new code.
fn soa_tick(
    rack: &mut Rack,
    powered: &[bool],
    cmd: &[f64],
    loads: &[f64],
    t: usize,
    inter_buf: &mut Vec<NormFreq>,
    util_buf: &mut Vec<Utilization>,
) -> f64 {
    let mut acc = 0.0;
    // Policy view: today's `SimView::batch_freqs()` is a zero-copy slice.
    {
        let freqs = rack.role(CoreRole::Batch).freqs;
        acc += freqs[(t * 7) % freqs.len()];
    }
    // DVFS actuation: one fill, one batched quantize-and-store pass.
    rack.set_role_freq(CoreRole::Interactive, NormFreq::PEAK);
    rack.role_mut(CoreRole::Batch).set_freqs(cmd);
    rack.interactive_freqs_into(inter_buf);
    acc += inter_buf[t % inter_buf.len()].0;
    let ipc = rack.interactive_cores_per_server();
    {
        let iv = rack.role_mut(CoreRole::Interactive);
        for (row, &u) in iv.utils.chunks_exact_mut(ipc).zip(loads) {
            row.fill(u);
        }
    }
    let bpc = rack.batch_cores_per_server();
    {
        let bv = rack.role_mut(CoreRole::Batch);
        let rows = bv
            .freqs
            .chunks_exact(bpc)
            .zip(bv.utils.chunks_exact_mut(bpc));
        for (s, (frow, urow)) in rows.enumerate() {
            let on = powered[s];
            let mut row_acc = 0.0;
            for (j, (&f, u)) in frow.iter().zip(urow.iter_mut()).enumerate() {
                row_acc += if on { f } else { 0.0 };
                let busy = !(s * bpc + j + t).is_multiple_of(16);
                *u = if busy { BATCH_BUSY_UTIL } else { 0.0 };
            }
            acc += row_acc;
        }
    }
    // Controller feedback input: one batched read into a reused buffer.
    rack.interactive_utils_into(util_buf);
    acc += util_buf[t % util_buf.len()].0;
    acc += rack.update_server_powers(Some(powered)).0;
    rack.step_thermal(Seconds(1.0));
    for role in [CoreRole::Interactive, CoreRole::Batch] {
        let v = rack.role(role);
        let per = v.per_server();
        let mut sum = 0.0;
        for (s, row) in v.freqs.chunks_exact(per).enumerate() {
            let on = powered[s];
            for &f in row {
                sum += if on { f } else { 0.0 };
            }
        }
        acc += sum / v.len() as f64;
    }
    acc
}

struct SubstrateResult {
    prework_ns_per_tick: f64,
    soa_ns_per_tick: f64,
    speedup: f64,
    model_bit_identical: bool,
}

/// Best-of-`reps` mean ns/tick for one substrate.
fn time_ticks<F: FnMut(usize) -> f64>(ticks: usize, reps: usize, mut tick: F) -> f64 {
    let mut best = f64::INFINITY;
    let mut sink = 0.0;
    for r in 0..reps {
        let t0 = Instant::now();
        for t in 0..ticks {
            sink += tick(r * ticks + t);
        }
        best = best.min(t0.elapsed().as_nanos() as f64 / ticks as f64);
    }
    std::hint::black_box(sink);
    best
}

/// The substrate comparison: identical stimulus through both
/// implementations, bit-compared accumulations, then timed separately
/// (single-threaded, paper-default rack).
fn bench_substrate(agree_ticks: usize, prework_ticks: usize, soa_ticks: usize) -> SubstrateResult {
    let mut old = prework::Rack::paper_default();
    let mut new = Rack::builder()
        .server(powersim::server::ServerSpec::paper_default())
        .num_servers(16)
        .interactive_cores_per_server(4)
        .build()
        .expect("paper config is a valid rack");
    let powered = vec![true; 16];
    let stim = Stimulus::new(new.count_role(CoreRole::Batch), 16);
    let mut inter_buf = Vec::new();
    let mut util_buf = Vec::new();

    // Model-agreement gate: every frequency read and every power sum,
    // accumulated over `agree_ticks`, must be bit-identical — the SoA
    // slabs must compute the same plant in the same FP order.
    let (mut acc_old, mut acc_new) = (0.0, 0.0);
    for t in 0..agree_ticks {
        let (cmd, loads) = stim.at(t);
        acc_old += prework_tick(&mut old, &powered, cmd, loads, t);
        acc_new += soa_tick(
            &mut new,
            &powered,
            cmd,
            loads,
            t,
            &mut inter_buf,
            &mut util_buf,
        );
    }
    let model_bit_identical = acc_old.to_bits() == acc_new.to_bits();
    if !model_bit_identical {
        eprintln!("substrate model disagreement: prework acc {acc_old:.17e} vs soa {acc_new:.17e}");
    }

    // Interleave the timing reps so both substrates sample the same
    // distribution of CPU clock states (boost decay, thermal drift)
    // instead of one side monopolizing the cold boosted window.
    let (mut prework_ns, mut soa_ns) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..3 {
        prework_ns = prework_ns.min(time_ticks(prework_ticks, 1, |t| {
            let (cmd, loads) = stim.at(t);
            prework_tick(&mut old, &powered, cmd, loads, t)
        }));
        soa_ns = soa_ns.min(time_ticks(soa_ticks, 1, |t| {
            let (cmd, loads) = stim.at(t);
            soa_tick(
                &mut new,
                &powered,
                cmd,
                loads,
                t,
                &mut inter_buf,
                &mut util_buf,
            )
        }));
    }
    SubstrateResult {
        prework_ns_per_tick: prework_ns,
        soa_ns_per_tick: soa_ns,
        speedup: prework_ns / soa_ns,
        model_bit_identical,
    }
}

/// Whole-engine throughput in server-ticks/sec: the paper-default
/// scenario under a fixed policy (pure plant + workloads, no MPC cost),
/// best of `reps` runs of ~`budget_secs` wall each — the same
/// methodology that produced the committed pre-rework baseline.
fn bench_full_loop(budget_secs: f64, reps: usize) -> f64 {
    let sc = Scenario::builder(1234)
        .duration(Seconds::minutes(15.0))
        .build()
        .expect("default scenario is valid");
    let servers = 16u64;
    let mut best = 0.0f64;
    for _ in 0..reps {
        let mut sim = sc.build();
        let mut pol = FixedPolicy::new(NormFreq::PEAK, 0.7, Watts(400.0));
        let t0 = Instant::now();
        let mut ticks = 0u64;
        while t0.elapsed().as_secs_f64() < budget_secs {
            let rec = sim.run(&mut pol, Seconds(60.0));
            ticks += rec.len() as u64;
            if sim.is_shutdown() || sim.now().0 > 850.0 {
                sim = sc.build();
            }
        }
        best = best.max(ticks as f64 * servers as f64 / t0.elapsed().as_secs_f64());
    }
    best
}

/// Probe work of one SGCT run.
#[derive(Debug, Default, Clone, Copy)]
struct ProbeWork {
    /// `reset` + `set_core` calls.
    calls: u64,
    /// Servers whose contribution to the total was recomputed.
    server_recomputes: u64,
}

/// Counts the work of the probe it wraps. A `reset` prices every
/// server. A `set_core` re-prices the changed core's server, and the
/// estimator probe also replays its running sum over every later
/// server — the work each probe documents.
struct CountingProbe<'w, P> {
    inner: P,
    servers: usize,
    cores_per_server: usize,
    replays_tail: bool,
    work: &'w mut ProbeWork,
}

impl<P: PowerProbe> PowerProbe for CountingProbe<'_, P> {
    fn reset(&mut self, freqs: &[NormFreq]) -> Watts {
        self.work.calls += 1;
        self.work.server_recomputes += self.servers as u64;
        self.inner.reset(freqs)
    }

    fn set_core(&mut self, freqs: &[NormFreq], i: usize) -> Watts {
        self.work.calls += 1;
        self.work.server_recomputes += if self.replays_tail {
            (self.servers - i / self.cores_per_server) as u64
        } else {
            1
        };
        self.inner.set_core(freqs, i)
    }
}

/// An SGCT variant driving the rack with its probe wrapped in a
/// [`CountingProbe`]; otherwise the engine adapter
/// (`simkit::SgctSimPolicy`) line for line, which the transparency gate
/// checks.
struct CountingSgct {
    policy: SgctPolicy,
    name: &'static str,
    cache: ProbeCache,
    work: ProbeWork,
    ticks: u64,
}

impl Policy for CountingSgct {
    fn name(&self) -> &'static str {
        self.name
    }

    fn control(&mut self, view: &SimView<'_>) -> PolicyCommand {
        let rack = view.rack;
        let (servers, cores_per_server) = (rack.num_servers(), rack.cores_per_server());
        let (dt, p, fan) = (view.dt, view.p_total_measured, view.fan_power);
        let cmd = match self.policy.cfg.variant {
            SgctVariant::Uncontrolled => {
                let mut probe = CountingProbe {
                    inner: EstimatorProbe::new(self.policy.cfg.estimator, rack, &mut self.cache),
                    servers,
                    cores_per_server,
                    replays_tail: true,
                    work: &mut self.work,
                };
                self.policy.step_with_probe(dt, rack, p, fan, &mut probe)
            }
            SgctVariant::V1Ideal | SgctVariant::V2InteractivePriority => {
                let mut probe = CountingProbe {
                    inner: PlantProbe::new(rack, &mut self.cache),
                    servers,
                    cores_per_server,
                    replays_tail: false,
                    work: &mut self.work,
                };
                self.policy.step_with_probe(dt, rack, p, fan, &mut probe)
            }
        };
        self.ticks += 1;
        PolicyCommand {
            freqs: FreqCommand::AllCores(cmd.freqs),
            ups_target: cmd.ups_target,
            p_cb_target: Some(if cmd.overloading {
                self.policy.cfg.sprint_budget()
            } else {
                self.policy.cfg.rated
            }),
            p_batch_target: None,
            mode_label: if cmd.overloading {
                ModeLabel::Overload
            } else {
                ModeLabel::Recover
            },
        }
    }
}

/// Length of the SGCT hot-path runs: the whole §VI-A run, fixed so the
/// committed work counters do not depend on `--secs`.
const SGCT_RUN_SECS: f64 = 900.0;

struct SgctHotPath {
    key: &'static str,
    ns_per_tick: f64,
    ticks: u64,
    work: ProbeWork,
    transparent: bool,
}

/// Run `policy` over `sc` and digest the recording and summary.
fn run_and_digest(sc: &Scenario, policy: &mut dyn Policy) -> u64 {
    let mut sim = sc.build();
    let recorder = sim.run(policy, sc.duration);
    let summary = RunSummary::from_run(policy.name(), &sim, &recorder);
    run_digest(&RunOutput {
        recorder,
        summary,
        metrics: MetricsSnapshot::default(),
    })
}

/// Section 4: per-variant probe work from a counted run, its
/// transparency against the plain engine adapter, and the plain run's
/// best-of-`reps` wall-clock ns per engine tick.
fn bench_sgct_hot_path(reps: usize) -> Vec<SgctHotPath> {
    let mut sc = Scenario::paper_default(2019);
    sc.duration = Seconds(SGCT_RUN_SECS);
    let ticks = (sc.duration.0 / sc.dt.0).round();
    [
        ("sgct", PolicyKind::Sgct, SgctVariant::Uncontrolled),
        ("sgct_v1", PolicyKind::SgctV1, SgctVariant::V1Ideal),
        (
            "sgct_v2",
            PolicyKind::SgctV2,
            SgctVariant::V2InteractivePriority,
        ),
    ]
    .into_iter()
    .map(|(key, kind, variant)| {
        let mut counted = CountingSgct {
            policy: SgctPolicy::new(baselines::SgctConfig::paper_default(variant)),
            name: kind.name(),
            cache: ProbeCache::default(),
            work: ProbeWork::default(),
            ticks: 0,
        };
        let counted_digest = run_and_digest(&sc, &mut counted);
        let plain_digest = run_and_digest(&sc, kind.build().as_mut());
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            let mut sim = sc.build();
            let mut policy = kind.build();
            let t0 = Instant::now();
            std::hint::black_box(sim.run(policy.as_mut(), sc.duration));
            best = best.min(t0.elapsed().as_nanos() as f64 / ticks);
        }
        SgctHotPath {
            key,
            ns_per_tick: best,
            ticks: counted.ticks,
            work: counted.work,
            transparent: counted_digest == plain_digest,
        }
    })
    .collect()
}

fn print_sgct_hot_path(rows: &[SgctHotPath]) {
    for r in rows {
        println!(
            "  {:<8}: {:.0} ns/tick, {:.1} probe calls/tick, {:.1} server recomputes/tick ({})",
            r.key,
            r.ns_per_tick,
            r.work.calls as f64 / r.ticks as f64,
            r.work.server_recomputes as f64 / r.ticks as f64,
            if r.transparent {
                "counted run bit-identical"
            } else {
                "COUNTED RUN DIVERGED"
            }
        );
    }
}

fn main() {
    let args = parse_args();
    let cpus = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);

    if args.check_only {
        // CI gate 1: determinism — a small campaign, sequential vs 4
        // workers, digest-compared run by run.
        let c = campaign(args.secs.min(30.0));
        let seq = c.run_sequential();
        let par = c.run_with(ExecConfig::jobs(4));
        let bad = digest_mismatches(&seq, &par);
        if !bad.is_empty() {
            eprintln!("DETERMINISM VIOLATION in {} runs: {bad:?}", bad.len());
            std::process::exit(1);
        }
        println!(
            "determinism check passed: {} runs bit-identical (seq vs 4 workers)",
            seq.len()
        );
        // CI gate 2: oracle agreement — `compute` must stay within 1e-6
        // of the dense oracle at every period, both KKT-certified.
        let agreement = check_agreement(64, 200);
        if !agreement.pass(1e-6) {
            eprintln!(
                "ORACLE DISAGREEMENT: max solution dev {:.3e}, KKT structured {:.3e} / oracle {:.3e} (gate 1e-6)",
                agreement.max_solution_dev, agreement.structured_kkt, agreement.oracle_kkt
            );
            std::process::exit(1);
        }
        println!(
            "agreement check passed: compute vs dense oracle within {:.3e} (KKT structured ≤ {:.3e}, oracle ≤ {:.3e}; {:.3} evals/period)",
            agreement.max_solution_dev,
            agreement.structured_kkt,
            agreement.oracle_kkt,
            agreement.evals_per_period
        );
        // CI gate 4: the SoA substrate must compute the identical plant
        // and beat the pre-rework AoS substrate by at least the floor.
        let sub = bench_substrate(1024, 10_000, 80_000);
        if !sub.model_bit_identical {
            eprintln!("SUBSTRATE MODEL DISAGREEMENT: AoS and SoA plants diverged");
            std::process::exit(1);
        }
        if sub.speedup < SUBSTRATE_SPEEDUP_FLOOR {
            eprintln!(
                "PERF REGRESSION: substrate speedup {:.2}x < floor {SUBSTRATE_SPEEDUP_FLOOR}x (prework {:.0} ns/tick, soa {:.0} ns/tick)",
                sub.speedup, sub.prework_ns_per_tick, sub.soa_ns_per_tick
            );
            std::process::exit(1);
        }
        println!(
            "substrate check passed: soa {:.0} ns/tick vs prework {:.0} ns/tick ({:.1}x, bit-identical plant)",
            sub.soa_ns_per_tick, sub.prework_ns_per_tick, sub.speedup
        );
        // CI gate 5: whole-engine throughput must not fall below what
        // the pre-rework engine delivered on the reference host.
        let full_loop = bench_full_loop(0.6, 2);
        if full_loop < PREWORK_FULL_LOOP_SERVER_TICKS_PER_SEC {
            eprintln!(
                "PERF REGRESSION: full loop {full_loop:.0} server_ticks/sec < committed pre-rework baseline {PREWORK_FULL_LOOP_SERVER_TICKS_PER_SEC:.0}"
            );
            std::process::exit(1);
        }
        println!(
            "full-loop check passed: {full_loop:.0} server_ticks/sec ({:.1}x the pre-rework baseline)",
            full_loop / PREWORK_FULL_LOOP_SERVER_TICKS_PER_SEC
        );
        // CI gate 6: the counting probe wrapper changes no decision.
        let sgct = bench_sgct_hot_path(1);
        print_sgct_hot_path(&sgct);
        if sgct.iter().any(|r| !r.transparent) {
            eprintln!("SGCT COUNTING DIVERGENCE: a counted run left the plain run's digest");
            std::process::exit(1);
        }
        println!("sgct hot-path check passed: counted runs bit-identical to plain runs");
        return;
    }

    // Wall-clock speedups are only a claim worth making with real
    // parallel hardware underneath; on a 1-core host the parallel passes
    // still run (the determinism gate matters everywhere) but the ratios
    // are scheduling noise, so we neither print nor emphasize them.
    let speedup_meaningful = cpus > 1;

    println!("bench_engine: {cpus}-core host, {}s scenarios", args.secs);
    let c = campaign(args.secs);

    println!("sequential pass ({} runs)...", c.len());
    let t0 = Instant::now();
    let seq = c.run_sequential();
    let seq_ms = t0.elapsed().as_secs_f64() * 1e3;
    println!("  {seq_ms:.0} ms");

    let widths = [1usize, 2, 4, 8];
    let mut rows = Vec::new();
    let mut all_match = true;
    for &jobs in &widths {
        println!("parallel pass, {jobs} worker(s)...");
        let t = Instant::now();
        let par = c.run_with(ExecConfig::jobs(jobs));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let bad = digest_mismatches(&seq, &par);
        all_match &= bad.is_empty();
        if !bad.is_empty() {
            eprintln!("  DETERMINISM VIOLATION: {bad:?}");
        }
        if speedup_meaningful {
            println!("  {ms:.0} ms  (speedup {:.2}x)", seq_ms / ms);
        } else {
            println!("  {ms:.0} ms  (1-core host; speedup not meaningful)");
        }
        rows.push((jobs, ms));
    }

    println!("MPC agreement gate, 64 channels x 200 periods...");
    let agreement = check_agreement(64, 200);
    let agreement_ok = agreement.pass(1e-6);
    println!(
        "  max solution dev {:.3e}, KKT structured {:.3e} / oracle {:.3e}, {:.3} evals/period  ({})",
        agreement.max_solution_dev,
        agreement.structured_kkt,
        agreement.oracle_kkt,
        agreement.evals_per_period,
        if agreement_ok { "pass" } else { "FAIL" }
    );

    println!("MPC hot path, 64 channels x 200 periods...");
    // `compute` is cheap; run 50× the periods so the measurement isn't
    // timer-resolution noise.
    let structured_ns = bench_mpc_compute(64, 200 * 50);
    println!("  compute: {structured_ns:.0} ns/period");

    println!("rack substrate, paper-default rack, single thread...");
    let sub = bench_substrate(4096, 50_000, 400_000);
    println!(
        "  prework AoS : {:.0} ns/tick\n  SoA slabs   : {:.0} ns/tick  ({:.1}x, plant {})",
        sub.prework_ns_per_tick,
        sub.soa_ns_per_tick,
        sub.speedup,
        if sub.model_bit_identical {
            "bit-identical"
        } else {
            "DISAGREES"
        }
    );
    println!("full engine loop, fixed policy...");
    let full_loop = bench_full_loop(1.0, 3);
    println!(
        "  {full_loop:.0} server_ticks/sec  ({:.1}x the committed pre-rework baseline {PREWORK_FULL_LOOP_SERVER_TICKS_PER_SEC:.0})",
        full_loop / PREWORK_FULL_LOOP_SERVER_TICKS_PER_SEC
    );

    println!("SGCT hot path, paper rack, {SGCT_RUN_SECS} s runs...");
    let sgct = bench_sgct_hot_path(3);
    print_sgct_hot_path(&sgct);
    let sgct_transparent = sgct.iter().all(|r| r.transparent);
    let sgct_json: Vec<String> = sgct
        .iter()
        .map(|r| {
            format!(
                "\"{}\": {{\"ns_per_tick\": {:.0}, \"ticks\": {}, \"probe_calls\": {}, \"server_recomputes\": {}, \"probe_calls_per_tick\": {:.3}, \"server_recomputes_per_tick\": {:.3}, \"transparent\": {}}}",
                r.key,
                r.ns_per_tick,
                r.ticks,
                r.work.calls,
                r.work.server_recomputes,
                r.work.calls as f64 / r.ticks as f64,
                r.work.server_recomputes as f64 / r.ticks as f64,
                r.transparent
            )
        })
        .collect();

    let jobs_json: Vec<String> = rows
        .iter()
        .map(|(j, ms)| {
            format!(
                "{{\"jobs\": {j}, \"wall_ms\": {ms:.1}, \"speedup\": {:.3}}}",
                seq_ms / ms
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"host\": {{\"cpus\": {cpus}}},\n  \"campaign\": {{\"runs\": {}, \"scenario_secs\": {}}},\n  \"wall_clock\": {{\"seq_ms\": {seq_ms:.1}, \"speedup_meaningful\": {speedup_meaningful}, \"parallel\": [\n    {}\n  ]}},\n  \"determinism\": {{\"checked\": true, \"bit_identical\": {all_match}}},\n  \"mpc_hot_path\": {{\"channels\": 64, \"periods\": 200, \"structured_ns_per_period\": {structured_ns:.0}, \"evals_per_period\": {:.3}, \"agreement\": {{\"max_solution_dev\": {:.3e}, \"structured_kkt\": {:.3e}, \"oracle_kkt\": {:.3e}, \"pass\": {agreement_ok}}}}},\n  \"server_ticks\": {{\"full_loop_per_sec\": {full_loop:.0}, \"prework_full_loop_per_sec\": {PREWORK_FULL_LOOP_SERVER_TICKS_PER_SEC:.0}, \"full_loop_speedup\": {:.2}, \"substrate\": {{\"prework_ns_per_tick\": {:.0}, \"soa_ns_per_tick\": {:.0}, \"speedup\": {:.2}, \"model_bit_identical\": {}}}}},\n  \"sgct_hot_path\": {{\"scenario_secs\": {SGCT_RUN_SECS}, {}}}\n}}\n",
        c.len(),
        args.secs,
        jobs_json.join(",\n    "),
        agreement.evals_per_period,
        agreement.max_solution_dev,
        agreement.structured_kkt,
        agreement.oracle_kkt,
        full_loop / PREWORK_FULL_LOOP_SERVER_TICKS_PER_SEC,
        sub.prework_ns_per_tick,
        sub.soa_ns_per_tick,
        sub.speedup,
        sub.model_bit_identical,
        sgct_json.join(", "),
    );
    std::fs::write(&args.out, &json).expect("write BENCH_engine.json");
    println!("wrote {}", args.out);

    if !all_match {
        eprintln!("determinism check FAILED");
        std::process::exit(1);
    }
    if !agreement_ok {
        eprintln!("agreement check FAILED");
        std::process::exit(1);
    }
    if !sub.model_bit_identical {
        eprintln!("substrate model agreement FAILED");
        std::process::exit(1);
    }
    if !sgct_transparent {
        eprintln!("SGCT counted-run transparency FAILED");
        std::process::exit(1);
    }
}
