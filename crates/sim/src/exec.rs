//! The parallel experiment execution layer: fan campaigns of
//! scenario × policy runs across a configurable number of scoped worker
//! threads (std only) with deterministic, input-ordered results.
//!
//! ## Determinism contract
//!
//! A simulation run is a pure function of its [`Scenario`] (every RNG is
//! seeded from `Scenario::seed`), so executing runs concurrently cannot
//! change their outputs — *provided* nothing leaks between runs. Two
//! mechanisms guarantee that:
//!
//! * every run installs its own thread-scoped [`telemetry::Collector`]
//!   (see `experiment::run_instrumented`), and workers are fresh
//!   threads that inherit no thread-locals, so metrics cannot bleed
//!   across concurrently executing runs;
//! * each worker maps one contiguous chunk of the input and the chunks
//!   are joined in order, so results come back in **input order**,
//!   never completion order.
//!
//! Consequently [`Campaign::run`] is bit-identical to
//! [`Campaign::run_sequential`] for everything a run computes: recorder
//! samples, events, summaries, counters, gauges and value histograms.
//! The only exception is wall-clock span histograms (names ending in
//! `.ns`), which measure elapsed time and legitimately differ between
//! executions; [`run_digest`] therefore excludes them. CI enforces the
//! contract by comparing digests of a sequential and a parallel pass
//! (`bench_engine --check`, `tests/parallel.rs`).
//!
//! ## Workers
//!
//! [`ExecConfig`] picks the worker count: `default()` uses every
//! available core (each run is an independent, cache-friendly
//! simulation; hyperthread-level oversubscription buys nothing), and
//! `jobs(1)`/`sequential()` degenerate to plain iteration on the calling
//! thread. [`sweep_parallel`] splits its input into one contiguous chunk
//! per worker (`chunk_bounds`, shared with the datacenter engine's
//! persistent pool) on `std::thread::scope` threads; there is no work
//! stealing, which for runs of seconds each is within noise.

use crate::experiment::{run_policy_with, PolicyKind, PolicyOverrides, RunOutput};
use crate::metrics::RunSummary;
use crate::scenario::Scenario;
use std::ops::Range;
use std::panic::resume_unwind;

/// How a campaign or sweep is executed: on how many worker threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// Requested worker count; `0` = one worker per available core.
    jobs: usize,
}

impl Default for ExecConfig {
    /// Parallel on every available core.
    fn default() -> Self {
        ExecConfig { jobs: 0 }
    }
}

impl ExecConfig {
    /// One worker per available core.
    pub fn parallel() -> Self {
        ExecConfig::default()
    }

    /// Run on the calling thread, no pool.
    pub fn sequential() -> Self {
        ExecConfig { jobs: 1 }
    }

    /// Exactly `n` workers (`0` = one per core).
    pub fn jobs(n: usize) -> Self {
        ExecConfig { jobs: n }
    }

    /// The worker count this config resolves to on this host.
    pub fn resolved_jobs(&self) -> usize {
        if self.jobs == 0 {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        } else {
            self.jobs
        }
    }
}

/// Static contiguous chunking: of `width` workers over `len` items,
/// worker `w` owns `⌈len / width⌉` items, clamped at the end (trailing
/// workers may own none).
pub(crate) fn chunk_bounds(len: usize, width: usize, w: usize) -> Range<usize> {
    let chunk = len.div_ceil(width);
    let lo = (w * chunk).min(len);
    lo..(lo + chunk).min(len)
}

/// Parallel parameter sweep with deterministic, input-ordered results.
///
/// Splits `params` into one contiguous chunk per worker (sized by
/// `exec`), maps each chunk on a scoped thread, and joins the chunks in
/// order; a worker panic is re-raised on the caller. Runs started inside
/// the sweep install thread-scoped collectors, so per-run metrics stay
/// isolated regardless of the thread a run lands on. With
/// `ExecConfig::sequential()` (or one available core) this is plain
/// `iter().map()` on the calling thread.
pub fn sweep_parallel<P, R, F>(params: &[P], exec: ExecConfig, f: F) -> Vec<R>
where
    P: Sync,
    R: Send,
    F: Fn(&P) -> R + Sync,
{
    let width = exec.resolved_jobs().min(params.len()).max(1);
    if width <= 1 {
        return params.iter().map(f).collect();
    }
    let f = &f;
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..width)
            .map(|w| {
                let chunk = &params[chunk_bounds(params.len(), width, w)];
                scope.spawn(move || chunk.iter().map(f).collect::<Vec<R>>())
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_else(|payload| resume_unwind(payload)))
            .collect()
    })
}

/// Run every §VII policy over the scenario concurrently, results in
/// [`PolicyKind::ALL`] order — the parallel counterpart of
/// [`crate::experiment::run_all`].
pub fn run_all_parallel(scenario: &Scenario) -> Vec<RunOutput> {
    Campaign::new()
        .with_all_policies(scenario.clone())
        .run()
        .into_iter()
        .map(|r| r.output)
        .collect()
}

/// One scheduled run of a [`Campaign`].
#[derive(Debug, Clone)]
pub struct CampaignEntry {
    /// Display label (defaults to `"<policy>@seed<seed>"`).
    pub label: String,
    pub scenario: Scenario,
    pub kind: PolicyKind,
    pub overrides: PolicyOverrides,
}

/// One finished run: the entry's identity plus everything it produced.
#[derive(Debug)]
pub struct CampaignResult {
    pub label: String,
    pub kind: PolicyKind,
    /// Seed of the scenario that ran (sweep bookkeeping).
    pub seed: u64,
    pub output: RunOutput,
}

impl CampaignResult {
    pub fn summary(&self) -> &RunSummary {
        &self.output.summary
    }

    /// Order-insensitive determinism digest of this run — see
    /// [`run_digest`].
    pub fn digest(&self) -> u64 {
        run_digest(&self.output)
    }
}

/// A list of scenario × policy runs executed together across a thread
/// pool, results returned in the order the runs were added.
///
/// ```
/// use powersim::units::Seconds;
/// use simkit::{Campaign, ExecConfig, PolicyKind, Scenario};
///
/// let mut sc = Scenario::paper_default(7);
/// sc.duration = Seconds(30.0); // doctest-sized
/// let results = Campaign::new()
///     .with_run(sc.clone(), PolicyKind::SprintCon)
///     .with_run(sc, PolicyKind::Sgct)
///     .with_exec(ExecConfig::jobs(2))
///     .run();
/// assert_eq!(results[0].kind, PolicyKind::SprintCon);
/// assert_eq!(results[1].kind, PolicyKind::Sgct);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Campaign {
    entries: Vec<CampaignEntry>,
    exec: ExecConfig,
}

impl Campaign {
    pub fn new() -> Self {
        Campaign::default()
    }

    /// Set the execution configuration (thread-pool width).
    pub fn with_exec(mut self, exec: ExecConfig) -> Self {
        self.exec = exec;
        self
    }

    /// Schedule one run with paper-default policy configuration.
    pub fn add(&mut self, scenario: Scenario, kind: PolicyKind) -> &mut Self {
        let label = format!("{}@seed{}", kind.name(), scenario.seed);
        self.add_entry(CampaignEntry {
            label,
            scenario,
            kind,
            overrides: PolicyOverrides::default(),
        })
    }

    /// Schedule one run with an explicit label and policy overrides.
    pub fn add_with(
        &mut self,
        label: impl Into<String>,
        scenario: Scenario,
        kind: PolicyKind,
        overrides: PolicyOverrides,
    ) -> &mut Self {
        self.add_entry(CampaignEntry {
            label: label.into(),
            scenario,
            kind,
            overrides,
        })
    }

    /// Schedule a fully-specified entry.
    pub fn add_entry(&mut self, entry: CampaignEntry) -> &mut Self {
        self.entries.push(entry);
        self
    }

    /// Schedule every §VII policy over `scenario`, in
    /// [`PolicyKind::ALL`] order.
    pub fn add_all_policies(&mut self, scenario: Scenario) -> &mut Self {
        for kind in PolicyKind::ALL {
            self.add(scenario.clone(), kind);
        }
        self
    }

    /// Schedule the full cross product `scenarios × kinds`,
    /// scenario-major.
    pub fn add_grid(
        &mut self,
        scenarios: impl IntoIterator<Item = Scenario>,
        kinds: &[PolicyKind],
    ) -> &mut Self {
        for sc in scenarios {
            for &kind in kinds {
                self.add(sc.clone(), kind);
            }
        }
        self
    }

    /// Builder-style [`Campaign::add`].
    pub fn with_run(mut self, scenario: Scenario, kind: PolicyKind) -> Self {
        self.add(scenario, kind);
        self
    }

    /// Builder-style [`Campaign::add_all_policies`].
    pub fn with_all_policies(mut self, scenario: Scenario) -> Self {
        self.add_all_policies(scenario);
        self
    }

    /// Builder-style [`Campaign::add_grid`].
    pub fn with_grid(
        mut self,
        scenarios: impl IntoIterator<Item = Scenario>,
        kinds: &[PolicyKind],
    ) -> Self {
        self.add_grid(scenarios, kinds);
        self
    }

    pub fn entries(&self) -> &[CampaignEntry] {
        &self.entries
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Execute every scheduled run under the configured pool; results in
    /// input order, bit-identical to [`Campaign::run_sequential`] (see
    /// the module docs for the contract).
    pub fn run(&self) -> Vec<CampaignResult> {
        self.run_with(self.exec)
    }

    /// Execute on the calling thread, one run at a time.
    pub fn run_sequential(&self) -> Vec<CampaignResult> {
        self.run_with(ExecConfig::sequential())
    }

    /// Execute under an explicit execution configuration, ignoring the
    /// campaign's own.
    pub fn run_with(&self, exec: ExecConfig) -> Vec<CampaignResult> {
        let outputs = sweep_parallel(&self.entries, exec, |e| {
            run_policy_with(&e.scenario, e.kind, &e.overrides)
        });
        self.entries
            .iter()
            .zip(outputs)
            .map(|(e, output)| CampaignResult {
                label: e.label.clone(),
                kind: e.kind,
                seed: e.scenario.seed,
                output,
            })
            .collect()
    }
}

/// 64-bit FNV-1a determinism digest of everything a run deterministically
/// computes: recorder samples and events, the §VII summary, and the
/// telemetry snapshot *minus* wall-clock span histograms (`*.ns`), which
/// measure elapsed time and legitimately vary between executions.
///
/// Two runs of the same scenario/policy — sequential or parallel, on any
/// thread — must produce equal digests; `bench_engine --check` and
/// `tests/parallel.rs` enforce this.
///
/// Composed from [`digest_sample`], which the recorder folds once per
/// sample at push time, followed by [`digest_run_tail`]. Retention does
/// not enter into it, so streaming and full-retention digests are equal
/// by construction.
pub fn run_digest(out: &RunOutput) -> u64 {
    let mut h = out.recorder.sample_digest();
    digest_run_tail(&mut h, out.recorder.events(), &out.summary, &out.metrics);
    h.finish()
}

/// Fold one recorder [`Sample`](crate::recorder::Sample) into `h` — the
/// per-sample section of [`run_digest`], run by the recorder at push
/// time.
pub fn digest_sample(h: &mut DigestBuilder, s: &crate::recorder::Sample) {
    h.f64(s.t.0);
    h.f64(s.p_total.0);
    h.f64(s.p_measured.0);
    h.f64(s.p_server.0);
    h.f64(s.p_fan.0);
    h.f64(s.cb_power.0);
    h.f64(s.ups_power.0);
    h.f64(s.shortfall.0);
    h.bool(s.tripped);
    h.bool(s.breaker_closed);
    h.f64(s.breaker_margin);
    h.f64(s.ups_soc);
    h.opt_f64(s.p_cb_target.map(|w| w.0));
    h.opt_f64(s.p_batch_target.map(|w| w.0));
    h.f64(s.mean_freq_interactive);
    h.f64(s.mean_freq_batch);
    h.f64(s.interactive_backlog);
    // Open-loop queue observation: contributes bytes only when
    // present, so closed-loop runs keep their pre-redesign digests
    // bit-exactly (no None marker is hashed).
    if let Some(q) = s.queue {
        h.f64(q.depth);
        h.f64(q.p50_s);
        h.f64(q.p95_s);
        h.f64(q.p99_s);
        h.f64(q.arrived);
        h.f64(q.completed);
        h.f64(q.dropped);
    }
    h.str(s.mode_label.as_str());
}

/// Fold everything [`run_digest`] hashes *after* the samples: the event
/// log, the §VII summary, and the telemetry snapshot (minus `*.ns`
/// wall-clock histograms). Call after the last [`digest_sample`].
pub fn digest_run_tail(
    h: &mut DigestBuilder,
    events: &[(powersim::units::Seconds, crate::recorder::SimEvent)],
    summary: &RunSummary,
    metrics: &telemetry::MetricsSnapshot,
) {
    for (t, e) in events {
        h.f64(t.0);
        h.str(&format!("{e:?}"));
    }
    let s = summary;
    h.str(&s.policy);
    h.f64(s.avg_freq_interactive);
    h.f64(s.avg_freq_batch);
    h.u64(s.trips as u64);
    h.bool(s.shutdown);
    h.opt_f64(s.shutdown_at.map(|t| t.0));
    h.f64(s.ups_energy_wh);
    h.f64(s.dod);
    h.f64(s.max_dod);
    h.u64(s.deadlines_met as u64);
    h.u64(s.deadlines_total as u64);
    h.f64(s.normalized_time_use);
    h.f64(s.service_ratio);
    h.f64(s.cb_energy_wh);
    // Same conditional-hash rule as Sample.queue above.
    if let Some(t) = s.open_loop {
        h.f64(t.p50_s);
        h.f64(t.p95_s);
        h.f64(t.p99_s);
        h.f64(t.max_s);
        h.f64(t.arrived);
        h.f64(t.completed);
        h.f64(t.dropped);
        h.f64(t.drop_fraction);
    }
    let m = metrics;
    for (name, v) in &m.counters {
        h.str(name);
        h.u64(*v);
    }
    for (name, v) in &m.gauges {
        h.str(name);
        h.f64(*v);
    }
    for (name, hist) in &m.histograms {
        if name.ends_with(".ns") {
            continue; // wall-clock spans: not part of the contract
        }
        h.str(name);
        for (bound, count) in &hist.buckets {
            h.f64(*bound);
            h.u64(*count);
        }
        h.u64(hist.overflow);
        h.u64(hist.count);
        h.f64(hist.sum);
    }
}

/// Order-sensitive FNV-1a combiner for composite digests.
///
/// The datacenter engine folds per-rack [`run_digest`] values plus the
/// market-round grants and aggregate breaker outcomes into one
/// deterministic digest; anything else that needs to hash structured
/// results with the same bit-exact f64 semantics can reuse it.
///
/// `Clone` snapshots the accumulator state, which is how the recorder
/// hands its incremental sample fold to [`run_digest`] while remaining
/// usable itself.
#[derive(Debug, Clone)]
pub struct DigestBuilder(Fnv);

impl Default for DigestBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl DigestBuilder {
    pub fn new() -> Self {
        DigestBuilder(Fnv::new())
    }

    pub fn u64(&mut self, v: u64) {
        self.0.u64(v);
    }

    /// Hash the exact bit pattern of `v` (distinguishes `-0.0`/`0.0`,
    /// NaN payloads — matching [`run_digest`]'s semantics).
    pub fn f64(&mut self, v: f64) {
        self.0.f64(v);
    }

    pub fn bool(&mut self, v: bool) {
        self.0.bool(v);
    }

    /// Hash `Some(v)`/`None` with an explicit presence marker byte
    /// (matching [`run_digest`]'s treatment of optional targets).
    pub fn opt_f64(&mut self, v: Option<f64>) {
        self.0.opt_f64(v);
    }

    pub fn str(&mut self, s: &str) {
        self.0.str(s);
    }

    pub fn finish(&self) -> u64 {
        self.0.finish()
    }
}

/// Minimal FNV-1a accumulator (no std `Hasher` detour: f64 hashing must
/// be explicit about bit patterns).
#[derive(Debug, Clone)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf29ce484222325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            Some(v) => {
                self.bytes(&[1]);
                self.f64(v);
            }
            None => self.bytes(&[0]),
        }
    }

    fn bool(&mut self, v: bool) {
        self.bytes(&[v as u8]);
    }

    fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(&[0xff]); // delimiter: "ab","c" != "a","bc"
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::run_policy;
    use powersim::units::Seconds;

    fn quick_scenario(seed: u64) -> Scenario {
        let mut sc = Scenario::paper_default(seed);
        sc.duration = Seconds(20.0);
        sc
    }

    #[test]
    fn campaign_runs_in_input_order_with_auto_labels() {
        let mut c = Campaign::new();
        c.add(quick_scenario(1), PolicyKind::Sgct);
        c.add(quick_scenario(2), PolicyKind::SprintCon);
        let results = c.run_with(ExecConfig::jobs(2));
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].label, "SGCT@seed1");
        assert_eq!(results[1].label, "SprintCon@seed2");
        assert_eq!(results[0].seed, 1);
        assert_eq!(results[1].kind, PolicyKind::SprintCon);
    }

    #[test]
    fn parallel_digests_match_sequential() {
        let c = Campaign::new()
            .with_all_policies(quick_scenario(5))
            .with_exec(ExecConfig::jobs(4));
        let par = c.run();
        let seq = c.run_sequential();
        assert_eq!(par.len(), seq.len());
        for (p, s) in par.iter().zip(&seq) {
            assert_eq!(p.digest(), s.digest(), "{} diverged", p.label);
        }
    }

    #[test]
    fn digest_distinguishes_different_runs() {
        let a = run_policy(&quick_scenario(5), PolicyKind::SprintCon);
        let b = run_policy(&quick_scenario(6), PolicyKind::SprintCon);
        assert_ne!(run_digest(&a), run_digest(&b));
        // And is reproducible for the same run.
        let a2 = run_policy(&quick_scenario(5), PolicyKind::SprintCon);
        assert_eq!(run_digest(&a), run_digest(&a2));
    }

    #[test]
    fn run_all_parallel_matches_run_all_order() {
        let sc = quick_scenario(3);
        let par = run_all_parallel(&sc);
        assert_eq!(par.len(), PolicyKind::ALL.len());
        for (out, kind) in par.iter().zip(PolicyKind::ALL) {
            assert_eq!(out.summary.policy, kind.name());
        }
    }

    #[test]
    fn grid_is_scenario_major() {
        let kinds = [PolicyKind::SprintCon, PolicyKind::Sgct];
        let c = Campaign::new().with_grid([quick_scenario(1), quick_scenario(2)], &kinds);
        let labels: Vec<&str> = c.entries().iter().map(|e| e.label.as_str()).collect();
        assert_eq!(
            labels,
            [
                "SprintCon@seed1",
                "SGCT@seed1",
                "SprintCon@seed2",
                "SGCT@seed2"
            ]
        );
    }

    #[test]
    fn exec_config_resolves_widths() {
        assert_eq!(ExecConfig::sequential().resolved_jobs(), 1);
        assert_eq!(ExecConfig::jobs(3).resolved_jobs(), 3);
        assert!(ExecConfig::parallel().resolved_jobs() >= 1);
    }

    #[test]
    fn sweep_parallel_preserves_order() {
        let params: Vec<u64> = (0..23).collect();
        let out = sweep_parallel(&params, ExecConfig::jobs(4), |p| p * 7);
        assert_eq!(out, (0..23).map(|p| p * 7).collect::<Vec<_>>());
        let empty: Vec<u64> = Vec::new();
        assert!(sweep_parallel(&empty, ExecConfig::parallel(), |p| *p).is_empty());
    }

    #[test]
    fn chunk_bounds_tile_the_input() {
        for len in 0..12 {
            for width in 1..6 {
                let mut next = 0;
                for w in 0..width {
                    let r = chunk_bounds(len, width, w);
                    assert_eq!(r.start, next, "len {len} width {width} worker {w}");
                    next = r.end;
                }
                assert_eq!(next, len, "len {len} width {width}");
            }
        }
    }
}
