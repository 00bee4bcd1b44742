//! Time-series recording of simulation runs, with CSV export and
//! column-wise extraction for the figure harness.
//!
//! Every [`Recorder::push`] folds the [`Sample`] into an incremental FNV
//! digest (the per-sample section of [`run_digest`]) and into the
//! handful of running aggregates the §VII summary reads
//! ([`Recorder::ups_energy_wh`] & friends). That fold is the only path
//! to the digest and the summary, and it is exact at any point of a run.
//!
//! Retention is a sample sink on top of the fold:
//!
//! * **Full** ([`Recorder::with_capacity`], the default) also keeps
//!   every sample — what the figure harness, CSV export and column
//!   extraction consume. Memory is O(ticks).
//! * **Streaming** ([`Recorder::streaming`]) keeps none: the datacenter
//!   engine's 10k-rack floors, where whole-run retention at every rack
//!   is the memory ceiling.
//!
//! Both modes run the same fold, so their digests and summaries are
//! equal by construction. Events and the open-loop tail summary are kept
//! in both modes (both are bounded and both feed the digest tail).
//!
//! [`run_digest`]: crate::exec::run_digest

use crate::exec::DigestBuilder;
use crate::mode::ModeLabel;
use powersim::units::{Seconds, Watts};
use std::io::Write;
use std::path::Path;
use workloads::open_loop::{QueueObservation, TailSummary};
use workloads::trace::Trace;

/// One control period's worth of observations.
#[derive(Debug, Clone)]
pub struct Sample {
    pub t: Seconds,
    /// True total rack power (servers + fans).
    pub p_total: Watts,
    /// What the (noisy) monitor reported.
    pub p_measured: Watts,
    pub p_server: Watts,
    pub p_fan: Watts,
    /// Power delivered through the breaker.
    pub cb_power: Watts,
    /// Power delivered by the UPS.
    pub ups_power: Watts,
    /// Unserved demand (brownout indicator).
    pub shortfall: Watts,
    /// The breaker tripped during this period.
    pub tripped: bool,
    pub breaker_closed: bool,
    pub breaker_margin: f64,
    pub ups_soc: f64,
    /// Policy-published breaker budget (Fig. 5/6's "CB budget" curve).
    pub p_cb_target: Option<Watts>,
    /// Policy-published batch budget.
    pub p_batch_target: Option<Watts>,
    /// Mean normalized frequency of interactive cores (0 when down).
    pub mean_freq_interactive: f64,
    /// Mean normalized frequency of batch cores (0 when down).
    pub mean_freq_batch: f64,
    /// Mean queued interactive backlog (peak-core-seconds per core).
    pub interactive_backlog: f64,
    /// Open-loop queue observation for this tick; `None` on the
    /// closed-loop path (and then contributes nothing to run digests).
    pub queue: Option<QueueObservation>,
    pub mode_label: ModeLabel,
}

/// A discrete event worth indexing a run by.
#[derive(Debug, Clone, PartialEq)]
pub enum SimEvent {
    /// The breaker tripped open.
    BreakerTripped,
    /// The breaker re-closed after its delay.
    BreakerReclosed,
    /// The rack browned out (unserved demand) and shut down.
    Brownout,
    /// The policy's internal mode changed (label = new mode).
    ModeChange(ModeLabel),
    /// A batch job completed its first run.
    JobCompleted { core: usize },
}

/// The running aggregates the §VII summary reads, accumulated in push
/// order (`+=` from a zero accumulator is a left fold).
#[derive(Debug, Clone, Copy, Default)]
struct Totals {
    n: usize,
    sum_freq_interactive: f64,
    sum_freq_batch: f64,
    ups_energy_wh: f64,
    cb_energy_wh: f64,
    trip_count: usize,
    first_shortfall: Option<Seconds>,
}

impl Totals {
    fn add(&mut self, s: &Sample, dt: Seconds) {
        self.n += 1;
        self.sum_freq_interactive += s.mean_freq_interactive;
        self.sum_freq_batch += s.mean_freq_batch;
        self.ups_energy_wh += s.ups_power.over(dt).0;
        self.cb_energy_wh += s.cb_power.over(dt).0;
        if s.tripped {
            self.trip_count += 1;
        }
        if self.first_shortfall.is_none() && s.shortfall.0 > 1.0 {
            self.first_shortfall = Some(s.t);
        }
    }
}

/// Everything the digest and the summary need from the samples, folded
/// at push time.
#[derive(Debug, Clone, Default)]
struct Fold {
    /// The per-sample section of [`crate::exec::run_digest`], in push
    /// order.
    digest: DigestBuilder,
    /// The period, `t1 − t0` of the first two samples; `None` until the
    /// second push (readers fall back to 1 s).
    dt: Option<Seconds>,
    /// The first sample, held until the second push fixes `dt`.
    pending: Option<Sample>,
    totals: Totals,
}

impl Fold {
    fn push(&mut self, s: &Sample) {
        crate::exec::digest_sample(&mut self.digest, s);
        match (self.dt, self.pending.take()) {
            (Some(dt), _) => self.totals.add(s, dt),
            (None, None) => self.pending = Some(s.clone()),
            (None, Some(first)) => {
                let dt = Seconds(s.t.0 - first.t.0);
                self.dt = Some(dt);
                self.totals.add(&first, dt);
                self.totals.add(s, dt);
            }
        }
    }

    /// The totals as of now, a still-pending first sample included at
    /// the 1 s fallback `dt` — so every accessor is exact mid-run.
    fn totals(&self) -> Totals {
        let mut t = self.totals;
        if let Some(first) = &self.pending {
            t.add(first, Seconds(1.0));
        }
        t
    }
}

/// An append-only recording of one run.
#[derive(Debug, Clone)]
pub struct Recorder {
    /// Whether pushed samples are kept in `samples` (full retention).
    retain: bool,
    samples: Vec<Sample>,
    events: Vec<(Seconds, SimEvent)>,
    /// Whole-run request-latency tail summary (open-loop runs only);
    /// overwritten each tick with the cumulative sketch state.
    tail: Option<TailSummary>,
    fold: Fold,
}

impl Default for Recorder {
    /// Full retention.
    fn default() -> Self {
        Recorder::with_capacity(0)
    }
}

impl Recorder {
    /// A full-retention recorder, room for `n` samples.
    pub fn with_capacity(n: usize) -> Self {
        Recorder {
            retain: true,
            samples: Vec::with_capacity(n),
            events: Vec::new(),
            tail: None,
            fold: Fold::default(),
        }
    }

    /// A streaming recorder: samples are folded, not retained — see the
    /// module docs. [`Recorder::samples`] stays empty; the aggregate
    /// accessors and the digest are unaffected.
    pub fn streaming() -> Self {
        Recorder {
            retain: false,
            ..Recorder::with_capacity(0)
        }
    }

    /// A snapshot of the per-sample digest fold — the state
    /// [`crate::exec::run_digest`] finishes with
    /// [`crate::exec::digest_run_tail`].
    pub(crate) fn sample_digest(&self) -> DigestBuilder {
        self.fold.digest.clone()
    }

    /// Record the run-level request tail summary (open-loop runs).
    pub fn set_tail(&mut self, tail: TailSummary) {
        self.tail = Some(tail);
    }

    /// The run-level request tail summary, if this was an open-loop run.
    pub fn tail(&self) -> Option<TailSummary> {
        self.tail
    }

    pub fn push(&mut self, s: Sample) {
        self.fold.push(&s);
        if self.retain {
            self.samples.push(s);
        }
    }

    /// Record a discrete event at time `t`.
    pub fn push_event(&mut self, t: Seconds, e: SimEvent) {
        self.events.push((t, e));
    }

    /// All recorded events, in order.
    pub fn events(&self) -> &[(Seconds, SimEvent)] {
        &self.events
    }

    /// Events matching a predicate.
    pub fn events_where<'a>(
        &'a self,
        pred: impl Fn(&SimEvent) -> bool + 'a,
    ) -> impl Iterator<Item = &'a (Seconds, SimEvent)> + 'a {
        self.events.iter().filter(move |(_, e)| pred(e))
    }

    /// Samples pushed so far, retained or not.
    pub fn len(&self) -> usize {
        self.fold.totals().n
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The retained samples. Empty in streaming mode (which is the
    /// point) — consumers that need trajectories (CSV export, column
    /// extraction, figure harness) require full retention.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    fn dt(&self) -> Seconds {
        self.fold.dt.unwrap_or(Seconds(1.0))
    }

    /// Extract a column as a [`Trace`].
    pub fn column(&self, f: impl Fn(&Sample) -> f64) -> Trace {
        Trace::new(self.dt(), self.samples.iter().map(f).collect())
    }

    /// Total energy delivered by the UPS over the run, Wh.
    pub fn ups_energy_wh(&self) -> f64 {
        self.fold.totals().ups_energy_wh
    }

    /// Total energy through the breaker, Wh.
    pub fn cb_energy_wh(&self) -> f64 {
        self.fold.totals().cb_energy_wh
    }

    /// Number of breaker trips.
    pub fn trip_count(&self) -> usize {
        self.fold.totals().trip_count
    }

    /// First time the rack browned out, if ever.
    pub fn first_shortfall(&self) -> Option<Seconds> {
        self.fold.totals().first_shortfall
    }

    /// Mean interactive frequency over the whole run (zeros included).
    pub fn avg_freq_interactive(&self) -> f64 {
        let t = self.fold.totals();
        mean_of(t.sum_freq_interactive, t.n)
    }

    /// Mean batch frequency over the whole run (zeros included).
    pub fn avg_freq_batch(&self) -> f64 {
        let t = self.fold.totals();
        mean_of(t.sum_freq_batch, t.n)
    }

    /// Write the full recording as CSV.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "t_s,p_total_w,p_measured_w,p_server_w,p_fan_w,cb_power_w,ups_power_w,\
             shortfall_w,tripped,breaker_closed,breaker_margin,ups_soc,p_cb_target_w,\
             p_batch_target_w,freq_interactive,freq_batch,backlog,queue_depth,queue_p99_s,\
             queue_dropped,mode"
        )?;
        for s in &self.samples {
            writeln!(
                out,
                "{:.1},{:.1},{:.1},{:.1},{:.1},{:.1},{:.1},{:.1},{},{},{:.4},{:.4},{},{},{:.4},{:.4},{:.4},{},{},{},{}",
                s.t.0,
                s.p_total.0,
                s.p_measured.0,
                s.p_server.0,
                s.p_fan.0,
                s.cb_power.0,
                s.ups_power.0,
                s.shortfall.0,
                s.tripped as u8,
                s.breaker_closed as u8,
                s.breaker_margin,
                s.ups_soc,
                s.p_cb_target.map_or(String::from(""), |w| format!("{:.1}", w.0)),
                s.p_batch_target.map_or(String::from(""), |w| format!("{:.1}", w.0)),
                s.mean_freq_interactive,
                s.mean_freq_batch,
                s.interactive_backlog,
                s.queue.map_or(String::new(), |q| format!("{:.3}", q.depth)),
                s.queue.map_or(String::new(), |q| format!("{:.6}", q.p99_s)),
                s.queue.map_or(String::new(), |q| format!("{:.3}", q.dropped)),
                s.mode_label,
            )?;
        }
        Ok(())
    }
}

fn mean_of(sum: f64, n: usize) -> f64 {
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(t: f64, ups: f64, cb: f64) -> Sample {
        Sample {
            t: Seconds(t),
            p_total: Watts(cb + ups),
            p_measured: Watts(cb + ups),
            p_server: Watts(cb + ups - 50.0),
            p_fan: Watts(50.0),
            cb_power: Watts(cb),
            ups_power: Watts(ups),
            shortfall: Watts::ZERO,
            tripped: false,
            breaker_closed: true,
            breaker_margin: 0.1,
            ups_soc: 0.9,
            p_cb_target: Some(Watts(4000.0)),
            p_batch_target: None,
            mean_freq_interactive: 1.0,
            mean_freq_batch: 0.6,
            interactive_backlog: 0.0,
            queue: None,
            mode_label: ModeLabel::Sprint,
        }
    }

    #[test]
    fn energy_accounting() {
        let mut r = Recorder::default();
        // 600 s at 600 W UPS → 100 Wh.
        for k in 0..600 {
            r.push(sample(k as f64, 600.0, 3200.0));
        }
        assert!((r.ups_energy_wh() - 100.0).abs() < 1e-9);
        assert!((r.cb_energy_wh() - 3200.0 * 600.0 / 3600.0).abs() < 1e-9);
    }

    #[test]
    fn column_extraction() {
        let mut r = Recorder::default();
        for k in 0..10 {
            r.push(sample(k as f64 * 2.0, 100.0, 3000.0));
        }
        let col = r.column(|s| s.ups_power.0);
        assert_eq!(col.len(), 10);
        assert_eq!(col.dt, Seconds(2.0));
        assert_eq!(col.mean(), 100.0);
    }

    #[test]
    fn averages_and_counters() {
        let mut r = Recorder::default();
        let mut s1 = sample(0.0, 0.0, 4000.0);
        s1.tripped = true;
        r.push(s1);
        let mut s2 = sample(1.0, 0.0, 0.0);
        s2.mean_freq_interactive = 0.0;
        s2.mean_freq_batch = 0.0;
        s2.shortfall = Watts(500.0);
        r.push(s2);
        assert_eq!(r.trip_count(), 1);
        assert_eq!(r.first_shortfall(), Some(Seconds(1.0)));
        assert!((r.avg_freq_interactive() - 0.5).abs() < 1e-12);
        assert!((r.avg_freq_batch() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn csv_round_trip_shape() {
        let mut r = Recorder::default();
        for k in 0..5 {
            r.push(sample(k as f64, 10.0, 3000.0));
        }
        let dir = std::env::temp_dir().join("sprintcon_test_csv");
        let path = dir.join("rec.csv");
        r.write_csv(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 6); // header + 5 rows
        assert!(lines[0].starts_with("t_s,"));
        assert_eq!(lines[0].split(',').count(), 21);
        assert_eq!(lines[1].split(',').count(), 21);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The named oracle: the sample digest and the §VII aggregates
    /// recomputed from retained samples after the run.
    fn assert_matches_samples(r: &Recorder, samples: &[Sample]) {
        let dt = if samples.len() >= 2 {
            Seconds(samples[1].t.0 - samples[0].t.0)
        } else {
            Seconds(1.0)
        };
        let mut h = crate::exec::DigestBuilder::new();
        for s in samples {
            crate::exec::digest_sample(&mut h, s);
        }
        let mean = |f: fn(&Sample) -> f64| {
            let sum = samples.iter().fold(0.0, |a, s| a + f(s));
            mean_of(sum, samples.len())
        };
        let ups: f64 = samples.iter().map(|s| s.ups_power.over(dt).0).sum();
        let cb: f64 = samples.iter().map(|s| s.cb_power.over(dt).0).sum();
        let shortfall = samples.iter().find(|s| s.shortfall.0 > 1.0).map(|s| s.t);
        assert_eq!(r.sample_digest().finish(), h.finish());
        assert_eq!(r.len(), samples.len());
        assert_eq!(r.trip_count(), samples.iter().filter(|s| s.tripped).count());
        assert_eq!(r.first_shortfall(), shortfall);
        assert_eq!(r.ups_energy_wh().to_bits(), ups.to_bits());
        assert_eq!(r.cb_energy_wh().to_bits(), cb.to_bits());
        assert_eq!(
            r.avg_freq_interactive().to_bits(),
            mean(|s| s.mean_freq_interactive).to_bits()
        );
        assert_eq!(
            r.avg_freq_batch().to_bits(),
            mean(|s| s.mean_freq_batch).to_bits()
        );
    }

    #[test]
    fn fold_matches_retained_samples_in_both_modes() {
        let mut full = Recorder::default();
        let mut st = Recorder::streaming();
        for k in 0..50 {
            let mut s = sample(
                k as f64 * 2.0,
                100.0 + 3.7 * k as f64,
                3000.0 - 11.0 * k as f64,
            );
            s.mean_freq_interactive = 0.5 + 0.01 * k as f64;
            s.mean_freq_batch = 0.3 + 0.007 * k as f64;
            if k % 7 == 0 {
                s.tripped = true;
            }
            if k == 31 {
                s.shortfall = Watts(600.0);
            }
            full.push(s.clone());
            st.push(s);
            // Exact mid-run, not just at the end.
            assert_matches_samples(&full, full.samples());
            assert_matches_samples(&st, full.samples());
        }
        assert!(st.samples().is_empty(), "streaming retains nothing");
    }

    #[test]
    fn fold_is_exact_below_two_samples() {
        // One sample: the fallback dt is 1 s in both modes.
        let mut full = Recorder::default();
        let mut st = Recorder::streaming();
        let s = sample(5.0, 200.0, 2800.0);
        full.push(s.clone());
        st.push(s);
        assert_matches_samples(&full, full.samples());
        assert_matches_samples(&st, full.samples());
        // An empty recorder reports neutral aggregates.
        let empty = Recorder::streaming();
        assert!(empty.is_empty());
        assert_eq!(empty.avg_freq_batch(), 0.0);
        assert_eq!(empty.first_shortfall(), None);
        assert_eq!(
            empty.sample_digest().finish(),
            crate::exec::DigestBuilder::new().finish()
        );
    }

    #[test]
    fn queue_columns_fill_for_open_loop_samples() {
        let mut r = Recorder::default();
        let mut s = sample(0.0, 10.0, 3000.0);
        s.queue = Some(QueueObservation {
            depth: 12.5,
            p50_s: 0.02,
            p95_s: 0.05,
            p99_s: 0.08,
            arrived: 100.0,
            completed: 90.0,
            dropped: 2.0,
        });
        r.push(s);
        let dir = std::env::temp_dir().join("sprintcon_test_csv_queue");
        let path = dir.join("rec.csv");
        r.write_csv(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let row: Vec<&str> = text.lines().nth(1).unwrap().split(',').collect();
        assert_eq!(row[17], "12.500");
        assert_eq!(row[18], "0.080000");
        assert_eq!(row[19], "2.000");
        std::fs::remove_dir_all(&dir).ok();
    }
}
