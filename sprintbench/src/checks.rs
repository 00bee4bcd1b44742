//! Correctness checks on the simulator's outputs. Each returns the
//! reason a check failed, so the caller can count the op as failed and
//! say why.

use simkit::{DcRunOutput, RunOutput, RunSummary, Sample};

/// Relative slack for floating-point sums compared against budgets.
const BUDGET_EPS: f64 = 1e-9;

fn all_finite(values: &[f64]) -> bool {
    values.iter().all(|v| v.is_finite())
}

/// Every numeric field of a retained sample is finite, except the
/// monitor reading `p_measured`, which the simulator sets to NaN while a
/// monitor-dropout fault is active (the monitor returns no sample).
fn sample_finite_but_measurement(s: &Sample) -> bool {
    let opt = |w: Option<powersim::units::Watts>| w.map_or(0.0, |w| w.0);
    let queue_ok = s.queue.is_none_or(|q| {
        all_finite(&[
            q.depth,
            q.p50_s,
            q.p95_s,
            q.p99_s,
            q.arrived,
            q.completed,
            q.dropped,
        ])
    });
    queue_ok
        && all_finite(&[
            s.t.0,
            s.p_total.0,
            s.p_server.0,
            s.p_fan.0,
            s.cb_power.0,
            s.ups_power.0,
            s.shortfall.0,
            s.breaker_margin,
            s.ups_soc,
            opt(s.p_cb_target),
            opt(s.p_batch_target),
            s.mean_freq_interactive,
            s.mean_freq_batch,
            s.interactive_backlog,
        ])
}

/// Every retained sample of the run is finite, and `p_measured` is
/// non-finite on exactly as many ticks as the run's
/// `fault_active.monitor_dropout` counter says the monitor was out.
pub fn samples_finite(out: &RunOutput) -> Result<(), String> {
    let samples = out.recorder.samples();
    if let Some(i) = samples
        .iter()
        .position(|s| !sample_finite_but_measurement(s))
    {
        return Err(format!("sample {i} has a non-finite field"));
    }
    let blind = samples
        .iter()
        .filter(|s| !s.p_measured.0.is_finite())
        .count() as u64;
    let dropouts = if samples.is_empty() {
        0
    } else {
        out.metrics.counter("fault_active.monitor_dropout")
    };
    if blind != dropouts {
        return Err(format!(
            "{blind} samples have a non-finite measurement, but the monitor was out on {dropouts} ticks"
        ));
    }
    Ok(())
}

/// Every numeric field of a run summary is finite.
pub fn summary_finite(s: &RunSummary) -> bool {
    all_finite(&[
        s.avg_freq_interactive,
        s.avg_freq_batch,
        s.ups_energy_wh,
        s.dod,
        s.max_dod,
        s.normalized_time_use,
        s.service_ratio,
        s.cb_energy_wh,
    ])
}

/// The run's retained samples and summary are finite, and the recording
/// holds `ticks` samples.
pub fn run_ok(out: &RunOutput, ticks: usize) -> Result<(), String> {
    if out.recorder.len() != ticks {
        return Err(format!(
            "recorded {} samples, expected {ticks}",
            out.recorder.len()
        ));
    }
    samples_finite(out)?;
    if !summary_finite(&out.summary) {
        return Err("summary has a non-finite field".into());
    }
    Ok(())
}

/// Open-loop request conservation over the whole run:
/// `arrived = completed + dropped + queued`, where the queue left at the
/// end is the last tick's mean depth per server × servers.
pub fn requests_conserved(out: &RunOutput, num_servers: usize) -> Result<(), String> {
    let tail = out
        .summary
        .open_loop
        .ok_or("open-loop run has no tail summary")?;
    let last = out
        .recorder
        .samples()
        .last()
        .and_then(|s| s.queue)
        .ok_or("open-loop run has no queue observation")?;
    let queued = last.depth * num_servers as f64;
    let rhs = tail.completed + tail.dropped + queued;
    if (tail.arrived - rhs).abs() > 1e-6 * tail.arrived.max(1.0) {
        return Err(format!(
            "requests not conserved: arrived {} vs completed {} + dropped {} + queued {queued}",
            tail.arrived, tail.completed, tail.dropped
        ));
    }
    Ok(())
}

/// Σ grants ≤ budget at every PDU and at the feeder in every market
/// round. Returns the racks under each violating edge (every rack for
/// a feeder violation), each with the reason.
pub fn market_violations(out: &DcRunOutput) -> Vec<(usize, String)> {
    let mut bad = Vec::new();
    let num_pdus = out.pdu_caps.len();
    let mut pdu_sums = vec![0.0f64; num_pdus];
    for (i, round) in out.rounds.iter().enumerate() {
        let total = out.round_total(i).0;
        if total > round.budget.0 * (1.0 + BUDGET_EPS) + BUDGET_EPS {
            let why = format!(
                "round {}: feeder grants {total} W over budget {}",
                round.epoch, round.budget
            );
            bad.extend((0..out.pdu_of.len()).map(|r| (r, why.clone())));
            continue;
        }
        pdu_sums.fill(0.0);
        for (g, &p) in round.grants.iter().zip(&out.pdu_of) {
            pdu_sums[p] += g.0;
        }
        for (p, (&sum, cap)) in pdu_sums.iter().zip(&out.pdu_caps).enumerate() {
            if sum > cap.0 * (1.0 + BUDGET_EPS) + BUDGET_EPS {
                let why = format!(
                    "round {}: PDU {p} grants {sum} W over cap {cap}",
                    round.epoch
                );
                bad.extend(
                    out.pdu_of
                        .iter()
                        .enumerate()
                        .filter(|&(_, &q)| q == p)
                        .map(|(r, _)| (r, why.clone())),
                );
            }
        }
    }
    bad
}

/// Indices at which two digest lists differ; every index when their
/// lengths differ.
pub fn digest_mismatches(a: &[u64], b: &[u64]) -> Vec<usize> {
    if a.len() != b.len() {
        return (0..a.len().max(b.len())).collect();
    }
    (0..a.len()).filter(|&i| a[i] != b[i]).collect()
}
