//! Open-loop rack power estimation — the model knowledge the
//! *uncontrolled* SGCT baseline is allowed.
//!
//! SGCT plans sprint assignments against a static linear model (idle →
//! full interpolated over per-core `f·u`), with no feedback correction.
//! The model systematically *underestimates* the real plant: it knows
//! nothing about the cooling fans, and the plant's non-CPU power is
//! concave in throughput (partial loads draw disproportionately much).
//! That gap is exactly why Fig. 5 shows SGCT's actual CB power riding
//! slightly above its budget and tripping the breaker — no artificial
//! error is injected anywhere.

use powersim::cpu::CoreRole;
use powersim::rack::Rack;
use powersim::units::{NormFreq, Watts};

/// Linear idle↔full interpolation estimator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearRackEstimator {
    /// Idle power per server, W.
    pub idle_per_server: f64,
    /// Dynamic span attributed to each core at peak frequency and full
    /// utilization, W.
    pub span_per_core: f64,
}

impl LinearRackEstimator {
    /// Build from the server spec the operator would read off the
    /// datasheet (idle/full wall power, core count).
    pub fn from_spec(spec: &powersim::server::ServerSpec) -> Self {
        LinearRackEstimator {
            idle_per_server: spec.idle_watts,
            span_per_core: (spec.full_watts - spec.idle_watts) / spec.num_cores as f64,
        }
    }

    /// Estimate rack power for a candidate per-core frequency vector
    /// (rack order: server-major), using the rack's *current measured*
    /// utilizations.
    pub fn estimate(&self, rack: &Rack, freqs: &[NormFreq]) -> Watts {
        assert_eq!(freqs.len(), rack.num_cores(), "one frequency per core");
        let iv = rack.role(CoreRole::Interactive);
        let bv = rack.role(CoreRole::Batch);
        let cps = rack.cores_per_server();
        let mut total = 0.0;
        for s in 0..rack.num_servers() {
            total += self.idle_per_server;
            // Candidate freqs are in core order (interactive block first
            // within each server — the rack's core numbering).
            let base = s * cps;
            let utils = iv.server_utils(s).iter().chain(bv.server_utils(s));
            for (k, &u) in utils.enumerate() {
                let f = freqs[base + k];
                total += self.span_per_core * f.0.clamp(0.0, 1.0) * u.clamp(0.0, 1.0);
            }
        }
        Watts(total)
    }
}

/// DVFS-aware open-loop estimator — what a careful operator calibrates
/// from the CPU's published P-state power table.
///
/// Models the per-core cubic DVFS law exactly (that part *is* in the
/// datasheet) and a linear throughput term for non-CPU power, but knows
/// nothing about (a) the concavity of real non-CPU power in throughput
/// and (b) the cooling fans. Both gaps bias it *low* at sprint operating
/// points, which is the Fig. 5 trip mechanism: SGCT plans to the budget
/// and the breaker carries more.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibratedRackEstimator {
    pub idle_per_server: f64,
    /// Peak active CPU power per core, W.
    pub cpu_peak_per_core: f64,
    /// Fraction of CPU active power following `f³`.
    pub cubic_fraction: f64,
    /// Non-CPU dynamic power per server at full throughput, W (modelled
    /// as linear in mean `f·u`).
    pub noncpu_span: f64,
}

impl CalibratedRackEstimator {
    pub fn from_spec(spec: &powersim::server::ServerSpec) -> Self {
        let dynamic = spec.full_watts - spec.idle_watts;
        CalibratedRackEstimator {
            idle_per_server: spec.idle_watts,
            cpu_peak_per_core: spec.core_law.peak_active_watts,
            cubic_fraction: spec.core_law.cubic_fraction,
            noncpu_span: dynamic * spec.noncpu_fraction,
        }
    }

    /// Estimate rack power for a candidate frequency vector using the
    /// rack's measured utilizations: a full pass of a fresh
    /// [`EstimatorProbe`].
    pub fn estimate(&self, rack: &Rack, freqs: &[NormFreq]) -> Watts {
        EstimatorProbe::new(*self, rack, &mut ProbeCache::default()).reset(freqs)
    }
}

/// The oracle the *idealized* SGCT-V1/V2 variants are granted (§VI-B:
/// "ideally manage the processor frequency ... though this is not
/// feasible in practice without closed-loop control"): exact plant power
/// for a candidate frequency vector, with ideal actuation (continuous
/// frequencies clamped to `[0, 1]`, no ladder snap). A full pass of a
/// fresh [`PlantProbe`].
pub fn oracle_power(rack: &Rack, freqs: &[NormFreq]) -> Watts {
    PlantProbe::new(rack, &mut ProbeCache::default()).reset(freqs)
}

/// An incremental power model over a borrowed rack: prices candidate
/// per-core frequency vectors (rack order, server-major — core `i` is
/// `CoreId { server: i / cps, core: i % cps }`) under the rack's current
/// utilizations.
///
/// The cooperative-threshold greedy changes one core between
/// consecutive candidates, so after one [`PowerProbe::reset`] every
/// candidate is priced by [`PowerProbe::set_core`], which re-prices only
/// what that core can change. Both methods return exactly the bits a
/// full recompute of `freqs` would.
pub trait PowerProbe {
    /// Price `freqs` from scratch and cache what later calls reuse.
    fn reset(&mut self, freqs: &[NormFreq]) -> Watts;
    /// Price `freqs`, which differs from the vector of the previous
    /// call only at core `i`.
    fn set_core(&mut self, freqs: &[NormFreq], i: usize) -> Watts;
}

/// The caller-owned buffers of a probe, kept across ticks so pricing
/// allocates nothing once they have grown to the rack's size. A probe
/// overwrites them on [`PowerProbe::reset`].
#[derive(Debug, Clone, Default)]
pub struct ProbeCache {
    /// Per server: plant power ([`PlantProbe`]) or non-CPU term
    /// ([`EstimatorProbe`]).
    servers: Vec<f64>,
    /// Per core: CPU term ([`EstimatorProbe`]).
    cores: Vec<f64>,
    /// Running sum before each server, then the total
    /// ([`EstimatorProbe`]).
    prefix: Vec<f64>,
}

/// [`oracle_power`] as a probe: caches each server's plant power and
/// re-prices only the changed core's server. The total is folded over
/// the cached servers in server order from `0.0` — the order of
/// [`Rack::power`] — so every candidate is bit-identical to a full
/// recompute.
#[derive(Debug)]
pub struct PlantProbe<'a> {
    rack: &'a Rack,
    cache: &'a mut ProbeCache,
}

impl<'a> PlantProbe<'a> {
    pub fn new(rack: &'a Rack, cache: &'a mut ProbeCache) -> Self {
        PlantProbe { rack, cache }
    }

    fn server_power(&self, freqs: &[NormFreq], s: usize) -> f64 {
        let cps = self.rack.cores_per_server();
        let row = &freqs[s * cps..(s + 1) * cps];
        self.rack
            .server_power_with(s, row.iter().map(|f| f.0.clamp(0.0, 1.0)))
    }

    fn total(&self) -> Watts {
        let mut total = 0.0;
        for &p in &self.cache.servers {
            total += p;
        }
        Watts(total)
    }
}

impl PowerProbe for PlantProbe<'_> {
    fn reset(&mut self, freqs: &[NormFreq]) -> Watts {
        assert_eq!(freqs.len(), self.rack.num_cores(), "one frequency per core");
        self.cache.servers.clear();
        for s in 0..self.rack.num_servers() {
            let p = self.server_power(freqs, s);
            self.cache.servers.push(p);
        }
        self.total()
    }

    fn set_core(&mut self, freqs: &[NormFreq], i: usize) -> Watts {
        let s = i / self.rack.cores_per_server();
        self.cache.servers[s] = self.server_power(freqs, s);
        self.total()
    }
}

/// [`CalibratedRackEstimator::estimate`] as a probe. The estimate is one
/// running sum over every server's idle power, its cores' CPU terms and
/// its non-CPU term, in rack order. The probe caches those terms and the
/// running sum at every server boundary; a changed core re-prices its
/// server's terms and replays the sum from that server onward — the same
/// additions in the same order as a full pass, hence the same bits.
#[derive(Debug)]
pub struct EstimatorProbe<'a> {
    est: CalibratedRackEstimator,
    rack: &'a Rack,
    cache: &'a mut ProbeCache,
}

impl<'a> EstimatorProbe<'a> {
    pub fn new(est: CalibratedRackEstimator, rack: &'a Rack, cache: &'a mut ProbeCache) -> Self {
        EstimatorProbe { est, rack, cache }
    }

    /// Price server `s`'s CPU and non-CPU terms.
    fn price_server(&mut self, freqs: &[NormFreq], s: usize) {
        let e = &self.est;
        let cps = self.rack.cores_per_server();
        let utils = self
            .rack
            .role(CoreRole::Interactive)
            .server_utils(s)
            .iter()
            .chain(self.rack.role(CoreRole::Batch).server_utils(s));
        let row = freqs[s * cps..(s + 1) * cps].iter().zip(utils);
        let mut tp = 0.0;
        for (term, (f, &util)) in self.cache.cores[s * cps..(s + 1) * cps].iter_mut().zip(row) {
            let f = f.0.clamp(0.0, 1.0);
            let u = util.clamp(0.0, 1.0);
            let shape = e.cubic_fraction * f.powi(3) + (1.0 - e.cubic_fraction) * f;
            *term = e.cpu_peak_per_core * shape * u;
            tp += f * u;
        }
        // Linear (not concave) non-CPU model: the calibration error.
        self.cache.servers[s] = e.noncpu_span * (tp / cps as f64);
    }

    fn replay_from(&mut self, first: usize) -> Watts {
        let cps = self.rack.cores_per_server();
        let c = &mut *self.cache;
        let mut total = c.prefix[first];
        for s in first..self.rack.num_servers() {
            total += self.est.idle_per_server;
            for &term in &c.cores[s * cps..(s + 1) * cps] {
                total += term;
            }
            total += c.servers[s];
            c.prefix[s + 1] = total;
        }
        Watts(total)
    }
}

impl PowerProbe for EstimatorProbe<'_> {
    fn reset(&mut self, freqs: &[NormFreq]) -> Watts {
        assert_eq!(freqs.len(), self.rack.num_cores(), "one frequency per core");
        let servers = self.rack.num_servers();
        let c = &mut *self.cache;
        c.cores.clear();
        c.cores.resize(self.rack.num_cores(), 0.0);
        c.servers.clear();
        c.servers.resize(servers, 0.0);
        c.prefix.clear();
        c.prefix.resize(servers + 1, 0.0);
        for s in 0..servers {
            self.price_server(freqs, s);
        }
        self.replay_from(0)
    }

    fn set_core(&mut self, freqs: &[NormFreq], i: usize) -> Watts {
        let s = i / self.rack.cores_per_server();
        self.price_server(freqs, s);
        self.replay_from(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powersim::cpu::CoreRole;
    use powersim::rack::CoreId;
    use powersim::server::ServerSpec;
    use powersim::units::Utilization;

    fn rack() -> Rack {
        Rack::builder()
            .server(ServerSpec::paper_default())
            .num_servers(4)
            .interactive_cores_per_server(4)
            .build()
            .expect("valid rack")
    }

    fn est() -> LinearRackEstimator {
        LinearRackEstimator::from_spec(&ServerSpec::paper_default())
    }

    #[test]
    fn endpoints_match_the_datasheet() {
        let mut rk = rack();
        let n = rk.num_servers() * 8;
        // Idle: exact.
        let idle = est().estimate(&rk, &vec![NormFreq(0.2); n]);
        assert!((idle.0 - 4.0 * 150.0).abs() < 1e-9);
        // Full: exact.
        for id in rk
            .cores_with_role(CoreRole::Interactive)
            .into_iter()
            .chain(rk.cores_with_role(CoreRole::Batch))
        {
            rk.set_util(id, Utilization::FULL);
        }
        let full = est().estimate(&rk, &vec![NormFreq(1.0); n]);
        assert!((full.0 - 4.0 * 300.0).abs() < 1e-9);
    }

    #[test]
    fn underestimates_partial_utilization_at_peak_frequency() {
        // Part of the Fig. 5 mechanism: the plant's non-CPU power is
        // concave in throughput, so at partial utilization the linear
        // estimate sits below the true plant power. (The other, larger
        // part of SGCT's blind spot — cooling-fan power — is added by the
        // simulation on top of the rack.)
        let mut rk = rack();
        for role in [CoreRole::Interactive, CoreRole::Batch] {
            for id in rk.cores_with_role(role) {
                rk.set_util(id, Utilization(0.3));
            }
        }
        let freqs = vec![NormFreq(1.0); 32];
        let estimate = est().estimate(&rk, &freqs);
        let truth = oracle_power(&rk, &freqs);
        assert!(
            truth.0 > estimate.0 * 1.01,
            "truth={truth} estimate={estimate}"
        );
    }

    #[test]
    fn overestimates_deeply_throttled_cores() {
        // The flip side: the linear model charges throttled cores f·u
        // while the real cubic DVFS law makes them much cheaper — so
        // SGCT's estimate is not uniformly biased, it is simply *wrong*
        // open-loop, which is the paper's point about needing feedback.
        let mut rk = rack();
        for role in [CoreRole::Interactive, CoreRole::Batch] {
            for id in rk.cores_with_role(role) {
                rk.set_util(id, Utilization(1.0));
            }
        }
        let freqs = vec![NormFreq(0.4); 32];
        let estimate = est().estimate(&rk, &freqs);
        let truth = oracle_power(&rk, &freqs);
        assert!(
            estimate.0 > truth.0 * 1.02,
            "estimate={estimate} truth={truth}"
        );
    }

    #[test]
    fn oracle_matches_the_plant_exactly() {
        let mut rk = rack();
        for id in rk.cores_with_role(CoreRole::Batch) {
            rk.set_util(id, Utilization(0.9));
        }
        let mut freqs = vec![NormFreq(0.5); 32];
        freqs[7] = NormFreq(0.85);
        let p = oracle_power(&rk, &freqs);
        // Apply the same frequencies for real (continuous scale needed
        // to dodge ladder quantization in the comparison).
        let mut applied = rk.clone();
        applied.set_freq_scale(powersim::cpu::FreqScale::continuous());
        for (idx, &f) in freqs.iter().enumerate() {
            let id = CoreId {
                server: idx / 8,
                core: idx % 8,
            };
            applied.set_freq(id, f);
        }
        assert!((applied.power().0 - p.0).abs() < 1e-9);
    }

    #[test]
    fn estimate_monotone_in_frequency() {
        let mut rk = rack();
        for id in rk.cores_with_role(CoreRole::Batch) {
            rk.set_util(id, Utilization(1.0));
        }
        let lo = est().estimate(&rk, &vec![NormFreq(0.3); 32]);
        let hi = est().estimate(&rk, &vec![NormFreq(0.9); 32]);
        assert!(hi.0 > lo.0);
    }
}
