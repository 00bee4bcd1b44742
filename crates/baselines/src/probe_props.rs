//! Bit-identity gates of the incremental power probes and the
//! probe-driven greedy.
//!
//! The oracles here are the full-recompute formulations the probes
//! replaced: [`oracle_power_by_clone`] (clone the rack, write every lane,
//! fold the whole plant), [`estimate_single_pass`] (one running sum over
//! every core), and the closure-driven greedy
//! [`cooperative_threshold_full_recompute`].

use crate::estimate::{
    CalibratedRackEstimator, EstimatorProbe, PlantProbe, PowerProbe, ProbeCache,
};
use crate::game::{
    cooperative_threshold, cooperative_threshold_full_recompute, rank_cores, SprintRanking,
};
use powersim::cpu::CoreRole;
use powersim::rack::{CoreId, Rack};
use powersim::server::ServerSpec;
use powersim::units::{NormFreq, Utilization, Watts};
use proptest::collection::vec;
use proptest::prelude::*;

/// Plant power of `freqs` on a clone of `rack`, every lane written with
/// ideal actuation.
fn oracle_power_by_clone(rack: &Rack, freqs: &[NormFreq]) -> Watts {
    let mut probe = rack.clone();
    let cps = probe.cores_per_server();
    for (idx, &f) in freqs.iter().enumerate() {
        let id = CoreId {
            server: idx / cps,
            core: idx % cps,
        };
        probe.set_freq_unquantized(id, f.clamp(NormFreq(0.0), NormFreq(1.0)));
    }
    probe.power()
}

/// The calibrated estimate as one running sum over every core.
fn estimate_single_pass(e: &CalibratedRackEstimator, rack: &Rack, freqs: &[NormFreq]) -> Watts {
    let iv = rack.role(CoreRole::Interactive);
    let bv = rack.role(CoreRole::Batch);
    let cps = rack.cores_per_server();
    let m = cps as f64;
    let mut total = 0.0;
    for s in 0..rack.num_servers() {
        total += e.idle_per_server;
        let mut tp = 0.0;
        let base = s * cps;
        let utils = iv.server_utils(s).iter().chain(bv.server_utils(s));
        for (k, &util) in utils.enumerate() {
            let f = freqs[base + k].0.clamp(0.0, 1.0);
            let u = util.clamp(0.0, 1.0);
            let shape = e.cubic_fraction * f.powi(3) + (1.0 - e.cubic_fraction) * f;
            total += e.cpu_peak_per_core * shape * u;
            tp += f * u;
        }
        total += e.noncpu_span * (tp / m);
    }
    Watts(total)
}

fn estimator() -> CalibratedRackEstimator {
    CalibratedRackEstimator::from_spec(&ServerSpec::paper_default())
}

/// A rack of `servers` paper servers with `ipc` interactive cores each.
/// Core `i`'s utilization is `raw[i]`, snapped by `snap[i]` to the exact
/// values 0, 1, ½ or ¼ (ties) most of the time.
fn rack(servers: usize, ipc: usize, raw: &[f64], snap: &[u8]) -> Rack {
    let mut rk = Rack::builder()
        .server(ServerSpec::paper_default())
        .num_servers(servers)
        .interactive_cores_per_server(ipc)
        .build()
        .expect("valid rack");
    let cps = rk.cores_per_server();
    for i in 0..rk.num_cores() {
        let u = match snap[i] {
            0 => 0.0,
            1 => 1.0,
            2 => 0.5,
            3 => 0.25,
            _ => raw[i],
        };
        let id = CoreId {
            server: i / cps,
            core: i % cps,
        };
        rk.set_util(id, Utilization(u));
    }
    rk
}

fn same_bits(a: &[NormFreq], b: &[NormFreq]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.0.to_bits() == y.0.to_bits())
}

const MAX_CORES: usize = 16 * 8;

/// A full-recompute power model.
type PowerFn<'a> = &'a dyn Fn(&[NormFreq]) -> Watts;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// After every step of a random single-core edit sequence, both
    /// probes return exactly the bits of a full recompute: a fresh
    /// probe's `reset` (what `oracle_power` / `estimate` are) and the
    /// formulations the probes replaced.
    #[test]
    fn probes_match_full_recompute_after_every_edit(
        servers in 1usize..=16,
        ipc in 0usize..=8,
        raw in vec(0.0f64..=1.0, MAX_CORES),
        snap in vec(0u8..8, MAX_CORES),
        start in vec(-0.2f64..1.2, MAX_CORES),
        cores in vec(0usize..MAX_CORES, 1..48),
        values in vec(-0.2f64..1.2, 48),
    ) {
        let rk = rack(servers, ipc, &raw, &snap);
        let n = rk.num_cores();
        let e = estimator();
        let mut freqs: Vec<NormFreq> = start[..n].iter().map(|&f| NormFreq(f)).collect();
        let (mut plant_cache, mut est_cache) = (ProbeCache::default(), ProbeCache::default());
        let mut plant = PlantProbe::new(&rk, &mut plant_cache);
        let mut est = EstimatorProbe::new(e, &rk, &mut est_cache);
        let (mut p, mut q) = (plant.reset(&freqs), est.reset(&freqs));
        for (step, (&c, &v)) in cores.iter().zip(&values).enumerate() {
            if step > 0 {
                let i = c % n;
                freqs[i] = NormFreq(v);
                p = plant.set_core(&freqs, i);
                q = est.set_core(&freqs, i);
            }
            let full_p = crate::estimate::oracle_power(&rk, &freqs);
            let old_p = oracle_power_by_clone(&rk, &freqs);
            prop_assert_eq!(p.0.to_bits(), full_p.0.to_bits());
            prop_assert_eq!(p.0.to_bits(), old_p.0.to_bits());
            let full_q = e.estimate(&rk, &freqs);
            let old_q = estimate_single_pass(&e, &rk, &freqs);
            prop_assert_eq!(q.0.to_bits(), full_q.0.to_bits());
            prop_assert_eq!(q.0.to_bits(), old_q.0.to_bits());
        }
    }

    /// The probe-driven greedy makes bit for bit the assignment of the
    /// closure-driven greedy that priced every candidate from scratch,
    /// for both power models, both rankings, fractional on and off, and
    /// budgets below nominal, in between, and above all-peak.
    #[test]
    fn probe_greedy_matches_full_recompute_greedy(
        servers in 1usize..=16,
        ipc in 0usize..=8,
        raw in vec(0.0f64..=1.0, MAX_CORES),
        snap in vec(0u8..8, MAX_CORES),
        f_nom in 0.2f64..0.95,
        interactive_first in proptest::bool::ANY,
        fractional in proptest::bool::ANY,
        regime in 0u8..3,
        t in 0.0f64..=1.0,
    ) {
        let rk = rack(servers, ipc, &raw, &snap);
        let n = rk.num_cores();
        let ranking = if interactive_first {
            SprintRanking::InteractiveFirst
        } else {
            SprintRanking::ByUtilization
        };
        let ranked = rank_cores(&rk, ranking);
        let f_nom = NormFreq(f_nom);
        let e = estimator();
        let plant_of = |f: &[NormFreq]| oracle_power_by_clone(&rk, f);
        let est_of = |f: &[NormFreq]| estimate_single_pass(&e, &rk, f);
        let models: [PowerFn; 2] = [&plant_of, &est_of];
        for (m, power_of) in models.into_iter().enumerate() {
            let nominal = power_of(&vec![f_nom; n]).0;
            let peak = power_of(&vec![NormFreq::PEAK; n]).0;
            let budget = Watts(match regime {
                0 => nominal - 1.0 - 50.0 * t,
                1 => nominal + t * (peak - nominal),
                _ => peak + 1.0 + 50.0 * t,
            });
            let want = cooperative_threshold_full_recompute(
                &rk, &ranked, f_nom, budget, fractional, power_of,
            );
            let mut cache = ProbeCache::default();
            let got = if m == 0 {
                let mut probe = PlantProbe::new(&rk, &mut cache);
                cooperative_threshold(&rk, &ranked, f_nom, budget, fractional, &mut probe)
            } else {
                let mut probe = EstimatorProbe::new(e, &rk, &mut cache);
                cooperative_threshold(&rk, &ranked, f_nom, budget, fractional, &mut probe)
            };
            prop_assert!(same_bits(&got.freqs, &want.freqs), "model {m}: freqs differ");
            prop_assert_eq!(got.sprinted, want.sprinted);
            prop_assert_eq!(
                got.predicted_power.0.to_bits(),
                want.predicted_power.0.to_bits()
            );
            match regime {
                0 => prop_assert_eq!(got.sprinted, 0),
                2 => prop_assert_eq!(got.sprinted, n),
                _ => {}
            }
        }
    }

    /// The keyed ranking is a permutation of every core sorted by the
    /// ranking's comparator, which (with the `CoreId` tiebreak) is a
    /// total order: the one ranking the comparator defines.
    #[test]
    fn keyed_ranking_is_the_comparator_order(
        servers in 1usize..=16,
        ipc in 0usize..=8,
        raw in vec(0.0f64..=1.0, MAX_CORES),
        snap in vec(0u8..8, MAX_CORES),
        interactive_first in proptest::bool::ANY,
    ) {
        let rk = rack(servers, ipc, &raw, &snap);
        let ranking = if interactive_first {
            SprintRanking::InteractiveFirst
        } else {
            SprintRanking::ByUtilization
        };
        let ranked = rank_cores(&rk, ranking);
        let mut sorted = ranked.clone();
        sorted.sort();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), rk.num_cores());
        let key = |id: CoreId| {
            let interactive = rk.role_of(id) == CoreRole::Interactive;
            let (class, tie) = match ranking {
                SprintRanking::ByUtilization => (0u8, u8::from(!interactive)),
                SprintRanking::InteractiveFirst => (u8::from(interactive), 0u8),
            };
            (class, rk.util(id).0, tie)
        };
        for pair in ranked.windows(2) {
            let ((ca, ua, ta), (cb, ub, tb)) = (key(pair[0]), key(pair[1]));
            let ahead = ca > cb
                || (ca == cb && (ua > ub || (ua == ub && (ta > tb || (ta == tb && pair[0] < pair[1])))));
            prop_assert!(ahead, "{:?} ranked before {:?}", pair[0], pair[1]);
        }
    }
}
