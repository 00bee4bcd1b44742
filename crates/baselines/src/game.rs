//! The sprinting game's Cooperative Threshold assignment \[2\].
//!
//! Each epoch, cores "bid" for sprint power; the cooperative solution
//! maximizes system performance by sprinting the cores with the highest
//! demand until the power budget is exhausted. Following §VI-B we use
//! processor utilization as the demand metric, and rank either purely by
//! utilization (SGCT, SGCT-V1) or interactive-first (SGCT-V2).

use powersim::cpu::CoreRole;
use powersim::rack::{CoreId, Rack};
use powersim::units::{NormFreq, Watts};

use crate::estimate::PowerProbe;

/// How cores are ranked when bidding for sprint power.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SprintRanking {
    /// Pure utilization order (higher utilization = higher demand). Batch
    /// cores — always busy — win ties, which is what makes the
    /// customized SGCT favor batch work (§VI-B).
    ByUtilization,
    /// Interactive cores first (each group utilization-ordered) — the
    /// SGCT-V2 customization.
    InteractiveFirst,
}

/// Rank every core of the rack for this epoch, highest priority first.
pub fn rank_cores(rack: &Rack, ranking: SprintRanking) -> Vec<CoreId> {
    let mut ranked = Vec::new();
    rank_cores_into(rack, ranking, &mut Vec::new(), &mut ranked);
    ranked
}

/// A core's ranking key: `(class, utilization, tie)`, compared
/// descending.
pub type RankKey = (u8, f64, u8);

/// [`rank_cores`] into caller-owned buffers: `keyed` holds each core's
/// [`RankKey`] (computed once per core) and `ranked` receives the
/// ranking. Both are cleared first, so a caller that keeps them ranks
/// without allocating once they have grown to the rack's size.
pub fn rank_cores_into(
    rack: &Rack,
    ranking: SprintRanking,
    keyed: &mut Vec<(RankKey, CoreId)>,
    ranked: &mut Vec<CoreId>,
) {
    let ipc = rack.interactive_cores_per_server();
    let (iv, bv) = (rack.role(CoreRole::Interactive), rack.role(CoreRole::Batch));
    keyed.clear();
    for s in 0..rack.num_servers() {
        let utils = iv.server_utils(s).iter().chain(bv.server_utils(s));
        for (c, &util) in utils.enumerate() {
            let interactive = c < ipc;
            let (class, tie) = match ranking {
                // §VI-B: utilization is the demand metric; batch cores
                // (which never idle between requests) win *exact* ties
                // only.
                SprintRanking::ByUtilization => (0, u8::from(!interactive)),
                // SGCT-V2: interactive cores outrank batch outright, each
                // group utilization-ordered.
                SprintRanking::InteractiveFirst => (u8::from(interactive), 0),
            };
            keyed.push(((class, util, tie), CoreId { server: s, core: c }));
        }
    }
    // Descending by (class, utilization, tie); ascending CoreId as the
    // final tiebreak. CoreIds are unique, so this is a total order and
    // an unstable sort yields the one ranking it defines.
    keyed.sort_unstable_by(|((ca, ua, ta), a), ((cb, ub, tb), b)| {
        cb.cmp(ca)
            .then(ub.partial_cmp(ua).expect("NaN utilization"))
            .then(tb.cmp(ta))
            .then(a.cmp(b))
    });
    ranked.clear();
    ranked.extend(keyed.iter().map(|&(_, id)| id));
}

/// Result of one cooperative-threshold assignment.
#[derive(Debug, Clone)]
pub struct Assignment {
    /// Frequency command per core, rack order (server-major).
    pub freqs: Vec<NormFreq>,
    /// Cores granted a full sprint.
    pub sprinted: usize,
    /// Power the deciding model predicts for this assignment.
    pub predicted_power: Watts,
}

/// Greedy cooperative-threshold assignment: walk the ranked list,
/// promoting cores from `f_nom` to peak while the predicted power stays
/// within `budget`. When `fractional` is set (the idealized variants),
/// the first core that does not fit whole gets the exact intermediate
/// frequency that exhausts the budget.
///
/// Every candidate differs from the previous one in a single core, so
/// `probe` prices the nominal vector with [`PowerProbe::reset`] and each
/// later candidate with [`PowerProbe::set_core`].
pub fn cooperative_threshold(
    rack: &Rack,
    ranked: &[CoreId],
    f_nom: NormFreq,
    budget: Watts,
    fractional: bool,
    probe: &mut dyn PowerProbe,
) -> Assignment {
    let total_cores = rack.num_cores();
    assert_eq!(ranked.len(), total_cores, "ranking must cover every core");
    let cps = rack.cores_per_server();

    let mut freqs = vec![f_nom; total_cores];
    let mut power = probe.reset(&freqs);
    let mut sprinted = 0;
    if power.0 > budget.0 {
        // Even the nominal configuration exceeds the budget — nothing to
        // sprint; the schedule owner deals with it.
        return Assignment {
            freqs,
            sprinted: 0,
            predicted_power: power,
        };
    }
    for id in ranked {
        // Server-major layout with homogeneous servers.
        let i = id.server * cps + id.core;
        let prev = freqs[i];
        freqs[i] = NormFreq::PEAK;
        let with = probe.set_core(&freqs, i);
        if with.0 <= budget.0 {
            power = with;
            sprinted += 1;
            continue;
        }
        if fractional {
            // Bisection for the frequency that exactly meets budget.
            let mut lo = prev.0;
            let mut hi = 1.0;
            for _ in 0..40 {
                let mid = 0.5 * (lo + hi);
                freqs[i] = NormFreq(mid);
                if probe.set_core(&freqs, i).0 <= budget.0 {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            freqs[i] = NormFreq(lo);
            power = probe.set_core(&freqs, i);
        } else {
            freqs[i] = prev;
        }
        break;
    }
    Assignment {
        freqs,
        sprinted,
        predicted_power: power,
    }
}

/// The closure-driven greedy that priced every candidate with a full
/// recompute — the named oracle of the probe-driven
/// [`cooperative_threshold`]'s bit-identity gate.
#[cfg(test)]
pub(crate) fn cooperative_threshold_full_recompute(
    rack: &Rack,
    ranked: &[CoreId],
    f_nom: NormFreq,
    budget: Watts,
    fractional: bool,
    power_of: &dyn Fn(&[NormFreq]) -> Watts,
) -> Assignment {
    let total_cores = rack.num_cores();
    assert_eq!(ranked.len(), total_cores, "ranking must cover every core");
    let index = |id: &CoreId| -> usize { id.server * rack.cores_per_server() + id.core };

    let mut freqs = vec![f_nom; total_cores];
    let mut power = power_of(&freqs);
    let mut sprinted = 0;
    if power.0 > budget.0 {
        return Assignment {
            freqs,
            sprinted: 0,
            predicted_power: power,
        };
    }
    for id in ranked {
        let i = index(id);
        let prev = freqs[i];
        freqs[i] = NormFreq::PEAK;
        let with = power_of(&freqs);
        if with.0 <= budget.0 {
            power = with;
            sprinted += 1;
            continue;
        }
        if fractional {
            let mut lo = prev.0;
            let mut hi = 1.0;
            for _ in 0..40 {
                let mid = 0.5 * (lo + hi);
                freqs[i] = NormFreq(mid);
                if power_of(&freqs).0 <= budget.0 {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            freqs[i] = NormFreq(lo);
            power = power_of(&freqs);
        } else {
            freqs[i] = prev;
        }
        break;
    }
    Assignment {
        freqs,
        sprinted,
        predicted_power: power,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powersim::server::ServerSpec;
    use powersim::units::Utilization;

    fn rack() -> Rack {
        let mut rk = Rack::builder()
            .server(ServerSpec::paper_default())
            .num_servers(2)
            .interactive_cores_per_server(4)
            .build()
            .expect("valid rack");
        // Interactive cores moderately busy, batch cores saturated.
        for id in rk.cores_with_role(CoreRole::Interactive) {
            rk.set_util(id, Utilization(0.6));
        }
        for id in rk.cores_with_role(CoreRole::Batch) {
            rk.set_util(id, Utilization(1.0));
        }
        rk
    }

    fn est() -> crate::estimate::LinearRackEstimator {
        crate::estimate::LinearRackEstimator::from_spec(&ServerSpec::paper_default())
    }

    /// A probe that prices every candidate with a full recompute by its
    /// closure.
    struct Full<F>(F);

    impl<F: Fn(&[NormFreq]) -> Watts> PowerProbe for Full<F> {
        fn reset(&mut self, freqs: &[NormFreq]) -> Watts {
            (self.0)(freqs)
        }
        fn set_core(&mut self, freqs: &[NormFreq], _: usize) -> Watts {
            (self.0)(freqs)
        }
    }

    #[test]
    fn by_utilization_puts_batch_first() {
        let rk = rack();
        let ranked = rank_cores(&rk, SprintRanking::ByUtilization);
        let first_eight: Vec<CoreRole> = ranked[..8].iter().map(|id| rk.role_of(*id)).collect();
        assert!(first_eight.iter().all(|r| *r == CoreRole::Batch));
    }

    #[test]
    fn interactive_first_overrides_utilization() {
        let rk = rack();
        let ranked = rank_cores(&rk, SprintRanking::InteractiveFirst);
        let first_eight: Vec<CoreRole> = ranked[..8].iter().map(|id| rk.role_of(*id)).collect();
        assert!(first_eight.iter().all(|r| *r == CoreRole::Interactive));
    }

    #[test]
    fn ranking_is_deterministic_and_complete() {
        let rk = rack();
        let a = rank_cores(&rk, SprintRanking::ByUtilization);
        let b = rank_cores(&rk, SprintRanking::ByUtilization);
        assert_eq!(a, b);
        assert_eq!(a.len(), 16);
        let mut sorted = a.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 16, "every core ranked exactly once");
    }

    #[test]
    fn big_budget_sprints_everyone() {
        let rk = rack();
        let ranked = rank_cores(&rk, SprintRanking::ByUtilization);
        let e = est();
        let a = cooperative_threshold(
            &rk,
            &ranked,
            NormFreq(0.5),
            Watts(10_000.0),
            false,
            &mut Full(|f: &[NormFreq]| e.estimate(&rk, f)),
        );
        assert_eq!(a.sprinted, 16);
        assert!(a.freqs.iter().all(|f| (f.0 - 1.0).abs() < 1e-12));
    }

    #[test]
    fn tight_budget_sprints_only_the_top() {
        let rk = rack();
        let ranked = rank_cores(&rk, SprintRanking::ByUtilization);
        let e = est();
        // Nominal config power + a bit: room for only a few sprints.
        let nominal = e.estimate(&rk, &[NormFreq(0.5); 16]);
        let budget = Watts(nominal.0 + 40.0);
        let a = cooperative_threshold(
            &rk,
            &ranked,
            NormFreq(0.5),
            budget,
            false,
            &mut Full(|f: &[NormFreq]| e.estimate(&rk, f)),
        );
        assert!(a.sprinted > 0 && a.sprinted < 16, "sprinted={}", a.sprinted);
        assert!(a.predicted_power.0 <= budget.0 + 1e-9);
        // The sprinted cores are exactly the top of the ranking.
        for (rank, id) in ranked.iter().enumerate() {
            let i = id.server * 8 + id.core;
            if rank < a.sprinted {
                assert_eq!(a.freqs[i], NormFreq::PEAK);
            }
        }
    }

    #[test]
    fn fractional_assignment_exhausts_the_budget_exactly() {
        let rk = rack();
        let ranked = rank_cores(&rk, SprintRanking::ByUtilization);
        let nominal = crate::estimate::oracle_power(&rk, &[NormFreq(0.5); 16]);
        let budget = Watts(nominal.0 + 55.0);
        let a = cooperative_threshold(
            &rk,
            &ranked,
            NormFreq(0.5),
            budget,
            true,
            &mut crate::estimate::PlantProbe::new(&rk, &mut crate::estimate::ProbeCache::default()),
        );
        // Power lands on the budget to within the bisection tolerance.
        assert!(
            (a.predicted_power.0 - budget.0).abs() < 0.5,
            "p={} budget={}",
            a.predicted_power,
            budget
        );
        // Exactly one core sits strictly between nominal and peak.
        let partial = a
            .freqs
            .iter()
            .filter(|f| f.0 > 0.5 + 1e-9 && f.0 < 1.0 - 1e-9)
            .count();
        assert_eq!(partial, 1);
    }

    #[test]
    fn impossible_budget_returns_nominal() {
        let rk = rack();
        let ranked = rank_cores(&rk, SprintRanking::ByUtilization);
        let e = est();
        let a = cooperative_threshold(
            &rk,
            &ranked,
            NormFreq(0.5),
            Watts(10.0),
            false,
            &mut Full(|f: &[NormFreq]| e.estimate(&rk, f)),
        );
        assert_eq!(a.sprinted, 0);
        assert!(a.freqs.iter().all(|f| (f.0 - 0.5).abs() < 1e-12));
    }
}
