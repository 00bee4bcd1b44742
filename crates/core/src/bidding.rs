//! Power bidding (§IV-C): when the energy storage is running out,
//! `P_cb` becomes the power target for *all* workloads and "different
//! workloads can bid for power as in \[2\]".
//!
//! This module implements that allocation primitive: each core submits a
//! bid (demand × priority); the budget is spent greedily down the bid
//! ranking using the linear per-core power model, with the marginal core
//! receiving the fractional frequency that exhausts the budget. It is
//! the model-based, single-owner analogue of the baselines' cooperative
//! threshold — used by the supervisor's conservation modes and available
//! to downstream users as a standalone API.
//!
//! The datacenter generalization reuses the same auction shape one and
//! two levels up: racks bid watts of *overload headroom* against the
//! shared PDU and feeder edges ([`HeadroomBid`] /
//! [`allocate_headroom_two_level_with`]), with the
//! §IV-C core auction staying the leaf. Both levels keep the leaf's
//! determinism contract — greedy by value, ties broken by id, the
//! marginal bidder granted the exact fraction that exhausts the budget
//! — so a market round is a pure function of its inputs and safe to run
//! at supervisor boundaries between parallel rack shards.

use powersim::units::Watts;

/// One core's bid for power.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerBid {
    /// Caller-chosen core identifier (returned in the allocation).
    pub core: usize,
    /// Demand signal in `[0, 1]` — typically measured utilization.
    pub demand: f64,
    /// Workload-class priority multiplier (e.g. interactive > batch).
    pub priority: f64,
    /// Watts per unit normalized frequency for this core (model `k`).
    pub watts_per_freq: f64,
}

impl PowerBid {
    /// The bid value the auction ranks by.
    pub fn value(&self) -> f64 {
        self.demand.max(0.0) * self.priority.max(0.0)
    }
}

/// Result of one auction round.
#[derive(Debug, Clone)]
pub struct BidAllocation {
    /// `(core, frequency)` pairs in the input order.
    pub freqs: Vec<(usize, f64)>,
    /// Power the model predicts this allocation draws above the floor.
    pub spent: Watts,
    /// Cores granted more than the floor frequency.
    pub granted: usize,
}

/// Allocate `budget` watts of *dynamic* power (above the all-cores-at-
/// `f_floor` baseline) across the bidders.
///
/// Cores are ranked by bid value (ties broken by core id for
/// determinism); each winner is raised from `f_floor` toward `f_peak`,
/// costing `watts_per_freq × Δf`, until the budget runs out; the
/// marginal core gets the exact fractional frequency that spends the
/// remainder.
pub fn allocate_power_bids(
    bids: &[PowerBid],
    budget: Watts,
    f_floor: f64,
    f_peak: f64,
) -> BidAllocation {
    assert!(
        (0.0..=1.0).contains(&f_floor) && f_floor <= f_peak && f_peak <= 1.0,
        "invalid frequency range"
    );
    assert!(
        bids.iter().all(|b| b.watts_per_freq > 0.0),
        "power slopes must be positive"
    );
    let mut order: Vec<usize> = (0..bids.len()).collect();
    order.sort_by(|&a, &b| {
        bids[b]
            .value()
            .total_cmp(&bids[a].value())
            .then(bids[a].core.cmp(&bids[b].core))
    });
    let mut freqs: Vec<(usize, f64)> = bids.iter().map(|b| (b.core, f_floor)).collect();
    let mut remaining = budget.0.max(0.0);
    let mut granted = 0;
    for &i in &order {
        if remaining <= 0.0 {
            break;
        }
        let full_cost = bids[i].watts_per_freq * (f_peak - f_floor);
        if full_cost <= remaining {
            freqs[i].1 = f_peak;
            remaining -= full_cost;
            if f_peak > f_floor {
                granted += 1;
            }
        } else {
            let df = remaining / bids[i].watts_per_freq;
            freqs[i].1 = (f_floor + df).min(f_peak);
            remaining = 0.0;
            if df > 0.0 {
                granted += 1;
            }
            break;
        }
    }
    BidAllocation {
        spent: Watts(budget.0.max(0.0) - remaining),
        freqs,
        granted,
    }
}

/// One participant's bid for shared overload headroom (a rack bidding at
/// its PDU, or a PDU bidding at the feeder).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeadroomBid {
    /// Caller-chosen participant identifier (rack or PDU index); also
    /// the deterministic tie-break key.
    pub id: usize,
    /// Watts of headroom requested above the participant's rated draw.
    pub request: Watts,
    /// Urgency multiplier (deadline pressure, batch backlog, …).
    pub priority: f64,
}

impl HeadroomBid {
    /// The value the auction ranks by: watts wanted × urgency.
    pub fn value(&self) -> f64 {
        self.request.0.max(0.0) * self.priority.max(0.0)
    }
}

/// Auction `budget` watts of shared headroom across the bidders: greedy
/// full grants down the value ranking (ties broken by `id`), with the
/// marginal bidder receiving the exact fraction that exhausts the
/// budget. Mirrors [`allocate_power_bids`] with watts as the currency
/// instead of frequency. Both levels of the two-level round run this
/// over caller-owned scratch: `order` and `grants` are cleared and
/// refilled, never shrunk, so a reused workspace round allocates
/// nothing once warm. Returns `(spent, granted)`; the grants land in
/// `grants` in bid input order.
fn allocate_headroom_core(
    bids: &[HeadroomBid],
    budget: Watts,
    order: &mut Vec<usize>,
    grants: &mut Vec<Watts>,
) -> (Watts, usize) {
    assert!(budget.is_finite(), "budget must be finite");
    assert!(
        bids.iter()
            .all(|b| b.request.is_finite() && b.priority.is_finite()),
        "bids must be finite"
    );
    order.clear();
    order.extend(0..bids.len());
    order.sort_by(|&a, &b| {
        bids[b]
            .value()
            .total_cmp(&bids[a].value())
            .then(bids[a].id.cmp(&bids[b].id))
    });
    grants.clear();
    grants.resize(bids.len(), Watts::ZERO);
    let mut remaining = budget.0.max(0.0);
    let mut granted = 0;
    for &i in &*order {
        if remaining <= 0.0 {
            break;
        }
        let want = bids[i].request.0.max(0.0);
        if want <= 0.0 {
            continue;
        }
        let grant = want.min(remaining);
        grants[i] = Watts(grant);
        remaining -= grant;
        granted += 1;
        if grant < want {
            break; // marginal bidder exhausted the budget
        }
    }
    (Watts(budget.0.max(0.0) - remaining), granted)
}

/// Reusable scratch for [`allocate_headroom_two_level_with`]. Every Vec a
/// two-level round needs lives here, cleared and refilled per round but
/// never shrunk, so a long campaign's market clearing allocates only on
/// the first round (or when the fleet grows). Reuse is semantically
/// invisible: a warm workspace produces bit-identical grants to a fresh
/// one (see the `workspace_reuse_is_deterministic` test).
#[derive(Debug, Clone, Default)]
pub struct MarketWorkspace {
    /// Ranking scratch shared by the level-1 and per-PDU auctions.
    order: Vec<usize>,
    /// Per-PDU aggregate demand (Σ member requests, clamped ≥ 0).
    pdu_demand: Vec<f64>,
    /// Per-PDU aggregate bid value (Σ member values).
    pdu_value: Vec<f64>,
    /// Level-1 bids, one per PDU.
    pdu_bids: Vec<HeadroomBid>,
    /// Level-1 grants, one per PDU.
    pdu_grants: Vec<Watts>,
    /// Global bid indices of the PDU currently clearing at level 2.
    members: Vec<usize>,
    /// That PDU's member bids, densely packed for the local auction.
    member_bids: Vec<HeadroomBid>,
    /// That PDU's local grants (member order).
    member_grants: Vec<Watts>,
    /// Final grants in bid input order — read via [`Self::grants`].
    grants: Vec<Watts>,
}

impl MarketWorkspace {
    pub fn new() -> Self {
        Self::default()
    }

    /// Grants from the most recent round, in bid input order. Valid
    /// until the next `allocate_headroom_two_level_with` call.
    pub fn grants(&self) -> &[Watts] {
        &self.grants
    }
}

/// What a zero-alloc market round hands back by value; the grants stay
/// in the workspace ([`MarketWorkspace::grants`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MarketOutcome {
    /// Total watts handed out. `spent ≤ feeder_budget` always.
    pub spent: Watts,
    /// Bidders that received a positive grant.
    pub granted: usize,
}

/// The two-level feeder → PDU → rack market round. `pdu_of[i]` names
/// the PDU that feeds the rack behind `bids[i]`; `pdu_caps[p]` is the
/// headroom PDU `p`'s own edge can carry. Level 1 auctions the feeder
/// budget across PDUs (each PDU bids the sum of its racks' requests,
/// capped at its edge headroom, at their demand-weighted mean
/// priority); level 2 re-auctions each PDU's grant across its own
/// racks. `Σ grants ≤ feeder_budget`, and per-PDU sums stay within both
/// the PDU's cap and its level-1 grant — the conservation invariant the
/// datacenter engine asserts at every supervisor boundary.
///
/// The round runs over a reusable [`MarketWorkspace`]: a warm workspace
/// makes it allocation-free. Grants land in `ws.grants()` in bid input
/// order.
pub fn allocate_headroom_two_level_with(
    ws: &mut MarketWorkspace,
    bids: &[HeadroomBid],
    pdu_of: &[usize],
    pdu_caps: &[Watts],
    feeder_budget: Watts,
) -> MarketOutcome {
    assert_eq!(bids.len(), pdu_of.len(), "bid/PDU map shape mismatch");
    let num_pdus = pdu_caps.len();
    assert!(
        pdu_of.iter().all(|&p| p < num_pdus),
        "PDU index out of range"
    );
    // Level-1 bids: one per PDU, aggregated from its member racks.
    ws.pdu_demand.clear();
    ws.pdu_demand.resize(num_pdus, 0.0);
    ws.pdu_value.clear();
    ws.pdu_value.resize(num_pdus, 0.0);
    for (b, &p) in bids.iter().zip(pdu_of) {
        ws.pdu_demand[p] += b.request.0.max(0.0);
        ws.pdu_value[p] += b.value();
    }
    ws.pdu_bids.clear();
    for (p, cap) in pdu_caps.iter().enumerate() {
        let capped = ws.pdu_demand[p].min(cap.0.max(0.0));
        let mean_priority = if ws.pdu_demand[p] > 0.0 {
            ws.pdu_value[p] / ws.pdu_demand[p]
        } else {
            0.0
        };
        ws.pdu_bids.push(HeadroomBid {
            id: p,
            request: Watts(capped),
            priority: mean_priority,
        });
    }
    allocate_headroom_core(
        &ws.pdu_bids,
        feeder_budget,
        &mut ws.order,
        &mut ws.pdu_grants,
    );

    // Level 2: each PDU re-auctions its grant across its own racks.
    ws.grants.clear();
    ws.grants.resize(bids.len(), Watts::ZERO);
    let mut spent = 0.0;
    let mut granted = 0;
    for p in 0..num_pdus {
        let budget = ws.pdu_grants[p];
        if budget.0 <= 0.0 {
            continue;
        }
        ws.members.clear();
        ws.member_bids.clear();
        for (i, &q) in pdu_of.iter().enumerate() {
            if q == p {
                ws.members.push(i);
                ws.member_bids.push(bids[i]);
            }
        }
        let (local_spent, _) = allocate_headroom_core(
            &ws.member_bids,
            budget,
            &mut ws.order,
            &mut ws.member_grants,
        );
        for (&i, g) in ws.members.iter().zip(&ws.member_grants) {
            ws.grants[i] = *g;
            if g.0 > 0.0 {
                granted += 1;
            }
        }
        spent += local_spent.0;
    }
    MarketOutcome {
        spent: Watts(spent),
        granted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bids(n: usize) -> Vec<PowerBid> {
        (0..n)
            .map(|i| PowerBid {
                core: i,
                demand: 0.5 + 0.05 * (i as f64),
                priority: 1.0,
                watts_per_freq: 15.0,
            })
            .collect()
    }

    #[test]
    fn zero_budget_leaves_everyone_at_floor() {
        let a = allocate_power_bids(&bids(4), Watts(0.0), 0.2, 1.0);
        assert!(a.freqs.iter().all(|&(_, f)| f == 0.2));
        assert_eq!(a.granted, 0);
        assert_eq!(a.spent, Watts(0.0));
    }

    #[test]
    fn ample_budget_grants_everyone_peak() {
        let a = allocate_power_bids(&bids(4), Watts(1e6), 0.2, 1.0);
        assert!(a.freqs.iter().all(|&(_, f)| f == 1.0));
        assert_eq!(a.granted, 4);
        // Spent exactly 4 × 15 × 0.8.
        assert!((a.spent.0 - 48.0).abs() < 1e-9);
    }

    #[test]
    fn highest_bids_win_first() {
        // Budget covers one full grant plus half of another.
        let a = allocate_power_bids(&bids(4), Watts(18.0), 0.2, 1.0);
        // Core 3 has the biggest demand → full peak.
        assert_eq!(a.freqs[3], (3, 1.0));
        // Core 2 gets the fractional remainder: 18 − 12 = 6 W → Δf 0.4.
        assert!((a.freqs[2].1 - 0.6).abs() < 1e-9);
        assert_eq!(a.freqs[1].1, 0.2);
        assert_eq!(a.freqs[0].1, 0.2);
        assert_eq!(a.granted, 2);
        assert!((a.spent.0 - 18.0).abs() < 1e-9);
    }

    #[test]
    fn priority_multiplier_overrides_demand() {
        let mut b = bids(2);
        b[0].demand = 0.4;
        b[0].priority = 3.0; // interactive-style boost: bid 1.2
        b[1].demand = 0.9;
        b[1].priority = 1.0; // bid 0.9
        let a = allocate_power_bids(&b, Watts(12.0), 0.2, 1.0);
        assert_eq!(a.freqs[0].1, 1.0, "prioritized core wins");
        assert_eq!(a.freqs[1].1, 0.2);
    }

    #[test]
    fn ties_break_deterministically_by_core_id() {
        let b: Vec<PowerBid> = (0..3)
            .map(|i| PowerBid {
                core: i,
                demand: 0.5,
                priority: 1.0,
                watts_per_freq: 15.0,
            })
            .collect();
        let a = allocate_power_bids(&b, Watts(12.0), 0.2, 1.0);
        assert_eq!(a.freqs[0].1, 1.0);
        assert_eq!(a.freqs[1].1, 0.2);
    }

    #[test]
    fn budget_is_never_exceeded() {
        for budget in [0.0, 5.0, 17.3, 36.0, 100.0] {
            let a = allocate_power_bids(&bids(5), Watts(budget), 0.2, 1.0);
            let cost: f64 = a.freqs.iter().map(|&(_, f)| 15.0 * (f - 0.2)).sum();
            assert!(cost <= budget + 1e-9, "budget {budget}: cost {cost}");
            assert!((cost - a.spent.0).abs() < 1e-9);
        }
    }

    #[test]
    fn heterogeneous_slopes_charge_correctly() {
        let b = vec![
            PowerBid {
                core: 0,
                demand: 1.0,
                priority: 1.0,
                watts_per_freq: 30.0,
            },
            PowerBid {
                core: 1,
                demand: 0.9,
                priority: 1.0,
                watts_per_freq: 10.0,
            },
        ];
        // 24 W: core 0 (bid 1.0) costs 24 to fully sprint → exactly fits.
        let a = allocate_power_bids(&b, Watts(24.0), 0.2, 1.0);
        assert_eq!(a.freqs[0].1, 1.0);
        assert_eq!(a.freqs[1].1, 0.2);
    }

    #[test]
    #[should_panic(expected = "invalid frequency range")]
    fn rejects_bad_range() {
        allocate_power_bids(&bids(1), Watts(1.0), 0.9, 0.5);
    }

    fn hbid(id: usize, request: f64, priority: f64) -> HeadroomBid {
        HeadroomBid {
            id,
            request: Watts(request),
            priority,
        }
    }

    /// The single-level auction through fresh scratch.
    fn auction(b: &[HeadroomBid], budget: f64) -> (Vec<Watts>, Watts, usize) {
        let (mut order, mut grants) = (Vec::new(), Vec::new());
        let (spent, granted) = allocate_headroom_core(b, Watts(budget), &mut order, &mut grants);
        (grants, spent, granted)
    }

    /// The two-level round through a fresh workspace.
    fn two_level(
        b: &[HeadroomBid],
        pdu_of: &[usize],
        caps: &[Watts],
        budget: f64,
    ) -> (Vec<Watts>, MarketOutcome) {
        let mut ws = MarketWorkspace::new();
        let out = allocate_headroom_two_level_with(&mut ws, b, pdu_of, caps, Watts(budget));
        (ws.grants().to_vec(), out)
    }

    #[test]
    fn headroom_greedy_grants_and_fractional_marginal() {
        let b = [
            hbid(0, 800.0, 1.0),
            hbid(1, 800.0, 2.0),
            hbid(2, 800.0, 0.5),
        ];
        let (grants, spent, granted) = auction(&b, 1200.0);
        assert_eq!(grants[1], Watts(800.0), "highest value wins first");
        assert_eq!(grants[0], Watts(400.0), "marginal fractional grant");
        assert_eq!(grants[2], Watts::ZERO);
        assert_eq!(spent, Watts(1200.0));
        assert_eq!(granted, 2);
    }

    #[test]
    fn headroom_ties_break_by_id_and_budget_is_conserved() {
        let b: Vec<HeadroomBid> = (0..4).map(|i| hbid(i, 500.0, 1.0)).collect();
        for budget in [0.0, 250.0, 777.0, 2000.0, 1e6] {
            let (grants, spent, _) = auction(&b, budget);
            let total: f64 = grants.iter().map(|g| g.0).sum();
            assert!(total <= budget + 1e-9, "budget {budget}: spent {total}");
            assert!((total - spent.0).abs() < 1e-9);
            // Lower ids fill first on equal value.
            for w in grants.windows(2) {
                assert!(w[0].0 >= w[1].0);
            }
        }
    }

    #[test]
    fn headroom_zero_requests_get_nothing() {
        let b = [hbid(0, 0.0, 5.0), hbid(1, 100.0, 1.0)];
        let (grants, _, granted) = auction(&b, 1000.0);
        assert_eq!(grants[0], Watts::ZERO);
        assert_eq!(grants[1], Watts(100.0));
        assert_eq!(granted, 1);
    }

    #[test]
    fn two_level_single_pdu_matches_flat_auction() {
        let b = [
            hbid(0, 800.0, 1.0),
            hbid(1, 800.0, 2.0),
            hbid(2, 800.0, 0.5),
        ];
        let (flat, flat_spent, _) = auction(&b, 1200.0);
        let (two, out) = two_level(&b, &[0, 0, 0], &[Watts(1e9)], 1200.0);
        assert_eq!(flat, two);
        assert_eq!(flat_spent, out.spent);
    }

    #[test]
    fn two_level_respects_pdu_caps_and_feeder_budget() {
        // PDU 0 wants 1600 but its edge only carries 500; PDU 1 wants
        // 1000. Feeder has 1200: PDU 1 (higher mean priority) gets its
        // 1000, PDU 0 gets the remaining 200 despite wanting more.
        let b = [
            hbid(0, 800.0, 1.0),
            hbid(1, 800.0, 1.0),
            hbid(2, 1000.0, 2.0),
        ];
        let (grants, _) = two_level(&b, &[0, 0, 1], &[Watts(500.0), Watts(2000.0)], 1200.0);
        assert_eq!(grants[2], Watts(1000.0));
        // PDU 0's 200 W goes to the lower id on the value tie.
        assert_eq!(grants[0], Watts(200.0));
        assert_eq!(grants[1], Watts::ZERO);
        let total: f64 = grants.iter().map(|g| g.0).sum();
        assert!(total <= 1200.0 + 1e-9);
    }

    #[test]
    fn workspace_reuse_is_deterministic() {
        // The same bid set cleared through a fresh workspace and through
        // one warmed on a differently-shaped round must produce
        // bit-identical grants.
        let b: Vec<HeadroomBid> = (0..9)
            .map(|i| hbid(i, 150.0 + 37.5 * (i as f64), 0.25 + 0.4 * (i % 4) as f64))
            .collect();
        let pdu_of = [0, 0, 0, 1, 1, 1, 2, 2, 2];
        let caps = [Watts(600.0), Watts(900.0), Watts(350.0)];
        let budget = Watts(1100.0);

        let mut warm = MarketWorkspace::new();
        // Warm-up on a different shape so every scratch Vec is dirty.
        let distractors: Vec<HeadroomBid> = (0..5).map(|i| hbid(i, 9999.0, 7.0)).collect();
        allocate_headroom_two_level_with(
            &mut warm,
            &distractors,
            &[0, 1, 1, 0, 1],
            &[Watts(1e6), Watts(1e6)],
            Watts(1e6),
        );

        let mut fresh = MarketWorkspace::new();
        let out_fresh = allocate_headroom_two_level_with(&mut fresh, &b, &pdu_of, &caps, budget);
        let out_warm = allocate_headroom_two_level_with(&mut warm, &b, &pdu_of, &caps, budget);

        assert_eq!(out_fresh, out_warm);
        assert_eq!(fresh.grants(), warm.grants());
        assert_eq!(out_fresh.spent.0.to_bits(), out_warm.spent.0.to_bits());
        for (a, b) in warm.grants().iter().zip(fresh.grants()) {
            assert_eq!(a.0.to_bits(), b.0.to_bits());
        }
    }

    #[test]
    fn two_level_conservation_holds_per_pdu_and_overall() {
        // Randomized-ish sweep over budgets: per-PDU sums never exceed
        // the cap and the overall sum never exceeds the feeder budget.
        let b: Vec<HeadroomBid> = (0..6)
            .map(|i| hbid(i, 300.0 + 100.0 * (i as f64), 0.5 + 0.3 * (i % 3) as f64))
            .collect();
        let pdu_of = [0, 0, 1, 1, 2, 2];
        let caps = [Watts(700.0), Watts(400.0), Watts(5000.0)];
        for budget in [0.0, 300.0, 900.0, 1500.0, 1e5] {
            let (grants, _) = two_level(&b, &pdu_of, &caps, budget);
            let total: f64 = grants.iter().map(|g| g.0).sum();
            assert!(total <= budget + 1e-9);
            for (p, cap) in caps.iter().enumerate() {
                let pdu_sum: f64 = grants
                    .iter()
                    .zip(&pdu_of)
                    .filter(|(_, &q)| q == p)
                    .map(|(g, _)| g.0)
                    .sum();
                assert!(pdu_sum <= cap.0 + 1e-9, "PDU {p} over cap: {pdu_sum}");
            }
        }
    }
}
