//! A2 — ablation: MPC tuning — reference time constant `τ_r`, horizons
//! `Lp`/`Lc` — plus the §V-C timing contract (allocator period vs
//! controller settling time) and the closed-loop gain margin.
//!
//! The MPC's structured solve costs O(n·Lc) per period, which is what
//! makes the long-horizon rows (`Lp` up to 64) affordable here. On a
//! sampled subset of rows every period of the step response is also
//! checked against the dense Eq. (8) oracle
//! (`MpcController::dense_reference`).

use powersim::cpu::CoreRole;
use powersim::rack::Rack;
use powersim::units::{NormFreq, Utilization, Watts};
use sprint_control::reference::discrete_settling_periods;
use sprint_control::stability::{max_gain_ratio, scalar_pole, LoopParams};
use sprintcon::{ServerPowerController, SprintConConfig};
use sprintcon_bench::{banner, write_csv};

fn rack(cfg: &SprintConConfig) -> Rack {
    let mut rk = Rack::builder()
        .server(cfg.server.clone())
        .num_servers(cfg.num_servers)
        .interactive_cores_per_server(cfg.interactive_cores_per_server)
        .build()
        .expect("paper config is a valid rack");
    for id in rk.cores_with_role(CoreRole::Interactive) {
        rk.set_util(id, Utilization(0.6));
    }
    for id in rk.cores_with_role(CoreRole::Batch) {
        rk.set_util(id, Utilization(0.95));
    }
    rk
}

fn interactive_utils(rk: &Rack) -> Vec<Utilization> {
    let mut utils = Vec::new();
    rk.interactive_utils_into(&mut utils);
    utils
}

/// One control period. The MPC's solve must carry its own KKT
/// certificate (≤ its 1e-7 `tol`); with `oracle` set, it is also checked
/// against the dense oracle on the same inputs. Returns the worst
/// `compute`-vs-oracle deviation of the period (0 without oracle).
fn control_period(
    ctrl: &mut ServerPowerController,
    rk: &mut Rack,
    utils: &[Utilization],
    target: f64,
    freqs: &mut Vec<f64>,
    oracle: bool,
) -> f64 {
    let p_total = rk.power();
    let reference = oracle.then(|| {
        let p_fb = ctrl.feedback_power(p_total, utils).0;
        ctrl.mpc().dense_reference(p_fb, target, freqs)
    });
    let d = ctrl.control(p_total, utils, Watts(target), freqs);
    assert!(
        d.qp.converged && d.qp.kkt_residual <= 1e-7,
        "structured solve not KKT-certified: {}",
        d.qp.kkt_residual
    );
    let mut dev = 0.0_f64;
    if let Some(r) = reference {
        assert!(
            r.converged && r.kkt_residual <= 1e-6,
            "dense oracle not KKT-certified: {}",
            r.kkt_residual
        );
        for (x, y) in d.qp.x.iter().zip(&r.x) {
            dev = dev.max((x - y).abs());
        }
        assert!(
            dev <= 1e-6,
            "compute deviates from the dense oracle by {dev:.3e}"
        );
    }
    let ids = rk.cores_with_role(CoreRole::Batch);
    for (id, &f) in ids.iter().zip(&d.freqs) {
        rk.set_freq(*id, NormFreq(f));
    }
    *freqs = d.freqs;
    dev
}

/// Run a 1.3→1.9 kW step and report (settling steps to 5%, overshoot W,
/// worst per-period `compute`-vs-oracle deviation). With `oracle` set,
/// every period is checked against the dense oracle.
fn step_response(cfg: &SprintConConfig, oracle: bool) -> (usize, f64, f64) {
    let mut ctrl = ServerPowerController::new(cfg);
    let mut rk = rack(cfg);
    let utils = interactive_utils(&rk);
    let mut freqs: Vec<f64> = rk
        .cores_with_role(CoreRole::Batch)
        .iter()
        .map(|&id| rk.freq(id).0)
        .collect();
    let mut dev: f64 = 0.0;
    // Settle at 1300 W first.
    for _ in 0..60 {
        let d = control_period(&mut ctrl, &mut rk, &utils, 1300.0, &mut freqs, oracle);
        dev = dev.max(d);
    }
    let target = 1900.0;
    let mut settle = 60;
    let mut overshoot: f64 = 0.0;
    for t in 0..60 {
        let p_fb = ctrl.feedback_power(rk.power(), &utils);
        overshoot = overshoot.max(p_fb.0 - target);
        if (p_fb.0 - target).abs() < 0.05 * target && settle == 60 {
            settle = t;
        }
        let d = control_period(&mut ctrl, &mut rk, &utils, target, &mut freqs, oracle);
        dev = dev.max(d);
    }
    (settle, overshoot, dev)
}

/// The τ_r / Lp / Lc grid. The long-horizon tail (Lp ≥ 24) exists
/// because the structured solve costs O(n·Lc) per period; the dense
/// oracle would make those rows the dominant cost of the whole
/// ablation.
const GRID: [(f64, usize, usize); 12] = [
    (1.0, 8, 2),
    (2.0, 8, 2),
    (4.0, 8, 2), // the paper-default row
    (8.0, 8, 2),
    (16.0, 8, 2),
    (4.0, 2, 1),
    (4.0, 4, 2),
    (4.0, 16, 4),
    (4.0, 24, 6),
    (4.0, 32, 8),
    (4.0, 48, 12),
    (4.0, 64, 16),
];

/// Rows whose every period is checked against the dense oracle: the
/// paper default, one short and one long horizon. Checking every row
/// would defeat the point of the structured solve.
const DENSE_ORACLE_ROWS: [usize; 3] = [2, 6, 9];

fn grid_config(tau: f64, lp: usize, lc: usize) -> SprintConConfig {
    let mut cfg = SprintConConfig::paper_default();
    cfg.mpc.tau_r = tau;
    cfg.mpc.lp = lp;
    cfg.mpc.lc = lc.min(lp);
    cfg
}

fn main() {
    banner("Ablation A2 — τ_r / Lp / Lc sensitivity");
    let mut rows = Vec::new();
    println!(
        "{:>6} {:>4} {:>4} {:>12} {:>12}",
        "tau_r", "Lp", "Lc", "settle s", "overshoot W"
    );
    let mut oracle_devs = Vec::new();
    for (i, (tau, lp, lc)) in GRID.into_iter().enumerate() {
        let cfg = grid_config(tau, lp, lc);
        let oracle = DENSE_ORACLE_ROWS.contains(&i);
        let (settle, overshoot, dev) = step_response(&cfg, oracle);
        println!("{tau:>6.1} {lp:>4} {lc:>4} {settle:>12} {overshoot:>12.1}");
        rows.push(vec![tau, lp as f64, lc as f64, settle as f64, overshoot]);
        if oracle {
            oracle_devs.push((tau, lp, lc, dev));
        }
    }
    let path = write_csv(
        "ablation_horizons.csv",
        "tau_r,lp,lc,settle_s,overshoot_w",
        &rows,
    );
    println!("csv: {}", path.display());

    banner("dense-oracle agreement (sampled rows, every period)");
    for (tau, lp, lc, dev) in oracle_devs {
        println!("tau={tau} Lp={lp} Lc={lc}: max |compute − oracle| {dev:.3e} over 120 periods");
    }

    // Eq.(7) intuition: larger τ_r → smaller overshoot, slower settling.
    let fast = &rows[0]; // tau 1
    let slow = &rows[4]; // tau 16
    assert!(
        slow[4] <= fast[4] + 30.0,
        "larger tau must not overshoot more"
    );
    assert!(slow[3] >= fast[3], "larger tau must not settle faster");

    banner("§V-C analysis: closed-loop pole, gain margin, timing contract");
    let cfg = SprintConConfig::paper_default();
    let kappa = 60.0 * cfg.num_servers as f64; // aggregate model gain
    let params = LoopParams {
        lp: cfg.mpc.lp,
        q: cfg.mpc.q,
        r: cfg.mpc.r_scale,
        kappa,
        alpha: (-cfg.control_period.0 / cfg.mpc.tau_r).exp(),
    };
    let pole = scalar_pole(params, 1.0);
    let gmax = max_gain_ratio(params);
    let settle_periods = discrete_settling_periods(pole, 0.02).expect("stable loop");
    println!("nominal closed-loop pole: {pole:.3}");
    println!("allowed plant/model gain ratio: (0, {gmax:.2})");
    println!(
        "settling: {settle_periods} control periods ({}s) << allocator period {}s",
        settle_periods as f64 * cfg.control_period.0,
        cfg.allocator_period.0
    );
    assert!(pole.abs() < 1.0);
    assert!(gmax > 1.5, "must tolerate sizeable model error");
    assert!(
        (settle_periods as f64) * cfg.control_period.0 <= cfg.allocator_period.0 / 2.0,
        "the paper's timing contract: allocator much slower than settling"
    );
}
