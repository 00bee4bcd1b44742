//! The traced run measures the same program, and its per-layer counts
//! repeat exactly; `BENCHMARK.json` lists exactly what the command
//! reports.

use simkit::{run_digest, run_policy, PolicyOverrides};
use sprintbench::report::{Options, Section, METRICS};
use sprintbench::trace::run_traced;
use sprintbench::workload::{template, Size, Workload};
use sprintbench::Report;

#[test]
fn timing_wrapper_is_digest_transparent_on_every_template() {
    for w in Workload::ALL {
        let size = Size::full(w);
        let sc = template(w, w.scenario_seed(7, 0), &size).expect("template is valid");
        for &kind in w.policies() {
            let traced = run_traced(&sc, kind, &PolicyOverrides::default());
            let plain = run_policy(&sc, kind);
            assert_eq!(
                run_digest(&traced.output),
                run_digest(&plain),
                "{} / {}: the traced run computed a different run",
                w.name(),
                kind.name()
            );
            assert_eq!(traced.step_ns.len(), plain.recorder.len());
            assert_eq!(traced.policy_calls, plain.recorder.len() as u64);
        }
    }
}

fn traced(w: Workload, seed: u64) -> Report {
    sprintbench::run(&Options {
        workload: w,
        seed,
        seconds: 0.0,
        trace: true,
        size: Size::test(),
        workers: 2,
    })
}

/// Counts later changes may cite as exact.
const EXACT: [&str; 9] = [
    "control.qp.solves_per_tick",
    "control.qp.iters_mean",
    "control.qp.nonconverged",
    "control.fallbacks",
    "dc.market_rounds",
    "workloads.requests_arrived",
    "powersim.fault_active_ticks",
    "powersim.grid.curtail_events",
    "powersim.grid.compliance_violations",
];

#[test]
fn traced_runs_repeat_their_layer_counts_exactly() {
    for w in Workload::ALL {
        let a = traced(w, 3);
        let b = traced(w, 3);
        assert!(a.correct() && b.correct(), "{}: {:?}", w.name(), a.failures);
        for name in EXACT {
            let (x, y) = (a.metric(name).unwrap(), b.metric(name).unwrap());
            assert_eq!(x.to_bits(), y.to_bits(), "{}: {name} {x} vs {y}", w.name());
        }
        // The counts measure real work, not an empty run.
        assert!(a.metric("control.qp.solves_per_tick").unwrap() > 0.0);
        assert!(a.metric("dc.market_rounds").unwrap() >= 2.0);
        if w == Workload::FlashCrowd {
            assert!(a.metric("workloads.requests_arrived").unwrap() > 0.0);
            assert!(a.metric("powersim.fault_active_ticks").unwrap() > 0.0);
            assert!(a.metric("powersim.grid.curtail_events").unwrap() > 0.0);
        }
    }
}

#[test]
fn traced_run_reports_every_layer_metric_and_the_sprintcon_split() {
    let r = traced(Workload::FlashCrowd, 4);
    let layer: Vec<&str> = METRICS
        .iter()
        .filter(|m| m.section == Section::PerLayer)
        .map(|m| m.name)
        .collect();
    let got: Vec<&str> = r.metrics.iter().map(|m| m.name).collect();
    assert_eq!(got, layer);
    for m in &r.metrics {
        assert!(m.value.is_finite() && m.value >= 0.0 || m.name == "trace.overhead_frac");
    }
    // SprintCon only: policy time + engine self time is the mean step.
    let split = r.metric("policy.sprintcon.us_per_call").unwrap()
        + r.metric("engine.self_us_per_tick").unwrap();
    let mean = r.metric("engine.tick_us_mean").unwrap();
    assert!((split - mean).abs() <= 1e-9 * mean, "{split} vs {mean}");
}

#[test]
fn untraced_run_reports_the_end_to_end_metrics_as_one_json_line() {
    let r = sprintbench::run(&Options {
        workload: Workload::PaperCampaign,
        seed: 1,
        seconds: 0.0,
        trace: false,
        size: Size::test(),
        workers: 2,
    });
    assert!(r.correct(), "{:?}", r.failures);
    let e2e: Vec<&str> = METRICS
        .iter()
        .filter(|m| m.section == Section::EndToEnd)
        .map(|m| m.name)
        .collect();
    let got: Vec<&str> = r.metrics.iter().map(|m| m.name).collect();
    assert_eq!(got, e2e);
    assert!(r.metrics.iter().all(|m| m.value > 0.0), "{:?}", r.metrics);
    let json = r.to_json();
    assert!(json.starts_with("{\"correct\": true, \"attempted\": "));
    assert!(!json.contains('\n'));
}

/// `(name, unit)` pairs of one metric list of `BENCHMARK.json`.
fn listed(json: &str, key: &str) -> Vec<(String, String)> {
    let start = json.find(&format!("\"{key}\"")).expect("section present");
    let body = &json[start..];
    let body = &body[body.find('[').unwrap() + 1..body.find(']').unwrap()];
    let field = |obj: &str, k: &str| -> String {
        let at = obj.find(&format!("\"{k}\"")).expect("field present") + k.len() + 2;
        let rest = &obj[at..];
        let open = rest.find('"').unwrap() + 1;
        let close = open + rest[open..].find('"').unwrap();
        rest[open..close].to_string()
    };
    body.split('}')
        .filter(|obj| obj.contains("\"name\""))
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

#[test]
fn benchmark_json_lists_exactly_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    for (key, section) in [
        ("end_to_end", Section::EndToEnd),
        ("per_layer", Section::PerLayer),
    ] {
        let want: Vec<(String, String)> = METRICS
            .iter()
            .filter(|m| m.section == section)
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect();
        assert_eq!(listed(&json, key), want, "{key}");
    }
    for w in Workload::ALL {
        assert!(json.contains(&format!("\"name\": \"{}\"", w.name())));
    }
}
