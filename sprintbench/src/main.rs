//! The benchmark command.
//!
//! ```text
//! cargo run --release --manifest-path sprintbench/Cargo.toml -- \
//!     --workload <paper_campaign|floor|flash_crowd> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints each metric as `name value unit`, then, as the last line, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the
//! per-layer ones. Exits 1 if any correctness check failed and 2 on bad
//! arguments.

use sprintbench::report::Options;
use sprintbench::{Size, Workload};

fn usage() -> String {
    "usage: sprintbench --workload <paper_campaign|floor|flash_crowd> --seed <n> \
     --seconds <s> --trace <0|1>"
        .to_string()
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Options, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args;
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!(
                        "--seconds must be a non-negative number, got {value}"
                    ));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    Ok(Options {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        size: Size::full(workload),
        workers,
    })
}

fn main() {
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            std::process::exit(2);
        }
    };
    eprintln!(
        "sprintbench: workload {} seed {} for {} s, trace {}, {} worker(s)",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        opts.trace as u8,
        opts.workers
    );
    let report = sprintbench::run(&opts);
    for why in &report.failures {
        eprintln!("check failed: {why}");
    }
    for m in &report.metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    println!("{}", report.to_json());
    if !report.correct() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> impl Iterator<Item = String> {
        line.split_whitespace()
            .map(String::from)
            .collect::<Vec<_>>()
            .into_iter()
    }

    #[test]
    fn parses_the_benchmark_flags() {
        let o = parse_args(args("--workload floor --seed 7 --seconds 30 --trace 1")).unwrap();
        assert_eq!(o.workload, Workload::Floor);
        assert_eq!((o.seed, o.seconds, o.trace), (7, 30.0, true));
        assert_eq!(o.size, Size::full(Workload::Floor));
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            "--workload nope --seed 1 --seconds 1",
            "--workload floor --seconds 1",
            "--workload floor --seed 1 --seconds -1",
            "--workload floor --seed 1 --seconds 1 --trace 2",
            "--workload floor --seed",
            "--workload floor --seed 1 --seconds 1 --extra 1",
        ] {
            assert!(parse_args(args(bad)).is_err(), "{bad}");
        }
    }
}
