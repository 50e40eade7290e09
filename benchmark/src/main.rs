//! The mpwild benchmark.
//!
//! ```text
//! mpwild-benchmark --workload <single-flow|fleet-hotspot> --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` times the public entry points untraced and prints the
//! end-to-end metrics; `--trace 1` runs the separate traced replica and
//! prints the per-layer metrics. Either way the last stdout line is one
//! JSON object: `correct`, `attempted`, `failed`, `metrics`. See README.md.

mod fleet;
mod layers;
mod report;
mod single_flow;
mod stats;
mod timed;

use std::process::ExitCode;

use report::Metric;

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 2] = ["single-flow", "fleet-hotspot"];

/// End-to-end metric names with units, in the order they are printed.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("flows_per_s", "1/s"),
    ("sim_mb_per_s", "MB/s"),
];

/// The end-to-end metrics in [`END_TO_END`] order.
fn e2e_metrics(setup_s: f64, rss_mb: f64, p50: f64, tail: f64, flows: f64, mb: f64) -> Vec<Metric> {
    END_TO_END
        .iter()
        .zip([setup_s, rss_mb, p50, tail, flows, mb])
        .map(|(&(name, unit), value)| Metric { name, unit, value })
        .collect()
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let trace = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        t => return Err(format!("--trace takes 0 or 1, not {t}")),
    };
    let seconds = seconds.unwrap_or(10);
    if !(1..=120).contains(&seconds) {
        return Err(format!("--seconds must be 1..=120, not {seconds}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: mpwild-benchmark --workload <{}> --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let (seed, secs) = (args.seed, args.seconds);
    let outcome = match (args.workload.as_str(), args.trace) {
        ("single-flow", false) => single_flow::run_e2e(seed, secs),
        ("single-flow", true) => single_flow::run_traced(seed, secs),
        ("fleet-hotspot", false) => fleet::run_e2e(seed, secs),
        ("fleet-hotspot", true) => fleet::run_traced(seed, secs),
        _ => unreachable!("workload validated"),
    };
    assert!(
        outcome.metrics.iter().all(|m| stats::valid_name(m.name)),
        "illegal metric name"
    );
    let manifest = report::manifest(&args.workload, seed, secs, args.trace, &outcome);
    println!(
        "manifest {}",
        serde_json::to_string(&manifest).expect("manifest serializes")
    );
    println!("{}", report::result_line(&outcome));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    /// Every name the benchmark prints is legal and matches BENCHMARK.json.
    #[test]
    fn names_are_legal_and_match_the_benchmark_file() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let file: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            file.get(key)
                .and_then(Value::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field =
                        |f: &str| m.get(f).and_then(Value::as_str).unwrap_or("").to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&layers::PER_LAYER));
        let workloads: Vec<&str> = file
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(Value::as_str))
            .collect();
        assert_eq!(workloads, WORKLOADS);
        for (name, _) in END_TO_END.iter().chain(layers::PER_LAYER.iter()) {
            assert!(stats::valid_name(name), "{name}");
        }
        for w in WORKLOADS {
            assert!(stats::valid_name(w), "{w}");
        }
    }
}
