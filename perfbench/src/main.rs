//! The repository's benchmark: drives the TRACLUS pipeline through three
//! workloads — batch, sliding-window stream and served — checks their
//! outputs, and prints the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics of a traced run (`--trace 1`).
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload batch_storms --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the line before it
//! stamps the machine (core count, git revision, host CPU pressure).
//! See `perfbench/README.md` for the workloads and metric definitions.

#![forbid(unsafe_code)]

mod batch;
mod report;
mod serve;
mod stats;
mod stream;
mod sys;
mod trace;

use std::process::ExitCode;
use std::time::Instant;

use report::{Report, END_TO_END, PER_LAYER};

/// The one wall-clock read of the benchmark; measuring time is its job.
#[allow(clippy::disallowed_methods)] // timing is what the benchmark is for
pub fn now() -> Instant {
    Instant::now() // xtask:allow(wall-clock): the benchmark exists to time the library
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Directory a traced run writes its spans to (none: keep them in
    /// memory only).
    pub spans: Option<String>,
}

const USAGE: &str = "usage: perfbench --workload <batch_storms|stream_window|serve_city> \
--seed <n> --seconds <s> --trace <0|1>";

/// The workloads, by name.
pub const WORKLOADS: &[&str] = &["batch_storms", "stream_window", "serve_city"];

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(format!("unknown workload {value:?}")),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        spans: Some("perfbench/traces".to_string()),
    })
}

/// Runs one workload and returns its report, with `peak_rss_mb` and
/// `ok_frac` filled in.
pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = match args.workload.as_str() {
        "batch_storms" => batch::run(args, &batch::Scale::FULL)?,
        "stream_window" => stream::run(args, &stream::Scale::FULL)?,
        "serve_city" => serve::run(args, &serve::Scale::FULL)?,
        other => return Err(format!("unknown workload {other:?}")),
    };
    report.set("peak_rss_mb", sys::peak_rss_mb());
    report.set("ok_frac", report.ok_frac());
    Ok(report)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&args) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    for problem in &report.problems {
        eprintln!("perfbench: check failed: {problem}");
    }
    let (pressure_avg60, pressure_known) = match sys::cpu_pressure() {
        Some((_, avg60)) => (avg60, true),
        None => (0.0, false),
    };
    println!(
        "{{\"stamp\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {}, \"git_rev\": \"{}\", \"cpu_pressure_avg60\": {}, \"cpu_pressure_known\": {}, \
         \"phase_s\": {}, \"cpu_s\": {}, \"cpu_util\": {}, \"cpu_pressure\": {}}}}}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        sys::nproc(),
        sys::git_rev(),
        pressure_avg60,
        pressure_known,
        report::json_number(report.get("proc.phase_s").unwrap_or(0.0)),
        report::json_number(report.get("proc.cpu_s").unwrap_or(0.0)),
        report::json_number(report.get("proc.cpu_util").unwrap_or(0.0)),
        report::json_number(report.get("proc.cpu_pressure").unwrap_or(0.0)),
    );
    let list = if args.trace { PER_LAYER } else { END_TO_END };
    println!("{}", report.result_line(&report.select(list)));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> impl Iterator<Item = String> + '_ {
        s.split_whitespace().map(str::to_string)
    }

    #[test]
    fn parses_a_full_command_line() {
        let args = parse_args(argv(
            "--workload serve_city --seed 7 --seconds 10 --trace 1",
        ));
        assert_eq!(
            args,
            Ok(Args {
                workload: "serve_city".to_string(),
                seed: 7,
                seconds: 10.0,
                trace: true,
                spans: Some("perfbench/traces".to_string()),
            })
        );
    }

    /// Runs a workload twice, traced, and checks that both runs pass
    /// their output checks and that every count metric repeats exactly.
    fn counts_repeat(workload: &str, run: impl Fn(&Args) -> Result<Report, String>) {
        let args = Args {
            workload: workload.to_string(),
            seed: 11,
            seconds: 0.01,
            trace: true,
            spans: None,
        };
        let first = run(&args).expect("first run");
        let second = run(&args).expect("second run");
        for r in [&first, &second] {
            assert!(
                r.attempted > 0 && r.failed == 0,
                "{workload}: {:?}",
                r.problems
            );
        }
        for name in report::EXACT_COUNTS {
            assert_eq!(
                first.get(name),
                second.get(name),
                "{workload}: {name} must repeat"
            );
        }
    }

    #[test]
    fn batch_counts_repeat() {
        counts_repeat("batch_storms", |a| batch::run(a, &batch::Scale::SMALL));
    }

    #[test]
    fn stream_counts_repeat() {
        counts_repeat("stream_window", |a| stream::run(a, &stream::Scale::SMALL));
    }

    #[test]
    fn serve_counts_repeat() {
        counts_repeat("serve_city", |a| serve::run(a, &serve::Scale::SMALL));
    }

    #[test]
    fn every_metric_is_listed_once() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        for name in report::EXACT_COUNTS {
            assert!(PER_LAYER.iter().any(|m| m.0 == *name), "{name}");
        }
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(parse_args(argv("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(argv("--workload batch_storms --seed 1 --seconds 1")).is_err());
        assert!(parse_args(argv(
            "--workload batch_storms --seed 1 --seconds 0 --trace 0"
        ))
        .is_err());
        assert!(parse_args(argv(
            "--workload batch_storms --seed x --seconds 1 --trace 0"
        ))
        .is_err());
        assert!(parse_args(argv(
            "--workload batch_storms --seed 1 --seconds 1 --trace 2"
        ))
        .is_err());
    }
}
