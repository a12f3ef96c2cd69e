//! Benchmark of the aging simulator and the paper's Section 5 I/O runs.
//!
//! ```text
//! perfbench --workload <age-realloc|age-news-ffs> [--seed N]
//!           [--seconds S] [--trace 0|1]
//! ```
//!
//! Each run is one single-threaded process on the workload generated
//! from `--seed`. An untraced run (`--trace 0`) times the library's entry
//! points from outside and ends with the end-to-end metrics. A traced run
//! (`--trace 1`) rebuilds the same work from timed public calls, checks
//! that it reproduces the untraced results exactly, and ends with the
//! per-layer metrics. Both print every metric they measured as a table,
//! then one JSON result line. See README.md for the metrics.

mod age;
mod io;
mod report;
mod run;
mod span;
mod spec;

use std::process::ExitCode;

use report::Kind;
use spec::Scale;

const USAGE: &str = "usage: perfbench --workload <age-realloc|age-news-ffs> \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// The workload seed when `--seed` is not given.
const DEFAULT_SEED: u64 = 1996;

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 45.0,
        trace: false,
        scale: Scale::Paper,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            // A 16 MB volume aged for a few days: for the benchmark's own
            // tests, not for measurement.
            "--small-days" => {
                let days = value()?.parse().map_err(|e| format!("--small-days: {e}"))?;
                if !(1..=60).contains(&days) {
                    return Err("--small-days must be in 1..=60".into());
                }
                args.scale = Scale::Small { days };
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = spec::workload(&args.workload, args.seed, args.scale) else {
        eprintln!(
            "perfbench: unknown workload {:?}; one of {}",
            args.workload,
            spec::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    let run = if args.trace {
        run::traced(&w, args.seconds)
    } else {
        run::untraced(&w, args.seconds)
    };
    let (observed, checks) = match run {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", w.name);
            return ExitCode::FAILURE;
        }
    };
    let summary = observed.summary();
    print!("{}", report::table(&summary, &checks));
    let kind = if args.trace {
        Kind::Layer
    } else {
        Kind::EndToEnd
    };
    println!("{}", report::result_line(&summary, kind, &checks));
    if checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(v: &[&str]) -> Result<Args, String> {
        parse_args(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_and_flags() {
        let a = parse(&["--workload", "age-realloc"]).unwrap();
        assert_eq!(a.seed, DEFAULT_SEED);
        assert!(!a.trace);
        assert_eq!(a.scale, Scale::Paper);
        let a = parse(&["--workload", "x", "--seed", "7", "--trace", "1"]).unwrap();
        assert_eq!(a.seed, 7);
        assert!(a.trace);
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["--workload", "x", "--trace", "2"]).is_err());
        assert!(parse(&["--workload", "x", "--seconds", "0"]).is_err());
        assert!(parse(&["--workload", "x", "--seed"]).is_err());
        assert!(parse(&["--workload", "x", "--small-days", "0"]).is_err());
        assert!(parse(&["--workload", "x", "--bogus"]).is_err());
    }
}
