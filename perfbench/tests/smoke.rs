//! Reduced-size runs of every workload: a 16 MB volume aged for a few
//! days. Each must pass all of its own correctness checks, print every
//! metric `BENCHMARK.json` names with that metric's unit, and give the
//! same simulated results traced and untraced.

use std::process::Command;

const WORKLOADS: [&str; 2] = ["age-realloc", "age-news-ffs"];

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`, which
/// keeps each metric on a line of its own.
fn declared(list: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let start = text
        .find(&format!("\"{list}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("the list is closed")];
    body.lines()
        .filter_map(|l| Some((field(l, "name")?, field(l, "unit")?)))
        .collect()
}

/// The string value of `"key": "value"` on `line`.
fn field(line: &str, key: &str) -> Option<String> {
    let rest = &line[line.find(&format!("\"{key}\": \""))? + key.len() + 5..];
    Some(rest[..rest.find('"')?].to_string())
}

struct Run {
    table: Vec<(String, String, String)>,
    result: String,
}

impl Run {
    fn value(&self, name: &str) -> &str {
        &self
            .table
            .iter()
            .find(|(n, _, _)| n == name)
            .unwrap_or_else(|| panic!("{name} not printed"))
            .1
    }
}

/// Runs `workload` with `args` on a 16 MB volume aged for 4 days, seed 5,
/// and returns its standard output.
fn output(workload: &str, args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--small-days", "4"])
        .args(["--seconds", "0.2", "--seed", "5"])
        .args(args)
        .output()
        .expect("the benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} {args:?} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

fn run(workload: &str, trace: u8) -> Run {
    let stdout = output(workload, &["--trace", &trace.to_string()]);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let result = lines.pop().expect("a result line").to_string();
    let table = lines
        .iter()
        .map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            (f[0].to_string(), f[1].to_string(), f[2].to_string())
        })
        .collect();
    Run { table, result }
}

#[test]
fn every_workload_prints_every_metric_and_passes_its_checks() {
    let e2e = declared("end_to_end");
    let layers = declared("per_layer");
    assert!(e2e.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    for w in WORKLOADS {
        let untraced = run(w, 0);
        let traced = run(w, 1);
        for (r, list) in [(&untraced, &e2e), (&traced, &layers)] {
            assert!(
                r.result.starts_with("{\"correct\": true, "),
                "{w}: {}",
                r.result
            );
            assert!(r.result.contains("\"failed\": 0,"), "{w}: {}", r.result);
            let printed = r.result.matches("\"value\": ").count();
            assert_eq!(printed, list.len(), "{w}: result line has extra metrics");
            for (name, unit) in list.iter() {
                let entry = format!("\"{name}\": {{\"value\": ");
                let at = r.result.find(&entry);
                let at = at.unwrap_or_else(|| panic!("{w}: {name} missing"));
                let printed = field(&r.result[at..], "unit");
                assert_eq!(printed.as_deref(), Some(unit.as_str()), "{w}: {name}");
            }
        }
        // One command prints every metric: the traced run's table holds
        // the end-to-end metrics of its paired untraced iterations too.
        for (name, unit) in e2e.iter().chain(&layers) {
            let row = traced.table.iter().find(|(n, _, _)| n == name);
            let row = row.unwrap_or_else(|| panic!("{w}: {name} not in the table"));
            assert_eq!(&row.2, unit, "{w}: {name}");
        }
        for r in [&untraced, &traced] {
            assert_eq!(r.value("failed_frac"), "0", "{w}");
        }
        // Simulated outcomes do not depend on tracing: both runs age the
        // workload generated from the same seed.
        for sim in ["layout_score", "hot_read_mb_s"] {
            assert_eq!(untraced.value(sim), traced.value(sim), "{w}: {sim}");
        }
    }
}

#[test]
fn unknown_workload_is_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "no-such-workload"])
        .output()
        .expect("the benchmark runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
