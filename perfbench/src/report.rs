//! Observations, correctness checks, and the result line.

use std::fmt::Write as _;

use crate::span::median;

/// Which `BENCHMARK.json` list a metric belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// End-to-end: printed in the result line of an untraced run.
    EndToEnd,
    /// Per-layer: printed in the result line of a traced run.
    Layer,
}

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::EndToEnd => "end_to_end",
            Kind::Layer => "per_layer",
        }
    }
}

/// One observation of a named metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Observed value.
    pub value: f64,
    /// Unit.
    pub unit: String,
    /// End-to-end or per-layer.
    pub kind: Kind,
}

/// Observations in the order they were made; a metric observed once per
/// iteration appears once per iteration.
#[derive(Clone, Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    fn push(&mut self, name: &str, value: f64, unit: &str, kind: Kind) {
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
            kind,
        });
    }

    /// Observes an end-to-end metric.
    pub fn e2e(&mut self, name: &str, value: f64, unit: &str) {
        self.push(name, value, unit, Kind::EndToEnd);
    }

    /// Observes a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64, unit: &str) {
        self.push(name, value, unit, Kind::Layer);
    }

    /// Appends every observation of `other`.
    pub fn extend(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }

    fn values(&self, name: &str) -> Vec<f64> {
        self.0
            .iter()
            .filter(|m| m.name == name)
            .map(|m| m.value)
            .collect()
    }

    /// One entry per metric, in order of first observation, holding the
    /// median of its observations.
    pub fn summary(&self) -> Metrics {
        let mut out = Metrics::default();
        for m in &self.0 {
            if !out.0.iter().any(|o| o.name == m.name) {
                let value = median(&self.values(&m.name));
                out.push(&m.name, value, &m.unit, m.kind);
            }
        }
        out
    }
}

/// Correctness checks: every check counts as attempted, and a failed one
/// is reported on stderr.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks attempted.
    pub attempted: u64,
    /// Checks failed.
    pub failed: u64,
}

impl Checks {
    /// Records one check.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {what}");
        }
    }

    /// Failed checks ÷ checks attempted.
    pub fn failed_frac(&self) -> f64 {
        crate::span::ratio(self.failed, self.attempted)
    }
}

/// The human-readable table of a summary: end-to-end metrics, per-layer
/// metrics, then `failed_frac`.
pub fn table(summary: &Metrics, checks: &Checks) -> String {
    let mut s = String::new();
    for kind in [Kind::EndToEnd, Kind::Layer] {
        for m in summary.0.iter().filter(|m| m.kind == kind) {
            let _ = writeln!(
                s,
                "{:<28} {:>22} {:<6} {}",
                m.name,
                m.value,
                m.unit,
                kind.label()
            );
        }
    }
    let _ = writeln!(
        s,
        "{:<28} {:>22} {:<6} checks {}/{} failed",
        "failed_frac",
        checks.failed_frac(),
        "frac",
        checks.failed,
        checks.attempted
    );
    s
}

/// The result line: the summary's metrics of `kind` as one JSON object.
pub fn result_line(summary: &Metrics, kind: Kind, checks: &Checks) -> String {
    let body: Vec<String> = summary
        .0
        .iter()
        .filter(|m| m.kind == kind)
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        body.join(", ")
    )
}

/// The process's peak resident set, in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_takes_each_metrics_median() {
        let mut m = Metrics::default();
        for v in [1.0, 3.0, 2.0] {
            m.e2e("a", v, "s");
            m.layer("b", 2.0 * v, "count");
        }
        m.e2e("c", 7.0, "MB");
        let s = m.summary();
        let got: Vec<(&str, f64)> = s.0.iter().map(|x| (x.name.as_str(), x.value)).collect();
        assert_eq!(got, [("a", 2.0), ("b", 4.0), ("c", 7.0)]);
    }

    #[test]
    fn result_line_filters_by_kind() {
        let mut m = Metrics::default();
        m.e2e("wall_s", 1.5, "s");
        m.layer("ffs.create_s", 0.25, "s");
        let mut c = Checks::default();
        c.check("ok", true);
        assert_eq!(
            result_line(&m, Kind::EndToEnd, &c),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \
             \"metrics\": {\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
    }
}
