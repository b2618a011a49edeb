//! Metric names, the collected values of one run, and the output
//! format: a human table, one `report` JSON line with every metric the
//! workload measured, and — last — the contract line whose metrics are
//! exactly the `end_to_end` (untraced) or `per_layer` (traced) names of
//! `BENCHMARK.json`.

use crate::stats::{percentile, PercentileError};
use std::fmt::Write as _;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["paper-chord", "paper-direct", "figure-grid", "sosd-mix"];

/// End-to-end metrics every workload reports on an untraced run. The
/// rest (`peak_rss_mb`, `ops_failed_frac`, RTT percentiles) are in the
/// `report` line only: see README.md for why each is not gated.
pub const END_TO_END: &[(&str, &str)] = &[
    ("trials_per_s", "1/s"),
    ("requests_per_s", "1/s"),
    ("setup_s", "s"),
];

/// Per-layer metrics every workload reports on a traced run. Metrics
/// that exist for only some workloads (Chord ring build, sweep points,
/// `sosd` timing docs, RTT percentiles) are in the `report` line only.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("overlay.build_ms_p50", "ms"),
    ("overlay.trial_build_ms_p50", "ms"),
    ("overlay.trial_build_ms_p99", "ms"),
    ("attack.execute_ms_p50", "ms"),
    ("attack.break_in_share", "frac"),
    ("attack.congestion_share", "frac"),
    ("attack.break_in_attempts", "count"),
    ("attack.congested_nodes", "count"),
    ("routing.evaluate_ms_p50", "ms"),
    ("routing.hops_per_route", "count"),
    ("routing.delivered_frac", "frac"),
    ("analysis.evaluator_us_p50", "us"),
    ("analysis.analyze_doc_us_p50", "us"),
    ("engine.builds_reused_frac", "frac"),
    ("pool.busy_frac", "frac"),
    ("trace.overhead_frac", "frac"),
];

/// Whether a metric or workload name is well-formed: starts with a
/// letter or digit, at most 64 of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind a percentile or median, when it is one.
    pub samples: Option<usize>,
}

/// Everything one run measured, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics {
    pub items: Vec<Metric>,
    /// Percentiles that were refused (too few samples beyond them).
    pub refused: Vec<String>,
}

impl Metrics {
    /// Records a value.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(valid_name(name), "malformed metric name {name}");
        self.items.push(Metric {
            name: name.into(),
            value,
            unit,
            samples: None,
        });
    }

    /// Records a value derived from `samples` samples.
    pub fn put_n(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        assert!(valid_name(name), "malformed metric name {name}");
        self.items.push(Metric {
            name: name.into(),
            value,
            unit,
            samples: Some(samples),
        });
    }

    /// Records percentile `q` of `samples`, or notes the refusal.
    pub fn put_pct(&mut self, name: &str, samples: &[f64], q: f64, unit: &'static str) {
        match percentile(samples, q) {
            Ok(v) => self.put_n(name, v, unit, samples.len()),
            Err(e @ PercentileError::TooFewBeyond { .. }) => {
                self.refused.push(format!("{name}: {e}"))
            }
        }
    }

    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.items.iter().find(|m| m.name == name)
    }
}

/// Renders a float for JSON (non-finite values become `null`).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The human-readable table.
pub fn table(m: &Metrics) -> String {
    let mut out = String::new();
    for metric in &m.items {
        let n = metric
            .samples
            .map(|n| format!("  (n={n})"))
            .unwrap_or_default();
        let _ = writeln!(
            out,
            "  {:<32} {:>16.6} {}{}",
            metric.name, metric.value, metric.unit, n
        );
    }
    for r in &m.refused {
        let _ = writeln!(out, "  refused: {r}");
    }
    out
}

/// The `report` line: every measured metric with unit and sample count.
pub fn report_json(
    workload: &str,
    seed: u64,
    input_seed: u64,
    traced: bool,
    m: &Metrics,
    notes: &[String],
) -> String {
    let mut out = format!(
        "{{\"workload\":{},\"seed\":{seed},\"input_seed\":{input_seed},\"trace\":{},\"metrics\":{{",
        json_str(workload),
        u8::from(traced)
    );
    for (i, metric) in m.items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{}:{{\"value\":{},\"unit\":{}",
            json_str(&metric.name),
            num(metric.value),
            json_str(metric.unit)
        );
        if let Some(n) = metric.samples {
            let _ = write!(out, ",\"samples\":{n}");
        }
        out.push('}');
    }
    out.push_str("},\"refused\":[");
    out.push_str(
        &m.refused
            .iter()
            .map(|r| json_str(r))
            .collect::<Vec<_>>()
            .join(","),
    );
    out.push_str("],\"notes\":[");
    out.push_str(
        &notes
            .iter()
            .map(|n| json_str(n))
            .collect::<Vec<_>>()
            .join(","),
    );
    out.push_str("]}");
    out
}

/// The contract line, or the names of the contract metrics missing.
pub fn contract_json(
    traced: bool,
    m: &Metrics,
    attempted: u64,
    failed: u64,
) -> Result<String, Vec<String>> {
    let names = if traced { PER_LAYER } else { END_TO_END };
    let missing: Vec<String> = names
        .iter()
        .filter(|(name, _)| !m.get(name).is_some_and(|v| v.value.is_finite()))
        .map(|(name, _)| (*name).to_string())
        .collect();
    if !missing.is_empty() {
        return Err(missing);
    }
    let body: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let value = m.get(name).expect("checked above").value;
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(name),
                num(value),
                json_str(unit)
            )
        })
        .collect();
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        failed == 0 && attempted > 0,
        body.join(",")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    fn names(v: &Value, key: &str) -> Vec<(String, Option<String>)> {
        v[key]
            .as_array()
            .expect("list")
            .iter()
            .map(|e| {
                (
                    e["name"].as_str().unwrap().to_string(),
                    e["unit"].as_str().map(str::to_string),
                )
            })
            .collect()
    }

    #[test]
    fn emitted_names_match_benchmark_json() {
        let bench = benchmark_json();
        let workloads: Vec<String> = names(&bench, "workloads")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(workloads, WORKLOADS);
        let own = |list: &[(&str, &str)]| -> Vec<(String, Option<String>)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), Some(u.to_string())))
                .collect()
        };
        assert_eq!(names(&bench, "end_to_end"), own(END_TO_END));
        assert_eq!(names(&bench, "per_layer"), own(PER_LAYER));
        assert!(END_TO_END.iter().any(|&(n, u)| n == "setup_s" && u == "s"));
    }

    #[test]
    fn names_use_only_the_allowed_charset() {
        for name in WORKLOADS
            .iter()
            .chain(END_TO_END.iter().chain(PER_LAYER).map(|(n, _)| n))
        {
            assert!(valid_name(name), "{name}");
        }
        assert!(!valid_name("_leading"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("p99/ms"));
    }

    #[test]
    fn contract_line_holds_exactly_the_declared_metrics() {
        let mut m = Metrics::default();
        for (i, (name, unit)) in END_TO_END.iter().enumerate() {
            m.put(name, 1.5 + i as f64, unit);
        }
        m.put("extra_metric", 3.0, "ms");
        let line = contract_json(false, &m, 10, 0).unwrap();
        let v: Value = serde_json::from_str(&line).unwrap();
        assert_eq!(v["correct"], Value::Bool(true));
        let keys: Vec<&str> = v["metrics"]
            .as_map()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, END_TO_END.iter().map(|(n, _)| *n).collect::<Vec<_>>());
        assert_eq!(
            contract_json(true, &m, 10, 0).unwrap_err().len(),
            PER_LAYER.len()
        );
        let failing: Value =
            serde_json::from_str(&contract_json(false, &m, 10, 1).unwrap()).unwrap();
        assert_eq!(failing["correct"], Value::Bool(false));
    }
}
