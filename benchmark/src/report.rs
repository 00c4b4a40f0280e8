//! Results as data: the line format a child hands its supervisor, the
//! table a person reads, and the JSON the driver reads.

use std::fmt::Write as _;

/// One measured value. `samples` is what it was computed from (latencies,
/// repetitions, spans); 0 where a count is the value itself.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    pub samples: u64,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &str, samples: u64) -> Self {
        Metric {
            name: name.into(),
            value,
            unit: unit.to_string(),
            samples,
        }
    }
}

/// Everything one run produced. `gated` are the metrics `BENCHMARK.json`
/// names for this kind of run; `diagnostics` are printed and never gated.
#[derive(Clone, Debug, Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness checks that fired; empty means the run is correct.
    pub errors: Vec<String>,
    pub gated: Vec<Metric>,
    pub diagnostics: Vec<Metric>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// A run that produced nothing usable: every attempt counts as failed.
    pub fn all_failed(attempted: u64, why: String) -> Self {
        RunResult {
            attempted: attempted.max(1),
            failed: attempted.max(1),
            errors: vec![why],
            ..Default::default()
        }
    }

    /// The child-to-supervisor encoding: one record per line.
    pub fn to_lines(&self) -> String {
        let mut out = format!("R {} {}\n", self.attempted, self.failed);
        for e in &self.errors {
            let _ = writeln!(out, "E {}", e.replace('\n', " "));
        }
        for (tag, list) in [("M", &self.gated), ("D", &self.diagnostics)] {
            for m in list {
                let _ = writeln!(out, "{tag} {} {} {} {}", m.name, m.value, m.unit, m.samples);
            }
        }
        out
    }

    /// Inverse of [`to_lines`]; `None` if the `R` record is missing, which
    /// is how a child that died mid-run reads.
    pub fn from_lines(text: &str) -> Option<Self> {
        let mut result = RunResult::default();
        let mut seen_counts = false;
        for line in text.lines() {
            let (tag, rest) = line.split_once(' ')?;
            match tag {
                "R" => {
                    let (attempted, failed) = rest.split_once(' ')?;
                    result.attempted = attempted.parse().ok()?;
                    result.failed = failed.parse().ok()?;
                    seen_counts = true;
                }
                "E" => result.errors.push(rest.to_string()),
                "M" | "D" => {
                    let mut parts = rest.split(' ');
                    let metric = Metric {
                        name: parts.next()?.to_string(),
                        value: parts.next()?.parse().ok()?,
                        unit: parts.next()?.to_string(),
                        samples: parts.next()?.parse().ok()?,
                    };
                    if tag == "M" {
                        result.gated.push(metric);
                    } else {
                        result.diagnostics.push(metric);
                    }
                }
                _ => return None,
            }
        }
        seen_counts.then_some(result)
    }

    /// The driver's result line: exactly `correct`, `attempted`, `failed`
    /// and the gated metrics.
    pub fn to_driver_json(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics_json(&self.gated, false)
        )
    }

    /// The fuller object `all` embeds: diagnostics and errors included.
    pub fn to_full_json(&self) -> String {
        let errors: Vec<String> = self.errors.iter().map(|e| json_string(e)).collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"errors\": [{}], \"metrics\": {}, \"diagnostics\": {}}}",
            self.correct(),
            self.attempted,
            self.failed,
            errors.join(", "),
            metrics_json(&self.gated, true),
            metrics_json(&self.diagnostics, true)
        )
    }

    /// The table a person reads, on stderr so stdout stays machine-readable.
    pub fn print_table(&self, title: &str) {
        eprintln!("== {title}");
        for (kind, list) in [("", &self.gated), ("  (not gated)", &self.diagnostics)] {
            for m in list {
                eprintln!(
                    "  {:<36} {:>14.4} {:<6} n={}{kind}",
                    m.name, m.value, m.unit, m.samples
                );
            }
        }
        eprintln!(
            "  attempted {}  failed {}  correct {}",
            self.attempted,
            self.failed,
            self.correct()
        );
        for e in &self.errors {
            eprintln!("  CHECK FAILED: {e}");
        }
    }
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metrics_json(metrics: &[Metric], with_samples: bool) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            let samples = if with_samples {
                format!(", \"samples\": {}", m.samples)
            } else {
                String::new()
            };
            format!(
                "{}: {{\"value\": {}, \"unit\": {}{samples}}}",
                json_string(&m.name),
                json_number(m.value),
                json_string(&m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_round_trip() {
        let result = RunResult {
            attempted: 10,
            failed: 1,
            errors: vec!["validator 2 has a gap at sequence 4".into()],
            gated: vec![Metric::new("commit_p50_ms", 345.25, "ms", 9)],
            diagnostics: vec![Metric::new("client.samples", 9.0, "count", 0)],
        };
        let back = RunResult::from_lines(&result.to_lines()).expect("parses");
        assert_eq!(back.attempted, 10);
        assert_eq!(back.failed, 1);
        assert_eq!(back.errors, result.errors);
        assert_eq!(back.gated, result.gated);
        assert_eq!(back.diagnostics, result.diagnostics);
        assert!(!back.correct());
    }

    #[test]
    fn truncated_child_output_is_not_a_result() {
        assert!(RunResult::from_lines("").is_none());
        assert!(RunResult::from_lines("M commit_p50_ms 1.0 ms 3\n").is_none());
    }

    #[test]
    fn driver_json_has_exactly_the_contract_keys() {
        let result = RunResult {
            attempted: 3,
            gated: vec![Metric::new("setup_s", 0.5, "s", 3)],
            diagnostics: vec![Metric::new("client.samples", 3.0, "count", 0)],
            ..Default::default()
        };
        assert_eq!(
            result.to_driver_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn json_strings_escape() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }
}
