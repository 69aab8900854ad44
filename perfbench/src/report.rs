//! Metric collection and the run's output: one human-readable line per
//! metric, then the one-line JSON result.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// `[A-Za-z0-9_.-]+`, unique within a run.
    pub name: String,
    /// Unit (`ms`, `s`, `MB`, `ns`, `count`, ...).
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
}

/// Whether `s` is a valid metric name: a letter or digit first, then
/// letters, digits, `_`, `.` and `-`, at most 64 characters.
#[must_use]
pub fn valid_name(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    s.len() <= 64 && s.starts_with(|c: char| c.is_ascii_alphanumeric()) && s.chars().all(ok)
}

/// A metric name part derived from a display name (`tage+h2p` becomes
/// `tage_h2p`).
#[must_use]
pub fn slug(s: &str) -> String {
    s.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '.' {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect()
}

/// Everything a run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics in the order they were added.
    pub metrics: Vec<Metric>,
    /// Operations attempted (replay cells, simulation cells, requests).
    pub attempted: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
    /// Harness conditions that did not hold; any one fails the run.
    pub faults: Vec<String>,
    /// Free-form lines printed before the metrics (sample counts, notes).
    pub notes: Vec<String>,
}

impl Report {
    /// Adds a metric.
    pub fn add(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.metrics.push(Metric {
            name: name.into(),
            unit,
            value,
        });
    }

    /// Adds a note line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Counts one checked operation: a replay cell, a simulation cell or an
    /// HTTP request.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Records a harness condition (not an operation); a false one fails
    /// the run.
    pub fn require(&mut self, ok: bool, what: &str) {
        if !ok {
            self.faults.push(format!("harness check failed: {what}"));
        }
    }

    /// Failed harness conditions, no operation attempted, and names that
    /// are invalid, duplicated, or carry a non-finite value.
    #[must_use]
    pub fn problems(&self) -> Vec<String> {
        let mut out = self.faults.clone();
        if self.attempted == 0 {
            out.push("no operation was attempted".into());
        }
        let mut seen = std::collections::BTreeSet::new();
        for m in &self.metrics {
            if !valid_name(&m.name) {
                out.push(format!("invalid metric name '{}'", m.name));
            }
            if !seen.insert(m.name.as_str()) {
                out.push(format!("duplicate metric '{}'", m.name));
            }
            if !m.value.is_finite() {
                out.push(format!("metric '{}' is not finite", m.name));
            }
        }
        out
    }

    /// The human-readable block: notes, then `name value unit` per metric.
    #[must_use]
    pub fn text(&self) -> String {
        let mut out = String::new();
        for n in &self.notes {
            let _ = writeln!(out, "# {n}");
        }
        for m in &self.metrics {
            let _ = writeln!(out, "{:<44} {:>16.6} {}", m.name, m.value, m.unit);
        }
        let _ = writeln!(
            out,
            "operations attempted {} failed {}",
            self.attempted, self.failed
        );
        out
    }

    /// The one-line JSON result over the metrics named in `keep`.
    #[must_use]
    pub fn json(&self, keep: &[&str]) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        let mut first = true;
        for m in &self.metrics {
            if !keep.contains(&m.name.as_str()) {
                continue;
            }
            if !first {
                out.push_str(", ");
            }
            first = false;
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
#[must_use]
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
    fn names_follow_the_allowed_alphabet() {
        for good in [
            "setup_s",
            "replay.stream_ns_per_branch.2bc-gskew",
            "a",
            "9x",
        ] {
            assert!(valid_name(good), "{good}");
        }
        for bad in ["", "_x", ".x", "a b", "tage+h2p", "µs", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert_eq!(slug("tage+h2p"), "tage_h2p");
        assert_eq!(slug("2Bc-gskew"), "2bc-gskew");
    }

    #[test]
    fn problems_flag_bad_and_duplicate_names() {
        let mut r = Report::default();
        r.check(true);
        r.add("ok", "ms", 1.0);
        r.add("ok", "ms", 2.0);
        r.add("bad name", "ms", 1.0);
        r.add("inf", "ms", f64::INFINITY);
        assert_eq!(r.problems().len(), 3);
    }

    #[test]
    fn harness_faults_and_an_empty_run_are_problems_not_operations() {
        let mut r = Report::default();
        assert_eq!(r.problems(), ["no operation was attempted"]);
        r.check(true);
        r.require(true, "holds");
        assert!(r.problems().is_empty());
        r.require(false, "server stopped");
        assert_eq!(r.problems(), ["harness check failed: server stopped"]);
        assert_eq!((r.attempted, r.failed), (1, 0));
    }

    #[test]
    fn json_keeps_selected_metrics_with_all_digits() {
        let mut r = Report::default();
        r.add("a", "ms", 1.234_567_891_234);
        r.add("b", "s", 2.0);
        r.check(true);
        r.check(false);
        let j = r.json(&["a"]);
        assert_eq!(
            j,
            "{\"correct\": false, \"attempted\": 2, \"failed\": 1, \"metrics\": \
             {\"a\": {\"value\": 1.234567891234, \"unit\": \"ms\"}}}"
        );
    }
}
