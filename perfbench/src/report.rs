//! What one benchmark run reports: the op tally, the failed output
//! checks, the metrics, and the counts that must repeat for a seed.

use std::fmt::Write as _;

/// A metric as printed: name, value, unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Debug, Default)]
pub struct Report {
    /// Ops run in the measured loop.
    pub attempted: u64,
    /// Ops that returned an error or a degraded result on a plan
    /// without faults.
    pub failed: u64,
    /// Output checks that did not hold; any makes the run incorrect.
    pub check_failures: Vec<String>,
    /// The metrics of the final JSON line.
    pub metrics: Vec<Metric>,
    /// Metrics printed for a reader only (not part of the JSON line).
    pub notes: Vec<Metric>,
    /// Counts and model hashes that must be identical for one seed,
    /// across runs as well as within one.
    pub fingerprint: Vec<(String, u64)>,
}

impl Report {
    /// Records a metric of the JSON line; a value that is not a finite
    /// number fails the run.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.check(value.is_finite(), || format!("metric {name} is {value}"));
        self.metrics.push(Metric { name: name.to_string(), value, unit });
    }

    pub fn note(&mut self, name: &str, value: f64, unit: &'static str) {
        self.notes.push(Metric { name: name.to_string(), value, unit });
    }

    /// Records a failed output check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }

    /// Records a count that must repeat, and checks it against the value
    /// the same key already holds from an earlier job of this run.
    pub fn count(&mut self, key: &str, value: u64) {
        if let Some((_, seen)) = self.fingerprint.iter().find(|(k, _)| k == key) {
            if *seen != value {
                let msg = format!("count {key} varied within the run: {seen} then {value}");
                self.check_failures.push(msg);
            }
            return;
        }
        self.fingerprint.push((key.to_string(), value));
    }

    pub fn correct(&self) -> bool {
        self.check_failures.is_empty()
    }

    /// The human-readable lines and the final JSON line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for m in self.notes.iter().chain(&self.metrics) {
            let _ = writeln!(out, "{:<32} {:>16.6} {}", m.name, m.value, m.unit);
        }
        for f in &self.check_failures {
            let _ = writeln!(out, "CHECK FAILED: {f}");
        }
        let prints: Vec<String> =
            self.fingerprint.iter().map(|(k, v)| format!("{k}={v:#x}")).collect();
        let _ = writeln!(out, "fingerprint {}", prints.join(" "));
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_num(m.value),
                    m.unit
                )
            })
            .collect();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
        out
    }
}

/// A JSON number with all its digits. JSON cannot carry a non-finite
/// value; it prints as -1 in a run that [`Report::metric`] already
/// failed.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "-1".to_string()
    }
}

/// The `q`-quantile (0..=1) by linear interpolation between order
/// statistics, as numpy's default does.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((median(&v) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn a_varying_count_fails_the_run() {
        let mut r = Report::default();
        r.count("engine.rounds", 16);
        r.count("engine.rounds", 16);
        assert!(r.correct());
        r.count("engine.rounds", 15);
        assert!(!r.correct());
    }
}
