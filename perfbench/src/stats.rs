//! Sample statistics, the metric list a run prints, and its JSON line.

use std::fmt::Write as _;

/// The `q`-quantile (0..=1) of `xs` by nearest rank; 0 for no samples.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The tail quantile worth reporting for `n` samples: 0.95, lowered so
/// that at least ten samples lie beyond it, and never below the median.
pub fn tail_q(n: usize) -> f64 {
    (1.0 - 10.0 / n.max(1) as f64).clamp(0.5, 0.95)
}

/// The median of `xs`; 0 for no samples.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The mean of `xs`; 0 for no samples.
pub fn mean(xs: &[f64]) -> f64 {
    ratio(xs.iter().sum(), xs.len() as f64)
}

/// The mean of `xs` after dropping `frac` of the samples at each end:
/// smooth for quantized or bimodal samples, and robust to spikes.
pub fn trimmed_mean(xs: &[f64], frac: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = (v.len() as f64 * frac) as usize;
    mean(&v[cut..v.len() - cut])
}

/// `num / den`, or 0 when the denominator is 0 (a ratio with no base).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// What one run did and measured: operation counts for the correctness
/// verdict, named metrics with units, and free-form report lines.
#[derive(Default)]
pub struct RunResult {
    /// Operations attempted (imports, exports, session checks).
    pub attempted: u64,
    /// Operations that failed or returned a wrong result.
    pub failed: u64,
    /// One line per distinct failure, for the report.
    pub failures: Vec<String>,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Human-readable context printed before the JSON line.
    pub notes: Vec<String>,
}

impl RunResult {
    /// Records `n` attempted operations.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Records one failed operation with its reason (the first 20
    /// reasons are kept for the report).
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(why.into());
        }
    }

    /// Appends a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Appends a report line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// True when every attempted operation succeeded.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Prints the report lines, then the one-line JSON result.
    pub fn print(&self, workload: &str) {
        for line in &self.notes {
            println!("# {line}");
        }
        for f in &self.failures {
            println!("# FAILED: {f}");
        }
        println!(
            "# {workload}: attempted {} failed {} failed_frac {} ratio",
            self.attempted,
            self.failed,
            ratio(self.failed as f64, self.attempted as f64)
        );
        for (name, value, unit) in &self.metrics {
            println!("{workload} {name} {value} {unit}");
        }
        println!("{}", self.json());
    }

    fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}
