//! Order statistics and the result line.

use std::fmt::Write as _;

/// Nearest-rank percentile of unsorted samples (`q` in `0..=1`); 0 for
/// no samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of unsorted samples; 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// How many samples lie strictly above the `q` percentile.
pub fn count_above(samples: &[f64], q: f64) -> usize {
    let cut = percentile(samples, q);
    samples.iter().filter(|&&x| x > cut).count()
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Median of nanosecond samples, in the given unit divisor.
pub fn median_ns(samples: &[u64], per_unit_ns: f64) -> f64 {
    let v: Vec<f64> = samples.iter().map(|&ns| ns as f64 / per_unit_ns).collect();
    median(&v)
}

/// One named metric value with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// Ordered metric list with a text table and the JSON result line.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
}

impl Report {
    /// A report listing `names` (with units), every value 0.
    pub fn zeroed(names: &[(&'static str, &'static str)]) -> Report {
        let mut r = Report::default();
        for &(name, unit) in names {
            r.add(name, unit, 0.0);
        }
        r
    }

    /// Sets a metric, replacing an earlier value of the same name.
    pub fn add(&mut self, name: &'static str, unit: &'static str, value: f64) {
        let value = if value.is_finite() { value } else { 0.0 };
        match self.metrics.iter_mut().find(|m| m.name == name) {
            Some(m) => {
                m.unit = unit;
                m.value = value;
            }
            None => self.metrics.push(Metric { name, unit, value }),
        }
    }

    /// Human-readable table, one metric per line.
    pub fn table(&self, title: &str) -> String {
        let mut out = format!("{title}\n");
        for m in &self.metrics {
            let _ = writeln!(out, "  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
        }
        out
    }

    /// The result line: `correct`, `attempted`, `failed` and the
    /// metrics named in `keep` (all of them when `keep` is empty).
    pub fn json_line(&self, correct: bool, attempted: u64, failed: u64, keep: &[&str]) -> String {
        let mut out = format!(
            "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{"
        );
        let mut first = true;
        for m in self
            .metrics
            .iter()
            .filter(|m| keep.is_empty() || keep.contains(&m.name))
        {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}
