//! Percentiles, medians and the metric sheet a run prints.

use std::fmt::Write as _;

/// Nearest-rank percentile of an ascending sample (`p` in 0..=100).
/// Zero for an empty sample.
pub(crate) fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort a sample ascending (total order; the benchmark never produces NaN).
pub(crate) fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median of an unsorted sample.
pub(crate) fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v.to_vec()), 50.0)
}

/// How many samples of a sorted sample lie strictly beyond its `p`th
/// percentile — the evidence behind a tail figure.
pub(crate) fn beyond(sorted: &[f64], p: f64) -> usize {
    let cut = percentile(sorted, p);
    sorted.iter().filter(|&&x| x > cut).count()
}

/// A latency sample in microseconds with its summary line.
pub(crate) struct Latencies {
    sorted_us: Vec<f64>,
}

impl Latencies {
    /// Summarize a sample of per-operation latencies (µs).
    pub(crate) fn new(us: Vec<f64>) -> Latencies {
        Latencies { sorted_us: sorted(us) }
    }

    /// The sample's `p`th percentile.
    pub(crate) fn p(&self, p: f64) -> f64 {
        percentile(&self.sorted_us, p)
    }

    /// Largest sample.
    pub(crate) fn max(&self) -> f64 {
        self.sorted_us.last().copied().unwrap_or(0.0)
    }

    /// One human line: p50/p90/p99 with the sample count and how many
    /// samples lie beyond each tail (fewer than ten makes a tail figure
    /// weak evidence).
    pub(crate) fn describe(&self, what: &str) -> String {
        let past = |p| beyond(&self.sorted_us, p);
        format!(
            "{what}: p50 {:.1} us, p90 {:.1} us ({} beyond), p99 {:.1} us ({} beyond), \
             max {:.1} us over {} samples",
            self.p(50.0),
            self.p(90.0),
            past(90.0),
            self.p(99.0),
            past(99.0),
            self.max(),
            self.sorted_us.len()
        )
    }
}

/// An ordered sheet of named metrics with units.
#[derive(Default)]
pub struct Sheet {
    rows: Vec<(String, f64, &'static str)>,
}

impl Sheet {
    /// Add (or overwrite) one metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        let value = if value.is_finite() { value } else { 0.0 };
        match self.rows.iter_mut().find(|(n, _, _)| *n == name) {
            Some(row) => row.1 = value,
            None => self.rows.push((name, value, unit)),
        }
    }

    /// Every row in insertion order.
    pub fn rows(&self) -> &[(String, f64, &'static str)] {
        &self.rows
    }

    /// Human-readable `name = value unit` lines.
    pub fn human(&self) -> String {
        let mut out = String::new();
        for (n, v, u) in &self.rows {
            let _ = writeln!(out, "  {n:<34} {v:>16.4} {u}");
        }
        out
    }

    /// The result object the benchmark ends with.
    pub fn result_json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (n, v, u)) in self.rows.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}");
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(beyond(&xs, 99.0), 1);
        assert_eq!(percentile(&[], 99.0), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn sheet_renders_one_json_object() {
        let mut s = Sheet::default();
        s.set("a", 1.5, "ms");
        s.set("b", 2.0, "count");
        s.set("a", 3.0, "ms");
        let j = s.result_json(true, 4, 0);
        assert_eq!(
            j,
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 3.0, \"unit\": \"ms\"}, \"b\": {\"value\": 2.0, \"unit\": \"count\"}}}"
        );
    }
}
