//! Measurement recorders used by the experiment harnesses: time series
//! for the figures (ring load over time, cumulative throughput) and
//! fixed-width histograms (query-lifetime distribution, Fig 6b).

use crate::time::SimTime;
use std::fmt::Write as _;

/// An append-only (time, value) series.
#[derive(Clone, Debug, Default)]
pub struct TimeSeries {
    pub points: Vec<(f64, f64)>,
}

impl TimeSeries {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&mut self, t: SimTime, v: f64) {
        self.points.push((t.as_secs_f64(), v));
    }

    pub fn push_secs(&mut self, t: f64, v: f64) {
        self.points.push((t, v));
    }

    pub fn len(&self) -> usize {
        self.points.len()
    }

    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    pub fn last_value(&self) -> Option<f64> {
        self.points.last().map(|&(_, v)| v)
    }

    /// Value at time `t` (last sample at or before `t`), for aligning
    /// series sampled on different grids.
    pub fn value_at(&self, t: f64) -> Option<f64> {
        match self.points.binary_search_by(|&(pt, _)| pt.partial_cmp(&t).unwrap()) {
            Ok(i) => Some(self.points[i].1),
            Err(0) => None,
            Err(i) => Some(self.points[i - 1].1),
        }
    }
}

/// A histogram with fixed-width buckets over `[0, width * nbuckets)`;
/// values beyond the last bucket are clamped into it.
#[derive(Clone, Debug)]
pub struct Histogram {
    pub bucket_width: f64,
    pub counts: Vec<u64>,
    pub total: u64,
    pub sum: f64,
    pub max: f64,
}

impl Histogram {
    pub fn new(bucket_width: f64, nbuckets: usize) -> Self {
        assert!(bucket_width > 0.0 && nbuckets > 0);
        Histogram { bucket_width, counts: vec![0; nbuckets], total: 0, sum: 0.0, max: 0.0 }
    }

    pub fn record(&mut self, v: f64) {
        let idx = ((v / self.bucket_width) as usize).min(self.counts.len() - 1);
        self.counts[idx] += 1;
        self.total += 1;
        self.sum += v;
        if v > self.max {
            self.max = v;
        }
    }

    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum / self.total as f64
        }
    }

    /// Approximate quantile from bucket midpoints; `q` in `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return (i as f64 + 0.5) * self.bucket_width;
            }
        }
        (self.counts.len() as f64 - 0.5) * self.bucket_width
    }
}

/// Render series as a CSV with a shared time column; series are aligned by
/// last-value-at-or-before semantics. Used by the harness binaries.
pub fn series_to_csv(headers: &[&str], series: &[&TimeSeries], grid: &[f64]) -> String {
    assert_eq!(headers.len(), series.len());
    let mut out = String::new();
    out.push_str("time");
    for h in headers {
        let _ = write!(out, ",{h}");
    }
    out.push('\n');
    for &t in grid {
        let _ = write!(out, "{t:.3}");
        for s in series {
            match s.value_at(t) {
                Some(v) => {
                    let _ = write!(out, ",{v:.4}");
                }
                None => out.push_str(",0"),
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeseries_value_at() {
        let mut s = TimeSeries::new();
        s.push_secs(1.0, 10.0);
        s.push_secs(2.0, 20.0);
        s.push_secs(4.0, 40.0);
        assert_eq!(s.value_at(0.5), None);
        assert_eq!(s.value_at(1.0), Some(10.0));
        assert_eq!(s.value_at(3.0), Some(20.0));
        assert_eq!(s.value_at(9.0), Some(40.0));
        assert_eq!(s.last_value(), Some(40.0));
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let mut h = Histogram::new(5.0, 4); // [0,5) [5,10) [10,15) [15,∞)
        for v in [1.0, 2.0, 6.0, 100.0] {
            h.record(v);
        }
        assert_eq!(h.counts, vec![2, 1, 0, 1]);
        assert_eq!(h.total, 4);
        assert_eq!(h.max, 100.0);
        assert!((h.mean() - 27.25).abs() < 1e-9);
    }

    #[test]
    fn histogram_quantiles_monotone() {
        let mut h = Histogram::new(1.0, 100);
        for i in 0..100 {
            h.record(i as f64);
        }
        let q50 = h.quantile(0.5);
        let q90 = h.quantile(0.9);
        assert!(q50 < q90);
        assert!((q50 - 49.5).abs() < 1.0);
    }

    #[test]
    fn csv_alignment() {
        let mut a = TimeSeries::new();
        a.push_secs(0.0, 1.0);
        a.push_secs(2.0, 3.0);
        let mut b = TimeSeries::new();
        b.push_secs(1.0, 5.0);
        let csv = series_to_csv(&["a", "b"], &[&a, &b], &[0.0, 1.0, 2.0]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "time,a,b");
        assert!(lines[1].starts_with("0.000,1.0000,0"));
        assert!(lines[3].starts_with("2.000,3.0000,5.0000"));
    }
}
