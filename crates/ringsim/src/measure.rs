//! Measurement collection for the paper's figures and tables.

use datacyclotron::NodeStats;
use netsim::metrics::TimeSeries;
use std::collections::BTreeMap;

/// Everything a harness needs to regenerate a figure.
pub struct Measurements {
    /// Cumulative queries registered over time (Fig. 6a "regist. queries").
    pub registered: TimeSeries,
    /// Cumulative queries finished over time (Fig. 6a).
    pub finished: TimeSeries,
    /// Finished per workload tag (Fig. 8b).
    pub finished_by_tag: BTreeMap<u32, TimeSeries>,
    /// Hot-set bytes in the ring over time (Fig. 7a).
    pub ring_bytes: TimeSeries,
    /// Hot-set BAT count over time (Fig. 7b).
    pub ring_bats: TimeSeries,
    /// Hot-set bytes attributed per workload tag (Fig. 8a).
    pub ring_bytes_by_tag: BTreeMap<u32, TimeSeries>,
    /// (arrival secs, lifetime secs, tag) per finished query (Fig. 6b).
    pub lifetimes: Vec<(f64, f64, u32)>,
    pub completed: usize,
    pub failed: usize,
    /// Last query completion time in seconds.
    pub makespan: f64,
    /// Per-BAT owner-side tallies (Figs 9a/9b/11); indexed by BatId.
    pub bat_touches: Vec<u64>,
    pub bat_requests: Vec<u64>,
    pub bat_loads: Vec<u64>,
    pub bat_max_cycles: Vec<u32>,
    /// Ring-wide max request latency per BAT in seconds (Fig. 10).
    pub max_request_latency: BTreeMap<u32, f64>,
    /// DropTail losses.
    pub bat_drops: u64,
    pub request_drops: u64,
    /// CPU utilization (Table 4; only meaningful with bounded cores).
    pub cpu_utilization: f64,
    /// Ring size over time (§6.3 pulsating rings; one point per growth).
    pub ring_sizes: TimeSeries,
    /// Ring-wide protocol counters: every node of the run counts into
    /// the registry these handles belong to.
    pub stats: NodeStats,
}

impl Measurements {
    /// Nothing measured yet; `stats` are the handles the run's nodes
    /// count into.
    pub fn new(stats: NodeStats) -> Measurements {
        Measurements {
            registered: TimeSeries::default(),
            finished: TimeSeries::default(),
            finished_by_tag: BTreeMap::new(),
            ring_bytes: TimeSeries::default(),
            ring_bats: TimeSeries::default(),
            ring_bytes_by_tag: BTreeMap::new(),
            lifetimes: Vec::new(),
            completed: 0,
            failed: 0,
            makespan: 0.0,
            bat_touches: Vec::new(),
            bat_requests: Vec::new(),
            bat_loads: Vec::new(),
            bat_max_cycles: Vec::new(),
            max_request_latency: BTreeMap::new(),
            bat_drops: 0,
            request_drops: 0,
            cpu_utilization: 0.0,
            ring_sizes: TimeSeries::default(),
            stats,
        }
    }

    /// Mean lifetime in seconds.
    pub fn mean_lifetime(&self) -> f64 {
        if self.lifetimes.is_empty() {
            return 0.0;
        }
        self.lifetimes.iter().map(|&(_, l, _)| l).sum::<f64>() / self.lifetimes.len() as f64
    }

    /// Lifetime quantile (q in `[0, 1]`).
    pub fn lifetime_quantile(&self, q: f64) -> f64 {
        if self.lifetimes.is_empty() {
            return 0.0;
        }
        let mut ls: Vec<f64> = self.lifetimes.iter().map(|&(_, l, _)| l).collect();
        ls.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let idx = ((q.clamp(0.0, 1.0)) * (ls.len() - 1) as f64).round() as usize;
        ls[idx]
    }

    /// Throughput over the whole run (queries per second).
    pub fn throughput(&self) -> f64 {
        if self.makespan <= 0.0 {
            return 0.0;
        }
        self.completed as f64 / self.makespan
    }

    /// Queries finished by `t` seconds (reading the cumulative series).
    pub fn finished_at(&self, t: f64) -> f64 {
        self.finished.value_at(t).unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty() -> Measurements {
        Measurements::new(NodeStats::register(&dc_obs::Registry::new(0)))
    }

    #[test]
    fn lifetime_stats() {
        let m = Measurements {
            lifetimes: vec![(0.0, 1.0, 0), (0.0, 3.0, 0), (0.0, 2.0, 0)],
            ..empty()
        };
        assert!((m.mean_lifetime() - 2.0).abs() < 1e-9);
        assert_eq!(m.lifetime_quantile(0.0), 1.0);
        assert_eq!(m.lifetime_quantile(1.0), 3.0);
        assert_eq!(m.lifetime_quantile(0.5), 2.0);
    }

    #[test]
    fn throughput_guards_zero() {
        let m = empty();
        assert_eq!(m.throughput(), 0.0);
        let m = Measurements { completed: 100, makespan: 50.0, ..empty() };
        assert!((m.throughput() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn finished_at_reads_series() {
        let mut m = empty();
        m.finished.push_secs(1.0, 10.0);
        m.finished.push_secs(2.0, 25.0);
        assert_eq!(m.finished_at(0.5), 0.0);
        assert_eq!(m.finished_at(1.5), 10.0);
        assert_eq!(m.finished_at(9.0), 25.0);
    }
}
