//! Measurement collection for the broadcast baselines, mirroring the
//! ring simulator's `ringsim::Measurements` lifetime accounting so
//! the comparison harness can put both in one table.

/// Results of one broadcast-baseline run.
#[derive(Clone, Debug, Default)]
pub struct BcastMeasurements {
    /// (arrival secs, lifetime secs, tag) per finished query.
    pub lifetimes: Vec<(f64, f64, u32)>,
    pub completed: usize,
    pub failed: usize,
    /// Last query completion time in seconds.
    pub makespan: f64,
    /// Items the pump transmitted (push) / served (pull).
    pub items_broadcast: u64,
    /// Bytes the channel carried.
    pub bytes_broadcast: u64,
    /// Pull mode only: requests that reached the server (after
    /// consolidation happens server-side; this counts arrivals).
    pub requests_received: u64,
    /// Pull mode only: transmissions that served more than one waiting
    /// query (request consolidation).
    pub coalesced_serves: u64,
}

impl BcastMeasurements {
    /// Mean query lifetime in seconds.
    pub fn mean_lifetime(&self) -> f64 {
        if self.lifetimes.is_empty() {
            return 0.0;
        }
        self.lifetimes.iter().map(|&(_, l, _)| l).sum::<f64>() / self.lifetimes.len() as f64
    }

    /// Lifetime quantile, `q` in `[0, 1]`.
    pub fn lifetime_quantile(&self, q: f64) -> f64 {
        if self.lifetimes.is_empty() {
            return 0.0;
        }
        let mut ls: Vec<f64> = self.lifetimes.iter().map(|&(_, l, _)| l).collect();
        ls.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let idx = ((q.clamp(0.0, 1.0)) * (ls.len() - 1) as f64).round() as usize;
        ls[idx]
    }

    /// Completed queries per second of makespan.
    pub fn throughput(&self) -> f64 {
        if self.makespan <= 0.0 {
            return 0.0;
        }
        self.completed as f64 / self.makespan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_match_hand_computation() {
        let m = BcastMeasurements {
            lifetimes: vec![(0.0, 2.0, 0), (1.0, 4.0, 0), (2.0, 6.0, 1)],
            completed: 3,
            makespan: 8.0,
            ..Default::default()
        };
        assert!((m.mean_lifetime() - 4.0).abs() < 1e-12);
        assert_eq!(m.lifetime_quantile(0.0), 2.0);
        assert_eq!(m.lifetime_quantile(0.5), 4.0);
        assert_eq!(m.lifetime_quantile(1.0), 6.0);
        assert!((m.throughput() - 0.375).abs() < 1e-12);
    }

    #[test]
    fn empty_run_is_all_zeroes() {
        let m = BcastMeasurements::default();
        assert_eq!(m.mean_lifetime(), 0.0);
        assert_eq!(m.lifetime_quantile(0.5), 0.0);
        assert_eq!(m.throughput(), 0.0);
    }
}
