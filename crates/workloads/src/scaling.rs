//! §6.3 — pulsating rings (Figs 10 and 11).
//!
//! "A peek-preview experiment, with the scenario defined in section 5.3
//! … The workload in the system, i.e., the total number of queries, is
//! kept stable while the number of nodes is increased from 5 up to 20."

use crate::dataset::Dataset;
use crate::gaussian::{self, GaussianParams};
use crate::micro::MicroParams;
use crate::spec::QuerySpec;
use netsim::SimDuration;

/// One ring size of the sweep.
#[derive(Clone, Debug)]
pub struct ScalePoint {
    pub nodes: usize,
    pub dataset: Dataset,
    pub queries: Vec<QuerySpec>,
}

/// Build the sweep: the *total* query volume (and the data) is constant;
/// the per-node rate scales inversely with the ring size.
pub fn sweep(
    node_counts: &[usize],
    total_qps: f64,
    duration: SimDuration,
    seed: u64,
) -> Vec<ScalePoint> {
    let base = Dataset::paper_8gb(node_counts[0], seed);
    node_counts
        .iter()
        .map(|&n| {
            let dataset = base.redistribute(n, seed ^ (n as u64));
            let params = GaussianParams {
                base: MicroParams {
                    queries_per_second_per_node: total_qps / n as f64,
                    duration,
                    ..MicroParams::default()
                },
                ..GaussianParams::default()
            };
            let queries = gaussian::generate(&params, &dataset, n, seed.wrapping_add(n as u64));
            ScalePoint { nodes: n, dataset, queries }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_volume_constant() {
        let pts = sweep(&[5, 10], 100.0, SimDuration::from_secs(10), 1);
        let totals: Vec<usize> = pts.iter().map(|p| p.queries.len()).collect();
        assert_eq!(totals[0], totals[1], "total workload kept stable");
        assert_eq!(totals[0], 1000);
    }

    #[test]
    fn nodes_vary_data_constant() {
        let pts = sweep(&[5, 20], 100.0, SimDuration::from_secs(5), 1);
        assert_eq!(pts[0].dataset.sizes, pts[1].dataset.sizes);
        assert!(pts[1].dataset.owners.iter().any(|&o| o >= 5));
        assert!(pts[1].queries.iter().any(|q| q.node >= 5));
    }

    #[test]
    fn per_node_rate_scales_down() {
        let pts = sweep(&[5, 10], 100.0, SimDuration::from_secs(10), 1);
        let node0_count = |p: &ScalePoint| p.queries.iter().filter(|q| q.node == 0).count();
        assert!(node0_count(&pts[0]) > node0_count(&pts[1]));
    }
}
