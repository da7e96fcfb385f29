//! Drive the discrete-event rig directly: a scaled-down §5.1 experiment
//! showing the LOIT effect in a couple of seconds of wall time.
//!
//! ```sh
//! cargo run --release --example simulate_experiment
//! ```

use dc_workloads::micro::{self, MicroParams};
use dc_workloads::Dataset;
use netsim::SimDuration;
use ringsim::{RingSim, SimParams};

fn main() {
    let nodes = 10;
    let dataset = Dataset::paper_8gb(nodes, 42);
    println!(
        "dataset: {} BATs, {:.2} GB total, ring capacity 2 GB",
        dataset.len(),
        dataset.total_bytes() as f64 / (1u64 << 30) as f64
    );

    let params = MicroParams {
        queries_per_second_per_node: 20.0, // quarter of the paper's 80
        duration: SimDuration::from_secs(20),
        ..MicroParams::default()
    };
    let queries = micro::generate(&params, &dataset, nodes, 7);
    println!("workload: {} queries, 1–5 remote BATs each\n", queries.len());

    println!(
        "{:>6} {:>10} {:>12} {:>12} {:>10}",
        "LOIT", "finished", "mean life", "p95 life", "unloads"
    );
    for loit in [0.1, 0.5, 1.1] {
        let m = RingSim::new(
            nodes,
            dataset.clone(),
            queries.clone(),
            SimParams::default().with_fixed_loit(loit),
        )
        .run();
        println!(
            "{loit:>6.1} {:>10} {:>11.2}s {:>11.2}s {:>10}",
            m.completed,
            m.mean_lifetime(),
            m.lifetime_quantile(0.95),
            m.stats.bats_unloaded.get(),
        );
    }
    println!("\nHigher LOIT → shorter BAT life → faster hot-set turnover →");
    println!("lower query lifetimes when the working set exceeds the ring (§5.1).");
}
