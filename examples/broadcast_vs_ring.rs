//! Baseline face-off (§7 related work): the Data Cyclotron storage ring
//! against the DataCycle central pump, Broadcast Disks, and pull-based
//! on-demand broadcast — same dataset, same Gaussian workload.
//!
//! ```sh
//! cargo run --release --example broadcast_vs_ring
//! ```
//!
//! This is the scaled-down sibling of `exp_baselines` (run that for the
//! full-scale §7 comparison).

use datacyclotron::BatId;
use dc_broadcast::{
    partition_by_popularity, BroadcastSim, ChannelConfig, OnDemandSim, PullPolicy, Schedule,
};
use dc_workloads::gaussian::{self, GaussianParams};
use dc_workloads::micro::MicroParams;
use dc_workloads::Dataset;
use netsim::SimDuration;
use ringsim::{RingSim, SimParams};

const NODES: usize = 6;

fn main() {
    // A 6 GB / 600-fragment database with a tight Gaussian hot set: the
    // workload concentrates on ~60 fragments (~600 MB) out of 6 GB —
    // the DC's design point. Broadcast must cycle the whole database
    // (≈5 s at 10 Gb/s); the ring circulates just the hot set, which
    // fits each owner's queue with headroom (no cooldown churn).
    let dataset = Dataset::uniform(600, 6144 << 20, 8 << 20, 12 << 20, NODES, 9);
    let queries = gaussian::generate(
        &GaussianParams {
            mean: 300.0,
            stddev: 15.0,
            base: MicroParams {
                queries_per_second_per_node: 10.0,
                duration: SimDuration::from_secs(20),
                ..MicroParams::default()
            },
        },
        &dataset,
        NODES,
        17,
    );
    println!(
        "{} queries over {} fragments ({} MB total)\n",
        queries.len(),
        dataset.len(),
        dataset.total_bytes() >> 20
    );

    // 1. The Data Cyclotron ring.
    let ring = RingSim::new(
        NODES,
        dataset.clone(),
        queries.clone(),
        SimParams::default().with_queue_capacity(256 << 20),
    )
    .run();

    // 2. DataCycle: flat whole-database broadcast.
    let all: Vec<BatId> = (0..dataset.len() as u32).map(BatId).collect();
    let flat = BroadcastSim::new(
        Schedule::flat(&all).unwrap(),
        dataset.clone(),
        queries.clone(),
        ChannelConfig::default(),
    )
    .run();

    // 3. Broadcast Disks: hot 60 items spin 6×, next 60 spin 2×.
    let mut counts = vec![0f64; dataset.len()];
    for q in &queries {
        for &b in &q.needs {
            counts[b.0 as usize] += 1.0;
        }
    }
    let pop: Vec<(BatId, f64)> =
        counts.iter().enumerate().map(|(i, &c)| (BatId(i as u32), c)).collect();
    let disks = partition_by_popularity(&pop, &[(60, 6), (60, 2)]);
    let bdisk = BroadcastSim::new(
        Schedule::broadcast_disks(&disks).unwrap(),
        dataset.clone(),
        queries.clone(),
        ChannelConfig::default(),
    )
    .run();

    // 4. Pull-based on-demand broadcast with request consolidation.
    let pull = OnDemandSim::new(dataset, queries, ChannelConfig::default(), PullPolicy::Mrf).run();

    println!("{:<28} {:>10} {:>10} {:>12}", "system", "mean (s)", "p95 (s)", "channel (GB)");
    for (name, mean, p95, gb) in [
        (
            "Data Cyclotron ring",
            ring.mean_lifetime(),
            ring.lifetime_quantile(0.95),
            ring.data_link_bytes as f64 / (1u64 << 30) as f64,
        ),
        (
            "DataCycle (flat push)",
            flat.mean_lifetime(),
            flat.lifetime_quantile(0.95),
            flat.bytes_broadcast as f64 / (1u64 << 30) as f64,
        ),
        (
            "Broadcast Disks (push)",
            bdisk.mean_lifetime(),
            bdisk.lifetime_quantile(0.95),
            bdisk.bytes_broadcast as f64 / (1u64 << 30) as f64,
        ),
        (
            "On-demand pull (MRF)",
            pull.mean_lifetime(),
            pull.lifetime_quantile(0.95),
            pull.bytes_broadcast as f64 / (1u64 << 30) as f64,
        ),
    ] {
        println!("{name:<28} {mean:>10.2} {p95:>10.2} {gb:>12.1}");
    }

    println!(
        "\nWith a pronounced hot set, the ring and the skew-aware systems beat\n\
         the flat whole-database cycle. The skew-aware broadcasts look even\n\
         faster here because their single 10 Gb/s channel is nowhere near\n\
         saturation — but they funnel through one central pump and a fixed\n\
         schedule, while the ring spreads traffic over {NODES} independent links\n\
         and re-forms its hot set by itself when the workload shifts. Run\n\
         `exp_baselines` (dc-bench) for the full-scale §7 comparison,\n\
         including the push/pull saturation sweep."
    );
}
