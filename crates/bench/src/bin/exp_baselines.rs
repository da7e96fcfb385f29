//! §7 related-work baselines, made measurable: the Data Cyclotron ring
//! against the DataCycle central pump \[18\], Broadcast Disks \[1\], and
//! pull-based on-demand broadcast \[2, 3\] on identical workloads.
//!
//! The paper's positioning is qualitative ("there is no central pump",
//! "requests are combined", "we do not have a multi-disk structuring
//! mechanism"); this harness puts numbers behind it:
//!
//! 1. **Architecture comparison** — uniform and Gaussian §5-style
//!    workloads over the 8 GB / 1000-BAT dataset on all five systems.
//! 2. **Push/pull threshold** (\[2\]) — a rate sweep showing pull
//!    winning on a lightly loaded server and converging to push at
//!    saturation.
//!
//! Fabric is held constant: every broadcast channel gets one ring
//! link's bandwidth (10 Gb/s, 350 µs). The ring's aggregate advantage —
//! n point-to-point links active at once instead of one shared
//! channel — is exactly the architectural claim under test.

use datacyclotron::BatId;
use dc_broadcast::{
    partition_by_popularity, BroadcastSim, ChannelConfig, OnDemandSim, PullPolicy, Schedule,
};
use dc_workloads::gaussian::{self, GaussianParams};
use dc_workloads::micro::{self, MicroParams};
use dc_workloads::{Dataset, QuerySpec};
use netsim::SimDuration;
use ringsim::report::{write_csv, AsciiTable};
use ringsim::{RingSim, SimParams};

const NODES: usize = 10;

struct Row {
    system: &'static str,
    mean: f64,
    p95: f64,
    worst: f64,
    throughput: f64,
    channel_gb: f64,
}

fn ring_row(dataset: &Dataset, queries: &[QuerySpec]) -> Row {
    let m = RingSim::new(NODES, dataset.clone(), queries.to_vec(), SimParams::default()).run();
    assert_eq!(m.failed, 0, "ring run must complete");
    Row {
        system: "Data Cyclotron ring",
        mean: m.mean_lifetime(),
        p95: m.lifetime_quantile(0.95),
        worst: m.lifetime_quantile(1.0),
        throughput: m.throughput(),
        // Ring bytes actually moved: every BAT hop crosses one link.
        channel_gb: m.data_link_bytes as f64 / (1u64 << 30) as f64,
    }
}

fn push_row(
    system: &'static str,
    schedule: Schedule,
    dataset: &Dataset,
    queries: &[QuerySpec],
) -> Row {
    let m =
        BroadcastSim::new(schedule, dataset.clone(), queries.to_vec(), ChannelConfig::default())
            .run();
    assert_eq!(m.failed, 0);
    Row {
        system,
        mean: m.mean_lifetime(),
        p95: m.lifetime_quantile(0.95),
        worst: m.lifetime_quantile(1.0),
        throughput: m.throughput(),
        channel_gb: m.bytes_broadcast as f64 / (1u64 << 30) as f64,
    }
}

fn pull_row(
    system: &'static str,
    policy: PullPolicy,
    dataset: &Dataset,
    queries: &[QuerySpec],
) -> Row {
    let m =
        OnDemandSim::new(dataset.clone(), queries.to_vec(), ChannelConfig::default(), policy).run();
    assert_eq!(m.failed, 0);
    Row {
        system,
        mean: m.mean_lifetime(),
        p95: m.lifetime_quantile(0.95),
        worst: m.lifetime_quantile(1.0),
        throughput: m.throughput(),
        channel_gb: m.bytes_broadcast as f64 / (1u64 << 30) as f64,
    }
}

/// Broadcast-disk program from the workload's own access counts:
/// hottest 250 items spin 8×, the next 200 spin 2×, the rest 1×.
fn disks_from_workload(dataset: &Dataset, queries: &[QuerySpec]) -> Schedule {
    let mut counts = vec![0f64; dataset.len()];
    for q in queries {
        for &b in &q.needs {
            counts[b.0 as usize] += 1.0;
        }
    }
    let pop: Vec<(BatId, f64)> =
        counts.iter().enumerate().map(|(i, &c)| (BatId(i as u32), c)).collect();
    let disks = partition_by_popularity(&pop, &[(250, 8), (200, 2)]);
    Schedule::broadcast_disks(&disks).expect("valid disk partition")
}

fn compare(title: &str, dataset: &Dataset, queries: &[QuerySpec], csv: &mut String) {
    println!("\n── {title}: {} queries ──", queries.len());
    let all_items: Vec<BatId> = (0..dataset.len() as u32).map(BatId).collect();
    let rows = [
        ring_row(dataset, queries),
        push_row(
            "DataCycle (flat push)",
            Schedule::flat(&all_items).expect("non-empty database"),
            dataset,
            queries,
        ),
        push_row("Broadcast Disks (push)", disks_from_workload(dataset, queries), dataset, queries),
        pull_row("On-demand pull (FCFS)", PullPolicy::Fcfs, dataset, queries),
        pull_row("On-demand pull (MRF)", PullPolicy::Mrf, dataset, queries),
    ];
    let mut t = AsciiTable::new(&[
        "system",
        "mean life (s)",
        "p95 (s)",
        "worst (s)",
        "thr (q/s)",
        "channel (GB)",
    ]);
    for r in &rows {
        t.row(&[
            r.system.to_string(),
            format!("{:.2}", r.mean),
            format!("{:.2}", r.p95),
            format!("{:.2}", r.worst),
            format!("{:.1}", r.throughput),
            format!("{:.1}", r.channel_gb),
        ]);
        csv.push_str(&format!(
            "{title},{},{:.4},{:.4},{:.4},{:.2},{:.3}\n",
            r.system, r.mean, r.p95, r.worst, r.throughput, r.channel_gb
        ));
    }
    println!("{}", t.render());
    println!(
        "  (ring channel GB is the aggregate over {NODES} concurrent links — \
         ≈{:.0} GB per link; every broadcast system shares ONE channel)",
        rows[0].channel_gb / NODES as f64
    );
}

/// The \[2\] threshold: sweep total load — flat push against
/// consolidated pull.
fn push_pull_sweep(dataset: &Dataset, scale: f64) {
    println!("\n── Push vs. pull threshold (ref [2]) ──");
    let all_items: Vec<BatId> = (0..dataset.len() as u32).map(BatId).collect();
    let mut t = AsciiTable::new(&["load (q/s total)", "merged pull (s)", "push mean (s)"]);
    let mut csv = String::from("rate_qps,pull_mean_s,push_mean_s\n");
    for rate in [5.0, 20.0, 80.0, 320.0, 1280.0] {
        let rate = (rate * scale).max(1.0);
        let queries = micro::generate(
            &MicroParams {
                queries_per_second_per_node: rate / NODES as f64,
                duration: SimDuration::from_secs(30),
                ..MicroParams::default()
            },
            dataset,
            NODES,
            97,
        );
        let pull = OnDemandSim::new(
            dataset.clone(),
            queries.clone(),
            ChannelConfig::default(),
            PullPolicy::Fcfs,
        )
        .run();
        let push = BroadcastSim::new(
            Schedule::flat(&all_items).expect("non-empty database"),
            dataset.clone(),
            queries,
            ChannelConfig::default(),
        )
        .run();
        t.row(&[
            format!("{rate:.0}"),
            format!("{:.2}", pull.mean_lifetime()),
            format!("{:.2}", push.mean_lifetime()),
        ]);
        csv.push_str(&format!(
            "{rate:.1},{:.4},{:.4}\n",
            pull.mean_lifetime(),
            push.mean_lifetime()
        ));
    }
    println!("{}", t.render());
    println!(
        "Expected shape ([2]): pull wins on a lightly loaded server; pure push\n\
         is constant at ~half a cycle. The pull server merges duplicate\n\
         requests — the DC's request-absorption insight (§7: the prior systems\n\
         \"do not combine client requests\") — so it converges to push at\n\
         saturation instead of collapsing."
    );
    let p = write_csv("baseline_pushpull.csv", &csv).unwrap();
    println!("CSV: {}", p.display());
}

fn main() {
    let scale = dc_bench::scale();
    dc_bench::banner(
        "broadcast baselines (DataCycle, Broadcast Disks, on-demand pull)",
        "§7 related work",
    );

    let dataset = Dataset::paper_8gb(NODES, 3);
    let mut csv =
        String::from("workload,system,mean_life_s,p95_s,worst_s,throughput_qps,channel_gb\n");

    // Workload 1: uniform access, §5.1 style at a moderate rate.
    let uniform = micro::generate(
        &MicroParams {
            queries_per_second_per_node: 20.0 * scale,
            duration: SimDuration::from_secs(60),
            ..MicroParams::default()
        },
        &dataset,
        NODES,
        41,
    );
    compare("uniform", &dataset, &uniform, &mut csv);

    // Workload 2: the §5.3 Gaussian hot set.
    let gauss = gaussian::generate(
        &GaussianParams {
            base: MicroParams {
                queries_per_second_per_node: 20.0 * scale,
                duration: SimDuration::from_secs(60),
                ..MicroParams::default()
            },
            ..GaussianParams::default()
        },
        &dataset,
        NODES,
        43,
    );
    compare("gaussian", &dataset, &gauss, &mut csv);

    let p = write_csv("baseline_compare.csv", &csv).unwrap();
    println!("\nComparison CSV: {}", p.display());

    push_pull_sweep(&dataset, scale);

    println!(
        "\nReading the comparison (honest trade-offs, not a clean sweep):\n\
         • With a hot set (gaussian), the ring beats whole-database push —\n\
           it circulates only what the workload wants. Under uniform access\n\
           over the full 8 GB there IS no hot set, which is broadcast's best\n\
           case and the ring's worst (4× ring oversubscription, §5.1).\n\
         • Broadcast Disks pay off exactly under skew and *hurt* under\n\
           uniform access — structuring bandwidth around noise starves the\n\
           tail (the classic [1] caveat).\n\
         • Consolidated pull is unbeatable on an idle dedicated channel and\n\
           converges to the push cycle at saturation (the [2] threshold,\n\
           sweep above).\n\
         • What the table cannot show: every broadcast system funnels through\n\
           ONE pump — the ring aggregates n links (Table 4's throughput\n\
           scaling), has no central point, and re-forms its hot set on\n\
           workload change without re-partitioning (Fig. 8)."
    );
}
