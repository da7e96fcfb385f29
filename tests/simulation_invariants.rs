//! Simulation-level invariants and failure injection: every query
//! eventually completes, losses recover through resend + owner-side
//! lost-BAT detection, determinism holds, and the ring respects its
//! capacity.

use dc_workloads::micro::{self, MicroParams};
use dc_workloads::Dataset;
use netsim::SimDuration;
use ringsim::{RingSim, SimParams};

fn workload(
    nodes: usize,
    qps: f64,
    secs: u64,
    seed: u64,
) -> (Dataset, Vec<dc_workloads::QuerySpec>) {
    let ds = Dataset::uniform(60, 300 << 20, 2 << 20, 8 << 20, nodes, seed);
    let qs = micro::generate(
        &MicroParams {
            queries_per_second_per_node: qps,
            duration: SimDuration::from_secs(secs),
            ..MicroParams::default()
        },
        &ds,
        nodes,
        seed + 1,
    );
    (ds, qs)
}

#[test]
fn no_query_starves_under_oversubscription() {
    // Working set (300 MB) ≫ ring capacity (4 × 32 MB): heavy competition
    // for ring space, yet everything must finish (the paper's robustness
    // claim for loadAll + LOIT).
    let nodes = 4;
    let (ds, qs) = workload(nodes, 20.0, 6, 3);
    let total = qs.len();
    let params = SimParams::default().with_queue_capacity(32 << 20);
    let m = RingSim::new(nodes, ds, qs, params).run();
    assert_eq!(m.completed, total, "failed={}, drops={}", m.failed, m.bat_drops);
}

#[test]
fn recovery_from_drop_tail_losses() {
    // A queue small enough to force DropTail on bursts; resend +
    // owner-side lost detection must still drive completion.
    let nodes = 3;
    let (ds, qs) = workload(nodes, 12.0, 5, 9);
    let total = qs.len();
    let mut params = SimParams::default().with_queue_capacity(16 << 20);
    params.dc.resend_timeout = SimDuration::from_millis(800);
    params.dc.lost_after = SimDuration::from_secs(2);
    params.horizon = SimDuration::from_secs(600);
    let m = RingSim::new(nodes, ds, qs, params).run();
    assert_eq!(m.completed, total, "failed={} after drops={}", m.failed, m.bat_drops);
}

#[test]
fn resend_fires_under_loss_and_heals() {
    let nodes = 3;
    let (ds, qs) = workload(nodes, 15.0, 5, 23);
    let total = qs.len();
    let mut params = SimParams::default().with_queue_capacity(12 << 20);
    params.dc.resend_timeout = SimDuration::from_millis(500);
    params.dc.lost_after = SimDuration::from_millis(1500);
    params.horizon = SimDuration::from_secs(900);
    let m = RingSim::new(nodes, ds, qs, params).run();
    assert_eq!(m.completed, total);
    if m.bat_drops > 0 {
        assert!(
            m.stats.requests_resent.get() > 0 || m.stats.bats_lost.get() > 0,
            "losses happened ({}), some recovery path must have fired",
            m.bat_drops
        );
    }
}

#[test]
fn ring_capacity_respected_by_hot_set() {
    let nodes = 4;
    let cap_per_node: u64 = 24 << 20;
    let (ds, qs) = workload(nodes, 20.0, 6, 5);
    let params = SimParams::default().with_queue_capacity(cap_per_node);
    let m = RingSim::new(nodes, ds, qs, params).run();
    let ring_cap = (cap_per_node * nodes as u64) as f64;
    let peak = m.ring_bytes.points.iter().map(|&(_, v)| v).fold(0.0, f64::max);
    assert!(peak <= ring_cap * 1.01, "hot set {peak} exceeded ring capacity {ring_cap}");
    assert!(peak > 0.0, "hot set never formed");
}

#[test]
fn simulation_is_deterministic_across_runs() {
    let run = || {
        let (ds, qs) = workload(3, 8.0, 4, 77);
        RingSim::new(3, ds, qs, SimParams::default().with_queue_capacity(48 << 20)).run()
    };
    let a = run();
    let b = run();
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.lifetimes, b.lifetimes);
    assert_eq!(a.bat_loads, b.bat_loads);
    assert_eq!(a.stats.requests_dispatched.get(), b.stats.requests_dispatched.get());
}

#[test]
fn owner_stats_account_for_served_interest() {
    let nodes = 3;
    let (ds, qs) = workload(nodes, 10.0, 4, 13);
    let m = RingSim::new(nodes, ds, qs, SimParams::default().with_queue_capacity(64 << 20)).run();
    // Every completed query touched all its needs: total touches must be
    // at least the number of deliveries attributed to nodes.
    let touches: u64 = m.bat_touches.iter().sum();
    assert!(touches > 0);
    assert!(m.stats.deliveries.get() > 0);
    let loads: u64 = m.bat_loads.iter().sum();
    assert!(loads > 0, "BATs must have been loaded into the ring");
    // Cycles only advance for loaded BATs.
    for (i, &c) in m.bat_max_cycles.iter().enumerate() {
        if c > 0 {
            assert!(m.bat_loads[i] > 0, "bat {i} cycled without loading");
        }
    }
}

#[test]
fn larger_ring_changes_latency_profile() {
    // Constant total workload on 3 vs 6 nodes (same data): the bigger
    // ring spreads queues but lengthens the path; both must complete.
    let ds3 = Dataset::uniform(60, 300 << 20, 2 << 20, 8 << 20, 3, 21);
    let qs3 = micro::generate(
        &MicroParams {
            queries_per_second_per_node: 12.0,
            duration: SimDuration::from_secs(4),
            ..MicroParams::default()
        },
        &ds3,
        3,
        22,
    );
    let m3 =
        RingSim::new(3, ds3.clone(), qs3, SimParams::default().with_queue_capacity(48 << 20)).run();

    let ds6 = ds3.redistribute(6, 21);
    let qs6 = micro::generate(
        &MicroParams {
            queries_per_second_per_node: 6.0,
            duration: SimDuration::from_secs(4),
            ..MicroParams::default()
        },
        &ds6,
        6,
        22,
    );
    let m6 = RingSim::new(6, ds6, qs6, SimParams::default().with_queue_capacity(48 << 20)).run();

    assert_eq!(m3.failed, 0);
    assert_eq!(m6.failed, 0);
    assert!(m3.completed > 0 && m6.completed > 0);
}
