//! Multi-client concurrency acceptance: N framed-protocol clients
//! hammer a 3-node TCP ring with a mixed INSERT/UPDATE/DELETE/SELECT
//! workload, then a ring-wide consistency oracle verifies that
//!
//! 1. every acknowledged mutation's affected-row count was correct at
//!    the moment the owner applied it (asserted per statement),
//! 2. every node's catalog replica converges to identical table
//!    (size, version) views — the §6.4 version bumps re-advertised by
//!    the owner reach everyone, and
//! 3. the acknowledged final state is visible from every node.
//!
//! Clients mutate disjoint key ranges, so the final table contents are
//! deterministic even though statements from six connections interleave
//! arbitrarily at the owner. Cross-range interference would show up as
//! wrong affected counts or wrong survivors — exactly the failure modes
//! concurrent distributed evaluation breeds (Beame et al.; Ameloot et
//! al.).
//!
//! The cluster spawners, workload scripts, and oracles live in
//! `tests/support/` and are shared with the chaos and recovery suites.
//!
//! The `#[ignore]`d soak variant runs the same oracle over a larger
//! fleet for longer: `cargo test --test concurrency -- --ignored`.

mod support;

use dc_client::{Client, Val};
use std::time::{Duration, Instant};

fn run_mixed_workload(clients_per_node: usize, keys: usize) {
    let cluster = support::spawn_tcp_cluster(3);

    // DDL once, on node 0 (the owner of every fragment); replicate.
    let mut session = Client::connect(cluster.sql_addrs[0]).unwrap();
    session.query("create table acct (id int, bal int)").unwrap();
    for addr in &cluster.sql_addrs {
        let mut s = Client::connect(*addr).unwrap();
        s.query(".wait acct").unwrap();
    }

    let n_clients = clients_per_node * 3;
    let mut joins = Vec::new();
    for cid in 0..n_clients {
        let addr = cluster.sql_addrs[cid % 3];
        joins.push(std::thread::spawn(move || support::client_script(addr, cid, keys)));
    }
    for j in joins {
        j.join().expect("client thread panicked");
    }

    // Oracle 2: catalog replicas converge on (size, version).
    support::await_catalog_convergence(&cluster.nodes, Duration::from_secs(30));

    // Oracle 3: acknowledged mutations visible from every node.
    let want = support::expected_rows(n_clients, keys);
    support::assert_final_state(&cluster.sql_addrs, &want, Duration::from_secs(60));
}

#[test]
fn mixed_workload_from_many_clients_converges_ring_wide() {
    // 6 clients (2 per node), 8 keys each: ~150 mutations, a third of
    // them routed through the ring to the owner.
    run_mixed_workload(2, 8);
}

/// The `dc.stats` SQL surface is the node's registry: a framed
/// `SELECT name, value FROM dc.stats` returns every counter and gauge the
/// registry holds, name-sorted, with the value it holds. Read in process
/// just before and just after the framed read, each row must equal one
/// of the two: the probe itself moves a few of them on either side of the
/// moment the view is taken (its frame in and its compile before, its
/// statement count and reply after). Ring traffic can move others
/// between the reads, so the comparison retries until a clean triple
/// lands.
#[test]
fn dc_stats_over_framed_connection_matches_node_stats() {
    let cluster = support::spawn_tcp_cluster(3);

    // Drive a little real traffic so the compared counters are nonzero.
    let mut session = Client::connect(cluster.sql_addrs[0]).unwrap();
    session.query("create table acct (id int, bal int)").unwrap();
    for addr in &cluster.sql_addrs {
        let mut s = Client::connect(*addr).unwrap();
        s.query(".wait acct").unwrap();
    }
    let mut remote = Client::connect(cluster.sql_addrs[1]).unwrap();
    remote.query("insert into acct values (1, 10)").unwrap();
    remote.query("update acct set bal = 20 where id = 1").unwrap();
    // A projection off the ring (an aggregate would run at the owner).
    remote.query("select id, bal from acct").unwrap();

    let obs = cluster.nodes[1].obs();
    let mut probe = Client::connect(cluster.sql_addrs[1]).unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let before = obs.stats();
        let rs = probe.query("select name, value from dc.stats").unwrap();
        let after = obs.stats();
        let over_wire: Vec<(String, i64)> = (0..rs.row_count())
            .map(|r| match (rs.cell(r, 0), rs.cell(r, 1)) {
                (Val::Str(name), Val::Lng(value)) => (name, value),
                other => panic!("unexpected dc.stats cell types {other:?}"),
            })
            .collect();
        let names =
            |rows: &[(String, i64)]| rows.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
        assert_eq!(names(&over_wire), names(&before), "dc.stats is the registry, name-sorted");
        assert_eq!(names(&after), names(&before), "the probe registered nothing");
        let held = |i: usize| [before[i].1, after[i].1].contains(&over_wire[i].1);
        if (0..over_wire.len()).all(held) {
            assert!(
                over_wire.iter().any(|(n, v)| n == "deliveries" && *v > 0),
                "workload left no deliveries: {over_wire:?}"
            );
            break;
        }
        assert!(
            Instant::now() < deadline,
            "dc.stats never matched the registry:\n wire {over_wire:?}\n before {before:?}\n after {after:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The long variant: triple the fleet, 5× the keys per client — minutes,
/// not seconds, so it only runs when asked for explicitly:
/// `cargo test --test concurrency -- --ignored`.
#[test]
#[ignore = "soak test: run with --ignored"]
fn soak_mixed_workload_large_fleet() {
    run_mixed_workload(6, 40);
}
