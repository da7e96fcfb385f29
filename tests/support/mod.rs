//! Shared harness for the ring-level integration suites (concurrency,
//! chaos, crash recovery): cluster spawners, framed-client workload
//! drivers, and the ring-wide consistency oracle.
//!
//! Compiled into each suite with `mod support;` (or a `#[path]` import
//! from another crate's tests), so helpers unused by one suite are
//! expected.
#![allow(dead_code)]

use datacyclotron::{DcConfig, NodeId, NodeOptions, RingNode, RingTransport};
use dc_client::{Client, ResultSet, Val};
use dc_transport::tcp::join_ring;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub fn free_addrs(n: usize) -> Vec<SocketAddr> {
    let ls: Vec<TcpListener> = (0..n).map(|_| TcpListener::bind("127.0.0.1:0").unwrap()).collect();
    ls.iter().map(|l| l.local_addr().unwrap()).collect()
}

/// An n-node ring with a framed SQL endpoint in front of every node —
/// the same shape `dc-node serve` deploys, in one process.
pub struct Cluster {
    pub nodes: Vec<Arc<RingNode>>,
    pub sql_addrs: Vec<SocketAddr>,
}

/// Spawn a framed SQL server in front of each node, returning the
/// listening addresses in node order.
pub fn spawn_sql_front(nodes: &[Arc<RingNode>]) -> Vec<SocketAddr> {
    let mut sql_addrs = Vec::new();
    for node in nodes {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        sql_addrs.push(listener.local_addr().unwrap());
        dc_transport::sqlserve::spawn_sql_server(listener, Arc::clone(node));
    }
    sql_addrs
}

/// The test-friendly timing profile: fast load/resend cadence.
pub fn test_cfg() -> DcConfig {
    DcConfig {
        load_interval: netsim::SimDuration::from_millis(5),
        resend_timeout: netsim::SimDuration::from_millis(500),
        ..DcConfig::default()
    }
}

/// `n` engine nodes joined into a ring over loopback TCP (30s pin
/// timeout), in node order.
pub fn spawn_tcp_ring(n: usize, cfg: DcConfig) -> Vec<RingNode> {
    let addrs = free_addrs(n);
    let joins: Vec<_> = (0..n)
        .map(|me| {
            let (addrs, cfg) = (addrs.clone(), cfg.clone());
            std::thread::spawn(move || {
                let transport = Arc::new(join_ring(&addrs, me).unwrap()) as Arc<dyn RingTransport>;
                let opts =
                    NodeOptions { cfg, pin_timeout: Duration::from_secs(30), ..Default::default() };
                RingNode::spawn(NodeId(me as u16), transport, opts)
            })
        })
        .collect();
    joins.into_iter().map(|j| j.join().unwrap()).collect()
}

/// An n-node TCP ring with SQL endpoints, using [`test_cfg`].
pub fn spawn_tcp_cluster(n: usize) -> Cluster {
    let nodes: Vec<Arc<RingNode>> =
        spawn_tcp_ring(n, test_cfg()).into_iter().map(Arc::new).collect();
    let sql_addrs = spawn_sql_front(&nodes);
    Cluster { nodes, sql_addrs }
}

/// One statement over a fresh framed-protocol connection (each call
/// proves the target node is accepting and answering sessions).
pub fn sql(addr: SocketAddr, stmt: &str) -> Result<ResultSet, String> {
    let mut session = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    session.set_read_timeout(Some(Duration::from_secs(30))).ok();
    session.query(stmt).map_err(|e| e.to_string())
}

/// Block until something is accepting TCP connections on `addr`.
pub fn wait_ready(addr: SocketAddr, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_ok() {
            return;
        }
        assert!(Instant::now() < deadline, "{what} never began serving SQL on {addr}");
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Queries keep failing while a ring re-settles (around a revived or
/// healing member); retry until the window closes.
pub fn retry_sql(addr: SocketAddr, stmt: &str, window: Duration) -> ResultSet {
    let deadline = Instant::now() + window;
    loop {
        match sql(addr, stmt) {
            Ok(rs) => return rs,
            Err(e) => {
                assert!(Instant::now() < deadline, "`{stmt}` on {addr} kept failing: {e}");
                std::thread::sleep(Duration::from_millis(100));
            }
        }
    }
}

/// One client's deterministic script over its private key range
/// `[cid*1000, cid*1000 + keys)`. Every statement's affected-row count
/// is asserted at acknowledgement time; SELECTs ride along to keep read
/// traffic (ring pins) interleaved with the mutations.
pub fn client_script(addr: SocketAddr, cid: usize, keys: usize) {
    let mut session = Client::connect(addr).unwrap_or_else(|e| panic!("client {cid}: {e}"));
    session.set_read_timeout(Some(Duration::from_secs(60))).ok();
    let q = |s: &mut dc_client::Session, sql: &str| {
        s.query(sql).unwrap_or_else(|e| panic!("client {cid}: `{sql}`: {e}"))
    };
    for k in 0..keys {
        let id = cid * 1000 + k;
        let rs = q(&mut session, &format!("insert into acct values ({id}, 0)"));
        assert_eq!(rs.affected, Some(1), "client {cid}: insert {id}");
        // The UPDATE follows its INSERT clockwise along the same path,
        // so the owner applies them in order and the ack must say 1 —
        // for every client, including the ones on non-owner nodes.
        let rs = q(&mut session, &format!("update acct set bal = {} where id = {id}", id * 2));
        assert_eq!(rs.affected, Some(1), "client {cid}: update {id}");
        if k % 2 == 1 {
            let rs = q(&mut session, &format!("delete from acct where id = {id}"));
            assert_eq!(rs.affected, Some(1), "client {cid}: delete {id}");
        }
        if k % 4 == 0 {
            // Read traffic between mutations; the count is a moving
            // target under concurrency, so only success is asserted.
            q(&mut session, "select count(*) from acct");
        }
    }
    // A whole-range no-op mutation: predicates that miss must ack zero.
    let lo = cid * 1000 + keys;
    let rs = q(&mut session, &format!("delete from acct where id between {lo} and {}", lo + 99));
    assert_eq!(rs.affected, Some(0), "client {cid}: phantom delete");
}

/// Survivors of [`client_script`]: even keys, bal = 2·id.
pub fn expected_rows(clients: usize, keys: usize) -> Vec<(i32, i32)> {
    let mut rows = Vec::new();
    for cid in 0..clients {
        for k in (0..keys).step_by(2) {
            let id = (cid * 1000 + k) as i32;
            rows.push((id, id * 2));
        }
    }
    rows.sort_unstable();
    rows
}

/// Catalog oracle: every node's catalog replica holds the identical
/// (size, version) view of each `acct` column, with versions advanced
/// past zero by the workload's §6.4 bumps.
pub fn catalogs_converged(nodes: &[Arc<RingNode>]) -> Result<(), String> {
    for col in ["id", "bal"] {
        let views: Vec<Option<(u64, u32)>> = nodes
            .iter()
            .map(|n| n.ring_catalog().lookup("sys", "acct", col).map(|f| (f.size, f.version)))
            .collect();
        let first = views[0];
        match first {
            Some((_, version)) if version > 0 => {}
            other => return Err(format!("column {col}: owner view not mutated: {other:?}")),
        }
        if views.iter().any(|v| *v != first) {
            return Err(format!("column {col}: replicas diverge: {views:?}"));
        }
    }
    Ok(())
}

/// Poll [`catalogs_converged`] until it holds or the window closes.
pub fn await_catalog_convergence(nodes: &[Arc<RingNode>], window: Duration) {
    let deadline = Instant::now() + window;
    loop {
        match catalogs_converged(nodes) {
            Ok(()) => return,
            Err(e) => {
                assert!(Instant::now() < deadline, "catalog oracle: {e}");
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
}

/// Final-state oracle: the deterministic `acct` contents, read through a
/// fresh framed connection per node (stale circulating copies settle
/// within a few ring cycles, so poll until the deadline).
pub fn assert_final_state(sql_addrs: &[SocketAddr], want: &[(i32, i32)], window: Duration) {
    for (i, addr) in sql_addrs.iter().enumerate() {
        let deadline = Instant::now() + window;
        loop {
            let mut session = Client::connect(*addr).unwrap();
            session.set_read_timeout(Some(Duration::from_secs(60))).ok();
            let rs = session.query("select id, bal from acct order by id").unwrap();
            let got: Vec<(i32, i32)> = (0..rs.row_count())
                .map(|r| match (rs.cell(r, 0), rs.cell(r, 1)) {
                    (Val::Int(id), Val::Int(bal)) => (id, bal),
                    other => panic!("node {i}: unexpected cell types {other:?}"),
                })
                .collect();
            if got == want {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "node {i} never converged: got {} rows, want {}",
                got.len(),
                want.len()
            );
            std::thread::sleep(Duration::from_millis(100));
        }
    }
}
