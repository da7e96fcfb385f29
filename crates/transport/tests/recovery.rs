//! Crash-recovery acceptance: a three-process `dc-node` ring with data
//! dirs, an INSERT workload, a SIGKILL of the owner mid-workload, and a
//! restart from the same `--data-dir`. Every acknowledged INSERT must be
//! visible to SELECTs from every surviving and revived member.

// The workspace-level shared harness (also used by the concurrency and
// chaos suites in the umbrella crate's `tests/`).
#[path = "../../../tests/support/mod.rs"]
mod support;

use dc_client::Val;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};
use support::{free_addrs, retry_sql, sql, wait_ready};

const BIN: &str = env!("CARGO_BIN_EXE_dc-node");

fn spawn_node(ring_spec: &str, me: usize, sql: SocketAddr, data_dir: &Path) -> Child {
    Command::new(BIN)
        .args([
            "serve",
            "--ring",
            ring_spec,
            "--me",
            &me.to_string(),
            "--sql",
            &sql.to_string(),
            "--data-dir",
            data_dir.to_str().unwrap(),
            "--fsync",
            "off", // the test SIGKILLs the process, not the machine
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn dc-node")
}

/// Owns the node processes and the scratch dir; kills and scrubs both
/// even when an assertion panics.
struct Cluster {
    children: Vec<Option<Child>>,
    scratch: PathBuf,
}

impl Cluster {
    fn data_dir(&self, i: usize) -> PathBuf {
        self.scratch.join(format!("node{i}"))
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        for c in self.children.iter_mut().flatten() {
            let _ = c.kill();
            let _ = c.wait();
        }
        std::fs::remove_dir_all(&self.scratch).ok();
    }
}

#[test]
fn sigkilled_node_recovers_its_data_and_rejoins_the_ring() {
    let ring = free_addrs(3);
    let sqls = free_addrs(3);
    let ring_spec = ring.iter().map(|a| a.to_string()).collect::<Vec<_>>().join(",");
    let scratch = std::env::temp_dir().join(format!("dc_recovery_it_{}", std::process::id()));
    std::fs::remove_dir_all(&scratch).ok();

    let mut cluster = Cluster { children: Vec::new(), scratch };
    for (i, s) in sqls.iter().enumerate() {
        let child = spawn_node(&ring_spec, i, *s, &cluster.data_dir(i));
        cluster.children.push(Some(child));
    }
    for (i, s) in sqls.iter().enumerate() {
        wait_ready(*s, &format!("node {i}"));
    }

    // Owner node 0 creates the table; the DDL gossip replicates.
    sql(sqls[0], "create table logs (k int, msg varchar(16))").unwrap();
    sql(sqls[1], ".wait logs").unwrap();
    sql(sqls[2], ".wait logs").unwrap();

    // INSERT workload on the owner: every returning statement is an
    // acknowledged, WAL-logged row. The SIGKILL lands mid-workload,
    // between acknowledged inserts.
    let mut acked = Vec::new();
    for k in 0..12 {
        sql(sqls[0], &format!("insert into logs values ({k}, 'row{k}')")).unwrap();
        acked.push(k);
        if k == 7 {
            let mut child = cluster.children[0].take().expect("node 0 running");
            child.kill().unwrap();
            child.wait().unwrap();
            break;
        }
    }

    // Restart the owner with the same data dir: recovery replays the
    // WAL, re-advertises sys.logs, and the TCP ring heals around it.
    std::thread::sleep(Duration::from_millis(200));
    cluster.children[0] = Some(spawn_node(&ring_spec, 0, sqls[0], &cluster.data_dir(0)));
    wait_ready(sqls[0], "revived node 0");

    // Every acknowledged row is visible ring-wide: from the revived
    // owner (local disk) and from both survivors (fragments pulled
    // through the healed ring).
    for (i, s) in sqls.iter().enumerate() {
        let rs = retry_sql(*s, "select k from logs order by k", Duration::from_secs(60));
        let rows: Vec<Val> = (0..rs.row_count()).map(|r| rs.cell(r, 0)).collect();
        let want: Vec<Val> = acked.iter().map(|&k| Val::Int(k)).collect();
        assert_eq!(rows, want, "node {i} is missing acknowledged rows:\n{}", rs.render());
    }

    // And the revived ring still takes writes.
    sql(sqls[0], "insert into logs values (100, 'post')").unwrap();
    let rs = retry_sql(sqls[1], "select count(*) from logs", Duration::from_secs(60));
    assert_eq!(rs.cell(0, 0), Val::Lng(acked.len() as i64 + 1), "{}", rs.render());
}

/// §6.4 mutation durability: UPDATEs, DELETEs and INSERTs — issued from
/// *non-owner* nodes, so they travel the ring and come back as typed
/// acks, which the owner sends only after its WAL append — survive a
/// SIGKILL of the owner. Every acknowledged mutation must be visible
/// ring-wide after the owner restarts from its `--data-dir`.
#[test]
fn sigkilled_owner_recovers_acknowledged_mutations() {
    let ring = free_addrs(3);
    let sqls = free_addrs(3);
    let ring_spec = ring.iter().map(|a| a.to_string()).collect::<Vec<_>>().join(",");
    let scratch = std::env::temp_dir().join(format!("dc_recovery_mut_{}", std::process::id()));
    std::fs::remove_dir_all(&scratch).ok();

    let mut cluster = Cluster { children: Vec::new(), scratch };
    for (i, s) in sqls.iter().enumerate() {
        let child = spawn_node(&ring_spec, i, *s, &cluster.data_dir(i));
        cluster.children.push(Some(child));
    }
    for (i, s) in sqls.iter().enumerate() {
        wait_ready(*s, &format!("node {i}"));
    }

    sql(sqls[0], "create table acct (id int, bal int)").unwrap();
    sql(sqls[1], ".wait acct").unwrap();
    sql(sqls[2], ".wait acct").unwrap();
    for k in 0..10 {
        sql(sqls[0], &format!("insert into acct values ({k}, 0)")).unwrap();
    }

    // Mixed mutation workload from the two NON-owner nodes: each
    // statement's ring-routed ack is the durability acknowledgement the
    // oracle holds the revived owner to.
    let mut bal = [0i32; 10];
    for k in 0..6 {
        let rs = sql(sqls[1 + k % 2], &format!("update acct set bal = {} where id = {k}", k * 7))
            .unwrap();
        assert_eq!(rs.affected, Some(1), "update {k}: {}", rs.render());
        bal[k] = (k as i32) * 7;
    }
    let rs = sql(sqls[2], "delete from acct where id = 9").unwrap();
    assert_eq!(rs.affected, Some(1), "{}", rs.render());
    for (node, id) in [(1, 20), (2, 21)] {
        let rs = sql(sqls[node], &format!("insert into acct values ({id}, {})", id * 3)).unwrap();
        assert_eq!(rs.affected, Some(1), "insert at node {node}: {}", rs.render());
    }

    // SIGKILL the owner mid-workload, right after those acks.
    let mut child = cluster.children[0].take().expect("node 0 running");
    child.kill().unwrap();
    child.wait().unwrap();
    std::thread::sleep(Duration::from_millis(200));
    cluster.children[0] = Some(spawn_node(&ring_spec, 0, sqls[0], &cluster.data_dir(0)));
    wait_ready(sqls[0], "revived node 0");

    // Every acknowledged mutation is visible from every node: the six
    // rewritten balances, the deleted row and the two routed rows,
    // nothing else.
    let mut want: Vec<(Val, Val)> =
        (0..9).map(|k| (Val::Int(k), Val::Int(bal[k as usize]))).collect();
    want.extend([20, 21].map(|id| (Val::Int(id), Val::Int(id * 3))));
    for (i, s) in sqls.iter().enumerate() {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let rs = retry_sql(*s, "select id, bal from acct order by id", Duration::from_secs(60));
            let got: Vec<(Val, Val)> =
                (0..rs.row_count()).map(|r| (rs.cell(r, 0), rs.cell(r, 1))).collect();
            if got == want {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "node {i} lost acknowledged mutations:\n{}",
                rs.render()
            );
            std::thread::sleep(Duration::from_millis(200));
        }
    }

    // The revived owner still applies routed mutations.
    let rs = retry_sql(sqls[1], "update acct set bal = 1000 where id = 8", Duration::from_secs(60));
    assert_eq!(rs.affected, Some(1), "{}", rs.render());
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let rs = retry_sql(sqls[2], "select bal from acct where id = 8", Duration::from_secs(60));
        if rs.row_count() == 1 && rs.cell(0, 0) == Val::Int(1000) {
            break;
        }
        assert!(Instant::now() < deadline, "post-recovery update never visible: {}", rs.render());
        std::thread::sleep(Duration::from_millis(200));
    }
}
