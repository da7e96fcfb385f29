use super::*;
use crate::config::DcConfig;
use crate::ids::node_frag_id;
use crate::node::{NodeOptions, Ring, RingNode};
use crate::transport::mem;
use batstore::{Column, Val};
use crossbeam::channel::{unbounded, Sender};

/// The first column of `rs`, as integers.
fn ints(rs: &ResultSet) -> Vec<i64> {
    (0..rs.row_count()).map(|r| rs.cell(r, 0).as_i64().expect("an integer cell")).collect()
}

/// Every row of `rs`, as cells.
fn rows(rs: &ResultSet) -> Vec<Vec<Val>> {
    (0..rs.row_count()).map(|r| (0..rs.column_count()).map(|c| rs.cell(r, c)).collect()).collect()
}

fn demo_ring(n: usize) -> Ring {
    let ring = Ring::builder(n)
        .config(DcConfig {
            load_interval: netsim::SimDuration::from_millis(5),
            resend_timeout: netsim::SimDuration::from_millis(500),
            ..DcConfig::default()
        })
        .pin_timeout(Duration::from_secs(20))
        .build();
    ring.load_table("sys", "t", vec![("id", Column::from(vec![1, 2, 3]))]).unwrap();
    ring.load_table(
        "sys",
        "c",
        vec![
            ("t_id", Column::from(vec![2, 2, 3, 9])),
            ("amount", Column::from(vec![10, 20, 30, 40])),
        ],
    )
    .unwrap();
    ring
}

#[test]
fn paper_query_end_to_end_on_ring() {
    let ring = demo_ring(3);
    let rs = ring.execute(0, "select c.t_id from t, c where c.t_id = t.id order by t_id");
    assert_eq!(ints(&rs.unwrap()), [2, 2, 3]);
}

#[test]
fn every_node_can_execute() {
    let ring = demo_ring(4);
    for i in 0..4 {
        let rs = ring.execute(i, "select amount from c where amount >= 30 order by amount");
        assert_eq!(ints(&rs.unwrap()), [30, 40], "node {i}");
    }
}

#[test]
fn repeated_queries_share_templates() {
    let ring = demo_ring(2);
    let template_stats = |i: usize| {
        let node = ring.node(i);
        (node.counter("obs_template_hits").unwrap(), node.counter("obs_template_misses").unwrap())
    };
    // Each node keeps its own cache, keyed by statement shape: the
    // first statement of a shape compiles, and a statement differing
    // only in its constants is a hit that binds its own values — it
    // must return its own rows, not the cached statement's.
    ring.execute(0, "select amount from c where amount >= 10").unwrap();
    ring.execute(1, "select amount from c where amount >= 10").unwrap();
    assert_eq!((template_stats(0), template_stats(1)), ((0, 1), (0, 1)), "one cache per node");
    let rs = ring.execute(1, "select amount from c where amount >= 35").unwrap();
    assert_eq!(template_stats(1), (1, 1), "same shape, other constant: a hit");
    assert_eq!(ints(&rs), [40], "own constants");
    assert_eq!(ring.node(1).obs().gauge_value("obs_template_entries"), Some(1));
    // A compile error is not cached; a later success of that shape is.
    assert!(ring.execute(1, "select x from ghost where x = 1").is_err());
    assert_eq!(template_stats(1), (1, 1), "the failed compile left no entry");
    ring.execute(1, "create table ghost (x int)").unwrap();
    ring.execute(1, "insert into ghost values (1), (2)").unwrap();
    let rs = ring.execute(1, "select x from ghost where x = 1").unwrap();
    assert_eq!(rs.row_count(), 1);
    let before = template_stats(1);
    let rs = ring.execute(1, "select x from ghost where x = 2").unwrap();
    assert_eq!(rs.cell(0, 0), batstore::Val::Int(2));
    assert_eq!(template_stats(1), (before.0 + 1, before.1), "now a cached shape");
}

#[test]
fn plan_shaping_numbers_stay_in_the_template_key() {
    let ring = demo_ring(1);
    let misses = || ring.node(0).counter("obs_template_misses").unwrap();
    let amounts = |sql: &str| ints(&ring.execute(0, sql).unwrap());
    // LIMIT is compiled into the plan (a slice bound), not bound.
    assert_eq!(amounts("select amount from c order by amount limit 2"), [10, 20]);
    assert_eq!(amounts("select amount from c order by amount limit 3"), [10, 20, 30]);
    assert_eq!(misses(), 2, "limit 2 and limit 3 are different templates");
    // So is an IN list's length: one selection per element.
    let in2 = "select amount from c where amount in (10, 40) order by amount";
    let in3 = "select amount from c where amount in (10, 20, 40) order by amount";
    assert_eq!(amounts(in2), [10, 40]);
    assert_eq!(amounts(in3), [10, 20, 40]);
    assert_eq!(misses(), 4, "2- and 3-element IN lists are different templates");
    // Equal arity with other values is the same template.
    let other = "select amount from c where amount in (30, 20, 10) order by amount";
    assert_eq!(amounts(other), [10, 20, 30]);
    assert_eq!(misses(), 4);
}

#[test]
fn missing_table_fails_cleanly() {
    let ring = demo_ring(2);
    assert!(ring.execute(0, "select x from ghost").is_err());
}

#[test]
fn execute_returns_typed_results() {
    let ring = demo_ring(2);
    // SELECT: named, typed columns — no string parsing anywhere.
    let rs = ring.execute(1, "select amount from c where amount >= 30 order by amount").unwrap();
    assert_eq!((rs.column_count(), rs.row_count()), (1, 2));
    assert_eq!(rs.columns[0].name, "amount");
    assert_eq!(rs.columns[0].col_type(), batstore::ColType::Int);
    assert_eq!(rs.cell(0, 0), batstore::Val::Int(30));
    assert_eq!(rs.cell(1, 0), batstore::Val::Int(40));
    // DDL and DML report through the same type.
    let rs = ring.execute(0, "create table ev (k int)").unwrap();
    assert!(rs.info.as_deref().unwrap_or("").contains("created"), "{rs:?}");
    let rs = ring.execute(0, "insert into ev values (1), (2), (3)").unwrap();
    assert_eq!(rs.affected, Some(3));
    // Aggregates carry their declared type even for small values.
    let rs = ring.execute(0, "select count(*) from ev").unwrap();
    assert_eq!(rs.columns[0].col_type(), batstore::ColType::Lng);
    assert_eq!(rs.columns[0].sql_type, "lng");
    // Errors surface with their message.
    let err = ring.execute(0, "select x from ghost").unwrap_err();
    assert!(err.message().contains("ghost"), "{err:?}");
}

#[test]
fn single_node_ring_works() {
    let ring = demo_ring(1);
    let rs = ring
        .execute(0, "select amount from c where amount between 15 and 35 order by amount")
        .unwrap();
    assert_eq!(ints(&rs), [20, 30]);
}

#[test]
fn explain_shows_dc_rewrite() {
    let ring = demo_ring(2);
    let (plan, dc) = ring.explain_sql(1, "select c.t_id from t, c where c.t_id = t.id").unwrap();
    assert!(plan.contains("sql.bind"), "{plan}");
    // The front-end plan carries none of the DC rewrite
    // (request/pin/unpin) — that is the optimizer's.
    assert!(!plan.contains("datacyclotron."), "{plan}");
    assert!(dc.contains("datacyclotron.request"), "{dc}");
    assert!(dc.contains("datacyclotron.pin"), "{dc}");
    assert!(dc.contains("datacyclotron.unpin"), "{dc}");
}

/// EXPLAIN renders the optimized plan a statement runs, CSE
/// included (a column projected twice is fetched once).
#[test]
fn explain_shows_the_plan_that_runs() {
    let ring = demo_ring(1);
    for sql in [
        "select id, id from t",
        "select distinct id, id from t",
        "select c.t_id, c.t_id from t, c where c.t_id = t.id",
    ] {
        let (_, explained) = ring.explain_sql(0, sql).unwrap();
        let (runs, _) = ring.node(0).hooks.compile(sql).unwrap();
        assert_eq!(explained, runs.to_string(), "{sql}");
    }
}

#[test]
fn distinct_and_in_list_over_ring() {
    let ring = demo_ring(3);
    let rs = ring.execute(1, "select distinct t_id from c order by t_id").unwrap();
    assert_eq!(ints(&rs), [2, 3, 9]);
    let rs = ring.execute(2, "select amount from c where t_id in (2, 9) order by amount").unwrap();
    assert_eq!(ints(&rs), [10, 20, 40]);
}

#[test]
fn group_by_multiple_columns_over_ring() {
    let ring = Ring::builder(2).build();
    ring.load_table(
        "sys",
        "pairs",
        vec![
            ("a", Column::from(vec!["x", "x", "y", "x"])),
            ("b", Column::from(vec![1, 1, 1, 2])),
            ("v", Column::from(vec![10, 20, 30, 40])),
        ],
    )
    .unwrap();
    let rs = ring.execute(0, "select a, b, sum(v) from pairs group by a, b").unwrap();
    assert_eq!(rs.row_count(), 3, "{rs:?}");
    let x1 = rows(&rs).into_iter().find(|r| r[..2] == [Val::from("x"), Val::from(1)]);
    assert_eq!(x1.and_then(|r| r[2].as_i64()), Some(30), "x,1 sums to 30: {rs:?}");
}

#[test]
fn concurrent_queries_from_all_nodes() {
    let ring = Arc::new(demo_ring(3));
    let mut joins = Vec::new();
    for i in 0..3 {
        for _ in 0..4 {
            let r = Arc::clone(&ring);
            joins.push(std::thread::spawn(move || {
                r.execute(i, "select c.t_id from t, c where c.t_id = t.id").unwrap()
            }));
        }
    }
    for j in joins {
        let rs = j.join().unwrap();
        assert_eq!(ints(&rs).iter().filter(|&&v| v == 2).count(), 2);
    }
}

#[test]
fn create_insert_select_on_ring() {
    let ring = demo_ring(3);
    let rs = ring.execute(0, "create table logs (k int, msg varchar(16))").unwrap();
    assert!(rs.info.as_deref().unwrap_or("").contains("created"), "{rs:?}");
    // The DDL gossip replicates; other nodes soon compile against it.
    ring.node(2).wait_for_table_timeout("sys", "logs", Duration::from_secs(5)).unwrap();
    let rs = ring.execute(0, "insert into logs values (1, 'boot'), (2, 'ready')").unwrap();
    assert_eq!(rs.affected, Some(2));
    // Owner-local read-your-writes.
    let rs = ring.execute(0, "select msg from logs where k = 2").unwrap();
    assert_eq!(rows(&rs), [[Val::from("ready")]]);
    // A remote node pulls the fresh fragments through the ring.
    let rs = ring.execute(2, "select k, msg from logs order by k").unwrap();
    assert_eq!(rows(&rs), [[Val::from(1), Val::from("boot")], [Val::from(2), Val::from("ready")]]);
}

#[test]
fn update_delete_on_owner_node() {
    let ring = demo_ring(2);
    ring.execute(0, "create table acct (id int, bal lng, tag varchar(8))").unwrap();
    ring.execute(0, "insert into acct values (1, 10, 'a'), (2, 20, 'b'), (3, 30, 'a')").unwrap();
    let rs = ring.execute(0, "update acct set bal = 99 where tag = 'a'").unwrap();
    assert_eq!(rs.affected, Some(2));
    let rs = ring.execute(0, "select id, bal from acct order by id").unwrap();
    assert_eq!(rs.cell(0, 1), batstore::Val::Lng(99));
    assert_eq!(rs.cell(1, 1), batstore::Val::Lng(20));
    let rs = ring.execute(0, "delete from acct where id = 2").unwrap();
    assert_eq!(rs.affected, Some(1));
    let rs = ring.execute(0, "select count(*) from acct").unwrap();
    assert_eq!(rs.cell(0, 0), batstore::Val::Lng(2));
    // Mutations bumped the owner's fragment versions and the owner's
    // catalog replica saw the update synchronously.
    let info = ring.node(0).ring_catalog().lookup("sys", "acct", "bal").unwrap();
    assert!(info.version >= 2, "update + delete each bump: {info:?}");
}

#[test]
fn remote_mutation_routes_to_owner_and_acks_count() {
    let ring = demo_ring(3);
    ring.execute(0, "create table kv (k int, v int)").unwrap();
    ring.node(2).wait_for_table_timeout("sys", "kv", Duration::from_secs(5)).unwrap();
    ring.execute(0, "insert into kv values (1, 10), (2, 20), (3, 30)").unwrap();
    // Node 2 owns nothing: the logical mutation travels the ring to
    // node 0, is applied there, and the ack carries the real count.
    let rs = ring.execute(2, "update kv set v = 7 where k >= 2").unwrap();
    assert_eq!(rs.affected, Some(2), "remote UPDATE must return the owner's count");
    let rs = ring.execute(0, "select k, v from kv order by k").unwrap();
    assert_eq!(rs.cell(1, 1), batstore::Val::Int(7));
    let rs = ring.execute(1, "delete from kv where v = 7").unwrap();
    assert_eq!(rs.affected, Some(2));
    let rs = ring.execute(0, "select count(*) from kv").unwrap();
    assert_eq!(rs.cell(0, 0), batstore::Val::Lng(1));
    // A remote mutation matching nothing still acks zero.
    let rs = ring.execute(2, "delete from kv where k = 777").unwrap();
    assert_eq!(rs.affected, Some(0));
}

#[test]
fn mutation_errors_surface_at_the_origin() {
    let ring = demo_ring(2);
    // Unknown table fails at compile time on the origin.
    assert!(ring.execute(1, "update ghost set a = 1").is_err());
    // Mixed-owner table: the round-robin loaded `c` cannot be
    // mutated atomically.
    let err = ring.execute(0, "update c set amount = 1 where t_id = 2").unwrap_err();
    assert!(err.to_string().contains("multiple nodes"), "{err}");
    let err = ring.execute(1, "delete from c").unwrap_err();
    assert!(err.to_string().contains("multiple nodes"), "{err}");
    // Type errors detected at the owner surface in the ack.
    ring.execute(0, "create table typed (n int)").unwrap();
    ring.node(1).wait_for_table_timeout("sys", "typed", Duration::from_secs(5)).unwrap();
    ring.execute(0, "insert into typed values (1)").unwrap();
    let err = ring.execute(1, "update typed set n = 'oops'").unwrap_err();
    assert!(err.to_string().contains("type"), "{err}");
    // … and even when the WHERE clause matches nothing: a statement
    // that can never apply must not quietly ack zero.
    let err = ring.execute(1, "update typed set n = 'oops' where n = 777").unwrap_err();
    assert!(err.to_string().contains("type"), "{err}");
}

#[test]
fn mutation_readvertises_versions_ring_wide() {
    let ring = demo_ring(3);
    ring.execute(0, "create table seq (v int)").unwrap();
    for n in 1..3 {
        ring.node(n).wait_for_table_timeout("sys", "seq", Duration::from_secs(5)).unwrap();
    }
    ring.execute(0, "insert into seq values (1), (2), (3)").unwrap();
    ring.execute(1, "update seq set v = 9 where v = 2").unwrap();
    // The owner re-gossips (size, version); every replica converges.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let views: Vec<Option<(u64, u32)>> = (0..3)
            .map(|i| {
                ring.node(i).ring_catalog().lookup("sys", "seq", "v").map(|f| (f.size, f.version))
            })
            .collect();
        let owner = views[0];
        if owner.is_some_and(|(_, v)| v >= 2) && views.iter().all(|v| *v == owner) {
            break;
        }
        assert!(Instant::now() < deadline, "replicas never converged: {views:?}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

// ---- durability: data-dir recovery -----------------------------------

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("dc_engine_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    d
}

/// A single durable node over the in-process fabric (a one-node ring
/// is a self-loop), checkpointing every `checkpoint_bytes` of WAL.
/// Under a `mem_budget` its coldest owned fragments spill to the data
/// dir.
fn durable_node(dir: &std::path::Path, checkpoint_bytes: u64, mem_budget: Option<u64>) -> RingNode {
    let t = mem::ring(1).pop().expect("one node");
    RingNode::spawn(
        NodeId(0),
        Arc::new(t) as Arc<dyn RingTransport>,
        NodeOptions {
            cfg: DcConfig {
                load_interval: netsim::SimDuration::from_millis(5),
                resend_timeout: netsim::SimDuration::from_millis(500),
                ..DcConfig::default()
            },
            pin_timeout: Duration::from_secs(10),
            data_dir: Some(
                crate::config::DataDir::new(dir)
                    .fsync(crate::config::FsyncPolicy::Off)
                    .checkpoint_wal_bytes(checkpoint_bytes),
            ),
            mem_budget,
            ..NodeOptions::default()
        },
    )
}

#[test]
fn node_recovers_tables_and_rows_from_data_dir() {
    let dir = scratch_dir("recover");
    let node = durable_node(&dir, 16 << 20, None);
    node.execute("create table logs (k int, msg varchar(16))").unwrap();
    node.execute("insert into logs values (1, 'boot'), (2, 'ready')").unwrap();
    node.execute("insert into logs values (3, 'steady')").unwrap();
    node.shutdown();

    // Everything came back from disk: catalog, rows, and versions.
    let node = durable_node(&dir, 16 << 20, None);
    let rs = node.execute("select k, msg from logs order by k").unwrap();
    let want = [(1, "boot"), (2, "ready"), (3, "steady")];
    assert_eq!(rows(&rs), want.map(|(k, msg)| [Val::from(k), Val::from(msg)]));
    // The engine keeps working durably: appends and fresh DDL use
    // fragment ids beyond the recovered ones.
    node.execute("insert into logs values (4, 'again')").unwrap();
    node.execute("create table other (x int)").unwrap();
    node.execute("insert into other values (42)").unwrap();
    node.shutdown();

    let node = durable_node(&dir, 16 << 20, None);
    let rs = node.execute("select count(*) from logs").unwrap();
    assert_eq!(ints(&rs), [4]);
    let rs = node.execute("select x from other").unwrap();
    assert_eq!(ints(&rs), [42]);
    node.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn node_recovers_mutations_from_data_dir() {
    let dir = scratch_dir("recover_mut");
    let node = durable_node(&dir, 16 << 20, None);
    node.execute("create table acct (id int, bal int)").unwrap();
    node.execute("insert into acct values (1, 10), (2, 20), (3, 30)").unwrap();
    node.execute("update acct set bal = 99 where id in (1, 3)").unwrap();
    node.execute("delete from acct where id = 2").unwrap();
    node.shutdown();

    let node = durable_node(&dir, 16 << 20, None);
    let rs = node.execute("select id, bal from acct order by id").unwrap();
    assert_eq!(rows(&rs), [[1, 99], [3, 99]].map(|r| r.map(Val::from)));
    // And keeps mutating durably after recovery.
    node.execute("update acct set bal = 1 where id = 3").unwrap();
    node.shutdown();
    let node = durable_node(&dir, 16 << 20, None);
    let rs = node.execute("select bal from acct where id = 3").unwrap();
    assert_eq!(ints(&rs), [1]);
    node.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mutations_interleaved_with_checkpoints_recover_exactly() {
    let dir = scratch_dir("mut_overlap");
    // 1-byte threshold: a checkpoint after every mutation, maximal
    // checkpoint/WAL overlap on recovery.
    let node = durable_node(&dir, 1, None);
    node.execute("create table seq (v int)").unwrap();
    for i in 0..10 {
        node.execute(&format!("insert into seq values ({i})")).unwrap();
    }
    node.execute("update seq set v = 100 where v between 0 and 4").unwrap();
    node.execute("delete from seq where v = 100").unwrap();
    node.shutdown();

    let node = durable_node(&dir, 1, None);
    let rs = node.execute("select count(*) from seq").unwrap();
    assert_eq!(ints(&rs), [5], "exactly the five non-rewritten rows survive");
    node.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn empty_data_dir_starts_clean() {
    let dir = scratch_dir("empty");
    let node = durable_node(&dir, 16 << 20, None);
    assert!(node.execute("select x from ghost").is_err());
    node.execute("create table t (x int)").unwrap();
    node.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoint_and_wal_tail_overlap_recovers_exactly_once() {
    let dir = scratch_dir("overlap");
    // A 1-byte threshold checkpoints after every mutation, so the
    // run interleaves checkpoints with WAL appends constantly.
    let node = durable_node(&dir, 1, None);
    node.execute("create table seq (v int)").unwrap();
    for i in 0..20 {
        node.execute(&format!("insert into seq values ({i})")).unwrap();
    }
    node.shutdown();

    let node = durable_node(&dir, 1, None);
    let rs = node.execute("select count(*) from seq").unwrap();
    assert_eq!(ints(&rs), [20], "no lost or double-applied appends");
    node.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_wal_tail_recovers_the_prefix() {
    let dir = scratch_dir("torn");
    let node = durable_node(&dir, 16 << 20, None);
    node.execute("create table t (x int)").unwrap();
    node.execute("insert into t values (1), (2)").unwrap();
    node.shutdown();

    // Simulate a crash mid-append: garbage at the end of the newest
    // WAL generation (`wal-<gen>.log`, the generation zero-padded).
    let newest = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.file_name().unwrap().to_string_lossy().starts_with("wal-"))
        .max()
        .expect("a WAL generation");
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new().append(true).open(newest).unwrap();
    f.write_all(&[77, 0, 0, 0, 1, 2, 3]).unwrap();
    drop(f);

    let node = durable_node(&dir, 16 << 20, None);
    let rs = node.execute("select count(*) from t").unwrap();
    assert_eq!(ints(&rs), [2], "prefix before the tear intact");
    // A write after the torn recovery survives the next restart: the
    // startup checkpoint moved replay past the torn generation, so the
    // next recovery does not stop at the tear before reaching it.
    node.execute("insert into t values (3)").unwrap();
    node.shutdown();

    let node = durable_node(&dir, 16 << 20, None);
    let rs = node.execute("select count(*) from t").unwrap();
    assert_eq!(ints(&rs), [3], "the write after the tear is back");
    node.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn wal_latency_histograms_survive_rotation() {
    let dir = scratch_dir("wal_hists");
    let t = mem::ring(1).pop().expect("one node");
    let data_dir = crate::config::DataDir::new(&dir)
        .fsync(crate::config::FsyncPolicy::Always)
        .checkpoint_wal_bytes(1);
    let opts = NodeOptions { data_dir: Some(data_dir), ..NodeOptions::default() };
    let node = RingNode::spawn(NodeId(0), Arc::new(t) as Arc<dyn RingTransport>, opts);
    node.execute("create table t (x int)").unwrap();
    // Every append is due a checkpoint; each one rotates the WAL.
    for i in 0..200 {
        if node.counter("checkpoints").unwrap() >= 2 {
            break;
        }
        node.execute(&format!("insert into t values ({i})")).unwrap();
    }
    assert!(node.counter("checkpoints").unwrap() >= 2, "the WAL never rotated twice");
    let count = |name| node.obs().histogram(name).snapshot().count;
    let records = node.counter("wal_records").unwrap();
    assert_eq!(count("wal_append_us"), records, "every append timed, rotated or not");
    assert!(count("wal_fsync_us") >= records, "every record synced under `Always`");
    node.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn random_mutations_survive_a_drop_cell_for_cell_and_version_for_version() {
    random_mutations_survive_a_drop("random_mutations", None);
}

/// The same stream under a 1-byte budget: every fragment a statement
/// moved spills dirty — writing its own version's file — before the
/// next statement runs, and between checkpoints.
#[test]
fn random_mutations_under_a_budget_survive_a_drop_cell_for_cell_and_version_for_version() {
    random_mutations_survive_a_drop("random_mutations_budget", Some(1));
}

/// A durable one-node ring takes a seeded stream of INSERTs, UPDATEs
/// (one and two assignments, `=`/BETWEEN/IN, `str` columns) and
/// DELETEs over a created and a bulk-loaded table, checkpointing
/// every few statements, and is dropped without a `shutdown`. The
/// respawned node holds every cell, and every fragment at its version.
fn random_mutations_survive_a_drop(tag: &str, mem_budget: Option<u64>) {
    let dir = scratch_dir(tag);
    let node = durable_node(&dir, 2048, mem_budget);
    node.execute("create table acct (id int, bal lng, tag varchar(8))").unwrap();
    let tags: Vec<String> = (0..40).map(|i| format!("b{}", i % 4)).collect();
    let tags: Vec<&str> = tags.iter().map(String::as_str).collect();
    let cols = vec![("k", Column::from((0..40).collect::<Vec<i32>>())), ("s", Column::from(tags))];
    node.load_table("sys", "bulk", cols).unwrap();
    node.wait_for_table_timeout("sys", "bulk", Duration::from_secs(5)).unwrap();
    let mut rng = netsim::DetRng::new(0x5eed_0022);
    let mut spilled_past_v0 = false;
    for _ in 0..80 {
        let (a, b, n) = (rng.index(12), rng.index(12), rng.uniform_u64(0, 999));
        let sql = match rng.index(6) {
            0 | 1 => format!("insert into acct values ({a}, {n}, 't{}')", b % 3),
            2 => format!("update acct set bal = {n} where id = {a}"),
            3 => {
                format!("update acct set bal = {n}, tag = 'u{b}' where id between {a} and {b}")
            }
            4 => format!("delete from acct where tag in ('t{}', 'u{b}')", a % 3),
            _ => format!("update bulk set s = 'x{n}' where k >= {}", a * 3 + b),
        };
        node.execute(&sql).unwrap();
        let snap = node.hotset().unwrap();
        assert_residency_adds_up(&node, &snap);
        spilled_past_v0 |= snap.rows.iter().any(|r| r.state == "spilled" && r.version > 0);
    }
    assert_eq!(spilled_past_v0, mem_budget.is_some(), "a mutated fragment spilled");
    let state = |node: &RingNode| {
        // No ORDER BY: rows in storage order, which must match too.
        let cells = ["select id, bal, tag from acct", "select k, s from bulk"]
            .map(|q| rows(&node.execute(q).unwrap()));
        let versions: Vec<(BatId, u32, u64)> =
            node.hotset().unwrap().rows.iter().map(|r| (r.bat, r.version, r.size)).collect();
        (cells, versions)
    };
    let before = state(&node);
    assert!(before.1.iter().any(|(_, v, _)| *v > 5), "the stream moved versions: {before:?}");
    assert!(node.counter("checkpoints").unwrap() > 0, "no checkpoint interleaved");
    drop(node);

    let node = durable_node(&dir, 2048, mem_budget);
    assert_eq!(state(&node), before);
    node.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A node's residency totals are its hot-set rows' sizes, split by
/// whether the row is spilled, and `obs_hotset_spilled_frags` counts
/// the spilled rows.
fn assert_residency_adds_up(node: &RingNode, snap: &HotsetSnapshot) {
    let spilled: Vec<&HotsetRow> = snap.rows.iter().filter(|r| r.state == "spilled").collect();
    let spilled_bytes: u64 = spilled.iter().map(|r| r.size).sum();
    let resident_bytes = snap.rows.iter().map(|r| r.size).sum::<u64>() - spilled_bytes;
    assert_eq!((snap.resident_bytes, snap.spilled_bytes), (resident_bytes, spilled_bytes));
    let gauge = node.obs().gauge_value("obs_hotset_spilled_frags");
    assert_eq!(gauge, Some(spilled.len() as i64), "{snap:?}");
}

/// A bulk load may name nothing SQL could not: a name too long for its
/// `u16` length field was once logged cut mid-char, and the record that
/// no longer decoded read as a torn tail — every durable table after it
/// was gone on the next restart.
#[test]
fn an_over_long_name_is_refused_and_later_tables_survive_a_restart() {
    let dir = scratch_dir("long_name");
    let node = durable_node(&dir, 16 << 20, None);
    let long = format!("{}é", "c".repeat(65_534));
    for (schema, table, column) in
        [(long.as_str(), "t", "c"), ("sys", long.as_str(), "c"), ("sys", "t", long.as_str())]
    {
        let err = node.load_table(schema, table, vec![(column, Column::from(vec![1]))]);
        assert!(err.unwrap_err().to_string().contains("65536 bytes (max 1024)"));
    }
    node.load_table("sys", "u", vec![("x", Column::from(vec![5, 6]))]).unwrap();
    node.shutdown();

    let node = durable_node(&dir, 16 << 20, None);
    assert_eq!(ints(&node.execute("select count(*) from u").unwrap()), [2]);
    assert!(node.execute("select count(*) from t").is_err(), "nothing of t was loaded");
    node.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// `Ring::load_table` takes each column's id from its owner's
/// allocator, which a restart resumes past every recovered id: a
/// table loaded after a restart leaves the ones loaded before intact.
#[test]
fn tables_loaded_across_restarts_keep_their_own_fragments() {
    let dir = scratch_dir("load_restart");
    let build =
        || Ring::builder(2).data_dir_root(&dir).fsync(crate::config::FsyncPolicy::Off).build();
    let load = |ring: &Ring, t: &str, a: Vec<i32>, b: Vec<i32>| {
        let cols = vec![("a", Column::from(a)), ("b", Column::from(b))];
        ring.load_table("sys", t, cols).unwrap();
    };
    let check = |ring: &Ring, tables: &[(&str, [[i32; 2]; 2])]| {
        for (t, want) in tables {
            for node in 0..2 {
                let rs = ring.execute(node, &format!("select a, b from {t} order by a"));
                assert_eq!(rows(&rs.unwrap()), want.map(|r| r.map(Val::from)), "{t} at {node}");
            }
        }
    };
    let before = ("before", [[1, 10], [2, 20]]);
    let after = ("after", [[7, 70], [8, 80]]);

    let ring = build();
    load(&ring, before.0, vec![1, 2], vec![10, 20]);
    ring.shutdown();
    let ring = build();
    load(&ring, after.0, vec![7, 8], vec![70, 80]);
    check(&ring, &[before, after]);
    ring.shutdown();
    let ring = build();
    check(&ring, &[before, after]);
    ring.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A node defines a name once. An advert naming other fragments for a
/// table it knows — here `sys.t (b varchar)` from node 2, over the
/// node's own `sys.t (a int)` — changes nothing the node answers,
/// before or after a checkpoint cut past it and a restart.
#[test]
fn a_conflicting_advert_changes_nothing_before_or_after_a_restart() {
    let dir = scratch_dir("conflict");
    // A 1-byte trigger: every logged record brings a checkpoint on.
    let node = durable_node(&dir, 1, None);
    node.execute("create table t (a int)").unwrap();
    node.execute("insert into t values (1), (2)").unwrap();
    let b = CatalogCol {
        name: "b".into(),
        ty: batstore::ColType::Str,
        bat: node_frag_id(NodeId(2), 1),
        size: 0,
        owner: NodeId(2),
        version: 0,
    };
    let other =
        CatalogMsg { origin: NodeId(2), schema: "sys".into(), table: "t".into(), columns: vec![b] };
    node.hooks.send(Cmd::PublishTable { table: other, gossip: false }).unwrap();
    let check = |node: &RingNode| {
        assert_eq!(ints(&node.execute("select a from t order by a").unwrap()), [1, 2]);
        assert!(node.explain_sql("select b from t").is_err(), "t(b) compiles");
        assert!(node.execute("select b from t").is_err());
    };
    // `hotset` queues behind the advert: it has been handled.
    node.hotset().unwrap();
    check(&node);
    let refused = node.obs().trace_events().into_iter().filter(|e| e.event == "gossip_refused");
    assert_eq!(refused.count(), 1);

    // Log something else, so a checkpoint is cut after the advert;
    // shutdown waits for the one submitted.
    let cut = node.counter("checkpoints").unwrap();
    node.execute("create table u (x int)").unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while node.counter("checkpoints").unwrap() <= cut {
        assert!(Instant::now() < deadline, "no checkpoint after the advert");
        node.hotset().unwrap();
        std::thread::sleep(Duration::from_millis(5));
    }
    node.shutdown();

    let node = durable_node(&dir, 1, None);
    check(&node);
    node.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn data_dir_of_another_node_refused() {
    let dir = scratch_dir("foreign");
    let node = durable_node(&dir, 16 << 20, None);
    node.execute("create table t (x int)").unwrap();
    node.shutdown();

    let t = mem::ring(1).pop().expect("one node");
    let spawned = RingNode::try_spawn(
        NodeId(3),
        Arc::new(t) as Arc<dyn RingTransport>,
        NodeOptions { data_dir: Some(crate::config::DataDir::new(&dir)), ..NodeOptions::default() },
    );
    let err = spawned.err().expect("foreign data dir must be refused");
    assert!(err.contains("belongs to node 0"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn an_invalid_config_is_an_error_not_a_panic() {
    let t = mem::ring(1).pop().expect("one node");
    let cfg = DcConfig { loit_levels: vec![], ..DcConfig::default() };
    let opts = NodeOptions { cfg, ..NodeOptions::default() };
    let spawned = RingNode::try_spawn(NodeId(0), Arc::new(t) as Arc<dyn RingTransport>, opts);
    let err = spawned.err().expect("an empty LOIT ladder must be refused");
    assert!(err.contains("loit_levels"), "{err}");
}

// ---- hot-set management: spill and re-admission -----------------------

/// The sorted names under `dir/bats`.
fn bat_files(dir: &std::path::Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir.join("bats"))
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

/// `obs_persist_errors`, as `dc.stats` shows it.
fn persist_errors(node: &RingNode) -> i64 {
    let rs = node.execute("select name, value from dc.stats").unwrap();
    (0..rs.row_count())
        .find(|&r| rs.cell(r, 0) == Val::from("obs_persist_errors"))
        .and_then(|r| rs.cell(r, 1).as_i64())
        .expect("obs_persist_errors in dc.stats")
}

#[test]
fn tiny_budget_spills_and_readmits_on_demand() {
    let dir = scratch_dir("budget");
    let node = durable_node(&dir, 16 << 20, Some(1));
    node.execute("create table cold (k int, v int)").unwrap();
    node.execute("insert into cold values (1, 10), (2, 20), (3, 30)").unwrap();

    // A 1-byte budget makes every owned fragment excess: both columns
    // write their version's file (the bat file IS the at-rest format)
    // and drop their in-memory payloads.
    let deadline = Instant::now() + Duration::from_secs(10);
    while node.counter("loi_evictions").unwrap() < 2 {
        assert!(Instant::now() < deadline, "fragments never spilled");
        std::thread::sleep(Duration::from_millis(10));
    }
    let snap = node.hotset().unwrap();
    assert!(
        snap.rows.iter().any(|r| r.state == "spilled"),
        "hotset view shows no spilled fragment: {:?}",
        snap.rows
    );
    assert!(snap.spilled_bytes > 0, "spilled bytes gauge never moved: {snap:?}");

    // Querying the evicted table re-admits its fragments from disk
    // and answers with the correct typed rows.
    let rs = node.execute("select k, v from cold order by k").unwrap();
    assert_eq!(rows(&rs), [[1, 10], [2, 20], [3, 30]].map(|r| r.map(Val::from)));
    assert!(node.counter("loi_readmits").unwrap() >= 1, "re-admission not counted");

    // Appends against spilled fragments re-admit first, then apply.
    node.execute("insert into cold values (4, 40)").unwrap();
    node.shutdown();

    // Restart with the same budget: spilled fragments recover from
    // the files their spills' records name, the WAL tail replays, and
    // queries still answer correctly.
    let node = durable_node(&dir, 16 << 20, Some(1));
    let rs = node.execute("select count(*) from cold").unwrap();
    assert_eq!(ints(&rs), [4]);
    let rs = node.execute("select v from cold where k = 4").unwrap();
    assert_eq!(ints(&rs), [40]);
    node.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn read_only_evict_readmit_cycle_writes_nothing() {
    const ROWS: i32 = 1000;
    let dir = scratch_dir("clean_spill");
    // Room for three of the four columns: one table fits, two do not.
    let col_bytes = Bat::dense(Column::from(vec![0i32; ROWS as usize])).byte_size() as u64;
    let budget = Some(3 * col_bytes);
    let node = durable_node(&dir, 16 << 20, budget);
    for t in ["a", "b"] {
        let (k, v): (Vec<i32>, Vec<i32>) = (0..ROWS).map(|i| (i, 2 * i)).unzip();
        node.load_table("sys", t, vec![("k", Column::from(k)), ("v", Column::from(v))]).unwrap();
    }
    // Read only once the loop has handled everything before it
    // (`hotset` queues behind it) or has stopped: a checkpoint starts
    // on the loop, and shutdown joins the checkpointer writing it.
    let obs = Arc::clone(node.obs());
    let checkpoints = || obs.counter_value("checkpoints").unwrap();
    let written = || obs.counter_value("obs_checkpoint_frags_written").unwrap();
    let sum_k: i64 = (0..ROWS as i64).sum();
    let sweep = |node: &RingNode, bump_a: i64| {
        for (t, bump) in [("a", bump_a), ("b", 0)] {
            let rs = node.execute(&format!("select sum(k), sum(v) from {t}")).unwrap();
            assert_eq!(rows(&rs), [[sum_k + bump, 2 * sum_k].map(Val::from)], "table {t}");
        }
    };

    // Each load wrote its fragment's version-0 file, so the initial
    // spill is already clean: it drops the coldest at once.
    let deadline = Instant::now() + Duration::from_secs(10);
    while node.hotset().unwrap().resident_bytes > 3 * col_bytes {
        assert!(Instant::now() < deadline, "initial spill never settled");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(bat_files(&dir).len(), 4);

    // Alternating reads evict and re-admit on every sweep; through
    // the load, the spill and all of it, no checkpoint runs and no
    // fragment file is written again.
    let moves = || (node.counter("loi_evictions").unwrap(), node.counter("loi_readmits").unwrap());
    let before = moves();
    for _ in 0..10 {
        sweep(&node, 0);
    }
    node.hotset().unwrap();
    let after = moves();
    assert_eq!(checkpoints(), 0, "a clean spill forced a checkpoint");
    assert!(after.0 >= before.0 + 10 && after.1 >= before.1 + 10, "{before:?} → {after:?}");
    assert_eq!(written(), 0, "a fragment version was written twice");

    // An UPDATE moves one column to v1 (`a.k`, the lowest id and so
    // the victim of every sweep). Its next spill is dirty and writes
    // the v1 file itself: still no checkpoint, and the v0 file stays
    // until a checkpoint's GC collects it (the bytes written count
    // toward that checkpoint's trigger; see the next test).
    node.execute("update a set k = 5000 where k = 3").unwrap();
    let moved = node.hotset().unwrap().rows.iter().find(|r| r.version == 1).unwrap().bat;
    let (old, new) = (format!("{}.v0.bat", moved.0), format!("{}.v1.bat", moved.0));
    let deadline = Instant::now() + Duration::from_secs(10);
    while !bat_files(&dir).contains(&new) {
        sweep(&node, 5000 - 3);
        assert!(Instant::now() < deadline, "v1 never spilled: {:?}", bat_files(&dir));
    }
    let files = bat_files(&dir);
    assert!(files.contains(&old) && files.len() == 5, "{files:?}");
    node.shutdown();
    assert_eq!(checkpoints(), 0, "a dirty spill forced a checkpoint");
    assert_eq!(written(), 0, "a checkpoint wrote a fragment file");

    // After a restart the startup checkpoint names v1 — a file it
    // finds, so it writes none — and its GC leaves only that one.
    let node = durable_node(&dir, 16 << 20, budget);
    let files = bat_files(&dir);
    assert!(files.contains(&new) && !files.contains(&old) && files.len() == 4, "{files:?}");
    assert_eq!(node.counter("obs_checkpoint_frags_written"), Some(0));
    sweep(&node, 5000 - 3);
    node.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A dirty spill leaves the file of the version before it on disk
/// until a checkpoint's GC, so the file it writes counts toward the
/// checkpoint trigger: one-row INSERTs into a column that spills after
/// every statement keep checkpoints coming, and a handful of that
/// column's files are ever on disk, not one per statement.
#[test]
fn dirty_spills_trigger_the_checkpoints_that_collect_their_predecessors() {
    const ROWS: i32 = 4096;
    const INSERTS: i32 = 60;
    let dir = scratch_dir("dirty_gc");
    // Four spilled versions of the column fill the WAL-bytes trigger.
    let col_bytes = Bat::dense(Column::from(vec![0i32; ROWS as usize])).byte_size() as u64;
    let node = durable_node(&dir, 4 * col_bytes, Some(1));
    node.load_table("sys", "log", vec![("k", Column::from((0..ROWS).collect::<Vec<_>>()))])
        .unwrap();
    node.wait_for_table_timeout("sys", "log", Duration::from_secs(5)).unwrap();
    for i in 0..INSERTS {
        node.execute(&format!("insert into log values ({})", ROWS + i)).unwrap();
    }
    // The last INSERT's spill follows its ack; `hotset` queues behind it.
    node.hotset().unwrap();
    assert!(node.counter("loi_evictions").unwrap() >= INSERTS as u64);
    assert!(node.counter("checkpoints").unwrap() > 0, "dirty spills never triggered one");
    // Once the last checkpoint settles, the files left are the version
    // it names and those spilled since, fewer than the trigger's four.
    let deadline = Instant::now() + Duration::from_secs(10);
    while bat_files(&dir).len() > 5 {
        assert!(Instant::now() < deadline, "superseded files leaked: {:?}", bat_files(&dir));
        std::thread::sleep(Duration::from_millis(5));
    }
    drop(node);

    let node = durable_node(&dir, 4 * col_bytes, Some(1));
    let rs = node.execute("select count(*), sum(k) from log").unwrap();
    let n = (ROWS + INSERTS) as i64;
    assert_eq!(rows(&rs), [[n, n * (n - 1) / 2].map(Val::from)]);
    node.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_load_whose_file_cannot_be_written_is_counted_and_never_dropped() {
    let dir = scratch_dir("load_error");
    // A 1-byte budget: both columns are excess the moment they load.
    let node = durable_node(&dir, 16 << 20, Some(1));
    let (blocked, clean) = (node_frag_id(node.id, 1), node_frag_id(node.id, 2));
    // Tests run as root, so a read-only directory would not stop the
    // write; a directory where the temp file goes does.
    let obstruction = dir.join("bats").join(format!(".{}.v0.bat.tmp", blocked.0));
    std::fs::create_dir(&obstruction).unwrap();
    let cols = vec![("k", Column::from(vec![1, 2, 3])), ("v", Column::from(vec![10, 20, 30]))];
    node.load_table("sys", "t", cols).unwrap();

    // The durable column's spill is clean and drops it at once; the
    // other's spill tries to write its file, which the obstruction
    // fails — so it is never dropped.
    spills_while_the_other_stays(&node, clean, blocked);
    // The load's write failed (counted before the loop answered the
    // hot-set look above), and so does every spill's retry of it.
    assert!(persist_errors(&node) >= 1);
    let rs = node.execute("select k, v from t order by k").unwrap();
    assert_eq!(rows(&rs), [[1, 10], [2, 20], [3, 30]].map(|r| r.map(Val::from)));
    node.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_dirty_spill_whose_file_cannot_be_written_is_counted_and_never_dropped() {
    let dir = scratch_dir("spill_error");
    let node = durable_node(&dir, 16 << 20, Some(1));
    let (blocked, clean) = (node_frag_id(node.id, 1), node_frag_id(node.id, 2));
    let obstruction = dir.join("bats").join(format!(".{}.v1.bat.tmp", blocked.0));
    std::fs::create_dir(&obstruction).unwrap();
    // The INSERT moves both columns to v1, which has no file yet: each
    // spill has to write its own, and one of them cannot.
    node.execute("create table d (k int, v int)").unwrap();
    node.execute("insert into d values (1, 10), (2, 20), (3, 30)").unwrap();
    spills_while_the_other_stays(&node, clean, blocked);
    let versions: Vec<u32> = node.hotset().unwrap().rows.iter().map(|r| r.version).collect();
    assert_eq!(versions, [1, 1]);
    assert!(persist_errors(&node) >= 1);
    assert!(!bat_files(&dir).contains(&format!("{}.v1.bat", blocked.0)));
    let want = [[1, 10], [2, 20], [3, 30]].map(|r| r.map(Val::from));
    let rs = node.execute("select k, v from d order by k").unwrap();
    assert_eq!(rows(&rs), want);
    node.shutdown();

    // The WAL still holds the INSERT: a restart rebuilds the column.
    std::fs::remove_dir(&obstruction).unwrap();
    let node = durable_node(&dir, 16 << 20, Some(1));
    let rs = node.execute("select k, v from d order by k").unwrap();
    assert_eq!(rows(&rs), want);
    node.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Wait until `spills` is spilled, asserting on every look that
/// `stays` — a fragment whose file cannot be written — is not.
fn spills_while_the_other_stays(node: &RingNode, spills: BatId, stays: BatId) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let snap = node.hotset().unwrap();
        let state = |bat| snap.rows.iter().find(|r| r.bat == bat).map(|r| r.state);
        assert_ne!(state(stays), Some("spilled"), "a version that never reached disk dropped");
        if state(spills) == Some("spilled") {
            return;
        }
        assert!(Instant::now() < deadline, "{spills} never spilled: {:?}", snap.rows);
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A node without a data dir has nowhere to spill to: it neither
/// enforces a memory budget nor reports one.
#[test]
fn a_diskless_node_neither_holds_nor_reports_a_budget() {
    let t = mem::ring(1).pop().expect("one node");
    let opts = NodeOptions { mem_budget: Some(1), ..NodeOptions::default() };
    let node = RingNode::spawn(NodeId(0), Arc::new(t) as Arc<dyn RingTransport>, opts);
    node.load_table("sys", "t", vec![("x", Column::from(vec![3, 1, 2]))]).unwrap();
    node.wait_for_table_timeout("sys", "t", Duration::from_secs(10)).unwrap();
    assert_eq!(ints(&node.execute("select x from t order by x").unwrap()), [1, 2, 3]);
    let snap = node.hotset().unwrap();
    assert_eq!(snap.mem_budget, None);
    assert_eq!(snap.spilled_bytes, 0);
    assert_eq!(node.counter("loi_evictions"), Some(0));
    node.shutdown();
}

#[test]
fn mixed_owner_insert_rejected() {
    // Demo table `c` was round-robin loaded: its two columns have
    // different owners, so a split (non-atomic) append is refused.
    let ring = demo_ring(2);
    let err = ring.execute(0, "insert into c values (5, 50)").unwrap_err();
    assert!(err.to_string().contains("multiple nodes"), "{err}");
}

#[test]
fn remote_insert_routes_to_owner() {
    let ring = demo_ring(2);
    ring.execute(0, "create table kv (k int, v int)").unwrap();
    ring.node(1).wait_for_table_timeout("sys", "kv", Duration::from_secs(5)).unwrap();
    // Node 1 does not own the fragments: the INSERT travels the ring
    // to node 0, which applies it (§6.4) before it acknowledges.
    let rs = ring.execute(1, "insert into kv values (7, 70)").unwrap();
    assert_eq!(rs.affected, Some(1));
    let rs = ring.execute(0, "select v from kv where k = 7").unwrap();
    assert_eq!(ints(&rs), [70], "acknowledged, so applied at the owner");
}

/// A fabric member that hands the test every frame its node sends, on
/// either edge, and lets the test play the rest of the ring.
struct Tap {
    sent: Sender<DcMsg>,
    sink: parking_lot::Mutex<Option<crate::transport::Sink>>,
}

impl Tap {
    /// A node over a new tap, and what the tap hands on.
    fn node() -> (RingNode, Arc<Tap>, crossbeam::channel::Receiver<DcMsg>) {
        let (tx, sent) = unbounded();
        let tap = Arc::new(Tap { sent: tx, sink: Default::default() });
        (RingNode::spawn(NodeId(0), tap.clone(), NodeOptions::default()), tap, sent)
    }

    fn deliver(&self, msg: DcMsg) {
        (self.sink.lock().as_mut().expect("attached"))(msg)
    }
}

impl RingTransport for Tap {
    fn send_data(&self, msg: DcMsg) -> Result<(), crate::transport::TransportError> {
        let _ = self.sent.send(msg);
        Ok(())
    }
    fn send_request(&self, msg: DcMsg) -> Result<(), crate::transport::TransportError> {
        let _ = self.sent.send(msg);
        Ok(())
    }
    fn recv(&self) -> Option<DcMsg> {
        None
    }
    fn attach(&self, sink: crate::transport::Sink) {
        *self.sink.lock() = Some(sink);
    }
    fn close(&self) {
        self.sink.lock().take();
    }
}

#[test]
fn an_owner_encodes_every_payload_send_and_holds_its_bat_alone() {
    let (node, tap, sent) = Tap::node();
    let column = Column::from(vec![1, 2, 3]);
    let want = storage::bat_to_bytes(&Bat::dense(column.clone()));
    node.load_table("sys", "t", vec![("x", column)]).unwrap();
    node.wait_for_table_timeout("sys", "t", Duration::from_secs(10)).unwrap();
    let bat = node.ring_catalog().lookup("sys", "t", "x").unwrap().bat;
    let ask = || tap.deliver(DcMsg::Request(crate::msg::ReqMsg { origin: NodeId(1), bat }));
    let next_payload = || loop {
        match sent.recv_timeout(Duration::from_secs(10)).expect("a frame") {
            DcMsg::Bat { header, payload: Some(bytes) } => return (header, bytes),
            _ => continue,
        }
    };

    // Asked by node 1, the owner loads the fragment, bytes attached;
    // asked again while the header is out, the header's return leaves
    // with them once more.
    ask();
    let (header, first) = next_payload();
    ask();
    tap.deliver(DcMsg::Bat { header, payload: None });
    let (_, second) = next_payload();
    assert_eq!((&first[..], &second[..]), (&want[..], &want[..]));
    assert_ne!(first.as_ptr(), second.as_ptr(), "each send encodes its own buffer");

    // What the owner holds for the fragment is its `Bat`, nothing more.
    let pin = |reply| Cmd::Pin { query: QueryId(1), bat, reply };
    let cell = node.hooks.ask(pin, "no pin").unwrap();
    assert_eq!(format!("{cell:?}"), "Frag::Bat(3 rows)");
    node.shutdown();
}

/// Publish at `node` a table `sys.far (y int)` that node 1 owns, and wait
/// until the node's catalog holds it. Behind a tap nothing plays node 1,
/// so a pin of its fragment waits for a frame that never comes.
fn far_table(node: &RingNode) -> BatId {
    let bat = node_frag_id(NodeId(1), 1);
    let y = CatalogCol {
        name: "y".into(),
        ty: batstore::ColType::Int,
        bat,
        size: 12,
        owner: NodeId(1),
        version: 0,
    };
    let far = CatalogMsg {
        origin: NodeId(1),
        schema: "sys".into(),
        table: "far".into(),
        columns: vec![y],
    };
    node.hooks.send(Cmd::PublishTable { table: far, gossip: false }).unwrap();
    node.wait_for_table_timeout("sys", "far", Duration::from_secs(10)).unwrap();
    bat
}

/// Wait until the node asks the ring for `bat`, then a little longer: the
/// statement that asked pins it right after its requests, and the pause
/// lets that pin reach the loop before the test stops it. Nothing outside
/// the loop sees a pin wait, so no barrier can stand in for the pause; a
/// pin that reaches a stopped loop fails at once all the same.
fn await_request(sent: &crossbeam::channel::Receiver<DcMsg>, bat: BatId) {
    loop {
        match sent.recv_timeout(Duration::from_secs(10)).expect("a request") {
            DcMsg::Request(r) if r.bat == bat => break,
            _ => continue,
        }
    }
    std::thread::sleep(Duration::from_millis(100));
}

/// A node that stops answers the statement blocked on its pin at once,
/// not when the pin's 30 s timeout runs out.
#[test]
fn a_select_blocked_on_a_pin_fails_at_once_when_its_node_stops() {
    let (node, _tap, sent) = Tap::node();
    assert_eq!(NodeOptions::default().pin_timeout, Duration::from_secs(30));
    let bat = far_table(&node);
    std::thread::scope(|s| {
        let select = s.spawn(|| node.execute("select y from far"));
        await_request(&sent, bat);
        node.hooks.send(Cmd::Shutdown).unwrap();
        let stopped = Instant::now();
        let err = select.join().unwrap().unwrap_err();
        assert!(stopped.elapsed() < Duration::from_secs(1), "waited {:?}", stopped.elapsed());
        assert!(err.message().contains("ring node is down"), "{err}");
    });
    node.shutdown();
}

/// Stopping an owner whose pushed-SELECT runner is blocked in such a pin
/// returns at once, and the runner has ended: it held the node's handle,
/// and nothing else does.
#[test]
fn stopping_an_owner_joins_its_runner_blocked_in_a_pin() {
    let (node, tap, sent) = Tap::node();
    node.load_table("sys", "own", vec![("x", Column::from(vec![1, 2, 3]))]).unwrap();
    node.wait_for_table_timeout("sys", "own", Duration::from_secs(10)).unwrap();
    let bat = far_table(&node);
    let (schema, table) = ("sys".into(), "own".into());
    let sql = "select count(*) from own, far where own.x = far.y".into();
    let stmt = RoutedStmt::Select { schema, table, sql };
    tap.deliver(DcMsg::Routed(RoutedMsg {
        origin: NodeId(1),
        epoch: 1,
        id: 1,
        settled_below: 1,
        stmt,
    }));
    await_request(&sent, bat);
    let starts = node.obs().trace_events().into_iter().filter(|e| e.event == trace::START);
    assert_eq!(starts.count(), 1, "the runner took the SELECT up");
    let hooks = Arc::clone(&node.hooks);
    let stopping = Instant::now();
    node.shutdown();
    assert!(stopping.elapsed() < Duration::from_secs(1), "waited {:?}", stopping.elapsed());
    assert_eq!(Arc::strong_count(&hooks), 1, "the runner still holds the node's handle");
}
