//! The full SQL stack over the TCP transport: three engine nodes, each
//! with its own event loop, catalogs, and fragment stores, speaking only
//! length-prefixed frames to their ring neighbors — the acceptance
//! scenario of a genuinely distributed deployment.
//!
//! DDL replicates by catalog gossip, INSERTs route row batches to the
//! fragment owners (§6.4), and SELECTs on any node pull the fragments
//! through the ring.

use batstore::{Column, ResultSet, Val};
use datacyclotron::{DcConfig, NodeId, NodeOptions, RingNode, RingTransport};
use dc_client::{Client, ClientError};
use dc_transport::tcp::join_ring;
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn free_addrs(n: usize) -> Vec<SocketAddr> {
    let ls: Vec<TcpListener> = (0..n).map(|_| TcpListener::bind("127.0.0.1:0").unwrap()).collect();
    ls.iter().map(|l| l.local_addr().unwrap()).collect()
}

fn spawn_tcp_ring(n: usize) -> Vec<RingNode> {
    let addrs = free_addrs(n);
    let mut joins = Vec::new();
    for me in 0..n {
        let addrs = addrs.clone();
        joins.push(std::thread::spawn(move || {
            let transport = Arc::new(join_ring(&addrs, me).unwrap()) as Arc<dyn RingTransport>;
            let opts = NodeOptions {
                cfg: DcConfig {
                    load_interval: netsim::SimDuration::from_millis(5),
                    resend_timeout: netsim::SimDuration::from_millis(500),
                    ..DcConfig::default()
                },
                pin_timeout: Duration::from_secs(20),
                ..NodeOptions::default()
            };
            RingNode::spawn(NodeId(me as u16), transport, opts)
        }));
    }
    joins.into_iter().map(|j| j.join().unwrap()).collect()
}

/// Every row of `rs`, as cells.
fn rows(rs: &ResultSet) -> Vec<Vec<Val>> {
    (0..rs.row_count()).map(|r| (0..rs.column_count()).map(|c| rs.cell(r, c)).collect()).collect()
}

#[test]
fn insert_and_select_across_tcp_nodes() {
    let nodes = spawn_tcp_ring(3);

    // DDL on node 0; the catalog gossip replicates over TCP.
    let rs = nodes[0].execute("create table kv (k int, v varchar(16))").unwrap();
    assert!(rs.info.as_deref().unwrap_or("").contains("created"), "{rs:?}");
    for n in &nodes[1..] {
        n.wait_for_table_timeout("sys", "kv", Duration::from_secs(10)).unwrap();
    }

    // INSERT through sqlfront → MAL → ring on the owner node.
    let rs = nodes[0].execute("insert into kv values (1, 'hello'), (2, 'ring')").unwrap();
    assert_eq!(rs.affected, Some(2));

    // SELECT on every node, including the two that hold no data: their
    // pins block until the fragments flow past over TCP.
    for n in &nodes {
        let rs = n.execute("select k, v from kv order by k").unwrap();
        assert_eq!(
            rows(&rs),
            [[Val::from(1), Val::from("hello")], [Val::from(2), Val::from("ring")]],
            "node {}",
            n.id
        );
    }

    // A remote INSERT: node 2 does not own the fragments, so the row
    // batch travels the ring to node 0 and is applied there.
    let rs = nodes[2].execute("insert into kv values (3, 'tcp')").unwrap();
    assert_eq!(rs.affected, Some(1));
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let rs = nodes[1].execute("select v from kv where k = 3").unwrap();
        if rows(&rs) == [[Val::from("tcp")]] {
            break;
        }
        assert!(Instant::now() < deadline, "remote append never became visible: {rs:?}");
        std::thread::sleep(Duration::from_millis(20));
    }

    for n in nodes {
        n.shutdown();
    }
}

/// Integers compare as integers, at every layer a `bigint` key passes
/// through. 2^53 + 1 and 2^53 + 3 are not `f64`s: compared as floats
/// (as every select and every UPDATE/DELETE predicate once was) each
/// equals its even neighbour, so `WHERE id = 9007199254740993` would
/// return — and a DELETE erase — two rows. Node 0 owns the table (its
/// statements apply locally); node 2 owns nothing (its mutations are
/// routed to node 0, its SELECTs pull the fragments off the ring).
#[test]
fn bigint_keys_above_2_pow_53_compare_exactly_local_and_routed() {
    const BASE: i64 = 1 << 53;
    let nodes = spawn_tcp_ring(3);
    nodes[0].execute("create table big (id bigint, v int)").unwrap();
    nodes[2].wait_for_table_timeout("sys", "big", Duration::from_secs(10)).unwrap();
    let values: Vec<String> = (0..6).map(|i| format!("({}, {i})", BASE + i)).collect();
    let rs = nodes[0].execute(&format!("insert into big values {}", values.join(", "))).unwrap();
    assert_eq!(rs.affected, Some(6));

    let v_where = |node: &RingNode, pred: &str| -> Vec<Val> {
        let rs = node.execute(&format!("select v from big where {pred} order by v")).unwrap();
        (0..rs.row_count()).map(|r| rs.cell(r, 0)).collect()
    };
    for node in [&nodes[0], &nodes[2]] {
        assert_eq!(v_where(node, &format!("id = {}", BASE + 1)), [Val::Int(1)], "{}", node.id);
        assert_eq!(v_where(node, &format!("id > {BASE}")).len(), 5, "{}", node.id);
        assert_eq!(v_where(node, &format!("id <> {}", BASE + 3)).len(), 5, "{}", node.id);
        let between = format!("id between {} and {}", BASE + 1, BASE + 3);
        assert_eq!(v_where(node, &between), [Val::Int(1), Val::Int(2), Val::Int(3)], "{}", node.id);
    }

    // UPDATE and DELETE of one odd key each, at the owner and routed to it.
    for (node, key) in [(&nodes[0], BASE + 1), (&nodes[2], BASE + 3)] {
        let rs = node.execute(&format!("update big set v = 100 where id = {key}")).unwrap();
        assert_eq!(rs.affected, Some(1), "update of {key} on {}", node.id);
    }
    let rs = nodes[0].execute("select id from big where v = 100 order by id").unwrap();
    assert_eq!(rows(&rs), [[Val::Lng(BASE + 1)], [Val::Lng(BASE + 3)]]);
    for (node, key) in [(&nodes[0], BASE + 1), (&nodes[2], BASE + 3)] {
        let rs = node.execute(&format!("delete from big where id = {key}")).unwrap();
        assert_eq!(rs.affected, Some(1), "delete of {key} on {}", node.id);
    }
    let rs = nodes[0].execute("select id, v from big order by id").unwrap();
    let survivors: Vec<Vec<Val>> =
        [0, 2, 4, 5].iter().map(|&i| vec![Val::Lng(BASE + i), Val::Int(i as i32)]).collect();
    assert_eq!(rows(&rs), survivors, "each DELETE erased its own row and no neighbour");

    for n in nodes {
        n.shutdown();
    }
}

/// `LIMIT 0` and aggregates over zero qualifying rows, asked of the
/// owner, of a node that owns nothing (its columns come off the ring) and
/// of a single-node ring: no row for `limit 0` with the typed columns
/// intact; one row of zeros for `count`/`sum`; and for `avg`/`min`/`max`,
/// whose answer would be NULL, one and the same error text on every path.
#[test]
fn limit_zero_and_aggregates_over_nothing_answer_alike_on_every_path() {
    let nodes = spawn_tcp_ring(3);
    let single = datacyclotron::Ring::builder(1).build();
    let setup = [
        "create table m (a int, b bigint, s varchar(8))",
        "insert into m values (1, 10, 'x'), (2, 20, 'y'), (3, 30, 'x')",
    ];
    for stmt in setup {
        nodes[0].execute(stmt).unwrap();
        single.execute(0, stmt).unwrap();
    }
    nodes[2].wait_for_table_timeout("sys", "m", Duration::from_secs(10)).unwrap();
    type Run<'a> = &'a dyn Fn(&str) -> Result<ResultSet, datacyclotron::DcError>;
    let paths: [(&str, Run<'_>); 3] = [
        ("owner", &|sql| nodes[0].execute(sql)),
        ("non-owner", &|sql| nodes[2].execute(sql)),
        ("single node", &|sql| single.execute(0, sql)),
    ];

    for (path, run) in paths {
        for sql in ["select a, s from m limit 0", "select a, s from m order by a desc limit 0"] {
            let rs = run(sql).unwrap();
            assert_eq!((rs.row_count(), rs.column_count()), (0, 2), "{sql} on the {path}");
            let types: Vec<_> = rs.columns.iter().map(|c| c.col_type()).collect();
            assert_eq!(
                types,
                [batstore::ColType::Int, batstore::ColType::Str],
                "{sql} on the {path}"
            );
        }
        let rs = run("select count(*), sum(b) from m where a > 100").unwrap();
        assert_eq!(rows(&rs), [[Val::Lng(0), Val::Lng(0)]], "{path}");
        let rs = run("select s, avg(b), max(a) from m where a > 100 group by s").unwrap();
        assert_eq!((rs.row_count(), rs.column_count()), (0, 3), "{path}");
        // With rows, the same statements answer as ever.
        let rs = run("select count(*), sum(b), avg(b), min(s), max(a) from m where a > 1").unwrap();
        assert_eq!(
            rows(&rs),
            [[Val::Lng(2), Val::Lng(50), Val::Dbl(25.0), Val::from("x"), Val::Int(3)]],
            "{path}"
        );
    }
    for f in ["avg", "min", "max"] {
        let sql = format!("select count(*), sum(b), {f}(b) from m where a > 100");
        let errors: Vec<String> = paths
            .iter()
            .map(|(path, run)| match run(&sql) {
                Err(e @ datacyclotron::DcError::Exec(_)) => e.to_string(),
                other => panic!("{sql} on the {path}: {other:?}"),
            })
            .collect();
        let why = format!("{f} over zero rows is NULL, which this engine cannot represent");
        assert!(errors[0].contains(&why), "{}", errors[0]);
        assert!(errors.iter().all(|e| *e == errors[0]), "{errors:?}");
    }

    for n in nodes {
        n.shutdown();
    }
    single.shutdown();
}

/// Routed mutations served from a template hit (§3.2): node 2 owns
/// nothing, so its INSERTs and UPDATEs travel the ring to node 0. Only
/// the first statement of each shape compiles; every later one binds its
/// own literals to the cached plan and must apply those — not the cached
/// statement's — exactly once at the owner.
#[test]
fn routed_mutations_from_template_hits_apply_their_own_values_once() {
    let nodes = spawn_tcp_ring(3);
    nodes[0].execute("create table kv (k int, v varchar(16))").unwrap();
    nodes[2].wait_for_table_timeout("sys", "kv", Duration::from_secs(10)).unwrap();

    let count = |i: usize, name: &str| nodes[i].counter(name).unwrap();
    let template_stats = || (count(2, "obs_template_hits"), count(2, "obs_template_misses"));
    for (k, v) in [(1, "one"), (2, "two"), (3, "three")] {
        let rs = nodes[2].execute(&format!("insert into kv values ({k}, '{v}')")).unwrap();
        assert_eq!(rs.affected, Some(1));
    }
    assert_eq!(template_stats(), (2, 1), "one INSERT shape: compiled once, hit twice");
    for (k, v) in [(1, "uno"), (2, "dos")] {
        let rs = nodes[2].execute(&format!("update kv set v = '{v}' where k = {k}")).unwrap();
        assert_eq!(rs.affected, Some(1), "k = {k}");
    }
    assert_eq!(template_stats(), (3, 2), "one UPDATE shape: compiled once, hit once");

    // The owner reads its authoritative payload: three rows, each with
    // the values of the statement that wrote it.
    let rs = nodes[0].execute("select k, v from kv order by k").unwrap();
    let got: Vec<(Val, Val)> =
        (0..rs.row_count()).map(|r| (rs.cell(r, 0), rs.cell(r, 1))).collect();
    let want: Vec<(Val, Val)> = [(1, "uno"), (2, "dos"), (3, "three")]
        .iter()
        .map(|&(k, v)| (Val::Int(k), Val::Str(v.into())))
        .collect();
    assert_eq!(got, want);
    // Appends count one batch per column of `kv`.
    let applied = (count(0, "appends_applied"), count(0, "mutations_applied"));
    assert_eq!(applied, (3 * 2, 2), "each applied once");
    assert_eq!((count(2, "appends_failed"), count(2, "mutations_failed")), (0, 0));

    for n in nodes {
        n.shutdown();
    }
}

#[test]
fn driver_loaded_tables_join_across_tcp_nodes() {
    let nodes = spawn_tcp_ring(2);

    // Each node loads its own share, the real deployment's startup path.
    nodes[0].load_table("sys", "t", vec![("id", Column::from(vec![1, 2, 3]))]).unwrap();
    nodes[1]
        .load_table(
            "sys",
            "c",
            vec![
                ("t_id", Column::from(vec![2, 2, 3, 9])),
                ("amount", Column::from(vec![10, 20, 30, 40])),
            ],
        )
        .unwrap();
    for n in &nodes {
        n.wait_for_table_timeout("sys", "t", Duration::from_secs(10)).unwrap();
        n.wait_for_table_timeout("sys", "c", Duration::from_secs(10)).unwrap();
    }

    // The paper's example query joins fragments owned by different
    // processes; both nodes must agree on the answer.
    for n in &nodes {
        let rs = n.execute("select c.t_id from t, c where c.t_id = t.id order by t_id").unwrap();
        assert_eq!(rows(&rs), [[Val::from(2)], [Val::from(2)], [Val::from(3)]], "node {}", n.id);
    }

    // EXPLAIN works against the replicated metadata.
    let (plan, dc) = nodes[1].explain_sql("select amount from c where amount > 15").unwrap();
    assert!(plan.contains("sql.bind"), "{plan}");
    assert!(dc.contains("datacyclotron.request"), "{dc}");

    for n in nodes {
        n.shutdown();
    }
}

/// A single-table aggregate issued away from its table runs at the owner
/// — unless its result is too large to come back as one answer: then the
/// owner declines, and the node asked runs it itself, pulling the column
/// off the ring as it would for a projection. Either way the answer is
/// the owner's own, and no frame goes unsent.
#[test]
fn a_pushed_aggregate_too_large_to_answer_runs_where_it_was_asked() {
    let nodes = spawn_tcp_ring(3);
    // 100 000 groups of an int key and a bigint count: ≈1.2 MB of result.
    let keys: Vec<i32> = (0..100_000).map(|i| i * 7 % 100_000).collect();
    nodes[0].load_table("sys", "wide", vec![("k", Column::from(keys))]).unwrap();
    nodes[2].wait_for_table_timeout("sys", "wide", Duration::from_secs(10)).unwrap();

    let small = "select count(*), max(k) from wide";
    let rs = nodes[2].execute(small).unwrap();
    assert_eq!(rows(&rs), [[Val::Lng(100_000), Val::Int(99_999)]]);
    assert_eq!(nodes[2].counter("ring_query_bytes_moved"), Some(0), "a small answer is pushed");

    let large = "select k, count(*) from wide group by k order by k";
    let here = nodes[0].execute(large).unwrap();
    assert_eq!(here.row_count(), 100_000);
    let there = nodes[2].execute(large).unwrap();
    assert_eq!(rows(&there), rows(&here));
    assert_eq!(nodes[2].counter("selects_pushed"), Some(2), "both were pushed");
    assert!(nodes[2].counter("ring_query_bytes_moved") > Some(0), "the column was not pulled");
    let declined = nodes[2].obs().trace_events().into_iter().any(|e| e.detail.contains("declined"));
    assert!(declined, "the owner did not decline the large answer");
    for n in &nodes {
        assert_eq!(n.counter("mutation_acks_lost"), Some(0), "node {}: an answer was lost", n.id);
    }
    for n in nodes {
        n.shutdown();
    }
}

/// The tentpole acceptance scenario: a `Session::query` over the framed
/// TCP protocol returns a typed `ResultSet` whose columns and types
/// match the in-process `RingNode::execute` result for the same
/// statement — and one connection carries many statements, including a
/// failing one, without poisoning the session.
#[test]
fn framed_client_matches_in_process_execute() {
    let nodes: Vec<Arc<RingNode>> = spawn_tcp_ring(3).into_iter().map(Arc::new).collect();

    // Serve the dc-client protocol in front of every node, exactly as
    // `dc-node serve` does.
    let mut sql_addrs = Vec::new();
    for n in &nodes {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        sql_addrs.push(listener.local_addr().unwrap());
        dc_transport::sqlserve::spawn_sql_server(listener, Arc::clone(n));
    }

    // One connection, many statements.
    let mut session = Client::connect(sql_addrs[1]).unwrap();
    let rs = session.query("create table kv (k int, v varchar(16))").unwrap();
    assert!(rs.info.as_deref().unwrap_or("").contains("created"), "{rs:?}");
    let rs = session.query("insert into kv values (1, 'hello'), (2, 'ring')").unwrap();
    assert_eq!(rs.affected, Some(2));

    // A deliberate SQL error is an Error frame, not result-shaped text —
    // and the session keeps working afterwards.
    let err = session.query("select nope from nowhere").unwrap_err();
    assert!(matches!(err, ClientError::Server { kind: dc_client::ErrorKind::Exec, .. }), "{err:?}");
    assert!(err.to_string().contains("nowhere"), "{err}");
    // A syntax error is classified as one, over the wire and in process.
    let err = session.query("selec k from sales").unwrap_err();
    assert!(
        matches!(err, ClientError::Server { kind: dc_client::ErrorKind::Parse, .. }),
        "{err:?}"
    );
    assert!(err.to_string().contains("expected 'select'"), "{err}");
    let err = nodes[1].execute("selec k from sales").unwrap_err();
    assert!(matches!(err, datacyclotron::DcError::Parse(_)), "{err:?}");

    let stmt = "select k, v from kv order by k";
    let over_wire = session.query(stmt).unwrap();
    let in_process = nodes[1].execute(stmt).unwrap();

    // Typed equivalence: same shape, same names, same declared and
    // physical types, same cells — no string scraping anywhere.
    assert_eq!(over_wire.column_count(), in_process.column_count());
    assert_eq!(over_wire.row_count(), in_process.row_count());
    for (w, p) in over_wire.columns.iter().zip(&in_process.columns) {
        assert_eq!((&w.table, &w.name, &w.sql_type), (&p.table, &p.name, &p.sql_type));
        assert_eq!(w.col_type(), p.col_type());
    }
    for r in 0..in_process.row_count() {
        for c in 0..in_process.column_count() {
            assert_eq!(over_wire.cell(r, c), in_process.cell(r, c), "cell ({r},{c})");
        }
    }
    assert_eq!(over_wire.render(), in_process.render());
    assert_eq!(over_wire.cell(0, 0), Val::Int(1));
    assert_eq!(over_wire.cell(1, 1), Val::Str("ring".into()));

    // A different ring member serves the same typed rows over its own
    // endpoint (queries settle on any node, §4.2).
    let mut session2 = Client::connect(sql_addrs[2]).unwrap();
    session2.query(".wait kv").unwrap();
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let remote = session2.query(stmt).unwrap();
        if remote.row_count() == over_wire.row_count() && remote.render() == over_wire.render() {
            break;
        }
        assert!(Instant::now() < deadline, "node 2 never converged: {}", remote.render());
        std::thread::sleep(Duration::from_millis(50));
    }
}
