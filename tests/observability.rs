//! Observability acceptance: the `dc.*` system views expose the node's
//! live telemetry through the ordinary SQL path, and the trace buffer
//! threads one routed statement across the ring.
//!
//! The span test is the acceptance criterion for statement tracing: a
//! routed UPDATE issued on a non-owner node must leave a `route` event
//! at the origin whose `(epoch, stmt)` key finds the `apply` and
//! `ack_sent` events at the owner and the closing `ack` back at the
//! origin — the full origin → owner → ack path reconstructed from
//! `dc.trace` rows alone.

use batstore::Val;
use datacyclotron::Ring;
use std::time::Duration;

/// `dc.trace` rows of node `i`, decoded as
/// `(node, epoch, stmt, event, detail)`.
fn trace_rows(ring: &Ring, i: usize) -> Vec<(i32, i64, i64, String, String)> {
    let rs = ring.execute(i, "select node, epoch, stmt, event, detail from dc.trace").unwrap();
    (0..rs.row_count())
        .map(|r| {
            match (rs.cell(r, 0), rs.cell(r, 1), rs.cell(r, 2), rs.cell(r, 3), rs.cell(r, 4)) {
                (
                    Val::Int(node),
                    Val::Lng(epoch),
                    Val::Lng(stmt),
                    Val::Str(event),
                    Val::Str(detail),
                ) => (node, epoch, stmt, event, detail),
                other => panic!("unexpected dc.trace cell types {other:?}"),
            }
        })
        .collect()
}

#[test]
fn routed_update_span_reconstructable_from_dc_trace() {
    let ring = Ring::builder(2).build();
    ring.execute(0, "create table acct (id int, bal int)").unwrap();
    ring.node(1).wait_for_table_timeout("sys", "acct", Duration::from_secs(10)).unwrap();
    let rs = ring.execute(0, "insert into acct values (1, 0)").unwrap();
    assert_eq!(rs.affected, Some(1));

    // The statement under test: issued on node 1, applied on node 0.
    let rs = ring.execute(1, "update acct set bal = 7 where id = 1").unwrap();
    assert_eq!(rs.affected, Some(1));

    // Origin side: the UPDATE is node 1's latest routed statement, so
    // its `route` event is the last one in the buffer. Its key is the
    // span id for the whole path.
    let origin = trace_rows(&ring, 1);
    let (_, epoch, stmt, _, detail) = origin
        .iter()
        .rev()
        .find(|(_, _, _, event, _)| event == "route")
        .cloned()
        .expect("origin recorded no route event");
    assert!(detail.contains("acct"), "route event names the table: {detail}");

    let span = |rows: &[(i32, i64, i64, String, String)], event: &str| {
        rows.iter().filter(|(_, e, s, ev, _)| (*e, *s) == (epoch, stmt) && ev == event).count()
    };

    // Owner side: the same key applied the mutation and sent the ack.
    let owner = trace_rows(&ring, 0);
    assert_eq!(span(&owner, "apply"), 1, "owner apply missing for span: {owner:?}");
    assert_eq!(span(&owner, "ack_sent"), 1, "owner ack_sent missing for span: {owner:?}");

    // Back at the origin: the span closes with the ack, and the node
    // column stamps each half of the path with where it was recorded.
    assert_eq!(span(&origin, "ack"), 1, "origin ack missing for span: {origin:?}");
    assert!(origin
        .iter()
        .filter(|(_, e, s, _, _)| (*e, *s) == (epoch, stmt))
        .all(|(n, ..)| *n == 1));
    assert!(owner
        .iter()
        .filter(|(_, e, s, _, _)| (*e, *s) == (epoch, stmt))
        .all(|(n, ..)| *n == 0));
}

/// `dc.latency` reports per-statement-kind histograms after traffic, and
/// `dc.stats` mirrors the in-process ledger (full framed-protocol
/// equality is asserted in the concurrency suite).
#[test]
fn latency_and_stats_views_reflect_executed_statements() {
    let ring = Ring::builder(2).build();
    ring.execute(0, "create table t (k int)").unwrap();
    ring.node(1).wait_for_table_timeout("sys", "t", Duration::from_secs(10)).unwrap();
    ring.execute(0, "insert into t values (1), (2), (3)").unwrap();
    ring.execute(0, "select count(*) from t").unwrap();

    let rs = ring.execute(0, "select name, count, p50_us, p99_us from dc.latency").unwrap();
    let mut kinds = Vec::new();
    for r in 0..rs.row_count() {
        let (Val::Str(name), Val::Lng(count)) = (rs.cell(r, 0), rs.cell(r, 1)) else {
            panic!("unexpected dc.latency cell types");
        };
        if count > 0 {
            kinds.push(name);
        }
    }
    for want in ["stmt_create_us", "stmt_insert_us", "stmt_select_us"] {
        assert!(kinds.iter().any(|k| k == want), "{want} missing from dc.latency: {kinds:?}");
    }

    let rs = ring.execute(0, "select name, value from dc.stats").unwrap();
    let stats: Vec<(String, i64)> = (0..rs.row_count())
        .map(|r| match (rs.cell(r, 0), rs.cell(r, 1)) {
            (Val::Str(n), Val::Lng(v)) => (n, v),
            other => panic!("unexpected dc.stats cell types {other:?}"),
        })
        .collect();
    // The SQL statements above ran through this node's choke point.
    let sql_statements =
        stats.iter().find(|(n, _)| n == "obs_sql_statements").expect("obs_sql_statements missing");
    assert!(sql_statements.1 >= 4, "statement counter too low: {stats:?}");
    // Projection order is the query's, not the view's.
    let rs = ring.execute(0, "select value, name from dc.stats").unwrap();
    assert!(matches!(rs.cell(0, 0), Val::Lng(_)));
    assert!(matches!(rs.cell(0, 1), Val::Str(_)));
}

/// Point statements with fresh literals every time — the shape of an
/// OLTP client — must cost a node a handful of query templates (§3.2),
/// not one cached plan per statement: `dc.stats` shows the entry and
/// miss counts staying at the number of *shapes* while the hits track
/// the statements served.
#[test]
fn distinct_literal_statements_share_a_handful_of_templates() {
    let ring = Ring::builder(3).build();
    ring.execute(0, "create table kv (id int, v int, tag varchar(16))").unwrap();
    for i in 1..3 {
        ring.node(i).wait_for_table_timeout("sys", "kv", Duration::from_secs(10)).unwrap();
    }
    let rows: Vec<String> = (0..50).map(|k| format!("({k}, {}, 't{k}')", k * 7)).collect();
    ring.execute(0, &format!("insert into kv values {}", rows.join(", "))).unwrap();

    let iterations = 200;
    for i in 0..iterations {
        let (node, fresh) = (i % 3, 1000 + i);
        for sql in [
            format!("select id, v, tag from kv where id = {}", i % 50),
            format!("update kv set v = {} where id = {}", i * 3, (i * 11) % 50),
            format!("insert into kv values ({fresh}, {i}, 'n{fresh}')"),
            format!("delete from kv where id = {fresh}"),
        ] {
            ring.execute(node, &sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        }
    }

    let mut hits_total = 0;
    for i in 0..3 {
        let rs = ring.execute(i, "select name, value from dc.stats").unwrap();
        let stat = |want: &str| {
            (0..rs.row_count())
                .find(|&r| rs.cell(r, 0) == Val::Str(want.into()))
                .map(|r| match rs.cell(r, 1) {
                    Val::Lng(v) => v,
                    other => panic!("dc.stats value {other:?}"),
                })
                .unwrap_or_else(|| panic!("{want} missing from dc.stats"))
        };
        let (entries, misses) = (stat("obs_template_entries"), stat("obs_template_misses"));
        assert!((4..=16).contains(&entries), "node {i}: {entries} template entries");
        assert!((4..=16).contains(&misses), "node {i}: {misses} template misses");
        // Every statement was one or the other — this read included, which
        // is not yet counted as served while it runs.
        assert_eq!(stat("obs_template_hits") + misses, stat("obs_sql_statements") + 1, "node {i}");
        hits_total += stat("obs_template_hits");
    }
    assert!(hits_total >= 4 * iterations as i64 - 3 * 16, "hits ≈ statements served: {hits_total}");
}

/// Unknown views and columns fail with a helpful error instead of a
/// panic, on the same path a framed client would see.
#[test]
fn sysview_errors_are_classified() {
    let ring = Ring::builder(2).build();
    let e = ring.execute(0, "select * from dc.nope").unwrap_err();
    assert!(e.message().contains("unknown system view"), "{e}");
    let e = ring.execute(0, "select bogus from dc.stats").unwrap_err();
    assert!(e.message().contains("no column"), "{e}");
}
