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

mod support;

use batstore::Val;
use datacyclotron::transport::mem;
use datacyclotron::{DataDir, FsyncPolicy, NodeId, NodeOptions, Ring, RingNode, RingTransport};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// The deployment the name-set tests read: a durable 3-node mem ring
/// with a memory budget, the framed SQL front door on node 0, and a
/// short CREATE/INSERT/UPDATE/SELECT workload — through that door, plus
/// a routed UPDATE from node 1 and an aggregate node 2 pushes to the
/// owner.
struct Pinned {
    nodes: Vec<Arc<RingNode>>,
    /// Node 0's framed SQL endpoint.
    door: SocketAddr,
    dir: PathBuf,
}

impl Pinned {
    fn deploy(tag: &str) -> Pinned {
        let dir = std::env::temp_dir().join(format!("dc_obs_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let nodes: Vec<Arc<RingNode>> = mem::ring(3)
            .into_iter()
            .enumerate()
            .map(|(i, fabric)| {
                let opts = NodeOptions {
                    data_dir: Some(DataDir::new(dir.join(format!("n{i}"))).fsync(FsyncPolicy::Off)),
                    mem_budget: Some(64 << 10),
                    ..NodeOptions::default()
                };
                let fabric = Arc::new(fabric) as Arc<dyn RingTransport>;
                Arc::new(RingNode::spawn(NodeId(i as u16), fabric, opts))
            })
            .collect();
        let door = support::spawn_sql_front(&nodes[..1])[0];
        for sql in [
            "create table kv (id int, v int)",
            "insert into kv values (1, 10), (2, 20)",
            "update kv set v = 11 where id = 1",
            "select id, v from kv order by id",
        ] {
            support::sql(door, sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        }
        for node in &nodes[1..] {
            node.wait_for_table_timeout("sys", "kv", Duration::from_secs(10)).unwrap();
        }
        assert_eq!(
            nodes[1].execute("update kv set v = 21 where id = 2").unwrap().affected,
            Some(1)
        );
        let rs = nodes[2].execute("select sum(v) from kv").unwrap();
        assert_eq!(rs.cell(0, 0), Val::Lng(32));
        Pinned { nodes, door, dir }
    }

    /// Node `i`'s `dc.stats` names, sorted.
    fn stats_names(&self, i: usize) -> Vec<String> {
        let mut names = view_names(&self.nodes[i], "select name from dc.stats");
        names.sort();
        names
    }
}

impl Drop for Pinned {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

/// The `name` column of a system-view query.
fn view_names(node: &RingNode, sql: &str) -> Vec<String> {
    let rs = node.execute(sql).unwrap();
    (0..rs.row_count())
        .map(|r| match rs.cell(r, 0) {
            Val::Str(name) => name,
            other => panic!("unexpected name cell {other:?}"),
        })
        .collect()
}

/// `dc.stats` names on every node of the pinned deployment. The ledger
/// and CI read counters by these names, so a rename shows up here first.
const NODE_STATS: [&str; 59] = [
    "appends_applied",
    "appends_dropped",
    "appends_failed",
    "bats_forwarded",
    "bats_loaded",
    "bats_lost",
    "bats_unloaded",
    "bytes_forwarded",
    "checkpoints",
    "deliveries",
    "demand_holds",
    "latency_count",
    "loi_evictions",
    "loi_readmits",
    "loit_transitions",
    "mutation_acks_lost",
    "mutations_applied",
    "mutations_deduped",
    "mutations_failed",
    "mutations_routed",
    "obs_checkpoint_frags_skipped",
    "obs_checkpoint_frags_written",
    "obs_gossip_applied",
    "obs_hotset_resident_bytes",
    "obs_hotset_spilled_bytes",
    "obs_hotset_spilled_frags",
    "obs_loit_level",
    "obs_persist_errors",
    "obs_ring_bat_frames_header_only",
    "obs_ring_data_bytes_in",
    "obs_ring_data_bytes_out",
    "obs_ring_data_frames_in",
    "obs_ring_data_frames_out",
    "obs_ring_frames_rejected",
    "obs_ring_req_bytes_in",
    "obs_ring_req_bytes_out",
    "obs_ring_req_frames_in",
    "obs_ring_req_frames_out",
    "obs_sql_errors",
    "obs_sql_statements",
    "obs_template_entries",
    "obs_template_hits",
    "obs_template_misses",
    "obs_trace_bytes",
    "query_errors",
    "recovered_frags",
    "recovered_wal_records",
    "requests_absorbed",
    "requests_dispatched",
    "requests_forwarded",
    "requests_owner_handled",
    "requests_resent",
    "requests_returned",
    "retries",
    "ring_query_bytes_moved",
    "selects_pushed",
    "timeouts",
    "wal_bytes",
    "wal_records",
];

/// The names the framed SQL front door adds on the node it serves.
const FRONT_DOOR_STATS: [&str; 3] =
    ["obs_sql_frame_bytes_in", "obs_sql_frame_bytes_out", "obs_sql_sessions_active"];

#[test]
fn dc_stats_names_are_pinned() {
    let pinned = Pinned::deploy("pinned");
    for i in 0..3 {
        let mut want: Vec<&str> = NODE_STATS.to_vec();
        if i == 0 {
            want.extend(FRONT_DOOR_STATS);
            want.sort_unstable();
        }
        assert_eq!(pinned.stats_names(i), want, "node {i}");
    }
}

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

/// `.metrics` — what `dc-node metrics` prints — names each counter and
/// gauge exactly as `dc.stats` lists it, and each `dc.latency` histogram
/// by its `_count`/`_sum`/`_p50`/`_p95`/`_p99`/`_max` expansion.
#[test]
fn metrics_print_the_names_dc_stats_lists() {
    let pinned = Pinned::deploy("metrics");
    let text = support::sql(pinned.door, ".metrics").unwrap().info.expect("a text dump");
    let hists = view_names(&pinned.nodes[0], "select name from dc.latency");
    let expansion: Vec<String> = hists
        .iter()
        .flat_map(|h| ["count", "sum", "p50", "p95", "p99", "max"].map(|s| format!("{h}_{s}")))
        .collect();
    let mut plain: Vec<String> = text
        .lines()
        .map(|line| line.split_once(' ').expect("`name value`").0.to_string())
        .filter(|name| !expansion.contains(name))
        .collect();
    plain.sort();
    assert_eq!(plain, pinned.stats_names(0));
}

/// Every metric name in ARCHITECTURE.md's Observability table, each
/// `{a,b}` group expanded. A name is a code span of the table's first
/// column; nothing but commas may stand between them.
fn documented_metrics() -> Vec<String> {
    let doc = include_str!("../ARCHITECTURE.md");
    let section = doc.split("\n## Observability").nth(1).expect("an Observability section");
    let rows = section.lines().skip_while(|l| !l.starts_with("| Metric")).skip(2);
    let mut names = Vec::new();
    for row in rows.take_while(|l| l.starts_with('|')) {
        let cell = row.split('|').nth(1).expect("a first column");
        for (i, part) in cell.split('`').enumerate() {
            if i % 2 == 1 {
                names.extend(expand(part));
            } else {
                assert!(matches!(part.trim(), "" | ","), "not a metric name: {part:?} in {row}");
            }
        }
    }
    names
}

/// `a_{b,c}_{d,e}` → `a_b_d`, `a_b_e`, `a_c_d`, `a_c_e`.
fn expand(name: &str) -> Vec<String> {
    let Some(open) = name.find('{') else {
        let literal =
            name.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_');
        assert!(literal, "not a literal or a {{a,b}} group: {name:?}");
        return vec![name.to_string()];
    };
    let close = open + name[open..].find('}').expect("a closed group");
    let (head, tail) = (&name[..open], &name[close + 1..]);
    name[open + 1..close].split(',').flat_map(|alt| expand(&format!("{head}{alt}{tail}"))).collect()
}

/// The Observability table cannot drift from the code: on the pinned
/// deployment each name it shows is a `dc.stats` or `dc.latency` row,
/// and each such row is in the table. (Node 0 serves the front door, so
/// it reports every name the others do and the door's own.)
#[test]
fn the_observability_table_names_what_a_node_reports() {
    use std::collections::BTreeSet;
    assert_eq!(expand("a_{b,c}_{d,e}"), ["a_b_d", "a_b_e", "a_c_d", "a_c_e"]);
    let pinned = Pinned::deploy("docs");
    let node = &pinned.nodes[0];
    let mut reported: BTreeSet<String> = pinned.stats_names(0).into_iter().collect();
    reported.extend(view_names(node, "select name from dc.latency"));
    let documented: BTreeSet<String> = documented_metrics().into_iter().collect();
    let phantom: Vec<_> = documented.difference(&reported).collect();
    assert!(phantom.is_empty(), "documented, but no node reports them: {phantom:?}");
    let undocumented: Vec<_> = reported.difference(&documented).collect();
    assert!(undocumented.is_empty(), "reported, but not in ARCHITECTURE.md: {undocumented:?}");
}

/// Every event name in ARCHITECTURE.md's "Statement tracing" table: the
/// code spans of its first column, with nothing but `/` between them.
fn documented_trace_events() -> Vec<String> {
    let doc = include_str!("../ARCHITECTURE.md");
    let section =
        doc.split("**Statement tracing.**").nth(1).expect("a Statement tracing paragraph");
    let rows = section.lines().skip_while(|l| !l.starts_with("| event")).skip(2);
    let mut names = Vec::new();
    for row in rows.take_while(|l| l.starts_with('|')) {
        let cell = row.split('|').nth(1).expect("a first column");
        for (i, part) in cell.split('`').enumerate() {
            if i % 2 == 1 {
                names.push(part.to_string());
            } else {
                assert!(matches!(part.trim(), "" | "/"), "not an event name: {part:?} in {row}");
            }
        }
    }
    names
}

/// The "Statement tracing" table cannot drift from the code: it has a
/// row for each event the engine records, and each event it shows is
/// one the engine records.
#[test]
fn the_trace_table_names_every_event_the_engine_records() {
    use std::collections::BTreeSet;
    let recorded: BTreeSet<String> =
        datacyclotron::stats::trace::ALL.iter().map(|e| e.to_string()).collect();
    assert_eq!(recorded.len(), datacyclotron::stats::trace::ALL.len(), "an event named twice");
    let documented: BTreeSet<String> = documented_trace_events().into_iter().collect();
    let phantom: Vec<_> = documented.difference(&recorded).collect();
    assert!(phantom.is_empty(), "documented, but the engine records no such event: {phantom:?}");
    let undocumented: Vec<_> = recorded.difference(&documented).collect();
    assert!(undocumented.is_empty(), "recorded, but not in ARCHITECTURE.md: {undocumented:?}");
}

/// Every code span of the duty column of ARCHITECTURE.md's "One
/// protocol, two drivers" table: the functions and types the event
/// loop's duties are.
fn documented_duties() -> Vec<String> {
    let doc = include_str!("../ARCHITECTURE.md");
    let section = doc.split("## One protocol, two drivers").nth(1).expect("the drivers section");
    let rows = section.lines().skip_while(|l| !l.starts_with("| duty")).skip(2);
    let mut names = Vec::new();
    for row in rows.take_while(|l| l.starts_with('|')) {
        let cell = row.split('|').nth(1).expect("a first column");
        names.extend(cell.split('`').skip(1).step_by(2).map(str::to_string));
    }
    names
}

/// The Rust sources under `crates/core/src`, one string per file.
fn core_sources() -> Vec<String> {
    let mut dirs = vec![PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("crates/core/src")];
    let mut files = Vec::new();
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).expect("a source dir") {
            let path = entry.expect("a dir entry").path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                files.push(std::fs::read_to_string(&path).expect("a source file"));
            }
        }
    }
    files
}

/// The duty → trigger table cannot outlive the code it names: every
/// function or type in its duty column is defined under
/// `crates/core/src` — a method in a file that implements its type.
#[test]
fn the_duty_table_names_what_the_engine_defines() {
    let sources = core_sources();
    let defines = |src: &str, kinds: &[&str], name: &str| {
        kinds.iter().any(|kind| {
            [" ", "(", "<", ";", " {"]
                .iter()
                .any(|end| src.contains(&format!("{kind} {name}{end}")))
        })
    };
    let duties = documented_duties();
    assert!(duties.len() >= 4, "the duty column names too little: {duties:?}");
    for duty in duties {
        let name = duty.trim_end_matches("()");
        let found = match name.rsplit_once("::") {
            Some((ty, method)) => sources
                .iter()
                .any(|src| defines(src, &["impl"], ty) && defines(src, &["fn"], method)),
            None => {
                let kinds = ["fn", "struct", "enum", "trait", "type"];
                sources.iter().any(|src| defines(src, &kinds, name))
            }
        };
        assert!(found, "ARCHITECTURE.md's duty table names `{duty}`, which crates/core/src lacks");
    }
}
