//! TPC-H acceptance over the live ring (§3 distributed query execution).
//!
//! Three engine nodes speak length-prefixed TCP frames; each loads one
//! whole TPC-H table (customer → node 0, orders → node 1, lineitem →
//! node 2), so every join in the subset crosses node boundaries and the
//! answers can only be right if fragments actually circulate. Each query
//! of the subset (Q1 scan + multi-key GROUP BY, Q3 three-table INNER
//! JOIN chain, Q6 range-predicate aggregate) must return a `ResultSet`
//! cell-for-cell identical to a single-node in-process execution of the
//! same statement over the same deterministic dataset — and the ring
//! must report nonzero `ring_query_bytes_moved`, proving the fragments
//! were pulled off the wire rather than found locally.

mod support;

use batstore::{Column, ResultSet, Val};
use datacyclotron::Ring;
use dc_workloads::tpch::sql as tpch;
use std::collections::BTreeMap;
use std::time::Duration;
use support::{spawn_tcp_ring, test_cfg};

/// `got` is `expected`, cell for cell and type for type.
fn assert_same_answer(got: &ResultSet, expected: &ResultSet, what: &str) {
    assert_eq!(got.column_count(), expected.column_count(), "{what}");
    assert_eq!(got.row_count(), expected.row_count(), "{what}");
    for c in 0..expected.column_count() {
        assert_eq!(got.columns[c].col_type(), expected.columns[c].col_type(), "{what} column {c}");
        for r in 0..expected.row_count() {
            assert_eq!(got.cell(r, c), expected.cell(r, c), "{what} cell ({r},{c})");
        }
    }
}

#[test]
fn tpch_subset_matches_single_node_over_tcp_ring() {
    let data = tpch::generate(1.0, 42);

    // Reference: everything resident on one in-process node.
    let single = Ring::builder(1).build();
    single.load_table("sys", "customer", data.customer.clone()).unwrap();
    single.load_table("sys", "orders", data.orders.clone()).unwrap();
    single.load_table("sys", "lineitem", data.lineitem.clone()).unwrap();

    // System under test: one table per node, joined over TCP.
    let nodes = spawn_tcp_ring(3, test_cfg());
    nodes[0].load_table("sys", "customer", data.customer).unwrap();
    nodes[1].load_table("sys", "orders", data.orders).unwrap();
    nodes[2].load_table("sys", "lineitem", data.lineitem).unwrap();
    for n in &nodes {
        for t in ["customer", "orders", "lineitem"] {
            n.wait_for_table_timeout("sys", t, Duration::from_secs(15)).unwrap();
        }
    }

    for (name, stmt) in tpch::queries() {
        let expected = single.execute(0, stmt).unwrap();
        assert!(expected.row_count() > 0, "{name}: reference answer is empty");

        // Every ring member must produce the same typed answer, no
        // matter which tables it owns locally.
        for node in &nodes {
            let got = node.execute(stmt).unwrap();
            assert_same_answer(&got, &expected, &format!("{name} on {}", node.id));
        }
    }

    // The answers above are only possible because remote fragments were
    // pulled off the wire: the per-node counters must show it.
    let moved: u64 = nodes.iter().map(|n| n.stats().unwrap().ring_query_bytes_moved).sum();
    assert!(moved > 0, "no ring bytes were moved to serve queries");

    for n in nodes {
        n.shutdown();
    }
    single.shutdown();
}

/// Where the data sits must not show in the answer (Ameloot et al.'s
/// parallel-correctness: the same result under every distribution of the
/// input) — and since payloads follow requests, where it sits and who asks
/// is exactly what decides which hops carry bytes. Q1, Q3 and Q6, asked
/// from every node of 3- and 4-node rings under every placement of the
/// three tables on single owners, equal the single-node answers cell for
/// cell, with no request ever re-sent.
#[test]
fn tpch_subset_is_the_same_under_every_single_owner_placement() {
    let data = tpch::generate(1.0, 42);
    let tables = || {
        [
            ("customer", data.customer.clone()),
            ("orders", data.orders.clone()),
            ("lineitem", data.lineitem.clone()),
        ]
    };
    let single = Ring::builder(1).build();
    for (table, cols) in tables() {
        single.load_table("sys", table, cols).unwrap();
    }
    let expected: Vec<_> =
        tpch::queries().into_iter().map(|(_, stmt)| single.execute(0, stmt).unwrap()).collect();
    single.shutdown();

    for n in [3, 4] {
        for placement in 0..n * n * n {
            let owners = [placement % n, placement / n % n, placement / (n * n)];
            let ring = Ring::builder(n).pin_timeout(Duration::from_secs(30)).build();
            for ((table, cols), &owner) in tables().into_iter().zip(&owners) {
                ring.node(owner).load_table("sys", table, cols).unwrap();
            }
            for node in 0..n {
                for table in ["customer", "orders", "lineitem"] {
                    let waited = Duration::from_secs(15);
                    ring.node(node).wait_for_table_timeout("sys", table, waited).unwrap();
                }
            }
            for ((name, stmt), expected) in tpch::queries().into_iter().zip(&expected) {
                for node in 0..n {
                    let got = ring.execute(node, stmt).unwrap();
                    let what = format!("{name} on node {node} of {n}, tables at {owners:?}");
                    assert_same_answer(&got, expected, &what);
                }
            }
            for node in 0..n {
                let stats = ring.node(node).stats().unwrap();
                assert_eq!(stats.requests_resent, 0, "node {node} of {n}, tables at {owners:?}");
            }
            ring.shutdown();
        }
    }
}

/// One generated table, read as plain vectors.
struct Rows<'a>(&'a tpch::Table);

impl Rows<'_> {
    fn column(&self, name: &str) -> &Column {
        &self.0.iter().find(|(n, _)| *n == name).unwrap_or_else(|| panic!("no column {name}")).1
    }
    fn ints(&self, name: &str) -> &[i32] {
        self.column(name).as_int().unwrap_or_else(|| panic!("{name} is not int"))
    }
    fn lngs(&self, name: &str) -> &[i64] {
        self.column(name).as_lng().unwrap_or_else(|| panic!("{name} is not lng"))
    }
    fn strs(&self, name: &str) -> Vec<&str> {
        self.column(name)
            .as_str_col()
            .unwrap_or_else(|| panic!("{name} is not str"))
            .iter()
            .collect()
    }
}

/// Q1, Q3 and Q6 evaluated a row at a time over the generator's vectors:
/// plain loops and a `BTreeMap`, no `batstore::ops`, no MAL, no SQL. Every
/// other reference in the tree (the single-node ring above, the ledger's
/// `LocalDb`) runs the same kernels as the system under test, so a kernel
/// bug is invisible to them; this one shares no code with the engine.
fn row_at_a_time(data: &tpch::TpchData) -> Vec<(&'static str, Vec<Vec<Val>>)> {
    let (c, o, l) = (Rows(&data.customer), Rows(&data.orders), Rows(&data.lineitem));
    let (shipdate, quantity) = (l.ints("l_shipdate"), l.lngs("l_quantity"));
    let (price, discount) = (l.lngs("l_extendedprice"), l.lngs("l_discount"));

    // Q1: groups in first-appearance order, then a stable sort on the
    // one ORDER BY key — equal flags keep the order they appeared in.
    let (flag, status) = (l.strs("l_returnflag"), l.strs("l_linestatus"));
    let mut slot_of: BTreeMap<(&str, &str), usize> = BTreeMap::new();
    let mut groups: Vec<(&str, &str, i64, i64, i64, i64)> = Vec::new();
    for i in 0..shipdate.len() {
        if shipdate[i] <= 19980902 {
            let slot = *slot_of.entry((flag[i], status[i])).or_insert_with(|| {
                groups.push((flag[i], status[i], 0, 0, 0, 0));
                groups.len() - 1
            });
            let g = &mut groups[slot];
            (g.2, g.3, g.4, g.5) = (g.2 + quantity[i], g.3 + price[i], g.4 + discount[i], g.5 + 1);
        }
    }
    groups.sort_by_key(|g| g.0);
    let q1 = groups
        .iter()
        .map(|&(flag, status, qty, price, disc, n)| {
            let avg = Val::Dbl(disc as f64 / n as f64);
            vec![
                Val::from(flag),
                Val::from(status),
                Val::Lng(qty),
                Val::Lng(price),
                avg,
                Val::Lng(n),
            ]
        })
        .collect();

    // Q3: nested loops over the two foreign keys; the group key starts
    // with the (unique) order key, which is also the ORDER BY key.
    let segment = c.strs("c_mktsegment");
    let (custkey, o_custkey) = (c.ints("c_custkey"), o.ints("o_custkey"));
    let (orderkey, l_orderkey) = (o.ints("o_orderkey"), l.ints("l_orderkey"));
    let (orderdate, priority) = (o.ints("o_orderdate"), o.ints("o_shippriority"));
    let mut revenue: BTreeMap<(i32, i32, i32), i64> = BTreeMap::new();
    for ci in (0..custkey.len()).filter(|&ci| segment[ci] == "BUILDING") {
        for oi in (0..orderkey.len()).filter(|&oi| o_custkey[oi] == custkey[ci]) {
            if orderdate[oi] >= 19950315 {
                continue;
            }
            for li in (0..l_orderkey.len()).filter(|&li| l_orderkey[li] == orderkey[oi]) {
                if shipdate[li] > 19950315 {
                    *revenue.entry((orderkey[oi], orderdate[oi], priority[oi])).or_insert(0) +=
                        price[li];
                }
            }
        }
    }
    let q3 = revenue
        .iter()
        .take(10)
        .map(|(&(key, date, prio), &sum)| {
            vec![Val::Int(key), Val::Int(date), Val::Int(prio), Val::Lng(sum)]
        })
        .collect();

    // Q6.
    let (mut sum, mut n) = (0i64, 0i64);
    for i in 0..shipdate.len() {
        if (19940101..=19941231).contains(&shipdate[i])
            && (5..=7).contains(&discount[i])
            && quantity[i] < 24
        {
            (sum, n) = (sum + price[i], n + 1);
        }
    }
    vec![("q1", q1), ("q3", q3), ("q6", vec![vec![Val::Lng(sum), Val::Lng(n)]])]
}

#[test]
fn tpch_subset_matches_a_row_at_a_time_evaluation() {
    for (scale, seed) in [(1.0, 42), (10.0, 42), (1.0, 1729), (10.0, 1729)] {
        let data = tpch::generate(scale, seed);
        let expected = row_at_a_time(&data);
        let ring = Ring::builder(1).build();
        ring.load_table("sys", "customer", data.customer).unwrap();
        ring.load_table("sys", "orders", data.orders).unwrap();
        ring.load_table("sys", "lineitem", data.lineitem).unwrap();
        for ((name, stmt), (oracle_name, want)) in tpch::queries().into_iter().zip(expected) {
            assert_eq!(name, oracle_name);
            let got = ring.execute(0, stmt).unwrap();
            let got: Vec<Vec<Val>> = (0..got.row_count())
                .map(|r| (0..got.column_count()).map(|c| got.cell(r, c)).collect())
                .collect();
            assert_eq!(got, want, "{name} at scale {scale}, seed {seed}");
        }
        ring.shutdown();
    }
}

/// What EXPLAIN shows of aggregation: Q1 and Q6 bind (request, pin)
/// their columns, run **one** fused `aggr.scan` over them and go straight
/// to ORDER BY / the result set — no selection, candidate list,
/// projection or grouping instruction; Q3 keeps its selections and joins
/// and aggregates the join's projected columns in the same one
/// instruction.
#[test]
fn explain_shows_one_fused_instruction_per_aggregation() {
    let data = tpch::generate(0.25, 7);
    let ring = Ring::builder(1).build();
    ring.load_table("sys", "customer", data.customer).unwrap();
    ring.load_table("sys", "orders", data.orders).unwrap();
    ring.load_table("sys", "lineitem", data.lineitem).unwrap();
    // `X := module.func(…)` / `module.func(…)` per line → `module.func`.
    let calls = |plan: &str| -> Vec<String> {
        plan.lines()
            .map(|l| l.split_once(":= ").map_or(l, |(_, call)| call).trim())
            .filter(|call| !call.starts_with("function") && !call.starts_with("end"))
            .filter_map(|call| call.split_once('(').map(|(name, _)| name.to_string()))
            .collect()
    };
    const SEPARATE: [&str; 9] = [
        "algebra.select",
        "algebra.uselect",
        "algebra.thetauselect",
        "algebra.semijoin",
        "bat.mirror",
        "bat.pack",
        "group.new",
        "group.derive",
        "aggr.sumFor",
    ];
    for (name, stmt) in [("q1", tpch::Q1), ("q6", tpch::Q6)] {
        for plan in <[String; 2]>::from(ring.explain_sql(0, stmt).unwrap()) {
            let calls = calls(&plan);
            let fused: Vec<usize> = (0..calls.len()).filter(|&i| calls[i] == "aggr.scan").collect();
            assert_eq!(fused.len(), 1, "{name}:\n{plan}");
            for gone in SEPARATE {
                assert!(!calls.iter().any(|c| c == gone), "{name} holds {gone}:\n{plan}");
            }
            // Up to the fused instruction the plan only fetches columns
            // (`markT` and `join` after it are ORDER BY's).
            let fetches = ["sql.bind", "datacyclotron.request", "datacyclotron.pin"];
            let before = &calls[..fused[0]];
            assert!(before.iter().all(|c| fetches.contains(&c.as_str())), "{name}:\n{plan}");
        }
    }
    let (q6, _) = ring.explain_sql(0, tpch::Q6).unwrap();
    assert!(!q6.contains("algebra."), "Q6 needs no algebra at all:\n{q6}");

    let (q3, _) = ring.explain_sql(0, tpch::Q3).unwrap();
    let calls = calls(&q3);
    assert_eq!(calls.iter().filter(|c| *c == "aggr.scan").count(), 1, "{q3}");
    assert!(!calls.iter().any(|c| c.starts_with("group.") || c.ends_with("For")), "{q3}");
    assert!(!calls.iter().any(|c| c == "bat.pack" || c == "aggr.sum" || c == "aggr.count"), "{q3}");
    ring.shutdown();
}
