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

use batstore::{Column, IntCol, ResultSet, Val};
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
    let moved: u64 = nodes.iter().map(|n| n.counter("ring_query_bytes_moved").unwrap()).sum();
    assert!(moved > 0, "no ring bytes were moved to serve queries");

    for n in nodes {
        n.shutdown();
    }
    single.shutdown();
}

/// The columns one query reads, by table.
type Reads = &'static [(&'static str, &'static [&'static str])];

/// The columns each query of the subset reads: what a node lacking one
/// of those tables receives to run the query.
const READS: [(&str, Reads); 3] = [
    (
        "q1",
        &[(
            "lineitem",
            &[
                "l_returnflag",
                "l_linestatus",
                "l_quantity",
                "l_extendedprice",
                "l_discount",
                "l_shipdate",
            ],
        )],
    ),
    (
        "q3",
        &[
            ("customer", &["c_custkey", "c_mktsegment"]),
            ("orders", &["o_custkey", "o_orderkey", "o_orderdate", "o_shippriority"]),
            ("lineitem", &["l_orderkey", "l_extendedprice", "l_shipdate"]),
        ],
    ),
    ("q6", &[("lineitem", &["l_extendedprice", "l_shipdate", "l_discount", "l_quantity"])]),
];

/// Where the data sits must not show in the answer (Ameloot et al.'s
/// parallel-correctness: the same result under every distribution of the
/// input) — and since payloads follow requests, where it sits and who asks
/// is exactly what decides which hops carry bytes. Q1, Q3 and Q6, asked
/// from every node of 3- and 4-node rings under every placement of the
/// three tables on single owners, equal the single-node answers cell for
/// cell, with no request ever re-sent. Each runs on the node that must
/// receive the fewest bytes of the columns it reads — the node asked
/// when none receives strictly fewer, else the lowest such id. A pushed
/// statement moves no fragment to the node asked, and the node that runs
/// it pulls exactly the bytes of the columns it lacks.
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
    let bytes = |table: &str, column: &str| {
        let cols = match table {
            "customer" => &data.customer,
            "orders" => &data.orders,
            _ => &data.lineitem,
        };
        Rows(cols).column(column).byte_size() as u64
    };

    for n in [3, 4] {
        for placement in 0..n * n * n {
            let owners = [placement % n, placement / n % n, placement / (n * n)];
            let owner_of = |table: &str| {
                ["customer", "orders", "lineitem"]
                    .iter()
                    .position(|t| *t == table)
                    .map(|i| owners[i])
            };
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
            for (((name, stmt), expected), (read_by, reads)) in
                tpch::queries().into_iter().zip(&expected).zip(READS)
            {
                assert_eq!(name, read_by);
                // What node `k` receives to run the statement.
                let lacks = |k: usize| -> u64 {
                    let lacked = reads.iter().filter(|(t, _)| owner_of(t) != Some(k));
                    lacked.flat_map(|(t, cols)| cols.iter().map(move |c| bytes(t, c))).sum()
                };
                for node in 0..n {
                    let runs = (0..n).min_by_key(|&k| (lacks(k), k != node, k)).unwrap();
                    let counters = |k: usize| {
                        ["ring_query_bytes_moved", "selects_pushed"]
                            .map(|c| ring.node(k).counter(c).unwrap())
                    };
                    let (asked, ran) = (counters(node), counters(runs));
                    let got = ring.execute(node, stmt).unwrap();
                    let what = format!("{name} on node {node} of {n}, tables at {owners:?}");
                    assert_same_answer(&got, expected, &what);
                    let pushed = counters(node)[1] - asked[1];
                    assert_eq!(pushed, (runs != node) as u64, "{what}: pushed to {runs}?");
                    assert_eq!(counters(runs)[0] - ran[0], lacks(runs), "{what}: run at {runs}");
                    if runs != node {
                        assert_eq!(counters(node)[0], asked[0], "{what}: the asker pulled");
                        // The route names a table the runner owns, and why.
                        let events = ring.node(node).obs().trace_events();
                        let route = events.iter().rfind(|e| e.event == "route").unwrap();
                        let why = format!(": {} B there vs {} B here", lacks(runs), lacks(node));
                        let table = route.detail.strip_prefix("select on sys.");
                        let table = table.and_then(|d| d.strip_suffix(&why));
                        let owner = table.and_then(owner_of);
                        assert_eq!(owner, Some(runs), "{what}: routed as {:?}", route.detail);
                    }
                }
            }
            for node in 0..n {
                let resent = ring.node(node).counter("requests_resent");
                assert_eq!(resent, Some(0), "node {node} of {n}, tables at {owners:?}");
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
    fn ints(&self, name: &str) -> &IntCol<i32> {
        match self.column(name) {
            Column::Int(v) => v,
            _ => panic!("{name} is not int"),
        }
    }
    fn lngs(&self, name: &str) -> &IntCol<i64> {
        match self.column(name) {
            Column::Lng(v) => v,
            _ => panic!("{name} is not lng"),
        }
    }
    fn strs(&self, name: &str) -> Vec<&str> {
        self.column(name)
            .as_str_col()
            .unwrap_or_else(|| panic!("{name} is not str"))
            .iter()
            .collect()
    }
    fn val(&self, name: &str, row: usize) -> Val {
        self.column(name).get(row)
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
        if shipdate.get(i) <= 19980902 {
            let slot = *slot_of.entry((flag[i], status[i])).or_insert_with(|| {
                groups.push((flag[i], status[i], 0, 0, 0, 0));
                groups.len() - 1
            });
            let g = &mut groups[slot];
            (g.2, g.3, g.4, g.5) =
                (g.2 + quantity.get(i), g.3 + price.get(i), g.4 + discount.get(i), g.5 + 1);
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
        for oi in (0..orderkey.len()).filter(|&oi| o_custkey.get(oi) == custkey.get(ci)) {
            if orderdate.get(oi) >= 19950315 {
                continue;
            }
            for li in (0..l_orderkey.len()).filter(|&li| l_orderkey.get(li) == orderkey.get(oi)) {
                if shipdate.get(li) > 19950315 {
                    *revenue
                        .entry((orderkey.get(oi), orderdate.get(oi), priority.get(oi)))
                        .or_insert(0) += price.get(li);
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
    for (i, day) in shipdate.iter().enumerate() {
        if (19940101..=19941231).contains(&day)
            && (5..=7).contains(&discount.get(i))
            && quantity.get(i) < 24
        {
            (sum, n) = (sum + price.get(i), n + 1);
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

/// The three tables, read as plain vectors.
struct Tables<'a> {
    c: Rows<'a>,
    o: Rows<'a>,
    l: Rows<'a>,
}

/// One row of the customer → orders (→ lineitem) join, by position in
/// each table (the lineitem position unused by a two-table statement).
type Joined = (usize, usize, usize);

/// An aggregating SELECT over the join chain — GROUP BY keys first in its
/// select list, then aggregates — and its meaning a row at a time.
struct JoinCase {
    sql: &'static str,
    lineitem: bool,
    keep: fn(&Tables, Joined) -> bool,
    key: fn(&Tables, Joined) -> Vec<Val>,
    fold: fn(&Tables, &[Joined]) -> Vec<Val>,
    /// ORDER BY (output column, descending) and LIMIT; without it the
    /// rows are compared as a multiset.
    order: Option<(usize, bool, usize)>,
}

/// `count(*)` of a group.
fn count(rows: &[Joined]) -> Val {
    Val::Lng(rows.len() as i64)
}

fn join_cases() -> Vec<JoinCase> {
    vec![
        // Two tables: a key and a WHERE on each.
        JoinCase {
            sql: "select c.c_mktsegment, o.o_shippriority, count(*), sum(o.o_totalprice) \
                  from customer c inner join orders o on c.c_custkey = o.o_custkey \
                  where c.c_nationkey < 12 and o.o_orderdate >= 19950101 \
                  group by c.c_mktsegment, o.o_shippriority",
            lineitem: false,
            keep: |t, (c, o, _)| {
                t.c.ints("c_nationkey").get(c) < 12 && t.o.ints("o_orderdate").get(o) >= 19950101
            },
            key: |t, (c, o, _)| vec![t.c.val("c_mktsegment", c), t.o.val("o_shippriority", o)],
            fold: |t, rows| {
                let sum = rows.iter().map(|&(_, o, _)| t.o.lngs("o_totalprice").get(o)).sum();
                vec![count(rows), Val::Lng(sum)]
            },
            order: None,
        },
        // Joined the other way round, folding the other table's columns,
        // ordered and limited.
        JoinCase {
            sql: "select c.c_nationkey, min(o.o_orderdate), max(o.o_totalprice), count(*) \
                  from orders o inner join customer c on o.o_custkey = c.c_custkey \
                  where c.c_mktsegment in ('BUILDING', 'MACHINERY') \
                  and o.o_totalprice > 100000 \
                  group by c.c_nationkey order by c.c_nationkey limit 5",
            lineitem: false,
            keep: |t, (c, o, _)| {
                ["BUILDING", "MACHINERY"].contains(&t.c.strs("c_mktsegment")[c])
                    && t.o.lngs("o_totalprice").get(o) > 100000
            },
            key: |t, (c, _, _)| vec![t.c.val("c_nationkey", c)],
            fold: |t, rows| {
                let dates = rows.iter().map(|&(_, o, _)| t.o.ints("o_orderdate").get(o));
                let prices = rows.iter().map(|&(_, o, _)| t.o.lngs("o_totalprice").get(o));
                let (min, max) = (dates.min().expect("a row"), prices.max().expect("a row"));
                vec![Val::Int(min), Val::Lng(max), count(rows)]
            },
            order: Some((0, false, 5)),
        },
        // Three tables: a key and a WHERE on each.
        JoinCase {
            sql: "select c.c_mktsegment, o.o_shippriority, l.l_returnflag, \
                  sum(l.l_quantity), avg(l.l_discount), count(*) \
                  from customer c inner join orders o on c.c_custkey = o.o_custkey \
                  inner join lineitem l on l.l_orderkey = o.o_orderkey \
                  where c.c_nationkey >= 5 and o.o_orderdate between 19930101 and 19971231 \
                  and l.l_shipdate > 19940601 \
                  group by c.c_mktsegment, o.o_shippriority, l.l_returnflag",
            lineitem: true,
            keep: |t, (c, o, l)| {
                t.c.ints("c_nationkey").get(c) >= 5
                    && (19930101..=19971231).contains(&t.o.ints("o_orderdate").get(o))
                    && t.l.ints("l_shipdate").get(l) > 19940601
            },
            key: |t, (c, o, l)| {
                let flag = t.l.val("l_returnflag", l);
                vec![t.c.val("c_mktsegment", c), t.o.val("o_shippriority", o), flag]
            },
            fold: |t, rows| {
                let quantity = rows.iter().map(|&(_, _, l)| t.l.lngs("l_quantity").get(l)).sum();
                let discount: i64 =
                    rows.iter().map(|&(_, _, l)| t.l.lngs("l_discount").get(l)).sum();
                let avg = Val::Dbl(discount as f64 / rows.len() as f64);
                vec![Val::Lng(quantity), avg, count(rows)]
            },
            order: None,
        },
        // Folding every table's columns, ordered descending and limited.
        JoinCase {
            sql: "select o.o_orderkey, c.c_nationkey, sum(l.l_extendedprice), \
                  max(o.o_totalprice), min(c.c_custkey) \
                  from customer c inner join orders o on c.c_custkey = o.o_custkey \
                  inner join lineitem l on l.l_orderkey = o.o_orderkey \
                  where c.c_mktsegment <> 'HOUSEHOLD' and o.o_totalprice < 400000 \
                  and l.l_discount between 2 and 8 \
                  group by o.o_orderkey, c.c_nationkey order by o.o_orderkey desc limit 7",
            lineitem: true,
            keep: |t, (c, o, l)| {
                t.c.strs("c_mktsegment")[c] != "HOUSEHOLD"
                    && t.o.lngs("o_totalprice").get(o) < 400000
                    && (2..=8).contains(&t.l.lngs("l_discount").get(l))
            },
            key: |t, (c, o, _)| vec![t.o.val("o_orderkey", o), t.c.val("c_nationkey", c)],
            fold: |t, rows| {
                let price = rows.iter().map(|&(_, _, l)| t.l.lngs("l_extendedprice").get(l)).sum();
                let total = rows.iter().map(|&(_, o, _)| t.o.lngs("o_totalprice").get(o)).max();
                let custkey = rows.iter().map(|&(c, _, _)| t.c.ints("c_custkey").get(c)).min();
                let (total, custkey) = (total.expect("a row"), custkey.expect("a row"));
                vec![Val::Lng(price), Val::Lng(total), Val::Int(custkey)]
            },
            order: Some((0, true, 7)),
        },
        // No key: one row, also over what the WHERE leaves of the join.
        JoinCase {
            sql: "select count(*), sum(o.o_totalprice) \
                  from customer c inner join orders o on c.c_custkey = o.o_custkey \
                  inner join lineitem l on l.l_orderkey = o.o_orderkey \
                  where c.c_nationkey <> 3 and l.l_quantity < 10",
            lineitem: true,
            keep: |t, (c, _, l)| {
                t.c.ints("c_nationkey").get(c) != 3 && t.l.lngs("l_quantity").get(l) < 10
            },
            key: |_, _| Vec::new(),
            fold: |t, rows| {
                let total = rows.iter().map(|&(_, o, _)| t.o.lngs("o_totalprice").get(o)).sum();
                vec![count(rows), Val::Lng(total)]
            },
            order: None,
        },
    ]
}

/// `case` over `data`, a row at a time: nested loops over the foreign
/// keys, a `BTreeMap` of groups, then the ORDER BY and LIMIT.
fn join_case_answer(data: &tpch::TpchData, case: &JoinCase) -> Vec<Vec<Val>> {
    let t = Tables { c: Rows(&data.customer), o: Rows(&data.orders), l: Rows(&data.lineitem) };
    let (custkey, o_custkey) = (t.c.ints("c_custkey"), t.o.ints("o_custkey"));
    let (orderkey, l_orderkey) = (t.o.ints("o_orderkey"), t.l.ints("l_orderkey"));
    let mut joined = Vec::new();
    for (c, key) in custkey.iter().enumerate() {
        for o in (0..orderkey.len()).filter(|&o| o_custkey.get(o) == key) {
            if !case.lineitem {
                joined.push((c, o, 0));
                continue;
            }
            joined.extend(
                (0..l_orderkey.len())
                    .filter(|&l| l_orderkey.get(l) == orderkey.get(o))
                    .map(|l| (c, o, l)),
            );
        }
    }
    let mut groups: BTreeMap<String, (Vec<Val>, Vec<Joined>)> = BTreeMap::new();
    for row in joined.into_iter().filter(|&row| (case.keep)(&t, row)) {
        let key = (case.key)(&t, row);
        groups.entry(format!("{key:?}")).or_insert_with(|| (key, Vec::new())).1.push(row);
    }
    // Without GROUP BY there is one group, also over no row at all.
    let none = (case.key)(&t, (0, 0, 0));
    if none.is_empty() {
        groups.entry(format!("{none:?}")).or_default();
    }
    let mut rows: Vec<Vec<Val>> =
        groups.into_values().map(|(key, rows)| [key, (case.fold)(&t, &rows)].concat()).collect();
    if let Some((col, descending, limit)) = case.order {
        rows.sort_by(|a, b| a[col].try_cmp(&b[col]).expect("comparable keys"));
        if descending {
            rows.reverse();
        }
        rows.truncate(limit);
    }
    rows
}

/// Aggregating SELECTs over two- and three-table joins — keys, WHERE
/// conjuncts and aggregates on every table, with and without ORDER BY and
/// LIMIT — answer what nested loops answer, on one node and asked from
/// every node of a three-node ring under every placement of the three
/// tables on single owners. Without ORDER BY the order of groups is the
/// engine's own (README "The SQL subset"), so the rows are compared as a
/// multiset.
#[test]
fn aggregates_over_joins_match_a_row_at_a_time_evaluation_on_every_placement() {
    let data = tpch::generate(1.0, 42);
    let cases = join_cases();
    let answers: Vec<Vec<Vec<Val>>> = cases.iter().map(|c| join_case_answer(&data, c)).collect();
    assert!(answers.iter().all(|rows| !rows.is_empty()));
    let as_rows = |rs: &ResultSet, ordered: bool| {
        let mut rows: Vec<Vec<Val>> = (0..rs.row_count())
            .map(|r| (0..rs.column_count()).map(|c| rs.cell(r, c)).collect())
            .collect();
        if !ordered {
            rows.sort_by_key(|row| format!("{row:?}"));
        }
        rows
    };
    let expect = |case: &JoinCase, want: &[Vec<Val>], got: &ResultSet, what: &str| {
        let mut want = want.to_vec();
        if case.order.is_none() {
            want.sort_by_key(|row| format!("{row:?}"));
        }
        assert_eq!(as_rows(got, case.order.is_some()), want, "{what}: {}", case.sql);
    };
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
    for (case, want) in cases.iter().zip(&answers) {
        expect(case, want, &single.execute(0, case.sql).unwrap(), "one node");
    }
    single.shutdown();

    for placement in 0..27 {
        let owners = [placement % 3, placement / 3 % 3, placement / 9];
        let ring = Ring::builder(3).pin_timeout(Duration::from_secs(30)).build();
        for ((table, cols), &owner) in tables().into_iter().zip(&owners) {
            ring.node(owner).load_table("sys", table, cols).unwrap();
        }
        for node in 0..3 {
            for table in ["customer", "orders", "lineitem"] {
                let waited = Duration::from_secs(15);
                ring.node(node).wait_for_table_timeout("sys", table, waited).unwrap();
            }
            for (case, want) in cases.iter().zip(&answers) {
                let what = format!("node {node}, tables at {owners:?}");
                expect(case, want, &ring.execute(node, case.sql).unwrap(), &what);
            }
        }
        ring.shutdown();
    }
}

/// What EXPLAIN shows of aggregation: Q1 and Q6 bind (request, pin)
/// their columns, run **one** fused `aggr.scan` over them and go straight
/// to ORDER BY / the result set — no selection, candidate list,
/// projection or grouping instruction. Q3 keeps the selections and the
/// join of customer and orders, and probes lineitem into it inside the
/// same one instruction: nothing else reads a lineitem column, so no
/// lineitem-length intermediate is built.
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

    let (q3, optimized) = ring.explain_sql(0, tpch::Q3).unwrap();
    let calls = calls(&q3);
    assert_eq!(calls.iter().filter(|c| *c == "aggr.scan").count(), 1, "{q3}");
    assert!(!calls.iter().any(|c| c.starts_with("group.") || c.ends_with("For")), "{q3}");
    assert!(!calls.iter().any(|c| c == "bat.pack" || c == "aggr.sum" || c == "aggr.count"), "{q3}");

    // Each instruction of the plan that runs as (target, `module.func`,
    // its arguments' text, the variables it reads).
    let instrs: Vec<(&str, &str, &str, Vec<&str>)> = optimized
        .lines()
        .map(|l| l.trim().split_once(" := ").unwrap_or(("", l.trim())))
        .filter(|(_, call)| !call.starts_with("function"))
        .filter_map(|(target, call)| {
            let (name, args) = call.split_once('(')?;
            let reads = args.split(|c: char| !c.is_alphanumeric()).filter(|t| t.starts_with('X'));
            Some((target, name, args, reads.collect()))
        })
        .collect();
    // A lineitem column is what a `pin` of a lineitem `request` gives.
    let tickets: Vec<&str> = instrs
        .iter()
        .filter(|(_, name, args, _)| *name == "datacyclotron.request" && args.contains("lineitem"))
        .map(|(target, ..)| *target)
        .collect();
    let pinned = |reads: &[&str]| reads.iter().any(|v| tickets.contains(v));
    let columns: Vec<&str> = instrs
        .iter()
        .filter(|(_, name, _, reads)| *name == "datacyclotron.pin" && pinned(reads))
        .map(|(target, ..)| *target)
        .collect();
    assert_eq!((tickets.len(), columns.len()), (3, 3), "{optimized}");
    for (_, name, _, reads) in &instrs {
        if reads.iter().any(|v| columns.contains(v)) {
            let allowed = ["aggr.scan", "datacyclotron.unpin"];
            assert!(allowed.contains(name), "{name} reads a lineitem column:\n{optimized}");
        }
    }
    assert!(instrs.len() < 69, "{} instructions:\n{optimized}", instrs.len());
    ring.shutdown();
}
