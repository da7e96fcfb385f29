//! End-to-end SQL over a live in-process ring: correctness against a
//! single-node reference execution, concurrency, and the DC rewrite path.

use batstore::{BatStore, Catalog, Column, Val};
use datacyclotron::{DcConfig, Ring};
use parking_lot::RwLock;
use std::sync::Arc;

fn result_rows(out: &str) -> Vec<String> {
    out.lines().filter(|l| l.starts_with('[')).map(|s| s.to_string()).collect()
}

fn sales_columns() -> Vec<(&'static str, Column)> {
    let n = 200;
    let regions: Vec<&str> = (0..n).map(|i| ["eu", "us", "ap", "af"][i % 4]).collect();
    let amounts: Vec<i32> = (0..n).map(|i| ((i * 37) % 100) as i32).collect();
    let keys: Vec<i32> = (0..n as i32).collect();
    vec![
        ("k", Column::from(keys)),
        ("region", Column::from(regions)),
        ("amount", Column::from(amounts)),
    ]
}

fn dims_columns() -> Vec<(&'static str, Column)> {
    vec![
        ("k", Column::from((0..200).collect::<Vec<_>>())),
        (
            "label",
            Column::from(
                (0..200).map(|i| if i % 2 == 0 { "even" } else { "odd" }).collect::<Vec<_>>(),
            ),
        ),
    ]
}

/// Reference execution: same SQL on a local single-node catalog.
fn reference(sql: &str) -> Vec<String> {
    let mut catalog = Catalog::new();
    let mut store = BatStore::new();
    catalog.create_table_columnar(&mut store, "sys", "sales", sales_columns()).unwrap();
    catalog.create_table_columnar(&mut store, "sys", "dims", dims_columns()).unwrap();
    let prog = sqlfront::compile_sql(sql, &catalog).unwrap();
    let ctx = mal::SessionCtx::new(Arc::new(RwLock::new(catalog)), Arc::new(RwLock::new(store)));
    mal::run_sequential(&prog, &ctx).unwrap();
    result_rows(&ctx.take_output())
}

fn ring_under_test(nodes: usize) -> Ring {
    let ring = Ring::builder(nodes)
        .config(DcConfig {
            load_interval: netsim::SimDuration::from_millis(5),
            ..DcConfig::default()
        })
        .build();
    ring.load_table("sys", "sales", sales_columns()).unwrap();
    ring.load_table("sys", "dims", dims_columns()).unwrap();
    ring
}

#[test]
fn ring_matches_reference_on_variety_of_queries() {
    let ring = ring_under_test(4);
    let queries = [
        "select amount from sales where amount > 90",
        "select region, amount from sales where amount between 10 and 20",
        "select count(*) from sales where region = 'eu'",
        "select sum(amount) from sales",
        "select region, sum(amount), count(*) from sales group by region order by region",
        "select amount from sales order by amount desc limit 5",
        "select dims.label from sales, dims where sales.k = dims.k and sales.amount > 95",
    ];
    for (i, sql) in queries.iter().enumerate() {
        let want = reference(sql);
        let got = result_rows(&ring.execute(i % 4, sql).unwrap().render());
        assert_eq!(got, want, "query diverged on ring: {sql}");
    }
}

#[test]
fn sorted_results_identical_across_nodes() {
    let ring = ring_under_test(3);
    let sql = "select amount from sales where amount >= 50 order by amount";
    let baseline = result_rows(&ring.execute(0, sql).unwrap().render());
    assert!(!baseline.is_empty());
    for node in 1..3 {
        let rows = result_rows(&ring.execute(node, sql).unwrap().render());
        assert_eq!(rows, baseline, "node {node} diverged");
    }
}

#[test]
fn heavy_concurrency_many_nodes() {
    let ring = Arc::new(ring_under_test(5));
    let mut handles = Vec::new();
    for worker in 0..10 {
        let r = Arc::clone(&ring);
        handles.push(std::thread::spawn(move || {
            let node = worker % 5;
            let sql = if worker % 2 == 0 {
                "select count(*) from sales where amount > 50"
            } else {
                "select sum(amount) from sales where region = 'us'"
            };
            let mut outs = Vec::new();
            for _ in 0..5 {
                outs.push(result_rows(&r.execute(node, sql).unwrap().render()));
            }
            outs
        }));
    }
    for h in handles {
        let outs = h.join().expect("worker panicked");
        assert!(outs.windows(2).all(|w| w[0] == w[1]), "non-deterministic results");
    }
}

#[test]
fn bidding_places_queries_on_data_owners() {
    let ring = ring_under_test(4);
    // The footprint fragments live somewhere; the chosen node must be a
    // valid index and execution from it must work.
    let bat = |col| ring.node(0).ring_catalog().lookup("sys", "sales", col).unwrap().bat;
    let node = ring.place_query(&[bat("k"), bat("region")]);
    assert!(node < 4);
    let rs = ring.execute(node, "select count(*) from sales").unwrap();
    assert_eq!(rs.cell(0, 0), Val::Lng(200));
}

#[test]
fn errors_propagate_cleanly() {
    let ring = ring_under_test(2);
    assert!(ring.execute(0, "select ghost from sales").is_err());
    assert!(ring.execute(0, "select amount from missing_table").is_err());
    assert!(ring.execute(0, "not sql at all").is_err());
    // The ring still works afterwards.
    let rs = ring.execute(0, "select count(*) from sales").unwrap();
    assert_eq!(rs.cell(0, 0), Val::Lng(200));
}

/// A plan that appends to some of a table's columns is refused on a ring
/// node, at the owner and routed to it, as on a single node: the
/// statement errors and every column keeps its rows.
#[test]
fn a_partial_insert_is_refused_on_a_ring_node() {
    // A plan compiled against a one-column shape of `t` …
    let mut shape = Catalog::new();
    let a = [("a", batstore::ColType::Int)];
    shape.create_table(&mut BatStore::new(), "sys", "t", &a, &[]).unwrap();
    let plan = sqlfront::compile_sql("insert into t values (5)", &shape).unwrap();
    // … run where `t` is `(a int, b int)`, owned by node 0.
    let ring = Ring::builder(2).build();
    ring.execute(0, "create table t (a int, b int)").unwrap();
    ring.execute(0, "insert into t values (1, 2)").unwrap();
    let wait = std::time::Duration::from_secs(10);
    ring.node(1).wait_for_table_timeout("sys", "t", wait).unwrap();
    for node in [0, 1] {
        let err = ring.run_plan(node, 1_000_000 + node as u64, &plan).unwrap_err();
        assert!(err.to_string().contains("INSERT must cover all 2 columns, got 1"), "{err}");
        for col in ["a", "b"] {
            let rs = ring.execute(0, &format!("select {col} from t")).unwrap();
            assert_eq!(rs.row_count(), 1, "column {col} after the plan on node {node}");
        }
    }
    let rs = ring.execute(0, "select a, b from t").unwrap();
    assert_eq!((rs.cell(0, 0), rs.cell(0, 1)), (Val::Int(1), Val::Int(2)));
    ring.shutdown();
}

/// Each statement of `cases`, asked of one node and of every node of a
/// three-node ring over `table` (its columns spread over the ring's
/// nodes), answers the expected rows — each cell as its `Debug` text, so
/// typed (`Lng(2)`) and with a `dbl`'s sign (`0.0` and `-0.0` differ).
fn answers_on_every_path(table: Vec<(&str, Column)>, cases: &[(&str, &[&[&str]])]) {
    let (single, ring) = (Ring::builder(1).build(), Ring::builder(3).build());
    single.load_table("sys", "t", table.clone()).unwrap();
    ring.load_table("sys", "t", table).unwrap();
    for (sql, want) in cases {
        let answers = (0..3).map(|node| ring.execute(node, sql));
        for rs in std::iter::once(single.execute(0, sql)).chain(answers) {
            let rs = rs.unwrap_or_else(|e| panic!("{sql}: {e}"));
            let rows: Vec<Vec<String>> = (0..rs.row_count())
                .map(|r| (0..rs.column_count()).map(|c| format!("{:?}", rs.cell(r, c))).collect())
                .collect();
            assert_eq!(rows, *want, "{sql}");
        }
    }
    single.shutdown();
    ring.shutdown();
}

/// DISTINCT applies to the rows the SELECT produces, aggregated or not,
/// before ORDER BY and LIMIT.
#[test]
fn distinct_applies_after_aggregation() {
    let table = vec![
        ("g", Column::from(vec!["a", "a", "b", "b", "c", "c", "d"])),
        ("v", Column::from(vec![1, 1, 1, 2, 1, 1, 3])),
    ];
    // Per g: a (sum 2, count 2), b (3, 2), c (2, 2), d (3, 1).
    answers_on_every_path(
        table,
        &[
            ("select distinct count(*) from t group by g", &[&["Lng(2)"], &["Lng(1)"]]),
            ("select distinct count(*) from t", &[&["Lng(7)"]]),
            (
                "select distinct sum(v), count(*) from t group by g order by sum_v limit 2",
                &[&["Lng(2)", "Lng(2)"], &["Lng(3)", "Lng(2)"]],
            ),
            (
                "select distinct sum(v) from t where v < 3 group by g order by sum_v desc",
                &[&["Lng(3)"], &["Lng(2)"]],
            ),
        ],
    );
}

/// DISTINCT answers as it always has: duplicate strings kept once, rows
/// distinct over several columns, first appearance first — and the two
/// zeros of a `double`, which DISTINCT and GROUP BY both tell apart.
#[test]
fn distinct_keeps_first_appearances_and_both_zeros() {
    let table = vec![
        ("s", Column::from(vec!["b", "a", "b", "a", "b", "a"])),
        ("i", Column::from(vec![1, 2, 1, 2, 3, 2])),
        ("d", Column::from(vec![0.0, -0.0, -0.0, 0.0, 0.0, -0.0])),
    ];
    let (a, b) = (r#"Str("a")"#, r#"Str("b")"#);
    answers_on_every_path(
        table,
        &[
            ("select distinct s from t", &[&[b], &[a]]),
            ("select distinct s, i from t", &[&[b, "Int(1)"], &[a, "Int(2)"], &[b, "Int(3)"]]),
            ("select distinct d from t", &[&["Dbl(0.0)"], &["Dbl(-0.0)"]]),
            (
                "select d, count(*) from t group by d",
                &[&["Dbl(0.0)", "Lng(3)"], &["Dbl(-0.0)", "Lng(3)"]],
            ),
            (
                "select distinct s, d from t where i < 3 order by s limit 3",
                &[&[a, "Dbl(-0.0)"], &[a, "Dbl(0.0)"], &[b, "Dbl(0.0)"]],
            ),
        ],
    );
}

/// The MAL registry holds exactly the functions plans call: what
/// `sqlfront` emits for a corpus that reaches every branch of its code
/// generator (before and after the DC rewrite), and what the checked-in
/// textual plans use. A function nothing calls is an orphan to delete; a
/// called one that is missing would fail at run time.
#[test]
fn registry_holds_exactly_what_plans_call() {
    use std::collections::BTreeSet;

    let mut catalog = Catalog::new();
    let mut store = BatStore::new();
    let data = dc_workloads::tpch::sql::generate(0.25, 7);
    for (name, table) in [("customer", data.customer), ("orders", data.orders)] {
        catalog.create_table_columnar(&mut store, "sys", name, table).unwrap();
    }
    catalog.create_table_columnar(&mut store, "sys", "lineitem", data.lineitem).unwrap();
    catalog.create_table_columnar(&mut store, "sys", "sales", sales_columns()).unwrap();
    catalog.create_table_columnar(&mut store, "sys", "dims", dims_columns()).unwrap();
    let kv = [("k", batstore::ColType::Int), ("v", batstore::ColType::Str)];
    catalog.create_table(&mut store, "sys", "kv", &kv, &[]).unwrap();

    let corpus = [
        // README "The SQL subset" and its walkthroughs.
        "create table logs (k int, b bigint, d double, s varchar(8), f boolean, t date)",
        "insert into kv values (1, 'hello'), (2, 'ring')",
        "select k, v from kv order by k",
        "select count(*) from kv",
        "update kv set v = 'rewritten' where k = 1",
        "delete from kv where k = 2",
        "delete from kv",
        "select v from kv where k = 1",
        "select * from kv where k <> 1",
        "select bat, state, loi from dc.hotset",
        "select * from dc.stats",
        // Each emission branch.
        "select v from kv where k in (1, 2, 3)",
        "update kv set v = 'x' where k between 1 and 3 and v in ('a', 'b')",
        "select k from kv where k between 1 and 5 order by k desc limit 0",
        "select distinct v from kv where k > 1",
        "select distinct region, count(*) from sales group by region, amount limit 2",
        "select sum(amount), min(amount), max(amount), avg(amount) from sales",
        "select dims.label from sales, dims where sales.k = dims.k and sales.amount > 95",
        "select count(*) from sales inner join dims on sales.k = dims.k",
    ];
    let mut called: BTreeSet<(String, String)> = BTreeSet::new();
    let mut record = |plan: &mal::Program| {
        called.extend(plan.instrs.iter().map(|i| (i.module.clone(), i.func.clone())));
    };
    let tpch = dc_workloads::tpch::sql::queries().into_iter().map(|(_, sql)| sql);
    for sql in corpus.into_iter().chain(tpch) {
        let plan = sqlfront::compile_sql(sql, &catalog).unwrap_or_else(|e| panic!("{sql}: {e}"));
        record(&plan);
        record(&mal::dc_optimize(&plan));
    }
    // The textual plans: the paper's Table 1 and its DC rewrite (Table 2,
    // `exp_plans`), and the `io.print` plans of the interpreter's and
    // the optimizer's tests.
    let table1 = mal::parse_program(mal::parser::PAPER_TABLE1).unwrap();
    let printed = "function user.q():void;\nX1 := io.stdout();\nio.print(X1);\nend q;";
    for plan in [mal::dc_optimize(&table1), table1, mal::parse_program(printed).unwrap()] {
        record(&plan);
    }

    let registered: BTreeSet<(String, String)> = mal::modules::Registry::standard()
        .names()
        .into_iter()
        .map(|(m, f)| (m.to_string(), f.to_string()))
        .collect();
    let orphans: Vec<_> = registered.difference(&called).collect();
    let missing: Vec<_> = called.difference(&registered).collect();
    assert!(orphans.is_empty(), "registered, but no plan calls: {orphans:?}");
    assert!(missing.is_empty(), "called, but not registered: {missing:?}");
}
