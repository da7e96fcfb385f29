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
    let node = ring.place_query(&[datacyclotron::BatId(1), datacyclotron::BatId(2)]);
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
