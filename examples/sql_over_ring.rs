//! A fuller tour of the DBMS layer on the ring: filters, aggregates,
//! group-by, order-by/limit, the query-template cache, and explicit plan
//! inspection (Table 1 → Table 2 style).
//!
//! ```sh
//! cargo run --example sql_over_ring
//! ```

use batstore::Column;
use datacyclotron::Ring;

fn main() {
    let ring = Ring::builder(4).build();

    // A small sales fact table spread over the ring.
    let regions = vec!["eu", "us", "eu", "ap", "us", "eu", "ap", "us"];
    let amounts = vec![5, 7, 11, 13, 17, 19, 23, 29];
    let quarters = vec![1, 1, 2, 2, 3, 3, 4, 4];
    ring.load_table(
        "sys",
        "sales",
        vec![
            ("region", Column::from(regions)),
            ("amount", Column::from(amounts)),
            ("quarter", Column::from(quarters)),
        ],
    )
    .unwrap();

    let queries = [
        "select amount from sales where amount > 10",
        "select region, amount from sales where quarter between 2 and 3",
        "select count(*) from sales",
        "select sum(amount), min(amount), max(amount), avg(amount) from sales",
        "select region, sum(amount), count(*) from sales group by region order by region",
        "select amount from sales order by amount desc limit 3",
    ];
    for (i, sql) in queries.iter().enumerate() {
        let node = i % 4; // spread queries over the ring
        println!("── node {node} ── SQL> {sql}");
        match ring.execute(node, sql) {
            Ok(rs) => println!("{}", rs.render()),
            Err(e) => println!("error: {e}"),
        }
    }

    // Template-cache effect: re-running with different constants reuses
    // the compiled plan (§3.2 query templates).
    for threshold in [11, 13, 17] {
        let sql = format!("select count(*) from sales where amount > {threshold}");
        let rs = ring.execute(0, &sql).unwrap();
        println!("amount > {threshold}: {:?}", rs.cell(0, 0));
    }

    // Show the plan rewrite explicitly on a fresh catalog snapshot.
    println!("\nPlan inspection (bind → request/pin/unpin):");
    let mut meta = batstore::Catalog::new();
    let mut store = batstore::BatStore::new();
    meta.create_table_columnar(
        &mut store,
        "sys",
        "sales",
        vec![
            ("region", Column::from(vec!["x"])),
            ("amount", Column::from(vec![1])),
            ("quarter", Column::from(vec![1])),
        ],
    )
    .unwrap();
    let plan = sqlfront::compile_sql("select amount from sales where amount > 10", &meta).unwrap();
    println!("{plan}");
    println!("{}", mal::dc_optimize(&plan));

    ring.shutdown();
}
