//! Quickstart: a three-node Data Cyclotron ring in one process.
//!
//! Column fragments are spread over the ring; the SQL front-end compiles
//! queries to MAL plans; the DC optimizer rewrites binds into
//! request/pin/unpin; pins block until the fragments flow past.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use batstore::Column;
use datacyclotron::Ring;

fn main() {
    // 1. Start a ring of three nodes (in-process transport).
    let ring = Ring::builder(3).build();

    // 2. Load the paper's example schema; fragments are assigned to
    //    owners round-robin, exactly like the paper's startup placement.
    ring.load_table("sys", "t", vec![("id", Column::from(vec![1, 2, 3]))]).expect("load t");
    ring.load_table(
        "sys",
        "c",
        vec![
            ("t_id", Column::from(vec![2, 2, 3, 9])),
            ("amount", Column::from(vec![10, 20, 30, 40])),
        ],
    )
    .expect("load c");

    // 3. The paper's running example, §3.2: any node can execute it.
    let sql = "select c.t_id from t, c where c.t_id = t.id";
    println!("SQL> {sql}");
    let out = ring.execute(0, sql).expect("query");
    println!("{}", out.render());

    // 4. Queries settle anywhere: run from every node.
    for node in 0..3 {
        let rs = ring.execute(node, "select amount from c where amount >= 30").expect("query");
        let amounts: Vec<_> = (0..rs.row_count()).map(|r| rs.cell(r, 0)).collect();
        println!("node {node}: {amounts:?}");
    }

    println!("\nDone: the hot set circulated, every node answered.");
    ring.shutdown();
}
