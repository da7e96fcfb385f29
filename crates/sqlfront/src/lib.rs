//! # sqlfront — a small SQL front-end compiling to MAL
//!
//! MonetDB's top layer consists of front-end compilers translating
//! high-level queries into MAL plans (paper §3.1). This crate implements
//! the slice of SQL the paper's scenarios need:
//!
//! ```sql
//! SELECT c.t_id FROM t, c WHERE c.t_id = t.id;          -- the paper's example
//! SELECT region, SUM(amount) FROM sales
//!   WHERE amount >= 10 GROUP BY region ORDER BY region LIMIT 5;
//! SELECT COUNT(*) FROM lineitem WHERE l_qty < 24;
//! ```
//!
//! The generated plans use exactly the operator idiom of the paper's
//! Table 1 — `sql.bind`, selection pushdown, `reverse`/`join`/`markT`
//! plumbing, `resultSet`/`rsCol`/`exportResult` — so the Data Cyclotron
//! optimizer ([`mal::dc_optimize`]) applies to them unchanged.
//!
//! Every value literal compiles to a parameter slot (`mal::Arg::Param`)
//! whose default binding is the literal itself, so a compiled plan is at
//! once self-contained and the query template (§3.2) of every statement
//! with the same [`StmtTemplate::key`].

pub mod ast;
pub mod codegen;
pub mod parser;

pub use ast::{CreateStmt, Expr, InsertStmt, Literal, OrderKey, Query, SelectItem, Stmt, TableRef};
pub use codegen::{compile, compile_sql, compile_stmt};
pub use parser::{parse_query, parse_stmt, parse_template, StmtTemplate};

use mal::Result;

/// Convenience: parse + compile + [`optimize`] in one call.
pub fn compile_sql_dc(sql: &str, catalog: &batstore::Catalog) -> Result<mal::Program> {
    Ok(optimize(&compile_sql(sql, catalog)?))
}

/// The optimizer pipeline a compiled plan runs through before execution
/// — CSE, dead-code elimination, then the Data Cyclotron rewrite — so
/// what EXPLAIN shows is what runs.
pub fn optimize(plan: &mal::Program) -> mal::Program {
    mal::dc_optimize(&mal::dead_code_eliminate(&mal::common_subexpression_eliminate(plan)))
}

/// The columns an aggregate plan reads, each `(schema, table, column)`
/// once, in plan order: `Some` when the plan holds exactly one
/// `aggr.scan` — over one table, or over a join through its probe stage
/// — and its only `sql.*` calls besides the binds (`sql.bind`, or
/// `datacyclotron.request` once optimized) build the result set.
/// Projections, DML, DDL and `dc.*` views answer `None`. The answer is a
/// function of the plan's shape alone, so a cached template answers as
/// every statement of its shape would.
pub fn aggregate_reads(plan: &mal::Program) -> Option<Vec<(&str, &str, &str)>> {
    use mal::ast::{Arg, Const};
    const RESULT_CALLS: [&str; 3] = ["resultSet", "rsCol", "exportResult"];
    if plan.instrs.iter().filter(|i| i.is("aggr", "scan")).count() != 1 {
        return None;
    }
    let mut reads = Vec::new();
    for i in &plan.instrs {
        if i.is("sql", "bind") || i.is("datacyclotron", "request") {
            let [Arg::Const(Const::Str(s)), Arg::Const(Const::Str(t)), Arg::Const(Const::Str(c)), ..] =
                i.args.as_slice()
            else {
                return None;
            };
            let read = (s.as_str(), t.as_str(), c.as_str());
            if !reads.contains(&read) {
                reads.push(read);
            }
        } else if i.module == "sql" && !RESULT_CALLS.contains(&i.func.as_str()) {
            return None;
        }
    }
    Some(reads)
}
