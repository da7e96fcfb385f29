//! The SQL subset's abstract syntax.

use batstore::{ColType, Val};

/// `schema.table [alias]` — schema defaults to `sys`.
#[derive(Clone, Debug, PartialEq)]
pub struct TableRef {
    pub schema: String,
    pub table: String,
    pub alias: String,
}

/// A column reference `alias.column` or bare `column`.
#[derive(Clone, Debug, PartialEq)]
pub struct ColRef {
    pub table: Option<String>,
    pub column: String,
}

/// Scalar expressions in predicates and select lists.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    Col(ColRef),
    Lit(Val),
}

/// A value literal of a statement: a WHERE constant, a `SET` value, one
/// cell of a `VALUES` row. `slot` is its query-template parameter slot
/// (§3.2): literals are numbered 0, 1, … in the order the parser consumes
/// their tokens, and the compiled plan reads the value through
/// `mal::Arg::Param(slot)`.
#[derive(Clone, Debug, PartialEq)]
pub struct Literal {
    pub slot: u32,
    pub val: Val,
}

/// One WHERE conjunct.
#[derive(Clone, Debug, PartialEq)]
pub enum Predicate {
    /// `col op literal`
    Cmp { col: ColRef, op: String, lit: Literal },
    /// `col BETWEEN lo AND hi`
    Between { col: ColRef, lo: Literal, hi: Literal },
    /// `col IN (v1, v2, …)`
    InList { col: ColRef, vals: Vec<Literal> },
    /// `left = right` over two columns (join predicate).
    ColEq { left: ColRef, right: ColRef },
}

impl Predicate {
    /// The column a single-table predicate filters; a column-to-column
    /// comparison has none.
    pub fn column(&self) -> Option<&ColRef> {
        match self {
            Predicate::Cmp { col, .. }
            | Predicate::Between { col, .. }
            | Predicate::InList { col, .. } => Some(col),
            Predicate::ColEq { .. } => None,
        }
    }
}

/// Aggregate functions in the select list.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggFn {
    Count,
    Sum,
    Min,
    Max,
    Avg,
}

impl AggFn {
    pub fn name(self) -> &'static str {
        match self {
            AggFn::Count => "count",
            AggFn::Sum => "sum",
            AggFn::Min => "min",
            AggFn::Max => "max",
            AggFn::Avg => "avg",
        }
    }
}

/// One item of the select list.
#[derive(Clone, Debug, PartialEq)]
pub enum SelectItem {
    Col(ColRef),
    /// `COUNT(*)` or `AGG(col)`.
    Agg {
        f: AggFn,
        col: Option<ColRef>,
    },
    /// Bare `*`: every column of every FROM table, in declared order
    /// (expanded against the catalog at compile time).
    Star,
}

/// `ORDER BY key [DESC]`.
#[derive(Clone, Debug, PartialEq)]
pub struct OrderKey {
    pub col: ColRef,
    pub descending: bool,
}

/// A parsed SELECT query.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Query {
    pub distinct: bool,
    pub select: Vec<SelectItem>,
    pub from: Vec<TableRef>,
    pub predicates: Vec<Predicate>,
    pub group_by: Vec<ColRef>,
    pub order_by: Option<OrderKey>,
    pub limit: Option<usize>,
}

impl Query {
    pub fn has_aggregates(&self) -> bool {
        self.select.iter().any(|s| matches!(s, SelectItem::Agg { .. }))
    }
}

/// `CREATE TABLE [schema.]t (col type, …)`.
#[derive(Clone, Debug, PartialEq)]
pub struct CreateStmt {
    pub schema: String,
    pub table: String,
    pub cols: Vec<(String, ColType)>,
}

/// `INSERT INTO [schema.]t [(c1, …)] VALUES (v1, …)[, (…)]*`.
#[derive(Clone, Debug, PartialEq)]
pub struct InsertStmt {
    pub schema: String,
    pub table: String,
    /// Explicit column order; `None` means the table's declared order.
    pub columns: Option<Vec<String>>,
    pub rows: Vec<Vec<Literal>>,
}

/// `UPDATE [schema.]t SET c = v [, …] [WHERE <predicates>]`.
#[derive(Clone, Debug, PartialEq)]
pub struct UpdateStmt {
    pub schema: String,
    pub table: String,
    /// `SET` assignments in statement order.
    pub assignments: Vec<(String, Literal)>,
    /// Conjunction of WHERE predicates; empty means every row.
    pub predicates: Vec<Predicate>,
}

/// `DELETE FROM [schema.]t [WHERE <predicates>]`.
#[derive(Clone, Debug, PartialEq)]
pub struct DeleteStmt {
    pub schema: String,
    pub table: String,
    /// Conjunction of WHERE predicates; empty means every row.
    pub predicates: Vec<Predicate>,
}

/// One SQL statement.
#[derive(Clone, Debug, PartialEq)]
pub enum Stmt {
    Select(Query),
    CreateTable(CreateStmt),
    Insert(InsertStmt),
    Update(UpdateStmt),
    Delete(DeleteStmt),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agg_names() {
        assert_eq!(AggFn::Count.name(), "count");
        assert_eq!(AggFn::Avg.name(), "avg");
    }

    #[test]
    fn query_aggregate_detection() {
        let mut q = Query::default();
        assert!(!q.has_aggregates());
        q.select.push(SelectItem::Agg { f: AggFn::Sum, col: None });
        assert!(q.has_aggregates());
    }
}
