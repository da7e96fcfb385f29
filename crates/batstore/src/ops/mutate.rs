//! Selective-mutation kernels — the storage primitives behind SQL
//! `UPDATE` and `DELETE` (the paper's §6.4 "space for updates": the
//! fragment owner rewrites its authoritative copy and bumps the
//! version; stale copies keep circulating for readers that accept
//! them).
//!
//! The predicate language ([`RowPredicate`]) mirrors the SQL subset's
//! single-table WHERE conjuncts. Predicates travel to the fragment
//! owner *logically* and are evaluated there against the authoritative
//! payload — never as pre-computed row ids, which would be stale the
//! moment a concurrent mutation shifted the rows.

use crate::bat::Bat;
use crate::column::Column;
use crate::error::{BatError, Result};
use crate::ops::cells::{with_cells, Cells};
use crate::ops::scan::{Pred, Scan};
use crate::ops::CmpOp;
use crate::value::Val;
use std::sync::Arc;

/// One WHERE conjunct as it travels to the fragment owner.
#[derive(Clone, Debug, PartialEq)]
pub enum RowPredicate {
    /// `column op literal`.
    Cmp { column: String, op: CmpOp, value: Val },
    /// `column BETWEEN lo AND hi` (inclusive).
    Between { column: String, lo: Val, hi: Val },
    /// `column IN (v1, v2, …)`.
    InList { column: String, values: Vec<Val> },
}

impl RowPredicate {
    /// The column the predicate filters on.
    pub fn column(&self) -> &str {
        match self {
            RowPredicate::Cmp { column, .. }
            | RowPredicate::Between { column, .. }
            | RowPredicate::InList { column, .. } => column,
        }
    }
}

impl RowPredicate {
    pub(crate) fn pred(&self) -> Pred<'_> {
        match self {
            RowPredicate::Cmp { op, value, .. } => Pred::Cmp(*op, value),
            RowPredicate::Between { lo, hi, .. } => Pred::Between(lo, hi),
            RowPredicate::InList { values, .. } => Pred::In(values),
        }
    }
}

/// Row positions (ascending) satisfying the conjunction of `preds` over
/// the table's columns, resolved through `lookup`. With no predicates,
/// every row matches. Each predicate is one pass of the typed scan (the
/// selections' core) over its column: a literal the column's type cannot
/// be compared with fails loudly, whatever the rows hold.
pub fn matching_rows(
    lookup: &dyn Fn(&str) -> Option<Arc<Bat>>,
    row_count: usize,
    preds: &[RowPredicate],
) -> Result<Vec<usize>> {
    let mut rows: Option<Vec<usize>> = None;
    for p in preds {
        let bat = lookup(p.column())
            .ok_or_else(|| BatError::NotFound(format!("column '{}'", p.column())))?;
        if bat.count() != row_count {
            return Err(BatError::LengthMismatch { left: bat.count(), right: row_count });
        }
        if matches!(p, RowPredicate::InList { values, .. } if values.is_empty()) {
            return Err(BatError::Invalid("IN list must not be empty".into()));
        }
        let (col, pred) = (bat.tail(), p.pred());
        let (ty, mut hits) = (col.col_type(), Vec::new());
        with_cells!(col, |vals| {
            Scan::scan(vals.cells(), ty, &pred, &mut |rows, _| hits.extend_from_slice(rows))
        })?;
        // Both lists ascend: keep the earlier conjuncts' rows this one
        // matched too.
        if let Some(rows) = &rows {
            let mut earlier = rows.iter().copied().peekable();
            hits.retain(|&i| {
                while earlier.next_if(|&j| j < i).is_some() {}
                earlier.peek() == Some(&i)
            });
        }
        rows = Some(hits);
    }
    Ok(rows.unwrap_or_else(|| (0..row_count).collect()))
}

/// The void-head sequence of a persistent column BAT; mutation targets
/// must be dense (the storage shape `extend_tail` also requires).
fn dense_seq(b: &Bat) -> Result<u64> {
    match b.head() {
        Column::Void { seq, .. } => Ok(*seq),
        other => Err(BatError::Invalid(format!(
            "selective mutation needs a dense (void-head) BAT, got {} head",
            other.col_type()
        ))),
    }
}

/// A new BAT with `v` written at each position in `rows` (any order,
/// duplicates allowed; every position is bounds-checked) and every
/// other BUN untouched — the UPDATE kernel. The value coerces into the
/// column type exactly as INSERT appends do.
pub fn scatter_const(b: &Bat, rows: &[usize], v: &Val) -> Result<Bat> {
    let seq = dense_seq(b)?;
    let mut hit = vec![false; b.count()];
    for &r in rows {
        if r >= b.count() {
            return Err(BatError::Invalid(format!(
                "row {r} out of range for a {}-row BAT",
                b.count()
            )));
        }
        hit[r] = true;
    }
    if let Column::Void { .. } = b.tail() {
        return Err(BatError::Invalid("a void tail holds no constant".into()));
    }
    // The constant joins the column as one more row, coerced by the
    // rules INSERT appends follow; each hit then reads that row instead
    // of its own.
    let n = b.count();
    let mut with_new = b.tail().clone();
    with_new.push(v)?;
    let tail = with_new.gather_iter((0..n).map(|i| if hit[i] { n } else { i }));
    Ok(Bat::dense_from(seq, tail))
}

/// A new BAT with the BUNs at `rows` (any order, duplicates allowed)
/// removed and the void head kept dense — the DELETE kernel.
pub fn erase_rows(b: &Bat, rows: &[usize]) -> Result<Bat> {
    let seq = dense_seq(b)?;
    let mut drop = vec![false; b.count()];
    for &r in rows {
        if r >= b.count() {
            return Err(BatError::Invalid(format!(
                "row {r} out of range for a {}-row BAT",
                b.count()
            )));
        }
        drop[r] = true;
    }
    let keep: Vec<usize> = (0..b.count()).filter(|&i| !drop[i]).collect();
    Ok(Bat::dense_from(seq, b.tail().gather(&keep)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> (Arc<Bat>, Arc<Bat>) {
        let k = Arc::new(Bat::dense(Column::from(vec![1, 2, 3, 4])));
        let v = Arc::new(Bat::dense(Column::from(vec!["a", "b", "c", "d"])));
        (k, v)
    }

    fn lookup(k: &Arc<Bat>, v: &Arc<Bat>) -> impl Fn(&str) -> Option<Arc<Bat>> {
        let (k, v) = (Arc::clone(k), Arc::clone(v));
        move |name: &str| match name {
            "k" => Some(Arc::clone(&k)),
            "v" => Some(Arc::clone(&v)),
            _ => None,
        }
    }

    #[test]
    fn cmp_between_in_conjunction() {
        let (k, v) = table();
        let l = lookup(&k, &v);
        let rows = matching_rows(
            &l,
            4,
            &[RowPredicate::Cmp { column: "k".into(), op: CmpOp::Ge, value: Val::Int(2) }],
        )
        .unwrap();
        assert_eq!(rows, vec![1, 2, 3]);
        let rows = matching_rows(
            &l,
            4,
            &[
                RowPredicate::Between { column: "k".into(), lo: Val::Int(2), hi: Val::Int(3) },
                RowPredicate::InList {
                    column: "v".into(),
                    values: vec![Val::from("c"), Val::from("d")],
                },
            ],
        )
        .unwrap();
        assert_eq!(rows, vec![2]);
        // No predicates: every row.
        assert_eq!(matching_rows(&l, 4, &[]).unwrap(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn unknown_column_and_bad_types_rejected() {
        let (k, v) = table();
        let l = lookup(&k, &v);
        let miss = matching_rows(
            &l,
            4,
            &[RowPredicate::Cmp { column: "ghost".into(), op: CmpOp::Eq, value: Val::Int(1) }],
        );
        assert!(miss.is_err());
        let bad = matching_rows(
            &l,
            4,
            &[RowPredicate::Cmp { column: "k".into(), op: CmpOp::Eq, value: Val::from("x") }],
        );
        assert!(bad.is_err(), "incomparable literal must fail, not match nothing");
        let empty_in =
            matching_rows(&l, 4, &[RowPredicate::InList { column: "k".into(), values: vec![] }]);
        assert!(empty_in.is_err());
    }

    #[test]
    fn a_bigint_key_above_2_pow_53_matches_only_itself() {
        let big = 1i64 << 53;
        let ids = Arc::new(Bat::dense(Column::from(vec![big, big + 1, big + 2])));
        let lookup = |name: &str| (name == "id").then(|| Arc::clone(&ids));
        let rows = |p: RowPredicate| matching_rows(&lookup, 3, &[p]).unwrap();
        let column = || "id".to_string();
        assert_eq!(
            rows(RowPredicate::Cmp { column: column(), op: CmpOp::Eq, value: Val::Lng(big + 1) }),
            vec![1]
        );
        assert_eq!(
            rows(RowPredicate::InList { column: column(), values: vec![Val::Lng(big + 1)] }),
            vec![1]
        );
        assert_eq!(
            rows(RowPredicate::Between {
                column: column(),
                lo: Val::Lng(big + 1),
                hi: Val::Lng(big + 2)
            }),
            vec![1, 2]
        );
    }

    #[test]
    fn scatter_writes_only_selected_rows() {
        let (k, _) = table();
        let out = scatter_const(&k, &[1, 3], &Val::Int(99)).unwrap();
        let tails: Vec<Val> = (0..4).map(|i| out.bun(i).1).collect();
        assert_eq!(tails, vec![Val::Int(1), Val::Int(99), Val::Int(3), Val::Int(99)]);
        assert_eq!(k.bun(1).1, Val::Int(2), "original untouched");
        // Coercion follows INSERT rules (Int literal into a Lng column).
        let l = Bat::dense(Column::Lng(vec![10, 20]));
        let out = scatter_const(&l, &[0], &Val::Int(5)).unwrap();
        assert_eq!(out.bun(0).1, Val::Lng(5));
        // Type mismatch and range errors are loud.
        assert!(scatter_const(&k, &[0], &Val::from("oops")).is_err());
        assert!(scatter_const(&k, &[9], &Val::Int(1)).is_err());
        // Unsorted and duplicated positions behave identically to the
        // sorted unique list — and out-of-range errs regardless of
        // position in the list.
        let out = scatter_const(&k, &[3, 1, 3], &Val::Int(99)).unwrap();
        let tails: Vec<Val> = (0..4).map(|i| out.bun(i).1).collect();
        assert_eq!(tails, vec![Val::Int(1), Val::Int(99), Val::Int(3), Val::Int(99)]);
        assert!(scatter_const(&k, &[9, 0], &Val::Int(1)).is_err());
    }

    #[test]
    fn erase_keeps_dense_head() {
        let (_, v) = table();
        let out = erase_rows(&v, &[0, 2]).unwrap();
        assert_eq!(out.count(), 2);
        assert_eq!(out.bun(0), (Val::Oid(0), Val::from("b")));
        assert_eq!(out.bun(1), (Val::Oid(1), Val::from("d")));
        assert!(erase_rows(&v, &[4]).is_err());
        // Deleting everything leaves a typed empty BAT.
        let empty = erase_rows(&v, &[0, 1, 2, 3]).unwrap();
        assert_eq!(empty.count(), 0);
        assert_eq!(empty.tail_type(), crate::value::ColType::Str);
    }

    #[test]
    fn non_dense_heads_rejected() {
        let keyed = Bat::new(Column::from(vec![5u64, 6]), Column::from(vec![1, 2])).unwrap();
        assert!(scatter_const(&keyed, &[0], &Val::Int(9)).is_err());
        assert!(erase_rows(&keyed, &[0]).is_err());
    }
}
