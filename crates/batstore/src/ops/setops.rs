//! Set-style operators keyed on the head column: `semijoin` (keep BUNs of
//! `l` whose head appears in `r`'s head) and `kunion`.
//!
//! Membership is tested by what the two heads know about themselves
//! (§3.1): `r`'s head `void` — a range test, no table at all; otherwise
//! the [`matcher`] walks `l`'s heads against `r`'s, stopping at a row's
//! first match — a merge when both heads claim ascending order
//! (selections keep their input's order, so candidate lists nearly
//! always do), a hash set of `r`'s heads otherwise.

use crate::bat::{Bat, Props};
use crate::column::Column;
use crate::error::{BatError, Result};
use crate::ops::cells::Batch;
use crate::ops::hash::check_rows;
use crate::ops::matcher::matcher;
use crate::value::ColType;

fn mismatch(l: ColType, r: ColType) -> BatError {
    BatError::TypeMismatch { expected: l.name(), got: r.name().to_string() }
}

/// Positions of `l` whose head is among `r`'s heads (`want`) or is not
/// (`!want`), ascending, by the cheapest test their types and claims
/// allow.
fn head_member_rows(l: &Bat, r: &Bat, want: bool) -> Result<Vec<u32>> {
    check_rows(l.count().max(r.count()))?;
    if let Column::Void { seq, len } = *r.head() {
        // `r`'s heads are exactly `seq..seq + len`.
        let inside = |oid: u64| (oid.wrapping_sub(seq) < len as u64) == want;
        let rows = |oids: &mut dyn Iterator<Item = u64>| {
            oids.enumerate().filter(|&(_, o)| inside(o)).map(|(i, _)| i as u32).collect()
        };
        return match l.head() {
            Column::Oid(oids) => Ok(rows(&mut oids.iter().copied())),
            Column::Void { seq: first, len } => Ok(rows(&mut (*first..*first + *len as u64))),
            other => Err(mismatch(other.col_type(), ColType::Void)),
        };
    }
    let sorted = l.props().head_sorted && r.props().head_sorted;
    let (n, mut rows, mut next) = (l.count() as u32, Vec::new(), 0);
    // A row's first match decides it; the rows between two matched ones
    // matched nothing.
    matcher(l.head(), r.head(), sorted, true)?(Batch::Range(0, l.count()), &mut |at, _| {
        if want {
            rows.extend(at.iter().map(|&i| i as u32));
        } else {
            for &i in at {
                rows.extend(next..i as u32);
                next = i as u32 + 1;
            }
        }
    });
    if !want {
        rows.extend(next..n);
    }
    Ok(rows)
}

/// The BUNs of `l` at `rows` (ascending). Dropping rows keeps order and
/// uniqueness, so every claim of `l` holds of the result.
fn keep_rows(l: &Bat, rows: &[u32]) -> Result<Bat> {
    let rows = rows.iter().map(|&i| i as usize);
    Bat::with_props(l.head().gather_iter(rows.clone()), l.tail().gather_iter(rows), l.props())
}

/// `algebra.semijoin(l, r)`: BUNs of `l` whose head occurs among `r`'s
/// heads.
pub fn semijoin(l: &Bat, r: &Bat) -> Result<Bat> {
    keep_rows(l, &head_member_rows(l, r, true)?)
}

/// `algebra.kunion(l, r)`: all BUNs of `l`, plus those BUNs of `r` whose
/// head does not occur in `l` (head-keyed set union, keeping `l`'s
/// values on conflicts). The OR / IN-list kernel.
pub fn kunion(l: &Bat, r: &Bat) -> Result<Bat> {
    if !l.head().join_compatible(r.head()) {
        return Err(mismatch(l.head_type(), r.head_type()));
    }
    if !l.tail().join_compatible(r.tail()) {
        return Err(mismatch(l.tail_type(), r.tail_type()));
    }
    let extra = head_member_rows(r, l, false)?;
    if extra.is_empty() {
        return Ok(l.clone());
    }
    let rows = extra.iter().map(|&i| i as usize);
    let mut head = l.head().clone().materialize();
    head.try_extend(&r.head().gather_iter(rows.clone()))?;
    let mut tail = l.tail().clone();
    tail.try_extend(&r.tail().gather_iter(rows))?;
    // `r`'s BUNs follow `l`'s, so no order is claimed; the added heads
    // are none of `l`'s, and distinct when `r`'s are.
    let props = Props {
        head_key: l.props().head_key && r.props().head_key,
        no_nil: true,
        ..Props::default()
    };
    Bat::with_props(head, tail, props)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use crate::value::Val;

    fn l() -> Bat {
        Bat::new(Column::Oid(vec![0, 1, 2, 3]), Column::from(vec![10, 11, 12, 13])).unwrap()
    }
    fn r() -> Bat {
        Bat::new(Column::Oid(vec![1, 3, 9]), Column::from(vec!["a", "b", "c"])).unwrap()
    }

    #[test]
    fn semijoin_keeps_matching_heads() {
        let s = semijoin(&l(), &r()).unwrap();
        assert_eq!(s.count(), 2);
        assert_eq!(s.bun(0), (Val::Oid(1), Val::Int(11)));
        assert_eq!(s.bun(1), (Val::Oid(3), Val::Int(13)));
    }

    #[test]
    fn void_heads_work() {
        let dense = Bat::dense(Column::from(vec![1, 2, 3]));
        let keys = Bat::new(Column::Oid(vec![0, 2]), Column::from(vec![0, 0])).unwrap();
        let s = semijoin(&dense, &keys).unwrap();
        assert_eq!(s.count(), 2);
    }

    #[test]
    fn incompatible_heads_rejected() {
        let a = Bat::dense(Column::from(vec![1]));
        let strhead = Bat::new(Column::from(vec!["x"]), Column::from(vec![1i32])).unwrap();
        assert!(semijoin(&a, &strhead).is_err());
    }

    #[test]
    fn kunion_merges_by_head() {
        let a = Bat::new(Column::Oid(vec![0, 2]), Column::from(vec![10, 12])).unwrap();
        let b = Bat::new(Column::Oid(vec![2, 3]), Column::from(vec![99, 13])).unwrap();
        let u = kunion(&a, &b).unwrap();
        assert_eq!(u.count(), 3);
        assert_eq!(u.bun(0), (Val::Oid(0), Val::Int(10)));
        assert_eq!(u.bun(1), (Val::Oid(2), Val::Int(12)), "left wins on conflict");
        assert_eq!(u.bun(2), (Val::Oid(3), Val::Int(13)));
    }

    #[test]
    fn kunion_with_empty_sides() {
        let a = Bat::new(Column::Oid(vec![1]), Column::from(vec![5])).unwrap();
        let e = Bat::new(Column::Oid(vec![]), Column::Int(vec![].into())).unwrap();
        assert_eq!(kunion(&a, &e).unwrap().count(), 1);
        assert_eq!(kunion(&e, &a).unwrap().count(), 1);
    }

    #[test]
    fn kunion_rejects_mismatched_tails() {
        let a = Bat::new(Column::Oid(vec![1]), Column::from(vec![5])).unwrap();
        let b = Bat::new(Column::Oid(vec![2]), Column::from(vec!["x"])).unwrap();
        assert!(kunion(&a, &b).is_err());
    }
}
