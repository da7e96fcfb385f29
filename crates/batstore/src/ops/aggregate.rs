//! Grouping by one column (`group_by`) and a grouped sum over it
//! (`grouped_sum`): MonetDB's two-step aggregation. No plan emits them —
//! every aggregation `sqlfront` compiles is one [`scan_aggregate`] — but
//! the ledger times them on each workload's own columns. Also the two
//! pieces the fused operator shares: the `i128` sum narrowing and the
//! extremum comparison.
//!
//! [`scan_aggregate`]: crate::ops::scan_aggregate

use crate::bat::{Bat, Props};
use crate::column::Column;
use crate::error::{BatError, Result};
use crate::ops::cells::{int_cells, with_keys, Cells};
use crate::ops::hash::{Codes, Key};
use std::cmp::Ordering;

/// Narrow an `i128` accumulator back to the `Lng` output type: a sum of
/// near-`i64::MAX` values surfaces a classified [`BatError::Overflow`],
/// not a panic in debug builds or a wrap in release.
pub(crate) fn narrow_sum(total: i128) -> Result<i64> {
    i64::try_from(total)
        .map_err(|_| BatError::Overflow(format!("sum {total} does not fit in a 64-bit integer")))
}

/// Does `x` displace `best` when looking for the `want`-most value? A
/// `NaN` compares neither way: it displaces nothing and, once first,
/// nothing displaces it.
pub(crate) fn beats<T: PartialOrd>(x: T, best: T, want: Ordering) -> bool {
    match want {
        Ordering::Less => x < best,
        _ => x > best,
    }
}

/// Group ids in first-appearance order for the keys `keys` yields, and
/// the row each group first appeared at. Keys are numbered as the
/// machine values they are ([`Key`]), through [`Codes`].
fn group_rows<C: Cells<Cell: Key>>(keys: C) -> (Vec<u64>, Vec<usize>) {
    let (mut codes, mut reps) = (Codes::new(), Vec::new());
    let mut gids: Vec<u64> = Vec::with_capacity(keys.len());
    for (i, key) in keys.cells().enumerate() {
        let gid = codes.code(key);
        if gid as usize == reps.len() {
            reps.push(i);
        }
        gids.push(gid.into());
    }
    (gids, reps)
}

/// The grouping BAT `b.head → group id`; it pairs one id with each BUN
/// of `b`, whose head claims it therefore keeps.
fn grouping(b: &Bat, gids: Vec<u64>) -> Bat {
    let props = Props { tail_sorted: false, ..b.props() };
    Bat::with_props(b.head().clone(), Column::Oid(gids), props).expect("one id per BUN")
}

/// `group.new(b)`: group BUNs by tail value. Returns `(grp, ext)`:
/// * `grp`: `b.head → group-id` (one BUN per input BUN),
/// * `ext`: `group-id → representative tail value` (one BUN per group,
///   in first-appearance order).
pub fn group_by(b: &Bat) -> (Bat, Bat) {
    let (gids, reps) = with_keys!(b.tail(), |keys| group_rows(keys));
    let ext = Bat::with_props(
        Column::Void { seq: 0, len: reps.len() },
        b.tail().gather(&reps),
        Props { tail_sorted: false, head_sorted: true, head_key: true, no_nil: true },
    )
    .expect("parallel");
    (grouping(b, gids), ext)
}

fn group_ids(grp: &Bat) -> Result<&[u64]> {
    grp.tail().as_oid().ok_or(BatError::TypeMismatch {
        expected: "oid group ids",
        got: grp.tail_type().name().to_string(),
    })
}

fn check_grouped(vals: &Bat, grp: &Bat) -> Result<()> {
    if vals.count() != grp.count() {
        return Err(BatError::LengthMismatch { left: vals.count(), right: grp.count() });
    }
    Ok(())
}

/// A group id produced by [`group_by`] must address an
/// accumulator slot; a stale or foreign grouping BAT must fail the
/// query, not panic the kernel on an out-of-bounds index.
fn group_slot(g: u64, ngroups: usize) -> Result<usize> {
    let slot = g as usize;
    if slot >= ngroups {
        return Err(BatError::Invalid(format!("group id {g} out of range (ngroups {ngroups})")));
    }
    Ok(slot)
}

/// MonetDB's `aggr.sumFor`: the sum per group over `vals` (positionally
/// aligned with `grp`). Integer sums accumulate in `i128`; one that
/// leaves 64-bit range is a classified [`BatError::Overflow`].
pub fn grouped_sum(vals: &Bat, grp: &Bat, ngroups: usize) -> Result<Bat> {
    fn int_sums<C: Cells<Cell: Into<i128>>>(cells: C, ids: &[u64], ngroups: usize) -> Result<Bat> {
        let (mut acc, base) = (vec![0i128; ngroups], i128::from(cells.base()));
        for (x, &g) in cells.cells().zip(ids) {
            acc[group_slot(g, ngroups)?] += base + x.into();
        }
        let sums = acc.into_iter().map(narrow_sum).collect::<Result<Vec<i64>>>()?;
        Ok(Bat::dense(Column::from(sums)))
    }
    check_grouped(vals, grp)?;
    let ids = group_ids(grp)?;
    match vals.tail() {
        Column::Int(v) => int_cells!(v, |cells| int_sums(cells, ids, ngroups)),
        Column::Lng(v) => int_cells!(v, |cells| int_sums(cells, ids, ngroups)),
        Column::Dbl(v) => {
            let mut acc = vec![0f64; ngroups];
            for (i, &g) in ids.iter().enumerate() {
                acc[group_slot(g, ngroups)?] += v[i];
            }
            Ok(Bat::dense(Column::Dbl(acc)))
        }
        other => Err(BatError::TypeMismatch {
            expected: "numeric",
            got: other.col_type().name().to_string(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Val;

    fn vals() -> Bat {
        Bat::dense(Column::from(vec![10, 20, 10, 30, 20, 10]))
    }

    #[test]
    fn group_by_first_appearance_order() {
        let (grp, ext) = group_by(&vals());
        assert_eq!(ext.count(), 3);
        assert_eq!(ext.bun(0).1, Val::Int(10));
        assert_eq!(ext.bun(1).1, Val::Int(20));
        assert_eq!(ext.bun(2).1, Val::Int(30));
        let ids = grp.tail().as_oid().unwrap();
        assert_eq!(ids, &[0, 1, 0, 2, 1, 0]);
    }

    #[test]
    fn grouped_sums() {
        let b = vals();
        let (grp, ext) = group_by(&b);
        let s = grouped_sum(&b, &grp, ext.count()).unwrap();
        assert_eq!(s.tail(), &Column::from(vec![30i64, 40, 30]));
        let strings = Bat::dense(Column::from(vec!["a", "b", "a", "b", "a", "b"]));
        assert!(grouped_sum(&strings, &grp, ext.count()).is_err());
    }

    #[test]
    fn grouped_length_mismatch() {
        let (grp, _) = group_by(&vals());
        let short = Bat::dense(Column::from(vec![1]));
        assert!(grouped_sum(&short, &grp, 3).is_err());
    }

    #[test]
    fn grouped_sum_overflow_is_classified() {
        let keys = Bat::dense(Column::from(vec!["a", "a", "b"]));
        let vals = Bat::dense(Column::from(vec![i64::MAX, 1i64, 7]));
        let (grp, ext) = group_by(&keys);
        match grouped_sum(&vals, &grp, ext.count()) {
            Err(BatError::Overflow(_)) => {}
            other => panic!("expected Overflow, got {other:?}"),
        }
        // A negative overflow too; large but in-range sums narrow fine.
        let vals = Bat::dense(Column::from(vec![i64::MIN, -1i64, 7]));
        assert!(matches!(grouped_sum(&vals, &grp, 2), Err(BatError::Overflow(_))));
        let vals = Bat::dense(Column::from(vec![i64::MAX, i64::MIN, 7]));
        assert_eq!(grouped_sum(&vals, &grp, 2).unwrap().tail(), &Column::from(vec![-1i64, 7]));
    }

    #[test]
    fn hostile_group_ids_error_not_panic() {
        // A grouping BAT whose ids exceed ngroups (stale or foreign)
        // must produce a classified error, not an out-of-bounds panic.
        let grp = Bat::dense(Column::Oid(vec![0, 7]));
        let vals = Bat::dense(Column::from(vec![1, 2]));
        assert!(matches!(grouped_sum(&vals, &grp, 2), Err(BatError::Invalid(_))));
    }

    #[test]
    fn group_by_strings() {
        let b = Bat::dense(Column::from(vec!["x", "y", "x"]));
        let (_, ext) = group_by(&b);
        assert_eq!(ext.count(), 2);
    }
}
