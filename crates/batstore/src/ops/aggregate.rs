//! Aggregation: whole-column aggregates (`aggr.count/sum/min/max/avg`)
//! and grouped variants driven by a group-id mapping produced by
//! [`group_by`].

use crate::bat::{Bat, Props};
use crate::column::Column;
use crate::error::{BatError, Result};
use crate::ops::cells::{with_cells, with_keys, Cells};
use crate::ops::hash::{Chains, Key};
use crate::value::Val;
use std::cmp::Ordering;

/// `aggr.count(b)`.
pub fn count(b: &Bat) -> u64 {
    b.count() as u64
}

/// `aggr.sum(b)`: integer columns sum to `Lng`, floats to `Dbl`.
///
/// Integer sums accumulate in `i128` and narrow once at the end: a
/// column of near-`i64::MAX` values must surface a classified
/// [`BatError::Overflow`], not panic in debug builds or wrap in release
/// (TPC-H Q1's price sums are exactly this shape at scale).
pub fn sum(b: &Bat) -> Result<Val> {
    Ok(match b.tail() {
        Column::Int(v) => Val::Lng(narrow_sum(v.iter().map(|&x| x as i128).sum())?),
        Column::Lng(v) => Val::Lng(narrow_sum(v.iter().map(|&x| x as i128).sum())?),
        Column::Dbl(v) => Val::Dbl(v.iter().sum()),
        Column::Oid(v) => Val::Lng(narrow_sum(v.iter().map(|&x| x as i128).sum())?),
        other => {
            return Err(BatError::TypeMismatch {
                expected: "numeric",
                got: other.col_type().name().to_string(),
            })
        }
    })
}

/// Narrow an `i128` accumulator back to the `Lng` output type.
pub(crate) fn narrow_sum(total: i128) -> Result<i64> {
    i64::try_from(total)
        .map_err(|_| BatError::Overflow(format!("sum {total} does not fit in a 64-bit integer")))
}

/// `aggr.min(b)`; `Nil` on empty input.
pub fn min(b: &Bat) -> Val {
    extremum(b, Ordering::Less)
}

/// `aggr.max(b)`; `Nil` on empty input.
pub fn max(b: &Bat) -> Val {
    extremum(b, Ordering::Greater)
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

fn extremum(b: &Bat, want: Ordering) -> Val {
    let at = with_cells!(b.tail(), |vals| {
        let mut cells = vals.cells().enumerate();
        cells.next().map(|first| {
            cells.fold(first, |best, cell| if beats(cell.1, best.1, want) { cell } else { best }).0
        })
    });
    at.map_or(Val::Nil, |i| b.tail().get(i))
}

/// `aggr.avg(b)`; `Nil` on empty input.
pub fn avg(b: &Bat) -> Result<Val> {
    if b.is_empty() {
        return Ok(Val::Nil);
    }
    let s = sum(b)?;
    let n = b.count() as f64;
    Ok(Val::Dbl(s.as_f64().expect("sum is numeric") / n))
}

/// Group ids in first-appearance order for the keys `keys` yields, and
/// the row each group first appeared at. Keys are hashed as the machine
/// values they are ([`Key`]), into a table that holds one `u32` per
/// group and compares against the representative row's key.
fn group_rows<C: Cells>(keys: C) -> Result<(Vec<u64>, Vec<usize>)>
where
    C::Cell: Key,
{
    let mut table = Chains::growing();
    let mut gids: Vec<u64> = Vec::with_capacity(keys.len());
    let mut reps: Vec<usize> = Vec::new();
    for (i, key) in keys.cells().enumerate() {
        let hash = key.hash(&table.seed);
        let known = table.chain(hash).find(|&g| keys.at(reps[g]) == key);
        let gid = match known {
            Some(g) => g,
            None => {
                reps.push(i);
                table.push(hash, |seed, g| keys.at(reps[g]).hash(seed))?
            }
        };
        gids.push(gid as u64);
    }
    Ok((gids, reps))
}

/// `(prior group id, value)` per row: the key `group.derive` groups by.
#[derive(Clone, Copy)]
struct Refined<'a, C>(&'a [u64], C);

impl<C: Cells> Cells for Refined<'_, C> {
    type Cell = (u64, C::Cell);

    fn len(self) -> usize {
        self.0.len()
    }

    fn at(self, i: usize) -> (u64, C::Cell) {
        (self.0[i], self.1.at(i))
    }
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
    let (gids, reps) =
        with_keys!(b.tail(), |keys| group_rows(keys)).expect("a BAT's rows fit the group table");
    let ext = Bat::with_props(
        Column::Void { seq: 0, len: reps.len() },
        b.tail().gather(&reps),
        Props { tail_sorted: false, head_sorted: true, head_key: true, no_nil: true },
    )
    .expect("parallel");
    (grouping(b, gids), ext)
}

/// `group.derive(b, grp)`: refine an existing grouping by a further
/// column — the MonetDB idiom for multi-column GROUP BY. Rows fall into
/// the same refined group iff they shared a group in `grp` *and* have
/// equal tails in `b`. Returns `(grp', ext')` like [`group_by`], where
/// `ext'` maps each refined group to a representative row position.
pub fn group_derive(b: &Bat, grp: &Bat) -> Result<(Bat, Bat)> {
    check_grouped(b, grp)?;
    let ids = group_ids(grp)?;
    let (gids, reps) = with_keys!(b.tail(), |keys| group_rows(Refined(ids, keys)))?;
    // First appearances are found in row order: `reps` ascends.
    let ext = Bat::with_props(
        Column::Void { seq: 0, len: reps.len() },
        Column::Oid(reps.iter().map(|&i| i as u64).collect()),
        Props { tail_sorted: true, head_sorted: true, head_key: true, no_nil: true },
    )
    .expect("parallel");
    Ok((grouping(b, gids), ext))
}

/// Distinct tail values of `b`, in first-appearance order (SELECT
/// DISTINCT kernel). Heads are renumbered densely.
pub fn distinct(b: &Bat) -> Bat {
    let (_, ext) = group_by(b);
    ext
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

/// A group id produced by [`group_by`]/[`group_derive`] must address an
/// accumulator slot; a stale or foreign grouping BAT must fail the
/// query, not panic the kernel on an out-of-bounds index.
fn group_slot(g: u64, ngroups: usize) -> Result<usize> {
    let slot = g as usize;
    if slot >= ngroups {
        return Err(BatError::Invalid(format!("group id {g} out of range (ngroups {ngroups})")));
    }
    Ok(slot)
}

/// `aggr.count` per group: `group-id → count`.
pub fn grouped_count(grp: &Bat, ngroups: usize) -> Result<Bat> {
    let ids = group_ids(grp)?;
    let mut counts = vec![0i64; ngroups];
    for &g in ids {
        counts[group_slot(g, ngroups)?] += 1;
    }
    Ok(Bat::dense(Column::Lng(counts)))
}

/// `aggr.sum` per group over `vals` (positionally aligned with `grp`).
/// Integer accumulators are `i128` like the whole-column [`sum`]: a
/// per-group overflow surfaces as a classified [`BatError::Overflow`].
pub fn grouped_sum(vals: &Bat, grp: &Bat, ngroups: usize) -> Result<Bat> {
    check_grouped(vals, grp)?;
    let ids = group_ids(grp)?;
    match vals.tail() {
        Column::Int(v) => {
            let mut acc = vec![0i128; ngroups];
            for (i, &g) in ids.iter().enumerate() {
                acc[group_slot(g, ngroups)?] += v[i] as i128;
            }
            Ok(Bat::dense(Column::Lng(narrow_grouped(acc)?)))
        }
        Column::Lng(v) => {
            let mut acc = vec![0i128; ngroups];
            for (i, &g) in ids.iter().enumerate() {
                acc[group_slot(g, ngroups)?] += v[i] as i128;
            }
            Ok(Bat::dense(Column::Lng(narrow_grouped(acc)?)))
        }
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

fn narrow_grouped(acc: Vec<i128>) -> Result<Vec<i64>> {
    acc.into_iter().map(narrow_sum).collect()
}

/// `aggr.avg` per group.
pub fn grouped_avg(vals: &Bat, grp: &Bat, ngroups: usize) -> Result<Bat> {
    let sums = grouped_sum(vals, grp, ngroups)?;
    let counts = grouped_count(grp, ngroups)?;
    let counts = counts.tail().as_lng().expect("counts are lng");
    let avg = |s: f64, c: i64| if c == 0 { 0.0 } else { s / c as f64 };
    let out = match sums.tail() {
        Column::Lng(s) => s.iter().zip(counts).map(|(&s, &c)| avg(s as f64, c)).collect(),
        Column::Dbl(s) => s.iter().zip(counts).map(|(&s, &c)| avg(s, c)).collect(),
        other => {
            return Err(BatError::TypeMismatch {
                expected: "numeric",
                got: other.col_type().name().to_string(),
            })
        }
    };
    Ok(Bat::dense(Column::Dbl(out)))
}

/// `aggr.min` per group.
pub fn grouped_min(vals: &Bat, grp: &Bat, ngroups: usize) -> Result<Bat> {
    grouped_extremum(vals, grp, ngroups, Ordering::Less)
}

/// `aggr.max` per group.
pub fn grouped_max(vals: &Bat, grp: &Bat, ngroups: usize) -> Result<Bat> {
    grouped_extremum(vals, grp, ngroups, Ordering::Greater)
}

/// The row holding each group's `want`-most value (first of equals).
fn best_rows<C: Cells>(vals: C, ids: &[u64], ngroups: usize, want: Ordering) -> Result<Vec<usize>> {
    let mut best: Vec<Option<(usize, C::Cell)>> = vec![None; ngroups];
    for ((i, x), &g) in vals.cells().enumerate().zip(ids) {
        let slot = &mut best[group_slot(g, ngroups)?];
        if slot.is_none_or(|(_, cur)| beats(x, cur, want)) {
            *slot = Some((i, x));
        }
    }
    best.into_iter()
        .map(|o| o.map(|(i, _)| i).ok_or_else(|| BatError::Invalid("empty group".into())))
        .collect()
}

fn grouped_extremum(vals: &Bat, grp: &Bat, ngroups: usize, want: Ordering) -> Result<Bat> {
    check_grouped(vals, grp)?;
    let ids = group_ids(grp)?;
    let rows = with_cells!(vals.tail(), |cells| best_rows(cells, ids, ngroups, want))?;
    Ok(Bat::dense(vals.tail().gather(&rows)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vals() -> Bat {
        Bat::dense(Column::from(vec![10, 20, 10, 30, 20, 10]))
    }

    #[test]
    fn whole_column_aggregates() {
        let b = vals();
        assert_eq!(count(&b), 6);
        assert_eq!(sum(&b).unwrap(), Val::Lng(100));
        assert_eq!(min(&b), Val::Int(10));
        assert_eq!(max(&b), Val::Int(30));
        assert_eq!(avg(&b).unwrap(), Val::Dbl(100.0 / 6.0));
    }

    #[test]
    fn empty_aggregates() {
        let e = Bat::empty(crate::value::ColType::Int);
        assert_eq!(count(&e), 0);
        assert_eq!(min(&e), Val::Nil);
        assert_eq!(avg(&e).unwrap(), Val::Nil);
        assert_eq!(sum(&e).unwrap(), Val::Lng(0));
    }

    #[test]
    fn sum_rejects_strings() {
        let s = Bat::dense(Column::from(vec!["a"]));
        assert!(sum(&s).is_err());
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
    fn grouped_aggregates() {
        let b = vals();
        let (grp, ext) = group_by(&b);
        let n = ext.count();
        let c = grouped_count(&grp, n).unwrap();
        assert_eq!(c.tail().as_lng().unwrap(), &[3, 2, 1]);
        let s = grouped_sum(&b, &grp, n).unwrap();
        assert_eq!(s.tail().as_lng().unwrap(), &[30, 40, 30]);
        let a = grouped_avg(&b, &grp, n).unwrap();
        assert_eq!(a.tail().as_dbl().unwrap(), &[10.0, 20.0, 30.0]);
    }

    #[test]
    fn grouped_min_max_follow_other_column() {
        // Group by one column, aggregate another: amounts grouped by key.
        let keys = Bat::dense(Column::from(vec!["a", "b", "a", "b"]));
        let amounts = Bat::dense(Column::from(vec![5, 7, 3, 9]));
        let (grp, ext) = group_by(&keys);
        let mn = grouped_min(&amounts, &grp, ext.count()).unwrap();
        let mx = grouped_max(&amounts, &grp, ext.count()).unwrap();
        assert_eq!(mn.tail().as_int().unwrap(), &[3, 7]);
        assert_eq!(mx.tail().as_int().unwrap(), &[5, 9]);
    }

    #[test]
    fn grouped_length_mismatch() {
        let (grp, _) = group_by(&vals());
        let short = Bat::dense(Column::from(vec![1]));
        assert!(grouped_sum(&short, &grp, 3).is_err());
    }

    #[test]
    fn sum_overflow_is_classified() {
        let b = Bat::dense(Column::from(vec![i64::MAX, i64::MAX]));
        match sum(&b) {
            Err(BatError::Overflow(_)) => {}
            other => panic!("expected Overflow, got {other:?}"),
        }
        // A negative overflow too.
        let b = Bat::dense(Column::from(vec![i64::MIN, -1i64]));
        assert!(matches!(sum(&b), Err(BatError::Overflow(_))));
        // Large but in-range sums still narrow fine.
        let b = Bat::dense(Column::from(vec![i64::MAX, i64::MIN]));
        assert_eq!(sum(&b).unwrap(), Val::Lng(-1));
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
    }

    #[test]
    fn hostile_group_ids_error_not_panic() {
        // A grouping BAT whose ids exceed ngroups (stale or foreign)
        // must produce a classified error in every grouped kernel.
        let grp = Bat::dense(Column::Oid(vec![0, 7]));
        let vals = Bat::dense(Column::from(vec![1, 2]));
        assert!(matches!(grouped_count(&grp, 2), Err(BatError::Invalid(_))));
        assert!(matches!(grouped_sum(&vals, &grp, 2), Err(BatError::Invalid(_))));
        assert!(matches!(grouped_min(&vals, &grp, 2), Err(BatError::Invalid(_))));
        assert!(matches!(grouped_avg(&vals, &grp, 2), Err(BatError::Invalid(_))));
    }

    #[test]
    fn group_by_strings() {
        let b = Bat::dense(Column::from(vec!["x", "y", "x"]));
        let (_, ext) = group_by(&b);
        assert_eq!(ext.count(), 2);
    }

    #[test]
    fn group_derive_refines() {
        // Group by region, refine by quarter: (eu,1) (eu,2) (us,1).
        let region = Bat::dense(Column::from(vec!["eu", "eu", "us", "eu", "us"]));
        let quarter = Bat::dense(Column::from(vec![1, 2, 1, 1, 1]));
        let (g1, e1) = group_by(&region);
        assert_eq!(e1.count(), 2);
        let (g2, e2) = group_derive(&quarter, &g1).unwrap();
        assert_eq!(e2.count(), 3, "refined groups: (eu,1) (eu,2) (us,1)");
        let ids = g2.tail().as_oid().unwrap();
        assert_eq!(ids[0], ids[3], "rows 0 and 3 are both (eu,1)");
        assert_eq!(ids[2], ids[4], "rows 2 and 4 are both (us,1)");
        assert_ne!(ids[0], ids[1]);
        // Representative rows point at first appearances.
        assert_eq!(e2.tail().as_oid().unwrap(), &[0, 1, 2]);
        // Grouped aggregates work over the refined grouping.
        let amounts = Bat::dense(Column::from(vec![10, 20, 30, 40, 50]));
        let sums = grouped_sum(&amounts, &g2, e2.count()).unwrap();
        assert_eq!(sums.tail().as_lng().unwrap(), &[50, 20, 80]);
    }

    #[test]
    fn group_derive_checks_alignment() {
        let a = Bat::dense(Column::from(vec![1, 2]));
        let (g, _) = group_by(&Bat::dense(Column::from(vec![1, 2, 3])));
        assert!(group_derive(&a, &g).is_err());
    }

    #[test]
    fn distinct_first_appearance() {
        let b = Bat::dense(Column::from(vec![3, 1, 3, 2, 1]));
        let d = distinct(&b);
        assert_eq!(d.tail().as_int().unwrap(), &[3, 1, 2]);
    }
}
