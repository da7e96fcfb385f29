//! Grouping by one column (`group_by`) and a grouped sum over it
//! (`grouped_sum`): MonetDB's two-step aggregation, each running one
//! stage of the fused operator ([`scan_aggregate`]) — the key stage for
//! `group_by`, the sum fold for `grouped_sum`. No plan emits them (every
//! aggregation `sqlfront` compiles is one [`scan_aggregate`]), so the
//! ledger's rows for them time the stages `aggr.scan` runs. Also the two
//! pieces the fused stages share: the `i128` sum narrowing and the
//! extremum comparison.
//!
//! [`scan_aggregate`]: crate::ops::scan_aggregate

use crate::bat::{Bat, Props};
use crate::column::Column;
use crate::error::{BatError, Result};
use crate::ops::cells::Batch;
use crate::ops::fused::{dense, key_column, sum_fold};
use crate::ops::hash::check_rows;
use crate::ops::scan::BATCH;
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

/// `group.new(b)`: group BUNs by tail value. Returns `(grp, ext)`:
/// * `grp`: `b.head → group-id` (one BUN per input BUN), in
///   first-appearance order; it keeps `b`'s head claims,
/// * `ext`: `group-id → representative tail value` (one BUN per group:
///   the tail at the group's first row).
pub fn group_by(b: &Bat) -> (Bat, Bat) {
    let (mut key, n) = (key_column(b), b.count());
    let (mut gids, mut firsts, mut codes) = (Vec::with_capacity(n), Vec::new(), [0; BATCH]);
    for lo in (0..n).step_by(BATCH) {
        let batch = Batch::Range(lo, n.min(lo + BATCH));
        key.codes(batch, &mut codes);
        let codes = &codes[..batch.len()];
        // Only a batch that numbered new values holds first rows. Each
        // row fills the next free slot; only a value's first row, whose
        // code is that slot's number, keeps it (no branch on the codes).
        if key.seen() > firsts.len() {
            let mut next = firsts.len();
            firsts.resize(key.seen() + 1, 0);
            for (i, &code) in (lo..).zip(codes) {
                firsts[next] = i;
                next += usize::from(code as usize == next);
            }
            firsts.truncate(next);
        }
        gids.extend(codes.iter().map(|&code| u64::from(code)));
    }
    let props = Props { tail_sorted: false, ..b.props() };
    let grp = Bat::with_props(b.head().clone(), Column::Oid(gids), props).expect("one id per BUN");
    (grp, dense(b.tail().gather(&firsts), false))
}

/// MonetDB's `aggr.sumFor`: the sum per group over `vals` (positionally
/// aligned with `grp`, whose tail holds oid group ids below `ngroups`).
/// Integer sums accumulate in `i128`; one that leaves 64-bit range is a
/// classified [`BatError::Overflow`]. A stale or foreign grouping BAT —
/// an id at or past `ngroups` — fails the query rather than the kernel.
pub fn grouped_sum(vals: &Bat, grp: &Bat, ngroups: usize) -> Result<Bat> {
    if vals.count() != grp.count() {
        return Err(BatError::LengthMismatch { left: vals.count(), right: grp.count() });
    }
    let ids = grp.tail().as_oid().ok_or(BatError::TypeMismatch {
        expected: "oid group ids",
        got: grp.tail_type().name().to_string(),
    })?;
    let mut fold = match vals.tail() {
        Column::Oid(_) => Err(BatError::TypeMismatch { expected: "numeric", got: "oid".into() }),
        column => sum_fold(column, false),
    }?;
    // The stage indexes its slots by the ids, as 32-bit numbers.
    check_rows(ngroups)?;
    if let Some(g) = ids.iter().find(|&&g| g >= ngroups as u64) {
        return Err(BatError::Invalid(format!("group id {g} out of range (ngroups {ngroups})")));
    }
    let (mut counts, mut gids) = (vec![0i64; ngroups], [0u32; BATCH]);
    for (lo, chunk) in (0..).step_by(BATCH).zip(ids.chunks(BATCH)) {
        for (gid, &g) in gids.iter_mut().zip(chunk) {
            *gid = g as u32;
            counts[g as usize] += 1;
        }
        let batch = Batch::Range(lo, lo + chunk.len());
        fold.fold(batch, Some(&gids[..chunk.len()]), ngroups);
    }
    Ok(Bat::dense(fold.finish(&counts)?))
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
