//! Join kernels. `algebra.join(l, r)` matches `l`'s tail against `r`'s
//! head and yields `(l.head, r.tail)` for every match — the workhorse of
//! MonetDB's binary algebra.
//!
//! The algorithm is chosen from what the two BATs know about themselves
//! (§3.1), in this order:
//!
//! 1. `r.head` is `void` — a **positional fetch**: the oid minus the
//!    sequence base *is* the position, so the join is one bounds-checked
//!    gather. Every projection `sqlfront` emits (`join(candidates,
//!    column)`) is this.
//! 2. `l.tail` and `r.head` both claim ascending order (never `dbl`) —
//!    the [`matcher`]'s **merge**, walking `l`.
//! 3. Otherwise the [`matcher`]'s **hash** table, on the smaller side
//!    (on `r` for a `dbl` key both claim sorted).
//!
//! Every path emits the same BUNs in the same order: `l`-major, and
//! within one `l` row by ascending `r` position.

use crate::bat::{Bat, Props};
use crate::column::Column;
use crate::error::{BatError, Result};
use crate::ops::cells::Batch;
use crate::ops::hash::check_rows;
use crate::ops::matcher::matcher;

/// `algebra.join(l, r)`: inner equi-join of `l.tail` with `r.head`,
/// producing `(l.head, r.tail)` pairs in l-major order.
pub fn join(l: &Bat, r: &Bat) -> Result<Bat> {
    let mismatch = || BatError::TypeMismatch {
        expected: l.tail_type().name(),
        got: r.head_type().name().to_string(),
    };
    if let Column::Void { seq, .. } = r.head() {
        return match l.tail() {
            Column::Oid(oids) => fetch(l, oids.iter().copied(), *seq, r),
            Column::Void { seq: first, len } => fetch(l, *first..*first + *len as u64, *seq, r),
            _ => Err(mismatch()),
        };
    }
    if !l.tail().join_compatible(r.head()) {
        return Err(mismatch());
    }
    check_rows(l.count().max(r.count()))?;
    let sorted = l.props().tail_sorted && r.props().head_sorted;
    let (li, ri) = if sorted || r.count() <= l.count() {
        matches(l.tail(), r.head(), sorted)?
    } else {
        let (ri, li) = matches(r.head(), l.tail(), false)?;
        l_major(li, ri, l.count())
    };
    // `li` never decreases, so the output head is ordered as `l`'s is.
    let props = Props {
        tail_sorted: false,
        head_sorted: l.props().head_sorted,
        head_key: l.props().head_key && r.props().head_key,
        no_nil: true,
    };
    Bat::with_props(
        l.head().gather_iter(li.iter().map(|&i| i as usize)),
        r.tail().gather_iter(ri.iter().map(|&j| j as usize)),
        props,
    )
}

/// Every matching pair of positions `(walked, kept)`, walked-major.
fn matches(walked: &Column, kept: &Column, sorted: bool) -> Result<(Vec<u32>, Vec<u32>)> {
    let (mut wi, mut ki) = (Vec::new(), Vec::new());
    let rows = Batch::Range(0, walked.len());
    matcher(walked, kept, sorted, false)?(rows, &mut |at, to| {
        wi.extend(at.iter().map(|&i| i as u32));
        ki.extend(to.iter().map(|&j| j as u32));
    });
    Ok((wi, ki))
}

/// The join against a dense head starting at `seq`: `oids` are `l`'s
/// tail, and the BUN of `r` an oid names sits at `oid - seq`. An oid
/// outside `r` matches nothing and its row drops out, as in any inner
/// join; when none does (the usual case: candidates were selected from
/// this very table) `l`'s head is kept as it is, `void` included.
fn fetch(l: &Bat, oids: impl Iterator<Item = u64> + Clone, seq: u64, r: &Bat) -> Result<Bat> {
    let len = r.count() as u64;
    // In `0..len` exactly when the oid is one of `r`'s: an oid below
    // `seq` wraps far above it.
    let pos = |oid: u64| oid.wrapping_sub(seq);
    let (head, tail) = if oids.clone().all(|o| pos(o) < len) {
        (l.head().clone(), r.tail().gather_iter(oids.map(|o| pos(o) as usize)))
    } else {
        let hits = oids.clone().enumerate().filter(|&(_, o)| pos(o) < len);
        (
            l.head().gather_iter(hits.map(|(i, _)| i)),
            r.tail().gather_iter(oids.map(pos).filter(|&p| p < len).map(|p| p as usize)),
        )
    };
    // Each `l` row matches at most once, in place; ascending oids fetch
    // ascending positions.
    let props = Props {
        tail_sorted: l.props().tail_sorted && r.props().tail_sorted,
        head_sorted: l.props().head_sorted,
        head_key: l.props().head_key,
        no_nil: true,
    };
    Bat::with_props(head, tail, props)
}

/// The pairs `(li, ri)`, `r`-major and for one `r` row by ascending `l`
/// position, reordered `l`-major: counting them per `l` row (of
/// `l_rows`) and placing each at its row's next slot is a stable sort.
fn l_major(li: Vec<u32>, ri: Vec<u32>, l_rows: usize) -> (Vec<u32>, Vec<u32>) {
    let mut next = vec![0usize; l_rows + 1];
    for &i in &li {
        next[i as usize + 1] += 1;
    }
    for i in 0..l_rows {
        next[i + 1] += next[i];
    }
    let (mut lo, mut ro) = (vec![0u32; li.len()], vec![0u32; ri.len()]);
    for (&i, &j) in li.iter().zip(&ri) {
        let at = &mut next[i as usize];
        (lo[*at], ro[*at]) = (i, j);
        *at += 1;
    }
    (lo, ro)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::reverse;
    use crate::value::Val;

    #[test]
    fn paper_example_join_shape() {
        // The paper's plan: X1 = t.id (void→int), X6 = c.t_id (void→int),
        // X9 = reverse(X6) (int→oid), X10 = join(X1, X9) (void→oid).
        let t_id = Bat::dense(Column::from(vec![1, 2, 3]));
        let c_t_id = Bat::dense(Column::from(vec![2, 2, 3, 9]));
        let x9 = reverse(&c_t_id);
        let x10 = join(&t_id, &x9).unwrap();
        // t row 1 (id=2) matches c rows 0,1; t row 2 (id=3) matches c row 2.
        let buns: Vec<(Val, Val)> = (0..x10.count()).map(|i| x10.bun(i)).collect();
        assert_eq!(
            buns,
            vec![
                (Val::Oid(1), Val::Oid(0)),
                (Val::Oid(1), Val::Oid(1)),
                (Val::Oid(2), Val::Oid(2)),
            ]
        );
    }

    #[test]
    fn hash_and_merge_agree() {
        // The same BUNs in tail order (merge path) and shuffled (hash
        // path) must give the same multiset of (l.head, r.tail) pairs:
        // the heads are explicit oids, so they travel with their rows.
        let buns = [(10u64, 1), (11, 2), (12, 2), (13, 5), (14, 7)];
        let l = |order: [usize; 5]| {
            Bat::new(
                Column::Oid(order.iter().map(|&i| buns[i].0).collect()),
                Column::Int(order.iter().map(|&i| buns[i].1).collect()),
            )
            .unwrap()
        };
        let (l_sorted, l_shuf) = (l([0, 1, 2, 3, 4]), l([4, 2, 3, 1, 0]));
        let r_sorted = reverse(&Bat::dense(Column::from(vec![2, 2, 5, 6])));
        assert!(l_sorted.props().tail_sorted && r_sorted.props().head_sorted);
        assert!(!l_shuf.props().tail_sorted);
        let merged = join(&l_sorted, &r_sorted).unwrap();
        let hashed = join(&l_shuf, &r_sorted).unwrap();

        let pairs = |j: &Bat| {
            let mut pairs: Vec<(Val, Val)> = (0..j.count()).map(|i| j.bun(i)).collect();
            pairs.sort_by_key(|p| format!("{p:?}"));
            pairs
        };
        assert_eq!(pairs(&merged), pairs(&hashed));
        assert_eq!(merged.count(), 5, "2x2 cross product + one 5-match");
        assert_eq!(merged.bun(0), (Val::Oid(11), Val::Oid(0)));
        assert_eq!(hashed.bun(0), (Val::Oid(12), Val::Oid(0)), "l-major in l's own order");
    }

    #[test]
    fn dense_right_head_is_a_positional_fetch() {
        // Candidates (a select's head oids, renumbered) against a base
        // column: the oid is the position. Heads stay as they were —
        // void here — when every candidate is one of the column's rows.
        let base = Bat::dense_from(100, Column::from(vec!["a", "b", "c", "d"]));
        let candidates = Bat::dense(Column::Oid(vec![103, 100, 103]));
        let j = join(&candidates, &base).unwrap();
        assert_eq!(j.head(), &Column::Void { seq: 0, len: 3 });
        assert_eq!(j.tail(), &Column::from(vec!["d", "a", "d"]));
        // An oid outside the column matches nothing; its row drops out.
        let stray = Bat::dense(Column::Oid(vec![99, 101, 104, 102]));
        let j = join(&stray, &base).unwrap();
        assert_eq!(j.head(), &Column::Oid(vec![1, 3]));
        assert_eq!(j.tail(), &Column::from(vec!["b", "c"]));
        // Ascending oids into a sorted column fetch a sorted tail.
        let asc = Bat::dense(Column::Oid(vec![100, 102, 103]));
        assert!(join(&asc, &base).unwrap().props().tail_sorted);
        assert!(!join(&candidates, &base).unwrap().props().tail_sorted);
    }

    #[test]
    fn join_on_strings() {
        let l = Bat::dense(Column::from(vec!["de", "nl", "fr"]));
        let r = reverse(&Bat::dense(Column::from(vec!["nl", "de"])));
        let j = join(&l, &r).unwrap();
        assert_eq!(j.count(), 2);
    }

    #[test]
    fn type_mismatch_rejected() {
        let l = Bat::dense(Column::from(vec![1, 2]));
        let r = reverse(&Bat::dense(Column::from(vec!["x"])));
        assert!(join(&l, &r).is_err());
    }

    #[test]
    fn empty_inputs() {
        let l = Bat::empty(crate::value::ColType::Int);
        let r = reverse(&Bat::dense(Column::from(vec![1, 2])));
        assert_eq!(join(&l, &r).unwrap().count(), 0);
        assert_eq!(join(&Bat::dense(Column::from(vec![1])), &reverse(&l)).unwrap().count(), 0);
    }

    #[test]
    fn no_matches() {
        let l = Bat::dense(Column::from(vec![1, 2, 3]));
        let r = reverse(&Bat::dense(Column::from(vec![10, 20])));
        assert_eq!(join(&l, &r).unwrap().count(), 0);
    }

    #[test]
    fn left_major_order_preserved() {
        // Hash path with build on left (left smaller) must still emit
        // l-major order.
        let l = Bat::dense(Column::from(vec![5, 1]));
        let r = reverse(&Bat::dense(Column::from(vec![1, 5, 1])));
        let j = join(&l, &r).unwrap();
        let heads: Vec<Val> = (0..j.count()).map(|i| j.bun(i).0).collect();
        assert_eq!(heads, vec![Val::Oid(0), Val::Oid(1), Val::Oid(1)]);
    }
}
