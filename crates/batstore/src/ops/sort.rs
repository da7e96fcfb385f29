//! Ordering operators: stable sort on the tail and top-N selection.

use crate::bat::{Bat, Props};
use crate::error::Result;

/// `algebra.sortTail(b)`: BUNs reordered so the tail is non-decreasing
/// (stable). `descending` flips the order.
pub fn sort_tail(b: &Bat, descending: bool) -> Bat {
    if !descending && b.props().tail_sorted {
        return b.clone();
    }
    let perm = b.tail().sort_perm(descending);
    let head = b.head().gather(&perm);
    let tail = b.tail().gather(&perm);
    // A permutation keeps the heads distinct, not in order.
    let props = Props { tail_sorted: !descending, head_sorted: false, ..b.props() };
    Bat::with_props(head, tail, props).expect("permutation preserves length")
}

/// First `n` BUNs by tail order (ascending unless `descending`): the
/// `ORDER BY … LIMIT n` kernel. Uses a full sort; n is small in practice.
pub fn topn(b: &Bat, n: usize, descending: bool) -> Result<Bat> {
    let sorted = sort_tail(b, descending);
    Ok(sorted.slice(0, n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use crate::value::Val;

    #[test]
    fn sort_ascending_keeps_pairs() {
        let b = Bat::dense(Column::from(vec![3, 1, 2]));
        let s = sort_tail(&b, false);
        assert_eq!(s.bun(0), (Val::Oid(1), Val::Int(1)));
        assert_eq!(s.bun(1), (Val::Oid(2), Val::Int(2)));
        assert_eq!(s.bun(2), (Val::Oid(0), Val::Int(3)));
        assert!(s.props().tail_sorted);
    }

    #[test]
    fn sort_descending() {
        let b = Bat::dense(Column::from(vec![3, 1, 2]));
        let s = sort_tail(&b, true);
        let tails: Vec<Val> = (0..3).map(|i| s.bun(i).1).collect();
        assert_eq!(tails, vec![Val::Int(3), Val::Int(2), Val::Int(1)]);
    }

    #[test]
    fn already_sorted_short_circuit() {
        let b = Bat::dense(Column::from(vec![1, 2, 3]));
        let s = sort_tail(&b, false);
        assert_eq!(s, b);
    }

    #[test]
    fn topn_limits() {
        let b = Bat::dense(Column::from(vec![5, 3, 9, 1]));
        let t = topn(&b, 2, false).unwrap();
        assert_eq!(t.count(), 2);
        assert_eq!(t.bun(0).1, Val::Int(1));
        assert_eq!(t.bun(1).1, Val::Int(3));
        let t = topn(&b, 100, true).unwrap();
        assert_eq!(t.count(), 4, "n larger than input clamps");
        assert_eq!(t.bun(0).1, Val::Int(9));
    }

    #[test]
    fn sort_strings() {
        let b = Bat::dense(Column::from(vec!["pear", "apple"]));
        let s = sort_tail(&b, false);
        assert_eq!(s.bun(0).1, Val::Str("apple".into()));
    }
}
