//! Ordering: a stable sort on the tail.

use crate::bat::{Bat, Props};

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
    fn sort_strings() {
        let b = Bat::dense(Column::from(vec!["pear", "apple"]));
        let s = sort_tail(&b, false);
        assert_eq!(s.bun(0).1, Val::Str("apple".into()));
    }
}
