//! The binary relational-algebra operator library. Every operator that
//! appears in the paper's MAL plans lives here, plus the standard
//! analytic set needed by the SQL front-end.
//!
//! Naming follows MonetDB's `algebra`/`bat` modules: `select`, `uselect`,
//! `join`, `reverse`, `mark`, `mirror`, `semijoin`, `kunion`, `slice`,
//! plus sort and grouping kernels — and one operator
//! MonetDB's algebra does not have: [`scan_aggregate`], which filters,
//! groups and aggregates in one pass — probing each batch into a hash
//! join's build side first, when there is one — without materialising
//! anything in between (what `sqlfront` emits for every aggregation).
//!
//! No loop here touches a [`crate::Val`]: kernels are generic over typed
//! views of the raw column storage (`cells`), selections share one scan
//! core (`scan`), and the equality kernels one seeded hash table
//! (`hash`). Which algorithm runs — positional fetch, merge or hash — is
//! read off the operands' column types and [`Props`]; every operator
//! states the `Props` of its result structurally. The generic
//! `Val`-per-row kernels these replaced are the `#[cfg(test)]` `oracle`.

mod aggregate;
mod cells;
mod fused;
pub(crate) mod hash;
mod join;
mod mutate;
#[cfg(test)]
mod oracle;
mod scan;
mod select;
mod setops;
mod sort;

pub use aggregate::{group_by, grouped_sum};
pub use fused::{scan_aggregate, Aggregate, Probe};
pub use join::join;
pub use mutate::{
    erase_rows, matching_rows, scatter_const, stage, MutOp, Mutation, RowPredicate, Staged,
};
pub use select::{select_range, theta_select, uselect, CmpOp};
pub use setops::{kunion, semijoin};
pub use sort::sort_tail;

use crate::bat::{Bat, Props};
use crate::column::Column;

/// `bat.reverse(b)`: swap head and tail. O(1) in MonetDB; here the void
/// head must be materialized. What was claimed of the head now holds of
/// the tail and the other way round; nothing says the old tail is a key.
pub fn reverse(b: &Bat) -> Bat {
    let (head, tail) = (b.head().clone().materialize(), b.tail().clone());
    let p = b.props();
    let props = Props {
        tail_sorted: p.head_sorted,
        head_sorted: p.tail_sorted,
        head_key: false,
        no_nil: true,
    };
    // reverse(head→tail) = (tail→head); lengths are equal by construction.
    Bat::with_props(tail, head, props).expect("reverse preserves length")
}

/// `bat.mirror(b)`: head→head (both sides the head column).
pub fn mirror(b: &Bat) -> Bat {
    let head = b.head().clone();
    let tail = b.head().clone().materialize();
    let props = Props { tail_sorted: b.props().head_sorted, ..b.props() };
    Bat::with_props(head, tail, props).expect("mirror preserves length")
}

/// `algebra.markT(b, base)`: keep the head, replace the tail with a dense
/// OID sequence starting at `base`. Used to renumber join results into
/// result-set positions (see the paper's Table 1 plan).
pub fn mark_tail(b: &Bat, base: u64) -> Bat {
    let head = b.head().clone();
    let len = head.len();
    let props = Props { tail_sorted: true, ..b.props() };
    Bat::with_props(head, Column::Void { seq: base, len }, props).expect("markT preserves length")
}

/// `algebra.markH(b, base)`: keep the tail, replace the head with a dense
/// OID sequence starting at `base`.
pub fn mark_head(b: &Bat, base: u64) -> Bat {
    let tail = b.tail().clone();
    let len = tail.len();
    let props = Props { head_sorted: true, head_key: true, ..b.props() };
    Bat::with_props(Column::Void { seq: base, len }, tail, props).expect("markH preserves length")
}

/// `algebra.slice(b, lo, hi)`: BUNs in position range `[lo, hi]`
/// (inclusive, MonetDB-style).
pub fn slice(b: &Bat, lo: usize, hi: usize) -> Bat {
    b.slice(lo, hi.saturating_add(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Val;

    fn b123() -> Bat {
        Bat::dense(Column::from(vec![10, 20, 30]))
    }

    #[test]
    fn reverse_swaps() {
        let r = reverse(&b123());
        assert_eq!(r.bun(0), (Val::Int(10), Val::Oid(0)));
        assert_eq!(r.bun(2), (Val::Int(30), Val::Oid(2)));
        assert!(r.props().tail_sorted, "oid tail of a dense head is sorted");
    }

    #[test]
    fn reverse_twice_identity_on_buns() {
        let b = b123();
        let rr = reverse(&reverse(&b));
        for i in 0..b.count() {
            assert_eq!(rr.bun(i), b.bun(i));
        }
    }

    #[test]
    fn mirror_maps_head_to_head() {
        let m = mirror(&b123());
        assert_eq!(m.bun(1), (Val::Oid(1), Val::Oid(1)));
    }

    #[test]
    fn mark_tail_renumbers() {
        let m = mark_tail(&reverse(&b123()), 100);
        assert_eq!(m.bun(0), (Val::Int(10), Val::Oid(100)));
        assert_eq!(m.bun(2), (Val::Int(30), Val::Oid(102)));
        assert!(m.props().tail_sorted);
    }

    #[test]
    fn mark_head_renumbers() {
        let m = mark_head(&b123(), 5);
        assert_eq!(m.bun(0), (Val::Oid(5), Val::Int(10)));
    }

    #[test]
    fn slice_is_inclusive() {
        let s = slice(&b123(), 1, 2);
        assert_eq!(s.count(), 2);
        assert_eq!(s.bun(0).1, Val::Int(20));
    }
}
