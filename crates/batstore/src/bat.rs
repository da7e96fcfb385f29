//! The Binary Association Table: a two-column table mapping head values
//! (usually dense OIDs) to tail values. All relational operators consume
//! and produce BATs (see [`crate::ops`]).

use crate::column::Column;
use crate::error::{BatError, Result};
use crate::value::{ColType, Val};

/// Lightweight properties, used to steer algorithm selection (the paper
/// §3.1: "Additional BAT properties are used to steer selection of more
/// efficient algorithms, e.g., sorted columns lead to sort-merge join").
///
/// A claim is a promise: `true` means the kernels may rely on it, `false`
/// means "not known". Operators set claims *structurally* — a filter
/// keeps its input's order, a `reverse` swaps head and tail claims —
/// and only a BAT entering from outside ([`Bat::new`], [`Bat::dense`],
/// decode) is scanned to find them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Props {
    /// Tail is non-decreasing.
    pub tail_sorted: bool,
    /// Head is non-decreasing (always true of a `void` head): what lets
    /// joins and set operations merge instead of hash.
    pub head_sorted: bool,
    /// Head values are unique.
    pub head_key: bool,
    /// Tail contains no nil values (always true in this kernel: nils are
    /// not representable inside typed vectors; kept for catalog fidelity).
    pub no_nil: bool,
}

#[derive(Clone, Debug, PartialEq)]
pub struct Bat {
    head: Column,
    tail: Column,
    props: Props,
}

impl Bat {
    /// Create from explicit head and tail columns of equal length.
    pub fn new(head: Column, tail: Column) -> Result<Bat> {
        if head.len() != tail.len() {
            return Err(BatError::LengthMismatch { left: head.len(), right: tail.len() });
        }
        let props = Props {
            tail_sorted: tail.is_sorted(),
            head_sorted: head.is_sorted(),
            head_key: matches!(head, Column::Void { .. }),
            no_nil: true,
        };
        Ok(Bat { head, tail, props })
    }

    /// The common case: dense head `0@0, 1@0, …` over a tail column.
    pub fn dense(tail: Column) -> Bat {
        Bat::dense_from(0, tail)
    }

    /// Dense head starting at `seq`.
    pub fn dense_from(seq: u64, tail: Column) -> Bat {
        let len = tail.len();
        let props = Props {
            tail_sorted: tail.is_sorted(),
            head_sorted: true,
            head_key: true,
            no_nil: true,
        };
        Bat { head: Column::Void { seq, len }, tail, props }
    }

    /// Empty BAT with a void head and a typed tail.
    pub fn empty(tail_type: ColType) -> Bat {
        Bat::dense(Column::empty(tail_type))
    }

    pub fn head(&self) -> &Column {
        &self.head
    }

    pub fn tail(&self) -> &Column {
        &self.tail
    }

    pub fn props(&self) -> Props {
        self.props
    }

    pub fn count(&self) -> usize {
        self.head.len()
    }

    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    pub fn head_type(&self) -> ColType {
        self.head.col_type()
    }

    pub fn tail_type(&self) -> ColType {
        self.tail.col_type()
    }

    /// In-memory footprint in bytes (head + tail). This is the size the
    /// ring protocols account against queue capacity.
    pub fn byte_size(&self) -> usize {
        self.head.byte_size() + self.tail.byte_size()
    }

    /// BUN (head, tail) pair at position `i` as scalars.
    pub fn bun(&self, i: usize) -> (Val, Val) {
        (self.head.get(i), self.tail.get(i))
    }

    /// Construct with explicitly claimed properties (used by operators
    /// that guarantee them structurally, avoiding O(n) re-checks). A
    /// debug build checks every claim it is handed, so the test suites
    /// verify each operator's claims on every call; a release build
    /// trusts them.
    pub fn with_props(head: Column, tail: Column, props: Props) -> Result<Bat> {
        if head.len() != tail.len() {
            return Err(BatError::LengthMismatch { left: head.len(), right: tail.len() });
        }
        let (h, t) = (head.col_type(), tail.col_type());
        debug_assert!(
            !props.tail_sorted || tail.is_sorted(),
            "tail_sorted claimed of this {t} tail"
        );
        debug_assert!(
            !props.head_sorted || head.is_sorted(),
            "head_sorted claimed of this {h} head"
        );
        debug_assert!(!props.head_key || head.is_key(), "head_key claimed of this {h} head");
        Ok(Bat { head, tail, props })
    }

    /// Append a BUN; keeps properties conservative (clears claims that may
    /// no longer hold rather than re-scanning).
    pub fn append(&mut self, head: Val, tail: Val) -> Result<()> {
        self.head.push(&head)?;
        self.tail.push(&tail)?;
        let dense = matches!(self.head, Column::Void { .. });
        self.props.tail_sorted = false;
        self.props.head_sorted = dense;
        self.props.head_key = dense;
        Ok(())
    }

    /// A new BAT with `vals` appended to the tail, the void head grown to
    /// match. Only dense (void-head) BATs — i.e. persistent column BATs —
    /// support this; it is the storage primitive behind SQL INSERT.
    pub fn extend_tail(&self, vals: &Column) -> Result<Bat> {
        let Column::Void { seq, .. } = self.head else {
            return Err(BatError::Invalid(format!(
                "extend_tail needs a dense (void-head) BAT, got {} head",
                self.head_type()
            )));
        };
        let mut tail = self.tail.clone();
        tail.try_extend(vals)?;
        Ok(Bat::dense_from(seq, tail.settled()))
    }

    /// Gather rows by position into a new BAT. An arbitrary index list
    /// guarantees no order and no uniqueness, so nothing is claimed.
    pub fn gather(&self, idx: &[usize]) -> Bat {
        let props = Props { no_nil: true, ..Props::default() };
        Bat { head: self.head.gather(idx), tail: self.tail.gather(idx), props }
    }

    /// Contiguous row range `[lo, hi)` — MAL's `algebra.slice`.
    pub fn slice(&self, lo: usize, hi: usize) -> Bat {
        let hi = hi.min(self.count());
        let lo = lo.min(hi);
        let head = self.head.slice(lo, hi);
        let tail = self.tail.slice(lo, hi);
        // A contiguous range keeps every claim of the whole.
        Bat { head, tail, props: self.props }
    }

    /// Render the first `limit` BUNs, MonetDB `io.print` style; used by
    /// examples and debugging.
    pub fn render(&self, limit: usize) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "# BAT {}→{} [{} BUNs, {} bytes]",
            self.head_type(),
            self.tail_type(),
            self.count(),
            self.byte_size()
        );
        for i in 0..self.count().min(limit) {
            let (h, t) = self.bun(i);
            let _ = writeln!(s, "[ {h}, {t} ]");
        }
        if self.count() > limit {
            let _ = writeln!(s, "… {} more", self.count() - limit);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_construction() {
        let b = Bat::dense(Column::from(vec![10, 20, 30]));
        assert_eq!(b.count(), 3);
        assert_eq!(b.bun(1), (Val::Oid(1), Val::Int(20)));
        assert!(b.props().head_key);
        assert!(b.props().tail_sorted);
        assert_eq!(b.byte_size(), 3, "narrowed to one byte a row");
    }

    #[test]
    fn new_scans_what_enters_from_outside() {
        let b = Bat::new(Column::from(vec![3u64, 5, 5]), Column::from(vec![2, 1, 3])).unwrap();
        assert!(b.props().head_sorted && !b.props().tail_sorted && !b.props().head_key);
        let b = Bat::new(Column::from(vec![5u64, 3]), Column::from(vec![1, 1])).unwrap();
        assert!(!b.props().head_sorted && b.props().tail_sorted);
        assert!(Bat::dense_from(9, Column::from(vec![2, 1])).props().head_sorted);
    }

    #[test]
    #[cfg(debug_assertions)]
    fn with_props_checks_its_claims_in_debug_builds() {
        let claim = |head: Vec<u64>, tail: Vec<i32>, props: Props| {
            std::panic::catch_unwind(|| Bat::with_props(head.into(), tail.into(), props)).is_err()
        };
        let none = Props::default();
        assert!(!claim(vec![2, 1, 1], vec![2, 1, 0], none), "no claim, nothing to check");
        assert!(claim(vec![1, 2], vec![2, 1], Props { tail_sorted: true, ..none }));
        assert!(claim(vec![2, 1], vec![1, 2], Props { head_sorted: true, ..none }));
        assert!(claim(vec![1, 1], vec![1, 2], Props { head_key: true, ..none }));
        let all = Props { tail_sorted: true, head_sorted: true, head_key: true, no_nil: true };
        assert!(!claim(vec![1, 2], vec![1, 1], all));
    }

    #[test]
    fn extend_tail_grows_dense_bats() {
        let b = Bat::dense_from(10, Column::from(vec![1, 2]));
        let grown = b.extend_tail(&Column::from(vec![3])).unwrap();
        assert_eq!(grown.count(), 3);
        assert_eq!(grown.bun(2), (Val::Oid(12), Val::Int(3)));
        assert_eq!(b.count(), 2, "original untouched");
        // Type mismatch and non-dense heads are rejected.
        assert!(b.extend_tail(&Column::from(vec!["x"])).is_err());
        let keyed = Bat::new(Column::from(vec![1u64, 2]), Column::from(vec![1, 2])).unwrap();
        assert!(keyed.extend_tail(&Column::from(vec![3])).is_err());
    }

    #[test]
    fn new_checks_lengths() {
        let r = Bat::new(Column::from(vec![1u64, 2]), Column::from(vec![1i32]));
        assert!(matches!(r, Err(BatError::LengthMismatch { .. })));
    }

    #[test]
    fn append_and_props() {
        let mut b = Bat::empty(ColType::Int);
        b.append(Val::Oid(0), Val::Int(5)).unwrap();
        b.append(Val::Oid(1), Val::Int(3)).unwrap();
        assert_eq!(b.count(), 2);
        assert!(b.props().head_key, "void head stays key");
        assert!(b.append(Val::Oid(7), Val::Int(1)).is_err(), "void head must stay dense");
    }

    #[test]
    fn slice_clamps() {
        let b = Bat::dense(Column::from(vec![1, 2, 3, 4]));
        let s = b.slice(1, 3);
        assert_eq!(s.count(), 2);
        assert_eq!(s.bun(0), (Val::Oid(1), Val::Int(2)));
        assert_eq!(b.slice(10, 20).count(), 0);
    }

    #[test]
    fn gather_rows() {
        let b = Bat::dense(Column::from(vec!["a", "b", "c"]));
        let g = b.gather(&[2, 0]);
        assert_eq!(g.bun(0), (Val::Oid(2), Val::Str("c".into())));
        assert_eq!(g.bun(1), (Val::Oid(0), Val::Str("a".into())));
    }

    #[test]
    fn render_contains_header() {
        let b = Bat::dense(Column::from(vec![1]));
        let r = b.render(10);
        assert!(r.contains("void→int"), "{r}");
        assert!(r.contains("[ 0@0, 1 ]"), "{r}");
    }
}
