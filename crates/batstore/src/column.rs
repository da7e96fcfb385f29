//! Typed columns. A column is a vector of one base type; `Void` is the
//! virtual dense OID sequence (`seq, seq+1, …`) that MonetDB uses for BAT
//! heads — it occupies no storage.

use crate::error::{BatError, Result};
use crate::heap::StrCol;
use crate::int::IntCol;
use crate::value::{ColType, Val};
use std::cmp::Ordering;

#[derive(Clone, Debug, PartialEq)]
pub enum Column {
    /// Dense OID sequence starting at `seq`, of length `len`.
    Void {
        seq: u64,
        len: usize,
    },
    Oid(Vec<u64>),
    Int(IntCol<i32>),
    Lng(IntCol<i64>),
    Dbl(Vec<f64>),
    Str(StrCol),
    Bool(Vec<bool>),
    /// Days since epoch.
    Date(IntCol<i32>),
}

/// Borrowed key for hashing/equality across column types: numerics are
/// normalized to a bit pattern, strings borrow from the heap. Used by the
/// hash-join and group-by kernels.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Key<'a> {
    Num(u64),
    Str(&'a str),
}

impl Column {
    pub fn len(&self) -> usize {
        match self {
            Column::Void { len, .. } => *len,
            Column::Oid(v) => v.len(),
            Column::Int(v) | Column::Date(v) => v.len(),
            Column::Lng(v) => v.len(),
            Column::Dbl(v) => v.len(),
            Column::Str(v) => v.len(),
            Column::Bool(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn col_type(&self) -> ColType {
        match self {
            Column::Void { .. } => ColType::Void,
            Column::Oid(_) => ColType::Oid,
            Column::Int(_) => ColType::Int,
            Column::Lng(_) => ColType::Lng,
            Column::Dbl(_) => ColType::Dbl,
            Column::Str(_) => ColType::Str,
            Column::Bool(_) => ColType::Bool,
            Column::Date(_) => ColType::Date,
        }
    }

    /// In-memory footprint of the values (what the ring protocols, the
    /// hot-set budget and the catalog count).
    pub fn byte_size(&self) -> usize {
        match self {
            Column::Void { .. } => 0,
            Column::Oid(v) => v.len() * 8,
            Column::Int(v) | Column::Date(v) => v.byte_size(),
            Column::Lng(v) => v.byte_size(),
            Column::Dbl(v) => v.len() * 8,
            Column::Str(v) => v.byte_size(),
            Column::Bool(v) => v.len(),
        }
    }

    /// Bytes the values take on the wire and on disk: [`Column::byte_size`],
    /// but a `str` or integer column's in the plain layout — offsets and
    /// values, 4 bytes an `int` or `date`, 8 an `lng` — whatever form it
    /// has in memory. Every encoder sizes by this.
    pub fn wire_size(&self) -> usize {
        match self {
            Column::Str(v) => 4 * (v.len() + 1) + v.heap_len(),
            Column::Int(v) | Column::Date(v) => 4 * v.len(),
            Column::Lng(v) => 8 * v.len(),
            other => other.byte_size(),
        }
    }

    pub fn get(&self, i: usize) -> Val {
        match self {
            Column::Void { seq, len } => {
                debug_assert!(i < *len);
                Val::Oid(seq + i as u64)
            }
            Column::Oid(v) => Val::Oid(v[i]),
            Column::Int(v) => Val::Int(v.get(i)),
            Column::Lng(v) => Val::Lng(v.get(i)),
            Column::Dbl(v) => Val::Dbl(v[i]),
            Column::Str(v) => Val::Str(v.get(i).to_string()),
            Column::Bool(v) => Val::Bool(v[i]),
            Column::Date(v) => Val::Date(v.get(i)),
        }
    }

    /// Hashable key view of element `i` (no allocation).
    pub fn key(&self, i: usize) -> Key<'_> {
        match self {
            Column::Void { seq, .. } => Key::Num(seq + i as u64),
            Column::Oid(v) => Key::Num(v[i]),
            Column::Int(v) | Column::Date(v) => Key::Num(v.get(i) as i64 as u64),
            Column::Lng(v) => Key::Num(v.get(i) as u64),
            Column::Dbl(v) => Key::Num(v[i].to_bits()),
            Column::Str(v) => Key::Str(v.get(i)),
            Column::Bool(v) => Key::Num(v[i] as u64),
        }
    }

    /// Can `key()` values of the two columns be meaningfully equated?
    /// (Same normalization domain: exact numeric types must match, except
    /// Void/Oid which share a domain.)
    pub fn join_compatible(&self, other: &Column) -> bool {
        use ColType::*;
        let norm = |t: ColType| match t {
            Void => Oid,
            t => t,
        };
        norm(self.col_type()) == norm(other.col_type())
    }

    /// Compare element `i` against a constant.
    pub fn cmp_val(&self, i: usize, v: &Val) -> Option<Ordering> {
        self.get(i).try_cmp(v)
    }

    /// Materialize: `Void` becomes an explicit `Oid` vector; other columns
    /// are returned unchanged.
    pub fn materialize(self) -> Column {
        match self {
            Column::Void { seq, len } => Column::Oid((0..len as u64).map(|i| seq + i).collect()),
            other => other,
        }
    }

    /// Build a new column from the given indices of this one.
    pub fn gather(&self, idx: &[usize]) -> Column {
        self.gather_iter(idx.iter().copied())
    }

    /// [`Column::gather`] over any replayable sequence of positions, so a
    /// kernel that can compute them (an oid minus a sequence base, a
    /// `u32` index list) fetches without building a `Vec<usize>` first.
    pub(crate) fn gather_iter(&self, idx: impl Iterator<Item = usize> + Clone) -> Column {
        match self {
            Column::Void { seq, len } => Column::Oid(
                idx.map(|i| {
                    debug_assert!(i < *len);
                    seq + i as u64
                })
                .collect(),
            ),
            Column::Oid(v) => Column::Oid(idx.map(|i| v[i]).collect()),
            Column::Int(v) => Column::Int(v.gather(idx)),
            Column::Lng(v) => Column::Lng(v.gather(idx)),
            Column::Dbl(v) => Column::Dbl(idx.map(|i| v[i]).collect()),
            // One copy of the string gather serves every index type.
            Column::Str(v) => Column::Str(v.gather(&idx.collect::<Vec<_>>())),
            Column::Bool(v) => Column::Bool(idx.map(|i| v[i]).collect()),
            Column::Date(v) => Column::Date(v.gather(idx)),
        }
    }

    /// Contiguous sub-column `[lo, hi)`: a copy of the sub-slice.
    pub fn slice(&self, lo: usize, hi: usize) -> Column {
        debug_assert!(lo <= hi && hi <= self.len());
        match self {
            Column::Void { seq, .. } => Column::Void { seq: seq + lo as u64, len: hi - lo },
            Column::Oid(v) => Column::Oid(v[lo..hi].to_vec()),
            Column::Int(v) => Column::Int(v.slice(lo, hi)),
            Column::Lng(v) => Column::Lng(v.slice(lo, hi)),
            Column::Dbl(v) => Column::Dbl(v[lo..hi].to_vec()),
            Column::Str(v) => Column::Str(v.slice(lo, hi)),
            Column::Bool(v) => Column::Bool(v[lo..hi].to_vec()),
            Column::Date(v) => Column::Date(v.slice(lo, hi)),
        }
    }

    /// A `str` column [`StrCol::settled`], an integer one
    /// [`IntCol::settled`], any other as it is: how a kernel that builds a
    /// fragment's next version hands it over.
    pub(crate) fn settled(self) -> Column {
        match self {
            Column::Str(s) => Column::Str(s.settled()),
            Column::Int(v) => Column::Int(v.settled()),
            Column::Date(v) => Column::Date(v.settled()),
            Column::Lng(v) => Column::Lng(v.settled()),
            other => other,
        }
    }

    /// Append a value of matching type; `Void` accepts only the next OID
    /// in sequence.
    pub fn push(&mut self, v: &Val) -> Result<()> {
        match (self, v) {
            (Column::Void { seq, len }, Val::Oid(o)) if *o == *seq + *len as u64 => {
                *len += 1;
                Ok(())
            }
            (Column::Oid(vec), Val::Oid(x)) => {
                vec.push(*x);
                Ok(())
            }
            (Column::Int(vec), Val::Int(x)) | (Column::Date(vec), Val::Date(x)) => {
                vec.push(*x);
                Ok(())
            }
            (Column::Lng(vec), Val::Lng(x)) => {
                vec.push(*x);
                Ok(())
            }
            (Column::Lng(vec), Val::Int(x)) => {
                vec.push(*x as i64);
                Ok(())
            }
            (Column::Dbl(vec), Val::Dbl(x)) => {
                vec.push(*x);
                Ok(())
            }
            (Column::Dbl(vec), Val::Int(x)) => {
                vec.push(*x as f64);
                Ok(())
            }
            (Column::Dbl(vec), Val::Lng(x)) => {
                vec.push(*x as f64);
                Ok(())
            }
            (Column::Str(col), Val::Str(s)) => {
                col.push(s);
                Ok(())
            }
            (Column::Bool(vec), Val::Bool(b)) => {
                vec.push(*b);
                Ok(())
            }
            (me, v) => Err(BatError::TypeMismatch {
                expected: me.col_type().name(),
                got: format!("{v:?}"),
            }),
        }
    }

    /// Append every element of `other` (same or push-coercible type);
    /// the bulk form of [`Column::push`] used by SQL INSERT appends.
    pub fn try_extend(&mut self, other: &Column) -> Result<()> {
        match (&mut *self, other) {
            (Column::Void { len, .. }, Column::Void { len: n, .. }) => {
                *len += n;
                Ok(())
            }
            (Column::Oid(a), Column::Oid(b)) => {
                a.extend_from_slice(b);
                Ok(())
            }
            (Column::Int(a), Column::Int(b)) | (Column::Date(a), Column::Date(b)) => {
                b.iter().for_each(|x| a.push(x));
                Ok(())
            }
            (Column::Lng(a), Column::Lng(b)) => {
                b.iter().for_each(|x| a.push(x));
                Ok(())
            }
            (Column::Dbl(a), Column::Dbl(b)) => {
                a.extend_from_slice(b);
                Ok(())
            }
            (Column::Str(a), Column::Str(b)) => {
                for s in b.iter() {
                    a.push(s);
                }
                Ok(())
            }
            (Column::Bool(a), Column::Bool(b)) => {
                a.extend_from_slice(b);
                Ok(())
            }
            // Fall back to element-wise pushes for the push-coercible
            // pairs (Int→Lng, Int/Lng→Dbl).
            (me, other) => {
                for i in 0..other.len() {
                    me.push(&other.get(i))?;
                }
                Ok(())
            }
        }
    }

    /// Empty column of the given type.
    pub fn empty(ty: ColType) -> Column {
        match ty {
            ColType::Void => Column::Void { seq: 0, len: 0 },
            ColType::Oid => Column::Oid(Vec::new()),
            ColType::Int => Column::Int(Vec::new().into()),
            ColType::Lng => Column::Lng(Vec::new().into()),
            ColType::Dbl => Column::Dbl(Vec::new()),
            ColType::Str => Column::Str(StrCol::new()),
            ColType::Bool => Column::Bool(Vec::new()),
            ColType::Date => Column::Date(Vec::new().into()),
        }
    }

    /// Is the column sorted non-decreasingly?
    pub fn is_sorted(&self) -> bool {
        match self {
            Column::Void { .. } => true,
            Column::Oid(v) => v.windows(2).all(|w| w[0] <= w[1]),
            Column::Int(v) | Column::Date(v) => v.is_sorted(),
            Column::Lng(v) => v.is_sorted(),
            Column::Dbl(v) => v.windows(2).all(|w| dbl_order(w[0], w[1]) != Ordering::Greater),
            Column::Str(v) => (1..v.len()).all(|i| v.get(i - 1) <= v.get(i)),
            Column::Bool(v) => v.windows(2).all(|w| w[0] <= w[1]),
        }
    }

    /// Are the values pairwise distinct (as [`Column::key`] equates them)?
    /// O(n) with a hash set: for checks at the edges, not for kernels.
    pub fn is_key(&self) -> bool {
        match self {
            Column::Void { .. } => true,
            _ => {
                let mut seen = std::collections::HashSet::with_capacity(self.len());
                (0..self.len()).all(|i| seen.insert(self.key(i)))
            }
        }
    }

    /// Sort permutation of the column (stable): indices such that
    /// gathering with them yields a sorted column.
    pub fn sort_perm(&self, descending: bool) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.len()).collect();
        match self {
            Column::Void { .. } => {
                if descending {
                    idx.reverse();
                }
                return idx;
            }
            Column::Oid(v) => idx.sort_by_key(|&i| v[i]),
            Column::Int(v) | Column::Date(v) => v.sort_by_value(&mut idx),
            Column::Lng(v) => v.sort_by_value(&mut idx),
            Column::Dbl(v) => idx.sort_by(|&a, &b| dbl_order(v[a], v[b])),
            Column::Str(v) => idx.sort_by(|&a, &b| v.get(a).cmp(v.get(b))),
            Column::Bool(v) => idx.sort_by_key(|&i| v[i]),
        }
        if descending {
            idx.reverse();
        }
        idx
    }

    /// Typed accessors for the hot kernels.
    pub fn as_oid(&self) -> Option<&[u64]> {
        match self {
            Column::Oid(v) => Some(v),
            _ => None,
        }
    }
    pub fn as_dbl(&self) -> Option<&[f64]> {
        match self {
            Column::Dbl(v) => Some(v),
            _ => None,
        }
    }
    pub fn as_str_col(&self) -> Option<&StrCol> {
        match self {
            Column::Str(v) => Some(v),
            _ => None,
        }
    }

    pub fn iter_vals(&self) -> impl Iterator<Item = Val> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }
}

/// The order `dbl` columns sort in and are "sorted" by: the numbers'
/// own, with every `NaN` after them and equal to each other. (A
/// comparator that called `NaN` equal to everything is no total order,
/// and the standard sort panics on one.)
fn dbl_order(a: f64, b: f64) -> Ordering {
    a.partial_cmp(&b).unwrap_or_else(|| a.is_nan().cmp(&b.is_nan()))
}

/// Narrow when that is smaller ([`IntCol`]).
impl From<Vec<i32>> for Column {
    fn from(v: Vec<i32>) -> Self {
        Column::Int(v.into())
    }
}
/// Narrow when that is smaller ([`IntCol`]).
impl From<Vec<i64>> for Column {
    fn from(v: Vec<i64>) -> Self {
        Column::Lng(v.into())
    }
}
impl From<Vec<f64>> for Column {
    fn from(v: Vec<f64>) -> Self {
        Column::Dbl(v)
    }
}
impl From<Vec<u64>> for Column {
    fn from(v: Vec<u64>) -> Self {
        Column::Oid(v)
    }
}
impl From<Vec<&str>> for Column {
    fn from(v: Vec<&str>) -> Self {
        Column::Str(v.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn void_is_virtual() {
        let c = Column::Void { seq: 10, len: 5 };
        assert_eq!(c.len(), 5);
        assert_eq!(c.byte_size(), 0);
        assert_eq!(c.get(2), Val::Oid(12));
    }

    #[test]
    fn try_extend_same_and_coerced_types() {
        let mut c = Column::from(vec![1, 2]);
        c.try_extend(&Column::from(vec![3])).unwrap();
        assert_eq!(c, Column::Int(vec![1, 2, 3].into()));

        let mut s = Column::from(vec!["a"]);
        s.try_extend(&Column::from(vec!["b", "c"])).unwrap();
        assert_eq!(s.get(2), Val::Str("c".into()));

        // Int extends Lng/Dbl via the push coercions.
        let mut l = Column::from(vec![1i64]);
        l.try_extend(&Column::from(vec![2, 3])).unwrap();
        assert_eq!(l, Column::from(vec![1i64, 2, 3]));

        let mut v = Column::Void { seq: 5, len: 2 };
        v.try_extend(&Column::Void { seq: 0, len: 3 }).unwrap();
        assert_eq!(v.len(), 5);

        // Incompatible types are rejected.
        let mut i = Column::from(vec![1]);
        assert!(i.try_extend(&Column::from(vec!["x"])).is_err());
    }

    #[test]
    fn materialize_void() {
        let c = Column::Void { seq: 3, len: 3 }.materialize();
        assert_eq!(c, Column::Oid(vec![3, 4, 5]));
    }

    #[test]
    fn gather_each_type() {
        let idx = [2usize, 0];
        assert_eq!(Column::from(vec![1, 2, 3]).gather(&idx), Column::Int(vec![3, 1].into()));
        assert_eq!(Column::from(vec!["a", "b", "c"]).gather(&idx), Column::from(vec!["c", "a"]));
        assert_eq!(Column::Void { seq: 5, len: 3 }.gather(&idx), Column::Oid(vec![7, 5]));
    }

    #[test]
    fn slice_void_stays_void() {
        let c = Column::Void { seq: 0, len: 10 }.slice(3, 7);
        assert_eq!(c, Column::Void { seq: 3, len: 4 });
    }

    #[test]
    fn slice_copies_the_sub_range_of_each_type() {
        assert_eq!(Column::from(vec![1, 2, 3, 4]).slice(1, 3), Column::Int(vec![2, 3].into()));
        assert_eq!(Column::from(vec![1.5, 2.5]).slice(2, 2), Column::Dbl(vec![]));
        assert_eq!(Column::from(vec!["a", "bc", "d"]).slice(1, 3), Column::from(vec!["bc", "d"]));
        assert_eq!(Column::Bool(vec![true, false]).slice(0, 1), Column::Bool(vec![true]));
    }

    #[test]
    fn keys_equate_within_domain() {
        let a = Column::from(vec![5i32, 6]);
        let b = Column::from(vec![5i32]);
        assert_eq!(a.key(0), b.key(0));
        assert_ne!(a.key(1), b.key(0));
        let v = Column::Void { seq: 5, len: 1 };
        let o = Column::from(vec![5u64]);
        assert_eq!(v.key(0), o.key(0));
        assert!(v.join_compatible(&o));
        assert!(!a.join_compatible(&o));
    }

    #[test]
    fn negative_int_keys_distinct() {
        let c = Column::from(vec![-1i32, 1]);
        assert_ne!(c.key(0), c.key(1));
        // And -1 as Int equals -1 as Lng domain-wise only via matching types
        let l = Column::from(vec![-1i64]);
        assert_eq!(c.key(0), l.key(0), "i32 widened to i64 bit pattern");
    }

    #[test]
    fn push_type_checked() {
        let mut c = Column::empty(ColType::Int);
        c.push(&Val::Int(1)).unwrap();
        assert!(c.push(&Val::Str("x".into())).is_err());
        let mut v = Column::Void { seq: 0, len: 0 };
        v.push(&Val::Oid(0)).unwrap();
        v.push(&Val::Oid(1)).unwrap();
        assert!(v.push(&Val::Oid(5)).is_err(), "void only extends densely");
    }

    #[test]
    fn sortedness_and_perm() {
        let c = Column::from(vec![3, 1, 2]);
        assert!(!c.is_sorted());
        let perm = c.sort_perm(false);
        assert_eq!(perm, vec![1, 2, 0]);
        assert!(c.gather(&perm).is_sorted());
        let desc = c.sort_perm(true);
        assert_eq!(c.gather(&desc), Column::Int(vec![3, 2, 1].into()));
    }

    #[test]
    fn sort_perm_stable() {
        let c = Column::from(vec![1, 0, 1, 0]);
        assert_eq!(c.sort_perm(false), vec![1, 3, 0, 2]);
    }

    #[test]
    fn nan_sorts_last_and_such_a_column_counts_as_sorted() {
        let nan = f64::NAN;
        let c = Column::from(vec![2.0, nan, -1.0, nan, 0.5, -0.0, 0.0, 7.0, nan, 3.0, 1.0, 9.0]);
        let sorted = c.gather(&c.sort_perm(false));
        let Column::Dbl(v) = &sorted else { panic!() };
        assert_eq!(&v[..9], &[-1.0, -0.0, 0.0, 0.5, 1.0, 2.0, 3.0, 7.0, 9.0]);
        assert!(v[9..].iter().all(|x| x.is_nan()));
        assert!(sorted.is_sorted());
        assert!(!Column::from(vec![nan, 1.0]).is_sorted());
        assert!(Column::from(vec![nan, nan]).is_sorted());
    }

    #[test]
    fn a_narrow_lng_column_reads_as_its_plain_twin() {
        let vals = [7i64, -3, 7, 250, -3];
        let narrow = Column::from(vals.to_vec());
        let mut plain = Column::empty(ColType::Lng);
        vals.iter().for_each(|&x| plain.push(&Val::Lng(x)).unwrap());
        assert_eq!((narrow.byte_size(), plain.byte_size()), (5, 5 * 8));
        assert_eq!((narrow.wire_size(), &narrow), (plain.wire_size(), &plain));
        for i in 0..vals.len() {
            assert_eq!(narrow.key(i), plain.key(i));
            for c in [Val::Int(7), Val::Lng(-4), Val::Dbl(249.5)] {
                assert_eq!(narrow.cmp_val(i, &c), plain.cmp_val(i, &c));
            }
        }
        for desc in [false, true] {
            assert_eq!(narrow.sort_perm(desc), plain.sort_perm(desc));
        }
        assert_eq!((narrow.is_sorted(), narrow.is_key()), (false, false));
        let sorted = narrow.gather(&narrow.sort_perm(false));
        assert!(sorted.is_sorted() && !sorted.slice(0, 2).is_key() && sorted.slice(1, 3).is_key());
        assert_eq!((sorted.byte_size(), sorted.slice(1, 3).byte_size()), (5, 2), "kept narrow");
        // A column of both ends of `i64` stays plain.
        assert_eq!(Column::from(vec![i64::MIN, i64::MAX]).byte_size(), 16);
        // Extends keep the form while the values fit, then widen exactly.
        let mut grown = narrow.clone();
        grown.try_extend(&plain).unwrap();
        grown.try_extend(&Column::from(vec![5, 6])).unwrap();
        assert_eq!(grown.byte_size(), 12);
        grown.try_extend(&Column::from(vec![i64::MAX])).unwrap();
        assert_eq!(
            (grown.byte_size(), grown.get(12), grown.get(3)),
            (13 * 8, Val::Lng(i64::MAX), Val::Lng(250))
        );
    }

    #[test]
    fn string_sort() {
        let c = Column::from(vec!["pear", "apple", "fig"]);
        let perm = c.sort_perm(false);
        assert_eq!(c.gather(&perm), Column::from(vec!["apple", "fig", "pear"]));
    }
}
