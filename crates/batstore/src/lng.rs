//! `lng` columns in memory: plain, a `Vec<i64>`, or narrow, a base and a
//! `u8`, `u16` or `u32` offset per row (frame-of-reference coding;
//! Zukowski et al., ICDE 2006). A column built from values, decoded or
//! settled as a fragment's next version is narrow when that is smaller,
//! based at its smallest value with the narrowest offsets that hold its
//! largest. `push` keeps it narrow while a value fits, plain once one
//! does not; gathers and slices keep the form. Both forms are equal by
//! value and encode alike ([`LngCol::blocks`]).

use crate::error::Result;

/// Values a narrow column hands an encoder at a time.
const BLOCK: usize = 1024;

/// A narrow column: the value of row `i` is `base + offsets[i]`.
#[derive(Clone, Debug)]
pub(crate) struct Narrow<T> {
    pub base: i64,
    pub offsets: Vec<T>,
}

impl<T: Copy + Into<i64> + TryFrom<u64>> Narrow<T> {
    fn value(&self, offset: T) -> i64 {
        self.base + offset.into()
    }

    /// `x`'s offset from the base, if `T` holds it.
    fn offset(&self, x: i64) -> Option<T> {
        T::try_from(u64::try_from(i128::from(x) - i128::from(self.base)).ok()?).ok()
    }
}

#[derive(Clone, Debug)]
pub(crate) enum Form {
    Plain(Vec<i64>),
    U8(Narrow<u8>),
    U16(Narrow<u16>),
    U32(Narrow<u32>),
}

/// `$narrow` with `$n` bound to a narrow form's [`Narrow`], whatever its
/// offset type, and `$w` to that form's constructor; or `$plain` with
/// `$v` bound to a plain form's vector.
#[rustfmt::skip]
macro_rules! by_form {
    ($form:expr, |$n:ident, $w:pat_param| $narrow:expr, |$v:ident| $plain:expr) => {{
        use $crate::lng::Form::{Plain, U16, U32, U8};
        match $form {
            Plain($v) => $plain,
            U8($n) => { let $w = U8; $narrow }
            U16($n) => { let $w = U16; $narrow }
            U32($n) => { let $w = U32; $narrow }
        }
    }};
}
pub(crate) use by_form;

/// An `lng` column, plain or narrow (see the module doc). The form is
/// boxed, so that a `Column` stays as small as its other variants.
#[derive(Clone, Debug)]
pub struct LngCol(Box<Form>);

/// The smallest and largest of `vals`; `None` when there are none.
fn bounds(mut vals: impl Iterator<Item = i64>) -> Option<(i64, i64)> {
    let first = vals.next()?;
    Some(vals.fold((first, first), |(lo, hi), x| (lo.min(x), hi.max(x))))
}

/// Bytes per row of the form values from `lo` to `hi` take: the
/// narrowest offset that holds their span, or 8 (plain) when none does.
fn width(lo: i64, hi: i64) -> usize {
    [1, 2, 4].into_iter().find(|w| hi.abs_diff(lo) >> (8 * w) == 0).unwrap_or(8)
}

/// The values `vals` yields, all from `lo` to `hi`, in the form [`width`]
/// picks, based at `lo`. Each distance from `lo` fits the width, so the
/// subtraction does not wrap and the cast keeps every bit; `vals` knows
/// its length, so each buffer is sized once.
fn build((lo, hi): (i64, i64), vals: impl Iterator<Item = i64>) -> LngCol {
    let at = |x: i64| x.wrapping_sub(lo) as u64;
    LngCol(Box::new(match width(lo, hi) {
        1 => Form::U8(Narrow { base: lo, offsets: vals.map(|x| at(x) as u8).collect() }),
        2 => Form::U16(Narrow { base: lo, offsets: vals.map(|x| at(x) as u16).collect() }),
        4 => Form::U32(Narrow { base: lo, offsets: vals.map(|x| at(x) as u32).collect() }),
        _ => Form::Plain(vals.collect()),
    }))
}

impl LngCol {
    pub fn len(&self) -> usize {
        by_form!(&*self.0, |n, _| n.offsets.len(), |v| v.len())
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn get(&self, i: usize) -> i64 {
        by_form!(&*self.0, |n, _| n.value(n.offsets[i]), |v| v[i])
    }

    pub fn iter(&self) -> impl Iterator<Item = i64> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Bytes the column takes in memory — a plain one 8 a row, a narrow
    /// one its offsets' width — which the hot-set budget, S1 and the
    /// catalog count.
    pub fn byte_size(&self) -> usize {
        by_form!(&*self.0, |n, _| size_of_val(&n.offsets[..]), |v| 8 * v.len())
    }

    pub(crate) fn form(&self) -> &Form {
        &self.0
    }

    /// Append `x`; a narrow column whose offsets cannot hold it turns
    /// plain first.
    pub fn push(&mut self, x: i64) {
        let held = by_form!(&mut *self.0, |n, _| n.offset(x).map(|o| n.offsets.push(o)), |v| {
            v.push(x);
            Some(())
        });
        if held.is_none() {
            let mut plain = Vec::with_capacity(self.len() + 1);
            plain.extend(self.iter());
            plain.push(x);
            *self.0 = Form::Plain(plain);
        }
    }

    /// The values at `idx`, in this column's form.
    pub fn gather(&self, idx: &[usize]) -> LngCol {
        LngCol(Box::new(by_form!(
            &*self.0,
            |n, w| w(Narrow { base: n.base, offsets: idx.iter().map(|&i| n.offsets[i]).collect() }),
            |v| Form::Plain(idx.iter().map(|&i| v[i]).collect())
        )))
    }

    /// Rows `[lo, hi)`, in this column's form.
    pub fn slice(&self, lo: usize, hi: usize) -> LngCol {
        LngCol(Box::new(by_form!(
            &*self.0,
            |n, w| w(Narrow { base: n.base, offsets: n.offsets[lo..hi].to_vec() }),
            |v| Form::Plain(v[lo..hi].to_vec())
        )))
    }

    /// Hand `sink` every value in order, as plain `i64`s: a plain
    /// column's whole, a narrow one's widened 1 024 rows at a time.
    pub fn blocks(&self, sink: &mut dyn FnMut(&[i64]) -> Result<()>) -> Result<()> {
        let mut block = [0i64; BLOCK];
        by_form!(
            &*self.0,
            |n, _| n.offsets.chunks(BLOCK).try_for_each(|chunk| {
                for (x, &o) in block.iter_mut().zip(chunk) {
                    *x = n.value(o);
                }
                sink(&block[..chunk.len()])
            }),
            |v| sink(v)
        )
    }

    pub fn is_sorted(&self) -> bool {
        by_form!(&*self.0, |n, _| n.offsets.is_sorted(), |v| v.is_sorted())
    }

    /// Order `idx` (stable) by the values at its positions: a narrow
    /// column's offsets order as its values do.
    pub(crate) fn sort_by_value(&self, idx: &mut [usize]) {
        by_form!(&*self.0, |n, _| idx.sort_by_key(|&i| n.offsets[i]), |v| {
            idx.sort_by_key(|&i| v[i])
        })
    }

    /// Decode little-endian `i64`s (`bytes` holds a whole number of
    /// them) into the form their values take, with no plain copy first.
    pub(crate) fn from_le_bytes(bytes: &[u8]) -> LngCol {
        let vals = || bytes.as_chunks::<8>().0.iter().map(|w| i64::from_le_bytes(*w));
        match bounds(vals()) {
            Some(range) => build(range, vals()),
            None => Vec::new().into(),
        }
    }

    /// The column in the form a decode of its values takes. A fragment's
    /// next version is settled, so that its in-memory size depends on
    /// its values alone and is the size it has again after a restart.
    pub(crate) fn settled(self) -> LngCol {
        let Some((lo, hi)) = bounds(self.iter()) else { return Vec::new().into() };
        let base = by_form!(&*self.0, |n, _| n.base, |_v| lo);
        if base == lo && self.byte_size() == width(lo, hi) * self.len() {
            return self;
        }
        build((lo, hi), self.iter())
    }
}

/// Built from values: narrow when that is smaller (see the module doc).
impl From<Vec<i64>> for LngCol {
    fn from(v: Vec<i64>) -> LngCol {
        match bounds(v.iter().copied()) {
            Some(range) if width(range.0, range.1) < 8 => build(range, v.iter().copied()),
            _ => LngCol(Box::new(Form::Plain(v))),
        }
    }
}

impl FromIterator<i64> for LngCol {
    fn from_iter<T: IntoIterator<Item = i64>>(iter: T) -> LngCol {
        Vec::from_iter(iter).into()
    }
}

/// Equal by value, whatever the forms.
impl PartialEq for LngCol {
    fn eq(&self, other: &LngCol) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

#[cfg(test)]
impl LngCol {
    /// Room reserved beyond what the column holds, in elements.
    pub(crate) fn slack(&self) -> usize {
        by_form!(&*self.0, |n, _| n.offsets.capacity() - n.offsets.len(), |v| {
            v.capacity() - v.len()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A column of `vals` that stays plain: built by pushes from empty.
    fn plain(vals: &[i64]) -> LngCol {
        let mut c = LngCol::from(vec![]);
        vals.iter().for_each(|&x| c.push(x));
        c
    }

    #[test]
    fn values_are_narrowed_to_the_least_width_that_holds_their_span() {
        for (vals, size) in [
            (vec![1i64, 50, 7], 3),
            (vec![-300, -45], 2),
            (vec![-300, -44], 2 * 2),
            (vec![100, 100_000], 2 * 4),
            (vec![i64::MIN, i64::MIN + 255], 2),
            (vec![i64::MAX - 65_535, i64::MAX], 2 * 2),
            (vec![0, 1 << 32], 2 * 8),
            (vec![i64::MIN, i64::MAX], 2 * 8),
            (vec![-5], 1),
            (vec![], 0),
        ] {
            let c = LngCol::from(vals.clone());
            assert_eq!((c.byte_size(), c.slack()), (size, 0), "{vals:?}");
            assert_eq!(c.iter().collect::<Vec<_>>(), vals);
            assert_eq!(c, plain(&vals));
            assert_eq!(plain(&vals).byte_size(), 8 * vals.len(), "pushes keep a column plain");
        }
    }

    #[test]
    fn a_push_the_offsets_cannot_hold_turns_the_column_plain_and_never_wraps() {
        for x in [-1, 256, i64::MIN, i64::MAX] {
            let mut c = LngCol::from(vec![0i64, 255]);
            c.push(x);
            assert_eq!(c.iter().collect::<Vec<_>>(), [0, 255, x]);
            assert_eq!(c.byte_size(), 3 * 8, "{x} widened the column");
            assert_eq!(c.settled().byte_size(), if x == 256 || x == -1 { 3 * 2 } else { 3 * 8 });
        }
        let mut c = LngCol::from(vec![10i64, 20]);
        c.push(265);
        assert_eq!((c.get(2), c.byte_size()), (265, 3), "in reach of the offsets");
    }

    #[test]
    fn gathers_and_slices_keep_the_form() {
        let c = LngCol::from((0..3000).map(|i| 1_000_000 + i % 700).collect::<Vec<i64>>());
        assert_eq!(c.byte_size(), 3000 * 2);
        let g = c.gather(&[2999, 5, 0]);
        assert_eq!(
            (g.iter().collect::<Vec<_>>(), g.byte_size()),
            (vec![1_000_199, 1_000_005, 1_000_000], 6)
        );
        let s = c.slice(698, 702);
        assert_eq!(
            (s.iter().collect::<Vec<_>>(), s.byte_size()),
            (vec![1_000_698, 1_000_699, 1_000_000, 1_000_001], 8)
        );
    }

    #[test]
    fn a_settled_column_takes_the_form_of_its_decode() {
        let c = LngCol::from(vec![5i64, 300, 6]);
        let decode = |c: &LngCol| {
            let bytes: Vec<u8> = c.iter().flat_map(i64::to_le_bytes).collect();
            LngCol::from_le_bytes(&bytes)
        };
        // 300 gone: a smaller span, a narrower width.
        let g = c.gather(&[0, 2]).settled();
        assert_eq!((g.byte_size(), g.byte_size()), (2, decode(&g).byte_size()));
        // The smallest value gone: a new base.
        let g = c.gather(&[1, 2]).settled();
        assert_eq!((g.byte_size(), decode(&g).byte_size()), (2 * 2, 2 * 2));
        assert_eq!(plain(&[1, 2]).settled().byte_size(), 2);
        assert_eq!(plain(&[]).settled(), LngCol::from(vec![]));
        assert_eq!(decode(&plain(&[i64::MIN, i64::MAX])).byte_size(), 16);
    }
}
