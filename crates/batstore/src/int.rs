//! Integer columns in memory — `int` and `date` over `i32` cells, `lng`
//! over `i64`: plain, a `Vec` of the wide cell, or narrow, a base and a
//! `u8`, `u16` or `u32` offset per row, of a width narrower than the
//! cell (frame-of-reference coding; Zukowski et al., ICDE 2006). A column
//! built from values, decoded or settled as a fragment's next version is
//! narrow when that is smaller, based at its smallest value with the
//! narrowest offsets that hold its largest. `push` keeps it narrow while
//! a value fits, plain once one does not; gathers and slices keep the
//! form. Both forms are equal by value and encode alike
//! ([`IntCol::blocks`]).

use crate::error::Result;
use std::fmt::Debug;

/// Values a narrow column hands an encoder at a time.
const BLOCK: usize = 1024;

/// The wide cell of an [`IntCol`]: `i32` (`int`, `date`) or `i64` (`lng`).
pub trait Wide: Copy + Ord + Default + Debug + Into<i128> {
    fn to_i64(self) -> i64;

    /// `x`, which lies in this type's range, as this type.
    fn cast(x: i64) -> Self;

    /// The cells little-endian `bytes` (a whole number of them) hold.
    fn read_le(bytes: &[u8]) -> impl Iterator<Item = Self> + Clone + '_;
}

impl Wide for i32 {
    fn to_i64(self) -> i64 {
        self.into()
    }

    fn cast(x: i64) -> i32 {
        x as i32
    }

    fn read_le(bytes: &[u8]) -> impl Iterator<Item = i32> + Clone + '_ {
        bytes.as_chunks::<4>().0.iter().map(|w| i32::from_le_bytes(*w))
    }
}

impl Wide for i64 {
    fn to_i64(self) -> i64 {
        self
    }

    fn cast(x: i64) -> i64 {
        x
    }

    fn read_le(bytes: &[u8]) -> impl Iterator<Item = i64> + Clone + '_ {
        bytes.as_chunks::<8>().0.iter().map(|w| i64::from_le_bytes(*w))
    }
}

/// A narrow column: the value of row `i` is `base + offsets[i]`.
#[derive(Clone, Debug)]
pub(crate) struct Narrow<T, W> {
    pub base: W,
    pub offsets: Vec<T>,
}

impl<T: Copy + Into<i64> + TryFrom<u64>, W: Wide> Narrow<T, W> {
    fn value(&self, offset: T) -> W {
        W::cast(self.base.to_i64() + offset.into())
    }

    /// `x`'s offset from the base, if `T` holds it.
    fn offset(&self, x: W) -> Option<T> {
        let at = i128::from(x.to_i64()) - i128::from(self.base.to_i64());
        T::try_from(u64::try_from(at).ok()?).ok()
    }

    /// A narrow column of `offsets` at this one's base.
    pub(crate) fn rebuilt(&self, offsets: Vec<T>) -> Box<Narrow<T, W>> {
        Box::new(Narrow { base: self.base, offsets })
    }
}

/// A narrow form is boxed, so that a plain column, which holds its
/// vector in place, needs no allocation beyond it, and a `Column` stays
/// as small as its other variants.
#[derive(Clone, Debug)]
pub(crate) enum Form<W> {
    Plain(Vec<W>),
    U8(Box<Narrow<u8, W>>),
    U16(Box<Narrow<u16, W>>),
    U32(Box<Narrow<u32, W>>),
}

/// `$narrow` with `$n` bound to a narrow form's [`Narrow`], whatever its
/// offset type, and `$w` (unless `_`) to a function that makes that form
/// of other offsets at the same base; or `$plain` with `$v` bound to a
/// plain form's vector.
#[rustfmt::skip]
macro_rules! by_form {
    ($form:expr, |$n:ident, _| $narrow:expr, |$v:ident| $plain:expr) => {{
        use $crate::int::Form::{Plain, U16, U32, U8};
        match $form {
            Plain($v) => $plain,
            U8($n) => $narrow,
            U16($n) => $narrow,
            U32($n) => $narrow,
        }
    }};
    ($form:expr, |$n:ident, $w:ident| $narrow:expr, |$v:ident| $plain:expr) => {{
        use $crate::int::Form::{Plain, U16, U32, U8};
        match $form {
            Plain($v) => $plain,
            U8($n) => { let $w = |offsets| U8($n.rebuilt(offsets)); $narrow }
            U16($n) => { let $w = |offsets| U16($n.rebuilt(offsets)); $narrow }
            U32($n) => { let $w = |offsets| U32($n.rebuilt(offsets)); $narrow }
        }
    }};
}
pub(crate) use by_form;

/// An integer column, plain or narrow (see the module doc).
#[derive(Clone, Debug)]
pub struct IntCol<W>(pub(crate) Form<W>);

/// The smallest and largest of `vals`; `None` when there are none.
fn bounds<W: Wide>(mut vals: impl Iterator<Item = W>) -> Option<(W, W)> {
    let first = vals.next()?;
    Some(vals.fold((first, first), |(lo, hi), x| (lo.min(x), hi.max(x))))
}

/// Bytes per row of the form values from `lo` to `hi` take: the
/// narrowest offset that holds their span and is narrower than `W`, or
/// `W`'s own (plain) when none is.
fn width<W: Wide>(lo: W, hi: W) -> usize {
    let span = hi.to_i64().abs_diff(lo.to_i64());
    let plain = size_of::<W>();
    [1, 2, 4].into_iter().find(|w| *w < plain && span >> (8 * w) == 0).unwrap_or(plain)
}

/// The values `vals` yields, all from `lo` to `hi`, in the form [`width`]
/// picks, based at `lo`. Each distance from `lo` fits the width, so the
/// subtraction does not wrap and the cast keeps every bit; `vals` knows
/// its length, so each buffer is sized once.
fn build<W: Wide>((lo, hi): (W, W), vals: impl Iterator<Item = W>) -> IntCol<W> {
    let (base, at) = (lo, |x: W| x.to_i64().wrapping_sub(lo.to_i64()) as u64);
    IntCol(match width(lo, hi) {
        1 => Form::U8(Box::new(Narrow { base, offsets: vals.map(|x| at(x) as u8).collect() })),
        2 => Form::U16(Box::new(Narrow { base, offsets: vals.map(|x| at(x) as u16).collect() })),
        4 => Form::U32(Box::new(Narrow { base, offsets: vals.map(|x| at(x) as u32).collect() })),
        _ => Form::Plain(vals.collect()),
    })
}

impl<W: Wide> IntCol<W> {
    pub fn len(&self) -> usize {
        by_form!(&self.0, |n, _| n.offsets.len(), |v| v.len())
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn get(&self, i: usize) -> W {
        by_form!(&self.0, |n, _| n.value(n.offsets[i]), |v| v[i])
    }

    /// The values in order. Three of the four slices chained here are
    /// empty, so the form is picked once: `fold`, which `collect`,
    /// `extend` and `for_each` run, loops over each slice in turn.
    pub fn iter(&self) -> impl Iterator<Item = W> + '_ {
        let (mut plain, mut base) = (&[][..], W::default());
        let (mut o8, mut o16, mut o32) = (&[][..], &[][..], &[][..]);
        match &self.0 {
            Form::Plain(v) => plain = v,
            Form::U8(n) => (o8, base) = (&n.offsets, n.base),
            Form::U16(n) => (o16, base) = (&n.offsets, n.base),
            Form::U32(n) => (o32, base) = (&n.offsets, n.base),
        }
        let at = move |o: i64| W::cast(base.to_i64() + o);
        (plain.iter().copied())
            .chain(o8.iter().map(move |&o| at(o.into())))
            .chain(o16.iter().map(move |&o| at(o.into())))
            .chain(o32.iter().map(move |&o| at(o.into())))
    }

    /// Bytes the column takes in memory — a plain one its cells', a
    /// narrow one its offsets' — which the hot-set budget, S1 and the
    /// catalog count.
    pub fn byte_size(&self) -> usize {
        by_form!(&self.0, |n, _| size_of_val(&n.offsets[..]), |v| size_of_val(&v[..]))
    }

    /// Append `x`; a narrow column whose offsets cannot hold it turns
    /// plain first.
    pub fn push(&mut self, x: W) {
        let held = by_form!(&mut self.0, |n, _| n.offset(x).map(|o| n.offsets.push(o)), |v| {
            v.push(x);
            Some(())
        });
        if held.is_none() {
            let mut plain = Vec::with_capacity(self.len() + 1);
            plain.extend(self.iter());
            plain.push(x);
            self.0 = Form::Plain(plain);
        }
    }

    /// The values at `idx`, in this column's form.
    pub fn gather(&self, idx: impl IntoIterator<Item = usize>) -> IntCol<W> {
        let idx = idx.into_iter();
        IntCol(by_form!(&self.0, |n, w| w(idx.map(|i| n.offsets[i]).collect()), |v| Form::Plain(
            idx.map(|i| v[i]).collect()
        )))
    }

    /// Rows `[lo, hi)`, in this column's form.
    pub fn slice(&self, lo: usize, hi: usize) -> IntCol<W> {
        IntCol(by_form!(&self.0, |n, w| w(n.offsets[lo..hi].to_vec()), |v| Form::Plain(
            v[lo..hi].to_vec()
        )))
    }

    /// Hand `sink` every value in order, as plain cells: a plain column's
    /// whole, a narrow one's widened 1 024 rows at a time.
    pub fn blocks(&self, sink: &mut dyn FnMut(&[W]) -> Result<()>) -> Result<()> {
        let mut block = [W::default(); BLOCK];
        by_form!(
            &self.0,
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
        by_form!(&self.0, |n, _| n.offsets.is_sorted(), |v| v.is_sorted())
    }

    /// Order `idx` (stable) by the values at its positions: a narrow
    /// column's offsets order as its values do.
    pub(crate) fn sort_by_value(&self, idx: &mut [usize]) {
        by_form!(&self.0, |n, _| idx.sort_by_key(|&i| n.offsets[i]), |v| {
            idx.sort_by_key(|&i| v[i])
        })
    }

    /// Decode little-endian cells (`bytes` holds a whole number of them)
    /// into the form their values take, with no plain copy first.
    pub(crate) fn from_le_bytes(bytes: &[u8]) -> IntCol<W> {
        match bounds(W::read_le(bytes)) {
            Some(range) => build(range, W::read_le(bytes)),
            None => Vec::new().into(),
        }
    }

    /// The column in the form a decode of its values takes. A fragment's
    /// next version is settled, so that its in-memory size depends on
    /// its values alone and is the size it has again after a restart.
    pub(crate) fn settled(self) -> IntCol<W> {
        let Some((lo, hi)) = bounds(self.iter()) else { return Vec::new().into() };
        let base = by_form!(&self.0, |n, _| n.base, |_v| lo);
        if base == lo && self.byte_size() == width(lo, hi) * self.len() {
            return self;
        }
        build((lo, hi), self.iter())
    }
}

/// Built from values: narrow when that is smaller (see the module doc).
impl<W: Wide> From<Vec<W>> for IntCol<W> {
    fn from(v: Vec<W>) -> IntCol<W> {
        match bounds(v.iter().copied()) {
            Some((lo, hi)) if width(lo, hi) < size_of::<W>() => build((lo, hi), v.into_iter()),
            _ => IntCol(Form::Plain(v)),
        }
    }
}

impl<W: Wide> FromIterator<W> for IntCol<W> {
    fn from_iter<T: IntoIterator<Item = W>>(iter: T) -> IntCol<W> {
        Vec::from_iter(iter).into()
    }
}

/// Equal by value, whatever the forms.
impl<W: Wide> PartialEq for IntCol<W> {
    fn eq(&self, other: &IntCol<W>) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

#[cfg(test)]
impl<W: Wide> IntCol<W> {
    /// Room reserved beyond what the column holds, in elements.
    pub(crate) fn slack(&self) -> usize {
        by_form!(&self.0, |n, _| n.offsets.capacity() - n.offsets.len(), |v| {
            v.capacity() - v.len()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A column of `vals` that stays plain: built by pushes from empty.
    fn plain<W: Wide>(vals: &[W]) -> IntCol<W> {
        let mut c = IntCol::from(vec![]);
        vals.iter().for_each(|&x| c.push(x));
        c
    }

    /// The column's values through a `DCB1`-style decode of its cells.
    fn decode<W: Wide>(c: &IntCol<W>) -> IntCol<W> {
        let mut bytes = Vec::new();
        c.blocks(&mut |vals| {
            vals.iter().for_each(|x| bytes.extend_from_slice(&x.to_i64().to_le_bytes()));
            Ok(())
        })
        .unwrap();
        // Each cell's low `size_of::<W>()` bytes are its little-endian form.
        let cells: Vec<u8> = bytes.chunks(8).flat_map(|b| b[..size_of::<W>()].to_vec()).collect();
        IntCol::from_le_bytes(&cells)
    }

    #[track_caller]
    fn narrows_to<W: Wide>(vals: Vec<W>, size: usize) {
        let c = IntCol::from(vals.clone());
        assert_eq!((c.byte_size(), c.slack()), (size, 0), "{vals:?}");
        assert_eq!(c.iter().collect::<Vec<_>>(), vals);
        assert_eq!(c, plain(&vals));
        assert_eq!(decode(&c).byte_size(), size, "{vals:?} decoded");
        let wide = size_of::<W>() * vals.len();
        assert_eq!(plain(&vals).byte_size(), wide, "pushes keep a column plain");
    }

    #[test]
    fn a_column_is_as_small_as_a_vector() {
        assert_eq!(size_of::<IntCol<i32>>(), size_of::<Vec<i32>>());
        assert_eq!(size_of::<IntCol<i64>>(), size_of::<Vec<i64>>());
        assert_eq!(size_of::<crate::Column>(), 32);
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
            narrows_to(vals, size);
        }
        // An `i32` cell narrows to `u8` and `u16` offsets only: a `u32`
        // offset is no narrower than the cell.
        for (vals, size) in [
            (vec![1i32, 50, 7], 3),
            (vec![i32::MIN, i32::MIN + 255], 2),
            (vec![i32::MAX - 65_535, i32::MAX], 2 * 2),
            (vec![-300, 65_235], 2 * 2),
            (vec![-300, 65_236], 2 * 4),
            (vec![i32::MIN, i32::MAX], 2 * 4),
            (vec![19_920_101, 19_981_228], 2 * 2),
            (vec![-5], 1),
            (vec![], 0),
        ] {
            narrows_to(vals, size);
        }
    }

    #[test]
    fn a_push_the_offsets_cannot_hold_turns_the_column_plain_and_never_wraps() {
        for x in [-1, 256, i64::MIN, i64::MAX] {
            let mut c = IntCol::from(vec![0i64, 255]);
            c.push(x);
            assert_eq!(c.iter().collect::<Vec<_>>(), [0, 255, x]);
            assert_eq!(c.byte_size(), 3 * 8, "{x} widened the column");
            assert_eq!(c.settled().byte_size(), if x == 256 || x == -1 { 3 * 2 } else { 3 * 8 });
        }
        let mut c = IntCol::from(vec![10i64, 20]);
        c.push(265);
        assert_eq!((c.get(2), c.byte_size()), (265, 3), "in reach of the offsets");
        // Based at -70 000 with `u16` offsets: `i32::MAX` lies past
        // `i32::MAX - base` and `i32::MIN` below the base, so each turns
        // the column plain, exactly.
        for x in [i32::MAX, i32::MIN, -70_001, -70_000 + 65_536] {
            let mut c = IntCol::from(vec![-70_000i32, -5_000]);
            assert_eq!(c.byte_size(), 2 * 2);
            c.push(x);
            assert_eq!(c.iter().collect::<Vec<_>>(), [-70_000, -5_000, x]);
            assert_eq!(c.byte_size(), 3 * 4, "{x} widened the column");
        }
        let mut c = IntCol::from(vec![-70_000i32, -5_000]);
        c.push(-70_000 + 65_535);
        assert_eq!((c.get(2), c.byte_size()), (-4_465, 3 * 2), "in reach of the offsets");
    }

    #[test]
    fn gathers_and_slices_keep_the_form() {
        let c = IntCol::from((0..3000).map(|i| 1_000_000 + i % 700).collect::<Vec<i64>>());
        assert_eq!(c.byte_size(), 3000 * 2);
        let g = c.gather([2999, 5, 0]);
        assert_eq!(
            (g.iter().collect::<Vec<_>>(), g.byte_size()),
            (vec![1_000_199, 1_000_005, 1_000_000], 6)
        );
        let s = c.slice(698, 702);
        assert_eq!(
            (s.iter().collect::<Vec<_>>(), s.byte_size()),
            (vec![1_000_698, 1_000_699, 1_000_000, 1_000_001], 8)
        );
        let c = IntCol::from((0..3000).map(|i| -9 + i % 200).collect::<Vec<i32>>());
        let (g, s) = (c.gather([2999, 0]), c.slice(198, 201));
        assert_eq!((g.iter().collect::<Vec<_>>(), g.byte_size()), (vec![190, -9], 2));
        assert_eq!((s.iter().collect::<Vec<_>>(), s.byte_size()), (vec![189, 190, -9], 3));
    }

    #[test]
    fn a_settled_column_takes_the_form_of_its_decode() {
        let c = IntCol::from(vec![5i64, 300, 6]);
        // 300 gone: a smaller span, a narrower width.
        let g = c.gather([0, 2]).settled();
        assert_eq!((g.byte_size(), decode(&g).byte_size()), (2, 2));
        // The smallest value gone: a new base.
        let g = c.gather([1, 2]).settled();
        assert_eq!((g.byte_size(), decode(&g).byte_size()), (2 * 2, 2 * 2));
        assert_eq!(plain(&[1i64, 2]).settled().byte_size(), 2);
        assert_eq!(plain::<i64>(&[]).settled(), IntCol::from(vec![]));
        assert_eq!(decode(&plain(&[i64::MIN, i64::MAX])).byte_size(), 16);
    }

    #[test]
    fn an_int_columns_settled_size_is_its_decodes() {
        let c = IntCol::from(vec![-70_000i32, 0, -4_465]);
        for g in [
            c.gather([0, 2]),
            c.gather([1, 2]),
            c.gather([1]),
            c.clone(),
            plain(&[7, 7, 9]),
            plain(&[i32::MIN, i32::MAX]),
            plain(&[]),
        ] {
            let settled = g.clone().settled();
            assert_eq!(settled, g);
            assert_eq!(settled.byte_size(), decode(&g).byte_size(), "{g:?}");
        }
        assert_eq!(plain(&[7, 7, 9]).settled().byte_size(), 3);
        assert_eq!(c.gather([0, 2]).settled().byte_size(), 2 * 2);
        assert_eq!(c.gather([1, 2]).settled().byte_size(), 2 * 2, "rebased at -4 465");
    }
}
