//! Typed views of a column, for the kernels' inner loops.
//!
//! A kernel is written once, generic over [`Cells`], and the
//! `with_cells!` / `with_keys!` / `with_key_pair!` macros instantiate it
//! per column type: inside, a row is a machine value read from the raw
//! slice (`u64`, `f64`, `bool`, `&str`, or a computed oid for `void`; an
//! integer column's `i32` or `i64` from either form) — never a
//! [`crate::Val`].

use crate::heap::StrCol;
use crate::int::{Form, IntCol, Wide};

/// Positional read access to the values of one column.
pub(crate) trait Cells: Copy {
    type Cell: Copy + PartialOrd;

    /// Whether cells compare as the column's values do, so that a
    /// column claimed sorted may be merged on them.
    const ORDERED: bool = true;

    fn len(self) -> usize;

    fn at(self, i: usize) -> Self::Cell;

    fn cells(self) -> impl Iterator<Item = Self::Cell> + Clone {
        (0..self.len()).map(move |i| self.at(i))
    }
}

impl<T: Copy + PartialOrd> Cells for &[T] {
    type Cell = T;

    fn len(self) -> usize {
        <[T]>::len(self)
    }

    fn at(self, i: usize) -> T {
        self[i]
    }

    fn cells(self) -> impl Iterator<Item = T> + Clone {
        <[T]>::iter(self).copied()
    }
}

/// A `void` column: the oid at position `i` is `seq + i`, computed.
#[derive(Clone, Copy)]
pub(crate) struct Dense {
    pub seq: u64,
    pub len: usize,
}

impl Cells for Dense {
    type Cell = u64;

    fn len(self) -> usize {
        self.len
    }

    fn at(self, i: usize) -> u64 {
        self.seq + i as u64
    }
}

impl<'a> Cells for &'a StrCol {
    type Cell = &'a str;

    fn len(self) -> usize {
        StrCol::len(self)
    }

    fn at(self, i: usize) -> &'a str {
        StrCol::get(self, i)
    }
}

/// An integer column in either form, unpacked once: a plain one's cells,
/// or a narrow one's base and offsets. A read branches on the form per
/// row, but on a value the kernel holds, not on memory behind the column
/// that its own writes might change, so the branch stays out of the
/// loads and is predicted.
#[derive(Clone, Copy)]
pub(crate) enum Ints<'a, W> {
    Plain(&'a [W]),
    U8(W, &'a [u8]),
    U16(W, &'a [u16]),
    U32(W, &'a [u32]),
}

impl<'a, W: Wide> Ints<'a, W> {
    pub fn of(col: &'a IntCol<W>) -> Ints<'a, W> {
        match col.form() {
            Form::Plain(v) => Ints::Plain(v),
            Form::U8(n) => Ints::U8(n.base, &n.offsets),
            Form::U16(n) => Ints::U16(n.base, &n.offsets),
            Form::U32(n) => Ints::U32(n.base, &n.offsets),
        }
    }
}

impl<W: Wide> Cells for Ints<'_, W> {
    type Cell = W;

    #[inline(always)]
    fn len(self) -> usize {
        match self {
            Ints::Plain(v) => v.len(),
            Ints::U8(_, o) => o.len(),
            Ints::U16(_, o) => o.len(),
            Ints::U32(_, o) => o.len(),
        }
    }

    #[inline(always)]
    fn at(self, i: usize) -> W {
        let at = |base: W, offset: u32| W::cast(base.to_i64() + i64::from(offset));
        match self {
            Ints::Plain(v) => v[i],
            Ints::U8(base, o) => at(base, o[i].into()),
            Ints::U16(base, o) => at(base, o[i].into()),
            Ints::U32(base, o) => at(base, o[i]),
        }
    }
}

/// A `dbl` column as the equality kernels (join, set operations,
/// grouping) see it: bit patterns, so `NaN` equals itself and `0.0`
/// differs from `-0.0` on every path alike. Bit patterns are not ordered
/// like the numbers, so a `dbl` key never takes a merge path.
#[derive(Clone, Copy)]
pub(crate) struct Bits<'a>(pub &'a [f64]);

impl Cells for Bits<'_> {
    type Cell = u64;

    const ORDERED: bool = false;

    fn len(self) -> usize {
        self.0.len()
    }

    fn at(self, i: usize) -> u64 {
        self.0[i].to_bits()
    }
}

/// `$body` with `$v` bound to the [`Cells`] view of `$col` (`dbl` wrapped
/// by `$dbl`) and `$w` to the constructor that turns that type's values
/// back into a column: one instantiation of `$body` per column type.
macro_rules! dispatch_cells {
    ($col:expr, $dbl:expr, |$v:ident, $w:ident| $body:expr) => {{
        use $crate::column::Column as C;
        match $col {
            C::Void { seq, len } => {
                let ($v, $w) = ($crate::ops::cells::Dense { seq: *seq, len: *len }, C::Oid);
                $body
            }
            C::Oid(v) => {
                let ($v, $w) = (&v[..], C::Oid);
                $body
            }
            C::Int(v) => {
                let ($v, $w) = ($crate::ops::cells::Ints::of(v), |v: Vec<i32>| C::Int(v.into()));
                $body
            }
            C::Lng(v) => {
                let ($v, $w) = ($crate::ops::cells::Ints::of(v), |v: Vec<i64>| C::Lng(v.into()));
                $body
            }
            C::Dbl(v) => {
                let ($v, $w) = ($dbl(&v[..]), C::Dbl);
                $body
            }
            C::Str(v) => {
                let ($v, $w) = (v, C::Str);
                $body
            }
            C::Bool(v) => {
                let ($v, $w) = (&v[..], C::Bool);
                $body
            }
            C::Date(v) => {
                let ($v, $w) = ($crate::ops::cells::Ints::of(v), |v: Vec<i32>| C::Date(v.into()));
                $body
            }
        }
    }};
}

/// The values as they compare: `dbl` cells are `f64`.
macro_rules! with_cells {
    ($col:expr, |$v:ident| $body:expr) => {
        $crate::ops::cells::with_cells!($col, |$v, _rebuild| $body)
    };
    ($col:expr, |$v:ident, $w:ident| $body:expr) => {
        $crate::ops::cells::dispatch_cells!($col, std::convert::identity, |$v, $w| $body)
    };
}

/// The values as they equate and hash: `dbl` cells are [`Bits`].
macro_rules! with_keys {
    ($col:expr, |$v:ident| $body:expr) => {
        $crate::ops::cells::dispatch_cells!($col, $crate::ops::cells::Bits, |$v, _rebuild| $body)
    };
}

/// `$body` with `$a`, `$b` bound to the key views of two columns of one
/// join domain (equal types, `void` and `oid` sharing one); `$mismatch`
/// for any other pair.
macro_rules! with_key_pair {
    ($l:expr, $r:expr, |$a:ident, $b:ident| $body:expr, $mismatch:expr) => {{
        use $crate::column::Column as C;
        use $crate::ops::cells::{Bits, Dense, Ints};
        match ($l, $r) {
            (C::Void { seq: s1, len: n1 }, C::Void { seq: s2, len: n2 }) => {
                let ($a, $b) = (Dense { seq: *s1, len: *n1 }, Dense { seq: *s2, len: *n2 });
                $body
            }
            (C::Void { seq, len }, C::Oid(y)) => {
                let ($a, $b) = (Dense { seq: *seq, len: *len }, &y[..]);
                $body
            }
            (C::Oid(x), C::Void { seq, len }) => {
                let ($a, $b) = (&x[..], Dense { seq: *seq, len: *len });
                $body
            }
            (C::Oid(x), C::Oid(y)) => {
                let ($a, $b) = (&x[..], &y[..]);
                $body
            }
            (C::Int(x), C::Int(y)) | (C::Date(x), C::Date(y)) => {
                let ($a, $b) = (Ints::of(x), Ints::of(y));
                $body
            }
            (C::Lng(x), C::Lng(y)) => {
                let ($a, $b) = (Ints::of(x), Ints::of(y));
                $body
            }
            (C::Dbl(x), C::Dbl(y)) => {
                let ($a, $b) = (Bits(&x[..]), Bits(&y[..]));
                $body
            }
            (C::Str(x), C::Str(y)) => {
                let ($a, $b) = (x, y);
                $body
            }
            (C::Bool(x), C::Bool(y)) => {
                let ($a, $b) = (&x[..], &y[..]);
                $body
            }
            _ => $mismatch,
        }
    }};
}

pub(crate) use {dispatch_cells, with_cells, with_key_pair, with_keys};
