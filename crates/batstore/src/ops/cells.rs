//! Typed views of a column, for the kernels' inner loops.
//!
//! A kernel is written once, generic over [`Cells`], and the
//! `with_cells!` / `with_keys!` / `with_key_pair!` macros instantiate it
//! per column type and form: inside, a row is a machine value read from
//! the raw slice (`u64`, `f64`, `bool`, `&str`, or a computed oid for
//! `void`) — never a [`crate::Val`].
//!
//! An integer column hands a kernel over one column its raw cells: a
//! plain column's `i32` or `i64`, a narrow one's `u8`, `u16` or `u32`
//! offsets ([`Offsets`]), each standing for [`Cells::base`] plus itself.
//! Offsets order and equate as their values do, so such a kernel
//! compares, hashes and sums them as they are and applies the base only
//! at its edges: where it places a constant, rebuilds a column or
//! finishes a sum. A kernel over two columns, whose bases differ, reads
//! each through [`Values`]. Either way the form is picked once per
//! kernel, and no row loop branches on it. For the same reason a coded
//! string column hands the equality kernels over one column its codes.

use crate::heap::StrCol;

/// Positional read access to the cells of one column.
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

    /// What the value of a cell is offset from: a narrow integer
    /// column's base, 0 for every other column.
    fn base(self) -> i64 {
        0
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

/// A narrow integer column's offsets: the value of row `i` is
/// `base + offsets[i]`.
#[derive(Clone, Copy)]
pub(crate) struct Offsets<'a, T> {
    pub base: i64,
    pub offsets: &'a [T],
}

impl<T: Copy + PartialOrd> Cells for Offsets<'_, T> {
    type Cell = T;

    fn len(self) -> usize {
        self.offsets.len()
    }

    fn at(self, i: usize) -> T {
        self.offsets[i]
    }

    fn cells(self) -> impl Iterator<Item = T> + Clone {
        self.offsets.iter().copied()
    }

    fn base(self) -> i64 {
        self.base
    }
}

/// An integer column's values, `base + cell`: how the kernels over two
/// columns read each side.
#[derive(Clone, Copy)]
pub(crate) struct Values<C>(pub C);

impl<C: Cells<Cell: Into<i64>>> Cells for Values<C> {
    type Cell = i64;

    fn len(self) -> usize {
        self.0.len()
    }

    #[inline(always)]
    fn at(self, i: usize) -> i64 {
        self.0.base() + self.0.at(i).into()
    }

    fn cells(self) -> impl Iterator<Item = i64> + Clone {
        let base = self.0.base();
        self.0.cells().map(move |x| base + x.into())
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

/// `$body` with `$v` bound to the raw cells of the integer column `$col`
/// — a plain one's `&[W]`, a narrow one's [`Offsets`] — and, given a
/// `$wrap`, `$w` to the function that makes a column of that form (at
/// that base) from such cells, through `$wrap`: one instantiation of
/// `$body` per form.
macro_rules! int_cells {
    ($col:expr, |$v:ident| $body:expr) => {{
        use $crate::int::Wide;
        $crate::int::by_form!(
            &$col.0,
            |n, _| {
                let $v = $crate::ops::cells::Offsets { base: n.base.to_i64(), offsets: &n.offsets };
                $body
            },
            |v| {
                let $v = &v[..];
                $body
            }
        )
    }};
    ($col:expr, $wrap:expr, |$v:ident, $w:ident| $body:expr) => {{
        use $crate::int::{Form, IntCol, Wide};
        $crate::int::by_form!(
            &$col.0,
            |n, w| {
                let $v = $crate::ops::cells::Offsets { base: n.base.to_i64(), offsets: &n.offsets };
                let $w = |offsets| $wrap(IntCol(w(offsets)));
                $body
            },
            |v| {
                let ($v, $w) = (&v[..], |v| $wrap(IntCol(Form::Plain(v))));
                $body
            }
        )
    }};
}

/// `$body` with `$v` bound to the [`Cells`] view of `$col` (`dbl` wrapped
/// by `$dbl`) and `$w` to the constructor that turns such cells back into
/// a column of the same type and form: one instantiation of `$body` per
/// column type and form.
macro_rules! dispatch_cells {
    ($col:expr, $dbl:expr, |$v:ident, $w:ident| $body:expr) => {{
        use $crate::column::Column as C;
        use $crate::ops::cells::int_cells;
        match $col {
            C::Void { seq, len } => {
                let ($v, $w) = ($crate::ops::cells::Dense { seq: *seq, len: *len }, C::Oid);
                $body
            }
            C::Oid(v) => {
                let ($v, $w) = (&v[..], C::Oid);
                $body
            }
            C::Int(v) => int_cells!(v, C::Int, |$v, $w| $body),
            C::Lng(v) => int_cells!(v, C::Lng, |$v, $w| $body),
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
            C::Date(v) => int_cells!(v, C::Date, |$v, $w| $body),
        }
    }};
}

/// The cells as they compare: `dbl` cells are `f64`.
macro_rules! with_cells {
    ($col:expr, |$v:ident| $body:expr) => {
        $crate::ops::cells::with_cells!($col, |$v, _rebuild| $body)
    };
    ($col:expr, |$v:ident, $w:ident| $body:expr) => {
        $crate::ops::cells::dispatch_cells!($col, std::convert::identity, |$v, $w| $body)
    };
}

/// The cells as they equate and hash within one column: `dbl` cells are
/// [`Bits`], and a coded string column's are its codes — the dictionary
/// holds each value once, so codes equate as the values do.
macro_rules! with_keys {
    ($col:expr, |$v:ident| $body:expr) => {{
        let col: &$crate::column::Column = $col;
        match col.as_str_col().and_then($crate::heap::StrCol::codes) {
            Some($v) => $body,
            None => $crate::ops::cells::dispatch_cells!(
                col,
                $crate::ops::cells::Bits,
                |$v, _rebuild| $body
            ),
        }
    }};
}

/// `$body` with `$a`, `$b` bound to the key views of two columns of one
/// join domain (equal types, `void` and `oid` sharing one; an integer
/// column's [`Values`], per form of each side); `$mismatch` for any other
/// pair.
macro_rules! with_key_pair {
    ($l:expr, $r:expr, |$a:ident, $b:ident| $body:expr, $mismatch:expr) => {{
        use $crate::column::Column as C;
        use $crate::ops::cells::{int_cells, Bits, Dense, Values};
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
            (C::Int(x), C::Int(y)) | (C::Date(x), C::Date(y)) => int_cells!(x, |x| {
                int_cells!(y, |y| {
                    let ($a, $b) = (Values(x), Values(y));
                    $body
                })
            }),
            (C::Lng(x), C::Lng(y)) => int_cells!(x, |x| {
                int_cells!(y, |y| {
                    let ($a, $b) = (Values(x), Values(y));
                    $body
                })
            }),
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

pub(crate) use {dispatch_cells, int_cells, with_cells, with_key_pair, with_keys};
