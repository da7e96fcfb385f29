//! The typed scan core: every selection (`select_range`, `theta_select`,
//! `uselect`), `matching_rows` and each conjunct of the fused
//! `scan_aggregate` filters through [`Scan`].
//!
//! A predicate is resolved **once** against the column's type
//! ([`Scan::resolve`], apart from running it, [`Scan::apply`], so that a
//! statement's every conjunct is checked before any row is read): its
//! constants are placed in the column's own cell space (an `int` column
//! compares `i32` to `i32`, a narrow one its offsets to each constant's
//! distance from its base), or found to lie outside it (every `i32` is
//! below `5_000_000_000`, so `<` keeps all rows and `=` none), or the
//! pair is found incomparable — a string against a number is a
//! [`BatError::TypeMismatch`] decided from the two types, whatever the
//! rows hold. What runs per row is one monomorphised comparison over the
//! raw values, with no branch on its outcome ([`pass`]).
//!
//! The comparison rule is [`Val::try_cmp`]'s: two integer-class values
//! (`oid`/`int`/`lng`/`date`, `bit` as 0/1) compare exactly; a pair with
//! a `dbl` side compares as `f64`, and `NaN` matches nothing, `<>`
//! included; `nil` sorts below every value.

use crate::error::{BatError, Result};
use crate::ops::cells::Cells;
use crate::ops::CmpOp;
use crate::value::{ColType, Val};
use std::cmp::Ordering;

/// A filter over one column, constants still as the plan carried them.
pub(crate) enum Pred<'a> {
    Cmp(CmpOp, &'a Val),
    /// Inclusive on both sides.
    Between(&'a Val, &'a Val),
    In(&'a [Val]),
}

impl<'a> Pred<'a> {
    fn consts(&self) -> impl Iterator<Item = &'a Val> {
        let (pair, list) = match *self {
            Pred::Cmp(_, v) => ([Some(v), None], &[][..]),
            Pred::Between(lo, hi) => ([Some(lo), Some(hi)], &[][..]),
            Pred::In(vs) => ([None, None], vs),
        };
        pair.into_iter().flatten().chain(list)
    }

    /// The same filter as single-constant comparisons: all of them must
    /// hold for `Between`, any of them for `In`.
    fn singles(&self) -> Vec<Pred<'a>> {
        match *self {
            Pred::Cmp(op, v) => vec![Pred::Cmp(op, v)],
            Pred::Between(lo, hi) => vec![Pred::Cmp(CmpOp::Ge, lo), Pred::Cmp(CmpOp::Le, hi)],
            Pred::In(vs) => vs.iter().map(|v| Pred::Cmp(CmpOp::Eq, v)).collect(),
        }
    }
}

impl CmpOp {
    /// `k op c` on machine values. `<>` is "ordered, and not equal", so
    /// a `NaN` on either side fails it like every other operator.
    #[inline(always)]
    fn holds<K: PartialOrd>(self, k: K, c: K) -> bool {
        match self {
            CmpOp::Lt => k < c,
            CmpOp::Le => k <= c,
            CmpOp::Eq => k == c,
            CmpOp::Ne => k.partial_cmp(&c).is_some_and(Ordering::is_ne),
            CmpOp::Ge => k >= c,
            CmpOp::Gt => k > c,
        }
    }
}

/// A constant, placed relative to the values a column type can hold.
pub(crate) enum Const<K> {
    Is(K),
    /// Below every value of the type (`nil`, or an integer under its range).
    Below,
    /// Above every value of the type.
    Above,
}

/// A predicate with its constants in the value space `K`.
pub(crate) enum Test<K> {
    All,
    None,
    Cmp(CmpOp, K),
    Between(K, K),
    In(Vec<K>),
}

impl<K: Copy + PartialOrd> Test<K> {
    fn resolve<'a>(
        pred: &Pred<'a>,
        place: impl Fn(&'a Val) -> Result<Const<K>>,
    ) -> Result<Test<K>> {
        use CmpOp::*;
        Ok(match *pred {
            Pred::Cmp(op, v) => match place(v)? {
                Const::Is(c) => Test::Cmp(op, c),
                Const::Below if matches!(op, Gt | Ge | Ne) => Test::All,
                Const::Above if matches!(op, Lt | Le | Ne) => Test::All,
                Const::Below | Const::Above => Test::None,
            },
            Pred::Between(lo, hi) => match (place(lo)?, place(hi)?) {
                (Const::Above, _) | (_, Const::Below) => Test::None,
                (Const::Below, Const::Above) => Test::All,
                (Const::Below, Const::Is(hi)) => Test::Cmp(Le, hi),
                (Const::Is(lo), Const::Above) => Test::Cmp(Ge, lo),
                (Const::Is(lo), Const::Is(hi)) => Test::Between(lo, hi),
            },
            Pred::In(vs) => {
                let mut set = Vec::with_capacity(vs.len());
                for v in vs {
                    if let Const::Is(c) = place(v)? {
                        set.push(c);
                    }
                }
                if set.is_empty() {
                    Test::None
                } else {
                    Test::In(set)
                }
            }
        })
    }

    fn holds(&self, k: K) -> bool {
        match self {
            Test::All => true,
            Test::None => false,
            Test::Cmp(op, c) => op.holds(k, *c),
            Test::Between(lo, hi) => k >= *lo && k <= *hi,
            Test::In(set) => set.contains(&k),
        }
    }
}

/// Where a scan delivers what qualifies: the positions and the values,
/// a batch at a time, in order. Called once per [`BATCH`] qualifying
/// rows, so it is a `dyn` call: the loops are instantiated per column
/// type and predicate, not once more per consumer.
pub(crate) type Emit<'e, T> = &'e mut dyn FnMut(&[usize], &[T]);

/// Rows a pass hands on at a time: small enough for the stack and the
/// L1 cache, large enough that the hand-over is paid once per few
/// hundred qualifying rows.
pub(crate) const BATCH: usize = 256;

/// The loop under every scan. A row is written to the batch whether it
/// qualifies or not and only a qualifying one advances the fill — there
/// is no branch on the data to mispredict, so a predicate half the rows
/// pass costs what one all of them pass does. `emit` receives the
/// qualifying positions and values a full batch at a time (and the
/// rest at the end), in order.
fn pass<T: Copy + Default>(
    vals: impl Iterator<Item = T>,
    keep: impl Fn(T) -> bool,
    emit: Emit<'_, T>,
) {
    let (mut rows, mut kept) = ([0usize; BATCH], [T::default(); BATCH]);
    let mut fill = 0;
    for (i, x) in vals.enumerate() {
        (rows[fill], kept[fill]) = (i, x);
        fill += usize::from(keep(x));
        if fill == BATCH {
            emit(&rows, &kept);
            fill = 0;
        }
    }
    emit(&rows[..fill], &kept[..fill]);
}

/// One pass over `vals`, the test's shape and operator chosen outside
/// the loop: each arm is its own loop around one comparison.
fn run<T: Copy + Default, K: Copy + PartialOrd>(
    vals: impl Iterator<Item = T>,
    key: impl Fn(T) -> K,
    test: &Test<K>,
    emit: Emit<'_, T>,
) {
    macro_rules! cmp {
        ($op:expr, $c:expr) => {
            pass(vals, |x| $op.holds(key(x), $c), emit)
        };
    }
    match *test {
        Test::None => {}
        Test::All => pass(vals, |_| true, emit),
        Test::Cmp(CmpOp::Lt, c) => cmp!(CmpOp::Lt, c),
        Test::Cmp(CmpOp::Le, c) => cmp!(CmpOp::Le, c),
        Test::Cmp(CmpOp::Eq, c) => cmp!(CmpOp::Eq, c),
        Test::Cmp(CmpOp::Ne, c) => cmp!(CmpOp::Ne, c),
        Test::Cmp(CmpOp::Ge, c) => cmp!(CmpOp::Ge, c),
        Test::Cmp(CmpOp::Gt, c) => cmp!(CmpOp::Gt, c),
        Test::Between(lo, hi) => pass(
            vals,
            |x| {
                let k = key(x);
                k >= lo && k <= hi
            },
            emit,
        ),
        Test::In(ref set) => pass(vals, |x| set.contains(&key(x)), emit),
    }
}

fn incomparable(ty: ColType, v: &Val) -> BatError {
    BatError::TypeMismatch { expected: ty.name(), got: format!("{v:?}") }
}

/// A numeric constant as `f64`: the space a pair with a `dbl` side
/// compares in.
fn place_f64(ty: ColType, v: &Val) -> Result<Const<f64>> {
    match v {
        Val::Nil => Ok(Const::Below),
        v => v.as_f64().map(Const::Is).ok_or_else(|| incomparable(ty, v)),
    }
}

/// A cell type a column stores, able to filter itself.
pub(crate) trait Scan: Copy + Default {
    /// A predicate with its constants placed among this type's cells.
    type Filter<'p>;

    /// Place `pred`'s constants against a column of type `ty` whose
    /// cells stand for `base` plus themselves ([`Cells::base`]). This is
    /// where a literal the column cannot be compared with is refused:
    /// once per predicate, before any row is read.
    fn resolve<'p>(ty: ColType, pred: &Pred<'p>, base: i64) -> Result<Self::Filter<'p>>;

    /// Call `emit(positions, cells)` with the cells of `vals` that
    /// satisfy `filter` and where they sit in `vals`, a batch at a
    /// time, in order.
    fn apply(filter: &Self::Filter<'_>, vals: impl Iterator<Item = Self>, emit: Emit<'_, Self>);
}

/// [`Scan::resolve`], then [`Scan::apply`] over a whole column's cells.
pub(crate) fn scan<C: Cells<Cell: Scan>>(
    cells: C,
    ty: ColType,
    pred: &Pred<'_>,
    emit: Emit<'_, C::Cell>,
) -> Result<()> {
    C::Cell::apply(&C::Cell::resolve(ty, pred, cells.base())?, cells.cells(), emit);
    Ok(())
}

impl Scan for f64 {
    type Filter<'p> = Test<f64>;

    fn resolve<'p>(ty: ColType, pred: &Pred<'p>, _base: i64) -> Result<Test<f64>> {
        Test::resolve(pred, |v| place_f64(ty, v))
    }

    fn apply(filter: &Test<f64>, vals: impl Iterator<Item = f64>, emit: Emit<'_, f64>) {
        run(vals, |x| x, filter, emit);
    }
}

impl<'s> Scan for &'s str {
    type Filter<'p> = Test<&'p str>;

    fn resolve<'p>(ty: ColType, pred: &Pred<'p>, _base: i64) -> Result<Test<&'p str>> {
        Test::resolve(pred, |v| match v {
            Val::Nil => Ok(Const::Below),
            Val::Str(s) => Ok(Const::Is(s.as_str())),
            v => Err(incomparable(ty, v)),
        })
    }

    fn apply(filter: &Test<&str>, vals: impl Iterator<Item = &'s str>, emit: Emit<'_, &'s str>) {
        run(vals, |x| x, filter, emit);
    }
}

/// An integer-class cell type (`bool` counts as 0/1): a column's own
/// cell, or a narrow column's offset.
pub(crate) trait Int: Copy + PartialOrd + Default + Into<i128> {
    /// Where the exact integer `c` falls among this type's values.
    fn place(c: i128) -> Const<Self>;
}

macro_rules! int_types {
    ($($t:ty),*) => {$(
        impl Int for $t {
            fn place(c: i128) -> Const<$t> {
                match <$t>::try_from(c) {
                    Ok(c) => Const::Is(c),
                    Err(_) if c < 0 => Const::Below,
                    Err(_) => Const::Above,
                }
            }
        }
    )*};
}
int_types!(i32, i64, u64, u8, u16, u32);

impl Int for bool {
    fn place(c: i128) -> Const<bool> {
        match c {
            0 => Const::Is(false),
            1 => Const::Is(true),
            c if c < 0 => Const::Below,
            _ => Const::Above,
        }
    }
}

impl<T: Int> Scan for T {
    type Filter<'p> = IntFilter<T>;

    fn resolve<'p>(ty: ColType, pred: &Pred<'p>, base: i64) -> Result<IntFilter<T>> {
        IntFilter::resolve(ty, pred, base)
    }

    fn apply(filter: &IntFilter<T>, vals: impl Iterator<Item = T>, emit: Emit<'_, T>) {
        filter.apply(vals, emit)
    }
}

/// An integer constant placed among `T`'s values as its distance from
/// `base`; `nil` below them all.
fn place_int<T: Int>(ty: ColType, v: &Val, base: i128) -> Result<Const<T>> {
    match v {
        Val::Nil => Ok(Const::Below),
        v => v.as_i128().map(|c| T::place(c - base)).ok_or_else(|| incomparable(ty, v)),
    }
}

/// The value a cell at `base` stands for, as `f64`: exact in `i128`,
/// rounded once, as [`Val::as_f64`] rounds the value itself.
fn value_f64<T: Int>(x: T, base: i64) -> f64 {
    (i128::from(base) + x.into()) as f64
}

/// An integer column's predicate in the one space all its constants
/// share: its cells' when they are integers, each placed as its distance
/// from the base; `f64` when they are `dbl`, which compare with the
/// value the cell at the base stands for.
pub(crate) enum IntTest<T> {
    Exact(Test<T>),
    Float(Test<f64>, i64),
}

impl<T: Int> IntTest<T> {
    /// `pred`'s constants must not mix integers with `dbl`s.
    fn resolve(ty: ColType, pred: &Pred<'_>, base: i64) -> Result<IntTest<T>> {
        if pred.consts().any(|v| matches!(v, Val::Dbl(_))) {
            return Ok(IntTest::Float(f64::resolve(ty, pred, base)?, base));
        }
        Ok(IntTest::Exact(Test::resolve(pred, |v| place_int(ty, v, base.into()))?))
    }

    fn holds(&self, x: T) -> bool {
        match self {
            IntTest::Exact(t) => t.holds(x),
            IntTest::Float(t, base) => t.holds(value_f64(x, *base)),
        }
    }
}

/// An integer column's whole predicate, resolved.
pub(crate) enum IntFilter<T> {
    One(IntTest<T>),
    /// `between 5 and 7.5`: each constant compares in its own space (the
    /// integer exactly, the `dbl` as `f64`), so the filter runs as its
    /// single-constant parts, resolved one by one — all of which must
    /// hold (`between`) …
    All(Vec<IntTest<T>>),
    /// … or any of them (`in`).
    Any(Vec<IntTest<T>>),
}

impl<T: Int> IntFilter<T> {
    fn resolve(ty: ColType, pred: &Pred<'_>, base: i64) -> Result<IntFilter<T>> {
        let dbls = pred.consts().filter(|v| matches!(v, Val::Dbl(_))).count();
        let ints = pred.consts().filter(|v| v.as_i128().is_some()).count();
        if dbls == 0 || ints == 0 {
            return Ok(IntFilter::One(IntTest::resolve(ty, pred, base)?));
        }
        let parts =
            pred.singles().iter().map(|p| IntTest::resolve(ty, p, base)).collect::<Result<_>>()?;
        Ok(match pred {
            Pred::In(_) => IntFilter::Any(parts),
            _ => IntFilter::All(parts),
        })
    }

    fn apply(&self, mut vals: impl Iterator<Item = T>, emit: Emit<'_, T>) {
        match self {
            IntFilter::One(IntTest::Exact(test)) => run(vals, |x| x, test, emit),
            _ => self.apply_dbl(&mut vals, emit),
        }
    }

    /// [`IntFilter::apply`] with a `dbl` constant, which integer columns
    /// rarely meet: a test per row rather than a loop per shape, and out
    /// of line, so that the exact loops compile as tight as on their own.
    #[cold]
    #[inline(never)]
    fn apply_dbl(&self, vals: &mut dyn Iterator<Item = T>, emit: Emit<'_, T>) {
        match self {
            IntFilter::One(test) => pass(vals, |x| test.holds(x), emit),
            IntFilter::All(parts) => pass(vals, |x| parts.iter().all(|p| p.holds(x)), emit),
            IntFilter::Any(parts) => pass(vals, |x| parts.iter().any(|p| p.holds(x)), emit),
        }
    }
}
