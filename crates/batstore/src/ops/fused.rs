//! The fused scan → group → aggregate operator: one pass over a table's
//! rows that evaluates a conjunction of single-column predicates, groups
//! the survivors by zero or more key columns and folds `count` / `sum` /
//! `avg` / `min` / `max` — [`BATCH`] row positions at a time, never
//! building a column-length intermediate. It is the SELECT-side sibling
//! of [`matching_rows`](crate::ops::matching_rows): the same
//! [`RowPredicate`] conjuncts over columns found through a lookup, the
//! same scan core, the same batches.
//!
//! What it answers, cell for cell:
//!
//! 1. Every conjunct is resolved against its column's type before the
//!    first row is read, so a literal its column cannot be compared with
//!    is a [`BatError::TypeMismatch`] whatever the rows hold. Later
//!    conjuncts then test only the survivors of earlier ones.
//! 2. Groups are numbered in first-appearance order over the qualifying
//!    rows in position order.
//! 3. Integer sums accumulate in `i128` and narrow once
//!    ([`BatError::Overflow`]), a narrow column's as offsets plus
//!    count × base; `dbl` sums add in position order; `avg`
//!    is the narrowed sum over the count; `min`/`max` keep the first of
//!    equals. With no key there is exactly one output row, also when no
//!    row qualifies — `count` and `sum` are then 0, while `avg`, `min`
//!    and `max` would be NULL, which no typed column holds: an error.
//! 4. With no predicate a batch is a range of positions, not a list, and
//!    an ungrouped `count` reads no row at all.
//! 5. With a [`Probe`] stage the rows are those of the scanned table
//!    joined to a build side on one key, matched as [`crate::ops::join`]
//!    matches (`dbl` by bit pattern). The hash table is built over the
//!    build key once; each batch of qualifying scanned rows is probed into
//!    it, and keys and aggregates read either side. A joined row is a
//!    scanned row and a build row, in scanned-row order and, for one
//!    scanned row, in build order — so groups number in first appearance
//!    over the scanned table's positions, then build order. No column of
//!    the join result is built.
//!
//! Per row there is no `Val` and no `dyn` call: columns are dispatched on
//! their type and form once per statement into boxed typed stages, and a
//! stage is called once per batch. Each stage reads its column's raw
//! cells, as every kernel over one column does (a narrow integer
//! column's offsets, a coded string key's codes); only the probe reads
//! values, as the join does.

use crate::bat::{Bat, Props};
use crate::column::Column;
use crate::error::{BatError, Result};
use crate::ops::aggregate::{beats, narrow_sum};
use crate::ops::cells::{int_cells, with_cells, with_key_pair, with_keys, Cells};
use crate::ops::hash::{check_rows, Chains, Codes, Key, NIL};
use crate::ops::scan::{Pred, Scan, BATCH};
use crate::ops::RowPredicate;
use crate::value::ColType;
use std::cell::Cell;
use std::cmp::Ordering;
use std::sync::Arc;

/// One aggregate of [`scan_aggregate`], over the named column.
#[derive(Clone, Debug, PartialEq)]
pub enum Aggregate {
    /// `count(*)`: how many rows of the group qualified.
    Count,
    Sum(String),
    Avg(String),
    Min(String),
    Max(String),
}

impl Aggregate {
    fn name(&self) -> &'static str {
        match self {
            Aggregate::Count => "count",
            Aggregate::Sum(_) => "sum",
            Aggregate::Avg(_) => "avg",
            Aggregate::Min(_) => "min",
            Aggregate::Max(_) => "max",
        }
    }

    fn column(&self) -> Option<&str> {
        match self {
            Aggregate::Count => None,
            Aggregate::Sum(c) | Aggregate::Avg(c) | Aggregate::Min(c) | Aggregate::Max(c) => {
                Some(c)
            }
        }
    }
}

/// The hash-probe stage of [`scan_aggregate`]: the scanned table joined,
/// on one key, to a build side — a join result or a selection, each of
/// its columns holding a BUN per build row.
pub struct Probe<'a> {
    /// The scanned table's join column, found through the scan's lookup.
    pub key: &'a str,
    /// The build side's join column.
    pub build_key: &'a Bat,
    /// The build-side columns the keys and aggregates name. A name this
    /// finds is a build column; any other is the scanned table's.
    pub build: &'a dyn Fn(&str) -> Option<Arc<Bat>>,
}

/// Whose positions a column's rows are counted in: the scanned table's,
/// or the build side's. Index into the two batches a round works on.
const SCANNED: usize = 0;
const BUILD: usize = 1;

/// The row positions one round works on: a range while nothing has
/// filtered the rows, else the positions the conjuncts kept (ascending).
#[derive(Clone, Copy)]
enum Batch<'a> {
    Range(usize, usize),
    Rows(&'a [usize]),
}

impl Batch<'_> {
    fn len(self) -> usize {
        match self {
            Batch::Range(lo, hi) => hi - lo,
            Batch::Rows(rows) => rows.len(),
        }
    }

    /// The position of the batch's `j`-th row.
    fn at(self, j: usize) -> usize {
        match self {
            Batch::Range(lo, _) => lo + j,
            Batch::Rows(rows) => rows[j],
        }
    }

    /// `f(j, i, cell)` for the batch's `j`-th row, which sits at
    /// position `i` of `cells`.
    #[inline(always)]
    fn each<C: Cells>(self, cells: C, mut f: impl FnMut(usize, usize, C::Cell)) {
        match self {
            Batch::Range(lo, hi) => (lo..hi).enumerate().for_each(|(j, i)| f(j, i, cells.at(i))),
            Batch::Rows(rows) => {
                rows.iter().enumerate().for_each(|(j, &i)| f(j, i, cells.at(i)));
            }
        }
    }
}

/// One WHERE conjunct over its column, resolved.
trait Conjunct {
    /// Scan the whole column, handing on the positions that qualify a
    /// batch at a time.
    fn drive(&self, sink: &mut dyn FnMut(&[usize]));

    /// Keep, at the front of `rows` and in order, the positions among
    /// them that qualify; returns how many.
    fn refine(&self, rows: &mut [usize]) -> usize;
}

struct Filtered<'p, C: Cells>
where
    C::Cell: Scan,
{
    cells: C,
    filter: <C::Cell as Scan>::Filter<'p>,
}

impl<C: Cells> Conjunct for Filtered<'_, C>
where
    C::Cell: Scan,
{
    fn drive(&self, sink: &mut dyn FnMut(&[usize])) {
        C::Cell::apply(&self.filter, self.cells.cells(), &mut |rows, _| sink(rows));
    }

    fn refine(&self, rows: &mut [usize]) -> usize {
        // The scan reads candidate `j` before it can emit `j`, and what
        // it emits ascends, so a survivor is written at or before the
        // place it was read from: the list compacts in place.
        let (cells, rows) = (self.cells, Cell::from_mut(rows).as_slice_of_cells());
        let mut kept = 0;
        let candidates = rows.iter().map(|i| cells.at(i.get()));
        C::Cell::apply(&self.filter, candidates, &mut |hits, _| {
            for &j in hits {
                rows[kept].set(rows[j].get());
                kept += 1;
            }
        });
        kept
    }
}

fn conjunct<'a>(bat: &'a Bat, p: &'a RowPredicate) -> Result<Box<dyn Conjunct + 'a>> {
    fn filtered<'p, C: Cells<Cell: Scan> + 'p>(
        cells: C,
        ty: ColType,
        pred: &Pred<'p>,
    ) -> Result<Box<dyn Conjunct + 'p>> {
        Ok(Box::new(Filtered { cells, filter: C::Cell::resolve(ty, pred, cells.base())? }))
    }
    if matches!(p, RowPredicate::InList { values, .. } if values.is_empty()) {
        return Err(BatError::Invalid("IN list must not be empty".into()));
    }
    let (ty, pred) = (bat.tail_type(), p.pred());
    with_cells!(bat.tail(), |cells| filtered(cells, ty, &pred))
}

/// The probe stage, its hash table built over the build key.
trait Matcher {
    /// Hand `sink` the joined rows of the batch's scanned rows as
    /// `(scanned, build)` position lists, up to [`BATCH`] pairs at a
    /// time: in the batch's order, and for one scanned row by ascending
    /// build position.
    fn pairs(&self, batch: Batch<'_>, sink: &mut dyn FnMut(&[usize], &[usize]));
}

struct Hashed<A, B> {
    scanned: A,
    build: B,
    table: Chains,
}

impl<A: Cells, B: Cells<Cell = A::Cell>> Matcher for Hashed<A, B>
where
    A::Cell: Key,
{
    fn pairs(&self, batch: Batch<'_>, sink: &mut dyn FnMut(&[usize], &[usize])) {
        let Hashed { build, table, .. } = self;
        let (mut at, mut to, mut n) = ([0; BATCH], [0; BATCH], 0);
        batch.each(self.scanned, |_, i, key| {
            // Chains yield ascending ids: build order within one row.
            for j in table.chain(key.hash(&table.seed)).filter(|&j| build.at(j) == key) {
                (at[n], to[n]) = (i, j);
                n += 1;
                if n == BATCH {
                    sink(&at, &to);
                    n = 0;
                }
            }
        });
        if n > 0 {
            sink(&at[..n], &to[..n]);
        }
    }
}

/// The probe stage over two join columns of one domain (as
/// [`crate::ops::join`] pairs them), its table built on `build`.
fn matcher<'a>(scanned: &'a Bat, build: &'a Bat) -> Result<Box<dyn Matcher + 'a>> {
    fn hashed<'a, A, B>(scanned: A, build: B) -> Result<Box<dyn Matcher + 'a>>
    where
        A: Cells + 'a,
        B: Cells<Cell = A::Cell> + 'a,
        A::Cell: Key,
    {
        let table = Chains::over(build)?;
        Ok(Box::new(Hashed { scanned, build, table }))
    }
    let mismatch = || BatError::TypeMismatch {
        expected: scanned.tail_type().name(),
        got: build.tail_type().name().to_string(),
    };
    with_key_pair!(scanned.tail(), build.tail(), |a, b| hashed(a, b), Err(mismatch()))
}

/// One GROUP BY column.
trait KeyColumn {
    /// Write to `out[j]` the code of the batch's `j`-th row: the number
    /// its value has among the column's distinct values seen so far.
    fn codes(&mut self, batch: Batch<'_>, out: &mut [u32; BATCH]);

    /// How many distinct values have been numbered so far.
    fn seen(&self) -> usize;
}

/// A key numbered by its cells ([`Codes`]).
struct ByValue<C: Cells> {
    cells: C,
    seen: Codes<C::Cell>,
}

impl<C: Cells> KeyColumn for ByValue<C>
where
    C::Cell: Key,
{
    fn codes(&mut self, batch: Batch<'_>, out: &mut [u32; BATCH]) {
        let seen = &mut self.seen;
        batch.each(self.cells, |j, _, key| out[j] = seen.code(key));
    }

    fn seen(&self) -> usize {
        self.seen.keys.len()
    }
}

fn key_column(bat: &Bat) -> Box<dyn KeyColumn + '_> {
    fn by_value<'a, C: Cells<Cell: Key> + 'a>(cells: C) -> Box<dyn KeyColumn + 'a> {
        Box::new(ByValue { cells, seen: Codes::new() })
    }
    with_keys!(bat.tail(), |cells| by_value(cells))
}

/// Slots a dense [`Refine`] table may grow to (64 KiB of `u32`).
const DENSE_MAX: usize = 1 << 14;

/// A group refined by one more key: each `(group so far, code)` pair
/// numbered as it first appears, at `group * width + code` of a dense
/// table whose width the first codes fix and whose rows grow with the
/// groups. Once a code outgrows the width or the table would pass
/// [`DENSE_MAX`] slots, the pairs are numbered by hash, in the same order.
#[derive(Default)]
struct Refine {
    slots: Vec<u32>,
    width: usize,
    pairs: Vec<(u32, u32)>,
    hashed: Option<Codes<u64>>,
}

impl Refine {
    /// Replace each of `gids` (below `groups`) by the number of its pair
    /// with the code beside it (below `seen`); returns how many groups
    /// there are now.
    fn refine(&mut self, gids: &mut [u32], codes: &[u32], groups: usize, seen: usize) -> usize {
        if self.width == 0 && seen > 0 {
            self.width = seen.next_power_of_two();
        }
        let size = groups.next_power_of_two().saturating_mul(self.width);
        if self.hashed.is_none() && (seen > self.width || size > DENSE_MAX) {
            let mut hashed = Codes::new();
            for &(g, c) in &self.pairs {
                hashed.code(u64::from(g) << 32 | u64::from(c));
            }
            self.hashed = Some(hashed);
        }
        let Refine { slots, width, pairs, hashed } = self;
        let Some(hashed) = hashed else {
            slots.resize(size.max(slots.len()), NIL);
            for (gid, &code) in gids.iter_mut().zip(codes) {
                let slot = &mut slots[*gid as usize * *width + code as usize];
                if *slot == NIL {
                    *slot = pairs.len() as u32;
                    pairs.push((*gid, code));
                }
                *gid = *slot;
            }
            return pairs.len();
        };
        for (gid, &code) in gids.iter_mut().zip(codes) {
            *gid = hashed.code(u64::from(*gid) << 32 | u64::from(code));
        }
        hashed.keys.len()
    }
}

/// One aggregate's accumulators, a slot per group.
trait Fold {
    /// Fold the batch's cells into their rows' groups: `gids[j]` for its
    /// `j`-th row, group 0 for every row when there are no keys.
    fn fold(&mut self, batch: Batch<'_>, gids: Option<&[u32]>, groups: usize);

    /// The output column, a cell per group; `counts` are the groups' row
    /// counts.
    fn finish(self: Box<Self>, counts: &[i64]) -> Result<Column>;
}

/// `sum` or `avg` of an integer column: exact in `i128`, narrowed once.
/// The cells are summed, and each group's count times their base added
/// at the end.
struct IntSum<C> {
    cells: C,
    acc: Vec<i128>,
    avg: bool,
}

impl<C: Cells> Fold for IntSum<C>
where
    C::Cell: Into<i128>,
{
    fn fold(&mut self, batch: Batch<'_>, gids: Option<&[u32]>, groups: usize) {
        self.acc.resize(groups, 0);
        let acc = &mut self.acc;
        match gids {
            None => {
                let mut sum = 0;
                batch.each(self.cells, |_, _, x| sum += x.into());
                acc[0] += sum;
            }
            Some(gids) => batch.each(self.cells, |j, _, x| acc[gids[j] as usize] += x.into()),
        }
    }

    fn finish(self: Box<Self>, counts: &[i64]) -> Result<Column> {
        int_sums(self.acc, counts, self.cells.base(), self.avg)
    }
}

/// [`IntSum`]'s output, one copy for every cell type: per group the sum
/// plus count × `base`, narrowed, or that over the count for `avg`.
fn int_sums(mut acc: Vec<i128>, counts: &[i64], base: i64, avg: bool) -> Result<Column> {
    acc.resize(counts.len(), 0);
    let base = i128::from(base);
    let sums = acc.into_iter().zip(counts).map(|(s, &n)| narrow_sum(s + i128::from(n) * base));
    let sums = sums.collect::<Result<Vec<i64>>>()?;
    Ok(if avg {
        Column::Dbl(sums.iter().zip(counts).map(|(&s, &n)| s as f64 / n as f64).collect())
    } else {
        Column::from(sums)
    })
}

/// `sum` or `avg` of a `dbl` column, added in position order.
struct DblSum<'a> {
    cells: &'a [f64],
    acc: Vec<f64>,
    avg: bool,
}

impl Fold for DblSum<'_> {
    fn fold(&mut self, batch: Batch<'_>, gids: Option<&[u32]>, groups: usize) {
        self.acc.resize(groups, 0.0);
        let acc = &mut self.acc;
        match gids {
            None => {
                let mut sum = acc[0];
                batch.each(self.cells, |_, _, x| sum += x);
                acc[0] = sum;
            }
            Some(gids) => batch.each(self.cells, |j, _, x| acc[gids[j] as usize] += x),
        }
    }

    fn finish(mut self: Box<Self>, counts: &[i64]) -> Result<Column> {
        self.acc.resize(counts.len(), 0.0);
        if self.avg {
            self.acc.iter_mut().zip(counts).for_each(|(s, &n)| *s /= n as f64);
        }
        Ok(Column::Dbl(self.acc))
    }
}

/// `min` or `max`: per group, the row holding the `want`-most value
/// (first of equals) and that value.
struct Extremum<'a, C: Cells> {
    column: &'a Column,
    cells: C,
    best: Vec<(usize, C::Cell)>,
    want: Ordering,
}

impl<C: Cells> Fold for Extremum<'_, C> {
    fn fold(&mut self, batch: Batch<'_>, gids: Option<&[u32]>, _groups: usize) {
        let (best, want) = (&mut self.best, self.want);
        // Groups are numbered as they appear, so a row of a group this
        // fold has not met yet carries the next free slot's number.
        batch.each(self.cells, |j, i, x| match best.get_mut(gids.map_or(0, |g| g[j] as usize)) {
            None => best.push((i, x)),
            Some(slot) if beats(x, slot.1, want) => *slot = (i, x),
            Some(_) => {}
        });
    }

    fn finish(self: Box<Self>, _counts: &[i64]) -> Result<Column> {
        Ok(self.column.gather_iter(self.best.iter().map(|&(i, _)| i)))
    }
}

fn fold<'a>(agg: &Aggregate, bat: &'a Bat) -> Result<Box<dyn Fold + 'a>> {
    fn sum<'a, C: Cells<Cell: Into<i128>> + 'a>(cells: C, avg: bool) -> Box<dyn Fold + 'a> {
        Box::new(IntSum { cells, acc: Vec::new(), avg })
    }
    fn extremum<'a, C: Cells + 'a>(
        column: &'a Column,
        cells: C,
        want: Ordering,
    ) -> Box<dyn Fold + 'a> {
        Box::new(Extremum { column, cells, best: Vec::new(), want })
    }
    let column = bat.tail();
    let avg = matches!(agg, Aggregate::Avg(_));
    Ok(match agg {
        Aggregate::Count => unreachable!("count(*) has no column to fold"),
        Aggregate::Sum(_) | Aggregate::Avg(_) => match column {
            Column::Int(v) => int_cells!(v, |cells| sum(cells, avg)),
            Column::Lng(v) => int_cells!(v, |cells| sum(cells, avg)),
            Column::Oid(v) => sum(&v[..], avg),
            Column::Dbl(v) => Box::new(DblSum { cells: &v[..], acc: Vec::new(), avg }),
            other => {
                return Err(BatError::TypeMismatch {
                    expected: "numeric",
                    got: other.col_type().name().to_string(),
                })
            }
        },
        Aggregate::Min(_) => with_cells!(column, |cells| extremum(column, cells, Ordering::Less)),
        Aggregate::Max(_) => {
            with_cells!(column, |cells| extremum(column, cells, Ordering::Greater))
        }
    })
}

/// Everything a round updates. Each key and fold reads its column at the
/// positions of its side ([`SCANNED`] or [`BUILD`]).
struct Rounds<'a> {
    keys: Vec<(usize, Box<dyn KeyColumn + 'a>)>,
    /// Per key after the first: the group refined by its code.
    refined: Vec<Refine>,
    /// Each group's first row, on either side.
    firsts: Vec<[usize; 2]>,
    /// Each group's row count.
    counts: Vec<i64>,
    folds: Vec<(usize, Box<dyn Fold + 'a>)>,
    gids: [u32; BATCH],
    codes: [u32; BATCH],
}

impl Rounds<'_> {
    /// One round over the rows `sides` list: its `j`-th row sits at the
    /// `j`-th position of each side's batch. Called once per batch from
    /// either stage, so kept out of line.
    #[inline(never)]
    fn round(&mut self, sides: [Batch<'_>; 2]) {
        let n = sides[SCANNED].len();
        let mut gids = None;
        if let Some(((side, first), more)) = self.keys.split_first_mut() {
            // One typed pass per key column gives each row a small code;
            // combining the codes is integer work.
            first.codes(sides[*side], &mut self.gids);
            let mut groups = first.seen();
            for ((side, key), refined) in more.iter_mut().zip(&mut self.refined) {
                key.codes(sides[*side], &mut self.codes);
                groups = refined.refine(&mut self.gids[..n], &self.codes[..n], groups, key.seen());
            }
            let ids = &self.gids[..n];
            for (j, &gid) in ids.iter().enumerate() {
                if gid as usize == self.firsts.len() {
                    self.firsts.push(sides.map(|batch| batch.at(j)));
                }
            }
            gids = Some(ids);
        }
        let groups = if gids.is_some() { self.firsts.len() } else { 1 };
        self.counts.resize(groups, 0);
        match gids {
            None => self.counts[0] += n as i64,
            Some(gids) => gids.iter().for_each(|&g| self.counts[g as usize] += 1),
        }
        for (side, fold) in &mut self.folds {
            fold.fold(sides[*side], gids, groups);
        }
    }
}

/// A dense output BAT over `tail`.
fn dense(tail: Column, tail_sorted: bool) -> Bat {
    let props = Props { tail_sorted, head_sorted: true, head_key: true, no_nil: true };
    Bat::with_props(Column::Void { seq: 0, len: tail.len() }, tail, props).expect("parallel")
}

/// Filter, group and aggregate a table of `row_count` rows in one pass,
/// joined to a build side first when there is a `probe` stage.
///
/// Columns are found by name through `lookup` (as
/// [`matching_rows`](crate::ops::matching_rows) finds them); each must
/// hold `row_count` rows. A row qualifies when every one of `preds` holds
/// of it. With a `probe`, each qualifying row stands for its joined rows,
/// one per build row whose key equals its own, and keys and aggregates
/// may name build columns too (each holding a BUN per build row). The
/// rows fall into one group per distinct combination of their `keys`
/// values (one group in all when `keys` is empty), numbered in
/// first-appearance order. Returns one dense BAT per key (the group's key
/// value) followed by one per aggregate, a BUN per group.
pub fn scan_aggregate(
    lookup: &dyn Fn(&str) -> Option<Arc<Bat>>,
    row_count: usize,
    preds: &[RowPredicate],
    probe: Option<&Probe<'_>>,
    keys: &[&str],
    aggs: &[Aggregate],
) -> Result<Vec<Bat>> {
    check_rows(row_count)?;
    let sized = |bat: Arc<Bat>, rows: usize| {
        if bat.count() != rows {
            return Err(BatError::LengthMismatch { left: bat.count(), right: rows });
        }
        Ok(bat)
    };
    let fetch = |name: &str| {
        let bat = lookup(name).ok_or_else(|| BatError::NotFound(format!("column '{name}'")))?;
        sized(bat, row_count)
    };
    let operand = |name: &str| match probe.and_then(|p| Some(((p.build)(name)?, p))) {
        Some((bat, p)) => Ok((BUILD, sized(bat, p.build_key.count())?)),
        None => Ok((SCANNED, fetch(name)?)),
    };
    let pred_cols = preds.iter().map(|p| fetch(p.column())).collect::<Result<Vec<_>>>()?;
    let join_col = probe.map(|p| fetch(p.key)).transpose()?;
    let key_cols = keys.iter().map(|k| operand(k)).collect::<Result<Vec<_>>>()?;
    let agg_cols =
        aggs.iter().map(|a| a.column().map(operand).transpose()).collect::<Result<Vec<_>>>()?;

    // Everything is placed against its column's type before a row is read.
    let conjuncts =
        preds.iter().zip(&pred_cols).map(|(p, b)| conjunct(b, p)).collect::<Result<Vec<_>>>()?;
    let matcher = probe.zip(join_col.as_deref()).map(|(p, col)| matcher(col, p.build_key));
    let matcher = matcher.transpose()?;
    let folds = aggs
        .iter()
        .zip(&agg_cols)
        .filter_map(|(a, b)| b.as_ref().map(|(side, b)| Ok((*side, fold(a, b)?))))
        .collect::<Result<Vec<_>>>()?;
    let mut rounds = Rounds {
        keys: key_cols.iter().map(|(side, b)| (*side, key_column(b))).collect(),
        refined: keys.iter().skip(1).map(|_| Refine::default()).collect(),
        firsts: Vec::new(),
        counts: Vec::new(),
        folds,
        gids: [0; BATCH],
        codes: [0; BATCH],
    };
    // The qualifying rows, or what they join; without a probe stage no
    // column reads the build side, which is then the scanned rows again.
    let mut feed = |batch: Batch<'_>| match &matcher {
        None => rounds.round([batch; 2]),
        Some(m) => m.pairs(batch, &mut |at, to| rounds.round([Batch::Rows(at), Batch::Rows(to)])),
    };

    match conjuncts.split_first() {
        // Unfiltered rows need no position list; without keys there is
        // no per-row group id to buffer either, so all rows are one batch.
        None => {
            let step = if keys.is_empty() { row_count.max(1) } else { BATCH };
            for lo in (0..row_count).step_by(step) {
                feed(Batch::Range(lo, row_count.min(lo + step)));
            }
        }
        Some((first, [])) => first.drive(&mut |rows| feed(Batch::Rows(rows))),
        Some((first, rest)) => {
            let mut kept = [0; BATCH];
            first.drive(&mut |rows| {
                let mut n = rows.len();
                kept[..n].copy_from_slice(rows);
                for conjunct in rest {
                    n = conjunct.refine(&mut kept[..n]);
                }
                feed(Batch::Rows(&kept[..n]));
            });
        }
    }

    let Rounds { firsts, mut counts, folds, .. } = rounds;
    counts.resize(if keys.is_empty() { 1 } else { firsts.len() }, 0);
    // Groups appear in scanned-row order, so a sorted scanned column stays
    // sorted; the build rows they first met follow no order.
    let mut out: Vec<Bat> = key_cols
        .iter()
        .map(|(side, b)| {
            let rows: Vec<usize> = firsts.iter().map(|f| f[*side]).collect();
            dense(b.tail().gather(&rows), *side == SCANNED && b.props().tail_sorted)
        })
        .collect();
    // The one group of an ungrouped aggregate exists without rows too.
    let nothing = keys.is_empty() && counts[0] == 0;
    let mut folds = folds.into_iter();
    for agg in aggs {
        let column = match agg {
            Aggregate::Count => Column::from(counts.clone()),
            Aggregate::Avg(_) | Aggregate::Min(_) | Aggregate::Max(_) if nothing => {
                return Err(BatError::Invalid(format!(
                    "{} over zero rows is NULL, which this engine cannot represent",
                    agg.name()
                )))
            }
            _ => folds.next().expect("one fold per aggregate over a column").1.finish(&counts)?,
        };
        out.push(Bat::dense(column));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::CmpOp;
    use crate::value::Val;

    /// `flag`, `status` (strings), `qty` (lng), `price` (dbl), `day` (int).
    fn lineitem() -> impl Fn(&str) -> Option<Arc<Bat>> {
        let cols = [
            ("flag", Column::from(vec!["N", "A", "N", "R", "A", "N"])),
            ("status", Column::from(vec!["O", "F", "O", "F", "F", "F"])),
            ("qty", Column::from(vec![10i64, 20, 30, 40, 50, 60])),
            ("price", Column::from(vec![1.5, 2.5, 3.5, 4.5, 5.5, 6.5])),
            ("day", Column::from(vec![1, 2, 3, 4, 5, 6])),
        ]
        .map(|(name, col)| (name, Arc::new(Bat::dense(col))));
        move |name: &str| cols.iter().find(|(n, _)| *n == name).map(|(_, b)| Arc::clone(b))
    }

    fn cmp(column: &str, op: CmpOp, value: Val) -> RowPredicate {
        RowPredicate::Cmp { column: column.into(), op, value }
    }

    fn tails(out: &[Bat]) -> Vec<Vec<Val>> {
        out.iter().map(|b| b.tail().iter_vals().collect()).collect()
    }

    #[test]
    fn filters_groups_and_folds_in_first_appearance_order() {
        let out = scan_aggregate(
            &lineitem(),
            6,
            &[cmp("day", CmpOp::Le, Val::Int(5))],
            None,
            &["flag", "status"],
            &[
                Aggregate::Sum("qty".into()),
                Aggregate::Avg("price".into()),
                Aggregate::Count,
                Aggregate::Min("day".into()),
                Aggregate::Max("qty".into()),
            ],
        )
        .unwrap();
        // (N,O) rows 0,2; (A,F) rows 1,4; (R,F) row 3.
        assert_eq!(
            tails(&out),
            vec![
                vec![Val::from("N"), Val::from("A"), Val::from("R")],
                vec![Val::from("O"), Val::from("F"), Val::from("F")],
                vec![Val::Lng(40), Val::Lng(70), Val::Lng(40)],
                vec![Val::Dbl(2.5), Val::Dbl(4.0), Val::Dbl(4.5)],
                vec![Val::Lng(2), Val::Lng(2), Val::Lng(1)],
                vec![Val::Int(1), Val::Int(2), Val::Int(4)],
                vec![Val::Lng(30), Val::Lng(50), Val::Lng(40)],
            ]
        );
    }

    #[test]
    fn later_conjuncts_see_only_the_survivors_and_all_resolve_up_front() {
        let table = lineitem();
        let between =
            RowPredicate::Between { column: "qty".into(), lo: Val::Int(20), hi: Val::Int(50) };
        let listed = RowPredicate::InList {
            column: "flag".into(),
            values: vec![Val::from("A"), Val::from("R")],
        };
        let preds = [cmp("day", CmpOp::Ge, Val::Int(2)), between, listed];
        let out = scan_aggregate(
            &table,
            6,
            &preds,
            None,
            &[],
            &[Aggregate::Count, Aggregate::Sum("qty".into())],
        );
        assert_eq!(tails(&out.unwrap()), vec![vec![Val::Lng(3)], vec![Val::Lng(110)]]);
        // The first conjunct keeps nothing; the last one's literal is
        // still placed against its column, and refused.
        let preds = [cmp("day", CmpOp::Gt, Val::Int(100)), cmp("flag", CmpOp::Lt, Val::Int(5))];
        let out = scan_aggregate(&table, 6, &preds, None, &[], &[Aggregate::Count]);
        assert!(matches!(out, Err(BatError::TypeMismatch { .. })), "{out:?}");
        let empty_in = RowPredicate::InList { column: "day".into(), values: vec![] };
        assert!(matches!(
            scan_aggregate(&table, 6, &[empty_in], None, &[], &[Aggregate::Count]),
            Err(BatError::Invalid(_))
        ));
    }

    #[test]
    fn nothing_qualifying_is_one_row_of_zeros_or_no_group_at_all() {
        let table = lineitem();
        let none = [cmp("day", CmpOp::Gt, Val::Int(100))];
        let zeros =
            [Aggregate::Count, Aggregate::Sum("qty".into()), Aggregate::Sum("price".into())];
        let out = scan_aggregate(&table, 6, &none, None, &[], &zeros).unwrap();
        assert_eq!(tails(&out), vec![vec![Val::Lng(0)], vec![Val::Lng(0)], vec![Val::Dbl(0.0)]]);
        for agg in [Aggregate::Avg("qty".into()), Aggregate::Min("flag".into())] {
            let name = agg.name();
            let e =
                scan_aggregate(&table, 6, &none, None, &[], &[Aggregate::Count, agg]).unwrap_err();
            assert!(matches!(e, BatError::Invalid(_)), "{e}");
            assert!(e.to_string().contains(&format!("{name} over zero rows is NULL")), "{e}");
        }
        // Grouped: no rows, no groups, typed empty columns.
        let aggs = [Aggregate::Avg("qty".into()), Aggregate::Max("flag".into())];
        let out = scan_aggregate(&table, 6, &none, None, &["status"], &aggs).unwrap();
        let types: Vec<_> = out.iter().map(|b| (b.count(), b.tail_type().name())).collect();
        assert_eq!(types, vec![(0, "str"), (0, "dbl"), (0, "str")]);
    }

    #[test]
    fn sums_overflow_and_refuse_strings_like_the_separate_kernels() {
        let big = Arc::new(Bat::dense(Column::from(vec![i64::MAX, 1, 5])));
        let keys = Arc::new(Bat::dense(Column::from(vec![1, 1, 2])));
        let table = |name: &str| match name {
            "big" => Some(Arc::clone(&big)),
            "k" => Some(Arc::clone(&keys)),
            _ => None,
        };
        let sum = [Aggregate::Sum("big".into())];
        assert!(matches!(
            scan_aggregate(&table, 3, &[], None, &["k"], &sum),
            Err(BatError::Overflow(_))
        ));
        assert!(matches!(
            scan_aggregate(&table, 3, &[], None, &[], &[Aggregate::Avg("big".into())]),
            Err(BatError::Overflow(_))
        ));
        let out =
            scan_aggregate(&table, 3, &[cmp("k", CmpOp::Eq, Val::Int(2))], None, &["k"], &sum);
        assert_eq!(tails(&out.unwrap()), vec![vec![Val::Int(2)], vec![Val::Lng(5)]]);
        let e = scan_aggregate(&lineitem(), 6, &[], None, &[], &[Aggregate::Sum("flag".into())]);
        assert!(matches!(e, Err(BatError::TypeMismatch { .. })));
        // Columns must exist and hold the table's row count.
        assert!(matches!(
            scan_aggregate(&table, 3, &[], None, &["ghost"], &[Aggregate::Count]),
            Err(BatError::NotFound(_))
        ));
        assert!(matches!(
            scan_aggregate(&table, 4, &[], None, &["k"], &[Aggregate::Count]),
            Err(BatError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn a_probe_stage_folds_each_qualifying_row_once_per_matching_build_row() {
        let okey = Arc::new(Bat::dense(Column::from(vec![5, 2, 7, 2, 5])));
        let price = Arc::new(Bat::dense(Column::from(vec![10i64, 20, 30, 40, 50])));
        let table = |name: &str| match name {
            "okey" => Some(Arc::clone(&okey)),
            "price" => Some(Arc::clone(&price)),
            _ => None,
        };
        // Key 2 has two build rows; nothing scanned has key 9.
        let build_key = Bat::dense(Column::from(vec![2, 5, 2, 9]));
        let prio = Arc::new(Bat::dense(Column::from(vec!["b", "x", "a", "z"])));
        let build = |name: &str| (name == "prio").then(|| Arc::clone(&prio));
        let probe = Probe { key: "okey", build_key: &build_key, build: &build };
        let keep = [cmp("price", CmpOp::Ge, Val::Int(20))];
        let aggs = [Aggregate::Sum("price".into()), Aggregate::Count];
        let out = scan_aggregate(&table, 5, &keep, Some(&probe), &["prio"], &aggs).unwrap();
        // Rows 1 and 3 (key 2) join build rows 0 and 2, in that order;
        // row 2 (key 7) joins nothing; row 4 (key 5) joins build row 1.
        let want = vec![
            vec![Val::from("b"), Val::from("a"), Val::from("x")],
            vec![Val::Lng(60), Val::Lng(60), Val::Lng(50)],
            vec![Val::Lng(2), Val::Lng(2), Val::Lng(1)],
        ];
        assert_eq!(tails(&out), want);

        // An empty build side joins nothing: one row of zeros, ungrouped.
        let empty = Bat::dense(Column::from(Vec::<i32>::new()));
        let probe = Probe { key: "okey", build_key: &empty, build: &|_| None };
        let out = scan_aggregate(&table, 5, &[], Some(&probe), &[], &aggs).unwrap();
        assert_eq!(tails(&out), vec![vec![Val::Lng(0)], vec![Val::Lng(0)]]);
        // Keys of two domains do not join; a build column of another
        // length is refused.
        let strings = Bat::dense(Column::from(vec!["2"]));
        let probe = Probe { key: "okey", build_key: &strings, build: &|_| None };
        let e = scan_aggregate(&table, 5, &[], Some(&probe), &[], &aggs).unwrap_err();
        assert!(matches!(e, BatError::TypeMismatch { .. }), "{e}");
        let probe = Probe { key: "okey", build_key: &empty, build: &build };
        let e = scan_aggregate(&table, 5, &[], Some(&probe), &["prio"], &aggs).unwrap_err();
        assert!(matches!(e, BatError::LengthMismatch { .. }), "{e}");
    }

    #[test]
    fn many_batches_and_many_groups_agree_with_a_plain_loop() {
        let n = 5 * BATCH + 17;
        let key1: Vec<i32> = (0..n).map(|i| (i * 7 % 13) as i32).collect();
        let key2: Vec<&str> = (0..n).map(|i| ["x", "a longer key", "y"][i * 5 % 3]).collect();
        let vals: Vec<i64> = (0..n).map(|i| (i as i64 * 37) % 101 - 50).collect();
        let cols = [
            Arc::new(Bat::dense(Column::from(key1.clone()))),
            Arc::new(Bat::dense(Column::from(key2.clone()))),
            Arc::new(Bat::dense(Column::from(vals.clone()))),
        ];
        let table = |name: &str| name.parse::<usize>().ok().map(|i| Arc::clone(&cols[i]));
        let keep = cmp("2", CmpOp::Ge, Val::Int(-20));
        let aggs = [Aggregate::Sum("2".into()), Aggregate::Count, Aggregate::Min("2".into())];
        let fused = scan_aggregate(&table, n, &[keep], None, &["0", "1"], &aggs).unwrap();

        // (key1, key2, sum, count, min) per group, in first-appearance order.
        let mut groups: Vec<(i32, &str, i64, i64, i64)> = Vec::new();
        for i in (0..n).filter(|&i| vals[i] >= -20) {
            match groups.iter_mut().find(|g| (g.0, g.1) == (key1[i], key2[i])) {
                Some(g) => (g.2, g.3, g.4) = (g.2 + vals[i], g.3 + 1, g.4.min(vals[i])),
                None => groups.push((key1[i], key2[i], vals[i], 1, vals[i])),
            }
        }
        let want = vec![
            groups.iter().map(|g| Val::Int(g.0)).collect(),
            groups.iter().map(|g| Val::from(g.1)).collect(),
            groups.iter().map(|g| Val::Lng(g.2)).collect(),
            groups.iter().map(|g| Val::Lng(g.3)).collect(),
            groups.iter().map(|g| Val::Lng(g.4)).collect::<Vec<_>>(),
        ];
        assert_eq!(tails(&fused), want);
        assert!(groups.len() > 30, "{} groups", groups.len());
    }
}
