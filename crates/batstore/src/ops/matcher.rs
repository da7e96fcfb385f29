//! The one matcher behind every kernel over two key columns — the join,
//! `semijoin` and `kunion`, the fused probe: a merge when both sides
//! claim ascending order on cells that order as their values do (never
//! `dbl`, whose keys are bit patterns), else a hash table over the side
//! it *keeps*, probed with each row of the side it *walks* (§3.1). The
//! kept side keeps its typed cells, one instantiation per form; the
//! walked side is read [`BATCH`] rows at a time into a block of values on
//! the stack ([`Walk`]). So the matcher is compiled per form of one side,
//! not per pair of forms, and no side is decoded whole.

use crate::column::Column;
use crate::error::{BatError, Result};
use crate::ops::cells::{with_key_pair, Batch, Cells, Walk};
use crate::ops::hash::{Chains, Key};
use crate::ops::scan::BATCH;

/// Two key columns matched. Called with rows of the walked side (in key
/// order, for a merge), it hands the sink the matches as `(walked, kept)`
/// position lists, up to [`BATCH`] pairs at a time: in the rows' order,
/// and for one walked row by ascending kept position.
pub(crate) type Matcher<'a> = Box<dyn Fn(Batch<'_>, &mut dyn FnMut(&[usize], &[usize])) + 'a>;

/// The matcher of `walked` against `kept`, two columns of one join domain
/// (equal types, `void` and `oid` sharing one): a merge when both are
/// `sorted` on cells that order as their values do, else a hash table
/// built over `kept`. With `first`, a walked row yields only its first
/// match.
pub(crate) fn matcher<'a>(
    walked: &'a Column,
    kept: &'a Column,
    sorted: bool,
    first: bool,
) -> Result<Matcher<'a>> {
    let mismatch = || BatError::TypeMismatch {
        expected: walked.col_type().name(),
        got: kept.col_type().name().to_string(),
    };
    with_key_pair!(walked, kept, |a, b| keyed(a, b, sorted, first), Err(mismatch()))
}

fn keyed<'a, A, B>(walked: A, kept: B, sorted: bool, first: bool) -> Result<Matcher<'a>>
where
    A: Walk<Cell: Key + Default> + 'a,
    B: Cells<Cell = A::Cell> + 'a,
{
    if sorted && B::ORDERED {
        // Compiled once per `first`: with it, a row's membership is one
        // compare, recorded without a branch on its outcome.
        return Ok(if first {
            merge::<_, _, true>(walked, kept)
        } else {
            merge::<_, _, false>(walked, kept)
        });
    }
    let table = Chains::over(kept)?;
    Ok(Box::new(move |rows, sink| {
        walk(walked, rows, sink, |i, key, out| {
            // Chains yield ascending ids: kept order within one row.
            for j in table.chain(key.hash(&table.seed)).filter(|&j| kept.at(j) == key) {
                out.push(i, j, true);
                if first {
                    break;
                }
            }
        })
    }))
}

fn merge<'a, A, B, const FIRST: bool>(walked: A, kept: B) -> Matcher<'a>
where
    A: Walk<Cell: Default> + 'a,
    B: Cells<Cell = A::Cell> + 'a,
{
    Box::new(move |rows, sink| {
        let (m, mut j) = (kept.len(), 0);
        walk(walked, rows, sink, |i, key, out| {
            while j < m && kept.at(j) < key {
                j += 1;
            }
            if FIRST {
                out.push(i, j, j < m && kept.at(j) == key);
            } else {
                // The whole run of equal keys; `j` stays at its start,
                // since the next row may match the same run.
                let mut run = j;
                while run < m && kept.at(run) == key {
                    out.push(i, run, true);
                    run += 1;
                }
            }
        })
    })
}

/// Matches on their way to a sink, [`BATCH`] pairs at a time.
struct Out<'s> {
    at: [usize; BATCH],
    to: [usize; BATCH],
    n: usize,
    sink: &'s mut dyn FnMut(&[usize], &[usize]),
}

impl Out<'_> {
    /// Record the match `(i, j)` if `hit`. The pair is written either way
    /// and only counted on a hit, so a `hit` that cannot be predicted
    /// costs no branch.
    #[inline(always)]
    fn push(&mut self, i: usize, j: usize, hit: bool) {
        (self.at[self.n], self.to[self.n]) = (i, j);
        self.n += usize::from(hit);
        if self.n == BATCH {
            (self.sink)(&self.at, &self.to);
            self.n = 0;
        }
    }
}

/// `f(i, key, out)` for each of `rows` in order — its position and its
/// cell, read [`BATCH`] rows at a time into a block on the stack — with
/// `out` handing the matches it pushes to `sink`.
#[inline(always)]
fn walk<A: Walk<Cell: Default>>(
    walked: A,
    rows: Batch<'_>,
    sink: &mut dyn FnMut(&[usize], &[usize]),
    mut f: impl FnMut(usize, A::Cell, &mut Out),
) {
    let (mut keys, out) =
        ([A::Cell::default(); BATCH], &mut Out { at: [0; BATCH], to: [0; BATCH], n: 0, sink });
    match rows {
        Batch::Range(lo, hi) => {
            for from in (lo..hi).step_by(BATCH) {
                let end = hi.min(from + BATCH);
                walked.read(Batch::Range(from, end), &mut keys);
                keys[..end - from].iter().enumerate().for_each(|(k, &key)| f(from + k, key, out));
            }
        }
        Batch::Rows(rows) => {
            for rows in rows.chunks(BATCH) {
                walked.read(Batch::Rows(rows), &mut keys);
                rows.iter().zip(&keys).for_each(|(&i, &key)| f(i, key, out));
            }
        }
    }
    if out.n > 0 {
        (out.sink)(&out.at[..out.n], &out.to[..out.n]);
    }
}
