//! Mutation kernels — the storage primitives behind SQL `INSERT`,
//! `UPDATE` and `DELETE` (the paper's §6.4 "space for updates": the
//! fragment owner rewrites its authoritative copy and bumps the
//! version; stale copies keep circulating for readers that accept
//! them).
//!
//! The predicate language ([`RowPredicate`]) mirrors the SQL subset's
//! single-table WHERE conjuncts. Predicates travel to the fragment
//! owner *logically* and are evaluated there against the authoritative
//! payload — never as pre-computed row ids, which would be stale the
//! moment a concurrent mutation shifted the rows.
//!
//! A [`Mutation`] is that logical statement, and it has one binary form
//! ([`Mutation::encode`]): the ring carries it to the owner in it and the
//! owner's WAL logs it in it. [`stage`] is what the owner runs — live,
//! and again when recovery replays the log — so both compute the same
//! columns from the same statement.

use crate::bat::Bat;
use crate::column::Column;
use crate::error::{BatError, Result};
use crate::ops::cells::with_cells;
use crate::ops::scan::{scan, Pred};
use crate::ops::CmpOp;
use crate::storage;
use crate::value::Val;
use crate::wire::{put_f64, put_i32, put_i64, put_str16, put_u16, put_u64, Reader};
use std::sync::Arc;

/// What a [`Mutation`] does to the table.
#[derive(Clone, Debug, PartialEq)]
pub enum MutOp {
    /// `INSERT`: append the new rows, given per column name. Takes no
    /// predicates.
    Insert(Vec<(String, Column)>),
    /// `UPDATE`: write each `(column, value)` assignment into the
    /// matching rows.
    Update(Vec<(String, Val)>),
    /// `DELETE`: remove the matching rows from every column in lockstep.
    Delete,
}

/// A SQL `INSERT`/`UPDATE`/`DELETE` in its logical form: the table, the
/// operation and the WHERE conjuncts.
#[derive(Clone, Debug, PartialEq)]
pub struct Mutation {
    pub schema: String,
    pub table: String,
    pub op: MutOp,
    pub preds: Vec<RowPredicate>,
}

/// A mutation evaluated against a table but not applied: how many rows
/// it matched (an INSERT: added) and, for every column it rewrites, the
/// column's position in the table and its new payload (an UPDATE or
/// DELETE that matched nothing rewrites none).
#[derive(Debug)]
pub struct Staged {
    pub matched: usize,
    pub columns: Vec<(usize, Bat)>,
}

/// Evaluate `op` under `preds` against the table whose columns are
/// `cols` (name and payload, in the table's order) and build every
/// rewritten column, touching none. The assignments are checked even
/// when no row matches — every column exists, none is assigned twice
/// (which value won would depend on the order of application), and each
/// accepts its value — so a statement that can never apply fails the
/// same way on an empty table as on a full one.
///
/// An INSERT takes no predicates and must give every column of the
/// table exactly once, all with one row count; it extends every column
/// (values coerce into the column type as [`Bat::extend_tail`] allows)
/// and "matches" the rows it adds.
pub fn stage(cols: &[(&str, Arc<Bat>)], op: &MutOp, preds: &[RowPredicate]) -> Result<Staged> {
    let assigns: Option<Vec<(usize, &Val)>> = match op {
        MutOp::Insert(given) => return stage_insert(cols, given, preds),
        MutOp::Update(assigns) => {
            if assigns.is_empty() {
                return Err(BatError::Invalid("UPDATE needs at least one assignment".into()));
            }
            let mut targets: Vec<(usize, &Val)> = Vec::with_capacity(assigns.len());
            for (name, v) in assigns {
                let i = cols
                    .iter()
                    .position(|(n, _)| n == name)
                    .ok_or_else(|| BatError::NotFound(format!("column '{name}'")))?;
                if targets.iter().any(|&(t, _)| t == i) {
                    return Err(BatError::Invalid(format!("column '{name}' assigned twice")));
                }
                Column::empty(cols[i].1.tail_type()).push(v)?;
                targets.push((i, v));
            }
            Some(targets)
        }
        MutOp::Delete => None,
    };
    let row_count = cols.first().map_or(0, |(_, b)| b.count());
    let lookup = |name: &str| cols.iter().find(|(n, _)| *n == name).map(|(_, b)| Arc::clone(b));
    let rows = matching_rows(&lookup, row_count, preds)?;
    if rows.is_empty() {
        return Ok(Staged { matched: 0, columns: Vec::new() });
    }
    let columns = match assigns {
        Some(assigns) => assigns
            .into_iter()
            .map(|(i, v)| Ok((i, scatter_const(&cols[i].1, &rows, v)?)))
            .collect::<Result<_>>()?,
        None => (0..cols.len())
            .map(|i| Ok((i, erase_rows(&cols[i].1, &rows)?)))
            .collect::<Result<_>>()?,
    };
    Ok(Staged { matched: rows.len(), columns })
}

/// [`stage`] for an INSERT of `given` (column name, new values).
fn stage_insert(
    cols: &[(&str, Arc<Bat>)],
    given: &[(String, Column)],
    preds: &[RowPredicate],
) -> Result<Staged> {
    if !preds.is_empty() {
        return Err(BatError::Invalid("INSERT takes no predicates".into()));
    }
    if given.len() != cols.len() {
        return Err(BatError::Invalid(format!(
            "INSERT must cover all {} columns, got {}",
            cols.len(),
            given.len()
        )));
    }
    let added = given.first().map_or(0, |(_, vals)| vals.len());
    let mut columns = Vec::with_capacity(cols.len());
    for (i, (name, bat)) in cols.iter().enumerate() {
        // As many names as columns, so a column missing here means
        // another was given twice or is not the table's.
        let (_, vals) = given.iter().find(|(n, _)| n == name).ok_or_else(|| {
            BatError::Invalid(format!("INSERT must cover every column, '{name}' is missing"))
        })?;
        if vals.len() != added {
            return Err(BatError::LengthMismatch { left: vals.len(), right: added });
        }
        columns.push((i, bat.extend_tail(vals)?));
    }
    Ok(Staged { matched: added, columns })
}

/// One WHERE conjunct as it travels to the fragment owner.
#[derive(Clone, Debug, PartialEq)]
pub enum RowPredicate {
    /// `column op literal`.
    Cmp { column: String, op: CmpOp, value: Val },
    /// `column BETWEEN lo AND hi` (inclusive).
    Between { column: String, lo: Val, hi: Val },
    /// `column IN (v1, v2, …)`.
    InList { column: String, values: Vec<Val> },
}

impl RowPredicate {
    /// The column the predicate filters on.
    pub fn column(&self) -> &str {
        match self {
            RowPredicate::Cmp { column, .. }
            | RowPredicate::Between { column, .. }
            | RowPredicate::InList { column, .. } => column,
        }
    }
}

impl RowPredicate {
    pub(crate) fn pred(&self) -> Pred<'_> {
        match self {
            RowPredicate::Cmp { op, value, .. } => Pred::Cmp(*op, value),
            RowPredicate::Between { lo, hi, .. } => Pred::Between(lo, hi),
            RowPredicate::InList { values, .. } => Pred::In(values),
        }
    }
}

/// Row positions (ascending) satisfying the conjunction of `preds` over
/// the table's columns, resolved through `lookup`. With no predicates,
/// every row matches. Each predicate is one pass of the typed scan (the
/// selections' core) over its column: a literal the column's type cannot
/// be compared with fails loudly, whatever the rows hold.
pub fn matching_rows(
    lookup: &dyn Fn(&str) -> Option<Arc<Bat>>,
    row_count: usize,
    preds: &[RowPredicate],
) -> Result<Vec<usize>> {
    let mut rows: Option<Vec<usize>> = None;
    for p in preds {
        let bat = lookup(p.column())
            .ok_or_else(|| BatError::NotFound(format!("column '{}'", p.column())))?;
        if bat.count() != row_count {
            return Err(BatError::LengthMismatch { left: bat.count(), right: row_count });
        }
        if matches!(p, RowPredicate::InList { values, .. } if values.is_empty()) {
            return Err(BatError::Invalid("IN list must not be empty".into()));
        }
        let (col, pred) = (bat.tail(), p.pred());
        let (ty, mut hits) = (col.col_type(), Vec::new());
        with_cells!(col, |vals| {
            scan(vals, ty, &pred, &mut |rows, _| hits.extend_from_slice(rows))
        })?;
        // Both lists ascend: keep the earlier conjuncts' rows this one
        // matched too.
        if let Some(rows) = &rows {
            let mut earlier = rows.iter().copied().peekable();
            hits.retain(|&i| {
                while earlier.next_if(|&j| j < i).is_some() {}
                earlier.peek() == Some(&i)
            });
        }
        rows = Some(hits);
    }
    Ok(rows.unwrap_or_else(|| (0..row_count).collect()))
}

/// The void-head sequence of a persistent column BAT; mutation targets
/// must be dense (the storage shape `extend_tail` also requires).
fn dense_seq(b: &Bat) -> Result<u64> {
    match b.head() {
        Column::Void { seq, .. } => Ok(*seq),
        other => Err(BatError::Invalid(format!(
            "selective mutation needs a dense (void-head) BAT, got {} head",
            other.col_type()
        ))),
    }
}

/// A new BAT with `v` written at each position in `rows` (any order,
/// duplicates allowed; every position is bounds-checked) and every
/// other BUN untouched — the UPDATE kernel. The value coerces into the
/// column type exactly as INSERT appends do.
pub fn scatter_const(b: &Bat, rows: &[usize], v: &Val) -> Result<Bat> {
    let seq = dense_seq(b)?;
    let mut hit = vec![false; b.count()];
    for &r in rows {
        if r >= b.count() {
            return Err(BatError::Invalid(format!(
                "row {r} out of range for a {}-row BAT",
                b.count()
            )));
        }
        hit[r] = true;
    }
    if let Column::Void { .. } = b.tail() {
        return Err(BatError::Invalid("a void tail holds no constant".into()));
    }
    // The constant joins the column as one more row, coerced by the
    // rules INSERT appends follow; each hit then reads that row instead
    // of its own.
    let n = b.count();
    let mut with_new = b.tail().clone();
    with_new.push(v)?;
    let tail = with_new.gather_iter((0..n).map(|i| if hit[i] { n } else { i }));
    Ok(Bat::dense_from(seq, tail.settled()))
}

/// A new BAT with the BUNs at `rows` (any order, duplicates allowed)
/// removed and the void head kept dense — the DELETE kernel.
pub fn erase_rows(b: &Bat, rows: &[usize]) -> Result<Bat> {
    let seq = dense_seq(b)?;
    let mut drop = vec![false; b.count()];
    for &r in rows {
        if r >= b.count() {
            return Err(BatError::Invalid(format!(
                "row {r} out of range for a {}-row BAT",
                b.count()
            )));
        }
        drop[r] = true;
    }
    let keep: Vec<usize> = (0..b.count()).filter(|&i| !drop[i]).collect();
    Ok(Bat::dense_from(seq, b.tail().gather(&keep).settled()))
}

// ---- codec ---------------------------------------------------------------
//
// Little-endian; strings, assignment, column, predicate and IN-list
// counts are `u16`-prefixed: schema, table, op tag (1 = update: count,
// then `(name, value)` pairs; 2 = delete; 3 = insert: count, then per
// column its name, a `u32` byte length and the values as a dense BAT in
// `storage`'s format), predicate count, predicates.

const OP_UPDATE: u8 = 1;
const OP_DELETE: u8 = 2;
const OP_INSERT: u8 = 3;

const VAL_NIL: u8 = 0;
const VAL_OID: u8 = 1;
const VAL_INT: u8 = 2;
const VAL_LNG: u8 = 3;
const VAL_DBL: u8 = 4;
const VAL_STR: u8 = 5;
const VAL_BOOL: u8 = 6;
const VAL_DATE: u8 = 7;

const PRED_CMP: u8 = 1;
const PRED_BETWEEN: u8 = 2;
const PRED_IN: u8 = 3;

const MAX_FIELD: usize = u16::MAX as usize;

/// A count in its `u16` field. A longer list is cut rather than framed
/// corruptly, as [`put_str16`] cuts a string; [`Mutation::check_encodable`]
/// is what keeps either from getting here.
fn count(n: usize) -> u16 {
    n.min(MAX_FIELD) as u16
}

fn put_val(out: &mut Vec<u8>, v: &Val) {
    out.push(match v {
        Val::Nil => VAL_NIL,
        Val::Oid(_) => VAL_OID,
        Val::Int(_) => VAL_INT,
        Val::Lng(_) => VAL_LNG,
        Val::Dbl(_) => VAL_DBL,
        Val::Str(_) => VAL_STR,
        Val::Bool(_) => VAL_BOOL,
        Val::Date(_) => VAL_DATE,
    });
    match v {
        Val::Nil => {}
        Val::Oid(x) => put_u64(out, *x),
        Val::Int(x) | Val::Date(x) => put_i32(out, *x),
        Val::Lng(x) => put_i64(out, *x),
        Val::Dbl(x) => put_f64(out, *x),
        Val::Str(s) => put_str16(out, s),
        Val::Bool(x) => out.push(u8::from(*x)),
    }
}

fn put_pred(out: &mut Vec<u8>, p: &RowPredicate) {
    out.push(match p {
        RowPredicate::Cmp { .. } => PRED_CMP,
        RowPredicate::Between { .. } => PRED_BETWEEN,
        RowPredicate::InList { .. } => PRED_IN,
    });
    put_str16(out, p.column());
    match p {
        RowPredicate::Cmp { op, value, .. } => {
            put_str16(out, op.symbol());
            put_val(out, value);
        }
        RowPredicate::Between { lo, hi, .. } => {
            put_val(out, lo);
            put_val(out, hi);
        }
        RowPredicate::InList { values, .. } => {
            put_u16(out, count(values.len()));
            values.iter().take(MAX_FIELD).for_each(|v| put_val(out, v));
        }
    }
}

fn read_val(r: &mut Reader) -> std::result::Result<Val, String> {
    Ok(match r.u8("value tag")? {
        VAL_NIL => Val::Nil,
        VAL_OID => Val::Oid(r.u64("value")?),
        VAL_INT => Val::Int(r.i32("value")?),
        VAL_LNG => Val::Lng(r.i64("value")?),
        VAL_DBL => Val::Dbl(r.f64("value")?),
        VAL_STR => Val::Str(r.str16("string")?),
        VAL_BOOL => Val::Bool(r.u8("value")? != 0),
        VAL_DATE => Val::Date(r.i32("value")?),
        other => return Err(format!("unknown value tag {other}")),
    })
}

fn read_pred(r: &mut Reader) -> std::result::Result<RowPredicate, String> {
    let tag = r.u8("predicate tag")?;
    let column = r.str16("predicate column")?;
    Ok(match tag {
        PRED_CMP => {
            let sym = r.str16("comparison")?;
            let op = CmpOp::from_symbol(&sym).ok_or_else(|| format!("bad op '{sym}'"))?;
            RowPredicate::Cmp { column, op, value: read_val(r)? }
        }
        PRED_BETWEEN => RowPredicate::Between { column, lo: read_val(r)?, hi: read_val(r)? },
        PRED_IN => {
            let n = r.u16("in-list count")?;
            let values = (0..n).map(|_| read_val(r)).collect::<std::result::Result<_, _>>()?;
            RowPredicate::InList { column, values }
        }
        other => return Err(format!("unknown predicate tag {other}")),
    })
}

impl Mutation {
    /// Append the mutation's binary form to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        put_str16(out, &self.schema);
        put_str16(out, &self.table);
        match &self.op {
            MutOp::Update(assigns) => {
                out.push(OP_UPDATE);
                put_u16(out, count(assigns.len()));
                for (name, v) in assigns.iter().take(MAX_FIELD) {
                    put_str16(out, name);
                    put_val(out, v);
                }
            }
            MutOp::Delete => out.push(OP_DELETE),
            MutOp::Insert(given) => {
                out.push(OP_INSERT);
                put_u16(out, count(given.len()));
                for (name, vals) in given.iter().take(MAX_FIELD) {
                    put_str16(out, name);
                    // The length goes in front once the BAT is written.
                    let at = out.len();
                    out.extend_from_slice(&[0; 4]);
                    storage::write_dense(out, vals).expect("Vec<u8> writes are infallible");
                    let len = (out.len() - at - 4) as u32;
                    out[at..at + 4].copy_from_slice(&len.to_le_bytes());
                }
            }
        }
        put_u16(out, count(self.preds.len()));
        self.preds.iter().take(MAX_FIELD).for_each(|p| put_pred(out, p));
    }

    /// Read one mutation off the front of `buf`, advancing it; rejects a
    /// truncated or malformed encoding without allocating what its counts
    /// claim.
    pub fn decode(buf: &mut &[u8]) -> std::result::Result<Mutation, String> {
        let mut r = Reader::new(buf);
        let schema = r.str16("schema")?;
        let table = r.str16("table")?;
        let op = match r.u8("mutation op")? {
            OP_UPDATE => {
                let n = r.u16("assignment count")?;
                let assign = |r: &mut Reader| Ok((r.str16("column")?, read_val(r)?));
                MutOp::Update(
                    (0..n).map(|_| assign(&mut r)).collect::<std::result::Result<_, String>>()?,
                )
            }
            OP_DELETE => MutOp::Delete,
            OP_INSERT => {
                let n = r.u16("column count")?;
                let column = |r: &mut Reader| {
                    let name = r.str16("column name")?;
                    let len = r.u32("column length")? as usize;
                    let bat = storage::bat_from_bytes(r.bytes(len, "column")?)
                        .map_err(|e| format!("column '{name}': {e}"))?;
                    Ok((name, bat.tail().clone()))
                };
                MutOp::Insert(
                    (0..n).map(|_| column(&mut r)).collect::<std::result::Result<_, String>>()?,
                )
            }
            other => return Err(format!("unknown mutation op tag {other}")),
        };
        let n = r.u16("predicate count")?;
        let preds = (0..n).map(|_| read_pred(&mut r)).collect::<std::result::Result<_, _>>()?;
        *buf = r.rest();
        Ok(Mutation { schema, table, op, preds })
    }

    /// Whether every count and string fits its `u16` field (an INSERT's
    /// values travel as BATs, which have no such field). A statement
    /// that does not must be refused before it is routed or logged: a
    /// truncated WHERE conjunct would *widen* the match, and a truncated
    /// literal would write another value.
    pub fn check_encodable(&self) -> std::result::Result<(), String> {
        let too_long = |what: &str, n: usize| {
            Err(format!("mutation too large to encode: {what} of {n} (max {MAX_FIELD})"))
        };
        let mut strings: Vec<&str> = vec![&self.schema, &self.table];
        let mut vals: Vec<&Val> = Vec::new();
        match &self.op {
            MutOp::Update(assigns) => {
                if assigns.len() > MAX_FIELD {
                    return too_long("assignment list", assigns.len());
                }
                for (name, v) in assigns {
                    strings.push(name);
                    vals.push(v);
                }
            }
            MutOp::Insert(given) => {
                if given.len() > MAX_FIELD {
                    return too_long("column list", given.len());
                }
                strings.extend(given.iter().map(|(name, _)| name.as_str()));
            }
            MutOp::Delete => {}
        }
        if self.preds.len() > MAX_FIELD {
            return too_long("predicate list", self.preds.len());
        }
        for p in &self.preds {
            strings.push(p.column());
            match p {
                RowPredicate::Cmp { value, .. } => vals.push(value),
                RowPredicate::Between { lo, hi, .. } => vals.extend([lo, hi]),
                RowPredicate::InList { values, .. } => {
                    if values.len() > MAX_FIELD {
                        return too_long("IN list", values.len());
                    }
                    vals.extend(values);
                }
            }
        }
        strings.extend(vals.into_iter().filter_map(|v| match v {
            Val::Str(s) => Some(s.as_str()),
            _ => None,
        }));
        match strings.into_iter().find(|s| s.len() > MAX_FIELD) {
            Some(s) => too_long("string", s.len()),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> (Arc<Bat>, Arc<Bat>) {
        let k = Arc::new(Bat::dense(Column::from(vec![1, 2, 3, 4])));
        let v = Arc::new(Bat::dense(Column::from(vec!["a", "b", "c", "d"])));
        (k, v)
    }

    fn lookup(k: &Arc<Bat>, v: &Arc<Bat>) -> impl Fn(&str) -> Option<Arc<Bat>> {
        let (k, v) = (Arc::clone(k), Arc::clone(v));
        move |name: &str| match name {
            "k" => Some(Arc::clone(&k)),
            "v" => Some(Arc::clone(&v)),
            _ => None,
        }
    }

    #[test]
    fn cmp_between_in_conjunction() {
        let (k, v) = table();
        let l = lookup(&k, &v);
        let rows = matching_rows(
            &l,
            4,
            &[RowPredicate::Cmp { column: "k".into(), op: CmpOp::Ge, value: Val::Int(2) }],
        )
        .unwrap();
        assert_eq!(rows, vec![1, 2, 3]);
        let rows = matching_rows(
            &l,
            4,
            &[
                RowPredicate::Between { column: "k".into(), lo: Val::Int(2), hi: Val::Int(3) },
                RowPredicate::InList {
                    column: "v".into(),
                    values: vec![Val::from("c"), Val::from("d")],
                },
            ],
        )
        .unwrap();
        assert_eq!(rows, vec![2]);
        // No predicates: every row.
        assert_eq!(matching_rows(&l, 4, &[]).unwrap(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn unknown_column_and_bad_types_rejected() {
        let (k, v) = table();
        let l = lookup(&k, &v);
        let miss = matching_rows(
            &l,
            4,
            &[RowPredicate::Cmp { column: "ghost".into(), op: CmpOp::Eq, value: Val::Int(1) }],
        );
        assert!(miss.is_err());
        let bad = matching_rows(
            &l,
            4,
            &[RowPredicate::Cmp { column: "k".into(), op: CmpOp::Eq, value: Val::from("x") }],
        );
        assert!(bad.is_err(), "incomparable literal must fail, not match nothing");
        let empty_in =
            matching_rows(&l, 4, &[RowPredicate::InList { column: "k".into(), values: vec![] }]);
        assert!(empty_in.is_err());
    }

    #[test]
    fn a_bigint_key_above_2_pow_53_matches_only_itself() {
        let big = 1i64 << 53;
        let ids = Arc::new(Bat::dense(Column::from(vec![big, big + 1, big + 2])));
        let lookup = |name: &str| (name == "id").then(|| Arc::clone(&ids));
        let rows = |p: RowPredicate| matching_rows(&lookup, 3, &[p]).unwrap();
        let column = || "id".to_string();
        assert_eq!(
            rows(RowPredicate::Cmp { column: column(), op: CmpOp::Eq, value: Val::Lng(big + 1) }),
            vec![1]
        );
        assert_eq!(
            rows(RowPredicate::InList { column: column(), values: vec![Val::Lng(big + 1)] }),
            vec![1]
        );
        assert_eq!(
            rows(RowPredicate::Between {
                column: column(),
                lo: Val::Lng(big + 1),
                hi: Val::Lng(big + 2)
            }),
            vec![1, 2]
        );
    }

    #[test]
    fn scatter_writes_only_selected_rows() {
        let (k, _) = table();
        let out = scatter_const(&k, &[1, 3], &Val::Int(99)).unwrap();
        let tails: Vec<Val> = (0..4).map(|i| out.bun(i).1).collect();
        assert_eq!(tails, vec![Val::Int(1), Val::Int(99), Val::Int(3), Val::Int(99)]);
        assert_eq!(k.bun(1).1, Val::Int(2), "original untouched");
        // Coercion follows INSERT rules (Int literal into a Lng column).
        let l = Bat::dense(Column::from(vec![10i64, 20]));
        let out = scatter_const(&l, &[0], &Val::Int(5)).unwrap();
        assert_eq!(out.bun(0).1, Val::Lng(5));
        // Type mismatch and range errors are loud.
        assert!(scatter_const(&k, &[0], &Val::from("oops")).is_err());
        assert!(scatter_const(&k, &[9], &Val::Int(1)).is_err());
        // Unsorted and duplicated positions behave identically to the
        // sorted unique list — and out-of-range errs regardless of
        // position in the list.
        let out = scatter_const(&k, &[3, 1, 3], &Val::Int(99)).unwrap();
        let tails: Vec<Val> = (0..4).map(|i| out.bun(i).1).collect();
        assert_eq!(tails, vec![Val::Int(1), Val::Int(99), Val::Int(3), Val::Int(99)]);
        assert!(scatter_const(&k, &[9, 0], &Val::Int(1)).is_err());
    }

    #[test]
    fn writes_out_of_a_narrow_columns_reach_widen_it_and_never_wrap() {
        let narrow = Arc::new(Bat::dense(Column::from(vec![10i64, 20, 30])));
        assert_eq!(narrow.byte_size(), 3, "one byte a row");
        let cols = [("v", Arc::clone(&narrow))];
        let values = |b: &Bat| b.tail().iter_vals().collect::<Vec<_>>();
        for (x, size) in [(i64::MAX, 3 * 8), (i64::MIN, 3 * 8), (10 + 300, 3 * 2), (25, 3)] {
            let set = MutOp::Update(vec![("v".into(), Val::Lng(x))]);
            let at_20 =
                [RowPredicate::Cmp { column: "v".into(), op: CmpOp::Eq, value: Val::Int(20) }];
            let staged = stage(&cols, &set, &at_20).unwrap();
            let out = &staged.columns[0].1;
            assert_eq!(values(out), [Val::Lng(10), Val::Lng(x), Val::Lng(30)], "UPDATE to {x}");
            assert_eq!(out.byte_size(), size, "UPDATE to {x}");
            let add = MutOp::Insert(vec![("v".into(), Column::from(vec![x]))]);
            let out = &stage(&cols, &add, &[]).unwrap().columns[0].1;
            assert_eq!(values(out)[3], Val::Lng(x), "INSERT of {x}");
        }
        let far = -1i64 << 33;
        let out = narrow.extend_tail(&Column::from(vec![far, 0])).unwrap();
        assert_eq!(values(&out)[3..], [Val::Lng(far), Val::Lng(0)]);
        assert_eq!(out.byte_size(), 5 * 8, "a span past 2^32 stays plain");

        // An `int` column: `u8` and `u16` offsets, else plain.
        let narrow = Arc::new(Bat::dense(Column::from(vec![10, 20, 30])));
        let cols = [("v", Arc::clone(&narrow))];
        for (x, size) in [(i32::MAX, 3 * 4), (i32::MIN, 3 * 4), (10 + 300, 3 * 2), (25, 3)] {
            let set = MutOp::Update(vec![("v".into(), Val::Int(x))]);
            let at_20 =
                [RowPredicate::Cmp { column: "v".into(), op: CmpOp::Eq, value: Val::Int(20) }];
            let out = &stage(&cols, &set, &at_20).unwrap().columns[0].1;
            assert_eq!(values(out), [Val::Int(10), Val::Int(x), Val::Int(30)], "UPDATE to {x}");
            assert_eq!(out.byte_size(), size, "UPDATE to {x}");
            let add = MutOp::Insert(vec![("v".into(), Column::from(vec![x]))]);
            let out = &stage(&cols, &add, &[]).unwrap().columns[0].1;
            assert_eq!(values(out)[3], Val::Int(x), "INSERT of {x}");
        }
        let out = narrow.extend_tail(&Column::from(vec![10 + 65_536, 0])).unwrap();
        assert_eq!(values(&out)[3..], [Val::Int(65_546), Val::Int(0)]);
        assert_eq!(out.byte_size(), 5 * 4, "a span past 2^16 stays plain");
    }

    #[test]
    fn erase_keeps_dense_head() {
        let (_, v) = table();
        let out = erase_rows(&v, &[0, 2]).unwrap();
        assert_eq!(out.count(), 2);
        assert_eq!(out.bun(0), (Val::Oid(0), Val::from("b")));
        assert_eq!(out.bun(1), (Val::Oid(1), Val::from("d")));
        assert!(erase_rows(&v, &[4]).is_err());
        // Deleting everything leaves a typed empty BAT.
        let empty = erase_rows(&v, &[0, 1, 2, 3]).unwrap();
        assert_eq!(empty.count(), 0);
        assert_eq!(empty.tail_type(), crate::value::ColType::Str);
    }

    #[test]
    fn only_what_the_codec_can_hold_is_encodable() {
        let m = |op: MutOp, preds: Vec<RowPredicate>| Mutation {
            schema: "sys".into(),
            table: "t".into(),
            op,
            preds,
        };
        let wide = vec![Val::Int(1); u16::MAX as usize + 1];
        let long = Val::Str("x".repeat(u16::MAX as usize + 1));
        let in_list = |values| RowPredicate::InList { column: "k".into(), values };
        let column = |name: &str| (name.to_string(), Column::from(vec!["a", "é"]));
        let fits = [
            m(MutOp::Update(vec![("v".into(), Val::Int(1))]), vec![in_list(vec![Val::Int(1)])]),
            m(MutOp::Insert(vec![column("v"), ("k".into(), Column::from(vec![1, 2]))]), vec![]),
        ];
        let long_name = "x".repeat(u16::MAX as usize + 1);
        for too_big in [
            m(MutOp::Delete, vec![in_list(wide)]),
            m(MutOp::Update(vec![("v".into(), long.clone())]), vec![]),
            m(
                MutOp::Delete,
                vec![RowPredicate::Cmp { column: "k".into(), op: CmpOp::Eq, value: long }],
            ),
            m(MutOp::Insert(vec![column("v"); u16::MAX as usize + 1]), vec![]),
            m(MutOp::Insert(vec![column(&long_name)]), vec![]),
        ] {
            let err = too_big.check_encodable().unwrap_err();
            assert!(err.contains("too large"), "{err}");
        }
        // What fits round-trips, and decoding consumes exactly its bytes.
        for fits in fits {
            assert!(fits.check_encodable().is_ok());
            let mut buf = Vec::new();
            fits.encode(&mut buf);
            buf.push(0xAB);
            let mut rest = &buf[..];
            assert_eq!(Mutation::decode(&mut rest).unwrap(), fits);
            assert_eq!(rest, [0xAB]);
        }
    }

    #[test]
    fn non_dense_heads_rejected() {
        let keyed = Bat::new(Column::from(vec![5u64, 6]), Column::from(vec![1, 2])).unwrap();
        assert!(scatter_const(&keyed, &[0], &Val::Int(9)).is_err());
        assert!(erase_rows(&keyed, &[0]).is_err());
    }
}
