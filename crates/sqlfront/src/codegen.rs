//! SQL → MAL code generation, in the paper's Table-1 idiom.
//!
//! The plan shape for the paper's running example
//! `select c.t_id from t, c where c.t_id = t.id` is:
//!
//! ```text
//! X1 := sql.bind("sys","t","id",0);
//! X2 := sql.bind("sys","c","t_id",0);
//! X3 := bat.reverse(X2);
//! X4 := algebra.join(X1, X3);        -- (t.oid → c.oid)
//! X5 := algebra.markT(X4, 0@0);      -- renumber into result rows
//! X6 := bat.reverse(X5);
//! X7 := algebra.join(X6, X1);        -- (res → value)
//! X8 := sql.resultSet(1, 1, X7);
//! sql.rsCol(X8, …, X7);
//! X9 := io.stdout();
//! sql.exportResult(X9, X8);
//! ```
//!
//! Internally the generator maintains, per table alias, a *row map*
//! `(result-row → table-oid)` BAT and composes it as joins accumulate.
//! Single-table predicates are pushed down onto the bound columns before
//! any join (the "selection push-down" heuristic of §3.2).
//!
//! Aggregation is one instruction, whatever the statement's shape
//! (`compile_aggregates`): `aggr.scan` filters, groups and folds in one
//! pass over the bound columns, so a single-table aggregate is its binds,
//! that instruction, and the ORDER BY / LIMIT / result-set plumbing —
//! TPC-H Q1:
//!
//! ```text
//! X1 := sql.bind("sys","lineitem","l_shipdate",0);      -- … X2–X6
//! (X7,X8,X9,X10,X11,X12) := aggr.scan(X1, "cmp", X1, "<=", A0,
//!     "by", X2, X3, "sum", X4, "sum", X5, "avg", X6, "count*");
//! ```
//!
//! Over a join the same instruction scans the table the join chain adds
//! last, with its own predicates, and probes each batch of its rows into
//! a hash table over the rest of the chain — the *build side*, planned as
//! above for the other tables and projected to the join key and the
//! columns the statement reads from them. Keys and aggregates name a
//! scanned column directly and a build column by its number. TPC-H Q3,
//! lineitem scanned and probed into customer ⋈ orders:
//!
//! ```text
//! X1 := sql.bind("sys","customer","c_mktsegment",0);
//! X2 := algebra.uselect(X1, A0);
//! X3 := sql.bind("sys","orders","o_orderdate",0);
//! X4 := algebra.thetauselect(X3, A1, "<");
//! X6 := algebra.semijoin(X5, X2);        -- c_custkey, selected
//! X8 := algebra.semijoin(X7, X4);        -- o_custkey, selected
//! X9 := bat.reverse(X8);
//! X10 := algebra.join(X6, X9);
//! X11 := algebra.markH(X10, 0@0);        -- (res → orders oid)
//! X14 := algebra.join(X11, X13);         -- o_orderkey: the build key
//! X15 := algebra.join(X11, X3);          -- o_orderdate
//! X17 := algebra.join(X11, X16);         -- o_shippriority
//! (X20,X21,X22,X23) := aggr.scan(X12, "cmp", X18, ">", A2,
//!     "probe", X12, X14, X15, X17, "by", 0, 1, 2, "sum", X19);
//! ```
//!
//! No lineitem-length BAT is built: `l_orderkey` (X12), `l_shipdate`
//! (X18) and `l_extendedprice` (X19) are read by that instruction alone.
//! An aggregate without ORDER BY lists its groups as they first appear
//! over the scanned table's rows, and for one row in build order.
//! DISTINCT is the instruction with keys and no aggregate, over the
//! output columns.

use crate::ast::*;
use batstore::{Catalog, ColType, Val};
use mal::ast::{Arg, Const, Instr, Program, VarId};
use mal::{MalError, Result};
use std::collections::HashMap;

/// A statement that parsed but cannot be compiled against the catalog.
fn err(msg: impl Into<String>) -> MalError {
    MalError::Exec(msg.into())
}

struct Gen<'a> {
    prog: Program,
    next_var: usize,
    catalog: &'a Catalog,
}

impl<'a> Gen<'a> {
    fn fresh(&mut self) -> VarId {
        self.next_var += 1;
        let name = format!("X{}", self.next_var);
        self.prog.var(&name)
    }

    /// Emit `target := module.func(args)` and return the target.
    fn emit(&mut self, module: &str, func: &str, args: Vec<Arg>) -> VarId {
        let t = self.fresh();
        self.prog.push(Instr::assign(t, module, func, args));
        t
    }

    fn emit_void(&mut self, module: &str, func: &str, args: Vec<Arg>) {
        self.prog.push(Instr::call(module, func, args));
    }

    fn cstr(s: &str) -> Arg {
        Arg::Const(Const::Str(s.to_string()))
    }

    fn cint(v: i64) -> Arg {
        Arg::Const(Const::Int(v))
    }

    fn param(&mut self, lit: &Literal) -> Result<Arg> {
        param(&mut self.prog.params, lit)
    }
}

impl crate::StmtTemplate {
    /// What a cached plan of this shape is bound to so that it runs this
    /// statement: one constant per parameter slot.
    pub fn bindings(&self) -> Result<Vec<Const>> {
        self.literals.iter().map(literal_const).collect()
    }
}

/// The MAL constant a statement literal binds its parameter slot to.
/// Codegen (the slot's default binding) and a template hit
/// ([`crate::StmtTemplate::bindings`]) both convert through here.
fn literal_const(v: &Val) -> Result<Const> {
    Ok(match v {
        Val::Int(x) => Const::Int(*x as i64),
        Val::Lng(x) => Const::Int(*x),
        Val::Dbl(x) => Const::Dbl(*x),
        Val::Str(s) => Const::Str(s.clone()),
        Val::Bool(b) => Const::Int(*b as i64),
        Val::Oid(o) => Const::Oid(*o),
        other => return Err(err(format!("unsupported literal {other:?}"))),
    })
}

/// Every statement literal compiles to its parameter slot, never to a
/// baked-in constant: the literal's value becomes the slot's default
/// binding in `params` and nothing else about the plan may depend on it,
/// which is what lets one plan serve every statement of its shape.
/// Codegen does not visit literals in slot order (INSERT goes column by
/// column), hence the resize.
fn param(params: &mut Vec<Const>, lit: &Literal) -> Result<Arg> {
    let slot = lit.slot as usize;
    if params.len() <= slot {
        params.resize(slot + 1, Const::Nil);
    }
    params[slot] = literal_const(&lit.val)?;
    Ok(Arg::Param(lit.slot))
}

const SELF_COMPARISON: &str = "self-comparison within one table is not supported";

/// Per-table compile state.
struct TableState {
    tref: TableRef,
    /// Bound column BATs (cache): column name → var.
    bound: HashMap<String, VarId>,
    /// Conjunction of pushed-down selections: `(oid → val)` var, if any.
    selection: Option<VarId>,
    /// `(result-row → oid)` once the table is part of the join result.
    rowmap: Option<VarId>,
    /// Whether joining the table gives it a row map: always for a
    /// projection; over a join aggregate, only when something reads it.
    mapped: bool,
}

/// One join of the chain: `((joined table, its column), (new table, its
/// column))`, tables by index.
type JoinStep<'j> = ((usize, &'j str), (usize, &'j str));

struct Compiler<'a> {
    g: Gen<'a>,
    tables: Vec<TableState>,
}

impl<'a> Compiler<'a> {
    fn table_idx(&self, alias_or_none: &Option<String>, column: &str) -> Result<usize> {
        if let Some(alias) = alias_or_none {
            self.tables
                .iter()
                .position(|t| t.tref.alias == *alias || t.tref.table == *alias)
                .ok_or_else(|| err(format!("unknown table alias '{alias}'")))
        } else {
            // Resolve a bare column by searching the FROM tables.
            let mut found = None;
            for (i, t) in self.tables.iter().enumerate() {
                let def = self.g.catalog.table(&t.tref.schema, &t.tref.table)?;
                if def.column(column).is_some() {
                    if found.is_some() {
                        return Err(err(format!("ambiguous column '{column}'")));
                    }
                    found = Some(i);
                }
            }
            found.ok_or_else(|| err(format!("unknown column '{column}'")))
        }
    }

    fn column_type(&self, ti: usize, column: &str) -> Result<ColType> {
        let t = &self.tables[ti].tref;
        let def = self.g.catalog.table(&t.schema, &t.table)?;
        def.column(column)
            .map(|c| c.ty)
            .ok_or_else(|| err(format!("unknown column '{}.{}'", t.table, column)))
    }

    /// `sql.bind` a column (cached per table).
    fn bind(&mut self, ti: usize, column: &str) -> Result<VarId> {
        // Validate existence first for a clean error.
        self.column_type(ti, column)?;
        if let Some(&v) = self.tables[ti].bound.get(column) {
            return Ok(v);
        }
        let tref = self.tables[ti].tref.clone();
        let v = self.g.emit(
            "sql",
            "bind",
            vec![Gen::cstr(&tref.schema), Gen::cstr(&tref.table), Gen::cstr(column), Gen::cint(0)],
        );
        self.tables[ti].bound.insert(column.to_string(), v);
        Ok(v)
    }

    /// `sql.bind` the table's first declared column: any column tells how
    /// many rows the table has.
    fn bind_first(&mut self, ti: usize) -> Result<VarId> {
        let tref = &self.tables[ti].tref;
        let def = self.g.catalog.table(&tref.schema, &tref.table)?;
        let first = def
            .columns
            .first()
            .ok_or_else(|| err(format!("table '{}' has no columns", tref.table)))?
            .name
            .clone();
        self.bind(ti, &first)
    }

    /// Apply the table's accumulated selection to a bound column:
    /// `semijoin(col, sel)`.
    fn selected(&mut self, ti: usize, col: VarId) -> VarId {
        match self.tables[ti].selection {
            Some(sel) if sel != col => {
                self.g.emit("algebra", "semijoin", vec![Arg::Var(col), Arg::Var(sel)])
            }
            _ => col,
        }
    }

    /// Push one single-table predicate down onto its column.
    fn push_selection(&mut self, pred: &Predicate) -> Result<()> {
        let (colref, filtered) = match pred {
            Predicate::Cmp { col, op, lit } => {
                let ti = self.table_idx(&col.table, &col.column)?;
                let b = self.bind(ti, &col.column)?;
                let v = self.g.param(lit)?;
                let f = if op == "=" {
                    self.g.emit("algebra", "uselect", vec![Arg::Var(b), v])
                } else {
                    self.g.emit("algebra", "thetauselect", vec![Arg::Var(b), v, Gen::cstr(op)])
                };
                (col, f)
            }
            Predicate::Between { col, lo, hi } => {
                let ti = self.table_idx(&col.table, &col.column)?;
                let b = self.bind(ti, &col.column)?;
                let (lo, hi) = (self.g.param(lo)?, self.g.param(hi)?);
                let f = self.g.emit("algebra", "select", vec![Arg::Var(b), lo, hi]);
                (col, f)
            }
            Predicate::InList { col, vals } => {
                if vals.is_empty() {
                    return Err(err("IN list must not be empty"));
                }
                let ti = self.table_idx(&col.table, &col.column)?;
                let b = self.bind(ti, &col.column)?;
                // Union of equality selections (head-keyed kunion).
                let first = self.g.param(&vals[0])?;
                let mut acc = self.g.emit("algebra", "uselect", vec![Arg::Var(b), first]);
                for v in &vals[1..] {
                    let v = self.g.param(v)?;
                    let u = self.g.emit("algebra", "uselect", vec![Arg::Var(b), v]);
                    acc = self.g.emit("algebra", "kunion", vec![Arg::Var(acc), Arg::Var(u)]);
                }
                (col, acc)
            }
            Predicate::ColEq { .. } => return Ok(()), // handled as join
        };
        let ti = self.table_idx(&colref.table, &colref.column)?;
        let slot = &mut self.tables[ti].selection;
        *slot = Some(match *slot {
            None => filtered,
            Some(prev) => {
                self.g.emit("algebra", "semijoin", vec![Arg::Var(prev), Arg::Var(filtered)])
            }
        });
        Ok(())
    }

    /// Selection push-down, then the join result: afterwards every
    /// table has its row map.
    fn select_and_join(&mut self, q: &Query, joins: &[(ColRef, ColRef)]) -> Result<()> {
        for p in &q.predicates {
            self.push_selection(p)?;
        }
        self.build_joins(joins)
    }

    /// Build the join result, producing row maps for every table.
    fn build_joins(&mut self, joins: &[(ColRef, ColRef)]) -> Result<()> {
        if self.tables.len() == 1 {
            let ti = 0;
            let rowmap = match self.tables[ti].selection {
                Some(sel) => {
                    // (oid→val) → markT → (oid→res) → reverse → (res→oid)
                    let marked = self.g.emit(
                        "algebra",
                        "markT",
                        vec![Arg::Var(sel), Arg::Const(Const::Oid(0))],
                    );
                    self.g.emit("bat", "reverse", vec![Arg::Var(marked)])
                }
                None => {
                    // All rows: mirror of any column gives (oid→oid).
                    let b = self.bind_first(ti)?;
                    self.g.emit("bat", "mirror", vec![Arg::Var(b)])
                }
            };
            self.tables[ti].rowmap = Some(rowmap);
            return Ok(());
        }
        let steps = self.join_steps(joins)?;
        self.emit_joins(&steps)
    }

    /// The join chain in the order the join predicates give it, checked
    /// and nothing emitted: each step joins a new table (the second of
    /// its pair) on a column of one already joined. The first step's
    /// pair are both new; it joins its second table to its first.
    fn join_steps<'j>(&self, joins: &'j [(ColRef, ColRef)]) -> Result<Vec<JoinStep<'j>>> {
        if joins.is_empty() {
            return Err(err("cross products are not supported: add join predicates"));
        }
        let mut joined = vec![false; self.tables.len()];
        let mut steps = Vec::with_capacity(joins.len());
        for (lc, rc) in joins {
            let li = self.table_idx(&lc.table, &lc.column)?;
            let ri = self.table_idx(&rc.table, &rc.column)?;
            if li == ri {
                return Err(err(SELF_COMPARISON));
            }
            let step = match (joined[li], joined[ri]) {
                (false, false) if steps.is_empty() => ((li, &*lc.column), (ri, &*rc.column)),
                (false, false) => {
                    return Err(err(
                        "join predicates must connect to already-joined tables in order",
                    ));
                }
                (true, false) => ((li, &*lc.column), (ri, &*rc.column)),
                (false, true) => ((ri, &*rc.column), (li, &*lc.column)),
                (true, true) => return Err(err("cyclic join predicates are not supported")),
            };
            (joined[step.0 .0], joined[step.1 .0]) = (true, true);
            steps.push(step);
        }
        if let Some(t) = joined.iter().position(|&j| !j) {
            return Err(err(format!(
                "table '{}' is not connected by any join predicate",
                self.tables[t].tref.alias
            )));
        }
        Ok(steps)
    }

    /// Emit the join chain `steps`, giving a row map to each table it
    /// joins that is `mapped` (a table later steps join on must be).
    fn emit_joins(&mut self, steps: &[JoinStep]) -> Result<()> {
        for (k, &((ji, jcol), (ni, ncol))) in steps.iter().enumerate() {
            if k == 0 {
                self.first_join(ji, jcol, ni, ncol)?;
            } else {
                self.extend_join(ji, jcol, ni, ncol)?;
            }
        }
        Ok(())
    }

    /// First join: `(oidL → oidR)` pairs, then row maps via markT/markH.
    fn first_join(&mut self, li: usize, lcol: &str, ri: usize, rcol: &str) -> Result<()> {
        let lb = self.bind(li, lcol)?;
        let lb = self.selected(li, lb);
        let rb = self.bind(ri, rcol)?;
        let rb = self.selected(ri, rb);
        let rrev = self.g.emit("bat", "reverse", vec![Arg::Var(rb)]);
        let pairs = self.g.emit("algebra", "join", vec![Arg::Var(lb), Arg::Var(rrev)]);
        if self.tables[li].mapped {
            // (oidL→res) → reverse → (res→oidL)
            let lmark =
                self.g.emit("algebra", "markT", vec![Arg::Var(pairs), Arg::Const(Const::Oid(0))]);
            self.tables[li].rowmap = Some(self.g.emit("bat", "reverse", vec![Arg::Var(lmark)]));
        }
        if self.tables[ri].mapped {
            // (res→oidR)
            let rmap =
                self.g.emit("algebra", "markH", vec![Arg::Var(pairs), Arg::Const(Const::Oid(0))]);
            self.tables[ri].rowmap = Some(rmap);
        }
        Ok(())
    }

    /// Join an additional table `ni` onto the current result through
    /// `joined.jcol = new.ncol`; renumbers the result space and composes
    /// all existing row maps.
    fn extend_join(&mut self, ji: usize, jcol: &str, ni: usize, ncol: &str) -> Result<()> {
        let jmap = self.tables[ji].rowmap.expect("a table joined on has a row map");
        let jb = self.bind(ji, jcol)?;
        // (res→val) for the joined side.
        let jvals = self.g.emit("algebra", "join", vec![Arg::Var(jmap), Arg::Var(jb)]);
        let nb = self.bind(ni, ncol)?;
        let nb = self.selected(ni, nb);
        let nrev = self.g.emit("bat", "reverse", vec![Arg::Var(nb)]);
        // (res_old → oidN); rows of this BAT are the new result space.
        let pairs = self.g.emit("algebra", "join", vec![Arg::Var(jvals), Arg::Var(nrev)]);
        // (res_new → res_old) to recompose the existing row maps.
        let remark =
            self.g.emit("algebra", "markT", vec![Arg::Var(pairs), Arg::Const(Const::Oid(0))]);
        let old_of_new = self.g.emit("bat", "reverse", vec![Arg::Var(remark)]);
        for t in &mut self.tables {
            if let Some(m) = t.rowmap {
                t.rowmap = None;
                let composed =
                    self.g.emit("algebra", "join", vec![Arg::Var(old_of_new), Arg::Var(m)]);
                t.rowmap = Some(composed);
            }
        }
        if self.tables[ni].mapped {
            let nmap =
                self.g.emit("algebra", "markH", vec![Arg::Var(pairs), Arg::Const(Const::Oid(0))]);
            self.tables[ni].rowmap = Some(nmap);
        }
        Ok(())
    }

    fn label(&self, ti: usize) -> String {
        format!("{}.{}", self.tables[ti].tref.schema, self.tables[ti].tref.table)
    }

    /// A column reference resolved and bound: its table, the bound
    /// column and its type.
    fn bound(&mut self, col: &ColRef) -> Result<(usize, VarId, ColType)> {
        let ti = self.table_idx(&col.table, &col.column)?;
        let ty = self.column_type(ti, &col.column)?;
        Ok((ti, self.bind(ti, &col.column)?, ty))
    }

    /// `(res → value)` for an output column.
    fn project(&mut self, col: &ColRef) -> Result<(VarId, ColType, String)> {
        let (ti, b, ty) = self.bound(col)?;
        let rowmap = self.tables[ti].rowmap.expect("rowmaps built before projection");
        let v = self.g.emit("algebra", "join", vec![Arg::Var(rowmap), Arg::Var(b)]);
        Ok((v, ty, self.label(ti)))
    }

    /// A column of a probe stage's build side, aligned with its other
    /// columns: projected through the table's row map when the build side
    /// is a join, else the table's selection of it.
    fn build_column(&mut self, ti: usize, column: &str) -> Result<VarId> {
        let b = self.bind(ti, column)?;
        Ok(match self.tables[ti].rowmap {
            Some(rowmap) => self.g.emit("algebra", "join", vec![Arg::Var(rowmap), Arg::Var(b)]),
            None => self.selected(ti, b),
        })
    }
}

/// The hash-probe stage of an aggregate over a join: the scanned table's
/// join column, then the build side's key and the build columns the keys
/// and aggregates read, which they name by position.
struct ProbeStage {
    key: VarId,
    /// `(table, column)` of each build column, the build key first.
    names: Vec<(usize, String)>,
    columns: Vec<VarId>,
}

impl ProbeStage {
    /// The operand naming build column `(ti, column)`.
    fn operand(&self, ti: usize, column: &str) -> Arg {
        let at = self.names.iter().position(|(t, name)| (*t, name.as_str()) == (ti, column));
        Gen::cint(at.expect("every build column read is projected") as i64)
    }
}

/// One output column of the final result set.
struct OutCol {
    var: VarId,
    table_label: String,
    name: String,
    sql_type: &'static str,
}

/// Compile a parsed query against the catalog.
pub fn compile(q: &Query, catalog: &Catalog) -> Result<Program> {
    if q.select.is_empty() {
        return Err(err("empty select list"));
    }
    // `dc.*` system views never touch the catalog: they lower to one
    // `sql.sysview` sink that materializes live node telemetry.
    if q.from.iter().any(|t| t.schema == "dc") {
        return compile_sysview(q);
    }
    for t in &q.from {
        catalog
            .table(&t.schema, &t.table)
            .map_err(|e| err(format!("unknown table {}.{}: {e}", t.schema, t.table)))?;
    }
    let expanded;
    let q = if q.select.iter().any(|s| matches!(s, SelectItem::Star)) {
        expanded = expand_stars(q, catalog)?;
        &expanded
    } else {
        q
    };

    let gen = Gen { prog: Program::new("user", "s1_1"), next_var: 0, catalog };
    let mut c = Compiler {
        g: gen,
        tables: q
            .from
            .iter()
            .map(|t| TableState {
                tref: t.clone(),
                bound: HashMap::new(),
                selection: None,
                rowmap: None,
                mapped: true,
            })
            .collect(),
    };

    let joins: Vec<(ColRef, ColRef)> = q
        .predicates
        .iter()
        .filter_map(|p| match p {
            Predicate::ColEq { left, right } => Some((left.clone(), right.clone())),
            _ => None,
        })
        .collect();

    if c.tables.len() == 1 && !joins.is_empty() {
        return Err(err(SELF_COMPARISON));
    }

    let mut outs: Vec<OutCol> = Vec::new();
    if q.has_aggregates() {
        compile_aggregates(&mut c, q, &joins, &mut outs)?;
    } else {
        if !q.group_by.is_empty() {
            return Err(err("GROUP BY requires aggregates in the select list"));
        }
        c.select_and_join(q, &joins)?;
        for item in &q.select {
            match item {
                SelectItem::Col(col) => {
                    let (v, ty, label) = c.project(col)?;
                    outs.push(OutCol {
                        var: v,
                        table_label: label,
                        name: col.column.clone(),
                        sql_type: ty.name(),
                    });
                }
                SelectItem::Agg { .. } => unreachable!(),
                SelectItem::Star => unreachable!("stars expanded before codegen"),
            }
        }
    }

    if q.distinct {
        apply_distinct(&mut c, &mut outs);
    }

    // ORDER BY / LIMIT.
    apply_order_limit(&mut c, q, &mut outs)?;

    // Result set plumbing, exactly as the paper prints it.
    let first = outs.first().expect("non-empty select");
    let rs = c.g.emit(
        "sql",
        "resultSet",
        vec![Gen::cint(outs.len() as i64), Gen::cint(1), Arg::Var(first.var)],
    );
    for o in &outs {
        c.g.emit_void(
            "sql",
            "rsCol",
            vec![
                Arg::Var(rs),
                Gen::cstr(&o.table_label),
                Gen::cstr(&o.name),
                Gen::cstr(o.sql_type),
                Gen::cint(32),
                Gen::cint(0),
                Arg::Var(o.var),
            ],
        );
    }
    let stream = c.g.emit("io", "stdout", vec![]);
    c.g.emit_void("sql", "exportResult", vec![Arg::Var(stream), Arg::Var(rs)]);

    Ok(c.g.prog)
}

fn agg_result_type(f: AggFn, input: ColType) -> &'static str {
    match f {
        AggFn::Count => "lng",
        AggFn::Avg => "dbl",
        AggFn::Sum if input == ColType::Dbl => "dbl",
        AggFn::Sum => "lng",
        AggFn::Min | AggFn::Max => input.name(),
    }
}

/// SELECT DISTINCT, after any aggregation: one keys-only `aggr.scan`
/// over the output columns, which keeps each distinct row once, in the
/// order it first appears.
fn apply_distinct(c: &mut Compiler, outs: &mut [OutCol]) {
    let mut args = vec![Arg::Var(outs[0].var), Gen::cstr("by")];
    args.extend(outs.iter().map(|o| Arg::Var(o.var)));
    let mut targets = Vec::with_capacity(outs.len());
    for o in outs.iter_mut() {
        o.var = c.g.fresh();
        targets.push(o.var);
    }
    c.g.prog.push(Instr { targets, module: "aggr".into(), func: "scan".into(), args });
}

/// The build side of an aggregate over the join chain `steps`, whose last
/// step adds the scanned table: the chain before that step, emitted as a
/// projection's join would be (with the other tables' selections already
/// pushed down), with row maps only for the tables the statement reads or
/// a later step joins on; and the last step's join column on either side.
fn probe_stage(c: &mut Compiler, q: &Query, steps: &[JoinStep]) -> Result<ProbeStage> {
    let (&((bi, bcol), (si, scol)), chain) = steps.split_last().expect("a join has a step");
    let folded = q.select.iter().filter_map(|item| match item {
        SelectItem::Agg { f, col: Some(col) } if *f != AggFn::Count => Some(col),
        _ => None,
    });
    let mut names = vec![(bi, bcol.to_string())];
    for col in q.group_by.iter().chain(folded) {
        let name = (c.table_idx(&col.table, &col.column)?, col.column.clone());
        if name.0 != si && !names.contains(&name) {
            names.push(name);
        }
    }
    for (ti, t) in c.tables.iter_mut().enumerate() {
        let joined_on = chain.iter().skip(1).any(|&((ji, _), _)| ji == ti);
        t.mapped = joined_on || names.iter().any(|&(read, _)| read == ti);
    }
    c.emit_joins(chain)?;
    let key = c.bind(si, scol)?;
    let columns = names.iter().map(|(ti, name)| c.build_column(*ti, name));
    let columns = columns.collect::<Result<_>>()?;
    Ok(ProbeStage { key, names, columns })
}

/// Every aggregating SELECT ends in one `aggr.scan`: the conjunction of
/// the scanned table's predicates, the GROUP BY keys (none: one group)
/// and the aggregates, evaluated in one pass over its bound columns. Over
/// a join the scanned table is the one the join chain adds last, and the
/// instruction's probe stage joins each batch of its qualifying rows to
/// the build side ([`probe_stage`]) — so no column of the scanned
/// table's length is built besides its own.
fn compile_aggregates(
    c: &mut Compiler,
    q: &Query,
    joins: &[(ColRef, ColRef)],
    outs: &mut Vec<OutCol>,
) -> Result<()> {
    for item in &q.select {
        match item {
            SelectItem::Col(col) if !q.group_by.iter().any(|k| k.column == col.column) => {
                return Err(err(format!("column '{}' must appear in GROUP BY", col.column)))
            }
            SelectItem::Agg { f, col: None } if *f != AggFn::Count => {
                return Err(err(format!("{}(*) is not supported", f.name())))
            }
            SelectItem::Star => return Err(err("SELECT * cannot be mixed with aggregates")),
            _ => {}
        }
    }

    // The scanned table: the only one, or over a join the one the chain
    // adds last. Its predicates go into the instruction; the others' are
    // pushed down into the build side.
    let steps = if c.tables.len() > 1 { c.join_steps(joins)? } else { Vec::new() };
    let scanned = steps.last().map_or(0, |&(_, (ti, _))| ti);
    let mut preds = Vec::new();
    for p in &q.predicates {
        let Some(col) = p.column() else { continue };
        if c.table_idx(&col.table, &col.column)? == scanned {
            preds.push(p.clone());
        } else {
            c.push_selection(p)?;
        }
    }
    let probe = if steps.is_empty() { None } else { Some(probe_stage(c, q, &steps)?) };
    let mut bound = Vec::with_capacity(preds.len());
    for p in &preds {
        bound.push(Arg::Var(c.bound(p.column().expect("a filter has a column"))?.1));
    }
    let mut args = Vec::new();
    push_pred_args(&mut args, &mut c.g.prog.params, &preds, bound)?;
    if let Some(stage) = &probe {
        args.extend([Gen::cstr("probe"), Arg::Var(stage.key)]);
        args.extend(stage.columns.iter().copied().map(Arg::Var));
    }
    // A key or aggregate column: the scanned table's own, or a build one.
    let operand = |c: &mut Compiler, col: &ColRef| -> Result<(Arg, ColType, String)> {
        let (ti, b, ty) = c.bound(col)?;
        let arg = match &probe {
            Some(stage) if ti != scanned => stage.operand(ti, &col.column),
            _ => Arg::Var(b),
        };
        Ok((arg, ty, c.label(ti)))
    };

    if !q.group_by.is_empty() {
        args.push(Gen::cstr("by"));
    }
    let mut keys = Vec::with_capacity(q.group_by.len());
    for key in &q.group_by {
        let (arg, ty, label) = operand(c, key)?;
        args.push(arg);
        keys.push((ty, label));
    }
    // Name and result type of each aggregate, in select-list order.
    let mut aggs = Vec::new();
    for item in &q.select {
        match item {
            // Without NULLs every row counts, whatever column is named
            // (which must exist all the same).
            SelectItem::Agg { f: AggFn::Count, col } => {
                let name = match col {
                    Some(col) => {
                        let ti = c.table_idx(&col.table, &col.column)?;
                        c.column_type(ti, &col.column)?;
                        format!("count_{}", col.column)
                    }
                    None => "count".to_string(),
                };
                args.push(Gen::cstr("count*"));
                aggs.push((name, "lng"));
            }
            SelectItem::Agg { f, col } => {
                let col = col.as_ref().expect("checked above");
                let (arg, ty, _) = operand(c, col)?;
                args.extend([Gen::cstr(f.name()), arg]);
                aggs.push((format!("{}_{}", f.name(), col.column), agg_result_type(*f, ty)));
            }
            _ => {}
        }
    }
    // The first operand gives the row count: the scanned table's join
    // column, or the first column the statement reads anyway, or (for a
    // bare `count(*)`) its first column.
    let read = args.iter().find_map(|a| match a {
        Arg::Var(v) => Some(*v),
        _ => None,
    });
    let rows = match (&probe, read) {
        (Some(stage), _) => stage.key,
        (None, Some(v)) => v,
        (None, None) => c.bind_first(0)?,
    };
    args.insert(0, Arg::Var(rows));

    // One target per key, then one per aggregate; the select list picks
    // among them in its own order.
    let targets: Vec<VarId> = (0..keys.len() + aggs.len()).map(|_| c.g.fresh()).collect();
    let mut aggs = aggs.into_iter().zip(&targets[keys.len()..]);
    for item in &q.select {
        outs.push(match item {
            SelectItem::Col(col) => {
                let at = q.group_by.iter().position(|k| k.column == col.column);
                let at = at.expect("checked above");
                OutCol {
                    var: targets[at],
                    table_label: keys[at].1.clone(),
                    name: col.column.clone(),
                    sql_type: keys[at].0.name(),
                }
            }
            _ => {
                let ((name, sql_type), &var) = aggs.next().expect("one per aggregate item");
                OutCol { var, table_label: "sys".into(), name, sql_type }
            }
        });
    }
    c.g.prog.push(Instr { targets, module: "aggr".into(), func: "scan".into(), args });
    Ok(())
}

fn apply_order_limit(c: &mut Compiler, q: &Query, outs: &mut [OutCol]) -> Result<()> {
    if let Some(order) = &q.order_by {
        // The sort key must be one of the produced output columns.
        let key_pos = outs.iter().position(|o| o.name == order.col.column).ok_or_else(|| {
            err(format!("ORDER BY column '{}' not in select list", order.col.column))
        })?;
        let sort_fn = if order.descending { "sortReverseTail" } else { "sortTail" };
        let sorted = c.g.emit("algebra", sort_fn, vec![Arg::Var(outs[key_pos].var)]);
        // (newpos → oldpos): reverse(markT(sorted)).
        let marked =
            c.g.emit("algebra", "markT", vec![Arg::Var(sorted), Arg::Const(Const::Oid(0))]);
        let perm = c.g.emit("bat", "reverse", vec![Arg::Var(marked)]);
        for o in outs.iter_mut() {
            o.var = c.g.emit("algebra", "join", vec![Arg::Var(perm), Arg::Var(o.var)]);
        }
    }
    if let Some(n) = q.limit {
        // `slice` bounds are inclusive: `limit 0` is `[0, -1]`, the empty
        // range, as MonetDB writes it.
        let hi = i64::try_from(n).unwrap_or(i64::MAX) - 1;
        for o in outs.iter_mut() {
            o.var =
                c.g.emit("algebra", "slice", vec![Arg::Var(o.var), Gen::cint(0), Gen::cint(hi)]);
        }
    }
    Ok(())
}

/// Replace every bare `*` with the columns of every FROM table in
/// declared order (resolved against the catalog).
fn expand_stars(q: &Query, catalog: &Catalog) -> Result<Query> {
    if q.has_aggregates() {
        return Err(err("SELECT * cannot be mixed with aggregates"));
    }
    let mut out = q.clone();
    out.select = Vec::with_capacity(q.select.len());
    for item in &q.select {
        match item {
            SelectItem::Star => {
                for t in &q.from {
                    let def = catalog
                        .table(&t.schema, &t.table)
                        .map_err(|e| err(format!("unknown table {}.{}: {e}", t.schema, t.table)))?;
                    for col in &def.columns {
                        out.select.push(SelectItem::Col(ColRef {
                            table: Some(t.alias.clone()),
                            column: col.name.clone(),
                        }));
                    }
                }
            }
            other => out.select.push(other.clone()),
        }
    }
    Ok(out)
}

/// The `dc.*` system views and their column lists, in declared order.
/// Must match `RingHooks::sys_view` exactly.
const DC_VIEWS: [(&str, &[&str]); 4] = [
    ("stats", &["name", "value"]),
    ("latency", &["name", "count", "p50_us", "p95_us", "p99_us", "max_us"]),
    ("trace", &["ts_us", "node", "epoch", "stmt", "event", "detail"]),
    ("hotset", &["bat", "table", "state", "loi", "version", "size_bytes"]),
];

/// Lower `SELECT … FROM dc.<view>` to one `sql.sysview(view, proj)` sink.
fn compile_sysview(q: &Query) -> Result<Program> {
    if q.from.len() != 1 || q.from.iter().any(|t| t.schema != "dc") {
        return Err(err("dc.* system views cannot be joined with other tables"));
    }
    let t = &q.from[0];
    let Some((_, cols)) = DC_VIEWS.iter().find(|(name, _)| *name == t.table) else {
        return Err(err(format!(
            "unknown system view dc.{} (have: stats, latency, trace, hotset)",
            t.table
        )));
    };
    if !q.predicates.is_empty()
        || !q.group_by.is_empty()
        || q.order_by.is_some()
        || q.limit.is_some()
        || q.distinct
        || q.has_aggregates()
    {
        return Err(err(format!(
            "dc.{} supports only plain projection \
             (no WHERE/GROUP BY/ORDER BY/LIMIT/DISTINCT/aggregates)",
            t.table
        )));
    }
    let proj = if q.select.iter().any(|s| matches!(s, SelectItem::Star)) {
        if q.select.len() != 1 {
            return Err(err("'*' must be the only select item on a dc.* view"));
        }
        "*".to_string()
    } else {
        let mut names = Vec::with_capacity(q.select.len());
        for item in &q.select {
            let SelectItem::Col(c) = item else {
                unreachable!("aggregates rejected above");
            };
            if let Some(alias) = &c.table {
                if *alias != t.alias {
                    return Err(err(format!("unknown table alias '{alias}'")));
                }
            }
            if !cols.contains(&c.column.as_str()) {
                return Err(err(format!("dc.{} has no column '{}'", t.table, c.column)));
            }
            names.push(c.column.clone());
        }
        names.join(",")
    };
    let mut prog = Program::new("user", "s1_1");
    prog.push(Instr::call("sql", "sysview", vec![Gen::cstr(&t.table), Gen::cstr(&proj)]));
    Ok(prog)
}

/// Compile any parsed statement against the catalog.
pub fn compile_stmt(stmt: &Stmt, catalog: &Catalog) -> Result<Program> {
    match stmt {
        Stmt::Select(q) => compile(q, catalog),
        Stmt::CreateTable(c) => compile_create(c),
        Stmt::Insert(i) => compile_insert(i, catalog),
        Stmt::Update(u) => compile_update(u, catalog),
        Stmt::Delete(d) => compile_delete(d, catalog),
    }
}

/// `CREATE TABLE` lowers to one `sql.createTable` call; existence is
/// checked where the statement executes (on a ring, at the owner node).
fn compile_create(c: &CreateStmt) -> Result<Program> {
    let mut prog = Program::new("user", "s1_1");
    let spec: Vec<String> = c.cols.iter().map(|(n, t)| format!("{n}:{}", t.name())).collect();
    prog.push(Instr::call(
        "sql",
        "createTable",
        vec![Gen::cstr(&c.schema), Gen::cstr(&c.table), Gen::cstr(&spec.join(","))],
    ));
    Ok(prog)
}

/// `INSERT` builds one dense row-batch BAT per column — a single
/// `bat.literal` call carrying the declared column type and all the
/// column's values — and hands the whole batch to one `sql.append`
/// call, which routes it through the Data Cyclotron seam to the
/// fragment owners.
fn compile_insert(i: &InsertStmt, catalog: &Catalog) -> Result<Program> {
    let def = catalog
        .table(&i.schema, &i.table)
        .map_err(|e| err(format!("unknown table {}.{}: {e}", i.schema, i.table)))?;
    if i.rows.is_empty() {
        return Err(err("INSERT needs at least one row"));
    }
    // Position of each table column inside the VALUES tuples.
    let positions: Vec<usize> = match &i.columns {
        None => {
            if i.rows[0].len() != def.columns.len() {
                return Err(err(format!(
                    "row has {} values but {}.{} has {} columns",
                    i.rows[0].len(),
                    i.schema,
                    i.table,
                    def.columns.len()
                )));
            }
            (0..def.columns.len()).collect()
        }
        Some(listed) => {
            if listed.len() != def.columns.len() {
                return Err(err(format!(
                    "INSERT must list all {} columns of {}.{}",
                    def.columns.len(),
                    i.schema,
                    i.table
                )));
            }
            def.columns
                .iter()
                .map(|c| {
                    listed
                        .iter()
                        .position(|n| *n == c.name)
                        .ok_or_else(|| err(format!("column '{}' missing from INSERT list", c.name)))
                })
                .collect::<Result<_>>()?
        }
    };

    let mut g = Gen { prog: Program::new("user", "s1_1"), next_var: 0, catalog };
    let mut batch_vars = Vec::with_capacity(def.columns.len());
    for (col, &pos) in def.columns.iter().zip(&positions) {
        let mut args = Vec::with_capacity(i.rows.len() + 1);
        args.push(Gen::cstr(col.ty.name()));
        for row in &i.rows {
            args.push(g.param(&row[pos])?);
        }
        batch_vars.push(g.emit("bat", "literal", args));
    }
    let names: Vec<&str> = def.columns.iter().map(|c| c.name.as_str()).collect();
    let mut args = vec![Gen::cstr(&i.schema), Gen::cstr(&i.table), Gen::cstr(&names.join(","))];
    args.extend(batch_vars.into_iter().map(Arg::Var));
    g.emit_void("sql", "append", args);
    Ok(g.prog)
}

/// Append the flat predicate encoding `sql.update`/`sql.delete`/
/// `aggr.scan` expect: `"cmp", col, op, lit` / `"between", col, lo, hi` /
/// `"in", col, n, v…`, with `columns` — one per predicate, validated by
/// the caller — in column position: the name for a mutation, which
/// travels as *logical* predicates the fragment owner evaluates against
/// its authoritative payload (§6.4), never against row ids computed from a
/// possibly stale circulating copy; the bound column for `aggr.scan`.
fn push_pred_args(
    args: &mut Vec<Arg>,
    params: &mut Vec<Const>,
    preds: &[Predicate],
    columns: Vec<Arg>,
) -> Result<()> {
    for (p, column) in preds.iter().zip(columns) {
        match p {
            Predicate::Cmp { op, lit, .. } => {
                args.extend([Gen::cstr("cmp"), column, Gen::cstr(op), param(params, lit)?]);
            }
            Predicate::Between { lo, hi, .. } => {
                let (lo, hi) = (param(params, lo)?, param(params, hi)?);
                args.extend([Gen::cstr("between"), column, lo, hi]);
            }
            Predicate::InList { vals, .. } => {
                if vals.is_empty() {
                    return Err(err("IN list must not be empty"));
                }
                args.extend([Gen::cstr("in"), column, Gen::cint(vals.len() as i64)]);
                for v in vals {
                    args.push(param(params, v)?);
                }
            }
            Predicate::ColEq { .. } => unreachable!("has no column: refused by the caller"),
        }
    }
    Ok(())
}

/// The WHERE columns of an UPDATE/DELETE, by name, each checked against
/// the table.
fn mutation_columns(preds: &[Predicate], def: &batstore::TableDef) -> Result<Vec<Arg>> {
    preds
        .iter()
        .map(|p| {
            let Some(c) = p.column() else {
                let Predicate::ColEq { left, right } = p else { unreachable!("has a column") };
                return Err(err(format!(
                    "column-to-column predicates are not supported in UPDATE/DELETE \
                     ({}.{} = {}.{})",
                    left.table.as_deref().unwrap_or(""),
                    left.column,
                    right.table.as_deref().unwrap_or(""),
                    right.column
                )));
            };
            if let Some(alias) = &c.table {
                if *alias != def.name {
                    return Err(err(format!("unknown table alias '{alias}'")));
                }
            }
            if def.column(&c.column).is_none() {
                return Err(err(format!("unknown column '{}.{}'", def.name, c.column)));
            }
            Ok(Gen::cstr(&c.column))
        })
        .collect()
}

/// `UPDATE` lowers to one `sql.update` sink carrying the assignments and
/// the WHERE conjunction; the seam routes it to the fragment owner.
fn compile_update(u: &UpdateStmt, catalog: &Catalog) -> Result<Program> {
    let def = catalog
        .table(&u.schema, &u.table)
        .map_err(|e| err(format!("unknown table {}.{}: {e}", u.schema, u.table)))?;
    if u.assignments.is_empty() {
        return Err(err("UPDATE needs at least one assignment"));
    }
    let mut names = Vec::with_capacity(u.assignments.len());
    for (name, _) in &u.assignments {
        if def.column(name).is_none() {
            return Err(err(format!("unknown column '{}.{}'", u.table, name)));
        }
        if names.contains(&name.as_str()) {
            return Err(err(format!("column '{name}' assigned twice")));
        }
        names.push(name.as_str());
    }
    let mut args = vec![Gen::cstr(&u.schema), Gen::cstr(&u.table), Gen::cstr(&names.join(","))];
    let mut prog = Program::new("user", "s1_1");
    for (_, v) in &u.assignments {
        args.push(param(&mut prog.params, v)?);
    }
    let columns = mutation_columns(&u.predicates, def)?;
    push_pred_args(&mut args, &mut prog.params, &u.predicates, columns)?;
    prog.push(Instr::call("sql", "update", args));
    Ok(prog)
}

/// `DELETE` lowers to one `sql.delete` sink carrying the WHERE
/// conjunction (empty means every row).
fn compile_delete(d: &DeleteStmt, catalog: &Catalog) -> Result<Program> {
    let def = catalog
        .table(&d.schema, &d.table)
        .map_err(|e| err(format!("unknown table {}.{}: {e}", d.schema, d.table)))?;
    let mut args = vec![Gen::cstr(&d.schema), Gen::cstr(&d.table)];
    let mut prog = Program::new("user", "s1_1");
    let columns = mutation_columns(&d.predicates, def)?;
    push_pred_args(&mut args, &mut prog.params, &d.predicates, columns)?;
    prog.push(Instr::call("sql", "delete", args));
    Ok(prog)
}

/// Parse and compile one statement (SELECT, CREATE TABLE, INSERT,
/// UPDATE, or DELETE) in one step.
pub fn compile_sql(sql: &str, catalog: &Catalog) -> Result<Program> {
    let stmt = crate::parser::parse_stmt(sql)?;
    compile_stmt(&stmt, catalog)
}

#[cfg(test)]
mod tests {
    use super::*;
    use batstore::{BatStore, Column};
    use mal::{run_sequential, SessionCtx};
    use parking_lot::RwLock;
    use std::sync::Arc;

    fn setup() -> (Catalog, Arc<RwLock<BatStore>>) {
        let mut catalog = Catalog::new();
        let mut store = BatStore::new();
        catalog
            .create_table_columnar(
                &mut store,
                "sys",
                "t",
                vec![("id", Column::from(vec![1, 2, 3]))],
            )
            .unwrap();
        catalog
            .create_table_columnar(
                &mut store,
                "sys",
                "c",
                vec![
                    ("t_id", Column::from(vec![2, 2, 3, 9])),
                    ("amount", Column::from(vec![10, 20, 30, 40])),
                ],
            )
            .unwrap();
        catalog
            .create_table_columnar(
                &mut store,
                "sys",
                "sales",
                vec![
                    ("region", Column::from(vec!["eu", "us", "eu", "ap", "us"])),
                    ("amount", Column::from(vec![5, 7, 11, 13, 17])),
                ],
            )
            .unwrap();
        (catalog, Arc::new(RwLock::new(store)))
    }

    fn run(sql: &str) -> String {
        let (catalog, store) = setup();
        let prog = compile_sql(sql, &catalog).unwrap_or_else(|e| panic!("{sql}: {e}"));
        let ctx = SessionCtx::new(Arc::new(RwLock::new(catalog)), store);
        run_sequential(&prog, &ctx).unwrap_or_else(|e| panic!("{sql}:\n{prog}\n{e}"));
        ctx.take_output()
    }

    #[test]
    fn paper_example_results() {
        let out = run("select c.t_id from t, c where c.t_id = t.id");
        assert_eq!(out.matches("[ 2 ]").count(), 2, "{out}");
        assert_eq!(out.matches("[ 3 ]").count(), 1, "{out}");
        assert!(!out.contains("[ 9 ]"), "{out}");
    }

    #[test]
    fn plan_uses_paper_idiom() {
        let (catalog, _) = setup();
        let prog = compile_sql("select c.t_id from t, c where c.t_id = t.id", &catalog).unwrap();
        let names: Vec<String> = prog.instrs.iter().map(|i| i.qualified_name()).collect();
        for needed in [
            "sql.bind",
            "bat.reverse",
            "algebra.join",
            "algebra.markT",
            "sql.resultSet",
            "sql.rsCol",
            "io.stdout",
            "sql.exportResult",
        ] {
            assert!(names.iter().any(|n| n == needed), "plan lacks {needed}:\n{prog}");
        }
    }

    #[test]
    fn single_table_filter() {
        let out = run("select amount from c where amount > 15");
        assert!(out.contains("[ 20 ]") && out.contains("[ 30 ]") && out.contains("[ 40 ]"));
        assert!(!out.contains("[ 10 ]"));
    }

    #[test]
    fn between_filter() {
        let out = run("select amount from c where amount between 15 and 35");
        assert!(out.contains("[ 20 ]") && out.contains("[ 30 ]"));
        assert!(!out.contains("[ 40 ]"));
    }

    #[test]
    fn two_filters_conjoined() {
        let out = run("select amount from c where amount > 15 and t_id = 3");
        assert_eq!(out.matches("[ 30 ]").count(), 1, "{out}");
        assert!(!out.contains("[ 20 ]"), "{out}");
    }

    #[test]
    fn projection_multiple_columns() {
        let out = run("select t_id, amount from c where amount >= 30");
        assert!(out.contains("[ 3,\t30 ]"), "{out}");
        assert!(out.contains("[ 9,\t40 ]"), "{out}");
    }

    #[test]
    fn join_with_filter_on_other_table() {
        let out = run("select c.amount from t, c where c.t_id = t.id and t.id >= 3");
        assert!(out.contains("[ 30 ]"), "{out}");
        assert!(!out.contains("[ 10 ]") && !out.contains("[ 20 ]"), "{out}");
    }

    #[test]
    fn count_star() {
        let out = run("select count(*) from c where amount > 5");
        assert!(out.contains("[ 4 ]"), "{out}");
    }

    #[test]
    fn whole_column_aggregates() {
        let out = run("select sum(amount), min(amount), max(amount), avg(amount) from c");
        assert!(out.contains("100") && out.contains("10") && out.contains("40"), "{out}");
        assert!(out.contains("25"), "avg: {out}");
    }

    #[test]
    fn group_by_with_aggregates() {
        let out =
            run("select region, sum(amount), count(*) from sales group by region order by region");
        // ap=13, eu=16, us=24; ordered ap, eu, us.
        let lines: Vec<&str> = out.lines().filter(|l| l.starts_with('[')).collect();
        assert_eq!(lines.len(), 3, "{out}");
        assert!(lines[0].contains("ap") && lines[0].contains("13"), "{out}");
        assert!(lines[1].contains("eu") && lines[1].contains("16"), "{out}");
        assert!(lines[2].contains("us") && lines[2].contains("24"), "{out}");
    }

    /// Regression: the grouped-aggregation chain must refine correctly
    /// for one, two, and three grouping keys (group.subgroup composes
    /// the group ids; a bad composition collapses or splits groups).
    #[test]
    fn group_by_one_two_three_keys() {
        let mut catalog = Catalog::new();
        let mut store = BatStore::new();
        catalog
            .create_table_columnar(
                &mut store,
                "sys",
                "g",
                vec![
                    ("a", Column::from(vec!["x", "x", "x", "y", "y", "y"])),
                    ("b", Column::from(vec![1, 1, 2, 2, 2, 2])),
                    ("c", Column::from(vec![7, 8, 7, 7, 7, 8])),
                    ("v", Column::from(vec![1, 2, 4, 8, 16, 32])),
                ],
            )
            .unwrap();
        let store = Arc::new(RwLock::new(store));
        let catalog = Arc::new(RwLock::new(catalog));
        let exec = |sql: &str| -> Vec<String> {
            let prog = compile_sql(sql, &catalog.read()).unwrap_or_else(|e| panic!("{sql}: {e}"));
            let ctx = SessionCtx::new(Arc::clone(&catalog), Arc::clone(&store));
            run_sequential(&prog, &ctx).unwrap_or_else(|e| panic!("{sql}:\n{prog}\n{e}"));
            ctx.take_output().lines().filter(|l| l.starts_with('[')).map(String::from).collect()
        };

        // 1 key: x → 1+2+4, y → 8+16+32.
        let rows = exec("select a, sum(v), count(*) from g group by a order by a");
        assert_eq!(rows, vec!["[ \"x\",\t7,\t3 ]", "[ \"y\",\t56,\t3 ]"]);

        // 2 keys: (x,1)=3, (x,2)=4, (y,2)=56.
        let rows = exec("select a, b, sum(v) from g group by a, b order by a");
        assert_eq!(rows.len(), 3, "{rows:?}");
        assert!(rows.contains(&"[ \"x\",\t1,\t3 ]".to_string()), "{rows:?}");
        assert!(rows.contains(&"[ \"x\",\t2,\t4 ]".to_string()), "{rows:?}");
        assert!(rows.contains(&"[ \"y\",\t2,\t56 ]".to_string()), "{rows:?}");

        // 3 keys: (x,1,7)=1, (x,1,8)=2, (x,2,7)=4, (y,2,7)=24, (y,2,8)=32.
        let rows = exec("select a, b, c, sum(v), count(*) from g group by a, b, c order by a");
        assert_eq!(rows.len(), 5, "{rows:?}");
        assert!(rows.contains(&"[ \"x\",\t1,\t7,\t1,\t1 ]".to_string()), "{rows:?}");
        assert!(rows.contains(&"[ \"x\",\t1,\t8,\t2,\t1 ]".to_string()), "{rows:?}");
        assert!(rows.contains(&"[ \"x\",\t2,\t7,\t4,\t1 ]".to_string()), "{rows:?}");
        assert!(rows.contains(&"[ \"y\",\t2,\t7,\t24,\t2 ]".to_string()), "{rows:?}");
        assert!(rows.contains(&"[ \"y\",\t2,\t8,\t32,\t1 ]".to_string()), "{rows:?}");
    }

    #[test]
    fn order_by_desc_and_limit() {
        let out = run("select amount from c order by amount desc limit 2");
        let lines: Vec<&str> = out.lines().filter(|l| l.starts_with('[')).collect();
        assert_eq!(lines, vec!["[ 40 ]", "[ 30 ]"], "{out}");
    }

    /// The typed result of `sql` over the `setup()` tables, run through
    /// CSE and the DC optimizer as a node runs it.
    fn result(sql: &str) -> mal::Result<batstore::ResultSet> {
        let (catalog, store) = setup();
        let prog = crate::compile_sql_dc(sql, &catalog).unwrap_or_else(|e| panic!("{sql}: {e}"));
        let ctx = SessionCtx::new(Arc::new(RwLock::new(catalog)), store);
        mal::run_sequential(&prog, &ctx)?;
        Ok(ctx.take_result())
    }

    #[test]
    fn limit_zero_answers_no_rows_and_keeps_the_columns() {
        for sql in [
            "select t_id, amount from c limit 0",
            "select t_id, amount from c order by amount desc limit 0",
            "select t_id, amount from c where amount > 1000 limit 0",
        ] {
            let rs = result(sql).unwrap();
            assert_eq!((rs.row_count(), rs.column_count()), (0, 2), "{sql}");
            assert_eq!(rs.columns[1].name, "amount", "{sql}");
            assert_eq!(rs.columns[1].col_type(), ColType::Int, "{sql}");
        }
        let rs = result("select region, sum(amount) from sales group by region limit 0").unwrap();
        assert_eq!((rs.row_count(), rs.columns[1].col_type()), (0, ColType::Lng));
        // One more than nothing is one row, and a limit beyond the table all of it.
        assert_eq!(result("select amount from c limit 1").unwrap().row_count(), 1);
        assert_eq!(result("select amount from c limit 99").unwrap().row_count(), 4);
    }

    #[test]
    fn aggregates_over_zero_rows() {
        // What has a value over nothing answers it: one row of zeros.
        let rs = result("select count(*), sum(amount), count(amount) from c where amount > 100");
        let rs = rs.unwrap();
        assert_eq!(rs.row_count(), 1);
        assert_eq!([rs.cell(0, 0), rs.cell(0, 1), rs.cell(0, 2)], [0, 0, 0].map(Val::Lng));
        // What would be NULL is an error that says so, naming the aggregate.
        for f in ["avg", "min", "max"] {
            let e = result(&format!("select count(*), {f}(amount) from c where amount > 100"));
            let e = e.unwrap_err();
            assert!(matches!(e, mal::MalError::Bat(batstore::BatError::Invalid(_))), "{e:?}");
            let why = format!("{f} over zero rows is NULL, which this engine cannot represent");
            assert!(e.to_string().contains(&why), "{e}");
        }
        // A grouped aggregate over nothing has no group to answer for.
        let rs = result(
            "select region, avg(amount), min(amount), count(*) from sales \
             where amount > 100 group by region",
        )
        .unwrap();
        assert_eq!((rs.row_count(), rs.column_count()), (0, 4));
        let types: Vec<ColType> = rs.columns.iter().map(|c| c.col_type()).collect();
        assert_eq!(types, [ColType::Str, ColType::Dbl, ColType::Int, ColType::Lng]);
        // Over an empty join result too.
        let rs =
            result("select count(*), sum(c.amount) from t, c where c.t_id = t.id and t.id > 7");
        let rs = rs.unwrap();
        assert_eq!([rs.cell(0, 0), rs.cell(0, 1)], [Val::Lng(0), Val::Lng(0)]);
    }

    #[test]
    fn every_aggregation_is_one_fused_instruction() {
        let (catalog, _) = setup();
        let calls = |sql: &str| -> Vec<String> {
            let prog = compile_sql(sql, &catalog).unwrap_or_else(|e| panic!("{sql}: {e}"));
            prog.instrs.iter().map(|i| i.qualified_name()).collect()
        };
        let single_table = [
            "select count(*) from c",
            "select count(*), sum(amount) from c where amount > 5 and t_id in (2, 3)",
            "select sum(amount), min(amount), max(amount), avg(amount) from c",
            "select region, sum(amount), count(*) from sales group by region order by region",
            "select sum(amount), region, amount from sales where amount between 1 and 20 \
             group by region, amount order by region limit 2",
        ];
        for sql in single_table {
            let calls = calls(sql);
            assert_eq!(calls.iter().filter(|c| *c == "aggr.scan").count(), 1, "{sql}: {calls:?}");
            // Binds, the fused instruction, then ORDER BY / LIMIT and
            // the result set: no selection, candidate list, projection,
            // grouping or packing of its own.
            let fused = calls.iter().position(|c| c == "aggr.scan").unwrap();
            assert!(calls[..fused].iter().all(|c| c == "sql.bind"), "{sql}: {calls:?}");
            for gone in ["group.", "bat.pack", "bat.mirror", "algebra.semijoin", "For"] {
                assert!(!calls.iter().any(|c| c.contains(gone)), "{sql}: {gone} in {calls:?}");
            }
        }
        // Over a join the other table's selection stays, and the same one
        // instruction probes the table the join adds last (`t`) into it:
        // nothing else reads a column of `t`, and the plan is shorter than
        // the 19 instructions that joined first and aggregated the join's
        // projected columns.
        let sql = "select t.id, sum(c.amount), count(*) from t, c \
                   where c.t_id = t.id and c.amount > 5 group by t.id";
        let calls = calls(sql);
        assert_eq!(calls.iter().filter(|c| *c == "aggr.scan").count(), 1, "{calls:?}");
        assert!(calls.iter().any(|c| c == "algebra.thetauselect"), "{calls:?}");
        assert!(!calls.iter().any(|c| c.starts_with("group.") || c.ends_with("For")), "{calls:?}");
        assert!(calls.len() < 19, "{calls:?}");
        let prog = compile_sql(sql, &catalog).unwrap();
        let probed = prog
            .instrs
            .iter()
            .find(|i| i.is("sql", "bind") && i.args[1] == Gen::cstr("t"))
            .map(|i| Arg::Var(i.targets[0]))
            .expect("t is bound");
        for i in prog.instrs.iter().filter(|i| i.args.contains(&probed)) {
            assert!(i.is("aggr", "scan"), "{} reads t.id:\n{prog}", i.qualified_name());
        }
        // Every literal of the fused instruction is a parameter slot, in
        // token order.
        let prog = compile_sql(single_table[4], &catalog).unwrap();
        let fused = prog.instrs.iter().find(|i| i.is("aggr", "scan")).unwrap();
        let slots: Vec<u32> = fused
            .args
            .iter()
            .filter_map(|a| if let Arg::Param(slot) = a { Some(*slot) } else { None })
            .collect();
        assert_eq!(slots, [0, 1]);
        assert_eq!(fused.targets.len(), 3, "two keys and one aggregate");
    }

    #[test]
    fn three_way_join() {
        // t ⋈ c ⋈ sales via amounts equality: c.amount vs sales.amount
        // shares no values, so expect an empty result, but the plan must
        // compile and run.
        let out = run(
            "select sales.region from t, c, sales where c.t_id = t.id and c.amount = sales.amount",
        );
        let rows = out.lines().filter(|l| l.starts_with('[')).count();
        assert_eq!(rows, 0, "{out}");
    }

    #[test]
    fn dc_optimizer_applies_to_generated_plans() {
        let (catalog, store) = setup();
        let prog =
            crate::compile_sql_dc("select c.t_id from t, c where c.t_id = t.id", &catalog).unwrap();
        // The paper's Table 2, opcode for opcode: no dead instruction.
        let ops: Vec<&str> = prog.instrs.iter().map(|i| i.func.as_str()).collect();
        let table2 = "request request pin reverse pin join markT reverse join resultSet rsCol \
                      stdout exportResult unpin unpin";
        assert_eq!(ops.join(" "), table2, "{prog}");
        // And it still runs (LocalHooks path).
        let ctx = SessionCtx::new(Arc::new(RwLock::new(catalog)), store);
        run_sequential(&prog, &ctx).unwrap();
        assert_eq!(ctx.take_output().matches("[ 2 ]").count(), 2);
    }

    #[test]
    fn error_paths() {
        let (catalog, _) = setup();
        for bad in [
            "select x from nope",
            "select ghost from t",
            "select id from t, c",                      // cross product
            "select region from sales group by region", // group-by without aggregates
            "select amount, sum(amount) from sales group by region", // non-key column
            "select id from t order by ghost",
            "select count(*) from c where t_id = amount", // one table, two columns
            "select amount from c where t_id = amount",
            "select count(ghost) from c",
            "select sum(amount) from c where ghost > 1",
            "select sum(amount) from c where amount in ()",
            "select *, count(*) from c",
        ] {
            assert!(compile_sql(bad, &catalog).is_err(), "should fail: {bad}");
        }
    }

    #[test]
    fn create_insert_select_full_cycle() {
        // Statements run against one shared session (LocalHooks).
        let catalog = Arc::new(RwLock::new(Catalog::new()));
        let store = Arc::new(RwLock::new(BatStore::new()));
        let ctx = SessionCtx::new(Arc::clone(&catalog), Arc::clone(&store));

        let run_stmt = |sql: &str, ctx: &SessionCtx| {
            let prog = {
                let cat = catalog.read();
                compile_sql(sql, &cat).unwrap_or_else(|e| panic!("{sql}: {e}"))
            };
            run_sequential(&prog, ctx).unwrap_or_else(|e| panic!("{sql}:\n{prog}\n{e}"));
            ctx.take_output()
        };

        let out = run_stmt("create table logs (k int, msg varchar(16))", &ctx);
        assert!(out.contains("created"), "{out}");
        let out = run_stmt("insert into logs values (1, 'boot'), (2, 'ready')", &ctx);
        assert!(out.contains("2 rows affected"), "{out}");
        // Explicit column list in a different order.
        let out = run_stmt("insert into logs (msg, k) values ('late', 3)", &ctx);
        assert!(out.contains("1 rows affected"), "{out}");
        let out = run_stmt("select msg from logs where k >= 2 order by msg", &ctx);
        let rows: Vec<&str> = out.lines().filter(|l| l.starts_with('[')).collect();
        assert_eq!(rows, vec!["[ \"late\" ]", "[ \"ready\" ]"], "{out}");
    }

    #[test]
    fn insert_error_paths() {
        let (catalog, _) = setup();
        for bad in [
            "insert into ghost values (1)",
            "insert into c values (1)",                  // arity vs table
            "insert into c (t_id) values (1)",           // partial column list
            "insert into c (t_id, ghost) values (1, 2)", // unknown column
        ] {
            assert!(compile_sql(bad, &catalog).is_err(), "should fail: {bad}");
        }
    }

    #[test]
    fn literals_compile_to_parameter_slots() {
        let (catalog, _) = setup();
        // Two statements of one shape compile to the same instructions;
        // only the default bindings of the slots differ.
        let shape = |a: &str, b: &str, c: &str| {
            format!(
                "select amount from c where amount > {a} and t_id in ({b}, {c}) \
                 order by amount limit 2"
            )
        };
        let p = compile_sql(&shape("15", "2", "9"), &catalog).unwrap();
        let q = compile_sql(&shape("-4", "'x'", "5000000000"), &catalog).unwrap();
        assert_eq!((&p.instrs, &p.vars), (&q.instrs, &q.vars));
        assert_eq!(p.params, vec![Const::Int(15), Const::Int(2), Const::Int(9)]);
        assert_eq!(
            q.params,
            vec![Const::Int(-4), Const::Str("x".into()), Const::Int(5_000_000_000)]
        );
        let slots = |prog: &Program| -> Vec<u32> {
            prog.instrs
                .iter()
                .flat_map(|i| &i.args)
                .filter_map(|a| match a {
                    Arg::Param(slot) => Some(*slot),
                    _ => None,
                })
                .collect()
        };
        assert_eq!(slots(&p), vec![0, 1, 2]);
        // INSERT numbers its literals row by row (token order) and emits
        // them column by column.
        let i = compile_sql("insert into c values (1, 10), (2, 20)", &catalog).unwrap();
        assert_eq!(i.params, [1, 10, 2, 20].map(Const::Int).to_vec());
        assert_eq!(slots(&i), vec![0, 2, 1, 3]);
        // UPDATE: assignments first, then the WHERE literals.
        let u =
            compile_sql("update c set amount = 7 where t_id between 2 and 3", &catalog).unwrap();
        assert_eq!(u.params, [7, 2, 3].map(Const::Int).to_vec());
        assert_eq!(slots(&u), vec![0, 1, 2]);
    }

    #[test]
    fn insert_survives_cse_and_dc_optimize() {
        // Identical literals across columns/rows must not corrupt the
        // plan when CSE merges the pure bat.* calls, and dc_optimize must
        // pass DDL/DML through untouched.
        let catalog = Arc::new(RwLock::new(Catalog::new()));
        let store = Arc::new(RwLock::new(BatStore::new()));
        let ctx = SessionCtx::new(Arc::clone(&catalog), Arc::clone(&store));
        {
            let prog = compile_sql("create table p (a int, b int)", &catalog.read()).unwrap();
            run_sequential(&prog, &ctx).unwrap();
        }
        let prog = {
            let cat = catalog.read();
            let p = compile_sql("insert into p values (7, 7), (7, 7)", &cat).unwrap();
            let p = mal::common_subexpression_eliminate(&p);
            mal::dc_optimize(&p)
        };
        run_sequential(&prog, &ctx).unwrap();
        assert!(ctx.take_output().contains("2 rows affected"));
        let key = catalog.read().bind("sys", "p", "b").unwrap();
        let b = ctx.store.read().get(key).unwrap();
        assert_eq!(b.count(), 2);
        assert_eq!(b.bun(1).1, Val::Int(7));
    }

    #[test]
    fn update_delete_full_cycle() {
        let catalog = Arc::new(RwLock::new(Catalog::new()));
        let store = Arc::new(RwLock::new(BatStore::new()));
        let ctx = SessionCtx::new(Arc::clone(&catalog), Arc::clone(&store));
        let run_stmt = |sql: &str, ctx: &SessionCtx| {
            let prog = {
                let cat = catalog.read();
                let p = compile_sql(sql, &cat).unwrap_or_else(|e| panic!("{sql}: {e}"));
                let p = mal::common_subexpression_eliminate(&p);
                mal::dc_optimize(&p)
            };
            run_sequential(&prog, ctx).unwrap_or_else(|e| panic!("{sql}:\n{prog}\n{e}"));
            ctx.take_result()
        };

        run_stmt("create table acct (id int, bal lng, tag varchar(8))", &ctx);
        run_stmt("insert into acct values (1, 10, 'a'), (2, 20, 'b'), (3, 30, 'a')", &ctx);
        // Multi-column UPDATE with a predicate over a third column.
        let rs = run_stmt("update acct set bal = 99, tag = 'hot' where tag = 'a'", &ctx);
        assert_eq!(rs.affected, Some(2));
        let rs = run_stmt("select id, bal, tag from acct where tag = 'hot' order by id", &ctx);
        assert_eq!(rs.row_count(), 2);
        assert_eq!(rs.cell(0, 1), Val::Lng(99));
        assert_eq!(rs.cell(1, 0), Val::Int(3));
        // UPDATE matching nothing affects nothing.
        let rs = run_stmt("update acct set bal = 0 where id = 77", &ctx);
        assert_eq!(rs.affected, Some(0));
        // DELETE with predicate, then unconditional DELETE.
        let rs = run_stmt("delete from acct where id in (1, 3)", &ctx);
        assert_eq!(rs.affected, Some(2));
        let rs = run_stmt("select count(*) from acct", &ctx);
        assert_eq!(rs.cell(0, 0), Val::Lng(1));
        let rs = run_stmt("delete from acct", &ctx);
        assert_eq!(rs.affected, Some(1));
        let rs = run_stmt("select count(*) from acct", &ctx);
        assert_eq!(rs.cell(0, 0), Val::Lng(0));
        // The emptied table still takes inserts.
        let rs = run_stmt("insert into acct values (9, 90, 'z')", &ctx);
        assert_eq!(rs.affected, Some(1));
    }

    #[test]
    fn update_delete_error_paths() {
        let (catalog, _) = setup();
        for bad in [
            "update ghost set a = 1",
            "update c set ghost = 1",
            "update c set amount = 'oops' where ghost = 1", // unknown pred column
            "update c set amount = 1, amount = 2",          // duplicate assignment
            "update c set amount = 1 where t_id = amount",  // column-to-column
            "delete from ghost",
            "delete from c where ghost = 1",
            "delete from c where amount in ()",
        ] {
            assert!(compile_sql(bad, &catalog).is_err(), "should fail: {bad}");
        }
        // The generated plans carry the new sinks.
        let prog = compile_sql("update c set amount = 1 where t_id = 2", &catalog).unwrap();
        assert!(prog.instrs.iter().any(|i| i.is("sql", "update")), "{prog}");
        let prog = compile_sql("delete from c where amount between 1 and 5", &catalog).unwrap();
        assert!(prog.instrs.iter().any(|i| i.is("sql", "delete")), "{prog}");
    }

    #[test]
    fn in_list_predicate() {
        let out = run("select amount from c where t_id in (2, 9)");
        assert!(
            out.contains("[ 10 ]") && out.contains("[ 20 ]") && out.contains("[ 40 ]"),
            "{out}"
        );
        assert!(!out.contains("[ 30 ]"), "{out}");
    }

    #[test]
    fn in_list_strings() {
        let out = run("select amount from sales where region in ('eu', 'ap')");
        // eu: 5, 11; ap: 13.
        assert!(out.contains("[ 5 ]") && out.contains("[ 11 ]") && out.contains("[ 13 ]"), "{out}");
        assert!(!out.contains("[ 7 ]"), "{out}");
    }

    #[test]
    fn select_distinct_single_column() {
        let out = run("select distinct region from sales order by region");
        let lines: Vec<&str> = out.lines().filter(|l| l.starts_with('[')).collect();
        assert_eq!(lines, vec!["[ \"ap\" ]", "[ \"eu\" ]", "[ \"us\" ]"], "{out}");
    }

    #[test]
    fn select_distinct_multi_column() {
        let out = run("select distinct t_id, amount from c where amount > 5");
        let lines: Vec<&str> = out.lines().filter(|l| l.starts_with('[')).collect();
        assert_eq!(lines.len(), 4, "all rows unique here: {out}");
    }

    #[test]
    fn multi_column_group_by() {
        // Rows: (eu,5) (us,7) (eu,11) (ap,13) (us,17); add a second key
        // via parity of amount to force refinement.
        let out = run(
            "select region, sum(amount), count(*) from sales group by region, amount order by region",
        );
        let lines: Vec<&str> = out.lines().filter(|l| l.starts_with('[')).collect();
        assert_eq!(lines.len(), 5, "each (region, amount) pair is distinct: {out}");
        assert!(lines.iter().any(|l| l.contains("ap") && l.contains("13")), "{out}");
    }

    #[test]
    fn multi_group_by_aggregates_merge_duplicates() {
        let (catalog, store) = setup();
        // duplicate (region, amount) pairs via a dedicated table.
        let mut store2 = BatStore::new();
        let mut catalog2 = Catalog::new();
        catalog2
            .create_table_columnar(
                &mut store2,
                "sys",
                "pairs",
                vec![
                    ("a", Column::from(vec!["x", "x", "y", "x"])),
                    ("b", Column::from(vec![1, 1, 1, 2])),
                    ("v", Column::from(vec![10, 20, 30, 40])),
                ],
            )
            .unwrap();
        let prog = compile_sql("select a, b, sum(v), count(*) from pairs group by a, b", &catalog2)
            .unwrap();
        let ctx = SessionCtx::new(Arc::new(RwLock::new(catalog2)), Arc::new(RwLock::new(store2)));
        run_sequential(&prog, &ctx).unwrap();
        let out = ctx.take_output();
        let lines: Vec<&str> = out.lines().filter(|l| l.starts_with('[')).collect();
        assert_eq!(lines.len(), 3, "(x,1) (y,1) (x,2): {out}");
        assert!(
            lines.iter().any(|l| l.contains("\"x\"") && l.contains("30") && l.contains("2")),
            "x,1 → sum 30 count 2: {out}"
        );
        let _ = (catalog, store);
    }

    #[test]
    fn ambiguous_bare_column_rejected() {
        let (catalog, _) = setup();
        // `amount` exists in both c and sales.
        assert!(compile_sql("select amount from c, sales where c.amount = sales.amount", &catalog)
            .is_err());
    }

    #[test]
    fn select_star_expands_to_declared_columns() {
        let out = run("select * from c where amount > 25");
        // Both columns of `c`, in declared order (t_id, amount).
        assert!(out.contains("3") && out.contains("30"), "{out}");
        assert!(out.contains("9") && out.contains("40"), "{out}");
        assert!(!out.contains("20"), "{out}");
    }

    #[test]
    fn select_star_with_filter_and_order() {
        let out = run("select * from sales order by amount desc limit 2");
        assert!(out.contains("17") && out.contains("13"), "{out}");
        assert!(!out.contains("11"), "{out}");
    }

    #[test]
    fn select_star_rejected_with_aggregates() {
        let (catalog, _) = setup();
        let e = compile_sql("select *, count(*) from c", &catalog).unwrap_err();
        assert!(e.to_string().contains("cannot be mixed"), "{e}");
    }

    #[test]
    fn dc_sysview_lowers_to_single_sink() {
        let (catalog, _) = setup();
        let prog = compile_sql("select * from dc.stats", &catalog).unwrap();
        assert_eq!(prog.instrs.len(), 1, "{prog}");
        assert_eq!(prog.instrs[0].qualified_name(), "sql.sysview");
    }

    #[test]
    fn dc_sysview_projection_validated_at_compile_time() {
        let (catalog, _) = setup();
        // Valid column subset compiles.
        assert!(compile_sql("select name, value from dc.stats", &catalog).is_ok());
        assert!(compile_sql("select name, p99_us from dc.latency", &catalog).is_ok());
        assert!(compile_sql("select epoch, stmt, event from dc.trace", &catalog).is_ok());
        assert!(compile_sql("select bat, state, loi from dc.hotset", &catalog).is_ok());
        // Unknown column and unknown view are compile errors.
        assert!(compile_sql("select bogus from dc.stats", &catalog).is_err());
        assert!(compile_sql("select * from dc.nope", &catalog).is_err());
        // Anything beyond plain projection is rejected.
        assert!(compile_sql("select * from dc.stats where name = 'x'", &catalog).is_err());
        assert!(compile_sql("select count(*) from dc.stats", &catalog).is_err());
    }

    /// An aggregate plan — one `aggr.scan`, over one table or through a
    /// probe stage over a join — lists each column it reads once; before
    /// and after the Data Cyclotron rewrite alike. Anything else lists
    /// nothing.
    #[test]
    fn aggregate_plans_list_the_columns_they_read() {
        let (catalog, _) = setup();
        let reads = |sql: &str| {
            let plan = compile_sql(sql, &catalog).unwrap_or_else(|e| panic!("{sql}: {e}"));
            let optimized = crate::optimize(&plan);
            let listed = |p| {
                crate::aggregate_reads(p).map(|reads| {
                    let mut cols: Vec<_> =
                        reads.iter().map(|(s, t, c)| format!("{s}.{t}.{c}")).collect();
                    cols.sort();
                    cols.join(" ")
                })
            };
            let (found, after) = (listed(&plan), listed(&optimized));
            assert_eq!(found, after, "{sql}");
            found
        };
        for (sql, cols) in [
            ("select count(*) from c", "sys.c.t_id"),
            (
                "select t_id, sum(amount) from c where amount > 10 group by t_id order by t_id",
                "sys.c.amount sys.c.t_id",
            ),
            ("select distinct t_id from c where amount < 40", "sys.c.amount sys.c.t_id"),
            ("select count(*) from t, c where c.t_id = t.id", "sys.c.t_id sys.t.id"),
            (
                "select t.id, sum(c.amount) from t, c where c.t_id = t.id group by t.id",
                "sys.c.amount sys.c.t_id sys.t.id",
            ),
            ("select count(*) from c x, c y where x.t_id = y.t_id", "sys.c.t_id"),
        ] {
            assert_eq!(reads(sql).as_deref(), Some(cols), "{sql}");
        }
        for sql in [
            "select t_id, amount from c where amount > 10",
            "select c.t_id from t, c where c.t_id = t.id",
            "select distinct count(*) from c group by t_id",
            "update c set amount = 1 where t_id = 2",
            "delete from c where t_id = 2",
            "insert into c values (1, 2)",
            "create table z (a int)",
            "select name, value from dc.stats",
        ] {
            assert_eq!(reads(sql), None, "{sql}");
        }
    }
}
