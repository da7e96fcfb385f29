//! The built-in MAL modules, bound to the `batstore` kernel and the Data
//! Cyclotron hooks. Function names follow MonetDB's `module.function`
//! convention as printed in the paper's plans.

use crate::context::SessionCtx;
use crate::error::{MalError, Result};
use crate::value::{MVal, ResultSet};
use batstore::ops::{MutOp, Mutation};
use batstore::{ops, Bat, Val};
use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, OnceLock};

/// A native operator implementation. Receives resolved argument values,
/// returns the values for the instruction's targets (usually one).
pub type NativeFn = Arc<dyn Fn(&SessionCtx, &[MVal]) -> Result<Vec<MVal>> + Send + Sync>;

/// The module registry: `(module, function) → implementation`. Names
/// are the `'static` literals the modules register under, so a lookup
/// by borrowed names hashes them in place.
pub struct Registry {
    fns: HashMap<(&'static str, &'static str), NativeFn>,
}

impl Registry {
    pub fn empty() -> Self {
        Registry { fns: HashMap::new() }
    }

    pub fn register(
        &mut self,
        module: &'static str,
        func: &'static str,
        f: impl Fn(&SessionCtx, &[MVal]) -> Result<Vec<MVal>> + Send + Sync + 'static,
    ) {
        self.fns.insert((module, func), Arc::new(f));
    }

    pub fn lookup<'a>(&'a self, module: &'a str, func: &'a str) -> Option<&'a NativeFn> {
        // The map is covariant in its key, so it is read here as one keyed
        // by `(&'a str, &'a str)`: no owned key is built per instruction.
        let fns: &'a HashMap<(&'a str, &'a str), NativeFn> = &self.fns;
        fns.get(&(module, func))
    }

    pub fn len(&self) -> usize {
        self.fns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.fns.is_empty()
    }

    /// Every registered `(module, function)`.
    pub fn names(&self) -> BTreeSet<(&'static str, &'static str)> {
        self.fns.keys().copied().collect()
    }

    /// The process-wide [`Registry::standard`], built on first use: what
    /// [`crate::run_sequential`] interprets every statement against.
    pub fn shared() -> &'static Registry {
        static SHARED: OnceLock<Registry> = OnceLock::new();
        SHARED.get_or_init(Registry::standard)
    }

    /// The standard library: exactly the functions `sqlfront` emits and
    /// the checked-in textual plans (the paper's Table 1 plan and its DC
    /// rewrite, the `io.print` plans) call — nothing registered for a
    /// plan nobody writes. The umbrella test
    /// `registry_holds_exactly_what_plans_call` holds it to that.
    pub fn standard() -> Self {
        let mut r = Registry::empty();
        register_sql(&mut r);
        register_bat_algebra(&mut r);
        register_aggregates(&mut r);
        register_io(&mut r);
        register_datacyclotron(&mut r);
        r
    }
}

// ---- argument helpers -------------------------------------------------

fn want(args: &[MVal], n: usize, name: &str) -> Result<()> {
    if args.len() != n {
        return Err(MalError::BadCall(format!("{name}: expected {n} args, got {}", args.len())));
    }
    Ok(())
}

fn arg_bat<'a>(args: &'a [MVal], i: usize, name: &str) -> Result<&'a Arc<Bat>> {
    args[i].as_bat().ok_or_else(|| {
        MalError::BadCall(format!("{name}: arg {i} must be a BAT, got {:?}", args[i]))
    })
}

fn arg_int(args: &[MVal], i: usize, name: &str) -> Result<i64> {
    args[i]
        .as_int()
        .ok_or_else(|| MalError::BadCall(format!("{name}: arg {i} must be int, got {:?}", args[i])))
}

fn arg_str<'a>(args: &'a [MVal], i: usize, name: &str) -> Result<&'a str> {
    args[i]
        .as_str()
        .ok_or_else(|| MalError::BadCall(format!("{name}: arg {i} must be str, got {:?}", args[i])))
}

/// Constant MAL value → kernel scalar for selections.
fn arg_val(args: &[MVal], i: usize, name: &str) -> Result<Val> {
    Ok(match &args[i] {
        MVal::Int(v) => {
            // Narrow to Int when it fits so comparisons against int
            // columns take the exact-type fast path.
            if let Ok(small) = i32::try_from(*v) {
                Val::Int(small)
            } else {
                Val::Lng(*v)
            }
        }
        MVal::Dbl(v) => Val::Dbl(*v),
        MVal::Str(s) => Val::Str(s.clone()),
        MVal::Oid(o) => Val::Oid(*o),
        MVal::Bool(b) => Val::Bool(*b),
        other => {
            return Err(MalError::BadCall(format!("{name}: arg {i} must be scalar, got {other:?}")))
        }
    })
}

/// Decode the flat predicate encoding the SQL front-end emits, starting
/// at arg `i` and ending at the first argument that opens no predicate
/// (returned as the second value):
///
/// ```text
/// "cmp", column, op-symbol, literal
/// "between", column, lo, hi
/// "in", column, n, v1, …, vn
/// ```
///
/// `column` turns the argument in column position into the name the
/// predicate carries: `sql.update`/`sql.delete` pass the column's name,
/// `aggr.scan` the bound column itself.
fn parse_predicates(
    args: &[MVal],
    mut i: usize,
    name: &str,
    mut column: impl FnMut(usize) -> Result<String>,
) -> Result<(Vec<batstore::RowPredicate>, usize)> {
    use batstore::RowPredicate;
    let mut preds = Vec::new();
    while let Some(kind @ ("cmp" | "between" | "in")) = args.get(i).and_then(MVal::as_str) {
        if args.len() < i + 3 + usize::from(kind != "in") {
            return Err(MalError::BadCall(format!("{name}: truncated {kind} predicate")));
        }
        let column = column(i + 1)?;
        match kind {
            "cmp" => {
                let sym = arg_str(args, i + 2, name)?;
                let op = batstore::ops::CmpOp::from_symbol(sym)
                    .ok_or_else(|| MalError::BadCall(format!("{name}: bad op '{sym}'")))?;
                let value = arg_val(args, i + 3, name)?;
                preds.push(RowPredicate::Cmp { column, op, value });
                i += 4;
            }
            "between" => {
                let (lo, hi) = (arg_val(args, i + 2, name)?, arg_val(args, i + 3, name)?);
                preds.push(RowPredicate::Between { column, lo, hi });
                i += 4;
            }
            _ => {
                let n = arg_int(args, i + 2, name)?.max(0) as usize;
                if args.len() < i + 3 + n {
                    return Err(MalError::BadCall(format!("{name}: in-list claims {n} values")));
                }
                let values =
                    (0..n).map(|k| arg_val(args, i + 3 + k, name)).collect::<Result<_>>()?;
                preds.push(RowPredicate::InList { column, values });
                i += 3 + n;
            }
        }
    }
    Ok((preds, i))
}

/// The predicates of a `sql.update`/`sql.delete` call: columns by name,
/// and nothing but predicates from arg `i` on.
fn named_predicates(args: &[MVal], i: usize, name: &str) -> Result<Vec<batstore::RowPredicate>> {
    let (preds, end) =
        parse_predicates(args, i, name, |at| arg_str(args, at, name).map(str::to_string))?;
    match args.get(end) {
        None => Ok(preds),
        Some(other) => Err(MalError::BadCall(format!(
            "{name}: unknown predicate kind '{}'",
            other.as_str().unwrap_or(other.type_name())
        ))),
    }
}

fn one(v: MVal) -> Result<Vec<MVal>> {
    Ok(vec![v])
}

fn bat(b: Bat) -> Result<Vec<MVal>> {
    one(MVal::Bat(Arc::new(b)))
}

// ---- sql module -------------------------------------------------------

fn register_sql(r: &mut Registry) {
    // sql.bind(schema, table, column, access) — resolve a persistent BAT.
    r.register("sql", "bind", |ctx, args| {
        want(args, 4, "sql.bind")?;
        let (schema, table, column) = (
            arg_str(args, 0, "sql.bind")?,
            arg_str(args, 1, "sql.bind")?,
            arg_str(args, 2, "sql.bind")?,
        );
        let key = ctx.catalog.read().bind(schema, table, column)?;
        let b = ctx.store.read().get(key)?;
        one(MVal::Bat(b))
    });

    // sql.createTable(schema, table, "name:type,…") — DDL routed through
    // the Data Cyclotron seam so ring nodes take ownership of the new
    // (empty) column fragments and replicate the metadata.
    r.register("sql", "createTable", |ctx, args| {
        want(args, 3, "sql.createTable")?;
        let (schema, table, spec) = (
            arg_str(args, 0, "sql.createTable")?,
            arg_str(args, 1, "sql.createTable")?,
            arg_str(args, 2, "sql.createTable")?,
        );
        let mut cols = Vec::new();
        for part in spec.split(',').filter(|p| !p.is_empty()) {
            let (name, ty) = part
                .split_once(':')
                .ok_or_else(|| MalError::BadCall(format!("bad column spec '{part}'")))?;
            let ty = batstore::ColType::from_name(ty)
                .ok_or_else(|| MalError::BadCall(format!("unknown column type '{ty}'")))?;
            cols.push((name.to_string(), ty));
        }
        ctx.hooks().create_table(ctx.query_id, schema, table, &cols)?;
        ctx.set_result(batstore::ResultSet::with_info(format!("table {schema}.{table} created\n")));
        Ok(vec![])
    });

    // sql.append(schema, table, "c1,c2,…", bat1, bat2, …) — one call per
    // INSERT so the row batch reaches the seam atomically.
    r.register("sql", "append", |ctx, args| {
        if args.len() < 4 {
            return Err(MalError::BadCall("sql.append: expected at least 4 args".into()));
        }
        let (schema, table, names) = (
            arg_str(args, 0, "sql.append")?,
            arg_str(args, 1, "sql.append")?,
            arg_str(args, 2, "sql.append")?,
        );
        let names: Vec<&str> = names.split(',').filter(|n| !n.is_empty()).collect();
        if names.len() != args.len() - 3 {
            return Err(MalError::BadCall(format!(
                "sql.append: {} column names but {} BATs",
                names.len(),
                args.len() - 3
            )));
        }
        let mut cols = Vec::with_capacity(names.len());
        for (i, name) in names.iter().enumerate() {
            let b = arg_bat(args, i + 3, "sql.append")?;
            cols.push((name.to_string(), b.tail().clone()));
        }
        let m = Mutation {
            schema: schema.to_string(),
            table: table.to_string(),
            op: MutOp::Insert(cols),
            preds: Vec::new(),
        };
        let n = ctx.hooks().mutate_rows(ctx.query_id, m)?;
        ctx.set_result(batstore::ResultSet::with_affected(n));
        Ok(vec![])
    });

    // sql.update(schema, table, "c1,c2,…", v1, v2, …, <predicates>) —
    // one call per UPDATE statement. The assignment values follow the
    // column-name list in order; the flat predicate encoding (see
    // `parse_predicates`) carries the WHERE conjuncts to the seam, which
    // routes the *logical* mutation to the fragment owner (§6.4).
    r.register("sql", "update", |ctx, args| {
        if args.len() < 4 {
            return Err(MalError::BadCall("sql.update: expected at least 4 args".into()));
        }
        let (schema, table, names) = (
            arg_str(args, 0, "sql.update")?,
            arg_str(args, 1, "sql.update")?,
            arg_str(args, 2, "sql.update")?,
        );
        let names: Vec<&str> = names.split(',').filter(|n| !n.is_empty()).collect();
        if names.is_empty() {
            return Err(MalError::BadCall("sql.update: empty assignment list".into()));
        }
        if args.len() < 3 + names.len() {
            return Err(MalError::BadCall(format!(
                "sql.update: {} assignments but only {} args",
                names.len(),
                args.len()
            )));
        }
        let mut assigns = Vec::with_capacity(names.len());
        for (i, name) in names.iter().enumerate() {
            assigns.push((name.to_string(), arg_val(args, i + 3, "sql.update")?));
        }
        let preds = named_predicates(args, 3 + names.len(), "sql.update")?;
        let m = Mutation {
            schema: schema.to_string(),
            table: table.to_string(),
            op: MutOp::Update(assigns),
            preds,
        };
        let n = ctx.hooks().mutate_rows(ctx.query_id, m)?;
        ctx.set_result(batstore::ResultSet::with_affected(n));
        Ok(vec![])
    });

    // sql.delete(schema, table, <predicates>) — one call per DELETE
    // statement; no predicates means every row.
    r.register("sql", "delete", |ctx, args| {
        if args.len() < 2 {
            return Err(MalError::BadCall("sql.delete: expected at least 2 args".into()));
        }
        let (schema, table) = (arg_str(args, 0, "sql.delete")?, arg_str(args, 1, "sql.delete")?);
        let preds = named_predicates(args, 2, "sql.delete")?;
        let m = Mutation {
            schema: schema.to_string(),
            table: table.to_string(),
            op: MutOp::Delete,
            preds,
        };
        let n = ctx.hooks().mutate_rows(ctx.query_id, m)?;
        ctx.set_result(batstore::ResultSet::with_affected(n));
        Ok(vec![])
    });

    // sql.sysview(view, "c1,c2,…"|"*") — materialize a read-only `dc.*`
    // system view (stats/latency/trace) from the node's live telemetry
    // through the seam, optionally projecting a subset of its columns in
    // the requested order.
    r.register("sql", "sysview", |ctx, args| {
        want(args, 2, "sql.sysview")?;
        let (view, proj) = (arg_str(args, 0, "sql.sysview")?, arg_str(args, 1, "sql.sysview")?);
        let rs = ctx.hooks().sys_view(ctx.query_id, view)?;
        let rs = if proj == "*" {
            rs
        } else {
            let mut out = batstore::ResultSet::new();
            for name in proj.split(',').filter(|c| !c.is_empty()) {
                let col = rs.columns.iter().find(|c| c.name == name).ok_or_else(|| {
                    MalError::BadCall(format!("dc.{view} has no column '{name}'"))
                })?;
                out.columns.push(col.clone());
            }
            out
        };
        ctx.set_result(rs);
        Ok(vec![])
    });

    // sql.resultSet(ncols, special, b) — allocate a result set.
    r.register("sql", "resultSet", |_ctx, args| {
        if args.len() < 3 {
            return Err(MalError::BadCall("sql.resultSet: expected 3 args".into()));
        }
        one(MVal::ResultSet(ResultSet::new()))
    });

    // sql.rsCol(rs, table, column, type, digits, scale, b) — append a column.
    r.register("sql", "rsCol", |_ctx, args| {
        want(args, 7, "sql.rsCol")?;
        let MVal::ResultSet(rs) = &args[0] else {
            return Err(MalError::BadCall("sql.rsCol: arg 0 must be a result set".into()));
        };
        let table = arg_str(args, 1, "sql.rsCol")?;
        let column = arg_str(args, 2, "sql.rsCol")?;
        let ty = arg_str(args, 3, "sql.rsCol")?;
        let data = arg_bat(args, 6, "sql.rsCol")?;
        rs.add_column(table, column, ty, Arc::clone(data));
        Ok(vec![])
    });

    // sql.exportResult(stream, rs) — publish the typed result to the
    // session. No text is produced here: the session's consumer renders
    // (or wires) the columns as it sees fit.
    r.register("sql", "exportResult", |ctx, args| {
        want(args, 2, "sql.exportResult")?;
        let MVal::ResultSet(rs) = &args[1] else {
            return Err(MalError::BadCall("sql.exportResult: arg 1 must be a result set".into()));
        };
        ctx.set_result(rs.snapshot());
        Ok(vec![])
    });
}

// ---- bat / algebra modules --------------------------------------------

fn register_bat_algebra(r: &mut Registry) {
    r.register("bat", "reverse", |_ctx, args| {
        want(args, 1, "bat.reverse")?;
        bat(ops::reverse(arg_bat(args, 0, "bat.reverse")?))
    });

    r.register("bat", "mirror", |_ctx, args| {
        want(args, 1, "bat.mirror")?;
        bat(ops::mirror(arg_bat(args, 0, "bat.mirror")?))
    });

    // bat.literal(typename, v1, …, vn) — a dense BAT of the listed
    // values. INSERT codegen emits one per column, so an n-row batch is
    // a single O(n) instruction.
    r.register("bat", "literal", |_ctx, args| {
        if args.is_empty() {
            return Err(MalError::BadCall("bat.literal: expected a type name".into()));
        }
        let ty = arg_str(args, 0, "bat.literal")?;
        let ty = batstore::ColType::from_name(ty)
            .ok_or_else(|| MalError::BadCall(format!("bat.literal: unknown type '{ty}'")))?;
        let mut col = batstore::Column::empty(ty);
        for i in 1..args.len() {
            col.push(&arg_val(args, i, "bat.literal")?)?;
        }
        bat(Bat::dense(col))
    });

    r.register("algebra", "select", |_ctx, args| {
        want(args, 3, "algebra.select")?;
        let b = arg_bat(args, 0, "algebra.select")?;
        let lo = arg_val(args, 1, "algebra.select")?;
        let hi = arg_val(args, 2, "algebra.select")?;
        bat(ops::select_range(b, &lo, &hi)?)
    });

    r.register("algebra", "uselect", |_ctx, args| {
        want(args, 2, "algebra.uselect")?;
        let b = arg_bat(args, 0, "algebra.uselect")?;
        let v = arg_val(args, 1, "algebra.uselect")?;
        bat(ops::uselect(b, &v)?)
    });

    // algebra.thetauselect(b, v, "<=") — general comparison select.
    r.register("algebra", "thetauselect", |_ctx, args| {
        want(args, 3, "algebra.thetauselect")?;
        let b = arg_bat(args, 0, "algebra.thetauselect")?;
        let v = arg_val(args, 1, "algebra.thetauselect")?;
        let sym = arg_str(args, 2, "algebra.thetauselect")?;
        let op = ops::CmpOp::from_symbol(sym)
            .ok_or_else(|| MalError::BadCall(format!("thetauselect: bad op '{sym}'")))?;
        bat(ops::theta_select(b, op, &v)?)
    });

    r.register("algebra", "join", |_ctx, args| {
        want(args, 2, "algebra.join")?;
        bat(ops::join(arg_bat(args, 0, "algebra.join")?, arg_bat(args, 1, "algebra.join")?)?)
    });

    r.register("algebra", "semijoin", |_ctx, args| {
        want(args, 2, "algebra.semijoin")?;
        bat(ops::semijoin(
            arg_bat(args, 0, "algebra.semijoin")?,
            arg_bat(args, 1, "algebra.semijoin")?,
        )?)
    });

    r.register("algebra", "kunion", |_ctx, args| {
        want(args, 2, "algebra.kunion")?;
        bat(ops::kunion(arg_bat(args, 0, "algebra.kunion")?, arg_bat(args, 1, "algebra.kunion")?)?)
    });

    r.register("algebra", "markT", |_ctx, args| {
        want(args, 2, "algebra.markT")?;
        let b = arg_bat(args, 0, "algebra.markT")?;
        let base = arg_int(args, 1, "algebra.markT")? as u64;
        bat(ops::mark_tail(b, base))
    });

    r.register("algebra", "markH", |_ctx, args| {
        want(args, 2, "algebra.markH")?;
        let b = arg_bat(args, 0, "algebra.markH")?;
        let base = arg_int(args, 1, "algebra.markH")? as u64;
        bat(ops::mark_head(b, base))
    });

    r.register("algebra", "slice", |_ctx, args| {
        want(args, 3, "algebra.slice")?;
        let b = arg_bat(args, 0, "algebra.slice")?;
        let lo = arg_int(args, 1, "algebra.slice")?.max(0) as usize;
        // Inclusive bounds: `hi` below `lo` (`limit 0` is `[0, -1]`) is
        // the empty range, typed like `b`.
        match usize::try_from(arg_int(args, 2, "algebra.slice")?) {
            Ok(hi) if hi >= lo => bat(ops::slice(b, lo, hi)),
            _ => bat(b.slice(lo, lo)),
        }
    });

    r.register("algebra", "sortTail", |_ctx, args| {
        want(args, 1, "algebra.sortTail")?;
        bat(ops::sort_tail(arg_bat(args, 0, "algebra.sortTail")?, false))
    });

    r.register("algebra", "sortReverseTail", |_ctx, args| {
        want(args, 1, "algebra.sortReverseTail")?;
        bat(ops::sort_tail(arg_bat(args, 0, "algebra.sortReverseTail")?, true))
    });
}

// ---- aggregates -------------------------------------------------------

fn register_aggregates(r: &mut Registry) {
    // aggr.scan(rows, <predicates>, ["probe", key, build…], ["by", key…],
    // <aggregates>) → (one BAT per key, one per aggregate): filter, group
    // and aggregate in one pass over cache-sized batches
    // (`ops::scan_aggregate`). `rows` is any column of the scanned table
    // (it gives the row count); predicates are the `sql.update` encoding
    // with the bound column in place of its name; an aggregate is
    // `"count*"` or `"sum"|"avg"|"min"|"max", column`.
    //
    // The probe stage joins the scanned table to a build side: `key` is
    // the scanned table's join column, and `build…` lists the build side's
    // join column first, then the build columns the keys and aggregates
    // read, all aligned with each other. Each batch of qualifying scanned
    // rows is probed into a hash table over the build key, and every
    // joined row is grouped and folded; the join result is never built.
    // A key or aggregate operand is a column aligned with `rows`, or the
    // number of a build column (0 is the build key).
    r.register("aggr", "scan", |_ctx, args| {
        let name = "aggr.scan";
        if args.is_empty() {
            return Err(MalError::BadCall(format!("{name}: expected a column")));
        }
        // The kernel finds columns by name: here, their argument index.
        let column = |at: usize| arg_bat(args, at, name).map(|_| at.to_string());
        let rows = arg_bat(args, 0, name)?.count();
        let (preds, mut i) = parse_predicates(args, 1, name, column)?;
        let (mut join_key, mut build) = (None, i..i);
        if args.get(i).and_then(MVal::as_str) == Some("probe") {
            if args.len() < i + 3 {
                return Err(MalError::BadCall(format!("{name}: truncated probe stage")));
            }
            join_key = Some(column(i + 1)?);
            arg_bat(args, i + 2, name)?;
            i += 2;
            let start = i;
            while args.get(i).is_some_and(|a| a.as_bat().is_some()) {
                i += 1;
            }
            build = start..i;
        }
        let operand = |at: usize| match args[at].as_int() {
            Some(k) => usize::try_from(k)
                .ok()
                .filter(|&k| k < build.len())
                .map(|k| (build.start + k).to_string())
                .ok_or_else(|| MalError::BadCall(format!("{name}: no build column {k}"))),
            None => column(at),
        };
        let mut keys = Vec::new();
        if args.get(i).and_then(MVal::as_str) == Some("by") {
            i += 1;
            while args.get(i).is_some_and(|a| a.as_bat().is_some() || a.as_int().is_some()) {
                keys.push(operand(i)?);
                i += 1;
            }
        }
        let mut aggs = Vec::new();
        while i < args.len() {
            let make = match arg_str(args, i, name)? {
                "count*" => {
                    aggs.push(ops::Aggregate::Count);
                    i += 1;
                    continue;
                }
                "sum" => ops::Aggregate::Sum,
                "avg" => ops::Aggregate::Avg,
                "min" => ops::Aggregate::Min,
                "max" => ops::Aggregate::Max,
                other => {
                    return Err(MalError::BadCall(format!("{name}: unknown aggregate '{other}'")))
                }
            };
            if i + 1 >= args.len() {
                return Err(MalError::BadCall(format!("{name}: aggregate without a column")));
            }
            aggs.push(make(operand(i + 1)?));
            i += 2;
        }
        let arg = |at: usize| args[at].as_bat().cloned();
        let lookup = |at: &str| at.parse::<usize>().ok().and_then(arg);
        let build_col =
            |at: &str| at.parse::<usize>().ok().filter(|at| build.contains(at)).and_then(arg);
        let probe = join_key.as_deref().map(|key| ops::Probe {
            key,
            build_key: args[build.start].as_bat().expect("checked a BAT"),
            build: &build_col,
        });
        let keys: Vec<&str> = keys.iter().map(String::as_str).collect();
        let out = ops::scan_aggregate(&lookup, rows, &preds, probe.as_ref(), &keys, &aggs)?;
        Ok(out.into_iter().map(|b| MVal::Bat(Arc::new(b))).collect())
    });
}

// ---- io ---------------------------------------------------------------

fn register_io(r: &mut Registry) {
    r.register("io", "stdout", |_ctx, args| {
        want(args, 0, "io.stdout")?;
        one(MVal::Stream)
    });

    r.register("io", "print", |ctx, args| {
        for a in args {
            match a {
                MVal::Bat(b) => ctx.write_output(&b.render(64)),
                MVal::Pinned { bat, .. } => ctx.write_output(&bat.render(64)),
                other => ctx.write_output(&format!("{other:?}\n")),
            }
        }
        Ok(vec![])
    });
}

// ---- datacyclotron ----------------------------------------------------

fn register_datacyclotron(r: &mut Registry) {
    // datacyclotron.request(schema, table, column, access) → ticket.
    // Non-blocking (§4.1: "Unlike the pin() call, the request() and
    // unpin() calls do not block threads").
    r.register("datacyclotron", "request", |ctx, args| {
        want(args, 4, "datacyclotron.request")?;
        let schema = arg_str(args, 0, "datacyclotron.request")?;
        let table = arg_str(args, 1, "datacyclotron.request")?;
        let column = arg_str(args, 2, "datacyclotron.request")?;
        let ticket = ctx.hooks().request(ctx.query_id, schema, table, column)?;
        one(MVal::Ticket(ticket))
    });

    // datacyclotron.pin(ticket) → BAT; blocks until the fragment is
    // available in local memory.
    r.register("datacyclotron", "pin", |ctx, args| {
        want(args, 1, "datacyclotron.pin")?;
        let MVal::Ticket(t) = args[0] else {
            return Err(MalError::BadCall(format!(
                "datacyclotron.pin: arg must be a request ticket, got {:?}",
                args[0]
            )));
        };
        let b = ctx.hooks().pin(ctx.query_id, t)?;
        one(MVal::Pinned { bat: b, ticket: t })
    });

    // datacyclotron.unpin(pinned-bat | ticket).
    r.register("datacyclotron", "unpin", |ctx, args| {
        want(args, 1, "datacyclotron.unpin")?;
        let ticket = match &args[0] {
            MVal::Pinned { ticket, .. } => *ticket,
            MVal::Ticket(t) => *t,
            other => {
                return Err(MalError::BadCall(format!(
                    "datacyclotron.unpin: arg must be pinned BAT or ticket, got {other:?}"
                )))
            }
        };
        ctx.hooks().unpin(ctx.query_id, ticket)?;
        Ok(vec![])
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use batstore::{BatStore, Catalog, Column};
    use parking_lot::RwLock;

    fn ctx() -> SessionCtx {
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
        SessionCtx::new(Arc::new(RwLock::new(catalog)), Arc::new(RwLock::new(store)))
    }

    fn call(r: &Registry, name: (&str, &str), ctx: &SessionCtx, args: &[MVal]) -> Vec<MVal> {
        (r.lookup(name.0, name.1).unwrap())(ctx, args).unwrap()
    }

    #[test]
    fn standard_has_everything_the_paper_plans_use() {
        let r = Registry::standard();
        for (m, f) in [
            ("sql", "bind"),
            ("sql", "resultSet"),
            ("sql", "rsCol"),
            ("sql", "exportResult"),
            ("bat", "reverse"),
            ("algebra", "join"),
            ("algebra", "markT"),
            ("io", "stdout"),
            ("datacyclotron", "request"),
            ("datacyclotron", "pin"),
            ("datacyclotron", "unpin"),
        ] {
            assert!(r.lookup(m, f).is_some(), "missing {m}.{f}");
        }
    }

    #[test]
    fn bind_resolves_and_typechecks() {
        let r = Registry::standard();
        let c = ctx();
        let out = call(
            &r,
            ("sql", "bind"),
            &c,
            &[MVal::Str("sys".into()), MVal::Str("t".into()), MVal::Str("id".into()), MVal::Int(0)],
        );
        assert_eq!(out[0].as_bat().unwrap().count(), 3);
        let err = (r.lookup("sql", "bind").unwrap())(&c, &[MVal::Int(1)]);
        assert!(err.is_err());
    }

    #[test]
    fn dc_request_pin_unpin_roundtrip_local() {
        let r = Registry::standard();
        let c = ctx();
        let t = call(
            &r,
            ("datacyclotron", "request"),
            &c,
            &[MVal::Str("sys".into()), MVal::Str("t".into()), MVal::Str("id".into()), MVal::Int(0)],
        );
        // LocalHooks are created fresh per hooks() call; pin through a
        // stable hooks instance instead to validate the trait contract.
        let hooks = c.hooks();
        let ticket = hooks.request(0, "sys", "t", "id").unwrap();
        let b = hooks.pin(0, ticket).unwrap();
        assert_eq!(b.count(), 3);
        hooks.unpin(0, ticket).unwrap();
        assert!(matches!(t[0], MVal::Ticket(_)));
    }

    #[test]
    fn fused_scan_filters_and_aggregates() {
        let r = Registry::standard();
        let c = ctx();
        let b = MVal::Bat(Arc::new(Bat::dense(Column::from(vec![5, 1, 9, 3]))));
        let s = MVal::Str;
        let args = [b.clone(), s("cmp".into()), b.clone(), s(">=".into()), MVal::Int(3)];
        let out =
            call(&r, ("aggr", "scan"), &c, &[&args[..], &[s("sum".into()), b.clone()]].concat());
        assert_eq!(out[0].as_bat().unwrap().bun(0).1, Val::Lng(17));

        // Probed into a build side keyed 3, 5, 3: grouped by its second
        // column (build column 1), summing the scanned one.
        let bat = |c: Column| MVal::Bat(Arc::new(Bat::dense(c)));
        let (key, tag) = (bat(Column::from(vec![3, 5, 3])), bat(Column::from(vec!["p", "q", "r"])));
        let probe = [s("probe".into()), b.clone(), key, tag, s("by".into()), MVal::Int(1)];
        let scan = [&args[..], &probe, &[s("sum".into()), b.clone()]].concat();
        let out = call(&r, ("aggr", "scan"), &c, &scan);
        let cells = |v: &MVal| v.as_bat().unwrap().tail().iter_vals().collect::<Vec<_>>();
        assert_eq!(cells(&out[0]), [Val::from("q"), Val::from("p"), Val::from("r")]);
        assert_eq!(cells(&out[1]), [Val::Lng(5), Val::Lng(3), Val::Lng(3)]);
        // A build column the probe stage does not list is refused.
        let scan = [&args[..], &probe[..4], &[s("by".into()), MVal::Int(2)]].concat();
        assert!((r.lookup("aggr", "scan").unwrap())(&c, &scan).is_err());
    }

    #[test]
    fn result_set_pipeline() {
        let r = Registry::standard();
        let c = ctx();
        let data = MVal::Bat(Arc::new(Bat::dense(Column::from(vec![9]))));
        let rs = call(&r, ("sql", "resultSet"), &c, &[MVal::Int(1), MVal::Int(1), data.clone()]);
        call(
            &r,
            ("sql", "rsCol"),
            &c,
            &[
                rs[0].clone(),
                MVal::Str("sys.c".into()),
                MVal::Str("t_id".into()),
                MVal::Str("int".into()),
                MVal::Int(32),
                MVal::Int(0),
                data,
            ],
        );
        let stream = call(&r, ("io", "stdout"), &c, &[]);
        call(&r, ("sql", "exportResult"), &c, &[stream[0].clone(), rs[0].clone()]);
        let out = c.take_output();
        assert!(out.contains("[ 9 ]"), "{out}");
    }

    #[test]
    fn export_publishes_typed_result() {
        let r = Registry::standard();
        let c = ctx();
        let data = MVal::Bat(Arc::new(Bat::dense(Column::from(vec![4, 5]))));
        let rs = call(&r, ("sql", "resultSet"), &c, &[MVal::Int(1), MVal::Int(1), data.clone()]);
        call(
            &r,
            ("sql", "rsCol"),
            &c,
            &[
                rs[0].clone(),
                MVal::Str("sys.t".into()),
                MVal::Str("id".into()),
                MVal::Str("int".into()),
                MVal::Int(32),
                MVal::Int(0),
                data,
            ],
        );
        let stream = call(&r, ("io", "stdout"), &c, &[]);
        call(&r, ("sql", "exportResult"), &c, &[stream[0].clone(), rs[0].clone()]);
        let typed = c.take_result();
        assert_eq!((typed.column_count(), typed.row_count()), (1, 2));
        assert_eq!(typed.columns[0].name, "id");
        assert_eq!(typed.columns[0].col_type(), batstore::ColType::Int);
        assert_eq!(typed.cell(1, 0), batstore::Val::Int(5));
        assert!(typed.affected.is_none() && typed.info.is_none());
    }

    #[test]
    fn create_append_select_through_local_hooks() {
        let r = Registry::standard();
        let c = ctx();
        call(
            &r,
            ("sql", "createTable"),
            &c,
            &[MVal::Str("sys".into()), MVal::Str("logs".into()), MVal::Str("k:int,msg:str".into())],
        );
        assert!(c.take_output().contains("created"));
        // Build row batches: k = [7, 8], msg = ["a", "b"].
        let k = call(
            &r,
            ("bat", "literal"),
            &c,
            &[MVal::Str("int".into()), MVal::Int(7), MVal::Int(8)],
        );
        let m = [MVal::Str("str".into()), MVal::Str("a".into()), MVal::Str("b".into())];
        let m = call(&r, ("bat", "literal"), &c, &m);
        call(
            &r,
            ("sql", "append"),
            &c,
            &[
                MVal::Str("sys".into()),
                MVal::Str("logs".into()),
                MVal::Str("k,msg".into()),
                k[0].clone(),
                m[0].clone(),
            ],
        );
        assert!(c.take_output().contains("2 rows affected"));
        // Visible through sql.bind.
        let out = call(
            &r,
            ("sql", "bind"),
            &c,
            &[
                MVal::Str("sys".into()),
                MVal::Str("logs".into()),
                MVal::Str("msg".into()),
                MVal::Int(0),
            ],
        );
        assert_eq!(out[0].as_bat().unwrap().count(), 2);
    }

    #[test]
    fn sql_update_and_delete_through_local_hooks() {
        let r = Registry::standard();
        let c = ctx();
        // `t` has id = [1, 2, 3].
        let upd =
            |args: &[MVal]| (r.lookup("sql", "update").unwrap())(&c, args).map(|_| c.take_result());
        let rs = upd(&[
            MVal::Str("sys".into()),
            MVal::Str("t".into()),
            MVal::Str("id".into()),
            MVal::Int(7),
            MVal::Str("cmp".into()),
            MVal::Str("id".into()),
            MVal::Str(">=".into()),
            MVal::Int(2),
        ])
        .unwrap();
        assert_eq!(rs.affected, Some(2));
        let rs = upd(&[
            MVal::Str("sys".into()),
            MVal::Str("t".into()),
            MVal::Str("id".into()),
            MVal::Int(0),
            MVal::Str("in".into()),
            MVal::Str("id".into()),
            MVal::Int(2),
            MVal::Int(1),
            MVal::Int(99),
        ])
        .unwrap();
        assert_eq!(rs.affected, Some(1), "IN (1, 99) hits only the untouched row");
        // DELETE with a between predicate removes both 7s.
        let out = (r.lookup("sql", "delete").unwrap())(
            &c,
            &[
                MVal::Str("sys".into()),
                MVal::Str("t".into()),
                MVal::Str("between".into()),
                MVal::Str("id".into()),
                MVal::Int(6),
                MVal::Int(8),
            ],
        );
        out.unwrap();
        assert_eq!(c.take_result().affected, Some(2));
        assert_eq!(c.catalog.read().table("sys", "t").unwrap().row_count, 1);
        // Malformed predicate encodings are loud.
        let bad = (r.lookup("sql", "delete").unwrap())(
            &c,
            &[MVal::Str("sys".into()), MVal::Str("t".into()), MVal::Str("frob".into())],
        );
        assert!(bad.is_err());
        let bad = (r.lookup("sql", "update").unwrap())(
            &c,
            &[MVal::Str("sys".into()), MVal::Str("t".into()), MVal::Str("".into()), MVal::Int(1)],
        );
        assert!(bad.is_err(), "empty assignment list");
    }

    #[test]
    fn append_arity_and_type_errors() {
        let r = Registry::standard();
        let c = ctx();
        let b = MVal::Bat(Arc::new(Bat::dense(Column::from(vec![1]))));
        // Name count mismatch.
        let e = (r.lookup("sql", "append").unwrap())(
            &c,
            &[MVal::Str("sys".into()), MVal::Str("t".into()), MVal::Str("a,b".into()), b],
        );
        assert!(e.is_err());
        // bat.literal with a bogus type, and with a value of another.
        let literal = r.lookup("bat", "literal").unwrap();
        assert!(literal(&c, &[MVal::Str("nope".into())]).is_err());
        assert!(literal(&c, &[MVal::Str("int".into()), MVal::Str("x".into())]).is_err());
    }

    #[test]
    fn unknown_function_is_none() {
        let r = Registry::standard();
        assert!(r.lookup("no", "such").is_none());
    }

    #[test]
    fn int_constant_narrowing_matches_int_columns() {
        let r = Registry::standard();
        let c = ctx();
        let b = MVal::Bat(Arc::new(Bat::dense(Column::from(vec![1, 2, 3]))));
        let out = call(&r, ("algebra", "uselect"), &c, &[b, MVal::Int(2)]);
        assert_eq!(out[0].as_bat().unwrap().count(), 1);
    }
}
