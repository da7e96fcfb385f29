//! The MAL interpreter.
//!
//! One mode: "The MAL program is interpreted in a linear fashion. The
//! overhead of the interpreter is kept low, well below one µsec per
//! instruction" (§3.2) — the micro benchmark checks ours is. A ring node
//! runs every statement this way ([`run_sequential_bound`] with the
//! statement's binding), on the thread that executes it.
//!
//! §4.1's second mode, "concurrent interpreter threads following the
//! dataflow dependencies", is not built: the DC optimizer sends every
//! `request` before the first `pin`, so a statement's pins wait for the
//! ring side by side on one thread, and `every_request_precedes_the_first_pin`
//! (`tests/end_to_end_sql.rs`) holds every plan to that order.
//!
//! An intermediate is freed as soon as its last reader has run (§4.1:
//! `unpin` "releases the BAT"): the environment gives the value up and it
//! is dropped there and then, so a statement's resident set is what is
//! still *live*, not the sum of everything it computed.

use crate::ast::{Arg, Const, Instr, Program};
use crate::context::SessionCtx;
use crate::error::{MalError, Result};
use crate::modules::Registry;
use crate::value::MVal;

/// Variable environment after a successful run; index by `VarId`. It
/// holds what is still live then: a value every reader of which has run
/// was freed on the way.
pub type Env = Vec<Option<MVal>>;

fn const_val(c: &Const) -> MVal {
    match c {
        Const::Int(v) => MVal::Int(*v),
        Const::Dbl(v) => MVal::Dbl(*v),
        Const::Str(s) => MVal::Str(s.clone()),
        Const::Oid(o) => MVal::Oid(*o),
        Const::Nil => MVal::Void,
    }
}

/// A binding must fill exactly the slots the plan was compiled with.
fn check_binding(prog: &Program, params: &[Const]) -> Result<()> {
    if params.len() == prog.params.len() {
        return Ok(());
    }
    Err(MalError::BadCall(format!(
        "{}.{} has {} parameter slots, {} values bound",
        prog.module,
        prog.name,
        prog.params.len(),
        params.len()
    )))
}

fn resolve_args(
    instr: &Instr,
    env: &[Option<MVal>],
    prog: &Program,
    params: &[Const],
) -> Result<Vec<MVal>> {
    instr
        .args
        .iter()
        .map(|a| match a {
            Arg::Var(v) => env[v.0 as usize]
                .clone()
                .ok_or_else(|| MalError::Undefined(prog.var_name(*v).to_string())),
            Arg::Const(c) => Ok(const_val(c)),
            Arg::Param(slot) => params
                .get(*slot as usize)
                .map(const_val)
                .ok_or_else(|| MalError::Undefined(format!("A{slot}"))),
        })
        .collect()
}

/// How many argument positions of the plan read each variable.
fn reader_counts(prog: &Program) -> Vec<u32> {
    let mut readers = vec![0u32; prog.vars.len()];
    for v in prog.instrs.iter().flat_map(Instr::uses) {
        readers[v.0 as usize] += 1;
    }
    readers
}

/// `instr` has run: bind `outs` to its targets and count its reads as
/// done, dropping every value the plan has thereby finished with — an
/// argument this was the last reader of (bare calls read too), a result
/// nobody reads, a value a target displaced.
fn complete(
    instr: &Instr,
    outs: Vec<MVal>,
    env: &mut [Option<MVal>],
    readers: &mut [u32],
) -> Result<()> {
    if outs.len() < instr.targets.len() {
        return Err(MalError::BadCall(format!(
            "{} returned {} values for {} targets",
            instr.qualified_name(),
            outs.len(),
            instr.targets.len()
        )));
    }
    for (t, v) in instr.targets.iter().zip(outs) {
        let t = t.0 as usize;
        env[t] = (readers[t] > 0).then_some(v);
    }
    for v in instr.uses() {
        let left = &mut readers[v.0 as usize];
        *left -= 1;
        if *left == 0 {
            env[v.0 as usize] = None;
        }
    }
    Ok(())
}

/// Linear interpretation with the standard registry and the plan's own
/// parameter bindings.
pub fn run_sequential(prog: &Program, ctx: &SessionCtx) -> Result<Env> {
    run_sequential_with(prog, &prog.params, ctx, Registry::shared())
}

/// [`run_sequential`] with `params` bound to the plan's slots in place of
/// its own: how a cached query template (§3.2) runs another statement of
/// the same shape, and how a node runs every statement.
pub fn run_sequential_bound(prog: &Program, params: &[Const], ctx: &SessionCtx) -> Result<Env> {
    run_sequential_with(prog, params, ctx, Registry::shared())
}

pub fn run_sequential_with(
    prog: &Program,
    params: &[Const],
    ctx: &SessionCtx,
    registry: &Registry,
) -> Result<Env> {
    check_binding(prog, params)?;
    let mut env: Env = vec![None; prog.vars.len()];
    let mut readers = reader_counts(prog);
    for instr in &prog.instrs {
        let f = registry
            .lookup(&instr.module, &instr.func)
            .ok_or_else(|| MalError::UnknownFunction(instr.qualified_name()))?;
        let args = resolve_args(instr, &env, prog, params)?;
        let outs = f(ctx, &args)?;
        // The argument clones go first, so a value whose last reader
        // this was is freed by the line after.
        drop(args);
        complete(instr, outs, &mut env, &mut readers)?;
    }
    Ok(env)
}

/// [`run_sequential`] under its former dataflow name; `threads` is
/// ignored. Kept only for the ledger's single-node reference, which is
/// to call [`run_sequential`] and retire this alias.
pub fn run_dataflow(prog: &Program, ctx: &SessionCtx, _threads: usize) -> Result<Env> {
    run_sequential(prog, ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::paper_table1;
    use batstore::{BatStore, Catalog, Column};
    use parking_lot::{Mutex, RwLock};
    use std::sync::Arc;

    fn paper_ctx() -> SessionCtx {
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
                vec![("t_id", Column::from(vec![2, 2, 3, 9]))],
            )
            .unwrap();
        SessionCtx::new(Arc::new(RwLock::new(catalog)), Arc::new(RwLock::new(store)))
    }

    #[test]
    fn paper_plan_runs_sequentially() {
        let prog = paper_table1();
        let ctx = paper_ctx();
        run_sequential(&prog, &ctx).unwrap();
        let out = ctx.take_output();
        // select c.t_id from t, c where c.t_id = t.id → 2, 2, 3.
        assert!(out.contains("[ 2 ]"), "{out}");
        assert!(out.contains("[ 3 ]"), "{out}");
        assert_eq!(out.matches("[ 2 ]").count(), 2, "{out}");
    }

    /// `X1 := test.make(); X2 := test.len(X1); test.gone(X2);` over a
    /// registry whose `make` keeps a `Weak` to the BAT it returns and
    /// whose `gone` succeeds once that BAT has been freed. `gone` is the
    /// plan's last instruction, so it can only succeed if the interpreter
    /// released `X1` after `test.len` — its last reader — and not when
    /// the environment is dropped on return.
    fn weak_plan() -> (Program, Registry) {
        use std::sync::Weak;
        let made: Arc<Mutex<Weak<batstore::Bat>>> = Arc::new(Mutex::new(Weak::new()));
        let mut registry = Registry::standard();
        let slot = Arc::clone(&made);
        registry.register("test", "make", move |_, _| {
            let bat = Arc::new(batstore::Bat::dense(Column::from(vec![1, 2, 3])));
            *slot.lock() = Arc::downgrade(&bat);
            Ok(vec![MVal::Bat(bat)])
        });
        registry.register("test", "len", |_, args| {
            Ok(vec![MVal::Int(args[0].as_bat().expect("a BAT").count() as i64)])
        });
        registry.register("test", "gone", move |_, _| match made.lock().upgrade() {
            Some(_) => {
                Err(MalError::Exec("intermediate still alive at the last instruction".into()))
            }
            None => Ok(vec![]),
        });
        let mut prog = Program::new("user", "q");
        let (x1, x2) = (prog.var("X1"), prog.var("X2"));
        prog.push(Instr::assign(x1, "test", "make", vec![]));
        prog.push(Instr::assign(x2, "test", "len", vec![Arg::Var(x1)]));
        prog.push(Instr::call("test", "gone", vec![Arg::Var(x2)]));
        (prog, registry)
    }

    #[test]
    fn intermediate_is_freed_after_its_last_reader() {
        let ctx = paper_ctx();
        let (prog, registry) = weak_plan();
        let env = run_sequential_with(&prog, &[], &ctx, &registry).unwrap();
        assert!(env.iter().all(Option::is_none), "every value had a last reader");
    }

    #[test]
    fn unread_results_are_dropped_and_live_ones_returned() {
        // X1 is read by nothing and goes at once; nothing is left over.
        let mut prog = Program::new("user", "q");
        let x1 = prog.var("X1");
        let literal = vec![Arg::Const(Const::Str("int".into())), Arg::Const(Const::Int(7))];
        prog.push(Instr::assign(x1, "bat", "literal", literal));
        let ctx = paper_ctx();
        assert_eq!(reader_counts(&prog), vec![0]);
        assert!(run_sequential(&prog, &ctx).unwrap()[0].is_none());
        // A value read twice by one instruction is counted twice and
        // released once, after that instruction.
        let x2 = prog.var("X2");
        prog.push(Instr::assign(x2, "algebra", "kunion", vec![Arg::Var(x1), Arg::Var(x1)]));
        prog.push(Instr::call("io", "print", vec![Arg::Var(x2)]));
        assert_eq!(reader_counts(&prog), vec![2, 1]);
        assert!(run_sequential(&prog, &ctx).unwrap().iter().all(Option::is_none));
        assert_eq!(ctx.take_output().matches("[ 0@0, 7 ]").count(), 1);
    }

    #[test]
    fn unknown_function_reported() {
        let mut prog = Program::new("user", "q");
        let x1 = prog.var("X1");
        prog.push(Instr::assign(x1, "no", "such", vec![Arg::Const(Const::Int(1))]));
        let ctx = paper_ctx();
        let e = run_sequential(&prog, &ctx).unwrap_err();
        assert!(matches!(e, MalError::UnknownFunction(_)));
    }

    #[test]
    fn undefined_variable_reported() {
        let mut prog = Program::new("user", "q");
        let (x1, ghost) = (prog.var("X1"), prog.var("Xghost"));
        prog.push(Instr::assign(x1, "bat", "reverse", vec![Arg::Var(ghost)]));
        let ctx = paper_ctx();
        assert!(matches!(run_sequential(&prog, &ctx).unwrap_err(), MalError::Undefined(_)));
    }

    #[test]
    fn parameter_slots_bind_per_run() {
        // select id from t where id >= A0, printed: the plan's own binding
        // by default, another vector of the same length on request.
        let mut prog = Program::new("user", "q");
        let (b, sel) = (prog.var("X1"), prog.var("X2"));
        let name = |s: &str| Arg::Const(Const::Str(s.into()));
        prog.push(Instr::assign(
            b,
            "sql",
            "bind",
            vec![name("sys"), name("t"), name("id"), Arg::Const(Const::Int(0))],
        ));
        prog.push(Instr::assign(
            sel,
            "algebra",
            "thetauselect",
            vec![Arg::Var(b), Arg::Param(0), name(">=")],
        ));
        prog.push(Instr::call("io", "print", vec![Arg::Var(sel)]));
        prog.params = vec![Const::Int(3)];

        let rows =
            |ctx: &SessionCtx| ctx.take_output().lines().filter(|l| l.starts_with('[')).count();
        let ctx = paper_ctx();
        run_sequential(&prog, &ctx).unwrap();
        assert_eq!(rows(&ctx), 1, "id >= 3");
        run_sequential_bound(&prog, &[Const::Int(2)], &ctx).unwrap();
        assert_eq!(rows(&ctx), 2, "id >= 2, bound over the default");
        assert_eq!(prog.params, vec![Const::Int(3)], "binding leaves the template alone");
        // A binding fills exactly the plan's slots.
        for bad in [&[][..], &[Const::Int(1), Const::Int(2)][..]] {
            let e = run_sequential_bound(&prog, bad, &ctx).unwrap_err();
            assert!(matches!(e, MalError::BadCall(_)), "{e}");
        }
    }

    #[test]
    fn empty_program() {
        let prog = Program::new("user", "q");
        let ctx = paper_ctx();
        assert!(run_sequential(&prog, &ctx).unwrap().is_empty());
    }
}
