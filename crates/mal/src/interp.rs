//! The MAL interpreter.
//!
//! Two execution modes, matching the paper:
//! * [`run_sequential`] — "The MAL program is interpreted in a linear
//!   fashion. The overhead of the interpreter is kept low, well below one
//!   µsec per instruction" (§3.2) — the micro benchmark checks ours is.
//!   A ring node runs every statement this way ([`run_sequential_bound`]
//!   with the statement's binding), on the thread that executes it: the
//!   DC optimizer sends every `request` before the first `pin`, so the
//!   pins' ring waits overlap one another without a worker thread.
//! * [`run_dataflow`] — "The MAL plan is executed using concurrent
//!   interpreter threads following the dataflow dependencies" (§4.1).
//!   Blocking `pin` calls park only their worker; independent instruction
//!   threads keep running, which is exactly how query execution overlaps
//!   with ring data arrival. The calling thread and `threads - 1` workers
//!   started with it take ready instructions under one lock. Single-node
//!   references and tests call it; the engine does not.
//!
//! Both modes free an intermediate as soon as its last reader has run
//! (§4.1: `unpin` "releases the BAT"): the environment gives the value up
//! and it is dropped there and then, so a statement's resident set is
//! what is still *live*, not the sum of everything it computed.

use crate::ast::{Arg, Const, Instr, Program};
use crate::context::SessionCtx;
use crate::error::{MalError, Result};
use crate::modules::Registry;
use crate::value::MVal;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;

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
/// done. Returns every value the plan has thereby finished with — an
/// argument this was the last reader of (bare calls read too), a result
/// nobody reads, a value a target displaced — for the caller to drop
/// once it holds no lock.
fn complete(
    instr: &Instr,
    outs: Vec<MVal>,
    env: &mut [Option<MVal>],
    readers: &mut [u32],
) -> Result<Vec<MVal>> {
    if outs.len() < instr.targets.len() {
        return Err(MalError::BadCall(format!(
            "{} returned {} values for {} targets",
            instr.qualified_name(),
            outs.len(),
            instr.targets.len()
        )));
    }
    let mut dead = Vec::new();
    for (t, v) in instr.targets.iter().zip(outs) {
        let slot = &mut env[t.0 as usize];
        dead.extend(slot.replace(v));
        if readers[t.0 as usize] == 0 {
            dead.extend(slot.take());
        }
    }
    for v in instr.uses() {
        let left = &mut readers[v.0 as usize];
        *left -= 1;
        if *left == 0 {
            dead.extend(env[v.0 as usize].take());
        }
    }
    Ok(dead)
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
        drop(complete(instr, outs, &mut env, &mut readers)?);
    }
    Ok(env)
}

/// Dependency edges between instructions, honoring both true (read-after-
/// write) and anti (write-after-read) dependencies. Bare calls — calls
/// without targets, like `sql.rsCol(X16, …)` or `datacyclotron.unpin(X6)`
/// — are treated as writers of their variable arguments, since they
/// mutate or release the value behind them.
fn dependencies(prog: &Program) -> Vec<Vec<usize>> {
    let nvars = prog.vars.len();
    let mut last_writer: Vec<Option<usize>> = vec![None; nvars];
    let mut readers_since: Vec<Vec<usize>> = vec![Vec::new(); nvars];
    let mut deps: Vec<Vec<usize>> = vec![Vec::new(); prog.instrs.len()];

    for (i, instr) in prog.instrs.iter().enumerate() {
        let mut dep = Vec::new();
        for v in instr.uses() {
            if let Some(w) = last_writer[v.0 as usize] {
                dep.push(w);
            }
            readers_since[v.0 as usize].push(i);
        }
        let is_bare = instr.targets.is_empty();
        if is_bare {
            // Anti-dependencies: run after every prior reader of each arg.
            for v in instr.uses() {
                for &r in &readers_since[v.0 as usize] {
                    if r != i {
                        dep.push(r);
                    }
                }
                last_writer[v.0 as usize] = Some(i);
                readers_since[v.0 as usize].clear();
            }
        }
        for t in &instr.targets {
            last_writer[t.0 as usize] = Some(i);
            readers_since[t.0 as usize].clear();
        }
        dep.sort_unstable();
        dep.dedup();
        deps[i] = dep;
    }
    deps
}

struct Shared {
    state: Mutex<SchedState>,
    cond: Condvar,
}

impl Shared {
    /// End the run with `e`: every worker leaves at its next look.
    fn fail(&self, st: &mut SchedState, e: MalError) {
        st.error = Some(e);
        self.cond.notify_all();
    }
}

struct SchedState {
    env: Env,
    /// Reads of each variable still to come (see [`complete`]).
    readers: Vec<u32>,
    /// Dependencies of each instruction that have not run yet.
    remaining: Vec<usize>,
    ready: VecDeque<usize>,
    /// Instructions being executed right now.
    inflight: usize,
    completed: usize,
    error: Option<MalError>,
}

/// Dataflow-parallel interpretation with the standard registry and the
/// plan's own parameter bindings.
pub fn run_dataflow(prog: &Program, ctx: &SessionCtx, threads: usize) -> Result<Env> {
    run_dataflow_with(prog, &prog.params, ctx, Registry::shared(), threads)
}

/// The calling thread and `threads - 1` workers started beside it take
/// the next ready instruction in turn; at width 1 the plan runs linearly.
pub fn run_dataflow_with(
    prog: &Program,
    params: &[Const],
    ctx: &SessionCtx,
    registry: &Registry,
    threads: usize,
) -> Result<Env> {
    let n = prog.instrs.len();
    let threads = threads.min(n);
    if threads <= 1 {
        return run_sequential_with(prog, params, ctx, registry);
    }
    check_binding(prog, params)?;

    let deps = dependencies(prog);
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, dep) in deps.iter().enumerate() {
        for &d in dep {
            dependents[d].push(i);
        }
    }
    let remaining: Vec<usize> = deps.iter().map(Vec::len).collect();
    let ready: VecDeque<usize> = (0..n).filter(|&i| remaining[i] == 0).collect();

    let shared = Shared {
        state: Mutex::new(SchedState {
            env: vec![None; prog.vars.len()],
            readers: reader_counts(prog),
            remaining,
            ready,
            inflight: 0,
            completed: 0,
            error: None,
        }),
        cond: Condvar::new(),
    };
    let worker = || work(prog, params, ctx, registry, &dependents, &shared);
    std::thread::scope(|scope| {
        for _ in 1..threads {
            scope.spawn(worker);
        }
        worker();
    });

    let state = shared.state.into_inner();
    match state.error {
        Some(e) => Err(e),
        None => Ok(state.env),
    }
}

/// One worker of a dataflow run: take a ready instruction, run it with
/// the lock released, publish its results and whatever it made ready,
/// until the plan is done or has failed.
fn work(
    prog: &Program,
    params: &[Const],
    ctx: &SessionCtx,
    registry: &Registry,
    dependents: &[Vec<usize>],
    shared: &Shared,
) {
    let total = prog.instrs.len();
    loop {
        let (idx, args) = {
            let mut st = shared.state.lock();
            loop {
                if st.error.is_some() || st.completed == total {
                    return;
                }
                if let Some(idx) = st.ready.pop_front() {
                    match resolve_args(&prog.instrs[idx], &st.env, prog, params) {
                        Ok(args) => {
                            st.inflight += 1;
                            break (idx, args);
                        }
                        Err(e) => return shared.fail(&mut st, e),
                    }
                }
                // Nothing ready: if nothing is in flight either, the plan
                // has a dependency cycle (cannot happen for straight-line
                // MAL, but guard anyway).
                if st.inflight == 0 {
                    let e = MalError::Exec("dataflow stalled (cyclic plan?)".into());
                    return shared.fail(&mut st, e);
                }
                shared.cond.wait(&mut st);
            }
        };

        let instr = &prog.instrs[idx];
        let result = match registry.lookup(&instr.module, &instr.func) {
            Some(f) => f(ctx, &args),
            None => Err(MalError::UnknownFunction(instr.qualified_name())),
        };

        // Release the argument clones before queueing for the lock.
        drop(args);

        let mut guard = shared.state.lock();
        let st = &mut *guard;
        st.inflight -= 1;
        let dead = match result.and_then(|outs| complete(instr, outs, &mut st.env, &mut st.readers))
        {
            Ok(dead) => dead,
            Err(e) => return shared.fail(st, e),
        };
        st.completed += 1;
        let before = st.ready.len();
        for &d in &dependents[idx] {
            st.remaining[d] -= 1;
            if st.remaining[d] == 0 {
                st.ready.push_back(d);
            }
        }
        // Waiting workers wake for new work, or to leave once all is done.
        if st.ready.len() > before || st.completed == total {
            shared.cond.notify_all();
        }
        // Freeing a column is the allocator's time, not the scheduler's:
        // the other workers get the lock first.
        drop(guard);
        drop(dead);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::paper_table1;
    use batstore::{BatStore, Catalog, Column};
    use parking_lot::RwLock;
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

    #[test]
    fn paper_plan_runs_dataflow() {
        let prog = paper_table1();
        let ctx = paper_ctx();
        run_dataflow(&prog, &ctx, 4).unwrap();
        let out = ctx.take_output();
        assert_eq!(out.matches("[ 2 ]").count(), 2, "{out}");
        assert!(out.contains("[ 3 ]"), "{out}");
    }

    #[test]
    fn dataflow_matches_sequential_output() {
        let prog = paper_table1();
        let c1 = paper_ctx();
        run_sequential(&prog, &c1).unwrap();
        let c2 = paper_ctx();
        run_dataflow(&prog, &c2, 8).unwrap();
        assert_eq!(c1.take_output(), c2.take_output());
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
        registry.register("test", "gone", move |_, _| {
            // In dataflow mode the worker that retired `test.len` frees
            // the BAT just after it publishes this instruction as ready:
            // wait for it, but not for the end of the plan.
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            while made.lock().upgrade().is_some() {
                if std::time::Instant::now() > deadline {
                    return Err(MalError::Exec(
                        "intermediate still alive at the last instruction".into(),
                    ));
                }
                std::thread::yield_now();
            }
            Ok(vec![])
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
        let (prog, registry) = weak_plan();
        let env = run_dataflow_with(&prog, &[], &ctx, &registry, 3).unwrap();
        assert!(env.iter().all(Option::is_none));
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
        for env in [run_sequential(&prog, &ctx).unwrap(), run_dataflow(&prog, &ctx, 2).unwrap()] {
            assert!(env.iter().all(Option::is_none));
        }
        assert_eq!(ctx.take_output().matches("[ 0@0, 7 ]").count(), 2);
    }

    #[test]
    fn an_error_in_one_worker_releases_the_waiting_ones() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // One failing instruction and a chain that depends on it: while
        // it runs, every other worker waits on the condvar; the error
        // must wake them to exit, and start nothing further.
        let ran = Arc::new(AtomicUsize::new(0));
        let mut registry = Registry::standard();
        registry.register("test", "fail", |_, _| Err(MalError::Exec("boom".into())));
        let count = Arc::clone(&ran);
        registry.register("test", "after", move |_, _| {
            count.fetch_add(1, Ordering::SeqCst);
            Ok(vec![MVal::Int(0)])
        });
        let mut prog = Program::new("user", "q");
        let mut prev = prog.var("X0");
        prog.push(Instr::assign(prev, "test", "fail", vec![]));
        for i in 1..8 {
            let next = prog.var(&format!("X{i}"));
            prog.push(Instr::assign(next, "test", "after", vec![Arg::Var(prev)]));
            prev = next;
        }
        let e = run_dataflow_with(&prog, &[], &paper_ctx(), &registry, 4).unwrap_err();
        assert!(matches!(e, MalError::Exec(ref m) if m == "boom"), "{e}");
        assert_eq!(ran.load(Ordering::SeqCst), 0);
    }

    /// A registry with `test.src()` (no inputs), `test.step(x…)` and
    /// `test.meet(x…)`, which returns once two calls of it are running
    /// at the same time — or fails after ten seconds alone.
    fn meeting_registry() -> Registry {
        let mut registry = Registry::standard();
        registry.register("test", "src", |_, _| Ok(vec![MVal::Int(0)]));
        registry.register("test", "step", |_, _| Ok(vec![MVal::Int(0)]));
        let arrived = Arc::new((Mutex::new(0usize), Condvar::new()));
        registry.register("test", "meet", move |_, _| {
            let (count, cond) = &*arrived;
            let mut count = count.lock();
            *count += 1;
            cond.notify_all();
            while *count < 2 {
                if cond.wait_for(&mut count, std::time::Duration::from_secs(10)).timed_out() {
                    return Err(MalError::Exec("the other chain never ran beside this one".into()));
                }
            }
            Ok(vec![MVal::Int(0)])
        });
        registry
    }

    /// `X<i> := test.<func>(X<dep>…)` per entry.
    fn plan_of(instrs: &[(&str, &[usize])]) -> Program {
        let mut prog = Program::new("user", "q");
        let vars: Vec<_> = (0..instrs.len()).map(|i| prog.var(&format!("X{i}"))).collect();
        for (i, (func, deps)) in instrs.iter().enumerate() {
            let args = deps.iter().map(|&d| Arg::Var(vars[d])).collect();
            prog.push(Instr::assign(vars[i], "test", func, args));
        }
        prog
    }

    #[test]
    fn independent_chains_still_run_beside_each_other() {
        let registry = meeting_registry();
        // Two chains that share nothing; the second link of each waits
        // for the other chain's to be running.
        let prog = plan_of(&[
            ("src", &[]),
            ("src", &[]),
            ("meet", &[0]),
            ("meet", &[1]),
            ("step", &[2]),
            ("step", &[3]),
        ]);
        run_dataflow_with(&prog, &[], &paper_ctx(), &registry, 4).unwrap();
        // A blocked instruction parks only its worker: what becomes ready
        // behind it runs on another. Here the join of two branches, one
        // of which blocks until the other's work is running.
        let prog = plan_of(&[
            ("src", &[]),
            ("meet", &[0]),
            ("step", &[0]),
            ("meet", &[2]),
            ("step", &[1, 3]),
        ]);
        run_dataflow_with(&prog, &[], &paper_ctx(), &meeting_registry(), 4).unwrap();
        // At width 1 the same plan could never meet: it is not run here.
    }

    #[test]
    fn unknown_function_reported() {
        let mut prog = Program::new("user", "q");
        let x1 = prog.var("X1");
        prog.push(Instr::assign(x1, "no", "such", vec![Arg::Const(Const::Int(1))]));
        let ctx = paper_ctx();
        let e = run_sequential(&prog, &ctx).unwrap_err();
        assert!(matches!(e, MalError::UnknownFunction(_)));
        let e = run_dataflow(&prog, &ctx, 4).unwrap_err();
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
        run_dataflow(&prog, &ctx, 4).unwrap();
        assert_eq!(rows(&ctx), 1);
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
    fn dependencies_order_barecalls() {
        let prog = paper_table1();
        let deps = dependencies(&prog);
        // Instr 8 is sql.rsCol(X16, …) (bare); instr 10 is
        // sql.exportResult(X22, X16). exportResult must depend on rsCol.
        assert!(prog.instrs[8].is("sql", "rsCol"));
        assert!(prog.instrs[10].is("sql", "exportResult"));
        assert!(deps[10].contains(&8), "exportResult must run after rsCol: {:?}", deps[10]);
    }

    #[test]
    fn anti_dependency_for_unpin_like_calls() {
        // X1 defined; read by instr 1; bare call io.print(X1) at instr 2
        // must come after the reader at instr 1? No: print is a reader
        // itself; but a bare call is treated as a writer, so instr 2
        // depends on instr 1 (anti-dep), and instr 3 reading X1 depends
        // on instr 2.
        let mut prog = Program::new("user", "q");
        let (x1, x2) = (prog.var("X1"), prog.var("X2"));
        prog.push(Instr::assign(x1, "io", "stdout", vec![]));
        prog.push(Instr::assign(x2, "io", "stdout", vec![]));
        prog.push(Instr::call("io", "print", vec![Arg::Var(x1)]));
        prog.push(Instr::call("io", "print", vec![Arg::Var(x1)]));
        let deps = dependencies(&prog);
        assert_eq!(deps[2], vec![0]);
        assert!(deps[3].contains(&2), "second bare call ordered after first");
    }

    #[test]
    fn empty_program() {
        let prog = Program::new("user", "q");
        let ctx = paper_ctx();
        assert!(run_dataflow(&prog, &ctx, 4).unwrap().is_empty());
    }
}
