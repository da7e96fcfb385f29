//! Plan optimizers.
//!
//! [`dc_optimize`] is the Data Cyclotron optimizer of paper §4.1: it
//! rewrites every `sql.bind` into a non-blocking `datacyclotron.request`
//! hoisted to the top of the plan, injects a blocking `datacyclotron.pin`
//! immediately before the first use of each bound variable, and appends
//! `datacyclotron.unpin` releases. Applied to the paper's Table 1 plan it
//! reproduces Table 2 — including the variable numbering, because fresh
//! variables take the lowest unused `X<n>` slots exactly as MonetDB's
//! optimizer does.

use crate::ast::{Arg, Instr, Program, VarId};
use std::collections::HashMap;

// Re-exported alongside dc_optimize in lib.rs.

/// Rewrite a plan to fetch its persistent BATs through the Data Cyclotron.
pub fn dc_optimize(prog: &Program) -> Program {
    let mut out = prog.empty_like();

    // Pass 1: find binds, allocate request-ticket variables, and hoist the
    // request calls ("The optimizer replaces each BAT bind call by a
    // request() call and keeps a list of all outstanding BAT requests").
    let mut ticket_of: HashMap<VarId, VarId> = HashMap::new(); // bound var → ticket var
    for instr in &prog.instrs {
        if instr.is("sql", "bind") {
            if let Some(&target) = instr.targets.first() {
                let ticket = out.fresh_var();
                ticket_of.insert(target, ticket);
                out.push(Instr::assign(ticket, "datacyclotron", "request", instr.args.clone()));
            }
        }
    }

    // Pass 2: copy the remaining instructions; before the first use of a
    // bound variable, inject its pin. Track pin order for the unpins.
    let mut pinned: Vec<VarId> = Vec::new();
    for instr in &prog.instrs {
        if instr.is("sql", "bind") {
            continue;
        }
        for used in instr.uses().collect::<Vec<_>>() {
            if let Some(&ticket) = ticket_of.get(&used) {
                if !pinned.contains(&used) {
                    out.push(Instr::assign(used, "datacyclotron", "pin", vec![Arg::Var(ticket)]));
                    pinned.push(used);
                }
            }
        }
        out.push(instr.clone());
    }

    // Pass 3: release the fragments. The paper's example places all
    // unpins at the end of the plan (intermediates may alias the pinned
    // regions zero-copy), in pin order.
    for v in pinned {
        out.push(Instr::call("datacyclotron", "unpin", vec![Arg::Var(v)]));
    }

    // Binds that were never used still got a request (pure prefetch); a
    // dead-code pass can drop them if undesired.
    out
}

/// Common-subexpression elimination: two pure instructions with the same
/// function and (resolved) arguments compute the same value, so the
/// second reuses the first's target. The canonical key doubles as the
/// *plan signature* that §6.2 intermediate-result publication uses to
/// recognize shareable fragments across queries.
///
/// Only pure modules participate — `sql`, `io` and `datacyclotron` calls
/// have effects (or, for `pin`, blocking semantics) and are never merged.
pub fn common_subexpression_eliminate(prog: &Program) -> Program {
    const PURE_MODULES: &[&str] = &["bat", "algebra", "aggr"];
    let mut out = prog.empty_like();
    // Value numbering: canonical expression text → the vars holding it.
    let mut value_of: HashMap<String, Vec<VarId>> = HashMap::new();
    // Current substitution for each var (identity unless merged).
    let mut subst: Vec<VarId> = (0..prog.vars.len() as u32).map(VarId).collect();

    for instr in &prog.instrs {
        let mut i = instr.clone();
        for a in &mut i.args {
            if let Arg::Var(v) = a {
                *a = Arg::Var(subst[v.0 as usize]);
            }
        }
        let pure = PURE_MODULES.contains(&i.module.as_str());
        if pure && !i.targets.is_empty() {
            let key = expression_key(&i, &out);
            if let Some(prior) = value_of.get(&key) {
                if prior.len() == i.targets.len() {
                    for (t, p) in i.targets.iter().zip(prior) {
                        subst[t.0 as usize] = *p;
                    }
                    continue; // drop the duplicate computation
                }
            }
            value_of.insert(key, i.targets.clone());
        }
        out.push(i);
    }
    out
}

/// Canonical text of one instruction for value numbering / §6.2 plan
/// signatures: `module.func(arg,…)` with variables printed by name.
pub fn expression_key(instr: &Instr, prog: &Program) -> String {
    use std::fmt::Write;
    let mut s = format!("{}.{}(", instr.module, instr.func);
    for (k, a) in instr.args.iter().enumerate() {
        if k > 0 {
            s.push(',');
        }
        match a {
            Arg::Var(v) => {
                let _ = write!(s, "{}", prog.var_name(*v));
            }
            Arg::Const(c) => {
                let _ = write!(s, "{c}");
            }
            // By slot, never by bound value: a merge must hold for every
            // binding the template is later run with.
            Arg::Param(slot) => {
                let _ = write!(s, "A{slot}");
            }
        }
    }
    s.push(')');
    s
}

/// Remove assignments whose targets are never read, keeping calls with
/// side effects. Standard backward liveness over the straight-line plan.
pub fn dead_code_eliminate(prog: &Program) -> Program {
    const EFFECTFUL_MODULES: &[&str] = &["sql", "io", "datacyclotron"];
    let mut live = vec![false; prog.vars.len()];
    let mut keep = vec![false; prog.instrs.len()];

    for (i, instr) in prog.instrs.iter().enumerate().rev() {
        let effectful =
            instr.targets.is_empty() || EFFECTFUL_MODULES.contains(&instr.module.as_str());
        let needed = effectful || instr.targets.iter().any(|t| live[t.0 as usize]);
        if needed {
            keep[i] = true;
            for v in instr.uses() {
                live[v.0 as usize] = true;
            }
        }
    }

    let mut out = prog.empty_like();
    for (i, instr) in prog.instrs.iter().enumerate() {
        if keep[i] {
            out.push(instr.clone());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{paper_table1, Const};

    /// The paper's Table 1, as the printer writes it.
    const TABLE1: &str = r#"function user.s1_2():void;
    X1 := sql.bind("sys", "t", "id", 0);
    X6 := sql.bind("sys", "c", "t_id", 0);
    X9 := bat.reverse(X6);
    X10 := algebra.join(X1, X9);
    X13 := algebra.markT(X10, 0@0);
    X14 := bat.reverse(X13);
    X15 := algebra.join(X14, X1);
    X16 := sql.resultSet(1, 1, X15);
    sql.rsCol(X16, "sys.c", "t_id", "int", 32, 0, X15);
    X22 := io.stdout();
    sql.exportResult(X22, X16);
end s1_2;
"#;

    /// The paper's Table 2: the Table 1 plan after the DC optimizer.
    const TABLE2: &str = r#"function user.s1_2():void;
    X2 := datacyclotron.request("sys", "t", "id", 0);
    X3 := datacyclotron.request("sys", "c", "t_id", 0);
    X6 := datacyclotron.pin(X3);
    X9 := bat.reverse(X6);
    X1 := datacyclotron.pin(X2);
    X10 := algebra.join(X1, X9);
    X13 := algebra.markT(X10, 0@0);
    X14 := bat.reverse(X13);
    X15 := algebra.join(X14, X1);
    X16 := sql.resultSet(1, 1, X15);
    sql.rsCol(X16, "sys.c", "t_id", "int", 32, 0, X15);
    X22 := io.stdout();
    sql.exportResult(X22, X16);
    datacyclotron.unpin(X6);
    datacyclotron.unpin(X1);
end s1_2;
"#;

    /// `target := sql.bind("sys", "t", "id", 0)`.
    fn bind(p: &mut Program, target: &str) -> VarId {
        let x = p.var(target);
        let s = |v: &str| Arg::Const(Const::Str(v.into()));
        let args = vec![s("sys"), s("t"), s("id"), Arg::Const(Const::Int(0))];
        p.push(Instr::assign(x, "sql", "bind", args));
        x
    }

    /// `target := module.func(args…)` over variables.
    fn call(p: &mut Program, target: &str, module: &str, func: &str, args: &[VarId]) -> VarId {
        let x = p.var(target);
        p.push(Instr::assign(x, module, func, args.iter().map(|&a| Arg::Var(a)).collect()));
        x
    }

    fn print(p: &mut Program, v: VarId) {
        p.push(Instr::call("io", "print", vec![Arg::Var(v)]));
    }

    #[test]
    fn reproduces_paper_table2_exactly() {
        assert_eq!(paper_table1().to_string(), TABLE1);
        assert_eq!(dc_optimize(&paper_table1()).to_string(), TABLE2);
    }

    #[test]
    fn requests_hoisted_and_nonblocking_first() {
        let optimized = dc_optimize(&paper_table1());
        assert!(optimized.instrs[0].is("datacyclotron", "request"));
        assert!(optimized.instrs[1].is("datacyclotron", "request"));
    }

    #[test]
    fn pin_before_first_use() {
        let optimized = dc_optimize(&paper_table1());
        let pin_x6 = optimized
            .instrs
            .iter()
            .position(|i| i.is("datacyclotron", "pin") && optimized.var_name(i.targets[0]) == "X6")
            .unwrap();
        let use_x6 = optimized.instrs.iter().position(|i| i.is("bat", "reverse")).unwrap();
        assert_eq!(pin_x6 + 1, use_x6, "pin must immediately precede first use");
    }

    #[test]
    fn unpins_at_end_in_pin_order() {
        let optimized = dc_optimize(&paper_table1());
        let n = optimized.len();
        assert!(optimized.instrs[n - 2].is("datacyclotron", "unpin"));
        assert!(optimized.instrs[n - 1].is("datacyclotron", "unpin"));
        let arg_name = |i: &Instr| match &i.args[0] {
            Arg::Var(v) => optimized.var_name(*v).to_string(),
            _ => panic!(),
        };
        assert_eq!(arg_name(&optimized.instrs[n - 2]), "X6");
        assert_eq!(arg_name(&optimized.instrs[n - 1]), "X1");
    }

    #[test]
    fn unused_bind_becomes_prefetch_without_pin() {
        let mut p = Program::new("user", "q");
        bind(&mut p, "X1");
        call(&mut p, "X9", "io", "stdout", &[]);
        let o = dc_optimize(&p);
        assert!(o.instrs.iter().any(|i| i.is("datacyclotron", "request")));
        assert!(!o.instrs.iter().any(|i| i.is("datacyclotron", "pin")));
        assert!(!o.instrs.iter().any(|i| i.is("datacyclotron", "unpin")));
    }

    #[test]
    fn idempotent_on_plans_without_binds() {
        let mut p = Program::new("user", "q");
        call(&mut p, "X1", "io", "stdout", &[]);
        assert_eq!(dc_optimize(&p), p);
    }

    #[test]
    fn dce_removes_dead_pure_code() {
        let mut p = Program::new("user", "q");
        let x0 = call(&mut p, "X0", "io", "stdout", &[]);
        call(&mut p, "X1", "bat", "reverse", &[x0]);
        print(&mut p, x0);
        let o = dead_code_eliminate(&p);
        // bat.reverse(X0) assigns X1 which nobody reads → dropped.
        assert_eq!(o.len(), 2, "{o}");
        assert!(!o.instrs.iter().any(|i| i.is("bat", "reverse")));
    }

    #[test]
    fn dce_keeps_effectful_calls() {
        let p = paper_table1();
        assert_eq!(dead_code_eliminate(&p), p, "paper plan has no dead code");
    }

    #[test]
    fn cse_merges_duplicate_pure_work() {
        let mut p = Program::new("user", "q");
        let x0 = bind(&mut p, "X0");
        let x1 = call(&mut p, "X1", "bat", "reverse", &[x0]);
        let x2 = call(&mut p, "X2", "bat", "reverse", &[x0]);
        let x3 = call(&mut p, "X3", "algebra", "join", &[x1, x2]);
        print(&mut p, x3);
        let o = common_subexpression_eliminate(&p);
        assert_eq!(o.len(), p.len() - 1, "one duplicate reverse removed:\n{o}");
        // The join now references X1 twice.
        let join = o.instrs.iter().find(|i| i.is("algebra", "join")).unwrap();
        assert_eq!(join.args[0], join.args[1]);
    }

    #[test]
    fn cse_transitive_through_substitution() {
        // X2 duplicates X1; X4 duplicates X3 only *after* X2 → X1.
        let mut p = Program::new("user", "q");
        let x0 = bind(&mut p, "X0");
        let x1 = call(&mut p, "X1", "bat", "reverse", &[x0]);
        let x2 = call(&mut p, "X2", "bat", "reverse", &[x0]);
        let (x3, x4) = (p.var("X3"), p.var("X4"));
        let oid0 = Arg::Const(Const::Oid(0));
        p.push(Instr::assign(x3, "algebra", "markT", vec![Arg::Var(x1), oid0.clone()]));
        p.push(Instr::assign(x4, "algebra", "markT", vec![Arg::Var(x2), oid0]));
        print(&mut p, x3);
        print(&mut p, x4);
        let o = common_subexpression_eliminate(&p);
        assert_eq!(o.len(), p.len() - 2, "{o}");
    }

    #[test]
    fn cse_merges_parameters_by_slot_not_by_value() {
        // A0 and A1 are bound to the same value today; a later binding of
        // the template may differ, so only the repeated A0 may merge.
        let mut p = Program::new("user", "q");
        let ty = || Arg::Const(Const::Str("int".into()));
        let (a, b, c) = (p.var("X1"), p.var("X2"), p.var("X3"));
        p.params = vec![Const::Int(7), Const::Int(7)];
        p.push(Instr::assign(a, "bat", "literal", vec![ty(), Arg::Param(0)]));
        p.push(Instr::assign(b, "bat", "literal", vec![ty(), Arg::Param(1)]));
        p.push(Instr::assign(c, "bat", "literal", vec![ty(), Arg::Param(0)]));
        p.push(Instr::call("io", "print", vec![Arg::Var(a), Arg::Var(b), Arg::Var(c)]));
        let o = common_subexpression_eliminate(&p);
        assert_eq!(o.len(), p.len() - 1, "{o}");
        assert_eq!(o.instrs[2].args, vec![Arg::Var(a), Arg::Var(b), Arg::Var(a)]);
        assert_eq!(o.params, p.params, "rewrites keep the bindings");
        assert_eq!(dc_optimize(&o).params, p.params);
        assert_eq!(dead_code_eliminate(&o).params, p.params);
    }

    #[test]
    fn cse_never_merges_effectful_or_dc_calls() {
        let mut p = Program::new("user", "q");
        let x0 = bind(&mut p, "X0");
        let x1 = bind(&mut p, "X1");
        let x2 = call(&mut p, "X2", "io", "stdout", &[]);
        let x3 = call(&mut p, "X3", "io", "stdout", &[]);
        for x in [x0, x1, x2, x3] {
            print(&mut p, x);
        }
        let o = common_subexpression_eliminate(&p);
        assert_eq!(o.len(), p.len(), "sql/io calls must never merge");
    }

    #[test]
    fn cse_preserves_semantics_on_generated_plans() {
        // The paper's plan has no duplicates; CSE must be a no-op.
        let p = paper_table1();
        assert_eq!(common_subexpression_eliminate(&p), p);
    }

    #[test]
    fn expression_key_is_stable_signature() {
        let mut p = Program::new("user", "q");
        let a = p.var("Xa");
        let t = p.var("Xt");
        let i = Instr::assign(t, "algebra", "join", vec![Arg::Var(a), Arg::Const(Const::Oid(0))]);
        assert_eq!(expression_key(&i, &p), "algebra.join(Xa,0@0)");
    }
}
