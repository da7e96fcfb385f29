//! MAL programs: a named function containing a straight line of
//! instructions `targets := module.func(args);`. Variables are indexed
//! into a per-program symbol table; printing reproduces the textual form
//! the paper shows in Tables 1 and 2.

use std::fmt;

/// Index into [`Program::vars`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct VarId(pub u32);

/// Literal constants appearing in plans.
#[derive(Clone, Debug, PartialEq)]
pub enum Const {
    Int(i64),
    Dbl(f64),
    Str(String),
    /// OID literal, printed `7@0`.
    Oid(u64),
    Nil,
}

impl fmt::Display for Const {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Const::Int(v) => write!(f, "{v}"),
            Const::Dbl(v) => write!(f, "{v:?}"),
            Const::Str(s) => write!(f, "\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\"")),
            Const::Oid(v) => write!(f, "{v}@0"),
            Const::Nil => write!(f, "nil"),
        }
    }
}

/// One instruction argument.
#[derive(Clone, Debug, PartialEq)]
pub enum Arg {
    Var(VarId),
    Const(Const),
    /// Parameter slot of a query template (§3.2), printed `A<slot>`: the
    /// value comes from the binding the plan runs with — by default
    /// [`Program::params`], the literals of the statement it was
    /// compiled from.
    Param(u32),
}

/// One instruction: zero or more targets assigned from a call.
#[derive(Clone, Debug, PartialEq)]
pub struct Instr {
    pub targets: Vec<VarId>,
    pub module: String,
    pub func: String,
    pub args: Vec<Arg>,
}

impl Instr {
    pub fn call(module: &str, func: &str, args: Vec<Arg>) -> Instr {
        Instr { targets: Vec::new(), module: module.into(), func: func.into(), args }
    }

    pub fn assign(target: VarId, module: &str, func: &str, args: Vec<Arg>) -> Instr {
        Instr { targets: vec![target], module: module.into(), func: func.into(), args }
    }

    pub fn qualified_name(&self) -> String {
        format!("{}.{}", self.module, self.func)
    }

    /// Variables this instruction reads.
    pub fn uses(&self) -> impl Iterator<Item = VarId> + '_ {
        self.args.iter().filter_map(|a| match a {
            Arg::Var(v) => Some(*v),
            Arg::Const(_) | Arg::Param(_) => None,
        })
    }

    pub fn is(&self, module: &str, func: &str) -> bool {
        self.module == module && self.func == func
    }
}

/// A MAL function.
#[derive(Clone, Debug, PartialEq)]
pub struct Program {
    /// Module of the function header (`user` in the paper's plans).
    pub module: String,
    /// Function name (`s1_2` in the paper's plans).
    pub name: String,
    /// Variable names; `VarId` indexes here.
    pub vars: Vec<String>,
    pub instrs: Vec<Instr>,
    /// Default binding of each [`Arg::Param`] slot. A plan is a template
    /// over its slots; these values make it self-contained, and running
    /// it with another vector of the same length is a template hit.
    pub params: Vec<Const>,
}

impl Program {
    pub fn new(module: &str, name: &str) -> Program {
        Program {
            module: module.into(),
            name: name.into(),
            vars: Vec::new(),
            instrs: Vec::new(),
            params: Vec::new(),
        }
    }

    /// This program's header, variables and parameter bindings with no
    /// instructions: what a rewriting pass starts its output from.
    pub fn empty_like(&self) -> Program {
        Program {
            module: self.module.clone(),
            name: self.name.clone(),
            vars: self.vars.clone(),
            instrs: Vec::new(),
            params: self.params.clone(),
        }
    }

    /// Intern a variable name, returning its id (existing or fresh).
    pub fn var(&mut self, name: &str) -> VarId {
        if let Some(i) = self.vars.iter().position(|v| v == name) {
            return VarId(i as u32);
        }
        self.vars.push(name.to_string());
        VarId((self.vars.len() - 1) as u32)
    }

    pub fn var_name(&self, id: VarId) -> &str {
        &self.vars[id.0 as usize]
    }

    /// Fresh variable named like MonetDB's optimizer output: the lowest
    /// unused `X<n>` (this is how the paper's Table 2 ends up with `X2`
    /// and `X3` — they were free slots in the original numbering).
    pub fn fresh_var(&mut self) -> VarId {
        let mut used = vec![false; self.vars.len() * 2 + 4];
        for v in &self.vars {
            if let Some(n) = v.strip_prefix('X').and_then(|s| s.parse::<usize>().ok()) {
                if n < used.len() {
                    used[n] = true;
                }
            }
        }
        let n = (1..used.len()).find(|&i| !used[i]).unwrap_or(used.len());
        self.var(&format!("X{n}"))
    }

    pub fn push(&mut self, instr: Instr) {
        self.instrs.push(instr);
    }

    /// Instruction count (the paper's interpreter-overhead unit).
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Parameter slots print MonetDB-style in the header, each with the
        // value it is bound to by default.
        write!(f, "function {}.{}(", self.module, self.name)?;
        for (slot, c) in self.params.iter().enumerate() {
            if slot > 0 {
                write!(f, ", ")?;
            }
            write!(f, "A{slot} := {c}")?;
        }
        writeln!(f, "):void;")?;
        for instr in &self.instrs {
            write!(f, "    ")?;
            match instr.targets.len() {
                0 => {}
                1 => write!(f, "{} := ", self.var_name(instr.targets[0]))?,
                _ => {
                    write!(f, "(")?;
                    for (i, t) in instr.targets.iter().enumerate() {
                        if i > 0 {
                            write!(f, ",")?;
                        }
                        write!(f, "{}", self.var_name(*t))?;
                    }
                    write!(f, ") := ")?;
                }
            }
            write!(f, "{}.{}(", instr.module, instr.func)?;
            for (i, a) in instr.args.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                match a {
                    Arg::Var(v) => write!(f, "{}", self.var_name(*v))?,
                    Arg::Const(c) => write!(f, "{c}")?,
                    Arg::Param(slot) => write!(f, "A{slot}")?,
                }
            }
            writeln!(f, ");")?;
        }
        writeln!(f, "end {};", self.name)
    }
}

/// The paper's Table 1: `select c.t_id from t, c where c.t_id = t.id`,
/// with the paper's own variable names — the free slots among them are
/// what the DC rewrite numbers its tickets by.
#[cfg(test)]
pub(crate) fn paper_table1() -> Program {
    let mut p = Program::new("user", "s1_2");
    let [x1, x6, x9, x10, x13, x14, x15, x16, x22] =
        ["X1", "X6", "X9", "X10", "X13", "X14", "X15", "X16", "X22"].map(|n| p.var(n));
    let s = |v: &str| Arg::Const(Const::Str(v.into()));
    let int = |v: i64| Arg::Const(Const::Int(v));
    let v = Arg::Var;
    p.push(Instr::assign(x1, "sql", "bind", vec![s("sys"), s("t"), s("id"), int(0)]));
    p.push(Instr::assign(x6, "sql", "bind", vec![s("sys"), s("c"), s("t_id"), int(0)]));
    p.push(Instr::assign(x9, "bat", "reverse", vec![v(x6)]));
    p.push(Instr::assign(x10, "algebra", "join", vec![v(x1), v(x9)]));
    p.push(Instr::assign(x13, "algebra", "markT", vec![v(x10), Arg::Const(Const::Oid(0))]));
    p.push(Instr::assign(x14, "bat", "reverse", vec![v(x13)]));
    p.push(Instr::assign(x15, "algebra", "join", vec![v(x14), v(x1)]));
    p.push(Instr::assign(x16, "sql", "resultSet", vec![int(1), int(1), v(x15)]));
    let rs_col = vec![v(x16), s("sys.c"), s("t_id"), s("int"), int(32), int(0), v(x15)];
    p.push(Instr::call("sql", "rsCol", rs_col));
    p.push(Instr::assign(x22, "io", "stdout", vec![]));
    p.push(Instr::call("sql", "exportResult", vec![v(x22), v(x16)]));
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn var_interning() {
        let mut p = Program::new("user", "q");
        let a = p.var("X1");
        let b = p.var("X1");
        let c = p.var("X2");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(p.var_name(c), "X2");
    }

    #[test]
    fn fresh_var_fills_gaps() {
        let mut p = Program::new("user", "q");
        p.var("X1");
        p.var("X6");
        p.var("X22");
        let v2 = p.fresh_var();
        assert_eq!(p.var_name(v2), "X2");
        let v3 = p.fresh_var();
        assert_eq!(p.var_name(v3), "X3");
        let v4 = p.fresh_var();
        assert_eq!(p.var_name(v4), "X4");
    }

    #[test]
    fn display_matches_paper_style() {
        let mut p = Program::new("user", "s1_2");
        let x1 = p.var("X1");
        p.push(Instr::assign(
            x1,
            "sql",
            "bind",
            vec![
                Arg::Const(Const::Str("sys".into())),
                Arg::Const(Const::Str("t".into())),
                Arg::Const(Const::Str("id".into())),
                Arg::Const(Const::Int(0)),
            ],
        ));
        let s = p.to_string();
        assert!(s.starts_with("function user.s1_2():void;\n"));
        assert!(s.contains("X1 := sql.bind(\"sys\", \"t\", \"id\", 0);"));
        assert!(s.ends_with("end s1_2;\n"));
    }

    #[test]
    fn display_oid_and_multi_target() {
        let mut p = Program::new("user", "g");
        let a = p.var("Xg");
        let b = p.var("Xe");
        let src = p.var("X0");
        p.push(Instr {
            targets: vec![a, b],
            module: "group".into(),
            func: "new".into(),
            args: vec![Arg::Var(src), Arg::Const(Const::Oid(0))],
        });
        let s = p.to_string();
        assert!(s.contains("(Xg,Xe) := group.new(X0, 0@0);"), "{s}");
    }

    #[test]
    fn display_parameter_slots_and_bindings() {
        let mut p = Program::new("user", "s1_1");
        let (b, x) = (p.var("X1"), p.var("X2"));
        p.params = vec![Const::Int(30), Const::Str("eu".into())];
        p.push(Instr::assign(
            x,
            "algebra",
            "select",
            vec![Arg::Var(b), Arg::Param(0), Arg::Param(1)],
        ));
        let s = p.to_string();
        assert!(s.starts_with("function user.s1_1(A0 := 30, A1 := \"eu\"):void;\n"), "{s}");
        assert!(s.contains("X2 := algebra.select(X1, A0, A1);"), "{s}");
        assert_eq!(p.empty_like().params, p.params);
        assert!(p.empty_like().is_empty());
    }

    #[test]
    fn uses_iterates_vars_only() {
        let mut p = Program::new("user", "q");
        let a = p.var("A");
        let b = p.var("B");
        let i = Instr::assign(a, "algebra", "join", vec![Arg::Var(b), Arg::Const(Const::Int(3))]);
        let uses: Vec<VarId> = i.uses().collect();
        assert_eq!(uses, vec![b]);
        assert!(i.is("algebra", "join"));
        assert_eq!(i.qualified_name(), "algebra.join");
    }
}
