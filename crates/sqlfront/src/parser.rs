//! Recursive-descent parser for the SQL subset.

use crate::ast::*;
use batstore::Val;
use mal::{MalError, Result};

/// The longest identifier, in bytes. Names travel in catalog gossip and
/// WAL records behind `u16` lengths; the cap keeps far below that, so
/// framing never bites.
pub const MAX_IDENT: usize = 1024;

/// A syntax error: the text is not a statement of the subset.
fn err(msg: impl Into<String>) -> MalError {
    MalError::Parse(msg.into())
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Word(String),
    Str(String),
    Num(String),
    Sym(String),
    Star,
    Comma,
    Dot,
    LParen,
    RParen,
}

fn lex(sql: &str) -> Result<Vec<Tok>> {
    let mut toks = Vec::new();
    let mut cs = sql.chars().peekable();
    while let Some(&c) = cs.peek() {
        match c {
            c if c.is_whitespace() => {
                cs.next();
            }
            ';' => {
                cs.next();
            }
            '*' => {
                cs.next();
                toks.push(Tok::Star);
            }
            ',' => {
                cs.next();
                toks.push(Tok::Comma);
            }
            '.' => {
                cs.next();
                toks.push(Tok::Dot);
            }
            '(' => {
                cs.next();
                toks.push(Tok::LParen);
            }
            ')' => {
                cs.next();
                toks.push(Tok::RParen);
            }
            '\'' => {
                cs.next();
                let mut s = String::new();
                loop {
                    match cs.next() {
                        Some('\'') => break,
                        Some(c2) => s.push(c2),
                        None => return Err(err("unterminated string literal")),
                    }
                }
                toks.push(Tok::Str(s));
            }
            '<' | '>' | '=' | '!' => {
                cs.next();
                let mut s = c.to_string();
                if matches!(cs.peek(), Some('=') | Some('>')) && (c != '=') {
                    s.push(cs.next().unwrap());
                } else if c == '!' {
                    match cs.next() {
                        Some('=') => s.push('='),
                        _ => return Err(err("expected '=' after '!'")),
                    }
                }
                toks.push(Tok::Sym(s));
            }
            '0'..='9' | '-' => {
                cs.next();
                let mut s = c.to_string();
                while matches!(cs.peek(), Some(c2) if c2.is_ascii_digit() || *c2 == '.') {
                    s.push(cs.next().unwrap());
                }
                toks.push(Tok::Num(s));
            }
            c if c.is_alphabetic() || c == '_' => {
                let mut s = String::new();
                while matches!(cs.peek(), Some(c2) if c2.is_alphanumeric() || *c2 == '_') {
                    s.push(cs.next().unwrap());
                }
                toks.push(Tok::Word(s));
            }
            other => return Err(err(format!("unexpected character '{other}'"))),
        }
    }
    Ok(toks)
}

impl Tok {
    /// This token's text in a template key.
    fn push_text(&self, out: &mut String) {
        match self {
            Tok::Word(s) | Tok::Num(s) | Tok::Sym(s) => out.push_str(s),
            Tok::Str(s) => {
                out.push('\'');
                out.push_str(s);
                out.push('\'');
            }
            Tok::Star => out.push('*'),
            Tok::Comma => out.push(','),
            Tok::Dot => out.push('.'),
            Tok::LParen => out.push('('),
            Tok::RParen => out.push(')'),
        }
    }
}

struct P {
    toks: Vec<Tok>,
    pos: usize,
    /// Token position and value of every literal [`parse_literal`] has
    /// consumed; the index is the literal's template slot.
    literals: Vec<(usize, Val)>,
}

impl P {
    fn new(sql: &str) -> Result<P> {
        Ok(P { toks: lex(sql)?, pos: 0, literals: Vec::new() })
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn next(&mut self) -> Result<Tok> {
        let t = self.toks.get(self.pos).cloned().ok_or_else(|| err("unexpected end of query"))?;
        self.pos += 1;
        Ok(t)
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if let Some(Tok::Word(w)) = self.peek() {
            if w.eq_ignore_ascii_case(kw) {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(err(format!("expected '{kw}', got {:?}", self.peek())))
        }
    }

    fn word(&mut self) -> Result<String> {
        match self.next()? {
            Tok::Word(w) if w.len() > MAX_IDENT => {
                Err(err(format!("identifier too long ({} chars, max {MAX_IDENT})", w.len())))
            }
            Tok::Word(w) => Ok(w),
            other => Err(err(format!("expected identifier, got {other:?}"))),
        }
    }

    fn peek_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Tok::Word(w)) if w.eq_ignore_ascii_case(kw))
    }
}

fn parse_colref(p: &mut P) -> Result<ColRef> {
    let first = p.word()?;
    if p.peek() == Some(&Tok::Dot) {
        p.next()?;
        let col = p.word()?;
        Ok(ColRef { table: Some(first), column: col })
    } else {
        Ok(ColRef { table: None, column: first })
    }
}

/// The one place a value literal is consumed: it takes the next template
/// slot, and its token is what [`parse_template`] blanks out of the key.
/// A number read any other way (`LIMIT n`, a type precision) shapes the
/// plan and so stays in the key.
fn parse_literal(p: &mut P) -> Result<Literal> {
    let at = p.pos;
    let val = match p.next()? {
        Tok::Num(s) => {
            if s.contains('.') {
                s.parse::<f64>().map(Val::Dbl).map_err(|e| err(format!("bad number: {e}")))?
            } else {
                let v: i64 = s.parse().map_err(|e| err(format!("bad number: {e}")))?;
                if let Ok(small) = i32::try_from(v) {
                    Val::Int(small)
                } else {
                    Val::Lng(v)
                }
            }
        }
        Tok::Str(s) => Val::Str(s),
        Tok::Word(w) if w.eq_ignore_ascii_case("true") => Val::Bool(true),
        Tok::Word(w) if w.eq_ignore_ascii_case("false") => Val::Bool(false),
        other => return Err(err(format!("expected literal, got {other:?}"))),
    };
    let slot = p.literals.len() as u32;
    p.literals.push((at, val.clone()));
    Ok(Literal { slot, val })
}

fn parse_select_item(p: &mut P) -> Result<SelectItem> {
    if p.peek() == Some(&Tok::Star) {
        p.next()?;
        return Ok(SelectItem::Star);
    }
    // Aggregate?
    if let Some(Tok::Word(w)) = p.peek() {
        let f = match w.to_ascii_lowercase().as_str() {
            "count" => Some(AggFn::Count),
            "sum" => Some(AggFn::Sum),
            "min" => Some(AggFn::Min),
            "max" => Some(AggFn::Max),
            "avg" => Some(AggFn::Avg),
            _ => None,
        };
        if let Some(f) = f {
            if self_lookahead_lparen(p) {
                p.next()?; // fn name
                p.next()?; // (
                let col = if p.peek() == Some(&Tok::Star) {
                    p.next()?;
                    None
                } else {
                    Some(parse_colref(p)?)
                };
                match p.next()? {
                    Tok::RParen => {}
                    other => return Err(err(format!("expected ')', got {other:?}"))),
                }
                return Ok(SelectItem::Agg { f, col });
            }
        }
    }
    Ok(SelectItem::Col(parse_colref(p)?))
}

fn self_lookahead_lparen(p: &P) -> bool {
    p.toks.get(p.pos + 1) == Some(&Tok::LParen)
}

fn parse_predicate(p: &mut P) -> Result<Predicate> {
    let col = parse_colref(p)?;
    if p.eat_kw("between") {
        let lo = parse_literal(p)?;
        p.expect_kw("and")?;
        let hi = parse_literal(p)?;
        return Ok(Predicate::Between { col, lo, hi });
    }
    if p.eat_kw("in") {
        match p.next()? {
            Tok::LParen => {}
            other => return Err(err(format!("expected '(' after IN, got {other:?}"))),
        }
        let mut vals = Vec::new();
        loop {
            vals.push(parse_literal(p)?);
            match p.next()? {
                Tok::Comma => continue,
                Tok::RParen => break,
                other => return Err(err(format!("expected ',' or ')', got {other:?}"))),
            }
        }
        return Ok(Predicate::InList { col, vals });
    }
    let op = match p.next()? {
        Tok::Sym(s) => s,
        other => return Err(err(format!("expected comparison operator, got {other:?}"))),
    };
    // Column-vs-column (join) or column-vs-literal?
    match p.peek() {
        Some(Tok::Word(w))
            if !w.eq_ignore_ascii_case("true") && !w.eq_ignore_ascii_case("false") =>
        {
            if op != "=" {
                // Only equi-joins are supported across columns.
                let right = parse_colref(p)?;
                return Err(err(format!(
                    "only '=' is supported between columns ({}.{} {} {:?})",
                    col.table.as_deref().unwrap_or(""),
                    col.column,
                    op,
                    right
                )));
            }
            let right = parse_colref(p)?;
            Ok(Predicate::ColEq { left: col, right })
        }
        _ => {
            let lit = parse_literal(p)?;
            Ok(Predicate::Cmp { col, op, lit })
        }
    }
}

/// `[schema.]table` with the `sys` default.
fn parse_qualified_table(p: &mut P) -> Result<(String, String)> {
    let first = p.word()?;
    if p.peek() == Some(&Tok::Dot) {
        p.next()?;
        Ok((first, p.word()?))
    } else {
        Ok(("sys".to_string(), first))
    }
}

/// Parse one statement: SELECT, CREATE TABLE, INSERT, UPDATE, or DELETE.
pub fn parse_stmt(sql: &str) -> Result<Stmt> {
    parse_any(&mut P::new(sql)?)
}

fn parse_any(p: &mut P) -> Result<Stmt> {
    if p.peek_kw("create") {
        parse_create(p)
    } else if p.peek_kw("insert") {
        parse_insert(p)
    } else if p.peek_kw("update") {
        parse_update(p)
    } else if p.peek_kw("delete") {
        parse_delete(p)
    } else {
        parse_select(p).map(Stmt::Select)
    }
}

/// A parsed statement with its query-template identity (paper §3.2).
#[derive(Clone, Debug, PartialEq)]
pub struct StmtTemplate {
    pub stmt: Stmt,
    /// The statement's shape: its tokens, single-spaced, with each value
    /// literal replaced by `?`. Two statements with equal keys compile to
    /// the same plan up to the bindings of its parameter slots.
    pub key: String,
    /// The literals in slot order — the values `stmt` carries, and what a
    /// cached plan of this shape is bound to on a hit.
    pub literals: Vec<Val>,
}

/// [`parse_stmt`], also deriving the template key and literal vector from
/// that same parse: the key is built from the parser's own token stream,
/// blanking exactly the tokens `parse_literal` consumed, so it cannot
/// disagree with the parser about what a literal is.
pub fn parse_template(sql: &str) -> Result<StmtTemplate> {
    let mut p = P::new(sql)?;
    let stmt = parse_any(&mut p)?;

    let mut key = String::with_capacity(sql.len());
    let mut literals = Vec::with_capacity(p.literals.len());
    let mut next_literal = p.literals.into_iter().peekable();
    for (at, tok) in p.toks.iter().enumerate() {
        if at > 0 {
            key.push(' ');
        }
        match next_literal.next_if(|(lit_at, _)| *lit_at == at) {
            Some((_, val)) => {
                key.push('?');
                literals.push(val);
            }
            None => tok.push_text(&mut key),
        }
    }
    Ok(StmtTemplate { stmt, key, literals })
}

/// The `WHERE` conjunction shared by UPDATE and DELETE (absent means
/// every row).
fn parse_where(p: &mut P) -> Result<Vec<Predicate>> {
    let mut predicates = Vec::new();
    if p.eat_kw("where") {
        loop {
            predicates.push(parse_predicate(p)?);
            if !p.eat_kw("and") {
                break;
            }
        }
    }
    Ok(predicates)
}

fn expect_trailing_end(p: &P) -> Result<()> {
    match p.peek() {
        Some(t) => Err(err(format!("trailing tokens starting at {t:?}"))),
        None => Ok(()),
    }
}

/// `UPDATE [schema.]t SET c = v [, …] [WHERE …]`.
fn parse_update(p: &mut P) -> Result<Stmt> {
    p.expect_kw("update")?;
    let (schema, table) = parse_qualified_table(p)?;
    p.expect_kw("set")?;
    let mut assignments = Vec::new();
    loop {
        let col = p.word()?;
        match p.next()? {
            Tok::Sym(s) if s == "=" => {}
            other => return Err(err(format!("expected '=' after '{col}', got {other:?}"))),
        }
        assignments.push((col, parse_literal(p)?));
        if p.peek() == Some(&Tok::Comma) {
            p.next()?;
        } else {
            break;
        }
    }
    let predicates = parse_where(p)?;
    expect_trailing_end(p)?;
    Ok(Stmt::Update(UpdateStmt { schema, table, assignments, predicates }))
}

/// `DELETE FROM [schema.]t [WHERE …]`.
fn parse_delete(p: &mut P) -> Result<Stmt> {
    p.expect_kw("delete")?;
    p.expect_kw("from")?;
    let (schema, table) = parse_qualified_table(p)?;
    let predicates = parse_where(p)?;
    expect_trailing_end(p)?;
    Ok(Stmt::Delete(DeleteStmt { schema, table, predicates }))
}

/// `CREATE TABLE [schema.]t (col type, …)`.
fn parse_create(p: &mut P) -> Result<Stmt> {
    p.expect_kw("create")?;
    p.expect_kw("table")?;
    let (schema, table) = parse_qualified_table(p)?;
    match p.next()? {
        Tok::LParen => {}
        other => return Err(err(format!("expected '(' after table name, got {other:?}"))),
    }
    let mut cols = Vec::new();
    loop {
        let name = p.word()?;
        let tyname = p.word()?;
        let ty = batstore::ColType::from_name(&tyname.to_ascii_lowercase())
            .ok_or_else(|| err(format!("unknown column type '{tyname}'")))?;
        // Tolerate a precision suffix like varchar(32) / decimal(10, 2).
        if p.peek() == Some(&Tok::LParen) {
            p.next()?;
            loop {
                match p.next()? {
                    Tok::RParen => break,
                    Tok::Num(_) | Tok::Comma => continue,
                    other => return Err(err(format!("bad type precision, got {other:?}"))),
                }
            }
        }
        cols.push((name, ty));
        match p.next()? {
            Tok::Comma => continue,
            Tok::RParen => break,
            other => return Err(err(format!("expected ',' or ')', got {other:?}"))),
        }
    }
    if cols.is_empty() {
        return Err(err("a table needs at least one column"));
    }
    if let Some(t) = p.peek() {
        return Err(err(format!("trailing tokens starting at {t:?}")));
    }
    Ok(Stmt::CreateTable(CreateStmt { schema, table, cols }))
}

/// `INSERT INTO [schema.]t [(c1, …)] VALUES (v1, …)[, (…)]*`.
fn parse_insert(p: &mut P) -> Result<Stmt> {
    p.expect_kw("insert")?;
    p.expect_kw("into")?;
    let (schema, table) = parse_qualified_table(p)?;
    let columns = if p.peek() == Some(&Tok::LParen) {
        p.next()?;
        let mut cols = Vec::new();
        loop {
            cols.push(p.word()?);
            match p.next()? {
                Tok::Comma => continue,
                Tok::RParen => break,
                other => return Err(err(format!("expected ',' or ')', got {other:?}"))),
            }
        }
        Some(cols)
    } else {
        None
    };
    p.expect_kw("values")?;
    let mut rows = Vec::new();
    loop {
        match p.next()? {
            Tok::LParen => {}
            other => return Err(err(format!("expected '(' before a row, got {other:?}"))),
        }
        let mut row = Vec::new();
        loop {
            row.push(parse_literal(p)?);
            match p.next()? {
                Tok::Comma => continue,
                Tok::RParen => break,
                other => return Err(err(format!("expected ',' or ')', got {other:?}"))),
            }
        }
        if let Some(cols) = &columns {
            if row.len() != cols.len() {
                return Err(err(format!(
                    "row has {} values but {} columns are listed",
                    row.len(),
                    cols.len()
                )));
            }
        }
        if let Some(prev) = rows.last() {
            let prev: &Vec<Literal> = prev;
            if row.len() != prev.len() {
                return Err(err("all inserted rows must have the same arity"));
            }
        }
        rows.push(row);
        if p.peek() == Some(&Tok::Comma) {
            p.next()?;
        } else {
            break;
        }
    }
    if let Some(t) = p.peek() {
        return Err(err(format!("trailing tokens starting at {t:?}")));
    }
    Ok(Stmt::Insert(InsertStmt { schema, table, columns, rows }))
}

/// `[schema.]table [alias]` — one FROM item (comma-separated or the
/// right-hand side of an explicit JOIN).
fn parse_table_ref(p: &mut P) -> Result<TableRef> {
    let first = p.word()?;
    let (schema, table) = if p.peek() == Some(&Tok::Dot) {
        p.next()?;
        (first, p.word()?)
    } else {
        ("sys".to_string(), first)
    };
    // Optional alias (a bare word that is not a clause keyword).
    let alias = match p.peek() {
        Some(Tok::Word(w))
            if !["where", "group", "order", "limit", "join", "inner", "on"]
                .contains(&w.to_ascii_lowercase().as_str()) =>
        {
            p.word()?
        }
        _ => table.clone(),
    };
    Ok(TableRef { schema, table, alias })
}

/// Parse one SELECT statement.
pub fn parse_query(sql: &str) -> Result<Query> {
    parse_select(&mut P::new(sql)?)
}

fn parse_select(p: &mut P) -> Result<Query> {
    p.expect_kw("select")?;

    let mut q = Query { distinct: p.eat_kw("distinct"), ..Query::default() };
    loop {
        q.select.push(parse_select_item(p)?);
        if p.peek() == Some(&Tok::Comma) {
            p.next()?;
        } else {
            break;
        }
    }

    p.expect_kw("from")?;
    loop {
        q.from.push(parse_table_ref(p)?);
        // Explicit `[INNER] JOIN t [alias] ON a.x = b.y` items: the join
        // table enters the FROM list and the ON equality becomes a
        // [`Predicate::ColEq`] conjunct — exactly the shape the comma +
        // WHERE spelling produces, so codegen treats both identically.
        while p.peek_kw("inner") || p.peek_kw("join") {
            if p.eat_kw("inner") && !p.peek_kw("join") {
                return Err(err("expected JOIN after INNER"));
            }
            p.expect_kw("join")?;
            q.from.push(parse_table_ref(p)?);
            p.expect_kw("on")?;
            let left = parse_colref(p)?;
            match p.next()? {
                Tok::Sym(op) if op == "=" => {}
                other => return Err(err(format!("JOIN ON supports only '=', got {other:?}"))),
            }
            let right = parse_colref(p)?;
            q.predicates.push(Predicate::ColEq { left, right });
        }
        if p.peek() == Some(&Tok::Comma) {
            p.next()?;
        } else {
            break;
        }
    }

    if p.eat_kw("where") {
        loop {
            q.predicates.push(parse_predicate(p)?);
            if !p.eat_kw("and") {
                break;
            }
        }
    }

    if p.peek_kw("group") {
        p.next()?;
        p.expect_kw("by")?;
        loop {
            q.group_by.push(parse_colref(p)?);
            if p.peek() == Some(&Tok::Comma) {
                p.next()?;
            } else {
                break;
            }
        }
    }

    if p.peek_kw("order") {
        p.next()?;
        p.expect_kw("by")?;
        let col = parse_colref(p)?;
        let descending = p.eat_kw("desc");
        if !descending {
            p.eat_kw("asc");
        }
        q.order_by = Some(OrderKey { col, descending });
    }

    if p.eat_kw("limit") {
        match p.next()? {
            Tok::Num(s) => q.limit = Some(s.parse().map_err(|e| err(format!("bad limit: {e}")))?),
            other => return Err(err(format!("expected number after LIMIT, got {other:?}"))),
        }
    }

    if let Some(t) = p.peek() {
        return Err(err(format!("trailing tokens starting at {t:?}")));
    }
    Ok(q)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example() {
        let q = parse_query("select c.t_id from t, c where c.t_id = t.id;").unwrap();
        assert_eq!(q.select.len(), 1);
        assert_eq!(q.from.len(), 2);
        assert_eq!(q.from[0].schema, "sys");
        assert_eq!(q.predicates.len(), 1);
        assert!(matches!(q.predicates[0], Predicate::ColEq { .. }));
    }

    #[test]
    fn explicit_join_on() {
        // The paper example in explicit-JOIN spelling parses to the same
        // shape as the comma + WHERE form.
        let q = parse_query("select c.t_id from t join c on c.t_id = t.id").unwrap();
        assert_eq!(q.from.len(), 2);
        assert_eq!(q.from[1].table, "c");
        assert_eq!(q.predicates.len(), 1);
        assert!(matches!(&q.predicates[0],
            Predicate::ColEq { left, right } if left.column == "t_id" && right.column == "id"));

        // INNER is optional noise; aliases and chained joins work.
        let q = parse_query(
            "select o.id from customer c inner join orders o on o.custkey = c.custkey \
             join lineitem l on l.orderkey = o.id where l.qty > 5",
        )
        .unwrap();
        assert_eq!(q.from.len(), 3);
        assert_eq!(q.from[0].alias, "c");
        assert_eq!(q.from[2].alias, "l");
        assert_eq!(q.predicates.len(), 3, "two ON equalities + one WHERE filter");
        assert!(matches!(q.predicates[2], Predicate::Cmp { .. }));
    }

    #[test]
    fn join_without_on_rejected() {
        assert!(parse_query("select a from t join c where c.x = t.a").is_err());
        assert!(parse_query("select a from t inner c on c.x = t.a").is_err());
        assert!(parse_query("select a from t join c on c.x < t.a").is_err());
    }

    #[test]
    fn filters_and_between() {
        let q =
            parse_query("select a from t where a >= 10 and b = 'x' and c between 1 and 5").unwrap();
        assert_eq!(q.predicates.len(), 3);
        assert!(matches!(&q.predicates[0], Predicate::Cmp { op, .. } if op == ">="));
        assert!(matches!(
            &q.predicates[1],
            Predicate::Cmp { lit: Literal { val: Val::Str(_), slot: 1 }, .. }
        ));
        assert!(matches!(&q.predicates[2], Predicate::Between { .. }));
    }

    #[test]
    fn aggregates_and_group_by() {
        let q =
            parse_query("select region, sum(amount), count(*) from sales group by region").unwrap();
        assert_eq!(q.select.len(), 3);
        assert!(matches!(q.select[1], SelectItem::Agg { f: AggFn::Sum, col: Some(_) }));
        assert!(matches!(q.select[2], SelectItem::Agg { f: AggFn::Count, col: None }));
        assert_eq!(q.group_by.len(), 1);
    }

    #[test]
    fn order_and_limit() {
        let q = parse_query("select a from t order by a desc limit 10").unwrap();
        assert!(q.order_by.as_ref().unwrap().descending);
        assert_eq!(q.limit, Some(10));
        let q = parse_query("select a from t order by a asc").unwrap();
        assert!(!q.order_by.unwrap().descending);
    }

    #[test]
    fn schema_qualified_and_alias() {
        let q = parse_query("select l.x from mydb.big l where l.x < 3").unwrap();
        assert_eq!(q.from[0].schema, "mydb");
        assert_eq!(q.from[0].alias, "l");
    }

    #[test]
    fn negative_and_float_literals() {
        let q = parse_query("select a from t where a > -5 and b < 2.5").unwrap();
        let lits: Vec<&Literal> = q
            .predicates
            .iter()
            .map(|p| match p {
                Predicate::Cmp { lit, .. } => lit,
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(lits[0], &Literal { slot: 0, val: Val::Int(-5) });
        assert_eq!(lits[1], &Literal { slot: 1, val: Val::Dbl(2.5) });
    }

    #[test]
    fn errors() {
        for bad in [
            "frobnicate t",
            "selec k from sales",
            "select from t",
            "select a from t where a ~ 3",
            "select a from t where 'oops",
            "select a from t limit x",
            "select a from t extra junk??",
            "select a from t where a < b", // non-equi column cmp
        ] {
            let e = parse_query(bad).unwrap_err();
            assert!(matches!(e, MalError::Parse(_)), "{bad}: {e:?}");
        }
        let e = parse_stmt("create table t (a blob)").unwrap_err();
        assert!(matches!(e, MalError::Parse(_)), "{e:?}");
    }

    #[test]
    fn create_table_statement() {
        let Stmt::CreateTable(c) =
            parse_stmt("create table mydb.logs (k int, msg varchar(32), score dbl)").unwrap()
        else {
            panic!("expected CREATE")
        };
        assert_eq!((c.schema.as_str(), c.table.as_str()), ("mydb", "logs"));
        use batstore::ColType::*;
        assert_eq!(
            c.cols,
            vec![("k".to_string(), Int), ("msg".to_string(), Str), ("score".to_string(), Dbl)]
        );
        // Default schema.
        let Stmt::CreateTable(c) = parse_stmt("CREATE TABLE t (a int)").unwrap() else { panic!() };
        assert_eq!(c.schema, "sys");
    }

    #[test]
    fn insert_statement_forms() {
        let Stmt::Insert(i) = parse_stmt("insert into t values (1, 'x'), (2, 'y')").unwrap() else {
            panic!("expected INSERT")
        };
        assert_eq!(i.rows.len(), 2);
        // Slots follow token order: row-major through the VALUES list.
        assert_eq!(
            i.rows[1],
            vec![
                Literal { slot: 2, val: Val::Int(2) },
                Literal { slot: 3, val: Val::Str("y".into()) }
            ]
        );
        assert!(i.columns.is_none());

        let Stmt::Insert(i) = parse_stmt("insert into s.t (b, a) values (1, 2)").unwrap() else {
            panic!()
        };
        assert_eq!(i.columns, Some(vec!["b".to_string(), "a".to_string()]));
        assert_eq!(i.schema, "s");
    }

    #[test]
    fn select_through_parse_stmt() {
        assert!(matches!(parse_stmt("select a from t").unwrap(), Stmt::Select(_)));
    }

    #[test]
    fn update_statement_forms() {
        let Stmt::Update(u) =
            parse_stmt("update s.t set a = 1, b = 'x' where k >= 2 and tag in ('p', 'q')").unwrap()
        else {
            panic!("expected UPDATE")
        };
        assert_eq!((u.schema.as_str(), u.table.as_str()), ("s", "t"));
        assert_eq!(
            u.assignments,
            vec![
                ("a".to_string(), Literal { slot: 0, val: Val::Int(1) }),
                ("b".to_string(), Literal { slot: 1, val: Val::Str("x".into()) })
            ]
        );
        assert_eq!(u.predicates.len(), 2);
        assert!(matches!(&u.predicates[0], Predicate::Cmp { op, .. } if op == ">="));
        assert!(matches!(&u.predicates[1], Predicate::InList { vals, .. } if vals.len() == 2));
        // No WHERE: every row; default schema.
        let Stmt::Update(u) = parse_stmt("UPDATE t SET a = 2").unwrap() else { panic!() };
        assert_eq!(u.schema, "sys");
        assert!(u.predicates.is_empty());
    }

    #[test]
    fn delete_statement_forms() {
        let Stmt::Delete(d) = parse_stmt("delete from t where k between 1 and 5").unwrap() else {
            panic!("expected DELETE")
        };
        assert_eq!(d.table, "t");
        assert!(matches!(&d.predicates[0], Predicate::Between { .. }));
        let Stmt::Delete(d) = parse_stmt("delete from mydb.logs").unwrap() else { panic!() };
        assert_eq!((d.schema.as_str(), d.table.as_str()), ("mydb", "logs"));
        assert!(d.predicates.is_empty());
    }

    #[test]
    fn update_delete_errors() {
        assert!(parse_stmt("update t").is_err(), "missing SET");
        assert!(parse_stmt("update t set").is_err(), "empty SET");
        assert!(parse_stmt("update t set a 1").is_err(), "missing '='");
        assert!(parse_stmt("update t set a = 1 extra").is_err(), "trailing");
        assert!(parse_stmt("delete t where a = 1").is_err(), "missing FROM");
        assert!(parse_stmt("delete from t where").is_err(), "empty WHERE");
        assert!(parse_stmt("delete from t junk").is_err(), "trailing");
    }

    #[test]
    fn ddl_dml_errors() {
        assert!(parse_stmt("create table t ()").is_err(), "no columns");
        assert!(parse_stmt("create table t (a frobtype)").is_err(), "bad type");
        assert!(parse_stmt("create table t (a int) extra").is_err(), "trailing");
        assert!(parse_stmt("insert into t (a, b) values (1)").is_err(), "arity vs column list");
        assert!(parse_stmt("insert into t values (1), (1, 2)").is_err(), "ragged rows");
        assert!(parse_stmt("insert into t values 1").is_err(), "missing parens");
    }

    #[test]
    fn template_key_blanks_exactly_the_value_literals() {
        let a = parse_template("select x from t where a = 5 and b = 'foo' and c between 1 and 2.5")
            .unwrap();
        let b = parse_template(
            "select x\n\tfrom t  where a=-99 and b = 'it is 7 or select ?' and c between 0 and 1.0;",
        )
        .unwrap();
        assert_eq!(a.key, "select x from t where a = ? and b = ? and c between ? and ?");
        assert_eq!(a.key, b.key, "whitespace, signs, quotes and ';' do not reach the key");
        assert_eq!(
            b.literals,
            vec![Val::Int(-99), Val::Str("it is 7 or select ?".into()), Val::Int(0), Val::Dbl(1.0)]
        );
        // `lng`-range ints and booleans are literals like any other.
        let c = parse_template("select x from t where a = 5000000000 and b = true").unwrap();
        assert_eq!(c.key, "select x from t where a = ? and b = ?");
        assert_eq!(c.literals, vec![Val::Lng(5_000_000_000), Val::Bool(true)]);
        // Digits inside identifiers are not literals; names stay verbatim
        // (identifiers are case-sensitive, so the key is too).
        let d = parse_template("select c1 from table2 T where T.c1 < 3").unwrap();
        assert_eq!(d.key, "select c1 from table2 T where T . c1 < ?");
        // The statement carries the same values, by slot.
        let Stmt::Select(q) = &d.stmt else { panic!() };
        assert!(matches!(&q.predicates[0],
            Predicate::Cmp { lit, .. } if lit.val == d.literals[lit.slot as usize]));
    }

    #[test]
    fn template_key_keeps_what_shapes_the_plan() {
        let key = |sql: &str| parse_template(sql).unwrap().key;
        // LIMIT n and type precisions are read outside `parse_literal`.
        assert_ne!(key("select a from t limit 2"), key("select a from t limit 5"));
        assert_eq!(
            key("select a from t where a > 1 limit 2"),
            "select a from t where a > ? limit 2"
        );
        assert_eq!(
            key("create table t (a int, s varchar(32))"),
            "create table t ( a int , s varchar ( 32 ) )"
        );
        // Arity: each IN element and VALUES cell is its own placeholder.
        assert_ne!(
            key("select a from t where a in (1, 2)"),
            key("select a from t where a in (1, 2, 3)")
        );
        assert_eq!(
            key("insert into t values (1, 'x'), (2, 'y')"),
            "insert into t values ( ? , ? ) , ( ? , ? )"
        );
        assert_ne!(key("insert into t values (1), (2)"), key("insert into t values (1, 2)"));
        // Different shapes differ; equal shapes with other literals agree.
        assert_ne!(key("select x from t"), key("select y from t"));
        assert_eq!(
            key("update t set v = 1, s = 'a' where k in (1, 2)"),
            key("update t set v = -7, s = 'select' where k in (30, 40)")
        );
        assert_eq!(key("delete from t where k = 1"), key("delete from t where k = 20000000000"));
        // A statement that does not parse has no template.
        assert!(parse_template("select a from t where a = 1e3").is_err());
        assert!(parse_template("select a from t where").is_err());
    }

    #[test]
    fn keywords_case_insensitive() {
        let q = parse_query("SELECT a FROM t WHERE a = 1 ORDER BY a LIMIT 2").unwrap();
        assert_eq!(q.limit, Some(2));
    }
}
