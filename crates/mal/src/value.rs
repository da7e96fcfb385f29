//! Runtime values of the MAL interpreter.

use batstore::{Bat, Val};
use parking_lot::Mutex;
use std::fmt;
use std::sync::Arc;

/// A result set under construction: `sql.resultSet` creates it,
/// `sql.rsCol` appends columns, `sql.exportResult` hands the snapshot to
/// the session as a typed [`batstore::ResultSet`] — rendering to text is
/// the caller's business, not the plan's. Shared behind a mutex because
/// plan threads may touch it concurrently.
#[derive(Clone, Default)]
pub struct ResultSet(Arc<Mutex<batstore::ResultSet>>);

impl ResultSet {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn add_column(&self, table: &str, name: &str, sql_type: &str, data: Arc<Bat>) {
        self.0.lock().push_column(table, name, sql_type, data);
    }

    pub fn row_count(&self) -> usize {
        self.0.lock().row_count()
    }

    pub fn column_count(&self) -> usize {
        self.0.lock().column_count()
    }

    /// Cell value (row-major access for rendering and tests).
    pub fn cell(&self, row: usize, col: usize) -> Val {
        self.0.lock().cell(row, col)
    }

    /// The typed result accumulated so far (what `sql.exportResult`
    /// publishes to the session).
    pub fn snapshot(&self) -> batstore::ResultSet {
        self.0.lock().clone()
    }

    /// Render in MonetDB's tabular client format.
    pub fn render(&self) -> String {
        self.0.lock().render()
    }
}

/// A MAL runtime value.
#[derive(Clone)]
pub enum MVal {
    Void,
    Int(i64),
    Dbl(f64),
    Str(String),
    Oid(u64),
    Bool(bool),
    /// BATs are shared, never copied, between instructions — the paper's
    /// "pointer to a memory mapped region".
    Bat(Arc<Bat>),
    /// A Data Cyclotron request ticket (returned by
    /// `datacyclotron.request`, consumed by `pin`).
    Ticket(u64),
    /// A pinned BAT: behaves as a BAT everywhere, but remembers the ticket
    /// so `datacyclotron.unpin(X)` on the pinned variable — exactly as the
    /// paper's Table 2 writes it — can release the right request.
    Pinned {
        bat: Arc<Bat>,
        ticket: u64,
    },
    ResultSet(ResultSet),
    /// An output stream handle (`io.stdout()`); writes are captured by the
    /// session.
    Stream,
}

impl MVal {
    pub fn type_name(&self) -> &'static str {
        match self {
            MVal::Void => "void",
            MVal::Int(_) => "int",
            MVal::Dbl(_) => "dbl",
            MVal::Str(_) => "str",
            MVal::Oid(_) => "oid",
            MVal::Bool(_) => "bit",
            MVal::Bat(_) => "bat",
            MVal::Ticket(_) => "ticket",
            MVal::Pinned { .. } => "bat",
            MVal::ResultSet(_) => "resultset",
            MVal::Stream => "stream",
        }
    }

    pub fn as_bat(&self) -> Option<&Arc<Bat>> {
        match self {
            MVal::Bat(b) => Some(b),
            MVal::Pinned { bat, .. } => Some(bat),
            _ => None,
        }
    }

    pub fn as_int(&self) -> Option<i64> {
        match self {
            MVal::Int(v) => Some(*v),
            MVal::Oid(v) => Some(*v as i64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            MVal::Str(s) => Some(s),
            _ => None,
        }
    }
}

impl fmt::Debug for MVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MVal::Void => write!(f, "void"),
            MVal::Int(v) => write!(f, "{v}:int"),
            MVal::Dbl(v) => write!(f, "{v}:dbl"),
            MVal::Str(s) => write!(f, "{s:?}:str"),
            MVal::Oid(v) => write!(f, "{v}@0"),
            MVal::Bool(b) => write!(f, "{b}:bit"),
            MVal::Bat(b) => write!(f, "<bat {}x{}>", b.count(), b.tail_type()),
            MVal::Ticket(t) => write!(f, "<ticket {t}>"),
            MVal::Pinned { bat, ticket } => {
                write!(f, "<pinned bat {}x{} t{}>", bat.count(), bat.tail_type(), ticket)
            }
            MVal::ResultSet(rs) => write!(f, "<resultset {} cols>", rs.column_count()),
            MVal::Stream => write!(f, "<stream>"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use batstore::Column;

    #[test]
    fn result_set_accumulates() {
        let rs = ResultSet::new();
        rs.add_column("sys.c", "t_id", "int", Arc::new(Bat::dense(Column::from(vec![1, 2]))));
        assert_eq!(rs.column_count(), 1);
        assert_eq!(rs.row_count(), 2);
        assert_eq!(rs.cell(1, 0), Val::Int(2));
    }

    #[test]
    fn render_monetdb_style() {
        let rs = ResultSet::new();
        rs.add_column("sys.c", "t_id", "int", Arc::new(Bat::dense(Column::from(vec![7]))));
        let out = rs.render();
        assert!(out.contains("% sys.c.t_id"), "{out}");
        assert!(out.contains("% int"), "{out}");
        assert!(out.contains("[ 7 ]"), "{out}");
    }

    #[test]
    fn accessors() {
        assert_eq!(MVal::Int(4).as_int(), Some(4));
        assert_eq!(MVal::Oid(4).as_int(), Some(4));
        assert_eq!(MVal::Str("a".into()).as_str(), Some("a"));
        assert!(MVal::Void.as_bat().is_none());
        assert_eq!(MVal::Ticket(9).type_name(), "ticket");
    }
}
