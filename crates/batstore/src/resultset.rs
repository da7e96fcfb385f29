//! Typed query results: the unit every layer above the kernel now
//! exchanges. A [`ResultSet`] carries named, typed columns (BATs) plus
//! the DDL/DML outcomes (`info` text, affected-row counts), so a result
//! crosses threads and sockets as columns and is rendered to text only
//! at the edge that actually needs text — once, not at every hop.
//!
//! Two binary forms exist, both reusing the BAT encoding of
//! [`crate::storage`] for column payloads. The TCP client protocol
//! *streams* a result as `ResultHeader` + `RowBatch` frames (see the
//! `dc-client` crate), so large results never materialize as one
//! buffer; the single-blob `DCR1` form ([`ResultSet::write_to`])
//! serializes a whole result self-contained — a pushed aggregate's
//! answer rides in its ack so:
//! ```text
//! magic  "DCR1"
//! u8     flags (bit 0: affected present, bit 1: info present)
//! [u64   affected rows]
//! [u32   info length, info bytes]
//! u16    column count
//! per column:
//!   u16 len + bytes   table label
//!   u16 len + bytes   column name
//!   u16 len + bytes   declared SQL type
//!   BAT               column data (self-delimiting, storage format)
//! ```
//! Decoding reads through a [`crate::wire::Reader`], as
//! [`crate::storage::read_bat`] does: a claimed length is checked
//! against the bytes present before anything is allocated for it.

use crate::bat::Bat;
use crate::error::{BatError, Result};
use crate::storage;
use crate::value::{ColType, Val};
use crate::wire::{put_label, put_str32, put_u16, put_u64, Reader};
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"DCR1";
const FLAG_AFFECTED: u8 = 1;
const FLAG_INFO: u8 = 2;

/// One named, typed output column. `sql_type` is the *declared* type
/// label the SQL layer advertises (`lng` for COUNT, etc.); the physical
/// type is [`ResultColumn::col_type`], taken from the data itself.
#[derive(Clone, Debug, PartialEq)]
pub struct ResultColumn {
    /// Table label as the front-end prints it (e.g. `sys.c`).
    pub table: String,
    pub name: String,
    pub sql_type: String,
    pub data: Arc<Bat>,
}

impl ResultColumn {
    /// Physical type of the column values.
    pub fn col_type(&self) -> ColType {
        self.data.tail_type()
    }
}

/// A typed query result: zero or more columns, an optional affected-row
/// count (INSERT), and optional info text (DDL acknowledgements, ad-hoc
/// plan output). [`ResultSet::render`] produces the MonetDB-style text
/// the string API used to return, making strings a view of this type
/// rather than the other way around.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ResultSet {
    pub columns: Vec<ResultColumn>,
    /// `Some(n)` after DML: rendered as `n rows affected`.
    pub affected: Option<u64>,
    /// Free-form text rendered verbatim ahead of everything else.
    pub info: Option<String>,
}

impl ResultSet {
    pub fn new() -> ResultSet {
        ResultSet::default()
    }

    /// A result carrying only info text (DDL acknowledgements).
    pub fn with_info(text: impl Into<String>) -> ResultSet {
        ResultSet { info: Some(text.into()), ..ResultSet::default() }
    }

    /// A result carrying only an affected-row count (DML).
    pub fn with_affected(n: u64) -> ResultSet {
        ResultSet { affected: Some(n), ..ResultSet::default() }
    }

    pub fn push_column(
        &mut self,
        table: impl Into<String>,
        name: impl Into<String>,
        sql_type: impl Into<String>,
        data: Arc<Bat>,
    ) {
        self.columns.push(ResultColumn {
            table: table.into(),
            name: name.into(),
            sql_type: sql_type.into(),
            data,
        });
    }

    /// Prepend free-form text (captured `io.print` output) to the info.
    pub fn prepend_text(&mut self, text: &str) {
        if text.is_empty() {
            return;
        }
        self.info = Some(match self.info.take() {
            Some(rest) => format!("{text}{rest}"),
            None => text.to_string(),
        });
    }

    pub fn column_count(&self) -> usize {
        self.columns.len()
    }

    pub fn row_count(&self) -> usize {
        self.columns.first().map(|c| c.data.count()).unwrap_or(0)
    }

    /// True when there is nothing to report at all.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty() && self.affected.is_none() && self.info.is_none()
    }

    /// Cell value (row-major access for rendering and tests).
    pub fn cell(&self, row: usize, col: usize) -> Val {
        self.columns[col].data.tail().get(row)
    }

    /// Render in MonetDB's tabular client format; DDL/DML results render
    /// their info/affected lines. This is the one place result text is
    /// produced.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        if let Some(info) = &self.info {
            s.push_str(info);
        }
        if let Some(n) = self.affected {
            let _ = writeln!(s, "{n} rows affected");
        }
        if !self.columns.is_empty() {
            let headers: Vec<String> =
                self.columns.iter().map(|c| format!("{}.{}", c.table, c.name)).collect();
            let _ = writeln!(s, "% {}", headers.join(",\t"));
            let types: Vec<&str> = self.columns.iter().map(|c| c.sql_type.as_str()).collect();
            let _ = writeln!(s, "% {}", types.join(",\t"));
            for r in 0..self.row_count() {
                let cells: Vec<String> =
                    self.columns.iter().map(|c| c.data.tail().get(r).to_string()).collect();
                let _ = writeln!(s, "[ {} ]", cells.join(",\t"));
            }
        }
        s
    }

    /// Serialize to the end of `out` (see the module docs for the
    /// layout). More columns, or a longer label, than the layout can
    /// frame is an error.
    pub fn write_to(&self, out: &mut Vec<u8>) -> Result<()> {
        let ncols = u16::try_from(self.columns.len())
            .map_err(|_| BatError::Invalid(format!("{} columns", self.columns.len())))?;
        out.extend_from_slice(MAGIC);
        out.push(
            (u8::from(self.affected.is_some()) * FLAG_AFFECTED)
                | (u8::from(self.info.is_some()) * FLAG_INFO),
        );
        if let Some(n) = self.affected {
            put_u64(out, n);
        }
        if let Some(info) = &self.info {
            put_str32(out, info);
        }
        put_u16(out, ncols);
        for c in &self.columns {
            for label in [&c.table, &c.name, &c.sql_type] {
                put_label(out, label).map_err(BatError::Invalid)?;
            }
            storage::write_bat(out, &c.data)?;
        }
        Ok(())
    }

    /// Deserialize from the front of `buf`, leaving `buf` just past it;
    /// rejects corrupt or foreign input.
    pub fn read_from(buf: &mut &[u8]) -> Result<ResultSet> {
        let mut r = Reader::new(buf);
        if r.bytes(4, "result-set magic")? != MAGIC {
            return Err(BatError::Corrupt("bad result-set magic".into()));
        }
        let flags = r.u8("result-set flags")?;
        if flags & !(FLAG_AFFECTED | FLAG_INFO) != 0 {
            return Err(BatError::Corrupt(format!("unknown result-set flags {flags:#x}")));
        }
        let affected = (flags & FLAG_AFFECTED != 0).then(|| r.u64("affected rows")).transpose()?;
        let info = (flags & FLAG_INFO != 0).then(|| r.str32("info")).transpose()?;
        let mut rs = ResultSet { affected, info, ..ResultSet::new() };
        for _ in 0..r.u16("column count")? {
            let table = r.str16("table label")?;
            let name = r.str16("column name")?;
            let sql_type = r.str16("column type")?;
            let data = Arc::new(r.nested(storage::read_bat)?);
            rs.columns.push(ResultColumn { table, name, sql_type, data });
        }
        *buf = r.rest();
        Ok(rs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;

    fn blob(rs: &ResultSet) -> Vec<u8> {
        let mut out = Vec::new();
        rs.write_to(&mut out).unwrap();
        out
    }

    fn sample() -> ResultSet {
        let mut rs = ResultSet::new();
        rs.push_column("sys.c", "t_id", "int", Arc::new(Bat::dense(Column::from(vec![2, 2, 3]))));
        rs.push_column(
            "sys.c",
            "name",
            "str",
            Arc::new(Bat::dense(Column::from(vec!["a", "", "wörld"]))),
        );
        rs
    }

    #[test]
    fn render_monetdb_style() {
        let out = sample().render();
        assert!(out.starts_with("% sys.c.t_id,\tsys.c.name\n"), "{out}");
        assert!(out.contains("% int,\tstr"), "{out}");
        assert!(out.contains("[ 2,\t\"a\" ]"), "{out}");
        assert!(out.contains("[ 3,\t\"wörld\" ]"), "{out}");
    }

    #[test]
    fn info_and_affected_render() {
        assert_eq!(ResultSet::with_info("table sys.t created\n").render(), "table sys.t created\n");
        assert_eq!(ResultSet::with_affected(2).render(), "2 rows affected\n");
        let mut rs = ResultSet::with_affected(1);
        rs.prepend_text("note\n");
        assert_eq!(rs.render(), "note\n1 rows affected\n");
    }

    #[test]
    fn wire_round_trip() {
        for rs in [
            ResultSet::new(),
            ResultSet::with_info("hello\n"),
            ResultSet::with_affected(42),
            sample(),
            {
                let mut rs = sample();
                rs.affected = Some(7);
                rs.info = Some("mixed".into());
                rs
            },
        ] {
            let back = ResultSet::read_from(&mut &blob(&rs)[..]).unwrap();
            assert_eq!(back, rs);
        }
    }

    #[test]
    fn cell_and_shape_accessors() {
        let rs = sample();
        assert_eq!((rs.column_count(), rs.row_count()), (2, 3));
        assert_eq!(rs.cell(2, 0), Val::Int(3));
        assert_eq!(rs.columns[1].col_type(), ColType::Str);
        assert!(!rs.is_empty());
        assert!(ResultSet::new().is_empty());
    }

    #[test]
    fn corrupt_input_rejected() {
        let mut bytes = blob(&sample());
        bytes[0] = b'X';
        assert!(matches!(ResultSet::read_from(&mut &bytes[..]), Err(BatError::Corrupt(_))));
        let bytes = blob(&sample());
        assert!(ResultSet::read_from(&mut &bytes[..bytes.len() - 3]).is_err());
    }

    #[test]
    fn hostile_info_length_errors_without_allocating() {
        // flags say "info present" and claim u32::MAX bytes over nothing.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.push(FLAG_INFO);
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(ResultSet::read_from(&mut &bytes[..]).is_err());
    }

    #[test]
    fn unknown_flags_rejected() {
        let mut bytes = blob(&ResultSet::new());
        bytes[4] = 0x80;
        assert!(ResultSet::read_from(&mut &bytes[..]).is_err());
    }
}
