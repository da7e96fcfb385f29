//! The framed SQL wire protocol `dc-node` serves and [`crate::Session`]
//! speaks.
//!
//! Every frame is a `u32` little-endian body length followed by the
//! body: a one-byte tag plus a tag-specific payload. Frames are read
//! with the ring fabric's framing and bodies decoded with its checked
//! reader (`batstore::wire`): reads are capped ([`DEFAULT_MAX_FRAME`])
//! and never allocate a claimed length up front.
//!
//! ```text
//! client                                server
//!   │  Hello{version}                      │
//!   │ ────────────────────────────────────▶│
//!   │                      Hello{version}  │
//!   │ ◀────────────────────────────────────│
//!   │  Query{sql}                          │   ┐ repeated: many
//!   │ ────────────────────────────────────▶│   │ statements per
//!   │        ResultHeader{cols,info,aff}   │   │ connection
//!   │ ◀────────────────────────────────────│   │
//!   │        RowBatch{col BATs}  (0..n)    │   │
//!   │ ◀────────────────────────────────────│   │
//!   │        Done        — or —  Error{m}  │   ┘
//!   │ ◀────────────────────────────────────│
//! ```
//!
//! A statement is answered by `ResultHeader RowBatch* Done` on success
//! or a single `Error` on failure; either way the connection stays open
//! for the next `Query`. Row batches carry each column chunk in the
//! binary BAT encoding (`batstore::storage`), so result bytes on the
//! wire are the same bytes the ring itself ships — columns are
//! serialized once at the edge, not rendered to strings at every hop.

use batstore::wire::{self, put_label, put_str32, put_u16, put_u64, Reader};
use batstore::{storage, Bat, ColType, Column, ResultSet};
use std::io::{self, Read, Write};

/// Protocol version spoken by this build; bumped on incompatible frame
/// changes. `Hello` frames carry it both ways.
pub const PROTOCOL_VERSION: u8 = 1;

/// Magic prefix of `Hello` payloads, so a plain-text client (or a ring
/// peer dialing the wrong port) is rejected immediately.
pub const HELLO_MAGIC: [u8; 4] = *b"DCQP";

/// Default cap on a single frame (64 MiB), the ring fabric's.
pub use batstore::wire::MAX_FRAME as DEFAULT_MAX_FRAME;

/// Rows per `RowBatch` frame when a server slices a result.
pub const DEFAULT_BATCH_ROWS: usize = 8192;

const TAG_HELLO: u8 = 1;
const TAG_QUERY: u8 = 2;
const TAG_RESULT_HEADER: u8 = 3;
const TAG_ROW_BATCH: u8 = 4;
const TAG_ERROR: u8 = 5;
const TAG_DONE: u8 = 6;

const FLAG_AFFECTED: u8 = 1;
const FLAG_INFO: u8 = 2;

/// Column metadata as announced by a `ResultHeader`: display labels plus
/// the physical [`ColType`] the row batches will carry.
#[derive(Clone, Debug, PartialEq)]
pub struct ColMeta {
    pub table: String,
    pub name: String,
    pub sql_type: String,
    pub ty: ColType,
}

/// What went wrong, classified — carried in `Error` frames so wire
/// clients can branch (retry a `Ring` failure, reject a `Parse` one)
/// without scraping message text. Mirrors the engine's `DcError`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorKind {
    /// The SQL text did not parse.
    Parse,
    /// The statement parsed but the plan is invalid.
    Plan,
    /// The plan failed while executing.
    Exec,
    /// The ring layer failed (node down, fragment gone, timeout) —
    /// typically worth retrying, possibly on another member.
    Ring,
    /// The client violated the wire protocol.
    Protocol,
}

impl ErrorKind {
    pub fn tag(self) -> u8 {
        match self {
            ErrorKind::Parse => 0,
            ErrorKind::Plan => 1,
            ErrorKind::Exec => 2,
            ErrorKind::Ring => 3,
            ErrorKind::Protocol => 4,
        }
    }

    pub fn from_tag(b: u8) -> Option<ErrorKind> {
        Some(match b {
            0 => ErrorKind::Parse,
            1 => ErrorKind::Plan,
            2 => ErrorKind::Exec,
            3 => ErrorKind::Ring,
            4 => ErrorKind::Protocol,
            _ => return None,
        })
    }
}

/// One protocol frame.
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// Version handshake, sent by both sides on connect.
    Hello { version: u8 },
    /// One SQL statement.
    Query { sql: String },
    /// Result metadata: columns (empty for DDL/DML), affected rows, info.
    ResultHeader { columns: Vec<ColMeta>, affected: Option<u64>, info: Option<String> },
    /// A chunk of rows: one BAT per column, in header order.
    RowBatch { cols: Vec<Bat> },
    /// The statement failed; terminates the statement, not the session.
    Error { kind: ErrorKind, message: String },
    /// The statement's result is complete.
    Done,
}

/// Serialize a frame body (tag + payload, without the length prefix).
pub fn encode(frame: &Frame) -> Result<Vec<u8>, String> {
    let count = |n: usize| u16::try_from(n).map_err(|_| format!("{n} columns"));
    let mut out = Vec::new();
    match frame {
        Frame::Hello { version } => {
            out.push(TAG_HELLO);
            out.extend_from_slice(&HELLO_MAGIC);
            out.push(*version);
        }
        Frame::Query { sql } => {
            out.push(TAG_QUERY);
            put_str32(&mut out, sql);
        }
        Frame::ResultHeader { columns, affected, info } => {
            out.push(TAG_RESULT_HEADER);
            out.push(
                (u8::from(affected.is_some()) * FLAG_AFFECTED)
                    | (u8::from(info.is_some()) * FLAG_INFO),
            );
            if let Some(n) = affected {
                put_u64(&mut out, *n);
            }
            if let Some(text) = info {
                put_str32(&mut out, text);
            }
            put_u16(&mut out, count(columns.len())?);
            for c in columns {
                for label in [&c.table, &c.name, &c.sql_type] {
                    put_label(&mut out, label)?;
                }
                out.push(c.ty.tag());
            }
        }
        Frame::RowBatch { cols } => {
            out.push(TAG_ROW_BATCH);
            put_u16(&mut out, count(cols.len())?);
            for b in cols {
                storage::write_bat(&mut out, b).map_err(|e| e.to_string())?;
            }
        }
        Frame::Error { kind, message } => {
            out.push(TAG_ERROR);
            out.push(kind.tag());
            put_str32(&mut out, message);
        }
        Frame::Done => out.push(TAG_DONE),
    }
    Ok(out)
}

fn read_col_meta(r: &mut Reader) -> Result<ColMeta, String> {
    let table = r.str16("table label")?;
    let name = r.str16("column name")?;
    let sql_type = r.str16("column type")?;
    let ty = ColType::from_tag(r.u8("column type tag")?).ok_or("unknown column type tag")?;
    Ok(ColMeta { table, name, sql_type, ty })
}

/// Deserialize a frame body; rejects truncated, trailing-garbage, or
/// foreign input.
pub fn decode(body: &[u8]) -> Result<Frame, String> {
    let mut r = Reader::new(body);
    let frame = match r.u8("frame tag")? {
        TAG_HELLO => {
            if r.array::<4>("hello magic")? != HELLO_MAGIC {
                return Err("bad hello magic (not a dc-node SQL endpoint?)".into());
            }
            Frame::Hello { version: r.u8("protocol version")? }
        }
        TAG_QUERY => Frame::Query { sql: r.str32("query")? },
        TAG_RESULT_HEADER => {
            let flags = r.u8("result flags")?;
            if flags & !(FLAG_AFFECTED | FLAG_INFO) != 0 {
                return Err(format!("unknown result flags {flags:#x}"));
            }
            let affected =
                (flags & FLAG_AFFECTED != 0).then(|| r.u64("affected rows")).transpose()?;
            let info = (flags & FLAG_INFO != 0).then(|| r.str32("info")).transpose()?;
            let n = r.u16("column count")?;
            let columns = (0..n).map(|_| read_col_meta(&mut r)).collect::<Result<_, _>>()?;
            Frame::ResultHeader { columns, affected, info }
        }
        TAG_ROW_BATCH => {
            let n = r.u16("column count")?;
            let bat = |r: &mut Reader| r.nested(storage::read_bat).map_err(|e| e.to_string());
            Frame::RowBatch { cols: (0..n).map(|_| bat(&mut r)).collect::<Result<_, _>>()? }
        }
        TAG_ERROR => {
            let kind = ErrorKind::from_tag(r.u8("error kind")?).ok_or("unknown error kind tag")?;
            Frame::Error { kind, message: r.str32("error message")? }
        }
        TAG_DONE => Frame::Done,
        other => return Err(format!("unknown frame tag {other}")),
    };
    if !r.rest().is_empty() {
        return Err(format!("{} trailing bytes after frame", r.rest().len()));
    }
    Ok(frame)
}

/// Write one length-prefixed frame. A body beyond the `u32` prefix
/// range is refused — a wrapped length would desynchronize the stream.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> io::Result<()> {
    let body = encode(frame).map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
    w.write_all(&wire::prefix(body.len())?)?;
    w.write_all(&body)?;
    w.flush()
}

/// Read one length-prefixed frame, rejecting bodies above `max_frame`.
/// `Ok(None)` on clean EOF (connection closed between frames); EOF
/// inside a frame is an error. The body buffer grows only as bytes
/// arrive, so a hostile length prefix cannot force an allocation
/// ([`wire::read_prefixed`]).
pub fn read_frame(r: &mut impl Read, max_frame: usize) -> io::Result<Option<Frame>> {
    let Some(body) = wire::read_prefixed(r, max_frame)? else { return Ok(None) };
    decode(&body).map(Some).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// Soft byte budget per `RowBatch` frame. Batches are bounded by bytes
/// as well as rows, so wide rows (big varchars) cannot push a frame
/// anywhere near the [`DEFAULT_MAX_FRAME`] cap a client enforces. A
/// single row larger than the budget still ships alone — one row is the
/// smallest unit of delivery.
pub const MAX_BATCH_BYTES: usize = 8 << 20;

/// Slice a [`ResultSet`] into the frame sequence a server sends for it:
/// `ResultHeader`, zero or more `RowBatch`es of at most `batch_rows`
/// rows (and roughly [`MAX_BATCH_BYTES`] bytes), `Done`. Row batches
/// ship dense tail slices — result delivery pays one column encode,
/// never a per-row string render.
pub fn result_frames(rs: &ResultSet, batch_rows: usize) -> Vec<Frame> {
    let rows = rs.row_count();
    // Bound by bytes too: estimate the per-row wire cost from the tail
    // columns' wire size (not their in-memory one: a coded string column
    // of a few long values is a fraction of its wire form).
    let total_bytes: usize = rs.columns.iter().map(|c| c.data.tail().wire_size()).sum();
    let row_bytes = if rows == 0 { 0 } else { total_bytes.div_ceil(rows).max(1) };
    let batch_rows = match row_bytes {
        0 => batch_rows.max(1),
        _ => batch_rows.max(1).min((MAX_BATCH_BYTES / row_bytes).max(1)),
    };
    let columns = rs
        .columns
        .iter()
        .map(|c| ColMeta {
            table: c.table.clone(),
            name: c.name.clone(),
            sql_type: c.sql_type.clone(),
            ty: c.col_type(),
        })
        .collect();
    let mut frames =
        vec![Frame::ResultHeader { columns, affected: rs.affected, info: rs.info.clone() }];
    let mut lo = 0;
    while lo < rows {
        let hi = (lo + batch_rows).min(rows);
        let cols = rs.columns.iter().map(|c| Bat::dense(c.data.tail().slice(lo, hi))).collect();
        frames.push(Frame::RowBatch { cols });
        lo = hi;
    }
    frames.push(Frame::Done);
    frames
}

/// Reassembles a [`ResultSet`] from a header and its row batches (the
/// client side of [`result_frames`]).
pub struct ResultAssembler {
    meta: Vec<ColMeta>,
    affected: Option<u64>,
    info: Option<String>,
    cols: Vec<Column>,
}

impl ResultAssembler {
    pub fn new(columns: Vec<ColMeta>, affected: Option<u64>, info: Option<String>) -> Self {
        let cols = columns.iter().map(|m| Column::empty(m.ty)).collect();
        ResultAssembler { meta: columns, affected, info, cols }
    }

    /// Append one `RowBatch`'s columns; rejects shape or type drift.
    pub fn push(&mut self, batch: Vec<Bat>) -> Result<(), String> {
        if batch.len() != self.cols.len() {
            return Err(format!(
                "row batch has {} columns, header announced {}",
                batch.len(),
                self.cols.len()
            ));
        }
        let mut rows = None;
        for (i, b) in batch.iter().enumerate() {
            match rows {
                None => rows = Some(b.count()),
                Some(n) if n != b.count() => return Err("ragged row batch".into()),
                Some(_) => {}
            }
            if b.tail_type() != self.meta[i].ty {
                return Err(format!(
                    "column {} is {}, header announced {}",
                    self.meta[i].name,
                    b.tail_type(),
                    self.meta[i].ty
                ));
            }
            self.cols[i].try_extend(b.tail()).map_err(|e| e.to_string())?;
        }
        Ok(())
    }

    pub fn finish(self) -> ResultSet {
        let mut rs = ResultSet { columns: Vec::new(), affected: self.affected, info: self.info };
        for (m, col) in self.meta.into_iter().zip(self.cols) {
            rs.push_column(m.table, m.name, m.sql_type, std::sync::Arc::new(Bat::dense(col)));
        }
        rs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn sample_rs(rows: usize) -> ResultSet {
        let mut rs = ResultSet::new();
        rs.push_column(
            "sys.t",
            "k",
            "int",
            Arc::new(Bat::dense(Column::Int((0..rows as i32).collect()))),
        );
        rs.push_column(
            "sys.t",
            "tag",
            "str",
            Arc::new(Bat::dense(
                (0..rows)
                    .map(|i| if i % 2 == 0 { "even" } else { "odd" })
                    .collect::<Vec<_>>()
                    .into(),
            )),
        );
        rs
    }

    fn round_trip(f: &Frame) -> Frame {
        let mut buf = Vec::new();
        write_frame(&mut buf, f).unwrap();
        read_frame(&mut &buf[..], DEFAULT_MAX_FRAME).unwrap().unwrap()
    }

    #[test]
    fn frames_round_trip() {
        for f in [
            Frame::Hello { version: PROTOCOL_VERSION },
            Frame::Query { sql: "select 'wörld' from kv".into() },
            Frame::ResultHeader { columns: vec![], affected: Some(3), info: None },
            Frame::ResultHeader {
                columns: vec![ColMeta {
                    table: "sys.t".into(),
                    name: "k".into(),
                    sql_type: "int".into(),
                    ty: ColType::Int,
                }],
                affected: None,
                info: Some("note\n".into()),
            },
            Frame::RowBatch { cols: vec![Bat::dense(Column::Int(vec![1, 2, 3].into()))] },
            Frame::Error { kind: ErrorKind::Exec, message: "no such table".into() },
            Frame::Done,
        ] {
            assert_eq!(round_trip(&f), f);
        }
    }

    #[test]
    fn clean_eof_vs_truncation() {
        assert!(read_frame(&mut &b""[..], DEFAULT_MAX_FRAME).unwrap().is_none());
        let mut buf = Vec::new();
        write_frame(&mut buf, &Frame::Done).unwrap();
        assert!(read_frame(&mut &buf[..buf.len() - 1], DEFAULT_MAX_FRAME).is_err());
    }

    #[test]
    fn hostile_length_prefix_rejected_without_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(read_frame(&mut &buf[..], DEFAULT_MAX_FRAME).is_err());
        // Under the cap but lying about available bytes: EOF, no alloc.
        let mut buf = Vec::new();
        buf.extend_from_slice(&1_000_000u32.to_le_bytes());
        buf.push(TAG_DONE);
        assert!(read_frame(&mut &buf[..], DEFAULT_MAX_FRAME).is_err());
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut body = encode(&Frame::Done).unwrap();
        body.push(0);
        assert!(decode(&body).is_err());
    }

    #[test]
    fn bad_hello_magic_rejected() {
        let mut body = encode(&Frame::Hello { version: 1 }).unwrap();
        body[1] = b'X';
        assert!(decode(&body).unwrap_err().contains("magic"));
    }

    #[test]
    fn result_slicing_round_trips() {
        for rows in [0usize, 1, 5, 100] {
            let rs = sample_rs(rows);
            let frames = result_frames(&rs, 7);
            let expected_batches = rows.div_ceil(7);
            assert_eq!(frames.len(), 2 + expected_batches);
            let mut asm = match &frames[0] {
                Frame::ResultHeader { columns, affected, info } => {
                    ResultAssembler::new(columns.clone(), *affected, info.clone())
                }
                other => panic!("{other:?}"),
            };
            for f in &frames[1..frames.len() - 1] {
                match f {
                    Frame::RowBatch { cols } => asm.push(cols.clone()).unwrap(),
                    other => panic!("{other:?}"),
                }
            }
            assert_eq!(frames.last(), Some(&Frame::Done));
            let back = asm.finish();
            assert_eq!(back.render(), rs.render(), "{rows} rows");
            assert_eq!(back.columns[0].col_type(), ColType::Int);
        }
    }

    #[test]
    fn wide_rows_are_batched_by_bytes_not_just_rows() {
        // 200 rows of ~100 KiB strings: a row-count-only slicer would
        // put all of them in one ~20 MiB frame. The byte budget must
        // split them so every frame stays far below the client's cap.
        let wide = "x".repeat(100 * 1024);
        let mut col = Column::empty(ColType::Str);
        for _ in 0..200 {
            col.push(&batstore::Val::Str(wide.clone())).unwrap();
        }
        let mut rs = ResultSet::new();
        rs.push_column("sys.t", "blob", "str", Arc::new(Bat::dense(col)));
        let frames = result_frames(&rs, DEFAULT_BATCH_ROWS);
        assert!(frames.len() > 4, "expected several byte-bounded batches, got {}", frames.len());
        let mut rows = 0;
        for f in &frames[1..frames.len() - 1] {
            let mut buf = Vec::new();
            write_frame(&mut buf, f).unwrap();
            assert!(buf.len() <= MAX_BATCH_BYTES * 2, "frame of {} bytes", buf.len());
            assert!(buf.len() < DEFAULT_MAX_FRAME, "frame of {} bytes breaches the cap", buf.len());
            match f {
                Frame::RowBatch { cols } => rows += cols[0].count(),
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(rows, 200, "no rows lost to batching");
    }

    #[test]
    fn coded_strings_are_batched_by_their_wire_size() {
        // 256 distinct 4 KiB values over 4 096 rows: about 1 MiB in
        // memory (coded), 16 MiB on the wire.
        let values: Vec<String> = (0..256).map(|i| format!("{i:04}").repeat(1024)).collect();
        let col = Column::Str((0..4096).map(|r| &values[r % 256]).collect());
        assert!(col.byte_size() * 8 < col.wire_size(), "coded in memory");
        let mut rs = ResultSet::new();
        rs.push_column("sys.t", "s", "str", Arc::new(Bat::dense(col)));
        let frames = result_frames(&rs, DEFAULT_BATCH_ROWS);
        let mut rows = 0;
        for f in &frames[1..frames.len() - 1] {
            let Frame::RowBatch { cols } = f else { panic!("{f:?}") };
            let wire: usize = cols.iter().map(|b| storage::bat_to_bytes(b).len()).sum();
            assert_eq!(wire, cols.iter().map(storage::encoded_len).sum::<usize>());
            assert!(wire <= MAX_BATCH_BYTES, "a batch of {wire} bytes");
            rows += cols[0].count();
        }
        assert_eq!(rows, 4096);
    }

    #[test]
    fn unknown_error_kind_rejected() {
        let mut body =
            encode(&Frame::Error { kind: ErrorKind::Ring, message: "x".into() }).unwrap();
        body[1] = 99;
        assert!(decode(&body).unwrap_err().contains("error kind"));
    }

    #[test]
    fn assembler_rejects_drift() {
        let rs = sample_rs(4);
        let frames = result_frames(&rs, 10);
        let Frame::ResultHeader { columns, affected, info } = frames[0].clone() else { panic!() };
        let mut asm = ResultAssembler::new(columns.clone(), affected, info.clone());
        // Wrong column count.
        assert!(asm.push(vec![Bat::dense(Column::Int(vec![1].into()))]).is_err());
        // Wrong type in the second column.
        let bad = vec![Bat::dense(Column::Int(vec![1].into())), Bat::dense(Column::Dbl(vec![1.0]))];
        assert!(asm.push(bad).is_err());
        // Ragged batch.
        let ragged = vec![Bat::dense(Column::Int(vec![1, 2].into())), Bat::dense(vec!["a"].into())];
        assert!(asm.push(ragged).is_err());
    }
}
