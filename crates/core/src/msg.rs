//! Ring messages and their binary codec.
//!
//! "BAT messages contain the fields owner, bat_id, bat_size, loi, copies,
//! hops, and cycles. … BAT request messages contain the variables owner
//! and bat_id." (§4.3). We add `version`/`updating` for the §6.4 update
//! scheme, plus two distributed-deployment messages the paper's network
//! layer implies but does not spell out: [`CatalogMsg`] replicates table
//! metadata clockwise so every node can compile SQL without a shared
//! catalog, and [`RoutedMsg`] carries a statement clockwise to the
//! fragment owner (§6.4 updates), answered by one [`AckMsg`]. The codec
//! is a hand-written little-endian layout over `bytes` — small,
//! allocation-light, and fully round-trip tested. It never copies a
//! fragment: the encoder yields a
//! [`Frame`] that *refers* to the payload a `Bat` message already holds
//! (a transport writes the pieces with one vectored write), and the
//! decoder takes the received frame whole ([`decode_frame`]) and hands
//! back a payload that is a slice of it. A routed mutation is
//! [`Mutation::encode`]'s form, the one the owner's WAL logs it in; a
//! pushed SELECT travels as its SQL text and comes back as the `DCR1`
//! form of its [`ResultSet`].

use crate::error::DcError;
use crate::ids::{BatId, NodeId};
pub use batstore::ops::{MutOp, Mutation};
use batstore::{ColType, ResultSet, RowPredicate, Val};
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// The administrative header a circulating BAT carries for hot-set
/// management (§4.2.3).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BatHeader {
    /// The node whose data loader owns (loaded) this BAT.
    pub owner: NodeId,
    pub bat: BatId,
    /// Payload size in bytes (queue accounting and link timing).
    pub size: u64,
    /// Level of interest carried from the last owner pass.
    pub loi: f64,
    /// Nodes that used the BAT since it left its owner.
    pub copies: u32,
    /// Hops since it left its owner (age within the cycle).
    pub hops: u32,
    /// Completed ring cycles.
    pub cycles: u32,
    /// Version counter for the §6.4 multi-version update scheme.
    pub version: u32,
    /// Tagged "updating": concurrent updaters must wait for the new
    /// version; stale readers may still use it (§6.4).
    pub updating: bool,
}

impl BatHeader {
    /// A freshly loaded BAT entering the ring at its owner.
    pub fn fresh(owner: NodeId, bat: BatId, size: u64) -> Self {
        BatHeader {
            owner,
            bat,
            size,
            loi: 0.0,
            copies: 0,
            hops: 0,
            cycles: 0,
            version: 0,
            updating: false,
        }
    }

    /// Bytes a frame carrying this BAT occupies on the wire (header +
    /// payload). A header travelling alone costs [`HEADER_WIRE_BYTES`];
    /// see [`DcMsg::wire_size`].
    pub fn wire_size(&self) -> u64 {
        HEADER_WIRE_BYTES + self.size
    }
}

/// Wire cost of a BAT header (fixed).
pub const HEADER_WIRE_BYTES: u64 = 40;
/// Wire cost of a request message: small and constant; the paper sends
/// them anti-clockwise precisely because they are cheap.
pub const REQUEST_WIRE_BYTES: u64 = 16;

/// A BAT request traveling anti-clockwise toward the owner.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReqMsg {
    /// The requesting node (the paper calls this field `owner` — "the
    /// request node's origin"; renamed to avoid clashing with the BAT's
    /// owner).
    pub origin: NodeId,
    pub bat: BatId,
}

/// One column's catalog entry as replicated around the ring. `version`
/// is the fragment's §6.4 version counter at the time the owner
/// advertised it: every owner-side mutation bumps it and re-gossips, so
/// replicas converge on the same (size, version) view of the table.
#[derive(Clone, Debug, PartialEq)]
pub struct CatalogCol {
    pub name: String,
    pub ty: ColType,
    pub bat: BatId,
    pub size: u64,
    pub owner: NodeId,
    pub version: u32,
}

/// Table metadata gossip. Travels clockwise (the data direction); every
/// node applies it to its local catalogs and forwards, and the origin
/// drops it when it completes the cycle — the same circulate-once shape
/// as a BAT pass, so no shared `Arc` catalog is needed across processes.
#[derive(Clone, Debug, PartialEq)]
pub struct CatalogMsg {
    pub origin: NodeId,
    pub schema: String,
    pub table: String,
    pub columns: Vec<CatalogCol>,
}

impl CatalogMsg {
    fn wire_size(&self) -> u64 {
        let names: usize = self.columns.iter().map(|c| c.name.len() + 21).sum();
        (16 + self.schema.len() + self.table.len() + names) as u64
    }

    /// The one node owning every column of the table: where its routed
    /// statements run. `None` for a table without columns or one spread
    /// over several owners.
    pub fn sole_owner(&self) -> Option<NodeId> {
        let owner = self.columns.first()?.owner;
        self.columns.iter().all(|c| c.owner == owner).then_some(owner)
    }
}

/// A statement traveling clockwise toward the fragment owner, which
/// answers it with one [`AckMsg`] — a mutation applied at most once, a
/// SELECT run whenever it arrives while the owner is not already running
/// it. `(epoch, id)`
/// identifies the statement: `id` counts statements within one origin
/// incarnation and `epoch` is the origin's per-boot nonce, so ids reused
/// after an origin restart can never alias a prior incarnation's
/// statements in the owner's dedup cache. A retried mutation deduplicates
/// at the owner instead of applying twice. If the message returns to its
/// origin the owner is gone and the origin fails the statement.
#[derive(Clone, Debug, PartialEq)]
pub struct RoutedMsg {
    pub origin: NodeId,
    /// The origin's per-boot epoch nonce (statement-id namespace).
    pub epoch: u64,
    pub id: u64,
    /// The origin's lowest still-pending statement id: every one of its
    /// statements below it is settled and never sent again, so the owner
    /// may forget their results.
    pub settled_below: u64,
    pub stmt: RoutedStmt,
}

/// What a [`RoutedMsg`] asks of the owner of one table.
#[derive(Clone, Debug, PartialEq)]
pub enum RoutedStmt {
    /// The SQL INSERT/UPDATE/DELETE (§6.4: "when a node N processes an
    /// update request, for a BAT f…" — the owner rewrites its
    /// authoritative copy and bumps the version). It is *logical* — new
    /// rows, or assignments plus WHERE predicates — because row positions
    /// computed anywhere else could be stale by the time it arrives, and
    /// it is one message, so the owner applies every column in a single
    /// event and statements from several nodes never interleave mid-row.
    Mutate(Mutation),
    /// An aggregate SELECT, as its SQL text, for the node that owns
    /// `schema.table` whole: it compiles and runs the statement — against
    /// its own fragments and whatever else it reads, pulled off the ring
    /// — and answers with the result, so only the result comes back.
    Select { schema: String, table: String, sql: String },
}

impl RoutedStmt {
    /// The table whose owner the statement is for.
    pub fn table(&self) -> (&str, &str) {
        match self {
            RoutedStmt::Mutate(m) => (&m.schema, &m.table),
            RoutedStmt::Select { schema, table, .. } => (schema, table),
        }
    }
}

/// The owner's answer to a [`RoutedMsg`], traveling clockwise until it
/// reaches `target` (the statement's origin). Echoes the statement's
/// `(epoch, id)`: an ack from before the origin's restart must not
/// resolve a statement of its new incarnation that reuses the id.
#[derive(Clone, Debug, PartialEq)]
pub struct AckMsg {
    pub target: NodeId,
    /// The acknowledged statement's origin-boot epoch, echoed back.
    pub epoch: u64,
    pub id: u64,
    pub answer: Answer,
}

/// The owner's answer to a routed statement, of the statement's kind.
#[derive(Clone, Debug, PartialEq)]
pub enum Answer {
    /// A mutation's affected-row count, or the owner-side failure.
    Mutated(Result<u64, String>),
    /// A pushed SELECT's result, or its failure, classified as the run
    /// at the owner classified it.
    Selected(Result<ResultSet, DcError>),
    /// A pushed SELECT re-delivered while the owner still runs it: not
    /// run again, and the origin's retry budget starts over.
    Running,
    /// A pushed SELECT the owner will not answer with its result — its
    /// backlog is full, or the result is too large to send as one frame
    /// — and why: the origin runs the statement itself.
    Declined(String),
}

/// Everything that flows between neighbors.
#[derive(Clone, Debug, PartialEq)]
pub enum DcMsg {
    /// Clockwise data flow. What circulates is the header; `payload`
    /// carries the serialized BAT on the hops that lead toward a node
    /// that asked for it (see [`crate::proto`]).
    Bat { header: BatHeader, payload: Option<Bytes> },
    /// Anti-clockwise request flow.
    Request(ReqMsg),
    /// Clockwise catalog replication.
    Catalog(CatalogMsg),
    /// Clockwise statement routed to the fragment owner.
    Routed(RoutedMsg),
    /// Clockwise acknowledgement routed back to the statement's origin.
    Ack(AckMsg),
}

fn val_wire_size(v: &Val) -> u64 {
    match v {
        Val::Str(s) => 3 + s.len() as u64,
        _ => 9,
    }
}

fn pred_wire_size(p: &RowPredicate) -> u64 {
    3 + p.column().len() as u64
        + match p {
            RowPredicate::Cmp { value, .. } => 3 + val_wire_size(value),
            RowPredicate::Between { lo, hi, .. } => val_wire_size(lo) + val_wire_size(hi),
            RowPredicate::InList { values, .. } => {
                2 + values.iter().map(val_wire_size).sum::<u64>()
            }
        }
}

/// The wire bytes of a pushed SELECT's result in its ack: each column as
/// `DCR1` holds it, three labels and a dense BAT (22 bytes of header, then
/// its values).
pub fn result_wire_size(rs: &ResultSet) -> u64 {
    let col = |c: &batstore::ResultColumn| {
        28 + c.table.len() + c.name.len() + c.sql_type.len() + c.data.byte_size()
    };
    rs.columns.iter().map(col).sum::<usize>() as u64
}

impl DcMsg {
    pub fn wire_size(&self) -> u64 {
        match self {
            // A header travelling alone is billed for the header alone.
            DcMsg::Bat { header, payload: Some(_) } => header.wire_size(),
            DcMsg::Bat { payload: None, .. } => HEADER_WIRE_BYTES,
            DcMsg::Request(_) => REQUEST_WIRE_BYTES,
            DcMsg::Catalog(c) => c.wire_size(),
            DcMsg::Routed(RoutedMsg {
                stmt: RoutedStmt::Select { schema, table, sql }, ..
            }) => (35 + schema.len() + table.len() + sql.len()) as u64,
            DcMsg::Routed(RoutedMsg { stmt: RoutedStmt::Mutate(m), .. }) => {
                let op = match &m.op {
                    // A column travels as a dense BAT: 22 bytes of header
                    // (magic, type tags, row count, head) and its values.
                    MutOp::Insert(given) => {
                        given.iter().map(|(n, c)| 28 + n.len() as u64 + c.byte_size() as u64).sum()
                    }
                    MutOp::Update(a) => {
                        a.iter().map(|(n, v)| 2 + n.len() as u64 + val_wire_size(v)).sum()
                    }
                    MutOp::Delete => 0,
                };
                32 + m.schema.len() as u64
                    + m.table.len() as u64
                    + op
                    + m.preds.iter().map(pred_wire_size).sum::<u64>()
            }
            DcMsg::Ack(a) => match &a.answer {
                Answer::Mutated(r) => 32 + r.as_ref().err().map_or(0, |e| e.len() as u64),
                Answer::Selected(Err(e)) => 33 + e.message().len() as u64,
                Answer::Running => 32,
                Answer::Declined(why) => 32 + why.len() as u64,
                Answer::Selected(Ok(rs)) => 32 + result_wire_size(rs),
            },
        }
    }
}

const TAG_BAT: u8 = 1;
const TAG_REQ: u8 = 2;
const TAG_CATALOG: u8 = 3;
const TAG_ROUTED: u8 = 4;
const TAG_ACK: u8 = 5;
const TAG_SELECT: u8 = 7;

/// An ack's answer kind: the byte after its statement id.
const MUTATE_FAILED: u8 = 0;
const MUTATED: u8 = 1;
const SELECTED: u8 = 2;
const SELECT_FAILED: u8 = 3;
const RUNNING: u8 = 4;
const DECLINED: u8 = 5;

/// A [`DcError`]'s class on the wire, and back.
fn error_class(e: &DcError) -> u8 {
    match e {
        DcError::Parse(_) => 0,
        DcError::Plan(_) => 1,
        DcError::Exec(_) => 2,
        DcError::Ring(_) => 3,
    }
}

fn classified(class: u8, msg: String) -> Result<DcError, String> {
    Ok(match class {
        0 => DcError::Parse(msg),
        1 => DcError::Plan(msg),
        2 => DcError::Exec(msg),
        3 => DcError::Ring(msg),
        other => return Err(format!("unknown error class {other}")),
    })
}

fn put_str(b: &mut BytesMut, s: &str) {
    // Identifiers longer than a u16 length cannot be framed. Truncate at
    // a char boundary rather than writing a corrupt frame that would
    // kill the peer's reader loop (the SQL layer rejects absurd
    // identifiers long before this point).
    let mut len = s.len().min(u16::MAX as usize);
    while !s.is_char_boundary(len) {
        len -= 1;
    }
    b.put_u16_le(len as u16);
    b.put_slice(&s.as_bytes()[..len]);
}

fn get_str(buf: &mut &[u8]) -> Result<String, String> {
    if buf.remaining() < 2 {
        return Err("truncated string length".into());
    }
    let len = buf.get_u16_le() as usize;
    if buf.remaining() < len {
        return Err(format!("truncated string: want {len}, have {}", buf.remaining()));
    }
    let s = std::str::from_utf8(&buf[..len]).map_err(|e| format!("bad utf8: {e}"))?.to_string();
    buf.advance(len);
    Ok(s)
}

/// An encoded message, not yet contiguous: `head` is every byte the
/// encoder produced itself, and each cut is a payload the message already
/// held (a `Bat`'s fragment) with the position in `head` it follows. A
/// transport writes [`Frame::pieces`] in order and so never builds a
/// second copy of a fragment; [`Frame::into_bytes`] concatenates for
/// callers that want one buffer.
pub struct Frame {
    head: BytesMut,
    /// `(at, payload)`: `payload` sits between `head[..at]` and
    /// `head[at..]`; `at` ascends.
    cuts: Vec<(usize, Bytes)>,
}

impl Frame {
    /// Encoded length in bytes: what the length prefix of a framed
    /// transport announces.
    pub fn len(&self) -> usize {
        self.head.len() + self.cuts.iter().map(|(_, p)| p.len()).sum::<usize>()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The frame's bytes in wire order as borrowed, non-empty pieces.
    pub fn pieces(&self) -> impl Iterator<Item = &[u8]> {
        let mut from = 0;
        let cut_pieces = self.cuts.iter().flat_map(move |(at, payload)| {
            let head = &self.head[from..*at];
            from = *at;
            [head, &payload[..]]
        });
        let tail = self.cuts.last().map_or(0, |(at, _)| *at);
        cut_pieces.chain([&self.head[tail..]]).filter(|p| !p.is_empty())
    }

    /// One contiguous buffer. A frame without payloads is handed over as
    /// it is; one with payloads is copied together.
    pub fn into_bytes(self) -> Bytes {
        if self.cuts.is_empty() {
            return self.head.freeze();
        }
        let mut out = BytesMut::with_capacity(self.len());
        for piece in self.pieces() {
            out.put_slice(piece);
        }
        out.freeze()
    }
}

/// Serialize a message into one contiguous buffer.
pub fn encode(msg: &DcMsg) -> Bytes {
    frame(msg).into_bytes()
}

/// Serialize a message for a framed transport without copying its
/// payloads.
pub fn frame(msg: &DcMsg) -> Frame {
    let mut cuts = Vec::new();
    let head = match msg {
        DcMsg::Bat { header, payload } => {
            let plen = payload.as_ref().map(|p| p.len()).unwrap_or(0);
            let mut b = BytesMut::with_capacity(48);
            b.put_u8(TAG_BAT);
            b.put_u16_le(header.owner.0);
            b.put_u32_le(header.bat.0);
            b.put_u64_le(header.size);
            b.put_f64_le(header.loi);
            b.put_u32_le(header.copies);
            b.put_u32_le(header.hops);
            b.put_u32_le(header.cycles);
            b.put_u32_le(header.version);
            b.put_u8(header.updating as u8);
            b.put_u64_le(plen as u64);
            if let Some(p) = payload {
                cuts.push((b.len(), p.clone()));
            }
            b
        }
        DcMsg::Request(r) => {
            let mut b = BytesMut::with_capacity(8);
            b.put_u8(TAG_REQ);
            b.put_u16_le(r.origin.0);
            b.put_u32_le(r.bat.0);
            b
        }
        DcMsg::Catalog(c) => {
            let mut b = BytesMut::with_capacity(c.wire_size() as usize + 16);
            b.put_u8(TAG_CATALOG);
            b.put_u16_le(c.origin.0);
            put_str(&mut b, &c.schema);
            put_str(&mut b, &c.table);
            let ncols = c.columns.len().min(u16::MAX as usize);
            b.put_u16_le(ncols as u16);
            for col in c.columns.iter().take(ncols) {
                put_str(&mut b, &col.name);
                b.put_u8(col.ty.tag());
                b.put_u32_le(col.bat.0);
                b.put_u64_le(col.size);
                b.put_u16_le(col.owner.0);
                b.put_u32_le(col.version);
            }
            b
        }
        DcMsg::Routed(r) => {
            let mut b = BytesMut::with_capacity(msg.wire_size() as usize + 8);
            b.put_u8(match r.stmt {
                RoutedStmt::Mutate(_) => TAG_ROUTED,
                RoutedStmt::Select { .. } => TAG_SELECT,
            });
            b.put_u16_le(r.origin.0);
            b.put_u64_le(r.epoch);
            b.put_u64_le(r.id);
            b.put_u64_le(r.settled_below);
            match &r.stmt {
                RoutedStmt::Mutate(m) => {
                    let mut body = Vec::with_capacity(msg.wire_size() as usize);
                    m.encode(&mut body);
                    b.put_slice(&body);
                }
                RoutedStmt::Select { schema, table, sql } => {
                    put_str(&mut b, schema);
                    put_str(&mut b, table);
                    // Statement text is no identifier: a u32 length, so a
                    // long IN list is never cut short.
                    b.put_u32_le(sql.len() as u32);
                    b.put_slice(sql.as_bytes());
                }
            }
            b
        }
        DcMsg::Ack(a) => {
            let mut b = BytesMut::with_capacity(msg.wire_size() as usize + 8);
            b.put_u8(TAG_ACK);
            b.put_u16_le(a.target.0);
            b.put_u64_le(a.epoch);
            b.put_u64_le(a.id);
            put_answer(&mut b, &a.answer);
            b
        }
    };
    Frame { head, cuts }
}

fn put_answer(b: &mut BytesMut, answer: &Answer) {
    let failed = |b: &mut BytesMut, e: &DcError| {
        b.put_u8(SELECT_FAILED);
        b.put_u8(error_class(e));
        put_str(b, e.message());
    };
    match answer {
        Answer::Mutated(Ok(n)) => {
            b.put_u8(MUTATED);
            b.put_u64_le(*n);
        }
        Answer::Mutated(Err(e)) => {
            b.put_u8(MUTATE_FAILED);
            put_str(b, e);
        }
        Answer::Selected(Ok(rs)) => {
            let mut blob = Vec::new();
            match rs.write_to(&mut blob) {
                Ok(()) => {
                    b.put_u8(SELECTED);
                    b.put_slice(&blob);
                }
                // More columns, or longer labels, than `DCR1` can frame.
                Err(e) => failed(b, &DcError::Exec(format!("the result cannot be sent: {e}"))),
            }
        }
        Answer::Selected(Err(e)) => failed(b, e),
        Answer::Running => b.put_u8(RUNNING),
        Answer::Declined(why) => {
            b.put_u8(DECLINED);
            put_str(b, why);
        }
    }
}

fn get_answer(buf: &mut &[u8]) -> Result<Answer, String> {
    if buf.remaining() < 1 {
        return Err("truncated ack".into());
    }
    Ok(match buf.get_u8() {
        MUTATED => {
            if buf.remaining() < 8 {
                return Err("truncated ack count".into());
            }
            Answer::Mutated(Ok(buf.get_u64_le()))
        }
        MUTATE_FAILED => Answer::Mutated(Err(get_str(buf)?)),
        SELECTED => {
            let rs = ResultSet::read_from(buf).map_err(|e| format!("ack result: {e}"))?;
            Answer::Selected(Ok(rs))
        }
        SELECT_FAILED => {
            if buf.remaining() < 1 {
                return Err("truncated ack error class".into());
            }
            let class = buf.get_u8();
            Answer::Selected(Err(classified(class, get_str(buf)?)?))
        }
        RUNNING => Answer::Running,
        DECLINED => Answer::Declined(get_str(buf)?),
        other => return Err(format!("unknown ack answer {other}")),
    })
}

/// Deserialize a message from borrowed bytes; rejects truncated or
/// foreign frames. A thin entry point over [`decode_frame`] for callers
/// that do not own the buffer: it pays one copy of the frame, which the
/// owning path does not.
pub fn decode(buf: &[u8]) -> Result<DcMsg, String> {
    decode_frame(Bytes::copy_from_slice(buf))
}

/// Deserialize a received frame; rejects truncated or foreign frames.
/// The frame is taken whole so that a `Bat` payload comes back as a
/// slice sharing its allocation — no fragment byte is copied.
pub fn decode_frame(frame: Bytes) -> Result<DcMsg, String> {
    let mut buf: &[u8] = &frame;
    // Where `buf` stands in `frame`, for slicing payloads out of it.
    let at = |buf: &[u8]| frame.len() - buf.len();
    if buf.is_empty() {
        return Err("empty frame".into());
    }
    let tag = buf.get_u8();
    match tag {
        TAG_BAT => {
            // 39 header bytes + the 8-byte payload length that follows.
            if buf.remaining() < 47 {
                return Err("truncated BAT header".into());
            }
            let header = BatHeader {
                owner: NodeId(buf.get_u16_le()),
                bat: BatId(buf.get_u32_le()),
                size: buf.get_u64_le(),
                loi: buf.get_f64_le(),
                copies: buf.get_u32_le(),
                hops: buf.get_u32_le(),
                cycles: buf.get_u32_le(),
                version: buf.get_u32_le(),
                updating: buf.get_u8() != 0,
            };
            // Eq. 1 over a NaN or infinite score never falls below the
            // threshold again: such a fragment could never leave the ring.
            if !header.loi.is_finite() {
                return Err(format!("BAT header with a non-finite LOI ({})", header.loi));
            }
            let plen = buf.get_u64_le() as usize;
            if buf.remaining() < plen {
                return Err(format!(
                    "truncated BAT payload: want {plen}, have {}",
                    buf.remaining()
                ));
            }
            let payload = (plen > 0).then(|| frame.slice(at(buf)..at(buf) + plen));
            Ok(DcMsg::Bat { header, payload })
        }
        TAG_REQ => {
            if buf.remaining() < 6 {
                return Err("truncated request".into());
            }
            Ok(DcMsg::Request(ReqMsg {
                origin: NodeId(buf.get_u16_le()),
                bat: BatId(buf.get_u32_le()),
            }))
        }
        TAG_CATALOG => {
            if buf.remaining() < 2 {
                return Err("truncated catalog origin".into());
            }
            let origin = NodeId(buf.get_u16_le());
            let schema = get_str(&mut buf)?;
            let table = get_str(&mut buf)?;
            if buf.remaining() < 2 {
                return Err("truncated catalog column count".into());
            }
            let n = buf.get_u16_le() as usize;
            let mut columns = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                let name = get_str(&mut buf)?;
                if buf.remaining() < 19 {
                    return Err("truncated catalog column".into());
                }
                let ty = ColType::from_tag(buf.get_u8())
                    .ok_or_else(|| "unknown column type tag".to_string())?;
                columns.push(CatalogCol {
                    name,
                    ty,
                    bat: BatId(buf.get_u32_le()),
                    size: buf.get_u64_le(),
                    owner: NodeId(buf.get_u16_le()),
                    version: buf.get_u32_le(),
                });
            }
            Ok(DcMsg::Catalog(CatalogMsg { origin, schema, table, columns }))
        }
        TAG_ROUTED | TAG_SELECT => {
            if buf.remaining() < 26 {
                return Err("truncated routed header".into());
            }
            let origin = NodeId(buf.get_u16_le());
            let epoch = buf.get_u64_le();
            let id = buf.get_u64_le();
            let settled_below = buf.get_u64_le();
            let stmt = if tag == TAG_ROUTED {
                RoutedStmt::Mutate(Mutation::decode(&mut buf)?)
            } else {
                let schema = get_str(&mut buf)?;
                let table = get_str(&mut buf)?;
                if buf.remaining() < 4 {
                    return Err("truncated statement length".into());
                }
                let len = buf.get_u32_le() as usize;
                let Some(text) = buf.get(..len) else {
                    return Err(format!("truncated statement: want {len}, have {}", buf.len()));
                };
                let sql = std::str::from_utf8(text).map_err(|e| format!("bad utf8: {e}"))?;
                RoutedStmt::Select { schema, table, sql: sql.to_string() }
            };
            Ok(DcMsg::Routed(RoutedMsg { origin, epoch, id, settled_below, stmt }))
        }
        TAG_ACK => {
            if buf.remaining() < 18 {
                return Err("truncated ack".into());
            }
            let target = NodeId(buf.get_u16_le());
            let epoch = buf.get_u64_le();
            let id = buf.get_u64_le();
            let answer = get_answer(&mut buf)?;
            Ok(DcMsg::Ack(AckMsg { target, epoch, id, answer }))
        }
        other => Err(format!("unknown message tag {other}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use batstore::ops::CmpOp;

    fn hdr() -> BatHeader {
        BatHeader {
            owner: NodeId(3),
            bat: BatId(500),
            size: 5 * 1024 * 1024,
            loi: 0.75,
            copies: 4,
            hops: 7,
            cycles: 12,
            version: 2,
            updating: true,
        }
    }

    #[test]
    fn bat_round_trip_no_payload() {
        let m = DcMsg::Bat { header: hdr(), payload: None };
        assert_eq!(decode(&encode(&m)).unwrap(), m);
    }

    #[test]
    fn bat_round_trip_with_payload() {
        let m = DcMsg::Bat { header: hdr(), payload: Some(Bytes::from_static(b"hello-bat")) };
        assert_eq!(decode(&encode(&m)).unwrap(), m);
    }

    #[test]
    fn request_round_trip() {
        let m = DcMsg::Request(ReqMsg { origin: NodeId(9), bat: BatId(123) });
        assert_eq!(decode(&encode(&m)).unwrap(), m);
    }

    #[test]
    fn truncation_rejected() {
        let enc = encode(&DcMsg::Bat { header: hdr(), payload: Some(Bytes::from_static(b"xyz")) });
        for cut in [0, 1, 10, enc.len() - 1] {
            assert!(decode(&enc[..cut]).is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn unknown_tag_rejected() {
        // 6 was the spill notice older members gossiped.
        for tag in [6, 77] {
            assert!(decode(&[tag, 0, 0]).unwrap_err().contains("unknown message tag"));
        }
    }

    #[test]
    fn fresh_header_defaults() {
        let h = BatHeader::fresh(NodeId(1), BatId(2), 1000);
        assert_eq!(h.loi, 0.0);
        assert_eq!((h.copies, h.hops, h.cycles), (0, 0, 0));
        assert!(!h.updating);
        assert_eq!(h.wire_size(), HEADER_WIRE_BYTES + 1000);
    }

    fn catalog_msg() -> DcMsg {
        DcMsg::Catalog(CatalogMsg {
            origin: NodeId(2),
            schema: "sys".into(),
            table: "sales".into(),
            columns: vec![
                CatalogCol {
                    name: "region".into(),
                    ty: ColType::Str,
                    bat: BatId(11),
                    size: 4096,
                    owner: NodeId(0),
                    version: 3,
                },
                CatalogCol {
                    name: "amount".into(),
                    ty: ColType::Int,
                    bat: BatId(12),
                    size: 2048,
                    owner: NodeId(1),
                    version: 0,
                },
            ],
        })
    }

    #[test]
    fn catalog_round_trip() {
        let m = catalog_msg();
        assert_eq!(decode(&encode(&m)).unwrap(), m);
    }

    #[test]
    fn catalog_truncation_rejected() {
        let enc = encode(&catalog_msg());
        for cut in [1, 3, 5, 9, 12, enc.len() - 1] {
            assert!(decode(&enc[..cut]).is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn catalog_bad_type_tag_rejected() {
        let mut enc = encode(&catalog_msg()).to_vec();
        // The type tag follows origin(2) + "sys"(2+3) + "sales"(2+5) +
        // count(2) + "region"(2+6) after the message tag byte.
        let pos = 1 + 2 + 5 + 7 + 2 + 8;
        assert_eq!(
            ColType::from_tag(enc[pos]),
            Some(ColType::Str),
            "offset arithmetic must hit the tag"
        );
        enc[pos] = 200;
        assert!(decode(&enc).unwrap_err().contains("type tag"));
    }

    fn routed(m: Mutation) -> DcMsg {
        routed_stmt(RoutedStmt::Mutate(m))
    }

    fn routed_stmt(stmt: RoutedStmt) -> DcMsg {
        DcMsg::Routed(RoutedMsg {
            origin: NodeId(2),
            epoch: 0xdead_beef_cafe,
            id: 77,
            settled_below: 75,
            stmt,
        })
    }

    #[test]
    fn insert_round_trip_and_truncation() {
        let given = vec![
            ("k".into(), batstore::Column::from(vec![1, 2, 3])),
            ("v".into(), batstore::Column::from(vec!["a", "bb", ""])),
        ];
        let m = routed(Mutation {
            schema: "sys".into(),
            table: "kv".into(),
            op: MutOp::Insert(given),
            preds: vec![],
        });
        let enc = encode(&m);
        assert_eq!(decode(&enc).unwrap(), m);
        for cut in [2, 5, 10, 15, 20, 21, 40, 80, enc.len() - 1] {
            assert!(decode(&enc[..cut]).is_err(), "cut at {cut} must fail");
        }
        // Billed near its bytes: the estimate leaves out two counts and
        // a string column's two heap lengths.
        assert_eq!(enc.len() - m.wire_size() as usize, 2 + 2 + 16);
    }

    fn mutate_msg() -> DcMsg {
        routed(Mutation {
            schema: "sys".into(),
            table: "acct".into(),
            op: MutOp::Update(vec![
                ("bal".into(), Val::Lng(99)),
                ("tag".into(), Val::Str("hot".into())),
            ]),
            preds: vec![
                RowPredicate::Cmp { column: "id".into(), op: CmpOp::Ge, value: Val::Int(2) },
                RowPredicate::Between {
                    column: "bal".into(),
                    lo: Val::Dbl(0.5),
                    hi: Val::Dbl(9.5),
                },
                RowPredicate::InList {
                    column: "tag".into(),
                    values: vec![Val::Str("a".into()), Val::Bool(true), Val::Date(123)],
                },
            ],
        })
    }

    #[test]
    fn mutate_round_trip_and_truncation() {
        let m = mutate_msg();
        let enc = encode(&m);
        assert_eq!(decode(&enc).unwrap(), m);
        for cut in [1, 5, 12, 20, 30, enc.len() - 1] {
            assert!(decode(&enc[..cut]).is_err(), "cut at {cut} must fail");
        }
        // DELETE with no predicates (the smallest mutation).
        let d = routed(Mutation {
            schema: "sys".into(),
            table: "t".into(),
            op: MutOp::Delete,
            preds: vec![],
        });
        assert_eq!(decode(&encode(&d)).unwrap(), d);
        assert!(m.wire_size() > d.wire_size());
    }

    #[test]
    fn unknown_mutation_op_rejected() {
        let mut enc = encode(&mutate_msg()).to_vec();
        // The op tag follows tag(1) + origin(2) + epoch(8) + id(8) +
        // settled_below(8) + "sys"(2+3) + "acct"(2+4).
        assert_eq!(enc[38], 1, "offset arithmetic must hit the UPDATE tag");
        for tag in [0, 4, 99] {
            enc[38] = tag;
            assert!(decode(&enc).unwrap_err().contains("op tag"));
        }
    }

    #[test]
    fn ack_round_trip_both_outcomes() {
        let ack = |id, answer| DcMsg::Ack(AckMsg { target: NodeId(1), epoch: 5, id, answer });
        let ok = ack(9, Answer::Mutated(Ok(4)));
        assert_eq!(decode(&encode(&ok)).unwrap(), ok);
        let err = ack(10, Answer::Mutated(Err("no owner found".into())));
        let enc = encode(&err);
        assert_eq!(decode(&enc).unwrap(), err);
        for cut in [1, 4, 11, 18, enc.len() - 1] {
            assert!(decode(&enc[..cut]).is_err(), "cut at {cut} must fail");
        }
        // A mutation's answer kept its bytes: the kind, then the count.
        assert_eq!(encode(&ok)[19..], [1, 4, 0, 0, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn pushed_select_and_its_answers_round_trip() {
        let select = routed_stmt(RoutedStmt::Select {
            schema: "sys".into(),
            table: "lineitem".into(),
            sql: "select count(*) from lineitem where l_quantity < 24".into(),
        });
        let enc = encode(&select);
        assert_eq!(enc[0], TAG_SELECT);
        assert_eq!(decode(&enc).unwrap(), select);
        assert_eq!(enc.len() as u64, select.wire_size());
        let mut rs = ResultSet::new();
        let count = batstore::Bat::dense(batstore::Column::from(vec![7i64]));
        rs.push_column("sys", "count", "lng", std::sync::Arc::new(count));
        for answer in [
            Answer::Selected(Ok(rs)),
            Answer::Selected(Err(DcError::Exec("avg over zero rows".into()))),
            Answer::Selected(Err(DcError::Ring("pin timed out".into()))),
            Answer::Running,
            Answer::Declined("the result is too large".into()),
        ] {
            let ack = DcMsg::Ack(AckMsg { target: NodeId(0), epoch: 1, id: 2, answer });
            assert_eq!(decode(&encode(&ack)).unwrap(), ack);
        }
    }

    #[test]
    fn catalog_carries_versions() {
        let m = catalog_msg();
        let DcMsg::Catalog(c) = decode(&encode(&m)).unwrap() else { panic!() };
        assert_eq!(c.columns[0].version, 3);
        assert_eq!(c.columns[1].version, 0);
    }

    #[test]
    fn request_wire_size_small() {
        let m = DcMsg::Request(ReqMsg { origin: NodeId(0), bat: BatId(0) });
        assert_eq!(m.wire_size(), REQUEST_WIRE_BYTES);
        assert!(m.wire_size() < 100, "requests must be cheap upstream traffic");
    }
}
