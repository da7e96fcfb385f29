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
//! is a little-endian layout written and read with `batstore::wire`, so
//! every read of a peer's frame is checked. It never copies a
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
use batstore::wire::{put_f64, put_str16, put_str32, put_u16, put_u32, put_u64, Reader};
use batstore::{storage, ColType, ResultSet, RowPredicate, Val};
use bytes::Bytes;

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

    /// Bytes a frame carrying this BAT occupies when its payload is
    /// `size` bytes (header + payload), as the ring simulator bills it. A
    /// live frame is billed what it carries ([`DcMsg::wire_size`]).
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
/// `DCR1` holds it, three length-prefixed labels and its BAT's `DCB1`
/// encoding.
pub fn result_wire_size(rs: &ResultSet) -> u64 {
    let col = |c: &batstore::ResultColumn| {
        6 + c.table.len() + c.name.len() + c.sql_type.len() + storage::encoded_len(&c.data)
    };
    rs.columns.iter().map(col).sum::<usize>() as u64
}

impl DcMsg {
    pub fn wire_size(&self) -> u64 {
        match self {
            // A header travelling alone is billed for the header alone,
            // a payload for its encoded bytes (the header's size is what
            // the fragment takes in memory).
            DcMsg::Bat { payload: Some(p), .. } => HEADER_WIRE_BYTES + p.len() as u64,
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
                        given.iter().map(|(n, c)| 28 + n.len() as u64 + c.wire_size() as u64).sum()
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

/// An encoded message, not yet contiguous: `head` is every byte the
/// encoder produced itself, and each cut is a payload the message already
/// held (a `Bat`'s fragment) with the position in `head` it follows. A
/// transport writes [`Frame::pieces`] in order and so never builds a
/// second copy of a fragment; [`Frame::into_bytes`] concatenates for
/// callers that want one buffer.
pub struct Frame {
    head: Vec<u8>,
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
            return Bytes::from(self.head);
        }
        Bytes::from(self.pieces().collect::<Vec<_>>().concat())
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
    let cap = match msg {
        DcMsg::Bat { .. } => 48,
        _ => msg.wire_size() as usize + 16,
    };
    let mut b = Vec::with_capacity(cap);
    match msg {
        DcMsg::Bat { header: h, payload } => {
            b.push(TAG_BAT);
            put_u16(&mut b, h.owner.0);
            put_u32(&mut b, h.bat.0);
            put_u64(&mut b, h.size);
            put_f64(&mut b, h.loi);
            for v in [h.copies, h.hops, h.cycles, h.version] {
                put_u32(&mut b, v);
            }
            b.push(u8::from(h.updating));
            put_u64(&mut b, payload.as_ref().map_or(0, |p| p.len() as u64));
            if let Some(p) = payload {
                cuts.push((b.len(), p.clone()));
            }
        }
        DcMsg::Request(r) => {
            b.push(TAG_REQ);
            put_u16(&mut b, r.origin.0);
            put_u32(&mut b, r.bat.0);
        }
        DcMsg::Catalog(c) => {
            b.push(TAG_CATALOG);
            put_u16(&mut b, c.origin.0);
            put_str16(&mut b, &c.schema);
            put_str16(&mut b, &c.table);
            let ncols = c.columns.len().min(u16::MAX as usize);
            put_u16(&mut b, ncols as u16);
            for col in c.columns.iter().take(ncols) {
                put_str16(&mut b, &col.name);
                b.push(col.ty.tag());
                put_u32(&mut b, col.bat.0);
                put_u64(&mut b, col.size);
                put_u16(&mut b, col.owner.0);
                put_u32(&mut b, col.version);
            }
        }
        DcMsg::Routed(r) => {
            b.push(match r.stmt {
                RoutedStmt::Mutate(_) => TAG_ROUTED,
                RoutedStmt::Select { .. } => TAG_SELECT,
            });
            put_u16(&mut b, r.origin.0);
            for v in [r.epoch, r.id, r.settled_below] {
                put_u64(&mut b, v);
            }
            match &r.stmt {
                RoutedStmt::Mutate(m) => m.encode(&mut b),
                RoutedStmt::Select { schema, table, sql } => {
                    put_str16(&mut b, schema);
                    put_str16(&mut b, table);
                    // Statement text is no identifier: a u32 length, so a
                    // long IN list is never cut short.
                    put_str32(&mut b, sql);
                }
            }
        }
        DcMsg::Ack(a) => {
            b.push(TAG_ACK);
            put_u16(&mut b, a.target.0);
            put_u64(&mut b, a.epoch);
            put_u64(&mut b, a.id);
            put_answer(&mut b, &a.answer);
        }
    }
    Frame { head: b, cuts }
}

fn put_answer(b: &mut Vec<u8>, answer: &Answer) {
    let failed = |b: &mut Vec<u8>, e: &DcError| {
        b.push(SELECT_FAILED);
        b.push(error_class(e));
        put_str16(b, e.message());
    };
    match answer {
        Answer::Mutated(Ok(n)) => {
            b.push(MUTATED);
            put_u64(b, *n);
        }
        Answer::Mutated(Err(e)) => {
            b.push(MUTATE_FAILED);
            put_str16(b, e);
        }
        Answer::Selected(Ok(rs)) => {
            let at = b.len();
            b.push(SELECTED);
            // More columns, or longer labels, than `DCR1` can frame.
            if let Err(e) = rs.write_to(b) {
                b.truncate(at);
                failed(b, &DcError::Exec(format!("the result cannot be sent: {e}")));
            }
        }
        Answer::Selected(Err(e)) => failed(b, e),
        Answer::Running => b.push(RUNNING),
        Answer::Declined(why) => {
            b.push(DECLINED);
            put_str16(b, why);
        }
    }
}

fn read_answer(r: &mut Reader) -> Result<Answer, String> {
    Ok(match r.u8("ack answer")? {
        MUTATED => Answer::Mutated(Ok(r.u64("ack count")?)),
        MUTATE_FAILED => Answer::Mutated(Err(r.str16("ack error")?)),
        SELECTED => {
            let rs = r.nested(ResultSet::read_from).map_err(|e| format!("ack result: {e}"))?;
            Answer::Selected(Ok(rs))
        }
        SELECT_FAILED => {
            let class = r.u8("ack error class")?;
            Answer::Selected(Err(classified(class, r.str16("ack error")?)?))
        }
        RUNNING => Answer::Running,
        DECLINED => Answer::Declined(r.str16("ack reason")?),
        other => return Err(format!("unknown ack answer {other}")),
    })
}

fn read_catalog_col(r: &mut Reader) -> Result<CatalogCol, String> {
    let name = r.str16("catalog column name")?;
    let ty = ColType::from_tag(r.u8("catalog column")?).ok_or("unknown column type tag")?;
    Ok(CatalogCol {
        name,
        ty,
        bat: BatId(r.u32("catalog column")?),
        size: r.u64("catalog column")?,
        owner: NodeId(r.u16("catalog column")?),
        version: r.u32("catalog column")?,
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
    let mut r = Reader::new(&frame);
    let tag = r.u8("message tag")?;
    Ok(match tag {
        TAG_BAT => {
            let header = BatHeader {
                owner: NodeId(r.u16("BAT header")?),
                bat: BatId(r.u32("BAT header")?),
                size: r.u64("BAT header")?,
                loi: r.f64("BAT header")?,
                copies: r.u32("BAT header")?,
                hops: r.u32("BAT header")?,
                cycles: r.u32("BAT header")?,
                version: r.u32("BAT header")?,
                updating: r.u8("BAT header")? != 0,
            };
            // Eq. 1 over a NaN or infinite score never falls below the
            // threshold again: such a fragment could never leave the ring.
            if !header.loi.is_finite() {
                return Err(format!("BAT header with a non-finite LOI ({})", header.loi));
            }
            let plen = r.u64("BAT payload length")?;
            let at = r.consumed();
            let payload = r.bytes(usize::try_from(plen).unwrap_or(usize::MAX), "BAT payload")?;
            let payload = (plen > 0).then(|| frame.slice(at..at + payload.len()));
            DcMsg::Bat { header, payload }
        }
        TAG_REQ => DcMsg::Request(ReqMsg {
            origin: NodeId(r.u16("request")?),
            bat: BatId(r.u32("request")?),
        }),
        TAG_CATALOG => {
            let origin = NodeId(r.u16("catalog origin")?);
            let schema = r.str16("catalog schema")?;
            let table = r.str16("catalog table")?;
            let n = r.u16("catalog column count")?;
            let columns = (0..n).map(|_| read_catalog_col(&mut r)).collect::<Result<_, _>>()?;
            DcMsg::Catalog(CatalogMsg { origin, schema, table, columns })
        }
        TAG_ROUTED | TAG_SELECT => {
            let origin = NodeId(r.u16("routed header")?);
            let epoch = r.u64("routed header")?;
            let id = r.u64("routed header")?;
            let settled_below = r.u64("routed header")?;
            let stmt = if tag == TAG_ROUTED {
                RoutedStmt::Mutate(r.nested(Mutation::decode)?)
            } else {
                RoutedStmt::Select {
                    schema: r.str16("statement schema")?,
                    table: r.str16("statement table")?,
                    sql: r.str32("statement")?,
                }
            };
            DcMsg::Routed(RoutedMsg { origin, epoch, id, settled_below, stmt })
        }
        TAG_ACK => {
            let target = NodeId(r.u16("ack")?);
            let epoch = r.u64("ack")?;
            let id = r.u64("ack")?;
            DcMsg::Ack(AckMsg { target, epoch, id, answer: read_answer(&mut r)? })
        }
        other => return Err(format!("unknown message tag {other}")),
    })
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
    fn a_result_is_sized_by_its_wire_form_not_its_memory() {
        // 256 distinct 4 KiB values over 4 096 rows: about 1 MiB in
        // memory (coded), 16 MiB on the wire.
        let values: Vec<String> = (0..256).map(|i| format!("{i:04}").repeat(1024)).collect();
        let col = batstore::Column::Str((0..4096).map(|r| &values[r % 256]).collect());
        assert!(col.byte_size() * 8 < col.wire_size(), "coded in memory");
        let bat = batstore::Bat::dense(col);
        assert_eq!(storage::encoded_len(&bat), storage::bat_to_bytes(&bat).len());
        let mut rs = ResultSet::new();
        rs.push_column("sys.t", "s", "str", std::sync::Arc::new(bat));
        let mut blob = Vec::new();
        rs.write_to(&mut blob).unwrap();
        // `DCR1`'s magic, flags and column count, then the columns.
        assert_eq!(result_wire_size(&rs), blob.len() as u64 - 7);
        let ack = DcMsg::Ack(AckMsg {
            target: NodeId(0),
            epoch: 1,
            id: 2,
            answer: Answer::Selected(Ok(rs)),
        });
        assert!(ack.wire_size() > crate::routed::PUSHED_RESULT_MAX, "declined, not shipped");
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
