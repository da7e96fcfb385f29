//! The write-ahead log: every durable change of a node — table creation
//! (local DDL or gossip-applied metadata), bulk-loaded fragments, and
//! INSERT/UPDATE/DELETE statements with their §6.4 version bumps — is
//! framed, checksummed, and appended here *before* it is applied in
//! memory. A record names or describes a fragment version; it never
//! holds a payload the version's `bats/` file already holds.
//!
//! Frame layout (little-endian):
//! ```text
//! u32  payload length
//! u32  CRC-32 (IEEE) of the payload
//! payload: u8 record tag, then the tag-specific body
//! ```
//! Replay ([`replay_wal`]) walks frames until the file ends or a frame
//! fails its length or CRC check — a *tear*. Everything before the tear
//! is applied; the tear and anything after it are discarded, which is
//! exactly the contract a crash mid-append requires. An intact frame of
//! a record kind this build no longer writes is not a tear: it is
//! refused, by name, because replaying around it would lose data.

use batstore::ops::Mutation;
use batstore::wire::{put_str16, put_u16, put_u32, put_u64, Reader};
use batstore::ColType;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// When to `fsync` the WAL.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Sync after every record: an acknowledged mutation survives power
    /// loss, at one disk flush per statement.
    Always,
    /// Sync every N records: bounded loss window, amortized flushes.
    EveryN(u32),
    /// Never sync explicitly: survives process crashes (the OS page
    /// cache persists), not power loss.
    Off,
}

/// One column of a [`TableRec`].
#[derive(Clone, Debug, PartialEq)]
pub struct ColRec {
    pub name: String,
    pub ty: ColType,
    pub bat: u32,
    pub size: u64,
    pub owner: u16,
}

/// Table metadata as logged and snapshotted: the durable form of the
/// ring's `CatalogMsg` gossip.
#[derive(Clone, Debug, PartialEq)]
pub struct TableRec {
    pub origin: u16,
    pub schema: String,
    pub table: String,
    pub cols: Vec<ColRec>,
}

/// One durable change.
#[derive(Clone, Debug, PartialEq)]
pub enum WalRecord {
    /// Table metadata became known at this node (CREATE TABLE here, or
    /// catalog gossip from elsewhere).
    Table(TableRec),
    /// An owned fragment's payload at `version` is the data dir's
    /// `bats/<bat>.v<version>.bat` — the same statement in the WAL (a
    /// bulk load wrote and synced that file first) as in `catalog.snap`
    /// (a checkpoint did).
    FragMeta { bat: u32, version: u32 },
    /// A SQL `INSERT`/`UPDATE`/`DELETE` applied at the fragment owner:
    /// the statement as it was routed (an INSERT carries its rows), and
    /// the version each column it rewrote reached (`(bat, version)`, in
    /// table order). Replay re-executes the statement with
    /// [`batstore::ops::stage`], and only when every such column stands
    /// at exactly `version - 1`; one frame holds the whole statement, so
    /// a crash never half-applies it — never persists half a row.
    Mutate { m: Mutation, versions: Vec<(u32, u32)> },
}

const TAG_TABLE: u8 = 1;
const TAG_FRAG_META: u8 = 4;
const TAG_MUTATE: u8 = 8;

/// Tags earlier builds wrote and this one does not read: `Store` carried
/// a bulk load's whole payload, `Update`/`Delete` every rewritten
/// column's, `Append`/`AppendBatch` an INSERT's rows per fragment.
pub(crate) const RETIRED: [(u8, &str); 5] =
    [(2, "Store"), (3, "Append"), (5, "AppendBatch"), (6, "Update"), (7, "Delete")];

/// Frames larger than this are treated as corruption, not data. Row
/// batches are INSERT-statement sized; even bulk loads stay far below.
pub const MAX_RECORD: usize = 1 << 30;

// ---- CRC-32 (IEEE 802.3) -----------------------------------------------

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is the
/// CRC of byte `b` followed by `k` zero bytes, which is what lets eight
/// input bytes be folded in with eight independent lookups
/// (slicing-by-8) instead of eight dependent ones.
const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xedb8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xff) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

/// One byte into the running (inverted) CRC.
fn crc_step(c: u32, b: u8) -> u32 {
    CRC_TABLES[0][((c ^ b as u32) & 0xff) as usize] ^ (c >> 8)
}

/// CRC-32 (IEEE) of `bytes`, the checksum guarding every WAL frame:
/// eight bytes per step, the rest a byte at a time.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xffff_ffffu32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        c = t[7][(lo & 0xff) as usize]
            ^ t[6][(lo >> 8 & 0xff) as usize]
            ^ t[5][(lo >> 16 & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    words.remainder().iter().fold(c, |c, &b| crc_step(c, b)) ^ 0xffff_ffff
}

// ---- codec --------------------------------------------------------------

/// Serialize a record payload (tag + body, no frame header).
fn encode_payload(rec: &WalRecord) -> Vec<u8> {
    let mut out = Vec::new();
    match rec {
        WalRecord::Table(t) => {
            out.push(TAG_TABLE);
            put_u16(&mut out, t.origin);
            put_str16(&mut out, &t.schema);
            put_str16(&mut out, &t.table);
            let ncols = t.cols.len().min(u16::MAX as usize);
            put_u16(&mut out, ncols as u16);
            for c in t.cols.iter().take(ncols) {
                put_str16(&mut out, &c.name);
                out.push(c.ty.tag());
                put_u32(&mut out, c.bat);
                put_u64(&mut out, c.size);
                put_u16(&mut out, c.owner);
            }
        }
        WalRecord::Mutate { m, versions } => {
            out.push(TAG_MUTATE);
            m.encode(&mut out);
            let n = versions.len().min(u16::MAX as usize);
            put_u16(&mut out, n as u16);
            for &(bat, version) in versions.iter().take(n) {
                put_u32(&mut out, bat);
                put_u32(&mut out, version);
            }
        }
        WalRecord::FragMeta { bat, version } => {
            out.push(TAG_FRAG_META);
            put_u32(&mut out, *bat);
            put_u32(&mut out, *version);
        }
    }
    out
}

/// Serialize a record as a complete frame (length + CRC + payload).
pub fn encode_record(rec: &WalRecord) -> Vec<u8> {
    let payload = encode_payload(rec);
    let mut out = Vec::with_capacity(payload.len() + 8);
    put_u32(&mut out, payload.len() as u32);
    put_u32(&mut out, crc32(&payload));
    out.extend_from_slice(&payload);
    out
}

fn read_col(r: &mut Reader) -> Result<ColRec, String> {
    let name = r.str16("column name")?;
    let ty = ColType::from_tag(r.u8("column type")?).ok_or("unknown column type tag")?;
    Ok(ColRec { name, ty, bat: r.u32("column")?, size: r.u64("column")?, owner: r.u16("column")? })
}

/// Deserialize one record payload (as framed by [`encode_record`]).
pub fn decode_payload(payload: &[u8]) -> Result<WalRecord, String> {
    let mut r = Reader::new(payload);
    Ok(match r.u8("record tag")? {
        TAG_TABLE => {
            let origin = r.u16("table origin")?;
            let schema = r.str16("schema")?;
            let table = r.str16("table")?;
            let n = r.u16("column count")?;
            let cols = (0..n).map(|_| read_col(&mut r)).collect::<Result<_, _>>()?;
            WalRecord::Table(TableRec { origin, schema, table, cols })
        }
        TAG_FRAG_META => {
            WalRecord::FragMeta { bat: r.u32("fragment")?, version: r.u32("version")? }
        }
        TAG_MUTATE => {
            let m = r.nested(Mutation::decode)?;
            let n = r.u16("version count")?;
            let versions = (0..n)
                .map(|_| Ok((r.u32("fragment")?, r.u32("version")?)))
                .collect::<Result<_, String>>()?;
            WalRecord::Mutate { m, versions }
        }
        other => return Err(format!("unknown record tag {other}")),
    })
}

/// Parse a buffer of concatenated frames, stopping cleanly at the first
/// tear (short frame, bad CRC, or undecodable payload). Returns the
/// records before the tear and whether one was found — or an error
/// naming the kind, when an intact frame holds a record kind an older build
/// wrote and this one does not read (the module's retired-kind table).
pub fn decode_frames(buf: &[u8]) -> Result<(Vec<WalRecord>, bool), String> {
    let mut records = Vec::new();
    let mut r = Reader::new(buf);
    while !r.rest().is_empty() {
        let (Ok(len), Ok(crc)) = (r.u32("frame length"), r.u32("frame checksum")) else {
            return Ok((records, true));
        };
        let payload = match r.bytes(len as usize, "record") {
            Ok(payload) if payload.len() <= MAX_RECORD && crc32(payload) == crc => payload,
            _ => return Ok((records, true)),
        };
        if let Some((tag, kind)) = RETIRED.iter().find(|(t, _)| payload.first() == Some(t)) {
            return Err(format!(
                "record {} holds a retired {kind} record (tag {tag}), written by an older build",
                records.len()
            ));
        }
        match decode_payload(payload) {
            Ok(rec) => records.push(rec),
            Err(_) => return Ok((records, true)),
        }
    }
    Ok((records, false))
}

// ---- writer -------------------------------------------------------------

/// Appends framed records to one WAL file, syncing per [`FsyncPolicy`].
pub struct WalWriter {
    file: File,
    policy: FsyncPolicy,
    unsynced: u32,
    /// Total frame bytes appended through this writer.
    pub bytes: u64,
    /// Records appended through this writer.
    pub records: u64,
    /// Latency histograms (microseconds) the engine attaches: whole
    /// appends (including any policy-triggered fsync) and bare fsyncs.
    append_hist: Option<Arc<dc_obs::Histogram>>,
    sync_hist: Option<Arc<dc_obs::Histogram>>,
}

impl WalWriter {
    /// Create (truncating) the WAL file at `path`.
    pub fn create(path: &Path, policy: FsyncPolicy) -> std::io::Result<WalWriter> {
        Ok(WalWriter {
            file: open_truncated(path)?,
            policy,
            unsynced: 0,
            bytes: 0,
            records: 0,
            append_hist: None,
            sync_hist: None,
        })
    }

    /// Attach latency histograms: `append` records every
    /// [`WalWriter::append`] (inclusive of its policy fsync), `sync`
    /// records every physical [`WalWriter::sync`]. They stay attached
    /// across [`WalWriter::rotate`].
    pub fn set_metrics(&mut self, append: Arc<dc_obs::Histogram>, sync: Arc<dc_obs::Histogram>) {
        self.append_hist = Some(append);
        self.sync_hist = Some(sync);
    }

    /// Append to a fresh (truncated) file at `path` from here on, under
    /// the same fsync policy and histograms. Whatever the policy left
    /// unsynced in the file appended to until now stays so. On an error
    /// the writer goes on appending where it did.
    pub fn rotate(&mut self, path: &Path) -> std::io::Result<()> {
        self.file = open_truncated(path)?;
        self.unsynced = 0;
        Ok(())
    }

    /// Append one record; returns the frame size in bytes. The record is
    /// durable per the fsync policy when this returns.
    pub fn append(&mut self, rec: &WalRecord) -> std::io::Result<u64> {
        let start = Instant::now();
        let frame = encode_record(rec);
        self.file.write_all(&frame)?;
        self.bytes += frame.len() as u64;
        self.records += 1;
        self.unsynced += 1;
        match self.policy {
            FsyncPolicy::Always => self.sync()?,
            FsyncPolicy::EveryN(n) => {
                if self.unsynced >= n.max(1) {
                    self.sync()?;
                }
            }
            FsyncPolicy::Off => {}
        }
        if let Some(h) = &self.append_hist {
            h.record_elapsed_micros(start);
        }
        Ok(frame.len() as u64)
    }

    /// Force everything appended so far to disk.
    pub fn sync(&mut self) -> std::io::Result<()> {
        let start = Instant::now();
        self.file.sync_data()?;
        self.unsynced = 0;
        if let Some(h) = &self.sync_hist {
            h.record_elapsed_micros(start);
        }
        Ok(())
    }
}

fn open_truncated(path: &Path) -> std::io::Result<File> {
    OpenOptions::new().create(true).write(true).truncate(true).open(path)
}

/// The outcome of replaying one WAL file.
#[derive(Debug)]
pub struct Replay {
    pub records: Vec<WalRecord>,
    /// A torn (half-written or corrupt) frame ended the replay early.
    pub torn: bool,
}

/// Replay a WAL file; a missing file replays as empty (a node that
/// crashed before its first append). A retired record kind is an
/// `InvalidData` error that names it.
pub fn replay_wal(path: &Path) -> std::io::Result<Replay> {
    let buf = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    let (records, torn) =
        decode_frames(&buf).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    Ok(Replay { records, torn })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use batstore::ops::{CmpOp, MutOp, RowPredicate};
    use batstore::{Column, Val};

    /// `oltp_mix`'s INSERT shape, `insert into kv values (2042, 7,
    /// 'n2042')`, growing fragments 9–11 to version 5.
    fn insert_record() -> WalRecord {
        let given = vec![
            ("id".into(), Column::from(vec![2042])),
            ("v".into(), Column::from(vec![7])),
            ("tag".into(), Column::from(vec!["n2042"])),
        ];
        WalRecord::Mutate {
            m: Mutation {
                schema: "sys".into(),
                table: "kv".into(),
                op: MutOp::Insert(given),
                preds: vec![],
            },
            versions: vec![(9, 5), (10, 5), (11, 5)],
        }
    }

    /// `oltp_mix`'s UPDATE shape: `update kv set v = 4711 where id = 42`,
    /// rewriting column `v` (fragment 10) to version 3.
    fn update_record() -> WalRecord {
        WalRecord::Mutate {
            m: Mutation {
                schema: "sys".into(),
                table: "kv".into(),
                op: MutOp::Update(vec![("v".into(), Val::Int(4711))]),
                preds: vec![RowPredicate::Cmp {
                    column: "id".into(),
                    op: CmpOp::Eq,
                    value: Val::Int(42),
                }],
            },
            versions: vec![(10, 3)],
        }
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Table(TableRec {
                origin: 2,
                schema: "sys".into(),
                table: "kv".into(),
                cols: vec![
                    ColRec { name: "k".into(), ty: ColType::Int, bat: 9, size: 0, owner: 2 },
                    ColRec { name: "v".into(), ty: ColType::Str, bat: 10, size: 0, owner: 2 },
                ],
            }),
            WalRecord::FragMeta { bat: 9, version: 0 },
            insert_record(),
            WalRecord::FragMeta { bat: 10, version: 7 },
            update_record(),
            WalRecord::Mutate {
                m: Mutation {
                    schema: "sys".into(),
                    table: "kv".into(),
                    op: MutOp::Delete,
                    preds: vec![
                        RowPredicate::Between {
                            column: "k".into(),
                            lo: Val::Int(1),
                            hi: Val::Int(9),
                        },
                        RowPredicate::InList {
                            column: "v".into(),
                            values: vec![Val::from("a"), Val::from("é")],
                        },
                    ],
                },
                versions: vec![(9, 4), (10, 4)],
            },
        ]
    }

    #[test]
    fn record_round_trip() {
        for rec in sample_records() {
            let frame = encode_record(&rec);
            let back = decode_payload(&frame[8..]).unwrap();
            assert_eq!(back, rec);
        }
    }

    #[test]
    fn frames_round_trip_in_sequence() {
        let recs = sample_records();
        let mut buf = Vec::new();
        for r in &recs {
            buf.extend_from_slice(&encode_record(r));
        }
        let (back, torn) = decode_frames(&buf).unwrap();
        assert!(!torn);
        assert_eq!(back, recs);
    }

    #[test]
    fn torn_tail_stops_cleanly() {
        let recs = sample_records();
        let mut buf = Vec::new();
        for r in &recs {
            buf.extend_from_slice(&encode_record(r));
        }
        // Cut the final frame short: everything before it still replays.
        let (back, torn) = decode_frames(&buf[..buf.len() - 3]).unwrap();
        assert!(torn);
        assert_eq!(back, recs[..recs.len() - 1]);
    }

    #[test]
    fn bit_flip_detected_by_crc() {
        let mut buf = encode_record(&insert_record());
        let last = buf.len() - 1;
        buf[last] ^= 0x40;
        let (back, torn) = decode_frames(&buf).unwrap();
        assert!(torn);
        assert!(back.is_empty());
    }

    /// A frame with a valid checksum around a retired record kind, as an
    /// older build wrote it (only the tag matters).
    pub(crate) fn retired_frame(tag: u8) -> Vec<u8> {
        let payload = [tag, 42, 0, 0, 0, 3, 0, 0, 0, 1, 2, 3];
        let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        frame
    }

    #[test]
    fn a_retired_record_kind_is_refused_by_name_not_torn() {
        for (tag, kind) in RETIRED {
            let mut buf = encode_record(&WalRecord::FragMeta { bat: 1, version: 0 });
            buf.extend_from_slice(&retired_frame(tag));
            let err = decode_frames(&buf).unwrap_err();
            assert!(err.contains(kind) && err.contains("record 1"), "{err}");
        }
    }

    /// The bytes this build logs for a bulk load and for `oltp_mix`'s
    /// UPDATE, frozen: a change to either encoding breaks every data
    /// dir written before it, so it must be a deliberate one.
    #[test]
    fn frag_meta_and_mutate_records_match_their_fixtures() {
        let cases: [(&[u8], WalRecord); 2] = [
            (
                include_bytes!("../fixtures/frag_meta_record.wal"),
                WalRecord::FragMeta { bat: 16_777_217, version: 0 },
            ),
            (include_bytes!("../fixtures/mutate_record.wal"), update_record()),
        ];
        for (fixture, rec) in cases {
            assert_eq!(decode_frames(fixture).unwrap(), (vec![rec.clone()], false));
            assert_eq!(encode_record(&rec), fixture, "{rec:?}");
        }
    }

    /// `oltp_mix`'s INSERT as this build logs it, frozen the same way.
    /// The fixture was laid out by hand from the codec's description
    /// (each column a dense `DCB1` BAT), not written by this encoder.
    #[test]
    fn insert_record_matches_its_fixture() {
        let fixture: &[u8] = include_bytes!("../fixtures/insert_record.wal");
        assert_eq!(decode_frames(fixture).unwrap(), (vec![insert_record()], false));
        assert_eq!(encode_record(&insert_record()), fixture);
    }

    #[test]
    fn absurd_length_is_a_tear_not_an_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        buf.extend_from_slice(&[0u8; 12]);
        let (back, torn) = decode_frames(&buf).unwrap();
        assert!(torn && back.is_empty());
    }

    #[test]
    fn writer_appends_and_replays() {
        let dir = std::env::temp_dir().join(format!("dc_wal_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal-1.log");
        let mut w = WalWriter::create(&path, FsyncPolicy::EveryN(2)).unwrap();
        for rec in sample_records() {
            w.append(&rec).unwrap();
        }
        assert_eq!(w.records, sample_records().len() as u64);
        assert!(w.bytes > 0);
        let replay = replay_wal(&path).unwrap();
        assert!(!replay.torn);
        assert_eq!(replay.records, sample_records());
        // A trailing half-frame tears but keeps the prefix.
        std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap()
            .write_all(&[9u8, 9, 9])
            .unwrap();
        let replay = replay_wal(&path).unwrap();
        assert!(replay.torn);
        assert_eq!(replay.records, sample_records());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_wal_replays_empty() {
        let replay = replay_wal(Path::new("/nonexistent/dc/wal.log")).unwrap();
        assert!(replay.records.is_empty() && !replay.torn);
    }

    #[test]
    fn crc_known_vector() {
        // The classic IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
    }

    /// The byte-at-a-time loop `crc32` used to be: the reference.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        bytes.iter().fold(0xffff_ffff, |c, &b| crc_step(c, b)) ^ 0xffff_ffff
    }

    #[test]
    fn crc_equals_the_bytewise_loop_at_every_length_and_alignment() {
        let data: Vec<u8> =
            (0..80_022u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();
        for len in (0..70).chain([255, 256, 1_000, 4_095, 80_022]) {
            for start in 0..9.min(data.len() - len + 1) {
                let slice = &data[start..start + len];
                assert_eq!(crc32(slice), crc32_bytewise(slice), "{len} bytes from {start}");
            }
        }
    }

    proptest::proptest! {
        /// Every length mod 8 is drawn: the eight-byte steps, the tail
        /// loop and the hand-over between them agree with the reference.
        #[test]
        fn crc_equals_the_bytewise_loop(
            words in proptest::collection::vec(proptest::prelude::any::<u64>(), 0..40),
            tail in 0usize..8,
        ) {
            let mut bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
            bytes.truncate(bytes.len().saturating_sub(tail));
            proptest::prop_assert_eq!(crc32(&bytes), crc32_bytewise(&bytes));
        }
    }
}
