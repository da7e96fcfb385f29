//! The write-ahead log: every durable mutation of a node — table
//! creation (local DDL or gossip-applied metadata), initial fragment
//! payloads, and row appends with their §6.4 version bumps — is framed,
//! checksummed, and appended here *before* it is applied in memory.
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
//! exactly the contract a crash mid-append requires.

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

/// One durable mutation.
#[derive(Clone, Debug, PartialEq)]
pub enum WalRecord {
    /// Table metadata became known at this node (CREATE TABLE here, or
    /// catalog gossip from elsewhere).
    Table(TableRec),
    /// An owned fragment's payload is now exactly `rows` (serialized
    /// BAT) at `version` — the driver-side bulk load path.
    Store { bat: u32, version: u32, rows: Vec<u8> },
    /// `rows` (a serialized BAT of tail values) was appended to an owned
    /// fragment, producing `version`. Replay applies a record only when
    /// `version == current + 1`, making checkpoint/WAL-tail overlap
    /// idempotent.
    Append { bat: u32, version: u32, rows: Vec<u8> },
    /// A multi-fragment append applied as one unit — the durable form of
    /// a multi-column INSERT batch. One CRC-framed record holds every
    /// column, so a crash can never persist half a row: either the whole
    /// batch replays or the tear discards all of it. Each part follows
    /// [`WalRecord::Append`]'s version rules independently.
    AppendBatch(Vec<AppendPart>),
    /// Snapshot-only: an owned fragment checkpointed at `version` (the
    /// payload lives in the data dir's `bats/` file, not the record).
    FragMeta { bat: u32, version: u32 },
    /// A SQL `UPDATE` applied at the fragment owner: each part carries a
    /// touched column's *complete* replacement payload at its bumped
    /// version (§6.4). One CRC-framed record holds every assigned
    /// column, so a crash can never half-apply a multi-column UPDATE:
    /// either the whole record replays or the tear discards all of it.
    /// Replay applies a part only when `version > current` — complete
    /// payloads are state, not deltas, so overlap and gaps are both
    /// idempotent.
    Update(Vec<ReplacePart>),
    /// A SQL `DELETE` applied at the fragment owner: every column of the
    /// table, shrunk in lockstep, as complete replacement payloads.
    /// Same atomicity and version-gating rules as [`WalRecord::Update`].
    Delete(Vec<ReplacePart>),
}

/// One fragment's slice of an [`WalRecord::AppendBatch`].
#[derive(Clone, Debug, PartialEq)]
pub struct AppendPart {
    pub bat: u32,
    pub version: u32,
    pub rows: Vec<u8>,
}

/// One fragment's slice of an [`WalRecord::Update`] or
/// [`WalRecord::Delete`]: the fragment's complete serialized payload
/// *after* the mutation, at its bumped version.
#[derive(Clone, Debug, PartialEq)]
pub struct ReplacePart {
    pub bat: u32,
    pub version: u32,
    pub rows: Vec<u8>,
}

const TAG_TABLE: u8 = 1;
const TAG_STORE: u8 = 2;
const TAG_APPEND: u8 = 3;
const TAG_FRAG_META: u8 = 4;
const TAG_APPEND_BATCH: u8 = 5;
const TAG_UPDATE: u8 = 6;
const TAG_DELETE: u8 = 7;

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

fn put_str(out: &mut Vec<u8>, s: &str) {
    let len = s.len().min(u16::MAX as usize) as u16;
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&s.as_bytes()[..len as usize]);
}

struct Cursor<'a>(&'a [u8]);

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.0.len() < n {
            return Err(format!("record truncated: want {n} bytes, have {}", self.0.len()));
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, String> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2 bytes")))
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn str(&mut self) -> Result<String, String> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|e| format!("bad utf8: {e}"))
    }
}

/// Serialize a record payload (tag + body, no frame header).
fn encode_payload(rec: &WalRecord) -> Vec<u8> {
    let mut out = Vec::new();
    match rec {
        WalRecord::Table(t) => {
            out.push(TAG_TABLE);
            out.extend_from_slice(&t.origin.to_le_bytes());
            put_str(&mut out, &t.schema);
            put_str(&mut out, &t.table);
            let ncols = t.cols.len().min(u16::MAX as usize);
            out.extend_from_slice(&(ncols as u16).to_le_bytes());
            for c in t.cols.iter().take(ncols) {
                put_str(&mut out, &c.name);
                out.push(c.ty.tag());
                out.extend_from_slice(&c.bat.to_le_bytes());
                out.extend_from_slice(&c.size.to_le_bytes());
                out.extend_from_slice(&c.owner.to_le_bytes());
            }
        }
        WalRecord::Store { bat, version, rows } | WalRecord::Append { bat, version, rows } => {
            out.push(if matches!(rec, WalRecord::Store { .. }) { TAG_STORE } else { TAG_APPEND });
            out.extend_from_slice(&bat.to_le_bytes());
            out.extend_from_slice(&version.to_le_bytes());
            out.extend_from_slice(rows);
        }
        WalRecord::AppendBatch(parts) => {
            out.push(TAG_APPEND_BATCH);
            let nparts = parts.len().min(u16::MAX as usize);
            out.extend_from_slice(&(nparts as u16).to_le_bytes());
            for p in parts.iter().take(nparts) {
                out.extend_from_slice(&p.bat.to_le_bytes());
                out.extend_from_slice(&p.version.to_le_bytes());
                out.extend_from_slice(&(p.rows.len() as u64).to_le_bytes());
                out.extend_from_slice(&p.rows);
            }
        }
        WalRecord::Update(parts) | WalRecord::Delete(parts) => {
            out.push(if matches!(rec, WalRecord::Update(_)) { TAG_UPDATE } else { TAG_DELETE });
            let nparts = parts.len().min(u16::MAX as usize);
            out.extend_from_slice(&(nparts as u16).to_le_bytes());
            for p in parts.iter().take(nparts) {
                out.extend_from_slice(&p.bat.to_le_bytes());
                out.extend_from_slice(&p.version.to_le_bytes());
                out.extend_from_slice(&(p.rows.len() as u64).to_le_bytes());
                out.extend_from_slice(&p.rows);
            }
        }
        WalRecord::FragMeta { bat, version } => {
            out.push(TAG_FRAG_META);
            out.extend_from_slice(&bat.to_le_bytes());
            out.extend_from_slice(&version.to_le_bytes());
        }
    }
    out
}

/// Serialize a record as a complete frame (length + CRC + payload).
pub fn encode_record(rec: &WalRecord) -> Vec<u8> {
    let payload = encode_payload(rec);
    let mut out = Vec::with_capacity(payload.len() + 8);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Deserialize one record payload (as framed by [`encode_record`]).
pub fn decode_payload(payload: &[u8]) -> Result<WalRecord, String> {
    let mut c = Cursor(payload);
    match c.u8()? {
        TAG_TABLE => {
            let origin = c.u16()?;
            let schema = c.str()?;
            let table = c.str()?;
            let ncols = c.u16()? as usize;
            let mut cols = Vec::with_capacity(ncols.min(1024));
            for _ in 0..ncols {
                let name = c.str()?;
                let ty = ColType::from_tag(c.u8()?).ok_or("unknown column type tag")?;
                cols.push(ColRec { name, ty, bat: c.u32()?, size: c.u64()?, owner: c.u16()? });
            }
            Ok(WalRecord::Table(TableRec { origin, schema, table, cols }))
        }
        tag @ (TAG_STORE | TAG_APPEND) => {
            let bat = c.u32()?;
            let version = c.u32()?;
            let rows = c.0.to_vec();
            if tag == TAG_STORE {
                Ok(WalRecord::Store { bat, version, rows })
            } else {
                Ok(WalRecord::Append { bat, version, rows })
            }
        }
        TAG_APPEND_BATCH => {
            let nparts = c.u16()? as usize;
            let mut parts = Vec::with_capacity(nparts.min(1024));
            for _ in 0..nparts {
                let bat = c.u32()?;
                let version = c.u32()?;
                let len = c.u64()? as usize;
                parts.push(AppendPart { bat, version, rows: c.take(len)?.to_vec() });
            }
            Ok(WalRecord::AppendBatch(parts))
        }
        TAG_FRAG_META => Ok(WalRecord::FragMeta { bat: c.u32()?, version: c.u32()? }),
        tag @ (TAG_UPDATE | TAG_DELETE) => {
            let nparts = c.u16()? as usize;
            let mut parts = Vec::with_capacity(nparts.min(1024));
            for _ in 0..nparts {
                let bat = c.u32()?;
                let version = c.u32()?;
                let len = c.u64()? as usize;
                parts.push(ReplacePart { bat, version, rows: c.take(len)?.to_vec() });
            }
            if tag == TAG_UPDATE {
                Ok(WalRecord::Update(parts))
            } else {
                Ok(WalRecord::Delete(parts))
            }
        }
        other => Err(format!("unknown record tag {other}")),
    }
}

/// Parse a buffer of concatenated frames, stopping cleanly at the first
/// tear (short frame, bad CRC, or undecodable payload). Returns the
/// records before the tear and whether one was found.
pub fn decode_frames(mut buf: &[u8]) -> (Vec<WalRecord>, bool) {
    let mut records = Vec::new();
    while buf.len() >= 8 {
        let len = u32::from_le_bytes(buf[0..4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(buf[4..8].try_into().expect("4 bytes"));
        if len > MAX_RECORD || buf.len() - 8 < len {
            return (records, true);
        }
        let payload = &buf[8..8 + len];
        if crc32(payload) != crc {
            return (records, true);
        }
        match decode_payload(payload) {
            Ok(rec) => records.push(rec),
            Err(_) => return (records, true),
        }
        buf = &buf[8 + len..];
    }
    (records, !buf.is_empty())
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
        let file = OpenOptions::new().create(true).write(true).truncate(true).open(path)?;
        Ok(WalWriter {
            file,
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
    /// records every physical [`WalWriter::sync`]. Survives nothing —
    /// re-attach after rotating to a fresh writer.
    pub fn set_metrics(&mut self, append: Arc<dc_obs::Histogram>, sync: Arc<dc_obs::Histogram>) {
        self.append_hist = Some(append);
        self.sync_hist = Some(sync);
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

/// The outcome of replaying one WAL file.
#[derive(Debug)]
pub struct Replay {
    pub records: Vec<WalRecord>,
    /// A torn (half-written or corrupt) frame ended the replay early.
    pub torn: bool,
}

/// Replay a WAL file; a missing file replays as empty (a node that
/// crashed before its first append).
pub fn replay_wal(path: &Path) -> std::io::Result<Replay> {
    let buf = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    let (records, torn) = decode_frames(&buf);
    Ok(Replay { records, torn })
}

#[cfg(test)]
mod tests {
    use super::*;

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
            WalRecord::Store { bat: 9, version: 0, rows: vec![1, 2, 3] },
            WalRecord::Append { bat: 9, version: 1, rows: vec![4, 5] },
            WalRecord::AppendBatch(vec![
                AppendPart { bat: 9, version: 2, rows: vec![6] },
                AppendPart { bat: 10, version: 1, rows: vec![7, 8] },
            ]),
            WalRecord::FragMeta { bat: 10, version: 7 },
            WalRecord::Update(vec![
                ReplacePart { bat: 9, version: 3, rows: vec![1, 1, 1] },
                ReplacePart { bat: 10, version: 2, rows: vec![2, 2] },
            ]),
            WalRecord::Delete(vec![ReplacePart { bat: 9, version: 4, rows: vec![] }]),
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
        let (back, torn) = decode_frames(&buf);
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
        let (back, torn) = decode_frames(&buf[..buf.len() - 3]);
        assert!(torn);
        assert_eq!(back, recs[..recs.len() - 1]);
    }

    #[test]
    fn bit_flip_detected_by_crc() {
        let mut buf = encode_record(&WalRecord::Store { bat: 1, version: 0, rows: vec![7; 32] });
        let last = buf.len() - 1;
        buf[last] ^= 0x40;
        let (back, torn) = decode_frames(&buf);
        assert!(torn);
        assert!(back.is_empty());
    }

    /// A `Store` record written before the `DCB1` codec moved columns in
    /// blocks (its rows came from the per-element encoder): it must still
    /// frame-check, decode and yield the same BAT, and today's encoder
    /// must produce the very same bytes — WALs in existing data dirs stay
    /// replayable.
    #[test]
    fn store_record_from_an_older_build_still_replays() {
        use batstore::{storage, Bat, Column};
        let fixture: &[u8] = include_bytes!("../fixtures/store_record.wal");
        let (recs, torn) = decode_frames(fixture);
        assert!(!torn);
        let [WalRecord::Store { bat: 42, version: 3, rows }] = &recs[..] else {
            panic!("unexpected fixture contents: {recs:?}");
        };
        let want = Bat::dense_from(100, Column::from(vec![1i64 << 40, -5, 0]));
        let got = storage::bat_from_bytes(rows).unwrap();
        assert_eq!((got.head(), got.tail()), (want.head(), want.tail()));
        let rec = WalRecord::Store { bat: 42, version: 3, rows: storage::bat_to_bytes(&want) };
        assert_eq!(encode_record(&rec), fixture);
    }

    #[test]
    fn absurd_length_is_a_tear_not_an_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        buf.extend_from_slice(&[0u8; 12]);
        let (back, torn) = decode_frames(&buf);
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
