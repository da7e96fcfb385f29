//! Crash recovery: manifest → catalog snapshot → fragment snapshots →
//! WAL tail, rebuilding exactly the durable state a node owned when it
//! died. Replay is idempotent: a WAL record whose effects are already in
//! the checkpoint is skipped by version, so the checkpoint/WAL overlap a
//! mid-checkpoint crash leaves behind applies once, not twice.
//!
//! Recovery also deletes every fragment file the committed catalog
//! snapshot does not name. Such a file is what a checkpoint that crashed
//! before its commit left behind, and checkpoints write a
//! `(fragment, version)` only when its file is absent: after a torn WAL
//! tail the node can mint a *different* payload under that same version
//! number, which an adopted orphan would silently replace.

use crate::datadir::DataDir;
use crate::wal::{replay_wal, TableRec, WalRecord};
use batstore::{storage, Bat};
use std::collections::{HashMap, HashSet};

/// An owned fragment rebuilt from disk.
#[derive(Debug)]
pub struct RecFrag {
    pub version: u32,
    pub bat: Bat,
}

/// Everything recovery rebuilds, plus counters for the node's stats.
#[derive(Debug)]
pub struct Recovered {
    /// Every table this node knew (foreign owners included), in the
    /// order they became known.
    pub tables: Vec<TableRec>,
    /// Owned fragment payloads at their recovered versions.
    pub frags: HashMap<u32, RecFrag>,
    /// WAL records applied during replay.
    pub wal_records: u64,
    /// Records skipped as already-covered by the checkpoint (version
    /// overlap) — expected after a mid-checkpoint crash.
    pub wal_skipped: u64,
    /// Replay ended at a torn record (expected after a crash mid-append).
    pub torn: bool,
    /// The WAL generation the caller should write next.
    pub next_gen: u64,
}

/// Rebuild durable state from `dir`. `node` guards against pointing a
/// node at another node's directory.
pub fn recover(dir: &DataDir, node: u16) -> Result<Recovered, String> {
    let manifest = dir.read_manifest().map_err(|e| format!("reading MANIFEST: {e}"))?;
    let Some(manifest) = manifest else {
        // Fresh directory: nothing to replay, and nothing committed for
        // a fragment file to belong to.
        drop_unnamed(dir, &HashSet::new())?;
        return Ok(Recovered {
            tables: Vec::new(),
            frags: HashMap::new(),
            wal_records: 0,
            wal_skipped: 0,
            torn: false,
            next_gen: 1,
        });
    };
    if manifest.node != node {
        return Err(format!(
            "data dir {} belongs to node {}, not node {node}",
            dir.root().display(),
            manifest.node
        ));
    }

    let mut tables: Vec<TableRec> = Vec::new();
    let mut frags: HashMap<u32, RecFrag> = HashMap::new();
    let mut wal_records = 0u64;
    let mut wal_skipped = 0u64;

    // 1. Catalog snapshot: table metadata + which fragment files to load.
    let snap = match std::fs::read(dir.snap_path()) {
        Ok(bytes) => {
            let (records, torn) = crate::wal::decode_frames(&bytes);
            if torn {
                // The snapshot is written atomically; a tear means tampering
                // or disk corruption, not a crash. Refuse to guess.
                return Err(format!("corrupt catalog snapshot {}", dir.snap_path().display()));
            }
            records
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(format!("reading catalog snapshot: {e}")),
    };
    let mut named = HashSet::new();
    for rec in snap {
        match rec {
            WalRecord::Table(t) => upsert_table(&mut tables, t),
            WalRecord::FragMeta { bat, version } => {
                let path = dir.bat_path(bat, version);
                let payload = storage::load_bat(&path)
                    .map_err(|e| format!("loading fragment {bat} v{version}: {e}"))?;
                frags.insert(bat, RecFrag { version, bat: payload });
                named.insert(path);
            }
            other => return Err(format!("unexpected snapshot record {other:?}")),
        }
    }
    drop_unnamed(dir, &named)?;

    // 2. WAL tail, oldest generation first, stopping at the first tear.
    let gens = dir.wal_generations().map_err(|e| format!("listing WALs: {e}"))?;
    let mut torn = false;
    let mut max_gen = manifest.replay_from.saturating_sub(1);
    for gen in gens {
        if gen < manifest.replay_from {
            continue; // folded into the snapshot; awaiting cleanup
        }
        max_gen = max_gen.max(gen);
        let replay =
            replay_wal(&dir.wal_path(gen)).map_err(|e| format!("replaying wal-{gen}: {e}"))?;
        for rec in replay.records {
            match apply(&mut tables, &mut frags, node, rec)? {
                Applied::Yes => wal_records += 1,
                Applied::Skipped => wal_skipped += 1,
            }
        }
        if replay.torn {
            // Records beyond a tear (including later generations) may
            // depend on the lost suffix; stop at the consistent prefix.
            torn = true;
            break;
        }
    }

    // 3. Owned fragments that never saw a payload record (freshly
    //    created empty tables) materialize as empty BATs of the catalog
    //    type.
    for t in &tables {
        for c in &t.cols {
            if c.owner == node {
                frags.entry(c.bat).or_insert_with(|| RecFrag { version: 0, bat: Bat::empty(c.ty) });
            }
        }
    }

    Ok(Recovered { tables, frags, wal_records, wal_skipped, torn, next_gen: max_gen + 1 })
}

/// Delete the fragment files the committed snapshot does not name (see
/// the module docs for why none may survive into the next checkpoint).
fn drop_unnamed(dir: &DataDir, named: &HashSet<std::path::PathBuf>) -> Result<(), String> {
    dir.retain_bats(named).map_err(|e| format!("clearing uncommitted fragment files: {e}"))
}

enum Applied {
    Yes,
    Skipped,
}

fn upsert_table(tables: &mut Vec<TableRec>, t: TableRec) {
    match tables.iter_mut().find(|x| x.schema == t.schema && x.table == t.table) {
        Some(slot) => *slot = t,
        None => tables.push(t),
    }
}

fn apply(
    tables: &mut Vec<TableRec>,
    frags: &mut HashMap<u32, RecFrag>,
    node: u16,
    rec: WalRecord,
) -> Result<Applied, String> {
    match rec {
        WalRecord::Table(t) => {
            // CREATE TABLE logs only metadata; the owned fragments it
            // implies must exist (empty) before later appends replay
            // onto them.
            for c in &t.cols {
                if c.owner == node {
                    frags
                        .entry(c.bat)
                        .or_insert_with(|| RecFrag { version: 0, bat: Bat::empty(c.ty) });
                }
            }
            upsert_table(tables, t);
            Ok(Applied::Yes)
        }
        WalRecord::Store { bat, version, rows } => {
            if let Some(cur) = frags.get(&bat) {
                if cur.version > version {
                    return Ok(Applied::Skipped); // checkpoint is newer
                }
            }
            let payload =
                storage::bat_from_bytes(&rows).map_err(|e| format!("store {bat}: {e}"))?;
            frags.insert(bat, RecFrag { version, bat: payload });
            Ok(Applied::Yes)
        }
        WalRecord::Append { bat, version, rows } => apply_append(frags, bat, version, &rows),
        WalRecord::AppendBatch(parts) => {
            // The record frame is the atomicity unit: all parts are on
            // disk together. Each fragment still applies by its own
            // version rules so checkpoint overlap skips correctly.
            let mut any = false;
            for p in parts {
                if matches!(apply_append(frags, p.bat, p.version, &p.rows)?, Applied::Yes) {
                    any = true;
                }
            }
            Ok(if any { Applied::Yes } else { Applied::Skipped })
        }
        WalRecord::Update(parts) | WalRecord::Delete(parts) => {
            // The record frame is the atomicity unit: a multi-column
            // UPDATE (or a DELETE shrinking every column) is on disk
            // whole or not at all. Each part carries the fragment's
            // complete post-mutation payload, so replay is a wholesale
            // replacement gated on `version > current` — idempotent
            // across checkpoint overlap, and safe across version gaps
            // (state, not deltas).
            let mut any = false;
            for p in parts {
                if matches!(apply_replace(frags, p.bat, p.version, &p.rows)?, Applied::Yes) {
                    any = true;
                }
            }
            Ok(if any { Applied::Yes } else { Applied::Skipped })
        }
        WalRecord::FragMeta { bat, .. } => {
            Err(format!("FragMeta {bat} is a snapshot-only record, found in WAL"))
        }
    }
}

fn apply_replace(
    frags: &mut HashMap<u32, RecFrag>,
    bat: u32,
    version: u32,
    rows: &[u8],
) -> Result<Applied, String> {
    if let Some(cur) = frags.get(&bat) {
        if version <= cur.version {
            return Ok(Applied::Skipped); // already in the checkpoint
        }
    }
    let payload = storage::bat_from_bytes(rows).map_err(|e| format!("replace {bat}: {e}"))?;
    frags.insert(bat, RecFrag { version, bat: payload });
    Ok(Applied::Yes)
}

fn apply_append(
    frags: &mut HashMap<u32, RecFrag>,
    bat: u32,
    version: u32,
    rows: &[u8],
) -> Result<Applied, String> {
    let Some(cur) = frags.get_mut(&bat) else {
        // The Store/Table record establishing the fragment was lost
        // ahead of a tear; nothing safe to append onto.
        return Ok(Applied::Skipped);
    };
    if version <= cur.version {
        return Ok(Applied::Skipped); // already in the checkpoint
    }
    if version != cur.version + 1 {
        // A gap means an intermediate record vanished; appending out of
        // order would silently corrupt the fragment.
        return Ok(Applied::Skipped);
    }
    let vals = storage::bat_from_bytes(rows).map_err(|e| format!("append {bat}: {e}"))?;
    cur.bat = cur.bat.extend_tail(vals.tail()).map_err(|e| format!("append {bat}: {e}"))?;
    cur.version = version;
    Ok(Applied::Yes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{write_checkpoint, write_fragment_files, FragSnap, Snapshot};
    use crate::wal::{encode_record, ColRec, FsyncPolicy, WalWriter};
    use batstore::{ColType, Column, Val};
    use proptest::prelude::*;
    use std::sync::Arc;

    fn scratch(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("dc_recover_{tag}_{}", std::process::id()))
    }

    fn table_rec(node: u16, bat: u32) -> TableRec {
        TableRec {
            origin: node,
            schema: "sys".into(),
            table: "t".into(),
            cols: vec![ColRec { name: "id".into(), ty: ColType::Int, bat, size: 0, owner: node }],
        }
    }

    fn rows(vals: Vec<i32>) -> Vec<u8> {
        storage::bat_to_bytes(&Bat::dense(Column::from(vals)))
    }

    #[test]
    fn fresh_dir_recovers_empty() {
        let root = scratch("fresh");
        let dir = DataDir::open(&root).unwrap();
        let rec = recover(&dir, 0).unwrap();
        assert!(rec.tables.is_empty() && rec.frags.is_empty());
        assert_eq!(rec.next_gen, 1);
        assert!(!rec.torn);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn node_id_mismatch_refused() {
        let root = scratch("mismatch");
        let dir = DataDir::open(&root).unwrap();
        dir.write_manifest(&crate::datadir::Manifest { node: 4, replay_from: 1 }).unwrap();
        let err = recover(&dir, 0).unwrap_err();
        assert!(err.contains("belongs to node 4"), "{err}");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn wal_only_recovery_rebuilds_state() {
        let root = scratch("walonly");
        let dir = DataDir::open(&root).unwrap();
        dir.write_manifest(&crate::datadir::Manifest { node: 0, replay_from: 1 }).unwrap();
        let mut w = WalWriter::create(&dir.wal_path(1), FsyncPolicy::Off).unwrap();
        w.append(&WalRecord::Table(table_rec(0, 7))).unwrap();
        w.append(&WalRecord::Store { bat: 7, version: 0, rows: rows(vec![1, 2]) }).unwrap();
        w.append(&WalRecord::Append { bat: 7, version: 1, rows: rows(vec![3]) }).unwrap();
        w.sync().unwrap();

        let rec = recover(&dir, 0).unwrap();
        assert_eq!(rec.tables.len(), 1);
        let f = &rec.frags[&7];
        assert_eq!((f.version, f.bat.count()), (1, 3));
        assert_eq!(rec.wal_records, 3);
        assert_eq!(rec.next_gen, 2);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn torn_final_record_stops_cleanly() {
        let root = scratch("torn");
        let dir = DataDir::open(&root).unwrap();
        dir.write_manifest(&crate::datadir::Manifest { node: 0, replay_from: 1 }).unwrap();
        let mut w = WalWriter::create(&dir.wal_path(1), FsyncPolicy::Off).unwrap();
        w.append(&WalRecord::Table(table_rec(0, 7))).unwrap();
        w.append(&WalRecord::Store { bat: 7, version: 0, rows: rows(vec![1, 2]) }).unwrap();
        w.sync().unwrap();
        // A crash mid-append leaves half a frame behind.
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new().append(true).open(dir.wal_path(1)).unwrap();
        f.write_all(&[200, 0, 0, 0, 1, 2]).unwrap();

        let rec = recover(&dir, 0).unwrap();
        assert!(rec.torn);
        assert_eq!(rec.frags[&7].bat.count(), 2, "prefix intact");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn checkpoint_wal_overlap_applies_once() {
        let root = scratch("overlap");
        let dir = DataDir::open(&root).unwrap();
        // Checkpoint has the fragment at version 2 with rows [1,2,3].
        write_checkpoint(
            &dir,
            &Snapshot {
                node: 0,
                replay_from: 1, // deliberately stale: the WAL overlaps
                tables: vec![table_rec(0, 7)],
                frags: vec![FragSnap {
                    bat: 7,
                    version: 2,
                    payload: Some(Arc::new(Bat::dense(Column::from(vec![1, 2, 3])))),
                }],
            },
        )
        .unwrap();
        // The WAL still holds the whole history plus one newer append.
        let mut w = WalWriter::create(&dir.wal_path(1), FsyncPolicy::Off).unwrap();
        w.append(&WalRecord::Store { bat: 7, version: 0, rows: rows(vec![1]) }).unwrap();
        w.append(&WalRecord::Append { bat: 7, version: 1, rows: rows(vec![2]) }).unwrap();
        w.append(&WalRecord::Append { bat: 7, version: 2, rows: rows(vec![3]) }).unwrap();
        w.append(&WalRecord::Append { bat: 7, version: 3, rows: rows(vec![4]) }).unwrap();
        w.sync().unwrap();

        let rec = recover(&dir, 0).unwrap();
        let f = &rec.frags[&7];
        assert_eq!(f.version, 3);
        let tails: Vec<_> = (0..f.bat.count()).map(|i| f.bat.bun(i).1).collect();
        assert_eq!(f.bat.count(), 4, "no double-applied rows: {tails:?}");
        assert_eq!(rec.wal_skipped, 3, "store + two covered appends skipped");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn version_gap_is_skipped_not_corrupted() {
        let root = scratch("gap");
        let dir = DataDir::open(&root).unwrap();
        dir.write_manifest(&crate::datadir::Manifest { node: 0, replay_from: 1 }).unwrap();
        let mut w = WalWriter::create(&dir.wal_path(1), FsyncPolicy::Off).unwrap();
        w.append(&WalRecord::Store { bat: 7, version: 0, rows: rows(vec![1]) }).unwrap();
        // Version 1 is missing; 2 must not apply.
        w.append(&WalRecord::Append { bat: 7, version: 2, rows: rows(vec![9]) }).unwrap();
        w.sync().unwrap();
        let rec = recover(&dir, 0).unwrap();
        assert_eq!(rec.frags[&7].bat.count(), 1);
        assert_eq!(rec.wal_skipped, 1);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn create_then_append_without_store_replays() {
        // The SQL path: CREATE TABLE logs metadata only, INSERTs append
        // onto the implied empty fragment.
        let root = scratch("ddl_dml");
        let dir = DataDir::open(&root).unwrap();
        dir.write_manifest(&crate::datadir::Manifest { node: 0, replay_from: 1 }).unwrap();
        let mut w = WalWriter::create(&dir.wal_path(1), FsyncPolicy::Off).unwrap();
        w.append(&WalRecord::Table(table_rec(0, 7))).unwrap();
        w.append(&WalRecord::Append { bat: 7, version: 1, rows: rows(vec![1, 2]) }).unwrap();
        w.append(&WalRecord::Append { bat: 7, version: 2, rows: rows(vec![3]) }).unwrap();
        w.sync().unwrap();
        let rec = recover(&dir, 0).unwrap();
        let f = &rec.frags[&7];
        assert_eq!((f.version, f.bat.count()), (2, 3));
        assert_eq!(rec.wal_skipped, 0);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn append_batch_replays_all_columns_or_none() {
        // A multi-column INSERT is one WAL frame: both fragments grow in
        // lockstep, and a checkpoint-covered batch skips both parts.
        let root = scratch("batch");
        let dir = DataDir::open(&root).unwrap();
        dir.write_manifest(&crate::datadir::Manifest { node: 0, replay_from: 1 }).unwrap();
        let two_cols = TableRec {
            origin: 0,
            schema: "sys".into(),
            table: "kv".into(),
            cols: vec![
                ColRec { name: "k".into(), ty: ColType::Int, bat: 7, size: 0, owner: 0 },
                ColRec { name: "v".into(), ty: ColType::Int, bat: 8, size: 0, owner: 0 },
            ],
        };
        let mut w = WalWriter::create(&dir.wal_path(1), FsyncPolicy::Off).unwrap();
        w.append(&WalRecord::Table(two_cols)).unwrap();
        let batch = |version: u32, k: i32, v: i32| {
            WalRecord::AppendBatch(vec![
                crate::AppendPart { bat: 7, version, rows: rows(vec![k]) },
                crate::AppendPart { bat: 8, version, rows: rows(vec![v]) },
            ])
        };
        w.append(&batch(1, 1, 10)).unwrap();
        w.append(&batch(2, 2, 20)).unwrap();
        w.sync().unwrap();

        let rec = recover(&dir, 0).unwrap();
        assert_eq!(rec.frags[&7].bat.count(), 2);
        assert_eq!(rec.frags[&8].bat.count(), 2);
        assert_eq!((rec.frags[&7].version, rec.frags[&8].version), (2, 2));

        // A torn final batch discards *both* columns — never half a row.
        use std::io::Write;
        let enc = crate::wal::encode_record(&batch(3, 3, 30));
        let mut f = std::fs::OpenOptions::new().append(true).open(dir.wal_path(1)).unwrap();
        f.write_all(&enc[..enc.len() - 4]).unwrap();
        drop(f);
        let rec = recover(&dir, 0).unwrap();
        assert!(rec.torn);
        assert_eq!(rec.frags[&7].bat.count(), 2);
        assert_eq!(rec.frags[&8].bat.count(), 2);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn update_and_delete_records_replay_version_gated() {
        let root = scratch("mutate");
        let dir = DataDir::open(&root).unwrap();
        dir.write_manifest(&crate::datadir::Manifest { node: 0, replay_from: 1 }).unwrap();
        let mut w = WalWriter::create(&dir.wal_path(1), FsyncPolicy::Off).unwrap();
        w.append(&WalRecord::Table(table_rec(0, 7))).unwrap();
        w.append(&WalRecord::Append { bat: 7, version: 1, rows: rows(vec![1, 2, 3]) }).unwrap();
        // UPDATE rewrites the whole payload at version 2 …
        w.append(&WalRecord::Update(vec![crate::ReplacePart {
            bat: 7,
            version: 2,
            rows: rows(vec![1, 9, 3]),
        }]))
        .unwrap();
        // … a stale re-log of the same version is skipped …
        w.append(&WalRecord::Update(vec![crate::ReplacePart {
            bat: 7,
            version: 2,
            rows: rows(vec![0, 0, 0]),
        }]))
        .unwrap();
        // … and DELETE shrinks at version 3.
        w.append(&WalRecord::Delete(vec![crate::ReplacePart {
            bat: 7,
            version: 3,
            rows: rows(vec![9, 3]),
        }]))
        .unwrap();
        w.sync().unwrap();

        let rec = recover(&dir, 0).unwrap();
        let f = &rec.frags[&7];
        assert_eq!((f.version, f.bat.count()), (3, 2));
        let tails: Vec<_> = (0..f.bat.count()).map(|i| f.bat.bun(i).1).collect();
        assert_eq!(tails, vec![batstore::Val::Int(9), batstore::Val::Int(3)]);
        assert_eq!(rec.wal_skipped, 1, "the stale duplicate update");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn torn_multi_column_update_discards_all_columns() {
        let root = scratch("torn_update");
        let dir = DataDir::open(&root).unwrap();
        dir.write_manifest(&crate::datadir::Manifest { node: 0, replay_from: 1 }).unwrap();
        let two_cols = TableRec {
            origin: 0,
            schema: "sys".into(),
            table: "kv".into(),
            cols: vec![
                ColRec { name: "k".into(), ty: ColType::Int, bat: 7, size: 0, owner: 0 },
                ColRec { name: "v".into(), ty: ColType::Int, bat: 8, size: 0, owner: 0 },
            ],
        };
        let mut w = WalWriter::create(&dir.wal_path(1), FsyncPolicy::Off).unwrap();
        w.append(&WalRecord::Table(two_cols)).unwrap();
        w.append(&WalRecord::AppendBatch(vec![
            crate::AppendPart { bat: 7, version: 1, rows: rows(vec![1]) },
            crate::AppendPart { bat: 8, version: 1, rows: rows(vec![10]) },
        ]))
        .unwrap();
        w.sync().unwrap();
        // A crash mid-write leaves half of a two-column UPDATE frame.
        use std::io::Write;
        let enc = crate::wal::encode_record(&WalRecord::Update(vec![
            crate::ReplacePart { bat: 7, version: 2, rows: rows(vec![5]) },
            crate::ReplacePart { bat: 8, version: 2, rows: rows(vec![50]) },
        ]));
        let mut f = std::fs::OpenOptions::new().append(true).open(dir.wal_path(1)).unwrap();
        f.write_all(&enc[..enc.len() - 6]).unwrap();
        drop(f);

        let rec = recover(&dir, 0).unwrap();
        assert!(rec.torn);
        assert_eq!(rec.frags[&7].bat.bun(0).1, batstore::Val::Int(1), "neither column mutated");
        assert_eq!(rec.frags[&8].bat.bun(0).1, batstore::Val::Int(10));
        assert_eq!((rec.frags[&7].version, rec.frags[&8].version), (1, 1));
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn owned_empty_table_materializes() {
        // CREATE TABLE logs only metadata; recovery must still own an
        // empty fragment of the right type.
        let root = scratch("empty");
        let dir = DataDir::open(&root).unwrap();
        dir.write_manifest(&crate::datadir::Manifest { node: 2, replay_from: 1 }).unwrap();
        let mut w = WalWriter::create(&dir.wal_path(1), FsyncPolicy::Off).unwrap();
        w.append(&WalRecord::Table(table_rec(2, 11))).unwrap();
        w.sync().unwrap();
        let rec = recover(&dir, 2).unwrap();
        let f = &rec.frags[&11];
        assert_eq!((f.version, f.bat.count()), (0, 0));
        assert_eq!(f.bat.tail_type(), ColType::Int);
        std::fs::remove_dir_all(&root).ok();
    }

    // ---- crashes around a checkpoint ---------------------------------------

    /// A snapshot of the one-column table `t` whose fragment 7 holds
    /// `vals`, one append per value (so its version is `vals.len()`).
    fn snap_of(vals: &[i32], replay_from: u64) -> Snapshot {
        Snapshot {
            node: 0,
            replay_from,
            tables: vec![table_rec(0, 7)],
            frags: vec![FragSnap {
                bat: 7,
                version: vals.len() as u32,
                payload: Some(Arc::new(Bat::dense(Column::from(vals.to_vec())))),
            }],
        }
    }

    /// The WAL frames taking fragment 7 from `from` values to all of
    /// `vals`, one `Append` per value.
    fn append_frames(vals: &[i32], from: usize) -> Vec<Vec<u8>> {
        (from..vals.len())
            .map(|i| {
                encode_record(&WalRecord::Append {
                    bat: 7,
                    version: i as u32 + 1,
                    rows: rows(vec![vals[i]]),
                })
            })
            .collect()
    }

    fn tails(f: &RecFrag) -> Vec<Val> {
        (0..f.bat.count()).map(|i| f.bat.bun(i).1).collect()
    }

    fn ints(vals: &[i32]) -> Vec<Val> {
        vals.iter().map(|&v| Val::Int(v)).collect()
    }

    fn bat_files(dir: &DataDir) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir.bats_dir())
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    /// Checkpoint A (fragment at v3) committed, WAL tail `Append` v4 and
    /// v5, then checkpoint B crashes after its fragment-file phase: the
    /// v5 file is on disk, `catalog.snap` and `MANIFEST` are still A's.
    fn crashed_mid_checkpoint(tag: &str) -> (std::path::PathBuf, DataDir) {
        let root = scratch(tag);
        std::fs::remove_dir_all(&root).ok();
        let dir = DataDir::open(&root).unwrap();
        let all = [1, 2, 3, 4, 5];
        write_checkpoint(&dir, &snap_of(&all[..3], 2)).unwrap();
        std::fs::write(dir.wal_path(2), append_frames(&all, 3).concat()).unwrap();
        write_fragment_files(&dir, &snap_of(&all, 3)).unwrap();
        assert_eq!(bat_files(&dir), ["7.v3.bat", "7.v5.bat"]);
        (root, dir)
    }

    #[test]
    fn partial_checkpoint_recovers_the_committed_one_plus_tail_once() {
        let (root, dir) = crashed_mid_checkpoint("partial");
        let rec = recover(&dir, 0).unwrap();
        let f = &rec.frags[&7];
        assert_eq!((f.version, tails(f)), (5, ints(&[1, 2, 3, 4, 5])), "A + tail, applied once");
        assert_eq!((rec.wal_records, rec.wal_skipped), (2, 0));
        assert_eq!(bat_files(&dir), ["7.v3.bat"], "B's uncommitted file is gone");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn completed_checkpoint_skips_the_overlapping_tail() {
        let (root, dir) = crashed_mid_checkpoint("completed");
        // B commits after all (replay_from left stale so the WAL overlaps).
        write_checkpoint(&dir, &snap_of(&[1, 2, 3, 4, 5], 2)).unwrap();
        assert_eq!(bat_files(&dir), ["7.v5.bat"]);
        let rec = recover(&dir, 0).unwrap();
        let f = &rec.frags[&7];
        assert_eq!((f.version, tails(f)), (5, ints(&[1, 2, 3, 4, 5])));
        assert_eq!((rec.wal_records, rec.wal_skipped), (0, 2));
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn orphan_of_a_torn_version_is_never_adopted() {
        let (root, dir) = crashed_mid_checkpoint("orphan");
        // The crash also tore the WAL inside the v5 append.
        let wal = std::fs::read(dir.wal_path(2)).unwrap();
        std::fs::write(dir.wal_path(2), &wal[..wal.len() - 3]).unwrap();

        let rec = recover(&dir, 0).unwrap();
        let f = &rec.frags[&7];
        assert!(rec.torn);
        assert_eq!((f.version, tails(f)), (4, ints(&[1, 2, 3, 4])));
        assert_eq!(bat_files(&dir), ["7.v3.bat"], "orphan v5 gone before any checkpoint");

        // The restarted node mints a different v5; its checkpoint must
        // write that payload, not find the orphan "already there".
        let stats = write_checkpoint(&dir, &snap_of(&[1, 2, 3, 4, 99], rec.next_gen)).unwrap();
        assert_eq!(stats.frags_written, 1);
        let rec = recover(&dir, 0).unwrap();
        let f = &rec.frags[&7];
        assert_eq!((f.version, tails(f)), (5, ints(&[1, 2, 3, 4, 99])));
        std::fs::remove_dir_all(&root).ok();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// Whatever the crash point — a WAL torn anywhere in its tail, a
        /// checkpoint that got as far as its fragment files, or both —
        /// recovery returns a prefix of the history with every append
        /// applied once, keeps only the committed fragment file, and the
        /// next life's checkpoint is read back exactly.
        #[test]
        fn any_crash_point_recovers_a_prefix_applied_once(
            vals in prop::collection::vec(-1000i32..1000, 1..10),
            committed in 0usize..10,
            partial in 0usize..12,   // >= 10: no partial checkpoint
            cut in 0usize..40,       // bytes torn off the WAL's end
            next in 1000i32..2000,
        ) {
            let root = scratch("crashpoints");
            std::fs::remove_dir_all(&root).ok();
            let dir = DataDir::open(&root).unwrap();
            let committed = committed.min(vals.len());
            write_checkpoint(&dir, &snap_of(&vals[..committed], 2)).unwrap();
            let frames = append_frames(&vals, committed);
            let wal = frames.concat();
            let kept = wal.len().saturating_sub(cut);
            std::fs::write(dir.wal_path(2), &wal[..kept]).unwrap();
            if partial < 10 {
                let upto = partial.clamp(committed, vals.len());
                write_fragment_files(&dir, &snap_of(&vals[..upto], 3)).unwrap();
            }
            // The appends whose whole frame survived the tear.
            let mut ends = Vec::new();
            for f in &frames {
                ends.push(ends.last().copied().unwrap_or(0) + f.len());
            }
            let survived = committed + ends.iter().filter(|&&e| e <= kept).count();

            let rec = recover(&dir, 0).unwrap();
            let f = &rec.frags[&7];
            prop_assert_eq!((f.version as usize, tails(f)), (survived, ints(&vals[..survived])));
            prop_assert_eq!(rec.torn, kept != 0 && !ends.contains(&kept));
            prop_assert_eq!(bat_files(&dir), [format!("7.v{committed}.bat")]);

            let mut life2 = vals[..survived].to_vec();
            life2.push(next);
            write_checkpoint(&dir, &snap_of(&life2, rec.next_gen)).unwrap();
            let rec = recover(&dir, 0).unwrap();
            let f = &rec.frags[&7];
            prop_assert_eq!((f.version as usize, tails(f)), (survived + 1, ints(&life2)));
            std::fs::remove_dir_all(&root).ok();
        }
    }
}
