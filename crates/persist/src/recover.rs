//! Crash recovery: manifest → catalog snapshot → fragment files → WAL
//! tail, rebuilding exactly the durable state a node owned when it died.
//! Replay is idempotent: a WAL record whose effects are already in the
//! checkpoint is skipped by version, so the checkpoint/WAL overlap a
//! mid-checkpoint crash leaves behind applies once, not twice.
//!
//! A `FragMeta` names a fragment version's file, wherever it appears: a
//! checkpoint wrote the files `catalog.snap` names, a bulk load the ones
//! its WAL record names. A `Mutate` record is re-executed
//! ([`batstore::ops::stage`]) against the fragments replay has rebuilt
//! so far.
//!
//! After replay, recovery deletes every fragment file that neither the
//! committed catalog snapshot nor the intact WAL prefix names. Such a
//! file is what a checkpoint that crashed before its commit left behind,
//! or a load whose record was lost; and fragment files are written only
//! when absent, so after a torn WAL tail the node could otherwise mint a
//! *different* payload under that same `(fragment, version)` and find
//! the orphan "already written".

use crate::datadir::DataDir;
use crate::wal::{replay_wal, TableRec, WalRecord};
use batstore::ops::{stage, Mutation};
use batstore::{storage, Bat};
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::Arc;

/// An owned fragment rebuilt from disk.
#[derive(Debug)]
pub struct RecFrag {
    pub version: u32,
    pub bat: Arc<Bat>,
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
        // Fresh directory: nothing committed and nothing logged for a
        // fragment file to belong to.
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

    let mut state =
        State { dir, node, tables: Vec::new(), frags: HashMap::new(), named: HashSet::new() };
    let mut wal_records = 0u64;
    let mut wal_skipped = 0u64;

    // 1. Catalog snapshot: table metadata + which fragment files to load.
    let snap = match std::fs::read(dir.snap_path()) {
        Ok(bytes) => {
            let (records, torn) = crate::wal::decode_frames(&bytes)
                .map_err(|e| format!("catalog snapshot {}: {e}", dir.snap_path().display()))?;
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
    for rec in snap {
        match rec {
            WalRecord::Table(t) => upsert_table(&mut state.tables, t),
            WalRecord::FragMeta { bat, version } => {
                state.load(bat, version)?;
            }
            other => return Err(format!("unexpected snapshot record {other:?}")),
        }
    }

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
            match state.apply(rec)? {
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
    drop_unnamed(dir, &state.named)?;

    // 3. Owned fragments that never saw a payload record (freshly
    //    created empty tables) materialize as empty BATs of the catalog
    //    type.
    let State { mut frags, tables, .. } = state;
    for t in &tables {
        for c in &t.cols {
            if c.owner == node {
                frags.entry(c.bat).or_insert_with(|| empty(c.ty));
            }
        }
    }

    Ok(Recovered { tables, frags, wal_records, wal_skipped, torn, next_gen: max_gen + 1 })
}

/// Delete the fragment files no record names (see the module docs for
/// why none may survive into the next checkpoint).
fn drop_unnamed(dir: &DataDir, named: &HashSet<PathBuf>) -> Result<(), String> {
    dir.retain_bats(named).map_err(|e| format!("clearing unnamed fragment files: {e}"))
}

enum Applied {
    Yes,
    Skipped,
}

fn empty(ty: batstore::ColType) -> RecFrag {
    RecFrag { version: 0, bat: Arc::new(Bat::empty(ty)) }
}

fn upsert_table(tables: &mut Vec<TableRec>, t: TableRec) {
    match tables.iter_mut().find(|x| x.schema == t.schema && x.table == t.table) {
        Some(slot) => *slot = t,
        None => tables.push(t),
    }
}

/// What replay has rebuilt so far, and the fragment files its records
/// named.
struct State<'a> {
    dir: &'a DataDir,
    node: u16,
    tables: Vec<TableRec>,
    frags: HashMap<u32, RecFrag>,
    named: HashSet<PathBuf>,
}

impl State<'_> {
    /// Adopt the payload a `FragMeta` names, unless a version at least
    /// as new is already in place (the file of an older one may be gone:
    /// the checkpoint that superseded it collected it).
    fn load(&mut self, bat: u32, version: u32) -> Result<Applied, String> {
        let path = self.dir.bat_path(bat, version);
        self.named.insert(path.clone());
        if self.frags.get(&bat).is_some_and(|f| f.version >= version) {
            return Ok(Applied::Skipped);
        }
        let payload = storage::load_bat(&path)
            .map_err(|e| format!("loading fragment {bat} v{version}: {e}"))?;
        self.frags.insert(bat, RecFrag { version, bat: Arc::new(payload) });
        Ok(Applied::Yes)
    }

    fn apply(&mut self, rec: WalRecord) -> Result<Applied, String> {
        match rec {
            WalRecord::Table(t) => {
                // CREATE TABLE logs only metadata; the owned fragments it
                // implies must exist (empty) before later appends replay
                // onto them.
                for c in &t.cols {
                    if c.owner == self.node {
                        self.frags.entry(c.bat).or_insert_with(|| empty(c.ty));
                    }
                }
                upsert_table(&mut self.tables, t);
                Ok(Applied::Yes)
            }
            WalRecord::FragMeta { bat, version } => self.load(bat, version),
            WalRecord::Mutate { m, versions } => self.mutate(&m, &versions),
        }
    }

    /// Re-execute a logged INSERT/UPDATE/DELETE — only when every column
    /// it rewrote stands at exactly the version before the one it
    /// reached, which is the state it ran against live. Otherwise the
    /// checkpoint already holds its effect (or a lost record separates it
    /// from the recovered state, or the fragment it grows was never
    /// established) and it is skipped.
    fn mutate(&mut self, m: &Mutation, versions: &[(u32, u32)]) -> Result<Applied, String> {
        let next = |&(bat, version): &(u32, u32)| {
            self.frags.get(&bat).is_some_and(|f| f.version.checked_add(1) == Some(version))
        };
        if !versions.iter().all(next) {
            return Ok(Applied::Skipped);
        }
        let what = format!("replaying a mutation of {}.{}", m.schema, m.table);
        let t = self
            .tables
            .iter()
            .find(|t| t.schema == m.schema && t.table == m.table)
            .ok_or_else(|| format!("{what}: unknown table"))?;
        let cols = t
            .cols
            .iter()
            .map(|c| match self.frags.get(&c.bat) {
                Some(f) => Ok((c.name.as_str(), Arc::clone(&f.bat))),
                None => Err(format!("{what}: fragment {} not recovered", c.bat)),
            })
            .collect::<Result<Vec<_>, _>>()?;
        let staged = stage(&cols, &m.op, &m.preds).map_err(|e| format!("{what}: {e}"))?;
        let touched: Vec<u32> = staged.columns.iter().map(|(i, _)| t.cols[*i].bat).collect();
        if !touched.iter().eq(versions.iter().map(|(bat, _)| bat)) {
            return Err(format!(
                "{what}: it rewrote fragments {touched:?}, the record {versions:?}"
            ));
        }
        for (&(bat, version), (_, payload)) in versions.iter().zip(staged.columns) {
            self.frags.insert(bat, RecFrag { version, bat: Arc::new(payload) });
        }
        Ok(Applied::Yes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{write_checkpoint, write_fragment_files, FragSnap, Snapshot};
    use crate::wal::{encode_record, ColRec, FsyncPolicy, WalWriter};
    use batstore::ops::{CmpOp, MutOp, RowPredicate};
    use batstore::{ColType, Column, Val};
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

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

    fn two_cols() -> TableRec {
        TableRec {
            origin: 0,
            schema: "sys".into(),
            table: "kv".into(),
            cols: vec![
                ColRec { name: "k".into(), ty: ColType::Int, bat: 7, size: 0, owner: 0 },
                ColRec { name: "v".into(), ty: ColType::Int, bat: 8, size: 0, owner: 0 },
            ],
        }
    }

    /// A data dir whose manifest says replay starts at WAL generation 1.
    fn dir_at_gen_1(tag: &str) -> (std::path::PathBuf, DataDir) {
        let root = scratch(tag);
        std::fs::remove_dir_all(&root).ok();
        let dir = DataDir::open(&root).unwrap();
        dir.write_manifest(&crate::datadir::Manifest { node: 0, replay_from: 1 }).unwrap();
        (root, dir)
    }

    /// What a bulk load of `vals` into fragment `bat` leaves on disk and
    /// in the log: the version-0 file, then the record naming it.
    fn load(dir: &DataDir, w: &mut WalWriter, bat: u32, vals: Vec<i32>) {
        dir.write_fragments([(bat, 0, &Bat::dense(Column::from(vals)))], "tmp").unwrap();
        w.append(&WalRecord::FragMeta { bat, version: 0 }).unwrap();
    }

    fn mutation(table: &str, op: MutOp, preds: Vec<RowPredicate>) -> Mutation {
        Mutation { schema: "sys".into(), table: table.into(), op, preds }
    }

    fn eq(column: &str, v: i32) -> RowPredicate {
        RowPredicate::Cmp { column: column.into(), op: CmpOp::Eq, value: Val::Int(v) }
    }

    /// An INSERT into `table` of `(column, values)`, growing each column's
    /// fragment (`bats`, in the same order) to `version`.
    fn insert(table: &str, cols: &[(&str, Vec<i32>)], bats: &[u32], version: u32) -> WalRecord {
        let given = cols.iter().map(|(n, v)| (n.to_string(), Column::from(v.clone()))).collect();
        WalRecord::Mutate {
            m: mutation(table, MutOp::Insert(given), vec![]),
            versions: bats.iter().map(|&bat| (bat, version)).collect(),
        }
    }

    /// An INSERT of `vals` into `t` (fragment 7), reaching `version`.
    fn insert_t(vals: Vec<i32>, version: u32) -> WalRecord {
        insert("t", &[("id", vals)], &[7], version)
    }

    /// An INSERT of one row into `kv` (fragments 7 and 8), reaching
    /// `version`.
    fn insert_kv(k: i32, v: i32, version: u32) -> WalRecord {
        insert("kv", &[("k", vec![k]), ("v", vec![v])], &[7, 8], version)
    }

    #[test]
    fn fresh_dir_recovers_empty_and_drops_unlogged_loads() {
        let root = scratch("fresh");
        std::fs::remove_dir_all(&root).ok();
        let dir = DataDir::open(&root).unwrap();
        // A load that crashed between its file and its record.
        dir.write_fragments([(7, 0, &Bat::dense(Column::from(vec![1])))], "tmp").unwrap();
        let rec = recover(&dir, 0).unwrap();
        assert!(rec.tables.is_empty() && rec.frags.is_empty());
        assert_eq!(rec.next_gen, 1);
        assert!(!rec.torn);
        assert!(bat_files(&dir).is_empty());
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
        let (root, dir) = dir_at_gen_1("walonly");
        let mut w = WalWriter::create(&dir.wal_path(1), FsyncPolicy::Off).unwrap();
        load(&dir, &mut w, 7, vec![1, 2]);
        w.append(&WalRecord::Table(table_rec(0, 7))).unwrap();
        w.append(&insert_t(vec![3], 1)).unwrap();
        w.sync().unwrap();

        let rec = recover(&dir, 0).unwrap();
        assert_eq!(rec.tables.len(), 1);
        let f = &rec.frags[&7];
        assert_eq!((f.version, tails(f)), (1, ints(&[1, 2, 3])));
        assert_eq!(rec.wal_records, 3);
        assert_eq!(rec.next_gen, 2);
        assert_eq!(bat_files(&dir), ["7.v0.bat"], "the load's file is named by its record");
        std::fs::remove_dir_all(&root).ok();
    }

    /// Recovery of a WAL whose second record is an intact frame of the
    /// retired kind `tag`: the error.
    fn recover_past_retired(tag: u8) -> String {
        let (root, dir) = dir_at_gen_1(&format!("retired_{tag}"));
        let mut wal = encode_record(&WalRecord::Table(table_rec(0, 7)));
        wal.extend_from_slice(&crate::wal::tests::retired_frame(tag));
        std::fs::write(dir.wal_path(1), wal).unwrap();
        let err = recover(&dir, 0).unwrap_err();
        std::fs::remove_dir_all(&root).ok();
        err
    }

    #[test]
    fn a_retired_record_kind_refuses_recovery_by_name() {
        let err = recover_past_retired(2);
        assert!(err.contains("retired Store record"), "{err}");
    }

    /// The error names the kind the retired-kind table gives `tag`.
    fn assert_refused_by_name(tag: u8) {
        let (_, kind) = crate::wal::RETIRED.iter().find(|(t, _)| *t == tag).expect("retired");
        let err = recover_past_retired(tag);
        assert!(err.contains(&format!("retired {kind} record (tag {tag})")), "{err}");
    }

    /// A per-fragment INSERT record an older build wrote.
    #[test]
    fn a_retired_tag_3_record_refuses_recovery_by_name() {
        assert_refused_by_name(3);
    }

    /// A multi-column INSERT record an older build wrote.
    #[test]
    fn a_retired_tag_5_record_refuses_recovery_by_name() {
        assert_refused_by_name(5);
    }

    #[test]
    fn torn_final_record_stops_cleanly() {
        let (root, dir) = dir_at_gen_1("torn");
        let mut w = WalWriter::create(&dir.wal_path(1), FsyncPolicy::Off).unwrap();
        load(&dir, &mut w, 7, vec![1, 2]);
        w.append(&WalRecord::Table(table_rec(0, 7))).unwrap();
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
        std::fs::remove_dir_all(&root).ok();
        let dir = DataDir::open(&root).unwrap();
        // The load's own file, then a checkpoint of the fragment at
        // version 2 with rows [1,2,3], whose GC collects the v0 file.
        dir.write_fragments([(7, 0, &Bat::dense(Column::from(vec![1])))], "tmp").unwrap();
        write_checkpoint(&dir, &snap_of(&[1, 2, 3], 1)).unwrap(); // replay_from stale
        assert_eq!(bat_files(&dir), ["7.v3.bat"]);
        // The WAL still holds the whole history plus one newer INSERT.
        let mut w = WalWriter::create(&dir.wal_path(1), FsyncPolicy::Off).unwrap();
        w.append(&WalRecord::FragMeta { bat: 7, version: 0 }).unwrap();
        for (version, v) in [(1, 2), (2, 3), (3, 4)] {
            w.append(&insert_t(vec![v], version)).unwrap();
        }
        w.append(&insert_t(vec![5], 4)).unwrap();
        w.sync().unwrap();

        let rec = recover(&dir, 0).unwrap();
        let f = &rec.frags[&7];
        assert_eq!((f.version, tails(f)), (4, ints(&[1, 2, 3, 5])), "no double-applied rows");
        assert_eq!(rec.wal_skipped, 4, "the load and three covered INSERTs skipped");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn version_gap_is_skipped_not_corrupted() {
        let (root, dir) = dir_at_gen_1("gap");
        let mut w = WalWriter::create(&dir.wal_path(1), FsyncPolicy::Off).unwrap();
        load(&dir, &mut w, 7, vec![1]);
        w.append(&WalRecord::Table(table_rec(0, 7))).unwrap();
        // Version 1 is missing; 2 must not apply.
        w.append(&insert_t(vec![9], 2)).unwrap();
        w.sync().unwrap();
        let rec = recover(&dir, 0).unwrap();
        assert_eq!(rec.frags[&7].bat.count(), 1);
        assert_eq!(rec.wal_skipped, 1);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn create_then_append_replays() {
        // The SQL path: CREATE TABLE logs metadata only, INSERTs append
        // onto the implied empty fragment.
        let (root, dir) = dir_at_gen_1("ddl_dml");
        let mut w = WalWriter::create(&dir.wal_path(1), FsyncPolicy::Off).unwrap();
        w.append(&WalRecord::Table(table_rec(0, 7))).unwrap();
        w.append(&insert_t(vec![1, 2], 1)).unwrap();
        w.append(&insert_t(vec![3], 2)).unwrap();
        w.sync().unwrap();
        let rec = recover(&dir, 0).unwrap();
        let f = &rec.frags[&7];
        assert_eq!((f.version, f.bat.count()), (2, 3));
        assert_eq!(rec.wal_skipped, 0);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn multi_column_insert_replays_all_columns_or_none() {
        // A multi-column INSERT is one WAL frame: both fragments grow in
        // lockstep.
        let (root, dir) = dir_at_gen_1("batch");
        let mut w = WalWriter::create(&dir.wal_path(1), FsyncPolicy::Off).unwrap();
        w.append(&WalRecord::Table(two_cols())).unwrap();
        w.append(&insert_kv(1, 10, 1)).unwrap();
        w.append(&insert_kv(2, 20, 2)).unwrap();
        w.sync().unwrap();

        let rec = recover(&dir, 0).unwrap();
        assert_eq!(rec.frags[&7].bat.count(), 2);
        assert_eq!(rec.frags[&8].bat.count(), 2);
        assert_eq!((rec.frags[&7].version, rec.frags[&8].version), (2, 2));

        // A torn final INSERT discards *both* columns — never half a row.
        use std::io::Write;
        let enc = encode_record(&insert_kv(3, 30, 3));
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
    fn mutate_records_replay_version_gated() {
        let (root, dir) = dir_at_gen_1("mutate");
        let mut w = WalWriter::create(&dir.wal_path(1), FsyncPolicy::Off).unwrap();
        w.append(&WalRecord::Table(table_rec(0, 7))).unwrap();
        w.append(&insert_t(vec![1, 2, 3], 1)).unwrap();
        let set_9_where_2 =
            mutation("t", MutOp::Update(vec![("id".into(), Val::Int(9))]), vec![eq("id", 2)]);
        // UPDATE re-executes at version 2 …
        w.append(&WalRecord::Mutate { m: set_9_where_2.clone(), versions: vec![(7, 2)] }).unwrap();
        // … a stale re-log of the same version is skipped …
        w.append(&WalRecord::Mutate { m: set_9_where_2, versions: vec![(7, 2)] }).unwrap();
        // … and DELETE shrinks at version 3.
        let delete_1 = mutation("t", MutOp::Delete, vec![eq("id", 1)]);
        w.append(&WalRecord::Mutate { m: delete_1, versions: vec![(7, 3)] }).unwrap();
        w.sync().unwrap();

        let rec = recover(&dir, 0).unwrap();
        let f = &rec.frags[&7];
        assert_eq!((f.version, tails(f)), (3, ints(&[9, 3])));
        assert_eq!(rec.wal_skipped, 1, "the stale duplicate update");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn a_mutate_record_replay_disagrees_with_is_refused() {
        let (root, dir) = dir_at_gen_1("mutate_mismatch");
        let mut w = WalWriter::create(&dir.wal_path(1), FsyncPolicy::Off).unwrap();
        w.append(&WalRecord::Table(two_cols())).unwrap();
        // The statement rewrites `v` (fragment 8); the record says `k`.
        let m = mutation("kv", MutOp::Update(vec![("v".into(), Val::Int(1))]), vec![]);
        w.append(&insert_kv(5, 6, 1)).unwrap();
        w.append(&WalRecord::Mutate { m, versions: vec![(7, 2)] }).unwrap();
        w.sync().unwrap();
        let err = recover(&dir, 0).unwrap_err();
        assert!(err.contains("rewrote fragments [8]"), "{err}");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn torn_multi_column_update_discards_all_columns() {
        let (root, dir) = dir_at_gen_1("torn_update");
        let mut w = WalWriter::create(&dir.wal_path(1), FsyncPolicy::Off).unwrap();
        w.append(&WalRecord::Table(two_cols())).unwrap();
        w.append(&insert_kv(1, 10, 1)).unwrap();
        w.sync().unwrap();
        // A crash mid-write leaves half of a two-column UPDATE frame.
        use std::io::Write;
        let assigns = vec![("k".into(), Val::Int(5)), ("v".into(), Val::Int(50))];
        let enc = encode_record(&WalRecord::Mutate {
            m: mutation("kv", MutOp::Update(assigns), vec![]),
            versions: vec![(7, 2), (8, 2)],
        });
        let mut f = std::fs::OpenOptions::new().append(true).open(dir.wal_path(1)).unwrap();
        f.write_all(&enc[..enc.len() - 6]).unwrap();
        drop(f);

        let rec = recover(&dir, 0).unwrap();
        assert!(rec.torn);
        assert_eq!(rec.frags[&7].bat.bun(0).1, Val::Int(1), "neither column mutated");
        assert_eq!(rec.frags[&8].bat.bun(0).1, Val::Int(10));
        assert_eq!((rec.frags[&7].version, rec.frags[&8].version), (1, 1));
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn owned_empty_table_materializes() {
        // CREATE TABLE logs only metadata; recovery must still own an
        // empty fragment of the right type.
        let root = scratch("empty");
        std::fs::remove_dir_all(&root).ok();
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
    /// `vals`, one INSERT per value (so its version is `vals.len()`).
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
    /// `vals`, one INSERT per value.
    fn insert_frames(vals: &[i32], from: usize) -> Vec<Vec<u8>> {
        (from..vals.len()).map(|i| encode_record(&insert_t(vec![vals[i]], i as u32 + 1))).collect()
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

    /// Checkpoint A (fragment at v3) committed, WAL tail INSERTs to v4
    /// and v5, then checkpoint B crashes after its fragment-file phase:
    /// the v5 file is on disk, `catalog.snap` and `MANIFEST` are still A's.
    fn crashed_mid_checkpoint(tag: &str) -> (std::path::PathBuf, DataDir) {
        let root = scratch(tag);
        std::fs::remove_dir_all(&root).ok();
        let dir = DataDir::open(&root).unwrap();
        let all = [1, 2, 3, 4, 5];
        write_checkpoint(&dir, &snap_of(&all[..3], 2)).unwrap();
        std::fs::write(dir.wal_path(2), insert_frames(&all, 3).concat()).unwrap();
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
        // The crash also tore the WAL inside the v5 INSERT.
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

    // ---- every crash point of a generated history -------------------------

    /// A node's durable life, as the engine lives it: each step writes its
    /// fragment files, then appends its record — or commits a checkpoint.
    enum Step {
        Record { frame: Vec<u8>, files: Vec<(u32, u32, Arc<Bat>)> },
        Checkpoint(Snapshot),
    }

    /// The live owner the history is generated from: tables of an `int`
    /// and a `str` column, and every fragment at its version.
    #[derive(Clone, Default)]
    struct Live {
        tables: Vec<TableRec>,
        frags: BTreeMap<u32, (u32, Arc<Bat>)>,
    }

    impl Live {
        fn snapshot(&self, replay_from: u64) -> Snapshot {
            let frags = self
                .frags
                .iter()
                .map(|(&bat, (version, b))| FragSnap {
                    bat,
                    version: *version,
                    payload: Some(Arc::clone(b)),
                })
                .collect();
            Snapshot { node: 0, replay_from, tables: self.tables.clone(), frags }
        }
    }

    fn key_col(n: u8, seed: i32) -> Column {
        Column::from((0..i32::from(n)).map(|i| (seed + i) % 5).collect::<Vec<i32>>())
    }

    fn str_col(n: u8, seed: i32) -> Column {
        let vals: Vec<String> = (0..i32::from(n)).map(|i| format!("s{}", (seed + i) % 3)).collect();
        Column::from(vals.iter().map(String::as_str).collect::<Vec<_>>())
    }

    /// One generated operation on `live`, pushed as the steps the engine
    /// takes, each with the live state after it. A mutation that matches
    /// nothing logs nothing, as in the engine.
    fn step(
        live: &mut Live,
        steps: &mut Vec<(Step, Live)>,
        next_bat: &mut u32,
        (kind, a, b): (u8, u8, i32),
    ) {
        let mut push = |s: Step, live: &Live| steps.push((s, live.clone()));
        let pick = |live: &Live| live.tables[a as usize % live.tables.len()].clone();
        match kind % 6 {
            // A bulk load: each column's file, then its FragMeta; then the
            // table's metadata.
            0 => {
                let (k, s) = (*next_bat, *next_bat + 1);
                *next_bat += 2;
                let t = table_rec_of(format!("l{k}"), k, s);
                for (bat, col) in [(k, key_col(a % 4, b)), (s, str_col(a % 4, b))] {
                    let payload = Arc::new(Bat::dense(col));
                    live.frags.insert(bat, (0, Arc::clone(&payload)));
                    let frame = encode_record(&WalRecord::FragMeta { bat, version: 0 });
                    push(Step::Record { frame, files: vec![(bat, 0, payload)] }, live);
                }
                live.tables.push(t.clone());
                push(record(WalRecord::Table(t)), live);
            }
            // CREATE TABLE: metadata only, empty fragments.
            1 => {
                let (k, s) = (*next_bat, *next_bat + 1);
                *next_bat += 2;
                let t = table_rec_of(format!("c{k}"), k, s);
                live.frags.insert(k, (0, Arc::new(Bat::empty(ColType::Int))));
                live.frags.insert(s, (0, Arc::new(Bat::empty(ColType::Str))));
                live.tables.push(t.clone());
                push(record(WalRecord::Table(t)), live);
            }
            // A multi-row INSERT, naming its columns in either order.
            2 if !live.tables.is_empty() => {
                let t = pick(live);
                let n = 1 + a % 2;
                let mut given = Vec::new();
                let mut versions = Vec::new();
                for (vals, c) in [key_col(n, b), str_col(n, b)].into_iter().zip(&t.cols) {
                    let (version, cur) = &live.frags[&c.bat];
                    let (version, grown) = (version + 1, cur.extend_tail(&vals).unwrap());
                    live.frags.insert(c.bat, (version, Arc::new(grown)));
                    given.push((c.name.clone(), vals));
                    versions.push((c.bat, version));
                }
                if b % 2 == 0 {
                    given.reverse();
                }
                let m = Mutation {
                    schema: "sys".into(),
                    table: t.table.clone(),
                    op: MutOp::Insert(given),
                    preds: vec![],
                };
                push(record(WalRecord::Mutate { m, versions }), live);
            }
            // UPDATE (one or both columns) or DELETE, under a Cmp, a
            // BETWEEN, an IN list over strings, or no WHERE at all.
            3 | 4 if !live.tables.is_empty() => {
                let t = pick(live);
                let set_s = || ("s".to_string(), Val::Str(format!("u{b}")));
                let op = match (kind % 6, a % 3) {
                    (4, _) => MutOp::Delete,
                    (_, 0) => MutOp::Update(vec![set_s()]),
                    _ => MutOp::Update(vec![("k".into(), Val::Int(b % 7)), set_s()]),
                };
                let (k, bound) = ("k".to_string(), i32::from(a));
                let preds = match b.rem_euclid(4) {
                    0 => vec![RowPredicate::Cmp {
                        column: k,
                        op: CmpOp::Ge,
                        value: Val::Int(bound % 6),
                    }],
                    1 => vec![RowPredicate::Between {
                        column: k,
                        lo: Val::Int(1),
                        hi: Val::Int(bound % 4),
                    }],
                    2 => vec![RowPredicate::InList {
                        column: "s".into(),
                        values: vec![Val::Str(format!("s{}", a % 3)), Val::from("u1")],
                    }],
                    _ => vec![],
                };
                let m = Mutation { schema: "sys".into(), table: t.table.clone(), op, preds };
                let cols: Vec<(&str, Arc<Bat>)> = t
                    .cols
                    .iter()
                    .map(|c| (c.name.as_str(), Arc::clone(&live.frags[&c.bat].1)))
                    .collect();
                let staged = stage(&cols, &m.op, &m.preds).unwrap();
                if staged.matched > 0 {
                    let versions = staged
                        .columns
                        .into_iter()
                        .map(|(i, payload)| {
                            let bat = t.cols[i].bat;
                            let version = live.frags[&bat].0 + 1;
                            live.frags.insert(bat, (version, Arc::new(payload)));
                            (bat, version)
                        })
                        .collect();
                    push(record(WalRecord::Mutate { m, versions }), live);
                }
            }
            5 => push(Step::Checkpoint(live.snapshot(0)), live),
            _ => {}
        }
    }

    /// Table `name` of an `int` column `k` (fragment `k`) and a `str`
    /// column `s` (fragment `s`), owned by node 0.
    fn table_rec_of(name: String, k: u32, s: u32) -> TableRec {
        let col = |name: &str, ty, bat| ColRec { name: name.into(), ty, bat, size: 0, owner: 0 };
        TableRec {
            origin: 0,
            schema: "sys".into(),
            table: name,
            cols: vec![col("k", ColType::Int, k), col("s", ColType::Str, s)],
        }
    }

    fn record(rec: WalRecord) -> Step {
        Step::Record { frame: encode_record(&rec), files: Vec::new() }
    }

    /// Live the history into a fresh `dir` up to a crash `cut` bytes into
    /// the record numbered `crash` (0: at its start). Every record after
    /// the crash is lost, and so is every later checkpoint — but not a
    /// lost load's file: the engine writes it before its record, so each
    /// is left behind as an orphan. A checkpoint that falls exactly at
    /// the crash got as far as its fragment files. Returns the live state
    /// after the last intact record, and the fragment files the committed
    /// snapshot and the surviving records name.
    fn crash(
        dir: &DataDir,
        steps: &[(Step, Live)],
        crash: usize,
        cut: usize,
    ) -> (Live, BTreeSet<String>) {
        write_checkpoint(dir, &Live::default().snapshot(1)).unwrap();
        let (mut gen, mut wal, mut records) = (1u64, Vec::new(), 0usize);
        let (mut state, mut named) = (Live::default(), BTreeSet::new());
        for (s, after) in steps {
            match s {
                Step::Record { frame, files } => {
                    for (bat, version, payload) in files {
                        if !dir.bat_path(*bat, *version).exists() {
                            dir.write_fragments([(*bat, *version, &**payload)], "tmp").unwrap();
                        }
                    }
                    if records < crash {
                        wal.extend_from_slice(frame);
                        state = after.clone();
                        named.extend(files.iter().map(|(b, v, _)| format!("{b}.v{v}.bat")));
                    } else if records == crash {
                        wal.extend_from_slice(&frame[..cut]);
                    }
                    records += 1;
                }
                Step::Checkpoint(snap) if records <= crash => {
                    std::fs::write(dir.wal_path(gen), std::mem::take(&mut wal)).unwrap();
                    gen += 1;
                    let snap = Snapshot { replay_from: gen, ..snap.clone() };
                    if records == crash && cut == 0 {
                        write_fragment_files(dir, &snap).unwrap();
                    } else {
                        write_checkpoint(dir, &snap).unwrap();
                        named = snap
                            .frags
                            .iter()
                            .map(|f| format!("{}.v{}.bat", f.bat, f.version))
                            .collect();
                    }
                }
                Step::Checkpoint(_) => {}
            }
        }
        std::fs::write(dir.wal_path(gen), wal).unwrap();
        (state, named)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// Whatever the crash point — at every record boundary and in the
        /// middle of every record of a history of loads, creates,
        /// multi-row INSERTs, UPDATEs/DELETEs (zero-match, one and two
        /// assignments, Cmp/BETWEEN/IN, `str` columns) and checkpoints,
        /// with or without a half-written checkpoint at that point —
        /// recovery rebuilds exactly the live state after the last intact
        /// record, every fragment at its version, and keeps exactly the
        /// fragment files some committed record names: no orphan of a lost
        /// load or an uncommitted checkpoint survives.
        #[test]
        fn any_crash_point_recovers_the_live_state_after_the_last_intact_record(
            ops in prop::collection::vec((0u8..6, 0u8..12, -20i32..20), 1..14),
        ) {
            let root = scratch("crashpoints");
            let (mut live, mut next_bat) = (Live::default(), 100u32);
            let mut steps: Vec<(Step, Live)> = Vec::new();
            for op in ops {
                step(&mut live, &mut steps, &mut next_bat, op);
            }
            let frames: Vec<usize> = steps
                .iter()
                .filter_map(|(s, _)| match s {
                    Step::Record { frame, .. } => Some(frame.len()),
                    Step::Checkpoint(_) => None,
                })
                .collect();
            let cuts = (0..=frames.len())
                .map(|i| (i, 0))
                .chain(frames.iter().enumerate().map(|(i, len)| (i, len / 2)));
            for (at, cut) in cuts {
                std::fs::remove_dir_all(&root).ok();
                let dir = DataDir::open(&root).unwrap();
                let (want, named) = crash(&dir, &steps, at, cut);

                let rec = recover(&dir, 0).unwrap();
                prop_assert_eq!(rec.torn, cut > 0, "crash in record {} at byte {}", at, cut);
                let got: BTreeMap<u32, (u32, Vec<Val>)> =
                    rec.frags.iter().map(|(&b, f)| (b, (f.version, tails(f)))).collect();
                let want_frags: BTreeMap<u32, (u32, Vec<Val>)> = want
                    .frags
                    .iter()
                    .map(|(&b, (v, bat))| (b, (*v, (0..bat.count()).map(|i| bat.bun(i).1).collect())))
                    .collect();
                prop_assert_eq!(got, want_frags, "crash in record {} at byte {}", at, cut);
                prop_assert_eq!(rec.tables, want.tables);
                let files: BTreeSet<String> = bat_files(&dir).into_iter().collect();
                prop_assert_eq!(files, named, "crash in record {} at byte {}", at, cut);
            }
            std::fs::remove_dir_all(&root).ok();
        }
    }
}
