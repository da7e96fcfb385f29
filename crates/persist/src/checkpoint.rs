//! Checkpointing: fold the WAL into snapshot files so restarts replay a
//! short tail instead of the node's whole history.
//!
//! A checkpoint is written *behind* a running node: the event loop
//! captures a [`Snapshot`] (cheap — fragment payloads are `Arc`-shared),
//! rotates to a fresh WAL generation, and hands the snapshot to the
//! [`Checkpointer`] thread. The thread writes the payload of every
//! `(fragment, version)` that has no file yet — each pair is written at
//! most once, under a name no committed checkpoint refers to — then
//! commits by atomically replacing `catalog.snap` (which fragment
//! versions exist) and `MANIFEST` (where WAL replay starts). Only after
//! that are older WAL generations and the versions below the ones it
//! names deleted (a bulk load or a spill may write a newer file, or one
//! of a fragment the snapshot does not name, while this runs; it stays).
//! A crash anywhere in the sequence leaves either the old checkpoint
//! (its files untouched, the WAL tail still replays) or the new one
//! (overlapping WAL records are skipped by version), never a torn mix:
//! an uncommitted checkpoint cannot touch a file the committed one
//! names.

use crate::datadir::{sync_dir, write_atomic, write_bat_file, DataDir, Manifest};
use crate::wal::{encode_record, TableRec, WalRecord};
use batstore::Bat;
use std::io;
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// One owned fragment at checkpoint time.
#[derive(Clone)]
pub struct FragSnap {
    pub bat: u32,
    pub version: u32,
    /// `Some` for resident fragments (the checkpoint writes the payload
    /// file unless this version already has one); `None` for fragments
    /// spilled to `bats/<id>.v<version>.bat` — the checkpoint format
    /// *is* the at-rest format, so a spilled fragment's file is reused
    /// verbatim: the entry only keeps the file out of garbage collection
    /// and its version in the catalog snapshot.
    pub payload: Option<Arc<Bat>>,
}

/// Everything a checkpoint persists: the node's catalog replica (all
/// tables, foreign owners included, so SQL compiles right after a
/// restart) and the payload+version of every owned fragment.
#[derive(Clone)]
pub struct Snapshot {
    pub node: u16,
    /// The WAL generation that starts *after* this snapshot's state.
    pub replay_from: u64,
    pub tables: Vec<TableRec>,
    pub frags: Vec<FragSnap>,
}

/// How many fragment payloads one checkpoint had to write, and how many
/// it found already on disk at their version.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckpointStats {
    pub frags_written: u64,
    pub frags_skipped: u64,
}

/// Write a complete checkpoint and commit it via the catalog snapshot
/// and the manifest. Old WAL generations and fragment files the
/// snapshot does not name are removed after the commit.
pub fn write_checkpoint(dir: &DataDir, snap: &Snapshot) -> io::Result<CheckpointStats> {
    let stats = write_fragment_files(dir, snap)?;
    let mut bytes = Vec::new();
    for t in &snap.tables {
        bytes.extend_from_slice(&encode_record(&WalRecord::Table(t.clone())));
    }
    for f in &snap.frags {
        bytes.extend_from_slice(&encode_record(&WalRecord::FragMeta {
            bat: f.bat,
            version: f.version,
        }));
    }
    write_atomic(&dir.snap_path(), &bytes)?;
    dir.write_manifest(&Manifest { node: snap.node, replay_from: snap.replay_from })?;

    // Commit done; everything below is cleanup, retried by the next
    // checkpoint if it fails.
    for gen in dir.wal_generations()? {
        if gen < snap.replay_from {
            let _ = std::fs::remove_file(dir.wal_path(gen));
        }
    }
    let _ = dir.collect_superseded(&snap.frags.iter().map(|f| (f.bat, f.version)).collect());
    Ok(stats)
}

/// The pre-commit phase of a checkpoint: give every resident
/// `(fragment, version)` of the snapshot its file. A file that exists is
/// complete (it was renamed into place) and holds exactly this payload
/// (a bulk load or a spill wrote it, or recovery deleted whatever a crashed
/// predecessor left), so it is skipped; `bats/` is synced once for all
/// the files written.
pub(crate) fn write_fragment_files(dir: &DataDir, snap: &Snapshot) -> io::Result<CheckpointStats> {
    let mut stats = CheckpointStats::default();
    for f in &snap.frags {
        let Some(payload) = &f.payload else { continue };
        let path = dir.bat_path(f.bat, f.version);
        if path.exists() {
            stats.frags_skipped += 1;
        } else {
            write_bat_file(&path, "ckpt.tmp", payload)?;
            stats.frags_written += 1;
        }
    }
    if stats.frags_written > 0 {
        sync_dir(&dir.bats_dir());
    }
    Ok(stats)
}

/// A background thread writing the snapshots it is handed, in order,
/// and reporting each outcome — whether it committed — to the callback
/// it was spawned with. The owner keeps at most one in flight and learns
/// of the commit from that report; nothing here is polled.
pub struct Checkpointer {
    tx: Option<Sender<Snapshot>>,
    handle: Option<JoinHandle<()>>,
}

/// Telemetry handles the checkpoint writers feed: how long each
/// committed checkpoint took (microseconds) and how many fragment
/// payloads it wrote versus found already on disk — "incremental" made
/// checkable on a live node.
#[derive(Clone)]
pub struct CheckpointMetrics {
    duration: Arc<dc_obs::Histogram>,
    frags_written: Arc<dc_obs::Counter>,
    frags_skipped: Arc<dc_obs::Counter>,
}

impl CheckpointMetrics {
    /// Resolve `checkpoint_us`, `checkpoint_frags_written` and
    /// `checkpoint_frags_skipped` in `obs`.
    pub fn register(obs: &dc_obs::Registry) -> CheckpointMetrics {
        CheckpointMetrics {
            duration: obs.histogram("checkpoint_us"),
            frags_written: obs.counter("checkpoint_frags_written"),
            frags_skipped: obs.counter("checkpoint_frags_skipped"),
        }
    }

    /// Book the fragment files of one committed checkpoint. (Public for
    /// the startup compaction, which runs [`write_checkpoint`] inline
    /// and stays out of the duration histogram.)
    pub fn count(&self, stats: CheckpointStats) {
        self.frags_written.add(stats.frags_written);
        self.frags_skipped.add(stats.frags_skipped);
    }
}

impl Checkpointer {
    /// Start the writer. `done(committed)` runs on its thread once per
    /// submitted snapshot, after the commit and its cleanup — or after
    /// the failure, which leaves the node on the previous checkpoint and
    /// a longer WAL: only durability compaction is lost.
    pub fn spawn(
        dir: DataDir,
        metrics: CheckpointMetrics,
        mut done: impl FnMut(bool) + Send + 'static,
    ) -> Checkpointer {
        let (tx, rx) = channel::<Snapshot>();
        let handle = std::thread::spawn(move || {
            while let Ok(snap) = rx.recv() {
                let start = std::time::Instant::now();
                let result = write_checkpoint(&dir, &snap);
                match &result {
                    Err(e) => eprintln!("[dc-persist] checkpoint failed: {e}"),
                    Ok(stats) => {
                        metrics.duration.record_elapsed_micros(start);
                        metrics.count(*stats);
                    }
                }
                done(result.is_ok());
            }
        });
        Checkpointer { tx: Some(tx), handle: Some(handle) }
    }

    /// Hand a snapshot to the writer; false if its thread is gone.
    pub fn submit(&self, snap: Snapshot) -> bool {
        self.tx.as_ref().expect("live until drop").send(snap).is_ok()
    }
}

impl Drop for Checkpointer {
    fn drop(&mut self) {
        drop(self.tx.take());
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::ColRec;
    use batstore::{storage, ColType, Column};

    fn scratch(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("dc_ckpt_{tag}_{}", std::process::id()))
    }

    fn snap(node: u16, replay_from: u64) -> Snapshot {
        Snapshot {
            node,
            replay_from,
            tables: vec![TableRec {
                origin: node,
                schema: "sys".into(),
                table: "t".into(),
                cols: vec![ColRec {
                    name: "id".into(),
                    ty: ColType::Int,
                    bat: 5,
                    size: 12,
                    owner: node,
                }],
            }],
            frags: vec![FragSnap {
                bat: 5,
                version: 2,
                payload: Some(Arc::new(Bat::dense(Column::from(vec![1, 2, 3])))),
            }],
        }
    }

    fn written(n: u64) -> CheckpointStats {
        CheckpointStats { frags_written: n, frags_skipped: 0 }
    }

    #[test]
    fn checkpoint_commits_and_cleans() {
        let root = scratch("commit");
        let dir = DataDir::open(&root).unwrap();
        // Pre-existing junk the checkpoint should clear: an old WAL, a
        // superseded version of the fragment it names, and a temp file a
        // crashed writer left behind for one. A fragment it does not name
        // is a bulk load racing the checkpoint (the load's record
        // follows its file), and a newer version of one it names is a
        // spill's: those files, and their temps, stay.
        std::fs::write(dir.wal_path(1), b"old").unwrap();
        let junk = [dir.bat_path(5, 1), dir.bats_dir().join(".5.v0.bat.ckpt.tmp")];
        let racing = [
            dir.bat_path(99, 0),
            dir.bats_dir().join(".98.v0.bat.tmp"),
            dir.bat_path(5, 3),
            dir.bats_dir().join(".5.v4.bat.tmp"),
        ];
        for p in junk.iter().chain(&racing) {
            std::fs::write(p, b"junk").unwrap();
        }

        assert_eq!(write_checkpoint(&dir, &snap(0, 2)).unwrap(), written(1));

        assert_eq!(dir.read_manifest().unwrap(), Some(Manifest { node: 0, replay_from: 2 }));
        assert!(!dir.wal_path(1).exists(), "pre-checkpoint WAL removed");
        for p in &junk {
            assert!(!p.exists(), "{} not collected", p.display());
        }
        for p in &racing {
            assert!(p.exists(), "{} collected under a running load or spill", p.display());
        }
        let back = storage::load_bat(&dir.bat_path(5, 2)).unwrap();
        assert_eq!(back.count(), 3);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn each_fragment_version_is_written_once() {
        let root = scratch("once");
        let dir = DataDir::open(&root).unwrap();
        assert_eq!(write_checkpoint(&dir, &snap(0, 2)).unwrap(), written(1));
        let first = std::fs::metadata(dir.bat_path(5, 2)).unwrap().modified().unwrap();

        // The same version again: nothing to write, the file is reused.
        let again = write_checkpoint(&dir, &snap(0, 3)).unwrap();
        assert_eq!(again, CheckpointStats { frags_written: 0, frags_skipped: 1 });
        assert_eq!(std::fs::metadata(dir.bat_path(5, 2)).unwrap().modified().unwrap(), first);

        // The version moved: one new file, and the superseded one goes
        // only after the commit that stops naming it.
        let mut moved = snap(0, 4);
        moved.frags[0].version = 3;
        moved.frags[0].payload = Some(Arc::new(Bat::dense(Column::from(vec![1, 2, 3, 4]))));
        assert_eq!(write_fragment_files(&dir, &moved).unwrap(), written(1));
        assert!(dir.bat_path(5, 2).exists(), "uncommitted checkpoint must not touch v2");
        assert_eq!(write_checkpoint(&dir, &moved).unwrap().frags_skipped, 1);
        assert!(!dir.bat_path(5, 2).exists(), "superseded version collected after commit");
        assert_eq!(storage::load_bat(&dir.bat_path(5, 3)).unwrap().count(), 4);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn payloadless_entry_keeps_spilled_file_alive() {
        let root = scratch("spill");
        let dir = DataDir::open(&root).unwrap();
        // First checkpoint writes the payload; the fragment then spills.
        write_checkpoint(&dir, &snap(0, 2)).unwrap();
        assert!(dir.bat_path(5, 2).exists());

        // Later checkpoints carry the fragment payload-less: the file
        // must survive GC and the catalog snapshot must keep its version.
        let mut later = snap(0, 3);
        later.frags[0].payload = None;
        assert_eq!(write_checkpoint(&dir, &later).unwrap(), CheckpointStats::default());
        assert!(dir.bat_path(5, 2).exists(), "spilled file must not be GC'd");
        let back = storage::load_bat(&dir.bat_path(5, 2)).unwrap();
        assert_eq!(back.count(), 3, "spilled payload untouched");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn background_checkpointer_reports_each_outcome() {
        let root = scratch("bg");
        let dir = DataDir::open(&root).unwrap();
        let obs = dc_obs::Registry::new(1);
        let (tx, done) = std::sync::mpsc::channel();
        let ck = Checkpointer::spawn(dir.clone(), CheckpointMetrics::register(&obs), move |ok| {
            let _ = tx.send(ok);
        });
        let outcome = || done.recv_timeout(std::time::Duration::from_secs(10)).unwrap();
        assert!(ck.submit(snap(1, 3)));
        assert!(outcome(), "committed");
        assert_eq!(dir.read_manifest().unwrap().unwrap().replay_from, 3);
        assert!(ck.submit(snap(1, 4)));
        assert!(outcome());
        assert_eq!(dir.read_manifest().unwrap().unwrap().replay_from, 4);
        // A snapshot whose fragment file cannot be written fails, says
        // so, and leaves the committed checkpoint in place.
        std::fs::create_dir(dir.bats_dir().join(".6.v0.bat.ckpt.tmp")).unwrap();
        let mut blocked = snap(1, 5);
        blocked.frags[0].bat = 6;
        blocked.frags[0].version = 0;
        assert!(ck.submit(blocked));
        assert!(!outcome(), "reported as failed");
        assert_eq!(dir.read_manifest().unwrap().unwrap().replay_from, 4);
        assert_eq!(obs.counter("checkpoint_frags_written").get(), 1);
        assert_eq!(obs.counter("checkpoint_frags_skipped").get(), 1);
        assert_eq!(obs.histogram("checkpoint_us").snapshot().count, 2);
        std::fs::remove_dir_all(&root).ok();
    }
}
