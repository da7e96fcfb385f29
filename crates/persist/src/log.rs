//! A node's durable log: [`Log`] owns the WAL generation protocol whole —
//! which generation the node appends to, when it rotates, and where the
//! replay of each checkpoint starts — and the thread that writes its
//! checkpoints behind it. The node says what the records and snapshots
//! hold; it names no generation.

use crate::checkpoint::{write_checkpoint, CheckpointStats, FragSnap, Snapshot};
use crate::datadir::DataDir;
use crate::recover::{recover, Recovered};
use crate::wal::{FsyncPolicy, TableRec, WalRecord, WalWriter};
use batstore::Bat;
use crossbeam::channel::{unbounded, Sender};
use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;

/// What a checkpoint holds of a node: every table it knows and every
/// fragment it owns.
pub type State = (Vec<TableRec>, Vec<FragSnap>);

dc_obs::counters! {
    /// What a log counts, in the registry it is opened with.
    struct LogStats {
        /// WAL records appended.
        wal_records,
        /// WAL bytes appended (frame bytes, including headers).
        wal_bytes,
        /// Background checkpoints started (WAL rotations).
        checkpoints,
        /// Fragment payload files the checkpoints wrote …
        obs_checkpoint_frags_written,
        /// … and those they found on disk at their version already:
        /// "incremental" made checkable on a live node.
        obs_checkpoint_frags_skipped,
    }
}

impl LogStats {
    fn count(&self, stats: CheckpointStats) {
        self.obs_checkpoint_frags_written.add(stats.frags_written);
        self.obs_checkpoint_frags_skipped.add(stats.frags_skipped);
    }
}

/// A node's durable log (see the module docs).
pub struct Log {
    dir: DataDir,
    node: u16,
    wal: WalWriter,
    /// The generation `wal` appends to.
    gen: u64,
    checkpoint_wal_bytes: u64,
    /// Bytes counted toward the checkpoint trigger since the last one.
    since_checkpoint: u64,
    /// What the snapshot the writer is writing names, if any.
    in_flight: Option<Vec<(u32, u32)>>,
    stats: Arc<LogStats>,
    /// The checkpoint writer thread and the channel that hands it
    /// snapshots; taken when the log drops.
    writer: Option<(Sender<Snapshot>, JoinHandle<()>)>,
}

impl Log {
    /// Open the data dir at `root` as node `node`'s log: recover it, let
    /// `rebuild` stand the node back up from that, create the writer at
    /// the next generation (timed in `obs`'s `wal_append_us` and
    /// `wal_fsync_us`), and compact the node's state into a checkpoint
    /// replayed from there. This compaction is synchronous: after a torn
    /// tail the next recovery stops at the tear, so it must have moved
    /// replay past it before anything is appended. Later checkpoints are
    /// written, in order, by a thread the log spawns: `done(committed)`
    /// runs on it once per snapshot, after the commit and its cleanup —
    /// or after the failure, which leaves the node on the previous
    /// checkpoint and a longer WAL. Returns the log and the `(fragment,
    /// version)`s the compaction made durable.
    pub fn open(
        root: &Path,
        node: u16,
        fsync: FsyncPolicy,
        checkpoint_wal_bytes: u64,
        obs: &dc_obs::Registry,
        rebuild: impl FnOnce(Recovered) -> State,
        mut done: impl FnMut(bool) + Send + 'static,
    ) -> Result<(Log, Vec<(u32, u32)>), String> {
        let dir =
            DataDir::open(root).map_err(|e| format!("opening data dir {}: {e}", root.display()))?;
        let recovered = recover(&dir, node)?;
        let gen = recovered.next_gen;
        let mut wal = WalWriter::create(&dir.wal_path(gen), fsync)
            .map_err(|e| format!("creating WAL: {e}"))?;
        wal.set_metrics(obs.histogram("wal_append_us"), obs.histogram("wal_fsync_us"));
        let stats = Arc::new(LogStats::register(obs));
        let (to_writer, snapshots) = unbounded::<Snapshot>();
        let writer = {
            let (dir, stats, duration) =
                (dir.clone(), Arc::clone(&stats), obs.histogram("checkpoint_us"));
            let writer = std::thread::spawn(move || {
                while let Ok(snap) = snapshots.recv() {
                    let start = std::time::Instant::now();
                    let result = write_checkpoint(&dir, &snap);
                    match &result {
                        Err(e) => eprintln!("[dc-persist] checkpoint failed: {e}"),
                        Ok(written) => {
                            duration.record_elapsed_micros(start);
                            stats.count(*written);
                        }
                    }
                    done(result.is_ok());
                }
            });
            (to_writer, writer)
        };
        let log = Log {
            dir,
            node,
            wal,
            gen,
            checkpoint_wal_bytes,
            since_checkpoint: 0,
            in_flight: None,
            stats,
            writer: Some(writer),
        };
        // Only the fragments the WAL tail moved lack their files. The
        // compaction's files are counted, its time is not.
        let snap = log.snapshot(rebuild(recovered));
        let written =
            write_checkpoint(&log.dir, &snap).map_err(|e| format!("startup checkpoint: {e}"))?;
        log.stats.count(written);
        Ok((log, names(&snap)))
    }

    /// The data dir: where a spilled fragment's file is read back.
    pub fn dir(&self) -> &DataDir {
        &self.dir
    }

    /// Append `rec`, returning its frame's size. The checkpoint trigger
    /// counts that frame plus `rewritten`: payload bytes the record does
    /// not carry but a checkpoint settles (what replaying a logical record
    /// rebuilds, or the file whose predecessor a spill leaves to GC).
    pub fn append(&mut self, rec: &WalRecord, rewritten: u64) -> Result<u64, String> {
        let n = self.wal.append(rec).map_err(|e| format!("wal append: {e}"))?;
        self.stats.wal_records.inc();
        self.stats.wal_bytes.add(n);
        self.since_checkpoint += n + rewritten;
        Ok(n)
    }

    /// Make fragment versions durable: their files, synced as one batch,
    /// then a `FragMeta` naming each, the first counting `rewritten` too;
    /// `landed(bat, version)` runs as each record is appended.
    pub fn store(
        &mut self,
        frags: &[(u32, u32, &Bat)],
        rewritten: u64,
        mut landed: impl FnMut(u32, u32),
    ) -> Result<(), String> {
        self.dir
            .write_fragments(frags.iter().copied(), "tmp")
            .map_err(|e| format!("writing its file: {e}"))?;
        let mut rewritten = rewritten;
        for &(bat, version, _) in frags {
            let rec = WalRecord::FragMeta { bat, version };
            self.append(&rec, std::mem::take(&mut rewritten))?;
            landed(bat, version);
        }
        Ok(())
    }

    /// Once enough bytes are counted and no checkpoint is in flight,
    /// rotate to a fresh generation and submit a snapshot of `state()`
    /// replayed from there. True if one was submitted.
    pub fn checkpoint(&mut self, state: impl FnOnce() -> State) -> bool {
        if self.since_checkpoint < self.checkpoint_wal_bytes || self.in_flight.is_some() {
            return false;
        }
        let next = self.gen + 1;
        if let Err(e) = self.wal.rotate(&self.dir.wal_path(next)) {
            eprintln!("[dc-persist] cannot rotate WAL to gen {next}: {e}");
            return false;
        }
        self.gen = next;
        self.since_checkpoint = 0;
        let snap = self.snapshot(state());
        let named = names(&snap);
        let (to_writer, _) = self.writer.as_ref().expect("live until drop");
        let submitted = to_writer.send(snap).is_ok();
        if submitted {
            self.in_flight = Some(named);
            self.stats.checkpoints.inc();
        }
        submitted
    }

    /// The checkpoint in flight is over: the `(fragment, version)`s it
    /// made durable if it `committed`, none if it failed. The next may go.
    pub fn settle(&mut self, committed: bool) -> Vec<(u32, u32)> {
        self.in_flight.take().filter(|_| committed).unwrap_or_default()
    }

    /// Force every appended record to disk.
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.wal.sync()
    }

    /// `state` as a checkpoint replayed from the current generation.
    fn snapshot(&self, (tables, frags): State) -> Snapshot {
        Snapshot { node: self.node, replay_from: self.gen, tables, frags }
    }
}

impl Drop for Log {
    /// The writer finishes the snapshot in flight, then the log joins it.
    fn drop(&mut self) {
        if let Some((to_writer, writer)) = self.writer.take() {
            drop(to_writer);
            let _ = writer.join();
        }
    }
}

fn names(snap: &Snapshot) -> Vec<(u32, u32)> {
    snap.frags.iter().map(|f| (f.bat, f.version)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::ColRec;
    use batstore::{ColType, Column};
    use crossbeam::channel::Receiver;
    use std::sync::Arc;
    use std::time::Duration;

    fn scratch(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("dc_log_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        d
    }

    fn table() -> TableRec {
        let col = ColRec { name: "x".into(), ty: ColType::Int, bat: 7, size: 0, owner: 0 };
        TableRec { origin: 0, schema: "sys".into(), table: "t".into(), cols: vec![col] }
    }

    fn state(version: u32, rows: Vec<i32>) -> State {
        let payload = Some(Arc::new(Bat::dense(Column::from(rows))));
        (vec![table()], vec![FragSnap { bat: 7, version, payload }])
    }

    /// A log at `root` whose node owns fragment 7 at `version`, and the
    /// outcomes of its background checkpoints.
    fn open(root: &Path, threshold: u64, version: u32) -> (Log, Vec<(u32, u32)>, Receiver<bool>) {
        let (tx, done) = unbounded();
        let obs = dc_obs::Registry::new(0);
        let rebuild = |_| state(version, vec![1, 2]);
        let ok = move |ok| {
            let _ = tx.send(ok);
        };
        let (log, durable) = Log::open(root, 0, FsyncPolicy::Off, threshold, &obs, rebuild, ok)
            .expect("the log opens");
        (log, durable, done)
    }

    /// The WAL generations on disk, and the one replay starts from.
    fn generations(log: &Log) -> (Vec<u64>, u64) {
        let replay_from = log.dir().read_manifest().unwrap().expect("a manifest").replay_from;
        (log.dir().wal_generations().unwrap(), replay_from)
    }

    #[test]
    fn each_open_and_checkpoint_moves_replay_past_the_generations_before_it() {
        let root = scratch("gens");
        let (mut log, durable, done) = open(&root, 100, 0);
        assert_eq!(durable, [(7, 0)], "the startup checkpoint made v0 durable");
        assert_eq!(generations(&log), (vec![1], 1));

        // Below the threshold nothing is due; past it one goes, and a
        // second waits for the first's outcome.
        let rec = WalRecord::FragMeta { bat: 7, version: 1 };
        let n = log.append(&rec, 0).unwrap();
        assert!(n < 100 && !log.checkpoint(|| unreachable!("not due")));
        log.append(&rec, 100).unwrap();
        assert!(log.checkpoint(|| state(1, vec![1, 2, 3])));
        log.append(&rec, 100).unwrap();
        assert!(!log.checkpoint(|| unreachable!("one in flight")));
        assert!(done.recv_timeout(Duration::from_secs(10)).unwrap());
        assert_eq!(log.settle(true), [(7, 1)]);
        assert_eq!(generations(&log), (vec![2], 2));
        assert!(log.checkpoint(|| state(1, vec![1, 2, 3])));
        assert!(done.recv_timeout(Duration::from_secs(10)).unwrap());
        assert_eq!(log.settle(false), [], "a failed checkpoint makes nothing durable");
        drop(log);

        // Reopening compacts again: replay starts after every generation
        // the last run appended to.
        let (log, _, _) = open(&root, 100, 1);
        assert_eq!(generations(&log), (vec![4], 4));
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn the_writer_reports_each_outcome_and_the_log_counts_what_it_did() {
        let root = scratch("bg");
        let obs = dc_obs::Registry::new(1);
        let (tx, done) = unbounded();
        let report = move |ok| {
            let _ = tx.send(ok);
        };
        let rebuild = |_| state(0, vec![1, 2, 3]);
        let (mut log, _) = Log::open(&root, 1, FsyncPolicy::Off, 0, &obs, rebuild, report).unwrap();
        let outcome = || done.recv_timeout(Duration::from_secs(10)).unwrap();
        let frame = log.append(&WalRecord::FragMeta { bat: 7, version: 0 }, 0).unwrap();
        assert!(log.checkpoint(|| state(0, vec![1, 2, 3])));
        assert!(outcome(), "committed");
        assert_eq!((log.settle(true), generations(&log)), (vec![(7, 0)], (vec![2], 2)));
        // A snapshot whose fragment file cannot be written fails, says
        // so, and leaves the committed checkpoint in place.
        std::fs::create_dir(log.dir().bats_dir().join(".8.v0.bat.ckpt.tmp")).unwrap();
        let payload = Some(Arc::new(Bat::dense(Column::from(vec![4]))));
        assert!(log.checkpoint(|| (vec![table()], vec![FragSnap { bat: 8, version: 0, payload }])));
        assert!(!outcome(), "reported as failed");
        assert_eq!((log.settle(false), generations(&log).1), (vec![], 2));
        // The startup compaction wrote v0's file and the first background
        // checkpoint found it; only background checkpoints are timed.
        let count = |name| obs.counter_value(name).unwrap();
        assert_eq!((count("wal_records"), count("wal_bytes")), (1, frame));
        assert_eq!(count("checkpoints"), 2);
        assert_eq!(count("obs_checkpoint_frags_written"), 1);
        assert_eq!(count("obs_checkpoint_frags_skipped"), 1);
        assert_eq!(obs.histogram("checkpoint_us").snapshot().count, 1);
        drop(log);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn stored_versions_land_in_order_and_count_toward_the_trigger() {
        let root = scratch("store");
        let (mut log, _, _) = open(&root, 1 << 20, 0);
        let (a, b) = (Bat::dense(Column::from(vec![1])), Bat::dense(Column::from(vec![2])));
        let mut landed = Vec::new();
        log.store(&[(8, 0, &a), (9, 3, &b)], 1 << 20, |bat, v| landed.push((bat, v))).unwrap();
        assert_eq!(landed, [(8, 0), (9, 3)]);
        assert!(log.dir().bat_path(8, 0).exists() && log.dir().bat_path(9, 3).exists());
        assert!(log.checkpoint(|| state(0, vec![1, 2])), "`rewritten` counted once is enough");
        std::fs::remove_dir_all(&root).ok();
    }
}
