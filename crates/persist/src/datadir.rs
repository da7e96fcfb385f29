//! The per-node data directory: where the paper's "cold data resides on
//! attached disks" (§3) actually lives for a live node.
//!
//! ```text
//! <root>/
//!   MANIFEST                  node id + first WAL generation to replay (atomic)
//!   catalog.snap              checkpointed catalog: Table + FragMeta records
//!   wal-<gen>.log             append-only WAL generations (usually just one)
//!   bats/<id>.v<version>.bat  fragment payloads (batstore format), immutable
//! ```
//!
//! Every multi-byte file (manifest, catalog snapshot, BAT snapshots) is
//! written to a temp file in the same directory and atomically renamed
//! into place, so no crash can leave a torn copy under the real name.
//! The manifest and the catalog snapshot are replaced that way; a
//! fragment file never changes — it is named by the `(id, version)`
//! pair whose payload it holds, written by the bulk load or the spill
//! whose record names it or by a checkpoint (by both at once, at worst,
//! each renaming an identical copy into place), and deleted once a
//! committed checkpoint names a later version of the fragment. The WAL
//! is the only file mutated in place, and its
//! frames carry CRCs precisely so a torn tail is detectable.

use batstore::{storage, Bat};
use std::collections::{HashMap, HashSet};
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

const MANIFEST_MAGIC: &[u8; 4] = b"DCM1";

/// What the manifest pins down: whose data this is and where replay
/// starts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Manifest {
    /// The ring node this directory belongs to; recovery refuses a
    /// mismatched id rather than silently adopting foreign fragments.
    pub node: u16,
    /// WAL generations `>= replay_from` contain mutations newer than the
    /// catalog snapshot; older generations are garbage awaiting cleanup.
    pub replay_from: u64,
}

/// Handle to a node's data directory layout.
#[derive(Clone, Debug)]
pub struct DataDir {
    root: PathBuf,
}

impl DataDir {
    /// Open (creating if needed) the directory skeleton.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<DataDir> {
        let dir = DataDir { root: root.into() };
        std::fs::create_dir_all(dir.bats_dir())?;
        Ok(dir)
    }

    pub fn root(&self) -> &Path {
        &self.root
    }

    pub fn manifest_path(&self) -> PathBuf {
        self.root.join("MANIFEST")
    }

    pub fn snap_path(&self) -> PathBuf {
        self.root.join("catalog.snap")
    }

    pub fn wal_path(&self, gen: u64) -> PathBuf {
        self.root.join(format!("wal-{gen:06}.log"))
    }

    pub fn bats_dir(&self) -> PathBuf {
        self.root.join("bats")
    }

    /// The file holding fragment `bat`'s payload at `version`. Because
    /// the name carries the version, the file is immutable: it exists
    /// only complete (renamed into place) and is never overwritten.
    pub fn bat_path(&self, bat: u32, version: u32) -> PathBuf {
        self.bats_dir().join(format!("{bat}.v{version}.bat"))
    }

    /// Give `(bat, version)` its file, durably: temp file, fsync, rename,
    /// then a sync of `bats/` — done before any record names the file.
    /// This is the event loop's write (a bulk load's, a spill's); the
    /// checkpointer writes through its own temp file.
    pub fn write_fragment(&self, bat: u32, version: u32, payload: &Bat) -> io::Result<()> {
        write_bat_file(&self.bat_path(bat, version), "tmp", payload)?;
        sync_dir(&self.bats_dir());
        Ok(())
    }

    /// Delete every file under `bats/` that `keep` does not list. Only
    /// recovery calls this — before the node runs, so no load or
    /// checkpoint can be writing a file it would take for an orphan.
    pub fn retain_bats(&self, keep: &HashSet<PathBuf>) -> io::Result<()> {
        for entry in std::fs::read_dir(self.bats_dir())? {
            let path = entry?.path();
            if !keep.contains(&path) {
                std::fs::remove_file(&path)?;
            }
        }
        Ok(())
    }

    /// After a checkpoint commit: delete every file of a fragment in
    /// `named` (id → committed version) at a lower version than that —
    /// its superseded versions and their writers' leftover temp files.
    /// Anything newer is left alone, and so are fragments the snapshot
    /// does not name: a bulk load or a spill may have written the file
    /// after the snapshot was captured.
    pub fn collect_superseded(&self, named: &HashMap<u32, u32>) -> io::Result<()> {
        for entry in std::fs::read_dir(self.bats_dir())? {
            let path = entry?.path();
            let superseded = path
                .file_name()
                .and_then(|n| n.to_str())
                .and_then(frag_of_file)
                .is_some_and(|(bat, v)| named.get(&bat).is_some_and(|&named| v < named));
            if superseded {
                std::fs::remove_file(&path)?;
            }
        }
        Ok(())
    }

    /// WAL generations present on disk, ascending.
    pub fn wal_generations(&self) -> io::Result<Vec<u64>> {
        let mut gens = Vec::new();
        for entry in std::fs::read_dir(&self.root)? {
            let name = entry?.file_name();
            let name = name.to_string_lossy();
            if let Some(gen) = name.strip_prefix("wal-").and_then(|s| s.strip_suffix(".log")) {
                if let Ok(g) = gen.parse::<u64>() {
                    gens.push(g);
                }
            }
        }
        gens.sort_unstable();
        Ok(gens)
    }

    /// `None` when the directory is fresh (no manifest yet).
    pub fn read_manifest(&self) -> io::Result<Option<Manifest>> {
        let bytes = match std::fs::read(self.manifest_path()) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        if bytes.len() != 14 || &bytes[..4] != MANIFEST_MAGIC {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "corrupt MANIFEST"));
        }
        Ok(Some(Manifest {
            node: u16::from_le_bytes(bytes[4..6].try_into().expect("2 bytes")),
            replay_from: u64::from_le_bytes(bytes[6..14].try_into().expect("8 bytes")),
        }))
    }

    /// Atomically replace the manifest: the single commit point of a
    /// checkpoint.
    pub fn write_manifest(&self, m: &Manifest) -> io::Result<()> {
        let mut bytes = Vec::with_capacity(14);
        bytes.extend_from_slice(MANIFEST_MAGIC);
        bytes.extend_from_slice(&m.node.to_le_bytes());
        bytes.extend_from_slice(&m.replay_from.to_le_bytes());
        write_atomic(&self.manifest_path(), &bytes)
    }
}

/// The fragment id and version of a `bats/` file name —
/// `<id>.v<version>.bat`, or a `.<id>.v<version>.bat.<suffix>` temp file
/// it is written as.
fn frag_of_file(name: &str) -> Option<(u32, u32)> {
    let (bat, rest) = name.trim_start_matches('.').split_once(".v")?;
    Some((bat.parse().ok()?, rest.split('.').next()?.parse().ok()?))
}

/// A fragment payload under `path`, complete or not at all (see
/// [`write_then_rename`]), by way of the temp file `.<name>.<tmp>`. The
/// event loop and the checkpointer pass different `tmp`s: a spill may
/// write the very version the snapshot in flight carries, and then each
/// renames its own complete, identical copy into place.
pub(crate) fn write_bat_file(path: &Path, tmp: &str, payload: &Bat) -> io::Result<()> {
    write_then_rename(path, tmp, |w| {
        storage::write_bat(w, payload).map_err(|e| io::Error::other(e.to_string()))
    })
}

/// Write `bytes` under `path` crash-safely: temp file in the same
/// directory, fsync, atomic rename, then a best-effort directory sync so
/// the rename itself is durable.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    write_then_rename(path, "tmp", |w| w.write_all(bytes))?;
    sync_dir(path.parent().unwrap_or_else(|| Path::new(".")));
    Ok(())
}

/// The first half of [`write_atomic`], through the temp file
/// `.<name>.<tmp>` and with the content streamed by `fill`: the file
/// appears under `path` complete or not at all, but the rename is
/// durable only after a [`sync_dir`] of its directory — which a caller
/// writing several files into one directory pays once.
pub(crate) fn write_then_rename(
    path: &Path,
    tmp: &str,
    fill: impl FnOnce(&mut BufWriter<File>) -> io::Result<()>,
) -> io::Result<()> {
    let dir = path.parent().unwrap_or_else(|| Path::new("."));
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("file");
    let tmp = dir.join(format!(".{name}.{tmp}"));
    {
        let mut w = BufWriter::new(File::create(&tmp)?);
        fill(&mut w)?;
        w.flush()?;
        w.get_ref().sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

/// Best-effort fsync of a directory, making renames into it durable.
pub(crate) fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("dc_datadir_{tag}_{}", std::process::id()))
    }

    #[test]
    fn manifest_round_trip_and_fresh_none() {
        let root = scratch("manifest");
        let dir = DataDir::open(&root).unwrap();
        assert_eq!(dir.read_manifest().unwrap(), None);
        let m = Manifest { node: 3, replay_from: 17 };
        dir.write_manifest(&m).unwrap();
        assert_eq!(dir.read_manifest().unwrap(), Some(m));
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn corrupt_manifest_rejected() {
        let root = scratch("corrupt");
        let dir = DataDir::open(&root).unwrap();
        std::fs::write(dir.manifest_path(), b"garbage").unwrap();
        assert!(dir.read_manifest().is_err());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn wal_generations_sorted() {
        let root = scratch("gens");
        let dir = DataDir::open(&root).unwrap();
        for g in [3u64, 1, 2] {
            std::fs::write(dir.wal_path(g), b"").unwrap();
        }
        std::fs::write(root.join("not-a-wal.txt"), b"").unwrap();
        assert_eq!(dir.wal_generations().unwrap(), vec![1, 2, 3]);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn write_atomic_replaces() {
        let root = scratch("atomic");
        std::fs::create_dir_all(&root).unwrap();
        let p = root.join("x");
        write_atomic(&p, b"one").unwrap();
        write_atomic(&p, b"two").unwrap();
        assert_eq!(std::fs::read(&p).unwrap(), b"two");
        assert!(!root.join(".x.tmp").exists(), "temp cleaned by rename");
        std::fs::remove_dir_all(&root).ok();
    }
}
