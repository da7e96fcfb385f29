//! # dc-persist — durable node-local storage for the live engine
//!
//! The paper keeps the hot set circulating in memory while "cold data
//! resides on attached disks" (§3, §4.2). This crate is that disk: a
//! per-node data directory holding a manifest, a catalog snapshot, one
//! append-only write-ahead log, and fragment payloads in
//! `batstore::storage`'s binary format, one file per fragment version. A
//! node logs every durable change *ahead* of applying it — naming or
//! describing fragment versions, never repeating a file's payload —
//! checkpoints owned fragments in the background, and on restart replays
//! manifest → snapshots → WAL tail to stand back up with its catalog and
//! fragments intact — then merely
//! re-advertises them on the ring rather than re-shipping anything
//! (data movement, not recovery, is the scarce resource in parallel
//! query processing).
//!
//! * [`datadir`] — directory layout and the atomically-replaced
//!   manifest, the single commit point of a checkpoint.
//! * [`wal`] — CRC-framed records ([`WalRecord`]), the fsync policy, the
//!   appender, and tear-tolerant replay.
//! * [`checkpoint`] — the snapshot writer.
//! * [`log`] — [`Log`], a node's one handle on all of the above: the WAL
//!   generation it appends to, when it rotates and checkpoints, the
//!   thread that writes its checkpoints, what it counts, and the recovery
//!   and compaction it opens with.
//! * [`mod@recover`] — the startup path, idempotent across
//!   checkpoint/WAL overlap by fragment version.
//!
//! The crate deliberately depends only on `batstore` (and `dc-obs` for
//! its timings): the engine (in `datacyclotron`) adapts its ring types to
//! these records, keeping the storage layer free of protocol concerns.

pub mod checkpoint;
pub mod datadir;
pub mod log;
pub mod recover;
pub mod wal;

pub use checkpoint::{write_checkpoint, CheckpointStats, FragSnap, Snapshot};
pub use datadir::{DataDir, Manifest};
pub use log::{Log, State};
pub use recover::{recover, RecFrag, Recovered};
pub use wal::{replay_wal, ColRec, FsyncPolicy, TableRec, WalRecord, WalWriter};
