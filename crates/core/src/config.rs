//! Per-node Data Cyclotron configuration.

use netsim::SimDuration;
use std::path::PathBuf;

pub use dc_persist::FsyncPolicy;

/// Durable node-local storage: where this node's "cold data resides on
/// attached disks" (§3). When set on
/// [`NodeOptions`](crate::node::NodeOptions), the node write-ahead
/// logs every durable mutation, checkpoints owned fragments in the
/// background, and recovers catalog + fragments from the directory on
/// startup — a SIGKILL'd process restarts with its data intact.
#[derive(Clone, Debug)]
pub struct DataDir {
    /// Root of the per-node data directory (created if missing).
    pub path: PathBuf,
    /// When the WAL is fsynced: `Always` survives power loss per
    /// acknowledged statement, `EveryN` bounds the loss window, `Off`
    /// survives process crashes only.
    pub fsync: FsyncPolicy,
    /// Rotate the WAL and checkpoint owned fragments once this many WAL
    /// bytes accumulate.
    pub checkpoint_wal_bytes: u64,
}

impl DataDir {
    /// A data dir at `path` with the durable default (`fsync = Always`,
    /// checkpoint every 16 MiB of WAL).
    pub fn new(path: impl Into<PathBuf>) -> Self {
        DataDir { path: path.into(), fsync: FsyncPolicy::Always, checkpoint_wal_bytes: 16 << 20 }
    }

    pub fn fsync(mut self, policy: FsyncPolicy) -> Self {
        self.fsync = policy;
        self
    }

    pub fn checkpoint_wal_bytes(mut self, bytes: u64) -> Self {
        self.checkpoint_wal_bytes = bytes.max(1);
        self
    }
}

#[derive(Clone, Debug)]
pub struct DcConfig {
    /// BAT queue capacity in bytes (the paper's nodes have 200 MB of
    /// network buffers). "Ring is full" at an owner means its local queue
    /// cannot fit the BAT (Fig. 3, outcome 3).
    pub queue_capacity: u64,
    /// The LOIT ladder: candidate threshold levels. A single level gives
    /// the fixed-LOIT behavior of §5.1; the paper's dynamic experiments
    /// use {0.1, 0.6, 1.1} (§5.2).
    pub loit_levels: Vec<f64>,
    /// `loadAll` period: every T, postponed loads are retried oldest
    /// first (§4.2.3).
    pub load_interval: SimDuration,
    /// `resend` timeout on the rotational delay for requested BATs; a
    /// trigger indicates a package loss (§4.2.3).
    pub resend_timeout: SimDuration,
    /// Owner-side lost-BAT detection: an in-ring BAT not seen for this
    /// long is assumed dropped and reverts to disk so a re-request can
    /// reload it. (Not in the paper, which assumes a lossless ring:
    /// without it, a dropped BAT would be permanently "loaded" and
    /// outcome 2 would ignore all re-requests.)
    pub lost_after: SimDuration,
    /// Local fragment cache capacity (the "local cache" the pin call
    /// checks, §4.2.1). Passing BATs with registered local interest are
    /// kept here, memory permitting.
    pub cache_capacity: u64,
}

impl Default for DcConfig {
    fn default() -> Self {
        DcConfig {
            queue_capacity: 200 * 1024 * 1024,
            loit_levels: crate::loi::DEFAULT_LEVELS.to_vec(),
            load_interval: SimDuration::from_millis(100),
            resend_timeout: SimDuration::from_secs(5),
            lost_after: SimDuration::from_secs(15),
            cache_capacity: 512 * 1024 * 1024,
        }
    }
}

impl DcConfig {
    /// Fixed-threshold configuration for the §5.1 sweep.
    pub fn with_fixed_loit(mut self, loit: f64) -> Self {
        self.loit_levels = vec![loit];
        self
    }

    /// Validate invariants; called by drivers at startup.
    pub fn validate(&self) -> Result<(), String> {
        if self.loit_levels.is_empty() {
            return Err("loit_levels must not be empty".into());
        }
        if !self.loit_levels.windows(2).all(|w| w[0] < w[1]) {
            return Err("loit_levels must be strictly increasing".into());
        }
        if self.queue_capacity == 0 {
            return Err("queue_capacity must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_and_paperlike() {
        let c = DcConfig::default();
        c.validate().unwrap();
        assert_eq!(c.queue_capacity, 200 * 1024 * 1024);
        assert_eq!(c.loit_levels, crate::loi::DEFAULT_LEVELS.to_vec());
        assert_eq!(c.loit_levels, vec![0.1, 0.6, 1.1], "§5.2 experiment ladder");
    }

    #[test]
    fn fixed_loit_builder() {
        let c = DcConfig::default().with_fixed_loit(0.7);
        c.validate().unwrap();
        assert_eq!(c.loit_levels, vec![0.7]);
    }

    #[test]
    fn data_dir_builder() {
        let d =
            DataDir::new("/tmp/dc-node-0").fsync(FsyncPolicy::EveryN(8)).checkpoint_wal_bytes(1024);
        assert_eq!(d.fsync, FsyncPolicy::EveryN(8));
        assert_eq!(d.checkpoint_wal_bytes, 1024);
        assert_eq!(DataDir::new("/x").checkpoint_wal_bytes(0).checkpoint_wal_bytes, 1);
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let mut c = DcConfig::default();
        c.loit_levels.clear();
        assert!(c.validate().is_err());

        let c = DcConfig { loit_levels: vec![0.5, 0.2], ..DcConfig::default() };
        assert!(c.validate().is_err());

        let c = DcConfig { queue_capacity: 0, ..DcConfig::default() };
        assert!(c.validate().is_err());
    }
}
