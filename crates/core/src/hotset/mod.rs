//! Live hot-set management (§4.4/§5): ring residency by interest.
//!
//! The protocol core ([`crate::proto`], Fig. 5) decides *when* a
//! fragment leaves the hot set; this module supplies the engine-side
//! machinery that makes the decision real on a durable node:
//!
//! * [`accounting`] — byte-accurate residency/spill bookkeeping and
//!   coldest-first victim selection against a per-node memory budget,
//! * [`evict`] — the two-phase "checkpoint, then drop" spill queue for
//!   fragments that changed since the last checkpoint (the checkpoint's
//!   `bats/<id>.v<version>.bat` *is* the at-rest copy; a fragment whose
//!   version already has that file is dropped without queueing).
//!
//! On-demand re-admission of an evicted fragment is a routed request
//! like any write: see [`crate::routed`].

pub mod accounting;
pub mod evict;

pub use accounting::{spill_victims, HotsetAccounting, SpilledFrag};
pub use evict::{PendingSpill, SpillQueue};

use crate::ids::BatId;

/// One owned fragment in the `dc.hotset` view / `.hotset` meta-command.
#[derive(Clone, Debug)]
pub struct HotsetRow {
    pub bat: BatId,
    /// `schema.table` the fragment belongs to (`?` if not yet published).
    pub table: String,
    /// `in-ring`, `loading`, `pending`, `on-disk`, or `spilled`.
    pub state: &'static str,
    /// Most recent Eq. 1 score the owner computed (0 until a pass).
    pub loi: f64,
    pub version: u32,
    pub size: u64,
}

/// Per-node hot-set snapshot behind [`HotsetRow`].
#[derive(Clone, Debug, Default)]
pub struct HotsetSnapshot {
    pub rows: Vec<HotsetRow>,
    /// Current LOIT threshold and its ladder index.
    pub loit: f64,
    pub loit_level: usize,
    pub resident_bytes: u64,
    pub spilled_bytes: u64,
    pub mem_budget: Option<u64>,
}
