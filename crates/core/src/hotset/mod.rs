//! Live hot-set management (§4.4/§5): ring residency by interest.
//!
//! The protocol core ([`crate::proto`], Fig. 5) decides *when* a
//! fragment leaves the hot set; [`store`] keeps the owner's one record
//! per owned fragment — resident or spilled, and which version is
//! durable — with byte-accurate totals, and picks victims coldest-first
//! against a per-node memory budget. The engine spills a victim within
//! the event that chose it: a fragment version's
//! `bats/<id>.v<version>.bat` file *is* its at-rest copy, so a victim
//! whose version has that file is dropped at once, and one mutated since
//! first writes it and logs the record naming it — the rule a bulk load
//! follows.
//!
//! There is no re-admission protocol: a query that needs an evicted
//! fragment sends the ordinary ring request, and the owner reloads the
//! file when the request finds the fragment off the ring.

pub mod store;

pub use store::{spill_victims, OwnedStore, Payload};

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
    /// The budget the node holds itself to: `None` without one, and on a
    /// node without a data dir.
    pub mem_budget: Option<u64>,
}
