//! Structures S2 and S3 (paper Fig. 2) plus the local fragment cache.
//!
//! * S2 "administers the outstanding requests for all active queries,
//!   organized by BAT identifier."
//! * S3 "contains the identity of the BATs needed urgently as indicated
//!   by the pin calls" — here folded into each request entry as the set
//!   of blocked pins.
//! * The local cache is what "the pin() request checks … for
//!   availability" (§4.2.1): fragments that passed while local queries
//!   held interest are kept in local memory, capacity permitting, so
//!   later pins need not wait another full rotation.

use crate::ids::{BatId, QueryId};
use netsim::SimTime;
use std::collections::{BTreeMap, HashMap, HashSet};

/// One outstanding request (S2 row) for a BAT.
#[derive(Clone, Debug, PartialEq)]
pub struct RequestEntry {
    /// Local queries registered on this BAT.
    pub queries: HashSet<QueryId>,
    /// Queries currently blocked in a pin() call (S3).
    pub pins_waiting: HashSet<QueryId>,
    /// Queries that have received the BAT at least once.
    pub pinned_once: HashSet<QueryId>,
    /// Our request message is currently traveling toward the owner. It
    /// stops being in flight when the BAT passes us (the request was
    /// satisfied). This is the paper's `request_is_sent` flag: a foreign
    /// request is only absorbed while ours is in flight; otherwise our
    /// own request is (re-)dispatched (Fig. 3 lines 22–26).
    pub in_flight: bool,
    /// Last dispatch time (resend bookkeeping).
    pub last_sent: SimTime,
    /// When the first local query registered interest.
    pub first_requested: SimTime,
    /// First time the BAT passed by after the request (latency metric).
    pub served_at: Option<SimTime>,
}

impl RequestEntry {
    fn new(now: SimTime) -> Self {
        RequestEntry {
            queries: HashSet::new(),
            pins_waiting: HashSet::new(),
            pinned_once: HashSet::new(),
            in_flight: false,
            last_sent: SimTime::ZERO,
            first_requested: now,
            served_at: None,
        }
    }

    /// Fig. 4 line 9: "check if it was pinned for all the associated
    /// queries" — the entry can be unregistered.
    pub fn pinned_all(&self) -> bool {
        self.pins_waiting.is_empty() && self.pinned_once.is_superset(&self.queries)
    }
}

/// S2: outstanding requests keyed by BAT. Ordered, so that whatever
/// walks it — a finished query's cleanup, the `resend` sweep — emits its
/// effects in ascending `BatId`, the same on every run and every node.
#[derive(Default)]
pub struct S2Requests {
    map: BTreeMap<BatId, RequestEntry>,
}

impl S2Requests {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a local query's interest; returns a mutable entry and
    /// whether it is new (needs a request dispatched).
    pub fn register(
        &mut self,
        bat: BatId,
        query: QueryId,
        now: SimTime,
    ) -> (&mut RequestEntry, bool) {
        let is_new = !self.map.contains_key(&bat);
        let e = self.map.entry(bat).or_insert_with(|| RequestEntry::new(now));
        e.queries.insert(query);
        (e, is_new)
    }

    pub fn get(&self, bat: BatId) -> Option<&RequestEntry> {
        self.map.get(&bat)
    }

    pub fn get_mut(&mut self, bat: BatId) -> Option<&mut RequestEntry> {
        self.map.get_mut(&bat)
    }

    pub fn remove(&mut self, bat: BatId) -> Option<RequestEntry> {
        self.map.remove(&bat)
    }

    pub fn contains(&self, bat: BatId) -> bool {
        self.map.contains_key(&bat)
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    pub fn iter_mut(&mut self) -> impl Iterator<Item = (BatId, &mut RequestEntry)> {
        self.map.iter_mut().map(|(&b, e)| (b, e))
    }

    /// Drop a query from every entry (query finished or failed); returns
    /// BATs whose entries became empty and were removed.
    pub fn drop_query(&mut self, query: QueryId) -> Vec<BatId> {
        let mut emptied = Vec::new();
        self.map.retain(|&bat, e| {
            e.queries.remove(&query);
            e.pins_waiting.remove(&query);
            e.pinned_once.remove(&query);
            if e.queries.is_empty() {
                emptied.push(bat);
                false
            } else {
                true
            }
        });
        emptied
    }
}

/// The local fragment cache the pin call consults.
#[derive(Default)]
pub struct LocalCache {
    slots: HashMap<BatId, CacheSlot>,
    pub bytes: u64,
    pub capacity: u64,
}

#[derive(Clone, Copy, Debug)]
pub struct CacheSlot {
    pub size: u64,
    /// Live pins against this cached fragment.
    pub active_pins: u32,
    /// Version cached (stale detection under §6.4 updates).
    pub version: u32,
}

impl LocalCache {
    pub fn new(capacity: u64) -> Self {
        LocalCache { slots: HashMap::new(), bytes: 0, capacity }
    }

    pub fn contains(&self, bat: BatId) -> bool {
        self.slots.contains_key(&bat)
    }

    pub fn get(&self, bat: BatId) -> Option<&CacheSlot> {
        self.slots.get(&bat)
    }

    /// Try to admit a passing fragment; false when memory does not permit
    /// ("the BAT will continue its journey and the queries waiting for it
    /// remain blocked for one more cycle").
    pub fn admit(&mut self, bat: BatId, size: u64, version: u32) -> bool {
        if self.slots.contains_key(&bat) {
            return true;
        }
        if self.bytes + size > self.capacity {
            return false;
        }
        self.slots.insert(bat, CacheSlot { size, active_pins: 0, version });
        self.bytes += size;
        true
    }

    /// A pin served from cache.
    pub fn pin(&mut self, bat: BatId) -> bool {
        self.slots.get_mut(&bat).map(|s| s.active_pins += 1).is_some()
    }

    /// Release one pin; returns true when the slot has no active pins
    /// left (candidate for eviction).
    pub fn unpin(&mut self, bat: BatId) -> bool {
        match self.slots.get_mut(&bat) {
            Some(s) => {
                s.active_pins = s.active_pins.saturating_sub(1);
                s.active_pins == 0
            }
            None => false,
        }
    }

    /// Evict if unpinned; returns freed bytes.
    pub fn evict_if_unpinned(&mut self, bat: BatId) -> u64 {
        if let Some(s) = self.slots.get(&bat) {
            if s.active_pins == 0 {
                let size = s.size;
                self.slots.remove(&bat);
                self.bytes -= size;
                return size;
            }
        }
        0
    }

    pub fn len(&self) -> usize {
        self.slots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_tracks_newness() {
        let mut s2 = S2Requests::new();
        let (_, fresh) = s2.register(BatId(1), QueryId(1), SimTime::ZERO);
        assert!(fresh);
        let (_, fresh) = s2.register(BatId(1), QueryId(2), SimTime::from_secs(1));
        assert!(!fresh, "second query joins the same entry");
        assert_eq!(s2.get(BatId(1)).unwrap().queries.len(), 2);
        assert_eq!(
            s2.get(BatId(1)).unwrap().first_requested,
            SimTime::ZERO,
            "first_requested unchanged"
        );
    }

    #[test]
    fn pinned_all_semantics() {
        let mut e = RequestEntry::new(SimTime::ZERO);
        e.queries.insert(QueryId(1));
        e.queries.insert(QueryId(2));
        assert!(!e.pinned_all(), "nobody pinned yet");
        e.pinned_once.insert(QueryId(1));
        assert!(!e.pinned_all());
        e.pinned_once.insert(QueryId(2));
        assert!(e.pinned_all());
        e.pins_waiting.insert(QueryId(1));
        assert!(!e.pinned_all(), "waiting pin blocks unregistration");
    }

    #[test]
    fn drop_query_cleans_entries() {
        let mut s2 = S2Requests::new();
        s2.register(BatId(1), QueryId(1), SimTime::ZERO);
        s2.register(BatId(2), QueryId(1), SimTime::ZERO);
        s2.register(BatId(2), QueryId(2), SimTime::ZERO);
        let emptied = s2.drop_query(QueryId(1));
        assert_eq!(emptied, vec![BatId(1)]);
        assert!(s2.contains(BatId(2)));
        assert_eq!(s2.len(), 1);
    }

    #[test]
    fn cache_capacity_enforced() {
        let mut c = LocalCache::new(100);
        assert!(c.admit(BatId(1), 60, 0));
        assert!(!c.admit(BatId(2), 60, 0), "over capacity");
        assert!(c.admit(BatId(3), 40, 0));
        assert_eq!(c.bytes, 100);
        assert!(c.admit(BatId(1), 60, 0), "re-admission of resident is a no-op");
        assert_eq!(c.bytes, 100);
    }

    #[test]
    fn cache_pin_lifecycle() {
        let mut c = LocalCache::new(100);
        c.admit(BatId(1), 50, 0);
        assert!(c.pin(BatId(1)));
        assert!(c.pin(BatId(1)));
        assert_eq!(c.get(BatId(1)).unwrap().active_pins, 2);
        assert!(!c.unpin(BatId(1)), "one pin still active");
        assert!(c.unpin(BatId(1)), "now unpinned");
        assert_eq!(c.evict_if_unpinned(BatId(1)), 50);
        assert_eq!(c.bytes, 0);
        assert!(!c.pin(BatId(1)), "gone");
    }

    #[test]
    fn eviction_refuses_pinned() {
        let mut c = LocalCache::new(100);
        c.admit(BatId(1), 50, 0);
        c.pin(BatId(1));
        assert_eq!(c.evict_if_unpinned(BatId(1)), 0);
        assert!(c.contains(BatId(1)));
    }
}
