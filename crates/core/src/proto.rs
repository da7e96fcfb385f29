//! The per-node Data Cyclotron protocol state machine.
//!
//! This module is the paper's §4.2–§4.4 rendered as a pure state machine:
//! handlers consume ring events and return [`Effect`]s for the driver
//! (discrete-event simulator or live engine) to execute. Keeping all I/O
//! out makes every outcome of the algorithms unit-testable and lets the
//! identical code run in both environments.
//!
//! * [`DcNode::on_request`] — the Request Propagation algorithm (Fig. 3),
//!   six outcomes.
//! * [`DcNode::on_bat`] — the BAT Propagation algorithm (Fig. 4) for
//!   foreign BATs, and Hot Data Set Management (Fig. 5, Eq. 1) when the
//!   BAT returns to its owner.
//! * [`DcNode::tick`] — `loadAll` (postponed loads, oldest first),
//!   `resend` (request-loss recovery), LOIT ladder adaptation from the
//!   local queue load, and owner-side lost-BAT detection.
//!
//! **Payloads follow requests.** On the paper's RDMA ring a hop costs
//! the CPU nothing, so every hot BAT travels whole through every node;
//! on a fabric where a payload hop is real work only the *header* has to
//! make every hop of every cycle (Eq. 1 reads nothing else). Whether a
//! frame also carries the fragment's bytes is decided here, by three
//! rules, and told to the driver in [`Effect::SendBat`]:
//!
//! 1. a header-only frame at a non-owner satisfies nothing — the S2 entry
//!    and the cache are left exactly as they were;
//! 2. a non-owner forwards the payload iff a request from another origin
//!    passed (or was absorbed) here since it last forwarded that payload
//!    — a request travels anti-clockwise through exactly the nodes that
//!    sit between the owner and the requester on the clockwise data path;
//! 3. the owner attaches its authoritative payload iff it was asked since
//!    the header last left (`interest_since_pass`), and whenever it loads
//!    the BAT; nobody else ever attaches one.
//!
//! A driver that reports a payload on every arriving frame and ships one
//! on every hop (the simulator: the paper's ring) sees the algorithms of
//! Figs. 3–5 unchanged.

use crate::catalog::{OwnedState, S1Catalog};
use crate::config::DcConfig;
use crate::ids::{BatId, NodeId, QueryId};
use crate::loi::{new_loi, LoitLadder, DEFAULT_HIGH_WATERMARK};
use crate::msg::{BatHeader, ReqMsg};
use crate::requests::{LocalCache, S2Requests};
use crate::stats::NodeStats;
use netsim::{SimDuration, SimTime};
use std::collections::HashMap;

/// Instructions to the driver. The protocol never performs I/O itself.
#[derive(Clone, Debug, PartialEq)]
pub enum Effect {
    /// Forward a BAT frame clockwise to the successor: always the header,
    /// and with it the fragment's bytes iff `payload` — the owner's
    /// authoritative copy at the owner, the arriving frame's anywhere
    /// else.
    SendBat { header: BatHeader, payload: bool },
    /// Send a request anti-clockwise to the predecessor.
    SendRequest(ReqMsg),
    /// Read an owned BAT from local disk; the driver calls
    /// [`DcNode::bat_loaded`] when the data is in memory.
    LoadFromDisk { bat: BatId, size: u64 },
    /// Owner decision: pull the BAT out of the hot set (Fig. 5).
    Unload(BatId),
    /// Hand the BAT to the listed local queries blocked in pin calls.
    Deliver { header: BatHeader, queries: Vec<QueryId> },
    /// Keep the passing fragment in the local cache (engine stores the
    /// payload; the simulator only accounts for it).
    CacheInsert(BatId),
    /// Drop the cached fragment.
    CacheEvict(BatId),
    /// Outcome 1 of Fig. 3: the request circled back — the BAT does not
    /// exist; the listed queries must raise an exception.
    QueryError { bat: BatId, queries: Vec<QueryId> },
}

/// The cycle count Eq. 1 ages an owner-local pin's score by: the score
/// before the pin counts half, so a fragment pinned again and again
/// approaches 2 and one left alone keeps what it had.
const LOCAL_PIN_CYCLES: u32 = 2;

/// Result of a pin attempt (§4.2.1: "The pin() request checks the local
/// cache for availability. If it not available, query execution blocks").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PinOutcome {
    /// The BAT is owned locally: retrieve from disk or local memory.
    OwnedLocal,
    /// Served from the local fragment cache.
    Cached,
    /// Blocked until the BAT arrives from the predecessor.
    MustWait,
}

pub struct DcNode {
    pub id: NodeId,
    pub cfg: DcConfig,
    pub s1: S1Catalog,
    pub s2: S2Requests,
    pub cache: LocalCache,
    pub ladder: LoitLadder,
    pub stats: NodeStats,
    /// Maximum observed request latency per BAT at this requester
    /// (Fig. 10 aggregates the per-ring max).
    pub max_request_latency: HashMap<BatId, SimDuration>,
    now: SimTime,
    last_load_all: SimTime,
    /// BATs somebody downstream asked for — a request from another origin
    /// was forwarded or absorbed here — since this node last forwarded
    /// their payload, with the time of the latest such request.
    asked_downstream: HashMap<BatId, SimTime>,
}

impl DcNode {
    /// A node counting into `obs` (see [`NodeStats`]).
    pub fn new(id: NodeId, cfg: DcConfig, obs: &dc_obs::Registry) -> Self {
        cfg.validate().expect("invalid DcConfig");
        let ladder = LoitLadder::new(cfg.loit_levels.clone());
        let cache = LocalCache::new(cfg.cache_capacity);
        DcNode {
            id,
            cfg,
            s1: S1Catalog::new(),
            s2: S2Requests::new(),
            cache,
            ladder,
            stats: NodeStats::register(obs),
            max_request_latency: HashMap::new(),
            now: SimTime::ZERO,
            last_load_all: SimTime::ZERO,
            asked_downstream: HashMap::new(),
        }
    }

    // ---- driver synchronization ----------------------------------------

    pub fn set_time(&mut self, now: SimTime) {
        self.now = now;
    }

    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The "local BAT queue load" of §4.4: this owner's bytes currently
    /// occupying the storage ring, as a fraction of its buffer capacity.
    fn queue_load_fraction(&self) -> f64 {
        self.s1.hot_bytes() as f64 / self.cfg.queue_capacity as f64
    }

    /// Register ownership of a disk-resident BAT (startup data placement:
    /// "the BATs are randomly assigned to nodes in the ring where the
    /// local DC data loader becomes their owner").
    pub fn register_owned(&mut self, bat: BatId, size: u64) {
        self.s1.register(bat, size);
    }

    pub fn loit(&self) -> f64 {
        self.ladder.current()
    }

    // ---- DBMS-facing calls (the request/pin/unpin seam, §4.1) ----------

    /// A local query announces interest in a BAT.
    pub fn local_request(&mut self, query: QueryId, bat: BatId) -> Vec<Effect> {
        if self.s1.is_owner(bat) {
            // "If the BAT is owned by the local DC data loader, it is
            // retrieved from disk or local memory" — no ring traffic.
            return Vec::new();
        }
        let now = self.now;
        let id = self.id;
        let (entry, _fresh) = self.s2.register(bat, query, now);
        if !entry.in_flight {
            entry.in_flight = true;
            entry.last_sent = now;
            self.stats.requests_dispatched.inc();
            return vec![Effect::SendRequest(ReqMsg { origin: id, bat })];
        }
        Vec::new()
    }

    /// A local query reaches its pin call for a requested BAT. Returns
    /// the outcome plus any effects (a pin on a fragment whose request
    /// was already served re-dispatches a fresh request — the fragment
    /// must come around again).
    pub fn pin(&mut self, query: QueryId, bat: BatId) -> (PinOutcome, Vec<Effect>) {
        if let Some(owned) = self.s1.get_mut(bat) {
            // A statement run here is interest too: Eq. 1 scores the pin
            // as an owner pass would score a cycle of one hop on which one
            // node (this one) used the fragment, so the hot set keeps
            // what owner-local statements read.
            owned.last_loi = new_loi(owned.last_loi, 1, 1, LOCAL_PIN_CYCLES);
            return (PinOutcome::OwnedLocal, Vec::new());
        }
        if self.cache.pin(bat) {
            if let Some(e) = self.s2.get_mut(bat) {
                e.pinned_once.insert(query);
            }
            return (PinOutcome::Cached, Vec::new());
        }
        // Block until the fragment passes; defensively register interest
        // if the plan pinned without a preceding request.
        let now = self.now;
        let id = self.id;
        let (entry, _) = self.s2.register(bat, query, now);
        entry.pins_waiting.insert(query);
        let mut effects = Vec::new();
        if !entry.in_flight {
            entry.in_flight = true;
            entry.last_sent = now;
            self.stats.requests_dispatched.inc();
            effects.push(Effect::SendRequest(ReqMsg { origin: id, bat }));
        }
        (PinOutcome::MustWait, effects)
    }

    /// A local query releases a fragment.
    pub fn unpin(&mut self, _query: QueryId, bat: BatId) -> Vec<Effect> {
        if self.s1.is_owner(bat) {
            return Vec::new();
        }
        let mut effects = Vec::new();
        if self.cache.unpin(bat) && !self.s2.contains(bat) && self.cache.evict_if_unpinned(bat) > 0
        {
            effects.push(Effect::CacheEvict(bat));
        }
        effects
    }

    /// A query finished or aborted: drop its interest everywhere.
    pub fn query_done(&mut self, query: QueryId) -> Vec<Effect> {
        let emptied = self.s2.drop_query(query);
        let mut effects = Vec::new();
        for bat in emptied {
            if self.cache.evict_if_unpinned(bat) > 0 {
                effects.push(Effect::CacheEvict(bat));
            }
        }
        effects
    }

    // ---- ring-facing handlers ------------------------------------------

    /// The Request Propagation algorithm (Fig. 3).
    pub fn on_request(&mut self, req: ReqMsg) -> Vec<Effect> {
        let bat = req.bat;

        // Outcome 1: the request returned to its origin — the BAT does
        // not exist (anymore) in the database.
        if req.origin == self.id {
            self.stats.requests_returned.inc();
            if let Some(entry) = self.s2.remove(bat) {
                self.stats.query_errors.add(entry.queries.len() as u64);
                let mut queries: Vec<QueryId> = entry.queries.into_iter().collect();
                queries.sort_unstable();
                return vec![Effect::QueryError { bat, queries }];
            }
            return Vec::new();
        }

        // Outcomes 2–4: we own the BAT.
        if self.s1.is_owner(bat) {
            self.stats.requests_owner_handled.inc();
            let now = self.now;
            let fits = self.queue_fits(self.s1.get(bat).map(|b| b.size).unwrap_or(0));
            let owned = self.s1.get_mut(bat).expect("is_owner checked");
            owned.requests_seen += 1;
            return match owned.state {
                // Outcome 2: already (re-)loaded into the hot set. The
                // request is ignored — the circulating BAT will pass the
                // requester — but it is *live interest*: remember it so
                // hot-set management does not unload the BAT out from
                // under a requester it has not reached yet.
                OwnedState::InRing { .. } | OwnedState::Loading => {
                    owned.interest_since_pass += 1;
                    Vec::new()
                }
                // Outcome 3 (second visit): already pending.
                OwnedState::Pending { .. } => Vec::new(),
                OwnedState::OnDisk => {
                    if fits {
                        // Outcome 4: load it into the storage ring.
                        let size = owned.size;
                        owned.state = OwnedState::Loading;
                        vec![Effect::LoadFromDisk { bat, size }]
                    } else {
                        // Outcome 3: storage ring full — postpone.
                        owned.state = OwnedState::Pending { since: now };
                        Vec::new()
                    }
                }
            };
        }

        // Outcomes 5 and 6: the requester sits downstream of us on the
        // data path, so the payload this request summons must pass
        // through here with its bytes.
        self.asked_downstream.insert(bat, self.now);

        // Outcome 5: we have the same request outstanding — absorb.
        // Absorption is only safe while our own request is *freshly* in
        // flight toward the owner (the paper's `request_is_sent` check):
        // if ours was already satisfied by a past pass — or went out so
        // long ago that it (or the BAT it summoned) must be presumed
        // lost — the foreign request signals live downstream interest
        // and our own request takes over. Without the freshness bound, a
        // node whose BAT died upstream would absorb its neighbors'
        // retries forever and starve the whole segment.
        if self.s2.contains(bat) {
            let id = self.id;
            let now = self.now;
            let fresh_window = self.cfg.resend_timeout;
            let entry = self.s2.get_mut(bat).expect("contains checked");
            self.stats.requests_absorbed.inc();
            let covered = entry.in_flight && now.since(entry.last_sent) <= fresh_window;
            if !covered {
                entry.in_flight = true;
                entry.last_sent = now;
                self.stats.requests_dispatched.inc();
                return vec![Effect::SendRequest(ReqMsg { origin: id, bat })];
            }
            return Vec::new();
        }

        // Outcome 6: forward toward the owner.
        self.stats.requests_forwarded.inc();
        vec![Effect::SendRequest(req)]
    }

    /// BAT Propagation (Fig. 4) and, at the owner, Hot Data Set
    /// Management (Fig. 5). `payload` says whether the arriving frame
    /// carries the fragment's bytes.
    pub fn on_bat(&mut self, mut h: BatHeader, payload: bool) -> Vec<Effect> {
        h.hops += 1;

        if h.owner == self.id {
            return self.hot_set_management(h, payload);
        }

        let mut effects = Vec::new();
        // A header travelling alone satisfies nothing: in particular our
        // request stays in flight (clearing that would make `tick`
        // re-send at once) until the bytes it asked for arrive.
        if payload && self.s2.contains(h.bat) {
            let now = self.now;
            let entry = self.s2.get_mut(h.bat).expect("contains checked");
            // The pass satisfies our outstanding request: its bytes came
            // off the wire for us, pin waiting or not.
            if entry.in_flight {
                self.stats.ring_query_bytes_moved.add(h.size);
            }
            entry.in_flight = false;
            // Record first-service latency.
            if entry.served_at.is_none() {
                entry.served_at = Some(now);
                let lat = now.since(entry.first_requested);
                let max = self.max_request_latency.entry(h.bat).or_default();
                *max = (*max).max(lat);
                self.stats.latency_count.inc();
            }
            // Local cache admission ("the pin() request checks the local
            // cache"): keep the fragment if memory permits.
            let newly_cached =
                !self.cache.contains(h.bat) && self.cache.admit(h.bat, h.size, h.version);
            if newly_cached {
                effects.push(Effect::CacheInsert(h.bat));
            }
            // Serve every blocked pin; "copies designates how many nodes
            // actually used it" — one increment per node, not per query.
            let entry = self.s2.get_mut(h.bat).expect("still present");
            let mut waiting: Vec<QueryId> = entry.pins_waiting.drain().collect();
            waiting.sort_unstable();
            if !waiting.is_empty() {
                h.copies += 1;
                self.stats.deliveries.add(waiting.len() as u64);
                for q in &waiting {
                    entry.pinned_once.insert(*q);
                    if self.cache.contains(h.bat) {
                        self.cache.pin(h.bat);
                    }
                }
                effects.push(Effect::Deliver { header: h, queries: waiting });
            }
            // Fig. 4 lines 9–10: unregister once pinned by all queries.
            let entry = self.s2.get_mut(h.bat).expect("still present");
            if entry.pinned_all() {
                self.s2.remove(h.bat);
                if self.cache.evict_if_unpinned(h.bat) > 0 {
                    effects.push(Effect::CacheEvict(h.bat));
                }
            }
        }
        // The bytes travel on only toward somebody who asked; the mark
        // is spent by the payload it summoned.
        let payload = payload && self.asked_downstream.remove(&h.bat).is_some();
        effects.push(self.forward(h, payload));
        effects
    }

    fn forward(&mut self, header: BatHeader, payload: bool) -> Effect {
        self.stats.bats_forwarded.inc();
        if payload {
            self.stats.bytes_forwarded.add(header.size);
        }
        Effect::SendBat { header, payload }
    }

    /// Fig. 5: the owner re-scores the BAT each cycle and drops it below
    /// the threshold.
    fn hot_set_management(&mut self, mut h: BatHeader, payload: bool) -> Vec<Effect> {
        let now = self.now;
        let loit = self.ladder.current();
        let overloaded = self.queue_load_fraction() >= DEFAULT_HIGH_WATERMARK;
        let Some(owned) = self.s1.get_mut(h.bat) else {
            // A BAT claiming us as owner that we do not know: ownership
            // moved (pulsating rings) — forward the frame as it came.
            return vec![self.forward(h, payload)];
        };
        owned.touches += h.copies as u64;
        h.cycles += 1;
        owned.max_cycles = owned.max_cycles.max(h.cycles);
        let nl = new_loi(h.loi, h.copies, h.hops, h.cycles);
        owned.last_loi = nl;
        // Requests that reached us mid-cycle (outcome 2) were ignored on
        // the promise that the circulating BAT would serve them. That
        // promise is kept twice over. The next cycle carries the payload
        // (only for them: unasked, the header goes round alone). And the
        // owner holds the BAT one more cycle, which Fig. 5 does not:
        // unloading now would strand those requesters until their resend
        // timers fire, then force the disk reload anyway. Under capacity
        // pressure Fig. 5's eviction wins (the requester is rescued by
        // resend, the paper's §4.2.3 recovery path).
        let asked = owned.interest_since_pass > 0;
        let hold = asked && !overloaded;
        owned.interest_since_pass = 0;
        if nl < loit && !hold {
            owned.state = OwnedState::OnDisk;
            self.stats.bats_unloaded.inc();
            return vec![Effect::Unload(h.bat)];
        }
        if nl < loit {
            self.stats.demand_holds.inc();
        }
        h.loi = nl;
        h.copies = 0;
        h.hops = 0;
        // Refresh the administrative view: appends at the owner may have
        // grown the fragment and bumped its version (§6.4) while this
        // copy circulated; the next cycle advertises the current state
        // (and what the driver attaches is the owner's current payload).
        h.size = owned.size;
        h.version = owned.version;
        owned.state = OwnedState::InRing { last_seen: now };
        vec![self.forward(h, asked)]
    }

    /// Driver callback: a `LoadFromDisk` completed; the BAT enters the
    /// storage ring at its owner, payload attached — a load is always
    /// the answer to a request.
    pub fn bat_loaded(&mut self, bat: BatId) -> Vec<Effect> {
        let now = self.now;
        let id = self.id;
        let Some(owned) = self.s1.get_mut(bat) else {
            return Vec::new();
        };
        owned.state = OwnedState::InRing { last_seen: now };
        owned.loads += 1;
        let mut header = BatHeader::fresh(id, bat, owned.size);
        header.version = owned.version;
        self.stats.bats_loaded.inc();
        vec![Effect::SendBat { header, payload: true }]
    }

    fn queue_fits(&self, size: u64) -> bool {
        self.s1.hot_bytes() + size <= self.cfg.queue_capacity
    }

    /// Periodic maintenance: LOIT adaptation, `loadAll`, `resend`, and
    /// lost-BAT detection. Call every `cfg.load_interval` (the `loadAll`
    /// period) or more often.
    pub fn tick(&mut self) -> Vec<Effect> {
        let mut effects = Vec::new();
        let now = self.now;

        // LOIT ladder from the local queue load (§5.2: above 80% raise a
        // level, below 40% lower a level).
        let load = self.queue_load_fraction();
        if self.ladder.adapt(load).is_some() {
            self.stats.loit_transitions.inc();
        }

        // loadAll: every T, start the oldest pending loads that fit; a
        // BAT that does not fit is skipped in favor of the next.
        if now.since(self.last_load_all) >= self.cfg.load_interval {
            self.last_load_all = now;
            let mut budget = self.cfg.queue_capacity.saturating_sub(self.s1.hot_bytes());
            for (bat, size) in self.s1.pending_oldest_first() {
                if size <= budget {
                    budget -= size;
                    self.s1.set_state(bat, OwnedState::Loading);
                    effects.push(Effect::LoadFromDisk { bat, size });
                }
            }
        }

        // resend: requests with starving interest past the rotational-
        // delay timeout indicate a loss (of the request or of the BAT);
        // interest with no request in flight at all re-dispatches at once.
        let id = self.id;
        let timeout = self.cfg.resend_timeout;
        let mut resent = 0;
        for (bat, entry) in self.s2.iter_mut() {
            let starving = entry.served_at.is_none() || !entry.pins_waiting.is_empty();
            if !starving {
                continue;
            }
            let timed_out = entry.in_flight && now.since(entry.last_sent) > timeout;
            if timed_out || !entry.in_flight {
                entry.in_flight = true;
                entry.last_sent = now;
                resent += 1;
                effects.push(Effect::SendRequest(ReqMsg { origin: id, bat }));
            }
        }
        self.stats.requests_resent.add(resent);

        // Owner-side lost-BAT detection: an in-ring BAT that has not come
        // around for too long reverts to disk so re-requests can reload.
        let lost_after = self.cfg.lost_after;
        for bat in self.s1.lost_bats(now, lost_after) {
            self.s1.set_state(bat, OwnedState::OnDisk);
            self.stats.bats_lost.inc();
        }

        // A "somebody downstream asked" mark the payload never came for
        // is dropped on the same clock. No waiting requester loses by it:
        // it has re-sent — and re-marked its whole path — every
        // `resend_timeout`, of which `lost_after` holds several. What
        // expires is what stale or forged requests left behind.
        self.asked_downstream.retain(|_, asked_at| now.since(*asked_at) <= lost_after);

        effects
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(id: u16) -> DcNode {
        node_in(id, &dc_obs::Registry::new(id))
    }

    fn node_in(id: u16, obs: &dc_obs::Registry) -> DcNode {
        let cfg = DcConfig {
            queue_capacity: 1000,
            load_interval: SimDuration::from_millis(10),
            resend_timeout: SimDuration::from_millis(500),
            lost_after: SimDuration::from_secs(2),
            ..DcConfig::default()
        };
        DcNode::new(NodeId(id), cfg, obs)
    }

    fn at(node: &mut DcNode, ms: u64) {
        node.set_time(SimTime::from_millis(ms));
    }

    // ---- Fig. 3 outcomes -----------------------------------------------

    #[test]
    fn outcome1_request_returns_to_origin() {
        let mut n = node(0);
        let eff = n.local_request(QueryId(7), BatId(42));
        assert_eq!(eff.len(), 1, "fresh request dispatched");
        let eff = n.on_request(ReqMsg { origin: NodeId(0), bat: BatId(42) });
        assert_eq!(eff, vec![Effect::QueryError { bat: BatId(42), queries: vec![QueryId(7)] }]);
        assert!(!n.s2.contains(BatId(42)), "entry unregistered");
        assert_eq!(n.stats.query_errors.get(), 1);
    }

    #[test]
    fn outcome2_owner_already_loaded_ignores() {
        let mut n = node(1);
        n.register_owned(BatId(5), 100);
        n.s1.set_state(BatId(5), OwnedState::InRing { last_seen: SimTime::ZERO });
        let eff = n.on_request(ReqMsg { origin: NodeId(3), bat: BatId(5) });
        assert!(eff.is_empty());
        assert_eq!(n.stats.requests_owner_handled.get(), 1);
    }

    #[test]
    fn outcome3_ring_full_postpones() {
        let mut n = node(1);
        n.register_owned(BatId(5), 600);
        // Another owned BAT already occupies most of our ring share.
        n.register_owned(BatId(6), 900);
        n.s1.set_state(BatId(6), OwnedState::InRing { last_seen: SimTime::ZERO });
        at(&mut n, 50);
        let eff = n.on_request(ReqMsg { origin: NodeId(3), bat: BatId(5) });
        assert!(eff.is_empty());
        assert_eq!(
            n.s1.state(BatId(5)),
            Some(OwnedState::Pending { since: SimTime::from_millis(50) })
        );
        // A second request while pending is also absorbed.
        let eff = n.on_request(ReqMsg { origin: NodeId(4), bat: BatId(5) });
        assert!(eff.is_empty());
    }

    #[test]
    fn outcome4_loads_when_ring_has_space() {
        let mut n = node(1);
        n.register_owned(BatId(5), 100);
        let eff = n.on_request(ReqMsg { origin: NodeId(3), bat: BatId(5) });
        assert_eq!(eff, vec![Effect::LoadFromDisk { bat: BatId(5), size: 100 }]);
        assert_eq!(n.s1.state(BatId(5)), Some(OwnedState::Loading));
        // While loading, further requests are ignored (no double load).
        assert!(n.on_request(ReqMsg { origin: NodeId(4), bat: BatId(5) }).is_empty());
        // Load completes: the BAT enters the ring.
        let eff = n.bat_loaded(BatId(5));
        match &eff[..] {
            [Effect::SendBat { header: h, payload: true }] => {
                assert_eq!(h.owner, NodeId(1));
                assert_eq!(h.loi, 0.0);
                assert_eq!(h.cycles, 0);
            }
            other => panic!("unexpected effects {other:?}"),
        }
        assert_eq!(n.s1.get(BatId(5)).unwrap().loads, 1);
    }

    #[test]
    fn outcome5_same_request_absorbed() {
        let mut n = node(2);
        n.local_request(QueryId(1), BatId(9));
        let eff = n.on_request(ReqMsg { origin: NodeId(7), bat: BatId(9) });
        assert!(eff.is_empty(), "absorbed, not forwarded");
        assert_eq!(n.stats.requests_absorbed.get(), 1);
    }

    #[test]
    fn outcome6_forwarded_unchanged() {
        let mut n = node(2);
        let req = ReqMsg { origin: NodeId(7), bat: BatId(9) };
        let eff = n.on_request(req);
        assert_eq!(eff, vec![Effect::SendRequest(req)], "origin preserved");
        assert_eq!(n.stats.requests_forwarded.get(), 1);
    }

    // ---- Fig. 4: BAT propagation ----------------------------------------

    #[test]
    fn passing_bat_serves_waiting_pins_and_counts_one_copy() {
        let mut n = node(2);
        at(&mut n, 10);
        n.local_request(QueryId(1), BatId(9));
        n.local_request(QueryId(2), BatId(9));
        assert_eq!(n.pin(QueryId(1), BatId(9)).0, PinOutcome::MustWait);
        assert_eq!(n.pin(QueryId(2), BatId(9)).0, PinOutcome::MustWait);
        at(&mut n, 250);
        let h = BatHeader::fresh(NodeId(0), BatId(9), 100);
        let eff = n.on_bat(h, true);
        let deliver = eff
            .iter()
            .find_map(|e| match e {
                Effect::Deliver { header, queries } => Some((header, queries.clone())),
                _ => None,
            })
            .expect("must deliver");
        assert_eq!(deliver.1, vec![QueryId(1), QueryId(2)]);
        assert_eq!(deliver.0.copies, 1, "one copy per node, not per query");
        assert_eq!(deliver.0.hops, 1);
        // Forwarded with the same counters.
        let fwd = eff
            .iter()
            .find_map(|e| match e {
                Effect::SendBat { header, .. } => Some(*header),
                _ => None,
            })
            .expect("must forward");
        assert_eq!(fwd.copies, 1);
        // Latency recorded: 240 ms.
        assert_eq!(n.max_request_latency[&BatId(9)], SimDuration::from_millis(240));
        // All queries pinned → entry unregistered.
        assert!(!n.s2.contains(BatId(9)));
    }

    #[test]
    fn request_latency_keeps_each_bats_maximum() {
        let mut n = node(2);
        let frame = |bat| BatHeader::fresh(NodeId(0), BatId(bat), 100);
        let served = |n: &mut DcNode, q, bat, asked, answered| {
            at(n, asked);
            n.local_request(QueryId(q), BatId(bat));
            at(n, answered);
            n.on_bat(frame(bat), true);
            n.query_done(QueryId(q));
        };
        served(&mut n, 1, 9, 10, 250);
        // A later, shorter wait for the same BAT leaves its maximum.
        served(&mut n, 2, 9, 300, 400);
        // Another BAT's wait is its own, longer or not.
        served(&mut n, 3, 4, 400, 1000);
        let want =
            [(BatId(9), 240), (BatId(4), 600)].map(|(b, ms)| (b, SimDuration::from_millis(ms)));
        assert_eq!(n.max_request_latency, HashMap::from(want));
        assert_eq!(n.stats.latency_count.get(), 3, "every first service is a sample");
    }

    #[test]
    fn passing_bat_without_interest_only_forwards() {
        let mut n = node(2);
        let h = BatHeader::fresh(NodeId(0), BatId(9), 100);
        let eff = n.on_bat(h, true);
        assert_eq!(eff.len(), 1);
        assert!(
            matches!(eff[0], Effect::SendBat { header: h2, .. } if h2.hops == 1 && h2.copies == 0)
        );
    }

    #[test]
    fn registered_but_unpinned_query_keeps_entry_and_caches() {
        let mut n = node(2);
        n.local_request(QueryId(1), BatId(9));
        // No pin yet (plan still upstream); the BAT passes.
        let eff = n.on_bat(BatHeader::fresh(NodeId(0), BatId(9), 100), true);
        assert!(
            eff.iter().any(|e| matches!(e, Effect::CacheInsert(b) if *b == BatId(9))),
            "fragment cached for the future pin: {eff:?}"
        );
        assert!(n.s2.contains(BatId(9)), "entry stays until the query pins");
        // The later pin is served from cache.
        assert_eq!(n.pin(QueryId(1), BatId(9)).0, PinOutcome::Cached);
        // Release: unpin + query completion evicts.
        let eff = n.unpin(QueryId(1), BatId(9));
        assert!(eff.is_empty(), "entry still registered");
        let eff = n.query_done(QueryId(1));
        assert!(eff.iter().any(|e| matches!(e, Effect::CacheEvict(_))));
    }

    #[test]
    fn bytes_moved_counts_each_payload_a_local_request_took_off_the_wire_once() {
        let mut n = node(2);
        let frame = |bat| BatHeader::fresh(NodeId(0), BatId(bat), 100);
        // The payload beats the pin: cached, and the pin is served from
        // the cache — the bytes still came off the wire, once.
        n.local_request(QueryId(1), BatId(9));
        n.local_request(QueryId(2), BatId(9));
        n.on_bat(frame(9), true);
        assert_eq!(n.pin(QueryId(1), BatId(9)).0, PinOutcome::Cached);
        assert_eq!(n.stats.ring_query_bytes_moved.get(), 100);
        // The same bytes passing again, for somebody downstream, while
        // query 2 has yet to pin: its request was already answered.
        n.on_bat(frame(9), true);
        assert_eq!(n.pin(QueryId(2), BatId(9)).0, PinOutcome::Cached);
        assert_eq!(n.stats.ring_query_bytes_moved.get(), 100);
        // A waiting pin counts the same; a header alone, or a frame
        // nobody here asked for, moves nothing.
        n.local_request(QueryId(3), BatId(4));
        assert_eq!(n.pin(QueryId(3), BatId(4)).0, PinOutcome::MustWait);
        n.on_bat(frame(4), false);
        n.on_bat(frame(5), true);
        assert_eq!(n.stats.ring_query_bytes_moved.get(), 100);
        n.on_bat(frame(4), true);
        assert_eq!(n.stats.ring_query_bytes_moved.get(), 200);
    }

    // ---- payloads follow requests ----------------------------------------

    fn sent(eff: &[Effect]) -> (BatHeader, bool) {
        match eff.last() {
            Some(Effect::SendBat { header, payload }) => (*header, *payload),
            other => panic!("the frame must be forwarded last: {other:?}"),
        }
    }

    #[test]
    fn header_only_frame_satisfies_nothing() {
        let mut n = node(2);
        at(&mut n, 10);
        n.local_request(QueryId(1), BatId(9));
        assert_eq!(n.pin(QueryId(1), BatId(9)).0, PinOutcome::MustWait);
        let before = n.s2.get(BatId(9)).cloned();
        at(&mut n, 250);
        let eff = n.on_bat(BatHeader::fresh(NodeId(0), BatId(9), 100), false);
        let (h, payload) = sent(&eff);
        assert_eq!(eff.len(), 1, "no Deliver, no CacheInsert: {eff:?}");
        assert!(!payload, "nobody here can attach one");
        assert_eq!((h.hops, h.copies), (1, 0), "the header aged a hop and was used by nobody");
        assert_eq!(n.s2.get(BatId(9)).cloned(), before, "S2 entry bit for bit");
        assert!(!n.cache.contains(BatId(9)));
        assert_eq!((n.stats.deliveries.get(), n.stats.latency_count.get()), (0, 0));
        assert_eq!((n.stats.bats_forwarded.get(), n.stats.bytes_forwarded.get()), (1, 0));
        // Still in flight and fresh: no re-send on the next tick.
        assert!(n.tick().is_empty());
        assert_eq!(n.stats.requests_resent.get(), 0);
    }

    #[test]
    fn foreign_requests_mark_and_own_requests_do_not() {
        let foreign = ReqMsg { origin: NodeId(7), bat: BatId(9) };
        // Outcome 6: forwarded.
        let mut n = node(2);
        n.on_request(foreign);
        assert!(n.asked_downstream.contains_key(&BatId(9)));
        // Outcome 5, covered: absorbed behind our own fresh request.
        let mut n = node(2);
        n.local_request(QueryId(1), BatId(9));
        let _ = n.pin(QueryId(1), BatId(9));
        assert!(n.asked_downstream.is_empty(), "our own request and pin mark nothing");
        assert!(n.on_request(foreign).is_empty());
        assert!(n.asked_downstream.contains_key(&BatId(9)));
        // Outcome 5, take-over: ours was served, theirs re-dispatches it.
        let mut n = node(2);
        n.local_request(QueryId(1), BatId(9));
        n.on_bat(BatHeader::fresh(NodeId(0), BatId(9), 100), true);
        assert!(n.asked_downstream.is_empty());
        let own = ReqMsg { origin: NodeId(2), bat: BatId(9) };
        assert_eq!(n.on_request(foreign), vec![Effect::SendRequest(own)]);
        assert!(n.asked_downstream.contains_key(&BatId(9)));
        // Outcome 1 (our own request came home) and the owner's outcomes
        // 2–4 mark nothing: the owner keeps `interest_since_pass`.
        let mut n = node(2);
        n.local_request(QueryId(1), BatId(9));
        n.on_request(own);
        n.register_owned(BatId(5), 100);
        n.on_request(ReqMsg { origin: NodeId(7), bat: BatId(5) });
        n.on_request(ReqMsg { origin: NodeId(7), bat: BatId(5) });
        assert!(n.asked_downstream.is_empty());
    }

    #[test]
    fn payload_is_forwarded_once_per_mark() {
        let mut n = node(2);
        let h = BatHeader::fresh(NodeId(0), BatId(9), 100);
        assert!(!sent(&n.on_bat(h, true)).1, "nobody downstream asked: the bytes stop here");
        n.on_request(ReqMsg { origin: NodeId(7), bat: BatId(9) });
        assert!(!sent(&n.on_bat(h, false)).1, "a header cannot spend the mark");
        assert!(sent(&n.on_bat(h, true)).1, "the payload the request summoned goes on");
        assert!(!sent(&n.on_bat(h, true)).1, "and spent the mark");
        assert_eq!((n.stats.bats_forwarded.get(), n.stats.bytes_forwarded.get()), (4, 100));
        // A local reader does not make the node forward the bytes either.
        n.local_request(QueryId(1), BatId(9));
        let eff = n.on_bat(h, true);
        assert!(eff.contains(&Effect::CacheInsert(BatId(9))), "{eff:?}");
        assert!(!sent(&eff).1);
    }

    #[test]
    fn owner_attaches_payload_only_when_asked_since_the_last_pass() {
        let mut n = node(0);
        n.register_owned(BatId(3), 100);
        n.s1.set_state(BatId(3), OwnedState::InRing { last_seen: SimTime::ZERO });
        let hot = BatHeader { copies: 8, hops: 8, ..BatHeader::fresh(NodeId(0), BatId(3), 100) };
        // What the arriving frame carried does not matter to the owner.
        for arrived_with in [true, false] {
            assert!(!sent(&n.on_bat(hot, arrived_with)).1, "unasked: the header goes on alone");
        }
        assert_eq!(n.stats.bytes_forwarded.get(), 0);
        // Outcome 2 is remembered until the header next leaves.
        assert!(n.on_request(ReqMsg { origin: NodeId(4), bat: BatId(3) }).is_empty());
        assert!(sent(&n.on_bat(hot, false)).1, "asked since the last pass");
        assert!(!sent(&n.on_bat(hot, false)).1, "one request, one payload pass");
        assert_eq!((n.stats.bats_forwarded.get(), n.stats.bytes_forwarded.get()), (4, 100));
    }

    #[test]
    fn marks_expire_after_lost_after() {
        let mut n = node(2);
        let req = ReqMsg { origin: NodeId(7), bat: BatId(9) };
        n.on_request(req);
        at(&mut n, 1_500);
        n.on_request(ReqMsg { bat: BatId(8), ..req });
        at(&mut n, 2_000);
        n.tick();
        assert_eq!(n.asked_downstream.len(), 2, "lost_after (2 s) not exceeded yet");
        at(&mut n, 2_001);
        n.tick();
        assert!(!n.asked_downstream.contains_key(&BatId(9)), "stale mark dropped");
        assert!(n.asked_downstream.contains_key(&BatId(8)), "younger one kept");
        assert!(!sent(&n.on_bat(BatHeader::fresh(NodeId(0), BatId(9), 100), true)).1);
        // A requester still waiting re-sends, which re-marks.
        n.on_request(req);
        at(&mut n, 4_000);
        n.tick();
        assert!(sent(&n.on_bat(BatHeader::fresh(NodeId(0), BatId(9), 100), true)).1);
    }

    proptest::proptest! {
        /// The simulator's statement. A driver that reports a payload on
        /// every arriving frame and ignores the flag sees Figs. 3–5 as
        /// they were before the rule: the marks are all the state it
        /// added, and scrambling them between calls moves the flag (and
        /// `bytes_forwarded`, which counts flagged hops) and nothing else.
        #[test]
        fn fed_a_payload_on_every_frame_only_the_flag_depends_on_the_marks(
            ops in proptest::collection::vec((0u8..6, 0u8..4, 0u8..3), 1..80),
        ) {
            let (ra, rb) = (dc_obs::Registry::new(2), dc_obs::Registry::new(2));
            let (mut a, mut b) = (node_in(2, &ra), node_in(2, &rb));
            a.register_owned(BatId(5), 100);
            b.register_owned(BatId(5), 100);
            for (step, &(op, x, y)) in ops.iter().enumerate() {
                // Bat 5 is ours, 6 and 7 are node 0's; node ids 0..4
                // include our own.
                let (bat, query) = (BatId(5 + y as u32), QueryId(x as u64));
                let owner = if y == 0 { NodeId(2) } else { NodeId(0) };
                let header =
                    BatHeader { copies: x as u32, hops: 3, ..BatHeader::fresh(owner, bat, 100) };
                let call = |n: &mut DcNode| {
                    at(n, step as u64 * 40);
                    let mut eff = match op {
                        0 => n.local_request(query, bat),
                        1 => n.pin(query, bat).1,
                        2 => n.on_request(ReqMsg { origin: NodeId(x as u16), bat }),
                        3 => n.on_bat(header, true),
                        4 => [n.unpin(query, bat), n.query_done(query)].concat(),
                        _ => n.tick(),
                    };
                    if let Some(Effect::LoadFromDisk { bat, .. }) = eff.first().cloned() {
                        eff.extend(n.bat_loaded(bat));
                    }
                    for e in &mut eff {
                        if let Effect::SendBat { payload, .. } = e {
                            *payload = true;
                        }
                    }
                    eff
                };
                proptest::prop_assert_eq!(call(&mut a), call(&mut b), "step {}", step);
                if x % 2 == 0 {
                    b.asked_downstream.clear();
                } else {
                    b.asked_downstream.insert(bat, b.now);
                }
            }
            let view = |n: &DcNode, obs: &dc_obs::Registry| {
                let mut counters = obs.stats();
                counters.retain(|(name, _)| name != "bytes_forwarded");
                let bats = [5, 6, 7].map(BatId);
                (counters, bats.map(|b| n.s2.get(b).cloned()), n.s1.state(BatId(5)), n.cache.len())
            };
            proptest::prop_assert_eq!(view(&a, &ra), view(&b, &rb));
        }
    }

    // ---- Fig. 5: hot-set management --------------------------------------

    #[test]
    fn owner_drops_bat_below_threshold() {
        let mut n = node(0);
        n.cfg.loit_levels = vec![0.5];
        n.ladder = LoitLadder::fixed(0.5);
        n.register_owned(BatId(3), 100);
        n.s1.set_state(BatId(3), OwnedState::InRing { last_seen: SimTime::ZERO });
        // Came around with little interest: copies 1 of 9 hops → cavg 0.11.
        let mut h = BatHeader::fresh(NodeId(0), BatId(3), 100);
        h.copies = 1;
        h.hops = 8; // +1 on arrival = 9
        let eff = n.on_bat(h, true);
        assert_eq!(eff, vec![Effect::Unload(BatId(3))]);
        assert_eq!(n.s1.state(BatId(3)), Some(OwnedState::OnDisk));
        assert_eq!(n.stats.bats_unloaded.get(), 1);
    }

    #[test]
    fn owner_keeps_interesting_bat_and_resets_counters() {
        let mut n = node(0);
        n.ladder = LoitLadder::fixed(0.5);
        n.register_owned(BatId(3), 100);
        n.s1.set_state(BatId(3), OwnedState::InRing { last_seen: SimTime::ZERO });
        let mut h = BatHeader::fresh(NodeId(0), BatId(3), 100);
        h.copies = 8;
        h.hops = 8; // all nodes used it
        let eff = n.on_bat(h, true);
        match &eff[..] {
            [Effect::SendBat { header: h2, .. }] => {
                assert_eq!(h2.cycles, 1);
                assert_eq!(h2.copies, 0);
                assert_eq!(h2.hops, 0);
                assert!((h2.loi - 8.0 / 9.0).abs() < 1e-12);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(n.s1.get(BatId(3)).unwrap().touches, 8);
        assert_eq!(n.s1.get(BatId(3)).unwrap().max_cycles, 1);
    }

    #[test]
    fn demand_hold_grants_one_extra_cycle() {
        let mut n = node(0);
        n.ladder = LoitLadder::fixed(0.5);
        n.register_owned(BatId(3), 100);
        n.s1.set_state(BatId(3), OwnedState::InRing { last_seen: SimTime::ZERO });
        // A request arrives mid-cycle: outcome 2 ignores it, but it is
        // live interest the circulating BAT has yet to serve.
        assert!(n.on_request(ReqMsg { origin: NodeId(4), bat: BatId(3) }).is_empty());
        // The BAT comes around cold (copies 0): below threshold, but the
        // pending requester holds it in the ring for one more cycle.
        let h = BatHeader::fresh(NodeId(0), BatId(3), 100);
        let eff = n.on_bat(h, true);
        assert!(
            matches!(&eff[..], [Effect::SendBat { payload: true, .. }]),
            "kept despite LOI 0 < 0.5, and sent with the payload it was asked for: {eff:?}"
        );
        assert_eq!(n.stats.demand_holds.get(), 1);
        assert_eq!(n.stats.bats_unloaded.get(), 0);
        // Next pass with no new interest: the normal Fig. 5 drop.
        let h = BatHeader::fresh(NodeId(0), BatId(3), 100);
        let mut h = h;
        h.cycles = 1;
        let eff = n.on_bat(h, true);
        assert_eq!(eff, vec![Effect::Unload(BatId(3))]);
        assert_eq!(n.stats.bats_unloaded.get(), 1);
    }

    #[test]
    fn capacity_pressure_overrides_demand_hold() {
        // Queue nearly full: Fig. 5's eviction must win even with
        // pending interest (the requester is rescued by resend).
        let cfg = DcConfig { queue_capacity: 110, loit_levels: vec![0.5], ..DcConfig::default() };
        let mut n = DcNode::new(NodeId(0), cfg, &dc_obs::Registry::new(0));
        n.register_owned(BatId(3), 100);
        n.s1.set_state(BatId(3), OwnedState::InRing { last_seen: SimTime::ZERO });
        assert!(n.queue_load_fraction() >= 0.8, "setup: must be overloaded");
        assert!(n.on_request(ReqMsg { origin: NodeId(4), bat: BatId(3) }).is_empty());
        let h = BatHeader::fresh(NodeId(0), BatId(3), 100);
        let eff = n.on_bat(h, true);
        assert_eq!(eff, vec![Effect::Unload(BatId(3))]);
        assert_eq!(n.stats.demand_holds.get(), 0);
    }

    // ---- tick: loadAll / resend / LOIT / lost ----------------------------

    #[test]
    fn load_all_oldest_first_with_skip() {
        let mut n = node(0);
        n.register_owned(BatId(1), 700);
        n.register_owned(BatId(2), 200);
        n.s1.set_state(BatId(1), OwnedState::Pending { since: SimTime::from_millis(1) });
        n.s1.set_state(BatId(2), OwnedState::Pending { since: SimTime::from_millis(2) });
        // 500 of our 1000-byte ring share already hot: BAT 1 (700) is
        // skipped, BAT 2 (200) loads.
        n.register_owned(BatId(3), 500);
        n.s1.set_state(BatId(3), OwnedState::InRing { last_seen: SimTime::ZERO });
        at(&mut n, 100);
        let eff = n.tick();
        assert_eq!(eff, vec![Effect::LoadFromDisk { bat: BatId(2), size: 200 }]);
        assert_eq!(
            n.s1.state(BatId(1)),
            Some(OwnedState::Pending { since: SimTime::from_millis(1) })
        );
    }

    #[test]
    fn load_all_respects_interval() {
        let mut n = node(0);
        n.register_owned(BatId(1), 100);
        n.s1.set_state(BatId(1), OwnedState::Pending { since: SimTime::ZERO });
        at(&mut n, 100);
        assert_eq!(n.tick().len(), 1);
        // Re-mark pending; immediately after, the interval gates loadAll.
        n.s1.set_state(BatId(1), OwnedState::Pending { since: SimTime::from_millis(100) });
        at(&mut n, 105);
        assert!(n.tick().is_empty(), "within load_interval");
        at(&mut n, 120);
        assert_eq!(n.tick().len(), 1);
    }

    #[test]
    fn resend_after_timeout() {
        let mut n = node(4);
        at(&mut n, 0);
        n.local_request(QueryId(1), BatId(8));
        let _ = n.pin(QueryId(1), BatId(8));
        at(&mut n, 400);
        assert!(n.tick().iter().all(|e| !matches!(e, Effect::SendRequest(_))), "not yet");
        at(&mut n, 600);
        let eff = n.tick();
        assert!(
            eff.contains(&Effect::SendRequest(ReqMsg { origin: NodeId(4), bat: BatId(8) })),
            "{eff:?}"
        );
        assert_eq!(n.stats.requests_resent.get(), 1);
        // Timer reset: no immediate second resend.
        at(&mut n, 700);
        assert!(n.tick().iter().all(|e| !matches!(e, Effect::SendRequest(_))));
    }

    #[test]
    fn owner_lost_bat_reverts_to_disk() {
        let mut n = node(0);
        n.register_owned(BatId(1), 100);
        n.s1.set_state(BatId(1), OwnedState::InRing { last_seen: SimTime::ZERO });
        at(&mut n, 2_500);
        n.tick();
        assert_eq!(n.s1.state(BatId(1)), Some(OwnedState::OnDisk));
        assert_eq!(n.stats.bats_lost.get(), 1);
        // And a new request now reloads it (outcome 4 again).
        let eff = n.on_request(ReqMsg { origin: NodeId(2), bat: BatId(1) });
        assert_eq!(eff, vec![Effect::LoadFromDisk { bat: BatId(1), size: 100 }]);
    }

    #[test]
    fn loit_ladder_adapts_on_tick() {
        let mut n = node(0);
        assert_eq!(n.loit(), 0.1);
        n.register_owned(BatId(1), 900);
        n.s1.set_state(BatId(1), OwnedState::InRing { last_seen: SimTime::ZERO });
        n.tick(); // 90% hot > 80% watermark
        assert_eq!(n.loit(), 0.6);
        n.tick();
        assert_eq!(n.loit(), 1.1);
        n.s1.set_state(BatId(1), OwnedState::OnDisk); // 0% < 40%
        n.tick();
        assert_eq!(n.loit(), 0.6);
        assert_eq!(n.stats.loit_transitions.get(), 3, "raise, raise, lower");
        n.tick(); // one more step down, then the bottom rung holds
        n.tick();
        assert_eq!((n.loit(), n.stats.loit_transitions.get()), (0.1, 4));
    }

    #[test]
    fn owner_local_pin_never_touches_ring() {
        let mut n = node(0);
        n.register_owned(BatId(1), 100);
        assert!(n.local_request(QueryId(1), BatId(1)).is_empty());
        assert_eq!(n.pin(QueryId(1), BatId(1)).0, PinOutcome::OwnedLocal);
        assert!(n.unpin(QueryId(1), BatId(1)).is_empty());
        assert_eq!(n.stats.requests_dispatched.get(), 0);
    }

    /// An owner-local pin counts as interest: the fragment it read ranks
    /// behind one nobody touched when the budget picks spill victims,
    /// though it was loaded first and has the lower id.
    #[test]
    fn owner_local_pin_keeps_its_fragment_off_the_spill_list() {
        let mut n = node(0);
        n.register_owned(BatId(1), 100);
        n.register_owned(BatId(2), 100);
        let candidates = |n: &DcNode| {
            [BatId(1), BatId(2)].map(|b| (b, n.s1.get(b).unwrap().last_loi, 100)).to_vec()
        };
        assert_eq!(crate::hotset::spill_victims(candidates(&n), 1), [BatId(1)], "ties: lower id");
        assert_eq!(n.pin(QueryId(1), BatId(1)).0, PinOutcome::OwnedLocal);
        let pinned = n.s1.get(BatId(1)).unwrap().last_loi;
        assert_eq!(pinned, new_loi(0.0, 1, 1, LOCAL_PIN_CYCLES));
        assert_eq!(crate::hotset::spill_victims(candidates(&n), 1), [BatId(2)]);
        assert_eq!(crate::hotset::spill_victims(candidates(&n), 150), [BatId(2), BatId(1)]);
        // Pinned again and again, the score rises toward its bound.
        for q in 2..10 {
            n.pin(QueryId(q), BatId(1));
        }
        let again = n.s1.get(BatId(1)).unwrap().last_loi;
        assert!(pinned < again && again < 2.0, "{pinned} < {again} < 2");
    }

    #[test]
    fn duplicate_local_requests_dispatch_once() {
        let mut n = node(0);
        assert_eq!(n.local_request(QueryId(1), BatId(5)).len(), 1);
        assert!(n.local_request(QueryId(2), BatId(5)).is_empty(), "piggybacks");
        assert_eq!(n.stats.requests_dispatched.get(), 1);
    }

    #[test]
    fn foreign_owner_claim_forwarded() {
        // A BAT claiming us as owner that S1 does not know (ownership
        // moved): forward untouched rather than dropping data.
        let mut n = node(3);
        let h = BatHeader::fresh(NodeId(3), BatId(77), 10);
        let eff = n.on_bat(h, true);
        assert_eq!(eff.len(), 1);
        assert!(matches!(eff[0], Effect::SendBat { payload: true, .. }), "as it came");
    }
}
