//! Per-node protocol statistics, feeding the paper's figures: request
//! latencies (Fig. 10), touches/requests/loads per BAT (Fig. 9, kept in
//! S1 at the owner), throughput and ring-load series (collected by the
//! drivers).

use crate::ids::BatId;
use netsim::SimDuration;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

#[derive(Default, Clone, Debug)]
pub struct NodeStats {
    /// Requests this node originated (first dispatch per S2 entry).
    pub requests_dispatched: u64,
    /// Requests re-sent after a rotational-delay timeout (§4.2.3).
    pub requests_resent: u64,
    /// Foreign requests forwarded upstream (outcome 6).
    pub requests_forwarded: u64,
    /// Foreign requests absorbed because we wait for the same BAT
    /// (outcome 5).
    pub requests_absorbed: u64,
    /// Foreign requests answered as owner (outcomes 2–4).
    pub requests_owner_handled: u64,
    /// Requests that returned to us as origin: the BAT does not exist
    /// (outcome 1).
    pub requests_returned: u64,
    /// BAT frames forwarded to the successor, with or without payload.
    pub bats_forwarded: u64,
    /// Payload bytes forwarded to the successor (ring traffic volume): a
    /// frame forwarded as its header alone adds nothing.
    pub bytes_forwarded: u64,
    /// Own BATs pulled out of the ring by LOI decision.
    pub bats_unloaded: u64,
    /// Below-threshold BATs kept one more cycle because requests arrived
    /// mid-cycle (see [`crate::DcConfig::demand_hold`]).
    pub demand_holds: u64,
    /// Own BATs (re-)loaded into the ring.
    pub bats_loaded: u64,
    /// Own BATs presumed lost (owner-side rotation timeout).
    pub bats_lost: u64,
    /// Pin deliveries to local queries.
    pub deliveries: u64,
    /// Payload bytes pulled off the ring for local requests (§3
    /// multi-fragment evaluation): once per payload frame that answers
    /// this node's in-flight S2 entry, pin waiting or not. Owner-served
    /// pins and frames passing an answered entry add nothing — this is
    /// the distributed-join/aggregate data-movement cost.
    pub ring_query_bytes_moved: u64,
    /// INSERT columns applied at this node as fragment owner (§6.4), one
    /// per column of each INSERT.
    pub appends_applied: u64,
    /// INSERTs this node had to discard: a routed one it owns that its
    /// table refused (one per column), or one it originated that came
    /// back without finding an owner (one per statement).
    pub appends_dropped: u64,
    /// Routed INSERTs this node originated that failed: the owner
    /// answered with an error, the statement cycled back unowned, or the
    /// whole ack-retry budget elapsed. The INSERT twin of
    /// `mutations_failed`.
    pub appends_failed: u64,
    /// UPDATE/DELETE mutations applied at this node as fragment owner
    /// (§6.4 version bumps).
    pub mutations_applied: u64,
    /// UPDATE/DELETE mutations this node originated that were routed
    /// clockwise to a remote owner.
    pub mutations_routed: u64,
    /// Routed UPDATE/DELETE mutations that failed: the message cycled
    /// back without finding an owner, or the owner rejected it.
    pub mutations_failed: u64,
    /// Mutations this node applied (and made durable) whose
    /// acknowledgement could not be sent back to the origin — the origin
    /// times out and reports failure for a statement that succeeded.
    pub mutation_acks_lost: u64,
    /// Routed statements re-delivered to this owner (duplicate
    /// frames, origin-side retries) and suppressed by the idempotent
    /// dedup cache: the cached ack was re-sent instead of re-applying.
    pub mutations_deduped: u64,
    /// Routed statements this origin re-sent because the
    /// owner's acknowledgement did not arrive within the ack timeout
    /// (or the send itself failed on a severed edge).
    pub retries: u64,
    /// Routed statements failed loudly at this origin
    /// after the whole retry budget elapsed without an acknowledgement.
    pub timeouts: u64,
    /// Queries errored out (nonexistent BAT).
    pub query_errors: u64,
    /// WAL records logged ahead of durable mutations (dc-persist).
    pub wal_records: u64,
    /// WAL bytes appended (frame bytes, including headers).
    pub wal_bytes: u64,
    /// Background checkpoints started (WAL rotations).
    pub checkpoints: u64,
    /// Owned fragments rebuilt from disk at startup.
    pub recovered_frags: u64,
    /// WAL records replayed during startup recovery.
    pub recovered_wal_records: u64,
    /// Owned fragments spilled to the data dir by hot-set management:
    /// the in-RAM payload was dropped once a committed checkpoint named
    /// `bats/<id>.v<version>.bat`, the at-rest copy.
    pub loi_evictions: u64,
    /// Spilled fragments re-admitted into service: reloaded from disk
    /// for a local pin, a mutation, or a ring request (Fig. 3 outcome 4).
    pub loi_readmits: u64,
    /// LOIT ladder raise/lower transitions at this node (§5.2
    /// adaptation activity), counted by the tick that moves the ladder.
    pub loit_transitions: u64,
    /// Maximum observed request latency per BAT at this requester
    /// (Fig. 10 aggregates the per-ring max).
    pub max_request_latency: HashMap<BatId, SimDuration>,
    /// Sum/count for mean latency reporting.
    pub latency_sum: SimDuration,
    pub latency_count: u64,
}

impl NodeStats {
    pub fn record_request_latency(&mut self, bat: BatId, latency: SimDuration) {
        let slot = self.max_request_latency.entry(bat).or_default();
        if latency > *slot {
            *slot = latency;
        }
        self.latency_sum = self.latency_sum + latency;
        self.latency_count += 1;
    }

    pub fn mean_request_latency(&self) -> Option<SimDuration> {
        self.latency_sum.0.checked_div(self.latency_count).map(SimDuration)
    }

    /// Every `u64` protocol counter as `(name, value)`, in declaration
    /// order. This is the single source of truth every stats surface
    /// reads — the `dc.stats` system view, `dcsh`'s `.stats`, the
    /// `dc-node metrics` dump, and the tests comparing them — so a
    /// counter can never appear in one surface and not another. The
    /// exhaustive destructuring (no `..`) makes adding a field without
    /// listing it here a compile error.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        let NodeStats {
            requests_dispatched,
            requests_resent,
            requests_forwarded,
            requests_absorbed,
            requests_owner_handled,
            requests_returned,
            bats_forwarded,
            bytes_forwarded,
            bats_unloaded,
            demand_holds,
            bats_loaded,
            bats_lost,
            deliveries,
            ring_query_bytes_moved,
            appends_applied,
            appends_dropped,
            appends_failed,
            mutations_applied,
            mutations_routed,
            mutations_failed,
            mutation_acks_lost,
            mutations_deduped,
            retries,
            timeouts,
            query_errors,
            wal_records,
            wal_bytes,
            checkpoints,
            recovered_frags,
            recovered_wal_records,
            loi_evictions,
            loi_readmits,
            loit_transitions,
            // Latency distributions are reported through `dc.latency`,
            // not as bare counters (except the sample count).
            max_request_latency: _,
            latency_sum: _,
            latency_count,
        } = self;
        vec![
            ("requests_dispatched", *requests_dispatched),
            ("requests_resent", *requests_resent),
            ("requests_forwarded", *requests_forwarded),
            ("requests_absorbed", *requests_absorbed),
            ("requests_owner_handled", *requests_owner_handled),
            ("requests_returned", *requests_returned),
            ("bats_forwarded", *bats_forwarded),
            ("bytes_forwarded", *bytes_forwarded),
            ("bats_unloaded", *bats_unloaded),
            ("demand_holds", *demand_holds),
            ("bats_loaded", *bats_loaded),
            ("bats_lost", *bats_lost),
            ("deliveries", *deliveries),
            ("ring_query_bytes_moved", *ring_query_bytes_moved),
            ("appends_applied", *appends_applied),
            ("appends_dropped", *appends_dropped),
            ("appends_failed", *appends_failed),
            ("mutations_applied", *mutations_applied),
            ("mutations_routed", *mutations_routed),
            ("mutations_failed", *mutations_failed),
            ("mutation_acks_lost", *mutation_acks_lost),
            ("mutations_deduped", *mutations_deduped),
            ("retries", *retries),
            ("timeouts", *timeouts),
            ("query_errors", *query_errors),
            ("wal_records", *wal_records),
            ("wal_bytes", *wal_bytes),
            ("checkpoints", *checkpoints),
            ("recovered_frags", *recovered_frags),
            ("recovered_wal_records", *recovered_wal_records),
            ("loi_evictions", *loi_evictions),
            ("loi_readmits", *loi_readmits),
            ("loit_transitions", *loit_transitions),
            ("latency_count", *latency_count),
        ]
    }

    /// Merge another node's stats into ring-wide totals. The exhaustive
    /// destructuring (no `..`) makes this self-maintaining: a newly
    /// added field fails to compile until it is merged here — the
    /// field-by-field version silently dropped `appends_applied` and
    /// `appends_dropped` when they were introduced.
    pub fn merge(&mut self, other: &NodeStats) {
        let NodeStats {
            requests_dispatched,
            requests_resent,
            requests_forwarded,
            requests_absorbed,
            requests_owner_handled,
            requests_returned,
            bats_forwarded,
            bytes_forwarded,
            bats_unloaded,
            demand_holds,
            bats_loaded,
            bats_lost,
            deliveries,
            ring_query_bytes_moved,
            appends_applied,
            appends_dropped,
            appends_failed,
            mutations_applied,
            mutations_routed,
            mutations_failed,
            mutation_acks_lost,
            mutations_deduped,
            retries,
            timeouts,
            query_errors,
            wal_records,
            wal_bytes,
            checkpoints,
            recovered_frags,
            recovered_wal_records,
            loi_evictions,
            loi_readmits,
            loit_transitions,
            max_request_latency,
            latency_sum,
            latency_count,
        } = other;
        self.requests_dispatched += requests_dispatched;
        self.requests_resent += requests_resent;
        self.requests_forwarded += requests_forwarded;
        self.requests_absorbed += requests_absorbed;
        self.requests_owner_handled += requests_owner_handled;
        self.requests_returned += requests_returned;
        self.bats_forwarded += bats_forwarded;
        self.bytes_forwarded += bytes_forwarded;
        self.bats_unloaded += bats_unloaded;
        self.demand_holds += demand_holds;
        self.bats_loaded += bats_loaded;
        self.bats_lost += bats_lost;
        self.deliveries += deliveries;
        self.ring_query_bytes_moved += ring_query_bytes_moved;
        self.appends_applied += appends_applied;
        self.appends_dropped += appends_dropped;
        self.appends_failed += appends_failed;
        self.mutations_applied += mutations_applied;
        self.mutations_routed += mutations_routed;
        self.mutations_failed += mutations_failed;
        self.mutation_acks_lost += mutation_acks_lost;
        self.mutations_deduped += mutations_deduped;
        self.retries += retries;
        self.timeouts += timeouts;
        self.query_errors += query_errors;
        self.wal_records += wal_records;
        self.wal_bytes += wal_bytes;
        self.checkpoints += checkpoints;
        self.recovered_frags += recovered_frags;
        self.recovered_wal_records += recovered_wal_records;
        self.loi_evictions += loi_evictions;
        self.loi_readmits += loi_readmits;
        self.loit_transitions += loit_transitions;
        for (&bat, &lat) in max_request_latency {
            let slot = self.max_request_latency.entry(bat).or_default();
            if lat > *slot {
                *slot = lat;
            }
        }
        self.latency_sum = self.latency_sum + *latency_sum;
        self.latency_count += latency_count;
    }
}

/// Counters for every fault the [`crate::transport::fault`] fabric
/// injects. Shared (`Arc`) between the wrapper, its delivery thread, and
/// the test observing the run; atomics because injection happens on
/// whatever thread calls `send_*`.
#[derive(Default, Debug)]
pub struct FaultStats {
    /// Messages swallowed (drop-next-N or the seeded drop plan).
    pub drops: AtomicU64,
    /// Messages delivered twice.
    pub duplicates: AtomicU64,
    /// Messages held back by a stall window before delivery.
    pub stalls: AtomicU64,
    /// Sends refused with `TransportError::Disconnected` on a severed
    /// edge.
    pub severed_sends: AtomicU64,
}

impl FaultStats {
    /// Total faults injected across all classes.
    pub fn faults_injected(&self) -> u64 {
        self.drops.load(Ordering::Relaxed)
            + self.duplicates.load(Ordering::Relaxed)
            + self.stalls.load(Ordering::Relaxed)
            + self.severed_sends.load(Ordering::Relaxed)
    }

    pub fn drops(&self) -> u64 {
        self.drops.load(Ordering::Relaxed)
    }

    pub fn duplicates(&self) -> u64 {
        self.duplicates.load(Ordering::Relaxed)
    }

    pub fn stalls(&self) -> u64 {
        self.stalls.load(Ordering::Relaxed)
    }

    pub fn severed_sends(&self) -> u64 {
        self.severed_sends.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_max_per_bat() {
        let mut s = NodeStats::default();
        s.record_request_latency(BatId(1), SimDuration::from_millis(100));
        s.record_request_latency(BatId(1), SimDuration::from_millis(50));
        s.record_request_latency(BatId(2), SimDuration::from_millis(200));
        assert_eq!(s.max_request_latency[&BatId(1)], SimDuration::from_millis(100));
        assert_eq!(s.max_request_latency[&BatId(2)], SimDuration::from_millis(200));
        assert_eq!(s.mean_request_latency().unwrap().as_millis(), 116);
    }

    #[test]
    fn empty_mean_is_none() {
        assert!(NodeStats::default().mean_request_latency().is_none());
    }

    #[test]
    fn merge_takes_maxima_and_sums() {
        let mut a = NodeStats { requests_dispatched: 3, ..NodeStats::default() };
        a.record_request_latency(BatId(1), SimDuration::from_millis(10));
        let mut b =
            NodeStats { requests_dispatched: 4, retries: 2, timeouts: 1, ..NodeStats::default() };
        b.record_request_latency(BatId(1), SimDuration::from_millis(30));
        a.merge(&b);
        assert_eq!(a.requests_dispatched, 7);
        assert_eq!((a.retries, a.timeouts), (2, 1));
        assert_eq!(a.max_request_latency[&BatId(1)], SimDuration::from_millis(30));
        assert_eq!(a.latency_count, 2);
    }

    #[test]
    fn counters_expose_every_protocol_counter_and_match_merge() {
        let s = NodeStats {
            appends_applied: 3,
            mutations_deduped: 5,
            latency_count: 2,
            ..NodeStats::default()
        };
        let c = s.counters();
        assert!(c.contains(&("appends_applied", 3)));
        assert!(c.contains(&("mutations_deduped", 5)));
        assert_eq!(c.iter().filter(|(_, v)| *v != 0).count(), 3);
        // Merging twice doubles every counter, name for name: merge and
        // counters() destructure the same field set, so a counter one of
        // them forgot shows up here as a mismatch.
        let mut total = NodeStats::default();
        total.merge(&s);
        total.merge(&s);
        for ((name, v), (_, tv)) in s.counters().iter().zip(total.counters()) {
            assert_eq!(*v * 2, tv, "{name} not doubled by two merges");
        }
    }

    #[test]
    fn fault_stats_totals() {
        let f = FaultStats::default();
        f.drops.fetch_add(2, Ordering::Relaxed);
        f.duplicates.fetch_add(1, Ordering::Relaxed);
        f.severed_sends.fetch_add(3, Ordering::Relaxed);
        assert_eq!(f.faults_injected(), 6);
        assert_eq!((f.drops(), f.duplicates(), f.stalls(), f.severed_sends()), (2, 1, 0, 3));
    }
}
