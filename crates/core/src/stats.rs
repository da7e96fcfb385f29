//! Per-node counters, as handles into the node's [`dc_obs::Registry`]:
//! the protocol's tallies feeding the paper's figures — touches,
//! requests and loads per BAT (Fig. 9, kept in S1 at the owner) and
//! request latencies (Fig. 10) — and the live engine's own. Each set is
//! declared once, with [`dc_obs::counters!`]: a field's name is the name
//! `dc.stats` and `dc-node metrics` show. The engine's trace events: [`trace`].

use std::sync::atomic::{AtomicU64, Ordering};

dc_obs::counters! {
    /// The protocol's counters ([`crate::DcNode`]). A driver that gives
    /// every node of a ring one registry reads ring-wide totals from it.
    pub struct NodeStats {
        /// Requests this node originated (first dispatch per S2 entry).
        requests_dispatched,
        /// Requests re-sent after a rotational-delay timeout (§4.2.3).
        requests_resent,
        /// Foreign requests forwarded upstream (outcome 6).
        requests_forwarded,
        /// Foreign requests absorbed because we wait for the same BAT
        /// (outcome 5).
        requests_absorbed,
        /// Foreign requests answered as owner (outcomes 2–4).
        requests_owner_handled,
        /// Requests that returned to us as origin: the BAT does not exist
        /// (outcome 1).
        requests_returned,
        /// BAT frames forwarded to the successor, with or without payload.
        bats_forwarded,
        /// Payload bytes forwarded to the successor (ring traffic volume):
        /// a frame forwarded as its header alone adds nothing.
        bytes_forwarded,
        /// Own BATs pulled out of the ring by LOI decision.
        bats_unloaded,
        /// Below-threshold BATs kept one more cycle because requests
        /// arrived mid-cycle (the owner's demand hold, which is not in the
        /// paper; see [`crate::proto::DcNode::on_bat`]).
        demand_holds,
        /// Own BATs (re-)loaded into the ring.
        bats_loaded,
        /// Own BATs presumed lost (owner-side rotation timeout).
        bats_lost,
        /// Pin deliveries to local queries.
        deliveries,
        /// Payload bytes pulled off the ring for local requests (§3
        /// multi-fragment evaluation): once per payload frame that answers
        /// this node's in-flight S2 entry, pin waiting or not. Owner-served
        /// pins and frames passing an answered entry add nothing — this is
        /// the distributed-join/aggregate data-movement cost.
        ring_query_bytes_moved,
        /// Queries errored out (nonexistent BAT).
        query_errors,
        /// LOIT ladder raise/lower transitions at this node (§5.2
        /// adaptation activity), counted by the tick that moves the ladder.
        loit_transitions,
        /// Request latencies recorded (first service per S2 entry); the
        /// per-BAT maxima are [`crate::DcNode::max_request_latency`].
        latency_count,
    }
}

dc_obs::counters! {
    /// The live engine's counters: writes, their routing and durability,
    /// and hot-set moves.
    pub(crate) struct EngineStats {
        /// INSERT columns applied at this node as fragment owner (§6.4),
        /// one per column of each INSERT.
        appends_applied,
        /// INSERTs this node had to discard: a routed one it owns that its
        /// table refused (one per column), or one it originated that came
        /// back without finding an owner (one per statement).
        appends_dropped,
        /// Routed INSERTs this node originated that failed: the owner
        /// answered with an error, the statement cycled back unowned, or
        /// the whole ack-retry budget elapsed. The INSERT twin of
        /// `mutations_failed`.
        appends_failed,
        /// UPDATE/DELETE mutations applied at this node as fragment owner
        /// (§6.4 version bumps).
        mutations_applied,
        /// UPDATE/DELETE mutations this node originated that were routed
        /// clockwise to a remote owner.
        mutations_routed,
        /// Routed UPDATE/DELETE mutations that failed: the message cycled
        /// back without finding an owner, or the owner rejected it.
        mutations_failed,
        /// Aggregates this node was asked for and sent to the owner that
        /// receives fewer of their bytes, instead of pulling them here.
        selects_pushed,
        /// Routed statements this node answered as owner — a mutation
        /// applied and made durable, or a pushed SELECT run — whose
        /// acknowledgement could not be sent back to the origin: the
        /// origin retries, and a mutation it gives up on is reported as
        /// failed though it succeeded.
        mutation_acks_lost,
        /// Routed statements re-delivered to this owner (duplicate frames,
        /// origin-side retries) and suppressed by the idempotent dedup
        /// cache: the cached ack was re-sent instead of re-applying.
        mutations_deduped,
        /// Routed statements this origin re-sent because the owner's
        /// acknowledgement did not arrive within the ack timeout (or the
        /// send itself failed on a severed edge).
        retries,
        /// Routed statements failed loudly at this origin after the whole
        /// retry budget elapsed without an acknowledgement.
        timeouts,
        /// Owned fragments rebuilt from disk at startup.
        recovered_frags,
        /// WAL records replayed during startup recovery.
        recovered_wal_records,
        /// Owned fragments spilled to the data dir by hot-set management:
        /// the in-RAM payload dropped, `bats/<id>.v<version>.bat` the
        /// at-rest copy.
        loi_evictions,
        /// Spilled fragments re-admitted into service: reloaded from disk
        /// for a local pin, a mutation, or a ring request (Fig. 3
        /// outcome 4).
        loi_readmits,
        /// Catalog gossip messages merged into this node's catalogs.
        obs_gossip_applied,
        /// Durable writes that failed where nothing could be refused: a
        /// gossiped table's WAL record, a bulk load's file or record, a
        /// dirty spill's file.
        obs_persist_errors,
    }
}

/// A constant per trace event, holding the name `dc.trace` shows, and `ALL`.
macro_rules! trace_events {
    ($($id:ident = $name:literal,)*) => {
        $(pub const $id: &str = $name;)*
        pub const ALL: &[&str] = &[$($name,)*];
    };
}

/// The events the live engine records in its node's trace ring; each has
/// a row in ARCHITECTURE.md "Statement tracing".
pub mod trace {
    trace_events! {
        ROUTE = "route",
        RETRY = "retry",
        TIMEOUT = "timeout",
        START = "start",
        APPLY = "apply",
        DEDUP = "dedup",
        ACK_SENT = "ack_sent",
        RUNNING = "running",
        ACK = "ack",
        GOSSIP = "gossip",
        GOSSIP_REFUSED = "gossip_refused",
        READMIT = "readmit",
        EVICT = "evict",
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
    fn fault_stats_totals() {
        let f = FaultStats::default();
        f.drops.fetch_add(2, Ordering::Relaxed);
        f.duplicates.fetch_add(1, Ordering::Relaxed);
        f.severed_sends.fetch_add(3, Ordering::Relaxed);
        assert_eq!(f.faults_injected(), 6);
        assert_eq!((f.drops(), f.duplicates(), f.stalls(), f.severed_sends()), (2, 1, 0, 3));
    }
}
