//! Pull-model on-demand broadcast: clients send explicit requests up a
//! back channel; the server broadcasts *requested* items only, under a
//! scheduling policy.
//!
//! This is the pull side of the push/pull spectrum analysed in the
//! paper's refs \[2\] (Acharya, Franklin, Zdonik, SIGMOD 1997) and \[3\]
//! (Aksoy & Franklin, INFOCOM 1998). Two server policies are provided:
//!
//! * [`PullPolicy::Fcfs`] — serve requests in arrival order, with
//!   request consolidation (a queued item absorbs later requests for
//!   it, exactly like the DC's request absorption, Fig. 3 outcome 5);
//! * [`PullPolicy::Mrf`] — Most Requests First: each transmission
//!   serves the item with the largest waiter count (ties: earliest
//!   first request), the classic on-demand heuristic \[3\].
//!
//! The reproduction target is the qualitative threshold claim of \[2\]:
//! *"For a lightly loaded server the pull-based policy is the preferred
//! one. Contrary, the pure push-based policy works best on a saturated
//! server"* — demonstrated against [`crate::BroadcastSim`] by the
//! `exp_baselines` harness rate sweep.

use crate::measure::BcastMeasurements;
use crate::sim::ChannelConfig;
use datacyclotron::BatId;
use dc_workloads::{Dataset, ExecModel, QuerySpec};
use netsim::{EventQueue, SimTime};
use std::collections::HashMap;

/// Server scheduling policy for the on-demand queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum PullPolicy {
    /// First-come-first-served over *items* (consolidated).
    #[default]
    Fcfs,
    /// Most-requests-first with earliest-arrival tie-break.
    Mrf,
}

enum Ev {
    Arrive(usize),
    /// A request reaches the server (uplink delay after arrival).
    ReqAtServer {
        item: BatId,
    },
    /// The server finished transmitting `item`.
    TxDone {
        item: BatId,
    },
    ProcDone {
        q: usize,
    },
}

struct QueryState {
    outstanding: usize,
    finished: bool,
}

/// A queued (consolidated) item on the server.
struct PendingItem {
    first_request: SimTime,
    /// Requests consolidated into this queue entry.
    demand: usize,
}

/// Pull-model simulator.
pub struct OnDemandSim {
    dataset: Dataset,
    queries: Vec<QuerySpec>,
    channel: ChannelConfig,
    policy: PullPolicy,
    events: EventQueue<Ev>,
    qstate: Vec<QueryState>,
    /// Client-side waiters per item: (query idx, need idx).
    waiting: HashMap<BatId, Vec<(usize, usize)>>,
    /// Server-side consolidated request queue.
    pending: HashMap<BatId, PendingItem>,
    /// FCFS arrival order of items in `pending`.
    fifo: std::collections::VecDeque<BatId>,
    busy: bool,
    m: BcastMeasurements,
}

impl OnDemandSim {
    pub fn new(
        dataset: Dataset,
        queries: Vec<QuerySpec>,
        channel: ChannelConfig,
        policy: PullPolicy,
    ) -> Self {
        let mut events = EventQueue::new();
        for (q, spec) in queries.iter().enumerate() {
            spec.validate().expect("invalid query spec");
            assert!(
                matches!(spec.model, ExecModel::PerBat { .. }),
                "broadcast baselines model PerBat workloads"
            );
            events.schedule(spec.arrival, Ev::Arrive(q));
        }
        let qstate = queries
            .iter()
            .map(|s| QueryState { outstanding: s.needs.len(), finished: false })
            .collect();
        OnDemandSim {
            dataset,
            queries,
            channel,
            policy,
            events,
            qstate,
            waiting: HashMap::new(),
            pending: HashMap::new(),
            fifo: std::collections::VecDeque::new(),
            busy: false,
            m: BcastMeasurements::default(),
        }
    }

    /// Run until every query completes.
    pub fn run(mut self) -> BcastMeasurements {
        let total = self.queries.len();
        let mut completed = 0usize;
        while let Some((now, ev)) = self.events.pop() {
            match ev {
                Ev::Arrive(q) => self.on_arrive(now, q),
                Ev::ReqAtServer { item } => self.on_request(now, item),
                Ev::TxDone { item } => self.on_tx_done(now, item),
                Ev::ProcDone { q } => {
                    if self.on_proc_done(now, q) {
                        completed += 1;
                        if completed == total {
                            break;
                        }
                    }
                }
            }
        }
        self.m.completed = completed;
        self.m.failed = total - completed;
        self.m
    }

    fn on_arrive(&mut self, now: SimTime, q: usize) {
        let needs = self.queries[q].needs.clone();
        for (i, &need) in needs.iter().enumerate() {
            self.waiting.entry(need).or_default().push((q, i));
            // One explicit request per needed fragment, up the back
            // channel (propagation delay only; requests are tiny).
            self.events.schedule(now + self.channel.delay, Ev::ReqAtServer { item: need });
        }
    }

    fn on_request(&mut self, now: SimTime, item: BatId) {
        self.m.requests_received += 1;
        match self.pending.entry(item) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                // Consolidated: the queued transmission will serve this
                // requester too.
                e.get_mut().demand += 1;
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(PendingItem { first_request: now, demand: 1 });
                self.fifo.push_back(item);
            }
        }
        if !self.busy {
            self.start_next(now);
        }
    }

    /// Pick the next item per policy and start its transmission.
    fn start_next(&mut self, now: SimTime) {
        let item = match self.policy {
            PullPolicy::Fcfs => self.fifo.pop_front(),
            PullPolicy::Mrf => {
                let best = self
                    .pending
                    .iter()
                    .max_by(|(ba, a), (bb, b)| {
                        a.demand
                            .cmp(&b.demand)
                            .then(b.first_request.cmp(&a.first_request))
                            // Final deterministic tie-break on id.
                            .then(bb.0.cmp(&ba.0))
                    })
                    .map(|(&b, _)| b);
                if let Some(b) = best {
                    self.fifo.retain(|&x| x != b);
                }
                best
            }
        };
        let Some(item) = item else {
            self.busy = false;
            return;
        };
        self.busy = true;
        let entry = self.pending.remove(&item).expect("queued item has a pending entry");
        if entry.demand > 1 {
            self.m.coalesced_serves += 1;
        }
        let tx = self.channel.tx_time(self.dataset.size_of(item));
        self.events.schedule(now + tx, Ev::TxDone { item });
    }

    fn on_tx_done(&mut self, now: SimTime, item: BatId) {
        self.m.items_broadcast += 1;
        self.m.bytes_broadcast += self.dataset.size_of(item);
        if let Some(waiters) = self.waiting.remove(&item) {
            for (q, need_idx) in waiters {
                let ExecModel::PerBat { proc } = &self.queries[q].model else {
                    unreachable!("constructor rejects non-PerBat specs")
                };
                let done = now + self.channel.delay + proc[need_idx];
                self.events.schedule(done, Ev::ProcDone { q });
            }
        }
        self.start_next(now);
    }

    fn on_proc_done(&mut self, now: SimTime, q: usize) -> bool {
        let st = &mut self.qstate[q];
        st.outstanding -= 1;
        if st.outstanding > 0 || st.finished {
            return false;
        }
        st.finished = true;
        let spec = &self.queries[q];
        let lifetime = now.since(spec.arrival).as_secs_f64();
        self.m.lifetimes.push((spec.arrival.as_secs_f64(), lifetime, spec.tag));
        self.m.makespan = self.m.makespan.max(now.as_secs_f64());
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::SimDuration;

    fn dataset(n: usize, size: u64) -> Dataset {
        Dataset { sizes: vec![size; n], owners: vec![0; n] }
    }

    fn one_query(arrival: SimTime, needs: Vec<BatId>, proc_ms: u64) -> QuerySpec {
        let n = needs.len();
        QuerySpec {
            arrival,
            node: 0,
            needs,
            model: ExecModel::PerBat { proc: vec![SimDuration::from_millis(proc_ms); n] },
            tag: 0,
        }
    }

    /// 1 MB at 8 Mb/s → 1 s per item; zero delay for easy arithmetic.
    fn slow_channel() -> ChannelConfig {
        ChannelConfig { bandwidth_bps: 8_000_000, delay: SimDuration::ZERO }
    }

    #[test]
    fn light_load_serves_immediately() {
        let ds = dataset(100, 1_000_000);
        // One query for one item on an idle server: latency = tx time.
        let q = one_query(SimTime::ZERO, vec![BatId(73)], 0);
        let m = OnDemandSim::new(ds, vec![q], slow_channel(), PullPolicy::Fcfs).run();
        assert_eq!(m.completed, 1);
        assert!((m.lifetimes[0].1 - 1.0).abs() < 1e-6, "{}", m.lifetimes[0].1);
        // Contrast with push over the same 100-item database: the flat
        // cycle averages ~50 s to reach a random item. The pull server
        // answered in 1 s — the light-load side of [2]'s threshold.
    }

    #[test]
    fn fcfs_serves_in_request_order() {
        let ds = dataset(3, 1_000_000);
        let q0 = one_query(SimTime::ZERO, vec![BatId(2)], 0);
        let q1 = one_query(SimTime::from_millis(10), vec![BatId(0)], 0);
        let m = OnDemandSim::new(ds, vec![q0, q1], slow_channel(), PullPolicy::Fcfs).run();
        // Item 2 transmits first (1 s), then item 0 (2 s).
        assert_eq!(m.completed, 2);
        let l0 = m.lifetimes.iter().find(|&&(a, _, _)| a == 0.0).unwrap().1;
        let l1 = m.lifetimes.iter().find(|&&(a, _, _)| a > 0.0).unwrap().1;
        assert!((l0 - 1.0).abs() < 1e-6);
        assert!((l1 - 1.99).abs() < 1e-6, "{l1}");
    }

    #[test]
    fn requests_consolidate() {
        let ds = dataset(2, 1_000_000);
        // 30 queries for the same item while the server is busy with
        // another: one transmission serves all.
        let mut queries = vec![one_query(SimTime::ZERO, vec![BatId(0)], 0)];
        for i in 0..30u64 {
            queries.push(one_query(SimTime::from_millis(100 + i), vec![BatId(1)], 0));
        }
        let m = OnDemandSim::new(ds, queries, slow_channel(), PullPolicy::Fcfs).run();
        assert_eq!(m.completed, 31);
        assert_eq!(m.items_broadcast, 2, "consolidation must merge the 30 requests");
        assert_eq!(m.requests_received, 31);
        assert!(m.coalesced_serves >= 1);
    }

    #[test]
    fn mrf_prefers_popular_items() {
        let ds = dataset(3, 1_000_000);
        // While the server transmits item 0, one request for item 1
        // arrives before five requests for item 2. FCFS would send 1
        // first; MRF sends 2 first.
        let mut queries = vec![one_query(SimTime::ZERO, vec![BatId(0)], 0)];
        queries.push(one_query(SimTime::from_millis(100), vec![BatId(1)], 0));
        for i in 0..5u64 {
            queries.push(one_query(SimTime::from_millis(200 + i), vec![BatId(2)], 0));
        }
        let run =
            |policy| OnDemandSim::new(ds.clone(), queries.clone(), slow_channel(), policy).run();
        let fcfs = run(PullPolicy::Fcfs);
        let mrf = run(PullPolicy::Mrf);
        // Identify item-1 and item-2 queries by arrival time.
        let life_of = |m: &BcastMeasurements, lo: f64, hi: f64| -> f64 {
            m.lifetimes
                .iter()
                .filter(|&&(a, _, _)| a >= lo && a < hi)
                .map(|&(_, l, _)| l)
                .fold(0.0, f64::max)
        };
        let fcfs_item2 = life_of(&fcfs, 0.15, 0.3);
        let mrf_item2 = life_of(&mrf, 0.15, 0.3);
        assert!(
            mrf_item2 < fcfs_item2,
            "MRF should serve the popular item sooner ({mrf_item2} vs {fcfs_item2})"
        );
        // Aggregate waiting time is lower under MRF for this skew.
        let fcfs_total: f64 = fcfs.lifetimes.iter().map(|&(_, l, _)| l).sum();
        let mrf_total: f64 = mrf.lifetimes.iter().map(|&(_, l, _)| l).sum();
        assert!(mrf_total < fcfs_total);
    }

    #[test]
    fn saturation_grows_the_backlog() {
        // 50 distinct items requested back-to-back at t≈0 on a 1-item/s
        // server: the last one waits ~50 s — the saturated side of
        // [2]'s threshold, where push's fixed cycle would be better.
        let ds = dataset(50, 1_000_000);
        let queries: Vec<QuerySpec> = (0..50u32)
            .map(|i| one_query(SimTime::from_millis(u64::from(i)), vec![BatId(i)], 0))
            .collect();
        let m = OnDemandSim::new(ds, queries, slow_channel(), PullPolicy::Fcfs).run();
        assert_eq!(m.completed, 50);
        let worst = m.lifetime_quantile(1.0);
        assert!(worst > 45.0, "backlog latency {worst}");
        assert_eq!(m.items_broadcast, 50);
    }

    #[test]
    fn deterministic_across_runs_both_policies() {
        let ds = dataset(20, 3_000_000);
        let queries: Vec<QuerySpec> = (0..40u64)
            .map(|i| one_query(SimTime::from_millis(i * 53), vec![BatId((i % 20) as u32)], 15))
            .collect();
        for policy in [PullPolicy::Fcfs, PullPolicy::Mrf] {
            let a = OnDemandSim::new(ds.clone(), queries.clone(), slow_channel(), policy).run();
            let b = OnDemandSim::new(ds.clone(), queries.clone(), slow_channel(), policy).run();
            assert_eq!(a.lifetimes, b.lifetimes, "{policy:?}");
            assert_eq!(a.items_broadcast, b.items_broadcast);
        }
    }

    #[test]
    fn an_in_flight_transmission_absorbs_nothing() {
        // 60 queries for the same item in a burst. The transmission
        // already in flight when the flood starts cannot absorb it, so
        // item 0 goes out twice (in-flight + one consolidated queue
        // entry), then the straggler's item 1.
        let ds = dataset(2, 1_000_000);
        let mut queries: Vec<QuerySpec> =
            (0..60u64).map(|i| one_query(SimTime::from_millis(i), vec![BatId(0)], 0)).collect();
        queries.push(one_query(SimTime::from_millis(100), vec![BatId(1)], 0));
        let m = OnDemandSim::new(ds, queries, slow_channel(), PullPolicy::Fcfs).run();
        assert_eq!(m.completed, 61);
        assert_eq!(m.items_broadcast, 3);
        let straggler = m.lifetimes.iter().find(|&&(a, _, _)| a > 0.09).unwrap().1;
        assert!(straggler < 3.0, "{straggler}");
    }

    #[test]
    fn multi_need_pull_query_completes() {
        let ds = dataset(4, 1_000_000);
        let q = one_query(SimTime::ZERO, vec![BatId(0), BatId(3), BatId(2)], 100);
        let m = OnDemandSim::new(ds, vec![q], slow_channel(), PullPolicy::Fcfs).run();
        assert_eq!(m.completed, 1);
        // Three sequential transmissions (3 s) + 100 ms processing.
        assert!((m.lifetimes[0].1 - 3.1).abs() < 1e-6, "{}", m.lifetimes[0].1);
    }
}
