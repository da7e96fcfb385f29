//! Push-model broadcast simulation: a central pump transmits a fixed
//! [`Schedule`] forever; clients filter the stream for their pending
//! queries.
//!
//! This is the DataCycle execution model (flat schedule) and the
//! Broadcast Disks model (multi-disk schedule) on one driver. Queries
//! follow the same `PerBat` execution semantics as the ring simulator:
//! every needed fragment is awaited concurrently, each takes its
//! per-fragment processing time after reception, and the query finishes
//! when the last fragment is processed.
//!
//! Clients have no cache: as in DataCycle, the filters snoop the
//! channel only for *active* predicates, so a query that registers just
//! after its item went by waits (up to) a full period of that item.

use crate::measure::BcastMeasurements;
use crate::schedule::Schedule;
use datacyclotron::BatId;
use dc_workloads::{Dataset, ExecModel, QuerySpec};
use netsim::{EventQueue, SimDuration, SimTime};
use std::collections::HashMap;

/// The broadcast channel: one pump, everyone hears everything.
#[derive(Clone, Copy, Debug)]
pub struct ChannelConfig {
    /// Pump transmit bandwidth in bits per second.
    pub bandwidth_bps: u64,
    /// Propagation delay from pump to clients.
    pub delay: SimDuration,
}

impl Default for ChannelConfig {
    /// Matches the ring's link parameters (10 Gb/s, 350 µs) so the
    /// baseline comparison holds the fabric constant.
    fn default() -> Self {
        ChannelConfig { bandwidth_bps: 10_000_000_000, delay: SimDuration::from_micros(350) }
    }
}

impl ChannelConfig {
    /// Transmission time of `bytes` at channel bandwidth.
    pub fn tx_time(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 * 8.0 / self.bandwidth_bps as f64)
    }
}

enum Ev {
    Arrive(usize),
    /// The pump finished transmitting schedule slot `seq` (absolute,
    /// wrapping over major cycles).
    SlotDone {
        seq: u64,
    },
    ProcDone {
        q: usize,
    },
}

struct QueryState {
    outstanding: usize,
    finished: bool,
}

/// Push-model simulator over a fixed broadcast program.
pub struct BroadcastSim {
    schedule: Schedule,
    dataset: Dataset,
    queries: Vec<QuerySpec>,
    channel: ChannelConfig,
    events: EventQueue<Ev>,
    /// Waiters per item: (query idx, need idx).
    waiting: HashMap<BatId, Vec<(usize, usize)>>,
    qstate: Vec<QueryState>,
    pump_running: bool,
    next_seq: u64,
    m: BcastMeasurements,
}

impl BroadcastSim {
    /// Build a run. Queries must use the [`ExecModel::PerBat`] model
    /// (the §5.1–§5.3 workloads; the pin-calibration model is specific
    /// to the ring's sequential-pin evaluation).
    pub fn new(
        schedule: Schedule,
        dataset: Dataset,
        queries: Vec<QuerySpec>,
        channel: ChannelConfig,
    ) -> Self {
        let mut events = EventQueue::new();
        for (q, spec) in queries.iter().enumerate() {
            spec.validate().expect("invalid query spec");
            assert!(
                matches!(spec.model, ExecModel::PerBat { .. }),
                "broadcast baselines model PerBat workloads"
            );
            for &need in &spec.needs {
                assert!(
                    schedule.frequency_of(need) > 0,
                    "query needs item {} missing from the broadcast program",
                    need.0
                );
            }
            events.schedule(spec.arrival, Ev::Arrive(q));
        }
        let qstate = queries
            .iter()
            .map(|s| QueryState { outstanding: s.needs.len(), finished: false })
            .collect();
        BroadcastSim {
            schedule,
            dataset,
            queries,
            channel,
            events,
            waiting: HashMap::new(),
            qstate,
            pump_running: false,
            next_seq: 0,
            m: BcastMeasurements::default(),
        }
    }

    /// Run until every query completes. The pump idles when nothing is
    /// pending (simulated time skips ahead; a real pump would keep
    /// spinning, but the broadcast an idle client ignores is
    /// unobservable, so skipping preserves all measured quantities
    /// except channel-byte counts, which we only account while queries
    /// are live — the interesting cost).
    pub fn run(mut self) -> BcastMeasurements {
        let total = self.queries.len();
        let mut completed = 0usize;
        while let Some((now, ev)) = self.events.pop() {
            match ev {
                Ev::Arrive(q) => self.on_arrive(now, q),
                Ev::SlotDone { seq } => self.on_slot_done(now, seq),
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
        for (i, &need) in self.queries[q].needs.iter().enumerate() {
            self.waiting.entry(need).or_default().push((q, i));
        }
        if !self.pump_running {
            self.pump_running = true;
            self.start_slot(now);
        }
    }

    /// Begin transmitting the next schedule slot.
    fn start_slot(&mut self, now: SimTime) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let item = self.schedule.item_at(seq);
        let tx = self.channel.tx_time(self.dataset.size_of(item));
        self.events.schedule(now + tx, Ev::SlotDone { seq });
    }

    fn on_slot_done(&mut self, now: SimTime, seq: u64) {
        let item = self.schedule.item_at(seq);
        self.m.items_broadcast += 1;
        self.m.bytes_broadcast += self.dataset.size_of(item);

        // Everyone waiting on this item receives it after the
        // propagation delay and starts its per-fragment processing.
        if let Some(waiters) = self.waiting.remove(&item) {
            for (q, need_idx) in waiters {
                let spec = &self.queries[q];
                let ExecModel::PerBat { proc } = &spec.model else {
                    unreachable!("constructor rejects non-PerBat specs")
                };
                let done = now + self.channel.delay + proc[need_idx];
                self.events.schedule(done, Ev::ProcDone { q });
            }
        }

        // Keep pumping while any query still waits; otherwise idle
        // until the next arrival wakes the pump.
        if self.waiting.values().any(|w| !w.is_empty()) {
            self.start_slot(now);
        } else {
            self.pump_running = false;
        }
    }

    /// Returns true when this completed the query.
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
    use crate::schedule::DiskSpec;

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

    /// 1 MB at 8 Mb/s → exactly 1 s per item: easy arithmetic.
    fn slow_channel() -> ChannelConfig {
        ChannelConfig { bandwidth_bps: 8_000_000, delay: SimDuration::ZERO }
    }

    #[test]
    fn latency_is_position_in_cycle() {
        let ds = dataset(4, 1_000_000);
        let sched = Schedule::flat(&[BatId(0), BatId(1), BatId(2), BatId(3)]).unwrap();
        // A query at t=0 wanting item 2: pump sends 0,1,2 → item 2 done
        // at 3 s; plus 50 ms processing.
        let q = one_query(SimTime::ZERO, vec![BatId(2)], 50);
        let m = BroadcastSim::new(sched, ds, vec![q], slow_channel()).run();
        assert_eq!(m.completed, 1);
        let (_, life, _) = m.lifetimes[0];
        assert!((life - 3.05).abs() < 1e-6, "lifetime {life}");
    }

    #[test]
    fn missing_the_item_waits_a_full_cycle() {
        let ds = dataset(3, 1_000_000);
        let sched = Schedule::flat(&[BatId(0), BatId(1), BatId(2)]).unwrap();
        // First query starts the pump at t=0 and wants item 0 (done 1 s).
        let q0 = one_query(SimTime::ZERO, vec![BatId(0)], 0);
        // Second query arrives at t=1.5 s wanting item 0, which just
        // went by: the pump (idle since 1 s) resumes at slot 1, so the
        // query sits through items 1 (ends 2.5 s) and 2 (3.5 s) before
        // item 0 comes around again at 4.5 s — a full cycle of waiting.
        let q1 = one_query(SimTime::from_millis(1500), vec![BatId(0)], 0);
        let m = BroadcastSim::new(sched, ds, vec![q0, q1], slow_channel()).run();
        assert_eq!(m.completed, 2);
        let life1 = m.lifetimes.iter().find(|&&(a, _, _)| a > 1.0).unwrap().1;
        assert!((life1 - 3.0).abs() < 1e-6, "wrap-around lifetime {life1}");
    }

    #[test]
    fn hot_disk_items_have_lower_mean_latency() {
        // 1 hot item at frequency 4 vs 8 cold items at frequency 1.
        let hot = BatId(0);
        let cold: Vec<BatId> = (1..9).map(BatId).collect();
        let sched = Schedule::broadcast_disks(&[
            DiskSpec { items: vec![hot], frequency: 4 },
            DiskSpec { items: cold.clone(), frequency: 1 },
        ])
        .unwrap();
        let ds = dataset(9, 1_000_000);

        // Probe queries arriving spread across one major cycle;
        // lifetimes are recorded in completion order, so tell the two
        // populations apart by tag.
        let mut queries = Vec::new();
        for i in 0..12u64 {
            let t = SimTime::from_millis(i * 997); // co-prime spread
            let mut hq = one_query(t, vec![hot], 0);
            hq.tag = 1;
            queries.push(hq);
            queries.push(one_query(t, vec![cold[(i % 8) as usize]], 0));
        }
        let m = BroadcastSim::new(sched, ds, queries, slow_channel()).run();
        assert_eq!(m.completed, 24);
        let mean_of = |tag: u32| -> f64 {
            let ls: Vec<f64> =
                m.lifetimes.iter().filter(|&&(_, _, t)| t == tag).map(|&(_, l, _)| l).collect();
            ls.iter().sum::<f64>() / ls.len() as f64
        };
        let hot_mean = mean_of(1);
        let cold_mean = mean_of(0);
        assert!(
            hot_mean < cold_mean / 2.0,
            "hot {hot_mean:.2}s should be well under cold {cold_mean:.2}s"
        );
    }

    #[test]
    fn one_broadcast_serves_all_waiters() {
        let ds = dataset(2, 1_000_000);
        let sched = Schedule::flat(&[BatId(0), BatId(1)]).unwrap();
        let queries: Vec<QuerySpec> =
            (0..50).map(|_| one_query(SimTime::ZERO, vec![BatId(1)], 10)).collect();
        let m = BroadcastSim::new(sched, ds, queries, slow_channel()).run();
        assert_eq!(m.completed, 50);
        // Items 0 and 1 went out once each; the single copy of item 1
        // served all 50 queries.
        assert_eq!(m.items_broadcast, 2);
        assert_eq!(m.bytes_broadcast, 2_000_000);
    }

    #[test]
    fn pump_idles_between_bursts() {
        let ds = dataset(2, 1_000_000);
        let sched = Schedule::flat(&[BatId(0), BatId(1)]).unwrap();
        let q0 = one_query(SimTime::ZERO, vec![BatId(0)], 0);
        let q1 = one_query(SimTime::from_secs(100), vec![BatId(0)], 0);
        let m = BroadcastSim::new(sched, ds, vec![q0, q1], slow_channel()).run();
        assert_eq!(m.completed, 2);
        // Burst 1: slot 0 serves q0 (1 item). Pump idles. Burst 2 at
        // t=100 resumes at slot 1 (item 1, a miss), wraps to item 0.
        assert_eq!(m.items_broadcast, 3);
        // q1 waits 2 s: item 1 then item 0.
        let life1 = m.lifetimes.iter().find(|&&(a, _, _)| a > 50.0).unwrap().1;
        assert!((life1 - 2.0).abs() < 1e-6, "{life1}");
    }

    #[test]
    fn multi_need_query_finishes_on_last_fragment() {
        let ds = dataset(4, 1_000_000);
        let sched = Schedule::flat(&(0..4).map(BatId).collect::<Vec<_>>()).unwrap();
        // Needs items 1 and 3: item 1 done at 2 s (+0.5 s proc = 2.5),
        // item 3 done at 4 s (+0.5 s proc = 4.5) → lifetime 4.5 s.
        let q = QuerySpec {
            arrival: SimTime::ZERO,
            node: 0,
            needs: vec![BatId(1), BatId(3)],
            model: ExecModel::PerBat { proc: vec![SimDuration::from_millis(500); 2] },
            tag: 0,
        };
        let m = BroadcastSim::new(sched, ds, vec![q], slow_channel()).run();
        let (_, life, _) = m.lifetimes[0];
        assert!((life - 4.5).abs() < 1e-6, "{life}");
    }

    #[test]
    #[should_panic(expected = "missing from the broadcast program")]
    fn rejects_query_for_unscheduled_item() {
        let ds = dataset(2, 1_000_000);
        let sched = Schedule::flat(&[BatId(0)]).unwrap();
        let q = one_query(SimTime::ZERO, vec![BatId(1)], 0);
        let _ = BroadcastSim::new(sched, ds, vec![q], slow_channel());
    }

    #[test]
    fn deterministic_across_runs() {
        let ds = dataset(8, 2_000_000);
        let items: Vec<BatId> = (0..8).map(BatId).collect();
        let mk = || {
            let sched = Schedule::flat(&items).unwrap();
            let queries: Vec<QuerySpec> = (0..20u64)
                .map(|i| one_query(SimTime::from_millis(i * 137), vec![BatId((i % 8) as u32)], 25))
                .collect();
            BroadcastSim::new(sched, ds.clone(), queries, ChannelConfig::default()).run()
        };
        let (a, b) = (mk(), mk());
        assert_eq!(a.lifetimes, b.lifetimes);
        assert_eq!(a.items_broadcast, b.items_broadcast);
    }
}
