//! The simulation driver: ring topology, event dispatch, query lifecycle.
//!
//! This driver models the *paper's* ring, on which a hop carries the BAT:
//! it tells [`DcNode::on_bat`] that every arriving frame has its payload,
//! charges every link the whole `wire_size()`, and does not read the
//! protocol's payload decision ([`Effect::SendBat`]'s flag). Scoping
//! payloads to the requesters — what the live engine does over TCP —
//! would remove the very congestion Figs. 6 and 10/11 are about.

use crate::cores::CoreSched;
use crate::measure::Measurements;
use crate::split::{self, SplitMap, SplitParams};
use datacyclotron::msg::BatHeader;
use datacyclotron::OwnedState;
use datacyclotron::{
    BatId, DcConfig, DcNode, Effect, NodeId, NodeStats, PinOutcome, QueryId, ReqMsg,
};
use dc_workloads::{Dataset, ExecModel, QuerySpec};
use netsim::{EnqueueOutcome, EventQueue, Link, LinkConfig, SimDuration, SimTime};
use std::collections::HashMap;

/// Simulation parameters; defaults follow the paper's §5 setup.
#[derive(Clone, Debug)]
pub struct SimParams {
    pub link: LinkConfig,
    pub dc: DcConfig,
    /// Maintenance cadence (loadAll granularity is `dc.load_interval`).
    pub tick: SimDuration,
    /// Measurement sampling period.
    pub sample: SimDuration,
    /// Local disk bandwidth for (re-)loads; the paper quotes 400 MB/s as
    /// the RAID reference point.
    pub disk_bytes_per_sec: f64,
    /// Cores per node (`None` = ample cores, §5.1–§5.3 model).
    pub cores_per_node: Option<usize>,
    /// Hard stop: queries unfinished by then count as failed.
    pub horizon: SimDuration,
}

impl Default for SimParams {
    fn default() -> Self {
        let dc = DcConfig::default();
        SimParams {
            link: LinkConfig {
                bandwidth_bps: 10_000_000_000,
                delay: SimDuration::from_micros(350),
                queue_capacity_bytes: dc.queue_capacity,
            },
            dc,
            tick: SimDuration::from_millis(50),
            sample: SimDuration::from_secs(1),
            disk_bytes_per_sec: 400.0 * 1024.0 * 1024.0,
            cores_per_node: None,
            horizon: SimDuration::from_secs(1_000),
        }
    }
}

impl SimParams {
    /// Fixed-LOIT variant for the §5.1 sweep.
    pub fn with_fixed_loit(mut self, loit: f64) -> Self {
        self.dc = self.dc.with_fixed_loit(loit);
        self
    }

    /// Keep link queue and DC queue capacities consistent.
    pub fn with_queue_capacity(mut self, bytes: u64) -> Self {
        self.dc.queue_capacity = bytes;
        self.link.queue_capacity_bytes = bytes;
        self
    }
}

enum Ev {
    Arrive(usize),
    BatMsg {
        node: usize,
        header: BatHeader,
    },
    ReqMsg {
        node: usize,
        req: ReqMsg,
    },
    DiskLoaded {
        node: usize,
        bat: BatId,
    },
    /// Per-BAT processing finished (PerBat model).
    ProcDone {
        q: usize,
        need_idx: usize,
    },
    /// Operator segment finished (PinSchedule model).
    SegDone {
        q: usize,
        seg: usize,
    },
    Tick {
        node: usize,
    },
    Sample,
    /// §6.3 pulsating rings: grow the ring by one node ("thrown back in
    /// when they are needed for their storage and processing resources").
    Grow,
}

struct SimNode {
    dc: DcNode,
    /// Clockwise data link to the successor.
    data: Link,
    /// Anti-clockwise request link to the predecessor.
    req: Link,
    cores: Option<CoreSched>,
    disk_free: SimTime,
}

struct QueryState {
    outstanding: usize,
    finished: bool,
    failed: bool,
}

/// §6.1 parent-query accounting when intra-query splitting is active:
/// the driver runs the *parts* as ordinary queries; measurements are
/// recorded once per *parent*, at its last part's completion plus the
/// intermediate-result combination cost.
struct SplitTracker {
    map: SplitMap,
    remaining: Vec<usize>,
    parent_failed: Vec<bool>,
    completed_parents: usize,
    failed_parents: usize,
}

impl SplitTracker {
    fn new(map: SplitMap) -> Self {
        let remaining = map.parts_of_parent.clone();
        let parent_failed = vec![false; map.parts_of_parent.len()];
        SplitTracker { map, remaining, parent_failed, completed_parents: 0, failed_parents: 0 }
    }
}

/// The simulated ring.
pub struct RingSim {
    params: SimParams,
    nodes: Vec<SimNode>,
    dataset: Dataset,
    queries: Vec<QuerySpec>,
    qstate: Vec<QueryState>,
    events: EventQueue<Ev>,
    /// Blocked pins per (node, bat): (query idx, need idx).
    blocked: HashMap<(usize, u32), Vec<(usize, usize)>>,
    /// Optional workload tag attribution for BATs (Fig. 8a).
    bat_tag: Option<Box<dyn Fn(BatId) -> Option<u32> + Send>>,
    split: Option<SplitTracker>,
    /// Every node of the run counts into this one registry, so it holds
    /// the ring-wide totals (`m.stats` reads them).
    obs: dc_obs::Registry,
    m: Measurements,
    registered_so_far: usize,
    completed: usize,
    failed: usize,
}

impl RingSim {
    pub fn new(nodes: usize, dataset: Dataset, queries: Vec<QuerySpec>, params: SimParams) -> Self {
        assert!(nodes >= 2, "a storage ring needs at least two nodes");
        assert_eq!(
            params.link.queue_capacity_bytes, params.dc.queue_capacity,
            "link and DC queue capacities must agree"
        );
        let obs = dc_obs::Registry::new(0);
        let mut sim_nodes = Vec::with_capacity(nodes);
        for i in 0..nodes {
            let mut dc = DcNode::new(NodeId(i as u16), params.dc.clone(), &obs);
            for (b, (&size, &owner)) in dataset.sizes.iter().zip(dataset.owners.iter()).enumerate()
            {
                if owner == i {
                    dc.register_owned(BatId(b as u32), size);
                }
            }
            sim_nodes.push(SimNode {
                dc,
                data: Link::new(params.link),
                req: Link::new(params.link),
                cores: params.cores_per_node.map(CoreSched::new),
                disk_free: SimTime::ZERO,
            });
        }
        let mut events = EventQueue::new();
        for (q, spec) in queries.iter().enumerate() {
            spec.validate().expect("invalid query spec");
            assert!(spec.node < nodes, "query placed on nonexistent node");
            events.schedule(spec.arrival, Ev::Arrive(q));
        }
        // Stagger ticks so node maintenance does not synchronize.
        for i in 0..nodes {
            let offset = SimDuration(params.tick.0 * i as u64 / nodes as u64);
            events.schedule(SimTime::ZERO + offset, Ev::Tick { node: i });
        }
        events.schedule(SimTime::ZERO + params.sample, Ev::Sample);

        let qstate = queries
            .iter()
            .map(|s| QueryState { outstanding: s.needs.len(), finished: false, failed: false })
            .collect();

        RingSim {
            params,
            nodes: sim_nodes,
            dataset,
            queries,
            qstate,
            events,
            blocked: HashMap::new(),
            bat_tag: None,
            split: None,
            m: Measurements::new(NodeStats::register(&obs)),
            obs,
            registered_so_far: 0,
            completed: 0,
            failed: 0,
        }
    }

    /// §6.1 intra-query parallelism: split every query into owner-affine
    /// sub-queries (see [`split::split_queries`]) and account lifetimes
    /// per *parent* query. Apply this directly after [`RingSim::new`] —
    /// it rebuilds the event schedule, so earlier [`Self::with_growth`]
    /// calls would be lost (a tagger is carried over).
    pub fn with_split(self, params: SplitParams) -> Self {
        assert_eq!(
            self.registered_so_far, 0,
            "with_split must be applied before the simulation runs"
        );
        let nodes = self.nodes.len();
        let (parts, map) = split::split_queries(&self.queries, &self.dataset, &params);
        let mut sim = RingSim::new(nodes, self.dataset, parts, self.params);
        sim.bat_tag = self.bat_tag;
        sim.split = Some(SplitTracker::new(map));
        sim
    }

    /// §6.3 pulsating rings: schedule one ring-growth event per entry —
    /// at each time a fresh node (owning no data) joins between the
    /// current tail and node 0. "Updates to the ring are localized to
    /// its two (envisioned) neighbors": messages already in flight keep
    /// their destinations; only the succ/pred mapping changes.
    pub fn with_growth(mut self, times: &[SimTime]) -> Self {
        for &t in times {
            self.events.schedule(t, Ev::Grow);
        }
        self
    }

    fn grow(&mut self, now: SimTime) {
        let id = self.nodes.len();
        let mut dc = DcNode::new(NodeId(id as u16), self.params.dc.clone(), &self.obs);
        dc.set_time(now);
        self.nodes.push(SimNode {
            dc,
            data: Link::new(self.params.link),
            req: Link::new(self.params.link),
            cores: self.params.cores_per_node.map(CoreSched::new),
            disk_free: now,
        });
        self.events.schedule(now + self.params.tick, Ev::Tick { node: id });
        self.m.ring_sizes.push(now, self.nodes.len() as f64);
    }

    /// Attribute ring space to workload tags (Fig. 8a).
    pub fn with_bat_tagger(mut self, f: impl Fn(BatId) -> Option<u32> + Send + 'static) -> Self {
        self.bat_tag = Some(Box::new(f));
        self
    }

    fn succ(&self, n: usize) -> usize {
        (n + 1) % self.nodes.len()
    }

    fn pred(&self, n: usize) -> usize {
        (n + self.nodes.len() - 1) % self.nodes.len()
    }

    /// Synchronize a node's clock before a handler runs.
    fn sync(&mut self, n: usize, now: SimTime) {
        self.nodes[n].dc.set_time(now);
    }

    /// Run to completion (all queries finished/failed) or the horizon.
    pub fn run(mut self) -> Measurements {
        let total = self.queries.len();
        let horizon = SimTime::ZERO + self.params.horizon;
        let mut last_now = SimTime::ZERO;
        while let Some((now, ev)) = self.events.pop() {
            last_now = now;
            if now > horizon {
                break;
            }
            self.dispatch(now, ev);
            if self.completed + self.failed == total {
                break;
            }
        }
        self.finalize(last_now);
        self.m
    }

    fn dispatch(&mut self, now: SimTime, ev: Ev) {
        match ev {
            Ev::Arrive(q) => self.on_arrive(now, q),
            Ev::BatMsg { node, header } => {
                self.sync(node, now);
                let effects = self.nodes[node].dc.on_bat(header, true);
                self.apply(now, node, effects);
            }
            Ev::ReqMsg { node, req } => {
                self.sync(node, now);
                let effects = self.nodes[node].dc.on_request(req);
                self.apply(now, node, effects);
            }
            Ev::DiskLoaded { node, bat } => {
                self.sync(node, now);
                let effects = self.nodes[node].dc.bat_loaded(bat);
                self.apply(now, node, effects);
            }
            Ev::ProcDone { q, need_idx } => self.on_proc_done(now, q, need_idx),
            Ev::SegDone { q, seg } => self.on_seg_done(now, q, seg),
            Ev::Tick { node } => {
                self.sync(node, now);
                let effects = self.nodes[node].dc.tick();
                self.apply(now, node, effects);
                self.events.schedule(now + self.params.tick, Ev::Tick { node });
            }
            Ev::Sample => {
                self.sample(now);
                self.events.schedule(now + self.params.sample, Ev::Sample);
            }
            Ev::Grow => self.grow(now),
        }
    }

    fn on_arrive(&mut self, now: SimTime, q: usize) {
        // Under §6.1 splitting, the registered series counts parents
        // (one primary part each), not parts.
        if self.split.as_ref().is_none_or(|t| t.map.is_primary[q]) {
            self.registered_so_far += 1;
            self.m.registered.push(now, self.registered_so_far as f64);
        }
        let spec = self.queries[q].clone();
        let node = spec.node;
        let qid = QueryId(q as u64);
        self.sync(node, now);
        // Requests for the whole footprint go out immediately (the DC
        // optimizer hoists them, §4.1).
        for &bat in &spec.needs {
            let effects = self.nodes[node].dc.local_request(qid, bat);
            self.apply(now, node, effects);
        }
        match &spec.model {
            ExecModel::PerBat { proc } => {
                // All pins issue concurrently (dataflow threads).
                for (i, &bat) in spec.needs.iter().enumerate() {
                    let (outcome, effects) = self.nodes[node].dc.pin(qid, bat);
                    self.apply(now, node, effects);
                    match outcome {
                        PinOutcome::OwnedLocal | PinOutcome::Cached => {
                            self.events.schedule(now + proc[i], Ev::ProcDone { q, need_idx: i });
                        }
                        PinOutcome::MustWait => {
                            self.blocked.entry((node, bat.0)).or_default().push((q, i));
                        }
                    }
                }
            }
            ExecModel::PinSchedule { segments } => {
                // First operator segment runs before the first pin.
                let end = self.schedule_segment(node, now, segments[0]);
                self.events.schedule(end, Ev::SegDone { q, seg: 0 });
            }
        }
    }

    /// PerBat: one fragment fully processed.
    fn on_proc_done(&mut self, now: SimTime, q: usize, need_idx: usize) {
        let spec = &self.queries[q];
        let node = spec.node;
        let bat = spec.needs[need_idx];
        let qid = QueryId(q as u64);
        self.sync(node, now);
        let effects = self.nodes[node].dc.unpin(qid, bat);
        self.apply(now, node, effects);
        let st = &mut self.qstate[q];
        st.outstanding -= 1;
        if st.outstanding == 0 && !st.finished {
            self.finish_query(now, q);
        }
    }

    /// PinSchedule: an operator segment completed; issue the next pin or
    /// finish.
    fn on_seg_done(&mut self, now: SimTime, q: usize, seg: usize) {
        let spec = self.queries[q].clone();
        let node = spec.node;
        let qid = QueryId(q as u64);
        let ExecModel::PinSchedule { segments } = &spec.model else {
            unreachable!("SegDone only fires for PinSchedule queries")
        };
        if seg == spec.needs.len() {
            // Final segment done: the query is finished.
            self.sync(node, now);
            for &bat in &spec.needs {
                let effects = self.nodes[node].dc.unpin(qid, bat);
                self.apply(now, node, effects);
            }
            self.finish_query(now, q);
            return;
        }
        // Pin the next fragment.
        let bat = spec.needs[seg];
        self.sync(node, now);
        let (outcome, effects) = self.nodes[node].dc.pin(qid, bat);
        self.apply(now, node, effects);
        match outcome {
            PinOutcome::OwnedLocal | PinOutcome::Cached => {
                let end = self.schedule_segment(node, now, segments[seg + 1]);
                self.events.schedule(end, Ev::SegDone { q, seg: seg + 1 });
            }
            PinOutcome::MustWait => {
                self.blocked.entry((node, bat.0)).or_default().push((q, seg));
            }
        }
    }

    fn schedule_segment(&mut self, node: usize, ready: SimTime, dur: SimDuration) -> SimTime {
        match &mut self.nodes[node].cores {
            Some(c) => c.schedule(ready, dur),
            None => ready + dur,
        }
    }

    fn finish_query(&mut self, now: SimTime, q: usize) {
        let st = &mut self.qstate[q];
        if st.finished || st.failed {
            return;
        }
        st.finished = true;
        self.completed += 1;
        // Measurement: per query, or — under §6.1 splitting — per
        // parent at its last part, plus the combination cost of merging
        // the parts' intermediate results (charged to the lifetime; the
        // cumulative series stays timestamp-monotone at `now`).
        match &mut self.split {
            None => {
                let spec = &self.queries[q];
                let lifetime = now.since(spec.arrival).as_secs_f64();
                self.m.lifetimes.push((spec.arrival.as_secs_f64(), lifetime, spec.tag));
                self.m.finished.push(now, self.completed as f64);
                let tag_series = self.m.finished_by_tag.entry(spec.tag).or_default();
                let next = tag_series.last_value().unwrap_or(0.0) + 1.0;
                tag_series.push(now, next);
            }
            Some(tr) => {
                let parent = tr.map.parent_of[q];
                tr.remaining[parent] -= 1;
                if tr.remaining[parent] == 0 && !tr.parent_failed[parent] {
                    tr.completed_parents += 1;
                    let done = now + tr.map.merge_cost_of(parent);
                    let arrival = tr.map.parent_arrival[parent];
                    let tag = tr.map.parent_tag[parent];
                    let lifetime = done.since(arrival).as_secs_f64();
                    self.m.lifetimes.push((arrival.as_secs_f64(), lifetime, tag));
                    self.m.finished.push(now, tr.completed_parents as f64);
                    let tag_series = self.m.finished_by_tag.entry(tag).or_default();
                    let next = tag_series.last_value().unwrap_or(0.0) + 1.0;
                    tag_series.push(now, next);
                }
            }
        }
        let node = self.queries[q].node;
        let qid = QueryId(q as u64);
        let effects = self.nodes[node].dc.query_done(qid);
        self.apply(now, node, effects);
    }

    fn fail_query(&mut self, now: SimTime, q: usize) {
        let st = &mut self.qstate[q];
        if st.finished || st.failed {
            return;
        }
        st.failed = true;
        self.failed += 1;
        if let Some(tr) = &mut self.split {
            let parent = tr.map.parent_of[q];
            if !tr.parent_failed[parent] {
                tr.parent_failed[parent] = true;
                tr.failed_parents += 1;
            }
        }
        let node = self.queries[q].node;
        let effects = self.nodes[node].dc.query_done(QueryId(q as u64));
        self.apply(now, node, effects);
    }

    fn apply(&mut self, now: SimTime, node: usize, effects: Vec<Effect>) {
        for e in effects {
            match e {
                Effect::SendBat { header: h, .. } => {
                    let succ = self.succ(node);
                    match self.nodes[node].data.enqueue(now, h.wire_size()) {
                        EnqueueOutcome::Accepted { arrives, .. } => {
                            self.events.schedule(arrives, Ev::BatMsg { node: succ, header: h });
                        }
                        EnqueueOutcome::Dropped => {
                            self.m.bat_drops += 1;
                        }
                    }
                }
                Effect::SendRequest(r) => {
                    let pred = self.pred(node);
                    match self.nodes[node].req.enqueue(now, datacyclotron::msg::REQUEST_WIRE_BYTES)
                    {
                        EnqueueOutcome::Accepted { arrives, .. } => {
                            self.events.schedule(arrives, Ev::ReqMsg { node: pred, req: r });
                        }
                        EnqueueOutcome::Dropped => {
                            self.m.request_drops += 1;
                        }
                    }
                }
                Effect::LoadFromDisk { bat, size } => {
                    let n = &mut self.nodes[node];
                    let dur =
                        SimDuration::from_secs_f64(size as f64 / self.params.disk_bytes_per_sec);
                    let start = n.disk_free.max(now);
                    let done = start + dur;
                    n.disk_free = done;
                    self.events.schedule(done, Ev::DiskLoaded { node, bat });
                }
                Effect::Deliver { header, queries } => {
                    self.deliver(now, node, header, &queries);
                }
                Effect::Unload(_) | Effect::CacheInsert(_) | Effect::CacheEvict(_) => {}
                Effect::QueryError { queries, .. } => {
                    for qid in queries {
                        self.fail_query(now, qid.0 as usize);
                    }
                }
            }
        }
    }

    fn deliver(&mut self, now: SimTime, node: usize, header: BatHeader, queries: &[QueryId]) {
        let Some(waiters) = self.blocked.remove(&(node, header.bat.0)) else {
            return;
        };
        let (served, kept): (Vec<_>, Vec<_>) =
            waiters.into_iter().partition(|&(q, _)| queries.contains(&QueryId(q as u64)));
        if !kept.is_empty() {
            self.blocked.insert((node, header.bat.0), kept);
        }
        for (q, need_idx) in served {
            let spec = self.queries[q].clone();
            match &spec.model {
                ExecModel::PerBat { proc } => {
                    self.events.schedule(now + proc[need_idx], Ev::ProcDone { q, need_idx });
                }
                ExecModel::PinSchedule { segments } => {
                    // The pin at `need_idx` unblocked: run the next segment.
                    let end = self.schedule_segment(node, now, segments[need_idx + 1]);
                    self.events.schedule(end, Ev::SegDone { q, seg: need_idx + 1 });
                }
            }
        }
    }

    fn sample(&mut self, now: SimTime) {
        let (mut bytes, mut count) = (0u64, 0usize);
        let mut by_tag: HashMap<u32, u64> = HashMap::new();
        for n in &self.nodes {
            for (bat, owned) in n.dc.s1.iter() {
                if matches!(owned.state, OwnedState::InRing { .. } | OwnedState::Loading) {
                    bytes += owned.size;
                    count += 1;
                    if let Some(tagger) = &self.bat_tag {
                        if let Some(t) = tagger(bat) {
                            *by_tag.entry(t).or_default() += owned.size;
                        }
                    }
                }
            }
        }
        self.m.ring_bytes.push(now, bytes as f64);
        self.m.ring_bats.push(now, count as f64);
        if self.bat_tag.is_some() {
            for (t, b) in by_tag {
                self.m.ring_bytes_by_tag.entry(t).or_default().push(now, b as f64);
            }
        }
    }

    fn finalize(&mut self, now: SimTime) {
        // Fail anything still outstanding (horizon cut-off).
        for q in 0..self.queries.len() {
            if !self.qstate[q].finished && !self.qstate[q].failed {
                self.fail_query(now, q);
            }
        }
        self.sample(now);
        match &self.split {
            Some(tr) => {
                self.m.completed = tr.completed_parents;
                self.m.failed = tr.failed_parents;
            }
            None => {
                self.m.completed = self.completed;
                self.m.failed = self.failed;
            }
        }
        self.m.makespan = self.m.lifetimes.iter().map(|&(a, l, _)| a + l).fold(0.0, f64::max);

        // Per-BAT owner tallies.
        let n_bats = self.dataset.len();
        self.m.bat_touches = vec![0; n_bats];
        self.m.bat_requests = vec![0; n_bats];
        self.m.bat_loads = vec![0; n_bats];
        self.m.bat_max_cycles = vec![0; n_bats];
        for n in &self.nodes {
            for (bat, owned) in n.dc.s1.iter() {
                let i = bat.0 as usize;
                self.m.bat_touches[i] += owned.touches;
                self.m.bat_requests[i] += owned.requests_seen;
                self.m.bat_loads[i] += owned.loads as u64;
                self.m.bat_max_cycles[i] = self.m.bat_max_cycles[i].max(owned.max_cycles);
            }
            for (&bat, &lat) in &n.dc.max_request_latency {
                let slot = self.m.max_request_latency.entry(bat.0).or_insert(0.0);
                *slot = slot.max(lat.as_secs_f64());
            }
        }

        // CPU utilization against the makespan (bounded-cores runs).
        if self.params.cores_per_node.is_some() && self.m.makespan > 0.0 {
            let makespan = SimDuration::from_secs_f64(self.m.makespan);
            let total: f64 = self
                .nodes
                .iter()
                .filter_map(|n| n.cores.as_ref().map(|c| c.utilization(makespan)))
                .sum();
            self.m.cpu_utilization = total / self.nodes.len() as f64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_workloads::micro::{self, MicroParams};

    fn small_dataset(nodes: usize) -> Dataset {
        Dataset::uniform(40, 200 << 20, 2 << 20, 8 << 20, nodes, 7)
    }

    fn small_params() -> SimParams {
        SimParams::default().with_queue_capacity(64 << 20)
    }

    #[test]
    fn all_queries_complete_small_uniform() {
        let nodes = 4;
        let ds = small_dataset(nodes);
        let qs = micro::generate(
            &MicroParams {
                queries_per_second_per_node: 5.0,
                duration: SimDuration::from_secs(4),
                ..MicroParams::default()
            },
            &ds,
            nodes,
            3,
        );
        let total = qs.len();
        assert_eq!(total, 80);
        let m = RingSim::new(nodes, ds, qs, small_params()).run();
        assert_eq!(m.completed, total, "failed={} drops={}", m.failed, m.bat_drops);
        assert_eq!(m.failed, 0);
        assert!(m.makespan > 0.0);
        assert!(m.mean_lifetime() > 0.1, "lifetime must include processing");
    }

    #[test]
    fn deterministic_runs() {
        let nodes = 3;
        let mk = || {
            let ds = small_dataset(nodes);
            let qs = micro::generate(
                &MicroParams {
                    queries_per_second_per_node: 4.0,
                    duration: SimDuration::from_secs(3),
                    ..MicroParams::default()
                },
                &ds,
                nodes,
                11,
            );
            RingSim::new(nodes, ds, qs, small_params()).run()
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.lifetimes, b.lifetimes, "simulation must be deterministic");
        assert_eq!(a.ring_bytes.points, b.ring_bytes.points);
    }

    #[test]
    fn ring_wide_request_latency_is_the_maximum_over_nodes() {
        // Fig. 10 plots, per BAT, the longest wait any requester saw.
        let nodes = 3;
        let mut sim = RingSim::new(nodes, small_dataset(nodes), Vec::new(), small_params());
        let ms = SimDuration::from_millis;
        sim.nodes[0].dc.max_request_latency.extend([(BatId(1), ms(240)), (BatId(2), ms(50))]);
        sim.nodes[2].dc.max_request_latency.extend([(BatId(1), ms(100)), (BatId(3), ms(700))]);
        sim.finalize(SimTime::ZERO);
        let want = std::collections::BTreeMap::from([(1, 0.24), (2, 0.05), (3, 0.7)]);
        assert_eq!(sim.m.max_request_latency, want);
    }

    #[test]
    fn hot_set_occupies_ring() {
        let nodes = 4;
        let ds = small_dataset(nodes);
        let qs = micro::generate(
            &MicroParams {
                queries_per_second_per_node: 10.0,
                duration: SimDuration::from_secs(5),
                ..MicroParams::default()
            },
            &ds,
            nodes,
            5,
        );
        let m = RingSim::new(nodes, ds, qs, small_params()).run();
        let peak = m.ring_bytes.points.iter().map(|&(_, v)| v).fold(0.0, f64::max);
        assert!(peak > 10_000_000.0, "hot set never built up: peak={peak}");
        assert!(m.stats.bats_loaded.get() > 0);
        assert!(m.stats.bats_forwarded.get() > 0);
    }

    #[test]
    fn overloaded_dynamic_ladder_counts_its_transitions() {
        // Queues a few fragments deep: owners fill past the high
        // watermark, and the default §5.2 ladder has to climb.
        let nodes = 4;
        let ds = small_dataset(nodes);
        let qs = micro::generate(
            &MicroParams {
                queries_per_second_per_node: 10.0,
                duration: SimDuration::from_secs(4),
                ..MicroParams::default()
            },
            &ds,
            nodes,
            5,
        );
        let params = SimParams::default().with_queue_capacity(16 << 20);
        assert!(params.dc.loit_levels.len() > 1, "the default ladder is dynamic");
        let m = RingSim::new(nodes, ds, qs, params).run();
        assert!(m.stats.loit_transitions.get() > 0, "the ladder never moved");
    }

    #[test]
    fn request_latency_recorded() {
        let nodes = 3;
        let ds = small_dataset(nodes);
        let qs = micro::generate(
            &MicroParams {
                queries_per_second_per_node: 3.0,
                duration: SimDuration::from_secs(2),
                ..MicroParams::default()
            },
            &ds,
            nodes,
            5,
        );
        let m = RingSim::new(nodes, ds, qs, small_params()).run();
        assert!(!m.max_request_latency.is_empty());
        for (_, &lat) in m.max_request_latency.iter() {
            assert!((0.0..60.0).contains(&lat), "latency {lat}");
        }
    }

    #[test]
    fn pin_schedule_model_with_cores() {
        use dc_workloads::spec::{ExecModel, QuerySpec};
        let nodes = 2;
        let ds = Dataset::uniform(6, 24 << 20, 2 << 20, 6 << 20, nodes, 1);
        // One query per node pinning two remote fragments sequentially.
        let mut qs = Vec::new();
        for node in 0..nodes {
            let remote = ds.remote_bats(node);
            qs.push(QuerySpec {
                arrival: SimTime::from_millis(10 * node as u64),
                node,
                needs: vec![remote[0], remote[1]],
                model: ExecModel::PinSchedule {
                    segments: vec![
                        SimDuration::from_millis(50),
                        SimDuration::from_millis(100),
                        SimDuration::from_millis(200),
                    ],
                },
                tag: 1,
            });
        }
        let mut params = small_params();
        params.cores_per_node = Some(4);
        let m = RingSim::new(nodes, ds, qs, params).run();
        assert_eq!(m.completed, 2);
        assert!(m.cpu_utilization > 0.0 && m.cpu_utilization <= 1.0);
        // Lifetime at least the net work (350 ms).
        for &(_, l, _) in &m.lifetimes {
            assert!(l >= 0.35, "lifetime {l}");
        }
    }

    #[test]
    fn tagged_ring_space_tracked() {
        let nodes = 3;
        let ds = small_dataset(nodes);
        let qs = micro::generate(
            &MicroParams {
                queries_per_second_per_node: 30.0,
                duration: SimDuration::from_secs(3),
                ..MicroParams::default()
            },
            &ds,
            nodes,
            9,
        );
        // Sample densely: in a small fast ring the hot set lives only a
        // few cycles (tens of milliseconds) after interest fades.
        let mut params = small_params();
        params.sample = SimDuration::from_millis(20);
        let m = RingSim::new(nodes, ds, qs, params).with_bat_tagger(|b| Some(b.0 % 2)).run();
        assert!(m.ring_bytes_by_tag.contains_key(&0));
        assert!(m.ring_bytes_by_tag.contains_key(&1));
    }

    #[test]
    #[should_panic(expected = "at least two nodes")]
    fn rejects_single_node_ring() {
        let ds = small_dataset(1);
        let _ = RingSim::new(1, ds, vec![], small_params());
    }

    #[test]
    fn pulsating_ring_grows_mid_run() {
        let nodes = 3;
        let ds = small_dataset(nodes);
        let qs = micro::generate(
            &MicroParams {
                queries_per_second_per_node: 10.0,
                duration: SimDuration::from_secs(6),
                ..MicroParams::default()
            },
            &ds,
            nodes,
            31,
        );
        let total = qs.len();
        let m = RingSim::new(nodes, ds, qs, small_params())
            .with_growth(&[SimTime::from_secs(2), SimTime::from_secs(4)])
            .run();
        assert_eq!(m.completed, total, "growth must not lose queries (failed={})", m.failed);
        let sizes: Vec<f64> = m.ring_sizes.points.iter().map(|&(_, v)| v).collect();
        assert_eq!(sizes, vec![4.0, 5.0], "two growth events recorded");
    }

    #[test]
    fn grown_node_participates_in_forwarding() {
        let nodes = 2;
        let ds = small_dataset(nodes);
        // Steady traffic well past the growth instant.
        let qs = micro::generate(
            &MicroParams {
                queries_per_second_per_node: 15.0,
                duration: SimDuration::from_secs(8),
                ..MicroParams::default()
            },
            &ds,
            nodes,
            33,
        );
        let total = qs.len();
        let sim =
            RingSim::new(nodes, ds, qs, small_params()).with_growth(&[SimTime::from_millis(500)]);
        let m = sim.run();
        assert_eq!(m.completed, total);
        // The joined node sits on the data path 2→0, so it must have
        // forwarded BATs (it owns nothing, so forwards are its only role).
        assert!(
            m.stats.bats_forwarded.get() > 0,
            "ring-wide forwarding must include the new node's hops"
        );
    }

    #[test]
    fn split_queries_complete_once_per_parent() {
        let nodes = 4;
        let ds = small_dataset(nodes);
        let qs = micro::generate(
            &MicroParams {
                queries_per_second_per_node: 6.0,
                duration: SimDuration::from_secs(4),
                ..MicroParams::default()
            },
            &ds,
            nodes,
            21,
        );
        let total = qs.len();
        let m =
            RingSim::new(nodes, ds, qs, small_params()).with_split(SplitParams::default()).run();
        // Exactly one lifetime per parent, never per part.
        assert_eq!(m.completed, total, "failed={}", m.failed);
        assert_eq!(m.lifetimes.len(), total);
        assert_eq!(m.failed, 0);
        // The registered series counts parents too.
        assert_eq!(m.registered.last_value(), Some(total as f64));
        assert_eq!(m.finished.last_value(), Some(total as f64));
    }

    #[test]
    fn splitting_reduces_ring_traffic() {
        let nodes = 4;
        let ds = small_dataset(nodes);
        let qs = micro::generate(
            &MicroParams {
                queries_per_second_per_node: 6.0,
                duration: SimDuration::from_secs(4),
                ..MicroParams::default()
            },
            &ds,
            nodes,
            23,
        );
        let unsplit = RingSim::new(nodes, ds.clone(), qs.clone(), small_params()).run();
        let split =
            RingSim::new(nodes, ds, qs, small_params()).with_split(SplitParams::default()).run();
        assert_eq!(unsplit.completed, split.completed);
        // Owner-affine parts pin locally: fewer fragments ever need the
        // ring. (The micro workload requests remote BATs only, so the
        // unsplit run requests every pinned fragment.)
        assert!(
            split.stats.requests_dispatched.get() < unsplit.stats.requests_dispatched.get() / 2,
            "split {} vs unsplit {}",
            split.stats.requests_dispatched.get(),
            unsplit.stats.requests_dispatched.get()
        );
    }

    #[test]
    fn split_lifetime_includes_merge_cost() {
        use dc_workloads::spec::{ExecModel, QuerySpec};
        let nodes = 2;
        // Both fragments owned by distinct nodes; the query splits into
        // two local parts with 100 ms processing each, so the parent
        // lifetime is 100 ms + one merge step.
        let ds = Dataset { sizes: vec![1 << 20, 1 << 20], owners: vec![0, 1] };
        let q = QuerySpec {
            arrival: SimTime::ZERO,
            node: 0,
            needs: vec![BatId(0), BatId(1)],
            model: ExecModel::PerBat { proc: vec![SimDuration::from_millis(100); 2] },
            tag: 0,
        };
        let merge = SimDuration::from_millis(40);
        let m = RingSim::new(nodes, ds, vec![q], small_params())
            .with_split(SplitParams { max_parts: 4, merge_cost: merge })
            .run();
        assert_eq!(m.completed, 1);
        let (_, life, _) = m.lifetimes[0];
        assert!((life - 0.140).abs() < 1e-9, "lifetime {life}");
    }

    #[test]
    fn split_completes_a_micro_workload() {
        let nodes = 4;
        let ds = small_dataset(nodes);
        let qs = micro::generate(
            &MicroParams {
                queries_per_second_per_node: 5.0,
                duration: SimDuration::from_secs(3),
                ..MicroParams::default()
            },
            &ds,
            nodes,
            29,
        );
        let total = qs.len();
        let m =
            RingSim::new(nodes, ds, qs, small_params()).with_split(SplitParams::default()).run();
        assert_eq!(m.completed, total);
    }

    #[test]
    fn split_is_deterministic() {
        let nodes = 3;
        let mk = || {
            let ds = small_dataset(nodes);
            let qs = micro::generate(
                &MicroParams {
                    queries_per_second_per_node: 4.0,
                    duration: SimDuration::from_secs(3),
                    ..MicroParams::default()
                },
                &ds,
                nodes,
                11,
            );
            RingSim::new(nodes, ds, qs, small_params()).with_split(SplitParams::default()).run()
        };
        let (a, b) = (mk(), mk());
        assert_eq!(a.lifetimes, b.lifetimes);
        assert_eq!(a.stats.requests_dispatched.get(), b.stats.requests_dispatched.get());
    }
}
