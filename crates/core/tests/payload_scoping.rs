//! "Payloads follow requests" (the three rules in `datacyclotron::proto`)
//! checked on whole rings.
//!
//! First without threads: 3–6 [`DcNode`]s and the FIFO links between
//! them, stepped by a proptest that draws the owner, who asks when, the
//! order in which frames arrive and — optionally — one frame to lose.
//! Every case runs twice: over links that honour the protocol's payload
//! decision (the live engine), and over links that carry the bytes on
//! every hop and say so on arrival (the simulator: the paper's ring).
//!
//! Then with threads: four engine nodes over the in-memory fabric,
//! counting the bytes each one really received.

use batstore::Column;
use datacyclotron::msg::HEADER_WIRE_BYTES;
use datacyclotron::transport::mem;
use datacyclotron::{
    BatHeader, BatId, DcConfig, DcMsg, DcNode, Effect, NodeId, NodeOptions, PinOutcome, QueryId,
    ReqMsg, RingNode, RingTransport,
};
use dc_obs::Registry;
use netsim::{SimDuration, SimTime};
use proptest::prelude::*;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---- the thread-free ring ---------------------------------------------------

const BAT: BatId = BatId(7);

/// How the links treat [`Effect::SendBat`]'s `payload` flag.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Links {
    /// A frame carries the bytes iff the protocol said so.
    Scoped,
    /// Every frame carries them, whatever the protocol said.
    AlwaysLaden,
}

struct Pin {
    node: usize,
    query: QueryId,
    /// How often the header had left the owner when a request covering
    /// this pin reached it.
    reached_at: Option<u64>,
    served: bool,
}

/// Something in flight that the schedule can let happen next.
#[derive(Clone, Copy)]
enum Item {
    Data(usize),
    Request(usize),
    Load,
    Finish(usize),
}

struct Model {
    nodes: Vec<DcNode>,
    owner: usize,
    links: Links,
    /// Frames on their way to node `i` from its predecessor: the header,
    /// and whether the bytes are with it.
    data_in: Vec<VecDeque<(BatHeader, bool)>>,
    /// Requests on their way to node `i` from its successor.
    req_in: Vec<VecDeque<ReqMsg>>,
    /// The owner was told to `LoadFromDisk` and the disk has not answered.
    loading: bool,
    /// Served pins (by index) whose query has yet to unpin and finish.
    finishing: Vec<usize>,
    pins: Vec<Pin>,
    now: SimTime,
    /// Times the header has left the owner.
    departures: u64,
    /// Node `i`'s request in flight is covered by one the owner has seen.
    reached: Vec<bool>,
    /// Nodes whose request was absorbed at `i`, behind a request of `i`'s
    /// the owner has not seen yet.
    riders: Vec<Vec<usize>>,
    /// Requests node `i` sent in its own name (first sends, take-overs,
    /// re-sends).
    emitted: Vec<u64>,
    /// Payloads that crossed the edge `i → i + 1`.
    laden_crossings: Vec<u64>,
    frames_sent: u64,
    lose_frame: Option<u64>,
    lost: bool,
}

impl Model {
    fn new(n: usize, owner: usize, links: Links, lose_frame: Option<u64>) -> Model {
        let mut nodes: Vec<DcNode> = (0..n)
            .map(|i| DcNode::new(NodeId(i as u16), DcConfig::default(), &Registry::new(0)))
            .collect();
        nodes[owner].register_owned(BAT, 4_000);
        Model {
            nodes,
            owner,
            links,
            data_in: vec![VecDeque::new(); n],
            req_in: vec![VecDeque::new(); n],
            loading: false,
            finishing: Vec::new(),
            pins: Vec::new(),
            now: SimTime::ZERO,
            departures: 0,
            reached: vec![false; n],
            riders: vec![Vec::new(); n],
            emitted: vec![0; n],
            laden_crossings: vec![0; n],
            frames_sent: 0,
            lose_frame,
            lost: false,
        }
    }

    fn n(&self) -> usize {
        self.nodes.len()
    }

    fn advance(&mut self, by: SimDuration) {
        self.now += by;
        for node in &mut self.nodes {
            node.set_time(self.now);
        }
    }

    /// Whether the frame being sent is the one this case loses.
    fn lose(&mut self) -> bool {
        self.frames_sent += 1;
        let lose = self.lose_frame == Some(self.frames_sent);
        self.lost |= lose;
        lose
    }

    /// Requests sent, in their own name, by the nodes the edge `i → i + 1`
    /// leads to before it reaches the owner again.
    fn requests_from_downstream_of(&self, i: usize) -> u64 {
        (1..self.n())
            .map(|d| (i + d) % self.n())
            .take_while(|&j| j != self.owner)
            .map(|j| self.emitted[j])
            .sum()
    }

    /// A request covering node `x`'s waiting pins — its own, or one it
    /// was absorbed behind — is at the owner, the header having left
    /// `departures` times.
    fn stamp(&mut self, x: usize, departures: u64) {
        self.reached[x] = true;
        for pin in self.pins.iter_mut().filter(|p| p.node == x && !p.served) {
            pin.reached_at.get_or_insert(departures);
        }
        for rider in std::mem::take(&mut self.riders[x]) {
            self.stamp(rider, departures);
        }
    }

    /// Carry out node `i`'s effects; `inbound_laden` says whether the
    /// frame that caused them had the bytes.
    fn run(&mut self, i: usize, effects: Vec<Effect>, inbound_laden: bool) {
        let (succ, pred) = ((i + 1) % self.n(), (i + self.n() - 1) % self.n());
        for e in effects {
            match e {
                Effect::SendBat { header, payload } => {
                    if i == self.owner {
                        self.departures += 1;
                    } else {
                        assert!(!payload || inbound_laden, "node {i} has no bytes to attach");
                    }
                    let laden = payload || self.links == Links::AlwaysLaden;
                    if laden {
                        self.laden_crossings[i] += 1;
                    }
                    if self.links == Links::Scoped {
                        // Every payload hop was paid for by a request
                        // from somewhere that hop leads: in particular
                        // none ever crosses the edge into the owner.
                        assert!(
                            self.laden_crossings[i] <= self.requests_from_downstream_of(i),
                            "edge {i}→{succ}: payload {} for {} requests from downstream",
                            self.laden_crossings[i],
                            self.requests_from_downstream_of(i)
                        );
                    }
                    if !self.lose() {
                        self.data_in[succ].push_back((header, laden));
                    }
                }
                Effect::SendRequest(r) => {
                    if r.origin.0 as usize == i {
                        self.emitted[i] += 1;
                        self.reached[i] = false;
                        for riders in &mut self.riders {
                            riders.retain(|&x| x != i);
                        }
                    }
                    if !self.lose() {
                        self.req_in[pred].push_back(r);
                    }
                }
                Effect::LoadFromDisk { bat, .. } => {
                    assert_eq!((i, bat), (self.owner, BAT));
                    self.loading = true;
                }
                Effect::Deliver { header, queries } => {
                    assert!(inbound_laden, "node {i} delivered a fragment it never received");
                    assert_eq!(header.bat, BAT);
                    for q in queries {
                        let idx = self
                            .pins
                            .iter()
                            .position(|p| p.node == i && p.query == q && !p.served)
                            .expect("only waiting pins are delivered to");
                        self.pins[idx].served = true;
                        self.finishing.push(idx);
                        // The payload a request summons leaves the owner
                        // on the header's next pass there — a pin may be
                        // served earlier, by bytes on their way to
                        // somebody else, never later.
                        if let (false, Some(reached_at)) = (self.lost, self.pins[idx].reached_at) {
                            assert!(
                                self.departures <= reached_at + 1,
                                "node {i}: asked at departure {reached_at}, served at {}",
                                self.departures
                            );
                        }
                    }
                }
                Effect::Unload(_) | Effect::CacheInsert(_) | Effect::CacheEvict(_) => {}
                Effect::QueryError { .. } => panic!("the fragment exists: {e:?}"),
            }
        }
    }

    /// A new query at node `i` requests the fragment and pins it.
    fn ask(&mut self, i: usize) {
        let query = QueryId(self.pins.len() as u64 + 1);
        let effects = self.nodes[i].local_request(query, BAT);
        self.run(i, effects, false);
        let (outcome, effects) = self.nodes[i].pin(query, BAT);
        self.run(i, effects, false);
        let waits = outcome == PinOutcome::MustWait;
        let reached_at = (waits && self.reached[i]).then_some(self.departures);
        self.pins.push(Pin { node: i, query, reached_at, served: !waits });
        if !waits {
            self.finishing.push(self.pins.len() - 1);
        }
    }

    fn items(&self) -> Vec<Item> {
        let mut items = Vec::new();
        for i in 0..self.n() {
            if !self.data_in[i].is_empty() {
                items.push(Item::Data(i));
            }
            if !self.req_in[i].is_empty() {
                items.push(Item::Request(i));
            }
        }
        if self.loading {
            items.push(Item::Load);
        }
        items.extend((0..self.finishing.len()).map(Item::Finish));
        items
    }

    fn step(&mut self, item: Item) {
        self.advance(SimDuration::from_micros(1));
        match item {
            Item::Data(i) => {
                let (header, laden) = self.data_in[i].pop_front().expect("listed");
                let effects = self.nodes[i].on_bat(header, laden);
                self.run(i, effects, laden);
                if self.links == Links::AlwaysLaden && i != self.owner {
                    // The paper's ring: whatever passes serves whoever
                    // waits.
                    assert!(self.pins.iter().all(|p| p.node != i || p.served));
                }
            }
            Item::Request(i) => {
                let req = self.req_in[i].pop_front().expect("listed");
                let origin = req.origin.0 as usize;
                if i == self.owner {
                    self.stamp(origin, self.departures);
                }
                let effects = self.nodes[i].on_request(req);
                let absorbed = i != self.owner && !effects.contains(&Effect::SendRequest(req));
                self.run(i, effects, false);
                if absorbed && self.reached[i] {
                    self.stamp(origin, self.departures);
                } else if absorbed {
                    // Behind `i`'s own request: the one it had out, or
                    // the one it just sent to take over.
                    self.riders[i].push(origin);
                }
            }
            Item::Load => {
                self.loading = false;
                let effects = self.nodes[self.owner].bat_loaded(BAT);
                self.run(self.owner, effects, false);
            }
            Item::Finish(k) => {
                let Pin { node, query, .. } = self.pins[self.finishing.swap_remove(k)];
                let effects = self.nodes[node].unpin(query, BAT);
                self.run(node, effects, false);
                let effects = self.nodes[node].query_done(query);
                self.run(node, effects, false);
            }
        }
    }

    fn tick_all(&mut self) {
        for i in 0..self.n() {
            let effects = self.nodes[i].tick();
            self.run(i, effects, false);
        }
    }

    /// Let everything in flight arrive, oldest node first; the header
    /// stops by itself once nobody renews its interest (Fig. 5).
    fn drain(&mut self) {
        for step in 0.. {
            let items = self.items();
            let Some(&item) = items.first() else { return };
            assert!(step < 100_000, "the ring never quiesced");
            self.step(item);
        }
    }

    fn waiting(&self) -> usize {
        self.pins.iter().filter(|p| !p.served).count()
    }

    fn resent(&self) -> u64 {
        self.nodes.iter().map(|n| n.stats.requests_resent.get()).sum()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Whatever the owner, the askers and the arrival order: every pin is
    /// served; without a loss nothing is ever re-sent and a pin is served
    /// by the payload pass its request summoned at the latest; and over
    /// links that honour the decision no payload crosses an edge more
    /// often than somebody downstream of it asked.
    #[test]
    fn every_pin_is_served_and_bytes_go_only_where_asked(
        n in 3usize..=6,
        owner in 0usize..6,
        script in prop::collection::vec((any::<u8>(), any::<u8>()), 1..120),
        lose_frame in (any::<bool>(), 1u64..150).prop_map(|(lossy, k)| lossy.then_some(k)),
    ) {
        for links in [Links::Scoped, Links::AlwaysLaden] {
            let mut ring = Model::new(n, owner % n, links, lose_frame);
            for (step, &(kind, pick)) in script.iter().enumerate() {
                let items = ring.items();
                if kind < 64 || items.is_empty() {
                    ring.ask(pick as usize % n);
                } else {
                    ring.step(items[pick as usize % items.len()]);
                }
                if step % 16 == 15 {
                    ring.tick_all();
                }
            }
            ring.drain();
            if !ring.lost {
                prop_assert_eq!(ring.waiting(), 0, "{:?}: a pin starved with nothing lost", links);
                prop_assert_eq!(ring.resent(), 0, "{:?}", links);
            }
            // One frame was lost: `resend` (Fig. 3) and, if it was the
            // BAT, the owner's lost-BAT clock bring every pin home.
            let resend_timeout = ring.nodes[0].cfg.resend_timeout;
            for _ in 0..8 {
                if ring.waiting() == 0 {
                    break;
                }
                ring.advance(resend_timeout + SimDuration::from_millis(1));
                ring.tick_all();
                ring.drain();
            }
            prop_assert_eq!(ring.waiting(), 0, "{:?}: a pin starved after a lost frame", links);
            if links == Links::Scoped {
                let into_owner = (ring.owner + n - 1) % n;
                prop_assert_eq!(ring.laden_crossings[into_owner], 0);
            }
        }
    }
}

// ---- four engine nodes over the in-memory fabric ------------------------------

/// The node's counter `name` once `done` holds of it (10 s at most).
fn await_counter(node: &RingNode, name: &str, done: impl Fn(u64) -> bool) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let v = node.counter(name).unwrap_or_else(|| panic!("no counter {name}"));
        if done(v) {
            return v;
        }
        assert!(Instant::now() < deadline, "node {}: {name} stuck at {v}", node.id);
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn bytes_reach_the_requester_and_headers_everybody_else() {
    let fabric: Vec<Arc<mem::MemNode>> = mem::ring(4).into_iter().map(Arc::new).collect();
    let nodes: Vec<RingNode> = fabric
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let opts = NodeOptions {
                cfg: DcConfig { load_interval: SimDuration::from_millis(5), ..DcConfig::default() },
                pin_timeout: Duration::from_secs(20),
                ..NodeOptions::default()
            };
            RingNode::spawn(NodeId(i as u16), Arc::clone(t) as Arc<dyn RingTransport>, opts)
        })
        .collect();
    // Node 0 owns the one fragment; clockwise from it sit 1, 2 and 3.
    let column = Column::Int((0..4096).collect());
    let size = batstore::Bat::dense(column.clone()).byte_size() as u64;
    nodes[0].load_table("sys", "t", vec![("x", column)]).unwrap();
    for n in &nodes {
        n.wait_for_table_timeout("sys", "t", Duration::from_secs(10)).unwrap();
    }
    let counter = |i: usize, name: &str| nodes[i].counter(name).unwrap();
    let data_in =
        |i: usize| (counter(i, "obs_ring_data_frames_in"), counter(i, "obs_ring_data_bytes_in"));
    // A projection: an aggregate would run at the owner and pull nothing.
    let sum = |i: usize| {
        let rs = nodes[i].execute("select x from t").unwrap();
        (0..rs.row_count()).map(|r| rs.cell(r, 0).as_i64().unwrap()).sum::<i64>()
    };
    let total: i64 = (0..4096).sum();
    // The fragment's time in the ring is over once its owner unloads it.
    let unloaded = |times: u64| await_counter(&nodes[0], "bats_unloaded", |v| v >= times);
    let base: Vec<_> = (0..4).map(data_in).collect();

    // Asked from distance 1, the bytes make one hop; the header goes on
    // alone, cycle after cycle, until Fig. 5 takes it out.
    assert_eq!(sum(1), total);
    unloaded(1);
    assert!(data_in(1).1 - base[1].1 > size, "the requester got the payload");
    for i in [2, 3] {
        let (frames, bytes) = (data_in(i).0 - base[i].0, data_in(i).1 - base[i].1);
        assert!(frames > 0, "node {i}: the header makes every hop");
        assert_eq!(bytes, frames * HEADER_WIRE_BYTES, "node {i} got {frames} headers, no bytes");
    }
    // (The table's catalog gossip may still have been on its last hop
    // when the owner's base was read, hence no exact count here.)
    assert!(data_in(0).1 - base[0].1 < size, "the owner is not sent what it holds");
    for i in 0..4 {
        // The load went out laden; nothing anybody forwarded since was.
        assert_eq!(counter(i, "bytes_forwarded"), 0, "node {i}");
        let header_only = counter(i, "obs_ring_bat_frames_header_only");
        assert_eq!(header_only, counter(i, "bats_forwarded"), "node {i}");
    }

    // Asked from distance 3, the request marks nodes 2 and 1 on its way
    // to the owner and the bytes follow it back: no re-send needed.
    let before = data_in(3).1;
    assert_eq!(sum(3), total);
    unloaded(2);
    assert!(data_in(3).1 - before > size);
    for i in 0..4 {
        let (resent, lost) = (counter(i, "requests_resent"), counter(i, "bats_lost"));
        assert_eq!((resent, lost), (0, 0), "node {i}");
    }
    // Both payloads left the owner as loads; after that 0→1 the first
    // time, 0→1→2→3 the second: two hops were forwards.
    let forwarded: Vec<u64> = (0..4).map(|i| counter(i, "bytes_forwarded")).collect();
    assert_eq!(forwarded, [0, size, size, 0]);

    // A header nobody can vouch for, injected between nodes 1 and 2,
    // makes its way home like any other (it used to vanish at the first
    // node that held no copy to forward) and is scored out at once.
    let bat = nodes[0].hotset().unwrap().rows[0].bat;
    let forged = BatHeader::fresh(NodeId(0), bat, size);
    fabric[1].send_data(DcMsg::Bat { header: forged, payload: None }).unwrap();
    unloaded(3);
    assert_eq!((counter(0, "bats_loaded"), counter(0, "bats_lost")), (2, 0));

    for n in nodes {
        n.shutdown();
    }
}
