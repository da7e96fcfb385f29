//! Deterministic fault injection for any ring fabric.
//!
//! [`FaultTransport`] wraps an inner [`RingTransport`] (mem or TCP) and
//! perturbs its *send* side — every ring edge is some node's send side,
//! so wrapping each node's transport covers the whole ring. Faults come
//! from two sources that compose:
//!
//! * **explicit controls / scripted events** — [`FaultTransport::sever`],
//!   [`FaultTransport::drop_next`], [`FaultTransport::stall`],
//!   [`FaultTransport::duplicate_next`], and timed scripts via
//!   [`FaultTransport::script_at`] (partitions that open and heal on a
//!   schedule);
//! * **a seeded random plan** — [`FaultPlan`] probabilities drawn from a
//!   [`netsim::DetRng`], so a chaos run replays from its seed.
//!
//! Fault classes and their physical meaning:
//!
//! * *drop* — the frame is lost on the wire (NIC drop, peer reboot
//!   mid-frame). The message is swallowed; the sender sees `Ok`.
//! * *stall* — the link is congested or a peer is paused; delivery is
//!   delayed but **order is preserved** (the paper's §4.3 channels
//!   guarantee order of arrival, so a stalled edge queues messages
//!   behind the stall and replays them FIFO).
//! * *duplicate* — a retransmission layer re-delivers a frame.
//! * *sever* — the peer is gone: `send` fails with
//!   [`TransportError::Disconnected`] until the edge heals.
//!
//! Every injected fault is counted in [`crate::stats::FaultStats`].
//! Delivery runs on one background thread per wrapper, which also keeps
//! per-edge FIFO order across stalls and wakes for scripted events.

use super::{RingTransport, Sink, TransportError};
use crate::msg::DcMsg;
use crate::stats::FaultStats;
use netsim::DetRng;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Which of a node's two outgoing ring edges a fault applies to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Edge {
    /// Clockwise, toward the successor (BATs, gossip, appends,
    /// mutations, acks).
    Data = 0,
    /// Anti-clockwise, toward the predecessor (BAT requests).
    Request = 1,
}

/// A timed fault applied by [`FaultTransport::script_at`] — the building
/// block of scripted partitions (sever at t₀, heal at t₁).
#[derive(Clone, Copy, Debug)]
pub enum FaultEvent {
    Sever(Edge),
    Heal(Edge),
    DropNext(Edge, u32),
    DuplicateNext(Edge, u32),
    StallFor(Edge, Duration),
}

/// Seeded random fault probabilities, drawn per message send. All-zero
/// probabilities ([`FaultPlan::quiet`]) make the wrapper transparent
/// until explicit controls or scripts introduce faults.
#[derive(Clone, Copy, Debug)]
pub struct FaultPlan {
    pub seed: u64,
    /// Probability a message is dropped.
    pub drop_p: f64,
    /// Probability a message is delivered twice.
    pub dup_p: f64,
    /// Probability a message (and everything queued behind it) is
    /// stalled by `stall_for`.
    pub stall_p: f64,
    pub stall_for: Duration,
}

impl FaultPlan {
    /// No random faults; the wrapper forwards transparently until a
    /// control call or scripted event says otherwise.
    pub fn quiet(seed: u64) -> FaultPlan {
        FaultPlan { seed, drop_p: 0.0, dup_p: 0.0, stall_p: 0.0, stall_for: Duration::ZERO }
    }
}

/// Pending faults and the in-order delivery queue of one edge.
#[derive(Default)]
struct EdgeState {
    severed: bool,
    drop_next: u32,
    dup_next: u32,
    stall_until: Option<Instant>,
    /// `(deliver_at, msg)` in send order; `deliver_at` is monotone
    /// within the queue, so FIFO pop preserves arrival order.
    queue: VecDeque<(Instant, DcMsg)>,
}

struct State {
    edges: [EdgeState; 2],
    rng: DetRng,
    /// Timed events still to apply, sorted by due time. A deque so the
    /// per-send due sweep pops from the front in O(1).
    script: VecDeque<(Instant, FaultEvent)>,
}

struct Shared {
    inner: Arc<dyn RingTransport>,
    plan: FaultPlan,
    state: Mutex<State>,
    cv: Condvar,
    stats: Arc<FaultStats>,
    closed: AtomicBool,
    /// Gates the *probabilistic* plan only (explicit and scripted events
    /// always apply): chaos tests calm the wrapper while they set up the
    /// schema and while the final oracle settles, so lost setup gossip
    /// can't masquerade as a workload failure.
    chaos_on: AtomicBool,
}

impl Shared {
    fn apply_event(&self, st: &mut State, ev: FaultEvent) {
        match ev {
            FaultEvent::Sever(e) => st.edges[e as usize].severed = true,
            FaultEvent::Heal(e) => st.edges[e as usize].severed = false,
            FaultEvent::DropNext(e, n) => st.edges[e as usize].drop_next += n,
            FaultEvent::DuplicateNext(e, n) => st.edges[e as usize].dup_next += n,
            FaultEvent::StallFor(e, d) => {
                let until = Instant::now() + d;
                let slot = &mut st.edges[e as usize].stall_until;
                *slot = Some(slot.map_or(until, |u| u.max(until)));
            }
        }
    }

    fn apply_due_events(&self, st: &mut State, now: Instant) {
        while let Some(&(at, ev)) = st.script.front() {
            if at > now {
                break;
            }
            st.script.pop_front();
            self.apply_event(st, ev);
        }
    }

    /// Decide a message's fate and enqueue it; the delivery thread does
    /// the actual inner send so per-edge order survives stalls.
    fn send(&self, edge: Edge, msg: DcMsg) -> Result<(), TransportError> {
        if self.closed.load(Ordering::Acquire) {
            return Err(TransportError::Disconnected);
        }
        let mut st = self.state.lock();
        let now = Instant::now();
        self.apply_due_events(&mut st, now);
        let rolling = self.chaos_on.load(Ordering::Relaxed);
        let drop_roll = rolling && self.plan.drop_p > 0.0 && st.rng.chance(self.plan.drop_p);
        let dup_roll = rolling && self.plan.dup_p > 0.0 && st.rng.chance(self.plan.dup_p);
        let stall_roll = rolling && self.plan.stall_p > 0.0 && st.rng.chance(self.plan.stall_p);
        let e = &mut st.edges[edge as usize];
        if e.severed {
            self.stats.severed_sends.fetch_add(1, Ordering::Relaxed);
            return Err(TransportError::Disconnected);
        }
        // A probabilistic roll and an explicit drop-next budget can fire
        // on the same message; charge the roll first so the budget is
        // only spent on messages it alone kills — a test asking for N
        // deterministic drops gets N drops of its own even under an
        // active random plan.
        if drop_roll {
            self.stats.drops.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }
        if e.drop_next > 0 {
            e.drop_next -= 1;
            self.stats.drops.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }
        let dup = if e.dup_next > 0 {
            e.dup_next -= 1;
            true
        } else {
            dup_roll
        };
        let mut deliver_at = now;
        if let Some(until) = e.stall_until {
            if until > now {
                deliver_at = until;
            } else {
                e.stall_until = None;
            }
        }
        if stall_roll {
            deliver_at = deliver_at.max(now + self.plan.stall_for);
        }
        // Never overtake what is already queued (ordered channels, §4.3).
        if let Some(&(tail, _)) = e.queue.back() {
            deliver_at = deliver_at.max(tail);
        }
        if deliver_at > now {
            self.stats.stalls.fetch_add(1, Ordering::Relaxed);
        }
        if dup {
            self.stats.duplicates.fetch_add(1, Ordering::Relaxed);
            e.queue.push_back((deliver_at, msg.clone()));
        }
        e.queue.push_back((deliver_at, msg));
        self.cv.notify_one();
        Ok(())
    }

    /// The delivery loop: wake at the earliest deadline (queued message
    /// or scripted event), forward everything due, repeat until closed.
    fn deliver_loop(&self) {
        let mut st = self.state.lock();
        loop {
            if self.closed.load(Ordering::Acquire) {
                return;
            }
            let now = Instant::now();
            self.apply_due_events(&mut st, now);
            let mut due: Vec<(Edge, DcMsg)> = Vec::new();
            for edge in [Edge::Data, Edge::Request] {
                let e = &mut st.edges[edge as usize];
                while e.queue.front().is_some_and(|&(at, _)| at <= now) {
                    let (_, msg) = e.queue.pop_front().expect("checked front");
                    due.push((edge, msg));
                }
            }
            if !due.is_empty() {
                // Send without the lock: a TCP redial may block, and
                // senders must be able to keep enqueueing meanwhile.
                // FIFO per edge still holds — only this thread dequeues.
                drop(st);
                for (edge, msg) in due {
                    let r = match edge {
                        Edge::Data => self.inner.send_data(msg),
                        Edge::Request => self.inner.send_request(msg),
                    };
                    // The sender already got its Ok; a failing inner
                    // send here is a genuine loss the engine's retry
                    // machinery must absorb, exactly like a drop.
                    let _ = r;
                }
                st = self.state.lock();
                continue;
            }
            let next = st
                .edges
                .iter()
                .filter_map(|e| e.queue.front().map(|&(at, _)| at))
                .chain(st.script.front().map(|&(at, _)| at))
                .min();
            match next {
                Some(at) => {
                    let wait = at.saturating_duration_since(Instant::now());
                    let _ = self.cv.wait_for(&mut st, wait.max(Duration::from_micros(50)));
                }
                None => {
                    let _ = self.cv.wait_for(&mut st, Duration::from_millis(250));
                }
            }
        }
    }
}

/// A [`RingTransport`] that injects faults between the engine and any
/// inner fabric. Hold an `Arc<FaultTransport>`: one clone goes to the
/// node as its transport, the other stays with the test as the control
/// handle.
pub struct FaultTransport {
    shared: Arc<Shared>,
    delivery: Mutex<Option<JoinHandle<()>>>,
}

impl FaultTransport {
    pub fn new(inner: Arc<dyn RingTransport>, plan: FaultPlan) -> FaultTransport {
        let shared = Arc::new(Shared {
            inner,
            plan,
            state: Mutex::new(State {
                edges: [EdgeState::default(), EdgeState::default()],
                rng: DetRng::new(plan.seed),
                script: VecDeque::new(),
            }),
            cv: Condvar::new(),
            stats: Arc::new(FaultStats::default()),
            closed: AtomicBool::new(false),
            chaos_on: AtomicBool::new(true),
        });
        let worker = Arc::clone(&shared);
        let delivery = std::thread::spawn(move || worker.deliver_loop());
        FaultTransport { shared, delivery: Mutex::new(Some(delivery)) }
    }

    /// The fault counters, shared with the delivery thread.
    pub fn stats(&self) -> Arc<FaultStats> {
        Arc::clone(&self.shared.stats)
    }

    fn control(&self, ev: FaultEvent) {
        let mut st = self.shared.state.lock();
        self.shared.apply_event(&mut st, ev);
        self.shared.cv.notify_one();
    }

    /// Sever an edge: sends fail with [`TransportError::Disconnected`]
    /// until [`FaultTransport::heal`].
    pub fn sever(&self, edge: Edge) {
        self.control(FaultEvent::Sever(edge));
    }

    pub fn heal(&self, edge: Edge) {
        self.control(FaultEvent::Heal(edge));
    }

    /// Silently swallow the next `n` messages sent on `edge`.
    pub fn drop_next(&self, edge: Edge, n: u32) {
        self.control(FaultEvent::DropNext(edge, n));
    }

    /// Deliver the next `n` messages sent on `edge` twice.
    pub fn duplicate_next(&self, edge: Edge, n: u32) {
        self.control(FaultEvent::DuplicateNext(edge, n));
    }

    /// Hold `edge` for `d`: messages sent meanwhile (and anything already
    /// queued) deliver after the window, in order.
    pub fn stall(&self, edge: Edge, d: Duration) {
        self.control(FaultEvent::StallFor(edge, d));
    }

    /// Enable or suspend the probabilistic part of the plan. Explicit
    /// controls and scripted events keep working either way; tests calm
    /// the wrapper (`set_chaos(false)`) around schema setup and final
    /// settling so only the measured workload runs under fire.
    pub fn set_chaos(&self, on: bool) {
        self.shared.chaos_on.store(on, Ordering::Relaxed);
    }

    /// Schedule `ev` to fire `after` from now — scripted partitions
    /// (sever at +0ms, heal at +1200ms) without a test-side timer thread.
    pub fn script_at(&self, after: Duration, ev: FaultEvent) {
        let at = Instant::now() + after;
        let mut st = self.shared.state.lock();
        let pos = st.script.partition_point(|&(t, _)| t <= at);
        st.script.insert(pos, (at, ev));
        self.shared.cv.notify_one();
    }
}

impl RingTransport for FaultTransport {
    fn send_data(&self, msg: DcMsg) -> Result<(), TransportError> {
        self.shared.send(Edge::Data, msg)
    }

    fn send_request(&self, msg: DcMsg) -> Result<(), TransportError> {
        self.shared.send(Edge::Request, msg)
    }

    fn recv(&self) -> Option<DcMsg> {
        self.shared.inner.recv()
    }

    /// Faults perturb the send side only; the inbound stream is the
    /// inner fabric's.
    fn attach(&self, sink: Sink) {
        self.shared.inner.attach(sink);
    }

    fn frames_rejected(&self) -> u64 {
        self.shared.inner.frames_rejected()
    }

    fn close(&self) {
        self.shared.closed.store(true, Ordering::Release);
        self.shared.cv.notify_all();
        if let Some(h) = self.delivery.lock().take() {
            let _ = h.join();
        }
        self.shared.inner.close();
    }
}

impl Drop for FaultTransport {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{BatId, NodeId};
    use crate::msg::ReqMsg;
    use crate::transport::mem;

    fn req(bat: u32) -> DcMsg {
        DcMsg::Request(ReqMsg { origin: NodeId(0), bat: BatId(bat) })
    }

    fn gossip(table: &str) -> DcMsg {
        DcMsg::Catalog(crate::msg::CatalogMsg {
            origin: NodeId(0),
            schema: "sys".into(),
            table: table.into(),
            columns: vec![],
        })
    }

    /// The observing side of a wrapped pair: a drainer thread pumps the
    /// peer node's blocking `recv` into a channel so tests can
    /// wait with a timeout. Dropping the peer closes the node, which
    /// unblocks and retires the drainer.
    struct Peer {
        node: Arc<mem::MemNode>,
        rx: crossbeam::channel::Receiver<DcMsg>,
    }

    impl Peer {
        fn recv_within(&self, d: Duration) -> Option<DcMsg> {
            self.rx.recv_timeout(d).ok()
        }

        fn recv(&self) -> DcMsg {
            self.recv_within(Duration::from_secs(10)).expect("message within 10s")
        }
    }

    impl Drop for Peer {
        fn drop(&mut self) {
            self.node.close();
        }
    }

    /// A 2-node mem ring with node 0 wrapped; node 1 observes arrivals
    /// (both of node 0's edges deliver into node 1's inbox).
    fn wrapped_pair(plan: FaultPlan) -> (Arc<FaultTransport>, Peer) {
        let mut ring = mem::ring(2);
        let node = Arc::new(ring.pop().expect("two nodes"));
        let inner = Arc::new(ring.pop().expect("two nodes")) as Arc<dyn RingTransport>;
        let (tx, rx) = crossbeam::channel::unbounded();
        let pump = Arc::clone(&node);
        std::thread::spawn(move || {
            while let Some(m) = pump.recv() {
                if tx.send(m).is_err() {
                    break;
                }
            }
        });
        (Arc::new(FaultTransport::new(inner, plan)), Peer { node, rx })
    }

    #[test]
    fn quiet_plan_is_transparent() {
        let (ft, peer) = wrapped_pair(FaultPlan::quiet(1));
        ft.send_data(gossip("t")).unwrap();
        assert!(matches!(peer.recv(), DcMsg::Catalog(_)));
        assert_eq!(ft.stats().faults_injected(), 0);
    }

    #[test]
    fn drop_next_swallows_and_counts() {
        let (ft, peer) = wrapped_pair(FaultPlan::quiet(2));
        ft.drop_next(Edge::Data, 2);
        ft.send_data(gossip("a")).unwrap();
        ft.send_data(gossip("b")).unwrap();
        ft.send_data(gossip("c")).unwrap();
        match peer.recv() {
            DcMsg::Catalog(c) => assert_eq!(c.table, "c", "first two dropped"),
            other => panic!("{other:?}"),
        }
        assert_eq!(ft.stats().drops(), 2);
    }

    #[test]
    fn duplicate_next_delivers_twice() {
        let (ft, peer) = wrapped_pair(FaultPlan::quiet(3));
        ft.duplicate_next(Edge::Data, 1);
        ft.send_data(gossip("x")).unwrap();
        assert!(matches!(peer.recv(), DcMsg::Catalog(_)));
        assert!(matches!(peer.recv(), DcMsg::Catalog(_)), "duplicate arrives");
        assert_eq!(ft.stats().duplicates(), 1);
    }

    #[test]
    fn random_drops_do_not_spend_the_explicit_budget() {
        let (ft, peer) = wrapped_pair(FaultPlan {
            seed: 8,
            drop_p: 1.0,
            dup_p: 0.0,
            stall_p: 0.0,
            stall_for: Duration::ZERO,
        });
        ft.drop_next(Edge::Data, 2);
        // Every send here dies to the certain random roll...
        for _ in 0..3 {
            ft.send_data(gossip("rolled")).unwrap();
        }
        // ...so the explicit budget must still hold its full 2 drops.
        ft.set_chaos(false);
        ft.send_data(gossip("a")).unwrap();
        ft.send_data(gossip("b")).unwrap();
        ft.send_data(gossip("c")).unwrap();
        match peer.recv() {
            DcMsg::Catalog(c) => assert_eq!(c.table, "c", "budget must drop a and b"),
            other => panic!("{other:?}"),
        }
        assert_eq!(ft.stats().drops(), 5);
    }

    #[test]
    fn severed_edge_fails_sends_until_healed() {
        let (ft, peer) = wrapped_pair(FaultPlan::quiet(4));
        ft.sever(Edge::Data);
        assert!(matches!(ft.send_data(gossip("t")), Err(TransportError::Disconnected)));
        assert!(matches!(ft.send_data(gossip("t")), Err(TransportError::Disconnected)));
        // The other edge is unaffected.
        ft.send_request(req(7)).unwrap();
        assert!(matches!(peer.recv(), DcMsg::Request(_)));
        ft.heal(Edge::Data);
        ft.send_data(gossip("t")).unwrap();
        assert!(matches!(peer.recv(), DcMsg::Catalog(_)));
        assert_eq!(ft.stats().severed_sends(), 2);
    }

    #[test]
    fn stall_delays_but_preserves_order() {
        let (ft, peer) = wrapped_pair(FaultPlan::quiet(5));
        ft.stall(Edge::Data, Duration::from_millis(120));
        let t0 = Instant::now();
        ft.send_data(gossip("first")).unwrap();
        ft.send_data(gossip("second")).unwrap();
        let m1 = peer.recv_within(Duration::from_secs(5)).expect("stalled message arrives");
        assert!(t0.elapsed() >= Duration::from_millis(100), "held by the stall window");
        let m2 = peer.recv_within(Duration::from_secs(5)).expect("second follows");
        match (m1, m2) {
            (DcMsg::Catalog(a), DcMsg::Catalog(b)) => {
                assert_eq!((a.table.as_str(), b.table.as_str()), ("first", "second"), "FIFO");
            }
            other => panic!("{other:?}"),
        }
        assert!(ft.stats().stalls() >= 1);
    }

    #[test]
    fn scripted_sever_and_heal_fire_on_schedule() {
        let (ft, peer) = wrapped_pair(FaultPlan::quiet(6));
        ft.script_at(Duration::ZERO, FaultEvent::Sever(Edge::Data));
        ft.script_at(Duration::from_millis(80), FaultEvent::Heal(Edge::Data));
        std::thread::sleep(Duration::from_millis(20));
        assert!(ft.send_data(gossip("t")).is_err(), "partition is open");
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            if ft.send_data(gossip("t")).is_ok() {
                break; // healed on schedule
            }
            assert!(Instant::now() < deadline, "scripted heal never fired");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(matches!(peer.recv(), DcMsg::Catalog(_)));
    }

    #[test]
    fn seeded_plan_reproduces_the_same_fault_sequence() {
        let fates = |seed: u64| -> Vec<bool> {
            let (ft, peer) = wrapped_pair(FaultPlan {
                seed,
                drop_p: 0.5,
                dup_p: 0.0,
                stall_p: 0.0,
                stall_for: Duration::ZERO,
            });
            for i in 0..32 {
                ft.send_data(gossip(&format!("t{i}"))).unwrap();
            }
            // Drain what survived; the drop pattern is the fate vector.
            let mut seen = vec![false; 32];
            while let Some(DcMsg::Catalog(c)) = peer.recv_within(Duration::from_millis(300)) {
                let idx: usize = c.table[1..].parse().unwrap();
                seen[idx] = true;
            }
            seen
        };
        assert_eq!(fates(42), fates(42), "same seed, same drops");
        assert_ne!(fates(42), fates(43), "different seed, different drops");
    }

    #[test]
    fn close_joins_delivery_and_drops_queued_messages() {
        let (ft, peer) = wrapped_pair(FaultPlan::quiet(7));
        ft.stall(Edge::Data, Duration::from_secs(30));
        ft.send_data(gossip("never")).unwrap();
        ft.close();
        assert!(ft.send_data(gossip("t")).is_err(), "closed transport refuses sends");
        assert!(
            peer.recv_within(Duration::from_millis(200)).is_none(),
            "stalled message died with the transport"
        );
    }
}
