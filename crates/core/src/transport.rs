//! The ring-fabric seam: what a node needs from the network layer.
//!
//! The paper's network layer "encapsulates the envisioned RDMA
//! infrastructure and traditional UDP/TCP functionality as a fall-back
//! solution", exposing "asynchronous channels with guaranteed order of
//! arrival" (§4.3). [`RingTransport`] captures exactly that contract:
//! ordered, asynchronous delivery of [`DcMsg`]s to the two ring
//! neighbors — BATs clockwise to the successor, requests anti-clockwise
//! to the predecessor.
//!
//! The live engine ([`crate::engine`]) is written purely against this
//! trait. Two fabrics implement it:
//!
//! * [`mem`] (here) — in-process channels, the default fast path used by
//!   [`crate::node::Ring`],
//! * `dc_transport::tcp` — a real TCP ring with length-prefixed frames,
//!   dropped into [`crate::node::RingNode`] for multi-process
//!   deployments.
//!
//! A third implementation, [`fault::FaultTransport`], wraps either
//! fabric and injects seeded, deterministic faults for the chaos suite.
//!
//! Every fabric member has one inbound queue, an [`Inbox`], with a
//! replaceable consumer: until somebody [`RingTransport::attach`]es,
//! frames queue and [`RingTransport::recv`] pulls them; afterwards each
//! frame goes from the thread that produced it (a TCP reader, or the
//! neighbor's `send_*` call on the memory fabric) straight into the
//! attached sink — one hand-off between the wire and a node's event loop.

use crate::msg::DcMsg;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;

pub mod fault;

/// The consumer a node attaches to its fabric member: called once per
/// inbound message, in arrival order, never concurrently.
pub type Sink = Box<dyn FnMut(DcMsg) + Send>;

/// A node's view of the ring fabric.
pub trait RingTransport: Send + Sync {
    /// Send a BAT message clockwise (to the successor).
    fn send_data(&self, msg: DcMsg) -> Result<(), TransportError>;
    /// Send a request anti-clockwise (to the predecessor).
    fn send_request(&self, msg: DcMsg) -> Result<(), TransportError>;
    /// Receive the next inbound message (blocking); `None` when the ring
    /// shut down or [`RingTransport::close`] was called. Once a sink is
    /// attached nothing queues, so this only ever returns `None`, on
    /// close.
    fn recv(&self) -> Option<DcMsg>;
    /// Hand the member's inbound stream to `sink`: first, in order,
    /// every message that already arrived and was not yet `recv`ed, then
    /// each later one as it arrives, on the thread that received it. The
    /// order of arrival on each edge (§4.3) is kept across the switch,
    /// and no message is delivered twice or skipped, whatever races the
    /// call.
    fn attach(&self, sink: Sink);
    /// Inbound frames this member refused — longer than its frame cap,
    /// or not decodable — each of which cost the edge its connection.
    /// Fabrics that carry messages, not bytes, never refuse one.
    fn frames_rejected(&self) -> u64 {
        0
    }
    /// Tear down the node's links: any thread blocked in
    /// [`RingTransport::recv`] unblocks and every subsequent `recv`
    /// returns `None`. When `close` returns the last call into an
    /// attached sink has returned and no further one is made. Idempotent.
    fn close(&self);
}

/// One fabric member's inbound queue (see the module doc). Producers
/// [`Inbox::push`]; the consumer is either whoever calls
/// [`Inbox::recv`] or, once attached, the sink. The sink runs under the
/// inbox's lock: that is what serialises the two edges' producers, keeps
/// the hand-over atomic, and lets [`Inbox::close`] promise that no call
/// outlives it — so a sink must not block for long (the engine's is a
/// send into an unbounded channel).
#[derive(Default)]
pub struct Inbox {
    state: Mutex<InboxState>,
    arrived: Condvar,
}

#[derive(Default)]
struct InboxState {
    queue: VecDeque<DcMsg>,
    sink: Option<Sink>,
    closed: bool,
}

impl Inbox {
    pub fn new() -> Inbox {
        Inbox::default()
    }

    /// Deliver one inbound message: to the sink if one is attached, else
    /// onto the queue. False if the inbox is closed (the message is
    /// dropped).
    pub fn push(&self, msg: DcMsg) -> bool {
        let mut st = self.state.lock();
        if st.closed {
            return false;
        }
        match st.sink.as_mut() {
            Some(sink) => sink(msg),
            None => {
                st.queue.push_back(msg);
                self.arrived.notify_one();
            }
        }
        true
    }

    /// See [`RingTransport::attach`]. A no-op on a closed inbox.
    pub fn attach(&self, mut sink: Sink) {
        let mut st = self.state.lock();
        if st.closed {
            return;
        }
        // Producers wait on the lock meanwhile, so what they push next
        // follows what is drained here.
        st.queue.drain(..).for_each(&mut sink);
        st.sink = Some(sink);
    }

    /// Block for the next queued message; `None` once closed.
    pub fn recv(&self) -> Option<DcMsg> {
        let mut st = self.state.lock();
        loop {
            if st.closed {
                return None;
            }
            if let Some(msg) = st.queue.pop_front() {
                return Some(msg);
            }
            self.arrived.wait(&mut st);
        }
    }

    /// The next queued message, if one is waiting.
    pub fn try_recv(&self) -> Option<DcMsg> {
        self.state.lock().queue.pop_front()
    }

    /// Stop delivering: wake blocked `recv`s, drop the sink and whatever
    /// is still queued. Taking the lock waits out a sink call in
    /// progress, so none is running or will start once this returns.
    pub fn close(&self) {
        let mut st = self.state.lock();
        st.closed = true;
        st.sink = None;
        st.queue.clear();
        self.arrived.notify_all();
    }
}

#[derive(Debug)]
pub enum TransportError {
    /// The peer is gone; the ring must heal (pulsating rings, §6.3) or
    /// shut down.
    Disconnected,
    Io(std::io::Error),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Disconnected => write!(f, "ring peer disconnected"),
            TransportError::Io(e) => write!(f, "transport io: {e}"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<std::io::Error> for TransportError {
    fn from(e: std::io::Error) -> Self {
        TransportError::Io(e)
    }
}

/// A [`RingTransport`] decorator that meters per-edge traffic into an
/// observability [`dc_obs::Registry`]: frames and bytes
/// ([`DcMsg::wire_size`]), in and out, split by edge (clockwise data vs
/// anti-clockwise request), and how many of the `Bat` frames sent were a
/// header travelling without its payload. This is the paper's "bytes
/// moved around the ring" statistic (Fig. 9/10), measured uniformly for
/// every fabric — the live engine wraps whatever transport it is handed,
/// so the in-process and TCP rings report the same counters.
pub struct MeteredTransport {
    inner: std::sync::Arc<dyn RingTransport>,
    data_frames_out: std::sync::Arc<dc_obs::Counter>,
    data_bytes_out: std::sync::Arc<dc_obs::Counter>,
    bat_frames_header_only: std::sync::Arc<dc_obs::Counter>,
    req_frames_out: std::sync::Arc<dc_obs::Counter>,
    req_bytes_out: std::sync::Arc<dc_obs::Counter>,
    inbound: InboundMeters,
}

/// The inbound half of the meters, cloneable so an attached sink can
/// count where the frames now arrive.
#[derive(Clone)]
struct InboundMeters {
    data_frames_in: std::sync::Arc<dc_obs::Counter>,
    data_bytes_in: std::sync::Arc<dc_obs::Counter>,
    req_frames_in: std::sync::Arc<dc_obs::Counter>,
    req_bytes_in: std::sync::Arc<dc_obs::Counter>,
}

impl InboundMeters {
    fn count(&self, msg: &DcMsg) {
        // Requests are the only traffic on the anti-clockwise edge;
        // everything else (BATs, gossip, appends, mutations, acks)
        // arrived from the predecessor on the data edge.
        if matches!(msg, DcMsg::Request(_)) {
            self.req_frames_in.inc();
            self.req_bytes_in.add(msg.wire_size());
        } else {
            self.data_frames_in.inc();
            self.data_bytes_in.add(msg.wire_size());
        }
    }
}

impl MeteredTransport {
    pub fn new(inner: std::sync::Arc<dyn RingTransport>, obs: &dc_obs::Registry) -> Self {
        MeteredTransport {
            inner,
            data_frames_out: obs.counter("obs_ring_data_frames_out"),
            data_bytes_out: obs.counter("obs_ring_data_bytes_out"),
            bat_frames_header_only: obs.counter("obs_ring_bat_frames_header_only"),
            req_frames_out: obs.counter("obs_ring_req_frames_out"),
            req_bytes_out: obs.counter("obs_ring_req_bytes_out"),
            inbound: InboundMeters {
                data_frames_in: obs.counter("obs_ring_data_frames_in"),
                data_bytes_in: obs.counter("obs_ring_data_bytes_in"),
                req_frames_in: obs.counter("obs_ring_req_frames_in"),
                req_bytes_in: obs.counter("obs_ring_req_bytes_in"),
            },
        }
    }
}

impl RingTransport for MeteredTransport {
    fn send_data(&self, msg: DcMsg) -> Result<(), TransportError> {
        let size = msg.wire_size();
        let header_only = matches!(msg, DcMsg::Bat { payload: None, .. });
        self.inner.send_data(msg).inspect(|()| {
            self.data_frames_out.inc();
            self.data_bytes_out.add(size);
            if header_only {
                self.bat_frames_header_only.inc();
            }
        })
    }

    fn send_request(&self, msg: DcMsg) -> Result<(), TransportError> {
        let size = msg.wire_size();
        self.inner.send_request(msg).inspect(|()| {
            self.req_frames_out.inc();
            self.req_bytes_out.add(size);
        })
    }

    fn recv(&self) -> Option<DcMsg> {
        let msg = self.inner.recv()?;
        self.inbound.count(&msg);
        Some(msg)
    }

    fn attach(&self, mut sink: Sink) {
        let meters = self.inbound.clone();
        self.inner.attach(Box::new(move |msg| {
            meters.count(&msg);
            sink(msg);
        }));
    }

    fn frames_rejected(&self) -> u64 {
        self.inner.frames_rejected()
    }

    fn close(&self) {
        self.inner.close();
    }
}

pub mod mem {
    //! In-process ring fabric: each member's [`Inbox`] is shared with its
    //! two neighbors, whose `send_*` calls push into it.
    //!
    //! Zero-copy in the sense that [`DcMsg`] payloads are refcounted
    //! `Bytes`: forwarding a fragment around the in-memory ring never
    //! copies its body.

    use super::{Inbox, RingTransport, Sink, TransportError};
    use crate::msg::DcMsg;
    use std::sync::Arc;

    /// One node's endpoints.
    pub struct MemNode {
        /// The successor's inbox (clockwise data edge).
        succ: Arc<Inbox>,
        /// The predecessor's inbox (anti-clockwise request edge).
        pred: Arc<Inbox>,
        inbox: Arc<Inbox>,
    }

    /// Build a fully-wired in-process ring of `n` nodes. A single-node
    /// ring is a self-loop: both edges point back at the node, which is
    /// exactly what the live engine needs for one-node deployments.
    pub fn ring(n: usize) -> Vec<MemNode> {
        assert!(n >= 1, "a ring needs at least one node");
        let inboxes: Vec<Arc<Inbox>> = (0..n).map(|_| Arc::new(Inbox::new())).collect();
        (0..n)
            .map(|i| MemNode {
                succ: Arc::clone(&inboxes[(i + 1) % n]),
                pred: Arc::clone(&inboxes[(i + n - 1) % n]),
                inbox: Arc::clone(&inboxes[i]),
            })
            .collect()
    }

    impl RingTransport for MemNode {
        fn send_data(&self, msg: DcMsg) -> Result<(), TransportError> {
            self.succ.push(msg).then_some(()).ok_or(TransportError::Disconnected)
        }

        fn send_request(&self, msg: DcMsg) -> Result<(), TransportError> {
            self.pred.push(msg).then_some(()).ok_or(TransportError::Disconnected)
        }

        fn recv(&self) -> Option<DcMsg> {
            self.inbox.recv()
        }

        fn attach(&self, sink: Sink) {
            self.inbox.attach(sink);
        }

        fn close(&self) {
            self.inbox.close();
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use crate::ids::{BatId, NodeId};
        use crate::msg::{BatHeader, ReqMsg};

        fn bat_msg(id: u32, size: u64) -> DcMsg {
            DcMsg::Bat {
                header: BatHeader::fresh(NodeId(0), BatId(id), size),
                payload: Some(bytes::Bytes::from(vec![0u8; size as usize])),
            }
        }

        #[test]
        fn data_flows_clockwise() {
            let nodes = ring(3);
            nodes[0].send_data(bat_msg(1, 100)).unwrap();
            match nodes[1].recv().unwrap() {
                DcMsg::Bat { header, .. } => assert_eq!(header.bat, BatId(1)),
                other => panic!("{other:?}"),
            }
            nodes[1].send_data(bat_msg(1, 100)).unwrap();
            assert!(matches!(nodes[2].recv().unwrap(), DcMsg::Bat { .. }));
            nodes[2].send_data(bat_msg(1, 100)).unwrap();
            assert!(matches!(nodes[0].recv().unwrap(), DcMsg::Bat { .. }), "wraps around");
        }

        #[test]
        fn requests_flow_anticlockwise() {
            let nodes = ring(3);
            nodes[0]
                .send_request(DcMsg::Request(ReqMsg { origin: NodeId(0), bat: BatId(9) }))
                .unwrap();
            match nodes[2].recv().unwrap() {
                DcMsg::Request(r) => assert_eq!(r.bat, BatId(9)),
                other => panic!("{other:?}"),
            }
        }

        #[test]
        fn single_node_ring_is_self_loop() {
            let nodes = ring(1);
            nodes[0].send_data(bat_msg(7, 10)).unwrap();
            assert!(matches!(nodes[0].recv().unwrap(), DcMsg::Bat { .. }));
        }

        #[test]
        fn close_unblocks_recv() {
            let nodes = ring(2);
            let n0 = &nodes[0];
            std::thread::scope(|s| {
                let h = s.spawn(|| n0.recv());
                std::thread::sleep(std::time::Duration::from_millis(20));
                n0.close();
                assert!(h.join().unwrap().is_none());
            });
            assert!(n0.recv().is_none(), "closed stays closed");
        }

        #[test]
        #[should_panic(expected = "at least one node")]
        fn rejects_degenerate_ring() {
            let _ = ring(0);
        }
    }
}
