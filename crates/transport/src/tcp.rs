//! TCP ring fabric: length-prefixed frames over two neighbor sockets.
//!
//! Wire format per frame: `u32` little-endian payload length, then the
//! `datacyclotron::msg` binary encoding. TCP gives the "asynchronous
//! channels with guaranteed order of arrival" the paper requires of its
//! network layer (§4.3).
//!
//! The ring *heals*: each node keeps its listener open for its whole
//! lifetime, replacing an inbound neighbor stream whenever a new one
//! arrives, and a failed outbound write triggers one redial of the
//! neighbor's well-known address. A SIGKILL'd member that restarts (see
//! `dc-persist` recovery) therefore rejoins the very same ring — its
//! neighbors reconnect on their next send, and messages lost during the
//! outage are recovered by the protocol's own `resend` and lost-BAT
//! machinery (§4.2.3).

use crate::{RingTransport, TransportError};
use crossbeam::channel::{unbounded, Receiver, Sender};
use datacyclotron::{decode, encode, DcMsg};
use parking_lot::Mutex;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Default cap on a single frame (64 MiB). A corrupt or malicious peer
/// can claim any length in the prefix; the cap bounds what we are
/// willing to read, and [`read_frame_capped`] never allocates the
/// claimed length up front — the buffer grows only as bytes arrive.
pub const DEFAULT_MAX_FRAME: usize = 64 << 20;

/// Write one frame.
pub fn write_frame(stream: &mut impl Write, msg: &DcMsg) -> std::io::Result<()> {
    let bytes = encode(msg);
    stream.write_all(&(bytes.len() as u32).to_le_bytes())?;
    stream.write_all(&bytes)?;
    stream.flush()
}

/// Read one frame with the [`DEFAULT_MAX_FRAME`] cap; `Ok(None)` on
/// clean EOF (connection closed between frames).
pub fn read_frame(stream: &mut impl Read) -> std::io::Result<Option<DcMsg>> {
    read_frame_capped(stream, DEFAULT_MAX_FRAME)
}

/// Read one frame, rejecting lengths above `max_frame`.
///
/// EOF handling distinguishes the two cases a peer shutdown can produce:
/// zero bytes before the length prefix is a clean close (`Ok(None)`);
/// EOF *inside* the prefix or the payload is a truncated frame and
/// surfaces as an error.
pub fn read_frame_capped(
    stream: &mut impl Read,
    max_frame: usize,
) -> std::io::Result<Option<DcMsg>> {
    let mut len_buf = [0u8; 4];
    // The first byte decides clean-close vs truncation.
    match stream.read_exact(&mut len_buf[..1]) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    stream.read_exact(&mut len_buf[1..])?;
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > max_frame {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {max_frame}-byte cap"),
        ));
    }
    // `take` + `read_to_end` grows the buffer geometrically as data
    // actually arrives: an untrusted length never turns into an upfront
    // allocation.
    let mut buf = Vec::new();
    stream.take(len as u64).read_to_end(&mut buf)?;
    if buf.len() < len {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            format!("truncated frame: want {len} bytes, got {}", buf.len()),
        ));
    }
    decode(&buf).map(Some).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

/// How long a send-path redial waits for one TCP connect. A refused
/// connection (dead or restarting peer) fails in microseconds on a LAN;
/// the cap only bounds black-hole routes.
const REDIAL_TIMEOUT: Duration = Duration::from_secs(1);

/// A node connected into a TCP ring.
pub struct TcpNode {
    /// My position and the ring's well-known addresses, kept for
    /// redialing neighbors after a failure.
    addrs: Vec<SocketAddr>,
    me: usize,
    data_out: Mutex<Option<TcpStream>>,
    req_out: Mutex<Option<TcpStream>>,
    inbox: Receiver<DcMsg>,
    out_bytes: Arc<AtomicU64>,
    closed: Arc<AtomicBool>,
    acceptor: Mutex<Option<JoinHandle<()>>>,
    readers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    // The current inbound stream per edge (data, requests): `close` can
    // force the reader threads off their blocking reads without waiting
    // for peers, and a replaced stream is dropped — a flapping neighbor
    // must not accumulate descriptors.
    inbound: Arc<Mutex<[Option<TcpStream>; 2]>>,
}

/// Establish a full TCP ring on the given addresses with the default
/// frame cap; `me` is this process's position. Every participant must
/// call this concurrently (each listens on `addrs[me]` and dials its two
/// neighbors).
///
/// Connection protocol: each node accepts exactly two inbound
/// connections — one from its predecessor (data) and one from its
/// successor (requests) — distinguished by a 1-byte hello (`b'D'` /
/// `b'R'`).
///
/// ```
/// use datacyclotron::{BatId, DcMsg, NodeId, ReqMsg};
/// use dc_transport::tcp::join_ring;
/// use dc_transport::RingTransport;
/// use std::net::TcpListener;
///
/// // Reserve two free local ports, then join from two threads.
/// let ports: Vec<_> = (0..2).map(|_| TcpListener::bind("127.0.0.1:0").unwrap()).collect();
/// let addrs: Vec<_> = ports.iter().map(|l| l.local_addr().unwrap()).collect();
/// drop(ports);
/// let addrs2 = addrs.clone();
/// let peer = std::thread::spawn(move || join_ring(&addrs2, 1).unwrap());
/// let n0 = join_ring(&addrs, 0).unwrap();
/// let n1 = peer.join().unwrap();
///
/// n0.send_request(DcMsg::Request(ReqMsg { origin: NodeId(0), bat: BatId(7) })).unwrap();
/// assert!(matches!(n1.recv(), Some(DcMsg::Request(r)) if r.bat == BatId(7)));
/// n0.close();
/// n1.close();
/// ```
pub fn join_ring(addrs: &[SocketAddr], me: usize) -> Result<TcpNode, TransportError> {
    join_ring_capped(addrs, me, DEFAULT_MAX_FRAME)
}

/// [`join_ring`] with an explicit per-frame byte cap for the inbound
/// streams.
///
/// Returns once the listener is up and both outbound neighbor dials
/// succeeded; the two inbound streams attach through the long-lived
/// acceptor whenever the neighbors' own dials arrive (TCP's backlog
/// queues them meanwhile, so nothing is lost).
pub fn join_ring_capped(
    addrs: &[SocketAddr],
    me: usize,
    max_frame: usize,
) -> Result<TcpNode, TransportError> {
    assert!(addrs.len() >= 2, "a ring needs at least two nodes");
    assert!(me < addrs.len());
    let n = addrs.len();
    let succ = addrs[(me + 1) % n];
    let pred = addrs[(me + n - 1) % n];

    let listener = TcpListener::bind(addrs[me])?;

    let (tx, inbox) = unbounded::<DcMsg>();
    let out_bytes = Arc::new(AtomicU64::new(0));
    let closed = Arc::new(AtomicBool::new(false));
    let readers = Arc::new(Mutex::new(Vec::new()));
    let inbound = Arc::new(Mutex::new([None, None]));
    let acceptor = {
        let (closed, readers, inbound) =
            (Arc::clone(&closed), Arc::clone(&readers), Arc::clone(&inbound));
        std::thread::spawn(move || accept_loop(listener, tx, closed, readers, inbound, max_frame))
    };

    // Dial both neighbors with retry: peers may not be listening yet.
    // A refused connect usually means the peer is milliseconds from
    // listening (ring members start together), so the wait backs off
    // from 1 ms, doubling to a 50 ms cap.
    let dial = |addr: SocketAddr, hello: u8| -> Result<TcpStream, TransportError> {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let mut wait = Duration::from_millis(1);
        loop {
            match TcpStream::connect_timeout(&addr, Duration::from_millis(500)) {
                Ok(mut s) => {
                    s.set_nodelay(true).ok();
                    s.write_all(&[hello])?;
                    return Ok(s);
                }
                Err(e) => {
                    if std::time::Instant::now() > deadline {
                        return Err(TransportError::Io(e));
                    }
                    std::thread::sleep(wait);
                    wait = (wait * 2).min(Duration::from_millis(50));
                }
            }
        }
    };
    let data_out = dial(succ, b'D')?;
    let req_out = dial(pred, b'R')?;

    Ok(TcpNode {
        addrs: addrs.to_vec(),
        me,
        data_out: Mutex::new(Some(data_out)),
        req_out: Mutex::new(Some(req_out)),
        inbox,
        out_bytes,
        closed,
        acceptor: Mutex::new(Some(acceptor)),
        readers,
        inbound,
    })
}

/// The node's long-lived acceptor: every inbound connection identifies
/// its edge with a 1-byte hello (`b'D'` from the predecessor's data
/// dial, `b'R'` from the successor's request dial) and *replaces* the
/// current stream on that edge — which is how a restarted or reconnecting
/// neighbor re-attaches mid-flight.
fn accept_loop(
    listener: TcpListener,
    tx: Sender<DcMsg>,
    closed: Arc<AtomicBool>,
    readers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    inbound: Arc<Mutex<[Option<TcpStream>; 2]>>,
    max_frame: usize,
) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) => {
                if closed.load(Ordering::Acquire) {
                    return;
                }
                // Persistent failures (EMFILE and friends) must not spin
                // a core; back off and retry.
                eprintln!("[dc-transport] accept failed: {e}");
                std::thread::sleep(Duration::from_millis(100));
                continue;
            }
        };
        if closed.load(Ordering::Acquire) {
            return;
        }
        let mut stream = stream;
        stream.set_nodelay(true).ok();
        // The hello must arrive promptly or the conn is junk (including
        // the wake-up probe `close` sends to unblock this loop).
        stream.set_read_timeout(Some(Duration::from_secs(2))).ok();
        let mut hello = [0u8; 1];
        if stream.read_exact(&mut hello).is_err() {
            continue;
        }
        stream.set_read_timeout(None).ok();
        let slot = match hello[0] {
            b'D' => 0,
            b'R' => 1,
            _ => continue,
        };
        let Ok(clone) = stream.try_clone() else { continue };
        // The new stream takes over the edge; the replaced one is shut
        // (its reader exits) and dropped — reconnects must not leak
        // descriptors, threads, or registry slots.
        if let Some(old) = inbound.lock()[slot].replace(clone) {
            let _ = old.shutdown(std::net::Shutdown::Both);
        }
        let tx = tx.clone();
        let mut r = readers.lock();
        r.retain(|h| !h.is_finished());
        r.push(std::thread::spawn(move || {
            while let Ok(Some(msg)) = read_frame_capped(&mut stream, max_frame) {
                if tx.send(msg).is_err() {
                    break;
                }
            }
        }));
    }
}

impl TcpNode {
    /// Write on an edge, redialing the neighbor's well-known address once
    /// if the current stream is dead or missing. Persistent failure is
    /// returned to the caller — the ring protocol's `resend` machinery
    /// (§4.2.3) is the retry loop, not the transport.
    fn send_edge(
        &self,
        out: &Mutex<Option<TcpStream>>,
        peer: SocketAddr,
        hello: u8,
        msg: &DcMsg,
    ) -> Result<(), TransportError> {
        let mut guard = out.lock();
        if let Some(s) = guard.as_mut() {
            if write_frame(s, msg).is_ok() {
                return Ok(());
            }
        }
        *guard = None;
        if self.closed.load(Ordering::Acquire) {
            return Err(TransportError::Disconnected);
        }
        let mut fresh = TcpStream::connect_timeout(&peer, REDIAL_TIMEOUT)?;
        fresh.set_nodelay(true).ok();
        fresh.write_all(&[hello])?;
        write_frame(&mut fresh, msg)?;
        *guard = Some(fresh);
        Ok(())
    }

    fn succ(&self) -> SocketAddr {
        self.addrs[(self.me + 1) % self.addrs.len()]
    }

    fn pred(&self) -> SocketAddr {
        self.addrs[(self.me + self.addrs.len() - 1) % self.addrs.len()]
    }
}

impl RingTransport for TcpNode {
    fn send_data(&self, msg: DcMsg) -> Result<(), TransportError> {
        let size = msg.wire_size();
        self.out_bytes.fetch_add(size, Ordering::Relaxed);
        let result = self.send_edge(&self.data_out, self.succ(), b'D', &msg);
        self.out_bytes.fetch_sub(size, Ordering::Relaxed);
        result
    }

    fn send_request(&self, msg: DcMsg) -> Result<(), TransportError> {
        self.send_edge(&self.req_out, self.pred(), b'R', &msg)
    }

    fn recv(&self) -> Option<DcMsg> {
        self.inbox.recv().ok()
    }

    fn outbound_bytes(&self) -> u64 {
        self.out_bytes.load(Ordering::Relaxed)
    }

    /// Tear down the node: shut both outgoing streams, force every
    /// inbound stream shut so the reader threads leave their blocking
    /// reads immediately, wake and join the acceptor, then join the
    /// readers. Safe to call in any order across ring members — no peer
    /// coordination is required — and idempotent.
    fn close(&self) {
        self.closed.store(true, Ordering::Release);
        for out in [&self.data_out, &self.req_out] {
            if let Some(mut guard) = out.try_lock() {
                if let Some(s) = guard.take() {
                    let _ = s.shutdown(std::net::Shutdown::Both);
                }
            }
        }
        // A throwaway connection unblocks the acceptor's `accept`; it
        // sees the closed flag and exits. Joining it first means the
        // inbound registry below is final.
        let _ = TcpStream::connect_timeout(&self.addrs[self.me], Duration::from_millis(200));
        if let Some(a) = self.acceptor.lock().take() {
            let _ = a.join();
        }
        for s in self.inbound.lock().iter_mut() {
            if let Some(s) = s.take() {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
        for r in self.readers.lock().drain(..) {
            let _ = r.join();
        }
    }
}

impl TcpNode {
    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<DcMsg> {
        self.inbox.try_recv().ok()
    }

    /// Consuming alias of [`RingTransport::close`].
    pub fn shutdown(self) {
        self.close();
    }
}

/// Sender side used by tests/tools to speak the frame protocol directly.
pub fn sender_of(tx: &Sender<DcMsg>) -> Sender<DcMsg> {
    tx.clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use datacyclotron::msg::BatHeader;
    use datacyclotron::{BatId, NodeId, ReqMsg};

    fn local_addrs(n: usize) -> Vec<SocketAddr> {
        // Bind ephemeral listeners to reserve distinct free ports.
        let temp: Vec<TcpListener> =
            (0..n).map(|_| TcpListener::bind("127.0.0.1:0").unwrap()).collect();
        temp.iter().map(|l| l.local_addr().unwrap()).collect()
    }

    #[test]
    fn frame_round_trip() {
        let msg = DcMsg::Bat {
            header: BatHeader::fresh(NodeId(1), BatId(7), 3),
            payload: Some(Bytes::from_static(b"abc")),
        };
        let mut buf = Vec::new();
        write_frame(&mut buf, &msg).unwrap();
        let back = read_frame(&mut &buf[..]).unwrap().unwrap();
        assert_eq!(back, msg);
        // Clean EOF → None.
        assert!(read_frame(&mut &b""[..]).unwrap().is_none());
    }

    #[test]
    fn corrupt_frame_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&5u32.to_le_bytes());
        buf.extend_from_slice(&[99, 0, 0, 0, 0]);
        assert!(read_frame(&mut &buf[..]).is_err());
        // Oversized length header.
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert!(read_frame(&mut &buf[..]).is_err());
    }

    #[test]
    fn three_node_tcp_ring_routes_both_directions() {
        let addrs = local_addrs(3);
        let mut joins = Vec::new();
        for me in 0..3 {
            let addrs = addrs.clone();
            joins.push(std::thread::spawn(move || join_ring(&addrs, me).unwrap()));
        }
        let nodes: Vec<TcpNode> = joins.into_iter().map(|j| j.join().unwrap()).collect();

        // Data clockwise: 0 → 1.
        nodes[0]
            .send_data(DcMsg::Bat {
                header: BatHeader::fresh(NodeId(0), BatId(42), 4),
                payload: Some(Bytes::from_static(b"data")),
            })
            .unwrap();
        match nodes[1].recv().unwrap() {
            DcMsg::Bat { header, payload } => {
                assert_eq!(header.bat, BatId(42));
                assert_eq!(payload.unwrap(), Bytes::from_static(b"data"));
            }
            other => panic!("{other:?}"),
        }

        // Requests anti-clockwise: 0 → 2.
        nodes[0].send_request(DcMsg::Request(ReqMsg { origin: NodeId(0), bat: BatId(5) })).unwrap();
        match nodes[2].recv().unwrap() {
            DcMsg::Request(r) => assert_eq!(r.origin, NodeId(0)),
            other => panic!("{other:?}"),
        }

        // Full circulation: a BAT completes the ring.
        for hop in 0..3 {
            let from = hop;
            nodes[from]
                .send_data(DcMsg::Bat {
                    header: BatHeader::fresh(NodeId(9), BatId(9), 0),
                    payload: None,
                })
                .unwrap();
            let to = (hop + 1) % 3;
            assert!(matches!(nodes[to].recv().unwrap(), DcMsg::Bat { .. }));
        }
        for n in nodes {
            n.shutdown();
        }
    }

    #[test]
    fn ring_heals_after_member_restart() {
        let addrs = local_addrs(3);
        let mut joins = Vec::new();
        for me in 0..3 {
            let addrs = addrs.clone();
            joins.push(std::thread::spawn(move || join_ring(&addrs, me).unwrap()));
        }
        let mut nodes: Vec<Option<TcpNode>> =
            joins.into_iter().map(|j| Some(j.join().unwrap())).collect();

        // Node 1 dies (close is the orderly stand-in for a kill: its
        // listener and sockets vanish either way).
        nodes[1].take().unwrap().shutdown();
        std::thread::sleep(Duration::from_millis(50));

        // ... and restarts at the same address.
        let revived = join_ring(&addrs, 1).unwrap();

        // Node 0's outbound data stream points at the dead socket; the
        // first write may land in a buffer that RSTs, after which the
        // send path redials the well-known address. Keep sending until
        // delivery proves the ring healed.
        let mut healed = false;
        for _ in 0..100 {
            let _ = nodes[0].as_ref().unwrap().send_data(DcMsg::Bat {
                header: BatHeader::fresh(NodeId(0), BatId(1), 0),
                payload: None,
            });
            std::thread::sleep(Duration::from_millis(20));
            if revived.try_recv().is_some() {
                healed = true;
                break;
            }
        }
        assert!(healed, "data edge 0→1 never healed");

        // The anti-clockwise edge 2→1 heals the same way.
        let mut healed = false;
        for _ in 0..100 {
            let _ = nodes[2]
                .as_ref()
                .unwrap()
                .send_request(DcMsg::Request(ReqMsg { origin: NodeId(2), bat: BatId(5) }));
            std::thread::sleep(Duration::from_millis(20));
            if revived.try_recv().is_some() {
                healed = true;
                break;
            }
        }
        assert!(healed, "request edge 2→1 never healed");

        revived.shutdown();
        for n in nodes.into_iter().flatten() {
            n.shutdown();
        }
    }
}
