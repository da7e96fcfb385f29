//! TCP ring fabric: length-prefixed frames over two neighbor sockets.
//!
//! Wire format per frame: `u32` little-endian payload length, then the
//! `datacyclotron::msg` binary encoding. TCP gives the "asynchronous
//! channels with guaranteed order of arrival" the paper requires of its
//! network layer (§4.3).
//!
//! A fragment crosses a hop without being copied in user space: the
//! sender hands the kernel the length prefix, the message head and the
//! payload it already holds in one vectored write, and the receiver
//! reads the frame into one buffer that *becomes* the message's payload
//! (`decode_frame`). Most frames on the ring are small — headers
//! travelling without their payload, requests, acks — so the reader goes
//! through a `SMALL_READ` (4 KiB) buffer: a small frame costs one `read`,
//! and a fragment-sized body still lands directly in its final buffer (a
//! buffered reader hands large reads straight through). The reader
//! thread then puts the message straight into the member's [`Inbox`] —
//! the node's event channel, once a node attached.
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
use batstore::wire;
use bytes::Bytes;
use datacyclotron::msg::{decode_frame, frame, Frame};
use datacyclotron::transport::{Inbox, Sink};
use datacyclotron::DcMsg;
use parking_lot::Mutex;
use std::io::{BufReader, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Default cap on a single frame (64 MiB). A corrupt or malicious peer
/// can claim any length in the prefix; the cap bounds what we are
/// willing to read, and [`read_frame_capped`] never allocates the
/// claimed length up front — the buffer grows only as bytes arrive.
pub use batstore::wire::MAX_FRAME as DEFAULT_MAX_FRAME;

/// Capacity of the buffer an inbound stream is read through: room for
/// several header, request and ack frames (all under 100 bytes), small
/// enough that what is copied out of it ahead of a large body is noise.
const SMALL_READ: usize = 4096;

/// Write one frame.
pub fn write_frame(stream: &mut impl Write, msg: &DcMsg) -> std::io::Result<()> {
    write_pieces(stream, &frame(msg))
}

/// Length prefix, message head and payloads in one vectored write: no
/// buffer is built to hold them together. Short writes are finished.
fn write_pieces(stream: &mut impl Write, frame: &Frame) -> std::io::Result<()> {
    let prefix = wire::prefix(frame.len())?;
    let mut slices: Vec<IoSlice<'_>> =
        std::iter::once(&prefix[..]).chain(frame.pieces()).map(IoSlice::new).collect();
    let mut rest = &mut slices[..];
    while !rest.is_empty() {
        match stream.write_vectored(rest) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut rest, n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
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
    // One buffer, which becomes the message's payload.
    let Some(buf) = wire::read_prefixed(stream, max_frame)? else { return Ok(None) };
    decode_frame(Bytes::from(buf))
        .map(Some)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
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
    acceptor: Mutex<Option<JoinHandle<()>>>,
    inbound: Arc<Inbound>,
}

/// What the acceptor and the reader threads share with the node.
struct Inbound {
    inbox: Inbox,
    closed: AtomicBool,
    /// The most a frame may hold. Ring members share one cap: what this
    /// member refuses to read its neighbors would refuse too, so it also
    /// refuses to send it.
    max_frame: usize,
    /// Frames refused (over the cap, or undecodable).
    rejected: AtomicU64,
    readers: Mutex<Vec<JoinHandle<()>>>,
    /// The current inbound stream per edge (data, requests), tagged with
    /// the serial number of the connection: `close` can force the reader
    /// threads off their blocking reads without waiting for peers, a
    /// replaced stream is shut and dropped — a flapping neighbor must not
    /// accumulate descriptors — and a reader that gives up on its stream
    /// clears the slot only if it still holds *that* stream.
    streams: Mutex<[Option<(u64, TcpStream)>; 2]>,
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

    let inbound = Arc::new(Inbound {
        inbox: Inbox::new(),
        closed: AtomicBool::new(false),
        max_frame,
        rejected: AtomicU64::new(0),
        readers: Mutex::new(Vec::new()),
        streams: Mutex::new([None, None]),
    });
    let acceptor = {
        let inbound = Arc::clone(&inbound);
        std::thread::spawn(move || accept_loop(listener, inbound))
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
        acceptor: Mutex::new(Some(acceptor)),
        inbound,
    })
}

/// The node's long-lived acceptor: every inbound connection identifies
/// its edge with a 1-byte hello (`b'D'` from the predecessor's data
/// dial, `b'R'` from the successor's request dial) and *replaces* the
/// current stream on that edge — which is how a restarted or reconnecting
/// neighbor re-attaches mid-flight.
fn accept_loop(listener: TcpListener, inbound: Arc<Inbound>) {
    let mut serial = 0u64;
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) => {
                if inbound.closed.load(Ordering::Acquire) {
                    return;
                }
                // Persistent failures (EMFILE and friends) must not spin
                // a core; back off and retry.
                eprintln!("[dc-transport] accept failed: {e}");
                std::thread::sleep(Duration::from_millis(100));
                continue;
            }
        };
        if inbound.closed.load(Ordering::Acquire) {
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
        serial += 1;
        // The new stream takes over the edge; the replaced one is shut
        // (its reader exits) and dropped — reconnects must not leak
        // descriptors, threads, or registry slots.
        if let Some((_, old)) = inbound.streams.lock()[slot].replace((serial, clone)) {
            let _ = old.shutdown(std::net::Shutdown::Both);
        }
        let reader = {
            let inbound = Arc::clone(&inbound);
            std::thread::spawn(move || read_loop(stream, slot, serial, &inbound))
        };
        let mut r = inbound.readers.lock();
        r.retain(|h| !h.is_finished());
        r.push(reader);
    }
}

/// One inbound connection's reader: frames go straight into the inbox
/// (the node's event channel, once attached). However the stream ends,
/// the reader shuts it down — both handles — and gives up its slot.
/// That matters most when it ends because a frame was *refused*: left
/// open, the socket would go on accepting the neighbor's writes with
/// nobody reading them, every later frame on the edge would vanish while
/// `send_*` reported success, and a full socket buffer would finally
/// block the neighbor's event loop in `write` for good. Shut down, the
/// neighbor's next write fails and its send path redials.
fn read_loop(stream: TcpStream, slot: usize, serial: u64, inbound: &Inbound) {
    let mut reader = BufReader::with_capacity(SMALL_READ, &stream);
    loop {
        match read_frame_capped(&mut reader, inbound.max_frame) {
            Ok(Some(msg)) => {
                if !inbound.inbox.push(msg) {
                    break; // closed
                }
            }
            Ok(None) => break,
            Err(e) => {
                // Over the cap, or not a message: refused. (Anything else
                // is the connection dying under us — a peer killed
                // mid-frame, or `close` — which is nobody's bad frame.)
                if e.kind() == std::io::ErrorKind::InvalidData {
                    inbound.rejected.fetch_add(1, Ordering::Relaxed);
                    let edge = ["data", "request"][slot];
                    eprintln!("[dc-transport] inbound {edge} edge dropped: {e}");
                }
                break;
            }
        }
    }
    let _ = stream.shutdown(std::net::Shutdown::Both);
    let mut streams = inbound.streams.lock();
    if streams[slot].as_ref().is_some_and(|(held, _)| *held == serial) {
        streams[slot] = None;
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
        let frame = frame(msg);
        let max_frame = self.inbound.max_frame;
        if frame.len() > max_frame {
            // The neighbor would refuse it and drop the connection with
            // it; refuse here, where the caller can still be told.
            return Err(TransportError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("frame of {} bytes exceeds the {max_frame}-byte cap", frame.len()),
            )));
        }
        let mut guard = out.lock();
        if let Some(s) = guard.as_mut() {
            if write_pieces(s, &frame).is_ok() {
                return Ok(());
            }
        }
        *guard = None;
        if self.inbound.closed.load(Ordering::Acquire) {
            return Err(TransportError::Disconnected);
        }
        let mut fresh = TcpStream::connect_timeout(&peer, REDIAL_TIMEOUT)?;
        fresh.set_nodelay(true).ok();
        fresh.write_all(&[hello])?;
        write_pieces(&mut fresh, &frame)?;
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
        self.send_edge(&self.data_out, self.succ(), b'D', &msg)
    }

    fn send_request(&self, msg: DcMsg) -> Result<(), TransportError> {
        self.send_edge(&self.req_out, self.pred(), b'R', &msg)
    }

    fn recv(&self) -> Option<DcMsg> {
        self.inbound.inbox.recv()
    }

    fn attach(&self, sink: Sink) {
        self.inbound.inbox.attach(sink);
    }

    fn frames_rejected(&self) -> u64 {
        self.inbound.rejected.load(Ordering::Relaxed)
    }

    /// Tear down the node: stop delivering (blocked `recv`s wake, the
    /// attached sink has seen its last call), shut both outgoing
    /// streams, force every inbound stream shut so the reader threads
    /// leave their blocking reads immediately, wake and join the
    /// acceptor, then join the readers. Safe to call in any order across
    /// ring members — no peer coordination is required — and idempotent.
    fn close(&self) {
        self.inbound.closed.store(true, Ordering::Release);
        self.inbound.inbox.close();
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
        for s in self.inbound.streams.lock().iter_mut() {
            if let Some((_, s)) = s.take() {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
        for r in self.inbound.readers.lock().drain(..) {
            let _ = r.join();
        }
    }
}

impl TcpNode {
    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<DcMsg> {
        self.inbound.inbox.try_recv()
    }

    /// Consuming alias of [`RingTransport::close`].
    pub fn shutdown(self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use batstore::wire::FRAME_RESERVE;
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

    /// Two members with their own frame caps, joined into a ring of two
    /// (both of member 0's edges lead to member 1).
    fn capped_pair(cap0: usize, cap1: usize) -> (TcpNode, TcpNode) {
        let addrs = local_addrs(2);
        let peer = {
            let addrs = addrs.clone();
            std::thread::spawn(move || join_ring_capped(&addrs, 1, cap1).unwrap())
        };
        let n0 = join_ring_capped(&addrs, 0, cap0).unwrap();
        (n0, peer.join().unwrap())
    }

    fn bat_of(bytes: usize) -> DcMsg {
        DcMsg::Bat {
            header: BatHeader::fresh(NodeId(0), BatId(1), bytes as u64),
            payload: (bytes > 0).then(|| Bytes::from(vec![7u8; bytes])),
        }
    }

    #[test]
    fn rejected_frame_does_not_wedge_the_edge() {
        // Member 1 reads with a 1 KiB cap; member 0 (default cap) sends
        // it a 4 KiB frame, which member 1 must refuse. The refusal
        // costs the connection — and only the connection: the sender's
        // next write fails, it redials, and later frames arrive. (With
        // the refused stream left open, every one of them vanished into
        // a socket nobody read.)
        let (n0, n1) = capped_pair(DEFAULT_MAX_FRAME, 1024);
        n0.send_data(bat_of(4096)).unwrap();
        let mut arrived = 0;
        for _ in 0..50 {
            let _ = n0.send_data(bat_of(0));
            std::thread::sleep(Duration::from_millis(20));
            while n1.try_recv().is_some() {
                arrived += 1;
            }
        }
        assert!(arrived > 0, "no frame crossed the edge after the rejected one");
        assert_eq!(n1.frames_rejected(), 1);
        // An undecodable frame under the cap is refused the same way.
        let mut raw = TcpStream::connect(n1.addrs[1]).unwrap();
        raw.write_all(b"D\x03\x00\x00\x00\xff\xff\xff").unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while n1.frames_rejected() < 2 {
            assert!(std::time::Instant::now() < deadline, "garbage frame never counted");
            std::thread::sleep(Duration::from_millis(5));
        }
        n0.shutdown();
        n1.shutdown();
    }

    #[test]
    fn over_cap_frame_is_refused_at_the_sender() {
        let (n0, n1) = capped_pair(1024, 1024);
        let err = n0.send_data(bat_of(4096)).unwrap_err();
        assert!(
            matches!(&err, TransportError::Io(e) if e.kind() == std::io::ErrorKind::InvalidInput),
            "{err}"
        );
        assert!(err.to_string().contains("1024-byte cap"), "{err}");
        // Nothing was written, so the edge is intact: the next frame is
        // the first thing member 1 sees.
        n0.send_data(bat_of(512)).unwrap();
        assert_eq!(n1.recv().unwrap(), bat_of(512));
        assert_eq!(n1.frames_rejected(), 0);
        n0.shutdown();
        n1.shutdown();
    }

    #[test]
    fn frames_longer_than_the_reservation_grow_as_they_arrive() {
        // Past `FRAME_RESERVE` the read buffer doubles; the frame must
        // come out whole, and a stream that ends early must say so.
        let msg = bat_of(3 * FRAME_RESERVE + 17);
        let mut buf = Vec::new();
        write_frame(&mut buf, &msg).unwrap();
        assert_eq!(read_frame(&mut &buf[..]).unwrap().unwrap(), msg);
        let err = read_frame(&mut &buf[..buf.len() - 1]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);

        /// Hands out at most 1000 bytes per `read`, as a socket might.
        struct Dribble<'a>(&'a [u8]);
        impl Read for Dribble<'_> {
            fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
                let n = out.len().min(self.0.len()).min(1000);
                out[..n].copy_from_slice(&self.0[..n]);
                self.0 = &self.0[n..];
                Ok(n)
            }
        }
        assert_eq!(read_frame(&mut Dribble(&buf)).unwrap().unwrap(), msg);
    }

    #[test]
    fn small_frames_cost_one_read_and_large_bodies_bypass_the_buffer() {
        /// A socket stand-in that records how much each `read` was
        /// offered.
        struct Offered<'a>(&'a [u8], Vec<usize>);
        impl Read for Offered<'_> {
            fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
                self.1.push(out.len());
                let n = out.len().min(self.0.len());
                out[..n].copy_from_slice(&self.0[..n]);
                self.0 = &self.0[n..];
                Ok(n)
            }
        }
        let small = [
            bat_of(0),
            DcMsg::Request(ReqMsg { origin: NodeId(1), bat: BatId(2) }),
            DcMsg::Ack(datacyclotron::msg::AckMsg {
                target: NodeId(1),
                epoch: 2,
                id: 3,
                answer: datacyclotron::msg::Answer::Mutated(Ok(4)),
            }),
        ];
        let large = bat_of(340_000);
        let mut wire = Vec::new();
        for m in small.iter().chain([&large]) {
            write_frame(&mut wire, m).unwrap();
        }
        let mut reader = BufReader::with_capacity(SMALL_READ, Offered(&wire, Vec::new()));
        for m in &small {
            assert_eq!(&read_frame(&mut reader).unwrap().unwrap(), m);
        }
        assert_eq!(reader.get_ref().1, [SMALL_READ], "three small frames, one read");
        assert_eq!(read_frame(&mut reader).unwrap().unwrap(), large);
        assert!(read_frame(&mut reader).unwrap().is_none(), "clean EOF through the buffer");
        // What the first read had not already pulled in went straight
        // into the frame's own buffer (`read_to_end` asks for more than
        // the small buffer holds, so every such read is handed through),
        // and the last read is the probe that found EOF.
        let (probe, body) = reader.get_ref().1[1..].split_last().expect("more reads");
        assert!(!body.is_empty() && body.iter().all(|&n| n > SMALL_READ), "{body:?}");
        assert_eq!(*probe, SMALL_READ);
    }

    #[test]
    fn short_vectored_writes_are_finished() {
        /// Accepts at most 7 bytes per call, from the first slice only.
        struct Trickle(Vec<u8>);
        impl Write for Trickle {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                let n = buf.len().min(7);
                self.0.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let msg = DcMsg::Bat {
            header: BatHeader::fresh(NodeId(1), BatId(9), 100),
            payload: Some(Bytes::from(vec![1u8; 100])),
        };
        let mut out = Trickle(Vec::new());
        write_frame(&mut out, &msg).unwrap();
        let mut whole = Vec::new();
        write_frame(&mut whole, &msg).unwrap();
        assert_eq!(out.0, whole);
        assert_eq!(&whole[4..], &datacyclotron::encode(&msg)[..], "same bytes as `encode`");
        assert_eq!(read_frame(&mut &out.0[..]).unwrap().unwrap(), msg);
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
