//! The hand-over from `recv()` to an attached sink, on every fabric:
//! the memory ring, the TCP ring, and a `FaultTransport` (no faults
//! scripted) over the memory ring. Whatever arrived before the attach
//! and was not pulled reaches the sink first, in order; everything
//! after follows, exactly once; and `close()` is the last word.

use datacyclotron::transport::mem;
use datacyclotron::{BatHeader, BatId, DcMsg, FaultPlan, FaultTransport, NodeId, RingTransport};
use dc_transport::tcp::join_ring;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Frames sent before the attach, and again after it.
const N: u32 = 300;
/// How many of the first batch the test pulls with `recv()` itself.
const PULLED: u32 = 10;

fn numbered(i: u32) -> DcMsg {
    DcMsg::Bat { header: BatHeader::fresh(NodeId(0), BatId(i), 0), payload: None }
}

fn number_of(msg: &DcMsg) -> u32 {
    match msg {
        DcMsg::Bat { header, .. } => header.bat.0,
        other => panic!("unexpected {other:?}"),
    }
}

fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting until {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// `sender`'s data edge leads to `receiver`.
fn hand_over_is_ordered_and_exactly_once(
    sender: Arc<dyn RingTransport>,
    receiver: Arc<dyn RingTransport>,
) {
    // The sender reports when the first batch is out and keeps going
    // without a pause, so the second batch races the attach.
    let (first_batch_out, first_batch) = mpsc::channel();
    let producer = {
        let sender = Arc::clone(&sender);
        std::thread::spawn(move || {
            for i in 0..2 * N {
                sender.send_data(numbered(i)).expect("send");
                if i + 1 == N {
                    first_batch_out.send(()).expect("test is waiting");
                }
            }
        })
    };

    // Unattached, `recv()` pulls in order, as it always did.
    for i in 0..PULLED {
        assert_eq!(number_of(&receiver.recv().expect("open")), i);
    }

    first_batch.recv().expect("producer reports");
    let seen = Arc::new(Mutex::new(Vec::new()));
    let closed = Arc::new(AtomicBool::new(false));
    let late_calls = Arc::new(AtomicUsize::new(0));
    receiver.attach({
        let (seen, closed, late_calls) =
            (Arc::clone(&seen), Arc::clone(&closed), Arc::clone(&late_calls));
        Box::new(move |msg| {
            if closed.load(Ordering::SeqCst) {
                late_calls.fetch_add(1, Ordering::SeqCst);
            }
            seen.lock().unwrap().push(number_of(&msg));
        })
    });
    producer.join().expect("producer");

    wait_until("every frame reached the sink", || {
        seen.lock().unwrap().len() as u32 >= 2 * N - PULLED
    });
    let want: Vec<u32> = (PULLED..2 * N).collect();
    assert_eq!(*seen.lock().unwrap(), want, "exactly once, in send order");

    // A sender is mid-burst when the receiver closes: no sink call may
    // be running or start once `close()` has returned.
    let burst = {
        let sender = Arc::clone(&sender);
        std::thread::spawn(move || {
            for i in 0..2 * N {
                let _ = sender.send_data(numbered(2 * N + i));
            }
        })
    };
    wait_until("the burst is arriving", || seen.lock().unwrap().len() as u32 > 2 * N - PULLED);
    receiver.close();
    closed.store(true, Ordering::SeqCst);
    burst.join().expect("burst");
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(late_calls.load(Ordering::SeqCst), 0, "the sink was called after close() returned");
    assert!(receiver.recv().is_none(), "closed stays closed");
    sender.close();
}

fn mem_pair() -> (Arc<dyn RingTransport>, Arc<dyn RingTransport>) {
    let mut ring = mem::ring(2);
    let receiver = Arc::new(ring.pop().expect("two members"));
    let sender = Arc::new(ring.pop().expect("two members"));
    (sender, receiver)
}

#[test]
fn mem_fabric_hands_over_in_order() {
    let (sender, receiver) = mem_pair();
    hand_over_is_ordered_and_exactly_once(sender, receiver);
}

#[test]
fn fault_wrapper_hands_over_in_order() {
    // Wrapped on both sides: the sender's frames pass through the
    // wrapper's delivery thread, the receiver's `attach` through its
    // forward to the inner fabric.
    let (sender, receiver) = mem_pair();
    hand_over_is_ordered_and_exactly_once(
        Arc::new(FaultTransport::new(sender, FaultPlan::quiet(1))),
        Arc::new(FaultTransport::new(receiver, FaultPlan::quiet(2))),
    );
}

#[test]
fn tcp_fabric_hands_over_in_order() {
    let reserved: Vec<TcpListener> =
        (0..2).map(|_| TcpListener::bind("127.0.0.1:0").unwrap()).collect();
    let addrs: Vec<SocketAddr> = reserved.iter().map(|l| l.local_addr().unwrap()).collect();
    drop(reserved);
    let peer = {
        let addrs = addrs.clone();
        std::thread::spawn(move || join_ring(&addrs, 1).expect("join"))
    };
    let sender = join_ring(&addrs, 0).expect("join");
    let receiver = peer.join().expect("peer");
    hand_over_is_ordered_and_exactly_once(Arc::new(sender), Arc::new(receiver));
}
