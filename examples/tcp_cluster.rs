//! A Data Cyclotron ring over real TCP sockets: three "processes"
//! (threads here, but each speaks only TCP to its neighbors) run the
//! protocol state machines and circulate a hot set.
//!
//! Node 2 owns a BAT; node 0 wants it. Watch the request travel
//! anti-clockwise (0 → 2), the owner load the fragment, and the data
//! travel clockwise (2 → 0 → 1 → 2 → …) until interest fades and the
//! owner pulls it from the ring.
//!
//! ```sh
//! cargo run --example tcp_cluster
//! ```

use batstore::{storage, Bat, Column};
use datacyclotron::DcMsg;
use datacyclotron::{BatId, DcConfig, DcNode, Effect, NodeId, PinOutcome, QueryId};
use dc_transport::tcp::join_ring;
use dc_transport::RingTransport;
use netsim::SimTime;
use std::net::{SocketAddr, TcpListener};
use std::sync::mpsc;
use std::time::{Duration, Instant};

fn free_addrs(n: usize) -> Vec<SocketAddr> {
    let listeners: Vec<TcpListener> =
        (0..n).map(|_| TcpListener::bind("127.0.0.1:0").unwrap()).collect();
    listeners.iter().map(|l| l.local_addr().unwrap()).collect()
}

fn main() {
    let addrs = free_addrs(3);
    println!("ring addresses: {addrs:?}");
    let (done_tx, done_rx) = mpsc::channel::<String>();

    let mut handles = Vec::new();
    for me in 0..3 {
        let addrs = addrs.clone();
        let done = done_tx.clone();
        handles.push(std::thread::spawn(move || {
            let transport = join_ring(&addrs, me).expect("join ring");
            let started = Instant::now();
            let now = |s: &Instant| SimTime(s.elapsed().as_nanos() as u64);

            let cfg = DcConfig {
                load_interval: netsim::SimDuration::from_millis(10),
                ..DcConfig::default()
            };
            let mut node = DcNode::new(NodeId(me as u16), cfg);

            // Node 2 owns the fragment on its "disk".
            let payload = Bat::dense(Column::Int((0..1000).collect()));
            let frag = BatId(7);
            if me == 2 {
                node.register_owned(frag, payload.byte_size() as u64);
            }
            let disk_bytes = storage::bat_to_bytes(&payload);

            // Node 0 registers a query and pins.
            if me == 0 {
                node.set_time(now(&started));
                for e in node.local_request(QueryId(1), frag) {
                    if let Effect::SendRequest(r) = e {
                        println!("[node 0] request for {frag} sent anti-clockwise");
                        transport.send_request(DcMsg::Request(r)).unwrap();
                    }
                }
                assert_eq!(node.pin(QueryId(1), frag).0, PinOutcome::MustWait);
            }

            let deadline = Instant::now() + Duration::from_secs(10);
            let mut served = me != 0;
            let mut cycles_seen = 0u32;
            while Instant::now() < deadline {
                let Some(msg) = transport.recv_timeout_compat() else {
                    node.set_time(now(&started));
                    for e in node.tick() {
                        execute(&node, &transport, e, &disk_bytes, &mut served, me);
                    }
                    continue;
                };
                node.set_time(now(&started));
                let effects = match msg {
                    DcMsg::Request(r) => node.on_request(r),
                    DcMsg::Bat { header, .. } => {
                        if header.owner.0 == me as u16 {
                            cycles_seen = cycles_seen.max(header.cycles + 1);
                        }
                        node.on_bat(header)
                    }
                    // This demo drives the raw protocol; the engine-level
                    // catalog/append/mutation/hot-set machinery is
                    // exercised by the sql_tcp_cluster example instead.
                    _ => Vec::new(),
                };
                let mut loaded = Vec::new();
                for e in effects {
                    if let Effect::LoadFromDisk { bat, .. } = e {
                        println!("[node {me}] loading {bat} from disk into the ring");
                        loaded.extend(node.bat_loaded(bat));
                    } else {
                        execute(&node, &transport, e, &disk_bytes, &mut served, me);
                    }
                }
                for e in loaded {
                    execute(&node, &transport, e, &disk_bytes, &mut served, me);
                }
                if served && me == 0 {
                    let _ = done.send(format!("node 0 received {frag} over TCP"));
                    served = false; // report once
                }
                if me == 2 && node.stats.bats_unloaded > 0 {
                    let _ = done.send(format!(
                        "owner unloaded {frag} after {cycles_seen} cycles (interest faded)"
                    ));
                    break;
                }
            }
            transport_shutdown(transport);
        }));
    }
    drop(done_tx);

    for msg in done_rx {
        println!("✓ {msg}");
    }
    for h in handles {
        let _ = h.join();
    }
    println!("TCP ring demo complete.");
}

fn execute(
    _node: &DcNode,
    transport: &dc_transport::tcp::TcpNode,
    e: Effect,
    disk_bytes: &[u8],
    served: &mut bool,
    me: usize,
) {
    match e {
        Effect::SendBat(h) => {
            let _ = transport.send_data(DcMsg::Bat {
                header: h,
                payload: Some(bytes::Bytes::copy_from_slice(disk_bytes)),
            });
        }
        Effect::SendRequest(r) => {
            let _ = transport.send_request(DcMsg::Request(r));
        }
        Effect::Deliver { header, queries } => {
            println!("[node {me}] fragment {} delivered to {queries:?}", header.bat);
            *served = true;
        }
        Effect::Unload(b) => {
            println!("[node {me}] {b} pulled out of the hot set");
        }
        _ => {}
    }
}

fn transport_shutdown(t: dc_transport::tcp::TcpNode) {
    // Readers exit as peers close; avoid blocking the demo on join.
    std::mem::forget(t);
}

/// Small compatibility shim: non-blocking receive with a short wait.
trait RecvTimeout {
    fn recv_timeout_compat(&self) -> Option<DcMsg>;
}

impl RecvTimeout for dc_transport::tcp::TcpNode {
    fn recv_timeout_compat(&self) -> Option<DcMsg> {
        for _ in 0..10 {
            if let Some(m) = self.try_recv() {
                return Some(m);
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        None
    }
}
