//! The DC protocol over the real TCP transport: the frame reader's edge
//! cases, then engine nodes exchanging framed messages over sockets —
//! requests anti-clockwise, fragments clockwise and only as far as they
//! were asked for, hot-set expiry at the owner.

mod support;

use batstore::{Bat, Column};
use bytes::Bytes;
use datacyclotron::{BatId, DcConfig, DcMsg, NodeId, ReqMsg, RingNode};
use dc_transport::tcp::{read_frame, read_frame_capped, write_frame};
use std::time::{Duration, Instant};
use support::{spawn_tcp_ring, test_cfg};

// ---- framing edge cases -------------------------------------------------

#[test]
fn oversize_frame_rejected_without_allocation() {
    // A corrupt peer claims a frame just under u32::MAX; the reader must
    // reject it from the length prefix alone (and, below the cap, must
    // never allocate the claimed length before bytes arrive).
    let mut buf = Vec::new();
    buf.extend_from_slice(&(u32::MAX - 1).to_le_bytes());
    let err = read_frame(&mut &buf[..]).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("cap"), "{err}");
}

#[test]
fn lowered_frame_cap_is_enforced() {
    let msg = DcMsg::Bat {
        header: datacyclotron::BatHeader::fresh(NodeId(0), BatId(1), 64),
        payload: Some(Bytes::from(vec![7u8; 64])),
    };
    let mut buf = Vec::new();
    write_frame(&mut buf, &msg).unwrap();
    // Under a 16-byte cap the same frame is refused…
    let err = read_frame_capped(&mut &buf[..], 16).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    // …and with a generous cap it round-trips.
    assert_eq!(read_frame_capped(&mut &buf[..], 1 << 20).unwrap().unwrap(), msg);
}

#[test]
fn clean_eof_vs_truncated_prefix() {
    // Zero bytes: a clean close between frames.
    assert!(read_frame(&mut &b""[..]).unwrap().is_none());
    // EOF inside the 4-byte length prefix is NOT clean: the peer died
    // mid-frame and the reader must surface it.
    for cut in 1..4 {
        let mut buf = Vec::new();
        write_frame(&mut buf, &DcMsg::Request(ReqMsg { origin: NodeId(0), bat: BatId(1) }))
            .unwrap();
        let err = read_frame(&mut &buf[..cut]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "cut at {cut}");
    }
}

#[test]
fn truncated_payload_reports_shortfall() {
    let msg = DcMsg::Bat {
        header: datacyclotron::BatHeader::fresh(NodeId(0), BatId(1), 32),
        payload: Some(Bytes::from(vec![1u8; 32])),
    };
    let mut buf = Vec::new();
    write_frame(&mut buf, &msg).unwrap();
    let err = read_frame(&mut &buf[..buf.len() - 5]).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    assert!(err.to_string().contains("truncated frame"), "{err}");
}

#[test]
fn back_to_back_frames_stream_cleanly() {
    let msgs = vec![
        DcMsg::Request(ReqMsg { origin: NodeId(1), bat: BatId(2) }),
        DcMsg::Bat {
            header: datacyclotron::BatHeader::fresh(NodeId(0), BatId(3), 3),
            payload: Some(Bytes::from_static(b"abc")),
        },
        DcMsg::Request(ReqMsg { origin: NodeId(2), bat: BatId(9) }),
    ];
    let mut buf = Vec::new();
    for m in &msgs {
        write_frame(&mut buf, m).unwrap();
    }
    let mut r = &buf[..];
    for m in &msgs {
        assert_eq!(&read_frame(&mut r).unwrap().unwrap(), m);
    }
    assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF after the last frame");
}

// ---- protocol over real sockets -----------------------------------------

/// Block until the node's counter `name` is non-zero (10 s at most).
fn await_counter(node: &RingNode, name: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while node.counter(name) == Some(0) {
        assert!(Instant::now() < deadline, "node {}: {name} stayed 0", node.id);
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn request_travels_anticlockwise_and_bat_returns_clockwise() {
    // (The default `resend_timeout`: nothing below may need a re-send.)
    let cfg = DcConfig { resend_timeout: DcConfig::default().resend_timeout, ..test_cfg() };
    let nodes = spawn_tcp_ring(3, cfg);
    // Node 2 owns the fragment; node 0 wants it.
    let column = Column::Int((0..256).collect());
    let size = Bat::dense(column.clone()).byte_size() as u64;
    nodes[2].load_table("sys", "t", vec![("x", column.clone())]).unwrap();
    for n in &nodes {
        n.wait_for_table_timeout("sys", "t", Duration::from_secs(10)).unwrap();
    }
    // A projection, which pulls the column (an aggregate would run at
    // the owner).
    let rs = nodes[0].execute("select x from t").unwrap();
    assert_eq!(rs.columns[0].data.tail(), &column, "requester served");

    // Anti-clockwise, node 0's predecessor *is* the owner: the request
    // reached it in one hop and node 1 never saw it.
    let count = |i: usize, name: &str| nodes[i].counter(name).unwrap();
    let owner = (count(2, "requests_owner_handled"), count(2, "bats_loaded"));
    assert_eq!(owner, (1, 1));
    // Clockwise, the owner's successor is node 0: the fragment arrived
    // there with its payload and answered the outstanding request.
    assert_eq!((count(0, "requests_dispatched"), count(0, "latency_count")), (1, 1));
    assert_eq!(count(0, "requests_resent"), 0);
    // And it keeps circulating: node 1 forwards it — as a header, since
    // nobody downstream of node 0 asked for the bytes.
    await_counter(&nodes[1], "bats_forwarded");
    assert_eq!((count(1, "requests_forwarded"), count(1, "bytes_forwarded")), (0, 0));
    let bytes_in = |i: usize| count(i, "obs_ring_data_bytes_in");
    assert!(
        bytes_in(0) > size && bytes_in(1) < size,
        "{} / {} of {size}",
        bytes_in(0),
        bytes_in(1)
    );
    // Node 0 counts a frame once its send returns, which can be after
    // node 1 has forwarded it.
    await_counter(&nodes[0], "obs_ring_bat_frames_header_only");

    for n in nodes {
        n.shutdown();
    }
}

#[test]
fn hot_set_expires_over_tcp() {
    // Owner node 0 with a fragment nobody re-pins: after its cycles the
    // LOI decays below the one level there is and the owner unloads it.
    let nodes = spawn_tcp_ring(2, DcConfig { loit_levels: vec![0.5], ..test_cfg() });
    nodes[0].load_table("sys", "t", vec![("x", Column::Int(vec![1, 2, 3].into()))]).unwrap();
    nodes[1].wait_for_table_timeout("sys", "t", Duration::from_secs(10)).unwrap();
    let rs = nodes[1].execute("select x from t").unwrap();
    assert_eq!(rs.columns[0].data.tail(), &Column::Int(vec![1, 2, 3].into()));

    await_counter(&nodes[0], "bats_unloaded");
    let owner = ["bats_loaded", "bats_unloaded", "bats_lost"].map(|c| nodes[0].counter(c).unwrap());
    assert_eq!(owner, [1, 1, 0]);
    for n in nodes {
        n.shutdown();
    }
}
