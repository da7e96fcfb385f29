//! The paper's §6 outlook features exercised through the public API:
//! nomadic placement by bids (§6.1) and the version counter of
//! multi-version updates (§6.4). The §6.3 pulsating-ring experiment
//! lives in `paper_scenarios.rs` / `exp_scaling`.

use datacyclotron::bidding::{choose, price, Bid, BidInput};
use datacyclotron::{BatId, NodeId, QueryId};

// ---- §6.1: nomadic query placement ------------------------------------

#[test]
fn bidding_auction_prefers_data_locality_then_load() {
    // Three nodes bid for a 4-fragment query.
    let mk = |node: u16, local: usize, active: usize| Bid {
        node: NodeId(node),
        price: price(&BidInput {
            local_fragments: local,
            total_fragments: 4,
            active_queries: active,
            cores: 4,
            queue_load: 0.2,
        }),
    };
    // Node 1 owns most of the footprint.
    let winner = choose(&[mk(0, 1, 0), mk(1, 3, 0), mk(2, 0, 0)]).unwrap();
    assert_eq!(winner, NodeId(1));
    // Equal locality: the idle node wins.
    let winner = choose(&[mk(0, 2, 12), mk(1, 2, 0)]).unwrap();
    assert_eq!(winner, NodeId(1));
}

#[test]
fn live_ring_placement_is_usable() {
    use batstore::Column;
    let ring = datacyclotron::Ring::builder(3).build();
    ring.load_table("sys", "t", vec![("a", Column::from(vec![1, 2, 3]))]).unwrap();
    let a = ring.node(0).ring_catalog().lookup("sys", "t", "a").unwrap().bat;
    let node = ring.place_query(&[a]);
    assert_eq!(node, 0, "the owner of the only column bids lowest");
    let rs = ring.execute(node, "select count(*) from t").unwrap();
    assert_eq!(rs.cell(0, 0), batstore::Val::Lng(3));
}

// ---- §6.4: multi-version updates ----------------------------------------

#[test]
fn version_header_flows_through_the_ring() {
    // The version counter rides the BAT header: an owner bumps it and
    // later passes carry it.
    let mut owner = datacyclotron::DcNode::new(
        NodeId(0),
        datacyclotron::DcConfig::default(),
        &dc_obs::Registry::new(0),
    );
    owner.register_owned(BatId(1), 100);
    owner.s1.get_mut(BatId(1)).unwrap().version = 2;
    let effects = owner.on_request(datacyclotron::ReqMsg { origin: NodeId(1), bat: BatId(1) });
    assert!(matches!(effects[0], datacyclotron::Effect::LoadFromDisk { .. }));
    let effects = owner.bat_loaded(BatId(1));
    match &effects[..] {
        [datacyclotron::Effect::SendBat { header, .. }] => assert_eq!(header.version, 2),
        other => panic!("{other:?}"),
    }
}

#[test]
fn stale_cache_versions_detectable() {
    // The local cache records the version it admitted, so a reader can
    // compare it with the version the owner's catalog entry advertises.
    let mut node = datacyclotron::DcNode::new(
        NodeId(1),
        datacyclotron::DcConfig::default(),
        &dc_obs::Registry::new(0),
    );
    node.local_request(QueryId(1), BatId(9));
    let mut h = datacyclotron::msg::BatHeader::fresh(NodeId(0), BatId(9), 50);
    h.version = 1;
    node.on_bat(h, true);
    assert_eq!(node.cache.get(BatId(9)).unwrap().version, 1);
}
