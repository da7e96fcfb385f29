//! The paper's §6 outlook features exercised through the public API:
//! the version counter of multi-version updates (§6.4). The §6.3
//! pulsating-ring experiment lives in `paper_scenarios.rs` /
//! `exp_scaling`.

use datacyclotron::{BatId, NodeId, QueryId};

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
