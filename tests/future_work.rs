//! The paper's §6 outlook features exercised through the public API:
//! nomadic placement by bids (§6.1), intermediate-result publication
//! (§6.2), and multi-version updates (§6.4). The §6.3 pulsating-ring
//! experiment lives in `paper_scenarios.rs` / `exp_scaling`.

use datacyclotron::bidding::{choose, price, Bid, BidInput};
use datacyclotron::intermediates::{is_intermediate, plan_signature, IntermediateRegistry};
use datacyclotron::versions::{ReadAdmission, UpdateAdmission, VersionTable};
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

// ---- §6.2: result caching ----------------------------------------------

#[test]
fn intermediates_shared_across_queries() {
    let reg = IntermediateRegistry::new();
    // Two queries producing the same join fragment publish under the same
    // plan signature; the second reuses the first's ring identity.
    let sig = plan_signature(&[
        "algebra.join(sys.t.id, reverse(sys.c.t_id))".into(),
        "algebra.markT(#0, 0@0)".into(),
    ]);
    let (a, fresh_a) = reg.publish(&sig, NodeId(0), 4096);
    let (b, fresh_b) = reg.publish(&sig, NodeId(2), 4096);
    assert!(fresh_a && !fresh_b);
    assert_eq!(a.bat, b.bat);
    assert!(is_intermediate(a.bat), "reserved namespace");

    // The intermediate circulates like base data: a DC node can own it.
    let mut node = datacyclotron::DcNode::new(NodeId(0), datacyclotron::DcConfig::default());
    node.register_owned(a.bat, 4096);
    let effects = node.on_request(datacyclotron::ReqMsg { origin: NodeId(1), bat: a.bat });
    assert!(
        effects.iter().any(|e| matches!(e, datacyclotron::Effect::LoadFromDisk { .. })),
        "intermediates enter the ring through the ordinary protocol: {effects:?}"
    );
}

#[test]
fn invalidated_intermediate_is_republished() {
    let reg = IntermediateRegistry::new();
    let (a, _) = reg.publish("sig", NodeId(0), 100);
    assert!(reg.invalidate("sig"));
    let (b, fresh) = reg.publish("sig", NodeId(1), 120);
    assert!(fresh);
    assert_ne!(a.bat, b.bat, "a new version gets a new ring identity");
}

// ---- §6.4: multi-version updates ----------------------------------------

#[test]
fn update_lifecycle_with_concurrent_readers() {
    let vt = VersionTable::new();
    let bat = BatId(7);

    // Reader sees version 0 before any update.
    assert!(matches!(
        vt.admit_read(bat, 0, false),
        ReadAdmission::Serve { version: 0, stale: false }
    ));

    // Node 3 claims the update; the BAT circulates tagged `updating`.
    assert!(matches!(vt.begin_update(bat, NodeId(3)), UpdateAdmission::Granted { .. }));

    // A concurrent updater on another node must wait for the controller.
    assert_eq!(vt.begin_update(bat, NodeId(5)), UpdateAdmission::Busy { controller: NodeId(3) });

    // Relaxed readers keep using the flowing old version (flagged stale);
    // strict readers wait.
    assert!(matches!(
        vt.admit_read(bat, 0, false),
        ReadAdmission::Serve { version: 0, stale: true }
    ));
    assert_eq!(vt.admit_read(bat, 0, true), ReadAdmission::WaitForNewVersion);

    // Commit: version bumps, strict readers of the new version proceed.
    assert_eq!(vt.commit_update(bat, NodeId(3)).unwrap(), 1);
    assert!(matches!(
        vt.admit_read(bat, 1, true),
        ReadAdmission::Serve { version: 1, stale: false }
    ));
    // The old circulating copy is permanently stale now.
    assert!(matches!(
        vt.admit_read(bat, 0, false),
        ReadAdmission::Serve { version: 0, stale: true }
    ));

    // The freed BAT can be claimed by the other node.
    assert!(matches!(
        vt.begin_update(bat, NodeId(5)),
        UpdateAdmission::Granted { version_being_replaced: 1 }
    ));
}

#[test]
fn version_header_flows_through_the_ring() {
    // The version counter rides the BAT header: an owner bumps it and
    // later passes carry it.
    let mut owner = datacyclotron::DcNode::new(NodeId(0), datacyclotron::DcConfig::default());
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
    // The local cache records the version it admitted; a version table
    // comparison detects staleness for strict readers.
    let mut node = datacyclotron::DcNode::new(NodeId(1), datacyclotron::DcConfig::default());
    node.local_request(QueryId(1), BatId(9));
    let mut h = datacyclotron::msg::BatHeader::fresh(NodeId(0), BatId(9), 50);
    h.version = 1;
    node.on_bat(h, true);
    assert_eq!(node.cache.get(BatId(9)).unwrap().version, 1);

    let vt = VersionTable::new();
    vt.begin_update(BatId(9), NodeId(0));
    vt.commit_update(BatId(9), NodeId(0)).unwrap();
    vt.begin_update(BatId(9), NodeId(0));
    vt.commit_update(BatId(9), NodeId(0)).unwrap(); // now version 2
    assert_eq!(
        vt.admit_read(BatId(9), node.cache.get(BatId(9)).unwrap().version, true),
        ReadAdmission::WaitForNewVersion
    );
}
