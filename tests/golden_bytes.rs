//! Golden bytes: the exact encoding of one value of every kind each
//! binary format holds — `DCB1` BATs, `DCR1` results, mutations, ring
//! messages and one of their TCP frames, WAL records with their frame
//! headers, the `MANIFEST`, and the SQL client's frames.
//!
//! Every one of these formats reaches a disk or a socket: a change to
//! one breaks the data dirs written before it, or the peers that run the
//! build before it. A round-trip test cannot see a change made to an
//! encoder and its decoder alike; these literals can. Each case also
//! decodes its golden bytes and must get its value back.

use batstore::ops::{CmpOp, MutOp, Mutation, RowPredicate};
use batstore::{storage, Bat, ColType, Column, ResultSet, Val};
use bytes::Bytes;
use datacyclotron::msg::{decode, encode, AckMsg, Answer, RoutedMsg, RoutedStmt};
use datacyclotron::{BatHeader, BatId, CatalogCol, CatalogMsg, DcError, DcMsg, NodeId, ReqMsg};
use dc_client::proto::{self, ColMeta, ErrorKind, Frame};
use dc_persist::wal::{decode_frames, encode_record};
use dc_persist::{ColRec, DataDir, Manifest, TableRec, WalRecord};
use std::sync::Arc;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap()).collect()
}

/// `got` must be `want`'s bytes; returns them, for the decode check.
#[track_caller]
fn pin(what: &str, got: &[u8], want: &str) -> Vec<u8> {
    assert_eq!(hex(got), want, "{what}: the encoding changed");
    unhex(want)
}

#[test]
fn dcb1_bats() {
    let coded =
        Column::from(vec!["RAIL", "TRUCK", "RAIL", "RAIL", "TRUCK", "RAIL", "RAIL", "TRUCK"]);
    assert!(coded.byte_size() < coded.wire_size(), "dictionary-coded in memory");
    let plain = Column::from(vec!["a", "", "wörld"]);
    assert_eq!(plain.byte_size(), plain.wire_size(), "plain in memory");
    // An `lng` column narrowed to `u32` offsets, and its twin built by
    // pushes, which stays plain: the same bytes.
    let narrow = Column::from(vec![100i64, 100_000, -7]);
    let mut plain_lng = Column::empty(ColType::Lng);
    [100, 100_000, -7].into_iter().for_each(|x| plain_lng.push(&Val::Lng(x)).unwrap());
    assert_eq!((narrow.byte_size(), plain_lng.byte_size()), (3 * 4, 3 * 8));
    let lngs = "444342310003030000000000000000000000000000006400000000000000a086010000000000f9ff\
                ffffffffffff";
    // `int` and `date` columns narrowed to `u8` and `u16` offsets, each
    // beside its plain twin built by pushes: the same bytes.
    let pushed = |ty, vals: Vec<Val>| {
        let mut c = Column::empty(ty);
        vals.iter().for_each(|v| c.push(v).unwrap());
        c
    };
    let plain_int = pushed(ColType::Int, vec![Val::Int(1), Val::Int(-2), Val::Int(3)]);
    let plain_date = pushed(ColType::Date, vec![Val::Date(19_000), Val::Date(-1)]);
    let (narrow_int, narrow_date) =
        (Column::from(vec![1, -2, 3]), Column::Date(vec![19_000, -1].into()));
    assert_eq!((narrow_int.byte_size(), plain_int.byte_size()), (3, 3 * 4));
    assert_eq!((narrow_date.byte_size(), plain_date.byte_size()), (2 * 2, 2 * 4));
    let (ints, dates) = (
        "4443423100020300000000000000070000000000000001000000feffffff03000000",
        "44434231000702000000000000000000000000000000384a0000ffffffff",
    );
    let cases = [
        ("int", Bat::dense_from(7, plain_int), ints),
        ("narrow int", Bat::dense_from(7, narrow_int), ints),
        (
            "oid x lng",
            Bat::new(Column::Oid(vec![5, 9]), Column::from(vec![-1i64, 1 << 40])).unwrap(),
            "444342310103020000000000000005000000000000000900000000000000ffffffffffffffff0000\
             000000010000",
        ),
        (
            "dbl",
            Bat::dense(Column::Dbl(vec![1.5, -0.0])),
            "44434231000402000000000000000000000000000000000000000000f83f0000000000000080",
        ),
        (
            "bool",
            Bat::dense(Column::Bool(vec![true, false, true])),
            "44434231000603000000000000000000000000000000010001",
        ),
        ("date", Bat::dense(plain_date), dates),
        ("narrow date", Bat::dense(narrow_date), dates),
        (
            "oid",
            Bat::dense(Column::Oid(vec![u64::MAX])),
            "44434231000101000000000000000000000000000000ffffffffffffffff",
        ),
        ("empty", Bat::empty(ColType::Int), "44434231000200000000000000000000000000000000"),
        ("narrow lng", Bat::dense(narrow), lngs),
        ("plain lng", Bat::dense(plain_lng), lngs),
        (
            "plain str",
            Bat::dense(plain),
            "44434231000503000000000000000000000000000000040000000000000000000000010000000100\
             00000700000007000000000000006177c3b6726c64",
        ),
        (
            "coded str",
            Bat::dense(coded),
            "44434231000508000000000000000000000000000000090000000000000000000000040000000900\
             00000d00000011000000160000001a0000001e0000002300000023000000000000005241494c5452\
             55434b5241494c5241494c545255434b5241494c5241494c545255434b",
        ),
    ];
    for (what, bat, want) in cases {
        let bytes = pin(what, &storage::bat_to_bytes(&bat), want);
        assert_eq!(storage::bat_from_bytes(&bytes).unwrap(), bat, "{what}");
    }
}

#[test]
fn dcr1_results() {
    let mut full = ResultSet::with_affected(2);
    full.info = Some("note\n".into());
    full.push_column("sys.t", "k", "int", Arc::new(Bat::dense(Column::from(vec![4, 5]))));
    full.push_column("sys.t", "v", "varchar", Arc::new(Bat::dense(Column::from(vec!["x", "é"]))));
    let cases = [
        ("no columns", ResultSet::new(), "44435231000000"),
        (
            "full",
            full,
            "44435231030200000000000000050000006e6f74650a020005007379732e7401006b0300696e7444\
             434231000202000000000000000000000000000000040000000500000005007379732e7401007607\
             00766172636861724443423100050200000000000000000000000000000003000000000000000000\
             00000100000003000000030000000000000078c3a9",
        ),
    ];
    for (what, rs, want) in cases {
        let mut blob = Vec::new();
        rs.write_to(&mut blob).unwrap();
        let bytes = pin(what, &blob, want);
        assert_eq!(ResultSet::read_from(&mut &bytes[..]).unwrap(), rs, "{what}");
    }
}

/// An UPDATE assigning a value of every kind, under one comparison.
fn update() -> Mutation {
    let vals = [
        Val::Nil,
        Val::Oid(3),
        Val::Int(-4),
        Val::Lng(1 << 40),
        Val::Dbl(0.5),
        Val::from("é"),
        Val::Bool(true),
        Val::Date(19_000),
    ];
    Mutation {
        schema: "sys".into(),
        table: "t".into(),
        op: MutOp::Update(
            vals.iter().enumerate().map(|(i, v)| (format!("c{i}"), v.clone())).collect(),
        ),
        preds: vec![RowPredicate::Cmp { column: "k".into(), op: CmpOp::Ge, value: Val::Int(2) }],
    }
}

fn insert() -> Mutation {
    Mutation {
        schema: "sys".into(),
        table: "kv".into(),
        op: MutOp::Insert(vec![
            ("k".into(), Column::from(vec![1, 2])),
            ("v".into(), Column::from(vec!["a", "bc"])),
        ]),
        preds: vec![],
    }
}

#[test]
fn mutations() {
    let delete = Mutation {
        schema: "sys".into(),
        table: "t".into(),
        op: MutOp::Delete,
        preds: vec![
            RowPredicate::Between { column: "k".into(), lo: Val::Int(1), hi: Val::Int(9) },
            RowPredicate::InList { column: "v".into(), values: vec![Val::from("a"), Val::Lng(7)] },
        ],
    };
    let cases = [
        (
            "update",
            update(),
            "03007379730100740108000200633000020063310103000000000000000200633202fcffffff0200\
             63330300000000000100000200633404000000000000e03f02006335050200c3a902006336060102\
             00633707384a000001000101006b02003e3d0202000000",
        ),
        (
            "delete",
            delete,
            "03007379730100740202000201006b02010000000209000000030100760200050100610307000000\
             00000000",
        ),
        (
            "insert",
            insert(),
            "030073797302006b7603020001006b1e000000444342310002020000000000000000000000000000\
             00010000000200000001007635000000444342310005020000000000000000000000000000000300\
             00000000000000000000010000000300000003000000000000006162630000",
        ),
    ];
    for (what, m, want) in cases {
        let mut out = Vec::new();
        m.encode(&mut out);
        let bytes = pin(what, &out, want);
        let mut rest = &bytes[..];
        assert_eq!(Mutation::decode(&mut rest).unwrap(), m, "{what}");
        assert!(rest.is_empty(), "{what}: decoded every byte");
    }
}

#[test]
fn ring_messages() {
    let header = BatHeader {
        owner: NodeId(3),
        bat: BatId(500),
        size: 4096,
        loi: 0.75,
        copies: 4,
        hops: 7,
        cycles: 12,
        version: 2,
        updating: true,
    };
    let catalog = CatalogMsg {
        origin: NodeId(2),
        schema: "sys".into(),
        table: "sales".into(),
        columns: vec![CatalogCol {
            name: "region".into(),
            ty: ColType::Str,
            bat: BatId(11),
            size: 4096,
            owner: NodeId(0),
            version: 3,
        }],
    };
    let routed = |stmt| {
        DcMsg::Routed(RoutedMsg {
            origin: NodeId(2),
            epoch: 0xdead_beef,
            id: 77,
            settled_below: 75,
            stmt,
        })
    };
    let select = RoutedStmt::Select {
        schema: "sys".into(),
        table: "t".into(),
        sql: "select count(*) from t".into(),
    };
    let ack = |answer| DcMsg::Ack(AckMsg { target: NodeId(1), epoch: 5, id: 9, answer });
    let mut count = ResultSet::new();
    count.push_column("sys", "count", "lng", Arc::new(Bat::dense(Column::from(vec![7i64]))));
    let cases = [
        (
            "bat",
            DcMsg::Bat { header, payload: None },
            "010300f40100000010000000000000000000000000e83f04000000070000000c0000000200000001\
             0000000000000000",
        ),
        (
            "bat + payload",
            DcMsg::Bat { header, payload: Some(Bytes::from_static(b"xyz")) },
            "010300f40100000010000000000000000000000000e83f04000000070000000c0000000200000001\
             030000000000000078797a",
        ),
        (
            "request",
            DcMsg::Request(ReqMsg { origin: NodeId(9), bat: BatId(123) }),
            "0209007b000000",
        ),
        (
            "catalog",
            DcMsg::Catalog(catalog),
            "0302000300737973050073616c657301000600726567696f6e050b00000000100000000000000000\
             03000000",
        ),
        (
            "routed update",
            routed(RoutedStmt::Mutate(update())),
            "040200efbeadde000000004d000000000000004b0000000000000003007379730100740108000200\
             633000020063310103000000000000000200633202fcffffff020063330300000000000100000200\
             633404000000000000e03f02006335050200c3a90200633606010200633707384a00000100010100\
             6b02003e3d0202000000",
        ),
        (
            "routed select",
            routed(select),
            "070200efbeadde000000004d000000000000004b0000000000000003007379730100741600000073\
             656c65637420636f756e74282a292066726f6d2074",
        ),
        (
            "ack mutated",
            ack(Answer::Mutated(Ok(4))),
            "05010005000000000000000900000000000000010400000000000000",
        ),
        (
            "ack mutate failed",
            ack(Answer::Mutated(Err("no owner".into()))),
            "050100050000000000000009000000000000000008006e6f206f776e6572",
        ),
        (
            "ack selected",
            ack(Answer::Selected(Ok(count))),
            "05010005000000000000000900000000000000024443523100010003007379730500636f756e7403\
             006c6e67444342310003010000000000000000000000000000000700000000000000",
        ),
        (
            "ack select failed",
            ack(Answer::Selected(Err(DcError::Ring("pin timed out".into())))),
            "0501000500000000000000090000000000000003030d0070696e2074696d6564206f7574",
        ),
        ("ack running", ack(Answer::Running), "0501000500000000000000090000000000000004"),
        (
            "ack declined",
            ack(Answer::Declined("busy".into())),
            "0501000500000000000000090000000000000005040062757379",
        ),
    ];
    for (what, msg, want) in cases {
        let bytes = pin(what, &encode(&msg), want);
        assert_eq!(decode(&bytes).unwrap(), msg, "{what}");
    }
}

#[test]
fn a_ring_tcp_frame() {
    let msg = DcMsg::Request(ReqMsg { origin: NodeId(1), bat: BatId(2) });
    let mut out = Vec::new();
    dc_transport::tcp::write_frame(&mut out, &msg).unwrap();
    let bytes = pin("tcp frame", &out, "0700000002010002000000");
    assert_eq!(dc_transport::tcp::read_frame(&mut &bytes[..]).unwrap(), Some(msg));
}

#[test]
fn wal_records() {
    let table = TableRec {
        origin: 2,
        schema: "sys".into(),
        table: "kv".into(),
        cols: vec![
            ColRec { name: "k".into(), ty: ColType::Int, bat: 9, size: 8, owner: 2 },
            ColRec { name: "v".into(), ty: ColType::Str, bat: 10, size: 0, owner: 2 },
        ],
    };
    let cases = [
        (
            "table",
            WalRecord::Table(table),
            "3200000077bc5294010200030073797302006b76020001006b020900000008000000000000000200\
             010076050a00000000000000000000000200",
        ),
        (
            "frag meta",
            WalRecord::FragMeta { bat: 9, version: 3 },
            "0900000067f11fb6040900000003000000",
        ),
        (
            "mutate",
            WalRecord::Mutate { m: insert(), versions: vec![(9, 1), (10, 1)] },
            "8200000004a96b1508030073797302006b7603020001006b1e000000444342310002020000000000\
             00000000000000000000010000000200000001007635000000444342310005020000000000000000\
             00000000000000030000000000000000000000010000000300000003000000000000006162630000\
             020009000000010000000a00000001000000",
        ),
    ];
    for (what, rec, want) in cases {
        let bytes = pin(what, &encode_record(&rec), want);
        assert_eq!(decode_frames(&bytes).unwrap(), (vec![rec], false), "{what}");
    }
}

#[test]
fn the_manifest() {
    let root = std::env::temp_dir().join(format!("dc_golden_manifest_{}", std::process::id()));
    let dir = DataDir::open(&root).unwrap();
    let m = Manifest { node: 3, replay_from: 17 };
    dir.write_manifest(&m).unwrap();
    pin("manifest", &std::fs::read(dir.manifest_path()).unwrap(), "44434d3103001100000000000000");
    assert_eq!(dir.read_manifest().unwrap(), Some(m));
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn client_frames() {
    let columns = vec![ColMeta {
        table: "sys.t".into(),
        name: "k".into(),
        sql_type: "int".into(),
        ty: ColType::Int,
    }];
    let cases = [
        ("hello", Frame::Hello { version: proto::PROTOCOL_VERSION }, "014443515001"),
        (
            "query",
            Frame::Query { sql: "select 'wörld'".into() },
            "020f00000073656c656374202777c3b6726c6427",
        ),
        (
            "result header",
            Frame::ResultHeader { columns, affected: Some(3), info: Some("i".into()) },
            "030303000000000000000100000069010005007379732e7401006b0300696e7402",
        ),
        (
            "bare result header",
            Frame::ResultHeader { columns: vec![], affected: None, info: None },
            "03000000",
        ),
        (
            "row batch",
            Frame::RowBatch { cols: vec![Bat::dense(Column::from(vec![1, 2]))] },
            "040100444342310002020000000000000000000000000000000100000002000000",
        ),
        (
            "error",
            Frame::Error { kind: ErrorKind::Plan, message: "no such table".into() },
            "05010d0000006e6f2073756368207461626c65",
        ),
        ("done", Frame::Done, "06"),
    ];
    for (what, frame, want) in cases {
        let bytes = pin(what, &proto::encode(&frame).unwrap(), want);
        assert_eq!(proto::decode(&bytes).unwrap(), frame, "{what}");
    }
    let mut out = Vec::new();
    proto::write_frame(&mut out, &Frame::Done).unwrap();
    let bytes = pin("prefixed done", &out, "0100000006");
    let back = proto::read_frame(&mut &bytes[..], proto::DEFAULT_MAX_FRAME).unwrap();
    assert_eq!(back, Some(Frame::Done));
}
