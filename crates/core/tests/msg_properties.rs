//! Property tests for the ring message codec, covering the full `DcMsg`
//! surface: the query-circulation path (`Bat`/`Request`), the routed
//! path (`Routed` with each mutation op and with a pushed SELECT, `Ack`
//! with each kind of answer), and the circulate-once
//! `Catalog` gossip. Arbitrary messages round-trip byte-exactly, every
//! strict prefix of a valid frame is rejected (never mis-decoded or
//! panicked on), hostile count/length prefixes neither panic nor provoke
//! an unbounded allocation, and a frame decoded by value gives back a
//! fragment that is a slice of it.
//!
//! Distributed query execution (§3) deliberately introduces no new wire
//! message: registered queries ride the existing `Request` (interest)
//! and `Bat` (fragment delivery) circulation, so these two shapes carry
//! the whole distributed-join traffic and get the same hostile-input
//! discipline as the mutation path.

use batstore::ops::CmpOp;
use batstore::{ColType, Column, RowPredicate, Val};
use bytes::Bytes;
use datacyclotron::msg::{
    decode, decode_frame, encode, frame, AckMsg, Answer, BatHeader, MutOp, Mutation, ReqMsg,
    RoutedMsg, RoutedStmt, HEADER_WIRE_BYTES,
};
use datacyclotron::{BatId, CatalogCol, CatalogMsg, DcError, DcMsg, NodeId, ResultSet};
use proptest::prelude::*;
use std::sync::Arc;

/// A deterministic value of the given kind. Doubles stay finite:
/// `Val: PartialEq` treats NaN as unequal to itself, which would fail
/// the round-trip assertion for a reason that has nothing to do with
/// the codec.
fn val_from(kind: u8, seed: i64, text: &str) -> Val {
    match kind % 8 {
        0 => Val::Nil,
        1 => Val::Oid(seed.unsigned_abs()),
        2 => Val::Int(seed as i32),
        3 => Val::Lng(seed.wrapping_mul(1_000_003)),
        4 => Val::Dbl(seed as f64 * 0.25),
        5 => Val::Str(text.to_string()),
        6 => Val::Bool(seed % 2 == 0),
        _ => Val::Date((seed % 50_000) as i32),
    }
}

fn pred_from(kind: u8, seed: i64, text: &str, nin: usize) -> RowPredicate {
    let column = format!("c{}", kind % 5);
    match kind % 3 {
        0 => RowPredicate::Cmp {
            column,
            op: [CmpOp::Lt, CmpOp::Le, CmpOp::Eq, CmpOp::Ne, CmpOp::Ge, CmpOp::Gt]
                [seed.unsigned_abs() as usize % 6],
            value: val_from(kind.wrapping_add(1), seed, text),
        },
        1 => RowPredicate::Between {
            column,
            lo: val_from(kind.wrapping_add(2), seed, text),
            hi: val_from(kind.wrapping_add(2), seed.wrapping_add(9), text),
        },
        _ => RowPredicate::InList {
            column,
            values: (0..nin)
                .map(|i| val_from(kind.wrapping_add(i as u8), seed + i as i64, text))
                .collect(),
        },
    }
}

fn routed_from(seed: i64, stmt: RoutedStmt) -> DcMsg {
    DcMsg::Routed(RoutedMsg {
        origin: NodeId(seed.unsigned_abs() as u16),
        epoch: seed.unsigned_abs().wrapping_mul(31),
        id: seed.unsigned_abs().wrapping_mul(7),
        settled_below: seed.unsigned_abs().wrapping_mul(5),
        stmt,
    })
}

/// A pushed SELECT whose table name and text carry `text`.
fn select_from(seed: i64, text: &str) -> DcMsg {
    let (schema, table) = ("sys".to_string(), format!("t{text}"));
    let sql = format!("select count(*), sum(a) from t{text} where s = '{text}' and a < {seed}");
    routed_from(seed, RoutedStmt::Select { schema, table, sql })
}

fn mutate_from(kind: u8, seed: i64, text: &str, nassign: usize, npred: usize) -> DcMsg {
    let op = if kind.is_multiple_of(2) {
        MutOp::Update(
            (0..nassign)
                .map(|i| (format!("a{i}"), val_from(kind.wrapping_add(i as u8), seed, text)))
                .collect(),
        )
    } else {
        MutOp::Delete
    };
    routed_from(
        seed,
        RoutedStmt::Mutate(Mutation {
            schema: "sys".into(),
            table: format!("t{}", kind % 7),
            op,
            preds: (0..npred)
                .map(|i| pred_from(kind.wrapping_add(i as u8), seed + i as i64, text, 1 + i % 4))
                .collect(),
        }),
    )
}

/// A column of `nrows` values of the type `kind` picks, each typed
/// value drawn as [`val_from`] would (strings from `text`).
fn column_from(kind: u8, seed: i64, text: &str, nrows: usize) -> Column {
    let seeds = (0..nrows as i64).map(|i| seed.wrapping_add(i));
    match kind % 6 {
        0 => Column::from(seeds.map(|s| s as i32).collect::<Vec<i32>>()),
        1 => Column::from(seeds.map(|s| s.wrapping_mul(1_000_003)).collect::<Vec<i64>>()),
        2 => Column::from(seeds.map(|s| s as f64 * 0.25).collect::<Vec<f64>>()),
        3 => Column::Bool(seeds.map(|s| s % 2 == 0).collect()),
        4 => Column::Date(seeds.map(|s| (s % 50_000) as i32).collect()),
        _ => {
            let strs: Vec<String> = seeds.map(|s| format!("{text}{s}")).collect();
            Column::from(strs.iter().map(String::as_str).collect::<Vec<_>>())
        }
    }
}

fn insert_from(kind: u8, seed: i64, text: &str, ncols: usize, nrows: usize) -> DcMsg {
    let given = (0..ncols)
        .map(|i| (format!("c{i}"), column_from(kind.wrapping_add(i as u8), seed, text, nrows)))
        .collect();
    let m = Mutation {
        schema: "sys".into(),
        table: format!("t{text}"),
        op: MutOp::Insert(given),
        preds: vec![],
    };
    routed_from(seed, RoutedStmt::Mutate(m))
}

fn ack_with(seed: i64, answer: Answer) -> DcMsg {
    DcMsg::Ack(AckMsg {
        target: NodeId(seed.unsigned_abs() as u16),
        epoch: seed.unsigned_abs().wrapping_mul(13),
        id: seed.unsigned_abs(),
        answer,
    })
}

/// A mutation's answer: its count, or its failure.
fn ack_from(seed: i64, text: &str) -> DcMsg {
    let result = if seed % 2 == 0 { Ok(seed.unsigned_abs()) } else { Err(text.to_string()) };
    ack_with(seed, Answer::Mutated(result))
}

/// A pushed SELECT's answer: `ncols` columns of `nrows` rows (with
/// `text` as the info, if any) or, for an odd `kind`, a failure of the
/// class `kind` picks.
fn selected_from(kind: u8, seed: i64, text: &str, ncols: usize, nrows: usize) -> DcMsg {
    if kind % 2 == 1 {
        let err =
            [DcError::Parse, DcError::Plan, DcError::Exec, DcError::Ring][kind as usize / 2 % 4];
        return ack_with(seed, Answer::Selected(Err(err(text.to_string()))));
    }
    let mut rs = ResultSet::new();
    rs.info = kind.is_multiple_of(4).then(|| text.to_string());
    rs.affected = (kind % 8 == 2).then_some(seed.unsigned_abs());
    for i in 0..ncols {
        let col = column_from(kind.wrapping_add(i as u8), seed, text, nrows);
        let ty = col.col_type().name();
        rs.push_column("sys", format!("c{i}"), ty, Arc::new(batstore::Bat::dense(col)));
    }
    ack_with(seed, Answer::Selected(Ok(rs)))
}

fn catalog_from(kind: u8, seed: i64, text: &str, ncols: usize) -> DcMsg {
    DcMsg::Catalog(CatalogMsg {
        origin: NodeId(seed.unsigned_abs() as u16),
        schema: "sys".into(),
        table: format!("t{text}"),
        columns: (0..ncols)
            .map(|i| CatalogCol {
                name: format!("col{i}"),
                ty: ColType::from_tag(((kind as usize + i) % 8) as u8).unwrap(),
                bat: BatId((seed.unsigned_abs() as u32).wrapping_add(i as u32)),
                size: seed.unsigned_abs().wrapping_mul(13),
                owner: NodeId((i % 4) as u16),
                version: (seed.unsigned_abs() % 1000) as u32,
            })
            .collect(),
    })
}

fn bat_from(kind: u8, seed: i64, npayload: usize) -> DcMsg {
    // `Some(empty)` is canonicalized to `None` on decode, so a present
    // payload always carries at least one byte.
    let payload = if kind.is_multiple_of(2) {
        Some(Bytes::copy_from_slice(
            &(0..=npayload).map(|i| (seed as usize + i) as u8).collect::<Vec<u8>>(),
        ))
    } else {
        None
    };
    DcMsg::Bat {
        header: BatHeader {
            owner: NodeId(seed.unsigned_abs() as u16),
            bat: BatId(seed.unsigned_abs() as u32),
            size: seed.unsigned_abs().wrapping_mul(41),
            loi: seed as f64 * 0.125,
            copies: (seed.unsigned_abs() % 64) as u32,
            hops: (seed.unsigned_abs() % 128) as u32,
            cycles: (seed.unsigned_abs() % 32) as u32,
            version: (seed.unsigned_abs() % 1000) as u32,
            updating: kind.is_multiple_of(3),
        },
        payload,
    }
}

fn request_from(seed: i64) -> DcMsg {
    DcMsg::Request(ReqMsg {
        origin: NodeId(seed.unsigned_abs() as u16),
        bat: BatId(seed.unsigned_abs().wrapping_mul(3) as u32),
    })
}

/// One message of every `DcMsg` shape from the same inputs, `Routed`
/// once per kind of op (`mutate_from` draws UPDATE or DELETE) and once as
/// a pushed SELECT, `Ack` once per kind of statement.
fn messages(kind: u8, seed: i64, text: &str, n1: usize, n2: usize) -> Vec<DcMsg> {
    vec![
        bat_from(kind, seed, n1),
        request_from(seed),
        insert_from(kind, seed, text, n1, n2),
        mutate_from(kind, seed, text, n1, n2),
        select_from(seed, text),
        ack_from(seed, text),
        selected_from(kind, seed, text, n1, n2),
        catalog_from(kind, seed, text, n1),
    ]
}

proptest! {
    /// Encode → decode is the identity for every message shape.
    #[test]
    fn mutation_path_messages_round_trip(kind in any::<u8>(),
                                         seed in -100_000i64..100_000,
                                         chars in prop::collection::vec(any::<char>(), 0..32),
                                         n1 in 0usize..5,
                                         n2 in 0usize..5) {
        let text: String = chars.into_iter().collect();
        for msg in messages(kind, seed, &text, n1, n2) {
            prop_assert_eq!(decode(&encode(&msg)).unwrap(), msg);
        }
    }

    /// Every strict prefix of a valid frame errors — the codec never
    /// mis-decodes a truncated mutation into a shorter valid one (which
    /// would apply a *different* statement at the owner) and never
    /// panics on one. All of them, through the owning decoder (the
    /// borrowed `decode` is a wrapper over it).
    #[test]
    fn truncated_frames_error_not_panic(kind in any::<u8>(),
                                        seed in -100_000i64..100_000,
                                        chars in prop::collection::vec(any::<char>(), 0..16),
                                        n1 in 0usize..4,
                                        n2 in 0usize..4) {
        let text: String = chars.into_iter().collect();
        for msg in messages(kind, seed, &text, n1, n2) {
            let wire = encode(&msg);
            for cut in 0..wire.len() {
                prop_assert!(
                    decode_frame(wire.slice(..cut)).is_err(),
                    "prefix {cut}/{} of {msg:?} decoded",
                    wire.len()
                );
            }
        }
    }

    /// Decoding a frame by value copies no fragment: a `Bat`'s payload
    /// comes back byte-equal to what was sent and lying inside the
    /// frame's own allocation. The encoder's pieces, written in order,
    /// are the same bytes `encode` concatenates — for a routed INSERT
    /// too, whose rows are part of the statement.
    #[test]
    fn owned_frames_share_their_allocation(kind in any::<u8>(),
                                           seed in -100_000i64..100_000,
                                           chars in prop::collection::vec(any::<char>(), 0..16),
                                           ncols in 0usize..5,
                                           npayload in 0usize..300) {
        let text: String = chars.into_iter().collect();
        let within = |outer: &Bytes, inner: &Bytes| {
            let (outer, inner) = (outer.as_ptr_range(), inner.as_ptr_range());
            outer.start <= inner.start && inner.end <= outer.end
        };
        let nrows = npayload % 40;
        for msg in [bat_from(kind & !1, seed, npayload), insert_from(kind, seed, &text, ncols, nrows)] {
            let wire = encode(&msg);
            let pieces: Vec<u8> = frame(&msg).pieces().flatten().copied().collect();
            prop_assert_eq!(&pieces[..], &wire[..]);
            prop_assert_eq!(frame(&msg).len(), wire.len());

            let back = decode_frame(wire.clone()).unwrap();
            prop_assert_eq!(&back, &msg);
            if let DcMsg::Bat { payload, .. } = back {
                let payload = payload.expect("an even kind carries a payload");
                prop_assert!(within(&wire, &payload), "Bat payload was copied");
            }
        }
    }

    /// `wire_size()` is what the traffic meters add up, so it has to
    /// follow the bytes a `Bat` frame really carries: a header
    /// travelling alone is billed the header, not the fragment it
    /// describes. Both forms stay within 8 bytes of the encoded frame
    /// (the payload-length field `HEADER_WIRE_BYTES` does not count).
    #[test]
    fn bat_wire_size_follows_the_payload(seed in -100_000i64..100_000,
                                         npayload in 1usize..2_000) {
        let DcMsg::Bat { mut header, .. } = bat_from(1, seed, 0) else { unreachable!() };
        header.size = npayload as u64;
        let alone = DcMsg::Bat { header, payload: None };
        let laden = DcMsg::Bat { header, payload: Some(Bytes::from(vec![7u8; npayload])) };
        prop_assert_eq!(alone.wire_size(), HEADER_WIRE_BYTES);
        prop_assert_eq!(laden.wire_size(), HEADER_WIRE_BYTES + npayload as u64);
        for m in [alone, laden] {
            prop_assert_eq!(frame(&m).len() as u64 - m.wire_size(), 8);
        }
    }

    /// A `Bat` header whose LOI is not a finite number is refused like
    /// any malformed frame: at the owner Eq. 1 would carry the NaN (or
    /// infinity) forward, it would never fall below the threshold, and
    /// the fragment could never be unloaded.
    #[test]
    fn non_finite_loi_is_refused(seed in -100_000i64..100_000,
                                 which in 0usize..3) {
        let loi = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][which];
        let DcMsg::Bat { mut header, payload } = bat_from(0, seed, 4) else { unreachable!() };
        header.loi = loi;
        let err = decode(&encode(&DcMsg::Bat { header, payload })).unwrap_err();
        prop_assert!(err.contains("non-finite LOI"), "{err}");
    }

    /// Arbitrary garbage never panics the decoder.
    #[test]
    fn garbage_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = decode(&bytes);
    }

    /// A frame whose trailing element count claims far more items than
    /// the buffer holds must fail on truncation without allocating for
    /// the claim. (The decoder caps `Vec::with_capacity` at 1024
    /// entries, so a lying 0xFFFF count cannot reserve gigabytes.)
    #[test]
    fn hostile_count_prefixes_rejected(count in 2_000u16..u16::MAX) {
        // Mutate: valid header, op = Delete, then a lying predicate count.
        let mut mutate = encode(&mutate_from(1, 7, "x", 0, 0)).to_vec();
        let len = mutate.len();
        mutate[len - 2..].copy_from_slice(&count.to_le_bytes());
        prop_assert!(decode(&mutate).is_err());

        // Catalog: valid empty-column frame, then a lying column count.
        let mut catalog = encode(&catalog_from(0, 7, "x", 0)).to_vec();
        let len = catalog.len();
        catalog[len - 2..].copy_from_slice(&count.to_le_bytes());
        prop_assert!(decode(&catalog).is_err());

        // Insert: valid no-column frame, then a lying column count (the
        // empty predicate count follows it).
        let mut insert = encode(&insert_from(1, 7, "x", 0, 0)).to_vec();
        let len = insert.len();
        insert[len - 4..len - 2].copy_from_slice(&count.to_le_bytes());
        prop_assert!(decode(&insert).is_err());

        // A pushed SELECT's answer: a valid no-column result, then a lying
        // column count.
        let mut answer = encode(&selected_from(2, 7, "x", 0, 0)).to_vec();
        let len = answer.len();
        answer[len - 2..].copy_from_slice(&count.to_le_bytes());
        prop_assert!(decode(&answer).is_err());
    }

    /// A BAT frame whose u64 payload-length field claims more bytes than
    /// the buffer holds errors before any allocation for the claim; an
    /// INSERT column with a lying byte length does the same, and so does
    /// one whose BAT claims more rows than its bytes hold.
    #[test]
    fn hostile_payload_lengths_rejected(claim in 1_000u64..u64::MAX, seed in -100_000i64..100_000) {
        let mut bat = encode(&bat_from(0, seed, 4)).to_vec();
        // tag(1) + 39-byte header, then the u64 payload length.
        bat[40..48].copy_from_slice(&claim.to_le_bytes());
        prop_assert!(decode(&bat).is_err());

        let insert = encode(&insert_from(0, seed, "", 1, 3)).to_vec();
        // tag(1) + origin(2) + epoch(8) + id(8) + settled_below(8) +
        // "sys"(2+3) + "t"(2+1) + op(1) + count(2) + "c0"(2+2) = 42 bytes,
        // then the u32 byte length of the only column and its BAT:
        // "DCB1", two type tags, then the u64 row count.
        let mut column = insert.clone();
        column[42..46].copy_from_slice(&(claim as u32 | 1 << 31).to_le_bytes());
        prop_assert!(decode(&column).is_err());
        let mut rows = insert;
        prop_assert_eq!(&rows[46..50], b"DCB1");
        rows[52..60].copy_from_slice(&claim.to_le_bytes());
        prop_assert!(decode(&rows).is_err());

        // A pushed SELECT's answer: tag(1) + target(2) + epoch(8) + id(8)
        // + answer kind(1) = 20 bytes, then "DCR1" and its flags; with
        // info, the info's u32 length follows.
        let with_info = encode(&selected_from(4, seed, "x", 1, 3)).to_vec();
        prop_assert_eq!(&with_info[20..24], b"DCR1");
        let mut info = with_info;
        info[25..29].copy_from_slice(&(claim as u32 | 1 << 31).to_le_bytes());
        prop_assert!(decode(&info).is_err());
        // Without: the u16 column count, then one column's three labels
        // ("sys", "c0", "int") and its BAT, whose row count lies.
        let mut column = encode(&selected_from(6, seed, "x", 1, 3)).to_vec();
        prop_assert_eq!(&column[41..45], b"DCB1");
        column[47..55].copy_from_slice(&claim.to_le_bytes());
        prop_assert!(decode(&column).is_err());
    }

    /// A string field whose u16 length prefix exceeds the remaining
    /// bytes errors instead of reading out of bounds.
    #[test]
    fn hostile_string_lengths_rejected(claim in 64u16..u16::MAX) {
        // Ack Err-result: the message text is the final field.
        let wire = encode(&ack_with(2, Answer::Mutated(Err("boom".into()))));
        // tag(1) + target(2) + epoch(8) + id(8) + ok-flag(1) = 20 bytes
        // of header, then the u16 string length.
        let mut bytes = wire.to_vec();
        bytes[20..22].copy_from_slice(&claim.to_le_bytes());
        prop_assert!(decode(&bytes).is_err());

        // Routed mutation: the schema name follows tag(1) + origin(2) +
        // epoch(8) + id(8) + settled_below(8) = 27 bytes.
        let mut bytes = encode(&mutate_from(1, 7, "x", 0, 0)).to_vec();
        bytes[27..29].copy_from_slice(&claim.to_le_bytes());
        prop_assert!(decode(&bytes).is_err());

        // Pushed SELECT: "sys"(2+3) and "tx"(2+2) follow the same 27
        // bytes, then the u32 length of the statement text.
        let mut bytes = encode(&select_from(7, "x")).to_vec();
        bytes[36..40].copy_from_slice(&(claim as u32 | 1 << 16).to_le_bytes());
        prop_assert!(decode(&bytes).is_err());
        // A failed SELECT's answer: its class byte, then the message.
        let mut bytes = encode(&selected_from(1, 2, "boom", 0, 0)).to_vec();
        bytes[21..23].copy_from_slice(&claim.to_le_bytes());
        prop_assert!(decode(&bytes).is_err());
    }
}
