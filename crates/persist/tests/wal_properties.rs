//! Property tests for the WAL codec: arbitrary records round-trip
//! through frames, and arbitrary frame prefixes never panic the decoder.

use batstore::ops::{CmpOp, MutOp, Mutation, RowPredicate};
use batstore::{ColType, Column, Val};
use dc_persist::wal::{crc32, decode_frames, decode_payload, encode_record};
use dc_persist::{ColRec, TableRec, WalRecord};
use proptest::prelude::*;

fn record_from(seed: (u8, u32, u32, Vec<u8>, String)) -> WalRecord {
    let (kind, bat, version, rows, name) = seed;
    match kind % 5 {
        0 => insert_record(bat, version, &rows, name),
        1 => WalRecord::FragMeta { bat, version },
        2 => insert_record(bat.wrapping_add(1), version, &rows[rows.len() / 2..], name),
        3 => mutate_record(bat, version, &rows, name),
        _ => WalRecord::Table(TableRec {
            origin: (bat % 64) as u16,
            schema: "sys".into(),
            table: name.clone(),
            cols: vec![ColRec {
                name,
                ty: if version % 2 == 0 { ColType::Int } else { ColType::Str },
                bat,
                size: rows.len() as u64,
                owner: (version % 8) as u16,
            }],
        }),
    }
}

/// An UPDATE (0–3 assignments) or DELETE under 0–3 predicates of every
/// kind, rewriting 0–3 fragments: counts, strings and values vary with
/// the seed so every field boundary is exercised.
fn mutate_record(bat: u32, version: u32, rows: &[u8], name: String) -> WalRecord {
    let n = (bat % 4) as usize;
    let val = |i: usize| match (version as usize + i) % 4 {
        0 => Val::Int(bat as i32),
        1 => Val::Lng(-(version as i64)),
        2 => Val::Str(name.clone()),
        _ => Val::Dbl(rows.len() as f64 * 0.5),
    };
    let op = if version.is_multiple_of(3) {
        MutOp::Delete
    } else {
        MutOp::Update((0..n).map(|i| (format!("c{i}"), val(i))).collect())
    };
    let preds = (0..(version % 4) as usize)
        .map(|i| match i {
            0 => RowPredicate::Cmp { column: name.clone(), op: CmpOp::Le, value: val(i) },
            1 => RowPredicate::Between { column: "k".into(), lo: val(i), hi: val(i + 1) },
            _ => RowPredicate::InList { column: "s".into(), values: (0..n).map(val).collect() },
        })
        .collect();
    WalRecord::Mutate {
        m: Mutation { schema: "sys".into(), table: name, op, preds },
        versions: (0..n as u32).map(|i| (bat.wrapping_add(i), version.wrapping_add(i))).collect(),
    }
}

/// An INSERT of 0–3 columns (`int`, `str`, `lng`, `dbl` by turn) with as
/// many rows as the seed's bytes, growing as many fragments.
fn insert_record(bat: u32, version: u32, rows: &[u8], name: String) -> WalRecord {
    let n = (bat % 4) as usize;
    let column = |i: usize| match (version as usize + i) % 4 {
        0 => Column::from(rows.iter().map(|&b| i32::from(b)).collect::<Vec<i32>>()),
        1 => {
            let strs: Vec<String> = rows.iter().map(|&b| format!("{name}{b}")).collect();
            Column::from(strs.iter().map(String::as_str).collect::<Vec<_>>())
        }
        2 => Column::from(rows.iter().map(|&b| -i64::from(b)).collect::<Vec<i64>>()),
        _ => Column::from(rows.iter().map(|&b| f64::from(b) * 0.5).collect::<Vec<f64>>()),
    };
    WalRecord::Mutate {
        m: Mutation {
            schema: "sys".into(),
            table: name.clone(),
            op: MutOp::Insert((0..n).map(|i| (format!("c{i}"), column(i))).collect()),
            preds: vec![],
        },
        versions: (0..n as u32).map(|i| (bat.wrapping_add(i), version.wrapping_add(i))).collect(),
    }
}

/// A frame around `payload` with a correct checksum.
fn framed(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::new();
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

proptest! {
    #[test]
    fn wal_record_round_trip(kind in 0u8..5,
                             bat in 0u32..u32::MAX,
                             version in 0u32..u32::MAX,
                             rows in prop::collection::vec(0u8..=255, 0..128),
                             tag in 0u32..1000) {
        let rec = record_from((kind, bat, version, rows, format!("t{tag}")));
        let frame = encode_record(&rec);
        prop_assert_eq!(decode_payload(&frame[8..]).unwrap(), rec.clone());
        // And through the frame parser, including as a multi-record run.
        let mut buf = frame.clone();
        buf.extend_from_slice(&frame);
        let (back, torn) = decode_frames(&buf).unwrap();
        prop_assert!(!torn);
        prop_assert_eq!(back, vec![rec.clone(), rec]);
    }

    #[test]
    fn truncated_frames_tear_without_panicking(kind in 0u8..5,
                                               bat in 0u32..1000,
                                               version in 0u32..1000,
                                               rows in prop::collection::vec(0u8..=255, 0..64),
                                               cut in 0usize..64) {
        let rec = record_from((kind, bat, version, rows, "t".into()));
        let frame = encode_record(&rec);
        let cut = cut.min(frame.len().saturating_sub(1));
        let (back, torn) = decode_frames(&frame[..cut]).unwrap();
        // A strict prefix either tears or (len < 8 leftover) yields nothing.
        prop_assert!(back.is_empty());
        prop_assert!(torn || cut < 8);
    }

    #[test]
    fn mutation_tail_truncation_keeps_the_prefix(version in 1u32..1000,
                                                 rows in prop::collection::vec(0u8..=255, 1..64),
                                                 cut in 1usize..32) {
        // A good two-column INSERT frame followed by a torn two-column
        // UPDATE/DELETE frame: replay keeps the INSERT, discards the
        // whole mutation — never a partial multi-column apply.
        let insert = insert_record(2, version, &rows, "kv".into());
        let good = encode_record(&insert);
        let mutate = encode_record(&mutate_record(2, version, &rows, "kv".into()));
        let mut buf = good.clone();
        let keep = mutate.len().saturating_sub(cut);
        buf.extend_from_slice(&mutate[..keep]);
        let (back, torn) = decode_frames(&buf).unwrap();
        prop_assert!(torn);
        prop_assert_eq!(back, vec![insert]);
    }

    #[test]
    fn hostile_counts_and_lengths_rejected_without_allocation(
        n in 1u16..=u16::MAX,
        claimed in 1u32..=u32::MAX,
    ) {
        // Payloads claiming `n` columns (an INSERT, its first column
        // claiming `claimed` bytes) or `n` IN-list values (a Mutate)
        // while carrying none of them. The decoder must fail by *bounds
        // checking*, not by allocating what the header promises.
        let mut insert = vec![8u8];
        Mutation {
            schema: "sys".into(),
            table: "t".into(),
            op: MutOp::Insert(vec![]),
            preds: vec![],
        }
        .encode(&mut insert);
        // The column count sits before the (empty) predicate count.
        insert.truncate(insert.len() - 4);
        insert.extend_from_slice(&n.to_le_bytes());
        insert.extend_from_slice(&[1, 0, b'c']); // a column name
        insert.extend_from_slice(&claimed.to_le_bytes()); // its byte length
        let mut mutate = vec![8u8];
        Mutation {
            schema: "sys".into(),
            table: "t".into(),
            op: MutOp::Delete,
            preds: vec![RowPredicate::InList { column: "c".into(), values: vec![] }],
        }
        .encode(&mut mutate);
        let at = mutate.len() - 2; // the IN list's count comes last
        mutate[at..].copy_from_slice(&n.to_le_bytes());
        for payload in [insert, mutate] {
            prop_assert!(decode_payload(&payload).is_err());
            // Through the frame parser it reads as a tear, not a panic.
            let (back, torn) = decode_frames(&framed(&payload)).unwrap();
            prop_assert!(torn && back.is_empty());
        }
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_decoder(buf in prop::collection::vec(0u8..=255, 0..256)) {
        // Whatever the bytes, decode_frames returns; it never panics or
        // over-allocates. (Accidentally valid frames are fine.)
        let _ = decode_frames(&buf);
        if buf.len() > 8 {
            let _ = decode_payload(&buf[8..]);
        }
    }
}
