//! Property tests for the framed SQL protocol and the `ResultSet` wire
//! encoding: arbitrary frames and result sets round-trip byte-exactly,
//! and hostile input — lying length prefixes, truncations, garbage —
//! never panics or triggers an unbounded allocation.

use batstore::{Bat, ColType, Column, ResultSet};
use dc_client::proto::{
    decode, encode, read_frame, result_frames, write_frame, ColMeta, Frame, ResultAssembler,
    DEFAULT_MAX_FRAME,
};
use proptest::prelude::*;
use std::sync::Arc;

/// A deterministic column of the given type and length, seeded so
/// different seeds produce different data.
fn column_from(ty: u8, len: usize, seed: i64) -> Column {
    match ty % 6 {
        0 => Column::Int((0..len).map(|i| (seed + i as i64) as i32).collect()),
        1 => Column::Lng((0..len).map(|i| seed.wrapping_mul(31).wrapping_add(i as i64)).collect()),
        2 => Column::Dbl((0..len).map(|i| seed as f64 * 0.5 + i as f64).collect()),
        3 => {
            let mut c = Column::empty(ColType::Str);
            for i in 0..len {
                c.push(&batstore::Val::Str(format!("s{seed}-{i}"))).unwrap();
            }
            c
        }
        4 => Column::Bool((0..len).map(|i| (seed + i as i64) % 2 == 0).collect()),
        _ => Column::Date((0..len).map(|i| (seed % 20000) as i32 + i as i32).collect()),
    }
}

fn result_set_from(ncols: usize, rows: usize, seed: i64, affected: bool, info: bool) -> ResultSet {
    let mut rs = ResultSet::new();
    for c in 0..ncols {
        let col = column_from(c as u8, rows, seed + c as i64);
        let sql_type = col.col_type().name().to_string();
        rs.push_column(format!("sys.t{c}"), format!("col{c}"), sql_type, Arc::new(Bat::dense(col)));
    }
    if affected {
        rs.affected = Some(seed.unsigned_abs());
    }
    if info {
        rs.info = Some(format!("info {seed}\n"));
    }
    rs
}

proptest! {
    #[test]
    fn frames_round_trip(kind in 0u8..6,
                         chars in prop::collection::vec(any::<char>(), 0..64),
                         ncols in 0usize..4,
                         rows in 0usize..50,
                         seed in -1000i64..1000) {
        let text: String = chars.into_iter().collect();
        let frame = match kind {
            0 => Frame::Hello { version: (seed % 250) as u8 },
            1 => Frame::Query { sql: text.clone() },
            2 => Frame::ResultHeader {
                columns: (0..ncols)
                    .map(|c| ColMeta {
                        table: format!("sys.t{c}"),
                        name: format!("c{c}"),
                        sql_type: "int".into(),
                        ty: ColType::from_tag((c % 8) as u8).unwrap(),
                    })
                    .collect(),
                affected: if seed % 2 == 0 { Some(seed.unsigned_abs()) } else { None },
                info: if seed % 3 == 0 { Some(text.clone()) } else { None },
            },
            3 => Frame::RowBatch {
                cols: (0..ncols).map(|c| Bat::dense(column_from(c as u8, rows, seed))).collect(),
            },
            4 => Frame::Error {
                kind: dc_client::ErrorKind::from_tag((seed.unsigned_abs() % 5) as u8).unwrap(),
                message: text.clone(),
            },
            _ => Frame::Done,
        };
        // Through the body codec …
        prop_assert_eq!(decode(&encode(&frame).unwrap()).unwrap(), frame.clone());
        // … and through the length-prefixed stream, twice in a row.
        let mut buf = Vec::new();
        write_frame(&mut buf, &frame).unwrap();
        write_frame(&mut buf, &frame).unwrap();
        let mut r = &buf[..];
        prop_assert_eq!(read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap().unwrap(), frame.clone());
        prop_assert_eq!(read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap().unwrap(), frame);
        prop_assert!(read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn result_set_wire_round_trips(ncols in 0usize..5,
                                   rows in 0usize..100,
                                   seed in -1000i64..1000,
                                   affected in any::<bool>(),
                                   info in any::<bool>()) {
        let rs = result_set_from(ncols, rows, seed, affected, info);
        let mut blob = Vec::new();
        rs.write_to(&mut blob).unwrap();
        prop_assert_eq!(ResultSet::read_from(&mut &blob[..]).unwrap(), rs);
    }

    #[test]
    fn batched_delivery_reassembles_exactly(ncols in 1usize..4,
                                            rows in 0usize..200,
                                            batch in 1usize..64,
                                            seed in -1000i64..1000) {
        let rs = result_set_from(ncols, rows, seed, false, false);
        let frames = result_frames(&rs, batch);
        let mut asm = match &frames[0] {
            Frame::ResultHeader { columns, affected, info } => {
                ResultAssembler::new(columns.clone(), *affected, info.clone())
            }
            other => panic!("first frame must be a header, got {other:?}"),
        };
        prop_assert_eq!(frames.last(), Some(&Frame::Done));
        for f in &frames[1..frames.len() - 1] {
            match f {
                Frame::RowBatch { cols } => asm.push(cols.clone()).unwrap(),
                other => panic!("{other:?}"),
            }
        }
        let back = asm.finish();
        prop_assert_eq!(back.row_count(), rs.row_count());
        prop_assert_eq!(back.render(), rs.render());
        for c in 0..ncols {
            prop_assert_eq!(back.columns[c].col_type(), rs.columns[c].col_type());
        }
    }

    #[test]
    fn garbage_never_panics_the_decoders(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode(&bytes);
        let _ = read_frame(&mut &bytes[..], DEFAULT_MAX_FRAME);
        let _ = ResultSet::read_from(&mut &bytes[..]);
    }

    #[test]
    fn truncated_frames_error_not_panic(kind in 0u8..6, cut in 0usize..64) {
        let frame = match kind {
            0 => Frame::Hello { version: 1 },
            1 => Frame::Query { sql: "select 1 from t".into() },
            2 => Frame::ResultHeader { columns: vec![], affected: Some(9), info: None },
            3 => Frame::RowBatch { cols: vec![Bat::dense(Column::Int(vec![1, 2, 3].into()))] },
            4 => Frame::Error { kind: dc_client::ErrorKind::Exec, message: "boom".into() },
            _ => Frame::Done,
        };
        let mut buf = Vec::new();
        write_frame(&mut buf, &frame).unwrap();
        let cut = cut.min(buf.len().saturating_sub(1));
        if cut == 0 {
            prop_assert!(read_frame(&mut &buf[..0], DEFAULT_MAX_FRAME).unwrap().is_none());
        } else {
            prop_assert!(read_frame(&mut &buf[..cut], DEFAULT_MAX_FRAME).is_err());
        }
    }

    /// Mirrors `read_bat`'s hostile-length discipline: a prefix claiming
    /// an absurd frame length is rejected by the cap, and an in-cap
    /// claim over missing bytes hits EOF — neither path allocates the
    /// claimed amount.
    #[test]
    fn hostile_length_prefixes_rejected(claim in (DEFAULT_MAX_FRAME as u64 + 1)..u32::MAX as u64) {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(claim as u32).to_le_bytes());
        buf.push(6); // a plausible tag byte
        prop_assert!(read_frame(&mut &buf[..], DEFAULT_MAX_FRAME).is_err());
        // The same claim under a permissive cap lies about available
        // bytes instead: EOF, not an allocation of `claim`.
        prop_assert!(read_frame(&mut &buf[..], usize::MAX).is_err());
    }
}
