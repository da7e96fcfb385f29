//! Binary persistence for BATs: the "cold data on attached disks" that
//! the Data Cyclotron's per-node data loader pulls from when a BAT is
//! (re-)loaded into the ring (paper §4.2.1, outcome 4 of Fig. 3).
//!
//! Format (little-endian, version 1):
//! ```text
//! magic   "DCB1"
//! u8      head type tag | u8 tail type tag
//! u64     row count
//! head column payload, tail column payload
//! ```
//! Column payloads: `Void` stores only the seq; fixed-width types store
//! the raw vector; `Str` stores offsets then bytes.

use crate::bat::Bat;
use crate::column::Column;
use crate::error::{BatError, Result};
use crate::heap::StrCol;
use crate::value::ColType;
use std::io::{Read, Write};
use std::path::Path;

const MAGIC: &[u8; 4] = b"DCB1";

fn tag_type(b: u8) -> Result<ColType> {
    ColType::from_tag(b).ok_or_else(|| BatError::Corrupt(format!("unknown type tag {b}")))
}

fn write_u64(w: &mut impl Write, v: u64) -> Result<()> {
    w.write_all(&v.to_le_bytes())?;
    Ok(())
}

fn read_u64(r: &mut impl Read) -> Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

/// Rows a fixed-width column moves per `write_all`: the staging buffer
/// below holds this many of the widest (8-byte) elements and lives on
/// the stack.
const BLOCK_ROWS: usize = 1024;

/// Write a fixed-width column a block at a time: elements are laid out
/// little-endian in a stack buffer (a loop the compiler turns into a
/// copy) and leave in one `write_all` per block, not one per element.
fn write_fixed<const W: usize, T: Copy>(
    w: &mut impl Write,
    v: &[T],
    encode: impl Fn(T) -> [u8; W],
) -> Result<()> {
    let mut block = [0u8; BLOCK_ROWS * 8];
    for rows in v.chunks(BLOCK_ROWS) {
        let bytes = &mut block[..rows.len() * W];
        for (dst, x) in bytes.chunks_exact_mut(W).zip(rows) {
            dst.copy_from_slice(&encode(*x));
        }
        w.write_all(bytes)?;
    }
    Ok(())
}

fn write_column(w: &mut impl Write, c: &Column) -> Result<()> {
    match c {
        Column::Void { seq, .. } => write_u64(w, *seq)?,
        Column::Oid(v) => write_fixed(w, v, u64::to_le_bytes)?,
        Column::Int(v) | Column::Date(v) => write_fixed(w, v, i32::to_le_bytes)?,
        Column::Lng(v) => write_fixed(w, v, i64::to_le_bytes)?,
        Column::Dbl(v) => write_fixed(w, v, f64::to_le_bytes)?,
        Column::Str(s) => write_str(w, s)?,
        Column::Bool(v) => write_fixed(w, v, |x| [x as u8])?,
    }
    Ok(())
}

/// A `Str` column's payload in its plain layout, whatever its form in
/// memory: the offset count, the offsets, the heap length, the heap.
fn write_str(w: &mut impl Write, s: &StrCol) -> Result<()> {
    write_u64(w, s.len() as u64 + 1)?;
    s.offsets(&mut |offs| write_fixed(w, offs, u32::to_le_bytes))?;
    write_u64(w, s.heap_len() as u64)?;
    s.heap(&mut |bytes| Ok(w.write_all(bytes)?))
}

/// The next `n` bytes of `r`, taken off its front. `n` comes from a
/// length claimed in the input, so the bytes must be there before
/// anything is allocated for them.
fn take<'a>(r: &mut &'a [u8], n: Option<usize>, what: &str) -> Result<&'a [u8]> {
    let Some(bytes) = n.and_then(|n| r.get(..n)) else {
        return Err(BatError::Corrupt(format!("truncated {what}: {} bytes left", r.len())));
    };
    *r = &r[bytes.len()..];
    Ok(bytes)
}

/// Decode `len` fixed-width elements into a vector of exactly that
/// length and capacity.
fn read_fixed<const W: usize, T>(
    r: &mut &[u8],
    len: usize,
    decode: impl Fn([u8; W]) -> T,
) -> Result<Vec<T>> {
    let bytes = take(r, len.checked_mul(W), "column")?;
    Ok(bytes
        .chunks_exact(W)
        .map(|b| decode(b.try_into().expect("chunks_exact yields W")))
        .collect())
}

fn read_column(r: &mut &[u8], ty: ColType, len: usize) -> Result<Column> {
    Ok(match ty {
        ColType::Void => Column::Void { seq: read_u64(r)?, len },
        ColType::Oid => Column::Oid(read_fixed(r, len, u64::from_le_bytes)?),
        ColType::Int => Column::Int(read_fixed(r, len, i32::from_le_bytes)?),
        ColType::Lng => Column::Lng(read_fixed(r, len, i64::from_le_bytes)?),
        ColType::Dbl => Column::Dbl(read_fixed(r, len, f64::from_le_bytes)?),
        ColType::Str => {
            let noffs = read_u64(r)? as usize;
            if Some(noffs) != len.checked_add(1) {
                return Err(BatError::Corrupt(format!(
                    "str offsets {noffs} disagree with row count {len}"
                )));
            }
            let offs = read_fixed(r, noffs, u32::from_le_bytes)?;
            let nbytes = usize::try_from(read_u64(r)?).ok();
            let bytes = take(r, nbytes, "string heap")?.to_vec();
            Column::Str(StrCol::from_raw_parts(offs, bytes).map_err(BatError::Corrupt)?)
        }
        ColType::Bool => Column::Bool(read_fixed(r, len, |b: [u8; 1]| b[0] != 0)?),
        ColType::Date => Column::Date(read_fixed(r, len, i32::from_le_bytes)?),
    })
}

/// Serialize a BAT to any writer.
pub fn write_bat(w: &mut impl Write, bat: &Bat) -> Result<()> {
    write_parts(w, bat.head(), bat.tail())
}

/// Serialize `tail` as the BAT [`Bat::dense`] makes of it, without
/// building (and copying the column into) that BAT.
pub fn write_dense(w: &mut impl Write, tail: &Column) -> Result<()> {
    write_parts(w, &Column::Void { seq: 0, len: tail.len() }, tail)
}

fn write_parts(w: &mut impl Write, head: &Column, tail: &Column) -> Result<()> {
    w.write_all(MAGIC)?;
    w.write_all(&[head.col_type().tag(), tail.col_type().tag()])?;
    write_u64(w, head.len() as u64)?;
    write_column(w, head)?;
    write_column(w, tail)?;
    Ok(())
}

/// Deserialize a BAT from the front of `r`, leaving `r` just past it.
/// Every claimed count is checked against the bytes `r` still holds.
pub fn read_bat(r: &mut &[u8]) -> Result<Bat> {
    let mut start = [0u8; 6];
    r.read_exact(&mut start)?;
    if start[..4] != MAGIC[..] {
        return Err(BatError::Corrupt("bad magic".into()));
    }
    let (ht, tt) = (tag_type(start[4])?, tag_type(start[5])?);
    let len = read_u64(r)? as usize;
    let head = read_column(r, ht, len)?;
    let tail = read_column(r, tt, len)?;
    Bat::new(head, tail)
}

/// Load from a file — one `dc-persist` wrote with [`write_bat`]: one
/// read sized from the file's metadata, then an in-memory decode.
pub fn load_bat(path: &Path) -> Result<Bat> {
    bat_from_bytes(&std::fs::read(path)?)
}

/// In-memory round-trip used by the ring transports to ship BAT payloads:
/// one buffer of exactly the encoding's length.
pub fn bat_to_bytes(bat: &Bat) -> Vec<u8> {
    let mut out = Vec::with_capacity(encoded_len(bat));
    write_bat(&mut out, bat).expect("Vec<u8> writes are infallible");
    out
}

/// The length of `bat`'s `DCB1` encoding: magic, two tags and the row
/// count, then each column — a `Void` one its seq, a `Str` one its two
/// counts beside the values in their plain layout.
pub fn encoded_len(bat: &Bat) -> usize {
    let column = |c: &Column| match c {
        Column::Void { .. } => 8,
        Column::Str(_) => 16 + c.wire_size(),
        _ => c.wire_size(),
    };
    14 + column(bat.head()) + column(bat.tail())
}

pub fn bat_from_bytes(mut bytes: &[u8]) -> Result<Bat> {
    read_bat(&mut bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Val;

    fn samples() -> Vec<Bat> {
        vec![
            Bat::dense(Column::from(vec![1, 2, 3])),
            Bat::dense(Column::from(vec![1i64 << 40, -5])),
            Bat::dense(Column::from(vec![1.5, -2.25])),
            Bat::dense(Column::from(vec!["hello", "", "wörld"])),
            Bat::new(Column::Oid(vec![5, 9]), Column::Bool(vec![true, false])).unwrap(),
            Bat::new(Column::from(vec![7i32]), Column::Date(vec![19000])).unwrap(),
            Bat::empty(ColType::Int),
            Bat::dense_from(100, Column::from(vec![42])),
        ]
    }

    #[test]
    fn bytes_round_trip_all_types() {
        for b in samples() {
            let bytes = bat_to_bytes(&b);
            let back = bat_from_bytes(&bytes).unwrap();
            assert_eq!(back.count(), b.count());
            for i in 0..b.count() {
                assert_eq!(back.bun(i), b.bun(i));
            }
        }
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join(format!("batstore_file_rt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("x.bat");
        for b in [Bat::dense(Column::from(vec!["persist", "me"])), Bat::empty(ColType::Int)] {
            let mut w = std::io::BufWriter::new(std::fs::File::create(&path).unwrap());
            write_bat(&mut w, &b).unwrap();
            w.into_inner().unwrap().sync_all().unwrap();
            let back = load_bat(&path).unwrap();
            assert_eq!(back.count(), b.count());
            for i in 0..b.count() {
                assert_eq!(back.bun(i), b.bun(i));
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = bat_to_bytes(&Bat::dense(Column::from(vec![1])));
        bytes[0] = b'X';
        assert!(matches!(bat_from_bytes(&bytes), Err(BatError::Corrupt(_))));
    }

    #[test]
    fn truncated_rejected() {
        let bytes = bat_to_bytes(&Bat::dense(Column::from(vec![1, 2, 3])));
        assert!(bat_from_bytes(&bytes[..bytes.len() - 2]).is_err());
    }

    #[test]
    fn unknown_tag_rejected() {
        let mut bytes = bat_to_bytes(&Bat::dense(Column::from(vec![1])));
        bytes[5] = 99;
        assert!(bat_from_bytes(&bytes).is_err());
    }

    #[test]
    fn absurd_row_count_errors_without_allocating() {
        // Header claims u64::MAX rows of ints over a 4-byte body: the
        // reader must fail on EOF, not attempt the allocation.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.push(ColType::Void.tag());
        bytes.push(ColType::Int.tag());
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 4]);
        assert!(bat_from_bytes(&bytes).is_err());
    }

    #[test]
    fn absurd_string_heap_errors_without_allocating() {
        let mut bytes = bat_to_bytes(&Bat::dense(Column::from(vec!["a", "b"])));
        // The string-heap byte count sits 8 bytes from the end ("ab").
        let pos = bytes.len() - 10;
        bytes[pos..pos + 8].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
        let err = bat_from_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("truncated string heap"), "{err}");
    }

    #[test]
    fn str_offset_count_overflow_rejected() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.push(ColType::Void.tag());
        bytes.push(ColType::Str.tag());
        bytes.extend_from_slice(&u64::MAX.to_le_bytes()); // row count: len + 1 overflows
        bytes.extend_from_slice(&0u64.to_le_bytes()); // void head seq
        bytes.extend_from_slice(&u64::MAX.to_le_bytes()); // claimed noffs
        assert!(matches!(bat_from_bytes(&bytes), Err(BatError::Corrupt(_))));
    }

    /// The codec as it was before columns moved in blocks — one
    /// `write_all` / `read_exact` per element — kept as the reference the
    /// bulk codec must match byte for byte. Anything this wrote (fragment
    /// files, WAL records, frames from an older peer) is still in use.
    mod oracle {
        use super::*;

        fn write_column(w: &mut Vec<u8>, c: &Column) {
            match c {
                Column::Void { seq, .. } => w.extend_from_slice(&seq.to_le_bytes()),
                Column::Oid(v) => v.iter().for_each(|x| w.extend_from_slice(&x.to_le_bytes())),
                Column::Int(v) | Column::Date(v) => {
                    v.iter().for_each(|x| w.extend_from_slice(&x.to_le_bytes()))
                }
                Column::Lng(v) => v.iter().for_each(|x| w.extend_from_slice(&x.to_le_bytes())),
                Column::Dbl(v) => v.iter().for_each(|x| w.extend_from_slice(&x.to_le_bytes())),
                Column::Str(s) => {
                    // The plain layout from the values alone, whatever
                    // the column's form.
                    let heap: Vec<u8> = s.iter().flat_map(str::bytes).collect();
                    w.extend_from_slice(&(s.len() as u64 + 1).to_le_bytes());
                    w.extend_from_slice(&0u32.to_le_bytes());
                    let mut end = 0u32;
                    for v in s.iter() {
                        end += v.len() as u32;
                        w.extend_from_slice(&end.to_le_bytes());
                    }
                    w.extend_from_slice(&(heap.len() as u64).to_le_bytes());
                    w.extend_from_slice(&heap);
                }
                Column::Bool(v) => v.iter().for_each(|&x| w.push(x as u8)),
            }
        }

        pub fn bat_to_bytes(bat: &Bat) -> Vec<u8> {
            let mut w = MAGIC.to_vec();
            w.extend_from_slice(&[bat.head_type().tag(), bat.tail_type().tag()]);
            w.extend_from_slice(&(bat.count() as u64).to_le_bytes());
            write_column(&mut w, bat.head());
            write_column(&mut w, bat.tail());
            w
        }

        fn read_vec<const W: usize, T>(
            r: &mut &[u8],
            len: usize,
            decode: impl Fn([u8; W]) -> T,
        ) -> Result<Vec<T>> {
            let mut out = Vec::with_capacity(len.min(r.len()));
            let mut buf = [0u8; W];
            for _ in 0..len {
                r.read_exact(&mut buf)?;
                out.push(decode(buf));
            }
            Ok(out)
        }

        fn read_column(r: &mut &[u8], ty: ColType, len: usize) -> Result<Column> {
            Ok(match ty {
                ColType::Void => Column::Void { seq: read_u64(r)?, len },
                ColType::Oid => Column::Oid(read_vec(r, len, u64::from_le_bytes)?),
                ColType::Int => Column::Int(read_vec(r, len, i32::from_le_bytes)?),
                ColType::Lng => Column::Lng(read_vec(r, len, i64::from_le_bytes)?),
                ColType::Dbl => Column::Dbl(read_vec(r, len, f64::from_le_bytes)?),
                ColType::Str => {
                    let noffs = read_u64(r)? as usize;
                    let offs = read_vec(r, noffs, u32::from_le_bytes)?;
                    let nbytes = read_u64(r)? as usize;
                    let mut bytes = vec![0u8; nbytes.min(r.len())];
                    r.read_exact(&mut bytes)?;
                    Column::Str(StrCol::from_raw_parts(offs, bytes).map_err(BatError::Corrupt)?)
                }
                ColType::Bool => Column::Bool(read_vec(r, len, |b: [u8; 1]| b[0] != 0)?),
                ColType::Date => Column::Date(read_vec(r, len, i32::from_le_bytes)?),
            })
        }

        pub fn bat_from_bytes(mut r: &[u8]) -> Result<Bat> {
            let mut head = [0u8; 6];
            r.read_exact(&mut head)?;
            assert_eq!(&head[..4], MAGIC);
            let (ht, tt) = (tag_type(head[4])?, tag_type(head[5])?);
            let len = read_u64(&mut r)? as usize;
            Bat::new(read_column(&mut r, ht, len)?, read_column(&mut r, tt, len)?)
        }
    }

    const TYPES: [ColType; 8] = [
        ColType::Void,
        ColType::Oid,
        ColType::Int,
        ColType::Lng,
        ColType::Dbl,
        ColType::Str,
        ColType::Bool,
        ColType::Date,
    ];

    /// A column of `n` values of `ty` from a small generator seeded by
    /// `salt`: extremes, both zeros and several `NaN` bit patterns for
    /// `dbl`; empty, one-byte and multi-byte strings.
    fn column(ty: ColType, n: usize, salt: u64) -> Column {
        let x = |i: usize| (i as u64 ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
        let nans = [f64::NAN.to_bits(), 0x7ff0_0000_0000_0001, 0xfff8_dead_beef_0001];
        match ty {
            ColType::Void => Column::Void { seq: salt + 5, len: n },
            ColType::Oid => Column::Oid((0..n).map(x).collect()),
            ColType::Int => Column::Int((0..n).map(|i| x(i) as i32).collect()),
            ColType::Date => Column::Date((0..n).map(|i| (x(i) >> 7) as i32).collect()),
            ColType::Lng => Column::Lng((0..n).map(|i| x(i) as i64).collect()),
            ColType::Dbl => Column::Dbl(
                (0..n)
                    .map(|i| match x(i) % 7 {
                        0 => f64::from_bits(nans[i % nans.len()]),
                        1 => -0.0,
                        2 => 0.0,
                        _ => f64::from_bits(x(i)),
                    })
                    .collect(),
            ),
            ColType::Str => {
                let pool = ["", "a", "wörld", "δ", "a longer string that crosses a few words"];
                Column::from((0..n).map(|i| pool[x(i) as usize % pool.len()]).collect::<Vec<_>>())
            }
            ColType::Bool => Column::Bool((0..n).map(|i| x(i) % 3 == 0).collect()),
        }
    }

    /// Both head shapes the engine stores: dense from a non-zero `seq`,
    /// and materialised oids.
    fn heads(n: usize) -> [Column; 2] {
        [Column::Void { seq: 100, len: n }, column(ColType::Oid, n, 1)]
    }

    /// Lengths 0 and 1 and around every block boundary.
    const LENGTHS: [usize; 6] =
        [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 3 * BLOCK_ROWS + 7];

    #[test]
    fn bulk_codec_is_byte_identical_to_the_per_element_oracle() {
        for ty in TYPES {
            for n in LENGTHS {
                for head in heads(n) {
                    let bat = Bat::new(head, column(ty, n, 2)).unwrap();
                    let what = format!("{:?} x {:?} x {n}", bat.head_type(), ty);
                    let bytes = bat_to_bytes(&bat);
                    assert_eq!(bytes, oracle::bat_to_bytes(&bat), "encode {what}");
                    assert_eq!(bytes.capacity(), bytes.len(), "encode {what} reserves exactly");
                    // Value-identical on decode, compared as bytes so a
                    // `NaN` payload bit that moved would show.
                    let back = bat_from_bytes(&bytes).unwrap();
                    assert_eq!(oracle::bat_to_bytes(&back), bytes, "decode {what}");
                    let old = oracle::bat_from_bytes(&bytes).unwrap();
                    assert_eq!(oracle::bat_to_bytes(&old), bytes, "oracle decode {what}");
                    assert_eq!(
                        (back.head_type(), back.tail_type(), back.count()),
                        (bat.head_type(), ty, n)
                    );
                }
            }
        }
    }

    #[test]
    fn decoded_columns_carry_no_slack() {
        // Around the 64 Ki elements a decode used to reserve before it
        // started doubling.
        const KI64: usize = 64 * 1024;
        for n in [KI64 - 1, KI64, KI64 + 1, 3 * KI64 + 7] {
            for ty in TYPES {
                let bat = Bat::new(column(ColType::Oid, n, 1), column(ty, n, 2)).unwrap();
                let back = bat_from_bytes(&bat_to_bytes(&bat)).unwrap();
                let Column::Oid(head) = back.head() else { panic!("an oid head") };
                assert_eq!(head.capacity(), n, "oid head x {n}");
                let (len, cap) = match back.tail() {
                    Column::Void { .. } => continue,
                    Column::Oid(v) => (v.len(), v.capacity()),
                    Column::Int(v) | Column::Date(v) => (v.len(), v.capacity()),
                    Column::Lng(v) => (v.len(), v.capacity()),
                    Column::Dbl(v) => (v.len(), v.capacity()),
                    Column::Bool(v) => (v.len(), v.capacity()),
                    Column::Str(s) => {
                        assert_eq!(s.slack(), 0, "str x {n}");
                        continue;
                    }
                };
                assert_eq!((len, cap), (n, n), "{ty:?} x {n}");
            }
        }
    }

    #[test]
    fn every_truncation_of_an_encoded_bat_is_an_error() {
        // Every prefix length of a BAT whose tail spans a block
        // boundary: an `Err`, never a panic, and never an allocation
        // beyond what the bytes present justify (a column is allocated
        // only once its claimed bytes are seen to be there).
        for ty in TYPES {
            let bytes = bat_to_bytes(&Bat::dense_from(9, column(ty, BLOCK_ROWS + 3, 3)));
            for cut in 0..bytes.len() {
                assert!(bat_from_bytes(&bytes[..cut]).is_err(), "{ty:?} cut at {cut}");
            }
            assert!(bat_from_bytes(&bytes).is_ok());
        }
    }

    #[test]
    fn fragment_file_from_an_older_build_still_loads() {
        // Written by the per-element encoder of the commit before the
        // bulk codec: data dirs from before stay readable, and a
        // fragment re-encoded today is the same file.
        let fixture: &[u8] = include_bytes!("../fixtures/oid_str_fragment.bat");
        let want = Bat::new(
            Column::Oid(vec![3, 9, 27, 81]),
            Column::from(vec!["alpha", "", "wörld", "δ"]),
        )
        .unwrap();
        let got = bat_from_bytes(fixture).unwrap();
        assert_eq!((got.head(), got.tail()), (want.head(), want.tail()));
        assert_eq!(bat_to_bytes(&want), fixture);
        assert_eq!(oracle::bat_to_bytes(&want), fixture);

        let dir = std::env::temp_dir().join(format!("batstore_fixture_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("7.v1.bat");
        std::fs::write(&path, fixture).unwrap();
        assert_eq!(load_bat(&path).unwrap().tail(), want.tail());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn void_head_stays_virtual() {
        let b = Bat::dense_from(7, Column::from(vec![1, 2]));
        let back = bat_from_bytes(&bat_to_bytes(&b)).unwrap();
        assert_eq!(back.head_type(), ColType::Void);
        assert_eq!(back.bun(0).0, Val::Oid(7));
    }
}
