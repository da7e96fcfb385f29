//! The little-endian byte codec every binary format on disk or on a
//! socket is written and read with: `DCB1` BATs ([`crate::storage`]),
//! `DCR1` results ([`crate::resultset`]), mutations
//! ([`crate::ops::Mutation`]), and above this crate ring messages, WAL
//! records, the `MANIFEST` and the SQL client's frames.
//!
//! A [`Reader`] checks every read against the bytes it holds and fails
//! with `truncated {what}: want n, have m`: a decoder on it errs, never
//! panics, and never allocates from a length its input claims. The
//! `put_*` writers lay out the same fields, and [`read_prefixed`] is the
//! stream framing the ring and the SQL front door share.

use std::fmt;
use std::io::{self, Read};

/// The cap on one length-prefixed frame (64 MiB) the ring and the SQL
/// front door read with, unless told otherwise.
pub const MAX_FRAME: usize = 64 << 20;

/// The most [`read_prefixed`] reserves on the word of a length prefix
/// alone. Frames up to this size (every fragment of the sizes the ring is
/// run with) are read into one exactly-sized buffer; a longer one starts
/// here and doubles only as bytes actually arrive.
pub const FRAME_RESERVE: usize = 1 << 20;

/// Why a [`Reader`] refused a read: the input ended early, or a string
/// was not UTF-8.
#[derive(Debug)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl From<Error> for String {
    fn from(e: Error) -> String {
        e.0
    }
}

pub type Result<T> = std::result::Result<T, Error>;

/// A checked cursor over an encoded value (see the module docs). Every
/// read names `what` it reads, for the error.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// How many bytes were read: where the next read starts in the buffer.
    pub fn consumed(&self) -> usize {
        self.pos
    }

    /// The bytes not read yet.
    pub fn rest(&self) -> &'a [u8] {
        &self.buf[self.pos..]
    }

    /// The next `n` bytes, borrowed from the buffer.
    pub fn bytes(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        let rest = self.rest();
        let Some(bytes) = rest.get(..n) else {
            return Err(Error(format!("truncated {what}: want {n}, have {}", rest.len())));
        };
        self.pos += n;
        Ok(bytes)
    }

    pub fn array<const N: usize>(&mut self, what: &str) -> Result<[u8; N]> {
        Ok(self.bytes(N, what)?.try_into().expect("bytes hands out N bytes"))
    }

    pub fn u8(&mut self, what: &str) -> Result<u8> {
        Ok(self.array::<1>(what)?[0])
    }

    pub fn u16(&mut self, what: &str) -> Result<u16> {
        self.array(what).map(u16::from_le_bytes)
    }

    pub fn u32(&mut self, what: &str) -> Result<u32> {
        self.array(what).map(u32::from_le_bytes)
    }

    pub fn u64(&mut self, what: &str) -> Result<u64> {
        self.array(what).map(u64::from_le_bytes)
    }

    pub fn i32(&mut self, what: &str) -> Result<i32> {
        self.array(what).map(i32::from_le_bytes)
    }

    pub fn i64(&mut self, what: &str) -> Result<i64> {
        self.array(what).map(i64::from_le_bytes)
    }

    pub fn f64(&mut self, what: &str) -> Result<f64> {
        self.array(what).map(f64::from_le_bytes)
    }

    /// A string behind a `u16` length ([`put_str16`]).
    pub fn str16(&mut self, what: &str) -> Result<String> {
        self.u16(what).and_then(|len| self.utf8(len.into(), what))
    }

    /// A string behind a `u32` length ([`put_str32`]).
    pub fn str32(&mut self, what: &str) -> Result<String> {
        self.u32(what).and_then(|len| self.utf8(len as usize, what))
    }

    fn utf8(&mut self, len: usize, what: &str) -> Result<String> {
        let bytes = self.bytes(len, what)?.to_vec();
        String::from_utf8(bytes).map_err(|e| Error(format!("bad utf8 in {what}: {e}")))
    }

    /// Run `decode`, which reads a value off the front of a slice, on the
    /// bytes not read yet, and move past what it took.
    pub fn nested<T>(&mut self, decode: impl FnOnce(&mut &'a [u8]) -> T) -> T {
        let mut rest = self.rest();
        let out = decode(&mut rest);
        self.pos = self.buf.len() - rest.len();
        out
    }
}

pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub fn put_i32(out: &mut Vec<u8>, v: i32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// `s` behind a `u16` length. A longer string is cut at the last char
/// boundary that fits, so the frame stays decodable; a format that must
/// not cut checks the length first ([`put_label`]).
pub fn put_str16(out: &mut Vec<u8>, s: &str) {
    let s = &s[..s.floor_char_boundary(usize::from(u16::MAX))];
    put_u16(out, s.len() as u16);
    out.extend_from_slice(s.as_bytes());
}

/// `s` behind a `u32` length, cut as [`put_str16`] cuts.
pub fn put_str32(out: &mut Vec<u8>, s: &str) {
    let s = &s[..s.floor_char_boundary(u32::MAX as usize)];
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// [`put_str16`] for a label that must arrive whole: one too long for
/// its `u16` length is refused.
pub fn put_label(out: &mut Vec<u8>, s: &str) -> std::result::Result<(), String> {
    if s.len() > usize::from(u16::MAX) {
        return Err(format!("label of {} bytes", s.len()));
    }
    put_str16(out, s);
    Ok(())
}

/// The `u32` length prefix of a frame body of `len` bytes; a body that
/// does not fit one is refused, since a wrapped length would
/// desynchronize the stream.
pub fn prefix(len: usize) -> io::Result<[u8; 4]> {
    let len = u32::try_from(len).map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("a body of {len} bytes does not fit a frame's 32-bit length"),
        )
    })?;
    Ok(len.to_le_bytes())
}

/// Read one length-prefixed frame body, refusing a length above
/// `max_frame` (`InvalidData`).
///
/// End of stream before the first byte of the prefix is a clean close,
/// `Ok(None)`; inside the prefix or the body it is a truncated frame,
/// `UnexpectedEof`. The claimed length never commits more than
/// [`FRAME_RESERVE`] bytes up front: past that the buffer at most
/// doubles, and only once it is full of bytes that really arrived.
pub fn read_prefixed(r: &mut impl Read, max_frame: usize) -> io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    // The first byte decides clean-close vs truncation.
    match r.read_exact(&mut len_buf[..1]) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    r.read_exact(&mut len_buf[1..])?;
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > max_frame {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {max_frame}-byte cap"),
        ));
    }
    // `reserve_exact`, so the buffer ends no larger than the frame;
    // reading through `take` fills exactly the spare capacity.
    let mut buf = Vec::with_capacity(len.min(FRAME_RESERVE));
    while buf.len() < len {
        if buf.len() == buf.capacity() {
            buf.reserve_exact((len - buf.len()).min(buf.len()));
        }
        let want = (buf.capacity() - buf.len()).min(len - buf.len());
        let got = r.by_ref().take(want as u64).read_to_end(&mut buf)?;
        if got < want {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("truncated frame: want {len} bytes, got {}", buf.len()),
            ));
        }
    }
    Ok(Some(buf))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_read_is_checked_and_names_what_it_reads() {
        let mut r = Reader::new(&[1, 2, 0, 0, 0]);
        assert_eq!(r.u16("tag").unwrap(), 0x0201);
        assert_eq!(r.consumed(), 2);
        let err = r.u64("count").unwrap_err();
        assert_eq!(err.to_string(), "truncated count: want 8, have 3");
        assert_eq!(r.consumed(), 2, "a refused read takes nothing");
        assert_eq!(r.u16("len").unwrap(), 0);
        assert_eq!(r.rest(), [0]);
        // A claimed length far beyond the input is refused, not reserved.
        let err = Reader::new(&[0xff, 0xff, 0xff, 0xff, b'x']).str32("sql").unwrap_err();
        assert_eq!(err.to_string(), "truncated sql: want 4294967295, have 1");
    }

    #[test]
    fn strings_round_trip_and_bad_utf8_is_an_error() {
        let mut out = Vec::new();
        put_str16(&mut out, "wörld");
        put_str32(&mut out, "");
        let mut r = Reader::new(&out);
        assert_eq!(r.str16("a").unwrap(), "wörld");
        assert_eq!(r.str32("b").unwrap(), "");
        assert!(r.rest().is_empty());
        let err = Reader::new(&[1, 0, 0xff]).str16("name").unwrap_err();
        assert!(err.to_string().starts_with("bad utf8 in name"), "{err}");
    }

    #[test]
    fn an_over_long_string_is_cut_at_a_char_boundary() {
        // 65 534 ASCII bytes and a two-byte char: 65 536 bytes, one over.
        let s = format!("{}é", "c".repeat(65_534));
        let mut out = Vec::new();
        put_str16(&mut out, &s);
        let back = Reader::new(&out).str16("name").unwrap();
        assert_eq!(back, "c".repeat(65_534), "the whole char goes");
        assert!(put_label(&mut Vec::new(), &s).is_err());
    }

    #[test]
    fn nested_decoders_advance_the_reader() {
        let mut r = Reader::new(&[7, 1, 2, 3]);
        r.u8("tag").unwrap();
        let two = r.nested(|buf: &mut &[u8]| {
            let (head, rest) = buf.split_at(2);
            *buf = rest;
            head.to_vec()
        });
        assert_eq!((two, r.consumed(), r.rest()), (vec![1, 2], 3, &[3][..]));
    }

    #[test]
    fn framing_tells_a_clean_close_from_a_truncated_frame() {
        let mut wire = prefix(3).unwrap().to_vec();
        wire.extend_from_slice(b"abc");
        assert_eq!(read_prefixed(&mut &wire[..], MAX_FRAME).unwrap(), Some(b"abc".to_vec()));
        assert_eq!(read_prefixed(&mut &b""[..], MAX_FRAME).unwrap(), None);
        for cut in 1..wire.len() {
            let err = read_prefixed(&mut &wire[..cut], MAX_FRAME).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
        }
        let err = read_prefixed(&mut &wire[..], 2).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("2-byte cap"), "{err}");
    }
}
