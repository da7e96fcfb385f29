//! The string heap: variable-width values live in one contiguous byte
//! buffer with an offsets array, MonetDB-style. This keeps string columns
//! cache-friendly and makes their serialized form a straight memory dump.

/// An append-only string column: `offs` has `len + 1` entries delimiting
/// each value's bytes in `bytes`.
#[derive(Clone, Debug, PartialEq)]
pub struct StrCol {
    offs: Vec<u32>,
    bytes: Vec<u8>,
}

/// The empty column still holds its leading offset, which a derived
/// `Default` would not.
impl Default for StrCol {
    fn default() -> Self {
        StrCol::new()
    }
}

impl StrCol {
    pub fn new() -> Self {
        StrCol { offs: vec![0], bytes: Vec::new() }
    }

    pub fn with_capacity(n: usize, byte_hint: usize) -> Self {
        let mut offs = Vec::with_capacity(n + 1);
        offs.push(0);
        StrCol { offs, bytes: Vec::with_capacity(byte_hint) }
    }

    pub fn len(&self) -> usize {
        self.offs.len() - 1
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn push(&mut self, s: &str) {
        self.bytes.extend_from_slice(s.as_bytes());
        self.offs.push(self.bytes.len() as u32);
    }

    pub fn get(&self, i: usize) -> &str {
        let (lo, hi) = (self.offs[i] as usize, self.offs[i + 1] as usize);
        // Values only enter through `push(&str)`, so the bytes are UTF-8.
        unsafe { std::str::from_utf8_unchecked(&self.bytes[lo..hi]) }
    }

    pub fn iter(&self) -> impl Iterator<Item = &str> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Bytes used by values + offsets (the BAT size accounting the ring
    /// protocols use).
    pub fn byte_size(&self) -> usize {
        self.bytes.len() + self.offs.len() * 4
    }

    /// Build a new column from selected indices of this one.
    pub fn gather(&self, idx: &[usize]) -> StrCol {
        self.gather_iter(idx.iter().copied())
    }

    /// [`StrCol::gather`] over any replayable index sequence. A first
    /// pass over `offs` sums the selected lengths, so the heap is sized
    /// once however long the strings are.
    pub(crate) fn gather_iter(&self, idx: impl Iterator<Item = usize> + Clone) -> StrCol {
        let (mut n, mut bytes) = (0usize, 0usize);
        for i in idx.clone() {
            n += 1;
            bytes += (self.offs[i + 1] - self.offs[i]) as usize;
        }
        let mut out = StrCol::with_capacity(n, bytes);
        for i in idx {
            out.push(self.get(i));
        }
        out
    }

    /// Contiguous sub-column `[lo, hi)`: one copy of the offsets (rebased)
    /// and one of the bytes they span.
    pub fn slice(&self, lo: usize, hi: usize) -> StrCol {
        let (base, end) = (self.offs[lo], self.offs[hi]);
        StrCol {
            offs: self.offs[lo..=hi].iter().map(|o| o - base).collect(),
            bytes: self.bytes[base as usize..end as usize].to_vec(),
        }
    }

    /// Raw parts for serialization.
    pub fn raw_parts(&self) -> (&[u32], &[u8]) {
        (&self.offs, &self.bytes)
    }

    /// Rebuild from serialized parts; validates structure and UTF-8.
    pub fn from_raw_parts(offs: Vec<u32>, bytes: Vec<u8>) -> Result<StrCol, String> {
        if offs.is_empty() || offs[0] != 0 {
            return Err("offsets must start with 0".into());
        }
        if !offs.windows(2).all(|w| w[0] <= w[1]) {
            return Err("offsets not monotonic".into());
        }
        if *offs.last().unwrap() as usize != bytes.len() {
            return Err("final offset does not match byte length".into());
        }
        std::str::from_utf8(&bytes).map_err(|e| format!("invalid utf8: {e}"))?;
        Ok(StrCol { offs, bytes })
    }

    /// Room reserved for the offsets and the heap, in elements.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> (usize, usize) {
        (self.offs.capacity(), self.bytes.capacity())
    }
}

impl FromIterator<String> for StrCol {
    fn from_iter<T: IntoIterator<Item = String>>(iter: T) -> Self {
        let mut c = StrCol::new();
        for s in iter {
            c.push(&s);
        }
        c
    }
}

impl<'a> FromIterator<&'a str> for StrCol {
    fn from_iter<T: IntoIterator<Item = &'a str>>(iter: T) -> Self {
        let mut c = StrCol::new();
        for s in iter {
            c.push(s);
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get() {
        let mut c = StrCol::new();
        c.push("hello");
        c.push("");
        c.push("world");
        assert_eq!(c.len(), 3);
        assert_eq!(c.get(0), "hello");
        assert_eq!(c.get(1), "");
        assert_eq!(c.get(2), "world");
    }

    #[test]
    fn default_is_the_empty_column() {
        let mut c = StrCol::default();
        assert_eq!((c.len(), c.byte_size()), (0, 4));
        c.push("a");
        assert_eq!(c.get(0), "a");
    }

    #[test]
    fn iter_and_collect() {
        let c: StrCol = ["a", "bb", "ccc"].into_iter().collect();
        let v: Vec<&str> = c.iter().collect();
        assert_eq!(v, vec!["a", "bb", "ccc"]);
    }

    #[test]
    fn gather_selects() {
        let c: StrCol = ["x", "y", "z", "w"].into_iter().collect();
        let g = c.gather(&[3, 1]);
        assert_eq!(g.get(0), "w");
        assert_eq!(g.get(1), "y");
        assert_eq!(g.len(), 2);
    }

    #[test]
    fn gather_sizes_the_heap_exactly() {
        let long = "x".repeat(1000);
        let c: StrCol = [long.as_str(), "y", long.as_str()].into_iter().collect();
        let g = c.gather(&[0, 2, 0]);
        assert_eq!(g.bytes.len(), 3000);
        assert_eq!(g.bytes.capacity(), 3000, "no regrowth, no slack");
        assert_eq!(g.get(2), long);
    }

    #[test]
    fn slice_rebases_offsets() {
        let c: StrCol = ["ab", "", "cde", "f"].into_iter().collect();
        let s = c.slice(1, 3);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec!["", "cde"]);
        assert_eq!(s.raw_parts(), (&[0u32, 0, 3][..], &b"cde"[..]));
        assert!(c.slice(4, 4).is_empty());
        assert_eq!(c.slice(0, 4), c);
    }

    #[test]
    fn byte_size_counts_heap_and_offsets() {
        let c: StrCol = ["abcd"].into_iter().collect();
        assert_eq!(c.byte_size(), 4 + 2 * 4);
    }

    #[test]
    fn raw_round_trip() {
        let c: StrCol = ["one", "two"].into_iter().collect();
        let (offs, bytes) = c.raw_parts();
        let back = StrCol::from_raw_parts(offs.to_vec(), bytes.to_vec()).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn from_raw_rejects_corrupt() {
        assert!(StrCol::from_raw_parts(vec![], vec![]).is_err());
        assert!(StrCol::from_raw_parts(vec![1, 0], vec![0]).is_err());
        assert!(StrCol::from_raw_parts(vec![0, 2], vec![1]).is_err());
        assert!(StrCol::from_raw_parts(vec![0, 1], vec![0xFF]).is_err());
    }

    #[test]
    fn unicode_safe() {
        let mut c = StrCol::new();
        c.push("héllo");
        c.push("日本語");
        assert_eq!(c.get(0), "héllo");
        assert_eq!(c.get(1), "日本語");
    }
}
