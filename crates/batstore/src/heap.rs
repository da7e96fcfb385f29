//! The string heap: variable-width values live in one contiguous byte
//! buffer with an offsets array, MonetDB-style. This keeps string columns
//! cache-friendly and makes their serialized form a straight memory dump.
//!
//! A column of few distinct values may take a second, coded form in
//! memory: one byte per row, a code into a dictionary of at most 256
//! distinct values that every gather and slice of the column shares. A
//! column is coded when it is built from values or decoded, holds at most
//! 256 distinct values and is smaller so; `push` keeps it coded until a
//! 257th distinct value, which turns it plain once. A fragment's next
//! version is settled into the form its decode would take, so that its
//! size depends on its values alone (`StrCol::settled`). Both forms hold
//! the same values, compare equal by value and stream the same plain
//! layout to the `DCB1` writers; only [`StrCol::byte_size`] tells them
//! apart.

use crate::error::Result;
use crate::ops::hash::{Chains, Key};
use std::sync::Arc;

/// Distinct values a dictionary holds: a code is one byte.
const DICT_MAX: usize = 256;

/// Offsets a coded column hands a writer at a time.
const OFFSETS_BLOCK: usize = 1024;

/// Values back to back in `bytes`; `offs` has `len + 1` entries
/// delimiting each.
#[derive(Clone, Debug)]
struct Heap {
    offs: Vec<u32>,
    bytes: Vec<u8>,
}

impl Heap {
    fn with_capacity(n: usize, byte_hint: usize) -> Heap {
        let mut offs = Vec::with_capacity(n + 1);
        offs.push(0);
        Heap { offs, bytes: Vec::with_capacity(byte_hint) }
    }

    fn len(&self) -> usize {
        self.offs.len() - 1
    }

    fn push(&mut self, s: &str) {
        self.bytes.extend_from_slice(s.as_bytes());
        self.offs.push(self.bytes.len() as u32);
    }

    fn get(&self, i: usize) -> &str {
        let (lo, hi) = (self.offs[i] as usize, self.offs[i + 1] as usize);
        // SAFETY: values enter through `push(&str)`, or through
        // `StrCol::from_raw_parts`, which checks that the bytes are UTF-8
        // and that every offset is a char boundary of them.
        unsafe { std::str::from_utf8_unchecked(&self.bytes[lo..hi]) }
    }

    fn byte_size(&self) -> usize {
        self.bytes.len() + self.offs.len() * 4
    }

    /// The values at `idx`, the heap sized once by a first pass that sums
    /// their lengths.
    fn gather(&self, idx: &[usize]) -> Heap {
        let bytes = idx.iter().map(|&i| (self.offs[i + 1] - self.offs[i]) as usize).sum();
        let mut out = Heap::with_capacity(idx.len(), bytes);
        idx.iter().for_each(|&i| out.push(self.get(i)));
        out
    }

    /// Each value's length, by position.
    fn lens(&self) -> Vec<u32> {
        self.offs.windows(2).map(|w| w[1] - w[0]).collect()
    }
}

/// A string column, plain or coded (see the module doc). The form is
/// boxed, so that a `Column` stays as small as its other variants.
#[derive(Clone, Debug)]
pub struct StrCol(Box<Form>);

#[derive(Clone, Debug)]
enum Form {
    Plain(Heap),
    /// A code per row into `dict`, which holds each value once.
    Coded {
        codes: Vec<u8>,
        dict: Arc<Heap>,
    },
}

impl From<Form> for StrCol {
    fn from(form: Form) -> StrCol {
        StrCol(Box::new(form))
    }
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
        Form::Plain(Heap::with_capacity(0, 0)).into()
    }

    pub fn len(&self) -> usize {
        match &*self.0 {
            Form::Plain(heap) => heap.len(),
            Form::Coded { codes, .. } => codes.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn push(&mut self, s: &str) {
        let (codes, dict) = match &mut *self.0 {
            Form::Plain(heap) => return heap.push(s),
            Form::Coded { codes, dict } => (codes, dict),
        };
        let code = match (0..dict.len()).find(|&c| dict.get(c) == s) {
            Some(code) => code,
            None if dict.len() < DICT_MAX => {
                Arc::make_mut(dict).push(s);
                dict.len() - 1
            }
            None => {
                let mut heap = decode(codes, dict);
                heap.push(s);
                *self.0 = Form::Plain(heap);
                return;
            }
        };
        codes.push(code as u8);
    }

    pub fn get(&self, i: usize) -> &str {
        match &*self.0 {
            Form::Plain(heap) => heap.get(i),
            Form::Coded { codes, dict } => dict.get(usize::from(codes[i])),
        }
    }

    pub fn iter(&self) -> impl Iterator<Item = &str> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Bytes the column takes in memory — a plain one its values and
    /// offsets, a coded one its codes and dictionary — which the hot-set
    /// budget, S1 and the catalog count.
    pub fn byte_size(&self) -> usize {
        match &*self.0 {
            Form::Plain(heap) => heap.byte_size(),
            Form::Coded { codes, dict } => codes.len() + dict.byte_size(),
        }
    }

    /// Bytes of all the values, back to back: the heap of the plain
    /// layout.
    pub fn heap_len(&self) -> usize {
        match &*self.0 {
            Form::Plain(heap) => heap.bytes.len(),
            Form::Coded { codes, dict } => coded_heap_len(codes, dict),
        }
    }

    /// The codes of a coded column, one per row.
    pub(crate) fn codes(&self) -> Option<&[u8]> {
        match &*self.0 {
            Form::Plain(_) => None,
            Form::Coded { codes, .. } => Some(codes),
        }
    }

    /// Build a new column from selected indices of this one: a plain
    /// heap sized once however long the strings are, or the codes with
    /// the dictionary shared.
    pub fn gather(&self, idx: &[usize]) -> StrCol {
        match &*self.0 {
            Form::Plain(heap) => Form::Plain(heap.gather(idx)),
            Form::Coded { codes, dict } => {
                let codes = idx.iter().map(|&i| codes[i]).collect();
                Form::Coded { codes, dict: Arc::clone(dict) }
            }
        }
        .into()
    }

    /// Contiguous sub-column `[lo, hi)`: one copy of the offsets (rebased)
    /// and one of the bytes they span, or of the codes.
    pub fn slice(&self, lo: usize, hi: usize) -> StrCol {
        match &*self.0 {
            Form::Plain(Heap { offs, bytes }) => {
                let (base, end) = (offs[lo], offs[hi]);
                Form::Plain(Heap {
                    offs: offs[lo..=hi].iter().map(|o| o - base).collect(),
                    bytes: bytes[base as usize..end as usize].to_vec(),
                })
            }
            Form::Coded { codes, dict } => {
                Form::Coded { codes: codes[lo..hi].to_vec(), dict: Arc::clone(dict) }
            }
        }
        .into()
    }

    /// Hand `sink` the `len + 1` offsets of the plain layout, in order: a
    /// plain column's own, a coded one's computed a block at a time.
    pub fn offsets(&self, sink: &mut dyn FnMut(&[u32]) -> Result<()>) -> Result<()> {
        let (codes, dict) = match &*self.0 {
            Form::Plain(heap) => return sink(&heap.offs),
            Form::Coded { codes, dict } => (codes, dict),
        };
        let lens = dict.lens();
        let (mut block, mut end) = ([0u32; OFFSETS_BLOCK], 0u32);
        sink(&[0])?;
        for chunk in codes.chunks(OFFSETS_BLOCK) {
            for (o, &c) in block.iter_mut().zip(chunk) {
                end += lens[usize::from(c)];
                *o = end;
            }
            sink(&block[..chunk.len()])?;
        }
        Ok(())
    }

    /// Hand `sink` the bytes of every value, in order ([`StrCol::heap_len`]
    /// in all): a plain column's heap whole, a coded one's each value.
    pub fn heap(&self, sink: &mut dyn FnMut(&[u8]) -> Result<()>) -> Result<()> {
        match &*self.0 {
            Form::Plain(heap) => sink(&heap.bytes),
            Form::Coded { codes, dict } => {
                codes.iter().try_for_each(|&c| sink(dict.get(usize::from(c)).as_bytes()))
            }
        }
    }

    /// Rebuild from serialized parts; validates structure and UTF-8. The
    /// column is coded when that is smaller.
    pub fn from_raw_parts(offs: Vec<u32>, bytes: Vec<u8>) -> std::result::Result<StrCol, String> {
        if offs.is_empty() || offs[0] != 0 {
            return Err("offsets must start with 0".into());
        }
        if !offs.windows(2).all(|w| w[0] <= w[1]) {
            return Err("offsets not monotonic".into());
        }
        if *offs.last().unwrap() as usize != bytes.len() {
            return Err("final offset does not match byte length".into());
        }
        let text = std::str::from_utf8(&bytes).map_err(|e| format!("invalid utf8: {e}"))?;
        if !offs.iter().all(|&o| text.is_char_boundary(o as usize)) {
            return Err("an offset splits a character".into());
        }
        Ok(settle(Heap { offs, bytes }))
    }

    /// The column in the form a decode of its values takes: coded when
    /// at most 256 distinct values make that smaller, over a dictionary
    /// of exactly those values, else plain. A new version of a fragment
    /// is settled, so that its in-memory size depends on its values
    /// alone and is the size it has again after a restart. A coded
    /// column that still uses every entry of its dictionary keeps it.
    pub(crate) fn settled(self) -> StrCol {
        let (codes, dict) = match *self.0 {
            Form::Plain(heap) => return settle(heap),
            Form::Coded { codes, dict } => (codes, dict),
        };
        let mut used = [false; DICT_MAX];
        codes.iter().for_each(|&c| used[usize::from(c)] = true);
        let smaller =
            codes.len() + dict.byte_size() < 4 * (codes.len() + 1) + coded_heap_len(&codes, &dict);
        if smaller && used[..dict.len()].iter().all(|&u| u) {
            return Form::Coded { codes, dict }.into();
        }
        settle(decode(&codes, &dict))
    }

    /// Room reserved beyond what the column holds, in elements.
    #[cfg(test)]
    pub(crate) fn slack(&self) -> usize {
        let spare =
            |h: &Heap| h.offs.capacity() - h.offs.len() + h.bytes.capacity() - h.bytes.len();
        match &*self.0 {
            Form::Plain(heap) => spare(heap),
            Form::Coded { codes, dict } => codes.capacity() - codes.len() + spare(dict),
        }
    }
}

/// `heap` coded when at most 256 distinct values make that smaller, the
/// dictionary holding them in first-appearance order. The pass that
/// decides stops at the 257th distinct value.
fn settle(heap: Heap) -> StrCol {
    let (mut firsts, mut codes, mut index) =
        (Vec::new(), Vec::with_capacity(heap.len()), Chains::growing());
    for i in 0..heap.len() {
        let s = heap.get(i);
        let hash = s.hash(&index.seed);
        let known = index.chain(hash).find(|&c| heap.get(firsts[c]) == s);
        let code = match known {
            Some(code) => code,
            None if firsts.len() == DICT_MAX => return Form::Plain(heap).into(),
            None => {
                firsts.push(i);
                let code = index.push(hash, |seed, c| heap.get(firsts[c]).hash(seed));
                code.expect("a dictionary holds 256 entries")
            }
        };
        codes.push(code as u8);
    }
    let dict_bytes = firsts.iter().map(|&i| heap.get(i).len()).sum();
    if codes.len() + dict_bytes + 4 * (firsts.len() + 1) >= heap.byte_size() {
        return Form::Plain(heap).into();
    }
    let mut dict = Heap::with_capacity(firsts.len(), dict_bytes);
    firsts.iter().for_each(|&i| dict.push(heap.get(i)));
    Form::Coded { codes, dict: Arc::new(dict) }.into()
}

/// Bytes of the values a coded column holds, back to back.
fn coded_heap_len(codes: &[u8], dict: &Heap) -> usize {
    let lens = dict.lens();
    codes.iter().map(|&c| lens[usize::from(c)] as usize).sum()
}

/// The plain heap of a coded column.
fn decode(codes: &[u8], dict: &Heap) -> Heap {
    let mut heap = Heap::with_capacity(codes.len(), coded_heap_len(codes, dict));
    codes.iter().for_each(|&c| heap.push(dict.get(usize::from(c))));
    heap
}

/// Built from values: coded when that is smaller (see the module doc).
impl<S: AsRef<str>> FromIterator<S> for StrCol {
    fn from_iter<T: IntoIterator<Item = S>>(iter: T) -> Self {
        let mut heap = Heap::with_capacity(0, 0);
        iter.into_iter().for_each(|s| heap.push(s.as_ref()));
        settle(heap)
    }
}

/// Equal by value, whatever the forms.
impl PartialEq for StrCol {
    fn eq(&self, other: &StrCol) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The plain layout a writer is handed, collected.
    fn parts(c: &StrCol) -> (Vec<u32>, Vec<u8>) {
        let (mut offs, mut bytes) = (Vec::new(), Vec::new());
        c.offsets(&mut |o| {
            offs.extend_from_slice(o);
            Ok(())
        })
        .unwrap();
        c.heap(&mut |b| {
            bytes.extend_from_slice(b);
            Ok(())
        })
        .unwrap();
        (offs, bytes)
    }

    fn plain(values: &[&str]) -> StrCol {
        let mut c = StrCol::new();
        values.iter().for_each(|s| c.push(s));
        c
    }

    fn is_coded(c: &StrCol) -> bool {
        c.codes().is_some()
    }

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
        let c = plain(&[long.as_str(), "y", long.as_str()]);
        let g = c.gather(&[0, 2, 0]);
        let Form::Plain(heap) = &*g.0 else { panic!("a plain column gathers plain") };
        assert_eq!(heap.bytes.len(), 3000);
        assert_eq!(heap.bytes.capacity(), 3000, "no regrowth, no slack");
        assert_eq!(g.get(2), long);
    }

    #[test]
    fn slice_rebases_offsets() {
        let c: StrCol = ["ab", "", "cde", "f"].into_iter().collect();
        let s = c.slice(1, 3);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec!["", "cde"]);
        assert_eq!(parts(&s), (vec![0u32, 0, 3], b"cde".to_vec()));
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
        let (offs, bytes) = parts(&c);
        let back = StrCol::from_raw_parts(offs, bytes).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn from_raw_rejects_corrupt() {
        assert!(StrCol::from_raw_parts(vec![], vec![]).is_err());
        assert!(StrCol::from_raw_parts(vec![1, 0], vec![0]).is_err());
        assert!(StrCol::from_raw_parts(vec![0, 2], vec![1]).is_err());
        assert!(StrCol::from_raw_parts(vec![0, 1], vec![0xFF]).is_err());
        // Valid UTF-8 as a whole, but the first value is half of "é".
        let e = StrCol::from_raw_parts(vec![0, 1, 2], "é".as_bytes().to_vec()).unwrap_err();
        assert!(e.contains("splits a character"), "{e}");
    }

    #[test]
    fn unicode_safe() {
        let mut c = StrCol::new();
        c.push("héllo");
        c.push("日本語");
        assert_eq!(c.get(0), "héllo");
        assert_eq!(c.get(1), "日本語");
    }

    #[test]
    fn few_distinct_values_are_coded_when_that_is_smaller() {
        let flags: Vec<&str> = (0..100).map(|i| ["A", "N", "R"][i % 3]).collect();
        let coded: StrCol = flags.iter().copied().collect();
        assert!(is_coded(&coded));
        assert_eq!(coded.byte_size(), 100 + 3 + 4 * 4, "a code per row and the dictionary");
        assert_eq!(coded, plain(&flags));
        assert_eq!(coded.heap_len(), 100);
        // Not smaller: two rows of distinct values stay plain.
        assert!(!is_coded(&["A", "N"].into_iter().collect()));
        // Decoded columns follow the same rule.
        let (offs, bytes) = parts(&plain(&flags));
        assert!(is_coded(&StrCol::from_raw_parts(offs, bytes).unwrap()));
        let many: Vec<String> = (0..300).map(|i| format!("v{i}")).collect();
        let (offs, bytes) = parts(&many.iter().collect());
        assert!(!is_coded(&StrCol::from_raw_parts(offs, bytes).unwrap()));
    }

    fn dict(c: &StrCol) -> Arc<Heap> {
        match &*c.0 {
            Form::Coded { dict, .. } => Arc::clone(dict),
            Form::Plain(_) => panic!("a coded column"),
        }
    }

    #[test]
    fn gathers_and_slices_share_the_dictionary() {
        let c: StrCol = (0..64).map(|i| ["x", "yy", "zzz"][i % 3]).collect();
        assert!(Arc::ptr_eq(&dict(&c), &dict(&c.gather(&[5, 1]))));
        assert!(Arc::ptr_eq(&dict(&c), &dict(&c.slice(3, 4))));
        assert_eq!(c.gather(&[5, 1]).iter().collect::<Vec<_>>(), ["zzz", "yy"]);
    }

    #[test]
    fn a_settled_column_takes_the_form_and_size_of_its_decode() {
        let c: StrCol = (0..64).map(|i| ["x", "yy", "zzz"][i % 3]).collect();
        let decoded = |c: &StrCol| {
            let (offs, bytes) = parts(c);
            StrCol::from_raw_parts(offs, bytes).unwrap()
        };
        // Every value still there: the dictionary is kept.
        let all = c.slice(0, 30).settled();
        assert!(Arc::ptr_eq(&dict(&c), &dict(&all)));
        // "zzz" gone: a dictionary of the two left, as a decode has.
        let idx: Vec<usize> = (0..64).filter(|i| i % 3 != 2).collect();
        let two = c.gather(&idx).settled();
        assert_eq!(two.byte_size(), 43 + 3 + 3 * 4);
        assert_eq!(two.byte_size(), decoded(&two).byte_size());
        // Too few rows left to gain: plain.
        assert!(!is_coded(&c.gather(&[2]).settled()));
        // A plain column of few values is coded, a 257th value keeps it plain.
        let values: Vec<&str> = (0..64).map(|i| ["x", "yy"][i % 2]).collect();
        assert!(is_coded(&plain(&values).settled()));
        let many: Vec<String> = (0..300).map(|i| format!("v{i}")).collect();
        assert!(!is_coded(&many.iter().map(String::as_str).collect::<StrCol>().settled()));
    }

    #[test]
    fn push_keeps_a_column_coded_until_the_257th_distinct_value() {
        let mut c: StrCol = (0..64).map(|i| ["x", "y"][i % 2]).collect();
        let shared = c.clone();
        let mut twin = plain(&shared.iter().collect::<Vec<_>>());
        for i in 0..254 {
            let v = format!("new {i}");
            c.push(&v);
            twin.push(&v);
        }
        c.push("x");
        twin.push("x");
        assert!(is_coded(&c), "256 distinct values fit");
        assert_eq!(shared.len(), 64, "a shared dictionary is copied, not grown");
        c.push("the 257th");
        twin.push("the 257th");
        assert!(!is_coded(&c));
        assert_eq!((c.len(), &c), (64 + 256, &twin));
        assert_eq!(parts(&c), parts(&twin));
    }

    #[test]
    fn both_forms_stream_the_same_plain_layout() {
        let values: Vec<&str> = (0..3000).map(|i| ["", "a", "a\0", "日本語"][i % 4]).collect();
        let coded: StrCol = values.iter().copied().collect();
        assert!(is_coded(&coded));
        assert_eq!(parts(&coded), parts(&plain(&values)));
        assert_eq!(coded.heap_len(), plain(&values).heap_len());
    }
}
