//! The hash table behind the hash join, the hash set operations and
//! grouping: typed keys, a cheap seeded hash, and every collision chain
//! threaded through one `Vec<u32>`.
//!
//! Keys come from clients (a join column is whatever was inserted), so
//! the hash is keyed like the standard library's: each table draws its
//! two seed words from [`RandomState`], and both enter a folded 64×64→128
//! multiply, so which keys collide cannot be worked out from outside the
//! process.

use crate::error::{BatError, Result};
use crate::ops::cells::Cells;
use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

/// A table's two secret words.
pub(crate) struct Seed(u64, u64);

impl Seed {
    fn fresh() -> Seed {
        let state = RandomState::new();
        // The multiplier is odd, so the multiply loses no key bits.
        Seed(state.hash_one(0u8), state.hash_one(1u8) | 1)
    }
}

fn fold(a: u64, b: u64) -> u64 {
    let m = u128::from(a) * u128::from(b);
    (m as u64) ^ ((m >> 64) as u64)
}

/// A value the equality kernels can hash: a column's cell as it is, no
/// enum around it.
pub(crate) trait Key: Copy + PartialEq {
    fn hash(self, seed: &Seed) -> u64;

    /// A key of one byte — a dictionary code, a `u8` offset — as an
    /// index into a 256-entry table, which [`Codes`] numbers it through
    /// instead of hashing it.
    fn byte(self) -> Option<u8> {
        None
    }
}

impl Key for u64 {
    fn hash(self, seed: &Seed) -> u64 {
        fold(self ^ seed.0, seed.1)
    }
}

impl Key for i64 {
    fn hash(self, seed: &Seed) -> u64 {
        (self as u64).hash(seed)
    }
}

impl Key for i32 {
    fn hash(self, seed: &Seed) -> u64 {
        (self as u32 as u64).hash(seed)
    }
}

impl Key for u8 {
    fn hash(self, seed: &Seed) -> u64 {
        u64::from(self).hash(seed)
    }

    fn byte(self) -> Option<u8> {
        Some(self)
    }
}

impl Key for u16 {
    fn hash(self, seed: &Seed) -> u64 {
        u64::from(self).hash(seed)
    }
}

impl Key for u32 {
    fn hash(self, seed: &Seed) -> u64 {
        u64::from(self).hash(seed)
    }
}

impl Key for bool {
    fn hash(self, seed: &Seed) -> u64 {
        u64::from(self).hash(seed)
    }
}

/// At most eight bytes as one word, distinct for distinct bytes of one
/// length: two overlapping 4-byte reads, or first/middle/last below four.
fn short_word(b: &[u8]) -> u64 {
    let n = b.len();
    if n >= 4 {
        let lo = u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        let hi = u32::from_le_bytes([b[n - 4], b[n - 3], b[n - 2], b[n - 1]]);
        u64::from(lo) | u64::from(hi) << 32
    } else if n > 0 {
        u64::from(b[0]) | u64::from(b[n / 2]) << 8 | u64::from(b[n - 1]) << 16
    } else {
        0
    }
}

impl Key for &str {
    /// One multiply per eight bytes; the length picks the last multiplier
    /// (kept odd), so a string and its zero-padded extension differ. The
    /// flags and codes analytic columns hold cost a single multiply.
    fn hash(self, seed: &Seed) -> u64 {
        let mut rest = self.as_bytes();
        let mut h = seed.0;
        while let Some((word, tail)) = rest.split_first_chunk::<8>().filter(|(_, t)| !t.is_empty())
        {
            h = fold(h ^ u64::from_le_bytes(*word), seed.1);
            rest = tail;
        }
        fold(h ^ short_word(rest), seed.1 ^ (self.len() as u64) << 1)
    }
}

pub(crate) const NIL: u32 = u32::MAX;

/// Row positions travel between kernels as `u32`; a BAT they could not
/// address is refused, not truncated.
pub(crate) fn check_rows(rows: usize) -> Result<()> {
    if rows >= NIL as usize {
        return Err(BatError::Invalid(format!("{rows} rows exceed the kernels' 32-bit positions")));
    }
    Ok(())
}

/// Bucket heads plus one `next` link per entry. Entries are numbered
/// `0..len` (build-side rows for a join, group ids for a grouping) and
/// hold no key: the caller compares the key behind each id a chain
/// yields.
pub(crate) struct Chains {
    pub seed: Seed,
    shift: u32,
    heads: Vec<u32>,
    next: Vec<u32>,
}

impl Chains {
    /// An empty table with room for `entries` at half load.
    fn with_room(entries: usize) -> Result<Chains> {
        check_rows(entries)?;
        let buckets = (entries * 2).next_power_of_two().max(16);
        Ok(Chains {
            seed: Seed::fresh(),
            shift: 64 - buckets.trailing_zeros(),
            heads: vec![NIL; buckets],
            next: Vec::with_capacity(entries),
        })
    }

    /// A table over the positions of `keys`, position `i` under its
    /// cell's hash. Filled back to front, so every chain yields ascending
    /// positions. One instantiation per column view serves every kernel
    /// that hashes such a column.
    pub fn over<C: Cells>(keys: C) -> Result<Chains>
    where
        C::Cell: Key,
    {
        let n = keys.len();
        let mut t = Chains::with_room(n)?;
        t.next.resize(n, NIL);
        for i in (0..n).rev() {
            let b = (keys.at(i).hash(&t.seed) >> t.shift) as usize;
            t.next[i] = t.heads[b];
            t.heads[b] = i as u32;
        }
        Ok(t)
    }

    /// An empty table that grows as entries are pushed.
    pub fn growing() -> Chains {
        Chains::with_room(0).expect("zero entries fit")
    }

    /// The ids whose hash shares `hash`'s bucket.
    pub fn chain(&self, hash: u64) -> impl Iterator<Item = usize> + '_ {
        let mut at = self.heads[(hash >> self.shift) as usize];
        std::iter::from_fn(move || {
            (at != NIL).then(|| {
                let id = at as usize;
                at = self.next[id];
                id
            })
        })
    }

    /// Append the next entry (id `len`) under `hash`. When the table
    /// passes half load it doubles, re-placing every entry by
    /// `hash_of(seed, id)`.
    pub fn push(&mut self, hash: u64, hash_of: impl Fn(&Seed, usize) -> u64) -> Result<usize> {
        let id = self.next.len();
        check_rows(id + 1)?;
        if (id + 1) * 2 > self.heads.len() {
            self.shift -= 1;
            self.heads = vec![NIL; self.heads.len() * 2];
            for old in 0..id {
                let b = (hash_of(&self.seed, old) >> self.shift) as usize;
                self.next[old] = self.heads[b];
                self.heads[b] = old as u32;
            }
        }
        let b = (hash >> self.shift) as usize;
        self.next.push(self.heads[b]);
        self.heads[b] = id as u32;
        Ok(id)
    }
}

/// Distinct keys, numbered in first-appearance order.
pub(crate) struct Codes<K> {
    table: Chains,
    /// A byte key's number, by the byte.
    bytes: [u32; 256],
    pub keys: Vec<K>,
}

impl<K: Key> Codes<K> {
    pub fn new() -> Codes<K> {
        Codes { table: Chains::growing(), bytes: [NIL; 256], keys: Vec::new() }
    }

    #[inline(always)]
    pub fn code(&mut self, key: K) -> u32 {
        if let Some(byte) = key.byte() {
            let code = self.bytes[usize::from(byte)];
            return if code == NIL { self.admit_byte(key, byte) } else { code };
        }
        let hash = key.hash(&self.table.seed);
        let known = self.table.chain(hash).find(|&c| self.keys[c] == key);
        match known {
            Some(code) => code as u32,
            None => self.admit(key, hash),
        }
    }

    /// A key not seen before takes the next number: once per distinct
    /// key, so kept out of the per-row loop.
    #[cold]
    #[inline(never)]
    fn admit(&mut self, key: K, hash: u64) -> u32 {
        let Codes { table, keys, .. } = self;
        let code = table
            .push(hash, |seed, c| keys[c].hash(seed))
            .expect("a column's distinct keys fit the table's 32-bit ids");
        keys.push(key);
        code as u32
    }

    #[cold]
    #[inline(never)]
    fn admit_byte(&mut self, key: K, byte: u8) -> u32 {
        let code = self.keys.len() as u32;
        self.bytes[usize::from(byte)] = code;
        self.keys.push(key);
        code
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn built_chains_yield_ascending_ids_of_every_entry() {
        let keys = [7u64, 3, 7, 9, 3, 7];
        let t = Chains::over(&keys[..]).unwrap();
        let ids =
            |k: u64| -> Vec<usize> { t.chain(k.hash(&t.seed)).filter(|&i| keys[i] == k).collect() };
        assert_eq!(ids(7), vec![0, 2, 5]);
        assert_eq!(ids(3), vec![1, 4]);
        assert_eq!(ids(9), vec![3]);
        assert_eq!(ids(8), Vec::<usize>::new());
    }

    #[test]
    fn a_growing_table_keeps_every_entry_through_its_doublings() {
        let mut t = Chains::growing();
        let keys: Vec<u64> = (0..1000).map(|i| i * 7919).collect();
        for (i, k) in keys.iter().enumerate() {
            let id = t.push(k.hash(&t.seed), |s, id| keys[id].hash(s)).unwrap();
            assert_eq!(id, i);
        }
        for (i, k) in keys.iter().enumerate() {
            let found: Vec<usize> = t.chain(k.hash(&t.seed)).filter(|&id| keys[id] == *k).collect();
            assert_eq!(found, vec![i]);
        }
    }

    #[test]
    fn seeds_differ_per_table_and_strings_hash_by_content() {
        let (a, b) = (Seed::fresh(), Seed::fresh());
        assert_ne!((a.0, a.1), (b.0, b.1));
        assert_eq!("lineitem".hash(&a), String::from("lineitem").as_str().hash(&a));
        assert_ne!("ab".hash(&a), "ab\0".hash(&a), "length is part of the hash");
    }
}
