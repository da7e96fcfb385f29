//! Broadcast schedules: the flat DataCycle program and the Broadcast
//! Disks multi-speed generation algorithm.
//!
//! The Broadcast Disks algorithm follows Acharya et al. (SIGMOD 1995):
//! order the items by expected access probability, partition them into
//! ranges ("disks"), assign each disk a relative spin frequency, split
//! disk *i* into `max_chunks / f_i` chunks (where `max_chunks` is the
//! LCM of the frequencies) and interleave: minor cycle *c* broadcasts
//! chunk `c mod num_chunks(i)` of every disk *i*. Each item of disk *i*
//! then appears exactly `f_i` times per major cycle, with (near-)equal
//! spacing — the "multi-disk" structure the paper's §7 describes as
//! "bandwidth … allocated to data items in proportion to their
//! importance".

use datacyclotron::BatId;
use dc_workloads::Dataset;

/// One virtual disk: a set of items spinning at a relative frequency.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DiskSpec {
    /// Items on this disk (hotter disks should hold fewer, hotter items).
    pub items: Vec<BatId>,
    /// Relative broadcast frequency (≥ 1). A disk with frequency 2
    /// passes by twice as often as a disk with frequency 1.
    pub frequency: u32,
}

/// Errors from schedule construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScheduleError {
    /// No disks, or a disk with no items and no purpose.
    Empty,
    /// A frequency of zero is meaningless.
    ZeroFrequency,
    /// The same item appears on two disks.
    DuplicateItem(BatId),
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleError::Empty => write!(f, "schedule needs at least one non-empty disk"),
            ScheduleError::ZeroFrequency => write!(f, "disk frequency must be >= 1"),
            ScheduleError::DuplicateItem(b) => {
                write!(f, "item {} appears on more than one disk", b.0)
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

/// A fully expanded broadcast program: the sequence of items the pump
/// transmits in one major cycle, repeated forever.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Schedule {
    slots: Vec<BatId>,
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

fn lcm(a: u64, b: u64) -> u64 {
    a / gcd(a, b) * b
}

impl Schedule {
    /// The DataCycle program: the whole database, once per cycle, in id
    /// order. "The cycle time, i.e., the time to broadcast the entire
    /// database, is the major performance factor" (§7).
    pub fn flat(items: &[BatId]) -> Result<Schedule, ScheduleError> {
        Self::broadcast_disks(&[DiskSpec { items: items.to_vec(), frequency: 1 }])
    }

    /// The Broadcast Disks program (see module docs).
    pub fn broadcast_disks(disks: &[DiskSpec]) -> Result<Schedule, ScheduleError> {
        if disks.iter().all(|d| d.items.is_empty()) {
            return Err(ScheduleError::Empty);
        }
        if disks.iter().any(|d| d.frequency == 0) {
            return Err(ScheduleError::ZeroFrequency);
        }
        let mut seen = std::collections::HashSet::new();
        for d in disks {
            for &item in &d.items {
                if !seen.insert(item) {
                    return Err(ScheduleError::DuplicateItem(item));
                }
            }
        }

        let minor_cycles = disks.iter().fold(1u64, |l, d| lcm(l, u64::from(d.frequency))) as usize;

        // Pre-chunk every disk: disk i gets minor_cycles / f_i chunks of
        // (near-)equal size, in item order.
        let chunked: Vec<Vec<&[BatId]>> = disks
            .iter()
            .map(|d| {
                let n_chunks = minor_cycles / d.frequency as usize;
                chunk_evenly(&d.items, n_chunks)
            })
            .collect();

        let mut slots = Vec::new();
        for cycle in 0..minor_cycles {
            for chunks in &chunked {
                let chunk = chunks[cycle % chunks.len()];
                slots.extend_from_slice(chunk);
            }
        }
        Ok(Schedule { slots })
    }

    /// Slots per major cycle.
    pub fn cycle_len(&self) -> usize {
        self.slots.len()
    }

    /// Item broadcast at slot `i` (wrapping across major cycles).
    pub fn item_at(&self, i: u64) -> BatId {
        self.slots[(i % self.slots.len() as u64) as usize]
    }

    /// Bytes transmitted in one major cycle.
    pub fn cycle_bytes(&self, dataset: &Dataset) -> u64 {
        self.slots.iter().map(|&b| dataset.size_of(b)).sum()
    }

    /// How many times `item` is broadcast per major cycle (its disk
    /// frequency; 0 if it is not in the program).
    pub fn frequency_of(&self, item: BatId) -> usize {
        self.slots.iter().filter(|&&b| b == item).count()
    }
}

/// Split `items` into exactly `n_chunks` contiguous runs whose lengths
/// differ by at most one. Chunks may be empty when `n_chunks >
/// items.len()` — an empty chunk simply broadcasts nothing that minor
/// cycle.
fn chunk_evenly(items: &[BatId], n_chunks: usize) -> Vec<&[BatId]> {
    assert!(n_chunks > 0);
    let base = items.len() / n_chunks;
    let extra = items.len() % n_chunks;
    let mut out = Vec::with_capacity(n_chunks);
    let mut start = 0;
    for i in 0..n_chunks {
        let len = base + usize::from(i < extra);
        out.push(&items[start..start + len]);
        start += len;
    }
    out
}

/// Partition items into disks by measured/estimated popularity.
///
/// `popularity` maps each item to a non-negative weight; `bands` lists
/// `(item_count, frequency)` pairs hottest-first. Items beyond the
/// listed bands go onto a trailing frequency-1 disk. This is the
/// "arbitrarily fine-grained memory hierarchy" construction of \[1\]:
/// the caller picks how fine.
pub fn partition_by_popularity(
    popularity: &[(BatId, f64)],
    bands: &[(usize, u32)],
) -> Vec<DiskSpec> {
    let mut ranked: Vec<(BatId, f64)> = popularity.to_vec();
    // Hottest first; stable tie-break on id for determinism.
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0 .0.cmp(&b.0 .0)));

    let mut disks = Vec::with_capacity(bands.len() + 1);
    let mut cursor = 0usize;
    for &(count, frequency) in bands {
        let end = (cursor + count).min(ranked.len());
        disks.push(DiskSpec {
            items: ranked[cursor..end].iter().map(|&(b, _)| b).collect(),
            frequency,
        });
        cursor = end;
    }
    if cursor < ranked.len() {
        disks.push(DiskSpec {
            items: ranked[cursor..].iter().map(|&(b, _)| b).collect(),
            frequency: 1,
        });
    }
    disks.retain(|d| !d.items.is_empty());
    disks
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(range: std::ops::Range<u32>) -> Vec<BatId> {
        range.map(BatId).collect()
    }

    #[test]
    fn flat_schedule_is_the_whole_database_once() {
        let s = Schedule::flat(&ids(0..10)).unwrap();
        assert_eq!(s.cycle_len(), 10);
        for i in 0..10 {
            assert_eq!(s.frequency_of(BatId(i)), 1);
        }
        // Wrapping access repeats the cycle.
        assert_eq!(s.item_at(0), s.item_at(10));
    }

    #[test]
    fn disk_frequencies_are_exact_per_major_cycle() {
        // Classic 3-disk example from the Broadcast Disks paper: sizes
        // 1/3/5, frequencies 4/2/1 → LCM 4 minor cycles.
        let disks = vec![
            DiskSpec { items: ids(0..1), frequency: 4 },
            DiskSpec { items: ids(1..4), frequency: 2 },
            DiskSpec { items: ids(4..9), frequency: 1 },
        ];
        let s = Schedule::broadcast_disks(&disks).unwrap();
        assert_eq!(s.frequency_of(BatId(0)), 4);
        for i in 1..4 {
            assert_eq!(s.frequency_of(BatId(i)), 2, "disk-2 item {i}");
        }
        for i in 4..9 {
            assert_eq!(s.frequency_of(BatId(i)), 1, "disk-3 item {i}");
        }
        // Total slots: 1*4 + 3*2 + 5*1 = 15.
        assert_eq!(s.cycle_len(), 15);
    }

    #[test]
    fn hot_item_appearances_equally_spaced() {
        let disks = vec![
            DiskSpec { items: vec![BatId(0)], frequency: 2 },
            DiskSpec { items: ids(1..5), frequency: 1 },
        ];
        let s = Schedule::broadcast_disks(&disks).unwrap();
        let pos: Vec<usize> =
            (0..s.cycle_len()).filter(|&i| s.item_at(i as u64) == BatId(0)).collect();
        assert_eq!(pos.len(), 2);
        // Gaps between consecutive appearances (wrapping) differ by ≤ 1
        // slot: the algorithm's equal-spacing property.
        let gap1 = pos[1] - pos[0];
        let gap2 = s.cycle_len() - gap1;
        assert!(gap1.abs_diff(gap2) <= 1, "gaps {gap1} vs {gap2}");
    }

    #[test]
    fn rejects_bad_inputs() {
        assert_eq!(Schedule::broadcast_disks(&[]), Err(ScheduleError::Empty));
        assert_eq!(
            Schedule::broadcast_disks(&[DiskSpec { items: vec![], frequency: 1 }]),
            Err(ScheduleError::Empty)
        );
        assert_eq!(
            Schedule::broadcast_disks(&[DiskSpec { items: ids(0..2), frequency: 0 }]),
            Err(ScheduleError::ZeroFrequency)
        );
        let dup = vec![
            DiskSpec { items: ids(0..2), frequency: 2 },
            DiskSpec { items: ids(1..3), frequency: 1 },
        ];
        assert_eq!(Schedule::broadcast_disks(&dup), Err(ScheduleError::DuplicateItem(BatId(1))));
    }

    #[test]
    fn chunking_handles_more_chunks_than_items() {
        // 2 items over 4 chunks → two singleton chunks + two empty ones.
        let items = ids(0..2);
        let chunks = chunk_evenly(&items, 4);
        assert_eq!(chunks.len(), 4);
        let total: usize = chunks.iter().map(|c| c.len()).sum();
        assert_eq!(total, 2);
        // A schedule built from it still has exact frequencies.
        let disks =
            vec![DiskSpec { items, frequency: 1 }, DiskSpec { items: ids(2..3), frequency: 4 }];
        let s = Schedule::broadcast_disks(&disks).unwrap();
        assert_eq!(s.frequency_of(BatId(0)), 1);
        assert_eq!(s.frequency_of(BatId(2)), 4);
    }

    #[test]
    fn partition_orders_hottest_first() {
        let pop: Vec<(BatId, f64)> = (0..10).map(|i| (BatId(i), f64::from(i))).collect();
        let disks = partition_by_popularity(&pop, &[(2, 4), (3, 2)]);
        assert_eq!(disks.len(), 3);
        assert_eq!(disks[0].items, vec![BatId(9), BatId(8)]);
        assert_eq!(disks[0].frequency, 4);
        assert_eq!(disks[1].items.len(), 3);
        assert_eq!(disks[2].items.len(), 5);
        assert_eq!(disks[2].frequency, 1);
    }

    #[test]
    fn partition_tie_breaks_deterministically() {
        let pop: Vec<(BatId, f64)> = (0..6).map(|i| (BatId(i), 1.0)).collect();
        let a = partition_by_popularity(&pop, &[(3, 2)]);
        let b = partition_by_popularity(&pop, &[(3, 2)]);
        assert_eq!(a, b);
        assert_eq!(a[0].items, vec![BatId(0), BatId(1), BatId(2)]);
    }

    #[test]
    fn cycle_bytes_counts_repeats() {
        let ds = Dataset { sizes: vec![100, 200, 300], owners: vec![0, 0, 0] };
        let disks = vec![
            DiskSpec { items: vec![BatId(0)], frequency: 2 },
            DiskSpec { items: vec![BatId(1), BatId(2)], frequency: 1 },
        ];
        let s = Schedule::broadcast_disks(&disks).unwrap();
        // Item 0 twice (200) + items 1,2 once (500).
        assert_eq!(s.cycle_bytes(&ds), 700);
    }
}
