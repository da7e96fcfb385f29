//! Owner-side residency accounting: how many bytes of owned fragment
//! payloads sit in RAM, which fragments are spilled to the data dir,
//! and which resident fragments to spill first when the node's memory
//! budget is exceeded.

use crate::ids::BatId;
use std::collections::HashMap;
use std::sync::Arc;

/// A fragment whose payload lives only in `bats/<id>.v<version>.bat` on
/// the owner's disk. The version is pinned: a spilled fragment cannot
/// be mutated without first being reloaded, so file and catalog agree.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpilledFrag {
    pub version: u32,
    pub size: u64,
}

/// Byte-accurate bookkeeping for one node; totals are maintained
/// incrementally so the budget check is O(1), and every change is
/// published at once to the node's `obs_hotset_resident_bytes`,
/// `obs_hotset_spilled_bytes` and `obs_hotset_spilled_frags` gauges.
#[derive(Default)]
pub struct HotsetAccounting {
    mem_budget: Option<u64>,
    resident: HashMap<BatId, u64>,
    spilled: HashMap<BatId, SpilledFrag>,
    resident_bytes: u64,
    spilled_bytes: u64,
    /// The three gauges, in that order.
    gauges: [Arc<dc_obs::Gauge>; 3],
}

impl HotsetAccounting {
    pub fn new(mem_budget: Option<u64>, obs: &dc_obs::Registry) -> Self {
        let gauges =
            ["obs_hotset_resident_bytes", "obs_hotset_spilled_bytes", "obs_hotset_spilled_frags"]
                .map(|name| obs.gauge(name));
        HotsetAccounting { mem_budget, gauges, ..Default::default() }
    }

    fn publish(&self) {
        let totals = [self.resident_bytes, self.spilled_bytes, self.spilled.len() as u64];
        for (gauge, v) in self.gauges.iter().zip(totals) {
            gauge.set(v as i64);
        }
    }

    pub fn mem_budget(&self) -> Option<u64> {
        self.mem_budget
    }

    /// A fragment payload is (now) resident at `bytes`; re-noting after
    /// an append/mutation adjusts the total by the growth.
    pub fn note_resident(&mut self, bat: BatId, bytes: u64) {
        let old = self.resident.insert(bat, bytes).unwrap_or(0);
        self.resident_bytes = self.resident_bytes - old + bytes;
        self.publish();
    }

    /// The payload was dropped from RAM; the file of `version` is now
    /// the only copy.
    pub fn note_spilled(&mut self, bat: BatId, version: u32, size: u64) {
        if let Some(old) = self.resident.remove(&bat) {
            self.resident_bytes -= old;
        }
        let prev = self.spilled.insert(bat, SpilledFrag { version, size });
        self.spilled_bytes = self.spilled_bytes - prev.map_or(0, |p| p.size) + size;
        self.publish();
    }

    /// The payload came back from disk; the fragment is resident again.
    pub fn note_reloaded(&mut self, bat: BatId) -> Option<SpilledFrag> {
        let info = self.spilled.remove(&bat)?;
        self.spilled_bytes -= info.size;
        self.note_resident(bat, info.size);
        Some(info)
    }

    pub fn is_spilled(&self, bat: BatId) -> bool {
        self.spilled.contains_key(&bat)
    }

    pub fn spilled_get(&self, bat: BatId) -> Option<SpilledFrag> {
        self.spilled.get(&bat).copied()
    }

    pub fn spilled_iter(&self) -> impl Iterator<Item = (BatId, SpilledFrag)> + '_ {
        self.spilled.iter().map(|(&b, &s)| (b, s))
    }

    pub fn resident_bytes(&self) -> u64 {
        self.resident_bytes
    }

    pub fn spilled_bytes(&self) -> u64 {
        self.spilled_bytes
    }

    /// Resident bytes over the budget; 0 when unbudgeted or under it.
    pub fn excess(&self) -> u64 {
        self.mem_budget.map_or(0, |b| self.resident_bytes.saturating_sub(b))
    }
}

/// Coldest-first victim selection: order `(bat, last_loi, size)`
/// candidates by ascending interest (ties broken by id so runs are
/// deterministic) and take just enough to cover `excess` bytes. The
/// order is total (`f64::total_cmp`), so not even a NaN score can
/// break the sort.
pub fn spill_victims(mut candidates: Vec<(BatId, f64, u64)>, excess: u64) -> Vec<BatId> {
    if excess == 0 {
        return Vec::new();
    }
    candidates.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0 .0.cmp(&b.0 .0)));
    let mut covered = 0u64;
    let mut out = Vec::new();
    for (bat, _, size) in candidates {
        if covered >= excess {
            break;
        }
        covered += size;
        out.push(bat);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn residency_totals_track_moves_and_reach_the_gauges_at_once() {
        let obs = dc_obs::Registry::new(0);
        let gauges = || {
            ["obs_hotset_resident_bytes", "obs_hotset_spilled_bytes", "obs_hotset_spilled_frags"]
                .map(|name| obs.gauge_value(name).unwrap())
        };
        let mut acc = HotsetAccounting::new(Some(100), &obs);
        acc.note_resident(BatId(1), 60);
        acc.note_resident(BatId(2), 50);
        assert_eq!(acc.resident_bytes(), 110);
        assert_eq!(acc.excess(), 10);
        assert_eq!(gauges(), [110, 0, 0]);

        acc.note_spilled(BatId(1), 3, 60);
        assert_eq!(acc.resident_bytes(), 50);
        assert_eq!(acc.spilled_bytes(), 60);
        assert_eq!(acc.spilled_get(BatId(1)), Some(SpilledFrag { version: 3, size: 60 }));
        assert_eq!(acc.excess(), 0);
        assert_eq!(gauges(), [50, 60, 1]);

        assert_eq!(acc.note_reloaded(BatId(1)), Some(SpilledFrag { version: 3, size: 60 }));
        assert_eq!(acc.resident_bytes(), 110);
        assert_eq!(acc.spilled_bytes(), 0);
        assert!(!acc.is_spilled(BatId(1)));
        assert_eq!(gauges(), [110, 0, 0]);
    }

    #[test]
    fn renoting_resident_adjusts_for_growth() {
        let mut acc = HotsetAccounting::new(None, &dc_obs::Registry::new(0));
        acc.note_resident(BatId(7), 10);
        acc.note_resident(BatId(7), 25); // an append grew it
        assert_eq!(acc.resident_bytes(), 25);
        assert_eq!(acc.excess(), 0, "unbudgeted never reports excess");
    }

    #[test]
    fn victims_are_coldest_first_and_cover_excess() {
        let cands = vec![
            (BatId(1), 0.9, 40),
            (BatId(2), 0.1, 30),
            (BatId(3), 0.1, 30),
            (BatId(4), 0.5, 40),
        ];
        // 50 bytes over: the two coldest (ids 2,3 at LOI 0.1) cover 60.
        assert_eq!(spill_victims(cands.clone(), 50), vec![BatId(2), BatId(3)]);
        assert_eq!(spill_victims(cands.clone(), 0), Vec::<BatId>::new());
        // A NaN score does not unsettle the order of the others: it sorts
        // after every number and is taken last.
        let mut with_nan = cands;
        with_nan.insert(1, (BatId(5), f64::NAN, 10));
        assert_eq!(spill_victims(with_nan.clone(), 50), vec![BatId(2), BatId(3)]);
        assert_eq!(spill_victims(with_nan, 1_000), [2, 3, 4, 1, 5].map(BatId));
    }
}
