//! The owner's record of its fragments (Fig. 2's S1 beside its "local
//! disk"): one entry per owned fragment, saying whether its payload is
//! in RAM or only in its version's file, and which version a committed
//! record names. Size, version, state and LOI live in [`S1Catalog`]
//! alone; the transitions that change a fragment write them there. Like
//! [`crate::routed`], the store does no I/O and reads no clock: the
//! event loop writes and reads the files and tells the store what
//! happened.

use crate::catalog::{OwnedState, S1Catalog};
use crate::ids::BatId;
use batstore::Bat;
use dc_persist::FragSnap;
use std::collections::HashMap;
use std::sync::Arc;

/// Where an owned fragment's payload is.
pub enum Payload {
    /// In RAM: the authoritative `Bat`, which every payload send encodes
    /// anew and a local pin hands out.
    Resident(Arc<Bat>),
    /// Only in `bats/<id>.v<version>.bat`, at the version S1 records: a
    /// spilled fragment is reloaded before it changes.
    Spilled,
}

struct Owned {
    payload: Payload,
    /// The version whose file a committed record names — the `FragMeta`
    /// of a bulk load or a spill, or the last checkpoint that named the
    /// fragment. A resident fragment still at it is *clean*: its payload
    /// can be dropped with no further I/O.
    durable: Option<u32>,
}

/// One node's owned fragments, held to its memory budget. The byte
/// totals are kept incrementally, so the budget check is O(1), and every
/// change is published at once to the node's gauges.
pub struct OwnedStore {
    frags: HashMap<BatId, Owned>,
    mem_budget: Option<u64>,
    /// Resident bytes, spilled bytes and spilled fragments, and the
    /// gauges showing them, in that order.
    totals: [u64; 3],
    gauges: [Arc<dc_obs::Gauge>; 3],
}

impl OwnedStore {
    /// An empty store held to `mem_budget` — which only a node with a
    /// data dir has: spilling needs somewhere to put the at-rest copy.
    pub fn new(mem_budget: Option<u64>, obs: &dc_obs::Registry) -> Self {
        let gauges =
            ["obs_hotset_resident_bytes", "obs_hotset_spilled_bytes", "obs_hotset_spilled_frags"]
                .map(|name| obs.gauge(name));
        OwnedStore { frags: HashMap::new(), mem_budget, totals: [0; 3], gauges }
    }

    /// Take `payload` as owned fragment `bat` at `version`, resident and
    /// not yet durable: a bulk load, a `CREATE TABLE`, a recovery.
    pub fn own(&mut self, s1: &mut S1Catalog, bat: BatId, version: u32, payload: Arc<Bat>) {
        self.count(s1, bat, false);
        s1.register(bat, payload.byte_size() as u64);
        if let Some(o) = s1.get_mut(bat) {
            o.version = version;
        }
        self.frags.insert(bat, Owned { payload: Payload::Resident(payload), durable: None });
        self.count(s1, bat, true);
    }

    /// Make `payload` owned fragment `bat`'s copy at `version`, a
    /// mutation's next: resident, and dirty until its file is stored or a
    /// checkpoint commits it. Returns its size.
    pub fn install(&mut self, s1: &mut S1Catalog, bat: BatId, version: u32, payload: Bat) -> u64 {
        let size = payload.byte_size() as u64;
        self.count(s1, bat, false);
        if let Some(o) = s1.get_mut(bat) {
            (o.size, o.version) = (size, version);
        }
        self.set(s1, bat, Payload::Resident(Arc::new(payload)));
        size
    }

    /// Drop a resident, clean fragment's payload: the file of its version
    /// is now its only copy. Any other fragment — a dirty one's version
    /// has no file yet — is left as it is, and `false` returned.
    pub fn spill(&mut self, s1: &S1Catalog, bat: BatId) -> bool {
        if !matches!(self.payload(bat), Some(Payload::Resident(_))) || !self.is_clean(s1, bat) {
            return false;
        }
        self.count(s1, bat, false);
        self.set(s1, bat, Payload::Spilled);
        true
    }

    /// A spilled fragment's payload, read back from its version's file,
    /// is resident again — and clean, for that file stays.
    pub fn reload(&mut self, s1: &S1Catalog, bat: BatId, payload: Arc<Bat>) {
        self.count(s1, bat, false);
        self.set(s1, bat, Payload::Resident(payload));
    }

    /// A `FragMeta` naming `bat` at `version` landed: that version's file
    /// is durable. A version is never made durable below one that is.
    pub fn stored(&mut self, bat: BatId, version: u32) {
        if let Some(o) = self.frags.get_mut(&bat) {
            o.durable = o.durable.max(Some(version));
        }
    }

    /// A checkpoint committed: the versions its snapshot names are
    /// durable, except where a load or a spill made a later one durable
    /// while it was being written.
    pub fn committed(&mut self, named: impl IntoIterator<Item = (BatId, u32)>) {
        for (bat, version) in named {
            self.stored(bat, version);
        }
    }

    /// Where owned fragment `bat`'s payload is; `None` if it is not owned.
    pub fn payload(&self, bat: BatId) -> Option<&Payload> {
        self.frags.get(&bat).map(|o| &o.payload)
    }

    /// Whether `bat` is at the version whose file a committed record names.
    pub fn is_clean(&self, s1: &S1Catalog, bat: BatId) -> bool {
        let durable = self.frags.get(&bat).and_then(|o| o.durable);
        durable.is_some() && durable == s1.get(bat).map(|o| o.version)
    }

    /// Every owned fragment as a checkpoint names it: a resident one with
    /// its payload, a spilled one without — its at-rest copy is the file
    /// of its version, which the entry keeps out of garbage collection.
    pub fn snapshot(&self, s1: &S1Catalog) -> Vec<FragSnap> {
        let frag = |(bat, o): (&BatId, &Owned)| {
            let payload = match &o.payload {
                Payload::Resident(payload) => Some(Arc::clone(payload)),
                Payload::Spilled => None,
            };
            Some(FragSnap { bat: bat.0, version: s1.get(*bat)?.version, payload })
        };
        self.frags.iter().filter_map(frag).collect()
    }

    /// The resident off-ring fragments to spill, coldest first, until
    /// residency fits the budget; none when it does, or without one.
    pub fn victims(&self, s1: &S1Catalog) -> Vec<BatId> {
        let excess = self.mem_budget.map_or(0, |b| self.totals[0].saturating_sub(b));
        if excess == 0 {
            return Vec::new();
        }
        let resident = |bat| matches!(self.payload(bat), Some(Payload::Resident(_)));
        let candidates = s1
            .iter()
            .filter(|(bat, o)| o.state == OwnedState::OnDisk && resident(*bat))
            .map(|(bat, o)| (bat, o.last_loi, o.size))
            .collect();
        spill_victims(candidates, excess)
    }

    pub fn mem_budget(&self) -> Option<u64> {
        self.mem_budget
    }

    pub fn resident_bytes(&self) -> u64 {
        self.totals[0]
    }

    pub fn spilled_bytes(&self) -> u64 {
        self.totals[1]
    }

    /// Give `bat` its new payload and count it in the totals again.
    fn set(&mut self, s1: &S1Catalog, bat: BatId, payload: Payload) {
        if let Some(o) = self.frags.get_mut(&bat) {
            o.payload = payload;
        }
        self.count(s1, bat, true);
    }

    /// Take `bat`'s share, at the size S1 records, out of the totals
    /// before a transition changes it, or (`add`) put it back after. A
    /// transition ends by putting it back, which publishes the totals:
    /// the gauges never show one half-way.
    fn count(&mut self, s1: &S1Catalog, bat: BatId, add: bool) {
        let (Some(o), Some(size)) = (self.frags.get(&bat), s1.get(bat).map(|o| o.size)) else {
            return;
        };
        let share = match o.payload {
            Payload::Resident(_) => [size, 0, 0],
            Payload::Spilled => [0, size, 1],
        };
        for (total, n) in self.totals.iter_mut().zip(share) {
            *total = if add { *total + n } else { *total - n };
        }
        if add {
            for (gauge, total) in self.gauges.iter().zip(self.totals) {
                gauge.set(total as i64);
            }
        }
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
    use batstore::Column;

    /// An `i32` column of `rows` rows, and its size.
    fn payload(rows: usize) -> (Arc<Bat>, u64) {
        let bat = Bat::dense(Column::from(vec![0i32; rows]));
        let size = bat.byte_size() as u64;
        (Arc::new(bat), size)
    }

    #[test]
    fn residency_totals_track_moves_and_reach_the_gauges_at_once() {
        let obs = dc_obs::Registry::new(0);
        let gauges = || {
            ["obs_hotset_resident_bytes", "obs_hotset_spilled_bytes", "obs_hotset_spilled_frags"]
                .map(|name| obs.gauge_value(name).unwrap())
        };
        let ((one, a), (two, b)) = (payload(60), payload(50));
        let mut s1 = S1Catalog::new();
        let mut store = OwnedStore::new(Some(a + b - 10), &obs);
        store.own(&mut s1, BatId(1), 3, Arc::clone(&one));
        store.own(&mut s1, BatId(2), 0, two);
        assert_eq!((s1.get(BatId(1)).unwrap().size, s1.get(BatId(1)).unwrap().version), (a, 3));
        assert_eq!(store.resident_bytes(), a + b);
        assert_eq!(store.victims(&s1), [BatId(1)], "10 bytes over: the colder, lower id");
        assert_eq!(gauges(), [a + b, 0, 0].map(|v| v as i64));

        assert!(!store.spill(&s1, BatId(1)), "v3 has no file yet: a dirty payload stays");
        store.stored(BatId(1), 3);
        assert!(store.spill(&s1, BatId(1)));
        assert!(!store.spill(&s1, BatId(1)), "spilled once");
        assert!(matches!(store.payload(BatId(1)), Some(Payload::Spilled)));
        assert_eq!((store.resident_bytes(), store.spilled_bytes()), (b, a));
        assert_eq!(store.victims(&s1), []);
        assert_eq!(gauges(), [b as i64, a as i64, 1]);
        let snap = store.snapshot(&s1);
        let spilled = snap.iter().find(|f| f.bat == 1).unwrap();
        assert_eq!((spilled.version, spilled.payload.is_none()), (3, true));

        store.reload(&s1, BatId(1), one);
        assert_eq!((store.resident_bytes(), store.spilled_bytes()), (a + b, 0));
        assert!(matches!(store.payload(BatId(1)), Some(Payload::Resident(_))));
        assert!(store.is_clean(&s1, BatId(1)), "the file it came from stays");
        assert_eq!(gauges(), [a + b, 0, 0].map(|v| v as i64));
    }

    #[test]
    fn installing_a_version_adjusts_for_growth() {
        let mut s1 = S1Catalog::new();
        let mut store = OwnedStore::new(None, &dc_obs::Registry::new(0));
        let (small, _) = payload(10);
        store.own(&mut s1, BatId(7), 0, small);
        let grown = Bat::dense(Column::from(vec![0i32; 25])); // an append grew it
        let size = store.install(&mut s1, BatId(7), 1, grown);
        assert_eq!(store.resident_bytes(), size);
        assert_eq!((s1.get(BatId(7)).unwrap().size, s1.get(BatId(7)).unwrap().version), (size, 1));
        assert_eq!(store.victims(&s1), [], "unbudgeted never has victims");
    }

    #[test]
    fn a_mutation_dirties_a_stored_version_and_a_commit_never_lowers_a_later_one() {
        let mut s1 = S1Catalog::new();
        let mut store = OwnedStore::new(Some(0), &dc_obs::Registry::new(0));
        let (v0, _) = payload(4);
        store.own(&mut s1, BatId(1), 0, v0);
        assert!(!store.is_clean(&s1, BatId(1)), "owned, not yet stored");
        store.stored(BatId(1), 0);
        assert!(store.is_clean(&s1, BatId(1)));

        store.install(&mut s1, BatId(1), 1, Bat::dense(Column::from(vec![1i32; 5])));
        assert!(!store.is_clean(&s1, BatId(1)), "v1 has no file");
        // A checkpoint whose snapshot named v1 is being written while a
        // spill stores v2; its commit arrives after.
        store.install(&mut s1, BatId(1), 2, Bat::dense(Column::from(vec![2i32; 6])));
        store.stored(BatId(1), 2);
        assert!(store.is_clean(&s1, BatId(1)));
        store.committed([(BatId(1), 1)]);
        assert!(store.is_clean(&s1, BatId(1)), "the commit of v1 lowered durable v2");
        assert!(store.spill(&s1, BatId(1)));
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
