//! §5.2 — the skewed-workload scenario of Table 3.
//!
//! Four workloads SW1–SW4 with skew values 3/5/7/9: "Each Di is composed
//! by BATs for which the modulo of their id and a skewed value is equal
//! to zero." Start/end times and rates follow Table 3; the disjoint hot
//! sets DHi are the portions of Di not shared with the *other* D sets
//! (DH4 ends up contained in DH1 since multiples of 9 are multiples of
//! 3, exactly as the paper notes).

use crate::dataset::Dataset;
use crate::spec::{ExecModel, QuerySpec};
use datacyclotron::BatId;
use netsim::{DetRng, SimDuration, SimTime};

/// One skewed sub-workload (a row of Table 3).
#[derive(Clone, Debug)]
pub struct SkewedWave {
    pub skew: u32,
    pub start: SimTime,
    pub end: SimTime,
    pub queries_per_second: f64,
}

/// Table 3 of the paper.
pub fn paper_waves() -> Vec<SkewedWave> {
    vec![
        SkewedWave {
            skew: 3,
            start: SimTime::ZERO,
            end: SimTime::from_secs(30),
            queries_per_second: 200.0,
        },
        SkewedWave {
            skew: 5,
            start: SimTime::from_secs(15),
            end: SimTime::from_secs(45),
            queries_per_second: 300.0,
        },
        SkewedWave {
            skew: 7,
            start: SimTime::from_secs_f64(37.5),
            end: SimTime::from_secs_f64(67.5),
            queries_per_second: 400.0,
        },
        SkewedWave {
            skew: 9,
            start: SimTime::from_secs_f64(67.5),
            end: SimTime::from_secs_f64(97.5),
            queries_per_second: 500.0,
        },
    ]
}

/// D_i: the data subset a wave accesses.
pub fn wave_data(dataset_len: usize, skew: u32) -> Vec<BatId> {
    (0..dataset_len as u32).filter(|id| id % skew == 0).map(BatId).collect()
}

/// Tag for a BAT: the lowest-indexed wave whose D_i contains it (used to
/// attribute ring space in Fig. 8a); `None` when no wave uses it.
pub fn bat_wave_tag(bat: BatId, skews: &[u32]) -> Option<u32> {
    skews.iter().position(|&s| bat.0.is_multiple_of(s)).map(|i| i as u32)
}

/// Generate the full §5.2 workload. Queries of each wave are spread
/// round-robin over the nodes; each accesses 1–5 BATs of its D_i
/// (remote only) at 100–200 ms per BAT.
pub fn generate(dataset: &Dataset, nodes: usize, seed: u64) -> Vec<QuerySpec> {
    generate_waves(&paper_waves(), dataset, nodes, seed)
}

pub fn generate_waves(
    waves: &[SkewedWave],
    dataset: &Dataset,
    nodes: usize,
    seed: u64,
) -> Vec<QuerySpec> {
    let mut rng = DetRng::new(seed);
    let mut out = Vec::new();
    for (w_idx, w) in waves.iter().enumerate() {
        let data = wave_data(dataset.len(), w.skew);
        assert!(!data.is_empty(), "wave with empty data set");
        let interval = 1.0 / w.queries_per_second;
        // Round-robin placement, staggered by wave index.
        for (i, slot) in (w_idx..).enumerate() {
            let t = w.start.as_secs_f64() + i as f64 * interval;
            if t >= w.end.as_secs_f64() {
                break;
            }
            let k = rng.uniform_u64(1, 5) as usize;
            let mut needs = Vec::with_capacity(k);
            let mut proc = Vec::with_capacity(k);
            for _ in 0..k {
                // Remote-only: resample while the BAT is local.
                let mut bat = data[rng.index(data.len())];
                let mut guard = 0;
                while dataset.owner_of(bat) == slot % nodes && guard < 32 {
                    bat = data[rng.index(data.len())];
                    guard += 1;
                }
                needs.push(bat);
                proc.push(SimDuration::from_secs_f64(rng.uniform_f64(0.1, 0.2)));
            }
            out.push(QuerySpec {
                arrival: SimTime::from_secs_f64(t),
                node: slot % nodes,
                needs,
                model: ExecModel::PerBat { proc },
                tag: w_idx as u32,
            });
        }
    }
    out.sort_by_key(|q| q.arrival);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_parameters() {
        let w = paper_waves();
        assert_eq!(w.len(), 4);
        assert_eq!(w[0].skew, 3);
        assert_eq!(w[3].queries_per_second, 500.0);
        assert_eq!(w[2].start, SimTime::from_secs_f64(37.5));
    }

    #[test]
    fn wave_data_is_multiples() {
        let d = wave_data(100, 7);
        assert!(d.iter().all(|b| b.0 % 7 == 0));
        assert_eq!(d.len(), 15); // 0,7,…,98
    }

    #[test]
    fn d4_contained_in_d1() {
        // Multiples of 9 are multiples of 3: the containment the paper
        // notes.
        let d9 = wave_data(1000, 9);
        let d3 = wave_data(1000, 3);
        assert!(d9.iter().all(|b| d3.contains(b)), "D4 ⊂ D1");
    }

    #[test]
    fn tags_attribute_to_first_wave() {
        assert_eq!(bat_wave_tag(BatId(15), &[3, 5, 7, 9]), Some(0), "15 % 3 == 0 wins");
        assert_eq!(bat_wave_tag(BatId(35), &[3, 5, 7, 9]), Some(1));
        assert_eq!(bat_wave_tag(BatId(49), &[3, 5, 7, 9]), Some(2));
        assert_eq!(bat_wave_tag(BatId(1), &[3, 5, 7, 9]), None);
    }

    #[test]
    fn generated_workload_shape() {
        let d = Dataset::paper_8gb(10, 1);
        let qs = generate(&d, 10, 2);
        // 30s×200 + 30s×300 + 30s×400 + 30s×500 = 42 000 queries.
        assert_eq!(qs.len(), 42_000);
        for q in &qs {
            q.validate().unwrap();
            let wave = &paper_waves()[q.tag as usize];
            assert!(q.arrival >= wave.start && q.arrival < wave.end);
            for b in &q.needs {
                assert_eq!(b.0 % wave.skew, 0, "needs come from the wave's D_i");
            }
        }
    }

    #[test]
    fn waves_overlap_as_specified() {
        let d = Dataset::paper_8gb(10, 1);
        let qs = generate(&d, 10, 2);
        // At t=20s both SW1 and SW2 are active.
        let active: Vec<u32> = qs
            .iter()
            .filter(|q| q.arrival >= SimTime::from_secs(19) && q.arrival <= SimTime::from_secs(21))
            .map(|q| q.tag)
            .collect();
        assert!(active.contains(&0) && active.contains(&1));
        // SW3/SW4 do not overlap.
        assert!(!qs.iter().any(|q| q.tag == 3 && q.arrival < SimTime::from_secs_f64(67.5)));
    }
}
