//! Cross-system integration tests: the §7 broadcast baselines against
//! the Data Cyclotron ring on shared workloads, checking the
//! qualitative claims each architecture is built on.

use datacyclotron::BatId;
use dc_broadcast::{
    partition_by_popularity, BroadcastSim, ChannelConfig, OnDemandSim, PullPolicy, Schedule,
};
use dc_workloads::gaussian::{self, GaussianParams};
use dc_workloads::micro::{self, MicroParams};
use dc_workloads::Dataset;
use netsim::SimDuration;
use ringsim::{RingSim, SimParams};

const NODES: usize = 5;

fn dataset() -> Dataset {
    // 500 MB over 100 fragments: flat broadcast cycle ≈ 0.4 s.
    Dataset::uniform(100, 500 << 20, 2 << 20, 8 << 20, NODES, 7)
}

fn uniform_queries(rate_per_node: f64, secs: u64, seed: u64) -> Vec<dc_workloads::QuerySpec> {
    micro::generate(
        &MicroParams {
            queries_per_second_per_node: rate_per_node,
            duration: SimDuration::from_secs(secs),
            ..MicroParams::default()
        },
        &dataset(),
        NODES,
        seed,
    )
}

fn gaussian_queries(rate_per_node: f64, secs: u64, seed: u64) -> Vec<dc_workloads::QuerySpec> {
    gaussian::generate(
        &GaussianParams {
            mean: 50.0,
            stddev: 6.0,
            base: MicroParams {
                queries_per_second_per_node: rate_per_node,
                duration: SimDuration::from_secs(secs),
                ..MicroParams::default()
            },
        },
        &dataset(),
        NODES,
        seed,
    )
}

fn all_items() -> Vec<BatId> {
    (0..100).map(BatId).collect()
}

fn bdisk_schedule(queries: &[dc_workloads::QuerySpec]) -> Schedule {
    let mut counts = vec![0f64; 100];
    for q in queries {
        for &b in &q.needs {
            counts[b.0 as usize] += 1.0;
        }
    }
    let pop: Vec<(BatId, f64)> =
        counts.iter().enumerate().map(|(i, &c)| (BatId(i as u32), c)).collect();
    Schedule::broadcast_disks(&partition_by_popularity(&pop, &[(15, 4), (15, 2)])).unwrap()
}

#[test]
fn every_system_completes_the_same_workload() {
    let queries = uniform_queries(4.0, 5, 11);
    let total = queries.len();
    assert!(total > 50);

    let ring = RingSim::new(
        NODES,
        dataset(),
        queries.clone(),
        SimParams::default().with_queue_capacity(128 << 20),
    )
    .run();
    assert_eq!(ring.completed, total);

    let flat = BroadcastSim::new(
        Schedule::flat(&all_items()).unwrap(),
        dataset(),
        queries.clone(),
        ChannelConfig::default(),
    )
    .run();
    assert_eq!(flat.completed, total);

    let bdisk = BroadcastSim::new(
        bdisk_schedule(&queries),
        dataset(),
        queries.clone(),
        ChannelConfig::default(),
    )
    .run();
    assert_eq!(bdisk.completed, total);

    for policy in [PullPolicy::Fcfs, PullPolicy::Mrf] {
        let pull =
            OnDemandSim::new(dataset(), queries.clone(), ChannelConfig::default(), policy).run();
        assert_eq!(pull.completed, total, "{policy:?}");
    }
}

#[test]
fn flat_push_mean_wait_is_about_half_a_cycle() {
    // Queries with zero processing time arriving all over one cycle:
    // the expected wait for a uniformly random item on a flat cycle is
    // ~cycle/2 (DataCycle's "cycle time is the major performance
    // factor").
    let ds = dataset();
    let cycle_bytes = ds.total_bytes();
    let channel = ChannelConfig::default();
    let cycle_secs = channel.tx_time(cycle_bytes).as_secs_f64();

    let mut queries = Vec::new();
    for i in 0..400u64 {
        queries.push(dc_workloads::QuerySpec {
            arrival: netsim::SimTime::from_millis(i * 7),
            node: 0,
            needs: vec![BatId((i * 37 % 100) as u32)],
            model: dc_workloads::ExecModel::PerBat { proc: vec![SimDuration::ZERO] },
            tag: 0,
        });
    }
    let m = BroadcastSim::new(Schedule::flat(&all_items()).unwrap(), ds, queries, channel).run();
    let mean = m.mean_lifetime();
    assert!(
        mean > 0.25 * cycle_secs && mean < 0.75 * cycle_secs,
        "mean wait {mean:.3}s should sit near half the {cycle_secs:.3}s cycle"
    );
}

#[test]
fn broadcast_disks_beat_flat_under_skew_but_not_uniform() {
    // Skewed access: the multi-disk program allocates bandwidth to the
    // hot items and wins.
    let skewed = gaussian_queries(6.0, 5, 13);
    let flat_skew = BroadcastSim::new(
        Schedule::flat(&all_items()).unwrap(),
        dataset(),
        skewed.clone(),
        ChannelConfig::default(),
    )
    .run();
    let bdisk_skew =
        BroadcastSim::new(bdisk_schedule(&skewed), dataset(), skewed, ChannelConfig::default())
            .run();
    assert!(
        bdisk_skew.mean_lifetime() < flat_skew.mean_lifetime(),
        "bdisk {:.3} vs flat {:.3} under skew",
        bdisk_skew.mean_lifetime(),
        flat_skew.mean_lifetime()
    );

    // Uniform access: structuring bandwidth around noise lengthens the
    // major cycle for the tail — the classic Broadcast Disks caveat.
    let uni = uniform_queries(6.0, 5, 13);
    let flat_uni = BroadcastSim::new(
        Schedule::flat(&all_items()).unwrap(),
        dataset(),
        uni.clone(),
        ChannelConfig::default(),
    )
    .run();
    let bdisk_uni =
        BroadcastSim::new(bdisk_schedule(&uni), dataset(), uni, ChannelConfig::default()).run();
    assert!(
        bdisk_uni.mean_lifetime() > flat_uni.mean_lifetime(),
        "bdisk {:.3} vs flat {:.3} under uniform access",
        bdisk_uni.mean_lifetime(),
        flat_uni.mean_lifetime()
    );
}

#[test]
fn pull_wins_light_load_and_converges_at_saturation() {
    // Light load: a handful of queries on an idle server — pull answers
    // in item-transmission time, push pays the cycle.
    let light = uniform_queries(0.2, 5, 17);
    let pull_light =
        OnDemandSim::new(dataset(), light.clone(), ChannelConfig::default(), PullPolicy::Fcfs)
            .run();
    let push_light = BroadcastSim::new(
        Schedule::flat(&all_items()).unwrap(),
        dataset(),
        light,
        ChannelConfig::default(),
    )
    .run();
    assert!(
        pull_light.mean_lifetime() < push_light.mean_lifetime(),
        "light load: pull {:.3} vs push {:.3}",
        pull_light.mean_lifetime(),
        push_light.mean_lifetime()
    );

    // Saturation: demand for every item at once — consolidation caps
    // the backlog at the database size and pull degenerates into a full
    // broadcast cycle, matching push within a small factor ([2]).
    let heavy = uniform_queries(120.0, 5, 19);
    let pull_heavy =
        OnDemandSim::new(dataset(), heavy.clone(), ChannelConfig::default(), PullPolicy::Fcfs)
            .run();
    let push_heavy = BroadcastSim::new(
        Schedule::flat(&all_items()).unwrap(),
        dataset(),
        heavy,
        ChannelConfig::default(),
    )
    .run();
    let ratio = pull_heavy.mean_lifetime() / push_heavy.mean_lifetime();
    assert!(
        (0.5..2.0).contains(&ratio),
        "saturated pull should converge to push: ratio {ratio:.2}"
    );
}

#[test]
fn ring_beats_flat_push_on_a_pronounced_hot_set() {
    // The DC design point: hot set ≪ database, hot set fits the ring,
    // and the hot fragments are touched often *relative to the ring's
    // rotation* — Eq. 1 scores interest per cycle, so a fragment is
    // only "hot" if queries arrive faster than it circulates.
    // 2 GB database, ~150 MB hot set, 80 q/s against a ~0.15 s rotation.
    let ds = Dataset::uniform(200, 2048 << 20, 4 << 20, 16 << 20, NODES, 23);
    let queries = gaussian::generate(
        &GaussianParams {
            mean: 100.0,
            stddev: 4.0,
            base: MicroParams {
                queries_per_second_per_node: 16.0,
                duration: SimDuration::from_secs(8),
                ..MicroParams::default()
            },
        },
        &ds,
        NODES,
        29,
    );
    let ring = RingSim::new(
        NODES,
        ds.clone(),
        queries.clone(),
        SimParams::default().with_queue_capacity(256 << 20),
    )
    .run();
    assert_eq!(ring.failed, 0);
    let flat_items: Vec<BatId> = (0..200).map(BatId).collect();
    let push = BroadcastSim::new(
        Schedule::flat(&flat_items).unwrap(),
        ds,
        queries,
        ChannelConfig::default(),
    )
    .run();
    assert!(
        ring.mean_lifetime() < push.mean_lifetime(),
        "ring {:.3}s must beat whole-database push {:.3}s when a hot set exists",
        ring.mean_lifetime(),
        push.mean_lifetime()
    );
}

#[test]
fn split_ring_handles_the_gaussian_workload() {
    // §6.1 splitting composes with the skewed access pattern and still
    // completes everything while cutting ring requests.
    let queries = gaussian_queries(4.0, 5, 31);
    let total = queries.len();
    let whole = RingSim::new(
        NODES,
        dataset(),
        queries.clone(),
        SimParams::default().with_queue_capacity(128 << 20),
    )
    .run();
    let split = RingSim::new(
        NODES,
        dataset(),
        queries,
        SimParams::default().with_queue_capacity(128 << 20),
    )
    .with_split(ringsim::SplitParams::default())
    .run();
    assert_eq!(whole.completed, total);
    assert_eq!(split.completed, total);
    assert!(split.stats.requests_dispatched.get() < whole.stats.requests_dispatched.get());
}
