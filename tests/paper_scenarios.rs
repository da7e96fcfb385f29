//! Scaled-down versions of each paper experiment asserting the
//! *qualitative* claims of §5 and §6.3. The full-scale regenerations
//! live in the `dc-bench` harness binaries; these run in CI time.

use dc_workloads::gaussian::{self, GaussianParams};
use dc_workloads::micro::{self, MicroParams};
use dc_workloads::skewed::{self, bat_wave_tag, paper_waves};
use dc_workloads::tpch::{self, TpchParams};
use dc_workloads::Dataset;
use netsim::SimDuration;
use ringsim::{Measurements, RingSim, SimParams};

const NODES: usize = 10;

fn micro_at(loit: f64, qps: f64, secs: u64) -> Measurements {
    let ds = Dataset::paper_8gb(NODES, 42);
    let qs = micro::generate(
        &MicroParams {
            queries_per_second_per_node: qps,
            duration: SimDuration::from_secs(secs),
            ..MicroParams::default()
        },
        &ds,
        NODES,
        43,
    );
    RingSim::new(NODES, ds, qs, SimParams::default().with_fixed_loit(loit)).run()
}

#[test]
fn fig6_low_loit_hurts_latency_and_throughput() {
    // §5.1's headline: under ring oversubscription, higher LOIT wins.
    let low = micro_at(0.1, 15.0, 15);
    let high = micro_at(1.1, 15.0, 15);
    assert_eq!(low.failed, 0);
    assert_eq!(high.failed, 0);
    assert!(
        high.mean_lifetime() < low.mean_lifetime(),
        "high {:.2}s vs low {:.2}s",
        high.mean_lifetime(),
        low.mean_lifetime()
    );
    // Throughput at a mid-run instant.
    let t = 20.0;
    assert!(
        high.finished_at(t) > low.finished_at(t),
        "high {} vs low {} at t={t}",
        high.finished_at(t),
        low.finished_at(t)
    );
    // Fig 6b: the low-LOIT tail is longer.
    assert!(high.lifetime_quantile(0.95) < low.lifetime_quantile(0.95));
}

#[test]
fn fig7_ring_fills_toward_capacity() {
    let m = micro_at(0.1, 15.0, 15);
    let cap = 10.0 * 200.0 * 1024.0 * 1024.0;
    let peak = m.ring_bytes.points.iter().map(|&(_, v)| v).fold(0.0, f64::max);
    assert!(peak > 0.5 * cap, "ring should fill: peak {:.2} GB", peak / 1e9);
    assert!(peak <= cap * 1.01, "ring must not exceed capacity");
}

#[test]
fn fig8_adaptation_to_skewed_waves() {
    let ds = Dataset::paper_8gb(NODES, 7);
    let mut waves = paper_waves();
    for w in &mut waves {
        w.queries_per_second *= 0.15;
    }
    let qs = skewed::generate_waves(&waves, &ds, NODES, 11);
    let skews: Vec<u32> = waves.iter().map(|w| w.skew).collect();
    let m = RingSim::new(NODES, ds, qs, SimParams::default())
        .with_bat_tagger(move |b| bat_wave_tag(b, &skews))
        .run();
    assert_eq!(m.failed, 0, "waves must all be served");

    // Reactive behavior: SW2 data shows up in the ring shortly after its
    // 15 s start.
    let sw2 = m.ring_bytes_by_tag.get(&1).expect("sw2 tracked");
    let first = sw2.points.iter().find(|&&(_, v)| v > 0.0).map(|&(t, _)| t).unwrap();
    assert!((14.0..30.0).contains(&first), "SW2 hot set appeared at {first}s (wave starts at 15s)");

    // Post-workload change: SW1 queries keep finishing after SW2 starts.
    let sw1_late = m.lifetimes.iter().filter(|&&(a, l, tag)| tag == 0 && a + l > 15.0).count();
    assert!(sw1_late > 0, "earlier wave starved by the new one");

    // All four waves complete fully.
    for tag in 0..4u32 {
        let total = m.lifetimes.iter().filter(|&&(_, _, t)| t == tag).count();
        let expected = m.lifetimes.len() / 8; // sanity: each wave has work
        assert!(total > expected / 2, "wave {tag} only {total}");
    }
}

#[test]
fn fig9_gaussian_population_behavior() {
    let ds = Dataset::paper_8gb(NODES, 3);
    let qs = gaussian::generate(
        &GaussianParams {
            base: MicroParams {
                queries_per_second_per_node: 15.0,
                duration: SimDuration::from_secs(15),
                ..MicroParams::default()
            },
            ..GaussianParams::default()
        },
        &ds,
        NODES,
        5,
    );
    let m = RingSim::new(NODES, ds, qs, SimParams::default()).run();
    assert_eq!(m.failed, 0);

    let avg = |r: std::ops::Range<usize>, v: &Vec<u64>| -> f64 {
        let n = r.len() as f64;
        r.map(|i| v[i]).sum::<u64>() as f64 / n
    };
    // In-vogue BATs (350–600) are touched far more than unpopular ones.
    let vogue_touch = avg(350..600, &m.bat_touches);
    let unpop_touch = avg(0..250, &m.bat_touches);
    assert!(
        vogue_touch > 10.0 * (unpop_touch + 0.1),
        "vogue {vogue_touch} vs unpopular {unpop_touch}"
    );
    // In-vogue BATs are loaded relatively rarely per touch (they stay in
    // the ring); standard BATs cycle in and out more.
    let vogue_loads_per_touch = avg(350..600, &m.bat_loads) / vogue_touch.max(1.0);
    let std_touch = (avg(250..350, &m.bat_touches) + avg(600..700, &m.bat_touches)) / 2.0;
    let std_loads = (avg(250..350, &m.bat_loads) + avg(600..700, &m.bat_loads)) / 2.0;
    let std_loads_per_touch = std_loads / std_touch.max(1.0);
    assert!(
        vogue_loads_per_touch < std_loads_per_touch,
        "vogue {vogue_loads_per_touch:.4} vs standard {std_loads_per_touch:.4} loads/touch"
    );
}

#[test]
fn table4_throughput_scales_with_nodes() {
    // Enough queries per node to be CPU-bound (the paper's regime: 8 q/s
    // arrivals demand ~8.4 core-s/s against 4 cores), so added nodes add
    // throughput rather than just rotation latency.
    let params = TpchParams { queries_per_node: 300, ..TpchParams::default() };
    let run = |nodes: usize| {
        let w = tpch::generate(&params, nodes, 1);
        let mut sp = SimParams {
            cores_per_node: Some(4),
            horizon: SimDuration::from_secs(2_000),
            sample: SimDuration::from_secs(5),
            ..SimParams::default()
        };
        sp.dc.cache_capacity = 16 << 30; // §5.4 "ample main memory"
        RingSim::new(nodes.max(2), w.dataset, w.queries, sp).run()
    };
    let m2 = run(2);
    let m4 = run(4);
    assert_eq!(m2.failed, 0, "2-node run failed queries");
    assert_eq!(m4.failed, 0, "4-node run failed queries");
    let thr2 = m2.completed as f64 / m2.makespan;
    let thr4 = m4.completed as f64 / m4.makespan;
    assert!(
        thr4 > 1.6 * thr2,
        "throughput must scale: 2 nodes {thr2:.2} q/s vs 4 nodes {thr4:.2} q/s"
    );
    // CPU% stays high but below the perfect single-node level.
    assert!(m4.cpu_utilization > 0.3, "cpu {:.2}", m4.cpu_utilization);
}

#[test]
fn fig10_11_bigger_ring_longer_bat_lives() {
    let pts = dc_workloads::scaling::sweep(&[5, 15], 60.0, SimDuration::from_secs(15), 17);
    let mut results = Vec::new();
    for p in pts {
        let m = RingSim::new(p.nodes, p.dataset, p.queries, SimParams::default()).run();
        assert_eq!(m.failed, 0, "{} nodes failed queries", p.nodes);
        results.push((p.nodes, m));
    }
    let vogue_cycles =
        |m: &Measurements| -> u32 { (350..600).map(|b| m.bat_max_cycles[b]).max().unwrap_or(0) };
    let (small, big) = (&results[0].1, &results[1].1);
    // Fig 11: with more ring capacity, in-vogue BATs survive more cycles.
    assert!(
        vogue_cycles(big) >= vogue_cycles(small),
        "cycles: 15n {} vs 5n {}",
        vogue_cycles(big),
        vogue_cycles(small)
    );
}

#[test]
fn split_ring_handles_the_gaussian_workload() {
    // §6.1 splitting composes with the skewed access pattern and still
    // completes everything while cutting ring requests. Five nodes hold
    // 500 MB over 100 fragments.
    let nodes = 5;
    let dataset = || Dataset::uniform(100, 500 << 20, 2 << 20, 8 << 20, nodes, 7);
    let queries = gaussian::generate(
        &GaussianParams {
            mean: 50.0,
            stddev: 6.0,
            base: MicroParams {
                queries_per_second_per_node: 4.0,
                duration: SimDuration::from_secs(5),
                ..MicroParams::default()
            },
        },
        &dataset(),
        nodes,
        31,
    );
    let total = queries.len();
    let params = SimParams::default().with_queue_capacity(128 << 20);
    let whole = RingSim::new(nodes, dataset(), queries.clone(), params.clone()).run();
    let split = RingSim::new(nodes, dataset(), queries, params)
        .with_split(ringsim::SplitParams::default())
        .run();
    assert_eq!(whole.completed, total);
    assert_eq!(split.completed, total);
    assert!(split.stats.requests_dispatched.get() < whole.stats.requests_dispatched.get());
}

/// The Experiments docs cannot drift: README.md's table and `dc-bench`'s
/// module doc each name exactly the binaries in `crates/bench/src/bin/`,
/// once each.
#[test]
fn the_experiment_tables_name_exactly_the_harness_binaries() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/crates/bench/src/bin");
    let mut binaries: Vec<String> = std::fs::read_dir(dir)
        .expect("the harness binaries")
        .map(|entry| entry.expect("a directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "rs"))
        .map(|path| path.file_stem().expect("a file name").to_string_lossy().into_owned())
        .collect();
    binaries.sort();
    assert!(!binaries.is_empty());
    let readme = include_str!("../README.md");
    let readme = readme.split("\n## Experiments").nth(1).expect("an Experiments section");
    let bench_doc = include_str!("../crates/bench/src/lib.rs");
    assert_eq!(table_binaries(readme, "| Binary"), binaries, "README.md's Experiments table");
    assert_eq!(table_binaries(bench_doc, "| binary"), binaries, "dc-bench's module doc");
}

/// The first column of the first Markdown table in `doc` whose header row
/// starts with `header` (a `//!` doc prefix is ignored), sorted. Each cell
/// must be one code span.
fn table_binaries(doc: &str, header: &str) -> Vec<String> {
    let lines = doc.lines().map(|line| line.trim_start_matches("//!").trim());
    let rows = lines.skip_while(|line| !line.starts_with(header)).skip(2);
    let mut names: Vec<String> = rows
        .take_while(|row| row.starts_with('|'))
        .map(|row| {
            let cell = row.split('|').nth(1).expect("a first column").trim();
            let name = cell.strip_prefix('`').and_then(|c| c.strip_suffix('`'));
            name.unwrap_or_else(|| panic!("not a binary name: {cell:?}")).to_string()
        })
        .collect();
    names.sort();
    names
}
