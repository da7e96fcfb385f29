//! Hot-set management acceptance (§4.4/§5): a 3-node durable ring with
//! a per-node memory budget holds a dataset several times larger than
//! the budget. Cold fragments spill to the nodes' data dirs within the
//! event that picks them — a fragment version's bat file is its at-rest
//! format, written by its load or, for a version a write made, by the
//! spill itself — queries against evicted tables block while their plain ring
//! requests make the owners reload the fragments, and return exact typed
//! results, and the whole mechanism is observable through `dc.stats` and
//! `dc.hotset`.

use batstore::{Column, Val};
use datacyclotron::{FsyncPolicy, Ring};
use std::time::{Duration, Instant};

/// Per-node resident budget for the scenario. Each loaded fragment is
/// 500 × 4-byte ints (~2 KiB); with 20 three-column tables spread
/// round-robin every node owns ~20 fragments (~40 KiB), five times its
/// budget — the spill machinery *must* engage to fit.
const BUDGET: u64 = 8 << 10;
const TABLES: usize = 20;
const ROWS: i32 = 500;

fn scratch(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("dc_hotset_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    d
}

fn budget_ring(dir: &std::path::Path) -> Ring {
    Ring::builder(3).data_dir_root(dir).fsync(FsyncPolicy::Off).mem_budget(BUDGET).build()
}

/// `a = 3k + 1`, `b = k mod 7` — recomputable at assert time.
fn load_dataset(ring: &Ring) {
    for t in 0..TABLES {
        let ks: Vec<i32> = (0..ROWS).collect();
        let avals: Vec<i32> = (0..ROWS).map(|k| k * 3 + 1).collect();
        let bvals: Vec<i32> = (0..ROWS).map(|k| k % 7).collect();
        ring.load_table(
            "sys",
            &format!("t{t}"),
            vec![("k", Column::from(ks)), ("a", Column::from(avals)), ("b", Column::from(bvals))],
        )
        .unwrap();
    }
}

fn summed(ring: &Ring, pick: impl Fn(&datacyclotron::NodeStats) -> u64) -> u64 {
    (0..3).map(|i| pick(&ring.node(i).stats().unwrap())).sum()
}

#[test]
fn dataset_over_budget_spills_and_readmits_with_exact_results() {
    let dir = scratch("accept");
    let ring = budget_ring(&dir);
    // cold_log lives wholly on node 0 and alone exceeds the node's
    // budget (1500 rows × 2 int columns ≈ 12 KiB > 8 KiB): once every
    // bulk-loaded fragment has spilled, the residual excess forces
    // cold_log's coldest fragment to disk too — a spilled target for
    // the routed-write test below.
    ring.execute(0, "create table cold_log (id int, v int)").unwrap();
    ring.node(1).wait_for_table_timeout("sys", "cold_log", Duration::from_secs(10)).unwrap();
    ring.node(2).wait_for_table_timeout("sys", "cold_log", Duration::from_secs(10)).unwrap();
    for chunk in (0..1500).collect::<Vec<i32>>().chunks(500) {
        let vals: Vec<String> = chunk.iter().map(|id| format!("({id}, {})", id * 10)).collect();
        ring.execute(0, &format!("insert into cold_log values {}", vals.join(", "))).unwrap();
    }
    load_dataset(&ring);

    // A skewed mix: the first tables soak up all the interest (and a
    // routed INSERT stream keeps a created table hot), the rest go
    // stone cold.
    ring.execute(0, "create table hot_log (id int, v int)").unwrap();
    ring.node(1).wait_for_table_timeout("sys", "hot_log", Duration::from_secs(10)).unwrap();
    ring.node(2).wait_for_table_timeout("sys", "hot_log", Duration::from_secs(10)).unwrap();
    for i in 0..30 {
        let t = [0, 0, 0, 1, 1, 2][i % 6]; // zipf-ish: t0 hottest
        let rs = ring.execute(i % 3, &format!("select count(*) from t{t}")).unwrap();
        assert_eq!(rs.cell(0, 0), Val::Lng(ROWS as i64), "hot read on t{t}");
        ring.execute(1, &format!("insert into hot_log values ({i}, {})", i * 2)).unwrap();
    }

    // The budget is 5× oversubscribed: cold fragments must spill.
    // Victim selection is coldest-first with ties broken by ascending
    // fragment id, so the first untouched tables (t3..t5) are the
    // guaranteed victims — wait for them on every node (each node owns
    // one fragment of every table), so the queries below genuinely hit
    // evicted data.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let cold_spilled = (0..3).all(|i| {
            let snap = ring.node(i).hotset().unwrap();
            (3..6).all(|t| {
                snap.rows.iter().any(|r| r.table == format!("sys.t{t}") && r.state == "spilled")
            })
        });
        if cold_spilled {
            break;
        }
        assert!(Instant::now() < deadline, "the cold tables never spilled");
        std::thread::sleep(Duration::from_millis(25));
    }
    assert!(summed(&ring, |s| s.loi_evictions) > 0, "spills must be counted");

    // `dc.hotset` (same SQL path a client uses) shows spilled fragments.
    let rs = ring.execute(0, "select bat, state, loi from dc.hotset").unwrap();
    let saw_spilled = (0..rs.row_count()).any(|r| rs.cell(r, 1) == Val::Str("spilled".into()));
    assert!(saw_spilled, "dc.hotset never reported a spilled fragment");

    // Query an evicted (cold) table from every node: the pins block, the
    // fragments are re-admitted from the owners' disks, and the typed
    // results are exact — the dataset answers as if it were resident.
    let before = summed(&ring, |s| s.loi_readmits);
    for (i, t) in [(0usize, 3), (1, 4), (2, 5)] {
        let rs = ring.execute(i, &format!("select a, b from t{t} where k = 123")).unwrap();
        assert_eq!(rs.row_count(), 1, "t{t} lost rows across spill");
        assert_eq!(rs.cell(0, 0), Val::Int(123 * 3 + 1), "t{t} column a corrupted");
        assert_eq!(rs.cell(0, 1), Val::Int(123 % 7), "t{t} column b corrupted");
    }
    assert!(
        summed(&ring, |s| s.loi_readmits) > before,
        "cold queries answered without any re-admission"
    );

    // Writes against evicted fragments re-admit first, then apply: the
    // oversized cold_log takes a routed INSERT while (at least partly)
    // spilled.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let snap = ring.node(0).hotset().unwrap();
        if snap.rows.iter().any(|r| r.table == "sys.cold_log" && r.state == "spilled") {
            break;
        }
        assert!(Instant::now() < deadline, "oversized cold_log never spilled: {:?}", snap.rows);
        std::thread::sleep(Duration::from_millis(25));
    }
    // cold_log was created, then INSERTed: that spill was dirty, and it
    // wrote its own version's file instead of forcing a checkpoint.
    assert_eq!(summed(&ring, |s| s.checkpoints), 0, "a dirty spill forced a checkpoint");
    ring.execute(1, "insert into cold_log values (9999, 42)").unwrap();
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let rs = ring.execute(0, "select v from cold_log where id = 9999").unwrap();
        if rs.row_count() == 1 && rs.cell(0, 0) == Val::Int(42) {
            break;
        }
        assert!(Instant::now() < deadline, "routed append to a cold table never landed");
        std::thread::sleep(Duration::from_millis(25));
    }
    let rs = ring.execute(2, "select v from cold_log where id = 1").unwrap();
    assert_eq!(rs.cell(0, 0), Val::Int(10), "pre-spill cold_log rows survived re-admission");

    // The whole mechanism is visible in `dc.stats`.
    let rs = ring.execute(0, "select name, value from dc.stats").unwrap();
    let names: Vec<String> = (0..rs.row_count())
        .map(|r| match rs.cell(r, 0) {
            Val::Str(n) => n,
            other => panic!("unexpected dc.stats cell type {other:?}"),
        })
        .collect();
    for want in ["loi_evictions", "loi_readmits", "obs_hotset_resident_bytes"] {
        assert!(names.iter().any(|n| n == want), "{want} missing from dc.stats: {names:?}");
    }
}

/// Restarting owners after load and spill — before any checkpoint has
/// run — recovers their state: each bulk load wrote its fragment's
/// version-0 file and logged a record naming it, so the spills were
/// clean, nothing forced a checkpoint, and a fresh process answers every
/// table exactly over the formerly-spilled data.
#[test]
fn owner_restart_recovers_spilled_fragments() {
    let dir = scratch("restart");
    {
        let ring = budget_ring(&dir);
        load_dataset(&ring);
        // Wait until the oversubscribed nodes have spilled, so the
        // shutdown happens with real on-disk-only fragments.
        let deadline = Instant::now() + Duration::from_secs(30);
        while summed(&ring, |s| s.loi_evictions) == 0 {
            assert!(Instant::now() < deadline, "no fragment ever spilled");
            std::thread::sleep(Duration::from_millis(25));
        }
        assert_eq!(summed(&ring, |s| s.checkpoints), 0, "a spill of loaded data checkpointed");
        ring.shutdown();
    }

    // Same dirs, same budget: recovery reloads each fragment from the file
    // its load logged and re-enforces the budget. The *tables* gossip is in
    // each node's catalog, so queries work from any node immediately.
    let ring = budget_ring(&dir);
    let (sum_a, sum_b): (i64, i64) =
        (0..ROWS as i64).fold((0, 0), |(a, b), k| (a + 3 * k + 1, b + k % 7));
    for t in 0..TABLES {
        let rs =
            ring.execute(t % 3, &format!("select count(*), sum(a), sum(b) from t{t}")).unwrap();
        let row: Vec<Option<i64>> = (0..3).map(|c| rs.cell(0, c).as_i64()).collect();
        assert_eq!(row, [Some(ROWS as i64), Some(sum_a), Some(sum_b)], "t{t} across restart");
    }
    let rs = ring.execute(1, "select a from t7 where k = 321").unwrap();
    assert_eq!(rs.cell(0, 0), Val::Int(321 * 3 + 1), "t7 corrupted across restart");
    std::fs::remove_dir_all(&dir).ok();
}

/// Budgeted write traffic, measured rather than asserted: one-row
/// INSERTs into a two-column table larger than its owner's budget, while
/// another node reads a small table the same owner holds. Every INSERT
/// reloads the spilled columns and every spill after it writes their new
/// version. Prints INSERT and read latencies and the owner's checkpoints
/// and spills. Sizes come from the environment (`SPILL_ROWS`,
/// `SPILL_INSERTS`, `SPILL_BUDGET_MIB`, `SPILL_PACE_MS`); run with
/// `cargo test --release --test hotset -- --ignored --nocapture`.
#[test]
#[ignore = "a measurement, not a check"]
fn budgeted_write_traffic() {
    let env = |k: &str, default: u64| std::env::var(k).map_or(default, |v| v.parse().unwrap());
    let (rows, inserts) = (env("SPILL_ROWS", 1 << 20) as i32, env("SPILL_INSERTS", 100) as i32);
    let pace = Duration::from_millis(env("SPILL_PACE_MS", 0));
    let dir = scratch("traffic");
    let ring = Ring::builder(3)
        .data_dir_root(&dir)
        .fsync(FsyncPolicy::Off)
        .mem_budget(env("SPILL_BUDGET_MIB", 4) << 20)
        .build();
    let (ids, vs): (Vec<i32>, Vec<i32>) = (0..rows).map(|i| (i, i * 10)).unzip();
    let cold = vec![("id", Column::from(ids)), ("v", Column::from(vs))];
    ring.node(0).load_table("sys", "cold_log", cold).unwrap();
    ring.node(0).load_table("sys", "hot", vec![("k", Column::from(vec![7; 4096]))]).unwrap();
    for (node, t) in [(1, "cold_log"), (2, "hot")] {
        ring.node(node).wait_for_table_timeout("sys", t, Duration::from_secs(30)).unwrap();
    }
    let snap = || ring.node(0).hotset().unwrap();
    while !snap().rows.iter().any(|r| r.table == "sys.cold_log" && r.state == "spilled") {
        std::thread::sleep(Duration::from_millis(10));
    }
    let before = ring.node(0).stats().unwrap();
    let done = std::sync::atomic::AtomicBool::new(false);
    let micros = |t: Instant| t.elapsed().as_micros() as u64;
    let (mut writes, mut reads) = (Vec::new(), Vec::new());
    std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let mut lat = Vec::new();
            while !done.load(std::sync::atomic::Ordering::Relaxed) {
                let t = Instant::now();
                let rs = ring.execute(2, "select count(*) from hot").unwrap();
                assert_eq!(rs.cell(0, 0), Val::Lng(4096));
                lat.push(micros(t));
            }
            lat
        });
        for i in 0..inserts {
            let t = Instant::now();
            ring.execute(1, &format!("insert into cold_log values ({}, {i})", rows + i)).unwrap();
            writes.push(micros(t));
            std::thread::sleep(pace);
        }
        done.store(true, std::sync::atomic::Ordering::Relaxed);
        reads = reader.join().unwrap();
    });
    let rs = ring.execute(0, "select count(*) from cold_log").unwrap();
    assert_eq!(rs.cell(0, 0), Val::Lng((rows + inserts) as i64));
    let after = ring.node(0).stats().unwrap();
    let spill = ring.node(0).obs().histogram("spill_us").snapshot();
    let pct = |v: &mut Vec<u64>, p: f64| {
        v.sort_unstable();
        v[((v.len() - 1) as f64 * p).round() as usize]
    };
    println!(
        "insert_us p50 {} p99 {} max {} | read_us n {} p50 {} p99 {} max {} | \
         checkpoints {} spills {} | dirty spill_us n {} p50 {} max {}",
        pct(&mut writes, 0.5),
        pct(&mut writes, 0.99),
        pct(&mut writes, 1.0),
        reads.len(),
        pct(&mut reads, 0.5),
        pct(&mut reads, 0.99),
        pct(&mut reads, 1.0),
        after.checkpoints - before.checkpoints,
        after.loi_evictions - before.loi_evictions,
        spill.count,
        spill.p50(),
        spill.max,
    );
    ring.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
