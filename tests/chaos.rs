//! Seeded chaos acceptance: a 3-node ring where every node's transport
//! is wrapped in a [`FaultTransport`] injecting deterministic faults —
//! drops, duplicates, stalls, severed edges, scripted partitions — while
//! the engine's hardening (bounded ack timeouts, backoff retries,
//! owner-side idempotent dedup) keeps acknowledged statements exactly
//! right.
//!
//! Every scenario is seeded and reproducible: the seed is printed at the
//! start of each run, so a failure names the world it happened in. The
//! scenarios close with the same ring-wide consistency oracle the
//! concurrency suite uses (`tests/support/`): catalog replicas converge
//! and the acknowledged final state is visible from every node.
//!
//! The `#[ignore]`d soak runs the random mix under a fresh (or
//! `CHAOS_SEED`-pinned) seed: `cargo test --test chaos -- --ignored`.

mod support;

use batstore::ops::CmpOp;
use batstore::{RowPredicate, Val};
use datacyclotron::msg::{MutOp, Mutation, RoutedMsg, RoutedStmt};
use datacyclotron::transport::mem;
use datacyclotron::{
    BatHeader, DataDir, DcConfig, DcError, DcMsg, Edge, FaultEvent, FaultPlan, FaultTransport,
    FsyncPolicy, NodeId, NodeOptions, Ring, RingNode, RingTransport,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-attempt ack wait under chaos; with 4 retries the whole budget is
/// 250ms × (1+2+4+8+16) = 7.75s, well inside the 30s pin timeout.
const ACK_TIMEOUT: Duration = Duration::from_millis(250);
const ACK_RETRIES: u32 = 4;

struct ChaosRing {
    nodes: Vec<Arc<RingNode>>,
    faults: Vec<Arc<FaultTransport>>,
}

/// A 3-node in-process ring with a fault wrapper on every node's
/// transport. `plan_of(node_seed)` builds each node's plan from a seed
/// derived deterministically from the run seed.
fn chaos_ring(seed: u64, plan_of: impl Fn(u64) -> FaultPlan) -> ChaosRing {
    chaos_ring_with(seed, plan_of, |_, _| {})
}

/// Like [`chaos_ring`], with a per-node [`NodeOptions`] hook — the
/// hot-set scenarios give one node a data dir and a tiny memory budget.
fn chaos_ring_with(
    seed: u64,
    plan_of: impl Fn(u64) -> FaultPlan,
    customize: impl Fn(usize, &mut NodeOptions),
) -> ChaosRing {
    eprintln!("chaos seed: {seed:#x}");
    let mut nodes = Vec::new();
    let mut faults = Vec::new();
    for (i, inner) in mem::ring(3).into_iter().enumerate() {
        let node_seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1));
        let ft = Arc::new(FaultTransport::new(Arc::new(inner), plan_of(node_seed)));
        faults.push(Arc::clone(&ft));
        let mut opts = NodeOptions {
            cfg: DcConfig {
                load_interval: netsim::SimDuration::from_millis(5),
                resend_timeout: netsim::SimDuration::from_millis(200),
                // Scaled down with `resend_timeout`: a fragment frame
                // the plan drops is reloaded by its owner after 2 s, not
                // the default 15 s — at which two drops in one pin's
                // wait add up to the 30 s pin timeout, to the tick.
                lost_after: netsim::SimDuration::from_secs(2),
                ..DcConfig::default()
            },
            pin_timeout: Duration::from_secs(30),
            ack_timeout: ACK_TIMEOUT,
            ack_retries: ACK_RETRIES,
            ..NodeOptions::default()
        };
        customize(i, &mut opts);
        nodes.push(Arc::new(RingNode::spawn(NodeId(i as u16), ft as Arc<dyn RingTransport>, opts)));
    }
    ChaosRing { nodes, faults }
}

impl ChaosRing {
    /// Node `i`'s counter `name`.
    fn count(&self, i: usize, name: &str) -> u64 {
        self.nodes[i].counter(name).unwrap_or_else(|| panic!("no counter {name}"))
    }

    /// Poll until node `i`'s counter `name` is non-zero: a count an owner
    /// bumps after the ack the caller saw (a replay it deduplicates).
    fn await_count(&self, i: usize, name: &str) {
        let deadline = Instant::now() + Duration::from_secs(20);
        while self.count(i, name) == 0 {
            assert!(Instant::now() < deadline, "node {i}: {name} stayed 0");
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    fn set_chaos(&self, on: bool) {
        for f in &self.faults {
            f.set_chaos(on);
        }
    }

    /// Create `acct` on node 0 (the owner) with the wrappers calmed, so
    /// lost DDL gossip can't masquerade as a workload failure, and let
    /// the initial traffic settle.
    fn setup_acct(&self) {
        self.set_chaos(false);
        self.nodes[0].execute("create table acct (id int, bal int)").unwrap();
        for n in &self.nodes {
            n.wait_for_table_timeout("sys", "acct", Duration::from_secs(10)).unwrap();
        }
        self.set_chaos(true);
    }

    /// Poll until every node answers `sql` with exactly `want` rows of
    /// `(id, bal)` — acknowledged state must become visible ring-wide.
    fn await_rows(&self, sql: &str, want: &[(i32, i32)], window: Duration) {
        for (i, n) in self.nodes.iter().enumerate() {
            let deadline = Instant::now() + window;
            loop {
                let got: Option<Vec<(i32, i32)>> = n.execute(sql).ok().map(|rs| {
                    (0..rs.row_count())
                        .map(|r| match (rs.cell(r, 0), rs.cell(r, 1)) {
                            (Val::Int(id), Val::Int(bal)) => (id, bal),
                            other => panic!("node {i}: unexpected cell types {other:?}"),
                        })
                        .collect()
                });
                if got.as_deref() == Some(want) {
                    break;
                }
                assert!(
                    Instant::now() < deadline,
                    "node {i} never converged on `{sql}`: got {got:?}, want {want:?}"
                );
                std::thread::sleep(Duration::from_millis(100));
            }
        }
    }
}

/// Let in-flight gossip from setup finish its ring cycle, so explicit
/// drop/duplicate counters hit the message the scenario aims at.
fn settle() {
    std::thread::sleep(Duration::from_millis(300));
}

/// Fault class 1 — drop: a routed mutation whose frames are swallowed is
/// retried by the origin until the owner's ack comes back, and it
/// applies exactly once.
#[test]
fn dropped_mutation_is_retried_and_applies_once() {
    let ring = chaos_ring(0xD201, FaultPlan::quiet);
    ring.setup_acct();
    let rs = ring.nodes[0].execute("insert into acct values (1, 0)").unwrap();
    assert_eq!(rs.affected, Some(1));
    settle();

    // Swallow the next two sends on the origin's data edge: the first
    // attempt and (at least) one retry.
    ring.faults[1].drop_next(Edge::Data, 2);
    let rs = ring.nodes[1].execute("update acct set bal = 7 where id = 1").unwrap();
    assert_eq!(rs.affected, Some(1), "retried mutation must ack exactly one row");

    assert!(ring.count(1, "retries") >= 1, "origin never retried");
    assert!(ring.faults[1].stats().drops() >= 1, "no drop was injected");
    ring.await_rows("select id, bal from acct order by id", &[(1, 7)], Duration::from_secs(20));
}

/// Fault class 2 — stall: a held edge delays delivery (the statement
/// blocks, then succeeds) and the retries that pile up behind the stall
/// are deduplicated at the owner; order survives.
#[test]
fn stalled_edge_delays_but_dedup_keeps_state_exact() {
    let ring = chaos_ring(0xD202, FaultPlan::quiet);
    ring.setup_acct();
    let rs = ring.nodes[0].execute("insert into acct values (1, 0)").unwrap();
    assert_eq!(rs.affected, Some(1));
    settle();

    ring.faults[1].stall(Edge::Data, Duration::from_millis(600));
    let t0 = Instant::now();
    let rs = ring.nodes[1].execute("update acct set bal = 5 where id = 1").unwrap();
    assert_eq!(rs.affected, Some(1));
    assert!(
        t0.elapsed() >= Duration::from_millis(400),
        "stall did not delay the ack: {:?}",
        t0.elapsed()
    );
    assert!(ring.faults[1].stats().stalls() >= 1, "no stall was injected");
    // The 250ms retry fired into the 600ms stall, so the owner saw the
    // statement at least twice and must deduplicate the replay — which
    // it handles just after the first delivery, whose ack may reach the
    // origin first.
    ring.await_count(0, "mutations_deduped");

    // A follow-up mutation lands after the stalled batch: final state is
    // the *second* write, i.e. order was preserved.
    let rs = ring.nodes[1].execute("update acct set bal = 9 where id = 1").unwrap();
    assert_eq!(rs.affected, Some(1));
    ring.await_rows("select id, bal from acct order by id", &[(1, 9)], Duration::from_secs(20));
}

/// Fault class 3 — duplicate: a routed INSERT delivered twice must not
/// append twice; the owner's statement-id dedup replays the first
/// outcome instead.
#[test]
fn duplicated_append_applies_once() {
    let ring = chaos_ring(0xD203, FaultPlan::quiet);
    ring.setup_acct();
    settle();

    ring.faults[1].duplicate_next(Edge::Data, 1);
    let rs = ring.nodes[1].execute("insert into acct values (10, 3)").unwrap();
    assert_eq!(rs.affected, Some(1));

    assert_eq!(ring.faults[1].stats().duplicates(), 1, "no duplicate was injected");
    ring.await_count(0, "mutations_deduped");
    // Exactly one row — a double-applied append would show two.
    ring.await_rows("select id, bal from acct order by id", &[(10, 3)], Duration::from_secs(20));
}

/// Fault class 4 — sever: a routed mutation whose owner edge is severed
/// returns a *classified* error within the retry budget (no hang), and
/// once the edge heals the ring converges again. This is the acceptance
/// criterion for the engine hardening.
#[test]
fn severed_owner_edge_fails_fast_and_heals() {
    let ring = chaos_ring(0xD204, FaultPlan::quiet);
    ring.setup_acct();
    let rs = ring.nodes[0].execute("insert into acct values (1, 0)").unwrap();
    assert_eq!(rs.affected, Some(1));
    settle();

    ring.faults[1].sever(Edge::Data);
    let t0 = Instant::now();
    let err = ring.nodes[1]
        .execute("update acct set bal = 3 where id = 1")
        .expect_err("mutation across a severed edge cannot succeed");
    let elapsed = t0.elapsed();
    assert!(
        elapsed < Duration::from_secs(15),
        "severed-edge mutation hung for {elapsed:?} instead of failing inside the retry budget"
    );
    assert!(matches!(err, DcError::Ring(_)), "expected a ring-classified error, got {err:?}");
    assert!(err.message().contains("timed out"), "unhelpful error: {err}");
    assert!(ring.count(1, "timeouts") >= 1, "timeout not counted");
    assert!(ring.count(1, "retries") >= 1, "retries not counted");
    assert!(ring.faults[1].stats().severed_sends() >= 1, "sever never bit a send");

    // Heal and re-issue: the statement succeeds and the ring converges.
    ring.faults[1].heal(Edge::Data);
    let rs = ring.nodes[1].execute("update acct set bal = 3 where id = 1").unwrap();
    assert_eq!(rs.affected, Some(1));
    ring.await_rows("select id, bal from acct order by id", &[(1, 3)], Duration::from_secs(20));
    support::await_catalog_convergence(&ring.nodes, Duration::from_secs(20));
}

/// Fault class 5 — scripted partition: the data edge severs at +0ms and
/// heals at +1200ms on a schedule inside the wrapper. A mutation issued
/// during the partition rides the retry backoff across the heal and
/// succeeds without the caller doing anything.
#[test]
fn scripted_partition_heals_inside_the_retry_budget() {
    let ring = chaos_ring(0xD205, FaultPlan::quiet);
    ring.setup_acct();
    let rs = ring.nodes[0].execute("insert into acct values (1, 0)").unwrap();
    assert_eq!(rs.affected, Some(1));
    settle();

    ring.faults[1].script_at(Duration::ZERO, FaultEvent::Sever(Edge::Data));
    ring.faults[1].script_at(Duration::from_millis(1200), FaultEvent::Heal(Edge::Data));
    let t0 = Instant::now();
    let rs = ring.nodes[1].execute("update acct set bal = 4 where id = 1").unwrap();
    assert_eq!(rs.affected, Some(1), "mutation must survive the scripted partition");
    assert!(
        t0.elapsed() >= Duration::from_millis(1000),
        "partition did not delay the statement: {:?}",
        t0.elapsed()
    );
    assert!(ring.count(1, "retries") >= 1, "no retry crossed the partition");
    assert!(ring.faults[1].stats().severed_sends() >= 1, "partition never bit a send");
    ring.await_rows("select id, bal from acct order by id", &[(1, 4)], Duration::from_secs(20));
}

/// Regression: the owner-side dedup cache keys on the origin's boot
/// epoch, not just `(origin, statement id)`. Statement ids restart at 1
/// on every spawn, so a restarted origin reuses ids a surviving owner
/// may still hold cached — without the epoch in the key, the fresh
/// statements would be answered from the stale cache and silently never
/// applied (an acknowledged-but-lost write). Forged frames sent through
/// node 1's transport handle simulate the two incarnations
/// deterministically.
#[test]
fn restarted_origin_reusing_statement_ids_is_not_deduped() {
    let ring = chaos_ring(0xD206, FaultPlan::quiet);
    ring.setup_acct();
    let rs = ring.nodes[0].execute("insert into acct values (1, 0)").unwrap();
    assert_eq!(rs.affected, Some(1));
    settle();

    let forged = |epoch: u64, bal: i32| {
        DcMsg::Routed(RoutedMsg {
            origin: NodeId(1),
            epoch,
            id: 999,
            settled_below: 999,
            stmt: RoutedStmt::Mutate(Mutation {
                schema: "sys".into(),
                table: "acct".into(),
                op: MutOp::Update(vec![("bal".into(), Val::Int(bal))]),
                preds: vec![RowPredicate::Cmp {
                    column: "id".into(),
                    op: CmpOp::Eq,
                    value: Val::Int(1),
                }],
            }),
        })
    };
    // "First incarnation" of node 1 spends statement id 999 at the
    // owner (the ack circulates back to node 1, whose live incarnation
    // ignores the foreign epoch)...
    ring.faults[1].send_data(forged(0xA, 111)).unwrap();
    ring.await_rows("select id, bal from acct order by id", &[(1, 111)], Duration::from_secs(20));
    // ...and its "restarted" self reuses the id under a fresh epoch.
    // The owner must apply it, not replay the cached 111 result.
    ring.faults[1].send_data(forged(0xB, 222)).unwrap();
    ring.await_rows("select id, bal from acct order by id", &[(1, 222)], Duration::from_secs(20));
    assert_eq!(ring.count(0, "mutations_deduped"), 0, "fresh-epoch statement was deduped");

    // A true duplicate — same epoch, same id — still dedups.
    ring.faults[1].send_data(forged(0xB, 222)).unwrap();
    ring.await_count(0, "mutations_deduped");
}

/// A forged `Bat` frame whose payload is not `DCB1` at all reaches a node
/// with a `SELECT` blocked on that fragment. The event loop hands the
/// payload on unopened (it neither decodes nor validates it), so it is
/// the pinning query that finds out: it must fail with an error naming
/// the fragment and the codec's reason — not panic, not hang, and not
/// leave the bad copy behind for the next statement.
#[test]
fn corrupt_fragment_payload_fails_the_select_and_nothing_else() {
    let ring = chaos_ring(0xBADB, FaultPlan::quiet);
    ring.setup_acct();
    ring.nodes[0].execute("insert into acct values (1, 10), (2, 20)").unwrap();
    settle();

    // Node 1's requests cannot reach the owner (node 0), so its SELECT
    // blocks in `pin` until something flows past...
    ring.faults[1].sever(Edge::Request);
    let reader = {
        let node = Arc::clone(&ring.nodes[1]);
        std::thread::spawn(move || node.execute("select id, bal from acct order by id"))
    };
    // ...and what flows past, sent into node 1 over node 0's data edge,
    // claims to be the table's fragments.
    let frags: Vec<_> = ["id", "bal"]
        .iter()
        .map(|col| ring.nodes[1].ring_catalog().lookup("sys", "acct", col).expect("gossiped"))
        .collect();
    let deadline = Instant::now() + Duration::from_secs(20);
    while !reader.is_finished() {
        assert!(Instant::now() < deadline, "the SELECT never met the forged fragment");
        for f in &frags {
            let garbage = bytes::Bytes::from_static(b"XXXX this is not a BAT");
            let mut header = BatHeader::fresh(NodeId(0), f.bat, garbage.len() as u64);
            header.version = f.version;
            ring.faults[0].send_data(DcMsg::Bat { header, payload: Some(garbage) }).unwrap();
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let err = reader.join().expect("no panic on the query thread").unwrap_err();
    let text = err.to_string();
    assert!(
        frags.iter().any(|f| text.contains(&format!("fragment {}", f.bat))),
        "error does not name the fragment: {text}"
    );
    assert!(text.contains("bad magic"), "error does not carry the codec's reason: {text}");

    // The edge heals; the very next statement on that node is answered
    // from the real fragments, and every node still agrees.
    ring.faults[1].heal(Edge::Request);
    let rs = ring.nodes[1].execute("select id, bal from acct order by id").unwrap();
    assert_eq!(rs.row_count(), 2);
    assert_eq!((rs.cell(0, 1), rs.cell(1, 1)), (Val::Int(10), Val::Int(20)));
    ring.await_rows(
        "select id, bal from acct order by id",
        &[(1, 10), (2, 20)],
        Duration::from_secs(20),
    );
}

/// Hot-set chaos: a spilled fragment comes back on the plain request
/// path (Fig. 3 outcome 4 — there is no other), so what protects a pin on
/// it is what protects any pin: `resend` and the owner's lost-BAT clock.
/// Node 0 is durable with a budget, so the `id` fragment it unloads
/// really leaves RAM; the frame that carries the re-admitted payload
/// toward the requester is dropped. The pin is served all the same, after
/// a resend, and the owner reloaded the file once — the second load finds
/// the payload still resident.
#[test]
fn dropped_first_payload_of_a_readmitted_fragment_is_resent() {
    let dir = std::env::temp_dir().join(format!("dc_chaos_readmit_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let ring = chaos_ring_with(0xD209, FaultPlan::quiet, |i, opts| {
        if i == 0 {
            opts.data_dir = Some(DataDir::new(&dir).fsync(FsyncPolicy::Off));
            opts.mem_budget = Some(1 << 20);
        }
    });
    ring.setup_acct();
    let rs = ring.nodes[0].execute("insert into acct values (1, 10), (2, 20)").unwrap();
    assert_eq!(rs.affected, Some(2));
    // A statement that pins one fragment, `id`, and no other: a
    // projection, which node 1 pulls off the ring (an aggregate would run
    // at the owner).
    let total = |node: usize| {
        let rs = ring.nodes[node].execute("select id from acct").unwrap();
        Val::Lng((0..rs.row_count()).map(|r| rs.cell(r, 0).as_i64().unwrap()).sum())
    };

    // One read puts `id` on the ring; unrenewed, its LOI decays, the
    // owner unloads it and — a budgeted node — spills it to its file.
    assert_eq!(total(1), Val::Lng(3));
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let snap = ring.nodes[0].hotset().unwrap();
        if snap.rows.iter().any(|r| r.state == "spilled" && r.table == "sys.acct") {
            break;
        }
        assert!(Instant::now() < deadline, "acct.id never spilled: {snap:?}");
        std::thread::sleep(Duration::from_millis(25));
    }
    settle();
    let counts = || {
        let owner = ["bats_lost", "bats_loaded", "loi_readmits"].map(|c| ring.count(0, c));
        (owner, ring.count(1, "requests_resent"))
    };
    let (base, resent) = counts();

    // The owner's next data frame is the re-admitted fragment on its way
    // to node 1, its successor.
    ring.faults[0].drop_next(Edge::Data, 1);
    assert_eq!(total(1), Val::Lng(3), "served after the resend");
    assert_eq!(ring.faults[0].stats().drops(), 1);
    let (owner, resent_after) = counts();
    assert!(resent_after > resent, "the requester never re-sent");
    // The dropped frame was the BAT: loaded, lost, loaded again — but
    // reloaded from disk once.
    assert_eq!(owner, [base[0] + 1, base[1] + 2, base[2] + 1]);
    std::fs::remove_dir_all(&dir).ok();
}

/// A single-table aggregate issued away from its table runs at the owner,
/// and only its answer comes back. When the owner's ack is dropped the
/// origin resends, the owner runs the read again (reads are not
/// deduplicated), and the answer is cell for cell the single-node one.
#[test]
fn pushed_select_whose_ack_is_dropped_is_resent_and_answers_exactly() {
    let data = dc_workloads::tpch::sql::generate(1.0, 42);
    let single = Ring::builder(1).build();
    single.load_table("sys", "lineitem", data.lineitem.clone()).unwrap();
    let expected = single.execute(0, dc_workloads::tpch::sql::Q6).unwrap();
    single.shutdown();

    let ring = chaos_ring(0xD20A, FaultPlan::quiet);
    ring.set_chaos(false);
    ring.nodes[0].load_table("sys", "lineitem", data.lineitem).unwrap();
    for n in &ring.nodes {
        n.wait_for_table_timeout("sys", "lineitem", Duration::from_secs(10)).unwrap();
    }
    ring.set_chaos(true);
    settle();

    // Node 0's next data frame is the ack on its way to node 1.
    ring.faults[0].drop_next(Edge::Data, 1);
    let got = ring.nodes[1].execute(dc_workloads::tpch::sql::Q6).unwrap();
    assert_eq!(got, expected, "the pushed Q6 answers as one node does");
    assert_eq!(ring.faults[0].stats().drops(), 1, "no ack was dropped");
    assert!(ring.count(1, "retries") >= 1, "the origin never resent");
    assert_eq!(ring.count(1, "selects_pushed"), 1, "one statement, however many sends");
    for (i, n) in ring.nodes.iter().enumerate() {
        assert_eq!(n.counter("ring_query_bytes_moved"), Some(0), "node {i} pulled a fragment");
    }
}

/// A pushed SELECT that runs at its owner for many times the origin's
/// whole retry budget still answers, and runs once: each resend finds it
/// running, is answered so, and starts the budget over.
#[test]
fn pushed_select_running_past_the_ack_budget_runs_once_and_answers() {
    // 5ms × (1+2+4) = 35ms of budget; the aggregate over two million
    // rows runs for several times that at the owner.
    const BUDGET: Duration = Duration::from_millis(35);
    let ring = chaos_ring_with(0xD20C, FaultPlan::quiet, |_, opts| {
        opts.ack_timeout = Duration::from_millis(5);
        opts.ack_retries = 2;
    });
    ring.set_chaos(false);
    let rows = 0..2_000_000i32;
    let g = batstore::Column::from(rows.clone().map(|i| i % 3).collect::<Vec<_>>());
    let v = batstore::Column::from(rows.clone().map(|i| i % 1_000).collect::<Vec<_>>());
    ring.nodes[0].load_table("sys", "big", vec![("g", g), ("v", v)]).unwrap();
    for n in &ring.nodes {
        n.wait_for_table_timeout("sys", "big", Duration::from_secs(10)).unwrap();
    }
    // Per group: count, sum and max of the values above 1.
    let mut want: Vec<[i64; 4]> = (0..3).map(|g| [g, 0, 0, 0]).collect();
    for (g, v) in rows.map(|i| (i as usize % 3, i as i64 % 1_000)).filter(|&(_, v)| v > 1) {
        want[g][1] += 1;
        want[g][2] += v;
        want[g][3] = want[g][3].max(v);
    }

    let sql = "select g, count(*), sum(v), max(v) from big where v > 1 group by g";
    let t0 = Instant::now();
    let rs = ring.nodes[1].execute(sql).unwrap();
    let took = t0.elapsed();
    let mut got: Vec<[i64; 4]> = (0..rs.row_count())
        .map(|r| [0, 1, 2, 3].map(|c| rs.cell(r, c).as_i64().unwrap()))
        .collect();
    got.sort_unstable();
    assert_eq!(got, want, "the pushed aggregate's answer");
    assert!(took > BUDGET, "the run ({took:?}) fit in one budget: the test proves nothing");
    let events = |i: usize, event: &str| {
        ring.nodes[i].obs().trace_events().into_iter().filter(|e| e.event == event).count()
    };
    assert_eq!(events(0, "apply"), 1, "the owner ran the statement more than once");
    assert!(events(0, "dedup") >= 1, "no resend reached the owner while it ran");
    assert!(events(1, "running") >= 1, "the origin never heard the owner was running");
    assert_eq!(ring.count(1, "timeouts"), 0);
    assert_eq!(ring.count(1, "selects_pushed"), 1);
}

/// A pushed SELECT whose owner edge is severed fails within the ack
/// budget with a classified ring error — one that does not wonder whether
/// a read applied — and answers once the edge heals.
#[test]
fn severed_owner_edge_fails_a_pushed_select_fast_and_heals() {
    // One resend: a budget of 250ms × (1+2), so the suite does not wait
    // out the full one the severed mutation test already covers.
    let ring = chaos_ring_with(0xD20B, FaultPlan::quiet, |_, opts| opts.ack_retries = 1);
    ring.setup_acct();
    let rs = ring.nodes[0].execute("insert into acct values (1, 10), (2, 20)").unwrap();
    assert_eq!(rs.affected, Some(2));
    settle();

    let sql = "select count(*), sum(bal) from acct";
    ring.faults[1].sever(Edge::Data);
    let t0 = Instant::now();
    let err = ring.nodes[1].execute(sql).expect_err("no answer crosses a severed edge");
    let elapsed = t0.elapsed();
    assert!(elapsed < Duration::from_secs(5), "the pushed SELECT hung for {elapsed:?}");
    assert!(matches!(err, DcError::Ring(_)), "expected a ring-classified error, got {err:?}");
    assert!(err.message().contains("select on sys.acct timed out"), "unhelpful error: {err}");
    assert!(!err.message().contains("applied"), "a read cannot have half-happened: {err}");
    assert!(ring.count(1, "timeouts") >= 1, "timeout not counted");
    assert_eq!(ring.count(1, "mutations_failed"), 0, "a read is no failed write");

    ring.faults[1].heal(Edge::Data);
    let rs = ring.nodes[1].execute(sql).unwrap();
    assert_eq!((rs.cell(0, 0), rs.cell(0, 1)), (Val::Lng(2), Val::Lng(30)));
    assert_eq!(ring.count(1, "selects_pushed"), 2);
}

/// A pushed join whose build side stalls. Q3 asked at node 1 (customer)
/// runs at node 2 (lineitem), which pulls orders from node 0 across node
/// 0's data edge — the edge stalled here, which the statement's own route
/// (1 → 2) does not cross. Held for less than the origin's retry budget,
/// the run waits the stall out and answers as one node does, once; held
/// past the budget, the statement fails classified instead of hanging,
/// and once the edge flows again the same statement answers.
#[test]
fn pushed_join_whose_build_side_stalls_answers_once_or_fails_classified() {
    use dc_workloads::tpch::sql as tpch;
    let data = tpch::generate(1.0, 42);
    let tables =
        [("customer", data.customer), ("orders", data.orders), ("lineitem", data.lineitem)];
    let single = Ring::builder(1).build();
    for (table, cols) in &tables {
        single.load_table("sys", table, cols.clone()).unwrap();
    }
    let expected = single.execute(0, tpch::Q3).unwrap();
    single.shutdown();
    let q3_ring = |ack_retries| {
        let ring =
            chaos_ring_with(0xD20D, FaultPlan::quiet, |_, opts| opts.ack_retries = ack_retries);
        ring.set_chaos(false);
        for ((table, cols), owner) in tables.iter().zip([1, 0, 2]) {
            ring.nodes[owner].load_table("sys", table, cols.clone()).unwrap();
        }
        for n in &ring.nodes {
            for (table, _) in &tables {
                n.wait_for_table_timeout("sys", table, Duration::from_secs(10)).unwrap();
            }
        }
        settle();
        ring
    };
    let events = |ring: &ChaosRing, i: usize, event: &str| {
        ring.nodes[i].obs().trace_events().into_iter().filter(|e| e.event == event).count()
    };

    // 600 ms against a 7.75 s budget.
    let ring = q3_ring(ACK_RETRIES);
    let stall = Duration::from_millis(600);
    ring.faults[0].stall(Edge::Data, stall);
    let t0 = Instant::now();
    let got = ring.nodes[1].execute(tpch::Q3).unwrap();
    let took = t0.elapsed();
    assert_eq!(got, expected, "the pushed Q3 answers as one node does");
    assert!(took >= stall / 2, "answered in {took:?}: the stall held nothing");
    assert_eq!(ring.count(1, "selects_pushed"), 1);
    assert_eq!(events(&ring, 2, "apply"), 1, "lineitem's owner ran the statement more than once");
    assert_eq!(ring.count(1, "ring_query_bytes_moved"), 0, "the asker pulled a fragment");
    assert_eq!(ring.count(1, "timeouts"), 0);

    // 1.5 s against a 250 ms × (1 + 2) budget: no answer crosses in time.
    let ring = q3_ring(1);
    let stall = Duration::from_millis(1500);
    ring.faults[0].stall(Edge::Data, stall);
    let t0 = Instant::now();
    let err = ring.nodes[1].execute(tpch::Q3).expect_err("no answer crosses the stalled edge");
    let took = t0.elapsed();
    assert!(took < stall, "the pushed Q3 hung for {took:?}");
    assert!(matches!(err, DcError::Ring(_)), "expected a ring-classified error, got {err:?}");
    assert!(err.message().contains("select on sys.lineitem timed out"), "unhelpful error: {err}");
    assert!(ring.count(1, "timeouts") >= 1, "timeout not counted");
    std::thread::sleep(stall.saturating_sub(t0.elapsed()));
    let got = ring.nodes[1].execute(tpch::Q3).unwrap();
    assert_eq!(got, expected, "the stall lifted, the statement answers");
    assert_eq!(ring.count(1, "selects_pushed"), 2);
}

/// A routed INSERT whose owner edge is severed fails loudly and shows
/// up in `appends_failed` — the INSERT twin of `mutations_failed`, so
/// failed routed appends are observable in `dc.stats`.
#[test]
fn severed_owner_edge_counts_failed_appends() {
    let ring = chaos_ring(0xD207, FaultPlan::quiet);
    ring.setup_acct();
    settle();

    ring.faults[1].sever(Edge::Data);
    let err = ring.nodes[1]
        .execute("insert into acct values (5, 50)")
        .expect_err("append across a severed edge cannot succeed");
    assert!(matches!(err, DcError::Ring(_)), "expected a ring-classified error, got {err:?}");
    assert!(ring.count(1, "appends_failed") >= 1, "failed append not counted");
    assert!(ring.count(1, "timeouts") >= 1, "timeout not counted");

    // Heal and re-issue: exactly one row lands.
    ring.faults[1].heal(Edge::Data);
    let rs = ring.nodes[1].execute("insert into acct values (5, 50)").unwrap();
    assert_eq!(rs.affected, Some(1));
    ring.await_rows("select id, bal from acct order by id", &[(5, 50)], Duration::from_secs(20));
}

/// Counter consistency across layers: every fault the wrapper injects
/// must cast a visible shadow in the engine's own counters. A dropped
/// mutation frame shows up as an origin retry; a duplicated one shows up
/// as an owner-side dedup — so `FaultStats` reconciles with the nodes'
/// counters and no injected fault vanishes unobserved.
#[test]
fn injected_faults_reconcile_with_downstream_counters() {
    let ring = chaos_ring(0xD208, FaultPlan::quiet);
    ring.setup_acct();
    let rs = ring.nodes[0].execute("insert into acct values (1, 0)").unwrap();
    assert_eq!(rs.affected, Some(1));
    settle();

    // One dropped frame: the origin's retry is its downstream shadow.
    ring.faults[1].drop_next(Edge::Data, 1);
    let rs = ring.nodes[1].execute("update acct set bal = 1 where id = 1").unwrap();
    assert_eq!(rs.affected, Some(1));

    // One duplicated frame: the owner's dedup is its downstream shadow.
    ring.faults[1].duplicate_next(Edge::Data, 1);
    let rs = ring.nodes[1].execute("update acct set bal = 2 where id = 1").unwrap();
    assert_eq!(rs.affected, Some(1));

    let injected = ring.faults[1].stats();
    assert!(injected.drops() >= 1, "no drop was injected");
    assert_eq!(injected.duplicates(), 1, "no duplicate was injected");

    // The duplicate's dedup can trail the ack by a ring hop; poll until
    // the books balance: injected faults ≤ observed retries + dedups.
    let want = injected.drops() + injected.duplicates();
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let (retries, dedups) = (ring.count(1, "retries"), ring.count(0, "mutations_deduped"));
        if retries >= 1 && dedups >= 1 && retries + dedups >= want {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "injected faults never reconciled: {want} injected, \
             origin retries {retries} + owner dedups {dedups}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    ring.await_rows("select id, bal from acct order by id", &[(1, 2)], Duration::from_secs(20));
}

/// The seeded mix: every node's wrapper rolls drops, duplicates, and
/// stalls from its own deterministic RNG while framed clients run the
/// concurrency suite's mixed workload. Each pinned seed must converge to
/// the exact acknowledged state on every node.
fn run_seeded_mix(seed: u64, clients: usize, keys: usize) {
    let plan = |node_seed: u64| FaultPlan {
        seed: node_seed,
        drop_p: 0.01,
        dup_p: 0.03,
        stall_p: 0.02,
        stall_for: Duration::from_millis(25),
    };
    let ring = chaos_ring(seed, plan);
    let sql_addrs = support::spawn_sql_front(&ring.nodes);

    // Schema setup under calm (its gossip is not the subject under test).
    ring.set_chaos(false);
    support::sql(sql_addrs[0], "create table acct (id int, bal int)").unwrap();
    for addr in &sql_addrs {
        support::sql(*addr, ".wait acct").unwrap();
    }
    ring.set_chaos(true);

    let mut joins = Vec::new();
    for cid in 0..clients {
        let addr = sql_addrs[cid % sql_addrs.len()];
        joins.push(std::thread::spawn(move || support::client_script(addr, cid, keys)));
    }
    for j in joins {
        if let Err(payload) = j.join() {
            // The script panics with the statement and the error it got
            // (`client 2: `update …`: …`); a bare `Any { .. }` hides both.
            let said = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("<non-string panic payload>");
            panic!("seed {seed:#x}: client thread panicked under chaos: {said}");
        }
    }

    let injected: u64 = ring.faults.iter().map(|f| f.stats().faults_injected()).sum();
    eprintln!("seed {seed:#x}: {injected} faults injected across the ring");

    // Calm the wrappers and nudge one re-advertisement so a fault that
    // swallowed the workload's *last* catalog gossip cannot wedge the
    // convergence oracle. Key 0 survives the script with bal = 0, so
    // this settling write does not perturb the expected final state.
    ring.set_chaos(false);
    let rs = support::sql(sql_addrs[0], "update acct set bal = 0 where id = 0").unwrap();
    assert_eq!(rs.affected, Some(1), "settling write");

    support::await_catalog_convergence(&ring.nodes, Duration::from_secs(30));
    let want = support::expected_rows(clients, keys);
    support::assert_final_state(&sql_addrs, &want, Duration::from_secs(60));
}

/// Pinned seeds, run in CI: three different deterministic fault
/// sequences over the full mixed workload.
#[test]
fn seeded_random_mix_converges_under_pinned_seeds() {
    for seed in [0xDC07, 7, 42] {
        run_seeded_mix(seed, 3, 6);
    }
}

/// Randomized soak: a fresh seed per run (pin one with `CHAOS_SEED=n`),
/// printed so any failure is replayable. Minutes, not seconds:
/// `cargo test --test chaos -- --ignored`.
#[test]
#[ignore = "randomized soak: run with --ignored"]
fn chaos_soak_randomized() {
    let seed = match std::env::var("CHAOS_SEED") {
        Ok(s) => s.parse().expect("CHAOS_SEED must be a u64"),
        Err(_) => std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .expect("clock before epoch")
            .as_nanos() as u64,
    };
    eprintln!("soak seed: {seed:#x} (replay with CHAOS_SEED={seed})");
    run_seeded_mix(seed, 6, 20);
}
