//! The four workloads: what data each loads where, and the statement
//! sequence its one closed-loop client issues. Everything here is a
//! pure function of `(workload, seed, iteration count)` — data, key
//! draws and table draws come only from `netsim::DetRng`, so one seed
//! always yields byte-identical inputs and the operation count of an
//! epoch is fixed before it starts.

use batstore::ops::CmpOp;
use batstore::Column;
use dc_workloads::tpch::sql as tpch;
use netsim::DetRng;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    TpchRing,
    TpchLocal,
    OltpMix,
    HotsetSweep,
}

pub const ALL: [Kind; 4] = [Kind::TpchRing, Kind::TpchLocal, Kind::OltpMix, Kind::HotsetSweep];

/// TPC-H row targets: 3 000 customers / 12 000 orders / ≈42 000
/// lineitems — large enough that Q1/Q3/Q6 spend milliseconds in the
/// kernels and a lineitem column is ≈170–340 KB on the wire.
const TPCH_SCALE: f64 = 100.0;

/// `oltp_mix`: rows preloaded into `kv`, in multi-row INSERTs of this size.
const KV_ROWS: usize = 2_000;
const KV_INSERT_BATCH: usize = 200;
/// Keys inserted (and deleted again) by the measured loop start here,
/// far above the preloaded range, so the table size stays steady.
const KV_FRESH_BASE: usize = 1_000_000;

/// `hotset_sweep`: 48 tables × 3 int columns × 20 000 rows is ≈3.8 MB
/// owned per node against a 1 MB budget (≈3.8×); 6 tables are "hot".
pub const HOTSET_TABLES: usize = 48;
pub const HOTSET_HOT: usize = 6;
const HOTSET_ROWS: usize = 20_000;
pub const HOTSET_BUDGET: u64 = 1 << 20;

/// One bulk-loaded table: the node that owns it and its columns.
pub struct TableLoad {
    pub node: usize,
    pub name: String,
    pub cols: Vec<(String, Column)>,
}

/// One client operation. `class` is 0-based (class 1 of the glossary
/// is `class == 0`).
#[derive(Clone, Debug, PartialEq)]
pub struct Op {
    pub class: usize,
    pub session: usize,
    pub sql: String,
}

pub struct Workload {
    pub kind: Kind,
    pub tables: Vec<TableLoad>,
    /// Tables created through SQL on session 0 (`(name, statement)`);
    /// the harness waits for each to replicate before going on.
    pub ddl: Vec<(String, String)>,
    /// Statements run once on session 0 after the DDL (bulk INSERTs).
    pub preload: Vec<String>,
    /// Unmeasured, fully verified pass that warms template caches,
    /// sessions and the hot set.
    pub warmup: Vec<Op>,
    /// The measured operations, in issue order.
    pub ops: Vec<Op>,
    /// Extra operations continuing the sequence; a traced epoch runs
    /// them through the nested in-process entry points.
    pub probes: Vec<Op>,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::TpchRing => "tpch_ring",
            Kind::TpchLocal => "tpch_local",
            Kind::OltpMix => "oltp_mix",
            Kind::HotsetSweep => "hotset_sweep",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        ALL.into_iter().find(|k| k.name() == name)
    }

    /// Why the workload is in the benchmark (`BENCHMARK.json`'s `why`).
    pub fn why(self) -> &'static str {
        match self {
            Kind::TpchRing => "TPC-H Q1/Q3/Q6 on a 3-node TCP ring, one table per node: every answer pulls lineitem fragments off the ring, so core request/pin wait, Bat codec and transport do the work",
            Kind::TpchLocal => "same data and statements on one node that owns all tables: every pin is local, so batstore/ops and mal do the work and the ring none; a ring optimisation must show no change here",
            Kind::OltpMix => "point SELECT/UPDATE/INSERT/DELETE with distinct literals on a durable 3-node ring (fsync off): front door, sqlfront/mal compile, routed acks and the WAL dominate, kernels do little",
            Kind::HotsetSweep => "48 tables, 3.8x each node's 1 MiB budget, hot/cold/re-touch reads: the only data larger than the program's own cache, so core::hotset spill/re-admission and persist do the work",
        }
    }

    /// What the three latency classes are on this workload.
    pub fn classes(self) -> [&'static str; 3] {
        match self {
            Kind::TpchRing | Kind::TpchLocal => ["Q1", "Q3", "Q6"],
            Kind::OltpMix => ["point SELECT", "UPDATE/DELETE", "INSERT"],
            Kind::HotsetSweep => ["hot table", "cold table", "cold re-touch"],
        }
    }

    /// Ring members; a single member runs over the in-memory fabric,
    /// three are joined by `dc_transport::tcp::join_ring`.
    pub fn nodes(self) -> usize {
        match self {
            Kind::TpchLocal => 1,
            _ => 3,
        }
    }

    /// Whether the nodes get durable data dirs (WAL + checkpoints).
    pub fn durable(self) -> bool {
        matches!(self, Kind::OltpMix | Kind::HotsetSweep)
    }

    pub fn mem_budget(self) -> Option<u64> {
        (self == Kind::HotsetSweep).then_some(HOTSET_BUDGET)
    }

    /// The node each of the two client sessions connects to.
    pub fn session_nodes(self) -> [usize; 2] {
        match self {
            Kind::TpchLocal => [0, 0],
            _ => [0, 1],
        }
    }

    /// Measured iterations of one epoch of a `--seconds 30` run: the
    /// counts ISSUE 13 sized for ≈6 s on this machine (450 / 750 /
    /// 6 000 / 1 200 operations). `--seconds` scales them; the count is
    /// fixed before the epoch starts, so a faster program finishes the
    /// same work sooner and every counter repeats.
    fn iterations_at_30s(self) -> f64 {
        match self {
            Kind::TpchRing => 150.0,
            Kind::TpchLocal => 250.0,
            Kind::OltpMix => 1500.0,
            Kind::HotsetSweep => 400.0,
        }
    }

    /// Measured iterations per epoch for a run of `seconds`.
    pub fn iterations(self, seconds: f64) -> usize {
        ((self.iterations_at_30s() * seconds / 30.0).round() as usize).max(1)
    }

    /// Operations one iteration issues.
    pub fn ops_per_iteration(self) -> usize {
        match self {
            Kind::OltpMix => 4,
            _ => 3,
        }
    }
}

/// The workload's own columns the kernel and codec micro-calls run on:
/// the ones its statements scan, group, sum, join and sort.
pub struct KernelCols {
    pub table: &'static str,
    pub filter: &'static str,
    pub theta: (CmpOp, i32),
    pub range: (i32, i32),
    pub group: &'static str,
    pub value: &'static str,
    /// Join `table.fk` against `pk.0`.`pk.1`.
    pub fk: &'static str,
    pub pk: (&'static str, &'static str),
}

impl Kind {
    pub fn kernel_cols(self) -> KernelCols {
        match self {
            Kind::TpchRing | Kind::TpchLocal => KernelCols {
                table: "lineitem",
                filter: "l_shipdate",
                theta: (CmpOp::Le, 19980902),
                range: (19940101, 19941231),
                group: "l_returnflag",
                value: "l_extendedprice",
                fk: "l_orderkey",
                pk: ("orders", "o_orderkey"),
            },
            Kind::OltpMix => KernelCols {
                table: "kv",
                filter: "id",
                theta: (CmpOp::Eq, KV_ROWS as i32 / 2),
                range: (KV_ROWS as i32 / 4, KV_ROWS as i32 / 2),
                group: "v",
                value: "v",
                fk: "id",
                pk: ("kv", "id"),
            },
            Kind::HotsetSweep => KernelCols {
                table: "t0",
                filter: "b",
                theta: (CmpOp::Lt, 5),
                range: (2, 6),
                group: "b",
                value: "a",
                fk: "k",
                pk: ("t1", "k"),
            },
        }
    }
}

fn owned(table: tpch::Table) -> Vec<(String, Column)> {
    table.into_iter().map(|(name, col)| (name.to_string(), col)).collect()
}

fn tpch_rounds(rounds: usize, first: usize) -> Vec<Op> {
    let mut ops = Vec::with_capacity(rounds * 3);
    for _ in 0..rounds {
        for (class, sql) in [tpch::Q1, tpch::Q3, tpch::Q6].into_iter().enumerate() {
            // Three statements per round over two sessions: every
            // statement alternates between the sessions round by round.
            let session = (first + ops.len()) % 2;
            ops.push(Op { class, session, sql: sql.to_string() });
        }
    }
    ops
}

fn gen_tpch(kind: Kind, seed: u64, iterations: usize, probes: usize) -> Workload {
    let data = tpch::generate(TPCH_SCALE, seed);
    // One whole table per node on the ring, so every answer needs
    // lineitem fragments pulled off the wire; one node owns all three
    // on the local variant.
    let spread = kind == Kind::TpchRing;
    let place = |i: usize| if spread { i } else { 0 };
    let tables = vec![
        TableLoad { node: place(0), name: "customer".into(), cols: owned(data.customer) },
        TableLoad { node: place(1), name: "orders".into(), cols: owned(data.orders) },
        TableLoad { node: place(2), name: "lineitem".into(), cols: owned(data.lineitem) },
    ];
    Workload {
        kind,
        tables,
        ddl: Vec::new(),
        preload: Vec::new(),
        // Two rounds put every distinct statement on both sessions.
        warmup: tpch_rounds(2, 0),
        ops: tpch_rounds(iterations, 0),
        probes: tpch_rounds(probes, iterations * 3),
    }
}

struct OltpGen {
    rng: DetRng,
    iteration: usize,
}

impl OltpGen {
    /// One iteration on one session: point read, in-place update, then
    /// an insert and the delete of that same row — `kv` keeps its size.
    fn iteration(&mut self, out: &mut Vec<Op>) {
        let session = self.iteration % 2;
        let read = self.rng.index(KV_ROWS);
        let write = self.rng.index(KV_ROWS);
        let value = self.rng.uniform_u64(0, 1_000_000);
        let fresh = KV_FRESH_BASE + self.iteration;
        self.iteration += 1;
        let mut push = |class: usize, sql: String| out.push(Op { class, session, sql });
        push(0, format!("select id, v, tag from kv where id = {read}"));
        push(1, format!("update kv set v = {value} where id = {write}"));
        push(2, format!("insert into kv values ({fresh}, {value}, 'n{fresh}')"));
        push(1, format!("delete from kv where id = {fresh}"));
    }

    fn iterations(&mut self, n: usize) -> Vec<Op> {
        let mut ops = Vec::with_capacity(n * 4);
        for _ in 0..n {
            self.iteration(&mut ops);
        }
        ops
    }
}

fn gen_oltp(seed: u64, iterations: usize, probes: usize) -> Workload {
    let mut rng = DetRng::new(seed);
    let mut preload = Vec::new();
    for chunk in (0..KV_ROWS).collect::<Vec<_>>().chunks(KV_INSERT_BATCH) {
        let rows: Vec<String> = chunk
            .iter()
            .map(|id| format!("({id}, {}, 't{id:05}')", rng.uniform_u64(0, 1_000_000)))
            .collect();
        preload.push(format!("insert into kv values {}", rows.join(", ")));
    }
    let mut gen = OltpGen { rng, iteration: 0 };
    Workload {
        kind: Kind::OltpMix,
        tables: Vec::new(),
        ddl: vec![("kv".into(), "create table kv (id int, v int, tag varchar(16))".into())],
        preload,
        warmup: gen.iterations(8),
        ops: gen.iterations(iterations),
        probes: gen.iterations(probes),
    }
}

fn hotset_query(table: usize) -> String {
    format!("select count(*), sum(a) from t{table} where b < 5")
}

fn hotset_iterations(rng: &mut DetRng, n: usize, first: usize) -> Vec<Op> {
    let mut ops = Vec::with_capacity(n * 3);
    for i in 0..n {
        let session = (first + i) % 2;
        let hot = rng.index(HOTSET_HOT);
        let cold = HOTSET_HOT + rng.index(HOTSET_TABLES - HOTSET_HOT);
        ops.push(Op { class: 0, session, sql: hotset_query(hot) });
        ops.push(Op { class: 1, session, sql: hotset_query(cold) });
        ops.push(Op { class: 2, session, sql: hotset_query(cold) });
    }
    ops
}

fn gen_hotset(seed: u64, iterations: usize, probes: usize) -> Workload {
    let mut rng = DetRng::new(seed);
    let tables = (0..HOTSET_TABLES)
        .map(|t| {
            let k: Vec<i32> = (0..HOTSET_ROWS as i32).collect();
            let a: Vec<i32> = (0..HOTSET_ROWS).map(|_| rng.uniform_u64(0, 999) as i32).collect();
            let b: Vec<i32> = (0..HOTSET_ROWS).map(|_| rng.uniform_u64(0, 9) as i32).collect();
            TableLoad {
                node: t % 3,
                name: format!("t{t}"),
                cols: vec![
                    ("k".into(), Column::from(k)),
                    ("a".into(), Column::from(a)),
                    ("b".into(), Column::from(b)),
                ],
            }
        })
        .collect();
    // Every table once per session, cold tables first, so the warm-up
    // ends with the hot tables the most recently touched.
    let mut warmup = Vec::new();
    for session in 0..2 {
        for t in (0..HOTSET_TABLES).rev() {
            let class = if t < HOTSET_HOT { 0 } else { 1 };
            warmup.push(Op { class, session, sql: hotset_query(t) });
        }
    }
    Workload {
        kind: Kind::HotsetSweep,
        tables,
        ddl: Vec::new(),
        preload: Vec::new(),
        warmup,
        ops: hotset_iterations(&mut rng, iterations, 0),
        probes: hotset_iterations(&mut rng, probes, iterations),
    }
}

/// Generate the workload's inputs: `iterations` measured iterations and
/// `probes` further ones for the traced epoch's in-process passes.
pub fn generate(kind: Kind, seed: u64, iterations: usize, probes: usize) -> Workload {
    match kind {
        Kind::TpchRing | Kind::TpchLocal => gen_tpch(kind, seed, iterations, probes),
        Kind::OltpMix => gen_oltp(seed, iterations, probes),
        Kind::HotsetSweep => gen_hotset(seed, iterations, probes),
    }
}

impl Workload {
    /// Bytes of user data the workload holds once loaded (bulk tables,
    /// or for `kv` two ints and a 6-character tag per preloaded row).
    pub fn user_bytes(&self) -> u64 {
        let bulk: usize =
            self.tables.iter().flat_map(|t| t.cols.iter()).map(|(_, c)| c.byte_size()).sum();
        let kv = if self.kind == Kind::OltpMix { KV_ROWS * (4 + 4 + 6) } else { 0 };
        (bulk + kv) as u64
    }

    /// Whether two generations are identical, input for input.
    pub fn same_inputs(&self, other: &Workload) -> bool {
        let tables_equal = self.tables.len() == other.tables.len()
            && self
                .tables
                .iter()
                .zip(&other.tables)
                .all(|(a, b)| a.node == b.node && a.name == b.name && a.cols == b.cols);
        tables_equal
            && self.ddl == other.ddl
            && self.preload == other.preload
            && self.warmup == other.warmup
            && self.ops == other.ops
            && self.probes == other.probes
    }
}
