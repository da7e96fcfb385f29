//! The system under test and its single-node reference.
//!
//! [`Cluster`] is the deployment a workload runs against: one or three
//! `RingNode`s configured as the `dc-node` binary configures them,
//! `sqlserve` in front of the session nodes, and the two `dc-client`
//! sessions the closed-loop client uses. Counters are read only through
//! the program's own `dc.stats` / `dc.latency` SQL views, so the
//! benchmark keeps working when the engine's stats structs are
//! reshaped.
//!
//! [`LocalDb`] is the reference: the same tables in a plain `batstore`
//! catalog, statements compiled by `sqlfront` and interpreted by `mal`
//! with no ring underneath.

use crate::workloads::{Kind, TableLoad};
use batstore::{Bat, BatStore, Catalog, Column, ResultSet, Val};
use datacyclotron::{DataDir, DcConfig, FsyncPolicy, NodeId, NodeOptions, RingNode, RingTransport};
use dc_client::{Client, Session};
use dc_transport::sqlserve;
use dc_transport::tcp::join_ring;
use mal::SessionCtx;
use netsim::SimDuration;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every wait in set-up gives up after this long and names what it
/// waited for.
const SETUP_TIMEOUT: Duration = Duration::from_secs(30);

/// WAL fsync policy of the durable workloads. `Off` (the WAL is written
/// but not fsynced) keeps the sandbox's disk out of the latency; it is
/// part of the benchmark definition and identical on both sides of any
/// comparison.
pub const FSYNC: FsyncPolicy = FsyncPolicy::Off;

/// Node options as `dc-node` sets them for a real deployment.
pub fn node_options(data_dir: Option<&Path>, mem_budget: Option<u64>) -> NodeOptions {
    NodeOptions {
        cfg: DcConfig {
            load_interval: SimDuration::from_millis(10),
            resend_timeout: SimDuration::from_millis(500),
            lost_after: SimDuration::from_secs(2),
            ..DcConfig::default()
        },
        pin_timeout: Duration::from_secs(20),
        data_dir: data_dir.map(|p| DataDir::new(p).fsync(FSYNC)),
        mem_budget,
        ..NodeOptions::default()
    }
}

pub fn free_addrs(n: usize) -> Vec<SocketAddr> {
    let listeners: Vec<TcpListener> =
        (0..n).map(|_| TcpListener::bind("127.0.0.1:0").expect("bind a free port")).collect();
    listeners.iter().map(|l| l.local_addr().expect("local addr")).collect()
}

/// Summed `dc.stats` rows of every node, by name.
pub type Counters = BTreeMap<String, i64>;

pub struct Cluster {
    pub nodes: Vec<Arc<RingNode>>,
    pub sessions: Vec<Session>,
    pub session_nodes: [usize; 2],
}

impl Cluster {
    /// Spawn the workload's ring under `dir` (one `node<i>` data dir per
    /// member when the workload is durable), serve SQL on the session
    /// nodes and open both sessions.
    pub fn spawn(kind: Kind, durable: bool, dir: &Path) -> Cluster {
        let n = kind.nodes();
        let opts = |i: usize| {
            let data_dir = durable.then(|| dir.join(format!("node{i}")));
            node_options(data_dir.as_deref(), kind.mem_budget())
        };
        let nodes: Vec<Arc<RingNode>> = if n == 1 {
            let fabric = dc_transport::mem::ring(1).pop().expect("one in-memory member");
            vec![Arc::new(RingNode::spawn(NodeId(0), Arc::new(fabric), opts(0)))]
        } else {
            let addrs = free_addrs(n);
            let mut joins = Vec::new();
            for me in 0..n {
                // `join_ring` binds, then dials both neighbours, and a
                // refused dial sleeps 50 ms before retrying. Started
                // together, members lose that race or not at random and
                // set-up time lands in 50 ms steps. Starting the last
                // member a moment after the others makes every run pay
                // exactly one retry.
                if me == n - 1 {
                    std::thread::sleep(Duration::from_millis(2));
                }
                let (addrs, opts) = (addrs.clone(), opts(me));
                joins.push(std::thread::spawn(move || {
                    let transport = Arc::new(join_ring(&addrs, me).expect("join ring"));
                    RingNode::spawn(NodeId(me as u16), transport as Arc<dyn RingTransport>, opts)
                }));
            }
            joins.into_iter().map(|j| Arc::new(j.join().expect("node spawn"))).collect()
        };

        let session_nodes = kind.session_nodes();
        let mut served: BTreeMap<usize, SocketAddr> = BTreeMap::new();
        for &node in &session_nodes {
            served.entry(node).or_insert_with(|| {
                let listener = TcpListener::bind("127.0.0.1:0").expect("bind SQL port");
                let addr = listener.local_addr().expect("local addr");
                // The server thread serves until the process exits; an
                // epoch is a process, so nothing outlives it.
                sqlserve::spawn_sql_server(listener, Arc::clone(&nodes[node]));
                addr
            });
        }
        let sessions = session_nodes
            .iter()
            .map(|node| Client::connect(served[node]).expect("connect SQL session"))
            .collect();
        Cluster { nodes, sessions, session_nodes }
    }

    /// Bulk-load `table` on its owner, handing the columns over.
    pub fn load(&self, table: TableLoad) {
        let (names, cols): (Vec<String>, Vec<Column>) = table.cols.into_iter().unzip();
        let cols = names.iter().map(String::as_str).zip(cols).collect();
        self.nodes[table.node].load_table("sys", &table.name, cols).expect("load table");
    }

    /// Block (on the catalog condvar) until every node knows `table`.
    pub fn wait_for_table(&self, table: &str) {
        for node in &self.nodes {
            node.wait_for_table_timeout("sys", table, SETUP_TIMEOUT).expect("catalog convergence");
        }
    }

    /// `dc.stats` of every node, summed by counter name.
    pub fn counters(&self) -> Counters {
        let mut sum = Counters::new();
        for node in &self.nodes {
            for (name, v) in node_counters(node) {
                *sum.entry(name).or_insert(0) += v;
            }
        }
        sum
    }

    /// `dc.latency` p50 of every histogram, in microseconds by name:
    /// the mean of the nodes' medians weighted by their sample counts.
    /// A histogram no node recorded a sample for is absent.
    pub fn latency_p50_us(&self) -> BTreeMap<String, f64> {
        let mut sums: BTreeMap<String, (f64, f64)> = BTreeMap::new();
        for node in &self.nodes {
            let rs =
                node.execute("select name, count, p50_us from dc.latency").expect("dc.latency");
            for r in 0..rs.row_count() {
                if let (Val::Str(name), Val::Lng(count), Val::Lng(p50)) =
                    (rs.cell(r, 0), rs.cell(r, 1), rs.cell(r, 2))
                {
                    let (weighted, samples) = sums.entry(name).or_default();
                    *weighted += p50 as f64 * count as f64;
                    *samples += count as f64;
                }
            }
        }
        sums.into_iter()
            .filter(|(_, (_, samples))| *samples > 0.0)
            .map(|(name, (weighted, samples))| (name, weighted / samples))
            .collect()
    }

    /// Wait until every node's resident bytes fit its budget, polling
    /// the gauge each millisecond (a coarser poll would quantise
    /// set-up time).
    pub fn wait_for_budget_fit(&self, budget: u64) {
        let deadline = Instant::now() + SETUP_TIMEOUT;
        for node in &self.nodes {
            while node_counters(node)
                .get("obs_hotset_resident_bytes")
                .is_none_or(|&v| v as u64 > budget)
            {
                assert!(Instant::now() < deadline, "node {} never fit its budget", node.id);
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }
}

/// One node's `dc.stats` view, read through SQL like any client would.
fn node_counters(node: &RingNode) -> Counters {
    let rs = node.execute("select name, value from dc.stats").expect("dc.stats");
    (0..rs.row_count())
        .filter_map(|r| match (rs.cell(r, 0), rs.cell(r, 1)) {
            (Val::Str(name), Val::Lng(v)) => Some((name, v)),
            _ => None,
        })
        .collect()
}

/// The single-node reference database.
pub struct LocalDb {
    catalog: Arc<RwLock<Catalog>>,
    store: Arc<RwLock<BatStore>>,
}

impl LocalDb {
    pub fn new() -> LocalDb {
        LocalDb {
            catalog: Arc::new(RwLock::new(Catalog::new())),
            store: Arc::new(RwLock::new(BatStore::new())),
        }
    }

    pub fn load(&self, name: &str, cols: &[(String, Column)]) {
        let cols = cols.iter().map(|(n, c)| (n.as_str(), c.clone())).collect();
        self.catalog
            .write()
            .create_table_columnar(&mut self.store.write(), "sys", name, cols)
            .expect("load reference table");
    }

    pub fn catalog(&self) -> &Arc<RwLock<Catalog>> {
        &self.catalog
    }

    /// One stored column, `None` when the table or column is unknown.
    pub fn column(&self, table: &str, column: &str) -> Option<Arc<Bat>> {
        let key = self.catalog.read().bind("sys", table, column).ok()?;
        self.store.read().get(key).ok()
    }

    /// Interpret a compiled plan against the local tables, with the
    /// dataflow width the engine uses.
    pub fn run(&self, plan: &mal::Program) -> Result<ResultSet, String> {
        let ctx = SessionCtx::new(Arc::clone(&self.catalog), Arc::clone(&self.store));
        mal::run_dataflow(plan, &ctx, 4).map_err(|e| e.to_string())?;
        Ok(ctx.take_result())
    }

    pub fn execute(&self, sql: &str) -> Result<ResultSet, String> {
        let plan = {
            let catalog = self.catalog.read();
            sqlfront::compile_sql_dc(sql, &catalog).map_err(|e| e.to_string())?
        };
        self.run(&plan)
    }
}

/// Whether `got` answers like `want`: same affected-row count, same
/// columns by name and type, and every cell equal. Info text is not
/// compared (it is presentation, and differs by execution path).
pub fn same_answer(got: &ResultSet, want: &ResultSet) -> bool {
    got.affected == want.affected
        && got.column_count() == want.column_count()
        && got.row_count() == want.row_count()
        && got.columns.iter().zip(&want.columns).all(|(g, w)| {
            g.name == w.name && g.col_type() == w.col_type() && g.data.tail() == w.data.tail()
        })
}
