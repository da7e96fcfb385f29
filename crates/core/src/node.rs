//! A live node's handle, and the in-process ring of them.
//!
//! [`RingNode`] starts one node over any [`RingTransport`]: its event
//! loop ([`crate::engine`]) on a thread of its own, recovered from its
//! data dir first when it has one, and the handle ([`RingHooks`]) every
//! statement issued at the node runs through. [`Ring`] wires `n` of them
//! over the built-in memory fabric.

use crate::config::{DataDir, DcConfig};
use crate::engine::{NodeCtx, NodeEvent};
use crate::error::DcError;
use crate::hotset::HotsetSnapshot;
use crate::ids::NodeId;
use crate::msg::{CatalogCol, CatalogMsg};
use crate::runtime::{answered, CatalogNotify, Cmd, FragIds, Push, RingCatalog, RingHooks};
use crate::transport::{mem, MeteredTransport, RingTransport};
use batstore::{Bat, Column, ResultSet};
use crossbeam::channel::{bounded, unbounded, RecvTimeoutError};
use mal::MalError;
use sqlfront::parser::MAX_IDENT;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Options shared by [`RingNode`] and [`RingBuilder`].
#[derive(Clone, Debug)]
pub struct NodeOptions {
    pub cfg: DcConfig,
    /// How long a blocked `pin` (or DDL/DML ack) waits before erroring.
    pub pin_timeout: Duration,
    /// Durable node-local storage. `None` (the default) keeps the node
    /// memory-only; `Some` turns on write-ahead logging, background
    /// checkpointing, and recovery-on-spawn from the directory.
    pub data_dir: Option<DataDir>,
    /// Per-attempt wait for a routed statement's owner acknowledgement
    /// before the statement is resent. Attempts back off exponentially
    /// from here; the whole budget (`ack_timeout * (2^(ack_retries+1)-1)`)
    /// should stay under `pin_timeout` so the engine's classified error
    /// reaches the caller before the generic waiter timeout does.
    pub ack_timeout: Duration,
    /// Resends after the first attempt before a routed statement fails
    /// with a timeout error.
    pub ack_retries: u32,
    /// Soft cap on resident owned-fragment bytes. When projected
    /// residency exceeds it, the coldest off-ring fragments (lowest
    /// Eq. 1 LOI) are spilled to the data dir and dropped from RAM, as
    /// is every fragment the owner unloads from the ring (Fig. 5).
    /// Requires `data_dir`; a diskless node has nowhere to put the
    /// at-rest copy, so it neither enforces nor reports the budget
    /// ([`HotsetSnapshot::mem_budget`] is `None`). `None` disables
    /// spilling: unloaded fragments stay resident.
    pub mem_budget: Option<u64>,
}

impl Default for NodeOptions {
    fn default() -> Self {
        NodeOptions {
            cfg: DcConfig::default(),
            pin_timeout: Duration::from_secs(30),
            data_dir: None,
            // 1.2s × (1+2+4+8) = 18s worst case: inside the 30s
            // pin_timeout above AND the 20s pin_timeout `dc-node`
            // configures, so the engine's attempt-counting timeout
            // error beats the generic waiter message everywhere.
            ack_timeout: Duration::from_millis(1200),
            ack_retries: 3,
            mem_budget: None,
        }
    }
}

/// One live engine node over an arbitrary ring transport. This is the
/// unit a distributed deployment runs per process (see the `dc-node`
/// binary in `dc-transport`); [`Ring`] composes `n` of them over the
/// in-memory fabric.
pub struct RingNode {
    pub id: NodeId,
    /// The node's one handle: its statement path, event-loop sender,
    /// catalog, transport and registry.
    pub(crate) hooks: Arc<RingHooks>,
    notify: Arc<CatalogNotify>,
    frag_ids: Arc<FragIds>,
    /// The event loop's thread; it ends with the pushed-SELECT runner's,
    /// if a push started one.
    event_loop: Option<JoinHandle<Option<JoinHandle<()>>>>,
}

impl RingNode {
    /// Start a node: spawns its event loop and attaches it to the
    /// transport's inbound stream. Panics if its configuration is invalid
    /// or its data dir (when configured) cannot be opened or recovered —
    /// see [`RingNode::try_spawn`] for the fallible form.
    pub fn spawn(id: NodeId, transport: Arc<dyn RingTransport>, opts: NodeOptions) -> RingNode {
        Self::try_spawn(id, transport, opts).unwrap_or_else(|e| panic!("spawning node: {e}"))
    }

    /// [`RingNode::spawn`], surfacing an invalid configuration and
    /// data-dir open/recovery failures.
    pub fn try_spawn(
        id: NodeId,
        transport: Arc<dyn RingTransport>,
        opts: NodeOptions,
    ) -> Result<RingNode, String> {
        opts.cfg.validate().map_err(|e| format!("invalid DcConfig: {e}"))?;
        // Unbounded: the transport's sink runs on a neighbor's event loop
        // (memory fabric) or a socket reader and must never block — full
        // bounded queues around a ring are a deadlock — and commands come
        // from callers that then wait for their answer, so what queues
        // here is bounded by the fragments in circulation plus the
        // threads using the node.
        let (tx, rx) = unbounded::<NodeEvent>();
        let obs = Arc::new(dc_obs::Registry::new(id.0));
        // Every fabric is metered the same way: wrapping here (rather
        // than inside each transport) gives the in-process and TCP rings
        // identical per-edge frame/byte counters.
        let transport: Arc<dyn RingTransport> = Arc::new(MeteredTransport::new(transport, &obs));
        let catalog = Arc::new(RingCatalog::new());
        let hooks = Arc::new(RingHooks::new(tx.clone(), catalog, opts.pin_timeout, obs, transport));
        let notify = Arc::new(CatalogNotify::new());
        let frag_ids = Arc::new(FragIds::new(id));
        let (ctx, readvertise) = NodeCtx::open(
            id,
            &opts,
            Arc::clone(&hooks),
            rx,
            Arc::clone(&notify),
            Arc::clone(&frag_ids),
        )?;
        let event_loop = std::thread::spawn(move || ctx.run());

        // From here on every inbound frame — starting with whatever
        // arrived while the node was recovering — lands in the event
        // channel on the thread that received it: one hand-off. A send
        // can only fail once the loop has exited, during `stop`.
        hooks.transport.attach(Box::new(move |msg| {
            let _ = tx.send(NodeEvent::Ring(msg));
        }));

        // Recovered tables with fragments owned here re-enter the ring's
        // metadata: peers that restarted (or joined) while we were down
        // learn them again; everyone else applies them idempotently. The
        // fragments themselves stay on disk until requests summon them.
        for table in readvertise {
            let _ = hooks.send(Cmd::PublishTable { table, gossip: true });
        }

        Ok(RingNode { id, hooks, notify, frag_ids, event_loop: Some(event_loop) })
    }

    /// Load a table owned entirely by this node (each node of a real
    /// deployment loads its own share from local storage); the metadata
    /// replicates around the ring. A name longer than SQL lets an
    /// identifier be is refused.
    pub fn load_table(
        &self,
        schema: &str,
        table: &str,
        cols: Vec<(&str, Column)>,
    ) -> Result<(), MalError> {
        check_names(schema, table, &cols)?;
        let table = CatalogMsg {
            origin: self.id,
            schema: schema.to_string(),
            table: table.to_string(),
            columns: self.store_columns(cols)?,
        };
        self.hooks.send(Cmd::PublishTable { table, gossip: true })
    }

    /// Hand `cols` to this node as new owned fragments, in one
    /// [`Cmd::StoreOwned`], and describe them for the catalog. Their ids
    /// come from this node's allocator, like a created table's, so they
    /// collide with no fragment this node owns, recovered ones included.
    fn store_columns(&self, cols: Vec<(&str, Column)>) -> Result<Vec<CatalogCol>, MalError> {
        let dense = cols.into_iter().map(|(name, col)| (name.to_string(), Bat::dense(col)));
        let (columns, frags) = self.frag_ids.columns(dense);
        self.hooks.send(Cmd::StoreOwned { frags })?;
        Ok(columns)
    }

    /// Compile and execute one SQL statement (SELECT, CREATE TABLE, or
    /// INSERT) on this node, returning the typed [`ResultSet`]: named,
    /// typed columns for SELECTs; affected-row counts and info text for
    /// DML/DDL. This is the engine's canonical query entry point — the
    /// wire protocol ships these columns, and text is rendered only at
    /// edges that want text.
    ///
    /// It is the choke point every SQL entry path funnels through
    /// ([`Ring::execute`] too): compile, then run here — or, for an
    /// aggregate, at the owner that receives fewer of its bytes — with
    /// end-to-end latency recorded per statement kind and statement/error
    /// counters bumped, so the in-process ring, `dcsh`, and the wire
    /// server all feed the same `stmt_*_us` histograms.
    pub fn execute(&self, sql: &str) -> Result<ResultSet, DcError> {
        let h = &self.hooks;
        let qid = h.next_query();
        let start = Instant::now();
        let result = h.compile(sql).map_err(DcError::from).and_then(|(template, params)| {
            if let Some(push) = self.pushed_to(&template) {
                if let Some(rs) = self.push_select(push, sql)? {
                    return Ok(rs);
                }
            }
            // Not pushed, or declined by the owner: run here.
            Ok(h.run_bound(qid, &template, &params)?)
        });
        h.count_statement(sql, start, result.is_err());
        result
    }

    /// Where `plan` runs instead of this node: an aggregate
    /// ([`sqlfront::aggregate_reads`]) goes to the owner of one of its
    /// tables when that node receives fewer of the bytes it reads
    /// ([`RingCatalog::push_target`]). It sends only the text there and
    /// gets only the result back. The plan's shape and the catalog decide;
    /// nothing else does.
    fn pushed_to(&self, plan: &mal::Program) -> Option<Push> {
        self.hooks.catalog.push_target(self.id, &sqlfront::aggregate_reads(plan)?)
    }

    /// Route `sql` to the owner `push` names and wait for what it makes
    /// of it: its result, its failure as the owner classified it, or
    /// `None` — the owner declined, and this node runs the statement. A
    /// read may run at the owner as long as it would here: the wait goes
    /// on while the owner says it is still running it, and the routed
    /// path fails it, classified, once the owner falls silent.
    fn push_select(&self, push: Push, sql: &str) -> Result<Option<ResultSet>, DcError> {
        let ((reply, answer), alive) = (bounded(1), Arc::new(AtomicBool::new(false)));
        let (sql, beat) = (sql.to_string(), Arc::clone(&alive));
        self.hooks.send(Cmd::PushSelect { push, sql, answer: reply, alive: beat })?;
        let outcome = loop {
            match answer.recv_timeout(self.hooks.pin_timeout) {
                Err(RecvTimeoutError::Timeout) if alive.swap(false, Ordering::Relaxed) => {}
                got => break answered(got, "timed out waiting for the fragment owner's answer"),
            }
        };
        outcome.map_err(|e| DcError::from(MalError::Dc(e)))?.transpose()
    }

    /// Execute an already-compiled MAL plan with the given query id,
    /// returning the typed result the plan's sink published.
    pub fn run_plan(&self, qid: u64, plan: &mal::Program) -> Result<ResultSet, MalError> {
        self.hooks.run_bound(qid, plan, &plan.params)
    }

    /// Render the front-end plan and the optimized plan that runs.
    pub fn explain_sql(&self, sql: &str) -> Result<(String, String), MalError> {
        let plan = self.hooks.catalog.with_compiler(|c| sqlfront::compile_sql(sql, c))?;
        let dc = sqlfront::optimize(&plan);
        Ok((plan.to_string(), dc.to_string()))
    }

    /// Block until this node's catalog knows `schema.table`
    /// (catalog gossip is asynchronous); `false` on timeout. Waiters
    /// sleep on a condvar the event loop notifies per applied gossip —
    /// no busy-polling, so a hundred concurrent clients waiting for DDL
    /// to replicate cost nothing but memory.
    pub fn wait_for_table(&self, schema: &str, table: &str, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            // Epoch before check: gossip landing between the check and
            // the wait bumps the epoch, so the wait returns immediately
            // instead of losing the wakeup.
            let seen = self.notify.current();
            if self.hooks.catalog.table(schema, table).is_some() {
                return true;
            }
            if !self.notify.wait_past(seen, deadline) {
                return self.hooks.catalog.table(schema, table).is_some();
            }
        }
    }

    /// [`RingNode::wait_for_table`] as a deadline: `Err` carries which
    /// table never arrived and where, so a test hitting lost catalog
    /// gossip fails in seconds with the cause named instead of timing
    /// out minutes later on an opaque assert.
    pub fn wait_for_table_timeout(
        &self,
        schema: &str,
        table: &str,
        timeout: Duration,
    ) -> Result<(), DcError> {
        if self.wait_for_table(schema, table, timeout) {
            Ok(())
        } else {
            Err(DcError::Ring(format!(
                "table {schema}.{table} never replicated to node {} within {timeout:?} — \
                 catalog gossip lost",
                self.id
            )))
        }
    }

    /// Snapshot this node's hot-set view: one row per owned fragment
    /// (in-ring / on-disk / spilled, last LOI, version, size) plus the
    /// residency totals and the LOIT ladder position. Feeds the
    /// `dc.hotset` system view and the dcsh `.hotset` meta-statement.
    pub fn hotset(&self) -> Result<HotsetSnapshot, DcError> {
        Ok(self.hooks.hotset_snapshot()?)
    }

    /// This node's telemetry registry: counters, gauges, latency
    /// histograms, and the statement trace ring — everything the node
    /// counts, fed by the event loop, the protocol, transport metering
    /// and the SQL paths, and read as it stands by the `dc.*` system
    /// views and `dc-node metrics` (its [`dc_obs::Registry::render_text`]).
    /// `obs_ring_frames_rejected`, which the transport counts, is read
    /// from it by this call.
    pub fn obs(&self) -> &Arc<dc_obs::Registry> {
        self.hooks.registry()
    }

    /// The value of this node's counter `name` — the `dc.stats` row of
    /// that name — or `None` if the node keeps no counter by that name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.obs().counter_value(name)
    }

    /// This node's table catalog.
    pub fn ring_catalog(&self) -> &RingCatalog {
        &self.hooks.catalog
    }

    /// The loop answers every caller still waiting on it as it ends, the
    /// runner's statement included, so the runner is joined after it.
    fn stop(&mut self) {
        let _ = self.hooks.send(Cmd::Shutdown);
        if let Some(Ok(Some(runner))) = self.event_loop.take().map(JoinHandle::join) {
            let _ = runner.join();
        }
        self.hooks.transport.close();
    }

    /// Stop the node: event loop and pushed-SELECT runner, then transport
    /// links.
    pub fn shutdown(mut self) {
        self.stop();
    }
}

impl Drop for RingNode {
    fn drop(&mut self) {
        self.stop();
    }
}

/// A live in-process Data Cyclotron ring: `n` [`RingNode`]s over the
/// in-memory fabric. The drop-in fast path for tests, examples, and
/// single-machine deployments.
pub struct Ring {
    nodes: Vec<RingNode>,
}

/// Builder for [`Ring`].
pub struct RingBuilder {
    n: usize,
    opts: NodeOptions,
    data_dir_root: Option<PathBuf>,
    fsync: crate::config::FsyncPolicy,
}

impl RingBuilder {
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "a ring needs at least one node");
        RingBuilder {
            n,
            opts: NodeOptions::default(),
            data_dir_root: None,
            fsync: crate::config::FsyncPolicy::Always,
        }
    }

    pub fn config(mut self, cfg: DcConfig) -> Self {
        self.opts.cfg = cfg;
        self
    }

    pub fn pin_timeout(mut self, d: Duration) -> Self {
        self.opts.pin_timeout = d;
        self
    }

    /// Give every node a data dir under `root` (`root/node<i>`), turning
    /// on WAL + checkpointing — and making `mem_budget` effective.
    pub fn data_dir_root(mut self, root: impl Into<PathBuf>) -> Self {
        self.data_dir_root = Some(root.into());
        self
    }

    /// Fsync policy for the per-node data dirs (default: every record).
    pub fn fsync(mut self, policy: crate::config::FsyncPolicy) -> Self {
        self.fsync = policy;
        self
    }

    /// Per-node resident-bytes budget (see [`NodeOptions::mem_budget`]).
    pub fn mem_budget(mut self, bytes: u64) -> Self {
        self.opts.mem_budget = Some(bytes);
        self
    }

    pub fn build(self) -> Ring {
        let nodes = mem::ring(self.n)
            .into_iter()
            .enumerate()
            .map(|(i, t)| {
                let mut opts = self.opts.clone();
                if let Some(root) = &self.data_dir_root {
                    opts.data_dir =
                        Some(DataDir::new(root.join(format!("node{i}"))).fsync(self.fsync));
                }
                RingNode::spawn(NodeId(i as u16), Arc::new(t) as Arc<dyn RingTransport>, opts)
            })
            .collect();
        Ring { nodes }
    }
}

impl Ring {
    /// Start building an in-process ring of `n` nodes.
    ///
    /// ```
    /// use batstore::Column;
    /// use datacyclotron::Ring;
    ///
    /// let ring = Ring::builder(2).build();
    /// ring.load_table("sys", "t", vec![("id", Column::from(vec![1, 2, 3]))]).unwrap();
    /// let rs = ring.execute(0, "select id from t where id >= 2 order by id").unwrap();
    /// assert_eq!(rs.columns[0].data.tail(), &Column::from(vec![2, 3]));
    /// ```
    pub fn builder(n: usize) -> RingBuilder {
        RingBuilder::new(n)
    }

    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    pub fn node(&self, i: usize) -> &RingNode {
        &self.nodes[i]
    }

    /// Create a table whose column fragments are spread over the ring
    /// round-robin — the paper's startup placement ("the BATs are
    /// randomly assigned to nodes in the ring"). The metadata gossip
    /// starts at the first owner and the call returns once every node's
    /// replica has it. A name longer than SQL lets an identifier be is
    /// refused.
    pub fn load_table(
        &self,
        schema: &str,
        table: &str,
        cols: Vec<(&str, Column)>,
    ) -> Result<(), MalError> {
        check_names(schema, table, &cols)?;
        let (n, count) = (self.nodes.len(), cols.len());
        let mut shares: Vec<Vec<_>> = self.nodes.iter().map(|_| Vec::new()).collect();
        for (idx, col) in cols.into_iter().enumerate() {
            shares[idx % n].push(col);
        }
        let mut stored = shares
            .into_iter()
            .zip(&self.nodes)
            .map(|(share, node)| node.store_columns(share).map(Vec::into_iter))
            .collect::<Result<Vec<_>, _>>()?;
        let columns = (0..count).filter_map(|idx| stored[idx % n].next()).collect();
        let gossip = CatalogMsg {
            origin: self.nodes[0].id,
            schema: schema.to_string(),
            table: table.to_string(),
            columns,
        };
        self.nodes[0].hooks.send(Cmd::PublishTable { table: gossip, gossip: true })?;

        // The gossip circulates asynchronously; make the load synchronous
        // so a statement on any node immediately after sees the table.
        for node in &self.nodes {
            node.wait_for_table_timeout(schema, table, Duration::from_secs(10))
                .map_err(|e| MalError::Dc(e.message().to_string()))?;
        }
        Ok(())
    }

    /// Compile and execute one SQL statement on the given node,
    /// returning the typed [`ResultSet`] (the canonical query API; see
    /// [`RingNode::execute`]).
    pub fn execute(&self, node_idx: usize, sql: &str) -> Result<ResultSet, DcError> {
        self.nodes[node_idx].execute(sql)
    }

    /// Execute an already-compiled MAL plan on a node.
    pub fn run_plan(
        &self,
        node_idx: usize,
        qid: u64,
        plan: &mal::Program,
    ) -> Result<ResultSet, MalError> {
        self.nodes[node_idx].run_plan(qid, plan)
    }

    /// Compile `sql` against the given node's catalog and
    /// render both the front-end plan and its Data Cyclotron rewrite
    /// (EXPLAIN, Tables 1/2 style). Takes the node index like
    /// [`Ring::execute`] — each node compiles against its own replica.
    pub fn explain_sql(&self, node_idx: usize, sql: &str) -> Result<(String, String), MalError> {
        self.nodes[node_idx].explain_sql(sql)
    }

    pub fn shutdown(mut self) {
        for mut n in self.nodes.drain(..) {
            n.stop();
        }
    }
}

/// A bulk load's schema, table and column names keep to the SQL
/// parser's identifier limit: every name is logged and gossiped behind a
/// `u16` length, and one cut to fit would name another table or column.
fn check_names(schema: &str, table: &str, cols: &[(&str, Column)]) -> Result<(), MalError> {
    let mut names = [schema, table].into_iter().chain(cols.iter().map(|(name, _)| *name));
    match names.find(|name| name.len() > MAX_IDENT) {
        Some(name) => Err(MalError::BadCall(format!(
            "load_table: a name of {} bytes (max {MAX_IDENT})",
            name.len()
        ))),
        None => Ok(()),
    }
}
