//! The live-engine seam between the DBMS layer and the ring: the node's
//! table catalog, and blocking pin/unpin semantics (§4.2.1) implemented
//! over channels.
//!
//! [`RingCatalog`] is everything a node knows about tables: one entry
//! per `(schema, table)`, the [`CatalogMsg`] its owner gossips. The
//! request path, the SQL compiler, routing, the hot-set view and
//! checkpoints all read that entry, and only
//! [`RingCatalog::publish`] writes it.
//!
//! [`RingHooks`] is a node's one handle: its statement path (compile
//! through the template cache, then interpret linearly with
//! `mal::run_sequential_bound` on the thread that executes the statement)
//! and the [`mal::DcHooks`] implementation the DC optimizer injects into
//! plans. Query threads call it, and each command that needs an answer
//! carries a one-shot [`Reply`]; the node's event loop answers a pin when
//! its fragment arrives from the predecessor. What it hands the pin is a
//! [`Frag`], the fragment as the node holds it — the pinning query, not
//! the event loop, turns it into a `Bat`.

use crate::engine::NodeEvent;
use crate::error::DcError;
use crate::ids::{node_frag_id, BatId, NodeId, QueryId};
use crate::msg::{CatalogCol, CatalogMsg};
use crate::transport::RingTransport;
use batstore::ops::Mutation;
use batstore::{storage, Bat, BatStore, Catalog, ColType, Column, ResultSet};
use bytes::Bytes;
use crossbeam::channel::{RecvTimeoutError, Sender};
use mal::{DcHooks, MalError, SessionCtx};
use parking_lot::{Condvar, Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A node's table catalog. Each table is the [`CatalogMsg`] last
/// published for it: column names and types, fragment ids, owners, and
/// the sizes and §6.4 versions the owner last advertised. One lock
/// guards it and the two indexes derived from it.
#[derive(Default)]
pub struct RingCatalog {
    tables: RwLock<Tables>,
}

#[derive(Default)]
struct Tables {
    /// `schema.table` → the table's entry.
    by_name: HashMap<String, CatalogMsg>,
    /// Fragment → the `schema.table` whose entry names it.
    by_bat: HashMap<BatId, String>,
    /// The same tables as zero-row columns: names and types, for the SQL
    /// compiler.
    compiler: Catalog,
}

/// What [`RingCatalog::publish`] did with an advert.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Publish {
    /// A table the node did not know; the advert is its entry now.
    Added,
    /// The same fragments as the known table (column names, types,
    /// fragment ids and owners, in order): its sizes and versions are
    /// taken.
    Refreshed,
    /// Other fragments under a known name, or, for a new name, a fragment
    /// another table names: the catalog is untouched.
    Refused,
}

/// A statement [`RingCatalog::push_target`] sends away: to the owner of
/// `schema.table`, which receives `there` bytes to run it where this node
/// would receive `here`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Push {
    pub schema: String,
    pub table: String,
    pub there: u64,
    pub here: u64,
}

fn qual(schema: &str, table: &str) -> String {
    format!("{schema}.{table}")
}

fn same_fragments(a: &[CatalogCol], b: &[CatalogCol]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| (&x.name, x.ty, x.bat, x.owner) == (&y.name, y.ty, y.bat, y.owner))
}

impl Tables {
    fn outcome(&self, key: &str, c: &CatalogMsg) -> Publish {
        match self.by_name.get(key) {
            Some(known) if same_fragments(&known.columns, &c.columns) => Publish::Refreshed,
            Some(_) => Publish::Refused,
            None if c.columns.iter().any(|col| self.by_bat.contains_key(&col.bat)) => {
                Publish::Refused
            }
            None => Publish::Added,
        }
    }
}

impl RingCatalog {
    pub fn new() -> Self {
        Self::default()
    }

    /// What [`RingCatalog::publish`] would do with `c`, changing nothing.
    pub(crate) fn admits(&self, c: &CatalogMsg) -> Publish {
        self.tables.read().outcome(&qual(&c.schema, &c.table), c)
    }

    /// Publish an advert: the only write to a node's table metadata.
    /// A name is defined once on a node; later adverts for it may only
    /// refresh sizes and versions (see [`Publish`]).
    pub fn publish(&self, c: &CatalogMsg) -> Publish {
        let key = qual(&c.schema, &c.table);
        let mut tables = self.tables.write();
        let outcome = tables.outcome(&key, c);
        if outcome == Publish::Added {
            for col in &c.columns {
                tables.by_bat.insert(col.bat, key.clone());
            }
            let typed = c.columns.iter().map(|col| (col.name.as_str(), Column::empty(col.ty)));
            tables
                .compiler
                .create_table_columnar(&mut BatStore::new(), &c.schema, &c.table, typed.collect())
                .expect("the compiler's tables are the entries, and this name is new");
        }
        if outcome != Publish::Refused {
            tables.by_name.insert(key, c.clone());
        }
        outcome
    }

    /// The table's entry.
    pub fn table(&self, schema: &str, table: &str) -> Option<CatalogMsg> {
        self.tables.read().by_name.get(&qual(schema, table)).cloned()
    }

    /// Every table's entry (what a checkpoint records).
    pub(crate) fn tables(&self) -> Vec<CatalogMsg> {
        self.tables.read().by_name.values().cloned().collect()
    }

    /// One column of the table's entry.
    pub fn lookup(&self, schema: &str, table: &str, column: &str) -> Option<CatalogCol> {
        let tables = self.tables.read();
        let entry = tables.by_name.get(&qual(schema, table))?;
        entry.columns.iter().find(|col| col.name == column).cloned()
    }

    /// Whether some table names this fragment.
    pub fn names(&self, bat: BatId) -> bool {
        self.tables.read().by_bat.contains_key(&bat)
    }

    /// The `schema.table` naming this fragment (the hot-set view's
    /// `table` column).
    pub fn table_of(&self, bat: BatId) -> Option<String> {
        self.tables.read().by_bat.get(&bat).cloned()
    }

    /// Where an aggregate that reads `reads` runs instead of `here`,
    /// priced in the bytes a node must receive to run it — Beame, Koutris
    /// and Suciu's load: the catalog size of every column read that the
    /// node does not own. The sole owner of a table read that receives
    /// the fewest (the lowest id among equals) is the target when that is
    /// strictly fewer than `here` receives; ties stay here, and a table
    /// spread over several owners names no target. `None` too when a
    /// table or column read is unknown.
    pub fn push_target(&self, here: NodeId, reads: &[(&str, &str, &str)]) -> Option<Push> {
        let tables = self.tables.read();
        let mut cols = Vec::with_capacity(reads.len());
        let mut targets: Vec<(NodeId, &str, &str)> = Vec::new();
        for &(schema, table, column) in reads {
            let entry = tables.by_name.get(&qual(schema, table))?;
            let col = entry.columns.iter().find(|col| col.name == column)?;
            cols.push((col.owner, col.size));
            if let Some(owner) = entry.sole_owner().filter(|&owner| owner != here) {
                targets.push((owner, schema, table));
            }
        }
        let price =
            |node: NodeId| cols.iter().filter(|(owner, _)| *owner != node).map(|c| c.1).sum();
        let (there, _, schema, table) = targets
            .into_iter()
            .map(|(owner, schema, table)| (price(owner), owner, schema, table))
            .min_by_key(|&(bytes, owner, ..)| (bytes, owner))?;
        let here = price(here);
        (there < here).then(|| Push { schema: schema.into(), table: table.into(), there, here })
    }

    /// Run `f` over the tables' names and types, as the SQL compiler
    /// reads them.
    pub(crate) fn with_compiler<R>(&self, f: impl FnOnce(&Catalog) -> R) -> R {
        f(&self.tables.read().compiler)
    }
}

/// One fragment as a node holds it: a shared cell that is either the
/// `DCB1` bytes a frame brought or the `Bat` the kernels read, never
/// both. A cell built from an inbound frame's payload slice is decoded
/// at most once, on the first thread that asks, under the cell's own
/// lock; an owner's cell is its `Bat` from the start, and every payload
/// send encodes a fresh buffer from it (`NodeCtx::execute`). The event
/// loop passes a cell to waiters, the cache and the owner's store by
/// handle, without looking inside.
#[derive(Clone)]
pub struct Frag(Arc<Mutex<Sides>>);

enum Sides {
    /// Arrived off the ring and not yet pinned by anybody.
    Wire(Bytes),
    /// Decoded, or built by its owner. A cell that arrived as wire lets
    /// those bytes go when it is decoded (whoever forwards the frame
    /// holds its own handle), so every cell holds its fragment once.
    Bat(Arc<Bat>),
    /// Arrived as bytes that are not a BAT: every pin gets the reason.
    Corrupt(String),
}

/// Which side the cell holds, not the payload.
impl std::fmt::Debug for Frag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &*self.0.lock() {
            Sides::Wire(wire) => write!(f, "Frag::Wire({} bytes)", wire.len()),
            Sides::Bat(bat) => write!(f, "Frag::Bat({} rows)", bat.count()),
            Sides::Corrupt(reason) => write!(f, "Frag::Corrupt({reason})"),
        }
    }
}

impl Frag {
    /// The cell of a fragment its owner holds (or a node otherwise has
    /// in decoded form).
    pub fn from_bat(bat: Arc<Bat>) -> Frag {
        Frag(Arc::new(Mutex::new(Sides::Bat(bat))))
    }

    /// The cell of a fragment that arrived as a frame's payload.
    pub fn from_wire(wire: Bytes) -> Frag {
        Frag(Arc::new(Mutex::new(Sides::Wire(wire))))
    }

    /// The fragment as a `Bat`, decoding it if this is the first call on
    /// a cell that arrived as wire. Runs on the caller's thread: a pin
    /// pays for its own decode, and concurrent pins of one cell wait for
    /// the first instead of repeating it.
    pub fn bat(&self) -> Result<Arc<Bat>, String> {
        let mut sides = self.0.lock();
        let decoded = match &*sides {
            Sides::Bat(bat) => return Ok(Arc::clone(bat)),
            Sides::Corrupt(reason) => return Err(reason.clone()),
            Sides::Wire(wire) => storage::bat_from_bytes(wire),
        };
        match decoded {
            Ok(bat) => {
                let bat = Arc::new(bat);
                *sides = Sides::Bat(Arc::clone(&bat));
                Ok(bat)
            }
            Err(e) => {
                let reason = format!("payload is not a valid BAT: {e}");
                *sides = Sides::Corrupt(reason.clone());
                Err(reason)
            }
        }
    }
}

/// A node's fragment-id allocator for created and loaded tables, shared
/// by its handle and its event loop: ids in the node's own namespace
/// ([`node_frag_id`]), so allocations on different ring members never
/// collide.
pub(crate) struct FragIds {
    node: NodeId,
    next: AtomicU32,
}

impl FragIds {
    pub(crate) fn new(node: NodeId) -> FragIds {
        FragIds { node, next: AtomicU32::new(1) }
    }

    /// New fragments this node owns, one per named payload: the catalog
    /// columns naming them, at version 0, and the payloads to own.
    pub(crate) fn columns(
        &self,
        named: impl IntoIterator<Item = (String, Bat)>,
    ) -> (Vec<CatalogCol>, Vec<(BatId, Arc<Bat>)>) {
        let column = |(name, payload): (String, Bat)| {
            let bat = node_frag_id(self.node, self.next.fetch_add(1, Ordering::Relaxed));
            let (ty, size) = (payload.tail().col_type(), payload.byte_size() as u64);
            let col = CatalogCol { name, ty, bat, size, owner: self.node, version: 0 };
            (col, (bat, Arc::new(payload)))
        };
        named.into_iter().map(column).unzip()
    }

    /// Allocate past every id of this node's namespace in `taken`: a
    /// fresh CREATE or load must never collide with a recovered fragment.
    pub(crate) fn resume_past(&self, taken: impl IntoIterator<Item = BatId>) {
        let ns = node_frag_id(self.node, 0).0;
        let past = taken.into_iter().filter(|b| b.0 & 0xff00_0000 == ns).map(|b| b.0 - ns + 1);
        if let Some(next) = past.max() {
            self.next.fetch_max(next, Ordering::Relaxed);
        }
    }
}

/// How the event loop answers a caller blocked on it: the sending half of
/// a one-shot channel (`bounded(1)`) whose receiving half the caller waits
/// on. The loop sends once; a reply it drops unanswered — because the loop
/// stopped — wakes the caller at once (`RingHooks::ask`).
pub type Reply<T> = Sender<Result<T, String>>;

/// What a caller makes of its wait on a [`Reply`]: the answer, `timed_out`
/// once the wait ran out, or [`NODE_DOWN`] when the loop dropped the reply.
pub(crate) fn answered<T>(
    got: Result<Result<T, String>, RecvTimeoutError>,
    timed_out: &str,
) -> Result<T, String> {
    match got {
        Ok(answer) => answer,
        Err(RecvTimeoutError::Timeout) => Err(timed_out.to_string()),
        Err(RecvTimeoutError::Disconnected) => Err(NODE_DOWN.to_string()),
    }
}

/// Why a command to a node whose event loop has stopped fails.
const NODE_DOWN: &str = "ring node is down";

/// Wakes table-metadata waiters when catalog state changes: the event
/// loop bumps the epoch after every applied gossip or local DDL, and
/// [`crate::RingNode::wait_for_table`] blocks on the condvar instead of
/// busy-polling the catalog.
#[derive(Default)]
pub struct CatalogNotify {
    epoch: Mutex<u64>,
    cv: Condvar,
}

impl CatalogNotify {
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot the epoch *before* checking the condition it guards;
    /// pass it to [`CatalogNotify::wait_past`] so a change landing
    /// between check and wait is never missed.
    pub fn current(&self) -> u64 {
        *self.epoch.lock()
    }

    /// Announce a catalog change (called from the event loop).
    pub fn bump(&self) {
        *self.epoch.lock() += 1;
        self.cv.notify_all();
    }

    /// Block until the epoch moves past `seen` or `deadline` passes;
    /// returns whether it moved.
    pub fn wait_past(&self, seen: u64, deadline: Instant) -> bool {
        let mut epoch = self.epoch.lock();
        while *epoch == seen {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            if self.cv.wait_for(&mut epoch, deadline - now).timed_out() && *epoch == seen {
                return false;
            }
        }
        true
    }
}

/// Commands query threads send into a node's event loop.
pub enum Cmd {
    /// Register interest (the `datacyclotron.request` call).
    Request { query: QueryId, bat: BatId },
    /// Blocking pin, answered with the fragment's cell.
    Pin { query: QueryId, bat: BatId, reply: Reply<Frag> },
    /// Release a pin.
    Unpin { query: QueryId, bat: BatId },
    /// All work for the query is done (cleanup of S2/S3/cache).
    QueryDone { query: QueryId },
    /// Store owned fragment payloads at this node ("disk"): one bulk
    /// load's columns, made durable as one batch.
    StoreOwned { frags: Vec<(BatId, Arc<Bat>)> },
    /// SQL DDL: create a table whose (empty) column fragments this node
    /// owns; the metadata is gossiped clockwise around the ring.
    CreateTable { schema: String, table: String, cols: Vec<(String, ColType)>, ack: Reply<u64> },
    /// SQL INSERT/UPDATE/DELETE: a logical mutation. Applied in place
    /// when this node owns the table's fragments (version bump +
    /// re-advertise, §6.4); otherwise routed clockwise to the owner as a
    /// [`crate::msg::RoutedMsg`], with the ack answered when the owner's
    /// [`crate::msg::AckMsg`] comes back — so the caller reports a
    /// correct affected-row count even for remote mutations.
    Mutate { m: Mutation, ack: Reply<u64> },
    /// An aggregate SELECT another node receives fewer bytes to run
    /// ([`RingCatalog::push_target`]): routed to it as its SQL text (a
    /// [`crate::msg::RoutedStmt::Select`] addressed by the table it owns
    /// whole), `answer` sent what the owner made of it, `alive` set
    /// whenever the owner says it is still running it.
    PushSelect {
        push: Push,
        sql: String,
        answer: Reply<crate::routed::Pushed>,
        alive: Arc<std::sync::atomic::AtomicBool>,
    },
    /// Publish externally-assembled table metadata into this node's
    /// catalogs (driver-side loads); optionally gossip it clockwise.
    PublishTable { table: CatalogMsg, gossip: bool },
    /// Snapshot this node's hot-set view: per-fragment residency state
    /// and LOI, plus the node totals (the `dc.hotset` system view and
    /// the dcsh `.hotset` meta-statement read this).
    Hotset { ack: Reply<crate::hotset::HotsetSnapshot> },
    /// Stop the event loop.
    Shutdown,
}

/// The end-to-end statement latency histograms, in [`stmt_kind`] order:
/// one per [`STMT_KEYWORDS`] entry, then the pool for everything else.
const STMT_HIST_NAMES: [&str; STMT_KEYWORDS.len() + 1] = [
    "stmt_select_us",
    "stmt_insert_us",
    "stmt_update_us",
    "stmt_delete_us",
    "stmt_create_us",
    "stmt_other_us",
];

const STMT_KEYWORDS: [&str; 5] = ["select", "insert", "update", "delete", "create"];

/// Which [`STMT_HIST_NAMES`] histogram a SQL statement lands in, by its
/// leading keyword. Unknown statement shapes pool into `stmt_other_us`
/// rather than minting unbounded histogram names from user input.
fn stmt_kind(sql: &str) -> usize {
    let first = sql.split_whitespace().next().unwrap_or("");
    STMT_KEYWORDS
        .iter()
        .position(|kw| first.eq_ignore_ascii_case(kw))
        .unwrap_or(STMT_KEYWORDS.len())
}

/// Telemetry handles of the SQL choke point
/// ([`crate::RingNode::execute`]), resolved once at spawn so a statement
/// costs atomic bumps, not registry lookups.
struct SqlMetrics {
    statements: Arc<dc_obs::Counter>,
    errors: Arc<dc_obs::Counter>,
    stmt_hists: [Arc<dc_obs::Histogram>; STMT_HIST_NAMES.len()],
    template_hits: Arc<dc_obs::Counter>,
    template_misses: Arc<dc_obs::Counter>,
    template_entries: Arc<dc_obs::Gauge>,
}

impl SqlMetrics {
    fn new(obs: &dc_obs::Registry) -> SqlMetrics {
        SqlMetrics {
            statements: obs.counter("obs_sql_statements"),
            errors: obs.counter("obs_sql_errors"),
            stmt_hists: std::array::from_fn(|i| obs.histogram(STMT_HIST_NAMES[i])),
            template_hits: obs.counter("obs_template_hits"),
            template_misses: obs.counter("obs_template_misses"),
            template_entries: obs.gauge("obs_template_entries"),
        }
    }
}

/// A node's one handle, shared by the node's API, its event loop and
/// every plan it runs: the [`DcHooks`] wired into MAL plans, and the
/// statement path — compile against the node's catalog through its
/// template cache, then interpret the plan linearly
/// (`mal::run_sequential_bound`) against these hooks, on the thread that
/// executes the statement. The node's API runs every statement a caller
/// issues through it, and the node's pushed-SELECT runner every SELECT
/// another node pushed here.
pub struct RingHooks {
    pub(crate) tx: Sender<NodeEvent>,
    pub(crate) catalog: Arc<RingCatalog>,
    /// How long a blocked `pin`, a DDL/DML ack or a hot-set snapshot
    /// waits, and how long a pushed SELECT's origin waits without hearing
    /// that the owner is still running it.
    pub(crate) pin_timeout: Duration,
    /// The node's telemetry registry; `dc.*` system views read from it.
    pub(crate) obs: Arc<dc_obs::Registry>,
    /// The node's transport, which counts the frames it refused itself.
    pub(crate) transport: Arc<dyn RingTransport>,
    /// That count, as the registry shows it.
    frames_rejected: Arc<dc_obs::Gauge>,
    /// The session plans run in. Its catalog and store hold nothing:
    /// ring plans never `sql.bind`, and the data lives in the ring.
    session: SessionCtx,
    templates: mal::TemplateCache,
    sql_metrics: SqlMetrics,
    next_query: AtomicU64,
}

impl RingHooks {
    pub(crate) fn new(
        tx: Sender<NodeEvent>,
        catalog: Arc<RingCatalog>,
        pin_timeout: Duration,
        obs: Arc<dc_obs::Registry>,
        transport: Arc<dyn RingTransport>,
    ) -> RingHooks {
        RingHooks {
            tx,
            catalog,
            pin_timeout,
            frames_rejected: obs.gauge("obs_ring_frames_rejected"),
            transport,
            session: SessionCtx::new(Default::default(), Default::default()),
            templates: mal::TemplateCache::new(),
            sql_metrics: SqlMetrics::new(&obs),
            next_query: AtomicU64::new(1),
            obs,
        }
    }

    /// The node's registry, as every surface reads it: with the
    /// transport's refused-frame count brought up to date first.
    pub(crate) fn registry(&self) -> &Arc<dc_obs::Registry> {
        self.frames_rejected.set(self.transport.frames_rejected() as i64);
        &self.obs
    }

    pub(crate) fn next_query(&self) -> u64 {
        self.next_query.fetch_add(1, Ordering::Relaxed)
    }

    /// Compile and run `sql` on this node, wherever its fragments are:
    /// how a SELECT pushed here runs.
    pub(crate) fn run(self: &Arc<Self>, sql: &str) -> Result<ResultSet, DcError> {
        let qid = self.next_query();
        let (template, params) = self.compile(sql)?;
        Ok(self.run_bound(qid, &template, &params)?)
    }

    /// The query template (§3.2) of `sql`'s shape and the statement's own
    /// literals to bind to its parameter slots. Only a shape this node
    /// has not cached is code-generated (against this node's catalog) and
    /// optimized; a compile error caches nothing.
    pub(crate) fn compile(
        &self,
        sql: &str,
    ) -> Result<(Arc<mal::Program>, Vec<mal::Const>), MalError> {
        let parsed = sqlfront::parse_template(sql)?;
        let params = parsed.bindings()?;
        if let Some(template) = self.templates.get(&parsed.key) {
            self.sql_metrics.template_hits.inc();
            return Ok((template, params));
        }
        let plan = self.catalog.with_compiler(|c| sqlfront::compile_stmt(&parsed.stmt, c))?;
        let template = self.templates.insert(parsed.key, sqlfront::optimize(&plan));
        self.sql_metrics.template_misses.inc();
        self.sql_metrics.template_entries.set(self.templates.len() as i64);
        Ok((template, params))
    }

    /// Run a compiled plan with `params` bound to its parameter slots,
    /// as query `qid`, returning the typed result the plan's sink
    /// published.
    pub(crate) fn run_bound(
        self: &Arc<Self>,
        qid: u64,
        plan: &mal::Program,
        params: &[mal::Const],
    ) -> Result<ResultSet, MalError> {
        // A per-query session sharing the node's hooks.
        let session =
            SessionCtx::new(Arc::clone(&self.session.catalog), Arc::clone(&self.session.store))
                .with_dc(Arc::clone(self) as Arc<dyn DcHooks>)
                .with_query_id(qid);
        // Linear, on the thread that executes the statement (§3.2): the
        // DC optimizer sends every request before the first pin, so the
        // pins' ring waits overlap each other without a worker thread.
        let result = mal::run_sequential_bound(plan, params, &session);
        // Always clean up interest, success or failure.
        let _ = self.send(Cmd::QueryDone { query: QueryId(qid) });
        result?;
        Ok(session.take_result())
    }

    /// Count one statement `sql` that started at `start` and `failed` or
    /// not, under its kind's latency histogram.
    pub(crate) fn count_statement(&self, sql: &str, start: Instant, failed: bool) {
        let m = &self.sql_metrics;
        m.statements.inc();
        if failed {
            m.errors.inc();
        }
        m.stmt_hists[stmt_kind(sql)].record_elapsed_micros(start);
    }

    /// Snapshot the event loop's hot-set view (per-fragment residency
    /// and LOI; node-wide residency totals and LOIT position).
    pub(crate) fn hotset_snapshot(&self) -> Result<crate::hotset::HotsetSnapshot, MalError> {
        self.ask(|ack| Cmd::Hotset { ack }, "hotset request timed out")
    }

    /// A ticket is the fragment's id, so the hooks keep nothing per
    /// request; one the catalog does not name was never handed out.
    fn bat_of_ticket(&self, ticket: u64) -> Result<BatId, MalError> {
        u32::try_from(ticket)
            .map(BatId)
            .ok()
            .filter(|bat| self.catalog.names(*bat))
            .ok_or_else(|| MalError::Dc(format!("unknown ticket {ticket}")))
    }

    pub(crate) fn send(&self, cmd: Cmd) -> Result<(), MalError> {
        self.tx.send(NodeEvent::Cmd(cmd)).map_err(|_| MalError::Dc(NODE_DOWN.into()))
    }

    /// Send the command `cmd` builds around a fresh one-shot [`Reply`],
    /// and wait up to `pin_timeout` for the event loop's answer: it fails
    /// with `timed_out` once the wait runs out, and with [`NODE_DOWN`] as
    /// soon as the loop stops without answering.
    pub(crate) fn ask<T>(
        &self,
        cmd: impl FnOnce(Reply<T>) -> Cmd,
        timed_out: &str,
    ) -> Result<T, MalError> {
        let (reply, answer) = crossbeam::channel::bounded(1);
        self.send(cmd(reply))?;
        answered(answer.recv_timeout(self.pin_timeout), timed_out).map_err(MalError::Dc)
    }
}

impl DcHooks for RingHooks {
    fn request(
        &self,
        query: u64,
        schema: &str,
        table: &str,
        column: &str,
    ) -> Result<u64, MalError> {
        let info = self
            .catalog
            .lookup(schema, table, column)
            .ok_or_else(|| MalError::Dc(format!("unknown fragment {schema}.{table}.{column}")))?;
        self.send(Cmd::Request { query: QueryId(query), bat: info.bat })?;
        Ok(info.bat.0 as u64)
    }

    fn pin(&self, query: u64, ticket: u64) -> Result<Arc<Bat>, MalError> {
        let bat = self.bat_of_ticket(ticket)?;
        let frag = self.ask(|reply| Cmd::Pin { query: QueryId(query), bat, reply }, PIN_TIMEOUT)?;
        // The decode (if this fragment came off the ring and nobody
        // pinned it yet) happens here, on the query's thread; the event
        // loop has long since forwarded the frame.
        frag.bat().map_err(|e| {
            // The pin was granted on a payload nobody can use. Give it
            // back, so the cache lets the bad copy go instead of serving
            // it to the next query too.
            let _ = self.send(Cmd::Unpin { query: QueryId(query), bat });
            MalError::Dc(format!("fragment {bat}: {e}"))
        })
    }

    fn unpin(&self, query: u64, ticket: u64) -> Result<(), MalError> {
        let bat = self.bat_of_ticket(ticket)?;
        self.send(Cmd::Unpin { query: QueryId(query), bat })
    }

    fn create_table(
        &self,
        _query: u64,
        schema: &str,
        table: &str,
        cols: &[(String, ColType)],
    ) -> Result<(), MalError> {
        let timed_out = format!("CREATE TABLE {schema}.{table} timed out waiting for its node");
        let (schema, table, cols) = (schema.to_string(), table.to_string(), cols.to_vec());
        self.ask(|ack| Cmd::CreateTable { schema, table, cols, ack }, &timed_out).map(|_| ())
    }

    fn mutate_rows(&self, _query: u64, m: Mutation) -> Result<u64, MalError> {
        self.ask(|ack| Cmd::Mutate { m, ack }, MUT_ACK_TIMEOUT)
    }

    fn sys_view(&self, _query: u64, view: &str) -> Result<ResultSet, MalError> {
        let cols = match view {
            "stats" => {
                let stats = self.registry().stats();
                vec![
                    ("name", "str", strs(stats.iter().map(|(name, _)| name.as_str()))),
                    ("value", "lng", Column::from(stats.iter().map(|s| s.1).collect::<Vec<_>>())),
                ]
            }
            "latency" => {
                let hists = self.obs.histograms();
                let stat = |f: fn(&dc_obs::HistogramSnapshot) -> u64| {
                    Column::from(hists.iter().map(|(_, h)| f(h) as i64).collect::<Vec<_>>())
                };
                vec![
                    ("name", "str", strs(hists.iter().map(|(name, _)| name.as_str()))),
                    ("count", "lng", stat(|h| h.count)),
                    ("p50_us", "lng", stat(|h| h.p50())),
                    ("p95_us", "lng", stat(|h| h.p95())),
                    ("p99_us", "lng", stat(|h| h.p99())),
                    ("max_us", "lng", stat(|h| h.max)),
                ]
            }
            "trace" => {
                let events = self.obs.trace_events();
                let lng = |f: fn(&dc_obs::TraceEvent) -> u64| {
                    Column::from(events.iter().map(|e| f(e) as i64).collect::<Vec<_>>())
                };
                let nodes: Vec<i32> = events.iter().map(|e| e.node as i32).collect();
                vec![
                    ("ts_us", "lng", lng(|e| e.ts_micros)),
                    ("node", "int", Column::from(nodes)),
                    // Boot epochs are u64 nonces; the wrapping cast
                    // preserves equality, which is all the span join
                    // needs.
                    ("epoch", "lng", lng(|e| e.epoch)),
                    ("stmt", "lng", lng(|e| e.stmt)),
                    ("event", "str", strs(events.iter().map(|e| e.event))),
                    ("detail", "str", strs(events.iter().map(|e| e.detail.as_str()))),
                ]
            }
            "hotset" => {
                let rows = self.hotset_snapshot()?.rows;
                let lng = |f: fn(&crate::hotset::HotsetRow) -> i64| {
                    Column::from(rows.iter().map(f).collect::<Vec<_>>())
                };
                vec![
                    ("bat", "lng", lng(|r| r.bat.0 as i64)),
                    ("table", "str", strs(rows.iter().map(|r| r.table.as_str()))),
                    ("state", "str", strs(rows.iter().map(|r| r.state))),
                    ("loi", "dbl", Column::from(rows.iter().map(|r| r.loi).collect::<Vec<_>>())),
                    ("version", "lng", lng(|r| r.version as i64)),
                    ("size_bytes", "lng", lng(|r| r.size as i64)),
                ]
            }
            other => {
                return Err(MalError::Dc(format!(
                    "unknown system view dc.{other} (have: stats, latency, trace, hotset)"
                )))
            }
        };
        let mut rs = ResultSet::new();
        for (name, sql_type, col) in cols {
            rs.push_column(format!("dc.{view}"), name, sql_type, Arc::new(Bat::dense(col)));
        }
        Ok(rs)
    }
}

fn strs<'a>(vals: impl Iterator<Item = &'a str>) -> Column {
    Column::from(vals.collect::<Vec<_>>())
}

/// Timeout message for a pin whose fragment never came.
const PIN_TIMEOUT: &str = "pin timed out waiting for fragment";

/// Timeout message for a routed mutation whose ack never returned: the
/// owner may or may not have applied it (that status is unknowable from
/// here), which is exactly what the caller needs to hear.
const MUT_ACK_TIMEOUT: &str = "timed out waiting for the mutation acknowledgement from the \
                               fragment owner; whether the mutation applied is unknown";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::NodeId;
    use crossbeam::channel::Receiver;

    /// An advert for `schema.table` from `origin`: one column per
    /// `(name, type, fragment)`, owned by node 2, at size 100, version 0.
    fn advert(table: &str, origin: u16, cols: &[(&str, ColType, u32)]) -> CatalogMsg {
        let columns = cols
            .iter()
            .map(|&(name, ty, bat)| CatalogCol {
                name: name.to_string(),
                ty,
                bat: BatId(bat),
                size: 100,
                owner: NodeId(2),
                version: 0,
            })
            .collect();
        CatalogMsg { origin: NodeId(origin), schema: "sys".into(), table: table.into(), columns }
    }

    #[test]
    fn publish_adds_refreshes_or_refuses() {
        let c = RingCatalog::new();
        let t = advert("t", 2, &[("id", ColType::Int, 7), ("name", ColType::Str, 8)]);
        assert_eq!(c.admits(&t), Publish::Added);
        assert_eq!(c.publish(&t), Publish::Added);
        assert_eq!(c.table("sys", "t"), Some(t.clone()));
        assert!(c.with_compiler(|cat| cat.table("sys", "t").is_ok()));

        // The same fragments, gossiped on by another node at new sizes
        // and versions: every column takes them.
        let mut re = t.clone();
        re.origin = NodeId(0);
        for (i, col) in re.columns.iter_mut().enumerate() {
            (col.size, col.version) = (250 + i as u64, 4 + i as u32);
        }
        assert_eq!(c.publish(&re), Publish::Refreshed);
        let seen = ["id", "name"].map(|n| c.lookup("sys", "t", n).map(|f| (f.size, f.version)));
        assert_eq!(seen, [Some((250, 4)), Some((251, 5))]);
        assert_eq!(c.table("sys", "t"), Some(re.clone()));

        // Other fragments under the name — another column, type, id,
        // owner or order — leave the entry as it was.
        let mut owner = re.clone();
        owner.columns[1].owner = NodeId(1);
        let mut order = re.clone();
        order.columns.reverse();
        for other in [
            advert("t", 1, &[("b", ColType::Str, 0x0300_0001)]),
            advert("t", 1, &[("id", ColType::Lng, 7), ("name", ColType::Str, 8)]),
            advert("t", 1, &[("id", ColType::Int, 9), ("name", ColType::Str, 8)]),
            advert("t", 1, &[("id", ColType::Int, 7)]),
            owner,
            order,
        ] {
            assert_eq!(c.admits(&other), Publish::Refused, "{other:?}");
            assert_eq!(c.publish(&other), Publish::Refused, "{other:?}");
            assert_eq!(c.table("sys", "t"), Some(re.clone()));
            assert!(c.lookup("sys", "t", "b").is_none());
        }
        let names = c.with_compiler(|cat| {
            cat.table("sys", "t")
                .unwrap()
                .columns
                .iter()
                .map(|d| d.name.clone())
                .collect::<Vec<_>>()
        });
        assert_eq!(names, ["id", "name"]);

        // A new name may not claim a fragment another table names.
        let thief = advert("u", 1, &[("x", ColType::Int, 8)]);
        assert_eq!(c.publish(&thief), Publish::Refused);
        assert!(
            c.table("sys", "u").is_none() && c.with_compiler(|cat| cat.table("sys", "u").is_err())
        );
        assert_eq!(c.tables(), [re]);
    }

    #[test]
    fn fragments_resolve_to_their_table() {
        let c = RingCatalog::new();
        c.publish(&advert("t", 2, &[("id", ColType::Int, 7), ("name", ColType::Str, 8)]));
        c.publish(&advert("u", 2, &[("x", ColType::Int, 9)]));
        for (bat, table) in [(7, "sys.t"), (8, "sys.t"), (9, "sys.u")] {
            assert!(c.names(BatId(bat)));
            assert_eq!(c.table_of(BatId(bat)).as_deref(), Some(table));
        }
        assert!(!c.names(BatId(10)));
        assert_eq!(c.table_of(BatId(10)), None);
        assert!(c.lookup("sys", "t", "nope").is_none());
        assert!(c.lookup("sys", "nope", "id").is_none());
    }

    #[test]
    fn tickets_are_fragment_ids_and_hooks_keep_nothing_per_statement() {
        let catalog = Arc::new(RingCatalog::new());
        catalog.publish(&advert("t", 2, &[("id", ColType::Int, 0x0100_0007)]));
        // A refused advert hands out no tickets either.
        catalog.publish(&advert("t", 1, &[("id", ColType::Int, 0x0100_0008)]));
        let (tx, rx) = crossbeam::channel::unbounded();
        let obs = Arc::new(dc_obs::Registry::new(0));
        let fabric = Arc::new(crate::transport::mem::ring(1).remove(0));
        let hooks = RingHooks::new(tx, catalog, Duration::from_millis(10), obs, fabric);
        // The ten-thousandth statement gets the ticket the first one got:
        // it is a function of the catalog, not of what was asked before.
        for query in 0..10_000 {
            assert_eq!(hooks.request(query, "sys", "t", "id").unwrap(), 0x0100_0007);
        }
        let queued = || std::iter::from_fn(|| rx.try_recv().ok()).count();
        assert_eq!(queued(), 10_000, "one `Cmd::Request` each, nothing else");
        hooks.unpin(1, 0x0100_0007).unwrap();
        // Ids the catalog does not name, or that no fragment id can be.
        for ticket in [0, 0x0100_0008, u64::MAX] {
            let e = hooks.unpin(1, ticket).unwrap_err().to_string();
            assert!(e.contains(&format!("unknown ticket {ticket}")), "{e}");
            let e = hooks.pin(1, ticket).map(|_| ()).unwrap_err().to_string();
            assert!(e.contains("unknown ticket"), "{e}");
        }
        assert_eq!(queued(), 1, "the `Cmd::Unpin`: an unknown ticket reaches no event loop");
    }

    /// Hooks with no catalog over a loop channel whose receiver the test
    /// holds, waiting `timeout` for each answer.
    fn hooks_over(timeout: Duration) -> (RingHooks, Receiver<NodeEvent>) {
        let (tx, rx) = crossbeam::channel::unbounded();
        let obs = Arc::new(dc_obs::Registry::new(0));
        let fabric = Arc::new(crate::transport::mem::ring(1).remove(0));
        (RingHooks::new(tx, Arc::new(RingCatalog::new()), timeout, obs, fabric), rx)
    }

    /// A command `ask` sends is answered, runs out its wait and fails with
    /// its own message, or fails at once when the loop drops its reply.
    #[test]
    fn ask_is_answered_times_out_or_hears_the_node_is_down() {
        let timeout = Duration::from_millis(200);
        let (hooks, rx) = hooks_over(timeout);
        // The event loop: answers the first command, holds the second's
        // reply until the loop ends, drops the third's.
        let event_loop = std::thread::spawn(move || {
            let mut held = Vec::new();
            for (i, ev) in rx.iter().enumerate() {
                let NodeEvent::Cmd(Cmd::CreateTable { ack, .. }) = ev else { panic!("a create") };
                match i {
                    0 => ack.send(Ok(7)).unwrap(),
                    1 => held.push(ack),
                    _ => drop(ack),
                }
            }
        });
        let ask = || {
            let create =
                |ack| Cmd::CreateTable { schema: "s".into(), table: "t".into(), cols: vec![], ack };
            hooks.ask(create, "create timed out")
        };
        assert_eq!(ask().unwrap(), 7);
        let start = Instant::now();
        assert!(matches!(ask(), Err(MalError::Dc(e)) if e == "create timed out"));
        assert!(start.elapsed() >= timeout, "the wait ran out");
        assert!(matches!(ask(), Err(MalError::Dc(e)) if e == NODE_DOWN), "not the timeout");
        drop(hooks);
        event_loop.join().unwrap();
    }

    /// A loop that stops drops its receiver, and with it every queued
    /// command and its `Reply`: the caller hears at once that the node is
    /// down, not after its wait.
    #[test]
    fn a_command_queued_when_the_loop_stops_fails_at_once() {
        let (hooks, rx) = hooks_over(Duration::from_secs(30));
        let tx = hooks.tx.clone();
        let asker = std::thread::spawn(move || {
            let create =
                |ack| Cmd::CreateTable { schema: "s".into(), table: "t".into(), cols: vec![], ack };
            hooks.ask(create, "create timed out")
        });
        // Taken off and put back: the command is known to be queued.
        tx.send(rx.recv().unwrap()).unwrap();
        let stopped = Instant::now();
        drop(rx);
        let e = asker.join().unwrap().unwrap_err();
        assert!(matches!(e, MalError::Dc(ref e) if e == NODE_DOWN), "{e}");
        assert!(stopped.elapsed() < Duration::from_secs(1), "{:?}", stopped.elapsed());
    }

    /// A CREATE TABLE the loop never answers times out naming the table,
    /// not a pin the statement never made.
    #[test]
    fn an_unanswered_create_table_names_its_table() {
        let (hooks, _unread) = hooks_over(Duration::from_millis(50));
        let e = hooks.create_table(1, "sys", "orders", &[]).unwrap_err().to_string();
        assert!(e.contains("CREATE TABLE sys.orders timed out"), "{e}");
    }

    #[test]
    fn catalog_notify_wakes_waiters_and_times_out() {
        let n = Arc::new(CatalogNotify::new());
        let seen = n.current();
        // Timeout path: nothing bumps.
        assert!(!n.wait_past(seen, Instant::now() + Duration::from_millis(20)));
        // Wakeup path: a bump from another thread releases the waiter.
        let n2 = Arc::clone(&n);
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            n2.bump();
        });
        assert!(n.wait_past(seen, Instant::now() + Duration::from_secs(5)));
        h.join().unwrap();
        // A bump that landed before the wait is seen immediately.
        assert!(n.wait_past(seen, Instant::now() + Duration::from_secs(5)));
    }

    #[test]
    fn frag_decodes_once_and_holds_a_ring_copy_once() {
        let bat = Arc::new(Bat::dense(Column::from(vec![1, 2, 3])));
        // Owner side: the Bat is the cell.
        let owned = Frag::from_bat(Arc::clone(&bat));
        assert!(Arc::ptr_eq(&owned.bat().unwrap(), &bat));
        assert_eq!(format!("{owned:?}"), "Frag::Bat(3 rows)");

        // Ring side: a clone is the same cell, the decode happens once,
        // and the wire bytes are let go by it.
        let arrived = Frag::from_wire(Bytes::from(storage::bat_to_bytes(&bat)));
        let cached = arrived.clone();
        assert_eq!(format!("{cached:?}"), "Frag::Wire(34 bytes)");
        let first = arrived.bat().unwrap();
        assert!(Arc::ptr_eq(&first, &cached.bat().unwrap()), "decoded once, shared");
        assert_eq!(first.tail(), bat.tail());
        assert_eq!(format!("{cached:?}"), "Frag::Bat(3 rows)", "held once");
    }

    #[test]
    fn frag_remembers_a_corrupt_payload() {
        let frag = Frag::from_wire(Bytes::from_static(b"DCB1 but not really"));
        let e = frag.bat().unwrap_err();
        assert!(e.contains("not a valid BAT"), "{e}");
        assert_eq!(frag.clone().bat().unwrap_err(), e, "same answer for every pin");
        assert_eq!(format!("{frag:?}"), format!("Frag::Corrupt({e})"), "the bytes are let go");
    }

    /// One table's `(column, owner, size)` triples.
    type Owned<'a> = &'a [(&'a str, u16, u64)];

    /// A catalog of the tables given, every column an int.
    fn priced(tables: &[(&str, Owned)]) -> RingCatalog {
        let c = RingCatalog::new();
        let mut bat = 0;
        for &(table, cols) in tables {
            let columns = cols
                .iter()
                .map(|&(name, owner, size)| {
                    bat += 1;
                    CatalogCol {
                        name: name.into(),
                        ty: ColType::Int,
                        bat: BatId(bat),
                        size,
                        owner: NodeId(owner),
                        version: 0,
                    }
                })
                .collect();
            let msg = CatalogMsg {
                origin: NodeId(0),
                schema: "sys".into(),
                table: table.into(),
                columns,
            };
            assert_eq!(c.publish(&msg), Publish::Added);
        }
        c
    }

    /// `(table, there, here)` of where an aggregate reading `reads`
    /// asked at `here` goes.
    fn target(c: &RingCatalog, here: u16, reads: &[(&str, &str)]) -> Option<(String, u64, u64)> {
        let reads: Vec<_> = reads.iter().map(|&(t, col)| ("sys", t, col)).collect();
        let push = c.push_target(NodeId(here), &reads)?;
        assert_eq!(push.schema, "sys");
        Some((push.table, push.there, push.here))
    }

    #[test]
    fn an_aggregate_goes_where_the_fewest_bytes_must_travel() {
        // Q3's shape: customer at 0, orders at 1, lineitem at 2.
        let c = priced(&[
            ("customer", &[("c_key", 0, 50), ("c_seg", 0, 100)]),
            ("orders", &[("o_key", 1, 100), ("o_cust", 1, 100)]),
            ("lineitem", &[("l_key", 2, 400), ("l_price", 2, 400)]),
        ]);
        let q3 = [
            ("customer", "c_key"),
            ("customer", "c_seg"),
            ("orders", "o_key"),
            ("orders", "o_cust"),
            ("lineitem", "l_key"),
            ("lineitem", "l_price"),
        ];
        let to_lineitem = |here| Some(("lineitem".to_string(), 350, here));
        assert_eq!(target(&c, 0, &q3), to_lineitem(1000));
        assert_eq!(target(&c, 1, &q3), to_lineitem(950));
        assert_eq!(target(&c, 2, &q3), None, "lineitem's owner runs it");
        assert_eq!(target(&c, 3, &q3), to_lineitem(1150), "a node owning nothing");
        // Unknown tables and columns are nobody's to run.
        assert_eq!(target(&c, 0, &[("nope", "x")]), None);
        assert_eq!(target(&c, 0, &[("orders", "nope")]), None);
    }

    #[test]
    fn ties_and_empty_tables_stay_home() {
        let c = priced(&[
            ("a", &[("x", 0, 100)]),
            ("b", &[("y", 1, 100)]),
            ("c", &[("z", 2, 100)]),
            ("empty", &[("e", 1, 0), ("f", 1, 0)]),
        ]);
        // Here and there receive 100 bytes each.
        assert_eq!(target(&c, 0, &[("a", "x"), ("b", "y")]), None);
        // Two targets receive as few: the lower id runs it.
        assert_eq!(target(&c, 0, &[("b", "y"), ("c", "z")]), Some(("b".into(), 100, 200)));
        assert_eq!(target(&c, 0, &[("c", "z"), ("b", "y")]), Some(("b".into(), 100, 200)));
        // An empty table saves nothing anywhere, alone or joined.
        assert_eq!(target(&c, 0, &[("empty", "e"), ("empty", "f")]), None);
        assert_eq!(target(&c, 2, &[("empty", "e")]), None);
        // Joined to a table here, its owner would receive more than here.
        assert_eq!(target(&c, 0, &[("empty", "e"), ("a", "x")]), None);
        // Joined to a table elsewhere, that table's owner receives nothing.
        assert_eq!(target(&c, 0, &[("empty", "e"), ("c", "z")]), Some(("c".into(), 0, 100)));
        assert_eq!(target(&c, 2, &[("empty", "e"), ("c", "z")]), None);
    }

    #[test]
    fn a_table_split_over_owners_is_never_a_target() {
        let c = priced(&[("split", &[("p", 1, 500), ("q", 2, 500)]), ("small", &[("s", 3, 10)])]);
        let both = [("split", "p"), ("split", "q"), ("small", "s")];
        // Node 1 would receive 510 bytes, but owns no table whole: the
        // cheapest sole owner is node 3, which still saves on node 0.
        assert_eq!(target(&c, 0, &both), Some(("small".into(), 1000, 1010)));
        assert_eq!(target(&c, 1, &both), None, "510 here against 1000 there");
        assert_eq!(target(&c, 0, &[("split", "p"), ("split", "q")]), None);
    }

    /// Over one table, the price says what the old structural rule said:
    /// a non-empty table one other node owns whole is run there, and
    /// nothing else is pushed.
    #[test]
    fn a_single_table_aggregate_goes_to_its_sole_owner() {
        let c = priced(&[
            ("whole", &[("a", 1, 40), ("b", 1, 8)]),
            ("split", &[("a", 1, 40), ("b", 2, 8)]),
        ]);
        for here in 0..4 {
            for reads in [&[("whole", "a"), ("whole", "b")][..], &[("whole", "b")]] {
                let pushed = target(&c, here, reads).map(|(t, there, _)| (t, there));
                let expected = (here != 1).then(|| ("whole".to_string(), 0));
                assert_eq!(pushed, expected, "asked at {here}: {reads:?}");
            }
            let split = [("split", "a"), ("split", "b")];
            assert_eq!(target(&c, here, &split), None, "asked at {here}");
        }
    }
}
