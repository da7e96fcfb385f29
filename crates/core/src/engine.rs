//! The live multi-threaded Data Cyclotron ring.
//!
//! Every node runs its own event loop (thread) hosting the protocol state
//! machine plus the fragment payload stores. The loop is written purely
//! against the [`RingTransport`] trait (§4.3's network layer): data
//! messages flow clockwise and requests anti-clockwise over whatever
//! fabric the transport provides. [`Ring`] wires an in-process ring over
//! the built-in memory fabric; [`RingNode`] hosts a single node over any
//! transport — hand it `dc_transport::tcp::join_ring` and the identical
//! engine runs as one process of a real distributed deployment.
//!
//! Queries execute on caller threads through the full DBMS stack:
//! SQL → MAL → DC optimizer → dataflow interpreter, with `pin` calls
//! blocking until fragments flow past. Table metadata is *not* shared:
//! each node keeps one catalog ([`RingCatalog`]), kept in sync by
//! [`DcMsg::Catalog`] gossip circulating once around the ring, and
//! statements for a remote owner's fragments travel there as
//! [`DcMsg::Routed`] messages (§6.4; see [`crate::routed`]): every write,
//! and every aggregate that another node — the owner of one of its
//! tables — receives fewer bytes to run, which runs there and comes back
//! as its result.

use crate::catalog::OwnedState;
use crate::config::{DataDir, DcConfig};
use crate::error::DcError;
use crate::hotset::{HotsetRow, HotsetSnapshot, OwnedStore, Payload};
use crate::ids::{BatId, NodeId, QueryId};
use crate::msg::{AckMsg, Answer, CatalogCol, CatalogMsg, DcMsg, RoutedMsg, RoutedStmt};
use crate::proto::{DcNode, Effect, PinOutcome};
use crate::routed::{
    describe, Admit, Caller, Due, Pending, Routed, PUSHED_BACKLOG, PUSHED_RESULT_MAX,
};
use crate::runtime::{CatalogNotify, Cmd, Frag, Publish, Push, RingCatalog, RingHooks, Waiter};
use crate::stats::{trace, EngineStats};
use crate::transport::{mem, MeteredTransport, RingTransport};
use batstore::ops::{self, MutOp, Mutation};
use batstore::{storage, Bat, Column, ResultSet};
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use dc_persist::{
    CheckpointMetrics, Checkpointer, ColRec, Snapshot, TableRec, WalRecord, WalWriter,
};
use mal::{MalError, SessionCtx};
use netsim::SimTime;
use std::collections::{HashMap, HashSet, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The id of the `n`th fragment a node allocates, created or loaded: the
/// top byte is `(node % 255) + 1`, so ids of different owners never
/// collide and never overflow `u32`, and a restarted node resumes past
/// every id it recovered. Node 255 shares node 0's namespace — rings
/// that large are beyond this engine's scope (rings in the paper top out
/// at 64).
fn node_frag_id(node: NodeId, n: u32) -> BatId {
    BatId(((node.0 as u32 % 255 + 1) << 24) | (n & 0x00ff_ffff))
}

/// Durable form of a catalog message (what the WAL and snapshots hold).
fn table_rec(c: &CatalogMsg) -> TableRec {
    TableRec {
        origin: c.origin.0,
        schema: c.schema.clone(),
        table: c.table.clone(),
        cols: c
            .columns
            .iter()
            .map(|col| ColRec {
                name: col.name.clone(),
                ty: col.ty,
                bat: col.bat.0,
                size: col.size,
                owner: col.owner.0,
            })
            .collect(),
    }
}

fn catalog_msg(t: &TableRec) -> CatalogMsg {
    CatalogMsg {
        origin: NodeId(t.origin),
        schema: t.schema.clone(),
        table: t.table.clone(),
        columns: t
            .cols
            .iter()
            .map(|c| CatalogCol {
                name: c.name.clone(),
                ty: c.ty,
                bat: BatId(c.bat),
                size: c.size,
                owner: NodeId(c.owner),
                // Fragment versions are recovered from the checkpoint
                // (FragSnap), not the table record; the caller
                // refreshes owned columns before re-advertising.
                version: 0,
            })
            .collect(),
    }
}

/// The durability subsystem of one node: its WAL generation and the
/// background checkpointer. Present only when the node was spawned with
/// a [`DataDir`].
struct PersistCtx {
    dir: dc_persist::DataDir,
    wal: WalWriter,
    /// Active WAL generation (`wal-<gen>.log`).
    gen: u64,
    fsync: dc_persist::FsyncPolicy,
    checkpoint_wal_bytes: u64,
    bytes_since_checkpoint: u64,
    checkpointer: Checkpointer,
    /// The versions named by the snapshot the checkpointer is writing —
    /// at most one, its outcome a [`NodeEvent::Checkpointed`]. They
    /// become durable ([`OwnedStore::committed`]) on commit.
    in_flight: Option<Vec<(BatId, u32)>>,
    /// The tables (`schema.table`) the catalog holds whose `Table` record
    /// failed to log: the next advert of each logs it again.
    unlogged: HashSet<String>,
    /// WAL timing handles, kept so rotation can re-attach them to the
    /// fresh generation's writer (see [`NodeCtx::maybe_checkpoint`]).
    wal_append_hist: Arc<dc_obs::Histogram>,
    wal_sync_hist: Arc<dc_obs::Histogram>,
}

impl PersistCtx {
    /// Append `rec`. Toward the checkpoint trigger it counts its frame
    /// plus `rewritten`: payload bytes the record does not carry but a
    /// checkpoint settles — the bytes replaying a logical record
    /// rebuilds, or the file a spill wrote, whose predecessor only a
    /// checkpoint's GC deletes.
    fn log(&mut self, rec: &WalRecord, rewritten: u64) -> Result<u64, String> {
        let n = self.wal.append(rec).map_err(|e| format!("wal append: {e}"))?;
        self.bytes_since_checkpoint += n + rewritten;
        Ok(n)
    }
}

/// Events arriving at a node's event loop.
pub enum NodeEvent {
    /// A ring message, put here by the sink the node attached to its
    /// transport — on the thread that received it.
    Ring(DcMsg),
    /// DBMS-layer command (request/pin/unpin/…).
    Cmd(Cmd),
    /// The checkpointer finished the snapshot in flight; `committed`
    /// says whether it is now the node's checkpoint.
    Checkpointed { committed: bool },
    /// A SELECT pushed to this node as owner has run: the thread that
    /// ran it hands the result back, for the loop to send.
    Answered { origin: NodeId, epoch: u64, id: u64, result: Result<ResultSet, DcError> },
}

/// The payload of the `Bat` frame being handled — a frame that came as
/// its header alone has none: the bytes as they arrived, which is what
/// gets forwarded, and the cell over them that local waiters and the
/// cache share. The event loop looks inside neither. (The two are kept
/// apart because the cell lets its bytes go the moment some query
/// decodes it, which can be before the forward.)
struct Inbound {
    wire: Bytes,
    frag: Frag,
}

/// A fresh statement-id epoch for one node incarnation. Statement ids
/// restart at 1 on every spawn, so the dedup cache and ack matching key
/// on `(origin, epoch, id)`: without the epoch, a restarted origin's
/// reused ids could hit a surviving owner's cached results and fresh
/// statements would be acknowledged without ever applying. Wall-clock
/// nanos distinguish incarnations across process restarts; the counter
/// distinguishes nodes spawned within one clock tick.
fn fresh_boot_epoch() -> u64 {
    static SEQ: AtomicU64 = AtomicU64::new(1);
    let wall = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    wall.wrapping_add(SEQ.fetch_add(1, Ordering::Relaxed))
}

struct NodeCtx {
    node: DcNode,
    /// The engine's own counters; the protocol's are `node.stats`.
    stats: EngineStats,
    rx: Receiver<NodeEvent>,
    transport: Arc<dyn RingTransport>,
    /// This node's table catalog.
    catalog: Arc<RingCatalog>,
    /// The statement path pushed SELECTs run through on this node.
    statements: Arc<Statements>,
    /// Pushed SELECTs waiting for the one running to finish
    /// ([`NodeCtx::start_pushed`]); these and that one are what `routed`
    /// holds.
    pushed: VecDeque<PushedRun>,
    /// Whether a pushed SELECT is running.
    pushed_running: bool,
    /// Cached passing fragments (the §4.2.1 local cache): the very cells
    /// their frames arrived as.
    cache: HashMap<BatId, Frag>,
    /// Blocked pins per BAT.
    waiting: HashMap<BatId, Vec<(QueryId, Arc<Waiter>)>>,
    /// Fragment-id allocator for created and loaded tables, shared with
    /// the node handle and namespaced by node id so allocations on
    /// different ring members never collide.
    next_frag: Arc<AtomicU32>,
    /// Routed statements: the ones this node originated and awaits acks
    /// for, and the results of the ones it applied as owner.
    routed: Routed,
    /// Wakes `wait_for_table` callers when catalog state changes.
    notify: Arc<CatalogNotify>,
    /// Durable storage, when the node has a data dir.
    persist: Option<PersistCtx>,
    /// The node's telemetry registry (shared with [`RingHooks`] and the
    /// node handle): counters, latency histograms, and the trace ring.
    obs: Arc<dc_obs::Registry>,
    /// Per-[`DcMsg`]-kind handling-latency histograms, indexed by
    /// [`msg_kind`] so the hot loop never does a name lookup.
    msg_hists: [Arc<dc_obs::Histogram>; MSG_HIST_NAMES.len()],
    /// The owned fragments ("local disk"): each one's payload, resident
    /// or spilled, and its durable version, held to the memory budget.
    store: OwnedStore,
    /// How long a dirty spill took to write its file and record: a clean
    /// spill writes nothing and records no sample.
    spill_hist: Arc<dc_obs::Histogram>,
    /// Disk-to-ring latency of fragment re-admissions.
    readmit_hist: Arc<dc_obs::Histogram>,
    /// The LOIT ladder's current rung, set whenever the protocol tick
    /// may have moved it.
    loit_level: Arc<dc_obs::Gauge>,
    started: Instant,
    /// The protocol tick's period (`cfg.load_interval`, the `loadAll`
    /// period of §4.2.3) and when it is next due.
    load_interval: Duration,
    next_tick: Instant,
    /// Set by whatever made residency grow or took an owned fragment off
    /// the ring; the budget is enforced once the event is handled.
    budget_due: bool,
    /// Set by a WAL append or a checkpoint's outcome; the checkpoint
    /// trigger runs once the event is handled.
    checkpoint_due: bool,
}

/// Histogram index for a ring message (see [`NodeCtx::msg_hists`]).
fn msg_kind(msg: &DcMsg) -> usize {
    match msg {
        DcMsg::Bat { .. } => 0,
        DcMsg::Request(_) => 1,
        DcMsg::Catalog(_) => 2,
        DcMsg::Routed(r) => match &r.stmt {
            RoutedStmt::Mutate(m) if matches!(m.op, MutOp::Insert(_)) => 3,
            RoutedStmt::Mutate(_) => 4,
            RoutedStmt::Select { .. } => 6,
        },
        DcMsg::Ack(_) => 5,
    }
}

/// The histogram names backing [`NodeCtx::msg_hists`], in [`msg_kind`]
/// order.
const MSG_HIST_NAMES: [&str; 7] = [
    "dc_msg_bat_handle_us",
    "dc_msg_request_handle_us",
    "dc_msg_catalog_handle_us",
    "dc_msg_append_handle_us",
    "dc_msg_mutate_handle_us",
    "dc_msg_ack_handle_us",
    "dc_msg_select_handle_us",
];

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

/// Telemetry handles of the SQL choke point ([`RingNode::execute`]),
/// resolved once at spawn so a statement costs atomic bumps, not
/// registry lookups.
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

/// A node's statement path: compile against its catalog through its
/// template cache, then run on the dataflow interpreter against its
/// hooks. The node's handle runs every statement a caller issues through
/// it, and its event loop every SELECT another node pushed here.
struct Statements {
    tx: Sender<NodeEvent>,
    hooks: Arc<RingHooks>,
    /// The session plans run in. Its catalog and store hold nothing:
    /// ring plans never `sql.bind`, and the data lives in the ring.
    session: Arc<SessionCtx>,
    catalog: Arc<RingCatalog>,
    templates: mal::TemplateCache,
    sql_metrics: SqlMetrics,
    next_query: AtomicU64,
}

impl Statements {
    fn next_query(&self) -> u64 {
        self.next_query.fetch_add(1, Ordering::Relaxed)
    }

    /// Compile and run `sql` on this node, wherever its fragments are:
    /// how a SELECT pushed here runs.
    fn run(&self, sql: &str) -> Result<ResultSet, DcError> {
        let qid = self.next_query();
        let (template, params) = self.compile(sql)?;
        Ok(self.run_bound(qid, &template, &params)?)
    }

    /// The query template (§3.2) of `sql`'s shape and the statement's own
    /// literals to bind to its parameter slots. Only a shape this node
    /// has not cached is code-generated (against this node's catalog) and
    /// optimized; a compile error caches nothing.
    fn compile(&self, sql: &str) -> Result<(Arc<mal::Program>, Vec<mal::Const>), MalError> {
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
    fn run_bound(
        &self,
        qid: u64,
        plan: &mal::Program,
        params: &[mal::Const],
    ) -> Result<ResultSet, MalError> {
        // A per-query session sharing the node's hooks.
        let session =
            SessionCtx::new(Arc::clone(&self.session.catalog), Arc::clone(&self.session.store))
                .with_dc(self.hooks.clone() as Arc<dyn mal::DcHooks>)
                .with_query_id(qid);
        let result = mal::run_dataflow_bound(plan, params, &session, 4);
        // Always clean up interest, success or failure.
        let _ = self.tx.send(NodeEvent::Cmd(Cmd::QueryDone { query: QueryId(qid) }));
        result?;
        Ok(session.take_result())
    }
}

/// A SELECT another node pushed here, queued to run.
struct PushedRun {
    origin: NodeId,
    epoch: u64,
    id: u64,
    sql: String,
}

/// Run a pushed SELECT through the node's own statement path — its pins
/// are owner-local, a spilled column is re-admitted as for any local
/// statement — and hand the result back ([`NodeEvent::Answered`]) for the
/// event loop to send.
fn run_pushed(statements: &Statements, PushedRun { origin, epoch, id, sql }: PushedRun) {
    // A panic is answered, not lost with the thread: unanswered, the
    // statement would stay held, and its origin waiting, for good.
    let run = std::panic::AssertUnwindSafe(|| statements.run(&sql));
    let result = std::panic::catch_unwind(run).unwrap_or_else(|_| {
        Err(DcError::Exec("the statement panicked at the fragment owner".into()))
    });
    let _ = statements.tx.send(NodeEvent::Answered { origin, epoch, id, result });
}

impl NodeCtx {
    /// `at` on the protocol's clock: time since the node started.
    fn sim_time(&self, at: Instant) -> SimTime {
        SimTime(at.duration_since(self.started).as_nanos() as u64)
    }

    /// Handle events until shutdown. Between events the loop sleeps until
    /// the earliest deadline — the protocol tick or a routed statement's
    /// ack — and after each event it runs only what is due: the timed
    /// duties whose deadline passed (so a steady stream of frames cannot
    /// starve them), then the budget and checkpoint triggers the event
    /// itself set.
    fn run(mut self) {
        loop {
            let next_due =
                self.routed.next_deadline().map_or(self.next_tick, |d| d.min(self.next_tick));
            let ev = self.rx.recv_timeout(next_due.saturating_duration_since(Instant::now()));
            self.node.set_time(self.sim_time(Instant::now()));
            match ev {
                Ok(NodeEvent::Ring(msg)) => {
                    let kind = msg_kind(&msg);
                    let start = Instant::now();
                    self.on_ring(msg);
                    self.msg_hists[kind].record_elapsed_micros(start);
                }
                Ok(NodeEvent::Cmd(cmd)) => {
                    if self.handle_cmd(cmd) {
                        return; // shutdown
                    }
                }
                Ok(NodeEvent::Checkpointed { committed }) => self.on_checkpointed(committed),
                Ok(NodeEvent::Answered { origin, epoch, id, result }) => {
                    self.pushed_running = false;
                    self.answer_pushed(origin, epoch, id, result);
                    self.start_pushed();
                }
                Err(crossbeam::channel::RecvTimeoutError::Timeout) => {}
                Err(crossbeam::channel::RecvTimeoutError::Disconnected) => return,
            }
            let now = Instant::now();
            if now >= self.next_tick {
                // One instant for both clocks: ticks are then at least
                // `load_interval` apart on the protocol's clock too, so
                // its `loadAll` gate never skips one.
                self.next_tick = now + self.load_interval;
                self.node.set_time(self.sim_time(now));
                let effects = self.node.tick();
                self.loit_level.set(self.node.ladder.level_index() as i64);
                self.execute(effects, None);
                // The lost-BAT clock may have taken fragments off the ring.
                self.budget_due = true;
            }
            if self.routed.next_deadline().is_some_and(|d| d <= now) {
                self.service_pending(now);
            }
            if std::mem::take(&mut self.budget_due) {
                self.enforce_budget();
            }
            if std::mem::take(&mut self.checkpoint_due) {
                self.maybe_checkpoint();
            }
        }
    }

    /// Resend routed statements whose ack deadline passed, and fail the
    /// ones whose retry budget is spent — so an origin blocked on a dead
    /// or severed owner edge errors out within the configured budget
    /// instead of hanging until the caller's pin timeout.
    fn service_pending(&mut self, now: Instant) {
        for due in self.routed.poll(now) {
            match due {
                Due::Resend { id, what, attempt, frame } => {
                    self.stats.retries.inc();
                    let detail = format_args!("{what}, attempt {attempt}");
                    self.obs.trace(self.routed.epoch(), id, trace::RETRY, detail);
                    // A failing resend (edge still severed) is fine: the
                    // next deadline fires again, and the budget bounds it.
                    let _ = self.transport.send_data(frame);
                }
                Due::TimedOut(p) => {
                    self.stats.timeouts.inc();
                    let detail = std::fmt::from_fn(|f| {
                        write!(f, "{} after {} attempts", p.what(), p.attempts)
                    });
                    self.obs.trace(self.routed.epoch(), p.msg.id, trace::TIMEOUT, detail);
                    let err = p.timeout_error();
                    self.settle(p, Err(err));
                }
            }
        }
    }

    /// Send a routed statement's first attempt and register it for
    /// ack-tracking; its `route` trace names it, then `why` it goes. A
    /// failed first send (severed edge) is absorbed: the retry schedule
    /// re-sends it, and the budget bounds the wait.
    fn route(&mut self, stmt: RoutedStmt, caller: Caller, why: &str) {
        let p = self.routed.begin(self.node.id, stmt, caller, Instant::now());
        self.obs.trace(p.msg.epoch, p.msg.id, trace::ROUTE, format_args!("{}{why}", p.what()));
        let _ = self.transport.send_data(DcMsg::Routed(p.msg.clone()));
    }

    /// Deliver a routed statement's answer to its origin: resolved
    /// locally when ownership moved to us mid-flight, otherwise as an
    /// [`AckMsg`] clockwise. A lost ack is counted loudly, but the
    /// origin's retry will re-deliver the statement, and the dedup cache
    /// will re-send a mutation's result (a SELECT runs again).
    fn answer_routed(&mut self, origin: NodeId, epoch: u64, id: u64, answer: Answer) {
        self.obs.trace(epoch, id, trace::ACK_SENT, format_args!("to {origin}"));
        if origin == self.node.id {
            self.take_answer(epoch, id, answer);
            return;
        }
        let ack = AckMsg { target: origin, epoch, id, answer };
        if let Err(e) = self.transport.send_data(DcMsg::Ack(ack)) {
            self.stats.mutation_acks_lost.inc();
            eprintln!(
                "[dc-node {}] statement {} answered but its ack could not be sent: {e}",
                self.node.id, id
            );
        }
    }

    /// A SELECT pushed here, as its table's owner, is queued to run
    /// ([`NodeCtx::start_pushed`]). A re-delivery of one held already is
    /// answered [`Answer::Running`] and not run again; one past the
    /// backlog is declined, and its origin runs it itself.
    fn take_pushed(&mut self, r: &RoutedMsg, sql: &str) {
        let (origin, epoch, id) = (r.origin, r.epoch, r.id);
        let answer = match self.routed.admit((origin.0, epoch, id)) {
            Admit::Run => {
                self.pushed.push_back(PushedRun { origin, epoch, id, sql: sql.to_string() });
                return self.start_pushed();
            }
            Admit::Running => {
                self.obs.trace(epoch, id, trace::DEDUP, "select re-delivered while running");
                Answer::Running
            }
            Admit::Busy => {
                Answer::Declined(format!("the owner holds {PUSHED_BACKLOG} pushed statements"))
            }
        };
        self.answer_routed(origin, epoch, id, answer);
    }

    /// Start the next queued pushed SELECT unless one is running. The
    /// event loop never runs one: each runs on a thread of its own that
    /// ends with the run, one at a time, so a node nobody pushes to keeps
    /// no thread for it.
    fn start_pushed(&mut self) {
        while !self.pushed_running {
            let Some(run) = self.pushed.pop_front() else { return };
            let (origin, epoch, id) = (run.origin, run.epoch, run.id);
            let statements = Arc::clone(&self.statements);
            let thread = std::thread::Builder::new().name("dc-pushed-select".into());
            match thread.spawn(move || run_pushed(&statements, run)) {
                Ok(_) => {
                    self.pushed_running = true;
                    self.obs.trace(epoch, id, trace::START, format_args!("select from {origin}"));
                }
                Err(e) => {
                    let err =
                        DcError::Ring(format!("cannot start a thread for the statement: {e}"));
                    self.answer_pushed(origin, epoch, id, Err(err));
                }
            }
        }
    }

    /// A pushed SELECT has run here: it is no longer held, and its result
    /// goes back to its origin — unless it is too large to travel as one
    /// frame ([`PUSHED_RESULT_MAX`]), when the origin is told to run the
    /// statement itself.
    fn answer_pushed(
        &mut self,
        origin: NodeId,
        epoch: u64,
        id: u64,
        result: Result<ResultSet, DcError>,
    ) {
        self.routed.release((origin.0, epoch, id));
        let detail = std::fmt::from_fn(|f| match &result {
            Ok(rs) => write!(f, "select, {} rows", rs.row_count()),
            Err(e) => write!(f, "select failed: {e}"),
        });
        self.obs.trace(epoch, id, trace::APPLY, detail);
        let size = result.as_ref().map_or(0, crate::msg::result_wire_size);
        let answer = if size > PUSHED_RESULT_MAX {
            Answer::Declined(format!("the result is {size} bytes, over {PUSHED_RESULT_MAX}"))
        } else {
            Answer::Selected(result)
        };
        self.answer_routed(origin, epoch, id, answer);
    }

    /// A routed mutation at its owner. A retry re-delivers the same
    /// statement id; the dedup cache replays the first outcome instead of
    /// growing or rewriting the fragments twice.
    fn apply_routed(&mut self, r: &RoutedMsg, m: &Mutation) -> Result<u64, String> {
        let what = describe(&r.stmt);
        let key = (r.origin.0, r.epoch, r.id);
        if let Some(cached) = self.routed.applied(key).cloned() {
            self.stats.mutations_deduped.inc();
            self.obs.trace(r.epoch, r.id, trace::DEDUP, format_args!("{what} re-delivered"));
            return cached;
        }
        let applied = self.apply_mutation(m);
        let detail = std::fmt::from_fn(|f| match &applied {
            Ok(rows) => write!(f, "{what}, {rows} rows"),
            Err(e) => write!(f, "{what} failed: {e}"),
        });
        if let (MutOp::Insert(given), Err(_)) = (&m.op, &applied) {
            self.stats.appends_dropped.add(given.len() as u64);
        }
        self.obs.trace(r.epoch, r.id, trace::APPLY, detail);
        self.routed.remember(key, applied.clone());
        applied
    }

    /// Append a durable change to the WAL (ahead of applying it); a
    /// no-op for diskless nodes. `rewritten`: see [`PersistCtx::log`].
    fn log_durable(&mut self, rec: &WalRecord, rewritten: u64) -> Result<(), String> {
        if let Some(p) = self.persist.as_mut() {
            let n = p.log(rec, rewritten)?;
            self.stats.wal_records.inc();
            self.stats.wal_bytes.add(n);
            self.checkpoint_due = true;
        }
        Ok(())
    }

    /// Make owned fragments' payloads durable at their versions: their
    /// `bats/<id>.v<version>.bat` files, synced as one batch
    /// ([`dc_persist::DataDir::write_fragments`]), then a `FragMeta` naming
    /// each, counting `rewritten` toward the checkpoint trigger once.
    /// Only after both is a version clean, so dropping its payload costs
    /// no further I/O. A bulk load stores its columns at version 0 this
    /// way, a dirty spill one fragment at the version it is at.
    fn store_durably(
        &mut self,
        frags: &[(BatId, u32, &Bat)],
        rewritten: u64,
    ) -> Result<(), String> {
        let Some(p) = self.persist.as_ref() else { return Ok(()) };
        p.dir
            .write_fragments(frags.iter().map(|&(bat, v, payload)| (bat.0, v, payload)), "tmp")
            .map_err(|e| format!("writing its file: {e}"))?;
        let mut rewritten = rewritten;
        for &(bat, version, _) in frags {
            let rec = WalRecord::FragMeta { bat: bat.0, version };
            self.log_durable(&rec, std::mem::take(&mut rewritten))?;
            self.store.stored(bat, version);
        }
        Ok(())
    }

    /// Once enough WAL has accumulated, rotate to a fresh generation and
    /// hand a snapshot of owned fragments + catalog to the background
    /// checkpointer. Appends keep flowing into the new generation while
    /// the checkpoint is written behind the node. Runs after an event
    /// that appended to the WAL or settled the previous checkpoint —
    /// never between a record and the change it logs.
    fn maybe_checkpoint(&mut self) {
        let Some(p) = self.persist.as_mut() else { return };
        if p.bytes_since_checkpoint < p.checkpoint_wal_bytes || p.in_flight.is_some() {
            return;
        }
        let next_gen = p.gen + 1;
        let mut wal = match WalWriter::create(&p.dir.wal_path(next_gen), p.fsync) {
            Ok(w) => w,
            Err(e) => {
                eprintln!("[dc-persist] cannot rotate WAL to gen {next_gen}: {e}");
                return;
            }
        };
        wal.set_metrics(Arc::clone(&p.wal_append_hist), Arc::clone(&p.wal_sync_hist));
        p.wal = wal;
        p.gen = next_gen;
        p.bytes_since_checkpoint = 0;
        // The writer skips the resident fragments whose version already
        // has its file.
        let frags = self.store.snapshot(&self.node.s1);
        let names = frags.iter().map(|f| (BatId(f.bat), f.version)).collect();
        let snap = Snapshot {
            node: self.node.id.0,
            replay_from: next_gen,
            tables: self.catalog.tables().iter().map(table_rec).collect(),
            frags,
        };
        if p.checkpointer.submit(snap) {
            self.stats.checkpoints.inc();
            p.in_flight = Some(names);
        }
    }

    /// The checkpointer finished the snapshot in flight. On a commit the
    /// versions it names are durable, unless a load or a spill made a
    /// later one durable meanwhile; on a failure what was durable stands.
    /// Either way the next snapshot may go.
    fn on_checkpointed(&mut self, committed: bool) {
        let Some(named) = self.persist.as_mut().and_then(|p| p.in_flight.take()) else { return };
        if committed {
            self.store.committed(named);
        }
        self.checkpoint_due = true;
    }

    fn on_ring(&mut self, msg: DcMsg) {
        match msg {
            DcMsg::Bat { header, payload } => {
                let effects = self.node.on_bat(header, payload.is_some());
                let inbound =
                    payload.map(|wire| Inbound { frag: Frag::from_wire(wire.clone()), wire });
                self.execute(effects, inbound.as_ref());
            }
            DcMsg::Request(req) => {
                let effects = self.node.on_request(req);
                self.execute(effects, None);
            }
            DcMsg::Catalog(c) => {
                if c.origin == self.node.id {
                    return; // completed its cycle
                }
                self.apply_catalog(&c);
                let _ = self.transport.send_data(DcMsg::Catalog(c));
            }
            DcMsg::Routed(r) => {
                let (schema, table) = r.stmt.table();
                if self.mutation_owner(schema, table) == Ok(self.node.id) {
                    self.routed.forget_settled(&r);
                    match &r.stmt {
                        RoutedStmt::Mutate(m) => {
                            let result = self.apply_routed(&r, m);
                            self.answer_routed(r.origin, r.epoch, r.id, Answer::Mutated(result));
                        }
                        RoutedStmt::Select { sql, .. } => self.take_pushed(&r, sql),
                    }
                } else if r.origin != self.node.id {
                    let _ = self.transport.send_data(DcMsg::Routed(r));
                } else {
                    // Back at the origin without finding an owner: the
                    // fragment is gone (the §4.2.3 analog of a request
                    // circling back); fail the blocked statement loudly.
                    if let RoutedStmt::Mutate(Mutation { op: MutOp::Insert(_), .. }) = r.stmt {
                        self.stats.appends_dropped.inc();
                    }
                    let err = format!("no owner found for {schema}.{table} (fragments gone?)");
                    self.finish_routed(r.epoch, r.id, Err(err));
                }
            }
            DcMsg::Ack(a) => {
                if a.target == self.node.id {
                    self.take_answer(a.epoch, a.id, a.answer);
                } else {
                    let _ = self.transport.send_data(DcMsg::Ack(a));
                }
            }
        }
    }

    /// An answer to a statement this node originated: a pushed SELECT
    /// the owner is still running stays pending, with its budget started
    /// over; any other answer resolves its statement.
    fn take_answer(&mut self, epoch: u64, id: u64, answer: Answer) {
        if !matches!(answer, Answer::Running) {
            return self.finish_routed(epoch, id, Ok(answer));
        }
        if let Some(p) = self.routed.keep_alive(epoch, id, Instant::now()) {
            self.obs.trace(epoch, id, trace::RUNNING, p.what());
        }
    }

    /// Resolve a routed statement at its origin: with the owner's answer,
    /// or (`Err`) because it came home unowned. One that matches nothing
    /// pending (see [`Routed::ack`]) has no side effects — counting
    /// failures there would double-book them.
    fn finish_routed(&mut self, epoch: u64, id: u64, outcome: Result<Answer, String>) {
        let Some(p) = self.routed.ack(epoch, id) else { return };
        let detail = std::fmt::from_fn(|f| match &outcome {
            Ok(Answer::Mutated(Ok(rows))) => write!(f, "{} ok, {rows} rows", p.what()),
            Ok(Answer::Selected(Ok(rs))) => write!(f, "{} ok, {} rows", p.what(), rs.row_count()),
            Ok(Answer::Selected(Err(e))) => write!(f, "{} failed: {e}", p.what()),
            Ok(Answer::Mutated(Err(e))) | Err(e) => write!(f, "{} failed: {e}", p.what()),
            Ok(Answer::Declined(why)) => write!(f, "{} declined: {why}", p.what()),
            Ok(Answer::Running) => write!(f, "{} still running", p.what()),
        });
        self.obs.trace(epoch, id, trace::ACK, detail);
        self.settle(p, outcome);
    }

    /// A routed statement this node originated is over (answered, or
    /// failed here): book a write's failure and wake the caller.
    fn settle(&mut self, p: Pending, outcome: Result<Answer, String>) {
        let failed = matches!(outcome, Err(_) | Ok(Answer::Mutated(Err(_))));
        if let (RoutedStmt::Mutate(m), true) = (&p.msg.stmt, failed) {
            match m.op {
                MutOp::Insert(_) => self.stats.appends_failed.inc(),
                MutOp::Update(_) | MutOp::Delete => self.stats.mutations_failed.inc(),
            }
        }
        p.caller.settle(outcome);
    }

    /// The owned fragment's payload, reloaded from the file of the
    /// version it was spilled at if it is not in RAM. That version is the
    /// one S1 still records (spilled fragments are immutable — mutations
    /// reload first), and the reloaded payload is clean: the file it came
    /// from stays, so spilling it again costs nothing. The budget is
    /// enforced once the current event is handled, not now: the caller is
    /// about to use the payload.
    fn ensure_resident(&mut self, bat: BatId) -> Result<Arc<Bat>, String> {
        let version = match (self.store.payload(bat), self.node.s1.get(bat)) {
            (Some(Payload::Resident(payload)), _) => return Ok(Arc::clone(payload)),
            (Some(Payload::Spilled), Some(owned)) => owned.version,
            _ => return Err(format!("node {} does not own {bat}", self.node.id)),
        };
        let dir = &self.persist.as_ref().ok_or("a spill without a data dir")?.dir;
        let start = Instant::now();
        let payload = storage::load_bat(&dir.bat_path(bat.0, version))
            .map(Arc::new)
            .map_err(|e| format!("reloading spilled {bat}: {e}"))?;
        self.store.reload(&self.node.s1, bat, Arc::clone(&payload));
        self.budget_due = true;
        self.stats.loi_readmits.inc();
        self.readmit_hist.record_elapsed_micros(start);
        let size = payload.byte_size();
        let detail = format_args!("{bat} reloaded from disk ({size} bytes, spilled at v{version})");
        self.obs.trace(self.routed.epoch(), 0, trace::READMIT, detail);
        Ok(payload)
    }

    /// Move a cold fragment's payload out of RAM, within the event that
    /// chose it, leaving `bats/<id>.v<version>.bat` the only copy. Nobody
    /// is told — the next request to reach this owner finds the fragment
    /// off the ring and reloads it (Fig. 3 outcome 4). A *clean* victim —
    /// still at a version whose file a committed record names — is
    /// dropped at once. A *dirty* one first gets that file and record
    /// ([`NodeCtx::store_durably`]), whatever checkpoint is in flight:
    /// its GC deletes only versions below the ones it names. A victim
    /// whose write fails stays resident, counted in `obs_persist_errors`.
    /// No-op if the payload is not resident, or without a memory budget
    /// (nothing to enforce: the payload just stops circulating and stays
    /// resident). A node without a data dir has no budget: it has nowhere
    /// to put the at-rest copy.
    fn spill(&mut self, bat: BatId) {
        if self.store.mem_budget().is_none() {
            return;
        }
        let (Some(Payload::Resident(payload)), Some(owned)) =
            (self.store.payload(bat), self.node.s1.get(bat))
        else {
            return;
        };
        let (payload, version, size) = (Arc::clone(payload), owned.version, owned.size);
        if !self.store.is_clean(&self.node.s1, bat) {
            let start = Instant::now();
            if let Err(e) = self.store_durably(&[(bat, version, &payload)], size) {
                self.stats.obs_persist_errors.inc();
                eprintln!("[dc-node {}] fragment {bat} v{version} not spilled: {e}", self.node.id);
                return;
            }
            self.spill_hist.record_elapsed_micros(start);
        }
        if !self.store.spill(&self.node.s1, bat) {
            return;
        }
        self.stats.loi_evictions.inc();
        let detail = format_args!("{bat} spilled ({size} bytes, v{version})");
        self.obs.trace(self.routed.epoch(), 0, trace::EVICT, detail);
    }

    /// Spill the coldest off-ring fragments until residency fits the
    /// memory budget. Runs after residency grew or an owned fragment left
    /// the ring.
    fn enforce_budget(&mut self) {
        for bat in self.store.victims(&self.node.s1) {
            self.spill(bat);
        }
    }

    /// One row per owned fragment plus the node-wide residency totals,
    /// for the `dc.hotset` view and the dcsh `.hotset` meta-statement.
    fn hotset_snapshot(&self) -> HotsetSnapshot {
        let mut rows: Vec<HotsetRow> = self
            .node
            .s1
            .iter()
            .map(|(bat, o)| {
                let state = match (self.store.payload(bat), o.state) {
                    (Some(Payload::Spilled), _) => "spilled",
                    (_, OwnedState::InRing { .. }) => "in-ring",
                    (_, OwnedState::Loading) => "loading",
                    (_, OwnedState::Pending { .. }) => "pending",
                    (_, OwnedState::OnDisk) => "on-disk",
                };
                let table = self.catalog.table_of(bat).unwrap_or_else(|| "?".into());
                HotsetRow { bat, table, state, loi: o.last_loi, version: o.version, size: o.size }
            })
            .collect();
        rows.sort_by_key(|r| r.bat.0);
        HotsetSnapshot {
            rows,
            loit: self.node.ladder.current(),
            loit_level: self.node.ladder.level_index(),
            resident_bytes: self.store.resident_bytes(),
            spilled_bytes: self.store.spilled_bytes(),
            mem_budget: self.store.mem_budget(),
        }
    }

    /// Publish an advert into this node's catalog (see
    /// [`RingCatalog::publish`]); one naming other fragments than the
    /// table this node knows is refused and traced. A table the node
    /// holds no durable record of — new to it, or one whose `Table` record
    /// failed to log — is WAL-logged first. A WAL failure cannot reject
    /// the advert (its origin already committed): the node serves the
    /// table from memory, `obs_persist_errors` counts the failure, and the
    /// table's next advert logs it again.
    fn apply_catalog(&mut self, c: &CatalogMsg) {
        let name = format!("{}.{}", c.schema, c.table);
        let outcome = self.catalog.admits(c);
        if outcome == Publish::Refused {
            let detail =
                format_args!("{name} from {}: not the fragments this node knows", c.origin);
            self.obs.trace(0, 0, trace::GOSSIP_REFUSED, detail);
            return;
        }
        let unlogged = self.persist.as_ref().is_some_and(|p| p.unlogged.contains(&name));
        if outcome == Publish::Added || unlogged {
            let logged = self.log_durable(&WalRecord::Table(table_rec(c)), 0);
            if let Some(p) = self.persist.as_mut() {
                match &logged {
                    Ok(()) => p.unlogged.remove(&name),
                    Err(_) => p.unlogged.insert(name.clone()),
                };
            }
            if let Err(e) = logged {
                self.stats.obs_persist_errors.inc();
                eprintln!("[dc-node {}] table {name} applied but not durable: {e}", self.node.id);
            }
        }
        self.catalog.publish(c);
        self.stats.obs_gossip_applied.inc();
        self.obs.trace(0, 0, trace::GOSSIP, format_args!("{name} from {}", c.origin));
        self.notify.bump();
    }

    /// The version an owned fragment's next change produces (§6.4).
    fn next_version(&self, bat: BatId) -> u32 {
        self.node.s1.get(bat).map(|o| o.version + 1).unwrap_or(1)
    }

    /// Returns true on shutdown.
    fn handle_cmd(&mut self, cmd: Cmd) -> bool {
        match cmd {
            Cmd::Request { query, bat } => {
                let effects = self.node.local_request(query, bat);
                self.execute(effects, None);
            }
            Cmd::Pin { query, bat, waiter } => {
                let (outcome, effects) = self.node.pin(query, bat);
                self.execute(effects, None);
                match outcome {
                    PinOutcome::OwnedLocal => {
                        // The owned payload may have been spilled; a
                        // local pin re-admits it synchronously.
                        waiter.fulfill(self.ensure_resident(bat).map(Frag::from_bat));
                    }
                    PinOutcome::Cached => {
                        let r = self
                            .cache
                            .get(&bat)
                            .cloned()
                            .ok_or_else(|| format!("cached fragment {bat} missing payload"));
                        waiter.fulfill(r);
                    }
                    PinOutcome::MustWait => {
                        self.waiting.entry(bat).or_default().push((query, waiter));
                    }
                }
            }
            Cmd::Unpin { query, bat } => {
                let effects = self.node.unpin(query, bat);
                self.execute(effects, None);
            }
            Cmd::QueryDone { query } => {
                let effects = self.node.query_done(query);
                self.execute(effects, None);
            }
            Cmd::StoreOwned { frags } => {
                // Driver-side bulk load. A durability failure cannot
                // reject it (no ack channel): a fragment left without its
                // record stays resident and dirty — never dropped before
                // its spill or a checkpoint has written it — and
                // `obs_persist_errors` counts the failed load.
                for (bat, payload) in &frags {
                    self.store.own(&mut self.node.s1, *bat, 0, Arc::clone(payload));
                }
                self.budget_due = true;
                let versions: Vec<_> = frags.iter().map(|(bat, p)| (*bat, 0, &**p)).collect();
                if let Err(e) = self.store_durably(&versions, 0) {
                    self.stats.obs_persist_errors.inc();
                    eprintln!("[dc-node {}] a bulk load is not durable: {e}", self.node.id);
                }
            }
            Cmd::CreateTable { schema, table, cols, ack } => {
                ack.fulfill(self.create_table(&schema, &table, &cols));
            }
            Cmd::Mutate { m, ack } => {
                // The ring and the WAL carry the statement in one encoding;
                // one it cannot hold is refused before anything happens.
                match m.check_encodable().and_then(|()| self.mutation_owner(&m.schema, &m.table)) {
                    Err(e) => ack.fulfill(Err(e)),
                    Ok(owner) if owner == self.node.id => ack.fulfill(self.apply_mutation(&m)),
                    Ok(_) => {
                        // Route the logical mutation clockwise to the
                        // owner; the ack resolves when the Ack comes
                        // back, and the per-attempt timeout resends it
                        // (or fails it) if the ack never does.
                        if !matches!(m.op, MutOp::Insert(_)) {
                            self.stats.mutations_routed.inc();
                        }
                        self.route(RoutedStmt::Mutate(m), Caller::Mutation(ack), "");
                    }
                }
            }
            Cmd::PushSelect { push: Push { schema, table, there, here }, sql, answer, alive } => {
                self.stats.selects_pushed.inc();
                self.route(
                    RoutedStmt::Select { schema, table, sql },
                    Caller::Select { answer, alive },
                    &format!(": {there} B there vs {here} B here"),
                );
            }
            Cmd::Hotset { ack } => {
                ack.fulfill(Ok(self.hotset_snapshot()));
            }
            Cmd::PublishTable { table, gossip } => {
                self.apply_catalog(&table);
                if gossip {
                    let _ = self.transport.send_data(DcMsg::Catalog(table));
                }
            }
            Cmd::Shutdown => {
                // Graceful exit: whatever the fsync policy deferred goes
                // to disk now.
                if let Some(p) = self.persist.as_mut() {
                    let _ = p.wal.sync();
                }
                return true;
            }
        }
        false
    }

    /// SQL `CREATE TABLE` at this node: it becomes the owner of the new
    /// (empty) column fragments and gossips the metadata clockwise.
    fn create_table(
        &mut self,
        schema: &str,
        table: &str,
        cols: &[(String, batstore::ColType)],
    ) -> Result<u64, String> {
        if self.catalog.table(schema, table).is_some() {
            return Err(format!("table {schema}.{table} already exists"));
        }
        let id = self.node.id;
        let mut columns = Vec::with_capacity(cols.len());
        let mut payloads = Vec::with_capacity(cols.len());
        for (name, ty) in cols {
            let bat = self.alloc_frag_id();
            let payload = Arc::new(Bat::empty(*ty));
            let size = payload.byte_size() as u64;
            payloads.push((bat, payload));
            columns.push(CatalogCol {
                name: name.clone(),
                ty: *ty,
                bat,
                size,
                owner: id,
                version: 0,
            });
        }
        let gossip = CatalogMsg {
            origin: id,
            schema: schema.to_string(),
            table: table.to_string(),
            columns,
        };
        // WAL ahead of every in-memory effect: a failure rejects the DDL
        // outright rather than acknowledging a table that would vanish
        // on restart.
        self.log_durable(&WalRecord::Table(table_rec(&gossip)), 0)?;
        for (bat, payload) in payloads {
            self.store.own(&mut self.node.s1, bat, 0, payload);
        }
        self.budget_due = true;
        self.catalog.publish(&gossip);
        self.notify.bump();
        let _ = self.transport.send_data(DcMsg::Catalog(gossip));
        Ok(0)
    }

    /// The table's entry in this node's catalog.
    fn table_entry(&self, schema: &str, table: &str) -> Result<CatalogMsg, String> {
        self.catalog.table(schema, table).ok_or_else(|| format!("unknown table {schema}.{table}"))
    }

    /// The single node owning every fragment of the table, or an error:
    /// a mutation split across owners could not be applied atomically.
    /// SQL-created tables are always single-owner; spread (round-robin
    /// loaded) tables take no INSERT, UPDATE or DELETE for now.
    fn mutation_owner(&self, schema: &str, table: &str) -> Result<NodeId, String> {
        let entry = self.table_entry(schema, table)?;
        match entry.sole_owner() {
            Some(owner) => Ok(owner),
            None if entry.columns.is_empty() => Err(format!("{schema}.{table} has no columns")),
            None => Err(format!(
                "mutating {schema}.{table} is not supported: its fragments are owned by \
                 multiple nodes and a split mutation would not be atomic"
            )),
        }
    }

    /// Apply a logical INSERT/UPDATE/DELETE at this node, the fragment
    /// owner (§6.4): stage it against the authoritative payloads
    /// ([`ops::stage`], which WAL replay runs too), log the statement and
    /// the versions it reaches as *one* record, then install the next
    /// versions ([`OwnedStore::install`]), and publish and gossip the
    /// table's next advert — one catalog write — so every replica
    /// converges on the new (size, version) view (§6.4's "propagates f").
    /// Because staging and logging precede every in-memory change,
    /// neither a WAL failure nor a crash leaves half a row behind. Stale
    /// copies already circulating keep serving readers that accept them;
    /// the next owner pass re-enters the ring with the fresh payload.
    fn apply_mutation(&mut self, m: &Mutation) -> Result<u64, String> {
        let mut advert = self.table_entry(&m.schema, &m.table)?;
        // Spilled columns reload first: a mutation must apply against the
        // RAM copy, bumping the version past the stale at-rest file.
        let mut cols = Vec::with_capacity(advert.columns.len());
        for col in &advert.columns {
            cols.push((col.name.as_str(), self.ensure_resident(col.bat)?));
        }
        let staged = ops::stage(&cols, &m.op, &m.preds).map_err(|e| e.to_string())?;
        if staged.matched == 0 {
            return Ok(0);
        }
        let versions: Vec<(usize, u32)> = staged
            .columns
            .iter()
            .map(|(i, _)| (*i, self.next_version(advert.columns[*i].bat)))
            .collect();
        // WAL ahead of every in-memory effect, the whole statement in one
        // CRC-framed record: a crash never half-applies it, and replay
        // re-executes it only against exactly the versions it ran on. An
        // INSERT's record holds its rows, so it counts toward the
        // checkpoint trigger with its frame alone.
        let rewritten = match m.op {
            MutOp::Insert(_) => 0,
            MutOp::Update(_) | MutOp::Delete => {
                staged.columns.iter().map(|(_, b)| b.byte_size() as u64).sum()
            }
        };
        let logged = versions.iter().map(|(i, v)| (advert.columns[*i].bat.0, *v)).collect();
        self.log_durable(&WalRecord::Mutate { m: m.clone(), versions: logged }, rewritten)?;
        for ((i, version), (_, payload)) in versions.into_iter().zip(staged.columns) {
            let col = &mut advert.columns[i];
            col.size = self.store.install(&mut self.node.s1, col.bat, version, payload);
            col.version = version;
        }
        self.budget_due = true;
        match &m.op {
            MutOp::Insert(given) => self.stats.appends_applied.add(given.len() as u64),
            MutOp::Update(_) | MutOp::Delete => self.stats.mutations_applied.inc(),
        }
        advert.origin = self.node.id;
        self.catalog.publish(&advert);
        let _ = self.transport.send_data(DcMsg::Catalog(advert));
        Ok(staged.matched as u64)
    }

    fn alloc_frag_id(&self) -> BatId {
        node_frag_id(self.node.id, self.next_frag.fetch_add(1, Ordering::Relaxed))
    }

    fn execute(&mut self, effects: Vec<Effect>, inbound: Option<&Inbound>) {
        for e in effects {
            match e {
                Effect::SendBat { header, payload } => {
                    // The protocol said whether this hop carries the
                    // bytes; here is only where they come from. An owner
                    // encodes its `Bat` (fresh after writes) off the
                    // cell's lock, into a buffer that dies with the frame;
                    // anybody else relays the inbound bytes untouched.
                    let payload = match self.store.payload(header.bat) {
                        _ if !payload => None,
                        Some(Payload::Resident(owned)) => {
                            Some(Bytes::from(storage::bat_to_bytes(owned)))
                        }
                        _ => inbound.map(|i| i.wire.clone()),
                    };
                    // A send error means the successor died; the ring
                    // must heal (pulsating rings, §6.3) — drop here.
                    let _ = self.transport.send_data(DcMsg::Bat { header, payload });
                }
                Effect::SendRequest(r) => {
                    let _ = self.transport.send_request(DcMsg::Request(r));
                }
                Effect::LoadFromDisk { bat, .. } => {
                    // Local "disk" is main memory — unless the fragment
                    // was spilled, in which case its version's file is
                    // reloaded first. Either way the load completes
                    // within this event.
                    match self.ensure_resident(bat) {
                        Ok(_) => {
                            let effects = self.node.bat_loaded(bat);
                            self.execute(effects, inbound);
                        }
                        Err(err) => {
                            eprintln!(
                                "[dc-node {}] cannot load {bat} for ring injection: {err}",
                                self.node.id
                            );
                            self.node.s1.set_state(bat, OwnedState::OnDisk);
                        }
                    }
                }
                Effect::Unload(bat) => {
                    // Fig. 5: the fragment leaves the hot set. On a node
                    // with a data dir and a memory budget its RAM payload
                    // is spilled; anywhere else it simply stops being
                    // forwarded and stays in memory.
                    self.spill(bat);
                    self.budget_due = true;
                }
                Effect::Deliver { header, queries } => {
                    // The waiters get the cell, not a `Bat`: each decodes
                    // (once between them) on its own thread, after this
                    // loop has moved on to forwarding the frame.
                    let frag = inbound.map(|i| i.frag.clone());
                    if let Some(list) = self.waiting.remove(&header.bat) {
                        let (to_serve, keep): (Vec<_>, Vec<_>) =
                            list.into_iter().partition(|(q, _)| queries.contains(q));
                        if !keep.is_empty() {
                            self.waiting.insert(header.bat, keep);
                        }
                        for (_, w) in to_serve {
                            w.fulfill(frag.clone().ok_or_else(|| {
                                format!("fragment {} payload unavailable", header.bat)
                            }));
                        }
                    }
                }
                Effect::CacheInsert(bat) => {
                    if let Some(inbound) = inbound {
                        self.cache.insert(bat, inbound.frag.clone());
                    }
                }
                Effect::CacheEvict(bat) => {
                    self.cache.remove(&bat);
                }
                Effect::QueryError { bat, queries } => {
                    if let Some(list) = self.waiting.remove(&bat) {
                        for (q, w) in list {
                            if queries.contains(&q) {
                                w.fulfill(Err(format!("{bat} does not exist in the database")));
                            }
                        }
                    }
                }
            }
        }
    }
}

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
    tx: Sender<NodeEvent>,
    catalog: Arc<RingCatalog>,
    notify: Arc<CatalogNotify>,
    transport: Arc<dyn RingTransport>,
    event_loop: Option<JoinHandle<()>>,
    next_frag: Arc<AtomicU32>,
    statements: Arc<Statements>,
    /// How long a statement waits for a pushed SELECT's answer without
    /// hearing that the owner is still running it.
    pin_timeout: Duration,
}

impl RingNode {
    /// Start a node: spawns its event loop and attaches it to the
    /// transport's inbound stream. Panics if the node's data dir (when
    /// configured) cannot be opened or recovered — see
    /// [`RingNode::try_spawn`] for the fallible form.
    pub fn spawn(id: NodeId, transport: Arc<dyn RingTransport>, opts: NodeOptions) -> RingNode {
        Self::try_spawn(id, transport, opts).unwrap_or_else(|e| panic!("spawning node: {e}"))
    }

    /// [`RingNode::spawn`], surfacing data-dir open/recovery failures.
    pub fn try_spawn(
        id: NodeId,
        transport: Arc<dyn RingTransport>,
        opts: NodeOptions,
    ) -> Result<RingNode, String> {
        // Unbounded: the transport's sink runs on a neighbor's event loop
        // (memory fabric) or a socket reader and must never block — full
        // bounded queues around a ring are a deadlock — and commands come
        // from callers that then wait for their answer, so what queues
        // here is bounded by the fragments in circulation plus the
        // threads using the node.
        let (tx, rx) = unbounded::<NodeEvent>();
        let catalog = Arc::new(RingCatalog::new());
        let notify = Arc::new(CatalogNotify::new());
        let next_frag = Arc::new(AtomicU32::new(1));
        let obs = Arc::new(dc_obs::Registry::new(id.0));
        // Every fabric is metered the same way: wrapping here (rather
        // than inside each transport) gives the in-process and TCP rings
        // identical per-edge frame/byte counters.
        let transport: Arc<dyn RingTransport> = Arc::new(MeteredTransport::new(transport, &obs));

        let mut node = DcNode::new(id, opts.cfg.clone(), &obs);
        let stats = EngineStats::register(&obs);
        let mut store = OwnedStore::new(opts.data_dir.as_ref().and(opts.mem_budget), &obs);
        let mut persist = None;
        let mut readvertise: Vec<CatalogMsg> = Vec::new();

        if let Some(dd) = &opts.data_dir {
            let pdir = dc_persist::DataDir::open(&dd.path)
                .map_err(|e| format!("opening data dir {}: {e}", dd.path.display()))?;
            let rec = dc_persist::recover(&pdir, id.0)?;
            stats.recovered_frags.add(rec.frags.len() as u64);
            stats.recovered_wal_records.add(rec.wal_records);

            // Rebuild owned fragments ("local disk") and the S1 catalog.
            for (raw, f) in rec.frags {
                store.own(&mut node.s1, BatId(raw), f.version, f.bat);
            }

            // Rebuild the catalog; owned tables re-enter the gossip once
            // the loop runs, with fresh sizes and versions and this node
            // as the re-advertisement origin.
            for t in &rec.tables {
                let mut c = catalog_msg(t);
                for col in &mut c.columns {
                    if let Some(owned) = node.s1.get(col.bat) {
                        (col.size, col.version) = (owned.size, owned.version);
                    }
                }
                catalog.publish(&c);
                if c.columns.iter().any(|col| col.owner == id) {
                    c.origin = id;
                    readvertise.push(c);
                }
            }

            // Resume the fragment-id allocator past every recovered id in
            // this node's namespace — a fresh CREATE or load must never
            // collide with a recovered fragment.
            let ns = id.0 as u32 % 255 + 1;
            let max_allocated = node
                .s1
                .iter()
                .filter(|(b, _)| b.0 >> 24 == ns)
                .map(|(b, _)| b.0 & 0x00ff_ffff)
                .max();
            if let Some(m) = max_allocated {
                next_frag.store(m + 1, Ordering::Relaxed);
            }

            // Startup compaction: fold whatever was replayed into one
            // fresh checkpoint + empty WAL, so the next crash replays a
            // short tail. Recovery left exactly the committed fragment
            // files, so only fragments the WAL tail moved are rewritten.
            let snap = Snapshot {
                node: id.0,
                replay_from: rec.next_gen,
                tables: catalog.tables().iter().map(table_rec).collect(),
                frags: store.snapshot(&node.s1),
            };
            let checkpoint_metrics = CheckpointMetrics::register(&obs);
            checkpoint_metrics.count(
                dc_persist::write_checkpoint(&pdir, &snap)
                    .map_err(|e| format!("startup checkpoint: {e}"))?,
            );
            store.committed(snap.frags.iter().map(|f| (BatId(f.bat), f.version)));
            let mut wal = WalWriter::create(&pdir.wal_path(rec.next_gen), dd.fsync)
                .map_err(|e| format!("creating WAL: {e}"))?;
            let wal_append_hist = obs.histogram("wal_append_us");
            let wal_sync_hist = obs.histogram("wal_fsync_us");
            wal.set_metrics(Arc::clone(&wal_append_hist), Arc::clone(&wal_sync_hist));
            // The outcome of each snapshot comes back as an event.
            let done = tx.clone();
            let checkpointer = Checkpointer::spawn(pdir.clone(), checkpoint_metrics, move |ok| {
                let _ = done.send(NodeEvent::Checkpointed { committed: ok });
            });
            persist = Some(PersistCtx {
                dir: pdir,
                wal,
                gen: rec.next_gen,
                fsync: dd.fsync,
                checkpoint_wal_bytes: dd.checkpoint_wal_bytes,
                bytes_since_checkpoint: 0,
                checkpointer,
                in_flight: None,
                unlogged: HashSet::new(),
                wal_append_hist,
                wal_sync_hist,
            });
        }

        let loit_level = obs.gauge("obs_loit_level");
        loit_level.set(node.ladder.level_index() as i64);
        // A zero `load_interval` would turn the loop's sleep into a spin.
        let load_interval =
            Duration::from_nanos(opts.cfg.load_interval.as_nanos()).max(Duration::from_millis(1));
        let hooks = Arc::new(RingHooks::new(
            tx.clone(),
            Arc::clone(&catalog),
            opts.pin_timeout,
            Arc::clone(&obs),
            Arc::clone(&transport),
        ));
        let statements = Arc::new(Statements {
            tx: tx.clone(),
            hooks,
            session: Arc::new(SessionCtx::new(Default::default(), Default::default())),
            catalog: Arc::clone(&catalog),
            templates: mal::TemplateCache::new(),
            sql_metrics: SqlMetrics::new(&obs),
            next_query: AtomicU64::new(1),
        });
        let ctx = NodeCtx {
            node,
            stats,
            rx,
            transport: Arc::clone(&transport),
            catalog: Arc::clone(&catalog),
            statements: Arc::clone(&statements),
            pushed: VecDeque::new(),
            pushed_running: false,
            cache: HashMap::new(),
            waiting: HashMap::new(),
            next_frag: Arc::clone(&next_frag),
            routed: Routed::new(fresh_boot_epoch(), opts.ack_timeout, opts.ack_retries),
            notify: Arc::clone(&notify),
            persist,
            obs: Arc::clone(&obs),
            msg_hists: std::array::from_fn(|i| obs.histogram(MSG_HIST_NAMES[i])),
            store,
            spill_hist: obs.histogram("spill_us"),
            readmit_hist: obs.histogram("readmit_us"),
            loit_level,
            started: Instant::now(),
            load_interval,
            next_tick: Instant::now() + load_interval,
            // Recovery may have brought back more than the budget holds.
            budget_due: true,
            checkpoint_due: false,
        };
        let event_loop = std::thread::spawn(move || ctx.run());

        // From here on every inbound frame — starting with whatever
        // arrived while the node was recovering — lands in the event
        // channel on the thread that received it: one hand-off. A send
        // can only fail once the loop has exited, during `stop`.
        let sink_tx = tx.clone();
        transport.attach(Box::new(move |msg| {
            let _ = sink_tx.send(NodeEvent::Ring(msg));
        }));

        // Recovered tables with fragments owned here re-enter the ring's
        // metadata: peers that restarted (or joined) while we were down
        // learn them again; everyone else applies them idempotently. The
        // fragments themselves stay on disk until requests summon them.
        for table in readvertise {
            let _ = tx.send(NodeEvent::Cmd(Cmd::PublishTable { table, gossip: true }));
        }

        Ok(RingNode {
            id,
            tx,
            catalog,
            notify,
            transport,
            event_loop: Some(event_loop),
            next_frag,
            statements,
            pin_timeout: opts.pin_timeout,
        })
    }

    /// Load a table owned entirely by this node (each node of a real
    /// deployment loads its own share from local storage); the metadata
    /// replicates around the ring.
    pub fn load_table(
        &self,
        schema: &str,
        table: &str,
        cols: Vec<(&str, Column)>,
    ) -> Result<(), MalError> {
        let table = CatalogMsg {
            origin: self.id,
            schema: schema.to_string(),
            table: table.to_string(),
            columns: self.store_columns(cols)?,
        };
        self.send(Cmd::PublishTable { table, gossip: true })
    }

    /// Hand `cols` to this node as new owned fragments, in one
    /// [`Cmd::StoreOwned`], and describe them for the catalog. Their ids
    /// come from this node's allocator, like a created table's, so they
    /// collide with no fragment this node owns, recovered ones included.
    fn store_columns(&self, cols: Vec<(&str, Column)>) -> Result<Vec<CatalogCol>, MalError> {
        let mut frags = Vec::with_capacity(cols.len());
        let mut columns = Vec::with_capacity(cols.len());
        for (name, col) in cols {
            let bat = node_frag_id(self.id, self.next_frag.fetch_add(1, Ordering::Relaxed));
            let ty = col.col_type();
            let payload = Arc::new(Bat::dense(col));
            let size = payload.byte_size() as u64;
            frags.push((bat, payload));
            columns.push(CatalogCol {
                name: name.to_string(),
                ty,
                bat,
                size,
                owner: self.id,
                version: 0,
            });
        }
        self.send(Cmd::StoreOwned { frags })?;
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
        let s = &self.statements;
        let qid = s.next_query();
        let start = Instant::now();
        let result = s.compile(sql).map_err(DcError::from).and_then(|(template, params)| {
            if let Some(push) = self.pushed_to(&template) {
                if let Some(rs) = self.push_select(push, sql)? {
                    return Ok(rs);
                }
            }
            // Not pushed, or declined by the owner: run here.
            Ok(s.run_bound(qid, &template, &params)?)
        });
        s.sql_metrics.statements.inc();
        if result.is_err() {
            s.sql_metrics.errors.inc();
        }
        s.sql_metrics.stmt_hists[stmt_kind(sql)].record_elapsed_micros(start);
        result
    }

    /// Where `plan` runs instead of this node: an aggregate
    /// ([`sqlfront::aggregate_reads`]) goes to the owner of one of its
    /// tables when that node receives fewer of the bytes it reads
    /// ([`RingCatalog::push_target`]). It sends only the text there and
    /// gets only the result back. The plan's shape and the catalog decide;
    /// nothing else does.
    fn pushed_to(&self, plan: &mal::Program) -> Option<Push> {
        self.catalog.push_target(self.id, &sqlfront::aggregate_reads(plan)?)
    }

    /// Route `sql` to the owner `push` names and wait for what it makes
    /// of it: its result, its failure as the owner classified it, or
    /// `None` — the owner declined, and this node runs the statement. A
    /// read may run at the owner as long as it would here: the wait goes
    /// on while the owner says it is still running it, and the routed
    /// path fails it, classified, once the owner falls silent.
    fn push_select(&self, push: Push, sql: &str) -> Result<Option<ResultSet>, DcError> {
        let (answer, alive) = (Arc::new(Waiter::default()), Arc::new(AtomicBool::new(false)));
        let (sql, reply, beat) = (sql.to_string(), Arc::clone(&answer), Arc::clone(&alive));
        self.send(Cmd::PushSelect { push, sql, answer: reply, alive: beat })?;
        let outcome = loop {
            match answer.wait_timeout(self.pin_timeout) {
                Some(outcome) => break outcome,
                None if alive.swap(false, Ordering::Relaxed) => {}
                None => break Err("timed out waiting for the fragment owner's answer".into()),
            }
        };
        outcome.map_err(|e| DcError::from(MalError::Dc(e)))?.transpose()
    }

    /// Execute an already-compiled MAL plan with the given query id,
    /// returning the typed result the plan's sink published.
    pub fn run_plan(&self, qid: u64, plan: &mal::Program) -> Result<ResultSet, MalError> {
        self.statements.run_bound(qid, plan, &plan.params)
    }

    /// Render the front-end plan and the optimized plan that runs.
    pub fn explain_sql(&self, sql: &str) -> Result<(String, String), MalError> {
        let plan = self.catalog.with_compiler(|c| sqlfront::compile_sql(sql, c))?;
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
            if self.catalog.table(schema, table).is_some() {
                return true;
            }
            if !self.notify.wait_past(seen, deadline) {
                return self.catalog.table(schema, table).is_some();
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
        let ack = Arc::new(Waiter::default());
        self.send(Cmd::Hotset { ack: Arc::clone(&ack) })
            .map_err(|e| DcError::Ring(e.to_string()))?;
        ack.wait_for_outcome(Duration::from_secs(10), "hotset request timed out")
            .map_err(DcError::Ring)
    }

    /// This node's telemetry registry: counters, gauges, latency
    /// histograms, and the statement trace ring — everything the node
    /// counts, fed by the event loop, the protocol, transport metering
    /// and the SQL paths, and read as it stands by the `dc.*` system
    /// views and `dc-node metrics` (its [`dc_obs::Registry::render_text`]).
    /// `obs_ring_frames_rejected`, which the transport counts, is read
    /// from it by this call.
    pub fn obs(&self) -> &Arc<dc_obs::Registry> {
        self.statements.hooks.registry()
    }

    /// The value of this node's counter `name` — the `dc.stats` row of
    /// that name — or `None` if the node keeps no counter by that name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.obs().counter_value(name)
    }

    /// This node's table catalog.
    pub fn ring_catalog(&self) -> &RingCatalog {
        &self.catalog
    }

    pub(crate) fn send(&self, cmd: Cmd) -> Result<(), MalError> {
        self.tx.send(NodeEvent::Cmd(cmd)).map_err(|_| MalError::Dc("ring node is down".into()))
    }

    fn stop(&mut self) {
        let _ = self.tx.send(NodeEvent::Cmd(Cmd::Shutdown));
        if let Some(t) = self.event_loop.take() {
            let _ = t.join();
        }
        self.transport.close();
    }

    /// Stop the node: event loop, then transport links.
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
    /// replica has it.
    pub fn load_table(
        &self,
        schema: &str,
        table: &str,
        cols: Vec<(&str, Column)>,
    ) -> Result<(), MalError> {
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
        self.nodes[0].send(Cmd::PublishTable { table: gossip, gossip: true })?;

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

#[cfg(test)]
mod tests {
    use super::*;
    use batstore::Val;

    /// The first column of `rs`, as integers.
    fn ints(rs: &ResultSet) -> Vec<i64> {
        (0..rs.row_count()).map(|r| rs.cell(r, 0).as_i64().expect("an integer cell")).collect()
    }

    /// Every row of `rs`, as cells.
    fn rows(rs: &ResultSet) -> Vec<Vec<Val>> {
        (0..rs.row_count())
            .map(|r| (0..rs.column_count()).map(|c| rs.cell(r, c)).collect())
            .collect()
    }

    fn demo_ring(n: usize) -> Ring {
        let ring = Ring::builder(n)
            .config(DcConfig {
                load_interval: netsim::SimDuration::from_millis(5),
                resend_timeout: netsim::SimDuration::from_millis(500),
                ..DcConfig::default()
            })
            .pin_timeout(Duration::from_secs(20))
            .build();
        ring.load_table("sys", "t", vec![("id", Column::from(vec![1, 2, 3]))]).unwrap();
        ring.load_table(
            "sys",
            "c",
            vec![
                ("t_id", Column::from(vec![2, 2, 3, 9])),
                ("amount", Column::from(vec![10, 20, 30, 40])),
            ],
        )
        .unwrap();
        ring
    }

    #[test]
    fn paper_query_end_to_end_on_ring() {
        let ring = demo_ring(3);
        let rs = ring.execute(0, "select c.t_id from t, c where c.t_id = t.id order by t_id");
        assert_eq!(ints(&rs.unwrap()), [2, 2, 3]);
    }

    #[test]
    fn every_node_can_execute() {
        let ring = demo_ring(4);
        for i in 0..4 {
            let rs = ring.execute(i, "select amount from c where amount >= 30 order by amount");
            assert_eq!(ints(&rs.unwrap()), [30, 40], "node {i}");
        }
    }

    #[test]
    fn repeated_queries_share_templates() {
        let ring = demo_ring(2);
        let template_stats = |i: usize| {
            let node = ring.node(i);
            (
                node.counter("obs_template_hits").unwrap(),
                node.counter("obs_template_misses").unwrap(),
            )
        };
        // Each node keeps its own cache, keyed by statement shape: the
        // first statement of a shape compiles, and a statement differing
        // only in its constants is a hit that binds its own values — it
        // must return its own rows, not the cached statement's.
        ring.execute(0, "select amount from c where amount >= 10").unwrap();
        ring.execute(1, "select amount from c where amount >= 10").unwrap();
        assert_eq!((template_stats(0), template_stats(1)), ((0, 1), (0, 1)), "one cache per node");
        let rs = ring.execute(1, "select amount from c where amount >= 35").unwrap();
        assert_eq!(template_stats(1), (1, 1), "same shape, other constant: a hit");
        assert_eq!(ints(&rs), [40], "own constants");
        assert_eq!(ring.node(1).obs().gauge_value("obs_template_entries"), Some(1));
        // A compile error is not cached; a later success of that shape is.
        assert!(ring.execute(1, "select x from ghost where x = 1").is_err());
        assert_eq!(template_stats(1), (1, 1), "the failed compile left no entry");
        ring.execute(1, "create table ghost (x int)").unwrap();
        ring.execute(1, "insert into ghost values (1), (2)").unwrap();
        let rs = ring.execute(1, "select x from ghost where x = 1").unwrap();
        assert_eq!(rs.row_count(), 1);
        let before = template_stats(1);
        let rs = ring.execute(1, "select x from ghost where x = 2").unwrap();
        assert_eq!(rs.cell(0, 0), batstore::Val::Int(2));
        assert_eq!(template_stats(1), (before.0 + 1, before.1), "now a cached shape");
    }

    #[test]
    fn plan_shaping_numbers_stay_in_the_template_key() {
        let ring = demo_ring(1);
        let misses = || ring.node(0).counter("obs_template_misses").unwrap();
        let amounts = |sql: &str| ints(&ring.execute(0, sql).unwrap());
        // LIMIT is compiled into the plan (a slice bound), not bound.
        assert_eq!(amounts("select amount from c order by amount limit 2"), [10, 20]);
        assert_eq!(amounts("select amount from c order by amount limit 3"), [10, 20, 30]);
        assert_eq!(misses(), 2, "limit 2 and limit 3 are different templates");
        // So is an IN list's length: one selection per element.
        let in2 = "select amount from c where amount in (10, 40) order by amount";
        let in3 = "select amount from c where amount in (10, 20, 40) order by amount";
        assert_eq!(amounts(in2), [10, 40]);
        assert_eq!(amounts(in3), [10, 20, 40]);
        assert_eq!(misses(), 4, "2- and 3-element IN lists are different templates");
        // Equal arity with other values is the same template.
        let other = "select amount from c where amount in (30, 20, 10) order by amount";
        assert_eq!(amounts(other), [10, 20, 30]);
        assert_eq!(misses(), 4);
    }

    #[test]
    fn missing_table_fails_cleanly() {
        let ring = demo_ring(2);
        assert!(ring.execute(0, "select x from ghost").is_err());
    }

    #[test]
    fn execute_returns_typed_results() {
        let ring = demo_ring(2);
        // SELECT: named, typed columns — no string parsing anywhere.
        let rs =
            ring.execute(1, "select amount from c where amount >= 30 order by amount").unwrap();
        assert_eq!((rs.column_count(), rs.row_count()), (1, 2));
        assert_eq!(rs.columns[0].name, "amount");
        assert_eq!(rs.columns[0].col_type(), batstore::ColType::Int);
        assert_eq!(rs.cell(0, 0), batstore::Val::Int(30));
        assert_eq!(rs.cell(1, 0), batstore::Val::Int(40));
        // DDL and DML report through the same type.
        let rs = ring.execute(0, "create table ev (k int)").unwrap();
        assert!(rs.info.as_deref().unwrap_or("").contains("created"), "{rs:?}");
        let rs = ring.execute(0, "insert into ev values (1), (2), (3)").unwrap();
        assert_eq!(rs.affected, Some(3));
        // Aggregates carry their declared type even for small values.
        let rs = ring.execute(0, "select count(*) from ev").unwrap();
        assert_eq!(rs.columns[0].col_type(), batstore::ColType::Lng);
        assert_eq!(rs.columns[0].sql_type, "lng");
        // Errors surface with their message.
        let err = ring.execute(0, "select x from ghost").unwrap_err();
        assert!(err.message().contains("ghost"), "{err:?}");
    }

    #[test]
    fn single_node_ring_works() {
        let ring = demo_ring(1);
        let rs = ring
            .execute(0, "select amount from c where amount between 15 and 35 order by amount")
            .unwrap();
        assert_eq!(ints(&rs), [20, 30]);
    }

    #[test]
    fn explain_shows_dc_rewrite() {
        let ring = demo_ring(2);
        let (plan, dc) =
            ring.explain_sql(1, "select c.t_id from t, c where c.t_id = t.id").unwrap();
        assert!(plan.contains("sql.bind"), "{plan}");
        // The front-end plan carries none of the DC rewrite
        // (request/pin/unpin) — that is the optimizer's.
        assert!(!plan.contains("datacyclotron."), "{plan}");
        assert!(dc.contains("datacyclotron.request"), "{dc}");
        assert!(dc.contains("datacyclotron.pin"), "{dc}");
        assert!(dc.contains("datacyclotron.unpin"), "{dc}");
    }

    /// EXPLAIN renders the optimized plan a statement runs, CSE
    /// included (a column projected twice is fetched once).
    #[test]
    fn explain_shows_the_plan_that_runs() {
        let ring = demo_ring(1);
        for sql in [
            "select id, id from t",
            "select distinct id, id from t",
            "select c.t_id, c.t_id from t, c where c.t_id = t.id",
        ] {
            let (_, explained) = ring.explain_sql(0, sql).unwrap();
            let (runs, _) = ring.node(0).statements.compile(sql).unwrap();
            assert_eq!(explained, runs.to_string(), "{sql}");
        }
    }

    #[test]
    fn distinct_and_in_list_over_ring() {
        let ring = demo_ring(3);
        let rs = ring.execute(1, "select distinct t_id from c order by t_id").unwrap();
        assert_eq!(ints(&rs), [2, 3, 9]);
        let rs =
            ring.execute(2, "select amount from c where t_id in (2, 9) order by amount").unwrap();
        assert_eq!(ints(&rs), [10, 20, 40]);
    }

    #[test]
    fn group_by_multiple_columns_over_ring() {
        let ring = Ring::builder(2).build();
        ring.load_table(
            "sys",
            "pairs",
            vec![
                ("a", Column::from(vec!["x", "x", "y", "x"])),
                ("b", Column::from(vec![1, 1, 1, 2])),
                ("v", Column::from(vec![10, 20, 30, 40])),
            ],
        )
        .unwrap();
        let rs = ring.execute(0, "select a, b, sum(v) from pairs group by a, b").unwrap();
        assert_eq!(rs.row_count(), 3, "{rs:?}");
        let x1 = rows(&rs).into_iter().find(|r| r[..2] == [Val::from("x"), Val::from(1)]);
        assert_eq!(x1.and_then(|r| r[2].as_i64()), Some(30), "x,1 sums to 30: {rs:?}");
    }

    #[test]
    fn concurrent_queries_from_all_nodes() {
        let ring = Arc::new(demo_ring(3));
        let mut joins = Vec::new();
        for i in 0..3 {
            for _ in 0..4 {
                let r = Arc::clone(&ring);
                joins.push(std::thread::spawn(move || {
                    r.execute(i, "select c.t_id from t, c where c.t_id = t.id").unwrap()
                }));
            }
        }
        for j in joins {
            let rs = j.join().unwrap();
            assert_eq!(ints(&rs).iter().filter(|&&v| v == 2).count(), 2);
        }
    }

    #[test]
    fn create_insert_select_on_ring() {
        let ring = demo_ring(3);
        let rs = ring.execute(0, "create table logs (k int, msg varchar(16))").unwrap();
        assert!(rs.info.as_deref().unwrap_or("").contains("created"), "{rs:?}");
        // The DDL gossip replicates; other nodes soon compile against it.
        ring.node(2).wait_for_table_timeout("sys", "logs", Duration::from_secs(5)).unwrap();
        let rs = ring.execute(0, "insert into logs values (1, 'boot'), (2, 'ready')").unwrap();
        assert_eq!(rs.affected, Some(2));
        // Owner-local read-your-writes.
        let rs = ring.execute(0, "select msg from logs where k = 2").unwrap();
        assert_eq!(rows(&rs), [[Val::from("ready")]]);
        // A remote node pulls the fresh fragments through the ring.
        let rs = ring.execute(2, "select k, msg from logs order by k").unwrap();
        assert_eq!(
            rows(&rs),
            [[Val::from(1), Val::from("boot")], [Val::from(2), Val::from("ready")]]
        );
    }

    #[test]
    fn update_delete_on_owner_node() {
        let ring = demo_ring(2);
        ring.execute(0, "create table acct (id int, bal lng, tag varchar(8))").unwrap();
        ring.execute(0, "insert into acct values (1, 10, 'a'), (2, 20, 'b'), (3, 30, 'a')")
            .unwrap();
        let rs = ring.execute(0, "update acct set bal = 99 where tag = 'a'").unwrap();
        assert_eq!(rs.affected, Some(2));
        let rs = ring.execute(0, "select id, bal from acct order by id").unwrap();
        assert_eq!(rs.cell(0, 1), batstore::Val::Lng(99));
        assert_eq!(rs.cell(1, 1), batstore::Val::Lng(20));
        let rs = ring.execute(0, "delete from acct where id = 2").unwrap();
        assert_eq!(rs.affected, Some(1));
        let rs = ring.execute(0, "select count(*) from acct").unwrap();
        assert_eq!(rs.cell(0, 0), batstore::Val::Lng(2));
        // Mutations bumped the owner's fragment versions and the owner's
        // catalog replica saw the update synchronously.
        let info = ring.node(0).ring_catalog().lookup("sys", "acct", "bal").unwrap();
        assert!(info.version >= 2, "update + delete each bump: {info:?}");
    }

    #[test]
    fn remote_mutation_routes_to_owner_and_acks_count() {
        let ring = demo_ring(3);
        ring.execute(0, "create table kv (k int, v int)").unwrap();
        ring.node(2).wait_for_table_timeout("sys", "kv", Duration::from_secs(5)).unwrap();
        ring.execute(0, "insert into kv values (1, 10), (2, 20), (3, 30)").unwrap();
        // Node 2 owns nothing: the logical mutation travels the ring to
        // node 0, is applied there, and the ack carries the real count.
        let rs = ring.execute(2, "update kv set v = 7 where k >= 2").unwrap();
        assert_eq!(rs.affected, Some(2), "remote UPDATE must return the owner's count");
        let rs = ring.execute(0, "select k, v from kv order by k").unwrap();
        assert_eq!(rs.cell(1, 1), batstore::Val::Int(7));
        let rs = ring.execute(1, "delete from kv where v = 7").unwrap();
        assert_eq!(rs.affected, Some(2));
        let rs = ring.execute(0, "select count(*) from kv").unwrap();
        assert_eq!(rs.cell(0, 0), batstore::Val::Lng(1));
        // A remote mutation matching nothing still acks zero.
        let rs = ring.execute(2, "delete from kv where k = 777").unwrap();
        assert_eq!(rs.affected, Some(0));
    }

    #[test]
    fn mutation_errors_surface_at_the_origin() {
        let ring = demo_ring(2);
        // Unknown table fails at compile time on the origin.
        assert!(ring.execute(1, "update ghost set a = 1").is_err());
        // Mixed-owner table: the round-robin loaded `c` cannot be
        // mutated atomically.
        let err = ring.execute(0, "update c set amount = 1 where t_id = 2").unwrap_err();
        assert!(err.to_string().contains("multiple nodes"), "{err}");
        let err = ring.execute(1, "delete from c").unwrap_err();
        assert!(err.to_string().contains("multiple nodes"), "{err}");
        // Type errors detected at the owner surface in the ack.
        ring.execute(0, "create table typed (n int)").unwrap();
        ring.node(1).wait_for_table_timeout("sys", "typed", Duration::from_secs(5)).unwrap();
        ring.execute(0, "insert into typed values (1)").unwrap();
        let err = ring.execute(1, "update typed set n = 'oops'").unwrap_err();
        assert!(err.to_string().contains("type"), "{err}");
        // … and even when the WHERE clause matches nothing: a statement
        // that can never apply must not quietly ack zero.
        let err = ring.execute(1, "update typed set n = 'oops' where n = 777").unwrap_err();
        assert!(err.to_string().contains("type"), "{err}");
    }

    #[test]
    fn mutation_readvertises_versions_ring_wide() {
        let ring = demo_ring(3);
        ring.execute(0, "create table seq (v int)").unwrap();
        for n in 1..3 {
            ring.node(n).wait_for_table_timeout("sys", "seq", Duration::from_secs(5)).unwrap();
        }
        ring.execute(0, "insert into seq values (1), (2), (3)").unwrap();
        ring.execute(1, "update seq set v = 9 where v = 2").unwrap();
        // The owner re-gossips (size, version); every replica converges.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let views: Vec<Option<(u64, u32)>> = (0..3)
                .map(|i| {
                    ring.node(i)
                        .ring_catalog()
                        .lookup("sys", "seq", "v")
                        .map(|f| (f.size, f.version))
                })
                .collect();
            let owner = views[0];
            if owner.is_some_and(|(_, v)| v >= 2) && views.iter().all(|v| *v == owner) {
                break;
            }
            assert!(Instant::now() < deadline, "replicas never converged: {views:?}");
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    // ---- durability: data-dir recovery -----------------------------------

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("dc_engine_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        d
    }

    /// A single durable node over the in-process fabric (a one-node ring
    /// is a self-loop), checkpointing every `checkpoint_bytes` of WAL.
    /// Under a `mem_budget` its coldest owned fragments spill to the data
    /// dir.
    fn durable_node(
        dir: &std::path::Path,
        checkpoint_bytes: u64,
        mem_budget: Option<u64>,
    ) -> RingNode {
        let t = mem::ring(1).pop().expect("one node");
        RingNode::spawn(
            NodeId(0),
            Arc::new(t) as Arc<dyn RingTransport>,
            NodeOptions {
                cfg: DcConfig {
                    load_interval: netsim::SimDuration::from_millis(5),
                    resend_timeout: netsim::SimDuration::from_millis(500),
                    ..DcConfig::default()
                },
                pin_timeout: Duration::from_secs(10),
                data_dir: Some(
                    crate::config::DataDir::new(dir)
                        .fsync(crate::config::FsyncPolicy::Off)
                        .checkpoint_wal_bytes(checkpoint_bytes),
                ),
                mem_budget,
                ..NodeOptions::default()
            },
        )
    }

    #[test]
    fn node_recovers_tables_and_rows_from_data_dir() {
        let dir = scratch_dir("recover");
        let node = durable_node(&dir, 16 << 20, None);
        node.execute("create table logs (k int, msg varchar(16))").unwrap();
        node.execute("insert into logs values (1, 'boot'), (2, 'ready')").unwrap();
        node.execute("insert into logs values (3, 'steady')").unwrap();
        node.shutdown();

        // Everything came back from disk: catalog, rows, and versions.
        let node = durable_node(&dir, 16 << 20, None);
        let rs = node.execute("select k, msg from logs order by k").unwrap();
        let want = [(1, "boot"), (2, "ready"), (3, "steady")];
        assert_eq!(rows(&rs), want.map(|(k, msg)| [Val::from(k), Val::from(msg)]));
        // The engine keeps working durably: appends and fresh DDL use
        // fragment ids beyond the recovered ones.
        node.execute("insert into logs values (4, 'again')").unwrap();
        node.execute("create table other (x int)").unwrap();
        node.execute("insert into other values (42)").unwrap();
        node.shutdown();

        let node = durable_node(&dir, 16 << 20, None);
        let rs = node.execute("select count(*) from logs").unwrap();
        assert_eq!(ints(&rs), [4]);
        let rs = node.execute("select x from other").unwrap();
        assert_eq!(ints(&rs), [42]);
        node.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn node_recovers_mutations_from_data_dir() {
        let dir = scratch_dir("recover_mut");
        let node = durable_node(&dir, 16 << 20, None);
        node.execute("create table acct (id int, bal int)").unwrap();
        node.execute("insert into acct values (1, 10), (2, 20), (3, 30)").unwrap();
        node.execute("update acct set bal = 99 where id in (1, 3)").unwrap();
        node.execute("delete from acct where id = 2").unwrap();
        node.shutdown();

        let node = durable_node(&dir, 16 << 20, None);
        let rs = node.execute("select id, bal from acct order by id").unwrap();
        assert_eq!(rows(&rs), [[1, 99], [3, 99]].map(|r| r.map(Val::from)));
        // And keeps mutating durably after recovery.
        node.execute("update acct set bal = 1 where id = 3").unwrap();
        node.shutdown();
        let node = durable_node(&dir, 16 << 20, None);
        let rs = node.execute("select bal from acct where id = 3").unwrap();
        assert_eq!(ints(&rs), [1]);
        node.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mutations_interleaved_with_checkpoints_recover_exactly() {
        let dir = scratch_dir("mut_overlap");
        // 1-byte threshold: a checkpoint after every mutation, maximal
        // checkpoint/WAL overlap on recovery.
        let node = durable_node(&dir, 1, None);
        node.execute("create table seq (v int)").unwrap();
        for i in 0..10 {
            node.execute(&format!("insert into seq values ({i})")).unwrap();
        }
        node.execute("update seq set v = 100 where v between 0 and 4").unwrap();
        node.execute("delete from seq where v = 100").unwrap();
        node.shutdown();

        let node = durable_node(&dir, 1, None);
        let rs = node.execute("select count(*) from seq").unwrap();
        assert_eq!(ints(&rs), [5], "exactly the five non-rewritten rows survive");
        node.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_data_dir_starts_clean() {
        let dir = scratch_dir("empty");
        let node = durable_node(&dir, 16 << 20, None);
        assert!(node.execute("select x from ghost").is_err());
        node.execute("create table t (x int)").unwrap();
        node.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_and_wal_tail_overlap_recovers_exactly_once() {
        let dir = scratch_dir("overlap");
        // A 1-byte threshold checkpoints after every mutation, so the
        // run interleaves checkpoints with WAL appends constantly.
        let node = durable_node(&dir, 1, None);
        node.execute("create table seq (v int)").unwrap();
        for i in 0..20 {
            node.execute(&format!("insert into seq values ({i})")).unwrap();
        }
        node.shutdown();

        let node = durable_node(&dir, 1, None);
        let rs = node.execute("select count(*) from seq").unwrap();
        assert_eq!(ints(&rs), [20], "no lost or double-applied appends");
        node.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_wal_tail_recovers_the_prefix() {
        let dir = scratch_dir("torn");
        let node = durable_node(&dir, 16 << 20, None);
        node.execute("create table t (x int)").unwrap();
        node.execute("insert into t values (1), (2)").unwrap();
        node.shutdown();

        // Simulate a crash mid-append: garbage at the end of the newest
        // WAL generation.
        let pdir = dc_persist::DataDir::open(&dir).unwrap();
        let gen = *pdir.wal_generations().unwrap().last().unwrap();
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new().append(true).open(pdir.wal_path(gen)).unwrap();
        f.write_all(&[77, 0, 0, 0, 1, 2, 3]).unwrap();
        drop(f);

        let node = durable_node(&dir, 16 << 20, None);
        let rs = node.execute("select count(*) from t").unwrap();
        assert_eq!(ints(&rs), [2], "prefix before the tear intact");
        node.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn random_mutations_survive_a_drop_cell_for_cell_and_version_for_version() {
        random_mutations_survive_a_drop("random_mutations", None);
    }

    /// The same stream under a 1-byte budget: every fragment a statement
    /// moved spills dirty — writing its own version's file — before the
    /// next statement runs, and between checkpoints.
    #[test]
    fn random_mutations_under_a_budget_survive_a_drop_cell_for_cell_and_version_for_version() {
        random_mutations_survive_a_drop("random_mutations_budget", Some(1));
    }

    /// A durable one-node ring takes a seeded stream of INSERTs, UPDATEs
    /// (one and two assignments, `=`/BETWEEN/IN, `str` columns) and
    /// DELETEs over a created and a bulk-loaded table, checkpointing
    /// every few statements, and is dropped without a `shutdown`. The
    /// respawned node holds every cell, and every fragment at its version.
    fn random_mutations_survive_a_drop(tag: &str, mem_budget: Option<u64>) {
        let dir = scratch_dir(tag);
        let node = durable_node(&dir, 2048, mem_budget);
        node.execute("create table acct (id int, bal lng, tag varchar(8))").unwrap();
        let tags: Vec<String> = (0..40).map(|i| format!("b{}", i % 4)).collect();
        let tags: Vec<&str> = tags.iter().map(String::as_str).collect();
        let cols =
            vec![("k", Column::from((0..40).collect::<Vec<i32>>())), ("s", Column::from(tags))];
        node.load_table("sys", "bulk", cols).unwrap();
        node.wait_for_table_timeout("sys", "bulk", Duration::from_secs(5)).unwrap();
        let mut rng = netsim::DetRng::new(0x5eed_0022);
        let mut spilled_past_v0 = false;
        for _ in 0..80 {
            let (a, b, n) = (rng.index(12), rng.index(12), rng.uniform_u64(0, 999));
            let sql = match rng.index(6) {
                0 | 1 => format!("insert into acct values ({a}, {n}, 't{}')", b % 3),
                2 => format!("update acct set bal = {n} where id = {a}"),
                3 => {
                    format!("update acct set bal = {n}, tag = 'u{b}' where id between {a} and {b}")
                }
                4 => format!("delete from acct where tag in ('t{}', 'u{b}')", a % 3),
                _ => format!("update bulk set s = 'x{n}' where k >= {}", a * 3 + b),
            };
            node.execute(&sql).unwrap();
            let snap = node.hotset().unwrap();
            assert_residency_adds_up(&node, &snap);
            spilled_past_v0 |= snap.rows.iter().any(|r| r.state == "spilled" && r.version > 0);
        }
        assert_eq!(spilled_past_v0, mem_budget.is_some(), "a mutated fragment spilled");
        let state = |node: &RingNode| {
            // No ORDER BY: rows in storage order, which must match too.
            let cells = ["select id, bal, tag from acct", "select k, s from bulk"]
                .map(|q| rows(&node.execute(q).unwrap()));
            let versions: Vec<(BatId, u32, u64)> =
                node.hotset().unwrap().rows.iter().map(|r| (r.bat, r.version, r.size)).collect();
            (cells, versions)
        };
        let before = state(&node);
        assert!(before.1.iter().any(|(_, v, _)| *v > 5), "the stream moved versions: {before:?}");
        assert!(node.counter("checkpoints").unwrap() > 0, "no checkpoint interleaved");
        drop(node);

        let node = durable_node(&dir, 2048, mem_budget);
        assert_eq!(state(&node), before);
        node.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A node's residency totals are its hot-set rows' sizes, split by
    /// whether the row is spilled, and `obs_hotset_spilled_frags` counts
    /// the spilled rows.
    fn assert_residency_adds_up(node: &RingNode, snap: &HotsetSnapshot) {
        let spilled: Vec<&HotsetRow> = snap.rows.iter().filter(|r| r.state == "spilled").collect();
        let spilled_bytes: u64 = spilled.iter().map(|r| r.size).sum();
        let resident_bytes = snap.rows.iter().map(|r| r.size).sum::<u64>() - spilled_bytes;
        assert_eq!((snap.resident_bytes, snap.spilled_bytes), (resident_bytes, spilled_bytes));
        let gauge = node.obs().gauge_value("obs_hotset_spilled_frags");
        assert_eq!(gauge, Some(spilled.len() as i64), "{snap:?}");
    }

    /// `Ring::load_table` takes each column's id from its owner's
    /// allocator, which a restart resumes past every recovered id: a
    /// table loaded after a restart leaves the ones loaded before intact.
    #[test]
    fn tables_loaded_across_restarts_keep_their_own_fragments() {
        let dir = scratch_dir("load_restart");
        let build =
            || Ring::builder(2).data_dir_root(&dir).fsync(crate::config::FsyncPolicy::Off).build();
        let load = |ring: &Ring, t: &str, a: Vec<i32>, b: Vec<i32>| {
            let cols = vec![("a", Column::from(a)), ("b", Column::from(b))];
            ring.load_table("sys", t, cols).unwrap();
        };
        let check = |ring: &Ring, tables: &[(&str, [[i32; 2]; 2])]| {
            for (t, want) in tables {
                for node in 0..2 {
                    let rs = ring.execute(node, &format!("select a, b from {t} order by a"));
                    assert_eq!(rows(&rs.unwrap()), want.map(|r| r.map(Val::from)), "{t} at {node}");
                }
            }
        };
        let before = ("before", [[1, 10], [2, 20]]);
        let after = ("after", [[7, 70], [8, 80]]);

        let ring = build();
        load(&ring, before.0, vec![1, 2], vec![10, 20]);
        ring.shutdown();
        let ring = build();
        load(&ring, after.0, vec![7, 8], vec![70, 80]);
        check(&ring, &[before, after]);
        ring.shutdown();
        let ring = build();
        check(&ring, &[before, after]);
        ring.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A node defines a name once. An advert naming other fragments for a
    /// table it knows — here `sys.t (b varchar)` from node 2, over the
    /// node's own `sys.t (a int)` — changes nothing the node answers,
    /// before or after a checkpoint cut past it and a restart.
    #[test]
    fn a_conflicting_advert_changes_nothing_before_or_after_a_restart() {
        let dir = scratch_dir("conflict");
        // A 1-byte trigger: every logged record brings a checkpoint on.
        let node = durable_node(&dir, 1, None);
        node.execute("create table t (a int)").unwrap();
        node.execute("insert into t values (1), (2)").unwrap();
        let b = CatalogCol {
            name: "b".into(),
            ty: batstore::ColType::Str,
            bat: node_frag_id(NodeId(2), 1),
            size: 0,
            owner: NodeId(2),
            version: 0,
        };
        let other = CatalogMsg {
            origin: NodeId(2),
            schema: "sys".into(),
            table: "t".into(),
            columns: vec![b],
        };
        node.send(Cmd::PublishTable { table: other, gossip: false }).unwrap();
        let check = |node: &RingNode| {
            assert_eq!(ints(&node.execute("select a from t order by a").unwrap()), [1, 2]);
            assert!(node.explain_sql("select b from t").is_err(), "t(b) compiles");
            assert!(node.execute("select b from t").is_err());
        };
        // `hotset` queues behind the advert: it has been handled.
        node.hotset().unwrap();
        check(&node);
        let refused = node.obs().trace_events().into_iter().filter(|e| e.event == "gossip_refused");
        assert_eq!(refused.count(), 1);

        // Log something else, so a checkpoint is cut after the advert;
        // shutdown waits for the one submitted.
        let cut = node.counter("checkpoints").unwrap();
        node.execute("create table u (x int)").unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while node.counter("checkpoints").unwrap() <= cut {
            assert!(Instant::now() < deadline, "no checkpoint after the advert");
            node.hotset().unwrap();
            std::thread::sleep(Duration::from_millis(5));
        }
        node.shutdown();

        let node = durable_node(&dir, 1, None);
        check(&node);
        node.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn data_dir_of_another_node_refused() {
        let dir = scratch_dir("foreign");
        let node = durable_node(&dir, 16 << 20, None);
        node.execute("create table t (x int)").unwrap();
        node.shutdown();

        let t = mem::ring(1).pop().expect("one node");
        let spawned = RingNode::try_spawn(
            NodeId(3),
            Arc::new(t) as Arc<dyn RingTransport>,
            NodeOptions {
                data_dir: Some(crate::config::DataDir::new(&dir)),
                ..NodeOptions::default()
            },
        );
        let err = spawned.err().expect("foreign data dir must be refused");
        assert!(err.contains("belongs to node 0"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    // ---- hot-set management: spill and re-admission -----------------------

    /// The sorted names under `dir/bats`.
    fn bat_files(dir: &std::path::Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir.join("bats"))
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    /// `obs_persist_errors`, as `dc.stats` shows it.
    fn persist_errors(node: &RingNode) -> i64 {
        let rs = node.execute("select name, value from dc.stats").unwrap();
        (0..rs.row_count())
            .find(|&r| rs.cell(r, 0) == Val::from("obs_persist_errors"))
            .and_then(|r| rs.cell(r, 1).as_i64())
            .expect("obs_persist_errors in dc.stats")
    }

    #[test]
    fn tiny_budget_spills_and_readmits_on_demand() {
        let dir = scratch_dir("budget");
        let node = durable_node(&dir, 16 << 20, Some(1));
        node.execute("create table cold (k int, v int)").unwrap();
        node.execute("insert into cold values (1, 10), (2, 20), (3, 30)").unwrap();

        // A 1-byte budget makes every owned fragment excess: both columns
        // write their version's file (the bat file IS the at-rest format)
        // and drop their in-memory payloads.
        let deadline = Instant::now() + Duration::from_secs(10);
        while node.counter("loi_evictions").unwrap() < 2 {
            assert!(Instant::now() < deadline, "fragments never spilled");
            std::thread::sleep(Duration::from_millis(10));
        }
        let snap = node.hotset().unwrap();
        assert!(
            snap.rows.iter().any(|r| r.state == "spilled"),
            "hotset view shows no spilled fragment: {:?}",
            snap.rows
        );
        assert!(snap.spilled_bytes > 0, "spilled bytes gauge never moved: {snap:?}");

        // Querying the evicted table re-admits its fragments from disk
        // and answers with the correct typed rows.
        let rs = node.execute("select k, v from cold order by k").unwrap();
        assert_eq!(rows(&rs), [[1, 10], [2, 20], [3, 30]].map(|r| r.map(Val::from)));
        assert!(node.counter("loi_readmits").unwrap() >= 1, "re-admission not counted");

        // Appends against spilled fragments re-admit first, then apply.
        node.execute("insert into cold values (4, 40)").unwrap();
        node.shutdown();

        // Restart with the same budget: spilled fragments recover from
        // the files their spills' records name, the WAL tail replays, and
        // queries still answer correctly.
        let node = durable_node(&dir, 16 << 20, Some(1));
        let rs = node.execute("select count(*) from cold").unwrap();
        assert_eq!(ints(&rs), [4]);
        let rs = node.execute("select v from cold where k = 4").unwrap();
        assert_eq!(ints(&rs), [40]);
        node.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn read_only_evict_readmit_cycle_writes_nothing() {
        const ROWS: i32 = 1000;
        let dir = scratch_dir("clean_spill");
        // Room for three of the four columns: one table fits, two do not.
        let col_bytes = Bat::dense(Column::from(vec![0i32; ROWS as usize])).byte_size() as u64;
        let budget = Some(3 * col_bytes);
        let node = durable_node(&dir, 16 << 20, budget);
        for t in ["a", "b"] {
            let (k, v): (Vec<i32>, Vec<i32>) = (0..ROWS).map(|i| (i, 2 * i)).unzip();
            node.load_table("sys", t, vec![("k", Column::from(k)), ("v", Column::from(v))])
                .unwrap();
        }
        // Read only once the loop has handled everything before it
        // (`hotset` queues behind it) or has stopped: a checkpoint starts
        // on the loop, and shutdown joins the checkpointer writing it.
        let obs = Arc::clone(node.obs());
        let checkpoints = || obs.counter_value("checkpoints").unwrap();
        let written = || obs.counter_value("obs_checkpoint_frags_written").unwrap();
        let sum_k: i64 = (0..ROWS as i64).sum();
        let sweep = |node: &RingNode, bump_a: i64| {
            for (t, bump) in [("a", bump_a), ("b", 0)] {
                let rs = node.execute(&format!("select sum(k), sum(v) from {t}")).unwrap();
                assert_eq!(rows(&rs), [[sum_k + bump, 2 * sum_k].map(Val::from)], "table {t}");
            }
        };

        // Each load wrote its fragment's version-0 file, so the initial
        // spill is already clean: it drops the coldest at once.
        let deadline = Instant::now() + Duration::from_secs(10);
        while node.hotset().unwrap().resident_bytes > 3 * col_bytes {
            assert!(Instant::now() < deadline, "initial spill never settled");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(bat_files(&dir).len(), 4);

        // Alternating reads evict and re-admit on every sweep; through
        // the load, the spill and all of it, no checkpoint runs and no
        // fragment file is written again.
        let moves =
            || (node.counter("loi_evictions").unwrap(), node.counter("loi_readmits").unwrap());
        let before = moves();
        for _ in 0..10 {
            sweep(&node, 0);
        }
        node.hotset().unwrap();
        let after = moves();
        assert_eq!(checkpoints(), 0, "a clean spill forced a checkpoint");
        assert!(after.0 >= before.0 + 10 && after.1 >= before.1 + 10, "{before:?} → {after:?}");
        assert_eq!(written(), 0, "a fragment version was written twice");

        // An UPDATE moves one column to v1 (`a.k`, the lowest id and so
        // the victim of every sweep). Its next spill is dirty and writes
        // the v1 file itself: still no checkpoint, and the v0 file stays
        // until a checkpoint's GC collects it (the bytes written count
        // toward that checkpoint's trigger; see the next test).
        node.execute("update a set k = 5000 where k = 3").unwrap();
        let moved = node.hotset().unwrap().rows.iter().find(|r| r.version == 1).unwrap().bat;
        let (old, new) = (format!("{}.v0.bat", moved.0), format!("{}.v1.bat", moved.0));
        let deadline = Instant::now() + Duration::from_secs(10);
        while !bat_files(&dir).contains(&new) {
            sweep(&node, 5000 - 3);
            assert!(Instant::now() < deadline, "v1 never spilled: {:?}", bat_files(&dir));
        }
        let files = bat_files(&dir);
        assert!(files.contains(&old) && files.len() == 5, "{files:?}");
        node.shutdown();
        assert_eq!(checkpoints(), 0, "a dirty spill forced a checkpoint");
        assert_eq!(written(), 0, "a checkpoint wrote a fragment file");

        // After a restart the startup checkpoint names v1 — a file it
        // finds, so it writes none — and its GC leaves only that one.
        let node = durable_node(&dir, 16 << 20, budget);
        let files = bat_files(&dir);
        assert!(files.contains(&new) && !files.contains(&old) && files.len() == 4, "{files:?}");
        assert_eq!(node.counter("obs_checkpoint_frags_written"), Some(0));
        sweep(&node, 5000 - 3);
        node.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A dirty spill leaves the file of the version before it on disk
    /// until a checkpoint's GC, so the file it writes counts toward the
    /// checkpoint trigger: one-row INSERTs into a column that spills after
    /// every statement keep checkpoints coming, and a handful of that
    /// column's files are ever on disk, not one per statement.
    #[test]
    fn dirty_spills_trigger_the_checkpoints_that_collect_their_predecessors() {
        const ROWS: i32 = 4096;
        const INSERTS: i32 = 60;
        let dir = scratch_dir("dirty_gc");
        // Four spilled versions of the column fill the WAL-bytes trigger.
        let col_bytes = Bat::dense(Column::from(vec![0i32; ROWS as usize])).byte_size() as u64;
        let node = durable_node(&dir, 4 * col_bytes, Some(1));
        node.load_table("sys", "log", vec![("k", Column::from((0..ROWS).collect::<Vec<_>>()))])
            .unwrap();
        node.wait_for_table_timeout("sys", "log", Duration::from_secs(5)).unwrap();
        for i in 0..INSERTS {
            node.execute(&format!("insert into log values ({})", ROWS + i)).unwrap();
        }
        // The last INSERT's spill follows its ack; `hotset` queues behind it.
        node.hotset().unwrap();
        assert!(node.counter("loi_evictions").unwrap() >= INSERTS as u64);
        assert!(node.counter("checkpoints").unwrap() > 0, "dirty spills never triggered one");
        // Once the last checkpoint settles, the files left are the version
        // it names and those spilled since, fewer than the trigger's four.
        let deadline = Instant::now() + Duration::from_secs(10);
        while bat_files(&dir).len() > 5 {
            assert!(Instant::now() < deadline, "superseded files leaked: {:?}", bat_files(&dir));
            std::thread::sleep(Duration::from_millis(5));
        }
        drop(node);

        let node = durable_node(&dir, 4 * col_bytes, Some(1));
        let rs = node.execute("select count(*), sum(k) from log").unwrap();
        let n = (ROWS + INSERTS) as i64;
        assert_eq!(rows(&rs), [[n, n * (n - 1) / 2].map(Val::from)]);
        node.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_load_whose_file_cannot_be_written_is_counted_and_never_dropped() {
        let dir = scratch_dir("load_error");
        // A 1-byte budget: both columns are excess the moment they load.
        let node = durable_node(&dir, 16 << 20, Some(1));
        let (blocked, clean) = (node_frag_id(node.id, 1), node_frag_id(node.id, 2));
        // Tests run as root, so a read-only directory would not stop the
        // write; a directory where the temp file goes does.
        let obstruction = dir.join("bats").join(format!(".{}.v0.bat.tmp", blocked.0));
        std::fs::create_dir(&obstruction).unwrap();
        let cols = vec![("k", Column::from(vec![1, 2, 3])), ("v", Column::from(vec![10, 20, 30]))];
        node.load_table("sys", "t", cols).unwrap();

        // The durable column's spill is clean and drops it at once; the
        // other's spill tries to write its file, which the obstruction
        // fails — so it is never dropped.
        spills_while_the_other_stays(&node, clean, blocked);
        // The load's write failed (counted before the loop answered the
        // hot-set look above), and so does every spill's retry of it.
        assert!(persist_errors(&node) >= 1);
        let rs = node.execute("select k, v from t order by k").unwrap();
        assert_eq!(rows(&rs), [[1, 10], [2, 20], [3, 30]].map(|r| r.map(Val::from)));
        node.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_dirty_spill_whose_file_cannot_be_written_is_counted_and_never_dropped() {
        let dir = scratch_dir("spill_error");
        let node = durable_node(&dir, 16 << 20, Some(1));
        let (blocked, clean) = (node_frag_id(node.id, 1), node_frag_id(node.id, 2));
        let obstruction = dir.join("bats").join(format!(".{}.v1.bat.tmp", blocked.0));
        std::fs::create_dir(&obstruction).unwrap();
        // The INSERT moves both columns to v1, which has no file yet: each
        // spill has to write its own, and one of them cannot.
        node.execute("create table d (k int, v int)").unwrap();
        node.execute("insert into d values (1, 10), (2, 20), (3, 30)").unwrap();
        spills_while_the_other_stays(&node, clean, blocked);
        let versions: Vec<u32> = node.hotset().unwrap().rows.iter().map(|r| r.version).collect();
        assert_eq!(versions, [1, 1]);
        assert!(persist_errors(&node) >= 1);
        assert!(!bat_files(&dir).contains(&format!("{}.v1.bat", blocked.0)));
        let want = [[1, 10], [2, 20], [3, 30]].map(|r| r.map(Val::from));
        let rs = node.execute("select k, v from d order by k").unwrap();
        assert_eq!(rows(&rs), want);
        node.shutdown();

        // The WAL still holds the INSERT: a restart rebuilds the column.
        std::fs::remove_dir(&obstruction).unwrap();
        let node = durable_node(&dir, 16 << 20, Some(1));
        let rs = node.execute("select k, v from d order by k").unwrap();
        assert_eq!(rows(&rs), want);
        node.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Wait until `spills` is spilled, asserting on every look that
    /// `stays` — a fragment whose file cannot be written — is not.
    fn spills_while_the_other_stays(node: &RingNode, spills: BatId, stays: BatId) {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let snap = node.hotset().unwrap();
            let state = |bat| snap.rows.iter().find(|r| r.bat == bat).map(|r| r.state);
            assert_ne!(state(stays), Some("spilled"), "a version that never reached disk dropped");
            if state(spills) == Some("spilled") {
                return;
            }
            assert!(Instant::now() < deadline, "{spills} never spilled: {:?}", snap.rows);
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// A node without a data dir has nowhere to spill to: it neither
    /// enforces a memory budget nor reports one.
    #[test]
    fn a_diskless_node_neither_holds_nor_reports_a_budget() {
        let t = mem::ring(1).pop().expect("one node");
        let opts = NodeOptions { mem_budget: Some(1), ..NodeOptions::default() };
        let node = RingNode::spawn(NodeId(0), Arc::new(t) as Arc<dyn RingTransport>, opts);
        node.load_table("sys", "t", vec![("x", Column::from(vec![3, 1, 2]))]).unwrap();
        node.wait_for_table_timeout("sys", "t", Duration::from_secs(10)).unwrap();
        assert_eq!(ints(&node.execute("select x from t order by x").unwrap()), [1, 2, 3]);
        let snap = node.hotset().unwrap();
        assert_eq!(snap.mem_budget, None);
        assert_eq!(snap.spilled_bytes, 0);
        assert_eq!(node.counter("loi_evictions"), Some(0));
        node.shutdown();
    }

    #[test]
    fn mixed_owner_insert_rejected() {
        // Demo table `c` was round-robin loaded: its two columns have
        // different owners, so a split (non-atomic) append is refused.
        let ring = demo_ring(2);
        let err = ring.execute(0, "insert into c values (5, 50)").unwrap_err();
        assert!(err.to_string().contains("multiple nodes"), "{err}");
    }

    #[test]
    fn remote_insert_routes_to_owner() {
        let ring = demo_ring(2);
        ring.execute(0, "create table kv (k int, v int)").unwrap();
        ring.node(1).wait_for_table_timeout("sys", "kv", Duration::from_secs(5)).unwrap();
        // Node 1 does not own the fragments: the INSERT travels the ring
        // to node 0, which applies it (§6.4) before it acknowledges.
        let rs = ring.execute(1, "insert into kv values (7, 70)").unwrap();
        assert_eq!(rs.affected, Some(1));
        let rs = ring.execute(0, "select v from kv where k = 7").unwrap();
        assert_eq!(ints(&rs), [70], "acknowledged, so applied at the owner");
    }

    /// A fabric member that hands the test every frame its node sends
    /// clockwise, and lets the test play the rest of the ring.
    struct Tap {
        sent: Sender<DcMsg>,
        sink: parking_lot::Mutex<Option<crate::transport::Sink>>,
    }

    impl RingTransport for Tap {
        fn send_data(&self, msg: DcMsg) -> Result<(), crate::transport::TransportError> {
            let _ = self.sent.send(msg);
            Ok(())
        }
        fn send_request(&self, _: DcMsg) -> Result<(), crate::transport::TransportError> {
            Ok(())
        }
        fn recv(&self) -> Option<DcMsg> {
            None
        }
        fn attach(&self, sink: crate::transport::Sink) {
            *self.sink.lock() = Some(sink);
        }
        fn close(&self) {
            self.sink.lock().take();
        }
    }

    #[test]
    fn an_owner_encodes_every_payload_send_and_holds_its_bat_alone() {
        let (tx, sent) = unbounded();
        let tap = Arc::new(Tap { sent: tx, sink: Default::default() });
        let node = RingNode::spawn(NodeId(0), tap.clone(), NodeOptions::default());
        let column = Column::from(vec![1, 2, 3]);
        let want = storage::bat_to_bytes(&Bat::dense(column.clone()));
        node.load_table("sys", "t", vec![("x", column)]).unwrap();
        node.wait_for_table_timeout("sys", "t", Duration::from_secs(10)).unwrap();
        let bat = node.ring_catalog().lookup("sys", "t", "x").unwrap().bat;
        let deliver = |msg| (tap.sink.lock().as_mut().expect("attached"))(msg);
        let ask = || deliver(DcMsg::Request(crate::msg::ReqMsg { origin: NodeId(1), bat }));
        let next_payload = || loop {
            match sent.recv_timeout(Duration::from_secs(10)).expect("a frame") {
                DcMsg::Bat { header, payload: Some(bytes) } => return (header, bytes),
                _ => continue,
            }
        };

        // Asked by node 1, the owner loads the fragment, bytes attached;
        // asked again while the header is out, the header's return leaves
        // with them once more.
        ask();
        let (header, first) = next_payload();
        ask();
        deliver(DcMsg::Bat { header, payload: None });
        let (_, second) = next_payload();
        assert_eq!((&first[..], &second[..]), (&want[..], &want[..]));
        assert_ne!(first.as_ptr(), second.as_ptr(), "each send encodes its own buffer");

        // What the owner holds for the fragment is its `Bat`, nothing more.
        let waiter = Arc::new(Waiter::default());
        node.send(Cmd::Pin { query: QueryId(1), bat, waiter: Arc::clone(&waiter) }).unwrap();
        let cell = waiter.wait(Duration::from_secs(10)).unwrap();
        assert_eq!(format!("{cell:?}"), "Frag::Bat(3 rows)");
        node.shutdown();
    }
}
