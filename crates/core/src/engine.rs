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
//! each node owns its catalogs, kept in sync by [`DcMsg::Catalog`]
//! gossip circulating once around the ring, and statements for a remote
//! owner's fragments travel there as [`DcMsg::Routed`] messages (§6.4;
//! see [`crate::routed`]).

use crate::catalog::OwnedState;
use crate::config::{DataDir, DcConfig};
use crate::error::DcError;
use crate::hotset::{spill_victims, HotsetAccounting, HotsetRow, HotsetSnapshot};
use crate::ids::{BatId, NodeId, QueryId};
use crate::msg::{AckMsg, CatalogCol, CatalogMsg, DcMsg};
use crate::proto::{DcNode, Effect, PinOutcome};
use crate::routed::{describe, Due, Pending, Routed};
use crate::runtime::{CatalogNotify, Cmd, Frag, FragInfo, RingCatalog, RingHooks, Waiter};
use crate::stats::NodeStats;
use crate::transport::{mem, MeteredTransport, RingTransport};
use batstore::ops::{self, MutOp, Mutation};
use batstore::{storage, Bat, BatStore, Catalog, Column, ResultSet};
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use dc_persist::{
    CheckpointMetrics, Checkpointer, ColRec, FragSnap, Snapshot, TableRec, WalRecord, WalWriter,
};
use mal::{MalError, SessionCtx};
use netsim::SimTime;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
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
                // (FragSnap), not the catalog mirror; the caller
                // refreshes owned columns before re-advertising.
                version: 0,
            })
            .collect(),
    }
}

/// Merge table metadata into a node's catalogs (the in-memory half of
/// [`NodeCtx::apply_catalog`], shared with startup recovery).
fn publish_table(catalog: &RingCatalog, meta: &RwLock<Catalog>, c: &CatalogMsg) {
    for col in &c.columns {
        catalog.publish(
            &c.schema,
            &c.table,
            &col.name,
            FragInfo { bat: col.bat, size: col.size, owner: col.owner, version: col.version },
        );
    }
    let mut meta = meta.write();
    if meta.table(&c.schema, &c.table).is_err() {
        // The metadata catalog stores zero-row columns: only names
        // and types are consulted by codegen on ring nodes.
        let typed: Vec<(&str, Column)> =
            c.columns.iter().map(|col| (col.name.as_str(), Column::empty(col.ty))).collect();
        let _ = meta.create_table_columnar(&mut BatStore::new(), &c.schema, &c.table, typed);
    }
}

/// The durability subsystem of one node: its WAL generation, the
/// background checkpointer, and the durable mirror of known tables the
/// snapshots are cut from. Present only when the node was spawned with a
/// [`DataDir`].
struct PersistCtx {
    dir: dc_persist::DataDir,
    wal: WalWriter,
    /// Active WAL generation (`wal-<gen>.log`).
    gen: u64,
    fsync: dc_persist::FsyncPolicy,
    checkpoint_wal_bytes: u64,
    bytes_since_checkpoint: u64,
    checkpointer: Checkpointer,
    /// The fragment versions whose `bats/<id>.v<version>.bat` file a
    /// committed record names — the `FragMeta` of a bulk load or a
    /// spill, or the last checkpoint that named the fragment. A resident
    /// fragment still at its durable version is *clean*: its RAM payload
    /// can be dropped with no further I/O.
    durable: HashMap<BatId, u32>,
    /// The versions named by the snapshot the checkpointer is writing —
    /// at most one, its outcome a [`NodeEvent::Checkpointed`]. They
    /// become `durable` on commit.
    in_flight: Option<HashMap<BatId, u32>>,
    /// Every table this node knows, keyed `schema.table` — the catalog
    /// half of a snapshot.
    tables: HashMap<String, CatalogMsg>,
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

/// The `Bat` of an owned fragment.
fn owned_bat(frag: &Frag) -> Arc<Bat> {
    frag.bat().expect("an owner's cell is built from its Bat")
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
    rx: Receiver<NodeEvent>,
    transport: Arc<dyn RingTransport>,
    /// This node's replica of the ring-wide fragment catalog.
    catalog: Arc<RingCatalog>,
    /// This node's SQL metadata catalog (names and types only; the data
    /// lives in the ring).
    meta: Arc<RwLock<Catalog>>,
    /// Owned fragment payloads ("local disk"): cells built from the
    /// authoritative `Bat`, their wire form memoised on first send.
    disk: HashMap<BatId, Frag>,
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
    /// Residency accounting against the node's memory budget: which
    /// owned fragments hold RAM, which are spilled to disk.
    hotset: HotsetAccounting,
    /// How long a dirty spill took to write its file and record: a clean
    /// spill writes nothing and records no sample.
    spill_hist: Arc<dc_obs::Histogram>,
    /// Disk-to-ring latency of fragment re-admissions.
    readmit_hist: Arc<dc_obs::Histogram>,
    /// Catalog gossip messages merged into this node's catalogs.
    gossip_applied: Arc<dc_obs::Counter>,
    /// Durable writes that failed where nothing could be refused: a
    /// gossiped table's WAL record, a bulk load's file or record.
    persist_errors: Arc<dc_obs::Counter>,
    /// The LOIT ladder's current rung, set whenever the protocol tick
    /// may have moved it.
    loit_level: Arc<dc_obs::Gauge>,
    /// [`RingTransport::frames_rejected`], brought up to date whenever
    /// the counters are read.
    frames_rejected: Arc<dc_obs::Counter>,
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
        DcMsg::Routed(r) => match r.m.op {
            MutOp::Insert(_) => 3,
            MutOp::Update(_) | MutOp::Delete => 4,
        },
        DcMsg::Ack(_) => 5,
    }
}

/// The histogram names backing [`NodeCtx::msg_hists`], in [`msg_kind`]
/// order.
const MSG_HIST_NAMES: [&str; 6] = [
    "dc_msg_bat_handle_us",
    "dc_msg_request_handle_us",
    "dc_msg_catalog_handle_us",
    "dc_msg_append_handle_us",
    "dc_msg_mutate_handle_us",
    "dc_msg_ack_handle_us",
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

/// Telemetry handles of the SQL choke point ([`RingNode::run_sql`]),
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
            statements: obs.counter("sql_statements"),
            errors: obs.counter("sql_errors"),
            stmt_hists: std::array::from_fn(|i| obs.histogram(STMT_HIST_NAMES[i])),
            template_hits: obs.counter("template_hits"),
            template_misses: obs.counter("template_misses"),
            template_entries: obs.gauge("template_entries"),
        }
    }
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
                    self.node.stats.retries += 1;
                    let detail = format!("{what}, attempt {attempt}");
                    self.obs.trace(self.routed.epoch(), id, "retry", detail);
                    // A failing resend (edge still severed) is fine: the
                    // next deadline fires again, and the budget bounds it.
                    let _ = self.transport.send_data(frame);
                }
                Due::TimedOut(p) => {
                    self.node.stats.timeouts += 1;
                    let detail = format!("{} after {} attempts", p.what(), p.attempts);
                    self.obs.trace(self.routed.epoch(), p.msg.id, "timeout", detail);
                    let err = p.timeout_error();
                    self.settle(p, Err(err));
                }
            }
        }
    }

    /// Send a routed statement's first attempt and register it for
    /// ack-tracking. A failed first send (severed edge) is absorbed: the
    /// retry schedule re-sends it, and the budget bounds the wait.
    fn route(&mut self, m: Mutation, waiter: Arc<Waiter<u64>>) {
        let p = self.routed.begin(self.node.id, m, waiter, Instant::now());
        self.obs.trace(p.msg.epoch, p.msg.id, "route", p.what());
        let _ = self.transport.send_data(DcMsg::Routed(p.msg.clone()));
    }

    /// Deliver a routed statement's result to its origin: resolved
    /// locally when ownership moved to us mid-flight, otherwise as an
    /// [`AckMsg`] clockwise. A lost ack is counted loudly, but the
    /// origin's retry will re-deliver the statement and the dedup cache
    /// will re-send this result.
    fn answer_routed(&mut self, origin: NodeId, epoch: u64, id: u64, result: Result<u64, String>) {
        self.obs.trace(epoch, id, "ack_sent", format!("to {origin}"));
        let ack = AckMsg { target: origin, epoch, id, result };
        if origin == self.node.id {
            self.finish_routed(ack);
        } else if let Err(e) = self.transport.send_data(DcMsg::Ack(ack)) {
            self.node.stats.mutation_acks_lost += 1;
            eprintln!(
                "[dc-node {}] statement {} applied but its ack could not be sent: {e}",
                self.node.id, id
            );
        }
    }

    /// Append a durable change to the WAL (ahead of applying it); a
    /// no-op for diskless nodes. `rewritten`: see [`PersistCtx::log`].
    fn log_durable(&mut self, rec: &WalRecord, rewritten: u64) -> Result<(), String> {
        if let Some(p) = self.persist.as_mut() {
            let n = p.log(rec, rewritten)?;
            self.node.stats.wal_records += 1;
            self.node.stats.wal_bytes += n;
            self.checkpoint_due = true;
        }
        Ok(())
    }

    /// Make an owned fragment's payload at `version` durable: its
    /// `bats/<id>.v<version>.bat` file, synced, then the `FragMeta`
    /// naming it, counting `rewritten` toward the checkpoint trigger.
    /// Only after both is that version clean, so dropping the payload
    /// costs no further I/O. A bulk load stores version 0 this way, a
    /// dirty spill the version it is at.
    fn store_durably(
        &mut self,
        bat: BatId,
        version: u32,
        payload: &Bat,
        rewritten: u64,
    ) -> Result<(), String> {
        let Some(p) = self.persist.as_ref() else { return Ok(()) };
        p.dir
            .write_fragment(bat.0, version, payload)
            .map_err(|e| format!("writing its file: {e}"))?;
        self.log_durable(&WalRecord::FragMeta { bat: bat.0, version }, rewritten)?;
        self.persist.as_mut().expect("checked above").durable.insert(bat, version);
        Ok(())
    }

    /// Mirror table metadata durably, WAL-logging it the first time this
    /// node learns of the table. The mirror is updated only after the
    /// log succeeds: a failed attempt leaves the table unknown, so a
    /// retry (re-issued DDL, re-circulating gossip) logs it again rather
    /// than acknowledging durability that never happened.
    fn persist_table(&mut self, c: &CatalogMsg) -> Result<(), String> {
        if self.persist.is_none() {
            return Ok(());
        }
        let key = format!("{}.{}", c.schema, c.table);
        let known = self.persist.as_ref().expect("checked above").tables.contains_key(&key);
        if !known {
            self.log_durable(&WalRecord::Table(table_rec(c)), 0)?;
        }
        self.persist.as_mut().expect("checked above").tables.insert(key, c.clone());
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
        // Every resident fragment rides along with its payload; the
        // writer skips the ones whose version already has its file.
        let mut frags: Vec<FragSnap> = self
            .disk
            .iter()
            .map(|(b, f)| FragSnap {
                bat: b.0,
                version: self.node.s1.get(*b).map(|o| o.version).unwrap_or(0),
                payload: Some(owned_bat(f)),
            })
            .collect();
        // Spilled fragments ride along payload-less: their at-rest copy
        // is the file of the version they were spilled at, and the entry
        // keeps that file out of garbage collection and the version in
        // the catalog snapshot.
        for (bat, info) in self.hotset.spilled_iter() {
            frags.push(FragSnap { bat: bat.0, version: info.version, payload: None });
        }
        let names = frags.iter().map(|f| (BatId(f.bat), f.version)).collect();
        let snap = Snapshot {
            node: self.node.id.0,
            replay_from: next_gen,
            tables: p.tables.values().map(table_rec).collect(),
            frags,
        };
        if p.checkpointer.submit(snap) {
            self.node.stats.checkpoints += 1;
            p.in_flight = Some(names);
        }
    }

    /// The checkpointer finished the snapshot in flight. On a commit the
    /// versions it names are durable, unless a load or a spill made a
    /// later one durable meanwhile; on a failure `durable` stands. Either
    /// way the next snapshot may go.
    fn on_checkpointed(&mut self, committed: bool) {
        let Some(p) = self.persist.as_mut() else { return };
        let Some(named) = p.in_flight.take() else { return };
        if committed {
            for (bat, version) in named {
                let durable = p.durable.entry(bat).or_insert(version);
                *durable = (*durable).max(version);
            }
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
                let m = &r.m;
                if self.mutation_owner(&m.schema, &m.table) == Ok(self.node.id) {
                    // A retry re-delivers the same statement id; the
                    // dedup cache replays the first outcome instead of
                    // growing or rewriting the fragments twice.
                    let what = describe(m);
                    let key = (r.origin.0, r.epoch, r.id);
                    let result = match self.routed.applied(key) {
                        Some(cached) => {
                            self.node.stats.mutations_deduped += 1;
                            self.obs.trace(r.epoch, r.id, "dedup", format!("{what} re-delivered"));
                            cached.clone()
                        }
                        None => {
                            let applied = self.apply_mutation(m);
                            let detail = match &applied {
                                Ok(rows) => format!("{what}, {rows} rows"),
                                Err(e) => format!("{what} failed: {e}"),
                            };
                            if let (MutOp::Insert(given), Err(_)) = (&m.op, &applied) {
                                self.node.stats.appends_dropped += given.len() as u64;
                            }
                            self.obs.trace(r.epoch, r.id, "apply", detail);
                            self.routed.remember(key, applied.clone());
                            applied
                        }
                    };
                    self.answer_routed(r.origin, r.epoch, r.id, result);
                } else if r.origin != self.node.id {
                    let _ = self.transport.send_data(DcMsg::Routed(r));
                } else {
                    // Back at the origin without finding an owner: the
                    // fragment is gone (the §4.2.3 analog of a request
                    // circling back); fail the blocked statement loudly.
                    if let MutOp::Insert(_) = m.op {
                        self.node.stats.appends_dropped += 1;
                    }
                    let err =
                        format!("no owner found for {}.{} (fragments gone?)", m.schema, m.table);
                    self.finish_routed(AckMsg {
                        target: r.origin,
                        epoch: r.epoch,
                        id: r.id,
                        result: Err(err),
                    });
                }
            }
            DcMsg::Ack(a) => {
                if a.target == self.node.id {
                    self.finish_routed(a);
                } else {
                    let _ = self.transport.send_data(DcMsg::Ack(a));
                }
            }
        }
    }

    /// Resolve a routed statement's acknowledgement at its origin. An
    /// ack that matches nothing pending (see [`Routed::ack`]) has no side
    /// effects — counting failures there would double-book them.
    fn finish_routed(&mut self, ack: AckMsg) {
        let Some(p) = self.routed.ack(ack.epoch, ack.id) else { return };
        let outcome = match &ack.result {
            Ok(rows) => format!("{} ok, {rows} rows", p.what()),
            Err(e) => format!("{} failed: {e}", p.what()),
        };
        self.obs.trace(ack.epoch, ack.id, "ack", outcome);
        self.settle(p, ack.result);
    }

    /// A routed statement this node originated is over (acked, or timed
    /// out): book the outcome and wake the caller blocked on it.
    fn settle(&mut self, p: Pending, result: Result<u64, String>) {
        match (&p.msg.m.op, &result) {
            (MutOp::Insert(_), Err(_)) => self.node.stats.appends_failed += 1,
            (_, Err(_)) => self.node.stats.mutations_failed += 1,
            _ => {}
        }
        p.waiter.fulfill(result);
    }

    /// Guarantee the owned fragment's payload is in RAM, reloading the
    /// file of the version it was spilled at if necessary. Returns
    /// whether a disk reload happened. That version is the one the
    /// catalog still records (spilled fragments are immutable —
    /// mutations reload first), and the reloaded payload is clean: the
    /// file it came from stays, so spilling it again costs nothing.
    fn ensure_resident(&mut self, bat: BatId) -> Result<bool, String> {
        if self.disk.contains_key(&bat) {
            return Ok(false);
        }
        let Some(info) = self.hotset.spilled_get(bat) else {
            return Err(format!("owned {bat} missing from disk"));
        };
        let Some(p) = self.persist.as_ref() else {
            return Err(format!("owned {bat} spilled but the node has no data dir"));
        };
        let start = Instant::now();
        let payload = storage::load_bat(&p.dir.bat_path(bat.0, info.version))
            .map_err(|e| format!("reloading spilled {bat}: {e}"))?;
        let size = payload.byte_size() as u64;
        self.disk.insert(bat, Frag::from_bat(Arc::new(payload)));
        self.hotset.note_reloaded(bat);
        self.note_resident(bat, size);
        self.node.stats.loi_readmits += 1;
        self.readmit_hist.record_elapsed_micros(start);
        self.obs.trace(
            self.routed.epoch(),
            0,
            "readmit",
            format!("{bat} reloaded from disk ({size} bytes, spilled at v{})", info.version),
        );
        Ok(true)
    }

    /// An owned payload is in RAM at `size` bytes: account for it, and
    /// enforce the budget once the current event is handled (not now: the
    /// caller is about to use the payload).
    fn note_resident(&mut self, bat: BatId, size: u64) {
        self.hotset.note_resident(bat, size);
        self.budget_due = true;
    }

    /// Move a cold fragment's payload out of RAM, within the event that
    /// chose it, leaving `bats/<id>.v<version>.bat` the only copy. Nobody
    /// is told — the next request to reach this owner finds the fragment
    /// off the ring and reloads it (Fig. 3 outcome 4). A *clean* victim —
    /// still at a version whose file a committed record names — is
    /// dropped at once. A *dirty* one first gets that file and record
    /// ([`NodeCtx::store_durably`]), whatever checkpoint is in flight:
    /// its GC deletes only versions below the ones it names. A victim
    /// whose write fails stays resident, counted in `persist_errors`.
    /// No-op if the
    /// payload is not resident, without a data dir (nowhere to put the
    /// at-rest copy), or without a memory budget (nothing to enforce: the
    /// payload just stops circulating and stays resident, as on diskless
    /// nodes).
    fn spill(&mut self, bat: BatId) {
        let Some(p) = self.persist.as_ref() else { return };
        if self.hotset.mem_budget().is_none() {
            return;
        }
        let (Some(frag), Some(owned)) = (self.disk.get(&bat), self.node.s1.get(bat)) else {
            return;
        };
        let (version, size) = (owned.version, owned.size);
        if p.durable.get(&bat) != Some(&version) {
            let (start, payload) = (Instant::now(), owned_bat(frag));
            if let Err(e) = self.store_durably(bat, version, &payload, size) {
                self.persist_errors.inc();
                eprintln!("[dc-node {}] fragment {bat} v{version} not spilled: {e}", self.node.id);
                return;
            }
            self.spill_hist.record_elapsed_micros(start);
        }
        self.disk.remove(&bat);
        self.hotset.note_spilled(bat, version, size);
        self.node.stats.loi_evictions += 1;
        self.obs.trace(
            self.routed.epoch(),
            0,
            "evict",
            format!("{bat} spilled ({size} bytes, v{version})"),
        );
    }

    /// Spill the coldest off-ring fragments until residency fits the
    /// memory budget. Runs after residency grew or an owned fragment left
    /// the ring.
    fn enforce_budget(&mut self) {
        let excess = self.hotset.excess();
        if self.persist.is_none() || excess == 0 {
            return;
        }
        let candidates: Vec<(BatId, f64, u64)> = self
            .node
            .s1
            .iter()
            .filter(|(bat, o)| o.state == OwnedState::OnDisk && self.disk.contains_key(bat))
            .map(|(bat, o)| (bat, o.last_loi, o.size))
            .collect();
        for bat in spill_victims(candidates, excess) {
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
                let state = if self.hotset.is_spilled(bat) {
                    "spilled"
                } else {
                    match o.state {
                        OwnedState::InRing { .. } => "in-ring",
                        OwnedState::Loading => "loading",
                        OwnedState::Pending { .. } => "pending",
                        OwnedState::OnDisk => "on-disk",
                    }
                };
                let table = self
                    .catalog
                    .table_of(bat)
                    .map(|(s, t)| format!("{s}.{t}"))
                    .unwrap_or_else(|| "?".into());
                HotsetRow { bat, table, state, loi: o.last_loi, version: o.version, size: o.size }
            })
            .collect();
        rows.sort_by_key(|r| r.bat.0);
        HotsetSnapshot {
            rows,
            loit: self.node.ladder.current(),
            loit_level: self.node.ladder.level_index(),
            resident_bytes: self.hotset.resident_bytes(),
            spilled_bytes: self.hotset.spilled_bytes(),
            mem_budget: self.hotset.mem_budget(),
        }
    }

    /// Merge gossiped table metadata into this node's catalogs, logging
    /// it durably first. A WAL failure here cannot reject the gossip (the
    /// origin already committed): the node serves the table from memory
    /// but would forget it on restart, and `persist_errors` counts it.
    fn apply_catalog(&mut self, c: &CatalogMsg) {
        if let Err(e) = self.persist_table(c) {
            self.persist_errors.inc();
            eprintln!(
                "[dc-node {}] table {}.{} applied but not durable: {e}",
                self.node.id, c.schema, c.table
            );
        }
        publish_table(&self.catalog, &self.meta, c);
        self.gossip_applied.inc();
        self.obs.trace(0, 0, "gossip", format!("{}.{} from {}", c.schema, c.table, c.origin));
        self.notify.bump();
    }

    /// The version an owned fragment's next change produces (§6.4).
    fn next_version(&self, bat: BatId) -> u32 {
        self.node.s1.get(bat).map(|o| o.version + 1).unwrap_or(1)
    }

    /// Make `payload` an owned fragment's authoritative copy at
    /// `version`: swap the disk payload, bump the version, and update
    /// this node's catalog replica.
    fn install(&mut self, bat: BatId, version: u32, payload: Bat) {
        let size = payload.byte_size() as u64;
        self.disk.insert(bat, Frag::from_bat(Arc::new(payload)));
        self.note_resident(bat, size);
        if let Some(owned) = self.node.s1.get_mut(bat) {
            owned.size = size;
            owned.version = version;
        }
        self.catalog.update_meta(bat, size, version);
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
                        let r = self.ensure_resident(bat).and_then(|_| {
                            self.disk
                                .get(&bat)
                                .cloned()
                                .ok_or_else(|| format!("owned fragment {bat} missing from disk"))
                        });
                        waiter.fulfill(r);
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
            Cmd::StoreOwned { bat, payload } => {
                // Driver-side bulk load. A durability failure cannot
                // reject it (no ack channel): the fragment stays resident
                // and dirty — never dropped before its spill or a
                // checkpoint has written it — and `persist_errors` counts
                // it.
                if let Err(e) = self.store_durably(bat, 0, &payload, 0) {
                    self.persist_errors.inc();
                    eprintln!(
                        "[dc-node {}] fragment {bat} loaded but not durable: {e}",
                        self.node.id
                    );
                }
                let size = payload.byte_size() as u64;
                self.disk.insert(bat, Frag::from_bat(payload));
                self.note_resident(bat, size);
                self.node.register_owned(bat, size);
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
                            self.node.stats.mutations_routed += 1;
                        }
                        self.route(m, ack);
                    }
                }
            }
            Cmd::Stats { ack } => {
                // Read before every rendering of the counters (`dc.stats`,
                // `dc-node metrics`), so it needs no other refresh.
                let rejected = self.transport.frames_rejected();
                self.frames_rejected.add(rejected.saturating_sub(self.frames_rejected.get()));
                ack.fulfill(Ok(self.node.stats.clone()));
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
        if self.meta.read().table(schema, table).is_ok() {
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
        self.persist_table(&gossip)?;
        for (bat, payload) in payloads {
            let size = payload.byte_size() as u64;
            self.disk.insert(bat, Frag::from_bat(payload));
            self.note_resident(bat, size);
            self.node.register_owned(bat, size);
        }
        publish_table(&self.catalog, &self.meta, &gossip);
        self.notify.bump();
        let _ = self.transport.send_data(DcMsg::Catalog(gossip));
        Ok(0)
    }

    /// The table's column layout as this node's replica knows it:
    /// `(name, fragment)` in declared order, resolved against the ring
    /// catalog.
    fn table_frags(&self, schema: &str, table: &str) -> Result<Vec<(String, FragInfo)>, String> {
        let names: Vec<String> = {
            let meta = self.meta.read();
            let def =
                meta.table(schema, table).map_err(|_| format!("unknown table {schema}.{table}"))?;
            def.columns.iter().map(|c| c.name.clone()).collect()
        };
        names
            .into_iter()
            .map(|name| {
                self.catalog
                    .lookup(schema, table, &name)
                    .map(|info| (name.clone(), info))
                    .ok_or_else(|| format!("unknown fragment {schema}.{table}.{name}"))
            })
            .collect()
    }

    /// The single node owning every fragment of the table, or an error:
    /// a mutation split across owners could not be applied atomically.
    /// SQL-created tables are always single-owner; spread (round-robin
    /// loaded) tables take no INSERT, UPDATE or DELETE for now.
    fn mutation_owner(&self, schema: &str, table: &str) -> Result<NodeId, String> {
        let frags = self.table_frags(schema, table)?;
        let mut owners = frags.iter().map(|(_, i)| i.owner);
        let first = owners.next().ok_or_else(|| format!("{schema}.{table} has no columns"))?;
        if owners.any(|o| o != first) {
            return Err(format!(
                "mutating {schema}.{table} is not supported: its fragments are owned by \
                 multiple nodes and a split mutation would not be atomic"
            ));
        }
        Ok(first)
    }

    /// Apply a logical INSERT/UPDATE/DELETE at this node, the fragment
    /// owner (§6.4): stage it against the authoritative disk payloads
    /// ([`ops::stage`], which WAL replay runs too), log the statement and
    /// the versions it reaches as *one* record, then swap the disk
    /// copies, bump the fragment versions, and re-advertise the table so
    /// every replica converges on the new (size, version) view. Because
    /// staging and logging precede every in-memory change, neither a WAL
    /// failure nor a crash leaves half a row behind. Stale copies already
    /// circulating keep serving readers that accept them; the next owner
    /// pass re-enters the ring with the fresh payload.
    fn apply_mutation(&mut self, m: &Mutation) -> Result<u64, String> {
        let frags = self.table_frags(&m.schema, &m.table)?;
        // Spilled columns reload first: a mutation must apply against the
        // RAM copy, bumping the version past the stale at-rest file.
        for (_, info) in &frags {
            if self.node.s1.is_owner(info.bat) {
                self.ensure_resident(info.bat)?;
            }
        }
        let mut cols = Vec::with_capacity(frags.len());
        for (name, info) in &frags {
            if !self.node.s1.is_owner(info.bat) {
                return Err(format!("node {} does not own {}.{}", self.node.id, m.schema, m.table));
            }
            let frag = self
                .disk
                .get(&info.bat)
                .ok_or_else(|| format!("owned {} missing from disk", info.bat))?;
            cols.push((name.as_str(), owned_bat(frag)));
        }
        let staged = ops::stage(&cols, &m.op, &m.preds).map_err(|e| e.to_string())?;
        if staged.matched == 0 {
            return Ok(0);
        }
        let versions: Vec<(BatId, u32)> = staged
            .columns
            .iter()
            .map(|(i, _)| (frags[*i].1.bat, self.next_version(frags[*i].1.bat)))
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
        let logged = versions.iter().map(|(bat, v)| (bat.0, *v)).collect();
        self.log_durable(&WalRecord::Mutate { m: m.clone(), versions: logged }, rewritten)?;
        for ((bat, version), (_, payload)) in versions.into_iter().zip(staged.columns) {
            self.install(bat, version, payload);
        }
        match &m.op {
            MutOp::Insert(given) => self.node.stats.appends_applied += given.len() as u64,
            MutOp::Update(_) | MutOp::Delete => self.node.stats.mutations_applied += 1,
        }
        self.readvertise_table(&m.schema, &m.table);
        Ok(staged.matched as u64)
    }

    /// Gossip the table's current catalog entry (sizes and versions as
    /// the owner now holds them) clockwise, and refresh the durable
    /// mirror, so every replica converges after a mutation (§6.4's
    /// "propagates f" re-advertisement).
    fn readvertise_table(&mut self, schema: &str, table: &str) {
        let Ok(frags) = self.table_frags(schema, table) else { return };
        let columns: Vec<CatalogCol> = {
            let meta = self.meta.read();
            let Ok(def) = meta.table(schema, table) else { return };
            frags
                .iter()
                .map(|(name, info)| CatalogCol {
                    name: name.clone(),
                    ty: def.column(name).map(|c| c.ty).unwrap_or(batstore::ColType::Int),
                    bat: info.bat,
                    size: info.size,
                    owner: info.owner,
                    version: info.version,
                })
                .collect()
        };
        let msg = CatalogMsg {
            origin: self.node.id,
            schema: schema.to_string(),
            table: table.to_string(),
            columns,
        };
        // Refresh the durable mirror (already WAL-logged the first time
        // the table became known; this only updates the snapshot view).
        if let Some(p) = self.persist.as_mut() {
            p.tables.insert(format!("{schema}.{table}"), msg.clone());
        }
        let _ = self.transport.send_data(DcMsg::Catalog(msg));
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
                    // sends its authoritative copy (fresh after appends),
                    // anybody else relays the inbound bytes untouched.
                    let payload = match self.disk.get(&header.bat) {
                        _ if !payload => None,
                        Some(owned) => Some(owned.wire()),
                        None => inbound.map(|i| i.wire.clone()),
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
                        // §3 bytes-moved accounting: a fragment that
                        // arrived over the ring and fulfills at least one
                        // registered query cost one payload transfer.
                        // Cache- and owner-served pins move nothing.
                        if inbound.is_some() && !to_serve.is_empty() {
                            self.node.stats.ring_query_bytes_moved += header.size;
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
    /// Requires `data_dir`; ignored on diskless nodes (they have nowhere
    /// to put the at-rest copy). `None` disables spilling: unloaded
    /// fragments stay resident.
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
    hooks: Arc<RingHooks>,
    session: Arc<SessionCtx>,
    catalog: Arc<RingCatalog>,
    meta: Arc<RwLock<Catalog>>,
    notify: Arc<CatalogNotify>,
    transport: Arc<dyn RingTransport>,
    obs: Arc<dc_obs::Registry>,
    event_loop: Option<JoinHandle<()>>,
    next_query: AtomicU64,
    next_frag: Arc<AtomicU32>,
    templates: mal::TemplateCache,
    sql_metrics: SqlMetrics,
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
        let meta = Arc::new(RwLock::new(Catalog::new()));
        let notify = Arc::new(CatalogNotify::new());
        let next_frag = Arc::new(AtomicU32::new(1));
        let obs = Arc::new(dc_obs::Registry::new(id.0));
        // Every fabric is metered the same way: wrapping here (rather
        // than inside each transport) gives the in-process and TCP rings
        // identical per-edge frame/byte counters.
        let transport: Arc<dyn RingTransport> = Arc::new(MeteredTransport::new(transport, &obs));

        let mut node = DcNode::new(id, opts.cfg.clone());
        let mut disk: HashMap<BatId, Frag> = HashMap::new();
        let mut hotset = HotsetAccounting::new(opts.mem_budget, &obs);
        let mut persist = None;
        let mut readvertise: Vec<CatalogMsg> = Vec::new();

        if let Some(dd) = &opts.data_dir {
            let pdir = dc_persist::DataDir::open(&dd.path)
                .map_err(|e| format!("opening data dir {}: {e}", dd.path.display()))?;
            let rec = dc_persist::recover(&pdir, id.0)?;
            node.stats.recovered_frags = rec.frags.len() as u64;
            node.stats.recovered_wal_records = rec.wal_records;

            // Rebuild owned fragments ("local disk") and the S1 catalog.
            for (raw, f) in rec.frags {
                let bat = BatId(raw);
                let payload = f.bat;
                let size = payload.byte_size() as u64;
                node.register_owned(bat, size);
                if let Some(owned) = node.s1.get_mut(bat) {
                    owned.version = f.version;
                }
                hotset.note_resident(bat, size);
                disk.insert(bat, Frag::from_bat(payload));
            }

            // Rebuild both catalogs; owned tables re-enter the gossip
            // once the loop runs, with fresh sizes and versions and this
            // node as the re-advertisement origin.
            let mut tables = HashMap::new();
            for t in &rec.tables {
                let mut c = catalog_msg(t);
                for col in &mut c.columns {
                    if let Some(f) = disk.get(&col.bat) {
                        col.size = owned_bat(f).byte_size() as u64;
                    }
                    if let Some(owned) = node.s1.get(col.bat) {
                        col.version = owned.version;
                    }
                }
                publish_table(&catalog, &meta, &c);
                tables.insert(format!("{}.{}", c.schema, c.table), c.clone());
                if c.columns.iter().any(|col| col.owner == id) {
                    c.origin = id;
                    readvertise.push(c);
                }
            }

            // Resume the fragment-id allocator past every recovered id in
            // this node's namespace — a fresh CREATE or load must never
            // collide with a recovered fragment.
            let ns = id.0 as u32 % 255 + 1;
            let max_allocated =
                disk.keys().filter(|b| b.0 >> 24 == ns).map(|b| b.0 & 0x00ff_ffff).max();
            if let Some(m) = max_allocated {
                next_frag.store(m + 1, Ordering::Relaxed);
            }

            // Startup compaction: fold whatever was replayed into one
            // fresh checkpoint + empty WAL, so the next crash replays a
            // short tail. Recovery left exactly the committed fragment
            // files, so only fragments the WAL tail moved are rewritten.
            let durable: HashMap<BatId, u32> = disk
                .keys()
                .map(|b| (*b, node.s1.get(*b).map(|o| o.version).unwrap_or(0)))
                .collect();
            let snap = Snapshot {
                node: id.0,
                replay_from: rec.next_gen,
                tables: tables.values().map(table_rec).collect(),
                frags: disk
                    .iter()
                    .map(|(b, f)| FragSnap {
                        bat: b.0,
                        version: durable[b],
                        payload: Some(owned_bat(f)),
                    })
                    .collect(),
            };
            let checkpoint_metrics = CheckpointMetrics::register(&obs);
            checkpoint_metrics.count(
                dc_persist::write_checkpoint(&pdir, &snap)
                    .map_err(|e| format!("startup checkpoint: {e}"))?,
            );
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
                durable,
                in_flight: None,
                tables,
                wal_append_hist,
                wal_sync_hist,
            });
        }

        let loit_level = obs.gauge("loit_level");
        loit_level.set(node.ladder.level_index() as i64);
        // A zero `load_interval` would turn the loop's sleep into a spin.
        let load_interval =
            Duration::from_nanos(opts.cfg.load_interval.as_nanos()).max(Duration::from_millis(1));
        let ctx = NodeCtx {
            node,
            rx,
            transport: Arc::clone(&transport),
            catalog: Arc::clone(&catalog),
            meta: Arc::clone(&meta),
            disk,
            cache: HashMap::new(),
            waiting: HashMap::new(),
            next_frag: Arc::clone(&next_frag),
            routed: Routed::new(fresh_boot_epoch(), opts.ack_timeout, opts.ack_retries),
            notify: Arc::clone(&notify),
            persist,
            obs: Arc::clone(&obs),
            msg_hists: std::array::from_fn(|i| obs.histogram(MSG_HIST_NAMES[i])),
            hotset,
            spill_hist: obs.histogram("spill_us"),
            readmit_hist: obs.histogram("readmit_us"),
            gossip_applied: obs.counter("gossip_applied"),
            persist_errors: obs.counter("persist_errors"),
            loit_level,
            frames_rejected: obs.counter("ring_frames_rejected"),
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

        let hooks = Arc::new(RingHooks {
            tx: tx.clone(),
            catalog: Arc::clone(&catalog),
            pin_timeout: opts.pin_timeout,
            obs: Arc::clone(&obs),
        });
        // The session's store holds nothing: the data lives in the ring.
        let store = Arc::new(RwLock::new(BatStore::new()));
        let session = Arc::new(
            SessionCtx::new(Arc::clone(&meta), store)
                .with_dc(hooks.clone() as Arc<dyn mal::DcHooks>),
        );

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
            hooks,
            session,
            catalog,
            meta,
            notify,
            transport,
            sql_metrics: SqlMetrics::new(&obs),
            obs,
            event_loop: Some(event_loop),
            next_query: AtomicU64::new(1),
            next_frag,
            templates: mal::TemplateCache::new(),
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
        let columns = cols
            .into_iter()
            .map(|(name, col)| self.store_column(name, col))
            .collect::<Result<_, _>>()?;
        let table = CatalogMsg {
            origin: self.id,
            schema: schema.to_string(),
            table: table.to_string(),
            columns,
        };
        self.send(Cmd::PublishTable { table, gossip: true })
    }

    /// Hand `col` to this node as a new owned fragment and describe it
    /// for the catalog. Its id comes from this node's allocator, like a
    /// created table's, so it collides with no fragment this node owns,
    /// recovered ones included.
    fn store_column(&self, name: &str, col: Column) -> Result<CatalogCol, MalError> {
        let bat = node_frag_id(self.id, self.next_frag.fetch_add(1, Ordering::Relaxed));
        let ty = col.col_type();
        let payload = Arc::new(Bat::dense(col));
        let size = payload.byte_size() as u64;
        self.send(Cmd::StoreOwned { bat, payload })?;
        Ok(CatalogCol { name: name.to_string(), ty, bat, size, owner: self.id, version: 0 })
    }

    /// Compile and execute one SQL statement (SELECT, CREATE TABLE, or
    /// INSERT) on this node, returning the typed [`ResultSet`]: named,
    /// typed columns for SELECTs; affected-row counts and info text for
    /// DML/DDL. This is the engine's canonical query entry point — the
    /// wire protocol ships these columns, and text is rendered only at
    /// edges that want text.
    pub fn execute(&self, sql: &str) -> Result<ResultSet, DcError> {
        self.run_sql(sql).map_err(DcError::from)
    }

    /// The choke point every SQL entry path funnels through
    /// ([`RingNode::execute`] and [`Ring::execute`]): compile + run, with
    /// end-to-end latency recorded per
    /// statement kind and statement/error counters bumped — so the
    /// in-process ring, `dcsh`, and the wire server all feed the same
    /// `stmt_*_us` histograms.
    fn run_sql(&self, sql: &str) -> Result<ResultSet, MalError> {
        let qid = self.next_query.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let result = self
            .compile(sql)
            .and_then(|(template, params)| self.run_bound(qid, &template, &params));
        self.sql_metrics.statements.inc();
        if result.is_err() {
            self.sql_metrics.errors.inc();
        }
        self.sql_metrics.stmt_hists[stmt_kind(sql)].record_elapsed_micros(start);
        result
    }

    /// The query template (§3.2) of `sql`'s shape and the statement's own
    /// literals to bind to its parameter slots. Only a shape this node
    /// has not cached is code-generated (against this node's metadata
    /// replica) and optimized; a compile error caches nothing.
    fn compile(&self, sql: &str) -> Result<(Arc<mal::Program>, Vec<mal::Const>), MalError> {
        let parsed = sqlfront::parse_template(sql)?;
        let params = parsed.bindings()?;
        if let Some(template) = self.templates.get(&parsed.key) {
            self.sql_metrics.template_hits.inc();
            return Ok((template, params));
        }
        let plan = sqlfront::compile_stmt(&parsed.stmt, &self.meta.read())?;
        let template = self.templates.insert(parsed.key, sqlfront::optimize(&plan));
        self.sql_metrics.template_misses.inc();
        self.sql_metrics.template_entries.set(self.templates.len() as i64);
        Ok((template, params))
    }

    /// Execute an already-compiled MAL plan with the given query id,
    /// returning the typed result the plan's sink published.
    pub fn run_plan(&self, qid: u64, plan: &mal::Program) -> Result<ResultSet, MalError> {
        self.run_bound(qid, plan, &plan.params)
    }

    /// [`RingNode::run_plan`] with `params` bound to the plan's
    /// parameter slots in place of its own.
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

    /// Render the front-end plan and the optimized plan that runs.
    pub fn explain_sql(&self, sql: &str) -> Result<(String, String), MalError> {
        let plan = sqlfront::compile_sql(sql, &self.meta.read())?;
        let dc = sqlfront::optimize(&plan);
        Ok((plan.to_string(), dc.to_string()))
    }

    /// Block until this node's metadata replica knows `schema.table`
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
            if self.meta.read().table(schema, table).is_ok() {
                return true;
            }
            if !self.notify.wait_past(seen, deadline) {
                return self.meta.read().table(schema, table).is_ok();
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

    /// Snapshot this node's protocol counters from the event loop. The
    /// chaos suite asserts on `retries` / `timeouts` /
    /// `mutations_deduped` through this.
    pub fn stats(&self) -> Result<NodeStats, DcError> {
        let ack = Arc::new(Waiter::default());
        self.send(Cmd::Stats { ack: Arc::clone(&ack) })
            .map_err(|e| DcError::Ring(e.to_string()))?;
        ack.wait_for_outcome(Duration::from_secs(10), "stats request timed out")
            .map_err(DcError::Ring)
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

    /// This node's telemetry registry: counters, latency histograms, and
    /// the statement trace ring. The same registry the event loop,
    /// transport metering, and `dc.*` system views feed.
    pub fn obs(&self) -> &Arc<dc_obs::Registry> {
        &self.obs
    }

    /// A one-shot Prometheus-style `name value` text dump: protocol
    /// counters (exactly [`NodeStats::counters`]) followed by the
    /// registry's counters, gauges, and expanded histograms. This is
    /// what `dc-node metrics` scrapes.
    pub fn metrics_text(&self) -> Result<String, DcError> {
        let stats = self.stats()?;
        let mut out = String::new();
        for (name, v) in stats.counters() {
            out.push_str(name);
            out.push(' ');
            out.push_str(&v.to_string());
            out.push('\n');
        }
        out.push_str(&self.obs.render_text());
        Ok(out)
    }

    /// This node's replica of the ring-wide fragment catalog.
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
        let n = self.nodes.len();
        let columns = cols
            .into_iter()
            .enumerate()
            .map(|(idx, (name, col))| self.nodes[idx % n].store_column(name, col))
            .collect::<Result<_, _>>()?;
        let gossip = CatalogMsg {
            origin: self.nodes[0].id,
            schema: schema.to_string(),
            table: table.to_string(),
            columns,
        };
        self.nodes[0].send(Cmd::PublishTable { table: gossip, gossip: true })?;

        // The gossip circulates asynchronously; make the load synchronous
        // so a statement on any node immediately after sees the table.
        // `publish_table` fills the ring catalog before the metadata the
        // wait watches, so every column lookup succeeds once it returns.
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

    /// Node placement by §6.1 bidding: returns the cheapest node for a
    /// query needing `bats` fragments.
    pub fn place_query(&self, bats: &[BatId]) -> usize {
        crate::bidding::cheapest_node(self, bats)
    }

    /// Compile `sql` against the given node's metadata replica and
    /// render both the front-end plan and its Data Cyclotron rewrite
    /// (EXPLAIN, Tables 1/2 style). Takes the node index like
    /// [`Ring::execute`] — each node compiles against its own replica.
    pub fn explain_sql(&self, node_idx: usize, sql: &str) -> Result<(String, String), MalError> {
        self.nodes[node_idx].explain_sql(sql)
    }

    pub(crate) fn ring_catalog(&self) -> &RingCatalog {
        self.nodes[0].ring_catalog()
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
            let obs = ring.node(i).obs();
            (obs.counter("template_hits").get(), obs.counter("template_misses").get())
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
        assert_eq!(ring.node(1).obs().gauge("template_entries").get(), 1);
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
        let misses = || ring.node(0).obs().counter("template_misses").get();
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
            let (runs, _) = ring.node(0).compile(sql).unwrap();
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
            let rows = node.hotset().unwrap().rows;
            spilled_past_v0 |= rows.iter().any(|r| r.state == "spilled" && r.version > 0);
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
        assert!(node.stats().unwrap().checkpoints > 0, "no checkpoint interleaved");
        drop(node);

        let node = durable_node(&dir, 2048, mem_budget);
        assert_eq!(state(&node), before);
        node.shutdown();
        std::fs::remove_dir_all(&dir).ok();
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
        loop {
            let stats = node.stats().unwrap();
            if stats.loi_evictions >= 2 {
                break;
            }
            assert!(Instant::now() < deadline, "fragments never spilled: {stats:?}");
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
        let stats = node.stats().unwrap();
        assert!(stats.loi_readmits >= 1, "re-admission not counted: {stats:?}");

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
        let written = node.obs().counter("checkpoint_frags_written");
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
        let before = node.stats().unwrap();
        for _ in 0..10 {
            sweep(&node, 0);
        }
        let after = node.stats().unwrap();
        assert_eq!(after.checkpoints, 0, "a clean spill forced a checkpoint");
        assert!(after.loi_evictions >= before.loi_evictions + 10, "{after:?}");
        assert!(after.loi_readmits >= before.loi_readmits + 10, "{after:?}");
        assert_eq!(written.get(), 0, "a fragment version was written twice");

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
        assert_eq!(node.stats().unwrap().checkpoints, 0, "a dirty spill forced a checkpoint");
        node.shutdown();
        assert_eq!(written.get(), 0, "a checkpoint wrote a fragment file");

        // After a restart the startup checkpoint names v1 — a file it
        // finds, so it writes none — and its GC leaves only that one.
        let node = durable_node(&dir, 16 << 20, budget);
        let files = bat_files(&dir);
        assert!(files.contains(&new) && !files.contains(&old) && files.len() == 4, "{files:?}");
        assert_eq!(node.obs().counter("checkpoint_frags_written").get(), 0);
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
        let stats = node.stats().unwrap();
        assert!(stats.loi_evictions >= INSERTS as u64, "{stats:?}");
        assert!(stats.checkpoints > 0, "dirty spills never triggered a checkpoint");
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
        // The load's write failed, and so does every spill's retry of it.
        assert!(persist_errors(&node) >= 1);

        // The durable column's spill is clean and drops it at once; the
        // other's spill tries to write its file, which the obstruction
        // fails — so it is never dropped.
        spills_while_the_other_stays(&node, clean, blocked);
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
}
