//! A live node's event loop.
//!
//! Every node runs its own event loop (thread) hosting the protocol state
//! machine plus the fragment payload stores. The loop is written purely
//! against the [`RingTransport`] trait (§4.3's network layer): data
//! messages flow clockwise and requests anti-clockwise over whatever
//! fabric the transport provides. [`crate::node`] starts one per
//! [`crate::RingNode`], over any transport — hand it
//! `dc_transport::tcp::join_ring` and the identical engine runs as one
//! process of a real distributed deployment.
//!
//! Queries execute on caller threads through the full DBMS stack: SQL →
//! MAL → DC optimizer → `mal::run_sequential_bound`, which interprets the
//! plan linearly on the thread that executes the statement, with `pin`
//! calls blocking until fragments flow past. Table metadata is *not*
//! shared: each node keeps one catalog ([`RingCatalog`]), kept in sync by
//! [`DcMsg::Catalog`] gossip circulating once around the ring, and
//! statements for a remote owner's fragments travel there as
//! [`DcMsg::Routed`] messages (§6.4; see [`crate::routed`]): every write,
//! and every aggregate that another node — the owner of one of its
//! tables — receives fewer bytes to run, which runs there and comes back
//! as its result.

use crate::catalog::OwnedState;
use crate::error::DcError;
use crate::hotset::{HotsetRow, HotsetSnapshot, OwnedStore, Payload};
use crate::ids::{BatId, NodeId, QueryId};
use crate::msg::{AckMsg, Answer, CatalogCol, CatalogMsg, DcMsg, RoutedMsg, RoutedStmt};
use crate::node::NodeOptions;
use crate::proto::{DcNode, Effect, PinOutcome};
use crate::routed::{
    describe, Admit, Caller, Due, Pending, Routed, PUSHED_BACKLOG, PUSHED_RESULT_MAX,
};
use crate::runtime::{
    CatalogNotify, Cmd, Frag, FragIds, Publish, Push, Reply, RingCatalog, RingHooks,
};
use crate::stats::{trace, EngineStats};
use crate::transport::RingTransport;
use batstore::ops::{self, MutOp, Mutation};
use batstore::{storage, Bat, ResultSet};
use bytes::Bytes;
use crossbeam::channel::{Receiver, Sender};
use dc_persist::{ColRec, Log, Recovered, TableRec, WalRecord};
use netsim::SimTime;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

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

/// Events arriving at a node's event loop.
pub enum NodeEvent {
    /// A ring message, put here by the sink the node attached to its
    /// transport — on the thread that received it.
    Ring(DcMsg),
    /// DBMS-layer command (request/pin/unpin/…).
    Cmd(Cmd),
    /// The log's checkpoint writer finished the snapshot in flight;
    /// `committed` says whether it is now the node's checkpoint.
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

/// One node's event loop and everything only it touches.
pub(crate) struct NodeCtx {
    node: DcNode,
    /// The engine's own counters; the protocol's are `node.stats`.
    stats: EngineStats,
    rx: Receiver<NodeEvent>,
    transport: Arc<dyn RingTransport>,
    /// This node's table catalog.
    catalog: Arc<RingCatalog>,
    /// The node's handle: pushed SELECTs run through its statement path.
    hooks: Arc<RingHooks>,
    /// The node's pushed-SELECT runner, once the first push started it
    /// ([`NodeCtx::take_pushed`]): its channel, the one queue of the
    /// pushed SELECTs `routed` holds, and its thread, which
    /// [`NodeCtx::run`] hands back to be joined.
    runner: Option<(Sender<PushedRun>, JoinHandle<()>)>,
    /// Cached passing fragments (the §4.2.1 local cache): the very cells
    /// their frames arrived as.
    cache: HashMap<BatId, Frag>,
    /// Blocked pins per BAT.
    waiting: HashMap<BatId, Vec<(QueryId, Reply<Frag>)>>,
    /// Fragment-id allocator for created and loaded tables, shared with
    /// the node handle.
    frag_ids: Arc<FragIds>,
    /// Routed statements: the ones this node originated and awaits acks
    /// for, and the results of the ones it applied as owner.
    routed: Routed,
    /// Wakes `wait_for_table` callers when catalog state changes.
    notify: Arc<CatalogNotify>,
    /// The durable log, when the node has a data dir; its checkpoints'
    /// outcomes come back as [`NodeEvent::Checkpointed`].
    log: Option<Log>,
    /// The tables (`schema.table`) the catalog holds whose `Table` record
    /// failed to log: the next advert of each logs it again.
    unlogged: HashSet<String>,
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
fn run_pushed(hooks: &Arc<RingHooks>, PushedRun { origin, epoch, id, sql }: PushedRun) {
    hooks.obs.trace(epoch, id, trace::START, format_args!("select from {origin}"));
    // A panic is answered, and the runner runs on: unanswered, the
    // statement would stay held, and its origin waiting, for good.
    let run = std::panic::AssertUnwindSafe(|| hooks.run(&sql));
    let result = std::panic::catch_unwind(run).unwrap_or_else(|_| {
        Err(DcError::Exec("the statement panicked at the fragment owner".into()))
    });
    let _ = hooks.tx.send(NodeEvent::Answered { origin, epoch, id, result });
}

/// What a checkpoint holds of this node: every table its catalog knows
/// and every fragment it owns.
fn durable_state(catalog: &RingCatalog, store: &OwnedStore, node: &DcNode) -> dc_persist::State {
    (catalog.tables().iter().map(table_rec).collect(), store.snapshot(&node.s1))
}

impl NodeCtx {
    /// Node `id`'s event loop, its state recovered from its data dir if
    /// it has one: owned fragments, the catalog, and the fragment-id
    /// allocator past every recovered id. Returns it with the adverts of
    /// the recovered tables it owns fragments of, to publish once it runs.
    pub(crate) fn open(
        id: NodeId,
        opts: &NodeOptions,
        hooks: Arc<RingHooks>,
        rx: Receiver<NodeEvent>,
        notify: Arc<CatalogNotify>,
        frag_ids: Arc<FragIds>,
    ) -> Result<(NodeCtx, Vec<CatalogMsg>), String> {
        let (obs, catalog) = (Arc::clone(&hooks.obs), Arc::clone(&hooks.catalog));
        let mut node = DcNode::new(id, opts.cfg.clone(), &obs);
        let stats = EngineStats::register(&obs);
        let mut store = OwnedStore::new(opts.data_dir.as_ref().and(opts.mem_budget), &obs);
        let mut readvertise = Vec::new();
        let log = match &opts.data_dir {
            None => None,
            Some(dd) => {
                let rebuild = |rec: Recovered| {
                    stats.recovered_frags.add(rec.frags.len() as u64);
                    stats.recovered_wal_records.add(rec.wal_records);
                    // Rebuild owned fragments ("local disk") and the S1
                    // catalog.
                    for (raw, f) in rec.frags {
                        store.own(&mut node.s1, BatId(raw), f.version, f.bat);
                    }
                    frag_ids.resume_past(node.s1.iter().map(|(bat, _)| bat));
                    // Rebuild the catalog; owned tables re-enter the
                    // gossip once the loop runs, with fresh sizes and
                    // versions and this node as the re-advertisement
                    // origin.
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
                    durable_state(&catalog, &store, &node)
                };
                let done = hooks.tx.clone();
                let (log, durable) = Log::open(
                    &dd.path,
                    id.0,
                    dd.fsync,
                    dd.checkpoint_wal_bytes,
                    &obs,
                    rebuild,
                    move |committed| {
                        let _ = done.send(NodeEvent::Checkpointed { committed });
                    },
                )?;
                store.committed(durable.into_iter().map(|(bat, v)| (BatId(bat), v)));
                Some(log)
            }
        };
        let loit_level = obs.gauge("obs_loit_level");
        loit_level.set(node.ladder.level_index() as i64);
        // A zero `load_interval` would turn the loop's sleep into a spin.
        let load_interval =
            Duration::from_nanos(opts.cfg.load_interval.as_nanos()).max(Duration::from_millis(1));
        let ctx = NodeCtx {
            node,
            stats,
            rx,
            transport: Arc::clone(&hooks.transport),
            catalog,
            runner: None,
            cache: HashMap::new(),
            waiting: HashMap::new(),
            frag_ids,
            routed: Routed::new(fresh_boot_epoch(), opts.ack_timeout, opts.ack_retries),
            notify,
            log,
            unlogged: HashSet::new(),
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
            obs,
            hooks,
        };
        Ok((ctx, readvertise))
    }

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
    ///
    /// On its way out the loop drops itself, and with it every [`Reply`]
    /// it holds and every command still queued: each caller blocked on
    /// this node hears at once that it is down, the pushed SELECT running
    /// included. What it returns is the runner's thread, which then ends
    /// and which the caller joins.
    pub(crate) fn run(mut self) -> Option<JoinHandle<()>> {
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
                        break; // shutdown
                    }
                }
                Ok(NodeEvent::Checkpointed { committed }) => self.on_checkpointed(committed),
                Ok(NodeEvent::Answered { origin, epoch, id, result }) => {
                    self.answer_pushed(origin, epoch, id, result);
                }
                Err(crossbeam::channel::RecvTimeoutError::Timeout) => {}
                Err(crossbeam::channel::RecvTimeoutError::Disconnected) => break,
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
        self.runner.take().map(|(_, thread)| thread)
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

    /// A SELECT pushed here, as its table's owner, is queued on the
    /// node's runner thread, which runs one at a time and which the first
    /// push starts. A re-delivery of one held already is answered
    /// [`Answer::Running`] and not run again; one past the backlog is
    /// declined, and its origin runs it itself.
    fn take_pushed(&mut self, r: &RoutedMsg, sql: &str) {
        let (origin, epoch, id) = (r.origin, r.epoch, r.id);
        let answer = match self.routed.admit((origin.0, epoch, id)) {
            Admit::Run => {
                let run = PushedRun { origin, epoch, id, sql: sql.to_string() };
                if self.runner().is_some_and(|runs| runs.send(run).is_ok()) {
                    return;
                }
                let err = DcError::Ring("the pushed-select runner could not start".into());
                return self.answer_pushed(origin, epoch, id, Err(err));
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

    /// The channel to the node's pushed-SELECT runner, started if this is
    /// the first push; `None` if its thread could not be spawned.
    fn runner(&mut self) -> Option<&Sender<PushedRun>> {
        if self.runner.is_none() {
            let (runs, queue) = crossbeam::channel::unbounded::<PushedRun>();
            let hooks = Arc::clone(&self.hooks);
            let thread = std::thread::Builder::new().name("dc-pushed-select".into());
            let spawned = thread.spawn(move || queue.iter().for_each(|r| run_pushed(&hooks, r)));
            self.runner = spawned.ok().map(|thread| (runs, thread));
        }
        self.runner.as_ref().map(|(runs, _)| runs)
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
    /// no-op for diskless nodes. `rewritten`: see [`Log::append`].
    fn log_durable(&mut self, rec: &WalRecord, rewritten: u64) -> Result<(), String> {
        if let Some(log) = self.log.as_mut() {
            log.append(rec, rewritten)?;
            self.checkpoint_due = true;
        }
        Ok(())
    }

    /// Make owned fragments' payloads durable at their versions: their
    /// files and a `FragMeta` naming each ([`Log::store`]), counting
    /// `rewritten` toward the checkpoint trigger once. Only after both is
    /// a version clean, so dropping its payload costs no further I/O. A
    /// bulk load stores its columns at version 0 this way, a dirty spill
    /// one fragment at the version it is at.
    fn store_durably(&mut self, frags: &[(u32, u32, &Bat)], rewritten: u64) -> Result<(), String> {
        let Some(log) = self.log.as_mut() else { return Ok(()) };
        log.store(frags, rewritten, |bat, version| {
            self.checkpoint_due = true;
            self.store.stored(BatId(bat), version);
        })
    }

    /// Once enough WAL has accumulated, hand a snapshot of owned
    /// fragments + catalog to the log's checkpoint writer
    /// ([`Log::checkpoint`]). Runs after an event that appended to the
    /// WAL or settled the previous checkpoint — never between a record
    /// and the change it logs.
    fn maybe_checkpoint(&mut self) {
        let Some(log) = self.log.as_mut() else { return };
        // The writer skips the resident fragments whose version already
        // has its file.
        log.checkpoint(|| durable_state(&self.catalog, &self.store, &self.node));
    }

    /// The log's checkpoint writer finished the snapshot in flight. On a
    /// commit the versions it names are durable, unless a load or a spill
    /// made a later one durable meanwhile; on a failure what was durable
    /// stands. Either way the next snapshot may go.
    fn on_checkpointed(&mut self, committed: bool) {
        let Some(log) = self.log.as_mut() else { return };
        self.store.committed(log.settle(committed).into_iter().map(|(bat, v)| (BatId(bat), v)));
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
        let dir = self.log.as_ref().ok_or("a spill without a data dir")?.dir();
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
            if let Err(e) = self.store_durably(&[(bat.0, version, &payload)], size) {
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
        if outcome == Publish::Added || self.unlogged.contains(&name) {
            if let Err(e) = self.log_durable(&WalRecord::Table(table_rec(c)), 0) {
                self.unlogged.insert(name.clone());
                self.stats.obs_persist_errors.inc();
                eprintln!("[dc-node {}] table {name} applied but not durable: {e}", self.node.id);
            } else {
                self.unlogged.remove(&name);
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
            Cmd::Pin { query, bat, reply } => {
                let (outcome, effects) = self.node.pin(query, bat);
                self.execute(effects, None);
                let frag = match outcome {
                    // The owned payload may have been spilled; a local pin
                    // re-admits it synchronously.
                    PinOutcome::OwnedLocal => self.ensure_resident(bat).map(Frag::from_bat),
                    PinOutcome::Cached => self
                        .cache
                        .get(&bat)
                        .cloned()
                        .ok_or_else(|| format!("cached fragment {bat} missing payload")),
                    PinOutcome::MustWait => {
                        self.waiting.entry(bat).or_default().push((query, reply));
                        return false;
                    }
                };
                let _ = reply.send(frag);
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
                let versions: Vec<_> = frags.iter().map(|(bat, p)| (bat.0, 0, &**p)).collect();
                if let Err(e) = self.store_durably(&versions, 0) {
                    self.stats.obs_persist_errors.inc();
                    eprintln!("[dc-node {}] a bulk load is not durable: {e}", self.node.id);
                }
            }
            Cmd::CreateTable { schema, table, cols, ack } => {
                let _ = ack.send(self.create_table(&schema, &table, &cols));
            }
            Cmd::Mutate { m, ack } => {
                // The ring and the WAL carry the statement in one encoding;
                // one it cannot hold is refused before anything happens.
                match m.check_encodable().and_then(|()| self.mutation_owner(&m.schema, &m.table)) {
                    Err(e) => {
                        let _ = ack.send(Err(e));
                    }
                    Ok(owner) if owner == self.node.id => {
                        let _ = ack.send(self.apply_mutation(&m));
                    }
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
                let _ = ack.send(Ok(self.hotset_snapshot()));
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
                if let Some(log) = self.log.as_mut() {
                    let _ = log.sync();
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
        let empty = cols.iter().map(|(name, ty)| (name.clone(), Bat::empty(*ty)));
        let (columns, payloads) = self.frag_ids.columns(empty);
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
                        for (_, reply) in to_serve {
                            let _ = reply.send(frag.clone().ok_or_else(|| {
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
                        for (q, reply) in list {
                            if queries.contains(&q) {
                                let _ = reply
                                    .send(Err(format!("{bat} does not exist in the database")));
                            }
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests;
