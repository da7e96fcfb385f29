//! The routed-request engine: how a statement reaches its fragment owner
//! and how the answer gets back.
//!
//! Every write goes to the fragment's owner (§6.4), so INSERT and
//! UPDATE/DELETE share one discipline, and an aggregate — over one
//! table or a join — that the owner of one of its tables must receive
//! fewer bytes to answer goes there too, to come back as its result. The
//! origin stamps the statement `(boot epoch, id)`, sends it clockwise as
//! a [`RoutedMsg`] and keeps it in the pending table; an attempt whose
//! [`crate::msg::AckMsg`] misses its deadline is resent with doubled
//! backoff, and once the retry budget is spent the statement fails with a
//! classified timeout. The owner remembers each `(origin, epoch, id)`
//! mutation result, so a re-delivered frame (a duplicate, or a retry
//! racing a slow ack) replays the first answer instead of applying twice.
//! A SELECT's result is not remembered — it may be large, and running a
//! read again is harmless — but the owner holds the keys of the SELECTs
//! it is running: a re-delivery of one is answered
//! [`Answer::Running`] instead of being run again, and that answer starts
//! the origin's retry budget over, so a read may run as long as it needs
//! while an owner that stops answering still fails it within the budget.
//! The owner holds at most [`PUSHED_BACKLOG`] SELECTs and declines the
//! next ([`Answer::Declined`]); its origin then runs it itself.
//!
//! The owner keeps a result exactly as long as its origin may send the
//! statement again. Every frame carries the origin's lowest still-pending
//! id: the statements below it are settled (acknowledged or failed) and
//! never sent again, and the ring delivers one origin's frames to the
//! owner in the order they were sent (per-edge FIFO, stalls included),
//! so none of their frames is still on its way. The owner drops their
//! results on reading it. What an origin that restarted left behind —
//! at most its in-flight window at the crash — stays.
//!
//! This module does no I/O and reads no clock: the event loop passes
//! `now` in, sends the frames, counts and traces it hands back, and
//! sleeps until [`Routed::next_deadline`].

use crate::error::DcError;
use crate::ids::NodeId;
use crate::msg::{Answer, DcMsg, MutOp, RoutedMsg, RoutedStmt};
use crate::runtime::Reply;
use batstore::ResultSet;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Owner-side dedup key: `(origin, origin boot epoch, statement id)`.
/// The epoch keeps a restarted origin's reused statement ids from
/// aliasing entries its prior incarnation left behind.
pub type StmtKey = (u16, u64, u64);

/// Pushed SELECTs an owner holds — running, or queued behind the one
/// running — before it declines the next: a hot table's owner takes on
/// no more than this much of its readers' work.
pub const PUSHED_BACKLOG: usize = 4;

/// The largest result, in wire bytes ([`crate::msg::result_wire_size`]),
/// an owner sends back for a pushed SELECT. An answer travels as one
/// frame through every node between owner and origin, where the columns
/// the statement reads would each travel as a frame of their own; an
/// aggregate whose result grows this large (a DISTINCT, a GROUP BY on a
/// near-unique key) is declined, and its origin runs it itself.
pub const PUSHED_RESULT_MAX: u64 = 1 << 20;

/// What a pushed SELECT's caller is handed: the owner's result or its
/// classified failure, or `None` when the owner declined and the caller
/// runs the statement itself.
pub type Pushed = Option<Result<ResultSet, DcError>>;

/// One routed statement awaiting its owner acknowledgement at the
/// origin, with everything needed to resend it and to fail it loudly.
pub struct Pending {
    /// The exact statement to resend (ids make re-delivery idempotent at
    /// the owner, so resending one that *was* applied is safe).
    pub msg: RoutedMsg,
    /// The caller blocked on the answer.
    pub caller: Caller,
    /// Sends so far.
    pub attempts: u32,
    /// When the current attempt gives up and the next begins.
    deadline: Instant,
    /// Wait before the attempt after next (doubles each resend).
    backoff: Duration,
    retries_left: u32,
}

/// Who waits for a routed statement, in the form its answer takes: the
/// reply its caller waits on, which a node that stops drops unanswered.
pub enum Caller {
    /// A mutation's caller, for the owner's affected-row count.
    Mutation(Reply<u64>),
    /// A pushed SELECT's caller, for what the owner made of it; `alive`
    /// is set each time the owner says it is still running it, so the
    /// caller keeps waiting.
    Select { answer: Reply<Pushed>, alive: Arc<AtomicBool> },
}

impl Caller {
    /// Wake the caller with the owner's answer, or with why the origin
    /// gave up (`Err`). An answer of the other kind — only a forged frame
    /// could carry one — fails the statement. A caller that gave up
    /// waiting hears nothing.
    pub fn settle(self, outcome: Result<Answer, String>) {
        let mismatch = || "the owner answered another kind of statement".to_string();
        match (self, outcome) {
            (Caller::Mutation(ack), Ok(Answer::Mutated(r))) => drop(ack.send(r)),
            (Caller::Mutation(ack), other) => {
                drop(ack.send(Err(other.err().unwrap_or_else(mismatch))))
            }
            (Caller::Select { answer, .. }, Ok(Answer::Selected(r))) => {
                drop(answer.send(Ok(Some(r))))
            }
            (Caller::Select { answer, .. }, Ok(Answer::Declined(_))) => drop(answer.send(Ok(None))),
            (Caller::Select { answer, .. }, other) => {
                drop(answer.send(Err(other.err().unwrap_or_else(mismatch))))
            }
        }
    }
}

/// What an owner does with a pushed SELECT that reaches it
/// ([`Routed::admit`]).
#[derive(Debug, PartialEq, Eq)]
pub enum Admit {
    /// Run it: it is now held until [`Routed::release`].
    Run,
    /// It is held already: answer [`Answer::Running`].
    Running,
    /// [`PUSHED_BACKLOG`] others are held: answer [`Answer::Declined`].
    Busy,
}

/// `"mutation on sys.acct"`, `"append on sys.acct"`, `"select on
/// sys.acct"` — a routed statement as traces and errors name it.
pub fn describe(stmt: &RoutedStmt) -> impl std::fmt::Display + '_ {
    let kind = match stmt {
        RoutedStmt::Mutate(m) if matches!(m.op, MutOp::Insert(_)) => "append",
        RoutedStmt::Mutate(_) => "mutation",
        RoutedStmt::Select { .. } => "select",
    };
    let (schema, table) = stmt.table();
    std::fmt::from_fn(move |f| write!(f, "{kind} on {schema}.{table}"))
}

impl Pending {
    /// The statement as traces and errors name it ([`describe`]).
    pub fn what(&self) -> impl std::fmt::Display + '_ {
        describe(&self.msg.stmt)
    }

    /// The classified error a statement fails with once its retry
    /// budget is spent. Only a write can have half-happened.
    pub fn timeout_error(&self) -> String {
        let missing = match self.msg.stmt {
            RoutedStmt::Mutate(_) => {
                "no acknowledgement from the fragment owner within the retry budget; \
                 whether it applied is unknown"
            }
            RoutedStmt::Select { .. } => {
                "no answer from the fragment owner within the retry budget"
            }
        };
        format!("{} timed out after {} attempts: {missing}", self.what(), self.attempts)
    }
}

/// What [`Routed::poll`] found past its deadline.
pub enum Due {
    /// Send `frame` again; `attempt` counts sends including this one.
    Resend { id: u64, what: String, attempt: u32, frame: DcMsg },
    /// The retry budget is spent; the statement left the pending table.
    TimedOut(Pending),
}

pub struct Routed {
    /// This incarnation's statement-id epoch: stamped on every routed
    /// statement, echoed in acks, and part of the owner-side dedup key.
    epoch: u64,
    next_id: u64,
    /// How long one attempt waits for the owner's ack before resending.
    ack_timeout: Duration,
    /// Resends after the first attempt before the statement fails.
    ack_retries: u32,
    /// Statements this node originated, keyed by statement id.
    pending: HashMap<u64, Pending>,
    /// Results of routed statements already applied here, as owner.
    applied: HashMap<StmtKey, Result<u64, String>>,
    /// Pushed SELECTs this node, as owner, is running or has queued.
    held: HashSet<StmtKey>,
}

impl Routed {
    pub fn new(epoch: u64, ack_timeout: Duration, ack_retries: u32) -> Routed {
        Routed {
            epoch,
            next_id: 1,
            ack_timeout,
            ack_retries,
            pending: HashMap::new(),
            applied: HashMap::new(),
            held: HashSet::new(),
        }
    }

    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Register a statement `origin` is about to route; the caller sends
    /// the returned entry's `msg` as the first attempt.
    pub fn begin(
        &mut self,
        origin: NodeId,
        stmt: RoutedStmt,
        caller: Caller,
        now: Instant,
    ) -> &Pending {
        let id = self.next_id;
        self.next_id += 1;
        let settled_below = self.pending.keys().copied().min().unwrap_or(id);
        let p = Pending {
            msg: RoutedMsg { origin, epoch: self.epoch, id, settled_below, stmt },
            caller,
            attempts: 1,
            deadline: now + self.ack_timeout,
            backoff: self.ack_timeout * 2,
            retries_left: self.ack_retries,
        };
        self.pending.entry(id).or_insert(p)
    }

    /// Statements whose ack deadline passed: each is either due a resend
    /// (its next deadline doubles) or, with the budget spent, removed and
    /// handed back to be failed.
    pub fn poll(&mut self, now: Instant) -> Vec<Due> {
        let mut due = Vec::new();
        let mut spent = Vec::new();
        for (&id, p) in self.pending.iter_mut().filter(|(_, p)| p.deadline <= now) {
            if p.retries_left == 0 {
                spent.push(id);
                continue;
            }
            p.retries_left -= 1;
            p.attempts += 1;
            p.deadline = now + p.backoff;
            p.backoff *= 2;
            due.push(Due::Resend {
                id,
                what: p.what().to_string(),
                attempt: p.attempts,
                frame: DcMsg::Routed(p.msg.clone()),
            });
        }
        due.extend(spent.into_iter().filter_map(|id| self.pending.remove(&id)).map(Due::TimedOut));
        due
    }

    /// When the earliest pending attempt runs out: the event loop's next
    /// [`Routed::poll`] is due then. `None` while nothing awaits an ack.
    pub fn next_deadline(&self) -> Option<Instant> {
        self.pending.values().map(|p| p.deadline).min()
    }

    /// Match an acknowledgement to its pending statement. Acks from a
    /// previous incarnation of this node (epoch mismatch — still
    /// circulating from before a restart) and unmatched ids (the
    /// statement timed out, or an earlier delivery of the ack settled it)
    /// resolve nothing.
    pub fn ack(&mut self, epoch: u64, id: u64) -> Option<Pending> {
        if epoch != self.epoch {
            return None;
        }
        self.pending.remove(&id)
    }

    /// The owner is still running pushed SELECT `id` ([`Answer::Running`]):
    /// its retry budget starts over from `now`, and its caller hears that
    /// the owner is alive. `None` (and no effect) when nothing pending
    /// matches.
    pub fn keep_alive(&mut self, epoch: u64, id: u64, now: Instant) -> Option<&Pending> {
        if epoch != self.epoch {
            return None;
        }
        let p = self.pending.get_mut(&id)?;
        p.deadline = now + self.ack_timeout;
        p.backoff = self.ack_timeout * 2;
        p.retries_left = self.ack_retries;
        if let Caller::Select { alive, .. } = &p.caller {
            alive.store(true, Ordering::Relaxed);
        }
        Some(p)
    }

    /// Drop the results of the statements `r`'s origin has settled: every
    /// one of its incarnation below `r.settled_below`. What is left is
    /// what origins may still resend, so the scan is short.
    pub fn forget_settled(&mut self, r: &RoutedMsg) {
        let incarnation = (r.origin.0, r.epoch);
        self.applied.retain(|&(origin, epoch, id), _| {
            (origin, epoch) != incarnation || id >= r.settled_below
        });
    }

    /// The result this node, as owner, already answered the mutation
    /// `key` with.
    pub fn applied(&self, key: StmtKey) -> Option<&Result<u64, String>> {
        self.applied.get(&key)
    }

    /// Record the result of a routed mutation applied here.
    pub fn remember(&mut self, key: StmtKey, result: Result<u64, String>) {
        self.applied.insert(key, result);
    }

    /// Whether this node, as owner, runs the pushed SELECT `key` now
    /// delivered: not while it holds it already, nor while it holds
    /// [`PUSHED_BACKLOG`] others.
    pub fn admit(&mut self, key: StmtKey) -> Admit {
        if self.held.contains(&key) {
            Admit::Running
        } else if self.held.len() >= PUSHED_BACKLOG {
            Admit::Busy
        } else {
            self.held.insert(key);
            Admit::Run
        }
    }

    /// The pushed SELECT `key` has run here; a later delivery of it runs
    /// it again.
    pub fn release(&mut self, key: StmtKey) {
        self.held.remove(&key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::bounded;

    const TIMEOUT: Duration = Duration::from_millis(100);
    const ME: NodeId = NodeId(1);

    fn mutate(table: &str) -> RoutedStmt {
        let (schema, table) = ("sys".into(), table.into());
        RoutedStmt::Mutate(crate::msg::Mutation { schema, table, op: MutOp::Delete, preds: vec![] })
    }

    fn waiter() -> Caller {
        Caller::Mutation(bounded(1).0)
    }

    #[test]
    fn deadline_resends_with_doubled_backoff_then_times_out() {
        let t0 = Instant::now();
        let mut r = Routed::new(7, TIMEOUT, 2);
        let first = r.begin(ME, mutate("acct"), waiter(), t0).msg.clone();
        assert_eq!((first.origin, first.epoch), (ME, 7));
        let (id, frame) = (first.id, DcMsg::Routed(first));

        assert!(r.poll(t0 + TIMEOUT / 2).is_empty(), "nothing is due before the deadline");
        // Attempt 2 at +100ms; the next wait is the doubled 200ms.
        let due = r.poll(t0 + TIMEOUT);
        let [Due::Resend { id: rid, what, attempt: 2, frame: again }] = &due[..] else {
            panic!("expected one resend")
        };
        assert_eq!((*rid, what.as_str()), (id, "mutation on sys.acct"));
        assert_eq!(*again, frame, "the resent frame is the first one, ids and all");
        assert!(r.poll(t0 + TIMEOUT * 3 - Duration::from_millis(1)).is_empty());
        // Attempt 3 at +300ms; the next wait doubles again to 400ms.
        assert!(matches!(r.poll(t0 + TIMEOUT * 3)[..], [Due::Resend { attempt: 3, .. }]));
        assert!(r.poll(t0 + TIMEOUT * 7 - Duration::from_millis(1)).is_empty());
        // Budget spent at +700ms: the statement fails, naming its attempts.
        let due = r.poll(t0 + TIMEOUT * 7);
        let [Due::TimedOut(p)] = &due[..] else { panic!("expected a timeout") };
        let err = p.timeout_error();
        assert!(err.starts_with("mutation on sys.acct timed out after 3 attempts"), "{err}");
        assert!(r.poll(t0 + TIMEOUT * 100).is_empty(), "a failed statement is forgotten");
        assert!(r.ack(7, id).is_none(), "a late ack finds nothing to resolve");

        // A read that times out changed nothing, and its error says so by
        // not saying otherwise.
        let (schema, table, sql) =
            ("sys".into(), "acct".into(), "select count(*) from acct".into());
        let ((reply, answer), alive) = (bounded(1), Arc::new(AtomicBool::new(false)));
        let select = RoutedStmt::Select { schema, table, sql };
        r.begin(ME, select, Caller::Select { answer: reply, alive }, t0);
        let due = r.poll(t0 + TIMEOUT * 1_000);
        let [Due::Resend { what, .. }] = &due[..] else { panic!("expected one resend") };
        assert_eq!(what, "select on sys.acct");
        assert!(matches!(r.poll(t0 + TIMEOUT * 2_000)[..], [Due::Resend { attempt: 3, .. }]));
        let due = <[Due; 1]>::try_from(r.poll(t0 + TIMEOUT * 3_000));
        let Ok([Due::TimedOut(p)]) = due else { panic!("expected a timeout") };
        let err = p.timeout_error();
        assert!(err.starts_with("select on sys.acct timed out after 3 attempts"), "{err}");
        assert!(!err.contains("applied"), "{err}");
        p.caller.settle(Err(err.clone()));
        assert_eq!(answer.try_recv().unwrap().unwrap_err(), err);
    }

    #[test]
    fn next_deadline_is_the_earliest_pending_attempt() {
        let t0 = Instant::now();
        let mut r = Routed::new(7, TIMEOUT, 2);
        assert_eq!(r.next_deadline(), None, "nothing pending, nothing due");
        let a = r.begin(ME, mutate("a"), waiter(), t0).msg.id;
        let later = t0 + TIMEOUT / 2;
        let b = r.begin(ME, mutate("b"), waiter(), later).msg.id;
        assert_eq!(r.next_deadline(), Some(t0 + TIMEOUT), "the first statement's deadline");
        // `a` is resent at its deadline and waits the doubled backoff;
        // `b`'s first deadline is now the earliest.
        assert_eq!(r.poll(t0 + TIMEOUT).len(), 1);
        assert_eq!(r.next_deadline(), Some(later + TIMEOUT));
        assert!(r.ack(7, b).is_some());
        assert_eq!(r.next_deadline(), Some(t0 + TIMEOUT + TIMEOUT * 2), "`a`'s resend");
        assert!(r.ack(7, a).is_some());
        assert_eq!(r.next_deadline(), None);
    }

    #[test]
    fn foreign_epoch_ack_is_ignored_and_a_duplicate_resolves_once() {
        let t0 = Instant::now();
        let mut r = Routed::new(7, TIMEOUT, 2);
        let (reply, waiter) = bounded(1);
        let id = r.begin(ME, mutate("acct"), Caller::Mutation(reply), t0).msg.id;
        assert!(r.ack(6, id).is_none(), "an ack from a prior incarnation resolves nothing");
        let p = r.ack(7, id).expect("the matching ack resolves the statement");
        assert!(matches!(&p.caller, Caller::Mutation(_)));
        assert!(r.ack(7, id).is_none(), "its duplicate does not");
        // An answer of the wrong kind fails the statement instead of
        // passing for its count — and it reaches this statement's caller.
        p.caller.settle(Ok(Answer::Selected(Ok(ResultSet::new()))));
        assert!(waiter.try_recv().unwrap().unwrap_err().contains("another kind"));
        assert!(r.poll(t0 + TIMEOUT * 100).is_empty(), "an acked statement is never resent");
    }

    fn select(answer: &Reply<Pushed>, alive: &Arc<AtomicBool>) -> (RoutedStmt, Caller) {
        let (schema, table, sql) =
            ("sys".into(), "acct".into(), "select count(*) from acct".into());
        let caller = Caller::Select { answer: answer.clone(), alive: Arc::clone(alive) };
        (RoutedStmt::Select { schema, table, sql }, caller)
    }

    /// An owner that answers `Running` keeps a read alive past any number
    /// of budgets; once it falls silent, the read fails within one.
    #[test]
    fn a_running_answer_starts_the_budget_over() {
        let t0 = Instant::now();
        let mut r = Routed::new(7, TIMEOUT, 1);
        let ((reply, _answer), alive) = (bounded(1), Arc::new(AtomicBool::new(false)));
        let (stmt, caller) = select(&reply, &alive);
        let id = r.begin(ME, stmt, caller, t0).msg.id;
        assert!(r.keep_alive(6, id, t0).is_none(), "another incarnation's answer");
        // Each resend is answered `Running`, ten budgets (300ms) long.
        let mut now = t0;
        for _ in 0..10 {
            now += TIMEOUT;
            assert!(matches!(r.poll(now)[..], [Due::Resend { attempt: 2.., .. }]));
            assert!(r.keep_alive(7, id, now).is_some());
            assert!(alive.swap(false, Ordering::Relaxed), "the caller hears of it");
            assert_eq!(r.next_deadline(), Some(now + TIMEOUT), "the first wait again");
        }
        // Then silence: one resend, and the budget is spent.
        assert!(matches!(r.poll(now + TIMEOUT)[..], [Due::Resend { .. }]));
        let due = r.poll(now + TIMEOUT * 3);
        let [Due::TimedOut(p)] = &due[..] else { panic!("expected a timeout") };
        assert_eq!(p.attempts, 12);
        assert!(!alive.load(Ordering::Relaxed));
        assert!(r.keep_alive(7, id, now).is_none(), "a settled read is not revived");
    }

    /// A declined read hands its caller `None`: it runs the statement
    /// itself. A result hands it the result.
    #[test]
    fn a_pushed_select_settles_with_its_result_or_its_decline() {
        let ((reply, answer), alive) = (bounded(1), Arc::new(AtomicBool::new(false)));
        let settle = |outcome| select(&reply, &alive).1.settle(outcome);
        settle(Ok(Answer::Declined("busy".into())));
        assert_eq!(answer.try_recv().unwrap(), Ok(None));
        settle(Ok(Answer::Selected(Err(DcError::Exec("boom".into())))));
        assert_eq!(answer.try_recv().unwrap(), Ok(Some(Err(DcError::Exec("boom".into())))));
        settle(Ok(Answer::Mutated(Ok(1))));
        assert!(answer.try_recv().unwrap().unwrap_err().contains("another kind"));
    }

    #[test]
    fn an_owner_holds_each_read_once_and_at_most_its_backlog() {
        let mut r = Routed::new(7, TIMEOUT, 2);
        for id in 0..PUSHED_BACKLOG as u64 {
            assert_eq!(r.admit((2, 9, id)), Admit::Run);
        }
        assert_eq!(r.admit((2, 9, 0)), Admit::Running, "a re-delivery is not run again");
        assert_eq!(r.admit((3, 9, 0)), Admit::Busy, "the backlog is full");
        r.release((2, 9, 0));
        assert_eq!(r.admit((3, 9, 0)), Admit::Run);
        assert_eq!(r.admit((2, 9, 1)), Admit::Running);
        r.release((2, 9, 1));
        assert_eq!(r.admit((2, 9, 1)), Admit::Run, "a read that ran may run again");
    }

    #[test]
    fn each_statement_carries_the_lowest_pending_id() {
        let t0 = Instant::now();
        let mut r = Routed::new(7, TIMEOUT, 2);
        let send = |r: &mut Routed| {
            let msg = &r.begin(ME, mutate("acct"), waiter(), t0).msg;
            (msg.id, msg.settled_below)
        };
        assert_eq!(send(&mut r), (1, 1), "nothing else pending: only itself");
        assert_eq!(send(&mut r), (2, 1));
        assert!(r.ack(7, 1).is_some());
        assert_eq!(send(&mut r), (3, 2));
        assert!(r.ack(7, 3).is_some(), "settling a later one leaves 2 the lowest");
        assert_eq!(send(&mut r), (4, 2));
    }

    /// A frame from `origin`'s incarnation `epoch`, whose statements below
    /// `settled_below` are settled.
    fn frame(origin: u16, epoch: u64, id: u64, settled_below: u64) -> RoutedMsg {
        RoutedMsg { origin: NodeId(origin), epoch, id, settled_below, stmt: mutate("acct") }
    }

    #[test]
    fn dedup_cache_replays_the_first_result_until_its_origin_settles_it() {
        let mut r = Routed::new(7, TIMEOUT, 2);
        assert!(r.applied((2, 9, 0)).is_none());
        r.remember((2, 9, 0), Ok(3));
        r.remember((2, 9, 1), Err("type mismatch".into()));
        assert_eq!(r.applied((2, 9, 0)), Some(&Ok(3)));
        assert_eq!(r.applied((2, 9, 1)), Some(&Err("type mismatch".into())));
        assert!(r.applied((2, 10, 0)).is_none(), "another epoch's id 0 is another statement");
        // Origin 2 still awaits statement 0 while origin 3 routes 5 000
        // statements, each settling the one before it.
        for id in 0..5_000 {
            let f = frame(3, 9, id, id);
            r.forget_settled(&f);
            r.remember((f.origin.0, f.epoch, f.id), Ok(id));
        }
        assert_eq!(r.applied((2, 9, 0)), Some(&Ok(3)), "a pending statement's result stays");
        assert!(r.applied((3, 9, 4_998)).is_none(), "a settled one's goes");
        assert!(r.applied((3, 9, 4_999)).is_some());
        // Origin 2 settles statement 0, not 1; its next incarnation's
        // results are another origin's.
        r.remember((2, 10, 0), Ok(0));
        r.forget_settled(&frame(2, 9, 5, 1));
        assert!(r.applied((2, 9, 0)).is_none());
        assert!(r.applied((2, 9, 1)).is_some());
        assert!(r.applied((2, 10, 0)).is_some());
    }
}
