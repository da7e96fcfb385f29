//! The two-phase spill queue. Evicting a *dirty* fragment — one whose
//! current version has no file yet (neither its load nor a committed
//! checkpoint wrote one) — is
//! "checkpoint, then drop": it stays resident until a checkpoint
//! carrying its payload commits — that checkpoint's
//! `bats/<id>.v<version>.bat` *is* the at-rest copy — and only then may
//! the engine drop the RAM payload. (A clean fragment never enters the
//! queue: its file exists, so the engine drops it at once.)
//! Entries learn which checkpoint they wait for when the snapshot is
//! submitted ([`SpillQueue::mark_submitted`]) and become actionable
//! once the node has seen that many checkpoints commit
//! ([`SpillQueue::take_ready`]).

use crate::ids::BatId;
use std::time::Instant;

pub struct PendingSpill {
    pub bat: BatId,
    /// Fragment version at queue time; the engine cancels the finalize
    /// if the version moved (a mutation raced the spill).
    pub version: u32,
    /// Payload bytes still resident while the spill is pending; budget
    /// enforcement subtracts these so it does not queue extra victims
    /// for bytes already on their way out.
    pub size: u64,
    /// Checkpoint sequence number whose commit makes this spill durable;
    /// `None` until the carrying snapshot is submitted.
    pub ready_at: Option<u64>,
    /// When the spill was requested (latency accounting).
    pub queued: Instant,
}

#[derive(Default)]
pub struct SpillQueue {
    entries: Vec<PendingSpill>,
}

impl SpillQueue {
    /// Queue a spill; returns false (and does nothing) if one is already
    /// pending for the fragment. `ready_at` is the checkpoint already
    /// being written that carries this very version, if there is one —
    /// otherwise the entry waits for the next snapshot to be submitted.
    pub fn push(&mut self, bat: BatId, version: u32, size: u64, ready_at: Option<u64>) -> bool {
        if self.is_pending(bat) {
            return false;
        }
        self.entries.push(PendingSpill { bat, version, size, ready_at, queued: Instant::now() });
        true
    }

    pub fn is_pending(&self, bat: BatId) -> bool {
        self.entries.iter().any(|e| e.bat == bat)
    }

    /// Total payload bytes across pending spills.
    pub fn queued_bytes(&self) -> u64 {
        self.entries.iter().map(|e| e.size).sum()
    }

    /// Any entry still waiting for a snapshot to be submitted? (Forces a
    /// checkpoint even before the WAL-bytes trigger fires.)
    pub fn has_unsubmitted(&self) -> bool {
        self.entries.iter().any(|e| e.ready_at.is_none())
    }

    /// A snapshot carrying every queued payload was submitted and will
    /// be checkpoint number `seq`.
    pub fn mark_submitted(&mut self, seq: u64) {
        for e in &mut self.entries {
            if e.ready_at.is_none() {
                e.ready_at = Some(seq);
            }
        }
    }

    /// Drain entries whose checkpoint has committed: `committed` is how
    /// many have.
    pub fn take_ready(&mut self, committed: u64) -> Vec<PendingSpill> {
        let (ready, rest): (Vec<_>, Vec<_>) = std::mem::take(&mut self.entries)
            .into_iter()
            .partition(|e| e.ready_at.is_some_and(|s| s <= committed));
        self.entries = rest;
        ready
    }

    /// Drop a pending spill (the fragment was re-demanded).
    pub fn cancel(&mut self, bat: BatId) {
        self.entries.retain(|e| e.bat != bat);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_phase_lifecycle() {
        let mut q = SpillQueue::default();
        assert!(q.push(BatId(1), 4, 100, None));
        assert!(!q.push(BatId(1), 4, 100, None), "dedup while pending");
        assert!(q.has_unsubmitted());
        assert_eq!(q.queued_bytes(), 100);
        assert!(q.take_ready(99).is_empty(), "nothing ready before submit");

        q.mark_submitted(3);
        assert!(!q.has_unsubmitted());
        assert!(q.take_ready(2).is_empty(), "checkpoint 3 not committed yet");
        let ready = q.take_ready(3);
        assert_eq!(ready.len(), 1);
        assert_eq!((ready[0].bat, ready[0].version, ready[0].size), (BatId(1), 4, 100));
        assert_eq!(q.queued_bytes(), 0, "nothing left");
    }

    #[test]
    fn later_pushes_wait_for_their_own_checkpoint() {
        let mut q = SpillQueue::default();
        q.push(BatId(1), 0, 10, None);
        q.mark_submitted(1);
        q.push(BatId(2), 0, 20, None); // queued after the first snapshot went out
        q.push(BatId(3), 0, 30, Some(1)); // queued later too, but that snapshot carries it
        assert!(q.has_unsubmitted());
        let ready: Vec<BatId> = q.take_ready(1).iter().map(|e| e.bat).collect();
        assert_eq!(ready, [BatId(1), BatId(3)]);
        assert_eq!(q.queued_bytes(), 20, "bat 2 still waits for its snapshot");
    }

    #[test]
    fn cancel_removes_pending_entry() {
        let mut q = SpillQueue::default();
        q.push(BatId(5), 1, 64, None);
        q.cancel(BatId(5));
        assert!(!q.is_pending(BatId(5)));
        q.mark_submitted(1);
        assert!(q.take_ready(1).is_empty());
    }
}
