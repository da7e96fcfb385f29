//! The link model: one direction of a duplex link, as configured in the
//! paper's NS-2 setup ("duplex-link with 10 Gb/s bandwidth, 350 us delay,
//! and DropTail as full queue policy", §5).
//!
//! Semantics: messages enqueue at the sender and are serialized FIFO at
//! the link bandwidth. A message that would push the queued byte count
//! over the configured capacity is dropped (DropTail). Delivery happens
//! one propagation delay after serialization completes. The link is a
//! pure state machine — the caller owns the event queue and schedules the
//! delivery it is told about, which keeps this model trivially testable.

use crate::time::{SimDuration, SimTime};
use std::collections::VecDeque;

/// Static link parameters.
#[derive(Clone, Copy, Debug)]
pub struct LinkConfig {
    /// Serialization bandwidth in bits per second.
    pub bandwidth_bps: u64,
    /// Propagation delay.
    pub delay: SimDuration,
    /// DropTail queue capacity at the sender, in bytes. Messages that do
    /// not fit are dropped.
    pub queue_capacity_bytes: u64,
}

impl LinkConfig {
    /// Time to serialize `bytes` onto the wire at this bandwidth.
    pub fn tx_time(&self, bytes: u64) -> SimDuration {
        // bytes * 8 / bps seconds, computed in nanoseconds to avoid float
        // accumulation drift across millions of events.
        SimDuration((bytes as u128 * 8 * 1_000_000_000 / self.bandwidth_bps as u128) as u64)
    }
}

/// Result of [`Link::enqueue`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EnqueueOutcome {
    /// Accepted: serialization completes at `departs`, the receiver sees
    /// the message at `arrives` (= departs + propagation delay).
    Accepted { departs: SimTime, arrives: SimTime },
    /// DropTail: the queue was full; the message is gone.
    Dropped,
}

/// One direction of a duplex link.
pub struct Link {
    cfg: LinkConfig,
    /// When the transmitter finishes the message currently on the wire.
    busy_until: SimTime,
    /// Messages accepted but not yet fully serialized: (depart_time, bytes).
    in_queue: VecDeque<(SimTime, u64)>,
    queued_bytes: u64,
}

impl Link {
    pub fn new(cfg: LinkConfig) -> Self {
        Link { cfg, busy_until: SimTime::ZERO, in_queue: VecDeque::new(), queued_bytes: 0 }
    }

    /// Bytes sitting in (or currently leaving) the sender queue at `now`.
    pub fn queued_bytes(&mut self, now: SimTime) -> u64 {
        self.expire(now);
        self.queued_bytes
    }

    /// Offer a message of `bytes` to the link at time `now`.
    pub fn enqueue(&mut self, now: SimTime, bytes: u64) -> EnqueueOutcome {
        self.expire(now);
        if self.queued_bytes + bytes > self.cfg.queue_capacity_bytes {
            return EnqueueOutcome::Dropped;
        }
        let start = self.busy_until.max(now);
        let departs = start + self.cfg.tx_time(bytes);
        let arrives = departs + self.cfg.delay;
        self.busy_until = departs;
        self.in_queue.push_back((departs, bytes));
        self.queued_bytes += bytes;
        EnqueueOutcome::Accepted { departs, arrives }
    }

    /// Release queue space for messages fully serialized by `now`.
    fn expire(&mut self, now: SimTime) {
        while let Some(&(departs, bytes)) = self.in_queue.front() {
            if departs <= now {
                self.in_queue.pop_front();
                self.queued_bytes -= bytes;
            } else {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(bw_gbps: u64, delay_us: u64, cap_mb: u64) -> LinkConfig {
        LinkConfig {
            bandwidth_bps: bw_gbps * 1_000_000_000,
            delay: SimDuration::from_micros(delay_us),
            queue_capacity_bytes: cap_mb * 1024 * 1024,
        }
    }

    fn mk(bw_gbps: u64, delay_us: u64, cap_mb: u64) -> Link {
        Link::new(cfg(bw_gbps, delay_us, cap_mb))
    }

    #[test]
    fn tx_time_matches_bandwidth() {
        // 10 Gb/s = 1.25 GB/s; 1.25 MB should take 1 ms.
        let t = cfg(10, 350, 200).tx_time(1_250_000);
        assert_eq!(t.as_nanos(), 1_000_000);
    }

    #[test]
    fn single_message_timing() {
        let mut l = mk(10, 350, 200);
        match l.enqueue(SimTime::ZERO, 1_250_000) {
            EnqueueOutcome::Accepted { departs, arrives } => {
                assert_eq!(departs.as_nanos(), 1_000_000);
                assert_eq!(arrives.as_nanos(), 1_000_000 + 350_000);
            }
            EnqueueOutcome::Dropped => panic!("unexpected drop"),
        }
    }

    #[test]
    fn fifo_serialization_back_to_back() {
        let mut l = mk(10, 0, 200);
        let a = l.enqueue(SimTime::ZERO, 1_250_000);
        let b = l.enqueue(SimTime::ZERO, 1_250_000);
        let (
            EnqueueOutcome::Accepted { arrives: a1, .. },
            EnqueueOutcome::Accepted { arrives: a2, .. },
        ) = (a, b)
        else {
            panic!("drops")
        };
        assert_eq!(a1.as_nanos(), 1_000_000);
        assert_eq!(a2.as_nanos(), 2_000_000, "second message waits for the first");
    }

    #[test]
    fn drop_tail_when_full() {
        let mut l = mk(10, 350, 1); // 1 MiB capacity
        assert!(matches!(l.enqueue(SimTime::ZERO, 800_000), EnqueueOutcome::Accepted { .. }));
        assert_eq!(l.enqueue(SimTime::ZERO, 800_000), EnqueueOutcome::Dropped);
    }

    #[test]
    fn queue_drains_over_time() {
        let mut l = mk(10, 0, 1);
        assert!(matches!(l.enqueue(SimTime::ZERO, 1_000_000), EnqueueOutcome::Accepted { .. }));
        // 1 MB at 1.25 GB/s = 0.8 ms. At 1 ms the queue must be empty.
        assert_eq!(l.queued_bytes(SimTime::from_millis(1)), 0);
        assert!(matches!(
            l.enqueue(SimTime::from_millis(1), 1_000_000),
            EnqueueOutcome::Accepted { .. }
        ));
    }

    #[test]
    fn idle_gap_restarts_clock() {
        let mut l = mk(10, 100, 200);
        let _ = l.enqueue(SimTime::ZERO, 1_250_000);
        // Enqueue long after the link went idle: serialization starts at now.
        match l.enqueue(SimTime::from_secs(1), 1_250_000) {
            EnqueueOutcome::Accepted { departs, .. } => {
                assert_eq!(departs.as_nanos(), 1_000_000_000 + 1_000_000);
            }
            _ => panic!(),
        }
    }
}
