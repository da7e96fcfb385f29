//! # netsim — deterministic discrete-event network simulation
//!
//! A small, dependency-light substitute for NS-2, sufficient to reproduce
//! the Data Cyclotron evaluation (EDBT 2010, §5). It provides:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution simulated time,
//! * [`EventQueue`] — a deterministic future-event list (FIFO tie-break),
//! * [`Link`] — a duplex-link half with bandwidth, propagation delay and a
//!   byte-bounded DropTail queue, matching the NS-2 configuration used in
//!   the paper (10 Gb/s, 350 µs, DropTail),
//! * [`DetRng`] — a seeded RNG with the distributions the workloads need
//!   (uniform, Gaussian via Box–Muller),
//! * [`metrics`] — time-series / histogram recorders for the figures.
//!
//! Everything is deterministic: the same seed and the same schedule of
//! calls produce bit-identical traces, which the property tests assert.

pub mod events;
pub mod link;
pub mod metrics;
pub mod rng;
pub mod time;

pub use events::EventQueue;
pub use link::{EnqueueOutcome, Link, LinkConfig};
pub use rng::DetRng;
pub use time::{SimDuration, SimTime};
