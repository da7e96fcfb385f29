//! # ringsim — the Data Cyclotron experiment rig
//!
//! Drives the protocol state machines of `datacyclotron` with the
//! deterministic discrete-event simulator of `netsim`, reproducing the
//! paper's NS-2 setup: a ring of nodes joined by duplex links (10 Gb/s,
//! 350 µs, DropTail), BATs clockwise, requests anti-clockwise, per-node
//! 200 MB BAT queues.
//!
//! Two execution models are supported, matching the paper's evaluation:
//! per-BAT processing with ample cores (§5.1–§5.3) and operator-segment
//! scheduling on a fixed number of cores with the pin-calibration rule
//! (§5.4). All measurements needed to regenerate Figures 6–11 and
//! Table 4 are collected in [`Measurements`].

pub mod cores;
pub mod driver;
pub mod measure;
pub mod report;
pub mod split;

pub use cores::CoreSched;
pub use driver::{RingSim, SimParams};
pub use measure::Measurements;
pub use split::{SplitMap, SplitParams};
