//! # dc-broadcast — the broadcast baselines the Data Cyclotron is positioned against
//!
//! The paper's related-work section (§7) contrasts the Data Cyclotron
//! with the two seminal data-broadcast architectures and with the
//! push/pull threshold analysis:
//!
//! * **DataCycle** (Herman, Lee, Weinrib — SIGMOD Rec. 1987, ref. \[18\]):
//!   a central pump repetitively broadcasts the *entire database*;
//!   clients filter the stream on the fly. The cycle time — the time to
//!   broadcast the whole database — is the dominant performance factor.
//! * **Broadcast Disks** (Acharya, Alonso, Franklin, Zdonik — SIGMOD
//!   1995, ref. \[1\]): multiple virtual "disks" spinning at different
//!   speeds superimposed on one broadcast channel, so bandwidth is
//!   allocated to items in proportion to their importance.
//! * **Push vs. pull balancing** (Acharya, Franklin, Zdonik — SIGMOD
//!   1997, ref. \[2\]; Aksoy & Franklin, INFOCOM 1998, ref. \[3\]):
//!   pull-based on-demand broadcast is preferred on a lightly loaded
//!   server, pure push on a saturated one.
//!
//! The paper argues (qualitatively) that the DC's pull-model storage
//! ring — circulating only the *hot set*, with no central pump —
//! dominates whole-database broadcast. This crate implements all three
//! baselines over the same [`netsim`] discrete-event kernel and the same
//! workload specifications ([`dc_workloads::QuerySpec`]) the ring
//! simulator uses, so the claim becomes measurable: `exp_baselines` in
//! `dc-bench` runs the identical workload against the DC ring and every
//! baseline here.
//!
//! Model correspondence:
//!
//! * the broadcast channel has the same bandwidth as a ring link
//!   (10 Gb/s) and a propagation delay,
//! * a query arrives at a client node and waits for its fragments to
//!   come by on the channel — exactly the DC's "wait for the data to
//!   pass by", but against a *fixed* schedule (push) or a request queue
//!   (pull) instead of an interest-driven hot set,
//! * per-fragment processing times follow the same `PerBat` execution
//!   model as the ring simulator (§5.1).

pub mod measure;
pub mod ondemand;
pub mod schedule;
pub mod sim;

pub use measure::BcastMeasurements;
pub use ondemand::{OnDemandSim, PullPolicy};
pub use schedule::{partition_by_popularity, DiskSpec, Schedule, ScheduleError};
pub use sim::{BroadcastSim, ChannelConfig};
