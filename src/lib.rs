//! # data-cyclotron — umbrella crate
//!
//! Re-exports the whole Data Cyclotron workspace behind one dependency,
//! and hosts the runnable `examples/` and the cross-crate integration
//! `tests/`. See the individual crates for the substance:
//!
//! * [`datacyclotron`] — the ring protocols and live engine (the paper's
//!   contribution),
//! * [`batstore`] / [`mal`] / [`sqlfront`] — the MonetDB-style DBMS layer,
//! * [`netsim`] / [`ringsim`] — the simulator and the experiment rig,
//! * [`dc_transport`] — the TCP ring transport and the `dc-node`
//!   distributed server binary (the in-process fabric lives in
//!   `datacyclotron::transport`),
//! * [`dc_workloads`] — the paper's workload generators.

pub use batstore;
pub use datacyclotron;
pub use dc_transport;
pub use dc_workloads;
pub use mal;
pub use netsim;
pub use ringsim;
pub use sqlfront;
