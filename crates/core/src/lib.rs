//! # datacyclotron — the Data Cyclotron query processing scheme
//!
//! The paper's contribution (EDBT 2010): distributed query processing
//! over a virtual storage ring. Data fragments (BATs) circulate
//! clockwise through the main memories of the participating nodes;
//! requests travel anti-clockwise; queries settle anywhere and pick up
//! the fragments as they flow past. Hot-set membership is governed by a
//! per-fragment *level of interest* (LOI, Eq. 1) compared against a
//! per-node adaptive threshold (LOIT).
//!
//! Layout mirrors the paper's §4 architecture:
//!
//! * [`proto`] — the per-node protocol state machine: the Request
//!   Propagation algorithm (Fig. 3), the BAT Propagation algorithm
//!   (Fig. 4), hot-set management (Fig. 5), `loadAll`, `resend`, and
//!   owner-side lost-BAT detection. Pure (no I/O): handlers return
//!   [`proto::Effect`]s that a driver executes, so the identical code
//!   runs under the discrete-event simulator and the live engine.
//! * [`catalog`] — structure S1: the BATs owned by this node.
//! * [`requests`] — structures S2 (outstanding requests) and S3 (blocked
//!   pins), plus the local fragment cache the pins check (§4.2.1).
//! * [`loi`] — the LOI formula and the LOIT ladder.
//! * [`hotset`] — engine-side hot-set management: the owner's one record
//!   per owned fragment (payload resident or spilled, durable version),
//!   budgeted residency and coldest-first victim selection. A spill
//!   drops the payload once its version has a file a record names,
//!   writing that file first if a mutation moved the version.
//! * [`msg`] — ring message types and their binary codec, including the
//!   catalog-replication and routed-statement messages of a distributed
//!   deployment.
//! * [`routed`] — how a statement reaches its fragment owner: the
//!   origin's pending/retry table and the owner's dedup cache behind
//!   routed INSERT, UPDATE and DELETE (applied exactly once), and behind
//!   aggregates pushed to the owner that receives the fewest of their
//!   bytes (run there, answered with their result).
//! * [`transport`] — the §4.3 network-layer seam ([`RingTransport`])
//!   plus the default in-process fabric; the TCP fabric lives in the
//!   `dc-transport` crate.
//! * [`engine`] / [`runtime`] — a live multi-threaded ring: every node
//!   runs the MonetDB-style DBMS layer (`batstore` + `mal` + `sqlfront`)
//!   with the DC optimizer injecting `request`/`pin`/`unpin` calls that
//!   resolve against the ring. [`engine::Ring`] wires n nodes in-process;
//!   [`engine::RingNode`] hosts one node over any transport for
//!   multi-process deployments (see the `dc-node` binary). §6.4's
//!   versions are the owner-applied counters every catalog entry
//!   carries; see [`runtime::RingCatalog`].
//!
//! Durability is provided by the `dc-persist` crate: give
//! [`engine::NodeOptions`] a [`config::DataDir`] and the node
//! write-ahead logs every durable mutation, checkpoints owned fragments
//! in the background, and recovers catalog + fragments from disk on
//! spawn — a killed process restarts with its data intact and merely
//! re-advertises its fragments on the ring.

pub mod catalog;
pub mod config;
pub mod engine;
pub mod error;
pub mod hotset;
pub mod ids;
pub mod loi;
pub mod msg;
pub mod proto;
pub mod requests;
pub mod routed;
pub mod runtime;
pub mod stats;
pub mod transport;

pub use batstore::{ResultColumn, ResultSet};
pub use catalog::{OwnedState, S1Catalog};
pub use config::{DataDir, DcConfig, FsyncPolicy};
pub use engine::{NodeOptions, Ring, RingBuilder, RingNode};
pub use error::DcError;
pub use hotset::{HotsetRow, HotsetSnapshot};
pub use ids::{BatId, NodeId, QueryId};
pub use loi::{new_loi, LoitLadder};
pub use msg::{decode, decode_frame, encode, BatHeader, CatalogCol, CatalogMsg, DcMsg, ReqMsg};
pub use proto::{DcNode, Effect, PinOutcome};
pub use stats::{FaultStats, NodeStats};
pub use transport::fault::{Edge, FaultEvent, FaultPlan, FaultTransport};
pub use transport::{RingTransport, TransportError};
