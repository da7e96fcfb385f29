//! # dc-transport — ring transports
//!
//! The paper's network layer "encapsulates the envisioned RDMA
//! infrastructure and traditional UDP/TCP functionality as a fall-back
//! solution" (§4). RDMA hardware is unavailable here, so this crate
//! provides the fall-back as a first-class citizen:
//!
//! * [`mem`] — an in-process ring whose members push into each other's
//!   inbound queues (refcounted `Bytes` payloads), used by the live
//!   engine and tests,
//! * [`tcp`] — a real TCP ring with length-prefixed frames carrying the
//!   `datacyclotron::msg` codec, suitable for multi-process deployment
//!   on a LAN.
//!
//! Both implement [`RingTransport`] (defined in `datacyclotron` so the
//! engine can consume it without a dependency cycle; re-exported here):
//! each node sends BATs clockwise to its successor and requests
//! anti-clockwise to its predecessor, and has one inbound stream of
//! [`datacyclotron::DcMsg`] — pulled with `recv`, or, once a node
//! `attach`es a sink, pushed into it by the thread that received each
//! frame.
//!
//! The crate also ships [`sqlserve`] — the server side of the
//! `dc-client` framed SQL protocol — and the `dc-node` binary: a
//! standalone ring-member process serving that protocol over TCP (see
//! `src/bin/dc_node.rs` and the README's "Distributed deployment"
//! section).

pub mod sqlserve;
pub mod tcp;

pub use datacyclotron::transport::{RingTransport, TransportError};

pub mod mem {
    //! In-process ring fabric (re-exported from
    //! [`datacyclotron::transport::mem`], where the live engine's default
    //! fast path lives).
    pub use datacyclotron::transport::mem::{ring, MemNode};
}
