//! `stcfa-server` — a long-running analysis daemon over the subtransitive
//! CFA engine.
//!
//! The paper's engine makes *queries* cheap once the linear-time graph is
//! built; the economic unit is therefore the **built analysis**, not the
//! request. This crate amortizes builds across requests and clients:
//!
//! - [`cache`] — a content-addressed snapshot store. Source text plus the
//!   (policy, engine) configuration hashes to a 64-bit digest; each digest
//!   maps to at most one frozen [`QueryEngine`](stcfa_core::QueryEngine),
//!   built exactly once (concurrent requests for the same digest coalesce
//!   onto one build) and shared via `Arc` until byte-accounted LRU
//!   eviction reclaims it.
//! - [`proto`] — the versioned, line-delimited JSON protocol: `analyze`,
//!   `query` (label-set / call-targets / occurrences / reachability),
//!   `lint`, `evict`, `stats`, `shutdown` (v1) plus `rule`, `opt` and
//!   the stateful multi-file `session/*` ops (v2), with per-request
//!   deadlines and structured error kinds. Open sessions pin their
//!   linked snapshot in the cache; `evict` refuses pinned digests with a
//!   structured `pinned-snapshot` error. Messages are [`Json`] values,
//!   read and written by `stcfa_devkit::json`, whose canonical
//!   (byte-deterministic) output keeps transcripts identical across
//!   worker-thread counts.
//! - [`server`] — the daemon itself: dispatch, and one transport model
//!   for stdio and TCP alike (the *fleet*): a zero-FFI event loop over
//!   nonblocking connections — TCP sockets, or stdin/stdout as a single
//!   piped connection — with per-connection incremental framing and an
//!   ordered buffered writer, plus a sharded worker pool that routes
//!   requests by snapshot digest so cache-affine work stays on one
//!   worker. The loop reads each request line once ([`Route`]): its
//!   order gate, its shard, and its inline source's snapshot key, which
//!   the worker reuses instead of hashing the source again. Admission
//!   control sheds excess load with the structured `overloaded` error
//!   instead of buffering without bound, and `shutdown` drains
//!   gracefully.
//! - [`soak`] — a many-connection pipelined load driver (`stcfa soak`,
//!   `benches/server.rs`, and CI's soak smoke all share it).
//!
//! Start it from the CLI with `stcfa serve --stdio` or
//! `stcfa serve --addr 127.0.0.1:7878`; see `docs/SERVER.md` for the
//! protocol reference.

#![warn(missing_docs)]

pub mod cache;
mod conn;
mod poll;
pub mod proto;
mod route;
pub mod server;
mod shard;
pub mod soak;

pub use cache::{Invalidate, LookupError, Snapshot, SnapshotKey, SnapshotStore, StoreStats};
pub use proto::{Deadline, ErrorKind, RequestError, PROTOCOL_VERSION, PROTOCOL_VERSION_SESSION};
pub use route::Route;
pub use server::{fleet_summary_line, Server, ServerOptions};
pub use shard::FleetStats;
pub use soak::{run_soak, SoakConfig, SoakReport};
pub use stcfa_devkit::json::Json;
