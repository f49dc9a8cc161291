//! Zero-dependency development kit for the workspace: the hermetic
//! replacements for the external crates the original test/bench
//! substrate pulled in, plus the pieces every crate shares.
//!
//! - [`prng`] — a splitmix64-seeded xoshiro256++ generator with the small
//!   `gen_range`/`gen_bool` API the workload generators need (replaces
//!   `rand::SmallRng`);
//! - [`prop`] — a minimal property-testing runner: strategy combinators,
//!   greedy input shrinking, per-test case counts, and a persistent
//!   regression-seed file, with a [`proptest!`] macro adapter so suites
//!   written against proptest port with small diffs;
//! - [`bench`] — a criterion-shaped bench harness implementing the
//!   EXPERIMENTS.md methodology (warmup, fastest-of-N, work counters) and
//!   emitting machine-readable `BENCH_*.json` files;
//! - [`bytes`] — word-at-a-time byte searches (a newline finder for
//!   line framing, and the plain-run scan of JSON strings);
//! - [`hash`] — deterministic FNV-1a/64 content hashing with a splitmix64
//!   finalizer, the address scheme of the server's snapshot store;
//! - [`json`] — the one JSON value type, bounded parser and canonical
//!   writer, shared by the daemon's protocol, the CLI's JSON reports and
//!   the bench files (replaces `serde_json`).
//!
//! Everything here is plain `std`; the workspace builds and tests with
//! `CARGO_NET_OFFLINE=true`. See `docs/DEVKIT.md` for the seed-persistence
//! format and reproduction workflow.

#![warn(missing_docs)]

pub mod bench;
pub mod bytes;
pub mod hash;
pub mod json;
pub mod prng;
pub mod prop;

/// One-stop import for property-test files, mirroring
/// `proptest::prelude::*` so ports are line-for-line.
pub mod prelude {
    pub use crate::prng::Rng;
    pub use crate::prop::{
        any, collection, ProptestConfig, Strategy, TestCaseError, TestCaseResult,
    };
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}
