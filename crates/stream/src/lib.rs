//! # filterscope-stream
//!
//! The live ingest subsystem: a long-running `filterscope serve` daemon
//! that accepts length-framed ELFF record batches from N concurrent proxy
//! connections, and the `filterscope stream` client that replays log
//! files (or generates the synthetic 7-proxy workload) against it.
//!
//! The paper analyzed a static 600 GB dump offline; real filtering
//! telemetry arrives as a continuous stream from seven proxies. This
//! crate closes that gap without forking the analysis code:
//!
//! * every connection feeds the existing zero-copy
//!   [`filterscope_logformat::RecordView`] parse path into its own
//!   [`filterscope_analysis::AnalysisSuite`] shard (honoring
//!   `--analyses`/`--skip` selections);
//! * a snapshot thread periodically swaps each shard for a fresh twin
//!   ([`AnalysisSuite::take_delta`]) and folds the deltas into a global
//!   suite through the registry's property-tested merge contract, then
//!   writes an atomic checkpoint (report + `summary.json`) — so the final
//!   snapshot is byte-identical to batch `analyze` over the same records
//!   at any connection count;
//! * production concerns are handled in the server loop: bounded
//!   per-connection queues whose backpressure propagates to the client
//!   through TCP, per-connection framing-error recovery (a corrupt frame
//!   drops that connection, never the server), graceful shutdown on
//!   SIGINT with a final flush, and a plaintext `/metrics` endpoint;
//! * with `--policy-artifact FILE`, every record is additionally
//!   evaluated against a [`filterscope_proxy::PolicyEngine`] built from
//!   the CPL inside a `filterscope compile` artifact, reloaded between
//!   snapshot cycles when the file changes ([`policy`]).
//!
//! The wire format lives in [`filterscope_logformat::frame`]; the workload
//! replay order in [`filterscope_synth::streamer`].
//!
//! [`AnalysisSuite::take_delta`]: filterscope_analysis::AnalysisSuite::take_delta

// `deny` rather than the workspace-wide `forbid`: installing a SIGINT
// handler requires one `libc::signal`-shaped FFI call, carried by a single
// audited `#[allow(unsafe_code)]` in `shutdown.rs`.
#![deny(unsafe_code)]

pub mod client;
pub mod metrics;
pub mod policy;
pub mod proto;
pub mod server;
pub mod shutdown;
pub mod snapshot;

pub use client::{stream_corpus, stream_files, StreamConfig, StreamSummary};
pub use policy::{PolicyCell, PolicyWatcher, ReloadOutcome};
pub use server::{ServeConfig, ServeSummary, Server};
pub use shutdown::install_sigint;
