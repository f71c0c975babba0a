//! Persistent snapshot log with windowed time-travel queries.
//!
//! The `serve` daemon's report/summary/status files are a gauge: every
//! snapshot cycle overwrites the last, so the *history* of the
//! measurement — the paper's most interesting axis — is lost, and a
//! crashed daemon restarts blind. This crate turns the daemon into a
//! queryable time series:
//!
//! - [`frame`] — the CRC-32-framed record codec
//!   (`type | seq | ts | key_size | value_size | key | value | crc`);
//! - [`log`] — the append-only [`log::SnapLog`] with torn-tail recovery
//!   and size-triggered checkpoint compaction;
//! - [`query`] — windowed reconstruction: fold checkpoint + deltas into
//!   an [`filterscope_analysis::AnalysisSuite`] as of any instant, diff
//!   two instants, or walk fixed-size windows.
//!
//! Each delta frame carries one snapshot cycle's
//! [`AnalysisSuite::save_bytes`](filterscope_analysis::AnalysisSuite::save_bytes)
//! payload; because ingest is associative under the registry's merge
//! contract and the payload encoding is byte-deterministic, replaying the
//! log reproduces — byte for byte — the suite a single batch pass over
//! the same records would build.

#![forbid(unsafe_code)]

pub mod frame;
pub mod log;
pub mod query;

pub use frame::{Frame, FrameKind};
pub use log::{read_frames, RecoveryReport, SnapLog};
pub use query::{
    decode_value, diff, encode_value, metric, series, suite_at, DiffRow, FrameValue, HistoryDiff,
    HistoryView, SeriesPoint, SUITE_KEY,
};
