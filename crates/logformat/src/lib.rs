//! # filterscope-logformat
//!
//! The Blue Coat SG-9000 access-log format used by the leaked Syrian proxy
//! logs (Telecomix, October 2011), and the request classification scheme of
//! §3.3 of the paper.
//!
//! The leaked files are comma-separated W3C ELFF ("extended log file
//! format") with 26 fields per record. This crate fixes the field schema
//! ([`fields::FIELDS`]), provides a typed [`LogRecord`], a strict-but-
//! recoverable parser, a writer that round-trips ([`LogRecord::write_csv`],
//! [`LogWriter`]), and the four-way traffic classification
//! ([`RequestClass`]) every analysis in the paper is built on.
//!
//! [`BlockParser`] is the only code that turns log bytes into records:
//! files (via [`BlockReader`] and [`scan_sections`]), `serve` frame
//! payloads and in-memory buffers all go through it, so a record counts
//! the same way wherever it comes from. [`parse_line`] and
//! [`Schema::parse_view`] parse one already-split line.
//!
//! ## Schema note
//!
//! The exact leaked schema is Blue Coat's `main` format. We reproduce the 26
//! fields the paper works with (Table 2 plus the standard `main`-format
//! companions). Where the paper names a field (`cs-uri-ext`,
//! `cs-user-agent`, …) we use the paper's spelling.

#![forbid(unsafe_code)]

pub mod anonymize;
pub mod block;
pub mod classify;
pub mod csv;
pub mod enums;
pub mod fields;
pub mod frame;
pub mod record;
pub mod scan;
pub mod schema;
pub mod url;
pub mod view;
pub mod writer;

pub use block::{scan_sections, BlockParser, BlockReader, FileSections, DEFAULT_BLOCK_BYTES};
pub use classify::{PolicyClass, RequestClass};
pub use csv::LineSplitter;
pub use enums::{ClientId, ExceptionId, FilterResult, Method, SAction, Scheme};
pub use frame::{Frame, FrameKind};
pub use record::{parse_line, LogRecord};
pub use schema::Schema;
pub use url::RequestUrl;
pub use view::{RecordView, UrlView};
pub use writer::LogWriter;
