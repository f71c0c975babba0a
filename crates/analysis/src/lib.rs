//! # filterscope-analysis
//!
//! The paper's analysis pipeline as a reusable library: every table and
//! figure of *Censorship in the Wild* is an accumulator that ingests
//! blocks of [`filterscope_logformat::RecordView`]s in a single streaming
//! pass, supports `merge` for parallel sharding, and renders the published
//! artifact (rows/series) plus typed results for programmatic use. Each is
//! one [`registry::Analysis`] impl plus one [`registry::REGISTRY`] row.
//!
//! Map from paper artifact to module:
//!
//! | Artifact | Module |
//! |---|---|
//! | Table 1 (datasets) | [`datasets`] |
//! | Table 3 (class/exception breakdown) | [`overview`] |
//! | Tables 4–5, Fig. 2 (domains) | [`domains`], [`temporal`] |
//! | Table 6, Fig. 7 (proxies) | [`proxies`] |
//! | Table 7 (redirects) | [`redirects`] |
//! | Tables 8–10 (filter inference) | [`filter_inference`] |
//! | Tables 11–12 (IP censorship) | [`ip_censorship`] |
//! | Tables 13–15 (social media) | [`social`] |
//! | Fig. 1 (ports) | [`ports`] |
//! | Fig. 3, Table 9 (categories) | [`categories`] |
//! | Fig. 4 (users) | [`users`] |
//! | Figs. 5–6 (time series, RCV) | [`temporal`] |
//! | Figs. 8–9 (Tor) | [`tor_usage`] |
//! | Fig. 10 (anonymizers) | [`anonymizers`] |
//! | §7.3 (BitTorrent) | [`p2p`] |
//! | §7.4 (Google cache) | [`google_cache`] |
//! | §4 HTTPS / MITM check | [`https`] |
//!
//! [`suite::AnalysisSuite`] wires them all into one pass.

#![forbid(unsafe_code)]

pub mod anonymizers;
pub mod categories;
pub mod comparison;
pub mod consistency;
pub mod context;
pub mod datasets;
pub mod derived;
pub mod domains;
pub mod export;
pub mod filter_inference;
pub mod google_cache;
pub mod https;
pub mod ip_censorship;
pub mod overview;
pub mod p2p;
pub mod pipeline;
pub mod ports;
pub mod proxies;
pub mod redirects;
pub mod registry;
pub mod report;
pub mod series;
pub mod social;
pub(crate) mod state;
pub mod suite;
pub mod temporal;
pub mod tor_usage;
pub mod users;
pub mod weather;

pub use context::AnalysisContext;
pub use derived::{Columns, Derived};
pub use filter_inference::{classify_mechanism_view, MechanismInference};
pub use pipeline::{IngestStats, ParallelIngest, ShardSink};
pub use registry::{Analysis, AnalysisEntry, CostClass, Selection, SuiteParams, REGISTRY};
pub use suite::AnalysisSuite;
