//! # filterscope
//!
//! A faithful, executable reproduction of **“Censorship in the Wild:
//! Analyzing Internet Filtering in Syria”** (IMC 2014): a behavioural
//! simulator of the seven Blue Coat SG-9000 proxies the paper studied, a
//! calibrated synthetic workload standing in for the (unavailable) 600 GB
//! leak, and the full measurement pipeline that regenerates every table and
//! figure of the paper.
//!
//! ## Quick start
//!
//! ```
//! use filterscope::prelude::*;
//!
//! // A corpus at 1/2^18 of the leak's volume (fast; raise for fidelity).
//! let corpus = Corpus::new(SynthConfig::new(262_144).unwrap());
//! let ctx = AnalysisContext::standard(Some(corpus.relay_index()));
//! let mut suite = AnalysisSuite::new(2);
//! suite.ingest_records(&ctx, &corpus.generate());
//! println!("{}", suite.overview().render()); // Table 3
//! assert!(suite.datasets().full > 1000);
//! ```
//!
//! ## Crate map
//!
//! * [`logformat`] — the leaked 26-field ELFF/CSV schema, parser/writer,
//!   and the §3.3 request classification;
//! * [`proxy`] — the SG-9000 policy engine and seven-proxy farm;
//! * [`synth`] — the calibrated workload generator;
//! * [`analysis`] — every table/figure as a streaming accumulator;
//! * [`policylint`] — static analysis of policies: reachability and
//!   shadowing lints, the cross-proxy skew matrix, and witness-backed
//!   equivalence checking (`filterscope lint`);
//! * [`stream`] — the live ingest daemon (`serve`) and replay client
//!   (`stream`): framed TCP batches, per-connection analysis shards,
//!   periodic snapshot folds, and a `/metrics` endpoint;
//! * [`snapstore`] — the append-only snapshot log behind
//!   `serve --snap-log` and the windowed time-travel queries behind
//!   `filterscope history` (`at` / `diff` / `series` / `ls`);
//! * [`tor`], [`bittorrent`], [`geoip`], [`categorizer`] — the external
//!   datasets the paper used, rebuilt as substrates;
//! * [`matchers`], [`stats`], [`core`] — engines and primitives.

#![forbid(unsafe_code)]

pub use filterscope_analysis as analysis;
pub use filterscope_bittorrent as bittorrent;
pub use filterscope_categorizer as categorizer;
pub use filterscope_core as core;
pub use filterscope_geoip as geoip;
pub use filterscope_logformat as logformat;
pub use filterscope_match as matchers;
pub use filterscope_policylint as policylint;
pub use filterscope_proxy as proxy;
pub use filterscope_snapstore as snapstore;
pub use filterscope_stats as stats;
pub use filterscope_stream as stream;
pub use filterscope_synth as synth;
pub use filterscope_tor as tor;

/// The most common imports in one place.
pub mod prelude {
    pub use filterscope_analysis::{
        Analysis, AnalysisContext, AnalysisSuite, Selection, SuiteParams,
    };
    pub use filterscope_core::{Date, ProxyId, Timestamp};
    pub use filterscope_logformat::{parse_line, LogRecord, LogWriter, RequestClass, RequestUrl};
    pub use filterscope_proxy::{ProxyFarm, Request};
    pub use filterscope_synth::{Corpus, StudyPeriod, SynthConfig};
}
