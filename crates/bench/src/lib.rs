//! # filterscope-bench
//!
//! Shared fixtures plus a dependency-free [`harness`] (a Criterion-shaped
//! shim — the build container has no crates.io access). Each bench target
//! regenerates one family of the paper's artifacts:
//!
//! * `tables` — one benchmark per paper table (T1–T15);
//! * `figures` — one benchmark per paper figure (F1–F10) plus §7.3/§7.4;
//! * `throughput` — log-line parse rate, policy decisions/s, end-to-end
//!   generation+analysis rate, and the sharded parallel-ingest path at 1
//!   thread vs all cores (the case for a Rust implementation);
//! * `ablation` — the design choices DESIGN.md calls out: Aho–Corasick vs
//!   naive scanning, domain trie vs suffix checks, CidrSet vs linear scan,
//!   Space-Saving vs exact counting;
//! * `readout` — the bounded top-n read-outs a `serve` publish renders,
//!   at ~75k distinct keys.
//!
//! Corpora are generated once per process and shared across benchmarks.

#![forbid(unsafe_code)]

pub mod harness;

use filterscope_analysis::{AnalysisContext, AnalysisSuite};
use filterscope_logformat::LogRecord;
use filterscope_synth::{Corpus, SynthConfig};
use std::sync::OnceLock;

/// Scale for the benchmark corpus (1/65536 of the leak ≈ 11.5 k requests —
/// large enough for non-trivial work per iteration, small enough that a
/// full Criterion run stays in minutes).
pub const BENCH_SCALE: u64 = 65_536;

static CORPUS: OnceLock<(Vec<LogRecord>, AnalysisContext)> = OnceLock::new();

/// The shared benchmark corpus and analysis context.
pub fn corpus() -> &'static (Vec<LogRecord>, AnalysisContext) {
    CORPUS.get_or_init(|| {
        let corpus = Corpus::new(SynthConfig::new(BENCH_SCALE).expect("valid scale"));
        let ctx = AnalysisContext::standard(Some(corpus.relay_index()));
        (corpus.generate(), ctx)
    })
}

/// A fully-ingested analysis suite over the shared corpus (built once).
pub fn analyzed() -> &'static AnalysisSuite {
    static SUITE: OnceLock<AnalysisSuite> = OnceLock::new();
    SUITE.get_or_init(|| {
        let (records, ctx) = corpus();
        let mut suite = AnalysisSuite::new(2);
        for r in records {
            suite.ingest(ctx, &r.as_view());
        }
        suite
    })
}

/// The corpus serialized to CSV lines (for parser benchmarks).
pub fn csv_lines() -> &'static Vec<String> {
    static LINES: OnceLock<Vec<String>> = OnceLock::new();
    LINES.get_or_init(|| corpus().0.iter().map(|r| r.write_csv()).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_materialize() {
        let (records, _) = corpus();
        assert!(records.len() > 5_000);
        assert_eq!(csv_lines().len(), records.len());
        assert!(analyzed().datasets().full > 5_000);
    }
}
