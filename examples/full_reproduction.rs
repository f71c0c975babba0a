//! Regenerate every table and figure of the paper from a synthetic corpus.
//!
//! ```text
//! cargo run --release --example full_reproduction [SCALE]
//! ```
//!
//! `SCALE` divides the leak's 751 M requests; the default 8192 yields a
//! ~92 k-request corpus in seconds. Lower it (e.g. 256) for tighter
//! percentages. Generation is sharded across days; the per-day suites are
//! merged before rendering. A second argument names a directory to receive
//! plot-ready per-figure CSV series.

use filterscope::prelude::*;
use std::time::Instant;

fn main() {
    let scale: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(8192);
    let config = SynthConfig::new(scale).expect("scale must be >= 1");
    let corpus = Corpus::new(config);
    let ctx = AnalysisContext::standard(Some(corpus.relay_index()));
    // Evidence threshold for §5.4 recovery scales with corpus size.
    let min_support = (corpus.total_volume() / 100_000).clamp(3, 500);

    eprintln!(
        "generating {} requests (scale 1/{scale}) across {} days...",
        corpus.total_volume(),
        corpus.config().period.days().len(),
    );
    let t0 = Instant::now();
    let shards = corpus.par_map_days(|_day, records| {
        let mut suite = AnalysisSuite::new(min_support);
        suite.ingest_records(&ctx, records);
        suite
    });
    let mut suite = AnalysisSuite::new(min_support);
    for shard in shards {
        suite.merge(shard);
    }
    eprintln!(
        "analyzed {} records in {:.1}s",
        suite.datasets().full,
        t0.elapsed().as_secs_f64()
    );
    println!("{}", suite.render_all(&ctx));

    // §5.4 keyword recovery (the automated analog of the paper's manual
    // iterative identification).
    let keywords = suite.inference().recover_keywords(min_support, 3);
    println!("== §5.4 keyword recovery ==");
    println!("recovered blacklist: {keywords:?}");

    // Optional: write per-figure CSV series for plotting.
    if let Some(dir) = std::env::args().nth(2) {
        let dir = std::path::PathBuf::from(dir);
        match suite.write_figure_series(&dir) {
            Ok(paths) => eprintln!("wrote {} figure series to {}", paths.len(), dir.display()),
            Err(e) => eprintln!("cannot write figure series: {e}"),
        }
    }
}
