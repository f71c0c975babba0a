//! Quickstart: generate a small corpus, classify it, and print the paper's
//! headline statistics (Table 3) plus the top censored domains (Table 4).
//!
//! ```text
//! cargo run --example quickstart
//! ```

use filterscope::prelude::*;

fn main() {
    // 1/65536 of the leak's volume: ~11.5k requests, instant.
    let corpus = Corpus::new(SynthConfig::new(65_536).expect("valid scale"));
    let ctx = AnalysisContext::standard(Some(corpus.relay_index()));

    let mut suite = AnalysisSuite::new(2);
    suite.ingest_records(&ctx, corpus.generate());

    println!("{}", suite.datasets().render());
    println!("{}", suite.overview().render());
    println!("{}", suite.domains().render_table4());

    let censored = suite.overview().censored_full();
    let total = suite.overview().total.full;
    println!(
        "censored {censored} of {total} requests ({:.2}%) — the paper reports 0.98%",
        censored as f64 / total as f64 * 100.0
    );
}
