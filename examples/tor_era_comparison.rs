//! The December-2012 what-if: the paper's epilogue reports that Syrian ISPs
//! began blocking Tor relays and bridges wholesale in December 2012. This
//! example replays the *same* August-2011 workload through (a) the leak-era
//! farm (SG-44's intermittent experiments only) and (b) a
//! [`FarmConfig::tor_blocked_era`] farm, then uses the comparison tool's
//! two-proportion z-tests to show exactly which metrics shift — Tor
//! censorship flips from ~1 % to ~100 % while everything else stays put.
//!
//! ```text
//! cargo run --release --example tor_era_comparison [SCALE]
//! ```

use filterscope::analysis::comparison::compare;
use filterscope::prelude::*;
use filterscope::proxy::FarmConfig;

fn analyze(corpus: &Corpus) -> AnalysisSuite {
    let ctx = AnalysisContext::standard(Some(corpus.relay_index()));
    let shards = corpus.par_map_days(|_, records| {
        let mut suite = AnalysisSuite::new(3);
        suite.ingest_records(&ctx, records);
        suite
    });
    let mut suite = AnalysisSuite::new(3);
    for s in shards {
        suite.merge(s);
    }
    suite
}

fn main() {
    let scale: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2048);
    let config = SynthConfig::new(scale).expect("valid scale");

    eprintln!("replaying the workload through both eras (scale 1/{scale})...");
    let era_2011 = Corpus::new(config.clone());
    let era_2012 = Corpus::new(config).with_farm_config(FarmConfig::tor_blocked_era());

    let a = analyze(&era_2011);
    let b = analyze(&era_2012);

    println!("A = summer-2011 policy (leak era)");
    println!("B = December-2012 policy (wholesale Tor blocking)\n");
    let cmp = compare(&a, &b);
    println!("{}", cmp.render());
    // Note the inference side effect: once the 2012 policy censors relay
    // directory fetches, the §5.4 recovery "discovers" the /tor/ path
    // tokens (server, keys, authority, ...) as new blacklist strings
    // spanning many relay addresses — exactly what an analyst auditing
    // fresh logs would report as a policy change.

    println!("== Tor detail ==");
    println!(
        "2011: {} Tor requests, {} censored ({:.2}%), {:.0}% of censored on SG-44",
        a.tor().total,
        a.tor().censored,
        if a.tor().total == 0 {
            0.0
        } else {
            a.tor().censored as f64 / a.tor().total as f64 * 100.0
        },
        a.tor().sg44_share_of_censored() * 100.0,
    );
    println!(
        "2012: {} Tor requests, {} censored ({:.2}%), spread across all proxies",
        b.tor().total,
        b.tor().censored,
        if b.tor().total == 0 {
            0.0
        } else {
            b.tor().censored as f64 / b.tor().total as f64 * 100.0
        },
    );
}
