//! §7.1 deep dive: SG-44's intermittent Tor censorship (Figs. 8–9).
//!
//! The Tor slice of a proportionally-scaled corpus is small, so this example
//! runs a *focused* experiment instead: it synthesizes a dense Tor workload
//! (every relay probed repeatedly across August 1–6), pushes it through the
//! farm, and prints the hourly censored series per proxy plus the Rfilter
//! alternation the paper observes.
//!
//! ```text
//! cargo run --release --example tor_blocking
//! ```

use filterscope::core::{Date, ProxyId, TimeOfDay, Timestamp};
use filterscope::logformat::RequestUrl;
use filterscope::prelude::*;
use filterscope::tor::signaling::DIR_PATHS;
use filterscope::tor::{synthesize_consensus, RelayIndex, SynthConsensusConfig};
use std::sync::Arc;

fn main() {
    let consensus_cfg = SynthConsensusConfig::default();
    let dates: Vec<Date> = (1..=6)
        .map(|d| Date::new(2011, 8, d).expect("date"))
        .collect();
    let docs: Vec<_> = dates
        .iter()
        .map(|d| synthesize_consensus(&consensus_cfg, *d))
        .collect();
    let relays = Arc::new(RelayIndex::from_consensuses(docs.iter()));
    let farm = ProxyFarm::new(
        filterscope::proxy::FarmConfig::default(),
        Some(relays.clone()),
    );
    let ctx = AnalysisContext::standard(Some(relays));

    let mut records = Vec::new();
    let mut per_proxy_censored = [0u64; 7];
    for (date, doc) in dates.iter().zip(&docs) {
        for hour in 0..24u8 {
            let ts = Timestamp::new(*date, TimeOfDay::new(hour, 13, 0).expect("static time"));
            // Probe a rotating subset of relays each hour: one dir fetch and
            // three circuit attempts per sampled relay.
            for (i, relay) in doc.relays.iter().enumerate().step_by(7) {
                if relay.dir_port != 0 {
                    let dir = Request::get(
                        ts,
                        RequestUrl::http(relay.addr.to_string(), DIR_PATHS[i % DIR_PATHS.len()])
                            .with_port(relay.dir_port),
                    );
                    records.push(farm.process(&dir));
                }
                for k in 0..3u8 {
                    let onion = Request::get(
                        ts.plus_seconds(k as i64 * 60),
                        RequestUrl::http(relay.addr.to_string(), "/").with_port(relay.or_port),
                    );
                    let rec = farm.process(&onion);
                    if rec.exception.is_policy() {
                        if let Some(p) = rec.proxy() {
                            per_proxy_censored[p.index()] += 1;
                        }
                    }
                    records.push(rec);
                }
            }
        }
    }

    let mut suite = AnalysisSuite::with_selection(&SuiteParams::new(1), &Selection::pinned("tor"));
    suite.ingest_records(&ctx, &records);
    let stats = suite.tor();
    eprintln!("processed {} Tor probes", records.len());
    println!("{}", stats.render());

    println!("== censored Tor requests per proxy ==");
    for p in ProxyId::ALL {
        println!("  {}: {}", p.label(), per_proxy_censored[p.index()]);
    }

    println!("\n== Fig 9: Rfilter per hour (August 3) ==");
    for (k, r) in stats.rfilter() {
        // Hour bins 48..72 are August 3.
        if (48..72).contains(&k) {
            match r {
                Some(v) => println!("  {:02}:00  Rfilter = {v:.3}", k - 48),
                None => println!("  {:02}:00  (no allowed Tor traffic)", k - 48),
            }
        }
    }
}
