//! Rule-family ablation: how much of the censorship does each rule family
//! carry? (The quantitative counterpart of the paper's §8 discussion of the
//! censors' cost/benefit trade-offs.)
//!
//! The same workload is replayed through farms with one rule family removed
//! at a time; the drop in censored volume is that family's marginal
//! contribution. Also demonstrates the full recover-and-re-run loop: the
//! §5.4-recovered policy is exported to CPL, parsed back, and replayed —
//! showing how much of the observed censorship the recovered policy
//! explains.

use filterscope::logformat::RequestClass;
use filterscope::prelude::*;
use filterscope::proxy::{cpl, FarmConfig, PolicyData, RuleFamily};

fn censored_count(farm: &ProxyFarm, requests: &[Request]) -> u64 {
    requests
        .iter()
        .filter(|req| {
            let rec = farm.process_on(req, ProxyId::Sg42);
            RequestClass::of(&rec) == RequestClass::Censored
        })
        .count() as u64
}

fn main() {
    // One August day's workload at 1/16384 (~7.5k requests).
    let corpus = Corpus::new(SynthConfig::new(16_384).expect("valid scale"));
    let day = corpus.config().period.days()[5];
    let generator = corpus.day_generator(day);
    let requests: Vec<Request> = generator.iter().collect();
    eprintln!("replaying {} requests of {}", requests.len(), day.date);

    let full_policy = PolicyData::standard();
    let full_farm = ProxyFarm::with_policy(FarmConfig::default(), &full_policy, None);
    let baseline = censored_count(&full_farm, &requests);
    println!("full policy:          {baseline} censored");

    println!("\n== marginal contribution per rule family ==");
    for family in RuleFamily::ALL {
        let ablated = PolicyData::standard().without(family);
        let farm = ProxyFarm::with_policy(FarmConfig::default(), &ablated, None);
        let remaining = censored_count(&farm, &requests);
        let delta = baseline.saturating_sub(remaining);
        println!(
            "without {:<24} {remaining:>6} censored  (family carries {delta}, {:.1}%)",
            family.label(),
            delta as f64 / baseline.max(1) as f64 * 100.0,
        );
    }

    // Recover the policy from the full farm's own logs, export to CPL,
    // parse back, and replay.
    let mut suite =
        AnalysisSuite::with_selection(&SuiteParams::blind(3), &Selection::pinned("inference"));
    let ctx = AnalysisContext::standard(None);
    suite.ingest_records(
        &ctx,
        requests
            .iter()
            .map(|req| full_farm.process_on(req, ProxyId::Sg42)),
    );
    let recovered = suite.inference().export_policy(3, 3);
    let text = cpl::to_cpl(&recovered);
    let parsed = cpl::parse_cpl(&text).expect("generated CPL must parse");
    let recovered_farm = ProxyFarm::with_policy(FarmConfig::default(), &parsed, None);
    let explained = censored_count(&recovered_farm, &requests);
    println!("\n== recovered policy (exported to CPL and replayed) ==");
    println!(
        "{} keywords, {} domains recovered; replay censors {explained} of the \
         original {baseline} ({:.1}% explained)",
        parsed.keywords.len(),
        parsed.blocked_domains.len(),
        explained as f64 / baseline.max(1) as f64 * 100.0,
    );
    print!("{}", &text[..text.len().min(400)]);
    println!("...");
}
