//! End-to-end integration: workload → farm → logs → analysis, asserting the
//! paper's headline shapes hold on a fresh corpus.

use filterscope::prelude::*;
use filterscope::proxy;

/// Build one analyzed suite at the given scale: one suite per day, each
/// fed its day's record stream, merged in day order (as `report` does).
fn analyzed(scale: u64, min_support: u64) -> (AnalysisSuite, AnalysisContext) {
    let corpus = Corpus::new(SynthConfig::new(scale).expect("valid scale"));
    let ctx = AnalysisContext::standard(Some(corpus.relay_index()));
    let mut suite = AnalysisSuite::new(min_support);
    for day in corpus.par_map_days(|_, records| {
        let mut day = AnalysisSuite::new(min_support);
        day.ingest_records(&ctx, records);
        day
    }) {
        suite.merge(day);
    }
    (suite, ctx)
}

#[test]
fn table3_class_mix_matches_paper() {
    let (suite, _) = analyzed(16_384, 3);
    let total = suite.overview().total.full as f64;
    let allowed = suite.overview().allowed.full as f64 / total;
    let censored = suite.overview().censored_full() as f64 / total;
    let errors = suite.overview().errors_full() as f64 / total;
    let proxied = suite.overview().proxied.full as f64 / total;
    // Paper: 93.25% / 0.98% / ~5.3% / 0.47%.
    assert!((0.92..0.945).contains(&allowed), "allowed {allowed}");
    assert!((0.007..0.013).contains(&censored), "censored {censored}");
    assert!((0.045..0.062).contains(&errors), "errors {errors}");
    assert!((0.003..0.007).contains(&proxied), "proxied {proxied}");
}

#[test]
fn table4_top_domains_match_paper_order() {
    let (suite, _) = analyzed(8_192, 3);
    let top_allowed = suite.domains().top_allowed(3);
    assert_eq!(top_allowed[0].0, "google.com", "google tops allowed");
    let top_censored = suite.domains().top_censored(3);
    let top3: Vec<&str> = top_censored.iter().map(|(d, _)| d.as_str()).collect();
    assert!(
        top3.contains(&"facebook.com"),
        "facebook in censored top-3: {top3:?}"
    );
    assert!(
        top3.contains(&"metacafe.com"),
        "metacafe in censored top-3: {top3:?}"
    );
}

#[test]
fn keyword_recovery_finds_only_real_keywords() {
    let (suite, _) = analyzed(8_192, 3);
    let recovered = suite.inference().recover_keywords(3, 3);
    assert!(
        recovered.contains(&"proxy".to_string()),
        "proxy recovered: {recovered:?}"
    );
    // Every recovered keyword is one of the policy's actual five.
    for k in &recovered {
        assert!(
            proxy::config::KEYWORDS.contains(&k.as_str()),
            "false keyword {k:?} (full set {recovered:?})"
        );
    }
}

#[test]
fn suspected_domains_are_actually_blocked() {
    let (suite, _) = analyzed(8_192, 3);
    let suspected = suite.inference().recover_domains(3);
    assert!(!suspected.is_empty());
    let trie = filterscope::matchers::DomainTrie::from_entries(
        proxy::config::BLOCKED_DOMAINS.iter().copied(),
    );
    for (domain, ev) in &suspected {
        let probe = if domain == ".il" { "x.il" } else { domain };
        assert!(trie.matches(probe), "false suspected domain {domain}");
        assert_eq!(ev.allowed, 0, "{domain} had allowed traffic");
    }
}

#[test]
fn sg48_concentrates_censored_traffic() {
    let (suite, _) = analyzed(16_384, 3);
    let censored_share = suite.proxies().censored_share(ProxyId::Sg48);
    let load_share = suite.proxies().load_share(ProxyId::Sg48);
    assert!(
        censored_share > 2.0 * load_share,
        "SG-48 censored {censored_share:.3} vs load {load_share:.3}"
    );
    // Overall load stays near-uniform.
    assert!((0.10..0.20).contains(&load_share), "load {load_share}");
}

#[test]
fn israel_tops_the_country_censorship_ratios() {
    let (suite, _) = analyzed(4_096, 3);
    let ratios = suite.ip().censorship_ratios();
    assert!(!ratios.is_empty());
    assert_eq!(
        ratios[0].0,
        filterscope::geoip::Country::of("IL"),
        "ratios: {ratios:?}"
    );
    // Israel is targeted but not wholesale-blocked.
    assert!(
        ratios[0].1 > 2.0 && ratios[0].1 < 40.0,
        "IL {}",
        ratios[0].1
    );
}

#[test]
fn facebook_censorship_is_plugin_driven() {
    let (suite, _) = analyzed(8_192, 3);
    let share = suite.social().plugin_share_of_censored_fb();
    assert!(share > 0.9, "plugin share {share}");
    // Twitter is never censored wholesale.
    let twitter = suite
        .social()
        .osn
        .get(&"twitter.com")
        .copied()
        .unwrap_or_default();
    assert!(twitter.allowed > 20 * twitter.censored.max(1));
}

#[test]
fn bittorrent_is_essentially_uncensored() {
    let (suite, _) = analyzed(8_192, 3);
    assert!(suite.bittorrent().announces > 10);
    assert!(
        suite.bittorrent().allowed_fraction() > 0.95,
        "allowed {}",
        suite.bittorrent().allowed_fraction()
    );
    assert!(suite.bittorrent().peers.len() > 1);
    let rate = suite.bittorrent().resolution_rate();
    assert!((0.5..1.0).contains(&rate), "title rate {rate}");
}

#[test]
fn user_analysis_shows_concentrated_censorship() {
    let (suite, _) = analyzed(1_024, 3);
    assert!(
        suite.users().user_count() > 100,
        "users {}",
        suite.users().user_count()
    );
    let frac = suite.users().censored_user_fraction();
    // A small minority of users is censored (paper: 1.57%).
    assert!(frac > 0.0 && frac < 0.10, "censored users {frac}");
    // Censored users are more active.
    let (active_censored, active_clean) = suite.users().active_fraction(100);
    assert!(
        active_censored > active_clean,
        "{active_censored} vs {active_clean}"
    );
}

#[test]
fn full_report_renders_every_artifact() {
    let (suite, ctx) = analyzed(65_536, 2);
    let report = suite.render_all(&ctx);
    for needle in [
        "Table 1",
        "Table 3",
        "Table 4",
        "Table 5",
        "Table 6",
        "Table 7",
        "Table 8",
        "Table 9",
        "Table 10",
        "Table 11",
        "Table 12",
        "Table 13",
        "Table 14",
        "Table 15",
        "Fig 1",
        "Fig 2",
        "Fig 3",
        "Fig 4",
        "Fig 5",
        "Fig 6",
        "Fig 7",
        "Fig 8",
        "Fig 10",
        "BitTorrent",
        "Google cache",
    ] {
        assert!(report.contains(needle), "report missing {needle}");
    }
}

#[test]
fn parallel_and_sequential_analysis_agree() {
    let corpus = Corpus::new(SynthConfig::new(131_072).expect("valid scale"));
    let ctx = AnalysisContext::standard(Some(corpus.relay_index()));
    let mut seq = AnalysisSuite::new(2);
    seq.ingest_records(&ctx, corpus.generate());
    let shards = corpus.par_map_days(|_, records| {
        let mut s = AnalysisSuite::new(2);
        s.ingest_records(&ctx, records);
        s
    });
    let mut par = AnalysisSuite::new(2);
    for s in shards {
        par.merge(s);
    }
    assert_eq!(seq.datasets().full, par.datasets().full);
    assert_eq!(
        seq.overview().censored_full(),
        par.overview().censored_full()
    );
    assert_eq!(seq.domains().top_censored(5), par.domains().top_censored(5));
    assert_eq!(seq.users().user_count(), par.users().user_count());
    assert_eq!(seq.temporal().rcv(), par.temporal().rcv());
}

#[test]
fn mechanism_inference_recovers_every_censor_profile() {
    use filterscope::analysis::MechanismInference;
    use filterscope::proxy::ProfileKind;

    // Workload → profile-shaped farm → logs → inference: the censor's
    // mechanism must be recoverable from the log corpus alone, with the
    // censored population voting near-unanimously.
    for kind in ProfileKind::ALL {
        let config = SynthConfig::new(65_536)
            .expect("valid scale")
            .with_censor(kind);
        let corpus = Corpus::new(config);
        let mut suite =
            AnalysisSuite::with_selection(&SuiteParams::new(1), &Selection::pinned("mechanism"));
        suite.ingest_records(&AnalysisContext::standard(None), corpus.generate());
        let mech = suite.try_get::<MechanismInference>().expect("selected");
        let (got, confidence) = mech.verdict().expect("corpus has censored records");
        assert_eq!(got, kind, "recovered mechanism for {}", kind.name());
        assert!(
            confidence >= 0.95,
            "{} confidence {confidence}",
            kind.name()
        );
    }
}
