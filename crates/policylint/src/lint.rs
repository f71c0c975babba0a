//! Single-policy lint: reachability, shadowing, redundancy, and cross-tier
//! masking, reasoned against the engine's fixed evaluation precedence
//! (custom category → redirect hosts → keywords → domains → subnets).

use crate::finding::{sort_findings, Finding, Severity};
use filterscope_proxy::config::FarmConfig;
use filterscope_proxy::{PolicyData, RuleFamily};

use filterscope_core::ProxyId;
use filterscope_match::domain_trie::normalize_entry;
use filterscope_match::{AcDfa, DomainTrie};
use std::collections::HashMap;

/// Normalize a keyword the way the (case-folding) keyword DFA sees it.
fn norm_keyword(k: &str) -> String {
    k.to_ascii_lowercase()
}

fn finding(
    severity: Severity,
    code: &'static str,
    family: RuleFamily,
    rule: String,
    message: String,
) -> Finding {
    Finding {
        severity,
        code,
        family: Some(family),
        rule,
        message,
        witness: None,
    }
}

/// Report exact (normalized) duplicates within one rule family.
fn duplicates<'a>(
    entries: impl IntoIterator<Item = (String, &'a str)>,
    family: RuleFamily,
    render: impl Fn(&str) -> String,
    out: &mut Vec<Finding>,
) {
    let mut first: HashMap<String, &str> = HashMap::new();
    for (norm, orig) in entries {
        if let Some(prev) = first.get(norm.as_str()) {
            out.push(finding(
                Severity::Warning,
                "duplicate-rule",
                family,
                render(orig),
                format!("duplicate of {}", render(prev)),
            ));
        } else {
            first.insert(norm, orig);
        }
    }
}

/// Lint one policy. Findings are returned in deterministic report order
/// (most severe first).
///
/// The checks fall into three groups:
///
/// * **malformed content** (`empty-rule`, `page-dead-path`) — rules the
///   engine can structurally never match;
/// * **within-tier shadowing** (`duplicate-rule`, `keyword-subsumed`,
///   `domain-shadowed`, `subnet-contained`) — rules whose match set is
///   contained in another rule of the same tier, so they can never be the
///   deciding rule;
/// * **cross-tier masking** (`redirect-masks-*`, `page-masks-*`,
///   `page-overlaps-redirect`) — `Info` notes where an earlier tier
///   changes the outcome class a later tier would have produced. These are
///   properties of the deployment, not defects: the shipped standard
///   policy deliberately redirects six upload frontends whose parent
///   domains are deny-listed (Table 7 vs. Table 8).
pub fn lint_policy(policy: &PolicyData) -> Vec<Finding> {
    let mut out = Vec::new();

    // --- malformed content -------------------------------------------------
    for k in &policy.keywords {
        if k.is_empty() {
            out.push(finding(
                Severity::Error,
                "empty-rule",
                RuleFamily::Keywords,
                "keyword \"\"".to_string(),
                "empty keyword matches every request".to_string(),
            ));
        }
    }
    for d in &policy.blocked_domains {
        if normalize_entry(d).is_empty() {
            out.push(finding(
                Severity::Error,
                "empty-rule",
                RuleFamily::Domains,
                format!("domain {d:?}"),
                "domain entry has no labels".to_string(),
            ));
        }
    }
    for h in &policy.redirect_hosts {
        if h.is_empty() {
            out.push(finding(
                Severity::Error,
                "empty-rule",
                RuleFamily::Redirects,
                "redirect host \"\"".to_string(),
                "empty redirect host can never match".to_string(),
            ));
        }
    }
    for (host, path) in &policy.custom_pages {
        if host.is_empty() {
            out.push(finding(
                Severity::Error,
                "empty-rule",
                RuleFamily::CustomCategory,
                format!("page ({host:?}, {path:?})"),
                "page rule has an empty host".to_string(),
            ));
        }
        if !path.starts_with('/') {
            out.push(finding(
                Severity::Warning,
                "page-dead-path",
                RuleFamily::CustomCategory,
                format!("page ({host:?}, {path:?})"),
                "logged paths always start with '/', so this rule never matches".to_string(),
            ));
        }
    }

    // --- duplicates --------------------------------------------------------
    duplicates(
        policy
            .keywords
            .iter()
            .map(|k| (norm_keyword(k), k.as_str())),
        RuleFamily::Keywords,
        |k| format!("keyword {k:?}"),
        &mut out,
    );
    duplicates(
        policy
            .blocked_domains
            .iter()
            .map(|d| (normalize_entry(d).to_ascii_lowercase(), d.as_str())),
        RuleFamily::Domains,
        |d| format!("domain {d:?}"),
        &mut out,
    );
    duplicates(
        policy
            .redirect_hosts
            .iter()
            .map(|h| (h.clone(), h.as_str())),
        RuleFamily::Redirects,
        |h| format!("redirect host {h:?}"),
        &mut out,
    );
    {
        let mut seen: HashMap<&(String, String), ()> = HashMap::new();
        for pair in &policy.custom_pages {
            if seen.insert(pair, ()).is_some() {
                out.push(finding(
                    Severity::Warning,
                    "duplicate-rule",
                    RuleFamily::CustomCategory,
                    format!("page ({:?}, {:?})", pair.0, pair.1),
                    "duplicate page rule".to_string(),
                ));
            }
        }
        let mut seen_q: HashMap<&str, ()> = HashMap::new();
        for q in &policy.custom_queries {
            if seen_q.insert(q.as_str(), ()).is_some() {
                out.push(finding(
                    Severity::Warning,
                    "duplicate-rule",
                    RuleFamily::CustomCategory,
                    format!("query {q:?}"),
                    "duplicate query string".to_string(),
                ));
            }
        }
        let mut seen_s = HashMap::new();
        for c in &policy.blocked_subnets {
            if seen_s.insert(*c, ()).is_some() {
                out.push(finding(
                    Severity::Warning,
                    "duplicate-rule",
                    RuleFamily::Subnets,
                    format!("subnet {c}"),
                    "duplicate subnet block".to_string(),
                ));
            }
        }
    }

    // --- within-tier shadowing --------------------------------------------
    // Keywords: substring subsumption via the keyword DFA, scanning
    // each keyword for the others. The tier is first-match-wins over one
    // haystack, so a keyword containing another can never be the deciding
    // rule. The witness is the smallest index whose text differs (identical
    // spellings are the duplicate-rule finding's business).
    let live_keywords: Vec<&str> = policy
        .keywords
        .iter()
        .map(|k| k.as_str())
        .filter(|k| !k.is_empty())
        .collect();
    let dfa = AcDfa::build(&live_keywords);
    let mut within = Vec::new();
    for (j, k) in live_keywords.iter().enumerate() {
        dfa.matching_patterns_into(k.as_bytes(), &mut within);
        let subsumer = within
            .iter()
            .copied()
            .find(|&i| i != j && !live_keywords[i].eq_ignore_ascii_case(k));
        if let Some(i) = subsumer {
            out.push(finding(
                Severity::Warning,
                "keyword-subsumed",
                RuleFamily::Keywords,
                format!("keyword {k:?}"),
                format!(
                    "contains keyword {:?}; any URL it matches is already keyword-denied",
                    live_keywords[i]
                ),
            ));
        }
    }

    // Domains: suffix subsumption via the trie. Track the first spelling of
    // each distinct entry so the message can name the shadowing rule.
    let mut trie = DomainTrie::new();
    let mut entry_names: Vec<String> = Vec::new();
    for d in &policy.blocked_domains {
        if normalize_entry(d).is_empty() {
            continue;
        }
        let ix = trie.insert(d);
        if ix as usize == entry_names.len() {
            entry_names.push(d.clone());
        }
    }
    for d in &policy.blocked_domains {
        if normalize_entry(d).is_empty() {
            continue;
        }
        if let Some(ix) = trie.shadowing_entry(d) {
            out.push(finding(
                Severity::Warning,
                "domain-shadowed",
                RuleFamily::Domains,
                format!("domain {d:?}"),
                format!(
                    "every host it covers is already covered by domain {:?}",
                    entry_names[ix as usize]
                ),
            ));
        }
    }

    // Subnets: CIDR blocks are nested or disjoint, so containment is the
    // only possible overlap. Report each block contained in a strictly
    // wider one (the widest container, for a stable message).
    for (j, b) in policy.blocked_subnets.iter().enumerate() {
        let container = policy
            .blocked_subnets
            .iter()
            .enumerate()
            .filter(|&(i, a)| i != j && a != b && a.contains_block(*b))
            .min_by_key(|&(_, a)| a.prefix_len())
            .map(|(_, a)| a);
        if let Some(a) = container {
            out.push(finding(
                Severity::Warning,
                "subnet-contained",
                RuleFamily::Subnets,
                format!("subnet {b}"),
                format!("contained in subnet {a}; it can never be the deciding rule"),
            ));
        }
    }

    // --- cross-tier reachability ------------------------------------------
    // A domain entry containing a keyword is dead: every host the suffix
    // covers carries the entry — hence the keyword — as a substring, and
    // the keyword tier evaluates first.
    for d in &policy.blocked_domains {
        let n = normalize_entry(d);
        if n.is_empty() {
            continue;
        }
        if let Some(i) = dfa.first_match(n) {
            out.push(finding(
                Severity::Warning,
                "domain-dead",
                RuleFamily::Domains,
                format!("domain {d:?}"),
                format!(
                    "every covered host contains keyword {:?}, which denies first",
                    live_keywords[i]
                ),
            ));
        }
    }

    // Masking notes: an earlier tier changes the outcome *class* a later
    // tier would have produced (redirect instead of deny, or vice versa).
    for h in &policy.redirect_hosts {
        if h.is_empty() {
            continue;
        }
        if dfa.is_match(h.as_bytes()) {
            out.push(finding(
                Severity::Info,
                "redirect-masks-keyword",
                RuleFamily::Redirects,
                format!("redirect host {h:?}"),
                "host contains a blacklisted keyword; requests redirect instead of deny"
                    .to_string(),
            ));
        }
        if trie.matches(h) {
            out.push(finding(
                Severity::Info,
                "redirect-masks-domain",
                RuleFamily::Redirects,
                format!("redirect host {h:?}"),
                "host falls under a deny-listed domain; requests redirect instead of deny"
                    .to_string(),
            ));
        }
    }
    for (host, path) in &policy.custom_pages {
        if host.is_empty() || !path.starts_with('/') {
            continue;
        }
        let rule = format!("page ({host:?}, {path:?})");
        if dfa.is_match(format!("{host}{path}").as_bytes()) {
            out.push(finding(
                Severity::Info,
                "page-masks-keyword",
                RuleFamily::CustomCategory,
                rule.clone(),
                "page URL contains a blacklisted keyword; exact hits redirect instead of deny"
                    .to_string(),
            ));
        }
        if trie.matches(host) {
            out.push(finding(
                Severity::Info,
                "page-masks-domain",
                RuleFamily::CustomCategory,
                rule.clone(),
                "page host falls under a deny-listed domain; exact hits redirect instead of deny"
                    .to_string(),
            ));
        }
        if policy.redirect_hosts.iter().any(|h| h == host) {
            out.push(finding(
                Severity::Info,
                "page-overlaps-redirect",
                RuleFamily::CustomCategory,
                rule,
                "page host is also a redirect host; both tiers redirect, the page rule decides"
                    .to_string(),
            ));
        }
    }

    // Custom-category rules only fire when BOTH a page and a query string
    // match; either list alone is inert.
    if !policy.custom_pages.is_empty() && policy.custom_queries.is_empty() {
        out.push(finding(
            Severity::Warning,
            "custom-category-inert",
            RuleFamily::CustomCategory,
            format!("{} page rule(s)", policy.custom_pages.len()),
            "no query strings are defined, so no request can enter the custom category".to_string(),
        ));
    }
    if policy.custom_pages.is_empty() && !policy.custom_queries.is_empty() {
        out.push(finding(
            Severity::Warning,
            "custom-category-inert",
            RuleFamily::CustomCategory,
            format!("{} query string(s)", policy.custom_queries.len()),
            "no page rules are defined, so the query strings cover nothing".to_string(),
        ));
    }

    sort_findings(&mut out);
    out
}

/// Lint the per-proxy configuration layer of a farm: the skew itself is
/// reported by [`crate::skew_matrix`]; this checks for configurations the
/// simulator (and the real appliance line) would not accept.
pub fn lint_farm(farm: &FarmConfig) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut push = |severity, code, rule: String, message: String| {
        out.push(Finding {
            severity,
            code,
            family: None,
            rule,
            message,
            witness: None,
        });
    };
    if farm.proxies.len() != ProxyId::COUNT {
        push(
            Severity::Error,
            "farm-size",
            "farm".to_string(),
            format!(
                "{} proxies configured, deployment has {}",
                farm.proxies.len(),
                ProxyId::COUNT
            ),
        );
    }
    for (i, p) in farm.proxies.iter().enumerate() {
        let label = p.id.label();
        if p.id.index() != i {
            push(
                Severity::Error,
                "proxy-order",
                label.to_string(),
                format!("at position {i}, expected index {}", p.id.index()),
            );
        }
        if p.tor_rule_per_mille_cap > 1000 {
            push(
                Severity::Warning,
                "tor-cap-out-of-range",
                label.to_string(),
                format!(
                    "Tor cap {}‰ exceeds 1000‰ (wholesale blocking)",
                    p.tor_rule_per_mille_cap
                ),
            );
        }
        if p.default_category.is_empty() || p.blocked_category.is_empty() {
            push(
                Severity::Warning,
                "empty-category-label",
                label.to_string(),
                "category labels must be non-empty (the appliance always logs one)".to_string(),
            );
        }
    }
    if u64::from(farm.error_per_cent_mille) + u64::from(farm.proxied_per_cent_mille) > 100_000 {
        push(
            Severity::Warning,
            "rate-overflow",
            "farm".to_string(),
            format!(
                "error ({}) + cache ({}) rates exceed 100000 per-cent-mille",
                farm.error_per_cent_mille, farm.proxied_per_cent_mille
            ),
        );
    }
    sort_findings(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use filterscope_core::Ipv4Cidr;

    fn codes(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.code).collect()
    }

    #[test]
    fn standard_policy_yields_only_masking_notes() {
        let findings = lint_policy(&PolicyData::standard());
        assert!(
            findings.iter().all(|f| f.severity == Severity::Info),
            "{findings:?}"
        );
        // The six Table 7 upload frontends whose parent domains are
        // deny-listed (Table 8).
        let masked: Vec<&str> = findings
            .iter()
            .filter(|f| f.code == "redirect-masks-domain")
            .map(|f| f.rule.as_str())
            .collect();
        assert_eq!(masked.len(), 6, "{masked:?}");
        assert!(masked.contains(&"redirect host \"share.metacafe.com\""));
        assert!(masked.contains(&"redirect host \"upload.dailymotion.com\""));
        assert_eq!(findings.len(), 6);
    }

    #[test]
    fn empty_and_duplicate_rules_are_flagged() {
        let mut p = PolicyData::empty();
        p.keywords = vec!["proxy".into(), "".into(), "PROXY".into()];
        let f = lint_policy(&p);
        assert!(codes(&f).contains(&"empty-rule"));
        let dup = f.iter().find(|f| f.code == "duplicate-rule").unwrap();
        assert_eq!(dup.rule, "keyword \"PROXY\"");
        assert_eq!(dup.severity, Severity::Warning);
    }

    #[test]
    fn keyword_subsumption_detected() {
        let mut p = PolicyData::empty();
        p.keywords = vec!["proxy".into(), "cgiproxy".into(), "ultra".into()];
        let f = lint_policy(&p);
        let sub = f.iter().find(|f| f.code == "keyword-subsumed").unwrap();
        assert_eq!(sub.rule, "keyword \"cgiproxy\"");
        assert!(sub.message.contains("\"proxy\""));
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn domain_shadowing_and_keyword_deadness_detected() {
        let mut p = PolicyData::empty();
        p.keywords = vec!["israel".into()];
        p.blocked_domains = vec![
            "il".into(),
            "panet.co.il".into(),
            "israelweather.co.il".into(),
        ];
        let f = lint_policy(&p);
        let shadowed: Vec<&str> = f
            .iter()
            .filter(|f| f.code == "domain-shadowed")
            .map(|f| f.rule.as_str())
            .collect();
        assert_eq!(
            shadowed,
            vec!["domain \"israelweather.co.il\"", "domain \"panet.co.il\"",]
        );
        let dead = f.iter().find(|f| f.code == "domain-dead").unwrap();
        assert_eq!(dead.rule, "domain \"israelweather.co.il\"");
        assert!(dead.message.contains("\"israel\""));
    }

    #[test]
    fn entries_mean_what_the_engine_matches() {
        // The engine's trie drops one trailing dot, so `metacafe.com..`
        // never fires on `metacafe.com` hosts and cannot shadow a subdomain
        // rule; `metacafe.com.` is the bare entry and does.
        use crate::finding::DecisionKind;
        use filterscope_logformat::RequestUrl;
        use filterscope_proxy::PolicyEngine;
        let mut p = PolicyData::empty();
        for (entry, fires) in [("metacafe.com..", false), ("metacafe.com.", true)] {
            p.blocked_domains = vec![entry.into(), "share.metacafe.com".into()];
            let engine = PolicyEngine::from_data(&p, None, 1);
            let bare = engine.decide_url(&RequestUrl::http("metacafe.com", "/"));
            assert_eq!(
                DecisionKind::of(bare) == DecisionKind::Deny,
                fires,
                "{entry}"
            );
            let shadowed = lint_policy(&p)
                .iter()
                .any(|f| f.code == "domain-shadowed" && f.rule == "domain \"share.metacafe.com\"");
            assert_eq!(shadowed, fires, "{entry}");
        }
    }

    #[test]
    fn subnet_containment_detected() {
        let mut p = PolicyData::empty();
        p.blocked_subnets = vec![
            Ipv4Cidr::parse("46.120.0.0/15").unwrap(),
            Ipv4Cidr::parse("46.121.16.0/20").unwrap(),
            Ipv4Cidr::parse("84.229.0.0/16").unwrap(),
        ];
        let f = lint_policy(&p);
        assert_eq!(codes(&f), vec!["subnet-contained"]);
        assert_eq!(f[0].rule, "subnet 46.121.16.0/20");
        assert!(f[0].message.contains("46.120.0.0/15"));
    }

    #[test]
    fn inert_custom_category_detected() {
        let mut p = PolicyData::empty();
        p.custom_pages = vec![("www.facebook.com".into(), "/Syrian.Revolution".into())];
        let f = lint_policy(&p);
        assert_eq!(codes(&f), vec!["custom-category-inert"]);

        let mut p = PolicyData::empty();
        p.custom_queries = vec!["ref=ts".into()];
        let f = lint_policy(&p);
        assert_eq!(codes(&f), vec!["custom-category-inert"]);
    }

    #[test]
    fn dead_page_path_detected() {
        let mut p = PolicyData::empty();
        p.custom_pages = vec![("www.facebook.com".into(), "Syrian.Revolution".into())];
        p.custom_queries = vec!["".into()];
        let f = lint_policy(&p);
        assert_eq!(codes(&f), vec!["page-dead-path"]);
    }

    #[test]
    fn standard_farm_is_clean_and_bad_farms_are_not() {
        assert!(lint_farm(&FarmConfig::default()).is_empty());
        assert!(lint_farm(&FarmConfig::tor_blocked_era()).is_empty());

        let mut farm = FarmConfig::default();
        farm.proxies[2].tor_rule_per_mille_cap = 1500;
        farm.proxies.swap(0, 1);
        let f = lint_farm(&farm);
        assert_eq!(
            codes(&f),
            vec!["proxy-order", "proxy-order", "tor-cap-out-of-range"]
        );

        let mut farm = FarmConfig::default();
        farm.proxies.pop();
        assert_eq!(codes(&lint_farm(&farm)), vec!["farm-size"]);

        let farm = FarmConfig {
            error_per_cent_mille: 99_000,
            proxied_per_cent_mille: 2_000,
            ..FarmConfig::default()
        };
        assert_eq!(codes(&lint_farm(&farm)), vec!["rate-overflow"]);
    }
}
