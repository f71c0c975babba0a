//! Witness-backed rule-level equivalence of two policies.
//!
//! Two policies are *behaviourally equivalent* when every request receives
//! the same observable outcome class ([`DecisionKind`]) under both. The
//! checker enumerates, per rule of either policy, a small set of candidate
//! URLs chosen to isolate that rule, then **executes both compiled
//! [`PolicyEngine`]s** on each candidate (via the static-tier hook
//! [`PolicyEngine::decide_url`]). A finding is emitted only when the two
//! engines are *observed* to disagree, and it carries the disagreeing URL
//! as a [`Witness`] — so every `not-equivalent` finding is true by
//! construction, never a static over-approximation.
//!
//! The converse is best-effort, as it must be: candidate synthesis isolates
//! each rule as well as the neutral hosts allow, so an empty report means
//! "no per-rule counterexample found", not a proof of equivalence.

use crate::finding::{sort_findings, DecisionKind, Finding, Severity, Witness};
use filterscope_logformat::RequestUrl;
use filterscope_match::CidrSet;
use filterscope_proxy::{PolicyData, PolicyEngine, RuleFamily};
use std::collections::HashSet;

/// Neutral hosts for keyword candidates: reserved TLDs that no sane policy
/// lists, used in pairs so an accidental collision with one of them (e.g. a
/// policy blocking `.invalid`) does not hide a real difference.
const NEUTRAL_HOSTS: [&str; 2] = ["w.invalid", "x.test"];

/// One rule's candidate URLs, labelled for the finding.
struct Candidates {
    family: RuleFamily,
    rule: String,
    urls: Vec<RequestUrl>,
}

/// Candidate URLs isolating each rule of `policy`. `other_subnets` is the
/// opposing policy's subnet set, used to aim subnet witnesses at addresses
/// the other side does *not* cover (the strongest separating candidate).
fn candidates(policy: &PolicyData, other_subnets: &CidrSet) -> Vec<Candidates> {
    let mut out = Vec::new();

    for k in &policy.keywords {
        if k.is_empty() {
            continue;
        }
        out.push(Candidates {
            family: RuleFamily::Keywords,
            rule: format!("keyword {k:?}"),
            urls: NEUTRAL_HOSTS
                .iter()
                .map(|h| RequestUrl::http(*h, format!("/{k}")))
                .collect(),
        });
    }

    for d in &policy.blocked_domains {
        let n = d.trim_matches('.').to_ascii_lowercase();
        if n.is_empty() {
            continue;
        }
        out.push(Candidates {
            family: RuleFamily::Domains,
            rule: format!("domain {d:?}"),
            urls: vec![
                RequestUrl::http(n.clone(), "/"),
                RequestUrl::http(format!("w.{n}"), "/"),
            ],
        });
    }

    for c in &policy.blocked_subnets {
        let mut urls = Vec::new();
        // Best candidate: an address in this block the other policy does
        // not cover — if the block is only partially replicated, this is
        // the separating address.
        if let Some(gap) = other_subnets.first_uncovered_in(*c) {
            urls.push(RequestUrl::http(gap.to_string(), "/"));
        }
        urls.push(RequestUrl::http(c.network().to_string(), "/"));
        urls.push(RequestUrl::http(c.nth(c.size() - 1).to_string(), "/"));
        out.push(Candidates {
            family: RuleFamily::Subnets,
            rule: format!("subnet {c}"),
            urls,
        });
    }

    for h in &policy.redirect_hosts {
        if h.is_empty() {
            continue;
        }
        out.push(Candidates {
            family: RuleFamily::Redirects,
            rule: format!("redirect host {h:?}"),
            urls: vec![RequestUrl::http(h.clone(), "/")],
        });
    }

    // A page rule is only reachable through a covered query string; try
    // every query the owning policy defines.
    for (host, path) in &policy.custom_pages {
        if host.is_empty() {
            continue;
        }
        let urls: Vec<RequestUrl> = policy
            .custom_queries
            .iter()
            .map(|q| RequestUrl::http(host.clone(), path.clone()).with_query(q.clone()))
            .collect();
        if urls.is_empty() {
            continue; // inert rule: no witness can exist through it
        }
        out.push(Candidates {
            family: RuleFamily::CustomCategory,
            rule: format!("page ({host:?}, {path:?})"),
            urls,
        });
    }

    out
}

/// Check rule-level equivalence of `left` and `right`. Names are used in
/// messages (e.g. `"inferred"` vs `"standard"`).
///
/// Every returned finding has severity [`Severity::Error`], code
/// `not-equivalent`, and a [`Witness`] URL on which the two compiled
/// engines were executed and produced different outcome classes.
pub fn check_equivalence(
    left: &PolicyData,
    right: &PolicyData,
    left_name: &str,
    right_name: &str,
) -> Vec<Finding> {
    // Seed and relay index are irrelevant on the static tiers decide_url
    // exercises; seed 1 keeps construction deterministic.
    let left_engine = PolicyEngine::from_data(left, None, 1);
    let right_engine = PolicyEngine::from_data(right, None, 1);
    let left_subnets = CidrSet::from_blocks(left.blocked_subnets.iter().copied());
    let right_subnets = CidrSet::from_blocks(right.blocked_subnets.iter().copied());

    let mut out = Vec::new();
    let mut seen_rules: HashSet<String> = HashSet::new();
    let mut seen_urls: HashSet<String> = HashSet::new();

    let mut probe = |cands: Vec<Candidates>, seen_rules: &mut HashSet<String>| {
        for c in cands {
            if !seen_rules.insert(c.rule.clone()) {
                continue; // duplicate rule, or same rule present in both policies
            }
            for url in c.urls {
                let l = DecisionKind::of(left_engine.decide_url(&url));
                let r = DecisionKind::of(right_engine.decide_url(&url));
                if l == r {
                    continue;
                }
                let witness = Witness {
                    url: url.clone(),
                    left: l,
                    right: r,
                };
                if seen_urls.insert(witness.url_string()) {
                    out.push(Finding {
                        severity: Severity::Error,
                        code: "not-equivalent",
                        family: Some(c.family),
                        rule: c.rule.clone(),
                        message: format!(
                            "{left_name} {} but {right_name} {}",
                            describe(l),
                            describe(r)
                        ),
                        witness: Some(witness),
                    });
                }
                break; // one witness per rule
            }
        }
    };

    probe(candidates(left, &right_subnets), &mut seen_rules);
    probe(candidates(right, &left_subnets), &mut seen_rules);

    sort_findings(&mut out);
    out
}

fn describe(kind: DecisionKind) -> &'static str {
    match kind {
        DecisionKind::Allow => "allows it",
        DecisionKind::Deny => "denies it",
        DecisionKind::Redirect => "redirects it",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use filterscope_core::Ipv4Cidr;

    #[test]
    fn a_policy_is_equivalent_to_itself() {
        let p = PolicyData::standard();
        assert!(check_equivalence(&p, &p, "a", "b").is_empty());
    }

    #[test]
    fn missing_keyword_yields_validated_witness() {
        let full = PolicyData::standard();
        let ablated = PolicyData::standard().without(RuleFamily::Keywords);
        let findings = check_equivalence(&full, &ablated, "full", "ablated");
        assert!(!findings.is_empty());
        for f in &findings {
            assert_eq!(f.code, "not-equivalent");
            let w = f.witness.as_ref().expect("witness required");
            // Re-execute: the witness must actually separate the engines.
            let l = PolicyEngine::from_data(&full, None, 1).decide_url(&w.url);
            let r = PolicyEngine::from_data(&ablated, None, 1).decide_url(&w.url);
            assert_eq!(DecisionKind::of(l), w.left);
            assert_eq!(DecisionKind::of(r), w.right);
            assert_ne!(w.left, w.right);
        }
        // All five keywords separate the two policies.
        let kw: Vec<&str> = findings
            .iter()
            .filter(|f| f.family == Some(RuleFamily::Keywords))
            .map(|f| f.rule.as_str())
            .collect();
        assert_eq!(kw.len(), 5, "{kw:?}");
    }

    #[test]
    fn narrowed_subnet_found_through_gap_address() {
        let wide = {
            let mut p = PolicyData::empty();
            p.blocked_subnets = vec![Ipv4Cidr::parse("84.229.0.0/16").unwrap()];
            p
        };
        let narrow = {
            let mut p = PolicyData::empty();
            p.blocked_subnets = vec![Ipv4Cidr::parse("84.229.0.0/17").unwrap()];
            p
        };
        let findings = check_equivalence(&wide, &narrow, "wide", "narrow");
        assert_eq!(findings.len(), 1);
        let w = findings[0].witness.as_ref().unwrap();
        // The witness lands in the uncovered upper half.
        assert!(w.url.host.starts_with("84.229.128."));
        assert_eq!(w.left, DecisionKind::Deny);
        assert_eq!(w.right, DecisionKind::Allow);
    }

    #[test]
    fn outcome_class_differences_are_reported_both_ways() {
        // Same host: redirect on the left, domain-deny on the right.
        let mut left = PolicyData::empty();
        left.redirect_hosts = vec!["upload.example.com".into()];
        let mut right = PolicyData::empty();
        right.blocked_domains = vec!["example.com".into()];
        let findings = check_equivalence(&left, &right, "l", "r");
        assert!(findings.iter().any(|f| f.witness.as_ref().unwrap().left
            == DecisionKind::Redirect
            && f.witness.as_ref().unwrap().right == DecisionKind::Deny));
        assert!(findings
            .iter()
            .any(|f| f.witness.as_ref().unwrap().left == DecisionKind::Allow
                && f.witness.as_ref().unwrap().right == DecisionKind::Deny));
    }

    #[test]
    fn trigger_only_differences_are_equivalent() {
        // Left denies api.example.net by domain; right denies it by keyword.
        let mut left = PolicyData::empty();
        left.blocked_domains = vec!["example.net".into()];
        let mut right = PolicyData::empty();
        right.keywords = vec!["example.net".into()];
        let findings = check_equivalence(&left, &right, "l", "r");
        // The keyword candidate "w.invalid/example.net" is denied by the
        // keyword policy only — a real difference. But the domain candidates
        // (example.net, w.example.net) are denied by both. Only genuine
        // separations survive.
        for f in &findings {
            let w = f.witness.as_ref().unwrap();
            assert_ne!(w.left, w.right, "{f:?}");
        }
    }
}
