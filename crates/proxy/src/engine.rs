//! The policy engine: one compiled rule set, evaluated per request.

use crate::config::ProxyConfig;
use crate::decision::{Decision, Trigger};
use crate::hashing::{decision_hash, fnv1a, per_mille};
use crate::policy_data::PolicyData;
use crate::request::Request;
use filterscope_core::Timestamp;
use filterscope_logformat::{RequestUrl, UrlView};
use filterscope_match::{AcDfa, CidrSet, DomainTrie};
use filterscope_tor::signaling;
use filterscope_tor::RelayIndex;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// A compiled policy, shared across the farm (the paper finds the proxies
/// run near-identical rule sets; per-proxy differences live in
/// [`ProxyConfig`]).
///
/// Each matched rule class has one matcher from `filterscope-match`: a
/// dense keyword DFA (case-folding), a reversed-label domain trie and a
/// merged CIDR set.
pub struct PolicyEngine {
    keywords: AcDfa,
    domains: DomainTrie,
    subnets: CidrSet,
    redirect_hosts: HashSet<String>,
    /// Custom-category pages: host → the `"/<page>"` paths under the
    /// category, so a lookup borrows the request's host and path.
    custom_pages: HashMap<String, HashSet<String>>,
    custom_queries: HashSet<String>,
    /// Tor relay endpoints by date, shared with the workload generator.
    relays: Option<Arc<RelayIndex>>,
    seed: u64,
}

impl PolicyEngine {
    /// Compile the standard rule set. `relays` enables the SG-44 Tor rule;
    /// pass `None` to run without Tor awareness.
    pub fn standard(relays: Option<Arc<RelayIndex>>, seed: u64) -> Self {
        Self::from_data(&PolicyData::standard(), relays, seed)
    }

    /// Compile an arbitrary policy (e.g. one recovered by the §5.4
    /// inference, parsed from CPL, or an ablated variant).
    pub fn from_data(data: &PolicyData, relays: Option<Arc<RelayIndex>>, seed: u64) -> Self {
        let mut custom_pages: HashMap<String, HashSet<String>> = HashMap::new();
        for (host, path) in &data.custom_pages {
            custom_pages
                .entry(host.clone())
                .or_default()
                .insert(path.clone());
        }
        PolicyEngine {
            keywords: AcDfa::build(&data.keywords),
            domains: DomainTrie::from_entries(data.blocked_domains.iter().map(|s| s.as_str())),
            subnets: CidrSet::from_blocks(data.blocked_subnets.iter().copied()),
            redirect_hosts: data.redirect_hosts.iter().cloned().collect(),
            custom_pages,
            custom_queries: data.custom_queries.iter().cloned().collect(),
            relays: relays.clone(),
            seed,
        }
    }

    /// Is `(host, path, query)` covered by a custom-category rule?
    pub fn in_custom_category(&self, host: &str, path: &str, query: &str) -> bool {
        self.custom_queries.contains(query)
            && self
                .custom_pages
                .get(host)
                .is_some_and(|paths| paths.contains(path))
    }

    /// Is the SG-44-style Tor rule active for `relay_addr` at `ts`, given a
    /// proxy whose cap is `cap_per_mille`?
    ///
    /// The window model reproduces Fig. 9's alternation: per (day, hour) the
    /// rule intensity is 0 ("all allowed"), mild, or aggressive, chosen by
    /// hash; within an active window each relay is independently blocked by
    /// a per-(relay, hour) hash under the intensity. The rule only engages
    /// from August 2 on (the paper sees no Tor censorship on the first day).
    pub fn tor_rule_active(
        &self,
        cap_per_mille: u32,
        relay_addr: std::net::Ipv4Addr,
        ts: Timestamp,
    ) -> bool {
        if cap_per_mille == 0 {
            return false;
        }
        // A cap of 1000‰ means wholesale blocking (the December-2012 regime
        // the paper's epilogue reports): no testing windows, no onset date.
        if cap_per_mille >= 1000 {
            return true;
        }
        let date = ts.date();
        // No Tor censorship before 2011-08-02.
        if (date.year(), date.month(), date.day()) < (2011, 8, 2) {
            return false;
        }
        let day = date.days_from_civil() as u64;
        let hour = ts.time().hour() as u64;
        const TOR_WINDOW: u64 = fnv1a(b"tor-window");
        const TOR_RELAY: u64 = fnv1a(b"tor-relay");
        let window = decision_hash(self.seed, TOR_WINDOW, fnv1a(&[day as u8, hour as u8]));
        let intensity = match per_mille(window) {
            // ~40% of hours: rule fully off → Rfilter = 0 episodes.
            0..=399 => 0,
            // ~35% of hours: mild.
            400..=749 => 300,
            // ~25% of hours: aggressive.
            _ => 950,
        };
        let intensity = intensity.min(cap_per_mille as u64);
        if intensity == 0 {
            return false;
        }
        let mut key = [0u8; 12];
        key[..4].copy_from_slice(&u32::from(relay_addr).to_le_bytes());
        key[4..].copy_from_slice(&(day * 24 + hour).to_le_bytes());
        per_mille(decision_hash(self.seed, TOR_RELAY, fnv1a(&key))) < intensity
    }

    /// Evaluate the static rule tiers for a bare URL — the witness-execution
    /// hook used by `filterscope-policylint`.
    ///
    /// The decision is a pure function of the URL and the five static rule
    /// families, independent of relay data, proxy and wall-clock state: it
    /// is [`PolicyEngine::decide_view`] with a fresh scratch buffer.
    pub fn decide_url(&self, url: &RequestUrl) -> Decision {
        self.decide_view(&url.as_view(), &mut String::new())
    }

    /// Evaluate the policy for `req` on a proxy configured as `cfg`.
    pub fn decide(&self, cfg: &ProxyConfig, req: &Request) -> Decision {
        let mut filter_buf = String::new();
        self.decide_with_buf(cfg, req, &mut filter_buf)
    }

    /// The static rule tiers (1–5) over a borrowed URL: custom category,
    /// redirect hosts, keywords, domain suffixes, destination subnets.
    /// `filter_buf` is caller-owned scratch for the keyword scan's
    /// host+path+query view, so a loop over many URLs allocates nothing.
    /// Every decision path runs these tiers through this one function.
    pub fn decide_view(&self, url: &UrlView<'_>, filter_buf: &mut String) -> Decision {
        // 1. Custom-category rules (narrow Facebook-page patterns).
        if self.in_custom_category(url.host, url.path, url.query) {
            return Decision::Redirect(Trigger::CustomCategory);
        }

        // 2. Redirect hosts (Table 7).
        if self.redirect_hosts.contains(url.host) {
            return Decision::Redirect(Trigger::RedirectHost);
        }

        // 3. Keyword scan over host+path+query.
        url.filter_view_into(filter_buf);
        if self.keywords.is_match(filter_buf.as_bytes()) {
            return Decision::Deny(Trigger::Keyword);
        }

        // 4. Domain suffix blacklist.
        if self.domains.matches(url.host) {
            return Decision::Deny(Trigger::Domain);
        }

        // 5. Destination-subnet blacklist (literal-IP hosts).
        if url.host_ip().is_some_and(|ip| self.subnets.contains(ip)) {
            return Decision::Deny(Trigger::IpSubnet);
        }

        Decision::Allow
    }

    /// [`PolicyEngine::decide`] with a caller-owned scratch buffer for the
    /// tier-3 keyword scan's host+path+query view. The batch paths reuse one
    /// buffer across a whole block of requests instead of allocating per
    /// request; results are identical.
    pub fn decide_with_buf(
        &self,
        cfg: &ProxyConfig,
        req: &Request,
        filter_buf: &mut String,
    ) -> Decision {
        let url = &req.url;
        let decision = self.decide_view(&url.as_view(), filter_buf);
        if decision.is_censored() {
            return decision;
        }

        // 6. Tor relay rule on literal-IP hosts. In the leak era only
        //    circuit traffic (Tor_onion) is censored, never directory
        //    signaling (§7.1: Tor_http is always allowed); the wholesale
        //    December-2012 regime (cap ≥ 1000) blocks every relay endpoint.
        let cap = cfg.tor_rule_per_mille_cap;
        let Some(relays) = self.relays.as_ref().filter(|_| cap > 0) else {
            return Decision::Allow;
        };
        match url.host_ip() {
            Some(ip)
                if (cap >= 1000 || !signaling::is_dir_path(&url.path))
                    && relays.contains(ip, url.port, req.timestamp.date())
                    && self.tor_rule_active(cap, ip, req.timestamp) =>
            {
                Decision::Deny(Trigger::TorRelay)
            }
            _ => Decision::Allow,
        }
    }

    /// The `cs-categories` value to log for `req` under `decision`.
    pub fn category_label(&self, cfg: &ProxyConfig, decision: Decision) -> &'static str {
        match decision {
            Decision::Redirect(Trigger::CustomCategory) => cfg.blocked_category,
            _ => cfg.default_category,
        }
    }

    /// Evaluate the policy and resolve the category label in one step — the
    /// classified outcome a [`crate::profile::CensorProfile`] turns into a
    /// log record. The policy (what is censored) is decided here, once;
    /// the mechanism (how denial looks on the wire) lives in the profile.
    /// `filter_buf` is the keyword scan's scratch (see
    /// [`PolicyEngine::decide_with_buf`]).
    pub fn verdict_with_buf(
        &self,
        cfg: &ProxyConfig,
        req: &Request,
        filter_buf: &mut String,
    ) -> Verdict {
        let decision = self.decide_with_buf(cfg, req, filter_buf);
        Verdict {
            decision,
            categories: self.category_label(cfg, decision),
        }
    }
}

/// A fully resolved policy outcome for one request on one proxy: the
/// decision plus the `cs-categories` label that proxy's config assigns it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    /// Allow / deny / redirect, with the trigger when censored.
    pub decision: Decision,
    /// The category string the appliance logs for this outcome.
    pub categories: &'static str,
}

#[cfg(test)]
mod tests {
    use super::*;
    use filterscope_core::ProxyId;
    use filterscope_logformat::RequestUrl;
    use filterscope_tor::{synthesize_consensus, SynthConsensusConfig};

    fn ts(d: &str, t: &str) -> Timestamp {
        Timestamp::parse_fields(d, t).unwrap()
    }

    fn engine() -> PolicyEngine {
        PolicyEngine::standard(None, 42)
    }

    fn cfg(id: ProxyId) -> ProxyConfig {
        ProxyConfig::standard(id)
    }

    fn get(url: RequestUrl) -> Request {
        Request::get(ts("2011-08-03", "09:00:00"), url)
    }

    #[test]
    fn keyword_proxy_denies_even_benign_urls() {
        let e = engine();
        let c = cfg(ProxyId::Sg42);
        // Google toolbar API — the paper's flagship collateral damage.
        let r = get(RequestUrl::http("google.com", "/tbproxy/af/query"));
        assert_eq!(e.decide(&c, &r), Decision::Deny(Trigger::Keyword));
        // Facebook social plugin with proxy in path.
        let r = get(RequestUrl::http(
            "www.facebook.com",
            "/fbml/fbjs_ajax_proxy.php",
        ));
        assert_eq!(e.decide(&c, &r), Decision::Deny(Trigger::Keyword));
        // Keyword in query.
        let r = get(RequestUrl::http("example.com", "/x").with_query("q=UltraSurf"));
        assert_eq!(e.decide(&c, &r), Decision::Deny(Trigger::Keyword));
    }

    #[test]
    fn domain_blacklist_denies_all_of_suffix() {
        let e = engine();
        let c = cfg(ProxyId::Sg42);
        for host in [
            "metacafe.com",
            "www.metacafe.com",
            "download.skype.com",
            "panet.co.il",
        ] {
            let r = get(RequestUrl::http(host, "/"));
            assert_eq!(e.decide(&c, &r), Decision::Deny(Trigger::Domain), "{host}");
        }
        let r = get(RequestUrl::http("google.com", "/"));
        assert_eq!(e.decide(&c, &r), Decision::Allow);
    }

    #[test]
    fn trailing_dot_domain_rule_fires_like_the_bare_rule() {
        let data = PolicyData {
            keywords: Vec::new(),
            blocked_domains: vec!["evil.example.".to_string()],
            blocked_subnets: Vec::new(),
            redirect_hosts: Vec::new(),
            custom_pages: Vec::new(),
            custom_queries: Vec::new(),
        };
        let e = PolicyEngine::from_data(&data, None, 42);
        for host in ["evil.example", "www.evil.example", "evil.example."] {
            assert_eq!(
                e.decide_url(&RequestUrl::http(host, "/")),
                Decision::Deny(Trigger::Domain),
                "{host}"
            );
        }
        assert_eq!(
            e.decide_url(&RequestUrl::http("example", "/")),
            Decision::Allow
        );
    }

    #[test]
    fn israeli_subnets_denied_by_ip() {
        let e = engine();
        let c = cfg(ProxyId::Sg42);
        let r = get(RequestUrl::http("84.229.13.7", "/"));
        assert_eq!(e.decide(&c, &r), Decision::Deny(Trigger::IpSubnet));
        let r = get(RequestUrl::http("8.8.8.8", "/"));
        assert_eq!(e.decide(&c, &r), Decision::Allow);
    }

    #[test]
    fn facebook_pages_redirect_only_on_narrow_queries() {
        let e = engine();
        let c = cfg(ProxyId::Sg43);
        let page =
            |q: &str| get(RequestUrl::http("www.facebook.com", "/Syrian.Revolution").with_query(q));
        assert_eq!(
            e.decide(&c, &page("ref=ts")),
            Decision::Redirect(Trigger::CustomCategory)
        );
        assert_eq!(
            e.decide(&c, &page("")),
            Decision::Redirect(Trigger::CustomCategory)
        );
        // Extended query escapes the rule (the paper's observation).
        assert_eq!(
            e.decide(
                &c,
                &page("ref=ts&__a=11&ajaxpipe=1&quickling[version]=414343%3B0")
            ),
            Decision::Allow
        );
        // Untargeted page is allowed.
        let other = get(RequestUrl::http("www.facebook.com", "/ShaamNewsNetwork"));
        assert_eq!(e.decide(&c, &other), Decision::Allow);
        // Case sensitivity: distinct casing is a distinct page.
        let lower = get(RequestUrl::http("www.facebook.com", "/Syrian.revolution"));
        assert_eq!(
            e.decide(&c, &lower),
            Decision::Redirect(Trigger::CustomCategory)
        );
    }

    #[test]
    fn category_labels_per_proxy() {
        let e = engine();
        let redirect = Decision::Redirect(Trigger::CustomCategory);
        assert_eq!(
            e.category_label(&cfg(ProxyId::Sg42), redirect),
            "Blocked sites; unavailable"
        );
        assert_eq!(
            e.category_label(&cfg(ProxyId::Sg48), redirect),
            "Blocked sites"
        );
        assert_eq!(
            e.category_label(&cfg(ProxyId::Sg42), Decision::Allow),
            "unavailable"
        );
        assert_eq!(
            e.category_label(&cfg(ProxyId::Sg48), Decision::Deny(Trigger::Keyword)),
            "none"
        );
    }

    #[test]
    fn decide_url_matches_full_decide_on_static_tiers() {
        let e = engine();
        let c = cfg(ProxyId::Sg42);
        for (host, path, query) in [
            ("google.com", "/tbproxy/af/query", ""),
            ("metacafe.com", "/", ""),
            ("84.229.13.7", "/", ""),
            ("upload.youtube.com", "/upload", ""),
            ("www.facebook.com", "/Syrian.Revolution", "ref=ts"),
            ("ok.example", "/", ""),
        ] {
            let url = RequestUrl::http(host, path).with_query(query);
            assert_eq!(
                e.decide_url(&url),
                e.decide(&c, &get(url.clone())),
                "{host}{path}?{query}"
            );
        }
    }

    #[test]
    fn verdict_bundles_decision_and_label() {
        let e = engine();
        let c = cfg(ProxyId::Sg48);
        let mut buf = String::new();
        let r =
            get(RequestUrl::http("www.facebook.com", "/Syrian.Revolution").with_query("ref=ts"));
        let v = e.verdict_with_buf(&c, &r, &mut buf);
        assert_eq!(v.decision, e.decide(&c, &r));
        assert_eq!(v.categories, e.category_label(&c, v.decision));
        assert_eq!(v.categories, "Blocked sites");
        let allowed = e.verdict_with_buf(&c, &get(RequestUrl::http("ok.example", "/")), &mut buf);
        assert_eq!(allowed.decision, Decision::Allow);
        assert_eq!(allowed.categories, "none");
    }

    #[test]
    fn redirect_hosts_redirect() {
        let e = engine();
        let c = cfg(ProxyId::Sg42);
        let r = get(RequestUrl::http("upload.youtube.com", "/upload"));
        assert_eq!(e.decide(&c, &r), Decision::Redirect(Trigger::RedirectHost));
    }

    #[test]
    fn tor_rule_fires_only_on_sg44_onion_traffic_after_aug1() {
        let consensus_cfg = SynthConsensusConfig::default();
        let docs: Vec<_> = (1..=6)
            .map(|d| {
                synthesize_consensus(
                    &consensus_cfg,
                    filterscope_core::Date::new(2011, 8, d).unwrap(),
                )
            })
            .collect();
        let relays = Arc::new(RelayIndex::from_consensuses(docs.iter()));
        let e = PolicyEngine::standard(Some(relays.clone()), 42);
        let sg44 = cfg(ProxyId::Sg44);
        let sg42 = cfg(ProxyId::Sg42);

        // Find a (relay, hour) pair the window model blocks on Aug 3.
        let mut blocked_pair = None;
        'outer: for relay in &docs[2].relays {
            for hour in 0..24u8 {
                let t = ts("2011-08-03", &format!("{hour:02}:10:00"));
                if e.tor_rule_active(sg44.tor_rule_per_mille_cap, relay.addr, t) {
                    blocked_pair = Some((relay.clone(), t));
                    break 'outer;
                }
            }
        }
        let (relay, when) = blocked_pair.expect("some relay blocked in some hour");
        let onion = Request::get(
            when,
            RequestUrl::http(relay.addr.to_string(), "/").with_port(relay.or_port),
        );
        assert_eq!(e.decide(&sg44, &onion), Decision::Deny(Trigger::TorRelay));
        // Same request on SG-42: allowed.
        assert_eq!(e.decide(&sg42, &onion), Decision::Allow);
        // Directory signaling on the same relay: always allowed.
        if relay.dir_port != 0 {
            let http = Request::get(
                when,
                RequestUrl::http(relay.addr.to_string(), "/tor/server/authority.z")
                    .with_port(relay.dir_port),
            );
            assert_eq!(e.decide(&sg44, &http), Decision::Allow);
        }
        // Before August 2 the rule is dormant even on SG-44.
        let early = Request::get(
            ts("2011-08-01", "12:00:00"),
            RequestUrl::http(relay.addr.to_string(), "/").with_port(relay.or_port),
        );
        assert_eq!(e.decide(&sg44, &early), Decision::Allow);
    }

    #[test]
    fn tor_windows_alternate() {
        // Over 5 days × 24 hours, the window model must produce both fully
        // open and blocking hours (Fig. 9's alternation).
        let e = engine();
        let addr = std::net::Ipv4Addr::new(100, 50, 20, 7);
        let mut active_hours = 0;
        let mut idle_hours = 0;
        for day in 2..=6u8 {
            for hour in 0..24u8 {
                let t = ts(&format!("2011-08-0{day}"), &format!("{hour:02}:00:00"));
                if e.tor_rule_active(900, addr, t) {
                    active_hours += 1;
                } else {
                    idle_hours += 1;
                }
            }
        }
        assert!(active_hours > 5, "active {active_hours}");
        assert!(idle_hours > 20, "idle {idle_hours}");
    }
}
