//! The seven-proxy farm: routing, filtering, logging.
//!
//! Routing reproduces the paper's observations in §5.1–§5.2: overall load is
//! near-uniform across the proxies, but *domain-based redirection*
//! concentrates specific censored domains on specific appliances —
//! `metacafe.com` ≳95 % on SG-48, Instant-Messaging domains biased toward
//! SG-48/SG-45 — which is what produces the similarity structure of Table 6
//! and SG-48's censored-traffic spikes in Fig. 7.

use crate::cache::CacheModel;
use crate::config::FarmConfig;
use crate::engine::PolicyEngine;
use crate::errors::ErrorModel;
use crate::hashing::{decision_hash, fnv1a, per_mille};
use crate::profile::{CensorProfile, ProfileContext};
use crate::request::Request;
use filterscope_core::ProxyId;
use filterscope_logformat::url::base_domain_of;
use filterscope_logformat::LogRecord;
use filterscope_tor::RelayIndex;
use std::sync::Arc;

/// The deployment: compiled policy + per-proxy configs + overlays + the
/// censorship mechanism ([`CensorProfile`]) that turns verdicts into
/// records.
pub struct ProxyFarm {
    config: FarmConfig,
    engine: PolicyEngine,
    errors: ErrorModel,
    cache: CacheModel,
    profile: Box<dyn CensorProfile>,
    /// Which proxies are accepting traffic (the July window has only SG-42).
    active: Vec<ProxyId>,
}

// The parallel pipelines share one farm per day kind across shards behind
// an `Arc`; `process` takes `&self`, and this pins down that no interior
// mutability may creep in and silently break that sharing.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ProxyFarm>()
};

impl ProxyFarm {
    /// Build the standard farm. `relays` enables Tor-aware rules.
    pub fn new(config: FarmConfig, relays: Option<Arc<RelayIndex>>) -> Self {
        let engine = PolicyEngine::standard(relays, config.seed);
        let errors = ErrorModel::new(config.seed, config.error_per_cent_mille);
        let cache = CacheModel::new(config.seed, config.proxied_per_cent_mille);
        let profile = config.profile.build();
        ProxyFarm {
            config,
            engine,
            errors,
            cache,
            profile,
            active: ProxyId::ALL.to_vec(),
        }
    }

    /// Standard farm with default config and no Tor awareness.
    pub fn standard() -> Self {
        Self::new(FarmConfig::default(), None)
    }

    /// A farm running an arbitrary policy (ablated, recovered, or parsed
    /// from CPL) instead of the standard rule set.
    pub fn with_policy(
        config: FarmConfig,
        policy: &crate::policy_data::PolicyData,
        relays: Option<Arc<RelayIndex>>,
    ) -> Self {
        let engine = PolicyEngine::from_data(policy, relays, config.seed);
        let errors = ErrorModel::new(config.seed, config.error_per_cent_mille);
        let cache = CacheModel::new(config.seed, config.proxied_per_cent_mille);
        let profile = config.profile.build();
        ProxyFarm {
            config,
            engine,
            errors,
            cache,
            profile,
            active: ProxyId::ALL.to_vec(),
        }
    }

    /// Restrict which proxies accept traffic (e.g. only SG-42 in July).
    pub fn set_active(&mut self, proxies: &[ProxyId]) {
        assert!(!proxies.is_empty(), "at least one active proxy required");
        self.active = proxies.to_vec();
    }

    /// Builder-style [`Self::set_active`], for wrapping a configured farm
    /// straight into an `Arc` shared across pipeline shards.
    pub fn with_active(mut self, proxies: &[ProxyId]) -> Self {
        self.set_active(proxies);
        self
    }

    /// The currently active proxies.
    pub fn active(&self) -> &[ProxyId] {
        &self.active
    }

    /// Shared access to the compiled policy (for analyses and tests).
    pub fn engine(&self) -> &PolicyEngine {
        &self.engine
    }

    /// The censorship mechanism this farm runs.
    pub fn profile(&self) -> &dyn CensorProfile {
        self.profile.as_ref()
    }

    /// Route a request to a proxy: uniform hash placement with the
    /// domain-based specialization overrides of
    /// [`ROUTE_BIASES`](crate::config::ROUTE_BIASES) (shared with the
    /// static skew report in `filterscope-policylint`).
    pub fn route(&self, req: &Request) -> ProxyId {
        self.route_by_key(req, req.identity_key())
    }

    /// [`ProxyFarm::route`] for a request whose
    /// [`Request::identity_key`] is already computed.
    fn route_by_key(&self, req: &Request, key: u64) -> ProxyId {
        const ROUTE: u64 = fnv1a(b"route");
        const ROUTE_SPECIAL: u64 = fnv1a(b"route-special");
        let seed = self.config.seed;
        if self.active.len() == ProxyId::COUNT {
            let pm = per_mille(decision_hash(seed, ROUTE_SPECIAL, key));
            let base = base_domain_of(&req.url.host);
            let is_ip = req.url.host_is_ip();
            for bias in crate::config::ROUTE_BIASES {
                if !bias.selects(&base, is_ip) {
                    continue;
                }
                if let Some(proxy) = bias.target(pm) {
                    return proxy;
                }
            }
        }
        let h = decision_hash(seed, ROUTE, key);
        self.active[(h % self.active.len() as u64) as usize]
    }

    /// Process a request end to end: route, decide, apply cache/error
    /// overlays, and produce the log record the appliance would write.
    pub fn process(&self, req: &Request) -> LogRecord {
        let proxy = self.route(req);
        self.process_on(req, proxy)
    }

    /// Process on a specific proxy (bypasses routing): resolve the policy
    /// verdict, then let the configured [`CensorProfile`] shape the record
    /// — the mechanism owns status/action/byte-count semantics, the farm
    /// owns routing and policy.
    pub fn process_on(&self, req: &Request, proxy: ProxyId) -> LogRecord {
        let mut filter_buf = String::new();
        self.process_on_with_buf(req, proxy, req.identity_key(), &mut filter_buf)
    }

    /// Process a whole batch of requests, appending the produced records to
    /// `out` in request order. One scratch buffer serves every policy
    /// evaluation in the batch (the scalar path allocates it per request);
    /// output is element-for-element identical to [`ProxyFarm::process`].
    pub fn process_batch(&self, reqs: &[Request], out: &mut Vec<LogRecord>) {
        out.reserve(reqs.len());
        let mut filter_buf = String::new();
        for req in reqs {
            let key = req.identity_key();
            let proxy = self.route_by_key(req, key);
            out.push(self.process_on_with_buf(req, proxy, key, &mut filter_buf));
        }
    }

    /// [`ProxyFarm::process_on`] for a request whose
    /// [`Request::identity_key`] is `key`, against a caller-owned scratch
    /// buffer (see [`PolicyEngine::decide_with_buf`]).
    fn process_on_with_buf(
        &self,
        req: &Request,
        proxy: ProxyId,
        key: u64,
        filter_buf: &mut String,
    ) -> LogRecord {
        let cfg = &self.config.proxies[proxy.index()];
        let verdict = self.engine.verdict_with_buf(cfg, req, filter_buf);
        self.profile.render(&ProfileContext {
            req,
            key,
            proxy,
            verdict,
            cache: &self.cache,
            errors: &self.errors,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use filterscope_core::Timestamp;
    use filterscope_logformat::{
        ExceptionId, FilterResult, Method, RequestClass, RequestUrl, SAction,
    };

    fn ts(t: &str) -> Timestamp {
        Timestamp::parse_fields("2011-08-03", t).unwrap()
    }

    #[test]
    fn process_batch_is_identical_to_the_scalar_path() {
        let farm = ProxyFarm::standard();
        let reqs: Vec<Request> = [
            "example.com",
            "metacafe.com",      // blocked domain
            "proxy-bypass.test", // keyword in host
            "facebook.com",      // custom-category host
            "all4syria.info",    // redirect host
            "1.2.3.4",           // literal-IP host
            "plain.example",
        ]
        .iter()
        .enumerate()
        .map(|(i, host)| {
            Request::get(
                ts(&format!("09:00:{:02}", i)),
                RequestUrl::http(*host, "/some/path"),
            )
        })
        .collect();
        let want: Vec<LogRecord> = reqs.iter().map(|r| farm.process(r)).collect();
        let mut got = Vec::new();
        farm.process_batch(&reqs, &mut got);
        assert_eq!(got, want);
        // Appends without clearing, preserving caller-owned contents.
        let mut appended = vec![want[0].clone()];
        farm.process_batch(&reqs[..2], &mut appended);
        assert_eq!(appended.len(), 3);
        assert_eq!(appended[1..], want[..2]);
    }

    #[test]
    fn censored_request_produces_denied_record() {
        let farm = ProxyFarm::standard();
        let req = Request::get(
            ts("09:00:00"),
            RequestUrl::http("metacafe.com", "/watch/123"),
        );
        let rec = farm.process_on(&req, ProxyId::Sg48);
        // Either censored-denied or censored-proxied (cache overlay).
        assert!(rec.exception.is_policy() || rec.filter_result == FilterResult::Proxied);
        if rec.filter_result == FilterResult::Denied {
            assert_eq!(RequestClass::of(&rec), RequestClass::Censored);
            assert_eq!(rec.sc_status, 403);
            assert_eq!(rec.sc_bytes, 0);
            assert_eq!(rec.categories, "none"); // SG-48 names it `none`
        }
    }

    #[test]
    fn allowed_request_produces_observed_record() {
        let farm = ProxyFarm::standard();
        // Pick a URL that neither errors nor caches under the default seed.
        let mut found = false;
        for i in 0..50 {
            let req = Request::get(
                ts("09:00:00"),
                RequestUrl::http(format!("ok{i}.example"), "/index.html"),
            );
            let rec = farm.process_on(&req, ProxyId::Sg42);
            if rec.filter_result == FilterResult::Observed {
                assert_eq!(RequestClass::of(&rec), RequestClass::Allowed);
                assert_eq!(rec.sc_status, 200);
                assert!(rec.sc_bytes > 0);
                assert_eq!(rec.supplier, rec.url.host);
                assert_eq!(rec.categories, "unavailable");
                assert_eq!(rec.uri_ext, "html");
                found = true;
                break;
            }
        }
        assert!(found, "no plain-allowed record in 50 URLs");
    }

    #[test]
    fn redirect_logs_policy_redirect_action() {
        let farm = ProxyFarm::standard();
        let req = Request::get(
            ts("10:00:00"),
            RequestUrl::http("upload.youtube.com", "/up"),
        );
        let rec = farm.process_on(&req, ProxyId::Sg42);
        if rec.filter_result == FilterResult::Denied {
            assert_eq!(rec.exception, ExceptionId::PolicyRedirect);
            assert_eq!(rec.s_action, SAction::TcpPolicyRedirect);
            assert_eq!(rec.sc_status, 302);
        }
    }

    #[test]
    fn facebook_page_gets_blocked_sites_category() {
        let farm = ProxyFarm::standard();
        let req = Request::get(
            ts("10:00:00"),
            RequestUrl::http("www.facebook.com", "/Syrian.Revolution").with_query("ref=ts"),
        );
        let rec = farm.process_on(&req, ProxyId::Sg42);
        assert_eq!(rec.categories, "Blocked sites; unavailable");
        let rec48 = farm.process_on(&req, ProxyId::Sg48);
        assert_eq!(rec48.categories, "Blocked sites");
    }

    #[test]
    fn metacafe_routes_to_sg48() {
        let farm = ProxyFarm::standard();
        let mut sg48 = 0;
        let n = 1000;
        for i in 0..n {
            let req = Request::get(
                ts("09:00:00"),
                RequestUrl::http("www.metacafe.com", format!("/watch/{i}")),
            );
            if farm.route(&req) == ProxyId::Sg48 {
                sg48 += 1;
            }
        }
        assert!(sg48 > 930, "metacafe on SG-48: {sg48}/{n}");
    }

    #[test]
    fn generic_traffic_spreads_across_proxies() {
        let farm = ProxyFarm::standard();
        let mut counts = [0u32; 7];
        let n = 7000;
        for i in 0..n {
            let req = Request::get(
                ts("09:00:00"),
                RequestUrl::http(format!("site{i}.example"), "/"),
            );
            counts[farm.route(&req).index()] += 1;
        }
        for (i, c) in counts.iter().enumerate() {
            assert!((600..1500).contains(c), "proxy {i} got {c} of {n} requests");
        }
    }

    #[test]
    fn restricted_active_set_routes_only_there() {
        let mut farm = ProxyFarm::standard();
        farm.set_active(&[ProxyId::Sg42]);
        for i in 0..100 {
            let req = Request::get(
                ts("09:00:00"),
                RequestUrl::http(format!("s{i}.example"), "/"),
            );
            assert_eq!(farm.route(&req), ProxyId::Sg42);
        }
    }

    #[test]
    fn processing_is_deterministic() {
        let farm = ProxyFarm::standard();
        let req = Request::get(
            ts("09:00:00"),
            RequestUrl::http("facebook.com", "/plugins/like.php"),
        );
        assert_eq!(farm.process(&req), farm.process(&req));
    }

    #[test]
    fn connect_tunnel_records_ssl_scheme() {
        let farm = ProxyFarm::standard();
        let req = Request::connect(ts("11:00:00"), "mail.example.org");
        let rec = farm.process_on(&req, ProxyId::Sg42);
        assert_eq!(rec.url.scheme, "ssl");
        assert_eq!(rec.method, Method::Connect);
        if rec.filter_result == FilterResult::Observed {
            assert_eq!(rec.s_action, SAction::TcpTunneled);
        }
    }

    #[test]
    fn israeli_connect_by_ip_is_censored() {
        let farm = ProxyFarm::standard();
        let req = Request::connect(ts("11:00:00"), "84.229.10.10");
        let rec = farm.process_on(&req, ProxyId::Sg47);
        assert!(
            rec.exception.is_policy() || rec.filter_result == FilterResult::Proxied,
            "{rec:?}"
        );
    }
}
