//! Pluggable censorship mechanisms ("censor profiles").
//!
//! The paper reconstructs one censor — Syria's Blue Coat proxy farm — but
//! related work documents structurally different mechanisms measured the
//! same way: Pakistan's DNS poisoning + blockpage injection and
//! Turkmenistan's RST-based bidirectional IP blocking. [`CensorProfile`]
//! carves the mechanism out of the decision path: the farm routes and the
//! [`crate::engine::PolicyEngine`] produces a [`Verdict`]; the profile
//! turns `(request, verdict)` into the 26-field ELFF record that mechanism
//! would leave behind. The *policy* (what is censored) is shared across
//! profiles; only the observable footprint (how denial looks on the wire)
//! varies — which is exactly what lets `MechanismInference` in
//! `filterscope-analysis` recover the mechanism from logs alone.
//!
//! Per-mechanism censored-record signatures:
//!
//! | profile | censored record looks like |
//! |---|---|
//! | `blue-coat` | `DENIED` 403/302, zero body, `NONE` hierarchy, plus `PROXIED` cache leaks |
//! | `dns-poison` | `DENIED`, status `-` (0), zero bytes both ways — the name never resolved |
//! | `tcp-rst` | `DENIED`, status `-` (0), partial `sc-bytes` from the torn connection |
//! | `blockpage` | `OBSERVED` 200/302 with the canonical blockpage body, policy exception intact |
//!
//! Every profile keeps the policy exception (`policy_denied` /
//! `policy_redirect`) on censored records, so the classification layer
//! (`RequestClass::of_parts`) still counts them as censored and all 20
//! analyses run unchanged over mechanism-diverse traffic.

use crate::cache::CacheModel;
use crate::engine::Verdict;
use crate::errors::{ErrorModel, ERROR_MIX};
use crate::hashing::{decision_hash, fnv1a};
use crate::request::Request;
use filterscope_core::ProxyId;
use filterscope_logformat::{ExceptionId, FilterResult, LogRecord, Method, SAction};
use std::borrow::Cow;

/// The mechanisms the simulator can run, in canonical order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProfileKind {
    /// Transparent filtering proxy (the paper's Blue Coat SG-9000 farm).
    BlueCoat,
    /// Resolver-level DNS poisoning: NXDOMAIN or a forged A record.
    DnsPoison,
    /// On-path RST injection tearing down the connection mid-transfer.
    TcpRst,
    /// On-path HTTP injection answering with a canonical blockpage.
    BlockpageInject,
}

impl ProfileKind {
    /// All profiles, in canonical order (the order `MechanismInference`
    /// reports votes in).
    pub const ALL: [ProfileKind; 4] = [
        ProfileKind::BlueCoat,
        ProfileKind::DnsPoison,
        ProfileKind::TcpRst,
        ProfileKind::BlockpageInject,
    ];

    /// Stable CLI/metrics name.
    pub fn name(self) -> &'static str {
        match self {
            ProfileKind::BlueCoat => "blue-coat",
            ProfileKind::DnsPoison => "dns-poison",
            ProfileKind::TcpRst => "tcp-rst",
            ProfileKind::BlockpageInject => "blockpage",
        }
    }

    /// Position in [`Self::ALL`] (vote-array index in the inference).
    pub fn index(self) -> usize {
        Self::ALL.iter().position(|k| *k == self).expect("in ALL")
    }

    /// Parse a mechanism name (the inverse of [`Self::name`]). Country
    /// presets (`pakistan`, `turkmenistan`, …) live in `filterscope-synth`.
    pub fn parse(name: &str) -> Option<ProfileKind> {
        ProfileKind::ALL.iter().copied().find(|k| k.name() == name)
    }

    /// Construct the implementation for this mechanism.
    pub fn build(self) -> Box<dyn CensorProfile> {
        match self {
            ProfileKind::BlueCoat => Box::new(BlueCoatProxy),
            ProfileKind::DnsPoison => Box::new(DnsPoison),
            ProfileKind::TcpRst => Box::new(TcpRst),
            ProfileKind::BlockpageInject => Box::new(BlockpageInject),
        }
    }
}

/// Everything a profile may consult when rendering one request: the request
/// itself, where it was routed, the resolved policy verdict, and the
/// deterministic cache/error overlays (which each mechanism applies — or
/// ignores — according to its own semantics).
pub struct ProfileContext<'a> {
    /// The classified request.
    pub req: &'a Request,
    /// `req`'s [`Request::identity_key`], computed once per request and
    /// shared by every hash-driven draw (cache, errors, time-taken, the
    /// profiles' own footprints).
    pub key: u64,
    /// The appliance / vantage the record is attributed to.
    pub proxy: ProxyId,
    /// The compiled policy's decision + category label for this request.
    pub verdict: Verdict,
    /// Cache overlay (only meaningful for proxy-shaped mechanisms).
    pub cache: &'a CacheModel,
    /// Network-error overlay; profiles draw kinds from their own mix.
    pub errors: &'a ErrorModel,
}

/// One censorship mechanism: a pure function from classified request +
/// policy verdict to the log record that mechanism would produce.
///
/// Implementations must be deterministic (same context, same record) and
/// stateless — farms are shared `Send + Sync` across pipeline shards.
pub trait CensorProfile: Send + Sync {
    /// Which mechanism this is.
    fn kind(&self) -> ProfileKind;

    /// Stable name, for CLI flags and metrics labels.
    fn name(&self) -> &'static str {
        self.kind().name()
    }

    /// The exception mix this mechanism's error overlay draws from
    /// (weights per 10 000 of error traffic; see
    /// [`ErrorModel::sample_from`]).
    fn error_mix(&self) -> &'static [(ExceptionId, u32)];

    /// Turn one decided request into the record the censor would log.
    fn render(&self, ctx: &ProfileContext<'_>) -> LogRecord;
}

/// The resolved outcome quintet every profile reduces a request to before
/// rendering; [`finish`] turns it into the proxy-shaped base record, which
/// non-proxy mechanisms then adjust field-by-field.
struct Outcome {
    filter_result: FilterResult,
    s_action: SAction,
    exception: ExceptionId,
    sc_status: u16,
    sc_bytes: u64,
}

/// Render the 26-field record for `outcome` — the Blue Coat record shape,
/// extracted verbatim from the pre-profile `ProxyFarm::process_on` so the
/// `blue-coat` profile stays byte-identical to the pre-refactor simulator.
fn finish(ctx: &ProfileContext<'_>, outcome: Outcome) -> LogRecord {
    let req = ctx.req;
    let Outcome {
        filter_result,
        s_action,
        exception,
        sc_status,
        sc_bytes,
    } = outcome;

    let served = filter_result != FilterResult::Denied;
    // A transparent proxy never sees inside a TLS tunnel: CONNECT
    // records carry only the endpoint — no path, query or extension
    // (this absence is exactly the paper's no-MITM evidence, §4).
    let url = if req.method == Method::Connect {
        filterscope_logformat::RequestUrl {
            scheme: req.url.scheme.clone(),
            host: req.url.host.clone(),
            port: req.url.port,
            path: "-".into(),
            query: String::new(),
        }
    } else {
        req.url.clone()
    };
    let uri_ext = url
        .extension()
        .filter(|e| *e != "-")
        .unwrap_or("")
        .to_string();
    let content_type = if !served || req.method == Method::Connect {
        ""
    } else {
        content_type_for(&uri_ext)
    };

    LogRecord {
        timestamp: req.timestamp,
        time_taken_ms: time_taken(ctx.key, filter_result),
        client: req.client,
        sc_status,
        s_action,
        sc_bytes,
        cs_bytes: 300 + (url.path.len() + url.query.len()) as u64,
        method: req.method.clone(),
        url,
        uri_ext,
        username: String::new(),
        hierarchy: Cow::Borrowed(if served { "DIRECT" } else { "NONE" }),
        // A host of literally "-" would collide with the absent-field
        // marker on disk; such a degenerate supplier is logged as absent.
        supplier: if served && req.url.host != "-" {
            req.url.host.clone()
        } else {
            String::new()
        },
        content_type: Cow::Borrowed(content_type),
        user_agent: req.user_agent.clone(),
        filter_result,
        categories: Cow::Borrowed(ctx.verdict.categories),
        virus_id: String::new(),
        s_ip: ctx.proxy.s_ip(),
        sitename: Cow::Borrowed("SG-HTTP-Service"),
        exception,
    }
}

/// The non-censored path shared by the on-path mechanisms (DNS, RST,
/// blockpage): no proxy cache exists at their vantage, so allowed traffic
/// is either struck by a mechanism-scoped network error or observed intact.
fn render_uncensored(profile: &dyn CensorProfile, ctx: &ProfileContext<'_>) -> LogRecord {
    let req = ctx.req;
    let outcome = if let Some(err) =
        ctx.errors
            .sample_from(ctx.key, req.timestamp, profile.error_mix())
    {
        let status = match err {
            ExceptionId::DnsUnresolvedHostname | ExceptionId::DnsServerFailure => 503,
            ExceptionId::InvalidRequest => 400,
            _ => 503,
        };
        Outcome {
            filter_result: FilterResult::Denied,
            s_action: SAction::TcpErrMiss,
            exception: err,
            sc_status: status,
            sc_bytes: 0,
        }
    } else {
        let action = if req.method == Method::Connect {
            SAction::TcpTunneled
        } else {
            SAction::TcpNcMiss
        };
        Outcome {
            filter_result: FilterResult::Observed,
            s_action: action,
            exception: ExceptionId::None,
            sc_status: 200,
            sc_bytes: req.response_bytes,
        }
    };
    finish(ctx, outcome)
}

/// Today's behaviour: the transparent Blue Coat proxy farm, with the cache
/// (`PROXIED`) overlay and the full Table 3 error mix. Byte-identical to
/// the pre-profile simulator by construction — the outcome resolution and
/// the record shape are the extracted `process_on` body, unchanged.
pub struct BlueCoatProxy;

impl CensorProfile for BlueCoatProxy {
    fn kind(&self) -> ProfileKind {
        ProfileKind::BlueCoat
    }

    fn error_mix(&self) -> &'static [(ExceptionId, u32)] {
        &ERROR_MIX
    }

    fn render(&self, ctx: &ProfileContext<'_>) -> LogRecord {
        let req = ctx.req;
        let decision = ctx.verdict.decision;
        let cache_hit = ctx.cache.is_cache_hit(ctx.key, req.timestamp);

        // Outcome resolution.
        let outcome = if decision.is_censored() {
            let exception = decision.exception();
            if cache_hit {
                // PROXIED rows for censored URLs sometimes lose the
                // exception — the inconsistency §3.3 observes.
                let exc = if ctx.cache.drops_exception(ctx.key) {
                    ExceptionId::None
                } else {
                    exception
                };
                Outcome {
                    filter_result: FilterResult::Proxied,
                    s_action: SAction::TcpHit,
                    exception: exc,
                    sc_status: 403,
                    sc_bytes: 0,
                }
            } else {
                Outcome {
                    filter_result: FilterResult::Denied,
                    s_action: if decision.is_redirect() {
                        SAction::TcpPolicyRedirect
                    } else {
                        SAction::TcpDenied
                    },
                    exception,
                    sc_status: if decision.is_redirect() { 302 } else { 403 },
                    sc_bytes: 0,
                }
            }
        } else if cache_hit {
            Outcome {
                filter_result: FilterResult::Proxied,
                s_action: SAction::TcpHit,
                exception: ExceptionId::None,
                sc_status: 200,
                sc_bytes: req.response_bytes,
            }
        } else if let Some(err) = ctx
            .errors
            .sample_from(ctx.key, req.timestamp, self.error_mix())
        {
            let status = match err {
                ExceptionId::DnsUnresolvedHostname | ExceptionId::DnsServerFailure => 503,
                ExceptionId::InvalidRequest => 400,
                _ => 503,
            };
            Outcome {
                filter_result: FilterResult::Denied,
                s_action: SAction::TcpErrMiss,
                exception: err,
                sc_status: status,
                sc_bytes: 0,
            }
        } else {
            let action = if req.method == Method::Connect {
                SAction::TcpTunneled
            } else {
                SAction::TcpNcMiss
            };
            Outcome {
                filter_result: FilterResult::Observed,
                s_action: action,
                exception: ExceptionId::None,
                sc_status: 200,
                sc_bytes: req.response_bytes,
            }
        };

        finish(ctx, outcome)
    }
}

/// The forged answer a poisoned resolver returns for the forged-A minority
/// (a TEST-NET-2 address, recognisably not the origin).
pub const FORGED_A_SUPPLIER: &str = "198.51.100.7";

/// DNS poisoning mix: the resolver vantage only ever observes resolution
/// failures (and the TCP errors of clients that bypassed it).
const DNS_ERROR_MIX: [(ExceptionId, u32); 3] = [
    (ExceptionId::DnsUnresolvedHostname, 6_000),
    (ExceptionId::DnsServerFailure, 2_500),
    (ExceptionId::TcpError, 1_500),
];

/// Resolver-level DNS poisoning (Pakistan's NCP-era mechanism): a censored
/// name never resolves, so no HTTP request crosses the wire at all — status
/// `-` (0), zero bytes in both directions, no supplier. A hash-chosen
/// minority gets a *forged A* answer instead of NXDOMAIN, logged with the
/// injector's address as supplier.
pub struct DnsPoison;

impl CensorProfile for DnsPoison {
    fn kind(&self) -> ProfileKind {
        ProfileKind::DnsPoison
    }

    fn error_mix(&self) -> &'static [(ExceptionId, u32)] {
        &DNS_ERROR_MIX
    }

    fn render(&self, ctx: &ProfileContext<'_>) -> LogRecord {
        let decision = ctx.verdict.decision;
        if !decision.is_censored() {
            return render_uncensored(self, ctx);
        }
        let mut rec = finish(
            ctx,
            Outcome {
                filter_result: FilterResult::Denied,
                s_action: SAction::TcpErrMiss,
                exception: decision.exception(),
                sc_status: 0,
                sc_bytes: 0,
            },
        );
        const DNS_POISON: u64 = fnv1a(b"dns-poison");
        let h = decision_hash(0x0044_4E53, DNS_POISON, ctx.key);
        // The name never resolved: the client sent no HTTP request, and the
        // only latency is the resolver round trip.
        rec.cs_bytes = 0;
        rec.time_taken_ms = 1 + (h % 10) as u32;
        // ~25 % of poisoned answers are forged A records rather than
        // NXDOMAIN: the client connects to the injector's address.
        if h.is_multiple_of(4) {
            rec.supplier = FORGED_A_SUPPLIER.to_string();
        }
        rec
    }
}

/// RST injection mix: the on-path injector's vantage is TCP; DNS failures
/// are the client's own resolver misbehaving.
const RST_ERROR_MIX: [(ExceptionId, u32); 3] = [
    (ExceptionId::TcpError, 9_000),
    (ExceptionId::DnsUnresolvedHostname, 700),
    (ExceptionId::DnsServerFailure, 300),
];

/// On-path RST injection (Turkmenistan-style bidirectional blocking): the
/// connection reaches the origin and is torn down mid-transfer — status `-`
/// (0) with a *partial* body, `DIRECT` hierarchy and the real supplier,
/// because bytes genuinely flowed before the forged reset landed.
pub struct TcpRst;

impl CensorProfile for TcpRst {
    fn kind(&self) -> ProfileKind {
        ProfileKind::TcpRst
    }

    fn error_mix(&self) -> &'static [(ExceptionId, u32)] {
        &RST_ERROR_MIX
    }

    fn render(&self, ctx: &ProfileContext<'_>) -> LogRecord {
        let req = ctx.req;
        let decision = ctx.verdict.decision;
        if !decision.is_censored() {
            return render_uncensored(self, ctx);
        }
        const TCP_RST: u64 = fnv1a(b"tcp-rst");
        let h = decision_hash(0x0052_5354, TCP_RST, ctx.key);
        let mut rec = finish(
            ctx,
            Outcome {
                filter_result: FilterResult::Denied,
                s_action: SAction::TcpErrMiss,
                exception: decision.exception(),
                sc_status: 0,
                // Up to one MSS of response leaked before the reset.
                sc_bytes: (40 + h % 1460).min(req.response_bytes.max(40)),
            },
        );
        // The flow went direct and the origin answered until the reset.
        rec.hierarchy = Cow::Borrowed("DIRECT");
        if req.url.host != "-" {
            rec.supplier = req.url.host.clone();
        }
        rec
    }
}

/// Injection mix: same vantage as RST injection.
const BLOCKPAGE_ERROR_MIX: [(ExceptionId, u32); 3] = [
    (ExceptionId::TcpError, 7_000),
    (ExceptionId::DnsUnresolvedHostname, 2_000),
    (ExceptionId::DnsServerFailure, 1_000),
];

/// Body size of the canonical injected blockpage.
pub const BLOCKPAGE_BYTES: u64 = 2_891;

/// Body size of the injected 302 redirect to the blockpage host.
pub const BLOCKPAGE_REDIRECT_BYTES: u64 = 563;

/// On-path blockpage injection (Pakistan's HTTP-level mechanism): the
/// censor races the origin with a complete 200 response carrying the
/// canonical blockpage, or a 302 to the blockpage host for redirect rules.
/// The transfer *succeeds* — `OBSERVED`, `DIRECT`, real supplier — but the
/// policy exception stays on the record, so classification still counts it
/// censored while the body size and status betray the mechanism.
pub struct BlockpageInject;

impl CensorProfile for BlockpageInject {
    fn kind(&self) -> ProfileKind {
        ProfileKind::BlockpageInject
    }

    fn error_mix(&self) -> &'static [(ExceptionId, u32)] {
        &BLOCKPAGE_ERROR_MIX
    }

    fn render(&self, ctx: &ProfileContext<'_>) -> LogRecord {
        let req = ctx.req;
        let decision = ctx.verdict.decision;
        if !decision.is_censored() {
            return render_uncensored(self, ctx);
        }
        let redirect = decision.is_redirect();
        let mut rec = finish(
            ctx,
            Outcome {
                filter_result: FilterResult::Observed,
                s_action: if redirect {
                    SAction::TcpPolicyRedirect
                } else {
                    SAction::TcpNcMiss
                },
                exception: decision.exception(),
                sc_status: if redirect { 302 } else { 200 },
                sc_bytes: if redirect {
                    BLOCKPAGE_REDIRECT_BYTES
                } else {
                    BLOCKPAGE_BYTES
                },
            },
        );
        // The injected answer is always an HTML page, whatever was asked
        // for — mismatched content type is part of the fingerprint.
        if req.method != Method::Connect {
            rec.content_type = Cow::Borrowed("text/html");
        }
        // Injected from on-path hardware near the client: faster than any
        // origin round trip.
        const BLOCKPAGE: u64 = fnv1a(b"blockpage");
        let h = decision_hash(0x0042_5047, BLOCKPAGE, ctx.key);
        rec.time_taken_ms = 1 + (h % 20) as u32;
        rec
    }
}

/// Plausible `time-taken` values: censored decisions are local and fast;
/// served requests include origin round trips.
fn time_taken(key: u64, fr: FilterResult) -> u32 {
    const TIME_TAKEN: u64 = fnv1a(b"time-taken");
    let h = decision_hash(0x71AE, TIME_TAKEN, key);
    match fr {
        FilterResult::Denied => 1 + (h % 30) as u32,
        FilterResult::Proxied => 1 + (h % 15) as u32,
        FilterResult::Observed => 40 + (h % 900) as u32,
    }
}

/// Content type from extension (only for served responses).
fn content_type_for(ext: &str) -> &'static str {
    match ext {
        "js" => "application/x-javascript",
        "css" => "text/css",
        "png" => "image/png",
        "jpg" | "jpeg" => "image/jpeg",
        "gif" => "image/gif",
        "flv" => "video/x-flv",
        "swf" => "application/x-shockwave-flash",
        "xml" => "text/xml",
        "json" => "application/json",
        "ico" => "image/x-icon",
        "" | "php" | "html" | "htm" | "asp" | "aspx" => "text/html",
        _ => "application/octet-stream",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FarmConfig;
    use crate::farm::ProxyFarm;
    use filterscope_core::Timestamp;
    use filterscope_logformat::{RequestClass, RequestUrl};

    fn farm(kind: ProfileKind) -> ProxyFarm {
        let config = FarmConfig {
            profile: kind,
            ..FarmConfig::default()
        };
        ProxyFarm::new(config, None)
    }

    fn ts(t: &str) -> Timestamp {
        Timestamp::parse_fields("2011-08-03", t).unwrap()
    }

    /// A censored GET that no profile's cache/error overlay disturbs: the
    /// blue-coat farm denies it outright (not PROXIED) under the default
    /// seed, so the same request pins all four mechanism shapes.
    fn censored_req() -> Request {
        Request::get(
            ts("09:00:00"),
            RequestUrl::http("www.metacafe.com", "/watch/4351").with_query("src=syria"),
        )
    }

    #[test]
    fn kind_names_roundtrip() {
        for kind in ProfileKind::ALL {
            assert_eq!(ProfileKind::parse(kind.name()), Some(kind));
            assert_eq!(kind.build().kind(), kind);
            assert_eq!(kind.build().name(), kind.name());
            assert_eq!(ProfileKind::ALL[kind.index()], kind);
        }
        assert_eq!(ProfileKind::parse("narnia"), None);
    }

    /// Golden exemplars: one pinned ELFF line per profile for the same
    /// censored request, so mechanism signatures cannot drift silently.
    /// (`sc-status` 0 serializes as `-`; the policy exception survives in
    /// every mechanism.)
    #[test]
    fn golden_censored_record_per_profile() {
        let req = censored_req();
        let golden = [
            (
                ProfileKind::BlueCoat,
                "2011-08-03,09:00:00,15,0.0.0.0,403,TCP_DENIED,0,320,GET,http,www.metacafe.com,80,/watch/4351,src=syria,-,-,NONE,-,-,Mozilla/5.0,DENIED,unavailable,-,82.137.200.42,SG-HTTP-Service,policy_denied",
            ),
            (
                ProfileKind::DnsPoison,
                "2011-08-03,09:00:00,4,0.0.0.0,-,TCP_ERR_MISS,0,0,GET,http,www.metacafe.com,80,/watch/4351,src=syria,-,-,NONE,-,-,Mozilla/5.0,DENIED,unavailable,-,82.137.200.42,SG-HTTP-Service,policy_denied",
            ),
            (
                ProfileKind::TcpRst,
                "2011-08-03,09:00:00,15,0.0.0.0,-,TCP_ERR_MISS,1254,320,GET,http,www.metacafe.com,80,/watch/4351,src=syria,-,-,DIRECT,www.metacafe.com,-,Mozilla/5.0,DENIED,unavailable,-,82.137.200.42,SG-HTTP-Service,policy_denied",
            ),
            (
                ProfileKind::BlockpageInject,
                "2011-08-03,09:00:00,16,0.0.0.0,200,TCP_NC_MISS,2891,320,GET,http,www.metacafe.com,80,/watch/4351,src=syria,-,-,DIRECT,www.metacafe.com,text/html,Mozilla/5.0,OBSERVED,unavailable,-,82.137.200.42,SG-HTTP-Service,policy_denied",
            ),
        ];
        for (kind, want) in golden {
            let rec = farm(kind).process_on(&req, filterscope_core::ProxyId::Sg42);
            assert_eq!(rec.write_csv(), want, "{} exemplar drifted", kind.name());
            // And the line round-trips through the parser.
            let back = filterscope_logformat::parse_line(want, 1).unwrap();
            assert_eq!(back, rec, "{} roundtrip", kind.name());
        }
    }

    #[test]
    fn every_profile_keeps_censored_classification() {
        let req = censored_req();
        for kind in ProfileKind::ALL {
            let rec = farm(kind).process_on(&req, filterscope_core::ProxyId::Sg42);
            assert_eq!(
                RequestClass::of(&rec),
                RequestClass::Censored,
                "{}",
                kind.name()
            );
        }
    }

    #[test]
    fn allowed_traffic_is_mechanism_invariant_in_volume() {
        // Swapping the censor must not change which requests are allowed
        // or error — only the censored records' shape (and the proxy-only
        // cache overlay).
        let farms: Vec<ProxyFarm> = ProfileKind::ALL.iter().map(|k| farm(*k)).collect();
        for i in 0..200 {
            let req = Request::get(
                ts("10:00:00"),
                RequestUrl::http(format!("ok{i}.example"), "/index.html"),
            );
            let base = farms[0].process(&req);
            if base.filter_result == FilterResult::Proxied {
                continue; // cache overlay is proxy-only by design
            }
            for (kind, f) in ProfileKind::ALL.iter().zip(&farms).skip(1) {
                let rec = f.process(&req);
                assert_eq!(
                    RequestClass::of(&base).is_denied(),
                    RequestClass::of(&rec).is_denied(),
                    "{} diverged on allowed/error split for ok{i}.example",
                    kind.name()
                );
            }
        }
    }

    #[test]
    fn dns_poison_never_emits_proxy_only_exceptions() {
        let f = farm(ProfileKind::DnsPoison);
        let mut errors = 0;
        for i in 0..20_000 {
            let req = Request::get(
                ts("10:00:00"),
                RequestUrl::http(format!("host{i}.example"), "/"),
            );
            let rec = f.process(&req);
            if RequestClass::of(&rec) == RequestClass::Error {
                errors += 1;
                assert!(
                    matches!(
                        rec.exception,
                        ExceptionId::DnsUnresolvedHostname
                            | ExceptionId::DnsServerFailure
                            | ExceptionId::TcpError
                    ),
                    "proxy-only exception {:?} from the DNS profile",
                    rec.exception
                );
            }
        }
        assert!(errors > 100, "error overlay active ({errors})");
    }

    #[test]
    fn forged_a_minority_carries_injector_supplier() {
        let f = farm(ProfileKind::DnsPoison);
        let mut forged = 0u32;
        let mut nx = 0u32;
        for i in 0..2_000 {
            let req = Request::get(
                ts("09:00:00"),
                RequestUrl::http("metacafe.com", format!("/watch/{i}")),
            );
            let rec = f.process(&req);
            if !rec.exception.is_policy() {
                continue;
            }
            assert_eq!(rec.sc_status, 0);
            assert_eq!(rec.sc_bytes, 0);
            assert_eq!(rec.cs_bytes, 0);
            match rec.supplier.as_str() {
                FORGED_A_SUPPLIER => forged += 1,
                "" => nx += 1,
                other => panic!("unexpected supplier {other}"),
            }
        }
        assert!(forged > 300, "forged-A share too small: {forged}");
        assert!(nx > 1_000, "NXDOMAIN share too small: {nx}");
    }

    #[test]
    fn tcp_rst_leaks_partial_bytes() {
        let f = farm(ProfileKind::TcpRst);
        for i in 0..500 {
            let req = Request::get(
                ts("09:00:00"),
                RequestUrl::http("metacafe.com", format!("/watch/{i}")),
            );
            let rec = f.process(&req);
            if rec.exception.is_policy() {
                assert_eq!(rec.sc_status, 0);
                assert!(
                    (1..=1500).contains(&rec.sc_bytes),
                    "partial bytes {}",
                    rec.sc_bytes
                );
                assert_eq!(rec.hierarchy, "DIRECT");
            }
        }
    }

    #[test]
    fn blockpage_redirect_rules_inject_302() {
        let f = farm(ProfileKind::BlockpageInject);
        let req = Request::get(
            ts("10:00:00"),
            RequestUrl::http("upload.youtube.com", "/up"),
        );
        let rec = f.process(&req);
        assert_eq!(rec.exception, ExceptionId::PolicyRedirect);
        assert_eq!(rec.sc_status, 302);
        assert_eq!(rec.sc_bytes, BLOCKPAGE_REDIRECT_BYTES);
        assert_eq!(rec.filter_result, FilterResult::Observed);
        assert_eq!(RequestClass::of(&rec), RequestClass::Censored);
    }
}
