//! Borrowed, zero-allocation record views.
//!
//! [`RecordView`] is the hot-path twin of [`LogRecord`]: every free-text
//! field is a `&str` slice over the line buffer the shard reader already
//! holds (or the splitter's scratch buffer for escape-carrying quoted
//! fields), and the numeric/enum fields are parsed to the same `Copy`
//! types the owned record uses. Parsing a view allocates nothing on the
//! happy path, which is what lets the analysis pass stream the paper's
//! 751 M-record corpus without the allocator dominating the profile.
//!
//! The owned [`LogRecord`] remains the construction / synthesis /
//! round-trip type; [`LogRecord::as_view`] bridges owned records into any
//! view-consuming API for free, and [`RecordView::to_record`] materializes
//! a view when ownership is genuinely needed. The owned parsers delegate
//! to the view parser, so the two can never drift apart.

use crate::enums::{ClientId, ExceptionId, FilterResult, Method, SAction, Scheme};
use crate::fields::{idx, EMPTY};
use crate::record::LogRecord;
use crate::url::{self, RequestUrl};
use filterscope_core::{Error, ProxyId, Result, Timestamp};
use std::borrow::Cow;
use std::net::Ipv4Addr;

/// Borrowed twin of [`RequestUrl`]: the URL components of one request as
/// slices over the source line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UrlView<'a> {
    /// `cs-uri-scheme` as logged (`http`, `ssl`, …).
    pub scheme: &'a str,
    /// `cs-host`: hostname or literal IPv4.
    pub host: &'a str,
    /// `cs-uri-port`.
    pub port: u16,
    /// `cs-uri-path`.
    pub path: &'a str,
    /// `cs-uri-query` without the leading `?`; empty when the log held `-`.
    pub query: &'a str,
}

impl<'a> UrlView<'a> {
    /// The literal IPv4 address if `cs-host` is one.
    pub fn host_ip(&self) -> Option<Ipv4Addr> {
        self.host.parse().ok()
    }

    /// Is the host a literal IPv4 address?
    pub fn host_is_ip(&self) -> bool {
        self.host_ip().is_some()
    }

    /// The string the SG-9000 keyword filter scans (`host + path + ?query`),
    /// built into a recycled caller buffer. Clears `out` first.
    pub fn filter_view_into(&self, out: &mut String) {
        url::filter_view_into(self.host, self.path, self.query, out);
    }

    /// Allocating convenience form of [`UrlView::filter_view_into`].
    pub fn filter_view(&self) -> String {
        let mut s = String::new();
        self.filter_view_into(&mut s);
        s
    }

    /// File extension of the path, matching [`RequestUrl::extension`].
    pub fn extension(&self) -> Option<&'a str> {
        let last = self.path.rsplit('/').next()?;
        let dot = last.rfind('.')?;
        if dot == 0 || dot + 1 == last.len() {
            return None;
        }
        Some(&last[dot + 1..])
    }

    /// Registrable-domain heuristic (see [`url::base_domain_of`]).
    pub fn base_domain(&self) -> Cow<'a, str> {
        url::base_domain_of(self.host)
    }

    /// Is the path/query empty (a "non-ambiguous" bare-domain request)?
    pub fn is_bare(&self) -> bool {
        (self.path.is_empty() || self.path == "/") && self.query.is_empty()
    }

    /// Materialize an owned [`RequestUrl`].
    pub fn to_url(&self) -> RequestUrl {
        RequestUrl {
            scheme: self.scheme.to_string(),
            host: self.host.to_string(),
            port: self.port,
            path: self.path.to_string(),
            query: self.query.to_string(),
        }
    }
}

/// Borrowed twin of [`LogRecord`]: one access-log record with zero-copy
/// free-text fields.
///
/// String-valued enum fields (`s-action`, `cs-method`, `x-exception-id`)
/// are kept as the raw logged spelling — parsing them into the catalogued
/// enums allocates for long-tail values, so that cost is deferred to the
/// few consumers that need typed values ([`RecordView::exception_id`],
/// [`RecordView::to_record`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordView<'a> {
    /// `date` + `time`.
    pub timestamp: Timestamp,
    /// `time-taken` in milliseconds.
    pub time_taken_ms: u32,
    /// `c-ip` (zeroed / hashed / literal).
    pub client: ClientId,
    /// `sc-status` (0 when the log held `-`).
    pub sc_status: u16,
    /// `s-action`, raw spelling (`TCP_DENIED`, …).
    pub s_action: &'a str,
    /// `sc-bytes`.
    pub sc_bytes: u64,
    /// `cs-bytes`.
    pub cs_bytes: u64,
    /// `cs-method`, raw spelling (`GET`, `CONNECT`, …).
    pub method: &'a str,
    /// The URL components.
    pub url: UrlView<'a>,
    /// `cs-uri-ext` (empty when the log held `-`).
    pub uri_ext: &'a str,
    /// `cs-username` (empty when `-`).
    pub username: &'a str,
    /// `s-hierarchy`.
    pub hierarchy: &'a str,
    /// `s-supplier-name` (empty when `-`).
    pub supplier: &'a str,
    /// `rs-content-type` (empty when `-`).
    pub content_type: &'a str,
    /// `cs-user-agent` (empty when `-`).
    pub user_agent: &'a str,
    /// `sc-filter-result`.
    pub filter_result: FilterResult,
    /// `cs-categories` as logged.
    pub categories: &'a str,
    /// `x-virus-id` (empty when `-`).
    pub virus_id: &'a str,
    /// `s-ip`: the proxy that handled the request.
    pub s_ip: Ipv4Addr,
    /// `s-sitename`.
    pub sitename: &'a str,
    /// `x-exception-id`, raw spelling (`-` when none).
    pub exception: &'a str,
}

impl<'a> RecordView<'a> {
    /// The proxy that handled the request, when `s-ip` belongs to the known
    /// SG-42…48 deployment.
    pub fn proxy(&self) -> Option<ProxyId> {
        ProxyId::from_s_ip(self.s_ip).ok()
    }

    /// Shorthand for `self.url.host`.
    pub fn host(&self) -> &'a str {
        self.url.host
    }

    /// The scheme as a typed enum (allocates only for uncatalogued schemes).
    pub fn scheme(&self) -> Scheme {
        Scheme::parse(self.url.scheme)
    }

    /// Did the request raise no exception (`x-exception-id = '-'`)?
    pub fn exception_is_none(&self) -> bool {
        self.exception == EMPTY
    }

    /// Is the exception one of the two censorship exceptions?
    pub fn exception_is_policy(&self) -> bool {
        matches!(self.exception, "policy_denied" | "policy_redirect")
    }

    /// The exception as a typed [`ExceptionId`] (allocates only for
    /// long-tail values outside the catalogue).
    pub fn exception_id(&self) -> ExceptionId {
        ExceptionId::parse(self.exception)
    }

    /// Materialize an owned [`LogRecord`]. This is the single place the
    /// owned parsers get their field conversions from, so view parsing and
    /// owned parsing cannot disagree.
    pub fn to_record(&self) -> LogRecord {
        LogRecord {
            timestamp: self.timestamp,
            time_taken_ms: self.time_taken_ms,
            client: self.client,
            sc_status: self.sc_status,
            s_action: SAction::parse(self.s_action),
            sc_bytes: self.sc_bytes,
            cs_bytes: self.cs_bytes,
            method: Method::parse(self.method),
            url: self.url.to_url(),
            uri_ext: self.uri_ext.to_string(),
            username: self.username.to_string(),
            hierarchy: self.hierarchy.to_string(),
            supplier: self.supplier.to_string(),
            content_type: self.content_type.to_string(),
            user_agent: self.user_agent.to_string(),
            filter_result: self.filter_result,
            categories: self.categories.to_string(),
            virus_id: self.virus_id.to_string(),
            s_ip: self.s_ip,
            sitename: self.sitename.to_string(),
            exception: ExceptionId::parse(self.exception),
        }
    }
}

/// The `-` → empty mapping applied to optional free-text fields.
fn opt(s: &str) -> &str {
    if s == EMPTY {
        ""
    } else {
        s
    }
}

/// Build a [`RecordView`] from a lookup over *canonical* field indexes (see
/// [`crate::fields::idx`]). `None` means the source schema lacks that
/// field; optional fields default, required fields error. The owned
/// [`crate::record::build_record`] delegates here.
pub(crate) fn build_view<'a>(
    f: &dyn Fn(usize) -> Option<&'a str>,
    line_no: u64,
) -> Result<RecordView<'a>> {
    let mal = |reason: String| Error::MalformedRecord {
        line: line_no,
        reason,
    };
    let required = |i: usize| {
        f(i).ok_or_else(|| {
            mal(format!(
                "missing required field {}",
                crate::fields::FIELDS[i]
            ))
        })
    };
    let optional = |i: usize| f(i).unwrap_or(EMPTY);

    let timestamp = Timestamp::parse_fields(required(idx::DATE)?, required(idx::TIME)?)
        .map_err(|e| mal(e.to_string()))?;
    let time_taken_field = optional(idx::TIME_TAKEN);
    let time_taken_ms: u32 = if time_taken_field == EMPTY {
        0
    } else {
        time_taken_field
            .parse()
            .map_err(|_| mal(format!("bad time-taken {time_taken_field:?}")))?
    };
    let client = ClientId::parse(optional(idx::C_IP)).map_err(|e| mal(e.to_string()))?;
    let status_field = optional(idx::SC_STATUS);
    let sc_status: u16 = if status_field == EMPTY {
        0
    } else {
        status_field
            .parse()
            .map_err(|_| mal(format!("bad sc-status {status_field:?}")))?
    };
    let port_field = optional(idx::CS_URI_PORT);
    let port: u16 = if port_field == EMPTY {
        0
    } else {
        port_field
            .parse()
            .map_err(|_| mal(format!("bad cs-uri-port {port_field:?}")))?
    };
    let sc_bytes: u64 = optional(idx::SC_BYTES).parse().unwrap_or(0);
    let cs_bytes: u64 = optional(idx::CS_BYTES).parse().unwrap_or(0);
    let filter_result =
        FilterResult::parse(required(idx::SC_FILTER_RESULT)?).map_err(|e| mal(e.to_string()))?;
    let s_ip: Ipv4Addr = required(idx::S_IP)?
        .parse()
        .map_err(|_| mal(format!("bad s-ip {:?}", optional(idx::S_IP))))?;

    Ok(RecordView {
        timestamp,
        time_taken_ms,
        client,
        sc_status,
        s_action: optional(idx::S_ACTION),
        sc_bytes,
        cs_bytes,
        method: optional(idx::CS_METHOD),
        url: UrlView {
            scheme: f(idx::CS_URI_SCHEME).unwrap_or("http"),
            host: required(idx::CS_HOST)?,
            port,
            path: f(idx::CS_URI_PATH).unwrap_or("/"),
            query: opt(optional(idx::CS_URI_QUERY)),
        },
        uri_ext: opt(optional(idx::CS_URI_EXT)),
        username: opt(optional(idx::CS_USERNAME)),
        hierarchy: f(idx::S_HIERARCHY).unwrap_or("DIRECT"),
        supplier: opt(optional(idx::S_SUPPLIER_NAME)),
        content_type: opt(optional(idx::RS_CONTENT_TYPE)),
        user_agent: opt(optional(idx::CS_USER_AGENT)),
        filter_result,
        categories: f(idx::CS_CATEGORIES).unwrap_or("unavailable"),
        virus_id: opt(optional(idx::X_VIRUS_ID)),
        s_ip,
        sitename: f(idx::S_SITENAME).unwrap_or("SG-HTTP-Service"),
        exception: optional(idx::X_EXCEPTION_ID),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csv::LineSplitter;
    use crate::record::{parse_line, RecordBuilder};
    use crate::schema::Schema;
    use filterscope_core::ProxyId;

    fn ts() -> Timestamp {
        Timestamp::parse_fields("2011-08-03", "08:15:00").unwrap()
    }

    fn sample() -> LogRecord {
        RecordBuilder::new(
            ts(),
            ProxyId::Sg44,
            RequestUrl::http("www.facebook.com", "/plugins/like.php").with_query("href=x&sdk=joey"),
        )
        .user_agent("Mozilla/4.0 (compatible, MSIE 7.0, Windows NT 5.1)")
        .derive_ext()
        .build()
    }

    #[test]
    fn view_parse_agrees_with_owned_parse() {
        let rec = sample();
        let line = rec.write_csv();
        let owned = parse_line(&line, 1).unwrap();
        let mut splitter = LineSplitter::new();
        let view = Schema::canonical()
            .parse_view(&mut splitter, &line, 1)
            .unwrap();
        assert_eq!(view.to_record(), owned);
        assert_eq!(view, owned.as_view());
    }

    #[test]
    fn as_view_mirrors_every_field() {
        let rec = sample();
        let v = rec.as_view();
        assert_eq!(v.timestamp, rec.timestamp);
        assert_eq!(v.client, rec.client);
        assert_eq!(v.url.host, rec.url.host);
        assert_eq!(v.url.query, rec.url.query);
        assert_eq!(v.uri_ext, rec.uri_ext);
        assert_eq!(v.user_agent, rec.user_agent);
        assert_eq!(v.filter_result, rec.filter_result);
        assert_eq!(v.exception, rec.exception.as_str());
        assert_eq!(v.s_action, rec.s_action.as_str());
        assert_eq!(v.method, rec.method.as_str());
        assert_eq!(v.proxy(), rec.proxy());
        assert_eq!(v.to_record(), rec);
    }

    #[test]
    fn exception_helpers() {
        let denied = RecordBuilder::new(ts(), ProxyId::Sg42, RequestUrl::http("x.com", "/"))
            .policy_denied()
            .build();
        let v = denied.as_view();
        assert!(!v.exception_is_none());
        assert!(v.exception_is_policy());
        assert_eq!(v.exception_id(), ExceptionId::PolicyDenied);

        let ok = RecordBuilder::new(ts(), ProxyId::Sg42, RequestUrl::http("x.com", "/")).build();
        let v = ok.as_view();
        assert!(v.exception_is_none());
        assert!(!v.exception_is_policy());
        assert_eq!(v.exception_id(), ExceptionId::None);
    }

    #[test]
    fn url_view_helpers_match_owned() {
        let url = RequestUrl::http("WWW.Metacafe.com", "/watch/video.flv").with_query("hd=1");
        let rec = RecordBuilder::new(ts(), ProxyId::Sg48, url.clone()).build();
        let v = rec.as_view();
        assert_eq!(v.url.extension(), url.extension());
        assert_eq!(v.url.base_domain(), url.base_domain());
        assert_eq!(v.url.filter_view(), url.filter_view());
        assert_eq!(v.url.is_bare(), url.is_bare());
        assert_eq!(v.url.host_ip(), url.host_ip());
        assert_eq!(v.scheme(), Scheme::Http);
        let mut buf = String::new();
        v.url.filter_view_into(&mut buf);
        assert_eq!(buf, url.filter_view());
    }

    #[test]
    fn view_rejects_what_owned_rejects() {
        let mut splitter = LineSplitter::new();
        assert!(Schema::canonical()
            .parse_view(&mut splitter, "a,b,c", 7)
            .is_err());
        let good = sample().write_csv();
        let bad_date = good.replacen("2011-08-03", "2011-13-03", 1);
        assert!(Schema::canonical()
            .parse_view(&mut splitter, &bad_date, 1)
            .is_err());
    }

    #[test]
    fn quoted_fields_come_from_scratch_without_loss() {
        let rec = RecordBuilder::new(ts(), ProxyId::Sg42, RequestUrl::http("x.com", "/"))
            .user_agent(r#"quote " inside, and commas"#)
            .build();
        let line = rec.write_csv();
        let mut splitter = LineSplitter::new();
        let view = Schema::canonical()
            .parse_view(&mut splitter, &line, 1)
            .unwrap();
        assert_eq!(view.user_agent, r#"quote " inside, and commas"#);
        assert_eq!(view.to_record(), rec);
    }
}
