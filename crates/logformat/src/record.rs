//! The typed log record and its CSV (de)serialization.

use crate::csv::{self, LineSplitter};
use crate::enums::{ClientId, ExceptionId, FilterResult, Method, SAction, Scheme};
use crate::fields::EMPTY;
use crate::schema::Schema;
use crate::url::RequestUrl;
use crate::view::RecordView;
use filterscope_core::{ProxyId, Result, Timestamp};
use std::borrow::Cow;
use std::net::Ipv4Addr;

/// One access-log record, fully typed.
///
/// Free-text fields keep their logged spelling so a parsed record can be
/// re-serialized without loss. The four fields a simulated appliance fills
/// from a small fixed vocabulary (`s-hierarchy`, `rs-content-type`,
/// `cs-categories`, `s-sitename`) are `Cow<'static, str>`: the farm
/// borrows its constant spellings, a parsed record owns what it read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogRecord {
    /// `date` + `time`.
    pub timestamp: Timestamp,
    /// `time-taken` in milliseconds.
    pub time_taken_ms: u32,
    /// `c-ip` (zeroed / hashed / literal).
    pub client: ClientId,
    /// `sc-status` (0 when the log held `-`).
    pub sc_status: u16,
    /// `s-action`.
    pub s_action: SAction,
    /// `sc-bytes`.
    pub sc_bytes: u64,
    /// `cs-bytes`.
    pub cs_bytes: u64,
    /// `cs-method`.
    pub method: Method,
    /// `cs-uri-scheme`, `cs-host`, `cs-uri-port`, `cs-uri-path`,
    /// `cs-uri-query` bundled as a [`RequestUrl`].
    pub url: RequestUrl,
    /// `cs-uri-ext` (empty when the log held `-`).
    pub uri_ext: String,
    /// `cs-username` (empty when `-`; always empty in this deployment).
    pub username: String,
    /// `s-hierarchy` (e.g. `DIRECT`).
    pub hierarchy: Cow<'static, str>,
    /// `s-supplier-name` (upstream host, or empty).
    pub supplier: String,
    /// `rs-content-type` (empty when `-`).
    pub content_type: Cow<'static, str>,
    /// `cs-user-agent` (empty when `-`).
    pub user_agent: String,
    /// `sc-filter-result`.
    pub filter_result: FilterResult,
    /// `cs-categories` as logged (`unavailable`, `none`,
    /// `Blocked sites; unavailable`, `Blocked sites`).
    pub categories: Cow<'static, str>,
    /// `x-virus-id` (empty when `-`).
    pub virus_id: String,
    /// `s-ip`: the proxy that handled the request.
    pub s_ip: Ipv4Addr,
    /// `s-sitename`.
    pub sitename: Cow<'static, str>,
    /// `x-exception-id`.
    pub exception: ExceptionId,
}

fn write_opt(s: &str) -> &str {
    if s.is_empty() {
        EMPTY
    } else {
        s
    }
}

impl LogRecord {
    /// The proxy that handled the request, when `s-ip` belongs to the known
    /// SG-42…48 deployment.
    pub fn proxy(&self) -> Option<ProxyId> {
        ProxyId::from_s_ip(self.s_ip).ok()
    }

    /// Shorthand for `self.url.host`.
    pub fn host(&self) -> &str {
        &self.url.host
    }

    /// Serialize to one CSV line (no trailing newline). Inverse of
    /// [`parse_line`].
    pub fn write_csv(&self) -> String {
        let mut out = String::new();
        self.write_csv_into(&mut out);
        out
    }

    /// [`LogRecord::write_csv`] into a caller-owned buffer, so a write loop
    /// reuses one allocation per line instead of rebuilding every field as a
    /// `String`. Clears `out` first. Output is byte-identical to
    /// [`LogRecord::write_csv`].
    pub fn write_csv_into(&self, out: &mut String) {
        out.clear();
        // Fields whose rendered form can never require RFC-4180 quoting
        // (dates, numbers, addresses, catalogued enum spellings without
        // commas) are written through the allocation-free digit writers in
        // [`csv`] — `core::fmt` setup costs dominate at corpus scale — and
        // free-text fields go through `csv::write_field` exactly as
        // `join_line` would.
        let date = self.timestamp.date();
        csv::write_uint_padded(out, u64::from(date.year()), 4);
        out.push('-');
        csv::write_uint_padded(out, u64::from(date.month()), 2);
        out.push('-');
        csv::write_uint_padded(out, u64::from(date.day()), 2);
        out.push(',');
        let time = self.timestamp.time();
        csv::write_uint_padded(out, u64::from(time.hour()), 2);
        out.push(':');
        csv::write_uint_padded(out, u64::from(time.minute()), 2);
        out.push(':');
        csv::write_uint_padded(out, u64::from(time.second()), 2);
        out.push(',');
        csv::write_uint(out, u64::from(self.time_taken_ms));
        out.push(',');
        out.push_str(self.client.logged(&mut [0; 16]));
        out.push(',');
        if self.sc_status == 0 {
            out.push_str(EMPTY);
        } else {
            csv::write_uint(out, u64::from(self.sc_status));
        }
        out.push(',');
        csv::write_field(out, self.s_action.as_str());
        out.push(',');
        csv::write_uint(out, self.sc_bytes);
        out.push(',');
        csv::write_uint(out, self.cs_bytes);
        out.push(',');
        csv::write_field(out, self.method.as_str());
        out.push(',');
        csv::write_field(out, &self.url.scheme);
        out.push(',');
        csv::write_field(out, &self.url.host);
        out.push(',');
        csv::write_uint(out, u64::from(self.url.port));
        out.push(',');
        csv::write_field(out, &self.url.path);
        out.push(',');
        csv::write_field(out, write_opt(&self.url.query));
        out.push(',');
        csv::write_field(out, write_opt(&self.uri_ext));
        out.push(',');
        csv::write_field(out, write_opt(&self.username));
        out.push(',');
        csv::write_field(out, &self.hierarchy);
        out.push(',');
        csv::write_field(out, write_opt(&self.supplier));
        out.push(',');
        csv::write_field(out, write_opt(&self.content_type));
        out.push(',');
        csv::write_field(out, write_opt(&self.user_agent));
        out.push(',');
        out.push_str(self.filter_result.as_str());
        out.push(',');
        csv::write_field(out, &self.categories);
        out.push(',');
        csv::write_field(out, write_opt(&self.virus_id));
        out.push(',');
        csv::write_ipv4(out, self.s_ip);
        out.push(',');
        csv::write_field(out, &self.sitename);
        out.push(',');
        csv::write_field(out, self.exception.as_str());
    }

    /// The scheme as a typed enum.
    pub fn scheme(&self) -> Scheme {
        Scheme::parse(&self.url.scheme)
    }

    /// Borrow this record as a [`RecordView`], bridging owned records into
    /// the view-consuming analysis path for free (no allocation; enum
    /// spellings come from their static `as_str` forms).
    pub fn as_view(&self) -> RecordView<'_> {
        RecordView {
            timestamp: self.timestamp,
            time_taken_ms: self.time_taken_ms,
            client: self.client,
            sc_status: self.sc_status,
            s_action: self.s_action.as_str(),
            sc_bytes: self.sc_bytes,
            cs_bytes: self.cs_bytes,
            method: self.method.as_str(),
            url: self.url.as_view(),
            uri_ext: &self.uri_ext,
            username: &self.username,
            hierarchy: &self.hierarchy,
            supplier: &self.supplier,
            content_type: &self.content_type,
            user_agent: &self.user_agent,
            filter_result: self.filter_result,
            categories: &self.categories,
            virus_id: &self.virus_id,
            s_ip: self.s_ip,
            sitename: &self.sitename,
            exception: self.exception.as_str(),
        }
    }
}

/// Parse one CSV line into a [`LogRecord`] (canonical field order).
///
/// `line_no` is used only for error reporting. Comment lines (starting with
/// `#`), blanks and line terminators are the caller's responsibility — byte
/// input goes through [`crate::BlockParser`]. For logs whose `#Fields:`
/// header declares a different field order, see [`crate::schema::Schema`].
pub fn parse_line(line: &str, line_no: u64) -> Result<LogRecord> {
    let mut splitter = LineSplitter::new();
    Ok(Schema::canonical()
        .parse_view(&mut splitter, line, line_no)?
        .to_record())
}

/// A builder with sensible defaults for synthesizing records in tests and in
/// the proxy simulator.
#[derive(Debug, Clone)]
pub struct RecordBuilder {
    record: LogRecord,
}

impl RecordBuilder {
    /// Start from an allowed HTTP GET at `timestamp` through `proxy`.
    pub fn new(timestamp: Timestamp, proxy: ProxyId, url: RequestUrl) -> Self {
        RecordBuilder {
            record: LogRecord {
                timestamp,
                time_taken_ms: 120,
                client: ClientId::Zeroed,
                sc_status: 200,
                s_action: SAction::TcpNcMiss,
                sc_bytes: 4096,
                cs_bytes: 512,
                method: Method::Get,
                url,
                uri_ext: String::new(),
                username: String::new(),
                hierarchy: "DIRECT".into(),
                supplier: String::new(),
                content_type: "text/html".into(),
                user_agent: "Mozilla/5.0".into(),
                filter_result: FilterResult::Observed,
                categories: "unavailable".into(),
                virus_id: String::new(),
                s_ip: proxy.s_ip(),
                sitename: "SG-HTTP-Service".into(),
                exception: ExceptionId::None,
            },
        }
    }

    /// Set the client identifier.
    pub fn client(mut self, client: ClientId) -> Self {
        self.record.client = client;
        self
    }

    /// Set the user agent.
    pub fn user_agent(mut self, ua: impl Into<String>) -> Self {
        self.record.user_agent = ua.into();
        self
    }

    /// Set the method.
    pub fn method(mut self, m: Method) -> Self {
        self.record.method = m;
        self
    }

    /// Mark the record as censored with `policy_denied`.
    pub fn policy_denied(mut self) -> Self {
        self.record.filter_result = FilterResult::Denied;
        self.record.exception = ExceptionId::PolicyDenied;
        self.record.s_action = SAction::TcpDenied;
        self.record.sc_status = 403;
        self.record.sc_bytes = 0;
        self
    }

    /// Mark the record as censored with `policy_redirect`.
    pub fn policy_redirect(mut self) -> Self {
        self.record.filter_result = FilterResult::Denied;
        self.record.exception = ExceptionId::PolicyRedirect;
        self.record.s_action = SAction::TcpPolicyRedirect;
        self.record.sc_status = 302;
        self
    }

    /// Mark the record as denied with a network error.
    pub fn network_error(mut self, e: ExceptionId) -> Self {
        debug_assert!(e.is_error());
        self.record.filter_result = FilterResult::Denied;
        self.record.exception = e;
        self.record.s_action = SAction::TcpErrMiss;
        self.record.sc_status = 503;
        self.record.sc_bytes = 0;
        self
    }

    /// Mark the record as served from cache.
    pub fn proxied(mut self) -> Self {
        self.record.filter_result = FilterResult::Proxied;
        self.record.s_action = SAction::TcpHit;
        self
    }

    /// Set the `cs-categories` field.
    pub fn categories(mut self, c: impl Into<String>) -> Self {
        self.record.categories = Cow::Owned(c.into());
        self
    }

    /// Set the exception directly (for rare combinations).
    pub fn exception(mut self, e: ExceptionId) -> Self {
        self.record.exception = e;
        self
    }

    /// Derive `cs-uri-ext` from the path, as the appliance does. A derived
    /// extension of literally `"-"` is stored as empty: on disk it would be
    /// indistinguishable from the absent-field marker anyway.
    pub fn derive_ext(mut self) -> Self {
        self.record.uri_ext = match self.record.url.extension() {
            Some(e) if e != "-" => e.to_string(),
            _ => String::new(),
        };
        self
    }

    /// Finish building.
    pub fn build(self) -> LogRecord {
        self.record
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use filterscope_core::{Error, ProxyId};

    fn ts() -> Timestamp {
        Timestamp::parse_fields("2011-08-03", "08:15:00").unwrap()
    }

    fn sample() -> LogRecord {
        RecordBuilder::new(
            ts(),
            ProxyId::Sg44,
            RequestUrl::http("www.facebook.com", "/plugins/like.php").with_query("href=x&sdk=joey"),
        )
        .user_agent("Mozilla/4.0 (compatible; MSIE 7.0; Windows NT 5.1)")
        .derive_ext()
        .build()
    }

    #[test]
    fn csv_roundtrip() {
        let r = sample();
        let line = r.write_csv();
        let back = parse_line(&line, 1).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn censored_roundtrip() {
        let r = RecordBuilder::new(ts(), ProxyId::Sg48, RequestUrl::http("metacafe.com", "/"))
            .policy_denied()
            .build();
        let back = parse_line(&r.write_csv(), 1).unwrap();
        assert_eq!(back.exception, ExceptionId::PolicyDenied);
        assert_eq!(back.filter_result, FilterResult::Denied);
        assert_eq!(back.proxy(), Some(ProxyId::Sg48));
    }

    #[test]
    fn field_count_on_disk() {
        let line = sample().write_csv();
        let fields = crate::csv::split_line(&line).unwrap();
        assert_eq!(fields.len(), crate::fields::FIELD_COUNT);
    }

    #[test]
    fn write_csv_into_matches_write_csv_and_reuses_buffer() {
        let mut buf = String::from("stale contents");
        for r in [
            sample(),
            RecordBuilder::new(ts(), ProxyId::Sg42, RequestUrl::http("x.com", "/"))
                .policy_denied()
                .build(),
            RecordBuilder::new(ts(), ProxyId::Sg43, RequestUrl::http("y.com", "/a"))
                .user_agent("Mozilla/4.0 (compatible, MSIE 7.0, Windows NT 5.1)")
                .categories("Blocked sites; unavailable")
                .build(),
        ] {
            r.write_csv_into(&mut buf);
            assert_eq!(buf, r.write_csv());
        }
    }

    #[test]
    fn quoted_user_agent_roundtrips() {
        let r = RecordBuilder::new(ts(), ProxyId::Sg42, RequestUrl::http("x.com", "/"))
            .user_agent("Mozilla/4.0 (compatible, MSIE 7.0, Windows NT 5.1)")
            .build();
        let back = parse_line(&r.write_csv(), 1).unwrap();
        assert_eq!(back.user_agent, r.user_agent);
    }

    #[test]
    fn blocked_sites_category_roundtrips() {
        let r = RecordBuilder::new(
            ts(),
            ProxyId::Sg43,
            RequestUrl::http("www.facebook.com", "/Syrian.Revolution").with_query("ref=ts"),
        )
        .categories("Blocked sites; unavailable")
        .policy_redirect()
        .build();
        let back = parse_line(&r.write_csv(), 1).unwrap();
        assert_eq!(back.categories, "Blocked sites; unavailable");
        assert_eq!(back.exception, ExceptionId::PolicyRedirect);
    }

    #[test]
    fn rejects_wrong_field_count() {
        let err = parse_line("a,b,c", 42).unwrap_err();
        match err {
            Error::MalformedRecord { line, .. } => assert_eq!(line, 42),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_timestamp_and_ips() {
        let good = sample().write_csv();
        let bad_date = good.replacen("2011-08-03", "2011-13-03", 1);
        assert!(parse_line(&bad_date, 1).is_err());
        let bad_sip = good.replace("82.137.200.44", "not-an-ip");
        assert!(parse_line(&bad_sip, 1).is_err());
    }

    #[test]
    fn empty_markers_parse_to_empty_strings() {
        let r = RecordBuilder::new(ts(), ProxyId::Sg42, RequestUrl::http("x.com", "/")).build();
        let line = r.write_csv();
        // query, ext, username, supplier, virus-id are `-` on disk
        assert!(line.contains(",-,"));
        let back = parse_line(&line, 1).unwrap();
        assert!(back.url.query.is_empty());
        assert!(back.username.is_empty());
    }

    #[test]
    fn hashed_client_roundtrips() {
        let r = RecordBuilder::new(ts(), ProxyId::Sg42, RequestUrl::http("x.com", "/"))
            .client(ClientId::Hashed(0xdead_beef_0123_4567))
            .build();
        let back = parse_line(&r.write_csv(), 1).unwrap();
        assert_eq!(back.client.hash(), Some(0xdead_beef_0123_4567));
    }
}
