//! §4 "HTTPS traffic": volume, censorship breakdown, and the MITM check.
//!
//! The paper finds HTTPS is ~0.08 % of traffic with only 0.82 % of it
//! censored; 82 % of the censored HTTPS has a literal IP destination
//! (Israeli space / anonymizer hosting) and the rest a hostname (possible
//! because CONNECT exposes it, e.g. skype.com). It also checks for
//! interception: had the proxies man-in-the-middled TLS, decrypted request
//! fields (`cs-uri-path`, `cs-uri-query`, `cs-uri-ext`) would appear in SSL
//! records — they do not.

use crate::report::Table;
use filterscope_logformat::{RecordView, RequestClass};

/// §4 HTTPS accumulator.
#[derive(Debug, Clone, Copy, Default)]
pub struct HttpsStats {
    /// All records (for the HTTPS share).
    pub total_requests: u64,
    pub https_requests: u64,
    pub https_censored: u64,
    /// Censored HTTPS with a literal-IP destination.
    pub censored_ip_host: u64,
    /// SSL records carrying a decrypted-looking path or query — evidence of
    /// TLS interception (the paper found none).
    pub mitm_evidence: u64,
}

impl HttpsStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    fn add(&mut self, record: &RecordView<'_>, class: RequestClass) {
        self.total_requests += 1;
        if !record.scheme().is_encrypted() {
            return;
        }
        self.https_requests += 1;
        // A transparent (non-intercepting) proxy can only see the tunnel
        // endpoint: any inner path/query/extension in an SSL record would
        // mean the TLS was broken open.
        let trivial_path =
            record.url.path.is_empty() || record.url.path == "/" || record.url.path == "-";
        if !trivial_path || !record.url.query.is_empty() || !record.uri_ext.is_empty() {
            self.mitm_evidence += 1;
        }
        if class == RequestClass::Censored {
            self.https_censored += 1;
            if record.url.host_is_ip() {
                self.censored_ip_host += 1;
            }
        }
    }

    /// HTTPS share of all traffic (paper: 0.08 %).
    pub fn https_share(&self) -> f64 {
        if self.total_requests == 0 {
            return 0.0;
        }
        self.https_requests as f64 / self.total_requests as f64
    }

    /// Censored share of HTTPS (paper: 0.82 %).
    pub fn censored_share(&self) -> f64 {
        if self.https_requests == 0 {
            return 0.0;
        }
        self.https_censored as f64 / self.https_requests as f64
    }

    /// IP-destination share of censored HTTPS (paper: 82 %).
    pub fn ip_share_of_censored(&self) -> f64 {
        if self.https_censored == 0 {
            return 0.0;
        }
        self.censored_ip_host as f64 / self.https_censored as f64
    }

    /// Render the §4 HTTPS summary.
    pub fn render(&self) -> String {
        let mut t = Table::new("§4 HTTPS traffic", &["Metric", "Value"]);
        t.row([
            "HTTPS requests".to_string(),
            self.https_requests.to_string(),
        ]);
        t.row([
            "HTTPS share of traffic".to_string(),
            format!("{:.3}%", self.https_share() * 100.0),
        ]);
        t.row([
            "Censored HTTPS".to_string(),
            format!(
                "{} ({:.2}% of HTTPS)",
                self.https_censored,
                self.censored_share() * 100.0
            ),
        ]);
        t.row([
            "IP-destination share of censored".to_string(),
            format!("{:.0}%", self.ip_share_of_censored() * 100.0),
        ]);
        t.row([
            "MITM evidence (decrypted fields in SSL records)".to_string(),
            self.mitm_evidence.to_string(),
        ]);
        t.render()
    }
}

impl crate::registry::Analysis for HttpsStats {
    fn ingest_block(
        &mut self,
        _ctx: &crate::AnalysisContext,
        block: &[RecordView<'_>],
        derived: &crate::Derived<'_>,
    ) {
        for (i, record) in block.iter().enumerate() {
            self.add(record, derived.class(i));
        }
    }

    fn merge(&mut self, other: Box<dyn crate::registry::Analysis>) {
        let other: HttpsStats = crate::registry::downcast(other);
        self.total_requests += other.total_requests;
        self.https_requests += other.https_requests;
        self.https_censored += other.https_censored;
        self.censored_ip_host += other.censored_ip_host;
        self.mitm_evidence += other.mitm_evidence;
    }

    fn headline(&self) -> u64 {
        self.https_censored
    }

    fn render(&self, _ctx: &crate::AnalysisContext) -> String {
        HttpsStats::render(self)
    }

    fn export_json(&self, _ctx: &crate::AnalysisContext) -> Option<filterscope_core::Json> {
        use filterscope_core::Json;
        let mut obj = Json::object();
        obj.push("https_share", Json::Float(self.https_share()));
        obj.push("https_censored_share", Json::Float(self.censored_share()));
        obj.push("mitm_evidence", Json::UInt(self.mitm_evidence));
        Some(obj)
    }

    fn save_state(&self, w: &mut filterscope_core::ByteWriter) {
        w.put_u64(self.total_requests);
        w.put_u64(self.https_requests);
        w.put_u64(self.https_censored);
        w.put_u64(self.censored_ip_host);
        w.put_u64(self.mitm_evidence);
    }

    fn load_state(
        &mut self,
        r: &mut filterscope_core::ByteReader<'_>,
    ) -> filterscope_core::Result<()> {
        self.total_requests += r.get_u64()?;
        self.https_requests += r.get_u64()?;
        self.https_censored += r.get_u64()?;
        self.censored_ip_host += r.get_u64()?;
        self.mitm_evidence += r.get_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{feed, Analysis};
    use filterscope_core::{ProxyId, Timestamp};
    use filterscope_logformat::record::RecordBuilder;
    use filterscope_logformat::{LogRecord, Method, RequestUrl};

    fn connect(host: &str, censored: bool) -> LogRecord {
        let url = RequestUrl {
            scheme: "ssl".into(),
            host: host.into(),
            port: 443,
            path: "-".into(),
            query: String::new(),
        };
        let b = RecordBuilder::new(
            Timestamp::parse_fields("2011-08-02", "09:00:00").unwrap(),
            ProxyId::Sg42,
            url,
        )
        .method(Method::Connect);
        if censored {
            b.policy_denied().build()
        } else {
            b.build()
        }
    }

    fn http(host: &str) -> LogRecord {
        RecordBuilder::new(
            Timestamp::parse_fields("2011-08-02", "09:00:00").unwrap(),
            ProxyId::Sg42,
            RequestUrl::http(host, "/page"),
        )
        .build()
    }

    #[test]
    fn shares_and_breakdown() {
        let mut s = HttpsStats::new();
        for _ in 0..96 {
            feed(&mut s, &[http("plain.example")]);
        }
        feed(
            &mut s,
            &[
                connect("mail.example", false),
                connect("84.229.1.1", true),
                connect("ssl.skype.com", true),
                connect("46.120.0.9", true),
            ],
        );
        assert_eq!(s.https_requests, 4);
        assert!((s.https_share() - 0.04).abs() < 1e-9);
        assert!((s.censored_share() - 0.75).abs() < 1e-9);
        assert!((s.ip_share_of_censored() - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(s.mitm_evidence, 0);
    }

    #[test]
    fn decrypted_fields_flag_mitm() {
        let mut s = HttpsStats::new();
        let mut rec = connect("bank.example", false);
        rec.url.path = "/account/transfer".into();
        feed(&mut s, &[rec]);
        assert_eq!(s.mitm_evidence, 1);
        // Query alone also counts.
        let mut rec = connect("bank.example", false);
        rec.url.query = "session=abc".into();
        feed(&mut s, &[rec]);
        assert_eq!(s.mitm_evidence, 2);
    }

    #[test]
    fn plain_http_is_not_https() {
        let mut s = HttpsStats::new();
        feed(&mut s, &[http("x.com")]);
        assert_eq!(s.https_requests, 0);
        assert_eq!(s.total_requests, 1);
    }

    #[test]
    fn merge_and_render() {
        let mut a = HttpsStats::new();
        feed(&mut a, &[connect("h.example", false)]);
        let mut b = HttpsStats::new();
        feed(&mut b, &[connect("84.229.1.1", true)]);
        a.merge(Box::new(b));
        assert_eq!(a.https_requests, 2);
        assert!(a.render().contains("MITM"));
    }
}
