//! The request-URL view of a log record.
//!
//! The string filter operates on `cs-host`, `cs-uri-path` and `cs-uri-query`
//! (§5.4) — [`RequestUrl`] bundles those with scheme and port, provides the
//! joined form the keyword scanner runs over, and classifies the host as
//! domain vs. literal IPv4 (the pivot of the Table 11/12 analysis).

use crate::view::UrlView;
use std::borrow::Cow;
use std::fmt;
use std::net::Ipv4Addr;

/// The URL components of a request, as logged.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RequestUrl {
    /// `cs-uri-scheme` as logged (`http`, `ssl`, …).
    pub scheme: String,
    /// `cs-host`: hostname or literal IPv4.
    pub host: String,
    /// `cs-uri-port`.
    pub port: u16,
    /// `cs-uri-path` (`/` for the root; `-` never appears here — the proxy
    /// always logs at least `/` for HTTP).
    pub path: String,
    /// `cs-uri-query` *without* the leading `?`; empty when the log held `-`.
    pub query: String,
}

impl RequestUrl {
    /// Construct an HTTP URL on the default port.
    pub fn http(host: impl Into<String>, path: impl Into<String>) -> Self {
        RequestUrl {
            scheme: "http".into(),
            host: host.into(),
            port: 80,
            path: path.into(),
            query: String::new(),
        }
    }

    /// Attach a query string (without `?`).
    pub fn with_query(mut self, query: impl Into<String>) -> Self {
        self.query = query.into();
        self
    }

    /// Attach a non-default port.
    pub fn with_port(mut self, port: u16) -> Self {
        self.port = port;
        self
    }

    /// Attach a scheme.
    pub fn with_scheme(mut self, scheme: impl Into<String>) -> Self {
        self.scheme = scheme.into();
        self
    }

    /// Borrow this URL as a [`UrlView`].
    pub fn as_view(&self) -> UrlView<'_> {
        UrlView {
            scheme: &self.scheme,
            host: &self.host,
            port: self.port,
            path: &self.path,
            query: &self.query,
        }
    }

    /// The literal IPv4 address if `cs-host` is one (Table 11's `DIPv4`).
    pub fn host_ip(&self) -> Option<Ipv4Addr> {
        self.host.parse().ok()
    }

    /// Is the host a literal IPv4 address?
    pub fn host_is_ip(&self) -> bool {
        self.host_ip().is_some()
    }

    /// The string the SG-9000 keyword filter scans: `host + path + ?query`,
    /// lowercased on the fly by the (case-insensitive) automaton.
    pub fn filter_view(&self) -> String {
        let mut s = String::with_capacity(self.host.len() + self.path.len() + self.query.len() + 1);
        self.filter_view_into(&mut s);
        s
    }

    /// [`RequestUrl::filter_view`] into a caller-owned buffer, so a scan
    /// loop reuses one allocation instead of building a `String` per record.
    /// Clears `out` first.
    pub fn filter_view_into(&self, out: &mut String) {
        filter_view_into(&self.host, &self.path, &self.query, out);
    }

    /// File extension of the path (the `cs-uri-ext` field), if any.
    ///
    /// Matches the appliance's behaviour: the extension is the suffix of the
    /// final path segment after the last dot, provided the segment is not
    /// itself a bare dot-file.
    pub fn extension(&self) -> Option<&str> {
        let last = self.path.rsplit('/').next()?;
        let dot = last.rfind('.')?;
        if dot == 0 || dot + 1 == last.len() {
            return None;
        }
        Some(&last[dot + 1..])
    }

    /// The registrable second-level label heuristic used when aggregating by
    /// "domain" in the paper's tables (e.g. `www.facebook.com` →
    /// `facebook.com`, `sub.panet.co.il` → `panet.co.il`). Borrows from the
    /// host whenever it is already bare and lowercase.
    pub fn base_domain(&self) -> Cow<'_, str> {
        base_domain_of(&self.host)
    }

    /// Is the path/query empty (a "non-ambiguous" bare-domain request in the
    /// §5.4 string-recovery sense)?
    pub fn is_bare(&self) -> bool {
        (self.path.is_empty() || self.path == "/") && self.query.is_empty()
    }
}

/// Registrable-domain heuristic shared by the analysis crates.
///
/// IPv4 hosts are returned unchanged. For names, the last two labels are
/// kept, or the last three when the penultimate label is a well-known
/// second-level registry label (`co`, `com`, `net`, `org`, `ac`, `gov`)
/// under a two-letter ccTLD — enough for every domain in the paper
/// (`panet.co.il`, `aljazeera.net`, `bbc.co.uk`, `mtn.com.sy`, …).
///
/// The overwhelmingly common case — an already-bare, already-lowercase host
/// like `facebook.com` — is returned as a borrow; only hosts that need
/// truncation *and* case-folding allocate.
pub fn base_domain_of(host: &str) -> Cow<'_, str> {
    let host = host.trim_end_matches('.');
    if host.parse::<Ipv4Addr>().is_ok() {
        return Cow::Borrowed(host);
    }
    let labels = host.split('.').count();
    let suffix = if labels <= 2 {
        host
    } else {
        let mut it = host.rsplit('.');
        let tld = it.next().unwrap_or("");
        let second = it.next().unwrap_or("");
        let registry_second =
            tld.len() == 2 && matches!(second, "co" | "com" | "net" | "org" | "ac" | "gov");
        let keep = if registry_second { 3 } else { 2 };
        // Byte index just past the dot separating the kept suffix from the
        // rest: the `keep`-th dot counted from the end.
        let mut start = 0usize;
        let mut dots = 0usize;
        for (i, b) in host.bytes().enumerate().rev() {
            if b == b'.' {
                dots += 1;
                if dots == keep {
                    start = i + 1;
                    break;
                }
            }
        }
        &host[start..]
    };
    if suffix.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(suffix.to_ascii_lowercase())
    } else {
        Cow::Borrowed(suffix)
    }
}

/// Shared body of [`RequestUrl::filter_view_into`] and its borrowed-view
/// counterpart: `host + path + ?query` into a recycled buffer.
pub(crate) fn filter_view_into(host: &str, path: &str, query: &str, out: &mut String) {
    out.clear();
    out.reserve(host.len() + path.len() + query.len() + 1);
    out.push_str(host);
    out.push_str(path);
    if !query.is_empty() {
        out.push('?');
        out.push_str(query);
    }
}

impl fmt::Display for RequestUrl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}://{}", self.scheme, self.host)?;
        let default = match self.scheme.as_str() {
            "http" => 80,
            "ssl" => 443,
            "ftp" => 21,
            _ => 0,
        };
        if self.port != default {
            write!(f, ":{}", self.port)?;
        }
        write!(f, "{}", self.path)?;
        if !self.query.is_empty() {
            write!(f, "?{}", self.query)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filter_view_concatenates() {
        let u =
            RequestUrl::http("www.facebook.com", "/plugins/like.php").with_query("href=x&app_id=1");
        assert_eq!(
            u.filter_view(),
            "www.facebook.com/plugins/like.php?href=x&app_id=1"
        );
        let bare = RequestUrl::http("new-syria.com", "/");
        assert_eq!(bare.filter_view(), "new-syria.com/");
        assert!(bare.is_bare());
    }

    #[test]
    fn host_ip_detection() {
        assert!(RequestUrl::http("212.150.1.2", "/").host_is_ip());
        assert!(!RequestUrl::http("google.com", "/").host_is_ip());
        assert_eq!(
            RequestUrl::http("84.229.3.4", "/").host_ip(),
            Some(Ipv4Addr::new(84, 229, 3, 4))
        );
    }

    #[test]
    fn extension_extraction() {
        assert_eq!(
            RequestUrl::http("x.com", "/home.php").extension(),
            Some("php")
        );
        assert_eq!(
            RequestUrl::http("x.com", "/a/b/video.flv").extension(),
            Some("flv")
        );
        assert_eq!(RequestUrl::http("x.com", "/").extension(), None);
        assert_eq!(RequestUrl::http("x.com", "/a.b/c").extension(), None);
        assert_eq!(RequestUrl::http("x.com", "/.htaccess").extension(), None);
        assert_eq!(RequestUrl::http("x.com", "/trailing.").extension(), None);
    }

    #[test]
    fn base_domain_heuristic() {
        assert_eq!(base_domain_of("www.facebook.com"), "facebook.com");
        assert_eq!(base_domain_of("upload.youtube.com"), "youtube.com");
        assert_eq!(base_domain_of("panet.co.il"), "panet.co.il");
        assert_eq!(base_domain_of("www.panet.co.il"), "panet.co.il");
        assert_eq!(base_domain_of("bbc.co.uk"), "bbc.co.uk");
        assert_eq!(base_domain_of("mtn.com.sy"), "mtn.com.sy");
        assert_eq!(base_domain_of("google.com"), "google.com");
        assert_eq!(base_domain_of("10.1.2.3"), "10.1.2.3");
        assert_eq!(base_domain_of("localhost"), "localhost");
        assert_eq!(base_domain_of("WWW.Facebook.COM"), "facebook.com");
        assert_eq!(base_domain_of("trailing.dots.example."), "dots.example");
    }

    #[test]
    fn base_domain_borrows_when_already_bare() {
        assert!(matches!(
            base_domain_of("facebook.com"),
            Cow::Borrowed("facebook.com")
        ));
        assert!(matches!(
            base_domain_of("www.youtube.com"),
            Cow::Borrowed("youtube.com")
        ));
        assert!(matches!(
            base_domain_of("10.1.2.3"),
            Cow::Borrowed("10.1.2.3")
        ));
        // Only case-folding forces an allocation.
        assert!(matches!(base_domain_of("Facebook.COM"), Cow::Owned(_)));
    }

    #[test]
    fn filter_view_into_reuses_buffer() {
        let mut buf = String::from("leftover");
        RequestUrl::http("a.com", "/p")
            .with_query("q=1")
            .filter_view_into(&mut buf);
        assert_eq!(buf, "a.com/p?q=1");
        RequestUrl::http("b.com", "/").filter_view_into(&mut buf);
        assert_eq!(buf, "b.com/");
    }

    #[test]
    fn display_forms() {
        let u = RequestUrl::http("facebook.com", "/home.php").with_query("r=1");
        assert_eq!(u.to_string(), "http://facebook.com/home.php?r=1");
        let c = RequestUrl::http("skype.com", "/")
            .with_scheme("ssl")
            .with_port(443);
        assert_eq!(c.to_string(), "ssl://skype.com/");
        let tor = RequestUrl::http("86.59.21.38", "/").with_port(9001);
        assert_eq!(tor.to_string(), "http://86.59.21.38:9001/");
    }
}
