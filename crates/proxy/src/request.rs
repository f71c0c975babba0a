//! The farm's input: a client request before filtering.

use crate::hashing::{fnv1a, fnv1a_from};
use filterscope_core::Timestamp;
use filterscope_logformat::{ClientId, Method, RequestUrl};

/// One client request as seen by the transparent proxy, before any policy
/// decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// When the proxy intercepted the request.
    pub timestamp: Timestamp,
    /// Client identity as it will be logged (the Telecomix anonymization is
    /// applied upstream by the workload generator).
    pub client: ClientId,
    /// `User-Agent` header.
    pub user_agent: String,
    /// HTTP method (`CONNECT` for HTTPS tunnels).
    pub method: Method,
    /// Requested URL (scheme `ssl` for CONNECT tunnels).
    pub url: RequestUrl,
    /// Approximate response size the origin would return, used for the
    /// `sc-bytes` field when the request is served.
    pub response_bytes: u64,
}

impl Request {
    /// A plain HTTP GET.
    pub fn get(timestamp: Timestamp, url: RequestUrl) -> Self {
        Request {
            timestamp,
            client: ClientId::Zeroed,
            user_agent: "Mozilla/5.0".into(),
            method: Method::Get,
            url,
            response_bytes: 8 * 1024,
        }
    }

    /// An HTTPS CONNECT tunnel to `host:443`.
    pub fn connect(timestamp: Timestamp, host: impl Into<String>) -> Self {
        Request {
            timestamp,
            client: ClientId::Zeroed,
            user_agent: String::new(),
            method: Method::Connect,
            url: RequestUrl {
                scheme: "ssl".into(),
                host: host.into(),
                port: 443,
                path: "/".into(),
                query: String::new(),
            },
            response_bytes: 4 * 1024,
        }
    }

    /// Override the client identity.
    pub fn with_client(mut self, client: ClientId) -> Self {
        self.client = client;
        self
    }

    /// Override the user agent.
    pub fn with_user_agent(mut self, ua: impl Into<String>) -> Self {
        self.user_agent = ua.into();
        self
    }

    /// The request's identity hash: FNV-1a over [`Request::identity_bytes`],
    /// streamed field by field with no allocation and no `core::fmt`. Every
    /// per-request decision (routing, cache, errors, time-taken, profile
    /// draws) hashes from this one key; time-bucketed decisions continue it
    /// with [`crate::hashing::fnv1a_from`].
    pub fn identity_key(&self) -> u64 {
        let url = &self.url;
        let mut h = fnv1a(url.host.as_bytes());
        h = fnv1a_from(h, &[0]);
        h = fnv1a_from(h, url.path.as_bytes());
        h = fnv1a_from(h, &[0]);
        h = fnv1a_from(h, url.query.as_bytes());
        h = fnv1a_from(h, &[0]);
        h = fnv1a_from(h, &url.port.to_le_bytes());
        fnv1a_from(h, self.client.logged(&mut [0; 16]).as_bytes())
    }

    /// The bytes [`Request::identity_key`] hashes: host, path and query
    /// each NUL-terminated, the port little-endian, then the client as
    /// logged. Everything that identifies the request except the timestamp
    /// (so per-URL decisions like caching stay stable across retries);
    /// decisions that vary over time mix it in explicitly. Kept as the
    /// allocating reference the streamed key is tested against.
    pub fn identity_bytes(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(
            self.url.host.len() + self.url.path.len() + self.url.query.len() + 24,
        );
        v.extend_from_slice(self.url.host.as_bytes());
        v.push(0);
        v.extend_from_slice(self.url.path.as_bytes());
        v.push(0);
        v.extend_from_slice(self.url.query.as_bytes());
        v.push(0);
        v.extend_from_slice(&self.url.port.to_le_bytes());
        v.extend_from_slice(self.client.to_string().as_bytes());
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts() -> Timestamp {
        Timestamp::parse_fields("2011-08-03", "08:00:00").unwrap()
    }

    #[test]
    fn get_and_connect_shapes() {
        let g = Request::get(ts(), RequestUrl::http("facebook.com", "/home.php"));
        assert_eq!(g.method, Method::Get);
        assert_eq!(g.url.scheme, "http");
        let c = Request::connect(ts(), "skype.com");
        assert_eq!(c.method, Method::Connect);
        assert_eq!(c.url.scheme, "ssl");
        assert_eq!(c.url.port, 443);
    }

    #[test]
    fn identity_ignores_timestamp() {
        let a = Request::get(ts(), RequestUrl::http("x.com", "/"));
        let b = Request::get(ts().plus_seconds(100), RequestUrl::http("x.com", "/"));
        assert_eq!(a.identity_bytes(), b.identity_bytes());
        let c = Request::get(ts(), RequestUrl::http("y.com", "/"));
        assert_ne!(a.identity_bytes(), c.identity_bytes());
    }

    #[test]
    fn identity_separates_fields() {
        // host="ab", path="/" vs host="a", path="b/" must differ.
        let a = Request::get(ts(), RequestUrl::http("ab", "/"));
        let b = Request::get(ts(), RequestUrl::http("a", "b/"));
        assert_ne!(a.identity_bytes(), b.identity_bytes());
    }
}
