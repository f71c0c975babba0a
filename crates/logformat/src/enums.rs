//! Typed values for the enumerated log fields.
//!
//! Every enum keeps an `Other` escape hatch: the parser must never lose data
//! from a real log, even when an appliance firmware version emits a value we
//! have not catalogued.

use filterscope_core::{Error, Result};
use std::fmt;
use std::net::Ipv4Addr;

/// `sc-filter-result`: the action class the proxy assigned (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FilterResult {
    /// Request is served; content fetched from the origin server.
    Observed,
    /// Outcome determined by the cache.
    Proxied,
    /// Request not served; an exception was raised.
    Denied,
}

impl FilterResult {
    /// On-disk spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            FilterResult::Observed => "OBSERVED",
            FilterResult::Proxied => "PROXIED",
            FilterResult::Denied => "DENIED",
        }
    }

    /// Parse the on-disk spelling.
    pub fn parse(s: &str) -> Result<Self> {
        match s {
            "OBSERVED" => Ok(FilterResult::Observed),
            "PROXIED" => Ok(FilterResult::Proxied),
            "DENIED" => Ok(FilterResult::Denied),
            other => Err(Error::UnknownVariant {
                field: "sc-filter-result",
                value: other.to_string(),
            }),
        }
    }
}

impl fmt::Display for FilterResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// `x-exception-id`: why a request was not served (§3.3, Table 3).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ExceptionId {
    /// `-`: no exception; the request was served.
    None,
    /// Censored by policy; page not served.
    PolicyDenied,
    /// Censored by policy; client redirected to another URL.
    PolicyRedirect,
    /// TCP-level failure between proxy and origin.
    TcpError,
    /// The appliance could not handle the request.
    InternalError,
    /// Malformed HTTP request.
    InvalidRequest,
    /// Malformed HTTP response from the origin.
    InvalidResponse,
    /// Protocol not supported by the appliance.
    UnsupportedProtocol,
    /// Content encoding not supported.
    UnsupportedEncoding,
    /// DNS could not resolve the hostname.
    DnsUnresolvedHostname,
    /// The DNS server itself failed.
    DnsServerFailure,
    /// Any value outside the catalogue above.
    Other(Box<str>),
}

impl ExceptionId {
    /// All catalogued non-`None`, non-`Other` variants, in Table 3 order.
    pub const CATALOGUE: [ExceptionId; 10] = [
        ExceptionId::TcpError,
        ExceptionId::InternalError,
        ExceptionId::InvalidRequest,
        ExceptionId::UnsupportedProtocol,
        ExceptionId::DnsUnresolvedHostname,
        ExceptionId::DnsServerFailure,
        ExceptionId::UnsupportedEncoding,
        ExceptionId::InvalidResponse,
        ExceptionId::PolicyDenied,
        ExceptionId::PolicyRedirect,
    ];

    /// On-disk spelling.
    pub fn as_str(&self) -> &str {
        match self {
            ExceptionId::None => "-",
            ExceptionId::PolicyDenied => "policy_denied",
            ExceptionId::PolicyRedirect => "policy_redirect",
            ExceptionId::TcpError => "tcp_error",
            ExceptionId::InternalError => "internal_error",
            ExceptionId::InvalidRequest => "invalid_request",
            ExceptionId::InvalidResponse => "invalid_response",
            ExceptionId::UnsupportedProtocol => "unsupported_protocol",
            ExceptionId::UnsupportedEncoding => "unsupported_encoding",
            ExceptionId::DnsUnresolvedHostname => "dns_unresolved_hostname",
            ExceptionId::DnsServerFailure => "dns_server_failure",
            ExceptionId::Other(s) => s,
        }
    }

    /// Parse the on-disk spelling. Unknown values become
    /// [`ExceptionId::Other`] rather than an error — real logs contain
    /// long-tail exception ids and the analysis must not drop those records.
    pub fn parse(s: &str) -> Self {
        match s {
            "-" => ExceptionId::None,
            "policy_denied" => ExceptionId::PolicyDenied,
            "policy_redirect" => ExceptionId::PolicyRedirect,
            "tcp_error" => ExceptionId::TcpError,
            "internal_error" => ExceptionId::InternalError,
            "invalid_request" => ExceptionId::InvalidRequest,
            "invalid_response" => ExceptionId::InvalidResponse,
            "unsupported_protocol" => ExceptionId::UnsupportedProtocol,
            "unsupported_encoding" => ExceptionId::UnsupportedEncoding,
            "dns_unresolved_hostname" => ExceptionId::DnsUnresolvedHostname,
            "dns_server_failure" => ExceptionId::DnsServerFailure,
            other => ExceptionId::Other(other.into()),
        }
    }

    /// Is this one of the two censorship exceptions?
    pub fn is_policy(&self) -> bool {
        matches!(
            self,
            ExceptionId::PolicyDenied | ExceptionId::PolicyRedirect
        )
    }

    /// Is this a network/processing error (denied but not censored)?
    pub fn is_error(&self) -> bool {
        !matches!(self, ExceptionId::None) && !self.is_policy()
    }
}

impl fmt::Display for ExceptionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// `s-action`: what the appliance did with the request.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SAction {
    /// Served from cache.
    TcpHit,
    /// Fetched from origin (cache miss).
    TcpNcMiss,
    /// Cache miss, cacheable.
    TcpMiss,
    /// Denied by policy.
    TcpDenied,
    /// Error while fetching from origin.
    TcpErrMiss,
    /// Redirected by policy.
    TcpPolicyRedirect,
    /// Tunnelled (e.g. HTTPS CONNECT).
    TcpTunneled,
    /// Any value outside the catalogue above.
    Other(Box<str>),
}

impl SAction {
    /// On-disk spelling.
    pub fn as_str(&self) -> &str {
        match self {
            SAction::TcpHit => "TCP_HIT",
            SAction::TcpNcMiss => "TCP_NC_MISS",
            SAction::TcpMiss => "TCP_MISS",
            SAction::TcpDenied => "TCP_DENIED",
            SAction::TcpErrMiss => "TCP_ERR_MISS",
            SAction::TcpPolicyRedirect => "TCP_POLICY_REDIRECT",
            SAction::TcpTunneled => "TCP_TUNNELED",
            SAction::Other(s) => s,
        }
    }

    /// Parse the on-disk spelling (unknown values preserved).
    pub fn parse(s: &str) -> Self {
        match s {
            "TCP_HIT" => SAction::TcpHit,
            "TCP_NC_MISS" => SAction::TcpNcMiss,
            "TCP_MISS" => SAction::TcpMiss,
            "TCP_DENIED" => SAction::TcpDenied,
            "TCP_ERR_MISS" => SAction::TcpErrMiss,
            "TCP_POLICY_REDIRECT" => SAction::TcpPolicyRedirect,
            "TCP_TUNNELED" => SAction::TcpTunneled,
            other => SAction::Other(other.into()),
        }
    }
}

impl fmt::Display for SAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// `cs-method`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Method {
    Get,
    Post,
    Head,
    Put,
    Connect,
    Options,
    /// Unknown or non-HTTP method string.
    Other(Box<str>),
}

impl Method {
    /// On-disk spelling.
    pub fn as_str(&self) -> &str {
        match self {
            Method::Get => "GET",
            Method::Post => "POST",
            Method::Head => "HEAD",
            Method::Put => "PUT",
            Method::Connect => "CONNECT",
            Method::Options => "OPTIONS",
            Method::Other(s) => s,
        }
    }

    /// Parse the on-disk spelling (unknown values preserved).
    pub fn parse(s: &str) -> Self {
        match s {
            "GET" => Method::Get,
            "POST" => Method::Post,
            "HEAD" => Method::Head,
            "PUT" => Method::Put,
            "CONNECT" => Method::Connect,
            "OPTIONS" => Method::Options,
            other => Method::Other(other.into()),
        }
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// `cs-uri-scheme`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Scheme {
    Http,
    /// HTTPS requests appear with scheme `ssl` (via CONNECT tunnelling).
    Ssl,
    Tcp,
    Ftp,
    /// Unknown scheme string.
    Other(Box<str>),
}

impl Scheme {
    /// On-disk spelling.
    pub fn as_str(&self) -> &str {
        match self {
            Scheme::Http => "http",
            Scheme::Ssl => "ssl",
            Scheme::Tcp => "tcp",
            Scheme::Ftp => "ftp",
            Scheme::Other(s) => s,
        }
    }

    /// Parse the on-disk spelling (unknown values preserved).
    pub fn parse(s: &str) -> Self {
        match s {
            "http" => Scheme::Http,
            "ssl" => Scheme::Ssl,
            "tcp" => Scheme::Tcp,
            "ftp" => Scheme::Ftp,
            other => Scheme::Other(other.into()),
        }
    }

    /// Is this encrypted traffic (the paper's "HTTPS traffic" bucket)?
    pub fn is_encrypted(&self) -> bool {
        matches!(self, Scheme::Ssl)
    }
}

impl fmt::Display for Scheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// `c-ip` after Telecomix's anonymization (§3.3).
///
/// Before release, client addresses were replaced with zeros, except for
/// July 22–23 where they were replaced with a hash of the address — which is
/// what makes the `Duser` dataset possible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClientId {
    /// `0.0.0.0`: identifier suppressed.
    Zeroed,
    /// 16-hex-digit hash of the original address.
    Hashed(u64),
    /// A literal address (never present in the leak, but the parser and the
    /// simulator support it so the library works on unredacted logs too).
    Addr(Ipv4Addr),
}

impl ClientId {
    /// Parse the on-disk spelling.
    pub fn parse(s: &str) -> Result<Self> {
        if s == "0.0.0.0" || s == "-" {
            return Ok(ClientId::Zeroed);
        }
        if s.len() == 16 && s.bytes().all(|b| b.is_ascii_hexdigit()) {
            let v = u64::from_str_radix(s, 16).map_err(|_| Error::InvalidAddress(s.to_string()))?;
            return Ok(ClientId::Hashed(v));
        }
        s.parse::<Ipv4Addr>()
            .map(ClientId::Addr)
            .map_err(|_| Error::InvalidAddress(s.to_string()))
    }

    /// Hash value when user-level analysis is possible.
    pub fn hash(&self) -> Option<u64> {
        match self {
            ClientId::Hashed(h) => Some(*h),
            _ => None,
        }
    }

    /// The logged spelling — `0.0.0.0`, 16 lowercase hex digits, or a
    /// dotted quad — written into `buf` without going through `core::fmt`.
    /// The CSV writer, `Display`, and the hashes keyed on the client
    /// (`Dsample` membership, the farm's request identity) all use it.
    pub fn logged<'b>(&self, buf: &'b mut [u8; 16]) -> &'b str {
        let len = match *self {
            ClientId::Zeroed => return "0.0.0.0",
            ClientId::Hashed(v) => {
                for (i, digit) in buf.iter_mut().enumerate() {
                    *digit = b"0123456789abcdef"[(v >> (60 - 4 * i)) as usize & 0xf];
                }
                16
            }
            ClientId::Addr(addr) => {
                let mut n = 0;
                for (i, octet) in addr.octets().into_iter().enumerate() {
                    if i > 0 {
                        buf[n] = b'.';
                        n += 1;
                    }
                    if octet >= 100 {
                        buf[n] = b'0' + octet / 100;
                        n += 1;
                    }
                    if octet >= 10 {
                        buf[n] = b'0' + octet / 10 % 10;
                        n += 1;
                    }
                    buf[n] = b'0' + octet % 10;
                    n += 1;
                }
                n
            }
        };
        std::str::from_utf8(&buf[..len]).expect("ASCII digits")
    }
}

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.logged(&mut [0; 16]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filter_result_roundtrip() {
        for fr in [
            FilterResult::Observed,
            FilterResult::Proxied,
            FilterResult::Denied,
        ] {
            assert_eq!(FilterResult::parse(fr.as_str()).unwrap(), fr);
        }
        assert!(FilterResult::parse("observed").is_err());
    }

    #[test]
    fn exception_roundtrip_and_classes() {
        for e in ExceptionId::CATALOGUE {
            assert_eq!(ExceptionId::parse(e.as_str()), e);
        }
        assert_eq!(ExceptionId::parse("-"), ExceptionId::None);
        assert!(ExceptionId::PolicyDenied.is_policy());
        assert!(ExceptionId::PolicyRedirect.is_policy());
        assert!(ExceptionId::TcpError.is_error());
        assert!(!ExceptionId::None.is_error());
        assert!(!ExceptionId::None.is_policy());
        let other = ExceptionId::parse("icap_error");
        assert_eq!(other.as_str(), "icap_error");
        assert!(other.is_error());
    }

    #[test]
    fn client_id_forms() {
        assert_eq!(ClientId::parse("0.0.0.0").unwrap(), ClientId::Zeroed);
        let h = ClientId::parse("00ff00ff00ff00ff").unwrap();
        assert_eq!(h, ClientId::Hashed(0x00ff00ff00ff00ff));
        assert_eq!(h.to_string(), "00ff00ff00ff00ff");
        assert_eq!(
            ClientId::parse("10.2.3.4").unwrap(),
            ClientId::Addr(Ipv4Addr::new(10, 2, 3, 4))
        );
        assert!(ClientId::parse("zz").is_err());
        assert_eq!(h.hash(), Some(0x00ff00ff00ff00ffu64));
        assert_eq!(ClientId::Zeroed.hash(), None);
    }

    #[test]
    fn scheme_and_method() {
        assert_eq!(Scheme::parse("ssl"), Scheme::Ssl);
        assert!(Scheme::Ssl.is_encrypted());
        assert!(!Scheme::Http.is_encrypted());
        assert_eq!(Method::parse("CONNECT"), Method::Connect);
        assert_eq!(Method::parse("BREW").as_str(), "BREW");
    }

    #[test]
    fn s_action_preserves_unknowns() {
        let a = SAction::parse("TCP_CLIENT_REFRESH");
        assert_eq!(a.as_str(), "TCP_CLIENT_REFRESH");
        assert_eq!(
            SAction::parse("TCP_POLICY_REDIRECT"),
            SAction::TcpPolicyRedirect
        );
    }
}
