//! The network-error overlay.
//!
//! Denied-by-error traffic is ~5.3 % of all requests, with the exception mix
//! of Table 3. Errors strike requests the policy *would have allowed* (a
//! censored request never contacts the origin, so TCP/DNS errors cannot
//! occur for it). Assignment is a pure hash of request identity and
//! timestamp, so the same workload always produces the same error records.

use crate::hashing::{decision_hash, fnv1a, fnv1a_from, per_cent_mille};
use filterscope_core::Timestamp;
use filterscope_logformat::ExceptionId;

/// Relative weights of the error exceptions, from Table 3's `Ddenied`
/// breakdown (per 10 000 of error traffic). This is the *proxy* mix: a
/// transparent proxy terminates the client's TCP session itself, so it can
/// observe and log the full range of upstream failures. Other censor
/// mechanisms draw from their own mixes via [`ErrorModel::sample_from`].
pub const ERROR_MIX: [(ExceptionId, u32); 8] = [
    (ExceptionId::TcpError, 5355),
    (ExceptionId::InternalError, 3667),
    (ExceptionId::InvalidRequest, 664),
    (ExceptionId::UnsupportedProtocol, 179),
    (ExceptionId::DnsUnresolvedHostname, 35),
    (ExceptionId::DnsServerFailure, 15),
    (ExceptionId::UnsupportedEncoding, 1),
    (ExceptionId::InvalidResponse, 1),
];

/// Deterministic error model.
#[derive(Debug, Clone)]
pub struct ErrorModel {
    seed: u64,
    /// Error probability per 100 000 requests.
    rate_per_cent_mille: u32,
}

impl ErrorModel {
    /// Model with the given overall rate.
    pub fn new(seed: u64, rate_per_cent_mille: u32) -> Self {
        ErrorModel {
            seed,
            rate_per_cent_mille,
        }
    }

    /// Should the request with identity key `key` (see
    /// [`crate::Request::identity_key`]), made at `timestamp`, fail with a
    /// network error, and if so which?
    pub fn sample(&self, key: u64, timestamp: Timestamp) -> Option<ExceptionId> {
        self.sample_from(key, timestamp, &ERROR_MIX)
    }

    /// [`Self::sample`] drawing the exception kind from a caller-supplied
    /// mix (weights per 10 000 of error traffic). *Which* requests error is
    /// mix-independent — only the kind drawn for an erroring request varies
    /// — so every censor profile shares one error population while emitting
    /// only the exceptions its vantage can actually observe (a DNS poisoner
    /// never logs a proxy's `internal_error`).
    pub fn sample_from(
        &self,
        key: u64,
        timestamp: Timestamp,
        mix: &[(ExceptionId, u32)],
    ) -> Option<ExceptionId> {
        const NET_ERROR: u64 = fnv1a(b"net-error");
        const NET_ERROR_KIND: u64 = fnv1a(b"net-error-kind");
        let key = fnv1a_from(key, &timestamp.epoch_seconds().to_le_bytes());
        let h = decision_hash(self.seed, NET_ERROR, key);
        if per_cent_mille(h) >= self.rate_per_cent_mille as u64 {
            return None;
        }
        // Second, independent draw selects the exception kind.
        let pick = decision_hash(self.seed, NET_ERROR_KIND, key) % 10_000;
        let mut acc = 0u64;
        for (e, w) in mix.iter() {
            acc += *w as u64;
            if pick < acc {
                return Some(e.clone());
            }
        }
        // Weights sum to < 10 000 only by rounding; fall back to TCP error.
        Some(ExceptionId::TcpError)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Request;
    use filterscope_logformat::RequestUrl;

    fn reqs(n: u64) -> impl Iterator<Item = (u64, Timestamp)> {
        let t0 = Timestamp::parse_fields("2011-08-03", "00:00:00").unwrap();
        (0..n).map(move |i| {
            let req = Request::get(
                t0.plus_seconds(i as i64 % 86_400),
                RequestUrl::http(format!("host{i}.example"), "/"),
            );
            (req.identity_key(), req.timestamp)
        })
    }

    #[test]
    fn rate_converges() {
        let m = ErrorModel::new(7, 5_310);
        let n = 200_000u64;
        let errors = reqs(n).filter(|&(k, t)| m.sample(k, t).is_some()).count() as f64;
        let rate = errors / n as f64;
        assert!((rate - 0.0531).abs() < 0.003, "rate {rate}");
    }

    #[test]
    fn mix_matches_table3_shape() {
        let m = ErrorModel::new(7, 100_000); // every request errors
        let mut tcp = 0u64;
        let mut internal = 0u64;
        let mut total = 0u64;
        for (k, t) in reqs(50_000) {
            match m.sample(k, t) {
                Some(ExceptionId::TcpError) => {
                    tcp += 1;
                    total += 1;
                }
                Some(ExceptionId::InternalError) => {
                    internal += 1;
                    total += 1;
                }
                Some(_) => total += 1,
                None => unreachable!("rate is 100%"),
            }
        }
        let tcp_frac = tcp as f64 / total as f64;
        let int_frac = internal as f64 / total as f64;
        assert!((tcp_frac - 0.5355).abs() < 0.01, "tcp {tcp_frac}");
        assert!((int_frac - 0.3667).abs() < 0.01, "internal {int_frac}");
    }

    #[test]
    fn deterministic() {
        let m = ErrorModel::new(7, 5_310);
        for (k, t) in reqs(100) {
            assert_eq!(m.sample(k, t), m.sample(k, t));
        }
    }

    #[test]
    fn zero_rate_never_errors() {
        let m = ErrorModel::new(7, 0);
        assert!(reqs(1000).all(|(k, t)| m.sample(k, t).is_none()));
    }

    #[test]
    fn custom_mix_preserves_the_error_population() {
        // `sample_from` must flip the *kind*, never *which* requests error:
        // profiles share one error population so swapping the censor cannot
        // change total error volume.
        let m = ErrorModel::new(7, 5_310);
        let dns_mix = [
            (ExceptionId::DnsUnresolvedHostname, 6_000u32),
            (ExceptionId::DnsServerFailure, 2_500),
            (ExceptionId::TcpError, 1_500),
        ];
        for (k, t) in reqs(5_000) {
            let default = m.sample(k, t);
            let scoped = m.sample_from(k, t, &dns_mix);
            assert_eq!(default.is_some(), scoped.is_some());
            if let Some(e) = scoped {
                assert!(
                    dns_mix.iter().any(|(k, _)| *k == e),
                    "exception {e:?} outside the scoped mix"
                );
            }
        }
    }

    #[test]
    fn sample_from_default_mix_is_sample() {
        let m = ErrorModel::new(7, 50_000);
        for (k, t) in reqs(2_000) {
            assert_eq!(m.sample(k, t), m.sample_from(k, t, &ERROR_MIX));
        }
    }

    #[test]
    fn retry_at_different_time_can_differ() {
        // Errors are transient: the same URL at a different second may get a
        // different outcome. With a 100% rate the *kind* stays hash-driven;
        // with a partial rate at least one URL must flip across times.
        let m = ErrorModel::new(7, 50_000);
        let t0 = Timestamp::parse_fields("2011-08-03", "00:00:00").unwrap();
        let flipped = (0..200u32).any(|i| {
            let url = RequestUrl::http(format!("h{i}.net"), "/");
            let key = Request::get(t0, url).identity_key();
            let a = m.sample(key, t0);
            let b = m.sample(key, t0.plus_seconds(17));
            a.is_some() != b.is_some()
        });
        assert!(flipped);
    }
}
