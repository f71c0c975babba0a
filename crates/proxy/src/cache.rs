//! The cache (`PROXIED`) overlay.
//!
//! ~0.47 % of requests resolve from the appliance cache and are logged
//! `PROXIED` (§3.3). The paper notes the exception breakdown inside
//! `PROXIED` "resembles that of the overall traffic", and that `PROXIED`
//! rows are *inconsistent*: requests to consistently-censored URLs
//! sometimes appear `PROXIED` with no exception at all. The model
//! reproduces both: cache hits are a per-(URL, time-bucket) hash draw, the
//! underlying decision's exception is usually preserved, and a fraction of
//! censored cache hits lose their exception (the logged inconsistency).

use crate::hashing::{decision_hash, fnv1a, fnv1a_from, per_cent_mille, per_mille};
use filterscope_core::Timestamp;

/// Deterministic cache model.
#[derive(Debug, Clone)]
pub struct CacheModel {
    seed: u64,
    /// Cache-hit probability per 100 000 requests.
    rate_per_cent_mille: u32,
    /// Per-mille of censored cache hits whose exception is dropped in the
    /// log (the paper's observed inconsistency).
    drop_exception_per_mille: u32,
}

impl CacheModel {
    /// Model with the given hit rate and a default 400‰ exception-drop rate.
    pub fn new(seed: u64, rate_per_cent_mille: u32) -> Self {
        CacheModel {
            seed,
            rate_per_cent_mille,
            drop_exception_per_mille: 400,
        }
    }

    /// Is the request with identity key `key` (see
    /// [`crate::Request::identity_key`]), made at `timestamp`, served from cache?
    ///
    /// Hashes URL identity plus a 10-minute time bucket: the same URL tends
    /// to hit or miss consistently within a bucket (cache residency), while
    /// different URLs are independent.
    pub fn is_cache_hit(&self, key: u64, timestamp: Timestamp) -> bool {
        const CACHE_HIT: u64 = fnv1a(b"cache-hit");
        let bucket = timestamp.epoch_seconds() / 600;
        let key = fnv1a_from(key, &bucket.to_le_bytes());
        let h = decision_hash(self.seed, CACHE_HIT, key);
        per_cent_mille(h) < self.rate_per_cent_mille as u64
    }

    /// For a censored request (identity key `key`) served from cache: is
    /// the policy exception dropped from the log record?
    pub fn drops_exception(&self, key: u64) -> bool {
        const CACHE_DROP_EXC: u64 = fnv1a(b"cache-drop-exc");
        let h = decision_hash(self.seed, CACHE_DROP_EXC, key);
        per_mille(h) < self.drop_exception_per_mille as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Request;
    use filterscope_logformat::RequestUrl;

    fn t0() -> Timestamp {
        Timestamp::parse_fields("2011-08-03", "12:00:00").unwrap()
    }

    #[test]
    fn hit_rate_converges() {
        let m = CacheModel::new(3, 470);
        let n = 300_000;
        let hits = (0..n)
            .filter(|i| {
                let req = Request::get(t0(), RequestUrl::http(format!("h{i}.com"), "/"));
                m.is_cache_hit(req.identity_key(), req.timestamp)
            })
            .count() as f64;
        let rate = hits / n as f64;
        assert!((rate - 0.0047).abs() < 0.001, "rate {rate}");
    }

    #[test]
    fn same_url_same_bucket_is_stable() {
        let m = CacheModel::new(3, 50_000);
        let url = RequestUrl::http("popular.com", "/asset.js");
        let key = Request::get(t0(), url).identity_key();
        let a = m.is_cache_hit(key, t0());
        let b = m.is_cache_hit(key, t0().plus_seconds(30));
        assert_eq!(a, b, "same 10-minute bucket must agree");
    }

    #[test]
    fn drop_rate_is_partial() {
        let m = CacheModel::new(3, 470);
        let n = 10_000;
        let drops = (0..n)
            .filter(|i| {
                m.drops_exception(
                    Request::get(t0(), RequestUrl::http(format!("c{i}.com"), "/")).identity_key(),
                )
            })
            .count() as f64;
        let rate = drops / n as f64;
        assert!((rate - 0.4).abs() < 0.03, "rate {rate}");
    }
}
