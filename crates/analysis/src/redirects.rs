//! §5.3 / Table 7: denied vs redirected traffic.
//!
//! Besides the Table 7 host ranking, this module implements the paper's
//! follow-up check: a `policy_redirect` should trigger a secondary request
//! from the same client to the redirect target "immediately after" — the
//! paper looks within a 2-second window and finds *no* trace, concluding
//! the target is hosted off-proxy (likely inside Syria). The check needs
//! client identity, so it runs over `Duser` records only.

use crate::report::{count_pct, Table};
use filterscope_logformat::{ClientId, ExceptionId, RecordView};
use filterscope_stats::CountMap;
use std::collections::HashMap;

/// Follow-up window after a redirect, seconds (the paper uses 2).
pub const FOLLOW_UP_WINDOW_SECS: i64 = 2;

/// `policy_redirect` accumulator.
#[derive(Debug, Clone, Default)]
pub struct RedirectStats {
    /// Requests raising `policy_redirect`, by exact `cs-host`.
    pub hosts: CountMap<String>,
    /// Pending redirects per hashed client: epoch second of the redirect.
    /// (`Duser` only; bounded by redirect volume.)
    pending: HashMap<u64, Vec<i64>>,
    /// Redirects (from identified clients) observed at all.
    pub identified_redirects: u64,
    /// Redirects followed by another request from the same client within
    /// the window (the paper found zero).
    pub followed_up: u64,
}

impl RedirectStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct redirected hosts (the paper found 11).
    pub fn distinct_hosts(&self) -> usize {
        self.hosts.distinct()
    }

    /// Render Table 7 plus the follow-up finding.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            "Table 7: Top hosts raising policy_redirect",
            &["cs-host", "# requests", "%"],
        );
        let total = self.hosts.total();
        for (host, n) in self.hosts.top_n(5) {
            t.row([host, n.to_string(), count_pct(n, total)]);
        }
        let mut out = t.render();
        if self.identified_redirects > 0 {
            out.push_str(&format!(
                "follow-up within {FOLLOW_UP_WINDOW_SECS}s (Duser): {} of {} redirects\n",
                self.followed_up, self.identified_redirects
            ));
        }
        out
    }
}

impl crate::registry::Analysis for RedirectStats {
    fn ingest_block(
        &mut self,
        _ctx: &crate::AnalysisContext,
        block: &[RecordView<'_>],
        _derived: &crate::Derived<'_>,
    ) {
        // Follow-up matching assumes records arrive in roughly time order
        // per client (true of proxy logs); a later pass is not required.
        for record in block {
            let client = match record.client {
                ClientId::Hashed(h) => Some(h),
                _ => None,
            };
            if record.exception == ExceptionId::PolicyRedirect.as_str() {
                self.hosts.bump(record.url.host.to_string());
                if let Some(h) = client {
                    self.identified_redirects += 1;
                    self.pending
                        .entry(h)
                        .or_default()
                        .push(record.timestamp.epoch_seconds());
                }
                continue;
            }
            // Any non-redirect request from a client with pending redirects
            // may be the secondary fetch.
            let Some(h) = client else { continue };
            let Some(times) = self.pending.get_mut(&h) else {
                continue;
            };
            let now = record.timestamp.epoch_seconds();
            let mut hits = 0u64;
            times.retain(|t| {
                if now >= *t && now - *t <= FOLLOW_UP_WINDOW_SECS {
                    hits += 1; // matched: the secondary request arrived
                    false
                } else {
                    // Drop expired windows; keep future-dated entries
                    // (records can be mildly out of order).
                    now < *t
                }
            });
            self.followed_up += hits;
            if times.is_empty() {
                self.pending.remove(&h);
            }
        }
    }

    /// Follow-up matching is within-shard (a redirect and its 2-second
    /// follow-up land in the same day shard by construction).
    fn merge(&mut self, other: Box<dyn crate::registry::Analysis>) {
        let other: RedirectStats = crate::registry::downcast(other);
        self.hosts.merge(other.hosts);
        self.identified_redirects += other.identified_redirects;
        self.followed_up += other.followed_up;
        for (k, v) in other.pending {
            self.pending.entry(k).or_default().extend(v);
        }
    }

    fn headline(&self) -> u64 {
        self.identified_redirects
    }

    fn render(&self, _ctx: &crate::AnalysisContext) -> String {
        RedirectStats::render(self)
    }

    fn export_json(&self, _ctx: &crate::AnalysisContext) -> Option<filterscope_core::Json> {
        use filterscope_core::Json;
        let mut obj = Json::object();
        obj.push("redirect_hosts", Json::UInt(self.distinct_hosts() as u64));
        Some(obj)
    }

    fn save_state(&self, w: &mut filterscope_core::ByteWriter) {
        crate::state::put_str_counts(w, &self.hosts);
        crate::state::put_keyed(
            w,
            &self.pending,
            |k| k,
            |w, times: &Vec<i64>| {
                let mut sorted = times.clone();
                sorted.sort_unstable();
                crate::state::put_len(w, sorted.len());
                for t in sorted {
                    w.put_u64(t as u64);
                }
            },
        );
        w.put_u64(self.identified_redirects);
        w.put_u64(self.followed_up);
    }

    fn load_state(
        &mut self,
        r: &mut filterscope_core::ByteReader<'_>,
    ) -> filterscope_core::Result<()> {
        self.hosts.merge(crate::state::get_str_counts(r)?);
        let pending = crate::state::get_keyed(r, Ok, |r| {
            let n = crate::state::get_len(r)?;
            let mut times = Vec::with_capacity(n);
            for _ in 0..n {
                times.push(r.get_u64()? as i64);
            }
            Ok(times)
        })?;
        for (k, v) in pending {
            self.pending.entry(k).or_default().extend(v);
        }
        self.identified_redirects += r.get_u64()?;
        self.followed_up += r.get_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{feed, Analysis};
    use filterscope_core::{ProxyId, Timestamp};
    use filterscope_logformat::record::RecordBuilder;
    use filterscope_logformat::{LogRecord, RequestUrl};

    fn redirect_at(time: &str, client: Option<u64>) -> LogRecord {
        let mut b = RecordBuilder::new(
            Timestamp::parse_fields("2011-07-22", time).unwrap(),
            ProxyId::Sg42,
            RequestUrl::http("upload.youtube.com", "/upload"),
        )
        .policy_redirect();
        if let Some(h) = client {
            b = b.client(ClientId::Hashed(h));
        }
        b.build()
    }

    fn plain_at(time: &str, client: u64) -> LogRecord {
        RecordBuilder::new(
            Timestamp::parse_fields("2011-07-22", time).unwrap(),
            ProxyId::Sg42,
            RequestUrl::http("landing.example", "/"),
        )
        .client(ClientId::Hashed(client))
        .build()
    }

    #[test]
    fn counts_only_redirects_by_exact_host() {
        let mut r = RedirectStats::new();
        feed(
            &mut r,
            &[redirect_at("09:00:00", None), redirect_at("09:00:01", None)],
        );
        let denied = RecordBuilder::new(
            Timestamp::parse_fields("2011-07-22", "09:00:02").unwrap(),
            ProxyId::Sg42,
            RequestUrl::http("metacafe.com", "/"),
        )
        .policy_denied()
        .build();
        feed(&mut r, &[denied]);
        assert_eq!(r.hosts.get("upload.youtube.com"), 2);
        assert_eq!(r.distinct_hosts(), 1);
        assert!(r.render().contains("upload.youtube.com"));
    }

    #[test]
    fn follow_up_within_window_is_detected() {
        let mut r = RedirectStats::new();
        feed(
            &mut r,
            &[redirect_at("09:00:00", Some(7)), plain_at("09:00:01", 7)],
        );
        assert_eq!(r.identified_redirects, 1);
        assert_eq!(r.followed_up, 1);
    }

    #[test]
    fn follow_up_outside_window_or_other_client_is_not() {
        let mut r = RedirectStats::new();
        feed(&mut r, &[redirect_at("09:00:00", Some(7))]);
        // Different client: no match.
        feed(&mut r, &[plain_at("09:00:01", 8)]);
        // Same client, too late.
        feed(&mut r, &[plain_at("09:00:09", 7)]);
        assert_eq!(r.identified_redirects, 1);
        assert_eq!(r.followed_up, 0);
    }

    #[test]
    fn zeroed_clients_cannot_be_tracked() {
        let mut r = RedirectStats::new();
        feed(&mut r, &[redirect_at("09:00:00", None)]); // zeroed client
        assert_eq!(r.identified_redirects, 0);
        // Table 7 still counts the host.
        assert_eq!(r.hosts.total(), 1);
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = RedirectStats::new();
        feed(
            &mut a,
            &[redirect_at("09:00:00", Some(1)), plain_at("09:00:01", 1)],
        );
        let mut b = RedirectStats::new();
        feed(&mut b, &[redirect_at("10:00:00", Some(2))]);
        a.merge(Box::new(b));
        assert_eq!(a.identified_redirects, 2);
        assert_eq!(a.followed_up, 1);
        assert_eq!(a.hosts.total(), 2);
    }
}
