//! §4 user-based analysis and Fig. 4.
//!
//! Runs over `Duser` (records whose client identifier is a hash). A "user"
//! is a unique (hashed c-ip, user-agent) pair, as in the paper; a *censored
//! user* had at least one censored request.

use crate::datasets::in_user_dataset;
use crate::report::Table;
use filterscope_logformat::{RecordView, RequestClass};
use filterscope_stats::{Ecdf, Histogram};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

#[derive(Debug, Clone, Copy, Default)]
struct UserCounts {
    total: u64,
    censored: u64,
}

/// Fig. 4 accumulator.
#[derive(Debug, Default)]
pub struct UserStats {
    users: HashMap<u64, UserCounts>,
}

fn user_key(record: &RecordView<'_>) -> Option<u64> {
    let h = record.client.hash()?;
    let mut hasher = DefaultHasher::new();
    h.hash(&mut hasher);
    record.user_agent.hash(&mut hasher);
    Some(hasher.finish())
}

impl UserStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    fn add(&mut self, record: &RecordView<'_>, class: RequestClass) {
        if !in_user_dataset(record) {
            return;
        }
        let Some(key) = user_key(record) else { return };
        let c = self.users.entry(key).or_default();
        c.total += 1;
        if class == RequestClass::Censored {
            c.censored += 1;
        }
    }

    /// Total users identified.
    pub fn user_count(&self) -> usize {
        self.users.len()
    }

    /// Users with at least one censored request.
    pub fn censored_user_count(&self) -> usize {
        self.users.values().filter(|c| c.censored > 0).count()
    }

    /// Fraction of users censored (the paper: 1.57 %).
    pub fn censored_user_fraction(&self) -> f64 {
        if self.users.is_empty() {
            return 0.0;
        }
        self.censored_user_count() as f64 / self.users.len() as f64
    }

    /// Fig. 4(a): histogram of censored requests per censored user.
    pub fn censored_requests_histogram(&self) -> Histogram {
        let mut h = Histogram::new(1, 17);
        for c in self.users.values() {
            if c.censored > 0 {
                h.record(c.censored);
            }
        }
        h
    }

    /// Fig. 4(b): activity CDFs of censored vs non-censored users.
    pub fn activity_cdfs(&self) -> (Ecdf, Ecdf) {
        let censored = Ecdf::from_samples(
            self.users
                .values()
                .filter(|c| c.censored > 0)
                .map(|c| c.total as f64),
        );
        let clean = Ecdf::from_samples(
            self.users
                .values()
                .filter(|c| c.censored == 0)
                .map(|c| c.total as f64),
        );
        (censored, clean)
    }

    /// Fraction of each group sending more than `threshold` requests
    /// (the paper: >100 requests ⇒ ~50 % of censored vs ~5 % of the rest).
    pub fn active_fraction(&self, threshold: u64) -> (f64, f64) {
        let (censored, clean) = self.activity_cdfs();
        let f = |cdf: &Ecdf| {
            if cdf.is_empty() {
                0.0
            } else {
                1.0 - cdf.fraction_le(threshold as f64)
            }
        };
        (f(&censored), f(&clean))
    }

    /// Render the Fig. 4 summary.
    pub fn render(&self) -> String {
        let mut t = Table::new("Fig 4 / user analysis (Duser)", &["Metric", "Value"]);
        t.row(["Total users".to_string(), self.user_count().to_string()]);
        t.row([
            "Censored users".to_string(),
            format!(
                "{} ({:.2}%)",
                self.censored_user_count(),
                self.censored_user_fraction() * 100.0
            ),
        ]);
        let (ac, an) = self.active_fraction(100);
        t.row([
            ">100 requests (censored users)".to_string(),
            format!("{:.1}%", ac * 100.0),
        ]);
        t.row([
            ">100 requests (non-censored users)".to_string(),
            format!("{:.1}%", an * 100.0),
        ]);
        let h = self.censored_requests_histogram();
        let dist: Vec<String> = h
            .bins()
            .take(9)
            .map(|(lo, n)| format!("{lo}:{n}"))
            .collect();
        t.row([
            "Censored-requests-per-user histogram".to_string(),
            dist.join(" "),
        ]);
        t.render()
    }
}

impl crate::registry::Analysis for UserStats {
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
        let other: UserStats = crate::registry::downcast(other);
        for (k, v) in other.users {
            let c = self.users.entry(k).or_default();
            c.total += v.total;
            c.censored += v.censored;
        }
    }

    fn headline(&self) -> u64 {
        self.censored_user_count() as u64
    }

    fn render(&self, _ctx: &crate::AnalysisContext) -> String {
        UserStats::render(self)
    }

    fn save_state(&self, w: &mut filterscope_core::ByteWriter) {
        crate::state::put_keyed(
            w,
            &self.users,
            |k| k,
            |w, c: &UserCounts| {
                w.put_u64(c.total);
                w.put_u64(c.censored);
            },
        );
    }

    fn load_state(
        &mut self,
        r: &mut filterscope_core::ByteReader<'_>,
    ) -> filterscope_core::Result<()> {
        let loaded = crate::state::get_keyed(r, Ok, |r| {
            Ok(UserCounts {
                total: r.get_u64()?,
                censored: r.get_u64()?,
            })
        })?;
        crate::registry::Analysis::merge(self, Box::new(UserStats { users: loaded }));
        Ok(())
    }

    fn export_json(&self, _ctx: &crate::AnalysisContext) -> Option<filterscope_core::Json> {
        use filterscope_core::Json;
        let mut obj = Json::object();
        obj.push("users", Json::UInt(self.user_count() as u64));
        obj.push(
            "censored_user_share",
            Json::Float(self.censored_user_fraction()),
        );
        Some(obj)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{feed, Analysis};
    use filterscope_core::{ProxyId, Timestamp};
    use filterscope_logformat::record::RecordBuilder;
    use filterscope_logformat::{ClientId, LogRecord, RequestUrl};

    fn rec(user: u64, ua: &str, censored: bool) -> LogRecord {
        let b = RecordBuilder::new(
            Timestamp::parse_fields("2011-07-22", "09:00:00").unwrap(),
            ProxyId::Sg42,
            RequestUrl::http("x.com", "/"),
        )
        .client(ClientId::Hashed(user))
        .user_agent(ua);
        if censored {
            b.policy_denied().build()
        } else {
            b.build()
        }
    }

    #[test]
    fn users_keyed_by_client_and_agent() {
        let mut s = UserStats::new();
        feed(
            &mut s,
            &[
                rec(1, "UA-A", false),
                rec(1, "UA-A", false),
                rec(1, "UA-B", false),
            ],
        ); // same hash, different agent
        feed(&mut s, &[rec(2, "UA-A", false)]);
        assert_eq!(s.user_count(), 3);
    }

    #[test]
    fn zeroed_clients_are_excluded() {
        let mut s = UserStats::new();
        let r = RecordBuilder::new(
            Timestamp::parse_fields("2011-08-02", "09:00:00").unwrap(),
            ProxyId::Sg42,
            RequestUrl::http("x.com", "/"),
        )
        .build();
        feed(&mut s, &[r]);
        assert_eq!(s.user_count(), 0);
    }

    #[test]
    fn censored_user_detection() {
        let mut s = UserStats::new();
        for _ in 0..10 {
            feed(&mut s, &[rec(1, "A", false)]);
        }
        feed(&mut s, &[rec(1, "A", true)]);
        for _ in 0..5 {
            feed(&mut s, &[rec(2, "A", false)]);
        }
        assert_eq!(s.censored_user_count(), 1);
        assert!((s.censored_user_fraction() - 0.5).abs() < 1e-9);
        let h = s.censored_requests_histogram();
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn activity_split() {
        let mut s = UserStats::new();
        // Censored user with 150 requests.
        for _ in 0..150 {
            feed(&mut s, &[rec(1, "A", false)]);
        }
        feed(&mut s, &[rec(1, "A", true)]);
        // Clean user with 10 requests.
        for _ in 0..10 {
            feed(&mut s, &[rec(2, "A", false)]);
        }
        let (ac, an) = s.active_fraction(100);
        assert_eq!(ac, 1.0);
        assert_eq!(an, 0.0);
        let rendered = s.render();
        assert!(rendered.contains("Censored users"));
    }

    #[test]
    fn merge_sums_per_user() {
        let mut a = UserStats::new();
        feed(&mut a, &[rec(7, "A", false)]);
        let mut b = UserStats::new();
        feed(&mut b, &[rec(7, "A", true)]);
        a.merge(Box::new(b));
        assert_eq!(a.user_count(), 1);
        assert_eq!(a.censored_user_count(), 1);
    }
}
