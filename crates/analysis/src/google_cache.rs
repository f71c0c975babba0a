//! §7.4: Google cache as an (accidental) circumvention channel.

use crate::report::Table;
use filterscope_logformat::{RecordView, RequestClass};
use filterscope_stats::CountMap;

/// The cache frontend host.
pub const CACHE_HOST: &str = "webcache.googleusercontent.com";

/// Hosts whose cached copies count as "otherwise censored content"
/// (the suspected-domain list's most prominent members).
const CENSORED_TARGETS: [&str; 6] = [
    "panet.co.il",
    "aawsat.com",
    "facebook.com/Syrian.Revolution",
    "free-syria.com",
    "all4syria.info",
    "SYRIANREVOLUTION",
];

/// §7.4 accumulator.
#[derive(Debug, Default)]
pub struct GoogleCacheStats {
    pub total: u64,
    pub censored: u64,
    /// Allowed cache fetches whose target is otherwise-censored content.
    pub censored_content_fetches: u64,
    /// Allowed fetches by target (for reporting).
    pub targets: CountMap<String>,
}

/// Extract the `cache:` target from the query, if present.
fn cache_target(query: &str) -> Option<&str> {
    for pair in query.split('&') {
        if let Some(v) = pair.strip_prefix("q=cache:") {
            return Some(v);
        }
    }
    None
}

impl GoogleCacheStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    fn add(&mut self, record: &RecordView<'_>, class: RequestClass) {
        if record.url.host != CACHE_HOST {
            return;
        }
        self.total += 1;
        match class {
            RequestClass::Censored => self.censored += 1,
            RequestClass::Allowed => {
                if let Some(target) = cache_target(record.url.query) {
                    if CENSORED_TARGETS.iter().any(|t| target.contains(t)) {
                        self.censored_content_fetches += 1;
                        self.targets.bump(target.to_string());
                    }
                }
            }
            _ => {}
        }
    }

    /// Render the §7.4 summary.
    pub fn render(&self) -> String {
        let mut t = Table::new("§7.4 Google cache usage", &["Metric", "Value"]);
        t.row(["Cache requests".to_string(), self.total.to_string()]);
        t.row([
            "Censored (keyword in URL)".to_string(),
            self.censored.to_string(),
        ]);
        t.row([
            "Allowed fetches of censored content".to_string(),
            self.censored_content_fetches.to_string(),
        ]);
        for (target, n) in self.targets.top_n(5) {
            t.row([format!("  cache:{target}"), n.to_string()]);
        }
        t.render()
    }
}

impl crate::registry::Analysis for GoogleCacheStats {
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
        let other: GoogleCacheStats = crate::registry::downcast(other);
        self.total += other.total;
        self.censored += other.censored;
        self.censored_content_fetches += other.censored_content_fetches;
        self.targets.merge(other.targets);
    }

    fn headline(&self) -> u64 {
        self.censored
    }

    fn render(&self, _ctx: &crate::AnalysisContext) -> String {
        GoogleCacheStats::render(self)
    }

    fn save_state(&self, w: &mut filterscope_core::ByteWriter) {
        w.put_u64(self.total);
        w.put_u64(self.censored);
        w.put_u64(self.censored_content_fetches);
        crate::state::put_str_counts(w, &self.targets);
    }

    fn load_state(
        &mut self,
        r: &mut filterscope_core::ByteReader<'_>,
    ) -> filterscope_core::Result<()> {
        self.total += r.get_u64()?;
        self.censored += r.get_u64()?;
        self.censored_content_fetches += r.get_u64()?;
        self.targets.merge(crate::state::get_str_counts(r)?);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::feed;
    use filterscope_core::{ProxyId, Timestamp};
    use filterscope_logformat::record::RecordBuilder;
    use filterscope_logformat::{LogRecord, RequestUrl};

    fn cache_rec(query: &str, censored: bool) -> LogRecord {
        let b = RecordBuilder::new(
            Timestamp::parse_fields("2011-08-02", "09:00:00").unwrap(),
            ProxyId::Sg42,
            RequestUrl::http(CACHE_HOST, "/search").with_query(query),
        );
        if censored {
            b.policy_denied().build()
        } else {
            b.build()
        }
    }

    #[test]
    fn counts_cache_traffic_and_censored_content() {
        let mut s = GoogleCacheStats::new();
        feed(
            &mut s,
            &[
                cache_rec("q=cache:www.panet.co.il/online/", false),
                cache_rec("q=cache:benign.example/page", false),
                cache_rec("q=cache:x+israel", true),
            ],
        );
        assert_eq!(s.total, 3);
        assert_eq!(s.censored, 1);
        assert_eq!(s.censored_content_fetches, 1);
        let out = s.render();
        assert!(out.contains("panet.co.il"));
    }

    #[test]
    fn other_hosts_ignored() {
        let mut s = GoogleCacheStats::new();
        let r = RecordBuilder::new(
            Timestamp::parse_fields("2011-08-02", "09:00:00").unwrap(),
            ProxyId::Sg42,
            RequestUrl::http("google.com", "/search").with_query("q=cache:panet.co.il"),
        )
        .build();
        feed(&mut s, &[r]);
        assert_eq!(s.total, 0);
    }

    #[test]
    fn target_extraction() {
        assert_eq!(
            cache_target("q=cache:site.com/page&hl=ar"),
            Some("site.com/page")
        );
        assert_eq!(cache_target("q=plain+search"), None);
    }
}
