//! Fig. 3: category distribution of censored traffic.
//!
//! The proxies had no working category database (`cs-categories` is
//! `unavailable`/`none` everywhere), so like the paper we join censored
//! hosts against an external category oracle (the paper used McAfee
//! TrustedSource; here, [`filterscope_categorizer::CategoryDb`]). Following
//! the paper, this runs on the 4 % sample.

use crate::context::AnalysisContext;
use crate::datasets::in_sample;
use crate::report::{count_pct, Table};
use filterscope_categorizer::Category;
use filterscope_logformat::{RecordView, RequestClass};
use filterscope_stats::CountMap;

/// Censored-category accumulator (Dsample).
#[derive(Debug, Clone, Default)]
pub struct CategoryStats {
    pub censored: CountMap<Category>,
}

impl CategoryStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sample membership is derived here, for censored records only, rather
    /// than read from a column computed for every record.
    fn add(&mut self, ctx: &AnalysisContext, record: &RecordView<'_>, class: RequestClass) {
        if class != RequestClass::Censored || !in_sample(record) {
            return;
        }
        self.censored
            .bump(ctx.categories.categorize(record.url.host));
    }

    /// Category shares, descending, with small categories folded into
    /// `Other` when below `fold_below` requests (the paper folds <1k).
    pub fn distribution(&self, fold_below: u64) -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> = Vec::new();
        let mut other = 0u64;
        for (cat, n) in self.censored.sorted() {
            if n < fold_below && cat != Category::Unknown {
                other += n;
            } else {
                out.push((cat.name().to_string(), n));
            }
        }
        if other > 0 {
            out.push(("Other".to_string(), other));
        }
        out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        out
    }

    /// Render the Fig. 3 data.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            "Fig 3: Category distribution of censored traffic (Dsample)",
            &["Category", "Censored requests"],
        );
        let total = self.censored.total();
        for (name, n) in self.distribution(0) {
            t.row([name, count_pct(n, total)]);
        }
        t.render()
    }
}

impl crate::registry::Analysis for CategoryStats {
    fn ingest_block(
        &mut self,
        ctx: &crate::AnalysisContext,
        block: &[RecordView<'_>],
        derived: &crate::Derived<'_>,
    ) {
        for (i, record) in block.iter().enumerate() {
            self.add(ctx, record, derived.class(i));
        }
    }

    fn merge(&mut self, other: Box<dyn crate::registry::Analysis>) {
        let other: CategoryStats = crate::registry::downcast(other);
        self.censored.merge(other.censored);
    }

    fn headline(&self) -> u64 {
        self.censored.total()
    }

    fn render(&self, _ctx: &AnalysisContext) -> String {
        CategoryStats::render(self)
    }

    fn save_state(&self, w: &mut filterscope_core::ByteWriter) {
        let mut items: Vec<(&'static str, u64)> =
            self.censored.iter().map(|(c, n)| (c.name(), n)).collect();
        items.sort_unstable();
        crate::state::put_len(w, items.len());
        for (name, n) in items {
            w.put_str(name);
            w.put_u64(n);
        }
    }

    fn load_state(
        &mut self,
        r: &mut filterscope_core::ByteReader<'_>,
    ) -> filterscope_core::Result<()> {
        let n = crate::state::get_len(r)?;
        for _ in 0..n {
            let cat = Category::from_name(r.get_str()?)
                .ok_or_else(|| crate::state::corrupt("unknown category name"))?;
            self.censored.add(cat, r.get_u64()?);
        }
        Ok(())
    }

    fn export_json(&self, _ctx: &AnalysisContext) -> Option<filterscope_core::Json> {
        use crate::export::{share_array, shares};
        use filterscope_core::Json;
        let total = self.censored.total();
        let mut obj = Json::object();
        obj.push(
            "censored_categories",
            share_array(&shares(self.distribution(0), total)),
        );
        Some(obj)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::feed_with;
    use filterscope_core::{ProxyId, Timestamp};
    use filterscope_logformat::record::RecordBuilder;
    use filterscope_logformat::{LogRecord, RequestUrl};

    fn ctx() -> AnalysisContext {
        AnalysisContext::standard(None)
    }

    fn censored(host: &str, salt: u32) -> LogRecord {
        // Vary the path so roughly 4% land in the sample.
        RecordBuilder::new(
            Timestamp::parse_fields("2011-08-02", "09:00:00").unwrap(),
            ProxyId::Sg42,
            RequestUrl::http(host, format!("/p{salt}")),
        )
        .policy_denied()
        .build()
    }

    #[test]
    fn only_sampled_censored_records_count() {
        let ctx = ctx();
        let mut c = CategoryStats::new();
        let mut ingested = 0u64;
        for i in 0..5000 {
            let r = censored("metacafe.com", i);
            if in_sample(&r.as_view()) {
                ingested += 1;
            }
            feed_with(&ctx, &mut c, &[r]);
        }
        assert_eq!(c.censored.total(), ingested);
        assert!(ingested > 100, "sample too small: {ingested}");
        assert_eq!(c.censored.get(&Category::StreamingMedia), ingested);
    }

    #[test]
    fn allowed_records_are_ignored() {
        let ctx = ctx();
        let mut c = CategoryStats::new();
        let r = RecordBuilder::new(
            Timestamp::parse_fields("2011-08-02", "09:00:00").unwrap(),
            ProxyId::Sg42,
            RequestUrl::http("metacafe.com", "/"),
        )
        .build();
        feed_with(&ctx, &mut c, &vec![r; 100]);
        assert_eq!(c.censored.total(), 0);
    }

    #[test]
    fn folding_into_other() {
        let ctx = ctx();
        let mut c = CategoryStats::new();
        for i in 0..3000 {
            feed_with(&ctx, &mut c, &[censored("skype.com", i)]);
        }
        for i in 0..2000 {
            feed_with(&ctx, &mut c, &[censored("badoo.com", i)]);
        }
        // Folding everything: all but Unknown collapses into Other.
        let dist = c.distribution(1_000_000);
        assert!(dist.iter().any(|(n, _)| n == "Other"));
        let unfolded = c.distribution(0);
        assert!(unfolded.iter().any(|(n, _)| n == "Instant Messaging"));
        assert!(unfolded.iter().any(|(n, _)| n == "Social Networking"));
    }
}
