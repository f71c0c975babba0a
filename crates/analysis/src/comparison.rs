//! Cross-corpus comparison: did the censorship change?
//!
//! The paper closes by noting Syrian filtering kept evolving (Tor blocked
//! wholesale from December 2012). Given two analyzed corpora — two time
//! windows, two vantage points, or simulation vs. reality — this module
//! reports which headline proportions differ *significantly*, using
//! two-proportion z-tests rather than eyeballing percentages.

use crate::report::Table;
use crate::suite::AnalysisSuite;
use filterscope_stats::proportion::two_proportion_z;

/// One compared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricComparison {
    pub metric: String,
    /// (successes, total) on each side.
    pub a: (u64, u64),
    pub b: (u64, u64),
    /// z statistic (None when untestable).
    pub z: Option<f64>,
}

impl MetricComparison {
    /// Share on side A.
    pub fn share_a(&self) -> f64 {
        if self.a.1 == 0 {
            0.0
        } else {
            self.a.0 as f64 / self.a.1 as f64
        }
    }

    /// Share on side B.
    pub fn share_b(&self) -> f64 {
        if self.b.1 == 0 {
            0.0
        } else {
            self.b.0 as f64 / self.b.1 as f64
        }
    }

    /// Significant at 95 %?
    pub fn significant(&self) -> bool {
        self.z.is_some_and(|z| z.abs() > 1.96)
    }
}

/// The full comparison of two analyzed corpora.
#[derive(Debug, Clone)]
pub struct Comparison {
    pub metrics: Vec<MetricComparison>,
    /// Keywords recovered on one side only.
    pub keywords_only_a: Vec<String>,
    pub keywords_only_b: Vec<String>,
    /// Suspected domains recovered on one side only.
    pub domains_only_a: Vec<String>,
    pub domains_only_b: Vec<String>,
}

/// Compare two analyzed suites.
pub fn compare(a: &AnalysisSuite, b: &AnalysisSuite) -> Comparison {
    let mut metrics = Vec::new();
    let mut push = |metric: &str, sa: (u64, u64), sb: (u64, u64)| {
        metrics.push(MetricComparison {
            metric: metric.to_string(),
            a: sa,
            b: sb,
            z: two_proportion_z(sa.0, sa.1, sb.0, sb.1),
        });
    };

    let ta = a.overview().total.full;
    let tb = b.overview().total.full;
    push(
        "censored share",
        (a.overview().censored_full(), ta),
        (b.overview().censored_full(), tb),
    );
    push(
        "allowed share",
        (a.overview().allowed.full, ta),
        (b.overview().allowed.full, tb),
    );
    push(
        "error share",
        (a.overview().errors_full(), ta),
        (b.overview().errors_full(), tb),
    );
    push(
        "proxied share",
        (a.overview().proxied.full, ta),
        (b.overview().proxied.full, tb),
    );
    push(
        "HTTPS share",
        (a.https().https_requests, a.https().total_requests),
        (b.https().https_requests, b.https().total_requests),
    );
    push(
        "Tor censored share",
        (a.tor().censored, a.tor().total),
        (b.tor().censored, b.tor().total),
    );
    push(
        "BT censored share",
        (a.bittorrent().censored_announces, a.bittorrent().announces),
        (b.bittorrent().censored_announces, b.bittorrent().announces),
    );
    push(
        "censored-user share",
        (
            a.users().censored_user_count() as u64,
            a.users().user_count() as u64,
        ),
        (
            b.users().censored_user_count() as u64,
            b.users().user_count() as u64,
        ),
    );

    let ka = a.inference().recover_keywords(a.min_support, 3);
    let kb = b.inference().recover_keywords(b.min_support, 3);
    let da: Vec<String> = a
        .inference()
        .recover_domains(a.min_support)
        .into_iter()
        .map(|(d, _)| d)
        .collect();
    let db: Vec<String> = b
        .inference()
        .recover_domains(b.min_support)
        .into_iter()
        .map(|(d, _)| d)
        .collect();
    let only = |x: &[String], y: &[String]| -> Vec<String> {
        x.iter().filter(|v| !y.contains(v)).cloned().collect()
    };
    Comparison {
        keywords_only_a: only(&ka, &kb),
        keywords_only_b: only(&kb, &ka),
        domains_only_a: only(&da, &db),
        domains_only_b: only(&db, &da),
        metrics,
    }
}

impl Comparison {
    /// Render the comparison report.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            "Corpus comparison (two-proportion z-tests, 95%)",
            &["Metric", "A", "B", "z", "Significant"],
        );
        for m in &self.metrics {
            t.row([
                m.metric.clone(),
                format!("{:.4}%", m.share_a() * 100.0),
                format!("{:.4}%", m.share_b() * 100.0),
                m.z.map(|z| format!("{z:+.2}"))
                    .unwrap_or_else(|| "-".into()),
                if m.significant() { "YES" } else { "no" }.to_string(),
            ]);
        }
        let mut out = t.render();
        if !(self.keywords_only_a.is_empty() && self.keywords_only_b.is_empty()) {
            out.push_str(&format!(
                "keywords only in A: {:?}\nkeywords only in B: {:?}\n",
                self.keywords_only_a, self.keywords_only_b
            ));
        }
        if !(self.domains_only_a.is_empty() && self.domains_only_b.is_empty()) {
            out.push_str(&format!(
                "domains only in A: {:?}\ndomains only in B: {:?}\n",
                self.domains_only_a, self.domains_only_b
            ));
        }
        out
    }

    /// The metrics that differ significantly.
    pub fn significant_metrics(&self) -> Vec<&MetricComparison> {
        self.metrics.iter().filter(|m| m.significant()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::AnalysisContext;
    use filterscope_core::{ProxyId, Timestamp};
    use filterscope_logformat::record::RecordBuilder;
    use filterscope_logformat::RequestUrl;

    fn suite_with_censor_rate(per_mille: u32, n: u32) -> AnalysisSuite {
        let ctx = AnalysisContext::standard(None);
        let mut suite = AnalysisSuite::new(1);
        let records: Vec<_> = (0..n)
            .map(|i| {
                let b = RecordBuilder::new(
                    Timestamp::parse_fields("2011-08-03", "09:00:00").unwrap(),
                    ProxyId::Sg42,
                    RequestUrl::http(format!("h{}.example", i % 50), "/"),
                );
                if (i * 997) % 1000 < per_mille {
                    b.policy_denied().build()
                } else {
                    b.build()
                }
            })
            .collect();
        suite.ingest_records(&ctx, &records);
        suite
    }

    #[test]
    fn detects_a_censorship_increase() {
        let a = suite_with_censor_rate(10, 20_000);
        let b = suite_with_censor_rate(40, 20_000);
        let cmp = compare(&a, &b);
        let censored = cmp
            .metrics
            .iter()
            .find(|m| m.metric == "censored share")
            .unwrap();
        assert!(censored.significant(), "z = {:?}", censored.z);
        assert!(censored.share_a() < censored.share_b());
        assert!(cmp.render().contains("YES"));
    }

    #[test]
    fn identical_corpora_show_no_significance() {
        let a = suite_with_censor_rate(10, 20_000);
        let b = suite_with_censor_rate(10, 20_000);
        let cmp = compare(&a, &b);
        assert!(
            cmp.significant_metrics().is_empty(),
            "{:?}",
            cmp.significant_metrics()
        );
        assert!(cmp.keywords_only_a.is_empty());
    }

    #[test]
    fn policy_set_diffs_are_reported() {
        let ctx = AnalysisContext::standard(None);
        let mut a = AnalysisSuite::new(3);
        let mut b = AnalysisSuite::new(3);
        let censored = |host: &str| {
            RecordBuilder::new(
                Timestamp::parse_fields("2011-08-03", "09:00:00").unwrap(),
                ProxyId::Sg42,
                RequestUrl::http(host, "/"),
            )
            .policy_denied()
            .build()
        };
        a.ingest_records(&ctx, vec![censored("badoo.com"); 10]);
        b.ingest_records(&ctx, vec![censored("netlog.com"); 10]);
        let cmp = compare(&a, &b);
        assert_eq!(cmp.domains_only_a, vec!["badoo.com".to_string()]);
        assert_eq!(cmp.domains_only_b, vec!["netlog.com".to_string()]);
    }
}
