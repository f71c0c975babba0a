//! A censorship "weather report": blacklist churn over time.
//!
//! The related work the paper builds on (ConceptDoppler, Crandall et al.,
//! CCS 2007) proposes tracking *what* is filtered *when*. This module
//! applies that idea to the leak: it runs the §5.4 recovery per day and
//! reports day-over-day policy churn — keywords/domains appearing or
//! disappearing — which is how the SG-44 Tor experiment of §7.1 shows up as
//! a policy event rather than noise.

use crate::filter_inference::FilterInference;
use crate::report::Table;
use filterscope_core::Date;
use filterscope_logformat::RecordView;
use std::collections::BTreeMap;

/// Per-day recovered policy and the diffs between consecutive days.
pub struct WeatherReport {
    /// One inference per observed day.
    days: BTreeMap<Date, FilterInference>,
    min_support: u64,
    min_domains: usize,
}

/// The recovered policy of one day.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DayPolicy {
    pub date: Date,
    pub keywords: Vec<String>,
    pub domains: Vec<String>,
}

/// A day-over-day change.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyDelta {
    pub date: Date,
    pub keywords_added: Vec<String>,
    pub keywords_removed: Vec<String>,
    pub domains_added: Vec<String>,
    pub domains_removed: Vec<String>,
}

impl PolicyDelta {
    /// Did anything change?
    pub fn is_empty(&self) -> bool {
        self.keywords_added.is_empty()
            && self.keywords_removed.is_empty()
            && self.domains_added.is_empty()
            && self.domains_removed.is_empty()
    }
}

impl WeatherReport {
    /// Track with the given §5.4 thresholds (per day).
    pub fn new(min_support: u64, min_domains: usize) -> Self {
        WeatherReport {
            days: BTreeMap::new(),
            min_support,
            min_domains,
        }
    }

    /// The recovered policy per day, in date order.
    pub fn daily_policies(&self) -> Vec<DayPolicy> {
        self.days
            .iter()
            .map(|(date, inf)| {
                let mut keywords = inf.recover_keywords(self.min_support, self.min_domains);
                keywords.sort();
                let mut domains: Vec<String> = inf
                    .recover_domains(self.min_support)
                    .into_iter()
                    .map(|(d, _)| d)
                    .collect();
                domains.sort();
                DayPolicy {
                    date: *date,
                    keywords,
                    domains,
                }
            })
            .collect()
    }

    /// Day-over-day deltas (first day has no delta).
    pub fn deltas(&self) -> Vec<PolicyDelta> {
        let policies = self.daily_policies();
        policies
            .windows(2)
            .map(|w| {
                let (prev, cur) = (&w[0], &w[1]);
                let diff = |a: &[String], b: &[String]| -> Vec<String> {
                    b.iter().filter(|x| !a.contains(x)).cloned().collect()
                };
                PolicyDelta {
                    date: cur.date,
                    keywords_added: diff(&prev.keywords, &cur.keywords),
                    keywords_removed: diff(&cur.keywords, &prev.keywords),
                    domains_added: diff(&prev.domains, &cur.domains),
                    domains_removed: diff(&cur.domains, &prev.domains),
                }
            })
            .collect()
    }

    /// Render the weather report.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            "Censorship weather report (per-day recovered policy)",
            &["Date", "Keywords", "Domains", "Changes vs previous day"],
        );
        let policies = self.daily_policies();
        let deltas = self.deltas();
        for (i, p) in policies.iter().enumerate() {
            let change = if i == 0 {
                "(baseline)".to_string()
            } else {
                let d = &deltas[i - 1];
                if d.is_empty() {
                    "stable".to_string()
                } else {
                    let mut parts = Vec::new();
                    if !d.keywords_added.is_empty() {
                        parts.push(format!("+kw {:?}", d.keywords_added));
                    }
                    if !d.keywords_removed.is_empty() {
                        parts.push(format!("-kw {:?}", d.keywords_removed));
                    }
                    if !d.domains_added.is_empty() {
                        parts.push(format!("+dom {:?}", d.domains_added));
                    }
                    if !d.domains_removed.is_empty() {
                        parts.push(format!("-dom {:?}", d.domains_removed));
                    }
                    parts.join(" ")
                }
            };
            t.row([
                p.date.to_string(),
                p.keywords.len().to_string(),
                p.domains.len().to_string(),
                change,
            ]);
        }
        t.render()
    }
}

impl crate::registry::Analysis for WeatherReport {
    fn ingest_block(
        &mut self,
        _ctx: &crate::AnalysisContext,
        block: &[RecordView<'_>],
        derived: &crate::Derived<'_>,
    ) {
        for (i, record) in block.iter().enumerate() {
            self.days
                .entry(record.timestamp.date())
                .or_insert_with(|| FilterInference::new(&[]))
                .add(record, derived.class(i), derived.policy(i), derived.base(i));
        }
    }

    fn merge(&mut self, other: Box<dyn crate::registry::Analysis>) {
        let other: WeatherReport = crate::registry::downcast(other);
        for (date, inference) in other.days {
            match self.days.get_mut(&date) {
                Some(mine) => mine.merge(inference),
                None => {
                    self.days.insert(date, inference);
                }
            }
        }
    }

    fn headline(&self) -> u64 {
        self.days.len() as u64
    }

    fn render(&self, _ctx: &crate::AnalysisContext) -> String {
        WeatherReport::render(self)
    }

    fn save_state(&self, w: &mut filterscope_core::ByteWriter) {
        crate::state::put_len(w, self.days.len());
        for (date, inference) in &self.days {
            w.put_u16(date.year());
            w.put_u8(date.month());
            w.put_u8(date.day());
            inference.save_state(w);
        }
    }

    fn load_state(
        &mut self,
        r: &mut filterscope_core::ByteReader<'_>,
    ) -> filterscope_core::Result<()> {
        let n = crate::state::get_len(r)?;
        for _ in 0..n {
            let (year, month, day) = (r.get_u16()?, r.get_u8()?, r.get_u8()?);
            let date =
                Date::new(year, month, day).map_err(|_| crate::state::corrupt("invalid date"))?;
            self.days
                .entry(date)
                .or_insert_with(|| FilterInference::new(&[]))
                .load_state(r)?;
        }
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

    fn rec(date: &str, host: &str, path: &str, censored: bool) -> LogRecord {
        let b = RecordBuilder::new(
            Timestamp::parse_fields(date, "09:00:00").unwrap(),
            ProxyId::Sg42,
            RequestUrl::http(host, path),
        );
        if censored {
            b.policy_denied().build()
        } else {
            b.build()
        }
    }

    #[test]
    fn detects_a_policy_change() {
        let mut w = WeatherReport::new(5, 3);
        // Day 1: only metacafe blocked.
        for i in 0..10 {
            feed(
                &mut w,
                &[
                    rec("2011-08-01", "metacafe.com", "/", true),
                    rec("2011-08-01", &format!("ok{i}.com"), "/", false),
                ],
            );
        }
        // Day 2: metacafe still blocked AND a keyword appears across domains.
        for i in 0..10 {
            feed(
                &mut w,
                &[
                    rec("2011-08-02", "metacafe.com", "/", true),
                    rec("2011-08-02", &format!("a{}.com", i % 4), "/x/proxy", true),
                    rec("2011-08-02", &format!("ok{i}.com"), "/", false),
                ],
            );
        }
        let policies = w.daily_policies();
        assert_eq!(policies.len(), 2);
        assert!(policies[0].keywords.is_empty());
        assert_eq!(policies[0].domains, vec!["metacafe.com".to_string()]);
        assert_eq!(policies[1].keywords, vec!["proxy".to_string()]);
        let deltas = w.deltas();
        assert_eq!(deltas.len(), 1);
        assert_eq!(deltas[0].keywords_added, vec!["proxy".to_string()]);
        assert!(deltas[0].domains_removed.is_empty());
        assert!(!deltas[0].is_empty());
        let rendered = w.render();
        assert!(rendered.contains("2011-08-02"));
        assert!(rendered.contains("+kw"));
    }

    #[test]
    fn stable_policy_reports_stable() {
        let mut w = WeatherReport::new(3, 3);
        for day in ["2011-08-01", "2011-08-02"] {
            for _ in 0..5 {
                feed(&mut w, &[rec(day, "badoo.com", "/", true)]);
            }
        }
        let deltas = w.deltas();
        assert_eq!(deltas.len(), 1);
        assert!(deltas[0].is_empty());
        assert!(w.render().contains("stable"));
    }

    #[test]
    fn merge_combines_days() {
        let mut a = WeatherReport::new(3, 3);
        let mut b = WeatherReport::new(3, 3);
        for _ in 0..3 {
            feed(&mut a, &[rec("2011-08-01", "badoo.com", "/", true)]);
            feed(
                &mut b,
                &[
                    rec("2011-08-01", "badoo.com", "/", true),
                    rec("2011-08-02", "netlog.com", "/", true),
                ],
            );
        }
        a.merge(Box::new(b));
        let policies = a.daily_policies();
        assert_eq!(policies.len(), 2);
        // Day 1 support is 3+3=6 after merge.
        assert_eq!(policies[0].domains, vec!["badoo.com".to_string()]);
    }
}
