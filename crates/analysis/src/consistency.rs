//! Log-internal consistency checks.
//!
//! §3.3 of the paper spends real effort on the leak's internal
//! inconsistencies — notably `PROXIED` rows for consistently-censored URLs
//! that carry no exception. This module systematizes that methodology: a
//! per-record linter for combinations that should not co-occur, and an
//! accumulator that reports how often each anomaly appears in a corpus.
//! Run against the simulator's output it quantifies the modelled
//! inconsistency; run against a real leak it is a data-quality triage tool.

use crate::report::{count_pct, Table};
use filterscope_logformat::{ExceptionId, FilterResult, RecordView, SAction};
use filterscope_stats::CountMap;

/// A record-level anomaly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Anomaly {
    /// `OBSERVED` together with an exception id.
    ObservedWithException,
    /// `DENIED` with no exception at all.
    DeniedWithoutException,
    /// `PROXIED` row carrying a policy exception (the cache replaying a
    /// censored outcome — §3.3's explicit caveat).
    ProxiedWithPolicyException,
    /// `policy_redirect` exception without the redirect `s-action`.
    RedirectWithoutRedirectAction,
    /// Served response (`2xx`/`3xx`) on a policy-censored record.
    SuccessStatusOnCensored,
    /// A denied record reporting body bytes sent to the client.
    BytesOnDenied,
    /// `Blocked sites` category on a record that is not censored.
    BlockedCategoryNotCensored,
}

impl Anomaly {
    /// Every anomaly, in wire-tag order (the snapshot-state encoding relies
    /// on this order staying stable; append new anomalies at the end).
    pub const ALL: [Anomaly; 7] = [
        Anomaly::ObservedWithException,
        Anomaly::DeniedWithoutException,
        Anomaly::ProxiedWithPolicyException,
        Anomaly::RedirectWithoutRedirectAction,
        Anomaly::SuccessStatusOnCensored,
        Anomaly::BytesOnDenied,
        Anomaly::BlockedCategoryNotCensored,
    ];

    /// Human label.
    pub fn label(self) -> &'static str {
        match self {
            Anomaly::ObservedWithException => "OBSERVED with exception",
            Anomaly::DeniedWithoutException => "DENIED without exception",
            Anomaly::ProxiedWithPolicyException => "PROXIED with policy exception",
            Anomaly::RedirectWithoutRedirectAction => "policy_redirect without redirect action",
            Anomaly::SuccessStatusOnCensored => "2xx status on censored record",
            Anomaly::BytesOnDenied => "sc-bytes > 0 on denied record",
            Anomaly::BlockedCategoryNotCensored => "'Blocked sites' category on non-censored",
        }
    }
}

/// Lint one record; returns every anomaly it exhibits.
pub fn lint(record: &RecordView<'_>) -> Vec<Anomaly> {
    let mut out = Vec::new();
    let has_exception = !record.exception_is_none();
    match record.filter_result {
        FilterResult::Observed => {
            if has_exception {
                out.push(Anomaly::ObservedWithException);
            }
        }
        FilterResult::Denied => {
            if !has_exception {
                out.push(Anomaly::DeniedWithoutException);
            }
        }
        FilterResult::Proxied => {
            if record.exception_is_policy() {
                out.push(Anomaly::ProxiedWithPolicyException);
            }
        }
    }
    if record.exception == ExceptionId::PolicyRedirect.as_str()
        && record.filter_result == FilterResult::Denied
        && record.s_action != SAction::TcpPolicyRedirect.as_str()
    {
        out.push(Anomaly::RedirectWithoutRedirectAction);
    }
    if record.filter_result == FilterResult::Denied
        && record.exception == ExceptionId::PolicyDenied.as_str()
        && (200..300).contains(&record.sc_status)
    {
        out.push(Anomaly::SuccessStatusOnCensored);
    }
    // A 302 redirect legitimately carries a small body; only denials and
    // errors should be body-less.
    if record.filter_result == FilterResult::Denied
        && record.exception != ExceptionId::PolicyRedirect.as_str()
        && record.sc_bytes > 0
    {
        out.push(Anomaly::BytesOnDenied);
    }
    if record.categories.contains("Blocked sites") && !record.exception_is_policy() {
        out.push(Anomaly::BlockedCategoryNotCensored);
    }
    out
}

/// Corpus-level anomaly accumulator.
#[derive(Debug, Clone, Default)]
pub struct ConsistencyStats {
    pub total: u64,
    pub anomalies: CountMap<Anomaly>,
}

impl ConsistencyStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records exhibiting a given anomaly.
    pub fn count(&self, a: Anomaly) -> u64 {
        self.anomalies.get(&a)
    }

    /// Render the anomaly report.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            "Log-consistency anomalies (§3.3 methodology)",
            &["Anomaly", "Records"],
        );
        for (a, n) in self.anomalies.sorted() {
            t.row([a.label().to_string(), count_pct(n, self.total)]);
        }
        if self.anomalies.is_empty() {
            t.row(["(none)".to_string(), "0".to_string()]);
        }
        t.render()
    }
}

impl crate::registry::Analysis for ConsistencyStats {
    fn ingest_block(
        &mut self,
        _ctx: &crate::AnalysisContext,
        block: &[RecordView<'_>],
        _derived: &crate::Derived<'_>,
    ) {
        self.total += block.len() as u64;
        for record in block {
            for a in lint(record) {
                self.anomalies.bump(a);
            }
        }
    }

    fn merge(&mut self, other: Box<dyn crate::registry::Analysis>) {
        let other: ConsistencyStats = crate::registry::downcast(other);
        self.total += other.total;
        self.anomalies.merge(other.anomalies);
    }

    fn headline(&self) -> u64 {
        self.total
    }

    fn render(&self, _ctx: &crate::AnalysisContext) -> String {
        ConsistencyStats::render(self)
    }

    fn export_json(&self, _ctx: &crate::AnalysisContext) -> Option<filterscope_core::Json> {
        use crate::export::{share_array, shares};
        use filterscope_core::Json;
        let anomalies = shares(
            self.anomalies
                .sorted()
                .into_iter()
                .map(|(a, n)| (a.label().to_string(), n))
                .collect(),
            self.total,
        );
        let mut obj = Json::object();
        obj.push("anomalies", share_array(&anomalies));
        Some(obj)
    }

    fn save_state(&self, w: &mut filterscope_core::ByteWriter) {
        w.put_u64(self.total);
        crate::state::put_u64_counts(w, &self.anomalies, |a| {
            Anomaly::ALL
                .iter()
                .position(|x| *x == a)
                .expect("catalogued") as u64
        });
    }

    fn load_state(
        &mut self,
        r: &mut filterscope_core::ByteReader<'_>,
    ) -> filterscope_core::Result<()> {
        self.total += r.get_u64()?;
        self.anomalies.merge(crate::state::get_u64_counts(r, |v| {
            Anomaly::ALL
                .get(v as usize)
                .copied()
                .ok_or_else(|| crate::state::corrupt("unknown anomaly tag"))
        })?);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{feed, Analysis};
    use filterscope_core::{ProxyId, Timestamp};
    use filterscope_logformat::record::RecordBuilder;
    use filterscope_logformat::RequestUrl;

    fn base() -> RecordBuilder {
        RecordBuilder::new(
            Timestamp::parse_fields("2011-08-02", "09:00:00").unwrap(),
            ProxyId::Sg42,
            RequestUrl::http("x.com", "/"),
        )
    }

    #[test]
    fn clean_records_have_no_anomalies() {
        assert!(lint(&base().build().as_view()).is_empty());
        assert!(lint(&base().policy_denied().build().as_view()).is_empty());
        assert!(lint(&base().policy_redirect().build().as_view()).is_empty());
        assert!(lint(&base().proxied().build().as_view()).is_empty());
        assert!(lint(
            &base()
                .network_error(ExceptionId::TcpError)
                .build()
                .as_view()
        )
        .is_empty());
    }

    #[test]
    fn proxied_with_policy_exception_is_flagged() {
        let r = base()
            .proxied()
            .exception(ExceptionId::PolicyDenied)
            .build();
        assert_eq!(
            lint(&r.as_view()),
            vec![Anomaly::ProxiedWithPolicyException]
        );
    }

    #[test]
    fn observed_with_exception_is_flagged() {
        let r = base().exception(ExceptionId::TcpError).build();
        assert!(lint(&r.as_view()).contains(&Anomaly::ObservedWithException));
    }

    #[test]
    fn redirect_without_action_is_flagged() {
        let mut r = base().policy_redirect().build();
        r.s_action = filterscope_logformat::SAction::TcpDenied;
        assert!(lint(&r.as_view()).contains(&Anomaly::RedirectWithoutRedirectAction));
    }

    #[test]
    fn bytes_on_denied_and_success_on_censored() {
        let mut r = base().policy_denied().build();
        r.sc_bytes = 512;
        r.sc_status = 200;
        // A redirect with bytes is NOT anomalous.
        let redirect = base().policy_redirect().build();
        assert!(!lint(&redirect.as_view()).contains(&Anomaly::BytesOnDenied));
        let anomalies = lint(&r.as_view());
        assert!(anomalies.contains(&Anomaly::BytesOnDenied));
        assert!(anomalies.contains(&Anomaly::SuccessStatusOnCensored));
    }

    #[test]
    fn blocked_category_on_allowed_is_flagged() {
        let r = base().categories("Blocked sites; unavailable").build();
        assert!(lint(&r.as_view()).contains(&Anomaly::BlockedCategoryNotCensored));
    }

    #[test]
    fn accumulator_counts_and_renders() {
        let mut s = ConsistencyStats::new();
        feed(
            &mut s,
            &[
                base().build(),
                base()
                    .proxied()
                    .exception(ExceptionId::PolicyDenied)
                    .build(),
            ],
        );
        assert_eq!(s.total, 2);
        assert_eq!(s.count(Anomaly::ProxiedWithPolicyException), 1);
        assert!(s.render().contains("PROXIED with policy exception"));
        let mut other = ConsistencyStats::new();
        feed(
            &mut other,
            &[base().exception(ExceptionId::TcpError).build()],
        );
        s.merge(Box::new(other));
        assert_eq!(s.total, 3);
        assert_eq!(s.count(Anomaly::ObservedWithException), 1);
    }
}
