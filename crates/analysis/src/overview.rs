//! Table 3: the filter-result × exception breakdown across datasets.

use crate::datasets::{in_denied_dataset, in_user_dataset};
use crate::report::{count_pct, Table};
use filterscope_logformat::{ExceptionId, FilterResult, RecordView};

/// Index of the four Table 1 datasets tracked per cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetCol {
    Full,
    Sample,
    User,
    Denied,
}

/// One row's counts across the four dataset columns.
#[derive(Debug, Clone, Copy, Default)]
pub struct RowCounts {
    pub full: u64,
    pub sample: u64,
    pub user: u64,
    pub denied: u64,
}

impl RowCounts {
    fn add(&mut self, record: &RecordView<'_>, sample: bool) {
        self.full += 1;
        if sample {
            self.sample += 1;
        }
        if in_user_dataset(record) {
            self.user += 1;
        }
        if in_denied_dataset(record) {
            self.denied += 1;
        }
    }

    fn merge(&mut self, o: &RowCounts) {
        self.full += o.full;
        self.sample += o.sample;
        self.user += o.user;
        self.denied += o.denied;
    }
}

/// Table 3 accumulator.
#[derive(Debug, Clone, Default)]
pub struct TrafficOverview {
    /// OBSERVED with no exception → Allowed.
    pub allowed: RowCounts,
    /// PROXIED (total).
    pub proxied: RowCounts,
    /// DENIED (total).
    pub denied_total: RowCounts,
    /// DENIED split by exception, keyed in Table 3 order.
    pub by_exception: Vec<(ExceptionId, RowCounts)>,
    /// Grand totals.
    pub total: RowCounts,
}

impl TrafficOverview {
    /// Empty accumulator with the Table 3 exception rows pre-seeded.
    pub fn new() -> Self {
        TrafficOverview {
            by_exception: ExceptionId::CATALOGUE
                .iter()
                .map(|e| (e.clone(), RowCounts::default()))
                .collect(),
            ..Default::default()
        }
    }

    fn add(&mut self, record: &RecordView<'_>, sample: bool) {
        self.total.add(record, sample);
        match record.filter_result {
            FilterResult::Proxied => self.proxied.add(record, sample),
            FilterResult::Observed => {
                if record.exception_is_none() {
                    self.allowed.add(record, sample);
                } else {
                    // Degenerate combination; count it under its exception.
                    self.count_exception(record, sample);
                }
            }
            FilterResult::Denied => {
                self.denied_total.add(record, sample);
                self.count_exception(record, sample);
            }
        }
    }

    fn count_exception(&mut self, record: &RecordView<'_>, sample: bool) {
        // Match on the raw spelling; allocate an `ExceptionId` only for the
        // first sighting of a long-tail exception.
        if let Some((_, counts)) = self
            .by_exception
            .iter_mut()
            .find(|(k, _)| k.as_str() == record.exception)
        {
            counts.add(record, sample);
        } else {
            self.by_exception.push((record.exception_id(), {
                let mut c = RowCounts::default();
                c.add(record, sample);
                c
            }));
        }
    }

    /// Censored counts (policy exceptions) in the full dataset.
    pub fn censored_full(&self) -> u64 {
        self.by_exception
            .iter()
            .filter(|(e, _)| e.is_policy())
            .map(|(_, c)| c.full)
            .sum()
    }

    /// Error counts (non-policy exceptions) in the full dataset.
    pub fn errors_full(&self) -> u64 {
        self.by_exception
            .iter()
            .filter(|(e, _)| e.is_error())
            .map(|(_, c)| c.full)
            .sum()
    }

    /// Render Table 3.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            "Table 3: Decisions and exceptions across datasets",
            &["Row", "Class", "Full", "Sample", "User", "Denied"],
        );
        let tot = &self.total;
        let cell = |c: &RowCounts| {
            [
                count_pct(c.full, tot.full),
                count_pct(c.sample, tot.sample),
                count_pct(c.user, tot.user),
                count_pct(c.denied, tot.denied),
            ]
        };
        let [f, s, u, d] = cell(&self.allowed);
        t.row(["OBSERVED / -", "Allowed", &f, &s, &u, &d]);
        let [f, s, u, d] = cell(&self.proxied);
        t.row(["PROXIED (total)", "Proxied", &f, &s, &u, &d]);
        let [f, s, u, d] = cell(&self.denied_total);
        t.row(["DENIED (total)", "Denied", &f, &s, &u, &d]);
        for (e, counts) in &self.by_exception {
            let class = if e.is_policy() { "Censored" } else { "Error" };
            let [f, s, u, d] = cell(counts);
            t.row([&format!("  {e}"), class, &f, &s, &u, &d]);
        }
        t.render()
    }
}

impl crate::registry::Analysis for TrafficOverview {
    fn ingest_block(
        &mut self,
        _ctx: &crate::AnalysisContext,
        block: &[RecordView<'_>],
        derived: &crate::Derived<'_>,
    ) {
        for (i, record) in block.iter().enumerate() {
            self.add(record, derived.in_sample(i));
        }
    }

    fn merge(&mut self, other: Box<dyn crate::registry::Analysis>) {
        let other: TrafficOverview = crate::registry::downcast(other);
        self.allowed.merge(&other.allowed);
        self.proxied.merge(&other.proxied);
        self.denied_total.merge(&other.denied_total);
        self.total.merge(&other.total);
        for (e, counts) in other.by_exception {
            if let Some((_, mine)) = self.by_exception.iter_mut().find(|(k, _)| *k == e) {
                mine.merge(&counts);
            } else {
                self.by_exception.push((e, counts));
            }
        }
    }

    fn headline(&self) -> u64 {
        let o = &self.denied_total;
        o.full + o.sample + o.user + o.denied
    }

    fn render(&self, _ctx: &crate::AnalysisContext) -> String {
        TrafficOverview::render(self)
    }

    fn save_state(&self, w: &mut filterscope_core::ByteWriter) {
        let put_row = |w: &mut filterscope_core::ByteWriter, c: &RowCounts| {
            w.put_u64(c.full);
            w.put_u64(c.sample);
            w.put_u64(c.user);
            w.put_u64(c.denied);
        };
        put_row(w, &self.allowed);
        put_row(w, &self.proxied);
        put_row(w, &self.denied_total);
        put_row(w, &self.total);
        // Exception rows travel in table order: the row order of long-tail
        // exceptions is accumulated state (it shapes the render), so it is
        // preserved verbatim rather than sorted.
        crate::state::put_len(w, self.by_exception.len());
        for (e, c) in &self.by_exception {
            w.put_str(e.as_str());
            put_row(w, c);
        }
    }

    fn load_state(
        &mut self,
        r: &mut filterscope_core::ByteReader<'_>,
    ) -> filterscope_core::Result<()> {
        let get_row =
            |r: &mut filterscope_core::ByteReader<'_>| -> filterscope_core::Result<RowCounts> {
                Ok(RowCounts {
                    full: r.get_u64()?,
                    sample: r.get_u64()?,
                    user: r.get_u64()?,
                    denied: r.get_u64()?,
                })
            };
        self.allowed.merge(&get_row(r)?);
        self.proxied.merge(&get_row(r)?);
        self.denied_total.merge(&get_row(r)?);
        self.total.merge(&get_row(r)?);
        let n = crate::state::get_len(r)?;
        for _ in 0..n {
            let e = ExceptionId::parse(r.get_str()?);
            let counts = get_row(r)?;
            if let Some((_, mine)) = self.by_exception.iter_mut().find(|(k, _)| *k == e) {
                mine.merge(&counts);
            } else {
                self.by_exception.push((e, counts));
            }
        }
        Ok(())
    }

    fn export_json(&self, _ctx: &crate::AnalysisContext) -> Option<filterscope_core::Json> {
        use filterscope_core::Json;
        let total = self.total.full;
        let ratio = |n: u64| {
            if total == 0 {
                0.0
            } else {
                n as f64 / total as f64
            }
        };
        let mut obj = Json::object();
        obj.push("total_requests", Json::UInt(total));
        obj.push("allowed_share", Json::Float(ratio(self.allowed.full)));
        obj.push("proxied_share", Json::Float(ratio(self.proxied.full)));
        obj.push("error_share", Json::Float(ratio(self.errors_full())));
        obj.push("censored_share", Json::Float(ratio(self.censored_full())));
        Some(obj)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{feed, Analysis};
    use filterscope_core::{ProxyId, Timestamp};
    use filterscope_logformat::record::RecordBuilder;
    use filterscope_logformat::RequestUrl;

    fn base(host: &str) -> RecordBuilder {
        RecordBuilder::new(
            Timestamp::parse_fields("2011-08-02", "09:00:00").unwrap(),
            ProxyId::Sg43,
            RequestUrl::http(host, "/"),
        )
    }

    #[test]
    fn rows_partition_the_traffic() {
        let mut o = TrafficOverview::new();
        feed(
            &mut o,
            &[
                base("a.com").build(),
                base("b.com").policy_denied().build(),
                base("c.com").network_error(ExceptionId::TcpError).build(),
                base("d.com").proxied().build(),
            ],
        );
        assert_eq!(o.total.full, 4);
        assert_eq!(o.allowed.full, 1);
        assert_eq!(o.proxied.full, 1);
        assert_eq!(o.denied_total.full, 2);
        assert_eq!(o.censored_full(), 1);
        assert_eq!(o.errors_full(), 1);
        // Allowed + Proxied + Denied = total.
        assert_eq!(
            o.allowed.full + o.proxied.full + o.denied_total.full,
            o.total.full
        );
    }

    #[test]
    fn proxied_with_exception_counts_in_denied_dataset_only() {
        let mut o = TrafficOverview::new();
        feed(
            &mut o,
            &[base("x.com")
                .proxied()
                .exception(ExceptionId::PolicyDenied)
                .build()],
        );
        assert_eq!(o.proxied.full, 1);
        assert_eq!(o.proxied.denied, 1);
        assert_eq!(o.denied_total.full, 0);
        // Policy exception counted via the PROXIED row, not the DENIED rows
        // (Table 3 lists exception rows under DENIED only).
        assert_eq!(o.censored_full(), 0);
    }

    #[test]
    fn unknown_exception_grows_the_table() {
        let mut o = TrafficOverview::new();
        feed(
            &mut o,
            &[base("y.com")
                .network_error(ExceptionId::Other("icap_error".into()))
                .build()],
        );
        assert!(o
            .by_exception
            .iter()
            .any(|(e, c)| e.as_str() == "icap_error" && c.full == 1));
    }

    #[test]
    fn merge_combines_rows() {
        let mut a = TrafficOverview::new();
        feed(&mut a, &[base("a.com").build()]);
        let mut b = TrafficOverview::new();
        feed(&mut b, &[base("b.com").policy_denied().build()]);
        a.merge(Box::new(b));
        assert_eq!(a.total.full, 2);
        assert_eq!(a.censored_full(), 1);
    }

    #[test]
    fn render_contains_expected_rows() {
        let mut o = TrafficOverview::new();
        feed(&mut o, &[base("a.com").build()]);
        let s = o.render();
        assert!(s.contains("OBSERVED / -"));
        assert!(s.contains("policy_denied"));
        assert!(s.contains("tcp_error"));
    }
}
