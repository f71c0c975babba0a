//! §5.2: comparing the seven proxies — Fig. 7 (load shares over time) and
//! Table 6 (cosine similarity of censored-domain vectors).

use crate::report::Table;
use filterscope_core::{Date, Interner, ProxyId, Sym, TimeOfDay, Timestamp};
use filterscope_logformat::url::base_domain_of;
use filterscope_logformat::{RecordView, RequestClass};
use filterscope_stats::similarity::similarity_matrix;
use filterscope_stats::TimeSeries;
use std::collections::HashMap;

/// Per-proxy traffic and censored-domain accumulators.
///
/// Domain and category-label keys are interned into one shared string
/// table ([`Sym`] keys); its `merge` remaps the absorbed shard's
/// symbols, and renders resolve back to strings before sorting.
#[derive(Debug)]
pub struct ProxyStats {
    /// Per-proxy all-traffic series over the Fig. 7 window (Aug 3–4, hourly).
    pub load: Vec<TimeSeries>,
    /// Per-proxy censored-traffic series over the same window.
    pub censored_load: Vec<TimeSeries>,
    /// Per-proxy censored-domain count vectors on the Table 6 day (Aug 3).
    censored_domains: Vec<HashMap<Sym, u64>>,
    /// Per-proxy `cs-categories` label counts (the "none"/"unavailable"
    /// split of §5.2).
    category_labels: Vec<HashMap<Sym, u64>>,
    interner: Interner,
    similarity_day: Date,
}

impl ProxyStats {
    /// Standard windows: Fig. 7 over Aug 3–4, Table 6 on Aug 3.
    pub fn standard() -> Self {
        let start = Timestamp::new(Date::new(2011, 8, 3).expect("static"), TimeOfDay::MIDNIGHT);
        let end = Timestamp::new(Date::new(2011, 8, 5).expect("static"), TimeOfDay::MIDNIGHT);
        ProxyStats {
            load: (0..7)
                .map(|_| TimeSeries::spanning(start, end, 3600))
                .collect(),
            censored_load: (0..7)
                .map(|_| TimeSeries::spanning(start, end, 3600))
                .collect(),
            censored_domains: vec![HashMap::new(); 7],
            category_labels: vec![HashMap::new(); 7],
            interner: Interner::new(),
            similarity_day: Date::new(2011, 8, 3).expect("static"),
        }
    }

    /// The base domain is derived here, for censored records of one day
    /// only, rather than read from a column computed for every record.
    fn add(&mut self, record: &RecordView<'_>, class: RequestClass) {
        let Some(proxy) = record.proxy() else { return };
        let i = proxy.index();
        let label = self.interner.intern(record.categories);
        *self.category_labels[i].entry(label).or_insert(0) += 1;
        self.load[i].record(record.timestamp);
        if class == RequestClass::Censored {
            self.censored_load[i].record(record.timestamp);
            if record.timestamp.date() == self.similarity_day {
                let sym = self.interner.intern(&base_domain_of(record.url.host));
                *self.censored_domains[i].entry(sym).or_insert(0) += 1;
            }
        }
    }

    /// Censored-domain count for one proxy on the similarity day.
    pub fn censored_domain_count(&self, proxy: ProxyId, domain: &str) -> u64 {
        self.interner.get(domain).map_or(0, |sym| {
            self.censored_domains[proxy.index()]
                .get(&sym)
                .copied()
                .unwrap_or(0)
        })
    }

    /// Distinct censored domains seen for one proxy on the similarity day.
    pub fn censored_domain_vector_len(&self, proxy: ProxyId) -> usize {
        self.censored_domains[proxy.index()].len()
    }

    /// Count of one `cs-categories` label for one proxy.
    pub fn category_label_count(&self, proxy: ProxyId, label: &str) -> u64 {
        self.interner.get(label).map_or(0, |sym| {
            self.category_labels[proxy.index()]
                .get(&sym)
                .copied()
                .unwrap_or(0)
        })
    }

    /// Table 6: the 7×7 cosine-similarity matrix.
    pub fn cosine_matrix(&self) -> Vec<Vec<f64>> {
        similarity_matrix(&self.censored_domains)
    }

    /// Share of censored traffic handled by `proxy` over the whole window.
    pub fn censored_share(&self, proxy: ProxyId) -> f64 {
        let total: u64 = self.censored_load.iter().map(|s| s.total()).sum();
        if total == 0 {
            return 0.0;
        }
        self.censored_load[proxy.index()].total() as f64 / total as f64
    }

    /// Share of all traffic handled by `proxy` over the window.
    pub fn load_share(&self, proxy: ProxyId) -> f64 {
        let total: u64 = self.load.iter().map(|s| s.total()).sum();
        if total == 0 {
            return 0.0;
        }
        self.load[proxy.index()].total() as f64 / total as f64
    }

    /// Render Table 6.
    pub fn render_table6(&self) -> String {
        let m = self.cosine_matrix();
        let headers: Vec<&str> = std::iter::once("")
            .chain(ProxyId::ALL.iter().map(|p| p.label()))
            .collect();
        let mut t = Table::new(
            "Table 6: Cosine similarity of censored domains across proxies (Aug 3)",
            &headers,
        );
        for (p, m_row) in ProxyId::ALL.iter().zip(&m) {
            let mut row = vec![p.label().to_string()];
            for v in m_row {
                row.push(format!("{v:.4}"));
            }
            t.row(row);
        }
        t.render()
    }

    /// Render Fig. 7 as per-proxy load shares (whole window + censored).
    pub fn render_fig7(&self) -> String {
        let mut t = Table::new(
            "Fig 7: Per-proxy share of traffic (Aug 3-4)",
            &["Proxy", "All traffic", "Censored traffic"],
        );
        for p in ProxyId::ALL {
            t.row([
                p.label().to_string(),
                format!("{:.1}%", self.load_share(p) * 100.0),
                format!("{:.1}%", self.censored_share(p) * 100.0),
            ]);
        }
        t.render()
    }

    /// Render the category-label split (§5.2's "none" vs "unavailable").
    pub fn render_category_labels(&self) -> String {
        // Resolve before sorting: label order must not depend on intern
        // order.
        let mut labels: Vec<&str> = self
            .category_labels
            .iter()
            .flat_map(|m| m.keys().map(|s| self.interner.resolve(*s)))
            .collect();
        labels.sort_unstable();
        labels.dedup();
        let headers: Vec<&str> = std::iter::once("Proxy")
            .chain(labels.iter().copied())
            .collect();
        let mut t = Table::new("cs-categories label usage per proxy", &headers);
        for (i, p) in ProxyId::ALL.iter().enumerate() {
            let mut row = vec![p.label().to_string()];
            for l in &labels {
                let n = self
                    .interner
                    .get(l)
                    .and_then(|sym| self.category_labels[i].get(&sym))
                    .copied()
                    .unwrap_or(0);
                row.push(n.to_string());
            }
            t.row(row);
        }
        t.render()
    }
}

impl Default for ProxyStats {
    fn default() -> Self {
        Self::standard()
    }
}

impl crate::registry::Analysis for ProxyStats {
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
        let other: ProxyStats = crate::registry::downcast(other);
        let remap = self.interner.absorb_remap(&other.interner);
        for i in 0..7 {
            self.load[i].merge(&other.load[i]);
            self.censored_load[i].merge(&other.censored_load[i]);
            for (k, v) in &other.censored_domains[i] {
                *self.censored_domains[i]
                    .entry(remap[k.index()])
                    .or_insert(0) += v;
            }
            for (k, v) in &other.category_labels[i] {
                *self.category_labels[i].entry(remap[k.index()]).or_insert(0) += v;
            }
        }
    }

    fn headline(&self) -> u64 {
        self.censored_load.iter().map(|series| series.total()).sum()
    }

    fn render(&self, _ctx: &crate::AnalysisContext) -> String {
        let mut out = self.render_fig7();
        out.push('\n');
        out.push_str(&self.render_table6());
        out.push('\n');
        out.push_str(&self.render_category_labels());
        out
    }

    fn export_json(&self, _ctx: &crate::AnalysisContext) -> Option<filterscope_core::Json> {
        use filterscope_core::Json;
        let mut obj = Json::object();
        obj.push(
            "sg48_censored_share",
            Json::Float(self.censored_share(ProxyId::Sg48)),
        );
        Some(obj)
    }

    fn save_state(&self, w: &mut filterscope_core::ByteWriter) {
        let put_sym_map = |w: &mut filterscope_core::ByteWriter, map: &HashMap<Sym, u64>| {
            let mut items: Vec<(&str, u64)> = map
                .iter()
                .map(|(s, n)| (self.interner.resolve(*s), *n))
                .collect();
            items.sort_unstable();
            crate::state::put_len(w, items.len());
            for (key, n) in items {
                w.put_str(key);
                w.put_u64(n);
            }
        };
        for series in self.load.iter().chain(self.censored_load.iter()) {
            crate::state::put_series(w, series);
        }
        for map in self
            .censored_domains
            .iter()
            .chain(self.category_labels.iter())
        {
            put_sym_map(w, map);
        }
    }

    fn load_state(
        &mut self,
        r: &mut filterscope_core::ByteReader<'_>,
    ) -> filterscope_core::Result<()> {
        for series in self.load.iter_mut().chain(self.censored_load.iter_mut()) {
            crate::state::get_series_into(r, series)?;
        }
        for i in 0..self.censored_domains.len() + self.category_labels.len() {
            let n = crate::state::get_len(r)?;
            for _ in 0..n {
                let sym = self.interner.intern(r.get_str()?);
                let count = r.get_u64()?;
                let map = if i < self.censored_domains.len() {
                    &mut self.censored_domains[i]
                } else {
                    &mut self.category_labels[i - self.censored_domains.len()]
                };
                *map.entry(sym).or_insert(0) += count;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::feed;
    use filterscope_logformat::record::RecordBuilder;
    use filterscope_logformat::{LogRecord, RequestUrl};

    fn rec(proxy: ProxyId, host: &str, censored: bool, date: &str) -> LogRecord {
        let b = RecordBuilder::new(
            Timestamp::parse_fields(date, "10:00:00").unwrap(),
            proxy,
            RequestUrl::http(host, "/"),
        );
        if censored {
            b.policy_denied().build()
        } else {
            b.build()
        }
    }

    #[test]
    fn similarity_reflects_domain_overlap() {
        let mut s = ProxyStats::standard();
        for _ in 0..10 {
            feed(
                &mut s,
                &[
                    rec(ProxyId::Sg42, "skype.com", true, "2011-08-03"),
                    rec(ProxyId::Sg43, "skype.com", true, "2011-08-03"),
                    rec(ProxyId::Sg48, "metacafe.com", true, "2011-08-03"),
                ],
            );
        }
        let m = s.cosine_matrix();
        assert!(m[0][1] > 0.99, "SG-42/43 should match: {}", m[0][1]);
        assert!(m[0][6] < 0.01, "SG-42/48 should differ: {}", m[0][6]);
        assert_eq!(m[0][0], 1.0);
    }

    #[test]
    fn similarity_ignores_other_days() {
        let mut s = ProxyStats::standard();
        feed(&mut s, &[rec(ProxyId::Sg42, "a.com", true, "2011-08-04")]);
        assert_eq!(s.censored_domain_vector_len(ProxyId::Sg42), 0);
        // But the load window does include Aug 4.
        assert_eq!(s.censored_load[0].total(), 1);
    }

    #[test]
    fn shares_sum_to_one() {
        let mut s = ProxyStats::standard();
        for p in ProxyId::ALL {
            feed(&mut s, &[rec(p, "x.com", false, "2011-08-03")]);
        }
        let sum: f64 = ProxyId::ALL.iter().map(|p| s.load_share(*p)).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn category_labels_tracked_per_proxy() {
        let mut s = ProxyStats::standard();
        feed(
            &mut s,
            &[
                rec(ProxyId::Sg48, "x.com", false, "2011-08-03"),
                rec(ProxyId::Sg42, "x.com", false, "2011-08-03"),
            ],
        );
        // RecordBuilder default category is "unavailable".
        assert_eq!(s.category_label_count(ProxyId::Sg48, "unavailable"), 1);
        let rendered = s.render_category_labels();
        assert!(rendered.contains("unavailable"));
    }

    #[test]
    fn renders() {
        let mut s = ProxyStats::standard();
        feed(
            &mut s,
            &[rec(ProxyId::Sg44, "tor-ish.com", true, "2011-08-03")],
        );
        assert!(s.render_table6().contains("SG-44"));
        assert!(s.render_fig7().contains("SG-48"));
    }
}
