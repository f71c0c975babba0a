//! Table 4 (top allowed/censored domains) and Fig. 2 (requests-per-domain
//! distribution).

use crate::report::{count_pct, Table};
use filterscope_core::{Interner, Sym};
use filterscope_logformat::url::base_domain_of;
use filterscope_logformat::{RecordView, RequestClass};
use filterscope_stats::counter::top_n_by_count;
use filterscope_stats::powerlaw::{fit_domain_alpha, frequency_of_frequencies};
use filterscope_stats::CountMap;

/// Accumulator over per-class domain counts.
///
/// Domains are interned: each per-class map counts `Sym` keys into one
/// shared string table, so the millionth request for `facebook.com` costs a
/// hash lookup, not a fresh `String`. Symbols are shard-local —
/// [`DomainStats::merge`] remaps the absorbed shard's symbols through
/// [`Interner::absorb_remap`] — and every read-out resolves symbols back to
/// `&str` before any name comparison, keeping output independent of intern
/// order.
#[derive(Debug, Clone, Default)]
pub struct DomainStats {
    interner: Interner,
    allowed: CountMap<Sym>,
    denied: CountMap<Sym>,
    censored: CountMap<Sym>,
    proxied: CountMap<Sym>,
}

impl DomainStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ingest one record (aggregating by base domain).
    pub fn ingest(&mut self, record: &RecordView<'_>) {
        let sym = self.interner.intern(&base_domain_of(record.url.host));
        match RequestClass::of_view(record) {
            RequestClass::Allowed => self.allowed.bump(sym),
            RequestClass::Proxied => self.proxied.bump(sym),
            RequestClass::Censored => {
                self.censored.bump(sym);
                self.denied.bump(sym);
            }
            RequestClass::Error => self.denied.bump(sym),
        }
    }

    /// Merge a shard, remapping its symbols into this table.
    pub fn merge(&mut self, other: DomainStats) {
        let remap = self.interner.absorb_remap(&other.interner);
        for (map, other_map) in [
            (&mut self.allowed, other.allowed),
            (&mut self.denied, other.denied),
            (&mut self.censored, other.censored),
            (&mut self.proxied, other.proxied),
        ] {
            for (sym, count) in other_map.iter() {
                map.add(remap[sym.index()], count);
            }
        }
    }

    fn map_of(&self, class: RequestClass) -> &CountMap<Sym> {
        match class {
            RequestClass::Allowed => &self.allowed,
            RequestClass::Censored => &self.censored,
            RequestClass::Proxied => &self.proxied,
            RequestClass::Error => &self.denied,
        }
    }

    /// Count for one domain in one class (0 when absent).
    pub fn count(&self, class: RequestClass, domain: &str) -> u64 {
        self.interner
            .get(domain)
            .map_or(0, |sym| self.map_of(class).get(&sym))
    }

    /// Total requests counted for one class.
    pub fn total(&self, class: RequestClass) -> u64 {
        self.map_of(class).total()
    }

    /// Top `n` by count descending, ties by domain name — never by symbol
    /// id, which depends on intern order. Only the tie band at the `n`-th
    /// count is resolved (see [`top_n_by_count`]).
    fn top_resolved(&self, map: &CountMap<Sym>, n: usize) -> Vec<(String, u64)> {
        top_n_by_count(map.iter().map(|(sym, count)| (*sym, count)), n, |sym| {
            self.interner.resolve(*sym)
        })
        .into_iter()
        .map(|(sym, count)| (self.interner.resolve(sym).to_string(), count))
        .collect()
    }

    /// Top-`n` allowed domains with counts.
    pub fn top_allowed(&self, n: usize) -> Vec<(String, u64)> {
        self.top_resolved(&self.allowed, n)
    }

    /// Top-`n` censored domains with counts.
    pub fn top_censored(&self, n: usize) -> Vec<(String, u64)> {
        self.top_resolved(&self.censored, n)
    }

    /// Fig. 2 series for one class: `(requests, #domains with that count)`.
    pub fn request_distribution(&self, class: RequestClass) -> Vec<(u64, u64)> {
        frequency_of_frequencies(self.map_of(class))
    }

    /// Power-law exponent of the allowed requests-per-domain distribution.
    pub fn allowed_alpha(&self, xmin: u64) -> Option<f64> {
        fit_domain_alpha(&self.allowed, xmin)
    }

    /// Render Table 4.
    pub fn render_table4(&self) -> String {
        let mut t = Table::new(
            "Table 4: Top-10 domains (allowed and censored)",
            &[
                "Allowed domain",
                "# Requests (%)",
                "Censored domain",
                "# Requests (%)",
            ],
        );
        let a = self.top_allowed(10);
        let c = self.top_censored(10);
        let at = self.allowed.total();
        let ct = self.censored.total();
        for i in 0..10 {
            let (ad, ac) = a
                .get(i)
                .map(|(d, n)| (d.clone(), count_pct(*n, at)))
                .unwrap_or_default();
            let (cd, cc) = c
                .get(i)
                .map(|(d, n)| (d.clone(), count_pct(*n, ct)))
                .unwrap_or_default();
            t.row([ad, ac, cd, cc]);
        }
        t.render()
    }

    /// Render the Fig. 2 data as text (log-log plot input).
    pub fn render_fig2(&self) -> String {
        let mut t = Table::new(
            "Fig 2: Requests-per-domain distribution (first 12 points per class)",
            &["Class", "requests -> #domains"],
        );
        for (label, class) in [
            ("Allowed", RequestClass::Allowed),
            ("Denied", RequestClass::Error),
            ("Censored", RequestClass::Censored),
        ] {
            let pts = self.request_distribution(class);
            let shown: Vec<String> = pts
                .iter()
                .take(12)
                .map(|(r, d)| format!("{r}->{d}"))
                .collect();
            t.row([label.to_string(), shown.join(" ")]);
        }
        if let Some(alpha) = self.allowed_alpha(5) {
            t.row(["alpha (allowed, xmin=5)".to_string(), format!("{alpha:.2}")]);
        }
        t.render()
    }
}

impl crate::registry::Analysis for DomainStats {
    fn key(&self) -> &'static str {
        "domains"
    }

    fn title(&self) -> &'static str {
        "Domain popularity"
    }

    fn ingest(&mut self, _ctx: &crate::AnalysisContext, record: &RecordView<'_>) {
        DomainStats::ingest(self, record);
    }

    fn merge(&mut self, other: Box<dyn crate::registry::Analysis>) {
        DomainStats::merge(self, crate::registry::downcast(other));
    }

    fn render(&self, _ctx: &crate::AnalysisContext) -> String {
        let mut out = self.render_fig2();
        out.push('\n');
        out.push_str(&self.render_table4());
        out
    }

    fn save_state(&self, w: &mut filterscope_core::ByteWriter) {
        for map in [&self.allowed, &self.denied, &self.censored, &self.proxied] {
            crate::state::put_sym_counts(w, &self.interner, map);
        }
    }

    fn load_state(
        &mut self,
        r: &mut filterscope_core::ByteReader<'_>,
    ) -> filterscope_core::Result<()> {
        let allowed = crate::state::get_sym_counts(r, &mut self.interner)?;
        let denied = crate::state::get_sym_counts(r, &mut self.interner)?;
        let censored = crate::state::get_sym_counts(r, &mut self.interner)?;
        let proxied = crate::state::get_sym_counts(r, &mut self.interner)?;
        self.allowed.merge(allowed);
        self.denied.merge(denied);
        self.censored.merge(censored);
        self.proxied.merge(proxied);
        Ok(())
    }

    fn export_json(&self, _ctx: &crate::AnalysisContext) -> Option<filterscope_core::Json> {
        use crate::export::{share_array, shares};
        use filterscope_core::Json;
        let mut obj = Json::object();
        obj.push(
            "top_allowed_domains",
            share_array(&shares(
                self.top_allowed(10),
                self.total(RequestClass::Allowed),
            )),
        );
        obj.push(
            "top_censored_domains",
            share_array(&shares(
                self.top_censored(10),
                self.total(RequestClass::Censored),
            )),
        );
        obj.push(
            "allowed_domain_alpha",
            match self.allowed_alpha(5) {
                Some(alpha) => Json::Float(alpha),
                None => Json::Null,
            },
        );
        Some(obj)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use filterscope_core::{ProxyId, Timestamp};
    use filterscope_logformat::record::RecordBuilder;
    use filterscope_logformat::{LogRecord, RequestUrl};

    fn rec(host: &str, censored: bool) -> LogRecord {
        let b = RecordBuilder::new(
            Timestamp::parse_fields("2011-08-02", "09:00:00").unwrap(),
            ProxyId::Sg42,
            RequestUrl::http(host, "/"),
        );
        if censored {
            b.policy_denied().build()
        } else {
            b.build()
        }
    }

    #[test]
    fn aggregates_by_base_domain() {
        let mut d = DomainStats::new();
        d.ingest(&rec("www.facebook.com", true).as_view());
        d.ingest(&rec("ar-ar.facebook.com", true).as_view());
        d.ingest(&rec("www.google.com", false).as_view());
        assert_eq!(d.count(RequestClass::Censored, "facebook.com"), 2);
        assert_eq!(d.count(RequestClass::Allowed, "google.com"), 1);
        // Censored counts double into the denied map.
        assert_eq!(d.count(RequestClass::Error, "facebook.com"), 2);
    }

    #[test]
    fn top_n_ordering() {
        let mut d = DomainStats::new();
        for _ in 0..5 {
            d.ingest(&rec("metacafe.com", true).as_view());
        }
        d.ingest(&rec("skype.com", true).as_view());
        let top = d.top_censored(2);
        assert_eq!(top[0].0, "metacafe.com");
        assert_eq!(top[0].1, 5);
    }

    #[test]
    fn distribution_counts_domains_not_requests() {
        let mut d = DomainStats::new();
        for _ in 0..3 {
            d.ingest(&rec("a.com", false).as_view());
        }
        d.ingest(&rec("b.com", false).as_view());
        d.ingest(&rec("c.com", false).as_view());
        let dist = d.request_distribution(RequestClass::Allowed);
        assert_eq!(dist, vec![(1, 2), (3, 1)]);
    }

    #[test]
    fn renders_ten_rows() {
        let mut d = DomainStats::new();
        d.ingest(&rec("x.com", false).as_view());
        d.ingest(&rec("y.com", true).as_view());
        let s = d.render_table4();
        assert!(s.contains("x.com"));
        assert!(s.contains("y.com"));
        assert_eq!(s.lines().count(), 3 + 10);
    }

    #[test]
    fn merge_combines_maps() {
        let mut a = DomainStats::new();
        a.ingest(&rec("m.com", true).as_view());
        let mut b = DomainStats::new();
        b.ingest(&rec("m.com", true).as_view());
        a.merge(b);
        assert_eq!(a.count(RequestClass::Censored, "m.com"), 2);
    }
}
