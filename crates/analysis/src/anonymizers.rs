//! §7.2 / Fig. 10: web proxies and VPNs ("Anonymizer" services).
//!
//! Following the paper, this runs on the 4 % sample for the request counts
//! and identifies anonymizer hosts through the category oracle.

use crate::context::AnalysisContext;
use crate::report::Table;
use filterscope_core::{Interner, Sym};
use filterscope_logformat::{RecordView, RequestClass};
use filterscope_stats::Ecdf;
use std::collections::HashMap;

/// Per-host counts.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostCounts {
    pub allowed: u64,
    pub censored: u64,
}

/// Fig. 10 accumulator. Host keys are interned ([`Sym`]);
/// its `merge` remaps the absorbed shard's symbols.
#[derive(Debug, Default)]
pub struct AnonymizerStats {
    interner: Interner,
    hosts: HashMap<Sym, HostCounts>,
}

impl AnonymizerStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    fn add(
        &mut self,
        ctx: &AnalysisContext,
        record: &RecordView<'_>,
        class: RequestClass,
        sample: bool,
    ) {
        if !sample {
            return;
        }
        if !ctx.categories.is_anonymizer(record.url.host) {
            return;
        }
        let sym = self.interner.intern(record.url.host);
        let c = self.hosts.entry(sym).or_default();
        match class {
            RequestClass::Allowed => c.allowed += 1,
            RequestClass::Censored => c.censored += 1,
            _ => {}
        }
    }

    /// Hosts observed.
    pub fn host_count(&self) -> usize {
        self.hosts.len()
    }

    /// Counts for one host, if it was seen.
    pub fn host_counts(&self, host: &str) -> Option<HostCounts> {
        self.interner
            .get(host)
            .and_then(|sym| self.hosts.get(&sym))
            .copied()
    }

    /// Hosts never filtered, and their share (the paper: 92.7 %).
    pub fn never_filtered(&self) -> (usize, f64) {
        let n = self
            .hosts
            .values()
            .filter(|c| c.censored == 0 && c.allowed > 0)
            .count();
        let frac = if self.hosts.is_empty() {
            0.0
        } else {
            n as f64 / self.hosts.len() as f64
        };
        (n, frac)
    }

    /// Fig. 10(a): CDF of requests per never-filtered host.
    pub fn allowed_request_cdf(&self) -> Ecdf {
        Ecdf::from_samples(
            self.hosts
                .values()
                .filter(|c| c.censored == 0 && c.allowed > 0)
                .map(|c| c.allowed as f64),
        )
    }

    /// Fig. 10(b): CDF of allowed/censored ratios for partially-censored
    /// hosts.
    pub fn ratio_cdf(&self) -> Ecdf {
        Ecdf::from_samples(
            self.hosts
                .values()
                .filter(|c| c.censored > 0)
                .map(|c| c.allowed as f64 / c.censored as f64),
        )
    }

    /// Render the Fig. 10 summary.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            "Fig 10 / Anonymizer services (Dsample)",
            &["Metric", "Value"],
        );
        t.row([
            "Anonymizer hosts".to_string(),
            self.host_count().to_string(),
        ]);
        let (n, frac) = self.never_filtered();
        t.row([
            "Never filtered".to_string(),
            format!("{n} ({:.1}%)", frac * 100.0),
        ]);
        let total_requests: u64 = self.hosts.values().map(|c| c.allowed + c.censored).sum();
        t.row([
            "Requests to anonymizers".to_string(),
            total_requests.to_string(),
        ]);
        let cdf = self.allowed_request_cdf();
        if !cdf.is_empty() {
            t.row([
                "Hosts with >100 requests".to_string(),
                format!("{:.1}%", (1.0 - cdf.fraction_le(100.0)) * 100.0),
            ]);
        }
        let ratios = self.ratio_cdf();
        if !ratios.is_empty() {
            t.row([
                "Partially-censored hosts with allowed>censored".to_string(),
                format!("{:.1}%", (1.0 - ratios.fraction_le(1.0)) * 100.0),
            ]);
        }
        t.render()
    }
}

impl crate::registry::Analysis for AnonymizerStats {
    fn ingest_block(
        &mut self,
        ctx: &crate::AnalysisContext,
        block: &[RecordView<'_>],
        derived: &crate::Derived<'_>,
    ) {
        for (i, record) in block.iter().enumerate() {
            self.add(ctx, record, derived.class(i), derived.in_sample(i));
        }
    }

    fn merge(&mut self, other: Box<dyn crate::registry::Analysis>) {
        let other: AnonymizerStats = crate::registry::downcast(other);
        let remap = self.interner.absorb_remap(&other.interner);
        for (k, v) in other.hosts {
            let c = self.hosts.entry(remap[k.index()]).or_default();
            c.allowed += v.allowed;
            c.censored += v.censored;
        }
    }

    fn headline(&self) -> u64 {
        self.host_count() as u64
    }

    fn render(&self, _ctx: &AnalysisContext) -> String {
        AnonymizerStats::render(self)
    }

    fn export_json(&self, _ctx: &AnalysisContext) -> Option<filterscope_core::Json> {
        use filterscope_core::Json;
        let (_, never_filtered_share) = self.never_filtered();
        let mut obj = Json::object();
        obj.push("anonymizer_hosts", Json::UInt(self.host_count() as u64));
        obj.push(
            "anonymizer_never_filtered_share",
            Json::Float(never_filtered_share),
        );
        Some(obj)
    }

    fn save_state(&self, w: &mut filterscope_core::ByteWriter) {
        let mut hosts: Vec<(&str, &HostCounts)> = self
            .hosts
            .iter()
            .map(|(s, v)| (self.interner.resolve(*s), v))
            .collect();
        hosts.sort_unstable_by_key(|(k, _)| *k);
        crate::state::put_len(w, hosts.len());
        for (host, c) in hosts {
            w.put_str(host);
            w.put_u64(c.allowed);
            w.put_u64(c.censored);
        }
    }

    fn load_state(
        &mut self,
        r: &mut filterscope_core::ByteReader<'_>,
    ) -> filterscope_core::Result<()> {
        let n = crate::state::get_len(r)?;
        for _ in 0..n {
            let sym = self.interner.intern(r.get_str()?);
            let c = self.hosts.entry(sym).or_default();
            c.allowed += r.get_u64()?;
            c.censored += r.get_u64()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::feed_with;
    use filterscope_core::{ProxyId, Timestamp};
    use filterscope_logformat::record::RecordBuilder;
    use filterscope_logformat::{LogRecord, RequestUrl};

    fn rec(host: &str, path: &str, censored: bool) -> LogRecord {
        let b = RecordBuilder::new(
            Timestamp::parse_fields("2011-08-02", "09:00:00").unwrap(),
            ProxyId::Sg42,
            RequestUrl::http(host, path),
        );
        if censored {
            b.policy_denied().build()
        } else {
            b.build()
        }
    }

    fn ingest_many(
        s: &mut AnonymizerStats,
        ctx: &AnalysisContext,
        host: &str,
        n: u32,
        censored: bool,
    ) {
        // Vary paths so ~4% land in the sample; ingest enough to register.
        let records: Vec<_> = (0..n)
            .map(|i| rec(host, &format!("/p{i}"), censored))
            .collect();
        feed_with(ctx, s, &records);
    }

    #[test]
    fn only_anonymizer_hosts_counted() {
        let ctx = AnalysisContext::standard(None);
        let mut s = AnonymizerStats::new();
        ingest_many(&mut s, &ctx, "hidemyass.com", 500, false);
        ingest_many(&mut s, &ctx, "facebook.com", 500, false);
        assert!(s.host_counts("hidemyass.com").is_some());
        assert!(s.host_counts("facebook.com").is_none());
    }

    #[test]
    fn never_filtered_fraction() {
        let ctx = AnalysisContext::standard(None);
        let mut s = AnonymizerStats::new();
        ingest_many(&mut s, &ctx, "freegate.org", 800, false);
        ingest_many(&mut s, &ctx, "hotsptshld.com", 800, true);
        let (n, frac) = s.never_filtered();
        assert_eq!(n, 1);
        assert!((frac - 0.5).abs() < 1e-9);
        let ratios = s.ratio_cdf();
        assert_eq!(ratios.len(), 1);
    }

    #[test]
    fn renders() {
        let ctx = AnalysisContext::standard(None);
        let mut s = AnonymizerStats::new();
        ingest_many(&mut s, &ctx, "vtunnel.com", 400, false);
        let out = s.render();
        assert!(out.contains("Anonymizer hosts"));
    }
}
