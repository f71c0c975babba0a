//! §5.4 (IP-based censorship): Table 11 (censorship ratio per destination
//! country over `DIPv4`) and Table 12 (top censored Israeli subnets).

use crate::context::AnalysisContext;
use crate::report::Table;
use filterscope_core::Ipv4Cidr;
use filterscope_geoip::Country;
use filterscope_logformat::{RecordView, RequestClass};
use std::collections::{HashMap, HashSet};

/// Per-country counts over `DIPv4`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CountryCounts {
    pub censored: u64,
    pub allowed: u64,
}

/// Per-subnet counts for the Israeli drill-down.
#[derive(Debug, Clone, Default)]
pub struct SubnetCounts {
    pub censored: u64,
    pub allowed: u64,
    pub proxied: u64,
    pub censored_ips: HashSet<u32>,
    pub allowed_ips: HashSet<u32>,
}

/// Tables 11–12 accumulator.
#[derive(Debug, Default)]
pub struct IpCensorship {
    pub by_country: HashMap<Country, CountryCounts>,
    /// Unresolved addresses (not in the geo register).
    pub unresolved: CountryCounts,
    /// Israeli subnets under observation (Table 12's five).
    subnets: Vec<Ipv4Cidr>,
    pub by_subnet: Vec<SubnetCounts>,
}

impl IpCensorship {
    /// Track the standard Table 12 subnet list.
    pub fn standard() -> Self {
        let subnets: Vec<Ipv4Cidr> = filterscope_geoip::data::ISRAELI_SUBNETS
            .iter()
            .map(|s| Ipv4Cidr::parse(s).expect("static subnet"))
            .collect();
        IpCensorship {
            by_subnet: vec![SubnetCounts::default(); subnets.len()],
            subnets,
            ..Default::default()
        }
    }

    fn add(&mut self, ctx: &AnalysisContext, record: &RecordView<'_>, class: RequestClass) {
        let Some(ip) = record.url.host_ip() else {
            return;
        };
        let country = ctx.geo.lookup(ip);
        let counts = match country {
            Some(c) => self.by_country.entry(c).or_default(),
            None => &mut self.unresolved,
        };
        match class {
            RequestClass::Censored => counts.censored += 1,
            RequestClass::Allowed => counts.allowed += 1,
            _ => {}
        }
        for (block, sc) in self.subnets.iter().zip(self.by_subnet.iter_mut()) {
            if block.contains(ip) {
                match class {
                    RequestClass::Censored => {
                        sc.censored += 1;
                        sc.censored_ips.insert(u32::from(ip));
                    }
                    RequestClass::Allowed => {
                        sc.allowed += 1;
                        sc.allowed_ips.insert(u32::from(ip));
                    }
                    RequestClass::Proxied => sc.proxied += 1,
                    RequestClass::Error => {}
                }
            }
        }
    }

    /// Censorship ratios per country, descending (Table 11).
    pub fn censorship_ratios(&self) -> Vec<(Country, f64, u64, u64)> {
        let mut out: Vec<(Country, f64, u64, u64)> = self
            .by_country
            .iter()
            .filter(|(_, c)| c.censored + c.allowed > 0)
            .map(|(country, c)| {
                let total = c.censored + c.allowed;
                (
                    *country,
                    c.censored as f64 / total as f64 * 100.0,
                    c.censored,
                    c.allowed,
                )
            })
            .collect();
        // Full tie-break chain (count, then name) so row order never depends
        // on map iteration order — i.e. on how shards were merged.
        out.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| b.2.cmp(&a.2))
                .then_with(|| b.3.cmp(&a.3))
                .then_with(|| a.0.display_name().cmp(&b.0.display_name()))
        });
        out
    }

    /// Render Table 11.
    pub fn render_table11(&self) -> String {
        let mut t = Table::new(
            "Table 11: Censorship ratio per destination country (DIPv4)",
            &["Country", "Ratio (%)", "# Censored", "# Allowed"],
        );
        for (country, ratio, c, a) in self.censorship_ratios().into_iter().take(10) {
            t.row([
                country.display_name(),
                format!("{ratio:.2}"),
                c.to_string(),
                a.to_string(),
            ]);
        }
        t.render()
    }

    /// Render Table 12.
    pub fn render_table12(&self) -> String {
        let mut t = Table::new(
            "Table 12: Israeli subnets — censored vs allowed",
            &[
                "Subnet",
                "Censored req",
                "Censored IPs",
                "Allowed req",
                "Allowed IPs",
                "Proxied",
            ],
        );
        let mut rows: Vec<(String, &SubnetCounts)> = self
            .subnets
            .iter()
            .zip(self.by_subnet.iter())
            .map(|(b, c)| (b.to_string(), c))
            .collect();
        rows.sort_by_key(|(_, c)| std::cmp::Reverse(c.censored));
        for (subnet, c) in rows {
            t.row([
                subnet,
                c.censored.to_string(),
                c.censored_ips.len().to_string(),
                c.allowed.to_string(),
                c.allowed_ips.len().to_string(),
                c.proxied.to_string(),
            ]);
        }
        t.render()
    }
}

impl crate::registry::Analysis for IpCensorship {
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
        let other: IpCensorship = crate::registry::downcast(other);
        for (c, v) in other.by_country {
            let e = self.by_country.entry(c).or_default();
            e.censored += v.censored;
            e.allowed += v.allowed;
        }
        self.unresolved.censored += other.unresolved.censored;
        self.unresolved.allowed += other.unresolved.allowed;
        for (mine, theirs) in self.by_subnet.iter_mut().zip(other.by_subnet) {
            mine.censored += theirs.censored;
            mine.allowed += theirs.allowed;
            mine.proxied += theirs.proxied;
            mine.censored_ips.extend(theirs.censored_ips);
            mine.allowed_ips.extend(theirs.allowed_ips);
        }
    }

    fn headline(&self) -> u64 {
        self.by_country.values().map(|c| c.censored).sum()
    }

    fn render(&self, _ctx: &AnalysisContext) -> String {
        let mut out = self.render_table11();
        out.push('\n');
        out.push_str(&self.render_table12());
        out
    }

    fn export_json(&self, _ctx: &AnalysisContext) -> Option<filterscope_core::Json> {
        use crate::export::{share_array, Share};
        use filterscope_core::Json;
        let ratios: Vec<Share> = self
            .censorship_ratios()
            .into_iter()
            .map(|(country, ratio, censored, _)| Share {
                name: country.display_name(),
                count: censored,
                share: ratio / 100.0,
            })
            .collect();
        let mut obj = Json::object();
        obj.push("country_censorship_ratios", share_array(&ratios));
        Some(obj)
    }

    fn save_state(&self, w: &mut filterscope_core::ByteWriter) {
        // Countries pack into a u64 big-endian so the sorted-key order of
        // put_keyed matches Country's own byte ordering.
        fn pack(c: Country) -> u64 {
            let b = c.code().as_bytes();
            u64::from(b[0]) << 8 | u64::from(b[1])
        }
        crate::state::put_keyed(w, &self.by_country, pack, |w, c: &CountryCounts| {
            w.put_u64(c.censored);
            w.put_u64(c.allowed);
        });
        w.put_u64(self.unresolved.censored);
        w.put_u64(self.unresolved.allowed);
        crate::state::put_len(w, self.by_subnet.len());
        for sc in &self.by_subnet {
            w.put_u64(sc.censored);
            w.put_u64(sc.allowed);
            w.put_u64(sc.proxied);
            crate::state::put_u32_set(w, &sc.censored_ips);
            crate::state::put_u32_set(w, &sc.allowed_ips);
        }
    }

    fn load_state(
        &mut self,
        r: &mut filterscope_core::ByteReader<'_>,
    ) -> filterscope_core::Result<()> {
        fn unpack(v: u64) -> filterscope_core::Result<Country> {
            let bytes = [(v >> 8) as u8, v as u8];
            let code = std::str::from_utf8(&bytes)
                .map_err(|_| crate::state::corrupt("country code is not ASCII"))?;
            Country::new(code).map_err(|_| crate::state::corrupt("invalid country code"))
        }
        let by_country = crate::state::get_keyed(r, unpack, |r| {
            Ok(CountryCounts {
                censored: r.get_u64()?,
                allowed: r.get_u64()?,
            })
        })?;
        for (c, v) in by_country {
            let e = self.by_country.entry(c).or_default();
            e.censored += v.censored;
            e.allowed += v.allowed;
        }
        self.unresolved.censored += r.get_u64()?;
        self.unresolved.allowed += r.get_u64()?;
        let n = crate::state::get_len(r)?;
        if n != self.by_subnet.len() {
            return Err(crate::state::corrupt("subnet list mismatch"));
        }
        for sc in self.by_subnet.iter_mut() {
            sc.censored += r.get_u64()?;
            sc.allowed += r.get_u64()?;
            sc.proxied += r.get_u64()?;
            sc.censored_ips.extend(crate::state::get_u32_set(r)?);
            sc.allowed_ips.extend(crate::state::get_u32_set(r)?);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{feed_with, Analysis};
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
    fn israel_ranks_by_ratio_not_volume() {
        let ctx = AnalysisContext::standard(None);
        let mut s = IpCensorship::standard();
        // Israel: 2 censored, 1 allowed (67%).
        feed_with(
            &ctx,
            &mut s,
            &[
                rec("84.229.0.5", true),
                rec("84.229.0.6", true),
                rec("80.179.0.7", false),
            ],
        );
        // NL: huge but barely censored.
        for i in 0..100 {
            feed_with(
                &ctx,
                &mut s,
                &[rec(&format!("94.228.128.{}", i % 250), false)],
            );
        }
        feed_with(&ctx, &mut s, &[rec("94.228.129.9", true)]);
        let ratios = s.censorship_ratios();
        assert_eq!(ratios[0].0, Country::of("IL"));
        assert!(ratios[0].1 > 60.0);
        let nl = ratios
            .iter()
            .find(|(c, ..)| *c == Country::of("NL"))
            .unwrap();
        assert!(nl.1 < 2.0);
    }

    #[test]
    fn hostnames_are_ignored() {
        let ctx = AnalysisContext::standard(None);
        let mut s = IpCensorship::standard();
        feed_with(&ctx, &mut s, &[rec("facebook.com", true)]);
        assert!(s.by_country.is_empty());
    }

    #[test]
    fn subnet_drilldown_counts_ips_and_requests() {
        let ctx = AnalysisContext::standard(None);
        let mut s = IpCensorship::standard();
        feed_with(
            &ctx,
            &mut s,
            &[
                rec("84.229.1.1", true),
                rec("84.229.1.1", true),
                rec("84.229.1.2", true),
                rec("212.150.3.3", false),
            ],
        );
        let ix = filterscope_geoip::data::ISRAELI_SUBNETS
            .iter()
            .position(|b| *b == "84.229.0.0/16")
            .unwrap();
        assert_eq!(s.by_subnet[ix].censored, 3);
        assert_eq!(s.by_subnet[ix].censored_ips.len(), 2);
        let ix2 = filterscope_geoip::data::ISRAELI_SUBNETS
            .iter()
            .position(|b| *b == "212.150.0.0/16")
            .unwrap();
        assert_eq!(s.by_subnet[ix2].allowed, 1);
        let rendered = s.render_table12();
        assert!(rendered.contains("84.229.0.0/16"));
    }

    #[test]
    fn unresolved_space_is_tracked_separately() {
        let ctx = AnalysisContext::standard(None);
        let mut s = IpCensorship::standard();
        feed_with(&ctx, &mut s, &[rec("192.168.1.1", true)]);
        assert_eq!(s.unresolved.censored, 1);
        assert!(s.by_country.is_empty());
    }

    #[test]
    fn merge_combines() {
        let ctx = AnalysisContext::standard(None);
        let mut a = IpCensorship::standard();
        feed_with(&ctx, &mut a, &[rec("84.229.1.1", true)]);
        let mut b = IpCensorship::standard();
        feed_with(&ctx, &mut b, &[rec("84.229.1.1", false)]);
        a.merge(Box::new(b));
        let il = a.by_country[&Country::of("IL")];
        assert_eq!((il.censored, il.allowed), (1, 1));
    }

    #[test]
    fn render_table11_contains_israel() {
        let ctx = AnalysisContext::standard(None);
        let mut s = IpCensorship::standard();
        feed_with(&ctx, &mut s, &[rec("46.120.0.1", true)]);
        assert!(s.render_table11().contains("Israel"));
    }
}
