//! §7.1: Tor usage and its (intermittent) censorship — Figs. 8 and 9.
//!
//! Tor traffic is identified by joining destination `(IP, port)` against
//! the relay index for the record's date, then split into `Tor_http`
//! (directory signaling) and `Tor_onion` (circuit traffic).

use crate::context::AnalysisContext;
use crate::report::Table;
use filterscope_core::{Date, ProxyId, TimeOfDay, Timestamp};
use filterscope_logformat::{RecordView, RequestClass};
use filterscope_stats::TimeSeries;
use filterscope_tor::signaling::{self, TorTrafficKind};
use std::collections::{HashMap, HashSet};

/// Figs. 8–9 accumulator over the August window.
#[derive(Debug)]
pub struct TorStats {
    origin: Timestamp,
    /// Tor requests per hour (Fig. 8a).
    pub hourly: TimeSeries,
    /// Censored Tor requests per hour.
    pub hourly_censored: TimeSeries,
    /// All SG-44 censored requests per hour (Fig. 8b comparison).
    pub sg44_censored: TimeSeries,
    /// All SG-44 requests per hour.
    pub sg44_all: TimeSeries,
    /// Relay addresses ever censored, and per-hour-bin allowed relay sets
    /// (Fig. 9's Rfilter inputs).
    pub censored_relays: HashSet<u32>,
    pub allowed_relays_per_hour: HashMap<i64, HashSet<u32>>,
    /// Counters.
    pub total: u64,
    pub http_signaling: u64,
    pub censored: u64,
    pub tcp_errors: u64,
    pub relays_seen: HashSet<u32>,
    pub censored_by_proxy: [u64; 7],
}

impl TorStats {
    /// Standard window: August 1–6.
    pub fn standard() -> Self {
        let start = Timestamp::new(Date::new(2011, 8, 1).expect("static"), TimeOfDay::MIDNIGHT);
        let end = Timestamp::new(Date::new(2011, 8, 7).expect("static"), TimeOfDay::MIDNIGHT);
        TorStats {
            origin: start,
            hourly: TimeSeries::spanning(start, end, 3600),
            hourly_censored: TimeSeries::spanning(start, end, 3600),
            sg44_censored: TimeSeries::spanning(start, end, 3600),
            sg44_all: TimeSeries::spanning(start, end, 3600),
            censored_relays: HashSet::new(),
            allowed_relays_per_hour: HashMap::new(),
            total: 0,
            http_signaling: 0,
            censored: 0,
            tcp_errors: 0,
            relays_seen: HashSet::new(),
            censored_by_proxy: [0; 7],
        }
    }

    fn add(&mut self, ctx: &AnalysisContext, record: &RecordView<'_>, class: RequestClass) {
        // Fig. 8b needs SG-44's overall profile regardless of Tor-ness.
        if record.proxy() == Some(ProxyId::Sg44) {
            self.sg44_all.record(record.timestamp);
            if class == RequestClass::Censored {
                self.sg44_censored.record(record.timestamp);
            }
        }
        let Some(relays) = &ctx.relays else { return };
        let Some(ip) = record.url.host_ip() else {
            return;
        };
        if !relays.contains(ip, record.url.port, record.timestamp.date()) {
            return;
        }
        // This is Tor traffic.
        self.total += 1;
        self.relays_seen.insert(u32::from(ip));
        self.hourly.record(record.timestamp);
        if signaling::classify(record.url.path) == TorTrafficKind::Http {
            self.http_signaling += 1;
        }
        let hour_bin = record.timestamp.bin_index(self.origin, 3600);
        match class {
            RequestClass::Censored => {
                self.censored += 1;
                self.hourly_censored.record(record.timestamp);
                self.censored_relays.insert(u32::from(ip));
                if let Some(p) = record.proxy() {
                    self.censored_by_proxy[p.index()] += 1;
                }
            }
            RequestClass::Error => self.tcp_errors += 1,
            _ => {
                self.allowed_relays_per_hour
                    .entry(hour_bin)
                    .or_default()
                    .insert(u32::from(ip));
            }
        }
    }

    /// Fig. 9: `Rfilter(k) = 1 − |Censored ∩ Allowed(k)| / |Censored|` per
    /// hour bin `k`. `None` for bins with no allowed Tor traffic.
    pub fn rfilter(&self) -> Vec<(i64, Option<f64>)> {
        let bins = self.hourly.bins().len() as i64;
        let censored = &self.censored_relays;
        (0..bins)
            .map(|k| {
                let r = self.allowed_relays_per_hour.get(&k).map(|allowed| {
                    if censored.is_empty() {
                        0.0
                    } else {
                        let overlap = censored.intersection(allowed).count();
                        1.0 - overlap as f64 / censored.len() as f64
                    }
                });
                (k, r)
            })
            .collect()
    }

    /// Share of censored Tor traffic on SG-44 (the paper: 99.9 %).
    pub fn sg44_share_of_censored(&self) -> f64 {
        let total: u64 = self.censored_by_proxy.iter().sum();
        if total == 0 {
            return 0.0;
        }
        self.censored_by_proxy[ProxyId::Sg44.index()] as f64 / total as f64
    }

    /// Render the §7.1 summary plus Fig. 8 hourly series (condensed).
    pub fn render(&self) -> String {
        let mut t = Table::new("Fig 8 / Tor usage (Aug 1-6)", &["Metric", "Value"]);
        t.row(["Tor requests".to_string(), self.total.to_string()]);
        t.row([
            "Distinct relays".to_string(),
            self.relays_seen.len().to_string(),
        ]);
        let pct = |n: u64| {
            if self.total == 0 {
                "0.00%".to_string()
            } else {
                format!("{:.2}%", n as f64 / self.total as f64 * 100.0)
            }
        };
        t.row(["Tor_http share".to_string(), pct(self.http_signaling)]);
        t.row(["Censored".to_string(), pct(self.censored)]);
        t.row(["TCP errors".to_string(), pct(self.tcp_errors)]);
        t.row([
            "Censored on SG-44".to_string(),
            format!("{:.1}%", self.sg44_share_of_censored() * 100.0),
        ]);
        let peak = self
            .hourly
            .peak()
            .map(|(i, v)| format!("{} ({v} req)", self.hourly.bin_start(i)))
            .unwrap_or_else(|| "-".into());
        t.row(["Peak hour".to_string(), peak]);
        // Rfilter variance summary (Fig. 9).
        let rf: Vec<f64> = self.rfilter().into_iter().filter_map(|(_, r)| r).collect();
        if !rf.is_empty() {
            let mean = rf.iter().sum::<f64>() / rf.len() as f64;
            let mn = rf.iter().cloned().fold(f64::INFINITY, f64::min);
            let mx = rf.iter().cloned().fold(0.0f64, f64::max);
            t.row([
                "Rfilter mean/min/max".to_string(),
                format!("{mean:.3} / {mn:.3} / {mx:.3}"),
            ]);
        }
        t.render()
    }
}

impl Default for TorStats {
    fn default() -> Self {
        Self::standard()
    }
}

impl crate::registry::Analysis for TorStats {
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
        let other: TorStats = crate::registry::downcast(other);
        self.hourly.merge(&other.hourly);
        self.hourly_censored.merge(&other.hourly_censored);
        self.sg44_censored.merge(&other.sg44_censored);
        self.sg44_all.merge(&other.sg44_all);
        self.censored_relays.extend(other.censored_relays);
        for (k, v) in other.allowed_relays_per_hour {
            self.allowed_relays_per_hour.entry(k).or_default().extend(v);
        }
        self.total += other.total;
        self.http_signaling += other.http_signaling;
        self.censored += other.censored;
        self.tcp_errors += other.tcp_errors;
        self.relays_seen.extend(other.relays_seen);
        for i in 0..7 {
            self.censored_by_proxy[i] += other.censored_by_proxy[i];
        }
    }

    fn headline(&self) -> u64 {
        self.censored
    }

    fn render(&self, _ctx: &AnalysisContext) -> String {
        TorStats::render(self)
    }

    fn export_json(&self, _ctx: &AnalysisContext) -> Option<filterscope_core::Json> {
        use filterscope_core::Json;
        let mut obj = Json::object();
        obj.push("tor_requests", Json::UInt(self.total));
        obj.push(
            "tor_http_share",
            Json::Float(if self.total == 0 {
                0.0
            } else {
                self.http_signaling as f64 / self.total as f64
            }),
        );
        obj.push(
            "tor_censored_sg44_share",
            Json::Float(self.sg44_share_of_censored()),
        );
        Some(obj)
    }

    fn save_state(&self, w: &mut filterscope_core::ByteWriter) {
        for s in [
            &self.hourly,
            &self.hourly_censored,
            &self.sg44_censored,
            &self.sg44_all,
        ] {
            crate::state::put_series(w, s);
        }
        crate::state::put_u32_set(w, &self.censored_relays);
        crate::state::put_keyed(
            w,
            &self.allowed_relays_per_hour,
            |k| k as u64,
            |w, set: &HashSet<u32>| crate::state::put_u32_set(w, set),
        );
        w.put_u64(self.total);
        w.put_u64(self.http_signaling);
        w.put_u64(self.censored);
        w.put_u64(self.tcp_errors);
        crate::state::put_u32_set(w, &self.relays_seen);
        for n in self.censored_by_proxy {
            w.put_u64(n);
        }
    }

    fn load_state(
        &mut self,
        r: &mut filterscope_core::ByteReader<'_>,
    ) -> filterscope_core::Result<()> {
        for s in [
            &mut self.hourly,
            &mut self.hourly_censored,
            &mut self.sg44_censored,
            &mut self.sg44_all,
        ] {
            crate::state::get_series_into(r, s)?;
        }
        self.censored_relays.extend(crate::state::get_u32_set(r)?);
        let per_hour = crate::state::get_keyed(r, |v| Ok(v as i64), crate::state::get_u32_set)?;
        for (k, v) in per_hour {
            self.allowed_relays_per_hour.entry(k).or_default().extend(v);
        }
        self.total += r.get_u64()?;
        self.http_signaling += r.get_u64()?;
        self.censored += r.get_u64()?;
        self.tcp_errors += r.get_u64()?;
        self.relays_seen.extend(crate::state::get_u32_set(r)?);
        for n in self.censored_by_proxy.iter_mut() {
            *n += r.get_u64()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::feed_with;
    use filterscope_core::ProxyId;
    use filterscope_logformat::record::RecordBuilder;
    use filterscope_logformat::{LogRecord, RequestUrl};
    use filterscope_tor::consensus::{ConsensusDoc, RelayDescriptor, RelayFlags};
    use filterscope_tor::RelayIndex;
    use std::net::Ipv4Addr;
    use std::sync::Arc;

    fn ctx_with_relay() -> (AnalysisContext, Ipv4Addr) {
        let addr = Ipv4Addr::new(100, 10, 20, 30);
        let docs: Vec<ConsensusDoc> = (1..=6)
            .map(|d| ConsensusDoc {
                valid_date: Date::new(2011, 8, d).unwrap(),
                relays: vec![RelayDescriptor {
                    nickname: "r1".into(),
                    addr,
                    or_port: 9001,
                    dir_port: 9030,
                    flags: RelayFlags::default(),
                }],
            })
            .collect();
        let ix = Arc::new(RelayIndex::from_consensuses(docs.iter()));
        (AnalysisContext::standard(Some(ix)), addr)
    }

    fn tor_rec(
        addr: Ipv4Addr,
        port: u16,
        path: &str,
        proxy: ProxyId,
        time: &str,
        censored: bool,
    ) -> LogRecord {
        let b = RecordBuilder::new(
            Timestamp::parse_fields("2011-08-03", time).unwrap(),
            proxy,
            RequestUrl::http(addr.to_string(), path).with_port(port),
        );
        if censored {
            b.policy_denied().build()
        } else {
            b.build()
        }
    }

    #[test]
    fn identifies_and_splits_tor_traffic() {
        let (ctx, addr) = ctx_with_relay();
        let mut s = TorStats::standard();
        feed_with(
            &ctx,
            &mut s,
            &[
                tor_rec(
                    addr,
                    9030,
                    "/tor/server/all.z",
                    ProxyId::Sg42,
                    "10:00:00",
                    false,
                ),
                tor_rec(addr, 9001, "/", ProxyId::Sg44, "10:05:00", true),
            ],
        );
        // Wrong port: not Tor.
        feed_with(
            &ctx,
            &mut s,
            &[tor_rec(addr, 8080, "/", ProxyId::Sg42, "10:06:00", false)],
        );
        assert_eq!(s.total, 2);
        assert_eq!(s.http_signaling, 1);
        assert_eq!(s.censored, 1);
        assert_eq!(s.relays_seen.len(), 1);
        assert_eq!(s.sg44_share_of_censored(), 1.0);
    }

    #[test]
    fn rfilter_reflects_reblocking() {
        let (ctx, addr) = ctx_with_relay();
        let mut s = TorStats::standard();
        // Hour A (Aug 3, 10:00): relay censored.
        feed_with(
            &ctx,
            &mut s,
            &[tor_rec(addr, 9001, "/", ProxyId::Sg44, "10:00:00", true)],
        );
        // Hour B (Aug 3, 12:00): same relay allowed.
        feed_with(
            &ctx,
            &mut s,
            &[tor_rec(addr, 9001, "/", ProxyId::Sg44, "12:00:00", false)],
        );
        let rf = s.rfilter();
        // Hour bin of Aug 3 12:00 relative to Aug 1 00:00 = 2*24 + 12 = 60.
        let bin60 = rf.iter().find(|(k, _)| *k == 60).unwrap().1;
        assert_eq!(
            bin60,
            Some(0.0),
            "relay re-allowed -> overlap 1 -> Rfilter 0"
        );
        // An hour with no allowed Tor traffic yields None.
        let bin0 = rf.iter().find(|(k, _)| *k == 0).unwrap().1;
        assert_eq!(bin0, None);
    }

    #[test]
    fn sg44_series_counts_all_sg44_traffic() {
        let (ctx, _) = ctx_with_relay();
        let mut s = TorStats::standard();
        let plain = RecordBuilder::new(
            Timestamp::parse_fields("2011-08-03", "09:00:00").unwrap(),
            ProxyId::Sg44,
            RequestUrl::http("x.com", "/"),
        )
        .policy_denied()
        .build();
        feed_with(&ctx, &mut s, &[plain]);
        assert_eq!(s.sg44_all.total(), 1);
        assert_eq!(s.sg44_censored.total(), 1);
        assert_eq!(s.total, 0, "not Tor traffic");
    }

    #[test]
    fn without_relay_index_everything_is_non_tor() {
        let ctx = AnalysisContext::standard(None);
        let mut s = TorStats::standard();
        feed_with(
            &ctx,
            &mut s,
            &[tor_rec(
                Ipv4Addr::new(1, 2, 3, 4),
                9001,
                "/",
                ProxyId::Sg42,
                "10:00:00",
                false,
            )],
        );
        assert_eq!(s.total, 0);
    }

    #[test]
    fn renders() {
        let (ctx, addr) = ctx_with_relay();
        let mut s = TorStats::standard();
        feed_with(
            &ctx,
            &mut s,
            &[tor_rec(addr, 9001, "/", ProxyId::Sg44, "10:00:00", true)],
        );
        let out = s.render();
        assert!(out.contains("Tor requests"));
        assert!(out.contains("SG-44"));
    }
}
