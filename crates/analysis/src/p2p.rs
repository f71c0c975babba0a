//! §7.3: BitTorrent as a censorship-circumvention channel.
//!
//! Announce requests are parsed from the logs; peers are counted by the
//! 20-byte `peer_id`, contents by `info_hash`, and info-hashes are resolved
//! to titles through the title oracle (the paper crawled torrentz.eu /
//! torrentproject.com, achieving 77.4 %).

use crate::context::AnalysisContext;
use crate::report::Table;
use filterscope_bittorrent::titles::TitleClass;
use filterscope_bittorrent::{AnnounceRequest, InfoHash, PeerId};
use filterscope_logformat::{RecordView, RequestClass};
use std::collections::{HashMap, HashSet};

/// §7.3 accumulator.
#[derive(Debug, Default)]
pub struct BitTorrentStats {
    pub announces: u64,
    pub censored_announces: u64,
    pub malformed: u64,
    pub peers: HashSet<PeerId>,
    /// Distinct contents with their resolved title class (`None` = the
    /// crawl missed it). Keyed by info-hash so shard merges dedupe exactly.
    pub contents: HashMap<InfoHash, Option<TitleClass>>,
}

impl BitTorrentStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    fn add(&mut self, ctx: &AnalysisContext, record: &RecordView<'_>, class: RequestClass) {
        if !AnnounceRequest::is_announce_path(record.url.path) {
            return;
        }
        let Ok(announce) = AnnounceRequest::parse_query(record.url.query) else {
            self.malformed += 1;
            return;
        };
        self.announces += 1;
        if class == RequestClass::Censored {
            self.censored_announces += 1;
        }
        self.peers.insert(announce.peer_id);
        self.contents
            .entry(announce.info_hash)
            .or_insert_with(|| ctx.titles.resolve(announce.info_hash).map(|(_, c)| c));
    }

    /// Distinct contents resolved to a title.
    pub fn resolved(&self) -> u64 {
        self.contents.values().filter(|c| c.is_some()).count() as u64
    }

    /// Distinct contents of a given title class.
    pub fn titles_of(&self, class: TitleClass) -> u64 {
        self.contents
            .values()
            .filter(|c| **c == Some(class))
            .count() as u64
    }

    /// Title-resolution success rate.
    pub fn resolution_rate(&self) -> f64 {
        if self.contents.is_empty() {
            return 0.0;
        }
        self.resolved() as f64 / self.contents.len() as f64
    }

    /// Fraction of announces allowed (the paper: 99.97 %).
    pub fn allowed_fraction(&self) -> f64 {
        if self.announces == 0 {
            return 0.0;
        }
        1.0 - self.censored_announces as f64 / self.announces as f64
    }

    /// Render the §7.3 summary.
    pub fn render(&self) -> String {
        let mut t = Table::new("§7.3 BitTorrent usage", &["Metric", "Value"]);
        t.row(["Announce requests".to_string(), self.announces.to_string()]);
        t.row(["Unique peers".to_string(), self.peers.len().to_string()]);
        t.row([
            "Unique contents".to_string(),
            self.contents.len().to_string(),
        ]);
        t.row([
            "Allowed".to_string(),
            format!("{:.2}%", self.allowed_fraction() * 100.0),
        ]);
        t.row([
            "Titles resolved".to_string(),
            format!("{:.1}%", self.resolution_rate() * 100.0),
        ]);
        t.row([
            "Anti-censorship titles".to_string(),
            self.titles_of(TitleClass::AntiCensorship).to_string(),
        ]);
        t.row([
            "IM-installer titles".to_string(),
            self.titles_of(TitleClass::ImInstaller).to_string(),
        ]);
        t.render()
    }
}

impl crate::registry::Analysis for BitTorrentStats {
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
        let other: BitTorrentStats = crate::registry::downcast(other);
        self.announces += other.announces;
        self.censored_announces += other.censored_announces;
        self.malformed += other.malformed;
        self.peers.extend(other.peers);
        for (k, v) in other.contents {
            self.contents.entry(k).or_insert(v);
        }
    }

    fn headline(&self) -> u64 {
        self.censored_announces
    }

    fn render(&self, _ctx: &AnalysisContext) -> String {
        BitTorrentStats::render(self)
    }

    fn export_json(&self, _ctx: &AnalysisContext) -> Option<filterscope_core::Json> {
        use filterscope_core::Json;
        let mut obj = Json::object();
        obj.push("bt_announces", Json::UInt(self.announces));
        obj.push("bt_peers", Json::UInt(self.peers.len() as u64));
        obj.push("bt_title_resolution", Json::Float(self.resolution_rate()));
        Some(obj)
    }

    fn save_state(&self, w: &mut filterscope_core::ByteWriter) {
        w.put_u64(self.announces);
        w.put_u64(self.censored_announces);
        w.put_u64(self.malformed);
        let mut peers: Vec<&PeerId> = self.peers.iter().collect();
        peers.sort_unstable();
        crate::state::put_len(w, peers.len());
        for p in peers {
            w.put_raw(&p.0);
        }
        let mut contents: Vec<(&InfoHash, &Option<TitleClass>)> = self.contents.iter().collect();
        contents.sort_unstable_by_key(|(h, _)| *h);
        crate::state::put_len(w, contents.len());
        for (h, class) in contents {
            w.put_raw(&h.0);
            w.put_u8(match class {
                None => 0,
                Some(TitleClass::AntiCensorship) => 1,
                Some(TitleClass::ImInstaller) => 2,
                Some(TitleClass::Generic) => 3,
            });
        }
    }

    fn load_state(
        &mut self,
        r: &mut filterscope_core::ByteReader<'_>,
    ) -> filterscope_core::Result<()> {
        fn bytes20(r: &mut filterscope_core::ByteReader<'_>) -> filterscope_core::Result<[u8; 20]> {
            let mut out = [0u8; 20];
            out.copy_from_slice(r.get_raw(20)?);
            Ok(out)
        }
        self.announces += r.get_u64()?;
        self.censored_announces += r.get_u64()?;
        self.malformed += r.get_u64()?;
        let n = crate::state::get_len(r)?;
        for _ in 0..n {
            self.peers.insert(PeerId(bytes20(r)?));
        }
        let n = crate::state::get_len(r)?;
        for _ in 0..n {
            let hash = InfoHash(bytes20(r)?);
            let class = match r.get_u8()? {
                0 => None,
                1 => Some(TitleClass::AntiCensorship),
                2 => Some(TitleClass::ImInstaller),
                3 => Some(TitleClass::Generic),
                _ => return Err(crate::state::corrupt("unknown title class")),
            };
            self.contents.entry(hash).or_insert(class);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{feed_with, Analysis};
    use filterscope_bittorrent::AnnounceEvent;
    use filterscope_core::{ProxyId, Timestamp};
    use filterscope_logformat::record::RecordBuilder;
    use filterscope_logformat::{LogRecord, RequestUrl};

    fn announce_rec(infohash: u8, peer: u8, host: &str, censored: bool) -> LogRecord {
        let a = AnnounceRequest {
            info_hash: InfoHash([infohash; 20]),
            peer_id: PeerId([peer; 20]),
            port: 51413,
            uploaded: 0,
            downloaded: 0,
            left: 100,
            event: AnnounceEvent::Started,
        };
        let b = RecordBuilder::new(
            Timestamp::parse_fields("2011-08-02", "09:00:00").unwrap(),
            ProxyId::Sg42,
            RequestUrl::http(host, "/announce").with_query(a.to_query()),
        );
        if censored {
            b.policy_denied().build()
        } else {
            b.build()
        }
    }

    #[test]
    fn counts_peers_and_contents() {
        let ctx = AnalysisContext::standard(None);
        let mut s = BitTorrentStats::new();
        feed_with(
            &ctx,
            &mut s,
            &[
                announce_rec(1, 1, "tracker.example", false),
                announce_rec(1, 2, "tracker.example", false),
                announce_rec(2, 1, "tracker.example", false),
                announce_rec(3, 3, "tracker-proxy.furk.net", true),
            ],
        );
        assert_eq!(s.announces, 4);
        assert_eq!(s.peers.len(), 3);
        assert_eq!(s.contents.len(), 3);
        assert_eq!(s.censored_announces, 1);
        assert!((s.allowed_fraction() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn non_announce_paths_ignored_and_malformed_counted() {
        let ctx = AnalysisContext::standard(None);
        let mut s = BitTorrentStats::new();
        let not_announce = RecordBuilder::new(
            Timestamp::parse_fields("2011-08-02", "09:00:00").unwrap(),
            ProxyId::Sg42,
            RequestUrl::http("x.com", "/scrape").with_query("info_hash=zz"),
        )
        .build();
        feed_with(&ctx, &mut s, &[not_announce]);
        assert_eq!(s.announces, 0);
        let malformed = RecordBuilder::new(
            Timestamp::parse_fields("2011-08-02", "09:00:00").unwrap(),
            ProxyId::Sg42,
            RequestUrl::http("x.com", "/announce").with_query("garbage"),
        )
        .build();
        feed_with(&ctx, &mut s, &[malformed]);
        assert_eq!(s.malformed, 1);
    }

    #[test]
    fn resolution_rate_tracks_oracle() {
        let ctx = AnalysisContext::standard(None);
        let mut s = BitTorrentStats::new();
        for i in 0..200u8 {
            feed_with(&ctx, &mut s, &[announce_rec(i, i, "t.example", false)]);
        }
        let rate = s.resolution_rate();
        assert!((0.5..0.95).contains(&rate), "rate {rate}");
        assert_eq!(
            s.resolved(),
            s.titles_of(TitleClass::AntiCensorship)
                + s.titles_of(TitleClass::ImInstaller)
                + s.titles_of(TitleClass::Generic)
        );
        assert!(s.render().contains("Unique peers"));
    }

    #[test]
    fn merge_dedupes_contents_exactly() {
        // The same info-hash first-seen in two shards must count once —
        // both in `contents` and in the resolution tallies.
        let ctx = AnalysisContext::standard(None);
        let mut a = BitTorrentStats::new();
        let mut b = BitTorrentStats::new();
        for i in 0..50u8 {
            feed_with(&ctx, &mut a, &[announce_rec(i, 1, "t.example", false)]);
            feed_with(&ctx, &mut b, &[announce_rec(i, 2, "t.example", false)]);
        }
        let solo_resolved = a.resolved();
        let solo_contents = a.contents.len();
        a.merge(Box::new(b));
        assert_eq!(a.contents.len(), solo_contents);
        assert_eq!(a.resolved(), solo_resolved);
        assert_eq!(a.announces, 100);
        assert_eq!(a.peers.len(), 2);
    }
}
