//! The registry-driven analysis suite.
//!
//! A suite is just the selected analyses (paper order, one
//! [`Analysis`] trait object each) plus the thresholds they were built
//! with. The default selection reproduces every paper artifact; selective
//! suites (`--analyses`/`--skip`) run the same code over fewer
//! accumulators. Typed accessors ([`AnalysisSuite::datasets`] etc.) panic
//! when the analysis was deselected — callers that must work on partial
//! suites use [`AnalysisSuite::try_get`].

use crate::anonymizers::AnonymizerStats;
use crate::categories::CategoryStats;
use crate::consistency::ConsistencyStats;
use crate::context::AnalysisContext;
use crate::datasets::DatasetCounts;
use crate::derived::{Columns, Derived};
use crate::domains::DomainStats;
use crate::filter_inference::{FilterInference, InferenceAnalysis};
use crate::google_cache::GoogleCacheStats;
use crate::https::HttpsStats;
use crate::ip_censorship::IpCensorship;
use crate::overview::TrafficOverview;
use crate::p2p::BitTorrentStats;
use crate::ports::PortStats;
use crate::proxies::ProxyStats;
use crate::redirects::RedirectStats;
use crate::registry::{self, Analysis, AnalysisEntry, Selection, SuiteParams};
use crate::social::SocialStats;
use crate::temporal::TemporalStats;
use crate::tor_usage::TorStats;
use crate::users::UserStats;
use crate::weather::WeatherReport;
use filterscope_core::{ByteReader, ByteWriter};
use filterscope_logformat::{LogRecord, RecordView};
use std::borrow::Borrow;

/// Wire version of [`AnalysisSuite::save_bytes`] payloads.
const SUITE_PAYLOAD_VERSION: u8 = 1;

/// Records per block when [`AnalysisSuite::ingest_records`] views owned
/// records: about what one 256 KiB read block of log lines holds.
const RECORDS_PER_BLOCK: usize = 1024;

/// The selected experiment accumulators, fed by one streaming pass.
pub struct AnalysisSuite {
    /// Each selected analysis beside its registry row, in paper order.
    analyses: Vec<(&'static AnalysisEntry, Box<dyn Analysis>)>,
    params: SuiteParams,
    selection: Selection,
    /// Union of the selected entries' derived columns.
    columns: Columns,
    /// Minimum censored support for §5.4 recovery, adapted to corpus scale.
    pub min_support: u64,
}

impl AnalysisSuite {
    /// Fresh default suite (every paper analysis). `min_support` is the
    /// evidence threshold for the §5.4 recovery (use ~5–20 for small
    /// corpora, more at full scale).
    pub fn new(min_support: u64) -> Self {
        Self::with_selection(&SuiteParams::new(min_support), &Selection::default_suite())
    }

    /// Build exactly the selected analyses from the registry.
    pub fn with_selection(params: &SuiteParams, selection: &Selection) -> Self {
        let entries: Vec<_> = selection
            .keys()
            .iter()
            .map(|key| registry::entry(key).expect("selection keys are registry-validated"))
            .collect();
        AnalysisSuite {
            analyses: entries.iter().map(|e| (*e, e.build(params))).collect(),
            params: *params,
            selection: selection.clone(),
            columns: entries
                .iter()
                .fold(Columns::NONE, |cols, e| cols.with(e.columns)),
            min_support: params.min_support,
        }
    }

    /// A fresh, empty suite with this suite's selection and thresholds.
    /// This is the streaming daemon's delta constructor: per-connection
    /// shards are periodically swapped out for a `fresh_like` twin and
    /// folded into the global suite.
    pub fn fresh_like(&self) -> Self {
        AnalysisSuite::with_selection(&self.params, &self.selection)
    }

    /// Swap this suite for a fresh empty twin and return the accumulated
    /// state (the "delta" since the last call). The caller merges the
    /// returned suite into a global one; because `ingest` is associative
    /// under `merge` (the registry contract), folding deltas in a fixed
    /// order reproduces a single-pass suite over the same records.
    pub fn take_delta(&mut self) -> Self {
        let fresh = self.fresh_like();
        std::mem::replace(self, fresh)
    }

    /// The selection this suite was built from, in paper order.
    pub fn selection(&self) -> &Selection {
        &self.selection
    }

    /// The built analyses beside their registry rows, in paper order.
    pub fn analyses(&self) -> impl Iterator<Item = (&'static AnalysisEntry, &dyn Analysis)> {
        self.analyses.iter().map(|(e, a)| (*e, &**a))
    }

    /// The selected analysis under `key`, if any.
    pub fn analysis(&self, key: &str) -> Option<&dyn Analysis> {
        self.analyses().find(|(e, _)| e.key == key).map(|(_, a)| a)
    }

    /// The selected keys, in paper order.
    pub fn keys(&self) -> Vec<&'static str> {
        self.analyses.iter().map(|(e, _)| e.key).collect()
    }

    /// Feed a whole block of records to every analysis. The block's derived
    /// columns (the union the selection declares) are computed once here,
    /// then each analysis takes one virtual call per block.
    pub fn ingest_block(&mut self, ctx: &AnalysisContext, block: &[RecordView<'_>]) {
        let derived = Derived::compute(block, self.columns);
        for (_, analysis) in &mut self.analyses {
            analysis.ingest_block(ctx, block, &derived);
        }
    }

    /// Feed owned records (synthesized or farm output, as a slice or a
    /// stream) through [`AnalysisSuite::ingest_block`], viewed in blocks of
    /// a fixed size.
    pub fn ingest_records<R: Borrow<LogRecord>>(
        &mut self,
        ctx: &AnalysisContext,
        records: impl IntoIterator<Item = R>,
    ) {
        let mut records = records.into_iter();
        let mut chunk: Vec<R> = Vec::with_capacity(RECORDS_PER_BLOCK);
        loop {
            chunk.extend(records.by_ref().take(RECORDS_PER_BLOCK));
            if chunk.is_empty() {
                return;
            }
            let block: Vec<RecordView<'_>> = chunk.iter().map(|r| r.borrow().as_view()).collect();
            self.ingest_block(ctx, &block);
            chunk.clear();
        }
    }

    /// Merge a shard built from the same selection.
    pub fn merge(&mut self, other: AnalysisSuite) {
        assert_eq!(
            self.keys(),
            other.keys(),
            "cannot merge suites with different selections"
        );
        for ((_, mine), (_, theirs)) in self.analyses.iter_mut().zip(other.analyses) {
            mine.merge(theirs);
        }
    }

    /// Serialize the accumulated state of every selected analysis into one
    /// self-describing payload: a version byte, the suite thresholds, the
    /// selection keys in paper order, and one length-prefixed
    /// [`Analysis::save_state`] payload per analysis. The encoding is a
    /// deterministic function of the accumulated state (sorted map order,
    /// resolved strings — see the crate's `state` module), so two suites
    /// that saw the same records byte-compare equal.
    pub fn save_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u8(SUITE_PAYLOAD_VERSION);
        w.put_u64(self.params.min_support);
        w.put_u64(self.params.weather_min_domains as u64);
        w.put_u8(u8::from(self.params.inference_candidates.is_empty()));
        let keys = self.keys();
        w.put_u64(keys.len() as u64);
        for key in &keys {
            w.put_str(key);
        }
        for (_, analysis) in &self.analyses {
            let mut payload = ByteWriter::new();
            analysis.save_state(&mut payload);
            w.put_bytes(payload.as_slice());
        }
        w.into_bytes()
    }

    /// Rebuild a suite from a [`AnalysisSuite::save_bytes`] payload.
    ///
    /// The selection and thresholds come from the payload header; each
    /// analysis is constructed fresh from the registry and its accumulated
    /// state loaded on top. Fails closed on an unknown version, an unknown
    /// selection key, or a payload that does not decode exactly.
    pub fn load_bytes(bytes: &[u8]) -> filterscope_core::Result<AnalysisSuite> {
        let mut r = ByteReader::new(bytes);
        let version = r.get_u8()?;
        if version != SUITE_PAYLOAD_VERSION {
            return Err(crate::state::corrupt("unsupported suite payload version"));
        }
        let min_support = r.get_u64()?;
        let weather_min_domains = r.get_u64()? as usize;
        let blind = r.get_u8()? != 0;
        let base = if blind {
            SuiteParams::blind(min_support)
        } else {
            SuiteParams::new(min_support)
        };
        let params = SuiteParams {
            weather_min_domains,
            ..base
        };
        let n_keys = r.get_u64()? as usize;
        let mut keys = Vec::with_capacity(n_keys);
        for _ in 0..n_keys {
            keys.push(r.get_str()?);
        }
        let selection = Selection::only(&keys)
            .map_err(|e| crate::state::corrupt(&format!("selection: {e}")))?;
        if selection.keys().to_vec() != keys {
            return Err(crate::state::corrupt("selection keys out of paper order"));
        }
        let mut suite = AnalysisSuite::with_selection(&params, &selection);
        for (_, analysis) in &mut suite.analyses {
            let payload = r.get_bytes()?;
            let mut sub = ByteReader::new(payload);
            analysis.load_state(&mut sub)?;
            sub.expect_exhausted()?;
        }
        r.expect_exhausted()?;
        Ok(suite)
    }

    /// Render every selected table and figure, in paper order.
    pub fn render_all(&self, ctx: &AnalysisContext) -> String {
        let mut out = String::new();
        for (_, analysis) in &self.analyses {
            out.push_str(&analysis.render(ctx));
            out.push('\n');
        }
        out
    }

    /// Borrow one analysis by concrete type, when selected.
    pub fn try_get<T: Analysis>(&self) -> Option<&T> {
        self.analyses
            .iter()
            .find_map(|(_, a)| a.as_any().downcast_ref::<T>())
    }

    fn get<T: Analysis>(&self, key: &str) -> &T {
        self.try_get::<T>()
            .unwrap_or_else(|| panic!("analysis `{key}` is not in this suite's selection"))
    }

    /// Table 1 accumulator (panics when deselected; see [`Self::try_get`]).
    pub fn datasets(&self) -> &DatasetCounts {
        self.get("datasets")
    }

    /// Table 3 accumulator.
    pub fn overview(&self) -> &TrafficOverview {
        self.get("overview")
    }

    /// Fig. 1 accumulator.
    pub fn ports(&self) -> &PortStats {
        self.get("ports")
    }

    /// Fig. 2 / Table 4 accumulator.
    pub fn domains(&self) -> &DomainStats {
        self.get("domains")
    }

    /// Fig. 3 accumulator.
    pub fn categories(&self) -> &CategoryStats {
        self.get("categories")
    }

    /// Fig. 4 accumulator.
    pub fn users(&self) -> &UserStats {
        self.get("users")
    }

    /// Figs. 5–6 / Table 5 accumulator.
    pub fn temporal(&self) -> &TemporalStats {
        self.get("temporal")
    }

    /// Fig. 7 / Table 6 accumulator.
    pub fn proxies(&self) -> &ProxyStats {
        self.get("proxies")
    }

    /// Table 7 accumulator.
    pub fn redirects(&self) -> &RedirectStats {
        self.get("redirects")
    }

    /// Tables 8–10 accumulator.
    pub fn inference(&self) -> &FilterInference {
        &self.get::<InferenceAnalysis>("inference").inner
    }

    /// Tables 11–12 accumulator.
    pub fn ip(&self) -> &IpCensorship {
        self.get("ip")
    }

    /// Tables 13–15 accumulator.
    pub fn social(&self) -> &SocialStats {
        self.get("social")
    }

    /// Figs. 8–9 accumulator.
    pub fn tor(&self) -> &TorStats {
        self.get("tor")
    }

    /// Fig. 10 accumulator.
    pub fn anonymizers(&self) -> &AnonymizerStats {
        self.get("anonymizers")
    }

    /// §7.3 accumulator.
    pub fn bittorrent(&self) -> &BitTorrentStats {
        self.get("bittorrent")
    }

    /// §4 accumulator.
    pub fn https(&self) -> &HttpsStats {
        self.get("https")
    }

    /// §7.4 accumulator.
    pub fn google_cache(&self) -> &GoogleCacheStats {
        self.get("google_cache")
    }

    /// §3.3 anomaly accumulator.
    pub fn consistency(&self) -> &ConsistencyStats {
        self.get("consistency")
    }

    /// Per-day policy churn (non-default; selected via `--analyses weather`).
    pub fn weather(&self) -> &WeatherReport {
        self.get("weather")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use filterscope_core::{ProxyId, Timestamp};
    use filterscope_logformat::record::RecordBuilder;
    use filterscope_logformat::RequestUrl;

    #[test]
    fn suite_ingests_and_renders_without_panic() {
        let ctx = AnalysisContext::standard(None);
        let mut suite = AnalysisSuite::new(1);
        let records: Vec<_> = (0..200u32)
            .map(|i| {
                let b = RecordBuilder::new(
                    Timestamp::parse_fields("2011-08-03", "09:00:00").unwrap(),
                    ProxyId::from_index((i % 7) as usize).unwrap(),
                    RequestUrl::http(format!("host{}.example", i % 20), "/"),
                );
                if i % 50 == 0 {
                    b.policy_denied().build()
                } else {
                    b.build()
                }
            })
            .collect();
        suite.ingest_records(&ctx, &records);
        let report = suite.render_all(&ctx);
        for needle in [
            "Table 1",
            "Table 3",
            "Table 4",
            "Table 6",
            "Table 11",
            "Fig 1",
            "Fig 5",
            "Fig 10",
            "BitTorrent",
            "Google cache",
        ] {
            assert!(report.contains(needle), "missing {needle}");
        }
    }

    #[test]
    fn take_delta_preserves_selection_and_accumulated_state() {
        let ctx = AnalysisContext::standard(None);
        let selection = Selection::only(&["datasets", "https"]).unwrap();
        let mut live = AnalysisSuite::with_selection(&SuiteParams::new(1), &selection);
        let mut global = live.fresh_like();
        let r = RecordBuilder::new(
            Timestamp::parse_fields("2011-08-03", "09:00:00").unwrap(),
            ProxyId::Sg42,
            RequestUrl::http("host.example", "/"),
        )
        .build();
        for cycle in 0..3 {
            live.ingest_records(&ctx, vec![r.clone(); cycle + 1]);
            let delta = live.take_delta();
            assert_eq!(delta.keys(), ["datasets", "https"]);
            global.merge(delta);
        }
        assert_eq!(live.datasets().full, 0, "live suite is empty after take");
        assert_eq!(global.datasets().full, 6, "all deltas folded");
        assert_eq!(live.keys(), global.keys());
    }

    #[test]
    fn merge_of_empty_suites_is_empty() {
        let mut a = AnalysisSuite::new(1);
        let b = AnalysisSuite::new(1);
        a.merge(b);
        assert_eq!(a.datasets().full, 0);
    }

    #[test]
    fn selective_suite_only_runs_selected_analyses() {
        let ctx = AnalysisContext::standard(None);
        let selection = Selection::only(&["domains", "https"]).unwrap();
        let mut suite = AnalysisSuite::with_selection(&SuiteParams::new(1), &selection);
        let r = RecordBuilder::new(
            Timestamp::parse_fields("2011-08-03", "09:00:00").unwrap(),
            ProxyId::Sg42,
            RequestUrl::http("host.example", "/"),
        )
        .build();
        suite.ingest_records(&ctx, &[r]);
        assert_eq!(suite.keys(), ["domains", "https"]);
        assert_eq!(suite.https().total_requests, 1);
        assert!(suite.try_get::<DatasetCounts>().is_none());
        let report = suite.render_all(&ctx);
        assert!(report.contains("Table 4"));
        assert!(!report.contains("Table 1"));
    }

    #[test]
    #[should_panic(expected = "analysis `datasets` is not in this suite's selection")]
    fn deselected_accessor_panics_with_key() {
        let selection = Selection::only(&["https"]).unwrap();
        let suite = AnalysisSuite::with_selection(&SuiteParams::new(1), &selection);
        let _ = suite.datasets();
    }

    #[test]
    #[should_panic(expected = "different selections")]
    fn merging_mismatched_selections_panics() {
        let mut a = AnalysisSuite::with_selection(
            &SuiteParams::new(1),
            &Selection::only(&["https"]).unwrap(),
        );
        let b = AnalysisSuite::with_selection(
            &SuiteParams::new(1),
            &Selection::only(&["domains"]).unwrap(),
        );
        a.merge(b);
    }

    fn varied_record(i: u32) -> filterscope_logformat::LogRecord {
        let day = 1 + (i % 6) as u8;
        let b = RecordBuilder::new(
            Timestamp::parse_fields(&format!("2011-08-0{day}"), "09:00:00").unwrap(),
            ProxyId::from_index((i % 7) as usize).unwrap(),
            RequestUrl::http(format!("host{}.example", i % 23), format!("/p{}", i % 11)),
        );
        match i % 5 {
            0 => b.policy_denied().build(),
            1 => b.proxied().build(),
            _ => b.build(),
        }
    }

    #[test]
    fn save_load_roundtrip_is_byte_identical() {
        let ctx = AnalysisContext::standard(None);
        let mut suite =
            AnalysisSuite::with_selection(&SuiteParams::new(2), &Selection::everything());
        suite.ingest_records(&ctx, (0..300).map(varied_record));
        let bytes = suite.save_bytes();
        let loaded = AnalysisSuite::load_bytes(&bytes).unwrap();
        assert_eq!(loaded.keys(), suite.keys());
        assert_eq!(loaded.save_bytes(), bytes, "re-save is byte-identical");
        assert_eq!(loaded.render_all(&ctx), suite.render_all(&ctx));
    }

    #[test]
    fn checkpoint_plus_deltas_fold_equals_straight_ingest() {
        // The snapshot-log reconstruction contract: loading a checkpoint and
        // merging subsequently-loaded deltas must reproduce the suite a
        // single pass over the same records would build — for every
        // registered analysis.
        let ctx = AnalysisContext::standard(None);
        let params = SuiteParams::new(2);
        let selection = Selection::everything();
        let mut straight = AnalysisSuite::with_selection(&params, &selection);
        let mut live = AnalysisSuite::with_selection(&params, &selection);
        let mut frames: Vec<Vec<u8>> = Vec::new();
        for cycle in 0..4u32 {
            let records: Vec<_> = (cycle * 100..(cycle + 1) * 100)
                .map(varied_record)
                .collect();
            straight.ingest_records(&ctx, &records);
            live.ingest_records(&ctx, &records);
            frames.push(live.take_delta().save_bytes());
        }
        let mut folded = AnalysisSuite::load_bytes(&frames[0]).unwrap();
        for frame in &frames[1..] {
            folded.merge(AnalysisSuite::load_bytes(frame).unwrap());
        }
        assert_eq!(folded.save_bytes(), straight.save_bytes());
        for ((entry, a), (_, b)) in folded.analyses().zip(straight.analyses()) {
            assert_eq!(
                a.render(&ctx),
                b.render(&ctx),
                "analysis `{}` diverges after fold",
                entry.key
            );
        }
    }

    #[test]
    fn load_bytes_fails_closed_on_corruption() {
        let suite = AnalysisSuite::new(1);
        let bytes = suite.save_bytes();
        assert!(AnalysisSuite::load_bytes(&bytes[..bytes.len() - 1]).is_err());
        let mut bad_version = bytes.clone();
        bad_version[0] = 99;
        assert!(AnalysisSuite::load_bytes(&bad_version).is_err());
        assert!(AnalysisSuite::load_bytes(&[]).is_err());
    }

    #[test]
    fn render_order_matches_registry_paper_order() {
        let ctx = AnalysisContext::standard(None);
        let suite = AnalysisSuite::new(1);
        let report = suite.render_all(&ctx);
        let params = SuiteParams::new(1);
        let mut last = 0usize;
        for entry in crate::registry::REGISTRY
            .iter()
            .filter(|e| e.in_default_suite)
        {
            let section = entry.build(&params).render(&ctx);
            let first_line = section.lines().next().unwrap().to_string();
            let pos = report[last..]
                .find(&first_line)
                .unwrap_or_else(|| panic!("section `{}` missing or out of order", entry.key));
            last += pos;
        }
    }
}
