//! The [`Analysis`] trait and the paper-ordered analysis registry.
//!
//! Every table and figure of the paper is an independent accumulator; this
//! module is the single place that knows the full roster. Each accumulator
//! is one struct with one [`Analysis`] impl (block ingest, merge, render,
//! export, state save/load, headline scalar), and its [`AnalysisEntry`] row
//! in [`REGISTRY`] is the only place its metadata lives: key, title, paper
//! artifacts, cost class, derived columns, export rank, headline label and
//! constructor. Everything downstream — [`crate::AnalysisSuite`], the
//! parallel shard merge, the JSON export, the snapshot-log queries, the
//! CLI's `--analyses`/`--skip` flags and its `analyses` listing — is driven
//! off this one list, so adding an analysis is one file plus one row.
//!
//! # Ordering rules
//!
//! [`REGISTRY`] is in **paper order** (Table 1 → §3.3 anomalies, then the
//! beyond-paper analyses); `render_all` concatenates sections in exactly
//! this order, which keeps default reports byte-identical to the
//! pre-registry suite. The JSON summary preserves its own historical field
//! order via [`AnalysisEntry::export_rank`] (the §4 HTTPS fragment exports
//! before Tor), so selective runs simply omit fragments without reordering
//! the survivors.

use crate::context::AnalysisContext;
use crate::derived::{Columns, Derived};
use filterscope_core::{ByteReader, ByteWriter, Json};
use filterscope_logformat::RecordView;
use std::any::Any;

/// Object-safe downcast support, blanket-implemented for every `'static`
/// type so trait-object analyses can be merged back into concrete ones.
pub trait AsAny: Any {
    /// Borrow as [`Any`] (for [`crate::AnalysisSuite`]'s typed accessors).
    fn as_any(&self) -> &dyn Any;
    /// Unbox as [`Any`] (for the downcasting shard merge).
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
}

impl<T: Any> AsAny for T {
    fn as_any(&self) -> &dyn Any {
        self
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// One independently schedulable analysis over the record stream.
///
/// The contract mirrors what the hand-maintained suite enforced implicitly:
/// `ingest` must be associative under `merge` (shard A then B merged equals
/// one pass over A ++ B), and `render`/`export_json` must be deterministic
/// functions of the accumulated state — never of intern order, map order or
/// shard plan (see DESIGN.md §2c, resolve-before-sort).
pub trait Analysis: AsAny + Send + Sync {
    /// Feed a block of parsed record views together with its derived
    /// columns — at least the [`AnalysisEntry::columns`] this analysis
    /// declares. The only ingest entry: one virtual call per analysis per
    /// block, and every per-record fact several analyses read is derived
    /// once per block by [`crate::AnalysisSuite::ingest_block`].
    fn ingest_block(
        &mut self,
        ctx: &AnalysisContext,
        block: &[RecordView<'_>],
        derived: &Derived<'_>,
    );

    /// Fold a sibling shard in. The shard must be the same concrete type:
    /// implementations unbox it with [`downcast`] on their first line.
    fn merge(&mut self, other: Box<dyn Analysis>);

    /// Render this analysis's report section(s), `'\n'`-separated in paper
    /// order (multi-artifact analyses render every table/figure they own).
    fn render(&self, ctx: &AnalysisContext) -> String;

    /// This analysis's fragment of the machine-readable summary: an object
    /// whose members are spliced into the summary JSON in
    /// [`AnalysisEntry::export_rank`] order. `None` exports nothing.
    fn export_json(&self, _ctx: &AnalysisContext) -> Option<Json> {
        None
    }

    /// Serialize the *accumulated* state (never constructor-fixed structure)
    /// as deterministic little-endian bytes: sorted map order, resolved
    /// strings instead of [`filterscope_core::Sym`] handles. This is the
    /// snapshot-log payload — `load_state` on a freshly built accumulator
    /// followed by `render`/`export_json` must reproduce the original
    /// output exactly.
    fn save_state(&self, w: &mut ByteWriter);

    /// Add state persisted by [`Analysis::save_state`] into this
    /// accumulator. Callers pass a freshly built accumulator (the registry
    /// constructor restores fixed structure first); implementations read
    /// exactly the bytes they wrote and fail closed on anything else.
    fn load_state(&mut self, r: &mut ByteReader<'_>) -> filterscope_core::Result<()>;

    /// The headline scalar `history series` tracks for this analysis (what
    /// it counts is [`AnalysisEntry::metric_label`]). Monotone
    /// non-decreasing under ingest and merge, so per-window values are
    /// differences of cumulative ones.
    fn headline(&self) -> u64;
}

/// Unbox a merged-in shard as the concrete accumulator type, panicking on a
/// type mismatch (shards of one suite are built from one selection, so a
/// mismatch is a programming error, not a data error).
pub fn downcast<T: Analysis>(other: Box<dyn Analysis>) -> T {
    *other.into_any().downcast::<T>().unwrap_or_else(|_| {
        panic!(
            "cannot merge an analysis shard of another type into `{}`",
            std::any::type_name::<T>()
        )
    })
}

/// Rough per-record ingest cost, for `filterscope analyses` and for picking
/// what to skip on a constrained pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostClass {
    /// Fixed arithmetic per record (counters, shares).
    Cheap,
    /// Hash-map aggregation or an oracle lookup on a traffic subset.
    Moderate,
    /// Per-record tokenization or per-day sub-accumulators.
    Heavy,
}

impl CostClass {
    /// Lowercase label for listings.
    pub fn label(&self) -> &'static str {
        match self {
            CostClass::Cheap => "cheap",
            CostClass::Moderate => "moderate",
            CostClass::Heavy => "heavy",
        }
    }
}

/// Construction parameters shared by the registry constructors.
#[derive(Debug, Clone, Copy)]
pub struct SuiteParams {
    /// Minimum censored support for the §5.4 recovery.
    pub min_support: u64,
    /// Candidate keyword list for [`crate::filter_inference::FilterInference`]
    /// (the suite uses the operator-known list; `audit` starts blind).
    pub inference_candidates: &'static [&'static str],
    /// Minimum distinct base domains for a recovered keyword in the per-day
    /// weather report.
    pub weather_min_domains: usize,
}

impl SuiteParams {
    /// Standard parameters: the paper's known keyword list and a 3-domain
    /// keyword floor.
    pub fn new(min_support: u64) -> Self {
        SuiteParams {
            min_support,
            inference_candidates: &filterscope_proxy::config::KEYWORDS,
            weather_min_domains: 3,
        }
    }

    /// Same thresholds, but the inference starts with no known keywords
    /// (the `audit` stance: recover the policy blind).
    pub fn blind(min_support: u64) -> Self {
        SuiteParams {
            inference_candidates: &[],
            ..Self::new(min_support)
        }
    }
}

/// One registry row: metadata plus the constructor.
pub struct AnalysisEntry {
    /// Selection key (the `--analyses` vocabulary).
    pub key: &'static str,
    /// Human-readable name.
    pub title: &'static str,
    /// The paper artifacts this analysis reproduces.
    pub artifacts: &'static str,
    /// Rough per-record ingest cost.
    pub cost: CostClass,
    /// Runs when no `--analyses` flag is given. Beyond-paper extras (the
    /// weather report) register as non-default so default reports stay
    /// byte-identical to the pre-registry suite.
    pub in_default_suite: bool,
    /// Position of this analysis's fragment in the JSON summary (`None`
    /// exports nothing). Not paper order: the historical summary layout
    /// puts §4 HTTPS before Tor.
    pub export_rank: Option<u32>,
    /// The derived columns this analysis's ingest reads.
    pub columns: Columns,
    /// What [`Analysis::headline`] counts, for `history series` headers.
    pub metric_label: &'static str,
    make: fn(&SuiteParams) -> Box<dyn Analysis>,
}

impl AnalysisEntry {
    /// Construct a fresh accumulator for this entry.
    pub fn build(&self, params: &SuiteParams) -> Box<dyn Analysis> {
        (self.make)(params)
    }
}

/// The full roster, in paper order (see DESIGN.md §3; the golden test pins
/// this order against the CLI listing and `render_all`).
pub const REGISTRY: &[AnalysisEntry] = &[
    AnalysisEntry {
        key: "datasets",
        title: "Dataset membership",
        artifacts: "Table 1",
        cost: CostClass::Cheap,
        in_default_suite: true,
        export_rank: None,
        columns: Columns::SAMPLE,
        metric_label: "denied records",
        make: |_| Box::new(crate::datasets::DatasetCounts::new()),
    },
    AnalysisEntry {
        key: "overview",
        title: "Traffic overview",
        artifacts: "Table 3",
        cost: CostClass::Cheap,
        in_default_suite: true,
        export_rank: Some(0),
        columns: Columns::SAMPLE,
        metric_label: "denied rows",
        make: |_| Box::new(crate::overview::TrafficOverview::new()),
    },
    AnalysisEntry {
        key: "ports",
        title: "Destination ports",
        artifacts: "Fig 1",
        cost: CostClass::Cheap,
        in_default_suite: true,
        export_rank: None,
        columns: Columns::CLASS,
        metric_label: "censored requests",
        make: |_| Box::new(crate::ports::PortStats::new()),
    },
    AnalysisEntry {
        key: "domains",
        title: "Domain popularity",
        artifacts: "Fig 2, Table 4",
        cost: CostClass::Moderate,
        in_default_suite: true,
        export_rank: Some(1),
        columns: Columns::CLASS.with(Columns::BASE),
        metric_label: "censored requests",
        make: |_| Box::new(crate::domains::DomainStats::new()),
    },
    AnalysisEntry {
        key: "categories",
        title: "Censored categories",
        artifacts: "Fig 3",
        cost: CostClass::Moderate,
        in_default_suite: true,
        export_rank: Some(2),
        columns: Columns::CLASS,
        metric_label: "censored requests",
        make: |_| Box::new(crate::categories::CategoryStats::new()),
    },
    AnalysisEntry {
        key: "users",
        title: "User behaviour",
        artifacts: "Fig 4",
        cost: CostClass::Moderate,
        in_default_suite: true,
        export_rank: Some(3),
        columns: Columns::CLASS,
        metric_label: "censored users",
        make: |_| Box::new(crate::users::UserStats::new()),
    },
    AnalysisEntry {
        key: "temporal",
        title: "Censorship time series",
        artifacts: "Figs 5-6, Table 5",
        cost: CostClass::Moderate,
        in_default_suite: true,
        export_rank: None,
        columns: Columns::CLASS,
        metric_label: "censored requests",
        make: |_| Box::new(crate::temporal::TemporalStats::standard()),
    },
    AnalysisEntry {
        key: "proxies",
        title: "Per-proxy load and similarity",
        artifacts: "Fig 7, Table 6",
        cost: CostClass::Moderate,
        in_default_suite: true,
        export_rank: Some(4),
        columns: Columns::CLASS,
        metric_label: "censored requests",
        make: |_| Box::new(crate::proxies::ProxyStats::standard()),
    },
    AnalysisEntry {
        key: "redirects",
        title: "Policy redirects",
        artifacts: "Table 7",
        cost: CostClass::Moderate,
        in_default_suite: true,
        export_rank: Some(5),
        columns: Columns::NONE,
        metric_label: "identified redirects",
        make: |_| Box::new(crate::redirects::RedirectStats::new()),
    },
    AnalysisEntry {
        key: "inference",
        title: "Filter inference (5.4 recovery)",
        artifacts: "Tables 8-10",
        cost: CostClass::Heavy,
        in_default_suite: true,
        export_rank: Some(6),
        columns: crate::filter_inference::FilterInference::COLUMNS,
        metric_label: "censored requests",
        make: |p| {
            Box::new(crate::filter_inference::InferenceAnalysis::new(
                p.inference_candidates,
                p.min_support,
            ))
        },
    },
    AnalysisEntry {
        key: "ip",
        title: "IP-based censorship",
        artifacts: "Tables 11-12",
        cost: CostClass::Moderate,
        in_default_suite: true,
        export_rank: Some(7),
        columns: Columns::CLASS,
        metric_label: "censored (geolocated)",
        make: |_| Box::new(crate::ip_censorship::IpCensorship::standard()),
    },
    AnalysisEntry {
        key: "social",
        title: "Social-media censorship",
        artifacts: "Tables 13-15",
        cost: CostClass::Moderate,
        in_default_suite: true,
        export_rank: None,
        columns: Columns::CLASS.with(Columns::BASE),
        metric_label: "censored OSN requests",
        make: |_| Box::new(crate::social::SocialStats::new()),
    },
    AnalysisEntry {
        key: "tor",
        title: "Tor usage and blocking",
        artifacts: "Figs 8-9",
        cost: CostClass::Moderate,
        in_default_suite: true,
        export_rank: Some(9),
        columns: Columns::CLASS,
        metric_label: "censored Tor requests",
        make: |_| Box::new(crate::tor_usage::TorStats::standard()),
    },
    AnalysisEntry {
        key: "anonymizers",
        title: "Anonymizer services",
        artifacts: "Fig 10",
        cost: CostClass::Moderate,
        in_default_suite: true,
        export_rank: Some(11),
        columns: Columns::CLASS.with(Columns::SAMPLE),
        metric_label: "anonymizer hosts",
        make: |_| Box::new(crate::anonymizers::AnonymizerStats::new()),
    },
    AnalysisEntry {
        key: "bittorrent",
        title: "BitTorrent activity",
        artifacts: "Sec 7.3",
        cost: CostClass::Moderate,
        in_default_suite: true,
        export_rank: Some(10),
        columns: Columns::CLASS,
        metric_label: "censored announces",
        make: |_| Box::new(crate::p2p::BitTorrentStats::new()),
    },
    AnalysisEntry {
        key: "https",
        title: "HTTPS traffic and MITM check",
        artifacts: "Sec 4",
        cost: CostClass::Cheap,
        in_default_suite: true,
        export_rank: Some(8),
        columns: Columns::CLASS,
        metric_label: "censored HTTPS",
        make: |_| Box::new(crate::https::HttpsStats::new()),
    },
    AnalysisEntry {
        key: "google_cache",
        title: "Google-cache accesses",
        artifacts: "Sec 7.4",
        cost: CostClass::Cheap,
        in_default_suite: true,
        export_rank: None,
        columns: Columns::CLASS,
        metric_label: "censored cache hits",
        make: |_| Box::new(crate::google_cache::GoogleCacheStats::new()),
    },
    AnalysisEntry {
        key: "consistency",
        title: "Log-consistency linter",
        artifacts: "Sec 3.3 anomalies",
        cost: CostClass::Cheap,
        in_default_suite: true,
        export_rank: Some(12),
        columns: Columns::NONE,
        metric_label: "anomalies",
        make: |_| Box::new(crate::consistency::ConsistencyStats::new()),
    },
    AnalysisEntry {
        key: "weather",
        title: "Censorship weather report",
        artifacts: "Sec 5.4 per-day churn (beyond paper)",
        cost: CostClass::Heavy,
        in_default_suite: false,
        export_rank: None,
        columns: crate::filter_inference::FilterInference::COLUMNS,
        metric_label: "days observed",
        make: |p| {
            Box::new(crate::weather::WeatherReport::new(
                p.min_support,
                p.weather_min_domains,
            ))
        },
    },
    AnalysisEntry {
        key: "mechanism",
        title: "Censorship-mechanism inference",
        artifacts: "Censor fingerprint (beyond paper)",
        cost: CostClass::Cheap,
        in_default_suite: false,
        export_rank: Some(13),
        columns: Columns::NONE,
        metric_label: "mechanism votes",
        make: |_| Box::new(crate::filter_inference::MechanismInference::new()),
    },
];

/// Look a registry entry up by key.
pub fn entry(key: &str) -> Option<&'static AnalysisEntry> {
    REGISTRY.iter().find(|e| e.key == key)
}

/// All selection keys, in paper order.
pub fn keys() -> Vec<&'static str> {
    REGISTRY.iter().map(|e| e.key).collect()
}

/// A validated, registry-ordered set of analyses to run.
///
/// However the user spells the flags, the selection is normalized to paper
/// order and deduplicated, so shard construction, merge pairing and render
/// order are always consistent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Selection {
    keys: Vec<&'static str>,
}

impl Selection {
    /// The default suite: every entry with
    /// [`AnalysisEntry::in_default_suite`].
    pub fn default_suite() -> Self {
        Selection {
            keys: REGISTRY
                .iter()
                .filter(|e| e.in_default_suite)
                .map(|e| e.key)
                .collect(),
        }
    }

    /// Every registered analysis, including non-default extras.
    pub fn everything() -> Self {
        Selection { keys: keys() }
    }

    /// Exactly the named analyses (any order, deduplicated), or an error
    /// naming the first unknown key.
    pub fn only(wanted: &[&str]) -> Result<Self, String> {
        let mut picked = Vec::new();
        for key in wanted {
            match entry(key) {
                Some(e) => {
                    if !picked.contains(&e.key) {
                        picked.push(e.key);
                    }
                }
                None => return Err(unknown_key(key)),
            }
        }
        Ok(Selection {
            keys: REGISTRY
                .iter()
                .map(|e| e.key)
                .filter(|k| picked.contains(k))
                .collect(),
        })
    }

    /// Infallible single-analysis selection for callers whose key is a
    /// compile-time registry constant (`audit` pins `inference`, `weather`
    /// pins its own report). Unlike [`Selection::only`] there is no error
    /// path and no panic: a key missing from the registry is a programming
    /// error caught by `debug_assert` in tests, and release builds degrade
    /// to the default suite instead of aborting the CLI.
    pub fn pinned(key: &'static str) -> Self {
        debug_assert!(entry(key).is_some(), "unknown analysis key {key}");
        let keys: Vec<&'static str> = REGISTRY
            .iter()
            .map(|e| e.key)
            .filter(|k| *k == key)
            .collect();
        if keys.is_empty() {
            return Selection::default_suite();
        }
        Selection { keys }
    }

    /// Build a selection from the CLI flags: `--analyses a,b,c` replaces the
    /// default set, `--skip x,y` subtracts from it; both validate their keys
    /// against the registry.
    pub fn from_flags(analyses: Option<&str>, skip: Option<&str>) -> Result<Self, String> {
        let mut selection = match analyses {
            Some(csv) => Selection::only(&split_csv(csv))?,
            None => Selection::default_suite(),
        };
        if let Some(csv) = skip {
            for key in split_csv(csv) {
                let e = entry(key).ok_or_else(|| unknown_key(key))?;
                selection.keys.retain(|k| *k != e.key);
            }
        }
        if selection.keys.is_empty() {
            return Err("selection is empty: every analysis was skipped".to_string());
        }
        Ok(selection)
    }

    /// Force one analysis into the selection (commands with a fixed core
    /// product — `audit` needs `inference`, `weather` needs `weather`).
    pub fn ensure(&mut self, key: &'static str) {
        debug_assert!(entry(key).is_some(), "unknown analysis key {key}");
        if !self.contains(key) {
            self.keys = REGISTRY
                .iter()
                .map(|e| e.key)
                .filter(|k| *k == key || self.keys.contains(k))
                .collect();
        }
    }

    /// Is this analysis selected?
    pub fn contains(&self, key: &str) -> bool {
        self.keys.contains(&key)
    }

    /// The selected keys, in paper order.
    pub fn keys(&self) -> &[&'static str] {
        &self.keys
    }
}

fn split_csv(csv: &str) -> Vec<&str> {
    csv.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect()
}

fn unknown_key(key: &str) -> String {
    format!("unknown analysis `{key}` (known: {})", keys().join(", "))
}

/// Feed owned records to one analysis the way the suite does: one block,
/// its derived columns computed once, under the standard context.
/// Accumulator unit tests ingest through this (or [`feed_with`] when they
/// need another context), so they run the production block path.
#[cfg(test)]
pub(crate) fn feed(analysis: &mut dyn Analysis, records: &[filterscope_logformat::LogRecord]) {
    static CTX: std::sync::OnceLock<AnalysisContext> = std::sync::OnceLock::new();
    feed_with(
        CTX.get_or_init(|| AnalysisContext::standard(None)),
        analysis,
        records,
    );
}

/// [`feed`] under a caller-built context.
#[cfg(test)]
pub(crate) fn feed_with(
    ctx: &AnalysisContext,
    analysis: &mut dyn Analysis,
    records: &[filterscope_logformat::LogRecord],
) {
    let block: Vec<RecordView<'_>> = records.iter().map(|r| r.as_view()).collect();
    let all = Columns::CLASS
        .with(Columns::POLICY)
        .with(Columns::SAMPLE)
        .with(Columns::BASE);
    analysis.ingest_block(ctx, &block, &Derived::compute(&block, all));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_keys_are_unique() {
        let mut seen = Vec::new();
        for e in REGISTRY {
            assert!(!seen.contains(&e.key), "duplicate key {}", e.key);
            seen.push(e.key);
        }
    }

    #[test]
    fn export_ranks_are_unique() {
        let mut ranks: Vec<u32> = REGISTRY.iter().filter_map(|e| e.export_rank).collect();
        let n = ranks.len();
        ranks.sort_unstable();
        ranks.dedup();
        assert_eq!(ranks.len(), n, "duplicate export rank");
    }

    #[test]
    fn default_selection_excludes_extras() {
        let d = Selection::default_suite();
        assert!(d.contains("datasets"));
        assert!(!d.contains("weather"));
        assert!(Selection::everything().contains("weather"));
    }

    #[test]
    fn selection_flags_normalize_and_validate() {
        let s = Selection::from_flags(Some("inference, domains,domains"), None).unwrap();
        assert_eq!(s.keys(), ["domains", "inference"], "paper order, deduped");
        let s = Selection::from_flags(None, Some("tor,weather")).unwrap();
        assert!(!s.contains("tor"));
        assert!(s.contains("datasets"));
        assert!(Selection::from_flags(Some("nonsense"), None).is_err());
        assert!(Selection::from_flags(None, Some("nonsense")).is_err());
        let everything: Vec<&str> = keys();
        assert!(Selection::from_flags(None, Some(&everything.join(","))).is_err());
    }

    #[test]
    fn pinned_matches_only_for_registry_keys() {
        for e in REGISTRY {
            assert_eq!(Selection::pinned(e.key), Selection::only(&[e.key]).unwrap());
        }
    }

    #[test]
    fn ensure_inserts_in_paper_order() {
        let mut s = Selection::only(&["tor"]).unwrap();
        s.ensure("datasets");
        assert_eq!(s.keys(), ["datasets", "tor"]);
        s.ensure("tor");
        assert_eq!(s.keys(), ["datasets", "tor"]);
    }
}
