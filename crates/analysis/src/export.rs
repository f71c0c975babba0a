//! Machine-readable experiment export.
//!
//! Each analysis owns its fragment of the summary via
//! [`Analysis::export_json`](crate::registry::Analysis::export_json);
//! [`AnalysisSuite::summary_json`] splices the selected analyses' fragments
//! together in [`AnalysisEntry::export_rank`](crate::registry::AnalysisEntry::export_rank)
//! order. For a default (full) run the resulting layout matches what the
//! hand-maintained `Summary` struct (and the serde_json exporter before it)
//! produced, byte for byte; selective runs simply omit the deselected
//! analyses' members without reordering the survivors.

use crate::context::AnalysisContext;
use crate::suite::AnalysisSuite;
use filterscope_core::Json;

/// A named count with share-of-total.
#[derive(Debug, Clone, PartialEq)]
pub struct Share {
    pub name: String,
    pub count: u64,
    pub share: f64,
}

impl Share {
    fn to_json(&self) -> Json {
        let mut obj = Json::object();
        obj.push("name", Json::Str(self.name.clone()));
        obj.push("count", Json::UInt(self.count));
        obj.push("share", Json::Float(self.share));
        obj
    }
}

/// Attach share-of-total to a count list (total 0 ⇒ share 0).
pub(crate) fn shares(items: Vec<(String, u64)>, total: u64) -> Vec<Share> {
    items
        .into_iter()
        .map(|(name, count)| Share {
            name,
            count,
            share: if total == 0 {
                0.0
            } else {
                count as f64 / total as f64
            },
        })
        .collect()
}

/// JSON array of [`Share`] objects.
pub(crate) fn share_array(items: &[Share]) -> Json {
    Json::Arr(items.iter().map(Share::to_json).collect())
}

/// JSON array of strings.
pub(crate) fn string_array(items: &[String]) -> Json {
    Json::Arr(items.iter().map(|s| Json::Str(s.clone())).collect())
}

impl AnalysisSuite {
    /// Serialize the selected analyses' headline results as pretty JSON,
    /// fragment members spliced in registry export order.
    pub fn summary_json(&self, ctx: &AnalysisContext) -> String {
        let mut fragments: Vec<(u32, Json)> = self
            .analyses()
            .filter_map(|(entry, analysis)| Some((entry.export_rank?, analysis.export_json(ctx)?)))
            .collect();
        fragments.sort_by_key(|(rank, _)| *rank);
        let mut obj = Json::object();
        for (_, fragment) in fragments {
            if let Json::Obj(members) = fragment {
                for (key, value) in members {
                    obj.push(&key, value);
                }
            }
        }
        obj.pretty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{Selection, SuiteParams};
    use filterscope_core::{ProxyId, Timestamp};
    use filterscope_logformat::record::RecordBuilder;
    use filterscope_logformat::RequestUrl;

    fn populated_suite(suite: &mut AnalysisSuite, ctx: &AnalysisContext) {
        let records: Vec<_> = (0..100u32)
            .map(|i| {
                let b = RecordBuilder::new(
                    Timestamp::parse_fields("2011-08-03", "09:00:00").unwrap(),
                    ProxyId::from_index((i % 7) as usize).unwrap(),
                    RequestUrl::http(format!("h{}.example", i % 9), "/"),
                );
                if i % 25 == 0 {
                    b.policy_denied().build()
                } else {
                    b.build()
                }
            })
            .collect();
        suite.ingest_records(ctx, &records);
    }

    #[test]
    fn summary_captures_headlines_and_serializes() {
        let ctx = AnalysisContext::standard(None);
        let mut suite = AnalysisSuite::new(1);
        populated_suite(&mut suite, &ctx);
        let json = suite.summary_json(&ctx);
        assert!(json.contains("\"censored_share\""));
        assert!(json.contains("\"recovered_keywords\""));
        // Round-trip through the JSON parser to confirm well-formedness.
        let v = Json::parse(&json).unwrap();
        assert_eq!(v.get("total_requests").and_then(|n| n.as_u64()), Some(100));
        assert_eq!(v.get("censored_share").and_then(|n| n.as_f64()), Some(0.04));
    }

    #[test]
    fn summary_member_order_follows_export_rank() {
        let ctx = AnalysisContext::standard(None);
        let suite = AnalysisSuite::new(1);
        let json = suite.summary_json(&ctx);
        // Spot-check the historical layout: overview members lead, and the
        // §4 HTTPS fragment precedes Tor despite rendering after it.
        let order = [
            "\"total_requests\"",
            "\"censored_share\"",
            "\"top_allowed_domains\"",
            "\"users\"",
            "\"recovered_keywords\"",
            "\"https_share\"",
            "\"tor_requests\"",
            "\"bt_announces\"",
            "\"anonymizer_hosts\"",
            "\"anomalies\"",
        ];
        let mut last = 0usize;
        for needle in order {
            let pos = json[last..]
                .find(needle)
                .unwrap_or_else(|| panic!("{needle} missing or out of order"));
            last += pos;
        }
    }

    #[test]
    fn selective_summary_omits_deselected_fragments() {
        let ctx = AnalysisContext::standard(None);
        let selection = Selection::only(&["https", "domains"]).unwrap();
        let mut suite = AnalysisSuite::with_selection(&SuiteParams::new(1), &selection);
        populated_suite(&mut suite, &ctx);
        let json = suite.summary_json(&ctx);
        assert!(json.contains("\"top_allowed_domains\""));
        assert!(json.contains("\"https_share\""));
        assert!(!json.contains("\"total_requests\""));
        assert!(!json.contains("\"tor_requests\""));
        assert!(Json::parse(&json).is_ok());
    }

    #[test]
    fn empty_suite_summary_is_safe() {
        let ctx = AnalysisContext::standard(None);
        let suite = AnalysisSuite::new(1);
        let json = suite.summary_json(&ctx);
        let v = Json::parse(&json).unwrap();
        assert_eq!(v.get("total_requests").and_then(|n| n.as_u64()), Some(0));
    }
}
