//! Property tests for the registry's merge contract: for every registered
//! analysis — the full paper suite plus the beyond-paper extras — ingesting
//! the corpus in shards and merging must equal one sequential pass, at any
//! split point. This is the invariant the parallel pipeline rests on.

use filterscope::analysis::registry::REGISTRY;
use filterscope::prelude::*;
use filterscope::proxy::ProfileKind;
use proptest::prelude::*;
use std::sync::OnceLock;

/// Scale divisor for the shared corpus: 65_536 keeps the whole-registry
/// property affordable (~11k records) while staying well above the 4_096
/// divisor floor the merge contract is exercised at.
const SCALE: u64 = 65_536;
const MIN_SUPPORT: u64 = 3;

fn records() -> &'static [LogRecord] {
    static RECORDS: OnceLock<Vec<LogRecord>> = OnceLock::new();
    RECORDS.get_or_init(|| Corpus::new(SynthConfig::new(SCALE).unwrap()).generate())
}

fn ctx() -> AnalysisContext {
    AnalysisContext::standard(None)
}

/// Everything observable about a suite: the full text report (all selected
/// sections, weather included) plus the JSON summary.
fn fingerprint(suite: &AnalysisSuite, ctx: &AnalysisContext) -> (String, String) {
    (suite.render_all(ctx), suite.summary_json(ctx))
}

fn everything_suite() -> AnalysisSuite {
    AnalysisSuite::with_selection(&SuiteParams::new(MIN_SUPPORT), &Selection::everything())
}

/// The single-pass fingerprint over the whole registry, computed once.
fn sequential_baseline() -> &'static (String, String) {
    static BASELINE: OnceLock<(String, String)> = OnceLock::new();
    BASELINE.get_or_init(|| {
        let ctx = ctx();
        let mut suite = everything_suite();
        suite.ingest_records(&ctx, records());
        fingerprint(&suite, &ctx)
    })
}

/// Map a 0..=1000 fraction onto a record index (inclusive bounds, so the
/// degenerate empty-shard splits are exercised too).
fn cut(frac: u32) -> usize {
    records().len() * frac as usize / 1000
}

/// Scale divisor for the per-profile corpora: four extra corpora must stay
/// cheap, and the merge contract does not care about volume.
const PROFILE_SCALE: u64 = 262_144;

/// One corpus per censorship mechanism, generated lazily as a batch.
fn profile_records(kind: ProfileKind) -> &'static [LogRecord] {
    static RECORDS: OnceLock<Vec<Vec<LogRecord>>> = OnceLock::new();
    &RECORDS.get_or_init(|| {
        ProfileKind::ALL
            .iter()
            .map(|&k| {
                let config = SynthConfig::new(PROFILE_SCALE).unwrap().with_censor(k);
                Corpus::new(config).generate()
            })
            .collect()
    })[kind.index()]
}

/// The single-pass fingerprint of each profile's corpus, computed once.
fn profile_baseline(kind: ProfileKind) -> &'static (String, String) {
    static BASELINE: OnceLock<Vec<(String, String)>> = OnceLock::new();
    &BASELINE.get_or_init(|| {
        let ctx = ctx();
        ProfileKind::ALL
            .iter()
            .map(|&k| {
                let mut suite = everything_suite();
                suite.ingest_records(&ctx, profile_records(k));
                fingerprint(&suite, &ctx)
            })
            .collect()
    })[kind.index()]
}

proptest! {
    /// `ingest(a) ⊕ ingest(b) == ingest(a ++ b)` for every registered
    /// analysis at an arbitrary split point.
    #[test]
    fn shard_merge_matches_single_pass(frac in 0u32..=1000) {
        let ctx = ctx();
        let split = cut(frac);
        let mut a = everything_suite();
        let mut b = everything_suite();
        a.ingest_records(&ctx, &records()[..split]);
        b.ingest_records(&ctx, &records()[split..]);
        a.merge(b);
        prop_assert_eq!(&fingerprint(&a, &ctx), sequential_baseline());
    }

    /// Left-fold of three shards equals the single pass regardless of where
    /// the two cuts land (merge is associative along the shard plan).
    #[test]
    fn three_shard_fold_matches_single_pass(f1 in 0u32..=1000, f2 in 0u32..=1000) {
        let ctx = ctx();
        let (lo, hi) = (cut(f1.min(f2)), cut(f1.max(f2)));
        let mut acc = everything_suite();
        acc.ingest_records(&ctx, &records()[..lo]);
        for range in [&records()[lo..hi], &records()[hi..]] {
            let mut shard = everything_suite();
            shard.ingest_records(&ctx, range);
            acc.merge(shard);
        }
        prop_assert_eq!(&fingerprint(&acc, &ctx), sequential_baseline());
    }

    /// The merge contract holds per analysis: a single-key selective suite
    /// sharded at an arbitrary point matches its own sequential pass.
    #[test]
    fn selective_shard_merge_matches_selective_pass(
        key_ix in 0usize..20,
        frac in 0u32..=1000,
    ) {
        assert_eq!(REGISTRY.len(), 20, "strategy bound tracks the registry");
        let ctx = ctx();
        let selection = Selection::only(&[REGISTRY[key_ix].key]).unwrap();
        let params = SuiteParams::new(MIN_SUPPORT);
        let split = cut(frac);
        let mut seq = AnalysisSuite::with_selection(&params, &selection);
        seq.ingest_records(&ctx, records());
        let mut a = AnalysisSuite::with_selection(&params, &selection);
        let mut b = AnalysisSuite::with_selection(&params, &selection);
        a.ingest_records(&ctx, &records()[..split]);
        b.ingest_records(&ctx, &records()[split..]);
        a.merge(b);
        prop_assert_eq!(fingerprint(&a, &ctx), fingerprint(&seq, &ctx));
    }

    /// Whatever censor shaped the corpus, shard-merge equals one pass: the
    /// whole registry (mechanism inference included) honors the merge
    /// contract on every profile's log dialect.
    #[test]
    fn every_profile_shard_merge_matches_single_pass(
        profile_ix in 0usize..4,
        frac in 0u32..=1000,
    ) {
        let kind = ProfileKind::ALL[profile_ix];
        let recs = profile_records(kind);
        let ctx = ctx();
        let split = recs.len() * frac as usize / 1000;
        let mut a = everything_suite();
        let mut b = everything_suite();
        a.ingest_records(&ctx, &recs[..split]);
        b.ingest_records(&ctx, &recs[split..]);
        a.merge(b);
        prop_assert_eq!(&fingerprint(&a, &ctx), profile_baseline(kind));
    }
}
