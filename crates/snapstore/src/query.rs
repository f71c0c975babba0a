//! The query plane: reconstruct suites, diff instants, window series.
//!
//! Every query folds frames in sequence order. A [`FrameKind::Checkpoint`]
//! *replaces* the running state (it is the fold of everything before it);
//! a [`FrameKind::Delta`] *merges* into it — the registry's merge
//! contract makes the fold reproduce a single-pass suite over the same
//! records, which the suite payload's byte-determinism lets tests assert
//! exactly.

use filterscope_analysis::{registry, AnalysisSuite};
use filterscope_core::{ByteReader, ByteWriter, Error, Result};

use crate::frame::{Frame, FrameKind};

/// The frame key `filterscope serve` writes suite payloads under.
pub const SUITE_KEY: &str = "suite";

/// A decoded frame value: the ingest counters plus the suite state.
pub struct FrameValue {
    /// Records ingested (cumulative in a checkpoint, per-cycle in a delta).
    pub records: u64,
    /// Parse errors observed (same cumulative/delta convention).
    pub parse_errors: u64,
    /// The (cumulative or delta) analysis state.
    pub suite: AnalysisSuite,
}

/// Encode a frame value: `records | parse_errors | len-prefixed suite`.
pub fn encode_value(records: u64, parse_errors: u64, suite: &AnalysisSuite) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u64(records);
    w.put_u64(parse_errors);
    w.put_bytes(&suite.save_bytes());
    w.into_bytes()
}

/// Decode a frame value, failing closed on any defect.
pub fn decode_value(bytes: &[u8]) -> Result<FrameValue> {
    let mut r = ByteReader::new(bytes);
    let records = r.get_u64()?;
    let parse_errors = r.get_u64()?;
    let suite = AnalysisSuite::load_bytes(r.get_bytes()?)?;
    r.expect_exhausted()?;
    Ok(FrameValue {
        records,
        parse_errors,
        suite,
    })
}

/// The reconstructed state as of some instant.
pub struct HistoryView {
    /// The query instant (epoch seconds).
    pub as_of: u64,
    /// Frames folded into this view.
    pub frames_folded: u64,
    /// Records ingested up to `as_of`.
    pub records: u64,
    /// Parse errors up to `as_of`.
    pub parse_errors: u64,
    /// The reconstructed suite.
    pub suite: AnalysisSuite,
}

/// Fold `frames` up to and including instant `t` (frames with `ts <= t`).
///
/// Returns `Ok(None)` when no frame is old enough. Fails closed when the
/// log was compacted past `t` — the earliest surviving frame is a
/// checkpoint newer than `t`, so the state at `t` is unrecoverable.
pub fn suite_at(frames: &[Frame], t: u64) -> Result<Option<HistoryView>> {
    if let Some(first) = frames.first() {
        if first.kind == FrameKind::Checkpoint && first.ts > t {
            return Err(Error::InvalidConfig(format!(
                "log was compacted past t={t}: earliest surviving state is the \
                 checkpoint at ts={}",
                first.ts
            )));
        }
    }
    let mut view: Option<HistoryView> = None;
    for frame in frames.iter().filter(|f| f.ts <= t) {
        let value = decode_value(&frame.value)?;
        view = Some(fold(view, frame.kind, value, t));
    }
    Ok(view)
}

/// Fold one decoded frame into the running view.
fn fold(view: Option<HistoryView>, kind: FrameKind, value: FrameValue, t: u64) -> HistoryView {
    match (view, kind) {
        // A checkpoint is the fold of everything before it: replace.
        (prev, FrameKind::Checkpoint) => HistoryView {
            as_of: t,
            frames_folded: prev.map_or(0, |v| v.frames_folded) + 1,
            records: value.records,
            parse_errors: value.parse_errors,
            suite: value.suite,
        },
        (None, FrameKind::Delta) => HistoryView {
            as_of: t,
            frames_folded: 1,
            records: value.records,
            parse_errors: value.parse_errors,
            suite: value.suite,
        },
        (Some(mut v), FrameKind::Delta) => {
            v.suite.merge(value.suite);
            v.records += value.records;
            v.parse_errors += value.parse_errors;
            v.frames_folded += 1;
            v
        }
    }
}

/// The headline scalar ([`filterscope_analysis::Analysis::headline`]) of
/// the analysis under `key`, which `series` tracks; its registry row's
/// `metric_label` says what it counts.
///
/// Every headline is monotone non-decreasing under ingest, so per-window
/// values (differences of cumulative metrics) are well defined.
pub fn metric(suite: &AnalysisSuite, key: &str) -> Result<u64> {
    if registry::entry(key).is_none() {
        return Err(Error::InvalidConfig(format!(
            "unknown analysis key `{key}`"
        )));
    }
    let analysis = suite.analysis(key).ok_or_else(|| {
        Error::InvalidConfig(format!(
            "analysis `{key}` is not in the logged suite's selection"
        ))
    })?;
    Ok(analysis.headline())
}

/// One window of a [`series`] query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeriesPoint {
    /// Window start (inclusive, epoch seconds).
    pub t0: u64,
    /// Window end (exclusive).
    pub t1: u64,
    /// Metric increase across `[t0, t1)`.
    pub value: u64,
    /// Cumulative metric through the end of the window.
    pub cumulative: u64,
}

/// Per-window values of one analysis's [`metric`] over the whole log,
/// in `step`-second windows anchored at the first frame's timestamp.
///
/// Each window's `value` is the increase of the cumulative metric across
/// it; when a compaction checkpoint falls inside a window, that window
/// absorbs the checkpoint's whole baseline (the pre-compaction history is
/// no longer separable into windows).
pub fn series(frames: &[Frame], key: &str, step: u64) -> Result<Vec<SeriesPoint>> {
    if step == 0 {
        return Err(Error::InvalidConfig("series step must be > 0".to_string()));
    }
    let (Some(first), Some(last)) = (frames.first(), frames.last()) else {
        return Ok(Vec::new());
    };
    let (start, end) = (first.ts, last.ts);
    let mut points = Vec::new();
    let mut view: Option<HistoryView> = None;
    let mut idx = 0;
    let mut prev_cum = 0u64;
    let mut w0 = start;
    while w0 <= end {
        let w1 = w0.saturating_add(step);
        while idx < frames.len() && frames[idx].ts < w1 {
            let frame = &frames[idx];
            let value = decode_value(&frame.value)?;
            view = Some(fold(view, frame.kind, value, frame.ts));
            idx += 1;
        }
        let cumulative = match &view {
            Some(v) => metric(&v.suite, key)?,
            None => 0,
        };
        points.push(SeriesPoint {
            t0: w0,
            t1: w1,
            value: cumulative.saturating_sub(prev_cum),
            cumulative,
        });
        prev_cum = cumulative;
        w0 = w1;
    }
    Ok(points)
}

/// One named count at two instants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiffRow {
    pub name: String,
    pub from: u64,
    pub to: u64,
}

impl DiffRow {
    /// Increase from `from` to `to` (counts are monotone).
    pub fn delta(&self) -> u64 {
        self.to.saturating_sub(self.from)
    }
}

/// What changed between two instants: the protest-Friday comparison.
pub struct HistoryDiff {
    pub from_ts: u64,
    pub to_ts: u64,
    /// Records ingested at each instant.
    pub records: (u64, u64),
    /// Censored requests (category-classified) at each instant.
    pub censored: (u64, u64),
    /// Per-category censored counts that changed, by delta descending.
    pub categories: Vec<DiffRow>,
    /// Per-domain censored counts that changed, by delta descending.
    pub domains: Vec<DiffRow>,
}

/// Sort changed rows by delta descending, ties by name, drop no-ops.
fn changed(mut rows: Vec<DiffRow>) -> Vec<DiffRow> {
    rows.retain(|r| r.from != r.to);
    rows.sort_by(|a, b| b.delta().cmp(&a.delta()).then_with(|| a.name.cmp(&b.name)));
    rows
}

/// One instant's diffable state: sampled censored count plus the named
/// censored-category and censored-domain counts.
type DiffState = (u64, Vec<(String, u64)>, Vec<(String, u64)>);

/// Compare the censored-categories/domains state at instants `a` and `b`.
pub fn diff(frames: &[Frame], a: u64, b: u64) -> Result<HistoryDiff> {
    let (from, to) = (a.min(b), a.max(b));
    let at = |t: u64| -> Result<Option<HistoryView>> { suite_at(frames, t) };
    let to_view = at(to)?.ok_or_else(|| {
        Error::InvalidConfig(format!("no frame at or before t={to}: nothing to diff"))
    })?;
    let from_view = at(from)?;
    let pick = |view: Option<&HistoryView>| -> Result<DiffState> {
        let Some(view) = view else {
            return Ok((0, Vec::new(), Vec::new()));
        };
        for key in ["categories", "domains"] {
            if !view.suite.selection().contains(key) {
                return Err(Error::InvalidConfig(format!(
                    "logged suite has no `{key}` analysis"
                )));
            }
        }
        let categories = view
            .suite
            .categories()
            .censored
            .iter()
            .map(|(c, n)| (c.name().to_string(), n))
            .collect();
        Ok((
            view.records,
            categories,
            view.suite.domains().top_censored(usize::MAX),
        ))
    };
    let (to_records, to_cats, to_doms) = pick(Some(&to_view))?;
    let (from_records, from_cats, from_doms) = pick(from_view.as_ref())?;
    let pair = |older: &[(String, u64)], newer: &[(String, u64)]| -> Vec<DiffRow> {
        let mut names: Vec<&str> = older
            .iter()
            .chain(newer)
            .map(|(name, _)| name.as_str())
            .collect();
        names.sort_unstable();
        names.dedup();
        let count = |rows: &[(String, u64)], name: &str| {
            rows.iter().find(|(n, _)| n == name).map_or(0, |(_, c)| *c)
        };
        changed(
            names
                .into_iter()
                .map(|name| DiffRow {
                    name: name.to_string(),
                    from: count(older, name),
                    to: count(newer, name),
                })
                .collect(),
        )
    };
    Ok(HistoryDiff {
        from_ts: from,
        to_ts: to,
        records: (from_records, to_records),
        censored: (
            from_cats.iter().map(|(_, n)| n).sum(),
            to_cats.iter().map(|(_, n)| n).sum(),
        ),
        categories: pair(&from_cats, &to_cats),
        domains: pair(&from_doms, &to_doms),
    })
}
