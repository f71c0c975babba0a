//! The model-checked concurrency core of the serve daemon.
//!
//! Everything in this module is the *production* code path — `server.rs`
//! calls these functions from real OS threads — but it is written against
//! the [`interleave`] primitives instead of `std::sync`, takes its
//! effects through traits ([`Decide`], [`SnapSink`]), and performs no IO
//! and no wall-clock reads. That combination is what lets
//! `tests/model_proto.rs` run the same functions under the interleaving
//! explorer: every lock, atomic, and channel operation becomes a schedule
//! point, and the explorer enumerates all interleavings up to a
//! preemption bound.
//!
//! The four protocols checked there, and where they live here:
//!
//! 1. **Shard delta take/fold** — [`ingest_batch`] (worker side) and
//!    [`fold_shards`] (snapshot side) keep a shard's suite content and
//!    its record/parse-error counts under one lock, so a fold can never
//!    observe content without its counts.
//! 2. **Policy hot swap at batch boundaries** — [`run_worker`] pins the
//!    engine `Arc` once per batch ([`crate::policy::PolicyCell`]); the
//!    per-record path never takes the policy lock.
//! 3. **Append-before-merge snapshot ordering** — [`snapshot_cycle`]
//!    frames a cycle's delta into the [`SnapSink`] *before* merging it
//!    into the global suite (skipping genuinely empty cycles), so the
//!    log's fold and the published report never disagree.
//! 4. **Drain-then-final-snapshot shutdown** — [`await_drain`] returns
//!    only once every worker has drained its queue (or the caller's
//!    deadline expires), after which one more [`snapshot_cycle`]
//!    publishes the complete final state.
//!
//! This file is covered by `srclint`'s guarded-module rules: bare
//! `std::sync` primitives and `Instant::now`/`SystemTime::now` are
//! build-failing lint violations here.

use std::sync::Arc;

use filterscope_analysis::{classify_mechanism_view, AnalysisContext, AnalysisSuite};
use filterscope_logformat::{BlockParser, RequestUrl, Schema};
use filterscope_proxy::{Decision, PolicyEngine};
use interleave::{IMutex, IReceiver, Ordering};

use crate::metrics::{ConnStats, ServerStats};
use crate::policy::PolicyCell;

/// One connection's un-folded analysis shard: the delta suite plus the
/// exact record/parse-error counts ingested into it, kept under one lock
/// so a fold can never observe content without its counts. The snap
/// log's zero-delta skip depends on this being exact — deriving the
/// per-cycle delta from the global counters instead races the workers
/// and can silently drop a folded shard from the log (the historical
/// race pinned in `tests/model_proto.rs`).
pub struct Shard {
    pub suite: AnalysisSuite,
    pub records: u64,
    pub parse_errors: u64,
}

impl Shard {
    /// Fresh shard around an empty delta suite.
    pub fn new(suite: AnalysisSuite) -> Shard {
        Shard {
            suite,
            records: 0,
            parse_errors: 0,
        }
    }
}

/// One live connection as the snapshot/metrics threads see it.
pub struct ConnHandle {
    pub stats: Arc<ConnStats>,
    pub delta: Arc<IMutex<Shard>>,
}

/// The decision surface [`ingest_batch`] evaluates records against.
/// Production uses the compiled [`PolicyEngine`]; model tests substitute
/// a deterministic stamp engine to observe which generation decided.
pub trait Decide {
    fn decide_url(&self, url: &RequestUrl) -> Decision;
}

impl Decide for PolicyEngine {
    fn decide_url(&self, url: &RequestUrl) -> Decision {
        PolicyEngine::decide_url(self, url)
    }
}

/// The per-worker parsing state: the canonical schema, the reusable
/// [`BlockParser`] every frame payload goes through (the same line rules as
/// file ingest), and the running physical-line number, bundled so the
/// batch ingest signature stays small.
pub struct LineParser {
    schema: Schema,
    block: BlockParser,
    line_no: u64,
}

impl LineParser {
    pub fn new() -> LineParser {
        LineParser {
            schema: Schema::canonical(),
            block: BlockParser::new(),
            line_no: 0,
        }
    }
}

impl Default for LineParser {
    fn default() -> LineParser {
        LineParser::new()
    }
}

/// What one [`ingest_batch`] call did (counts already applied to the
/// shard and the stats; returned for tests and tracing).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchOutcome {
    pub records: u64,
    pub parse_errors: u64,
    pub allowed: u64,
    pub denied: u64,
    pub redirected: u64,
}

/// Parse one queued batch payload and ingest it into this connection's
/// delta shard. A payload holds whole lines, so it is parsed as one block
/// by [`BlockParser`] — before the delta lock is taken. All counter updates
/// — the shard's exact counts, the connection and daemon totals, and the
/// max record timestamp — happen under the delta lock, so a fold that
/// merged these records also observes their counts and their timestamp.
///
/// The `engine` is whatever the caller pinned for this batch (see
/// [`run_worker`]); passing it per batch rather than reading it per
/// record is what makes a policy hot swap land exactly on a batch
/// boundary.
pub fn ingest_batch<E: Decide>(
    parser: &mut LineParser,
    payload: &[u8],
    ctx: &AnalysisContext,
    delta: &IMutex<Shard>,
    engine: Option<&E>,
    conn: &ConnStats,
    stats: &ServerStats,
) -> BatchOutcome {
    let (views, parse_errors) = parser
        .block
        .parse(payload, &parser.schema, &mut parser.line_no);
    let mut out = BatchOutcome {
        records: views.len() as u64,
        parse_errors,
        ..BatchOutcome::default()
    };
    let mut mechanism = [0u64; 4];
    let mut max_ts = 0u64;
    for view in &views {
        if let Some(engine) = engine {
            match engine.decide_url(&view.url.to_url()) {
                Decision::Allow => out.allowed += 1,
                Decision::Deny(_) => out.denied += 1,
                Decision::Redirect(_) => out.redirected += 1,
            }
        }
        if let Some(kind) = classify_mechanism_view(view) {
            mechanism[kind.index()] += 1;
        }
        max_ts = max_ts.max(view.timestamp.epoch_seconds() as u64);
    }
    let mut shard = delta.lock();
    shard.suite.ingest_block(ctx, &views);
    shard.records += out.records;
    shard.parse_errors += out.parse_errors;
    conn.records.fetch_add(out.records, Ordering::SeqCst);
    conn.parse_errors
        .fetch_add(out.parse_errors, Ordering::SeqCst);
    stats.records.fetch_add(out.records, Ordering::SeqCst);
    stats
        .parse_errors
        .fetch_add(out.parse_errors, Ordering::SeqCst);
    if engine.is_some() {
        stats
            .policy_allowed
            .fetch_add(out.allowed, Ordering::SeqCst);
        stats.policy_denied.fetch_add(out.denied, Ordering::SeqCst);
        stats
            .policy_redirected
            .fetch_add(out.redirected, Ordering::SeqCst);
    }
    for (slot, votes) in stats.mechanism.iter().zip(mechanism) {
        if votes > 0 {
            slot.fetch_add(votes, Ordering::SeqCst);
        }
    }
    // Still under the delta lock: a fold that merged these records must
    // also observe their timestamp for the log frame it writes.
    if max_ts > 0 {
        stats.max_record_ts.fetch_max(max_ts, Ordering::SeqCst);
    }
    drop(shard);
    out
}

/// Worker half of one connection: drain queued batches into the delta
/// shard until the queue closes, then mark the connection done. The
/// policy engine `Arc` is pinned once per batch — the per-record path
/// never takes the policy lock, and a hot swap lands exactly on a batch
/// boundary.
pub fn run_worker<E: Decide>(
    rx: IReceiver<Vec<u8>>,
    conn: &ConnStats,
    stats: &ServerStats,
    delta: &IMutex<Shard>,
    ctx: &AnalysisContext,
    policy: Option<&PolicyCell<E>>,
) {
    let mut parser = LineParser::new();
    while let Some(payload) = rx.recv() {
        conn.queue_depth.fetch_sub(1, Ordering::SeqCst);
        let engine = policy.map(|cell| cell.current());
        ingest_batch(
            &mut parser,
            &payload,
            ctx,
            delta,
            engine.as_deref(),
            conn,
            stats,
        );
    }
    conn.done.store(true, Ordering::SeqCst);
}

/// Swap every connection's delta for a fresh twin and merge the deltas
/// into `global` (the global suite, or one snapshot cycle's collector
/// when a snap log needs the delta framed first), in accept order.
/// Holding each delta lock only for the swap keeps the ingest workers
/// off the fold's critical path. Returns the exact `(records,
/// parse_errors)` counts behind the merged content — taken under the
/// same locks as the suites, so they can never disagree with it.
pub fn fold_shards(conns: &IMutex<Vec<ConnHandle>>, global: &mut AnalysisSuite) -> (u64, u64) {
    let handles: Vec<Arc<IMutex<Shard>>> =
        conns.lock().iter().map(|c| Arc::clone(&c.delta)).collect();
    let (mut records, mut parse_errors) = (0u64, 0u64);
    for shard in handles {
        let taken = {
            let mut shard = shard.lock();
            records += std::mem::take(&mut shard.records);
            parse_errors += std::mem::take(&mut shard.parse_errors);
            shard.suite.take_delta()
        };
        global.merge(taken);
    }
    (records, parse_errors)
}

/// Cumulative `(records, parse_errors)` actually folded into the global
/// suite — the recovered baseline plus every cycle's exact fold count.
/// This, not the live ingest counters, is what a compaction checkpoint's
/// counters must say: it describes exactly what the checkpointed suite
/// contains, nothing a worker ingested since.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FoldTotals {
    pub records: u64,
    pub parse_errors: u64,
}

/// The counters handed to [`SnapSink::publish`] alongside the global
/// suite: the live ingest totals (what the snapshot's status metadata
/// reports) and the exact folded totals (what the published suite
/// actually contains — the two differ by whatever workers ingested
/// after the fold).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PublishCounters {
    pub records: u64,
    pub parse_errors: u64,
    pub folded: FoldTotals,
}

/// Where one snapshot cycle's effects land. Production wires this to the
/// append-only snap log plus the atomic report writer (`server.rs`);
/// model tests use an in-memory sink that asserts the log/report
/// equivalence invariant at every publish.
pub trait SnapSink {
    /// Frame one cycle's delta — called *before* the delta is merged
    /// into the global suite, and only for cycles that folded something.
    fn append_delta(
        &mut self,
        ts: u64,
        records: u64,
        parse_errors: u64,
        delta: &AnalysisSuite,
    ) -> Result<(), String>;

    /// Whether the sink wants a compaction checkpoint after this merge.
    fn should_checkpoint(&self) -> bool;

    /// Rewrite the log as one checkpoint carrying the cumulative fold.
    fn checkpoint(
        &mut self,
        ts: u64,
        records: u64,
        parse_errors: u64,
        global: &AnalysisSuite,
    ) -> Result<(), String>;

    /// Publish the merged global state (report/summary/status files in
    /// production). Runs once per cycle, after the merge.
    fn publish(&mut self, counters: PublishCounters, global: &AnalysisSuite) -> Result<(), String>;
}

/// One snapshot cycle, in the order the log/report equivalence depends
/// on: fold every shard's delta into a fresh collector, frame the delta
/// into the sink (skipping genuinely empty cycles — the exact fold
/// counts make that skip safe), merge into the global suite, compact if
/// the sink asks, publish. Sink failures are counted in
/// `stats.snapshot_errors` and returned for the caller to log; the delta
/// still reaches the global suite, and the next checkpoint heals the
/// log.
pub fn snapshot_cycle<S: SnapSink>(
    conns: &IMutex<Vec<ConnHandle>>,
    cycle: AnalysisSuite,
    global: &mut AnalysisSuite,
    folded: &mut FoldTotals,
    stats: &ServerStats,
    sink: &mut S,
) -> Vec<String> {
    let mut cycle = cycle;
    let (rec_d, err_d) = fold_shards(conns, &mut cycle);
    folded.records += rec_d;
    folded.parse_errors += err_d;
    let records = stats.records.load(Ordering::SeqCst);
    let parse_errors = stats.parse_errors.load(Ordering::SeqCst);
    let mut errors = Vec::new();
    let fail = |stats: &ServerStats, errors: &mut Vec<String>, e: String| {
        stats.snapshot_errors.fetch_add(1, Ordering::SeqCst);
        errors.push(e);
    };
    if rec_d > 0 || err_d > 0 {
        let ts = stats.max_record_ts.load(Ordering::SeqCst);
        if let Err(e) = sink.append_delta(ts, rec_d, err_d, &cycle) {
            fail(stats, &mut errors, e);
        }
    }
    global.merge(cycle);
    if sink.should_checkpoint() {
        let ts = stats.max_record_ts.load(Ordering::SeqCst);
        if let Err(e) = sink.checkpoint(ts, folded.records, folded.parse_errors, global) {
            fail(stats, &mut errors, e);
        }
    }
    let counters = PublishCounters {
        records,
        parse_errors,
        folded: *folded,
    };
    if let Err(e) = sink.publish(counters, global) {
        fail(stats, &mut errors, e);
    }
    errors
}

/// Shutdown drain: spin until every connection's worker has drained its
/// queue and exited, or `expired` says to stop waiting. The caller owns
/// the pacing — production sleeps a poll interval and checks a deadline
/// inside `expired`; model tests count polls. Returns `true` when every
/// worker was observed done (the final [`snapshot_cycle`] is then
/// complete by construction).
pub fn await_drain(conns: &IMutex<Vec<ConnHandle>>, mut expired: impl FnMut() -> bool) -> bool {
    loop {
        let all_done = conns
            .lock()
            .iter()
            .all(|c| c.stats.done.load(Ordering::SeqCst));
        if all_done {
            return true;
        }
        if expired() {
            return false;
        }
    }
}
