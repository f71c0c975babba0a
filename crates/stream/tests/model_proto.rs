//! Interleaving-explorer checks over the serve daemon's concurrency core.
//!
//! These tests run the *production* functions from `filterscope_stream::proto`
//! — not models of them — under `interleave::Explorer`, which enumerates
//! every interleaving of their lock/atomic/channel operations up to a
//! preemption bound. Four protocols are checked (see `proto`'s module
//! docs): shard delta take/fold, policy hot swap at batch boundaries,
//! append-before-merge snapshot ordering, and drain-then-final-snapshot
//! shutdown.
//!
//! The default tests explore at 2 preemptions and finish in seconds; the
//! `#[ignore]`d deep run raises the bound and prints schedule counts and
//! prune rates. `explorer_finds_pre_pr9_counter_race` pins the historical
//! counter-derivation bug as a negative: the explorer must *find* that
//! race, deterministically, and replay it from its seed.

use std::sync::Arc;

use filterscope_analysis::{AnalysisContext, AnalysisSuite, Selection, SuiteParams};
use filterscope_core::{ProxyId, Timestamp};
use filterscope_logformat::record::RecordBuilder;
use filterscope_logformat::RequestUrl;
use filterscope_proxy::{Decision, PolicyEngine, Trigger};
use filterscope_snapstore::{encode_value, suite_at, Frame, FrameKind, SUITE_KEY};
use filterscope_stream::metrics::{ConnStats, ServerStats};
use filterscope_stream::proto::{
    await_drain, fold_shards, ingest_batch, run_worker, snapshot_cycle, ConnHandle, Decide,
    FoldTotals, LineParser, PublishCounters, Shard, SnapSink,
};
use filterscope_stream::shutdown::{request, requested};
use filterscope_stream::PolicyCell;
use interleave::{sync_channel, thread, Explorer, FailureKind, IAtomicBool, IMutex, Ordering};

// ---------------------------------------------------------------------------
// Fixture: canonical record batches and the expected sequential result
// ---------------------------------------------------------------------------

fn fresh_suite() -> AnalysisSuite {
    AnalysisSuite::with_selection(&SuiteParams::new(3), &Selection::default_suite())
}

fn line(i: usize) -> String {
    RecordBuilder::new(
        Timestamp::parse_fields("2011-08-03", &format!("10:00:{i:02}")).unwrap(),
        ProxyId::Sg42,
        RequestUrl::http(format!("host{i}.example.com"), format!("/p{i}")),
    )
    .build()
    .write_csv()
}

struct Fixture {
    ctx: AnalysisContext,
    /// One record.
    batch_a: Vec<u8>,
    /// One record, different host.
    batch_b: Vec<u8>,
    /// Two records in one payload.
    batch_two: Vec<u8>,
    /// `render_all` of a sequential single-threaded pass over a then b.
    expected_ab: String,
}

impl Fixture {
    fn new() -> Fixture {
        let ctx = AnalysisContext::standard(None);
        let batch_a = format!("{}\n", line(1)).into_bytes();
        let batch_b = format!("{}\n", line(2)).into_bytes();
        let batch_two = format!("{}\n{}\n", line(3), line(4)).into_bytes();
        let expected_ab = sequential_render(&ctx, &[&batch_a, &batch_b]);
        Fixture {
            ctx,
            batch_a,
            batch_b,
            batch_two,
            expected_ab,
        }
    }
}

/// The ground truth the fold must reproduce: ingest every batch on one
/// thread (std passthrough backend), then merge and render.
fn sequential_render(ctx: &AnalysisContext, batches: &[&[u8]]) -> String {
    let stats = ServerStats::new();
    let conn = ConnStats::new(0, "seq".to_string());
    let delta = IMutex::new(Shard::new(fresh_suite()));
    let mut parser = LineParser::new();
    for payload in batches {
        ingest_batch::<PolicyEngine>(&mut parser, payload, ctx, &delta, None, &conn, &stats);
    }
    let mut shard = delta.into_inner();
    let mut global = fresh_suite();
    global.merge(shard.suite.take_delta());
    global.render_all(ctx)
}

/// Register a fresh connection (stats + empty shard) on `conns`.
fn add_conn(conns: &IMutex<Vec<ConnHandle>>, id: u64) -> (Arc<ConnStats>, Arc<IMutex<Shard>>) {
    let conn = Arc::new(ConnStats::new(id, format!("model-{id}")));
    let delta = Arc::new(IMutex::new(Shard::new(fresh_suite())));
    conns.lock().push(ConnHandle {
        stats: Arc::clone(&conn),
        delta: Arc::clone(&delta),
    });
    (conn, delta)
}

// ---------------------------------------------------------------------------
// Protocol 1: shard delta take/fold
// ---------------------------------------------------------------------------

/// Two workers ingest into their own shards while the main task folds
/// concurrently; a second fold collects the stragglers. Under every
/// schedule the folded result must equal the sequential pass, and the
/// exact fold counts must account for every record.
fn model_fold_equivalence(fx: &Fixture) {
    let stats = ServerStats::new();
    let conns: IMutex<Vec<ConnHandle>> = IMutex::new(Vec::new());
    let (conn_a, delta_a) = add_conn(&conns, 0);
    let (conn_b, delta_b) = add_conn(&conns, 1);
    let mut global = fresh_suite();
    let mut total = FoldTotals::default();
    thread::scope(|s| {
        s.spawn(|| {
            let mut parser = LineParser::new();
            ingest_batch::<PolicyEngine>(
                &mut parser,
                &fx.batch_a,
                &fx.ctx,
                &delta_a,
                None,
                &conn_a,
                &stats,
            );
        });
        s.spawn(|| {
            let mut parser = LineParser::new();
            ingest_batch::<PolicyEngine>(
                &mut parser,
                &fx.batch_b,
                &fx.ctx,
                &delta_b,
                None,
                &conn_b,
                &stats,
            );
        });
        // Fold while the workers may still be mid-batch.
        let (r, e) = fold_shards(&conns, &mut global);
        total.records += r;
        total.parse_errors += e;
    });
    // Workers joined; one more fold must pick up everything left.
    let (r, e) = fold_shards(&conns, &mut global);
    total.records += r;
    total.parse_errors += e;
    assert_eq!(total.records, 2, "fold counts must cover every record");
    assert_eq!(total.parse_errors, 0);
    assert_eq!(stats.records.load(Ordering::SeqCst), 2);
    assert_eq!(conn_a.records.load(Ordering::SeqCst), 1);
    assert_eq!(conn_b.records.load(Ordering::SeqCst), 1);
    assert_eq!(
        global.render_all(&fx.ctx),
        fx.expected_ab,
        "fold(deltas) diverged from the sequential ingest"
    );
}

#[test]
fn fold_is_equivalent_to_sequential_ingest_under_all_schedules() {
    let fx = Fixture::new();
    let report = Explorer::new()
        .preemptions(2)
        .explore(|| model_fold_equivalence(&fx));
    println!("fold equivalence (2 preemptions): {report}");
    assert!(report.schedules > 1, "exploration must branch");
}

// ---------------------------------------------------------------------------
// Protocol 2: policy hot swap lands on batch boundaries
// ---------------------------------------------------------------------------

/// Deterministic stand-in for the compiled engine: generation 1 allows
/// everything, generation 2 denies everything. A swap that lands
/// mid-batch would leave an odd allowed/denied count.
struct Stamp(u64);

impl Decide for Stamp {
    fn decide_url(&self, _url: &RequestUrl) -> Decision {
        if self.0 == 1 {
            Decision::Allow
        } else {
            Decision::Deny(Trigger::Keyword)
        }
    }
}

/// One worker drains two 2-record batches through the real `run_worker`
/// while another task swaps the policy cell. Batches of two records make
/// a mid-batch swap visible as odd decision counters.
fn model_policy_swap(fx: &Fixture) {
    let stats = ServerStats::new();
    let conn = Arc::new(ConnStats::new(0, "swap".to_string()));
    let delta = Arc::new(IMutex::new(Shard::new(fresh_suite())));
    let cell = PolicyCell::new(Stamp(1));
    let (tx, rx) = sync_channel::<Vec<u8>>(2);
    conn.queue_depth.fetch_add(1, Ordering::SeqCst);
    tx.send(fx.batch_two.clone()).unwrap();
    conn.queue_depth.fetch_add(1, Ordering::SeqCst);
    tx.send(fx.batch_two.clone()).unwrap();
    drop(tx);
    thread::scope(|s| {
        s.spawn(|| run_worker(rx, &conn, &stats, &delta, &fx.ctx, Some(&cell)));
        s.spawn(|| {
            cell.swap(Stamp(2));
        });
    });
    let allowed = stats.policy_allowed.load(Ordering::SeqCst);
    let denied = stats.policy_denied.load(Ordering::SeqCst);
    assert_eq!(allowed + denied, 4, "every record must be decided");
    assert_eq!(
        allowed % 2,
        0,
        "a policy swap split a batch: {allowed} allowed / {denied} denied"
    );
    assert_eq!(cell.version(), 2);
    assert!(
        conn.done.load(Ordering::SeqCst),
        "worker must drain and exit"
    );
    assert_eq!(conn.queue_depth.load(Ordering::SeqCst), 0);
    assert_eq!(stats.records.load(Ordering::SeqCst), 4);
}

#[test]
fn policy_swap_never_splits_a_batch_under_any_schedule() {
    let fx = Fixture::new();
    let report = Explorer::new()
        .preemptions(2)
        .explore(|| model_policy_swap(&fx));
    println!("policy swap (2 preemptions): {report}");
    assert!(report.schedules > 1, "exploration must branch");
}

// ---------------------------------------------------------------------------
// Protocol 3: append-before-merge snapshot ordering
// ---------------------------------------------------------------------------

/// In-memory [`SnapSink`] that stores real snapstore frames and asserts
/// the log/report equivalence invariant at every publish: folding the
/// frames must reproduce the published global suite and the exact folded
/// counts. Also asserts the zero-delta skip — an empty cycle must never
/// reach the log.
struct MemSink<'a> {
    ctx: &'a AnalysisContext,
    frames: Vec<Frame>,
    next_seq: u64,
    /// Compact once the log holds this many frames (`usize::MAX` = never).
    checkpoint_after: usize,
    publishes: u64,
}

impl<'a> MemSink<'a> {
    fn new(ctx: &'a AnalysisContext, checkpoint_after: usize) -> MemSink<'a> {
        MemSink {
            ctx,
            frames: Vec::new(),
            next_seq: 0,
            checkpoint_after,
            publishes: 0,
        }
    }
}

impl SnapSink for MemSink<'_> {
    fn append_delta(
        &mut self,
        ts: u64,
        records: u64,
        parse_errors: u64,
        delta: &AnalysisSuite,
    ) -> Result<(), String> {
        assert!(
            records > 0 || parse_errors > 0,
            "a zero-delta cycle reached the log"
        );
        self.next_seq += 1;
        self.frames.push(Frame {
            kind: FrameKind::Delta,
            seq: self.next_seq,
            ts,
            key: SUITE_KEY.to_string(),
            value: encode_value(records, parse_errors, delta),
        });
        Ok(())
    }

    fn should_checkpoint(&self) -> bool {
        self.frames.len() >= self.checkpoint_after
    }

    fn checkpoint(
        &mut self,
        ts: u64,
        records: u64,
        parse_errors: u64,
        global: &AnalysisSuite,
    ) -> Result<(), String> {
        self.next_seq += 1;
        self.frames = vec![Frame {
            kind: FrameKind::Checkpoint,
            seq: self.next_seq,
            ts,
            key: SUITE_KEY.to_string(),
            value: encode_value(records, parse_errors, global),
        }];
        Ok(())
    }

    fn publish(&mut self, counters: PublishCounters, global: &AnalysisSuite) -> Result<(), String> {
        self.publishes += 1;
        match suite_at(&self.frames, u64::MAX).map_err(|e| e.to_string())? {
            Some(view) => {
                assert_eq!(
                    view.records, counters.folded.records,
                    "log record count diverged from the fold bookkeeping"
                );
                assert_eq!(view.parse_errors, counters.folded.parse_errors);
                assert_eq!(
                    view.suite.render_all(self.ctx),
                    global.render_all(self.ctx),
                    "folding the log diverged from the published report"
                );
            }
            None => {
                assert_eq!(
                    counters.folded.records, 0,
                    "records were folded but the log is empty"
                );
            }
        }
        Ok(())
    }
}

/// One worker ingests two batches while the main task runs snapshot
/// cycles concurrently, then a final cycle after the join. The MemSink
/// invariant is asserted at *every* publish under *every* schedule;
/// schedules that produce two delta frames also exercise checkpoint
/// compaction (threshold 2).
fn model_snaplog_order(fx: &Fixture) {
    let stats = ServerStats::new();
    let conns: IMutex<Vec<ConnHandle>> = IMutex::new(Vec::new());
    let (conn, delta) = add_conn(&conns, 0);
    let mut global = fresh_suite();
    let mut folded = FoldTotals::default();
    let mut sink = MemSink::new(&fx.ctx, 2);
    thread::scope(|s| {
        s.spawn(|| {
            let mut parser = LineParser::new();
            ingest_batch::<PolicyEngine>(
                &mut parser,
                &fx.batch_a,
                &fx.ctx,
                &delta,
                None,
                &conn,
                &stats,
            );
            ingest_batch::<PolicyEngine>(
                &mut parser,
                &fx.batch_b,
                &fx.ctx,
                &delta,
                None,
                &conn,
                &stats,
            );
        });
        for _ in 0..2 {
            let errors = snapshot_cycle(
                &conns,
                fresh_suite(),
                &mut global,
                &mut folded,
                &stats,
                &mut sink,
            );
            assert!(errors.is_empty(), "{errors:?}");
        }
    });
    let errors = snapshot_cycle(
        &conns,
        fresh_suite(),
        &mut global,
        &mut folded,
        &stats,
        &mut sink,
    );
    assert!(errors.is_empty(), "{errors:?}");
    assert_eq!(
        folded.records, 2,
        "the final cycle must have folded everything"
    );
    assert_eq!(global.render_all(&fx.ctx), fx.expected_ab);
    assert_eq!(sink.publishes, 3);
    assert_eq!(stats.snapshot_errors.load(Ordering::SeqCst), 0);
}

#[test]
fn snaplog_append_precedes_merge_under_all_schedules() {
    let fx = Fixture::new();
    let report = Explorer::new()
        .preemptions(2)
        .explore(|| model_snaplog_order(&fx));
    println!("snaplog ordering (2 preemptions): {report}");
    assert!(report.schedules > 1, "exploration must branch");
}

// ---------------------------------------------------------------------------
// Protocol 4: drain-then-final-snapshot shutdown
// ---------------------------------------------------------------------------

/// A worker drains a pre-filled queue through the real `run_worker`
/// while the main task requests shutdown, awaits the drain with a
/// bounded poll budget, and publishes the final snapshot. Whenever the
/// drain completes inside the budget, the final snapshot must be
/// complete; the MemSink log/report invariant holds unconditionally.
fn model_drain_shutdown(fx: &Fixture) {
    let stats = ServerStats::new();
    let conns: IMutex<Vec<ConnHandle>> = IMutex::new(Vec::new());
    let (conn, delta) = add_conn(&conns, 0);
    let flag = IAtomicBool::new(false);
    let (tx, rx) = sync_channel::<Vec<u8>>(2);
    conn.queue_depth.fetch_add(1, Ordering::SeqCst);
    tx.send(fx.batch_a.clone()).unwrap();
    conn.queue_depth.fetch_add(1, Ordering::SeqCst);
    tx.send(fx.batch_b.clone()).unwrap();
    drop(tx);
    let mut global = fresh_suite();
    let mut folded = FoldTotals::default();
    let mut sink = MemSink::new(&fx.ctx, usize::MAX);
    let mut drained = false;
    thread::scope(|s| {
        s.spawn(|| {
            run_worker::<PolicyEngine>(rx, &conn, &stats, &delta, &fx.ctx, None);
        });
        request(&flag);
        assert!(requested(&flag));
        // Production paces this loop with a sleep and a wall-clock
        // deadline; the model's budget is a poll count.
        let mut polls = 0u32;
        drained = await_drain(&conns, || {
            polls += 1;
            polls > 5
        });
        let errors = snapshot_cycle(
            &conns,
            fresh_suite(),
            &mut global,
            &mut folded,
            &stats,
            &mut sink,
        );
        assert!(errors.is_empty(), "{errors:?}");
    });
    if drained {
        assert_eq!(
            folded.records, 2,
            "a drained shutdown must publish every record"
        );
        assert_eq!(global.render_all(&fx.ctx), fx.expected_ab);
        assert!(conn.done.load(Ordering::SeqCst));
        assert_eq!(conn.queue_depth.load(Ordering::SeqCst), 0);
    }
}

#[test]
fn drained_shutdown_publishes_complete_final_snapshot() {
    let fx = Fixture::new();
    let report = Explorer::new()
        .preemptions(2)
        .explore(|| model_drain_shutdown(&fx));
    println!("drain shutdown (2 preemptions): {report}");
    assert!(report.schedules > 1, "exploration must branch");
}

// ---------------------------------------------------------------------------
// Regression: the pre-snaplog counter-derivation race
// ---------------------------------------------------------------------------

/// The buggy shape this repo shipped before the snap log landed: the
/// per-cycle delta count was derived from the *global* ingest counters
/// (`now - last`) instead of taken under the shard locks. A worker that
/// ingests between the fold and the counter read makes the derived count
/// disagree with the folded content — the log frame then claims records
/// its payload does not contain (or a folded shard is skipped as empty).
/// The assert states the implicit claim the buggy code made.
fn counter_race_model(fx: &Fixture) {
    let stats = ServerStats::new();
    let conns: IMutex<Vec<ConnHandle>> = IMutex::new(Vec::new());
    let (conn, delta) = add_conn(&conns, 0);
    thread::scope(|s| {
        s.spawn(|| {
            let mut parser = LineParser::new();
            ingest_batch::<PolicyEngine>(
                &mut parser,
                &fx.batch_a,
                &fx.ctx,
                &delta,
                None,
                &conn,
                &stats,
            );
            ingest_batch::<PolicyEngine>(
                &mut parser,
                &fx.batch_b,
                &fx.ctx,
                &delta,
                None,
                &conn,
                &stats,
            );
        });
        let mut cycle = fresh_suite();
        let (exact, _) = fold_shards(&conns, &mut cycle);
        let derived = stats.records.load(Ordering::SeqCst);
        assert_eq!(
            derived, exact,
            "per-cycle delta derived from global counters disagrees with the folded content"
        );
    });
}

#[test]
fn explorer_finds_pre_snaplog_counter_race() {
    let fx = Fixture::new();
    let explore = || {
        Explorer::new()
            .preemptions(2)
            .try_explore(|| counter_race_model(&fx))
    };
    let failure = explore().expect_err("the counter-derivation race must be found");
    assert_eq!(failure.kind, FailureKind::Panic);
    assert!(!failure.seed.is_empty(), "failure must carry a replay seed");
    assert!(
        failure.message.contains("disagrees"),
        "unexpected counterexample: {failure}"
    );
    println!(
        "counter race found after {} schedule(s), seed {}",
        failure.schedules, failure.seed
    );

    // The counterexample is deterministic: a second exploration finds the
    // same schedule.
    let again = explore().expect_err("second exploration must find the race too");
    assert_eq!(again.seed, failure.seed);

    // And the seed replays to the identical failure.
    let seed = failure.seed.clone();
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        Explorer::replay(&seed, || counter_race_model(&fx));
    }))
    .expect_err("replay must reproduce the race");
    let message = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(
        message.contains("disagrees"),
        "replay failed differently: {message}"
    );
}

// ---------------------------------------------------------------------------
// Deep exploration (not part of the default test run)
// ---------------------------------------------------------------------------

/// Higher-bound sweep over all four protocols, printing schedule counts
/// and prune rates; run with `cargo test -p filterscope-stream -- --ignored`.
/// The sleep-set pruning under a preemption bound is a heuristic, so the
/// policy-swap protocol is also swept unpruned and must visit at least as
/// many schedules.
#[test]
#[ignore]
fn deep_exploration_all_protocols() {
    let fx = Fixture::new();
    let deep = |name: &str, model: &dyn Fn()| {
        let report = Explorer::new().preemptions(3).explore(model);
        println!("{name} (3 preemptions, pruned): {report}");
        report
    };
    deep("fold equivalence", &|| model_fold_equivalence(&fx));
    let pruned = deep("policy swap", &|| model_policy_swap(&fx));
    deep("snaplog ordering", &|| model_snaplog_order(&fx));
    deep("drain shutdown", &|| model_drain_shutdown(&fx));

    let unpruned = Explorer::new()
        .preemptions(3)
        .pruning(false)
        .max_schedules(10_000_000)
        .explore(|| model_policy_swap(&fx));
    println!("policy swap (3 preemptions, unpruned): {unpruned}");
    assert!(
        unpruned.schedules >= pruned.schedules,
        "pruning must only remove schedules"
    );
}
