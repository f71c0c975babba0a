//! The `filterscope serve` daemon: N concurrent framed TCP connections,
//! per-connection analysis shards, periodic snapshot folds.
//!
//! # Thread model
//!
//! ```text
//! accept thread ──spawns──► reader ──bounded queue──► worker (one pair
//!                           per connection; the worker ingests into that
//!                           connection's private delta suite)
//! snapshot thread: every interval, swaps every delta for a fresh twin
//!                  (`AnalysisSuite::take_delta`) and folds the deltas
//!                  into the global suite in connection order, then
//!                  writes an atomic snapshot
//! metrics thread:  plaintext HTTP endpoint (optional)
//! ```
//!
//! The concurrency-critical core — shard ingest/fold, per-batch policy
//! pinning, the append-before-merge snapshot cycle, and the shutdown
//! drain — lives in [`crate::proto`], written against the [`interleave`]
//! primitives so the interleaving explorer checks the same functions this
//! daemon runs (`tests/model_proto.rs`). This module owns everything the
//! model does not: sockets, files, wall-clock pacing, and the signal
//! plumbing.
//!
//! # Why the result is byte-identical to batch `analyze`
//!
//! Every delta and the global suite share one `Selection`, and every
//! registered analysis satisfies the merge contract (`ingest` is
//! associative under `merge` — property-tested in `prop_registry.rs`),
//! so `fold(deltas)` equals a single sequential pass over the same
//! records regardless of how they interleaved across connections or
//! snapshot cycles.
//!
//! # Failure containment
//!
//! * A corrupt frame drops **that connection** (counted, surfaced on
//!   `/metrics`); every other connection and the daemon keep running.
//! * A full queue blocks that connection's reader, which stops draining
//!   the socket — backpressure reaches the client through TCP.
//! * Shutdown (SIGINT or `GET /shutdown`) stops the accept loop, lets
//!   every worker drain its queue, folds the final deltas, and writes a
//!   complete last snapshot before `run` returns.

use std::io::{BufReader, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use filterscope_analysis::{AnalysisContext, AnalysisSuite, Selection, SuiteParams};
use filterscope_core::{Error, Result};
use filterscope_logformat::frame::{Frame, FrameKind};
use interleave::{sync_channel, IAtomicBool, IMutex, ISender, Ordering};

use crate::metrics::{self, ConnStats, ServerStats};
use crate::policy::{PolicyCell, PolicyWatcher, ReloadOutcome};
use crate::proto::{self, ConnHandle, FoldTotals, PublishCounters, Shard, SnapSink};
use crate::snapshot::{SnapLogStatus, SnapshotWriter};
use filterscope_proxy::ProfileKind;
use filterscope_snapstore::{
    encode_value, read_frames, suite_at, FrameKind as SnapFrameKind, SnapLog, SUITE_KEY,
};

/// How long `run` waits for workers to drain after shutdown before
/// folding the final snapshot anyway.
const DRAIN_DEADLINE: Duration = Duration::from_secs(10);

/// Poll granularity of the accept / snapshot loops.
const POLL: Duration = Duration::from_millis(10);

/// Configuration for [`Server::bind`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Ingest listen address (`127.0.0.1:0` for an ephemeral port).
    pub listen: String,
    /// Metrics listen address; `None` disables the endpoint.
    pub metrics: Option<String>,
    /// Snapshot directory (created if missing).
    pub snapshot_dir: PathBuf,
    /// Interval between snapshot folds.
    pub snapshot_every: Duration,
    /// Analysis parameters shared by every shard and the global suite.
    pub params: SuiteParams,
    /// Which analyses to run.
    pub selection: Selection,
    /// Bound of each connection's batch queue (backpressure threshold).
    pub queue_batches: usize,
    /// Compiled policy artifact to evaluate every record against, with
    /// witness-gated hot reload each snapshot cycle; `None` disables
    /// policy evaluation.
    pub policy_artifact: Option<PathBuf>,
    /// The censorship mechanism the operator expects ingested traffic
    /// to show (`serve --censor`); reported on `/metrics` next to the
    /// per-mechanism vote counters so drift is visible at a glance.
    pub expected_censor: Option<ProfileKind>,
    /// Append-only snapshot log (`serve --snap-log`): every snapshot
    /// cycle's suite delta is framed into it before being folded into the
    /// global suite, so `filterscope history` can reconstruct the state
    /// as of any past instant. `None` disables the log.
    pub snap_log: Option<PathBuf>,
    /// Compaction threshold for the snapshot log in bytes: when the log
    /// grows past this, it is rewritten as one checkpoint frame carrying
    /// the cumulative fold. `0` disables compaction.
    pub snap_log_max_bytes: u64,
}

/// Counters reported by [`Server::run`] after shutdown.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeSummary {
    /// Records parsed and ingested.
    pub records: u64,
    /// Lines that failed to parse.
    pub parse_errors: u64,
    /// Connections accepted.
    pub connections: u64,
    /// Connections dropped for framing errors.
    pub dropped_connections: u64,
    /// Snapshots written (the last one is the final state).
    pub snapshots: u64,
    /// Policy generation at shutdown (0 = no policy configured).
    pub policy_version: u64,
    /// Accepted policy hot-swaps.
    pub policy_reloads: u64,
    /// Rejected policy reload attempts (running policy kept).
    pub policy_reload_failures: u64,
}

/// A bound serve daemon; [`Server::run`] blocks until shutdown.
pub struct Server {
    config: ServeConfig,
    listener: TcpListener,
    metrics_listener: Option<TcpListener>,
    /// Artifact watcher when `policy_artifact` is configured; the mutex
    /// is only ever contended by the snapshot loop's once-per-cycle poll.
    policy: Option<IMutex<PolicyWatcher>>,
}

/// The production [`SnapSink`]: the optional append-only snap log plus
/// the atomic report/summary/status writer, with the snaplog gauges
/// refreshed once per publish.
struct LogSink<'a> {
    log: Option<SnapLog>,
    writer: SnapshotWriter,
    ctx: &'a AnalysisContext,
    stats: &'a ServerStats,
    recovered_frames: u64,
}

impl SnapSink for LogSink<'_> {
    fn append_delta(
        &mut self,
        ts: u64,
        records: u64,
        parse_errors: u64,
        delta: &AnalysisSuite,
    ) -> std::result::Result<(), String> {
        let Some(log) = self.log.as_mut() else {
            return Ok(());
        };
        let value = encode_value(records, parse_errors, delta);
        log.append(SnapFrameKind::Delta, ts, SUITE_KEY, value)
            .map(|_| ())
            .map_err(|e| format!("snap log append failed: {e}"))
    }

    fn should_checkpoint(&self) -> bool {
        self.log.as_ref().is_some_and(SnapLog::should_compact)
    }

    fn checkpoint(
        &mut self,
        ts: u64,
        records: u64,
        parse_errors: u64,
        global: &AnalysisSuite,
    ) -> std::result::Result<(), String> {
        let Some(log) = self.log.as_mut() else {
            return Ok(());
        };
        // The checkpoint's counters come from the fold bookkeeping, not
        // the live counters: they must describe exactly what the
        // checkpointed suite contains, nothing a worker ingested since.
        let value = encode_value(records, parse_errors, global);
        log.compact(ts, SUITE_KEY, value)
            .map(|_| ())
            .map_err(|e| format!("snap log compaction failed: {e}"))
    }

    fn publish(
        &mut self,
        counters: PublishCounters,
        global: &AnalysisSuite,
    ) -> std::result::Result<(), String> {
        if let Some(log) = self.log.as_ref() {
            let stats = self.stats;
            stats.snaplog_bytes.store(log.bytes(), Ordering::SeqCst);
            stats.snaplog_frames.store(log.frames(), Ordering::SeqCst);
            stats
                .snaplog_last_compaction_seq
                .store(log.last_compaction_seq(), Ordering::SeqCst);
        }
        let report = format!("{}\n", global.render_all(self.ctx));
        let summary = global.summary_json(self.ctx);
        let log_status = self.log.as_ref().map(|log| SnapLogStatus {
            log_seq: log.last_seq(),
            recovered_frames: self.recovered_frames,
        });
        match self.writer.write(
            &report,
            &summary,
            counters.records,
            counters.parse_errors,
            log_status,
        ) {
            Ok(seq) => {
                self.stats.snapshot_written(seq);
                self.stats
                    .published_records
                    .store(counters.folded.records, Ordering::Release);
                Ok(())
            }
            Err(e) => Err(format!("snapshot {} failed: {e}", self.writer.seq() + 1)),
        }
    }
}

impl Server {
    /// Bind the ingest (and optional metrics) listeners, create the
    /// snapshot directory, and — when configured — load and witness-check
    /// the policy artifact. Fails fast on unusable addresses and on an
    /// artifact that cannot be proven faithful.
    pub fn bind(config: ServeConfig) -> Result<Server> {
        let listener = TcpListener::bind(&config.listen)
            .map_err(|e| Error::Io(format!("cannot listen on {}: {e}", config.listen)))?;
        listener.set_nonblocking(true)?;
        let metrics_listener = match &config.metrics {
            Some(addr) => {
                let l = TcpListener::bind(addr)
                    .map_err(|e| Error::Io(format!("cannot listen on {addr}: {e}")))?;
                l.set_nonblocking(true)?;
                Some(l)
            }
            None => None,
        };
        std::fs::create_dir_all(&config.snapshot_dir)?;
        let policy = match &config.policy_artifact {
            Some(path) => Some(IMutex::new(PolicyWatcher::open(path)?)),
            None => None,
        };
        Ok(Server {
            config,
            listener,
            metrics_listener,
            policy,
        })
    }

    /// The bound ingest address (resolves ephemeral ports).
    pub fn local_addr(&self) -> Result<SocketAddr> {
        self.listener.local_addr().map_err(Error::from)
    }

    /// The bound metrics address, when the endpoint is enabled.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_listener
            .as_ref()
            .and_then(|l| l.local_addr().ok())
    }

    /// Run until `shutdown` is set (SIGINT handler, `/shutdown`, or a
    /// test flipping the flag), then drain, write the final snapshot,
    /// and return the lifetime counters.
    pub fn run(&self, ctx: &AnalysisContext, shutdown: Arc<IAtomicBool>) -> Result<ServeSummary> {
        let stats = ServerStats::new();
        let conns: IMutex<Vec<ConnHandle>> = IMutex::new(Vec::new());
        let writer = SnapshotWriter::new(&self.config.snapshot_dir)?;
        let mut global = AnalysisSuite::with_selection(&self.config.params, &self.config.selection);
        // Open the snapshot log (if configured) and rehydrate the global
        // suite from it: a restarted daemon resumes exactly where the log
        // left off, and its first snapshot already covers the recovered
        // records. A log written under a different selection cannot be
        // folded into this run's suites, so that fails closed.
        let mut snaplog: Option<SnapLog> = None;
        let mut recovered_frames = 0u64;
        // Cumulative counts actually folded into `global` (recovered
        // baseline + every cycle's exact fold count) — what a compaction
        // checkpoint's counters must say.
        let mut folded = FoldTotals::default();
        if let Some(path) = &self.config.snap_log {
            let log = SnapLog::open(path, self.config.snap_log_max_bytes)?;
            let (frames, _) = read_frames(path)?;
            if let Some(view) = suite_at(&frames, u64::MAX)? {
                if view.suite.keys() != global.keys() {
                    return Err(Error::InvalidConfig(format!(
                        "snap log {} was written under a different analysis \
                         selection; refusing to resume from it",
                        path.display()
                    )));
                }
                stats.records.store(view.records, Ordering::SeqCst);
                stats
                    .parse_errors
                    .store(view.parse_errors, Ordering::SeqCst);
                stats
                    .max_record_ts
                    .store(frames.last().map_or(0, |f| f.ts), Ordering::SeqCst);
                folded = FoldTotals {
                    records: view.records,
                    parse_errors: view.parse_errors,
                };
                global = view.suite;
            }
            recovered_frames = log.frames();
            stats.snaplog_active.store(true, Ordering::SeqCst);
            stats.snaplog_bytes.store(log.bytes(), Ordering::SeqCst);
            stats.snaplog_frames.store(log.frames(), Ordering::SeqCst);
            stats
                .snaplog_last_compaction_seq
                .store(log.last_compaction_seq(), Ordering::SeqCst);
            snaplog = Some(log);
        }
        let policy_cell: Option<Arc<PolicyCell>> = self.policy.as_ref().map(|w| w.lock().cell());
        if let Some(cell) = &policy_cell {
            stats.policy_version.store(cell.version(), Ordering::SeqCst);
        }
        if let Some(kind) = self.config.expected_censor {
            stats.expect_mechanism(kind);
        }
        let mut sink = LogSink {
            log: snaplog,
            writer,
            ctx,
            stats: &stats,
            recovered_frames,
        };

        std::thread::scope(|scope| -> Result<()> {
            // Accept loop: one reader + one worker thread per connection.
            scope.spawn(|| {
                while !shutdown.load(Ordering::SeqCst) {
                    let (stream, peer) = match self.listener.accept() {
                        Ok(pair) => pair,
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(POLL);
                            continue;
                        }
                        Err(_) => {
                            std::thread::sleep(POLL);
                            continue;
                        }
                    };
                    let id = stats.connections_total.fetch_add(1, Ordering::SeqCst);
                    stats.connections_live.fetch_add(1, Ordering::SeqCst);
                    let conn = Arc::new(ConnStats::new(id, peer.to_string()));
                    let delta = Arc::new(IMutex::new(Shard::new(AnalysisSuite::with_selection(
                        &self.config.params,
                        &self.config.selection,
                    ))));
                    conns.lock().push(ConnHandle {
                        stats: Arc::clone(&conn),
                        delta: Arc::clone(&delta),
                    });
                    let (tx, rx) = sync_channel::<Vec<u8>>(self.config.queue_batches);
                    {
                        let conn = Arc::clone(&conn);
                        let shutdown = &shutdown;
                        let stats = &stats;
                        scope.spawn(move || {
                            read_connection(stream, &conn, stats, shutdown, tx);
                            stats.connections_live.fetch_sub(1, Ordering::SeqCst);
                        });
                    }
                    {
                        let stats = &stats;
                        let policy = policy_cell.clone();
                        scope.spawn(move || {
                            proto::run_worker(rx, &conn, stats, &delta, ctx, policy.as_deref());
                        });
                    }
                }
            });

            // Metrics endpoint (optional).
            if let Some(listener) = &self.metrics_listener {
                let shutdown = &shutdown;
                let stats = &stats;
                let conns = &conns;
                scope.spawn(move || {
                    metrics::serve_http(
                        listener,
                        shutdown,
                        || {
                            let snapshot: Vec<Arc<ConnStats>> =
                                conns.lock().iter().map(|c| Arc::clone(&c.stats)).collect();
                            metrics::render(stats, &snapshot)
                        },
                        || crate::shutdown::request(shutdown),
                    );
                });
            }

            // Snapshot loop runs on this thread; its exit (after the
            // final fold) is what lets the scope join once the accept,
            // reader, worker, and metrics threads have all returned.
            let mut last_fold = Instant::now();
            loop {
                let stop = shutdown.load(Ordering::SeqCst);
                if !stop && last_fold.elapsed() < self.config.snapshot_every {
                    std::thread::sleep(POLL);
                    continue;
                }
                if stop {
                    // Readers exit on the flag; wait (bounded) for the
                    // workers to drain what was already queued.
                    let deadline = Instant::now() + DRAIN_DEADLINE;
                    proto::await_drain(&conns, || {
                        if Instant::now() >= deadline {
                            return true;
                        }
                        std::thread::sleep(POLL);
                        false
                    });
                }
                // Reload the policy artifact between batches of work: a
                // swap accepted here is observed by every worker at its
                // next batch, without a restart.
                if let Some(watcher) = &self.policy {
                    match watcher.lock().poll() {
                        ReloadOutcome::Unchanged => {}
                        ReloadOutcome::Swapped(version) => {
                            stats.policy_version.store(version, Ordering::SeqCst);
                            stats.policy_reloads.fetch_add(1, Ordering::SeqCst);
                        }
                        ReloadOutcome::Rejected(reason) => {
                            stats.policy_reload_failures.fetch_add(1, Ordering::SeqCst);
                            eprintln!("policy reload rejected: {reason}");
                        }
                    }
                }
                // One snapshot cycle: fold into a fresh collector, frame
                // the delta before the merge, compact if due, publish.
                // The shutdown path runs this same cycle once more after
                // the drain, so the log and the final on-disk report
                // never disagree.
                let cycle =
                    AnalysisSuite::with_selection(&self.config.params, &self.config.selection);
                last_fold = Instant::now();
                for e in proto::snapshot_cycle(
                    &conns,
                    cycle,
                    &mut global,
                    &mut folded,
                    &stats,
                    &mut sink,
                ) {
                    eprintln!("{e}");
                }
                if stop {
                    return Ok(());
                }
            }
        })?;

        Ok(ServeSummary {
            records: stats.records.load(Ordering::SeqCst),
            parse_errors: stats.parse_errors.load(Ordering::SeqCst),
            connections: stats.connections_total.load(Ordering::SeqCst),
            dropped_connections: stats.connections_dropped.load(Ordering::SeqCst),
            snapshots: sink.writer.seq(),
            policy_version: stats.policy_version.load(Ordering::SeqCst),
            policy_reloads: stats.policy_reloads.load(Ordering::SeqCst),
            policy_reload_failures: stats.policy_reload_failures.load(Ordering::SeqCst),
        })
    }
}

/// Reader half of one connection: decode frames, queue batch payloads.
/// Framing errors drop this connection only; the bounded queue's `send`
/// blocking is what turns a slow worker into TCP backpressure.
fn read_connection(
    stream: TcpStream,
    conn: &ConnStats,
    stats: &ServerStats,
    shutdown: &IAtomicBool,
    tx: ISender<Vec<u8>>,
) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(PatientReader { stream, shutdown });
    loop {
        match Frame::read_from(&mut reader) {
            Ok(None) => break, // mid-stream disconnect; keep what arrived
            Ok(Some(frame)) => {
                conn.frames.fetch_add(1, Ordering::Relaxed);
                stats.frames.fetch_add(1, Ordering::Relaxed);
                conn.bytes
                    .fetch_add(frame.payload.len() as u64, Ordering::Relaxed);
                stats
                    .bytes
                    .fetch_add(frame.payload.len() as u64, Ordering::Relaxed);
                match frame.kind {
                    FrameKind::Hello => {
                        if let Ok(label) = frame.payload_str() {
                            *conn.label.lock() = label.to_string();
                        }
                    }
                    FrameKind::Batch => {
                        conn.queue_depth.fetch_add(1, Ordering::SeqCst);
                        if tx.send(frame.payload).is_err() {
                            conn.queue_depth.fetch_sub(1, Ordering::SeqCst);
                            break; // worker gone; nothing left to feed
                        }
                    }
                    FrameKind::Bye => break,
                }
            }
            Err(e) => {
                if shutdown.load(Ordering::SeqCst) {
                    break; // shutdown interrupt, not a peer fault
                }
                *conn.error.lock() = Some(e.to_string());
                stats.connections_dropped.fetch_add(1, Ordering::SeqCst);
                break;
            }
        }
    }
    // Dropping `tx` closes the queue; the worker drains and exits.
}

/// A `TcpStream` wrapper that retries read timeouts until shutdown is
/// requested, so `Frame::read_from` sees frames as atomic reads: a slow
/// sender never produces a spurious truncation error.
struct PatientReader<'a> {
    stream: TcpStream,
    shutdown: &'a IAtomicBool,
}

impl Read for PatientReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        loop {
            match self.stream.read(buf) {
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    if self.shutdown.load(Ordering::SeqCst) {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::TimedOut,
                            "shutdown requested",
                        ));
                    }
                }
                other => return other,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;

    fn config(dir: &std::path::Path) -> ServeConfig {
        ServeConfig {
            listen: "127.0.0.1:0".to_string(),
            metrics: None,
            snapshot_dir: dir.to_path_buf(),
            snapshot_every: Duration::from_millis(50),
            params: SuiteParams::new(3),
            selection: Selection::default_suite(),
            queue_batches: 4,
            policy_artifact: None,
            expected_censor: None,
            snap_log: None,
            snap_log_max_bytes: 0,
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fs-server-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn corrupt_frame_drops_connection_but_not_server() {
        let dir = temp_dir("corrupt");
        let server = Server::bind(config(&dir)).unwrap();
        let addr = server.local_addr().unwrap();
        let ctx = AnalysisContext::standard(None);
        let shutdown = Arc::new(IAtomicBool::new(false));
        let summary = std::thread::scope(|s| {
            let handle = s.spawn(|| server.run(&ctx, Arc::clone(&shutdown)));
            // A connection that speaks garbage.
            let mut bad = TcpStream::connect(addr).unwrap();
            bad.write_all(b"this is not a frame").unwrap();
            drop(bad);
            // A well-behaved connection right after.
            let mut good = TcpStream::connect(addr).unwrap();
            Frame::hello("good").write_to(&mut good).unwrap();
            Frame::bye().write_to(&mut good).unwrap();
            drop(good);
            // Let the server observe both, then stop.
            std::thread::sleep(Duration::from_millis(300));
            shutdown.store(true, Ordering::SeqCst);
            handle.join().unwrap().unwrap()
        });
        assert_eq!(summary.connections, 2);
        assert_eq!(summary.dropped_connections, 1);
        assert!(summary.snapshots >= 1);
        assert!(dir.join("report.txt").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn policy_hot_swap_changes_decisions_between_batches() {
        use filterscope_logformat::record::RecordBuilder;
        use filterscope_logformat::RequestUrl;
        use filterscope_proxy::{artifact, PolicyData, RuleFamily};

        let dir = temp_dir("hotswap");
        std::fs::create_dir_all(&dir).unwrap();
        let artifact_path = dir.join("policy.fscp");
        let full = PolicyData::standard();
        std::fs::write(&artifact_path, artifact::compile(&full, 1, None)).unwrap();

        let mut cfg = config(&dir.join("snaps"));
        cfg.metrics = Some("127.0.0.1:0".to_string());
        cfg.policy_artifact = Some(artifact_path.clone());
        cfg.expected_censor = Some(ProfileKind::BlueCoat);
        let server = Server::bind(cfg).unwrap();
        let addr = server.local_addr().unwrap();
        let metrics_addr = server.metrics_addr().unwrap();
        let ctx = AnalysisContext::standard(None);
        let shutdown = Arc::new(IAtomicBool::new(false));

        // One canonical line whose URL the standard policy keyword-denies.
        let line = RecordBuilder::new(
            filterscope_core::Timestamp::parse_fields("2011-08-03", "10:30:00").unwrap(),
            filterscope_core::ProxyId::Sg42,
            RequestUrl::http("google.com", "/tbproxy/af/query"),
        )
        .policy_denied()
        .build()
        .write_csv();

        let scrape = || {
            let mut sock = TcpStream::connect(metrics_addr).unwrap();
            write!(sock, "GET /metrics HTTP/1.0\r\n\r\n").unwrap();
            let mut body = String::new();
            sock.read_to_string(&mut body).unwrap();
            body
        };
        let gauge = |page: &str, name: &str| -> u64 {
            page.lines()
                .find_map(|l| l.strip_prefix(name))
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(0)
        };
        let await_gauge = |name: &str, want: u64| {
            let deadline = Instant::now() + Duration::from_secs(10);
            loop {
                let page = scrape();
                if gauge(&page, name) >= want {
                    return page;
                }
                assert!(Instant::now() < deadline, "timed out on {name} >= {want}");
                std::thread::sleep(Duration::from_millis(20));
            }
        };

        let summary = std::thread::scope(|s| {
            let handle = s.spawn(|| server.run(&ctx, Arc::clone(&shutdown)));
            let mut sock = TcpStream::connect(addr).unwrap();
            Frame::hello("swap-test").write_to(&mut sock).unwrap();

            // Batch 1 under the standard policy: denied.
            Frame::batch(format!("{line}\n").into_bytes())
                .write_to(&mut sock)
                .unwrap();
            let page = await_gauge("filterscope_policy_decisions_total{decision=\"deny\"} ", 1);
            assert_eq!(gauge(&page, "filterscope_policy_version "), 1);
            // The policy-denied line carries the Blue Coat fingerprint
            // (DENIED + HTTP 403), matching the declared expectation.
            assert_eq!(
                gauge(
                    &page,
                    "filterscope_mechanism_records_total{mechanism=\"blue-coat\"} "
                ),
                1
            );
            assert!(page.contains("filterscope_expected_mechanism{mechanism=\"blue-coat\"} 1"));

            // Swap in an artifact without keyword rules; no restart.
            let ablated = full.clone().without(RuleFamily::Keywords);
            std::fs::write(&artifact_path, artifact::compile(&ablated, 1, None)).unwrap();
            await_gauge("filterscope_policy_version ", 2);

            // Batch 2, same line, same connection: now allowed.
            Frame::batch(format!("{line}\n").into_bytes())
                .write_to(&mut sock)
                .unwrap();
            await_gauge("filterscope_policy_decisions_total{decision=\"allow\"} ", 1);

            // A corrupt artifact is rejected; the running policy stays.
            let mut bad = artifact::compile(&full, 1, None);
            let mid = bad.len() / 2;
            bad[mid] ^= 0x01;
            std::fs::write(&artifact_path, &bad).unwrap();
            let page = await_gauge("filterscope_policy_reload_failures_total ", 1);
            assert_eq!(gauge(&page, "filterscope_policy_version "), 2);

            // Batch 3 still decides under the last good (ablated) policy.
            Frame::batch(format!("{line}\n").into_bytes())
                .write_to(&mut sock)
                .unwrap();
            let page = await_gauge("filterscope_policy_decisions_total{decision=\"allow\"} ", 2);
            assert_eq!(
                gauge(
                    &page,
                    "filterscope_policy_decisions_total{decision=\"deny\"} "
                ),
                1
            );

            Frame::bye().write_to(&mut sock).unwrap();
            drop(sock);
            shutdown.store(true, Ordering::SeqCst);
            handle.join().unwrap().unwrap()
        });
        assert_eq!(summary.records, 3);
        assert_eq!(summary.policy_version, 2);
        assert_eq!(summary.policy_reloads, 1);
        assert!(summary.policy_reload_failures >= 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// `n` canonical log lines over varied hosts/paths/times; every third
    /// one censored.
    fn canonical_lines(n: usize) -> String {
        use filterscope_logformat::record::RecordBuilder;
        use filterscope_logformat::RequestUrl;
        let mut out = String::new();
        for i in 0..n {
            let time = format!("10:{:02}:{:02}", i / 60, i % 60);
            let b = RecordBuilder::new(
                filterscope_core::Timestamp::parse_fields("2011-08-03", &time).unwrap(),
                filterscope_core::ProxyId::Sg42,
                RequestUrl::http(&format!("host{}.example.com", i % 7), &format!("/p{i}")),
            );
            let b = if i % 3 == 0 { b.policy_denied() } else { b };
            out.push_str(&b.build().write_csv());
            out.push('\n');
        }
        out
    }

    #[test]
    fn shutdown_flushes_final_delta_frame_before_final_snapshot() {
        let dir = temp_dir("snaplog-drain");
        std::fs::create_dir_all(&dir).unwrap();
        let log_path = dir.join("snap.log");
        let mut cfg = config(&dir.join("snaps"));
        // Only the shutdown cycle runs, so the log's single frame must
        // come from the drain path.
        cfg.snapshot_every = Duration::from_secs(3600);
        cfg.snap_log = Some(log_path.clone());
        let server = Server::bind(cfg).unwrap();
        let addr = server.local_addr().unwrap();
        let ctx = AnalysisContext::standard(None);
        let shutdown = Arc::new(IAtomicBool::new(false));
        let summary = std::thread::scope(|s| {
            let handle = s.spawn(|| server.run(&ctx, Arc::clone(&shutdown)));
            let mut sock = TcpStream::connect(addr).unwrap();
            Frame::hello("drain-test").write_to(&mut sock).unwrap();
            Frame::batch(canonical_lines(20).into_bytes())
                .write_to(&mut sock)
                .unwrap();
            Frame::bye().write_to(&mut sock).unwrap();
            drop(sock);
            std::thread::sleep(Duration::from_millis(300));
            shutdown.store(true, Ordering::SeqCst);
            handle.join().unwrap().unwrap()
        });
        assert_eq!(summary.records, 20);
        assert_eq!(summary.snapshots, 1, "only the shutdown cycle ran");
        // The final frame reached the log before the final snapshot:
        // replaying the log reproduces the on-disk report byte for byte.
        let (frames, _) = read_frames(&log_path).unwrap();
        assert_eq!(frames.len(), 1);
        let view = suite_at(&frames, u64::MAX).unwrap().unwrap();
        assert_eq!(view.records, 20);
        let report = std::fs::read_to_string(dir.join("snaps/report.txt")).unwrap();
        assert_eq!(format!("{}\n", view.suite.render_all(&ctx)), report);
        let status = std::fs::read_to_string(dir.join("snaps/status.json")).unwrap();
        assert!(status.contains("\"log_seq\": 1"), "{status}");
        assert!(status.contains("\"recovered_frames\": 0"), "{status}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn restart_recovers_state_from_snap_log() {
        let dir = temp_dir("snaplog-restart");
        std::fs::create_dir_all(&dir).unwrap();
        let log_path = dir.join("snap.log");
        let ctx = AnalysisContext::standard(None);

        // First run ingests records, frames them, shuts down.
        let mut cfg = config(&dir.join("run1"));
        cfg.snapshot_every = Duration::from_secs(3600);
        cfg.snap_log = Some(log_path.clone());
        let server = Server::bind(cfg).unwrap();
        let addr = server.local_addr().unwrap();
        let shutdown = Arc::new(IAtomicBool::new(false));
        std::thread::scope(|s| {
            let handle = s.spawn(|| server.run(&ctx, Arc::clone(&shutdown)));
            let mut sock = TcpStream::connect(addr).unwrap();
            Frame::hello("run1").write_to(&mut sock).unwrap();
            Frame::batch(canonical_lines(15).into_bytes())
                .write_to(&mut sock)
                .unwrap();
            Frame::bye().write_to(&mut sock).unwrap();
            drop(sock);
            std::thread::sleep(Duration::from_millis(300));
            shutdown.store(true, Ordering::SeqCst);
            handle.join().unwrap().unwrap()
        });
        let first_report = std::fs::read_to_string(dir.join("run1/report.txt")).unwrap();

        // Second run resumes from the log with no new traffic: its final
        // snapshot reproduces the first run's report, counters included,
        // and appends no new frame for the empty cycle.
        let mut cfg = config(&dir.join("run2"));
        cfg.snap_log = Some(log_path.clone());
        let server = Server::bind(cfg).unwrap();
        let summary = server.run(&ctx, Arc::new(IAtomicBool::new(true))).unwrap();
        assert_eq!(summary.records, 15, "recovered records are preloaded");
        let second_report = std::fs::read_to_string(dir.join("run2/report.txt")).unwrap();
        assert_eq!(second_report, first_report);
        let status = std::fs::read_to_string(dir.join("run2/status.json")).unwrap();
        assert!(status.contains("\"records\": 15"), "{status}");
        assert!(status.contains("\"recovered_frames\": 1"), "{status}");
        assert!(status.contains("\"log_seq\": 1"), "{status}");

        // A log written under a different selection fails closed.
        let mut cfg = config(&dir.join("run3"));
        cfg.snap_log = Some(log_path.clone());
        cfg.selection = Selection::only(&["datasets", "https"]).unwrap();
        let server = Server::bind(cfg).unwrap();
        assert!(server.run(&ctx, Arc::new(IAtomicBool::new(true))).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shutdown_with_no_connections_still_writes_final_snapshot() {
        let dir = temp_dir("empty");
        let server = Server::bind(config(&dir)).unwrap();
        let ctx = AnalysisContext::standard(None);
        let shutdown = Arc::new(IAtomicBool::new(true));
        let summary = server.run(&ctx, shutdown).unwrap();
        assert_eq!(summary.records, 0);
        assert_eq!(summary.snapshots, 1);
        assert!(dir.join("summary.json").exists());
        assert!(dir.join("status.json").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
