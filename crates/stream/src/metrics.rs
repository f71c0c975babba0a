//! Observability for `filterscope serve`: lock-free counters updated on
//! the hot ingest path, rendered as a plaintext `/metrics`-style page by a
//! minimal HTTP responder.
//!
//! The endpoint speaks just enough HTTP/1.0 for `curl` and scrapers: any
//! `GET` is answered with the metrics page, except `GET /shutdown`, which
//! requests a graceful daemon shutdown (the signal-free control path used
//! on platforms without SIGINT and by tests).

use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

use interleave::{IAtomicBool, IAtomicU64, IAtomicUsize, IMutex, Ordering};

use filterscope_proxy::ProfileKind;

/// Per-connection counters, shared between the reader, the worker, the
/// snapshot thread, and the metrics renderer.
#[derive(Debug)]
pub struct ConnStats {
    /// Connection ordinal (fold order; assigned at accept time).
    pub id: u64,
    /// Source label: the peer address until a `Hello` frame names it.
    pub label: IMutex<String>,
    /// Records parsed and ingested.
    pub records: IAtomicU64,
    /// Lines that failed to parse (the batch path never drops a
    /// connection for a bad line — only for a bad frame).
    pub parse_errors: IAtomicU64,
    /// Frames received.
    pub frames: IAtomicU64,
    /// Payload bytes received.
    pub bytes: IAtomicU64,
    /// Batches queued but not yet ingested (bounded by the queue).
    pub queue_depth: IAtomicUsize,
    /// When the connection was accepted.
    pub connected: Instant,
    /// Set when the worker has drained the queue and exited.
    pub done: IAtomicBool,
    /// The framing error that dropped this connection, if any.
    pub error: IMutex<Option<String>>,
}

impl ConnStats {
    /// Fresh counters for connection `id` from `peer`.
    pub fn new(id: u64, peer: String) -> ConnStats {
        ConnStats {
            id,
            label: IMutex::new(peer),
            records: IAtomicU64::new(0),
            parse_errors: IAtomicU64::new(0),
            frames: IAtomicU64::new(0),
            bytes: IAtomicU64::new(0),
            queue_depth: IAtomicUsize::new(0),
            connected: Instant::now(),
            done: IAtomicBool::new(false),
            error: IMutex::new(None),
        }
    }

    /// The current label (peer address or `Hello` name).
    pub fn label(&self) -> String {
        self.label.lock().clone()
    }

    /// Records ingested per second of connection lifetime.
    pub fn records_per_sec(&self) -> f64 {
        let secs = self.connected.elapsed().as_secs_f64().max(1e-9);
        self.records.load(Ordering::Relaxed) as f64 / secs
    }
}

/// Daemon-wide counters.
#[derive(Debug)]
pub struct ServerStats {
    /// When the daemon started.
    pub started: Instant,
    /// Connections accepted over the daemon's lifetime.
    pub connections_total: IAtomicU64,
    /// Connections currently being read.
    pub connections_live: IAtomicU64,
    /// Connections dropped for framing errors.
    pub connections_dropped: IAtomicU64,
    /// Records ingested across all connections.
    pub records: IAtomicU64,
    /// Records the last published snapshot covers: the fold count, which
    /// trails `records` by whatever workers ingested since the last cycle.
    /// Stored (`Release`) after the snapshot files and the snap-log gauges
    /// are written and loaded (`Acquire`) by [`render`], so a reader that
    /// sees it reach N also sees that publish's effects.
    pub published_records: IAtomicU64,
    /// Unparseable lines across all connections.
    pub parse_errors: IAtomicU64,
    /// Frames received across all connections.
    pub frames: IAtomicU64,
    /// Payload bytes received across all connections.
    pub bytes: IAtomicU64,
    /// Sequence number of the newest snapshot (0 = none yet).
    pub snapshot_seq: IAtomicU64,
    /// Snapshot write failures (the daemon keeps running).
    pub snapshot_errors: IAtomicU64,
    /// When the newest snapshot was written.
    pub snapshot_at: IMutex<Option<Instant>>,
    /// Policy generation (0 = no policy configured; 1 = startup artifact).
    pub policy_version: IAtomicU64,
    /// Accepted policy hot-swaps.
    pub policy_reloads: IAtomicU64,
    /// Rejected policy reload attempts.
    pub policy_reload_failures: IAtomicU64,
    /// Records the policy allowed.
    pub policy_allowed: IAtomicU64,
    /// Records the policy denied.
    pub policy_denied: IAtomicU64,
    /// Records the policy redirected.
    pub policy_redirected: IAtomicU64,
    /// Censored records per inferred censorship mechanism, indexed by
    /// [`ProfileKind::index`]; uncensored records vote for nothing.
    pub mechanism: [IAtomicU64; 4],
    /// The mechanism `serve --censor` declared, stored as
    /// [`ProfileKind::index`] + 1 (0 = no expectation declared).
    pub expected_mechanism: IAtomicU64,
    /// Largest record timestamp (epoch seconds) ingested so far; the
    /// snap-log frame timestamp, so time-travel queries index by record
    /// time, not wall-clock arrival time.
    pub max_record_ts: IAtomicU64,
    /// Whether a snapshot log is being written (gates the snaplog gauges).
    pub snaplog_active: IAtomicBool,
    /// Bytes in the snapshot log after the last append/compaction.
    pub snaplog_bytes: IAtomicU64,
    /// Frames in the snapshot log after the last append/compaction.
    pub snaplog_frames: IAtomicU64,
    /// Sequence of the last compaction checkpoint (0 = never compacted).
    pub snaplog_last_compaction_seq: IAtomicU64,
}

impl ServerStats {
    /// Fresh zeroed stats.
    pub fn new() -> ServerStats {
        ServerStats {
            started: Instant::now(),
            connections_total: IAtomicU64::new(0),
            connections_live: IAtomicU64::new(0),
            connections_dropped: IAtomicU64::new(0),
            records: IAtomicU64::new(0),
            published_records: IAtomicU64::new(0),
            parse_errors: IAtomicU64::new(0),
            frames: IAtomicU64::new(0),
            bytes: IAtomicU64::new(0),
            snapshot_seq: IAtomicU64::new(0),
            snapshot_errors: IAtomicU64::new(0),
            snapshot_at: IMutex::new(None),
            policy_version: IAtomicU64::new(0),
            policy_reloads: IAtomicU64::new(0),
            policy_reload_failures: IAtomicU64::new(0),
            policy_allowed: IAtomicU64::new(0),
            policy_denied: IAtomicU64::new(0),
            policy_redirected: IAtomicU64::new(0),
            mechanism: std::array::from_fn(|_| IAtomicU64::new(0)),
            expected_mechanism: IAtomicU64::new(0),
            max_record_ts: IAtomicU64::new(0),
            snaplog_active: IAtomicBool::new(false),
            snaplog_bytes: IAtomicU64::new(0),
            snaplog_frames: IAtomicU64::new(0),
            snaplog_last_compaction_seq: IAtomicU64::new(0),
        }
    }

    /// Declare the mechanism the operator expects ingested traffic to show.
    pub fn expect_mechanism(&self, kind: ProfileKind) {
        self.expected_mechanism
            .store(kind.index() as u64 + 1, Ordering::SeqCst);
    }

    /// Seconds since the newest snapshot, if one was written.
    pub fn snapshot_age(&self) -> Option<f64> {
        self.snapshot_at.lock().map(|at| at.elapsed().as_secs_f64())
    }

    /// Record a successful snapshot write.
    pub fn snapshot_written(&self, seq: u64) {
        self.snapshot_seq.store(seq, Ordering::Relaxed);
        *self.snapshot_at.lock() = Some(Instant::now());
    }
}

impl Default for ServerStats {
    fn default() -> Self {
        ServerStats::new()
    }
}

/// Render the metrics page: daemon-wide gauges first, then one labelled
/// line set per connection, in accept order.
pub fn render(stats: &ServerStats, conns: &[Arc<ConnStats>]) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(1024);
    let load = |a: &IAtomicU64| a.load(Ordering::Relaxed);
    let _ = writeln!(
        out,
        "filterscope_uptime_seconds {:.3}",
        stats.started.elapsed().as_secs_f64()
    );
    let _ = writeln!(
        out,
        "filterscope_connections_live {}",
        load(&stats.connections_live)
    );
    let _ = writeln!(
        out,
        "filterscope_connections_total {}",
        load(&stats.connections_total)
    );
    let _ = writeln!(
        out,
        "filterscope_connections_dropped_total {}",
        load(&stats.connections_dropped)
    );
    let _ = writeln!(out, "filterscope_records_total {}", load(&stats.records));
    let _ = writeln!(
        out,
        "filterscope_published_records {}",
        stats.published_records.load(Ordering::Acquire)
    );
    let _ = writeln!(
        out,
        "filterscope_parse_errors_total {}",
        load(&stats.parse_errors)
    );
    let _ = writeln!(out, "filterscope_frames_total {}", load(&stats.frames));
    let _ = writeln!(out, "filterscope_bytes_total {}", load(&stats.bytes));
    let _ = writeln!(
        out,
        "filterscope_snapshot_seq {}",
        load(&stats.snapshot_seq)
    );
    let _ = writeln!(
        out,
        "filterscope_snapshot_errors_total {}",
        load(&stats.snapshot_errors)
    );
    match stats.snapshot_age() {
        Some(age) => {
            let _ = writeln!(out, "filterscope_snapshot_age_seconds {age:.3}");
        }
        None => {
            let _ = writeln!(out, "filterscope_snapshot_age_seconds NaN");
        }
    }
    // Policy gauges appear only when a policy artifact is being served
    // (generation 0 means policy evaluation is disabled).
    if load(&stats.policy_version) > 0 {
        let _ = writeln!(
            out,
            "filterscope_policy_version {}",
            load(&stats.policy_version)
        );
        let _ = writeln!(
            out,
            "filterscope_policy_reloads_total {}",
            load(&stats.policy_reloads)
        );
        let _ = writeln!(
            out,
            "filterscope_policy_reload_failures_total {}",
            load(&stats.policy_reload_failures)
        );
        let _ = writeln!(
            out,
            "filterscope_policy_decisions_total{{decision=\"allow\"}} {}",
            load(&stats.policy_allowed)
        );
        let _ = writeln!(
            out,
            "filterscope_policy_decisions_total{{decision=\"deny\"}} {}",
            load(&stats.policy_denied)
        );
        let _ = writeln!(
            out,
            "filterscope_policy_decisions_total{{decision=\"redirect\"}} {}",
            load(&stats.policy_redirected)
        );
    }
    // Snap-log gauges appear only when `serve --snap-log` is writing one.
    if stats.snaplog_active.load(Ordering::Relaxed) {
        let _ = writeln!(
            out,
            "filterscope_snaplog_bytes {}",
            load(&stats.snaplog_bytes)
        );
        let _ = writeln!(
            out,
            "filterscope_snaplog_frames_total {}",
            load(&stats.snaplog_frames)
        );
        let _ = writeln!(
            out,
            "filterscope_snaplog_last_compaction_seq {}",
            load(&stats.snaplog_last_compaction_seq)
        );
    }
    // Mechanism gauges appear once a censored record has been classified,
    // or as soon as `--censor` declared what the operator expects.
    let mechanism_total: u64 = stats.mechanism.iter().map(load).sum();
    let expected = load(&stats.expected_mechanism);
    if mechanism_total > 0 || expected > 0 {
        for kind in ProfileKind::ALL {
            let _ = writeln!(
                out,
                "filterscope_mechanism_records_total{{mechanism=\"{}\"}} {}",
                kind.name(),
                load(&stats.mechanism[kind.index()])
            );
        }
        if expected > 0 {
            let _ = writeln!(
                out,
                "filterscope_expected_mechanism{{mechanism=\"{}\"}} 1",
                ProfileKind::ALL[(expected - 1) as usize].name()
            );
        }
    }
    for conn in conns {
        let label = conn.label();
        let _ = writeln!(
            out,
            "filterscope_conn_records_total{{conn=\"{label}\"}} {}",
            conn.records.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            out,
            "filterscope_conn_records_per_sec{{conn=\"{label}\"}} {:.1}",
            conn.records_per_sec()
        );
        let _ = writeln!(
            out,
            "filterscope_conn_queue_depth{{conn=\"{label}\"}} {}",
            conn.queue_depth.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            out,
            "filterscope_conn_parse_errors_total{{conn=\"{label}\"}} {}",
            conn.parse_errors.load(Ordering::Relaxed)
        );
        if let Some(err) = conn.error.lock().as_deref() {
            let _ = writeln!(
                out,
                "filterscope_conn_dropped{{conn=\"{label}\",reason=\"{}\"}} 1",
                err.replace('"', "'")
            );
        }
    }
    out
}

/// Serve the metrics endpoint until `shutdown` is set. Each request gets
/// a fresh page from `render_page`; `GET /shutdown` additionally invokes
/// `on_shutdown`. The listener must be non-blocking.
pub fn serve_http(
    listener: &TcpListener,
    shutdown: &IAtomicBool,
    render_page: impl Fn() -> String,
    on_shutdown: impl Fn(),
) {
    while !shutdown.load(Ordering::SeqCst) {
        let (sock, _) = match listener.accept() {
            Ok(pair) => pair,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
            Err(_) => {
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
        };
        let _ = sock.set_read_timeout(Some(Duration::from_millis(500)));
        let _ = sock.set_nodelay(true);
        let mut reader = BufReader::new(sock);
        let mut request_line = String::new();
        if reader.read_line(&mut request_line).is_err() {
            continue;
        }
        let path = request_line.split_whitespace().nth(1).unwrap_or("/");
        let body = if path == "/shutdown" {
            on_shutdown();
            "shutting down\n".to_string()
        } else {
            render_page()
        };
        let mut sock = reader.into_inner();
        let _ = write!(
            sock,
            "HTTP/1.0 200 OK\r\nContent-Type: text/plain; charset=utf-8\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        );
        let _ = sock.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_covers_global_and_per_conn_lines() {
        let stats = ServerStats::new();
        stats.records.store(42, Ordering::Relaxed);
        stats.published_records.store(40, Ordering::Relaxed);
        stats.snapshot_written(3);
        let conn = Arc::new(ConnStats::new(0, "sg-42".to_string()));
        conn.records.store(42, Ordering::Relaxed);
        let page = render(&stats, &[conn]);
        assert!(page.contains("filterscope_records_total 42"));
        assert!(page.contains("filterscope_published_records 40"));
        assert!(page.contains("filterscope_snapshot_seq 3"));
        assert!(page.contains("filterscope_snapshot_age_seconds"));
        assert!(page.contains("filterscope_conn_records_total{conn=\"sg-42\"} 42"));
        assert!(page.contains("filterscope_conn_queue_depth{conn=\"sg-42\"} 0"));
        // No policy configured → no policy gauges; no censored records
        // classified and no expectation declared → no mechanism gauges;
        // no snap log configured → no snaplog gauges.
        assert!(!page.contains("filterscope_policy_version"));
        assert!(!page.contains("filterscope_mechanism_records_total"));
        assert!(!page.contains("filterscope_snaplog_bytes"));
    }

    #[test]
    fn render_covers_snaplog_gauges_when_active() {
        let stats = ServerStats::new();
        stats.snaplog_active.store(true, Ordering::Relaxed);
        stats.snaplog_bytes.store(4096, Ordering::Relaxed);
        stats.snaplog_frames.store(12, Ordering::Relaxed);
        stats
            .snaplog_last_compaction_seq
            .store(8, Ordering::Relaxed);
        let page = render(&stats, &[]);
        assert!(page.contains("filterscope_snaplog_bytes 4096"));
        assert!(page.contains("filterscope_snaplog_frames_total 12"));
        assert!(page.contains("filterscope_snaplog_last_compaction_seq 8"));
    }

    #[test]
    fn render_covers_mechanism_gauges_when_votes_or_expectation_exist() {
        let stats = ServerStats::new();
        stats.mechanism[ProfileKind::DnsPoison.index()].store(9, Ordering::Relaxed);
        let page = render(&stats, &[]);
        // One labelled line per mechanism, zero-valued ones included.
        assert!(page.contains("filterscope_mechanism_records_total{mechanism=\"dns-poison\"} 9"));
        assert!(page.contains("filterscope_mechanism_records_total{mechanism=\"blue-coat\"} 0"));
        assert!(page.contains("filterscope_mechanism_records_total{mechanism=\"tcp-rst\"} 0"));
        assert!(page.contains("filterscope_mechanism_records_total{mechanism=\"blockpage\"} 0"));
        assert!(!page.contains("filterscope_expected_mechanism"));

        // An expectation alone also surfaces the gauge block.
        let stats = ServerStats::new();
        stats.expect_mechanism(ProfileKind::TcpRst);
        let page = render(&stats, &[]);
        assert!(page.contains("filterscope_expected_mechanism{mechanism=\"tcp-rst\"} 1"));
        assert!(page.contains("filterscope_mechanism_records_total{mechanism=\"tcp-rst\"} 0"));
    }

    #[test]
    fn render_covers_policy_gauges_when_active() {
        let stats = ServerStats::new();
        stats.policy_version.store(2, Ordering::Relaxed);
        stats.policy_reloads.store(1, Ordering::Relaxed);
        stats.policy_reload_failures.store(3, Ordering::Relaxed);
        stats.policy_denied.store(7, Ordering::Relaxed);
        let page = render(&stats, &[]);
        assert!(page.contains("filterscope_policy_version 2"));
        assert!(page.contains("filterscope_policy_reloads_total 1"));
        assert!(page.contains("filterscope_policy_reload_failures_total 3"));
        assert!(page.contains("filterscope_policy_decisions_total{decision=\"deny\"} 7"));
        assert!(page.contains("filterscope_policy_decisions_total{decision=\"allow\"} 0"));
    }

    #[test]
    fn http_responder_answers_and_honors_shutdown_path() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        let shutdown = IAtomicBool::new(false);
        let hit = IAtomicU64::new(0);
        std::thread::scope(|s| {
            s.spawn(|| {
                serve_http(
                    &listener,
                    &shutdown,
                    || "page\n".to_string(),
                    || {
                        hit.fetch_add(1, Ordering::SeqCst);
                        shutdown.store(true, Ordering::SeqCst);
                    },
                );
            });
            let get = |path: &str| {
                let mut sock = std::net::TcpStream::connect(addr).unwrap();
                write!(sock, "GET {path} HTTP/1.0\r\n\r\n").unwrap();
                let mut body = String::new();
                use std::io::Read as _;
                sock.read_to_string(&mut body).unwrap();
                body
            };
            let resp = get("/metrics");
            assert!(resp.starts_with("HTTP/1.0 200 OK"), "{resp}");
            assert!(resp.ends_with("page\n"), "{resp}");
            let resp = get("/shutdown");
            assert!(resp.contains("shutting down"), "{resp}");
        });
        assert_eq!(hit.load(Ordering::SeqCst), 1);
    }
}
