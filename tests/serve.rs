//! End-to-end tests of the streaming daemon: `filterscope serve` fed by
//! `filterscope stream` over real sockets, in real processes.
//!
//! The central claim under test is the tentpole invariant: the daemon's
//! final snapshot is **byte-identical** to a batch `analyze` over the
//! same records, at any connection count. The fault-injection test
//! checks the containment story: garbage and mid-frame disconnects cost
//! one connection each, never the daemon.

use std::io::{BufRead, BufReader, Read as _, Write as _};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_filterscope"))
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("filterscope_serve_{name}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn generated_logs(dir: &Path) -> Vec<String> {
    let out = bin()
        .args(["generate", "--scale", "131072", "--out"])
        .arg(dir)
        .output()
        .expect("run generate");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut logs: Vec<String> = std::fs::read_dir(dir)
        .expect("read dir")
        .map(|e| e.unwrap().path().to_string_lossy().into_owned())
        .filter(|p| p.ends_with(".log"))
        .collect();
    logs.sort();
    logs
}

/// A running serve daemon with its resolved addresses.
struct Daemon {
    child: Child,
    ingest: String,
    metrics: String,
}

/// A failed assertion unwinds past `join`; kill the daemon then, so a
/// failing test does not leave it running.
impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawn `filterscope serve` on ephemeral ports and parse the two
/// address lines it prints to stdout.
fn spawn_serve(snapshot_dir: &Path) -> Daemon {
    spawn_serve_with(snapshot_dir, &[])
}

/// [`spawn_serve`] with extra flags (`--snap-log`, …).
fn spawn_serve_with(snapshot_dir: &Path, extra: &[&str]) -> Daemon {
    let mut child = bin()
        .args([
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--metrics",
            "127.0.0.1:0",
            "--every-ms",
            "100",
            "--snapshots",
        ])
        .arg(snapshot_dir)
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let parse = |line: String, prefix: &str| -> String {
        line.strip_prefix(prefix)
            .unwrap_or_else(|| panic!("unexpected serve output: {line}"))
            .to_string()
    };
    let ingest = parse(
        lines.next().expect("listen line").expect("read stdout"),
        "listening on ",
    );
    let metrics = parse(
        lines.next().expect("metrics line").expect("read stdout"),
        "metrics on ",
    );
    Daemon {
        child,
        ingest,
        metrics,
    }
}

fn http_get(addr: &str, path: &str) -> String {
    let mut sock = TcpStream::connect(addr).expect("connect metrics");
    write!(sock, "GET {path} HTTP/1.0\r\n\r\n").expect("send request");
    let mut body = String::new();
    sock.read_to_string(&mut body).expect("read response");
    body
}

/// One gauge value off the metrics page.
fn metric(page: &str, name: &str) -> Option<u64> {
    page.lines()
        .find(|l| l.starts_with(name) && l.as_bytes().get(name.len()) == Some(&b' '))
        .and_then(|l| l[name.len() + 1..].trim().parse().ok())
}

/// Poll the metrics endpoint until gauge `name` reads exactly `want` — the
/// deterministic way to wait on the daemon without sleeping for luck.
/// `filterscope_records_total` moves at ingest: it says the daemon has
/// everything the client sent. `filterscope_published_records` moves at
/// publish: it says a snapshot (and its snap-log frames) covers it.
fn await_gauge(metrics_addr: &str, name: &str, want: u64) {
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut page = String::new();
    while Instant::now() < deadline {
        page = http_get(metrics_addr, "/metrics");
        if metric(&page, name) == Some(want) {
            return;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    panic!("daemon never reached {name} {want}; last metrics page:\n{page}");
}

/// Ask the daemon to shut down: SIGINT where available (the production
/// path), the `/shutdown` control endpoint otherwise.
fn request_shutdown(daemon: &Daemon, via_sigint: bool) {
    #[cfg(unix)]
    if via_sigint {
        let ok = Command::new("kill")
            .args(["-INT", &daemon.child.id().to_string()])
            .status()
            .map(|s| s.success())
            .unwrap_or(false);
        if ok {
            return;
        }
    }
    let _ = via_sigint;
    let _ = http_get(&daemon.metrics, "/shutdown");
}

/// Wait for the daemon to exit successfully, returning its stderr.
fn join(mut daemon: Daemon) -> String {
    let status = daemon.child.wait().expect("wait for serve");
    let mut stderr = String::new();
    if let Some(mut pipe) = daemon.child.stderr.take() {
        let _ = pipe.read_to_string(&mut stderr);
    }
    assert!(status.success(), "serve exited with {status}: {stderr}");
    stderr
}

/// The tentpole invariant: stream the same logs at the daemon over 1 and
/// then 7 connections; both final snapshots must match a batch `analyze`
/// byte for byte (report and JSON summary alike).
#[test]
fn final_snapshot_is_byte_identical_to_batch_analyze() {
    let dir = temp_dir("identity");
    let logs = generated_logs(&dir);

    let json_path = dir.join("batch.json");
    let mut cmd = bin();
    cmd.arg("analyze").args(&logs).arg("--json").arg(&json_path);
    let batch = cmd.output().expect("run analyze");
    assert!(batch.status.success());
    let batch_json = std::fs::read(&json_path).expect("batch json");
    let batch_stderr = String::from_utf8_lossy(&batch.stderr).into_owned();
    let expected_records: u64 = batch_stderr
        .split("ingested ")
        .nth(1)
        .and_then(|s| s.split(' ').next())
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no record count in: {batch_stderr}"));
    assert!(expected_records > 1000, "corpus too small to be meaningful");

    for connections in [1usize, 7] {
        let snaps = dir.join(format!("snaps-{connections}"));
        let daemon = spawn_serve(&snaps);
        let mut cmd = bin();
        cmd.args(["stream", "--connect", &daemon.ingest])
            .args(["--connections", &connections.to_string()])
            .args(["--batch", "200"])
            .args(&logs);
        let out = cmd.output().expect("run stream");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        await_gauge(
            &daemon.metrics,
            "filterscope_records_total",
            expected_records,
        );
        // SIGINT on the multi-connection run, /shutdown on the other, so
        // both shutdown paths stay covered.
        request_shutdown(&daemon, connections == 7);
        join(daemon);

        let report = std::fs::read(snaps.join("report.txt")).expect("snapshot report");
        assert_eq!(
            report, batch.stdout,
            "report diverges from batch analyze at {connections} connection(s)"
        );
        let summary = std::fs::read(snaps.join("summary.json")).expect("snapshot summary");
        assert_eq!(
            summary, batch_json,
            "summary diverges from batch analyze at {connections} connection(s)"
        );
        let status = std::fs::read_to_string(snaps.join("status.json")).expect("status");
        assert!(
            status.contains(&format!("\"records\": {expected_records}")),
            "{status}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The time-travel acceptance path: `serve --snap-log` over 1 and then 7
/// connections, then `history at --time <end>` over the log alone — the
/// reconstructed report must be byte-identical to batch `analyze` stdout
/// both times. `ls` and `diff` run over the same log as smoke checks.
#[test]
fn history_at_matches_batch_analyze() {
    let dir = temp_dir("history");
    let logs = generated_logs(&dir);

    let mut cmd = bin();
    cmd.arg("analyze").args(&logs);
    let batch = cmd.output().expect("run analyze");
    assert!(batch.status.success());
    let batch_stderr = String::from_utf8_lossy(&batch.stderr).into_owned();
    let expected_records: u64 = batch_stderr
        .split("ingested ")
        .nth(1)
        .and_then(|s| s.split(' ').next())
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no record count in: {batch_stderr}"));

    // Any instant past the study period reconstructs the full fold.
    let end = "2012-12-31 23:59:59";
    for connections in [1usize, 7] {
        let snaps = dir.join(format!("hsnaps-{connections}"));
        let snap_log = dir.join(format!("snap-{connections}.log"));
        let daemon = spawn_serve_with(&snaps, &["--snap-log", snap_log.to_str().unwrap()]);
        let mut cmd = bin();
        cmd.args(["stream", "--connect", &daemon.ingest])
            .args(["--connections", &connections.to_string()])
            .args(["--batch", "200"])
            .args(&logs);
        let out = cmd.output().expect("run stream");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        await_gauge(
            &daemon.metrics,
            "filterscope_published_records",
            expected_records,
        );
        let page = http_get(&daemon.metrics, "/metrics");
        assert!(
            metric(&page, "filterscope_snaplog_frames_total") >= Some(1),
            "snaplog gauges must be live:\n{page}"
        );
        request_shutdown(&daemon, connections == 7);
        join(daemon);

        let status = std::fs::read_to_string(snaps.join("status.json")).expect("status");
        assert!(status.contains("\"log_seq\""), "{status}");

        let replayed = bin()
            .arg("history")
            .arg(&snap_log)
            .args(["at", "--time", end])
            .output()
            .expect("run history at");
        assert!(
            replayed.status.success(),
            "{}",
            String::from_utf8_lossy(&replayed.stderr)
        );
        assert_eq!(
            replayed.stdout, batch.stdout,
            "history replay diverges from batch analyze at {connections} connection(s)"
        );
    }

    let snap_log = dir.join("snap-7.log");
    let ls = bin()
        .arg("history")
        .arg(&snap_log)
        .arg("ls")
        .output()
        .expect("run history ls");
    assert!(ls.status.success());
    let inventory = String::from_utf8_lossy(&ls.stdout);
    assert!(inventory.contains("CRC-checked clean"), "{inventory}");

    let diffed = bin()
        .arg("history")
        .arg(&snap_log)
        .args(["diff", "--from", "2011-07-22", "--to", end])
        .output()
        .expect("run history diff");
    assert!(
        diffed.status.success(),
        "{}",
        String::from_utf8_lossy(&diffed.stderr)
    );
    let diff_text = String::from_utf8_lossy(&diffed.stdout);
    assert!(diff_text.contains("records:"), "{diff_text}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Containment: a garbage connection and a mid-frame disconnect each
/// cost only themselves; a well-behaved stream through the same daemon
/// still lands every record in the final snapshot.
#[test]
fn corrupt_and_disconnected_peers_do_not_take_down_the_daemon() {
    let dir = temp_dir("faults");
    let daemon = spawn_serve(&dir.join("snaps"));

    // Peer 1: pure garbage — dropped with a framing error.
    let mut garbage = TcpStream::connect(&daemon.ingest).expect("connect");
    garbage.write_all(b"definitely not a frame").expect("send");
    drop(garbage);

    // Peer 2: a valid header, then silence — a mid-stream disconnect.
    let mut half = TcpStream::connect(&daemon.ingest).expect("connect");
    half.write_all(&[0xF5, 0xC0, 2, 0, 0xFF, 0x00])
        .expect("send");
    drop(half);

    // Peer 3: a real replay (small synthetic corpus, 7 connections).
    let out = bin()
        .args(["stream", "--connect", &daemon.ingest])
        .args(["--scale", "1048576", "--connections", "7"])
        .output()
        .expect("run stream");
    let stream_stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(out.status.success(), "{stream_stderr}");
    let streamed: u64 = stream_stderr
        .split("streamed ")
        .nth(1)
        .and_then(|s| s.split(' ').next())
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no line count in: {stream_stderr}"));
    assert!(streamed > 100);

    await_gauge(&daemon.metrics, "filterscope_records_total", streamed);
    let page = http_get(&daemon.metrics, "/metrics");
    assert!(
        metric(&page, "filterscope_connections_dropped_total") >= Some(1),
        "the garbage peer must be counted as dropped:\n{page}"
    );
    assert_eq!(
        metric(&page, "filterscope_connections_total"),
        Some(9),
        "two bad peers + seven replay connections:\n{page}"
    );

    request_shutdown(&daemon, false);
    let stderr = join(daemon);
    assert!(stderr.contains("dropped"), "{stderr}");
    let status = std::fs::read_to_string(dir.join("snaps/status.json")).expect("status");
    assert!(
        status.contains(&format!("\"records\": {streamed}")),
        "{status}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
