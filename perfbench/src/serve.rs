//! `serve_paced`: an open-loop, fixed-rate feed over two connections into
//! `filterscope serve --policy-artifact … --snap-log …`, restarted on a
//! snap-log that already holds the first part of the corpus, in short
//! phases that each resume from the same log.
//!
//! The only workload that exercises `stream` framing, per-record ingest in
//! the workers, the per-cycle fold/merge/render/fsync-publish, `snapstore`
//! append, compaction and resume, and per-record compiled-policy
//! decisions. `analysis` ingest runs record by record in small batches here
//! where `analyze_full` runs it in large blocks.
//!
//! The resumed log is written by the program itself in the same run
//! without timing: the prefix goes over one connection one batch frame at
//! a time, and each batch's snapshot is awaited before the next is sent.
//! `ingest_batch` holds the delta lock for a whole batch, so every batch
//! becomes exactly one delta frame and the log's bytes do not depend on
//! where the snapshot cycles happened to fall.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::fs::MetadataExt;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use filterscope_analysis::{AnalysisContext, AnalysisSuite, Selection, SuiteParams};
use filterscope_logformat::frame::batch_lines;
use filterscope_logformat::{Frame, LineSplitter, RequestUrl, Schema};
use filterscope_proxy::{artifact, Decision, PolicyEngine};
use filterscope_snapstore::{
    decode_value, encode_value, read_frames, suite_at, FrameKind, SnapLog, SUITE_KEY,
};
use filterscope_stream::metrics::{ConnStats, ServerStats};
use filterscope_stream::proto::{self, ConnHandle, LineParser, Shard};
use filterscope_stream::snapshot::{SnapLogStatus, SnapshotWriter};
use interleave::{IMutex, Ordering};

use crate::analyze::total_requests;
use crate::corpus::{self, SERVE_SCALE};
use crate::stats::{self, freshness_ms, median, tail};
use crate::trace::Tracer;
use crate::{proc, traced_pairs, Bench, Report, THREADS};

/// Offered load in records per second: about half of what the daemon can
/// ingest with these flags on a 2-vCPU host (2 CPUs over its ~12 CPU-µs
/// per record), less the load generator's own share. At 100k rec/s the
/// host's slow periods pushed it into queueing and freshness doubled.
const RATE: f64 = 70_000.0;
/// Lines per paced batch frame.
const PACED_BATCH: usize = 500;
/// Sender connections (one sender thread each).
const CONNECTIONS: usize = 2;
/// Prefix held in the resumed snap-log: this many frames ...
const PREFIX_BATCHES: usize = 22;
/// ... of this many records each.
const PREFIX_BATCH: usize = 5_000;
/// Snapshot cadence of the paced daemon.
const EVERY_MS: u64 = 100;
/// Snap-log compaction threshold of the paced daemon: the 5 MB prefix log
/// grows past it about halfway through a phase, and the checkpoint plus
/// the rest of the phase's deltas stay below it, so every phase compacts
/// once.
const SNAP_LOG_MAX_BYTES: u64 = 9 << 20;
/// Length of one paced phase. A run is `--seconds / PHASE_SECONDS`
/// phases, each a fresh daemon resumed from the prefix log and fed the same
/// schedule. Short phases keep the resumed state from growing far during a
/// phase, so the per-cycle work (and with it freshness) stays nearly
/// stationary; each phase start is one `setup_s` sample.
const PHASE_SECONDS: f64 = 2.0;
/// How long a daemon may take to answer its first `/metrics`.
const READY_TIMEOUT: Duration = Duration::from_secs(60);

/// The workload's inputs, built from the seeded corpus.
struct Inputs {
    /// Encoded prefix batch frames, in order.
    prefix: Vec<Vec<u8>>,
    /// Per connection: (due offset of the batch's last record in seconds,
    /// encoded batch frame), in send order.
    paced: Vec<Vec<(f64, Vec<u8>)>>,
    prefix_records: u64,
    paced_records: u64,
    /// Header + every line sent, for the batch `analyze` cross-check.
    sent_log: PathBuf,
    policy: PathBuf,
    prefix_log: PathBuf,
    prefix_log_hash: u64,
}

fn encode(frame: &Frame) -> Result<Vec<u8>, String> {
    let mut out = Vec::new();
    frame.encode_into(&mut out).map_err(|e| e.to_string())?;
    Ok(out)
}

fn build_inputs(b: &Bench) -> Result<(Inputs, String), String> {
    let c = corpus::write_seeded(&b.path("corpus"), SERVE_SCALE, b.seed, THREADS)?;
    corpus::check_pin(&c, SERVE_SCALE, b.seed)?;
    let prefix_lines = PREFIX_BATCHES * PREFIX_BATCH;
    let wanted = (RATE * PHASE_SECONDS) as usize / PACED_BATCH * PACED_BATCH;
    let available = (c.records as usize - prefix_lines) / PACED_BATCH * PACED_BATCH;
    let paced_lines = wanted.min(available);
    let sent_log = b.path("sent.log");
    let mut sent = BufWriter::new(std::fs::File::create(&sent_log).map_err(|e| e.to_string())?);
    let (mut prefix, mut paced) = (Vec::new(), vec![Vec::new(); CONNECTIONS]);
    let (mut batch, mut taken, mut header_written) = (Vec::new(), 0usize, false);
    'files: for f in &c.files {
        let bytes = std::fs::read(f).map_err(|e| e.to_string())?;
        for line in bytes.split_inclusive(|&x| x == b'\n') {
            if line.starts_with(b"#") {
                if !header_written {
                    sent.write_all(line).map_err(|e| e.to_string())?;
                }
                continue;
            }
            header_written = true;
            if taken == prefix_lines + paced_lines {
                break 'files;
            }
            sent.write_all(line).map_err(|e| e.to_string())?;
            batch.extend_from_slice(line);
            taken += 1;
            if taken <= prefix_lines {
                if taken.is_multiple_of(PREFIX_BATCH) {
                    prefix.push(encode(&Frame::batch(std::mem::take(&mut batch)))?);
                }
            } else if (taken - prefix_lines).is_multiple_of(PACED_BATCH) {
                let j = (taken - prefix_lines) / PACED_BATCH - 1;
                let due = (taken - prefix_lines - 1) as f64 / RATE;
                paced[j % CONNECTIONS]
                    .push((due, encode(&Frame::batch(std::mem::take(&mut batch)))?));
            }
        }
    }
    sent.flush().map_err(|e| e.to_string())?;
    drop(sent);
    // The corpus files are no longer needed; the sent log replaces them.
    for f in &c.files {
        std::fs::remove_file(f).map_err(|e| e.to_string())?;
    }
    let policy = b.path("policy.fscp");
    let mut cmd = b.program();
    cmd.args(["compile", "standard", "--out"]).arg(&policy);
    proc::run_measured(&mut cmd, "compile")?;
    let note = format!(
        "corpus: scale {SERVE_SCALE}, variant {}, {} records, hash {:#018x}; prefix {} frames × {PREFIX_BATCH}, \
         paced {paced_lines} records at {RATE} rec/s over {CONNECTIONS} connections in {PACED_BATCH}-line batches",
        b.seed % corpus::VARIANTS,
        c.records,
        c.hash,
        prefix.len()
    );
    let mut inputs = Inputs {
        prefix,
        paced,
        prefix_records: prefix_lines as u64,
        paced_records: paced_lines as u64,
        sent_log,
        policy,
        prefix_log: b.path("prefix.snaplog"),
        prefix_log_hash: 0,
    };
    inputs.prefix_log_hash = build_prefix_log(b, &inputs)?;
    // Built twice: the bytes must not depend on snapshot-cycle timing.
    if build_prefix_log(b, &inputs)? != inputs.prefix_log_hash {
        return Err(
            "the prefix snap-log differs between two builds from the same batches".to_string(),
        );
    }
    Ok((inputs, note))
}

/// A running `filterscope serve`; dropped without [`Daemon::stop`] (on an
/// error path) it is killed and reaped, so no daemon outlives the run.
struct Daemon {
    child: Option<Child>,
    _stdout: BufReader<ChildStdout>,
    pid: u32,
    ingest: SocketAddr,
    metrics: SocketAddr,
    /// Spawn to first `/metrics` answer.
    ready_s: f64,
    snapshots: PathBuf,
}

fn spawn(
    b: &Bench,
    inputs: &Inputs,
    log: &Path,
    every_ms: u64,
    max_bytes: u64,
) -> Result<Daemon, String> {
    let snapshots = b.path("snaps");
    let _ = std::fs::remove_dir_all(&snapshots);
    let err = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(b.path("serve.err"))
        .map_err(|e| e.to_string())?;
    let mut cmd = b.program();
    cmd.arg("serve")
        .arg("--snapshots")
        .arg(&snapshots)
        .args([
            "--listen",
            "127.0.0.1:0",
            "--metrics",
            "127.0.0.1:0",
            "--every-ms",
        ])
        .arg(every_ms.to_string())
        .arg("--policy-artifact")
        .arg(&inputs.policy)
        .arg("--snap-log")
        .arg(log)
        .arg("--snap-log-max-bytes")
        .arg(max_bytes.to_string())
        .stdout(Stdio::piped())
        .stderr(err);
    let spawned = Instant::now();
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("cannot start serve: {e}"))?;
    let pid = child.id();
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
    let mut addr = |prefix: &str| -> Result<SocketAddr, String> {
        let mut line = String::new();
        stdout.read_line(&mut line).map_err(|e| e.to_string())?;
        line.trim()
            .strip_prefix(prefix)
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| {
                format!(
                    "serve did not announce its address: {line:?} ({})",
                    stderr_tail(b)
                )
            })
    };
    let ingest = addr("listening on ")?;
    let metrics = addr("metrics on ")?;
    // The listeners are bound before the snap-log is resumed; the first
    // answered `/metrics` is the first moment the daemon can serve.
    loop {
        if proc::http_get(metrics, "/metrics").is_ok() {
            break;
        }
        if spawned.elapsed() > READY_TIMEOUT || proc::exited(pid) {
            let _ = child.kill();
            let _ = proc::reap(child, "serve");
            return Err(format!("serve never became ready: {}", stderr_tail(b)));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Ok(Daemon {
        child: Some(child),
        _stdout: stdout,
        pid,
        ingest,
        metrics,
        ready_s: spawned.elapsed().as_secs_f64(),
        snapshots,
    })
}

fn stderr_tail(b: &Bench) -> String {
    let text = std::fs::read_to_string(b.path("serve.err")).unwrap_or_default();
    let lines: Vec<&str> = text.lines().collect();
    lines[lines.len().saturating_sub(5)..].join(" | ")
}

impl Daemon {
    fn page(&self) -> Result<String, String> {
        proc::http_get(self.metrics, "/metrics").map_err(|e| format!("/metrics: {e}"))
    }

    /// Ask for a drained shutdown and require a clean exit.
    fn stop(mut self) -> Result<(), String> {
        proc::http_get(self.metrics, "/shutdown").map_err(|e| format!("/shutdown: {e}"))?;
        let child = self.child.take().expect("a daemon is stopped once");
        proc::reap(child, "serve").map(|_| ())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = proc::reap(child, "serve");
        }
    }
}

/// Write the prefix snap-log through the program: one batch frame at a
/// time over one connection, each followed by a wait for its delta frame.
/// Returns the log's hash.
fn build_prefix_log(b: &Bench, inputs: &Inputs) -> Result<u64, String> {
    let _ = std::fs::remove_file(&inputs.prefix_log);
    let daemon = spawn(b, inputs, &inputs.prefix_log, 10, 0)?;
    let mut sock = TcpStream::connect(daemon.ingest).map_err(|e| e.to_string())?;
    sock.write_all(&encode(&Frame::hello("prefix"))?)
        .map_err(|e| e.to_string())?;
    for (i, frame) in inputs.prefix.iter().enumerate() {
        sock.write_all(frame).map_err(|e| e.to_string())?;
        let deadline = Instant::now() + Duration::from_secs(30);
        while proc::gauge(&daemon.page()?, "filterscope_snaplog_frames_total")
            < Some((i + 1) as f64)
        {
            if Instant::now() > deadline {
                return Err(format!("prefix batch {i} never reached the snap-log"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    sock.write_all(&encode(&Frame::bye())?)
        .map_err(|e| e.to_string())?;
    drop(sock);
    daemon.stop()?;
    let (frames, recovery) = read_frames(&inputs.prefix_log).map_err(|e| e.to_string())?;
    let one_batch_each = frames.iter().all(|f| {
        f.kind == FrameKind::Delta
            && decode_value(&f.value)
                .is_ok_and(|v| v.records == PREFIX_BATCH as u64 && v.parse_errors == 0)
    });
    if frames.len() != inputs.prefix.len() || !one_batch_each || recovery.truncated_bytes > 0 {
        return Err(format!(
            "prefix snap-log has {} frames for {} batches (one delta per batch expected)",
            frames.len(),
            inputs.prefix.len()
        ));
    }
    corpus::hash_files(std::slice::from_ref(&inputs.prefix_log))
}

/// Copy the prefix log to where the paced daemon resumes from.
fn fresh_log_copy(b: &Bench, inputs: &Inputs) -> Result<PathBuf, String> {
    let log = b.path("serve.snaplog");
    std::fs::copy(&inputs.prefix_log, &log).map_err(|e| e.to_string())?;
    Ok(log)
}

/// What one paced phase observed.
struct Paced {
    /// Spawn to first `/metrics` answer of this phase's daemon.
    setup_s: f64,
    /// (seen at, paced records covered), seconds from the schedule start.
    observations: Vec<(f64, u64)>,
    lateness_ms: Vec<f64>,
    cpu_s: f64,
    hwm_kb: u64,
    page: String,
    queue_depth_max: f64,
    final_summary: Vec<u8>,
}

/// One paced phase: start the daemon on a fresh copy of the prefix log,
/// feed the paced schedule and follow the published snapshots until every
/// paced record is covered, then stop it.
fn paced_phase(b: &Bench, inputs: &Inputs, scrape: bool) -> Result<Paced, String> {
    let log = fresh_log_copy(b, inputs)?;
    let daemon = spawn(b, inputs, &log, EVERY_MS, SNAP_LOG_MAX_BYTES)?;
    let resumed = proc::gauge(&daemon.page()?, "filterscope_records_total");
    if resumed != Some(inputs.prefix_records as f64) {
        return Err(format!(
            "the resumed daemon holds {resumed:?} records, the prefix log {}",
            inputs.prefix_records
        ));
    }
    let summary_path = daemon.snapshots.join("summary.json");
    let cpu0 = proc::cpu_s(daemon.pid)?;
    let t0 = Instant::now() + Duration::from_millis(20);
    let limit = Duration::from_secs_f64(b.seconds * 3.0 + 30.0);
    let (observations, lateness, queue_depth_max) = std::thread::scope(|s| -> Result<_, String> {
        let senders: Vec<_> = inputs
            .paced
            .iter()
            .enumerate()
            .map(|(c, frames)| {
                let addr = daemon.ingest;
                s.spawn(move || -> Result<Vec<f64>, String> {
                    let mut sock = TcpStream::connect(addr).map_err(|e| e.to_string())?;
                    sock.set_nodelay(true).map_err(|e| e.to_string())?;
                    sock.write_all(&encode(&Frame::hello(&format!("bench-{c}")))?)
                        .map_err(|e| e.to_string())?;
                    let mut late = Vec::with_capacity(frames.len());
                    for (due, frame) in frames {
                        let at = t0 + Duration::from_secs_f64(*due);
                        let now = Instant::now();
                        if at > now {
                            std::thread::sleep(at - now);
                        }
                        late.push(at.elapsed().as_secs_f64() * 1e3);
                        sock.write_all(frame).map_err(|e| format!("send: {e}"))?;
                    }
                    sock.write_all(&encode(&Frame::bye())?)
                        .map_err(|e| e.to_string())?;
                    Ok(late)
                })
            })
            .collect();
        // Follow `summary.json` (replaced by rename on every publish).
        let (mut obs, mut last_seen, mut covered) = (Vec::new(), None, 0u64);
        let (mut queue_max, mut next_scrape) = (0.0f64, Instant::now());
        while covered < inputs.paced_records {
            if t0.elapsed() > limit {
                return Err(format!(
                    "drain timed out: {covered} of {} paced records published",
                    inputs.paced_records
                ));
            }
            if let Ok(meta) = std::fs::metadata(&summary_path) {
                // A freed inode number can be reused by the next publish,
                // so the modification time is part of the identity.
                let id = (meta.ino(), meta.mtime(), meta.mtime_nsec(), meta.len());
                if last_seen != Some(id) {
                    last_seen = Some(id);
                    if let Ok(bytes) = std::fs::read(&summary_path) {
                        let seen = t0.elapsed().as_secs_f64();
                        let n = total_requests(&bytes)?.saturating_sub(inputs.prefix_records);
                        if n > covered {
                            covered = n;
                            obs.push((seen, n));
                        }
                    }
                }
            }
            if scrape && Instant::now() >= next_scrape {
                let page = daemon.page()?;
                for line in page
                    .lines()
                    .filter(|l| l.starts_with("filterscope_conn_queue_depth{"))
                {
                    let depth = line
                        .rsplit(' ')
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or(0.0);
                    queue_max = queue_max.max(depth);
                }
                next_scrape += Duration::from_millis(100);
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let mut late = Vec::new();
        for h in senders {
            late.extend(
                h.join()
                    .map_err(|_| "a sender thread panicked".to_string())??,
            );
        }
        Ok((obs, late, queue_max))
    })?;
    let cpu_s = proc::cpu_s(daemon.pid)? - cpu0;
    let daemon_ready_s = daemon.ready_s;
    let hwm_kb = proc::hwm_kb(daemon.pid)?;
    let page = daemon.page()?;
    let snapshots = daemon.snapshots.clone();
    daemon.stop()?;
    let final_summary = std::fs::read(snapshots.join("summary.json")).map_err(|e| e.to_string())?;
    Ok(Paced {
        setup_s: daemon_ready_s,
        observations,
        lateness_ms: lateness,
        cpu_s,
        hwm_kb,
        page,
        queue_depth_max,
        final_summary,
    })
}

/// Gates shared by the traced and untraced runs; returns the failed count.
fn check(b: &Bench, inputs: &Inputs, phases: &[Paced]) -> Result<u64, String> {
    // The batch twin: `analyze` over exactly the lines each phase's daemon
    // saw (every phase resumes the same prefix and replays the same batches).
    let json = b.path("sent.json");
    let mut cmd = b.program();
    cmd.arg("analyze")
        .arg(&inputs.sent_log)
        .arg("--threads")
        .arg(THREADS.to_string())
        .arg("--json")
        .arg(&json);
    proc::run_measured(&mut cmd, "analyze (cross-check)")?;
    let batch = std::fs::read(&json).map_err(|e| e.to_string())?;
    let sent = inputs.prefix_records + inputs.paced_records;
    let mut failed = 0;
    for (i, paced) in phases.iter().enumerate() {
        let gauge = |name: &str| proc::gauge(&paced.page, name).unwrap_or(f64::NAN);
        let dropped = gauge("filterscope_connections_dropped_total");
        let snapshot_errors = gauge("filterscope_snapshot_errors_total");
        let parse_errors = gauge("filterscope_parse_errors_total");
        if dropped != 0.0 || snapshot_errors != 0.0 || parse_errors != 0.0 {
            return Err(format!(
                "phase {i}: daemon reports {dropped} dropped connections, {snapshot_errors} \
                 snapshot errors, {parse_errors} parse errors"
            ));
        }
        let published = total_requests(&paced.final_summary)?;
        if batch != paced.final_summary {
            return Err(format!(
                "phase {i}: final summary.json ({published} requests) differs from batch \
                 analyze over the {sent} records sent"
            ));
        }
        failed += sent.abs_diff(published) + parse_errors as u64;
    }
    Ok(failed)
}

/// Run every phase.
fn phases(b: &Bench, inputs: &Inputs, scrape: bool) -> Result<Vec<Paced>, String> {
    let phases = ((b.seconds / PHASE_SECONDS).round() as usize).max(1);
    (0..phases)
        .map(|_| paced_phase(b, inputs, scrape))
        .collect()
}

pub fn run(b: &Bench) -> Result<Report, String> {
    let (inputs, note) = build_inputs(b)?;
    let phases = phases(b, &inputs, false)?;
    let failed = check(b, &inputs, &phases)?;
    let fresh: Vec<Vec<f64>> = phases
        .iter()
        .map(|p| freshness_ms(&p.observations, 0.0, RATE))
        .collect();
    let all: Vec<f64> = fresh.concat();
    let (tail_ms, tail_pct) =
        tail(&all).ok_or_else(|| format!("only {} snapshots in the paced phases", all.len()))?;
    let drained: f64 = phases
        .iter()
        .map(|p| p.observations.last().map_or(f64::NAN, |o| o.0))
        .sum();
    let paced = (phases.len() as u64 * inputs.paced_records) as f64;
    let samples = b.keep("serve_paced.freshness.tsv", |path| {
        let mut rows = String::from("phase\tseen_s\tcovered\tfreshness_ms\n");
        for (i, (p, f)) in phases.iter().zip(&fresh).enumerate() {
            for ((seen, covered), ms) in p.observations.iter().zip(f) {
                rows.push_str(&format!("{i}\t{seen:.6}\t{covered}\t{ms:.3}\n"));
            }
        }
        std::fs::write(path, rows)
    })?;
    let setup: Vec<f64> = phases.iter().map(|p| p.setup_s).collect();
    let rss: Vec<f64> = phases.iter().map(|p| p.hwm_kb as f64 / 1024.0).collect();
    let late: Vec<f64> = phases
        .iter()
        .flat_map(|p| p.lateness_ms.iter().copied())
        .collect();
    let mut report = Report {
        attempted: paced as u64,
        failed,
        ..Report::default()
    };
    report.set("records_per_s", paced / drained);
    report.set(
        "cpu_s_per_mrec",
        phases.iter().map(|p| p.cpu_s).sum::<f64>() / paced * 1e6,
    );
    report.set("peak_rss_mb", median(&rss));
    report.set("setup_s", median(&setup));
    report.set("freshness_p50_ms", median(&all));
    report.set("freshness_tail_ms", tail_ms);
    report.note(note);
    let prefix_bytes = std::fs::metadata(&inputs.prefix_log).map_or(0, |m| m.len());
    report.note(format!(
        "prefix snap-log {prefix_bytes} bytes, hash {:#018x} (identical over two builds); \
         set-up samples {setup:?} s",
        inputs.prefix_log_hash
    ));
    report.note(format!(
        "{} phases, {} freshness samples in {}, tail is p{tail_pct:.1}; generator late p99 \
         {:.3} ms; drained {drained:.3} s after the phase starts in total",
        phases.len(),
        all.len(),
        samples.display(),
        stats::percentile(&late, 99.0)
    ));
    Ok(report)
}

/// The in-process twin of the paced phase on one thread: resume the
/// prefix log, then per snapshot cycle decode each batch frame, decide its
/// URLs against the compiled policy, ingest it into its connection's
/// shard, and fold, append, merge, compact when due, render and publish.
struct Replay<'a> {
    b: &'a Bench,
    inputs: &'a Inputs,
    engine: PolicyEngine,
    /// Paced batches per snapshot cycle, as the daemon ran them.
    batches_per_cycle: usize,
    /// The daemon's final `summary.json`, which the replay must reproduce.
    expect: &'a [u8],
}

impl Replay<'_> {
    fn rep(&self, traced: bool) -> Result<(Report, Tracer, f64), String> {
        let dir = self.b.path("replay");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let log_path = dir.join("serve.snaplog");
        std::fs::copy(&self.inputs.prefix_log, &log_path).map_err(|e| e.to_string())?;
        let ctx = AnalysisContext::standard(None);
        let params = SuiteParams::new(3);
        let selection = Selection::default_suite();
        let schema = Schema::canonical();
        let mut splitter = LineSplitter::new();
        let err = |e: filterscope_core::Error| e.to_string();

        let mut t = Tracer::new(traced);
        let started = t.now();
        let span = t.begin("snapstore.resume_s", 0);
        let mut log = SnapLog::open(&log_path, SNAP_LOG_MAX_BYTES).map_err(err)?;
        let (frames, _) = read_frames(&log_path).map_err(err)?;
        let view = suite_at(&frames, u64::MAX)
            .map_err(err)?
            .ok_or("empty prefix log")?;
        t.end(span);
        let recovered_frames = log.frames();
        let mut global = view.suite;
        let (mut folded_records, mut folded_errors) = (view.records, view.parse_errors);
        let stats = ServerStats::new();
        stats.records.store(view.records, Ordering::SeqCst);
        stats
            .max_record_ts
            .store(frames.last().map_or(0, |f| f.ts), Ordering::SeqCst);
        let mut writer = SnapshotWriter::new(&dir.join("snaps")).map_err(err)?;
        let conns: IMutex<Vec<ConnHandle>> = IMutex::new(Vec::new());
        let mut parsers = Vec::new();
        for c in 0..CONNECTIONS {
            conns.lock().push(ConnHandle {
                stats: Arc::new(ConnStats::new(c as u64, format!("replay-{c}"))),
                delta: Arc::new(IMutex::new(Shard::new(AnalysisSuite::with_selection(
                    &params, &selection,
                )))),
            });
            parsers.push(LineParser::new());
        }
        let handles: Vec<(Arc<ConnStats>, Arc<IMutex<Shard>>)> = conns
            .lock()
            .iter()
            .map(|h| (Arc::clone(&h.stats), Arc::clone(&h.delta)))
            .collect();
        let batches: usize = self.inputs.paced.iter().map(Vec::len).sum();
        let (mut decisions, mut compactions, mut cycle) = ([0u64; 2], 0u64, 0u64);
        let mut batch = 0usize;
        let mut summary = String::new();
        while batch < batches {
            let end = (batch + self.batches_per_cycle).min(batches);
            for j in batch..end {
                let c = j % CONNECTIONS;
                let trace = j as u64;
                let span = t.begin("logformat.frame_decode_s", trace);
                let mut wire = self.inputs.paced[c][j / CONNECTIONS].1.as_slice();
                let frame = Frame::read_from(&mut wire)
                    .map_err(err)?
                    .ok_or("empty batch frame")?;
                t.end(span);
                let span = t.begin("bench.url_parse_s", trace);
                let urls: Vec<RequestUrl> = batch_lines(&frame.payload)
                    .filter_map(|l| std::str::from_utf8(l).ok())
                    .filter_map(|l| {
                        schema
                            .parse_view(&mut splitter, l, 0)
                            .ok()
                            .map(|v| v.url.to_url())
                    })
                    .collect();
                t.end(span);
                t.time("proxy.decide_url_s", trace, || {
                    for url in &urls {
                        match self.engine.decide_url(url) {
                            Decision::Allow => {}
                            Decision::Deny(_) => decisions[0] += 1,
                            Decision::Redirect(_) => decisions[1] += 1,
                        }
                    }
                });
                let (conn, delta) = &handles[c];
                t.time("stream.ingest_batch_s", trace, || {
                    proto::ingest_batch::<PolicyEngine>(
                        &mut parsers[c],
                        &frame.payload,
                        &ctx,
                        delta,
                        None,
                        conn,
                        &stats,
                    )
                });
            }
            batch = end;
            cycle += 1;
            let trace = 1_000_000 + cycle;
            let mut delta = AnalysisSuite::with_selection(&params, &selection);
            let (records, errors) = t.time("stream.fold_s", trace, || {
                proto::fold_shards(&conns, &mut delta)
            });
            folded_records += records;
            folded_errors += errors;
            let ts = stats.max_record_ts.load(Ordering::SeqCst);
            t.time("snapstore.append_s", trace, || {
                log.append(
                    FrameKind::Delta,
                    ts,
                    SUITE_KEY,
                    encode_value(records, errors, &delta),
                )
            })
            .map_err(err)?;
            t.time("analysis.merge_s", trace, || global.merge(delta));
            if log.should_compact() {
                compactions += 1;
                t.time("snapstore.compact_s", trace, || {
                    log.compact(
                        ts,
                        SUITE_KEY,
                        encode_value(folded_records, folded_errors, &global),
                    )
                })
                .map_err(err)?;
            }
            let report = t.time("analysis.render_s", trace, || {
                summary = global.summary_json(&ctx);
                format!("{}\n", global.render_all(&ctx))
            });
            let status = SnapLogStatus {
                log_seq: log.last_seq(),
                recovered_frames,
            };
            t.time("stream.publish_s", trace, || {
                writer.write(
                    &report,
                    &summary,
                    folded_records,
                    folded_errors,
                    Some(status),
                )
            })
            .map_err(err)?;
        }
        let wall = t.now() - started;
        if summary.as_bytes() != self.expect {
            return Err("the in-process replay's summary differs from the daemon's".to_string());
        }
        let mut report = Report {
            attempted: self.inputs.paced_records,
            ..Report::default()
        };
        report.set("snapstore.compactions", compactions as f64);
        report.set("analysis.state_bytes", global.save_bytes().len() as f64);
        report.note(format!(
            "replay: {cycle} cycles of {} batches, {} denied / {} redirected decisions, {compactions} compactions",
            self.batches_per_cycle, decisions[0], decisions[1]
        ));
        Ok((report, t, wall))
    }
}

pub fn trace(b: &Bench) -> Result<Report, String> {
    let (inputs, note) = build_inputs(b)?;
    let phases = phases(b, &inputs, true)?;
    check(b, &inputs, &phases)?;
    let snapshots: usize = phases.iter().map(|p| p.observations.len()).sum();
    let batches: usize = inputs.paced.iter().map(Vec::len).sum();
    let policy = std::fs::read(&inputs.policy).map_err(|e| e.to_string())?;
    let last = phases.last().expect("a run has a phase");
    let replay = Replay {
        b,
        inputs: &inputs,
        engine: artifact::load(&policy, None)
            .map_err(|e| e.to_string())?
            .engine,
        batches_per_cycle: (batches * phases.len()).div_ceil(snapshots.max(1)),
        expect: &last.final_summary,
    };
    let (mut report, tracer) = traced_pairs(b.seconds, |traced| replay.rep(traced))?;
    let path = b.keep("serve_paced.spans.jsonl", |p| tracer.write_jsonl(p))?;
    // Daemon counters of the last phase, and the deepest queue any phase saw.
    let gauge = |name: &str| proc::gauge(&last.page, name).unwrap_or(0.0);
    report.set("stream.frames", gauge("filterscope_frames_total"));
    report.set("stream.bytes", gauge("filterscope_bytes_total"));
    report.set(
        "stream.queue_depth_max",
        phases.iter().map(|p| p.queue_depth_max).fold(0.0, f64::max),
    );
    report.set("stream.snapshots", gauge("filterscope_snapshot_seq"));
    report.set(
        "stream.snapshot_errors",
        gauge("filterscope_snapshot_errors_total"),
    );
    report.set(
        "stream.dropped_connections",
        gauge("filterscope_connections_dropped_total"),
    );
    report.set("snapstore.log_bytes", gauge("filterscope_snaplog_bytes"));
    report.set(
        "snapstore.frames",
        gauge("filterscope_snaplog_frames_total"),
    );
    let late: Vec<f64> = phases
        .iter()
        .flat_map(|p| p.lateness_ms.iter().copied())
        .collect();
    report.set("bench.gen_late_p99_ms", stats::percentile(&late, 99.0));
    report.set("bench.freshness_samples", snapshots as f64);
    report.note(note);
    report.note(format!(
        "{} spans written to {}",
        tracer.spans().len(),
        path.display()
    ));
    Ok(report)
}
