//! Parallel log ingest: byte-range sharding + the existing merge tree.
//!
//! The paper's dataset is 600 GB of proxy logs; a single-threaded ingest
//! loop leaves every core but one idle. [`ParallelIngest`] fans a set of
//! log files out to N workers: each file is split into byte-range shards
//! aligned to newline boundaries, every shard feeds a private sink (an
//! [`AnalysisSuite`] shard, via [`SuiteSink`]), and the shards are folded
//! through the suite's `merge()` in a deterministic order.
//!
//! # Determinism
//!
//! The shard plan depends only on file sizes, `#Fields:` header positions,
//! and the configured shard size — never on the thread count — and shards
//! are merged in plan order. `--threads 1` and `--threads 64` therefore
//! produce byte-identical reports and identical malformed-line counts.
//!
//! # Shard ownership rule
//!
//! A line belongs to the shard containing its **first byte**. A shard whose
//! range starts mid-line (previous byte is not `\n`) discards through the
//! first newline — that prefix belongs to the previous shard, which reads
//! its final line to completion even past its range end. Every line,
//! including a corrupt one straddling a shard boundary, is thus processed
//! (and counted) exactly once.
//!
//! # Schema sections
//!
//! Blue Coat logs may switch schemas mid-file via `#Fields:` headers (log
//! rotation concatenation). The planner locates every header up front and
//! splits the file into sections, each carrying its schema; byte-range
//! shards never cross a section boundary, so workers parse with the right
//! schema without replaying the file prefix.

use crate::context::AnalysisContext;
use crate::registry::{Selection, SuiteParams};
use crate::suite::AnalysisSuite;
use filterscope_core::{pool, Error, Progress, Result};
use filterscope_logformat::{scan_sections, BlockParser, BlockReader, RecordView, Schema};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default shard size: large enough to amortize per-shard open/seek,
/// small enough that a handful of files still saturates every core.
pub const DEFAULT_SHARD_BYTES: u64 = 8 * 1024 * 1024;

/// An accumulator that can ingest records on one shard and absorb sibling
/// shards, preserving the result it would have reached single-threaded.
///
/// Ingest takes borrowed [`RecordView`]s, a block at a time — the shard
/// worker parses each line zero-copy and the sink reads field slices
/// straight out of the I/O buffer. Sinks that need to retain a field
/// allocate for that field only.
pub trait ShardSink: Send {
    /// Feed a whole block of parsed record views (the unit the block
    /// reader produces).
    fn ingest_block(&mut self, block: &[RecordView<'_>]);

    /// Fold a sibling shard in (shards are absorbed in plan order).
    fn absorb(&mut self, other: Self);
}

/// [`AnalysisSuite`] plus the shared read-only context it ingests under.
pub struct SuiteSink<'a> {
    ctx: &'a AnalysisContext,
    suite: AnalysisSuite,
}

impl<'a> SuiteSink<'a> {
    /// A fresh shard running only the selected analyses.
    pub fn with_selection(
        ctx: &'a AnalysisContext,
        params: &SuiteParams,
        selection: &Selection,
    ) -> Self {
        SuiteSink {
            ctx,
            suite: AnalysisSuite::with_selection(params, selection),
        }
    }

    /// Unwrap the merged suite.
    pub fn into_suite(self) -> AnalysisSuite {
        self.suite
    }
}

impl ShardSink for SuiteSink<'_> {
    fn ingest_block(&mut self, block: &[RecordView<'_>]) {
        self.suite.ingest_block(self.ctx, block);
    }

    fn absorb(&mut self, other: Self) {
        self.suite.merge(other.suite);
    }
}

/// Counters from one parallel ingest run.
#[derive(Debug, Clone)]
pub struct IngestStats {
    /// Records parsed and ingested.
    pub records: u64,
    /// Malformed lines skipped (identical to the single-threaded count).
    pub malformed: u64,
    /// Total bytes across the input files.
    pub bytes: u64,
    /// Input files.
    pub files: usize,
    /// Work units the files were split into.
    pub shards: usize,
    /// Worker threads used.
    pub threads: usize,
    /// Wall-clock time for plan + ingest + merge.
    pub elapsed: Duration,
    /// Wall-clock time of the final absorb-in-plan-order fold alone (the
    /// serial tail of a parallel ingest; `replay` reports it as its own
    /// stage).
    pub merge_elapsed: Duration,
}

impl IngestStats {
    /// Records ingested per wall-clock second.
    pub fn records_per_sec(&self) -> f64 {
        self.records as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Input bytes consumed per wall-clock second.
    pub fn bytes_per_sec(&self) -> f64 {
        self.bytes as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// One status line for stderr.
    pub fn render(&self) -> String {
        format!(
            "ingested {} records from {} file{} ({} malformed lines skipped) \
             in {:.2}s on {} thread{} — {:.0} records/s, {:.1} MB/s",
            self.records,
            self.files,
            if self.files == 1 { "" } else { "s" },
            self.malformed,
            self.elapsed.as_secs_f64(),
            self.threads,
            if self.threads == 1 { "" } else { "s" },
            self.records_per_sec(),
            self.bytes_per_sec() / 1e6,
        )
    }
}

/// One byte-range work unit: `[start, end)` of one file, parsed under one
/// schema. `aligned` marks the first shard of a schema section (its start
/// is known to be a line start).
#[derive(Debug, Clone)]
struct IngestUnit {
    path: Arc<PathBuf>,
    start: u64,
    end: u64,
    aligned: bool,
    schema: Arc<Schema>,
}

/// Driver for sharded parallel log ingest.
#[derive(Debug, Clone)]
pub struct ParallelIngest {
    threads: usize,
    shard_bytes: u64,
    /// When set, a monitor thread prints `{label}: 42% — 118.3 MB/s, ETA
    /// 12s` lines to stderr while workers run.
    eta_label: Option<String>,
}

impl ParallelIngest {
    /// Ingest with `threads` workers (0 selects the available parallelism)
    /// and the default shard size.
    pub fn new(threads: usize) -> Self {
        ParallelIngest {
            threads: if threads == 0 {
                pool::available_threads()
            } else {
                threads
            },
            shard_bytes: DEFAULT_SHARD_BYTES,
            eta_label: None,
        }
    }

    /// Override the shard size (tests use tiny shards to exercise the
    /// boundary-straddling paths; the plan, and therefore the output, stays
    /// thread-count independent for any fixed value).
    pub fn with_shard_bytes(mut self, shard_bytes: u64) -> Self {
        self.shard_bytes = shard_bytes.max(1);
        self
    }

    /// Print periodic progress/ETA lines to stderr under `label` while the
    /// ingest runs (quiet for runs shorter than the first tick).
    pub fn with_eta(mut self, label: &str) -> Self {
        self.eta_label = Some(label.to_string());
        self
    }

    /// The worker-thread count this driver will use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Ingest `paths` into sinks created by `make`, one per shard, and fold
    /// them in plan order. Returns the merged sink and run statistics.
    pub fn run<S, F>(&self, paths: &[PathBuf], make: F) -> Result<(S, IngestStats)>
    where
        S: ShardSink,
        F: Fn() -> S + Sync,
    {
        let started = Instant::now();
        let mut units = Vec::new();
        let mut malformed_headers = 0u64;
        let mut bytes = 0u64;
        for path in paths {
            let planned = self.plan_file(path)?;
            units.extend(planned.units);
            malformed_headers += planned.malformed_headers;
            bytes += planned.bytes;
        }
        let consumed = Arc::new(AtomicU64::new(0));
        let monitor = self
            .eta_label
            .as_deref()
            .map(|label| EtaMonitor::spawn(label, Arc::clone(&consumed), bytes));
        let shard_results: Vec<Result<(S, u64, u64)>> =
            pool::run_indexed(self.threads, units.len(), |i| {
                let unit = &units[i];
                let mut sink = make();
                let (records, malformed) = run_unit(unit, &mut sink, &consumed)?;
                Ok((sink, records, malformed))
            });
        if let Some(monitor) = monitor {
            monitor.finish();
        }
        let merge_started = Instant::now();
        let mut merged = make();
        let mut records = 0u64;
        let mut malformed = malformed_headers;
        for result in shard_results {
            let (sink, shard_records, shard_malformed) = result?;
            merged.absorb(sink);
            records += shard_records;
            malformed += shard_malformed;
        }
        let stats = IngestStats {
            records,
            malformed,
            bytes,
            files: paths.len(),
            shards: units.len(),
            threads: self.threads,
            elapsed: started.elapsed(),
            merge_elapsed: merge_started.elapsed(),
        };
        Ok((merged, stats))
    }

    /// Build a merged selective [`AnalysisSuite`] from `paths`: per-shard
    /// suites carry only the selected analyses, so a `--analyses domains`
    /// run pays the ingest cost of one accumulator, not eighteen.
    pub fn ingest_selected(
        &self,
        paths: &[PathBuf],
        ctx: &AnalysisContext,
        params: &SuiteParams,
        selection: &Selection,
    ) -> Result<(AnalysisSuite, IngestStats)> {
        let (sink, stats) =
            self.run(paths, || SuiteSink::with_selection(ctx, params, selection))?;
        Ok((sink.into_suite(), stats))
    }

    /// Scan one file for `#Fields:` schema sections (block-wise, via
    /// [`scan_sections`]) and cut each section into byte-range shards.
    fn plan_file(&self, path: &Path) -> Result<PlannedFile> {
        let scan = scan_sections(path).map_err(|e| io_error(path, &e))?;
        let file_len = scan.bytes;
        let path = Arc::new(path.to_path_buf());
        let mut units = Vec::new();
        for (i, (start, schema)) in scan.sections.iter().enumerate() {
            // A section ends where the next `#Fields:` line begins — shards
            // never cross a section boundary, so a shard boundary can land
            // *inside* a header line only between sections, where no shard
            // reads.
            let end = scan.cuts.get(i).copied().unwrap_or(file_len);
            if *start >= end {
                continue;
            }
            let len = end - start;
            let shards = len.div_ceil(self.shard_bytes).max(1);
            let base = len / shards;
            let rem = len % shards;
            let mut at = *start;
            for s in 0..shards {
                let take = base + u64::from(s < rem);
                units.push(IngestUnit {
                    path: Arc::clone(&path),
                    start: at,
                    end: at + take,
                    aligned: s == 0,
                    schema: Arc::clone(schema),
                });
                at += take;
            }
        }
        Ok(PlannedFile {
            units,
            malformed_headers: scan.malformed_headers,
            bytes: file_len,
        })
    }
}

/// The monitor's stop flag and the condvar that announces it.
type Shutdown = Arc<(std::sync::Mutex<bool>, std::sync::Condvar)>;

/// Background stderr reporter for long ingests: prints one
/// `{label}: pct — MB/s, ETA` line per tick (first tick after one second, so
/// short runs stay silent).
struct EtaMonitor {
    shutdown: Shutdown,
    handle: std::thread::JoinHandle<()>,
}

impl EtaMonitor {
    fn spawn(label: &str, consumed: Arc<AtomicU64>, total: u64) -> EtaMonitor {
        let shutdown = Arc::new((std::sync::Mutex::new(false), std::sync::Condvar::new()));
        EtaMonitor::start(shutdown, label, consumed, total)
    }

    fn start(shutdown: Shutdown, label: &str, consumed: Arc<AtomicU64>, total: u64) -> EtaMonitor {
        let signal = Arc::clone(&shutdown);
        let label = label.to_string();
        let handle = std::thread::spawn(move || {
            let progress = Progress::start();
            let tick = Duration::from_millis(1000);
            let (lock, cvar) = &*signal;
            let mut stopped = lock.lock().expect("monitor lock");
            // The flag is checked under the lock before every wait: a stop
            // signalled before this thread first took the lock has no waiter
            // to wake, and waiting anyway would hold `finish` for a tick.
            while !*stopped {
                let (guard, timeout) = cvar
                    .wait_timeout(stopped, tick)
                    .expect("monitor wait_timeout");
                stopped = guard;
                if !*stopped && timeout.timed_out() {
                    let done = consumed.load(Ordering::Relaxed);
                    eprintln!("{}", progress.eta_line(&label, done, total));
                }
            }
        });
        EtaMonitor { shutdown, handle }
    }

    fn finish(self) {
        let (lock, cvar) = &*self.shutdown;
        *lock.lock().expect("monitor lock") = true;
        cvar.notify_all();
        let _ = self.handle.join();
    }
}

struct PlannedFile {
    units: Vec<IngestUnit>,
    malformed_headers: u64,
    bytes: u64,
}

fn io_error(path: &Path, e: &std::io::Error) -> Error {
    Error::Io(format!("{}: {e}", path.display()))
}

/// Process one byte-range shard, feeding `sink` block-wise. Returns
/// (records, malformed). `consumed` is the shared byte counter the ETA
/// monitor reads.
fn run_unit<S: ShardSink>(
    unit: &IngestUnit,
    sink: &mut S,
    consumed: &AtomicU64,
) -> Result<(u64, u64)> {
    let path: &Path = &unit.path;
    let mut reader = BlockReader::open(
        path,
        unit.start,
        unit.end,
        unit.aligned,
        filterscope_logformat::DEFAULT_BLOCK_BYTES,
    )
    .map_err(|e| io_error(path, &e))?;
    let mut parser = BlockParser::new();
    let mut records = 0u64;
    let mut malformed = 0u64;
    let mut line_no = 0u64;
    while let Some(block) = reader.next_block().map_err(|e| io_error(path, &e))? {
        let (views, block_malformed) = parser.parse(block, &unit.schema, &mut line_no);
        sink.ingest_block(&views);
        records += views.len() as u64;
        malformed += block_malformed;
        consumed.fetch_add(block.len() as u64, Ordering::Relaxed);
    }
    Ok((records, malformed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use filterscope_core::{ProxyId, Timestamp};
    use filterscope_logformat::record::RecordBuilder;
    use filterscope_logformat::{LogRecord, LogWriter, RequestUrl};
    use std::fs::File;
    use std::io::Write as _;

    fn rec(host: &str, censored: bool) -> LogRecord {
        let b = RecordBuilder::new(
            Timestamp::parse_fields("2011-08-03", "10:00:00").unwrap(),
            ProxyId::Sg42,
            RequestUrl::http(host, "/"),
        );
        if censored {
            b.policy_denied().build()
        } else {
            b.build()
        }
    }

    fn write_log(dir: &Path, name: &str, records: &[LogRecord]) -> PathBuf {
        let path = dir.join(name);
        let mut w = LogWriter::new(Vec::new());
        for r in records {
            w.write_record(r).unwrap();
        }
        std::fs::write(&path, w.into_inner().unwrap()).unwrap();
        path
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("filterscope-pipeline-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A counting sink for plumbing-only tests.
    #[derive(Debug, Default)]
    struct Counter {
        hosts: Vec<String>,
    }

    impl ShardSink for Counter {
        fn ingest_block(&mut self, block: &[RecordView<'_>]) {
            self.hosts
                .extend(block.iter().map(|record| record.host().to_string()));
        }

        fn absorb(&mut self, other: Self) {
            self.hosts.extend(other.hosts);
        }
    }

    #[test]
    fn tiny_shards_reassemble_the_exact_record_stream() {
        let dir = temp_dir("reassemble");
        let records: Vec<LogRecord> = (0..500)
            .map(|i| rec(&format!("host{i}.example"), i % 7 == 0))
            .collect();
        let path = write_log(&dir, "a.log", &records);
        let want: Vec<String> = records.iter().map(|r| r.host().to_string()).collect();
        for (threads, shard_bytes) in [(1usize, 96u64), (4, 96), (4, 1 << 20)] {
            let ingest = ParallelIngest::new(threads).with_shard_bytes(shard_bytes);
            let (counter, stats) = ingest
                .run(std::slice::from_ref(&path), Counter::default)
                .unwrap();
            assert_eq!(counter.hosts, want, "threads={threads} bytes={shard_bytes}");
            assert_eq!(stats.records, 500);
            assert_eq!(stats.malformed, 0);
            if shard_bytes == 96 {
                assert!(stats.shards > 10, "tiny shards must actually split");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_lines_straddling_shard_boundaries_count_once() {
        let dir = temp_dir("corrupt");
        let mut body = Vec::new();
        {
            let mut w = LogWriter::new(&mut body);
            for i in 0..50 {
                w.write_record(&rec(&format!("ok{i}.example"), false))
                    .unwrap();
            }
        }
        // Interleave long corrupt lines so that, at a tiny shard size, some
        // straddle shard boundaries.
        let corrupt = format!("corrupt,{}\n", "x".repeat(300));
        let mut data = Vec::new();
        for (i, chunk) in body.split_inclusive(|b| *b == b'\n').enumerate() {
            data.extend_from_slice(chunk);
            if i % 5 == 0 {
                data.extend_from_slice(corrupt.as_bytes());
            }
        }
        let path = dir.join("corrupt.log");
        let mut f = File::create(&path).unwrap();
        f.write_all(&data).unwrap();
        drop(f);
        let mut counts = Vec::new();
        for threads in [1usize, 8] {
            let ingest = ParallelIngest::new(threads).with_shard_bytes(128);
            let (counter, stats) = ingest
                .run(std::slice::from_ref(&path), Counter::default)
                .unwrap();
            assert_eq!(counter.hosts.len(), 50, "threads={threads}");
            counts.push((stats.records, stats.malformed));
        }
        assert_eq!(counts[0], counts[1]);
        // Every injected corrupt line counted exactly once.
        assert_eq!(counts[0].1, 11);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mid_file_schema_switches_are_honored() {
        let dir = temp_dir("schema");
        // Section 1: canonical order. Section 2: reversed field order under
        // its own #Fields: header (log rotation concatenation).
        let first = rec("first.example", false);
        let second = rec("second.example", true);
        let cells = filterscope_logformat::csv::split_line(&second.write_csv()).unwrap();
        let fields = filterscope_logformat::fields::FIELDS;
        let reversed_header = format!(
            "#Fields: {}",
            fields.iter().rev().copied().collect::<Vec<_>>().join(",")
        );
        let reversed_line =
            filterscope_logformat::csv::join_line(&cells.iter().rev().cloned().collect::<Vec<_>>());
        let mut data = String::new();
        data.push_str(&first.write_csv());
        data.push('\n');
        data.push_str(&reversed_header);
        data.push('\n');
        data.push_str(&reversed_line);
        data.push('\n');
        let path = dir.join("rotated.log");
        std::fs::write(&path, &data).unwrap();
        for threads in [1usize, 4] {
            let ingest = ParallelIngest::new(threads).with_shard_bytes(64);
            let (counter, stats) = ingest
                .run(std::slice::from_ref(&path), Counter::default)
                .unwrap();
            assert_eq!(
                counter.hosts,
                vec!["first.example".to_string(), "second.example".to_string()],
                "threads={threads}"
            );
            assert_eq!(stats.malformed, 0);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shard_boundaries_around_header_blocks_never_misattribute_schemas() {
        // Regression (block sharding vs. mid-file `#Fields:` directives): a
        // file alternating long header lines and data sections must parse
        // identically — same hosts, same order, zero malformed — for every
        // shard size, including sizes smaller than one header line, and for
        // every thread count. A drifting section offset would make a shard
        // read header bytes as data (malformed) or parse data under the
        // wrong schema (wrong hosts).
        let dir = temp_dir("header-straddle");
        let fields = filterscope_logformat::fields::FIELDS;
        // Long, whitespace-padded reversed header: legal, and much larger
        // than the smallest shard size used below.
        let reversed_header = format!(
            "#Fields:   {}",
            fields
                .iter()
                .rev()
                .copied()
                .collect::<Vec<_>>()
                .join("    ")
        );
        let canonical_header = format!("#Fields: {}", fields.join(","));
        let mut data = String::new();
        let mut want = Vec::new();
        for section in 0..4 {
            for i in 0..3 {
                let host = format!("s{section}-host{i}.example");
                let r = rec(&host, i == 0);
                if section % 2 == 0 {
                    data.push_str(&r.write_csv());
                } else {
                    let cells = filterscope_logformat::csv::split_line(&r.write_csv()).unwrap();
                    data.push_str(&filterscope_logformat::csv::join_line(
                        &cells.iter().rev().cloned().collect::<Vec<_>>(),
                    ));
                }
                data.push('\n');
                want.push(host);
            }
            // Switch schema for the next section.
            data.push_str(if section % 2 == 0 {
                &reversed_header
            } else {
                &canonical_header
            });
            data.push('\n');
        }
        let path = dir.join("sections.log");
        std::fs::write(&path, &data).unwrap();
        for shard_bytes in [32u64, 64, 96, 128, 300, 1 << 20] {
            for threads in [1usize, 4, 8] {
                let ingest = ParallelIngest::new(threads).with_shard_bytes(shard_bytes);
                let (counter, stats) = ingest
                    .run(std::slice::from_ref(&path), Counter::default)
                    .unwrap();
                assert_eq!(
                    counter.hosts, want,
                    "threads={threads} shard_bytes={shard_bytes}"
                );
                assert_eq!(stats.malformed, 0, "threads={threads} bytes={shard_bytes}");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_is_a_clean_error() {
        let ingest = ParallelIngest::new(2);
        let err = ingest
            .run(
                &[PathBuf::from("/nonexistent/filterscope.log")],
                Counter::default,
            )
            .unwrap_err();
        assert!(matches!(err, Error::Io(_)));
    }

    #[test]
    fn eta_monitor_sees_a_stop_signalled_before_it_runs() {
        // Signal the stop while holding the lock across the spawn, so the
        // monitor thread can only take the lock after the notify has gone
        // out with no waiter: it must read the flag instead of waiting a
        // whole tick for a wakeup that already happened.
        let shutdown: Shutdown =
            Arc::new((std::sync::Mutex::new(false), std::sync::Condvar::new()));
        let monitor = {
            let (lock, cvar) = &*shutdown;
            let mut stopped = lock.lock().unwrap();
            let monitor = EtaMonitor::start(
                Arc::clone(&shutdown),
                "test",
                Arc::new(AtomicU64::new(0)),
                1,
            );
            *stopped = true;
            cvar.notify_all();
            monitor
        };
        let at = Instant::now();
        monitor.finish();
        let took = at.elapsed();
        assert!(took < Duration::from_millis(200), "finish took {took:?}");
    }

    #[test]
    fn zero_threads_selects_available_parallelism() {
        assert!(ParallelIngest::new(0).threads() >= 1);
    }
}
