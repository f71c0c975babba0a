//! Throughput benchmarks: the systems case for the Rust implementation.
//!
//! * `parse_lines` — CSV → `LogRecord` rate (the 600 GB leak at this rate);
//! * `parse_throughput` — owned `LogRecord` vs borrowed `RecordView`
//!   parsing, lines/s (the zero-copy case for the view type);
//! * `write_lines` — `LogRecord` → CSV rate;
//! * `policy_decisions` — SG-9000 policy evaluations per second;
//! * `farm_end_to_end` — request → routed, filtered, logged record;
//! * `profile_decisions` — the same end-to-end path through each censor
//!   profile (blue-coat, dns-poison, tcp-rst, blockpage): the rendering
//!   cost of the pluggable mechanism layer;
//! * `generate_and_analyze` — the whole pipeline: synthesize a day slice,
//!   filter it, ingest it into the full analysis suite;
//! * `parallel_ingest` — the sharded file-ingest path at 1 thread vs all
//!   cores (the tentpole speedup this crate exists to defend);
//! * `stream_ingest` — the streaming daemon's per-connection loop (frame
//!   decode → `proto::ingest_batch`) against the single-threaded
//!   file-shard path over the same records: the framing tax.

use filterscope_analysis::{
    AnalysisContext, AnalysisSuite, ParallelIngest, Selection, SuiteParams,
};
use filterscope_bench::harness::{black_box, Harness, Throughput};
use filterscope_bench::{corpus, csv_lines};
use filterscope_core::pool;
use filterscope_logformat::frame::Frame;
use filterscope_logformat::{parse_line, BlockParser, LineSplitter, LogWriter, Schema};
use filterscope_proxy::config::FarmConfig;
use filterscope_proxy::cpl;
use filterscope_proxy::{artifact, PolicyData};
use filterscope_proxy::{PolicyEngine, ProfileKind, ProxyConfig, ProxyFarm, Request};
use filterscope_stream::metrics::{ConnStats, ServerStats};
use filterscope_stream::proto::{self, LineParser, Shard};
use filterscope_synth::{Corpus, SynthConfig};
use interleave::IMutex;
use std::path::PathBuf;

fn bench_throughput(c: &mut Harness) {
    let lines = csv_lines();
    let (records, _) = corpus();
    let bytes: u64 = lines.iter().map(|l| l.len() as u64 + 1).sum();

    let mut g = c.benchmark_group("throughput");
    g.throughput(Throughput::Bytes(bytes));
    g.bench_function("parse_lines", |b| {
        b.iter(|| {
            let mut ok = 0u64;
            for (i, line) in lines.iter().enumerate() {
                if parse_line(line, i as u64).is_ok() {
                    ok += 1;
                }
            }
            black_box(ok)
        })
    });

    g.throughput(Throughput::Elements(records.len() as u64));
    g.bench_function("write_lines", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for r in records {
                total += r.write_csv().len();
            }
            black_box(total)
        })
    });

    // The buffer-reusing render path the sharded writer runs on: one line
    // buffer, allocation-free integer/timestamp formatting. The delta to
    // `write_lines` is the per-record allocation + `format!` machinery.
    g.bench_function("write_lines_reused", |b| {
        let mut line = String::new();
        b.iter(|| {
            let mut total = 0usize;
            for r in records {
                line.clear();
                r.write_csv_into(&mut line);
                total += line.len();
            }
            black_box(total)
        })
    });

    // The block-oriented hot path every ingest actually runs: one
    // SWAR-split pass over a whole block of lines, span-resolved into
    // `RecordView`s. The delta to `parse_lines` is the payoff of
    // amortizing per-line setup (and the owned record) across a block.
    let schema = Schema::canonical();
    let block: Vec<u8> = lines
        .iter()
        .flat_map(|l| l.bytes().chain(std::iter::once(b'\n')))
        .collect();
    let mut block_parser = BlockParser::new();
    g.throughput(Throughput::Bytes(bytes));
    g.bench_function("parse_lines_block", |b| {
        b.iter(|| {
            let mut line_no = 0u64;
            let (views, malformed) = block_parser.parse(&block, &schema, &mut line_no);
            assert_eq!(malformed, 0);
            black_box(views.len())
        })
    });

    // CPL round trip of the full standard policy.
    let policy_text = cpl::to_cpl(&PolicyData::standard());
    g.throughput(Throughput::Bytes(policy_text.len() as u64));
    g.bench_function("cpl_parse_standard_policy", |b| {
        b.iter(|| black_box(cpl::parse_cpl(&policy_text).unwrap()))
    });

    // Reconstruct the requests once for the decision benchmarks.
    let requests: Vec<Request> = records
        .iter()
        .map(|r| {
            let mut req = Request::get(r.timestamp, r.url.clone());
            req.client = r.client;
            req.user_agent = r.user_agent.clone();
            req.method = r.method.clone();
            req
        })
        .collect();

    let engine = PolicyEngine::standard(None, 7);
    let cfg = ProxyConfig::standard(filterscope_core::ProxyId::Sg42);
    g.throughput(Throughput::Elements(requests.len() as u64));
    g.bench_function("policy_decisions", |b| {
        b.iter(|| {
            let mut censored = 0u64;
            for req in &requests {
                if engine.decide(&cfg, req).is_censored() {
                    censored += 1;
                }
            }
            black_box(censored)
        })
    });

    // Startup cost of each path to a live engine: text parse + automaton
    // build versus artifact load (container checks, then the same parse
    // and build) — the daemon-restart story.
    let artifact_bytes = artifact::compile(&PolicyData::standard(), 7);
    g.throughput(Throughput::Elements(1));
    g.bench_function("policy_startup_parse_build", |b| {
        b.iter(|| {
            let policy = cpl::parse_cpl(&policy_text).unwrap();
            black_box(PolicyEngine::from_data(&policy, None, 7))
        })
    });
    g.bench_function("policy_startup_artifact_load", |b| {
        b.iter(|| black_box(artifact::load(&artifact_bytes, None).unwrap()))
    });

    g.throughput(Throughput::Elements(requests.len() as u64));
    let farm = ProxyFarm::standard();
    g.bench_function("farm_end_to_end", |b| {
        b.iter(|| {
            let mut denied = 0u64;
            for req in &requests {
                let rec = farm.process(req);
                if rec.exception.is_policy() {
                    denied += 1;
                }
            }
            black_box(denied)
        })
    });
    // The batched farm path the generation pipeline runs on.
    g.bench_function("farm_end_to_end_batched", |b| {
        let mut out = Vec::new();
        b.iter(|| {
            out.clear();
            farm.process_batch(&requests, &mut out);
            black_box(out.iter().filter(|r| r.exception.is_policy()).count())
        })
    });
    g.finish();

    // The profile layer's overhead question, per mechanism: request →
    // mechanism-shaped record against the bare `policy_decisions` rate
    // above. `farm_blue-coat` is `farm_end_to_end` by another name, so
    // any spread across rows is the rendering cost of each censor.
    let mut g = c.benchmark_group("profile_decisions");
    g.throughput(Throughput::Elements(requests.len() as u64));
    for kind in ProfileKind::ALL {
        let farm = ProxyFarm::new(
            FarmConfig {
                profile: kind,
                ..FarmConfig::default()
            },
            None,
        );
        g.bench_function(&format!("farm_{}", kind.name()), |b| {
            b.iter(|| {
                let mut censored = 0u64;
                for req in &requests {
                    let rec = farm.process(req);
                    if rec.exception.is_policy() {
                        censored += 1;
                    }
                }
                black_box(censored)
            })
        });
    }
    g.finish();

    let mut g = c.benchmark_group("pipeline");
    g.sample_size(10);
    g.bench_function("generate_and_analyze_day_slice", |b| {
        b.iter(|| {
            // A fresh 1/2^20 corpus: ~720 requests through generation, the
            // farm, and the full analysis suite.
            let corpus = Corpus::new(SynthConfig::new(1 << 20).expect("scale"));
            let ctx = AnalysisContext::standard(Some(corpus.relay_index()));
            let mut suite = AnalysisSuite::new(2);
            suite.ingest_records(&ctx, corpus.generate());
            black_box(suite.datasets().full)
        })
    });
    g.finish();

    bench_parse_throughput(c);
    bench_parallel_ingest(c);
    bench_selective_ingest(c);
    bench_stream_ingest(c);
}

/// Write the shared corpus to one file per study day (record order is
/// already day-major), mirroring what `filterscope generate` writes on
/// disk. Returns the day paths and the total byte volume.
fn write_day_files(dir: &std::path::Path) -> (Vec<PathBuf>, u64) {
    let (records, _) = corpus();
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create bench dir");
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut writer: Option<LogWriter<std::fs::File>> = None;
    let mut current_day = String::new();
    let mut bytes = 0u64;
    for r in records {
        let day = r.timestamp.date().to_string();
        if day != current_day {
            if let Some(w) = writer.take() {
                w.into_inner().expect("flush day file");
            }
            let path = dir.join(format!("sg_access_{day}.log"));
            writer = Some(LogWriter::new(
                std::fs::File::create(&path).expect("create day file"),
            ));
            paths.push(path);
            current_day = day;
        }
        bytes += r.write_csv().len() as u64 + 1;
        writer
            .as_mut()
            .expect("writer open")
            .write_record(r)
            .expect("write record");
    }
    if let Some(w) = writer.take() {
        w.into_inner().expect("flush day file");
    }
    (paths, bytes)
}

/// Owned vs borrowed parsing over the same lines: the allocation cost of
/// materializing a `LogRecord` against `RecordView`'s slices, in lines/s.
fn bench_parse_throughput(c: &mut Harness) {
    let lines = csv_lines();
    let mut g = c.benchmark_group("parse_throughput");
    g.throughput(Throughput::Elements(lines.len() as u64));
    g.bench_function("owned_records", |b| {
        b.iter(|| {
            let mut censored = 0u64;
            for (i, line) in lines.iter().enumerate() {
                if let Ok(r) = parse_line(line, i as u64) {
                    if r.exception.is_policy() {
                        censored += 1;
                    }
                }
            }
            black_box(censored)
        })
    });
    g.bench_function("record_views", |b| {
        let schema = Schema::canonical();
        let mut splitter = LineSplitter::new();
        b.iter(|| {
            let mut censored = 0u64;
            for (i, line) in lines.iter().enumerate() {
                if let Ok(v) = schema.parse_view(&mut splitter, line, i as u64) {
                    if v.exception_is_policy() {
                        censored += 1;
                    }
                }
            }
            black_box(censored)
        })
    });
    g.finish();
}

/// Write the shared corpus to day files once, then compare the sharded
/// ingest at 1 thread against all available cores.
fn bench_parallel_ingest(c: &mut Harness) {
    let (records, ctx) = corpus();
    let dir = std::env::temp_dir().join(format!("filterscope-bench-ingest-{}", std::process::id()));
    let (paths, bytes) = write_day_files(&dir);

    let mut g = c.benchmark_group("parallel_ingest");
    g.sample_size(10);
    g.throughput(Throughput::Bytes(bytes));
    // On a single-core machine both entries would collapse onto the same
    // name; dedupe so the results file never carries duplicate keys.
    let mut thread_counts = vec![1, pool::available_threads()];
    thread_counts.dedup();
    for threads in thread_counts {
        let ingest = ParallelIngest::new(threads);
        g.bench_function(&format!("analyze_suite_threads_{threads:02}"), |b| {
            b.iter(|| {
                let (suite, stats) = ingest
                    .ingest_selected(
                        &paths,
                        ctx,
                        &SuiteParams::new(2),
                        &Selection::default_suite(),
                    )
                    .expect("ingest corpus files");
                assert_eq!(stats.records, records.len() as u64);
                black_box(suite.datasets().full)
            })
        });
    }
    g.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The registry payoff: the default suite against single-analysis
/// selections over the same day files, single-threaded so the delta is
/// pure per-record ingest cost (`--analyses domains` skips the other
/// seventeen accumulators, it does not parse less).
fn bench_selective_ingest(c: &mut Harness) {
    let (records, ctx) = corpus();
    let dir = std::env::temp_dir().join(format!(
        "filterscope-bench-selective-{}",
        std::process::id()
    ));
    let (paths, bytes) = write_day_files(&dir);

    let mut g = c.benchmark_group("selective_ingest");
    g.sample_size(10);
    g.throughput(Throughput::Bytes(bytes));
    let ingest = ParallelIngest::new(1);
    let params = SuiteParams::new(2);
    let cases = [
        ("full_default_suite", Selection::default_suite()),
        ("domains_only", Selection::only(&["domains"]).unwrap()),
        ("inference_only", Selection::only(&["inference"]).unwrap()),
    ];
    for (label, selection) in &cases {
        g.bench_function(label, |b| {
            b.iter(|| {
                let (suite, stats) = ingest
                    .ingest_selected(&paths, ctx, &params, selection)
                    .expect("ingest corpus files");
                assert_eq!(stats.records, records.len() as u64);
                black_box(suite.keys().len())
            })
        });
    }
    g.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

/// What the wire format costs: the per-connection loop of `filterscope
/// serve` (frame decode → `proto::ingest_batch`, which block-parses the
/// payload and ingests it into the connection's delta shard) over a
/// pre-encoded in-memory stream, against the 1-thread file-shard ingest of
/// the same records. Both parse through `BlockParser`, so the gap is the
/// framing + checksum tax plus serve's per-batch bookkeeping.
fn bench_stream_ingest(c: &mut Harness) {
    let (records, ctx) = corpus();
    let lines = csv_lines();

    // Pre-encode the corpus once as 500-line Batch frames plus a Bye —
    // exactly what `filterscope stream --batch 500` puts on the socket.
    let mut wire = Vec::new();
    let mut batch = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        batch.extend_from_slice(line.as_bytes());
        batch.push(b'\n');
        if (i + 1) % 500 == 0 {
            Frame::batch(std::mem::take(&mut batch))
                .encode_into(&mut wire)
                .expect("batches are under the frame ceiling");
        }
    }
    if !batch.is_empty() {
        Frame::batch(batch)
            .encode_into(&mut wire)
            .expect("batches are under the frame ceiling");
    }
    Frame::bye()
        .encode_into(&mut wire)
        .expect("empty payload encodes");

    let dir = std::env::temp_dir().join(format!("filterscope-bench-stream-{}", std::process::id()));
    let (paths, _) = write_day_files(&dir);

    let mut g = c.benchmark_group("stream_ingest");
    g.sample_size(10);
    g.throughput(Throughput::Elements(records.len() as u64));
    g.bench_function("framed_decode_parse_ingest", |b| {
        b.iter(|| {
            let mut cursor = std::io::Cursor::new(&wire[..]);
            let mut parser = LineParser::new();
            let delta = IMutex::new(Shard::new(AnalysisSuite::new(2)));
            let conn = ConnStats::new(0, "bench".to_string());
            let stats = ServerStats::new();
            while let Some(frame) = Frame::read_from(&mut cursor).expect("clean wire") {
                proto::ingest_batch::<PolicyEngine>(
                    &mut parser,
                    &frame.payload,
                    ctx,
                    &delta,
                    None,
                    &conn,
                    &stats,
                );
            }
            let shard = delta.into_inner();
            assert_eq!(shard.records, records.len() as u64);
            black_box(shard.suite.datasets().full)
        })
    });
    let ingest = ParallelIngest::new(1);
    g.bench_function("file_shards_one_thread", |b| {
        b.iter(|| {
            let (suite, stats) = ingest
                .ingest_selected(
                    &paths,
                    ctx,
                    &SuiteParams::new(2),
                    &Selection::default_suite(),
                )
                .expect("ingest corpus files");
            assert_eq!(stats.records, records.len() as u64);
            black_box(suite.datasets().full)
        })
    });
    g.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

fn main() {
    let mut harness = Harness::default().sample_size(20);
    bench_throughput(&mut harness);
}
