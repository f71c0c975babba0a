//! `analyze_full`: batch `filterscope analyze --threads 2` with the default
//! suite over a seeded corpus that stays in the page cache.
//!
//! Stresses `logformat` block read/parse, `analysis` ingest across every
//! accumulator and `ParallelIngest`; leaves `proxy`, `synth` and `stream`
//! idle. Each timed pass is one program run from spawn to exit, so a pass's
//! wall time is the freshness of a batch report: the time from a complete
//! input to a readable `summary.json`.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use filterscope_analysis::{
    AnalysisContext, AnalysisSuite, ParallelIngest, Selection, SuiteParams,
};
use filterscope_core::Json;
use filterscope_logformat::{scan_sections, BlockParser, BlockReader, DEFAULT_BLOCK_BYTES};

use crate::corpus::{self, ANALYZE_SCALE};
use crate::trace::Tracer;
use crate::{batch_run, proc, traced_pairs, Bench, Report, THREADS};

/// `min-support` of `analyze` (its default), used by the in-process twin.
const MIN_SUPPORT: u64 = 3;

/// Read `total_requests` from a `summary.json`.
pub fn total_requests(summary: &[u8]) -> Result<u64, String> {
    let text = std::str::from_utf8(summary).map_err(|_| "summary.json is not UTF-8")?;
    Json::parse(text)
        .map_err(|e| format!("summary.json does not parse: {e}"))?
        .get("total_requests")
        .and_then(Json::as_u64)
        .ok_or_else(|| "summary.json has no total_requests".to_string())
}

/// Write the seeded corpus and check it against its pin.
fn seeded_corpus(b: &Bench) -> Result<corpus::SeededCorpus, String> {
    let c = corpus::write_seeded(&b.path("corpus"), ANALYZE_SCALE, b.seed, THREADS)?;
    corpus::check_pin(&c, ANALYZE_SCALE, b.seed)?;
    Ok(c)
}

fn analyze_cmd(b: &Bench, files: &[PathBuf], json: &Path) -> Command {
    let mut cmd = b.program();
    cmd.arg("analyze")
        .args(files)
        .arg("--threads")
        .arg(THREADS.to_string())
        .arg("--json")
        .arg(json);
    cmd
}

pub fn run(b: &Bench) -> Result<Report, String> {
    let corpus = seeded_corpus(b)?;
    // Set-up cost: the same command on a header-only log.
    let empty = b.path("empty.log");
    let text = std::fs::read_to_string(&corpus.files[0]).map_err(|e| e.to_string())?;
    let header: String = text
        .lines()
        .take_while(|l| l.starts_with('#'))
        .map(|l| format!("{l}\n"))
        .collect();
    std::fs::write(&empty, header).map_err(|e| e.to_string())?;
    let (json, empty_json) = (b.path("summary.json"), b.path("empty.json"));
    let mut first: Option<Vec<u8>> = None;
    let pass = || -> Result<proc::Usage, String> {
        let usage = proc::run_measured(&mut analyze_cmd(b, &corpus.files, &json), "analyze")?;
        let summary = std::fs::read(&json).map_err(|e| format!("no summary.json: {e}"))?;
        let total = total_requests(&summary)?;
        if total != corpus.records {
            return Err(format!(
                "analyze counted {total} requests in a corpus of {} records ({} lines malformed)",
                corpus.records,
                corpus.records.abs_diff(total)
            ));
        }
        match &first {
            None => first = Some(summary),
            Some(f) if *f != summary => {
                return Err("summary.json differs between passes over the same corpus".to_string())
            }
            Some(_) => {}
        }
        Ok(usage)
    };
    let setup = || {
        proc::run_measured(
            &mut analyze_cmd(b, std::slice::from_ref(&empty), &empty_json),
            "analyze (empty)",
        )
    };
    let mut report = batch_run(b.seconds, corpus.records, pass, setup)?;
    report.note(format!(
        "corpus: scale {ANALYZE_SCALE}, variant {}, {} records, {} bytes in {} day files, hash {:#018x}",
        b.seed % corpus::VARIANTS,
        corpus.records,
        corpus.bytes,
        corpus.files.len(),
        corpus.hash
    ));
    Ok(report)
}

/// The in-process twin of one `analyze` pass, on one thread: plan each
/// file's schema sections, then read → parse → ingest block by block into
/// one suite per section, merge in plan order, render, and save. Then the
/// library's own `ParallelIngest` at 1 and 2 threads. Returns the report,
/// the spans and the wall time.
fn rep(files: &[PathBuf], records: u64, traced: bool) -> Result<(Report, Tracer, f64), String> {
    let ctx = AnalysisContext::standard(None);
    let params = SuiteParams::new(MIN_SUPPORT);
    let selection = Selection::default_suite();
    let mut t = Tracer::new(traced);
    let started = t.now();
    let (mut read_bytes, mut parsed, mut malformed, mut block_id) = (0u64, 0u64, 0u64, 0u64);
    let mut suites = Vec::new();
    for path in files {
        let sections = t
            .time("logformat.scan_s", block_id, || scan_sections(path))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        malformed += sections.malformed_headers;
        for (i, (start, schema)) in sections.sections.iter().enumerate() {
            let end = sections.cuts.get(i).copied().unwrap_or(sections.bytes);
            if *start >= end {
                continue;
            }
            let mut suite = AnalysisSuite::with_selection(&params, &selection);
            let mut parser = BlockParser::new();
            let mut reader = t
                .time("logformat.read_s", block_id, || {
                    BlockReader::open(path, *start, end, true, DEFAULT_BLOCK_BYTES)
                })
                .map_err(|e| e.to_string())?;
            let mut line_no = 0u64;
            loop {
                block_id += 1;
                let span = t.begin("logformat.read_s", block_id);
                let block = reader.next_block().map_err(|e| e.to_string())?;
                t.end(span);
                let Some(block) = block else { break };
                read_bytes += block.len() as u64;
                let span = t.begin("logformat.parse_s", block_id);
                let (views, bad) = parser.parse(block, schema, &mut line_no);
                t.end(span);
                parsed += views.len() as u64;
                malformed += bad;
                t.time("analysis.ingest_s", block_id, || {
                    suite.ingest_block(&ctx, &views)
                });
            }
            suites.push(suite);
        }
    }
    let suite = t.time("analysis.merge_s", 0, || {
        let mut it = suites.into_iter();
        let mut acc = it.next().expect("corpus has a section");
        for s in it {
            acc.merge(s);
        }
        acc
    });
    let summary = t.time("analysis.render_s", 0, || {
        std::hint::black_box(suite.render_all(&ctx));
        suite.summary_json(&ctx)
    });
    let state = t.time("analysis.save_s", 0, || suite.save_bytes());
    let mut pipeline = |threads: usize, name: &'static str| -> Result<(f64, String), String> {
        let span = t.begin(name, 0);
        let at = Instant::now();
        let (s, _) = ParallelIngest::new(threads)
            .ingest_selected(files, &ctx, &params, &selection)
            .map_err(|e| e.to_string())?;
        let secs = at.elapsed().as_secs_f64();
        t.end(span);
        Ok((secs, s.summary_json(&ctx)))
    };
    let (t1, summary_t1) = pipeline(1, "analysis.pipeline_s_t1")?;
    let (t2, summary_t2) = pipeline(THREADS, "analysis.pipeline_s_t2")?;
    let wall = t.now() - started;
    if parsed != records || malformed != 0 {
        return Err(format!("in-process parse saw {parsed} records and {malformed} malformed lines, corpus has {records}"));
    }
    if summary != summary_t1 || summary != summary_t2 {
        return Err("in-process summary differs from ParallelIngest's".to_string());
    }
    let mut report = Report {
        attempted: parsed,
        ..Report::default()
    };
    report.set("logformat.read_bytes", read_bytes as f64);
    report.set("logformat.parse_records", parsed as f64);
    report.set("analysis.ingest_records", parsed as f64);
    report.set("analysis.state_bytes", state.len() as f64);
    report.set("analysis.parallel_efficiency", t1 / (THREADS as f64 * t2));
    Ok((report, t, wall))
}

pub fn trace(b: &Bench) -> Result<Report, String> {
    let corpus = seeded_corpus(b)?;
    let (mut report, tracer) = traced_pairs(b.seconds, |traced| {
        rep(&corpus.files, corpus.records, traced)
    })?;
    let path = b.keep("analyze_full.spans.jsonl", |p| tracer.write_jsonl(p))?;
    report.note(format!(
        "{} spans written to {}",
        tracer.spans().len(),
        path.display()
    ));
    Ok(report)
}
