//! Integration: a simulated day's log survives a full write→parse→analyze
//! round trip, including through corrupted files.

use filterscope::logformat::{BlockParser, LogWriter, RequestClass, Schema};
use filterscope::prelude::*;

fn one_day_records() -> Vec<LogRecord> {
    let corpus = Corpus::new(SynthConfig::new(262_144).expect("valid scale"));
    let day = corpus.config().period.days()[5]; // August 3, all proxies
    corpus.day_records(day)
}

/// Parse a whole log text through the block parser: owned records plus the
/// malformed-line count.
fn reread(text: &str) -> (Vec<LogRecord>, u64) {
    let mut parser = BlockParser::new();
    let (views, malformed) = parser.parse(text.as_bytes(), &Schema::canonical(), &mut 0);
    (views.iter().map(|v| v.to_record()).collect(), malformed)
}

#[test]
fn simulated_day_roundtrips_through_disk_format() {
    let records = one_day_records();
    assert!(records.len() > 300, "corpus too small: {}", records.len());

    let mut writer = LogWriter::new(Vec::new());
    for r in &records {
        writer.write_record(r).expect("write");
    }
    let bytes = writer.into_inner().expect("flush");
    let text = String::from_utf8(bytes).expect("log is valid UTF-8");
    assert!(text.starts_with("#Software"));

    let (back, malformed) = reread(&text);
    assert_eq!(malformed, 0);
    assert_eq!(back, records, "round trip must be lossless");
}

#[test]
fn classification_is_preserved_across_roundtrip() {
    let records = one_day_records();
    let mut writer = LogWriter::new(Vec::new());
    for r in &records {
        writer.write_record(r).expect("write");
    }
    let text = String::from_utf8(writer.into_inner().expect("flush")).unwrap();
    let (back, _) = reread(&text);
    for (a, b) in records.iter().zip(&back) {
        assert_eq!(RequestClass::of(a), RequestClass::of(b));
        assert_eq!(a.proxy(), b.proxy());
    }
}

#[test]
fn corrupted_log_degrades_per_record() {
    let records = one_day_records();
    let mut writer = LogWriter::new(Vec::new());
    for r in &records {
        writer.write_record(r).expect("write");
    }
    let text = String::from_utf8(writer.into_inner().expect("flush")).unwrap();

    // Corrupt every 10th data line by truncating it.
    let mut corrupted = String::with_capacity(text.len());
    let mut data_line = 0usize;
    for line in text.lines() {
        if !line.starts_with('#') {
            data_line += 1;
            if data_line.is_multiple_of(10) {
                corrupted.push_str(&line[..line.len() / 3]);
                corrupted.push('\n');
                continue;
            }
        }
        corrupted.push_str(line);
        corrupted.push('\n');
    }

    let (back, malformed) = reread(&corrupted);
    assert!(malformed > 0, "some lines must be corrupted");
    // Intact records parse; each corrupted line costs at most one record.
    assert!(back.len() + malformed as usize >= records.len());
    assert!(back.len() < records.len());
}

#[test]
fn analysis_of_reread_log_matches_direct_analysis() {
    let records = one_day_records();
    let ctx = AnalysisContext::standard(None);

    let mut direct = AnalysisSuite::new(2);
    direct.ingest_records(&ctx, &records);

    let mut writer = LogWriter::new(Vec::new());
    for r in &records {
        writer.write_record(r).expect("write");
    }
    let text = String::from_utf8(writer.into_inner().expect("flush")).unwrap();
    let mut parser = BlockParser::new();
    let (views, malformed) = parser.parse(text.as_bytes(), &Schema::canonical(), &mut 0);
    assert_eq!(malformed, 0, "clean log");
    let mut reread = AnalysisSuite::new(2);
    reread.ingest_block(&ctx, &views);

    assert_eq!(direct.datasets().full, reread.datasets().full);
    assert_eq!(
        direct.overview().censored_full(),
        reread.overview().censored_full()
    );
    assert_eq!(
        direct.domains().top_censored(10),
        reread.domains().top_censored(10)
    );
}
