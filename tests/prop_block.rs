//! Property tests for the block-oriented record path: block-split parsing
//! must be equivalent to line-at-a-time `parse_view` at arbitrary block
//! sizes over arbitrary (including malformed) input; suite ingest must not
//! depend on how records are cut into blocks, for every registry key; and
//! every analysis must read only the derived columns it declares.

use filterscope::analysis::registry::REGISTRY;
use filterscope::core::Timestamp;
use filterscope::logformat::{BlockParser, BlockReader, LineSplitter, Schema};
use filterscope::prelude::*;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// A pool of genuine farm-produced CSV lines to mix into generated files.
fn valid_lines() -> &'static Vec<String> {
    static LINES: OnceLock<Vec<String>> = OnceLock::new();
    LINES.get_or_init(|| {
        let farm = ProxyFarm::standard();
        let hosts = [
            "example.com",
            "metacafe.com",
            "www.facebook.com",
            "1.2.3.4",
            "ok.example",
        ];
        hosts
            .iter()
            .enumerate()
            .map(|(i, host)| {
                let ts = Timestamp::parse_fields("2011-08-03", &format!("09:00:{i:02}"))
                    .expect("static literal");
                farm.process(&Request::get(ts, RequestUrl::http(*host, "/some/path")))
                    .write_csv()
            })
            .collect()
    })
}

/// One line of a generated log file: real records, printable junk,
/// comments, blanks, quote-heavy fragments, and CRLF endings.
fn arb_line() -> impl Strategy<Value = String> {
    prop_oneof![
        (0usize..valid_lines().len()).prop_map(|i| valid_lines()[i].clone()),
        (0usize..valid_lines().len()).prop_map(|i| format!("{}\r", valid_lines()[i])),
        "[ -~]{0,60}",
        "#[ -~]{0,30}",
        Just(String::new()),
        "\"[a-z,\" ]{0,20}",
    ]
}

static NEXT_FILE: AtomicU64 = AtomicU64::new(0);

fn tmp_file(text: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "filterscope-prop-block-{}-{}.log",
        std::process::id(),
        NEXT_FILE.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&path, text).expect("write temp log");
    path
}

/// The line-at-a-time reference: exactly the semantics the block path
/// replaced — count every physical line, strip trailing CRs, skip blanks
/// and `#` comments, `parse_view` the rest.
fn reference_parse(text: &str) -> (Vec<LogRecord>, u64, u64) {
    let schema = Schema::canonical();
    let mut splitter = LineSplitter::new();
    let mut records = Vec::new();
    let mut malformed = 0u64;
    let mut line_no = 0u64;
    for raw in text.split_inclusive('\n') {
        line_no += 1;
        let line = raw.strip_suffix('\n').unwrap_or(raw);
        let line = line.trim_end_matches('\r');
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        match schema.parse_view(&mut splitter, line, line_no) {
            Ok(v) => records.push(v.to_record()),
            Err(_) => malformed += 1,
        }
    }
    (records, malformed, line_no)
}

proptest! {
    /// Reading a file through `BlockReader` + `BlockParser` at any block
    /// size yields record-for-record, count-for-count the same result as
    /// the line-at-a-time path.
    #[test]
    fn block_parse_equals_line_at_a_time(
        lines in proptest::collection::vec(arb_line(), 0..40),
        block_bytes in 64usize..700,
        trailing_newline in any::<bool>(),
    ) {
        let mut text = lines.join("\n");
        if trailing_newline && !text.is_empty() {
            text.push('\n');
        }
        let (want, want_malformed, want_lines) = reference_parse(&text);

        let path = tmp_file(&text);
        let schema = Schema::canonical();
        let mut reader =
            BlockReader::open(&path, 0, text.len() as u64, true, block_bytes).expect("open");
        let mut parser = BlockParser::new();
        let mut line_no = 0u64;
        let mut got = Vec::new();
        let mut got_malformed = 0u64;
        while let Some(block) = reader.next_block().expect("read") {
            let (views, malformed) = parser.parse(block, &schema, &mut line_no);
            got.extend(views.iter().map(|v| v.to_record()));
            got_malformed += malformed;
        }
        let _ = std::fs::remove_file(&path);

        prop_assert_eq!(got, want);
        prop_assert_eq!(got_malformed, want_malformed);
        prop_assert_eq!(line_no, want_lines);
    }

    /// Suite ingest is observationally identical however the records are
    /// cut into blocks, for every registry key alone and for all of them
    /// together: one block, blocks split at arbitrary points, and size-1
    /// blocks give the same rendered reports and JSON summary.
    #[test]
    fn ingest_block_equals_per_record(
        reqs in proptest::collection::vec(prop_block_request(), 1..30),
        cuts in proptest::collection::vec(0usize..30, 0..5),
    ) {
        let farm = ProxyFarm::standard();
        let records: Vec<LogRecord> = reqs.iter().map(|r| farm.process(r)).collect();
        let views: Vec<_> = records.iter().map(|r| r.as_view()).collect();
        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(views.len())).collect();
        cuts.push(0);
        cuts.push(views.len());
        cuts.sort_unstable();
        let ctx = AnalysisContext::standard(None);
        let params = SuiteParams::new(1);
        let mut selections = vec![Selection::everything()];
        selections.extend(REGISTRY.iter().map(|e| Selection::pinned(e.key)));
        for selection in &selections {
            let mut whole = AnalysisSuite::with_selection(&params, selection);
            whole.ingest_block(&ctx, &views);
            let mut split = AnalysisSuite::with_selection(&params, selection);
            for pair in cuts.windows(2) {
                split.ingest_block(&ctx, &views[pair[0]..pair[1]]);
            }
            let mut single = AnalysisSuite::with_selection(&params, selection);
            for v in views.chunks(1) {
                single.ingest_block(&ctx, v);
            }
            let want = (whole.render_all(&ctx), whole.summary_json(&ctx));
            for (how, suite) in [("split", &split), ("size-1", &single)] {
                prop_assert_eq!(
                    (suite.render_all(&ctx), suite.summary_json(&ctx)),
                    want.clone(),
                    "{} blocks, selection {:?}", how, selection.keys()
                );
            }
        }
    }

    /// Every analysis selected alone renders and exports exactly what it
    /// does inside the full selection. A registry entry that reads a
    /// derived column it does not declare fails here: alone, the column is
    /// not computed.
    #[test]
    fn each_analysis_alone_matches_its_section_of_everything(
        reqs in proptest::collection::vec(prop_block_request(), 1..30),
    ) {
        let farm = ProxyFarm::standard();
        let records: Vec<LogRecord> = reqs.iter().map(|r| farm.process(r)).collect();
        let views: Vec<_> = records.iter().map(|r| r.as_view()).collect();
        let ctx = AnalysisContext::standard(None);
        let params = SuiteParams::new(1);
        let mut everything = AnalysisSuite::with_selection(&params, &Selection::everything());
        everything.ingest_block(&ctx, &views);
        for (entry, (full_entry, full)) in REGISTRY.iter().zip(everything.analyses()) {
            let selection = Selection::only(&[entry.key]).expect("registry key");
            let mut alone = AnalysisSuite::with_selection(&params, &selection);
            alone.ingest_block(&ctx, &views);
            let (alone_entry, alone) = alone.analyses().next().expect("one analysis");
            prop_assert_eq!(alone_entry.key, full_entry.key);
            prop_assert_eq!(alone.render(&ctx), full.render(&ctx), "analysis {}", entry.key);
            prop_assert_eq!(
                alone.export_json(&ctx),
                full.export_json(&ctx),
                "analysis {}", entry.key
            );
        }
    }
}

/// Requests spanning allowed, keyword-, domain-, and redirect-censored
/// outcomes across the study days (so every accumulator sees traffic).
fn prop_block_request() -> impl Strategy<Value = Request> {
    (
        "[a-z0-9.-]{1,20}",
        "(/[a-zA-Z0-9._-]{0,8}){0,2}",
        0u8..24,
        0u32..60,
        1u8..=6,
        0u8..4,
    )
        .prop_map(|(host, path, hour, minute, day, special)| {
            let host = match special {
                0 => "metacafe.com".to_string(),
                1 => "upload.youtube.com".to_string(),
                2 => format!("proxy-{host}"),
                _ => host,
            };
            let ts = Timestamp::parse_fields(
                &format!("2011-08-0{day}"),
                &format!("{hour:02}:{minute:02}:00"),
            )
            .expect("valid");
            let path = if path.is_empty() {
                "/".to_string()
            } else {
                path
            };
            Request::get(ts, RequestUrl::http(host, path))
        })
}
