//! End-to-end time travel over a snapshot log: crash recovery
//! reconstructs the pre-crash suite, `diff` surfaces an injected
//! category shift, `series` decomposes per-window increments, and
//! compaction preserves the fold while failing closed on queries into
//! the compacted-away past.

use filterscope_analysis::datasets::in_sample;
use filterscope_analysis::registry::{Selection, SuiteParams};
use filterscope_analysis::{AnalysisContext, AnalysisSuite};
use filterscope_core::{ProxyId, Timestamp};
use filterscope_logformat::record::RecordBuilder;
use filterscope_logformat::{LogRecord, RequestUrl};
use filterscope_snapstore::{
    decode_value, diff, encode_value, metric, read_frames, series, suite_at, FrameKind, SnapLog,
    SUITE_KEY,
};
use std::path::PathBuf;

fn log_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fs-timetravel-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("snap.log")
}

fn epoch(date: &str, time: &str) -> u64 {
    Timestamp::parse_fields(date, time).unwrap().epoch_seconds() as u64
}

fn rec(date: &str, time: &str, host: &str, censored: bool) -> LogRecord {
    rec_path(date, time, host, "/", censored)
}

fn rec_path(date: &str, time: &str, host: &str, path: &str, censored: bool) -> LogRecord {
    let b = RecordBuilder::new(
        Timestamp::parse_fields(date, time).unwrap(),
        ProxyId::Sg42,
        RequestUrl::http(host, path),
    );
    if censored {
        b.policy_denied().build()
    } else {
        b.build()
    }
}

/// Censored requests that land in the deterministic 4 % sample — what
/// the categories/domains analyses actually count.
fn sampled_censored(records: &[LogRecord], host: &str) -> u64 {
    records
        .iter()
        .filter(|r| {
            let v = r.as_view();
            v.url.host == host
                && filterscope_logformat::RequestClass::of_view(&v)
                    == filterscope_logformat::RequestClass::Censored
                && in_sample(&v)
        })
        .count() as u64
}

fn selection() -> Selection {
    Selection::only(&["datasets", "domains", "categories", "https"]).unwrap()
}

/// Ingest each cycle's records into both a live delta suite and a
/// straight-through reference, appending one delta frame per cycle.
fn write_cycles(log: &mut SnapLog, cycles: &[Vec<LogRecord>]) -> AnalysisSuite {
    let ctx = AnalysisContext::standard(None);
    let mut live = AnalysisSuite::with_selection(&SuiteParams::new(1), &selection());
    let mut straight = live.fresh_like();
    for cycle in cycles {
        live.ingest_records(&ctx, cycle);
        straight.ingest_records(&ctx, cycle);
        let max_ts = cycle
            .iter()
            .map(|record| record.timestamp.epoch_seconds() as u64)
            .max()
            .unwrap_or(0);
        let delta = live.take_delta();
        log.append(
            FrameKind::Delta,
            max_ts,
            SUITE_KEY,
            encode_value(cycle.len() as u64, 0, &delta),
        )
        .unwrap();
    }
    straight
}

#[test]
fn torn_tail_recovery_preserves_pre_crash_state() {
    let path = log_path("crash");
    let mut log = SnapLog::open(&path, 0).unwrap();
    let cycles: Vec<Vec<LogRecord>> = (0..3)
        .map(|c| {
            (0..40)
                .map(|i| {
                    let day = format!("2011-08-0{}", c + 1);
                    rec(&day, "09:00:00", &format!("host{}.com", i % 9), i % 4 == 0)
                })
                .collect()
        })
        .collect();
    let straight = write_cycles(&mut log, &cycles);
    drop(log);

    // Crash mid-append: garbage after the last durable frame.
    let mut data = std::fs::read(&path).unwrap();
    data.extend_from_slice(&[0x5A; 61]);
    std::fs::write(&path, &data).unwrap();

    let log = SnapLog::open(&path, 0).unwrap();
    assert_eq!(log.recovery().truncated_bytes, 61);
    assert_eq!(log.frames(), 3, "every durable frame survives");
    drop(log);

    let (frames, report) = read_frames(&path).unwrap();
    assert_eq!(
        report.truncated_bytes, 0,
        "recovery already cleaned the log"
    );
    let end = epoch("2011-08-03", "09:00:00");
    let view = suite_at(&frames, end).unwrap().expect("state exists");
    assert_eq!(view.records, 120);
    assert_eq!(
        view.suite.save_bytes(),
        straight.save_bytes(),
        "reconstruction is byte-identical to the pre-crash suite"
    );

    // A tear *inside* the last frame loses that frame and nothing else.
    let mut data = std::fs::read(&path).unwrap();
    let cut = data.len() - 20;
    data.truncate(cut);
    std::fs::write(&path, &data).unwrap();
    let (frames, _) = read_frames(&path).unwrap();
    assert_eq!(frames.len(), 2, "at most the last un-CRC'd frame is lost");
    let view = suite_at(&frames, end).unwrap().expect("state exists");
    assert_eq!(view.records, 80);
    std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
}

#[test]
fn diff_reports_injected_category_shift() {
    let path = log_path("diff");
    let mut log = SnapLog::open(&path, 0).unwrap();
    // Friday Jul 29: social censorship only.
    let day1: Vec<LogRecord> = (0..400)
        .map(|i| {
            rec_path(
                "2011-07-29",
                &format!("12:{:02}:{:02}", i / 60, i % 60),
                "badoo.com",
                &format!("/p{i}"),
                i % 2 == 0,
            )
        })
        .collect();
    // Friday Aug 5: social continues, news censorship appears.
    let day2: Vec<LogRecord> = (0..400)
        .map(|i| {
            let host = if i % 2 == 0 {
                "aljazeera.net"
            } else {
                "badoo.com"
            };
            rec_path(
                "2011-08-05",
                &format!("12:{:02}:{:02}", i / 60, i % 60),
                host,
                &format!("/p{i}"),
                true,
            )
        })
        .collect();
    let news_injected = sampled_censored(&day2, "aljazeera.net");
    let social_day1 = sampled_censored(&day1, "badoo.com");
    let social_day2 = sampled_censored(&day2, "badoo.com");
    assert!(news_injected > 0, "sample must catch the injected shift");
    write_cycles(&mut log, &[day1, day2]);
    drop(log);

    let (frames, _) = read_frames(&path).unwrap();
    let d = diff(
        &frames,
        epoch("2011-07-29", "23:59:59"),
        epoch("2011-08-05", "23:59:59"),
    )
    .unwrap();
    assert_eq!(d.records, (400, 800));
    assert_eq!(
        d.censored,
        (social_day1, social_day1 + social_day2 + news_injected)
    );
    let news = d
        .categories
        .iter()
        .find(|row| row.name == "General News")
        .expect("injected category shift is reported");
    assert_eq!((news.from, news.to), (0, news_injected));
    // Domains (Table 4) count the full dataset, not the 4 % sample.
    let alj = d
        .domains
        .iter()
        .find(|row| row.name == "aljazeera.net")
        .expect("new censored domain is reported");
    assert_eq!((alj.from, alj.to), (0, 200));
    std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
}

#[test]
fn series_decomposes_per_window_increments() {
    let path = log_path("series");
    let mut log = SnapLog::open(&path, 0).unwrap();
    // Three hourly cycles of censored traffic with growing volume.
    let cycles: Vec<Vec<LogRecord>> = [100u32, 200, 400]
        .iter()
        .enumerate()
        .map(|(hour, n)| {
            (0..*n)
                .map(|i| {
                    rec_path(
                        "2011-08-01",
                        &format!("{:02}:{:02}:{:02}", 9 + hour, i / 60 % 60, i % 60),
                        "badoo.com",
                        &format!("/h{hour}/p{i}"),
                        true,
                    )
                })
                .collect()
        })
        .collect();
    let expected: Vec<u64> = cycles
        .iter()
        .map(|c| sampled_censored(c, "badoo.com"))
        .collect();
    assert!(expected.iter().all(|n| *n > 0), "each window must sample");
    write_cycles(&mut log, &cycles);
    drop(log);

    let (frames, _) = read_frames(&path).unwrap();
    let points = series(&frames, "categories", 3600).unwrap();
    assert_eq!(points.len(), 3);
    assert_eq!(points.iter().map(|p| p.value).collect::<Vec<_>>(), expected);
    assert_eq!(points[2].cumulative, expected.iter().sum::<u64>());
    assert_eq!(points[0].t1 - points[0].t0, 3600);
    std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
}

#[test]
fn compaction_preserves_fold_and_fails_closed_on_lost_past() {
    let ctx = AnalysisContext::standard(None);
    let path = log_path("compact");
    let mut log = SnapLog::open(&path, 0).unwrap();
    let cycles: Vec<Vec<LogRecord>> = (0..3)
        .map(|c| {
            (0..25)
                .map(|i| {
                    rec(
                        &format!("2011-08-0{}", c + 1),
                        "10:00:00",
                        &format!("h{i}.com"),
                        i % 3 == 0,
                    )
                })
                .collect()
        })
        .collect();
    let straight = write_cycles(&mut log, &cycles);

    // Compact: the checkpoint carries the cumulative fold so far.
    let (frames, _) = read_frames(&path).unwrap();
    let end2 = epoch("2011-08-02", "10:00:00");
    let end3 = epoch("2011-08-03", "10:00:00");
    let cumulative = suite_at(&frames, end3).unwrap().unwrap();
    log.compact(
        end3,
        SUITE_KEY,
        encode_value(cumulative.records, 0, &cumulative.suite),
    )
    .unwrap();

    // Deltas continue after the checkpoint.
    let day4: Vec<LogRecord> = (0..10)
        .map(|_| rec("2011-08-04", "10:00:00", "badoo.com", true))
        .collect();
    let mut live = AnalysisSuite::with_selection(&SuiteParams::new(1), &selection());
    let mut full = straight;
    live.ingest_records(&ctx, &day4);
    full.ingest_records(&ctx, &day4);
    let end4 = epoch("2011-08-04", "10:00:00");
    log.append(
        FrameKind::Delta,
        end4,
        SUITE_KEY,
        encode_value(day4.len() as u64, 0, &live.take_delta()),
    )
    .unwrap();
    drop(log);

    let (frames, _) = read_frames(&path).unwrap();
    assert_eq!(frames.len(), 2);
    assert_eq!(frames[0].kind, FrameKind::Checkpoint);
    let records = decode_value(&frames[0].value).unwrap().records;
    assert_eq!(records, 75, "checkpoint counters are cumulative");

    let view = suite_at(&frames, end4).unwrap().unwrap();
    assert_eq!(view.records, 85);
    assert_eq!(
        view.suite.save_bytes(),
        full.save_bytes(),
        "checkpoint + delta fold equals straight-through ingest"
    );

    // The pre-compaction past is gone; queries into it fail closed.
    assert!(suite_at(&frames, end2).is_err());
    std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
}

#[test]
fn domains_headline_is_the_sum_over_censored_domains() {
    // `series` over `domains` reads the headline (the censored map's
    // total); it must equal the sum over every censored domain's count,
    // which is what the query summed before, on a merged, saved and
    // reloaded suite alike.
    let ctx = AnalysisContext::standard(None);
    let mut merged = AnalysisSuite::with_selection(&SuiteParams::new(1), &selection());
    let mut shard = merged.fresh_like();
    let hosts = ["badoo.com", "metacafe.com", "skype.com", "ok.example"];
    let day = |date: &str| -> Vec<LogRecord> {
        (0..200)
            .map(|i| {
                rec_path(
                    date,
                    "10:00:00",
                    hosts[i % 4],
                    &format!("/p{i}"),
                    i % 3 != 0,
                )
            })
            .collect()
    };
    merged.ingest_records(&ctx, day("2011-08-01"));
    shard.ingest_records(&ctx, day("2011-08-02"));
    merged.merge(shard);
    let loaded = AnalysisSuite::load_bytes(&merged.save_bytes()).unwrap();
    for suite in [&merged, &loaded] {
        let summed: u64 = suite
            .domains()
            .top_censored(usize::MAX)
            .iter()
            .map(|(_, n)| n)
            .sum();
        assert_eq!(summed, 266);
        assert_eq!(metric(suite, "domains").unwrap(), summed);
    }
}
