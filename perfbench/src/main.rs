//! `perfbench`: the filterscope benchmark.
//!
//! ```text
//! perfbench --program PATH --workload analyze_full|generate_farm|serve_paced
//!           --seed N --seconds S --trace 0|1
//! perfbench --print-pins
//! ```
//!
//! With `--trace 0` the workload runs against the release `filterscope`
//! binary as a separate process and the last stdout line reports every
//! end-to-end metric; with `--trace 1` the benchmark instead calls each
//! layer's public functions itself under in-memory spans and reports the
//! per-layer metrics. Every run checks the program's outputs and exits
//! non-zero when a check fails. `perfbench/run.sh` builds both binaries
//! and runs this one from the repository root; `perfbench/README.md`
//! describes the workloads and metrics.

mod analyze;
mod corpus;
mod generate;
mod proc;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// End-to-end metrics and their units, reported by every `--trace 0` run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("records_per_s", "rec/s"),
    ("cpu_s_per_mrec", "s/Mrec"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("freshness_p50_ms", "ms"),
    ("freshness_tail_ms", "ms"),
];

/// Per-layer metrics and their units, reported by every `--trace 1` run;
/// a layer a workload leaves idle reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("logformat.scan_s", "s"),
    ("logformat.read_s", "s"),
    ("logformat.read_bytes", "bytes"),
    ("logformat.parse_s", "s"),
    ("logformat.parse_records", "count"),
    ("analysis.ingest_s", "s"),
    ("analysis.ingest_records", "count"),
    ("analysis.merge_s", "s"),
    ("analysis.render_s", "s"),
    ("analysis.save_s", "s"),
    ("analysis.state_bytes", "bytes"),
    ("analysis.pipeline_s_t1", "s"),
    ("analysis.pipeline_s_t2", "s"),
    ("analysis.parallel_efficiency", "ratio"),
    ("synth.day_setup_s", "s"),
    ("synth.requests_s", "s"),
    ("synth.requests", "count"),
    ("proxy.process_s", "s"),
    ("proxy.denied", "count"),
    ("proxy.redirected", "count"),
    ("logformat.write_s", "s"),
    ("logformat.write_bytes", "bytes"),
    ("proxy.decide_url_s", "s"),
    ("logformat.frame_decode_s", "s"),
    ("stream.ingest_batch_s", "s"),
    ("stream.fold_s", "s"),
    ("snapstore.append_s", "s"),
    ("stream.publish_s", "s"),
    ("snapstore.compact_s", "s"),
    ("snapstore.compactions", "count"),
    ("snapstore.resume_s", "s"),
    ("stream.frames", "count"),
    ("stream.bytes", "bytes"),
    ("stream.queue_depth_max", "count"),
    ("stream.snapshots", "count"),
    ("stream.snapshot_errors", "count"),
    ("stream.dropped_connections", "count"),
    ("snapstore.log_bytes", "bytes"),
    ("snapstore.frames", "count"),
    ("bench.url_parse_s", "s"),
    ("bench.traced_wall_s", "s"),
    ("bench.untraced_remainder_s", "s"),
    ("bench.trace_overhead", "ratio"),
    ("bench.gen_late_p99_ms", "ms"),
    ("bench.freshness_samples", "count"),
    ("bench.host_calib_ms", "ms"),
];

pub const WORKLOADS: &[&str] = &["analyze_full", "generate_farm", "serve_paced"];

/// Worker threads the program is given, and the most load threads the
/// benchmark itself runs.
pub const THREADS: usize = 2;

/// What a workload run needs.
pub struct Bench {
    pub program: PathBuf,
    /// Scratch directory inside the checkout, emptied at start.
    pub work: PathBuf,
    pub seed: u64,
    pub seconds: f64,
}

impl Bench {
    /// A quiet command for the program under test.
    pub fn program(&self) -> Command {
        let mut cmd = Command::new(&self.program);
        cmd.stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        cmd
    }

    /// A path inside the work directory.
    pub fn path(&self, name: &str) -> PathBuf {
        self.work.join(name)
    }

    /// Write `name` into the directory a run leaves behind (spans and
    /// freshness samples); everything else in the work directory is
    /// removed when the run ends.
    pub fn keep(
        &self,
        name: &str,
        write: impl FnOnce(&Path) -> std::io::Result<()>,
    ) -> Result<PathBuf, String> {
        let dir = self.path(KEEP_DIR);
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let path = dir.join(name);
        write(&path).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        Ok(path)
    }
}

/// Subdirectory of the work directory that outlives the run.
const KEEP_DIR: &str = "trace";

/// A workload's result: counts for the JSON line, metric values by name,
/// and human-readable notes printed above it.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    pub notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Record the self times of a traced repetition, with the traced wall
    /// time and the part of it no span covers.
    pub fn set_trace(&mut self, tracer: &trace::Tracer, wall_s: f64) {
        for (name, secs) in trace::self_times(tracer.spans()) {
            assert!(
                PER_LAYER.iter().any(|(m, _)| *m == name),
                "span {name} is not a per-layer metric"
            );
            self.set(name, secs);
        }
        let remainder = wall_s - trace::covered(tracer.spans());
        self.set("bench.traced_wall_s", wall_s);
        self.set("bench.untraced_remainder_s", remainder);
    }
}

/// Timed passes a batch run needs at least, so the tail has ten passes
/// beyond it and sits above the median.
const MIN_PASSES: usize = 21;

/// Time a batch workload: `pass` (one program run over the workload's
/// `records` records, outputs checked) repeats for `seconds` and at least
/// [`MIN_PASSES`] times after one untimed warm-up; `setup` (the same
/// command with no work) runs after every pass, so both see the same host
/// conditions. Fills the six end-to-end metrics from the medians.
pub fn batch_run(
    seconds: f64,
    records: u64,
    mut pass: impl FnMut() -> Result<proc::Usage, String>,
    mut setup: impl FnMut() -> Result<proc::Usage, String>,
) -> Result<Report, String> {
    pass()?;
    let started = Instant::now();
    let (mut passes, mut setups) = (Vec::new(), Vec::new());
    while passes.len() < MIN_PASSES || started.elapsed().as_secs_f64() < seconds {
        passes.push(pass()?);
        setups.push(setup()?.wall_s);
    }
    let walls: Vec<f64> = passes.iter().map(|u| u.wall_s).collect();
    let cpu: Vec<f64> = passes.iter().map(|u| u.cpu_s).collect();
    let rss: Vec<f64> = passes.iter().map(|u| u.maxrss_kb as f64 / 1024.0).collect();
    let wall = stats::median(&walls);
    let (tail_s, tail_pct) = stats::tail(&walls).expect("MIN_PASSES supports a tail");
    let mut report = Report {
        attempted: passes.len() as u64 * records,
        ..Report::default()
    };
    report.set("records_per_s", records as f64 / wall);
    report.set("cpu_s_per_mrec", stats::median(&cpu) / records as f64 * 1e6);
    report.set("peak_rss_mb", stats::median(&rss));
    report.set("setup_s", stats::median(&setups));
    report.set("freshness_p50_ms", wall * 1e3);
    report.set("freshness_tail_ms", tail_s * 1e3);
    report.note(format!(
        "{} timed passes of {records} records, {} set-up samples; freshness tail is p{tail_pct:.1}",
        passes.len(),
        setups.len()
    ));
    Ok(report)
}

/// Run `rep(traced)` in alternating untraced/traced pairs (at least one,
/// more while `seconds` last, at most five) and keep the traced
/// repetition with the median wall time. Returns that repetition's report
/// plus `bench.trace_overhead` (median traced wall over median untraced
/// wall, minus 1).
pub fn traced_pairs(
    seconds: f64,
    mut rep: impl FnMut(bool) -> Result<(Report, trace::Tracer, f64), String>,
) -> Result<(Report, trace::Tracer), String> {
    let started = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    while traced.is_empty() || (started.elapsed().as_secs_f64() < seconds && traced.len() < 5) {
        plain.push(rep(false)?.2);
        traced.push(rep(true)?);
    }
    let walls: Vec<f64> = traced.iter().map(|t| t.2).collect();
    let untraced = stats::median(&plain);
    traced.sort_by(|a, b| a.2.total_cmp(&b.2));
    let (mut report, tracer, wall) = traced.swap_remove(traced.len() / 2);
    report.set_trace(&tracer, wall);
    report.set(
        "bench.trace_overhead",
        stats::median(&walls) / untraced - 1.0,
    );
    report.note(format!(
        "trace: {} traced / {} untraced repetitions, median walls {:.4} s / {untraced:.4} s",
        walls.len(),
        plain.len(),
        stats::median(&walls)
    ));
    Ok((report, tracer))
}

/// Time a fixed CPU-bound loop; reported so host drift can be told apart
/// from a regression, never used to normalise anything.
fn host_calib_ms() -> f64 {
    let started = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..20_000_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    started.elapsed().as_secs_f64() * 1e3
}

struct Args {
    program: PathBuf,
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut program = None;
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--program" => program = Some(PathBuf::from(value()?)),
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        program: program.ok_or("--program is required")?,
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn json_line(correct: bool, report: &Report, names: &[(&str, &str)]) -> String {
    let metrics: Vec<String> = names
        .iter()
        .filter_map(|(name, unit)| {
            report
                .metrics
                .get(name)
                .filter(|v| v.is_finite())
                .map(|v| format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"))
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("--print-pins") {
        return match print_pins() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let bench = Bench {
        program: args.program,
        work: PathBuf::from(".bench_work"),
        seed: args.seed,
        seconds: args.seconds as f64,
    };
    let _ = std::fs::remove_dir_all(&bench.work);
    if let Err(e) = std::fs::create_dir_all(&bench.work) {
        eprintln!("perfbench: cannot create {}: {e}", bench.work.display());
        return ExitCode::FAILURE;
    }
    let calib_start = host_calib_ms();
    let result = match (args.workload.as_str(), args.trace) {
        ("analyze_full", false) => analyze::run(&bench),
        ("analyze_full", true) => analyze::trace(&bench),
        ("generate_farm", false) => generate::run(&bench),
        ("generate_farm", true) => generate::trace(&bench),
        ("serve_paced", false) => serve::run(&bench),
        (_, _) => serve::trace(&bench),
    };
    let calib_end = host_calib_ms();
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    let (correct, mut report) = match result {
        Ok(report) => (true, report),
        Err(e) => {
            eprintln!("perfbench: {} failed a check: {e}", args.workload);
            (false, Report::default())
        }
    };
    report.note(format!(
        "failed share {} ({} of {} attempted)",
        stats::failed_share(report.failed, report.attempted),
        report.failed,
        report.attempted
    ));
    report.note(format!(
        "host calibration loop: {calib_start:.2} ms at start, {calib_end:.2} ms at end"
    ));
    if args.trace {
        report.set("bench.host_calib_ms", (calib_start + calib_end) / 2.0);
        for (name, _) in PER_LAYER {
            report.metrics.entry(name).or_insert(0.0);
        }
    }
    // Keep the trace outputs; drop the corpora and program outputs.
    if let Ok(entries) = std::fs::read_dir(&bench.work) {
        for entry in entries.flatten() {
            if entry.file_name() != KEEP_DIR {
                let p = entry.path();
                let _ = std::fs::remove_dir_all(&p).or_else(|_| std::fs::remove_file(&p));
            }
        }
    }
    println!(
        "workload {} seed {} ({})",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "untraced" }
    );
    for line in &report.notes {
        println!("  {line}");
    }
    for (name, unit) in names {
        if let Some(v) = report.metrics.get(name) {
            println!("  {name:<32} {v:>16.6} {unit}");
        }
    }
    let complete = names
        .iter()
        .all(|(n, _)| report.metrics.get(n).is_some_and(|v| v.is_finite()));
    let correct = correct && complete && report.failed == 0 && report.attempted > 0;
    println!("{}", json_line(correct, &report, names));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Print the pin table of every seeded corpus (variant 0 at the generate
/// scale is also `GENERATE_PIN`: its synth seed is the program's default).
fn print_pins() -> Result<(), String> {
    let work = PathBuf::from(".bench_work/pins");
    let _ = std::fs::remove_dir_all(&work);
    for scale in [corpus::ANALYZE_SCALE, corpus::SERVE_SCALE] {
        for v in 0..corpus::VARIANTS {
            let c = corpus::write_seeded(&work, scale, v, THREADS)?;
            println!(
                "    ({scale}, {v}, {:#018x}), // {} records, {} bytes",
                c.hash, c.records, c.bytes
            );
            for f in &c.files {
                std::fs::remove_file(f).map_err(|e| e.to_string())?;
            }
        }
    }
    let _ = std::fs::remove_dir_all(&work);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// BENCHMARK.json must list exactly the metrics this program emits.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let json = filterscope_core::Json::parse(&text).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            match json.get(key) {
                Some(filterscope_core::Json::Arr(items)) => items
                    .iter()
                    .map(|m| {
                        let s = |k: &str| match m.get(k) {
                            Some(filterscope_core::Json::Str(s)) => s.clone(),
                            _ => panic!("{key} entry without {k}"),
                        };
                        (s("name"), s("unit"))
                    })
                    .collect(),
                _ => panic!("no {key} array"),
            }
        };
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(END_TO_END));
        assert_eq!(names("per_layer"), own(PER_LAYER));
    }

    #[test]
    fn json_line_reports_requested_metrics_in_order() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.set("setup_s", 0.25);
        r.set("records_per_s", 1000.5);
        let line = json_line(true, &r, &[("records_per_s", "rec/s"), ("setup_s", "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"records_per_s\": {\"value\": 1000.5, \"unit\": \"rec/s\"}, \
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
