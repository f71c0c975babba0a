//! The `filterscope` command-line tool.
//!
//! ```text
//! filterscope generate --scale 65536 --out ./logs     write per-day log files
//! filterscope analyze LOG...                          full report from log files
//! filterscope audit LOG... [--cpl OUT] [--lint]       recover the policy (§5.4)
//! filterscope policy [--out FILE]                     dump the standard policy as CPL
//! filterscope compile [POLICY] --out FILE            build a binary policy artifact
//! filterscope lint [POLICY] [--against POLICY]        static policy analysis
//! filterscope report [--scale N]                      synthesize + analyze in one go
//! filterscope replay [--scale N]                      time every pipeline stage
//! filterscope analyses                                list the analysis registry
//! filterscope serve --snapshots DIR                   live streaming ingest daemon
//! filterscope stream [--scale N | LOG...]             replay a workload at a daemon
//! filterscope history LOG at|diff|series|ls           time-travel over a snapshot log
//! ```
//!
//! `analyze`, `audit`, `report` and `weather` accept `--analyses a,b,c`
//! (run only those) and `--skip x,y` (run the default set minus those);
//! keys come from `filterscope analyses`.

use filterscope::analysis::comparison::compare;
use filterscope::analysis::pipeline::{ParallelIngest, ShardSink};
use filterscope::analysis::registry::{self, REGISTRY};
use filterscope::analysis::report::Table;
use filterscope::core::fs::atomic_write;
use filterscope::core::progress::fmt_secs;
use filterscope::core::{pool, Json, Progress};
use filterscope::logformat::fields::header_line;
use filterscope::logformat::RecordView;
use filterscope::policylint::{check_equivalence, lint_farm, lint_policy, skew_matrix, LintReport};
use filterscope::prelude::*;
use filterscope::proxy::config::FarmConfig;
use filterscope::proxy::{artifact, cpl, PolicyData, ProfileKind};
use filterscope::snapstore::{
    decode_value, diff, read_frames, series, suite_at, Frame, RecoveryReport,
};
use filterscope::stream::{
    install_sigint, stream_corpus, stream_files, ServeConfig, Server, StreamConfig,
};
use filterscope::synth::corpus::DayShard;
use filterscope::synth::{censor_preset, CENSOR_NAMES};
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage:\n  filterscope generate [--scale N] [--out DIR] [--censor NAME] [--threads N]\n  \
         filterscope analyze LOG... [--min-support N] [--geo FILE] [--categories FILE] [--json OUT] [--threads N] [--analyses KEYS] [--skip KEYS]\n  \
         filterscope audit LOG... [--min-support N] [--cpl OUT] [--lint] [--threads N] [--analyses KEYS] [--skip KEYS]\n  \
         filterscope policy [--out FILE]\n  \
         filterscope compile [POLICY] --out FILE [--seed N]\n  \
         filterscope lint [POLICY] [--against POLICY] [--json] [--deny warnings]\n  \
         filterscope report [--scale N] [--json OUT] [--threads N] [--analyses KEYS] [--skip KEYS]\n  \
         filterscope replay [--scale N] [--out DIR] [--threads N] [--bench-json FILE]\n  \
         filterscope weather LOG... [--min-support N] [--threads N] [--analyses KEYS] [--skip KEYS]\n  \
         filterscope compare --a LOG --b LOG [--min-support N]\n  \
         filterscope analyses\n  \
         filterscope serve --snapshots DIR [--listen ADDR] [--metrics ADDR] [--every-ms N] [--min-support N] [--queue N] [--policy-artifact FILE] [--censor NAME] [--snap-log FILE] [--snap-log-max-bytes N] [--analyses KEYS] [--skip KEYS]\n  \
         filterscope stream [LOG... | --scale N] [--censor NAME] [--connect ADDR] [--connections N] [--batch N] [--compress X]\n  \
         filterscope history LOG at --time T [--analysis KEY]\n  \
         filterscope history LOG diff --from T --to T\n  \
         filterscope history LOG series --analysis KEY [--step SECS] [--json]\n  \
         filterscope history LOG ls\n  \
         filterscope srclint [ROOT]\n\n\
         Flags accept `--flag value` or `--flag=value`; repeating a flag\n\
         is an error.\n\
         --censor selects the simulated censorship mechanism: blue-coat\n\
         (default), dns-poison, tcp-rst, blockpage, or the presets syria,\n\
         pakistan, turkmenistan; `serve --censor` declares the mechanism\n\
         the daemon expects to observe (reported on /metrics).\n\
         POLICY is `standard` or a CPL file; `lint` exits non-zero on error\n\
         findings (and on warnings too under `--deny warnings`).\n\
         `compile` writes the policy's CPL into a checksummed artifact that\n\
         `serve --policy-artifact` loads and hot-reloads on change.\n\
         --analyses/--skip take comma-separated keys from `filterscope analyses`.\n\
         `serve --snap-log` appends every snapshot cycle's suite delta to a\n\
         crash-safe frame log that `history` replays: `at` reconstructs the\n\
         full report as of any instant, `diff` compares two instants,\n\
         `series` windows one analysis over time, `ls` inventories frames.\n\
         T is epoch seconds, `YYYY-MM-DD`, or `YYYY-MM-DD HH:MM:SS`.\n\
         `replay` times every stage of the record pipeline (generate,\n\
         classify, write, parse, ingest, merge) and extrapolates to the\n\
         full study corpus; `--bench-json` merges the rates into a bench\n\
         results file.\n\
         --threads must be >= 1 and defaults to the available parallelism;\n\
         results are byte-identical for every thread count.";

/// Print the usage to stderr and exit 2: the reply to a malformed command.
fn usage() -> ExitCode {
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

/// Minimal flag parsing: returns (positional args, flag lookup).
struct Args {
    positional: Vec<String>,
    flags: Vec<(String, String)>,
}

impl Args {
    /// Parse `raw` against one subcommand's flag vocabulary. `--flag value`
    /// and `--flag=value` are equivalent; flags outside `allowed`/`boolean`
    /// and value flags without a value are reported as errors rather than
    /// silently ignored. Flags in `boolean` take no value (`lint --json`).
    fn parse(
        raw: impl Iterator<Item = String>,
        allowed: &[&str],
        boolean: &[&str],
    ) -> Result<Args, String> {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut it = raw;
        while let Some(arg) = it.next() {
            if let Some(name) = arg.strip_prefix("--") {
                let (name, value) = match name.split_once('=') {
                    Some((n, _)) if boolean.contains(&n) => {
                        return Err(format!("flag --{n} takes no value"));
                    }
                    Some((n, v)) => (n.to_string(), v.to_string()),
                    None if boolean.contains(&name) => (name.to_string(), "true".to_string()),
                    // A bare flag's value must not itself look like a flag:
                    // `analyze --json --threads 4` is a mistake, not a request
                    // to write the summary to a file named "--threads".
                    None => match it.next().filter(|v| !v.starts_with("--")) {
                        Some(v) => (name.to_string(), v),
                        None => return Err(format!("flag --{name} requires a value")),
                    },
                };
                if !allowed.contains(&name.as_str()) && !boolean.contains(&name.as_str()) {
                    return Err(format!("unknown flag --{name}"));
                }
                // A repeated flag is ambiguous (first-wins would silently
                // ignore the later value), so it is an error instead.
                if flags.iter().any(|(n, _)| *n == name) {
                    return Err(format!("flag --{name} given more than once"));
                }
                flags.push((name, value));
            } else {
                positional.push(arg);
            }
        }
        Ok(Args { positional, flags })
    }

    fn flag(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Was a boolean flag given?
    fn has_flag(&self, name: &str) -> bool {
        self.flag(name).is_some()
    }

    fn flag_u64(&self, name: &str, default: u64) -> Option<u64> {
        match self.flag(name) {
            None => Some(default),
            Some(v) => v.parse().ok(),
        }
    }

    /// `--threads N` (>= 1); defaults to the available parallelism. Zero,
    /// negative, and non-numeric values are a named usage error — silently
    /// mapping `--threads 0` to a default would hide the typo.
    fn threads(&self) -> Result<usize, ExitCode> {
        match self.flag("threads") {
            None => Ok(pool::available_threads()),
            Some(v) => match v.parse::<usize>() {
                Ok(n) if n >= 1 => Ok(n),
                _ => {
                    eprintln!("filterscope: --threads must be an integer >= 1, got `{v}`");
                    Err(usage())
                }
            },
        }
    }
}

/// Resolve `--censor NAME` to a profile ([`ProfileKind::BlueCoat`] when
/// absent). Unknown names list the full vocabulary rather than guessing.
fn censor_from_flag(args: &Args) -> Result<ProfileKind, ExitCode> {
    match args.flag("censor") {
        None => Ok(ProfileKind::BlueCoat),
        Some(name) => match censor_preset(name) {
            Some(kind) => Ok(kind),
            None => {
                eprintln!(
                    "filterscope: unknown censor `{name}` (expected one of: {})",
                    CENSOR_NAMES.join(", ")
                );
                Err(usage())
            }
        },
    }
}

/// Part-file path for one `(day × shard)` generation unit.
fn part_path(out_dir: &Path, unit: &DayShard) -> PathBuf {
    out_dir.join(format!(
        "sg_access_{}.log.part{:04}",
        unit.day.date, unit.shard
    ))
}

/// Write one shard's records to its part file, returning the record count.
/// One line buffer serves the whole shard ([`LogRecord::write_csv_into`]).
fn write_part(path: &Path, records: &mut dyn Iterator<Item = LogRecord>) -> std::io::Result<u64> {
    let mut writer = BufWriter::new(File::create(path)?);
    let mut written = 0u64;
    let mut line = String::new();
    for rec in records {
        line.clear();
        rec.write_csv_into(&mut line);
        line.push('\n');
        writer.write_all(line.as_bytes())?;
        written += 1;
    }
    writer.flush()?;
    Ok(written)
}

/// Concatenate a day's part files (in shard order) behind the ELFF header,
/// removing the parts. A day with zero records stays an empty file, exactly
/// as the sequential `LogWriter` path produced.
fn assemble_day(day_path: &Path, out_dir: &Path, units: &[DayShard]) -> std::io::Result<()> {
    let mut out = BufWriter::new(File::create(day_path)?);
    if units.iter().any(|u| !u.is_empty()) {
        writeln!(out, "#Software: SGOS 4.1.4")?;
        writeln!(out, "{}", header_line())?;
    }
    for unit in units {
        let part = part_path(out_dir, unit);
        let mut reader = File::open(&part)?;
        std::io::copy(&mut reader, &mut out)?;
        drop(reader);
        std::fs::remove_file(&part)?;
    }
    out.flush()?;
    Ok(())
}

fn cmd_generate(args: &Args) -> ExitCode {
    let Some(scale) = args.flag_u64("scale", 65_536) else {
        return usage();
    };
    let threads = match args.threads() {
        Ok(n) => n,
        Err(code) => return code,
    };
    let out_dir = PathBuf::from(args.flag("out").unwrap_or("./logs"));
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let Ok(config) = SynthConfig::new(scale) else {
        return usage();
    };
    let censor = match censor_from_flag(args) {
        Ok(kind) => kind,
        Err(code) => return code,
    };
    let corpus = Corpus::new(config.with_censor(censor));
    eprintln!(
        "writing {} requests ({} censor) across {} day files to {} on {threads} thread{}",
        corpus.total_volume(),
        censor.name(),
        corpus.config().period.days().len(),
        out_dir.display(),
        if threads == 1 { "" } else { "s" }
    );
    let progress = Progress::start();
    let days = match write_corpus(&corpus, &out_dir, threads, true) {
        Ok(days) => days,
        Err(failures) => {
            for f in &failures {
                eprintln!("generate failed: {f}");
            }
            return ExitCode::FAILURE;
        }
    };
    let total: u64 = days.iter().map(|(_, n)| n).sum();
    eprintln!("{}", progress.summary("generated", total));
    ExitCode::SUCCESS
}

/// Synthesize the whole corpus to per-day log files under `out_dir`: every
/// (day × shard) unit writes its slice into a part file, parts concatenate
/// in plan order behind the ELFF header. Returns `(day path, records)` in
/// period order, or the per-unit failure messages (parts are cleaned up).
/// `announce` prints each finished day file to stdout as `generate` does.
fn write_corpus(
    corpus: &Corpus,
    out_dir: &Path,
    threads: usize,
    announce: bool,
) -> Result<Vec<(PathBuf, u64)>, Vec<String>> {
    // I/O failures surface as per-unit errors instead of a worker panic.
    let plan = corpus.shard_plan(0);
    let part_results = corpus.par_map_day_shards(threads, 0, |unit, records| {
        let path = part_path(out_dir, &unit);
        write_part(&path, records).map_err(|e| format!("{}: {e}", path.display()))
    });
    let mut failures = Vec::new();
    let mut counts = Vec::with_capacity(plan.len());
    for (unit, result) in plan.iter().zip(part_results) {
        match result {
            Ok(n) => counts.push(n),
            Err(e) => {
                counts.push(0);
                failures.push(format!("day {}: {e}", unit.day.date));
            }
        }
    }
    if !failures.is_empty() {
        for unit in &plan {
            let _ = std::fs::remove_file(part_path(out_dir, unit));
        }
        return Err(failures);
    }
    let mut days = Vec::new();
    let mut i = 0;
    while i < plan.len() {
        let day = plan[i].day;
        let day_units = &plan[i..i + plan[i].shards];
        let day_records: u64 = counts[i..i + plan[i].shards].iter().sum();
        let day_path = out_dir.join(format!("sg_access_{}.log", day.date));
        if let Err(e) = assemble_day(&day_path, out_dir, day_units) {
            return Err(vec![format!("day {}: {e}", day.date)]);
        }
        if announce {
            println!("{}  {day_records} records", day_path.display());
        }
        days.push((day_path, day_records));
        i += plan[i].shards;
    }
    Ok(days)
}

/// Build the analysis context, honoring `--geo` / `--categories` registry
/// files when given.
fn context_from_flags(args: &Args) -> Result<AnalysisContext, ExitCode> {
    let mut ctx = AnalysisContext::standard(None);
    if let Some(path) = args.flag("geo") {
        let text = std::fs::read_to_string(path).map_err(|e| {
            eprintln!("cannot read {path}: {e}");
            ExitCode::FAILURE
        })?;
        ctx.geo = filterscope::geoip::registry::load_db(&text).map_err(|e| {
            eprintln!("bad geo registry {path}: {e}");
            ExitCode::FAILURE
        })?;
    }
    if let Some(path) = args.flag("categories") {
        let text = std::fs::read_to_string(path).map_err(|e| {
            eprintln!("cannot read {path}: {e}");
            ExitCode::FAILURE
        })?;
        ctx.categories = filterscope::categorizer::registry::load_db(&text).map_err(|e| {
            eprintln!("bad category registry {path}: {e}");
            ExitCode::FAILURE
        })?;
    }
    Ok(ctx)
}

/// The sharded ingest driver: `--threads` workers, periodic ETA lines under
/// `eta_label`, and the shard size overridable through
/// `FILTERSCOPE_SHARD_BYTES` (tests force tiny shards to exercise boundary
/// handling; output is identical for any value).
fn ingest_driver(threads: usize, eta_label: &str) -> ParallelIngest {
    let mut ingest = ParallelIngest::new(threads).with_eta(eta_label);
    if let Some(bytes) = std::env::var("FILTERSCOPE_SHARD_BYTES")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
    {
        ingest = ingest.with_shard_bytes(bytes);
    }
    ingest
}

/// The positional log paths, or usage() if none were given.
fn log_paths(args: &Args) -> Result<Vec<PathBuf>, ExitCode> {
    if args.positional.is_empty() {
        return Err(usage());
    }
    Ok(args.positional.iter().map(PathBuf::from).collect())
}

/// The `--analyses`/`--skip` selection, or `default` when neither flag was
/// given (keeps fixed-product commands like `audit` on their minimal set).
fn selection_from_flags(args: &Args, default: Selection) -> Result<Selection, ExitCode> {
    if args.flag("analyses").is_none() && args.flag("skip").is_none() {
        return Ok(default);
    }
    Selection::from_flags(args.flag("analyses"), args.flag("skip")).map_err(|e| {
        eprintln!("{e}");
        ExitCode::from(2)
    })
}

fn cmd_analyze(args: &Args) -> ExitCode {
    let Some(min_support) = args.flag_u64("min-support", 3) else {
        return usage();
    };
    let threads = match args.threads() {
        Ok(n) => n,
        Err(code) => return code,
    };
    let paths = match log_paths(args) {
        Ok(p) => p,
        Err(code) => return code,
    };
    let ctx = match context_from_flags(args) {
        Ok(c) => c,
        Err(code) => return code,
    };
    let selection = match selection_from_flags(args, Selection::default_suite()) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let ingest = ingest_driver(threads, "analyze");
    let params = SuiteParams::new(min_support);
    let (suite, stats) = match ingest.ingest_selected(&paths, &ctx, &params, &selection) {
        Ok(done) => done,
        Err(e) => {
            eprintln!("analyze failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("{}", stats.render());
    if let Some(path) = args.flag("json") {
        if let Err(e) = std::fs::write(path, suite.summary_json(&ctx)) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("summary written to {path}");
    }
    println!("{}", suite.render_all(&ctx));
    ExitCode::SUCCESS
}

fn cmd_audit(args: &Args) -> ExitCode {
    let Some(min_support) = args.flag_u64("min-support", 3) else {
        return usage();
    };
    let threads = match args.threads() {
        Ok(n) => n,
        Err(code) => return code,
    };
    let paths = match log_paths(args) {
        Ok(p) => p,
        Err(code) => return code,
    };
    // Audit recovers the policy blind (no known keyword list); `inference`
    // is always in the selection, co-selected analyses render after it.
    let mut selection = match selection_from_flags(args, Selection::pinned("inference")) {
        Ok(s) => s,
        Err(code) => return code,
    };
    selection.ensure("inference");
    let ctx = AnalysisContext::standard(None);
    let ingest = ingest_driver(threads, "audit");
    let params = SuiteParams::blind(min_support);
    let (suite, stats) = match ingest.ingest_selected(&paths, &ctx, &params, &selection) {
        Ok(done) => done,
        Err(e) => {
            eprintln!("audit failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("{}", stats.render());
    let inference = suite.inference();
    let keywords = inference.recover_keywords(min_support, 3);
    println!("recovered keywords: {keywords:?}");
    println!("recovered domains:");
    for (domain, ev) in inference.recover_domains(min_support) {
        println!("  {domain}  ({} censored requests)", ev.censored);
    }
    if let Some(out) = args.flag("cpl") {
        let policy = inference.export_policy(min_support, 3);
        if let Err(e) = std::fs::write(out, cpl::to_cpl(&policy)) {
            eprintln!("cannot write {out}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("recovered policy written to {out}");
    }
    // `--lint`: statically audit the recovered policy and check it for
    // behavioural equivalence against the standard one — the inferred-vs-
    // truth loop in a single command.
    let mut lint_failed = false;
    if args.has_flag("lint") {
        let recovered = inference.export_policy(min_support, 3);
        let mut findings = lint_policy(&recovered);
        findings.extend(check_equivalence(
            &recovered,
            &PolicyData::standard(),
            "recovered",
            "standard",
        ));
        let report = LintReport::new("recovered", Some("standard".to_string()), findings, None);
        print!("{}", report.render());
        lint_failed = report.failing(false);
    }
    for (entry, analysis) in suite.analyses() {
        if entry.key != "inference" {
            println!("{}", analysis.render(&ctx));
        }
    }
    if lint_failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn cmd_policy(args: &Args) -> ExitCode {
    let text = cpl::to_cpl(&PolicyData::standard());
    match args.flag("out") {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &text) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("standard policy written to {path}");
        }
        None => {
            let mut stdout = std::io::stdout().lock();
            let _ = stdout.write_all(text.as_bytes());
        }
    }
    ExitCode::SUCCESS
}

/// `filterscope compile [POLICY] --out FILE [--seed N]`: write a policy
/// into the binary `FSCP` artifact that `serve --policy-artifact` loads.
///
/// The artifact carries the policy's CPL and the engine seed; `serve`
/// builds its engine from that CPL. The write goes through
/// [`atomic_write`], so a hot-reload watcher never observes a torn or
/// unflushed file.
fn cmd_compile(args: &Args) -> ExitCode {
    if args.positional.len() > 1 {
        return usage();
    }
    let Some(out) = args.flag("out") else {
        eprintln!("filterscope compile: --out FILE is required");
        return usage();
    };
    let Some(seed) = args.flag_u64("seed", 0) else {
        return usage();
    };
    let spec = args
        .positional
        .first()
        .map(String::as_str)
        .unwrap_or("standard");
    let (policy, name) = match load_policy(spec) {
        Ok(p) => p,
        Err(code) => return code,
    };
    let bytes = artifact::compile(&policy, seed);
    if let Err(e) = atomic_write(Path::new(out), &bytes) {
        eprintln!("cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("compiled {name} to {out} ({} bytes)", bytes.len());
    ExitCode::SUCCESS
}

fn load_policy(spec: &str) -> Result<(PolicyData, String), ExitCode> {
    if spec == "standard" {
        return Ok((PolicyData::standard(), "standard".to_string()));
    }
    let text = std::fs::read_to_string(spec).map_err(|e| {
        eprintln!("cannot read {spec}: {e}");
        ExitCode::FAILURE
    })?;
    let policy = cpl::parse_cpl(&text).map_err(|e| {
        eprintln!("cannot parse {spec}: {e}");
        ExitCode::FAILURE
    })?;
    Ok((policy, spec.to_string()))
}

fn cmd_lint(args: &Args) -> ExitCode {
    if args.positional.len() > 1 {
        return usage();
    }
    match args.flag("deny") {
        None | Some("warnings") => {}
        Some(other) => {
            eprintln!("filterscope lint: --deny accepts only `warnings`, got `{other}`");
            return usage();
        }
    }
    let spec = args
        .positional
        .first()
        .map(String::as_str)
        .unwrap_or("standard");
    let (policy, name) = match load_policy(spec) {
        Ok(p) => p,
        Err(code) => return code,
    };
    let mut findings = lint_policy(&policy);
    let farm = FarmConfig::default();
    findings.extend(lint_farm(&farm));
    let against_name = match args.flag("against") {
        Some(spec) => {
            let (other, other_name) = match load_policy(spec) {
                Ok(p) => p,
                Err(code) => return code,
            };
            findings.extend(check_equivalence(&policy, &other, &name, &other_name));
            Some(other_name)
        }
        None => None,
    };
    let report = LintReport::new(&name, against_name, findings, Some(skew_matrix(&farm)));
    if args.has_flag("json") {
        println!("{}", report.to_json().pretty());
    } else {
        print!("{}", report.render());
    }
    if report.failing(args.flag("deny").is_some()) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn cmd_report(args: &Args) -> ExitCode {
    let Some(scale) = args.flag_u64("scale", 8192) else {
        return usage();
    };
    let threads = match args.threads() {
        Ok(n) => n,
        Err(code) => return code,
    };
    let Ok(config) = SynthConfig::new(scale) else {
        return usage();
    };
    let corpus = Corpus::new(config);
    let ctx = AnalysisContext::standard(Some(corpus.relay_index()));
    let min_support = (corpus.total_volume() / 100_000).clamp(3, 500);
    let selection = match selection_from_flags(args, Selection::default_suite()) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let params = SuiteParams::new(min_support);
    let progress = Progress::start();
    // (day × shard) units, so a 39×-volume August day no longer pins the
    // run to one thread; shards merge in plan order for determinism.
    let shards = corpus.par_map_day_shards(threads, 0, |_, records| {
        let mut suite = AnalysisSuite::with_selection(&params, &selection);
        suite.ingest_records(&ctx, records);
        suite
    });
    let mut suite = AnalysisSuite::with_selection(&params, &selection);
    for shard in shards {
        suite.merge(shard);
    }
    eprintln!(
        "{}",
        progress.summary_threads("synthesized and analyzed", corpus.total_volume(), threads)
    );
    if let Some(path) = args.flag("json") {
        if let Err(e) = std::fs::write(path, suite.summary_json(&ctx)) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("summary written to {path}");
    }
    println!("{}", suite.render_all(&ctx));
    ExitCode::SUCCESS
}

/// The paper's full corpus: 751,295,830 requests across ~600 GB of logs.
const FULL_CORPUS_RECORDS: u64 = 751_295_830;

/// One measured replay stage: marginal wall-clock seconds plus the volume
/// it moved (records always, bytes when the stage is byte-oriented).
struct ReplayStage {
    name: &'static str,
    secs: f64,
    records: u64,
    bytes: Option<u64>,
}

impl ReplayStage {
    fn records_per_s(&self) -> f64 {
        self.records as f64 / self.secs.max(1e-9)
    }

    fn row(&self) -> [String; 5] {
        [
            self.name.to_string(),
            format!("{:.2}", self.secs),
            format!("{:.0}", self.records_per_s()),
            match self.bytes {
                Some(b) => format!("{:.1}", b as f64 / self.secs.max(1e-9) / 1e6),
                None => "-".to_string(),
            },
            fmt_secs(self.secs * (FULL_CORPUS_RECORDS as f64 / self.records.max(1) as f64)),
        ]
    }
}

/// `filterscope replay`: run the record pipeline in staged passes — workload
/// generation, batched policy classification, day-file writing, block
/// parsing, analysis ingest, and the serial merge — timing each stage's
/// marginal cost, then extrapolate linearly to the paper's full corpus.
///
/// `--scale N` divides the full 751,295,830-request corpus exactly as
/// `generate`/`report` do, so a replay at any feasible scale measures the
/// same per-record work as the real thing.
fn cmd_replay(args: &Args) -> ExitCode {
    let Some(scale) = args.flag_u64("scale", 2048) else {
        return usage();
    };
    let threads = match args.threads() {
        Ok(n) => n,
        Err(code) => return code,
    };
    let out_dir = PathBuf::from(args.flag("out").unwrap_or("./replay-logs"));
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let Ok(config) = SynthConfig::new(scale) else {
        return usage();
    };
    let corpus = Corpus::new(config);
    let total = corpus.total_volume();
    eprintln!(
        "replaying {total} records (scale {scale}, 1/{scale} of the full corpus) on {threads} thread{}",
        if threads == 1 { "" } else { "s" }
    );

    // Pass 1: workload generation alone (no policy, no I/O).
    let p = Progress::start();
    let generated: u64 = corpus
        .par_map_day_requests(threads, 0, |_, it| it.count() as u64)
        .into_iter()
        .sum();
    let t_generate = p.elapsed_secs();

    // Pass 2: generation + batched policy classification.
    let p = Progress::start();
    let classified: u64 = corpus
        .par_map_day_shards(threads, 0, |_, it| it.count() as u64)
        .into_iter()
        .sum();
    let t_classify_pass = p.elapsed_secs();

    // Pass 3: generation + classification + day-file writing.
    let p = Progress::start();
    let days = match write_corpus(&corpus, &out_dir, threads, false) {
        Ok(days) => days,
        Err(failures) => {
            for f in &failures {
                eprintln!("replay failed: {f}");
            }
            return ExitCode::FAILURE;
        }
    };
    let t_write_pass = p.elapsed_secs();
    let paths: Vec<PathBuf> = days.iter().map(|(p, _)| p.clone()).collect();
    let bytes: u64 = paths
        .iter()
        .map(|p| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0))
        .sum();

    // Pass 4: block-parse every record back off disk into a no-op sink —
    // the ingest pipeline with the analysis cost subtracted.
    struct NullSink;
    impl ShardSink for NullSink {
        fn ingest_block(&mut self, _block: &[RecordView<'_>]) {}
        fn absorb(&mut self, _other: Self) {}
    }
    let p = Progress::start();
    let parse_stats = match ingest_driver(threads, "replay parse").run(&paths, || NullSink) {
        Ok((NullSink, stats)) => stats,
        Err(e) => {
            eprintln!("replay failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let t_parse = p.elapsed_secs();

    // Pass 5: the full analysis ingest (parse + every registered
    // accumulator + the serial plan-order merge).
    let ctx = AnalysisContext::standard(Some(corpus.relay_index()));
    let min_support = (total / 100_000).clamp(3, 500);
    let p = Progress::start();
    let (suite, ingest_stats) = match ingest_driver(threads, "replay ingest").ingest_selected(
        &paths,
        &ctx,
        &SuiteParams::new(min_support),
        &Selection::default_suite(),
    ) {
        Ok(done) => done,
        Err(e) => {
            eprintln!("replay failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let t_ingest_pass = p.elapsed_secs();
    let t_merge = ingest_stats.merge_elapsed.as_secs_f64();
    drop(suite);

    // Record conservation: every pass must see the exact configured volume.
    if generated != total
        || classified != total
        || parse_stats.records != total
        || ingest_stats.records != total
        || parse_stats.malformed != 0
    {
        eprintln!(
            "replay failed: record counts diverged (expected {total}: generated {generated}, \
             classified {classified}, parsed {} with {} malformed, ingested {})",
            parse_stats.records, parse_stats.malformed, ingest_stats.records
        );
        return ExitCode::FAILURE;
    }

    let stages = [
        ReplayStage {
            name: "generate",
            secs: t_generate,
            records: total,
            bytes: None,
        },
        ReplayStage {
            name: "classify",
            secs: (t_classify_pass - t_generate).max(0.0),
            records: total,
            bytes: None,
        },
        ReplayStage {
            name: "write",
            secs: (t_write_pass - t_classify_pass).max(0.0),
            records: total,
            bytes: Some(bytes),
        },
        ReplayStage {
            name: "parse",
            secs: t_parse,
            records: total,
            bytes: Some(bytes),
        },
        ReplayStage {
            name: "ingest",
            secs: (t_ingest_pass - t_merge - t_parse).max(0.0),
            records: total,
            bytes: None,
        },
        ReplayStage {
            name: "merge",
            secs: t_merge,
            records: total,
            bytes: None,
        },
    ];
    let end_to_end = ReplayStage {
        name: "end-to-end",
        secs: t_write_pass + t_ingest_pass,
        records: total,
        bytes: Some(bytes),
    };

    let mut table = Table::new(
        format!("Replay at scale {scale} ({total} records, {bytes} bytes, {threads} threads)"),
        &["Stage", "Seconds", "Records/s", "MB/s", "Full corpus"],
    );
    for stage in &stages {
        table.row(stage.row());
    }
    table.row(end_to_end.row());
    print!("{}", table.render());
    println!(
        "full corpus = {FULL_CORPUS_RECORDS} records (~{:.0} GB at this record size), \
         extrapolated linearly from 1/{scale} scale",
        bytes as f64 * (FULL_CORPUS_RECORDS as f64 / total as f64) / 1e9
    );

    if let Some(path) = args.flag("bench-json") {
        if let Err(e) = merge_replay_bench(path, &stages, &end_to_end) {
            eprintln!("cannot update {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("replay rates merged into {path}");
    }
    ExitCode::SUCCESS
}

/// Merge the replay stage rates into a bench-results JSON file (the format
/// the bench harness writes under `FILTERSCOPE_BENCH_JSON`): existing
/// entries of the `replay` group are replaced, everything else is kept.
fn merge_replay_bench(
    path: &str,
    stages: &[ReplayStage],
    end_to_end: &ReplayStage,
) -> Result<(), String> {
    let mut entries = match std::fs::read_to_string(path) {
        Ok(text) => match Json::parse(&text).map_err(|e| format!("bad JSON: {e}"))? {
            Json::Arr(items) => items,
            _ => return Err("expected a top-level array".to_string()),
        },
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e.to_string()),
    };
    entries.retain(|entry| entry.get("group") != Some(&Json::Str("replay".to_string())));
    for stage in stages.iter().chain([end_to_end]) {
        let ns = (stage.secs * 1e9) as u64;
        let mut obj = Json::object();
        obj.push("group", Json::Str("replay".to_string()));
        obj.push("name", Json::Str(stage.name.to_string()));
        obj.push("median_ns", Json::UInt(ns));
        obj.push("min_ns", Json::UInt(ns));
        match stage.bytes {
            Some(b) => {
                obj.push("rate", Json::Float(b as f64 / stage.secs.max(1e-9)));
                obj.push("rate_unit", Json::Str("bytes_per_s".to_string()));
            }
            None => {
                obj.push("rate", Json::Float(stage.records_per_s()));
                obj.push("rate_unit", Json::Str("elements_per_s".to_string()));
            }
        }
        entries.push(obj);
    }
    std::fs::write(path, Json::Arr(entries).pretty()).map_err(|e| e.to_string())
}

fn cmd_weather(args: &Args) -> ExitCode {
    let Some(min_support) = args.flag_u64("min-support", 3) else {
        return usage();
    };
    let threads = match args.threads() {
        Ok(n) => n,
        Err(code) => return code,
    };
    let paths = match log_paths(args) {
        Ok(p) => p,
        Err(code) => return code,
    };
    // Weather is a fixed-product command: its own analysis is always in the
    // selection, co-selected analyses render after the churn table.
    let mut selection = match selection_from_flags(args, Selection::pinned("weather")) {
        Ok(s) => s,
        Err(code) => return code,
    };
    selection.ensure("weather");
    let ctx = AnalysisContext::standard(None);
    let ingest = ingest_driver(threads, "weather");
    let params = SuiteParams::new(min_support);
    let (suite, stats) = match ingest.ingest_selected(&paths, &ctx, &params, &selection) {
        Ok(done) => done,
        Err(e) => {
            eprintln!("weather failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("{}", stats.render());
    println!("{}", suite.weather().render());
    for (entry, analysis) in suite.analyses() {
        if entry.key != "weather" {
            println!("{}", analysis.render(&ctx));
        }
    }
    ExitCode::SUCCESS
}

fn cmd_compare(args: &Args) -> ExitCode {
    let Some(min_support) = args.flag_u64("min-support", 3) else {
        return usage();
    };
    let (Some(path_a), Some(path_b)) = (args.flag("a"), args.flag("b")) else {
        return usage();
    };
    let ctx = AnalysisContext::standard(None);
    let ingest = ingest_driver(pool::available_threads(), "compare");
    let load = |path: &str| -> Result<AnalysisSuite, ExitCode> {
        match ingest.ingest_selected(
            &[PathBuf::from(path)],
            &ctx,
            &SuiteParams::new(min_support),
            &Selection::default_suite(),
        ) {
            Ok((suite, stats)) => {
                eprintln!("{}", stats.render());
                Ok(suite)
            }
            Err(e) => {
                eprintln!("compare failed: {e}");
                Err(ExitCode::FAILURE)
            }
        }
    };
    let a = match load(path_a) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let b = match load(path_b) {
        Ok(s) => s,
        Err(code) => return code,
    };
    println!("A = {path_a} ({} records)", a.datasets().full);
    println!("B = {path_b} ({} records)\n", b.datasets().full);
    println!("{}", compare(&a, &b).render());
    ExitCode::SUCCESS
}

fn cmd_serve(args: &Args) -> ExitCode {
    let Some(min_support) = args.flag_u64("min-support", 3) else {
        return usage();
    };
    let Some(every_ms) = args.flag_u64("every-ms", 1000) else {
        return usage();
    };
    let Some(queue) = args.flag_u64("queue", 16) else {
        return usage();
    };
    let Some(snapshot_dir) = args.flag("snapshots") else {
        eprintln!("filterscope serve: --snapshots DIR is required");
        return usage();
    };
    // 64 MiB default keeps an always-on daemon's log bounded; 0 disables
    // compaction (the log then grows without limit).
    let Some(snap_log_max_bytes) = args.flag_u64("snap-log-max-bytes", 64 * 1024 * 1024) else {
        return usage();
    };
    let selection = match selection_from_flags(args, Selection::default_suite()) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let expected_censor = match args.flag("censor") {
        None => None,
        Some(_) => match censor_from_flag(args) {
            Ok(kind) => Some(kind),
            Err(code) => return code,
        },
    };
    let config = ServeConfig {
        listen: args.flag("listen").unwrap_or("127.0.0.1:4742").to_string(),
        metrics: args.flag("metrics").map(str::to_string),
        snapshot_dir: PathBuf::from(snapshot_dir),
        snapshot_every: std::time::Duration::from_millis(every_ms.max(1)),
        params: SuiteParams::new(min_support),
        selection,
        queue_batches: queue.clamp(1, 4096) as usize,
        policy_artifact: args.flag("policy-artifact").map(PathBuf::from),
        expected_censor,
        snap_log: args.flag("snap-log").map(PathBuf::from),
        snap_log_max_bytes,
    };
    let server = match Server::bind(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The addresses go to stdout (flushed) so a parent process can resolve
    // ephemeral ports; everything else the daemon prints goes to stderr.
    match server.local_addr() {
        Ok(addr) => println!("listening on {addr}"),
        Err(e) => {
            eprintln!("serve failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(addr) = server.metrics_addr() {
        println!("metrics on {addr}");
    }
    let _ = std::io::stdout().flush();
    let ctx = AnalysisContext::standard(None);
    let shutdown = install_sigint();
    match server.run(&ctx, shutdown) {
        Ok(summary) => {
            eprintln!(
                "served {} records over {} connection{} ({} dropped, {} parse errors); \
                 {} snapshot{} written",
                summary.records,
                summary.connections,
                if summary.connections == 1 { "" } else { "s" },
                summary.dropped_connections,
                summary.parse_errors,
                summary.snapshots,
                if summary.snapshots == 1 { "" } else { "s" },
            );
            if summary.policy_version > 0 {
                eprintln!(
                    "policy artifact at version {} ({} reload{}, {} rejected)",
                    summary.policy_version,
                    summary.policy_reloads,
                    if summary.policy_reloads == 1 { "" } else { "s" },
                    summary.policy_reload_failures,
                );
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("serve failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_stream(args: &Args) -> ExitCode {
    let Some(connections) = args.flag_u64("connections", 7) else {
        return usage();
    };
    let Some(batch) = args.flag_u64("batch", 500) else {
        return usage();
    };
    let compress = match args.flag("compress") {
        None => 0.0,
        Some(v) => match v.parse::<f64>() {
            Ok(x) if x.is_finite() && x >= 0.0 => x,
            _ => return usage(),
        },
    };
    let cfg = StreamConfig {
        connect: args.flag("connect").unwrap_or("127.0.0.1:4742").to_string(),
        connections: connections.clamp(1, 512) as usize,
        batch_lines: batch.clamp(1, 100_000) as usize,
        compress,
    };
    let progress = Progress::start();
    let result = if args.positional.is_empty() {
        let Some(scale) = args.flag_u64("scale", 65_536) else {
            return usage();
        };
        let Ok(config) = SynthConfig::new(scale) else {
            return usage();
        };
        let censor = match censor_from_flag(args) {
            Ok(kind) => kind,
            Err(code) => return code,
        };
        stream_corpus(&Corpus::new(config.with_censor(censor)), &cfg)
    } else {
        // Replayed files carry whatever mechanism produced them; a
        // `--censor` here would be silently ignored, so reject it.
        if args.flag("censor").is_some() {
            eprintln!("filterscope stream: --censor only applies to synthetic workloads (--scale)");
            return usage();
        }
        let paths: Vec<PathBuf> = args.positional.iter().map(PathBuf::from).collect();
        stream_files(&paths, &cfg)
    };
    match result {
        Ok(summary) => {
            eprintln!(
                "{} ({} batches, {} payload bytes, {} connection{})",
                progress.summary("streamed", summary.lines),
                summary.batches,
                summary.bytes,
                summary.per_connection.len(),
                if summary.per_connection.len() == 1 {
                    ""
                } else {
                    "s"
                },
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("stream failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Parse a `--time`-style instant: epoch seconds, `YYYY-MM-DD`
/// (midnight), or `YYYY-MM-DD HH:MM:SS` (`T` separator also accepted).
fn parse_instant(s: &str) -> Result<u64, String> {
    if !s.is_empty() && s.chars().all(|c| c.is_ascii_digit()) {
        return s.parse().map_err(|_| format!("bad instant `{s}`"));
    }
    let (date, time) = match s.split_once([' ', 'T']) {
        Some((d, t)) => (d, t),
        None => (s, "00:00:00"),
    };
    Timestamp::parse_fields(date, time)
        .map(|t| t.epoch_seconds().max(0) as u64)
        .map_err(|e| format!("bad instant `{s}`: {e}"))
}

/// Render an epoch instant as `YYYY-MM-DD HH:MM:SS`.
fn fmt_instant(t: u64) -> String {
    Timestamp::from_epoch_seconds(t.min(i64::MAX as u64) as i64).to_string()
}

/// `filterscope history LOG (at|diff|series|ls)`: windowed time-travel
/// queries over a `serve --snap-log` frame log. Every subcommand starts
/// from the same read: decode the clean frame prefix, then fold/inspect.
fn cmd_history(args: &Args) -> ExitCode {
    let (Some(log), Some(sub), true) = (
        args.positional.first(),
        args.positional.get(1),
        args.positional.len() == 2,
    ) else {
        eprintln!("filterscope history: expected `history LOG (at|diff|series|ls)`");
        return usage();
    };
    let (frames, report) = match read_frames(Path::new(log)) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("cannot read snapshot log {log}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match sub.as_str() {
        "at" => history_at(args, &frames),
        "diff" => history_diff(args, &frames),
        "series" => history_series(args, &frames),
        "ls" => history_ls(log, &frames, &report),
        other => {
            eprintln!("filterscope history: unknown subcommand `{other}`");
            usage()
        }
    }
}

/// `history LOG at --time T [--analysis KEY]`: reconstruct the suite as
/// of `T` and render it — the whole report by default (byte-identical to
/// `analyze` over the same records), or one registry analysis.
fn history_at(args: &Args, frames: &[Frame]) -> ExitCode {
    let Some(time) = args.flag("time") else {
        eprintln!("filterscope history at: --time T is required");
        return usage();
    };
    let t = match parse_instant(time) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("filterscope history at: {e}");
            return usage();
        }
    };
    let view = match suite_at(frames, t) {
        Ok(Some(view)) => view,
        Ok(None) => {
            eprintln!("no logged state at or before {}", fmt_instant(t));
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("history at failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "state as of {} ({} records, {} parse errors, {} frame{})",
        fmt_instant(t),
        view.records,
        view.parse_errors,
        view.frames_folded,
        if view.frames_folded == 1 { "" } else { "s" },
    );
    let ctx = AnalysisContext::standard(None);
    match args.flag("analysis") {
        None => println!("{}", view.suite.render_all(&ctx)),
        Some(key) => match view.suite.analysis(key) {
            Some(analysis) => println!("{}", analysis.render(&ctx)),
            None => {
                eprintln!("analysis `{key}` is not in the logged suite's selection");
                return ExitCode::FAILURE;
            }
        },
    }
    ExitCode::SUCCESS
}

/// `history LOG diff --from A --to B`: what changed between two instants
/// — headline counters plus per-category and per-domain censored deltas.
fn history_diff(args: &Args, frames: &[Frame]) -> ExitCode {
    let (Some(from), Some(to)) = (args.flag("from"), args.flag("to")) else {
        eprintln!("filterscope history diff: --from T and --to T are required");
        return usage();
    };
    let (a, b) = match (parse_instant(from), parse_instant(to)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("filterscope history diff: {e}");
            return usage();
        }
    };
    let d = match diff(frames, a, b) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("history diff failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{}  ->  {}", fmt_instant(d.from_ts), fmt_instant(d.to_ts));
    println!(
        "records:            {} -> {}  (+{})",
        d.records.0,
        d.records.1,
        d.records.1.saturating_sub(d.records.0)
    );
    println!(
        "censored (sampled): {} -> {}  (+{})",
        d.censored.0,
        d.censored.1,
        d.censored.1.saturating_sub(d.censored.0)
    );
    let table = |title: &str, label: &str, rows: &[filterscope::snapstore::DiffRow]| {
        if rows.is_empty() {
            println!("{title}: no change");
            return;
        }
        let mut t = Table::new(title, &[label, "From", "To", "Delta"]);
        for row in rows {
            t.row([
                row.name.clone(),
                row.from.to_string(),
                row.to.to_string(),
                format!("+{}", row.delta()),
            ]);
        }
        print!("{}", t.render());
    };
    table(
        "Censored categories that changed",
        "Category",
        &d.categories,
    );
    table("Censored domains that changed", "Domain", &d.domains);
    ExitCode::SUCCESS
}

/// `history LOG series --analysis KEY [--step SECS] [--json]`: one
/// analysis's headline metric per `step`-second window across the log.
fn history_series(args: &Args, frames: &[Frame]) -> ExitCode {
    let Some(key) = args.flag("analysis") else {
        eprintln!("filterscope history series: --analysis KEY is required");
        return usage();
    };
    let Some(step) = args.flag_u64("step", 86_400) else {
        return usage();
    };
    let points = match series(frames, key, step) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("history series failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.has_flag("json") {
        let mut arr = Vec::with_capacity(points.len());
        for p in &points {
            let mut obj = Json::object();
            obj.push("t0", Json::UInt(p.t0));
            obj.push("t1", Json::UInt(p.t1));
            obj.push("value", Json::UInt(p.value));
            obj.push("cumulative", Json::UInt(p.cumulative));
            arr.push(obj);
        }
        println!("{}", Json::Arr(arr).pretty());
        return ExitCode::SUCCESS;
    }
    let mut t = Table::new(
        format!("{key} per {step}s window"),
        &[
            "Window start",
            registry::entry(key).map_or("value", |e| e.metric_label),
            "Cumulative",
        ],
    );
    for p in &points {
        t.row([
            fmt_instant(p.t0),
            p.value.to_string(),
            p.cumulative.to_string(),
        ]);
    }
    print!("{}", t.render());
    ExitCode::SUCCESS
}

/// `history LOG ls`: the frame inventory plus an integrity verdict.
fn history_ls(log: &str, frames: &[Frame], report: &RecoveryReport) -> ExitCode {
    let mut t = Table::new(
        format!("{log}: {} frames", frames.len()),
        &[
            "Seq",
            "Kind",
            "Timestamp",
            "Key",
            "Bytes",
            "Records",
            "Parse errors",
        ],
    );
    for f in frames {
        // Counters are shown only for frames whose value decodes as a
        // suite payload; foreign keys still list structurally.
        let (records, errors) = match decode_value(&f.value) {
            Ok(v) => (v.records.to_string(), v.parse_errors.to_string()),
            Err(_) => ("-".to_string(), "-".to_string()),
        };
        t.row([
            f.seq.to_string(),
            f.kind.label().to_string(),
            fmt_instant(f.ts),
            f.key.clone(),
            f.value.len().to_string(),
            records,
            errors,
        ]);
    }
    print!("{}", t.render());
    if report.truncated_bytes > 0 {
        println!(
            "integrity: torn tail — the last {} bytes are not a complete \
             frame (truncated on the daemon's next open)",
            report.truncated_bytes
        );
    } else {
        println!("integrity: every frame CRC-checked clean");
    }
    ExitCode::SUCCESS
}

/// List the analysis registry: one row per key, in paper order.
fn cmd_analyses() -> ExitCode {
    let mut t = Table::new(
        "Analyses (paper order)",
        &["Key", "Default", "Cost", "Paper artifacts"],
    );
    for entry in REGISTRY {
        t.row([
            entry.key.to_string(),
            if entry.in_default_suite { "yes" } else { "no" }.to_string(),
            entry.cost.label().to_string(),
            entry.artifacts.to_string(),
        ]);
    }
    print!("{}", t.render());
    ExitCode::SUCCESS
}

/// `filterscope srclint [ROOT]` — run the source-invariant lint over the
/// workspace (same scan as the standalone `srclint` binary in tier-1).
fn cmd_srclint(args: &Args) -> ExitCode {
    let root = args.positional.first().map(String::as_str).unwrap_or(".");
    match interleave::srclint::check_workspace(std::path::Path::new(root)) {
        Ok(violations) if violations.is_empty() => {
            println!("srclint: clean");
            ExitCode::SUCCESS
        }
        Ok(violations) => {
            for v in &violations {
                eprintln!("{v}");
            }
            eprintln!("srclint: {} violation(s)", violations.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("srclint: cannot scan {root}: {e}");
            ExitCode::from(2)
        }
    }
}

/// Boolean flags (no value) of one subcommand.
fn bool_flags(command: &str) -> &'static [&'static str] {
    match command {
        "lint" => &["json"],
        "audit" => &["lint"],
        "history" => &["json"],
        _ => &[],
    }
}

/// The flag vocabulary of one subcommand ([`Args::parse`] rejects the rest).
fn allowed_flags(command: &str) -> Option<&'static [&'static str]> {
    Some(match command {
        "generate" => &["scale", "out", "censor", "threads"],
        "analyze" => &[
            "min-support",
            "geo",
            "categories",
            "json",
            "threads",
            "analyses",
            "skip",
        ],
        "audit" => &["min-support", "cpl", "threads", "analyses", "skip"],
        "policy" => &["out"],
        "compile" => &["out", "seed"],
        "lint" => &["against", "deny"],
        "report" => &["scale", "json", "threads", "analyses", "skip"],
        "replay" => &["scale", "out", "threads", "bench-json"],
        "weather" => &["min-support", "threads", "analyses", "skip"],
        "compare" => &["a", "b", "min-support"],
        "analyses" => &[],
        "serve" => &[
            "snapshots",
            "listen",
            "metrics",
            "every-ms",
            "min-support",
            "queue",
            "policy-artifact",
            "censor",
            "snap-log",
            "snap-log-max-bytes",
            "analyses",
            "skip",
        ],
        "history" => &["time", "from", "to", "analysis", "step"],
        "srclint" => &[],
        "stream" => &[
            "connect",
            "connections",
            "batch",
            "compress",
            "scale",
            "censor",
        ],
        _ => return None,
    })
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    // `filterscope --help` and `filterscope <cmd> --help` (or `-h`) print
    // the usage to stdout and succeed.
    if raw.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let mut raw = raw.into_iter();
    let Some(command) = raw.next() else {
        return usage();
    };
    let Some(allowed) = allowed_flags(&command) else {
        return usage();
    };
    let args = match Args::parse(raw, allowed, bool_flags(&command)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("filterscope {command}: {e}");
            return usage();
        }
    };
    match command.as_str() {
        "generate" => cmd_generate(&args),
        "analyze" => cmd_analyze(&args),
        "audit" => cmd_audit(&args),
        "policy" => cmd_policy(&args),
        "compile" => cmd_compile(&args),
        "lint" => cmd_lint(&args),
        "report" => cmd_report(&args),
        "replay" => cmd_replay(&args),
        "weather" => cmd_weather(&args),
        "compare" => cmd_compare(&args),
        "analyses" => cmd_analyses(),
        "serve" => cmd_serve(&args),
        "stream" => cmd_stream(&args),
        "history" => cmd_history(&args),
        "srclint" => cmd_srclint(&args),
        _ => usage(),
    }
}
