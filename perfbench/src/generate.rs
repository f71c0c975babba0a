//! `generate_farm`: `filterscope generate --threads 2` of the scale-8192
//! corpus into the work directory.
//!
//! Stresses `synth` request generation, the `proxy` 7-proxy farm decisions
//! (`matcher` DFA, domain index, CIDR) and the `logformat` CSV write side;
//! parses and ingests nothing, so analysis-side changes should leave it
//! unchanged. `generate` takes no seed, so this workload is the same for
//! every seed and its output is pinned by hash.

use std::path::PathBuf;

use filterscope_logformat::fields::header_line;
use filterscope_logformat::ExceptionId;
use filterscope_synth::{Corpus, SynthConfig};

use crate::corpus::{self, Fnv, GENERATE_PIN, GENERATE_SCALE};
use crate::trace::Tracer;
use crate::{batch_run, proc, traced_pairs, Bench, Report, THREADS};

/// The largest scale `generate` accepts: every study day shrinks to its
/// floor of 100 records, so a run is almost all fixed set-up work.
const SETUP_SCALE: u64 = 751_295_830;

/// Requests per `ProxyFarm::process_batch` call, as `generate` batches them.
const PROCESS_BATCH: usize = 1024;

fn corpus() -> Result<Corpus, String> {
    Ok(Corpus::new(
        SynthConfig::new(GENERATE_SCALE).map_err(|e| e.to_string())?,
    ))
}

pub fn run(b: &Bench) -> Result<Report, String> {
    let volume = corpus()?.total_volume();
    let out = b.path("gen");
    let setup_out = b.path("gen_setup");
    let generate = |dir: &PathBuf, scale: u64, what: &str| -> Result<proc::Usage, String> {
        let _ = std::fs::remove_dir_all(dir);
        let mut cmd = b.program();
        cmd.arg("generate")
            .arg("--scale")
            .arg(scale.to_string())
            .arg("--threads")
            .arg(THREADS.to_string())
            .arg("--out")
            .arg(dir);
        proc::run_measured(&mut cmd, what)
    };
    // Every pass's output must hash to the pin and hold the corpus volume.
    let check = || -> Result<(), String> {
        let files = corpus::day_files(&out)?;
        let mut hash = Fnv::default();
        let mut records = 0u64;
        for f in &files {
            let bytes = std::fs::read(f).map_err(|e| e.to_string())?;
            hash.update(&bytes);
            records += corpus::data_lines(&bytes);
        }
        if records != volume {
            return Err(format!(
                "generate wrote {records} records, the corpus volume is {volume}"
            ));
        }
        if hash.finish() != GENERATE_PIN {
            return Err(format!(
                "generate output hashes to {:#018x}, pinned {GENERATE_PIN:#018x}",
                hash.finish()
            ));
        }
        Ok(())
    };

    let pass = || -> Result<proc::Usage, String> {
        let usage = generate(&out, GENERATE_SCALE, "generate")?;
        check()?;
        Ok(usage)
    };
    let setup = || generate(&setup_out, SETUP_SCALE, "generate (set-up)");
    let mut report = batch_run(b.seconds, volume, pass, setup)?;
    report.note(format!(
        "generate --scale {GENERATE_SCALE}: output hash pinned at {GENERATE_PIN:#018x}; \
         set-up runs --scale {SETUP_SCALE}"
    ));
    Ok(report)
}

/// The in-process twin of one `generate` pass, on one thread: per study
/// day, build the day's generator and farm, then draw requests in batches,
/// classify each batch through the farm and format the records as CSV into
/// a reused buffer. The bytes must hash to the same pin as the program's
/// files.
fn rep(corpus: &Corpus, traced: bool) -> Result<(Report, Tracer, f64), String> {
    let mut t = Tracer::new(traced);
    let started = t.now();
    let header = format!("#Software: SGOS 4.1.4\n{}\n", header_line());
    let (mut reqs, mut recs, mut line) = (Vec::new(), Vec::new(), String::new());
    let (mut requests, mut denied, mut redirected, mut batch) = (0u64, 0u64, 0u64, 0u64);
    let mut days = Vec::new();
    for (d, day) in corpus.config().period.days().iter().enumerate() {
        let (generator, farm) = t.time("synth.day_setup_s", d as u64, || {
            (corpus.day_generator(*day), corpus.farm_for(*day))
        });
        let mut out = Vec::new();
        if generator.volume() > 0 {
            out.extend_from_slice(header.as_bytes());
        }
        let mut it = generator.iter();
        loop {
            batch += 1;
            let span = t.begin("synth.requests_s", batch);
            reqs.clear();
            reqs.extend(it.by_ref().take(PROCESS_BATCH));
            t.end(span);
            if reqs.is_empty() {
                break;
            }
            recs.clear();
            t.time("proxy.process_s", batch, || {
                farm.process_batch(&reqs, &mut recs)
            });
            let span = t.begin("logformat.write_s", batch);
            for rec in &recs {
                line.clear();
                rec.write_csv_into(&mut line);
                line.push('\n');
                out.extend_from_slice(line.as_bytes());
            }
            t.end(span);
            requests += reqs.len() as u64;
            denied += recs
                .iter()
                .filter(|r| r.exception == ExceptionId::PolicyDenied)
                .count() as u64;
            redirected += recs
                .iter()
                .filter(|r| r.exception == ExceptionId::PolicyRedirect)
                .count() as u64;
        }
        days.push(out);
    }
    let wall = t.now() - started;
    let mut hash = Fnv::default();
    for day in &days {
        hash.update(day);
    }
    if requests != corpus.total_volume() || hash.finish() != GENERATE_PIN {
        return Err(format!(
            "in-process generation made {requests} records hashing to {:#018x}; \
             expected {} records and the pinned {GENERATE_PIN:#018x}",
            hash.finish(),
            corpus.total_volume()
        ));
    }
    let mut report = Report {
        attempted: requests,
        ..Report::default()
    };
    report.set("synth.requests", requests as f64);
    report.set("proxy.denied", denied as f64);
    report.set("proxy.redirected", redirected as f64);
    report.set(
        "logformat.write_bytes",
        days.iter().map(Vec::len).sum::<usize>() as f64,
    );
    Ok((report, t, wall))
}

pub fn trace(b: &Bench) -> Result<Report, String> {
    let corpus = corpus()?;
    let (mut report, tracer) = traced_pairs(b.seconds, |traced| rep(&corpus, traced))?;
    let path = b.keep("generate_farm.spans.jsonl", |p| tracer.write_jsonl(p))?;
    report.note(format!(
        "{} spans written to {}",
        tracer.spans().len(),
        path.display()
    ));
    Ok(report)
}
