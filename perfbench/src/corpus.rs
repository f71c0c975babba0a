//! Seeded input corpora and the content hashes that pin them.
//!
//! `filterscope generate` has no seed flag, so the benchmark writes the
//! seeded Blue Coat corpora itself through the synth library, byte for
//! byte in the layout `generate` uses (per-day files, ELFF header, one CSV
//! line per record). The program under test only ever sees the files.
//!
//! A seed selects one of [`VARIANTS`] synth seeds. Every variant's content
//! hash is pinned below, so a change to `synth` (or to the CSV writer)
//! fails the run as a changed workload instead of reading as a speed-up or
//! slow-down. Re-pin with `perfbench --print-pins` in a change of its own.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

use filterscope_logformat::fields::header_line;
use filterscope_synth::{Corpus, SynthConfig};

/// Seeds map onto this many synth seeds.
pub const VARIANTS: u64 = 8;

/// Corpus scale of `analyze_full` (1/8192 of the study: 91,707 records).
pub const ANALYZE_SCALE: u64 = 8192;
/// Corpus scale of `serve_paced` (1/2048 of the study: 366,840 records).
pub const SERVE_SCALE: u64 = 2048;
/// Scale `generate_farm` asks the program for (the program's own seed).
pub const GENERATE_SCALE: u64 = 8192;

/// `(scale, variant, FNV-1a 64 of the day files in period order)`.
const PINS: &[(u64, u64, u64)] = &[
    (8192, 0, 0x1b2b_4028_01b9_f3e6),
    (8192, 1, 0x9389_c2a4_351d_dbdb),
    (8192, 2, 0x2e3b_d40c_85b3_dec7),
    (8192, 3, 0x72b7_a69f_68fc_233f),
    (8192, 4, 0xfe60_2029_bb55_b1b2),
    (8192, 5, 0x11cc_1ea5_ab5a_1fbf),
    (8192, 6, 0x82d7_c3aa_8a6e_7a40),
    (8192, 7, 0x6a9f_e472_9d51_ef03),
    (2048, 0, 0xc46b_ebc4_7f94_741c),
    (2048, 1, 0xac5e_57b5_105f_4e6d),
    (2048, 2, 0x1a81_7aa6_9958_915c),
    (2048, 3, 0x424d_4cda_5b5a_ce52),
    (2048, 4, 0x9292_64d9_b0a0_77d6),
    (2048, 5, 0xa5fb_a276_3381_dfbe),
    (2048, 6, 0x41fd_d470_cb29_0fdb),
    (2048, 7, 0x79ae_e030_9bdb_d947),
];

/// FNV-1a 64 of `generate --scale GENERATE_SCALE` output (period order):
/// the bytes of variant 0, whose synth seed is the program's default.
pub const GENERATE_PIN: u64 = 0x1b2b_4028_01b9_f3e6;

/// The synth seed of variant `seed % VARIANTS`.
pub fn synth_seed(seed: u64) -> u64 {
    SynthConfig::new(1).expect("scale 1 is valid").seed + seed % VARIANTS
}

/// The pinned hash of a seeded corpus, if the pin table has one.
pub fn pin(scale: u64, seed: u64) -> Option<u64> {
    PINS.iter()
        .find(|(s, v, _)| *s == scale && *v == seed % VARIANTS)
        .map(|(_, _, h)| *h)
}

/// Streaming 64-bit FNV-1a.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Hash files in the given order.
pub fn hash_files(paths: &[PathBuf]) -> Result<u64, String> {
    let mut h = Fnv::default();
    for p in paths {
        let bytes = std::fs::read(p).map_err(|e| format!("cannot read {}: {e}", p.display()))?;
        h.update(&bytes);
    }
    Ok(h.finish())
}

/// The `*.log` files of `dir`, sorted by name (= period order).
pub fn day_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot list {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "log"))
        .collect();
    files.sort();
    Ok(files)
}

/// Count data lines (not `#` headers) in `bytes`.
pub fn data_lines(bytes: &[u8]) -> u64 {
    bytes
        .split(|&b| b == b'\n')
        .filter(|l| !l.is_empty() && l[0] != b'#')
        .count() as u64
}

/// A seeded corpus written to disk.
#[derive(Debug)]
pub struct SeededCorpus {
    pub files: Vec<PathBuf>,
    pub records: u64,
    pub bytes: u64,
    pub hash: u64,
}

/// Write the seeded corpus at `scale` into `dir` on `threads` threads:
/// each (day × shard) unit becomes a part file, parts are concatenated in
/// plan order behind the ELFF header, exactly as `generate` lays them out.
pub fn write_seeded(
    dir: &Path,
    scale: u64,
    seed: u64,
    threads: usize,
) -> Result<SeededCorpus, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let config = SynthConfig::new(scale)
        .map_err(|e| format!("bad scale {scale}: {e}"))?
        .with_seed(synth_seed(seed));
    let corpus = Corpus::new(config);
    let part =
        |date: &dyn std::fmt::Display, shard: usize| dir.join(format!("{date}.part{shard:04}"));
    let written = corpus.par_map_day_shards(threads, 0, |unit, records| -> Result<u64, String> {
        let path = part(&unit.day.date, unit.shard);
        let mut out = BufWriter::new(File::create(&path).map_err(|e| e.to_string())?);
        let mut line = String::new();
        let mut n = 0u64;
        for rec in records {
            line.clear();
            rec.write_csv_into(&mut line);
            line.push('\n');
            out.write_all(line.as_bytes()).map_err(|e| e.to_string())?;
            n += 1;
        }
        out.flush().map_err(|e| e.to_string())?;
        Ok(n)
    });
    let plan = corpus.shard_plan(0);
    let header = format!("#Software: SGOS 4.1.4\n{}\n", header_line());
    let mut hash = Fnv::default();
    let (mut files, mut records, mut bytes) = (Vec::new(), 0u64, 0u64);
    let mut i = 0;
    while i < plan.len() {
        let day = plan[i].day;
        let units = &plan[i..i + plan[i].shards];
        let path = dir.join(format!("sg_access_{}.log", day.date));
        let mut out = Vec::new();
        if units.iter().any(|u| !u.is_empty()) {
            out.extend_from_slice(header.as_bytes());
        }
        for (unit, n) in units.iter().zip(&written[i..i + units.len()]) {
            records += n
                .as_ref()
                .map_err(|e| format!("day {}: {e}", unit.day.date))?;
            let p = part(&unit.day.date, unit.shard);
            out.extend(std::fs::read(&p).map_err(|e| format!("{}: {e}", p.display()))?);
            std::fs::remove_file(&p).map_err(|e| format!("{}: {e}", p.display()))?;
        }
        std::fs::write(&path, &out).map_err(|e| format!("{}: {e}", path.display()))?;
        hash.update(&out);
        bytes += out.len() as u64;
        files.push(path);
        i += units.len();
    }
    if records != corpus.total_volume() {
        return Err(format!(
            "seeded corpus holds {records} records, synth promised {}",
            corpus.total_volume()
        ));
    }
    Ok(SeededCorpus {
        files,
        records,
        bytes,
        hash: hash.finish(),
    })
}

/// Fail unless `corpus` matches its pin.
pub fn check_pin(corpus: &SeededCorpus, scale: u64, seed: u64) -> Result<(), String> {
    match pin(scale, seed) {
        Some(h) if h == corpus.hash => Ok(()),
        Some(h) => Err(format!(
            "seeded corpus (scale {scale}, variant {}) hashes to {:#018x}, pinned {h:#018x}: \
             the synth output changed, so this is a different workload",
            seed % VARIANTS,
            corpus.hash
        )),
        None => Err(format!(
            "no pin for scale {scale}, variant {}",
            seed % VARIANTS
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        let h = |s: &str| {
            let mut f = Fnv::default();
            f.update(s.as_bytes());
            f.finish()
        };
        assert_eq!(h(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(h("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(h("foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn every_variant_is_pinned_at_both_scales() {
        for v in 0..VARIANTS {
            assert!(pin(ANALYZE_SCALE, v).is_some(), "analyze variant {v}");
            assert!(pin(SERVE_SCALE, v).is_some(), "serve variant {v}");
        }
        assert_eq!(synth_seed(3), synth_seed(3 + VARIANTS));
    }

    #[test]
    fn data_lines_skip_headers_and_blanks() {
        assert_eq!(data_lines(b"#Software: x\n#Fields: a\n1,2\n\n3,4\n5,6"), 3);
    }
}
