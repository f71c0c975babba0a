//! The policy artifact: one versioned, CRC-checked binary file carrying a
//! policy's source CPL and its engine seed.
//!
//! `filterscope compile` writes a policy into a single
//! `header + section table + payload` file; `serve --policy-artifact`
//! opens it at startup and on every hot reload. Opening checks the whole
//! container, parses the embedded CPL and builds the engine exactly as
//! [`PolicyEngine::from_data`] does, so the artifact holds one copy of the
//! policy and the engine can never disagree with it.
//!
//! ## Layout (all integers little-endian)
//!
//! ```text
//! magic        b"FSCP"
//! version      u32         (= 1)
//! section_count u32
//! section table, one row per section, sorted by id:
//!     id       u32
//!     offset   u64         relative to payload start
//!     len      u64
//!     crc      u32         CRC-32/ISO-HDLC of the section bytes
//! header_crc   u32         CRC-32 of every header byte above
//! payload      the sections, contiguous and in table order
//! ```
//!
//! `compile` writes two sections: [`SEC_SOURCE_CPL`] (the CPL text) and
//! [`SEC_META`] (the engine seed). Every structural invariant is
//! re-validated on load and any violation — bad magic, unknown version,
//! table rows out of order or out of bounds, CRC mismatch anywhere,
//! trailing bytes, a CPL that does not parse — fails closed with an error.
//! Sections with other ids are CRC-checked and then ignored; version-1
//! artifacts from older builds also carried serialized matcher tables
//! under ids 2–8, and those still load and decide by their source.

use crate::cpl::{parse_cpl, to_cpl};
use crate::engine::PolicyEngine;
use crate::policy_data::PolicyData;
use filterscope_core::{crc32, ByteReader, ByteWriter, Error, Result};
use filterscope_tor::RelayIndex;
use std::sync::Arc;

/// File magic: "FilterScope Compiled Policy".
pub const MAGIC: [u8; 4] = *b"FSCP";

/// Current artifact format version.
pub const VERSION: u32 = 1;

/// Section id of the policy's CPL text.
pub const SEC_SOURCE_CPL: u32 = 1;
/// Section id of the engine seed (`u64`).
pub const SEC_META: u32 = 9;

/// Upper bound on the section count a loader will accept.
const MAX_SECTIONS: usize = 64;

/// Bytes per section-table row: id + offset + len + crc.
const TABLE_ROW_LEN: usize = 4 + 8 + 8 + 4;

fn bad(what: impl Into<String>) -> Error {
    Error::InvalidConfig(format!("policy artifact: {}", what.into()))
}

/// A policy loaded from an artifact: the ready-to-serve engine plus the
/// source it was built from.
pub struct CompiledPolicy {
    /// The engine, built from `source` with `seed`.
    pub engine: PolicyEngine,
    /// The source policy, parsed from the embedded CPL section.
    pub source: PolicyData,
    /// Engine seed recorded at compile time.
    pub seed: u64,
}

/// Serialize `policy` into artifact bytes. `seed` is the engine seed
/// recorded in the META section and used by deterministic tiers (the Tor
/// window model) after load.
pub fn compile(policy: &PolicyData, seed: u64) -> Vec<u8> {
    let mut cpl = ByteWriter::new();
    cpl.put_str(&to_cpl(policy));
    let mut meta = ByteWriter::new();
    meta.put_u64(seed);
    assemble(&[
        (SEC_SOURCE_CPL, cpl.into_bytes()),
        (SEC_META, meta.into_bytes()),
    ])
}

/// Lay `sections` (sorted by id) out as header, section table, header CRC
/// and payload.
fn assemble(sections: &[(u32, Vec<u8>)]) -> Vec<u8> {
    let mut header = ByteWriter::new();
    header.put_raw(&MAGIC);
    header.put_u32(VERSION);
    header.put_u32(sections.len() as u32);
    let mut offset = 0u64;
    for (id, body) in sections {
        header.put_u32(*id);
        header.put_u64(offset);
        header.put_u64(body.len() as u64);
        header.put_u32(crc32(body));
        offset += body.len() as u64;
    }
    let header_crc = crc32(header.as_slice());
    header.put_u32(header_crc);

    let mut out = header.into_bytes();
    for (_, body) in sections {
        out.extend_from_slice(body);
    }
    out
}

/// Open an artifact, validating magic, version, the section table, the
/// header CRC, and every per-section CRC before touching any body, then
/// build the engine from the embedded CPL. `relays` enables the SG-44 Tor
/// rule on the loaded engine, exactly as in [`PolicyEngine::from_data`].
pub fn load(bytes: &[u8], relays: Option<Arc<RelayIndex>>) -> Result<CompiledPolicy> {
    let mut r = ByteReader::new(bytes);
    if r.get_raw(4)
        .map_err(|_| bad("file shorter than the magic"))?
        != MAGIC
    {
        return Err(bad("bad magic (not an FSCP artifact)"));
    }
    let version = r.get_u32()?;
    if version != VERSION {
        return Err(bad(format!(
            "unsupported version {version} (this build reads {VERSION})"
        )));
    }
    let section_count = r.get_u32()? as usize;
    if section_count == 0 || section_count > MAX_SECTIONS {
        return Err(bad("section count outside [1, 64]"));
    }

    // Read the table, then check the header CRC before trusting any row.
    let header_len = 4 + 4 + 4 + section_count * TABLE_ROW_LEN;
    let mut table = Vec::with_capacity(section_count);
    for _ in 0..section_count {
        let id = r.get_u32()?;
        let offset = r.get_u64()?;
        let len = r.get_u64()?;
        let crc = r.get_u32()?;
        table.push((id, offset, len, crc));
    }
    let stored_header_crc = r.get_u32()?;
    if crc32(&bytes[..header_len]) != stored_header_crc {
        return Err(bad("header CRC mismatch"));
    }

    let payload = &bytes[header_len + 4..];
    // Rows must be sorted by id (no duplicates) and tile the payload
    // exactly — contiguous, in order, no gaps, no trailing bytes.
    let mut expect_offset = 0u64;
    for (i, &(id, offset, len, _)) in table.iter().enumerate() {
        if i > 0 && id <= table[i - 1].0 {
            return Err(bad("section ids out of order or duplicated"));
        }
        if offset != expect_offset {
            return Err(bad("section offsets are not contiguous"));
        }
        expect_offset = offset
            .checked_add(len)
            .ok_or_else(|| bad("section extent overflows"))?;
    }
    if expect_offset != payload.len() as u64 {
        return Err(bad("payload length disagrees with the section table"));
    }

    let section = |id: u32| -> Result<&[u8]> {
        let &(_, offset, len, crc) = table
            .iter()
            .find(|row| row.0 == id)
            .ok_or_else(|| bad(format!("required section {id} is missing")))?;
        let body = &payload[offset as usize..(offset + len) as usize];
        if crc32(body) != crc {
            return Err(bad(format!("section {id} CRC mismatch")));
        }
        Ok(body)
    };
    // Verify every CRC up front, including sections this version ignores.
    for &(id, _, _, _) in &table {
        section(id)?;
    }

    let mut r = ByteReader::new(section(SEC_SOURCE_CPL)?);
    let source = parse_cpl(r.get_str()?)?;
    r.expect_exhausted()?;

    let mut r = ByteReader::new(section(SEC_META)?);
    let seed = r.get_u64()?;
    r.expect_exhausted()?;

    Ok(CompiledPolicy {
        engine: PolicyEngine::from_data(&source, relays, seed),
        source,
        seed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProxyConfig;
    use crate::decision::{Decision, Trigger};
    use crate::request::Request;
    use filterscope_core::Timestamp;
    use filterscope_logformat::RequestUrl;

    fn probe_urls() -> Vec<RequestUrl> {
        vec![
            RequestUrl::http("google.com", "/tbproxy/af/query"),
            RequestUrl::http("metacafe.com", "/"),
            RequestUrl::http("www.facebook.com", "/Syrian.Revolution").with_query("ref=ts"),
            RequestUrl::http("upload.youtube.com", "/upload"),
            RequestUrl::http("84.229.13.7", "/"),
            RequestUrl::http("example.org", "/benign"),
            RequestUrl::http("panet.co.il", "/"),
            RequestUrl::http("example.com", "/x").with_query("q=UltraSurf"),
        ]
    }

    fn str_section(text: &str) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_str(text);
        w.into_bytes()
    }

    fn seed_section(seed: u64) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u64(seed);
        w.into_bytes()
    }

    #[test]
    fn roundtrip_preserves_every_decision() {
        let policy = PolicyData::standard();
        let bytes = compile(&policy, 7);
        let loaded = load(&bytes, None).unwrap();
        let reference = PolicyEngine::from_data(&policy, None, 7);
        for url in probe_urls() {
            assert_eq!(
                loaded.engine.decide_url(&url),
                reference.decide_url(&url),
                "{url:?}"
            );
        }
        assert_eq!(loaded.source, policy);
        assert_eq!(loaded.seed, 7);
    }

    #[test]
    fn loaded_engine_runs_the_full_decide_path() {
        let bytes = compile(&PolicyData::standard(), 42);
        let loaded = load(&bytes, None).unwrap();
        let cfg = ProxyConfig::standard(filterscope_core::ProxyId::Sg42);
        let ts = Timestamp::parse_fields("2011-08-03", "09:00:00").unwrap();
        let req = Request::get(ts, RequestUrl::http("google.com", "/tbproxy/af/query"));
        assert_eq!(
            loaded.engine.decide(&cfg, &req),
            Decision::Deny(Trigger::Keyword)
        );
    }

    #[test]
    fn bad_magic_and_version_fail_closed() {
        let bytes = compile(&PolicyData::standard(), 1);
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(load(&bad_magic, None).is_err());
        let mut bad_version = bytes.clone();
        bad_version[4..8].copy_from_slice(&99u32.to_le_bytes());
        assert!(load(&bad_version, None).is_err());
        assert!(load(&bytes[..3], None).is_err());
    }

    #[test]
    fn every_truncation_fails_closed() {
        let bytes = compile(&PolicyData::standard(), 1);
        // Sample prefixes (every length would be slow on a full policy).
        for cut in (0..bytes.len()).step_by(101).chain([bytes.len() - 1]) {
            assert!(load(&bytes[..cut], None).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn single_bit_flips_fail_closed() {
        // A small policy keeps the exhaustive bit-flip sweep fast.
        let policy = PolicyData {
            keywords: vec!["proxy".into()],
            blocked_domains: vec!["il".into()],
            blocked_subnets: vec![filterscope_core::Ipv4Cidr::parse("84.228.0.0/15").unwrap()],
            redirect_hosts: vec!["upload.youtube.com".into()],
            custom_pages: vec![("www.facebook.com".into(), "/Syrian.Revolution".into())],
            custom_queries: vec!["ref=ts".into(), String::new()],
        };
        let bytes = compile(&policy, 3);
        let reference = load(&bytes, None).unwrap();
        let probes = probe_urls();
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[i] ^= 1 << bit;
                // Either the loader rejects the flip, or (CRC collision —
                // impossible for single-bit flips, but keep the invariant
                // honest) the loaded engine still decides identically.
                if let Ok(loaded) = load(&flipped, None) {
                    for url in &probes {
                        assert_eq!(
                            loaded.engine.decide_url(url),
                            reference.engine.decide_url(url),
                            "flip byte {i} bit {bit} changed a decision"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn missing_required_section_fails_closed() {
        let only_meta = assemble(&[(SEC_META, seed_section(1))]);
        let cpl = str_section(&to_cpl(&PolicyData::standard()));
        let only_cpl = assemble(&[(SEC_SOURCE_CPL, cpl)]);
        for bytes in [only_meta, only_cpl] {
            let err = match load(&bytes, None) {
                Err(e) => e.to_string(),
                Ok(_) => panic!("artifact without a required section must be rejected"),
            };
            assert!(err.contains("missing"), "{err}");
        }
    }

    #[test]
    fn unparseable_cpl_fails_closed() {
        // Every CRC is valid; only the policy text is wrong.
        let bytes = assemble(&[
            (SEC_SOURCE_CPL, str_section("define condition\n")),
            (SEC_META, seed_section(1)),
        ]);
        assert!(load(&bytes, None).is_err());
    }
}
