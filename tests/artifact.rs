//! Golden pin of the compiled policy artifact's on-disk layout.
//!
//! The `FSCP` format is a durability contract: artifacts compiled today
//! must open under tomorrow's binary (same version) and artifacts from a
//! different version must be rejected, not misread. These tests decode
//! the header by hand — independent of the reader in
//! `filterscope::proxy::artifact` — so a layout drift fails even if the
//! encoder and decoder drift together.
//!
//! Layout under pin (all integers little-endian):
//!
//! ```text
//! magic  b"FSCP"          4 bytes
//! version u32             = 1
//! section_count u32
//! section table           count × (id u32, offset u64, len u64, crc u32)
//! header_crc u32          CRC-32 of everything above
//! payload                 sections tiled contiguously from offset 0
//! ```

use filterscope::core::crc32;
use filterscope::logformat::RequestUrl;
use filterscope::proxy::artifact::{compile, load};
use filterscope::proxy::{PolicyData, PolicyEngine};

/// `filterscope compile standard` output from the build that still wrote
/// serialized matcher tables (sections 1–7 and 9, 13,102 bytes). Version-1
/// artifacts like it must keep loading, and decide by their source CPL.
const STANDARD_V1: &[u8] = include_bytes!("data/standard_v1.fscp");

fn u32_at(b: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(b[off..off + 4].try_into().unwrap())
}

fn u64_at(b: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(b[off..off + 8].try_into().unwrap())
}

/// Section ids in table order, after checking that the rows tile the
/// payload contiguously and that the header CRC and every section CRC
/// hold.
fn section_ids(bytes: &[u8]) -> Vec<u32> {
    assert_eq!(&bytes[..4], b"FSCP", "magic");
    assert_eq!(u32_at(bytes, 4), 1, "format version");
    let sections = u32_at(bytes, 8) as usize;
    let header_len = 12 + sections * 24;
    assert_eq!(
        u32_at(bytes, header_len),
        crc32(&bytes[..header_len]),
        "header CRC"
    );
    let payload = &bytes[header_len + 4..];
    let mut ids = Vec::new();
    let mut next_offset = 0u64;
    for i in 0..sections {
        let row = 12 + i * 24;
        ids.push(u32_at(bytes, row));
        let (offset, len) = (u64_at(bytes, row + 4), u64_at(bytes, row + 12));
        assert_eq!(offset, next_offset, "section {i} offset");
        let body = &payload[offset as usize..(offset + len) as usize];
        assert_eq!(u32_at(bytes, row + 20), crc32(body), "section {i} CRC");
        next_offset += len;
    }
    assert_eq!(
        payload.len() as u64,
        next_offset,
        "payload tiles the file exactly"
    );
    ids
}

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

#[test]
fn artifact_header_layout_is_pinned() {
    let bytes = compile(&PolicyData::standard(), 5);
    // 1 = source CPL, 9 = meta (the engine seed).
    assert_eq!(section_ids(&bytes), vec![1, 9], "section ids");
    // The meta section is the seed, and it closes the file.
    assert_eq!(u64_at(&bytes, bytes.len() - 8), 5, "seed");
}

#[test]
fn compilation_is_deterministic() {
    let a = compile(&PolicyData::standard(), 3);
    let b = compile(&PolicyData::standard(), 3);
    assert_eq!(a, b, "identical inputs produce byte-identical artifacts");
    load(&a, None).expect("the pinned artifact loads");
}

#[test]
fn older_version_1_artifact_loads_and_decides_by_its_source() {
    assert_eq!(STANDARD_V1.len(), 13_102);
    assert_eq!(section_ids(STANDARD_V1), vec![1, 2, 3, 4, 5, 6, 7, 9]);
    let loaded = load(STANDARD_V1, None).expect("older artifact loads");
    assert_eq!(loaded.source, PolicyData::standard());
    assert_eq!(loaded.seed, 0);
    let reference = PolicyEngine::standard(None, 0);
    for url in probe_urls() {
        assert_eq!(
            loaded.engine.decide_url(&url),
            reference.decide_url(&url),
            "{url:?}"
        );
    }
}

#[test]
fn older_artifact_sections_are_still_crc_checked() {
    // Flip one byte inside each section the loader ignores (2–7); the
    // CRC check still rejects the file.
    let header_len = 12 + 8 * 24 + 4;
    for row in 1..7 {
        let offset = u64_at(STANDARD_V1, 12 + row * 24 + 4) as usize;
        let mut bad = STANDARD_V1.to_vec();
        bad[header_len + offset] ^= 0x01;
        assert!(load(&bad, None).is_err(), "section row {row}");
    }
}
