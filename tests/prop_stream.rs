//! Property tests for the streaming wire format: encode/decode roundtrip
//! over arbitrary frame sequences, and robustness of the decoder against
//! truncation and corruption — every malformed input must surface as an
//! error (or a shorter clean prefix), never a panic and never a bogus
//! frame with a corrupted payload. Plus serve ≡ analyze: a frame payload
//! counts its records exactly as file ingest counts the same bytes.

use filterscope::core::{Error, Timestamp};
use filterscope::logformat::frame::{batch_lines, Frame, HEADER_LEN, MAGIC};
use filterscope::logformat::{BlockParser, FrameKind, Schema};
use filterscope::prelude::*;
use filterscope::proxy::PolicyEngine;
use filterscope::stream::metrics::{ConnStats, ServerStats};
use filterscope::stream::proto::{ingest_batch, LineParser, Shard};
use interleave::IMutex;
use proptest::collection::vec;
use proptest::prelude::*;
use std::sync::OnceLock;

/// Build a frame from a generated `(kind selector, payload)` spec.
fn frame_from_spec(kind: u8, payload: Vec<u8>) -> Frame {
    let kind = match kind % 3 {
        0 => FrameKind::Hello,
        1 => FrameKind::Batch,
        _ => FrameKind::Bye,
    };
    Frame { kind, payload }
}

fn encode_stream(frames: &[Frame]) -> Vec<u8> {
    let mut wire = Vec::new();
    for f in frames {
        f.encode_into(&mut wire)
            .expect("payloads are under the cap");
    }
    wire
}

/// Drain a wire buffer: decoded frames plus the terminating condition
/// (`None` = clean EOF, `Some(e)` = decode error). Must always terminate
/// without panicking, whatever the input.
fn decode_all(wire: &[u8]) -> (Vec<Frame>, Option<Error>) {
    let mut cursor = std::io::Cursor::new(wire);
    let mut frames = Vec::new();
    loop {
        match Frame::read_from(&mut cursor) {
            Ok(Some(f)) => frames.push(f),
            Ok(None) => return (frames, None),
            Err(e) => return (frames, Some(e)),
        }
    }
}

proptest! {
    /// Any frame sequence roundtrips byte-exactly through the codec.
    #[test]
    fn roundtrip_preserves_every_frame(
        specs in vec((any::<u8>(), vec(any::<u8>(), 0..300)), 0..8),
    ) {
        let frames: Vec<Frame> = specs
            .into_iter()
            .map(|(k, p)| frame_from_spec(k, p))
            .collect();
        let wire = encode_stream(&frames);
        let (decoded, err) = decode_all(&wire);
        prop_assert!(err.is_none(), "clean wire must decode cleanly: {err:?}");
        prop_assert_eq!(decoded, frames);
    }

    /// Truncating a valid stream anywhere yields a clean prefix of the
    /// original frames — the decoder reports the cut (or a clean EOF at a
    /// frame boundary) instead of inventing or corrupting frames.
    #[test]
    fn truncation_yields_a_clean_prefix(
        specs in vec((any::<u8>(), vec(any::<u8>(), 0..200)), 1..6),
        cut_frac in 0u32..1000,
    ) {
        let frames: Vec<Frame> = specs
            .into_iter()
            .map(|(k, p)| frame_from_spec(k, p))
            .collect();
        let wire = encode_stream(&frames);
        let cut = wire.len() * cut_frac as usize / 1000;
        let (decoded, err) = decode_all(&wire[..cut]);
        prop_assert!(decoded.len() <= frames.len());
        prop_assert_eq!(&decoded[..], &frames[..decoded.len()]);
        // A strict truncation can never decode the whole stream cleanly.
        if cut < wire.len() {
            prop_assert!(
                err.is_some() || decoded.len() < frames.len(),
                "cut at {cut}/{} decoded everything", wire.len()
            );
        }
    }

    /// A single corrupted payload byte is always caught by the checksum:
    /// FNV-1a's per-byte step (xor, then multiply by an odd constant) is
    /// bijective, so same-length payloads differing in one byte can never
    /// collide.
    #[test]
    fn payload_corruption_is_always_detected(
        payload in vec(any::<u8>(), 1..300),
        pos_frac in 0u32..1000,
        flip in 1u8..=255,
    ) {
        let frame = Frame::batch(payload);
        let mut wire = encode_stream(std::slice::from_ref(&frame));
        let pos = HEADER_LEN + (frame.payload.len() * pos_frac as usize / 1000)
            .min(frame.payload.len() - 1);
        wire[pos] ^= flip;
        let (decoded, err) = decode_all(&wire);
        prop_assert!(decoded.is_empty(), "corrupt payload must not decode");
        prop_assert!(matches!(err, Some(Error::BadFrame(_))), "{err:?}");
    }

    /// Feeding the decoder arbitrary bytes terminates without panicking,
    /// and anything long enough to be a frame that does not open with the
    /// magic is rejected.
    #[test]
    fn arbitrary_bytes_never_panic(wire in vec(any::<u8>(), 0..600)) {
        let (_, err) = decode_all(&wire);
        if wire.len() >= HEADER_LEN && wire[..2] != MAGIC {
            prop_assert!(err.is_some(), "bad magic must be rejected");
        }
        if wire.is_empty() {
            prop_assert!(err.is_none(), "empty stream is a clean EOF");
        }
    }

    /// `batch_lines` covers the payload: every byte of every yielded line
    /// comes from the payload, lines carry no terminators, and rebuilding
    /// the payload from the lines loses only line endings and blanks.
    #[test]
    fn batch_lines_never_yield_terminators(payload in vec(any::<u8>(), 0..400)) {
        let mut rebuilt: Vec<u8> = Vec::new();
        for line in batch_lines(&payload) {
            prop_assert!(!line.is_empty());
            prop_assert!(!line.contains(&b'\n'));
            rebuilt.extend_from_slice(line);
        }
        let stripped: Vec<u8> = payload
            .split(|b| *b == b'\n')
            .map(|l| match l.last() {
                Some(b'\r') => &l[..l.len() - 1],
                _ => l,
            })
            .collect::<Vec<_>>()
            .concat();
        prop_assert_eq!(rebuilt, stripped);
    }
}

/// Genuine farm-produced CSV lines (allowed, denied and redirected).
fn valid_lines() -> &'static Vec<String> {
    static LINES: OnceLock<Vec<String>> = OnceLock::new();
    LINES.get_or_init(|| {
        let farm = ProxyFarm::standard();
        [
            "example.com",
            "metacafe.com",
            "upload.youtube.com",
            "1.2.3.4",
        ]
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

fn ctx() -> &'static AnalysisContext {
    static CTX: OnceLock<AnalysisContext> = OnceLock::new();
    CTX.get_or_init(|| AnalysisContext::standard(None))
}

/// One payload piece: a valid record line under one of the terminators
/// `\n`, `\r\n`, `\r\r\n`, `\n\n`, or a line that is not a record — a
/// lone `\r`, a blank, a comment, a corrupt (non-UTF-8) comment, or
/// printable garbage.
fn arb_piece() -> impl Strategy<Value = Vec<u8>> {
    let n = valid_lines().len();
    prop_oneof![
        (0..n, 0u8..4).prop_map(|(i, t)| {
            let end: &[u8] = match t {
                0 => b"\n",
                1 => b"\r\n",
                2 => b"\r\r\n",
                _ => b"\n\n",
            };
            [valid_lines()[i].as_bytes(), end].concat()
        }),
        Just(b"\r\n".to_vec()),
        Just(b"\n".to_vec()),
        "#[ -~]{0,30}".prop_map(|c| format!("{c}\n").into_bytes()),
        Just(b"#\xff\n".to_vec()),
        "[ -~]{0,60}".prop_map(|g| format!("{g}\n").into_bytes()),
    ]
}

proptest! {
    /// serve ≡ analyze: `ingest_batch` on a frame payload yields the same
    /// record count, parse-error count and summary JSON as parsing the
    /// same bytes with `BlockParser` and `ingest_block`, which is what
    /// file ingest does.
    #[test]
    fn frame_ingest_counts_like_file_ingest(pieces in vec(arb_piece(), 0..24)) {
        let payload = pieces.concat();
        let ctx = ctx();

        let delta = IMutex::new(Shard::new(AnalysisSuite::new(3)));
        let out = ingest_batch::<PolicyEngine>(
            &mut LineParser::new(),
            &payload,
            ctx,
            &delta,
            None,
            &ConnStats::new(0, "prop".to_string()),
            &ServerStats::new(),
        );
        let shard = delta.into_inner();

        let mut parser = BlockParser::new();
        let (views, malformed) = parser.parse(&payload, &Schema::canonical(), &mut 0);
        let mut suite = AnalysisSuite::new(3);
        suite.ingest_block(ctx, &views);

        prop_assert_eq!(
            (out.records, out.parse_errors),
            (views.len() as u64, malformed)
        );
        prop_assert_eq!((shard.records, shard.parse_errors), (out.records, out.parse_errors));
        prop_assert_eq!(shard.suite.summary_json(ctx), suite.summary_json(ctx));
    }
}
