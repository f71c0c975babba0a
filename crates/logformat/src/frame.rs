//! Length-framed record batches for the streaming ingest path.
//!
//! `filterscope serve` accepts live ELFF records over TCP; this module
//! fixes the wire format. A stream is a sequence of self-delimiting
//! frames, each carrying a kind tag, a length, a checksum, and a payload:
//!
//! ```text
//! offset  size  field
//! 0       2     magic 0xF5 0xC0
//! 2       1     kind (1 = Hello, 2 = Batch, 3 = Bye)
//! 3       1     reserved, must be 0
//! 4       4     payload length, u32 little-endian (≤ MAX_PAYLOAD)
//! 8       4     FNV-1a 32 checksum of the payload, u32 little-endian
//! 12      len   payload
//! ```
//!
//! * **Hello** — sent once at connection start; the payload is a UTF-8
//!   source label (`sg-42`, …) used by the server's metrics endpoint.
//! * **Batch** — the payload is newline-separated canonical-schema ELFF
//!   data lines (no `#` header lines). The server parses the payload as one
//!   block with [`crate::BlockParser`] straight out of the frame buffer,
//!   under the same line rules as file ingest.
//! * **Bye** — clean end of stream; the payload is empty. A connection
//!   that ends without `Bye` is treated as a mid-stream disconnect
//!   (everything already ingested is kept).
//!
//! The decoder is strict and total: bad magic, an unknown kind, a nonzero
//! reserved byte, an oversize length, a checksum mismatch, or truncation
//! mid-frame all surface as [`Error::BadFrame`] / [`Error::Io`] — never a
//! panic and never an allocation proportional to a corrupt length field
//! beyond [`MAX_PAYLOAD`]. A clean EOF at a frame boundary decodes as
//! `Ok(None)`.

use filterscope_core::{Error, Result};
use std::io::{ErrorKind, Read, Write};

/// Leading magic bytes of every frame.
pub const MAGIC: [u8; 2] = [0xF5, 0xC0];

/// Hard ceiling on one frame's payload (8 MiB). Large enough for any
/// sane batch, small enough that a corrupt length field cannot make the
/// decoder allocate unbounded memory.
pub const MAX_PAYLOAD: usize = 8 * 1024 * 1024;

/// Bytes of framing before the payload (magic, kind, reserved, length,
/// checksum).
pub const HEADER_LEN: usize = 12;

/// Frame kind tag (byte 2 of the header).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Connection preamble carrying the source label.
    Hello,
    /// A batch of newline-separated ELFF data lines.
    Batch,
    /// Clean end of stream.
    Bye,
}

impl FrameKind {
    fn to_byte(self) -> u8 {
        match self {
            FrameKind::Hello => 1,
            FrameKind::Batch => 2,
            FrameKind::Bye => 3,
        }
    }

    fn from_byte(b: u8) -> Option<FrameKind> {
        match b {
            1 => Some(FrameKind::Hello),
            2 => Some(FrameKind::Batch),
            3 => Some(FrameKind::Bye),
            _ => None,
        }
    }
}

/// One decoded frame: the kind tag plus the owned payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// What the payload means.
    pub kind: FrameKind,
    /// The payload (checksum-verified by the decoder).
    pub payload: Vec<u8>,
}

impl Frame {
    /// A `Hello` frame carrying `label` as the source name.
    pub fn hello(label: &str) -> Frame {
        Frame {
            kind: FrameKind::Hello,
            payload: label.as_bytes().to_vec(),
        }
    }

    /// A `Batch` frame over newline-separated ELFF lines.
    pub fn batch(lines: Vec<u8>) -> Frame {
        Frame {
            kind: FrameKind::Batch,
            payload: lines,
        }
    }

    /// The clean end-of-stream marker.
    pub fn bye() -> Frame {
        Frame {
            kind: FrameKind::Bye,
            payload: Vec::new(),
        }
    }

    /// Encode this frame into `out` (appended; `out` is not cleared).
    /// Fails only when the payload exceeds [`MAX_PAYLOAD`].
    pub fn encode_into(&self, out: &mut Vec<u8>) -> Result<()> {
        if self.payload.len() > MAX_PAYLOAD {
            return Err(Error::BadFrame(format!(
                "payload of {} bytes exceeds the {MAX_PAYLOAD}-byte frame ceiling",
                self.payload.len()
            )));
        }
        out.extend_from_slice(&MAGIC);
        out.push(self.kind.to_byte());
        out.push(0);
        out.extend_from_slice(&(self.payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&fnv1a(&self.payload).to_le_bytes());
        out.extend_from_slice(&self.payload);
        Ok(())
    }

    /// Encode this frame and write it to `w`.
    pub fn write_to(&self, w: &mut impl Write) -> Result<()> {
        let mut buf = Vec::with_capacity(HEADER_LEN + self.payload.len());
        self.encode_into(&mut buf)?;
        w.write_all(&buf).map_err(Error::from)
    }

    /// Decode the next frame from `r`.
    ///
    /// Returns `Ok(None)` on a clean EOF at a frame boundary, and an error
    /// for every malformed input: truncation mid-frame ([`Error::Io`]),
    /// bad magic / kind / reserved byte / length / checksum
    /// ([`Error::BadFrame`]). After an error the stream position is
    /// undefined; callers drop the connection rather than resync.
    pub fn read_from(r: &mut impl Read) -> Result<Option<Frame>> {
        let mut header = [0u8; HEADER_LEN];
        match read_exact_or_eof(r, &mut header)? {
            ReadOutcome::Eof => return Ok(None),
            ReadOutcome::Full => {}
        }
        if header[..2] != MAGIC {
            return Err(Error::BadFrame(format!(
                "bad magic {:02x}{:02x}",
                header[0], header[1]
            )));
        }
        let kind = FrameKind::from_byte(header[2])
            .ok_or_else(|| Error::BadFrame(format!("unknown frame kind {}", header[2])))?;
        if header[3] != 0 {
            return Err(Error::BadFrame(format!(
                "nonzero reserved byte {}",
                header[3]
            )));
        }
        let len = u32::from_le_bytes([header[4], header[5], header[6], header[7]]) as usize;
        if len > MAX_PAYLOAD {
            return Err(Error::BadFrame(format!(
                "declared payload of {len} bytes exceeds the {MAX_PAYLOAD}-byte ceiling"
            )));
        }
        let want = u32::from_le_bytes([header[8], header[9], header[10], header[11]]);
        let mut payload = vec![0u8; len];
        r.read_exact(&mut payload)
            .map_err(|e| Error::Io(format!("truncated frame payload: {e}")))?;
        let got = fnv1a(&payload);
        if got != want {
            return Err(Error::BadFrame(format!(
                "payload checksum mismatch (declared {want:#010x}, computed {got:#010x})"
            )));
        }
        Ok(Some(Frame { kind, payload }))
    }

    /// The payload as UTF-8, for `Hello` labels.
    pub fn payload_str(&self) -> Result<&str> {
        std::str::from_utf8(&self.payload)
            .map_err(|_| Error::BadFrame("payload is not valid UTF-8".to_string()))
    }
}

enum ReadOutcome {
    Full,
    Eof,
}

/// `read_exact`, except a clean EOF before the *first* byte is `Eof`
/// rather than an error (EOF after at least one byte is truncation).
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> Result<ReadOutcome> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(ReadOutcome::Eof);
                }
                return Err(Error::Io(format!(
                    "truncated frame header: got {filled} of {} bytes",
                    buf.len()
                )));
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(Error::Io(format!("frame read failed: {e}"))),
        }
    }
    Ok(ReadOutcome::Full)
}

/// FNV-1a over the payload: cheap, dependency-free corruption detection
/// (this is an integrity check against truncation/bit rot, not an
/// authentication mechanism).
pub fn fnv1a(bytes: &[u8]) -> u32 {
    let mut hash: u32 = 0x811c_9dc5;
    for b in bytes {
        hash ^= u32::from(*b);
        hash = hash.wrapping_mul(0x0100_0193);
    }
    hash
}

/// Iterate the data lines of one `Batch` payload: newline-separated,
/// `\r\n`-tolerant, empty lines skipped.
pub fn batch_lines(payload: &[u8]) -> impl Iterator<Item = &[u8]> {
    payload
        .split(|b| *b == b'\n')
        .map(|line| match line.last() {
            Some(b'\r') => &line[..line.len() - 1],
            _ => line,
        })
        .filter(|line| !line.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn roundtrip_all_kinds() {
        let frames = [
            Frame::hello("sg-42"),
            Frame::batch(b"line one\nline two\n".to_vec()),
            Frame::batch(Vec::new()),
            Frame::bye(),
        ];
        let mut wire = Vec::new();
        for f in &frames {
            f.encode_into(&mut wire).unwrap();
        }
        let mut r = Cursor::new(&wire);
        for f in &frames {
            assert_eq!(Frame::read_from(&mut r).unwrap().as_ref(), Some(f));
        }
        assert_eq!(Frame::read_from(&mut r).unwrap(), None);
    }

    #[test]
    fn corrupt_inputs_error_cleanly() {
        let mut wire = Vec::new();
        Frame::batch(b"payload".to_vec())
            .encode_into(&mut wire)
            .unwrap();
        // Bad magic.
        let mut bad = wire.clone();
        bad[0] = 0;
        assert!(matches!(
            Frame::read_from(&mut Cursor::new(&bad)),
            Err(Error::BadFrame(_))
        ));
        // Unknown kind.
        let mut bad = wire.clone();
        bad[2] = 9;
        assert!(matches!(
            Frame::read_from(&mut Cursor::new(&bad)),
            Err(Error::BadFrame(_))
        ));
        // Flipped payload bit → checksum mismatch.
        let mut bad = wire.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x40;
        assert!(matches!(
            Frame::read_from(&mut Cursor::new(&bad)),
            Err(Error::BadFrame(_))
        ));
        // Truncation mid-header and mid-payload.
        for cut in [1, 5, HEADER_LEN + 2] {
            assert!(Frame::read_from(&mut Cursor::new(&wire[..cut])).is_err());
        }
        // Oversize declared length never allocates past the ceiling.
        let mut bad = wire.clone();
        bad[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Frame::read_from(&mut Cursor::new(&bad)),
            Err(Error::BadFrame(_))
        ));
    }

    #[test]
    fn oversize_payload_is_rejected_at_encode_time() {
        let f = Frame::batch(vec![0u8; MAX_PAYLOAD + 1]);
        assert!(matches!(
            f.encode_into(&mut Vec::new()),
            Err(Error::BadFrame(_))
        ));
    }

    #[test]
    fn batch_lines_splits_and_trims() {
        let lines: Vec<&[u8]> = batch_lines(b"a,b\r\nc,d\n\ne").collect();
        assert_eq!(lines, [b"a,b".as_slice(), b"c,d".as_slice(), b"e"]);
        assert_eq!(batch_lines(b"").count(), 0);
    }
}
