//! Block-oriented log ingest: buffer-reusing block reads and batch parsing.
//!
//! The line-at-a-time ingest loop (`read_until` + per-line `parse_view`)
//! pays a `BufReader` copy, a length check and a virtual sink dispatch per
//! record. At paper scale — 751 M records, 600 GB — those per-line costs
//! dominate. This module moves the hot path to *blocks*:
//!
//! * [`BlockReader`] fills one reusable buffer with large reads and emits
//!   blocks of **whole lines**: each block ends on a newline (except the
//!   final unterminated line at EOF), partial tails are carried to the front
//!   of the buffer, and a line longer than the buffer grows it rather than
//!   splitting the line. The reader also owns the byte-range discipline that
//!   used to live in `analysis::pipeline`: a range starting mid-line skips
//!   through the first newline (that prefix belongs to the previous shard),
//!   and the final line straddling the range end is read to completion.
//! * [`BlockParser`] parses a block into a `Vec<RecordView>` in two phases —
//!   span collection (mutating shared span/scratch tables) then view
//!   resolution — so every view in the block coexists borrowing the block
//!   and one scratch buffer, and a sink can ingest the whole batch through
//!   one virtual call.
//! * [`scan_sections`] locates mid-file `#Fields:` schema switches for the
//!   shard planner using the same block machinery; because blocks always
//!   hold whole lines, a header straddling a block boundary cannot be
//!   mis-read.
//!
//! [`BlockParser`] is the only place the line rules live; file shards,
//! `serve` frame payloads and in-memory buffers all parse through it. The
//! rules: every trailing `\r` is trimmed, empty lines are skipped, UTF-8
//! validity is checked *before* the `#` comment prefix (a corrupt comment
//! counts as malformed), `#` lines are otherwise skipped (`#Fields:`
//! headers are the section scan's), CSV/width/field errors count per line,
//! and line numbers count physical lines, skipped ones included.

use crate::csv::{self, Span};
use crate::scan;
use crate::schema::Schema;
use crate::view::{self, RecordView};
use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::Path;
use std::sync::Arc;

/// Default block size: big enough to amortize syscall and dispatch costs,
/// small enough to stay cache-friendly per worker thread.
pub const DEFAULT_BLOCK_BYTES: usize = 256 * 1024;

/// Reusable block reader over a byte range `[start, end)` of one file.
///
/// Emits blocks of whole lines via [`BlockReader::next_block`]. Ownership
/// rule (shared with the shard planner): a line belongs to the range
/// containing its first byte — a reader whose range starts mid-line skips
/// that prefix, and the final line is read past `end` to completion.
#[derive(Debug)]
pub struct BlockReader {
    file: File,
    buf: Vec<u8>,
    /// Bytes of `buf` holding data (`emit_end..filled` is the carried tail).
    filled: usize,
    /// Length of the previously emitted block, reclaimed on the next call.
    emit_end: usize,
    /// Absolute file offset of `buf[0]`.
    abs: u64,
    /// Exclusive range end: lines starting at or after this are not ours.
    end: u64,
    /// Current block size (doubles when a single line outgrows it).
    block_bytes: usize,
    eof: bool,
    done: bool,
}

impl BlockReader {
    /// Open `path` restricted to `[start, end)`. `aligned` asserts that
    /// `start` is a known line start (first shard of a section); otherwise
    /// the reader applies the ownership rule and skips through the first
    /// newline at or after `start - 1`.
    pub fn open(
        path: &Path,
        start: u64,
        end: u64,
        aligned: bool,
        block_bytes: usize,
    ) -> std::io::Result<BlockReader> {
        let mut file = File::open(path)?;
        let block_bytes = block_bytes.max(64);
        let mut abs = start;
        let mut done = false;
        if aligned || start == 0 {
            file.seek(SeekFrom::Start(start))?;
        } else {
            // Scan from `start - 1` for the first newline: if the previous
            // byte is itself a newline the scan terminates immediately and
            // no bytes are skipped, which folds the "is the byte before our
            // range a newline?" probe and the skip-to-newline into one pass.
            file.seek(SeekFrom::Start(start - 1))?;
            let mut probe = vec![0u8; 4096];
            let mut at = start - 1;
            loop {
                let n = file.read(&mut probe)?;
                if n == 0 {
                    // Mid-line to EOF: everything belongs to the previous
                    // shard.
                    done = true;
                    break;
                }
                if let Some(p) = scan::memchr(b'\n', &probe[..n]) {
                    abs = at + p as u64 + 1;
                    file.seek(SeekFrom::Start(abs))?;
                    break;
                }
                at += n as u64;
            }
        }
        Ok(BlockReader {
            file,
            buf: Vec::new(),
            filled: 0,
            emit_end: 0,
            abs,
            end,
            block_bytes,
            eof: false,
            done,
        })
    }

    /// The next block of whole lines, or `None` when the range is drained.
    ///
    /// Every returned block ends with `\n` except the last one of a file
    /// with an unterminated final line. The block borrows the reader's
    /// internal buffer; the borrow ends before the next call.
    pub fn next_block(&mut self) -> std::io::Result<Option<&[u8]>> {
        // Reclaim the previously emitted block: slide the carried tail to
        // the buffer front.
        if self.emit_end > 0 {
            self.buf.copy_within(self.emit_end..self.filled, 0);
            self.filled -= self.emit_end;
            self.abs += self.emit_end as u64;
            self.emit_end = 0;
        }
        if self.done || self.abs >= self.end {
            self.done = true;
            return Ok(None);
        }
        loop {
            if self.buf.len() < self.block_bytes {
                self.buf.resize(self.block_bytes, 0);
            }
            while !self.eof && self.filled < self.block_bytes {
                let n = self
                    .file
                    .read(&mut self.buf[self.filled..self.block_bytes])?;
                if n == 0 {
                    self.eof = true;
                } else {
                    self.filled += n;
                }
            }
            if self.filled == 0 {
                self.done = true;
                return Ok(None);
            }
            // Range end-cut: the first newline at absolute offset >= end-1
            // terminates the final line we own (a line straddling `end` is
            // still ours; the line starting after that newline is not).
            let threshold = self.end.saturating_sub(1).saturating_sub(self.abs);
            if (threshold as usize) < self.filled {
                if let Some(off) = scan::memchr(b'\n', &self.buf[threshold as usize..self.filled]) {
                    let cut = threshold as usize + off + 1;
                    self.done = true;
                    self.emit_end = cut;
                    return Ok(Some(&self.buf[..cut]));
                }
            }
            if self.eof {
                // Unterminated final line: ours (no newline at >= end-1
                // exists, so every line here starts before `end`).
                self.done = true;
                self.emit_end = self.filled;
                return Ok(Some(&self.buf[..self.filled]));
            }
            match scan::memrchr(b'\n', &self.buf[..self.filled]) {
                Some(p) => {
                    self.emit_end = p + 1;
                    return Ok(Some(&self.buf[..p + 1]));
                }
                None => {
                    // One line larger than the whole buffer: grow and keep
                    // filling rather than splitting the line.
                    self.block_bytes *= 2;
                }
            }
        }
    }
}

/// Per-record metadata collected in phase A of a block parse.
#[derive(Debug, Clone, Copy)]
struct RecMeta {
    /// Line bytes within the block (already trimmed of `\r`/`\n`).
    line_start: u32,
    line_end: u32,
    /// First entry in the shared span table.
    span_start: u32,
    /// 1-based line number (for error attribution).
    line_no: u64,
}

/// Reusable batch parser: one block of lines → a `Vec` of coexisting
/// [`RecordView`]s plus a malformed-line count.
///
/// Internally two-phase: phase A walks the block once, collecting field
/// spans for every well-formed data line into one shared span table (quoted
/// fields with `""` escapes unescape into one shared scratch buffer); phase
/// B resolves the spans into views. Splitting the phases is what lets all
/// views of a block borrow the block and the parser simultaneously.
#[derive(Debug, Default)]
pub struct BlockParser {
    spans: Vec<Span>,
    metas: Vec<RecMeta>,
    scratch: String,
}

impl BlockParser {
    /// A fresh parser (reuse it across blocks; its tables are recycled).
    pub fn new() -> BlockParser {
        BlockParser::default()
    }

    /// Parse one block of whole lines under `schema`. `line_no` is the
    /// running physical-line counter for the enclosing byte range; it
    /// advances across every line seen (including skipped ones), exactly
    /// like the line-at-a-time loop it replaces.
    ///
    /// Returns the record views in line order and the number of malformed
    /// lines (bad UTF-8, bad CSV quoting, wrong field count, or field
    /// conversion failures).
    pub fn parse<'a>(
        &'a mut self,
        block: &'a [u8],
        schema: &Schema,
        line_no: &mut u64,
    ) -> (Vec<RecordView<'a>>, u64) {
        self.spans.clear();
        self.metas.clear();
        self.scratch.clear();
        let mut malformed = 0u64;

        // Phase A: collect spans.
        let mut pos = 0usize;
        while pos < block.len() {
            let (raw_end, next) = match scan::memchr(b'\n', &block[pos..]) {
                Some(off) => (pos + off, pos + off + 1),
                None => (block.len(), block.len()),
            };
            *line_no += 1;
            let mut end = raw_end;
            while end > pos && block[end - 1] == b'\r' {
                end -= 1;
            }
            let start = pos;
            pos = next;
            if end == start {
                continue;
            }
            // UTF-8 validity before the comment prefix, so a corrupt comment
            // line counts as malformed.
            let Ok(text) = std::str::from_utf8(&block[start..end]) else {
                malformed += 1;
                continue;
            };
            if text.starts_with('#') {
                // Comments are skipped; `#Fields:` headers were consumed (or
                // counted, when malformed) by the section scan.
                continue;
            }
            let span_start = self.spans.len();
            let scratch_mark = self.scratch.len();
            if !csv::append_spans(text, &mut self.spans, &mut self.scratch) {
                malformed += 1;
                continue;
            }
            if self.spans.len() - span_start != schema.width {
                self.spans.truncate(span_start);
                self.scratch.truncate(scratch_mark);
                malformed += 1;
                continue;
            }
            self.metas.push(RecMeta {
                line_start: start as u32,
                line_end: end as u32,
                span_start: span_start as u32,
                line_no: *line_no,
            });
        }

        // Phase B: resolve spans into views (shared immutable borrows only).
        let spans: &'a [Span] = &self.spans;
        let scratch: &'a str = &self.scratch;
        let mut views = Vec::with_capacity(self.metas.len());
        for meta in &self.metas {
            let line =
                std::str::from_utf8(&block[meta.line_start as usize..meta.line_end as usize])
                    .expect("validated in phase A");
            let fields = &spans[meta.span_start as usize..meta.span_start as usize + schema.width];
            let lookup = |canonical: usize| {
                schema
                    .col(canonical)
                    .map(|c| fields[c].resolve(line, scratch))
            };
            match view::build_view(&lookup, meta.line_no) {
                Ok(v) => views.push(v),
                Err(_) => malformed += 1,
            }
        }
        (views, malformed)
    }
}

/// The `#Fields:` section layout of one log file, as the shard planner
/// consumes it.
#[derive(Debug)]
pub struct FileSections {
    /// `(section start offset, schema)`; a file opens under the canonical
    /// schema at offset 0.
    pub sections: Vec<(u64, Arc<Schema>)>,
    /// Byte offset of each `#Fields:` header **line start** — section `i`
    /// ends where cut `i` begins (header bytes belong to no section).
    pub cuts: Vec<u64>,
    /// Headers that failed to parse (counted once, here, not per shard).
    pub malformed_headers: u64,
    /// Total file length in bytes.
    pub bytes: u64,
}

/// Scan one file for mid-file `#Fields:` schema switches (log rotation
/// concatenation), block-wise. Because [`BlockReader`] emits whole lines, a
/// header straddling any internal block boundary is still seen as one line.
pub fn scan_sections(path: &Path) -> std::io::Result<FileSections> {
    scan_sections_with(path, DEFAULT_BLOCK_BYTES)
}

/// [`scan_sections`] with an explicit block size (tests use tiny blocks to
/// force headers across block boundaries).
pub fn scan_sections_with(path: &Path, block_bytes: usize) -> std::io::Result<FileSections> {
    let mut reader = BlockReader::open(path, 0, u64::MAX, true, block_bytes)?;
    let mut abs = 0u64;
    let mut sections: Vec<(u64, Arc<Schema>)> = vec![(0, Arc::new(Schema::canonical()))];
    let mut cuts: Vec<u64> = Vec::new();
    let mut malformed_headers = 0u64;
    while let Some(block) = reader.next_block()? {
        let mut pos = 0usize;
        while pos < block.len() {
            let (raw_end, next) = match scan::memchr(b'\n', &block[pos..]) {
                Some(off) => (pos + off, pos + off + 1),
                None => (block.len(), block.len()),
            };
            if block.get(pos) == Some(&b'#') {
                let mut end = raw_end;
                while end > pos && block[end - 1] == b'\r' {
                    end -= 1;
                }
                // Header handling only applies to valid UTF-8 lines
                // (invalid UTF-8 is counted by the shard parsers).
                if let Ok(text) = std::str::from_utf8(&block[pos..end]) {
                    if text[1..].trim_start().starts_with("Fields:") {
                        match Schema::from_header(text) {
                            Ok(schema) => {
                                cuts.push(abs + pos as u64);
                                sections.push((abs + next as u64, Arc::new(schema)));
                            }
                            Err(_) => malformed_headers += 1,
                        }
                    }
                }
            }
            pos = next;
        }
        abs += block.len() as u64;
    }
    Ok(FileSections {
        sections,
        cuts,
        malformed_headers,
        bytes: abs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RecordBuilder;
    use crate::url::RequestUrl;
    use filterscope_core::{ProxyId, Timestamp};

    fn sample_lines(n: usize) -> String {
        let mut out = String::new();
        for i in 0..n {
            let rec = RecordBuilder::new(
                Timestamp::parse_fields("2011-08-03", "10:00:00").unwrap(),
                ProxyId::Sg42,
                RequestUrl::http(format!("host{i}.example"), "/"),
            )
            .build();
            out.push_str(&rec.write_csv());
            out.push('\n');
        }
        out
    }

    fn write_temp(tag: &str, data: &[u8]) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("filterscope-block-{tag}-{}", std::process::id()));
        std::fs::write(&path, data).unwrap();
        path
    }

    /// Reassemble `[start, end)` of `data` through a reader with the given
    /// block size.
    fn collect(
        path: &Path,
        start: u64,
        end: u64,
        aligned: bool,
        block_bytes: usize,
    ) -> (Vec<u8>, usize) {
        let mut r = BlockReader::open(path, start, end, aligned, block_bytes).unwrap();
        let mut out = Vec::new();
        let mut blocks = 0;
        while let Some(block) = r.next_block().unwrap() {
            out.extend_from_slice(block);
            blocks += 1;
        }
        (out, blocks)
    }

    #[test]
    fn whole_file_reassembles_at_every_block_size() {
        let data = sample_lines(40);
        let path = write_temp("whole", data.as_bytes());
        for block_bytes in [64, 100, 256, 1 << 20] {
            let (got, blocks) = collect(&path, 0, u64::MAX, true, block_bytes);
            assert_eq!(got, data.as_bytes(), "block_bytes={block_bytes}");
            if block_bytes == 100 {
                assert!(blocks > 1, "small blocks must actually split");
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn blocks_end_on_newlines() {
        let data = sample_lines(40);
        let path = write_temp("newline", data.as_bytes());
        let mut r = BlockReader::open(&path, 0, u64::MAX, true, 300).unwrap();
        while let Some(block) = r.next_block().unwrap() {
            assert_eq!(*block.last().unwrap(), b'\n');
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn unterminated_final_line_is_emitted() {
        let mut data = sample_lines(3);
        data.push_str("partial final line without newline");
        let path = write_temp("partial", data.as_bytes());
        let (got, _) = collect(&path, 0, u64::MAX, true, 64);
        assert_eq!(got, data.as_bytes());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn line_longer_than_block_grows_the_buffer() {
        let long = format!("{}\nshort\n", "x".repeat(5000));
        let path = write_temp("grow", long.as_bytes());
        let (got, _) = collect(&path, 0, u64::MAX, true, 64);
        assert_eq!(got, long.as_bytes());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn split_ranges_partition_the_file_exactly() {
        // Every line must land in exactly one range, for many split points:
        // the concatenation over ranges must equal the file, at several
        // block sizes.
        let data = sample_lines(25);
        let bytes = data.as_bytes();
        let path = write_temp("split", bytes);
        let len = bytes.len() as u64;
        for cut in [1u64, 7, 100, 239, 240, 241, len / 2, len - 1] {
            for block_bytes in [64usize, 128, 1 << 16] {
                let (a, _) = collect(&path, 0, cut, true, block_bytes);
                let (b, _) = collect(&path, cut, len, false, block_bytes);
                let mut joined = a.clone();
                joined.extend_from_slice(&b);
                assert_eq!(
                    joined,
                    bytes,
                    "cut={cut} block_bytes={block_bytes} (a={} b={})",
                    a.len(),
                    b.len()
                );
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn aligned_range_starting_at_line_boundary_keeps_the_line() {
        let data = b"aaa\nbbb\nccc\n";
        let path = write_temp("aligned", data);
        // Range starting exactly at a line start, unaligned flag: the
        // previous byte is a newline, so nothing is skipped.
        let (got, _) = collect(&path, 4, 12, false, 64);
        assert_eq!(got, b"bbb\nccc\n");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn parser_matches_line_at_a_time_parse_view() {
        let mut data = sample_lines(10);
        data.push_str("# a comment line\n");
        data.push('\n');
        data.push_str("garbage,line\n");
        data.push_str(&sample_lines(2));
        let schema = Schema::canonical();
        let mut parser = BlockParser::new();
        let mut line_no = 0u64;
        let (views, malformed) = parser.parse(data.as_bytes(), &schema, &mut line_no);
        assert_eq!(malformed, 1);
        assert_eq!(views.len(), 12);
        assert_eq!(line_no, 15);
        // Record-for-record identical to the line-at-a-time path.
        let mut splitter = crate::csv::LineSplitter::new();
        let mut want = Vec::new();
        for line in data.lines() {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Ok(v) = schema.parse_view(&mut splitter, line, 0) {
                want.push(v.to_record());
            }
        }
        let got: Vec<_> = views.iter().map(|v| v.to_record()).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn parser_handles_quoted_fields_with_escapes_across_a_block() {
        // Two records whose quoted user-agent fields carry `""` escapes,
        // exercising the shared scratch buffer across records of one block.
        let rec = |ua: &str| {
            RecordBuilder::new(
                Timestamp::parse_fields("2011-08-03", "10:00:00").unwrap(),
                ProxyId::Sg42,
                RequestUrl::http("quoted.example", "/"),
            )
            .user_agent(ua)
            .build()
        };
        let a = rec(r#"agent "one", quoted"#);
        let b = rec(r#"agent "two", quoted"#);
        let data = format!("{}\n{}\n", a.write_csv(), b.write_csv());
        let schema = Schema::canonical();
        let mut parser = BlockParser::new();
        let mut line_no = 0;
        let (views, malformed) = parser.parse(data.as_bytes(), &schema, &mut line_no);
        assert_eq!(malformed, 0);
        assert_eq!(views.len(), 2);
        assert_eq!(views[0].user_agent, r#"agent "one", quoted"#);
        assert_eq!(views[1].user_agent, r#"agent "two", quoted"#);
        assert_eq!(views[0].to_record(), a);
        assert_eq!(views[1].to_record(), b);
    }

    #[test]
    fn parser_applies_the_line_rules_to_raw_bytes() {
        let good = sample_lines(1);
        let good = good.trim_end();
        let mut data = Vec::new();
        // A record ending in `\r\r\n`: every trailing CR is trimmed.
        data.extend_from_slice(format!("{good}\r\r\n").as_bytes());
        // A lone CR line and a blank line are skipped, not malformed.
        data.extend_from_slice(b"\r\n\n");
        // Invalid UTF-8 fails that line only, comment or not.
        data.extend_from_slice(b"garbage \xFF\xFE bytes in the middle\n");
        data.extend_from_slice(b"#\xFF corrupt comment\n");
        data.extend_from_slice(format!("{good}\n").as_bytes());
        // A truncated, unterminated final line is malformed, not a panic.
        data.extend_from_slice(&good.as_bytes()[..good.len() / 2]);
        let mut parser = BlockParser::new();
        let mut line_no = 0u64;
        let (views, malformed) = parser.parse(&data, &Schema::canonical(), &mut line_no);
        assert_eq!(malformed, 3);
        assert_eq!(line_no, 7, "physical lines, skipped ones included");
        assert_eq!(views.len(), 2);
        for v in &views {
            assert_eq!(v.to_record(), crate::parse_line(good, 1).unwrap());
        }
    }

    #[test]
    fn sections_parse_under_their_own_schema() {
        // A mid-file `#Fields:` header switches the schema: the first record
        // uses the canonical default, the second follows the header.
        let canonical = sample_lines(1);
        let data = format!(
            "#Software: SGOS\n{canonical}#Fields: date time s-ip cs-host sc-filter-result\n\
             2011-08-04,11:00:00,82.137.200.42,late.example,OBSERVED\n"
        );
        let path = write_temp("schema-switch", data.as_bytes());
        let scan = scan_sections(&path).unwrap();
        assert_eq!(scan.malformed_headers, 0);
        let mut parser = BlockParser::new();
        let mut records = Vec::new();
        for (i, (start, schema)) in scan.sections.iter().enumerate() {
            let end = scan.cuts.get(i).copied().unwrap_or(scan.bytes);
            let mut reader = BlockReader::open(&path, *start, end, true, 64).unwrap();
            let mut line_no = 0;
            while let Some(block) = reader.next_block().unwrap() {
                let (views, malformed) = parser.parse(block, schema, &mut line_no);
                assert_eq!(malformed, 0);
                records.extend(views.iter().map(|v| v.to_record()));
            }
        }
        assert_eq!(records.len(), 2);
        assert_eq!(
            records[0],
            crate::parse_line(canonical.trim_end(), 1).unwrap()
        );
        assert_eq!(records[1].host(), "late.example");
        assert_eq!(records[1].timestamp.date().to_string(), "2011-08-04");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn section_scan_finds_mid_file_headers() {
        let first = sample_lines(2);
        let header = format!(
            "#Fields: {}\n",
            crate::fields::FIELDS
                .iter()
                .rev()
                .copied()
                .collect::<Vec<_>>()
                .join(",")
        );
        let data = format!("{first}{header}rest-of-file\n");
        let path = write_temp("sections", data.as_bytes());
        let scan = scan_sections(&path).unwrap();
        assert_eq!(scan.sections.len(), 2);
        assert_eq!(scan.cuts, vec![first.len() as u64]);
        assert_eq!(scan.sections[1].0, (first.len() + header.len()) as u64);
        assert_eq!(scan.malformed_headers, 0);
        assert_eq!(scan.bytes, data.len() as u64);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn section_scan_is_block_size_invariant_with_straddling_headers() {
        // A long `#Fields:` header (extra spacing is legal separator
        // padding) placed so that small scan blocks split it mid-line: the
        // scanner must report identical sections/cuts for every block size.
        let first = sample_lines(3);
        let header = format!(
            "#Fields:   {}\n",
            crate::fields::FIELDS
                .iter()
                .rev()
                .copied()
                .collect::<Vec<_>>()
                .join("   ")
        );
        assert!(header.len() > 300, "header must outgrow the small blocks");
        let data = format!("{first}{header}{}", sample_lines(2));
        let path = write_temp("straddle", data.as_bytes());
        let want = scan_sections_with(&path, 1 << 20).unwrap();
        for block_bytes in [64usize, 100, 127, 128, 129, 256, 301] {
            let got = scan_sections_with(&path, block_bytes).unwrap();
            assert_eq!(got.cuts, want.cuts, "block_bytes={block_bytes}");
            assert_eq!(got.bytes, want.bytes, "block_bytes={block_bytes}");
            assert_eq!(got.malformed_headers, 0, "block_bytes={block_bytes}");
            let starts: Vec<u64> = got.sections.iter().map(|(s, _)| *s).collect();
            let want_starts: Vec<u64> = want.sections.iter().map(|(s, _)| *s).collect();
            assert_eq!(starts, want_starts, "block_bytes={block_bytes}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn section_scan_counts_malformed_headers_once() {
        let data = "#Fields: not,a,real,schema\ndata line\n";
        let path = write_temp("badheader", data.as_bytes());
        let scan = scan_sections(&path).unwrap();
        assert_eq!(scan.sections.len(), 1);
        assert_eq!(scan.malformed_headers, 1);
        let _ = std::fs::remove_file(&path);
    }
}
