//! Minimal CSV engine for the log format.
//!
//! The leaked files are plain comma-separated values; only two fields ever
//! need quoting in practice (`cs-user-agent`, which contains commas and
//! spaces, and `cs-categories`, e.g. `"Blocked sites; unavailable"`), but the
//! engine implements full RFC-4180 quoting so arbitrary field content
//! round-trips: fields containing `,`, `"`, CR or LF are quoted, and embedded
//! quotes are doubled.

use crate::scan;

/// Split one CSV line into owned fields, honouring RFC-4180 quoting.
///
/// Returns `None` if the line is malformed (unterminated quote, or garbage
/// directly after a closing quote). This is the allocating convenience
/// wrapper over [`LineSplitter`]; the hot ingest path uses the splitter
/// directly and borrows the fields instead.
pub fn split_line(line: &str) -> Option<Vec<String>> {
    let mut splitter = LineSplitter::new();
    let fields = splitter.split(line)?;
    Some((0..fields.len()).map(|i| fields[i].to_string()).collect())
}

/// Where one field's bytes live after a borrowed split.
///
/// Offsets are relative to the line (or scratch buffer) the split ran over;
/// [`crate::block::BlockParser`] stores these per line alongside shared
/// scratch, which is why the type is crate-visible.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Span {
    /// A slice of the input line (every unquoted field, and quoted fields
    /// without embedded `""` escapes).
    Line { start: u32, end: u32 },
    /// A slice of the splitter's scratch buffer (quoted fields whose `""`
    /// escapes had to be collapsed).
    Scratch { start: u32, end: u32 },
}

impl Span {
    /// The field bytes this span denotes.
    #[inline]
    pub(crate) fn resolve<'a>(self, line: &'a str, scratch: &'a str) -> &'a str {
        match self {
            Span::Line { start, end } => &line[start as usize..end as usize],
            Span::Scratch { start, end } => &scratch[start as usize..end as usize],
        }
    }
}

/// Append `line`'s field spans to `spans` (scratch-backed fields unescape
/// into `scratch`). Returns `false` — with both buffers restored to their
/// entry lengths — on RFC-4180 violations. Shared by [`LineSplitter`] (which
/// clears first) and the block parser (which accumulates spans for a whole
/// block of lines against one scratch buffer).
pub(crate) fn append_spans(line: &str, spans: &mut Vec<Span>, scratch: &mut String) -> bool {
    let spans_mark = spans.len();
    let scratch_mark = scratch.len();
    let bytes = line.as_bytes();
    if bytes.len() > u32::MAX as usize {
        return false;
    }
    let mut i = 0usize;
    loop {
        if bytes.get(i) == Some(&b'"') {
            // Quoted field: scan to the closing quote, tracking escapes.
            let start = i + 1;
            let mut j = start;
            let mut escaped = false;
            let end = loop {
                match scan::memchr(b'"', &bytes[j..]) {
                    None => {
                        // Unterminated quote.
                        spans.truncate(spans_mark);
                        scratch.truncate(scratch_mark);
                        return false;
                    }
                    Some(off) => {
                        let q = j + off;
                        if bytes.get(q + 1) == Some(&b'"') {
                            escaped = true;
                            j = q + 2;
                        } else {
                            break q;
                        }
                    }
                }
            };
            if escaped {
                // Collapse `""` into `"` in the scratch buffer.
                let scratch_start = scratch.len();
                let mut k = start;
                while k < end {
                    match scan::memchr(b'"', &bytes[k..end]) {
                        None => {
                            scratch.push_str(&line[k..end]);
                            k = end;
                        }
                        Some(off) => {
                            scratch.push_str(&line[k..k + off + 1]);
                            k += off + 2; // skip the doubled quote
                        }
                    }
                }
                spans.push(Span::Scratch {
                    start: scratch_start as u32,
                    end: scratch.len() as u32,
                });
            } else {
                spans.push(Span::Line {
                    start: start as u32,
                    end: end as u32,
                });
            }
            // After a closing quote only a comma or end-of-line is legal.
            match bytes.get(end + 1) {
                None => return true,
                Some(&b',') => i = end + 2,
                Some(_) => {
                    spans.truncate(spans_mark);
                    scratch.truncate(scratch_mark);
                    return false;
                }
            }
        } else {
            // Unquoted field: everything up to the next comma.
            match scan::memchr(b',', &bytes[i..]) {
                None => {
                    spans.push(Span::Line {
                        start: i as u32,
                        end: bytes.len() as u32,
                    });
                    return true;
                }
                Some(off) => {
                    spans.push(Span::Line {
                        start: i as u32,
                        end: (i + off) as u32,
                    });
                    i += off + 1;
                }
            }
        }
    }
}

/// Reusable zero-allocation CSV line splitter.
///
/// `split` records field *spans* instead of copying field bytes: unquoted
/// fields (and cleanly-quoted ones) borrow straight from the input line;
/// only quoted fields containing doubled quotes are unescaped into an
/// internal scratch buffer that is recycled between lines. On the log
/// format's happy path — at most a quoted user-agent/categories field,
/// never an embedded quote — a split performs zero allocations once the
/// span table has warmed up.
#[derive(Debug, Default)]
pub struct LineSplitter {
    spans: Vec<Span>,
    scratch: String,
}

impl LineSplitter {
    /// A fresh splitter (reuse it across lines).
    pub fn new() -> Self {
        Self::default()
    }

    /// Split `line`, borrowing the splitter until the returned fields are
    /// dropped. Returns `None` on RFC-4180 violations, exactly like
    /// [`split_line`].
    pub fn split<'a>(&'a mut self, line: &'a str) -> Option<Fields<'a>> {
        self.spans.clear();
        self.scratch.clear();
        if append_spans(line, &mut self.spans, &mut self.scratch) {
            Some(Fields {
                splitter: self,
                line,
            })
        } else {
            None
        }
    }
}

/// The borrowed fields of one split line.
pub struct Fields<'a> {
    splitter: &'a LineSplitter,
    line: &'a str,
}

impl<'a> Fields<'a> {
    /// Number of fields on the line.
    pub fn len(&self) -> usize {
        self.splitter.spans.len()
    }

    /// Is the line field-less? (Never true: an empty line is one empty field.)
    pub fn is_empty(&self) -> bool {
        self.splitter.spans.is_empty()
    }

    /// The `i`-th field, borrowed from the line (or the scratch buffer for
    /// escape-carrying quoted fields).
    pub fn get(&self, i: usize) -> Option<&'a str> {
        self.splitter
            .spans
            .get(i)
            .map(|span| span.resolve(self.line, &self.splitter.scratch))
    }
}

impl<'a> std::ops::Index<usize> for Fields<'a> {
    type Output = str;

    fn index(&self, i: usize) -> &str {
        self.get(i).expect("field index in range")
    }
}

/// Does this field value need quoting (does it hold a comma, a quote or a
/// line break)? One scan over the bytes.
pub fn needs_quoting(field: &str) -> bool {
    field
        .bytes()
        .any(|b| matches!(b, b',' | b'"' | b'\n' | b'\r'))
}

/// Append one field to `out`, quoting if necessary.
pub fn write_field(out: &mut String, field: &str) {
    if needs_quoting(field) {
        out.push('"');
        for c in field.chars() {
            if c == '"' {
                out.push('"');
            }
            out.push(c);
        }
        out.push('"');
    } else {
        out.push_str(field);
    }
}

/// Join fields into one CSV line (no trailing newline).
pub fn join_line<S: AsRef<str>>(fields: &[S]) -> String {
    let mut out = String::with_capacity(fields.iter().map(|f| f.as_ref().len() + 1).sum());
    for (i, f) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_field(&mut out, f.as_ref());
    }
    out
}

// --- Allocation-free numeric formatting -----------------------------------
//
// `write!(out, "{}", n)` routes every integer through `core::fmt`, whose
// per-call setup dominates when serializing hundreds of millions of short
// numeric fields. These helpers emit digits straight into the line buffer.

/// Append `v` in decimal.
pub fn write_uint(out: &mut String, mut v: u64) {
    // 20 digits hold u64::MAX.
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[i..]).expect("ASCII digits"));
}

/// Append `v` in decimal, zero-padded to at least `width` digits (the
/// `{:0width$}` of dates and times; `width` ≤ 20).
pub fn write_uint_padded(out: &mut String, v: u64, width: usize) {
    let mut digits = [b'0'; 20];
    let mut i = digits.len();
    let mut v = v;
    loop {
        i -= 1;
        digits[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    i = i.min(digits.len() - width.min(digits.len()));
    out.push_str(std::str::from_utf8(&digits[i..]).expect("ASCII digits"));
}

/// Append an IPv4 address in dotted-quad form.
pub fn write_ipv4(out: &mut String, addr: std::net::Ipv4Addr) {
    let [a, b, c, d] = addr.octets();
    write_uint(out, u64::from(a));
    out.push('.');
    write_uint(out, u64::from(b));
    out.push('.');
    write_uint(out, u64::from(c));
    out.push('.');
    write_uint(out, u64::from(d));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_plain_line() {
        let f = split_line("a,b,,d").unwrap();
        assert_eq!(f, vec!["a", "b", "", "d"]);
    }

    #[test]
    fn splits_quoted_fields() {
        let f = split_line(r#"x,"Mozilla/5.0 (Windows NT, 6.1)",y"#).unwrap();
        assert_eq!(f, vec!["x", "Mozilla/5.0 (Windows NT, 6.1)", "y"]);
        let f = split_line(r#""Blocked sites; unavailable""#).unwrap();
        assert_eq!(f, vec!["Blocked sites; unavailable"]);
    }

    #[test]
    fn embedded_quotes() {
        let f = split_line(r#""he said ""hi""",b"#).unwrap();
        assert_eq!(f, vec![r#"he said "hi""#, "b"]);
    }

    #[test]
    fn rejects_malformed() {
        assert!(split_line(r#""unterminated"#).is_none());
        assert!(split_line(r#""x"y,z"#).is_none());
    }

    #[test]
    fn empty_line_is_one_empty_field() {
        assert_eq!(split_line("").unwrap(), vec![""]);
    }

    #[test]
    fn join_quotes_only_when_needed() {
        let line = join_line(&["a", "b,c", r#"d"e"#, "-"]);
        assert_eq!(line, r#"a,"b,c","d""e",-"#);
    }

    #[test]
    fn splitter_borrows_and_matches_split_line() {
        let mut s = LineSplitter::new();
        for line in [
            "a,b,,d",
            r#"x,"Mozilla/5.0 (Windows NT, 6.1)",y"#,
            r#""he said ""hi""",b"#,
            "",
            "plain",
            r#""Blocked sites; unavailable""#,
        ] {
            let owned = split_line(line).unwrap();
            let fields = s.split(line).unwrap();
            assert_eq!(fields.len(), owned.len(), "{line:?}");
            for (i, f) in owned.iter().enumerate() {
                assert_eq!(fields.get(i), Some(f.as_str()), "{line:?} field {i}");
            }
            assert_eq!(fields.get(owned.len()), None);
        }
    }

    #[test]
    fn splitter_rejects_what_split_line_rejects() {
        let mut s = LineSplitter::new();
        for line in [r#""unterminated"#, r#""x"y,z"#] {
            assert!(s.split(line).is_none(), "{line:?}");
            assert!(split_line(line).is_none(), "{line:?}");
        }
    }

    #[test]
    fn splitter_reuse_across_lines() {
        let mut s = LineSplitter::new();
        {
            let f = s.split(r#"a,"q""q",c"#).unwrap();
            assert_eq!(f.get(1), Some(r#"q"q"#));
        }
        let f = s.split("x,y").unwrap();
        assert_eq!(f.get(0), Some("x"));
        assert_eq!(f.get(1), Some("y"));
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn uint_formatting_matches_display() {
        let mut out = String::new();
        for v in [
            0u64,
            1,
            9,
            10,
            99,
            100,
            12345,
            u64::from(u16::MAX),
            u64::from(u32::MAX),
            u64::MAX,
        ] {
            out.clear();
            write_uint(&mut out, v);
            assert_eq!(out, format!("{v}"));
        }
    }

    #[test]
    fn padded_formatting_matches_display() {
        let mut out = String::new();
        for (v, width) in [(0u64, 2), (7, 2), (59, 2), (0, 4), (812, 4), (2011, 4)] {
            out.clear();
            write_uint_padded(&mut out, v, width);
            assert_eq!(out, format!("{v:0width$}"), "v={v} width={width}");
        }
        // Wider values than the pad width are not truncated.
        out.clear();
        write_uint_padded(&mut out, 123456, 4);
        assert_eq!(out, "123456");
    }

    #[test]
    fn ipv4_formatting_matches_display() {
        let mut out = String::new();
        for addr in ["0.0.0.0", "10.1.2.3", "255.255.255.255", "82.137.200.42"] {
            let parsed: std::net::Ipv4Addr = addr.parse().unwrap();
            out.clear();
            write_ipv4(&mut out, parsed);
            assert_eq!(out, addr);
        }
    }

    #[test]
    fn roundtrip() {
        let fields = vec![
            "2011-08-03".to_string(),
            "Mozilla/4.0 (compatible, MSIE 7.0)".to_string(),
            "Blocked sites; unavailable".to_string(),
            "with\"quote".to_string(),
            String::new(),
        ];
        let line = join_line(&fields);
        assert_eq!(split_line(&line).unwrap(), fields);
    }
}
