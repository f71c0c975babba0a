//! Log output: [`LogWriter`] emits the ELFF preamble once, then one CSV
//! line per record. Reading goes through [`crate::BlockParser`].

use crate::fields::header_line;
use crate::record::LogRecord;
use filterscope_core::Result;
use std::io::Write;

/// Buffered log writer that emits the ELFF header once, then one CSV line
/// per record.
pub struct LogWriter<W> {
    inner: W,
    records_written: u64,
    header_written: bool,
    /// Recycled per-line serialization buffer — one allocation for the whole
    /// file instead of one per record.
    line_buf: String,
}

impl<W: Write> LogWriter<W> {
    /// Wrap a writer.
    pub fn new(inner: W) -> Self {
        LogWriter {
            inner,
            records_written: 0,
            header_written: false,
            line_buf: String::new(),
        }
    }

    /// Number of records written so far.
    pub fn records_written(&self) -> u64 {
        self.records_written
    }

    /// Write one record (writing the `#Fields:` header first if needed).
    pub fn write_record(&mut self, record: &LogRecord) -> Result<()> {
        if !self.header_written {
            writeln!(self.inner, "#Software: SGOS 4.1.4")?;
            writeln!(self.inner, "{}", header_line())?;
            self.header_written = true;
        }
        record.write_csv_into(&mut self.line_buf);
        self.line_buf.push('\n');
        self.inner.write_all(self.line_buf.as_bytes())?;
        self.records_written += 1;
        Ok(())
    }

    /// Flush and return the underlying writer.
    pub fn into_inner(mut self) -> Result<W> {
        self.inner.flush()?;
        Ok(self.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RecordBuilder;
    use crate::url::RequestUrl;
    use crate::{BlockParser, Schema};
    use filterscope_core::{ProxyId, Timestamp};

    fn rec(host: &str) -> LogRecord {
        RecordBuilder::new(
            Timestamp::parse_fields("2011-08-01", "12:00:00").unwrap(),
            ProxyId::Sg45,
            RequestUrl::http(host, "/"),
        )
        .build()
    }

    #[test]
    fn write_then_read_roundtrip() {
        let mut w = LogWriter::new(Vec::new());
        let records: Vec<_> = ["a.com", "b.org", "c.net"].iter().map(|h| rec(h)).collect();
        for r in &records {
            w.write_record(r).unwrap();
        }
        assert_eq!(w.records_written(), 3);
        let bytes = w.into_inner().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("#Software"));
        assert!(text.contains("#Fields: date,time"));

        let mut parser = BlockParser::new();
        let (views, bad) = parser.parse(text.as_bytes(), &Schema::canonical(), &mut 0);
        assert_eq!(bad, 0);
        let back: Vec<LogRecord> = views.iter().map(|v| v.to_record()).collect();
        assert_eq!(back, records);
    }
}
