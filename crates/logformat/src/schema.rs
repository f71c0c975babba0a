//! Schema-flexible parsing: honor a log's own `#Fields:` declaration.
//!
//! W3C ELFF logs declare their field order in a header line; Blue Coat
//! deployments are configurable, so real-world files come with reordered,
//! extended, or reduced field sets. [`Schema`] maps a declared field order
//! onto the canonical [`crate::LogRecord`]: known fields land in their
//! typed slots, unknown fields are skipped, and absent optional fields take
//! their defaults. A file may switch schemas whenever a new `#Fields:`
//! header appears mid-file (log rotation concatenation does this in
//! practice); [`crate::scan_sections`] finds those switches and
//! [`crate::BlockParser`] parses each section under its own schema.

use crate::csv::LineSplitter;
use crate::fields::{FIELDS, FIELD_COUNT};
use crate::view::{self, RecordView};
use filterscope_core::{Error, Result};

/// Aliases accepted for canonical field names (ELFF spells some fields with
/// parenthesized header names, e.g. `cs(User-Agent)`).
fn canonical_index(name: &str) -> Option<usize> {
    let lowered = name.to_ascii_lowercase();
    let normalized = match lowered.as_str() {
        "cs(user-agent)" => "cs-user-agent",
        "rs(content-type)" => "rs-content-type",
        "cs-uri-extension" => "cs-uri-ext",
        "cs-categories" | "sc-filter-category" => "cs-categories",
        other => other,
    };
    FIELDS.iter().position(|f| *f == normalized)
}

/// A resolved mapping from canonical field index to source column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    /// For each canonical field, the column it occupies in this schema.
    positions: [Option<usize>; FIELD_COUNT],
    /// Total columns per data line.
    pub width: usize,
}

impl Schema {
    /// The canonical schema (identity mapping over all 26 fields).
    pub fn canonical() -> Self {
        let mut positions = [None; FIELD_COUNT];
        for (i, p) in positions.iter_mut().enumerate() {
            *p = Some(i);
        }
        Schema {
            positions,
            width: FIELD_COUNT,
        }
    }

    /// Parse a `#Fields: a b c` or `#Fields: a,b,c` header line.
    ///
    /// Unknown field names are tolerated (their columns are ignored); the
    /// mandatory fields — `date`, `time`, `cs-host`, `sc-filter-result`,
    /// `s-ip` — must be present.
    pub fn from_header(line: &str) -> Result<Self> {
        let rest = line
            .trim()
            .strip_prefix("#Fields:")
            .ok_or_else(|| Error::MalformedRecord {
                line: 0,
                reason: "not a #Fields: header".into(),
            })?
            .trim();
        let names: Vec<&str> = if rest.contains(',') {
            rest.split(',').map(str::trim).collect()
        } else {
            rest.split_ascii_whitespace().collect()
        };
        if names.is_empty() {
            return Err(Error::MalformedRecord {
                line: 0,
                reason: "empty #Fields: header".into(),
            });
        }
        let mut positions = [None; FIELD_COUNT];
        for (col, name) in names.iter().enumerate() {
            if let Some(ix) = canonical_index(name) {
                // First declaration wins on duplicates.
                if positions[ix].is_none() {
                    positions[ix] = Some(col);
                }
            }
        }
        let schema = Schema {
            positions,
            width: names.len(),
        };
        for required in ["date", "time", "cs-host", "sc-filter-result", "s-ip"] {
            let ix = canonical_index(required).expect("required name is canonical");
            if schema.positions[ix].is_none() {
                return Err(Error::MalformedRecord {
                    line: 0,
                    reason: format!("#Fields: header lacks required field {required}"),
                });
            }
        }
        Ok(schema)
    }

    /// Which canonical fields this schema carries.
    pub fn carries(&self, canonical: usize) -> bool {
        self.positions.get(canonical).copied().flatten().is_some()
    }

    /// The column a canonical field occupies in this schema, if any (the
    /// lookup [`Schema::parse_view`] and the block parser build views over).
    #[inline]
    pub(crate) fn col(&self, canonical: usize) -> Option<usize> {
        self.positions.get(canonical).copied().flatten()
    }

    /// Parse one data line under this schema into a zero-copy
    /// [`RecordView`] borrowing from `line` (and the splitter's scratch
    /// space); [`RecordView::to_record`] materializes an owned record.
    /// Line rules (terminators, blanks, comments, UTF-8) are the caller's:
    /// byte input goes through [`crate::BlockParser`].
    pub fn parse_view<'a>(
        &self,
        splitter: &'a mut LineSplitter,
        line: &'a str,
        line_no: u64,
    ) -> Result<RecordView<'a>> {
        let mal = |reason: String| Error::MalformedRecord {
            line: line_no,
            reason,
        };
        let fields = splitter
            .split(line)
            .ok_or_else(|| mal("bad CSV quoting".into()))?;
        if fields.len() != self.width {
            return Err(mal(format!(
                "expected {} fields, got {}",
                self.width,
                fields.len()
            )));
        }
        view::build_view(
            &|canonical| self.col(canonical).and_then(|col| fields.get(col)),
            line_no,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{LogRecord, RecordBuilder};
    use crate::url::RequestUrl;
    use crate::ExceptionId;
    use filterscope_core::{ProxyId, Timestamp};

    fn parse(schema: &Schema, line: &str) -> Result<LogRecord> {
        Ok(schema
            .parse_view(&mut LineSplitter::new(), line, 1)?
            .to_record())
    }

    fn sample() -> LogRecord {
        RecordBuilder::new(
            Timestamp::parse_fields("2011-08-03", "10:30:00").unwrap(),
            ProxyId::Sg44,
            RequestUrl::http("metacafe.com", "/watch/9").with_query("hd=1"),
        )
        .policy_denied()
        .build()
    }

    #[test]
    fn canonical_schema_matches_parse_line() {
        let rec = sample();
        let line = rec.write_csv();
        let s = Schema::canonical();
        assert_eq!(parse(&s, &line).unwrap(), rec);
    }

    #[test]
    fn reordered_and_reduced_schema() {
        let header = "#Fields: date time s-ip cs-host sc-filter-result x-exception-id cs-uri-path";
        let s = Schema::from_header(header).unwrap();
        assert_eq!(s.width, 7);
        let rec = parse(
            &s,
            "2011-08-03,10:30:00,82.137.200.44,metacafe.com,DENIED,policy_denied,/watch/9",
        )
        .unwrap();
        assert_eq!(rec.host(), "metacafe.com");
        assert_eq!(rec.exception, ExceptionId::PolicyDenied);
        assert_eq!(rec.url.path, "/watch/9");
        // Absent optional fields take defaults.
        assert_eq!(rec.url.scheme, "http");
        assert_eq!(rec.sc_status, 0);
        assert_eq!(rec.categories, "unavailable");
        assert_eq!(rec.proxy(), Some(ProxyId::Sg44));
    }

    #[test]
    fn elff_alias_names_resolve() {
        let header =
            "#Fields: date time s-ip cs-host sc-filter-result cs(User-Agent) rs(Content-Type) cs-uri-extension";
        let s = Schema::from_header(header).unwrap();
        let rec = parse(
            &s,
            r#"2011-08-03,10:30:00,82.137.200.42,x.com,OBSERVED,"Mozilla/4.0 (compatible, MSIE)",text/html,php"#,
        )
        .unwrap();
        assert_eq!(rec.user_agent, "Mozilla/4.0 (compatible, MSIE)");
        assert_eq!(rec.content_type, "text/html");
        assert_eq!(rec.uri_ext, "php");
    }

    #[test]
    fn unknown_fields_are_skipped() {
        let header = "#Fields: date time s-ip x-bluecoat-special cs-host sc-filter-result";
        let s = Schema::from_header(header).unwrap();
        let rec = parse(
            &s,
            "2011-08-03,10:30:00,82.137.200.42,whatever,x.com,OBSERVED",
        )
        .unwrap();
        assert_eq!(rec.host(), "x.com");
    }

    #[test]
    fn missing_required_fields_rejected() {
        assert!(Schema::from_header("#Fields: date time cs-host").is_err());
        assert!(Schema::from_header("#NotFields: x").is_err());
        assert!(Schema::from_header("#Fields:").is_err());
    }

    #[test]
    fn wrong_width_line_is_an_error() {
        let s = Schema::from_header("#Fields: date time s-ip cs-host sc-filter-result").unwrap();
        assert!(parse(&s, "2011-08-03,10:30:00,82.137.200.42").is_err());
    }

    #[test]
    fn duplicate_field_first_declaration_wins() {
        let s = Schema::from_header("#Fields: date time s-ip cs-host cs-host sc-filter-result")
            .unwrap();
        let rec = parse(
            &s,
            "2011-08-03,10:30:00,82.137.200.42,first.example,second.example,OBSERVED",
        )
        .unwrap();
        assert_eq!(rec.host(), "first.example");
    }
}
