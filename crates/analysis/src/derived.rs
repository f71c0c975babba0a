//! Per-block derived columns: the per-record facts several accumulators
//! read, computed once per block instead of once per accumulator.
//!
//! Each [`crate::REGISTRY`] entry declares the [`Columns`] its ingest reads;
//! [`crate::AnalysisSuite`] computes the union for its selection, so a
//! `--analyses domains` run never pays for `Dsample` membership. Reading a
//! column that was not computed panics: an entry that forgets to declare
//! a column it reads fails its single-analysis selection in the tests.
//!
//! A column is for facts an analysis reads on (nearly) every record. An
//! analysis that needs a fact only on a rare subset — the censored records
//! of one day — derives it there instead, so selecting it alone does not
//! pay for a full column.

use crate::datasets::in_sample;
use filterscope_logformat::url::base_domain_of;
use filterscope_logformat::{PolicyClass, RecordView, RequestClass};
use std::borrow::Cow;

/// A set of derived columns (a bit set over the four columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Columns(u8);

impl Columns {
    /// No derived column.
    pub const NONE: Columns = Columns(0);
    /// [`RequestClass`] per record.
    pub const CLASS: Columns = Columns(1);
    /// [`PolicyClass`] per record.
    pub const POLICY: Columns = Columns(2);
    /// `Dsample` membership per record ([`in_sample`]).
    pub const SAMPLE: Columns = Columns(4);
    /// Base domain of the host ([`base_domain_of`]), borrowed from the
    /// block when already lowercase.
    pub const BASE: Columns = Columns(8);

    /// Both sets.
    pub const fn with(self, other: Columns) -> Columns {
        Columns(self.0 | other.0)
    }

    /// Does this set hold every column of `other`?
    pub fn contains(self, other: Columns) -> bool {
        self.0 & other.0 == other.0
    }
}

/// The derived columns of one block, index-aligned with its records.
#[derive(Debug, Default)]
pub struct Derived<'a> {
    class: Vec<RequestClass>,
    policy: Vec<PolicyClass>,
    sample: Vec<bool>,
    base: Vec<Cow<'a, str>>,
}

impl<'a> Derived<'a> {
    /// Compute `columns` over `block`; the other columns stay empty.
    pub fn compute(block: &[RecordView<'a>], columns: Columns) -> Derived<'a> {
        let column = |c: Columns| columns.contains(c);
        Derived {
            class: if column(Columns::CLASS) {
                block.iter().map(RequestClass::of_view).collect()
            } else {
                Vec::new()
            },
            policy: if column(Columns::POLICY) {
                block.iter().map(PolicyClass::of_view).collect()
            } else {
                Vec::new()
            },
            sample: if column(Columns::SAMPLE) {
                block.iter().map(in_sample).collect()
            } else {
                Vec::new()
            },
            base: if column(Columns::BASE) {
                block.iter().map(|r| base_domain_of(r.url.host)).collect()
            } else {
                Vec::new()
            },
        }
    }

    /// Record `i`'s request class.
    pub fn class(&self, i: usize) -> RequestClass {
        *self.class.get(i).unwrap_or_else(|| undeclared("CLASS"))
    }

    /// Record `i`'s policy class.
    pub fn policy(&self, i: usize) -> PolicyClass {
        *self.policy.get(i).unwrap_or_else(|| undeclared("POLICY"))
    }

    /// Is record `i` in `Dsample`?
    pub fn in_sample(&self, i: usize) -> bool {
        *self.sample.get(i).unwrap_or_else(|| undeclared("SAMPLE"))
    }

    /// Record `i`'s base domain.
    pub fn base(&self, i: usize) -> &str {
        self.base.get(i).unwrap_or_else(|| undeclared("BASE"))
    }
}

#[cold]
fn undeclared(column: &str) -> ! {
    panic!("derived column {column} read but not declared by the selection")
}

#[cfg(test)]
mod tests {
    use super::*;
    use filterscope_core::{ProxyId, Timestamp};
    use filterscope_logformat::record::RecordBuilder;
    use filterscope_logformat::RequestUrl;

    #[test]
    fn computes_only_the_requested_columns() {
        let r = RecordBuilder::new(
            Timestamp::parse_fields("2011-08-03", "09:00:00").unwrap(),
            ProxyId::Sg42,
            RequestUrl::http("WWW.Example.COM", "/"),
        )
        .policy_denied()
        .build();
        let block = [r.as_view()];
        let d = Derived::compute(&block, Columns::CLASS.with(Columns::BASE));
        assert_eq!(d.class(0), RequestClass::Censored);
        assert_eq!(d.base(0), "example.com");
        assert!(d.policy.is_empty() && d.sample.is_empty());
        let all = Columns::CLASS
            .with(Columns::POLICY)
            .with(Columns::SAMPLE)
            .with(Columns::BASE);
        let d = Derived::compute(&block, all);
        assert_eq!(d.policy(0), PolicyClass::Censored);
        assert_eq!(d.in_sample(0), in_sample(&block[0]));
    }

    #[test]
    #[should_panic(expected = "derived column SAMPLE read but not declared")]
    fn reading_an_undeclared_column_panics() {
        let r = RecordBuilder::new(
            Timestamp::parse_fields("2011-08-03", "09:00:00").unwrap(),
            ProxyId::Sg42,
            RequestUrl::http("example.com", "/"),
        )
        .build();
        let block = [r.as_view()];
        Derived::compute(&block, Columns::CLASS).in_sample(0);
    }
}
