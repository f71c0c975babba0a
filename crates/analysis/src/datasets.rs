//! Dataset membership and Table 1.
//!
//! The paper works with four datasets (§3.3): `Dfull` (everything),
//! `Dsample` (a 4 % random sample used for summary statistics), `Duser`
//! (the July 22–23 window where client IPs were hashed) and `Ddenied`
//! (every request that raised an exception). `DIPv4` (§5.4) is the subset
//! whose `cs-host` is a literal IPv4 address.

use crate::report::{thousands, Table};
use filterscope_logformat::{classify, ClientId, RecordView};
use filterscope_proxy::hashing::{fnv1a, fnv1a_from};

/// Per-mille size of `Dsample` (the paper uses 4 %).
pub const SAMPLE_PER_MILLE: u64 = 40;

/// Is this record in the deterministic 4 % sample?
///
/// Sampling hashes the record's identity (URL + client + timestamp) so the
/// sample is stable across passes and shards.
pub fn in_sample(record: &RecordView<'_>) -> bool {
    let url = &record.url;
    let mut h = fnv1a(url.host.as_bytes());
    h = fnv1a_from(h, url.path.as_bytes());
    h = fnv1a_from(h, url.query.as_bytes());
    h = fnv1a_from(h, &record.timestamp.epoch_seconds().to_le_bytes());
    h = fnv1a_from(h, record.client.logged(&mut [0; 16]).as_bytes());
    h % 1000 < SAMPLE_PER_MILLE
}

/// Is this record in `Duser` (hashed client identifiers)?
pub fn in_user_dataset(record: &RecordView<'_>) -> bool {
    matches!(record.client, ClientId::Hashed(_))
}

/// Is this record in `Ddenied` (raised an exception)?
pub fn in_denied_dataset(record: &RecordView<'_>) -> bool {
    classify::in_denied_dataset_view(record)
}

/// Is this record in `DIPv4` (literal-IP `cs-host`)?
pub fn in_ipv4_dataset(record: &RecordView<'_>) -> bool {
    record.url.host_is_ip()
}

/// Table 1 accumulator: request counts per dataset.
#[derive(Debug, Clone, Default)]
pub struct DatasetCounts {
    pub full: u64,
    pub sample: u64,
    pub user: u64,
    pub denied: u64,
    pub ipv4: u64,
}

impl DatasetCounts {
    /// Empty counts.
    pub fn new() -> Self {
        Self::default()
    }

    fn add(&mut self, record: &RecordView<'_>, sample: bool) {
        self.full += 1;
        if sample {
            self.sample += 1;
        }
        if in_user_dataset(record) {
            self.user += 1;
        }
        if in_denied_dataset(record) {
            self.denied += 1;
        }
        if in_ipv4_dataset(record) {
            self.ipv4 += 1;
        }
    }

    /// Render Table 1.
    pub fn render(&self) -> String {
        let mut t = Table::new("Table 1: Datasets description", &["Dataset", "# Requests"]);
        t.row(["Full", &thousands(self.full)]);
        t.row(["Sample (4%)", &thousands(self.sample)]);
        t.row(["User", &thousands(self.user)]);
        t.row(["Denied", &thousands(self.denied)]);
        t.row(["DIPv4", &thousands(self.ipv4)]);
        t.render()
    }
}

impl crate::registry::Analysis for DatasetCounts {
    fn ingest_block(
        &mut self,
        _ctx: &crate::AnalysisContext,
        block: &[RecordView<'_>],
        derived: &crate::Derived<'_>,
    ) {
        for (i, record) in block.iter().enumerate() {
            self.add(record, derived.in_sample(i));
        }
    }

    fn merge(&mut self, other: Box<dyn crate::registry::Analysis>) {
        let other: DatasetCounts = crate::registry::downcast(other);
        self.full += other.full;
        self.sample += other.sample;
        self.user += other.user;
        self.denied += other.denied;
        self.ipv4 += other.ipv4;
    }

    fn headline(&self) -> u64 {
        self.denied
    }

    fn render(&self, _ctx: &crate::AnalysisContext) -> String {
        DatasetCounts::render(self)
    }

    fn save_state(&self, w: &mut filterscope_core::ByteWriter) {
        w.put_u64(self.full);
        w.put_u64(self.sample);
        w.put_u64(self.user);
        w.put_u64(self.denied);
        w.put_u64(self.ipv4);
    }

    fn load_state(
        &mut self,
        r: &mut filterscope_core::ByteReader<'_>,
    ) -> filterscope_core::Result<()> {
        self.full += r.get_u64()?;
        self.sample += r.get_u64()?;
        self.user += r.get_u64()?;
        self.denied += r.get_u64()?;
        self.ipv4 += r.get_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{feed, Analysis};
    use filterscope_core::{ProxyId, Timestamp};
    use filterscope_logformat::record::RecordBuilder;
    use filterscope_logformat::{ExceptionId, LogRecord, RequestUrl};

    fn rec(host: &str, hashed: bool, denied: bool) -> LogRecord {
        let mut b = RecordBuilder::new(
            Timestamp::parse_fields("2011-07-22", "10:00:00").unwrap(),
            ProxyId::Sg42,
            RequestUrl::http(host, "/"),
        );
        if hashed {
            b = b.client(ClientId::Hashed(0xAB));
        }
        if denied {
            b = b.network_error(ExceptionId::TcpError);
        }
        b.build()
    }

    #[test]
    fn membership_rules() {
        let r = rec("1.2.3.4", true, true);
        assert!(in_user_dataset(&r.as_view()));
        assert!(in_denied_dataset(&r.as_view()));
        assert!(in_ipv4_dataset(&r.as_view()));
        let r2 = rec("example.com", false, false);
        assert!(!in_user_dataset(&r2.as_view()));
        assert!(!in_denied_dataset(&r2.as_view()));
        assert!(!in_ipv4_dataset(&r2.as_view()));
    }

    #[test]
    fn sample_rate_converges_to_4_percent() {
        let mut hits = 0u64;
        let n = 100_000u64;
        for i in 0..n {
            let r = rec(&format!("h{i}.example"), false, false);
            if in_sample(&r.as_view()) {
                hits += 1;
            }
        }
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.04).abs() < 0.005, "rate {rate}");
    }

    #[test]
    fn sampling_is_deterministic() {
        let r = rec("stable.example", false, false);
        assert_eq!(in_sample(&r.as_view()), in_sample(&r.as_view()));
        // And identical whether the view came from `as_view` or a re-parse
        // of the serialized line (slices over a line buffer).
        let line = r.write_csv();
        let mut splitter = filterscope_logformat::LineSplitter::new();
        let parsed = filterscope_logformat::Schema::canonical()
            .parse_view(&mut splitter, &line, 1)
            .unwrap();
        assert_eq!(in_sample(&parsed), in_sample(&r.as_view()));
    }

    #[test]
    fn counts_and_merge() {
        let mut a = DatasetCounts::new();
        feed(
            &mut a,
            &[rec("x.com", true, false), rec("9.9.9.9", false, true)],
        );
        let mut b = DatasetCounts::new();
        feed(&mut b, &[rec("y.com", false, false)]);
        a.merge(Box::new(b));
        assert_eq!(a.full, 3);
        assert_eq!(a.user, 1);
        assert_eq!(a.denied, 1);
        assert_eq!(a.ipv4, 1);
        let rendered = a.render();
        assert!(rendered.contains("Table 1"));
        assert!(rendered.contains("DIPv4"));
    }
}
