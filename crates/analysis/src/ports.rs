//! Fig. 1: destination-port distribution of allowed and censored traffic.

use crate::report::{count_pct, Table};
use filterscope_logformat::{RecordView, RequestClass};
use filterscope_stats::CountMap;

/// Port distribution accumulator.
#[derive(Debug, Clone, Default)]
pub struct PortStats {
    pub allowed: CountMap<u16>,
    pub censored: CountMap<u16>,
}

impl PortStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    fn add(&mut self, record: &RecordView<'_>, class: RequestClass) {
        match class {
            RequestClass::Allowed => self.allowed.bump(record.url.port),
            RequestClass::Censored => self.censored.bump(record.url.port),
            _ => {}
        }
    }

    /// Top censored ports.
    pub fn top_censored(&self, n: usize) -> Vec<(u16, u64)> {
        self.censored.top_n(n)
    }

    /// Render the Fig. 1 data.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            "Fig 1: Destination ports, allowed vs censored",
            &["Port", "Allowed", "Censored"],
        );
        let mut ports: Vec<u16> = self
            .allowed
            .iter()
            .map(|(p, _)| *p)
            .chain(self.censored.iter().map(|(p, _)| *p))
            .collect();
        ports.sort_unstable();
        ports.dedup();
        // Order by censored volume (the figure's focus), then port.
        ports.sort_by_key(|p| (std::cmp::Reverse(self.censored.get(p)), *p));
        for p in ports.into_iter().take(12) {
            t.row([
                p.to_string(),
                count_pct(self.allowed.get(&p), self.allowed.total()),
                count_pct(self.censored.get(&p), self.censored.total()),
            ]);
        }
        t.render()
    }
}

impl crate::registry::Analysis for PortStats {
    fn ingest_block(
        &mut self,
        _ctx: &crate::AnalysisContext,
        block: &[RecordView<'_>],
        derived: &crate::Derived<'_>,
    ) {
        for (i, record) in block.iter().enumerate() {
            self.add(record, derived.class(i));
        }
    }

    fn merge(&mut self, other: Box<dyn crate::registry::Analysis>) {
        let other: PortStats = crate::registry::downcast(other);
        self.allowed.merge(other.allowed);
        self.censored.merge(other.censored);
    }

    fn headline(&self) -> u64 {
        self.censored.total()
    }

    fn render(&self, _ctx: &crate::AnalysisContext) -> String {
        PortStats::render(self)
    }

    fn save_state(&self, w: &mut filterscope_core::ByteWriter) {
        crate::state::put_u64_counts(w, &self.allowed, u64::from);
        crate::state::put_u64_counts(w, &self.censored, u64::from);
    }

    fn load_state(
        &mut self,
        r: &mut filterscope_core::ByteReader<'_>,
    ) -> filterscope_core::Result<()> {
        let port = |v: u64| {
            u16::try_from(v).map_err(|_| crate::state::corrupt("port outside the u16 domain"))
        };
        self.allowed.merge(crate::state::get_u64_counts(r, port)?);
        self.censored.merge(crate::state::get_u64_counts(r, port)?);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::feed;
    use filterscope_core::{ProxyId, Timestamp};
    use filterscope_logformat::record::RecordBuilder;
    use filterscope_logformat::{LogRecord, RequestUrl};

    fn rec(port: u16, censored: bool) -> LogRecord {
        let b = RecordBuilder::new(
            Timestamp::parse_fields("2011-08-02", "09:00:00").unwrap(),
            ProxyId::Sg42,
            RequestUrl::http("host.example", "/").with_port(port),
        );
        if censored {
            b.policy_denied().build()
        } else {
            b.build()
        }
    }

    #[test]
    fn counts_by_class() {
        let mut p = PortStats::new();
        feed(&mut p, &[rec(80, false), rec(80, true), rec(9001, true)]);
        assert_eq!(p.allowed.get(&80), 1);
        assert_eq!(p.censored.get(&80), 1);
        assert_eq!(p.censored.get(&9001), 1);
        assert_eq!(p.top_censored(1)[0].1, 1);
    }

    #[test]
    fn errors_are_excluded() {
        let mut p = PortStats::new();
        let r = RecordBuilder::new(
            Timestamp::parse_fields("2011-08-02", "09:00:00").unwrap(),
            ProxyId::Sg42,
            RequestUrl::http("x.com", "/"),
        )
        .network_error(filterscope_logformat::ExceptionId::TcpError)
        .build();
        feed(&mut p, &[r]);
        assert_eq!(p.allowed.total() + p.censored.total(), 0);
    }

    #[test]
    fn render_orders_by_censored() {
        let mut p = PortStats::new();
        for _ in 0..5 {
            feed(&mut p, &[rec(443, true)]);
        }
        feed(&mut p, &[rec(80, true)]);
        let s = p.render();
        let pos443 = s.find("443").unwrap();
        // Port 80 appears after 443 in censored ordering; find the row start.
        let pos80 = s
            .lines()
            .position(|l| l.trim_start().starts_with("80"))
            .unwrap();
        let pos443row = s
            .lines()
            .position(|l| l.trim_start().starts_with("443"))
            .unwrap();
        assert!(pos443row < pos80, "443 row should precede 80: {pos443}");
    }
}
