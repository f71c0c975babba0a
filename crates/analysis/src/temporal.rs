//! Figs. 5–6 and Table 5: temporal structure of the censorship.

use crate::report::{count_pct, Table};
use filterscope_core::{Date, TimeOfDay, Timestamp};
use filterscope_logformat::url::base_domain_of;
use filterscope_logformat::{RecordView, RequestClass};
use filterscope_stats::{CountMap, TimeSeries};

/// Five-minute bins, as in the paper.
pub const BIN_SECS: u32 = 300;

/// Censored/allowed time series over a window (Fig. 5), RCV (Fig. 6), and
/// windowed top-censored-domain tables (Table 5).
#[derive(Debug, Clone)]
pub struct TemporalStats {
    origin: Timestamp,
    pub allowed: TimeSeries,
    pub censored: TimeSeries,
    pub all: TimeSeries,
    /// Censored domains per 2-hour window of the peak day (Table 5).
    peak_day: Date,
    pub peak_windows: Vec<CountMap<String>>,
}

impl TemporalStats {
    /// Track `[start, end)` with Fig. 5's 5-minute bins; `peak_day` is the
    /// day whose censored domains are broken out in 2-hour windows
    /// (August 3 in the paper).
    pub fn new(start: Date, end: Date, peak_day: Date) -> Self {
        let origin = Timestamp::new(start, TimeOfDay::MIDNIGHT);
        let end_ts = Timestamp::new(end, TimeOfDay::MIDNIGHT);
        TemporalStats {
            origin,
            allowed: TimeSeries::spanning(origin, end_ts, BIN_SECS),
            censored: TimeSeries::spanning(origin, end_ts, BIN_SECS),
            all: TimeSeries::spanning(origin, end_ts, BIN_SECS),
            peak_day,
            peak_windows: vec![CountMap::new(); 12],
        }
    }

    /// The standard window: August 1–6 with August 3 as peak day.
    pub fn standard() -> Self {
        TemporalStats::new(
            Date::new(2011, 8, 1).expect("static date"),
            Date::new(2011, 8, 7).expect("static date"),
            Date::new(2011, 8, 3).expect("static date"),
        )
    }

    /// The base domain is derived here, for censored records of one day
    /// only, rather than read from a column computed for every record.
    fn add(&mut self, record: &RecordView<'_>, class: RequestClass) {
        let ts = record.timestamp;
        self.all.record(ts);
        match class {
            RequestClass::Allowed => self.allowed.record(ts),
            RequestClass::Censored => {
                self.censored.record(ts);
                if ts.date() == self.peak_day {
                    let w = (ts.time().hour() / 2) as usize;
                    self.peak_windows[w].bump(base_domain_of(record.url.host).into_owned());
                }
            }
            _ => {}
        }
    }

    /// Fig. 6: RCV per 5-minute bin (censored / all).
    pub fn rcv(&self) -> Vec<f64> {
        self.censored.ratio_against(&self.all)
    }

    /// Fig. 5(b): normalized series.
    pub fn normalized(&self) -> (Vec<f64>, Vec<f64>) {
        (self.censored.normalized(), self.allowed.normalized())
    }

    /// The instant of the largest censored bin.
    pub fn censored_peak(&self) -> Option<(Timestamp, u64)> {
        self.censored
            .peak()
            .map(|(i, v)| (self.censored.bin_start(i), v))
    }

    /// Table 5: top-`n` censored domains for the 2-hour window starting at
    /// `hour` on the peak day.
    pub fn peak_top_domains(&self, hour: u8, n: usize) -> Vec<(String, u64)> {
        self.peak_windows[(hour / 2) as usize].top_n(n)
    }

    /// §5.1 analytics: bins where overall traffic suddenly drops below
    /// `threshold` × the local level (the paper's two August 3 dips,
    /// "which might be correlated to some protests that day").
    ///
    /// A dip is a bin whose total is under `threshold` times the median of
    /// the surrounding ±1 hour window; consecutive dip bins merge into one
    /// event. Returns the start instant and depth (bin / local median) of
    /// each event.
    pub fn detect_dips(&self, threshold: f64) -> Vec<(Timestamp, f64)> {
        let bins = self.all.bins();
        let per_hour = (3600 / BIN_SECS) as usize;
        let mut events: Vec<(Timestamp, f64)> = Vec::new();
        let mut in_dip = false;
        for i in 0..bins.len() {
            let lo = i.saturating_sub(per_hour);
            let hi = (i + per_hour + 1).min(bins.len());
            let mut window: Vec<u64> = bins[lo..hi].to_vec();
            window.sort_unstable();
            let median = window[window.len() / 2] as f64;
            // Ignore genuinely quiet periods (deep night) where a "dip" is
            // meaningless.
            if median < 8.0 {
                in_dip = false;
                continue;
            }
            let ratio = bins[i] as f64 / median;
            if ratio < threshold {
                if !in_dip {
                    events.push((self.all.bin_start(i), ratio));
                    in_dip = true;
                }
            } else {
                in_dip = false;
            }
        }
        events
    }

    /// §5.1's peak attribution: for the `top_n` highest-RCV bins of the peak
    /// day, the fraction of censored requests going to Instant-Messaging
    /// domains (skype.com / live.com / ceipmsn.com). The paper concludes
    /// "censorship peaks might be due to sudden higher volumes of traffic
    /// targeting Skype and MSN live messenger websites".
    pub fn peak_im_share(&self) -> f64 {
        // Use the 8am-10am window of the peak day (where Fig. 6 peaks).
        let window = &self.peak_windows[4];
        let total = window.total();
        if total == 0 {
            return 0.0;
        }
        let im: u64 = ["skype.com", "live.com", "ceipmsn.com"]
            .iter()
            .map(|d| window.get(*d))
            .sum();
        im as f64 / total as f64
    }

    /// Render Fig. 5 as hourly aggregates (condensed from 5-min bins).
    pub fn render_fig5(&self) -> String {
        let mut t = Table::new(
            "Fig 5: Censored and allowed traffic (hourly aggregate)",
            &["Hour (from window start)", "Censored", "Allowed"],
        );
        let per_hour = 3600 / BIN_SECS as usize;
        let bins = self.censored.bins().len();
        for h in 0..bins / per_hour {
            let c: u64 = self.censored.bins()[h * per_hour..(h + 1) * per_hour]
                .iter()
                .sum();
            let a: u64 = self.allowed.bins()[h * per_hour..(h + 1) * per_hour]
                .iter()
                .sum();
            let start = self.origin.plus_seconds(h as i64 * 3600);
            t.row([start.to_string(), c.to_string(), a.to_string()]);
        }
        t.render()
    }

    /// Render Fig. 6: RCV on the peak day, hourly maxima.
    pub fn render_fig6(&self) -> String {
        let mut t = Table::new(
            "Fig 6: Relative Censored traffic Volume (RCV), peak day, per hour",
            &["Hour", "max RCV in hour"],
        );
        let rcv = self.rcv();
        let day_offset = (Timestamp::new(self.peak_day, TimeOfDay::MIDNIGHT).epoch_seconds()
            - self.origin.epoch_seconds())
            / BIN_SECS as i64;
        let per_hour = 3600 / BIN_SECS as usize;
        for h in 0..24usize {
            let s = day_offset as usize + h * per_hour;
            let e = (s + per_hour).min(rcv.len());
            if s >= rcv.len() {
                break;
            }
            let max = rcv[s..e].iter().cloned().fold(0.0f64, f64::max);
            t.row([format!("{h:02}:00"), format!("{max:.4}")]);
        }
        t.render()
    }

    /// Render Table 5: top censored domains in the paper's three windows.
    pub fn render_table5(&self) -> String {
        let mut t = Table::new(
            "Table 5: Top censored domains on peak day (6am-8am / 8am-10am / 10am-12pm)",
            &["6am-8am", "%", "8am-10am", "%", "10am-12pm", "%"],
        );
        let windows: Vec<Vec<(String, u64)>> = [6u8, 8, 10]
            .iter()
            .map(|h| self.peak_top_domains(*h, 10))
            .collect();
        let totals: Vec<u64> = [6u8, 8, 10]
            .iter()
            .map(|h| self.peak_windows[(*h / 2) as usize].total())
            .collect();
        for i in 0..10 {
            let mut cells: Vec<String> = Vec::with_capacity(6);
            for (w, total) in windows.iter().zip(&totals) {
                match w.get(i) {
                    Some((d, n)) => {
                        cells.push(d.clone());
                        cells.push(count_pct(*n, *total));
                    }
                    None => {
                        cells.push(String::new());
                        cells.push(String::new());
                    }
                }
            }
            t.row(cells);
        }
        t.render()
    }
}

impl crate::registry::Analysis for TemporalStats {
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
        let other: TemporalStats = crate::registry::downcast(other);
        self.allowed.merge(&other.allowed);
        self.censored.merge(&other.censored);
        self.all.merge(&other.all);
        for (mine, theirs) in self.peak_windows.iter_mut().zip(other.peak_windows) {
            mine.merge(theirs);
        }
    }

    fn headline(&self) -> u64 {
        self.censored.total()
    }

    fn render(&self, _ctx: &crate::AnalysisContext) -> String {
        let mut out = self.render_fig5();
        out.push('\n');
        out.push_str(&self.render_fig6());
        out.push('\n');
        out.push_str(&self.render_table5());
        out
    }

    fn save_state(&self, w: &mut filterscope_core::ByteWriter) {
        crate::state::put_series(w, &self.allowed);
        crate::state::put_series(w, &self.censored);
        crate::state::put_series(w, &self.all);
        crate::state::put_len(w, self.peak_windows.len());
        for window in &self.peak_windows {
            crate::state::put_str_counts(w, window);
        }
    }

    fn load_state(
        &mut self,
        r: &mut filterscope_core::ByteReader<'_>,
    ) -> filterscope_core::Result<()> {
        crate::state::get_series_into(r, &mut self.allowed)?;
        crate::state::get_series_into(r, &mut self.censored)?;
        crate::state::get_series_into(r, &mut self.all)?;
        if crate::state::get_len(r)? != self.peak_windows.len() {
            return Err(crate::state::corrupt("peak-window count mismatch"));
        }
        for window in self.peak_windows.iter_mut() {
            window.merge(crate::state::get_str_counts(r)?);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{feed, Analysis};
    use filterscope_core::ProxyId;
    use filterscope_logformat::record::RecordBuilder;
    use filterscope_logformat::{LogRecord, RequestUrl};

    fn rec(date: &str, time: &str, host: &str, censored: bool) -> LogRecord {
        let b = RecordBuilder::new(
            Timestamp::parse_fields(date, time).unwrap(),
            ProxyId::Sg42,
            RequestUrl::http(host, "/"),
        );
        if censored {
            b.policy_denied().build()
        } else {
            b.build()
        }
    }

    #[test]
    fn series_bin_assignment() {
        let mut t = TemporalStats::standard();
        feed(
            &mut t,
            &[
                rec("2011-08-01", "00:02:00", "a.com", false),
                rec("2011-08-01", "00:02:30", "b.com", true),
            ],
        );
        assert_eq!(t.allowed.bins()[0], 1);
        assert_eq!(t.censored.bins()[0], 1);
        assert_eq!(t.all.bins()[0], 2);
        let rcv = t.rcv();
        assert!((rcv[0] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn peak_windows_capture_peak_day_only() {
        let mut t = TemporalStats::standard();
        feed(
            &mut t,
            &[
                rec("2011-08-03", "08:30:00", "skype.com", true),
                rec("2011-08-03", "09:59:59", "skype.com", true),
                rec("2011-08-02", "08:30:00", "skype.com", true),
            ],
        ); // not peak day
        feed(&mut t, &[rec("2011-08-03", "08:30:00", "ok.com", false)]); // not censored
        assert_eq!(t.peak_top_domains(8, 5), vec![("skype.com".to_string(), 2)]);
        assert!(t.peak_top_domains(6, 5).is_empty());
    }

    #[test]
    fn censored_peak_location() {
        let mut t = TemporalStats::standard();
        for _ in 0..5 {
            feed(&mut t, &[rec("2011-08-03", "08:10:00", "x.com", true)]);
        }
        feed(&mut t, &[rec("2011-08-02", "10:00:00", "x.com", true)]);
        let (when, count) = t.censored_peak().unwrap();
        assert_eq!(count, 5);
        assert_eq!(when.date().to_string(), "2011-08-03");
        assert_eq!(when.time().hour(), 8);
    }

    #[test]
    fn renders() {
        let mut t = TemporalStats::standard();
        feed(
            &mut t,
            &[
                rec("2011-08-03", "08:30:00", "skype.com", true),
                rec("2011-08-03", "08:31:00", "ok.com", false),
            ],
        );
        assert!(t.render_fig5().contains("Fig 5"));
        assert!(t.render_fig6().contains("08:00"));
        assert!(t.render_table5().contains("skype.com"));
    }

    #[test]
    fn dip_detection_finds_sudden_drops() {
        let mut t = TemporalStats::standard();
        // Steady traffic 10:00-12:00 on Aug 2, with a collapse 10:50-11:00.
        for minute in 0..120u32 {
            let ts_str = format!("{:02}:{:02}:00", 10 + minute / 60, minute % 60);
            let in_dip = (50..60).contains(&minute);
            let n = if in_dip { 1 } else { 12 };
            for k in 0..n {
                feed(
                    &mut t,
                    &[rec("2011-08-02", &ts_str, &format!("h{k}.example"), false)],
                );
            }
        }
        let dips = t.detect_dips(0.4);
        assert_eq!(dips.len(), 1, "dips: {dips:?}");
        assert_eq!(dips[0].0.time().hour(), 10);
        assert!(dips[0].0.time().minute() >= 45);
        assert!(dips[0].1 < 0.4);
        // No false dips at the quiet boundaries (median guard).
        let none = TemporalStats::standard().detect_dips(0.4);
        assert!(none.is_empty());
    }

    #[test]
    fn peak_im_share_attributes_peaks() {
        let mut t = TemporalStats::standard();
        for _ in 0..8 {
            feed(&mut t, &[rec("2011-08-03", "08:30:00", "skype.com", true)]);
        }
        feed(
            &mut t,
            &[
                rec("2011-08-03", "08:40:00", "live.com", true),
                rec("2011-08-03", "08:45:00", "metacafe.com", true),
            ],
        );
        let share = t.peak_im_share();
        assert!((share - 0.9).abs() < 1e-9, "share {share}");
    }

    #[test]
    fn merge_adds_series_and_windows() {
        let mut a = TemporalStats::standard();
        feed(&mut a, &[rec("2011-08-03", "08:30:00", "skype.com", true)]);
        let mut b = TemporalStats::standard();
        feed(&mut b, &[rec("2011-08-03", "08:40:00", "skype.com", true)]);
        a.merge(Box::new(b));
        assert_eq!(a.censored.total(), 2);
        assert_eq!(a.peak_top_domains(8, 1)[0].1, 2);
    }
}
