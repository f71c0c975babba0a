//! Plot-ready CSV series for every figure.
//!
//! The text report condenses figures into tables; this module emits the raw
//! series the paper's plots are drawn from, one CSV per figure, so any
//! plotting tool can regenerate them faithfully.

use crate::suite::AnalysisSuite;
use filterscope_logformat::RequestClass;

fn csv_escape(s: &str) -> String {
    if s.contains(',') || s.contains('"') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// One figure's series: file stem and CSV content.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FigureSeries {
    pub stem: &'static str,
    pub csv: String,
}

impl AnalysisSuite {
    /// All figure series, ready to write to disk.
    pub fn figure_series(&self) -> Vec<FigureSeries> {
        let mut out = Vec::new();

        // Fig 1: port distribution.
        let mut csv = String::from("port,allowed,censored\n");
        let mut ports: Vec<u16> = self
            .ports()
            .allowed
            .iter()
            .map(|(p, _)| *p)
            .chain(self.ports().censored.iter().map(|(p, _)| *p))
            .collect();
        ports.sort_unstable();
        ports.dedup();
        for p in ports {
            csv.push_str(&format!(
                "{p},{},{}\n",
                self.ports().allowed.get(&p),
                self.ports().censored.get(&p)
            ));
        }
        out.push(FigureSeries {
            stem: "fig1_ports",
            csv,
        });

        // Fig 2: requests-per-domain frequency of frequencies, per class.
        let mut csv = String::from("class,requests,domains\n");
        for (label, class) in [
            ("allowed", RequestClass::Allowed),
            ("denied", RequestClass::Error),
            ("censored", RequestClass::Censored),
        ] {
            for (r, d) in self.domains().request_distribution(class) {
                csv.push_str(&format!("{label},{r},{d}\n"));
            }
        }
        out.push(FigureSeries {
            stem: "fig2_domain_distribution",
            csv,
        });

        // Fig 3: censored categories.
        let mut csv = String::from("category,censored\n");
        for (name, n) in self.categories().distribution(0) {
            csv.push_str(&format!("{},{n}\n", csv_escape(&name)));
        }
        out.push(FigureSeries {
            stem: "fig3_categories",
            csv,
        });

        // Fig 4a: censored requests per user histogram.
        let mut csv = String::from("censored_requests,users\n");
        let h = self.users().censored_requests_histogram();
        for (lo, n) in h.bins() {
            csv.push_str(&format!("{lo},{n}\n"));
        }
        csv.push_str(&format!("overflow,{}\n", h.overflow()));
        out.push(FigureSeries {
            stem: "fig4a_censored_per_user",
            csv,
        });

        // Fig 4b: activity CDFs.
        let (censored_cdf, clean_cdf) = self.users().activity_cdfs();
        let mut csv = String::from("group,requests,cdf\n");
        for (x, y) in censored_cdf.points() {
            csv.push_str(&format!("censored,{x},{y:.6}\n"));
        }
        for (x, y) in clean_cdf.points() {
            csv.push_str(&format!("non-censored,{x},{y:.6}\n"));
        }
        out.push(FigureSeries {
            stem: "fig4b_user_activity_cdf",
            csv,
        });

        // Fig 5: censored/allowed per 5-minute bin (absolute + normalized).
        let (cn, an) = self.temporal().normalized();
        let mut csv = String::from("bin_start,censored,allowed,censored_norm,allowed_norm\n");
        for i in 0..self.temporal().censored.bins().len() {
            csv.push_str(&format!(
                "{},{},{},{:.8},{:.8}\n",
                self.temporal().censored.bin_start(i),
                self.temporal().censored.bins()[i],
                self.temporal().allowed.bins()[i],
                cn[i],
                an[i],
            ));
        }
        out.push(FigureSeries {
            stem: "fig5_timeseries",
            csv,
        });

        // Fig 6: RCV per bin.
        let mut csv = String::from("bin_start,rcv\n");
        for (i, v) in self.temporal().rcv().into_iter().enumerate() {
            csv.push_str(&format!("{},{v:.8}\n", self.temporal().all.bin_start(i)));
        }
        out.push(FigureSeries {
            stem: "fig6_rcv",
            csv,
        });

        // Fig 7: per-proxy load and censored series (hourly, Aug 3-4).
        let mut csv = String::from("bin_start,proxy,all,censored\n");
        for (pi, p) in filterscope_core::ProxyId::ALL.iter().enumerate() {
            let load = &self.proxies().load[pi];
            let censored = &self.proxies().censored_load[pi];
            for i in 0..load.bins().len() {
                csv.push_str(&format!(
                    "{},{},{},{}\n",
                    load.bin_start(i),
                    p.label(),
                    load.bins()[i],
                    censored.bins()[i],
                ));
            }
        }
        out.push(FigureSeries {
            stem: "fig7_proxy_load",
            csv,
        });

        // Fig 8: Tor hourly series.
        let mut csv = String::from("bin_start,tor_requests,tor_censored,sg44_all,sg44_censored\n");
        for i in 0..self.tor().hourly.bins().len() {
            csv.push_str(&format!(
                "{},{},{},{},{}\n",
                self.tor().hourly.bin_start(i),
                self.tor().hourly.bins()[i],
                self.tor().hourly_censored.bins()[i],
                self.tor().sg44_all.bins()[i],
                self.tor().sg44_censored.bins()[i],
            ));
        }
        out.push(FigureSeries {
            stem: "fig8_tor_hourly",
            csv,
        });

        // Fig 9: Rfilter per hour.
        let mut csv = String::from("hour_bin,rfilter\n");
        for (k, r) in self.tor().rfilter() {
            match r {
                Some(v) => csv.push_str(&format!("{k},{v:.6}\n")),
                None => csv.push_str(&format!("{k},\n")),
            }
        }
        out.push(FigureSeries {
            stem: "fig9_rfilter",
            csv,
        });

        // Fig 10a/b: anonymizer CDFs.
        let mut csv = String::from("series,x,cdf\n");
        for (x, y) in self.anonymizers().allowed_request_cdf().points() {
            csv.push_str(&format!("requests_per_host,{x},{y:.6}\n"));
        }
        for (x, y) in self.anonymizers().ratio_cdf().points() {
            csv.push_str(&format!("allowed_to_censored_ratio,{x:.4},{y:.6}\n"));
        }
        out.push(FigureSeries {
            stem: "fig10_anonymizers",
            csv,
        });

        out
    }

    /// Write every figure series into `dir` as `<stem>.csv`.
    pub fn write_figure_series(
        &self,
        dir: &std::path::Path,
    ) -> std::io::Result<Vec<std::path::PathBuf>> {
        std::fs::create_dir_all(dir)?;
        let mut paths = Vec::new();
        for fig in self.figure_series() {
            let path = dir.join(format!("{}.csv", fig.stem));
            std::fs::write(&path, fig.csv)?;
            paths.push(path);
        }
        Ok(paths)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::AnalysisContext;
    use filterscope_core::{ProxyId, Timestamp};
    use filterscope_logformat::record::RecordBuilder;
    use filterscope_logformat::RequestUrl;

    fn small_suite() -> AnalysisSuite {
        let ctx = AnalysisContext::standard(None);
        let mut suite = AnalysisSuite::new(1);
        let records: Vec<_> = (0..50u32)
            .map(|i| {
                let b = RecordBuilder::new(
                    Timestamp::parse_fields("2011-08-03", "08:30:00").unwrap(),
                    ProxyId::from_index((i % 7) as usize).unwrap(),
                    RequestUrl::http(format!("h{}.example", i % 5), "/").with_port(80),
                );
                if i % 10 == 0 {
                    b.policy_denied().build()
                } else {
                    b.build()
                }
            })
            .collect();
        suite.ingest_records(&ctx, &records);
        suite
    }

    #[test]
    fn every_figure_has_a_series_with_header() {
        let suite = small_suite();
        let series = suite.figure_series();
        let stems: Vec<&str> = series.iter().map(|f| f.stem).collect();
        for expected in [
            "fig1_ports",
            "fig2_domain_distribution",
            "fig3_categories",
            "fig4a_censored_per_user",
            "fig4b_user_activity_cdf",
            "fig5_timeseries",
            "fig6_rcv",
            "fig7_proxy_load",
            "fig8_tor_hourly",
            "fig9_rfilter",
            "fig10_anonymizers",
        ] {
            assert!(stems.contains(&expected), "missing {expected}");
        }
        for fig in &series {
            assert!(fig.csv.lines().count() >= 1, "{} empty", fig.stem);
            assert!(
                fig.csv.lines().next().unwrap().contains(','),
                "{} no header",
                fig.stem
            );
        }
    }

    #[test]
    fn fig1_rows_match_counts() {
        let suite = small_suite();
        let fig1 = suite
            .figure_series()
            .into_iter()
            .find(|f| f.stem == "fig1_ports")
            .unwrap();
        // Port 80 row holds 45 allowed / 5 censored.
        assert!(fig1.csv.contains("80,45,5"), "{}", fig1.csv);
    }

    #[test]
    fn writes_to_disk() {
        let suite = small_suite();
        let dir = std::env::temp_dir().join("filterscope_series_test");
        let paths = suite.write_figure_series(&dir).unwrap();
        assert_eq!(paths.len(), 11);
        for p in paths {
            assert!(p.exists());
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn csv_escaping() {
        assert_eq!(csv_escape("plain"), "plain");
        assert_eq!(csv_escape("a,b"), "\"a,b\"");
        assert_eq!(csv_escape("q\"x"), "\"q\"\"x\"");
    }
}
