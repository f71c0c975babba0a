//! Read-out benchmarks: what one `serve` publish pays for the bounded
//! top-n tables, at a distinct-key count a long-lived daemon reaches.
//!
//! * `domains_render_export_75k` — the domains section of a publish
//!   (Fig. 2 and Table 4 render plus the JSON export) over ~75k distinct
//!   allowed domains with a Zipf-shaped head and a singleton tail;
//! * `top10_select_75k` / `top10_sort_all_75k` — top-10 of the same
//!   symbol-keyed counts, through `top_n_by_count` (select the floor, name
//!   only the tie band) and through the sort-everything-then-truncate
//!   definition it replaces.

use filterscope_analysis::{AnalysisContext, AnalysisSuite, Selection, SuiteParams};
use filterscope_bench::harness::{black_box, Harness};
use filterscope_core::{Interner, ProxyId, Sym, Timestamp};
use filterscope_logformat::record::RecordBuilder;
use filterscope_logformat::RequestUrl;
use filterscope_stats::counter::top_n_by_count;
use filterscope_stats::CountMap;

/// Distinct allowed domains (the scale-2048 corpus has 76,622).
const DOMAINS: u64 = 75_000;
/// Distinct censored domains.
const CENSORED: u64 = 300;

/// Requests for the `rank`-th most popular domain: a 1/rank head over a
/// long tail of single requests.
fn requests(rank: u64) -> u64 {
    1 + 2_000 / rank
}

fn domain(rank: u64) -> String {
    format!("site{rank}.com")
}

/// A suite running only `domains`, fed every request of the distribution.
fn domains_suite(ctx: &AnalysisContext) -> AnalysisSuite {
    let ts = Timestamp::parse_fields("2011-08-02", "09:00:00").expect("valid timestamp");
    let records = (1..=DOMAINS).flat_map(|rank| {
        let builder = RecordBuilder::new(ts, ProxyId::Sg42, RequestUrl::http(domain(rank), "/"));
        let record = if rank <= CENSORED {
            builder.policy_denied().build()
        } else {
            builder.build()
        };
        std::iter::repeat_n(record, requests(rank) as usize)
    });
    let mut suite =
        AnalysisSuite::with_selection(&SuiteParams::new(1), &Selection::pinned("domains"));
    suite.ingest_records(ctx, records);
    suite
}

fn bench_readout(c: &mut Harness) {
    let mut g = c.benchmark_group("readout");

    let ctx = AnalysisContext::standard(None);
    let suite = domains_suite(&ctx);
    let stats = suite.analysis("domains").expect("selected");
    g.bench_function("domains_render_export_75k", |b| {
        b.iter(|| black_box((stats.render(&ctx), stats.export_json(&ctx))))
    });

    let mut interner = Interner::new();
    let mut counts: CountMap<Sym> = CountMap::new();
    for rank in 1..=DOMAINS {
        counts.add(interner.intern(&domain(rank)), requests(rank));
    }
    g.bench_function("top10_select_75k", |b| {
        b.iter(|| {
            black_box(top_n_by_count(
                counts.iter().map(|(sym, n)| (*sym, n)),
                10,
                |sym| interner.resolve(*sym),
            ))
        })
    });
    g.bench_function("top10_sort_all_75k", |b| {
        b.iter(|| {
            let mut all: Vec<(&str, u64)> = counts
                .iter()
                .map(|(sym, n)| (interner.resolve(*sym), n))
                .collect();
            all.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
            all.truncate(10);
            black_box(all)
        })
    });
    g.finish();
}

fn main() {
    let mut c = Harness::default();
    bench_readout(&mut c);
}
