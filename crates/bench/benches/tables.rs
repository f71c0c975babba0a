//! One benchmark per paper table: each measures regenerating that table's
//! analysis from the shared corpus (ingest where the table needs its own
//! accumulator, or the final reduction where it reads a shared one).

use filterscope_bench::harness::{black_box, Harness};
use filterscope_bench::{analyze_only, analyzed, corpus};

fn bench_tables(c: &mut Harness) {
    let (_, ctx) = corpus();
    let suite = analyzed();
    let mut g = c.benchmark_group("tables");

    g.bench_function("table1_datasets", |b| {
        b.iter(|| {
            let suite = analyze_only("datasets");
            let s = suite.datasets();
            black_box(s.render())
        })
    });

    g.bench_function("table3_overview", |b| {
        b.iter(|| {
            let suite = analyze_only("overview");
            let s = suite.overview();
            black_box(s.render())
        })
    });

    g.bench_function("table4_top_domains", |b| {
        b.iter(|| {
            let suite = analyze_only("domains");
            let s = suite.domains();
            black_box((s.top_allowed(10), s.top_censored(10)))
        })
    });

    g.bench_function("table5_peak_domains", |b| {
        b.iter(|| {
            let suite = analyze_only("temporal");
            let s = suite.temporal();
            black_box(s.render_table5())
        })
    });

    g.bench_function("table6_proxy_similarity", |b| {
        b.iter(|| {
            let suite = analyze_only("proxies");
            let s = suite.proxies();
            black_box(s.cosine_matrix())
        })
    });

    g.bench_function("table7_redirects", |b| {
        b.iter(|| {
            let suite = analyze_only("redirects");
            let s = suite.redirects();
            black_box(s.render())
        })
    });

    g.bench_function("table8_suspected_domains", |b| {
        // The ingest phase dominates; the recovery reduction runs on top.
        b.iter(|| {
            let suite = analyze_only("inference");
            let s = suite.inference();
            black_box(s.recover_domains(3))
        })
    });

    g.bench_function("table9_categories", |b| {
        let s = suite.inference();
        b.iter(|| black_box(s.categorize_suspected(ctx, 3)))
    });

    g.bench_function("table10_keywords", |b| {
        let s = suite.inference();
        b.iter(|| black_box(s.render_table10()))
    });

    g.bench_function("table11_countries", |b| {
        b.iter(|| {
            let suite = analyze_only("ip");
            let s = suite.ip();
            black_box(s.censorship_ratios())
        })
    });

    g.bench_function("table12_subnets", |b| {
        let s = suite.ip();
        b.iter(|| black_box(s.render_table12()))
    });

    g.bench_function("tables13_15_social", |b| {
        b.iter(|| {
            let suite = analyze_only("social");
            let s = suite.social();
            black_box((s.render_table13(), s.render_table14(), s.render_table15()))
        })
    });

    g.finish();
}

fn main() {
    let mut harness = Harness::default().sample_size(10);
    bench_tables(&mut harness);
}
