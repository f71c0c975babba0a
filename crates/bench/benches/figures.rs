//! One benchmark per paper figure (plus the §7.3/§7.4 text statistics).

use filterscope_bench::harness::{black_box, Harness};
use filterscope_bench::{analyze_only, analyzed};
use filterscope_logformat::RequestClass;

fn bench_figures(c: &mut Harness) {
    let suite = analyzed();
    let mut g = c.benchmark_group("figures");

    g.bench_function("fig1_ports", |b| {
        b.iter(|| {
            let suite = analyze_only("ports");
            let s = suite.ports();
            black_box(s.render())
        })
    });

    g.bench_function("fig2_domain_dist", |b| {
        b.iter(|| {
            let suite = analyze_only("domains");
            let s = suite.domains();
            black_box((
                s.request_distribution(RequestClass::Allowed),
                s.allowed_alpha(5),
            ))
        })
    });

    g.bench_function("fig3_categories", |b| {
        b.iter(|| {
            let suite = analyze_only("categories");
            let s = suite.categories();
            black_box(s.distribution(0))
        })
    });

    g.bench_function("fig4_users", |b| {
        b.iter(|| {
            let suite = analyze_only("users");
            let s = suite.users();
            black_box((s.censored_requests_histogram(), s.activity_cdfs()))
        })
    });

    g.bench_function("fig5_timeseries", |b| {
        b.iter(|| {
            let suite = analyze_only("temporal");
            let s = suite.temporal();
            black_box(s.normalized())
        })
    });

    g.bench_function("fig6_rcv", |b| {
        let s = suite.temporal();
        b.iter(|| black_box(s.rcv()))
    });

    g.bench_function("fig7_proxy_load", |b| {
        b.iter(|| {
            let suite = analyze_only("proxies");
            let s = suite.proxies();
            black_box(s.render_fig7())
        })
    });

    g.bench_function("fig8_tor", |b| {
        b.iter(|| {
            let suite = analyze_only("tor");
            let s = suite.tor();
            black_box(s.render())
        })
    });

    g.bench_function("fig9_rfilter", |b| {
        let s = suite.tor();
        b.iter(|| black_box(s.rfilter()))
    });

    g.bench_function("fig10_anonymizers", |b| {
        b.iter(|| {
            let suite = analyze_only("anonymizers");
            let s = suite.anonymizers();
            black_box((s.allowed_request_cdf(), s.ratio_cdf()))
        })
    });

    g.bench_function("sec73_bittorrent", |b| {
        b.iter(|| {
            let suite = analyze_only("bittorrent");
            let s = suite.bittorrent();
            black_box(s.render())
        })
    });

    g.bench_function("sec74_google_cache", |b| {
        b.iter(|| {
            let suite = analyze_only("google_cache");
            let s = suite.google_cache();
            black_box(s.render())
        })
    });

    g.finish();
}

fn main() {
    let mut harness = Harness::default().sample_size(10);
    bench_figures(&mut harness);
}
