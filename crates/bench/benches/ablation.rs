//! Ablation benchmarks for the design choices DESIGN.md calls out: each
//! compares the engine the library uses against the naive baseline it
//! replaced, on workloads drawn from the shared corpus.

use filterscope_bench::corpus;
use filterscope_bench::harness::{black_box, Harness};
use filterscope_core::Ipv4Cidr;
use filterscope_match::{naive, AcDfa, CidrSet, DomainTrie};
use filterscope_proxy::config::{BLOCKED_DOMAINS, BLOCKED_SUBNETS, KEYWORDS};
use filterscope_stats::{CountMap, SpaceSaving};
use std::net::Ipv4Addr;

fn bench_ablation(c: &mut Harness) {
    let (records, _) = corpus();
    let views: Vec<String> = records.iter().map(|r| r.url.filter_view()).collect();
    let hosts: Vec<&str> = records.iter().map(|r| r.url.host.as_str()).collect();
    let ips: Vec<Ipv4Addr> = records
        .iter()
        .filter_map(|r| r.url.host_ip())
        .cycle()
        .take(records.len())
        .collect();

    // --- keyword scanning: the engine's DFA vs naive multi-substring -----
    let mut g = c.benchmark_group("ablation_keyword_scan");
    let dfa = AcDfa::build(KEYWORDS);
    g.bench_function("ac_dfa", |b| {
        b.iter(|| {
            let mut hits = 0u64;
            for v in &views {
                if dfa.is_match(v.as_bytes()) {
                    hits += 1;
                }
            }
            black_box(hits)
        })
    });
    let lowered: Vec<String> = views.iter().map(|v| v.to_ascii_lowercase()).collect();
    g.bench_function("naive_scan", |b| {
        b.iter(|| {
            let mut hits = 0u64;
            for v in &lowered {
                if naive::is_match(&KEYWORDS, v.as_bytes()) {
                    hits += 1;
                }
            }
            black_box(hits)
        })
    });
    // A blacklist of ~100 patterns (the domain list used as substrings):
    // the DFA's cost per byte does not grow with the pattern count.
    let big_dfa = AcDfa::build(BLOCKED_DOMAINS);
    g.bench_function("ac_dfa_100_patterns", |b| {
        b.iter(|| {
            let mut hits = 0u64;
            for v in &views {
                if big_dfa.is_match(v.as_bytes()) {
                    hits += 1;
                }
            }
            black_box(hits)
        })
    });
    g.bench_function("naive_scan_100_patterns", |b| {
        b.iter(|| {
            let mut hits = 0u64;
            for v in &lowered {
                if naive::is_match(BLOCKED_DOMAINS, v.as_bytes()) {
                    hits += 1;
                }
            }
            black_box(hits)
        })
    });
    g.finish();

    // --- domain blacklist: trie vs per-entry suffix check ----------------
    let mut g = c.benchmark_group("ablation_domain_blacklist");
    let trie = DomainTrie::from_entries(BLOCKED_DOMAINS.iter().copied());
    g.bench_function("domain_trie", |b| {
        b.iter(|| {
            let mut hits = 0u64;
            for h in &hosts {
                if trie.matches(h) {
                    hits += 1;
                }
            }
            black_box(hits)
        })
    });
    g.bench_function("naive_suffix_scan", |b| {
        b.iter(|| {
            let mut hits = 0u64;
            for h in &hosts {
                if naive::domain_matches(BLOCKED_DOMAINS, h) {
                    hits += 1;
                }
            }
            black_box(hits)
        })
    });
    g.finish();

    // --- subnet blacklist: merged interval set vs linear scan ------------
    let mut g = c.benchmark_group("ablation_subnet_lookup");
    let set = CidrSet::parse_blocks(BLOCKED_SUBNETS.iter().copied()).expect("static");
    let blocks: Vec<Ipv4Cidr> = BLOCKED_SUBNETS
        .iter()
        .map(|s| Ipv4Cidr::parse(s).expect("static"))
        .collect();
    g.bench_function("cidr_set", |b| {
        b.iter(|| {
            let mut hits = 0u64;
            for ip in &ips {
                if set.contains(*ip) {
                    hits += 1;
                }
            }
            black_box(hits)
        })
    });
    g.bench_function("linear_scan", |b| {
        b.iter(|| {
            let mut hits = 0u64;
            for ip in &ips {
                if naive::cidr_contains(&blocks, *ip) {
                    hits += 1;
                }
            }
            black_box(hits)
        })
    });
    g.finish();

    // --- heavy hitters: Space-Saving sketch vs exact counting ------------
    let mut g = c.benchmark_group("ablation_heavy_hitters");
    g.bench_function("space_saving_1k", |b| {
        b.iter(|| {
            let mut sketch = SpaceSaving::new(1000);
            for h in &hosts {
                sketch.observe(*h);
            }
            black_box(sketch.top_guaranteed(10))
        })
    });
    g.bench_function("exact_hashmap", |b| {
        b.iter(|| {
            let mut exact: CountMap<&str> = CountMap::new();
            for h in &hosts {
                exact.bump(*h);
            }
            black_box(exact.top_n(10))
        })
    });
    g.finish();
}

fn main() {
    let mut harness = Harness::default().sample_size(20);
    bench_ablation(&mut harness);
}
