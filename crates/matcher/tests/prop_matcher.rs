//! Property tests: the matchers agree with the naive references on
//! arbitrary inputs.

use filterscope_core::Ipv4Cidr;
use filterscope_match::{naive, AcDfa, CidrSet, DomainTrie};
use proptest::prelude::*;

/// The sorted distinct patterns a quadratic scan finds, with patterns and
/// haystack case folded the way the DFA folds them.
fn naive_keyword_set(patterns: &[String], hay: &str) -> Vec<usize> {
    let lower: Vec<String> = patterns.iter().map(|p| p.to_ascii_lowercase()).collect();
    let mut pats: Vec<usize> = naive::find_all(&lower, hay.to_ascii_lowercase().as_bytes())
        .into_iter()
        .map(|(p, _)| p)
        .collect();
    pats.sort_unstable();
    pats.dedup();
    pats
}

/// A domain entry or host as the trie compares it: leading dots and one
/// trailing dot dropped, lowercased.
fn norm(s: &str) -> String {
    let s = s.trim_start_matches('.');
    s.strip_suffix('.').unwrap_or(s).to_ascii_lowercase()
}

/// The trie's entry table: distinct normalized entries in first-insert order.
fn naive_entries(entries: &[String]) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for e in entries {
        let n = norm(e);
        if !out.contains(&n) {
            out.push(n);
        }
    }
    out
}

/// Does entry `e` cover `host` (equal, or a dot-separated suffix)?
fn covers(e: &str, host: &str) -> bool {
    host == e || host.ends_with(&format!(".{e}"))
}

/// The index of the shortest (`longest == false`) or longest covering
/// entry, by scanning every entry.
fn naive_lookup(table: &[String], host: &str, longest: bool) -> Option<u32> {
    let host = host.strip_suffix('.').unwrap_or(host).to_ascii_lowercase();
    let hits = (0..table.len()).filter(|&i| covers(&table[i], &host));
    let pick = if longest {
        hits.max_by_key(|&i| table[i].len())
    } else {
        hits.min_by_key(|&i| table[i].len())
    };
    pick.map(|i| i as u32)
}

/// The index of the shortest entry strictly shorter than `entry` that
/// covers it.
fn naive_shadowing(table: &[String], entry: &str) -> Option<u32> {
    let entry = norm(entry);
    (0..table.len())
        .filter(|&i| table[i].len() < entry.len() && covers(&table[i], &entry))
        .min_by_key(|&i| table[i].len())
        .map(|i| i as u32)
}

proptest! {
    /// CidrSet containment equals a linear scan over the source blocks.
    #[test]
    fn cidr_set_equals_linear(
        blocks in proptest::collection::vec((any::<u32>(), 8u8..=32), 0..20),
        probes in proptest::collection::vec(any::<u32>(), 0..50),
    ) {
        let blocks: Vec<Ipv4Cidr> = blocks
            .into_iter()
            .map(|(addr, len)| Ipv4Cidr::new(std::net::Ipv4Addr::from(addr), len).unwrap())
            .collect();
        let set = CidrSet::from_blocks(blocks.iter().copied());
        for p in probes {
            let a = std::net::Ipv4Addr::from(p);
            prop_assert_eq!(set.contains(a), naive::cidr_contains(&blocks, a));
        }
    }

    /// DomainTrie matching equals the naive suffix check.
    #[test]
    fn domain_trie_equals_naive(
        entries in proptest::collection::vec("[a-c]{1,3}(\\.[a-c]{1,3}){0,2}", 0..8),
        host in "[a-d]{1,3}(\\.[a-d]{1,3}){0,3}",
    ) {
        let entry_refs: Vec<&str> = entries.iter().map(|s| s.as_str()).collect();
        let trie = DomainTrie::from_entries(entry_refs.iter().copied());
        prop_assert_eq!(
            trie.matches(&host),
            naive::domain_matches(&entry_refs, &host)
        );
    }

    /// The trie's three queries name the same entry as a scan over the
    /// entry list, on mixed-case entries and hosts with leading and
    /// trailing dots. Labels come from a small alphabet so entries nest
    /// (`a`, `b.a`, `a.b.a`), and every entry is also probed under an
    /// extra label, so hosts covered by several entries are common.
    #[test]
    fn domain_trie_queries_equal_suffix_scan(
        entries in proptest::collection::vec(
            "(\\.){0,1}[abA]{1,2}(\\.[abA]{1,2}){0,2}(\\.){0,1}", 0..8),
        hosts in proptest::collection::vec(
            "[a-cA-C]{1,2}(\\.[a-cA-C]{1,2}){0,3}(\\.){0,1}", 0..10),
    ) {
        let trie = DomainTrie::from_entries(entries.iter().map(|s| s.as_str()));
        let table = naive_entries(&entries);
        prop_assert_eq!(trie.len(), table.len());
        let under: Vec<String> = entries
            .iter()
            .map(|e| format!("x.{}", e.trim_start_matches('.')))
            .collect();
        for host in hosts.iter().chain(&under) {
            prop_assert_eq!(trie.lookup(host), naive_lookup(&table, host, false), "host {:?}", host);
            prop_assert_eq!(
                trie.lookup_longest(host),
                naive_lookup(&table, host, true),
                "host {:?}", host
            );
        }
        for probe in entries.iter().chain(&hosts) {
            prop_assert_eq!(
                trie.shadowing_entry(probe),
                naive_shadowing(&table, probe),
                "entry {:?}", probe
            );
        }
    }

    /// `AcDfa::is_match` equals a quadratic scan on case-folded input.
    #[test]
    fn ac_dfa_is_match_equals_naive(
        patterns in proptest::collection::vec("[a-dA-D]{1,4}", 0..6),
        haystacks in proptest::collection::vec("[a-eA-E]{0,30}", 0..10),
    ) {
        let dfa = AcDfa::build(&patterns);
        for hay in &haystacks {
            prop_assert_eq!(
                dfa.is_match(hay),
                !naive_keyword_set(&patterns, hay).is_empty(),
                "haystack {:?}", hay
            );
        }
    }

    /// The DFA's keyword set equals the naive one: small alphabets force
    /// overlapping and nested patterns, `{0,4}` admits empty ones, and the
    /// large arm runs past 64 patterns.
    #[test]
    fn ac_dfa_matching_patterns_equals_naive(
        few in proptest::collection::vec("[a-cA-C]{0,4}", 0..8),
        many in proptest::collection::vec("[a-dA-D]{0,5}", 65..100),
        haystacks in proptest::collection::vec("[a-eA-E]{0,40}", 1..8),
    ) {
        let mut scratch = vec![usize::MAX];
        for patterns in [&few, &many] {
            let dfa = AcDfa::build(patterns);
            for hay in &haystacks {
                dfa.matching_patterns_into(hay.as_bytes(), &mut scratch);
                prop_assert_eq!(
                    &scratch,
                    &naive_keyword_set(patterns, hay),
                    "haystack {:?} patterns {:?}", hay, patterns
                );
            }
        }
    }
}
