//! Property tests: the optimized engines agree with the naive references on
//! arbitrary inputs.

use filterscope_core::Ipv4Cidr;
use filterscope_match::{naive, AcDfa, AhoCorasick, CidrSet, DomainIndex, DomainTrie};
use proptest::prelude::*;

proptest! {
    /// Aho–Corasick reports exactly the matches a quadratic scan finds.
    #[test]
    fn aho_corasick_equals_naive(
        patterns in proptest::collection::vec("[a-c]{1,4}", 0..6),
        haystack in "[a-c]{0,40}",
    ) {
        let ac = AhoCorasick::new(&patterns);
        let mut got: Vec<(usize, usize)> = ac
            .find_all(haystack.as_bytes())
            .into_iter()
            .map(|m| (m.pattern, m.start))
            .collect();
        got.sort_unstable();
        let mut want = naive::find_all(&patterns, haystack.as_bytes());
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    /// `is_match` agrees with the full scan.
    #[test]
    fn aho_corasick_is_match_consistent(
        patterns in proptest::collection::vec("[a-b]{1,3}", 1..5),
        haystack in "[a-b]{0,30}",
    ) {
        let ac = AhoCorasick::new(&patterns);
        prop_assert_eq!(
            ac.is_match(haystack.as_bytes()),
            naive::is_match(&patterns, haystack.as_bytes())
        );
    }

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

    /// The dense DFA the policy engine scans with agrees with the sparse
    /// automaton it was tabulated from.
    #[test]
    fn ac_dfa_equals_automaton(
        patterns in proptest::collection::vec("[a-dA-D]{1,4}", 0..6),
        haystacks in proptest::collection::vec("[a-eA-E]{0,30}", 0..10),
        ci in any::<bool>(),
    ) {
        let ac = filterscope_match::aho_corasick::AhoCorasickBuilder::new()
            .ascii_case_insensitive(ci)
            .build(&patterns);
        let dfa = AcDfa::from_automaton(&ac);
        for hay in &haystacks {
            prop_assert_eq!(dfa.is_match(hay), ac.is_match(hay.as_bytes()), "haystack {:?}", hay);
        }
    }

    /// The DFA's keyword set equals the automaton's: small alphabets force
    /// overlapping and nested patterns, `{0,4}` admits empty ones, and the
    /// large arm runs past 64 patterns.
    #[test]
    fn ac_dfa_matching_patterns_equals_automaton(
        few in proptest::collection::vec("[a-cA-C]{0,4}", 0..8),
        many in proptest::collection::vec("[a-dA-D]{0,5}", 65..100),
        haystacks in proptest::collection::vec("[a-eA-E]{0,40}", 1..8),
        ci in any::<bool>(),
    ) {
        let mut scratch = vec![usize::MAX];
        for patterns in [&few, &many] {
            let ac = filterscope_match::aho_corasick::AhoCorasickBuilder::new()
                .ascii_case_insensitive(ci)
                .build(patterns);
            let dfa = AcDfa::from_automaton(&ac);
            for hay in &haystacks {
                dfa.matching_patterns_into(hay.as_bytes(), &mut scratch);
                prop_assert_eq!(
                    &scratch,
                    &ac.matching_patterns(hay.as_bytes()),
                    "haystack {:?} patterns {:?}", hay, patterns
                );
            }
        }
    }

    /// The flat domain index agrees with the pointer-chasing trie on
    /// arbitrary entries and hosts.
    #[test]
    fn domain_index_equals_trie(
        entries in proptest::collection::vec(
            "(\\.){0,1}[a-cA-C]{1,3}(\\.[a-cA-C]{1,3}){0,2}", 0..8),
        hosts in proptest::collection::vec(
            "[a-dA-D]{1,3}(\\.[a-dA-D]{1,3}){0,3}(\\.){0,1}", 0..10),
    ) {
        let entry_refs: Vec<&str> = entries.iter().map(|s| s.as_str()).collect();
        let trie = DomainTrie::from_entries(entry_refs.iter().copied());
        let index = DomainIndex::from_entries(entry_refs.iter().copied());
        for host in &hosts {
            prop_assert_eq!(index.lookup(host), trie.lookup(host), "host {:?}", host);
        }
    }

    /// Every match reported by find_all is an actual occurrence.
    #[test]
    fn matches_are_real_occurrences(
        patterns in proptest::collection::vec("[a-d]{1,5}", 1..6),
        haystack in "[a-d]{0,60}",
    ) {
        let ac = AhoCorasick::new(&patterns);
        for m in ac.find_all(haystack.as_bytes()) {
            prop_assert_eq!(
                &haystack.as_bytes()[m.start..m.end],
                patterns[m.pattern].as_bytes()
            );
        }
    }
}
