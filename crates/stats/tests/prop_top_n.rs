//! Property tests for [`top_n_by_count`]: selecting by count first and
//! naming only the tie band must give exactly the list that sorting every
//! entry by (count descending, name ascending) and truncating gives.
//!
//! Counts are drawn from a tiny range so ties are the rule, not the
//! exception, and every `n` from 0 to past the entry count is checked, so
//! each case covers n = 0, n = 1, every tie boundary, the middle of every
//! tie band, n = len and n > len.

use filterscope_core::{Interner, Sym};
use filterscope_stats::counter::top_n_by_count;
use filterscope_stats::CountMap;
use proptest::prelude::*;

/// The definition the helper must match: sort everything, then truncate.
fn sort_all<K: Clone, N: Ord>(
    entries: &[(K, u64)],
    n: usize,
    name: impl Fn(&K) -> N,
) -> Vec<(K, u64)> {
    let mut all = entries.to_vec();
    all.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| name(&a.0).cmp(&name(&b.0))));
    all.truncate(n);
    all
}

/// Up to 60 distinct keys below 100 with counts in 1..=4 (heavy ties).
fn arb_counts() -> impl Strategy<Value = Vec<(u32, u64)>> {
    proptest::collection::vec((0u32..100, 1u64..5), 0..60).prop_map(|pairs| {
        let mut map: CountMap<u32> = CountMap::new();
        for (key, count) in pairs {
            map.add(key, count);
        }
        map.iter().map(|(k, c)| (*k, c)).collect()
    })
}

/// An injective name whose order differs from key order: 37 is a unit
/// mod 101, so `k -> 37k mod 101` permutes 0..101, and the decimal
/// string orders "100" before "11".
fn scrambled(key: &u32) -> String {
    ((key * 37) % 101).to_string()
}

proptest! {
    #[test]
    fn select_equals_sort_then_truncate_by_key(entries in arb_counts()) {
        for n in 0..=entries.len() + 2 {
            let got = top_n_by_count(entries.iter().copied(), n, |k| *k);
            prop_assert_eq!(got, sort_all(&entries, n, |k| *k));
        }
    }

    #[test]
    fn select_equals_sort_then_truncate_by_scrambled_name(entries in arb_counts()) {
        for n in 0..=entries.len() + 2 {
            let got = top_n_by_count(entries.iter().copied(), n, scrambled);
            prop_assert_eq!(got, sort_all(&entries, n, scrambled));
        }
    }

    #[test]
    fn interned_symbols_order_ties_by_resolved_name(entries in arb_counts()) {
        // Intern in key order so symbol ids follow key order while the
        // resolved names follow the scrambled order.
        let mut interner = Interner::new();
        let syms: Vec<(Sym, u64)> = entries
            .iter()
            .map(|(k, c)| (interner.intern(&scrambled(k)), *c))
            .collect();
        for n in 0..=syms.len() + 2 {
            let got = top_n_by_count(syms.iter().copied(), n, |s| interner.resolve(*s));
            prop_assert_eq!(got, sort_all(&syms, n, |s| interner.resolve(*s)));
        }
    }

    #[test]
    fn count_map_top_n_is_the_sorted_prefix(entries in arb_counts()) {
        let map: CountMap<u32> = entries.iter().fold(CountMap::new(), |mut m, (k, c)| {
            m.add(*k, *c);
            m
        });
        let sorted = map.sorted();
        prop_assert_eq!(sorted.clone(), sort_all(&entries, usize::MAX, |k| *k));
        for n in 0..=entries.len() + 2 {
            prop_assert_eq!(map.top_n(n), sorted[..n.min(sorted.len())].to_vec());
        }
    }
}

#[test]
fn all_counts_equal_falls_back_to_name_order() {
    // All 101 keys: the names are exactly "0".."100", in string order.
    let entries: Vec<(u32, u64)> = (0..101).map(|k| (k, 7)).collect();
    let got = top_n_by_count(entries.iter().copied(), 5, scrambled);
    let names: Vec<String> = got.iter().map(|(k, _)| scrambled(k)).collect();
    assert_eq!(names, ["0", "1", "10", "100", "11"]);
}

#[test]
fn tie_band_straddling_the_cut_keeps_the_smallest_names() {
    // Counts 9, then four entries tied at 5 straddling n = 3.
    let entries = [(1u32, 5), (2, 9), (3, 5), (4, 5), (5, 5), (6, 1)];
    let got = top_n_by_count(entries.iter().copied(), 3, |k| std::cmp::Reverse(*k));
    assert_eq!(got, vec![(2, 9), (5, 5), (4, 5)]);
}
