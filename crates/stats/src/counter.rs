//! Exact counting.

use std::collections::HashMap;
use std::hash::Hash;

/// A hash-map counter with merge and top-N extraction.
#[derive(Debug, Clone)]
pub struct CountMap<K: Eq + Hash> {
    counts: HashMap<K, u64>,
    total: u64,
}

impl<K: Eq + Hash> Default for CountMap<K> {
    fn default() -> Self {
        CountMap {
            counts: HashMap::new(),
            total: 0,
        }
    }
}

impl<K: Eq + Hash> CountMap<K> {
    /// Empty counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `n` to `key`'s count.
    pub fn add(&mut self, key: K, n: u64) {
        *self.counts.entry(key).or_insert(0) += n;
        self.total += n;
    }

    /// Increment `key` by one.
    pub fn bump(&mut self, key: K) {
        self.add(key, 1);
    }

    /// Count for `key` (0 when absent).
    pub fn get<Q>(&self, key: &Q) -> u64
    where
        K: std::borrow::Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        self.counts.get(key).copied().unwrap_or(0)
    }

    /// Sum of all counts.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of distinct keys.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// Is the counter empty?
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Merge another counter into this one.
    pub fn merge(&mut self, other: CountMap<K>) {
        for (k, v) in other.counts {
            *self.counts.entry(k).or_insert(0) += v;
        }
        self.total += other.total;
    }

    /// Iterate `(key, count)`.
    pub fn iter(&self) -> impl Iterator<Item = (&K, u64)> {
        self.counts.iter().map(|(k, v)| (k, *v))
    }

    /// Consume into the underlying map.
    pub fn into_map(self) -> HashMap<K, u64> {
        self.counts
    }
}

impl<K: Eq + Hash + Clone + Ord> CountMap<K> {
    /// The `n` largest entries, by count descending, ties broken by key for
    /// deterministic output.
    pub fn top_n(&self, n: usize) -> Vec<(K, u64)> {
        top_n_by_count(self.counts.iter().map(|(k, v)| (k, *v)), n, |k| *k)
            .into_iter()
            .map(|(k, v)| (k.clone(), v))
            .collect()
    }

    /// All entries sorted by count descending (ties by key).
    pub fn sorted(&self) -> Vec<(K, u64)> {
        self.top_n(usize::MAX)
    }
}

/// The `n` entries with the largest counts, count descending, ties broken
/// by `name` ascending: the same list as sorting every entry that way and
/// keeping the first `n`.
///
/// Only the tie band is named and sorted. One selection pass finds the
/// `n`-th largest count (the floor); every true top-`n` entry has a count
/// at or above it, so entries below the floor are dropped before `name`
/// runs. A bounded read-out over `d` distinct keys then costs O(d) plus a
/// sort of the band, not a sort of all `d`; when every count ties, the band
/// is everything and the cost is the full sort plus one O(d) pass.
///
/// `name` must be injective over the entries for the order to be a pure
/// function of their contents (keys from one map and the strings an
/// interner resolves them to both are).
pub fn top_n_by_count<K, N: Ord>(
    entries: impl IntoIterator<Item = (K, u64)>,
    n: usize,
    name: impl Fn(&K) -> N,
) -> Vec<(K, u64)> {
    if n == 0 {
        return Vec::new();
    }
    let mut band: Vec<(K, u64)> = entries.into_iter().collect();
    if n < band.len() {
        let (_, nth, _) = band.select_nth_unstable_by(n - 1, |a, b| b.1.cmp(&a.1));
        let floor = nth.1;
        band.retain(|e| e.1 >= floor);
    }
    let mut named: Vec<(N, K, u64)> = band.into_iter().map(|(k, c)| (name(&k), k, c)).collect();
    named.sort_by(|a, b| b.2.cmp(&a.2).then_with(|| a.0.cmp(&b.0)));
    named.truncate(n);
    named.into_iter().map(|(_, k, c)| (k, c)).collect()
}

impl<K: Eq + Hash> FromIterator<K> for CountMap<K> {
    fn from_iter<I: IntoIterator<Item = K>>(iter: I) -> Self {
        let mut m = CountMap::new();
        for k in iter {
            m.bump(k);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_and_totals() {
        let mut c = CountMap::new();
        c.bump("a");
        c.bump("a");
        c.add("b", 5);
        assert_eq!(c.get("a"), 2);
        assert_eq!(c.get("b"), 5);
        assert_eq!(c.get("z"), 0);
        assert_eq!(c.total(), 7);
        assert_eq!(c.distinct(), 2);
    }

    #[test]
    fn top_n_is_deterministic_on_ties() {
        let c: CountMap<&str> = ["x", "y", "z", "y"].into_iter().collect();
        assert_eq!(c.top_n(2), vec![("y", 2), ("x", 1)]);
        assert_eq!(c.top_n(10).len(), 3);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a: CountMap<&str> = ["p", "q"].into_iter().collect();
        let b: CountMap<&str> = ["q", "r"].into_iter().collect();
        a.merge(b);
        assert_eq!(a.get("q"), 2);
        assert_eq!(a.total(), 4);
        assert_eq!(a.distinct(), 3);
    }
}
