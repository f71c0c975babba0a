//! Multi-pattern substring search (Aho–Corasick), implemented from scratch.
//!
//! The automaton is built once from a set of byte patterns and then scans
//! haystacks in a single pass, O(haystack + matches). States are stored in a
//! flat `Vec` with dense 256-way transition tables for the root's first two
//! levels and sorted sparse edges below, which keeps construction cheap for
//! blacklists of a few hundred keywords while scanning at memory speed.
//!
//! Matching is case-insensitive when built with
//! [`AhoCorasickBuilder::ascii_case_insensitive`], mirroring the proxies'
//! behaviour on URLs.

/// A single match: which pattern matched and where.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Match {
    /// Index of the pattern in the order given at build time.
    pub pattern: usize,
    /// Byte offset of the first byte of the match in the haystack.
    pub start: usize,
    /// Byte offset one past the last byte of the match.
    pub end: usize,
}

#[derive(Debug, Clone)]
struct State {
    /// Sorted (byte, next-state) edges.
    edges: Vec<(u8, u32)>,
    /// Failure link.
    fail: u32,
    /// Patterns ending at this state (indexes into the pattern list).
    out: Vec<u32>,
}

impl State {
    fn new() -> Self {
        State {
            edges: Vec::new(),
            fail: 0,
            out: Vec::new(),
        }
    }

    fn get(&self, b: u8) -> Option<u32> {
        self.edges
            .binary_search_by_key(&b, |e| e.0)
            .ok()
            .map(|i| self.edges[i].1)
    }

    fn set(&mut self, b: u8, next: u32) {
        match self.edges.binary_search_by_key(&b, |e| e.0) {
            Ok(i) => self.edges[i].1 = next,
            Err(i) => self.edges.insert(i, (b, next)),
        }
    }
}

/// Builder for [`AhoCorasick`].
#[derive(Debug, Clone, Default)]
pub struct AhoCorasickBuilder {
    case_insensitive: bool,
}

impl AhoCorasickBuilder {
    /// Start building with default options (case sensitive).
    pub fn new() -> Self {
        Self::default()
    }

    /// Treat ASCII letters case-insensitively in both patterns and haystack.
    pub fn ascii_case_insensitive(mut self, yes: bool) -> Self {
        self.case_insensitive = yes;
        self
    }

    /// Build the automaton from `patterns`. Empty patterns are rejected by
    /// being ignored (an empty needle would match everywhere and is never a
    /// meaningful blacklist entry); the pattern indexes reported in matches
    /// refer to positions in the *original* list.
    pub fn build<P: AsRef<[u8]>>(self, patterns: impl IntoIterator<Item = P>) -> AhoCorasick {
        let mut states = vec![State::new()];
        let mut pattern_lens = Vec::new();
        let mut normalized = Vec::new();

        for (idx, pat) in patterns.into_iter().enumerate() {
            let bytes = pat.as_ref();
            pattern_lens.push(bytes.len());
            let norm: Vec<u8> = if self.case_insensitive {
                bytes.iter().map(|b| b.to_ascii_lowercase()).collect()
            } else {
                bytes.to_vec()
            };
            normalized.push(norm);
            if bytes.is_empty() {
                continue;
            }
            let mut cur = 0u32;
            for &b in &normalized[idx] {
                cur = match states[cur as usize].get(b) {
                    Some(next) => next,
                    None => {
                        let next = states.len() as u32;
                        states.push(State::new());
                        states[cur as usize].set(b, next);
                        next
                    }
                };
            }
            states[cur as usize].out.push(idx as u32);
        }

        // BFS to compute failure links and merge output sets.
        let mut queue = std::collections::VecDeque::new();
        let root_edges = states[0].edges.clone();
        for (_, next) in &root_edges {
            states[*next as usize].fail = 0;
            queue.push_back(*next);
        }
        while let Some(s) = queue.pop_front() {
            let edges = states[s as usize].edges.clone();
            for (b, next) in edges {
                queue.push_back(next);
                // Walk failure links of the parent to find the longest proper
                // suffix state that has a `b` edge.
                let mut f = states[s as usize].fail;
                let fail_next = loop {
                    if let Some(t) = states[f as usize].get(b) {
                        if t != next {
                            break t;
                        }
                    }
                    if f == 0 {
                        break 0;
                    }
                    f = states[f as usize].fail;
                };
                states[next as usize].fail = fail_next;
                let inherited = states[fail_next as usize].out.clone();
                states[next as usize].out.extend(inherited);
            }
        }

        AhoCorasick {
            states,
            patterns: normalized,
            pattern_lens,
            case_insensitive: self.case_insensitive,
        }
    }
}

/// A compiled multi-pattern matcher.
#[derive(Debug, Clone)]
pub struct AhoCorasick {
    states: Vec<State>,
    /// Normalized (lowercased when case-insensitive) pattern bytes, kept for
    /// the pattern-vs-pattern subsumption queries used by the policy linter.
    patterns: Vec<Vec<u8>>,
    pattern_lens: Vec<usize>,
    case_insensitive: bool,
}

impl AhoCorasick {
    /// Build a case-sensitive automaton; see [`AhoCorasickBuilder`] for options.
    pub fn new<P: AsRef<[u8]>>(patterns: impl IntoIterator<Item = P>) -> Self {
        AhoCorasickBuilder::new().build(patterns)
    }

    /// Number of patterns this automaton was built from (including empties).
    pub fn pattern_count(&self) -> usize {
        self.pattern_lens.len()
    }

    /// Length in bytes of pattern `i` as given at build time.
    pub fn pattern_len(&self, i: usize) -> usize {
        self.pattern_lens[i]
    }

    /// Automaton size, root included (the DFA compiler walks every state).
    pub(crate) fn state_count(&self) -> usize {
        self.states.len()
    }

    /// Does any pattern end at (or fail-propagate into) state `s`?
    pub(crate) fn state_is_match(&self, s: u32) -> bool {
        !self.states[s as usize].out.is_empty()
    }

    /// Patterns ending at (or fail-propagated into) state `s`.
    pub(crate) fn state_outputs(&self, s: u32) -> &[u32] {
        &self.states[s as usize].out
    }

    /// The normalized bytes with an outgoing edge anywhere in the automaton
    /// — the alphabet the DFA compiler builds byte classes from.
    pub(crate) fn used_bytes(&self) -> [bool; 256] {
        let mut used = [false; 256];
        for s in &self.states {
            for &(b, _) in &s.edges {
                used[b as usize] = true;
            }
        }
        used
    }

    /// Was the automaton built case-insensitively?
    pub(crate) fn is_case_insensitive(&self) -> bool {
        self.case_insensitive
    }

    #[inline]
    pub(crate) fn step(&self, mut state: u32, b: u8) -> u32 {
        let b = if self.case_insensitive {
            b.to_ascii_lowercase()
        } else {
            b
        };
        loop {
            if let Some(next) = self.states[state as usize].get(b) {
                return next;
            }
            if state == 0 {
                return 0;
            }
            state = self.states[state as usize].fail;
        }
    }

    /// Does any pattern occur in `haystack`? Stops at the first hit.
    pub fn is_match(&self, haystack: impl AsRef<[u8]>) -> bool {
        let mut state = 0u32;
        for &b in haystack.as_ref() {
            state = self.step(state, b);
            if !self.states[state as usize].out.is_empty() {
                return true;
            }
        }
        false
    }

    /// The first match in scan order (earliest end position), if any.
    pub fn find(&self, haystack: impl AsRef<[u8]>) -> Option<Match> {
        let hay = haystack.as_ref();
        let mut state = 0u32;
        for (i, &b) in hay.iter().enumerate() {
            state = self.step(state, b);
            if let Some(&pat) = self.states[state as usize].out.first() {
                let len = self.pattern_lens[pat as usize];
                return Some(Match {
                    pattern: pat as usize,
                    start: i + 1 - len,
                    end: i + 1,
                });
            }
        }
        None
    }

    /// All matches, in order of end position; overlapping matches are all
    /// reported.
    pub fn find_all(&self, haystack: impl AsRef<[u8]>) -> Vec<Match> {
        let hay = haystack.as_ref();
        let mut out = Vec::new();
        let mut state = 0u32;
        for (i, &b) in hay.iter().enumerate() {
            state = self.step(state, b);
            for &pat in &self.states[state as usize].out {
                let len = self.pattern_lens[pat as usize];
                out.push(Match {
                    pattern: pat as usize,
                    start: i + 1 - len,
                    end: i + 1,
                });
            }
        }
        out
    }

    /// Lazily iterate matches in end-position order without materializing
    /// them (streaming scans over large haystacks).
    pub fn find_iter<'a, 'h>(&'a self, haystack: &'h [u8]) -> FindIter<'a, 'h> {
        FindIter {
            ac: self,
            haystack,
            pos: 0,
            state: 0,
            pending: Vec::new(),
        }
    }

    /// The normalized bytes of pattern `i` (lowercased when the automaton is
    /// case-insensitive), as used for matching.
    pub fn pattern(&self, i: usize) -> &[u8] {
        &self.patterns[i]
    }

    /// Indexes of the *other* patterns occurring inside pattern `j`, sorted.
    ///
    /// Every haystack that matches pattern `j` necessarily also matches each
    /// returned pattern, so within a first-match-wins blacklist tier pattern
    /// `j` is subsumed by any of them. Exact duplicates of `j` are included
    /// (they trivially occur inside it); empty patterns never are.
    pub fn patterns_within(&self, j: usize) -> Vec<usize> {
        let mut pats: Vec<usize> = self
            .find_all(&self.patterns[j])
            .into_iter()
            .map(|m| m.pattern)
            .filter(|&i| i != j)
            .collect();
        pats.sort_unstable();
        pats.dedup();
        pats
    }

    /// The smallest index of a *different, non-identical* pattern occurring
    /// inside pattern `j`, if any — the canonical "this rule is subsumed by"
    /// witness. Identical duplicates are excluded so that duplicate detection
    /// and subsumption detection stay distinct diagnostics.
    pub fn subsuming_pattern(&self, j: usize) -> Option<usize> {
        self.patterns_within(j)
            .into_iter()
            .find(|&i| self.patterns[i] != self.patterns[j])
    }

    /// Indexes of the distinct patterns that occur in `haystack`, sorted.
    pub fn matching_patterns(&self, haystack: impl AsRef<[u8]>) -> Vec<usize> {
        let mut pats: Vec<usize> = self
            .find_all(haystack)
            .into_iter()
            .map(|m| m.pattern)
            .collect();
        pats.sort_unstable();
        pats.dedup();
        pats
    }
}

/// Iterator over matches (see [`AhoCorasick::find_iter`]).
pub struct FindIter<'a, 'h> {
    ac: &'a AhoCorasick,
    haystack: &'h [u8],
    pos: usize,
    state: u32,
    /// Matches ending at the current position not yet yielded (overlaps).
    pending: Vec<Match>,
}

impl Iterator for FindIter<'_, '_> {
    type Item = Match;

    fn next(&mut self) -> Option<Match> {
        loop {
            if let Some(m) = self.pending.pop() {
                return Some(m);
            }
            if self.pos >= self.haystack.len() {
                return None;
            }
            let b = self.haystack[self.pos];
            self.pos += 1;
            self.state = self.ac.step(self.state, b);
            let outs = &self.ac.states[self.state as usize].out;
            if !outs.is_empty() {
                // Push in reverse so pop() yields in out-list order.
                for &pat in outs.iter().rev() {
                    let len = self.ac.pattern_lens[pat as usize];
                    self.pending.push(Match {
                        pattern: pat as usize,
                        start: self.pos - len,
                        end: self.pos,
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive;

    #[test]
    fn finds_single_pattern() {
        let ac = AhoCorasick::new(["proxy"]);
        assert!(ac.is_match("http://x.com/tbproxy/af/query"));
        assert!(!ac.is_match("http://x.com/prox/y"));
        let m = ac.find("aproxyb").unwrap();
        assert_eq!((m.pattern, m.start, m.end), (0, 1, 6));
    }

    #[test]
    fn finds_overlapping_patterns() {
        let ac = AhoCorasick::new(["he", "she", "his", "hers"]);
        let ms = ac.find_all("ushers");
        let triples: Vec<_> = ms.iter().map(|m| (m.pattern, m.start, m.end)).collect();
        assert!(triples.contains(&(1, 1, 4))); // she
        assert!(triples.contains(&(0, 2, 4))); // he
        assert!(triples.contains(&(3, 2, 6))); // hers
    }

    #[test]
    fn case_insensitive_matches_urls() {
        let ac = AhoCorasickBuilder::new()
            .ascii_case_insensitive(true)
            .build(["hotspotshield", "israel"]);
        assert!(ac.is_match("www.HotspotShield.com"));
        assert!(ac.is_match("WWW.ISRAEL.NET"));
        assert!(!ac.is_match("hotspot-shield"));
    }

    #[test]
    fn empty_pattern_is_ignored() {
        let ac = AhoCorasick::new(["", "tor"]);
        assert!(ac.is_match("monitor"));
        assert!(!ac.is_match("xyz"));
        assert_eq!(ac.find("tor").unwrap().pattern, 1);
    }

    #[test]
    fn no_patterns_never_matches() {
        let ac = AhoCorasick::new(Vec::<&str>::new());
        assert!(!ac.is_match("anything"));
        assert!(ac.find("anything").is_none());
    }

    #[test]
    fn pattern_that_is_suffix_of_another() {
        let ac = AhoCorasick::new(["ultrasurf", "surf"]);
        let pats = ac.matching_patterns("go-ultrasurf-now");
        assert_eq!(pats, vec![0, 1]);
    }

    #[test]
    fn find_iter_equals_find_all() {
        let ac = AhoCorasick::new(["he", "she", "his", "hers"]);
        for hay in ["ushers", "", "hishehers", "xyz"] {
            let eager = ac.find_all(hay);
            let lazy: Vec<Match> = ac.find_iter(hay.as_bytes()).collect();
            assert_eq!(eager, lazy, "haystack {hay:?}");
        }
    }

    #[test]
    fn pattern_subsumption_queries() {
        let ac = AhoCorasickBuilder::new()
            .ascii_case_insensitive(true)
            .build(["ultra", "UltraSurf", "surf", "proxy", "ultrasurf", ""]);
        // "UltraSurf" contains "ultra", "surf", and its duplicate (index 4).
        assert_eq!(ac.patterns_within(1), vec![0, 2, 4]);
        // The canonical subsumer skips the identical duplicate.
        assert_eq!(ac.subsuming_pattern(1), Some(0));
        assert_eq!(ac.subsuming_pattern(4), Some(0));
        // "ultra" and "proxy" are not subsumed by anything.
        assert_eq!(ac.subsuming_pattern(0), None);
        assert_eq!(ac.subsuming_pattern(3), None);
        // Empty patterns never subsume and are never subsumed.
        assert_eq!(ac.patterns_within(5), Vec::<usize>::new());
        assert_eq!(ac.pattern(1), b"ultrasurf");
    }

    #[test]
    fn agrees_with_naive_on_fixed_cases() {
        let pats = ["proxy", "israel", "ultra", "sur", "ultrasurf", "a"];
        let ac = AhoCorasick::new(pats);
        for hay in [
            "",
            "a",
            "proxyproxy",
            "ultrasurfisrael",
            "xxultraxxsurxx",
            "banana",
            "isra",
        ] {
            let mut got = ac
                .find_all(hay)
                .into_iter()
                .map(|m| (m.pattern, m.start))
                .collect::<Vec<_>>();
            got.sort_unstable();
            let mut want = naive::find_all(&pats, hay.as_bytes());
            want.sort_unstable();
            assert_eq!(got, want, "haystack {hay:?}");
        }
    }
}
