//! The keyword matcher: a dense Aho–Corasick DFA, the form the policy
//! engine, the §5.4 inference and the policy linter all scan with.
//!
//! The SG-9000 string filter is "a simple string-matching engine that
//! detects any blacklisted substring in the URL" (§5.4); an Aho–Corasick
//! automaton runs that set-membership scan in a single pass. [`AcDfa`]
//! builds the goto/fail automaton (the private `aho_corasick` step), then
//! closes it over the failure function: one table lookup per byte, no
//! failure walks, with ASCII case folding baked into a 256-entry
//! byte-class table. Matching always ignores ASCII case, as the proxies
//! do on URLs. Byte classes (all bytes no pattern uses share one class)
//! keep the transition table small enough to stay cache-resident.

mod aho_corasick;

use aho_corasick::Nfa;

/// A fully tabulated Aho–Corasick DFA (see module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AcDfa {
    /// Byte → equivalence class; case folding is applied here.
    classes: Box<[u8; 256]>,
    /// Number of distinct classes (≥ 1; class 0 is "byte unused by any
    /// pattern" when such bytes exist).
    class_count: u32,
    /// Row-major transition table: `trans[state * class_count + class]`.
    trans: Vec<u32>,
    /// Per-state "some pattern ends here" flag, one per DFA state (state 0
    /// is the root).
    matches: Vec<bool>,
    /// Per-state output lists in CSR form: the patterns ending at state `s`
    /// are `outputs[output_start[s]..output_start[s + 1]]`.
    output_start: Vec<u32>,
    outputs: Vec<u32>,
}

impl AcDfa {
    /// Compile `patterns`, ignoring ASCII case. Empty patterns never
    /// match; pattern indexes refer to positions in the original list.
    pub fn build<P: AsRef<[u8]>>(patterns: impl IntoIterator<Item = P>) -> AcDfa {
        let ac = Nfa::build(
            patterns
                .into_iter()
                .map(|p| p.as_ref().to_ascii_lowercase()),
        );
        let used = ac.used_bytes();
        // Assign classes over lowercased bytes: every byte some pattern
        // uses gets its own class, every other byte shares class 0 (all
        // such bytes behave identically — no edge anywhere targets them,
        // so they reset every state to the root's default path).
        let mut class_of_norm = [0u8; 256];
        let mut class_count: u32 = 0;
        let mut rep_of_class: Vec<u8> = Vec::new();
        // Class 0 is the shared "unused" class — but only when an unused
        // byte exists (otherwise 256 per-byte classes would overflow `u8`).
        if let Some(unused) = (0..=255u8).find(|&b| !used[b as usize]) {
            rep_of_class.push(unused);
            class_count = 1;
        }
        for b in 0..=255u8 {
            if used[b as usize] {
                class_of_norm[b as usize] = class_count as u8;
                rep_of_class.push(b);
                class_count += 1;
            }
        }
        // Fold the haystack-side case mapping into the table.
        let mut classes = Box::new([0u8; 256]);
        for b in 0..=255u8 {
            classes[b as usize] = class_of_norm[b.to_ascii_lowercase() as usize];
        }

        let state_count = ac.state_count() as u32;
        let mut trans = Vec::with_capacity(state_count as usize * class_count as usize);
        let mut matches = Vec::with_capacity(state_count as usize);
        let mut output_start = Vec::with_capacity(state_count as usize + 1);
        let mut outputs = Vec::new();
        output_start.push(0);
        for s in 0..state_count {
            for &rep in &rep_of_class {
                trans.push(ac.step(s, rep));
            }
            let outs = ac.state_outputs(s);
            matches.push(!outs.is_empty());
            outputs.extend_from_slice(outs);
            output_start.push(outputs.len() as u32);
        }
        AcDfa {
            classes,
            class_count,
            trans,
            matches,
            output_start,
            outputs,
        }
    }

    /// Does any pattern occur in `haystack`? One table lookup per byte,
    /// stopping at the first hit.
    #[inline]
    pub fn is_match(&self, haystack: impl AsRef<[u8]>) -> bool {
        self.first_match(haystack).is_some()
    }

    /// The first pattern found in a left-to-right scan: of the patterns
    /// whose match ends earliest, the longest (the lowest index among
    /// equal spellings).
    pub fn first_match(&self, haystack: impl AsRef<[u8]>) -> Option<usize> {
        let cc = self.class_count as usize;
        let mut state = 0usize;
        for &b in haystack.as_ref() {
            state = self.trans[state * cc + self.classes[b as usize] as usize] as usize;
            if self.matches[state] {
                return Some(self.outputs[self.output_start[state] as usize] as usize);
            }
        }
        None
    }

    /// The distinct patterns occurring in `haystack`, sorted, written into
    /// `out` (cleared first, so one scratch `Vec` serves every call).
    pub fn matching_patterns_into(&self, haystack: &[u8], out: &mut Vec<usize>) {
        out.clear();
        let cc = self.class_count as usize;
        let mut state = 0usize;
        for &b in haystack {
            state = self.trans[state * cc + self.classes[b as usize] as usize] as usize;
            if self.matches[state] {
                let outs = &self.outputs
                    [self.output_start[state] as usize..self.output_start[state + 1] as usize];
                out.extend(outs.iter().map(|&p| p as usize));
            }
        }
        if out.len() > 1 {
            out.sort_unstable();
            out.dedup();
        }
    }

    /// Number of DFA states (diagnostics).
    pub fn state_count(&self) -> usize {
        self.matches.len()
    }

    /// Number of byte classes (diagnostics).
    pub fn class_count(&self) -> usize {
        self.class_count as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive;

    /// The sorted distinct patterns the naive scan finds, case folded.
    fn naive_set(patterns: &[&str], hay: &[u8]) -> Vec<usize> {
        let lower: Vec<String> = patterns.iter().map(|p| p.to_ascii_lowercase()).collect();
        let mut pats: Vec<usize> = naive::find_all(&lower, &hay.to_ascii_lowercase())
            .into_iter()
            .map(|(p, _)| p)
            .collect();
        pats.sort_unstable();
        pats.dedup();
        pats
    }

    #[test]
    fn finds_single_pattern() {
        let dfa = AcDfa::build(["proxy"]);
        assert!(dfa.is_match("http://x.com/tbproxy/af/query"));
        assert!(!dfa.is_match("http://x.com/prox/y"));
        assert_eq!(dfa.first_match("aproxyb"), Some(0));
    }

    #[test]
    fn finds_overlapping_patterns() {
        let dfa = AcDfa::build(["he", "she", "his", "hers"]);
        let mut out = Vec::new();
        dfa.matching_patterns_into(b"ushers", &mut out);
        assert_eq!(out, [0, 1, 3]);
    }

    #[test]
    fn agrees_with_naive_on_urls() {
        let pats = [
            "proxy",
            "hotspotshield",
            "ultrareach",
            "israel",
            "ultrasurf",
        ];
        let dfa = AcDfa::build(pats);
        for hay in [
            "google.com/tbproxy/af/query",
            "www.facebook.com/fbml/fbjs_ajax_proxy.php",
            "example.com/x?q=UltraSurf",
            "WWW.ISRAEL.NET/",
            "www.HotspotShield.com",
            "hotspot-shield",
            "benign.example/path?ok=1",
            "",
            "pro",
            "proxproxproxy",
        ] {
            let want = naive_set(&pats, hay.as_bytes());
            assert_eq!(dfa.is_match(hay), !want.is_empty(), "haystack {hay:?}");
        }
    }

    #[test]
    fn agrees_with_naive_exhaustively_on_small_alphabet() {
        let pats = ["ab", "ba", "aaa", "Cb"];
        let dfa = AcDfa::build(pats);
        // Every string over {a,b,c,A} up to length 6.
        let alphabet = [b'a', b'b', b'c', b'A'];
        let mut stack: Vec<Vec<u8>> = vec![Vec::new()];
        let mut out = Vec::new();
        while let Some(s) = stack.pop() {
            dfa.matching_patterns_into(&s, &mut out);
            assert_eq!(out, naive_set(&pats, &s), "haystack {s:?}");
            assert_eq!(dfa.is_match(&s), !out.is_empty(), "haystack {s:?}");
            if s.len() < 6 {
                for &c in &alphabet {
                    let mut t = s.clone();
                    t.push(c);
                    stack.push(t);
                }
            }
        }
    }

    #[test]
    fn case_folding_is_in_the_class_table() {
        let dfa = AcDfa::build(["Tor"]);
        assert!(dfa.is_match("monitor"));
        assert!(dfa.is_match("MONITOR"));
        assert!(dfa.is_match("ToR"));
        assert!(!dfa.is_match("t-o-r"));
    }

    #[test]
    fn empty_pattern_is_ignored() {
        let dfa = AcDfa::build(["", "tor"]);
        assert!(dfa.is_match("monitor"));
        assert!(!dfa.is_match("xyz"));
        assert_eq!(dfa.first_match("tor"), Some(1));
    }

    #[test]
    fn empty_pattern_set_never_matches() {
        let dfa = AcDfa::build(Vec::<&str>::new());
        assert!(!dfa.is_match("anything"));
        assert_eq!(dfa.first_match("anything"), None);
        assert_eq!(dfa.state_count(), 1);
    }

    #[test]
    fn pattern_that_is_suffix_of_another() {
        let dfa = AcDfa::build(["surf", "ultrasurf"]);
        let mut out = Vec::new();
        dfa.matching_patterns_into(b"go-ultrasurf-now", &mut out);
        assert_eq!(out, [0, 1]);
        // Both end at the same byte; the longer one is reported first.
        assert_eq!(dfa.first_match("go-ultrasurf-now"), Some(1));
    }

    #[test]
    fn first_match_is_the_earliest_ending_pattern() {
        let dfa = AcDfa::build(["proxy", "israel"]);
        assert_eq!(dfa.first_match("Israelproxy.net"), Some(1));
        assert_eq!(dfa.first_match("xPROXYisrael"), Some(0));
        assert_eq!(dfa.first_match("isra-prox"), None);
    }

    #[test]
    fn subsumption_via_the_keyword_set() {
        let pats = ["ultra", "UltraSurf", "surf", "proxy", "ultrasurf", ""];
        let dfa = AcDfa::build(pats);
        let mut out = Vec::new();
        // "UltraSurf" contains "ultra", "surf", itself and its duplicate.
        dfa.matching_patterns_into(b"UltraSurf", &mut out);
        assert_eq!(out, [0, 1, 2, 4]);
        // "ultra" and "proxy" contain only themselves.
        dfa.matching_patterns_into(b"ultra", &mut out);
        assert_eq!(out, [0]);
        dfa.matching_patterns_into(b"proxy", &mut out);
        assert_eq!(out, [3]);
        // The empty pattern contains nothing.
        dfa.matching_patterns_into(b"", &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn matching_patterns_into_reports_each_pattern_once_sorted() {
        let pats = ["she", "he", "hers", "", "HE"];
        let dfa = AcDfa::build(pats);
        let mut out = vec![99];
        for hay in ["ushers", "He said hers, she said", "", "nothing"] {
            dfa.matching_patterns_into(hay.as_bytes(), &mut out);
            assert_eq!(out, naive_set(&pats, hay.as_bytes()), "haystack {hay:?}");
        }
        dfa.matching_patterns_into(b"ushers", &mut out);
        assert_eq!(out, [0, 1, 2, 4]);
    }

    #[test]
    fn unused_bytes_share_one_class() {
        let dfa = AcDfa::build(["abc"]);
        // 3 used bytes + 1 shared unused class.
        assert_eq!(dfa.class_count(), 4);
    }
}
