//! Dense DFA form of the keyword automaton, the form the policy engine
//! scans with.
//!
//! [`crate::AhoCorasick`] resolves each input byte with a binary search
//! over sparse edges plus a failure-link walk — cheap to build, but two
//! data-dependent branches per byte on the hottest path the proxy farm
//! has. [`AcDfa`] runs the same automaton after closing it over the
//! failure function: one table lookup per byte, no failure walks, with
//! ASCII case folding baked into a 256-entry byte-class table. Byte
//! classes (all bytes no pattern uses share one class) keep the
//! transition table small enough to stay cache-resident.
//!
//! `AcDfa::is_match` is decision-identical to `AhoCorasick::is_match` by
//! construction (property-tested), which is what lets the policy engine
//! swap one for the other without the witness-equivalence gate noticing.

use crate::aho_corasick::{AhoCorasick, AhoCorasickBuilder};

/// A fully tabulated Aho–Corasick DFA (see module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AcDfa {
    /// Byte → equivalence class; case folding is applied here.
    classes: Box<[u8; 256]>,
    /// Number of distinct classes (≥ 1; class 0 is "byte unused by any
    /// pattern" when such bytes exist).
    class_count: u32,
    /// Number of DFA states (≥ 1; state 0 is the root).
    state_count: u32,
    /// Row-major transition table: `trans[state * class_count + class]`.
    trans: Vec<u32>,
    /// Per-state "some pattern ends here" flag.
    matches: Vec<bool>,
    /// Per-state output lists in CSR form: the patterns ending at state `s`
    /// are `outputs[output_start[s]..output_start[s + 1]]`.
    output_start: Vec<u32>,
    outputs: Vec<u32>,
}

impl AcDfa {
    /// Compile `patterns` straight to a DFA (builds the NFA internally).
    pub fn build<P: AsRef<[u8]>>(
        patterns: impl IntoIterator<Item = P>,
        ascii_case_insensitive: bool,
    ) -> AcDfa {
        let ac = AhoCorasickBuilder::new()
            .ascii_case_insensitive(ascii_case_insensitive)
            .build(patterns);
        AcDfa::from_automaton(&ac)
    }

    /// Tabulate an existing automaton.
    pub fn from_automaton(ac: &AhoCorasick) -> AcDfa {
        let used = ac.used_bytes();
        // Assign classes over *normalized* bytes: every byte some pattern
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
            let norm = if ac.is_case_insensitive() {
                b.to_ascii_lowercase()
            } else {
                b
            };
            classes[b as usize] = class_of_norm[norm as usize];
        }

        let state_count = ac.state_count() as u32;
        let mut trans = Vec::with_capacity(state_count as usize * class_count as usize);
        let mut matches = Vec::with_capacity(state_count as usize);
        let mut output_start = Vec::with_capacity(state_count as usize + 1);
        let mut outputs = Vec::new();
        output_start.push(0);
        for s in 0..state_count {
            for c in 0..class_count {
                // `step` re-folds case; representatives are already
                // normalized, and lowercasing is idempotent.
                trans.push(ac.step(s, rep_of_class[c as usize]));
            }
            matches.push(ac.state_is_match(s));
            outputs.extend_from_slice(ac.state_outputs(s));
            output_start.push(outputs.len() as u32);
        }
        AcDfa {
            classes,
            class_count,
            state_count,
            trans,
            matches,
            output_start,
            outputs,
        }
    }

    /// Does any pattern occur in `haystack`? One table lookup per byte.
    pub fn is_match(&self, haystack: impl AsRef<[u8]>) -> bool {
        let cc = self.class_count as usize;
        let mut state = 0usize;
        for &b in haystack.as_ref() {
            state = self.trans[state * cc + self.classes[b as usize] as usize] as usize;
            if self.matches[state] {
                return true;
            }
        }
        false
    }

    /// The distinct patterns occurring in `haystack`, sorted, written into
    /// `out` (cleared first, so one scratch `Vec` serves every call).
    /// Equals [`AhoCorasick::matching_patterns`] on the source automaton.
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
        self.state_count as usize
    }

    /// Number of byte classes (diagnostics).
    pub fn class_count(&self) -> usize {
        self.class_count as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dfa(patterns: &[&str], ci: bool) -> (AhoCorasick, AcDfa) {
        let ac = AhoCorasickBuilder::new()
            .ascii_case_insensitive(ci)
            .build(patterns);
        let dfa = AcDfa::from_automaton(&ac);
        (ac, dfa)
    }

    #[test]
    fn agrees_with_nfa_on_urls() {
        let (ac, dfa) = dfa(
            &[
                "proxy",
                "hotspotshield",
                "ultrareach",
                "israel",
                "ultrasurf",
            ],
            true,
        );
        for hay in [
            "google.com/tbproxy/af/query",
            "www.facebook.com/fbml/fbjs_ajax_proxy.php",
            "example.com/x?q=UltraSurf",
            "WWW.ISRAEL.NET/",
            "benign.example/path?ok=1",
            "",
            "pro",
            "proxproxproxy",
        ] {
            assert_eq!(ac.is_match(hay), dfa.is_match(hay), "haystack {hay:?}");
        }
    }

    #[test]
    fn agrees_with_nfa_exhaustively_on_small_alphabet() {
        let (ac, dfa) = dfa(&["ab", "ba", "aaa"], false);
        // Every string over {a,b,c} up to length 6.
        let alphabet = [b'a', b'b', b'c'];
        let mut stack: Vec<Vec<u8>> = vec![Vec::new()];
        while let Some(s) = stack.pop() {
            assert_eq!(ac.is_match(&s), dfa.is_match(&s), "haystack {s:?}");
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
        let (_, dfa) = dfa(&["Tor"], true);
        assert!(dfa.is_match("monitor"));
        assert!(dfa.is_match("MONITOR"));
        assert!(dfa.is_match("ToR"));
        assert!(!dfa.is_match("t-o-r"));
    }

    #[test]
    fn matching_patterns_into_reports_each_pattern_once_sorted() {
        let (ac, dfa) = dfa(&["she", "he", "hers", "", "HE"], true);
        let mut out = vec![99];
        for hay in ["ushers", "He said hers, she said", "", "nothing"] {
            dfa.matching_patterns_into(hay.as_bytes(), &mut out);
            assert_eq!(out, ac.matching_patterns(hay), "haystack {hay:?}");
        }
        dfa.matching_patterns_into(b"ushers", &mut out);
        assert_eq!(out, [0, 1, 2, 4]);
    }

    #[test]
    fn empty_pattern_set_never_matches() {
        let dfa = AcDfa::build(Vec::<&str>::new(), true);
        assert!(!dfa.is_match("anything"));
        assert_eq!(dfa.state_count(), 1);
    }

    #[test]
    fn unused_bytes_share_one_class() {
        let (_, dfa) = dfa(&["abc"], false);
        // 3 used bytes + 1 shared unused class.
        assert_eq!(dfa.class_count(), 4);
    }
}
