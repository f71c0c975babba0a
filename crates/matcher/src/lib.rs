//! # filterscope-match
//!
//! Pattern-matching engines used by the Blue Coat policy simulator and by the
//! censorship-inference analysis:
//!
//! * [`AhoCorasick`] — a from-scratch multi-pattern substring automaton. The
//!   SG-9000 string filter is "a simple string-matching engine that detects
//!   any blacklisted substring in the URL" (§5.4); an Aho–Corasick automaton
//!   is the canonical way to run that set-membership scan in a single pass.
//! * [`DomainTrie`] — reversed-label suffix trie for domain blacklists
//!   (`facebook.com` must match `www.facebook.com` and `.il` must match any
//!   Israeli ccTLD host).
//! * [`CidrSet`] — sorted, merged interval set over IPv4 space for subnet
//!   blacklists (the Israeli-subnet block of Table 12).
//! * [`AcDfa`] / [`DomainIndex`] — dense-DFA and flat-array forms of the
//!   first two, decision-identical by construction; the policy engine
//!   runs these.
//! * [`naive`] — deliberately simple reference implementations used in
//!   property tests and ablation benches.

#![forbid(unsafe_code)]

pub mod aho_corasick;
pub mod cidr_set;
pub mod dfa;
pub mod domain_index;
pub mod domain_trie;
pub mod naive;

pub use aho_corasick::{AhoCorasick, Match};
pub use cidr_set::CidrSet;
pub use dfa::AcDfa;
pub use domain_index::DomainIndex;
pub use domain_trie::DomainTrie;
