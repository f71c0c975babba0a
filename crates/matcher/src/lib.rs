//! # filterscope-match
//!
//! One matcher per rule class of the Blue Coat policy simulator and the
//! censorship-inference analysis:
//!
//! * [`AcDfa`] — URL substrings (§5.4, Table 10): a from-scratch
//!   Aho–Corasick automaton tabulated into a dense DFA. The SG-9000 string
//!   filter is "a simple string-matching engine that detects any
//!   blacklisted substring in the URL"; the DFA runs that set-membership
//!   scan in a single pass, one table lookup per byte, ignoring ASCII case.
//! * [`DomainTrie`] — domain suffixes (Table 8): a reversed-label trie
//!   (`facebook.com` must match `www.facebook.com` and `.il` must match any
//!   Israeli ccTLD host).
//! * [`CidrSet`] — subnets (Table 12): a sorted, merged interval set over
//!   IPv4 space.
//! * [`naive`] — deliberately simple reference implementations used in
//!   property tests and ablation benches.

#![forbid(unsafe_code)]

pub mod cidr_set;
pub mod dfa;
pub mod domain_trie;
pub mod naive;

pub use cidr_set::CidrSet;
pub use dfa::AcDfa;
pub use domain_trie::DomainTrie;
