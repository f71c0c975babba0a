//! # filterscope-policylint
//!
//! Static analysis of SG-9000 policies. The paper's central claim (§5.4–§6)
//! is that the Syrian deployment is explainable as a small rule program —
//! keywords, domain suffixes, subnets, redirect hosts, a custom category —
//! with per-proxy skew. This crate *checks* such a program without replaying
//! any traffic, reasoning against the engine's fixed evaluation precedence
//! (custom category → redirect hosts → keywords → domain suffixes → subnets
//! → Tor):
//!
//! * [`lint_policy`] — reachability/shadowing and redundancy/conflict
//!   findings over one [`PolicyData`]: keyword substring subsumption (via
//!   the engine's keyword DFA), domain-suffix subsumption (via the
//!   trie), CIDR containment (via the subnet set), dead custom-category
//!   rules, and cross-tier masking notes;
//! * [`lint_farm`] — consistency checks over the per-proxy configs;
//! * [`skew_matrix`] — a static diff of the seven per-proxy configurations
//!   rendered as a Table-style matrix (recovers SG-44's Tor rule and
//!   SG-48's `metacafe.com` specialization from the standard farm);
//! * [`check_equivalence`] — rule-level equivalence of two policies where
//!   every non-equivalence finding carries a synthesized witness request
//!   URL, self-validated by executing both compiled [`PolicyEngine`]s — no
//!   static claim without a dynamic counterexample.
//!
//! Surfaced on the command line as `filterscope lint`.
//!
//! [`PolicyData`]: filterscope_proxy::PolicyData
//! [`PolicyEngine`]: filterscope_proxy::PolicyEngine

#![forbid(unsafe_code)]

pub mod equiv;
pub mod finding;
pub mod lint;
pub mod report;
pub mod skew;

pub use equiv::check_equivalence;
pub use finding::{DecisionKind, Finding, Severity, Witness};
pub use lint::{lint_farm, lint_policy};
pub use report::LintReport;
pub use skew::{skew_matrix, SkewMatrix, SkewRow};
