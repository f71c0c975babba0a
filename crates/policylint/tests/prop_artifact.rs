//! Property tests for the compiled-artifact pipeline, from both ends:
//!
//! 1. **Fidelity.** For arbitrary policies, `compile → load → evaluate`
//!    agrees with `parse → build → evaluate` on arbitrary URLs.
//! 2. **Fail-closed.** Arbitrary single-bit corruption and truncation of
//!    the byte stream either fail to load or (never observed, but the
//!    property allows it) load to a decision-identical engine — a corrupt
//!    artifact can never silently change policy.

use filterscope_core::Ipv4Cidr;
use filterscope_logformat::RequestUrl;
use filterscope_proxy::artifact::{compile, load};
use filterscope_proxy::{PolicyData, PolicyEngine};
use proptest::prelude::*;
use std::net::Ipv4Addr;

fn arb_policy() -> impl Strategy<Value = PolicyData> {
    (
        proptest::collection::vec("[a-z]{3,10}", 0..6),
        proptest::collection::vec("[a-z]{2,8}\\.(com|net|org|il)", 0..8),
        proptest::collection::vec((any::<u32>(), 8u8..=32), 0..5),
        proptest::collection::vec("[a-z]{2,8}\\.example", 0..4),
        proptest::collection::vec(("[a-z.]{2,12}", "/[A-Za-z.]{1,14}"), 0..4),
        proptest::collection::vec("[a-z=&]{0,10}", 0..4),
    )
        .prop_map(
            |(keywords, domains, subnets, redirects, pages, queries)| PolicyData {
                keywords,
                blocked_domains: domains,
                blocked_subnets: subnets
                    .into_iter()
                    .map(|(a, l)| Ipv4Cidr::new(Ipv4Addr::from(a), l).expect("valid len"))
                    .collect(),
                redirect_hosts: redirects,
                custom_pages: pages,
                custom_queries: queries,
            },
        )
}

fn arb_urls() -> impl Strategy<Value = Vec<RequestUrl>> {
    proptest::collection::vec(
        ("[a-z]{2,8}\\.(com|net|org|il|example)", "/[a-z]{0,10}"),
        1..8,
    )
    .prop_map(|pairs| {
        pairs
            .into_iter()
            .map(|(host, path)| RequestUrl::http(host, path))
            .collect()
    })
}

proptest! {
    /// compile → load → evaluate is indistinguishable from
    /// parse → build → evaluate, on arbitrary policies and URLs.
    #[test]
    fn compiled_artifact_is_decision_identical(
        policy in arb_policy(),
        urls in arb_urls(),
        seed in any::<u64>(),
    ) {
        let bytes = compile(&policy, seed);
        let compiled = load(&bytes, None).expect("fresh artifact loads");
        prop_assert_eq!(&compiled.source, &policy, "embedded source survives");
        prop_assert_eq!(compiled.seed, seed);
        let reference = PolicyEngine::from_data(&policy, None, seed);
        for url in &urls {
            prop_assert_eq!(
                compiled.engine.decide_url(url),
                reference.decide_url(url),
                "{:?}", url
            );
        }
    }

    /// Flipping any single bit anywhere in the artifact fails closed:
    /// the load is rejected, or — if some flip were ever to slip past
    /// every CRC — the resulting engine still decides identically.
    #[test]
    fn single_bit_corruption_fails_closed(
        policy in arb_policy(),
        urls in arb_urls(),
        flip in any::<u16>(),
        bit in 0u8..8,
    ) {
        let bytes = compile(&policy, 3);
        let mut corrupt = bytes.clone();
        let at = flip as usize % corrupt.len();
        corrupt[at] ^= 1 << bit;
        if let Ok(compiled) = load(&corrupt, None) {
            let reference = PolicyEngine::from_data(&policy, None, 3);
            for url in &urls {
                prop_assert_eq!(
                    compiled.engine.decide_url(url),
                    reference.decide_url(url),
                    "corrupting byte {} bit {} changed a decision", at, bit
                );
            }
        }
    }

    /// Every proper prefix of the artifact is rejected.
    #[test]
    fn truncation_fails_closed(
        policy in arb_policy(),
        cut in any::<u16>(),
    ) {
        let bytes = compile(&policy, 9);
        let at = cut as usize % bytes.len();
        prop_assert!(load(&bytes[..at], None).is_err(), "prefix of {} bytes", at);
    }

    /// A version bump is rejected even with the header CRC recomputed —
    /// readers must not guess at a future layout.
    #[test]
    fn foreign_version_is_rejected(policy in arb_policy(), version in 2u32..100) {
        let bytes = compile(&policy, 1);
        let mut foreign = bytes.clone();
        foreign[4..8].copy_from_slice(&version.to_le_bytes());
        prop_assert!(load(&foreign, None).is_err());
    }
}
