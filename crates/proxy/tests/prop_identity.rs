//! Property tests for the request identity key: the streamed hash equals
//! hashing the reference identity bytes, and the time-bucketed cache and
//! error draws equal the draws over the concatenated bytes.

use filterscope_core::Timestamp;
use filterscope_logformat::{ClientId, RequestUrl};
use filterscope_proxy::cache::CacheModel;
use filterscope_proxy::errors::{ErrorModel, ERROR_MIX};
use filterscope_proxy::hashing::{decision_hash, fnv1a, fnv1a_from, per_cent_mille};
use filterscope_proxy::Request;
use proptest::prelude::*;
use std::net::Ipv4Addr;

fn arb_client() -> impl Strategy<Value = ClientId> {
    prop_oneof![
        Just(ClientId::Zeroed),
        any::<u64>().prop_map(ClientId::Hashed),
        Just(ClientId::Hashed(0)),
        Just(ClientId::Hashed(u64::MAX)),
        any::<u32>().prop_map(|a| ClientId::Addr(Ipv4Addr::from(a))),
    ]
}

fn arb_request() -> impl Strategy<Value = Request> {
    (
        "[a-z0-9.\u{e9}-]{0,20}",
        "(/[a-zA-Z0-9._%-]{0,10}){0,3}",
        "[a-z=&\u{2603}]{0,12}",
        any::<u16>(),
        arb_client(),
        0u32..9 * 86_400,
    )
        .prop_map(|(host, path, query, port, client, secs)| {
            let t0 = Timestamp::parse_fields("2011-07-22", "00:00:00").expect("literal");
            Request::get(
                t0.plus_seconds(i64::from(secs)),
                RequestUrl::http(host, path)
                    .with_query(query)
                    .with_port(port),
            )
            .with_client(client)
        })
}

/// `fnv1a(identity ++ suffix)`: the reference a continuation must equal.
fn concatenated(req: &Request, suffix: &[u8]) -> u64 {
    let mut bytes = req.identity_bytes();
    bytes.extend_from_slice(suffix);
    fnv1a(&bytes)
}

proptest! {
    /// The streamed key is FNV-1a over the reference identity bytes for
    /// every client shape.
    #[test]
    fn identity_key_hashes_the_identity_bytes(req in arb_request()) {
        prop_assert_eq!(req.identity_key(), fnv1a(&req.identity_bytes()));
    }

    /// A continuation of the key over the cache's time bucket or the error
    /// model's epoch second equals hashing the concatenated bytes, and the
    /// models decide exactly as they would over those bytes.
    #[test]
    fn cache_and_error_draws_hash_the_concatenated_bytes(
        req in arb_request(),
        seed in any::<u64>(),
    ) {
        let key = req.identity_key();
        let bucket = (req.timestamp.epoch_seconds() / 600).to_le_bytes();
        let second = req.timestamp.epoch_seconds().to_le_bytes();
        let bucket_key = concatenated(&req, &bucket);
        let second_key = concatenated(&req, &second);
        prop_assert_eq!(fnv1a_from(key, &bucket), bucket_key);
        prop_assert_eq!(fnv1a_from(key, &second), second_key);

        let rate = 50_000;
        let hit = per_cent_mille(decision_hash(seed, fnv1a(b"cache-hit"), bucket_key)) < rate;
        prop_assert_eq!(
            CacheModel::new(seed, rate as u32).is_cache_hit(key, req.timestamp),
            hit
        );
        let errs = per_cent_mille(decision_hash(seed, fnv1a(b"net-error"), second_key)) < rate;
        prop_assert_eq!(
            ErrorModel::new(seed, rate as u32)
                .sample_from(key, req.timestamp, &ERROR_MIX)
                .is_some(),
            errs
        );
    }
}
