//! Deterministic hashing for simulation decisions.
//!
//! Every stochastic-looking choice in the simulator (error injection, cache
//! hits, Tor-blocking windows) is a pure function of request content and a
//! seed, computed with FNV-1a folded through SplitMix64. This keeps corpus
//! generation order-independent and exactly reproducible.
//!
//! FNV-1a is a byte stream: [`fnv1a_from`] continues a hash where an earlier
//! call stopped, so `fnv1a_from(fnv1a(a), b) == fnv1a(a ++ b)`. The farm
//! hashes a request's identity once ([`crate::Request::identity_key`]) and
//! derives every time-bucketed key as a continuation of it, and decision
//! labels hash at compile time (`const LABEL: u64 = fnv1a(b"label")`).

/// FNV-1a 64 offset basis: the hash of no bytes.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The multiplier. It is `2^44 + 0x1b3`, not the published FNV-64 prime
/// `2^40 + 0x1b3`; every generated corpus and pinned output hash depends
/// on it, so it stays.
const FNV_PRIME: u64 = 0x1000_0000_01b3;

/// Continue an FNV-1a hash whose state after the bytes hashed so far is
/// `state`.
pub const fn fnv1a_from(mut state: u64, bytes: &[u8]) -> u64 {
    let mut i = 0;
    while i < bytes.len() {
        state ^= bytes[i] as u64;
        state = state.wrapping_mul(FNV_PRIME);
        i += 1;
    }
    state
}

/// FNV-1a over bytes.
pub const fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_from(FNV_OFFSET, bytes)
}

/// SplitMix64 finalizer: decorrelates structured inputs.
pub fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Combine a seed, a label hash (`fnv1a(label)`) and a key hash
/// (`fnv1a(bytes)`) into one decision hash.
pub fn decision_hash(seed: u64, label_hash: u64, key: u64) -> u64 {
    splitmix(seed ^ label_hash ^ key)
}

/// Map a hash to a per-mille draw (0..1000).
pub fn per_mille(h: u64) -> u64 {
    h % 1000
}

/// Map a hash to a per-hundred-thousand draw (0..100_000) for fine rates.
pub fn per_cent_mille(h: u64) -> u64 {
    h % 100_000
}

#[cfg(test)]
mod tests {
    use super::*;

    const ERR: u64 = fnv1a(b"err");
    const CACHE: u64 = fnv1a(b"cache");

    #[test]
    fn hashes_are_stable() {
        assert_eq!(fnv1a(b"proxy"), fnv1a(b"proxy"));
        assert_eq!(fnv1a(b""), FNV_OFFSET);
        // Pinned: the corpus bytes depend on this exact function.
        assert_eq!(fnv1a(b"a"), 0xaf74_d84c_8601_ec8c);
        let key = fnv1a(b"facebook.com");
        assert_eq!(decision_hash(1, ERR, key), decision_hash(1, ERR, key));
    }

    #[test]
    fn continuation_equals_concatenation() {
        assert_eq!(
            fnv1a_from(fnv1a(b"face"), b"book.com"),
            fnv1a(b"facebook.com")
        );
        assert_eq!(fnv1a_from(fnv1a(b"x"), b""), fnv1a(b"x"));
    }

    #[test]
    fn label_and_seed_decorrelate() {
        let key = fnv1a(b"x");
        let a = decision_hash(1, ERR, key);
        let b = decision_hash(1, CACHE, key);
        let c = decision_hash(2, ERR, key);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn per_mille_is_roughly_uniform() {
        let n = 100_000u64;
        let mut low = 0u64;
        for i in 0..n {
            if per_mille(splitmix(i)) < 500 {
                low += 1;
            }
        }
        let frac = low as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.01, "{frac}");
    }
}
