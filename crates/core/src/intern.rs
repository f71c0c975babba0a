//! A deterministic string interner for hot aggregation keys.
//!
//! The analysis accumulators key their hottest maps (domains, proxies,
//! anonymizer hosts, category labels) by strings that repeat millions of
//! times across a corpus. Interning replaces those `String` keys with a
//! `Copy` [`Sym`] handle: one arena append per *distinct* string per shard
//! instead of one allocation per record.
//!
//! Determinism contract: symbol ids are assigned in first-intern order,
//! which depends on record order within a shard — and shard contents depend
//! only on the ingest plan, never the thread count. When shards are folded
//! together ([`Interner::absorb_remap`]), the other table's strings are
//! re-interned in *its* insertion order, so the merged table's id
//! assignment depends only on the (deterministic) merge order. Even so,
//! renders must never sort or tie-break by raw `Sym` id: always resolve to
//! the string first. The id order is deterministic but not meaningful.

use std::hash::{BuildHasher, RandomState};

/// A handle to an interned string. Only valid for the [`Interner`] (or the
/// merged descendant) that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(u32);

impl Sym {
    /// The raw index (stable within one interner's lifetime).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A vacant slot in [`Interner::slots`].
const VACANT: u32 = u32::MAX;

/// An append-only string table with hash-consed lookup.
///
/// Each string is stored once, in one shared byte arena, and found with one
/// keyed-hash probe of an open-addressed id table. The hash stays std's
/// randomly keyed SipHash: `serve` interns strings straight from untrusted
/// TCP input, where an unkeyed hash would let a client force every key into
/// one probe chain. Slot layout therefore differs between interners; ids
/// (first-intern order) never do.
#[derive(Debug, Clone, Default)]
pub struct Interner {
    /// Every interned string, concatenated in id order.
    arena: String,
    /// `ends[id]`: end offset of string `id` in `arena` (it starts where
    /// string `id - 1` ends).
    ends: Vec<usize>,
    /// `hashes[id]`: keyed hash of string `id`, so a probe compares text only
    /// on a full hash match and growth never rehashes text.
    hashes: Vec<u64>,
    /// Linear-probed ids, [`VACANT`] when empty; length 0 or a power of two,
    /// at most 7/8 full.
    slots: Vec<u32>,
    hasher: RandomState,
}

impl Interner {
    /// An empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct strings interned.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Intern `s`, returning its symbol (existing or freshly assigned).
    pub fn intern(&mut self, s: &str) -> Sym {
        if (self.len() + 1) * 8 > self.slots.len() * 7 {
            self.grow();
        }
        let h = self.hasher.hash_one(s);
        match self.probe(s, h) {
            Ok(id) => Sym(id),
            Err(slot) => {
                let id = u32::try_from(self.len())
                    .ok()
                    .filter(|&id| id != VACANT)
                    .expect("interner overflow");
                self.arena.push_str(s);
                self.ends.push(self.arena.len());
                self.hashes.push(h);
                self.slots[slot] = id;
                Sym(id)
            }
        }
    }

    /// Look up a symbol without interning. `None` if `s` was never interned.
    pub fn get(&self, s: &str) -> Option<Sym> {
        if self.is_empty() {
            return None;
        }
        self.probe(s, self.hasher.hash_one(s)).ok().map(Sym)
    }

    /// The string behind a symbol.
    pub fn resolve(&self, sym: Sym) -> &str {
        let i = sym.index();
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.arena[start..self.ends[i]]
    }

    /// Fold another interner into this one, returning the remap table:
    /// `remap[other_sym.index()]` is the equivalent symbol here. Iterates
    /// `other` in insertion order, so the result is deterministic.
    pub fn absorb_remap(&mut self, other: &Interner) -> Vec<Sym> {
        (0..other.len())
            .map(|i| self.intern(other.resolve(Sym(i as u32))))
            .collect()
    }

    /// `Ok(id)` when `s` (hash `h`) is interned, else `Err(slot)`: the
    /// vacant slot where it belongs. `slots` must be non-empty.
    fn probe(&self, s: &str, h: u64) -> Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut slot = h as usize & mask;
        loop {
            let id = self.slots[slot];
            if id == VACANT {
                return Err(slot);
            }
            if self.hashes[id as usize] == h && self.resolve(Sym(id)) == s {
                return Ok(id);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Double the slot table (16 slots at first) and reinsert every id by
    /// its stored hash.
    fn grow(&mut self) {
        let cap = (self.slots.len() * 2).max(16);
        let mask = cap - 1;
        let mut slots = vec![VACANT; cap];
        for (id, &h) in self.hashes.iter().enumerate() {
            let mut slot = h as usize & mask;
            while slots[slot] != VACANT {
                slot = (slot + 1) & mask;
            }
            slots[slot] = id as u32;
        }
        self.slots = slots;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut i = Interner::new();
        let a = i.intern("facebook.com");
        let b = i.intern("metacafe.com");
        let a2 = i.intern("facebook.com");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(i.resolve(a), "facebook.com");
        assert_eq!(i.resolve(b), "metacafe.com");
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn get_does_not_intern() {
        let mut i = Interner::new();
        assert!(i.get("x").is_none());
        let s = i.intern("x");
        assert_eq!(i.get("x"), Some(s));
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn absorb_remaps_in_insertion_order() {
        let mut a = Interner::new();
        a.intern("one");
        a.intern("two");
        let mut b = Interner::new();
        let b_two = b.intern("two");
        let b_three = b.intern("three");
        let remap = a.absorb_remap(&b);
        assert_eq!(a.resolve(remap[b_two.index()]), "two");
        assert_eq!(a.resolve(remap[b_three.index()]), "three");
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn merge_order_determinism() {
        // The same sequence of absorbs yields the same symbol table.
        let build = || {
            let mut shard1 = Interner::new();
            shard1.intern("b");
            shard1.intern("a");
            let mut shard2 = Interner::new();
            shard2.intern("c");
            shard2.intern("a");
            let mut merged = Interner::new();
            merged.absorb_remap(&shard1);
            merged.absorb_remap(&shard2);
            (0..merged.len())
                .map(|i| merged.resolve(Sym(i as u32)).to_string())
                .collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
        assert_eq!(build(), vec!["b", "a", "c"]);
    }

    #[test]
    fn hundred_thousand_strings_resolve_in_first_intern_order() {
        let mut i = Interner::new();
        let n = 100_000u32;
        for k in 0..n {
            assert_eq!(
                i.intern(&format!("tok{k}")),
                Sym(k),
                "ids follow first intern"
            );
        }
        for k in (0..n).rev() {
            let s = format!("tok{k}");
            assert_eq!(i.intern(&s), Sym(k), "re-intern is a lookup");
            assert_eq!(i.get(&s), Some(Sym(k)));
            assert_eq!(i.resolve(Sym(k)), s);
        }
        assert_eq!(i.len(), n as usize);
        assert_eq!(i.get("tok100000"), None);
        assert_eq!(i.get(""), None);
        assert_eq!(i.intern(""), Sym(n), "the empty string is a key too");
        assert_eq!(i.resolve(Sym(n)), "");
        // Absorbing into a table holding every other string keeps its ids
        // and appends the rest in the absorbed table's order.
        let mut evens = Interner::new();
        for k in (0..n).step_by(2) {
            evens.intern(&format!("tok{k}"));
        }
        let remap = evens.absorb_remap(&i);
        for k in 0..n {
            let want = if k % 2 == 0 { k / 2 } else { n / 2 + k / 2 };
            assert_eq!(remap[k as usize], Sym(want));
        }
        assert_eq!(remap[n as usize], Sym(n), "the empty string comes last");
        assert_eq!(evens.len(), n as usize + 1);
    }

    #[test]
    fn colliding_hashes_still_distinct() {
        // Force the chain path by interning many strings; content equality
        // guards against any collision.
        let mut i = Interner::new();
        let syms: Vec<Sym> = (0..1000)
            .map(|n| i.intern(&format!("host{n}.example")))
            .collect();
        for (n, s) in syms.iter().enumerate() {
            assert_eq!(i.resolve(*s), format!("host{n}.example"));
        }
        assert_eq!(i.len(), 1000);
    }
}
