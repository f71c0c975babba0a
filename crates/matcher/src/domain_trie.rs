//! Reversed-label trie for domain-suffix blacklists.
//!
//! The paper recovers a list of 105 domains "for which no request is allowed"
//! (§5.4, Table 8) and shows that the `.il` ccTLD is blocked wholesale. A
//! domain blacklist therefore needs *registrable-suffix* semantics:
//! `facebook.com` must match `www.facebook.com` but not `notfacebook.com`,
//! and the entry `.il` (or equivalently `il`) must match every Israeli host.
//!
//! Labels are inserted in reverse order (`com` → `facebook`) so a lookup
//! walks the host's labels right-to-left and stops at the first node marked
//! terminal — one pass, no allocation.

use std::collections::HashMap;

#[derive(Debug, Default)]
struct Node {
    children: HashMap<Box<str>, Node>,
    /// Index of the blacklist entry terminating here, if any.
    terminal: Option<u32>,
}

impl Node {
    /// The child under `label`, compared without ASCII case. Already-lower
    /// labels (the common case) probe without allocating.
    fn child(&self, label: &str) -> Option<&Node> {
        if label.bytes().any(|b| b.is_ascii_uppercase()) {
            self.children.get(label.to_ascii_lowercase().as_str())
        } else {
            self.children.get(label)
        }
    }
}

/// An entry as the trie stores it: leading dots and one trailing dot
/// dropped (`".il"`, `"il"` and `"il."` are one entry; labels are
/// lowercased on insert). Only this function decides what an entry means,
/// so the policy linter reasons about exactly what the engine matches.
pub fn normalize_entry(entry: &str) -> &str {
    let entry = entry.trim_start_matches('.');
    entry.strip_suffix('.').unwrap_or(entry)
}

/// A set of domain suffixes with right-to-left label matching.
#[derive(Debug, Default)]
pub struct DomainTrie {
    root: Node,
    len: usize,
}

impl DomainTrie {
    /// Empty trie.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from an iterator of entries. Leading dots and one trailing dot
    /// are ignored (`".il"`, `"il"` and `"il."` are the same entry);
    /// entries are lowercased.
    pub fn from_entries<'a>(entries: impl IntoIterator<Item = &'a str>) -> Self {
        let mut t = Self::new();
        for e in entries {
            t.insert(e);
        }
        t
    }

    /// Number of entries inserted (duplicates counted once).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the trie empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert a suffix entry; returns the entry index it was assigned, or the
    /// existing index if the exact entry was already present.
    pub fn insert(&mut self, entry: &str) -> u32 {
        let mut node = &mut self.root;
        for label in normalize_entry(entry).rsplit('.') {
            let label = label.to_ascii_lowercase();
            node = node.children.entry(label.into_boxed_str()).or_default();
        }
        match node.terminal {
            Some(ix) => ix,
            None => {
                let ix = self.len as u32;
                node.terminal = Some(ix);
                self.len += 1;
                ix
            }
        }
    }

    /// If `host` is covered by an entry, return that entry's index.
    ///
    /// The *shortest* covering suffix wins (matching the outermost blacklist
    /// entry), e.g. with entries `il` and `co.il`, host `panet.co.il` reports
    /// `il`. ASCII case is ignored; a trailing dot on the host is tolerated.
    pub fn lookup(&self, host: &str) -> Option<u32> {
        let host = host.strip_suffix('.').unwrap_or(host);
        if host.is_empty() {
            return None;
        }
        let mut node = &self.root;
        for label in host.rsplit('.') {
            node = node.child(label)?;
            if let Some(ix) = node.terminal {
                return Some(ix);
            }
        }
        None
    }

    /// If `host` is covered by an entry, return the index of the *longest*
    /// (most specific) covering entry.
    ///
    /// Complements [`Self::lookup`]: blacklists want the outermost entry,
    /// category oracles want the most specific one (`mail.yahoo.com` over
    /// `yahoo.com`).
    pub fn lookup_longest(&self, host: &str) -> Option<u32> {
        let host = host.strip_suffix('.').unwrap_or(host);
        if host.is_empty() {
            return None;
        }
        let mut node = &self.root;
        let mut best = None;
        for label in host.rsplit('.') {
            match node.child(label) {
                Some(n) => {
                    best = n.terminal.or(best);
                    node = n;
                }
                None => break,
            }
        }
        best
    }

    /// Does any entry cover `host`?
    pub fn matches(&self, host: &str) -> bool {
        self.lookup(host).is_some()
    }

    /// If a *strictly shorter* entry covers the suffix `entry`, return its
    /// index.
    ///
    /// This is the suffix-subsumption query behind the policy linter: with
    /// entries `il` and `co.il`, the entry `co.il` can never be the deciding
    /// rule (every host it covers is already covered by `il`), so
    /// `shadowing_entry("co.il")` reports the index of `il`. An entry is
    /// never reported as shadowing itself, and exact duplicates collapse at
    /// insert time, so the returned entry is always a proper suffix.
    pub fn shadowing_entry(&self, entry: &str) -> Option<u32> {
        let entry = normalize_entry(entry);
        if entry.is_empty() {
            return None;
        }
        let mut node = &self.root;
        let mut labels = entry.rsplit('.').peekable();
        while let Some(label) = labels.next() {
            node = node.child(label)?;
            // A terminal strictly above the entry's own node shadows it.
            if labels.peek().is_some() {
                if let Some(ix) = node.terminal {
                    return Some(ix);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_and_subdomain_match() {
        let t = DomainTrie::from_entries(["facebook.com", "metacafe.com"]);
        assert!(t.matches("facebook.com"));
        assert!(t.matches("www.facebook.com"));
        assert!(t.matches("ar-ar.facebook.com"));
        assert!(!t.matches("notfacebook.com"));
        assert!(!t.matches("facebook.com.evil.net"));
        assert!(!t.matches("com"));
    }

    #[test]
    fn tld_entry_blocks_cctld() {
        let t = DomainTrie::from_entries([".il"]);
        assert!(t.matches("panet.co.il"));
        assert!(t.matches("walla.co.il"));
        assert!(t.matches("il"));
        assert!(!t.matches("il.example.com"));
    }

    #[test]
    fn shortest_suffix_wins() {
        let mut t = DomainTrie::new();
        let il = t.insert("il");
        let _coil = t.insert("co.il");
        assert_eq!(t.lookup("panet.co.il"), Some(il));
    }

    #[test]
    fn lookup_longest_prefers_most_specific() {
        let mut t = DomainTrie::new();
        let il = t.insert("il");
        let coil = t.insert("co.il");
        assert_eq!(t.lookup_longest("panet.co.il"), Some(coil));
        assert_eq!(t.lookup_longest("idf.il"), Some(il));
        assert_eq!(t.lookup_longest("example.com"), None);
        assert_eq!(t.lookup_longest(""), None);
        // Exact entry is its own longest match.
        assert_eq!(t.lookup_longest("co.il"), Some(coil));
    }

    #[test]
    fn shadowing_entry_reports_proper_suffixes_only() {
        let mut t = DomainTrie::new();
        let il = t.insert("il");
        let _coil = t.insert("co.il");
        let _panet = t.insert("panet.co.il");
        let _com = t.insert("metacafe.com");
        // `co.il` is shadowed by `il`; `panet.co.il` by the shortest cover.
        assert_eq!(t.shadowing_entry("co.il"), Some(il));
        assert_eq!(t.shadowing_entry("panet.co.il"), Some(il));
        // Shortest entries shadow themselves never.
        assert_eq!(t.shadowing_entry("il"), None);
        assert_eq!(t.shadowing_entry("metacafe.com"), None);
        // Entries not in the trie report their shortest covering suffix.
        assert_eq!(t.shadowing_entry("x.co.il"), Some(il));
        assert_eq!(t.shadowing_entry("example.org"), None);
        assert_eq!(t.shadowing_entry(""), None);
        assert_eq!(t.shadowing_entry(".CO.IL"), Some(il));
    }

    #[test]
    fn case_and_trailing_dot_insensitive() {
        let t = DomainTrie::from_entries(["Skype.COM"]);
        assert!(t.matches("download.skype.com"));
        assert!(t.matches("SKYPE.com."));
    }

    #[test]
    fn trailing_dot_entry_is_the_bare_entry() {
        let mut t = DomainTrie::new();
        let a = t.insert("evil.example.");
        assert_eq!(t.insert("evil.example"), a);
        assert_eq!(t.len(), 1);
        for host in ["evil.example", "www.evil.example", "evil.example."] {
            assert_eq!(t.lookup(host), Some(a), "host {host:?}");
        }
        assert!(!t.matches("example"));
        assert_eq!(t.shadowing_entry("www.evil.example."), Some(a));
        assert_eq!(t.shadowing_entry("evil.example."), None);
    }

    #[test]
    fn duplicate_insert_reuses_index() {
        let mut t = DomainTrie::new();
        let a = t.insert("badoo.com");
        let b = t.insert(".badoo.com");
        assert_eq!(a, b);
        assert_eq!(t.insert("badoo.com"), a);
        assert_eq!(t.len(), 1);
        assert!(t.matches("m.badoo.com"));
    }

    #[test]
    fn empty_trie_and_empty_host() {
        let t = DomainTrie::new();
        assert!(t.is_empty());
        assert!(!t.matches("anything.com"));
        let t = DomainTrie::from_entries(["x.com"]);
        assert!(!t.matches(""));
        assert!(!t.matches("."));
        assert_eq!(t.lookup_longest("."), None);
    }

    #[test]
    fn fixed_hosts_against_the_entry_list() {
        let entries = ["facebook.com", ".il", "Skype.COM", "co.il", "jumblo.com"];
        let t = DomainTrie::from_entries(entries);
        let (il, skype, coil) = (Some(1), Some(2), Some(3));
        for (host, shortest, longest) in [
            ("facebook.com", Some(0), Some(0)),
            ("www.facebook.com", Some(0), Some(0)),
            ("ar-ar.facebook.com", Some(0), Some(0)),
            ("notfacebook.com", None, None),
            ("facebook.com.evil.net", None, None),
            ("com", None, None),
            ("il", il, il),
            ("IL", il, il),
            ("panet.co.il", il, coil),
            ("x.co.il", il, coil),
            ("download.skype.com", skype, skype),
            ("SKYPE.com.", skype, skype),
            ("skype.com.fake.org", None, None),
            ("jumblo.com", Some(4), Some(4)),
            ("example.org", None, None),
            ("", None, None),
            (".", None, None),
            ("a..com", None, None),
        ] {
            assert_eq!(t.lookup(host), shortest, "host {host:?}");
            assert_eq!(t.lookup_longest(host), longest, "host {host:?}");
        }
    }

    #[test]
    fn agrees_with_naive_reference() {
        let entries = ["facebook.com", ".il", "skype.com", "jumblo.com"];
        let t = DomainTrie::from_entries(entries);
        for host in [
            "facebook.com",
            "www.facebook.com",
            "il",
            "x.co.il",
            "skype.com.fake.org",
            "jumblo.com",
            "example.org",
            "IL",
        ] {
            assert_eq!(
                t.matches(host),
                crate::naive::domain_matches(&entries, host),
                "host {host:?}"
            );
        }
    }
}
