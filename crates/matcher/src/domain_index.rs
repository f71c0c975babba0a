//! Flat form of the domain-suffix blacklist.
//!
//! [`crate::DomainTrie`] hangs `HashMap` nodes off each other — ideal for
//! incremental inserts and the linter's shadowing queries, but every
//! lookup hashes each label. [`DomainIndex`] is the same reversed-label
//! automaton flattened DAFSA-style into three arrays: a pool of lowercased
//! label bytes, a sorted edge table, and a node table of edge ranges.
//! Lookups binary-search the node's edge run with allocation-free
//! case-folded comparison.
//!
//! Matching semantics are identical to `DomainTrie` by construction
//! (property-tested): labels walk right-to-left, the *shortest* covering
//! suffix wins, ASCII case is ignored, one trailing host dot is
//! tolerated, and leading entry dots are stripped.

use std::collections::BTreeMap;

/// Sentinel terminal value for "no entry ends at this node".
const NO_ENTRY: u32 = u32::MAX;

/// One labelled edge: `labels[off..off + len]` leads to node `child`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Edge {
    off: u32,
    len: u16,
    child: u32,
}

/// One node: a run of sorted edges plus an optional terminal entry index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct NodeRec {
    edge_start: u32,
    edge_count: u32,
    terminal: u32,
}

/// A set of domain suffixes as flat arrays; see the module docs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainIndex {
    /// Lowercased label bytes, concatenated.
    labels: Vec<u8>,
    /// All edges, grouped by owning node, sorted by label within a group.
    edges: Vec<Edge>,
    /// Node 0 is the root.
    nodes: Vec<NodeRec>,
    /// Number of distinct entries.
    len: usize,
}

/// Build-time node, keyed by lowercased label (sorted iteration gives the
/// sorted edge runs for free).
#[derive(Default)]
struct TempNode {
    children: BTreeMap<Vec<u8>, TempNode>,
    terminal: Option<u32>,
}

impl DomainIndex {
    /// Build from entries, mirroring `DomainTrie::from_entries`: leading
    /// dots stripped, labels lowercased, duplicates collapse onto the
    /// first entry's index.
    pub fn from_entries<'a>(entries: impl IntoIterator<Item = &'a str>) -> DomainIndex {
        let mut root = TempNode::default();
        let mut len = 0u32;
        for entry in entries {
            let entry = entry.trim_start_matches('.');
            let mut node = &mut root;
            for label in entry.rsplit('.') {
                let label = label.to_ascii_lowercase().into_bytes();
                node = node.children.entry(label).or_default();
            }
            if node.terminal.is_none() {
                node.terminal = Some(len);
                len += 1;
            }
        }

        // Flatten breadth-first so each node's edges form one contiguous,
        // sorted run.
        let mut labels = Vec::new();
        let mut edges = Vec::new();
        let mut nodes = Vec::new();
        let mut queue: std::collections::VecDeque<TempNode> = std::collections::VecDeque::new();
        queue.push_back(root);
        let mut next_id = 1u32;
        while let Some(node) = queue.pop_front() {
            let edge_start = edges.len() as u32;
            for (label, child) in node.children {
                let off = labels.len() as u32;
                labels.extend_from_slice(&label);
                edges.push(Edge {
                    off,
                    len: label.len() as u16,
                    child: next_id,
                });
                next_id += 1;
                queue.push_back(child);
            }
            nodes.push(NodeRec {
                edge_start,
                edge_count: edges.len() as u32 - edge_start,
                terminal: node.terminal.unwrap_or(NO_ENTRY),
            });
        }
        // The queue preserves child order, but each child's own NodeRec is
        // appended when *it* is dequeued — BFS ids therefore match `child`.
        DomainIndex {
            labels,
            edges,
            nodes,
            len: len as usize,
        }
    }

    /// Number of distinct entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the index empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Case-folded comparison of a stored edge label against a probe
    /// label from the host (probe is folded on the fly; stored labels are
    /// lowercased at build time).
    fn cmp_label(&self, edge: Edge, probe: &str) -> std::cmp::Ordering {
        let stored = &self.labels[edge.off as usize..edge.off as usize + edge.len as usize];
        let probe = probe.as_bytes();
        let n = stored.len().min(probe.len());
        for i in 0..n {
            let p = probe[i].to_ascii_lowercase();
            match stored[i].cmp(&p) {
                std::cmp::Ordering::Equal => {}
                other => return other,
            }
        }
        stored.len().cmp(&probe.len())
    }

    /// The child reached from `node` over `label`, if any.
    fn descend(&self, node: NodeRec, label: &str) -> Option<NodeRec> {
        let run =
            &self.edges[node.edge_start as usize..(node.edge_start + node.edge_count) as usize];
        let i = run.binary_search_by(|&e| self.cmp_label(e, label)).ok()?;
        Some(self.nodes[run[i].child as usize])
    }

    /// If `host` is covered by an entry, the index of the *shortest*
    /// covering suffix (semantics of [`crate::DomainTrie::lookup`]).
    pub fn lookup(&self, host: &str) -> Option<u32> {
        let host = host.strip_suffix('.').unwrap_or(host);
        if host.is_empty() {
            return None;
        }
        let mut node = self.nodes[0];
        for label in host.rsplit('.') {
            node = self.descend(node, label)?;
            if node.terminal != NO_ENTRY {
                return Some(node.terminal);
            }
        }
        None
    }

    /// Does any entry cover `host`?
    pub fn matches(&self, host: &str) -> bool {
        self.lookup(host).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DomainTrie;

    fn both(entries: &[&str]) -> (DomainTrie, DomainIndex) {
        (
            DomainTrie::from_entries(entries.iter().copied()),
            DomainIndex::from_entries(entries.iter().copied()),
        )
    }

    #[test]
    fn agrees_with_trie_on_fixed_cases() {
        let (trie, index) = both(&["facebook.com", ".il", "Skype.COM", "co.il", "jumblo.com"]);
        for host in [
            "facebook.com",
            "www.facebook.com",
            "ar-ar.facebook.com",
            "notfacebook.com",
            "facebook.com.evil.net",
            "com",
            "il",
            "IL",
            "panet.co.il",
            "x.co.il",
            "download.skype.com",
            "SKYPE.com.",
            "skype.com.fake.org",
            "jumblo.com",
            "example.org",
            "",
            ".",
            "a..com",
        ] {
            assert_eq!(trie.lookup(host), index.lookup(host), "host {host:?}");
            assert_eq!(trie.matches(host), index.matches(host), "host {host:?}");
        }
    }

    #[test]
    fn shortest_suffix_wins_like_the_trie() {
        let (_, index) = both(&["il", "co.il", "panet.co.il"]);
        assert_eq!(index.lookup("panet.co.il"), Some(0));
        assert_eq!(index.lookup("idf.il"), Some(0));
    }

    #[test]
    fn duplicate_entries_collapse() {
        let index = DomainIndex::from_entries(["badoo.com", ".badoo.com", "badoo.com"]);
        assert_eq!(index.len(), 1);
        assert!(index.matches("m.badoo.com"));
    }

    #[test]
    fn empty_index_and_empty_host() {
        let index = DomainIndex::from_entries([]);
        assert!(index.is_empty());
        assert!(!index.matches("anything.com"));
        let index = DomainIndex::from_entries(["x.com"]);
        assert!(!index.matches(""));
    }
}
