//! Sorted interval set over IPv4 space for subnet blacklists.
//!
//! Blocks are normalized to `[first, last]` integer ranges, sorted, and
//! merged, so containment is a single binary search. This is the index behind
//! both the proxy's destination-IP filter and the Table 11/12 geo analysis.

use filterscope_core::Ipv4Cidr;
use std::net::Ipv4Addr;

/// An immutable set of IPv4 ranges built from CIDR blocks.
#[derive(Debug, Clone, Default)]
pub struct CidrSet {
    /// Disjoint, sorted, merged `[start, end]` inclusive ranges.
    ranges: Vec<(u32, u32)>,
}

impl CidrSet {
    /// Build from any iterator of CIDR blocks; overlapping and adjacent
    /// blocks are merged.
    pub fn from_blocks(blocks: impl IntoIterator<Item = Ipv4Cidr>) -> Self {
        let mut raw: Vec<(u32, u32)> = blocks
            .into_iter()
            .map(|b| (b.first_u32(), b.last_u32()))
            .collect();
        raw.sort_unstable();
        let mut ranges: Vec<(u32, u32)> = Vec::with_capacity(raw.len());
        for (s, e) in raw {
            match ranges.last_mut() {
                // Merge overlapping or exactly adjacent ranges.
                Some((_, pe)) if s <= pe.saturating_add(1) => {
                    if e > *pe {
                        *pe = e;
                    }
                }
                _ => ranges.push((s, e)),
            }
        }
        CidrSet { ranges }
    }

    /// Parse a list of CIDR strings; any malformed entry fails the whole set.
    pub fn parse_blocks<'a>(
        blocks: impl IntoIterator<Item = &'a str>,
    ) -> filterscope_core::Result<Self> {
        let parsed: filterscope_core::Result<Vec<_>> =
            blocks.into_iter().map(Ipv4Cidr::parse).collect();
        Ok(Self::from_blocks(parsed?))
    }

    /// Is `addr` inside any block?
    pub fn contains(&self, addr: Ipv4Addr) -> bool {
        let x = u32::from(addr);
        // Find the last range whose start is <= x.
        match self.ranges.partition_point(|&(s, _)| s <= x) {
            0 => false,
            i => x <= self.ranges[i - 1].1,
        }
    }

    /// Is every address of `block` inside the set?
    ///
    /// Because ranges are merged at construction, a fully covered block is
    /// always covered by exactly one range, so this is one binary search.
    pub fn covers(&self, block: Ipv4Cidr) -> bool {
        let (first, last) = (block.first_u32(), block.last_u32());
        match self.ranges.partition_point(|&(s, _)| s <= first) {
            0 => false,
            i => last <= self.ranges[i - 1].1,
        }
    }

    /// Does `block` share at least one address with the set?
    pub fn overlaps(&self, block: Ipv4Cidr) -> bool {
        let (first, last) = (block.first_u32(), block.last_u32());
        // The candidate ranges are the one starting at or before `first` and
        // any starting inside the block.
        let i = self.ranges.partition_point(|&(s, _)| s <= first);
        (i > 0 && first <= self.ranges[i - 1].1)
            || self.ranges.get(i).is_some_and(|&(s, _)| s <= last)
    }

    /// The smallest address of `block` *not* covered by the set, if any —
    /// the witness generator for "this CIDR rule is not fully subsumed".
    pub fn first_uncovered_in(&self, block: Ipv4Cidr) -> Option<Ipv4Addr> {
        let (first, last) = (block.first_u32() as u64, block.last_u32() as u64);
        let mut cursor = first;
        for &(s, e) in &self.ranges {
            let (s, e) = (s as u64, e as u64);
            if e < cursor {
                continue;
            }
            if s > cursor {
                break; // gap at `cursor`
            }
            cursor = e + 1;
            if cursor > last {
                return None;
            }
        }
        (cursor <= last).then(|| Ipv4Addr::from(cursor as u32))
    }

    /// Number of disjoint ranges after merging.
    pub fn range_count(&self) -> usize {
        self.ranges.len()
    }

    /// Total number of addresses covered.
    pub fn address_count(&self) -> u64 {
        self.ranges
            .iter()
            .map(|&(s, e)| (e as u64) - (s as u64) + 1)
            .sum()
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// The merged `[start, end]` ranges, sorted and disjoint.
    pub fn ranges(&self) -> &[(u32, u32)] {
        &self.ranges
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    fn set(blocks: &[&str]) -> CidrSet {
        CidrSet::parse_blocks(blocks.iter().copied()).unwrap()
    }

    #[test]
    fn contains_israeli_table12_subnets() {
        let s = set(&[
            "84.229.0.0/16",
            "46.120.0.0/15",
            "89.138.0.0/15",
            "212.235.64.0/19",
            "212.150.0.0/16",
        ]);
        assert!(s.contains(ip("84.229.13.7")));
        assert!(s.contains(ip("46.121.255.255")));
        assert!(s.contains(ip("212.235.95.0")));
        assert!(!s.contains(ip("212.235.96.0")));
        assert!(!s.contains(ip("8.8.8.8")));
    }

    #[test]
    fn merges_overlaps_and_adjacency() {
        let s = set(&["10.0.0.0/25", "10.0.0.128/25", "10.0.0.64/26"]);
        assert_eq!(s.range_count(), 1);
        assert_eq!(s.address_count(), 256);
        assert!(s.contains(ip("10.0.0.255")));
        assert!(!s.contains(ip("10.0.1.0")));
    }

    #[test]
    fn empty_set() {
        let s = CidrSet::from_blocks([]);
        assert!(s.is_empty());
        assert!(!s.contains(ip("1.2.3.4")));
    }

    #[test]
    fn boundary_addresses() {
        let s = set(&["0.0.0.0/8", "255.255.255.255/32"]);
        assert!(s.contains(ip("0.0.0.0")));
        assert!(s.contains(ip("0.255.255.255")));
        assert!(!s.contains(ip("1.0.0.0")));
        assert!(s.contains(ip("255.255.255.255")));
        assert!(!s.contains(ip("255.255.255.254")));
    }

    #[test]
    fn containment_overlap_and_gap_queries() {
        let s = set(&["84.229.0.0/16", "46.120.0.0/15"]);
        let c = |t: &str| Ipv4Cidr::parse(t).unwrap();
        // Full containment: sub-blocks and the blocks themselves.
        assert!(s.covers(c("84.229.128.0/17")));
        assert!(s.covers(c("84.229.0.0/16")));
        assert!(!s.covers(c("84.228.0.0/15"))); // only the upper half is in
        assert!(!s.covers(c("8.8.8.0/24")));
        // Overlap: any shared address counts.
        assert!(s.overlaps(c("84.228.0.0/15")));
        assert!(s.overlaps(c("46.121.200.0/24")));
        assert!(!s.overlaps(c("46.122.0.0/16")));
        // Witness generation: first uncovered address inside a block.
        assert_eq!(s.first_uncovered_in(c("84.229.0.0/16")), None);
        assert_eq!(
            s.first_uncovered_in(c("84.228.0.0/15")),
            Some(ip("84.228.0.0"))
        );
        assert_eq!(s.first_uncovered_in(c("46.121.0.0/16")), None);
        // A gap between two covered ranges is found.
        let two = set(&["10.0.0.0/25", "10.0.0.192/26"]);
        assert_eq!(
            two.first_uncovered_in(c("10.0.0.0/24")),
            Some(ip("10.0.0.128"))
        );
        // The all-ones boundary does not overflow.
        let top = set(&["255.255.255.254/31"]);
        assert_eq!(top.first_uncovered_in(c("255.255.255.254/31")), None);
        assert_eq!(
            top.first_uncovered_in(c("255.255.255.252/30")),
            Some(ip("255.255.255.252"))
        );
        // Empty set: everything is uncovered, nothing overlaps.
        let none = CidrSet::from_blocks([]);
        assert!(!none.overlaps(c("0.0.0.0/0")));
        assert_eq!(
            none.first_uncovered_in(c("5.5.5.0/24")),
            Some(ip("5.5.5.0"))
        );
    }

    #[test]
    fn rejects_malformed_block_list() {
        assert!(CidrSet::parse_blocks(["1.2.3.0/24", "oops"]).is_err());
    }

    #[test]
    fn agrees_with_linear_scan() {
        let blocks: Vec<Ipv4Cidr> = ["84.229.0.0/16", "46.120.0.0/15", "212.150.0.0/16"]
            .iter()
            .map(|s| Ipv4Cidr::parse(s).unwrap())
            .collect();
        let s = CidrSet::from_blocks(blocks.iter().copied());
        for probe in [
            "84.229.0.0",
            "84.228.255.255",
            "46.120.0.1",
            "46.122.0.0",
            "212.150.200.4",
            "212.151.0.0",
            "0.0.0.0",
            "255.255.255.255",
        ] {
            let a = ip(probe);
            assert_eq!(
                s.contains(a),
                crate::naive::cidr_contains(&blocks, a),
                "probe {probe}"
            );
        }
    }
}
