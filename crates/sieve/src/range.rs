//! Key-range sieves — the DHT-like partition the paper compares against.
//!
//! §III-A: *"This is in fact similar to what is done in structured DHT
//! approaches where each node is responsible for a given portion of the key
//! space."* A [`RangeSieve`] accepts keys whose hash falls in one of its
//! half-open ranges; [`RangeSieve::partition`] builds the canonical
//! `r`-fold successor-replicated partition used by E3 and by the structured
//! baseline, and [`RangeSieve::partition_contains`] /
//! [`RangeSieve::partition_owners`] evaluate that partition in closed form.

use crate::{ItemMeta, Sieve, Window};
use dd_sim::rng::{fnv1a, mix};

/// A sieve accepting hashed keys inside a set of half-open ranges
/// `[start, end)` of the `u64` key space. An empty `end` of 0 in the last
/// range is interpreted as wrap-around to `u64::MAX` inclusive via
/// splitting at construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangeSieve {
    /// Sorted, non-overlapping half-open ranges.
    ranges: Vec<(u64, u64)>,
}

impl RangeSieve {
    /// Creates a sieve over the given `[start, end)` ranges.
    /// Ranges are normalised (sorted, merged); empty ranges are dropped.
    #[must_use]
    pub fn new(mut ranges: Vec<(u64, u64)>) -> Self {
        ranges.retain(|(s, e)| e > s);
        ranges.sort_unstable();
        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(ranges.len());
        for (s, e) in ranges {
            match merged.last_mut() {
                Some((_, le)) if s <= *le => *le = (*le).max(e),
                _ => merged.push((s, e)),
            }
        }
        RangeSieve { ranges: merged }
    }

    /// The `r`-fold replicated partition sieve for node `index` of `n`:
    /// the key space is split into `n` equal segments and node `i` covers
    /// segments `i, i+1, …, i+r−1 (mod n)` — successor-list replication in
    /// DHT terms.
    ///
    /// Every key is covered by exactly `min(r, n)` nodes, satisfying the
    /// paper's correctness requirement by construction.
    ///
    /// # Panics
    /// Panics if `n == 0`, `r == 0` or `index >= n`.
    #[must_use]
    pub fn partition(index: u64, n: u64, r: u32) -> Self {
        check_partition(index, n, r);
        let seg = u64::MAX / n; // segment width (last segment absorbs slack)
        let r = u64::from(r).min(n);
        let mut ranges = Vec::with_capacity(r as usize);
        for k in 0..r {
            let s = (index + k) % n;
            let start = s * seg;
            let end = if s == n - 1 { u64::MAX } else { (s + 1) * seg };
            ranges.push((start, end));
        }
        RangeSieve::new(ranges)
    }

    /// The segment of an `n`-way partition that hash `h` falls in:
    /// `min(h / ⌊u64::MAX / n⌋, n − 1)` (the last segment absorbs the
    /// slack, `u64::MAX` included).
    fn segment_of(h: u64, n: u64) -> u64 {
        assert!(n > 0, "population must be positive");
        (h / (u64::MAX / n)).min(n - 1)
    }

    /// Closed form of `RangeSieve::partition(index, n, r).contains_hash(h)`:
    /// node `index` covers the window of `min(r, n)` segments starting at
    /// its own, so it accepts iff `(segment − index) mod n < min(r, n)`.
    /// Allocation-free.
    ///
    /// # Panics
    /// Panics where [`RangeSieve::partition`] does.
    #[must_use]
    pub fn partition_contains(index: u64, n: u64, r: u32, h: u64) -> bool {
        check_partition(index, n, r);
        Window::new(index, n, r).contains(Self::segment_of(h, n))
    }

    /// The partition indices whose sieves accept hash `h`: the window of
    /// `min(r, n)` indices ending at `h`'s segment.
    /// [`Window::ascending`] lists them in the order a scan of
    /// `partition(0..n)` would find them.
    ///
    /// # Panics
    /// Panics if `n == 0` or `r == 0`.
    #[must_use]
    pub fn partition_owners(h: u64, n: u64, r: u32) -> Window {
        let segment = Self::segment_of(h, n);
        check_partition(segment, n, r);
        Window::ending_at(segment, n, r)
    }

    /// The normalised ranges.
    #[must_use]
    pub fn ranges(&self) -> &[(u64, u64)] {
        &self.ranges
    }

    /// Whether a raw hash is accepted (half-open; `u64::MAX` itself is
    /// treated as belonging to a range ending at `u64::MAX`).
    #[must_use]
    pub fn contains_hash(&self, h: u64) -> bool {
        self.ranges.iter().any(|&(s, e)| h >= s && (h < e || (e == u64::MAX && h == u64::MAX)))
    }
}

/// The preconditions of an `r`-fold partition member.
fn check_partition(index: u64, n: u64, r: u32) {
    assert!(n > 0, "population must be positive");
    assert!(r > 0, "replication degree must be positive");
    assert!(index < n, "node index out of range");
}

impl Sieve for RangeSieve {
    fn accepts(&self, item: &ItemMeta) -> bool {
        self.contains_hash(item.key_hash)
    }

    fn grain(&self) -> f64 {
        let covered: f64 = self.ranges.iter().map(|&(s, e)| (e - s) as f64).sum();
        covered / u64::MAX as f64
    }

    fn class_id(&self) -> u64 {
        let mut acc = fnv1a(b"range-sieve");
        for &(s, e) in &self.ranges {
            acc = mix(acc, mix(s, e));
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalisation_merges_and_sorts() {
        let s = RangeSieve::new(vec![(50, 60), (10, 20), (15, 30), (5, 5)]);
        assert_eq!(s.ranges(), &[(10, 30), (50, 60)]);
    }

    #[test]
    fn contains_hash_respects_half_open_bounds() {
        let s = RangeSieve::new(vec![(10, 20)]);
        assert!(!s.contains_hash(9));
        assert!(s.contains_hash(10));
        assert!(s.contains_hash(19));
        assert!(!s.contains_hash(20));
    }

    #[test]
    fn partition_covers_every_key_exactly_r_times() {
        let n = 16u64;
        let r = 3u32;
        let sieves: Vec<RangeSieve> = (0..n).map(|i| RangeSieve::partition(i, n, r)).collect();
        // Probe a grid of hashes plus the extremes.
        let mut probes: Vec<u64> =
            (0..10_000u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect();
        probes.push(0);
        probes.push(u64::MAX);
        for h in probes {
            let owners = sieves.iter().filter(|s| s.contains_hash(h)).count();
            assert_eq!(owners, r as usize, "hash {h} covered {owners} times");
        }
    }

    #[test]
    fn partition_r_capped_at_n() {
        let s = RangeSieve::partition(0, 2, 5);
        assert!((s.grain() - 1.0).abs() < 1e-9, "covering all segments covers everything");
    }

    #[test]
    fn grain_reflects_covered_fraction() {
        let n = 8u64;
        let s = RangeSieve::partition(3, n, 2);
        assert!((s.grain() - 0.25).abs() < 1e-3);
    }

    #[test]
    fn class_id_distinguishes_partitions() {
        let a = RangeSieve::partition(0, 8, 2);
        let b = RangeSieve::partition(1, 8, 2);
        let a2 = RangeSieve::partition(0, 8, 2);
        assert_eq!(a.class_id(), a2.class_id());
        assert_ne!(a.class_id(), b.class_id());
    }

    #[test]
    fn accepts_uses_key_hash() {
        let s = RangeSieve::new(vec![(0, u64::MAX)]);
        assert!(s.accepts(&ItemMeta::from_key(b"anything")));
        let none = RangeSieve::new(vec![]);
        assert!(!none.accepts(&ItemMeta::from_key(b"anything")));
        assert_eq!(none.grain(), 0.0);
    }

    #[test]
    #[should_panic(expected = "index")]
    fn out_of_range_index_panics() {
        let _ = RangeSieve::partition(8, 8, 1);
    }
}
