//! Distribution-aware sieves over a value domain.
//!
//! §III-B-1: *"knowing that the stored data follows a given distribution
//! enables the construction of effective sieves that achieve both precise
//! item collocation and load balancing. For instance, if data follows a
//! normal distribution, sieves located near the mean ± standard deviation
//! need to be much finer than sieves outside that region due to the higher
//! item density."*
//!
//! A [`HistogramSieve`] owns `r` of `B` *equi-depth* buckets of the
//! attribute domain: bucket edges come from an estimated distribution (the
//! gossip estimator in `dd-estimation`), so every bucket holds ≈ the same
//! number of items regardless of skew — fine buckets where density is high,
//! coarse where it is low, exactly the paper's prescription. E8 compares
//! its load balance against attribute-range sieves with uniform edges.

use crate::{ItemMeta, Sieve, UniformSieve, Window};
use dd_sim::rng::mix;

/// Sieve accepting items whose attribute falls into one of this node's
/// buckets of an equi-depth histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSieve {
    /// Interior bucket edges, ascending: bucket `i` is
    /// `[edges[i-1], edges[i])` with virtual −∞/+∞ at the ends. For `B`
    /// buckets there are `B − 1` edges.
    edges: Vec<f64>,
    /// Buckets owned by this node.
    buckets: Vec<usize>,
    /// Fallback for items with no attribute.
    fallback: UniformSieve,
}

impl HistogramSieve {
    /// Creates a sieve owning `r` consecutive buckets starting at
    /// `index` (mod `B`, where `B = edges.len() + 1`), mirroring the
    /// successor replication of [`crate::RangeSieve::partition`] but in the
    /// *value* domain. Items without the attribute use an `r/B` uniform
    /// fallback.
    ///
    /// # Panics
    /// Panics if `edges` is empty, not sorted, contains NaN, or
    /// `index >= B`, or `r == 0`.
    #[must_use]
    pub fn new(edges: Vec<f64>, index: usize, r: u32) -> Self {
        let b = check(&edges, index, r);
        let buckets: Vec<usize> = (0..usize::try_from(r).expect("r fits usize").min(b))
            .map(|k| (index + k) % b)
            .collect();
        HistogramSieve { edges, buckets, fallback: fallback(index, r, b) }
    }

    /// Closed form of `HistogramSieve::new(edges.to_vec(), index, r)
    /// .accepts(item)` over borrowed edges: the item's bucket must lie in
    /// the window of `min(r, B)` buckets starting at `index`. Validates
    /// the edges like [`HistogramSieve::new`] but allocates nothing.
    ///
    /// # Panics
    /// Panics where [`HistogramSieve::new`] does.
    #[must_use]
    pub fn accepts_in(edges: &[f64], index: usize, r: u32, item: &ItemMeta) -> bool {
        let b = check(edges, index, r);
        match item.attr {
            Some(a) => {
                let bucket = edges.partition_point(|&e| e <= a);
                Window::new(index as u64, b as u64, r).contains(bucket as u64)
            }
            None => fallback(index, r, b).accepts(item),
        }
    }

    /// Number of buckets `B`.
    #[must_use]
    pub fn bucket_count(&self) -> usize {
        self.edges.len() + 1
    }

    /// Buckets owned by this node.
    #[must_use]
    pub fn owned_buckets(&self) -> &[usize] {
        &self.buckets
    }

    /// The bucket an attribute value falls in (`0..B`).
    #[must_use]
    pub fn bucket_of(&self, attr: f64) -> usize {
        self.edges.partition_point(|&e| e <= attr)
    }
}

/// Validates a histogram sieve's parameters; returns the bucket count.
fn check(edges: &[f64], index: usize, r: u32) -> usize {
    assert!(!edges.is_empty(), "need at least one bucket edge");
    assert!(edges.iter().all(|e| e.is_finite()), "edges must be finite");
    assert!(edges.windows(2).all(|w| w[0] <= w[1]), "edges must be sorted ascending");
    let b = edges.len() + 1;
    assert!(index < b, "bucket index out of range");
    assert!(r > 0, "replication degree must be positive");
    b
}

/// The `r/B` uniform fallback for attribute-less items.
fn fallback(index: usize, r: u32, b: usize) -> UniformSieve {
    UniformSieve::replication(index as u64 ^ 0x41B0, r, b as u64)
}

impl Sieve for HistogramSieve {
    fn accepts(&self, item: &ItemMeta) -> bool {
        match item.attr {
            Some(a) => self.buckets.contains(&self.bucket_of(a)),
            None => self.fallback.accepts(item),
        }
    }

    fn grain(&self) -> f64 {
        self.buckets.len() as f64 / self.bucket_count() as f64
    }

    fn class_id(&self) -> u64 {
        let mut acc = mix(0x41B0_u64, self.bucket_count() as u64);
        for &b in &self.buckets {
            acc = mix(acc, b as u64);
        }
        acc
    }
}

/// Builds equi-depth bucket edges (`B − 1` of them for `B` buckets) from a
/// sample of attribute values — the "estimated distribution" input the
/// paper expects from the epidemic estimation protocols.
///
/// # Panics
/// Panics if `buckets < 2` or the sample is empty.
#[must_use]
pub fn equi_depth_edges(sample: &[f64], buckets: usize) -> Vec<f64> {
    assert!(buckets >= 2, "need at least two buckets");
    assert!(!sample.is_empty(), "sample must be non-empty");
    let mut sorted: Vec<f64> = sample.iter().copied().filter(|v| v.is_finite()).collect();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    (1..buckets)
        .map(|k| {
            let idx = (k * n / buckets).min(n - 1);
            sorted[idx]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use rand_distr::{Distribution, Normal};

    fn normal_sample(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let dist = Normal::new(100.0, 15.0).unwrap();
        (0..n).map(|_| dist.sample(&mut rng)).collect()
    }

    #[test]
    fn equi_depth_edges_are_finer_near_the_mean() {
        // The paper's own example: normal data ⇒ finer sieves near µ ± σ.
        let sample = normal_sample(50_000, 1);
        let edges = equi_depth_edges(&sample, 16);
        assert_eq!(edges.len(), 15);
        // Central bucket width (around the median edge) must be much
        // narrower than the outermost bucket widths.
        let central = edges[8] - edges[7];
        let tail = edges[1] - edges[0];
        assert!(central < tail, "central {central} vs tail {tail}");
    }

    #[test]
    fn edges_are_sorted() {
        let edges = equi_depth_edges(&normal_sample(10_000, 2), 32);
        assert!(edges.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn bucket_of_partitions_the_line() {
        let s = HistogramSieve::new(vec![10.0, 20.0, 30.0], 0, 1);
        assert_eq!(s.bucket_count(), 4);
        assert_eq!(s.bucket_of(5.0), 0);
        assert_eq!(s.bucket_of(10.0), 1, "edges belong to the right bucket");
        assert_eq!(s.bucket_of(15.0), 1);
        assert_eq!(s.bucket_of(25.0), 2);
        assert_eq!(s.bucket_of(35.0), 3);
    }

    #[test]
    fn equal_load_across_nodes_on_skewed_data() {
        // B nodes, one equi-depth bucket each (r = 1): every node should
        // hold ≈ the same number of items despite heavy skew.
        let sample = normal_sample(40_000, 3);
        let b = 20usize;
        let edges = equi_depth_edges(&sample, b);
        let sieves: Vec<HistogramSieve> =
            (0..b).map(|i| HistogramSieve::new(edges.clone(), i, 1)).collect();
        let fresh = normal_sample(20_000, 4);
        let mut load = vec![0u32; b];
        for v in &fresh {
            let item = ItemMeta::from_key(b"x").with_attr(*v);
            for (i, s) in sieves.iter().enumerate() {
                if s.accepts(&item) {
                    load[i] += 1;
                }
            }
        }
        let mean = load.iter().sum::<u32>() as f64 / b as f64;
        let max = f64::from(*load.iter().max().unwrap());
        assert!(max / mean < 1.35, "equi-depth load imbalance: max/mean {}", max / mean);
    }

    #[test]
    fn every_attr_value_is_covered_r_times() {
        let edges = equi_depth_edges(&normal_sample(10_000, 5), 10);
        let r = 3u32;
        let sieves: Vec<HistogramSieve> =
            (0..10).map(|i| HistogramSieve::new(edges.clone(), i, r)).collect();
        for v in [-1e9, 0.0, 85.0, 100.0, 115.0, 1e9] {
            let item = ItemMeta::from_key(b"probe").with_attr(v);
            let owners = sieves.iter().filter(|s| s.accepts(&item)).count();
            assert_eq!(owners, r as usize, "value {v}");
        }
    }

    #[test]
    fn attributeless_items_use_fallback() {
        let edges = vec![0.0, 1.0];
        let sieves: Vec<HistogramSieve> =
            (0..3).map(|i| HistogramSieve::new(edges.clone(), i, 1)).collect();
        let mut total = 0usize;
        let samples = 3_000;
        for i in 0..samples {
            let item = ItemMeta::from_key(format!("na-{i}").as_bytes());
            total += sieves.iter().filter(|s| s.accepts(&item)).count();
        }
        let mean = total as f64 / samples as f64;
        assert!((mean - 1.0).abs() < 0.3, "fallback mean replicas {mean}");
    }

    #[test]
    fn class_id_groups_equal_bucket_sets() {
        let e = vec![1.0, 2.0];
        assert_eq!(
            HistogramSieve::new(e.clone(), 1, 1).class_id(),
            HistogramSieve::new(e.clone(), 1, 1).class_id()
        );
        assert_ne!(
            HistogramSieve::new(e.clone(), 1, 1).class_id(),
            HistogramSieve::new(e, 2, 1).class_id()
        );
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_edges_panic() {
        let _ = HistogramSieve::new(vec![2.0, 1.0], 0, 1);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_sample_panics() {
        let _ = equi_depth_edges(&[], 4);
    }
}
