//! Synthetic workload generators for the experiments.
//!
//! The paper motivates three data shapes: uniformly keyed tuples, skewed
//! popularity ("item request popularity … avoid hotspots", §III-B-1),
//! normally distributed attributes (the distribution-aware sieve example),
//! and correlated tuples ("tuple correlation", §III-B-1) — the social-feed
//! workload of the authors' prior DataDroplets evaluation \[18\].

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Normal, Zipf};

/// One generated write.
#[derive(Debug, Clone, PartialEq)]
pub struct PutOp {
    /// Tuple key.
    pub key: String,
    /// Payload.
    pub value: Vec<u8>,
    /// Numeric attribute.
    pub attr: Option<f64>,
    /// Correlation tag.
    pub tag: Option<String>,
}

impl From<PutOp> for crate::tuple::TupleSpec {
    fn from(op: PutOp) -> Self {
        crate::tuple::TupleSpec::new(op.key, op.value, op.attr, op.tag.as_deref())
    }
}

/// One generated batched write (`mput`): the items, plus the tag they
/// share when the workload correlates them.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiPutOp {
    /// The batch's shared correlation tag (`None` for uncorrelated
    /// workloads, whose batches are just consecutive single writes).
    pub tag: Option<String>,
    /// The writes.
    pub items: Vec<PutOp>,
}

/// The supported workload shapes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorkloadKind {
    /// Distinct keys, no attribute, no tag.
    Uniform,
    /// Normally distributed attribute `N(mean, std_dev)`.
    NormalAttr {
        /// Mean of the attribute distribution.
        mean: f64,
        /// Standard deviation.
        std_dev: f64,
    },
    /// Zipf-popular keys (overwrites concentrate on few keys).
    ZipfKeys {
        /// Number of distinct keys.
        keys: u64,
        /// Zipf exponent (≈1 for web-like skew).
        exponent: f64,
    },
    /// Social-feed: each write belongs to one of `users` feeds (tag), with
    /// a timestamp-like attribute.
    SocialFeed {
        /// Number of distinct users/feeds.
        users: u64,
    },
}

impl WorkloadKind {
    /// Whether a [`Workload`] of this kind can generate without
    /// panicking; `Err` names the broken parameter. Degenerate values
    /// (`ZipfKeys { keys: 0, .. }`, `SocialFeed { users: 0 }`, a
    /// non-finite or negative deviation) would otherwise blow up inside
    /// the distribution constructors mid-run — the scenario plane
    /// rejects them up front ([`crate::Scenario::validate`]).
    pub fn validate(&self) -> Result<(), &'static str> {
        match *self {
            WorkloadKind::Uniform => Ok(()),
            WorkloadKind::NormalAttr { mean, std_dev } => {
                if !mean.is_finite() {
                    Err("NormalAttr mean must be finite")
                } else if !(std_dev.is_finite() && std_dev >= 0.0) {
                    Err("NormalAttr std_dev must be finite and non-negative")
                } else {
                    Ok(())
                }
            }
            WorkloadKind::ZipfKeys { keys, exponent } => {
                if keys == 0 {
                    Err("ZipfKeys needs at least one key")
                } else if !(exponent.is_finite() && exponent >= 0.0) {
                    Err("ZipfKeys exponent must be finite and non-negative")
                } else {
                    Ok(())
                }
            }
            WorkloadKind::SocialFeed { users } => {
                if users == 0 {
                    Err("SocialFeed needs at least one user")
                } else {
                    Ok(())
                }
            }
        }
    }
}

/// How many recently written keys a generator remembers for read traffic
/// whose key population is not derivable from a counter (social feeds).
const RECENT_KEYS: usize = 512;

/// A deterministic workload generator.
#[derive(Debug, Clone)]
pub struct Workload {
    kind: WorkloadKind,
    rng: SmallRng,
    counter: u64,
    /// Ring of recently generated keys (social-feed read traffic samples
    /// real posts; other kinds reconstruct keys from the counter).
    recent: Vec<String>,
    /// Next ring slot to overwrite once `recent` is full.
    recent_cursor: usize,
    /// The `ZipfKeys` distribution, whose O(keys) CDF is built on the
    /// first draw and reused (built lazily so an invalid kind still fails
    /// only when it generates).
    zipf: Option<Zipf>,
}

impl Workload {
    /// Creates a generator.
    #[must_use]
    pub fn new(kind: WorkloadKind, seed: u64) -> Self {
        Workload {
            kind,
            rng: SmallRng::seed_from_u64(seed),
            counter: 0,
            recent: Vec::new(),
            recent_cursor: 0,
            zipf: None,
        }
    }

    /// One Zipf-popular key index.
    fn zipf_key(&mut self, keys: u64, exponent: f64) -> u64 {
        let dist = self.zipf.get_or_insert_with(|| Zipf::new(keys, exponent).expect("valid zipf"));
        dist.sample(&mut self.rng) as u64
    }

    fn remember(&mut self, key: &str) {
        if !matches!(self.kind, WorkloadKind::SocialFeed { .. }) {
            return;
        }
        if self.recent.len() < RECENT_KEYS {
            self.recent.push(key.to_owned());
        } else {
            self.recent[self.recent_cursor] = key.to_owned();
            self.recent_cursor = (self.recent_cursor + 1) % RECENT_KEYS;
        }
    }

    /// Generates the next write.
    pub fn next_put(&mut self) -> PutOp {
        let op = self.generate_put();
        self.remember(&op.key);
        op
    }

    fn generate_put(&mut self) -> PutOp {
        self.counter += 1;
        let i = self.counter;
        match self.kind {
            WorkloadKind::Uniform => PutOp {
                key: format!("key:{i}"),
                value: i.to_le_bytes().to_vec(),
                attr: None,
                tag: None,
            },
            WorkloadKind::NormalAttr { mean, std_dev } => {
                let dist = Normal::new(mean, std_dev).expect("valid normal");
                PutOp {
                    key: format!("key:{i}"),
                    value: i.to_le_bytes().to_vec(),
                    attr: Some(dist.sample(&mut self.rng)),
                    tag: None,
                }
            }
            WorkloadKind::ZipfKeys { keys, exponent } => {
                let k = self.zipf_key(keys, exponent);
                PutOp {
                    key: format!("key:{k}"),
                    value: i.to_le_bytes().to_vec(),
                    attr: None,
                    tag: None,
                }
            }
            WorkloadKind::SocialFeed { users } => {
                let user = self.rng.gen_range(0..users);
                PutOp {
                    key: format!("post:{user}:{i}"),
                    value: format!("post body {i}").into_bytes(),
                    attr: Some(i as f64),
                    tag: Some(format!("feed:{user}")),
                }
            }
        }
    }

    /// Generates `n` writes.
    pub fn take_puts(&mut self, n: usize) -> Vec<PutOp> {
        (0..n).map(|_| self.next_put()).collect()
    }

    /// Generates the next batched write of `batch` items. For the
    /// social-feed shape this is a burst of posts to *one* feed — every
    /// item shares the feed's tag, the unit the `mput`/`mget` evaluation
    /// operates on. Other shapes batch consecutive independent writes.
    pub fn next_multi_put(&mut self, batch: usize) -> MultiPutOp {
        match self.kind {
            WorkloadKind::SocialFeed { users } => {
                let user = self.rng.gen_range(0..users);
                let tag = format!("feed:{user}");
                let items: Vec<PutOp> = (0..batch)
                    .map(|_| {
                        self.counter += 1;
                        let i = self.counter;
                        PutOp {
                            key: format!("post:{user}:{i}"),
                            value: format!("post body {i}").into_bytes(),
                            attr: Some(i as f64),
                            tag: Some(tag.clone()),
                        }
                    })
                    .collect();
                for op in &items {
                    self.remember(&op.key);
                }
                MultiPutOp { tag: Some(tag), items }
            }
            _ => MultiPutOp { tag: None, items: self.take_puts(batch) },
        }
    }

    /// A read key matching the workload's key population (for mixed
    /// read/write traffic). Social-feed reads sample recently written
    /// posts; the other kinds reconstruct keys from the write counter.
    pub fn next_read_key(&mut self) -> String {
        match self.kind {
            WorkloadKind::Uniform | WorkloadKind::NormalAttr { .. } => {
                let upper = self.counter.max(1);
                format!("key:{}", self.rng.gen_range(1..=upper))
            }
            WorkloadKind::ZipfKeys { keys, exponent } => {
                format!("key:{}", self.zipf_key(keys, exponent))
            }
            WorkloadKind::SocialFeed { .. } => {
                if self.recent.is_empty() {
                    // Nothing written yet: a well-formed key that reads as
                    // absent, so pure-read phases stay runnable.
                    "post:0:0".to_owned()
                } else {
                    let slot = self.rng.gen_range(0..self.recent.len());
                    self.recent[slot].clone()
                }
            }
        }
    }

    /// A tag matching the workload's correlation population (the target
    /// of a `multi_get`). Untagged workloads produce a tag that reads as
    /// an empty feed.
    pub fn next_read_tag(&mut self) -> String {
        match self.kind {
            WorkloadKind::SocialFeed { users } => {
                format!("feed:{}", self.rng.gen_range(0..users))
            }
            _ => "feed:untagged".to_owned(),
        }
    }

    /// An attribute range `[lo, hi]` matching the workload's attribute
    /// population (the argument of a range scan). Attribute-free kinds
    /// scan a degenerate empty range.
    pub fn next_scan_range(&mut self) -> (f64, f64) {
        match self.kind {
            WorkloadKind::NormalAttr { mean, std_dev } => {
                let centre = mean + std_dev * (self.rng.gen_range(-10i32..=10) as f64 / 10.0);
                (centre - std_dev / 2.0, centre + std_dev / 2.0)
            }
            WorkloadKind::SocialFeed { .. } => {
                // Post attributes are the write counter: a recent window.
                let hi = self.counter as f64;
                ((hi - 20.0).max(0.0), hi)
            }
            WorkloadKind::Uniform | WorkloadKind::ZipfKeys { .. } => (0.0, 0.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn uniform_keys_are_distinct() {
        let mut w = Workload::new(WorkloadKind::Uniform, 1);
        let ops = w.take_puts(100);
        let keys: std::collections::HashSet<&String> = ops.iter().map(|o| &o.key).collect();
        assert_eq!(keys.len(), 100);
        assert!(ops.iter().all(|o| o.attr.is_none() && o.tag.is_none()));
    }

    #[test]
    fn generator_is_deterministic() {
        let a = Workload::new(WorkloadKind::SocialFeed { users: 10 }, 7).take_puts(50);
        let b = Workload::new(WorkloadKind::SocialFeed { users: 10 }, 7).take_puts(50);
        assert_eq!(a, b);
    }

    #[test]
    fn normal_attrs_cluster_around_the_mean() {
        let mut w = Workload::new(WorkloadKind::NormalAttr { mean: 100.0, std_dev: 10.0 }, 2);
        let ops = w.take_puts(5_000);
        let mean: f64 = ops.iter().filter_map(|o| o.attr).sum::<f64>() / ops.len() as f64;
        assert!((mean - 100.0).abs() < 1.0, "sample mean {mean}");
    }

    #[test]
    fn zipf_keys_are_skewed() {
        let mut w = Workload::new(WorkloadKind::ZipfKeys { keys: 100, exponent: 1.1 }, 3);
        let ops = w.take_puts(5_000);
        let mut counts: HashMap<&String, u32> = HashMap::new();
        for o in &ops {
            *counts.entry(&o.key).or_insert(0) += 1;
        }
        let max = counts.values().max().copied().unwrap_or(0);
        assert!(max > 500, "hottest key should dominate, got {max}");
    }

    #[test]
    fn cached_zipf_draws_match_a_fresh_distribution_per_draw() {
        let (keys, exponent) = (50, 0.9);
        let mut w = Workload::new(WorkloadKind::ZipfKeys { keys, exponent }, 8);
        let mut rng = SmallRng::seed_from_u64(8);
        for i in 0..200 {
            let fresh = Zipf::new(keys, exponent).expect("valid zipf").sample(&mut rng) as u64;
            let key = if i % 3 == 0 { w.next_read_key() } else { w.next_put().key };
            assert_eq!(key, format!("key:{fresh}"), "draw {i}");
        }
    }

    #[test]
    fn social_feed_tags_group_posts() {
        let mut w = Workload::new(WorkloadKind::SocialFeed { users: 5 }, 4);
        let ops = w.take_puts(200);
        let tags: std::collections::HashSet<&String> =
            ops.iter().filter_map(|o| o.tag.as_ref()).collect();
        assert!(tags.len() <= 5);
        assert!(ops.iter().all(|o| o.tag.is_some() && o.attr.is_some()));
    }

    #[test]
    fn social_feed_batches_share_one_tag() {
        let mut w = Workload::new(WorkloadKind::SocialFeed { users: 6 }, 11);
        for _ in 0..20 {
            let m = w.next_multi_put(5);
            let tag = m.tag.as_ref().expect("social batches are tagged");
            assert_eq!(m.items.len(), 5);
            assert!(m.items.iter().all(|op| op.tag.as_ref() == Some(tag)));
            let keys: std::collections::HashSet<&String> =
                m.items.iter().map(|op| &op.key).collect();
            assert_eq!(keys.len(), 5, "batch keys are distinct");
        }
    }

    #[test]
    fn uncorrelated_batches_are_plain_writes() {
        let mut w = Workload::new(WorkloadKind::Uniform, 12);
        let m = w.next_multi_put(4);
        assert_eq!(m.tag, None);
        assert_eq!(m.items.len(), 4);
        assert!(m.items.iter().all(|op| op.tag.is_none()));
    }

    #[test]
    fn social_feed_reads_sample_written_posts() {
        let mut w = Workload::new(WorkloadKind::SocialFeed { users: 4 }, 9);
        assert_eq!(w.next_read_key(), "post:0:0", "reads before writes are well-formed");
        let written: std::collections::HashSet<String> =
            w.take_puts(50).into_iter().map(|o| o.key).collect();
        for _ in 0..30 {
            let k = w.next_read_key();
            assert!(written.contains(&k), "read key {k} was written");
        }
    }

    #[test]
    fn full_recent_ring_keeps_every_item_of_a_batch() {
        let mut w = Workload::new(WorkloadKind::SocialFeed { users: 2 }, 14);
        // Fill the ring, then write one more batch: each of its items
        // must land in its own slot (not all in one), so batch-written
        // posts stay sampleable.
        let _ = w.take_puts(RECENT_KEYS);
        assert_eq!(w.recent.len(), RECENT_KEYS);
        let batch = w.next_multi_put(8);
        for op in &batch.items {
            assert!(w.recent.contains(&op.key), "batch key {} sampleable", op.key);
        }
    }

    #[test]
    fn read_tags_stay_in_feed_population() {
        let mut w = Workload::new(WorkloadKind::SocialFeed { users: 3 }, 10);
        for _ in 0..20 {
            let t = w.next_read_tag();
            let u: u64 = t.strip_prefix("feed:").unwrap().parse().unwrap();
            assert!(u < 3);
        }
        let mut u = Workload::new(WorkloadKind::Uniform, 10);
        assert_eq!(u.next_read_tag(), "feed:untagged");
    }

    #[test]
    fn scan_ranges_match_attribute_population() {
        let mut w = Workload::new(WorkloadKind::NormalAttr { mean: 100.0, std_dev: 10.0 }, 11);
        for _ in 0..20 {
            let (lo, hi) = w.next_scan_range();
            assert!(lo < hi && lo > 50.0 && hi < 150.0, "range [{lo}, {hi}] near the mean");
        }
        let mut u = Workload::new(WorkloadKind::Uniform, 11);
        assert_eq!(u.next_scan_range(), (0.0, 0.0), "attribute-free kinds scan nothing");
    }

    #[test]
    fn read_keys_stay_in_population() {
        let mut w = Workload::new(WorkloadKind::Uniform, 5);
        let _ = w.take_puts(10);
        for _ in 0..20 {
            let k = w.next_read_key();
            let n: u64 = k.strip_prefix("key:").unwrap().parse().unwrap();
            assert!((1..=10).contains(&n));
        }
    }
}
