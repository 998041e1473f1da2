//! Wire-format sieve descriptions and the coordinator's placement view.
//!
//! Repair peers must evaluate *each other's* sieves ("nodes responsible to
//! the same key space … check tuple redundancy directly between them",
//! §III-A), so a node's sieve must be expressible as plain data. A
//! [`SieveSpec`] is that serialisable form. It evaluates in closed form
//! through `dd-sieve`'s placement arithmetic ([`dd_sieve::Window`]),
//! allocating nothing, and panics on the same invalid parameters as the
//! concrete sieve types, which stay as the test reference.
//!
//! A sieve is a pure function of the key hash and the placement, so a
//! coordinator names a write's owners arithmetically: [`PlacementView`]
//! is the one description of which sieve every persist node runs, and it
//! answers "who stores this tuple" without holding any per-node sieve.

use crate::cluster::Placement;
use dd_sieve::{HistogramSieve, ItemMeta, RangeSieve, Sieve, TagSieve, UniformSieve};
use dd_sim::NodeId;

/// A sieve as shippable data.
#[derive(Debug, Clone, PartialEq)]
pub enum SieveSpec {
    /// `r`-fold key-range partition: this node is segment `index` of `of`.
    Range {
        /// Segment index.
        index: u64,
        /// Number of segments.
        of: u64,
        /// Replication degree.
        r: u32,
    },
    /// Uniform `r/n` acceptance with a per-node salt.
    Uniform {
        /// Node salt.
        salt: u64,
        /// Replication degree.
        r: u32,
        /// Population estimate.
        n: u64,
    },
    /// Tag collocation over `slots` slots (untagged items fall back to
    /// uniform `r/slots`).
    Tag {
        /// This node's slot.
        slot: u64,
        /// Total slots.
        slots: u64,
        /// Replication degree.
        r: u32,
    },
    /// Distribution-aware: equi-depth bucket ownership in the value domain.
    Histogram {
        /// Interior bucket edges (ascending).
        edges: Vec<f64>,
        /// Starting bucket index.
        index: usize,
        /// Replication degree (consecutive buckets).
        r: u32,
    },
}

impl SieveSpec {
    /// Whether this sieve retains `item`, in closed form.
    ///
    /// # Panics
    /// Panics on an invalid spec, exactly where constructing the concrete
    /// sieve would: `of == 0`, `slots == 0`, `n == 0`, `r == 0`,
    /// `index >= of`, `slot >= slots`, or malformed histogram edges.
    #[must_use]
    pub fn accepts(&self, item: &ItemMeta) -> bool {
        match self {
            SieveSpec::Range { index, of, r } => {
                RangeSieve::partition_contains(*index, *of, *r, item.key_hash)
            }
            SieveSpec::Uniform { salt, r, n } => {
                UniformSieve::replication(*salt, *r, *n).accepts(item)
            }
            SieveSpec::Tag { slot, slots, r } => TagSieve::new(*slot, *slots, *r).accepts(item),
            SieveSpec::Histogram { edges, index, r } => {
                HistogramSieve::accepts_in(edges, *index, *r, item)
            }
        }
    }

    /// The sieve-class id (same semantics as
    /// [`dd_sieve::Sieve::class_id`]): nodes with equal class cover the
    /// same key-space portion and pair up for repair.
    #[must_use]
    pub fn class_id(&self) -> u64 {
        match self {
            SieveSpec::Range { index, of, r } => RangeSieve::partition(*index, *of, *r).class_id(),
            SieveSpec::Uniform { salt, r, n } => {
                UniformSieve::replication(*salt, *r, *n).class_id()
            }
            SieveSpec::Tag { slot, slots, r } => TagSieve::new(*slot, *slots, *r).class_id(),
            SieveSpec::Histogram { edges, index, r } => {
                HistogramSieve::new(edges.clone(), *index, *r).class_id()
            }
        }
    }

    /// Expected fraction of the key space retained.
    #[must_use]
    pub fn grain(&self) -> f64 {
        match self {
            SieveSpec::Range { index, of, r } => RangeSieve::partition(*index, *of, *r).grain(),
            SieveSpec::Uniform { salt, r, n } => UniformSieve::replication(*salt, *r, *n).grain(),
            SieveSpec::Tag { slot, slots, r } => TagSieve::new(*slot, *slots, *r).grain(),
            SieveSpec::Histogram { edges, index, r } => {
                HistogramSieve::new(edges.clone(), *index, *r).grain()
            }
        }
    }

    /// The default persistent-layer assignment: node `i` of `n` covers
    /// range segment `i` with replication `r` — the paper's "responsible
    /// for a given portion of the key space".
    #[must_use]
    pub fn default_for(i: u64, n: u64, r: u32) -> SieveSpec {
        SieveSpec::Range { index: i, of: n, r }
    }
}

/// The coordinator's placement view: which sieve each persist node runs
/// under the cluster's [`Placement`], and which nodes therefore store a
/// given tuple. Built once from the placement, the persist population and
/// the replication degree; persist node `i` (of `n`) runs
/// [`PlacementView::spec`]`(i, id)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlacementView {
    placement: Placement,
    n: u64,
    r: u32,
}

impl PlacementView {
    /// The view of `n` persist nodes placed by `placement` with
    /// replication `r`.
    ///
    /// # Panics
    /// Panics if `n == 0` or `r == 0`.
    #[must_use]
    pub fn new(placement: Placement, n: u64, r: u32) -> Self {
        assert!(n > 0, "population must be positive");
        assert!(r > 0, "replication degree must be positive");
        PlacementView { placement, n, r }
    }

    /// Number of persist nodes the view places.
    #[must_use]
    pub fn population(&self) -> u64 {
        self.n
    }

    /// The sieve persist node `index` (node id `id`) runs.
    #[must_use]
    pub fn spec(&self, index: u64, id: NodeId) -> SieveSpec {
        let (n, r) = (self.n, self.r);
        match self.placement {
            Placement::RangePartition => SieveSpec::default_for(index, n, r),
            Placement::Uniform => SieveSpec::Uniform { salt: id.0, r, n },
            Placement::TagCollocation => SieveSpec::Tag { slot: index, slots: n, r },
        }
    }

    /// The persist nodes whose sieves accept `item`, in ascending persist
    /// order (`peers[i]` runs `spec(i, peers[i])`). O(r) for range
    /// placement and for tagged items under tag placement; uniform
    /// acceptance and the untagged tag fallback have no closed form, so
    /// those evaluate every node's spec.
    ///
    /// # Panics
    /// Panics if `peers` does not hold exactly one node per placement
    /// index.
    #[must_use]
    pub fn owners(&self, item: &ItemMeta, peers: &[NodeId]) -> Vec<NodeId> {
        assert_eq!(peers.len() as u64, self.n, "one persist peer per placement index");
        let window = match (self.placement, item.tag_hash) {
            (Placement::RangePartition, _) => {
                RangeSieve::partition_owners(item.key_hash, self.n, self.r)
            }
            (Placement::TagCollocation, Some(tag)) => TagSieve::tag_window(tag, self.n, self.r),
            (Placement::Uniform, _) | (Placement::TagCollocation, None) => {
                return peers
                    .iter()
                    .zip(0..)
                    .filter(|&(&id, i)| self.spec(i, id).accepts(item))
                    .map(|(&id, _)| id)
                    .collect();
            }
        };
        window.ascending().map(|i| peers[i as usize]).collect()
    }

    /// The persist nodes a tag-scoped read must contact: the tag's slot
    /// owners (home slot first) under tag placement, every node otherwise.
    ///
    /// # Panics
    /// Panics if `peers` does not hold exactly one node per placement
    /// index.
    #[must_use]
    pub fn tag_targets(&self, tag_hash: u64, peers: &[NodeId]) -> Vec<NodeId> {
        assert_eq!(peers.len() as u64, self.n, "one persist peer per placement index");
        match self.placement {
            Placement::TagCollocation => TagSieve::tag_window(tag_hash, self.n, self.r)
                .ring_order()
                .map(|slot| peers[slot as usize])
                .collect(),
            Placement::RangePartition | Placement::Uniform => peers.to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(key: &str) -> ItemMeta {
        ItemMeta::from_key(key.as_bytes())
    }

    /// Populations the closed forms are checked over.
    const POPULATIONS: [u64; 7] = [1, 2, 3, 7, 16, 128, 2000];

    /// Replication degrees checked at population `n`: 1, 2, 3, 5 and one
    /// degree above `n`.
    fn degrees(n: u64) -> [u32; 5] {
        [1, 2, 3, 5, u32::try_from(n + 1).expect("small population")]
    }

    /// Every segment boundary of an `n`-way partition ±1, plus 0 and
    /// `u64::MAX`, ascending. When checking one probe costs `width` node
    /// evaluations and that exceeds 128, every 32nd probe.
    fn boundary_probes(n: u64, width: u64) -> Vec<u64> {
        let seg = u64::MAX / n;
        let mut probes = vec![0, u64::MAX];
        for s in 1..=n {
            let b = s * seg;
            probes.extend([b - 1, b, b.saturating_add(1)]);
        }
        probes.sort_unstable();
        probes.dedup();
        if width > 128 {
            probes = probes.into_iter().step_by(32).collect();
        }
        probes
    }

    /// The untagged and the tagged item for probe `h`.
    fn probe_items(h: u64) -> [ItemMeta; 2] {
        let untagged = ItemMeta::from_key_hash(h);
        [untagged, ItemMeta { tag_hash: Some(h.rotate_left(29) ^ 0x7A65), ..untagged }]
    }

    /// Persist peers whose node ids equal their placement index.
    fn peers(n: u64) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    /// The placement indices `view` names as `item`'s owners.
    fn view_owners(view: &PlacementView, item: &ItemMeta, peers: &[NodeId]) -> Vec<u64> {
        view.owners(item, peers).iter().map(|p| p.0).collect()
    }

    /// Asserts that `spec_of(i).accepts(item)` holds exactly for the nodes
    /// in `owners` (ascending). Every node is checked up to 128 nodes;
    /// above that, both ends of each run of consecutive owners and the
    /// nodes just outside it.
    fn assert_accepted_by(
        n: u64,
        owners: &[u64],
        item: &ItemMeta,
        spec_of: impl Fn(u64) -> SieveSpec,
    ) {
        let check = |i: u64| {
            let owner = owners.binary_search(&i).is_ok();
            assert_eq!(spec_of(i).accepts(item), owner, "n {n} node {i} item {item:?}");
        };
        if n <= 128 {
            (0..n).for_each(check);
        } else {
            for (k, &o) in owners.iter().enumerate() {
                let starts_run = k == 0 || owners[k - 1] + 1 != o;
                let ends_run = k + 1 == owners.len() || owners[k + 1] != o + 1;
                if starts_run || ends_run {
                    [(o + n - 1) % n, o, (o + 1) % n].into_iter().for_each(check);
                }
            }
        }
    }

    /// For each (ascending) probe, the concrete partition sieves that
    /// accept it, found by locating every sieve's ranges among the probes.
    fn concrete_range_owners(n: u64, r: u32, probes: &[u64]) -> Vec<Vec<u64>> {
        let mut owners = vec![Vec::new(); probes.len()];
        for i in 0..n {
            let sieve = RangeSieve::partition(i, n, r);
            for &(start, end) in sieve.ranges() {
                let from = probes.partition_point(|&p| p < start);
                let to = probes.partition_point(|&p| p <= end);
                for (&p, o) in probes[from..to].iter().zip(&mut owners[from..to]) {
                    if sieve.contains_hash(p) && o.last() != Some(&i) {
                        o.push(i);
                    }
                }
            }
        }
        owners
    }

    #[test]
    fn range_closed_form_matches_concrete_partition() {
        for n in POPULATIONS {
            let peers = peers(n);
            for r in degrees(n) {
                let probes = boundary_probes(n, u64::from(r).min(n));
                let view = PlacementView::new(Placement::RangePartition, n, r);
                let reference = concrete_range_owners(n, r, &probes);
                for (&h, expected) in probes.iter().zip(&reference) {
                    assert_eq!(expected.len() as u64, u64::from(r).min(n), "{n} {r} {h}");
                    for it in probe_items(h) {
                        assert_eq!(&view_owners(&view, &it, &peers), expected, "{n} {r} {h}");
                        assert_accepted_by(n, expected, &it, |i| SieveSpec::Range {
                            index: i,
                            of: n,
                            r,
                        });
                    }
                }
            }
        }
    }

    #[test]
    fn tag_closed_form_matches_concrete_sieve() {
        for n in POPULATIONS {
            let peers = peers(n);
            let spec_of = |r| move |i| SieveSpec::Tag { slot: i, slots: n, r };
            for r in degrees(n) {
                let view = PlacementView::new(Placement::TagCollocation, n, r);
                for h in boundary_probes(n, u64::from(r).min(n)) {
                    let [_, tagged] = probe_items(h);
                    let tag = tagged.tag_hash.expect("tagged");
                    // The successor list spelled out: home, home + 1, … (mod n).
                    let home = dd_sim::rng::mix(tag, 0x7A6) % n;
                    let mut expected: Vec<u64> =
                        (0..u64::from(r).min(n)).map(|k| (home + k) % n).collect();
                    let targets = view.tag_targets(tag, &peers);
                    assert_eq!(targets.iter().map(|p| p.0).collect::<Vec<_>>(), expected);
                    expected.sort_unstable();
                    assert_eq!(view_owners(&view, &tagged, &peers), expected, "{n} {r} {h}");
                    assert_accepted_by(n, &expected, &tagged, spec_of(r));
                }
                // Untagged items use each slot's uniform fallback, which has
                // no closed form: the reference scans every slot.
                for h in boundary_probes(n, n) {
                    let [untagged, _] = probe_items(h);
                    let expected: Vec<u64> =
                        (0..n).filter(|&i| TagSieve::new(i, n, r).accepts(&untagged)).collect();
                    assert_eq!(view_owners(&view, &untagged, &peers), expected, "{n} {r} {h}");
                    assert_accepted_by(n, &expected, &untagged, spec_of(r));
                }
            }
        }
    }

    #[test]
    fn uniform_closed_form_matches_concrete_sieve() {
        for n in POPULATIONS {
            let peers = peers(n);
            for r in degrees(n) {
                let view = PlacementView::new(Placement::Uniform, n, r);
                // No closed form: the reference scans every node.
                for h in boundary_probes(n, n) {
                    for it in probe_items(h) {
                        let expected: Vec<u64> = (0..n)
                            .filter(|&i| UniformSieve::replication(i, r, n).accepts(&it))
                            .collect();
                        assert_eq!(view_owners(&view, &it, &peers), expected, "{n} {r} {h}");
                        assert_accepted_by(n, &expected, &it, |i| SieveSpec::Uniform {
                            salt: i,
                            r,
                            n,
                        });
                    }
                }
            }
        }
    }

    #[test]
    fn histogram_closed_form_matches_concrete_sieve() {
        // A histogram spec validates its edges on every evaluation (O(B)),
        // so the bucket counts stop at 128.
        for b in POPULATIONS.into_iter().filter(|&b| (2..=128).contains(&b)) {
            // Integer edges; attributes on each edge and one either side.
            let edges: Vec<f64> = (1..b).map(|e| (e * 10) as f64).collect();
            let attrs = edges.iter().flat_map(|&e| [e - 1.0, e, e + 1.0]);
            let with_attr = attrs.map(|a| ItemMeta::from_key_hash(7).with_attr(a));
            let plain = [0, 1 << 63, u64::MAX].into_iter().flat_map(probe_items);
            let items: Vec<ItemMeta> = with_attr.chain(plain).collect();
            for r in degrees(b) {
                for index in 0..b as usize {
                    let concrete = HistogramSieve::new(edges.clone(), index, r);
                    let spec = SieveSpec::Histogram { edges: edges.clone(), index, r };
                    for it in &items {
                        assert_eq!(spec.accepts(it), concrete.accepts(it), "{b} {r} {index}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "population must be positive")]
    fn range_spec_over_no_segments_panics() {
        let _ = SieveSpec::Range { index: 0, of: 0, r: 1 }.accepts(&item("k"));
    }

    #[test]
    #[should_panic(expected = "replication degree must be positive")]
    fn range_spec_without_replication_panics() {
        let _ = SieveSpec::Range { index: 0, of: 4, r: 0 }.accepts(&item("k"));
    }

    #[test]
    #[should_panic(expected = "node index out of range")]
    fn range_spec_index_outside_partition_panics() {
        let _ = SieveSpec::Range { index: 4, of: 4, r: 1 }.accepts(&item("k"));
    }

    #[test]
    #[should_panic(expected = "slot count must be positive")]
    fn tag_spec_over_no_slots_panics() {
        let _ = SieveSpec::Tag { slot: 0, slots: 0, r: 1 }.accepts(&item("k"));
    }

    #[test]
    #[should_panic(expected = "replication degree must be positive")]
    fn tag_spec_without_replication_panics() {
        let _ = SieveSpec::Tag { slot: 0, slots: 4, r: 0 }.accepts(&item("k"));
    }

    #[test]
    #[should_panic(expected = "slot out of range")]
    fn tag_spec_slot_outside_population_panics() {
        let _ = SieveSpec::Tag { slot: 4, slots: 4, r: 1 }.accepts(&item("k"));
    }

    #[test]
    fn range_spec_matches_concrete_sieve() {
        let spec = SieveSpec::Range { index: 2, of: 8, r: 3 };
        let concrete = RangeSieve::partition(2, 8, 3);
        for k in 0..200 {
            let it = item(&format!("k{k}"));
            assert_eq!(spec.accepts(&it), concrete.accepts(&it));
        }
        assert_eq!(spec.class_id(), concrete.class_id());
        assert!((spec.grain() - concrete.grain()).abs() < 1e-12);
    }

    #[test]
    fn uniform_spec_matches_concrete_sieve() {
        let spec = SieveSpec::Uniform { salt: 9, r: 4, n: 100 };
        let concrete = UniformSieve::replication(9, 4, 100);
        for k in 0..200 {
            let it = item(&format!("u{k}"));
            assert_eq!(spec.accepts(&it), concrete.accepts(&it));
        }
    }

    #[test]
    fn default_population_covers_key_space_r_times() {
        let n = 10u64;
        let r = 3u32;
        let specs: Vec<SieveSpec> = (0..n).map(|i| SieveSpec::default_for(i, n, r)).collect();
        for k in 0..500 {
            let it = item(&format!("cover{k}"));
            let owners = specs.iter().filter(|s| s.accepts(&it)).count();
            assert_eq!(owners, r as usize);
        }
    }

    #[test]
    fn same_range_specs_share_class() {
        let a = SieveSpec::Range { index: 1, of: 4, r: 2 };
        let b = SieveSpec::Range { index: 1, of: 4, r: 2 };
        let c = SieveSpec::Range { index: 2, of: 4, r: 2 };
        assert_eq!(a.class_id(), b.class_id());
        assert_ne!(a.class_id(), c.class_id());
    }

    #[test]
    fn histogram_spec_accepts_by_attr() {
        let spec = SieveSpec::Histogram { edges: vec![10.0, 20.0], index: 1, r: 1 };
        let mid = ItemMeta::from_key(b"m").with_attr(15.0);
        let low = ItemMeta::from_key(b"l").with_attr(5.0);
        assert!(spec.accepts(&mid));
        assert!(!spec.accepts(&low));
    }

    #[test]
    fn tag_spec_collocates() {
        let n = 20u64;
        let specs: Vec<SieveSpec> =
            (0..n).map(|s| SieveSpec::Tag { slot: s, slots: n, r: 2 }).collect();
        let a = ItemMeta::from_key(b"p1").with_tag(b"feed:x");
        let b = ItemMeta::from_key(b"p2").with_tag(b"feed:x");
        let oa: Vec<usize> =
            specs.iter().enumerate().filter(|(_, s)| s.accepts(&a)).map(|(i, _)| i).collect();
        let ob: Vec<usize> =
            specs.iter().enumerate().filter(|(_, s)| s.accepts(&b)).map(|(i, _)| i).collect();
        assert_eq!(oa, ob);
        assert_eq!(oa.len(), 2);
    }
}
