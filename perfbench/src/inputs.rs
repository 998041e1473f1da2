//! The benchmark's own input generator. Every input is drawn from the
//! command-line seed before timing starts, so the store under test only
//! ever sees finished values — never a generator call inside the timed
//! loop (see the README's note on `Workload::next_read_key`).

use dd_core::{Key, Tag, TupleSpec};
use dd_sim::churn::{ChurnEvent, ChurnModel, ChurnSchedule};
use dd_sim::rng::mix;
use dd_sim::Time;

/// A small splitmix64 stream: the whole generator state is one word.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, separated from other streams by `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(mix(seed, stream))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Index drawn with probability proportional to `weights`.
    pub fn weighted(&mut self, weights: &[u64]) -> usize {
        let mut r = self.below(weights.iter().sum());
        for (i, &w) in weights.iter().enumerate() {
            if r < w {
                return i;
            }
            r -= w;
        }
        unreachable!("draw below the weight total")
    }
}

/// The payload written under key number `index`: recomputable from the
/// key alone, so every read can be checked without a lookup table.
pub fn value_for(seed: u64, index: u64) -> Vec<u8> {
    let mut v = Vec::with_capacity(24);
    for lane in 0..3 {
        v.extend_from_slice(&mix(seed ^ index, lane).to_le_bytes());
    }
    v
}

/// The key number a generated key ends with (`...:<index>`).
pub fn key_index(key: &str) -> Option<u64> {
    key.rsplit(':').next()?.parse().ok()
}

/// One client operation, fully built.
#[derive(Debug, Clone)]
pub enum Op {
    /// A single write.
    Put {
        /// The key.
        key: Key,
        /// Key number (the payload's source).
        index: u64,
        /// Attribute, when the workload has one.
        attr: Option<f64>,
        /// Correlation tag, when the workload has one.
        tag: Option<String>,
    },
    /// A single read.
    Get(Key),
    /// A delete.
    Delete(Key),
    /// An attribute range scan over `[lo, hi]`.
    Scan(f64, f64),
    /// A batched write of one feed's posts.
    MultiPut(Vec<TupleSpec>),
    /// A tag-scoped read, with the tag's hash for checking the answer.
    MultiGet(String, u64),
}

/// A closed-loop workload's inputs: the op script plus the faults to
/// inject, both relative to the start of serving.
#[derive(Debug, Clone)]
pub struct Script {
    /// Every op, in issue order.
    pub ops: Vec<Op>,
    /// Faults to schedule, in virtual ticks after serving starts.
    pub faults: Vec<FaultAt>,
    /// The payload seed (see [`value_for`]).
    pub value_seed: u64,
}

/// One fault, on a persist node named by its index in `persist_ids`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultAt {
    /// Take the node down.
    Down(u64, usize),
    /// Bring the node back up.
    Up(u64, usize),
    /// Move the node into partition colour 1.
    Partition(u64, usize),
    /// Clear every partition.
    Heal(u64),
    /// Set the message-loss probability.
    Loss(u64, f64),
    /// Bring every persist node up.
    ReviveAll(u64),
}

/// `bulk-2k`: distinct uniformly placed keys, three writes to one read;
/// reads pick a key written earlier in the script.
pub fn bulk_script(seed: u64, ops: usize) -> Script {
    let mut rng = Rng::new(seed, 0xB01C);
    let prefix = format!("key:{:x}", seed);
    let mut keys: Vec<Key> = Vec::new();
    let mut out = Vec::with_capacity(ops);
    while out.len() < ops {
        if keys.is_empty() || rng.below(4) < 3 {
            let index = keys.len() as u64;
            let key = Key::from(format!("{prefix}:{index}"));
            keys.push(key.clone());
            out.push(Op::Put { key, index, attr: None, tag: None });
        } else {
            out.push(Op::Get(keys[rng.below(keys.len() as u64) as usize].clone()));
        }
    }
    Script { ops: out, faults: Vec::new(), value_seed: seed }
}

/// The feed mix: put 2 : get 4 : delete 1 : scan 1 : multi_put 1 :
/// multi_get 3.
const FEED_MIX: [u64; 6] = [2, 4, 1, 1, 1, 3];

/// Posts per feed `multi_put`.
const FEED_BATCH: usize = 4;

/// `feed-churn`: social-feed posts tagged by user over `users` feeds, the
/// read-heavy feed mix, and a fault program spread over `horizon` ticks.
pub fn feed_script(seed: u64, ops: usize, users: u64, persist_n: u64, horizon: u64) -> Script {
    let mut rng = Rng::new(seed, 0xFEED);
    let mut posts: Vec<Key> = Vec::new();
    let mut counter = 0u64;
    let mut post = |user: u64, posts: &mut Vec<Key>| {
        counter += 1;
        let key = Key::from(format!("post:{user}:{counter}"));
        posts.push(key.clone());
        (key, counter)
    };
    let mut out = Vec::with_capacity(ops);
    while out.len() < ops {
        let pick = if posts.is_empty() { 0 } else { rng.weighted(&FEED_MIX) };
        let op = match pick {
            0 => {
                let user = rng.below(users);
                let (key, index) = post(user, &mut posts);
                Op::Put { key, index, attr: Some(index as f64), tag: Some(format!("feed:{user}")) }
            }
            1 => Op::Get(posts[rng.below(posts.len() as u64) as usize].clone()),
            2 => Op::Delete(posts[rng.below(posts.len() as u64) as usize].clone()),
            3 => {
                let hi = posts.len() as f64;
                Op::Scan((hi - 20.0).max(0.0), hi)
            }
            4 => {
                let user = rng.below(users);
                let tag = format!("feed:{user}");
                let items = (0..FEED_BATCH)
                    .map(|_| {
                        let (key, index) = post(user, &mut posts);
                        let value = value_for(seed, index);
                        TupleSpec::new(key, value, Some(index as f64), Some(&tag))
                    })
                    .collect();
                Op::MultiPut(items)
            }
            _ => {
                let tag = format!("feed:{}", rng.below(users));
                let hash = Tag::from(tag.as_str()).hash();
                Op::MultiGet(tag, hash)
            }
        };
        out.push(op);
    }
    Script { ops: out, faults: feed_faults(seed, persist_n, horizon), value_seed: seed }
}

/// Persist nodes the `feed-churn` churn burst takes down.
const CHURN_DOWNS: usize = 12;

/// The `feed-churn` fault program over `horizon` ticks: a persist churn
/// burst, a 25% persist partition and its heal, a 5% loss spike, then
/// every persist node revived.
fn feed_faults(seed: u64, persist_n: u64, horizon: u64) -> Vec<FaultAt> {
    let at = |pct: u64| horizon * pct / 100;
    let mut faults = Vec::new();
    // Churn burst: the first CHURN_DOWNS failures the churn model draws
    // over 30% of the horizon, each back up after its drawn downtime. A
    // fixed count keeps the burst's size equal across seeds.
    let span = at(30);
    let model = ChurnModel { period: horizon, ..ChurnModel::default() }
        .failure_rate(1.0)
        .mean_downtime(span / 4)
        .permanent_prob(0.0);
    let churn = ChurnSchedule::generate(&model, persist_n, Time(span), mix(seed, 0xC4));
    let mut down: Vec<usize> = Vec::new();
    for ev in churn.events() {
        let node = ev.node().0 as usize;
        match *ev {
            ChurnEvent::Down(t, _) if down.len() < CHURN_DOWNS && !down.contains(&node) => {
                down.push(node);
                faults.push(FaultAt::Down(at(10) + t.0, node));
            }
            ChurnEvent::Up(t, _) if down.contains(&node) => {
                faults.push(FaultAt::Up(at(10) + t.0, node));
            }
            _ => {}
        }
    }
    // A quarter of the persist tier, chosen by the seed, splits off.
    let mut rng = Rng::new(seed, 0x9A27);
    let mut ids: Vec<usize> = (0..persist_n as usize).collect();
    for i in (1..ids.len()).rev() {
        ids.swap(i, rng.below(i as u64 + 1) as usize);
    }
    for &node in &ids[..ids.len() / 4] {
        faults.push(FaultAt::Partition(at(45), node));
    }
    faults.push(FaultAt::Heal(at(58)));
    faults.push(FaultAt::Loss(at(65), 0.05));
    faults.push(FaultAt::Loss(at(70), 0.0));
    faults.push(FaultAt::ReviveAll(at(80)));
    faults
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = feed_script(7, 500, 100, 16, 2_000);
        let b = feed_script(7, 500, 100, 16, 2_000);
        let c = feed_script(8, 500, 100, 16, 2_000);
        let render = |s: &Script| format!("{:?}{:?}", s.ops, s.faults);
        assert_eq!(render(&a), render(&b));
        assert_ne!(render(&a), render(&c));
        assert_eq!(a.ops.len(), 500);
    }

    #[test]
    fn bulk_mix_is_three_writes_to_one_read() {
        let s = bulk_script(3, 4_000);
        let puts = s.ops.iter().filter(|o| matches!(o, Op::Put { .. })).count();
        assert!((2_850..3_150).contains(&puts), "puts {puts}");
    }

    #[test]
    fn key_index_round_trips() {
        assert_eq!(key_index("post:12:345"), Some(345));
        assert_eq!(key_index("key:ab:0"), Some(0));
        assert_eq!(key_index("nope"), None);
    }

    #[test]
    fn weighted_draws_follow_weights() {
        let mut rng = Rng::new(1, 2);
        let mut hits = [0u32; 3];
        for _ in 0..30_000 {
            hits[rng.weighted(&[1, 0, 2])] += 1;
        }
        assert_eq!(hits[1], 0);
        assert!((9_000..11_000).contains(&hits[0]), "{hits:?}");
    }
}
