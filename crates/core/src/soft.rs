//! The soft-state layer node: request ordering, versions, tuple cache,
//! metadata and read/write coordination (§II of the paper).

use crate::msg::DropletMsg;
use crate::sieve_spec::PlacementView;
use crate::tuple::{Key, StoredTuple, TupleSpec};
use dd_dht::{HashRing, Metadata, TupleCache, Version, VersionAuthority};
use dd_epidemic::required_fanout;
use dd_estimation::ExtremaEstimator;
use dd_sim::rng::stream_rng;
use dd_sim::{Ctx, Duration, NodeId, Time, TimerTag, TraceCtx};
use rand::seq::SliceRandom;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Timer tag for the multi-op deadline sweep.
pub const MULTI_OP_TIMER: TimerTag = TimerTag(0x4D47);

/// Timer tag for flushing the per-target dissemination outbox.
pub const BATCH_TIMER: TimerTag = TimerTag(0xBA7C);

/// Ticks an enqueued tuple waits for batch-mates before the outbox
/// flushes. Small enough to be invisible next to network latency; large
/// enough that a multi-put's items to the same owner share one message.
pub const BATCH_FLUSH_TICKS: u64 = 2;

/// Tuples per dissemination batch before an eager flush.
pub const BATCH_MAX: usize = 32;

/// Acked-but-undelivered writes a coordinator remembers per node: writes
/// whose owners were unreachable at dissemination time are re-delivered
/// when the owner comes back ([`DropletMsg::PeerUp`]); beyond this cap the
/// oldest entry is forgotten and the periodic repair plane is the
/// remaining safety net.
pub const UNDELIVERED_RETENTION: usize = 4096;

/// Slots in the deterministic per-peer extrema vector used for adaptive
/// fanout (relative error ≈ 1/√(K−2) ≈ 13 %).
const EXTREMA_K: usize = 64;

/// Master seed for the per-peer extrema vectors. Every soft node uses
/// the same vector for a given persist peer — modelling the vector that
/// peer generated at join time and gossiped — so merged estimates agree
/// across coordinators with the same reachability view.
const EXTREMA_SALT: u64 = 0xEC7A_11E5_71AA_7E0F;

/// Every persist peer's join-time extrema vector. A vector depends only
/// on the peer id, so a cluster draws the table once and its soft nodes
/// share it, merging the reachable peers' rows on every reachability
/// change instead of redrawing them.
#[derive(Debug)]
pub struct ExtremaTable {
    rows: Vec<(NodeId, ExtremaEstimator)>,
}

impl ExtremaTable {
    /// Draws the vector of every peer in `persist_peers`.
    #[must_use]
    pub fn new(persist_peers: &[NodeId]) -> Self {
        let rows = persist_peers
            .iter()
            .map(|&p| {
                (p, ExtremaEstimator::generate(&mut stream_rng(EXTREMA_SALT, p.0), EXTREMA_K))
            })
            .collect();
        ExtremaTable { rows }
    }
}

/// Completion records a soft node retains per operation kind. Harvested
/// completions are retired immediately; this cap bounds what *abandoned*
/// sessions can leave behind — once exceeded, the oldest un-harvested
/// record is retired, so sustained traffic from clients that never poll
/// cannot grow node state without bound.
pub const COMPLETION_RETENTION: usize = 512;

/// Requests whose completion record a soft node inserted since the
/// cluster last collected them: one notice per new record, across all six
/// completion logs. The cluster moves notices into its completion index
/// (`(session, req) → holder`), so a client probes only the node that
/// holds its record. `bell`, shared by a cluster's soft nodes and the cluster, is
/// set on every post: the cluster walks the soft tier only after one.
#[derive(Debug, Clone, Default)]
struct Notices {
    reqs: Vec<u64>,
    bell: Option<Arc<AtomicBool>>,
}

impl Notices {
    fn post(&mut self, req: u64) {
        self.reqs.push(req);
        if let Some(bell) = &self.bell {
            bell.store(true, Ordering::Relaxed);
        }
    }
}

/// Bounded completion store: a map plus insertion-order retirement.
///
/// Request ids are allocated monotonically and a record is written exactly
/// once (later acks update in place), so insertion order is age order and
/// retiring from the front is LRU retirement. [`CompletionLog::take`] is
/// the harvest path — clients remove what they consume, so under a
/// well-behaved session the log stays near-empty and the cap never bites.
#[derive(Debug, Clone)]
pub(crate) struct CompletionLog<T> {
    cap: usize,
    map: HashMap<u64, T>,
    order: VecDeque<u64>,
    /// Records retired by the cap over the log's lifetime (telemetry: the
    /// leak guard firing; 0 under well-behaved sessions).
    retired: u64,
}

impl<T> CompletionLog<T> {
    fn new(cap: usize) -> Self {
        CompletionLog { cap, map: HashMap::new(), order: VecDeque::new(), retired: 0 }
    }

    /// Records a completion, posting a notice when the record is new;
    /// returns the record retired to stay within the cap, if any, so the
    /// caller can release auxiliary state.
    fn insert(&mut self, req: u64, v: T, notices: &mut Notices) -> Option<(u64, T)> {
        if self.map.insert(req, v).is_none() {
            self.order.push_back(req);
            notices.post(req);
        }
        if self.map.len() <= self.cap {
            return None;
        }
        while let Some(old) = self.order.pop_front() {
            if let Some(v) = self.map.remove(&old) {
                self.retired += 1;
                return Some((old, v));
            }
        }
        None
    }

    /// Harvests (removes) the completion for `req`. The order queue is
    /// compacted lazily once it outgrows the live map.
    pub(crate) fn take(&mut self, req: u64) -> Option<T> {
        let v = self.map.remove(&req);
        if self.order.len() > 2 * self.map.len() + 16 {
            self.order.retain(|id| self.map.contains_key(id));
        }
        v
    }

    fn get_mut(&mut self, req: u64) -> Option<&mut T> {
        self.map.get_mut(&req)
    }

    /// Number of retained (un-harvested) completions.
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }
}

impl<T: Clone> CompletionLog<T> {
    /// Reads the completion for `req` *without* retiring it — the
    /// regression shape [`SoftNode::seed_completion_leak`] re-introduces:
    /// records accumulate forever because nothing ever removes them.
    fn peek(&self, req: u64) -> Option<T> {
        self.map.get(&req).cloned()
    }
}

/// Ticks a multi-tuple operation waits for stragglers before completing
/// with what it has. A dead slot-owner never answers a `TagFetch`, and a
/// dead key coordinator never acks a `SubPut`; without this deadline one
/// failed node would hang every `multi_get` on its tags (even though the
/// surviving replicas hold the full tuple set) and every `multi_put`
/// containing one of its keys.
pub const MULTI_OP_TIMEOUT: u64 = 2_000;

/// Outcome of a write, as tracked by its coordinator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PutStatus {
    /// Version the write was ordered at.
    pub version: Version,
    /// Storage acks received from the persistent layer so far.
    pub acks: u32,
}

/// Outcome of a batched write: the ordered items (version assigned by
/// their key coordinator) have been handed to epidemic dissemination.
/// `items` equals the batch size when the whole batch ordered; a smaller
/// count means the deadline sweep completed the op without acks from
/// dead/unreachable key coordinators.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MultiPutStatus {
    /// Number of batch items ordered so far.
    pub items: usize,
    /// `(key_hash, version)` per ordered item, in ack-arrival order.
    pub versions: Vec<(u64, Version)>,
}

/// A pending single read: which replicas we are waiting on, which were
/// unreachable when the fetch went out (re-fetched on
/// [`DropletMsg::PeerUp`] — a read must never conclude "not found" while
/// a replica it couldn't reach may hold the write).
#[derive(Debug, Clone)]
struct PendingGet {
    key_hash: u64,
    version: Version,
    waiting: Vec<NodeId>,
    unreached: Vec<NodeId>,
}

/// Shared shape of the gather-style ops (scans): `outstanding` replies
/// left, raw replica items accumulated so far.
#[derive(Debug, Clone)]
struct PendingGather {
    outstanding: usize,
    items: Vec<StoredTuple>,
}

/// A pending tag-scoped read: the replicas still owing a reply, the
/// gathered items, whether every slot-owner could be contacted, and the
/// start time for the deadline sweep ([`MULTI_OP_TIMER`]).
#[derive(Debug, Clone)]
struct PendingMultiGet {
    waiting: Vec<NodeId>,
    items: Vec<StoredTuple>,
    full: bool,
    started: Time,
}

/// A pending batched write: one `waiting` entry per outstanding remote
/// sub-put (the same coordinator appears once per item it owns), the
/// ordered versions so far, and the batch size for partial accounting.
#[derive(Debug, Clone)]
struct PendingMultiPut {
    waiting: Vec<NodeId>,
    versions: Vec<(u64, Version)>,
    want: usize,
    started: Time,
}

/// A write acked to the client whose delivery to some owners is still
/// unconfirmed (they were unreachable, or the ack is simply in flight).
#[derive(Debug, Clone)]
struct Undelivered {
    tuple: StoredTuple,
    pending: Vec<NodeId>,
}

#[derive(Debug, Clone)]
struct PendingAgg {
    outstanding: usize,
    sketch: dd_estimation::DistSketch,
    min: f64,
    max: f64,
}

/// Soft-state layer node.
#[derive(Debug, Clone)]
pub struct SoftNode {
    /// Ring over the *soft* nodes only (the moderately sized tier).
    pub ring: HashRing,
    /// Per-key version authority (coordinator role).
    pub authority: VersionAuthority,
    /// Latest-version + location-hint metadata.
    pub metadata: Metadata,
    /// The tuple cache.
    pub cache: TupleCache<StoredTuple>,
    /// All persistent-layer node ids.
    pub persist_peers: Vec<NodeId>,
    /// The persistent layer's placement: `persist_peers[i]` runs the
    /// view's sieve `i`. Sieve acceptance is a pure function of the key
    /// hash and the placement, so the coordinator names a write's owners
    /// arithmetically and delivers it *directly* to them (batched
    /// [`DropletMsg::DeliverBatch`]) instead of broadcasting it
    /// epidemically, and routes a tag-scoped read to the tag's slot
    /// owners. `None` = epidemic dissemination, and tag-scoped reads ask
    /// every persist peer.
    placement: Option<PlacementView>,
    /// Dissemination fanout used when originating writes (the epidemic
    /// fallback path).
    pub fanout: u32,
    /// When set, `fanout` follows the extrema-propagation size estimate
    /// of the currently reachable persist population, merged from this
    /// shared table, instead of the static value computed at
    /// construction.
    extrema: Option<Arc<ExtremaTable>>,
    /// Fallback fetch width when no location hints exist.
    pub fallback_fetches: usize,

    /// Completed writes: req → (status, key hash). Harvested through
    /// [`SoftNode::take_put`] by client sessions, retired on harvest.
    completed_puts: CompletionLog<(PutStatus, u64)>,
    /// Completed reads: req → tuple (None = unknown key/deleted/not found).
    completed_gets: CompletionLog<Option<StoredTuple>>,
    /// Completed scans: req → matching tuples.
    completed_scans: CompletionLog<Vec<StoredTuple>>,
    /// Completed aggregates: req → (sketch, min, max).
    completed_aggs: CompletionLog<(dd_estimation::DistSketch, f64, f64)>,
    /// Completed batched writes: req → status.
    completed_multi_puts: CompletionLog<MultiPutStatus>,
    /// Completed tag-scoped reads: req → (deduplicated live tuples,
    /// whether every contacted replica answered before the deadline).
    completed_multi_gets: CompletionLog<(Vec<StoredTuple>, bool)>,

    put_index: HashMap<(u64, Version), u64>,
    pending_gets: HashMap<u64, PendingGet>,
    pending_scans: HashMap<u64, PendingGather>,
    pending_aggs: HashMap<u64, PendingAgg>,
    pending_multi_puts: HashMap<u64, PendingMultiPut>,
    pending_multi_gets: HashMap<u64, PendingMultiGet>,

    /// Everyone this node's failure detector watches (soft members and
    /// persist peers); the baseline `reachable` resets to after a wipe.
    known_peers: Vec<NodeId>,
    /// Peers the local failure detector currently trusts. Maintained by
    /// [`DropletMsg::PeerDown`] / [`DropletMsg::PeerUp`] notices.
    reachable: HashSet<NodeId>,
    /// Per-target dissemination batches awaiting a flush, each tuple with
    /// the trace context of the op that wrote it (`None` when untraced).
    outbox: HashMap<NodeId, Vec<(StoredTuple, Option<TraceCtx>)>>,
    outbox_armed: bool,
    /// Open coordinator span per in-flight traced op (req → span id).
    /// Empty in untraced runs, so every tracing hook costs one emptiness
    /// check when tracing is off.
    trace_ops: HashMap<u64, u32>,
    /// Open per-target wait spans per traced op, as `(target, span)` pairs
    /// (a multi-put may wait on the same coordinator for several items).
    trace_waits: HashMap<u64, Vec<(NodeId, u32)>>,
    /// Acked writes not yet confirmed stored at every owner, keyed by
    /// `(key_hash, version)`, plus insertion order for cap retirement.
    undelivered: HashMap<(u64, Version), Undelivered>,
    undelivered_order: VecDeque<(u64, Version)>,
    /// Test-only regression seed for the telemetry plane's leak detector:
    /// when set ([`SoftNode::seed_completion_leak`]), harvests stop
    /// retiring completion records — the unbounded-completion-log bug
    /// shape — so [`SoftNode::completion_backlog`] grows monotonically.
    leak_completions: bool,
    /// New completion records not yet collected by the cluster.
    notices: Notices,
}

impl SoftNode {
    /// Creates a soft node.
    #[must_use]
    pub fn new(
        soft_members: &[NodeId],
        persist_peers: Vec<NodeId>,
        fanout: u32,
        cache_capacity: usize,
    ) -> Self {
        let mut ring = HashRing::new();
        for &m in soft_members {
            ring.add(m, 16);
        }
        let known_peers: Vec<NodeId> =
            soft_members.iter().copied().chain(persist_peers.iter().copied()).collect();
        let reachable: HashSet<NodeId> = known_peers.iter().copied().collect();
        SoftNode {
            ring,
            authority: VersionAuthority::new(),
            metadata: Metadata::new(8),
            cache: TupleCache::new(cache_capacity),
            persist_peers,
            placement: None,
            fanout,
            extrema: None,
            fallback_fetches: 5,
            completed_puts: CompletionLog::new(COMPLETION_RETENTION),
            completed_gets: CompletionLog::new(COMPLETION_RETENTION),
            completed_scans: CompletionLog::new(COMPLETION_RETENTION),
            completed_aggs: CompletionLog::new(COMPLETION_RETENTION),
            completed_multi_puts: CompletionLog::new(COMPLETION_RETENTION),
            completed_multi_gets: CompletionLog::new(COMPLETION_RETENTION),
            put_index: HashMap::new(),
            pending_gets: HashMap::new(),
            pending_scans: HashMap::new(),
            pending_aggs: HashMap::new(),
            pending_multi_puts: HashMap::new(),
            pending_multi_gets: HashMap::new(),
            known_peers,
            reachable,
            outbox: HashMap::new(),
            outbox_armed: false,
            trace_ops: HashMap::new(),
            trace_waits: HashMap::new(),
            undelivered: HashMap::new(),
            undelivered_order: VecDeque::new(),
            leak_completions: false,
            notices: Notices::default(),
        }
    }

    /// Builder: gives the coordinator the persistent layer's placement
    /// (`persist_peers[i]` runs `placement.spec(i, ..)`), so writes go
    /// directly (and batched) to the nodes that will keep them and
    /// tag-scoped reads to the tag's slot owners.
    ///
    /// # Panics
    /// Panics when the view's population is not `persist_peers.len()`.
    #[must_use]
    pub fn with_placement(mut self, placement: PlacementView) -> Self {
        assert_eq!(
            placement.population(),
            self.persist_peers.len() as u64,
            "one sieve per persist peer"
        );
        self.placement = Some(placement);
        self
    }

    /// Builder: sets `bell` whenever this node posts a completion notice
    /// (see [`SoftNode::drain_notices`]).
    #[must_use]
    pub(crate) fn with_completion_bell(mut self, bell: Arc<AtomicBool>) -> Self {
        self.notices.bell = Some(bell);
        self
    }

    /// Builder: ties the epidemic-fallback fanout to the dd-estimation
    /// size estimate of the reachable persist population, merged from
    /// `table` (built over the same persist population).
    #[must_use]
    pub fn with_adaptive_fanout(mut self, table: Arc<ExtremaTable>) -> Self {
        self.extrema = Some(table);
        self.refresh_fanout();
        self
    }

    /// Peers the local failure detector currently trusts.
    #[must_use]
    pub fn reachable_peers(&self) -> &HashSet<NodeId> {
        &self.reachable
    }

    /// Acked writes not yet confirmed at every owner (re-delivery queue
    /// depth) — exposed for tests and debugging.
    #[must_use]
    pub fn undelivered_backlog(&self) -> usize {
        self.undelivered.len()
    }

    /// Recomputes the epidemic fanout from the extrema-propagation
    /// estimate over the reachable persist peers: each peer contributes
    /// the deterministic `Exp(1)` vector it drew at join time, the local
    /// failure detector decides which vectors to merge, and the estimate
    /// `(K−1)/Σ minima` replaces the static population count.
    fn refresh_fanout(&mut self) {
        let Some(table) = &self.extrema else { return };
        let mut merged: Option<ExtremaEstimator> = None;
        for (p, vector) in &table.rows {
            if !self.reachable.contains(p) {
                continue;
            }
            match merged.as_mut() {
                Some(m) => {
                    m.merge(vector);
                }
                None => merged = Some(vector.clone()),
            }
        }
        let estimate = merged.map_or(1.0, |m| m.estimate());
        let n = estimate.max(1.0).round() as u64;
        self.fanout = required_fanout(n, 0.999);
    }

    /// The coordinator for a key: the primary soft-ring owner.
    #[must_use]
    pub fn coordinator_of(&self, key_hash: u64) -> Option<NodeId> {
        self.ring.primary(key_hash)
    }

    /// Harvests a completed write or delete, retiring the record and its
    /// ack-routing entry. Late storage acks still update metadata.
    pub(crate) fn take_put(&mut self, req: u64) -> Option<PutStatus> {
        if self.leak_completions {
            return self.completed_puts.peek(req).map(|(status, _)| status);
        }
        let (status, key_hash) = self.completed_puts.take(req)?;
        self.put_index.remove(&(key_hash, status.version));
        Some(status)
    }

    /// Harvests a completed read.
    pub(crate) fn take_get(&mut self, req: u64) -> Option<Option<StoredTuple>> {
        if self.leak_completions {
            return self.completed_gets.peek(req);
        }
        self.completed_gets.take(req)
    }

    /// Harvests a completed scan.
    pub(crate) fn take_scan(&mut self, req: u64) -> Option<Vec<StoredTuple>> {
        if self.leak_completions {
            return self.completed_scans.peek(req);
        }
        self.completed_scans.take(req)
    }

    /// Harvests a completed aggregate.
    pub(crate) fn take_agg(&mut self, req: u64) -> Option<(dd_estimation::DistSketch, f64, f64)> {
        if self.leak_completions {
            return self.completed_aggs.peek(req);
        }
        self.completed_aggs.take(req)
    }

    /// Harvests a completed batched write.
    pub(crate) fn take_multi_put(&mut self, req: u64) -> Option<MultiPutStatus> {
        if self.leak_completions {
            return self.completed_multi_puts.peek(req);
        }
        self.completed_multi_puts.take(req)
    }

    /// Harvests a completed tag-scoped read: the deduplicated live tuples
    /// plus whether the replica union was complete (every contacted node
    /// answered) or cut short by the multi-op deadline.
    pub(crate) fn take_multi_get(&mut self, req: u64) -> Option<(Vec<StoredTuple>, bool)> {
        if self.leak_completions {
            return self.completed_multi_gets.peek(req);
        }
        self.completed_multi_gets.take(req)
    }

    /// Removes and yields the requests whose completion record was
    /// inserted since the last call, in insertion order. The cluster calls
    /// this whenever the completion bell rang and the client plane
    /// harvests or submits, so the list holds at most the completions of
    /// one stretch of simulation between client calls.
    pub(crate) fn drain_notices(&mut self) -> std::vec::Drain<'_, u64> {
        self.notices.reqs.drain(..)
    }

    /// Completion records currently retained across all op kinds. Bounded
    /// by `6 ×` [`COMPLETION_RETENTION`] even when no session ever
    /// harvests — the leak guard for abandoned clients.
    #[must_use]
    pub fn completion_backlog(&self) -> usize {
        self.completed_puts.len()
            + self.completed_gets.len()
            + self.completed_scans.len()
            + self.completed_aggs.len()
            + self.completed_multi_puts.len()
            + self.completed_multi_gets.len()
    }

    /// Completion records the retention cap has retired over this node's
    /// lifetime (the leak guard firing; 0 under well-behaved sessions).
    #[must_use]
    pub fn completions_retired(&self) -> u64 {
        self.completed_puts.retired
            + self.completed_gets.retired
            + self.completed_scans.retired
            + self.completed_aggs.retired
            + self.completed_multi_puts.retired
            + self.completed_multi_gets.retired
    }

    /// Client operations currently in flight on this coordinator (pending
    /// reads, scans, aggregates and multi-ops awaiting replica replies).
    #[must_use]
    pub fn pending_ops(&self) -> usize {
        self.pending_gets.len()
            + self.pending_scans.len()
            + self.pending_aggs.len()
            + self.pending_multi_puts.len()
            + self.pending_multi_gets.len()
    }

    /// Tuples queued in the per-target dissemination outbox awaiting a
    /// batch flush.
    #[must_use]
    pub fn outbox_depth(&self) -> usize {
        self.outbox.values().map(Vec::len).sum()
    }

    /// **Test-only.** Re-introduces the unbounded-completion-log
    /// regression (PR 3's bug shape) so the telemetry plane's leak
    /// detector has a true positive to catch: harvests stop retiring
    /// records (peek instead of take) and the caps stop
    /// evicting, so [`SoftNode::completion_backlog`] grows monotonically
    /// with every completed op. Client-visible results are unchanged —
    /// a harvest returns the same value it would have removed.
    pub fn seed_completion_leak(&mut self) {
        self.leak_completions = true;
        self.completed_puts.cap = usize::MAX;
        self.completed_gets.cap = usize::MAX;
        self.completed_scans.cap = usize::MAX;
        self.completed_aggs.cap = usize::MAX;
        self.completed_multi_puts.cap = usize::MAX;
        self.completed_multi_gets.cap = usize::MAX;
    }

    fn is_coordinator(&self, me: NodeId, key_hash: u64) -> bool {
        self.coordinator_of(key_hash) == Some(me)
    }

    /// The persist nodes whose sieves will keep `tuple` under
    /// `placement`, in ascending persist order (the send order, which
    /// replay depends on). Tombstones are wanted everywhere (see
    /// `PersistNode::wants`).
    fn owners_of(&self, placement: &PlacementView, tuple: &StoredTuple) -> Vec<NodeId> {
        if tuple.deleted {
            return self.persist_peers.clone();
        }
        placement.owners(&tuple.item_meta(), &self.persist_peers)
    }

    /// Remembers a write until every owner has confirmed storage, so a
    /// heal or revival can re-deliver it (the acked-while-owners-dark
    /// lost-write case). Bounded by [`UNDELIVERED_RETENTION`].
    fn track_undelivered(&mut self, tuple: &StoredTuple, owners: &[NodeId]) {
        if owners.is_empty() {
            return;
        }
        let id = (tuple.key_hash, tuple.version);
        self.undelivered.insert(id, Undelivered { tuple: tuple.clone(), pending: owners.to_vec() });
        self.undelivered_order.push_back(id);
        while self.undelivered.len() > UNDELIVERED_RETENTION {
            match self.undelivered_order.pop_front() {
                Some(old) => {
                    self.undelivered.remove(&old);
                }
                None => break,
            }
        }
        if self.undelivered_order.len() > 2 * self.undelivered.len() + 16 {
            let live = &self.undelivered;
            self.undelivered_order.retain(|id| live.contains_key(id));
        }
    }

    /// Queues one tuple for a target; flushes eagerly at [`BATCH_MAX`],
    /// otherwise arms the short batch timer once.
    fn enqueue_delivery(
        &mut self,
        ctx: &mut Ctx<'_, DropletMsg>,
        target: NodeId,
        tuple: StoredTuple,
        trace: Option<TraceCtx>,
    ) {
        let queue = self.outbox.entry(target).or_default();
        queue.push((tuple, trace));
        if queue.len() >= BATCH_MAX {
            let batch = self.outbox.remove(&target).expect("present");
            self.send_batch(ctx, target, batch);
        } else if !self.outbox_armed {
            self.outbox_armed = true;
            ctx.set_timer(Duration(BATCH_FLUSH_TICKS), BATCH_TIMER);
        }
    }

    fn send_batch(
        &mut self,
        ctx: &mut Ctx<'_, DropletMsg>,
        target: NodeId,
        batch: Vec<(StoredTuple, Option<TraceCtx>)>,
    ) {
        let me = ctx.id();
        ctx.metrics().incr("soft.deliveries");
        ctx.metrics().observe("soft.batch", batch.len() as f64);
        // The trace vec stays empty in untraced runs (no per-batch
        // allocation on the zero-cost-when-off path).
        let traced = batch.iter().any(|(_, t)| t.is_some());
        let mut tuples = Vec::with_capacity(batch.len());
        let mut traces = Vec::new();
        for (tuple, trace) in batch {
            if traced {
                traces.push(trace);
            }
            tuples.push(tuple);
        }
        ctx.send(target, DropletMsg::DeliverBatch { tuples, coordinator: me, traces });
    }

    /// Flushes every queued batch, in sorted target order (hash-map
    /// iteration order must never reach the wire).
    fn flush_outbox(&mut self, ctx: &mut Ctx<'_, DropletMsg>) {
        self.outbox_armed = false;
        let mut targets: Vec<NodeId> = self.outbox.keys().copied().collect();
        targets.sort_unstable();
        for target in targets {
            let batch = self.outbox.remove(&target).expect("present");
            self.send_batch(ctx, target, batch);
        }
    }

    fn disseminate(
        &mut self,
        ctx: &mut Ctx<'_, DropletMsg>,
        tuple: StoredTuple,
        trace: Option<TraceCtx>,
    ) {
        let Some(placement) = self.placement else {
            // Epidemic fallback: blind fanout into the persist layer,
            // relayed infect-and-die by the receivers.
            let me = ctx.id();
            let mut targets = self.persist_peers.clone();
            targets.shuffle(ctx.rng());
            targets.truncate(self.fanout as usize);
            for t in targets {
                ctx.metrics().incr("soft.disseminations");
                ctx.send(
                    t,
                    DropletMsg::Disseminate {
                        hops: 0,
                        tuple: tuple.clone(),
                        coordinator: me,
                        trace,
                    },
                );
            }
            return;
        };
        // Sieve-routed direct delivery: acceptance is deterministic, so
        // sending only to the owners stores exactly the set a full
        // broadcast would, at ~replication-degree messages per tuple.
        let owners = self.owners_of(&placement, &tuple);
        self.track_undelivered(&tuple, &owners);
        for owner in owners {
            if self.reachable.contains(&owner) {
                self.enqueue_delivery(ctx, owner, tuple.clone(), trace);
            }
        }
    }

    /// Orders one write at this (key-coordinator) node — assigns the
    /// version, records metadata, caches, disseminates — and returns the
    /// assigned identity. Completion tracking is the caller's business:
    /// single puts index the request, batch sub-puts ack their origin.
    fn order_and_disseminate(
        &mut self,
        ctx: &mut Ctx<'_, DropletMsg>,
        item: TupleSpec,
        delete: bool,
        trace: Option<TraceCtx>,
    ) -> (u64, Version) {
        let key_hash = item.key.hash();
        let version = self.authority.assign(key_hash);
        let tuple = if delete {
            StoredTuple::tombstone(item.key, version)
        } else {
            StoredTuple::from_spec(item, version)
        };
        self.metadata.record_write(key_hash, version, &[]);
        self.cache.put(key_hash, version, tuple.clone());
        ctx.metrics().incr("soft.writes");
        let order = self.trace_hop(ctx, trace, "soft.order");
        self.disseminate(ctx, tuple, order);
        (key_hash, version)
    }

    fn start_write(
        &mut self,
        ctx: &mut Ctx<'_, DropletMsg>,
        req: u64,
        item: TupleSpec,
        delete: bool,
        trace: Option<TraceCtx>,
    ) {
        let (key_hash, version) = self.order_and_disseminate(ctx, item, delete, trace);
        self.put_index.insert((key_hash, version), req);
        if let Some((_, (old, kh))) = self.completed_puts.insert(
            req,
            (PutStatus { version, acks: 0 }, key_hash),
            &mut self.notices,
        ) {
            // Retired to stay within the cap: drop its ack routing too.
            self.put_index.remove(&(kh, old.version));
        }
    }

    /// Completes a multi-put: records the status and counts a partial
    /// when fewer items ordered than the batch asked for (whichever path
    /// got here — last ack, death notice, or the deadline sweep).
    fn complete_multi_put(&mut self, ctx: &mut Ctx<'_, DropletMsg>, req: u64, p: PendingMultiPut) {
        if p.versions.len() < p.want {
            ctx.metrics().incr("soft.multi_put_partials");
        }
        self.trace_finish_op(ctx, req, p.versions.len() >= p.want);
        self.completed_multi_puts.insert(
            req,
            MultiPutStatus { items: p.versions.len(), versions: p.versions },
            &mut self.notices,
        );
    }

    /// Completes a tag-scoped read; `full` is false when any contacted
    /// replica never answered (struck by a death notice or the deadline)
    /// or was unreachable to begin with.
    fn complete_multi_get(&mut self, ctx: &mut Ctx<'_, DropletMsg>, req: u64, p: PendingMultiGet) {
        if !p.full {
            ctx.metrics().incr("soft.multi_get_partials");
        }
        self.trace_finish_op(ctx, req, p.full);
        self.completed_multi_gets.insert(
            req,
            (Self::finalize_gather(p.items), p.full),
            &mut self.notices,
        );
    }

    /// Records one ordered item of a pending multi-put (acked by `from`);
    /// completes the op when no sub-put is outstanding.
    fn note_sub_put_ack(
        &mut self,
        ctx: &mut Ctx<'_, DropletMsg>,
        req: u64,
        from: Option<NodeId>,
        key_hash: u64,
        version: Version,
    ) {
        let Some(p) = self.pending_multi_puts.get_mut(&req) else { return };
        p.versions.push((key_hash, version));
        if let Some(from) = from {
            if let Some(pos) = p.waiting.iter().position(|&n| n == from) {
                p.waiting.remove(pos);
            }
        }
        if p.waiting.is_empty() {
            let p = self.pending_multi_puts.remove(&req).expect("present");
            self.complete_multi_put(ctx, req, p);
        }
    }

    /// A persist node confirmed storage of `(key_hash, version)`: record
    /// the location hint, bump the put's ack count, and clear the
    /// re-delivery obligation for that node.
    fn note_stored(&mut self, from: NodeId, key_hash: u64, version: Version) {
        self.metadata.add_holder(key_hash, version, from);
        if let Some(&req) = self.put_index.get(&(key_hash, version)) {
            if let Some((s, _)) = self.completed_puts.get_mut(req) {
                s.acks += 1;
            }
        }
        if let Some(u) = self.undelivered.get_mut(&(key_hash, version)) {
            u.pending.retain(|&n| n != from);
            if u.pending.is_empty() {
                self.undelivered.remove(&(key_hash, version));
            }
        }
    }

    // ------------------------------------------------------------------
    // Tracing hooks (dd-trace). Every hook is a no-op in untraced runs:
    // no recorder is installed, the `trace` fields on messages are `None`,
    // and the two span maps stay empty — so traced and untraced runs walk
    // byte-identical protocol states.
    // ------------------------------------------------------------------

    /// Opens an instantaneous hop span (forwarding, ordering) under
    /// `parent` and returns the re-parented context for downstream
    /// messages.
    fn trace_hop(
        &mut self,
        ctx: &mut Ctx<'_, DropletMsg>,
        parent: Option<TraceCtx>,
        label: &'static str,
    ) -> Option<TraceCtx> {
        let p = parent?;
        let now = ctx.now();
        let me = ctx.id();
        let tr = ctx.tracer()?;
        let span = tr.open(now, me, p.op, Some(p.span), label);
        tr.close(now, p.op, span, true);
        Some(TraceCtx { op: p.op, span })
    }

    /// Opens the coordinator span of a traced op at this node; it stays
    /// open until [`SoftNode::trace_finish_op`].
    fn trace_coord(
        &mut self,
        ctx: &mut Ctx<'_, DropletMsg>,
        req: u64,
        parent: Option<TraceCtx>,
        label: &'static str,
    ) {
        let Some(p) = parent else { return };
        let now = ctx.now();
        let me = ctx.id();
        let Some(tr) = ctx.tracer() else { return };
        let span = tr.open(now, me, req, Some(p.span), label);
        self.trace_ops.insert(req, span);
    }

    /// The op's open coordinator span as a context (`None` when untraced).
    fn trace_ctx_of(&self, req: u64) -> Option<TraceCtx> {
        self.trace_ops.get(&req).map(|&span| TraceCtx { op: req, span })
    }

    /// Opens a wait span on `target` under the op's coordinator span and
    /// returns the context to embed in the outgoing request (`None` when
    /// the op is untraced). The span closes when the reply lands, when the
    /// op stops waiting, or — for a reply that never comes — at the trace
    /// horizon, which is exactly what pins a timeout on the silent node.
    fn trace_wait(
        &mut self,
        ctx: &mut Ctx<'_, DropletMsg>,
        req: u64,
        target: NodeId,
        label: &'static str,
    ) -> Option<TraceCtx> {
        let parent = *self.trace_ops.get(&req)?;
        let now = ctx.now();
        let tr = ctx.tracer()?;
        let span = tr.open(now, target, req, Some(parent), label);
        self.trace_waits.entry(req).or_default().push((target, span));
        Some(TraceCtx { op: req, span })
    }

    /// A reply from `from` landed: closes one of the op's wait spans on it
    /// as answered.
    fn trace_reply(&mut self, ctx: &mut Ctx<'_, DropletMsg>, req: u64, from: NodeId) {
        if self.trace_waits.is_empty() {
            return;
        }
        let Some(waits) = self.trace_waits.get_mut(&req) else { return };
        let Some(pos) = waits.iter().position(|&(n, _)| n == from) else { return };
        let (_, span) = waits.remove(pos);
        let empty = waits.is_empty();
        if empty {
            self.trace_waits.remove(&req);
        }
        let now = ctx.now();
        if let Some(tr) = ctx.tracer() {
            tr.close(now, req, span, true);
        }
    }

    /// The op stopped waiting on `peer` specifically (a death notice
    /// struck it from the waiting list): closes its wait spans on that
    /// peer as unanswered.
    fn trace_unwait(&mut self, ctx: &mut Ctx<'_, DropletMsg>, req: u64, peer: NodeId) {
        if self.trace_waits.is_empty() {
            return;
        }
        let Some(waits) = self.trace_waits.get_mut(&req) else { return };
        let now = ctx.now();
        let Some(tr) = ctx.tracer() else { return };
        waits.retain(|&(n, span)| {
            if n == peer {
                tr.close(now, req, span, false);
                false
            } else {
                true
            }
        });
        let empty = waits.is_empty();
        if empty {
            self.trace_waits.remove(&req);
        }
    }

    /// The op completed at this coordinator: closes any wait span still
    /// open as unanswered (deadline-swept stragglers), then the
    /// coordinator span itself.
    fn trace_finish_op(&mut self, ctx: &mut Ctx<'_, DropletMsg>, req: u64, answered: bool) {
        if self.trace_ops.is_empty() && self.trace_waits.is_empty() {
            return;
        }
        let waits = self.trace_waits.remove(&req);
        let coord = self.trace_ops.remove(&req);
        let now = ctx.now();
        let Some(tr) = ctx.tracer() else { return };
        for (_, span) in waits.into_iter().flatten() {
            tr.close(now, req, span, false);
        }
        if let Some(span) = coord {
            tr.close(now, req, span, answered);
        }
    }

    /// The replica this node is still waiting on for `req`, if the op is
    /// pending here — threaded into [`crate::OpError::Timeout`] so a
    /// timed-out client learns *which* node never replied.
    pub(crate) fn blame(&self, req: u64) -> Option<NodeId> {
        if let Some(p) = self.pending_gets.get(&req) {
            return p.waiting.first().or_else(|| p.unreached.first()).copied();
        }
        if let Some(p) = self.pending_multi_gets.get(&req) {
            return p.waiting.first().copied();
        }
        if let Some(p) = self.pending_multi_puts.get(&req) {
            return p.waiting.first().copied();
        }
        None
    }

    /// The failure detector declared `peer` dead: stop waiting on it.
    /// Pending single reads park it on their `unreached` list (a heal
    /// re-fetches); multi-ops with their last outstanding reply on it
    /// complete eagerly instead of sitting out the deadline sweep.
    fn strike_peer(&mut self, ctx: &mut Ctx<'_, DropletMsg>, peer: NodeId) {
        // Pending single reads keep their wait spans open: the op is still
        // semantically waiting (a heal re-fetches), and a never-healed
        // replica should show as the hop that never answered. Multi-ops
        // genuinely stop waiting, so their spans close unanswered now.
        let traced = !self.trace_waits.is_empty();
        for p in self.pending_gets.values_mut() {
            if let Some(pos) = p.waiting.iter().position(|&n| n == peer) {
                p.waiting.remove(pos);
                p.unreached.push(peer);
            }
        }
        let mut touched: Vec<u64> = Vec::new();
        let struck_gets: Vec<u64> = self
            .pending_multi_gets
            .iter_mut()
            .filter_map(|(&req, p)| {
                let before = p.waiting.len();
                p.waiting.retain(|&n| n != peer);
                if p.waiting.len() == before {
                    return None;
                }
                if traced {
                    touched.push(req);
                }
                p.full = false;
                p.waiting.is_empty().then_some(req)
            })
            .collect();
        let struck_puts: Vec<u64> = self
            .pending_multi_puts
            .iter_mut()
            .filter_map(|(&req, p)| {
                let before = p.waiting.len();
                p.waiting.retain(|&n| n != peer);
                if p.waiting.len() == before {
                    return None;
                }
                if traced {
                    touched.push(req);
                }
                p.waiting.is_empty().then_some(req)
            })
            .collect();
        for req in touched {
            self.trace_unwait(ctx, req, peer);
        }
        for req in struck_gets {
            let p = self.pending_multi_gets.remove(&req).expect("present");
            self.complete_multi_get(ctx, req, p);
        }
        for req in struck_puts {
            let p = self.pending_multi_puts.remove(&req).expect("present");
            self.complete_multi_put(ctx, req, p);
        }
    }

    /// The failure detector declared `peer` reachable again: re-fetch
    /// every read that was missing it, and re-deliver every acked write
    /// it still owes a storage confirmation for (the heal-recovery path —
    /// repair alone cannot restore a write no live owner ever received).
    fn peer_restored(&mut self, ctx: &mut Ctx<'_, DropletMsg>, peer: NodeId) {
        let mut refetches: Vec<(u64, u64, Version)> = Vec::new();
        for (&req, p) in &mut self.pending_gets {
            if let Some(pos) = p.unreached.iter().position(|&n| n == peer) {
                p.unreached.remove(pos);
                p.waiting.push(peer);
                refetches.push((req, p.key_hash, p.version));
            }
        }
        refetches.sort_unstable_by_key(|&(req, ..)| req);
        for (req, key_hash, version) in refetches {
            // A traced re-fetch opens a fresh wait span (the critical-path
            // walk credits the retry, not the first attempt).
            let trace = self.trace_wait(ctx, req, peer, "soft.fetch_wait");
            ctx.send(peer, DropletMsg::Fetch { req, key_hash, version, trace });
        }
        let mut owed: Vec<(u64, Version)> = self
            .undelivered
            .iter()
            .filter(|(_, u)| u.pending.contains(&peer))
            .map(|(&id, _)| id)
            .collect();
        // Deterministic order: versions of the same key must apply oldest
        // first so the receiver's store-changed accounting is replayable.
        owed.sort_unstable_by_key(|&(kh, v)| (kh, v.0));
        for id in owed {
            let tuple = self.undelivered[&id].tuple.clone();
            // Re-deliveries are untraced: the originating op was acked
            // (and its trace closed) long before the heal.
            self.enqueue_delivery(ctx, peer, tuple, None);
        }
    }

    /// Deduplicates gathered replica replies — latest version per key,
    /// tombstones dropped — and orders by attribute then key (the reply
    /// order of scans and tag-scoped reads alike).
    fn finalize_gather(items: Vec<StoredTuple>) -> Vec<StoredTuple> {
        let mut latest: HashMap<u64, StoredTuple> = HashMap::with_capacity(items.len());
        for t in items {
            match latest.get(&t.key_hash) {
                Some(e) if !t.supersedes(e) => {}
                _ => {
                    latest.insert(t.key_hash, t);
                }
            }
        }
        let mut out: Vec<StoredTuple> = latest.into_values().filter(|t| !t.deleted).collect();
        out.sort_by(|a, b| {
            a.attr
                .unwrap_or(f64::NAN)
                .total_cmp(&b.attr.unwrap_or(f64::NAN))
                .then(a.key.cmp(&b.key))
        });
        out
    }

    /// The persist nodes a tag-scoped read must contact: the tag's `r`
    /// slot-owners under tag placement, every persist peer otherwise.
    fn tag_read_targets(&self, tag_hash: u64) -> Vec<NodeId> {
        match self.placement {
            Some(placement) => placement.tag_targets(tag_hash, &self.persist_peers),
            None => self.persist_peers.clone(),
        }
    }

    fn start_read(&mut self, ctx: &mut Ctx<'_, DropletMsg>, req: u64, key: &Key) {
        let key_hash = key.hash();
        let latest = self.metadata.latest(key_hash);
        ctx.metrics().incr("soft.reads");
        if latest == Version::ZERO {
            // Key never written through this (healthy) soft layer.
            self.completed_gets.insert(req, None, &mut self.notices);
            self.trace_finish_op(ctx, req, true);
            return;
        }
        // §II: "the soft-layer always knows the most recent version … the
        // use of quorums at the persistent-state layer is not necessary."
        if let Some(t) = self.cache.get(key_hash, latest) {
            ctx.metrics().incr("soft.cache_hits");
            self.completed_gets.insert(req, (!t.deleted).then_some(t), &mut self.notices);
            self.trace_finish_op(ctx, req, true);
            return;
        }
        ctx.metrics().incr("soft.cache_misses");
        // Location hints first; random fallback otherwise.
        let mut targets: Vec<NodeId> = self.metadata.holders(key_hash).to_vec();
        if targets.is_empty() {
            let mut pool = self.persist_peers.clone();
            pool.shuffle(ctx.rng());
            pool.truncate(self.fallback_fetches);
            targets = pool;
            ctx.metrics().incr("soft.fallback_fetches");
        }
        if targets.is_empty() {
            self.completed_gets.insert(req, None, &mut self.notices);
            self.trace_finish_op(ctx, req, true);
            return;
        }
        // Fetch from the reachable replicas now; remember the unreachable
        // ones so a heal re-fetches instead of letting the op time out —
        // and never answer "not found" while one of them may hold the key.
        let (waiting, unreached): (Vec<NodeId>, Vec<NodeId>) =
            targets.into_iter().partition(|t| self.reachable.contains(t));
        for &t in &waiting {
            let trace = self.trace_wait(ctx, req, t, "soft.fetch_wait");
            ctx.send(t, DropletMsg::Fetch { req, key_hash, version: latest, trace });
        }
        self.pending_gets.insert(req, PendingGet { key_hash, version: latest, waiting, unreached });
    }

    /// Handles soft-layer messages; shared by the composite process.
    pub fn on_message(&mut self, ctx: &mut Ctx<'_, DropletMsg>, from: NodeId, msg: DropletMsg) {
        let me = ctx.id();
        match msg {
            DropletMsg::ClientPut { req, key, value, attr, tag, trace } => {
                if self.is_coordinator(me, key.hash()) {
                    let item = TupleSpec { key, value, attr, tag };
                    self.start_write(ctx, req, item, false, trace);
                } else if let Some(c) = self.coordinator_of(key.hash()) {
                    let trace = self.trace_hop(ctx, trace, "soft.forward");
                    ctx.send(c, DropletMsg::ClientPut { req, key, value, attr, tag, trace });
                }
            }
            DropletMsg::ClientDelete { req, key, trace } => {
                if self.is_coordinator(me, key.hash()) {
                    let item = TupleSpec { key, value: bytes::Bytes::new(), attr: None, tag: None };
                    self.start_write(ctx, req, item, true, trace);
                } else if let Some(c) = self.coordinator_of(key.hash()) {
                    let trace = self.trace_hop(ctx, trace, "soft.forward");
                    ctx.send(c, DropletMsg::ClientDelete { req, key, trace });
                }
            }
            DropletMsg::ClientGet { req, key, trace } => {
                if self.is_coordinator(me, key.hash()) {
                    self.trace_coord(ctx, req, trace, "soft.get");
                    self.start_read(ctx, req, &key);
                } else if let Some(c) = self.coordinator_of(key.hash()) {
                    let trace = self.trace_hop(ctx, trace, "soft.forward");
                    ctx.send(c, DropletMsg::ClientGet { req, key, trace });
                }
            }
            DropletMsg::ClientScan { req, lo, hi, trace } => {
                let targets = self.persist_peers.clone();
                self.trace_coord(ctx, req, trace, "soft.scan");
                if targets.is_empty() {
                    self.completed_scans.insert(req, Vec::new(), &mut self.notices);
                    self.trace_finish_op(ctx, req, true);
                    return;
                }
                self.pending_scans
                    .insert(req, PendingGather { outstanding: targets.len(), items: Vec::new() });
                for t in targets {
                    let trace = self.trace_wait(ctx, req, t, "soft.scan_wait");
                    ctx.send(t, DropletMsg::ScanReq { req, lo, hi, trace });
                }
            }
            DropletMsg::ClientMultiPut { req, items, trace } => {
                ctx.metrics().incr("soft.multi_puts");
                ctx.metrics().observe("multi_put.batch", items.len() as f64);
                self.trace_coord(ctx, req, trace, "soft.multi_put");
                if items.is_empty() {
                    self.completed_multi_puts.insert(
                        req,
                        MultiPutStatus::default(),
                        &mut self.notices,
                    );
                    self.trace_finish_op(ctx, req, true);
                    return;
                }
                let want = items.len();
                let started = ctx.now();
                let coord_trace = self.trace_ctx_of(req);
                let mut versions = Vec::new();
                let mut waiting = Vec::new();
                let mut forwards = 0u64;
                for item in items {
                    let key_hash = item.key.hash();
                    if self.is_coordinator(me, key_hash) {
                        let (kh, version) =
                            self.order_and_disseminate(ctx, item, false, coord_trace);
                        versions.push((kh, version));
                    } else if let Some(c) = self.coordinator_of(key_hash) {
                        if self.reachable.contains(&c) {
                            forwards += 1;
                            waiting.push(c);
                            let trace = self.trace_wait(ctx, req, c, "soft.subput_wait");
                            ctx.send(c, DropletMsg::SubPut { req, origin: me, item, trace });
                        }
                        // Known-dead coordinator: its items cannot be
                        // ordered now — don't wait out the deadline for
                        // an ack that will never come.
                    }
                }
                ctx.metrics().add("multi_put.msgs", forwards);
                let pending = PendingMultiPut { waiting, versions, want, started };
                if pending.waiting.is_empty() {
                    self.complete_multi_put(ctx, req, pending);
                } else {
                    self.pending_multi_puts.insert(req, pending);
                    ctx.set_timer(Duration(MULTI_OP_TIMEOUT), MULTI_OP_TIMER);
                }
            }
            DropletMsg::ClientMultiGet { req, tag, trace } => {
                let tag_hash = tag.hash();
                // Tag-scoped reads have a deterministic coordinator, like
                // keys: route by the tag's position in the soft ring.
                if !self.is_coordinator(me, tag_hash) {
                    if let Some(c) = self.coordinator_of(tag_hash) {
                        ctx.metrics().incr("soft.multi_get_forwards");
                        let trace = self.trace_hop(ctx, trace, "soft.forward");
                        ctx.send(c, DropletMsg::ClientMultiGet { req, tag, trace });
                    }
                    return;
                }
                ctx.metrics().incr("soft.multi_gets");
                self.trace_coord(ctx, req, trace, "soft.multi_get");
                let targets = self.tag_read_targets(tag_hash);
                // Only reachable slot-owners are contacted; skipping a
                // known-dead one marks the result partial immediately
                // instead of waiting out the deadline for it.
                let (waiting, skipped): (Vec<NodeId>, Vec<NodeId>) =
                    targets.into_iter().partition(|t| self.reachable.contains(t));
                ctx.metrics().observe("multi_get.contacted_nodes", waiting.len() as f64);
                ctx.metrics().add("multi_get.msgs", waiting.len() as u64);
                let full = skipped.is_empty();
                let pending =
                    PendingMultiGet { waiting, items: Vec::new(), full, started: ctx.now() };
                if pending.waiting.is_empty() {
                    // Nothing answerable: empty result, full only when
                    // there were no owners at all to ask.
                    self.complete_multi_get(ctx, req, pending);
                    return;
                }
                for &t in &pending.waiting {
                    let trace = self.trace_wait(ctx, req, t, "soft.tagfetch_wait");
                    ctx.send(t, DropletMsg::TagFetch { req, tag_hash, trace });
                }
                self.pending_multi_gets.insert(req, pending);
                // Deadline: when this fires, this request (and any older
                // one) is past its timeout and completes with whatever
                // arrived — a silently lost reply must not hang the read.
                ctx.set_timer(Duration(MULTI_OP_TIMEOUT), MULTI_OP_TIMER);
            }
            DropletMsg::SubPut { req, origin, item, trace } => {
                ctx.metrics().incr("soft.sub_puts");
                let (key_hash, version) = self.order_and_disseminate(ctx, item, false, trace);
                ctx.send(origin, DropletMsg::SubPutAck { req, key_hash, version });
            }
            DropletMsg::SubPutAck { req, key_hash, version } => {
                self.trace_reply(ctx, req, from);
                self.note_sub_put_ack(ctx, req, Some(from), key_hash, version);
            }
            DropletMsg::TagFetchReply { req, items } => {
                let Some(p) = self.pending_multi_gets.get_mut(&req) else { return };
                p.items.extend(items);
                if let Some(pos) = p.waiting.iter().position(|&n| n == from) {
                    p.waiting.remove(pos);
                }
                let done = p.waiting.is_empty();
                self.trace_reply(ctx, req, from);
                if done {
                    let p = self.pending_multi_gets.remove(&req).expect("present");
                    self.complete_multi_get(ctx, req, p);
                }
            }
            DropletMsg::ClientAggregate { req, trace } => {
                let targets = self.persist_peers.clone();
                self.trace_coord(ctx, req, trace, "soft.agg");
                if targets.is_empty() {
                    self.completed_aggs.insert(
                        req,
                        (dd_estimation::DistSketch::new(16), f64::INFINITY, f64::NEG_INFINITY),
                        &mut self.notices,
                    );
                    self.trace_finish_op(ctx, req, true);
                    return;
                }
                self.pending_aggs.insert(
                    req,
                    PendingAgg {
                        outstanding: targets.len(),
                        sketch: dd_estimation::DistSketch::new(512),
                        min: f64::INFINITY,
                        max: f64::NEG_INFINITY,
                    },
                );
                for t in targets {
                    let trace = self.trace_wait(ctx, req, t, "soft.agg_wait");
                    ctx.send(t, DropletMsg::AggReq { req, trace });
                }
            }
            DropletMsg::StoredAck { key_hash, version } => {
                self.note_stored(from, key_hash, version);
            }
            DropletMsg::StoredAckBatch { acked } => {
                for (key_hash, version) in acked {
                    self.note_stored(from, key_hash, version);
                }
            }
            DropletMsg::FetchReply { req, found } => {
                let Some(p) = self.pending_gets.get_mut(&req) else { return };
                if let Some(pos) = p.waiting.iter().position(|&n| n == from) {
                    p.waiting.remove(pos);
                }
                self.trace_reply(ctx, req, from);
                match found {
                    Some(t) => {
                        self.pending_gets.remove(&req);
                        self.metadata.add_holder(t.key_hash, t.version, from);
                        self.cache.put(t.key_hash, t.version, t.clone());
                        self.completed_gets.insert(
                            req,
                            (!t.deleted).then_some(t),
                            &mut self.notices,
                        );
                        self.trace_finish_op(ctx, req, true);
                    }
                    None => {
                        // Conclude "not found" only once every replica we
                        // could reach said no AND none is still dark — a
                        // dark replica may hold the write (read-your-writes
                        // over availability).
                        if self
                            .pending_gets
                            .get(&req)
                            .is_some_and(|p| p.waiting.is_empty() && p.unreached.is_empty())
                        {
                            self.pending_gets.remove(&req);
                            self.completed_gets.insert(req, None, &mut self.notices);
                            self.trace_finish_op(ctx, req, true);
                        }
                    }
                }
            }
            // A soft peer's reachability cannot move the persist estimate.
            DropletMsg::PeerDown(peer) if self.reachable.remove(&peer) => {
                if self.persist_peers.contains(&peer) {
                    self.refresh_fanout();
                }
                self.strike_peer(ctx, peer);
            }
            DropletMsg::PeerUp(peer) if self.reachable.insert(peer) => {
                if self.persist_peers.contains(&peer) {
                    self.refresh_fanout();
                }
                self.peer_restored(ctx, peer);
            }
            DropletMsg::ScanReply { req, items } => {
                let Some(p) = self.pending_scans.get_mut(&req) else { return };
                p.items.extend(items);
                p.outstanding -= 1;
                let done = p.outstanding == 0;
                self.trace_reply(ctx, req, from);
                if done {
                    let p = self.pending_scans.remove(&req).expect("present");
                    self.completed_scans.insert(
                        req,
                        Self::finalize_gather(p.items),
                        &mut self.notices,
                    );
                    self.trace_finish_op(ctx, req, true);
                }
            }
            DropletMsg::AggReply { req, sketch, min, max } => {
                let Some(p) = self.pending_aggs.get_mut(&req) else { return };
                p.sketch.merge(&sketch);
                p.min = p.min.min(min);
                p.max = p.max.max(max);
                p.outstanding -= 1;
                let done = p.outstanding == 0;
                self.trace_reply(ctx, req, from);
                if done {
                    let p = self.pending_aggs.remove(&req).expect("present");
                    self.completed_aggs.insert(req, (p.sketch, p.min, p.max), &mut self.notices);
                    self.trace_finish_op(ctx, req, true);
                }
            }
            _ => {}
        }
    }

    /// Handles the multi-op deadline sweep: every pending multi-get and
    /// multi-put older than [`MULTI_OP_TIMEOUT`] completes with what it
    /// gathered so far (each op's own timer fires exactly at its expiry,
    /// so this never cuts a request short).
    pub fn on_timer(&mut self, ctx: &mut Ctx<'_, DropletMsg>, tag: TimerTag) {
        if tag == BATCH_TIMER {
            self.flush_outbox(ctx);
            return;
        }
        if tag != MULTI_OP_TIMER {
            return;
        }
        let now = ctx.now();
        let past_deadline = |started: Time| now.0.saturating_sub(started.0) >= MULTI_OP_TIMEOUT;
        let expired_gets: Vec<u64> = self
            .pending_multi_gets
            .iter()
            .filter(|(_, p)| past_deadline(p.started))
            .map(|(&req, _)| req)
            .collect();
        for req in expired_gets {
            let mut p = self.pending_multi_gets.remove(&req).expect("present");
            p.full = false;
            self.complete_multi_get(ctx, req, p);
        }
        let expired_puts: Vec<u64> = self
            .pending_multi_puts
            .iter()
            .filter(|(_, p)| past_deadline(p.started))
            .map(|(&req, _)| req)
            .collect();
        for req in expired_puts {
            let p = self.pending_multi_puts.remove(&req).expect("present");
            self.complete_multi_put(ctx, req, p);
        }
    }

    /// Re-arms the multi-op deadline sweep after a reboot: armed timers
    /// do not survive a crash, but pending multi-ops do (node state is
    /// retained), so without this any op in flight at crash time would
    /// neither complete nor expire.
    pub fn arm_timers(&mut self, ctx: &mut Ctx<'_, DropletMsg>) {
        if !self.pending_multi_gets.is_empty() || !self.pending_multi_puts.is_empty() {
            ctx.set_timer(Duration(MULTI_OP_TIMEOUT), MULTI_OP_TIMER);
        }
        if !self.outbox.is_empty() {
            self.outbox_armed = true;
            ctx.set_timer(Duration(BATCH_FLUSH_TICKS), BATCH_TIMER);
        } else {
            self.outbox_armed = false;
        }
    }

    /// Wipes all soft state (catastrophic failure, §II) — versions,
    /// metadata, cache, pending operations, delivery queues — and resets
    /// the failure-detector view to its optimistic baseline (the harness
    /// re-injects down notices for anything still dead).
    pub fn wipe(&mut self) {
        self.authority = VersionAuthority::new();
        self.metadata = Metadata::new(8);
        self.cache.clear();
        self.put_index.clear();
        self.pending_gets.clear();
        self.pending_scans.clear();
        self.pending_aggs.clear();
        self.pending_multi_puts.clear();
        self.pending_multi_gets.clear();
        self.outbox.clear();
        self.outbox_armed = false;
        self.trace_ops.clear();
        self.trace_waits.clear();
        self.undelivered.clear();
        self.undelivered_order.clear();
        self.reachable = self.known_peers.iter().copied().collect();
        self.refresh_fanout();
    }

    /// Reconstructs metadata and version counters from a persistent-layer
    /// scan (§II: "metadata can be reconstructed from the data reliably
    /// stored at the underlying persistent-state layer").
    pub fn reconstruct(&mut self, scan: impl IntoIterator<Item = (u64, Version, NodeId)>) {
        let scan: Vec<(u64, Version, NodeId)> = scan.into_iter().collect();
        self.metadata = Metadata::rebuild(8, scan.iter().copied());
        for &(key, version, _) in &scan {
            self.authority.observe(key, version);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coordinator_is_consistent_across_nodes() {
        let members: Vec<NodeId> = (0..4).map(NodeId).collect();
        let nodes: Vec<SoftNode> = (0..4).map(|_| SoftNode::new(&members, vec![], 4, 16)).collect();
        for k in 0..100u64 {
            let c0 = nodes[0].coordinator_of(k);
            for n in &nodes {
                assert_eq!(n.coordinator_of(k), c0);
            }
        }
    }

    /// The O(r) owner lookup names exactly the persist peers that a scan
    /// of every peer's concrete sieve accepts, element for element and in
    /// ascending persist order (the send order replay depends on).
    #[test]
    fn owner_lookup_equals_the_linear_sieve_scan() {
        use crate::cluster::Placement;
        use dd_sieve::{RangeSieve, Sieve, TagSieve, UniformSieve};
        let members = [NodeId(0)];
        for placement in [Placement::RangePartition, Placement::Uniform, Placement::TagCollocation]
        {
            for n in [1u64, 2, 7, 40] {
                let peers: Vec<NodeId> = (0..n).map(|i| NodeId(100 + i)).collect();
                for r in [1u32, 2, 3, 5, 41] {
                    let view = PlacementView::new(placement, n, r);
                    let node = SoftNode::new(&members, peers.clone(), 4, 16).with_placement(view);
                    let sieves: Vec<Box<dyn Sieve>> = (0..n)
                        .map(|i| -> Box<dyn Sieve> {
                            match placement {
                                Placement::RangePartition => {
                                    Box::new(RangeSieve::partition(i, n, r))
                                }
                                Placement::Uniform => {
                                    Box::new(UniformSieve::replication(peers[i as usize].0, r, n))
                                }
                                Placement::TagCollocation => Box::new(TagSieve::new(i, n, r)),
                            }
                        })
                        .collect();
                    for k in 0..300u32 {
                        let tag = (k % 2 == 0).then(|| format!("feed:{}", k % 17));
                        let key = Key::new(format!("key:{k}"));
                        let tuple = StoredTuple::new(key, Version(1), vec![], None, tag.as_deref());
                        let meta = tuple.item_meta();
                        let scanned: Vec<NodeId> = peers
                            .iter()
                            .zip(&sieves)
                            .filter(|(_, s)| s.accepts(&meta))
                            .map(|(&p, _)| p)
                            .collect();
                        let owners = node.owners_of(&view, &tuple);
                        assert_eq!(owners, scanned, "{placement:?} n {n} r {r} tuple {k}");
                    }
                    let tombstone = StoredTuple::tombstone(Key::new("gone"), Version(2));
                    assert_eq!(
                        node.owners_of(&view, &tombstone),
                        peers,
                        "tombstones go everywhere"
                    );
                }
            }
        }
    }

    /// Merging the shared table gives the fanout that redrawing every
    /// reachable peer's vector gave, at every reachable population.
    #[test]
    fn shared_extrema_table_matches_fresh_draws() {
        let fresh = |reachable: &[NodeId]| {
            let mut merged: Option<ExtremaEstimator> = None;
            for p in reachable {
                let v = ExtremaEstimator::generate(&mut stream_rng(EXTREMA_SALT, p.0), EXTREMA_K);
                match merged.as_mut() {
                    Some(m) => {
                        m.merge(&v);
                    }
                    None => merged = Some(v),
                }
            }
            let n = merged.map_or(1.0, |m| m.estimate()).max(1.0).round() as u64;
            required_fanout(n, 0.999)
        };
        let peers: Vec<NodeId> = (10..70).map(NodeId).collect();
        let table = Arc::new(ExtremaTable::new(&peers));
        let mut node =
            SoftNode::new(&[NodeId(0)], peers.clone(), 4, 16).with_adaptive_fanout(table);
        assert_eq!(node.fanout, fresh(&peers));
        let mut seen = HashSet::new();
        for k in 0..peers.len() {
            node.reachable.remove(&peers[k]);
            node.refresh_fanout();
            assert_eq!(node.fanout, fresh(&peers[k + 1..]), "{} reachable", peers.len() - k - 1);
            seen.insert(node.fanout);
        }
        assert!(seen.len() > 2, "the fanout moved with the population: {seen:?}");
    }

    #[test]
    fn completion_log_retires_oldest_beyond_cap() {
        let mut log = CompletionLog::new(4);
        let mut notices = Notices::default();
        for req in 1..=10u64 {
            let evicted = log.insert(req, req * 10, &mut notices);
            if req > 4 {
                assert_eq!(evicted, Some((req - 4, (req - 4) * 10)), "oldest entry retires");
            } else {
                assert_eq!(evicted, None);
            }
        }
        assert_eq!(log.len(), 4);
        assert_eq!(log.take(9), Some(90));
        assert_eq!(log.take(9), None, "harvest retires the record");
        assert_eq!(log.take(1), None, "pre-cap entries were retired");
        assert_eq!(notices.reqs, (1..=10).collect::<Vec<_>>(), "one notice per new record");
    }

    #[test]
    fn completion_notice_posts_once_per_record_and_rings_the_bell() {
        let bell = Arc::new(AtomicBool::new(false));
        let mut n = SoftNode::new(&[NodeId(0)], vec![], 4, 16).with_completion_bell(bell.clone());
        n.completed_gets.insert(7, None, &mut n.notices);
        assert!(bell.load(Ordering::Relaxed), "a new record rings the bell");
        bell.store(false, Ordering::Relaxed);
        n.completed_gets.insert(7, None, &mut n.notices);
        assert!(!bell.load(Ordering::Relaxed), "an in-place update posts nothing");
        n.completed_scans.insert(8, Vec::new(), &mut n.notices);
        assert_eq!(n.drain_notices().collect::<Vec<_>>(), vec![7, 8], "one list for every log");
        assert_eq!(n.drain_notices().count(), 0, "collected notices are gone");
    }

    #[test]
    fn completion_log_order_queue_stays_compact_under_harvest() {
        let mut log = CompletionLog::new(64);
        let mut notices = Notices::default();
        for req in 0..10_000u64 {
            log.insert(req, req, &mut notices);
            assert_eq!(log.take(req), Some(req));
            assert!(log.order.len() <= 2 * log.map.len() + 17, "lazy compaction bounds the queue");
        }
        assert_eq!(log.len(), 0);
    }

    #[test]
    fn retiring_a_put_completion_releases_its_ack_route() {
        use rand::SeedableRng;
        let members = vec![NodeId(0)];
        let mut n = SoftNode::new(&members, vec![], 4, 16);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
        let mut metrics = dd_sim::Metrics::new();
        // Drive writes far past the cap without ever harvesting.
        dd_sim::engine::with_adhoc_ctx::<DropletMsg, _>(
            NodeId(0),
            Time(0),
            &mut rng,
            &mut metrics,
            |ctx| {
                for i in 0..(COMPLETION_RETENTION as u64 + 100) {
                    let spec = crate::tuple::TupleSpec::new(format!("k{i}"), vec![], None, None);
                    n.start_write(ctx, i, spec, false, None);
                }
            },
        );
        assert_eq!(n.completed_puts.len(), COMPLETION_RETENTION, "completions capped");
        assert!(n.put_index.len() <= COMPLETION_RETENTION, "ack index retired with them");
    }

    #[test]
    fn wipe_and_reconstruct_restores_versions() {
        let members = vec![NodeId(0)];
        let mut n = SoftNode::new(&members, vec![], 4, 16);
        // Simulate three writes' worth of authority state.
        let kh = Key::from("k").hash();
        n.authority.assign(kh);
        n.authority.assign(kh);
        n.metadata.record_write(kh, Version(2), &[NodeId(7)]);
        n.wipe();
        assert_eq!(n.metadata.latest(kh), Version::ZERO);
        n.reconstruct(vec![(kh, Version(2), NodeId(7))]);
        assert_eq!(n.metadata.latest(kh), Version(2));
        assert_eq!(n.metadata.holders(kh), &[NodeId(7)]);
        assert_eq!(n.authority.assign(kh), Version(3), "versions continue after rebuild");
    }
}
