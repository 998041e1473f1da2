//! Typed, pipelined client sessions (the client plane of §II).
//!
//! A [`Client`] is a session against a [`Cluster`]: every operation
//! returns immediately with a typed [`Pending<K>`] completion handle, so
//! one session can keep thousands of operations outstanding while
//! [`Cluster::pump`] advances virtual time. Completions are harvested
//! non-blockingly with [`Client::poll`] (one handle) or in bulk with
//! [`Client::drain`] (everything ready), and every completion is a
//! `Result<T, OpError>` — timeouts, partial batches and a dead entry tier
//! are errors, distinct from an ordinary "key absent" read.
//!
//! A harvest costs O(ops that completed or expired), not O(outstanding ×
//! soft nodes). A soft node posts a notice when it inserts a completion
//! record; the cluster moves the notices into its completion index
//! (`(session, req) → holder`), so a session finds its ready ops without
//! looking at the rest and fetches each record from the one node holding
//! it. There is one record per request, and every insert posts a notice,
//! so before [`OP_TIMEOUT`] "a record exists" and "the indexed holder has
//! it" agree. Past it, the op falls back to probing every soft node and
//! then times out — a harvest still wins over a timeout, and a record the
//! retention cap evicted surfaces as [`OpError::Timeout`].
//!
//! ```
//! use dd_core::{Cluster, ClusterConfig};
//!
//! let mut cluster = Cluster::new(ClusterConfig::small(), 42);
//! cluster.settle();
//! let mut client = cluster.client();
//! // Pipelined: both writes are in flight at once.
//! let a = client.put(&mut cluster, "user:1", b"alice".to_vec(), None, None);
//! let b = client.put(&mut cluster, "user:2", b"bob".to_vec(), None, None);
//! let a = client.recv(&mut cluster, a).expect("write ordered");
//! let b = client.recv(&mut cluster, b).expect("write ordered");
//! assert_eq!(u64::from(a.version.0) + u64::from(b.version.0), 2);
//! ```

use crate::cluster::{
    AggregateResult, Cluster, DropletNode, GetResult, MultiGetResult, MultiPutResult, PutResult,
};
use crate::msg::DropletMsg;
use crate::soft::SoftNode;
use crate::tuple::{Key, StoredTuple, Tag, TupleSpec};
use bytes::Bytes;
use dd_audit::{OpDesc, OpFailure, Outcome};
use dd_sim::{NodeId, Time, TraceCtx};
use rand::rngs::SmallRng;
use std::collections::BTreeMap;
use std::fmt;
use std::marker::PhantomData;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// Virtual ticks an operation may stay outstanding before the session
/// reports [`OpError::Timeout`] (the old lock-step wait window, kept so a
/// dead coordinator surfaces as an error rather than a hang).
pub const OP_TIMEOUT: u64 = 10_000;

/// Virtual-time quantum [`Client::recv`] advances between polls.
const RECV_QUANTUM: u64 = 50;

/// Why a client operation did not produce a result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpError {
    /// No completion within [`OP_TIMEOUT`] virtual ticks of submission —
    /// e.g. the key's soft coordinator died mid-operation.
    Timeout {
        /// The replica the operation was still waiting on when it timed
        /// out, per the soft tier's pending-op tables (`None` when no
        /// soft node held pending state — e.g. the coordinator itself
        /// was dead, or the op never reached one).
        waiting_on: Option<NodeId>,
    },
    /// A batched operation completed with fewer items than submitted
    /// (dead or unreachable key coordinators were given up on).
    PartialResult {
        /// Items that completed.
        got: usize,
        /// Items submitted.
        want: usize,
    },
    /// No live soft node existed to accept the operation at submission.
    NoLiveEntry,
    /// The session has no record of this operation: its completion was
    /// already harvested (by `poll`, `recv` or a `drain` sweep), or the
    /// handle came from a different session.
    AlreadyHarvested,
}

impl fmt::Display for OpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpError::Timeout { waiting_on: Some(n) } => {
                write!(f, "operation timed out after {OP_TIMEOUT} ticks waiting on node {}", n.0)
            }
            OpError::Timeout { waiting_on: None } => {
                write!(f, "operation timed out after {OP_TIMEOUT} ticks")
            }
            OpError::PartialResult { got, want } => {
                write!(f, "batched operation completed {got} of {want} items")
            }
            OpError::NoLiveEntry => write!(f, "no live soft node to accept the operation"),
            OpError::AlreadyHarvested => {
                write!(f, "operation already harvested or unknown to this session")
            }
        }
    }
}

impl std::error::Error for OpError {}

mod sealed {
    /// Prevents downstream [`super::OpKind`] impls: the op set is the
    /// protocol's, not the caller's.
    pub trait Sealed {}
}

/// One operation kind of the client plane. Implemented only by the
/// markers in [`ops`]; the associated `Output` is what a successful
/// completion carries.
pub trait OpKind: sealed::Sealed {
    /// Payload of a successful completion.
    type Output;
    #[doc(hidden)]
    const KIND: Kind;
    #[doc(hidden)]
    fn take(soft: &mut SoftNode, req: u64) -> Option<Self::Output>;
    #[doc(hidden)]
    fn finish(raw: Self::Output, _want: usize) -> Result<Self::Output, OpError> {
        Ok(raw)
    }
    /// The audit-history projection of a harvested completion (built only
    /// when a recorder is installed — see [`Cluster::begin_audit`]).
    #[doc(hidden)]
    fn audit(raw: &Self::Output, want: usize) -> Outcome;
}

/// Marker types naming each operation kind (the `K` of [`Pending<K>`]).
pub mod ops {
    /// A single write ([`super::Client::put`]).
    #[derive(Debug, Clone, Copy)]
    pub enum Put {}
    /// A single read ([`super::Client::get`]).
    #[derive(Debug, Clone, Copy)]
    pub enum Get {}
    /// A versioned delete ([`super::Client::delete`]).
    #[derive(Debug, Clone, Copy)]
    pub enum Delete {}
    /// An attribute range scan ([`super::Client::scan`]).
    #[derive(Debug, Clone, Copy)]
    pub enum Scan {}
    /// A cluster-wide aggregate ([`super::Client::aggregate`]).
    #[derive(Debug, Clone, Copy)]
    pub enum Aggregate {}
    /// A batched write ([`super::Client::multi_put`]).
    #[derive(Debug, Clone, Copy)]
    pub enum MultiPut {}
    /// A tag-scoped read ([`super::Client::multi_get`]).
    #[derive(Debug, Clone, Copy)]
    pub enum MultiGet {}
}

/// Runtime tag mirroring the [`ops`] markers, used by [`Client::drain`]
/// to harvest without knowing static types.
#[doc(hidden)]
#[allow(missing_docs)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Put,
    Get,
    Delete,
    Scan,
    Aggregate,
    MultiPut,
    MultiGet,
}

/// Harvests one completion through kind `K`'s [`OpKind`] impl — the
/// single source of take/finish semantics for both the typed
/// ([`Client::poll`]) and runtime ([`Client::drain`]) paths. When `audit`
/// is set, the completion's history projection is extracted from the raw
/// record *before* `finish` consumes it (a partially ordered batch still
/// audits its per-item versions).
fn harvest<K: OpKind, R>(
    soft: &mut SoftNode,
    req: u64,
    want: usize,
    audit: bool,
    wrap: fn(Result<K::Output, OpError>) -> R,
) -> Option<(R, Option<Outcome>)> {
    K::take(soft, req).map(|raw| {
        let outcome = audit.then(|| K::audit(&raw, want));
        (wrap(K::finish(raw, want)), outcome)
    })
}

impl Kind {
    /// Probes one soft node for this kind's completion of `req`.
    fn take(
        self,
        soft: &mut SoftNode,
        req: u64,
        want: usize,
        audit: bool,
    ) -> Option<(Completion, Option<Outcome>)> {
        match self {
            Kind::Put => harvest::<ops::Put, _>(soft, req, want, audit, Completion::Put),
            Kind::Delete => harvest::<ops::Delete, _>(soft, req, want, audit, Completion::Delete),
            Kind::Get => harvest::<ops::Get, _>(soft, req, want, audit, Completion::Get),
            Kind::Scan => harvest::<ops::Scan, _>(soft, req, want, audit, Completion::Scan),
            Kind::Aggregate => {
                harvest::<ops::Aggregate, _>(soft, req, want, audit, Completion::Aggregate)
            }
            Kind::MultiPut => {
                harvest::<ops::MultiPut, _>(soft, req, want, audit, Completion::MultiPut)
            }
            Kind::MultiGet => {
                harvest::<ops::MultiGet, _>(soft, req, want, audit, Completion::MultiGet)
            }
        }
    }

    /// The root span label of this kind's trace.
    fn trace_label(self) -> &'static str {
        match self {
            Kind::Put => "client.put",
            Kind::Get => "client.get",
            Kind::Delete => "client.delete",
            Kind::Scan => "client.scan",
            Kind::Aggregate => "client.aggregate",
            Kind::MultiPut => "client.multi_put",
            Kind::MultiGet => "client.multi_get",
        }
    }

    /// The failed completion of this kind.
    fn failed(self, err: OpError) -> Completion {
        match self {
            Kind::Put => Completion::Put(Err(err)),
            Kind::Delete => Completion::Delete(Err(err)),
            Kind::Get => Completion::Get(Err(err)),
            Kind::Scan => Completion::Scan(Err(err)),
            Kind::Aggregate => Completion::Aggregate(Err(err)),
            Kind::MultiPut => Completion::MultiPut(Err(err)),
            Kind::MultiGet => Completion::MultiGet(Err(err)),
        }
    }
}

impl sealed::Sealed for ops::Put {}
impl OpKind for ops::Put {
    type Output = PutResult;
    const KIND: Kind = Kind::Put;
    fn take(soft: &mut SoftNode, req: u64) -> Option<PutResult> {
        soft.take_put(req)
    }
    fn audit(raw: &PutResult, _want: usize) -> Outcome {
        Outcome::Write { version: raw.version }
    }
}

impl sealed::Sealed for ops::Delete {}
impl OpKind for ops::Delete {
    type Output = PutResult;
    const KIND: Kind = Kind::Delete;
    fn take(soft: &mut SoftNode, req: u64) -> Option<PutResult> {
        soft.take_put(req)
    }
    fn audit(raw: &PutResult, _want: usize) -> Outcome {
        Outcome::Write { version: raw.version }
    }
}

impl sealed::Sealed for ops::Get {}
impl OpKind for ops::Get {
    type Output = Option<GetResult>;
    const KIND: Kind = Kind::Get;
    fn take(soft: &mut SoftNode, req: u64) -> Option<Option<GetResult>> {
        soft.take_get(req)
    }
    fn audit(raw: &Option<GetResult>, _want: usize) -> Outcome {
        Outcome::Read { version: raw.as_ref().map(|t| t.version) }
    }
}

impl sealed::Sealed for ops::Scan {}
impl OpKind for ops::Scan {
    type Output = Vec<StoredTuple>;
    const KIND: Kind = Kind::Scan;
    fn take(soft: &mut SoftNode, req: u64) -> Option<Vec<StoredTuple>> {
        soft.take_scan(req)
    }
    fn audit(raw: &Vec<StoredTuple>, _want: usize) -> Outcome {
        Outcome::Scan { tuples: raw.len() as u64 }
    }
}

impl sealed::Sealed for ops::Aggregate {}
impl OpKind for ops::Aggregate {
    type Output = AggregateResult;
    const KIND: Kind = Kind::Aggregate;
    fn take(soft: &mut SoftNode, req: u64) -> Option<AggregateResult> {
        soft.take_agg(req).map(|(sketch, min, max)| AggregateResult::from_parts(sketch, min, max))
    }
    fn audit(_raw: &AggregateResult, _want: usize) -> Outcome {
        Outcome::Aggregate
    }
}

impl sealed::Sealed for ops::MultiPut {}
impl OpKind for ops::MultiPut {
    type Output = MultiPutResult;
    const KIND: Kind = Kind::MultiPut;
    fn take(soft: &mut SoftNode, req: u64) -> Option<MultiPutResult> {
        soft.take_multi_put(req)
    }
    fn finish(raw: MultiPutResult, want: usize) -> Result<MultiPutResult, OpError> {
        if raw.items < want {
            Err(OpError::PartialResult { got: raw.items, want })
        } else {
            Ok(raw)
        }
    }
    fn audit(raw: &MultiPutResult, want: usize) -> Outcome {
        Outcome::MultiPut { versions: raw.versions.clone(), want: want as u32 }
    }
}

impl sealed::Sealed for ops::MultiGet {}
impl OpKind for ops::MultiGet {
    type Output = MultiGetResult;
    const KIND: Kind = Kind::MultiGet;
    fn take(soft: &mut SoftNode, req: u64) -> Option<MultiGetResult> {
        soft.take_multi_get(req).map(|(items, complete)| MultiGetResult { items, complete })
    }
    fn audit(raw: &MultiGetResult, _want: usize) -> Outcome {
        Outcome::MultiGet {
            items: raw.items.iter().map(|t| (t.key.as_str().to_owned(), t.version)).collect(),
            complete: raw.complete,
        }
    }
}

/// A typed completion handle: proof that operation `req` of kind `K` was
/// submitted. Harvest it with [`Client::poll`] (non-blocking) or
/// [`Client::recv`] (drives time). The phantom kind makes cross-kind
/// mix-ups — the old untyped plane let a put's req id be harvested as a
/// read — a type error.
pub struct Pending<K: OpKind> {
    req: u64,
    _kind: PhantomData<fn() -> K>,
}

impl<K: OpKind> Pending<K> {
    fn new(req: u64) -> Self {
        Pending { req, _kind: PhantomData }
    }

    /// The cluster-unique request id (correlates with [`Client::drain`]).
    #[must_use]
    pub fn req(&self) -> u64 {
        self.req
    }
}

impl<K: OpKind> fmt::Debug for Pending<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Pending({}, {:?})", self.req, K::KIND)
    }
}

impl<K: OpKind> Clone for Pending<K> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<K: OpKind> Copy for Pending<K> {}

/// A harvested completion, as surfaced by [`Client::drain`]: one variant
/// per op kind, each carrying the kind's `Result<T, OpError>`.
#[derive(Debug, Clone)]
pub enum Completion {
    /// A write completed.
    Put(Result<PutResult, OpError>),
    /// A read completed (`Ok(None)` = key absent).
    Get(Result<Option<GetResult>, OpError>),
    /// A delete completed.
    Delete(Result<PutResult, OpError>),
    /// A scan completed.
    Scan(Result<Vec<StoredTuple>, OpError>),
    /// An aggregate completed.
    Aggregate(Result<AggregateResult, OpError>),
    /// A batched write completed.
    MultiPut(Result<MultiPutResult, OpError>),
    /// A tag-scoped read completed.
    MultiGet(Result<MultiGetResult, OpError>),
}

impl Completion {
    /// Whether this completion carries a success.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        self.err().is_none()
    }

    /// The error, if this completion failed.
    #[must_use]
    pub fn err(&self) -> Option<OpError> {
        match self {
            Completion::Put(r) | Completion::Delete(r) => r.as_ref().err().copied(),
            Completion::Get(r) => r.as_ref().err().copied(),
            Completion::Scan(r) => r.as_ref().err().copied(),
            Completion::MultiGet(r) => r.as_ref().err().copied(),
            Completion::Aggregate(r) => r.as_ref().err().copied(),
            Completion::MultiPut(r) => r.as_ref().err().copied(),
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Outstanding {
    kind: Kind,
    issued: Time,
    /// Batch size for multi-puts (what `items` must reach for `Ok`).
    want: usize,
    /// Submission found no live entry node; completes as `NoLiveEntry`.
    stillborn: bool,
}

/// Whether an op issued at `issued` is past [`OP_TIMEOUT`] at `now`.
fn past_timeout(issued: Time, now: Time) -> bool {
    now.since(issued).0 >= OP_TIMEOUT
}

/// The cluster's completion index: where each session's ready operations
/// are. Soft nodes post a notice per new completion record and ring
/// `bell`; [`Cluster::collect_completions`] routes the notices here
/// through `owners`. Entries leave on harvest, and once their operation
/// is past [`OP_TIMEOUT`] (such an op probes every soft node anyway), so
/// the index stays bounded for abandoned sessions as the soft logs do.
#[derive(Debug, Default)]
pub(crate) struct CompletionIndex {
    /// Shared with every soft node; set when one posts a notice. Only
    /// ever touched through `&mut Cluster`, on one thread, so `Relaxed`
    /// suffices: it is atomic so that soft nodes stay `Send`.
    pub(crate) bell: Arc<AtomicBool>,
    /// Outstanding operations not yet past [`OP_TIMEOUT`]: req →
    /// (session, issued). Request ids and issue times grow together, so
    /// the expired entries are always a prefix.
    owners: BTreeMap<u64, (u64, Time)>,
    /// Ready operations: (session, req) → the soft node holding the
    /// record (`None` for a stillborn op: nothing to fetch).
    ready: BTreeMap<(u64, u64), Option<NodeId>>,
}

impl CompletionIndex {
    fn submitted(&mut self, session: u64, req: u64, issued: Time, stillborn: bool) {
        self.owners.insert(req, (session, issued));
        if stillborn {
            self.ready.insert((session, req), None);
        }
    }

    /// `holder` inserted the completion record of `req`. Notices for
    /// requests no longer indexed (harvested or expired) are dropped.
    pub(crate) fn notice(&mut self, req: u64, holder: NodeId) {
        if let Some(&(session, _)) = self.owners.get(&req) {
            self.ready.insert((session, req), Some(holder));
        }
    }

    /// Drops the entries of every operation past [`OP_TIMEOUT`].
    pub(crate) fn prune(&mut self, now: Time) {
        while let Some(entry) = self.owners.first_entry() {
            let (session, issued) = *entry.get();
            if !past_timeout(issued, now) {
                break;
            }
            self.ready.remove(&(session, entry.remove_entry().0));
        }
    }

    fn retire(&mut self, session: u64, req: u64) {
        self.owners.remove(&req);
        self.ready.remove(&(session, req));
    }

    fn holder(&self, session: u64, req: u64) -> Option<NodeId> {
        self.ready.get(&(session, req)).copied().flatten()
    }

    /// `session`'s ready requests, ascending.
    fn ready_reqs(&self, session: u64) -> impl Iterator<Item = u64> + '_ {
        self.ready.range((session, 0)..=(session, u64::MAX)).map(|(&(_, req), _)| req)
    }

    /// Indexed entries (outstanding plus ready) — the bound tests check.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.owners.len() + self.ready.len()
    }
}

/// A client session against one [`Cluster`].
///
/// Obtained from [`Cluster::client`]; each session owns a private RNG
/// stream for entry-node selection (so sessions are independent and the
/// whole run replays from the seed) and tracks its outstanding
/// operations. Many sessions can run concurrently, each holding many
/// in-flight operations — the pipelined client plane the paper's
/// million-user workloads need.
///
/// ```
/// use dd_core::{Cluster, ClusterConfig, OpError};
///
/// let mut cluster = Cluster::new(ClusterConfig::small(), 7);
/// cluster.settle();
/// let mut client = cluster.client();
/// let w = client.put(&mut cluster, "k", b"v".to_vec(), None, None);
/// assert!(client.recv(&mut cluster, w).is_ok());
/// // Reads distinguish "absent" (Ok(None)) from failure (Err(..)).
/// let r = client.get(&mut cluster, "nope");
/// assert_eq!(client.recv(&mut cluster, r), Ok(None));
/// let s = client.scan(&mut cluster, 0.0, 1.0);
/// assert!(matches!(client.recv(&mut cluster, s), Ok(items) if items.is_empty()));
/// # let _: fn(OpError) = |e| match e { OpError::Timeout { .. } => {}, _ => {} };
/// ```
#[derive(Debug)]
pub struct Client {
    session: u64,
    rng: SmallRng,
    /// Submitted and not yet harvested, in request order.
    outstanding: BTreeMap<u64, Outstanding>,
}

impl Client {
    pub(crate) fn new(session: u64, rng: SmallRng) -> Self {
        Client { session, rng, outstanding: BTreeMap::new() }
    }

    /// This session's id (unique per cluster).
    #[must_use]
    pub fn session(&self) -> u64 {
        self.session
    }

    /// Operations submitted and not yet harvested.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.outstanding.len()
    }

    fn submit(
        &mut self,
        cluster: &mut Cluster,
        kind: Kind,
        want: usize,
        make: impl FnOnce(u64, Option<TraceCtx>) -> DropletMsg,
    ) -> u64 {
        let req = cluster.fresh_req();
        let issued = cluster.sim.now();
        cluster.collect_completions();
        let stillborn = match cluster.entry_for(&mut self.rng) {
            Some(entry) => {
                // Traced runs open the op's root span (always id 0) at the
                // entry node; everything downstream nests under it.
                let trace = cluster.sim.tracer_mut().map(|tr| {
                    let span = tr.open(issued, entry, req, None, kind.trace_label());
                    TraceCtx { op: req, span }
                });
                cluster.sim.inject(entry, entry, make(req, trace));
                false
            }
            None => true,
        };
        cluster.completions.submitted(self.session, req, issued, stillborn);
        self.outstanding.insert(req, Outstanding { kind, issued, want, stillborn });
        req
    }

    /// Records the invocation half of an audit pair (no-op without a
    /// recorder; the descriptor is built lazily so the disabled path
    /// allocates nothing).
    fn record_invoke(&self, cluster: &mut Cluster, req: u64, desc: impl FnOnce() -> OpDesc) {
        if cluster.audit_enabled() {
            cluster.record_invoke(req, self.session, desc());
        }
    }

    /// Submits a write; completes with the assigned version and the
    /// storage acks counted so far.
    pub fn put(
        &mut self,
        cluster: &mut Cluster,
        key: impl Into<Key>,
        value: Vec<u8>,
        attr: Option<f64>,
        tag: Option<&str>,
    ) -> Pending<ops::Put> {
        let (key, value, tag) = (key.into(), Bytes::from(value), tag.map(Tag::from));
        let audit = cluster.audit_enabled().then(|| OpDesc::Put {
            key: key.as_str().to_owned(),
            tag: tag.as_ref().map(|t| t.as_str().to_owned()),
        });
        let req = self.submit(cluster, Kind::Put, 0, |req, trace| DropletMsg::ClientPut {
            req,
            key,
            value,
            attr,
            tag,
            trace,
        });
        if let Some(desc) = audit {
            cluster.record_invoke(req, self.session, desc);
        }
        Pending::new(req)
    }

    /// Submits a read; completes with `Ok(None)` when the key was never
    /// written (or is deleted) — distinct from `Err(OpError::Timeout)`.
    pub fn get(&mut self, cluster: &mut Cluster, key: impl Into<Key>) -> Pending<ops::Get> {
        let key = key.into();
        let audit = cluster.audit_enabled().then(|| OpDesc::Get { key: key.as_str().to_owned() });
        let req = self.submit(cluster, Kind::Get, 0, |req, trace| DropletMsg::ClientGet {
            req,
            key,
            trace,
        });
        if let Some(desc) = audit {
            cluster.record_invoke(req, self.session, desc);
        }
        Pending::new(req)
    }

    /// Submits a delete (a versioned tombstone).
    pub fn delete(&mut self, cluster: &mut Cluster, key: impl Into<Key>) -> Pending<ops::Delete> {
        let key = key.into();
        let audit =
            cluster.audit_enabled().then(|| OpDesc::Delete { key: key.as_str().to_owned() });
        let req = self.submit(cluster, Kind::Delete, 0, |req, trace| DropletMsg::ClientDelete {
            req,
            key,
            trace,
        });
        if let Some(desc) = audit {
            cluster.record_invoke(req, self.session, desc);
        }
        Pending::new(req)
    }

    /// Submits an attribute range scan over `[lo, hi]`.
    pub fn scan(&mut self, cluster: &mut Cluster, lo: f64, hi: f64) -> Pending<ops::Scan> {
        let req = self.submit(cluster, Kind::Scan, 0, |req, trace| DropletMsg::ClientScan {
            req,
            lo,
            hi,
            trace,
        });
        self.record_invoke(cluster, req, || OpDesc::Scan);
        Pending::new(req)
    }

    /// Submits an aggregate query over all stored tuples.
    pub fn aggregate(&mut self, cluster: &mut Cluster) -> Pending<ops::Aggregate> {
        let req = self.submit(cluster, Kind::Aggregate, 0, |req, trace| {
            DropletMsg::ClientAggregate { req, trace }
        });
        self.record_invoke(cluster, req, || OpDesc::Aggregate);
        Pending::new(req)
    }

    /// Submits a batched write (the social-feed `mput`). Completes `Ok`
    /// only when every item ordered; dead key coordinators surface as
    /// [`OpError::PartialResult`].
    pub fn multi_put(
        &mut self,
        cluster: &mut Cluster,
        items: impl IntoIterator<Item = TupleSpec>,
    ) -> Pending<ops::MultiPut> {
        let items: Vec<TupleSpec> = items.into_iter().collect();
        let want = items.len();
        let audit = cluster.audit_enabled().then(|| {
            let keys: Vec<String> = items.iter().map(|i| i.key.as_str().to_owned()).collect();
            // The batch's shared tag, when every item carries the same one.
            let tag = items
                .first()
                .and_then(|i| i.tag.clone())
                .filter(|t| items.iter().all(|i| i.tag.as_ref() == Some(t)))
                .map(|t| t.as_str().to_owned());
            OpDesc::MultiPut { keys, tag }
        });
        let req = self.submit(cluster, Kind::MultiPut, want, |req, trace| {
            DropletMsg::ClientMultiPut { req, items, trace }
        });
        if let Some(desc) = audit {
            cluster.record_invoke(req, self.session, desc);
        }
        Pending::new(req)
    }

    /// Submits a tag-scoped read (the social-feed `mget`): every live
    /// tuple carrying `tag`, deduplicated and attribute-ordered, plus the
    /// union's completeness marker ([`MultiGetResult::complete`]).
    pub fn multi_get(&mut self, cluster: &mut Cluster, tag: &str) -> Pending<ops::MultiGet> {
        let audit = cluster.audit_enabled().then(|| OpDesc::MultiGet { tag: tag.to_owned() });
        let tag = Tag::from(tag);
        let req = self.submit(cluster, Kind::MultiGet, 0, |req, trace| {
            DropletMsg::ClientMultiGet { req, tag, trace }
        });
        if let Some(desc) = audit {
            cluster.record_invoke(req, self.session, desc);
        }
        Pending::new(req)
    }

    /// Non-blocking harvest of one operation: `None` while still in
    /// flight, `Some(result)` exactly once when it completes (the soft
    /// node's record is retired on harvest). A handle whose completion
    /// was already delivered — e.g. by an earlier poll or a [`Client::drain`]
    /// sweep — or that belongs to another session yields
    /// `Some(Err(OpError::AlreadyHarvested))`.
    ///
    /// Shares [`Client::drain`]'s harvest: before [`OP_TIMEOUT`] it probes
    /// only the soft node the completion index names (none while the op
    /// is still in flight), so a [`Client::recv`] loop costs one lookup
    /// per quantum.
    pub fn poll<K: OpKind>(
        &mut self,
        cluster: &mut Cluster,
        pending: &Pending<K>,
    ) -> Option<Result<K::Output, OpError>> {
        let req = pending.req;
        let Some(&o) = self.outstanding.get(&req) else {
            return Some(Err(OpError::AlreadyHarvested));
        };
        debug_assert_eq!(o.kind, K::KIND, "Pending kind mismatch");
        cluster.collect_completions();
        let audit = cluster.audit_enabled();
        self.resolve(
            cluster,
            req,
            o,
            |soft| harvest::<K, _>(soft, req, o.want, audit, std::convert::identity),
            Err,
        )
    }

    /// Drives virtual time until `pending` completes and returns its
    /// result — the lock-step convenience over [`Client::poll`]. Bounded:
    /// a lost operation returns `Err(OpError::Timeout)` after
    /// [`OP_TIMEOUT`] virtual ticks.
    pub fn recv<K: OpKind>(
        &mut self,
        cluster: &mut Cluster,
        pending: Pending<K>,
    ) -> Result<K::Output, OpError> {
        loop {
            if let Some(result) = self.poll(cluster, &pending) {
                return result;
            }
            cluster.pump(RECV_QUANTUM);
        }
    }

    /// Harvests every completed (or expired) operation of this session,
    /// in request order: the batch companion to [`Client::poll`] for
    /// pipelined loops that don't track individual handles.
    ///
    /// Touches only this session's ready ops (from the completion index)
    /// and its ops past [`OP_TIMEOUT`], never the ones still in flight.
    pub fn drain(&mut self, cluster: &mut Cluster) -> Vec<(u64, Completion)> {
        cluster.collect_completions();
        let now = cluster.sim.now();
        let mut due: Vec<u64> = cluster.completions.ready_reqs(self.session).collect();
        // Issue times grow with request ids: the expired ops are a prefix.
        due.extend(
            self.outstanding
                .iter()
                .take_while(|(_, o)| past_timeout(o.issued, now))
                .map(|(&req, _)| req),
        );
        due.sort_unstable();
        due.dedup();
        let audit = cluster.audit_enabled();
        let mut done = Vec::new();
        for req in due {
            let Some(&o) = self.outstanding.get(&req) else { continue };
            let take = |soft: &mut SoftNode| o.kind.take(soft, req, o.want, audit);
            if let Some(c) = self.resolve(cluster, req, o, take, |e| o.kind.failed(e)) {
                done.push((req, c));
            }
        }
        done
    }

    /// The one harvest routine behind [`Client::poll`] and
    /// [`Client::drain`]: completes a stillborn op as `NoLiveEntry`, takes
    /// the record from the indexed holder (from any soft node once past
    /// [`OP_TIMEOUT`]), or times the op out; `None` while still in flight.
    fn resolve<R>(
        &mut self,
        cluster: &mut Cluster,
        req: u64,
        o: Outstanding,
        take: impl Fn(&mut SoftNode) -> Option<(R, Option<Outcome>)>,
        failed: impl FnOnce(OpError) -> R,
    ) -> Option<R> {
        if o.stillborn {
            self.retire(cluster, req, None);
            cluster.record_failure(req, OpFailure::NoLiveEntry);
            return Some(failed(OpError::NoLiveEntry));
        }
        let expired = past_timeout(o.issued, cluster.sim.now());
        let probe = |cluster: &mut Cluster, id: NodeId| {
            cluster.sim.node_mut(id).and_then(DropletNode::as_soft_mut).and_then(&take)
        };
        let harvested = if expired {
            (0..cluster.soft_ids().len()).find_map(|i| {
                let id = cluster.soft_ids()[i];
                probe(cluster, id)
            })
        } else {
            cluster.completions.holder(self.session, req).and_then(|id| probe(cluster, id))
        };
        if let Some((result, outcome)) = harvested {
            self.retire(cluster, req, Some(o.issued));
            if let Some(outcome) = outcome {
                cluster.record_outcome(req, outcome);
            }
            return Some(result);
        }
        if !expired {
            return None;
        }
        let waiting_on = cluster.blame_for(req);
        self.retire(cluster, req, None);
        cluster.sim.metrics_mut().incr("client.timeouts");
        cluster.record_failure(req, OpFailure::Timeout);
        Some(failed(OpError::Timeout { waiting_on }))
    }

    fn retire(&mut self, cluster: &mut Cluster, req: u64, harvested_issue: Option<Time>) {
        self.outstanding.remove(&req);
        cluster.completions.retire(self.session, req);
        // Close the op's root span (harvest = answered, timeout = not; a
        // stillborn op has no trace and the close is ignored).
        let now = cluster.sim.now();
        if let Some(tr) = cluster.sim.tracer_mut() {
            tr.close(now, req, 0, harvested_issue.is_some());
        }
        if let Some(issued) = harvested_issue {
            let latency = cluster.sim.now().since(issued).0 as f64;
            let m = cluster.sim.metrics_mut();
            m.incr("client.completions");
            m.observe("client.op_ticks", latency);
        }
    }
}
