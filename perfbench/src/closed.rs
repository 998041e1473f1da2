//! The closed-loop runner: S client sessions, each holding at most D ops
//! in flight, one virtual tick pumped per loop step and every session
//! drained after each pump, so latency is exact to the tick.

use crate::alloc;
use crate::inputs::{key_index, value_for, FaultAt, Op, Script};
use crate::measured::Measured;
use crate::reference::RefClock;
use crate::spans::{Layer, Tracer};
use crate::stats::{fnv, TickHist, FNV_BASIS};
use dd_core::{Client, Cluster, ClusterConfig, Completion, OpError, Placement, StoredTuple};
use dd_sim::{NetChange, Time};

/// Convergence rounds the audit may drive before checking (matches the
/// scenario plane's audited settle).
const MAX_AUDIT_SETTLES: u32 = 32;

/// A closed-loop workload's shape.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Soft (coordinator) nodes.
    pub soft_n: u64,
    /// Persist nodes.
    pub persist_n: u64,
    /// Persist placement.
    pub placement: Placement,
    /// Ring-biased repair peering.
    pub ring_repair: bool,
    /// Client sessions.
    pub sessions: usize,
    /// Ops each session may hold in flight.
    pub depth: usize,
}

impl Shape {
    fn config(&self) -> ClusterConfig {
        let c = ClusterConfig {
            soft_n: self.soft_n,
            persist_n: self.persist_n,
            ..ClusterConfig::default()
        }
        .placement(self.placement);
        if self.ring_repair {
            c.ring_repair()
        } else {
            c
        }
    }
}

/// The program's own counters over the serve loop.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters {
    /// `(name, value)` per counter read from `Metrics`.
    pub values: Vec<(&'static str, u64)>,
}

impl Counters {
    /// The counter named `name` (0 when the program never bumped it).
    pub fn get(&self, name: &str) -> u64 {
        self.values.iter().find(|(n, _)| *n == name).map_or(0, |&(_, v)| v)
    }
}

/// Counters the per-layer report reads from the program's `Metrics`.
const COUNTERS: [&str; 15] = [
    "net.sent",
    "net.delivered",
    "net.dropped",
    "net.dropped_down",
    "fd.notices",
    "soft.cache_hits",
    "soft.cache_misses",
    "soft.fallback_fetches",
    "soft.multi_get_forwards",
    "persist.stored",
    "persist.relays",
    "repair.syncs",
    "repair.clean",
    "repair.pulls",
    "repair.recovered",
];

fn read_counters(cluster: &Cluster) -> Counters {
    let m = cluster.sim.metrics();
    Counters { values: COUNTERS.iter().map(|&n| (n, m.counter(n))).collect() }
}

fn counters_delta(after: &Counters, before: &Counters) -> Counters {
    Counters { values: after.values.iter().map(|&(n, v)| (n, v - before.get(n))).collect() }
}

/// What the observer planes reported after the run.
#[derive(Debug, Clone, Default)]
pub struct PlaneOut {
    /// Wall time of closing and analysing all three planes.
    pub report_s: f64,
    /// Wall time of end_audit + convergence settle + check.
    pub audit_check_s: f64,
    /// Operations in the audit history.
    pub history_ops: u64,
    /// Safety violations the audit found.
    pub safety: u64,
    /// Wall time of end_trace + TraceReport::build.
    pub trace_build_s: f64,
    /// Spans the trace plane recorded.
    pub trace_spans: u64,
    /// Wall time of end_instrument + TelemetryReport::build.
    pub obs_build_s: f64,
    /// Telemetry sweeps taken.
    pub obs_samples: u64,
}

/// Everything one round measured and checked.
#[derive(Debug, Clone, Default)]
pub struct RoundOut {
    /// Timings, counts, checks and digest shared with the sweep.
    pub m: Measured,
    /// `OpError::Timeout`s.
    pub timeouts: u64,
    /// `OpError::PartialResult`s.
    pub partials: u64,
    /// `OpError::NoLiveEntry`s.
    pub no_entry: u64,
    /// Reads that found nothing.
    pub absent: u64,
    /// Latency of every successful op, in ticks.
    pub lat: TickHist,
    /// Loop steps (one pumped tick each).
    pub pumps: u64,
    /// Largest event-queue depth seen after a pump.
    pub qdepth_max: u64,
    /// Sum of event-queue depths after each pump.
    pub qdepth_sum: u64,
    /// Outstanding entries `Client::drain` walked, summed over calls.
    pub drain_probes: u64,
    /// Program counters over the serve loop.
    pub counters: Counters,
    /// Virtual ticks the serve loop took.
    pub ticks: u64,
    /// Tuples the issued writes carried (puts, deletes, batch items).
    pub tuples_written: u64,
    /// Mean persist nodes a tag-scoped read contacted.
    pub contacted_mean: f64,
    /// Observer-plane results (`feed-churn-observed` only).
    pub planes: Option<PlaneOut>,
}

/// Per-request bookkeeping: reqs are issued contiguously from `base`.
#[derive(Debug, Clone, Copy)]
struct Req {
    issued: u64,
    op: u32,
    resolved: bool,
}

fn schedule(cluster: &mut Cluster, faults: &[FaultAt]) {
    let start = cluster.sim.now().0;
    let ids = cluster.persist_ids().to_vec();
    for f in faults {
        match *f {
            FaultAt::Down(t, n) => cluster.sim.schedule_down(Time(start + t), ids[n]),
            FaultAt::Up(t, n) => cluster.sim.schedule_up(Time(start + t), ids[n]),
            FaultAt::Partition(t, n) => {
                cluster.sim.schedule_net(Time(start + t), NetChange::Partition(ids[n], 1));
            }
            FaultAt::Heal(t) => cluster.sim.schedule_net(Time(start + t), NetChange::Heal),
            FaultAt::Loss(t, p) => {
                cluster.sim.schedule_net(Time(start + t), NetChange::DropProb(p))
            }
            FaultAt::ReviveAll(t) => {
                for &id in &ids {
                    cluster.sim.schedule_up(Time(start + t), id);
                }
            }
        }
    }
}

fn submit(s: &mut Client, cluster: &mut Cluster, op: &Op, value_seed: u64) -> u64 {
    match op {
        Op::Put { key, index, attr, tag } => {
            let value = value_for(value_seed, *index);
            s.put(cluster, key.clone(), value, *attr, tag.as_deref()).req()
        }
        Op::Get(key) => s.get(cluster, key.clone()).req(),
        Op::Delete(key) => s.delete(cluster, key.clone()).req(),
        Op::Scan(lo, hi) => s.scan(cluster, *lo, *hi).req(),
        Op::MultiPut(items) => s.multi_put(cluster, items.iter().cloned()).req(),
        Op::MultiGet(tag, _) => s.multi_get(cluster, tag).req(),
    }
}

/// Whether a returned tuple carries exactly the payload its key was
/// written with.
fn tuple_ok(t: &StoredTuple, value_seed: u64) -> bool {
    key_index(t.key.as_str())
        .is_some_and(|i| t.value.as_ref() == value_for(value_seed, i).as_slice())
}

/// Runs one round: build and settle a cluster, serve the whole script,
/// close the planes when `observed`, and check every answer.
pub fn round(
    shape: &Shape,
    seed: u64,
    script: &Script,
    observed: bool,
    clock: &mut RefClock,
    tr: &mut Tracer,
) -> RoundOut {
    let mut out = RoundOut::default();
    out.m.cases = 1;
    clock.poll(tr);
    let round_t0 = clock.now();
    tr.open(Layer::Round);

    let t = clock.now();
    tr.open(Layer::ClusterNew);
    let mut cluster = Cluster::new(shape.config(), seed);
    tr.close();
    out.m.new_s = t.ref_to(&clock.now());
    let t = clock.now();
    tr.open(Layer::ClusterSettle);
    cluster.settle();
    tr.close();
    out.m.settle_s = t.ref_to(&clock.now());

    let mut sessions: Vec<Client> = (0..shape.sessions).map(|_| cluster.client()).collect();
    schedule(&mut cluster, &script.faults);
    if observed {
        tr.open(Layer::PlanesBegin);
        cluster.begin_audit();
        cluster.begin_trace();
        cluster.begin_instrument();
        tr.close();
    }
    let before = read_counters(&cluster);
    let tick0 = cluster.sim.now().0;
    let mut reqs: Vec<Req> = Vec::with_capacity(script.ops.len());
    let mut base = None;
    let mut next = 0usize;
    let mut done: Vec<(u64, Completion)> = Vec::new();
    let vs = script.value_seed;

    alloc::reset_peak();
    let serve_t0 = clock.now();
    tr.open(Layer::Serve);
    loop {
        for s in &mut sessions {
            while next < script.ops.len() && s.in_flight() < shape.depth {
                let issued = cluster.sim.now().0;
                tr.open(Layer::Submit);
                let req = submit(s, &mut cluster, &script.ops[next], vs);
                tr.close_req(req);
                let base = *base.get_or_insert(req);
                if req != base + reqs.len() as u64 {
                    out.m.fail(format!("request id {req} out of sequence"));
                }
                reqs.push(Req { issued, op: next as u32, resolved: false });
                out.tuples_written += match &script.ops[next] {
                    Op::Put { .. } | Op::Delete(_) => 1,
                    Op::MultiPut(items) => items.len() as u64,
                    _ => 0,
                };
                next += 1;
            }
        }
        tr.open(Layer::Pump);
        cluster.pump(1);
        tr.close();
        out.pumps += 1;
        let depth = cluster.sim.queue_depth() as u64;
        out.qdepth_max = out.qdepth_max.max(depth);
        out.qdepth_sum += depth;

        let mut in_flight = 0;
        tr.open(Layer::Drain);
        for s in &mut sessions {
            out.drain_probes += s.in_flight() as u64;
            for (req, c) in s.drain(&mut cluster) {
                tr.mark(Layer::Harvest, req);
                done.push((req, c));
            }
            in_flight += s.in_flight();
        }
        tr.close();

        let now = cluster.sim.now().0;
        for (req, c) in done.drain(..) {
            let Some(r) =
                base.and_then(|b| req.checked_sub(b)).and_then(|i| reqs.get_mut(i as usize))
            else {
                out.m.fail(format!("completion for unknown request {req}"));
                continue;
            };
            if r.resolved {
                out.m.fail(format!("request {req} resolved twice"));
                continue;
            }
            r.resolved = true;
            let latency = now - r.issued;
            let op = &script.ops[r.op as usize];
            match c.err() {
                None => {
                    out.m.ok += 1;
                    out.lat.record(latency);
                    check_answer(&mut out, req, op, c, vs);
                }
                Some(OpError::Timeout { .. }) => out.timeouts += 1,
                Some(OpError::PartialResult { .. }) => out.partials += 1,
                Some(OpError::NoLiveEntry) => out.no_entry += 1,
                Some(OpError::AlreadyHarvested) => {
                    out.m.fail(format!("request {req} lost its record"))
                }
            }
        }
        if next == script.ops.len() && in_flight == 0 {
            break;
        }
        clock.poll(tr);
    }
    tr.close();
    let serve_t1 = clock.now();
    out.m.serve_s = serve_t0.ref_to(&serve_t1);
    out.m.serve_cpu_s = serve_t1.cpu_s - serve_t0.cpu_s;
    out.m.serve_wall_s = (serve_t1.wall - serve_t0.wall).as_secs_f64();
    out.m.peak_heap = alloc::peak_bytes();
    out.m.issued = reqs.len() as u64;
    out.ticks = cluster.sim.now().0 - tick0;
    out.counters = counters_delta(&read_counters(&cluster), &before);
    out.contacted_mean = cluster.sim.metrics().mean("multi_get.contacted_nodes").unwrap_or(0.0);
    let unresolved = reqs.iter().filter(|r| !r.resolved).count();
    if unresolved > 0 {
        out.m.fail(format!("{unresolved} requests never resolved"));
    }
    out.m.digest = digest(&out);

    if observed {
        out.planes = Some(report_planes(&mut cluster, clock, tr));
        if let Some(p) = &out.planes {
            if p.safety > 0 {
                out.m.fail(format!("audit found {} safety violations", p.safety));
            }
        }
    }
    tr.close();
    out.m.round_s = round_t0.ref_to(&clock.now());
    out
}

fn check_answer(out: &mut RoundOut, req: u64, op: &Op, c: Completion, vs: u64) {
    match (op, c) {
        (Op::Get(key), Completion::Get(Ok(found))) => match found {
            None => out.absent += 1,
            Some(t) if t.key != *key || !tuple_ok(&t, vs) => {
                out.m.fail(format!("request {req}: get {key:?} returned wrong data"));
            }
            Some(_) => {}
        },
        (Op::Scan(lo, hi), Completion::Scan(Ok(items))) => {
            let bad = items
                .iter()
                .any(|t| !t.attr.is_some_and(|a| (*lo..=*hi).contains(&a)) || !tuple_ok(t, vs));
            if bad {
                out.m.fail(format!("request {req}: scan [{lo}, {hi}] returned a wrong tuple"));
            }
        }
        (Op::MultiGet(tag, hash), Completion::MultiGet(Ok(r))) => {
            if r.items.iter().any(|t| t.tag_hash != Some(*hash) || !tuple_ok(t, vs)) {
                out.m.fail(format!("request {req}: multi_get {tag} returned a foreign tuple"));
            }
        }
        (Op::MultiPut(items), Completion::MultiPut(Ok(r))) => {
            if r.items != items.len() {
                out.m.fail(format!(
                    "request {req}: multi_put ordered {} of {}",
                    r.items,
                    items.len()
                ));
            }
        }
        (Op::Put { .. }, Completion::Put(Ok(_))) | (Op::Delete(_), Completion::Delete(Ok(_))) => {}
        (op, c) => out.m.fail(format!("request {req}: {op:?} completed as {c:?}")),
    }
}

/// Hash of the round's virtual outputs: ticks, message counts, outcome
/// counts and the exact latency histogram. Equal digests mean the store
/// did the same simulated work.
fn digest(out: &RoundOut) -> u64 {
    let mut h = FNV_BASIS;
    for x in [
        out.ticks,
        out.counters.get("net.sent"),
        out.counters.get("net.delivered"),
        out.counters.get("net.dropped"),
        out.m.issued,
        out.m.ok,
        out.timeouts,
        out.partials,
        out.no_entry,
        out.absent,
    ] {
        h = fnv(h, x);
    }
    for (t, c) in out.lat.buckets() {
        h = fnv(fnv(h, t), c);
    }
    h
}

fn report_planes(cluster: &mut Cluster, clock: &RefClock, tr: &mut Tracer) -> PlaneOut {
    let mut p = PlaneOut::default();
    let t0 = clock.now();
    tr.open(Layer::PlanesReport);

    let t = clock.now();
    tr.open(Layer::TraceBuild);
    let set = cluster.end_trace().expect("trace plane installed");
    p.trace_spans = set.traces.iter().map(|t| t.spans.len() as u64).sum();
    let report = dd_trace::TraceReport::build(set);
    std::hint::black_box(&report);
    tr.close();
    p.trace_build_s = t.ref_to(&clock.now());

    let t = clock.now();
    tr.open(Layer::ObsBuild);
    let data = cluster.end_instrument().expect("telemetry plane installed");
    p.obs_samples = data.samples();
    let report = dd_obs::TelemetryReport::build(data);
    std::hint::black_box(&report);
    tr.close();
    p.obs_build_s = t.ref_to(&clock.now());

    let t = clock.now();
    tr.open(Layer::AuditCheck);
    let history = cluster.end_audit().expect("audit plane installed");
    p.history_ops = history.len() as u64;
    let mut snapshot = cluster.audit_snapshot();
    for _ in 0..MAX_AUDIT_SETTLES {
        if dd_audit::snapshot_converged(&snapshot) {
            break;
        }
        cluster.repair_sweep();
        cluster.settle();
        snapshot = cluster.audit_snapshot();
    }
    let audit = dd_audit::check(&history, &snapshot);
    p.safety = audit.safety_count() as u64;
    tr.close();
    p.audit_check_s = t.ref_to(&clock.now());

    tr.close();
    p.report_s = t0.ref_to(&clock.now());
    p
}
