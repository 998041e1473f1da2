//! Wall-clock spans recorded around every call the benchmark makes into
//! a layer of the store. Spans live in memory while a run goes and are
//! written out when it ends; a disabled recorder costs one branch.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// The layer boundaries the benchmark times, named after the repository's
/// modules (`bench.*` spans are the benchmark's own loops).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One whole case: setup, serve, report.
    Round,
    /// `Cluster::new`.
    ClusterNew,
    /// `Cluster::settle`.
    ClusterSettle,
    /// The closed serve loop (its self time is the harness's own cost).
    Serve,
    /// One `Client::put/get/delete/scan/multi_put/multi_get` call.
    Submit,
    /// One `Cluster::pump` of one virtual tick.
    Pump,
    /// One `Client::drain` sweep over every session.
    Drain,
    /// An op harvested by the enclosing drain (zero length).
    Harvest,
    /// `Cluster::begin_audit/begin_trace/begin_instrument`.
    PlanesBegin,
    /// Closing and analysing the three observer planes.
    PlanesReport,
    /// `Cluster::end_audit`, the convergence settle and `dd_audit::check`.
    AuditCheck,
    /// `Cluster::end_trace` and `TraceReport::build`.
    TraceBuild,
    /// `Cluster::end_instrument` and `TelemetryReport::build`.
    ObsBuild,
    /// The scenario sweep's loop over its cases.
    Sweep,
    /// `Cluster::try_run_scenario` of one sweep case.
    ScenarioRun,
    /// One slice of the reference clock's kernel (benchmark code).
    RefSlice,
}

impl Layer {
    /// The span's printed name.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Round => "bench.round",
            Layer::ClusterNew => "cluster.new",
            Layer::ClusterSettle => "cluster.settle",
            Layer::Serve => "bench.serve",
            Layer::Submit => "client.submit",
            Layer::Pump => "cluster.pump",
            Layer::Drain => "client.drain",
            Layer::Harvest => "client.harvest",
            Layer::PlanesBegin => "planes.begin",
            Layer::PlanesReport => "planes.report",
            Layer::AuditCheck => "audit.check",
            Layer::TraceBuild => "trace.build",
            Layer::ObsBuild => "obs.build",
            Layer::Sweep => "bench.sweep",
            Layer::ScenarioRun => "scenario.run",
            Layer::RefSlice => "bench.ref_slice",
        }
    }
}

/// One recorded span; times are nanoseconds since the recorder started.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Which boundary.
    pub layer: Layer,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// The client request id for per-op spans, else 0.
    pub req: u64,
    /// Open time.
    pub start: u64,
    /// Close time.
    pub end: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

#[derive(Debug)]
struct Recording {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// The span recorder: `None` inside when tracing is off.
#[derive(Debug, Default)]
pub struct Tracer(Option<Recording>);

impl Tracer {
    /// A recorder that keeps spans.
    pub fn on() -> Self {
        Tracer(Some(Recording { t0: Instant::now(), spans: Vec::new(), open: Vec::new() }))
    }

    /// A recorder that keeps nothing.
    pub fn off() -> Self {
        Tracer(None)
    }

    /// Opens a span under the innermost open one.
    #[inline]
    pub fn open(&mut self, layer: Layer) {
        if let Some(r) = &mut self.0 {
            let start = r.t0.elapsed().as_nanos() as u64;
            let parent = r.open.last().copied();
            let id = u32::try_from(r.spans.len()).expect("fewer than 2^32 spans");
            r.spans.push(Span { layer, parent, req: 0, start, end: start });
            r.open.push(id);
        }
    }

    /// Closes the innermost open span, tagging it with `req`.
    #[inline]
    pub fn close_req(&mut self, req: u64) {
        if let Some(r) = &mut self.0 {
            let end = r.t0.elapsed().as_nanos() as u64;
            let id = r.open.pop().expect("close matches an open span");
            let s = &mut r.spans[id as usize];
            s.end = end;
            s.req = req;
        }
    }

    /// Closes the innermost open span.
    #[inline]
    pub fn close(&mut self) {
        self.close_req(0);
    }

    /// Records a zero-length event for `req` under the innermost open span.
    #[inline]
    pub fn mark(&mut self, layer: Layer, req: u64) {
        if let Some(r) = &mut self.0 {
            let at = r.t0.elapsed().as_nanos() as u64;
            let parent = r.open.last().copied();
            r.spans.push(Span { layer, parent, req, start: at, end: at });
        }
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        self.0.as_ref().map_or(&[], |r| &r.spans)
    }

    /// Writes every span as a tab-separated line
    /// `id parent name req start_ns end_ns self_ns` (parent `-` for roots).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self.spans();
        let selfs = self_times(spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\treq\tstart_ns\tend_ns\tself_ns")?;
        for (i, (s, own)) in spans.iter().zip(&selfs).enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}\t{own}",
                s.layer.name(),
                s.req,
                s.start,
                s.end
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part its children
/// cover. Children of one parent never overlap (the benchmark is one
/// thread), so that part is the sum of their durations.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] -= s.dur();
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            Span { layer: Layer::Serve, parent: None, req: 0, start: 0, end: 100 },
            Span { layer: Layer::Pump, parent: Some(0), req: 0, start: 10, end: 40 },
            Span { layer: Layer::Drain, parent: Some(0), req: 0, start: 50, end: 70 },
            Span { layer: Layer::Harvest, parent: Some(2), req: 7, start: 60, end: 60 },
        ];
        assert_eq!(self_times(&spans), vec![50, 30, 20, 0]);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        t.open(Layer::Pump);
        t.mark(Layer::Harvest, 3);
        t.close();
        assert!(t.spans().is_empty());
    }

    #[test]
    fn spans_nest_and_carry_request_ids() {
        let mut t = Tracer::on();
        t.open(Layer::Serve);
        t.open(Layer::Submit);
        t.close_req(42);
        t.open(Layer::Drain);
        t.mark(Layer::Harvest, 42);
        t.close();
        t.close();
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!((s[1].parent, s[1].req), (Some(0), 42));
        assert_eq!((s[3].parent, s[3].req), (Some(2), 42));
        assert!(s.iter().all(|x| x.end >= x.start));
    }
}
