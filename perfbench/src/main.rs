//! `perfbench`: one timing benchmark for the DataDroplets store.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --workload all --seed <n> --seconds <s>
//! perfbench --catalogue    # prints BENCHMARK.json
//! perfbench --metrics      # every metric: unit, direction, layer, what it moves
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics of untraced cases;
//! with `--trace 1` the per-layer metrics, taken from cases run with the
//! benchmark's span recorder on, next to untraced cases of the same
//! inputs. The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the exit code is
//! non-zero when any correctness check fails. End-to-end timings are in
//! reference seconds (`reference.rs`). See `README.md`.

mod alloc;
mod clock;
mod closed;
mod inputs;
mod measured;
mod metrics;
mod reference;
mod spans;
mod stats;
mod sweep;

use closed::{RoundOut, Shape};
use dd_core::Placement;
use measured::Measured;
use reference::RefClock;
use spans::{self_times, Layer, Tracer};
use stats::{median, top_percentile};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// `bulk-2k`: E18's largest cell.
const BULK: Shape = Shape {
    soft_n: 16,
    persist_n: 2_000,
    placement: Placement::RangePartition,
    ring_repair: true,
    sessions: 8,
    depth: 32,
};
/// Ops per `bulk-2k` case.
const BULK_OPS: usize = 4_000;

/// `feed-churn` and `feed-churn-observed`.
const FEED: Shape = Shape {
    soft_n: 8,
    persist_n: 128,
    placement: Placement::TagCollocation,
    ring_repair: false,
    sessions: 8,
    depth: 16,
};
/// Ops per `feed-churn` case.
const FEED_OPS: usize = 6_000;
/// Social-feed users (one tag each).
const FEED_USERS: u64 = 2_000;
/// Virtual ticks the fault program is spread over.
const FEED_HORIZON: u64 = 400;

/// Generated fuzz cases per `scenario-sweep` pass.
const SWEEP_CASES: u64 = 1_600;

/// Cases an untraced run measures at the least, however long they take.
const MIN_ROUNDS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Bulk,
    Feed,
    FeedObserved,
    Sweep,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "bulk-2k" => Some(Workload::Bulk),
            "feed-churn" => Some(Workload::Feed),
            "feed-churn-observed" => Some(Workload::FeedObserved),
            "scenario-sweep" => Some(Workload::Sweep),
            _ => None,
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = it.next() {
        if flag == "--catalogue" {
            print!("{}", metrics::benchmark_json());
            return Ok(None);
        }
        if flag == "--metrics" {
            for d in metrics::END_TO_END.iter().chain(&metrics::PER_LAYER) {
                println!(
                    "{:<34} {:<6} {:<6} {:<16} {}",
                    d.name, d.unit, d.better, d.layer, d.moves
                );
            }
            return Ok(None);
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| bad("expected a whole number"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("expected seconds"))?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err(bad("expected a positive number"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Some(Args { workload, seed, seconds, trace }))
}

/// A finished run: the result line's fields plus log lines.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: BTreeMap<&'static str, f64>,
    log: Vec<String>,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(workload) = Workload::parse(&args.workload) else {
        eprintln!("perfbench: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    };
    let out = run(workload, &args);
    let defs = if args.trace { &metrics::PER_LAYER[..] } else { &metrics::END_TO_END[..] };
    let mut names: Vec<&str> = defs.iter().map(|d| d.name).collect();
    names.sort_unstable();
    let printed: Vec<&str> = out.metrics.keys().copied().collect();
    assert_eq!(printed, names, "the runner must print exactly the catalogued metrics");

    for line in &out.log {
        println!("{line}");
    }
    for d in defs {
        let v = out.metrics[d.name];
        println!("  {:<34} {:>16} {}", d.name, fmt_num(v), d.unit);
    }
    for p in &out.problems {
        println!("CHECK FAILED: {p}");
    }
    let correct = out.problems.is_empty() && out.failed == 0;
    let fields: Vec<String> = defs
        .iter()
        .map(|d| {
            let v = out.metrics[d.name];
            format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", d.name, fmt_num(v), d.unit)
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A JSON number with every digit the measurement has. Non-finite
/// values, which no metric should produce, print as 0; so does -0 (the
/// sum of no spans).
fn fmt_num(v: f64) -> String {
    if v.is_finite() && v != 0.0 {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// Runs every workload, untraced then traced, each in its own process.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let mut all_ok = true;
    for (name, _) in metrics::WORKLOADS {
        for trace in ["0", "1"] {
            println!("== {name} (trace {trace})");
            let status = std::process::Command::new(&exe)
                .args(["--workload", name, "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string(), "--trace", trace])
                .status()
                .expect("spawn perfbench");
            all_ok &= status.success();
        }
    }
    println!("all workloads: {}", if all_ok { "correct" } else { "CHECKS FAILED" });
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Which cases a run alternates between.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pass {
    /// An untraced first case, checked but left out of every median: it
    /// pays for the heap's first growth and cold caches.
    Warmup,
    /// Untraced, planes as the workload says.
    Timed,
    /// Span recorder on.
    Traced,
    /// `feed-churn` inputs without planes (the observed workload's
    /// reference).
    Plain,
}

fn run(workload: Workload, args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let gen_t0 = Instant::now();
    let seed = args.seed;
    let (script, window) = match workload {
        Workload::Bulk => (Some(inputs::bulk_script(seed, BULK_OPS)), Vec::new()),
        Workload::Feed | Workload::FeedObserved => (
            Some(inputs::feed_script(seed, FEED_OPS, FEED_USERS, FEED.persist_n, FEED_HORIZON)),
            Vec::new(),
        ),
        Workload::Sweep => (None, sweep::cases(seed, SWEEP_CASES)),
    };
    let gen_s = gen_t0.elapsed().as_secs_f64();
    let shape = if workload == Workload::Bulk { BULK } else { FEED };
    let observed = workload == Workload::FeedObserved;
    let cluster_seed = inputs::Rng::new(seed, 0xC1).next_u64();

    // The pass schedule: every run starts with a `Warmup` case (the
    // observed workload's untraced run adds one `Plain` reference); then
    // an untraced run measures `Timed` cases and a traced run cycles
    // untraced, traced and (observed) plain cases of one input.
    let cycle: &[Pass] = match (args.trace, observed) {
        (false, _) => &[Pass::Timed],
        (true, false) => &[Pass::Timed, Pass::Traced],
        (true, true) => &[Pass::Timed, Pass::Traced, Pass::Plain],
    };
    let mut results: Vec<(Pass, Case)> = Vec::new();
    let mut clock = RefClock::new();
    let mut run_case = |pass: Pass| {
        let mut tr = if pass == Pass::Traced { Tracer::on() } else { Tracer::off() };
        match &script {
            Some(s) => {
                let with_planes = observed && pass != Pass::Plain;
                let r = closed::round(&shape, cluster_seed, s, with_planes, &mut clock, &mut tr);
                Case::Closed(r, tr)
            }
            None => Case::Sweep(sweep::pass(&window, &mut clock, &mut tr), tr),
        }
    };
    let run_t0 = Instant::now();
    let mut first: Vec<Pass> = vec![Pass::Warmup];
    if observed && !args.trace {
        first.push(Pass::Plain);
    }
    for pass in first {
        results.push((pass, run_case(pass)));
    }
    let mut round_times: Vec<f64> = Vec::new();
    loop {
        for &pass in cycle {
            let t = Instant::now();
            let case = run_case(pass);
            round_times.push(t.elapsed().as_secs_f64());
            results.push((pass, case));
        }
        let measured = results.iter().filter(|(p, _)| *p == Pass::Timed).count();
        let elapsed = run_t0.elapsed().as_secs_f64();
        let next = median(&round_times) * cycle.len() as f64;
        if (args.trace || measured >= MIN_ROUNDS) && elapsed + next > args.seconds {
            break;
        }
    }

    // Correctness: every case passes its own checks, and every case of
    // one input has the same virtual digest (timed = traced = plain).
    let digests: Vec<u64> = results.iter().map(|(_, c)| c.m().digest).collect();
    if digests.windows(2).any(|w| w[0] != w[1]) {
        out.problems
            .push(format!("virtual digests differ between cases of one seed: {digests:x?}"));
    }
    for (pass, c) in &results {
        out.attempted += c.m().issued;
        out.failed += c.m().bad;
        for p in &c.m().problems {
            out.problems.push(format!("{pass:?} case: {p}"));
        }
    }
    out.log.push(format!(
        "perfbench {} seed {seed}: {} cases ({} timed), digest {:016x}, {:.2} s",
        args.workload,
        results.len(),
        results.iter().filter(|(p, _)| *p == Pass::Timed).count(),
        digests.first().copied().unwrap_or(0),
        run_t0.elapsed().as_secs_f64()
    ));

    let timed: Vec<&Case> =
        results.iter().filter(|(p, _)| *p == Pass::Timed).map(|(_, c)| c).collect();
    for (clock, rates) in [
        ("reference", timed.iter().map(|c| c.m().ops_per_ref_s()).collect::<Vec<f64>>()),
        ("CPU", timed.iter().map(|c| c.m().issued as f64 / c.m().serve_cpu_s).collect()),
        ("wall", timed.iter().map(|c| c.m().issued as f64 / c.m().serve_wall_s).collect()),
    ] {
        let shown: Vec<String> = rates.iter().map(|r| format!("{r:.0}")).collect();
        out.log.push(format!(
            "timed cases, ops per {clock} second: {} (median {:.0}, IQR {:.1}% of it)",
            shown.join(" "),
            median(&rates),
            100.0 * stats::iqr_share(&rates).unwrap_or(0.0)
        ));
    }
    if !args.trace {
        end_to_end(&mut out, &timed);
        return out;
    }
    let traced: Vec<&Case> =
        results.iter().filter(|(p, _)| *p == Pass::Traced).map(|(_, c)| c).collect();
    let plain: Vec<&Case> =
        results.iter().filter(|(p, _)| *p == Pass::Plain).map(|(_, c)| c).collect();
    per_layer(&mut out, &timed, &traced, &plain, gen_s);
    if let Some(last) = traced.last() {
        let dir = std::env::var_os("CARGO_TARGET_DIR")
            .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
        let path = dir.join("perfbench-spans").join(format!("{}-seed{seed}.tsv", args.workload));
        match last.tracer().write_tsv(&path) {
            Ok(()) => out.log.push(format!("spans written to {}", path.display())),
            Err(e) => out.problems.push(format!("writing spans to {}: {e}", path.display())),
        }
    }
    out
}

/// One measured case of either kind, with its span recorder.
enum Case {
    Closed(RoundOut, Tracer),
    Sweep(sweep::SweepOut, Tracer),
}

impl Case {
    fn m(&self) -> &Measured {
        match self {
            Case::Closed(r, _) => &r.m,
            Case::Sweep(s, _) => &s.m,
        }
    }
    fn tracer(&self) -> &Tracer {
        match self {
            Case::Closed(_, t) | Case::Sweep(_, t) => t,
        }
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn med(cases: &[&Case], f: impl Fn(&Measured) -> f64) -> f64 {
    median(&cases.iter().map(|c| f(c.m())).collect::<Vec<_>>())
}

fn end_to_end(out: &mut Outcome, timed: &[&Case]) {
    out.metrics.insert("ops_per_ref_s", med(timed, Measured::ops_per_ref_s));
    out.metrics.insert("cases_per_ref_s", med(timed, Measured::cases_per_ref_s));
    out.metrics.insert("setup_s", med(timed, Measured::setup_s));
    out.metrics.insert("peak_heap_mib", med(timed, Measured::peak_heap_mib));
    out.metrics.insert("served_frac", med(timed, Measured::served_frac));
}

/// Wall-clock figures of one traced case, from its spans.
fn span_figures(case: &Case) -> BTreeMap<&'static str, f64> {
    let spans = case.tracer().spans();
    let own = self_times(spans);
    let mut f = BTreeMap::new();
    let total = |layer: Layer| -> f64 {
        spans.iter().filter(|s| s.layer == layer).map(|s| s.dur() as f64).sum()
    };
    let root = if matches!(case, Case::Closed(..)) { Layer::Serve } else { Layer::Sweep };
    let issued = case.m().issued as f64;
    // Reference-clock slices are the benchmark's own and no layer's: the
    // shares leave them out.
    let root_ns = total(root) - total(Layer::RefSlice);
    let root_self: f64 =
        spans.iter().zip(&own).filter(|(s, _)| s.layer == root).map(|(_, &o)| o as f64).sum();
    f.insert("bench.harness_self_share", ratio(root_self, root_ns));
    let pump_ns = total(Layer::Pump);
    f.insert("cluster.pump_share", ratio(pump_ns, root_ns));
    let mut pumps: Vec<f64> =
        spans.iter().filter(|s| s.layer == Layer::Pump).map(|s| s.dur() as f64 / 1e3).collect();
    pumps.sort_by(f64::total_cmp);
    let pct = |p: f64| {
        if pumps.is_empty() {
            0.0
        } else {
            let rank = ((p / 100.0) * pumps.len() as f64).ceil().max(1.0) as usize;
            pumps[rank - 1]
        }
    };
    f.insert("cluster.pump_us_p50", pct(50.0));
    f.insert("cluster.pump_us_p99", pct(99.0));
    let submit_ns = total(Layer::Submit);
    let drain_ns = total(Layer::Drain);
    f.insert("client.submit_ns_per_op", ratio(submit_ns, issued));
    f.insert("client.submit_share", ratio(submit_ns, root_ns));
    f.insert("client.drain_ns_per_op", ratio(drain_ns, issued));
    f.insert("client.drain_share", ratio(drain_ns, root_ns));
    if let Case::Closed(r, _) = case {
        f.insert(
            "sim.us_per_delivered",
            ratio(pump_ns / 1e3, r.counters.get("net.delivered") as f64),
        );
    } else {
        f.insert("sim.us_per_delivered", 0.0);
    }
    f
}

fn per_layer(out: &mut Outcome, timed: &[&Case], traced: &[&Case], plain: &[&Case], gen_s: f64) {
    let m = &mut out.metrics;
    for d in metrics::PER_LAYER {
        m.insert(d.name, 0.0);
    }
    // Wall figures: the median over traced cases.
    let figures: Vec<BTreeMap<&str, f64>> = traced.iter().map(|c| span_figures(c)).collect();
    if let Some(first) = figures.first() {
        for name in first.keys() {
            let xs: Vec<f64> = figures.iter().map(|f| f[name]).collect();
            m.insert(name, median(&xs));
        }
    }
    m.insert("bench.gen_s", gen_s);
    m.insert("bench.rounds", (timed.len() + traced.len() + plain.len()) as f64);
    m.insert("bench.host_speed", med(timed, |c| ratio(c.serve_s, c.serve_cpu_s)));
    m.insert("bench.ops_per_cpu_s", med(timed, |c| ratio(c.issued as f64, c.serve_cpu_s)));
    let untraced = med(timed, Measured::ops_per_ref_s);
    m.insert("bench.trace_overhead", ratio(untraced, med(traced, Measured::ops_per_ref_s)) - 1.0);
    if !plain.is_empty() {
        m.insert("planes.overhead_ratio", ratio(med(plain, Measured::ops_per_ref_s), untraced));
    }
    m.insert("cluster.new_s", med(traced, |c| c.new_s));
    m.insert("cluster.settle_s", med(traced, |c| c.settle_s));

    // Virtual and counted figures are identical in every case of one
    // seed (the digest check holds them equal); read them off one.
    match timed.first() {
        Some(Case::Closed(r, _)) => closed_counts(m, r, timed),
        Some(Case::Sweep(s, _)) => {
            m.insert("scenario.run_s", med(timed, |c| c.serve_s));
            m.insert("scenario.ops_issued", s.m.issued as f64);
            m.insert("audit.history_ops", s.history_ops as f64);
            m.insert("client.timeouts", s.timeouts as f64);
            m.insert("client.partials", s.partials as f64);
            m.insert("client.no_live_entry", s.no_entry as f64);
            m.insert("client.failed_frac", ratio(s.errors as f64, s.m.issued as f64));
            m.insert("net.sent_per_op", ratio(s.msgs as f64, s.m.issued as f64));
        }
        None => {}
    }
}

fn closed_counts(m: &mut BTreeMap<&'static str, f64>, r: &RoundOut, timed: &[&Case]) {
    let n = r.m.issued as f64;
    let c = |name: &str| r.counters.get(name) as f64;
    m.insert("sim.queue_depth_max", r.qdepth_max as f64);
    m.insert("sim.queue_depth_mean", ratio(r.qdepth_sum as f64, r.pumps as f64));
    m.insert("bench.ticks", r.ticks as f64);
    m.insert("net.sent_per_op", ratio(c("net.sent"), n));
    m.insert("net.delivered_per_op", ratio(c("net.delivered"), n));
    m.insert("net.dropped", c("net.dropped"));
    m.insert("net.dropped_down", c("net.dropped_down"));
    m.insert("fd.notices", c("fd.notices"));
    m.insert("client.drain_probes_per_harvest", ratio(r.drain_probes as f64, n));
    let samples = r.lat.len();
    m.insert("client.latency_p50_ticks", r.lat.percentile(50.0) as f64);
    m.insert("client.latency_p99_ticks", r.lat.percentile(99.0) as f64);
    m.insert("client.latency_max_ticks", r.lat.max() as f64);
    m.insert("client.latency_samples", samples as f64);
    if let Some(p) = top_percentile(samples) {
        m.insert("client.latency_top_pct", p);
        m.insert("client.latency_top_ticks", r.lat.percentile(p) as f64);
    }
    m.insert("client.timeouts", r.timeouts as f64);
    m.insert("client.partials", r.partials as f64);
    m.insert("client.no_live_entry", r.no_entry as f64);
    m.insert("client.failed_frac", ratio((r.timeouts + r.partials + r.no_entry) as f64, n));
    m.insert("client.absent_reads", r.absent as f64);
    let hits = c("soft.cache_hits");
    m.insert("soft.cache_hit_ratio", ratio(hits, hits + c("soft.cache_misses")));
    m.insert("soft.fallback_fetches_per_op", ratio(c("soft.fallback_fetches"), n));
    m.insert("soft.multi_get_forwards", c("soft.multi_get_forwards"));
    m.insert("multi_get.contacted_mean", r.contacted_mean);
    m.insert("persist.stored_per_put", ratio(c("persist.stored"), r.tuples_written as f64));
    m.insert("persist.relays_per_op", ratio(c("persist.relays"), n));
    let syncs = c("repair.syncs");
    m.insert("repair.syncs", syncs);
    m.insert("repair.pulls", c("repair.pulls"));
    m.insert(
        "repair.useful_ratio",
        if syncs > 0.0 { 1.0 - c("repair.clean") / syncs } else { 0.0 },
    );
    m.insert("repair.recovered", c("repair.recovered"));
    if let Some(p) = &r.planes {
        let planes = |f: fn(&closed::PlaneOut) -> f64| {
            let xs: Vec<f64> = timed
                .iter()
                .filter_map(|c| match c {
                    Case::Closed(r, _) => r.planes.as_ref().map(f),
                    Case::Sweep(..) => None,
                })
                .collect();
            median(&xs)
        };
        m.insert("audit.check_s", planes(|p| p.audit_check_s));
        m.insert("trace.build_s", planes(|p| p.trace_build_s));
        m.insert("obs.build_s", planes(|p| p.obs_build_s));
        m.insert("planes.report_s", planes(|p| p.report_s));
        m.insert("audit.history_ops", p.history_ops as f64);
        m.insert("trace.spans", p.trace_spans as f64);
        m.insert("obs.samples", p.obs_samples as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sorted(defs: &[metrics::MetricDef]) -> Vec<&'static str> {
        let mut v: Vec<&str> = defs.iter().map(|d| d.name).collect();
        v.sort_unstable();
        v
    }

    fn reported(timed: &Case, traced: &Case, plain: &[&Case]) -> [Vec<&'static str>; 2] {
        let mut e2e = Outcome::default();
        end_to_end(&mut e2e, &[timed]);
        let mut layer = Outcome::default();
        per_layer(&mut layer, &[timed], &[traced], plain, 0.0);
        [e2e.metrics.keys().copied().collect(), layer.metrics.keys().copied().collect()]
    }

    #[test]
    fn a_small_observed_feed_prints_every_metric_and_passes_its_checks() {
        let shape = Shape { soft_n: 2, persist_n: 8, ..FEED };
        let script = inputs::feed_script(1, 300, 20, shape.persist_n, 100);
        let case = |observed: bool, mut tr: Tracer| {
            let r = closed::round(&shape, 9, &script, observed, &mut RefClock::new(), &mut tr);
            Case::Closed(r, tr)
        };
        let timed = case(true, Tracer::off());
        let traced = case(true, Tracer::on());
        let plain = case(false, Tracer::off());
        for c in [&timed, &traced, &plain] {
            assert!(c.m().problems.is_empty(), "{:?}", c.m().problems);
            assert_eq!(c.m().digest, timed.m().digest, "planes and spans change no virtual output");
            assert_eq!(c.m().issued, 300);
        }
        let [e2e, layer] = reported(&timed, &traced, &[&plain]);
        assert_eq!(e2e, sorted(&metrics::END_TO_END));
        assert_eq!(layer, sorted(&metrics::PER_LAYER));
    }

    #[test]
    fn a_small_sweep_prints_every_metric_and_passes_its_checks() {
        let window = sweep::cases(3, 2);
        let mut clock = RefClock::new();
        let timed =
            Case::Sweep(sweep::pass(&window, &mut clock, &mut Tracer::off()), Tracer::off());
        let mut tr = Tracer::on();
        let traced = Case::Sweep(sweep::pass(&window, &mut clock, &mut tr), tr);
        assert!(timed.m().problems.is_empty(), "{:?}", timed.m().problems);
        assert_eq!(timed.m().digest, traced.m().digest);
        let [e2e, layer] = reported(&timed, &traced, &[]);
        assert_eq!(e2e, sorted(&metrics::END_TO_END));
        assert_eq!(layer, sorted(&metrics::PER_LAYER));
    }
}
