//! The scenario sweep: a seeded window of generated fuzz cases, each run
//! through `Cluster::new` → `settle` → `try_run_scenario` (audited) — the
//! only workload that goes through dd-core's scenario phase engine.

use crate::alloc;
use crate::measured::Measured;
use crate::reference::RefClock;
use crate::spans::{Layer, Tracer};
use crate::stats::{fnv, FNV_BASIS};
use dd_fuzz::{generate, Case, FuzzConfig};

/// The window of cases `--seed` selects: `cases` consecutive generator
/// seeds starting at `seed * cases`, so different seeds never overlap.
pub fn cases(seed: u64, cases: u64) -> Vec<Case> {
    let cfg = FuzzConfig::smoke();
    let start = seed.wrapping_mul(cases);
    (0..cases).map(|i| generate(&cfg, start.wrapping_add(i))).collect()
}

/// Everything one pass over the window measured and checked.
#[derive(Debug, Clone, Default)]
pub struct SweepOut {
    /// Timings, counts, checks and digest shared with the closed loop.
    pub m: Measured,
    /// Scenario ops that failed (timeouts, partials, no live entry).
    pub errors: u64,
    /// Timeouts among `errors`.
    pub timeouts: u64,
    /// Partial batches among `errors`.
    pub partials: u64,
    /// No-live-entry failures among `errors`.
    pub no_entry: u64,
    /// Messages sent over every scenario.
    pub msgs: u64,
    /// Ops in every case's audit history.
    pub history_ops: u64,
}

/// Runs every case once.
pub fn pass(window: &[Case], clock: &mut RefClock, tr: &mut Tracer) -> SweepOut {
    let mut out = SweepOut::default();
    let mut h = FNV_BASIS;
    alloc::reset_peak();
    clock.poll(tr);
    let t0 = clock.now();
    tr.open(Layer::Sweep);
    for case in window {
        clock.poll(tr);
        let t_new = clock.now();
        tr.open(Layer::ClusterNew);
        let mut cluster = dd_core::Cluster::new(case.cluster_config(), case.seed);
        tr.close();
        let t_settle = clock.now();
        tr.open(Layer::ClusterSettle);
        cluster.settle();
        tr.close();
        let t_run = clock.now();
        tr.open(Layer::ScenarioRun);
        let result = cluster.try_run_scenario(&case.scenario);
        tr.close();
        let t_end = clock.now();
        out.m.new_s += t_new.ref_to(&t_settle);
        out.m.settle_s += t_settle.ref_to(&t_run);
        out.m.serve_s += t_run.ref_to(&t_end);
        out.m.serve_cpu_s += t_end.cpu_s - t_run.cpu_s;
        out.m.serve_wall_s += (t_end.wall - t_run.wall).as_secs_f64();
        out.m.cases += 1;
        let report = match result {
            Ok(r) => r,
            Err(errs) => {
                out.m.fail(format!("case {}: rejected: {errs:?}", case.seed));
                continue;
            }
        };
        let errors = report.errors();
        let ok: u64 = report.phases.iter().map(|p| p.ok).sum();
        let issued = report.issued();
        out.m.issued += issued;
        out.m.ok += ok;
        out.errors += errors.total();
        out.timeouts += errors.timeouts;
        out.partials += errors.partials;
        out.no_entry += errors.no_entry;
        out.msgs += report.msgs;
        if ok + errors.total() != issued {
            out.m.fail(format!(
                "case {}: {issued} issued, {} resolved",
                case.seed,
                ok + errors.total()
            ));
        }
        match &report.audit {
            Some(a) => {
                out.history_ops += a.ops;
                let safety = a.safety_count();
                if safety > 0 {
                    out.m.fail(format!("case {}: {safety} safety violations", case.seed));
                }
            }
            None => out.m.fail(format!("case {}: scenario ran unaudited", case.seed)),
        }
        for x in [
            report.ticks,
            report.msgs,
            issued,
            ok,
            errors.timeouts,
            errors.partials,
            errors.no_entry,
            report.latency_p50.to_bits(),
            report.latency_p99.to_bits(),
        ] {
            h = fnv(h, x);
        }
    }
    tr.close();
    out.m.round_s = t0.ref_to(&clock.now());
    out.m.peak_heap = alloc::peak_bytes();
    out.m.digest = h;
    out
}
