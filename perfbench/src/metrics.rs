//! The benchmark's metric and workload catalogue. `BENCHMARK.json` at the
//! repository root lists the same names, units and directions; a test
//! keeps the two in step, and the runner refuses to print a result that
//! misses or adds a name.

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Printed name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"` is better.
    pub better: &'static str,
    /// The layer (module) it measures.
    pub layer: &'static str,
    /// Per-layer: the end-to-end metric and workload a change to it
    /// should move. End-to-end: what the figure counts.
    pub moves: &'static str,
    /// For end-to-end metrics: the share of the parent's median by which
    /// the metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    layer: &'static str,
    moves: &'static str,
) -> MetricDef {
    MetricDef { name, unit, better, layer, moves, bound: None }
}

const fn e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
    layer: &'static str,
    moves: &'static str,
) -> MetricDef {
    MetricDef { name, unit, better, layer, moves, bound: Some(bound) }
}

/// The workloads, each with the one-line reason it exists.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "bulk-2k",
        "2000 persist + 16 soft nodes, uniform 3:1 put:get, no faults: node count is the cost and \
         the only large setup",
    ),
    (
        "feed-churn",
        "128 persist + 8 soft, tag placement, read-heavy feed mix under churn, partition and loss: \
         fan-out, detector, repair and timeouts work",
    ),
    (
        "feed-churn-observed",
        "feed-churn with audit, trace and obs attached: same virtual outputs, so any gap is the \
         planes' cost",
    ),
    (
        "scenario-sweep",
        "a window of generated fuzz cases run audited through the scenario phase engine: many \
         tiny clusters, setup paid per case",
    ),
];

/// Metrics of untraced runs: what a user of the store sees.
pub const END_TO_END: [MetricDef; 5] = [
    e("ops_per_ref_s", "1/s", "higher", 0.25, "client", "completed client ops per reference second of the serve loop (sweep: scenario ops per reference second of run_scenario)"),
    e("cases_per_ref_s", "1/s", "higher", 0.25, "scenario", "whole cases (setup, serve, report) per reference second"),
    e("setup_s", "s", "lower", 0.25, "cluster", "reference seconds of Cluster::new + settle per case (sweep: summed over the window)"),
    e("peak_heap_mib", "MiB", "lower", 0.2, "cluster", "heap high-water mark of the timed region"),
    e("served_frac", "ratio", "higher", 0.05, "client", "ops answered without error over ops attempted"),
];

/// Metrics of the traced run, one layer each; a layer a workload does not
/// drive reads 0.
pub const PER_LAYER: [MetricDef; 56] = [
    m(
        "cluster.new_s",
        "s",
        "lower",
        "cluster",
        "setup_s on bulk-2k; cases_per_ref_s on scenario-sweep",
    ),
    m(
        "cluster.settle_s",
        "s",
        "lower",
        "cluster",
        "setup_s on bulk-2k; cases_per_ref_s on scenario-sweep",
    ),
    m(
        "cluster.pump_share",
        "ratio",
        "lower",
        "cluster",
        "ops_per_ref_s on bulk-2k (most) and feed-churn",
    ),
    m("cluster.pump_us_p50", "us", "lower", "cluster", "ops_per_ref_s on bulk-2k and feed-churn"),
    m("cluster.pump_us_p99", "us", "lower", "cluster", "ops_per_ref_s on bulk-2k and feed-churn"),
    m(
        "sim.us_per_delivered",
        "us",
        "lower",
        "sim",
        "ops_per_ref_s on bulk-2k (most) and feed-churn",
    ),
    m("sim.queue_depth_max", "count", "lower", "sim", "ops_per_ref_s and peak_heap_mib on bulk-2k"),
    m(
        "sim.queue_depth_mean",
        "count",
        "lower",
        "sim",
        "ops_per_ref_s and peak_heap_mib on bulk-2k",
    ),
    m("net.sent_per_op", "count", "lower", "net", "ops_per_ref_s on feed-churn"),
    m("net.delivered_per_op", "count", "lower", "net", "ops_per_ref_s on feed-churn"),
    m("net.dropped", "count", "lower", "net", "ops_per_ref_s on feed-churn"),
    m("net.dropped_down", "count", "lower", "net", "ops_per_ref_s on feed-churn"),
    m("fd.notices", "count", "lower", "cluster", "ops_per_ref_s on feed-churn"),
    m("client.submit_ns_per_op", "ns", "lower", "client", "ops_per_ref_s on feed-churn"),
    m("client.submit_share", "ratio", "lower", "client", "ops_per_ref_s on feed-churn"),
    m(
        "client.drain_share",
        "ratio",
        "lower",
        "client",
        "ops_per_ref_s on feed-churn (most), bulk-2k (little)",
    ),
    m(
        "client.drain_ns_per_op",
        "ns",
        "lower",
        "client",
        "ops_per_ref_s on feed-churn (most), bulk-2k (little)",
    ),
    m("client.drain_probes_per_harvest", "count", "lower", "client", "ops_per_ref_s on feed-churn"),
    m("client.latency_p50_ticks", "ticks", "lower", "client", "none (model output)"),
    m("client.latency_p99_ticks", "ticks", "lower", "client", "none (model output)"),
    m("client.latency_max_ticks", "ticks", "lower", "client", "none (model output)"),
    m(
        "client.latency_samples",
        "count",
        "higher",
        "client",
        "none (sample count of the latency figures)",
    ),
    m(
        "client.latency_top_pct",
        "%",
        "higher",
        "client",
        "none (highest percentile with >=10 samples beyond)",
    ),
    m(
        "client.latency_top_ticks",
        "ticks",
        "lower",
        "client",
        "none (latency at client.latency_top_pct)",
    ),
    m("client.timeouts", "count", "lower", "client", "served_frac on feed-churn"),
    m("client.partials", "count", "lower", "client", "served_frac on feed-churn"),
    m("client.no_live_entry", "count", "lower", "client", "served_frac on feed-churn"),
    m("client.failed_frac", "ratio", "lower", "client", "served_frac on feed-churn"),
    m("client.absent_reads", "count", "lower", "client", "none (reads that found nothing)"),
    m("soft.cache_hit_ratio", "ratio", "higher", "soft", "ops_per_ref_s on feed-churn"),
    m("soft.fallback_fetches_per_op", "count", "lower", "soft", "ops_per_ref_s on feed-churn"),
    m("soft.multi_get_forwards", "count", "lower", "soft", "ops_per_ref_s on feed-churn"),
    m("multi_get.contacted_mean", "count", "lower", "soft", "ops_per_ref_s on feed-churn"),
    m("persist.stored_per_put", "count", "lower", "persist", "ops_per_ref_s on bulk-2k"),
    m("persist.relays_per_op", "count", "lower", "persist", "ops_per_ref_s on bulk-2k"),
    m("repair.syncs", "count", "lower", "repair", "ops_per_ref_s on bulk-2k"),
    m("repair.pulls", "count", "lower", "repair", "ops_per_ref_s on bulk-2k"),
    m(
        "repair.useful_ratio",
        "ratio",
        "higher",
        "repair",
        "ops_per_ref_s on bulk-2k; served_frac on feed-churn",
    ),
    m("repair.recovered", "count", "higher", "repair", "served_frac on feed-churn"),
    m("audit.check_s", "s", "lower", "audit", "cases_per_ref_s on feed-churn-observed"),
    m("audit.history_ops", "count", "higher", "audit", "cases_per_ref_s on feed-churn-observed"),
    m("trace.build_s", "s", "lower", "trace", "cases_per_ref_s on feed-churn-observed"),
    m("trace.spans", "count", "lower", "trace", "cases_per_ref_s on feed-churn-observed"),
    m("obs.build_s", "s", "lower", "obs", "cases_per_ref_s on feed-churn-observed"),
    m("obs.samples", "count", "lower", "obs", "cases_per_ref_s on feed-churn-observed"),
    m("planes.report_s", "s", "lower", "audit/trace/obs", "cases_per_ref_s on feed-churn-observed"),
    m(
        "planes.overhead_ratio",
        "ratio",
        "lower",
        "audit/trace/obs",
        "ops_per_ref_s and peak_heap_mib on feed-churn-observed",
    ),
    m(
        "scenario.run_s",
        "s",
        "lower",
        "scenario",
        "cases_per_ref_s and ops_per_ref_s on scenario-sweep",
    ),
    m("scenario.ops_issued", "count", "higher", "scenario", "ops_per_ref_s on scenario-sweep"),
    m("bench.gen_s", "s", "lower", "bench", "none (input generation, outside timing)"),
    m(
        "bench.harness_self_share",
        "ratio",
        "lower",
        "bench",
        "none (loop wall no layer span covers)",
    ),
    m(
        "bench.trace_overhead",
        "ratio",
        "lower",
        "bench",
        "none (untraced over traced ops_per_ref_s, minus 1)",
    ),
    m("bench.rounds", "count", "higher", "bench", "none (cases measured in this run)"),
    m(
        "bench.host_speed",
        "ratio",
        "higher",
        "bench",
        "none (reference over CPU seconds of serving: 1 on a host of reference speed)",
    ),
    m(
        "bench.ops_per_cpu_s",
        "1/s",
        "higher",
        "bench",
        "none (ops_per_ref_s read on the raw thread CPU clock)",
    ),
    m("bench.ticks", "ticks", "lower", "sim", "none (virtual ticks of one serve loop)"),
];

/// The command, directories and run length `BENCHMARK.json` declares.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "-q",
    "--offline",
    "--release",
    "--manifest-path",
    "perfbench/Cargo.toml",
    "--",
];
/// Directories holding the benchmark.
pub const PATHS: [&str; 1] = ["perfbench"];
/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 25;

fn quoted(s: &str) -> String {
    format!("\"{}\"", dd_sim::json_escape(s))
}

/// `BENCHMARK.json`, rendered from this catalogue.
pub fn benchmark_json() -> String {
    let list = |xs: &[&str]| xs.iter().map(|x| quoted(x)).collect::<Vec<_>>().join(", ");
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(n, why)| format!("    {{\"name\": {}, \"why\": {}}}", quoted(n), quoted(why)))
        .collect();
    let metric = |d: &MetricDef| {
        let bound = d.bound.map_or_else(String::new, |b| format!(", \"bound\": {b}"));
        format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}{bound}}}",
            quoted(d.name),
            quoted(d.unit),
            quoted(d.better)
        )
    };
    let e2e: Vec<String> = END_TO_END.iter().map(metric).collect();
    let layer: Vec<String> = PER_LAYER.iter().map(metric).collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [{}],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        list(&COMMAND),
        list(&PATHS),
        workloads.join(",\n"),
        e2e.join(",\n"),
        layer.join(",\n"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// Whether `name` fits the benchmark's naming rule: starts with a letter
    /// or digit, at most 64 of letters, digits, `_`, `.` and `-`.
    pub fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// Whether `unit` fits the unit rule: 1 to 16 of letters, digits, `_`,
    /// `/`, `%`, `.` and `-`.
    pub fn valid_unit(unit: &str) -> bool {
        (1..=16).contains(&unit.len())
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    fn all_names() -> Vec<&'static str> {
        WORKLOADS
            .iter()
            .map(|w| w.0)
            .chain(END_TO_END.iter().chain(PER_LAYER.iter()).map(|d| d.name))
            .collect()
    }

    #[test]
    fn names_and_units_fit_the_charset_and_are_unique() {
        let names = all_names();
        assert!(names.iter().all(|n| valid_name(n)), "bad name in {names:?}");
        let set: HashSet<_> = names.iter().collect();
        assert_eq!(set.len(), names.len(), "duplicate name");
        for d in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_unit(d.unit), "bad unit {}", d.unit);
            assert!(matches!(d.better, "higher" | "lower"), "bad direction on {}", d.name);
        }
        assert!(WORKLOADS.iter().all(|w| w.1.len() <= 200 && !w.1.contains('\n')));
    }

    #[test]
    fn the_charset_rules_reject_what_they_should() {
        assert!(valid_name("client.latency_p50_ticks"));
        assert!(valid_name("9lives"));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/name"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("1/s") && valid_unit("%") && valid_unit("MiB"));
        assert!(!valid_unit("") && !valid_unit("per second"));
    }

    #[test]
    fn benchmark_json_is_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(json, benchmark_json(), "regenerate with `perfbench --catalogue`");
    }
}
