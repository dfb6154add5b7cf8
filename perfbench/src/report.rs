//! The metric tables, registry readers, and the result line.
//!
//! `E2E` and `PER_LAYER` are the metric names `BENCHMARK.json` declares,
//! in the same order; a unit test keeps the two in step. A timed run
//! (`--trace 0`) prints every `E2E` metric; a traced run (`--trace 1`)
//! prints every `PER_LAYER` metric. A per-layer metric of a layer the
//! workload never calls reads 0, and its `_n` count beside it reads 0.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use capmaestro_core::obs::MetricsSnapshot;

use crate::host::{Dual, HostClock};
use crate::stats::Samples;

/// Independent set-ups per timed run; `setup_s` is their median.
pub const SETUP_REPS: usize = 15;

/// `(name, unit, better)` of every end-to-end metric.
pub const E2E: &[(&str, &str, &str)] = &[
    ("setup_s", "s", "lower"),
    ("sim_speed", "sim_s/s", "higher"),
    ("round_ms_p50", "ms", "lower"),
    ("round_ms_p95", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
];

/// `(name, unit, better)` of every per-layer metric.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    // Whole run.
    ("fail_ratio", "ratio", "lower"),
    ("fail_base", "count", "higher"),
    ("round_n", "count", "higher"),
    ("trace.untraced_iter_us", "us", "lower"),
    ("trace.traced_iter_us", "us", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("bench.derived_clamped", "count", "lower"),
    // sim::engine and the in-process control plane.
    ("sim.engine.step_us", "us", "lower"),
    ("sim.engine.step_n", "count", "higher"),
    ("sim.engine.inner_us", "us", "lower"),
    ("sim.engine.flush_us", "us", "lower"),
    ("sim.engine.physics_us", "us", "lower"),
    ("core.plane.sense_us", "us", "lower"),
    ("core.plane.sense_n", "count", "higher"),
    ("core.plane.estimate_us", "us", "lower"),
    ("core.plane.enforce_us", "us", "lower"),
    ("core.plane.rounds", "count", "higher"),
    ("core.tree.gather_us", "us", "lower"),
    ("core.tree.gather_work_ratio", "ratio", "lower"),
    ("core.tree.nodes_summarized", "count", "lower"),
    ("core.tree.nodes_skipped", "count", "higher"),
    ("core.alloc.allocate_us", "us", "lower"),
    ("core.spo.spo_us", "us", "lower"),
    ("core.plane.stale_servers", "count", "lower"),
    ("core.plane.failsafe_caps", "count", "lower"),
    ("sim.out.seconds", "s", "higher"),
    ("sim.out.energy_kwh", "kWh", "higher"),
    ("sim.out.stranded_w", "W", "higher"),
    ("sim.out.trips", "count", "lower"),
    // core::workers over serve::socket with serve::agent.
    ("core.workers.round_us", "us", "lower"),
    ("core.workers.advance_us", "us", "lower"),
    ("core.workers.advance_n", "count", "higher"),
    ("serve.agent.heartbeat_rtt_us", "us", "lower"),
    ("serve.agent.heartbeat_n", "count", "higher"),
    ("core.wire.encode_us", "us", "lower"),
    ("core.wire.decode_us", "us", "lower"),
    ("core.wire.msgs_n", "count", "higher"),
    ("core.wire.bytes_per_round", "B", "lower"),
    ("core.workers.gather_timeouts", "count", "lower"),
    ("core.workers.failsafe_cuts", "count", "lower"),
    ("core.workers.transport_violations", "count", "lower"),
    ("serve.agent.reconnects", "count", "lower"),
    // serve::{server, router, state} and core::oplog under operator load.
    ("req_ms_p50", "ms", "lower"),
    ("req_ms_p95", "ms", "lower"),
    ("req_n", "count", "higher"),
    ("mutate_ms_p50", "ms", "lower"),
    ("mutate_ms_p95", "ms", "lower"),
    ("mutate_n", "count", "higher"),
    ("serve.route.metrics_ms", "ms", "lower"),
    ("serve.route.metrics_n", "count", "higher"),
    ("serve.route.report_ms", "ms", "lower"),
    ("serve.route.report_n", "count", "higher"),
    ("serve.route.healthz_ms", "ms", "lower"),
    ("serve.route.healthz_n", "count", "higher"),
    ("serve.route.trace_ms", "ms", "lower"),
    ("serve.route.trace_n", "count", "higher"),
    ("serve.route.put_budget_ms", "ms", "lower"),
    ("serve.route.put_budget_n", "count", "higher"),
    ("core.obs.prometheus.render_us", "us", "lower"),
    ("serve.state.report_json_us", "us", "lower"),
    ("core.obs.trace.render_us", "us", "lower"),
    ("serve.state.probe_n", "count", "higher"),
    ("core.oplog.append_us", "us", "lower"),
    ("core.oplog.append_n", "count", "higher"),
    ("serve.http.overhead_ms", "ms", "lower"),
    ("serve.client.lag_ms_p95", "ms", "lower"),
    ("serve.requests", "count", "higher"),
    ("serve.client_errors", "count", "lower"),
    ("core.oplog.appends", "count", "higher"),
];

/// One correctness check of a run.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub passed: bool,
    /// The evidence, for the log.
    pub detail: String,
}

/// Everything one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric values by name (a superset of what is printed).
    pub values: BTreeMap<&'static str, f64>,
    /// Correctness checks; the run is correct when all pass.
    pub checks: Vec<Check>,
    /// Operations attempted: the base of `fail_ratio`.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// What `attempted` counts, for the log.
    pub fail_base: &'static str,
    /// Sample counts and other per-run facts for the metadata line.
    pub notes: BTreeMap<&'static str, String>,
    /// Heap of the calibration reference, MiB, left out of `peak_rss_mb`.
    pub reference_mb: f64,
}

impl Outcome {
    /// Sets a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Records a check.
    pub fn check(&mut self, name: impl Into<String>, passed: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.into(),
            passed,
            detail: detail.into(),
        });
    }

    /// Records a metadata note.
    pub fn note(&mut self, key: &'static str, value: impl ToString) {
        self.notes.insert(key, value.to_string());
    }

    /// Sets a derived self time in microseconds, counting it in
    /// `bench.derived_clamped` when the difference had to be clamped.
    pub fn set_derived(&mut self, name: &'static str, derived: crate::stats::Derived) {
        self.set(name, derived.value);
        if derived.clamped {
            *self.values.entry("bench.derived_clamped").or_insert(0.0) += 1.0;
            self.note(name, "clamped: children measured longer than the span");
        }
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }
}

/// Sets the end-to-end metrics of a timed run from its set-up times, its
/// round times, and the busy time of its loop over `simulated` simulated
/// seconds, all in reference-host seconds; the wall-clock equivalents go
/// to `meta`.
pub fn end_to_end(
    o: &mut Outcome,
    setups: &Dual,
    rounds: &Dual,
    busy: &Dual,
    simulated: u64,
    host: &HostClock,
) {
    let tail = |s: &Samples| {
        let p50 = s.p50_p95().0;
        let p95 = s.blocked_p95();
        (p50 * 1e3, p95.unwrap_or(s.max()) * 1e3, p95.is_some())
    };
    let (p50, p95, valid) = tail(&rounds.scaled);
    o.set("setup_s", setups.scaled.p50_p95().0);
    o.set("sim_speed", simulated as f64 / busy.scaled.sum());
    o.set("round_ms_p50", p50);
    o.set("round_ms_p95", p95);
    let (raw50, raw95, _) = tail(&rounds.raw);
    o.note("wall_setup_s", setups.raw.p50_p95().0);
    o.note("wall_sim_speed", simulated as f64 / busy.raw.sum());
    o.note("wall_round_ms_p50", raw50);
    o.note("wall_round_ms_p95", raw95);
    o.note("round_n", rounds.raw.len());
    o.note("round_ms_p95_valid", valid);
    o.note(
        "round_ms_p95_blocks",
        (rounds.raw.len() / crate::stats::P95_BLOCK).max(1),
    );
    o.note("setup_reps", setups.raw.len());
    o.note("host_ref_ms_median", host.median_ms());
    o.note("host_ref_samples", host.samples());
    o.reference_mb = host.heap_mb();
}

/// `(count, sum)` of a histogram in `snap`, or zeros when unregistered.
pub fn hist(snap: &MetricsSnapshot, name: &str) -> (u64, f64) {
    snap.histograms
        .iter()
        .find(|h| h.name == name)
        .map_or((0, 0.0), |h| (h.count, h.sum))
}

/// A counter's value in `snap`, or 0 when unregistered.
pub fn counter(snap: &MetricsSnapshot, name: &str) -> u64 {
    snap.counters
        .iter()
        .find(|c| c.name == name)
        .map_or(0, |c| c.value)
}

/// A gauge's value in `snap`, or 0 when unregistered.
pub fn gauge(snap: &MetricsSnapshot, name: &str) -> f64 {
    snap.gauges
        .iter()
        .find(|g| g.name == name)
        .map_or(0.0, |g| g.value)
}

/// Mean of a seconds histogram in microseconds, or 0 with no samples.
pub fn mean_us(snap: &MetricsSnapshot, name: &str) -> f64 {
    let (count, sum) = hist(snap, name);
    if count == 0 {
        0.0
    } else {
        sum / count as f64 * 1e6
    }
}

/// Renders a finite number for JSON (non-finite values become `null`,
/// which the result check below refuses).
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

/// Escapes a string for JSON.
fn string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: `correct`, `attempted`, `failed`, and the metrics of
/// `table`, each with its unit. A metric the workload did not produce is
/// reported as 0 (a layer it never calls); a missing end-to-end metric
/// or a non-finite value makes the run incorrect instead.
pub fn result_line(outcome: &mut Outcome, table: &[(&str, &str, &str)], zero_fill: bool) -> String {
    let mut metrics = Vec::new();
    for &(name, unit, _) in table {
        let value = match outcome.values.get(name) {
            Some(&v) => v,
            None if zero_fill => 0.0,
            None => {
                outcome.check(format!("metric {name} measured"), false, "not produced");
                f64::NAN
            }
        };
        if !value.is_finite() {
            outcome.check(format!("metric {name} finite"), false, format!("{value}"));
        }
        metrics.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            string(name),
            number(value),
            string(unit)
        ));
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    )
}

/// The metadata line printed before the result: host, revision, seed,
/// run length, and the run's sample counts.
pub fn meta_line(fields: &[(&str, String)], notes: &BTreeMap<&'static str, String>) -> String {
    let mut parts: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {}", string(k), string(v)))
        .collect();
    parts.extend(
        notes
            .iter()
            .map(|(k, v)| format!("{}: {}", string(k), string(v))),
    );
    format!("{{\"meta\": {{{}}}}}", parts.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pulls `"name": "..."` values of one array out of BENCHMARK.json
    /// without a JSON dependency: the file is small and regular.
    fn declared(section: &str) -> Vec<(String, String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let start = text
            .find(&format!("\"{section}\""))
            .unwrap_or_else(|| panic!("section {section} missing"));
        let body = &text[start..];
        let end = body.find(']').expect("array end");
        let field = |obj: &str, key: &str| -> String {
            let at = obj.find(&format!("\"{key}\"")).expect("key") + key.len() + 2;
            let rest = &obj[at..];
            let open = rest.find('"').expect("open quote") + 1;
            let close = rest[open..].find('"').expect("close quote") + open;
            rest[open..close].to_string()
        };
        body[..end]
            .split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit"), field(obj, "better")))
            .collect()
    }

    fn owned(table: &[(&str, &str, &str)]) -> Vec<(String, String, String)> {
        table
            .iter()
            .map(|&(a, b, c)| (a.to_string(), b.to_string(), c.to_string()))
            .collect()
    }

    #[test]
    fn tables_match_benchmark_json() {
        assert_eq!(declared("end_to_end"), owned(E2E));
        assert_eq!(declared("per_layer"), owned(PER_LAYER));
    }

    #[test]
    fn names_follow_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for &(name, unit, better) in E2E.iter().chain(PER_LAYER) {
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(better == "lower" || better == "higher");
            assert!(seen.insert(name), "{name} used twice");
        }
    }

    #[test]
    fn result_line_zero_fills_layers_but_not_end_to_end() {
        let mut o = Outcome::default();
        o.set("fail_ratio", 0.0);
        let line = result_line(&mut o, PER_LAYER, true);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert!(line.contains("\"core.wire.encode_us\": {\"value\": 0, \"unit\": \"us\"}"));

        let mut o = Outcome::default();
        o.set("setup_s", 0.5);
        let line = result_line(&mut o, E2E, false);
        assert!(line.starts_with("{\"correct\": false"), "{line}");
        assert!(line.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
    }

    #[test]
    fn clamped_derived_times_are_counted() {
        let mut o = Outcome::default();
        o.set_derived("sim.engine.flush_us", crate::stats::self_time(1.0, &[2.0]));
        o.set_derived(
            "sim.engine.physics_us",
            crate::stats::self_time(3.0, &[2.0]),
        );
        assert_eq!(o.values["sim.engine.flush_us"], 0.0);
        assert_eq!(o.values["sim.engine.physics_us"], 1.0);
        assert_eq!(o.values["bench.derived_clamped"], 1.0);
        assert!(o.notes.contains_key("sim.engine.flush_us"));
    }
}
