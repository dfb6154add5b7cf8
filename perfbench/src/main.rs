//! One command for the CapMaestro benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fleet_steady --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Workloads: `fleet_steady`, `fleet_storm`, `room_agents`,
//! `operator_api` (see `perfbench/README.md` for why each exists and
//! what it should move). `--trace 0` measures the end-to-end metrics
//! with no recorder attached; `--trace 1` runs the workload twice in one
//! process — half the time as a timed run, half with the program's
//! `MetricsRegistry` attached and the benchmark's own spans around each
//! layer — and prints the per-layer metrics plus the overhead between
//! the halves. The last stdout line is the JSON result; the line before
//! it is the run's metadata. A failed correctness check exits 1.

mod api;
mod fleet;
mod host;
mod meta;
mod report;
mod room;
mod stats;

use std::time::Duration;

use report::{meta_line, result_line, E2E, PER_LAYER};

/// The seed used when `--seed` is absent.
pub const DEFAULT_SEED: u64 = 1;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["fleet_steady", "fleet_storm", "room_agents", "operator_api"];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Which workload to run.
    pub workload: String,
    /// Seed of every generated input.
    pub seed: u64,
    /// Wall time one run measures.
    pub seconds: Duration,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: Duration::from_secs(25),
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => opts.workload = value()?.clone(),
            "--seed" => opts.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds needs a number")?;
                if !(s.is_finite() && s > 0.0 && s <= 170.0) {
                    return Err("--seconds must be in (0, 170]".to_string());
                }
                opts.seconds = Duration::from_secs_f64(s);
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".to_string()),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(opts)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut outcome = match opts.workload.as_str() {
        "fleet_steady" => fleet::run(&opts, false),
        "fleet_storm" => fleet::run(&opts, true),
        "room_agents" => room::run(&opts),
        "operator_api" => api::run(&opts),
        _ => unreachable!("validated by parse"),
    };
    if !opts.trace {
        let peak = meta::peak_rss_mb();
        outcome.note("vm_hwm_mb", peak);
        outcome.note("host_ref_heap_mb", outcome.reference_mb);
        outcome.set("peak_rss_mb", peak - outcome.reference_mb);
    }
    let ratio = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    outcome.set("fail_ratio", ratio);
    outcome.set("fail_base", outcome.attempted as f64);

    let (table, zero_fill) = if opts.trace {
        (PER_LAYER, true)
    } else {
        (E2E, false)
    };
    let line = result_line(&mut outcome, table, zero_fill);
    for check in &outcome.checks {
        println!(
            "check {:<5} {}: {}",
            if check.passed { "ok" } else { "FAIL" },
            check.name,
            check.detail
        );
    }
    println!(
        "fail_ratio {ratio} = {} failed / {} attempted ({})",
        outcome.failed, outcome.attempted, outcome.fail_base
    );
    for &(name, unit, _) in table {
        if let Some(v) = outcome.values.get(name) {
            println!("metric {name} = {v} {unit}");
        }
    }
    let fields = meta::fields(&opts);
    println!("{}", meta_line(&fields, &outcome.notes));
    println!("{line}");
    if !outcome.correct() {
        std::process::exit(1);
    }
}
