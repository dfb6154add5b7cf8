//! Differential tests: the engine's parallel per-second hot path
//! (sharded stepping, fused sensing, load accumulation, trace recording)
//! must be bit-identical to the sequential path on the full data-center
//! scenario — including a mid-run feed failure, so the failover and
//! trip-handling paths are compared too.

use std::fmt::Debug;

use capmaestro_core::policy::PolicyKind;
use capmaestro_sim::engine::{Engine, Event, Series, Trace};
use capmaestro_sim::scenarios::{datacenter_rig, DataCenterRigConfig};
use capmaestro_topology::presets::DataCenterParams;
use capmaestro_topology::FeedId;
use capmaestro_units::Watts;

/// A 64-server data center (8 racks × 8) — the Fig. 8-style closed-loop
/// scenario at a size that keeps the debug-mode differential run fast.
fn small_dc(policy: PolicyKind, spo: bool) -> DataCenterRigConfig {
    DataCenterRigConfig {
        params: DataCenterParams {
            racks: 8,
            transformers_per_feed: 2,
            rpps_per_transformer: 2,
            cdus_per_rpp: 2,
            servers_per_rack: 8,
            ..DataCenterParams::default()
        },
        contractual_per_phase: Watts::from_kilowatts(700.0 * 8.0 / 162.0) * 0.95,
        utilization: 0.8,
        policy,
        spo,
        ..DataCenterRigConfig::default()
    }
}

fn assert_series_identical<K: Copy + Ord + Debug>(
    what: &str,
    seq: &Series<K>,
    par: &Series<K>,
) {
    assert_eq!(seq.len(), par.len(), "{what}: different key sets");
    for (key, series_seq) in seq {
        let series_par = par
            .get(key)
            .unwrap_or_else(|| panic!("{what}: parallel trace missing {key:?}"));
        assert_eq!(series_seq.len(), series_par.len(), "{what} {key:?}: length");
        for (i, (a, b)) in series_seq.iter().zip(series_par).enumerate() {
            // Bit comparison (not ==) so NaN placeholders compare equal
            // and -0.0 vs 0.0 would be caught.
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{what} {key:?}[{i}]: {a} vs {b}"
            );
        }
    }
}

fn assert_traces_identical(seq: &Trace, par: &Trace) {
    assert_series_identical("server_power", &seq.server_power, &par.server_power);
    assert_series_identical("supply_power", &seq.supply_power, &par.supply_power);
    assert_series_identical("throttle", &seq.throttle, &par.throttle);
    assert_series_identical("dc_cap", &seq.dc_cap, &par.dc_cap);
    assert_series_identical("node_load", &seq.node_load, &par.node_load);
    assert_eq!(seq.node_names, par.node_names);
    assert_eq!(seq.trips, par.trips);
    assert_eq!(seq.lost_servers, par.lost_servers);
    assert_eq!(seq.stranded, par.stranded);
    assert_eq!(seq.seconds, par.seconds);
}

#[test]
fn parallel_engine_is_bit_identical_on_the_datacenter_scenario() {
    for (policy, spo, threads) in [
        (PolicyKind::GlobalPriority, false, 4),
        (PolicyKind::LocalPriority, true, 7),
    ] {
        let config = small_dc(policy, spo);
        let mut seq = Engine::new(datacenter_rig(&config));
        let mut par = Engine::new(datacenter_rig(&config));
        par.set_parallelism(threads);
        // A mid-run feed failure exercises failover, supply shifting, and
        // the shared-budget inheritance in both engines.
        seq.schedule(20, Event::FailFeed(FeedId::B));
        par.schedule(20, Event::FailFeed(FeedId::B));
        let trace_seq = seq.run(48);
        let trace_par = par.run(48);
        assert_traces_identical(&trace_seq, &trace_par);

        // The converged round decisions match bitwise as well.
        let report_seq = seq.run_control_round();
        let report_par = par.run_control_round();
        assert_eq!(report_seq.dc_caps.len(), report_par.dc_caps.len());
        for (id, cap) in &report_seq.dc_caps {
            let other = report_par.dc_caps[id];
            assert_eq!(
                cap.as_f64().to_bits(),
                other.as_f64().to_bits(),
                "dc cap for {id} (policy {policy:?}, spo {spo}): {cap} vs {other}"
            );
        }
        assert_eq!(
            report_seq.stranded_reclaimed.as_f64().to_bits(),
            report_par.stranded_reclaimed.as_f64().to_bits()
        );
    }
}
