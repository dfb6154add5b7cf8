//! The engine's recording and event-queue contracts: series keyed by farm
//! slot and summed in slot order (so fleet totals are the same in every
//! process), `reset_trace` emptying series without dropping their keys,
//! and same-second events applying in the order they were scheduled.

use capmaestro_sim::engine::{Engine, Event};
use capmaestro_sim::scenarios::{datacenter_rig, priority_rig, DataCenterRigConfig, RigConfig};
use capmaestro_topology::presets::DataCenterParams;
use capmaestro_units::Watts;

/// A 64-server data center (8 racks × 8): enough series that a sum in
/// hash order would differ between two maps in the last bits.
fn small_dc() -> DataCenterRigConfig {
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
        ..DataCenterRigConfig::default()
    }
}

#[test]
fn total_energy_is_bit_identical_across_fresh_engines_and_sums_in_slot_order() {
    let totals: Vec<u64> = (0..4)
        .map(|_| {
            let mut engine = Engine::new(datacenter_rig(&small_dc()));
            let trace = engine.run(40);
            let by_slot: f64 = engine
                .farm()
                .ids()
                .iter()
                .map(|&id| trace.server_energy_wh(id))
                .sum();
            let total = trace.total_energy_wh();
            assert_eq!(
                total.to_bits(),
                by_slot.to_bits(),
                "total must sum in slot order"
            );
            total.to_bits()
        })
        .collect();
    assert!(
        totals.windows(2).all(|w| w[0] == w[1]),
        "fleet energy differs between identical engines: {totals:?}"
    );
}

#[test]
fn series_are_keyed_in_farm_slot_order() {
    let engine = Engine::new(datacenter_rig(&small_dc()));
    let trace = engine.trace();
    let ids = engine.farm().ids();
    assert!(trace.server_power.keys().eq(ids.iter()));
    assert!(trace.throttle.keys().eq(ids.iter()));
    assert!(trace.dc_cap.keys().eq(ids.iter()));
    // Supplies follow their server's slot, in supply order.
    let servers: Vec<_> = trace.supply_power.keys().map(|(id, _)| *id).collect();
    assert!(servers.windows(2).all(|w| w[0] <= w[1]));
    assert_eq!(trace.node_load.len(), trace.node_names.len());
}

#[test]
fn reset_trace_empties_series_but_keeps_keys_and_seconds() {
    let rig = priority_rig(RigConfig::table2());
    let sa = rig.server("SA");
    let mut engine = Engine::new(rig);
    for _ in 0..20 {
        engine.step();
    }
    assert_eq!(engine.trace().server_power[&sa].len(), 20);
    let keys = engine.trace().server_power.len();
    engine.reset_trace();
    let trace = engine.trace();
    assert_eq!(trace.server_power.len(), keys);
    assert!(trace.server_power.values().all(Vec::is_empty));
    assert!(trace.supply_power.values().all(Vec::is_empty));
    assert!(trace.node_load.values().all(Vec::is_empty));
    assert!(trace.stranded.is_empty());
    assert_eq!(trace.seconds, 20);
    assert!(trace.node_series("Top CB").is_some_and(<[f64]>::is_empty));

    // Recording resumes into the same series, one sample per second.
    engine.step();
    assert_eq!(engine.trace().server_power[&sa].len(), 1);
    assert_eq!(engine.trace().seconds, 21);
}

#[test]
fn same_second_events_apply_in_schedule_order() {
    let mut engine = Engine::new(priority_rig(RigConfig::table2()));
    // Interleave due seconds so the queue must insert in the middle.
    engine.schedule(10, Event::SetRootBudgets(vec![Watts::new(1000.0)]));
    engine.schedule(5, Event::SetRootBudgets(vec![Watts::new(900.0)]));
    for w in 1..=50 {
        engine.schedule(
            10,
            Event::SetRootBudgets(vec![Watts::new(1000.0 + w as f64)]),
        );
    }
    engine.schedule(20, Event::SetRootBudgets(vec![Watts::new(1200.0)]));
    engine.schedule(5, Event::SetRootBudgets(vec![Watts::new(950.0)]));

    engine.run(6);
    assert_eq!(engine.plane().root_budgets_now(), vec![Watts::new(950.0)]);
    engine.run(5);
    assert_eq!(
        engine.plane().root_budgets_now(),
        vec![Watts::new(1050.0)],
        "the last event scheduled for second 10 must apply last"
    );
    engine.run(10);
    assert_eq!(engine.plane().root_budgets_now(), vec![Watts::new(1200.0)]);
}
