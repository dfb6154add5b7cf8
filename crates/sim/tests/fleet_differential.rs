//! Fleet-scale stepping differentials: the event-driven, sharded hot
//! path (struct-of-arrays slab, dirty bitmaps, incremental sense
//! buffers) must be **bitwise identical** to the sequential full-rebuild
//! sweep — on the paper's small Fig. 2 priority rig under seeded chaos,
//! and on a ≥10k-server data center where most of the fleet has
//! quiesced before mid-run faults dirty previously-quiescent servers.

use std::fmt::Debug;

use capmaestro_core::policy::PolicyKind;
use capmaestro_sim::engine::{Engine, Event, Series, Trace};
use capmaestro_sim::faults::{ChaosConfig, ChaosPlan};
use capmaestro_sim::scenarios::{
    datacenter_rig, priority_rig, DataCenterRigConfig, Rig, RigConfig,
};
use capmaestro_topology::presets::DataCenterParams;
use capmaestro_topology::{FeedId, ServerId, SupplyIndex};
use capmaestro_units::Watts;

/// The reference engine: sequential, full-rebuild stepping (every server
/// stepped and re-sensed every second, no dirty-bit skipping).
fn full_rebuild(rig: Rig) -> Engine {
    let mut engine = Engine::new(rig);
    engine.set_event_driven(false).set_parallelism(1);
    engine
}

/// The fleet engine under test: event-driven stepping sharded across
/// `threads` workers.
fn event_driven(rig: Rig, threads: usize) -> Engine {
    let mut engine = Engine::new(rig);
    engine.set_event_driven(true).set_parallelism(threads);
    engine
}

fn assert_series_identical<K: Copy + Ord + Debug>(
    what: &str,
    seq: &Series<K>,
    fleet: &Series<K>,
) {
    assert_eq!(seq.len(), fleet.len(), "{what}: different key sets");
    for (key, series_seq) in seq {
        let series_fleet = fleet
            .get(key)
            .unwrap_or_else(|| panic!("{what}: fleet trace missing {key:?}"));
        assert_eq!(series_seq.len(), series_fleet.len(), "{what} {key:?}: length");
        for (i, (a, b)) in series_seq.iter().zip(series_fleet).enumerate() {
            // Bit comparison (not ==) so NaN placeholders compare equal
            // and -0.0 vs 0.0 would be caught.
            assert_eq!(a.to_bits(), b.to_bits(), "{what} {key:?}[{i}]: {a} vs {b}");
        }
    }
}

fn assert_traces_identical(seq: &Trace, fleet: &Trace) {
    assert_series_identical("server_power", &seq.server_power, &fleet.server_power);
    assert_series_identical("supply_power", &seq.supply_power, &fleet.supply_power);
    assert_series_identical("throttle", &seq.throttle, &fleet.throttle);
    assert_series_identical("dc_cap", &seq.dc_cap, &fleet.dc_cap);
    assert_series_identical("node_load", &seq.node_load, &fleet.node_load);
    assert_eq!(seq.node_names, fleet.node_names);
    assert_eq!(seq.trips, fleet.trips);
    assert_eq!(seq.lost_servers, fleet.lost_servers);
    assert_eq!(seq.stranded, fleet.stranded);
    assert_eq!(seq.seconds, fleet.seconds);
}

fn assert_final_rounds_identical(seq: &mut Engine, fleet: &mut Engine) {
    let report_seq = seq.run_control_round();
    let report_fleet = fleet.run_control_round();
    assert_eq!(report_seq.dc_caps.len(), report_fleet.dc_caps.len());
    for (id, cap) in &report_seq.dc_caps {
        let other = report_fleet.dc_caps[id];
        assert_eq!(
            cap.as_f64().to_bits(),
            other.as_f64().to_bits(),
            "dc cap for {id} diverged: {cap} vs {other}"
        );
    }
    assert_eq!(
        report_seq.stranded_reclaimed.as_f64().to_bits(),
        report_fleet.stranded_reclaimed.as_f64().to_bits()
    );
}

/// Fig. 2 priority rig under a seeded chaos plan (telemetry faults and
/// feed flaps) plus scripted demand/priority changes landing *after* the
/// node managers have converged — the events that dirty a quiescent
/// server. Event-driven + 4-way sharding must match the sequential
/// full-rebuild run bit for bit.
#[test]
fn fig2_rig_under_seeded_chaos_is_bitwise_identical() {
    let seconds = 160;
    let chaos = {
        let rig = priority_rig(RigConfig::table2());
        let servers: Vec<ServerId> = rig.farm.iter().map(|(id, _)| id).collect();
        let feeds: Vec<FeedId> = rig.topology.feeds().iter().map(|g| g.feed()).collect();
        ChaosPlan::generate(
            &ChaosConfig {
                seconds,
                episodes: 8,
                min_duration_s: 8,
                max_duration_s: 24,
                settle_s: 16,
                quiesce_s: 24,
                ..ChaosConfig::default()
            },
            &servers,
            &feeds,
            0xF1EE7,
        )
    };

    let mut seq = full_rebuild(priority_rig(RigConfig::table2()));
    let mut fleet = event_driven(priority_rig(RigConfig::table2()), 4);
    for engine in [&mut seq, &mut fleet] {
        engine.schedule_chaos(&chaos);
        // By second 100 the four servers have long quiesced; these dirty
        // one directly (demand) and one indirectly (priority → new cap).
        let sa = engine.topology().server_by_name("SA").expect("SA");
        let sb = engine.topology().server_by_name("SB").expect("SB");
        engine.schedule(100, Event::SetDemand(sa, Watts::new(210.0)));
        engine.schedule(
            108,
            Event::SetPriority(sb, capmaestro_topology::Priority::HIGH),
        );
    }
    let trace_seq = seq.run(seconds);
    let trace_fleet = fleet.run(seconds);
    assert_traces_identical(&trace_seq, &trace_fleet);
    assert_final_rounds_identical(&mut seq, &mut fleet);
}

/// A ≥10k-server data center (250 racks × 42). Most of the fleet
/// quiesces within the node managers' ~6 s settling; mid-run events then
/// fail a supply on one previously-quiescent server and re-target
/// another's demand, on top of a seeded telemetry-chaos plan. The
/// event-driven sharded run must stay bitwise identical throughout.
#[test]
fn ten_thousand_server_rig_is_bitwise_identical() {
    let config = DataCenterRigConfig {
        params: DataCenterParams {
            racks: 250,
            transformers_per_feed: 2,
            rpps_per_transformer: 5,
            cdus_per_rpp: 25,
            servers_per_rack: 42,
            ..DataCenterParams::default()
        },
        contractual_per_phase: Watts::from_kilowatts(700.0 * 250.0 / 162.0) * 0.95,
        utilization: 0.9,
        policy: PolicyKind::GlobalPriority,
        spo: false,
        ..DataCenterRigConfig::default()
    };
    let seconds = 26;
    let rig = datacenter_rig(&config);
    assert!(rig.farm.len() >= 10_000, "rig has {} servers", rig.farm.len());
    let servers: Vec<ServerId> = rig.farm.iter().map(|(id, _)| id).collect();
    let chaos = ChaosPlan::generate(
        &ChaosConfig {
            seconds,
            episodes: 3,
            min_duration_s: 4,
            max_duration_s: 8,
            settle_s: 4,
            quiesce_s: 4,
            flap_fraction: 0.0,
            ..ChaosConfig::default()
        },
        &servers,
        &[],
        0xD47A_F1EE7,
    );
    let dirty_supply = servers[servers.len() / 3];
    let dirty_demand = servers[2 * servers.len() / 3];

    let mut seq = full_rebuild(rig);
    let mut fleet = event_driven(datacenter_rig(&config), 5);
    for engine in [&mut seq, &mut fleet] {
        engine.schedule_chaos(&chaos);
        // t = 12: converged fleet; these two servers went quiescent
        // seconds ago and must be re-activated by the dirty tracking.
        engine.schedule(12, Event::FailSupply(dirty_supply, SupplyIndex::SECOND));
        engine.schedule(14, Event::SetDemand(dirty_demand, Watts::new(150.0)));
    }
    let trace_seq = seq.run(seconds);
    let trace_fleet = fleet.run(seconds);
    assert_traces_identical(&trace_seq, &trace_fleet);
    assert_final_rounds_identical(&mut seq, &mut fleet);
}
