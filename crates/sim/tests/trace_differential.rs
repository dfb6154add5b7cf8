//! Differential test for the trace exporter: an engine whose control
//! plane records into a live `TraceRecorder` must make bit-identical
//! decisions to one on the default `NullRecorder` — tracing walks trees
//! and buffers events, but must never touch a control input. Extends
//! the PR 4 observability differential to the timeline seam, plus a
//! ring-overflow case proving drop-oldest keeps the emitted document
//! balanced and the dropped counter honest.

use std::fmt::Debug;
use std::sync::Arc;

use capmaestro_core::obs::trace::{self, EventKind, TraceRecorder};
use capmaestro_core::obs::RoundPhase;
use capmaestro_sim::engine::{Engine, Series, Trace};
use capmaestro_sim::faults::{ChaosConfig, ChaosPlan};
use capmaestro_sim::scenarios::{priority_rig, RigConfig};
use capmaestro_topology::{FeedId, ServerId};

const SECONDS: u64 = 200;

fn assert_series_identical<K: Copy + Ord + Debug>(
    what: &str,
    traced: &Series<K>,
    plain: &Series<K>,
) {
    assert_eq!(traced.len(), plain.len(), "{what}: different key sets");
    for (key, series_a) in traced {
        let series_b = plain
            .get(key)
            .unwrap_or_else(|| panic!("{what}: plain trace missing {key:?}"));
        assert_eq!(series_a.len(), series_b.len(), "{what} {key:?}: length");
        for (i, (a, b)) in series_a.iter().zip(series_b).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{what} {key:?}[{i}]: {a} vs {b}");
        }
    }
}

fn assert_traces_identical(traced: &Trace, plain: &Trace) {
    assert_series_identical("server_power", &traced.server_power, &plain.server_power);
    assert_series_identical("supply_power", &traced.supply_power, &plain.supply_power);
    assert_series_identical("throttle", &traced.throttle, &plain.throttle);
    assert_series_identical("dc_cap", &traced.dc_cap, &plain.dc_cap);
    assert_series_identical("node_load", &traced.node_load, &plain.node_load);
    assert_eq!(traced.node_names, plain.node_names);
    assert_eq!(traced.trips, plain.trips);
    assert_eq!(traced.lost_servers, plain.lost_servers);
    assert_eq!(traced.stranded, plain.stranded);
    assert_eq!(traced.seconds, plain.seconds);
}

fn chaos_plan(rig: &capmaestro_sim::scenarios::Rig) -> ChaosPlan {
    let config = ChaosConfig {
        seconds: SECONDS,
        episodes: 4,
        min_duration_s: 8,
        max_duration_s: 24,
        settle_s: 16,
        quiesce_s: 32,
        ..ChaosConfig::default()
    };
    let servers: Vec<ServerId> = rig.farm.iter().map(|(id, _)| id).collect();
    let feeds: Vec<FeedId> = rig.topology.feeds().iter().map(|g| g.feed()).collect();
    ChaosPlan::generate(&config, &servers, &feeds, 42)
}

/// 200 s of the Fig. 2 rig (SPO on) under a seeded telemetry-fault
/// schedule, run twice: once with a `TraceRecorder` capturing the full
/// timeline, once with the default `NullRecorder`. Plane fingerprints
/// must match bit for bit, and the captured trace must validate with
/// every phase present.
#[test]
fn traced_chaos_run_is_bit_identical_to_untraced() {
    let rig = priority_rig(RigConfig::table2().with_spo(true));
    let plan = chaos_plan(&rig);

    let recorder = Arc::new(TraceRecorder::new());
    let mut traced = Engine::new(rig);
    traced.plane_mut().set_recorder(recorder.clone());
    traced.schedule_chaos(&plan);
    let trace_traced = traced.run(SECONDS);

    let mut plain = Engine::new(priority_rig(RigConfig::table2().with_spo(true)));
    plain.schedule_chaos(&plan);
    let trace_plain = plain.run(SECONDS);

    assert_traces_identical(&trace_traced, &trace_plain);

    // The traced run actually produced a valid, complete timeline.
    let parsed = trace::parse(&recorder.render(None)).expect("trace validates");
    for phase in RoundPhase::ALL {
        assert!(
            parsed.slice_count(phase.label()) > 0,
            "phase {} has no slices",
            phase.label()
        );
    }
    assert!(
        parsed.counter_tracks().len() >= 4,
        "expected >= 4 counter tracks: {:?}",
        parsed.counter_tracks()
    );
    assert_eq!(parsed.dropped, 0, "the default ring must hold a 200 s run");
    // The fleet-health tracks are sampled once per control round, so an
    // operator can always see them — even when their value is zero.
    let stale_samples = parsed
        .events
        .iter()
        .filter(|e| {
            e.name == trace::STALE_SERVERS && matches!(e.kind, EventKind::Counter { .. })
        })
        .count();
    assert_eq!(
        stale_samples,
        (SECONDS / 8) as usize,
        "stale_servers must be sampled every round"
    );
}

/// Force ring overflow with a tiny capacity: the rendered document must
/// still validate (drop-oldest can orphan `E` events; the renderer must
/// skip them so B/E nesting stays balanced), and the `droppedEvents`
/// tally must account for every pushed event that is not in the output.
#[test]
fn ring_overflow_keeps_nesting_balanced_and_the_drop_counter_honest() {
    let rig = priority_rig(RigConfig::table2().with_spo(true));
    let recorder = Arc::new(TraceRecorder::with_capacity(64));
    let mut engine = Engine::new(rig);
    engine.plane_mut().set_recorder(recorder.clone());
    engine.run(SECONDS);

    assert!(
        recorder.dropped_events() > 0,
        "a 64-event ring must overflow over {SECONDS} s"
    );
    let text = recorder.render(None);
    let parsed = trace::parse(&text).expect("overflowed trace still validates");
    assert!(
        parsed.events.len() <= 64,
        "render cannot exceed the ring capacity"
    );
    assert_eq!(
        parsed.dropped + parsed.events.len() as u64,
        recorder.pushed_events(),
        "declared drops + kept events must equal everything pushed"
    );
    // Rendering is non-destructive and stable.
    assert_eq!(text, recorder.render(None));
}
