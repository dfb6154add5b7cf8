//! Golden fingerprint of every recorded `Trace` series: the bit pattern
//! of each sample, hashed per series and listed in key order, for two
//! seeded 300 s runs with a feed failure —
//!
//! - the Table 2 / Fig. 2 priority rig, whose only feed fails at 200 s
//!   (every server goes dark and the plane runs with its tree parked);
//! - the Table 3 / Fig. 7a stranded-power rig, whose feed B fails at
//!   120 s and is restored at 240 s (failover, repair, dual-corded
//!   supply series).
//!
//! The checked-in file was produced by the hash-map trace layout that the
//! slot-indexed series replaced, so it pins the new storage to the old
//! recording sample for sample. Any drift is a real change to what the
//! engine records.
//!
//! To regenerate after an intentional change to the recorded values:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p capmaestro-sim --test series_golden
//! ```

use std::fmt::{Debug, Write as _};
use std::hash::Hash;

use capmaestro_sim::engine::{Engine, Event, Trace};
use capmaestro_sim::scenarios::{priority_rig, stranded_rig, RigConfig};
use capmaestro_topology::FeedId;

const SECONDS: u64 = 300;

/// The checked-in fingerprint.
const GOLDEN: &str = include_str!("golden/series_fingerprint.txt");

/// FNV-1a over the little-endian bit patterns of a series.
fn fnv(values: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// One line per key, in sorted key order: name, key, length, hash.
fn series_lines<'a, K>(
    out: &mut String,
    name: &str,
    keys: impl Iterator<Item = &'a K>,
    series: impl Fn(&K) -> &'a [f64],
) where
    K: Ord + Copy + Debug + Hash + 'a,
{
    let mut keys: Vec<K> = keys.copied().collect();
    keys.sort_unstable();
    for key in keys {
        let s = series(&key);
        let hash = fnv(s.iter().map(|v| v.to_bits()));
        writeln!(out, "{name} {key:?} {} {hash:016x}", s.len()).unwrap();
    }
}

fn fingerprint(label: &str, trace: &Trace) -> String {
    let mut out = String::new();
    writeln!(out, "# {label}: {} s", trace.seconds).unwrap();
    series_lines(&mut out, "server_power", trace.server_power.keys(), |k| {
        &trace.server_power[k]
    });
    series_lines(&mut out, "supply_power", trace.supply_power.keys(), |k| {
        &trace.supply_power[k]
    });
    series_lines(&mut out, "throttle", trace.throttle.keys(), |k| {
        &trace.throttle[k]
    });
    series_lines(&mut out, "dc_cap", trace.dc_cap.keys(), |k| {
        &trace.dc_cap[k]
    });
    series_lines(&mut out, "node_load", trace.node_load.keys(), |k| {
        &trace.node_load[k]
    });
    let stranded = fnv(trace.stranded.iter().flat_map(|&(t, w)| [t, w.to_bits()]));
    writeln!(out, "stranded {} {stranded:016x}", trace.stranded.len()).unwrap();
    writeln!(out, "trips {:?}", trace.trips).unwrap();
    writeln!(out, "lost_servers {:?}", trace.lost_servers).unwrap();
    out
}

fn runs() -> String {
    let mut priority = Engine::new(priority_rig(RigConfig::table2()));
    priority.schedule(200, Event::FailFeed(FeedId::A));
    let mut stranded = Engine::new(stranded_rig(RigConfig::table3()));
    stranded.schedule(120, Event::FailFeed(FeedId::B));
    stranded.schedule(240, Event::RestoreFeed(FeedId::B));
    fingerprint(
        "table2 priority rig, feed A fails at 200 s",
        &priority.run(SECONDS),
    ) + &fingerprint(
        "table3 stranded rig, feed B fails at 120 s, restored at 240 s",
        &stranded.run(SECONDS),
    )
}

#[test]
fn every_trace_series_matches_the_golden_fingerprint() {
    let got = runs();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/series_fingerprint.txt"
        );
        std::fs::write(path, &got).expect("write golden");
        panic!("golden regenerated at {path}; re-run without UPDATE_GOLDEN");
    }
    assert_eq!(
        got, GOLDEN,
        "recorded trace series diverged from the checked-in fingerprint \
         (UPDATE_GOLDEN=1 regenerates after intentional changes)"
    );
}

/// The same fingerprint from a run stepped one second at a time through
/// `Engine::step` — the daemon's path — so both recording entry points
/// are pinned.
#[test]
fn manual_stepping_records_the_same_series() {
    let mut engine = Engine::new(priority_rig(RigConfig::table2()));
    engine.schedule(200, Event::FailFeed(FeedId::A));
    for _ in 0..SECONDS {
        engine.step();
    }
    let mut whole = Engine::new(priority_rig(RigConfig::table2()));
    whole.schedule(200, Event::FailFeed(FeedId::A));
    let label = "table2 priority rig, feed A fails at 200 s";
    assert_eq!(
        fingerprint(label, engine.trace()),
        fingerprint(label, &whole.run(SECONDS))
    );
}
