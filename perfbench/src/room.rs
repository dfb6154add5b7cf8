//! `room_agents`: the §5 room — 500 racks of 10 servers — budgeted by a
//! `core::workers::WorkerDeployment` over `serve::socket::SocketTransport`
//! on loopback, with two in-process `serve::agent::run_agent` rack agents
//! applying a seeded demand schedule. One iteration is one `run_round`
//! plus `advance(1)`, as `capmaestrod --agents` does.

use std::collections::HashMap;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use capmaestro_core::obs::{names, null_recorder, MetricsRegistry, Recorder};
use capmaestro_core::wire::{decode_down, decode_up, encode_down, encode_up, frame};
use capmaestro_core::workers::leaf_statics;
use capmaestro_core::{DeploymentConfig, DownMsg, PolicyKind, RackWorker, UpMsg, WorkerDeployment};
use capmaestro_serve::agent::{run_agent, AgentConfig, AgentReport};
use capmaestro_serve::rig::{build_farm, build_owned_farm, build_rig, rig_assignments, RigSpec};
use capmaestro_serve::socket::{SocketTransport, SocketTransportConfig};
use capmaestro_units::Watts;

use crate::host::{Dual, HostClock};
use crate::report::{counter, end_to_end, hist, mean_us, Outcome, SETUP_REPS};
use crate::stats::Samples;
use crate::Opts;

/// The room of the paper's §5 cost claim.
pub const SPEC: RigSpec = RigSpec::Racks {
    racks: 500,
    servers_per_rack: 10,
};

/// Rack agents (one per CPU of the 2-CPU reference host).
pub const AGENTS: usize = 2;

/// Encode/decode repetitions of the wire probe, per worker.
const WIRE_REPS: usize = 200;

/// A connected deployment and its agent threads.
struct Room {
    deployment: WorkerDeployment,
    agents: Vec<JoinHandle<Result<AgentReport, String>>>,
    /// Root budget per tree, for the conservation check.
    root_budgets: Vec<Watts>,
}

fn connect(seed: u64, recorder: Arc<dyn Recorder>) -> Result<Room, String> {
    let rig = build_rig(SPEC);
    let assignments = rig_assignments(&rig, AGENTS);
    let statics = leaf_statics(&rig.trees, &assignments, &build_farm(&rig.topo));
    let transport = SocketTransport::bind(SocketTransportConfig::new(AGENTS))
        .map_err(|e| format!("bind agent listener: {e}"))?;
    let addr = transport.local_addr().to_string();
    let root_budgets = rig.root_budgets.clone();
    let deployment = WorkerDeployment::with_transport(
        rig.trees,
        rig.root_budgets,
        PolicyKind::GlobalPriority,
        assignments,
        &statics,
        Box::new(transport),
        DeploymentConfig::default().with_recorder(recorder.clone()),
    );
    let agents = (0..AGENTS)
        .map(|w| {
            let mut config = AgentConfig::new(addr.clone(), w, AGENTS, SPEC);
            config.demand_seed = Some(seed);
            config.recorder = recorder.clone();
            std::thread::Builder::new()
                .name(format!("bench-agent-{w}"))
                .spawn(move || run_agent(&config))
                .expect("spawn agent thread")
        })
        .collect();
    let room = Room {
        deployment,
        agents,
        root_budgets,
    };
    let deadline = Instant::now() + Duration::from_secs(30);
    while !(0..AGENTS).all(|w| room.deployment.is_worker_alive(w)) {
        if Instant::now() >= deadline {
            let (ok, err) = shutdown(room);
            return Err(format!(
                "agents never connected ({ok} exited cleanly; {err})"
            ));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Ok(room)
}

/// Shuts the room down and joins every agent. Returns how many agents
/// exited cleanly and the first error seen.
fn shutdown(room: Room) -> (usize, String) {
    room.deployment.shutdown();
    let mut ok = 0;
    let mut first_err = String::new();
    for agent in room.agents {
        match agent.join() {
            Ok(Ok(_)) => ok += 1,
            Ok(Err(e)) if first_err.is_empty() => first_err = e,
            Err(_) if first_err.is_empty() => first_err = "agent thread panicked".into(),
            _ => {}
        }
    }
    (ok, first_err)
}

/// What a room's measured rounds saw.
#[derive(Default)]
struct Segment {
    /// Iterations run, timed or not; numbers the rounds.
    iterations: u64,
    /// Time of each `run_round`.
    rounds: Dual,
    /// Wall time of each `advance(1)`.
    advances: Samples,
    /// Time of each iteration: the round plus the advance.
    busy: Dual,
    cut_budgets: u64,
    failsafe_cuts: u64,
    failed_advances: u64,
    violations: u64,
    /// Rounds whose budgets broke conservation or were not finite.
    bad_rounds: u64,
    first_bad: String,
    last_budgets: Vec<((usize, usize), Watts)>,
}

impl Segment {
    /// One iteration: a control round, then one simulated second. An
    /// untimed iteration is run and checked but not timed. Times are also
    /// kept in reference-host seconds when `host` is given.
    fn advance(&mut self, room: &mut Room, host: Option<&HostClock>, timed: bool) {
        let seg = self;
        let round = seg.iterations;
        seg.iterations += 1;
        let t0 = Instant::now();
        let outcome = room.deployment.run_round(round);
        let t1 = Instant::now();
        let advanced = room.deployment.advance(1);
        if timed {
            seg.rounds.push((t1 - t0).as_secs_f64(), host);
            seg.advances.push(t1.elapsed().as_secs_f64());
            seg.busy.push(t0.elapsed().as_secs_f64(), host);
        }
        seg.cut_budgets += outcome.cut_budgets.len() as u64;
        seg.failsafe_cuts += outcome.failsafe_cuts.len() as u64;
        seg.failed_advances += u64::from(!advanced);
        // Conservation: the cut budgets under a tree never exceed its
        // root budget, and every budget is a finite non-negative power.
        let mut per_tree = vec![0.0; room.root_budgets.len()];
        let mut finite = true;
        for &((t, _), w) in &outcome.cut_budgets {
            finite &= w.as_f64().is_finite() && w.as_f64() >= 0.0;
            if let Some(sum) = per_tree.get_mut(t) {
                *sum += w.as_f64();
            }
        }
        let over = per_tree
            .iter()
            .zip(&room.root_budgets)
            .find(|(sum, root)| **sum > root.as_f64() * (1.0 + 1e-9) + 1e-6);
        if !finite || over.is_some() || outcome.cut_budgets.is_empty() {
            seg.bad_rounds += 1;
            if seg.first_bad.is_empty() {
                seg.first_bad = format!("round {round}: finite={finite} over={over:?}");
            }
        }
        seg.last_budgets = outcome.cut_budgets;
        seg.violations = room.deployment.transport_violations();
    }
}

fn check_segment(o: &mut Outcome, seg: &Segment, cuts_total: usize) {
    o.check(
        "every round budgeted every cut within its tree's root budget",
        seg.bad_rounds == 0 && seg.last_budgets.len() == cuts_total,
        if seg.bad_rounds == 0 {
            format!("{} rounds, {} cuts each", seg.iterations, cuts_total)
        } else {
            seg.first_bad.clone()
        },
    );
}

fn fail_counts(o: &mut Outcome, seg: &Segment) {
    o.attempted = seg.cut_budgets;
    o.failed = seg.failsafe_cuts + seg.violations + seg.failed_advances;
}

fn cuts_total() -> usize {
    let rig = build_rig(SPEC);
    rig_assignments(&rig, AGENTS)
        .iter()
        .map(|a| a.cuts.len())
        .sum()
}

/// Runs `room_agents`.
pub fn run(opts: &Opts) -> Outcome {
    let mut o = Outcome {
        fail_base: "cut budgets (failed: fail-safe cut budgets, transport violations, unacknowledged advances)",
        ..Outcome::default()
    };
    let cuts = cuts_total();
    if opts.trace {
        return run_traced(opts, o, cuts);
    }
    let mut host = HostClock::new();
    let mut setups = Dual::default();
    let mut room = None;
    for _ in 0..SETUP_REPS {
        if let Some(previous) = room.take() {
            let (ok, err) = shutdown(previous);
            o.check("set-up rehearsal agents exit cleanly", ok == AGENTS, err);
        }
        let t0 = Instant::now();
        match connect(opts.seed, null_recorder()) {
            Ok(r) => room = Some(r),
            Err(e) => {
                o.check("agents connect", false, e);
                return o;
            }
        }
        let wall = t0.elapsed().as_secs_f64();
        host.sample();
        setups.push(wall, Some(&host));
    }
    let mut room = room.expect("connected at least once");
    let mut seg = Segment::default();
    let start = Instant::now();
    // The last set-up ended with a sample.
    let mut sampled = true;
    while start.elapsed() < opts.seconds {
        // The round right after a reference sample would start on caches
        // the reference disturbed, so it runs untimed.
        seg.advance(&mut room, Some(&host), !sampled);
        sampled = seg.iterations.is_multiple_of(ROUNDS_PER_TURN as u64);
        if sampled {
            host.sample();
        }
    }
    let (ok, err) = shutdown(room);
    o.check("agents exit cleanly on shutdown", ok == AGENTS, err);
    check_segment(&mut o, &seg, cuts);
    fail_counts(&mut o, &seg);

    let simulated = seg.busy.raw.len() as u64;
    o.note("untimed_rounds", seg.iterations - simulated);
    end_to_end(&mut o, &setups, &seg.rounds, &seg.busy, simulated, &host);
    o.note("paper_s5_budget", crate::fleet::PAPER_BUDGET);
    o
}

/// Rounds a room runs between host-clock samples, and before the traced
/// run hands over to the other room.
const ROUNDS_PER_TURN: usize = 25;

/// The traced run: an untraced and a traced room side by side, taking
/// turns of [`ROUNDS_PER_TURN`] rounds so drift in host speed hits both
/// alike. The idle room's agents keep heartbeating.
fn run_traced(opts: &Opts, mut o: Outcome, cuts: usize) -> Outcome {
    let registry = Arc::new(MetricsRegistry::new());
    let rooms = connect(opts.seed, null_recorder()).and_then(|plain| {
        match connect(opts.seed, registry.clone()) {
            Ok(traced) => Ok((plain, traced)),
            Err(e) => {
                shutdown(plain);
                Err(e)
            }
        }
    });
    let (mut plain, mut room) = match rooms {
        Ok(rooms) => rooms,
        Err(e) => {
            o.check("agents connect", false, e);
            return o;
        }
    };
    let (mut untraced, mut seg) = (Segment::default(), Segment::default());
    let start = Instant::now();
    while start.elapsed() < opts.seconds {
        for _ in 0..ROUNDS_PER_TURN {
            untraced.advance(&mut plain, None, true);
        }
        for _ in 0..ROUNDS_PER_TURN {
            seg.advance(&mut room, None, true);
        }
    }
    for (name, r) in [("untraced", plain), ("traced", room)] {
        let (ok, err) = shutdown(r);
        o.check(format!("{name} agents exit cleanly"), ok == AGENTS, err);
    }
    check_segment(&mut o, &untraced, cuts);
    check_segment(&mut o, &seg, cuts);
    fail_counts(&mut o, &seg);
    let snap = registry.snapshot();

    let iter = |s: &Segment| s.busy.raw.mean();
    o.set("trace.untraced_iter_us", iter(&untraced) * 1e6);
    o.set("trace.traced_iter_us", iter(&seg) * 1e6);
    o.set(
        "trace.overhead_pct",
        (iter(&seg) / iter(&untraced) - 1.0) * 100.0,
    );
    o.set("round_n", seg.advances.len() as f64);
    o.set("core.workers.round_us", seg.rounds.raw.mean() * 1e6);
    o.set("core.workers.advance_us", seg.advances.mean() * 1e6);
    o.set("core.workers.advance_n", seg.advances.len() as f64);
    o.set(
        "serve.agent.heartbeat_rtt_us",
        mean_us(&snap, names::AGENT_HEARTBEAT_RTT_SECONDS),
    );
    o.set(
        "serve.agent.heartbeat_n",
        hist(&snap, names::AGENT_HEARTBEAT_RTT_SECONDS).0 as f64,
    );
    o.set(
        "core.workers.gather_timeouts",
        counter(&snap, names::WORKER_GATHER_TIMEOUTS_TOTAL) as f64,
    );
    o.set("core.workers.failsafe_cuts", seg.failsafe_cuts as f64);
    o.set("core.workers.transport_violations", seg.violations as f64);
    o.set(
        "serve.agent.reconnects",
        counter(&snap, names::AGENT_RECONNECTS_TOTAL) as f64,
    );
    wire_probe(&mut o, &seg.last_budgets);
    o
}

/// Times `core::wire` on the messages one round of this room sends:
/// each worker's `Metrics` up and `Budgets` down, shaped by its real
/// cuts and the last round's budgets. Every decode must return the
/// message that was encoded.
fn wire_probe(o: &mut Outcome, budgets: &[((usize, usize), Watts)]) {
    let rig = build_rig(SPEC);
    let assignments = rig_assignments(&rig, AGENTS);
    let budget_of: HashMap<_, _> = budgets.iter().copied().collect();
    let mut msgs: Vec<(UpMsg, DownMsg)> = Vec::new();
    for (w, assignment) in assignments.into_iter().enumerate() {
        let farm = build_owned_farm(&assignment.owned);
        let cuts: Vec<_> = assignment
            .cuts
            .iter()
            .map(|(cut, _)| (*cut, budget_of.get(cut).copied().unwrap_or(Watts::ZERO)))
            .collect();
        let mut worker = RackWorker::new(assignment, rig.trees.clone(), PolicyKind::GlobalPriority);
        let metrics = worker.gather(&farm);
        msgs.push((
            UpMsg::Metrics {
                worker: w,
                round: 1,
                metrics,
            },
            DownMsg::Budgets {
                round: 1,
                budgets: cuts,
            },
        ));
    }
    let bytes: usize = msgs
        .iter()
        .map(|(up, down)| frame(&encode_up(up)).len() + frame(&encode_down(down)).len())
        .sum();
    let (mut encode_s, mut decode_s, mut n, mut mismatches) = (0.0, 0.0, 0u64, 0u64);
    for _ in 0..WIRE_REPS {
        for (up, down) in &msgs {
            let t0 = Instant::now();
            let up_bytes = std::hint::black_box(encode_up(up));
            let down_bytes = std::hint::black_box(encode_down(down));
            let t1 = Instant::now();
            let up_back = decode_up(std::hint::black_box(&up_bytes));
            let down_back = decode_down(std::hint::black_box(&down_bytes));
            decode_s += t1.elapsed().as_secs_f64();
            encode_s += (t1 - t0).as_secs_f64();
            n += 2;
            mismatches += u64::from(up_back.as_ref() != Ok(up));
            mismatches += u64::from(down_back.as_ref() != Ok(down));
        }
    }
    o.check(
        "wire round trip returns every message unchanged",
        mismatches == 0,
        format!("{mismatches} mismatches in {n} messages"),
    );
    o.set("core.wire.encode_us", encode_s / n as f64 * 1e6);
    o.set("core.wire.decode_us", decode_s / n as f64 * 1e6);
    o.set("core.wire.msgs_n", n as f64);
    o.set("core.wire.bytes_per_round", bytes as f64);
}
