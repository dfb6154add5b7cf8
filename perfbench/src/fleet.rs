//! `fleet_steady` and `fleet_storm`: the Table 4 data center at 7 290
//! servers stepped through `sim::engine::Engine` one simulated second per
//! call, as `capmaestrod` does.

use std::sync::Arc;
use std::time::Instant;

use capmaestro_core::obs::{names, MetricsRegistry, RoundPhase};
use capmaestro_sim::engine::{Engine, Event};
use capmaestro_sim::faults::{ChaosAction, ChaosConfig, ChaosPlan, FaultKind};
use capmaestro_sim::scenarios::{datacenter_rig, DataCenterRigConfig};
use capmaestro_topology::presets::DataCenterParams;
use capmaestro_topology::FeedId;
use capmaestro_units::Watts;

use crate::host::{Dual, HostClock};
use crate::report::{end_to_end, hist, mean_us, Outcome, SETUP_REPS};
use crate::stats::{self_time, Rng, Samples};
use crate::Opts;

/// Simulated seconds between `Engine::reset_trace` calls. The engine's
/// `Trace` grows by one sample per server and series every second; the
/// daemon resets it on a fixed period, and so does the benchmark.
pub const RESET_S: u64 = 240;

/// The simulated second at which `sim.out.*` is fingerprinted: a fixed
/// prefix, so the fingerprint depends on the seed and the program only,
/// never on how fast the host ran.
pub const CHECKPOINT_S: u64 = 2 * RESET_S;

/// The paper's §5 cost claim, printed beside the round numbers.
pub const PAPER_BUDGET: &str = "room worker < 300 ms per round at 500 racks; rack worker ~10 ms";

/// The rig both fleet workloads and `operator_api` run on: 162 racks of
/// 45 servers at 0.9 utilization, so capping binds, with Global Priority
/// and SPO on. Its layout, priorities and utilizations come from the
/// rig's own default seed, not the run's: how close a rig's steady state
/// sits to a bitwise fixed point sets its stepping cost, and across rig
/// seeds that cost varies by a quarter, more than any change under test.
/// The run's seed drives the inputs that arrive while it runs.
pub fn rig_config() -> DataCenterRigConfig {
    DataCenterRigConfig {
        params: DataCenterParams {
            racks: 162,
            transformers_per_feed: 2,
            rpps_per_transformer: 9,
            cdus_per_rpp: 9,
            servers_per_rack: 45,
            ..DataCenterParams::default()
        },
        contractual_per_phase: Watts::from_kilowatts(700.0) * 0.95,
        utilization: 0.9,
        spo: true,
        ..DataCenterRigConfig::default()
    }
}

/// Simulated outputs accumulated across trace resets. Sums run in farm
/// slot order, so two runs of one seed agree to the bit.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimOut {
    /// Simulated seconds covered.
    pub seconds: u64,
    /// Energy drawn by every server, watt-hours.
    pub energy_wh: f64,
    /// Stranded power SPO reclaimed, summed over rounds, watts.
    pub stranded_w_sum: f64,
    /// Rounds that reported a stranded-power figure.
    pub stranded_rounds: u64,
    /// Breaker trips.
    pub trips: u64,
    /// Servers that lost all input power.
    pub lost: u64,
}

impl SimOut {
    /// Folds the engine's trace (everything since the last reset) in.
    pub fn absorb(&mut self, engine: &Engine) {
        let trace = engine.trace();
        for &id in engine.farm().ids() {
            self.energy_wh += trace.server_energy_wh(id);
        }
        for &(_, w) in &trace.stranded {
            self.stranded_w_sum += w;
        }
        self.stranded_rounds += trace.stranded.len() as u64;
        self.trips += trace.trips.len() as u64;
        self.lost += trace.lost_servers.len() as u64;
        self.seconds = trace.seconds;
    }

    /// Mean stranded watts reclaimed per round.
    pub fn stranded_w(&self) -> f64 {
        self.stranded_w_sum / self.stranded_rounds.max(1) as f64
    }

    /// The exact bit patterns, for identity checks.
    pub fn bits(&self) -> (u64, u64, u64, u64, u64, u64) {
        (
            self.seconds,
            self.energy_wh.to_bits(),
            self.stranded_w_sum.to_bits(),
            self.stranded_rounds,
            self.trips,
            self.lost,
        )
    }
}

/// The `fleet_storm` input generator: seeded demand changes, a feed
/// failure cycle, and telemetry chaos, each handed to `Engine::schedule`
/// in the second it falls due.
struct Storm {
    seed: u64,
    servers: Vec<capmaestro_topology::ServerId>,
    /// Chaos inject/clear events, by time; `next` is the first not yet
    /// scheduled.
    chaos: Vec<(u64, Event)>,
    next: usize,
}

/// Seconds of the feed-failure cycle: feed A fails at `FEED_FAIL_AT` into
/// each cycle and returns at `FEED_RESTORE_AT`.
const FEED_CYCLE_S: u64 = 240;
const FEED_FAIL_AT: u64 = 60;
const FEED_RESTORE_AT: u64 = 180;

/// Offered demand range of a storm demand change, watts (the paper
/// server idles at 160 W and caps between 270 W and 490 W).
const STORM_DEMAND_W: (f64, f64) = (300.0, 490.0);

impl Storm {
    fn new(seed: u64, engine: &Engine) -> Self {
        let servers = engine.farm().ids().to_vec();
        // Per-server episodes at twenty times the chaos bench's density
        // (about seven active at once), over a horizon no run reaches.
        // Whole-feed flaps are left out: a handful of them would decide
        // a run's cost, so runs of different seeds would not compare.
        let horizon = 40_000;
        let config = ChaosConfig {
            seconds: horizon,
            episodes: 2_000,
            flap_fraction: 0.0,
            ..ChaosConfig::default()
        };
        // One sensor stays noisy for the whole run, so every second senses
        // through the fault layer whatever the episodes do; episodes
        // target the others.
        let noisy = servers[(Rng::new(seed, 0).next_u64() % servers.len() as u64) as usize];
        let targets: Vec<_> = servers.iter().copied().filter(|&id| id != noisy).collect();
        let plan = ChaosPlan::generate(&config, &targets, &[FeedId::A, FeedId::B], seed);
        let mut chaos = vec![(
            0,
            Event::InjectFault(noisy, FaultKind::NoisySensor { sigma_w: 5.0 }),
        )];
        for episode in plan.episodes() {
            match &episode.action {
                ChaosAction::Fault(server, kind) => {
                    chaos.push((episode.start_s, Event::InjectFault(*server, kind.clone())));
                    chaos.push((episode.end_s, Event::ClearFault(*server)));
                }
                ChaosAction::Flap(feed, spec) => {
                    chaos.push((episode.start_s, Event::FlapTelemetry(*feed, *spec)));
                    chaos.push((episode.end_s, Event::StopFlap(*feed)));
                }
            }
        }
        chaos.sort_by_key(|(t, _)| *t);
        Storm {
            seed,
            servers,
            chaos,
            next: 0,
        }
    }

    /// Everything due at simulated second `now`, in schedule order.
    fn due(&mut self, now: u64, period: u64) -> Vec<Event> {
        let mut due = Vec::new();
        if now.is_multiple_of(period) {
            // A seeded quarter of the servers, drawn without replacement.
            let mut rng = Rng::new(self.seed, 1 + now / period);
            let n = self.servers.len();
            for i in 0..n / 4 {
                let j = i + (rng.next_u64() % (n - i) as u64) as usize;
                self.servers.swap(i, j);
                let demand = rng.range(STORM_DEMAND_W.0, STORM_DEMAND_W.1);
                due.push(Event::SetDemand(self.servers[i], Watts::new(demand)));
            }
        }
        match now % FEED_CYCLE_S {
            FEED_FAIL_AT => due.push(Event::FailFeed(FeedId::A)),
            FEED_RESTORE_AT => due.push(Event::RestoreFeed(FeedId::A)),
            _ => {}
        }
        while let Some((t, event)) = self.chaos.get(self.next) {
            if *t > now {
                break;
            }
            due.push(event.clone());
            self.next += 1;
        }
        due
    }
}

/// One built fleet: the engine plus, for the storm, its input generator.
struct Fleet {
    engine: Engine,
    storm: Option<Storm>,
}

fn build(seed: u64, storm: bool) -> Fleet {
    let engine = Engine::new(datacenter_rig(&rig_config()));
    let storm = storm.then(|| Storm::new(seed, &engine));
    Fleet { engine, storm }
}

/// What a fleet's measured steps saw.
#[derive(Default)]
struct Segment {
    /// Wall time of every `Engine::step`, seconds.
    steps: Samples,
    /// Time of the steps that fired a control round.
    rounds: Dual,
    /// Time of the program's calls each second: `Engine::schedule` of the
    /// due inputs, `Engine::step`, and the periodic `reset_trace`.
    busy: Dual,
    /// Rounds the engine itself recorded (one `Trace::stranded` entry
    /// stamped with the second that fired it).
    engine_rounds: u64,
    /// Seconds where the engine's record disagreed with the control
    /// period (a round missing, doubled or misdated), and the first one.
    round_mismatches: u64,
    first_mismatch: Option<u64>,
    /// Simulated seconds stepped.
    simulated: u64,
    /// `sim.out` so far, and its value at [`CHECKPOINT_S`].
    out: SimOut,
    checkpoint: Option<SimOut>,
    /// Rounds after which a breaker tripped or a server went dark.
    failed_rounds: u64,
    /// Trips plus dark servers seen so far, and that count when the
    /// latest round fired.
    harm: u64,
    harm_at_round: Option<u64>,
}

impl Segment {
    /// One simulated second: schedule the inputs due, step, and fold the
    /// trace into `sim.out` on reset boundaries. Only the program's calls
    /// are timed; the benchmark's own bookkeeping is not. Times are also
    /// kept in reference-host seconds when `host` is given.
    fn advance(&mut self, fleet: &mut Fleet, host: Option<&HostClock>) {
        let engine = &mut fleet.engine;
        let now = engine.now_s();
        let period = engine.control_period_s();
        let due = match &mut fleet.storm {
            Some(storm) => storm.due(now, period),
            None => Vec::new(),
        };
        let fires = now.is_multiple_of(period);
        if fires {
            self.close_round();
            self.harm_at_round = Some(self.harm);
        }
        let recorded = engine.trace().stranded.len();
        let t0 = Instant::now();
        for event in due {
            engine.schedule(now, event);
        }
        let t1 = Instant::now();
        engine.step();
        let dt = t1.elapsed().as_secs_f64();
        let mut busy = t0.elapsed().as_secs_f64();
        self.steps.push(dt);
        if fires {
            self.rounds.push(dt, host);
        }
        let trace = engine.trace();
        let added = trace.stranded.len() - recorded;
        let ran = added == 1 && trace.stranded.last().is_some_and(|&(t, _)| t == now);
        self.engine_rounds += added as u64;
        if ran != fires || added > usize::from(fires) {
            self.round_mismatches += 1;
            self.first_mismatch.get_or_insert(now);
        }
        self.harm =
            self.out.trips + self.out.lost + (trace.trips.len() + trace.lost_servers.len()) as u64;
        if engine.now_s().is_multiple_of(RESET_S) {
            self.out.absorb(engine);
            let t2 = Instant::now();
            engine.reset_trace();
            busy += t2.elapsed().as_secs_f64();
            if engine.now_s() == CHECKPOINT_S {
                self.checkpoint = Some(self.out);
            }
        }
        self.simulated += 1;
        self.busy.push(busy, host);
    }

    /// Counts the latest round as failed if harm appeared after it.
    fn close_round(&mut self) {
        if self.harm_at_round.take().is_some_and(|h| self.harm > h) {
            self.failed_rounds += 1;
        }
    }
}

/// Runs `fleet_steady` (`storm == false`) or `fleet_storm`.
pub fn run(opts: &Opts, storm: bool) -> Outcome {
    let mut o = Outcome {
        fail_base: "control rounds (failed: a breaker tripped or a server went dark after it)",
        ..Outcome::default()
    };
    if opts.trace {
        return run_traced(opts, storm, o);
    }
    let mut host = HostClock::new();
    let mut setups = Dual::default();
    let mut fleet = None;
    for _ in 0..SETUP_REPS {
        drop(fleet.take());
        let t0 = Instant::now();
        fleet = Some(build(opts.seed, storm));
        let wall = t0.elapsed().as_secs_f64();
        host.sample();
        setups.push(wall, Some(&host));
    }
    let mut fleet = fleet.expect("built at least once");
    let mut seg = Segment::default();
    let period = fleet.engine.control_period_s();
    let start = Instant::now();
    while start.elapsed() < opts.seconds {
        seg.advance(&mut fleet, Some(&host));
        // Mid-period, so the reference never runs just before a round.
        if seg.simulated % period == period / 2 {
            host.sample();
        }
    }
    seg.close_round();

    end_to_end(
        &mut o,
        &setups,
        &seg.rounds,
        &seg.busy,
        seg.simulated,
        &host,
    );
    o.note("step_n", seg.steps.len());
    o.note("paper_s5_budget", PAPER_BUDGET);
    o.attempted = seg.rounds.raw.len() as u64;
    o.failed = seg.failed_rounds;
    check_common(&mut o, &fleet.engine, &seg);
    if let Some(cp) = seg.checkpoint {
        o.note("sim_out_checkpoint", format!("{:?}", cp.bits()));
    }
    o
}

/// Correctness checks shared by timed and traced runs.
fn check_common(o: &mut Outcome, engine: &Engine, seg: &Segment) {
    let report = engine.last_round_report();
    let timed = seg.rounds.raw.len() as u64;
    o.check(
        "the engine recorded a round on every control period and no other second",
        report.is_some()
            && seg.round_mismatches == 0
            && seg.engine_rounds == timed
            && timed == engine.now_s().div_ceil(engine.control_period_s()),
        format!(
            "{} rounds recorded by the engine, {timed} periods over {} s, first mismatch at {:?}",
            seg.engine_rounds,
            engine.now_s(),
            seg.first_mismatch
        ),
    );
    let throttled = engine
        .farm()
        .iter()
        .filter(|(_, srv)| srv.throttle().as_f64() > 0.0)
        .count();
    o.note("throttled_servers_at_end", throttled);
    if let Some(report) = report {
        let caps_ok = report
            .dc_caps
            .iter()
            .all(|(_, w)| w.as_f64().is_finite() && w.as_f64() >= 0.0);
        o.check(
            "last round commanded finite non-negative caps",
            caps_ok && !report.dc_caps.is_empty(),
            format!("{} caps", report.dc_caps.len()),
        );
    }
}

/// The traced run: two fleets of the same seed, one untraced and one
/// with the registry attached, stepped one control period each in turn
/// (so drift in host speed hits both alike) until the time is up and
/// both passed [`CHECKPOINT_S`], where `sim.out` is compared.
fn run_traced(opts: &Opts, storm: bool, mut o: Outcome) -> Outcome {
    let mut plain = build(opts.seed, storm);
    let mut fleet = build(opts.seed, storm);
    let registry = Arc::new(MetricsRegistry::new());
    fleet.engine.plane_mut().set_recorder(registry.clone());
    let (mut untraced, mut traced) = (Segment::default(), Segment::default());
    let period = fleet.engine.control_period_s();
    let start = Instant::now();
    while start.elapsed() < opts.seconds || traced.checkpoint.is_none() {
        for _ in 0..period {
            untraced.advance(&mut plain, None);
        }
        for _ in 0..period {
            traced.advance(&mut fleet, None);
        }
    }
    untraced.close_round();
    traced.close_round();
    check_common(&mut o, &plain.engine, &untraced);
    check_common(&mut o, &fleet.engine, &traced);
    drop(plain);
    let snap = registry.snapshot();
    let gathered = hist(&snap, RoundPhase::Gather.metric_name()).0;
    o.check(
        "the registry counted one gather phase per traced round",
        gathered == traced.rounds.raw.len() as u64,
        format!(
            "{gathered} gather phases, {} rounds",
            traced.rounds.raw.len()
        ),
    );

    let (a, b) = (untraced.checkpoint, traced.checkpoint);
    o.check(
        "sim.out bit-identical between the untraced and traced fleets",
        a.is_some() && a.map(|s| s.bits()) == b.map(|s| s.bits()),
        format!(
            "untraced {:?} traced {:?}",
            a.map(|s| s.bits()),
            b.map(|s| s.bits())
        ),
    );
    let out = b.unwrap_or_default();
    o.check(
        "sim.out finite and positive",
        out.energy_wh.is_finite() && out.energy_wh > 0.0 && out.stranded_w_sum.is_finite(),
        format!("{out:?}"),
    );
    o.set("sim.out.seconds", out.seconds as f64);
    o.set("sim.out.energy_kwh", out.energy_wh / 1e3);
    o.set("sim.out.stranded_w", out.stranded_w());
    o.set("sim.out.trips", out.trips as f64);

    o.set("trace.untraced_iter_us", untraced.steps.mean() * 1e6);
    o.set("trace.traced_iter_us", traced.steps.mean() * 1e6);
    o.set(
        "trace.overhead_pct",
        (traced.steps.mean() / untraced.steps.mean() - 1.0) * 100.0,
    );
    o.set("round_n", traced.rounds.raw.len() as f64);
    o.set("sim.engine.step_us", traced.steps.mean() * 1e6);
    o.set("sim.engine.step_n", traced.steps.len() as f64);
    engine_layers(&mut o, &snap, traced.steps.mean() * 1e6);
    o.attempted = traced.rounds.raw.len() as u64;
    o.failed = traced.failed_rounds;
    o
}

/// Per-layer metrics of `sim::engine` and `core::plane` read from the
/// program's own registry. `step_us` is the benchmark's span around
/// `Engine::step` (0 when the caller has no such span).
pub fn engine_layers(o: &mut Outcome, snap: &capmaestro_core::MetricsSnapshot, step_us: f64) {
    let phase = |p: RoundPhase| hist(snap, p.metric_name());
    let (steps, inner_sum) = hist(snap, names::SIM_STEP_SECONDS);
    let inner_us = mean_us(snap, names::SIM_STEP_SECONDS);
    o.set("sim.engine.inner_us", inner_us);
    if step_us > 0.0 {
        o.set_derived("sim.engine.flush_us", self_time(step_us, &[inner_us]));
    }
    let (sense_n, sense_sum) = phase(RoundPhase::Sense);
    let round_phases_sum: f64 = RoundPhase::ALL
        .iter()
        .filter(|&&p| p != RoundPhase::Sense)
        .map(|&p| phase(p).1)
        .sum();
    if steps > 0 {
        let per_step = |sum: f64| sum / steps as f64 * 1e6;
        o.set_derived(
            "sim.engine.physics_us",
            self_time(
                per_step(inner_sum),
                &[per_step(sense_sum), per_step(round_phases_sum)],
            ),
        );
    }
    o.set(
        "core.plane.sense_us",
        mean_us(snap, RoundPhase::Sense.metric_name()),
    );
    o.set("core.plane.sense_n", sense_n as f64);
    o.set(
        "core.plane.estimate_us",
        mean_us(snap, RoundPhase::Estimate.metric_name()),
    );
    o.set(
        "core.plane.enforce_us",
        mean_us(snap, RoundPhase::Enforce.metric_name()),
    );
    o.set(
        "core.tree.gather_us",
        mean_us(snap, RoundPhase::Gather.metric_name()),
    );
    o.set(
        "core.alloc.allocate_us",
        mean_us(snap, RoundPhase::Allocate.metric_name()),
    );
    o.set(
        "core.spo.spo_us",
        mean_us(snap, RoundPhase::Spo.metric_name()),
    );
    let rounds = phase(RoundPhase::Gather).0;
    o.set("core.plane.rounds", rounds as f64);
    let summarized = crate::report::counter(snap, names::TREE_NODES_SUMMARIZED_TOTAL) as f64;
    let skipped = crate::report::counter(snap, names::TREE_NODES_DIRTY_SKIPPED_TOTAL) as f64;
    let per_round = rounds.max(1) as f64;
    o.set("core.tree.nodes_summarized", summarized / per_round);
    o.set("core.tree.nodes_skipped", skipped / per_round);
    if summarized + skipped > 0.0 {
        o.set(
            "core.tree.gather_work_ratio",
            summarized / (summarized + skipped),
        );
    }
    o.set(
        "core.plane.stale_servers",
        crate::report::gauge(snap, names::STALE_SERVERS),
    );
    o.set(
        "core.plane.failsafe_caps",
        crate::report::counter(snap, names::FAILSAFE_CAPS_TOTAL) as f64,
    );
}
