//! `operator_api`: `capmaestrod`'s engine-mode stack assembled from its
//! public seams — `drive_second`, `Router::with_trace` over a forwarding
//! `TraceRecorder`, a file-backed `OpLog`, and `HttpServer` with its
//! default two workers — over the fleet rig, with the engine paced at a
//! fixed accelerated rate and an open-loop client at a fixed request
//! rate.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use capmaestro_core::obs::trace::{self, TraceRecorder};
use capmaestro_core::obs::{json, names, prometheus, MetricsRegistry, Recorder};
use capmaestro_core::{Op, OpLog};
use capmaestro_serve::client;
use capmaestro_serve::daemon::drive_second;
use capmaestro_serve::router::Router;
use capmaestro_serve::server::{HttpConfig, HttpServer};
use capmaestro_serve::state::ServeState;
use capmaestro_sim::engine::Engine;
use capmaestro_sim::scenarios::datacenter_rig;
use capmaestro_units::Watts;

use crate::fleet::{engine_layers, rig_config, RESET_S};
use crate::host::{Dual, HostClock, NOMINAL_S};
use crate::report::{counter, end_to_end, Outcome, SETUP_REPS};
use crate::stats::{self_time, OpenLoop, Rng, Samples, Timed};
use crate::Opts;

/// Simulated seconds per wall second the engine is paced at. A run
/// steps exactly `PACE × seconds` simulated seconds, so at 25 s it holds
/// 200 control rounds: enough for a valid p95.
pub const PACE: f64 = 64.0;

/// Requests per second the open-loop client sends, across its senders.
/// At [`PACE`] this is about five observer sets of [`MIX`] per daemon.
pub const RATE: f64 = 100.0;

/// Client sender threads; each has at most one request in flight. One
/// keeps up (a request is ~1.4 ms, mostly the server's accept poll) and
/// keeps the engine, one HTTP worker and the client within two CPUs.
pub const SENDERS: u64 = 1;

/// Calls per handler probe in the traced run.
const PROBE_REPS: usize = 50;

/// The routes of the request mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Route {
    Metrics,
    Report,
    Healthz,
    Trace,
    PutBudget,
}

impl Route {
    const ALL: [Route; 5] = [
        Route::Metrics,
        Route::Report,
        Route::Healthz,
        Route::Trace,
        Route::PutBudget,
    ];

    fn metric(self) -> &'static str {
        match self {
            Route::Metrics => "serve.route.metrics_ms",
            Route::Report => "serve.route.report_ms",
            Route::Healthz => "serve.route.healthz_ms",
            Route::Trace => "serve.route.trace_ms",
            Route::PutBudget => "serve.route.put_budget_ms",
        }
    }

    fn count_metric(self) -> &'static str {
        match self {
            Route::Metrics => "serve.route.metrics_n",
            Route::Report => "serve.route.report_n",
            Route::Healthz => "serve.route.healthz_n",
            Route::Trace => "serve.route.trace_n",
            Route::PutBudget => "serve.route.put_budget_n",
        }
    }
}

/// Requests per route in one [`MIX_WINDOW_S`] window of one observer
/// set — the consumers one daemon has — in simulated time:
///
/// - one Prometheus server scraping `/v1/metrics` every 15 s, the
///   interval of the example `prometheus.yml` that ships with Prometheus
///   (its built-in default is 60 s);
/// - one kubelet running a liveness and a readiness probe against
///   `/v1/healthz`, each at the Kubernetes default `periodSeconds` of 10 s;
/// - assumed, no public basis: one dashboard fetching `/v1/report` every
///   30 s, one operator downloading `/v1/trace?last_s=60` and one
///   declaring a tree budget (`PUT`) once per window each.
///
/// The engine runs [`PACE`] times faster than real time, so an observer
/// set sends `92 / 300 × 64` ≈ 19.6 requests per wall second.
const MIX: [(Route, usize); 5] = [
    (Route::Metrics, 20),
    (Route::Healthz, 60),
    (Route::Report, 10),
    (Route::Trace, 1),
    (Route::PutBudget, 1),
];

/// Simulated seconds one [`MIX`] cycle stands for.
pub const MIX_WINDOW_S: f64 = 300.0;

/// The route of request `i`: the mix repeats in cycles, each shuffled by
/// the seed.
fn route_of(seed: u64, i: u64) -> Route {
    let mut order: Vec<Route> = MIX
        .iter()
        .flat_map(|&(route, n)| std::iter::repeat_n(route, n))
        .collect();
    let len = order.len() as u64;
    let mut rng = Rng::new(seed, 0x0A91_0000 + i / len);
    for k in (1..order.len()).rev() {
        order.swap(k, (rng.next_u64() % (k as u64 + 1)) as usize);
    }
    order[(i % len) as usize]
}

/// Wall requests per second one observer set sends at [`PACE`].
fn observer_set_rate() -> f64 {
    let per_window: usize = MIX.iter().map(|&(_, n)| n).sum();
    per_window as f64 / MIX_WINDOW_S * PACE
}

/// The assembled daemon stack.
struct Stack {
    engine: Engine,
    state: Arc<ServeState>,
    trace: Arc<TraceRecorder>,
    server: HttpServer,
    /// Root budget per tree at set-up; declared budgets stay just below.
    base_budgets: Vec<Watts>,
}

/// A directory inside the build tree for the oplog files.
fn scratch_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("current exe path");
    let dir = exe
        .parent()
        .unwrap_or(Path::new("."))
        .join(format!("perfbench-scratch-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn build(dir: &Path, k: usize) -> Result<Stack, String> {
    let registry = Arc::new(MetricsRegistry::new());
    let trace = Arc::new(TraceRecorder::new().with_forward(registry.clone() as Arc<dyn Recorder>));
    let mut engine = Engine::new(datacenter_rig(&rig_config()));
    engine.plane_mut().set_recorder(trace.clone());
    let oplog_path = dir.join(format!("oplog-{k}.log"));
    let _ = std::fs::remove_file(&oplog_path);
    let (log, _) = OpLog::open(&oplog_path).map_err(|e| format!("open oplog: {e}"))?;
    let state = Arc::new(
        ServeState::new(registry.clone(), engine.control_period_s())
            .with_policy_label("waterfall")
            .with_oplog(log),
    );
    let router = Router::new(state.clone(), registry.clone()).with_trace(trace.clone());
    let server = HttpServer::bind(
        HttpConfig::default().with_recorder(registry.clone()),
        Arc::new(router),
    )
    .map_err(|e| format!("bind http: {e}"))?;
    let base_budgets = engine.plane().root_budgets_now();
    // The first second fires a round, so /v1/report has a payload before
    // the first request.
    drive_second(&mut engine, &state);
    Ok(Stack {
        engine,
        state,
        trace,
        server,
        base_budgets,
    })
}

/// One client request's record.
struct Done {
    route: Route,
    timed: Timed,
    /// A 2xx response arrived.
    ok: bool,
}

/// Sends request `i`.
fn send(
    addr: &str,
    seed: u64,
    i: u64,
    route: Route,
    budgets: &[Watts],
) -> Result<client::HttpResponse, String> {
    match route {
        Route::Metrics => client::get(addr, "/v1/metrics"),
        Route::Report => client::get(addr, "/v1/report"),
        Route::Healthz => client::get(addr, "/v1/healthz"),
        Route::Trace => client::get(addr, "/v1/trace?last_s=60"),
        Route::PutBudget => {
            let mut rng = Rng::new(seed, 0xB0D6_0000 + i);
            let tree = (rng.next_u64() % budgets.len() as u64) as usize;
            let watts = budgets[tree].as_f64() * rng.range(0.97, 1.0);
            let key = format!("perfbench-{seed}-{i}");
            client::put(
                addr,
                &format!("/v1/trees/{tree}/budget"),
                &[("Idempotency-Key", key.as_str())],
                format!("{watts}").as_bytes(),
            )
        }
    }
}

/// Checks a payload with the program's own validator for its route.
/// Runs after the measured phase: `json::parse` of a 7 290-server
/// report takes seconds, far longer than the request itself.
fn validate(route: Route, body: &[u8]) -> Result<(), String> {
    let body = std::str::from_utf8(body).map_err(|e| format!("{route:?}: not utf-8: {e}"))?;
    match route {
        Route::Metrics => prometheus::validate(body).map(drop),
        Route::Report => json::parse(body).map(drop),
        Route::Trace => trace::parse(body).map(drop),
        Route::Healthz | Route::PutBudget => Ok(()),
    }
    .map_err(|e| format!("{route:?}: {e}"))
}

/// The newest 2xx body of each route (indexed like [`Route::ALL`]),
/// with the time its response completed.
type NewestBodies = [Option<(f64, Vec<u8>)>; 5];

/// What one measured segment saw.
struct Segment {
    requests: Vec<Done>,
    /// The newest 2xx body of each route, for validation.
    bodies: Vec<(Route, Vec<u8>)>,
    /// The first transport error or non-2xx status, for the log.
    first_error: Option<String>,
    puts_sent: u64,
    /// Time of the `drive_second` calls that fired a round.
    rounds: Dual,
    /// Time of every `drive_second` call plus the periodic `reset_trace`:
    /// the engine thread's busy time.
    seconds_driven: Dual,
    /// Simulated seconds per wall second actually achieved (the pace).
    achieved_pace: f64,
    /// Host-clock samples dropped because a request overlapped them.
    host_discarded: u64,
}

/// Runs the engine at [`PACE`] on this thread while [`SENDERS`] client
/// threads send the open-loop mix, for `wall`. With a `host` clock, the
/// engine thread samples it in its idle time, keeping only samples no
/// request overlapped, so the reference sees the host and not the scrape
/// load whose effect on the engine this workload measures. Times are kept
/// in wall seconds; the caller scales them by the run's reference median.
fn measure(
    stack: &mut Stack,
    seed: u64,
    wall: Duration,
    mut host: Option<&mut HostClock>,
) -> Segment {
    let addr = stack.server.local_addr().to_string();
    let schedule = OpenLoop { rate: RATE };
    let done: Mutex<Vec<Done>> = Mutex::new(Vec::new());
    let newest: Mutex<NewestBodies> = Mutex::new(Default::default());
    let first_error: Mutex<Option<String>> = Mutex::new(None);
    let stop = AtomicBool::new(false);
    // Requests started and finished so far; equal when none is in flight.
    let (started, answered) = (AtomicU64::new(0), AtomicU64::new(0));
    let mut host_discarded = 0;
    let mut rounds = Dual::default();
    let mut seconds_driven = Dual::default();
    let mut since_sample = 0u64;
    let start = Instant::now();
    let end_s = wall.as_secs_f64();
    let budgets = stack.base_budgets.clone();
    let first_s = stack.engine.now_s();
    let period = stack.engine.control_period_s();
    std::thread::scope(|scope| {
        for sender in 0..SENDERS {
            let (addr, done, stop, budgets) = (&addr, &done, &stop, &budgets);
            let (newest, first_error) = (&newest, &first_error);
            let (started, answered) = (&started, &answered);
            scope.spawn(move || {
                let mut mine = Vec::new();
                let mut i = sender;
                loop {
                    let due = schedule.due_s(i);
                    if due >= end_s || stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let route = route_of(seed, i);
                    let now = start.elapsed().as_secs_f64();
                    if now < due {
                        std::thread::sleep(Duration::from_secs_f64(due - now));
                    }
                    started.fetch_add(1, Ordering::SeqCst);
                    let sent = start.elapsed().as_secs_f64();
                    let response = send(addr, seed, i, route, budgets);
                    let finished = start.elapsed().as_secs_f64();
                    answered.fetch_add(1, Ordering::SeqCst);
                    let ok = match response {
                        Ok(r) if (200..300).contains(&r.status) => {
                            let mut newest = newest.lock().expect("bodies lock");
                            let slot = &mut newest[route as usize];
                            if slot.as_ref().is_none_or(|(at, _)| *at <= finished) {
                                *slot = Some((finished, r.body));
                            }
                            true
                        }
                        other => {
                            let why = match other {
                                Ok(r) => format!("{route:?} answered {}", r.status),
                                Err(e) => format!("{route:?}: {e}"),
                            };
                            first_error.lock().expect("error lock").get_or_insert(why);
                            false
                        }
                    };
                    mine.push(Done {
                        route,
                        timed: Timed {
                            due,
                            sent,
                            done: finished,
                        },
                        ok,
                    });
                    i += SENDERS;
                }
                done.lock().expect("results lock").extend(mine);
            });
        }
        // The engine: one simulated second every 1/PACE wall seconds, a
        // fixed number of them; a lagging engine finishes late.
        for k in 0..(end_s * PACE).round() as u64 {
            let due = k as f64 / PACE;
            let now = start.elapsed().as_secs_f64();
            if now < due {
                std::thread::sleep(Duration::from_secs_f64(due - now));
            }
            let t0 = Instant::now();
            let round = drive_second(&mut stack.engine, &stack.state);
            let dt = t0.elapsed().as_secs_f64();
            let mut busy = dt;
            if stack.engine.now_s().is_multiple_of(RESET_S) {
                let t1 = Instant::now();
                stack.engine.reset_trace();
                busy += t1.elapsed().as_secs_f64();
            }
            seconds_driven.push(busy, None);
            if round {
                rounds.push(dt, None);
            }
            // Sample the host clock at most once per control period, only
            // where it fits before the next step is due, never just before
            // a round, and while no request is in flight; a request that
            // starts meanwhile voids the sample.
            since_sample += 1;
            let slack = (k + 1) as f64 / PACE - start.elapsed().as_secs_f64();
            let round_next = stack.engine.now_s().is_multiple_of(period);
            if let Some(host) = host.as_deref_mut() {
                let before = started.load(Ordering::SeqCst);
                if since_sample >= 8
                    && !round_next
                    && slack > 2.0 * NOMINAL_S
                    && answered.load(Ordering::SeqCst) == before
                {
                    let dt = host.run();
                    if answered.load(Ordering::SeqCst) == before
                        && started.load(Ordering::SeqCst) == before
                    {
                        host.record(dt);
                        since_sample = 0;
                    } else {
                        host_discarded += 1;
                    }
                }
            }
        }
        stop.store(true, Ordering::Relaxed);
    });
    let requests = done.into_inner().expect("results lock");
    let puts_sent = requests
        .iter()
        .filter(|d| d.route == Route::PutBudget)
        .count() as u64;
    Segment {
        requests,
        bodies: Route::ALL
            .into_iter()
            .zip(newest.into_inner().expect("bodies lock"))
            .filter_map(|(route, slot)| Some((route, slot?.1)))
            .collect(),
        first_error: first_error.into_inner().expect("error lock"),
        puts_sent,
        rounds,
        seconds_driven,
        achieved_pace: (stack.engine.now_s() - first_s) as f64 / start.elapsed().as_secs_f64(),
        host_discarded,
    }
}

/// Checks and failure counts of a segment. Payloads are validated only
/// for the run's last segment (`validate_payloads`), as the report parse
/// is slow.
fn account(o: &mut Outcome, stack: &Stack, seg: &Segment, validate_payloads: bool) {
    if validate_payloads {
        check_payloads(o, seg);
    }
    let head = stack.state.oplog_head();
    o.check(
        "oplog head equals the distinct idempotency keys sent",
        head == seg.puts_sent,
        format!("head {head}, keys sent {}", seg.puts_sent),
    );
    if let Some(e) = &seg.first_error {
        o.note("first_failed_request", e);
    }
    o.attempted = seg.requests.len() as u64;
    o.failed = seg.requests.iter().filter(|d| !d.ok).count() as u64;
}

/// Validates the newest payload of each route with the program's own
/// parsers.
fn check_payloads(o: &mut Outcome, seg: &Segment) {
    let validated: Vec<Result<(), String>> = seg
        .bodies
        .iter()
        .map(|(route, body)| validate(*route, body))
        .collect();
    let validating = [Route::Metrics, Route::Report, Route::Trace];
    let all_routes = validating
        .iter()
        .all(|r| seg.bodies.iter().any(|(route, _)| route == r));
    o.check(
        "the newest /v1/metrics, /v1/report and /v1/trace payloads validate",
        all_routes && validated.iter().all(Result::is_ok),
        match validated.iter().find_map(|v| v.as_ref().err()) {
            Some(e) => e.clone(),
            None => format!(
                "{} payloads, every route present: {all_routes}",
                validated.len()
            ),
        },
    );
    if let Some((_, body)) = seg.bodies.iter().find(|(r, _)| *r == Route::Report) {
        o.note("report_bytes", body.len());
    }
}

/// Runs `operator_api`.
pub fn run(opts: &Opts) -> Outcome {
    let mut o = Outcome {
        fail_base: "http requests (failed: non-2xx status or transport error)",
        ..Outcome::default()
    };
    let dir = scratch_dir();
    let result = if opts.trace {
        run_traced(opts, &mut o, &dir)
    } else {
        run_timed(opts, &mut o, &dir)
    };
    let _ = std::fs::remove_dir_all(&dir);
    if let Err(e) = result {
        o.check("operator stack runs", false, e);
    }
    o.note("pace_sim_s_per_s", PACE);
    o.note("rate_req_per_s", RATE);
    o.note("observer_sets", RATE / observer_set_rate());
    o
}

fn run_timed(opts: &Opts, o: &mut Outcome, dir: &Path) -> Result<(), String> {
    let mut host = HostClock::new();
    let mut setups = Dual::default();
    let mut stack: Option<Stack> = None;
    for k in 0..SETUP_REPS {
        if let Some(mut previous) = stack.take() {
            previous.server.shutdown();
        }
        let t0 = Instant::now();
        stack = Some(build(dir, k)?);
        let wall = t0.elapsed().as_secs_f64();
        host.sample();
        setups.push(wall, Some(&host));
    }
    let mut stack = stack.expect("built at least once");
    let seg = measure(&mut stack, opts.seed, opts.seconds, Some(&mut host));
    stack.server.shutdown();
    account(o, &stack, &seg, true);

    // A local scale would multiply each round by the noise of the few
    // quiet samples near it, and widen the tail; the run's median takes
    // out only the run's host speed. The p95 is scaled like the p50: its
    // rounds are the ones that regrow the trace series after a reset, and
    // in wall time they drift with the host as the median does (seeded
    // runs minutes apart ranged 29–47 ms wall, 38–46 ms scaled).
    let factor = host.run_factor();
    let at_run_speed = |d: &Dual| Dual {
        raw: d.raw.clone(),
        scaled: d.raw.scaled(factor),
    };
    let simulated = seg.seconds_driven.raw.len() as u64;
    end_to_end(
        o,
        &setups,
        &at_run_speed(&seg.rounds),
        &at_run_speed(&seg.seconds_driven),
        simulated,
        &host,
    );
    o.note("achieved_pace", seg.achieved_pace);
    o.note("host_ref_discarded", seg.host_discarded);
    o.note("request_n", seg.requests.len());
    Ok(())
}

fn run_traced(opts: &Opts, o: &mut Outcome, dir: &Path) -> Result<(), String> {
    let half = opts.seconds / 2;
    let mut plain = build(dir, 0)?;
    let untraced = measure(&mut plain, opts.seed, half, None);
    plain.server.shutdown();
    account(o, &plain, &untraced, false);
    drop(plain);

    let mut stack = build(dir, 1)?;
    let seg = measure(&mut stack, opts.seed, half, None);
    account(o, &stack, &seg, true);
    let probes = probe(o, &stack, dir);
    stack.server.shutdown();

    let iter = |s: &Segment| s.seconds_driven.raw.mean();
    o.set("trace.untraced_iter_us", iter(&untraced) * 1e6);
    o.set("trace.traced_iter_us", iter(&seg) * 1e6);
    o.set(
        "trace.overhead_pct",
        (iter(&seg) / iter(&untraced) - 1.0) * 100.0,
    );
    o.set("round_n", seg.rounds.raw.len() as f64);
    let snap = stack.state.registry().snapshot();
    engine_layers(o, &snap, 0.0);
    o.set(
        "serve.requests",
        counter(&snap, names::SERVE_REQUESTS_TOTAL) as f64,
    );
    o.set(
        "serve.client_errors",
        counter(&snap, names::SERVE_CLIENT_ERRORS_TOTAL) as f64,
    );
    o.set(
        "core.oplog.appends",
        counter(&snap, names::SERVE_OPLOG_APPENDS_TOTAL) as f64,
    );
    client_layers(o, &seg, &probes);
    Ok(())
}

/// Mean handler cost per route, microseconds, from the probes.
struct Probes {
    handler_us: [f64; 5],
}

/// Times the handlers' work on the live stack, outside HTTP: the
/// Prometheus render, the report payload, the trace render, the health
/// snapshot, and an `OpLog::append` on a scratch file-backed log.
fn probe(o: &mut Outcome, stack: &Stack, dir: &Path) -> Probes {
    fn time<T>(reps: usize, mut f: impl FnMut(usize) -> T) -> f64 {
        let t0 = Instant::now();
        for i in 0..reps {
            std::hint::black_box(f(i));
        }
        t0.elapsed().as_secs_f64() / reps as f64 * 1e6
    }
    let metrics_us = time(PROBE_REPS, |_| stack.state.metrics_page());
    let report_us = time(PROBE_REPS, |_| stack.state.report_json());
    let trace_us = time(PROBE_REPS, |_| stack.trace.render(Some(60)));
    let health_us = time(PROBE_REPS, |_| stack.state.health().to_json());
    let path = dir.join("oplog-probe.log");
    let _ = std::fs::remove_file(&path);
    let append_us = match OpLog::open(&path) {
        Ok((mut log, _)) => {
            let watts = stack.base_budgets[0];
            let mut failures = 0;
            let us = time(PROBE_REPS, |i| {
                let key = format!("probe-{i}");
                let op = Op::SetTreeBudget { tree: 0, watts };
                failures += u32::from(log.append(i as u64, Some(&key), op).is_err());
            });
            o.check(
                "scratch oplog accepts every probe append",
                failures == 0 && log.head_seq() == PROBE_REPS as u64,
                format!("head {} after {PROBE_REPS} appends", log.head_seq()),
            );
            us
        }
        Err(e) => {
            o.check("scratch oplog opens", false, e.to_string());
            0.0
        }
    };
    let _ = std::fs::remove_file(&path);
    o.set("core.obs.prometheus.render_us", metrics_us);
    o.set("serve.state.report_json_us", report_us);
    o.set("core.obs.trace.render_us", trace_us);
    o.set("serve.state.probe_n", PROBE_REPS as f64);
    o.set("core.oplog.append_us", append_us);
    o.set("core.oplog.append_n", PROBE_REPS as f64);
    Probes {
        handler_us: [metrics_us, report_us, health_us, trace_us, append_us],
    }
}

/// Client-side latencies per route and the HTTP overhead beyond the
/// handlers' own work.
fn client_layers(o: &mut Outcome, seg: &Segment, probes: &Probes) {
    let mut gets = Samples::default();
    let mut puts = Samples::default();
    let mut lag = Samples::default();
    let (mut service_sum, mut handler_sum) = (0.0, 0.0);
    for (r, route) in Route::ALL.iter().enumerate() {
        let mut lat = Samples::default();
        for d in seg.requests.iter().filter(|d| d.route == *route) {
            let ms = d.timed.latency_from_due() * 1e3;
            lat.push(ms);
            if *route == Route::PutBudget {
                puts.push(ms);
            } else {
                gets.push(ms);
            }
            lag.push(d.timed.lag() * 1e3);
            service_sum += d.timed.service() * 1e3;
            handler_sum += probes.handler_us[r] / 1e3;
        }
        o.set(route.metric(), lat.mean());
        o.set(route.count_metric(), lat.len() as f64);
    }
    let n = seg.requests.len().max(1) as f64;
    o.set_derived(
        "serve.http.overhead_ms",
        self_time(service_sum / n, &[handler_sum / n]),
    );
    for (samples, p50, p95, count) in [
        (&gets, "req_ms_p50", "req_ms_p95", "req_n"),
        (&puts, "mutate_ms_p50", "mutate_ms_p95", "mutate_n"),
    ] {
        let (median, tail) = samples.p50_p95();
        o.set(p50, median);
        o.set(p95, tail.unwrap_or(samples.max()));
        o.set(count, samples.len() as f64);
        o.note(
            p95,
            if tail.is_some() {
                "valid"
            } else {
                "max: fewer than 200 samples"
            },
        );
    }
    let (_, lag95) = lag.p50_p95();
    o.set("serve.client.lag_ms_p95", lag95.unwrap_or(lag.max()));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_cycle_sends_the_mix_in_a_seeded_order() {
        let len: usize = MIX.iter().map(|&(_, n)| n).sum();
        for cycle in 0..3u64 {
            let routes: Vec<Route> = (0..len as u64)
                .map(|i| route_of(7, cycle * len as u64 + i))
                .collect();
            for &(route, n) in &MIX {
                assert_eq!(routes.iter().filter(|&&r| r == route).count(), n);
            }
        }
        let first: Vec<Route> = (0..len as u64).map(|i| route_of(7, i)).collect();
        let again: Vec<Route> = (0..len as u64).map(|i| route_of(7, i)).collect();
        let other: Vec<Route> = (0..len as u64).map(|i| route_of(8, i)).collect();
        assert_eq!(first, again);
        assert_ne!(first, other);
        // 92 requests per 300 simulated seconds at 64x: about 19.6/s.
        assert!((observer_set_rate() - 19.626).abs() < 1e-3);
    }
}
