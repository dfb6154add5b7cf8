//! Distributed rack-/room-worker deployment of the control plane
//! (paper §5).
//!
//! The production CapMaestro prototype groups controllers into *worker VMs*:
//! rack-level workers own the capping controllers and the lowest (CDU-level)
//! shifting controllers; a room-level worker owns everything above, up to
//! the contractual budget. Each control period, priority-summarized metrics
//! flow rack → room and budgets flow room → rack.
//!
//! This module reproduces that deployment behind a [`Transport`] seam. The
//! default [`ChannelTransport`] runs one OS thread per rack worker with
//! crossbeam channels as the transport; `capmaestro-serve` provides a
//! socket transport where each rack worker is a separate OS process
//! connecting outbound to the room controller, speaking the [`crate::wire`]
//! codec. The *cut* between room and rack workers is the set of leaf-parent
//! nodes of each control tree (the CDU-level shifting controllers).
//! Decisions are identical to the synchronous [`crate::plane::ControlPlane`]
//! running the same policy without SPO — a property the tests assert — but
//! sensing, metrics computation, and cap enforcement run concurrently per
//! rack, and identically across transports:
//!
//! - the shared rack-side math lives in [`RackWorker`], used verbatim by
//!   the channel threads and the agent binary;
//! - the room waits for [`UpMsg::Enforced`] acks before the world advances,
//!   so stepping strictly follows enforcement on every transport;
//! - fail-safe metrics come from a spawn-time [`LeafStatic`] table instead
//!   of live farm reads, so a room controller without farm access budgets
//!   a partitioned rack exactly like the in-process deployment.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::RwLock;

use capmaestro_topology::{Priority, ServerId, SupplyIndex};
use capmaestro_units::{Ratio, Seconds, Watts};

use crate::budget::{split_budget, split_budget_into, SplitScratch};
use crate::capping::CappingController;
use crate::estimator::DemandEstimator;
use crate::metrics::{LeafInput, PriorityMetrics};
use crate::obs::{names, null_recorder, Recorder};
use crate::policy::{CappingPolicy, NodeContext, PolicyKind, PriorityVisibility};
use crate::tree::ControlTree;

/// Identifies a cut node: `(tree index, spec node index)`.
pub type CutId = (usize, usize);

/// Tunables of the distributed deployment, passed to
/// [`WorkerDeployment::spawn`]. Real deployments tune these against their
/// control period; tests shrink them to keep fault scenarios fast.
#[derive(Debug, Clone)]
pub struct DeploymentConfig {
    /// How long the room worker waits for rack metrics each round before
    /// budgeting from stale data. Also bounds the wait for
    /// [`UpMsg::Enforced`] acks after budgets go out.
    pub gather_timeout: Duration,
    /// Base delay between [`WorkerDeployment::respawn_worker`] attempts
    /// for the same worker; doubles per consecutive attempt (capped at
    /// `base × 2⁶`) until the worker reports again.
    pub respawn_backoff: Duration,
    /// Consecutive rounds a cut node may miss reporting before the room
    /// worker stops trusting its frozen metrics and budgets it from
    /// fail-safe metrics (every leaf at its `cap_min`) instead. Rounds
    /// 1..N are the stale-hold bridge. Must be at least 1, as for
    /// [`crate::plane::StalenessConfig::stale_after_rounds`].
    pub stale_after_rounds: u32,
    /// How long [`WorkerDeployment::advance`] waits for the transport to
    /// finish stepping the simulated world. Irrelevant for the in-process
    /// transport (stepping is synchronous); bounds the wait for
    /// [`UpMsg::Advanced`] acks over sockets.
    pub advance_timeout: Duration,
    /// Where the deployment reports its respawn / gather-timeout counters
    /// and fail-safe-cut gauge. Defaults to [`NullRecorder`]
    /// (no-op); attach a [`MetricsRegistry`] to export.
    ///
    /// [`NullRecorder`]: crate::obs::NullRecorder
    /// [`MetricsRegistry`]: crate::obs::MetricsRegistry
    pub recorder: Arc<dyn Recorder>,
}

impl Default for DeploymentConfig {
    fn default() -> Self {
        DeploymentConfig {
            gather_timeout: Duration::from_millis(500),
            respawn_backoff: Duration::from_millis(500),
            stale_after_rounds: 3,
            advance_timeout: Duration::from_secs(5),
            recorder: null_recorder(),
        }
    }
}

impl PartialEq for DeploymentConfig {
    fn eq(&self, other: &Self) -> bool {
        self.gather_timeout == other.gather_timeout
            && self.respawn_backoff == other.respawn_backoff
            && self.stale_after_rounds == other.stale_after_rounds
            && self.advance_timeout == other.advance_timeout
            && Arc::ptr_eq(&self.recorder, &other.recorder)
    }
}

impl DeploymentConfig {
    /// Returns the config with the gather timeout replaced.
    #[must_use]
    pub fn with_gather_timeout(mut self, timeout: Duration) -> Self {
        self.gather_timeout = timeout;
        self
    }

    /// Returns the config with the respawn backoff base replaced.
    #[must_use]
    pub fn with_respawn_backoff(mut self, backoff: Duration) -> Self {
        self.respawn_backoff = backoff;
        self
    }

    /// Returns the config with the stale-hold round budget replaced.
    #[must_use]
    pub fn with_stale_after_rounds(mut self, rounds: u32) -> Self {
        self.stale_after_rounds = rounds;
        self
    }

    /// Returns the config with the advance timeout replaced.
    #[must_use]
    pub fn with_advance_timeout(mut self, timeout: Duration) -> Self {
        self.advance_timeout = timeout;
        self
    }

    /// Returns the config with the metrics recorder replaced.
    #[must_use]
    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = recorder;
        self
    }
}

/// A farm shared between rack workers, guarded by a read-write lock —
/// the stand-in for the IPMI transport to real hardware.
pub type SharedFarm = Arc<RwLock<crate::plane::Farm>>;

/// Wraps a [`crate::plane::Farm`] for sharing with rack workers.
pub fn shared_farm(farm: crate::plane::Farm) -> SharedFarm {
    Arc::new(RwLock::new(farm))
}

/// Rack → room messages. Public because the socket transport serializes
/// them with [`crate::wire`]; the channel transport sends them as-is.
#[derive(Debug, Clone, PartialEq)]
pub enum UpMsg {
    /// First message on a socket connection: which worker this is.
    /// Channel workers never send it (their identity is their channel).
    Hello {
        /// The connecting worker's index.
        worker: usize,
        /// The worker count the agent was configured with; the controller
        /// rejects mismatches (the fleets would disagree on assignments).
        workers_total: usize,
    },
    /// The worker's cut metrics for a gather round.
    Metrics {
        /// Reporting worker.
        worker: usize,
        /// The round the metrics answer.
        round: u64,
        /// Summarized metrics per owned cut node.
        metrics: Vec<(CutId, PriorityMetrics)>,
    },
    /// The worker finished enforcing a round's budgets. The room waits for
    /// these before advancing the world, so stepping strictly follows
    /// enforcement on every transport.
    Enforced {
        /// Acknowledging worker.
        worker: usize,
        /// The round whose budgets were enforced.
        round: u64,
    },
    /// The worker finished stepping its servers after
    /// [`DownMsg::Advance`]. Channel workers never send it (the room
    /// steps the shared farm itself).
    Advanced {
        /// Acknowledging worker.
        worker: usize,
        /// Seconds stepped.
        seconds: u32,
        /// Cumulative invariant violations the worker has observed
        /// locally since it started.
        violations_total: u64,
    },
    /// Socket liveness probe; answered with [`DownMsg::HeartbeatAck`].
    Heartbeat {
        /// Probing worker.
        worker: usize,
        /// Echoed in the ack so the worker can measure round-trip time.
        nonce: u64,
    },
}

/// Room → rack messages.
#[derive(Debug, Clone, PartialEq)]
pub enum DownMsg {
    /// Accepts a socket worker's [`UpMsg::Hello`].
    Welcome {
        /// The controller's worker count, echoed for cross-checking.
        workers_total: usize,
    },
    /// Sense, estimate, and report metrics for round `round`.
    Gather {
        /// The round being gathered.
        round: u64,
    },
    /// Budgets for this round's cut nodes; split, enforce, and ack with
    /// [`UpMsg::Enforced`].
    Budgets {
        /// The round the budgets answer.
        round: u64,
        /// Budget per cut node, sorted by cut id.
        budgets: Vec<(CutId, Watts)>,
    },
    /// Step the worker's servers `seconds` simulated seconds and ack with
    /// [`UpMsg::Advanced`]. Only sent over transports whose workers own
    /// their piece of the world (the socket agents); channel workers
    /// ignore it.
    Advance {
        /// Simulated seconds to step.
        seconds: u32,
    },
    /// Answers [`UpMsg::Heartbeat`].
    HeartbeatAck {
        /// The nonce from the probe.
        nonce: u64,
    },
    /// Drain and exit. Terminal: a socket agent receiving this must not
    /// reconnect.
    Shutdown,
}

/// A leaf binding beneath a cut node: `(leaf spec index, server, supply)`.
pub type LeafBinding = (usize, ServerId, SupplyIndex);

/// Static description of one rack worker's responsibility: a set of cut
/// nodes (CDU-level shifting controllers), the leaf bindings beneath them,
/// and the servers the worker *owns* (steps, in process-per-rack mode).
#[derive(Debug, Clone, PartialEq)]
pub struct RackAssignment {
    /// For each cut node: its id and the leaf bindings beneath it.
    pub cuts: Vec<(CutId, Vec<LeafBinding>)>,
    /// Servers owned by this worker: each server in the deployment is
    /// owned by exactly one worker (the first, in round-robin order,
    /// with a cut binding it). Socket agents step exactly these.
    pub owned: Vec<ServerId>,
}

/// Distributes cut nodes round-robin across `worker_count` workers — the
/// single source of truth for who owns what, shared by the room controller
/// and the out-of-process agents (both sides compute it independently from
/// the same trees and must agree).
///
/// # Panics
///
/// Panics if `worker_count == 0`.
pub fn rack_assignments(trees: &[ControlTree], worker_count: usize) -> Vec<RackAssignment> {
    assert!(worker_count > 0, "at least one rack worker is required");
    let mut assignments: Vec<RackAssignment> = (0..worker_count)
        .map(|_| RackAssignment {
            cuts: Vec::new(),
            owned: Vec::new(),
        })
        .collect();
    let mut claimed: HashSet<ServerId> = HashSet::new();
    let mut rr = 0usize;
    for (t, tree) in trees.iter().enumerate() {
        for cut in cut_nodes(tree) {
            let spec = tree.spec();
            let worker = rr % worker_count;
            let mut leaves: Vec<LeafBinding> = Vec::new();
            for &c in &spec.node(cut).children {
                let leaf = spec.node(c).leaf.expect("cut children are leaves");
                leaves.push((c, leaf.server, leaf.supply));
                if claimed.insert(leaf.server) {
                    assignments[worker].owned.push(leaf.server);
                }
            }
            assignments[worker].cuts.push(((t, cut), leaves));
            rr += 1;
        }
    }
    assignments
}

/// Whether every server bound under a worker's cuts is also *owned* by
/// that worker — i.e. no (dual-corded) server spans workers. The socket
/// transport requires this: each agent steps its owned servers in its own
/// process, so a server visible to two agents would fork into two
/// divergent copies.
pub fn assignments_server_disjoint(assignments: &[RackAssignment]) -> bool {
    assignments.iter().all(|a| {
        let owned: HashSet<ServerId> = a.owned.iter().copied().collect();
        a.cuts
            .iter()
            .flat_map(|(_, leaves)| leaves.iter())
            .all(|&(_, server, _)| owned.contains(&server))
    })
}

/// Spawn-time static facts about one leaf, captured so fail-safe metrics
/// can be rebuilt without farm access (a room controller over sockets has
/// none) and identically across transports. Shares are frozen at capture:
/// a supply failing *after* spawn does not change the fail-safe floor,
/// which only ever under-promises (cap_min demand).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeafStatic {
    /// The server's minimum controllable AC power.
    pub cap_min: Watts,
    /// The server's maximum controllable AC power.
    pub cap_max: Watts,
    /// Fraction of the server load this supply carries.
    pub share: Ratio,
    /// The server's priority.
    pub priority: Priority,
}

/// Captures the [`LeafStatic`] table for a deployment from a farm —
/// called once at spawn time, before any faults. Leaves whose server is
/// absent from the farm are skipped (they contribute nothing to
/// fail-safe budgets, exactly like the live-read path they replace).
pub fn leaf_statics(
    trees: &[ControlTree],
    assignments: &[RackAssignment],
    farm: &crate::plane::Farm,
) -> HashMap<(CutId, usize), LeafStatic> {
    let mut out = HashMap::new();
    for assignment in assignments {
        for (cut, leaves) in &assignment.cuts {
            let (t, _) = *cut;
            let spec = trees[t].spec();
            for &(leaf_idx, server, supply) in leaves {
                let leaf = spec.node(leaf_idx).leaf.expect("cut children are leaves");
                let Some(srv) = farm.get(server) else {
                    continue;
                };
                let model = srv.config().model();
                let share = srv
                    .bank()
                    .effective_shares()
                    .get(supply.index())
                    .copied()
                    .unwrap_or(Ratio::ZERO);
                out.insert(
                    (*cut, leaf_idx),
                    LeafStatic {
                        cap_min: model.cap_min(),
                        cap_max: model.cap_max(),
                        share,
                        priority: leaf.priority,
                    },
                );
            }
        }
    }
    out
}

/// The budgets and degradation state of one distributed control round.
/// Deterministically ordered so two runs (or two transports) can be
/// compared bit-for-bit.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundOutcome {
    /// The round this outcome answers.
    pub round: u64,
    /// Budget per cut node, sorted ascending by cut id.
    pub cut_budgets: Vec<(CutId, Watts)>,
    /// Cut nodes budgeted from fail-safe metrics this round (stale past
    /// the threshold or never reported), sorted ascending.
    pub failsafe_cuts: Vec<CutId>,
}

impl RoundOutcome {
    /// The budget assigned to `cut`, if it exists in this deployment.
    pub fn budget(&self, cut: CutId) -> Option<Watts> {
        self.cut_budgets
            .binary_search_by_key(&cut, |&(c, _)| c)
            .ok()
            .map(|i| self.cut_budgets[i].1)
    }

    /// A canonical one-line rendering with exact f64 bit patterns —
    /// the comparison key of the socket-vs-channel differential tests.
    pub fn wire_line(&self) -> String {
        use std::fmt::Write as _;
        let mut s = format!("round={}", self.round);
        for ((t, c), b) in &self.cut_budgets {
            let _ = write!(s, " {t}.{c}={:016x}", b.as_f64().to_bits());
        }
        for (t, c) in &self.failsafe_cuts {
            let _ = write!(s, " failsafe={t}.{c}");
        }
        s
    }
}

/// How the room controller reaches its rack workers. The deployment's
/// round logic is written against this seam only, so the in-process
/// channel transport and the socket transport produce identical budgets
/// from identical metrics.
///
/// Implementations own worker liveness: `send` to a dead worker returns
/// `false` (and the round treats the worker as partitioned), `recv`
/// surfaces whatever workers report, and `respawn`/`kill` map onto the
/// transport's notion of restart (thread respawn in-process; waiting for
/// an outbound reconnect over sockets).
pub trait Transport: Send + fmt::Debug {
    /// Number of rack workers (fixed at deployment creation).
    fn worker_count(&self) -> usize;

    /// Sends a message to one worker. `false` means the worker is
    /// unreachable (dead thread, torn connection) — the caller treats it
    /// as partitioned for this round.
    fn send(&mut self, worker: usize, msg: DownMsg) -> bool;

    /// Receives the next worker message, waiting until `deadline`.
    /// `None` on deadline or when no worker can ever report again.
    fn recv_deadline(&mut self, deadline: Instant) -> Option<UpMsg>;

    /// Advances the simulated world `seconds` seconds: in-process by
    /// stepping the shared farm, over sockets by broadcasting
    /// [`DownMsg::Advance`] and collecting [`UpMsg::Advanced`] acks until
    /// `deadline`. Returns `false` if any live worker failed to ack.
    fn advance(&mut self, seconds: u32, deadline: Instant) -> bool;

    /// Whether a worker is currently reachable.
    fn is_alive(&self, worker: usize) -> bool;

    /// Tears a worker down (fault injection, rolling maintenance).
    fn kill(&mut self, worker: usize);

    /// Restarts a dead worker if the transport can (thread respawn).
    /// Transports where recovery is worker-driven (socket agents
    /// reconnect outbound on their own) return `is_alive(worker)`.
    fn respawn(&mut self, worker: usize) -> bool;

    /// Cumulative invariant violations reported by workers, for
    /// transports whose workers audit their own servers. In-process
    /// workers share the farm with the caller, who audits it directly.
    fn violations(&self) -> u64 {
        0
    }

    /// Stops every worker and releases transport resources.
    fn shutdown(&mut self);
}

/// The default in-process transport: one OS thread per rack worker,
/// crossbeam channels for messages, a [`SharedFarm`] for the world.
#[derive(Debug)]
pub struct ChannelTransport {
    /// The world shared with the worker threads.
    farm: SharedFarm,
    /// Worker threads, joined on shutdown.
    handles: Vec<JoinHandle<()>>,
    /// `None` marks a worker known to be dead (killed via
    /// [`Transport::kill`] or observed unreachable): gather must not wait
    /// on it, or every round eats the full gather timeout.
    to_workers: Vec<Option<Sender<DownMsg>>>,
    /// The room side of the shared up-channel.
    from_workers: Receiver<UpMsg>,
    /// Kept to hand to respawned workers.
    up_tx: Sender<UpMsg>,
    /// Kept to restart dead workers with the assignment they held.
    trees: Vec<ControlTree>,
    /// Kept for respawns.
    policy: PolicyKind,
    /// Kept for respawns.
    assignments: Vec<RackAssignment>,
}

impl ChannelTransport {
    /// Spawns one worker thread per assignment over the shared farm.
    pub fn spawn(
        trees: Vec<ControlTree>,
        policy: PolicyKind,
        farm: SharedFarm,
        assignments: Vec<RackAssignment>,
    ) -> Self {
        let (up_tx, from_workers) = unbounded::<UpMsg>();
        let mut to_workers = Vec::with_capacity(assignments.len());
        let mut handles = Vec::with_capacity(assignments.len());
        for (w, assignment) in assignments.iter().enumerate() {
            let (down_tx, down_rx) = unbounded::<DownMsg>();
            to_workers.push(Some(down_tx));
            handles.push(spawn_worker_thread(
                w,
                assignment.clone(),
                trees.clone(),
                policy,
                Arc::clone(&farm),
                up_tx.clone(),
                down_rx,
                false,
            ));
        }
        ChannelTransport {
            farm,
            handles,
            to_workers,
            from_workers,
            up_tx,
            trees,
            policy,
            assignments,
        }
    }
}

impl Transport for ChannelTransport {
    fn worker_count(&self) -> usize {
        self.to_workers.len()
    }

    fn send(&mut self, worker: usize, msg: DownMsg) -> bool {
        let Some(slot) = self.to_workers.get_mut(worker) else {
            return false;
        };
        let Some(tx) = slot else {
            return false;
        };
        if tx.send(msg).is_ok() {
            true
        } else {
            // A send error means the worker thread is gone — mark it dead
            // so no later round waits on it.
            *slot = None;
            false
        }
    }

    fn recv_deadline(&mut self, deadline: Instant) -> Option<UpMsg> {
        let remaining = deadline.saturating_duration_since(Instant::now());
        self.from_workers.recv_timeout(remaining).ok()
    }

    fn advance(&mut self, seconds: u32, _deadline: Instant) -> bool {
        // In-process, the room steps the shared world itself; enforcement
        // already completed (the round waited for Enforced acks), so this
        // cannot race a worker's farm write.
        let mut farm = self.farm.write();
        for _ in 0..seconds {
            farm.step_all(Seconds::new(1.0));
        }
        true
    }

    fn is_alive(&self, worker: usize) -> bool {
        self.to_workers.get(worker).is_some_and(Option::is_some)
    }

    fn kill(&mut self, worker: usize) {
        // The worker's Sender is dropped immediately after the Shutdown is
        // queued: the worker drains its queue and exits, and — critically
        // — gather never again counts it as expected.
        if let Some(slot) = self.to_workers.get_mut(worker) {
            if let Some(tx) = slot.take() {
                let _ = tx.send(DownMsg::Shutdown);
            }
        }
    }

    fn respawn(&mut self, worker: usize) -> bool {
        if worker >= self.to_workers.len() || self.is_alive(worker) {
            return false;
        }
        let (down_tx, down_rx) = unbounded::<DownMsg>();
        self.handles.push(spawn_worker_thread(
            worker,
            self.assignments[worker].clone(),
            self.trees.clone(),
            self.policy,
            Arc::clone(&self.farm),
            self.up_tx.clone(),
            down_rx,
            true,
        ));
        self.to_workers[worker] = Some(down_tx);
        true
    }

    fn shutdown(&mut self) {
        for tx in self.to_workers.iter().flatten() {
            let _ = tx.send(DownMsg::Shutdown);
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Spawns one rack worker thread running [`rack_worker_loop`].
#[allow(clippy::too_many_arguments)]
fn spawn_worker_thread(
    worker: usize,
    assignment: RackAssignment,
    trees: Vec<ControlTree>,
    policy: PolicyKind,
    farm: SharedFarm,
    up: Sender<UpMsg>,
    down: Receiver<DownMsg>,
    respawned: bool,
) -> JoinHandle<()> {
    let suffix = if respawned { "-respawn" } else { "" };
    thread::Builder::new()
        .name(format!("rack-worker-{worker}{suffix}"))
        .spawn(move || rack_worker_loop(worker, assignment, trees, policy, farm, up, down))
        .expect("spawning a rack worker thread")
}

/// The distributed deployment: a room worker (caller thread) plus rack
/// workers behind a [`Transport`].
///
/// # Examples
///
/// See [`WorkerDeployment::run_rounds`] usage in the crate tests and the
/// `priority_capping` example.
#[derive(Debug)]
pub struct WorkerDeployment {
    /// The control trees (shared shape with every worker).
    trees: Vec<ControlTree>,
    /// Contractual budget per tree root.
    root_budgets: Vec<Watts>,
    /// The capping policy every controller runs.
    policy: PolicyKind,
    /// Deployment tunables.
    config: DeploymentConfig,
    /// The rack workers.
    transport: Box<dyn Transport>,
    /// Cut node ids per tree, in spec order.
    cuts_per_tree: Vec<Vec<usize>>,
    /// Each worker's static responsibility.
    assignments: Vec<RackAssignment>,
    /// Fail-safe metrics per cut, precomputed at spawn from the
    /// [`LeafStatic`] table (every leaf demanding only `cap_min`).
    failsafe_metrics: HashMap<CutId, PriorityMetrics>,
    /// Freshest metrics seen per cut node (stale-hold fault tolerance).
    last_cut_metrics: HashMap<CutId, PriorityMetrics>,
    /// The round at which each cut node last reported, driving the
    /// stale-hold → fail-safe degradation.
    last_report_round: HashMap<CutId, u64>,
    /// Consecutive respawn attempts per worker since it last reported.
    respawn_attempts: Vec<u32>,
    /// Earliest instant the next respawn attempt per worker is allowed.
    respawn_not_before: Vec<Instant>,
    /// Liveness observed at the last round start, for counting
    /// worker-driven reconnects (socket agents) as respawns.
    was_alive: Vec<bool>,
}

/// Returns the leaf-parent (cut) node indices of a tree spec.
fn cut_nodes(tree: &ControlTree) -> Vec<usize> {
    let spec = tree.spec();
    (0..spec.len())
        .filter(|&idx| {
            let node = spec.node(idx);
            !node.children.is_empty()
                && node.children.iter().all(|&c| spec.node(c).is_leaf())
        })
        .collect()
}

impl WorkerDeployment {
    /// Spawns `worker_count` in-process rack workers over the given trees,
    /// budgets, and shared farm — the [`ChannelTransport`] deployment.
    /// Cut nodes are distributed round-robin across workers (a real
    /// deployment groups them by rack; the grouping does not change the
    /// decisions).
    ///
    /// # Panics
    ///
    /// Panics if `worker_count == 0`, tree/budget counts differ, or
    /// `config.stale_after_rounds` is zero.
    pub fn spawn(
        trees: Vec<ControlTree>,
        root_budgets: Vec<Watts>,
        policy: PolicyKind,
        farm: SharedFarm,
        worker_count: usize,
        config: DeploymentConfig,
    ) -> Self {
        assert!(worker_count > 0, "at least one rack worker is required");
        let assignments = rack_assignments(&trees, worker_count);
        let statics = {
            let guard = farm.read();
            leaf_statics(&trees, &assignments, &guard)
        };
        let transport =
            ChannelTransport::spawn(trees.clone(), policy, farm, assignments.clone());
        Self::with_transport(
            trees,
            root_budgets,
            policy,
            assignments,
            &statics,
            Box::new(transport),
            config,
        )
    }

    /// Builds a deployment over an already-running transport — the seam
    /// the socket transport enters through. `assignments` must match what
    /// the transport's workers were configured with (both sides compute
    /// [`rack_assignments`] from the same trees), and `statics` feeds the
    /// fail-safe metrics precomputation.
    ///
    /// # Panics
    ///
    /// Panics if the transport has no workers, the assignment count
    /// differs from the transport's worker count, tree/budget counts
    /// differ, or `config.stale_after_rounds` is zero — no report would
    /// ever count as fresh, so every cut would be budgeted fail-safe
    /// every round.
    pub fn with_transport(
        trees: Vec<ControlTree>,
        root_budgets: Vec<Watts>,
        policy: PolicyKind,
        assignments: Vec<RackAssignment>,
        statics: &HashMap<(CutId, usize), LeafStatic>,
        transport: Box<dyn Transport>,
        config: DeploymentConfig,
    ) -> Self {
        assert!(
            config.stale_after_rounds >= 1,
            "stale_after_rounds must be at least 1"
        );
        assert!(
            transport.worker_count() > 0,
            "at least one rack worker is required"
        );
        assert_eq!(
            transport.worker_count(),
            assignments.len(),
            "one assignment per transport worker is required"
        );
        assert_eq!(
            trees.len(),
            root_budgets.len(),
            "one root budget per control tree is required"
        );
        let cuts_per_tree: Vec<Vec<usize>> = trees.iter().map(cut_nodes).collect();
        let failsafe_metrics = build_failsafe_metrics(&trees, &assignments, statics, policy);
        let worker_count = transport.worker_count();
        let now = Instant::now();
        WorkerDeployment {
            trees,
            root_budgets,
            policy,
            config,
            transport,
            cuts_per_tree,
            assignments,
            failsafe_metrics,
            last_cut_metrics: HashMap::new(),
            last_report_round: HashMap::new(),
            respawn_attempts: vec![0; worker_count],
            respawn_not_before: vec![now; worker_count],
            was_alive: vec![true; worker_count],
        }
    }

    /// The deployment's configuration.
    pub fn config(&self) -> &DeploymentConfig {
        &self.config
    }

    /// Number of rack workers.
    pub fn worker_count(&self) -> usize {
        self.transport.worker_count()
    }

    /// The per-worker assignments (cuts, leaf bindings, owned servers).
    pub fn assignments(&self) -> &[RackAssignment] {
        &self.assignments
    }

    /// Replaces the per-tree root budgets, applied from the next round.
    ///
    /// # Panics
    ///
    /// Panics if the count differs from the tree count.
    pub fn set_root_budgets(&mut self, budgets: Vec<Watts>) {
        assert_eq!(
            budgets.len(),
            self.root_budgets.len(),
            "one root budget per control tree is required"
        );
        self.root_budgets = budgets;
    }

    /// Cumulative invariant violations reported over the transport (zero
    /// for in-process workers, which share the caller's farm).
    pub fn transport_violations(&self) -> u64 {
        self.transport.violations()
    }

    /// Runs one control round: gather (rack, parallel) → upper-tree
    /// aggregation + budgeting (room) → enforce (rack, parallel) → wait
    /// for enforcement acks. Returns the budgets assigned to each cut
    /// node plus which cuts were budgeted fail-safe.
    ///
    /// **Fault tolerance — the degradation ladder.** A rack worker that
    /// does not answer within the configured gather timeout is skipped for
    /// the round; for up to `stale_after_rounds` rounds the room worker
    /// budgets its cut nodes from the *last metrics it reported*
    /// (stale-hold), so one sick VM cannot stall capping for the whole
    /// data center. Beyond that, the frozen metrics can no longer be
    /// trusted — a stuck sensor looks exactly like this — and the cut is
    /// budgeted from **fail-safe metrics**: every leaf at its `cap_min`
    /// demand. Cut nodes that have never reported are budgeted fail-safe
    /// from the first round.
    pub fn run_round(&mut self, round: u64) -> RoundOutcome {
        self.note_reconnects();
        let n = self.transport.worker_count();

        // Phase 1: gather.
        let mut expected = 0usize;
        for w in 0..n {
            if self.transport.send(w, DownMsg::Gather { round }) {
                expected += 1;
            }
        }
        let deadline = Instant::now() + self.config.gather_timeout;
        let mut reported = vec![false; n];
        let mut answers = 0usize;
        while answers < expected {
            if Instant::now() >= deadline {
                break;
            }
            let Some(msg) = self.transport.recv_deadline(deadline) else {
                break; // timeout or all workers gone
            };
            // Acks and heartbeats from earlier phases are drained here
            // without counting toward the gather.
            if let UpMsg::Metrics {
                worker,
                round: r,
                metrics,
            } = msg
            {
                if worker >= n {
                    continue;
                }
                self.note_metrics(worker, r, metrics);
                // A late answer to an earlier round is cached above but
                // does not count as answering *this* gather.
                if r == round && !reported[worker] {
                    reported[worker] = true;
                    answers += 1;
                }
            }
        }
        if answers < expected {
            self.config
                .recorder
                .counter_add(names::WORKER_GATHER_TIMEOUTS_TOTAL, 1);
        }

        // Phase 2: the room worker allocates over each tree's upper part,
        // treating cut nodes as pseudo-leaves with the freshest metrics it
        // holds — or fail-safe metrics for cuts past the staleness
        // threshold.
        let (effective, failsafe_cuts) = self.effective_cut_metrics(round);
        let policy = self.policy.policy();
        let mut cut_budgets: Vec<(CutId, Watts)> = Vec::new();
        for (t, tree) in self.trees.iter().enumerate() {
            let budgets = room_allocate_upper(
                tree,
                &self.cuts_per_tree[t],
                |cut| {
                    effective
                        .get(&(t, cut))
                        .cloned()
                        .unwrap_or_else(PriorityMetrics::empty)
                },
                self.root_budgets[t],
                policy.as_ref(),
            );
            for (cut, b) in budgets {
                cut_budgets.push(((t, cut), b));
            }
        }
        // Trees and cuts are walked in ascending order, so this is a
        // no-op sort guaranteeing the documented invariant.
        cut_budgets.sort_unstable_by_key(|&(c, _)| c);

        // Phase 3: enforce (dead workers silently miss their budgets;
        // their servers hold the last cap they were given — fail-safe),
        // then wait for Enforced acks so the world never advances under
        // half-applied budgets. Without the ack barrier, stepping racing
        // a worker's farm write made round results nondeterministic.
        let mut awaiting = vec![false; n];
        let mut waiting = 0usize;
        for (w, slot) in awaiting.iter_mut().enumerate() {
            let msg = DownMsg::Budgets {
                round,
                budgets: cut_budgets.clone(),
            };
            if self.transport.send(w, msg) {
                *slot = true;
                waiting += 1;
            }
        }
        let ack_deadline = Instant::now() + self.config.gather_timeout;
        while waiting > 0 {
            if Instant::now() >= ack_deadline {
                break;
            }
            let Some(msg) = self.transport.recv_deadline(ack_deadline) else {
                break;
            };
            match msg {
                UpMsg::Enforced { worker, round: r }
                    if r == round && worker < n && awaiting[worker] =>
                {
                    awaiting[worker] = false;
                    waiting -= 1;
                }
                UpMsg::Metrics {
                    worker,
                    round: r,
                    metrics,
                } if worker < n => {
                    self.note_metrics(worker, r, metrics);
                }
                _ => {}
            }
        }

        RoundOutcome {
            round,
            cut_budgets,
            failsafe_cuts,
        }
    }

    /// Caches a worker's reported metrics and resets its respawn ladder.
    fn note_metrics(
        &mut self,
        worker: usize,
        round: u64,
        metrics: Vec<(CutId, PriorityMetrics)>,
    ) {
        self.respawn_attempts[worker] = 0;
        for (cut, m) in metrics {
            self.last_cut_metrics.insert(cut, m);
            self.last_report_round.insert(cut, round);
        }
    }

    /// Counts dead → alive transitions the transport performed on its own
    /// (socket agents reconnecting outbound) as respawns, so the
    /// `capmaestro_worker_respawns_total` counter means the same thing on
    /// every transport. [`WorkerDeployment::respawn_worker`] marks the
    /// worker alive itself, so transport-driven respawns are not counted
    /// twice.
    fn note_reconnects(&mut self) {
        for w in 0..self.transport.worker_count() {
            let alive = self.transport.is_alive(w);
            if alive && !self.was_alive[w] {
                self.config
                    .recorder
                    .counter_add(names::WORKER_RESPAWNS_TOTAL, 1);
            }
            self.was_alive[w] = alive;
        }
    }

    /// The metrics the room worker will trust per cut node at `round`:
    /// the freshest report while within `stale_after_rounds`, fail-safe
    /// metrics (every leaf pinned to its `cap_min` demand, from the
    /// spawn-time [`LeafStatic`] table) beyond — a dead worker's frozen
    /// report is indistinguishable from a stuck sensor, so after the
    /// bridge the room stops believing it. Returns the effective metrics
    /// and the sorted list of fail-safe cuts.
    fn effective_cut_metrics(
        &self,
        round: u64,
    ) -> (HashMap<CutId, PriorityMetrics>, Vec<CutId>) {
        let mut out = HashMap::new();
        let mut failsafe: Vec<CutId> = Vec::new();
        for assignment in &self.assignments {
            for (cut, _) in &assignment.cuts {
                let fresh_enough = self.last_report_round.get(cut).is_some_and(|&r| {
                    round.saturating_sub(r) < u64::from(self.config.stale_after_rounds)
                });
                if fresh_enough {
                    if let Some(m) = self.last_cut_metrics.get(cut) {
                        out.insert(*cut, m.clone());
                        continue;
                    }
                }
                failsafe.push(*cut);
                out.insert(
                    *cut,
                    self.failsafe_metrics
                        .get(cut)
                        .cloned()
                        .unwrap_or_else(PriorityMetrics::empty),
                );
            }
        }
        failsafe.sort_unstable();
        if self.config.recorder.enabled() {
            self.config
                .recorder
                .gauge_set(names::WORKER_FAILSAFE_CUTS, failsafe.len() as f64);
        }
        (out, failsafe)
    }

    /// Whether a worker is currently reachable over the transport.
    pub fn is_worker_alive(&self, worker: usize) -> bool {
        self.transport.is_alive(worker)
    }

    /// Restarts a dead rack worker with the assignment it held. Returns
    /// `false` without side effects when the worker is still alive, the
    /// index is out of range, or the exponential backoff since the last
    /// attempt has not elapsed yet (`respawn_backoff × 2^attempts`,
    /// attempts capped at 6 and reset when the worker reports).
    ///
    /// The respawned worker starts with empty estimators and controllers —
    /// exactly like a replacement VM — so its demand estimates rebuild
    /// from the first gather after the respawn. On transports where
    /// recovery is worker-driven (socket agents reconnect outbound), this
    /// only reports whether the worker is back.
    pub fn respawn_worker(&mut self, worker: usize) -> bool {
        if worker >= self.worker_count() || self.is_worker_alive(worker) {
            return false;
        }
        let now = Instant::now();
        if now < self.respawn_not_before[worker] {
            return false;
        }
        let attempts = self.respawn_attempts[worker];
        let backoff = self.config.respawn_backoff * 2u32.saturating_pow(attempts.min(6));
        self.respawn_not_before[worker] = now + backoff;
        self.respawn_attempts[worker] = attempts.saturating_add(1);

        if !self.transport.respawn(worker) {
            return false;
        }
        self.was_alive[worker] = true;
        self.config
            .recorder
            .counter_add(names::WORKER_RESPAWNS_TOTAL, 1);
        true
    }

    /// Shuts one rack worker down (for fault-injection tests and rolling
    /// maintenance). Subsequent rounds hold its last metrics.
    pub fn kill_worker(&mut self, worker: usize) {
        self.transport.kill(worker);
        if let Some(flag) = self.was_alive.get_mut(worker) {
            *flag = false;
        }
    }

    /// Advances the simulated world `seconds` seconds through the
    /// transport (stepping the shared farm in-process; asking the agents
    /// to step their owned servers over sockets). Returns `false` if a
    /// live worker failed to confirm within the advance timeout.
    pub fn advance(&mut self, seconds: u32) -> bool {
        let deadline = Instant::now() + self.config.advance_timeout;
        self.transport.advance(seconds, deadline)
    }

    /// Runs `rounds` control periods, advancing the world
    /// `seconds_per_round` simulated seconds between rounds (the physical
    /// world keeps moving while controllers deliberate).
    pub fn run_rounds(&mut self, rounds: u64, seconds_per_round: u32) {
        for round in 0..rounds {
            self.run_round(round);
            self.advance(seconds_per_round);
        }
    }

    /// Shuts the workers down and releases the transport.
    pub fn shutdown(mut self) {
        self.transport.shutdown();
    }
}

/// Precomputes each cut's fail-safe metrics (every leaf demanding only
/// its `cap_min`) from the spawn-time statics table. Computed once: the
/// fail-safe summary depends only on statics and policy visibility, so
/// recomputing it per round bought nothing and required farm access the
/// socket controller does not have.
fn build_failsafe_metrics(
    trees: &[ControlTree],
    assignments: &[RackAssignment],
    statics: &HashMap<(CutId, usize), LeafStatic>,
    policy: PolicyKind,
) -> HashMap<CutId, PriorityMetrics> {
    let policy = policy.policy();
    let mut out = HashMap::new();
    for assignment in assignments {
        for (cut, leaves) in &assignment.cuts {
            let (t, cut_idx) = *cut;
            let spec = trees[t].spec();
            let mut children = Vec::with_capacity(leaves.len());
            for &(leaf_idx, _, _) in leaves {
                let Some(s) = statics.get(&(*cut, leaf_idx)) else {
                    continue;
                };
                children.push(PriorityMetrics::from_leaf(&LeafInput {
                    demand: s.cap_min,
                    cap_min: s.cap_min,
                    cap_max: s.cap_max,
                    share: s.share,
                    priority: s.priority,
                }));
            }
            let ctx = NodeContext {
                is_leaf_parent: true,
                depth: 0,
            };
            let children = match policy.visibility(ctx) {
                PriorityVisibility::Full => children,
                PriorityVisibility::Blind => {
                    children.iter().map(PriorityMetrics::collapsed).collect()
                }
            };
            out.insert(
                *cut,
                PriorityMetrics::aggregate(children.iter(), spec.node(cut_idx).limit),
            );
        }
    }
    out
}

/// Room-side allocation over the upper part of one tree: every node except
/// strict descendants of cut nodes, with cut nodes as pseudo-leaves.
/// Returns `(cut node, budget)` pairs.
fn room_allocate_upper(
    tree: &ControlTree,
    cuts: &[usize],
    mut metrics_of_cut: impl FnMut(usize) -> PriorityMetrics,
    root_budget: Watts,
    policy: &dyn CappingPolicy,
) -> Vec<(usize, Watts)> {
    let spec = tree.spec();
    let n = spec.len();
    let is_cut: Vec<bool> = {
        let mut v = vec![false; n];
        for &c in cuts {
            v[c] = true;
        }
        v
    };
    // A node is "upper" if no proper ancestor is a cut node.
    let mut upper = vec![false; n];
    for idx in 0..n {
        match spec.node(idx).parent {
            None => upper[idx] = true,
            Some(p) => upper[idx] = upper[p] && !is_cut[p],
        }
    }

    // Gather metrics bottom-up over upper nodes.
    let mut metrics: Vec<Option<PriorityMetrics>> = vec![None; n];
    let mut depths = vec![0usize; n];
    for idx in 0..n {
        if let Some(p) = spec.node(idx).parent {
            depths[idx] = depths[p] + 1;
        }
    }
    for idx in (0..n).rev() {
        if !upper[idx] {
            continue;
        }
        if is_cut[idx] {
            metrics[idx] = Some(metrics_of_cut(idx));
            continue;
        }
        if spec.node(idx).is_leaf() {
            // A leaf directly under the upper tree (no CDU level): treat
            // it as its own cut with empty metrics — deployments should
            // avoid this, but stay total.
            metrics[idx] = Some(PriorityMetrics::empty());
            continue;
        }
        let ctx = NodeContext {
            is_leaf_parent: false,
            depth: depths[idx],
        };
        let visibility = policy.visibility(ctx);
        let children: Vec<PriorityMetrics> = spec
            .node(idx)
            .children
            .iter()
            .map(|&c| {
                let m = metrics[c].clone().expect("children computed first");
                match visibility {
                    PriorityVisibility::Full => m,
                    PriorityVisibility::Blind => m.collapsed(),
                }
            })
            .collect();
        metrics[idx] = Some(PriorityMetrics::aggregate(
            children.iter(),
            spec.node(idx).limit,
        ));
    }

    // Budget top-down to the cut nodes.
    let mut budgets = vec![Watts::ZERO; n];
    let root = spec.root();
    let root_limit = spec.node(root).limit.unwrap_or(root_budget);
    budgets[root] = root_budget.min(root_limit);
    let mut out = Vec::with_capacity(cuts.len());
    for idx in 0..n {
        if !upper[idx] {
            continue;
        }
        if is_cut[idx] {
            out.push((idx, budgets[idx]));
            continue;
        }
        let node = spec.node(idx);
        if node.children.is_empty() {
            continue;
        }
        let ctx = NodeContext {
            is_leaf_parent: false,
            depth: depths[idx],
        };
        let visibility = policy.visibility(ctx);
        let children_metrics: Vec<PriorityMetrics> = node
            .children
            .iter()
            .map(|&c| {
                let m = metrics[c].clone().expect("computed");
                match visibility {
                    PriorityVisibility::Full => m,
                    PriorityVisibility::Blind => m.collapsed(),
                }
            })
            .collect();
        let split = split_budget(budgets[idx], &children_metrics);
        for (&child, b) in node.children.iter().zip(&split.budgets) {
            budgets[child] = *b;
        }
    }
    out
}

/// The rack-side controller state and math, shared verbatim by the
/// in-process worker threads and the out-of-process agent binary — the
/// transports can only differ in *when* messages arrive, never in what a
/// gather or an enforcement computes.
pub struct RackWorker {
    /// The cuts and leaves this worker answers for.
    assignment: RackAssignment,
    /// The control trees (for specs and node limits).
    trees: Vec<ControlTree>,
    /// The capping policy (visibility decisions).
    policy: Box<dyn CappingPolicy + Send + Sync>,
    /// Per-server demand estimators, built up over gathers.
    estimators: HashMap<ServerId, DemandEstimator>,
    /// Per-server capping controllers, built on first enforcement.
    controllers: HashMap<ServerId, CappingController>,
    /// Leaf metrics computed during gather, reused at budget time.
    leaf_metrics: HashMap<(CutId, usize), PriorityMetrics>,
    /// Budgets accumulated per server across this worker's cut nodes.
    round_budgets: HashMap<ServerId, Vec<(SupplyIndex, Watts)>>,
    /// Reusable budget-split scratch: the worker is long-lived, so the
    /// per-cut split borrows this instead of allocating every round.
    split_scratch: SplitScratch,
    /// Reusable budget-split output buffer.
    split_budgets: Vec<Watts>,
}

impl fmt::Debug for RackWorker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RackWorker")
            .field("cuts", &self.assignment.cuts.len())
            .field("owned", &self.assignment.owned.len())
            .field("estimators", &self.estimators.len())
            .field("controllers", &self.controllers.len())
            .finish_non_exhaustive()
    }
}

impl RackWorker {
    /// Builds the rack-side state for one assignment. Estimators and
    /// controllers start empty — exactly like a fresh VM — and rebuild
    /// from the first gather.
    pub fn new(assignment: RackAssignment, trees: Vec<ControlTree>, policy: PolicyKind) -> Self {
        RackWorker {
            assignment,
            trees,
            policy: policy.policy(),
            estimators: HashMap::new(),
            controllers: HashMap::new(),
            leaf_metrics: HashMap::new(),
            round_budgets: HashMap::new(),
            split_scratch: SplitScratch::default(),
            split_budgets: Vec::new(),
        }
    }

    /// The worker's assignment.
    pub fn assignment(&self) -> &RackAssignment {
        &self.assignment
    }

    /// Senses this worker's servers, feeds the demand estimators, and
    /// summarizes each owned cut's metrics (paper §4.3.1, level-1 + first
    /// aggregation).
    pub fn gather(&mut self, farm: &crate::plane::Farm) -> Vec<(CutId, PriorityMetrics)> {
        self.leaf_metrics.clear();
        self.round_budgets.clear();
        let mut out = Vec::with_capacity(self.assignment.cuts.len());
        for (cut, leaves) in &self.assignment.cuts {
            let (t, cut_idx) = *cut;
            let spec = self.trees[t].spec();
            let mut children = Vec::with_capacity(leaves.len());
            for &(leaf_idx, server, _) in leaves {
                let leaf = spec.node(leaf_idx).leaf.expect("leaf");
                let Some(srv) = farm.get(server) else {
                    continue;
                };
                let snap = srv.sense();
                let est = self.estimators.entry(server).or_default();
                est.push(snap.throttle, snap.total_ac);
                let model = srv.config().model();
                let demand = est
                    .estimate_with_idle(model.idle())
                    .unwrap_or(snap.total_ac)
                    .clamp(model.idle(), model.cap_max());
                let shares = srv.bank().effective_shares();
                let share = shares
                    .get(leaf.supply.index())
                    .copied()
                    .unwrap_or(Ratio::ZERO);
                let m = PriorityMetrics::from_leaf(&LeafInput {
                    demand: demand.max(model.cap_min()),
                    cap_min: model.cap_min(),
                    cap_max: model.cap_max(),
                    share,
                    priority: leaf.priority,
                });
                self.leaf_metrics.insert((*cut, leaf_idx), m.clone());
                children.push(m);
            }
            let ctx = NodeContext {
                is_leaf_parent: true,
                depth: 0,
            };
            let children = match self.policy.visibility(ctx) {
                PriorityVisibility::Full => children,
                PriorityVisibility::Blind => {
                    children.iter().map(PriorityMetrics::collapsed).collect()
                }
            };
            let aggregated =
                PriorityMetrics::aggregate(children.iter(), spec.node(cut_idx).limit);
            out.push((*cut, aggregated));
        }
        out
    }

    /// Splits the room's cut budgets down to leaves (using the metrics
    /// cached by the preceding [`RackWorker::gather`]) and drives the
    /// capping controllers onto the farm.
    pub fn enforce(&mut self, farm: &mut crate::plane::Farm, budgets: &[(CutId, Watts)]) {
        // Split each of our cut budgets to leaves.
        for (cut, leaves) in &self.assignment.cuts {
            let Some(&(_, budget)) = budgets.iter().find(|(c, _)| c == cut) else {
                continue;
            };
            let children_metrics: Vec<PriorityMetrics> = leaves
                .iter()
                .map(|&(leaf_idx, _, _)| {
                    self.leaf_metrics
                        .get(&(*cut, leaf_idx))
                        .cloned()
                        .unwrap_or_else(PriorityMetrics::empty)
                })
                .collect();
            let ctx = NodeContext {
                is_leaf_parent: true,
                depth: 0,
            };
            let children_metrics: Vec<PriorityMetrics> = match self.policy.visibility(ctx) {
                PriorityVisibility::Full => children_metrics,
                PriorityVisibility::Blind => children_metrics
                    .iter()
                    .map(PriorityMetrics::collapsed)
                    .collect(),
            };
            split_budget_into(
                budget,
                &children_metrics,
                &mut self.split_scratch,
                &mut self.split_budgets,
            );
            for (&(_, server, supply), b) in leaves.iter().zip(&self.split_budgets) {
                self.round_budgets
                    .entry(server)
                    .or_default()
                    .push((supply, *b));
            }
        }
        // Enforce caps on our servers.
        for (&server, supply_budgets) in &self.round_budgets {
            let Some(mut srv) = farm.get_mut(server) else {
                continue;
            };
            let snap = srv.sense();
            let covered = supply_budgets
                .iter()
                .filter(|&&(supply, _)| {
                    srv.bank().effective_share(supply.index()).as_f64() > 0.0
                })
                .count();
            if covered == 0 {
                continue;
            }
            let model = srv.config().model();
            let controller = self.controllers.entry(server).or_insert_with(|| {
                CappingController::new(
                    model.cap_min(),
                    model.cap_max(),
                    srv.bank().efficiency(),
                )
            });
            let cap = controller.update_pairs(supply_budgets.iter().filter_map(
                |&(supply, b)| {
                    let idx = supply.index();
                    if srv.bank().effective_share(idx).as_f64() > 0.0 {
                        Some((b, snap.supply_ac[idx]))
                    } else {
                        None
                    }
                },
            ));
            srv.set_dc_cap(cap);
        }
    }
}

/// The channel-transport rack worker body: wraps a [`RackWorker`] around
/// the shared farm and the crossbeam message loop.
fn rack_worker_loop(
    worker: usize,
    assignment: RackAssignment,
    trees: Vec<ControlTree>,
    policy: PolicyKind,
    farm: SharedFarm,
    up: Sender<UpMsg>,
    down: Receiver<DownMsg>,
) {
    let mut rack = RackWorker::new(assignment, trees, policy);
    while let Ok(msg) = down.recv() {
        // The room side being gone is a normal shutdown order, not a
        // rack-worker bug: exit the loop instead of panicking (and
        // aborting the whole process in release builds).
        match msg {
            DownMsg::Gather { round } => {
                let metrics = {
                    let farm = farm.read();
                    rack.gather(&farm)
                };
                if up
                    .send(UpMsg::Metrics {
                        worker,
                        round,
                        metrics,
                    })
                    .is_err()
                {
                    break;
                }
            }
            DownMsg::Budgets { round, budgets } => {
                {
                    let mut farm = farm.write();
                    rack.enforce(&mut farm, &budgets);
                }
                if up.send(UpMsg::Enforced { worker, round }).is_err() {
                    break;
                }
            }
            // The room steps the shared farm itself in-process; these are
            // socket-protocol messages a channel worker never needs.
            DownMsg::Advance { .. } | DownMsg::Welcome { .. } | DownMsg::HeartbeatAck { .. } => {}
            DownMsg::Shutdown => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plane::Farm;
    use capmaestro_server::{Server, ServerConfig};
    use capmaestro_topology::presets::figure2_feed;

    fn fig2_shared_farm() -> (capmaestro_topology::Topology, SharedFarm, Vec<ControlTree>) {
        let topo = figure2_feed();
        let trees: Vec<ControlTree> = topo
            .control_tree_specs()
            .into_iter()
            .map(ControlTree::new)
            .collect();
        let mut farm = Farm::new();
        for (id, _) in topo.servers() {
            let mut server = Server::new(ServerConfig::paper_default().single_corded());
            server.set_offered_demand(Watts::new(420.0));
            server.settle();
            farm.insert(id, server);
        }
        (topo, Arc::new(RwLock::new(farm)), trees)
    }

    #[test]
    fn cut_nodes_are_leaf_parents() {
        let (_, _, trees) = fig2_shared_farm();
        let cuts = cut_nodes(&trees[0]);
        // Fig. 2: left and right CBs.
        assert_eq!(cuts.len(), 2);
        for cut in cuts {
            let node = trees[0].spec().node(cut);
            assert!(node
                .children
                .iter()
                .all(|&c| trees[0].spec().node(c).is_leaf()));
        }
    }

    #[test]
    fn assignments_partition_server_ownership() {
        let (topo, _, trees) = fig2_shared_farm();
        let assignments = rack_assignments(&trees, 2);
        assert!(assignments_server_disjoint(&assignments));
        // Every server is owned exactly once across workers.
        let mut owned: Vec<ServerId> = assignments
            .iter()
            .flat_map(|a| a.owned.iter().copied())
            .collect();
        owned.sort_unstable();
        let mut all: Vec<ServerId> = topo.servers().map(|(id, _)| id).collect();
        all.sort_unstable();
        assert_eq!(owned, all);
        // Both sides computing assignments independently must agree.
        assert_eq!(assignments, rack_assignments(&trees, 2));
    }

    #[test]
    fn distributed_rounds_protect_high_priority() {
        let (topo, farm, trees) = fig2_shared_farm();
        let mut deployment = WorkerDeployment::spawn(
            trees,
            vec![Watts::new(1240.0)],
            PolicyKind::GlobalPriority,
            Arc::clone(&farm),
            2,
            DeploymentConfig::default(),
        );
        deployment.run_rounds(10, 8);
        deployment.shutdown();

        let farm = farm.read();
        let sa = topo.server_by_name("SA").unwrap();
        let sb = topo.server_by_name("SB").unwrap();
        assert!(
            farm.get(sa).unwrap().performance_fraction().as_f64() > 0.95,
            "SA perf {}",
            farm.get(sa).unwrap().performance_fraction()
        );
        assert!(farm.get(sb).unwrap().sense().total_ac < Watts::new(310.0));
        let total: Watts = farm.iter().map(|(_, s)| s.sense().total_ac).sum();
        assert!(total <= Watts::new(1240.0) * 1.02, "total {total}");
    }

    #[test]
    fn distributed_matches_synchronous_budgets() {
        // The same scenario through the threaded deployment and the
        // synchronous plane (SPO off) must produce the same cut budgets.
        let (topo, farm, trees) = fig2_shared_farm();

        // Synchronous reference.
        let mut sync_farm = Farm::new();
        for (id, _) in topo.servers() {
            let mut server = Server::new(ServerConfig::paper_default().single_corded());
            server.set_offered_demand(Watts::new(420.0));
            server.settle();
            sync_farm.insert(id, server);
        }
        let mut plane = crate::plane::ControlPlane::new(
            trees.clone(),
            vec![Watts::new(1240.0)],
            crate::plane::PlaneConfig::default()
                .with_policy(PolicyKind::GlobalPriority)
                .with_spo(false)
                .with_control_period(Seconds::new(8.0)),
        );
        plane.record_sample(&sync_farm);
        let report = plane.round(&mut sync_farm).clone();

        let mut deployment = WorkerDeployment::spawn(
            trees.clone(),
            vec![Watts::new(1240.0)],
            PolicyKind::GlobalPriority,
            Arc::clone(&farm),
            2,
            DeploymentConfig::default(),
        );
        let outcome = deployment.run_round(0);
        deployment.shutdown();

        assert!(outcome.failsafe_cuts.is_empty());
        // Compare the budgets at each cut node (left/right CB).
        for ((t, cut), budget) in outcome.cut_budgets {
            assert_eq!(t, 0);
            let reference = report.allocations[0].node_budget(cut);
            assert!(
                budget.approx_eq(reference, Watts::new(1e-6)),
                "cut {cut}: distributed {budget} vs sync {reference}"
            );
        }
    }

    #[test]
    fn round_outcome_is_sorted_and_queryable() {
        let (_, farm, trees) = fig2_shared_farm();
        let mut deployment = WorkerDeployment::spawn(
            trees,
            vec![Watts::new(1240.0)],
            PolicyKind::GlobalPriority,
            Arc::clone(&farm),
            2,
            DeploymentConfig::default(),
        );
        let outcome = deployment.run_round(0);
        deployment.shutdown();
        let mut sorted = outcome.cut_budgets.clone();
        sorted.sort_unstable_by_key(|&(c, _)| c);
        assert_eq!(outcome.cut_budgets, sorted);
        for &(cut, b) in &outcome.cut_budgets {
            assert_eq!(outcome.budget(cut), Some(b));
        }
        assert_eq!(outcome.budget((99, 99)), None);
        // The wire line embeds exact bit patterns.
        let line = outcome.wire_line();
        for &(_, b) in &outcome.cut_budgets {
            assert!(line.contains(&format!("{:016x}", b.as_f64().to_bits())));
        }
    }

    #[test]
    fn enforcement_is_visible_when_run_round_returns() {
        // The Enforced-ack barrier: caps computed by a round must already
        // be applied to the farm when run_round returns, so advancing the
        // world never races enforcement (the determinism bug the socket
        // transport would have amplified).
        let (_, farm, trees) = fig2_shared_farm();
        let mut deployment = WorkerDeployment::spawn(
            trees,
            vec![Watts::new(1240.0)],
            PolicyKind::GlobalPriority,
            Arc::clone(&farm),
            2,
            DeploymentConfig::default(),
        );
        deployment.run_round(0);
        {
            let farm = farm.read();
            for (_, srv) in farm.iter() {
                assert!(
                    srv.dc_cap().is_some(),
                    "caps must be enforced before run_round returns"
                );
            }
        }
        deployment.shutdown();
    }

    #[test]
    fn dead_worker_does_not_stall_the_room() {
        let (_, farm, trees) = fig2_shared_farm();
        let mut deployment = WorkerDeployment::spawn(
            trees,
            vec![Watts::new(1240.0)],
            PolicyKind::GlobalPriority,
            Arc::clone(&farm),
            2,
            DeploymentConfig::default(),
        );
        // A healthy first round caches every cut's metrics.
        let healthy = deployment.run_round(0);
        assert_eq!(healthy.cut_budgets.len(), 2);

        // Kill one rack worker; the next round must still produce budgets
        // for ALL cut nodes, from the stale cache, without hanging.
        deployment.kill_worker(0);
        let degraded = deployment.run_round(1);
        assert_eq!(
            degraded.cut_budgets.len(),
            2,
            "stale-hold must cover the dead worker's cuts"
        );
        for &(cut, budget) in &healthy.cut_budgets {
            let after = degraded.budget(cut).unwrap();
            assert!(
                after.approx_eq(budget, Watts::new(1.0)),
                "cut {cut:?} budget changed {budget} -> {after} with frozen metrics"
            );
        }
        deployment.shutdown();
    }

    #[test]
    fn killed_worker_rounds_skip_the_gather_timeout() {
        // Regression: kill_worker used to leave the dead worker's Sender in
        // place, so `send(Gather)` kept succeeding and every subsequent
        // round blocked for the full gather timeout waiting on a reply the
        // dead worker could never produce.
        let (_, farm, trees) = fig2_shared_farm();
        let mut deployment = WorkerDeployment::spawn(
            trees,
            vec![Watts::new(1240.0)],
            PolicyKind::GlobalPriority,
            Arc::clone(&farm),
            2,
            DeploymentConfig::default(),
        );
        deployment.run_round(0);
        deployment.kill_worker(0);
        let start = std::time::Instant::now();
        let degraded = deployment.run_round(1);
        let elapsed = start.elapsed();
        assert_eq!(degraded.cut_budgets.len(), 2);
        // The surviving worker answers in microseconds; leave generous CI
        // slack while staying far below the 500 ms stale-hold timeout.
        assert!(
            elapsed < deployment.config().gather_timeout / 2,
            "degraded round took {elapsed:?}; dead worker still counted as expected"
        );
        deployment.shutdown();
    }

    #[test]
    fn worker_count_respected() {
        let (_, farm, trees) = fig2_shared_farm();
        let deployment = WorkerDeployment::spawn(
            trees,
            vec![Watts::new(1240.0)],
            PolicyKind::NoPriority,
            farm,
            3,
            DeploymentConfig::default(),
        );
        assert_eq!(deployment.worker_count(), 3);
        deployment.shutdown();
    }

    #[test]
    #[should_panic(expected = "at least one rack worker")]
    fn zero_workers_panics() {
        let (_, farm, trees) = fig2_shared_farm();
        let _ = WorkerDeployment::spawn(
            trees,
            vec![Watts::new(1240.0)],
            PolicyKind::NoPriority,
            farm,
            0,
            DeploymentConfig::default(),
        );
    }

    #[test]
    #[should_panic(expected = "stale_after_rounds must be at least 1")]
    fn zero_stale_after_rounds_panics() {
        let (_, farm, trees) = fig2_shared_farm();
        let _ = WorkerDeployment::spawn(
            trees,
            vec![Watts::new(1240.0)],
            PolicyKind::NoPriority,
            farm,
            1,
            DeploymentConfig::default().with_stale_after_rounds(0),
        );
    }

    /// Steps the shared farm `seconds` simulated seconds.
    fn step_farm(farm: &SharedFarm, seconds: u32) {
        let mut farm = farm.write();
        for _ in 0..seconds {
            farm.step_all(Seconds::new(1.0));
        }
    }

    /// The combined stuck-sensor + dead-worker acceptance scenario: a dead
    /// worker's frozen metrics ARE a stuck sensor from the room's point of
    /// view. The affected cut must be stale-held first, clamped to
    /// fail-safe (Σ cap_min) after `stale_after_rounds`, and rejoin normal
    /// budgeting within 2 rounds of `respawn_worker`.
    #[test]
    fn stuck_metrics_degrade_to_fail_safe_and_recover_on_respawn() {
        let (_, farm, trees) = fig2_shared_farm();
        let config = DeploymentConfig {
            respawn_backoff: Duration::from_millis(1),
            ..DeploymentConfig::default()
        };
        let mut deployment = WorkerDeployment::spawn(
            trees,
            vec![Watts::new(1240.0)],
            PolicyKind::GlobalPriority,
            Arc::clone(&farm),
            2,
            config,
        );
        // Healthy rounds: estimators converge, budgets settle.
        let mut round = 0u64;
        let mut healthy = None;
        for _ in 0..6 {
            healthy = Some(deployment.run_round(round));
            step_farm(&farm, 8);
            round += 1;
        }
        let healthy = healthy.expect("six healthy rounds ran");
        assert!(healthy.failsafe_cuts.is_empty());
        // Worker 0 dies. Its servers' demand changes underneath it, so the
        // frozen metrics are provably wrong — exactly a stuck sensor.
        deployment.kill_worker(0);
        let dead_cut: CutId = deployment.assignments[0].cuts[0].0;
        let dead_servers: Vec<ServerId> = deployment.assignments[0]
            .cuts
            .iter()
            .flat_map(|(_, leaves)| leaves.iter().map(|&(_, s, _)| s))
            .collect();
        {
            let mut farm = farm.write();
            for &s in &dead_servers {
                farm.get_mut(s).unwrap().set_offered_demand(Watts::new(480.0));
            }
        }

        // Stale-hold bridge: budgets stay at the frozen (healthy) values.
        for _ in 0..deployment.config().stale_after_rounds - 1 {
            let held = deployment.run_round(round);
            step_farm(&farm, 8);
            round += 1;
            assert!(
                held.budget(dead_cut)
                    .unwrap()
                    .approx_eq(healthy.budget(dead_cut).unwrap(), Watts::new(1.0)),
                "stale-hold should freeze the dead cut's budget"
            );
            assert!(
                !held.failsafe_cuts.contains(&dead_cut),
                "stale-hold rounds must not report the cut as fail-safe"
            );
        }

        // Past the threshold: the cut is budgeted from fail-safe metrics —
        // each leaf demands only cap_min (270 W), so the cut's budget
        // collapses to ~Σ cap_min of its leaves.
        let degraded = deployment.run_round(round);
        step_farm(&farm, 8);
        round += 1;
        assert!(
            degraded.failsafe_cuts.contains(&dead_cut),
            "the degraded round must report the dead cut as fail-safe"
        );
        let cap_min_sum: Watts = {
            let farm = farm.read();
            dead_servers
                .iter()
                .map(|&s| farm.get(s).unwrap().config().model().cap_min())
                .sum()
        };
        let fail_safe_budget = degraded.budget(dead_cut).unwrap();
        assert!(
            fail_safe_budget <= cap_min_sum + Watts::new(1.0),
            "fail-safe budget {fail_safe_budget} should collapse to ≤ Σ cap_min {cap_min_sum}"
        );
        assert!(
            fail_safe_budget < healthy.budget(dead_cut).unwrap() - Watts::new(50.0),
            "fail-safe budget should be well below the healthy {}",
            healthy.budget(dead_cut).unwrap()
        );

        // Respawn: the replacement worker reports real metrics (demand is
        // back at 420 W) and the cut rejoins normal budgeting within 2
        // rounds.
        {
            let mut farm = farm.write();
            for &s in &dead_servers {
                farm.get_mut(s).unwrap().set_offered_demand(Watts::new(420.0));
            }
        }
        assert!(deployment.respawn_worker(0), "respawn should succeed");
        assert!(deployment.is_worker_alive(0));
        let mut recovered = None;
        for _ in 0..2 {
            recovered = Some(deployment.run_round(round));
            step_farm(&farm, 8);
            round += 1;
        }
        let recovered = recovered.expect("two recovery rounds ran");
        assert!(
            recovered
                .budget(dead_cut)
                .unwrap()
                .approx_eq(healthy.budget(dead_cut).unwrap(), Watts::new(10.0)),
            "cut budget should recover to ~{} within 2 rounds, got {}",
            healthy.budget(dead_cut).unwrap(),
            recovered.budget(dead_cut).unwrap()
        );
        assert!(
            !recovered.failsafe_cuts.contains(&dead_cut),
            "a recovered cut must leave the fail-safe set"
        );
        deployment.shutdown();
    }

    #[test]
    fn respawn_respects_backoff_and_aliveness() {
        let (_, farm, trees) = fig2_shared_farm();
        let mut deployment = WorkerDeployment::spawn(
            trees,
            vec![Watts::new(1240.0)],
            PolicyKind::GlobalPriority,
            Arc::clone(&farm),
            2,
            DeploymentConfig {
                respawn_backoff: Duration::from_secs(3600),
                ..DeploymentConfig::default()
            },
        );
        // Alive workers cannot be respawned; out-of-range is rejected.
        assert!(!deployment.respawn_worker(0));
        assert!(!deployment.respawn_worker(99));
        deployment.kill_worker(0);
        assert!(!deployment.is_worker_alive(0));
        // First attempt goes through immediately…
        assert!(deployment.respawn_worker(0));
        deployment.kill_worker(0);
        // …the second is throttled by the (here: huge) backoff.
        assert!(
            !deployment.respawn_worker(0),
            "second respawn must wait out the backoff"
        );
        deployment.shutdown();
    }

    #[test]
    fn never_reported_cut_is_budgeted_fail_safe_not_empty() {
        let (_, farm, trees) = fig2_shared_farm();
        let mut deployment = WorkerDeployment::spawn(
            trees,
            vec![Watts::new(1240.0)],
            PolicyKind::GlobalPriority,
            Arc::clone(&farm),
            2,
            DeploymentConfig::default(),
        );
        // Kill worker 0 before any round: its cuts never report.
        deployment.kill_worker(0);
        let outcome = deployment.run_round(0);
        assert_eq!(outcome.cut_budgets.len(), 2);
        let dead_cut: CutId = deployment.assignments[0].cuts[0].0;
        assert!(outcome.failsafe_cuts.contains(&dead_cut));
        // Fail-safe, not zero: the blind cut still gets ≥ its cap_min sum
        // … well, ≥ something clearly non-zero.
        assert!(
            outcome.budget(dead_cut).unwrap() > Watts::new(100.0),
            "never-reported cut should receive a fail-safe budget, got {}",
            outcome.budget(dead_cut).unwrap()
        );
        deployment.shutdown();
    }

    #[test]
    fn set_root_budgets_applies_next_round() {
        let (_, farm, trees) = fig2_shared_farm();
        let mut deployment = WorkerDeployment::spawn(
            trees,
            vec![Watts::new(1240.0)],
            PolicyKind::GlobalPriority,
            Arc::clone(&farm),
            2,
            DeploymentConfig::default(),
        );
        let wide = deployment.run_round(0);
        deployment.set_root_budgets(vec![Watts::new(1100.0)]);
        let narrow = deployment.run_round(1);
        let wide_total: f64 = wide.cut_budgets.iter().map(|(_, b)| b.as_f64()).sum();
        let narrow_total: f64 = narrow.cut_budgets.iter().map(|(_, b)| b.as_f64()).sum();
        assert!(
            narrow_total < wide_total,
            "tighter root budget must shrink cut budgets ({narrow_total} vs {wide_total})"
        );
        deployment.shutdown();
    }
}
