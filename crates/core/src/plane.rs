//! The CapMaestro control-plane service (paper §5).
//!
//! [`ControlPlane`] is the synchronous "integral service": every second it
//! records sensor samples ([`ControlPlane::record_sample`]), and every
//! control period (8 s in the paper) it runs one full round
//! ([`ControlPlane::round`]): estimate demands, gather metrics up every
//! control tree, allocate budgets down, optionally reclaim stranded power,
//! and command per-server DC caps through the capping controllers.
//!
//! The multi-threaded rack-/room-worker deployment of §5 lives in
//! [`crate::workers`]; it produces the same decisions, distributed.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use capmaestro_server::{
    SensorSnapshot, Server, ServerMut, ServerPowerModel, ServerRef, ServerSlab,
};
use capmaestro_topology::{FeedId, ServerId, SupplyIndex};
use capmaestro_units::{Seconds, Watts};

use crate::alloc::{Allocator, AllocatorKind};
use crate::capping::CappingController;
use crate::estimator::{DemandEstimator, SampleFate};
use crate::obs::{names, null_recorder, PhaseTimer, Recorder, RoundPhase};
use crate::par::{par_for_each_mut, par_map, par_map_mut, par_map_range};
use crate::policy::{CappingPolicy, PolicyKind};
use crate::spo::{optimize_stranded_power_in, optimize_stranded_power_par_with, SpoScratch};
use crate::tree::{Allocation, ControlTree, SupplyInput, TreeRoundState};

/// The population of servers under management, keyed by id.
///
/// Per-server state lives in a struct-of-arrays [`ServerSlab`] (sorted id
/// lane + state lanes), so the per-second hot path sweeps contiguous
/// memory instead of chasing a map of boxed servers. Accessors hand out
/// [`ServerRef`] / [`ServerMut`] views that mirror the old `&Server` /
/// `&mut Server` surface; iteration order is id order, as before.
///
/// The farm carries the thread-count knob for the per-second hot path:
/// [`Farm::set_parallelism`] shards [`Farm::step_all`] and the sensing
/// sweeps across scoped threads at 64-server bitmap-word boundaries, and
/// the control plane's estimate phase fans out the same way. Stepping is
/// **event-driven** by default: servers at the exact `f64` fixed point of
/// their settling filter are skipped (see [`ServerSlab`]), which is a
/// bitwise no-op by construction. Results are bit-identical for every
/// thread count and for event-driven on/off — servers are independent and
/// all outputs stay in id order.
#[derive(Debug)]
pub struct Farm {
    /// Sorted server ids; position i maps to slab slot i.
    ids: Vec<ServerId>,
    slab: ServerSlab,
    parallelism: usize,
}

impl Default for Farm {
    fn default() -> Self {
        Farm {
            ids: Vec::new(),
            slab: ServerSlab::new(),
            parallelism: 1,
        }
    }
}

impl Farm {
    /// Creates an empty farm.
    pub fn new() -> Self {
        Farm::default()
    }

    /// Sets how many threads the hot-path sweeps (stepping, sensing,
    /// demand estimation) may fan out across. Clamped to at least 1;
    /// 1 (the default) keeps everything on the calling thread.
    pub fn set_parallelism(&mut self, threads: usize) {
        self.parallelism = threads.max(1);
    }

    /// The configured hot-path thread count.
    pub fn parallelism(&self) -> usize {
        self.parallelism
    }

    /// Enables or disables event-driven stepping (on by default).
    /// Disabling forces every server to be stepped every tick — the
    /// sequential full-rebuild reference path the differential tests
    /// compare against. Trajectories are bitwise identical either way.
    pub fn set_event_driven(&mut self, enabled: bool) {
        self.slab.set_event_driven(enabled);
    }

    /// Whether event-driven stepping is enabled.
    pub fn event_driven(&self) -> bool {
        self.slab.event_driven()
    }

    /// Adds (or replaces) a server.
    pub fn insert(&mut self, id: ServerId, server: Server) {
        match self.ids.binary_search(&id) {
            Ok(pos) => self.slab.replace(pos, server),
            Err(pos) => {
                self.ids.insert(pos, id);
                self.slab.insert(pos, server);
            }
        }
    }

    /// Borrows a server.
    pub fn get(&self, id: ServerId) -> Option<ServerRef<'_>> {
        self.index_of(id).map(|i| self.slab.view(i))
    }

    /// Mutably borrows a server.
    pub fn get_mut(&mut self, id: ServerId) -> Option<ServerMut<'_>> {
        self.index_of(id).map(|i| self.slab.view_mut(i))
    }

    /// The slot index of a server id, if present (slots are id-ordered
    /// and stable until an insert of a new id).
    pub fn index_of(&self, id: ServerId) -> Option<usize> {
        self.ids.binary_search(&id).ok()
    }

    /// The managed server ids, sorted (slot i holds `ids()[i]`).
    pub fn ids(&self) -> &[ServerId] {
        &self.ids
    }

    /// Borrows the server in slot `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn server_at(&self, idx: usize) -> ServerRef<'_> {
        self.slab.view(idx)
    }

    /// Number of servers.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the farm is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Iterates `(id, server)` in id order.
    pub fn iter(&self) -> impl Iterator<Item = (ServerId, ServerRef<'_>)> + '_ {
        (0..self.ids.len()).map(move |i| (self.ids[i], self.slab.view(i)))
    }

    /// Visits every server mutably in id order as
    /// `(slot index, id, view)` — the replacement for the old `iter_mut`
    /// (mutable views borrow the whole slab, so they cannot be yielded by
    /// a `std` iterator).
    pub fn for_each_mut(&mut self, mut f: impl FnMut(usize, ServerId, ServerMut<'_>)) {
        for i in 0..self.ids.len() {
            f(i, self.ids[i], self.slab.view_mut(i));
        }
    }

    /// Advances every server by `dt`, event-driven (quiescent servers are
    /// skipped bit-exactly) and sharded across the configured thread
    /// count.
    pub fn step_all(&mut self, dt: Seconds) {
        self.slab.begin_step(dt);
        let threads = self.parallelism;
        if threads <= 1 {
            self.slab.full_shard().step(dt);
        } else {
            let mut shards = self.slab.shards_mut(threads);
            par_for_each_mut(&mut shards, threads, |shard| shard.step(dt));
        }
    }

    /// Reads every server's sensors, in id order, sharded across the
    /// configured thread count. Allocates the result vector; hot-path
    /// callers should prefer [`Farm::sense_into`].
    pub fn sense_all(&self) -> Vec<(ServerId, SensorSnapshot)> {
        let n = self.ids.len();
        if self.parallelism <= 1 {
            return self.iter().map(|(id, s)| (id, s.sense())).collect();
        }
        par_map_range(n, self.parallelism, |i| {
            (self.ids[i], self.slab.view(i).sense())
        })
    }

    /// Refreshes the slab's cached snapshots (only stale ones are
    /// recomputed) and syncs `buf` to them, reusing its allocations — the
    /// zero-steady-state-allocation replacement for [`Farm::sense_all`].
    pub fn sense_into(&mut self, buf: &mut SenseBuffer) {
        self.refresh_snaps();
        self.sync_buffer(buf);
    }

    /// Advances every server by `dt` and syncs `buf` to the refreshed
    /// snapshots in the same sweep — the fused per-second hot path of the
    /// simulation engine. Quiescent servers cost ~zero: no stepping
    /// arithmetic, no re-sensing, no buffer write.
    pub fn step_and_sense_into(&mut self, dt: Seconds, buf: &mut SenseBuffer) {
        self.slab.begin_step(dt);
        self.slab.begin_refresh();
        let threads = self.parallelism;
        if threads <= 1 {
            let mut shard = self.slab.full_shard();
            shard.step(dt);
            shard.refresh();
        } else {
            let mut shards = self.slab.shards_mut(threads);
            par_for_each_mut(&mut shards, threads, |shard| {
                shard.step(dt);
                shard.refresh();
            });
        }
        self.sync_buffer(buf);
    }

    /// Advances every server by `dt` and reads its sensors in the same
    /// sweep, returning snapshots in id order. Allocates the result
    /// vector; hot-path callers should prefer
    /// [`Farm::step_and_sense_into`].
    pub fn step_and_sense_all(&mut self, dt: Seconds) -> Vec<(ServerId, SensorSnapshot)> {
        let mut buf = SenseBuffer::new();
        self.step_and_sense_into(dt, &mut buf);
        buf.entries
    }

    /// Refreshes every stale cached snapshot, sharded.
    fn refresh_snaps(&mut self) {
        self.slab.begin_refresh();
        let threads = self.parallelism;
        if threads <= 1 {
            self.slab.full_shard().refresh();
        } else {
            let mut shards = self.slab.shards_mut(threads);
            par_for_each_mut(&mut shards, threads, |shard| shard.refresh());
        }
    }

    /// Syncs a [`SenseBuffer`] to the slab's (just-refreshed) snapshot
    /// cache: a full rebuild when the farm's slot layout changed since the
    /// buffer last synced, otherwise `clone_from` on exactly the entries
    /// whose snapshots changed — allocation-free in the steady state.
    fn sync_buffer(&self, buf: &mut SenseBuffer) {
        let n = self.ids.len();
        if buf.layout_gen != self.slab.layout_generation() {
            buf.entries.clear();
            buf.entries.extend(
                (0..n).map(|i| (self.ids[i], self.slab.snapshot(i).clone())),
            );
            buf.layout_gen = self.slab.layout_generation();
        } else {
            for i in 0..n {
                if self.slab.changed_since(i, buf.seen_gen) {
                    buf.entries[i].1.clone_from(self.slab.snapshot(i));
                }
            }
        }
        buf.seen_gen = self.slab.generation();
    }
}

/// A reusable sensing scratch buffer: `(id, snapshot)` entries in id
/// order, kept in sync with one [`Farm`] by [`Farm::sense_into`] /
/// [`Farm::step_and_sense_into`] with zero steady-state allocation.
///
/// A buffer belongs to the farm it was first synced against — syncing it
/// against a different farm is a logic error (the change-tracking
/// generations would not line up).
#[derive(Debug, Default)]
pub struct SenseBuffer {
    entries: Vec<(ServerId, SensorSnapshot)>,
    /// Highest slab refresh generation this buffer has absorbed.
    seen_gen: u64,
    /// Slab layout generation the entry layout was built from.
    layout_gen: u64,
}

impl SenseBuffer {
    /// Creates an empty buffer (first sync does a full rebuild).
    pub fn new() -> Self {
        SenseBuffer::default()
    }

    /// The synced `(id, snapshot)` entries, in id order.
    pub fn entries(&self) -> &[(ServerId, SensorSnapshot)] {
        &self.entries
    }

    /// Mutable access to the entries, for callers that overwrite
    /// individual readings after a sync (e.g. re-sensing breaker-trip
    /// victims). Overwrites are transient: they survive until the
    /// corresponding server next changes in the farm.
    pub fn entries_mut(&mut self) -> &mut [(ServerId, SensorSnapshot)] {
        &mut self.entries
    }
}

/// Configuration of the control plane.
///
/// Construct with [`PlaneConfig::default`] and the chained `with_*`
/// builders (the same idiom as [`StalenessConfig`] and
/// `DeploymentConfig`):
///
/// ```
/// use capmaestro_core::plane::{PlaneConfig, StalenessConfig};
/// use capmaestro_core::policy::PolicyKind;
///
/// let config = PlaneConfig::default()
///     .with_policy(PolicyKind::LocalPriority)
///     .with_spo(false)
///     .with_staleness(StalenessConfig::default().with_stale_after_rounds(5));
/// assert!(!config.spo);
/// ```
#[derive(Debug, Clone)]
pub struct PlaneConfig {
    /// The capping policy.
    pub policy: PolicyKind,
    /// The budget-split allocator raced at every tree node (the paper's
    /// §4.3.2 waterfall by default; see [`crate::alloc`]).
    pub allocator: AllocatorKind,
    /// Whether to run the stranded-power optimization each round (§4.4).
    pub spo: bool,
    /// The control period (8 s in the paper's deployment).
    pub control_period: Seconds,
    /// The staleness watchdog knobs, applied at plane construction
    /// (reconfigure a live plane with [`ControlPlane::set_staleness`]).
    pub staleness: StalenessConfig,
    /// Where instrumentation goes (phase timings, counters, gauges).
    /// Defaults to [`crate::obs::NullRecorder`], which keeps the hot
    /// path allocation-free and bit-identical; attach a
    /// [`crate::obs::MetricsRegistry`] to export metrics.
    pub recorder: Arc<dyn Recorder>,
}

impl Default for PlaneConfig {
    fn default() -> Self {
        PlaneConfig {
            policy: PolicyKind::GlobalPriority,
            allocator: AllocatorKind::Waterfall,
            spo: true,
            control_period: Seconds::new(8.0),
            staleness: StalenessConfig::default(),
            recorder: null_recorder(),
        }
    }
}

impl PartialEq for PlaneConfig {
    /// Recorders are compared by identity (`Arc::ptr_eq`): two configs
    /// are equal when they would drive the same rounds *and* report to
    /// the same sink.
    fn eq(&self, other: &Self) -> bool {
        self.policy == other.policy
            && self.allocator == other.allocator
            && self.spo == other.spo
            && self.control_period == other.control_period
            && self.staleness == other.staleness
            && Arc::ptr_eq(&self.recorder, &other.recorder)
    }
}

impl PlaneConfig {
    /// Returns the config with the capping policy replaced.
    #[must_use]
    pub fn with_policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// Returns the config with the budget-split allocator replaced.
    #[must_use]
    pub fn with_allocator(mut self, allocator: AllocatorKind) -> Self {
        self.allocator = allocator;
        self
    }

    /// Returns the config with stranded-power optimization on or off.
    #[must_use]
    pub fn with_spo(mut self, spo: bool) -> Self {
        self.spo = spo;
        self
    }

    /// Returns the config with the control period replaced.
    #[must_use]
    pub fn with_control_period(mut self, control_period: Seconds) -> Self {
        self.control_period = control_period;
        self
    }

    /// Returns the config with the staleness watchdog knobs replaced.
    #[must_use]
    pub fn with_staleness(mut self, staleness: StalenessConfig) -> Self {
        self.staleness = staleness;
        self
    }

    /// Returns the config with the instrumentation sink replaced.
    #[must_use]
    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = recorder;
        self
    }
}

/// The staleness watchdog / fail-safe degradation knobs (paper §4.2's
/// safety argument extended to telemetry faults).
///
/// Every control round, each managed server either refreshed its telemetry
/// since the last round (at least one *plausible* sensor reading was
/// delivered) or it did not. After `stale_after_rounds` consecutive rounds
/// without a refresh the server is declared **stale**: instead of trusting
/// a frozen demand estimate forever, the plane budgets it from a fail-safe
/// demand and clamps its DC cap to match. Over-throttling a blind server
/// is safe; a tripped breaker is not.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StalenessConfig {
    /// Consecutive telemetry-free control rounds before a server is
    /// declared stale. Rounds 1..N are the *stale-hold* bridge — the last
    /// good estimate keeps being used, riding out transient sensor drops.
    pub stale_after_rounds: u32,
    /// The AC demand a stale server is budgeted from. `None` (the
    /// default) means the server's own `Pcap_min` — the most conservative
    /// budget that is still guaranteed enforceable.
    pub fail_safe_demand: Option<Watts>,
}

impl Default for StalenessConfig {
    fn default() -> Self {
        StalenessConfig {
            stale_after_rounds: 3,
            fail_safe_demand: None,
        }
    }
}

impl StalenessConfig {
    /// Returns the config with the stale-declaration threshold replaced.
    #[must_use]
    pub fn with_stale_after_rounds(mut self, rounds: u32) -> Self {
        self.stale_after_rounds = rounds;
        self
    }

    /// Returns the config with the fail-safe demand replaced (`None`
    /// falls back to each server's `Pcap_min`).
    #[must_use]
    pub fn with_fail_safe_demand(mut self, demand: Option<Watts>) -> Self {
        self.fail_safe_demand = demand;
        self
    }
}

/// What one control round decided.
#[derive(Debug, Clone)]
pub struct RoundReport {
    /// Final allocation per tree (post-SPO when enabled).
    pub allocations: Vec<Allocation>,
    /// Total stranded power reclaimed this round (zero when SPO is off).
    pub stranded_reclaimed: Watts,
    /// The DC cap commanded per server.
    pub dc_caps: HashMap<ServerId, Watts>,
    /// `(server, supply)` → `(tree, slot)` lookup index over
    /// `allocations`, so [`RoundReport::supply_budget`] is one hash
    /// probe instead of a linear scan across every tree. First tree
    /// wins, matching the scan order it replaces.
    supply_slots: HashMap<(ServerId, SupplyIndex), (u32, u32)>,
    /// Identity stamps (leaf-index [`Arc`] addresses, stored as plain
    /// `usize` so the report stays `Send + Sync`) of the allocations the
    /// index was built from. The allocations hold those `Arc`s alive, so
    /// a matching stamp means the slot layout is unchanged and the index
    /// can be reused without rebuilding.
    index_stamp: Vec<usize>,
}

impl RoundReport {
    /// Empty report, ready to be filled by a round.
    fn empty() -> Self {
        RoundReport {
            allocations: Vec::new(),
            stranded_reclaimed: Watts::ZERO,
            dc_caps: HashMap::new(),
            supply_slots: HashMap::new(),
            index_stamp: Vec::new(),
        }
    }

    /// Whether the lookup index matches the current `allocations`.
    fn index_is_current(&self) -> bool {
        self.index_stamp.len() == self.allocations.len()
            && self
                .allocations
                .iter()
                .zip(&self.index_stamp)
                .all(|(a, &stamp)| a.leaf_index_stamp() == stamp)
    }

    /// Rebuilds the `(server, supply)` lookup index if the allocations'
    /// slot layouts changed; a no-op (stamp comparison only, no
    /// allocation) in the steady state. Called by the round pipeline
    /// after every allocation pass.
    fn refresh_supply_index(&mut self) {
        if self.index_is_current() {
            return;
        }
        self.supply_slots.clear();
        self.index_stamp.clear();
        for (tree, allocation) in self.allocations.iter().enumerate() {
            self.index_stamp.push(allocation.leaf_index_stamp());
            let index = allocation.leaf_index();
            for slot in 0..index.len() {
                let pair = index.pair(slot);
                self.supply_slots
                    .entry(pair)
                    .or_insert((tree as u32, slot as u32));
            }
        }
    }

    /// The final budget assigned to a supply, if any tree covers it.
    ///
    /// Served from the precomputed `(server, supply)` index when it is
    /// current (always the case for reports produced by
    /// [`ControlPlane::round`] and their clones); falls back to the
    /// original linear scan over `allocations` if a caller has replaced
    /// the allocation set by hand.
    pub fn supply_budget(&self, server: ServerId, supply: SupplyIndex) -> Option<Watts> {
        if self.index_is_current() {
            return self
                .supply_slots
                .get(&(server, supply))
                .map(|&(tree, slot)| {
                    self.allocations[tree as usize].leaf_budget(slot as usize)
                });
        }
        self.allocations
            .iter()
            .find_map(|a| a.supply_budget(server, supply))
    }

    /// The total budget a server received across its supplies.
    pub fn server_budget(&self, server: ServerId) -> Watts {
        self.allocations
            .iter()
            .flat_map(|a| a.supply_budgets())
            .filter(|(s, _, _)| *s == server)
            .map(|(_, _, w)| w)
            .sum()
    }

    /// Encode the report as a [`MetricsSnapshot`](crate::obs::MetricsSnapshot)
    /// so it can ride the existing `obs::json` exporter/parser pair: the
    /// serving subsystem's `GET /report` renders this snapshot with
    /// [`json::snapshot`](crate::obs::json::snapshot) and clients round-trip
    /// it through [`json::parse`](crate::obs::json::parse).
    ///
    /// Counters carry the report's cardinalities (trees, capped servers);
    /// gauges carry the watt figures (per-tree root and leaf totals, per-
    /// server DC caps, stranded power reclaimed); there are no histograms.
    /// Names follow the registry convention (sorted, labels inline).
    pub fn metrics_snapshot(&self) -> crate::obs::MetricsSnapshot {
        use crate::obs::{CounterSample, GaugeSample, MetricsSnapshot};

        let counters = vec![
            CounterSample {
                name: "capmaestro_report_servers_capped".to_string(),
                value: self.dc_caps.len() as u64,
            },
            CounterSample {
                name: "capmaestro_report_trees".to_string(),
                value: self.allocations.len() as u64,
            },
        ];

        let mut gauges = Vec::with_capacity(self.dc_caps.len() + 2 * self.allocations.len() + 1);
        let mut caps: Vec<(ServerId, Watts)> =
            self.dc_caps.iter().map(|(&id, &w)| (id, w)).collect();
        caps.sort_unstable_by_key(|(id, _)| *id);
        for (id, cap) in caps {
            gauges.push(GaugeSample {
                name: format!("capmaestro_report_dc_cap_watts{{server=\"{}\"}}", id.0),
                value: cap.as_f64(),
            });
        }
        gauges.push(GaugeSample {
            name: "capmaestro_report_stranded_watts_reclaimed".to_string(),
            value: self.stranded_reclaimed.as_f64(),
        });
        for (tree, allocation) in self.allocations.iter().enumerate() {
            gauges.push(GaugeSample {
                name: format!("capmaestro_report_tree_leaf_watts{{tree=\"{tree}\"}}"),
                value: allocation.total_leaf_budget().as_f64(),
            });
            gauges.push(GaugeSample {
                name: format!("capmaestro_report_tree_root_watts{{tree=\"{tree}\"}}"),
                value: allocation.node_budget(0).as_f64(),
            });
        }
        gauges.sort_by(|a, b| a.name.cmp(&b.name));

        MetricsSnapshot {
            counters,
            gauges,
            histograms: Vec::new(),
        }
    }
}

/// How the per-tree root budgets are determined each round.
#[derive(Debug, Clone, PartialEq)]
pub enum BudgetSource {
    /// Fixed budgets, one per tree (operator-managed; must be updated by
    /// hand after a feed failure).
    Fixed(Vec<Watts>),
    /// One contractual budget **per phase**, shared across the redundant
    /// feeds and split each round proportionally to the feeds' estimated
    /// demand on that phase (paper Table 4: "700 kW per phase, split over
    /// two feeds"). Failover is automatic: when a feed's trees are gone,
    /// the survivor inherits the whole phase budget.
    SharedPerPhase(Watts),
}

/// Reusable buffers for the per-round hot path (the "RoundContext" of the
/// round-pipeline design): the demand lane, resolved root budgets, the
/// cached capping-policy object, per-tree round states for the plain
/// allocation path, the SPO scratch, and the round report itself.
/// [`ControlPlane::round`] borrows these instead of allocating, so a
/// steady-state sequential round performs no heap allocation.
struct RoundContext {
    /// This round's demand per farm slot.
    demands: Vec<Watts>,
    /// Sensing scratch for [`ControlPlane::sample`] — reused every second
    /// so steady-state sampling allocates nothing.
    snaps: SenseBuffer,
    root_budgets: Vec<Watts>,
    /// Scratch for the [`BudgetSource::SharedPerPhase`] resolution.
    tree_demands: Vec<Watts>,
    phase_members: Vec<usize>,
    /// The policy object, rebuilt only when the configured kind changes.
    policy: Option<(PolicyKind, Box<dyn CappingPolicy + Send + Sync>)>,
    /// The budget-split allocator, rebuilt only when the configured kind
    /// changes.
    allocator: Option<(AllocatorKind, Box<dyn Allocator>)>,
    spo: SpoScratch,
    /// Per-tree incremental gather state for the SPO-disabled path.
    plain_states: Vec<TreeRoundState>,
    report: RoundReport,
    /// Whether `report` holds a completed round.
    valid: bool,
    /// Cumulative (summarized, dirty-skipped) gather totals already
    /// reported to the recorder, so each round reports only its delta.
    last_gather: (u64, u64),
}

impl Default for RoundContext {
    fn default() -> Self {
        RoundContext {
            demands: Vec::new(),
            snaps: SenseBuffer::new(),
            root_budgets: Vec::new(),
            tree_demands: Vec::new(),
            phase_members: Vec::new(),
            policy: None,
            allocator: None,
            spo: SpoScratch::new(),
            plain_states: Vec::new(),
            report: RoundReport::empty(),
            valid: false,
            last_gather: (0, 0),
        }
    }
}

impl RoundContext {
    /// Drops the cached incremental allocation state (SPO routes and all
    /// per-tree round states) — required when the tree set changes.
    fn invalidate_allocation_caches(&mut self) {
        self.spo.invalidate();
        for state in &mut self.plain_states {
            state.invalidate();
        }
    }
}

impl fmt::Debug for RoundContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RoundContext")
            .field("valid", &self.valid)
            .finish_non_exhaustive()
    }
}

/// Resolves the per-tree root budgets into `out`. For
/// [`BudgetSource::SharedPerPhase`], each phase's contractual budget is
/// split across that phase's trees proportionally to their estimated
/// demand (equal split when total demand is zero). `tree_demands` and
/// `members` are caller-owned scratch so the round hot path allocates
/// nothing.
fn resolve_root_budgets_into(
    trees: &[ControlTree],
    source: &BudgetSource,
    tree_demands: &mut Vec<Watts>,
    members: &mut Vec<usize>,
    out: &mut Vec<Watts>,
) {
    out.clear();
    match source {
        BudgetSource::Fixed(budgets) => out.extend_from_slice(budgets),
        BudgetSource::SharedPerPhase(per_phase) => {
            // Demand per tree = Σ leaf demand × share.
            tree_demands.clear();
            tree_demands.extend(trees.iter().map(|tree| {
                let mut total = Watts::ZERO;
                for idx in 0..tree.spec().len() {
                    if let (Some(input), true) =
                        (tree.input_at(idx), tree.spec().node(idx).is_leaf())
                    {
                        total += input.demand * input.share;
                    }
                }
                total
            }));
            out.resize(trees.len(), Watts::ZERO);
            for phase in capmaestro_topology::Phase::ALL {
                members.clear();
                members.extend(
                    trees
                        .iter()
                        .enumerate()
                        .filter(|(_, t)| t.spec().phase() == phase)
                        .map(|(i, _)| i),
                );
                if members.is_empty() {
                    continue;
                }
                let total: Watts = members.iter().map(|&i| tree_demands[i]).sum();
                for &i in members.iter() {
                    out[i] = if total > Watts::ZERO {
                        *per_phase * (tree_demands[i] / total)
                    } else {
                        *per_phase / members.len() as f64
                    };
                }
            }
        }
    }
}

/// The plane's per-server state, one lane per concern, indexed by farm
/// slot: `ids[i]` is the server in slot `i` of the farm the lanes were
/// last synced against (the farm's `ids()` at that time). The 1 Hz sense
/// and the round read and write by slot, never by hashing an id.
///
/// The lanes re-key when the farm's id list changes — a server inserted
/// between rounds shifts the slots after it. [`ServerLanes::sync`] then
/// moves every server's state to its new slot, gives new servers empty
/// state, and drops servers the farm no longer holds.
#[derive(Debug, Default)]
struct ServerLanes {
    ids: Vec<ServerId>,
    estimators: Vec<DemandEstimator>,
    /// Last *plausible* snapshot delivered per server — the only sensor
    /// data the plane ever acts on. Enforcement reads this cache, not the
    /// server directly, so a fault layer interposing on delivery affects
    /// every consumer consistently.
    telemetry: Vec<Option<SensorSnapshot>>,
    /// Whether a plausible reading arrived since the last round.
    fresh: Vec<bool>,
    /// Consecutive rounds without a plausible reading.
    stale_rounds: Vec<u32>,
    /// Capping controllers, created on a server's first enforcement.
    controllers: Vec<Option<CappingController>>,
}

impl ServerLanes {
    /// Re-keys every lane to `ids` (sorted, as `Farm::ids` is) if it
    /// changed since the last sync; otherwise one slice comparison.
    fn sync(&mut self, ids: &[ServerId]) {
        if self.ids == ids {
            return;
        }
        let old = std::mem::replace(&mut self.ids, ids.to_vec());
        rekey(&mut self.estimators, &old, ids);
        rekey(&mut self.telemetry, &old, ids);
        rekey(&mut self.fresh, &old, ids);
        rekey(&mut self.stale_rounds, &old, ids);
        rekey(&mut self.controllers, &old, ids);
    }

    /// The slot of a server, if the lanes hold it.
    fn slot(&self, id: ServerId) -> Option<usize> {
        self.ids.binary_search(&id).ok()
    }

    /// Keeps a plausible reading as the server's telemetry (reusing the
    /// stored snapshot's allocations) and marks it fresh.
    fn accept(&mut self, slot: usize, snap: &SensorSnapshot) {
        match &mut self.telemetry[slot] {
            Some(kept) => kept.clone_from(snap),
            empty => *empty = Some(snap.clone()),
        }
        self.fresh[slot] = true;
    }
}

/// Moves each value of `lane` (keyed by the sorted `old` ids) to its id's
/// position in the sorted `new` ids; ids new to the lane get a default.
fn rekey<T: Default>(lane: &mut Vec<T>, old: &[ServerId], new: &[ServerId]) {
    let mut old_lane = old.iter().zip(std::mem::take(lane)).peekable();
    lane.extend(new.iter().map(|id| {
        while old_lane.next_if(|(o, _)| *o < id).is_some() {}
        old_lane
            .next_if(|(o, _)| *o == id)
            .map_or_else(T::default, |(_, value)| value)
    }));
}

/// The AC demand a stale server is budgeted and capped from.
fn fail_safe_demand(fail_safe: Option<Watts>, model: &ServerPowerModel) -> Watts {
    fail_safe
        .unwrap_or_else(|| model.cap_min())
        .clamp(model.cap_min(), model.cap_max())
}

/// The CapMaestro control-plane service.
///
/// # Examples
///
/// Managing the paper's Fig. 2 rig end to end:
///
/// ```
/// use capmaestro_core::plane::{ControlPlane, Farm, PlaneConfig};
/// use capmaestro_core::tree::ControlTree;
/// use capmaestro_server::{Server, ServerConfig};
/// use capmaestro_topology::presets::figure2_feed;
/// use capmaestro_units::{Seconds, Watts};
///
/// let topo = figure2_feed();
/// let trees: Vec<ControlTree> = topo
///     .control_tree_specs()
///     .into_iter()
///     .map(ControlTree::new)
///     .collect();
/// let mut farm = Farm::new();
/// for (id, _) in topo.servers() {
///     // The Fig. 2 rig is single-corded: one supply per server.
///     let mut server = Server::new(ServerConfig::paper_default().single_corded());
///     server.set_offered_demand(Watts::new(430.0));
///     server.settle();
///     farm.insert(id, server);
/// }
/// let mut plane = ControlPlane::new(trees, vec![Watts::new(1240.0)], PlaneConfig::default());
/// plane.record_sample(&farm);
/// let report = plane.round(&mut farm);
/// let sa = topo.server_by_name("SA").unwrap();
/// // The high-priority server is budgeted its full demand.
/// assert!(report.server_budget(sa) > Watts::new(420.0));
/// ```
#[derive(Debug)]
pub struct ControlPlane {
    trees: Vec<ControlTree>,
    budget_source: BudgetSource,
    config: PlaneConfig,
    /// Dynamic priority overrides, e.g. from a job scheduler (§7's
    /// "coordination of job scheduling with power management").
    priority_overrides: HashMap<ServerId, capmaestro_topology::Priority>,
    /// Trees parked by [`ControlPlane::fail_feed`], with their fixed
    /// budgets where applicable, awaiting [`ControlPlane::restore_feed`].
    parked: Vec<(ControlTree, Option<Watts>)>,
    /// The topology's static priorities, snapshotted at construction so
    /// cleared overrides fall back correctly.
    static_priorities: HashMap<ServerId, capmaestro_topology::Priority>,
    /// The staleness watchdog configuration.
    staleness: StalenessConfig,
    /// Per-server state by farm slot (see [`ServerLanes`]).
    lanes: ServerLanes,
    /// Reusable round buffers (see [`RoundContext`]).
    ctx: RoundContext,
}

impl ControlPlane {
    /// Creates a plane over the given control trees and their root budgets.
    ///
    /// # Panics
    ///
    /// Panics if the numbers of trees and budgets differ.
    pub fn new(trees: Vec<ControlTree>, root_budgets: Vec<Watts>, config: PlaneConfig) -> Self {
        assert_eq!(
            trees.len(),
            root_budgets.len(),
            "one root budget per control tree is required"
        );
        ControlPlane::with_budget_source(trees, BudgetSource::Fixed(root_budgets), config)
    }

    /// Creates a plane with an explicit [`BudgetSource`] — use
    /// [`BudgetSource::SharedPerPhase`] for the paper's contractual-budget
    /// arrangement with automatic failover.
    /// # Panics
    ///
    /// Panics if `config.staleness.stale_after_rounds` is zero (see
    /// [`ControlPlane::set_staleness`]).
    pub fn with_budget_source(
        trees: Vec<ControlTree>,
        budget_source: BudgetSource,
        config: PlaneConfig,
    ) -> Self {
        if let BudgetSource::Fixed(budgets) = &budget_source {
            assert_eq!(
                trees.len(),
                budgets.len(),
                "one root budget per control tree is required"
            );
        }
        assert!(
            config.staleness.stale_after_rounds >= 1,
            "stale_after_rounds must be at least 1"
        );
        let mut static_priorities = HashMap::new();
        for tree in &trees {
            for (_, leaf) in tree.spec().leaves() {
                static_priorities.insert(leaf.server, leaf.priority);
            }
        }
        let staleness = config.staleness;
        ControlPlane {
            trees,
            budget_source,
            config,
            priority_overrides: HashMap::new(),
            parked: Vec::new(),
            static_priorities,
            staleness,
            lanes: ServerLanes::default(),
            ctx: RoundContext::default(),
        }
    }

    /// Reconfigures the staleness watchdog (defaults:
    /// [`StalenessConfig::default`]).
    ///
    /// # Panics
    ///
    /// Panics if `stale_after_rounds` is zero — every server would be
    /// permanently stale.
    pub fn set_staleness(&mut self, config: StalenessConfig) {
        assert!(
            config.stale_after_rounds >= 1,
            "stale_after_rounds must be at least 1"
        );
        self.staleness = config;
        self.config.staleness = config;
    }

    /// The staleness watchdog configuration.
    pub fn staleness(&self) -> StalenessConfig {
        self.staleness
    }

    /// Replaces the instrumentation sink (e.g. attaching a
    /// [`crate::obs::MetricsRegistry`] to a plane built with the default
    /// [`crate::obs::NullRecorder`]).
    pub fn set_recorder(&mut self, recorder: Arc<dyn Recorder>) {
        self.config.recorder = recorder;
    }

    /// The instrumentation sink rounds report to.
    pub fn recorder(&self) -> &Arc<dyn Recorder> {
        &self.config.recorder
    }

    /// Servers currently declared stale (no plausible telemetry for at
    /// least `stale_after_rounds` rounds), in id order.
    pub fn stale_servers(&self) -> Vec<ServerId> {
        let threshold = self.staleness.stale_after_rounds;
        self.lanes
            .ids
            .iter()
            .zip(&self.lanes.stale_rounds)
            .filter(|(_, &ctr)| ctr >= threshold)
            .map(|(&id, _)| id)
            .collect()
    }

    /// Whether a server is currently declared stale.
    pub fn is_stale(&self, id: ServerId) -> bool {
        self.lanes.slot(id).is_some_and(|slot| {
            self.lanes.stale_rounds[slot] >= self.staleness.stale_after_rounds
        })
    }

    /// The per-tree root budgets the next round would resolve (the fixed
    /// budgets, or the demand-proportional split of a shared phase
    /// budget). Exposed for invariant auditing.
    pub fn root_budgets_now(&self) -> Vec<Watts> {
        self.resolve_root_budgets()
    }

    /// Resolves the per-tree root budgets for this round (see
    /// [`resolve_root_budgets_into`]).
    fn resolve_root_budgets(&self) -> Vec<Watts> {
        let mut out = Vec::new();
        let (mut demands, mut members) = (Vec::new(), Vec::new());
        resolve_root_budgets_into(
            &self.trees,
            &self.budget_source,
            &mut demands,
            &mut members,
            &mut out,
        );
        out
    }

    /// The configuration.
    pub fn config(&self) -> &PlaneConfig {
        &self.config
    }

    /// Switches the budget-split allocator for every subsequent round.
    /// Incremental allocation caches are invalidated (the allocator box
    /// itself is cached per kind, so switching back and forth is cheap).
    /// A no-op when `kind` is already active.
    pub fn set_allocator(&mut self, kind: AllocatorKind) {
        if self.config.allocator != kind {
            self.config.allocator = kind;
            self.ctx.invalidate_allocation_caches();
        }
    }

    /// The managed control trees.
    pub fn trees(&self) -> &[ControlTree] {
        &self.trees
    }

    /// Replaces the per-tree root budgets (e.g. handing the contractual
    /// budget to the surviving feed after a failure).
    ///
    /// # Panics
    ///
    /// Panics if the count differs from the tree count.
    pub fn set_root_budgets(&mut self, budgets: Vec<Watts>) {
        assert_eq!(budgets.len(), self.trees.len());
        self.budget_source = BudgetSource::Fixed(budgets);
    }

    /// Parks all trees of a failed feed; returns how many were parked.
    /// With [`BudgetSource::Fixed`], callers must also
    /// [`ControlPlane::set_root_budgets`] for the remaining trees and mark
    /// the affected server supplies failed; with
    /// [`BudgetSource::SharedPerPhase`] the survivor inherits the phase
    /// budget automatically. [`ControlPlane::restore_feed`] reverses this
    /// after the repair.
    pub fn fail_feed(&mut self, feed: FeedId) -> usize {
        let mut removed = 0;
        let mut kept_trees = Vec::new();
        let mut kept_budgets = Vec::new();
        let fixed = match &mut self.budget_source {
            BudgetSource::Fixed(budgets) => Some(std::mem::take(budgets)),
            BudgetSource::SharedPerPhase(_) => None,
        };
        for (i, tree) in self.trees.drain(..).enumerate() {
            if tree.spec().feed() == feed {
                removed += 1;
                self.parked
                    .push((tree, fixed.as_ref().map(|f| f[i])));
            } else {
                if let Some(fixed) = &fixed {
                    kept_budgets.push(fixed[i]);
                }
                kept_trees.push(tree);
            }
        }
        self.trees = kept_trees;
        if fixed.is_some() {
            self.budget_source = BudgetSource::Fixed(kept_budgets);
        }
        // Tree indices shifted: the cached routes and incremental gather
        // states no longer line up with the tree list.
        self.ctx.invalidate_allocation_caches();
        removed
    }

    /// Returns a repaired feed's parked trees to service; returns how many
    /// were restored. With [`BudgetSource::Fixed`], each restored tree
    /// resumes the budget it held when parked (adjust afterwards via
    /// [`ControlPlane::set_root_budgets`] if the operator re-splits).
    pub fn restore_feed(&mut self, feed: FeedId) -> usize {
        let mut restored = 0;
        let mut still_parked = Vec::new();
        for (tree, budget) in self.parked.drain(..) {
            if tree.spec().feed() == feed {
                if let BudgetSource::Fixed(budgets) = &mut self.budget_source {
                    budgets.push(budget.unwrap_or(Watts::ZERO));
                }
                self.trees.push(tree);
                restored += 1;
            } else {
                still_parked.push((tree, budget));
            }
        }
        self.parked = still_parked;
        if restored > 0 {
            self.ctx.invalidate_allocation_caches();
        }
        restored
    }

    /// Overrides a server's priority from now on — the hook a job
    /// scheduler uses to communicate dynamic priorities (paper §7). Takes
    /// effect at the next control round.
    pub fn set_priority(
        &mut self,
        server: ServerId,
        priority: capmaestro_topology::Priority,
    ) {
        self.priority_overrides.insert(server, priority);
    }

    /// Removes a dynamic priority override, restoring the topology's
    /// static priority.
    pub fn clear_priority(&mut self, server: ServerId) {
        self.priority_overrides.remove(&server);
    }

    /// The priority the next control round will allocate this server at:
    /// its dynamic override when one is set, otherwise the static
    /// priority recorded at plane construction. `None` for servers the
    /// plane has never heard of. Auditors use this to check the
    /// priority-ordering invariant against the same view the allocator
    /// sees.
    pub fn effective_priority(
        &self,
        server: ServerId,
    ) -> Option<capmaestro_topology::Priority> {
        self.priority_overrides
            .get(&server)
            .or_else(|| self.static_priorities.get(&server))
            .copied()
    }

    /// The topology's static priority for a server, snapshotted at plane
    /// construction — the value [`ControlPlane::clear_priority`] falls
    /// back to. `None` for servers the plane has never heard of.
    pub fn static_priority(
        &self,
        server: ServerId,
    ) -> Option<capmaestro_topology::Priority> {
        self.static_priorities.get(&server).copied()
    }

    /// Records one per-second sensor sample for every server (throttle
    /// level and total AC power), feeding the demand estimators through
    /// plausibility screening and updating the telemetry cache. Sensing
    /// fans out across the farm's configured thread count; the estimator
    /// updates stay in id order, so the result is thread-count
    /// independent.
    pub fn record_sample(&mut self, farm: &Farm) {
        self.record_snapshots(farm, &farm.sense_all());
    }

    /// Records one per-second sensor sample for every server, like
    /// [`ControlPlane::record_sample`], but sensing through the farm's
    /// snapshot cache into a plane-owned scratch buffer: quiescent servers
    /// are not re-sensed and the steady state performs **no heap
    /// allocation** (the `alloc --smoke` gate covers this path).
    pub fn sample(&mut self, farm: &mut Farm) {
        let mut buf = std::mem::take(&mut self.ctx.snaps);
        farm.sense_into(&mut buf);
        self.record_snapshots(farm, buf.entries());
        self.ctx.snaps = buf;
    }

    /// Feeds already-delivered sensor snapshots to the demand estimators —
    /// the path for callers (like the simulation engine) that sensed the
    /// farm this second anyway, possibly through a fault-injecting
    /// interposer. A reading absent from `snaps` models a dropped reading;
    /// a reading for a server the farm does not hold is ignored.
    ///
    /// Each reading is screened against the server's power envelope
    /// ([`DemandEstimator::push_screened`]); implausible readings are
    /// discarded and do **not** count as a telemetry refresh, so a sensor
    /// returning garbage degrades exactly like a silent one.
    pub fn record_snapshots(&mut self, farm: &Farm, snaps: &[(ServerId, SensorSnapshot)]) {
        let recorder = Arc::clone(&self.config.recorder);
        let _sense_timer = PhaseTimer::start(&*recorder, RoundPhase::Sense.metric_name());
        let lanes = &mut self.lanes;
        lanes.sync(farm.ids());
        let ids = farm.ids();
        let screen = |slot: usize, est: &mut DemandEstimator, snap: &SensorSnapshot| {
            let model = farm.server_at(slot).config().model();
            est.push_screened(snap.throttle, snap.total_ac, model.idle(), model.cap_max())
        };
        // A whole-farm batch (the shape `sense_all` produces) screens in
        // parallel when the farm is multi-threaded; the telemetry and
        // freshness bookkeeping stays sequential in slot order, so the
        // result is thread-count independent.
        let threads = farm.parallelism();
        if threads > 1 && snaps.len() == ids.len() && snaps.iter().map(|(id, _)| id).eq(ids) {
            let fates = par_map_mut(&mut lanes.estimators, threads, |slot, est| {
                screen(slot, est, &snaps[slot].1)
            });
            for (slot, fate) in fates.into_iter().enumerate() {
                if fate == SampleFate::Accepted {
                    lanes.accept(slot, &snaps[slot].1);
                }
            }
            return;
        }
        // Batches arrive in id order, so each reading's slot is found by
        // walking the farm's sorted ids alongside; a reading out of order
        // restarts the walk with a search.
        let mut slot = 0;
        for (id, snap) in snaps {
            if ids.get(slot).is_none_or(|x| x > id) {
                slot = ids.partition_point(|x| x < id);
            }
            while ids.get(slot).is_some_and(|x| x < id) {
                slot += 1;
            }
            if ids.get(slot) == Some(id)
                && screen(slot, &mut lanes.estimators[slot], snap) == SampleFate::Accepted
            {
                lanes.accept(slot, snap);
            }
        }
    }

    /// The current demand estimate for a server (measured power when the
    /// estimator has no better answer yet).
    pub fn demand_estimate(&self, id: ServerId, farm: &Farm) -> Watts {
        let (idle, fallback) = farm
            .get(id)
            .map(|s| (s.config().model().idle(), s.sense().total_ac))
            .unwrap_or((Watts::ZERO, Watts::ZERO));
        self.lanes
            .slot(id)
            .and_then(|slot| self.lanes.estimators[slot].estimate_with_idle(idle))
            .unwrap_or(fallback)
    }

    /// The report of the last completed round, if any round has run since
    /// construction / [`ControlPlane::reset_round_cache`].
    pub fn last_report(&self) -> Option<&RoundReport> {
        if self.ctx.valid {
            Some(&self.ctx.report)
        } else {
            None
        }
    }

    /// Drops every reusable round buffer and cached incremental state, so
    /// the next round recomputes everything from scratch. Differential
    /// tests use this to compare incremental rounds against full rounds;
    /// it is never required for correctness.
    pub fn reset_round_cache(&mut self) {
        self.ctx = RoundContext::default();
    }

    /// Runs one control round — estimate → gather → allocate (→ SPO) →
    /// enforce — writing the decisions into the plane-owned
    /// [`RoundReport`] and returning it (cached semantics: the report is
    /// also available afterwards via [`ControlPlane::last_report`]).
    ///
    /// In the sequential case (farm parallelism 1) a steady-state round
    /// performs **no heap allocation**: the per-slot demand lane, root
    /// budgets, the policy object, per-tree gather states (reused
    /// incrementally — only subtrees with a dirtied leaf are
    /// re-summarized), SPO routes/overlays, and the report buffers all
    /// live in the plane's round context. The estimate phase and the
    /// per-tree allocation fan out across the farm's configured thread
    /// count ([`Farm::set_parallelism`]); enforcement is one sequential
    /// loop over the slot lanes; every cross-item combination
    /// step runs sequentially in deterministic order, so the round's
    /// decisions are bit-identical for every thread count.
    ///
    /// When a [`Recorder`] is attached ([`PlaneConfig::with_recorder`] /
    /// [`ControlPlane::set_recorder`]), the round reports per-phase wall
    /// times, the stale-server gauge, fail-safe cap enforcements, the
    /// stranded-watts-reclaimed gauge, and the gather dirty-tracking
    /// counters. With the default [`crate::obs::NullRecorder`] none of
    /// that is computed and the round is bit-identical to an
    /// uninstrumented one.
    pub fn round(&mut self, farm: &mut Farm) -> &RoundReport {
        let threads = farm.parallelism();
        let recorder = Arc::clone(&self.config.recorder);
        let recorder: &dyn Recorder = &*recorder;
        recorder.counter_add(names::ROUNDS_TOTAL, 1);
        let estimate_timer =
            PhaseTimer::start(recorder, RoundPhase::Estimate.metric_name());

        // 0. Staleness bookkeeping: servers that delivered a plausible
        //    reading since the last round reset their counter; the rest
        //    age one round. A server crossing the threshold has its
        //    estimator cleared — whatever the window held predates the
        //    outage, and an empty window lets `estimate_with_idle` rebuild
        //    the demand from the first post-recovery samples.
        let lanes = &mut self.lanes;
        lanes.sync(farm.ids());
        let threshold = self.staleness.stale_after_rounds;
        for slot in 0..lanes.ids.len() {
            if std::mem::take(&mut lanes.fresh[slot]) {
                lanes.stale_rounds[slot] = 0;
            } else {
                lanes.stale_rounds[slot] += 1;
                if lanes.stale_rounds[slot] == threshold {
                    lanes.estimators[slot].clear();
                }
            }
        }
        let fail_safe = self.staleness.fail_safe_demand;

        // 1. Refresh every tree's leaf inputs from estimates and the
        //    servers' live PSU state. Estimates are independent per
        //    server; each tree's refresh is independent per tree. A stale
        //    server's demand is its fail-safe value, not a frozen
        //    estimate. The refresh value-compares against the tree's
        //    stored inputs, so unchanged leaves stay clean and the gather
        //    below reuses their cached metrics.
        let lanes = &self.lanes;
        let farm_ref = &*farm;
        let demand_of = |slot: usize| {
            let server = farm_ref.server_at(slot);
            let model = server.config().model();
            if lanes.stale_rounds[slot] >= threshold {
                return fail_safe_demand(fail_safe, &model);
            }
            lanes.estimators[slot]
                .estimate_with_idle(model.idle())
                .or_else(|| lanes.telemetry[slot].as_ref().map(|snap| snap.total_ac))
                .unwrap_or_else(|| server.sense().total_ac)
        };
        if threads <= 1 {
            self.ctx.demands.clear();
            self.ctx.demands.extend((0..farm_ref.len()).map(demand_of));
        } else {
            self.ctx.demands = par_map_range(farm_ref.len(), threads, demand_of);
        }
        drop(estimate_timer);
        if recorder.enabled() {
            let stale = lanes.stale_rounds.iter().filter(|&&ctr| ctr >= threshold);
            recorder.gauge_set(names::STALE_SERVERS, stale.count() as f64);
        }
        let gather_timer = PhaseTimer::start(recorder, RoundPhase::Gather.metric_name());
        {
            let overrides = &self.priority_overrides;
            let statics = &self.static_priorities;
            let demands = &self.ctx.demands;
            let refresh = |tree: &mut ControlTree| {
                if !overrides.is_empty() {
                    tree.set_priorities_with(|server| {
                        overrides.get(&server).copied().unwrap_or_else(|| {
                            statics
                                .get(&server)
                                .copied()
                                .unwrap_or(capmaestro_topology::Priority::LOW)
                        })
                    });
                }
                tree.set_inputs_with(|server, supply| {
                    let slot = farm_ref
                        .index_of(server)
                        .unwrap_or_else(|| panic!("tree references unknown {server}"));
                    let srv = farm_ref.server_at(slot);
                    let model = srv.config().model();
                    let share = srv.bank().effective_share(supply.index());
                    let demand = demands[slot];
                    SupplyInput {
                        demand: demand.clamp(model.idle(), model.cap_max()),
                        cap_min: model.cap_min(),
                        cap_max: model.cap_max(),
                        share,
                    }
                });
            };
            if threads <= 1 {
                for tree in &mut self.trees {
                    refresh(tree);
                }
            } else {
                par_for_each_mut(&mut self.trees, threads, refresh);
            }
        }
        drop(gather_timer);

        // 2. Allocate (with or without the stranded-power pass). The trees
        //    are independent within each allocation pass, so both the
        //    plain path and the two SPO passes allocate concurrently; the
        //    split *within* each tree and the SPO strand detection stay
        //    sequential, keeping the round bit-identical for every thread
        //    count.
        let trees = &self.trees;
        let RoundContext {
            root_budgets,
            tree_demands,
            phase_members,
            policy,
            allocator,
            spo,
            plain_states,
            report,
            valid,
            last_gather,
            ..
        } = &mut self.ctx;
        resolve_root_budgets_into(
            trees,
            &self.budget_source,
            tree_demands,
            phase_members,
            root_budgets,
        );
        if policy.as_ref().map(|(kind, _)| *kind) != Some(self.config.policy) {
            *policy = Some((self.config.policy, self.config.policy.policy()));
        }
        let policy_dyn = policy.as_ref().expect("policy cached above").1.as_ref();
        if allocator.as_ref().map(|(kind, _)| *kind) != Some(self.config.allocator) {
            *allocator = Some((self.config.allocator, self.config.allocator.allocator()));
        }
        let allocator_dyn = allocator
            .as_ref()
            .expect("allocator cached above")
            .1
            .as_ref();
        report.stranded_reclaimed = if self.config.spo {
            if threads <= 1 {
                optimize_stranded_power_in(
                    trees,
                    root_budgets,
                    policy_dyn,
                    allocator_dyn,
                    spo,
                    &mut report.allocations,
                    recorder,
                )
            } else {
                // The fused parallel SPO does both passes in one sweep;
                // the whole sweep is attributed to the SPO span.
                let spo_timer =
                    PhaseTimer::start(recorder, RoundPhase::Spo.metric_name());
                let outcome = optimize_stranded_power_par_with(
                    trees,
                    root_budgets,
                    policy_dyn,
                    allocator_dyn,
                    threads,
                );
                drop(spo_timer);
                recorder.observe(RoundPhase::Allocate.metric_name(), 0.0);
                let total = outcome.total_stranded();
                report.allocations = outcome.second;
                total
            }
        } else {
            let allocate_timer =
                PhaseTimer::start(recorder, RoundPhase::Allocate.metric_name());
            if threads <= 1 {
                let n = trees.len();
                if plain_states.len() != n {
                    plain_states.clear();
                    plain_states.resize_with(n, TreeRoundState::new);
                }
                if report.allocations.len() != n {
                    report.allocations.clear();
                    report.allocations.resize_with(n, Allocation::default);
                }
                for i in 0..n {
                    trees[i].allocate_in(
                        root_budgets[i],
                        policy_dyn,
                        allocator_dyn,
                        &mut plain_states[i],
                        None,
                        &mut report.allocations[i],
                    );
                }
            } else {
                let pairs: Vec<(&ControlTree, Watts)> = trees
                    .iter()
                    .zip(root_budgets.iter().copied())
                    .collect();
                report.allocations = par_map(&pairs, threads, |&(t, b)| {
                    t.allocate_with(b, policy_dyn, allocator_dyn)
                });
            }
            drop(allocate_timer);
            // SPO is off: record an explicit zero so the phase series
            // exists (and shows as idle) on every configuration.
            recorder.observe(RoundPhase::Spo.metric_name(), 0.0);
            Watts::ZERO
        };
        if recorder.enabled() {
            recorder.gauge_set(
                names::STRANDED_WATTS_RECLAIMED,
                report.stranded_reclaimed.as_f64(),
            );
            // Dirty-tracking effectiveness: how many tree nodes the
            // incremental gather actually re-summarized vs skipped. The
            // states accumulate across rounds, so report deltas. (The
            // parallel paths rebuild allocations from scratch and keep no
            // gather state; their totals simply stay flat.)
            let (summarized, skipped) = if self.config.spo {
                spo.gather_stats()
            } else {
                plain_states.iter().fold((0, 0), |acc, state| {
                    let (s, k) = state.gather_stats();
                    (acc.0 + s, acc.1 + k)
                })
            };
            recorder.counter_add(
                names::TREE_NODES_SUMMARIZED_TOTAL,
                summarized.saturating_sub(last_gather.0),
            );
            recorder.counter_add(
                names::TREE_NODES_DIRTY_SKIPPED_TOTAL,
                skipped.saturating_sub(last_gather.1),
            );
            *last_gather = (summarized, skipped);
        }
        report.refresh_supply_index();

        // 3. Enforce: pair every server's working supplies' budgets with
        //    its last *delivered* telemetry (never a direct sensor read —
        //    faults must affect enforcement too), then run the stateful
        //    capping controllers in slot order. Stale servers bypass their
        //    feedback controller entirely: their cap is clamped straight
        //    to the fail-safe demand. Servers outside every tree keep
        //    their previous cap.
        let enforce_timer = PhaseTimer::start(recorder, RoundPhase::Enforce.metric_name());
        let mut failsafe_caps: u64 = 0;
        let RoundReport {
            allocations,
            dc_caps,
            supply_slots,
            ..
        } = report;
        let allocations = &*allocations;
        let supply_slots = &*supply_slots;
        dc_caps.clear();
        let lanes = &mut self.lanes;
        farm.for_each_mut(|slot, id, mut server| {
            let model = server.config().model();
            let new_controller =
                |efficiency| CappingController::new(model.cap_min(), model.cap_max(), efficiency);
            let cap = if lanes.stale_rounds[slot] >= threshold {
                failsafe_caps += 1;
                let efficiency = server.bank().efficiency();
                let controller =
                    lanes.controllers[slot].get_or_insert_with(|| new_controller(efficiency));
                controller.force_dc_cap(fail_safe_demand(fail_safe, &model) * efficiency)
            } else {
                // One hash probe per working supply (the index was
                // refreshed above) for its budget, in one pass.
                let bank = server.bank();
                let mut budgets = bank
                    .effective_shares_iter()
                    .enumerate()
                    .filter(|(_, share)| share.as_f64() > 0.0)
                    .filter_map(|(idx, _)| {
                        let (tree, leaf) = *supply_slots.get(&(id, SupplyIndex(idx as u8)))?;
                        Some((idx, allocations[tree as usize].leaf_budget(leaf as usize)))
                    })
                    .peekable();
                if budgets.peek().is_none() {
                    return;
                }
                let fallback;
                let snap = match &lanes.telemetry[slot] {
                    Some(snap) => snap,
                    None => {
                        fallback = server.sense();
                        &fallback
                    }
                };
                let controller = lanes.controllers[slot]
                    .get_or_insert_with(|| new_controller(bank.efficiency()));
                controller.update_pairs(budgets.map(|(idx, b)| (b, snap.supply_ac[idx])))
            };
            server.set_dc_cap(cap);
            dc_caps.insert(id, cap);
        });
        drop(enforce_timer);
        if failsafe_caps > 0 || recorder.enabled() {
            recorder.counter_add(names::FAILSAFE_CAPS_TOTAL, failsafe_caps);
        }

        // 4. Trace: per-tree counter tracks (root budget, allocated
        //    budget, measured power) plus tree/rack naming, gated behind
        //    `trace_enabled()` so metrics-only and null recorders never
        //    pay for the tree walk. Iteration order is fixed (trees in
        //    index order, leaves in slot order), keeping traces of
        //    deterministic runs deterministic.
        if recorder.trace_enabled() {
            for (i, tree) in trees.iter().enumerate() {
                let tree_id = i as u32;
                let spec = tree.spec();
                let root = spec.node(0);
                recorder.trace_tree_meta(tree_id, None, &format!("{spec}"));
                for (lane, &child) in root.children.iter().enumerate() {
                    recorder.trace_tree_meta(
                        tree_id,
                        Some(lane as u32 + 1),
                        &spec.node(child).name,
                    );
                }
                recorder.trace_tree_counter(
                    tree_id,
                    crate::obs::trace::ROOT_BUDGET_W,
                    root_budgets[i].as_f64(),
                );
                recorder.trace_tree_counter(
                    tree_id,
                    crate::obs::trace::BUDGET_ALLOC_W,
                    allocations[i].total_leaf_budget().as_f64(),
                );
                let leaves = tree.arena().leaf_index();
                let mut measured = 0.0f64;
                for leaf in 0..leaves.len() {
                    let (id, supply) = leaves.pair(leaf);
                    let kept = lanes.slot(id).and_then(|slot| lanes.telemetry[slot].as_ref());
                    if let Some(snap) = kept {
                        measured += snap.supply_ac[supply.index()].as_f64();
                    }
                }
                recorder.trace_tree_counter(tree_id, crate::obs::trace::POWER_W, measured);
            }
        }

        *valid = true;
        &self.ctx.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use capmaestro_server::ServerConfig;
    use capmaestro_units::Ratio;
    use capmaestro_topology::presets::{figure2_feed, figure7a_rig};
    use capmaestro_topology::Topology;

    fn fig2_plane(policy: PolicyKind) -> (Topology, Farm, ControlPlane) {
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
        let plane = ControlPlane::new(
            trees,
            vec![Watts::new(1240.0)],
            PlaneConfig::default().with_policy(policy).with_spo(false),
        );
        (topo, farm, plane)
    }

    /// Runs `periods` control periods of 8 s each with 1 Hz sensing.
    fn run_periods(plane: &mut ControlPlane, farm: &mut Farm, periods: usize) {
        for _ in 0..periods {
            for _ in 0..8 {
                plane.record_sample(farm);
                farm.step_all(Seconds::new(1.0));
            }
            plane.round(farm);
        }
    }

    /// The zero-alloc sense path: a buffer synced against a quiescent
    /// farm must not re-copy entries (no allocation, no writes), and a
    /// re-copy after a real change must reuse the entry's existing
    /// heap allocations.
    #[test]
    fn sense_buffer_sync_is_incremental_and_reuses_allocations() {
        let (topo, mut farm, _) = fig2_plane(PolicyKind::GlobalPriority);
        let mut buf = SenseBuffer::new();
        farm.sense_into(&mut buf);
        assert_eq!(buf.entries().len(), farm.len());
        let fresh = farm.sense_all();
        assert_eq!(buf.entries(), fresh.as_slice());

        // Corrupt one synced entry, then sync again with nothing changed
        // in the farm: the corruption must survive, proving the sync
        // skipped the (unchanged) entry instead of re-copying it.
        let sentinel = Watts::new(-12345.0);
        buf.entries_mut()[0].1.total_ac = sentinel;
        farm.sense_into(&mut buf);
        assert_eq!(buf.entries()[0].1.total_ac, sentinel);

        // Change that server for real: the next sync re-copies its entry
        // (overwriting the sentinel) while reusing the entry's per-supply
        // heap allocation rather than re-allocating it.
        let sa = topo.server_by_name("SA").unwrap();
        let slot = farm.index_of(sa).unwrap();
        let ptr_before = buf.entries()[slot].1.supply_ac.as_ptr();
        farm.get_mut(sa).unwrap().set_offered_demand(Watts::new(260.0));
        farm.get_mut(sa).unwrap().settle();
        farm.sense_into(&mut buf);
        assert_ne!(buf.entries()[slot].1.total_ac, sentinel);
        assert_eq!(
            buf.entries()[slot].1,
            farm.get(sa).unwrap().sense(),
            "re-copied entry must match a fresh sense"
        );
        assert_eq!(
            buf.entries()[slot].1.supply_ac.as_ptr(),
            ptr_before,
            "re-copy must reuse the entry's existing allocation"
        );
    }

    #[test]
    fn global_priority_protects_sa_end_to_end() {
        let (topo, mut farm, mut plane) = fig2_plane(PolicyKind::GlobalPriority);
        run_periods(&mut plane, &mut farm, 8);
        let sa = topo.server_by_name("SA").unwrap();
        let sb = topo.server_by_name("SB").unwrap();
        // SA runs essentially unthrottled; SB is pushed near cap_min.
        assert!(
            farm.get(sa).unwrap().performance_fraction().as_f64() > 0.97,
            "SA perf {}",
            farm.get(sa).unwrap().performance_fraction()
        );
        let sb_power = farm.get(sb).unwrap().sense().total_ac;
        assert!(
            sb_power < Watts::new(300.0),
            "SB should be capped, at {sb_power}"
        );
    }

    #[test]
    fn total_power_respects_contractual_budget() {
        let (_, mut farm, mut plane) = fig2_plane(PolicyKind::GlobalPriority);
        run_periods(&mut plane, &mut farm, 10);
        let total: Watts = farm.iter().map(|(_, s)| s.sense().total_ac).sum();
        assert!(
            total <= Watts::new(1240.0) * 1.02,
            "total power {total} exceeds the 1240 W budget"
        );
    }

    #[test]
    fn no_priority_caps_everyone_equally() {
        let (topo, mut farm, mut plane) = fig2_plane(PolicyKind::NoPriority);
        run_periods(&mut plane, &mut farm, 8);
        let powers: Vec<f64> = topo
            .servers()
            .map(|(id, _)| farm.get(id).unwrap().sense().total_ac.as_f64())
            .collect();
        let min = powers.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = powers.iter().cloned().fold(0.0, f64::max);
        assert!(max - min < 15.0, "powers should be similar: {powers:?}");
    }

    #[test]
    fn fail_feed_removes_trees() {
        let topo = figure7a_rig();
        let trees: Vec<ControlTree> = topo
            .control_tree_specs()
            .into_iter()
            .map(ControlTree::new)
            .collect();
        assert_eq!(trees.len(), 2);
        let mut plane = ControlPlane::new(
            trees,
            vec![Watts::new(700.0), Watts::new(700.0)],
            PlaneConfig::default(),
        );
        let removed = plane.fail_feed(FeedId::B);
        assert_eq!(removed, 1);
        assert_eq!(plane.trees().len(), 1);
        plane.set_root_budgets(vec![Watts::new(1400.0)]);
    }

    #[test]
    fn round_report_exposes_budgets() {
        let (topo, mut farm, mut plane) = fig2_plane(PolicyKind::GlobalPriority);
        plane.record_sample(&farm);
        let report = plane.round(&mut farm).clone();
        let sa = topo.server_by_name("SA").unwrap();
        assert!(report.supply_budget(sa, SupplyIndex::FIRST).is_some());
        assert!(report.server_budget(sa) > Watts::ZERO);
        assert_eq!(report.dc_caps.len(), 4);
        assert_eq!(report.stranded_reclaimed, Watts::ZERO); // SPO off
    }

    #[test]
    fn supply_budget_index_matches_linear_scan_across_trees() {
        // Fig. 7a rig: two trees with SC/SD present in BOTH (dual-corded),
        // so the precomputed index must reproduce the first-tree-wins
        // semantics of the linear scan it replaced — including after a
        // feed failure reshapes the tree set and forces a rebuild.
        let topo = figure7a_rig();
        let trees: Vec<ControlTree> = topo
            .control_tree_specs()
            .into_iter()
            .map(ControlTree::new)
            .collect();
        let mut farm = Farm::new();
        for (id, info) in topo.servers() {
            let bank = match info.name() {
                "SA" | "SB" => capmaestro_server::PsuBank::balanced(1, Ratio::new(0.94)),
                _ => capmaestro_server::PsuBank::dual(0.5, Ratio::new(0.94)),
            };
            let mut server = Server::new(ServerConfig::paper_default().with_bank(bank));
            server.set_offered_demand(Watts::new(420.0));
            server.settle();
            farm.insert(id, server);
        }
        let servers: Vec<ServerId> = farm.iter().map(|(id, _)| id).collect();
        let mut plane = ControlPlane::new(
            trees,
            vec![Watts::new(700.0), Watts::new(700.0)],
            PlaneConfig::default().with_spo(true),
        );

        let check = |report: &RoundReport, servers: &[ServerId], when: &str| {
            assert!(report.index_is_current(), "{when}: index should be fresh");
            let mut covered = 0usize;
            for &server in servers {
                for supply in [SupplyIndex::FIRST, SupplyIndex::SECOND] {
                    let indexed = report.supply_budget(server, supply);
                    let scanned = report
                        .allocations
                        .iter()
                        .find_map(|a| a.supply_budget(server, supply));
                    assert_eq!(
                        indexed.map(|w| w.as_f64().to_bits()),
                        scanned.map(|w| w.as_f64().to_bits()),
                        "{when}: {server} {supply:?}"
                    );
                    covered += usize::from(indexed.is_some());
                }
            }
            assert!(covered > 0, "{when}: rig should cover some supplies");
        };

        plane.record_sample(&farm);
        let report = plane.round(&mut farm).clone();
        check(&report, &servers, "initial round");

        // Feed failure drops a tree: slot layouts change and the cloned
        // report's index must rebuild rather than serve stale slots.
        plane.fail_feed(FeedId::B);
        plane.set_root_budgets(vec![Watts::new(1400.0)]);
        farm.for_each_mut(|_, _, mut server| {
            let bank = server.bank_mut();
            if bank.len() == 2 {
                bank.fail_supply(1);
            }
        });
        plane.record_sample(&farm);
        let report = plane.round(&mut farm).clone();
        check(&report, &servers, "post-failover round");
    }

    #[test]
    fn demand_estimation_converges_under_capping() {
        // Even while capped, the estimator should keep a demand estimate
        // well above the measured (throttled) power.
        let (topo, mut farm, mut plane) = fig2_plane(PolicyKind::GlobalPriority);
        run_periods(&mut plane, &mut farm, 12);
        let sb = topo.server_by_name("SB").unwrap();
        let measured = farm.get(sb).unwrap().sense().total_ac;
        let estimate = plane.demand_estimate(sb, &farm);
        assert!(
            estimate > measured + Watts::new(20.0),
            "estimate {estimate} should exceed measured {measured}"
        );
    }

    #[test]
    fn shared_budget_splits_by_demand_and_fails_over() {
        use crate::plane::BudgetSource;
        // Fig. 7a rig: SA (414 W) on feed A, SB (415 W) on feed B, SC/SD on
        // both. Shared phase budget 1400 W.
        let topo = figure7a_rig();
        let trees: Vec<ControlTree> = topo
            .control_tree_specs()
            .into_iter()
            .map(ControlTree::new)
            .collect();
        let mut farm = Farm::new();
        for (id, info) in topo.servers() {
            let split = match info.name() {
                "SA" | "SB" => 1.0,
                _ => 0.5,
            };
            let bank = if split == 1.0 {
                capmaestro_server::PsuBank::balanced(1, Ratio::new(0.94))
            } else {
                capmaestro_server::PsuBank::dual(0.5, Ratio::new(0.94))
            };
            let mut server = Server::new(ServerConfig::paper_default().with_bank(bank));
            server.set_offered_demand(Watts::new(420.0));
            server.settle();
            farm.insert(id, server);
        }
        let mut plane = ControlPlane::with_budget_source(
            trees,
            BudgetSource::SharedPerPhase(Watts::new(1400.0)),
            PlaneConfig::default()
                .with_policy(PolicyKind::GlobalPriority)
                .with_spo(false),
        );
        plane.record_sample(&farm);
        let report = plane.round(&mut farm).clone();
        // Both feeds' allocations together must not exceed the shared
        // phase budget.
        let total: Watts = report
            .allocations
            .iter()
            .map(|a| a.total_leaf_budget())
            .sum();
        assert!(total <= Watts::new(1400.0) * 1.001, "total {total}");
        // Feed A carries SA + halves of SC/SD: roughly 420 + 420 = 840 of
        // the 1680 W demand, so its share should exceed feed B's... they
        // are symmetric here (SA vs SB), so shares are near equal.
        // Now feed B dies: the survivor inherits the whole 1400 W without
        // any operator action.
        plane.fail_feed(FeedId::B);
        farm.for_each_mut(|_, _, mut server| {
            let bank = server.bank_mut();
            if bank.len() == 2 {
                bank.fail_supply(1);
            }
        });
        plane.record_sample(&farm);
        let report = plane.round(&mut farm).clone();
        let total_after: Watts = report
            .allocations
            .iter()
            .map(|a| a.total_leaf_budget())
            .sum();
        // SA + SC + SD demand ~420 each on the surviving feed: the shared
        // budget lets them all run uncapped (1260 < 1400).
        assert!(
            total_after > Watts::new(1200.0),
            "survivor should inherit the shared budget, got {total_after}"
        );
    }

    /// Runs `periods` control periods during which `dark` servers deliver
    /// no telemetry (their snapshots are withheld from the plane).
    fn run_periods_with_dropped(
        plane: &mut ControlPlane,
        farm: &mut Farm,
        periods: usize,
        dark: &[ServerId],
    ) {
        for _ in 0..periods {
            for _ in 0..8 {
                let snaps: Vec<(ServerId, SensorSnapshot)> = farm
                    .sense_all()
                    .into_iter()
                    .filter(|(id, _)| !dark.contains(id))
                    .collect();
                plane.record_snapshots(farm, &snaps);
                farm.step_all(Seconds::new(1.0));
            }
            plane.round(farm);
        }
    }

    #[test]
    fn dropped_telemetry_degrades_to_fail_safe_cap() {
        let (topo, mut farm, mut plane) = fig2_plane(PolicyKind::GlobalPriority);
        let sb = topo.server_by_name("SB").unwrap();
        run_periods(&mut plane, &mut farm, 4);
        assert!(!plane.is_stale(sb));

        // SB's readings stop being delivered. For stale_after_rounds − 1
        // rounds the plane stale-holds on the last estimate…
        run_periods_with_dropped(&mut plane, &mut farm, 2, &[sb]);
        assert!(!plane.is_stale(sb), "stale-hold bridge, not yet stale");

        // …then SB is declared stale and clamped to fail-safe (cap_min).
        run_periods_with_dropped(&mut plane, &mut farm, 2, &[sb]);
        assert!(plane.is_stale(sb));
        assert_eq!(plane.stale_servers(), vec![sb]);
        let model = farm.get(sb).unwrap().config().model();
        let eff = farm.get(sb).unwrap().bank().efficiency();
        let dc_cap = farm.get(sb).unwrap().dc_cap().unwrap();
        assert!(
            (dc_cap.as_f64() - (model.cap_min() * eff).as_f64()).abs() < 1e-9,
            "stale server should be clamped to cap_min DC, got {dc_cap}"
        );
    }

    #[test]
    fn stale_server_rejoins_budgeting_after_telemetry_returns() {
        let (topo, mut farm, mut plane) = fig2_plane(PolicyKind::GlobalPriority);
        let sb = topo.server_by_name("SB").unwrap();
        run_periods(&mut plane, &mut farm, 4);
        let healthy_cap = farm.get(sb).unwrap().dc_cap().unwrap();

        run_periods_with_dropped(&mut plane, &mut farm, 4, &[sb]);
        assert!(plane.is_stale(sb));

        // Telemetry returns: freshness clears on the next round, and the
        // cleared estimator re-learns the demand within two rounds.
        run_periods(&mut plane, &mut farm, 2);
        assert!(!plane.is_stale(sb));
        let recovered_cap = farm.get(sb).unwrap().dc_cap().unwrap();
        assert!(
            (recovered_cap.as_f64() - healthy_cap.as_f64()).abs()
                < 0.02 * healthy_cap.as_f64(),
            "cap should recover within 2% of {healthy_cap}, got {recovered_cap}"
        );
    }

    /// A server inserted between rounds shifts every slot after it; each
    /// lane must follow its server, so the grown plane decides exactly
    /// like a twin whose farm never saw the insert.
    #[test]
    fn lanes_follow_their_servers_when_the_farm_grows_between_rounds() {
        let extra = |demand: f64| {
            let mut server = Server::new(ServerConfig::paper_default().single_corded());
            server.set_offered_demand(Watts::new(demand));
            server.settle();
            server
        };
        let (quiet, dark, late) = (ServerId(100), ServerId(300), ServerId(200));
        let mut rigs = [
            fig2_plane(PolicyKind::GlobalPriority),
            fig2_plane(PolicyKind::GlobalPriority),
        ];
        let sb = rigs[0].0.server_by_name("SB").unwrap();
        for (_, farm, plane) in &mut rigs {
            farm.insert(quiet, extra(350.0));
            farm.insert(dark, extra(380.0));
            run_periods(plane, farm, 2);
            run_periods_with_dropped(plane, farm, 3, &[sb, dark]);
        }
        // Only the first farm grows, in a slot before `dark`.
        rigs[0].1.insert(late, extra(300.0));
        for (_, farm, plane) in &mut rigs {
            run_periods_with_dropped(plane, farm, 2, &[sb, dark]);
        }
        let [(_, farm, plane), (_, twin_farm, twin)] = &rigs;
        assert_eq!(plane.stale_servers(), vec![sb, dark]);
        assert_eq!(plane.stale_servers(), twin.stale_servers());
        for &id in twin_farm.ids() {
            let bits = |w: Watts| w.as_f64().to_bits();
            assert_eq!(
                bits(plane.demand_estimate(id, farm)),
                bits(twin.demand_estimate(id, twin_farm)),
                "estimate of {id}"
            );
            let cap = |f: &Farm| f.get(id).unwrap().dc_cap().map(bits);
            assert_eq!(cap(farm), cap(twin_farm), "cap of {id}");
        }
        // The newcomer starts from empty state and is tracked from there.
        assert!(!plane.is_stale(late));
        let estimate = plane.demand_estimate(late, farm).as_f64();
        assert!((estimate - 300.0).abs() < 1.0, "newcomer estimate {estimate}");
    }

    #[test]
    fn implausible_readings_count_as_missing_telemetry() {
        let (topo, mut farm, mut plane) = fig2_plane(PolicyKind::GlobalPriority);
        let sb = topo.server_by_name("SB").unwrap();
        run_periods(&mut plane, &mut farm, 2);
        // SB's sensor goes insane: 10 kW readings, screened out.
        for _ in 0..4 {
            for _ in 0..8 {
                let snaps: Vec<(ServerId, SensorSnapshot)> = farm
                    .sense_all()
                    .into_iter()
                    .map(|(id, snap)| {
                        if id == sb {
                            (id, snap.scaled(25.0))
                        } else {
                            (id, snap)
                        }
                    })
                    .collect();
                plane.record_snapshots(&farm, &snaps);
                farm.step_all(Seconds::new(1.0));
            }
            plane.round(&mut farm);
        }
        assert!(
            plane.is_stale(sb),
            "garbage readings must degrade like silence"
        );
    }

    #[test]
    fn fail_safe_demand_is_configurable() {
        let (topo, mut farm, mut plane) = fig2_plane(PolicyKind::GlobalPriority);
        let sb = topo.server_by_name("SB").unwrap();
        plane.set_staleness(
            StalenessConfig::default()
                .with_stale_after_rounds(1)
                .with_fail_safe_demand(Some(Watts::new(300.0))),
        );
        run_periods(&mut plane, &mut farm, 2);
        run_periods_with_dropped(&mut plane, &mut farm, 2, &[sb]);
        assert!(plane.is_stale(sb));
        let eff = farm.get(sb).unwrap().bank().efficiency();
        let dc_cap = farm.get(sb).unwrap().dc_cap().unwrap();
        assert!(
            (dc_cap.as_f64() - (Watts::new(300.0) * eff).as_f64()).abs() < 1e-9,
            "configured fail-safe demand should set the cap, got {dc_cap}"
        );
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_stale_after_rejected() {
        let (_, _, mut plane) = fig2_plane(PolicyKind::GlobalPriority);
        plane.set_staleness(StalenessConfig {
            stale_after_rounds: 0,
            fail_safe_demand: None,
        });
    }

    #[test]
    #[should_panic(expected = "one root budget per control tree")]
    fn mismatched_budget_count_panics() {
        let topo = figure2_feed();
        let trees: Vec<ControlTree> = topo
            .control_tree_specs()
            .into_iter()
            .map(ControlTree::new)
            .collect();
        let _ = ControlPlane::new(trees, vec![], PlaneConfig::default());
    }
}
