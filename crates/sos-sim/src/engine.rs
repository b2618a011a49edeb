//! The Monte Carlo trial runner.
//!
//! A *trial* is one attacked overlay: build a fresh overlay from the
//! scenario, execute the configured attack on it, then fire
//! `routes_per_trial` client messages through the wreckage and count
//! deliveries. The empirical `P_S` is the delivery fraction over all
//! trials; a Wilson interval quantifies the Monte Carlo error.
//!
//! Trials are seeded as `seed ⊕ trial-index`, so results are
//! reproducible and independent of the number of worker threads.
//!
//! The runner is *zero-rebuild*: each worker owns a `TrialScratch`
//! whose overlay, Chord ring, member list and route buffers are built
//! once and then rebuilt in place ([`Overlay::build_into`],
//! [`ChordRing::build_into`]) — the steady-state trial loop performs no
//! overlay/ring/routing heap allocation. Every run — `run`,
//! `run_parallel`, `run_traced` — goes through one driver whose
//! workers pull trial batches from an atomic work-stealing queue
//! (`TrialQueue`), so a worker that lands cheap trials steals more
//! work instead of idling; seeding stays per-trial and batch partials
//! merge in trial order, so the result is byte-identical for every
//! runner at any thread count and any [`ExecOptions`].

use crate::route_batch::RouteBatchScratch;
use crate::routing::{RouteIncident, RouteIncidentKind, RouteScratch, RoutingPolicy};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use sos_attack::{OneBurstAttacker, SuccessiveAttacker};
use sos_core::{AttackConfig, PathEvaluator, Scenario};
use sos_faults::{Fallback, FaultConfig, FaultPlan, HopIncident, RetryPolicy};
use sos_math::stats::{proportion_ci, ConfidenceInterval, RunningStats, SummaryStats};
use sos_observe::telemetry::{self, PhaseKind, PhaseTimer};
use sos_observe::{Event, EventKind, FallbackMode, FaultClass, MetricsRegistry, Phase, Recorder};
use sos_overlay::{ChordRing, NodeBitSet, NodeId, Overlay, Transport};

/// Stream tags for [`trial_stream_seed`]: each per-trial RNG stream is
/// keyed by one of these, so streams are mutually decorrelated and a
/// consumer that *skips* one stream (a memoized build, a disabled
/// trace) cannot perturb any other.
pub mod stream {
    /// Overlay construction (membership + neighbor tables).
    pub const OVERLAY_BUILD: u64 = 1;
    /// Chord ring construction (ring ids).
    pub const RING_BUILD: u64 = 2;
    /// Attack execution and message routing.
    pub const ATTACK: u64 = 3;
    /// Traced-run Chord lookup sampling (observability only).
    pub const TRACE: u64 = 4;
    /// Per-route message-routing lanes: each route of a trial draws from
    /// its own sub-stream keyed twice through this tag (see
    /// [`route_lane_seed`](super::route_lane_seed)), so the batched
    /// route kernel's lane order and batch width cannot perturb draws.
    pub const ROUTE: u64 = 5;
}

/// The seed of one `(master seed, stream, trial)` RNG stream: a
/// splitmix64-mixed key (see [`sos_math::sampling::stream_seed`]).
///
/// This is *the* derivation the trial runner uses; `sos-bench`'s
/// reference oracle re-derives the same streams through this function,
/// so a mismatch is impossible by construction. Unlike the old
/// `seed ^ trial * C` scheme, trial 0 of distinct streams no longer
/// collapses to the master seed.
pub fn trial_stream_seed(seed: u64, stream: u64, trial: u64) -> u64 {
    sos_math::sampling::stream_seed(seed, stream, trial)
}

/// The RNG seed of one route lane: the trial's `ROUTE` master stream
/// (`trial_stream_seed(seed, stream::ROUTE, trial)`) keyed once more by
/// the route index. Every route of every trial owns an independent
/// splitmix64 sub-stream, so evaluating routes in lanes, in chunks, or
/// one at a time consumes exactly the same draws per route.
///
/// Like [`trial_stream_seed`], this is *the* derivation — `sos-bench`'s
/// scalar reference oracle calls this same function.
pub fn route_lane_seed(seed: u64, trial: u64, route: u64) -> u64 {
    sos_math::sampling::stream_seed(
        trial_stream_seed(seed, stream::ROUTE, trial),
        stream::ROUTE,
        route,
    )
}

/// The production route-kernel batch width: the
/// [`ExecOptions::route_width`] every run uses unless told otherwise.
pub fn route_batch_width() -> usize {
    ExecOptions::default().route_width
}

/// How a [`Simulation`] evaluates its trials — never *what* they
/// compute. Every setting gives byte-identical results (pinned by
/// tests), which is why these live outside [`SimulationConfig`]:
/// fingerprints and cache keys cannot see them. The default is the
/// production setting; the others exist for benchmarks and for proving
/// exactly that purity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecOptions {
    /// Lanes of the batched route kernel (clamped to at least 1).
    /// Width 1 routes every lane through the scalar
    /// [`routing::route_message`](crate::routing::route_message)
    /// oracle; each route draws from its own [`route_lane_seed`]
    /// sub-stream, so the width cannot perturb draws.
    pub route_width: usize,
    /// Per-worker build memoization: sweep points sharing a structural
    /// configuration reuse built overlays/rings at equal trial indices.
    /// Off forces every trial to rebuild from scratch.
    pub build_reuse: bool,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            route_width: 64,
            build_reuse: true,
        }
    }
}

/// Which transport realizes each overlay hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// Direct messages — the paper's abstraction.
    #[default]
    Direct,
    /// Chord-routed hops (a fresh ring per trial, covering all overlay
    /// nodes).
    Chord,
}

impl TransportKind {
    /// Stable label for CSV output.
    pub fn label(&self) -> &'static str {
        match self {
            TransportKind::Direct => "direct",
            TransportKind::Chord => "chord",
        }
    }
}

/// Configuration of a Monte Carlo estimate.
///
/// Fields are crate-visible so the sweep executor ([`crate::sweep`])
/// can fingerprint a config without round-tripping through builders.
#[derive(Debug, Clone)]
pub struct SimulationConfig {
    pub(crate) scenario: Scenario,
    pub(crate) attack: AttackConfig,
    pub(crate) policy: RoutingPolicy,
    pub(crate) transport: TransportKind,
    pub(crate) trials: u64,
    pub(crate) routes_per_trial: u64,
    pub(crate) seed: u64,
    pub(crate) monitoring_tap: Option<f64>,
    pub(crate) faults: FaultConfig,
    pub(crate) retry: RetryPolicy,
}

impl SimulationConfig {
    /// Creates a config with defaults: 100 trials × 100 routes, direct
    /// transport, random-good routing, seed 0.
    pub fn new(scenario: Scenario, attack: AttackConfig) -> Self {
        SimulationConfig {
            scenario,
            attack,
            policy: RoutingPolicy::default(),
            transport: TransportKind::default(),
            trials: 100,
            routes_per_trial: 100,
            seed: 0,
            monitoring_tap: None,
            faults: FaultConfig::none(),
            retry: RetryPolicy::none(),
        }
    }

    /// Upgrades a successive attack to the traffic-monitoring attacker
    /// (§5 future work) with the given tap probability.
    ///
    /// # Panics
    ///
    /// Panics if the configured attack is not
    /// [`AttackConfig::Successive`] (the monitoring extension is
    /// defined on the round-based model) or `tap` is outside `[0, 1]`.
    pub fn monitoring_tap(mut self, tap: f64) -> Self {
        assert!(
            matches!(self.attack, AttackConfig::Successive { .. }),
            "monitoring requires the successive attack model"
        );
        assert!((0.0..=1.0).contains(&tap), "tap probability out of range");
        self.monitoring_tap = Some(tap);
        self
    }

    /// Sets the routing policy.
    pub fn policy(mut self, policy: RoutingPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the transport kind.
    pub fn transport(mut self, transport: TransportKind) -> Self {
        self.transport = transport;
        self
    }

    /// Sets the number of independent attacked overlays.
    ///
    /// # Panics
    ///
    /// Panics if `trials == 0`.
    pub fn trials(mut self, trials: u64) -> Self {
        assert!(trials > 0, "at least one trial is required");
        self.trials = trials;
        self
    }

    /// Sets the number of client messages routed per trial.
    ///
    /// # Panics
    ///
    /// Panics if `routes == 0`.
    pub fn routes_per_trial(mut self, routes: u64) -> Self {
        assert!(routes > 0, "at least one route per trial is required");
        self.routes_per_trial = routes;
        self
    }

    /// Sets the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables deterministic benign-fault injection (`sos-faults`).
    ///
    /// With [`FaultConfig::none`] (the default) the fault plane is never
    /// built and results are bit-identical to a fault-free build.
    pub fn faults(mut self, faults: FaultConfig) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the per-hop retry/backoff policy applied when faults are
    /// enabled. Without faults the policy is inert.
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// The scenario under test.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// The attack under test.
    pub fn attack(&self) -> &AttackConfig {
        &self.attack
    }

    /// The configured number of independent attacked overlays.
    pub fn configured_trials(&self) -> u64 {
        self.trials
    }
}

/// A configured Monte Carlo estimator.
#[derive(Debug, Clone)]
pub struct Simulation {
    config: SimulationConfig,
    exec: ExecOptions,
}

/// The aggregates of a run of trials — one batch, or a merge of
/// batches. `metrics` stays empty unless the run was traced.
#[derive(Debug, Default, Clone)]
pub(crate) struct Partial {
    successes: u64,
    attempts: u64,
    per_trial: RunningStats,
    hyper_ps: RunningStats,
    binom_ps: RunningStats,
    hops: RunningStats,
    /// failure_depths[d] = routes that died having reached layer d
    /// (0 = no usable entry point; L+1 unused — those delivered).
    failure_depths: Vec<u64>,
    metrics: MetricsRegistry,
}

/// Chord lookups sampled per trial in traced runs (drawn from the ring
/// stream, so the attack/routing stream — and therefore the result —
/// is identical to an untraced run).
const TRACED_LOOKUP_SAMPLES: usize = 8;

/// Records `kind` at tick `*t` and advances the tick. The tick advances
/// even when the recorder is disabled so metrics that measure phase
/// durations in ticks stay recorder-independent.
fn emit(recorder: &dyn Recorder, t: &mut u64, trial: u64, kind: EventKind) {
    if recorder.enabled() {
        recorder.record(Event::new(*t, trial, kind));
    }
    *t += 1;
}

/// Maps one routing-layer fault/retry/downgrade incident onto the
/// `sos-observe` event taxonomy and the fault-plane metric counters.
fn emit_incident(
    recorder: &dyn Recorder,
    metrics: &mut MetricsRegistry,
    t: &mut u64,
    trial: u64,
    incident: &RouteIncident,
) {
    let (from, to) = (incident.from, incident.to);
    let kind = match incident.kind {
        RouteIncidentKind::Hop(hop) => match hop {
            HopIncident::Loss { .. } => {
                Some(EventKind::FaultInjected { from, to, fault: FaultClass::Loss, ticks: 0 })
            }
            HopIncident::Delay { ticks } => {
                Some(EventKind::FaultInjected { from, to, fault: FaultClass::Delay, ticks })
            }
            HopIncident::CrashedDestination | HopIncident::CrashedRoute => {
                Some(EventKind::FaultInjected { from, to, fault: FaultClass::Crash, ticks: 0 })
            }
            HopIncident::Slow { ticks } => {
                Some(EventKind::FaultInjected { from, to, fault: FaultClass::Slow, ticks })
            }
            HopIncident::Misroute { .. } => {
                Some(EventKind::FaultInjected { from, to, fault: FaultClass::Misroute, ticks: 0 })
            }
            HopIncident::Retry { attempt, backoff } => {
                Some(EventKind::HopRetry { from, to, attempt, backoff })
            }
            // A spent deadline is already implied by the lack of further
            // retries; it carries no event of its own.
            HopIncident::DeadlineExhausted { .. } => None,
        },
        RouteIncidentKind::Downgrade { fallback, recovered } => {
            let fallback = match fallback {
                Fallback::SuccessorWalk => FallbackMode::SuccessorWalk,
                Fallback::AlternateNeighbor => FallbackMode::AlternateNeighbor,
            };
            Some(EventKind::RouteDowngrade { from, to, fallback, recovered })
        }
    };
    if matches!(kind, Some(EventKind::FaultInjected { .. })) {
        metrics.counter("faults_injected").inc();
    }
    if let Some(kind) = kind {
        emit(recorder, t, trial, kind);
    }
}

/// Bucket upper bounds for hop-count histograms (direct routes take
/// `L + 1` hops; Chord transport multiplies that by the lookup path).
fn hop_bounds() -> Vec<f64> {
    (1..=32).map(|h| h as f64).collect()
}

/// Bucket upper bounds for per-trial delivery fractions.
fn delivery_bounds() -> Vec<f64> {
    (1..=10).map(|i| i as f64 / 10.0).collect()
}

/// Geometric bucket upper bounds for phase durations in logical ticks.
fn tick_bounds() -> Vec<f64> {
    (3..=14).map(|p| (1u64 << p) as f64).collect()
}

/// Default worker count for parallel runs: the machine's available
/// parallelism, clamped to 16 (beyond that the merge mutex and memory
/// bandwidth dominate), falling back to 4 when it cannot be queried.
///
/// Shared by the CLI (`--threads` default) and [`compare_models`]
/// (which has no thread knob of its own).
///
/// [`compare_models`]: crate::compare::compare_models
pub fn num_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(16)
}

/// One memoized build: an overlay (plus the Chord substrate, once a
/// Chord config has used the slot) keyed by the build-stream seeds that
/// produced it. A sweep whose points share a structural configuration
/// revisits the same `(overlay_seed, scenario)` key at every trial
/// index — the slot answers those trials with a status reset instead of
/// a rebuild.
struct BuildSlot {
    /// The overlay-build stream seed this slot's overlay was built from.
    overlay_seed: u64,
    /// The scenario the overlay was built for (memo key confirmation —
    /// seeds collide across sweep points by design, scenarios disambiguate).
    scenario: Scenario,
    overlay: Overlay,
    /// The ring-build stream seed of `chord` (meaningless while `None`).
    ring_seed: u64,
    /// Chord substrate over `overlay`'s SOS membership; kept when a
    /// Direct config borrows the slot so a later Chord config still
    /// reuses it. Always the `Transport::Chord` variant when `Some`.
    chord: Option<Transport>,
    /// `overlay.overlay_ids()`, collected once per membership.
    members: Vec<NodeId>,
    /// LRU clock value of the slot's last use.
    last_used: u64,
    /// Whether this build ever answered a lookup. Misses evict the
    /// most recently used *never-hit* slot first: a single-config run
    /// (every trial a distinct seed, no hits possible) then churns one
    /// cache-hot slot exactly like the old single-scratch engine,
    /// instead of round-robining 8 cold multi-MB slots. Slots that
    /// have produced hits are kept until no unproven slot remains.
    hit: bool,
}

/// Memo slots for a *persistent* worker scratch (the sweep pool, whose
/// workers outlive points): sweeps interleave trial batches of many
/// points on one worker, and hits happen when a later point replays a
/// trial index of an earlier structurally identical one — 8 slots
/// cover several resident trial indices per structural group.
///
/// One-shot scratches ([`TrialScratch::new`], used by `run` /
/// `run_parallel`) cap at **one** slot instead: within a single config
/// every trial has a distinct build seed, so extra slots can never
/// hit — they would only spread the working set over `BUILD_SLOTS`
/// cold multi-MB builds and pay `BUILD_SLOTS` fresh allocations where
/// the old single-scratch engine paid one (measured 2.6× slower on
/// the 10k-node Chord workload).
const BUILD_SLOTS: usize = 8;

/// Per-worker reusable trial state: memoized builds (overlay + Chord
/// substrate), the ring liveness mask, and the routing buffers. Built on
/// the first trial, reused or rebuilt in place on every subsequent one —
/// the allocations survive, the contents do not (unless the memo proves
/// they are already right).
///
/// The remaining per-trial allocations are the attacker's knowledge and
/// trace (owned by the attack outcome, which outlives the trial for
/// observability) and backtracking path frames; everything on the
/// overlay/ring/routing hot path is reused.
pub(crate) struct TrialScratch {
    slots: Vec<BuildSlot>,
    /// Slot budget: 1 for one-shot scratches, [`BUILD_SLOTS`] for
    /// persistent pool workers (see the [`BUILD_SLOTS`] doc).
    cap: usize,
    /// Monotone use counter driving LRU eviction.
    clock: u64,
    /// The transport value Direct configs route through (slots keep
    /// their Chord substrate even while a Direct config runs).
    direct: Transport,
    /// Position-indexed ring liveness for the batched route kernel,
    /// refreshed once per trial after attack damage lands.
    ring_alive: NodeBitSet,
    route: RouteScratch,
    /// Per-lane state of the batched route kernel (lane RNGs, candidate
    /// buffers, results, the per-trial Chord hop memo).
    batch: RouteBatchScratch,
}

impl TrialScratch {
    /// One-shot scratch (single `run`/`run_parallel` call): one build
    /// slot, i.e. the classic rebuild-in-place engine.
    pub(crate) fn new() -> Self {
        Self::with_cap(1)
    }

    /// Persistent scratch for pool workers that live across sweep
    /// points: the full memo, so structurally identical points reuse
    /// each other's builds.
    pub(crate) fn persistent() -> Self {
        Self::with_cap(BUILD_SLOTS)
    }

    fn with_cap(cap: usize) -> Self {
        TrialScratch {
            slots: Vec::new(),
            cap,
            clock: 0,
            direct: Transport::Direct,
            ring_alive: NodeBitSet::new(),
            route: RouteScratch::new(),
            batch: RouteBatchScratch::new(),
        }
    }

    /// Produces this trial's overlay + transport, reusing a memoized
    /// build when one matches. Returns disjoint borrows of the overlay,
    /// the transport to route through, the ring membership, the route
    /// scratch and the liveness mask.
    ///
    /// Reuse tiers (all bit-identical to a fresh build, pinned by
    /// `sos-overlay` tests):
    /// * exact hit (same overlay seed, equal scenario) — reset statuses,
    ///   skip both builds;
    /// * delta hit (same overlay seed, structure-preserving scenario
    ///   change, e.g. a different mapping degree) — keep membership,
    ///   re-roll only the neighbor tables;
    /// * miss — evict the least-recently-used slot and rebuild into its
    ///   allocations.
    ///
    /// The Chord substrate is reused whenever the membership carried
    /// over and the ring seed matches; otherwise it is rebuilt in place.
    #[allow(clippy::type_complexity)]
    fn prepare(
        &mut self,
        cfg: &SimulationConfig,
        reuse: bool,
        overlay_seed: u64,
        ring_seed: u64,
    ) -> (
        &mut Overlay,
        &mut Transport,
        &[NodeId],
        &mut RouteScratch,
        &mut NodeBitSet,
        &mut RouteBatchScratch,
    ) {
        self.clock += 1;
        // Exact key first; a structure-preserving delta only as a
        // fallback (an exact slot needs no neighbor re-roll at all).
        let hit = if reuse {
            self.slots
                .iter()
                .position(|s| s.overlay_seed == overlay_seed && s.scenario == cfg.scenario)
                .or_else(|| {
                    self.slots.iter().position(|s| {
                        s.overlay_seed == overlay_seed
                            && s.overlay.structure_matches(&cfg.scenario)
                    })
                })
        } else {
            None
        };
        let membership_carried = hit.is_some();
        let idx = match hit {
            Some(idx) => {
                let slot = &mut self.slots[idx];
                if slot.scenario == cfg.scenario {
                    // Exact: the build would reproduce this overlay bit
                    // for bit; clearing the attack damage is enough.
                    slot.overlay.reset_statuses();
                } else {
                    // Delta: membership layout survives, only the
                    // neighbor tables depend on the changed knob.
                    let mut rng = StdRng::seed_from_u64(overlay_seed);
                    slot.overlay.rebuild_neighbors_only(&cfg.scenario, &mut rng);
                    slot.scenario.clone_from(&cfg.scenario);
                }
                self.slots[idx].hit = true;
                if let Some(t) = telemetry::slot() {
                    t.add_build_reused();
                }
                idx
            }
            None => {
                let mut rng = StdRng::seed_from_u64(overlay_seed);
                let idx = if self.slots.len() < self.cap {
                    self.slots.push(BuildSlot {
                        overlay_seed,
                        scenario: cfg.scenario.clone(),
                        overlay: Overlay::build(&cfg.scenario, &mut rng),
                        ring_seed: 0,
                        chord: None,
                        members: Vec::new(),
                        last_used: 0,
                        hit: false,
                    });
                    self.slots.len() - 1
                } else {
                    // Prefer the most recently used never-hit slot (see
                    // `BuildSlot::hit`); LRU only among proven slots.
                    let idx = self
                        .slots
                        .iter()
                        .enumerate()
                        .filter(|(_, s)| !s.hit)
                        .max_by_key(|(_, s)| s.last_used)
                        .or_else(|| {
                            self.slots
                                .iter()
                                .enumerate()
                                .min_by_key(|(_, s)| s.last_used)
                        })
                        .map(|(i, _)| i)
                        .expect("slots are non-empty");
                    let slot = &mut self.slots[idx];
                    slot.overlay_seed = overlay_seed;
                    slot.scenario.clone_from(&cfg.scenario);
                    slot.overlay.build_into(&cfg.scenario, &mut rng);
                    slot.hit = false;
                    idx
                };
                self.slots[idx].members.clear();
                idx
            }
        };
        let slot = &mut self.slots[idx];
        slot.last_used = self.clock;
        if cfg.transport == TransportKind::Chord {
            if slot.members.is_empty() {
                slot.members.extend(slot.overlay.overlay_ids());
            }
            let ring_ok =
                membership_carried && slot.ring_seed == ring_seed && slot.chord.is_some();
            if !ring_ok {
                let mut ring_rng = StdRng::seed_from_u64(ring_seed);
                match &mut slot.chord {
                    Some(Transport::Chord(ring)) => {
                        ring.build_into(&mut ring_rng, &slot.members);
                    }
                    _ => {
                        slot.chord = Some(Transport::Chord(ChordRing::build(
                            &mut ring_rng,
                            &slot.members,
                        )));
                    }
                }
                slot.ring_seed = ring_seed;
            }
        }
        let BuildSlot {
            overlay,
            chord,
            members,
            ..
        } = slot;
        let transport = match cfg.transport {
            TransportKind::Direct => &mut self.direct,
            TransportKind::Chord => chord.as_mut().expect("chord substrate just built"),
        };
        (
            overlay,
            transport,
            members,
            &mut self.route,
            &mut self.ring_alive,
            &mut self.batch,
        )
    }
}

/// Atomic work-stealing trial dispenser: workers repeatedly claim the
/// next unclaimed batch of trial indices until none remain. Replaces
/// the old fixed `trials / threads` pre-chunking, whose slowest chunk
/// bounded the wall clock; here a worker that draws cheap trials simply
/// comes back for more.
///
/// Batches are contiguous index ranges, so per-trial seeding (and thus
/// every result bit) is untouched by who executes what.
pub(crate) struct TrialQueue {
    next: AtomicU64,
    trials: u64,
    batch: u64,
}

impl TrialQueue {
    /// Sizes batches so a job yields ~64 of them regardless of worker
    /// count, clamped to `[1, 64]` trials each. The batch size must NOT
    /// depend on the thread count: batch boundaries define the
    /// floating-point reduction tree (batch partials are merged in
    /// trial order), so thread-count-independent boundaries are what
    /// make results byte-identical at 1, 2, 4, ... threads.
    pub(crate) fn new(trials: u64) -> Self {
        let batch = (trials / 64).clamp(1, 64);
        TrialQueue {
            next: AtomicU64::new(0),
            trials,
            batch,
        }
    }

    /// Claims the next `[start, end)` batch, or `None` when the trial
    /// space is exhausted.
    pub(crate) fn next_batch(&self) -> Option<(u64, u64)> {
        let start = self.next.fetch_add(self.batch, Ordering::Relaxed);
        (start < self.trials).then(|| (start, (start + self.batch).min(self.trials)))
    }
}

impl Partial {
    /// Folds `(batch_start, partial)` pairs into one partial in trial
    /// order. Completion order is racy; start order is not — merging by
    /// it makes the floating-point reduction tree a pure function of
    /// the batch boundaries, which [`TrialQueue::new`] keeps
    /// thread-count-independent.
    pub(crate) fn merged_in_order(mut batches: Vec<(u64, Partial)>) -> Partial {
        batches.sort_unstable_by_key(|(start, _)| *start);
        let mut merged = Partial::default();
        for (_, partial) in &batches {
            merged.merge(partial);
        }
        merged
    }

    pub(crate) fn merge(&mut self, other: &Partial) {
        self.successes += other.successes;
        self.attempts += other.attempts;
        self.per_trial.merge(&other.per_trial);
        self.hyper_ps.merge(&other.hyper_ps);
        self.binom_ps.merge(&other.binom_ps);
        self.hops.merge(&other.hops);
        if self.failure_depths.len() < other.failure_depths.len() {
            self.failure_depths.resize(other.failure_depths.len(), 0);
        }
        for (i, &v) in other.failure_depths.iter().enumerate() {
            self.failure_depths[i] += v;
        }
        self.metrics.merge(&other.metrics);
    }
}

impl Simulation {
    /// Wraps a config, to run with the default [`ExecOptions`].
    pub fn new(config: SimulationConfig) -> Self {
        Simulation {
            config,
            exec: ExecOptions::default(),
        }
    }

    /// Runs with `exec` instead of the default [`ExecOptions`]. The
    /// result is byte-identical either way.
    pub fn with_exec(mut self, exec: ExecOptions) -> Self {
        self.exec = exec;
        self
    }

    /// The configuration under test.
    pub fn config(&self) -> &SimulationConfig {
        &self.config
    }

    /// Runs all trials on the calling thread: `run_parallel(1)`.
    pub fn run(&self) -> SimulationResult {
        self.run_parallel(1)
    }

    /// Runs all trials on `threads` workers pulling batches from a
    /// shared work-stealing queue (no worker idles while trials
    /// remain). Every trial is seeded independently of which worker
    /// runs it, and batch partials are merged in trial order over
    /// thread-count-independent batch boundaries — so the result
    /// (floats included) is byte-identical at every thread count, and
    /// to [`run`](Self::run) and [`run_traced`](Self::run_traced).
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn run_parallel(&self, threads: usize) -> SimulationResult {
        self.finish(self.drive(threads, None))
    }

    /// [`run_parallel`](Self::run_parallel) with observability: every
    /// instrumented decision point is sent to `recorder` as a
    /// [`sos_observe::Event`], and per-trial metrics (route hops,
    /// break-in counts, phase durations, …) are aggregated into the
    /// returned [`MetricsRegistry`].
    ///
    /// The [`SimulationResult`] is byte-identical to an untraced run:
    /// tracing only *observes* the trial streams, it never draws from
    /// them. Metrics merge per batch in trial order like the result.
    /// Events from different trials interleave in `recorder` in
    /// worker-completion order above one thread — sort by
    /// `(trial, t)` (as the JSONL/timeline sinks do) to reconstruct
    /// per-trial order.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn run_traced(
        &self,
        threads: usize,
        recorder: &dyn Recorder,
    ) -> (SimulationResult, MetricsRegistry) {
        let mut partial = self.drive(threads, Some(recorder));
        let metrics = std::mem::take(&mut partial.metrics);
        (self.finish(partial), metrics)
    }

    /// The one trial driver: `threads` workers — the calling thread
    /// plus `threads - 1` scoped spawns, so one thread spawns nothing —
    /// claim [`TrialQueue`] batches, and the batch partials merge in
    /// start order.
    fn drive(&self, threads: usize, recorder: Option<&dyn Recorder>) -> Partial {
        assert!(threads > 0, "need at least one thread");
        telemetry::add_expected_trials(self.config.trials);
        let queue = TrialQueue::new(self.config.trials);
        let batches = Mutex::new(Vec::new());
        let work = || {
            let mut scratch = TrialScratch::new();
            while let Some((start, end)) = queue.next_batch() {
                let partial = self.run_batch(start, end, &mut scratch, recorder);
                batches.lock().push((start, partial));
            }
        };
        crossbeam::thread::scope(|scope| {
            for _ in 1..threads {
                scope.spawn(|_| work());
            }
            work();
        })
        .expect("simulation worker panicked");
        Partial::merged_in_order(batches.into_inner())
    }

    /// Runs batches of trials until the 95% Wilson interval on the
    /// empirical `P_S` is narrower than `half_width`, or `max_trials`
    /// have been spent. Returns the result plus the number of trials
    /// actually used.
    ///
    /// Each batch is fanned out over the shared persistent worker pool
    /// (`crate::pool`), so adaptive-precision runs parallelize like
    /// [`run_parallel`](Self::run_parallel) instead of spending all
    /// batches on one thread.
    ///
    /// Deterministic: trial `i` is always seeded identically, so the
    /// precision stop only decides *how many* trials run, never their
    /// content — and the stopping rule itself reads only the integer
    /// success/attempt counts, which are exact at any thread count, so
    /// the decision is identical to a single-threaded run.
    ///
    /// # Panics
    ///
    /// Panics if `half_width` is not in `(0, 0.5)` or `max_trials == 0`.
    pub fn run_until_precision(
        &self,
        half_width: f64,
        max_trials: u64,
    ) -> (SimulationResult, u64) {
        assert!(
            half_width > 0.0 && half_width < 0.5,
            "half width must be in (0, 0.5), got {half_width}"
        );
        assert!(max_trials > 0, "need at least one trial");
        let batch = self.config.trials.max(1);
        let sim = std::sync::Arc::new(self.clone());
        // Hold the pool for the whole adaptive loop: batches are
        // data-dependent (each stopping decision needs the previous
        // counts), so interleaving another caller's jobs between
        // batches would only add latency here.
        let mut pool = crate::pool::global_pool()
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let mut partial = Partial::default();
        let mut done = 0u64;
        loop {
            let next = (done + batch).min(max_trials);
            let (mut batch_partials, _) = pool.run(vec![crate::pool::RangeJob {
                sim: sim.clone(),
                start: done,
                end: next,
                point: false,
            }]);
            partial.merge(&batch_partials.remove(0));
            done = next;
            let ci = sos_math::stats::proportion_ci(
                partial.successes,
                partial.attempts,
                0.95,
            );
            if ci.half_width() <= half_width || done >= max_trials {
                return (self.finish(partial), done);
            }
        }
    }

    /// Runs trials `start..end` into one fresh [`Partial`]: the batch
    /// body shared by [`drive`](Self::drive) and the sweep pool.
    pub(crate) fn run_batch(
        &self,
        start: u64,
        end: u64,
        scratch: &mut TrialScratch,
        recorder: Option<&dyn Recorder>,
    ) -> Partial {
        if let Some(slot) = telemetry::slot() {
            slot.add_batch();
        }
        let mut partial = Partial::default();
        for trial in start..end {
            self.run_one_trial(trial, &mut partial, scratch, recorder);
        }
        partial
    }

    fn run_one_trial(
        &self,
        trial: u64,
        partial: &mut Partial,
        scratch: &mut TrialScratch,
        recorder: Option<&dyn Recorder>,
    ) {
        let cfg = &self.config;
        // Live telemetry wall-clock attribution. The timer is inert
        // when telemetry is off, and in either state it only *reads*
        // the clock — it never touches the trial RNG streams, so
        // results are bit-identical with telemetry on or off.
        let mut timer = PhaseTimer::start();
        // Independent decorrelated streams per trial for overlay
        // construction, ring construction, attack+routing and trace
        // sampling — so a Direct run and a Chord run with the same seed
        // see the *same* overlay and the same attack (paired
        // comparison), and a memo hit that skips a build stream cannot
        // perturb any other stream's draws.
        let overlay_seed = trial_stream_seed(cfg.seed, stream::OVERLAY_BUILD, trial);
        let ring_seed = trial_stream_seed(cfg.seed, stream::RING_BUILD, trial);
        let attack_seed = trial_stream_seed(cfg.seed, stream::ATTACK, trial);
        let mut rng = StdRng::seed_from_u64(attack_seed);
        // The fault plane draws from its own keyed PRF (never the trial
        // streams above), so enabling it cannot shift the overlay,
        // attack, or routing randomness.
        let plan = (!cfg.faults.is_none()).then(|| FaultPlan::new(&cfg.faults, trial));
        // First trial on this worker builds the scratch state; later
        // trials reuse a memoized build when the seeds/scenario match
        // and rebuild in place otherwise (both bit-identical to a fresh
        // build — memo hits skip work, never change it).
        let (overlay, transport, members, route_scratch, ring_alive, route_batch) =
            scratch.prepare(cfg, self.exec.build_reuse, overlay_seed, ring_seed);
        timer.lap(PhaseKind::Build);

        // Logical tick within the trial; only advanced in traced runs.
        let mut t = 0u64;
        let metrics = &mut partial.metrics;
        if let Some(r) = recorder {
            emit(r, &mut t, trial, EventKind::TrialStart { seed: attack_seed });
            metrics.counter("trials").inc();
            // Sample the transport substrate: a few Chord lookups from
            // the dedicated trace stream (never the attack/routing
            // stream, so the trial outcome matches an untraced run
            // exactly). `members` was already collected for ring
            // construction.
            if let Transport::Chord(ring) = &*transport {
                let mut trace_rng =
                    StdRng::seed_from_u64(trial_stream_seed(cfg.seed, stream::TRACE, trial));
                let bounds = hop_bounds();
                for _ in 0..TRACED_LOOKUP_SAMPLES {
                    let from = members[trace_rng.gen_range(0..members.len())];
                    let key = trace_rng.gen::<u64>();
                    let outcome = ring.lookup(from, key);
                    metrics
                        .histogram("lookup_hops", &bounds)
                        .record(outcome.hops() as f64);
                    emit(r, &mut t, trial, sos_overlay::observe::lookup_event_kind(&outcome));
                }
            }
        }

        let outcome = match (cfg.attack, cfg.monitoring_tap) {
            (AttackConfig::OneBurst { budget }, _) => {
                OneBurstAttacker::new(budget).execute(overlay, &mut rng)
            }
            (AttackConfig::Successive { budget, params }, None) => {
                SuccessiveAttacker::new(budget, params).execute(overlay, &mut rng)
            }
            (AttackConfig::Successive { budget, params }, Some(tap)) => {
                sos_attack::MonitoringAttacker::new(budget, params, tap)
                    .execute(overlay, &mut rng)
                    .outcome
            }
        };
        // Mirror attack damage into any protocol-level routing state the
        // transport keeps (no-op for Direct/Chord, which read the overlay
        // directly). Skipping this on a stateful transport is the classic
        // stale-ring footgun — `sync_damage` owns the invariant.
        transport.sync_damage(overlay);
        if let Some(r) = recorder {
            let attack_start = t;
            if r.enabled() {
                sos_attack::emit_attack_events(&outcome.trace, overlay, trial, &mut t, r);
            } else {
                // Keep the tick clock recorder-independent without
                // replaying: advance by exactly what the bridge emits.
                t += sos_attack::attack_event_count(&outcome.trace);
            }
            let attack_ticks = t - attack_start;
            metrics
                .counter("break_in_attempts")
                .add(outcome.attempted.len() as u64);
            metrics
                .counter("break_in_successes")
                .add(outcome.broken.len() as u64);
            metrics
                .counter("disclosures")
                .add(outcome.disclosed.len() as u64);
            metrics
                .counter("congestion_slots")
                .add(outcome.congested.len() as u64);
            metrics
                .counter("attack_rounds")
                .add(outcome.rounds.len() as u64);
            metrics
                .histogram("attack_phase_ticks", &tick_bounds())
                .record(attack_ticks as f64);
        }

        // Price the realized compromise state with both analytical
        // evaluators (for the evaluator ablation).
        let state = overlay.compromise_state();
        let topo = cfg.scenario.topology();
        partial.hyper_ps.push(
            PathEvaluator::Hypergeometric
                .success_probability(topo, &state)
                .value(),
        );
        partial.binom_ps.push(
            PathEvaluator::Binomial
                .success_probability(topo, &state)
                .value(),
        );

        let depth_slots = cfg.scenario.topology().layer_count() + 1;
        if partial.failure_depths.len() < depth_slots {
            partial.failure_depths.resize(depth_slots, 0);
        }
        // The attack span was attributed by the attacker's own timer
        // (break-in/congestion); the bridge/evaluator glue in between
        // belongs to no phase — re-arm without attributing.
        timer.reset();
        let routing_start = t;
        if let Some(r) = recorder {
            emit(r, &mut t, trial, EventKind::PhaseStart {
                phase: Phase::Routing,
            });
        }
        // Batched SoA liveness: resolve the ring's per-position alive
        // bits once, after attack damage and the fault plan are final;
        // every substrate lookup on every route of this trial then
        // probes the shared u64 words instead of chasing per-node
        // status. Purely a precompute — results are bit-identical to
        // the unmasked path (pinned by transport/routing tests).
        let alive = transport
            .refresh_alive_positions(overlay, plan.as_ref(), ring_alive)
            .then_some(&*ring_alive);
        // Routes are evaluated by the batched SoA kernel in chunks of
        // `route_width` lanes. Every route draws from its own
        // `route_lane_seed` sub-stream (never the attack rng above), so
        // chunking, lane order and batch width cannot perturb results —
        // width 1 runs the scalar `route_message` oracle per lane
        // and is byte-identical (pinned by tests). Events and partial
        // accumulation happen per chunk, in route order, so traced runs
        // see exactly the per-route event sequence of the scalar loop.
        let width = self.exec.route_width.max(1);
        let route_master = trial_stream_seed(cfg.seed, stream::ROUTE, trial);
        route_batch.begin_trial();
        let mut delivered = 0u64;
        let mut first = 0u64;
        while first < cfg.routes_per_trial {
            let count = (cfg.routes_per_trial - first).min(width as u64) as usize;
            route_batch.evaluate(
                overlay,
                transport,
                cfg.policy,
                plan.as_ref(),
                &cfg.retry,
                route_master,
                first,
                count,
                alive,
                route_scratch,
                width > 1,
            );
            for lane in 0..count {
                let route = first + lane as u64;
                let result = route_batch.result(lane);
                if let Some(r) = recorder {
                    emit(r, &mut t, trial, EventKind::RouteAttempt { route });
                    for incident in &result.incidents {
                        emit_incident(r, metrics, &mut t, trial, incident);
                    }
                    if result.retries > 0 {
                        metrics.counter("hop_retries").add(result.retries);
                    }
                    if result.downgrades > 0 {
                        metrics.counter("route_downgrades").add(result.downgrades);
                    }
                    if result.delivered {
                        emit(r, &mut t, trial, EventKind::RouteDelivered {
                            route,
                            hops: result.underlay_hops as u32,
                        });
                        metrics
                            .histogram("route_hops", &hop_bounds())
                            .record(result.underlay_hops as f64);
                        metrics.counter("routes_delivered").inc();
                    } else {
                        emit(r, &mut t, trial, EventKind::RouteFailed {
                            route,
                            deepest_layer: result.deepest_layer as u32,
                        });
                        metrics.counter("routes_failed").inc();
                    }
                    metrics.counter("routes_attempted").inc();
                }
                if result.delivered {
                    delivered += 1;
                    partial.hops.push(result.underlay_hops as f64);
                } else {
                    partial.failure_depths[result.deepest_layer.min(depth_slots - 1)] += 1;
                }
            }
            first += count as u64;
        }
        timer.lap(PhaseKind::Routing);
        if let Some(slot) = telemetry::slot() {
            slot.add_trial();
            slot.add_routes(cfg.routes_per_trial);
        }
        partial.successes += delivered;
        partial.attempts += cfg.routes_per_trial;
        partial
            .per_trial
            .push(delivered as f64 / cfg.routes_per_trial as f64);
        if let Some(r) = recorder {
            emit(r, &mut t, trial, EventKind::PhaseEnd {
                phase: Phase::Routing,
            });
            emit(r, &mut t, trial, EventKind::TrialEnd {
                delivered,
                attempted: cfg.routes_per_trial,
            });
            metrics
                .histogram("per_trial_delivery", &delivery_bounds())
                .record(delivered as f64 / cfg.routes_per_trial as f64);
            metrics
                .histogram("routing_phase_ticks", &tick_bounds())
                .record((t - routing_start) as f64);
        }
    }

    /// The result of a merged run of trials (traced metrics dropped).
    pub(crate) fn finish(&self, partial: Partial) -> SimulationResult {
        SimulationResult {
            successes: partial.successes,
            attempts: partial.attempts,
            per_trial: partial.per_trial.summary(),
            realized_ps_hypergeometric: partial.hyper_ps.mean(),
            realized_ps_binomial: partial.binom_ps.mean(),
            mean_underlay_hops: partial.hops.mean(),
            failure_depths: partial.failure_depths,
        }
    }
}

/// Aggregated output of a Monte Carlo estimate.
///
/// Serializable so the sweep executor ([`crate::sweep`]) can persist
/// results in its content-addressed cache; all floats survive a JSON
/// round trip exactly (shortest-round-trip printing).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SimulationResult {
    /// Delivered messages over all trials.
    pub successes: u64,
    /// Total messages routed.
    pub attempts: u64,
    /// Distribution of per-trial delivery fractions.
    pub per_trial: SummaryStats,
    /// Mean of equation (1) with the hypergeometric evaluator applied to
    /// each trial's realized compromise counts.
    pub realized_ps_hypergeometric: f64,
    /// Same with the binomial evaluator.
    pub realized_ps_binomial: f64,
    /// Mean underlay hops of delivered messages (4 = L+1 layers under
    /// direct transport with `L = 3`; larger under Chord).
    pub mean_underlay_hops: f64,
    /// Failure attribution: `failure_depths[d]` counts routes that died
    /// having reached 1-based layer `d` at the deepest (`0` = the client
    /// found no usable entry point). The bottleneck layer is the argmax.
    pub failure_depths: Vec<u64>,
}

impl SimulationResult {
    /// Empirical `P_S`: delivered fraction over all routed messages.
    pub fn success_rate(&self) -> f64 {
        if self.attempts == 0 {
            0.0
        } else {
            self.successes as f64 / self.attempts as f64
        }
    }

    /// The layer where failures concentrate (None if every route was
    /// delivered): the failure-depth histogram's argmax. A message dying
    /// "at depth d" found no usable neighbor while standing at layer d.
    pub fn bottleneck_layer(&self) -> Option<usize> {
        if self.successes == self.attempts {
            return None;
        }
        self.failure_depths
            .iter()
            .enumerate()
            .max_by_key(|&(_, &count)| count)
            .map(|(layer, _)| layer)
    }

    /// Wilson confidence interval on the success rate.
    ///
    /// Note: routes within one trial share an overlay, so this interval
    /// treats the per-route outcomes as exchangeable rather than fully
    /// independent — use [`per_trial`](Self::per_trial) for the
    /// between-trial spread.
    ///
    /// # Panics
    ///
    /// Panics if no routes were attempted or `level` is not in `(0, 1)`.
    pub fn confidence_interval(&self, level: f64) -> ConfidenceInterval {
        proportion_ci(self.successes, self.attempts, level)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sos_core::{AttackBudget, MappingDegree, SuccessiveParams, SystemParams};

    fn scenario(n: u64, sos: u64, layers: usize, mapping: MappingDegree) -> Scenario {
        Scenario::builder()
            .system(SystemParams::new(n, sos, 0.5).unwrap())
            .layers(layers)
            .mapping(mapping)
            .filters(10)
            .build()
            .unwrap()
    }

    fn quick(attack: AttackConfig, mapping: MappingDegree) -> SimulationConfig {
        SimulationConfig::new(scenario(1_000, 60, 3, mapping), attack)
            .trials(40)
            .routes_per_trial(50)
            .seed(11)
    }

    #[test]
    fn no_attack_gives_perfect_delivery() {
        let cfg = quick(
            AttackConfig::OneBurst {
                budget: AttackBudget::new(0, 0),
            },
            MappingDegree::OneTo(2),
        );
        let result = Simulation::new(cfg).run();
        assert_eq!(result.success_rate(), 1.0);
        assert_eq!(result.realized_ps_binomial, 1.0);
        assert_eq!(result.realized_ps_hypergeometric, 1.0);
        assert_eq!(result.mean_underlay_hops, 4.0);
    }

    #[test]
    fn congestion_reduces_delivery() {
        let light = Simulation::new(quick(
            AttackConfig::OneBurst {
                budget: AttackBudget::new(0, 100),
            },
            MappingDegree::ONE_TO_ONE,
        ))
        .run();
        let heavy = Simulation::new(quick(
            AttackConfig::OneBurst {
                budget: AttackBudget::new(0, 600),
            },
            MappingDegree::ONE_TO_ONE,
        ))
        .run();
        assert!(light.success_rate() > heavy.success_rate());
        assert!(heavy.success_rate() < 0.6);
    }

    #[test]
    fn parallel_matches_sequential() {
        let cfg = quick(
            AttackConfig::Successive {
                budget: AttackBudget::new(50, 200),
                params: SuccessiveParams::paper_default(),
            },
            MappingDegree::OneTo(2),
        );
        let seq = Simulation::new(cfg.clone()).run();
        let par = Simulation::new(cfg).run_parallel(4);
        // One driver, one reduction: floats included, not just counts.
        assert_eq!(
            serde_json::to_string(&seq).unwrap(),
            serde_json::to_string(&par).unwrap()
        );
    }

    #[test]
    fn simulation_matches_analytic_one_to_one_congestion() {
        // Pure random congestion with one-to-one mapping: the analytical
        // model is near-exact, so the simulation must agree closely.
        let scenario = scenario(1_000, 60, 3, MappingDegree::ONE_TO_ONE);
        let budget = AttackBudget::new(0, 200);
        let cfg = SimulationConfig::new(
            scenario.clone(),
            AttackConfig::OneBurst { budget },
        )
        .trials(150)
        .routes_per_trial(100)
        .seed(5);
        let sim = Simulation::new(cfg).run_parallel(4);
        let analytic = sos_analysis::OneBurstAnalysis::new(&scenario, budget)
            .unwrap()
            .run()
            .success_probability(PathEvaluator::Binomial)
            .value();
        let ci = sim.confidence_interval(0.999);
        assert!(
            (sim.success_rate() - analytic).abs() < 0.05,
            "sim {} vs analytic {analytic} (ci {ci:?})",
            sim.success_rate()
        );
    }

    #[test]
    fn chord_transport_is_at_most_direct() {
        let attack = AttackConfig::OneBurst {
            budget: AttackBudget::new(0, 300),
        };
        let direct = Simulation::new(
            quick(attack, MappingDegree::OneTo(2)).transport(TransportKind::Direct),
        )
        .run();
        let chord = Simulation::new(
            quick(attack, MappingDegree::OneTo(2)).transport(TransportKind::Chord),
        )
        .run();
        // Chord adds failure modes (intermediate hops) and path length.
        assert!(chord.success_rate() <= direct.success_rate() + 0.02);
        assert!(chord.mean_underlay_hops > direct.mean_underlay_hops);
    }

    #[test]
    fn confidence_interval_brackets_rate() {
        let cfg = quick(
            AttackConfig::OneBurst {
                budget: AttackBudget::new(0, 300),
            },
            MappingDegree::OneTo(2),
        );
        let result = Simulation::new(cfg).run();
        let ci = result.confidence_interval(0.95);
        assert!(ci.contains(result.success_rate()));
    }

    #[test]
    fn failure_attribution_points_at_the_dead_layer() {
        // Kill layer 2 outright by congesting enough of the overlay that
        // one-to-one routing dies early; more precisely, compare where
        // failures land under a pure congestion attack.
        let cfg = quick(
            AttackConfig::OneBurst {
                budget: AttackBudget::new(0, 500),
            },
            MappingDegree::ONE_TO_ONE,
        );
        let result = Simulation::new(cfg).run();
        assert!(result.successes < result.attempts);
        let total_failures: u64 = result.failure_depths.iter().sum();
        assert_eq!(total_failures, result.attempts - result.successes);
        let bottleneck = result.bottleneck_layer().unwrap();
        // Uniform 50% damage with one-to-one: most deaths happen early
        // (at the client or layer 1-2).
        assert!(bottleneck <= 2, "bottleneck {bottleneck}");
        // A clean run attributes nothing.
        let clean = Simulation::new(quick(
            AttackConfig::OneBurst {
                budget: AttackBudget::new(0, 0),
            },
            MappingDegree::ONE_TO_ONE,
        ))
        .run();
        assert_eq!(clean.bottleneck_layer(), None);
        assert!(clean.failure_depths.iter().all(|&c| c == 0));
    }

    #[test]
    fn precision_runner_reaches_target_or_cap() {
        let cfg = quick(
            AttackConfig::OneBurst {
                budget: AttackBudget::new(0, 300),
            },
            MappingDegree::OneTo(2),
        )
        .trials(20); // batch size
        let sim = Simulation::new(cfg);
        let (result, used) = sim.run_until_precision(0.03, 400);
        let ci = result.confidence_interval(0.95);
        assert!(
            ci.half_width() <= 0.03 || used == 400,
            "half width {} with {used} trials",
            ci.half_width()
        );
        assert!(used % 20 == 0, "trials spent in whole batches: {used}");
        // A looser target uses no more trials than a tighter one.
        let (_, loose) = sim.run_until_precision(0.08, 400);
        assert!(loose <= used);
        // Determinism: same precision, same result.
        let (again, used_again) = sim.run_until_precision(0.03, 400);
        assert_eq!(used, used_again);
        assert_eq!(result.successes, again.successes);
    }

    #[test]
    fn traced_run_matches_untraced() {
        let cfg = quick(
            AttackConfig::Successive {
                budget: AttackBudget::new(50, 200),
                params: SuccessiveParams::paper_default(),
            },
            MappingDegree::OneTo(2),
        );
        let plain = Simulation::new(cfg.clone()).run();
        let (traced, metrics) =
            Simulation::new(cfg.clone()).run_traced(1, &sos_observe::NullRecorder);
        // Tracing only observes the trial streams; the result is
        // bit-identical, not merely statistically equal.
        assert_eq!(plain, traced);
        assert_eq!(
            metrics.counter_value("routes_attempted"),
            Some(plain.attempts)
        );
        assert_eq!(
            metrics.counter_value("routes_delivered"),
            Some(plain.successes)
        );
        assert_eq!(metrics.counter_value("trials"), Some(40));
        let hops = metrics.get_histogram("route_hops").unwrap();
        assert_eq!(hops.count(), plain.successes);

        // Parallel traced: same result, registries merge to the same
        // totals regardless of worker split.
        let (par, par_metrics) = Simulation::new(cfg).run_traced(4, &sos_observe::NullRecorder);
        assert_eq!(par, plain);
        assert_eq!(
            par_metrics.counter_value("break_in_attempts"),
            metrics.counter_value("break_in_attempts")
        );
        assert_eq!(
            par_metrics.get_histogram("route_hops").unwrap().count(),
            hops.count()
        );
    }

    #[test]
    fn traced_chord_run_matches_untraced() {
        // The traced path samples extra Chord lookups from the ring
        // stream; that stream is otherwise dead after ring construction,
        // so the result must still be bit-identical.
        let cfg = quick(
            AttackConfig::OneBurst {
                budget: AttackBudget::new(0, 300),
            },
            MappingDegree::OneTo(2),
        )
        .transport(TransportKind::Chord);
        let plain = Simulation::new(cfg.clone()).run();
        let (traced, metrics) = Simulation::new(cfg).run_traced(1, &sos_observe::NullRecorder);
        assert_eq!(plain, traced);
        // 8 sampled lookups per trial × 40 trials.
        let lookups = metrics.get_histogram("lookup_hops").unwrap();
        assert_eq!(lookups.count(), 8 * 40);
        assert!(lookups.mean().unwrap() >= 1.0);
    }

    #[test]
    #[should_panic(expected = "half width must be in")]
    fn precision_runner_rejects_bad_width() {
        let cfg = quick(
            AttackConfig::OneBurst {
                budget: AttackBudget::new(0, 0),
            },
            MappingDegree::OneTo(2),
        );
        let _ = Simulation::new(cfg).run_until_precision(0.7, 10);
    }

    #[test]
    fn zero_fault_config_is_bit_identical_to_baseline() {
        // Acceptance gate for the fault plane: `FaultConfig::none()`
        // must not merely be statistically equivalent — the exact
        // result (counts, float aggregates, failure attribution) is
        // unchanged, because no fault plan is ever built.
        for transport in [TransportKind::Direct, TransportKind::Chord] {
            let base = quick(
                AttackConfig::OneBurst {
                    budget: AttackBudget::new(60, 250),
                },
                MappingDegree::OneTo(2),
            )
            .transport(transport);
            let plain = Simulation::new(base.clone()).run();
            let gated = Simulation::new(
                base.faults(sos_faults::FaultConfig::none())
                    .retry(sos_faults::RetryPolicy::new(8, 2, 512)),
            )
            .run();
            assert_eq!(plain, gated, "zero-fault run diverged ({transport:?})");
        }
    }

    #[test]
    fn retries_strictly_improve_ps_under_loss() {
        // Loss is transient, so at equal seeds a retrying run dominates
        // a bare run strictly (acceptance criterion).
        let faults = sos_faults::FaultConfig::none().loss(0.15).seed(3);
        let base = quick(
            AttackConfig::OneBurst {
                budget: AttackBudget::new(0, 200),
            },
            MappingDegree::OneTo(2),
        );
        let bare = Simulation::new(base.clone().faults(faults)).run();
        let retried = Simulation::new(
            base.clone()
                .faults(faults)
                .retry(sos_faults::RetryPolicy::new(4, 1, 64)),
        )
        .run();
        let clean = Simulation::new(base).run();
        assert!(
            bare.success_rate() < clean.success_rate(),
            "loss faults must cost deliveries: {} vs clean {}",
            bare.success_rate(),
            clean.success_rate()
        );
        assert!(
            retried.success_rate() > bare.success_rate(),
            "retries must strictly improve P_S: {} vs {}",
            retried.success_rate(),
            bare.success_rate()
        );
        // Retries recover only transient faults, never compromises: the
        // retried run cannot beat the fault-free run.
        assert!(retried.success_rate() <= clean.success_rate());
    }

    #[test]
    fn faulty_traced_run_matches_untraced() {
        // Satellite: tracing must stay a pure observer with the fault
        // plane active — the incident events draw nothing from the
        // trial streams.
        let cfg = quick(
            AttackConfig::Successive {
                budget: AttackBudget::new(50, 200),
                params: SuccessiveParams::paper_default(),
            },
            MappingDegree::OneTo(2),
        )
        .faults(
            sos_faults::FaultConfig::none()
                .loss(0.2)
                .delay(0.1, 4)
                .crash(0.02)
                .seed(17),
        )
        .retry(sos_faults::RetryPolicy::new(3, 1, 128));
        let plain = Simulation::new(cfg.clone()).run();
        let (traced, metrics) =
            Simulation::new(cfg.clone()).run_traced(1, &sos_observe::NullRecorder);
        assert_eq!(plain, traced);
        assert!(
            metrics.counter_value("faults_injected").unwrap_or(0) > 0,
            "20% loss over 2000 routes must inject faults"
        );
        assert!(metrics.counter_value("hop_retries").unwrap_or(0) > 0);

        let (par, par_metrics) = Simulation::new(cfg).run_traced(4, &sos_observe::NullRecorder);
        assert_eq!(par, plain);
        assert_eq!(
            par_metrics.counter_value("faults_injected"),
            metrics.counter_value("faults_injected")
        );
        assert_eq!(
            par_metrics.counter_value("hop_retries"),
            metrics.counter_value("hop_retries")
        );
        assert_eq!(
            par_metrics.counter_value("route_downgrades"),
            metrics.counter_value("route_downgrades")
        );
    }

    #[test]
    fn metrics_do_not_depend_on_whether_the_recorder_is_enabled() {
        // A disabled recorder advances the tick clock by exactly what
        // the attack bridge would have emitted, so tick-valued metrics
        // (`attack_phase_ticks`) agree with a capturing recorder. Batch
        // metrics merge in trial order, so the thread count cannot
        // change them either.
        let cfg = quick(
            AttackConfig::Successive {
                budget: AttackBudget::new(50, 200),
                params: SuccessiveParams::paper_default(),
            },
            MappingDegree::OneTo(2),
        )
        .transport(TransportKind::Chord)
        .faults(sos_faults::FaultConfig::none().loss(0.2).seed(17))
        .retry(sos_faults::RetryPolicy::new(3, 1, 128));
        let sim = Simulation::new(cfg.trials(130));
        let (_, serial) = sim.run_traced(1, &sos_observe::NullRecorder);
        assert!(serial.get_histogram("attack_phase_ticks").is_some());
        for threads in [1, 4] {
            let (null_result, null) = sim.run_traced(threads, &sos_observe::NullRecorder);
            let recorder = sos_observe::MemoryRecorder::new();
            let (memory_result, memory) = sim.run_traced(threads, &recorder);
            assert_eq!(null_result, memory_result, "{threads} threads");
            assert_eq!(null.to_csv(), memory.to_csv(), "{threads} threads");
            assert_eq!(null.to_csv(), serial.to_csv(), "{threads} threads");
        }
    }

    #[test]
    fn fault_events_surface_in_the_recorder() {
        // Acceptance: every retry/downgrade is visible as a structured
        // event, not just a counter.
        let cfg = quick(
            AttackConfig::OneBurst {
                budget: AttackBudget::new(0, 200),
            },
            MappingDegree::OneTo(2),
        )
        .trials(5)
        .faults(sos_faults::FaultConfig::none().loss(0.3).seed(29))
        .retry(sos_faults::RetryPolicy::new(3, 1, 64));
        let recorder = sos_observe::MemoryRecorder::new();
        let (_, metrics) = Simulation::new(cfg).run_traced(1, &recorder);
        let events = recorder.take_events();
        let faults = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::FaultInjected { .. }))
            .count() as u64;
        let retries = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::HopRetry { .. }))
            .count() as u64;
        assert_eq!(Some(faults), metrics.counter_value("faults_injected"));
        assert_eq!(Some(retries), metrics.counter_value("hop_retries"));
        assert!(faults > 0 && retries > 0, "{faults} faults, {retries} retries");
    }

    #[test]
    fn work_stealing_is_bit_identical_at_any_thread_count() {
        // The scheduler decides *who* runs a trial, never *what* the
        // trial is: the result must match the serial run byte for byte
        // at every thread count, including more threads than batches.
        for transport in [TransportKind::Direct, TransportKind::Chord] {
            let cfg = quick(
                AttackConfig::Successive {
                    budget: AttackBudget::new(50, 200),
                    params: SuccessiveParams::paper_default(),
                },
                MappingDegree::OneTo(2),
            )
            .transport(transport);
            let serial = serde_json::to_string(&Simulation::new(cfg.clone()).run()).unwrap();
            for threads in [1, 2, 4, 8] {
                // The merge tree is a pure function of the batch layout.
                let par = Simulation::new(cfg.clone()).run_parallel(threads);
                let json = serde_json::to_string(&par).unwrap();
                assert_eq!(serial, json, "{threads} threads not byte-identical");
            }
        }
    }

    #[test]
    fn trial_queue_partitions_trials_evenly() {
        // Deterministic model of the work-stealing queue: round-robin
        // workers drain it; every trial is handed out exactly once and
        // no two workers' totals differ by more than one batch.
        for (trials, threads) in [(1u64, 4usize), (7, 4), (40, 4), (1_000, 8), (1_000, 3)] {
            let queue = TrialQueue::new(trials);
            let mut counts = vec![0u64; threads];
            let mut seen = vec![false; trials as usize];
            let mut worker = 0;
            while let Some((start, end)) = queue.next_batch() {
                assert!(start < end && end <= trials);
                for t in start..end {
                    assert!(!seen[t as usize], "trial {t} handed out twice");
                    seen[t as usize] = true;
                }
                counts[worker] += end - start;
                worker = (worker + 1) % threads;
            }
            assert!(seen.iter().all(|&s| s), "every trial handed out");
            let spread = counts.iter().max().unwrap() - counts.iter().min().unwrap();
            assert!(
                spread <= queue.batch,
                "worker totals {counts:?} spread {spread} > batch {}",
                queue.batch
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn zero_trials_rejected() {
        let _ = quick(
            AttackConfig::OneBurst {
                budget: AttackBudget::new(0, 0),
            },
            MappingDegree::OneTo(2),
        )
        .trials(0);
    }
}
