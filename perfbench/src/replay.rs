//! Phase-by-phase replay of Monte Carlo trials through the layers'
//! public functions, with a span around every layer call.
//!
//! The replay re-derives each trial's RNG streams with the engine's own
//! `trial_stream_seed` / route-lane schedule and then calls, in the
//! engine's order: `Overlay::build_into`, `ChordRing::build_into`
//! (Chord only), the attacker's `execute`, both `PathEvaluator`s, and
//! `Transport::refresh_alive_positions` + `RouteBatchScratch::evaluate`.
//! Delivered counts therefore equal the engine's exactly — the caller
//! checks that — so the per-layer numbers describe the same work as the
//! untraced run. The build memo is not replayed: every trial builds.

use crate::spans::{Span, SpanLog};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sos_attack::{OneBurstAttacker, SuccessiveAttacker};
use sos_core::{AttackConfig, PathEvaluator, Scenario};
use sos_faults::{FaultConfig, FaultPlan, RetryPolicy};
use sos_overlay::{ChordRing, NodeBitSet, NodeId, Overlay, Transport};
use sos_serve::{SimSpec, SpecError};
use sos_sim::routing::RouteScratch;
use sos_sim::{
    route_batch_width, stream, trial_stream_seed, RouteBatchScratch, RoutingPolicy,
    SimulationConfig, TransportKind,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Everything a trial's behavior depends on. `SimulationConfig` keeps
/// its fields private, so workloads describe their points with this and
/// build the engine config from it ([`Point::config`]); comparing
/// fingerprints with the workload's own configs proves the two agree.
#[derive(Debug, Clone)]
pub struct Point {
    pub scenario: Scenario,
    pub attack: AttackConfig,
    pub policy: RoutingPolicy,
    pub transport: TransportKind,
    pub faults: FaultConfig,
    pub retry: RetryPolicy,
    pub trials: u64,
    pub routes: u64,
    pub seed: u64,
}

impl Point {
    /// The point a `sosd`/CLI spec describes (fault-free specs only).
    pub fn from_spec(spec: &SimSpec) -> Result<Point, SpecError> {
        if spec.faults.is_some() || spec.retry.is_some() {
            return Err(SpecError(
                "replayed specs carry no faults or retries".into(),
            ));
        }
        Ok(Point {
            scenario: spec.scenario()?,
            attack: spec.attack()?,
            policy: sos_serve::spec::parse_policy(&spec.policy)?,
            transport: sos_serve::spec::parse_transport(&spec.transport)?,
            faults: FaultConfig::none(),
            retry: RetryPolicy::none(),
            trials: spec.trials,
            routes: spec.routes,
            seed: spec.seed,
        })
    }

    /// The engine config of this point.
    pub fn config(&self) -> SimulationConfig {
        SimulationConfig::new(self.scenario.clone(), self.attack)
            .policy(self.policy)
            .transport(self.transport)
            .faults(self.faults)
            .retry(self.retry)
            .trials(self.trials)
            .routes_per_trial(self.routes)
            .seed(self.seed)
    }
}

/// Per-worker reusable state, like the engine's one-slot scratch.
struct Scratch {
    overlay: Option<Overlay>,
    chord: Option<Transport>,
    direct: Transport,
    members: Vec<NodeId>,
    alive: NodeBitSet,
    route: RouteScratch,
    batch: RouteBatchScratch,
}

impl Scratch {
    fn new() -> Self {
        Scratch {
            overlay: None,
            chord: None,
            direct: Transport::Direct,
            members: Vec::new(),
            alive: NodeBitSet::new(),
            route: RouteScratch::new(),
            batch: RouteBatchScratch::new(),
        }
    }
}

/// Work counts of one replayed trial.
#[derive(Debug, Default, Clone, Copy)]
struct TrialCounts {
    delivered: u64,
    routes: u64,
    hops: u64,
    break_in_attempts: u64,
    congested: u64,
}

impl TrialCounts {
    fn add(&mut self, other: &TrialCounts) {
        self.delivered += other.delivered;
        self.routes += other.routes;
        self.hops += other.hops;
        self.break_in_attempts += other.break_in_attempts;
        self.congested += other.congested;
    }
}

fn replay_trial(
    p: &Point,
    trial: u64,
    s: &mut Scratch,
    log: &mut SpanLog,
    trace: u64,
) -> TrialCounts {
    let root = log.begin("trial", 0, trace);
    let parent = log.id(root);
    let overlay_seed = trial_stream_seed(p.seed, stream::OVERLAY_BUILD, trial);
    let ring_seed = trial_stream_seed(p.seed, stream::RING_BUILD, trial);
    let mut rng = StdRng::seed_from_u64(trial_stream_seed(p.seed, stream::ATTACK, trial));
    let plan = (!p.faults.is_none()).then(|| FaultPlan::new(&p.faults, trial));

    let span = log.begin("overlay.build", parent, trace);
    let mut overlay_rng = StdRng::seed_from_u64(overlay_seed);
    match &mut s.overlay {
        Some(overlay) => overlay.build_into(&p.scenario, &mut overlay_rng),
        None => s.overlay = Some(Overlay::build(&p.scenario, &mut overlay_rng)),
    }
    log.end(span);
    let overlay = s.overlay.as_mut().expect("overlay just built");

    if p.transport == TransportKind::Chord {
        s.members.clear();
        s.members.extend(overlay.overlay_ids());
        let span = log.begin("ring.build", parent, trace);
        let mut ring_rng = StdRng::seed_from_u64(ring_seed);
        match &mut s.chord {
            Some(Transport::Chord(ring)) => ring.build_into(&mut ring_rng, &s.members),
            _ => {
                s.chord = Some(Transport::Chord(ChordRing::build(
                    &mut ring_rng,
                    &s.members,
                )))
            }
        }
        log.end(span);
    }
    let transport = match p.transport {
        TransportKind::Direct => &mut s.direct,
        TransportKind::Chord => s.chord.as_mut().expect("ring just built"),
    };

    let span = log.begin("attack.execute", parent, trace);
    let outcome = match p.attack {
        AttackConfig::OneBurst { budget } => {
            OneBurstAttacker::new(budget).execute(overlay, &mut rng)
        }
        AttackConfig::Successive { budget, params } => {
            SuccessiveAttacker::new(budget, params).execute(overlay, &mut rng)
        }
    };
    transport.sync_damage(overlay);
    log.end(span);

    let span = log.begin("analysis.evaluate", parent, trace);
    let state = overlay.compromise_state();
    let topology = p.scenario.topology();
    std::hint::black_box(PathEvaluator::Hypergeometric.success_probability(topology, &state));
    std::hint::black_box(PathEvaluator::Binomial.success_probability(topology, &state));
    log.end(span);

    let span = log.begin("routing.evaluate", parent, trace);
    let alive = transport
        .refresh_alive_positions(overlay, plan.as_ref(), &mut s.alive)
        .then_some(&s.alive);
    let width = route_batch_width();
    let route_master = trial_stream_seed(p.seed, stream::ROUTE, trial);
    s.batch.begin_trial();
    let mut counts = TrialCounts {
        routes: p.routes,
        break_in_attempts: outcome.attempted.len() as u64,
        congested: outcome.congested.len() as u64,
        ..TrialCounts::default()
    };
    let mut first = 0u64;
    while first < p.routes {
        let count = (p.routes - first).min(width as u64) as usize;
        s.batch.evaluate(
            overlay,
            transport,
            p.policy,
            plan.as_ref(),
            &p.retry,
            route_master,
            first,
            count,
            alive,
            &mut s.route,
            width > 1,
        );
        for lane in 0..count {
            let result = s.batch.result(lane);
            counts.delivered += u64::from(result.delivered);
            counts.hops += result.underlay_hops as u64;
        }
        first += count as u64;
    }
    log.end(span);
    log.end(root);
    counts
}

/// What a replay did.
pub struct Replay {
    /// Every span of every trial (root `trial` plus one per layer call).
    pub spans: Vec<Span>,
    /// Delivered routes per `(round, point)`, round-major.
    pub delivered: Vec<u64>,
    pub trials: u64,
    pub routes: u64,
    pub delivered_total: u64,
    pub hops: u64,
    pub break_in_attempts: u64,
    pub congested: u64,
}

/// Replays every trial of every point `rounds` times on `threads`
/// workers pulling trials from a shared counter. Span trace ids are the
/// work-item index + 1, so each replayed trial is one trace.
pub fn replay(points: &[Point], rounds: u64, threads: usize, epoch: Instant) -> Replay {
    let mut offsets = Vec::with_capacity(points.len() + 1);
    let mut per_round = 0u64;
    for p in points {
        offsets.push(per_round);
        per_round += p.trials;
    }
    let items = per_round * rounds;
    let next = AtomicU64::new(0);
    let cells = points.len() * rounds as usize;
    let outputs: Vec<(Vec<Span>, Vec<TrialCounts>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads as u64)
            .map(|thread| {
                let next = &next;
                let offsets = &offsets;
                scope.spawn(move || {
                    let mut log = SpanLog::new(epoch, thread);
                    let mut scratch = Scratch::new();
                    let mut cells_counts = vec![TrialCounts::default(); cells];
                    loop {
                        let item = next.fetch_add(1, Ordering::Relaxed);
                        if item >= items {
                            break;
                        }
                        let round = item / per_round;
                        let within = item % per_round;
                        let pi = offsets.partition_point(|&o| o <= within) - 1;
                        let trial = within - offsets[pi];
                        let counts =
                            replay_trial(&points[pi], trial, &mut scratch, &mut log, item + 1);
                        cells_counts[round as usize * points.len() + pi].add(&counts);
                    }
                    (log.into_spans(), cells_counts)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay worker panicked"))
            .collect()
    });
    let mut spans = Vec::new();
    let mut totals = vec![TrialCounts::default(); cells];
    for (thread_spans, counts) in outputs {
        spans.extend(thread_spans);
        for (total, c) in totals.iter_mut().zip(&counts) {
            total.add(c);
        }
    }
    let mut sum = TrialCounts::default();
    for c in &totals {
        sum.add(c);
    }
    Replay {
        spans,
        delivered: totals.iter().map(|c| c.delivered).collect(),
        trials: items,
        routes: sum.routes,
        delivered_total: sum.delivered,
        hops: sum.hops,
        break_in_attempts: sum.break_in_attempts,
        congested: sum.congested,
    }
}
