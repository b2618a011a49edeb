//! The batched SoA route kernel must be observationally pure: every
//! lane equals the scalar `route_message` oracle (same
//! delivered/hops/incidents, same RNG sub-stream), and whole-run
//! results are byte-identical at any batch width and thread count —
//! each route draws from its own `route_lane_seed` stream, so lane
//! order and chunking cannot perturb draws.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sos_attack::OneBurstAttacker;
use sos_core::{AttackBudget, AttackConfig, MappingDegree, Scenario, SystemParams};
use sos_faults::{FaultConfig, FaultPlan, RetryPolicy};
use sos_overlay::{ChordRing, NodeBitSet, NodeId, Overlay, Transport};
use sos_sim::engine::{SimulationConfig, TransportKind};
use sos_sim::routing::{route_message, RouteScratch, RoutingPolicy};
use sos_sim::{
    route_lane_seed, stream, trial_stream_seed, ExecOptions, RouteBatchScratch, Simulation,
    SweepExecutor,
};

/// Default exec options at route-kernel width `width`.
fn width(route_width: usize) -> ExecOptions {
    ExecOptions {
        route_width,
        ..ExecOptions::default()
    }
}

const POLICIES: [RoutingPolicy; 3] = [
    RoutingPolicy::RandomGood,
    RoutingPolicy::FirstGood,
    RoutingPolicy::Backtracking,
];

fn scenario() -> Scenario {
    Scenario::builder()
        .system(SystemParams::new(500, 45, 0.5).unwrap())
        .layers(3)
        .mapping(MappingDegree::OneTo(2))
        .filters(10)
        .build()
        .unwrap()
}

/// A damaged overlay plus transport, the way the engine prepares one:
/// build, attack, sync, then resolve the ring liveness mask once.
fn damaged(seed: u64, chord: bool, faults: Option<&FaultPlan>) -> (Overlay, Transport, NodeBitSet) {
    let sc = scenario();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut overlay = Overlay::build(&sc, &mut rng);
    let mut transport = if chord {
        let members: Vec<NodeId> = overlay.overlay_ids().collect();
        let mut ring_rng = StdRng::seed_from_u64(seed.wrapping_add(1));
        Transport::Chord(ChordRing::build(&mut ring_rng, &members))
    } else {
        Transport::Direct
    };
    let mut attack_rng = StdRng::seed_from_u64(seed.wrapping_add(2));
    OneBurstAttacker::new(AttackBudget::new(60, 90)).execute(&mut overlay, &mut attack_rng);
    transport.sync_damage(&overlay);
    let mut mask = NodeBitSet::new();
    let has_mask = transport.refresh_alive_positions(&overlay, faults, &mut mask);
    assert_eq!(has_mask, chord, "chord transports always produce a mask");
    (overlay, transport, mask)
}

/// Evaluates `count` lanes through the kernel in the given mode and
/// clones the per-lane results out.
#[allow(clippy::too_many_arguments)]
fn kernel_results(
    overlay: &Overlay,
    transport: &Transport,
    policy: RoutingPolicy,
    faults: Option<&FaultPlan>,
    route_master: u64,
    count: usize,
    alive: Option<&NodeBitSet>,
    batched: bool,
) -> Vec<sos_sim::routing::RouteResult> {
    let mut kernel = RouteBatchScratch::new();
    let mut oracle = RouteScratch::new();
    kernel.begin_trial();
    kernel.evaluate(
        overlay,
        transport,
        policy,
        faults,
        &RetryPolicy::none(),
        route_master,
        0,
        count,
        alive,
        &mut oracle,
        batched,
    );
    (0..count).map(|k| kernel.result(k).clone()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Lane-for-lane: the batched fast path equals the scalar oracle —
    /// and both equal a by-hand `route_message` call seeded with
    /// the public `route_lane_seed` derivation — across all three
    /// routing policies, both transports, and fault plane on/off.
    #[test]
    fn kernel_lanes_match_scalar_oracle(seed in 0..1_000u64, trial in 0..50u64) {
        let fault_cfg = FaultConfig::none().loss(0.25).delay(0.2, 2).seed(9);
        let route_master = trial_stream_seed(seed, stream::ROUTE, trial);
        let count = 24usize;
        for chord in [false, true] {
            for policy in POLICIES {
                for faulted in [false, true] {
                    let plan_mask = faulted.then(|| FaultPlan::new(&fault_cfg, trial));
                    let (overlay, transport, mask) = damaged(seed, chord, plan_mask.as_ref());
                    let alive = chord.then_some(&mask);

                    let plan_a = faulted.then(|| FaultPlan::new(&fault_cfg, trial));
                    let fast = kernel_results(
                        &overlay, &transport, policy, plan_a.as_ref(),
                        route_master, count, alive, true,
                    );
                    let plan_b = faulted.then(|| FaultPlan::new(&fault_cfg, trial));
                    let slow = kernel_results(
                        &overlay, &transport, policy, plan_b.as_ref(),
                        route_master, count, alive, false,
                    );
                    prop_assert_eq!(
                        &fast, &slow,
                        "kernel != oracle: chord={} policy={} faults={}",
                        chord, policy, faulted
                    );

                    // And a by-hand scalar loop over the public lane-seed
                    // helper reproduces the same lanes.
                    let plan_c = faulted.then(|| FaultPlan::new(&fault_cfg, trial));
                    let mut scratch = RouteScratch::new();
                    for (k, expect) in fast.iter().enumerate() {
                        let mut rng = StdRng::seed_from_u64(
                            route_lane_seed(seed, trial, k as u64),
                        );
                        let manual = route_message(
                            &overlay, &transport, policy, plan_c.as_ref(),
                            &RetryPolicy::none(), alive, &mut rng, &mut scratch,
                        );
                        prop_assert_eq!(
                            manual, expect,
                            "lane {} != manual: chord={} policy={} faults={}",
                            k, chord, policy, faulted
                        );
                    }
                }
            }
        }
    }
}

fn sim_config(
    transport: TransportKind,
    policy: RoutingPolicy,
    faulted: bool,
) -> SimulationConfig {
    let mut cfg = SimulationConfig::new(
        scenario(),
        AttackConfig::OneBurst {
            budget: AttackBudget::new(40, 70),
        },
    )
    .trials(12)
    .routes_per_trial(30)
    .seed(11)
    .transport(transport)
    .policy(policy);
    if faulted {
        cfg = cfg.faults(FaultConfig::none().loss(0.2).seed(3));
    }
    cfg
}

/// `run_parallel` output is byte-identical across batch widths 1/4/16/64
/// and 1/2/4/8 threads, for greedy and backtracking policies, both
/// transports, fault plane on and off.
#[test]
fn run_parallel_byte_identical_across_widths_and_threads() {
    for transport in [TransportKind::Direct, TransportKind::Chord] {
        for (policy, faulted) in [
            (RoutingPolicy::RandomGood, false),
            (RoutingPolicy::FirstGood, false),
            (RoutingPolicy::Backtracking, false),
            (RoutingPolicy::RandomGood, true),
        ] {
            let cfg = sim_config(transport, policy, faulted);
            let mut reference: Option<String> = None;
            for route_width in [1usize, 4, 16, 64] {
                let sim = Simulation::new(cfg.clone()).with_exec(width(route_width));
                for threads in [1usize, 2, 4, 8] {
                    let json = serde_json::to_string(&sim.run_parallel(threads)).unwrap();
                    match &reference {
                        None => reference = Some(json),
                        Some(expect) => assert_eq!(
                            expect, &json,
                            "width {route_width} / {threads} threads diverged \
                             ({transport:?} {policy} faults={faulted})"
                        ),
                    }
                }
            }
        }
    }
}

/// `run_sweep` (the pooled executor) is byte-identical across batch
/// widths too — the kernel lives below the sweep scheduler, so cached
/// and recomputed points agree at any width.
#[test]
fn run_sweep_byte_identical_across_widths() {
    let configs: Vec<SimulationConfig> = [TransportKind::Direct, TransportKind::Chord]
        .into_iter()
        .flat_map(|t| {
            POLICIES
                .into_iter()
                .map(move |p| sim_config(t, p, false).trials(8))
        })
        .collect();
    let mut reference: Option<String> = None;
    for route_width in [1usize, 4, 16, 64] {
        let results = SweepExecutor::with_threads(4)
            .with_exec(width(route_width))
            .run(&configs);
        let json = serde_json::to_string(&results).unwrap();
        match &reference {
            None => reference = Some(json),
            Some(expect) => assert_eq!(expect, &json, "sweep diverged at width {route_width}"),
        }
    }
}

/// Exec options are per run, not process state: the same Chord config
/// at width 1 and width 64 on two threads at once, with no lock,
/// cannot see each other's width.
#[test]
fn concurrent_runs_at_different_widths_agree() {
    let cfg = sim_config(TransportKind::Chord, RoutingPolicy::RandomGood, true);
    let run_at = |route_width: usize| {
        let sim = Simulation::new(cfg.clone()).with_exec(width(route_width));
        move || serde_json::to_string(&sim.run_parallel(2)).unwrap()
    };
    let scalar = std::thread::spawn(run_at(1));
    let batched = std::thread::spawn(run_at(64));
    assert_eq!(scalar.join().unwrap(), batched.join().unwrap());
}

/// Fig. 4-style statistical check: after the per-route stream
/// migration the Monte Carlo delivery probability still matches the
/// paper's hypergeometric evaluator priced on the same realized damage
/// (the distribution is unchanged even though the draws moved to
/// dedicated `ROUTE` sub-streams).
#[test]
fn mc_still_matches_analytic_model_after_stream_migration() {
    let cfg = SimulationConfig::new(
        scenario(),
        AttackConfig::OneBurst {
            budget: AttackBudget::new(0, 120),
        },
    )
    .trials(80)
    .routes_per_trial(50)
    .seed(29);
    let result = Simulation::new(cfg).run_parallel(4);
    let mc = result.success_rate();
    let analytic = result.realized_ps_hypergeometric;
    assert!(
        (mc - analytic).abs() < 0.04,
        "MC {mc} vs hypergeometric {analytic}"
    );
}
