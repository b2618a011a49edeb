//! Beyond-the-paper experiments: ablations and extensions from
//! `DESIGN.md`.
//!
//! | id | question |
//! |---|---|
//! | `ablation-evaluator` | how far are the two closed-form evaluators from Monte Carlo ground truth? |
//! | `ablation-routing`   | how much does the analytical independence assumption cost vs backtracking routing? |
//! | `ablation-chord`     | what does the Chord substrate's intermediate-hop exposure cost vs the paper's direct-hop abstraction? |
//! | `ext-repair`         | the paper's future work: `P_S(t)` with dynamic repair under stale vs adaptive attackers |
//! | `ablation-multirole` | the original SOS multi-role assumption vs single-role under growing `N_T` |
//! | `ext-monitoring`     | the §5 traffic-monitoring attacker: `P_S` vs tap probability |
//! | `ext-latency`        | the §5 timely-delivery trade-off: latency–resilience Pareto frontier |
//! | `ext-flow`           | capacity congestion vs the binary congested-is-dead assumption |
//! | `ext-stabilization`  | Chord protocol pointer recovery after mass failure |
//! | `ext-staleness`      | SOS delivery while the Chord ring is still converging after the attack |
//! | `ext-protocol-churn` | Chord lookup correctness under continuous join/leave churn |
//! | `ext-faults`         | benign message loss on top of a fixed attack: how much `P_S` do hop retries buy back? |

use sos_analysis::sweep::{SweepPoint, SweepSeries, SweepTable};
use sos_analysis::MultiRoleAnalysis;
use sos_core::{
    AttackBudget, AttackConfig, MappingDegree, PathEvaluator, Scenario, SuccessiveParams,
    SystemParams,
};
use sos_faults::{FaultConfig, RetryPolicy};
use sos_sim::engine::{SimulationConfig, TransportKind};
use sos_sim::repair::{AttackerPersistence, RepairConfig, RepairSimulation};
use sos_sim::routing::RoutingPolicy;
use sos_sim::{compare_models, run_sweep, ComparisonRow};

/// Monte Carlo sizing shared by the ablations.
#[derive(Debug, Clone, Copy)]
pub struct AblationOptions {
    /// Independent attacked overlays per configuration.
    pub trials: u64,
    /// Client messages routed per trial.
    pub routes_per_trial: u64,
    /// Master seed.
    pub seed: u64,
}

impl Default for AblationOptions {
    fn default() -> Self {
        AblationOptions {
            trials: 100,
            routes_per_trial: 100,
            seed: 42,
        }
    }
}

impl AblationOptions {
    /// A light sizing for smoke tests and CI.
    pub fn quick() -> Self {
        AblationOptions {
            trials: 30,
            routes_per_trial: 40,
            seed: 42,
        }
    }
}

/// Scaled-down paper scenario used by the Monte Carlo ablations: the
/// same structure at 1/10 of the population so ground-truth sweeps
/// finish quickly (`N = 1000`, `n = 100`, `L = 3`, 10 filters).
pub fn ablation_scenario(mapping: MappingDegree) -> Scenario {
    Scenario::builder()
        .system(SystemParams::new(1_000, 100, 0.5).expect("valid system"))
        .layers(3)
        .mapping(mapping)
        .filters(10)
        .build()
        .expect("valid scenario")
}

/// The 42-point profiling grid: three overlapping ablation-style
/// panels over one small scenario — the shape every figure family has.
///
/// Panels overlap deliberately (panel 2's direct series equals panel
/// 1's random-good series; panel 3's zero-loss series equals both),
/// exactly as real figure families share their baseline points, so the
/// sweep executor's intra-run dedup is exercised. Shared by
/// `bench_baseline`'s sweep workload and `sos profile`'s `grid`
/// workload, so the profiled shape is the benchmarked shape.
pub fn profile_grid(opts: AblationOptions) -> Vec<SimulationConfig> {
    let budgets = [0u64, 40, 80, 120, 160, 200];
    // Chord transport: the substrate every figure family pays the most
    // scratch-construction for, and therefore where per-point cold
    // starts hurt the most.
    let base = |n_c: u64| {
        SimulationConfig::new(
            ablation_scenario(MappingDegree::OneTo(5)),
            AttackConfig::OneBurst {
                budget: AttackBudget::new(60, n_c),
            },
        )
        .transport(TransportKind::Chord)
        .trials(opts.trials)
        .routes_per_trial(opts.routes_per_trial)
        .seed(opts.seed)
    };
    let mut configs = Vec::new();
    for policy in [
        RoutingPolicy::RandomGood,
        RoutingPolicy::FirstGood,
        RoutingPolicy::Backtracking,
    ] {
        for &n_c in &budgets {
            configs.push(base(n_c).policy(policy));
        }
    }
    for transport in [TransportKind::Direct, TransportKind::Chord] {
        for &n_c in &budgets {
            configs.push(base(n_c).transport(transport));
        }
    }
    for loss in [0.0, 0.2] {
        for &n_c in &budgets {
            configs.push(base(n_c).faults(FaultConfig::none().loss(loss).seed(opts.seed)));
        }
    }
    configs
}

/// `ablation-evaluator`: closed-form vs Monte Carlo `P_S` across the
/// Fig. 4(a)-style grid (pure congestion and mixed attacks, three
/// mappings).
pub fn evaluator_ablation(opts: AblationOptions) -> Vec<ComparisonRow> {
    let mut rows = Vec::new();
    for mapping in [
        MappingDegree::ONE_TO_ONE,
        MappingDegree::OneTo(5),
        MappingDegree::OneToHalf,
        MappingDegree::OneToAll,
    ] {
        for (n_t, n_c) in [(0u64, 200u64), (0, 600), (20, 200), (200, 200)] {
            let scenario = ablation_scenario(mapping.clone());
            let label = format!("{mapping} N_T={n_t} N_C={n_c}");
            let row = compare_models(
                label,
                &scenario,
                AttackConfig::OneBurst {
                    budget: AttackBudget::new(n_t, n_c),
                },
                opts.trials,
                opts.routes_per_trial,
                opts.seed,
            )
            .expect("ablation grid is valid");
            rows.push(row);
        }
    }
    rows
}

/// `ablation-routing`: empirical `P_S` vs congestion budget for the
/// three routing policies (random-good = the model's assumption,
/// first-good, backtracking = upper bound).
pub fn routing_ablation(opts: AblationOptions) -> SweepTable {
    let mut table = SweepTable::new("ablation-routing", "N_C", "P_S");
    let budgets = [0u64, 100, 200, 300, 400, 500];
    let policies = [
        RoutingPolicy::RandomGood,
        RoutingPolicy::FirstGood,
        RoutingPolicy::Backtracking,
    ];
    let configs: Vec<SimulationConfig> = policies
        .iter()
        .flat_map(|&policy| {
            budgets.iter().map(move |&n_c| {
                SimulationConfig::new(
                    ablation_scenario(MappingDegree::OneTo(2)),
                    AttackConfig::OneBurst {
                        budget: AttackBudget::new(100, n_c),
                    },
                )
                .policy(policy)
                .trials(opts.trials)
                .routes_per_trial(opts.routes_per_trial)
                .seed(opts.seed)
            })
        })
        .collect();
    let results = run_sweep(&configs);
    for (policy, chunk) in policies.iter().zip(results.chunks(budgets.len())) {
        table.push(SweepSeries {
            label: policy.to_string(),
            points: budgets
                .iter()
                .zip(chunk)
                .map(|(&n_c, result)| SweepPoint {
                    x: n_c as f64,
                    y: result.success_rate(),
                })
                .collect(),
        });
    }
    table
}

/// `ablation-chord`: direct-hop abstraction vs Chord-routed hops, with
/// the same overlays and attacks (paired seeds).
pub fn chord_ablation(opts: AblationOptions) -> SweepTable {
    let mut table = SweepTable::new("ablation-chord", "N_C", "P_S");
    let budgets = [0u64, 100, 200, 300, 400];
    let transports = [TransportKind::Direct, TransportKind::Chord];
    let configs: Vec<SimulationConfig> = transports
        .iter()
        .flat_map(|&transport| {
            budgets.iter().map(move |&n_c| {
                SimulationConfig::new(
                    ablation_scenario(MappingDegree::OneTo(2)),
                    AttackConfig::OneBurst {
                        budget: AttackBudget::new(0, n_c),
                    },
                )
                .transport(transport)
                .trials(opts.trials)
                .routes_per_trial(opts.routes_per_trial)
                .seed(opts.seed)
            })
        })
        .collect();
    let results = run_sweep(&configs);
    for (transport, chunk) in transports.iter().zip(results.chunks(budgets.len())) {
        table.push(SweepSeries {
            label: transport.label().to_string(),
            points: budgets
                .iter()
                .zip(chunk)
                .map(|(&n_c, result)| SweepPoint {
                    x: n_c as f64,
                    y: result.success_rate(),
                })
                .collect(),
        });
    }
    table
}

/// `ext-repair`: `P_S(t)` over repair steps for stale vs adaptive
/// attackers (the paper's named future work).
pub fn repair_extension(opts: AblationOptions) -> SweepTable {
    let mut table = SweepTable::new("ext-repair", "t", "P_S");
    for persistence in [AttackerPersistence::Stale, AttackerPersistence::Adaptive] {
        let sim = RepairSimulation::new(
            ablation_scenario(MappingDegree::OneTo(2)),
            AttackConfig::Successive {
                budget: AttackBudget::new(100, 300),
                params: SuccessiveParams::paper_default(),
            },
            RepairConfig::new(15, 12, persistence),
            opts.trials.min(40),
            opts.routes_per_trial,
            opts.seed,
        );
        let timeline = sim.run();
        table.push(SweepSeries {
            label: persistence.label().to_string(),
            points: timeline
                .steps
                .iter()
                .map(|s| SweepPoint {
                    x: s.step as f64,
                    y: s.ps,
                })
                .collect(),
        });
    }
    table
}

/// The loss rates swept by [`fault_sweep`].
pub const FAULT_SWEEP_LOSS_RATES: [f64; 6] = [0.0, 0.05, 0.1, 0.2, 0.3, 0.4];

/// `ext-faults`: empirical `P_S` vs benign per-hop loss rate at a fixed
/// mixed attack budget, with and without hop retries.
///
/// Expected shape: both series are non-increasing in the loss rate
/// (benign faults only remove paths), the `retry` series dominates the
/// `no-retry` series at every positive rate (losses are transient, so
/// re-attempts recover them), and both meet at `x = 0` bit-identically
/// (a zero-fault config never builds a fault plan).
pub fn fault_sweep(opts: AblationOptions) -> SweepTable {
    let mut table = SweepTable::new("ext-faults", "loss_rate", "P_S");
    let policies = [
        ("no-retry", RetryPolicy::none()),
        ("retry(4)", RetryPolicy::new(4, 1, 64)),
    ];
    let configs: Vec<SimulationConfig> = policies
        .iter()
        .flat_map(|&(_, retry)| {
            FAULT_SWEEP_LOSS_RATES.iter().map(move |&loss| {
                SimulationConfig::new(
                    ablation_scenario(MappingDegree::OneTo(2)),
                    AttackConfig::OneBurst {
                        budget: AttackBudget::new(50, 200),
                    },
                )
                .faults(FaultConfig::none().loss(loss).seed(opts.seed))
                .retry(retry)
                .trials(opts.trials)
                .routes_per_trial(opts.routes_per_trial)
                .seed(opts.seed)
            })
        })
        .collect();
    let results = run_sweep(&configs);
    for ((label, _), chunk) in policies
        .iter()
        .zip(results.chunks(FAULT_SWEEP_LOSS_RATES.len()))
    {
        table.push(SweepSeries {
            label: label.to_string(),
            points: FAULT_SWEEP_LOSS_RATES
                .iter()
                .zip(chunk)
                .map(|(&loss, result)| SweepPoint {
                    x: loss,
                    y: result.success_rate(),
                })
                .collect(),
        });
    }
    table
}

/// `ablation-multirole`: the original SOS multi-role assumption vs the
/// generalized single-role architecture as the break-in budget grows
/// (closed forms; no Monte Carlo needed).
pub fn multirole_ablation() -> SweepTable {
    let mut table = SweepTable::new("ablation-multirole", "N_T", "P_S");
    let system = SystemParams::paper_default();
    let grid: Vec<u64> = (0..=10).map(|i| i * 200).collect();

    let mr = MultiRoleAnalysis::new(system, 10).expect("valid baseline");
    table.push(SweepSeries {
        label: "multi-role one-to-all".to_string(),
        points: grid
            .iter()
            .map(|&n_t| SweepPoint {
                x: n_t as f64,
                y: mr
                    .success_probability(
                        AttackBudget::new(n_t, 2_000),
                        PathEvaluator::Binomial,
                    )
                    .expect("grid within overlay size")
                    .value(),
            })
            .collect(),
    });

    for mapping in [MappingDegree::OneToAll, MappingDegree::OneTo(2)] {
        let scenario = Scenario::builder()
            .system(system)
            .layers(3)
            .mapping(mapping.clone())
            .filters(10)
            .build()
            .expect("valid scenario");
        let points = grid
            .iter()
            .map(|&n_t| {
                let ps = sos_analysis::OneBurstAnalysis::new(
                    &scenario,
                    AttackBudget::new(n_t, 2_000),
                )
                .expect("grid within overlay size")
                .run()
                .success_probability(PathEvaluator::Binomial)
                .value();
                SweepPoint {
                    x: n_t as f64,
                    y: ps,
                }
            })
            .collect();
        table.push(SweepSeries {
            label: format!("single-role {mapping}"),
            points,
        });
    }
    table
}

/// `ext-monitoring`: the §5 traffic-monitoring attacker vs the base
/// successive attacker, across tap probabilities (Monte Carlo).
pub fn monitoring_extension(opts: AblationOptions) -> SweepTable {
    let mut table = SweepTable::new("ext-monitoring", "tap_probability", "P_S");
    let attack = AttackConfig::Successive {
        budget: AttackBudget::new(100, 300),
        params: SuccessiveParams::paper_default(),
    };
    let taps = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0];
    let configs: Vec<SimulationConfig> = taps
        .iter()
        .map(|&tap| {
            let cfg = SimulationConfig::new(
                ablation_scenario(MappingDegree::OneTo(2)),
                attack,
            )
            .trials(opts.trials)
            .routes_per_trial(opts.routes_per_trial)
            .seed(opts.seed);
            if tap > 0.0 {
                cfg.monitoring_tap(tap)
            } else {
                cfg
            }
        })
        .collect();
    let results = run_sweep(&configs);
    table.push(SweepSeries {
        label: "monitoring successive".to_string(),
        points: taps
            .iter()
            .zip(&results)
            .map(|(&tap, result)| SweepPoint {
                x: tap,
                y: result.success_rate(),
            })
            .collect(),
    });
    table
}

/// `ext-latency`: the latency–resilience Pareto frontier (§5 "timely
/// delivery" open issue), closed forms only.
pub fn latency_frontier() -> Vec<sos_analysis::DesignPoint> {
    sos_analysis::latency_resilience_frontier(
        SystemParams::paper_default(),
        sos_core::NodeDistribution::Even,
        AttackBudget::paper_default(),
        SuccessiveParams::paper_default(),
        sos_analysis::LatencyModel {
            per_hop_mean: 1.0,
            chord_transport: false,
            discipline: sos_analysis::ForwardingDiscipline::DelayAware,
        },
        1..=8,
        &MappingDegree::paper_named_set(),
    )
    .expect("paper grid is valid")
}

/// `ext-flow`: delivery probability as a function of per-slot attack
/// load (capacity model), with the binary model as the crushing-load
/// limit.
pub fn flow_extension(opts: AblationOptions) -> SweepTable {
    use sos_sim::{FlowModel, FlowSimulation};
    let mut table = SweepTable::new("ext-flow", "load_per_slot_over_capacity", "P_S");
    let attack = AttackConfig::OneBurst {
        budget: AttackBudget::new(50, 300),
    };
    let capacity = 100.0;
    let mut points = Vec::new();
    for ratio in [0.1, 0.3, 1.0, 3.0, 10.0, 100.0, 1e6] {
        let result = FlowSimulation::new(
            ablation_scenario(MappingDegree::OneTo(2)),
            attack,
            FlowModel::new(capacity, capacity * ratio),
            opts.trials,
            opts.routes_per_trial,
            opts.seed,
        )
        .run();
        points.push(SweepPoint {
            x: ratio,
            y: result.delivery_rate(),
        });
    }
    table.push(SweepSeries {
        label: "flow model".to_string(),
        points,
    });
    // Binary reference line (same value at every x).
    let binary = run_sweep(&[SimulationConfig::new(
        ablation_scenario(MappingDegree::OneTo(2)),
        attack,
    )
    .trials(opts.trials)
    .routes_per_trial(opts.routes_per_trial)
    .seed(opts.seed)])
    .remove(0);
    table.push(SweepSeries {
        label: "binary model".to_string(),
        points: [0.1, 0.3, 1.0, 3.0, 10.0, 100.0, 1e6]
            .iter()
            .map(|&x| SweepPoint {
                x,
                y: binary.success_rate(),
            })
            .collect(),
    });
    table
}

/// `ext-stabilization`: Chord-protocol recovery after mass failure —
/// strict-convergence fraction vs maintenance time, for several failure
/// fractions.
pub fn stabilization_extension() -> SweepTable {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sos_des::Scheduler;
    use sos_overlay::protocol::{run_maintenance, ChordProtocol, ProtocolConfig};
    use sos_overlay::NodeId;

    let mut table = SweepTable::new("ext-stabilization", "t", "converged_fraction");
    for kill_fraction in [0.1f64, 0.25, 0.4] {
        let mut rng = StdRng::seed_from_u64(2004);
        let mut proto = ChordProtocol::new(ProtocolConfig::default());
        let mut sched = Scheduler::new();
        // Build a 128-node ring and converge it.
        let mut ids = Vec::new();
        for i in 0..128u32 {
            let mut id = rng.gen::<u64>();
            while ids.contains(&id) {
                id = rng.gen::<u64>();
            }
            ids.push(id);
            if i == 0 {
                proto.bootstrap(id, NodeId(i), &mut sched);
            } else {
                let via = ids[rng.gen_range(0..i as usize)];
                proto.join(id, NodeId(i), via, &mut sched);
                let now = sched.now();
                run_maintenance(&mut proto, &mut sched, now + 30);
            }
        }
        let now = sched.now();
        run_maintenance(&mut proto, &mut sched, now + 2_000);
        // Kill a fraction and watch recovery.
        let kills = (128.0 * kill_fraction) as usize;
        for &id in ids.iter().take(kills) {
            proto.kill(id);
        }
        let mut points = vec![SweepPoint {
            x: 0.0,
            y: proto.convergence_fraction(),
        }];
        let start = sched.now();
        for step in 1..=20u64 {
            run_maintenance(&mut proto, &mut sched, start + step * 20);
            points.push(SweepPoint {
                x: (step * 20) as f64,
                y: proto.convergence_fraction(),
            });
        }
        table.push(SweepSeries {
            label: format!("kill={kill_fraction}"),
            points,
        });
    }
    table
}

/// `ext-staleness`: SOS delivery over the Chord *protocol* while the
/// ring digests the attack — the regime the oracle-ring transport
/// cannot show. The attack congests/breaks nodes, the same nodes die on
/// the ring, and `P_S` is measured at increasing maintenance times;
/// a short successor list (3) makes pointer staleness bite.
pub fn staleness_extension() -> SweepTable {
    staleness_extension_with_trials(20)
}

/// [`staleness_extension`] with an explicit trial count (smaller for
/// smoke tests).
pub fn staleness_extension_with_trials(trials: u64) -> SweepTable {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sos_attack::OneBurstAttacker;
    use sos_des::Scheduler;
    use sos_overlay::protocol::{run_maintenance, ChordProtocol, ProtocolConfig};
    use sos_overlay::{NodeId, Overlay, Transport};
    use sos_faults::RetryPolicy;
    use sos_sim::routing::{route_message, RouteScratch, RoutingPolicy};

    let mut table = SweepTable::new("ext-staleness", "t", "P_S");
    let scenario = Scenario::builder()
        .system(SystemParams::new(400, 60, 0.5).expect("valid"))
        .layers(3)
        .mapping(MappingDegree::OneTo(2))
        .filters(10)
        .build()
        .expect("valid");
    assert!(trials > 0, "at least one trial");
    let measure_points: Vec<u64> = (0..=10).map(|i| i * 10).collect();
    let mut protocol_ps: Vec<f64> = vec![0.0; measure_points.len()];
    let mut direct_ps = 0.0f64;
    let mut scratch = RouteScratch::new();
    let retry = RetryPolicy::none();

    for trial in 0..trials {
        let mut rng = StdRng::seed_from_u64(7_000 + trial);
        let mut overlay = Overlay::build(&scenario, &mut rng);

        // Converge a protocol ring over all overlay nodes (short
        // successor lists so staleness is visible).
        let cfg = ProtocolConfig {
            successor_list_len: 3,
            ..ProtocolConfig::default()
        };
        let mut proto = ChordProtocol::new(cfg);
        let mut sched = Scheduler::new();
        let members: Vec<NodeId> = overlay.overlay_ids().collect();
        let mut ids: Vec<u64> = Vec::with_capacity(members.len());
        for (i, &m) in members.iter().enumerate() {
            let mut id = rng.gen::<u64>();
            while ids.contains(&id) {
                id = rng.gen::<u64>();
            }
            ids.push(id);
            if i == 0 {
                proto.bootstrap(id, m, &mut sched);
            } else {
                let via = ids[rng.gen_range(0..i)];
                proto.join(id, m, via, &mut sched);
                if i % 8 == 0 {
                    let now = sched.now();
                    run_maintenance(&mut proto, &mut sched, now + 25);
                }
            }
        }
        let now = sched.now();
        run_maintenance(&mut proto, &mut sched, now + 3_000);

        // Attack lands: overlay statuses change and the same nodes die
        // on the ring (a congested node cannot serve Chord either).
        OneBurstAttacker::new(AttackBudget::new(40, 160)).execute(&mut overlay, &mut rng);
        proto.sync_overlay_damage(&overlay);

        // Reference: the paper's direct-hop abstraction on the same
        // damaged overlay.
        let mut hits = 0u32;
        for _ in 0..100 {
            if route_message(
                &overlay,
                &Transport::Direct,
                RoutingPolicy::RandomGood,
                None,
                &retry,
                None,
                &mut rng,
                &mut scratch,
            )
            .delivered
            {
                hits += 1;
            }
        }
        direct_ps += hits as f64 / 100.0;

        // Protocol transport at increasing maintenance times.
        let attack_time = sched.now();
        for (idx, &t) in measure_points.iter().enumerate() {
            run_maintenance(&mut proto, &mut sched, attack_time + t);
            let transport = Transport::Protocol(proto.clone());
            let mut hits = 0u32;
            for _ in 0..100 {
                if route_message(
                    &overlay,
                    &transport,
                    RoutingPolicy::RandomGood,
                    None,
                    &retry,
                    None,
                    &mut rng,
                    &mut scratch,
                )
                .delivered
                {
                    hits += 1;
                }
            }
            protocol_ps[idx] += hits as f64 / 100.0;
        }
    }

    table.push(SweepSeries {
        label: "protocol (converging)".to_string(),
        points: measure_points
            .iter()
            .zip(&protocol_ps)
            .map(|(&t, &p)| SweepPoint {
                x: t as f64,
                y: p / trials as f64,
            })
            .collect(),
    });
    table.push(SweepSeries {
        label: "direct (reference)".to_string(),
        points: measure_points
            .iter()
            .map(|&t| SweepPoint {
                x: t as f64,
                y: direct_ps / trials as f64,
            })
            .collect(),
    });
    table
}

/// `ext-protocol-churn`: the classic Chord churn evaluation — lookup
/// correctness as a function of the churn interval (one leave + one
/// join every `interval` ticks against a 10-tick stabilize period).
/// Correctness degrades as churn outpaces maintenance.
pub fn protocol_churn_extension() -> SweepTable {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sos_des::Scheduler;
    use sos_overlay::protocol::{run_maintenance, ChordProtocol, ProtocolConfig};
    use sos_overlay::NodeId;

    let mut table = SweepTable::new("ext-protocol-churn", "churn_interval", "lookup_correct");
    let mut points = Vec::new();
    for interval in [2u64, 5, 10, 20, 40, 80] {
        let mut rng = StdRng::seed_from_u64(2001);
        let mut proto = ChordProtocol::new(ProtocolConfig::default());
        let mut sched = Scheduler::new();
        let mut alive_ids: Vec<u64> = Vec::new();
        let mut next_node = 0u32;
        let mut used = std::collections::HashSet::new();
        // Build a converged 96-node ring.
        for i in 0..96usize {
            let mut id = rng.gen::<u64>();
            while !used.insert(id) {
                id = rng.gen::<u64>();
            }
            alive_ids.push(id);
            if i == 0 {
                proto.bootstrap(id, NodeId(next_node), &mut sched);
            } else {
                let via = alive_ids[rng.gen_range(0..i)];
                proto.join(id, NodeId(next_node), via, &mut sched);
                if i % 8 == 0 {
                    let now = sched.now();
                    run_maintenance(&mut proto, &mut sched, now + 25);
                }
            }
            next_node += 1;
        }
        let now = sched.now();
        run_maintenance(&mut proto, &mut sched, now + 3_000);

        // Churn for 150 events, sampling lookups continuously.
        let mut correct = 0u32;
        let mut total = 0u32;
        for _ in 0..150 {
            // One leave…
            let victim_idx = rng.gen_range(0..alive_ids.len());
            let victim = alive_ids.swap_remove(victim_idx);
            proto.kill(victim);
            // …and one join via a random alive bootstrap.
            let mut id = rng.gen::<u64>();
            while !used.insert(id) {
                id = rng.gen::<u64>();
            }
            let via = alive_ids[rng.gen_range(0..alive_ids.len())];
            proto.join(id, NodeId(next_node), via, &mut sched);
            next_node += 1;
            alive_ids.push(id);
            // Maintenance runs for one churn interval.
            let now = sched.now();
            run_maintenance(&mut proto, &mut sched, now + interval);
            // Sample lookups against the oracle.
            for _ in 0..4 {
                let key = rng.gen::<u64>();
                let from = alive_ids[rng.gen_range(0..alive_ids.len())];
                total += 1;
                if proto.lookup(from, key) == proto.oracle_successor(key) {
                    correct += 1;
                }
            }
        }
        points.push(SweepPoint {
            x: interval as f64,
            y: correct as f64 / total as f64,
        });
    }
    table.push(SweepSeries {
        label: "one leave + one join per interval".to_string(),
        points,
    });
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use sos_math::series::{trend, Trend};

    #[test]
    fn evaluator_ablation_binomial_tracks_simulation() {
        let rows = evaluator_ablation(AblationOptions::quick());
        assert_eq!(rows.len(), 16);
        // For one-to-one the binomial model should be close to ground
        // truth in every attack configuration.
        for row in rows.iter().filter(|r| r.label.starts_with("one-to-one")) {
            assert!(
                row.binomial_gap() < 0.12,
                "binomial gap too large for {}: {row}",
                row.label
            );
        }
    }

    #[test]
    fn routing_ablation_backtracking_dominates() {
        let t = routing_ablation(AblationOptions::quick());
        let random = t.series_by_label("random-good").unwrap();
        let backtrack = t.series_by_label("backtracking").unwrap();
        for (r, b) in random.points.iter().zip(&backtrack.points) {
            assert!(
                b.y >= r.y - 0.03,
                "backtracking below random-good at N_C={}",
                r.x
            );
        }
    }

    #[test]
    fn chord_ablation_direct_dominates() {
        let t = chord_ablation(AblationOptions::quick());
        let direct = t.series_by_label("direct").unwrap();
        let chord = t.series_by_label("chord").unwrap();
        for (d, c) in direct.points.iter().zip(&chord.points) {
            assert!(
                c.y <= d.y + 0.05,
                "chord above direct at N_C={}: {} vs {}",
                d.x,
                c.y,
                d.y
            );
        }
    }

    #[test]
    fn repair_extension_stale_recovers() {
        let t = repair_extension(AblationOptions::quick());
        let stale = t.series_by_label("stale").unwrap();
        let adaptive = t.series_by_label("adaptive").unwrap();
        assert!(stale.points.last().unwrap().y >= adaptive.points.last().unwrap().y);
        // Stale recovery is (weakly) upward after the initial hit.
        let ys = stale.ys();
        assert_ne!(trend(&ys, 0.02), Trend::NonIncreasing, "{ys:?}");
    }

    #[test]
    fn monitoring_extension_reduces_ps() {
        let t = monitoring_extension(AblationOptions::quick());
        let s = t.series_by_label("monitoring successive").unwrap();
        let first = s.points.first().unwrap().y;
        let last = s.points.last().unwrap().y;
        assert!(
            last < first,
            "full taps should hurt more than no taps: {last} vs {first}"
        );
    }

    #[test]
    fn latency_frontier_has_pareto_points() {
        let points = latency_frontier();
        assert_eq!(points.len(), 40, "8 layer counts x 5 mappings");
        let pareto = points.iter().filter(|p| p.pareto_optimal).count();
        assert!(pareto > 0 && pareto < points.len());
    }

    #[test]
    fn flow_extension_interpolates_to_binary() {
        // The flow and binary engines use independent trial RNG streams,
        // so the comparison is unpaired — use enough trials to shrink
        // the Monte Carlo noise below the asserted tolerance.
        let t = flow_extension(AblationOptions {
            trials: 120,
            routes_per_trial: 60,
            seed: 42,
        });
        let flow = t.series_by_label("flow model").unwrap();
        let binary = t.series_by_label("binary model").unwrap();
        // Light load: flow is more optimistic than binary.
        assert!(flow.points[0].y > binary.points[0].y);
        // Crushing load: flow approaches binary.
        let last = flow.points.last().unwrap().y;
        let bin = binary.points[0].y;
        assert!((last - bin).abs() < 0.08, "flow {last} vs binary {bin}");
        // Monotone non-increasing in load.
        assert_eq!(
            sos_math::series::trend(&flow.ys(), 0.02),
            sos_math::series::Trend::NonIncreasing
        );
    }

    #[test]
    fn stabilization_recovers_to_full_convergence() {
        let t = stabilization_extension();
        for s in &t.series {
            let first = s.points.first().unwrap().y;
            let last = s.points.last().unwrap().y;
            assert!(first < 1.0, "{}: failures must break pointers", s.label);
            assert_eq!(last, 1.0, "{}: ring must fully recover", s.label);
        }
        // Heavier failures start from worse convergence.
        let light = t.series_by_label("kill=0.1").unwrap().points[0].y;
        let heavy = t.series_by_label("kill=0.4").unwrap().points[0].y;
        assert!(heavy < light);
    }

    #[test]
    fn staleness_recovers_toward_direct_reference() {
        let t = staleness_extension_with_trials(8);
        let proto = t.series_by_label("protocol (converging)").unwrap();
        let direct = t.series_by_label("direct (reference)").unwrap();
        let stale = proto.points.first().unwrap().y;
        let healed = proto.points.last().unwrap().y;
        let reference = direct.points[0].y;
        assert!(
            stale < reference - 0.02,
            "staleness must cost something: {stale} vs {reference}"
        );
        assert!(
            healed > stale,
            "maintenance must recover delivery: {healed} vs {stale}"
        );
        // 8 trials leaves ~±0.05 of Monte Carlo noise on both
        // estimates; 0.08 keeps "tracks the reference" distinguishable
        // from the stale gap asserted above without a flaky margin.
        assert!(
            (healed - reference).abs() < 0.08,
            "healed ring should track the direct reference: {healed} vs {reference}"
        );
    }

    #[test]
    fn fault_sweep_retries_dominate_and_loss_hurts() {
        let t = fault_sweep(AblationOptions::quick());
        let bare = t.series_by_label("no-retry").unwrap();
        let retried = t.series_by_label("retry(4)").unwrap();
        assert_eq!(bare.points.len(), FAULT_SWEEP_LOSS_RATES.len());
        // Zero-fault anchor: both series skip the fault plane entirely
        // and land on the same bits.
        assert_eq!(bare.points[0].y, retried.points[0].y);
        // Retries dominate strictly at every positive loss rate.
        for (b, r) in bare.points.iter().zip(&retried.points).skip(1) {
            assert!(
                r.y > b.y,
                "retries must improve P_S at loss={}: {} vs {}",
                b.x,
                r.y,
                b.y
            );
        }
        // Benign loss only removes paths: P_S never rises with the loss
        // rate. The bare series must visibly decline; the retried one
        // may also stay flat within tolerance — four retries can mask
        // the quick grid's low loss rates almost completely.
        assert_eq!(trend(&bare.ys(), 0.02), Trend::NonIncreasing, "{:?}", bare.ys());
        let retried_trend = trend(&retried.ys(), 0.02);
        assert!(
            matches!(retried_trend, Trend::NonIncreasing | Trend::Flat),
            "{retried_trend:?}: {:?}",
            retried.ys()
        );
        // Retries never recover compromises: the retried series stays
        // below the zero-fault anchor.
        for r in &retried.points[1..] {
            assert!(r.y <= retried.points[0].y + 1e-12);
        }
    }

    #[test]
    fn protocol_churn_correctness_improves_with_slower_churn() {
        let t = protocol_churn_extension();
        let s = t.series_by_label("one leave + one join per interval").unwrap();
        let ys = s.ys();
        // Fast churn (interval 2 vs stabilize period 10) breaks lookups;
        // slow churn is near-perfect.
        assert!(ys[0] < 0.8, "interval-2 churn should hurt: {ys:?}");
        assert!(*ys.last().unwrap() > 0.97, "slow churn should be near-perfect");
        assert_eq!(
            sos_math::series::trend(&ys, 0.02),
            sos_math::series::Trend::NonDecreasing,
            "{ys:?}"
        );
    }

    #[test]
    fn multirole_collapses_fastest() {
        let t = multirole_ablation();
        let multi = t.series_by_label("multi-role one-to-all").unwrap();
        let single2 = t.series_by_label("single-role one-to-2").unwrap();
        // At the heaviest break-in budget the multi-role design is dead
        // while one-to-two retains some service.
        let last_multi = multi.points.last().unwrap().y;
        let last_single = single2.points.last().unwrap().y;
        assert!(last_multi < 0.01, "multi-role survived: {last_multi}");
        assert!(last_single > last_multi);
    }
}
