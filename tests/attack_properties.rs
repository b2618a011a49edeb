//! Property-based tests for the executable attackers: resource and
//! consistency invariants over random configurations and seeds.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sos::attack::monitoring::LayeringModel;
use sos::attack::{
    AttackEvent, AttackOutcome, AttackScratch, AttackerKnowledge, CongestionReason,
    MonitoringAttacker, OneBurstAttacker, RoundSummary, SuccessiveAttacker,
};
use sos::core::{
    AttackBudget, MappingDegree, NodeDistribution, Scenario, SuccessiveParams,
    SystemParams,
};
use sos::math::sampling::{
    bernoulli, proportional_split, sample_from, sample_indices, stochastic_round,
};
use sos::overlay::{NodeId, NodeStatus, Overlay, Role};
use std::collections::{HashMap, HashSet};

fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    (
        300u64..2_000,
        30u64..120,
        1usize..5,
        prop_oneof![
            Just(MappingDegree::ONE_TO_ONE),
            (2u64..6).prop_map(MappingDegree::OneTo),
            Just(MappingDegree::OneToHalf),
        ],
        0.05f64..1.0,
    )
        .prop_filter_map("valid scenario", |(n, sos, l, mapping, p_b)| {
            let system = SystemParams::new(n, sos, p_b).ok()?;
            Scenario::builder()
                .system(system)
                .layers(l)
                .distribution(NodeDistribution::Even)
                .mapping(mapping)
                .filters(8)
                .build()
                .ok()
        })
}

fn check_invariants(
    overlay: &Overlay,
    outcome: &sos::attack::AttackOutcome,
    budget: AttackBudget,
) -> Result<(), TestCaseError> {
    // Budgets respected.
    prop_assert!(outcome.total_attempts() as u64 <= budget.break_in_trials);
    prop_assert!(outcome.total_congested() as u64 <= budget.congestion_capacity);

    // No node both broken and congested; outcome lists are duplicate-free.
    let broken: HashSet<_> = outcome.broken.iter().collect();
    let congested: HashSet<_> = outcome.congested.iter().collect();
    prop_assert_eq!(broken.len(), outcome.broken.len());
    prop_assert_eq!(congested.len(), outcome.congested.len());
    prop_assert!(broken.is_disjoint(&congested));

    // Outcome statuses agree with the overlay.
    for &b in &outcome.broken {
        prop_assert_eq!(overlay.status(b), NodeStatus::Broken);
    }
    for &c in &outcome.congested {
        prop_assert_eq!(overlay.status(c), NodeStatus::Congested);
    }
    // Every bad node on the overlay is accounted for.
    let bad_on_overlay = overlay.total_bad();
    prop_assert_eq!(bad_on_overlay, outcome.broken.len() + outcome.congested.len());

    // Disclosed nodes are always infrastructure at layer ≥ 1 (never
    // bystanders — neighbor tables only contain SOS/filters).
    for &d in &outcome.disclosed {
        prop_assert!(overlay.layer_of(d).is_some(), "{d} disclosed but bystander");
    }

    // Attempts never target filters.
    for &a in &outcome.attempted {
        prop_assert!(
            overlay.role(a) != sos::overlay::Role::Filter,
            "{a} is a filter"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn one_burst_attacker_invariants(
        scenario in scenario_strategy(),
        nt_frac in 0.0f64..0.5,
        nc_frac in 0.0f64..0.5,
        seed in 0u64..10_000,
    ) {
        let n = scenario.system().overlay_nodes();
        let budget = AttackBudget::new(
            (n as f64 * nt_frac) as u64,
            (n as f64 * nc_frac) as u64,
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut overlay = Overlay::build(&scenario, &mut rng);
        let outcome = OneBurstAttacker::new(budget).execute(&mut overlay, &mut rng);
        // One-burst spends the whole break-in budget (uniform over N).
        prop_assert_eq!(outcome.total_attempts() as u64, budget.break_in_trials);
        check_invariants(&overlay, &outcome, budget)?;
    }

    #[test]
    fn successive_attacker_invariants(
        scenario in scenario_strategy(),
        nt in 0u64..300,
        nc in 0u64..300,
        rounds in 1u32..6,
        p_e in 0.0f64..=1.0,
        seed in 0u64..10_000,
    ) {
        let budget = AttackBudget::new(nt, nc);
        let params = SuccessiveParams::new(rounds, p_e).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut overlay = Overlay::build(&scenario, &mut rng);
        let outcome =
            SuccessiveAttacker::new(budget, params).execute(&mut overlay, &mut rng);
        prop_assert!(outcome.rounds.len() <= rounds as usize);
        check_invariants(&overlay, &outcome, budget)?;
    }

    #[test]
    fn monitoring_attacker_invariants(
        scenario in scenario_strategy(),
        nt in 0u64..300,
        nc in 0u64..300,
        tap in 0.0f64..=1.0,
        seed in 0u64..10_000,
    ) {
        let budget = AttackBudget::new(nt, nc);
        let params = SuccessiveParams::paper_default();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut overlay = Overlay::build(&scenario, &mut rng);
        let result = MonitoringAttacker::new(budget, params, tap)
            .execute(&mut overlay, &mut rng);
        check_invariants(&overlay, &result.outcome, budget)?;
        // The layering model never invents nodes.
        prop_assert!(result.layering.mapped_nodes()
            <= overlay.total_node_count());
        prop_assert!((0.0..=1.0).contains(&result.layering.accuracy(&overlay)));
    }
}

/// The `Vec`-based Algorithm 1 loop the word-level attackers replaced:
/// each random phase collects the untouched overlay ids into a `Vec`
/// and calls `sample_from`. `tap` switches on the monitoring attacker's
/// backward disclosure and layering model.
fn reference_successive(
    overlay: &mut Overlay,
    rng: &mut StdRng,
    budget: AttackBudget,
    params: SuccessiveParams,
    tap: Option<f64>,
) -> (AttackOutcome, usize, LayeringModel) {
    let mut upstream: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
    for layer in 1..=overlay.layer_count() {
        for &node in overlay.layer_members(layer) {
            for &next in overlay.neighbors(node) {
                upstream.entry(next).or_default().push(node);
            }
        }
    }
    let n_t = budget.break_in_trials as usize;
    let r = params.rounds();
    let quotas = proportional_split(n_t as u64, &vec![1.0; r as usize]);
    let mut knowledge = AttackerKnowledge::default();
    let mut outcome = AttackOutcome::default();
    let mut layering = LayeringModel::default();
    let mut backward = 0usize;

    let first_layer = overlay.layer_members(1).to_vec();
    let prior = stochastic_round(
        rng,
        first_layer.len() as f64 * params.prior_knowledge().value(),
    )
    .min(first_layer.len() as u64) as usize;
    for node in sample_from(rng, &first_layer, prior) {
        knowledge.disclose(node);
        if tap.is_some() {
            layering.learn(node, 1);
        }
        outcome.disclosed.push(node);
        outcome.trace.record(AttackEvent::PriorKnowledge { node });
    }

    let mut beta = n_t;
    for round in 1..=r {
        if beta == 0 {
            break;
        }
        let pending = knowledge.pending().to_sorted_vec();
        let x = pending.len();
        let alpha = quotas[(round - 1) as usize] as usize;
        let (targets, random_count, terminal, case) = if x >= beta {
            (sample_from(rng, &pending, beta), 0usize, true, 4u8)
        } else if beta <= alpha {
            (pending.clone(), beta - x, true, 2)
        } else if x < alpha {
            (pending.clone(), alpha - x, false, 1)
        } else {
            (pending.clone(), 0usize, false, 3)
        };
        outcome.trace.record(AttackEvent::RoundPlan {
            round,
            case,
            known: x as u32,
        });
        let broken_before = outcome.broken.len();
        let mut newly_disclosed = 0usize;
        let attempted_disclosed = targets.len();
        for node in targets {
            newly_disclosed +=
                reference_break_in(overlay, &mut knowledge, &mut outcome, node, round, rng);
        }
        let mut attempted_random = 0usize;
        if random_count > 0 {
            let candidates: Vec<NodeId> = overlay
                .overlay_ids()
                .filter(|&id| !knowledge.has_attempted(id) && !knowledge.knows(id))
                .collect();
            let picks = sample_from(rng, &candidates, random_count.min(candidates.len()));
            attempted_random = picks.len();
            for node in picks {
                newly_disclosed +=
                    reference_break_in(overlay, &mut knowledge, &mut outcome, node, round, rng);
            }
        }
        if let Some(p) = tap {
            let captured = outcome.broken[broken_before..].to_vec();
            for node in captured {
                if let Some(layer) = overlay.layer_of(node) {
                    layering.learn(node, layer);
                    for &next in overlay.neighbors(node) {
                        layering.learn(next, layer + 1);
                    }
                }
                let senders = upstream.get(&node).cloned().unwrap_or_default();
                for sender in senders {
                    if knowledge.knows(sender) || !bernoulli(rng, p) {
                        continue;
                    }
                    backward += 1;
                    newly_disclosed += 1;
                    outcome.disclosed.push(sender);
                    outcome.trace.record(AttackEvent::Disclosure {
                        round,
                        source: node,
                        revealed: sender,
                    });
                    if let Some(layer) = overlay.layer_of(node) {
                        layering.learn(sender, layer.saturating_sub(1).max(1));
                    }
                    if overlay.role(sender) == Role::Filter {
                        knowledge.disclose_unbreakable(sender);
                    } else {
                        knowledge.disclose(sender);
                    }
                }
            }
        }
        beta -= attempted_disclosed + attempted_random;
        outcome.rounds.push(RoundSummary {
            round,
            known_at_start: x,
            attempted_disclosed,
            attempted_random,
            broken: outcome.broken.len() - broken_before,
            newly_disclosed,
        });
        if terminal {
            break;
        }
    }
    outcome.leftover_disclosed = knowledge.pending().len();
    reference_congestion(overlay, &knowledge, budget, rng, &mut outcome);
    (outcome, backward, layering)
}

/// The one-burst attack over the same `Vec`-based phases.
fn reference_one_burst(
    overlay: &mut Overlay,
    rng: &mut StdRng,
    budget: AttackBudget,
) -> AttackOutcome {
    let mut knowledge = AttackerKnowledge::default();
    let mut outcome = AttackOutcome::default();
    let n_t = budget.break_in_trials as usize;
    let mut newly_disclosed = 0usize;
    for i in sample_indices(rng, overlay.overlay_node_count(), n_t) {
        let node = NodeId(i as u32);
        newly_disclosed += reference_break_in(overlay, &mut knowledge, &mut outcome, node, 1, rng);
    }
    outcome.rounds.push(RoundSummary {
        round: 1,
        known_at_start: 0,
        attempted_disclosed: 0,
        attempted_random: outcome.attempted.len(),
        broken: outcome.broken.len(),
        newly_disclosed,
    });
    reference_congestion(overlay, &knowledge, budget, rng, &mut outcome);
    outcome
}

fn reference_break_in(
    overlay: &mut Overlay,
    knowledge: &mut AttackerKnowledge,
    outcome: &mut AttackOutcome,
    node: NodeId,
    round: u32,
    rng: &mut StdRng,
) -> usize {
    let p_b = overlay.scenario().system().break_in_probability().value();
    let succeeded = bernoulli(rng, p_b);
    knowledge.record_attempt(node, succeeded);
    outcome.attempted.push(node);
    outcome.trace.record(AttackEvent::BreakInAttempt {
        round,
        node,
        succeeded,
    });
    let mut disclosed = 0usize;
    if succeeded {
        overlay.set_status(node, NodeStatus::Broken);
        outcome.broken.push(node);
        for neighbor in overlay.neighbors(node).to_vec() {
            if knowledge.knows(neighbor) {
                continue;
            }
            disclosed += 1;
            outcome.disclosed.push(neighbor);
            outcome.trace.record(AttackEvent::Disclosure {
                round,
                source: node,
                revealed: neighbor,
            });
            if overlay.role(neighbor) == Role::Filter {
                knowledge.disclose_unbreakable(neighbor);
            } else {
                knowledge.disclose(neighbor);
            }
        }
    }
    disclosed
}

/// Congest a `sample_from` subset of the known-not-broken nodes, then spill
/// over a `sample_from` draw of the good overlay ids.
fn reference_congestion(
    overlay: &mut Overlay,
    knowledge: &AttackerKnowledge,
    budget: AttackBudget,
    rng: &mut StdRng,
    outcome: &mut AttackOutcome,
) {
    let capacity = budget.congestion_capacity as usize;
    let targets: Vec<NodeId> = knowledge.known_sos().difference_iter(knowledge.broken()).collect();
    let chosen = if capacity >= targets.len() {
        targets
    } else {
        sample_from(rng, &targets, capacity)
    };
    for &node in &chosen {
        if overlay.status(node) == NodeStatus::Good {
            overlay.set_status(node, NodeStatus::Congested);
            outcome.congested.push(node);
            outcome.trace.record(AttackEvent::Congestion {
                node,
                reason: CongestionReason::Targeted,
            });
        }
    }
    let spare = capacity.saturating_sub(chosen.len());
    if spare > 0 {
        let pool: Vec<NodeId> = overlay
            .overlay_ids()
            .filter(|&id| overlay.status(id) == NodeStatus::Good)
            .collect();
        for node in sample_from(rng, &pool, spare.min(pool.len())) {
            overlay.set_status(node, NodeStatus::Congested);
            outcome.congested.push(node);
            outcome.trace.record(AttackEvent::Congestion {
                node,
                reason: CongestionReason::Random,
            });
        }
    }
}

/// Everything observable about an executed attack: the outcome lists,
/// rounds, leftover backlog, trace events, every node's post-attack
/// status and the next RNG word (equal RNG state).
type Observed = (
    [Vec<NodeId>; 4],
    Vec<RoundSummary>,
    usize,
    Vec<AttackEvent>,
    Vec<NodeStatus>,
    u64,
);

fn observe(overlay: &Overlay, outcome: AttackOutcome, rng: &mut StdRng) -> Observed {
    let statuses = (0..overlay.total_node_count() as u32)
        .map(|i| overlay.status(NodeId(i)))
        .collect();
    (
        [outcome.attempted, outcome.broken, outcome.congested, outcome.disclosed],
        outcome.rounds,
        outcome.leftover_disclosed,
        outcome.trace.events().to_vec(),
        statuses,
        rng.gen(),
    )
}

/// The layering model as `(mapped nodes, believed layer of every id)`.
fn layers_of(overlay: &Overlay, model: &LayeringModel) -> (usize, Vec<Option<usize>>) {
    let ids = 0..overlay.total_node_count() as u32;
    (model.mapped_nodes(), ids.map(|i| model.layer_of(NodeId(i))).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn word_level_attackers_match_the_vec_reference(
        scenarios in proptest::collection::vec(scenario_strategy(), 1..4),
        nt_frac in 0.0f64..0.6,
        nc_frac in 0.0f64..0.6,
        rounds in 1u32..6,
        p_e in 0.0f64..=1.0,
        tap in 0.0f64..=1.0,
        seed in 0u64..10_000,
    ) {
        // One scratch across scenarios of different N: nothing a larger
        // earlier attack left behind may change a later one.
        let mut scratch = AttackScratch::default();
        for (i, scenario) in scenarios.iter().enumerate() {
            let n = scenario.system().overlay_nodes() as f64;
            let budget = AttackBudget::new((n * nt_frac) as u64, (n * nc_frac) as u64);
            let params = SuccessiveParams::new(rounds, p_e).unwrap();
            let seed = seed + i as u64;
            let build = || Overlay::build(scenario, &mut StdRng::seed_from_u64(seed));
            let rng = || StdRng::seed_from_u64(seed ^ 0x5EED);

            // Successive: fresh `execute`, then the reused scratch.
            let (mut o, mut r) = (build(), rng());
            let (expect, _, _) = reference_successive(&mut o, &mut r, budget, params, None);
            let expect = observe(&o, expect, &mut r);
            let attacker = SuccessiveAttacker::new(budget, params);
            let (mut o, mut r) = (build(), rng());
            let fresh = attacker.execute(&mut o, &mut r);
            prop_assert_eq!(observe(&o, fresh, &mut r), expect.clone());
            let (mut o, mut r) = (build(), rng());
            let reused = attacker.execute_into(&mut o, &mut r, &mut scratch);
            prop_assert_eq!(observe(&o, reused, &mut r), expect);

            // Monitoring: outcome, backward count and layering model.
            let (mut o, mut r) = (build(), rng());
            let (expect, backward, layering) =
                reference_successive(&mut o, &mut r, budget, params, Some(tap));
            let expect = (observe(&o, expect, &mut r), backward, layers_of(&o, &layering));
            let attacker = MonitoringAttacker::new(budget, params, tap);
            for reuse in [false, true] {
                let (mut o, mut r) = (build(), rng());
                let m = if reuse {
                    attacker.execute_into(&mut o, &mut r, &mut scratch)
                } else {
                    attacker.execute(&mut o, &mut r)
                };
                let layers = layers_of(&o, &m.layering);
                let got = (observe(&o, m.outcome, &mut r), m.backward_disclosed, layers);
                prop_assert_eq!(got, expect.clone());
            }

            // One-burst through the same scratch.
            let (mut o, mut r) = (build(), rng());
            let expect = reference_one_burst(&mut o, &mut r, budget);
            let expect = observe(&o, expect, &mut r);
            let (mut o, mut r) = (build(), rng());
            let reused = OneBurstAttacker::new(budget).execute_into(&mut o, &mut r, &mut scratch);
            prop_assert_eq!(observe(&o, reused, &mut r), expect);
        }
    }
}
