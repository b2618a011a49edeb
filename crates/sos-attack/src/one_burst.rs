//! The one-burst attacker (§3.1), executed on a concrete overlay.

use crate::knowledge::{overlay_words, AttackScratch, AttackerKnowledge};
use crate::outcome::{AttackOutcome, RoundSummary};
use crate::trace::{AttackEvent, CongestionReason};
use rand::Rng;
use sos_core::AttackBudget;
use sos_observe::telemetry::{PhaseKind, PhaseTimer};
use sos_math::sampling::bernoulli;
use sos_overlay::{NodeId, NodeStatus, Overlay, Role};

/// Executes §3.1 literally: `N_T` uniform break-in trials in one volley,
/// then congestion.
#[derive(Debug, Clone, Copy)]
pub struct OneBurstAttacker {
    budget: AttackBudget,
}

impl OneBurstAttacker {
    /// Creates the attacker with the given resources.
    pub fn new(budget: AttackBudget) -> Self {
        OneBurstAttacker { budget }
    }

    /// The attacker's resources.
    pub fn budget(&self) -> AttackBudget {
        self.budget
    }

    /// Runs the attack, mutating node statuses on `overlay`.
    ///
    /// # Panics
    ///
    /// Panics if `N_T` exceeds the overlay population (the attacker
    /// cannot attempt more distinct nodes than exist) — validated
    /// upstream for analytical runs, asserted here for direct use.
    pub fn execute<R: Rng + ?Sized>(
        &self,
        overlay: &mut Overlay,
        rng: &mut R,
    ) -> AttackOutcome {
        self.execute_into(overlay, rng, &mut AttackScratch::default())
    }

    /// [`execute`](Self::execute) through a reused [`AttackScratch`]:
    /// the same result and panics, without the scratch allocations.
    pub fn execute_into<R: Rng + ?Sized>(
        &self,
        overlay: &mut Overlay,
        rng: &mut R,
        scratch: &mut AttackScratch,
    ) -> AttackOutcome {
        let big_n = overlay.overlay_node_count();
        let n_t = self.budget.break_in_trials as usize;
        assert!(
            n_t <= big_n,
            "N_T = {n_t} exceeds the overlay population {big_n}"
        );

        let mut outcome = AttackOutcome::for_budget(self.budget, overlay.total_node_count());
        let mut timer = PhaseTimer::start();
        let AttackScratch { knowledge, pool, .. } = scratch;
        knowledge.clear();

        // Break-in phase: N_T distinct uniform targets.
        pool.sampler.sample_indices_into(rng, big_n, n_t, &mut pool.ranks);
        let mut newly_disclosed = 0usize;
        for &i in &pool.ranks {
            newly_disclosed +=
                attempt_break_in(overlay, knowledge, &mut outcome, NodeId(i as u32), 1, rng);
        }
        outcome.rounds.push(RoundSummary {
            round: 1,
            known_at_start: 0,
            attempted_disclosed: 0,
            attempted_random: outcome.attempted.len(),
            broken: outcome.broken.len(),
            newly_disclosed,
        });
        timer.lap(PhaseKind::BreakIn);

        // Congestion phase.
        execute_congestion_phase(overlay, scratch, self.budget, rng, &mut outcome);
        timer.lap(PhaseKind::Congestion);
        outcome
    }
}

/// Attempts a break-in on `node`, updating knowledge, outcome and the
/// overlay; returns how many nodes the capture newly disclosed.
pub(crate) fn attempt_break_in<R: Rng + ?Sized>(
    overlay: &mut Overlay,
    knowledge: &mut AttackerKnowledge,
    outcome: &mut AttackOutcome,
    node: NodeId,
    round: u32,
    rng: &mut R,
) -> usize {
    debug_assert!(
        overlay.role(node) != Role::Filter,
        "filters cannot be broken into"
    );
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
        // Capturing the node exposes its next-layer neighbor table.
        let overlay: &Overlay = overlay;
        for &neighbor in overlay.neighbors(node) {
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

/// Phase 2 of both attack strategies: congest every known-but-not-broken
/// node if the congestion budget `N_C` allows (random spillover with
/// the remainder), or a random subset of them otherwise. Filters are
/// never randomly congested.
///
/// Both draws are word-level pool draws: the target set
/// `known_sos \ broken` is counted by word-wise popcount and, when it
/// must be subsampled, drawn by rank; the spillover pool is the
/// complement of the overlay's bad-set words. The chosen nodes and the
/// RNG consumption equal `sample_from` over the ascending `Vec`s these
/// words stand for (tested against that scalar form below).
pub(crate) fn execute_congestion_phase<R: Rng + ?Sized>(
    overlay: &mut Overlay,
    scratch: &mut AttackScratch,
    budget: AttackBudget,
    rng: &mut R,
    outcome: &mut AttackOutcome,
) {
    let capacity = budget.congestion_capacity as usize;
    let AttackScratch {
        knowledge,
        pool,
        picks,
        ..
    } = scratch;
    let known = knowledge.known_sos();
    let broken = knowledge.broken();
    if capacity >= known.difference_len(broken) {
        // Congest everything known: ascending iteration, no RNG draws.
        picks.clear();
        picks.extend(known.difference_iter(broken));
    } else {
        let words = (0..known.words().len()).map(|wi| known.word(wi) & !broken.word(wi));
        pool.draw(words, rng, capacity, picks);
    }
    for &node in picks.iter() {
        if overlay.status(node) == NodeStatus::Good {
            overlay.set_status(node, NodeStatus::Congested);
            outcome.congested.push(node);
            outcome.trace.record(AttackEvent::Congestion {
                node,
                reason: CongestionReason::Targeted,
            });
        }
    }
    // Random spillover over the remaining good *overlay* nodes (the
    // attacker cannot find undisclosed filters). The pool is read
    // *after* the targeted loop above so it sees those nodes as
    // congested.
    let spare = capacity.saturating_sub(picks.len());
    if spare > 0 {
        let bad = overlay.bad_set();
        let good = overlay_words(overlay.overlay_node_count(), |wi| !bad.word(wi));
        pool.draw(good, rng, spare, picks);
        for &node in picks.iter() {
            overlay.set_status(node, NodeStatus::Congested);
            outcome.congested.push(node);
            outcome.trace.record(AttackEvent::Congestion {
                node,
                reason: CongestionReason::Random,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sos_core::{MappingDegree, Scenario, SystemParams};
    use sos_math::sampling::sample_indices;

    fn overlay(p_b: f64, mapping: MappingDegree, seed: u64) -> Overlay {
        let scenario = Scenario::builder()
            .system(SystemParams::new(2_000, 90, p_b).unwrap())
            .layers(3)
            .mapping(mapping)
            .filters(10)
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        Overlay::build(&scenario, &mut rng)
    }

    #[test]
    fn pure_congestion_attacks_randomly() {
        let mut o = overlay(0.5, MappingDegree::OneTo(2), 1);
        let mut rng = StdRng::seed_from_u64(2);
        let outcome =
            OneBurstAttacker::new(AttackBudget::congestion_only(400)).execute(&mut o, &mut rng);
        assert!(outcome.attempted.is_empty());
        assert!(outcome.broken.is_empty());
        assert_eq!(outcome.total_congested(), 400);
        assert_eq!(o.total_bad(), 400);
        // Filters are never hit by random congestion.
        for &f in o.layer_members(4) {
            assert!(o.is_good(f));
        }
    }

    #[test]
    fn break_in_rate_approaches_p_b() {
        let mut o = overlay(0.3, MappingDegree::OneTo(2), 3);
        let mut rng = StdRng::seed_from_u64(4);
        let outcome =
            OneBurstAttacker::new(AttackBudget::new(2_000, 0)).execute(&mut o, &mut rng);
        assert_eq!(outcome.total_attempts(), 2_000);
        assert!(
            (outcome.break_in_rate() - 0.3).abs() < 0.03,
            "rate {}",
            outcome.break_in_rate()
        );
    }

    #[test]
    fn certain_break_in_discloses_neighbors() {
        let mut o = overlay(1.0, MappingDegree::OneTo(2), 5);
        let mut rng = StdRng::seed_from_u64(6);
        let outcome =
            OneBurstAttacker::new(AttackBudget::new(2_000, 2_000)).execute(&mut o, &mut rng);
        // Every overlay node attempted and broken; every SOS node in
        // layers 2..=3 plus all filters disclosed.
        assert_eq!(outcome.broken.len(), 2_000);
        assert!(!outcome.disclosed.is_empty());
        // All disclosed nodes are SOS (layer ≥ 2) or filters.
        for &d in &outcome.disclosed {
            let layer = o.layer_of(d).expect("disclosed nodes are infrastructure");
            assert!(layer >= 2);
        }
    }

    #[test]
    fn disclosed_nodes_get_congested_first() {
        let mut o = overlay(0.5, MappingDegree::OneTo(3), 7);
        let mut rng = StdRng::seed_from_u64(8);
        let outcome =
            OneBurstAttacker::new(AttackBudget::new(500, 1_000)).execute(&mut o, &mut rng);
        // Every disclosed node that was not broken must be bad now.
        for &d in &outcome.disclosed {
            assert!(
                !o.is_good(d),
                "disclosed node {d} survived the congestion phase"
            );
        }
        assert!(outcome.total_congested() <= 1_000);
    }

    #[test]
    fn scarce_congestion_budget_spent_exactly() {
        let mut o = overlay(1.0, MappingDegree::OneToAll, 9);
        let mut rng = StdRng::seed_from_u64(10);
        let outcome =
            OneBurstAttacker::new(AttackBudget::new(1_000, 5)).execute(&mut o, &mut rng);
        assert_eq!(outcome.total_congested(), 5);
    }

    #[test]
    fn broken_nodes_never_congested() {
        let mut o = overlay(0.7, MappingDegree::OneTo(2), 11);
        let mut rng = StdRng::seed_from_u64(12);
        let outcome =
            OneBurstAttacker::new(AttackBudget::new(500, 1_900)).execute(&mut o, &mut rng);
        use std::collections::HashSet;
        let broken: HashSet<_> = outcome.broken.iter().collect();
        for c in &outcome.congested {
            assert!(!broken.contains(c), "{c} both broken and congested");
        }
    }

    #[test]
    fn no_node_attempted_twice() {
        let mut o = overlay(0.5, MappingDegree::OneTo(2), 13);
        let mut rng = StdRng::seed_from_u64(14);
        let outcome =
            OneBurstAttacker::new(AttackBudget::new(1_500, 0)).execute(&mut o, &mut rng);
        let mut seen = outcome.attempted.clone();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), outcome.attempted.len());
    }

    /// The scalar Vec-based congestion phase this file shipped before
    /// the word-batched rewrite — kept as the oracle the batched form
    /// must match draw for draw.
    fn congestion_reference<R: Rng + ?Sized>(
        overlay: &mut Overlay,
        knowledge: &AttackerKnowledge,
        capacity: usize,
        rng: &mut R,
        outcome: &mut AttackOutcome,
    ) {
        use sos_math::sampling::sample_from;
        let targets: Vec<NodeId> =
            knowledge.known_sos().difference_iter(knowledge.broken()).collect();
        let chosen: Vec<NodeId> = if capacity >= targets.len() {
            targets.clone()
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
            let extra = sample_from(rng, &pool, spare.min(pool.len()));
            for node in extra {
                overlay.set_status(node, NodeStatus::Congested);
                outcome.congested.push(node);
                outcome.trace.record(AttackEvent::Congestion {
                    node,
                    reason: CongestionReason::Random,
                });
            }
        }
    }

    #[test]
    fn batched_congestion_matches_scalar_reference_byte_for_byte() {
        use rand::RngCore;
        // Sweep capacities across the subsample / congest-all / spillover
        // regimes, with and without a break-in phase feeding knowledge.
        for (trials, capacity, seed) in [
            (0u64, 150usize, 61u64),
            (400, 10, 62),
            (400, 120, 63),
            (400, 800, 64),
            (1_000, 1_999, 65),
            (2_000, 0, 66),
        ] {
            let run = |batched: bool| {
                let mut o = overlay(0.5, MappingDegree::OneTo(2), seed);
                let mut rng = StdRng::seed_from_u64(seed + 1);
                let mut scratch = AttackScratch::default();
                let mut outcome = AttackOutcome::default();
                let n_t = trials as usize;
                for i in sample_indices(&mut rng, o.overlay_node_count(), n_t) {
                    let node = NodeId(i as u32);
                    let knowledge = &mut scratch.knowledge;
                    attempt_break_in(&mut o, knowledge, &mut outcome, node, 1, &mut rng);
                }
                if batched {
                    let budget = AttackBudget::new(trials, capacity as u64);
                    execute_congestion_phase(&mut o, &mut scratch, budget, &mut rng, &mut outcome);
                } else {
                    let knowledge = &scratch.knowledge;
                    congestion_reference(&mut o, knowledge, capacity, &mut rng, &mut outcome);
                }
                let statuses: Vec<NodeStatus> =
                    o.overlay_ids().map(|id| o.status(id)).collect();
                (outcome.congested.clone(), statuses, rng.next_u64())
            };
            assert_eq!(
                run(true),
                run(false),
                "capacity {capacity}, trials {trials}, seed {seed}"
            );
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let run = |seed| {
            let mut o = overlay(0.5, MappingDegree::OneTo(2), 20);
            let mut rng = StdRng::seed_from_u64(seed);
            let outcome =
                OneBurstAttacker::new(AttackBudget::new(300, 300)).execute(&mut o, &mut rng);
            (outcome.attempted, outcome.broken, outcome.congested)
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }
}
