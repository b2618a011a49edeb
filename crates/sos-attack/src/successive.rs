//! The successive attacker (§3.2 / Algorithm 1), executed on a concrete
//! overlay, and the round loop it shares with the monitoring attacker.

use crate::knowledge::{overlay_words, AttackScratch};
use crate::monitoring::Monitor;
use crate::one_burst::{attempt_break_in, execute_congestion_phase};
use crate::outcome::{AttackOutcome, RoundSummary};
use crate::trace::AttackEvent;
use rand::Rng;
use sos_core::{AttackBudget, SuccessiveParams};
use sos_observe::telemetry::{PhaseKind, PhaseTimer};
use sos_math::sampling::stochastic_round;
use sos_overlay::Overlay;

/// Executes Algorithm 1 literally: `R` rounds of disclosure-guided
/// break-ins seeded by prior knowledge of the first layer, then the
/// congestion phase.
///
/// The round quota `α = N_T / R` is realized with integer quotas that
/// sum exactly to `N_T` (largest-remainder split), and the fractional
/// prior knowledge `n_1 · P_E` with unbiased stochastic rounding, so
/// ensemble averages match the analytical model.
#[derive(Debug, Clone, Copy)]
pub struct SuccessiveAttacker {
    budget: AttackBudget,
    params: SuccessiveParams,
}

impl SuccessiveAttacker {
    /// Creates the attacker with the given resources and round plan.
    pub fn new(budget: AttackBudget, params: SuccessiveParams) -> Self {
        SuccessiveAttacker { budget, params }
    }

    /// The attacker's resources.
    pub fn budget(&self) -> AttackBudget {
        self.budget
    }

    /// The round plan.
    pub fn params(&self) -> SuccessiveParams {
        self.params
    }

    /// Runs the attack, mutating node statuses on `overlay`.
    ///
    /// # Panics
    ///
    /// Panics if `N_T` exceeds the overlay population.
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
        self.run_rounds(overlay, rng, scratch, None)
    }

    /// Algorithm 1: prior knowledge, the round loop, then congestion.
    /// The monitoring attacker passes a [`Monitor`], which learns the
    /// prior nodes' layer and taps each round's captures after its
    /// break-ins.
    pub(crate) fn run_rounds<R: Rng + ?Sized>(
        &self,
        overlay: &mut Overlay,
        rng: &mut R,
        scratch: &mut AttackScratch,
        mut monitor: Option<&mut Monitor>,
    ) -> AttackOutcome {
        let big_n = overlay.overlay_node_count();
        let n_t = self.budget.break_in_trials as usize;
        assert!(
            n_t <= big_n,
            "N_T = {n_t} exceeds the overlay population {big_n}"
        );
        let r = self.params.rounds();
        let mut outcome = AttackOutcome::for_budget(self.budget, overlay.total_node_count());
        let mut timer = PhaseTimer::start();
        let AttackScratch {
            knowledge,
            pool,
            pending,
            picks,
        } = scratch;
        knowledge.clear();

        // Prior knowledge: the attacker knows ~n_1 · P_E first-layer
        // nodes before the attack (the paper's round-0 "disclosure").
        let first_layer = overlay.layer_members(1);
        let prior = stochastic_round(
            rng,
            first_layer.len() as f64 * self.params.prior_knowledge().value(),
        )
        .min(first_layer.len() as u64) as usize;
        pool.sampler.sample_from_into(rng, first_layer, prior, picks);
        for &node in picks.iter() {
            knowledge.disclose(node);
            if let Some(m) = monitor.as_deref_mut() {
                m.layering.learn(node, 1);
            }
            outcome.disclosed.push(node);
            outcome.trace.record(AttackEvent::PriorKnowledge { node });
        }

        let mut beta = n_t;
        for round in 1..=r {
            if beta == 0 {
                break;
            }
            pending.clear();
            pending.extend(knowledge.pending().iter());
            let x = pending.len();
            // Round quota α: the largest-remainder split of N_T over R
            // equal rounds gives the first N_T mod R rounds one extra.
            let alpha = n_t / r as usize + usize::from(((round - 1) as usize) < n_t % r as usize);

            // Algorithm 1 case selection; `pending` becomes the round's
            // deterministic targets.
            let (random_count, terminal, case) = if x >= beta {
                // Case 4: more disclosed nodes than budget.
                pool.sampler.sample_from_into(rng, pending, beta, picks);
                std::mem::swap(pending, picks);
                (0usize, true, 4u8)
            } else if beta <= alpha {
                // Case 2: the whole remaining budget fits this round.
                (beta - x, true, 2)
            } else if x < alpha {
                // Case 1: the quota covers the disclosed nodes, with room to spare.
                (alpha - x, false, 1)
            } else {
                // Case 3: disclosed nodes exceed the quota (borrow from β) but not β.
                (0, false, 3)
            };
            outcome.trace.record(AttackEvent::RoundPlan {
                round,
                case,
                known: x as u32,
            });

            let broken_before = outcome.broken.len();
            let mut newly_disclosed = 0usize;
            for &node in pending.iter() {
                newly_disclosed +=
                    attempt_break_in(overlay, knowledge, &mut outcome, node, round, rng);
            }

            // Random phase: untouched overlay nodes only (never re-attack
            // and never waste budget on nodes already known — those were
            // either just attacked or are queued for the next round),
            // drawn by rank over the words of `!(attempted | known_sos)`.
            let (attempted, known) = (knowledge.attempted(), knowledge.known_sos());
            let untouched = overlay_words(big_n, |wi| !(attempted.word(wi) | known.word(wi)));
            pool.draw(untouched, rng, random_count, picks);
            for &node in picks.iter() {
                newly_disclosed +=
                    attempt_break_in(overlay, knowledge, &mut outcome, node, round, rng);
            }
            if let Some(m) = monitor.as_deref_mut() {
                newly_disclosed +=
                    m.tap(overlay, knowledge, &mut outcome, broken_before, round, rng);
            }

            beta -= pending.len() + picks.len();
            outcome.rounds.push(RoundSummary {
                round,
                known_at_start: x,
                attempted_disclosed: pending.len(),
                attempted_random: picks.len(),
                broken: outcome.broken.len() - broken_before,
                newly_disclosed,
            });
            if terminal {
                break;
            }
        }

        outcome.leftover_disclosed = knowledge.pending().len();
        timer.lap(PhaseKind::BreakIn);
        execute_congestion_phase(overlay, scratch, self.budget, rng, &mut outcome);
        timer.lap(PhaseKind::Congestion);
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sos_core::{MappingDegree, Scenario, SystemParams};
    use sos_overlay::Role;

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

    fn attacker(n_t: u64, n_c: u64, r: u32, p_e: f64) -> SuccessiveAttacker {
        SuccessiveAttacker::new(
            AttackBudget::new(n_t, n_c),
            SuccessiveParams::new(r, p_e).unwrap(),
        )
    }

    #[test]
    fn budget_is_conserved() {
        let mut o = overlay(0.5, MappingDegree::OneTo(3), 1);
        let mut rng = StdRng::seed_from_u64(2);
        let outcome = attacker(300, 400, 3, 0.2).execute(&mut o, &mut rng);
        assert!(outcome.total_attempts() <= 300);
        assert!(outcome.total_congested() <= 400);
        // With plenty of untouched nodes the break-in budget is spent in
        // full.
        assert_eq!(outcome.total_attempts(), 300);
    }

    #[test]
    fn runs_at_most_r_rounds() {
        let mut o = overlay(0.5, MappingDegree::OneTo(2), 3);
        let mut rng = StdRng::seed_from_u64(4);
        let outcome = attacker(300, 0, 4, 0.2).execute(&mut o, &mut rng);
        assert!(outcome.rounds.len() <= 4);
        assert!(!outcome.rounds.is_empty());
    }

    #[test]
    fn prior_knowledge_is_attacked_in_round_one() {
        let mut o = overlay(0.5, MappingDegree::OneTo(2), 5);
        let mut rng = StdRng::seed_from_u64(6);
        let outcome = attacker(300, 0, 3, 0.5).execute(&mut o, &mut rng);
        let r1 = &outcome.rounds[0];
        // n_1 = 30, P_E = 0.5 ⇒ ~15 known nodes attacked first.
        assert!(r1.known_at_start >= 13 && r1.known_at_start <= 17);
        assert_eq!(r1.attempted_disclosed, r1.known_at_start);
    }

    #[test]
    fn later_rounds_attack_disclosed_nodes() {
        // With P_B = 1 every attempt discloses, so round 2 must have
        // deterministic targets.
        let mut o = overlay(1.0, MappingDegree::OneTo(3), 7);
        let mut rng = StdRng::seed_from_u64(8);
        let outcome = attacker(400, 0, 3, 0.2).execute(&mut o, &mut rng);
        assert!(outcome.rounds.len() >= 2);
        let r2 = &outcome.rounds[1];
        assert!(
            r2.attempted_disclosed > 0,
            "round 2 should chase round-1 disclosures: {r2:?}"
        );
    }

    #[test]
    fn filters_are_never_attempted() {
        let mut o = overlay(1.0, MappingDegree::OneToAll, 9);
        let mut rng = StdRng::seed_from_u64(10);
        let outcome = attacker(1_000, 1_000, 3, 0.2).execute(&mut o, &mut rng);
        for &a in &outcome.attempted {
            assert_ne!(o.role(a), Role::Filter, "attempted filter {a}");
        }
        // But disclosed filters are congested.
        let congested_filters = outcome
            .congested
            .iter()
            .filter(|&&c| o.role(c) == Role::Filter)
            .count();
        assert!(congested_filters > 0, "disclosed filters must be congested");
    }

    #[test]
    fn budget_exhaustion_leaves_pending_targets_congested() {
        // Tiny N_T with full prior knowledge: round 1 is Case 4.
        let mut o = overlay(0.5, MappingDegree::OneTo(2), 11);
        let mut rng = StdRng::seed_from_u64(12);
        let outcome = attacker(5, 500, 3, 1.0).execute(&mut o, &mut rng);
        assert_eq!(outcome.rounds.len(), 1);
        assert_eq!(outcome.total_attempts(), 5);
        // 25 known first-layer nodes were left unattacked; break-ins
        // among the 5 attacked may have disclosed more.
        assert!(outcome.leftover_disclosed >= 30 - 5);
        // All leftover first-layer nodes are congested.
        let bad_first = o
            .layer_members(1)
            .iter()
            .filter(|&&n| !o.is_good(n))
            .count();
        assert_eq!(bad_first, 30, "entire known first layer must be bad");
    }

    #[test]
    fn more_rounds_disclose_more() {
        // Averaged over seeds, more rounds means more disclosure-guided
        // targeting (P_B = 1 maximizes the cascade).
        let total_known = |r: u32| -> usize {
            (0..20)
                .map(|seed| {
                    let mut o = overlay(1.0, MappingDegree::OneTo(5), 100 + seed);
                    let mut rng = StdRng::seed_from_u64(200 + seed);
                    let outcome = attacker(100, 0, r, 0.2).execute(&mut o, &mut rng);
                    outcome.disclosed.len()
                })
                .sum()
        };
        let one = total_known(1);
        let four = total_known(4);
        assert!(
            four > one,
            "4 rounds should disclose more than 1: {four} vs {one}"
        );
    }

    #[test]
    fn single_round_no_prior_matches_one_burst_statistically() {
        use crate::one_burst::OneBurstAttacker;
        // Same budget, R=1, P_E=0: the two attackers are the same
        // process; compare bad-node counts across seeds.
        let mut succ_total = 0usize;
        let mut burst_total = 0usize;
        for seed in 0..30 {
            let mut o1 = overlay(0.5, MappingDegree::OneTo(3), 300 + seed);
            let mut rng1 = StdRng::seed_from_u64(400 + seed);
            attacker(200, 300, 1, 0.0).execute(&mut o1, &mut rng1);
            succ_total += o1.total_bad();

            let mut o2 = overlay(0.5, MappingDegree::OneTo(3), 300 + seed);
            let mut rng2 = StdRng::seed_from_u64(400 + seed);
            OneBurstAttacker::new(AttackBudget::new(200, 300))
                .execute(&mut o2, &mut rng2);
            burst_total += o2.total_bad();
        }
        let diff = (succ_total as f64 - burst_total as f64).abs()
            / burst_total.max(1) as f64;
        assert!(diff < 0.05, "succ {succ_total} vs burst {burst_total}");
    }
}
