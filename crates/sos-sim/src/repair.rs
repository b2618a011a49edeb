//! Dynamic repair — the paper's named future work, implemented as an
//! extension experiment.
//!
//! §5 of the paper: *"we do not consider system repairs here … We are
//! planning to study the system behavior under such sophisticated
//! attacks and system dynamics using extensive simulations."* This
//! module is that simulation. After the configured attack lands, the
//! system repairs up to `repair_capacity` compromised infrastructure
//! nodes per time step, while the attacker either:
//!
//! * [`AttackerPersistence::Stale`] — cannot follow repairs (a repaired
//!   node gets a fresh identity, invalidating the attacker's
//!   knowledge); `P_S(t)` recovers toward 1, or
//! * [`AttackerPersistence::Adaptive`] — immediately re-congests any
//!   repaired node it knows about (knowledge stays valid); only
//!   randomly-congested repairs stick, so `P_S(t)` plateaus.

use crate::routing::{route_message, RouteScratch, RoutingPolicy};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sos_attack::{OneBurstAttacker, SuccessiveAttacker};
use sos_core::{AttackConfig, Scenario};
use sos_faults::{FaultConfig, FaultPlan, RetryPolicy};
use sos_math::sampling::{sample_from, shuffle};
use sos_math::stats::RunningStats;
use sos_overlay::{NodeId, NodeStatus, Overlay, Transport};
use std::collections::HashSet;

/// Whether the attacker can keep targeting repaired nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AttackerPersistence {
    /// Repairs invalidate the attacker's knowledge of the node.
    #[default]
    Stale,
    /// The attacker re-congests repaired nodes it knows about, as long
    /// as congestion budget is free.
    Adaptive,
}

impl AttackerPersistence {
    /// Stable label for CSV output.
    pub fn label(&self) -> &'static str {
        match self {
            AttackerPersistence::Stale => "stale",
            AttackerPersistence::Adaptive => "adaptive",
        }
    }
}

/// Repair-dynamics parameters.
#[derive(Debug, Clone, Copy)]
pub struct RepairConfig {
    /// Infrastructure nodes repaired per time step.
    pub repair_capacity: u64,
    /// Time steps simulated after the attack.
    pub steps: u32,
    /// Attacker behaviour toward repaired nodes.
    pub persistence: AttackerPersistence,
    /// Optional overlay churn applied each step before repairs.
    /// Promotion-based churn heals the architecture for free (a fresh
    /// node replaces a compromised one and the attacker's knowledge of
    /// the departed identity goes stale).
    pub churn: Option<sos_overlay::ChurnModel>,
}

impl RepairConfig {
    /// Creates a config without churn.
    ///
    /// # Panics
    ///
    /// Panics if `steps == 0`.
    pub fn new(repair_capacity: u64, steps: u32, persistence: AttackerPersistence) -> Self {
        assert!(steps > 0, "simulate at least one step");
        RepairConfig {
            repair_capacity,
            steps,
            persistence,
            churn: None,
        }
    }

    /// Adds overlay churn to the dynamics.
    pub fn with_churn(mut self, churn: sos_overlay::ChurnModel) -> Self {
        self.churn = Some(churn);
        self
    }
}

/// `P_S` measured at one time step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepairStepStats {
    /// 0-based step (0 = immediately after the attack, before repairs).
    pub step: u32,
    /// Mean empirical `P_S` over trials at this step.
    pub ps: f64,
    /// Mean count of bad infrastructure nodes (SOS + filters).
    pub bad_infrastructure: f64,
}

/// The measured `P_S(t)` trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairTimeline {
    /// One entry per step, in time order.
    pub steps: Vec<RepairStepStats>,
}

impl RepairTimeline {
    /// The `P_S` series (for trend assertions and plotting).
    pub fn ps_series(&self) -> Vec<f64> {
        self.steps.iter().map(|s| s.ps).collect()
    }

    /// `P_S` at the final step.
    pub fn final_ps(&self) -> f64 {
        self.steps.last().map(|s| s.ps).unwrap_or(0.0)
    }
}

/// Runs repair dynamics over several attacked-overlay trials.
#[derive(Debug, Clone)]
pub struct RepairSimulation {
    scenario: Scenario,
    attack: AttackConfig,
    repair: RepairConfig,
    trials: u64,
    routes_per_step: u64,
    seed: u64,
    faults: FaultConfig,
    retry: RetryPolicy,
}

impl RepairSimulation {
    /// Creates the simulation with the given trial plan.
    ///
    /// # Panics
    ///
    /// Panics if `trials == 0` or `routes_per_step == 0`.
    pub fn new(
        scenario: Scenario,
        attack: AttackConfig,
        repair: RepairConfig,
        trials: u64,
        routes_per_step: u64,
        seed: u64,
    ) -> Self {
        assert!(trials > 0, "at least one trial");
        assert!(routes_per_step > 0, "at least one route per step");
        RepairSimulation {
            scenario,
            attack,
            repair,
            trials,
            routes_per_step,
            seed,
            faults: FaultConfig::none(),
            retry: RetryPolicy::none(),
        }
    }

    /// Enables deterministic benign-fault injection on the measurement
    /// routes. [`FaultConfig::none`] (the default) keeps the timeline
    /// bit-identical to a fault-free build.
    pub fn faults(mut self, faults: FaultConfig) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the per-hop retry/backoff policy applied when faults are
    /// enabled.
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Runs all trials and averages `P_S(t)` per step.
    pub fn run(&self) -> RepairTimeline {
        let steps = self.repair.steps as usize;
        let mut ps_acc: Vec<RunningStats> = vec![RunningStats::new(); steps + 1];
        let mut bad_acc: Vec<RunningStats> = vec![RunningStats::new(); steps + 1];
        let mut scratch = RouteScratch::new();

        for trial in 0..self.trials {
            let mut rng = StdRng::seed_from_u64(
                self.seed ^ trial.wrapping_mul(0xD134_2543_DE82_EF95),
            );
            let plan = (!self.faults.is_none()).then(|| FaultPlan::new(&self.faults, trial));
            let mut overlay = Overlay::build(&self.scenario, &mut rng);
            let disclosed: HashSet<NodeId> = match self.attack {
                AttackConfig::OneBurst { budget } => {
                    let outcome =
                        OneBurstAttacker::new(budget).execute(&mut overlay, &mut rng);
                    outcome.disclosed.into_iter().collect()
                }
                AttackConfig::Successive { budget, params } => {
                    let outcome = SuccessiveAttacker::new(budget, params)
                        .execute(&mut overlay, &mut rng);
                    outcome.disclosed.into_iter().collect()
                }
            };
            let mut known: HashSet<NodeId> = disclosed;

            for step in 0..=steps {
                // Measure.
                let mut delivered = 0u64;
                for _ in 0..self.routes_per_step {
                    if route_message(
                        &overlay,
                        &Transport::Direct,
                        RoutingPolicy::RandomGood,
                        plan.as_ref(),
                        &self.retry,
                        None,
                        &mut rng,
                        &mut scratch,
                    )
                    .delivered
                    {
                        delivered += 1;
                    }
                }
                ps_acc[step].push(delivered as f64 / self.routes_per_step as f64);
                bad_acc[step].push(bad_infrastructure(&overlay) as f64);
                if step == steps {
                    break;
                }

                // Churn first (the environment moves regardless of the
                // operator): departures, promotions, stale knowledge.
                if let Some(churn) = &self.repair.churn {
                    for event in churn.step(&mut overlay, &mut rng) {
                        if let sos_overlay::ChurnEvent::SosReplaced { departed, .. }
                        | sos_overlay::ChurnEvent::SosLost { departed, .. } = event
                        {
                            known.remove(&departed);
                        }
                    }
                }

                // Repair: fix up to `repair_capacity` bad infrastructure
                // nodes, chosen uniformly.
                let mut bad: Vec<NodeId> = infrastructure_ids(&overlay)
                    .into_iter()
                    .filter(|&id| !overlay.is_good(id))
                    .collect();
                shuffle(&mut rng, &mut bad);
                let fix = (self.repair.repair_capacity as usize).min(bad.len());
                let repaired = sample_from(&mut rng, &bad, fix);
                for node in &repaired {
                    overlay.set_status(*node, NodeStatus::Good);
                }
                match self.repair.persistence {
                    AttackerPersistence::Stale => {
                        // New identities: the attacker loses track.
                        for node in &repaired {
                            known.remove(node);
                        }
                    }
                    AttackerPersistence::Adaptive => {
                        // Freed congestion slots chase the known nodes.
                        for node in &repaired {
                            if known.contains(node) {
                                overlay.set_status(*node, NodeStatus::Congested);
                            }
                        }
                    }
                }
            }
        }

        RepairTimeline {
            steps: (0..=steps)
                .map(|s| RepairStepStats {
                    step: s as u32,
                    ps: ps_acc[s].mean(),
                    bad_infrastructure: bad_acc[s].mean(),
                })
                .collect(),
        }
    }
}

fn infrastructure_ids(overlay: &Overlay) -> Vec<NodeId> {
    let mut ids = Vec::new();
    for layer in 1..=overlay.layer_count() + 1 {
        ids.extend_from_slice(overlay.layer_members(layer));
    }
    ids
}

fn bad_infrastructure(overlay: &Overlay) -> usize {
    infrastructure_ids(overlay)
        .into_iter()
        .filter(|&id| !overlay.is_good(id))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sos_core::{AttackBudget, MappingDegree, SystemParams};
    use sos_math::series::{trend, Trend};

    fn scenario() -> Scenario {
        Scenario::builder()
            .system(SystemParams::new(800, 60, 0.5).unwrap())
            .layers(3)
            .mapping(MappingDegree::OneTo(2))
            .filters(10)
            .build()
            .unwrap()
    }

    fn attack() -> AttackConfig {
        AttackConfig::OneBurst {
            budget: AttackBudget::new(160, 240),
        }
    }

    #[test]
    fn stale_attacker_allows_full_recovery() {
        let sim = RepairSimulation::new(
            scenario(),
            attack(),
            RepairConfig::new(10, 12, AttackerPersistence::Stale),
            25,
            60,
            1,
        );
        let timeline = sim.run();
        assert_eq!(timeline.steps.len(), 13);
        // P_S recovers (weakly) over time and ends near 1.
        let series = timeline.ps_series();
        assert!(series[0] < 1.0, "attack should do damage: {series:?}");
        assert!(
            timeline.final_ps() > 0.95,
            "repair should restore service: {series:?}"
        );
        assert_ne!(trend(&series, 0.02), Trend::NonIncreasing);
        // Bad node count shrinks to ~0.
        assert!(timeline.steps.last().unwrap().bad_infrastructure < 1.0);
    }

    #[test]
    fn adaptive_attacker_limits_recovery() {
        let stale = RepairSimulation::new(
            scenario(),
            attack(),
            RepairConfig::new(10, 12, AttackerPersistence::Stale),
            25,
            60,
            2,
        )
        .run();
        let adaptive = RepairSimulation::new(
            scenario(),
            attack(),
            RepairConfig::new(10, 12, AttackerPersistence::Adaptive),
            25,
            60,
            2,
        )
        .run();
        assert!(
            adaptive.final_ps() < stale.final_ps(),
            "adaptive {} should recover less than stale {}",
            adaptive.final_ps(),
            stale.final_ps()
        );
    }

    #[test]
    fn zero_capacity_means_no_recovery() {
        let timeline = RepairSimulation::new(
            scenario(),
            attack(),
            RepairConfig::new(0, 6, AttackerPersistence::Stale),
            15,
            60,
            3,
        )
        .run();
        let first = timeline.steps.first().unwrap().bad_infrastructure;
        let last = timeline.steps.last().unwrap().bad_infrastructure;
        assert!((first - last).abs() < 1e-9, "{first} vs {last}");
    }

    #[test]
    fn labels_stable() {
        assert_eq!(AttackerPersistence::Stale.label(), "stale");
        assert_eq!(AttackerPersistence::Adaptive.label(), "adaptive");
    }

    #[test]
    fn promotion_churn_defeats_the_adaptive_attacker() {
        // Against an adaptive attacker, zero repair capacity alone keeps
        // P_S flat; promotion churn rotates identities out from under
        // the attacker's knowledge and restores service.
        let no_churn = RepairSimulation::new(
            scenario(),
            attack(),
            RepairConfig::new(0, 10, AttackerPersistence::Adaptive),
            20,
            60,
            9,
        )
        .run();
        let with_churn = RepairSimulation::new(
            scenario(),
            attack(),
            RepairConfig::new(10, 10, AttackerPersistence::Adaptive)
                .with_churn(sos_overlay::ChurnModel::new(0.05, true)),
            20,
            60,
            9,
        )
        .run();
        assert!(
            with_churn.final_ps() > no_churn.final_ps() + 0.05,
            "churn {} should beat static {}",
            with_churn.final_ps(),
            no_churn.final_ps()
        );
    }
}
