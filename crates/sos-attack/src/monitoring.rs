//! The traffic-monitoring attacker — the paper's §5 future work.
//!
//! *"during the break-in phase of the attack, the attacker can also
//! find previous layer nodes of an attacked node by monitoring the
//! on-going traffic and can also build up a layering model of the
//! architecture causing an increased damage to the system."*
//!
//! [`MonitoringAttacker`] extends the successive attacker with
//! **backward disclosure**: when a node is broken into, the attacker
//! taps its ingress traffic for a while; each previous-layer node that
//! routes through the captured node is identified with probability
//! [`MonitoringAttacker::tap_probability`] per neighbor relationship.
//! Disclosure therefore spreads in *both* directions — down the
//! neighbor tables (the paper's model) and up the traffic (the
//! extension), which is why even prior knowledge limited to the first
//! layer can unravel deep architectures.
//!
//! The attacker also builds a [`LayeringModel`]: its inferred layer
//! index for every node it has identified, which downstream analyses
//! can inspect to see how much structure leaked.

use crate::knowledge::{AttackScratch, AttackerKnowledge};
use crate::outcome::AttackOutcome;
use crate::successive::SuccessiveAttacker;
use crate::trace::AttackEvent;
use rand::Rng;
use sos_core::{AttackBudget, SuccessiveParams};
use sos_math::sampling::bernoulli;
use sos_overlay::{NodeId, Overlay, Role};
use std::collections::HashMap;

/// The attacker's inferred map of the architecture: node → believed
/// 1-based layer.
#[derive(Debug, Clone, Default)]
pub struct LayeringModel {
    inferred: HashMap<NodeId, usize>,
}

impl LayeringModel {
    /// Records that `node` is believed to sit at `layer`.
    pub fn learn(&mut self, node: NodeId, layer: usize) {
        self.inferred.entry(node).or_insert(layer);
    }

    /// The believed layer of a node, if any.
    pub fn layer_of(&self, node: NodeId) -> Option<usize> {
        self.inferred.get(&node).copied()
    }

    /// Number of nodes whose layer the attacker believes it knows.
    pub fn mapped_nodes(&self) -> usize {
        self.inferred.len()
    }

    /// Fraction of inferred layers that are correct on `overlay`.
    pub fn accuracy(&self, overlay: &Overlay) -> f64 {
        if self.inferred.is_empty() {
            return 0.0;
        }
        let correct = self
            .inferred
            .iter()
            .filter(|(node, layer)| overlay.layer_of(**node) == Some(**layer))
            .count();
        correct as f64 / self.inferred.len() as f64
    }
}

/// Successive attacker augmented with traffic monitoring (backward
/// disclosure) and layering-model inference.
#[derive(Debug, Clone, Copy)]
pub struct MonitoringAttacker {
    base: SuccessiveAttacker,
    tap_probability: f64,
}

/// Outcome of a monitoring attack: the base outcome plus the inferred
/// layering model.
#[derive(Debug, Clone)]
pub struct MonitoringOutcome {
    /// The standard attack record.
    pub outcome: AttackOutcome,
    /// What the attacker inferred about the architecture's structure.
    pub layering: LayeringModel,
    /// Nodes disclosed *backward* (via traffic taps) rather than from
    /// neighbor tables.
    pub backward_disclosed: usize,
}

impl MonitoringAttacker {
    /// Creates the attacker.
    ///
    /// `tap_probability` is the chance that monitoring a captured node
    /// identifies any given previous-layer node that routes through it.
    ///
    /// # Panics
    ///
    /// Panics if `tap_probability` is outside `[0, 1]`.
    pub fn new(budget: AttackBudget, params: SuccessiveParams, tap_probability: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&tap_probability),
            "tap probability out of range: {tap_probability}"
        );
        MonitoringAttacker {
            base: SuccessiveAttacker::new(budget, params),
            tap_probability,
        }
    }

    /// Probability a traffic tap identifies a given upstream neighbor.
    pub fn tap_probability(&self) -> f64 {
        self.tap_probability
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
    ) -> MonitoringOutcome {
        self.execute_into(overlay, rng, &mut AttackScratch::default())
    }

    /// [`execute`](Self::execute) through a reused [`AttackScratch`]:
    /// the same result and panics, without the scratch allocations.
    pub fn execute_into<R: Rng + ?Sized>(
        &self,
        overlay: &mut Overlay,
        rng: &mut R,
        scratch: &mut AttackScratch,
    ) -> MonitoringOutcome {
        // Reverse adjacency: who routes *into* each node. This is what a
        // tap on the node can observe.
        let mut upstream: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
        for layer in 1..=overlay.layer_count() {
            for &node in overlay.layer_members(layer) {
                for &next in overlay.neighbors(node) {
                    upstream.entry(next).or_default().push(node);
                }
            }
        }
        let mut monitor = Monitor {
            upstream,
            tap_probability: self.tap_probability,
            layering: LayeringModel::default(),
            backward_disclosed: 0,
        };
        let outcome = self.base.run_rounds(overlay, rng, scratch, Some(&mut monitor));
        MonitoringOutcome {
            outcome,
            layering: monitor.layering,
            backward_disclosed: monitor.backward_disclosed,
        }
    }
}

/// The monitoring attacker's state inside the shared Algorithm 1 loop:
/// its layering model and the tap step that runs after each round's
/// break-ins.
pub(crate) struct Monitor {
    upstream: HashMap<NodeId, Vec<NodeId>>,
    tap_probability: f64,
    pub(crate) layering: LayeringModel,
    backward_disclosed: usize,
}

impl Monitor {
    /// Monitoring phase: taps on this round's captures
    /// (`outcome.broken[from..]`, in capture order) reveal upstream
    /// (previous-layer) neighbors, and place captured nodes and their
    /// forward neighbors in the layering model. Returns how many nodes
    /// the taps newly disclosed.
    pub(crate) fn tap<R: Rng + ?Sized>(
        &mut self,
        overlay: &Overlay,
        knowledge: &mut AttackerKnowledge,
        outcome: &mut AttackOutcome,
        from: usize,
        round: u32,
        rng: &mut R,
    ) -> usize {
        let before = self.backward_disclosed;
        for idx in from..outcome.broken.len() {
            let node = outcome.broken[idx];
            let layer = overlay.layer_of(node);
            if let Some(layer) = layer {
                self.layering.learn(node, layer);
                // Forward neighbors (disclosed by the break-in itself)
                // sit one layer deeper.
                for &next in overlay.neighbors(node) {
                    self.layering.learn(next, layer + 1);
                }
            }
            let Some(senders) = self.upstream.get(&node) else {
                continue;
            };
            for &sender in senders {
                if knowledge.knows(sender) || !bernoulli(rng, self.tap_probability) {
                    continue;
                }
                self.backward_disclosed += 1;
                outcome.disclosed.push(sender);
                outcome.trace.record(AttackEvent::Disclosure {
                    round,
                    source: node,
                    revealed: sender,
                });
                if let Some(layer) = layer {
                    self.layering.learn(sender, layer.saturating_sub(1).max(1));
                }
                if overlay.role(sender) == Role::Filter {
                    knowledge.disclose_unbreakable(sender);
                } else {
                    knowledge.disclose(sender);
                }
            }
        }
        self.backward_disclosed - before
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::successive::SuccessiveAttacker;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sos_core::{MappingDegree, Scenario, SystemParams};

    fn overlay(seed: u64) -> Overlay {
        let scenario = Scenario::builder()
            .system(SystemParams::new(2_000, 90, 0.5).unwrap())
            .layers(3)
            .mapping(MappingDegree::OneTo(3))
            .filters(10)
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        Overlay::build(&scenario, &mut rng)
    }

    fn attacker(tap: f64) -> MonitoringAttacker {
        MonitoringAttacker::new(
            AttackBudget::new(200, 300),
            SuccessiveParams::new(3, 0.2).unwrap(),
            tap,
        )
    }

    #[test]
    fn zero_tap_matches_successive_statistically() {
        // With tap probability 0 the monitoring attacker adds nothing.
        let mut mon_bad = 0usize;
        let mut base_bad = 0usize;
        for seed in 0..20 {
            let mut o1 = overlay(seed);
            let mut rng1 = StdRng::seed_from_u64(500 + seed);
            attacker(0.0).execute(&mut o1, &mut rng1);
            mon_bad += o1.total_bad();

            let mut o2 = overlay(seed);
            let mut rng2 = StdRng::seed_from_u64(500 + seed);
            SuccessiveAttacker::new(
                AttackBudget::new(200, 300),
                SuccessiveParams::new(3, 0.2).unwrap(),
            )
            .execute(&mut o2, &mut rng2);
            base_bad += o2.total_bad();
        }
        let rel = (mon_bad as f64 - base_bad as f64).abs() / base_bad as f64;
        assert!(rel < 0.05, "monitoring(0) {mon_bad} vs successive {base_bad}");
    }

    #[test]
    fn taps_disclose_backward() {
        let mut o = overlay(3);
        let mut rng = StdRng::seed_from_u64(4);
        let result = attacker(1.0).execute(&mut o, &mut rng);
        assert!(
            result.backward_disclosed > 0,
            "full taps must reveal upstream nodes"
        );
        // Layer-1 nodes (undisclosable in the base model except via
        // P_E) appear among the disclosed via taps on layer-2 captures.
        let l1_disclosed = result
            .outcome
            .disclosed
            .iter()
            .filter(|&&d| o.layer_of(d) == Some(1))
            .count();
        assert!(l1_disclosed > 0);
    }

    #[test]
    fn monitoring_does_more_damage_than_base() {
        let mut tap_known = 0usize;
        let mut base_known = 0usize;
        for seed in 0..20 {
            let mut o1 = overlay(100 + seed);
            let mut rng1 = StdRng::seed_from_u64(700 + seed);
            let r = attacker(0.8).execute(&mut o1, &mut rng1);
            tap_known += r.outcome.disclosed.len();

            let mut o2 = overlay(100 + seed);
            let mut rng2 = StdRng::seed_from_u64(700 + seed);
            let b = SuccessiveAttacker::new(
                AttackBudget::new(200, 300),
                SuccessiveParams::new(3, 0.2).unwrap(),
            )
            .execute(&mut o2, &mut rng2);
            base_known += b.disclosed.len();
        }
        assert!(
            tap_known > base_known,
            "taps should increase disclosure: {tap_known} vs {base_known}"
        );
    }

    #[test]
    fn layering_model_is_accurate() {
        let mut o = overlay(5);
        let mut rng = StdRng::seed_from_u64(6);
        let result = attacker(1.0).execute(&mut o, &mut rng);
        assert!(result.layering.mapped_nodes() > 0);
        let acc = result.layering.accuracy(&o);
        assert!(
            acc > 0.9,
            "layer inference should be near-perfect in this model: {acc}"
        );
    }

    #[test]
    fn layering_model_first_write_wins() {
        let mut m = LayeringModel::default();
        m.learn(NodeId(1), 2);
        m.learn(NodeId(1), 3);
        assert_eq!(m.layer_of(NodeId(1)), Some(2));
        assert_eq!(m.mapped_nodes(), 1);
    }

    #[test]
    #[should_panic(expected = "tap probability out of range")]
    fn invalid_tap_probability_rejected() {
        MonitoringAttacker::new(
            AttackBudget::new(1, 1),
            SuccessiveParams::paper_default(),
            1.5,
        );
    }
}
