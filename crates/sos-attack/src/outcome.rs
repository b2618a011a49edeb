//! Attack outcome records.

use crate::trace::AttackTrace;
use sos_core::AttackBudget;
use sos_overlay::NodeId;

/// Summary of one break-in round (one-burst attacks have exactly one).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundSummary {
    /// 1-based round number.
    pub round: u32,
    /// Disclosed-unattacked nodes at the start of the round (`X_j`).
    pub known_at_start: usize,
    /// Nodes attacked deterministically (previously disclosed).
    pub attempted_disclosed: usize,
    /// Nodes attacked at random.
    pub attempted_random: usize,
    /// Successful break-ins this round.
    pub broken: usize,
    /// Nodes newly disclosed by this round's break-ins.
    pub newly_disclosed: usize,
}

/// Full record of an executed attack.
#[derive(Debug, Clone, Default)]
pub struct AttackOutcome {
    /// Every node a break-in was attempted on, in attempt order.
    pub attempted: Vec<NodeId>,
    /// Every node broken into.
    pub broken: Vec<NodeId>,
    /// Every node congested.
    pub congested: Vec<NodeId>,
    /// Nodes whose SOS/filter membership the attacker learned.
    pub disclosed: Vec<NodeId>,
    /// Per-round summaries (length 1 for one-burst).
    pub rounds: Vec<RoundSummary>,
    /// Disclosed-but-unattacked nodes left when the break-in budget ran
    /// out (Algorithm 1's `f`); they are congested instead.
    pub leftover_disclosed: usize,
    /// Full event trace (break-ins, disclosures, congestion) for
    /// cascade analysis and export.
    pub trace: AttackTrace,
}

impl AttackOutcome {
    /// An empty record with room for a whole attack under `budget` on
    /// `nodes` nodes (trace: attempts, ~as many disclosures, congestion).
    pub(crate) fn for_budget(budget: AttackBudget, nodes: usize) -> Self {
        let n_t = budget.break_in_trials as usize;
        let n_c = (budget.congestion_capacity as usize).min(nodes);
        AttackOutcome {
            attempted: Vec::with_capacity(n_t),
            congested: Vec::with_capacity(n_c),
            trace: AttackTrace::with_capacity(2 * n_t + n_c),
            ..Self::default()
        }
    }

    /// Total break-in attempts (`≤ N_T`).
    pub fn total_attempts(&self) -> usize {
        self.attempted.len()
    }

    /// Total congested nodes (`≤ N_C`).
    pub fn total_congested(&self) -> usize {
        self.congested.len()
    }

    /// Empirical break-in success rate.
    pub fn break_in_rate(&self) -> f64 {
        if self.attempted.is_empty() {
            0.0
        } else {
            self.broken.len() as f64 / self.attempted.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_and_counts() {
        let outcome = AttackOutcome {
            attempted: vec![NodeId(1), NodeId(2), NodeId(3), NodeId(4)],
            broken: vec![NodeId(2)],
            congested: vec![NodeId(9)],
            ..Default::default()
        };
        assert_eq!(outcome.total_attempts(), 4);
        assert_eq!(outcome.total_congested(), 1);
        assert!((outcome.break_in_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_outcome_rate_is_zero() {
        assert_eq!(AttackOutcome::default().break_in_rate(), 0.0);
    }
}
