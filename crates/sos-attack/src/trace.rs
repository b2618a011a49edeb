//! Structured attack traces: every break-in, disclosure and congestion
//! as a typed event.
//!
//! The [`AttackOutcome`](crate::AttackOutcome) summarizes *what* was
//! compromised; the trace records *how* — which break-in disclosed
//! which node, in which round, and why each congestion slot was spent.
//! Traces power the cascade analysis below (how deep did one captured
//! SOAP node's disclosure chain reach?) and CSV export for external
//! tooling.

use sos_overlay::NodeId;
use std::collections::HashMap;

/// Why a node was congested.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CongestionReason {
    /// The attacker knew the node was SOS infrastructure.
    Targeted,
    /// Random spillover of leftover budget.
    Random,
}

/// One event in an attack's life.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttackEvent {
    /// A break-in was attempted (round 0 = prior knowledge phase).
    BreakInAttempt {
        /// 1-based round (one-burst attacks use round 1).
        round: u32,
        /// The attacked node.
        node: NodeId,
        /// Whether the node was captured.
        succeeded: bool,
    },
    /// A captured node's neighbor table (or a traffic tap) revealed a
    /// new piece of infrastructure.
    Disclosure {
        /// Round in which the disclosure happened.
        round: u32,
        /// The captured/monitored node that leaked the information.
        source: NodeId,
        /// The newly known node.
        revealed: NodeId,
    },
    /// Prior knowledge: the attacker knew this node before round 1.
    PriorKnowledge {
        /// The known node.
        node: NodeId,
    },
    /// Algorithm 1 chose its branch for a round: which of the four
    /// cases applied given the disclosed backlog `x`, the round quota
    /// `α` and the remaining budget `β`.
    RoundPlan {
        /// 1-based round number.
        round: u32,
        /// Which case (1–4) of Algorithm 1 applied.
        case: u8,
        /// Disclosed-but-unattacked nodes entering the round (`x`).
        known: u32,
    },
    /// A congestion slot was spent.
    Congestion {
        /// The congested node.
        node: NodeId,
        /// Targeted or random.
        reason: CongestionReason,
    },
}

/// An ordered attack trace with analysis helpers.
#[derive(Debug, Clone, Default)]
pub struct AttackTrace {
    events: Vec<AttackEvent>,
}

impl AttackTrace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty trace with room for `events` events.
    pub(crate) fn with_capacity(events: usize) -> Self {
        AttackTrace {
            events: Vec::with_capacity(events),
        }
    }

    /// Appends an event.
    pub fn record(&mut self, event: AttackEvent) {
        self.events.push(event);
    }

    /// All events in order.
    pub fn events(&self) -> &[AttackEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The disclosure parent of each revealed node (who leaked it
    /// first).
    pub fn disclosure_parents(&self) -> HashMap<NodeId, NodeId> {
        let mut parents = HashMap::new();
        for event in &self.events {
            if let AttackEvent::Disclosure {
                source, revealed, ..
            } = event
            {
                parents.entry(*revealed).or_insert(*source);
            }
        }
        parents
    }

    /// Length of the disclosure chain that produced `node` (0 when the
    /// node was attacked blind or known a priori).
    pub fn cascade_depth(&self, node: NodeId) -> usize {
        let parents = self.disclosure_parents();
        let mut depth = 0;
        let mut current = node;
        // Parent chains are acyclic by construction (a node is revealed
        // once, by an earlier capture), but guard against pathological
        // traces anyway.
        while let Some(&parent) = parents.get(&current) {
            depth += 1;
            current = parent;
            if depth > parents.len() {
                break;
            }
        }
        depth
    }

    /// The deepest disclosure cascade in the trace.
    pub fn max_cascade_depth(&self) -> usize {
        self.disclosure_parents()
            .keys()
            .map(|&n| self.cascade_depth(n))
            .max()
            .unwrap_or(0)
    }

    /// Per-round break-in counts `(attempts, captures)`.
    pub fn break_ins_by_round(&self) -> HashMap<u32, (u32, u32)> {
        let mut rounds: HashMap<u32, (u32, u32)> = HashMap::new();
        for event in &self.events {
            if let AttackEvent::BreakInAttempt {
                round, succeeded, ..
            } = event
            {
                let entry = rounds.entry(*round).or_default();
                entry.0 += 1;
                if *succeeded {
                    entry.1 += 1;
                }
            }
        }
        rounds
    }

    /// Congestion split `(targeted, random)`.
    pub fn congestion_split(&self) -> (u32, u32) {
        let mut targeted = 0;
        let mut random = 0;
        for event in &self.events {
            if let AttackEvent::Congestion { reason, .. } = event {
                match reason {
                    CongestionReason::Targeted => targeted += 1,
                    CongestionReason::Random => random += 1,
                }
            }
        }
        (targeted, random)
    }

    /// Serializes the trace as CSV (`event,round,node,aux` rows).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("event,round,node,aux\n");
        for event in &self.events {
            match event {
                AttackEvent::BreakInAttempt {
                    round,
                    node,
                    succeeded,
                } => {
                    out.push_str(&format!("break-in,{round},{},{succeeded}\n", node.0));
                }
                AttackEvent::Disclosure {
                    round,
                    source,
                    revealed,
                } => {
                    out.push_str(&format!(
                        "disclosure,{round},{},{}\n",
                        revealed.0, source.0
                    ));
                }
                AttackEvent::PriorKnowledge { node } => {
                    out.push_str(&format!("prior-knowledge,0,{},\n", node.0));
                }
                AttackEvent::RoundPlan { round, case, known } => {
                    // The node column carries the known-backlog count for
                    // round-plan rows (there is no single node involved).
                    out.push_str(&format!("round-plan,{round},{known},case-{case}\n"));
                }
                AttackEvent::Congestion { node, reason } => {
                    let reason = match reason {
                        CongestionReason::Targeted => "targeted",
                        CongestionReason::Random => "random",
                    };
                    out.push_str(&format!("congestion,,{},{reason}\n", node.0));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> AttackTrace {
        let mut t = AttackTrace::new();
        t.record(AttackEvent::PriorKnowledge { node: NodeId(1) });
        t.record(AttackEvent::RoundPlan {
            round: 1,
            case: 1,
            known: 1,
        });
        t.record(AttackEvent::BreakInAttempt {
            round: 1,
            node: NodeId(1),
            succeeded: true,
        });
        t.record(AttackEvent::Disclosure {
            round: 1,
            source: NodeId(1),
            revealed: NodeId(2),
        });
        t.record(AttackEvent::BreakInAttempt {
            round: 2,
            node: NodeId(2),
            succeeded: true,
        });
        t.record(AttackEvent::Disclosure {
            round: 2,
            source: NodeId(2),
            revealed: NodeId(3),
        });
        t.record(AttackEvent::BreakInAttempt {
            round: 2,
            node: NodeId(7),
            succeeded: false,
        });
        t.record(AttackEvent::Congestion {
            node: NodeId(3),
            reason: CongestionReason::Targeted,
        });
        t.record(AttackEvent::Congestion {
            node: NodeId(9),
            reason: CongestionReason::Random,
        });
        t
    }

    #[test]
    fn cascade_depths() {
        let t = sample_trace();
        assert_eq!(t.cascade_depth(NodeId(1)), 0, "prior knowledge is a root");
        assert_eq!(t.cascade_depth(NodeId(2)), 1);
        assert_eq!(t.cascade_depth(NodeId(3)), 2);
        assert_eq!(t.cascade_depth(NodeId(9)), 0, "random victim has no chain");
        assert_eq!(t.max_cascade_depth(), 2);
    }

    #[test]
    fn round_and_congestion_accounting() {
        let t = sample_trace();
        let rounds = t.break_ins_by_round();
        assert_eq!(rounds[&1], (1, 1));
        assert_eq!(rounds[&2], (2, 1));
        assert_eq!(t.congestion_split(), (1, 1));
        assert_eq!(t.len(), 9);
        assert!(!t.is_empty());
    }

    #[test]
    fn first_disclosure_wins() {
        let mut t = sample_trace();
        // A second leak of node 2 from elsewhere must not re-parent it.
        t.record(AttackEvent::Disclosure {
            round: 3,
            source: NodeId(7),
            revealed: NodeId(2),
        });
        assert_eq!(t.disclosure_parents()[&NodeId(2)], NodeId(1));
    }

    #[test]
    fn csv_export_shape() {
        let csv = sample_trace().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "event,round,node,aux");
        assert_eq!(lines.len(), 10);
        assert!(lines.iter().any(|l| l.starts_with("disclosure,1,2,1")));
        assert!(lines.iter().any(|l| l.starts_with("congestion,,9,random")));
        assert!(lines.contains(&"round-plan,1,1,case-1"));
    }
}
