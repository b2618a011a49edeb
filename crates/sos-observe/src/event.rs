//! The trace event taxonomy.
//!
//! Every [`EventKind`] variant corresponds to a decision point the
//! paper's model makes observable — the mapping to equations and to
//! Algorithm 1 steps is tabulated in the repository's `EXPERIMENTS.md`
//! (§ "Event taxonomy"). Node identifiers are raw `u32` indices (the
//! inner value of `sos-overlay`'s `NodeId`) so this crate stays
//! dependency-free.

use std::fmt;

/// A named span of the attack/measurement lifecycle within one trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Break-in trials against SOS nodes (budget `N_T`, eq. 1–4).
    BreakIn,
    /// Congestion of disclosed/guessed nodes (budget `N_C`, eq. 5–7).
    Congestion,
    /// Client messages routed through the attacked overlay (`P_S`).
    Routing,
    /// Overlay self-healing between or after attack rounds.
    Repair,
    /// Membership churn (joins/departures) on the overlay.
    Churn,
}

impl Phase {
    /// Stable lowercase label used in JSONL and timeline output.
    pub fn label(self) -> &'static str {
        match self {
            Phase::BreakIn => "break-in",
            Phase::Congestion => "congestion",
            Phase::Routing => "routing",
            Phase::Repair => "repair",
            Phase::Churn => "churn",
        }
    }

    /// All phases, in canonical lifecycle order.
    pub const ALL: [Phase; 5] = [
        Phase::BreakIn,
        Phase::Congestion,
        Phase::Routing,
        Phase::Repair,
        Phase::Churn,
    ];
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// What happened at one instrumented decision point.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A trial began (fresh overlay, fresh attack).
    TrialStart {
        /// The derived per-trial seed of the attack/routing stream.
        seed: u64,
    },
    /// A trial finished.
    TrialEnd {
        /// Messages delivered out of those attempted this trial.
        delivered: u64,
        /// Messages attempted this trial.
        attempted: u64,
    },
    /// A lifecycle phase opened.
    PhaseStart {
        /// Which phase.
        phase: Phase,
    },
    /// A lifecycle phase closed.
    PhaseEnd {
        /// Which phase.
        phase: Phase,
    },
    /// One break-in trial against an SOS node (paper §3: each trial
    /// succeeds with probability `P_b`).
    BreakInAttempt {
        /// 1-based layer of the target, `0` if the target sat on no
        /// layer (bystander).
        layer: u32,
        /// Target node.
        node: u32,
        /// Whether the intruder got in.
        succeeded: bool,
    },
    /// A broken node revealed a neighbor identity to the attacker
    /// (successive attack's information cascade).
    Disclosure {
        /// The already-broken node doing the revealing.
        source: u32,
        /// The newly revealed node.
        revealed: u32,
    },
    /// A node known to the attacker before the attack started (prior
    /// knowledge probability `P_E`).
    PriorKnowledge {
        /// The known node.
        node: u32,
    },
    /// A congestion slot was spent on a node (budget `N_C`).
    CongestionOnset {
        /// The congested node.
        node: u32,
        /// `true` if the node was specifically targeted (disclosed or
        /// known), `false` if the slot was spent on a random guess.
        targeted: bool,
    },
    /// A previously bad node was restored by the overlay's healing.
    NodeRepair {
        /// The repaired node.
        node: u32,
    },
    /// One Algorithm 1 round began, with the branch the attacker took.
    AttackRound {
        /// 1-based round number.
        round: u32,
        /// Which of Algorithm 1's cases 1–4 applied this round.
        case: u8,
        /// Nodes the attacker knew entering the round.
        known: u64,
    },
    /// A client message entered the overlay.
    RouteAttempt {
        /// 0-based message index within the trial.
        route: u64,
    },
    /// A client message reached the target.
    RouteDelivered {
        /// 0-based message index within the trial.
        route: u64,
        /// Underlay hops the delivery took.
        hops: u32,
    },
    /// A client message died inside the overlay.
    RouteFailed {
        /// 0-based message index within the trial.
        route: u64,
        /// Deepest 1-based layer reached before dying (`0`: died at
        /// the access point).
        deepest_layer: u32,
    },
    /// A Chord lookup completed (transport-level observation).
    LookupHops {
        /// Overlay hops on the lookup path.
        hops: u32,
    },
    /// A node joined the overlay (churn or promotion).
    NodeJoin {
        /// The joining/promoted node.
        node: u32,
    },
    /// A node departed the overlay (churn).
    NodeLeave {
        /// The departed node.
        node: u32,
    },
    /// The fault plane injected a benign fault on a hop (`sos-faults`).
    FaultInjected {
        /// Hop sender.
        from: u32,
        /// Hop destination.
        to: u32,
        /// Which fault class fired.
        fault: FaultClass,
        /// Simulated ticks the fault cost (0 for loss/misroute, which
        /// cost an attempt instead).
        ticks: u64,
    },
    /// The retry loop scheduled another delivery attempt for a hop.
    HopRetry {
        /// Hop sender.
        from: u32,
        /// Hop destination.
        to: u32,
        /// 1-based attempt number being started.
        attempt: u32,
        /// Backoff ticks waited before the attempt.
        backoff: u64,
    },
    /// Routing fell back to a degraded delivery mode after a hop
    /// exhausted its retries.
    RouteDowngrade {
        /// Hop sender.
        from: u32,
        /// Hop destination the degraded mode aimed at (or abandoned).
        to: u32,
        /// Which degradation stage was taken.
        fallback: FallbackMode,
        /// Whether the degraded mode delivered the hop.
        recovered: bool,
    },
}

/// Benign fault classes injected by the fault plane (`sos-faults`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// Message dropped in flight.
    Loss,
    /// Message delayed in flight.
    Delay,
    /// Destination (or every route to it) benignly crashed.
    Crash,
    /// Destination alive but slow.
    Slow,
    /// Lookup step misdirected by Byzantine/stale routing state.
    Misroute,
}

impl FaultClass {
    /// Stable lowercase label used in JSONL and timeline output.
    pub fn label(self) -> &'static str {
        match self {
            FaultClass::Loss => "loss",
            FaultClass::Delay => "delay",
            FaultClass::Crash => "crash",
            FaultClass::Slow => "slow",
            FaultClass::Misroute => "misroute",
        }
    }
}

/// Graceful-degradation stages reported by [`EventKind::RouteDowngrade`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FallbackMode {
    /// Successor-list walking instead of finger-table routing.
    SuccessorWalk,
    /// An alternate next-layer neighbor instead of the failed one.
    AlternateNeighbor,
}

impl FallbackMode {
    /// Stable label used in JSONL and timeline output.
    pub fn label(self) -> &'static str {
        match self {
            FallbackMode::SuccessorWalk => "successor-walk",
            FallbackMode::AlternateNeighbor => "alternate-neighbor",
        }
    }
}

impl EventKind {
    /// Stable kind tag used as the JSONL `kind` field.
    pub fn tag(&self) -> &'static str {
        match self {
            EventKind::TrialStart { .. } => "trial_start",
            EventKind::TrialEnd { .. } => "trial_end",
            EventKind::PhaseStart { .. } => "phase_start",
            EventKind::PhaseEnd { .. } => "phase_end",
            EventKind::BreakInAttempt { .. } => "break_in_attempt",
            EventKind::Disclosure { .. } => "disclosure",
            EventKind::PriorKnowledge { .. } => "prior_knowledge",
            EventKind::CongestionOnset { .. } => "congestion_onset",
            EventKind::NodeRepair { .. } => "node_repair",
            EventKind::AttackRound { .. } => "attack_round",
            EventKind::RouteAttempt { .. } => "route_attempt",
            EventKind::RouteDelivered { .. } => "route_delivered",
            EventKind::RouteFailed { .. } => "route_failed",
            EventKind::LookupHops { .. } => "lookup_hops",
            EventKind::NodeJoin { .. } => "node_join",
            EventKind::NodeLeave { .. } => "node_leave",
            EventKind::FaultInjected { .. } => "fault_injected",
            EventKind::HopRetry { .. } => "hop_retry",
            EventKind::RouteDowngrade { .. } => "route_downgrade",
        }
    }
}

/// One timestamped observation within a trial.
///
/// `t` is a logical tick — a counter the emitting layer increments per
/// event — not wall-clock time: the simulation has no physical clock,
/// and logical ticks keep traces bit-identical across machines.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Logical tick within the trial (monotone per trial).
    pub t: u64,
    /// 0-based Monte Carlo trial index.
    pub trial: u64,
    /// What happened.
    pub kind: EventKind,
}

impl Event {
    /// Creates an event.
    pub fn new(t: u64, trial: u64, kind: EventKind) -> Self {
        Event { t, trial, kind }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_are_stable_and_distinct() {
        let kinds = [
            EventKind::TrialStart { seed: 0 },
            EventKind::TrialEnd { delivered: 0, attempted: 0 },
            EventKind::PhaseStart { phase: Phase::BreakIn },
            EventKind::PhaseEnd { phase: Phase::BreakIn },
            EventKind::BreakInAttempt { layer: 0, node: 0, succeeded: false },
            EventKind::Disclosure { source: 0, revealed: 0 },
            EventKind::PriorKnowledge { node: 0 },
            EventKind::CongestionOnset { node: 0, targeted: false },
            EventKind::NodeRepair { node: 0 },
            EventKind::AttackRound { round: 0, case: 1, known: 0 },
            EventKind::RouteAttempt { route: 0 },
            EventKind::RouteDelivered { route: 0, hops: 0 },
            EventKind::RouteFailed { route: 0, deepest_layer: 0 },
            EventKind::LookupHops { hops: 0 },
            EventKind::NodeJoin { node: 0 },
            EventKind::NodeLeave { node: 0 },
            EventKind::FaultInjected {
                from: 0,
                to: 0,
                fault: FaultClass::Loss,
                ticks: 0,
            },
            EventKind::HopRetry { from: 0, to: 0, attempt: 0, backoff: 0 },
            EventKind::RouteDowngrade {
                from: 0,
                to: 0,
                fallback: FallbackMode::SuccessorWalk,
                recovered: false,
            },
        ];
        let mut tags: Vec<&str> = kinds.iter().map(EventKind::tag).collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), kinds.len(), "duplicate kind tag");
    }

    #[test]
    fn phase_labels_cover_all() {
        for phase in Phase::ALL {
            assert!(!phase.label().is_empty());
            assert_eq!(phase.to_string(), phase.label());
        }
    }

    #[test]
    fn fault_and_fallback_labels_distinct() {
        let fault_labels = [
            FaultClass::Loss,
            FaultClass::Delay,
            FaultClass::Crash,
            FaultClass::Slow,
            FaultClass::Misroute,
        ]
        .map(FaultClass::label);
        let mut sorted = fault_labels.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), fault_labels.len());
        assert_ne!(
            FallbackMode::SuccessorWalk.label(),
            FallbackMode::AlternateNeighbor.label()
        );
    }
}
