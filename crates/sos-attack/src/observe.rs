//! Bridge from [`AttackTrace`] to the `sos-observe` event bus.
//!
//! Attackers record their own [`AttackEvent`] stream unconditionally
//! (it is cheap and powers the cascade analyses in [`crate::trace`]);
//! this module translates that stream into `sos_observe` events after
//! the fact, annotating each node with its layer and wrapping the two
//! attack phases (break-in, congestion) in phase spans. Translating
//! after the attack keeps the attackers themselves recorder-free — the
//! hot path pays nothing when tracing is off.

use crate::trace::{AttackEvent, AttackTrace, CongestionReason};
use sos_observe::{Event, EventKind, Phase, Recorder};
use sos_overlay::{NodeId, Overlay};

/// The 1-based layer of `node` for event annotation (`0` = the node
/// sits on no layer, i.e. it is a bystander).
fn layer_of(overlay: &Overlay, node: NodeId) -> u32 {
    overlay.layer_of(node).unwrap_or(0) as u32
}

/// Replays `trace` into `recorder` as `sos_observe` events for `trial`,
/// advancing the logical tick `t` once per emitted event.
///
/// The attack's event stream is ordered (all break-in-phase events
/// precede all congestion events by construction), so the translation
/// wraps it in a `break-in` span and — if any congestion slot was
/// spent — a `congestion` span. Callers should skip the call entirely
/// when `recorder.enabled()` is false.
pub fn emit_attack_events(
    trace: &AttackTrace,
    overlay: &Overlay,
    trial: u64,
    t: &mut u64,
    recorder: &dyn Recorder,
) {
    let emit = |t: &mut u64, kind: EventKind| {
        recorder.record(Event::new(*t, trial, kind));
        *t += 1;
    };
    emit(t, EventKind::PhaseStart {
        phase: Phase::BreakIn,
    });
    let mut in_congestion = false;
    for event in trace.events() {
        if !in_congestion && matches!(event, AttackEvent::Congestion { .. }) {
            emit(t, EventKind::PhaseEnd {
                phase: Phase::BreakIn,
            });
            emit(t, EventKind::PhaseStart {
                phase: Phase::Congestion,
            });
            in_congestion = true;
        }
        let kind = match *event {
            AttackEvent::BreakInAttempt {
                node, succeeded, ..
            } => EventKind::BreakInAttempt {
                layer: layer_of(overlay, node),
                node: node.0,
                succeeded,
            },
            AttackEvent::Disclosure {
                source, revealed, ..
            } => EventKind::Disclosure {
                source: source.0,
                revealed: revealed.0,
            },
            AttackEvent::PriorKnowledge { node } => {
                EventKind::PriorKnowledge { node: node.0 }
            }
            AttackEvent::RoundPlan { round, case, known } => EventKind::AttackRound {
                round,
                case,
                known: known as u64,
            },
            AttackEvent::Congestion { node, reason } => EventKind::CongestionOnset {
                node: node.0,
                targeted: reason == CongestionReason::Targeted,
            },
        };
        emit(t, kind);
    }
    let closing = if in_congestion {
        Phase::Congestion
    } else {
        Phase::BreakIn
    };
    emit(t, EventKind::PhaseEnd { phase: closing });
}

/// The number of events [`emit_attack_events`] records for `trace` —
/// the ticks it advances: one per trace event, the break-in span's two
/// markers, and two more (break-in end, congestion start) when the
/// trace contains congestion. Callers with a disabled recorder advance
/// their tick clock by this instead of replaying.
pub fn attack_event_count(trace: &AttackTrace) -> u64 {
    let congested = trace
        .events()
        .iter()
        .any(|event| matches!(event, AttackEvent::Congestion { .. }));
    trace.len() as u64 + if congested { 4 } else { 2 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SuccessiveAttacker;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sos_core::{AttackBudget, MappingDegree, Scenario, SuccessiveParams, SystemParams};
    use sos_observe::MemoryRecorder;

    fn attacked_overlay() -> (Overlay, AttackTrace) {
        let scenario = Scenario::builder()
            .system(SystemParams::new(1_000, 60, 0.5).unwrap())
            .layers(3)
            .mapping(MappingDegree::OneTo(2))
            .filters(10)
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let mut overlay = Overlay::build(&scenario, &mut rng);
        let outcome = SuccessiveAttacker::new(
            AttackBudget::new(100, 300),
            SuccessiveParams::new(3, 0.2).unwrap(),
        )
        .execute(&mut overlay, &mut rng);
        (overlay, outcome.trace)
    }

    #[test]
    fn phases_bracket_the_attack() {
        let (overlay, trace) = attacked_overlay();
        let recorder = MemoryRecorder::new();
        let mut t = 0u64;
        emit_attack_events(&trace, &overlay, 7, &mut t, &recorder);
        let events = recorder.take_events();
        assert_eq!(events.len() as u64, t, "one tick per event");
        assert!(events.iter().all(|e| e.trial == 7));
        // Spans: break-in opens first, congestion closes last.
        assert_eq!(
            events.first().unwrap().kind,
            EventKind::PhaseStart {
                phase: Phase::BreakIn
            }
        );
        assert_eq!(
            events.last().unwrap().kind,
            EventKind::PhaseEnd {
                phase: Phase::Congestion
            }
        );
        // Every break-in event lands before every congestion event.
        let first_congestion = events
            .iter()
            .position(|e| matches!(e.kind, EventKind::CongestionOnset { .. }))
            .expect("N_C = 300 must congest something");
        let last_break_in = events
            .iter()
            .rposition(|e| matches!(e.kind, EventKind::BreakInAttempt { .. }))
            .expect("N_T = 100 must attempt break-ins");
        assert!(last_break_in < first_congestion);
        // Algorithm 1 rounds are visible.
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, EventKind::AttackRound { round: 1, .. })));
    }

    #[test]
    fn layers_annotated_from_overlay() {
        let (overlay, trace) = attacked_overlay();
        let recorder = MemoryRecorder::new();
        let mut t = 0;
        emit_attack_events(&trace, &overlay, 0, &mut t, &recorder);
        for event in recorder.take_events() {
            if let EventKind::BreakInAttempt { layer, node, .. } = event.kind {
                assert_eq!(
                    layer as usize,
                    overlay.layer_of(NodeId(node)).unwrap_or(0),
                    "layer annotation mismatch for node {node}"
                );
            }
        }
    }

    #[test]
    fn event_count_matches_what_the_bridge_records() {
        let (overlay, attacked) = attacked_overlay();
        let mut break_in_only = AttackTrace::new();
        break_in_only.record(AttackEvent::PriorKnowledge { node: NodeId(3) });
        break_in_only.record(AttackEvent::BreakInAttempt {
            round: 1,
            node: NodeId(3),
            succeeded: true,
        });
        break_in_only.record(AttackEvent::Disclosure {
            round: 1,
            source: NodeId(3),
            revealed: NodeId(4),
        });
        assert!(attacked
            .events()
            .iter()
            .any(|e| matches!(e, AttackEvent::Congestion { .. })));
        for (label, trace, expected) in [
            ("empty", AttackTrace::new(), 2),
            ("break-in only", break_in_only, 5),
            ("with congestion", attacked.clone(), attacked.len() as u64 + 4),
        ] {
            let recorder = MemoryRecorder::new();
            let mut t = 0u64;
            emit_attack_events(&trace, &overlay, 0, &mut t, &recorder);
            let recorded = recorder.take_events().len() as u64;
            assert_eq!(attack_event_count(&trace), recorded, "{label}");
            assert_eq!(recorded, expected, "{label}");
            assert_eq!(t, recorded, "{label}: one tick per event");
        }
    }
}
