//! Integration tests for the traced simulation path: event ordering,
//! determinism under a fixed seed, and sink round-trips.

use sos_core::{AttackBudget, AttackConfig, MappingDegree, Scenario, SuccessiveParams, SystemParams};
use sos_observe::{Event, EventKind, MemoryRecorder, Phase};
use sos_sim::engine::{Simulation, SimulationConfig};

fn traced_config() -> SimulationConfig {
    let scenario = Scenario::builder()
        .system(SystemParams::new(1_000, 60, 0.5).unwrap())
        .layers(3)
        .mapping(MappingDegree::OneTo(2))
        .filters(10)
        .build()
        .unwrap();
    SimulationConfig::new(
        scenario,
        AttackConfig::Successive {
            budget: AttackBudget::new(60, 250),
            params: SuccessiveParams::new(3, 0.2).unwrap(),
        },
    )
    .trials(3)
    .routes_per_trial(40)
    .seed(42)
}

fn run_traced_events() -> Vec<Event> {
    let recorder = MemoryRecorder::new();
    let _ = Simulation::new(traced_config()).run_traced(1, &recorder);
    recorder.take_events()
}

/// Tick position of the first event in `trial` matching `pred`.
fn first_tick(events: &[Event], trial: u64, pred: impl Fn(&EventKind) -> bool) -> Option<u64> {
    events
        .iter()
        .find(|e| e.trial == trial && pred(&e.kind))
        .map(|e| e.t)
}

#[test]
fn phase_events_are_ordered_within_every_trial() {
    let events = run_traced_events();
    assert!(!events.is_empty());
    for trial in 0..3u64 {
        let of_trial: Vec<&Event> = events.iter().filter(|e| e.trial == trial).collect();
        assert!(!of_trial.is_empty(), "trial {trial} produced no events");

        // The trial is bracketed by TrialStart/TrialEnd.
        assert!(matches!(of_trial[0].kind, EventKind::TrialStart { .. }));
        assert!(matches!(
            of_trial.last().unwrap().kind,
            EventKind::TrialEnd { .. }
        ));

        // Ticks are strictly monotone within the trial.
        for pair in of_trial.windows(2) {
            assert!(pair[0].t < pair[1].t, "non-monotone ticks in trial {trial}");
        }

        // Lifecycle order: break-in opens before congestion opens
        // before routing opens; every break-in attempt precedes every
        // congestion onset (the paper's two attack phases).
        let break_in_start = first_tick(&events, trial, |k| {
            *k == EventKind::PhaseStart { phase: Phase::BreakIn }
        })
        .expect("break-in span");
        let congestion_start = first_tick(&events, trial, |k| {
            *k == EventKind::PhaseStart { phase: Phase::Congestion }
        })
        .expect("congestion span");
        let routing_start = first_tick(&events, trial, |k| {
            *k == EventKind::PhaseStart { phase: Phase::Routing }
        })
        .expect("routing span");
        assert!(break_in_start < congestion_start);
        assert!(congestion_start < routing_start);

        let last_break_in = of_trial
            .iter()
            .filter(|e| matches!(e.kind, EventKind::BreakInAttempt { .. }))
            .map(|e| e.t)
            .max()
            .expect("N_T = 60 must attempt break-ins");
        let first_congestion = of_trial
            .iter()
            .filter(|e| matches!(e.kind, EventKind::CongestionOnset { .. }))
            .map(|e| e.t)
            .min()
            .expect("N_C = 250 must congest something");
        assert!(
            last_break_in < first_congestion,
            "break-in after congestion onset in trial {trial}"
        );

        // Algorithm 1 decision points are visible and start at round 1.
        assert!(first_tick(&events, trial, |k| matches!(
            k,
            EventKind::AttackRound { round: 1, .. }
        ))
        .is_some());

        // Route events come in attempt → outcome pairs.
        let attempts = of_trial
            .iter()
            .filter(|e| matches!(e.kind, EventKind::RouteAttempt { .. }))
            .count();
        let outcomes = of_trial
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    EventKind::RouteDelivered { .. } | EventKind::RouteFailed { .. }
                )
            })
            .count();
        assert_eq!(attempts, 40);
        assert_eq!(outcomes, 40);
    }
}

#[test]
fn traced_events_are_deterministic_under_fixed_seed() {
    let first = run_traced_events();
    let second = run_traced_events();
    assert_eq!(first, second, "same seed must replay the same trace");
}

#[test]
fn parallel_trace_is_a_permutation_of_sequential() {
    let sequential = run_traced_events();
    let recorder = MemoryRecorder::new();
    let _ = Simulation::new(traced_config()).run_traced(3, &recorder);
    let mut parallel = recorder.take_events();
    parallel.sort_by_key(|e| (e.trial, e.t));
    // Sequential emission is already (trial, t)-sorted, so sorting the
    // parallel interleaving must reproduce it exactly.
    assert_eq!(parallel, sequential);
}

#[test]
fn sinks_render_the_trace() {
    let events = run_traced_events();
    let jsonl = sos_observe::write_jsonl(&events);
    assert_eq!(jsonl.lines().count(), events.len());
    assert!(jsonl.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
    assert!(jsonl.contains("\"kind\":\"break_in_attempt\""));

    let timeline = sos_observe::render_timeline(&events);
    assert!(timeline.contains("trial 0"));
    assert!(timeline.contains("trial 2"));
    assert!(timeline.contains("break-in"));
    assert!(timeline.contains("routing"));
}
