//! Output sinks over a recorded event slice: JSONL export and the
//! human-readable per-phase timeline.
//!
//! Sinks are pure functions from `&[Event]` to `String` — callers
//! (the CLI, tests) decide where bytes go. JSON is emitted by hand;
//! every payload field is numeric, boolean, or a fixed label, so no
//! escaping machinery is needed.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::event::{Event, EventKind, Phase};
use crate::metrics::Histogram;

/// Renders events as JSON Lines: one flat object per event, with `t`,
/// `trial`, `kind`, and the kind's payload fields.
///
/// ```
/// use sos_observe::{write_jsonl, Event, EventKind};
///
/// let events = [Event::new(4, 2, EventKind::BreakInAttempt {
///     layer: 1,
///     node: 17,
///     succeeded: true,
/// })];
/// assert_eq!(
///     write_jsonl(&events),
///     "{\"t\":4,\"trial\":2,\"kind\":\"break_in_attempt\",\
///      \"layer\":1,\"node\":17,\"succeeded\":true}\n"
/// );
/// ```
pub fn write_jsonl(events: &[Event]) -> String {
    let mut out = String::with_capacity(events.len() * 64);
    for event in events {
        let _ = write!(
            out,
            "{{\"t\":{},\"trial\":{},\"kind\":\"{}\"",
            event.t,
            event.trial,
            event.kind.tag()
        );
        match &event.kind {
            EventKind::TrialStart { seed } => {
                let _ = write!(out, ",\"seed\":{seed}");
            }
            EventKind::TrialEnd { delivered, attempted } => {
                let _ = write!(out, ",\"delivered\":{delivered},\"attempted\":{attempted}");
            }
            EventKind::PhaseStart { phase } | EventKind::PhaseEnd { phase } => {
                let _ = write!(out, ",\"phase\":\"{}\"", phase.label());
            }
            EventKind::BreakInAttempt { layer, node, succeeded } => {
                let _ = write!(
                    out,
                    ",\"layer\":{layer},\"node\":{node},\"succeeded\":{succeeded}"
                );
            }
            EventKind::Disclosure { source, revealed } => {
                let _ = write!(out, ",\"source\":{source},\"revealed\":{revealed}");
            }
            EventKind::PriorKnowledge { node }
            | EventKind::NodeRepair { node }
            | EventKind::NodeJoin { node }
            | EventKind::NodeLeave { node } => {
                let _ = write!(out, ",\"node\":{node}");
            }
            EventKind::CongestionOnset { node, targeted } => {
                let _ = write!(out, ",\"node\":{node},\"targeted\":{targeted}");
            }
            EventKind::AttackRound { round, case, known } => {
                let _ = write!(out, ",\"round\":{round},\"case\":{case},\"known\":{known}");
            }
            EventKind::RouteAttempt { route } => {
                let _ = write!(out, ",\"route\":{route}");
            }
            EventKind::RouteDelivered { route, hops } => {
                let _ = write!(out, ",\"route\":{route},\"hops\":{hops}");
            }
            EventKind::RouteFailed { route, deepest_layer } => {
                let _ = write!(out, ",\"route\":{route},\"deepest_layer\":{deepest_layer}");
            }
            EventKind::LookupHops { hops } => {
                let _ = write!(out, ",\"hops\":{hops}");
            }
            EventKind::FaultInjected { from, to, fault, ticks } => {
                let _ = write!(
                    out,
                    ",\"from\":{from},\"to\":{to},\"fault\":\"{}\",\"ticks\":{ticks}",
                    fault.label()
                );
            }
            EventKind::HopRetry { from, to, attempt, backoff } => {
                let _ = write!(
                    out,
                    ",\"from\":{from},\"to\":{to},\"attempt\":{attempt},\"backoff\":{backoff}"
                );
            }
            EventKind::RouteDowngrade { from, to, fallback, recovered } => {
                let _ = write!(
                    out,
                    ",\"from\":{from},\"to\":{to},\"fallback\":\"{}\",\"recovered\":{recovered}",
                    fallback.label()
                );
            }
        }
        out.push_str("}\n");
    }
    out
}

/// Aggregates for one phase span (between `PhaseStart` and `PhaseEnd`).
#[derive(Debug, Default)]
struct SpanStats {
    attempts: u64,
    break_ins: u64,
    disclosures: u64,
    prior_known: u64,
    onsets_targeted: u64,
    onsets_random: u64,
    repairs: u64,
    rounds: u64,
    case_counts: [u64; 4],
    route_attempts: u64,
    delivered: u64,
    hops_sum: u64,
    lookups: u64,
    lookup_hops_sum: u64,
    joins: u64,
    leaves: u64,
    faults: u64,
    retries: u64,
    downgrades: u64,
    downgrades_recovered: u64,
}

impl SpanStats {
    fn absorb(&mut self, kind: &EventKind) {
        match kind {
            EventKind::BreakInAttempt { succeeded, .. } => {
                self.attempts += 1;
                self.break_ins += u64::from(*succeeded);
            }
            EventKind::Disclosure { .. } => self.disclosures += 1,
            EventKind::PriorKnowledge { .. } => self.prior_known += 1,
            EventKind::CongestionOnset { targeted, .. } => {
                if *targeted {
                    self.onsets_targeted += 1;
                } else {
                    self.onsets_random += 1;
                }
            }
            EventKind::NodeRepair { .. } => self.repairs += 1,
            EventKind::AttackRound { case, .. } => {
                self.rounds += 1;
                if (1..=4).contains(case) {
                    self.case_counts[(*case - 1) as usize] += 1;
                }
            }
            EventKind::RouteAttempt { .. } => self.route_attempts += 1,
            EventKind::RouteDelivered { hops, .. } => {
                self.delivered += 1;
                self.hops_sum += u64::from(*hops);
            }
            EventKind::LookupHops { hops } => {
                self.lookups += 1;
                self.lookup_hops_sum += u64::from(*hops);
            }
            EventKind::NodeJoin { .. } => self.joins += 1,
            EventKind::NodeLeave { .. } => self.leaves += 1,
            EventKind::FaultInjected { .. } => self.faults += 1,
            EventKind::HopRetry { .. } => self.retries += 1,
            EventKind::RouteDowngrade { recovered, .. } => {
                self.downgrades += 1;
                self.downgrades_recovered += u64::from(*recovered);
            }
            _ => {}
        }
    }

    fn describe(&self, phase: Phase) -> String {
        let mut parts: Vec<String> = Vec::new();
        match phase {
            Phase::BreakIn => {
                parts.push(format!(
                    "{} attempts, {} break-ins",
                    self.attempts, self.break_ins
                ));
                if self.disclosures > 0 {
                    parts.push(format!("{} disclosures", self.disclosures));
                }
                if self.prior_known > 0 {
                    parts.push(format!("{} known a priori", self.prior_known));
                }
                if self.rounds > 0 {
                    parts.push(format!(
                        "{} rounds (cases 1–4: {}/{}/{}/{})",
                        self.rounds,
                        self.case_counts[0],
                        self.case_counts[1],
                        self.case_counts[2],
                        self.case_counts[3],
                    ));
                }
            }
            Phase::Congestion => {
                parts.push(format!(
                    "{} onsets ({} targeted, {} random)",
                    self.onsets_targeted + self.onsets_random,
                    self.onsets_targeted,
                    self.onsets_random
                ));
            }
            Phase::Routing => {
                parts.push(format!(
                    "{} attempts, {} delivered",
                    self.route_attempts, self.delivered
                ));
                if self.delivered > 0 {
                    parts.push(format!(
                        "mean {:.1} hops",
                        self.hops_sum as f64 / self.delivered as f64
                    ));
                }
                if self.lookups > 0 {
                    parts.push(format!(
                        "{} lookups, mean {:.1} ring hops",
                        self.lookups,
                        self.lookup_hops_sum as f64 / self.lookups as f64
                    ));
                }
                if self.faults > 0 {
                    parts.push(format!("{} faults injected", self.faults));
                }
                if self.retries > 0 {
                    parts.push(format!("{} retries", self.retries));
                }
                if self.downgrades > 0 {
                    parts.push(format!(
                        "{} downgrades ({} recovered)",
                        self.downgrades, self.downgrades_recovered
                    ));
                }
            }
            Phase::Repair => {
                parts.push(format!("{} nodes repaired", self.repairs));
            }
            Phase::Churn => {
                parts.push(format!(
                    "{} departures, {} joins/promotions",
                    self.leaves, self.joins
                ));
            }
        }
        parts.join(", ")
    }
}

/// Geometric bucket bounds for phase-span durations in logical ticks.
fn span_tick_bounds() -> Vec<f64> {
    (1..=16).map(|p| (1u64 << p) as f64).collect()
}

/// Renders a human-readable per-trial, per-phase timeline.
///
/// Each trial shows its seed and delivery ratio, then one line per
/// phase span with the logical-tick interval and phase-appropriate
/// aggregates — the view printed by `sos trace`. When more than one
/// trial is present, a trailing summary reports the p50/p95/p99
/// distribution of each phase's span length (in logical ticks) across
/// trials.
pub fn render_timeline(events: &[Event]) -> String {
    let mut by_trial: BTreeMap<u64, Vec<&Event>> = BTreeMap::new();
    for event in events {
        by_trial.entry(event.trial).or_default().push(event);
    }

    // Phase label → span-length histogram across all trials.
    let mut span_ticks: BTreeMap<&'static str, Histogram> = BTreeMap::new();
    let trial_count = by_trial.len();
    let mut out = String::new();
    for (trial, trial_events) in &by_trial {
        let mut seed = None;
        let mut outcome = None;
        // (phase, t_start, t_end, stats)
        let mut spans: Vec<(Phase, u64, u64, SpanStats)> = Vec::new();
        let mut open: Option<usize> = None;
        for event in trial_events {
            match &event.kind {
                EventKind::TrialStart { seed: s } => seed = Some(*s),
                EventKind::TrialEnd { delivered, attempted } => {
                    outcome = Some((*delivered, *attempted));
                }
                EventKind::PhaseStart { phase } => {
                    spans.push((*phase, event.t, event.t, SpanStats::default()));
                    open = Some(spans.len() - 1);
                }
                EventKind::PhaseEnd { .. } => {
                    if let Some(i) = open.take() {
                        spans[i].2 = event.t;
                    }
                }
                kind => {
                    if let Some(i) = open {
                        spans[i].2 = event.t;
                        spans[i].3.absorb(kind);
                    }
                }
            }
        }

        let _ = write!(out, "trial {trial}");
        if let Some(s) = seed {
            let _ = write!(out, "  seed={s:#x}");
        }
        if let Some((delivered, attempted)) = outcome {
            let _ = write!(out, "  routes {delivered}/{attempted} delivered");
        }
        out.push('\n');
        let width = spans
            .iter()
            .map(|(_, s, e, _)| format!("t {s}..{e}").len())
            .max()
            .unwrap_or(0);
        for (phase, start, end, stats) in &spans {
            let interval = format!("t {start}..{end}");
            let _ = writeln!(
                out,
                "  {interval:<width$}  {:<10}  {}",
                phase.label(),
                stats.describe(*phase)
            );
            span_ticks
                .entry(phase.label())
                .or_insert_with(|| Histogram::new(span_tick_bounds()))
                .record((end - start) as f64);
        }
    }
    if trial_count > 1 && !span_ticks.is_empty() {
        out.push_str("phase-span summary (logical ticks across trials):\n");
        for (label, hist) in &span_ticks {
            let q = |q: f64| hist.quantile(q).unwrap_or(0.0);
            let _ = writeln!(
                out,
                "  {label:<10}  p50 {:>7.1}  p95 {:>7.1}  p99 {:>7.1}  ({} spans)",
                q(0.50),
                q(0.95),
                q(0.99),
                hist.count()
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<Event> {
        vec![
            Event::new(0, 0, EventKind::TrialStart { seed: 42 }),
            Event::new(1, 0, EventKind::PhaseStart { phase: Phase::BreakIn }),
            Event::new(2, 0, EventKind::AttackRound { round: 1, case: 1, known: 3 }),
            Event::new(3, 0, EventKind::BreakInAttempt { layer: 1, node: 5, succeeded: true }),
            Event::new(4, 0, EventKind::Disclosure { source: 5, revealed: 9 }),
            Event::new(5, 0, EventKind::PhaseEnd { phase: Phase::BreakIn }),
            Event::new(6, 0, EventKind::PhaseStart { phase: Phase::Congestion }),
            Event::new(7, 0, EventKind::CongestionOnset { node: 9, targeted: true }),
            Event::new(8, 0, EventKind::CongestionOnset { node: 2, targeted: false }),
            Event::new(9, 0, EventKind::PhaseEnd { phase: Phase::Congestion }),
            Event::new(10, 0, EventKind::PhaseStart { phase: Phase::Routing }),
            Event::new(11, 0, EventKind::RouteAttempt { route: 0 }),
            Event::new(12, 0, EventKind::RouteDelivered { route: 0, hops: 4 }),
            Event::new(13, 0, EventKind::RouteAttempt { route: 1 }),
            Event::new(14, 0, EventKind::RouteFailed { route: 1, deepest_layer: 2 }),
            Event::new(15, 0, EventKind::PhaseEnd { phase: Phase::Routing }),
            Event::new(16, 0, EventKind::TrialEnd { delivered: 1, attempted: 2 }),
        ]
    }

    #[test]
    fn jsonl_one_line_per_event_with_payload() {
        let events = sample_events();
        let jsonl = write_jsonl(&events);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), events.len());
        assert!(lines[0].contains("\"kind\":\"trial_start\""));
        assert!(lines[0].contains("\"seed\":42"));
        assert!(lines[3].contains("\"succeeded\":true"));
        assert!(lines[2].contains("\"case\":1"));
        assert!(lines.iter().all(|l| l.starts_with('{') && l.ends_with('}')));
    }

    #[test]
    fn timeline_groups_phases_and_reports_ratio() {
        let timeline = render_timeline(&sample_events());
        assert!(timeline.starts_with("trial 0  seed=0x2a  routes 1/2 delivered"));
        assert!(timeline.contains("break-in"));
        assert!(timeline.contains("1 attempts, 1 break-ins"));
        assert!(timeline.contains("1 disclosures"));
        assert!(timeline.contains("2 onsets (1 targeted, 1 random)"));
        assert!(timeline.contains("2 attempts, 1 delivered"));
        assert!(timeline.contains("mean 4.0 hops"));
    }

    #[test]
    fn fault_events_render_in_jsonl_and_timeline() {
        use crate::event::{FallbackMode, FaultClass};
        let events = vec![
            Event::new(0, 0, EventKind::PhaseStart { phase: Phase::Routing }),
            Event::new(1, 0, EventKind::RouteAttempt { route: 0 }),
            Event::new(
                2,
                0,
                EventKind::FaultInjected { from: 3, to: 9, fault: FaultClass::Loss, ticks: 0 },
            ),
            Event::new(3, 0, EventKind::HopRetry { from: 3, to: 9, attempt: 2, backoff: 4 }),
            Event::new(
                4,
                0,
                EventKind::RouteDowngrade {
                    from: 3,
                    to: 9,
                    fallback: FallbackMode::SuccessorWalk,
                    recovered: true,
                },
            ),
            Event::new(5, 0, EventKind::RouteDelivered { route: 0, hops: 7 }),
            Event::new(6, 0, EventKind::PhaseEnd { phase: Phase::Routing }),
        ];
        let jsonl = write_jsonl(&events);
        assert!(jsonl.contains("\"kind\":\"fault_injected\""));
        assert!(jsonl.contains("\"fault\":\"loss\""));
        assert!(jsonl.contains("\"kind\":\"hop_retry\""));
        assert!(jsonl.contains("\"attempt\":2,\"backoff\":4"));
        assert!(jsonl.contains("\"fallback\":\"successor-walk\""));
        assert!(jsonl.contains("\"recovered\":true"));
        let timeline = render_timeline(&events);
        assert!(timeline.contains("1 faults injected"));
        assert!(timeline.contains("1 retries"));
        assert!(timeline.contains("1 downgrades (1 recovered)"));
    }

    #[test]
    fn timeline_separates_trials() {
        let mut events = sample_events();
        let mut second: Vec<Event> = sample_events()
            .into_iter()
            .map(|mut e| {
                e.trial = 1;
                e
            })
            .collect();
        events.append(&mut second);
        let timeline = render_timeline(&events);
        assert!(timeline.contains("trial 0"));
        assert!(timeline.contains("trial 1"));
    }

    #[test]
    fn multi_trial_timeline_appends_span_quantiles() {
        // One trial: no summary (a single span has no distribution).
        let single = render_timeline(&sample_events());
        assert!(!single.contains("phase-span summary"));

        // Three trials: the summary reports per-phase p50/p95/p99 of
        // span lengths. Every sample span is 4 ticks (t 1..5, 6..9,
        // 10..15 → 4, 3, 5), so quantiles stay within those bounds.
        let mut events = Vec::new();
        for trial in 0..3 {
            events.extend(sample_events().into_iter().map(|mut e| {
                e.trial = trial;
                e
            }));
        }
        let timeline = render_timeline(&events);
        assert!(timeline.contains("phase-span summary"));
        for phase in ["break-in", "congestion", "routing"] {
            let line = timeline
                .lines()
                .find(|l| l.trim_start().starts_with(phase) && l.contains("p50"))
                .unwrap_or_else(|| panic!("no summary line for {phase}:\n{timeline}"));
            assert!(line.contains("p95") && line.contains("p99"), "{line}");
            assert!(line.contains("(3 spans)"), "{line}");
        }
    }
}
