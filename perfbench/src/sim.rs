//! The three simulate workloads (`paper-chord`, `paper-direct`,
//! `figure-grid`), the layer metrics shared with `sosd-mix`, and the
//! `--record` mode that regenerates `expected.txt`.

use crate::expected::{self, Expect, INPUT_SEEDS};
use crate::replay::{replay, Point, Replay};
use crate::report::Metrics;
use crate::spans::{durations_ms, SpanLog};
use crate::stats::median;
use crate::{Outcome, SETUP_REPS, THREADS};
use sos_bench::ablations::{ablation_scenario, profile_grid, AblationOptions};
use sos_core::{AttackBudget, AttackConfig, MappingDegree, PathEvaluator, Scenario};
use sos_faults::{FaultConfig, RetryPolicy};
use sos_observe::telemetry::{self, PhaseKind, TelemetrySnapshot};
use sos_serve::{analyze_doc, analyze_outcome, SimSpec};
use sos_sim::{
    config_fingerprint, RoutingPolicy, Simulation, SimulationConfig, SimulationResult,
    SweepExecutor, TransportKind,
};
use std::collections::HashMap;
use std::time::Instant;

/// Trials per sample needed for a p99 with ten samples beyond it.
const P99_SAMPLES: u64 = 1000;

/// Trials of the warm-up point timed as set-up: enough that the few
/// hundred µs of thread wake-up jitter on a small VM stay a small share.
const SETUP_TRIALS: u64 = 20;

/// Grid passes of the per-point `run_one` timing in a traced run.
const POINT_PASSES: usize = 3;

fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The paper configuration (CLI defaults) over `transport`.
pub fn paper_spec(transport: &str, input_seed: u64) -> SimSpec {
    SimSpec {
        transport: transport.into(),
        seed: input_seed,
        ..SimSpec::default()
    }
}

/// [`profile_grid`] at figure sizing, described point by point (the
/// engine config hides its fields). Same panels, same order.
pub fn grid_points(input_seed: u64) -> Vec<Point> {
    let budgets = [0u64, 40, 80, 120, 160, 200];
    let base = |n_c: u64| Point {
        scenario: ablation_scenario(MappingDegree::OneTo(5)),
        attack: AttackConfig::OneBurst {
            budget: AttackBudget::new(60, n_c),
        },
        policy: RoutingPolicy::default(),
        transport: TransportKind::Chord,
        faults: FaultConfig::none(),
        retry: RetryPolicy::none(),
        trials: 100,
        routes: 100,
        seed: input_seed,
    };
    let mut points = Vec::new();
    for policy in [
        RoutingPolicy::RandomGood,
        RoutingPolicy::FirstGood,
        RoutingPolicy::Backtracking,
    ] {
        for &n_c in &budgets {
            points.push(Point {
                policy,
                ..base(n_c)
            });
        }
    }
    for transport in [TransportKind::Direct, TransportKind::Chord] {
        for &n_c in &budgets {
            points.push(Point {
                transport,
                ..base(n_c)
            });
        }
    }
    for loss in [0.0, 0.2] {
        for &n_c in &budgets {
            points.push(Point {
                faults: FaultConfig::none().loss(loss).seed(input_seed),
                ..base(n_c)
            });
        }
    }
    points
}

fn grid_configs(input_seed: u64) -> Vec<SimulationConfig> {
    profile_grid(AblationOptions {
        trials: 100,
        routes_per_trial: 100,
        seed: input_seed,
    })
}

/// Panics unless the described points are exactly the workload's
/// configs (same fingerprints, same order) — the replay would
/// otherwise describe other work.
fn assert_same_work(points: &[Point], configs: &[SimulationConfig]) {
    assert_eq!(points.len(), configs.len(), "point/config count");
    for (i, (p, c)) in points.iter().zip(configs).enumerate() {
        assert_eq!(
            config_fingerprint(&p.config()),
            config_fingerprint(c),
            "point {i} differs from its config"
        );
    }
}

/// Per-phase shares, build reuse and pool busy fraction from the
/// program's telemetry counters between two snapshots.
pub fn telemetry_layers(
    before: &TelemetrySnapshot,
    after: &TelemetrySnapshot,
    wall_s: f64,
    m: &mut Metrics,
) {
    let phase_ns = |kind: PhaseKind| {
        let total = |s: &TelemetrySnapshot| {
            s.phases
                .iter()
                .find(|p| p.phase == kind)
                .map_or(0, |p| p.total_ns)
        };
        total(after).saturating_sub(total(before)) as f64
    };
    let all: f64 = PhaseKind::ALL.iter().map(|&k| phase_ns(k)).sum();
    if all > 0.0 {
        m.put(
            "attack.break_in_share",
            phase_ns(PhaseKind::BreakIn) / all,
            "frac",
        );
        m.put(
            "attack.congestion_share",
            phase_ns(PhaseKind::Congestion) / all,
            "frac",
        );
        m.put("build.share", phase_ns(PhaseKind::Build) / all, "frac");
        m.put("routing.share", phase_ns(PhaseKind::Routing) / all, "frac");
    }
    let trials = after.trials.saturating_sub(before.trials);
    if trials > 0 {
        let reused = after.build_reused.saturating_sub(before.build_reused);
        m.put_n(
            "engine.builds_reused_frac",
            reused as f64 / trials as f64,
            "frac",
            trials as usize,
        );
    }
    let busy = after.busy_ns().saturating_sub(before.busy_ns()) as f64;
    m.put(
        "pool.busy_frac",
        busy / (THREADS as f64 * wall_s * 1e9),
        "frac",
    );
}

/// Layer metrics of a replay: per-call span percentiles and work counts.
pub fn replay_layers(rep: &Replay, m: &mut Metrics) {
    let spans = &rep.spans;
    m.put_pct(
        "overlay.build_ms_p50",
        &durations_ms(spans, "overlay.build"),
        0.5,
        "ms",
    );
    let mut per_trial: HashMap<u64, f64> = HashMap::new();
    for s in spans
        .iter()
        .filter(|s| s.name == "overlay.build" || s.name == "ring.build")
    {
        *per_trial.entry(s.trace).or_default() += s.duration_ns() as f64 / 1e6;
    }
    let trial_build: Vec<f64> = per_trial.into_values().collect();
    m.put_pct("overlay.trial_build_ms_p50", &trial_build, 0.5, "ms");
    m.put_pct("overlay.trial_build_ms_p99", &trial_build, 0.99, "ms");
    let ring = durations_ms(spans, "ring.build");
    if !ring.is_empty() {
        m.put_pct("overlay.ring_build_ms_p50", &ring, 0.5, "ms");
        m.put_pct("overlay.ring_build_ms_p99", &ring, 0.99, "ms");
    }
    m.put_pct(
        "attack.execute_ms_p50",
        &durations_ms(spans, "attack.execute"),
        0.5,
        "ms",
    );
    m.put_pct(
        "routing.evaluate_ms_p50",
        &durations_ms(spans, "routing.evaluate"),
        0.5,
        "ms",
    );
    let evaluator_us: Vec<f64> = durations_ms(spans, "analysis.evaluate")
        .iter()
        .map(|ms| ms * 1e3)
        .collect();
    m.put_pct("analysis.evaluator_us_p50", &evaluator_us, 0.5, "us");
    let trials = rep.trials as f64;
    m.put_n(
        "attack.break_in_attempts",
        rep.break_in_attempts as f64 / trials,
        "count",
        rep.trials as usize,
    );
    m.put_n(
        "attack.congested_nodes",
        rep.congested as f64 / trials,
        "count",
        rep.trials as usize,
    );
    m.put_n(
        "routing.hops_per_route",
        rep.hops as f64 / rep.routes as f64,
        "count",
        rep.routes as usize,
    );
    m.put_n(
        "routing.delivered_frac",
        rep.delivered_total as f64 / rep.routes as f64,
        "frac",
        rep.routes as usize,
    );
}

/// Median time of a direct `analyze_outcome` + `analyze_doc` call,
/// cycling through `cases`.
pub fn analyze_layer(cases: &[(Scenario, AttackConfig)], samples: usize, m: &mut Metrics) {
    let us: Vec<f64> = (0..samples)
        .map(|i| {
            let (scenario, attack) = &cases[i % cases.len()];
            let t = Instant::now();
            let outcome =
                analyze_outcome(scenario, attack, PathEvaluator::Binomial).expect("valid analysis");
            std::hint::black_box(analyze_doc(
                scenario,
                attack,
                PathEvaluator::Binomial,
                &outcome,
            ));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    m.put_pct("analysis.analyze_doc_us_p50", &us, 0.5, "us");
}

/// Runs `op` until `window` seconds have passed (at least `min` times),
/// returning the per-call latencies in seconds.
fn repeat_for<T>(
    window: f64,
    min: usize,
    mut op: impl FnMut() -> T,
    mut check: impl FnMut(T),
) -> Vec<f64> {
    let start = Instant::now();
    let mut lat = Vec::new();
    while lat.len() < min || secs_since(start) < window {
        let t = Instant::now();
        let out = op();
        lat.push(secs_since(t));
        check(out);
    }
    lat
}

/// Latency samples needed for a median with ten samples beyond it.
const MIN_CALLS: usize = 20;

/// `paper-chord` / `paper-direct`: repeated cold `run_parallel` calls
/// at the paper configuration.
pub fn paper(
    workload: &str,
    transport: &str,
    input_seed: u64,
    seconds: f64,
    traced: bool,
) -> Outcome {
    let spec = paper_spec(transport, input_seed);
    let point = Point::from_spec(&spec).expect("paper spec is valid");
    let config = spec.sim_config().expect("paper spec is valid");
    assert_same_work(std::slice::from_ref(&point), std::slice::from_ref(&config));
    let expect = expected::lookup(workload, input_seed).expect("recorded paper values");
    let mut out = Outcome::default();

    let setup: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let t = Instant::now();
            Simulation::new(config.clone().trials(SETUP_TRIALS)).run_parallel(THREADS);
            secs_since(t)
        })
        .collect();
    out.metrics
        .put_n("setup_s", median(&setup), "s", setup.len());

    let sim = Simulation::new(config.clone());
    let window = if traced { seconds / 2.0 } else { seconds };
    let mut check = |r: SimulationResult| out.check(&expect, std::slice::from_ref(&r));
    let lat = repeat_for(window, MIN_CALLS, || sim.run_parallel(THREADS), &mut check);
    let trials = point.trials as f64;
    out.metrics
        .put_n("trials_per_s", trials / median(&lat), "1/s", lat.len());
    out.metrics
        .put_n("requests_per_s", 1.0 / median(&lat), "1/s", lat.len());
    let lat_ms: Vec<f64> = lat.iter().map(|s| s * 1e3).collect();
    out.metrics.put_pct("simulate_ms_p50", &lat_ms, 0.5, "ms");
    out.metrics.put_pct("simulate_ms_p90", &lat_ms, 0.9, "ms");
    if !traced {
        return out;
    }

    // Instrumented pass: the same calls with the program's telemetry
    // and request tracing on, one benchmark span per call.
    let epoch = Instant::now();
    let mut log = SpanLog::new(epoch, u64::from(u16::MAX));
    telemetry::set_enabled(true);
    sos_observe::trace::set_enabled(true);
    let before = telemetry::snapshot();
    let t0 = Instant::now();
    let mut lat_traced = Vec::with_capacity(lat.len());
    for i in 0..lat.len() {
        let span = log.begin("simulate.call", 0, i as u64 + 1);
        let r = sim.run_parallel(THREADS);
        lat_traced.push(log.end(span) as f64 / 1e9);
        out.check(&expect, std::slice::from_ref(&r));
    }
    let wall = secs_since(t0);
    let after = telemetry::snapshot();
    telemetry::set_enabled(false);
    sos_observe::trace::set_enabled(false);
    telemetry_layers(&before, &after, wall, &mut out.metrics);
    out.metrics.put_n(
        "trace.overhead_frac",
        median(&lat_traced) / median(&lat) - 1.0,
        "frac",
        lat.len(),
    );

    let rounds = P99_SAMPLES.div_ceil(point.trials);
    let rep = replay(std::slice::from_ref(&point), rounds, THREADS, epoch);
    for delivered in &rep.delivered {
        out.check_delivered(&expect[0], *delivered);
    }
    replay_layers(&rep, &mut out.metrics);
    analyze_layer(
        &[(point.scenario.clone(), point.attack)],
        40,
        &mut out.metrics,
    );
    out.spans = log.into_spans();
    out.spans.extend(rep.spans);
    out
}

/// Grid passes needed for a median with ten samples beyond it.
const MIN_PASSES: usize = 5;

/// `figure-grid`: the 42-point profiling grid at figure sizing through
/// one cache-cold `SweepExecutor` per pass.
pub fn figure_grid(input_seed: u64, seconds: f64, traced: bool) -> Outcome {
    let configs = grid_configs(input_seed);
    let points = grid_points(input_seed);
    assert_same_work(&points, &configs);
    let expect = expected::lookup("figure-grid", input_seed).expect("recorded grid values");
    let mut out = Outcome::default();

    let setup: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let t = Instant::now();
            let mut exec = SweepExecutor::with_threads(THREADS);
            exec.run_one(&configs[0].clone().trials(SETUP_TRIALS));
            secs_since(t)
        })
        .collect();
    out.metrics
        .put_n("setup_s", median(&setup), "s", setup.len());

    let window = if traced { seconds / 2.0 } else { seconds };
    // One cache-cold pass: a fresh executor (and private pool) each
    // time, so neither the result cache nor the build memo carries over.
    let cold_pass = || {
        let mut exec = SweepExecutor::with_threads(THREADS);
        let results = exec.run(&configs);
        (results, exec.stats())
    };
    let mut stats = sos_sim::SweepStats::default();
    let lat = repeat_for(window, MIN_PASSES, cold_pass, |(results, pass_stats)| {
        out.check(&expect, &results);
        stats = pass_stats;
    });
    let trials: u64 = points.iter().map(|p| p.trials).sum();
    out.metrics.put_n(
        "trials_per_s",
        trials as f64 / median(&lat),
        "1/s",
        lat.len(),
    );
    out.metrics.put_n(
        "requests_per_s",
        configs.len() as f64 / median(&lat),
        "1/s",
        lat.len(),
    );
    out.metrics
        .put_n("grid_s_p50", median(&lat), "s", lat.len());
    out.metrics.put(
        "sweep.points_executed",
        stats.points_executed as f64,
        "count",
    );
    out.metrics
        .put("sweep.dedup_hits", stats.dedup_hits as f64, "count");
    if !traced {
        return out;
    }

    let epoch = Instant::now();
    let mut log = SpanLog::new(epoch, u64::from(u16::MAX));
    telemetry::set_enabled(true);
    sos_observe::trace::set_enabled(true);
    let before = telemetry::snapshot();
    let t0 = Instant::now();
    let mut lat_traced = Vec::with_capacity(lat.len());
    for i in 0..lat.len() {
        let span = log.begin("grid.pass", 0, i as u64 + 1);
        let (results, _) = cold_pass();
        lat_traced.push(log.end(span) as f64 / 1e9);
        out.check(&expect, &results);
    }
    let wall = secs_since(t0);
    let after = telemetry::snapshot();
    telemetry::set_enabled(false);
    sos_observe::trace::set_enabled(false);
    telemetry_layers(&before, &after, wall, &mut out.metrics);
    out.metrics.put_n(
        "trace.overhead_frac",
        median(&lat_traced) / median(&lat) - 1.0,
        "frac",
        lat.len(),
    );

    // Per-point cost: `run_one` per point on a fresh executor (repeated
    // fingerprints are answered from the executor's memory).
    let mut point_ms = Vec::new();
    for pass in 0..POINT_PASSES {
        let mut exec = SweepExecutor::with_threads(THREADS);
        let pass_span = log.begin("grid.points", 0, (lat.len() + pass) as u64 + 1);
        let parent = log.id(pass_span);
        let mut results = Vec::with_capacity(configs.len());
        for config in &configs {
            let span = log.begin("sweep.point", parent, log.id(pass_span));
            results.push(exec.run_one(config));
            point_ms.push(log.end(span) as f64 / 1e6);
        }
        log.end(pass_span);
        out.check(&expect, &results);
    }
    out.metrics
        .put_pct("sweep.point_ms_p50", &point_ms, 0.5, "ms");
    out.metrics
        .put_pct("sweep.point_ms_p90", &point_ms, 0.9, "ms");
    out.metrics
        .put_pct("sweep.point_ms_p99", &point_ms, 0.99, "ms");

    // Replay each distinct point once (repeats are deduplicated by the
    // executor, so they are not work the grid does twice).
    let mut seen = HashMap::new();
    let mut unique = Vec::new();
    let mut unique_expect = Vec::new();
    for (i, (p, c)) in points.iter().zip(&configs).enumerate() {
        if seen.insert(config_fingerprint(c), i).is_none() {
            unique.push(p.clone());
            unique_expect.push(expect[i].clone());
        }
    }
    let rep = replay(&unique, 1, THREADS, epoch);
    for (e, delivered) in unique_expect.iter().zip(&rep.delivered) {
        out.check_delivered(e, *delivered);
    }
    replay_layers(&rep, &mut out.metrics);
    let cases: Vec<(Scenario, AttackConfig)> = unique
        .iter()
        .take(6)
        .map(|p| (p.scenario.clone(), p.attack))
        .collect();
    analyze_layer(&cases, 60, &mut out.metrics);
    out.spans = log.into_spans();
    out.spans.extend(rep.spans);
    out
}

/// Regenerates the recorded output values (single-threaded, so the
/// two-thread runs also check thread-count independence).
pub fn record() -> String {
    let mut lines = Vec::new();
    for seed in 0..INPUT_SEEDS {
        for (workload, transport) in [("paper-chord", "chord"), ("paper-direct", "direct")] {
            let config = paper_spec(transport, seed)
                .sim_config()
                .expect("paper spec is valid");
            let result = Simulation::new(config).run_parallel(1);
            lines.push(expected::line(workload, seed, &[result]));
        }
        let results = SweepExecutor::with_threads(1).run(&grid_configs(seed));
        lines.push(expected::line("figure-grid", seed, &results));
        eprintln!("recorded input seed {seed}");
    }
    lines.sort();
    lines.join("\n") + "\n"
}

impl Outcome {
    /// Counts one checked operation; a result differing from the
    /// record counts as failed.
    pub fn check(&mut self, expect: &[Expect], results: &[SimulationResult]) {
        self.attempted += 1;
        if expected::mismatches(expect, results) > 0 {
            self.failed += 1;
        }
    }

    /// Counts one replayed point; delivered routes must equal the record.
    pub fn check_delivered(&mut self, expect: &Expect, delivered: u64) {
        self.attempted += 1;
        if expect.successes() != delivered {
            self.failed += 1;
            self.notes.push(format!(
                "replay delivered {delivered}, recorded {}",
                expect.successes()
            ));
        }
    }
}
