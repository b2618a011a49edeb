//! Machine-readable perf baseline for the zero-rebuild trial engine.
//!
//! Measures identical Monte Carlo workloads two ways:
//!
//! * **before** — the allocating reference path: a fresh
//!   [`Overlay::build`] and exhaustive [`ChordRing::build_reference`]
//!   per trial, plus a fresh `RouteScratch` and a cloned result per
//!   route (the engine as it stood before the scratch-reuse rework);
//! * **after** — the production engine ([`Simulation::run`]), whose
//!   per-worker scratch rebuilds the overlay/ring/route buffers in
//!   place.
//!
//! Both sides replay the same per-trial seed schedule, so their
//! delivery counts must match exactly — asserted on every workload;
//! the comparison measures allocation strategy, never different work.
//!
//! A fifth workload measures the cross-scenario *sweep executor*: an
//! ablation-shaped grid of many small simulation points run once as a
//! loop of per-point `run_parallel` calls (the pre-executor shape: one
//! thread-pool spawn/join and one cold scratch per point) and once
//! through a cache-cold [`sos_sim::SweepExecutor`] at the same thread
//! count. Per-point delivery counts are asserted equal.
//!
//! A sixth workload measures the engine's per-worker *build memo*: the
//! same sweep grid with build reuse disabled (before: every trial pays
//! a fresh `build_into`) and enabled (after: structurally identical
//! points at equal trial indices reuse the memoized overlay/ring).
//! Per-point counts are asserted equal — the dedicated RNG sub-streams
//! make skipping the build draws observationally pure.
//!
//! A seventh workload measures the *live telemetry plane*: the same
//! sweep grid with `sos_observe::telemetry` off (before) and on
//! (after). Per-point counts are asserted equal — telemetry observes
//! but never steers — and its speedup (≈1.0 when the relaxed-atomic
//! slots are cheap) rides the same regression gate, so a future change
//! that makes telemetry expensive fails CI. The report also embeds the
//! snapshot's per-phase profile summary under `"profile"`.
//!
//! An eighth workload measures the *batched SoA route kernel*: a
//! routing-heavy Chord run at batch width 1 (the per-lane scalar
//! oracle) and at the production width 64 (layer-synchronous lanes
//! sharing the per-trial Chord hop memo). Delivery counts are asserted
//! equal — lane seeds come from per-route `ROUTE` sub-streams, so
//! batch width is observationally pure.
//!
//! A ninth workload measures the *request-tracing plane*: the same
//! sweep grid with `sos_observe::trace` (the flight recorder) off
//! (before) and on (after), telemetry enabled on both sides. Per-point
//! counts are asserted equal — spans read the monotonic clock, never
//! the simulation RNG — and the speedup rides the regression gate; CI
//! additionally asserts the recorder costs at most 2% on this
//! workload.
//!
//! Output: `BENCH_trials.json` (or `--out PATH`) with trials/sec,
//! ns/trial and peak RSS per workload. `--check PATH` additionally
//! compares the freshly measured speedups against a committed baseline
//! and exits non-zero when any workload's speedup (after/before — a
//! machine-portable ratio, unlike raw trials/sec) regressed by more
//! than 25%.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sos_attack::OneBurstAttacker;
use sos_bench::ablations::AblationOptions;
use sos_core::{
    AttackBudget, AttackConfig, MappingDegree, PathEvaluator, Scenario, SystemParams,
};
use sos_faults::RetryPolicy;
use sos_observe::{telemetry, trace};
use sos_overlay::{ChordRing, NodeId, Overlay, Transport};
use sos_sim::engine::{Simulation, SimulationConfig, TransportKind};
use sos_sim::routing::{route_message, RouteScratch, RoutingPolicy};
use sos_sim::{route_lane_seed, stream, trial_stream_seed, ExecOptions, SweepExecutor};
use std::time::Instant;

const ROUTES_PER_TRIAL: u64 = 50;
const SEED: u64 = 13;

/// Budget scaled to the overlay: 10% of the population congested plus
/// 100 break-in attempts, so routing does comparable work per size.
fn budget(overlay_nodes: u64) -> AttackBudget {
    AttackBudget::new(100, overlay_nodes / 10)
}

struct Workload {
    name: &'static str,
    overlay_nodes: u64,
    transport: TransportKind,
    trials: u64,
}

const WORKLOADS: &[Workload] = &[
    Workload { name: "direct-1k", overlay_nodes: 1_000, transport: TransportKind::Direct, trials: 60 },
    Workload { name: "direct-10k", overlay_nodes: 10_000, transport: TransportKind::Direct, trials: 12 },
    Workload { name: "chord-1k", overlay_nodes: 1_000, transport: TransportKind::Chord, trials: 60 },
    Workload { name: "chord-10k", overlay_nodes: 10_000, transport: TransportKind::Chord, trials: 12 },
];

fn scenario(big_n: u64) -> Scenario {
    Scenario::builder()
        .system(SystemParams::new(big_n, 100, 0.5).expect("valid"))
        .layers(3)
        .mapping(MappingDegree::OneTo(5))
        .filters(10)
        .build()
        .expect("valid")
}

/// The pre-rework trial loop: every structure built fresh, the ring
/// via the exhaustive reference construction. Returns delivered routes.
fn reference_run(
    scenario: &Scenario,
    transport: TransportKind,
    trials: u64,
    budget: AttackBudget,
) -> u64 {
    let mut successes = 0u64;
    for trial in 0..trials {
        // The engine's per-trial seed schedule, via the same derivation
        // it uses — diverging here fails the before/after assertion.
        let mut overlay_rng = StdRng::seed_from_u64(trial_stream_seed(
            SEED,
            stream::OVERLAY_BUILD,
            trial,
        ));
        let mut ring_rng =
            StdRng::seed_from_u64(trial_stream_seed(SEED, stream::RING_BUILD, trial));
        let mut rng = StdRng::seed_from_u64(trial_stream_seed(SEED, stream::ATTACK, trial));
        let mut overlay = Overlay::build(scenario, &mut overlay_rng);
        let mut transport = match transport {
            TransportKind::Direct => Transport::Direct,
            TransportKind::Chord => {
                let members: Vec<NodeId> = overlay.overlay_ids().collect();
                Transport::Chord(ChordRing::build_reference(&mut ring_rng, &members))
            }
        };
        OneBurstAttacker::new(budget).execute(&mut overlay, &mut rng);
        transport.sync_damage(&overlay);
        // The engine prices both analytical evaluators per trial; the
        // reference does the same so only allocation strategy differs.
        let state = overlay.compromise_state();
        let topo = scenario.topology();
        std::hint::black_box(
            PathEvaluator::Hypergeometric
                .success_probability(topo, &state)
                .value(),
        );
        std::hint::black_box(
            PathEvaluator::Binomial
                .success_probability(topo, &state)
                .value(),
        );
        for route in 0..ROUTES_PER_TRIAL {
            // Each route draws from its own `ROUTE` sub-stream, the
            // same lane-seed derivation the batched kernel uses.
            let mut route_rng = StdRng::seed_from_u64(route_lane_seed(SEED, trial, route));
            let result = route_message(
                &overlay,
                &transport,
                RoutingPolicy::default(),
                None,
                &RetryPolicy::none(),
                None,
                &mut route_rng,
                &mut RouteScratch::new(),
            )
            .clone();
            if result.delivered {
                successes += 1;
            }
        }
    }
    successes
}

fn engine_run(
    scenario: &Scenario,
    transport: TransportKind,
    trials: u64,
    budget: AttackBudget,
) -> u64 {
    let cfg = SimulationConfig::new(scenario.clone(), AttackConfig::OneBurst { budget })
    .trials(trials)
    .routes_per_trial(ROUTES_PER_TRIAL)
    .seed(SEED)
    .transport(transport);
    Simulation::new(cfg).run().successes
}

/// The sweep workload: the shared ablation-shaped profiling grid
/// ([`sos_bench::ablations::profile_grid`]) at bench sizing — the same
/// 42 points `sos profile --workload grid` measures, so the profiled
/// shape is the benchmarked shape.
fn sweep_configs() -> Vec<SimulationConfig> {
    sos_bench::ablations::profile_grid(AblationOptions {
        trials: 2,
        routes_per_trial: 20,
        seed: SEED,
    })
}

/// The pre-executor sweep shape: one `run_parallel` call per point,
/// each paying its own thread spawn/join and cold scratch.
fn sweep_reference_run(configs: &[SimulationConfig], threads: usize) -> Vec<u64> {
    configs
        .iter()
        .map(|cfg| Simulation::new(cfg.clone()).run_parallel(threads).successes)
        .collect()
}

/// Peak resident set (VmHWM) in bytes, when the platform exposes it.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Times `f` and returns, alongside the result and wall seconds, the
/// per-phase attributed nanoseconds and build-memo reuse count for
/// exactly that span. The telemetry counters are process-cumulative,
/// so a snapshot delta isolates one workload; the caller keeps
/// telemetry enabled around both sides of a comparison so neither side
/// gets a free ride.
fn timed_with_phases<T>(f: impl FnOnce() -> T) -> (T, f64, serde_json::Value, u64) {
    let t0 = telemetry::snapshot();
    let (out, secs) = timed(f);
    let t1 = telemetry::snapshot();
    let phases: Vec<(String, serde_json::Value)> = t0
        .phases
        .iter()
        .zip(&t1.phases)
        .map(|(before, after)| {
            (
                format!("{}_ns", after.phase.label().replace('-', "_")),
                serde_json::Value::U64(after.total_ns - before.total_ns),
            )
        })
        .collect();
    (
        out,
        secs,
        serde_json::Value::Map(phases),
        t1.build_reused - t0.build_reused,
    )
}

fn side_json(seconds: f64, trials: u64) -> serde_json::Value {
    serde_json::json!({
        "seconds": seconds,
        "trials_per_sec": trials as f64 / seconds,
        "ns_per_trial": seconds * 1e9 / trials as f64,
    })
}

fn check_against(path: &str, fresh: &serde_json::Value) -> Result<(), String> {
    let committed = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read baseline {path}: {e}"))?;
    let committed: serde_json::Value =
        serde_json::from_str(&committed).map_err(|e| format!("bad baseline JSON: {e:?}"))?;
    let find = |v: &serde_json::Value, name: &str| -> Option<f64> {
        v["workloads"]
            .as_array()?
            .iter()
            .find(|w| w["name"].as_str() == Some(name))
            .and_then(|w| w["speedup"].as_f64())
    };
    let names: Vec<&str> = fresh["workloads"]
        .as_array()
        .map(|rows| rows.iter().filter_map(|w| w["name"].as_str()).collect())
        .unwrap_or_default();
    let mut failures = Vec::new();
    for name in names {
        let (Some(old), Some(new)) = (find(&committed, name), find(fresh, name)) else {
            continue;
        };
        // Speedup (after/before on the same machine, same run) is the
        // portable metric; raw trials/sec tracks the host CPU.
        if new < 0.75 * old {
            failures.push(format!(
                "{name}: speedup {new:.2}x vs committed {old:.2}x (>25% regression)"
            ));
        } else {
            println!("check {name}: speedup {new:.2}x vs committed {old:.2}x — ok");
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = "BENCH_trials.json".to_string();
    let mut check_path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                out_path = args.get(i + 1).expect("--out needs a path").clone();
                i += 2;
            }
            "--check" => {
                check_path = Some(args.get(i + 1).expect("--check needs a path").clone());
                i += 2;
            }
            other => {
                eprintln!("unknown flag {other} (supported: --out PATH, --check PATH)");
                std::process::exit(2);
            }
        }
    }

    // Phases are recorded for every timed run below (both sides of
    // each comparison, so neither gets a free ride); the dedicated
    // telemetry-overhead workload toggles the plane itself.
    telemetry::set_enabled(true);

    let mut rows = Vec::new();
    for w in WORKLOADS {
        let s = scenario(w.overlay_nodes);
        let b = budget(w.overlay_nodes);
        // Warm both paths (page cache, allocator) outside the timers;
        // the engine is then timed *first* so the reference gets the
        // warmer allocator — any bias is against the reported speedup.
        engine_run(&s, w.transport, 2, b);
        reference_run(&s, w.transport, 2, b);
        let (after_successes, after_secs, phases, build_reused) =
            timed_with_phases(|| engine_run(&s, w.transport, w.trials, b));
        let (before_successes, before_secs) =
            timed(|| reference_run(&s, w.transport, w.trials, b));
        assert_eq!(
            before_successes, after_successes,
            "{}: reference and engine runs diverged — not measuring the same work",
            w.name
        );
        let speedup = before_secs / after_secs;
        println!(
            "{:11} before {:8.1} trials/s  after {:8.1} trials/s  speedup {:.2}x",
            w.name,
            w.trials as f64 / before_secs,
            w.trials as f64 / after_secs,
            speedup
        );
        rows.push(serde_json::json!({
            "name": w.name,
            "transport": match w.transport {
                TransportKind::Direct => "direct",
                TransportKind::Chord => "chord",
            },
            "overlay_nodes": w.overlay_nodes,
            "trials": w.trials,
            "routes_per_trial": ROUTES_PER_TRIAL,
            "threads": 1,
            "delivered": after_successes,
            "before": side_json(before_secs, w.trials),
            "after": side_json(after_secs, w.trials),
            "speedup": speedup,
            "phases": phases,
            "build_reused": build_reused,
        }));
    }

    // Routing-batch workload: a routing-heavy Chord run through the
    // engine at batch width 1 (every lane routed by the scalar
    // `route_message` oracle) and at the production width 64
    // (layer-synchronous SoA lanes sharing the per-trial Chord hop
    // memo). Per-route `ROUTE` sub-streams make the width
    // observationally pure, so delivery counts are asserted equal.
    {
        let trials = 16u64;
        let routes = 400u64;
        let cfg = SimulationConfig::new(
            scenario(2_000),
            AttackConfig::OneBurst { budget: budget(2_000) },
        )
        .trials(trials)
        .routes_per_trial(routes)
        .seed(SEED)
        .transport(TransportKind::Chord);
        let run_at = |route_width: usize| {
            let exec = ExecOptions { route_width, ..ExecOptions::default() };
            let sim = Simulation::new(cfg.clone()).with_exec(exec);
            move || sim.run().successes
        };
        // Warm both widths outside the timers; width 64 (after) is
        // timed first so the scalar width inherits the warmer
        // allocator — any bias is against the reported speedup.
        run_at(1)();
        run_at(64)();
        let (after_successes, after_secs, phases, _) = timed_with_phases(run_at(64));
        let (before_successes, before_secs) = timed(run_at(1));
        assert_eq!(
            before_successes, after_successes,
            "routing-batch: width 1 and width 64 diverged — batch width must be \
             observationally pure"
        );
        let speedup = before_secs / after_secs;
        println!(
            "{:11} before {:8.1} trials/s  after {:8.1} trials/s  speedup {:.2}x \
             (batch width 1 vs 64)",
            "routing-batch",
            trials as f64 / before_secs,
            trials as f64 / after_secs,
            speedup,
        );
        rows.push(serde_json::json!({
            "name": "routing-batch",
            "transport": "chord",
            "overlay_nodes": 2_000u64,
            "trials": trials,
            "routes_per_trial": routes,
            "threads": 1,
            "delivered": after_successes,
            "before": side_json(before_secs, trials),
            "after": side_json(after_secs, trials),
            "speedup": speedup,
            "phases": phases,
        }));
    }

    // Sweep-executor workload: many small points, before = one
    // run_parallel call per point, after = one cache-cold executor run
    // at the same thread count.
    {
        let threads = sos_sim::num_threads();
        let configs = sweep_configs();
        let total_trials: u64 = configs.iter().map(|c| c.configured_trials()).sum();
        // Warm both paths outside the timers; the executor (after) is
        // timed first so the reference inherits the warmer allocator —
        // any bias is against the reported speedup. Warm-up uses its
        // own executor so the timed one starts cache-cold.
        sweep_reference_run(&configs[..2], threads);
        SweepExecutor::with_threads(threads).run(&configs[..2]);
        let (after_successes, after_secs, phases, build_reused) = timed_with_phases(|| {
            let mut exec = SweepExecutor::with_threads(threads);
            let results = exec.run(&configs);
            let stats = exec.stats();
            (
                results.iter().map(|r| r.successes).collect::<Vec<u64>>(),
                stats,
            )
        });
        let (before_successes, before_secs) =
            timed(|| sweep_reference_run(&configs, threads));
        let (after_successes, stats) = after_successes;
        assert_eq!(
            before_successes, after_successes,
            "sweep-ablation: per-point counts diverged — executor is not \
             running the same points"
        );
        let speedup = before_secs / after_secs;
        println!(
            "{:11} before {:8.1} trials/s  after {:8.1} trials/s  speedup {:.2}x \
             ({} points, {} executed, {} dedup hits, {} builds reused)",
            "sweep-ablation",
            total_trials as f64 / before_secs,
            total_trials as f64 / after_secs,
            speedup,
            stats.points,
            stats.points_executed,
            stats.dedup_hits,
            build_reused,
        );
        rows.push(serde_json::json!({
            "name": "sweep-ablation",
            "points": stats.points,
            "points_executed": stats.points_executed,
            "dedup_hits": stats.dedup_hits,
            "trials": total_trials,
            "threads": threads,
            "before": side_json(before_secs, total_trials),
            "after": side_json(after_secs, total_trials),
            "speedup": speedup,
            "phases": phases,
            "build_reused": build_reused,
        }));
    }

    // Build-reuse workload: the same ablation grid through the sweep
    // executor with the engine's per-worker build memo disabled
    // (before: every trial pays a fresh `build_into`) and enabled
    // (after: structurally identical points at equal trial indices hit
    // the memo). The dedicated RNG sub-streams make the memo
    // observationally pure, so per-point counts are asserted equal.
    {
        let threads = sos_sim::num_threads();
        let configs = sweep_configs();
        let total_trials: u64 = configs.iter().map(|c| c.configured_trials()).sum();
        let run_with = |build_reuse: bool| {
            let configs = &configs;
            move || {
                let exec = ExecOptions { build_reuse, ..ExecOptions::default() };
                SweepExecutor::with_threads(threads)
                    .with_exec(exec)
                    .run(configs)
                    .iter()
                    .map(|r| r.successes)
                    .collect::<Vec<u64>>()
            }
        };
        // Warm both paths outside the timers; reuse-on (after) is timed
        // first so the reference inherits the warmer allocator.
        run_with(false)();
        run_with(true)();
        let (on_successes, on_secs, phases, build_reused) = timed_with_phases(run_with(true));
        let (off_successes, off_secs) = timed(run_with(false));
        assert_eq!(
            off_successes, on_successes,
            "build-reuse: per-point counts diverged — the build memo must be \
             observationally pure"
        );
        let speedup = off_secs / on_secs;
        println!(
            "{:11} before {:8.1} trials/s  after {:8.1} trials/s  speedup {:.2}x \
             ({} of {} trials reused a build)",
            "build-reuse",
            total_trials as f64 / off_secs,
            total_trials as f64 / on_secs,
            speedup,
            build_reused,
            total_trials,
        );
        rows.push(serde_json::json!({
            "name": "build-reuse",
            "trials": total_trials,
            "threads": threads,
            "before": side_json(off_secs, total_trials),
            "after": side_json(on_secs, total_trials),
            "speedup": speedup,
            "phases": phases,
            "build_reused": build_reused,
        }));
    }

    // Telemetry-overhead workload: the same sweep grid with the live
    // telemetry plane off (before) and on (after). Per-point counts
    // must match exactly — telemetry observes but never steers — and
    // the speedup (≈1.0 when the relaxed-atomic slots are cheap) rides
    // the same >25% regression gate as every other workload.
    let profile_snapshot;
    {
        let threads = sos_sim::num_threads();
        let configs = sweep_configs();
        let total_trials: u64 = configs.iter().map(|c| c.configured_trials()).sum();
        let run_once = || {
            let mut exec = SweepExecutor::with_threads(threads);
            exec.run(&configs)
                .iter()
                .map(|r| r.successes)
                .collect::<Vec<u64>>()
        };
        // Warm both paths outside the timers.
        telemetry::set_enabled(false);
        run_once();
        telemetry::set_enabled(true);
        run_once();
        let (on_successes, on_secs, phases, _) = timed_with_phases(run_once);
        profile_snapshot = telemetry::snapshot();
        telemetry::set_enabled(false);
        let (off_successes, off_secs) = timed(run_once);
        assert_eq!(
            off_successes, on_successes,
            "telemetry-overhead: counts diverged — telemetry must never steer results"
        );
        let speedup = off_secs / on_secs;
        println!(
            "{:11} before {:8.1} trials/s  after {:8.1} trials/s  speedup {:.2}x \
             (telemetry off vs on)",
            "telemetry",
            total_trials as f64 / off_secs,
            total_trials as f64 / on_secs,
            speedup,
        );
        rows.push(serde_json::json!({
            "name": "telemetry",
            "trials": total_trials,
            "threads": threads,
            "before": side_json(off_secs, total_trials),
            "after": side_json(on_secs, total_trials),
            "speedup": speedup,
            "phases": phases,
        }));
    }
    // Trace-overhead workload: the same sweep grid with the flight
    // recorder off (before) and on (after); telemetry stays on for
    // both sides, so this isolates the span plane itself (per-point
    // cache-probe/sweep-point spans plus per-batch pool spans). Spans
    // read the monotonic clock and a process-global id counter — never
    // the simulation RNG — so per-point counts are asserted equal.
    {
        let threads = sos_sim::num_threads();
        let configs = sweep_configs();
        let total_trials: u64 = configs.iter().map(|c| c.configured_trials()).sum();
        let run_once = || {
            let mut exec = SweepExecutor::with_threads(threads);
            exec.run(&configs)
                .iter()
                .map(|r| r.successes)
                .collect::<Vec<u64>>()
        };
        // Warm both paths outside the timers; trace-on (after) is timed
        // first so the untraced side inherits the warmer allocator.
        telemetry::set_enabled(true);
        trace::set_enabled(false);
        run_once();
        trace::set_enabled(true);
        run_once();
        let (on_successes, on_secs, phases, _) = timed_with_phases(run_once);
        let spans_recorded = trace::recorder().recorded();
        trace::set_enabled(false);
        let (off_successes, off_secs) = timed(run_once);
        assert_eq!(
            off_successes, on_successes,
            "trace-overhead: counts diverged — tracing must never steer results"
        );
        let speedup = off_secs / on_secs;
        println!(
            "{:11} before {:8.1} trials/s  after {:8.1} trials/s  speedup {:.2}x \
             (flight recorder off vs on, {} spans recorded)",
            "trace",
            total_trials as f64 / off_secs,
            total_trials as f64 / on_secs,
            speedup,
            spans_recorded,
        );
        rows.push(serde_json::json!({
            "name": "trace",
            "trials": total_trials,
            "threads": threads,
            "spans_recorded": spans_recorded,
            "before": side_json(off_secs, total_trials),
            "after": side_json(on_secs, total_trials),
            "speedup": speedup,
            "phases": phases,
        }));
    }
    let profile: serde_json::Value = serde_json::from_str(&profile_snapshot.to_json())
        .expect("telemetry snapshot JSON parses");

    let report = serde_json::json!({
        "suite": "zero-rebuild trial engine baseline",
        "generated_by": "bench_baseline",
        "seed": SEED,
        "attack": "one-burst nt=100 nc=N/10",
        "peak_rss_bytes": peak_rss_bytes(),
        "workloads": rows,
        "profile": profile,
    });
    let pretty = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out_path, pretty)
        .unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    println!("baseline written to {out_path}");

    if let Some(path) = check_path {
        match check_against(&path, &report) {
            Ok(()) => println!("regression check against {path}: ok"),
            Err(msg) => {
                eprintln!("regression check against {path} FAILED: {msg}");
                std::process::exit(1);
            }
        }
    }
}
