//! One trial driver, one reduction: `run`, `run_parallel` and
//! `run_traced` (with a disabled or a capturing recorder) return the
//! same bytes for every config, at every thread count, route-kernel
//! width and build-reuse setting.

use sos_core::{
    AttackBudget, AttackConfig, MappingDegree, Scenario, SuccessiveParams, SystemParams,
};
use sos_faults::{FaultConfig, RetryPolicy};
use sos_observe::{MemoryRecorder, NullRecorder};
use sos_sim::{ExecOptions, Simulation, SimulationConfig, SimulationResult, TransportKind};

fn config(transport: TransportKind, faulted: bool) -> SimulationConfig {
    let scenario = Scenario::builder()
        .system(SystemParams::new(200, 30, 0.5).unwrap())
        .layers(3)
        .mapping(MappingDegree::OneTo(2))
        .filters(6)
        .build()
        .unwrap();
    // 130 trials: the work queue cuts batches of two, so the batch
    // merge tree differs from a single running sum.
    let cfg = SimulationConfig::new(
        scenario,
        AttackConfig::Successive {
            budget: AttackBudget::new(15, 40),
            params: SuccessiveParams::paper_default(),
        },
    )
    .trials(130)
    .routes_per_trial(6)
    .seed(5)
    .transport(transport);
    if faulted {
        cfg.faults(FaultConfig::none().loss(0.2).crash(0.05).seed(7))
            .retry(RetryPolicy::new(3, 1, 64))
    } else {
        cfg
    }
}

fn json(result: &SimulationResult) -> String {
    serde_json::to_string(result).unwrap()
}

/// Asserts every runner, thread count, width and reuse setting
/// serializes `config(transport, faulted)` to the bytes of `run()`.
fn assert_one_reduction(transport: TransportKind, faulted: bool) {
    let cfg = config(transport, faulted);
    let reference = json(&Simulation::new(cfg.clone()).run());
    for route_width in [1usize, 4, 16, 64] {
        for build_reuse in [true, false] {
            let exec = ExecOptions {
                route_width,
                build_reuse,
            };
            let sim = Simulation::new(cfg.clone()).with_exec(exec);
            let case = format!("{transport:?} faults={faulted} {exec:?}");
            assert_eq!(json(&sim.run()), reference, "run, {case}");
            for threads in [1usize, 2, 4, 8] {
                let recorder = MemoryRecorder::new();
                for (runner, result) in [
                    ("run_parallel", sim.run_parallel(threads)),
                    ("run_traced/null", sim.run_traced(threads, &NullRecorder).0),
                    ("run_traced/memory", sim.run_traced(threads, &recorder).0),
                ] {
                    assert_eq!(json(&result), reference, "{runner}({threads}), {case}");
                }
            }
        }
    }
}

#[test]
fn direct_runners_return_the_same_bytes() {
    assert_one_reduction(TransportKind::Direct, false);
}

#[test]
fn direct_faulted_runners_return_the_same_bytes() {
    assert_one_reduction(TransportKind::Direct, true);
}

#[test]
fn chord_runners_return_the_same_bytes() {
    assert_one_reduction(TransportKind::Chord, false);
}

#[test]
fn chord_faulted_runners_return_the_same_bytes() {
    assert_one_reduction(TransportKind::Chord, true);
}
