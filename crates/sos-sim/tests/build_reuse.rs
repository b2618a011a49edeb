//! The engine's per-worker build memo must be observationally pure:
//! a sweep's serialized results are byte-identical with reuse on and
//! off, at every thread count. The memo only ever skips the dedicated
//! build RNG sub-streams, so downstream attack/routing draws cannot
//! shift.

use sos_core::{AttackBudget, AttackConfig, MappingDegree, Scenario, SystemParams};
use sos_sim::engine::{SimulationConfig, TransportKind};
use sos_sim::{ExecOptions, SweepExecutor};

fn scenario(mapping_k: u64) -> Scenario {
    Scenario::builder()
        .system(SystemParams::new(400, 48, 0.5).unwrap())
        .layers(3)
        .mapping(MappingDegree::OneTo(mapping_k))
        .filters(6)
        .build()
        .unwrap()
}

/// A grid that exercises both memo tiers: attack-only transitions over
/// a shared structure (exact hits) and a mapping-degree change over the
/// same membership (delta rebuilds), on both transports.
fn grid() -> Vec<SimulationConfig> {
    let mut configs = Vec::new();
    for transport in [TransportKind::Direct, TransportKind::Chord] {
        for nc in [40u64, 80, 120] {
            configs.push(
                SimulationConfig::new(
                    scenario(2),
                    AttackConfig::OneBurst { budget: AttackBudget::new(10, nc) },
                )
                .trials(6)
                .routes_per_trial(12)
                .seed(7)
                .transport(transport),
            );
        }
        configs.push(
            SimulationConfig::new(
                scenario(4),
                AttackConfig::OneBurst { budget: AttackBudget::new(10, 80) },
            )
            .trials(6)
            .routes_per_trial(12)
            .seed(7)
            .transport(transport),
        );
    }
    configs
}

#[test]
fn sweep_results_identical_with_reuse_on_and_off_at_any_thread_count() {
    let configs = grid();
    let mut reference: Option<String> = None;
    let reuse_off = ExecOptions {
        build_reuse: false,
        ..ExecOptions::default()
    };
    for threads in [1usize, 2, 4, 8] {
        let on = SweepExecutor::with_threads(threads).run(&configs);
        let off = SweepExecutor::with_threads(threads)
            .with_exec(reuse_off)
            .run(&configs);
        let on_json = serde_json::to_string(&on).unwrap();
        let off_json = serde_json::to_string(&off).unwrap();
        assert_eq!(
            on_json, off_json,
            "build memo changed sweep results at {threads} threads"
        );
        // And the whole family agrees across thread counts.
        match &reference {
            None => reference = Some(on_json),
            Some(expected) => assert_eq!(
                expected, &on_json,
                "sweep results differ between thread counts ({threads})"
            ),
        }
    }
}
