//! The experiment flag grammar shared by the `sos` CLI and `sosd`:
//! `sos_serve::spec` holds the only parsers for the label and list
//! flags (`--mapping`, `--distribution`, `--evaluator`, `--policy`,
//! `--transport`, `--faults`, `--retry`) and the only builder from a
//! [`SimSpec`] to a `SimulationConfig`. Both front ends surface these
//! messages verbatim, so the tests pin accepted labels, the values they
//! map to, and the error text for rejected input.

use sos::core::{AttackBudget, AttackConfig, MappingDegree, NodeDistribution, PathEvaluator};
use sos::sim::config_fingerprint;
use sos::sim::engine::TransportKind;
use sos::sim::routing::RoutingPolicy;
use sos_faults::{FaultConfig, RetryPolicy};
use sos_serve::spec::{
    parse_distribution, parse_evaluator, parse_faults, parse_mapping, parse_policy,
    parse_retry, parse_transport,
};
use sos_serve::{SimSpec, SpecError};

/// A small spec that builds quickly and differs from the defaults in
/// every routing-side field.
fn small_spec() -> SimSpec {
    SimSpec {
        overlay_nodes: 400,
        sos_nodes: 40,
        nt: 10,
        nc: 40,
        trials: 2,
        routes: 10,
        seed: 5,
        policy: "first-good".into(),
        transport: "chord".into(),
        ..SimSpec::default()
    }
}

fn message(err: SpecError) -> String {
    err.to_string()
}

#[test]
fn mapping_labels_map_to_degrees() {
    assert_eq!(parse_mapping("one-to-one").unwrap(), MappingDegree::ONE_TO_ONE);
    assert_eq!(parse_mapping("one-to-1").unwrap(), MappingDegree::ONE_TO_ONE);
    assert_eq!(parse_mapping("one-to-5").unwrap(), MappingDegree::OneTo(5));
    assert_eq!(parse_mapping("one-to-half").unwrap(), MappingDegree::OneToHalf);
    assert_eq!(parse_mapping("one-to-all").unwrap(), MappingDegree::OneToAll);
}

#[test]
fn mapping_rejects_unknown_label_with_hint() {
    let err = message(parse_mapping("many-to-one").unwrap_err());
    assert!(err.contains("unrecognized mapping `many-to-one`"), "{err}");
    assert!(err.contains("one-to-half"), "the hint lists the labels: {err}");
}

#[test]
fn mapping_rejects_non_numeric_degree() {
    let err = message(parse_mapping("one-to-x").unwrap_err());
    assert_eq!(err, "unrecognized mapping `one-to-x`");
}

#[test]
fn distribution_labels_map_to_shapes() {
    assert!(matches!(parse_distribution("even").unwrap(), NodeDistribution::Even));
    assert!(matches!(parse_distribution("increasing").unwrap(), NodeDistribution::Increasing));
    assert!(matches!(parse_distribution("decreasing").unwrap(), NodeDistribution::Decreasing));
}

#[test]
fn distribution_rejects_unknown_label() {
    let err = message(parse_distribution("uniform").unwrap_err());
    assert_eq!(err, "unrecognized distribution `uniform` (even | increasing | decreasing)");
}

#[test]
fn evaluator_labels_and_rejection() {
    assert_eq!(parse_evaluator("binomial").unwrap(), PathEvaluator::Binomial);
    assert_eq!(parse_evaluator("hypergeometric").unwrap(), PathEvaluator::Hypergeometric);
    let err = message(parse_evaluator("poisson").unwrap_err());
    assert_eq!(err, "unrecognized evaluator `poisson` (binomial | hypergeometric)");
}

#[test]
fn policy_labels_map_to_policies() {
    assert_eq!(parse_policy("random-good").unwrap(), RoutingPolicy::RandomGood);
    assert_eq!(parse_policy("first-good").unwrap(), RoutingPolicy::FirstGood);
    assert_eq!(parse_policy("backtracking").unwrap(), RoutingPolicy::Backtracking);
}

#[test]
fn policy_rejects_unknown_label() {
    assert_eq!(message(parse_policy("greedy").unwrap_err()), "unknown policy `greedy`");
}

#[test]
fn transport_labels_map_to_transports() {
    assert_eq!(parse_transport("direct").unwrap(), TransportKind::Direct);
    assert_eq!(parse_transport("chord").unwrap(), TransportKind::Chord);
}

#[test]
fn transport_rejects_unknown_label() {
    // An unknown transport is an error, never a silent fallback to direct.
    assert_eq!(message(parse_transport("bogus").unwrap_err()), "unknown transport `bogus`");
}

#[test]
fn faults_bare_rate_is_a_loss_rate() {
    assert_eq!(parse_faults("0.2").unwrap(), FaultConfig::none().loss(0.2));
    assert!(parse_faults("0").unwrap().is_none());
}

#[test]
fn faults_bare_rate_out_of_range_rejected() {
    let err = message(parse_faults("1.5").unwrap_err());
    assert_eq!(err, "--faults: loss rate 1.5 not in [0, 1]");
}

#[test]
fn faults_key_list_sets_every_class() {
    let parsed = parse_faults(
        "loss=0.1,delay=0.2,delay-ticks=6,crash=0.03,slow=0.04,slow-ticks=3,misroute=0.05,seed=9",
    )
    .unwrap();
    let by_hand = FaultConfig::none()
        .loss(0.1)
        .delay(0.2, 6)
        .crash(0.03)
        .slow(0.04, 3)
        .misroute(0.05)
        .seed(9);
    assert_eq!(parsed, by_hand);
}

#[test]
fn faults_key_list_keeps_default_tick_costs() {
    let parsed = parse_faults("delay=0.2,slow=0.1").unwrap();
    assert_eq!(parsed.delay_ticks, FaultConfig::none().delay_ticks);
    assert_eq!(parsed.slow_ticks, FaultConfig::none().slow_ticks);
    assert_eq!(parsed.delay_rate, 0.2);
    assert_eq!(parsed.slow_rate, 0.1);
}

#[test]
fn faults_rejects_unknown_key() {
    let err = message(parse_faults("loss=0.1,jitter=0.2").unwrap_err());
    assert!(err.starts_with("--faults: unknown key `jitter`"), "{err}");
}

#[test]
fn faults_rejects_pair_without_value() {
    let err = message(parse_faults("loss").unwrap_err());
    assert!(err.starts_with("--faults: expected key=value, got `loss`"), "{err}");
}

#[test]
fn faults_rejects_keyed_rate_out_of_range() {
    assert_eq!(message(parse_faults("crash=2").unwrap_err()), "--faults: crash=2 not in [0, 1]");
    let err = message(parse_faults("delay-ticks=-1").unwrap_err());
    assert!(err.starts_with("--faults: delay-ticks=-1:"), "{err}");
}

#[test]
fn retry_bare_count_is_attempts() {
    assert_eq!(parse_retry("4").unwrap(), RetryPolicy::new(4, 1, u64::MAX));
}

#[test]
fn retry_key_list_sets_every_field() {
    assert_eq!(
        parse_retry("attempts=3,backoff=2,deadline=64").unwrap(),
        RetryPolicy::new(3, 2, 64)
    );
    assert_eq!(parse_retry("backoff=5").unwrap(), RetryPolicy::new(1, 5, u64::MAX));
}

#[test]
fn retry_rejects_zero_attempts() {
    let want = "--retry: need at least one attempt";
    assert_eq!(message(parse_retry("0").unwrap_err()), want);
    assert_eq!(message(parse_retry("attempts=0").unwrap_err()), want);
}

#[test]
fn retry_rejects_unknown_key_and_bare_key() {
    let err = message(parse_retry("tries=3").unwrap_err());
    assert_eq!(err, "--retry: unknown key `tries` (keys: attempts backoff deadline)");
    let err = message(parse_retry("attempts").unwrap_err());
    assert!(err.starts_with("--retry: expected key=value"), "{err}");
}

#[test]
fn zero_trials_or_routes_is_a_spec_error() {
    let zero_trials = SimSpec { trials: 0, ..small_spec() };
    assert_eq!(
        message(zero_trials.sim_config().unwrap_err()),
        "spec field `trials`: at least one trial is required"
    );
    let zero_routes = SimSpec { routes: 0, ..small_spec() };
    assert_eq!(
        message(zero_routes.sim_config().unwrap_err()),
        "spec field `routes`: at least one route per trial is required"
    );
}

#[test]
fn sim_config_with_own_attack_matches_sim_config() {
    let spec = small_spec();
    let own = spec.sim_config().unwrap();
    let supplied = spec.sim_config_with(spec.attack().unwrap()).unwrap();
    assert_eq!(config_fingerprint(&own), config_fingerprint(&supplied));
}

#[test]
fn sim_config_with_ignores_the_spec_attack_fields() {
    // A caller-supplied attack (a `sos trace` preset) needs no valid
    // `model`/`pe` in the spec; `sim_config` still validates them.
    let spec = SimSpec { model: "nonsense".into(), pe: 7.0, ..small_spec() };
    assert_eq!(message(spec.sim_config().unwrap_err()), "unknown model `nonsense`");
    let attack = AttackConfig::OneBurst { budget: AttackBudget::new(10, 40) };
    let with = spec.sim_config_with(attack.clone()).unwrap();
    let reference = SimSpec { model: "one-burst".into(), ..small_spec() };
    assert_eq!(config_fingerprint(&with), config_fingerprint(&reference.sim_config().unwrap()));
}

#[test]
fn sim_config_with_still_validates_counts_and_labels() {
    let attack = AttackConfig::OneBurst { budget: AttackBudget::new(10, 40) };
    let zero = SimSpec { trials: 0, ..small_spec() };
    assert!(message(zero.sim_config_with(attack.clone()).unwrap_err()).contains("`trials`"));
    let bad_transport = SimSpec { transport: "bogus".into(), ..small_spec() };
    assert_eq!(
        message(bad_transport.sim_config_with(attack).unwrap_err()),
        "unknown transport `bogus`"
    );
}

#[test]
fn routing_side_fields_change_the_fingerprint() {
    let base = config_fingerprint(&small_spec().sim_config().unwrap());
    let variants = [
        SimSpec { policy: "backtracking".into(), ..small_spec() },
        SimSpec { transport: "direct".into(), ..small_spec() },
        SimSpec { faults: Some("0.2".into()), ..small_spec() },
        SimSpec { seed: 6, ..small_spec() },
    ];
    for spec in variants {
        let fp = config_fingerprint(&spec.sim_config().unwrap());
        assert_ne!(fp, base, "{spec:?} must key its own cache entry");
    }
    // Without a fault plane the retry policy is unobservable, so it
    // shares the fault-free entry; with faults it keys its own.
    let retry_only = SimSpec { retry: Some("3".into()), ..small_spec() };
    assert_eq!(config_fingerprint(&retry_only.sim_config().unwrap()), base);
    let faulty = SimSpec { faults: Some("0.2".into()), ..small_spec() };
    let faulty_retry = SimSpec { retry: Some("3".into()), ..faulty.clone() };
    assert_ne!(
        config_fingerprint(&faulty.sim_config().unwrap()),
        config_fingerprint(&faulty_retry.sim_config().unwrap()),
    );
}

#[test]
fn spec_faults_and_retry_go_through_the_shared_parsers() {
    let spec = SimSpec { faults: Some("loss=2".into()), ..small_spec() };
    assert_eq!(message(spec.sim_config().unwrap_err()), "--faults: loss=2 not in [0, 1]");
    let spec = SimSpec { retry: Some("0".into()), ..small_spec() };
    assert_eq!(message(spec.sim_config().unwrap_err()), "--retry: need at least one attempt");
}

#[test]
fn evaluator_and_model_errors_name_the_label() {
    let spec = SimSpec { evaluator: "exact".into(), ..small_spec() };
    assert!(message(spec.evaluator().unwrap_err()).contains("`exact`"));
    let spec = SimSpec { model: "one-burst".into(), ..small_spec() };
    assert!(matches!(spec.attack().unwrap(), AttackConfig::OneBurst { .. }));
    let spec = SimSpec { rounds: 0, ..small_spec() };
    assert!(spec.attack().is_err(), "successive attacks need at least one round");
}
