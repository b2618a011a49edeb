//! Contracts the single hop-delivery path relies on:
//!
//! * a precomputed ring liveness mask encodes exactly the predicate the
//!   faulted Chord attempt evaluates per node (good and not crashed);
//! * without a fault plan, fault-aware delivery *is* plain delivery;
//! * routing over the Protocol transport (the substrate whose attempts
//!   draw misroutes from the fault plan) reproduces recorded results.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sos::attack::OneBurstAttacker;
use sos::core::{AttackBudget, MappingDegree, Scenario, SystemParams};
use sos::des::Scheduler;
use sos::overlay::protocol::{run_maintenance, ChordProtocol, ProtocolConfig};
use sos::overlay::{ChordRing, NodeBitSet, NodeId, Overlay, Transport};
use sos::sim::routing::{route_message, RouteScratch, RoutingPolicy};
use sos_faults::{FaultConfig, FaultPlan, HopIncident, RetryPolicy};

fn scenario() -> Scenario {
    Scenario::builder()
        .system(SystemParams::new(400, 60, 0.5).unwrap())
        .layers(3)
        .mapping(MappingDegree::OneTo(2))
        .filters(10)
        .build()
        .unwrap()
}

/// An overlay damaged by a one-burst attack, with a Chord ring over it.
fn attacked_chord(seed: u64) -> (Overlay, Transport) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut overlay = Overlay::build(&scenario(), &mut rng);
    let members: Vec<NodeId> = overlay.overlay_ids().collect();
    let ring = ChordRing::build(&mut rng, &members);
    OneBurstAttacker::new(AttackBudget::new(30, 120)).execute(&mut overlay, &mut rng);
    (overlay, Transport::Chord(ring))
}

/// Every `(node, neighbor)` overlay edge plus random overlay pairs.
fn hop_pairs(overlay: &Overlay, seed: u64) -> Vec<(NodeId, NodeId)> {
    let mut pairs = Vec::new();
    for layer in 1..=overlay.layer_count() {
        for &v in overlay.layer_members(layer) {
            pairs.extend(overlay.neighbors(v).iter().map(|&w| (v, w)));
        }
    }
    let members: Vec<NodeId> = overlay.overlay_ids().collect();
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..400 {
        let v = members[rng.gen_range(0..members.len())];
        let w = members[rng.gen_range(0..members.len())];
        if v != w {
            pairs.push((v, w));
        }
    }
    pairs
}

/// (a) Under a crash+loss plan the Chord attempt excludes exactly the
/// nodes the plan's liveness mask excludes: `alive = None` (per-node
/// status and crash probes) and the mask give the same `HopDelivery`.
#[test]
fn chord_crash_mask_matches_per_node_crash_probes() {
    let cfg = FaultConfig::none().crash(0.3).loss(0.3).seed(5);
    let retry = RetryPolicy::new(4, 1, 64);
    let (mut detoured, mut lost) = (0, 0);
    for seed in 0..4u64 {
        let (overlay, transport) = attacked_chord(seed);
        let mut mask = NodeBitSet::new();
        assert!(transport.refresh_alive_positions(
            &overlay,
            Some(&FaultPlan::new(&cfg, seed)),
            &mut mask
        ));
        // The plan's draw counters are stateful, so each side gets its
        // own copy and both sides draw in the same order.
        let probed = FaultPlan::new(&cfg, seed);
        let masked = FaultPlan::new(&cfg, seed);
        for (from, to) in hop_pairs(&overlay, seed) {
            let a = transport.deliver_with(&overlay, from, to, Some(&probed), &retry, None, None);
            let b = transport.deliver_with(
                &overlay,
                from,
                to,
                Some(&masked),
                &retry,
                Some(&mask),
                None,
            );
            assert_eq!(a, b, "seed {seed}: {from} -> {to}");
            // A delivered hop whose underlay path differs from the
            // crash-free one had to route around crashed nodes.
            detoured += usize::from(
                a.is_delivered() && a.outcome != transport.deliver(&overlay, from, to, None),
            );
            lost += a
                .incidents
                .iter()
                .filter(|i| matches!(i, HopIncident::Loss { .. }))
                .count();
        }
    }
    // The comparison must exercise the branches it pins.
    assert!(detoured > 0, "some hops must route around crashed nodes");
    assert!(lost > 0, "some attempts must be lost");
}

/// (b) Without a plan, `deliver_with` is `deliver`: one attempt, no
/// ticks, no incidents, whatever the retry policy, with or without the
/// liveness mask.
#[test]
fn deliver_with_without_plan_is_deliver() {
    let (overlay, chord) = attacked_chord(11);
    let mut mask = NodeBitSet::new();
    assert!(chord.refresh_alive_positions(&overlay, None, &mut mask));
    let mut outcomes = [0usize; 2];
    for transport in [&Transport::Direct, &chord] {
        for alive in [None, Some(&mask)] {
            for retry in [RetryPolicy::none(), RetryPolicy::new(8, 2, 1_000)] {
                for (from, to) in hop_pairs(&overlay, 12) {
                    let plain = transport.deliver(&overlay, from, to, alive);
                    let d = transport.deliver_with(&overlay, from, to, None, &retry, alive, None);
                    assert_eq!(d.outcome, plain, "{from} -> {to}");
                    assert_eq!((d.attempts, d.ticks), (1, 0));
                    assert!(d.incidents.is_empty());
                    outcomes[usize::from(plain.is_delivered())] += 1;
                }
            }
        }
    }
    assert!(
        outcomes[0] > 0 && outcomes[1] > 0,
        "both outcomes must occur: {outcomes:?}"
    );
    // The masked lookup answers the same as the per-node probe.
    for (from, to) in hop_pairs(&overlay, 13) {
        assert_eq!(
            chord.deliver(&overlay, from, to, Some(&mask)),
            chord.deliver(&overlay, from, to, None),
        );
    }
}

/// A protocol ring converged over the overlay, then attacked and given
/// only a short maintenance window, so some pointers are still stale.
fn attacked_protocol(seed: u64) -> (Overlay, Transport) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut overlay = Overlay::build(&scenario(), &mut rng);
    let mut proto = ChordProtocol::new(ProtocolConfig {
        successor_list_len: 3,
        ..ProtocolConfig::default()
    });
    let mut sched = Scheduler::new();
    let members: Vec<NodeId> = overlay.overlay_ids().collect();
    let mut ids: Vec<u64> = Vec::with_capacity(members.len());
    for (i, &m) in members.iter().enumerate() {
        let mut id = rng.gen::<u64>();
        while ids.contains(&id) {
            id = rng.gen::<u64>();
        }
        ids.push(id);
        if i == 0 {
            proto.bootstrap(id, m, &mut sched);
        } else {
            let via = ids[rng.gen_range(0..i)];
            proto.join(id, m, via, &mut sched);
            if i % 8 == 0 {
                let now = sched.now();
                run_maintenance(&mut proto, &mut sched, now + 25);
            }
        }
    }
    let now = sched.now();
    run_maintenance(&mut proto, &mut sched, now + 3_000);
    OneBurstAttacker::new(AttackBudget::new(30, 120)).execute(&mut overlay, &mut rng);
    let mut transport = Transport::Protocol(proto);
    transport.sync_damage(&overlay);
    if let Transport::Protocol(proto) = &mut transport {
        let now = sched.now();
        run_maintenance(proto, &mut sched, now + 20);
    }
    (overlay, transport)
}

/// Per `(seed, policy, faulted)`: delivered routes, underlay hops,
/// retries, downgrades, fault ticks and incidents over 60 routes.
type Summary = (u64, RoutingPolicy, bool, [u64; 6]);

/// (c) Routing over the Protocol transport, with and without a
/// loss+crash+misroute plan, reproduces results recorded before the
/// substrate attempt bodies were merged.
#[test]
fn protocol_routes_match_recorded_results() {
    use RoutingPolicy::*;
    const EXPECTED: &[Summary] = &[
        (3, RandomGood, false, [40, 496, 0, 0, 0, 0]),
        (3, RandomGood, true, [40, 669, 24, 0, 28, 51]),
        (3, FirstGood, false, [40, 431, 0, 0, 0, 0]),
        (3, FirstGood, true, [40, 606, 24, 0, 28, 55]),
        (3, Backtracking, false, [41, 524, 0, 0, 0, 0]),
        (3, Backtracking, true, [41, 768, 49, 0, 58, 104]),
        (8, RandomGood, false, [37, 542, 0, 0, 0, 0]),
        (8, RandomGood, true, [33, 928, 26, 1, 33, 67]),
        (8, FirstGood, false, [38, 572, 0, 0, 0, 0]),
        (8, FirstGood, true, [25, 812, 26, 2, 33, 73]),
        (8, Backtracking, false, [45, 582, 0, 0, 0, 0]),
        (8, Backtracking, true, [50, 821, 50, 0, 61, 126]),
    ];
    let cfg = FaultConfig::none()
        .loss(0.2)
        .crash(0.05)
        .misroute(0.3)
        .seed(17);
    let retry = RetryPolicy::new(3, 1, 32);
    let mut got = Vec::new();
    for seed in [3u64, 8] {
        let (overlay, transport) = attacked_protocol(seed);
        for policy in [
            RoutingPolicy::RandomGood,
            RoutingPolicy::FirstGood,
            RoutingPolicy::Backtracking,
        ] {
            for faulted in [false, true] {
                let plan = faulted.then(|| FaultPlan::new(&cfg, seed));
                let mut rng = StdRng::seed_from_u64(seed ^ 0xA5);
                let mut scratch = RouteScratch::new();
                let mut sums = [0u64; 6];
                for _ in 0..60 {
                    let r = route_message(
                        &overlay,
                        &transport,
                        policy,
                        plan.as_ref(),
                        &retry,
                        None,
                        &mut rng,
                        &mut scratch,
                    );
                    sums[0] += u64::from(r.delivered);
                    sums[1] += r.underlay_hops as u64;
                    sums[2] += r.retries;
                    sums[3] += r.downgrades;
                    sums[4] += r.fault_ticks;
                    sums[5] += r.incidents.len() as u64;
                }
                got.push((seed, policy, faulted, sums));
            }
        }
    }
    assert_eq!(got, EXPECTED);
}
