//! How one logical overlay hop (layer `i−1` node → layer `i` neighbor)
//! is realized.
//!
//! The ICDCS analysis treats a hop as a direct message: it succeeds iff
//! the destination is good. The original SOS system actually routes each
//! hop over Chord, so a hop can *also* fail because every Chord route to
//! the destination is blocked by compromised intermediate nodes. The
//! difference between the two transports is measured by the
//! `ablation-chord` experiment.

use crate::bitset::NodeBitSet;
use crate::chord::ChordRing;
use crate::node::{NodeId, Role};
use crate::overlay::Overlay;
use crate::protocol::ChordProtocol;
use sos_faults::{FaultPlan, HopIncident, RetryPolicy};

/// Outcome of delivering one logical hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryOutcome {
    /// The message reached the destination in `hops` underlay hops.
    Delivered {
        /// Underlay hops traversed (1 for direct transport).
        hops: usize,
    },
    /// No usable route: the destination is bad, or (Chord transport)
    /// every route is blocked by bad intermediate nodes.
    Blocked,
}

impl DeliveryOutcome {
    /// Whether the hop succeeded.
    pub fn is_delivered(&self) -> bool {
        matches!(self, DeliveryOutcome::Delivered { .. })
    }
}

/// Result of one fault-aware hop delivery
/// ([`Transport::deliver_with`]): the outcome plus what the fault plane
/// and the retry loop did along the way.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HopDelivery {
    /// Final outcome after all attempts.
    pub outcome: DeliveryOutcome,
    /// Delivery attempts made (1 when no fault plan is active).
    pub attempts: u32,
    /// Simulated ticks spent on backoff, delays and slow-downs.
    pub ticks: u64,
    /// Everything the fault plane injected, in order.
    pub incidents: Vec<HopIncident>,
}

impl HopDelivery {
    /// Whether the hop ultimately succeeded.
    pub fn is_delivered(&self) -> bool {
        self.outcome.is_delivered()
    }
}

/// Transport used between overlay nodes.
#[derive(Debug, Clone)]
pub enum Transport {
    /// Hops are direct messages — the paper's abstraction.
    Direct,
    /// Hops traverse the Chord ring; intermediate nodes must be good.
    /// Filters are infrastructure off the ring, so the final
    /// servlet→filter hop is always direct.
    Chord(ChordRing),
    /// Hops resolve through the *protocol* state (possibly stale
    /// fingers and successor lists) — the transport for measuring what
    /// an attack costs while the ring is still converging. A hop fails
    /// when the protocol's lookup misroutes (stale owner) or dead
    /// pointers exhaust the successor lists. After damaging the
    /// overlay, call [`Transport::sync_damage`] to mirror the damage
    /// onto the protocol ring (it no-ops for the other variants, so it
    /// is always safe to call unconditionally).
    Protocol(ChordProtocol),
}

impl Transport {
    /// Delivers one logical hop from `from` to `to` on `overlay`.
    ///
    /// The sender `from` is assumed functional (it is the node currently
    /// holding the message); the destination must be good; under
    /// [`Transport::Chord`] every intermediate node must be good as well.
    ///
    /// `alive` is an optional precomputed ring-position liveness mask
    /// (see [`Transport::refresh_alive_positions`]) filled from "the
    /// node is good"; with it the routing decisions are bit-identical to
    /// the per-node status probes (`None`). The trial engine fills it
    /// once per trial and amortizes it across the whole route batch.
    ///
    /// # Panics
    ///
    /// Panics (Chord transport) if either endpoint is an overlay node
    /// missing from the ring — the ring must cover all overlay nodes.
    pub fn deliver(
        &self,
        overlay: &Overlay,
        from: NodeId,
        to: NodeId,
        alive: Option<&NodeBitSet>,
    ) -> DeliveryOutcome {
        if !overlay.is_good(to) {
            return DeliveryOutcome::Blocked;
        }
        self.attempt(overlay, from, to, None, alive)
    }

    /// Fault-aware delivery with retry: like [`deliver`](Self::deliver),
    /// but every attempt consults the fault plane and failed attempts
    /// are retried per `retry` (exponential backoff in simulated ticks,
    /// bounded by the per-route deadline budget).
    ///
    /// With `faults = None` this is *exactly* [`deliver`] — one attempt,
    /// no fault draws, zero ticks — which is how zero-fault runs stay
    /// bit-identical to the fault-unaware code path.
    ///
    /// When a fault plan is active, `alive` must encode "good **and**
    /// not benignly crashed" (what [`Transport::refresh_alive_positions`]
    /// fills for that plan); without a plan, plain "good". The trial
    /// engine owns that contract — it refreshes the mask once per
    /// trial, after attack damage and fault-plan creation.
    ///
    /// `substrate`, when `Some`, replaces the built-in substrate walk of
    /// each faulted attempt. The caller owns the equivalence contract:
    /// the closure must return *exactly* what the built-in attempt
    /// would. The trial engine uses it to price Chord hops through a
    /// per-trial hop memo — sound with a trial-stable liveness mask,
    /// where the attempt is a pure function of `(from, to, mask)`. It
    /// must not be used for substrates whose attempts draw randomness
    /// (Protocol misrouting re-rolls per attempt).
    ///
    /// Fault semantics:
    ///
    /// - **Compromised destination** — blocked, no incident (that is the
    ///   attack, not a fault, and no amount of retrying helps).
    /// - **Crashed destination / crashed-out route** — blocked; benign
    ///   but persistent for the trial, so retries are not attempted
    ///   (resp. only attempted when misrouting makes reattempts vary).
    /// - **Loss** — transient: the attempt dies, the retry loop backs
    ///   off and tries again. This is the fault class retries recover.
    /// - **Delay / slow destination** — the hop succeeds with added
    ///   simulated ticks.
    /// - **Misroute** (Protocol transport) — the lookup wastes steps;
    ///   an exhausted hop budget fails the attempt, and a fresh attempt
    ///   redraws the misroute schedule.
    ///
    /// [`deliver`]: Self::deliver
    #[allow(clippy::too_many_arguments)]
    pub fn deliver_with(
        &self,
        overlay: &Overlay,
        from: NodeId,
        to: NodeId,
        faults: Option<&FaultPlan>,
        retry: &RetryPolicy,
        alive: Option<&NodeBitSet>,
        mut substrate: Option<&mut dyn FnMut(NodeId, NodeId) -> DeliveryOutcome>,
    ) -> HopDelivery {
        let Some(plan) = faults else {
            return HopDelivery {
                outcome: self.deliver(overlay, from, to, alive),
                attempts: 1,
                ticks: 0,
                incidents: Vec::new(),
            };
        };
        let mut incidents = Vec::new();
        if !overlay.is_good(to) {
            // Compromised: not a fault, not retryable.
            return HopDelivery { outcome: DeliveryOutcome::Blocked, attempts: 1, ticks: 0, incidents };
        }
        if plan.is_crashed(to.0) {
            incidents.push(HopIncident::CrashedDestination);
            return HopDelivery { outcome: DeliveryOutcome::Blocked, attempts: 1, ticks: 0, incidents };
        }
        // A blocked substrate route only varies between attempts when
        // misrouting re-rolls the lookup; otherwise it is deterministic
        // for the trial and retrying it is pointless.
        let substrate_retryable = matches!(self, Transport::Protocol(_))
            && plan.config().misroute_rate > 0.0;
        let mut ticks = 0u64;
        let mut attempts = 0u32;
        while attempts < retry.max_attempts {
            attempts += 1;
            if attempts > 1 {
                let backoff = retry.backoff_before(attempts);
                if ticks.saturating_add(backoff) > retry.deadline {
                    incidents.push(HopIncident::DeadlineExhausted { ticks });
                    break;
                }
                ticks += backoff;
                incidents.push(HopIncident::Retry { attempt: attempts, backoff });
            }
            let hop = plan.draw_hop();
            if hop.delay_ticks > 0 {
                ticks += hop.delay_ticks;
                incidents.push(HopIncident::Delay { ticks: hop.delay_ticks });
            }
            if hop.lost {
                incidents.push(HopIncident::Loss { attempt: attempts });
                continue;
            }
            let attempt = match substrate.as_mut() {
                Some(price) => price(from, to),
                None => self.attempt(overlay, from, to, Some(plan), alive),
            };
            match attempt {
                DeliveryOutcome::Delivered { hops } => {
                    let slow = plan.slow_penalty(to.0);
                    if slow > 0 {
                        ticks += slow;
                        incidents.push(HopIncident::Slow { ticks: slow });
                    }
                    return HopDelivery {
                        outcome: DeliveryOutcome::Delivered { hops },
                        attempts,
                        ticks,
                        incidents,
                    };
                }
                DeliveryOutcome::Blocked => {
                    if !substrate_retryable {
                        incidents.push(HopIncident::CrashedRoute);
                        break;
                    }
                    incidents.push(HopIncident::Misroute { attempt: attempts });
                }
            }
        }
        HopDelivery { outcome: DeliveryOutcome::Blocked, attempts, ticks, incidents }
    }

    /// One substrate delivery attempt to a destination already checked
    /// good (and, under a fault plan, not crashed). Routing excludes
    /// bad nodes and, when `plan` is present, benignly crashed ones;
    /// the Protocol lookup draws per-step misroutes only under a plan.
    fn attempt(
        &self,
        overlay: &Overlay,
        from: NodeId,
        to: NodeId,
        plan: Option<&FaultPlan>,
        alive: Option<&NodeBitSet>,
    ) -> DeliveryOutcome {
        let routed = match self {
            Transport::Direct => return DeliveryOutcome::Delivered { hops: 1 },
            // Filters are not ring members; the final hop is direct.
            _ if overlay.role(to) == Role::Filter => {
                return DeliveryOutcome::Delivered { hops: 1 }
            }
            Transport::Chord(ring) => {
                let key = ring
                    .id_of(to)
                    .unwrap_or_else(|| panic!("{to} is not on the Chord ring"));
                let outcome = match alive {
                    Some(mask) => ring.lookup_avoiding_hops_masked(from, key, mask),
                    None => ring.lookup_avoiding_hops(from, key, |n| {
                        n == from
                            || (overlay.is_good(n) && plan.is_none_or(|p| !p.is_crashed(n.0)))
                    }),
                };
                outcome.map(|(owner, hops)| (owner == to, hops))
            }
            Transport::Protocol(proto) => {
                let (Some(from_id), Some(to_id)) =
                    (proto.chord_id_of(from), proto.chord_id_of(to))
                else {
                    return DeliveryOutcome::Blocked;
                };
                let outcome = match plan {
                    Some(plan) => proto.lookup_with_hops_faulty(from_id, to_id, plan),
                    None => proto.lookup_with_hops(from_id, to_id),
                };
                outcome.map(|(owner, hops)| (owner == to_id, hops))
            }
        };
        reached(routed)
    }

    /// Degraded-mode delivery: abandon finger-table routing and walk
    /// successor lists toward the destination — the first
    /// graceful-degradation stage after [`deliver_with`] exhausts its
    /// retries. Slower (O(n) underlay hops) but immune to stale or
    /// Byzantine fingers. [`Transport::Direct`] has no alternate
    /// substrate path, so it is always `Blocked` there; filter
    /// destinations use a direct final hop and likewise cannot be
    /// walked to. `alive` follows [`deliver_with`]'s mask contract.
    ///
    /// [`deliver_with`]: Self::deliver_with
    pub fn deliver_degraded(
        &self,
        overlay: &Overlay,
        from: NodeId,
        to: NodeId,
        faults: Option<&FaultPlan>,
        alive: Option<&NodeBitSet>,
    ) -> DeliveryOutcome {
        if !overlay.is_good(to) || faults.is_some_and(|p| p.is_crashed(to.0)) {
            return DeliveryOutcome::Blocked;
        }
        let walked = match self {
            Transport::Direct => return DeliveryOutcome::Blocked,
            _ if overlay.role(to) == Role::Filter => return DeliveryOutcome::Blocked,
            Transport::Chord(ring) => {
                let key = ring
                    .id_of(to)
                    .unwrap_or_else(|| panic!("{to} is not on the Chord ring"));
                let outcome = match alive {
                    Some(mask) => ring.successor_walk_hops_masked(from, key, mask),
                    None => ring.successor_walk_hops(from, key, |n| {
                        n == from
                            || (overlay.is_good(n) && faults.is_none_or(|p| !p.is_crashed(n.0)))
                    }),
                };
                outcome.map(|(owner, hops)| (owner == to, hops))
            }
            Transport::Protocol(proto) => {
                let (Some(from_id), Some(to_id)) =
                    (proto.chord_id_of(from), proto.chord_id_of(to))
                else {
                    return DeliveryOutcome::Blocked;
                };
                proto
                    .successor_walk(from_id, to_id, faults)
                    .map(|(owner, hops)| (owner == to_id, hops))
            }
        };
        reached(walked)
    }

    /// Mirrors overlay damage onto the transport substrate. For
    /// [`Transport::Protocol`] this kills every non-good overlay node on
    /// the protocol ring (the former per-call-site manual
    /// [`ChordProtocol::kill`] loop); for the other variants it is a
    /// no-op — their routing reads `Overlay` liveness directly. Always
    /// safe to call after applying attack or churn damage.
    pub fn sync_damage(&mut self, overlay: &Overlay) {
        if let Transport::Protocol(proto) = self {
            proto.sync_overlay_damage(overlay);
        }
        debug_assert!(self.damage_synced(overlay));
    }

    /// Whether substrate liveness is consistent with overlay damage
    /// (trivially true for [`Transport::Direct`] and
    /// [`Transport::Chord`], which consult the overlay directly).
    pub fn damage_synced(&self, overlay: &Overlay) -> bool {
        match self {
            Transport::Protocol(proto) => proto.damage_synced(overlay),
            _ => true,
        }
    }

    /// Refreshes a caller-owned ring-position liveness mask for this
    /// transport's substrate, encoding exactly the predicate the
    /// closure-based lookups would evaluate per candidate: the node is
    /// good and, when a fault plan is active, not benignly crashed.
    /// Returns `true` when the transport has a masked fast path
    /// ([`Transport::Chord`]); for the other variants the mask is
    /// unused and left untouched.
    ///
    /// Call once per trial after attack damage and fault-plan creation,
    /// then pass it as the `alive` argument of every delivery in the
    /// trial's route batch.
    pub fn refresh_alive_positions(
        &self,
        overlay: &Overlay,
        faults: Option<&FaultPlan>,
        mask: &mut NodeBitSet,
    ) -> bool {
        match self {
            Transport::Chord(ring) => {
                match faults {
                    Some(plan) => ring.fill_alive_positions(
                        |n| overlay.is_good(n) && !plan.is_crashed(n.0),
                        mask,
                    ),
                    None => ring.fill_alive_positions(|n| overlay.is_good(n), mask),
                }
                true
            }
            _ => false,
        }
    }

    /// Stable label for CSV output.
    pub fn label(&self) -> &'static str {
        match self {
            Transport::Direct => "direct",
            Transport::Chord(_) => "chord",
            Transport::Protocol(_) => "protocol",
        }
    }
}

/// A substrate walk's verdict as a hop outcome: delivered (at least one
/// underlay hop) iff the walk ended at the destination itself.
fn reached(walk: Option<(bool, usize)>) -> DeliveryOutcome {
    match walk {
        Some((true, hops)) => DeliveryOutcome::Delivered { hops: hops.max(1) },
        _ => DeliveryOutcome::Blocked,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeStatus;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sos_core::{MappingDegree, Scenario, SystemParams};

    fn setup(seed: u64) -> (Overlay, ChordRing) {
        let scenario = Scenario::builder()
            .system(SystemParams::new(400, 40, 0.5).unwrap())
            .layers(2)
            .mapping(MappingDegree::OneTo(3))
            .filters(10)
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let overlay = Overlay::build(&scenario, &mut rng);
        let members: Vec<NodeId> = overlay.overlay_ids().collect();
        let ring = ChordRing::build(&mut rng, &members);
        (overlay, ring)
    }

    #[test]
    fn direct_delivery_depends_only_on_destination() {
        let (mut overlay, _) = setup(1);
        let from = overlay.layer_members(1)[0];
        let to = overlay.neighbors(from)[0];
        assert!(Transport::Direct.deliver(&overlay, from, to, None).is_delivered());
        overlay.set_status(to, NodeStatus::Congested);
        assert_eq!(
            Transport::Direct.deliver(&overlay, from, to, None),
            DeliveryOutcome::Blocked
        );
    }

    #[test]
    fn chord_delivery_works_on_clean_overlay() {
        let (overlay, ring) = setup(2);
        let transport = Transport::Chord(ring);
        let from = overlay.layer_members(1)[0];
        for &to in overlay.neighbors(from) {
            let out = transport.deliver(&overlay, from, to, None);
            assert!(out.is_delivered(), "{from} -> {to}: {out:?}");
        }
    }

    #[test]
    fn chord_delivery_blocked_by_intermediates() {
        let (mut overlay, ring) = setup(3);
        let from = overlay.layer_members(1)[0];
        let to = overlay.neighbors(from)[0];
        // Find the clean-path intermediates and kill them plus everyone
        // else except the endpoints: routing must fail.
        for id in overlay.overlay_ids().collect::<Vec<_>>() {
            if id != from && id != to {
                overlay.set_status(id, NodeStatus::Congested);
            }
        }
        let transport = Transport::Chord(ring);
        let out = transport.deliver(&overlay, from, to, None);
        // Either the ring happens to connect them directly (fingers), or
        // the hop is blocked; both are legal, but with 400 nodes a direct
        // finger to an arbitrary neighbor is rare.
        if let DeliveryOutcome::Delivered { hops } = out {
            assert_eq!(hops, 1, "only a direct finger could survive");
        }
    }

    #[test]
    fn filters_use_direct_final_hop() {
        let (overlay, ring) = setup(4);
        let transport = Transport::Chord(ring);
        let last_layer = overlay.layer_count();
        let servlet = overlay.layer_members(last_layer)[0];
        let filter = overlay.neighbors(servlet)[0];
        let out = transport.deliver(&overlay, servlet, filter, None);
        assert_eq!(out, DeliveryOutcome::Delivered { hops: 1 });
    }

    #[test]
    fn labels_stable() {
        let (_, ring) = setup(5);
        assert_eq!(Transport::Direct.label(), "direct");
        assert_eq!(Transport::Chord(ring).label(), "chord");
    }

    fn protocol_over(overlay: &Overlay, seed: u64) -> crate::protocol::ChordProtocol {
        use crate::protocol::{run_maintenance, ChordProtocol, ProtocolConfig};
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut proto = ChordProtocol::new(ProtocolConfig::default());
        let mut sched = sos_des::Scheduler::new();
        let members: Vec<NodeId> = overlay.overlay_ids().collect();
        let mut ids: Vec<u64> = Vec::new();
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
                let now = sched.now();
                run_maintenance(&mut proto, &mut sched, now + 25);
            }
        }
        let now = sched.now();
        run_maintenance(&mut proto, &mut sched, now + 3_000);
        assert!(proto.is_converged(), "test ring must converge");
        proto
    }

    #[test]
    fn protocol_transport_delivers_on_converged_ring() {
        let (overlay, _) = setup(6);
        let proto = protocol_over(&overlay, 60);
        let transport = Transport::Protocol(proto);
        assert_eq!(transport.label(), "protocol");
        let from = overlay.layer_members(1)[0];
        for &to in overlay.neighbors(from) {
            let out = transport.deliver(&overlay, from, to, None);
            assert!(out.is_delivered(), "{from} -> {to}: {out:?}");
        }
        // Servlet → filter hop stays direct.
        let servlet = overlay.layer_members(overlay.layer_count())[0];
        let filter = overlay.neighbors(servlet)[0];
        assert_eq!(
            transport.deliver(&overlay, servlet, filter, None),
            DeliveryOutcome::Delivered { hops: 1 }
        );
    }

    #[test]
    fn deliver_with_no_plan_matches_deliver_exactly() {
        let (mut overlay, ring) = setup(8);
        let transport = Transport::Chord(ring);
        let from = overlay.layer_members(1)[0];
        let to = overlay.neighbors(from)[0];
        for retry in [RetryPolicy::none(), RetryPolicy::new(5, 2, 100)] {
            let d = transport.deliver_with(&overlay, from, to, None, &retry, None, None);
            assert_eq!(d.outcome, transport.deliver(&overlay, from, to, None));
            assert_eq!(d.attempts, 1);
            assert_eq!(d.ticks, 0);
            assert!(d.incidents.is_empty());
        }
        overlay.set_status(to, NodeStatus::Congested);
        let d = transport.deliver_with(
            &overlay,
            from,
            to,
            None,
            &RetryPolicy::new(5, 2, 100),
            None,
            None,
        );
        assert_eq!(d.outcome, DeliveryOutcome::Blocked);
        assert!(d.incidents.is_empty(), "compromise is not a fault");
    }

    #[test]
    fn retries_recover_transient_loss() {
        use sos_faults::FaultConfig;
        let (overlay, _) = setup(9);
        let from = overlay.layer_members(1)[0];
        let to = overlay.neighbors(from)[0];
        let cfg = FaultConfig::none().loss(0.6).seed(17);
        // Find a trial whose first draw is a loss, so the single-attempt
        // policy fails where the retrying one succeeds.
        let transport = Transport::Direct;
        let mut saw_recovery = false;
        for trial in 0..64 {
            let plan = sos_faults::FaultPlan::new(&cfg, trial);
            let none = RetryPolicy::none();
            let once = transport.deliver_with(&overlay, from, to, Some(&plan), &none, None, None);
            let plan = sos_faults::FaultPlan::new(&cfg, trial);
            let retry = RetryPolicy::new(8, 1, 10_000);
            let many = transport.deliver_with(&overlay, from, to, Some(&plan), &retry, None, None);
            if !once.is_delivered() && many.is_delivered() {
                assert!(many.attempts > 1);
                assert!(many.incidents.iter().any(|i| matches!(i, HopIncident::Loss { .. })));
                assert!(many.incidents.iter().any(|i| matches!(i, HopIncident::Retry { .. })));
                assert!(many.ticks > 0, "backoff must cost simulated ticks");
                saw_recovery = true;
                break;
            }
        }
        assert!(saw_recovery, "60% loss must show a recovered trial in 64");
    }

    #[test]
    fn crashed_destination_is_not_retried() {
        use sos_faults::{FaultConfig, FaultPlan};
        let (overlay, _) = setup(10);
        let from = overlay.layer_members(1)[0];
        let cfg = FaultConfig::none().crash(0.5).seed(3);
        let plan = FaultPlan::new(&cfg, 0);
        let to = *overlay
            .neighbors(from)
            .iter()
            .find(|n| plan.is_crashed(n.0))
            .expect("50% crash rate must hit a neighbor");
        let d = Transport::Direct.deliver_with(
            &overlay,
            from,
            to,
            Some(&plan),
            &RetryPolicy::new(6, 2, 10_000),
            None,
            None,
        );
        assert_eq!(d.outcome, DeliveryOutcome::Blocked);
        assert_eq!(d.attempts, 1, "persistent fault: retrying is pointless");
        assert_eq!(d.incidents, vec![HopIncident::CrashedDestination]);
    }

    #[test]
    fn deadline_budget_caps_retries() {
        use sos_faults::{FaultConfig, FaultPlan};
        let (overlay, _) = setup(11);
        let from = overlay.layer_members(1)[0];
        let to = overlay.neighbors(from)[0];
        let cfg = FaultConfig::none().loss(1.0).seed(1);
        let plan = FaultPlan::new(&cfg, 0);
        // Unlimited attempts but a tiny deadline: the budget must stop
        // the loop long before 1000 attempts.
        let d = Transport::Direct.deliver_with(
            &overlay,
            from,
            to,
            Some(&plan),
            &RetryPolicy::new(1000, 4, 20),
            None,
            None,
        );
        assert_eq!(d.outcome, DeliveryOutcome::Blocked);
        assert!(d.attempts < 10, "deadline must cap attempts, got {}", d.attempts);
        assert!(d
            .incidents
            .iter()
            .any(|i| matches!(i, HopIncident::DeadlineExhausted { .. })));
        assert!(d.ticks <= 20);
    }

    #[test]
    fn degraded_walk_survives_finger_blockade() {
        use sos_faults::{FaultConfig, FaultPlan};
        let (overlay, ring) = setup(12);
        let transport = Transport::Chord(ring.clone());
        let from = overlay.layer_members(1)[0];
        // A non-filter destination the greedy lookup reaches cleanly.
        let to = *overlay
            .neighbors(from)
            .iter()
            .find(|&&n| overlay.role(n) != Role::Filter)
            .unwrap();
        let cfg = FaultConfig::none().loss(0.01).seed(2);
        let plan = FaultPlan::new(&cfg, 0);
        let walked = transport.deliver_degraded(&overlay, from, to, Some(&plan), None);
        assert!(
            walked.is_delivered(),
            "successor walk on a clean overlay must reach {to}"
        );
        // Direct transport has no degraded mode.
        assert_eq!(
            Transport::Direct.deliver_degraded(&overlay, from, to, Some(&plan), None),
            DeliveryOutcome::Blocked
        );
    }

    #[test]
    fn sync_damage_mirrors_overlay_onto_protocol() {
        let (mut overlay, _) = setup(13);
        let proto = protocol_over(&overlay, 130);
        let mut transport = Transport::Protocol(proto);
        let from = overlay.layer_members(1)[0];
        let to = overlay.neighbors(from)[0];
        overlay.set_status(to, NodeStatus::Broken);
        assert!(!transport.damage_synced(&overlay));
        transport.sync_damage(&overlay);
        assert!(transport.damage_synced(&overlay));
        let Transport::Protocol(proto) = &transport else { unreachable!() };
        assert!(!proto.is_alive(proto.chord_id_of(to).unwrap()));
        // No-op (but still consistent) for the oracle transports.
        let mut direct = Transport::Direct;
        direct.sync_damage(&overlay);
        assert!(direct.damage_synced(&overlay));
    }

    #[test]
    fn protocol_transport_blocks_when_destination_dead_on_ring() {
        let (overlay, _) = setup(7);
        let mut proto = protocol_over(&overlay, 70);
        let from = overlay.layer_members(1)[0];
        let to = overlay.neighbors(from)[0];
        let to_id = proto.chord_id_of(to).unwrap();
        proto.kill(to_id);
        let transport = Transport::Protocol(proto);
        // Overlay status is still Good, but the ring lost the node: the
        // stale-infrastructure failure mode.
        assert_eq!(
            transport.deliver(&overlay, from, to, None),
            DeliveryOutcome::Blocked
        );
    }
}
