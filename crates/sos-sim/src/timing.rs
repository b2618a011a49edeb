//! Empirical delivery-latency measurement.
//!
//! The analytical latency model (`sos_analysis::latency`) predicts
//! expected delivery time from hop counts; this module measures it on a
//! concrete (possibly attacked) overlay by drawing exponential per-hop
//! delays during routing and collecting the full distribution, so the
//! closed form can be validated and tail percentiles (which the closed
//! form does not give) can be reported.

use crate::routing::{route_message, RouteScratch, RoutingPolicy};
use rand::Rng;
use sos_faults::RetryPolicy;
use sos_math::stats::{quantile, RunningStats};
use sos_overlay::{Overlay, Transport};

/// Distribution of delivery latencies over many routed messages.
#[derive(Debug, Clone)]
pub struct LatencyDistribution {
    sorted_delays: Vec<f64>,
    stats: RunningStats,
    failures: u64,
    hop_stats: RunningStats,
}

impl LatencyDistribution {
    /// Number of delivered messages in the sample.
    pub fn delivered(&self) -> u64 {
        self.stats.count()
    }

    /// Number of failed routes (no latency recorded).
    pub fn failures(&self) -> u64 {
        self.failures
    }

    /// Mean delivery latency.
    pub fn mean(&self) -> f64 {
        self.stats.mean()
    }

    /// Mean underlay hops of delivered messages.
    pub fn mean_hops(&self) -> f64 {
        self.hop_stats.mean()
    }

    /// Latency quantile (`q ∈ [0, 1]`).
    ///
    /// # Panics
    ///
    /// Panics if no messages were delivered or `q` is out of range.
    pub fn quantile(&self, q: f64) -> f64 {
        quantile(&self.sorted_delays, q)
    }

    /// Convenience: the median.
    pub fn p50(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Convenience: the 95th percentile.
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// Convenience: the 99th percentile.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }
}

/// Routes `routes` fresh client messages through `overlay` and samples
/// delivery latency, with i.i.d. exponential per-underlay-hop delays of
/// mean `per_hop_mean`.
///
/// # Panics
///
/// Panics if `per_hop_mean` is not positive or `routes == 0`.
pub fn measure_latency<R: Rng + ?Sized>(
    overlay: &Overlay,
    transport: &Transport,
    policy: RoutingPolicy,
    per_hop_mean: f64,
    routes: u64,
    rng: &mut R,
) -> LatencyDistribution {
    assert!(per_hop_mean > 0.0, "per-hop mean must be positive");
    assert!(routes > 0, "at least one route required");
    let mut delays = Vec::new();
    let mut stats = RunningStats::new();
    let mut hop_stats = RunningStats::new();
    let mut failures = 0u64;
    let mut scratch = RouteScratch::new();
    let retry = RetryPolicy::none();
    for _ in 0..routes {
        let result =
            route_message(overlay, transport, policy, None, &retry, None, rng, &mut scratch);
        if !result.delivered {
            failures += 1;
            continue;
        }
        let mut delay = 0.0;
        for _ in 0..result.underlay_hops {
            // Inverse-CDF exponential draw.
            let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
            delay += -per_hop_mean * u.ln();
        }
        delays.push(delay);
        stats.push(delay);
        hop_stats.push(result.underlay_hops as f64);
    }
    delays.sort_by(|a, b| a.partial_cmp(b).unwrap());
    LatencyDistribution {
        sorted_delays: delays,
        stats,
        failures,
        hop_stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sos_core::{MappingDegree, Scenario, SystemParams};
    use sos_overlay::{ChordRing, NodeId, NodeStatus};

    fn overlay(seed: u64) -> Overlay {
        let scenario = Scenario::builder()
            .system(SystemParams::new(800, 60, 0.5).unwrap())
            .layers(3)
            .mapping(MappingDegree::OneTo(2))
            .filters(10)
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        Overlay::build(&scenario, &mut rng)
    }

    #[test]
    fn clean_overlay_latency_matches_hop_count() {
        // Direct transport, 4 hops of mean 10 ⇒ mean latency ≈ 40.
        let o = overlay(1);
        let mut rng = StdRng::seed_from_u64(2);
        let d = measure_latency(
            &o,
            &Transport::Direct,
            RoutingPolicy::RandomGood,
            10.0,
            4_000,
            &mut rng,
        );
        assert_eq!(d.failures(), 0);
        assert_eq!(d.delivered(), 4_000);
        assert_eq!(d.mean_hops(), 4.0);
        assert!((d.mean() - 40.0).abs() < 2.0, "mean {}", d.mean());
        // Quantiles ordered.
        assert!(d.p50() < d.p95());
        assert!(d.p95() < d.p99());
        assert!(d.p50() < d.mean() * 1.2);
    }

    #[test]
    fn chord_transport_is_slower() {
        let o = overlay(3);
        let mut rng = StdRng::seed_from_u64(4);
        let members: Vec<NodeId> = o.overlay_ids().collect();
        let ring = ChordRing::build(&mut rng, &members);
        let direct = measure_latency(
            &o,
            &Transport::Direct,
            RoutingPolicy::RandomGood,
            1.0,
            1_000,
            &mut rng,
        );
        let chord = measure_latency(
            &o,
            &Transport::Chord(ring),
            RoutingPolicy::RandomGood,
            1.0,
            1_000,
            &mut rng,
        );
        assert!(chord.mean() > direct.mean());
        assert!(chord.mean_hops() > direct.mean_hops());
    }

    #[test]
    fn failures_counted_separately() {
        let mut o = overlay(5);
        for &n in o.layer_members(2).to_vec().iter() {
            o.set_status(n, NodeStatus::Congested);
        }
        let mut rng = StdRng::seed_from_u64(6);
        let d = measure_latency(
            &o,
            &Transport::Direct,
            RoutingPolicy::RandomGood,
            1.0,
            100,
            &mut rng,
        );
        assert_eq!(d.failures(), 100);
        assert_eq!(d.delivered(), 0);
    }

    #[test]
    fn analytic_oblivious_model_validated() {
        // The closed-form oblivious latency (hops × mean) must match the
        // empirical mean on a clean overlay.
        let o = overlay(7);
        let scenario = o.scenario().clone();
        let model = sos_analysis::LatencyModel {
            per_hop_mean: 5.0,
            chord_transport: false,
            discipline: sos_analysis::ForwardingDiscipline::Oblivious,
        };
        let predicted = model.clean_latency(&scenario);
        let mut rng = StdRng::seed_from_u64(8);
        let d = measure_latency(
            &o,
            &Transport::Direct,
            RoutingPolicy::RandomGood,
            5.0,
            4_000,
            &mut rng,
        );
        assert!(
            (d.mean() - predicted).abs() < 0.05 * predicted,
            "empirical {} vs predicted {predicted}",
            d.mean()
        );
    }

    #[test]
    #[should_panic(expected = "per-hop mean must be positive")]
    fn bad_mean_rejected() {
        let o = overlay(9);
        let mut rng = StdRng::seed_from_u64(10);
        measure_latency(
            &o,
            &Transport::Direct,
            RoutingPolicy::RandomGood,
            0.0,
            10,
            &mut rng,
        );
    }
}
