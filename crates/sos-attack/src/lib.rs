//! Executable intelligent-DDoS attackers.
//!
//! `sos-analysis` computes what happens to the *average* overlay; this
//! crate implements attackers that actually do it to a concrete
//! [`sos_overlay::Overlay`], node by node, with real randomness:
//!
//! * [`knowledge`] — the attacker's evolving view: which nodes it has
//!   attempted, broken into, and learned about from captured neighbor
//!   tables.
//! * [`one_burst`] — §3.1 executed literally: `N_T` uniform break-in
//!   trials in one volley, then congestion of every disclosed node plus
//!   random spillover.
//! * [`successive`] — §3.2 / Algorithm 1 executed literally: round-based
//!   break-ins guided by the previous round's disclosures, seeded by
//!   prior knowledge of the first layer.
//! * [`observe`] — replays an [`trace::AttackTrace`] onto the
//!   `sos-observe` event bus with layer annotations and phase spans.
//!
//! The executable attackers are slightly *stronger* than the paper's
//! algebra in one respect: a node that was randomly attacked (and
//! survived) in round `k` and disclosed in a later round is recognized
//! as a known SOS node and congested; the paper's equations do not track
//! this cross-round overlap. The difference is part of what the
//! analytical-vs-simulation ablation measures.
//!
//! # Example
//!
//! ```
//! use rand::SeedableRng;
//! use sos_attack::one_burst::OneBurstAttacker;
//! use sos_core::{AttackBudget, MappingDegree, Scenario, SystemParams};
//! use sos_overlay::Overlay;
//!
//! let scenario = Scenario::builder()
//!     .system(SystemParams::new(1_000, 60, 0.5)?)
//!     .layers(3)
//!     .mapping(MappingDegree::OneTo(2))
//!     .build()?;
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let mut overlay = Overlay::build(&scenario, &mut rng);
//! let outcome = OneBurstAttacker::new(AttackBudget::new(100, 200))
//!     .execute(&mut overlay, &mut rng);
//! assert_eq!(outcome.attempted.len(), 100);
//! assert!(overlay.total_bad() > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod knowledge;
pub mod monitoring;
pub mod observe;
pub mod one_burst;
pub mod outcome;
pub mod successive;
pub mod trace;

pub use knowledge::AttackerKnowledge;
pub use observe::{attack_event_count, emit_attack_events};
pub use monitoring::{LayeringModel, MonitoringAttacker, MonitoringOutcome};
pub use one_burst::OneBurstAttacker;
pub use outcome::{AttackOutcome, RoundSummary};
pub use successive::SuccessiveAttacker;
pub use trace::{AttackEvent, AttackTrace, CongestionReason};
