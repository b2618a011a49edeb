//! Batched structure-of-arrays route evaluation.
//!
//! The scalar trial loop routed `routes_per_trial` messages one at a
//! time through [`route_message`](crate::routing::route_message),
//! touching the per-trial shared state — layer membership, neighbor
//! tables, the position-indexed `NodeBitSet` liveness words, the Chord
//! finger rows — once *per route*. This kernel evaluates all routes of
//! a trial as parallel *lanes* over that shared state instead:
//!
//! * one entry-point sampling pass seeds every lane of a chunk up
//!   front (each lane drawing from its own RNG sub-stream);
//! * lanes then advance **layer by layer** in lock step — the greedy
//!   policies cross exactly one layer per step, so after `k` steps
//!   every live lane sits in layer `k` and the step touches one
//!   layer's membership words and neighbor rows for the whole chunk;
//! * Chord substrate hops are resolved through a per-trial
//!   `(from, to) → hops` memo. A miss runs one *traced* masked walk
//!   ([`ChordRing::lookup_avoiding_hops_masked_traced`]) and splices
//!   the walk's suffix answers — every intermediate node's remaining
//!   hops to the target — into the memo alongside it, so walks toward
//!   a shared target converge onto already-priced tails instead of
//!   re-walking the finger rows per route.
//!
//! # Determinism
//!
//! Every route draws from its own splitmix64 sub-stream
//! ([`route_lane_seed`](crate::route_lane_seed), stream tag
//! [`stream::ROUTE`](crate::stream::ROUTE)), so lane order, chunking
//! and batch width *cannot* perturb draws: a lane's draw sequence is a
//! pure function of `(seed, trial, route)`. The fast paths below are
//! faithful specializations of
//! [`route_message`](crate::routing::route_message) to the fault-free
//! case: layer-synchronous lanes for the greedy policies, and a
//! memo-backed DFS (parent-pointer frames instead of a cloned path
//! `Vec` per frame, hops from the shared per-trial Chord memo) for
//! backtracking. When neither applies (an active fault plan, a
//! protocol transport, or batch width 1) each lane runs the scalar
//! oracle itself with its lane RNG — trivially identical. Faulted
//! Chord lanes still share the per-trial hop memo through the oracle:
//! it is handed to [`Transport::deliver_with`] as the substrate pricer
//! (hop pricing is a pure function of `(from, to, mask)`; fault draws
//! never enter the substrate walk, so memoization cannot perturb the
//! plan's counted streams).
//! Tests in `tests/route_batch.rs` pin lane-for-lane equality against
//! the oracle (including RNG end state) and byte-identity of
//! `run_parallel`/`run_sweep` across widths 1/4/16/64.

use crate::routing::{route_priced, RouteResult, RouteScratch, RoutingPolicy, SubstratePricer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sos_faults::{FaultPlan, RetryPolicy};
use sos_math::sampling::{shuffle, stream_seed, IndexSampler};
use sos_overlay::transport::DeliveryOutcome;
use sos_overlay::{ChordRing, NodeBitSet, NodeId, Overlay, Role, Transport};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Memoized "blocked" marker (hops are at most ring-length-bounded, so
/// `u32::MAX` is unreachable as a real hop count).
const BLOCKED: u32 = u32::MAX;

/// The per-trial hop memo. Keys are packed `(from, to)` pairs, already
/// well-mixed by [`HopHasher`]'s splitmix64 finalizer, so the default
/// SipHash (designed for untrusted keys) is pure overhead here — a
/// failing backtracking DFS probes the memo for every edge of the
/// reachable component.
type HopMemo = HashMap<u64, u32, BuildHasherDefault<HopHasher>>;

/// splitmix64-finalizer hasher for the `u64` hop-memo keys.
#[derive(Debug, Default)]
struct HopHasher(u64);

impl Hasher for HopHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Only u64 keys reach this hasher; mix arbitrary bytes anyway
        // so the type stays a correct (if slower) general hasher.
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        let mut z = (self.0 ^ n).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.0 = z ^ (z >> 31);
    }
}

/// One route lane: its RNG sub-stream, its candidate frontier, and the
/// result being built.
#[derive(Debug)]
struct Lane {
    rng: StdRng,
    candidates: Vec<NodeId>,
    current: Option<NodeId>,
    done: bool,
    result: RouteResult,
}

impl Lane {
    fn new() -> Self {
        Lane {
            rng: StdRng::seed_from_u64(0),
            candidates: Vec::new(),
            current: None,
            done: false,
            result: RouteResult::default(),
        }
    }
}

/// Reusable per-worker state of the batched route kernel: lane buffers,
/// the entry-sampling scratch, and the per-trial Chord hop memo.
///
/// Lives inside the engine's `TrialScratch`, so like every other hot
/// buffer it reaches a zero-allocation steady state after the first
/// trial (the memo's hash table keeps its capacity across trials).
#[derive(Debug, Default)]
pub struct RouteBatchScratch {
    lanes: Vec<Lane>,
    sampler: IndexSampler,
    /// Per-trial Chord hop memo: `(from << 32 | to) → hops` (or
    /// [`BLOCKED`]). Valid for one trial because the alive mask and
    /// node statuses are fixed once routing starts.
    memo: HopMemo,
    /// Walk-trace buffer for suffix splicing (see [`memo_chord_hops`]).
    trace: Vec<NodeId>,
    /// Backtracking-lane buffers: the DFS frame arena, the index stack,
    /// the per-expansion neighbor shuffle buffer and the visited set.
    bt_frames: Vec<BtFrame>,
    bt_stack: Vec<u32>,
    bt_neighbors: Vec<NodeId>,
    bt_visited: NodeBitSet,
}

/// One DFS frame of the backtracking fast lane. The scalar oracle
/// clones the whole path `Vec` into every frame; here a frame holds a
/// parent index instead and the path is rebuilt by walking the chain
/// only when a new deepest layer is reached.
#[derive(Debug, Clone, Copy)]
struct BtFrame {
    node: NodeId,
    /// Index of the parent frame, or [`NO_PARENT`] for entry frames.
    parent: u32,
    /// Underlay hops of the path ending at `node` (client hop included).
    hops: u32,
}

/// Parent marker for DFS roots (frame arenas stay far below `u32::MAX`).
const NO_PARENT: u32 = u32::MAX;

impl RouteBatchScratch {
    /// Fresh, empty kernel scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a new trial: invalidates the Chord hop memo (statuses and
    /// the alive mask change between trials; lane buffers are reset per
    /// chunk by [`evaluate`](Self::evaluate)).
    pub fn begin_trial(&mut self) {
        self.memo.clear();
    }

    /// Evaluates routes `first_route .. first_route + count` of a trial
    /// as `count` lanes; results are read back with
    /// [`result`](Self::result), index-aligned with the chunk.
    ///
    /// `route_master` is the trial's `ROUTE` master stream
    /// (`trial_stream_seed(seed, stream::ROUTE, trial)`); lane `k`
    /// seeds its RNG with `stream_seed(route_master, ROUTE,
    /// first_route + k)` — the same derivation as
    /// [`route_lane_seed`](crate::route_lane_seed).
    ///
    /// With `batched = false` (or whenever no fast path applies:
    /// active faults, protocol transport) every lane runs the scalar
    /// [`route_message`](crate::routing::route_message) oracle through
    /// `oracle` scratch; results are identical either way.
    #[allow(clippy::too_many_arguments)]
    pub fn evaluate(
        &mut self,
        overlay: &Overlay,
        transport: &Transport,
        policy: RoutingPolicy,
        faults: Option<&FaultPlan>,
        retry: &RetryPolicy,
        route_master: u64,
        first_route: u64,
        count: usize,
        alive: Option<&NodeBitSet>,
        oracle: &mut RouteScratch,
        batched: bool,
    ) {
        if self.lanes.len() < count {
            self.lanes.resize_with(count, Lane::new);
        }
        let fast = batched
            && faults.is_none()
            && matches!(transport, Transport::Direct | Transport::Chord(_));
        if !fast {
            // Faulted Chord lanes still pool the per-trial hop memo:
            // substrate pricing is a pure function of `(from, to, mask)`
            // (the mask already encodes benign crashes), so the memo
            // changes no outcomes and draws nothing from the plan's
            // counted fault streams. The oracle runs lanes in route
            // order, preserving the scalar draw sequence exactly.
            let RouteBatchScratch { lanes, memo, trace, .. } = self;
            let mut memo_pricer = match (batched, transport, alive) {
                (true, Transport::Chord(ring), Some(mask)) => {
                    Some(move |from: NodeId, to: NodeId| {
                        memo_chord_attempt(ring, overlay, mask, from, to, memo, trace)
                    })
                }
                _ => None,
            };
            for (k, lane) in lanes[..count].iter_mut().enumerate() {
                let seed = stream_seed(route_master, crate::stream::ROUTE, first_route + k as u64);
                lane.rng = StdRng::seed_from_u64(seed);
                let r = route_priced(
                    overlay,
                    transport,
                    policy,
                    faults,
                    retry,
                    alive,
                    &mut lane.rng,
                    oracle,
                    memo_pricer.as_mut().map(|p| p as SubstratePricer<'_>),
                );
                lane.result.clone_from(r);
            }
            return;
        }

        let RouteBatchScratch {
            lanes,
            sampler,
            memo,
            trace,
            bt_frames,
            bt_stack,
            bt_neighbors,
            bt_visited,
        } = self;
        let lanes = &mut lanes[..count];
        let last_layer = overlay.layer_count() + 1;

        // One entry-sampling pass for the whole chunk: each lane draws
        // its entry set from its own sub-stream, exactly as the scalar
        // oracle's `sample_entry_points_into` would.
        for (k, lane) in lanes.iter_mut().enumerate() {
            let seed = stream_seed(route_master, crate::stream::ROUTE, first_route + k as u64);
            lane.rng = StdRng::seed_from_u64(seed);
            overlay.sample_entry_points_into(&mut lane.rng, sampler, &mut lane.candidates);
            lane.result.reset();
            lane.current = None;
            lane.done = false;
        }

        if policy == RoutingPolicy::Backtracking {
            // Backtracking lanes run sequentially (a DFS has no layer
            // lock-step to share) but still pool the per-trial Chord
            // hop memo: every edge any lane has priced is free for all
            // later lanes of the trial.
            for lane in lanes.iter_mut() {
                backtracking_lane(
                    overlay,
                    transport,
                    alive,
                    memo,
                    trace,
                    lane,
                    bt_frames,
                    bt_stack,
                    bt_neighbors,
                    bt_visited,
                    last_layer,
                );
            }
            return;
        }

        // Layer-synchronous advancement: each pass moves every live
        // lane across exactly one layer (greedy routing's invariant),
        // touching that layer's shared state once for the chunk.
        let mut active = count;
        while active > 0 {
            // Per-lane frontier ordering first (RandomGood consumes one
            // shuffle from the lane's stream, like the oracle).
            if policy == RoutingPolicy::RandomGood {
                for lane in lanes.iter_mut().filter(|l| !l.done) {
                    shuffle(&mut lane.rng, &mut lane.candidates);
                }
            }
            for lane in lanes.iter_mut() {
                if lane.done {
                    continue;
                }
                let mut next = None;
                for &cand in lane.candidates.iter() {
                    let hops = match lane.current {
                        // Client → first layer: plain reachability (no
                        // fault plane on the fast path).
                        None => overlay.is_good(cand).then_some(1usize),
                        Some(v) => hop_hops(overlay, transport, v, cand, alive, memo, trace),
                    };
                    if let Some(h) = hops {
                        next = Some((cand, h));
                        break;
                    }
                }
                let Some((node, hops)) = next else {
                    lane.done = true;
                    active -= 1;
                    continue;
                };
                lane.result.underlay_hops += hops;
                lane.result.path.push(node);
                let layer = overlay
                    .layer_of(node)
                    .expect("routed nodes are always infrastructure");
                lane.result.deepest_layer = layer;
                if layer == last_layer {
                    lane.result.delivered = true;
                    lane.done = true;
                    active -= 1;
                } else {
                    lane.candidates.clear();
                    lane.candidates.extend_from_slice(overlay.neighbors(node));
                    lane.current = Some(node);
                }
            }
        }
    }

    /// The result of lane `k` of the last [`evaluate`](Self::evaluate)
    /// chunk (route `first_route + k`).
    pub fn result(&self, k: usize) -> &RouteResult {
        &self.lanes[k].result
    }
}

/// The fault-free backtracking DFS, mirroring the scalar
/// `backtracking_route` draw for draw (entry shuffle, then one
/// neighbor shuffle per expanded frame) and decision for decision —
/// only the bookkeeping differs: frames carry a parent index instead
/// of a cloned path `Vec`, and Chord hops come from the shared
/// per-trial memo instead of a fresh finger walk per edge.
#[allow(clippy::too_many_arguments)]
fn backtracking_lane(
    overlay: &Overlay,
    transport: &Transport,
    alive: Option<&NodeBitSet>,
    memo: &mut HopMemo,
    trace: &mut Vec<NodeId>,
    lane: &mut Lane,
    frames: &mut Vec<BtFrame>,
    stack: &mut Vec<u32>,
    neighbors_buf: &mut Vec<NodeId>,
    visited: &mut NodeBitSet,
    last_layer: usize,
) {
    shuffle(&mut lane.rng, &mut lane.candidates);
    visited.clear();
    frames.clear();
    stack.clear();
    let result = &mut lane.result;
    let mut best_prefix_hops = 0usize;
    for &entry in lane.candidates.iter() {
        if overlay.is_good(entry) {
            frames.push(BtFrame {
                node: entry,
                parent: NO_PARENT,
                hops: 1, // client → entry contact
            });
            stack.push((frames.len() - 1) as u32);
        }
    }
    while let Some(fi) = stack.pop() {
        let BtFrame { node, hops, .. } = frames[fi as usize];
        if !visited.insert(node) {
            continue;
        }
        let layer = overlay
            .layer_of(node)
            .expect("routed nodes are always infrastructure");
        if layer > result.deepest_layer {
            result.deepest_layer = layer;
            rebuild_path(frames, fi, &mut result.path);
            best_prefix_hops = hops as usize;
        }
        if layer == last_layer {
            result.delivered = true;
            result.underlay_hops = hops as usize;
            return;
        }
        neighbors_buf.clear();
        neighbors_buf.extend_from_slice(overlay.neighbors(node));
        shuffle(&mut lane.rng, neighbors_buf);
        for &next in neighbors_buf.iter() {
            if visited.contains(next) {
                continue;
            }
            if let Some(edge) = hop_hops(overlay, transport, node, next, alive, memo, trace) {
                frames.push(BtFrame {
                    node: next,
                    parent: fi,
                    hops: hops + edge as u32,
                });
                stack.push((frames.len() - 1) as u32);
            }
        }
    }
    result.underlay_hops = best_prefix_hops;
}

/// Rebuilds the node path ending at frame `fi` by walking the parent
/// chain (root-first order after the reverse).
fn rebuild_path(frames: &[BtFrame], mut fi: u32, path: &mut Vec<NodeId>) {
    path.clear();
    loop {
        let frame = &frames[fi as usize];
        path.push(frame.node);
        if frame.parent == NO_PARENT {
            break;
        }
        fi = frame.parent;
    }
    path.reverse();
}

/// Fault-free hop delivery, mirroring [`Transport::deliver`] exactly
/// but resolving Chord lookups through the per-trial memo.
#[inline]
fn hop_hops(
    overlay: &Overlay,
    transport: &Transport,
    from: NodeId,
    to: NodeId,
    alive: Option<&NodeBitSet>,
    memo: &mut HopMemo,
    trace: &mut Vec<NodeId>,
) -> Option<usize> {
    if !overlay.is_good(to) {
        return None;
    }
    match transport {
        Transport::Direct => Some(1),
        Transport::Chord(ring) => {
            if overlay.role(to) == Role::Filter {
                return Some(1);
            }
            let hops = memo_chord_hops(ring, overlay, from, to, alive, memo, trace);
            (hops != BLOCKED).then_some(hops as usize)
        }
        // The fast path never runs on other transports (see `evaluate`);
        // fall back to the canonical delivery for completeness.
        other => match other.deliver(overlay, from, to, alive) {
            DeliveryOutcome::Delivered { hops } => Some(hops),
            _ => None,
        },
    }
}

/// Resolves a Chord hop `(from, to)` through the per-trial memo,
/// pricing a miss with one *traced* masked walk and splicing the walk's
/// suffix answers into the memo alongside it: intermediate `i` of a
/// delivered `h`-hop walk sits `h - (i + 1)` hops from the owner, and
/// every intermediate of a stuck walk is on the same dead-end suffix
/// (the greedy step is memoryless — see
/// [`ChordRing::lookup_avoiding_hops_masked_traced`]). Encodes exactly
/// the Chord arm of [`Transport::deliver`]: hops-or-[`BLOCKED`], owner
/// must be `to`.
fn memo_chord_hops(
    ring: &ChordRing,
    overlay: &Overlay,
    from: NodeId,
    to: NodeId,
    alive: Option<&NodeBitSet>,
    memo: &mut HopMemo,
    trace: &mut Vec<NodeId>,
) -> u32 {
    let mkey = memo_key(from, to);
    if let Some(&hops) = memo.get(&mkey) {
        return hops;
    }
    let key = ring
        .id_of(to)
        .unwrap_or_else(|| panic!("{to} is not on the ring"));
    let hops = match alive {
        Some(mask) => {
            let outcome = ring.lookup_avoiding_hops_masked_traced(from, key, mask, trace);
            let hops = encode_chord_outcome(outcome, to);
            for (i, &mid) in trace.iter().enumerate() {
                // Intermediates strictly precede the owner, so their
                // remaining hop counts stay >= 1 (`max(1)` vacuous).
                let suffix = if hops == BLOCKED { BLOCKED } else { hops - (i as u32 + 1) };
                memo.insert(memo_key(mid, to), suffix);
            }
            hops
        }
        None => {
            let outcome =
                ring.lookup_avoiding_hops(from, key, |n| n == from || overlay.is_good(n));
            encode_chord_outcome(outcome, to)
        }
    };
    memo.insert(mkey, hops);
    hops
}

/// Encodes a lookup outcome the way the memo stores hop answers:
/// delivered-to-the-right-owner as `hops.max(1)`, anything else as
/// [`BLOCKED`] — decision for decision the Chord arm of
/// [`Transport::deliver`].
#[inline]
fn encode_chord_outcome(outcome: Option<(NodeId, usize)>, to: NodeId) -> u32 {
    match outcome {
        Some((owner, hops)) if owner == to => hops.max(1) as u32,
        _ => BLOCKED,
    }
}

/// Memo-backed substrate pricing for the *faulted* oracle path: a
/// plug-in replacement for the Chord arm of the built-in attempt in
/// [`Transport::deliver_with`] (filter shortcut, then the masked
/// avoiding lookup; the destination is already checked good and not
/// crashed by the delivery ladder). Valid because that pricing is a
/// pure function of `(from, to, mask)` for the whole trial; consumes no
/// randomness, so the plan's counted fault streams see exactly the
/// scalar sequence.
fn memo_chord_attempt(
    ring: &ChordRing,
    overlay: &Overlay,
    mask: &NodeBitSet,
    from: NodeId,
    to: NodeId,
    memo: &mut HopMemo,
    trace: &mut Vec<NodeId>,
) -> DeliveryOutcome {
    if overlay.role(to) == Role::Filter {
        return DeliveryOutcome::Delivered { hops: 1 };
    }
    match memo_chord_hops(ring, overlay, from, to, Some(mask), memo, trace) {
        BLOCKED => DeliveryOutcome::Blocked,
        hops => DeliveryOutcome::Delivered { hops: hops as usize },
    }
}

#[inline]
fn memo_key(from: NodeId, to: NodeId) -> u64 {
    (u64::from(from.0) << 32) | u64::from(to.0)
}
