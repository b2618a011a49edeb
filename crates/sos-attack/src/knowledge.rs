//! The attacker's evolving view of the system, and the per-worker
//! scratch every attacker draws through.

use rand::Rng;
use sos_math::sampling::IndexSampler;
use sos_overlay::{NodeBitSet, NodeId, WordSelect};

/// Bookkeeping of everything the attacker has learned or done.
///
/// Backed by [`NodeBitSet`]s rather than hash sets: membership probes
/// are one bit test, and resetting knowledge between trials costs
/// O(words) with no allocation — the representation the zero-rebuild
/// trial engine needs. Iteration over a bitset is naturally in
/// ascending id order, the deterministic order every attacker draws
/// its targets in.
///
/// Invariants maintained by the mutators:
///
/// * `attempted`, `broken` and `pending` are pairwise consistent —
///   a broken node is always attempted, never pending;
/// * `known_sos` holds every node whose SOS/filter membership the
///   attacker has learned (disclosed by a captured neighbor table or
///   known a priori), whether or not it was later attacked;
/// * `pending` ⊆ `known_sos` \ `attempted`: the disclosed nodes the
///   attacker has not yet acted on (Algorithm 1's `X_j`).
#[derive(Debug, Clone, Default)]
pub struct AttackerKnowledge {
    attempted: NodeBitSet,
    broken: NodeBitSet,
    known_sos: NodeBitSet,
    pending: NodeBitSet,
}

impl AttackerKnowledge {
    /// Forgets everything in O(words), keeping the bitsets' allocations
    /// for the next trial.
    pub(crate) fn clear(&mut self) {
        self.attempted.clear();
        self.broken.clear();
        self.known_sos.clear();
        self.pending.clear();
    }

    /// Marks a node as known a priori or disclosed by a break-in. Nodes
    /// already attempted stay out of the pending queue.
    pub fn disclose(&mut self, node: NodeId) {
        self.known_sos.insert(node);
        if !self.attempted.contains(node) {
            self.pending.insert(node);
        }
    }

    /// Marks a node as known without queueing it for break-in — used for
    /// filters, which the paper treats as impossible to break into
    /// (they are congested directly in the congestion phase).
    pub fn disclose_unbreakable(&mut self, node: NodeId) {
        self.known_sos.insert(node);
    }

    /// Records a break-in attempt and its result.
    ///
    /// # Panics
    ///
    /// Panics if the node was already attempted — the attacker never
    /// attacks a node twice (the paper's assumption), so a repeat is a
    /// caller bug.
    pub fn record_attempt(&mut self, node: NodeId, succeeded: bool) {
        assert!(
            self.attempted.insert(node),
            "{node} was attempted twice"
        );
        self.pending.remove(node);
        if succeeded {
            self.broken.insert(node);
        }
    }

    /// Whether the attacker has already attempted this node.
    pub fn has_attempted(&self, node: NodeId) -> bool {
        self.attempted.contains(node)
    }

    /// Whether the attacker knows this node is part of the architecture.
    pub fn knows(&self, node: NodeId) -> bool {
        self.known_sos.contains(node)
    }

    /// Nodes attempted so far (successfully or not).
    pub fn attempted(&self) -> &NodeBitSet {
        &self.attempted
    }

    /// Nodes broken into.
    pub fn broken(&self) -> &NodeBitSet {
        &self.broken
    }

    /// Disclosed nodes not yet attacked (`X_j`).
    pub fn pending(&self) -> &NodeBitSet {
        &self.pending
    }

    /// Every node whose SOS/filter membership the attacker has learned;
    /// the congestion targets are `known_sos \ broken`.
    pub fn known_sos(&self) -> &NodeBitSet {
        &self.known_sos
    }
}

/// Per-worker reusable attack state: the knowledge bitsets, the
/// sampler, the rank/select directory and the target buffers behind
/// every attacker's `execute_into`. Each attack clears what it uses, so
/// one scratch (starting from `default()`) serves trials of any overlay
/// size and, once grown, allocates nothing but the returned outcome.
#[derive(Debug, Clone, Default)]
pub struct AttackScratch {
    pub(crate) knowledge: AttackerKnowledge,
    pub(crate) pool: Pool,
    /// The round's deterministic targets (Algorithm 1's `X_j`, or the
    /// Case 4 sample of it).
    pub(crate) pending: Vec<NodeId>,
    /// Drawn targets of the current phase, in draw order.
    pub(crate) picks: Vec<NodeId>,
}

/// The draw machinery of [`AttackScratch`], split from the knowledge so
/// a draw over knowledge-derived words can borrow both.
#[derive(Debug, Clone, Default)]
pub(crate) struct Pool {
    pub(crate) sampler: IndexSampler,
    pub(crate) ranks: Vec<usize>,
    select: WordSelect,
    ids: Vec<u32>,
}

impl Pool {
    /// Draws `min(k, members)` distinct members of the word stream
    /// `words` into `out` (cleared first), in draw order.
    ///
    /// This is `sample_from` over the ascending member list without the
    /// list: bit index order is rank order, so the `gen_range(i..n)`
    /// calls and the picks are the same. A dense draw shuffles the
    /// materialized indices; a sparse one `select`s each drawn rank.
    pub(crate) fn draw<R: Rng + ?Sized>(
        &mut self,
        words: impl Iterator<Item = u64>,
        rng: &mut R,
        k: usize,
        out: &mut Vec<NodeId>,
    ) {
        self.select.rebuild(words);
        let n = self.select.count();
        let k = k.min(n);
        out.clear();
        if k * 16 >= n {
            self.select.indices_into(&mut self.ids);
            for i in 0..k {
                let j = rng.gen_range(i..n);
                self.ids.swap(i, j);
                out.push(NodeId(self.ids[i]));
            }
        } else {
            self.sampler.sample_indices_into(rng, n, k, &mut self.ranks);
            out.extend(self.ranks.iter().map(|&r| NodeId(self.select.select(r) as u32)));
        }
    }
}

/// Words `0..⌈n/64⌉` of `word(wi)` with bits at and above `n` masked
/// off: a word stream over the overlay id range `0..n`.
pub(crate) fn overlay_words(n: usize, word: impl Fn(usize) -> u64) -> impl Iterator<Item = u64> {
    (0..n.div_ceil(64)).map(move |wi| {
        let live = n - wi * 64;
        let mask = if live >= 64 { !0 } else { (1u64 << live) - 1 };
        word(wi) & mask
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The congestion targets: known nodes that were not broken into.
    fn targets(k: &AttackerKnowledge) -> Vec<NodeId> {
        k.known_sos().difference_iter(k.broken()).collect()
    }

    #[test]
    fn disclosure_feeds_pending() {
        let mut k = AttackerKnowledge::default();
        k.disclose(NodeId(3));
        k.disclose(NodeId(5));
        assert!(k.knows(NodeId(3)));
        assert_eq!(k.pending().len(), 2);
        assert_eq!(k.pending().to_sorted_vec(), vec![NodeId(3), NodeId(5)]);
    }

    #[test]
    fn attempts_clear_pending() {
        let mut k = AttackerKnowledge::default();
        k.disclose(NodeId(1));
        k.record_attempt(NodeId(1), false);
        assert!(k.pending().is_empty());
        assert!(k.has_attempted(NodeId(1)));
        assert!(!k.broken().contains(NodeId(1)));
    }

    #[test]
    fn disclosure_after_attempt_not_pending_but_targeted() {
        let mut k = AttackerKnowledge::default();
        k.record_attempt(NodeId(9), false);
        k.disclose(NodeId(9)); // learned later that it is an SOS node
        assert!(k.pending().is_empty(), "already attempted");
        assert_eq!(targets(&k), vec![NodeId(9)]);
    }

    #[test]
    fn broken_nodes_never_congestion_targets() {
        let mut k = AttackerKnowledge::default();
        k.disclose(NodeId(2));
        k.record_attempt(NodeId(2), true);
        k.disclose(NodeId(4));
        assert_eq!(targets(&k), vec![NodeId(4)]);
    }

    #[test]
    #[should_panic(expected = "attempted twice")]
    fn double_attempt_panics() {
        let mut k = AttackerKnowledge::default();
        k.record_attempt(NodeId(1), false);
        k.record_attempt(NodeId(1), true);
    }

    #[test]
    fn bitset_knowledge_matches_reference_hashset_model() {
        // Drive the knowledge API and an independent HashSet model with
        // the same operation stream and demand identical observable
        // state throughout — the NodeBitSet-vs-HashSet churn guarantee.
        use rand::{Rng, SeedableRng};
        use std::collections::HashSet;
        let mut rng = rand::rngs::StdRng::seed_from_u64(33);
        let mut k = AttackerKnowledge::default();
        let mut attempted: HashSet<NodeId> = HashSet::new();
        let mut broken: HashSet<NodeId> = HashSet::new();
        let mut known: HashSet<NodeId> = HashSet::new();
        let mut pending: HashSet<NodeId> = HashSet::new();
        for _ in 0..4_000 {
            let node = NodeId(rng.gen_range(0..600u32));
            match rng.gen_range(0..3u8) {
                0 => {
                    k.disclose(node);
                    known.insert(node);
                    if !attempted.contains(&node) {
                        pending.insert(node);
                    }
                }
                1 => {
                    k.disclose_unbreakable(node);
                    known.insert(node);
                }
                _ => {
                    if attempted.contains(&node) {
                        assert!(k.has_attempted(node));
                        continue;
                    }
                    let succeeded = rng.gen::<bool>();
                    k.record_attempt(node, succeeded);
                    attempted.insert(node);
                    pending.remove(&node);
                    if succeeded {
                        broken.insert(node);
                    }
                }
            }
            assert_eq!(k.attempted().len(), attempted.len());
            assert_eq!(k.broken().len(), broken.len());
            assert_eq!(k.pending().len(), pending.len());
        }
        let sorted = |s: &HashSet<NodeId>| {
            let mut v: Vec<NodeId> = s.iter().copied().collect();
            v.sort_unstable();
            v
        };
        assert_eq!(k.pending().to_sorted_vec(), sorted(&pending));
        assert_eq!(k.attempted().to_sorted_vec(), sorted(&attempted));
        assert_eq!(k.broken().to_sorted_vec(), sorted(&broken));
        let expect_targets = sorted(&known.difference(&broken).copied().collect());
        assert_eq!(targets(&k), expect_targets);
    }
}
