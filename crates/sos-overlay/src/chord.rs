//! A Chord distributed hash table (Stoica et al., SIGCOMM 2001).
//!
//! The original SOS architecture routes between overlay layers over
//! Chord: a beacon is "the node whose Chord identifier owns the hash of
//! the target's name", and every inter-layer message traverses `O(log N)`
//! Chord hops. The ICDCS analysis abstracts each traversal into a single
//! logical hop; this module restores the substrate so the simulator can
//! also measure what the abstraction hides (compromised *intermediate*
//! hops — the `ablation-chord` experiment).
//!
//! The implementation is a faithful, simulation-grade Chord:
//!
//! * 64-bit circular identifier space,
//! * fingers (`finger[k] = successor(id + 2^k)`) and successor lists
//!   for fault tolerance, held together as one flat table of sorted
//!   clockwise position offsets per node (the successor list is the
//!   implicit prefix `1..=L`),
//! * iterative greedy lookup via closest-preceding-finger,
//! * failure-aware lookup that routes around dead nodes using fingers
//!   and successor lists,
//! * `join` / `leave` membership changes.
//!
//! Lookups are performed centrally over the ring state (this is a
//! simulator, not a networked implementation), but only ever use the
//! state a real Chord node would have: its own fingers and successor
//! list.

use crate::bitset::NodeBitSet;
use crate::node::NodeId;
use rand::Rng;
use std::collections::HashSet;
use std::ops::Range;

/// Bits in the identifier space (and maximum finger-table size).
pub const ID_BITS: usize = 64;

/// Successor-list length (Chord recommends `Ω(log N)`; 16 covers the
/// simulation scales used here).
pub const SUCCESSOR_LIST_LEN: usize = 16;

/// Result of a successful lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LookupOutcome {
    /// The node owning the key (the key's successor on the ring).
    pub owner: NodeId,
    /// Nodes visited, starting with the querying node and ending with
    /// `owner`.
    pub path: Vec<NodeId>,
}

impl LookupOutcome {
    /// Number of hops taken (edges, i.e. `path.len() - 1`).
    pub fn hops(&self) -> usize {
        self.path.len().saturating_sub(1)
    }
}

/// A Chord ring over a set of overlay nodes.
#[derive(Debug, Clone)]
pub struct ChordRing {
    /// Ring positions sorted by identifier.
    ids: Vec<u64>,
    /// `members[pos]` is the overlay node at ring position `pos`.
    members: Vec<NodeId>,
    /// `position_of[node.index()]` = ring position, `u32::MAX` when the
    /// node is not on the ring (dense map: members are overlay ids).
    position_of: Vec<u32>,
    /// Row starts of the step table (`n + 1` entries): the steps of
    /// `pos` are `step_offs[step_start[pos]..step_start[pos + 1]]`.
    step_start: Vec<u32>,
    /// The distinct clockwise position-offsets of every finger and
    /// successor-list entry of each node, sorted ascending per row. Each
    /// row is `1..=L` (the successor list, `L = min(16, n − 1)`)
    /// followed by the finger offsets past `L`. Ids ascend with ring
    /// position, so the clockwise distance to a key strictly decreases
    /// along the arc from `pos` to the key's owner: the greedy step
    /// (distance-argmin over alive candidates) is the alive entry with
    /// the largest offset not past the owner, found by scanning the row
    /// backward from the owner's offset.
    step_offs: Vec<u32>,
    /// Level-major finger-offset scratch reused by the table build.
    levels: Vec<u32>,
    /// Identifier-draw scratch reused by [`ChordRing::build_into`].
    pairs: Vec<(u64, NodeId)>,
}

/// Draws one distinct uniformly random 64-bit identifier per member into
/// `pairs`, sorted ascending by identifier.
///
/// One draw per member, then a sort; identifier collisions among `n`
/// uniform `u64` draws have probability ≈ `n²/2⁶⁵` (≈ 5·10⁻¹² at
/// n = 10⁴), but determinism demands a defined resolution: any id equal
/// to its sorted predecessor is re-rolled and the sort repeated until
/// all are distinct. [`ChordRing::build_into`] and
/// [`ChordRing::build_reference`] share this helper so their RNG
/// consumption stays draw-for-draw identical.
fn draw_ring_ids<R: Rng + ?Sized>(rng: &mut R, members: &[NodeId], pairs: &mut Vec<(u64, NodeId)>) {
    pairs.clear();
    pairs.reserve(members.len());
    for &m in members {
        pairs.push((rng.gen::<u64>(), m));
    }
    pairs.sort_unstable_by_key(|&(id, _)| id);
    loop {
        let mut collided = false;
        for i in 1..pairs.len() {
            if pairs[i].0 == pairs[i - 1].0 {
                pairs[i].0 = rng.gen::<u64>();
                collided = true;
            }
        }
        if !collided {
            break;
        }
        pairs.sort_unstable_by_key(|&(id, _)| id);
    }
}

impl ChordRing {
    /// Builds a ring over `members`, assigning each a distinct uniformly
    /// random 64-bit identifier drawn from `rng`.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty or contains duplicates.
    pub fn build<R: Rng + ?Sized>(rng: &mut R, members: &[NodeId]) -> Self {
        let mut ring = ChordRing::empty();
        ring.build_into(rng, members);
        ring
    }

    fn empty() -> Self {
        ChordRing {
            ids: Vec::new(),
            members: Vec::new(),
            position_of: Vec::new(),
            step_start: Vec::new(),
            step_offs: Vec::new(),
            levels: Vec::new(),
            pairs: Vec::new(),
        }
    }

    /// Rebuilds this ring in place over `members`, reusing every existing
    /// allocation (identifier table, step table, draw scratch).
    ///
    /// Consumes the RNG identically to [`ChordRing::build`], so a reused
    /// ring is indistinguishable from a freshly built one at the same RNG
    /// state — the zero-rebuild trial engine relies on this.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty or contains duplicates.
    pub fn build_into<R: Rng + ?Sized>(&mut self, rng: &mut R, members: &[NodeId]) {
        assert!(!members.is_empty(), "a Chord ring needs at least one node");

        draw_ring_ids(rng, members, &mut self.pairs);

        self.ids.clear();
        self.ids.extend(self.pairs.iter().map(|&(id, _)| id));
        self.members.clear();
        self.members.extend(self.pairs.iter().map(|&(_, m)| m));
        self.rebuild_tables();
    }

    /// Number of nodes on the ring.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the ring is empty (never true for a built ring, but part
    /// of the conventional pair with [`len`](Self::len)).
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Ring position of `node`, if it is on the ring.
    #[inline]
    fn position(&self, node: NodeId) -> Option<usize> {
        self.position_of
            .get(node.index())
            .and_then(|&p| (p != u32::MAX).then_some(p as usize))
    }

    /// The Chord identifier of a member.
    pub fn id_of(&self, node: NodeId) -> Option<u64> {
        self.position(node).map(|p| self.ids[p])
    }

    /// Whether `node` is on the ring.
    pub fn contains(&self, node: NodeId) -> bool {
        self.position(node).is_some()
    }

    /// The node owning `key` — the first node whose identifier is `>=
    /// key` (wrapping), found by direct successor scan. This is the
    /// correctness oracle for [`lookup`](Self::lookup).
    pub fn owner_of(&self, key: u64) -> NodeId {
        self.members[self.successor_position(key)]
    }

    /// The immediate ring successor of a member node (the node itself
    /// on a single-node ring).
    ///
    /// # Panics
    ///
    /// Panics if `node` is not on the ring.
    pub fn successor(&self, node: NodeId) -> NodeId {
        let pos = self
            .position(node)
            .unwrap_or_else(|| panic!("{node} is not on the ring"));
        self.members[(pos + 1) % self.len()]
    }

    /// Iterative Chord lookup of `key` starting at `from`, assuming all
    /// nodes are alive.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not on the ring.
    pub fn lookup(&self, from: NodeId, key: u64) -> LookupOutcome {
        self.lookup_avoiding(from, key, |_| true)
            .expect("lookup with all nodes alive cannot fail")
    }

    /// Failure-aware lookup: only routes through nodes for which
    /// `is_alive` returns `true` (the starting node is assumed alive —
    /// it is the one querying). Returns `None` when every remaining
    /// route is blocked or the key's owner itself is dead.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not on the ring.
    pub fn lookup_avoiding<F>(&self, from: NodeId, key: u64, is_alive: F) -> Option<LookupOutcome>
    where
        F: Fn(NodeId) -> bool,
    {
        let mut path = Vec::new();
        let (owner, _) = self.walk(from, key, &is_alive, true, Some(&mut path))?;
        Some(LookupOutcome { owner, path })
    }

    /// Allocation-free variant of [`ChordRing::lookup_avoiding`] for hot
    /// paths that only need the owner and hop count: returns
    /// `(owner, hops)` without materializing the visited path. Takes the
    /// same routing decisions, so `lookup_avoiding_hops(..) ==
    /// lookup_avoiding(..).map(|o| (o.owner, o.hops()))`.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not on the ring.
    pub fn lookup_avoiding_hops<F>(
        &self,
        from: NodeId,
        key: u64,
        is_alive: F,
    ) -> Option<(NodeId, usize)>
    where
        F: Fn(NodeId) -> bool,
    {
        self.walk(from, key, &is_alive, true, None)
    }

    /// Degraded-mode lookup: ignore finger tables entirely and walk
    /// successor lists clockwise from `from` until the key's owner is
    /// reached. O(n) hops instead of O(log n), but each step needs only
    /// one alive entry in the local successor list — the
    /// graceful-degradation fallback when greedy finger routing is
    /// blocked. Returns `None` when the owner is dead or a gap of
    /// `SUCCESSOR_LIST_LEN` consecutive dead nodes severs the walk.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not on the ring.
    pub fn successor_walk<F>(&self, from: NodeId, key: u64, is_alive: F) -> Option<LookupOutcome>
    where
        F: Fn(NodeId) -> bool,
    {
        let mut path = Vec::new();
        let (owner, _) = self.walk(from, key, &is_alive, false, Some(&mut path))?;
        Some(LookupOutcome { owner, path })
    }

    /// Allocation-free variant of [`ChordRing::successor_walk`] for hot
    /// paths that only need the owner and hop count.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not on the ring.
    pub fn successor_walk_hops<F>(
        &self,
        from: NodeId,
        key: u64,
        is_alive: F,
    ) -> Option<(NodeId, usize)>
    where
        F: Fn(NodeId) -> bool,
    {
        self.walk(from, key, &is_alive, false, None)
    }

    /// The walk behind the four lookups: greedy finger steps, or
    /// successor-list steps when `greedy` is false. Records the visited
    /// members into `path` when given and returns `(owner, hops)`, or
    /// `None` when the owner is dead or the walk is blocked.
    fn walk<F>(
        &self,
        from: NodeId,
        key: u64,
        is_alive: &F,
        greedy: bool,
        mut path: Option<&mut Vec<NodeId>>,
    ) -> Option<(NodeId, usize)>
    where
        F: Fn(NodeId) -> bool,
    {
        let mut pos = self
            .position(from)
            .unwrap_or_else(|| panic!("{from} is not on the ring"));
        let owner_pos = self.successor_position(key);
        let owner = self.members[owner_pos];
        if !is_alive(owner) {
            return None;
        }
        if let Some(path) = path.as_deref_mut() {
            path.push(self.members[pos]);
        }
        // Greedy routing strictly shrinks clockwise distance to the key,
        // so n hops is a hard upper bound; the explicit cap also guards
        // the degenerate everything-dead cases. A successor-list step
        // advances at least one position, so n steps come full circle.
        let max_hops = self.len() + if greedy { SUCCESSOR_LIST_LEN + 1 } else { 0 };
        for hops in 0..max_hops {
            if pos == owner_pos {
                return Some((owner, hops));
            }
            let next = if greedy {
                self.best_alive_step(pos, owner_pos, is_alive)?
            } else {
                // The first alive successor can never step past the
                // alive owner (the entry *is* the owner when every
                // position in between is dead).
                self.successor_list(pos)
                    .find(|&s| s == owner_pos || is_alive(self.members[s]))?
            };
            debug_assert_ne!(next, pos, "routing must make progress");
            pos = next;
            if let Some(path) = path.as_deref_mut() {
                path.push(self.members[pos]);
            }
        }
        None
    }

    /// Adds a node with a fresh random identifier and rebuilds routing
    /// state (the simulation-grade equivalent of join + stabilization).
    ///
    /// # Panics
    ///
    /// Panics if `node` is already on the ring.
    pub fn join<R: Rng + ?Sized>(&mut self, rng: &mut R, node: NodeId) {
        assert!(!self.contains(node), "{node} already joined");
        let mut id = rng.gen::<u64>();
        while self.ids.binary_search(&id).is_ok() {
            id = rng.gen::<u64>();
        }
        let insert_at = self.ids.partition_point(|&x| x < id);
        self.ids.insert(insert_at, id);
        self.members.insert(insert_at, node);
        self.rebuild_tables();
    }

    /// Removes a node and rebuilds routing state.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not on the ring or is the last node.
    pub fn leave(&mut self, node: NodeId) {
        let pos = self
            .position(node)
            .unwrap_or_else(|| panic!("{node} is not on the ring"));
        assert!(self.len() > 1, "cannot remove the last ring node");
        self.ids.remove(pos);
        self.members.remove(pos);
        self.rebuild_tables();
    }

    /// Position of the first node with identifier `>= key` (wrapping).
    fn successor_position(&self, key: u64) -> usize {
        successor_position_in(&self.ids, key)
    }

    /// The successor list of `pos`: the next `min(16, n − 1)` positions.
    fn successor_list(&self, pos: usize) -> impl Iterator<Item = usize> {
        let n = self.len();
        (1..=SUCCESSOR_LIST_LEN.min(n - 1)).map(move |k| (pos + k) % n)
    }

    /// The step-table row of `pos` (see the `step_offs` field).
    #[inline]
    fn steps(&self, pos: usize) -> &[u32] {
        &self.step_offs[self.step_start[pos] as usize..self.step_start[pos + 1] as usize]
    }

    /// The best alive next hop from `pos` toward `key` (whose owner is
    /// at `owner_pos`).
    ///
    /// Classic Chord greedy step: jump straight to the key's owner if it
    /// is in our routing state; otherwise move to the alive finger or
    /// successor-list entry that is the closest *preceding* node of the
    /// key (strictly closer than we are). The clockwise distance to the
    /// key strictly decreases every step, which guarantees termination.
    ///
    /// Resolved via the precomputed offset table: ids ascend with ring
    /// position, so candidates in the arc `(pos, owner_pos]` are exactly
    /// those strictly closer to the key than `pos` (the owner counted by
    /// fiat), and distance decreases with offset along that arc — the
    /// distance-argmin over alive candidates is the alive entry with the
    /// largest offset not past the owner. A backward scan finds it in a
    /// handful of probes instead of a distance computation per entry.
    fn best_alive_step<F>(&self, pos: usize, owner_pos: usize, is_alive: &F) -> Option<usize>
    where
        F: Fn(NodeId) -> bool,
    {
        let n = self.len();
        let owner_off = (owner_pos + n - pos) % n;
        let offs = self.steps(pos);
        let hi = offs.partition_point(|&o| (o as usize) <= owner_off);
        for &o in offs[..hi].iter().rev() {
            let mut cand = pos + o as usize;
            if cand >= n {
                cand -= n;
            }
            if is_alive(self.members[cand]) {
                return Some(cand);
            }
        }
        None
    }

    /// Rebuilds the position map and the step table from `ids`/`members`,
    /// reusing existing allocations.
    ///
    /// The table is built without a sort. Finger targets `ids[p] + 2^k`
    /// move clockwise as `k` grows, so a node's finger offsets never
    /// decrease with `k` — until a target passes the predecessor and
    /// wraps to the node itself, which is dropped. A row is therefore
    /// `1..=L` followed by every finger offset above the last one
    /// emitted: already sorted and distinct.
    ///
    /// Levels with `2^k` at or below the smallest span `ids[p + L] −
    /// ids[p]` land inside every node's successor list and are skipped
    /// (about 54 of the 64 at n = 10⁴). Each remaining level is resolved
    /// for every node at once: the targets ascend in `p` (up to one wrap
    /// split), so a forward merge against `ids` finds them all in O(n).
    /// The levels land in a level-major scratch, and one node-major pass
    /// emits the rows. The result equals the exhaustive per-`k` scan of
    /// [`ChordRing::build_reference`] (see the oracle tests).
    ///
    /// # Panics
    ///
    /// Panics if `members` contains duplicates.
    fn rebuild_tables(&mut self) {
        let n = self.len();

        // Dense position map (u32::MAX = absent). Refill from scratch;
        // the table is sized to the largest member id.
        let max_index = self.members.iter().map(|m| m.index()).max().unwrap_or(0);
        self.position_of.clear();
        self.position_of.resize(max_index + 1, u32::MAX);
        for (p, &m) in self.members.iter().enumerate() {
            let slot = &mut self.position_of[m.index()];
            assert_eq!(*slot, u32::MAX, "duplicate members");
            *slot = p as u32;
        }

        let ids = &self.ids;
        let list_len = SUCCESSOR_LIST_LEN.min(n - 1);
        // Smallest clockwise span from a node to its last successor-list
        // entry (0 on a single-node ring, where every finger is the node
        // itself). Levels `2^k <= min_span` add nothing to any row.
        let min_span = ids[list_len..]
            .iter()
            .zip(ids)
            .chain(ids[..list_len].iter().zip(&ids[n - list_len..]))
            .map(|(&end, &start)| end.wrapping_sub(start))
            .min()
            .unwrap_or(0);
        let first_level = (u64::BITS - min_span.leading_zeros()) as usize;
        let level_count = ID_BITS - first_level;

        // `levels[r * n + p]` = clockwise offset of finger `first_level + r`
        // of `p`, with `n` standing for the node itself.
        self.levels.clear();
        self.levels.resize(level_count * n, 0);
        let top = ids[n - 1];
        for (r, out) in self.levels.chunks_exact_mut(n).enumerate() {
            let d = 1u64 << (first_level + r);
            // Targets `ids[p] + d` up to `top` resolve by a merge that
            // never runs off the end; larger ones that do not overflow
            // wrap to position 0; overflowing ones wrap past zero and
            // resolve by a second merge, landing at or before `p`.
            let in_range = if top >= d {
                ids.partition_point(|&id| id <= top - d)
            } else {
                0
            };
            let no_overflow = ids.partition_point(|&id| id <= u64::MAX - d);
            merge_level(ids, d, 0..in_range, out);
            for (p, o) in out.iter_mut().enumerate().take(no_overflow).skip(in_range) {
                *o = (n - p) as u32;
            }
            merge_level(ids, d, no_overflow..n, out);
        }

        let level_offs = &self.levels;
        let offs = &mut self.step_offs;
        self.step_start.clear();
        self.step_start.push(0);
        offs.clear();
        offs.reserve(n * (list_len + level_count));
        for p in 0..n {
            offs.extend(1..=list_len as u32);
            let mut last = list_len as u32;
            for i in (p..level_offs.len()).step_by(n) {
                let o = level_offs[i];
                if last < o && o < n as u32 {
                    offs.push(o);
                    last = o;
                }
            }
            self.step_start.push(offs.len() as u32);
        }
    }

    /// Exhaustive reference construction: identical RNG consumption and
    /// output to [`ChordRing::build`], but each node's fingers come from
    /// the original per-`k` binary-search scan and its step row from a
    /// collect, sort and dedup, all freshly allocated. Kept as the
    /// correctness oracle for the sort-free construction and as the
    /// "before" cost model for the perf baseline.
    #[doc(hidden)]
    pub fn build_reference<R: Rng + ?Sized>(rng: &mut R, members: &[NodeId]) -> Self {
        assert!(!members.is_empty(), "a Chord ring needs at least one node");
        let unique: HashSet<_> = members.iter().collect();
        assert_eq!(unique.len(), members.len(), "duplicate members");

        let mut pairs: Vec<(u64, NodeId)> = Vec::new();
        draw_ring_ids(rng, members, &mut pairs);
        Self::reference_from_sorted(
            pairs.iter().map(|&(id, _)| id).collect(),
            pairs.iter().map(|&(_, m)| m).collect(),
        )
    }

    /// The table construction of [`ChordRing::build_reference`] over
    /// given sorted, distinct `ids`.
    fn reference_from_sorted(ids: Vec<u64>, members: Vec<NodeId>) -> Self {
        let n = ids.len();
        // The pre-optimization implementation kept a hash position map.
        let position_map: std::collections::HashMap<NodeId, usize> =
            members.iter().enumerate().map(|(p, &m)| (m, p)).collect();
        let max_index = members.iter().map(|m| m.index()).max().unwrap_or(0);
        let mut position_of = vec![u32::MAX; max_index + 1];
        for (&m, &p) in &position_map {
            position_of[m.index()] = p as u32;
        }
        let mut step_start = vec![0u32];
        let mut step_offs = Vec::new();
        for p in 0..n {
            let fingers =
                (0..ID_BITS).map(|k| successor_position_in(&ids, ids[p].wrapping_add(1u64 << k)));
            let successors = (1..=SUCCESSOR_LIST_LEN.min(n - 1)).map(|k| (p + k) % n);
            let mut row: Vec<u32> = fingers
                .chain(successors)
                .map(|c| ((c + n - p) % n) as u32)
                .filter(|&o| o != 0)
                .collect();
            row.sort_unstable();
            row.dedup();
            step_offs.extend(row);
            step_start.push(step_offs.len() as u32);
        }
        ChordRing {
            ids,
            members,
            position_of,
            step_start,
            step_offs,
            levels: Vec::new(),
            pairs: Vec::new(),
        }
    }

    /// Fills `mask` with the ring *positions* whose member satisfies
    /// `is_alive` — the structure-of-arrays liveness form the masked
    /// lookups consume. Word-at-a-time reset, then one probe per
    /// position; the mask is `n` bits (cache-resident even at 10⁴
    /// nodes), so the per-candidate hot-path probe replaces a
    /// `members[cand]` gather plus an overlay status lookup with a
    /// single bit test.
    pub fn fill_alive_positions<F>(&self, is_alive: F, mask: &mut NodeBitSet)
    where
        F: Fn(NodeId) -> bool,
    {
        mask.fill_first(self.len());
        for (pos, &m) in self.members.iter().enumerate() {
            if !is_alive(m) {
                mask.remove_index(pos);
            }
        }
    }

    /// Masked counterpart of [`ChordRing::lookup_avoiding_hops`]:
    /// liveness comes from a position-indexed bit mask (see
    /// [`ChordRing::fill_alive_positions`]) instead of a per-node
    /// closure, with the querying node treated as alive exactly like the
    /// closure form's `n == from` clause. Takes identical routing
    /// decisions, so for a mask filled from the same predicate the
    /// result is bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not on the ring.
    pub fn lookup_avoiding_hops_masked(
        &self,
        from: NodeId,
        key: u64,
        alive: &NodeBitSet,
    ) -> Option<(NodeId, usize)> {
        self.lookup_masked_inner(from, key, alive, None)
    }

    /// [`lookup_avoiding_hops_masked`](Self::lookup_avoiding_hops_masked)
    /// that additionally records the walk's *intermediate* members (the
    /// nodes strictly between `from` and the owner, in walk order) into
    /// `trace` (cleared first).
    ///
    /// The greedy step is memoryless — the choice at a position depends
    /// only on `(position, key, alive)`, with `from` exempted from the
    /// mask — so when `from` itself is alive in the mask, the walk's
    /// suffix from any intermediate `m` (at `h - i` of the walk's `h`
    /// hops) is exactly what a fresh lookup from `m` would take: callers
    /// can cache one traced walk as `h - i` hop answers for every
    /// intermediate, and (on a stuck walk) a blocked answer for each.
    /// When `from` is *not* alive the exemption breaks that suffix
    /// property, so the trace is left empty and only the `from` answer
    /// may be cached.
    pub fn lookup_avoiding_hops_masked_traced(
        &self,
        from: NodeId,
        key: u64,
        alive: &NodeBitSet,
        trace: &mut Vec<NodeId>,
    ) -> Option<(NodeId, usize)> {
        trace.clear();
        self.lookup_masked_inner(from, key, alive, Some(trace))
    }

    fn lookup_masked_inner(
        &self,
        from: NodeId,
        key: u64,
        alive: &NodeBitSet,
        mut trace: Option<&mut Vec<NodeId>>,
    ) -> Option<(NodeId, usize)> {
        let from_pos = self
            .position(from)
            .unwrap_or_else(|| panic!("{from} is not on the ring"));
        if trace.is_some() && !alive.contains_index(from_pos) {
            // Suffix caching is only sound when the `n == from` liveness
            // exemption is vacuous (see the traced variant's docs).
            trace = None;
        }
        let mut pos = from_pos;
        let owner_pos = self.successor_position(key);
        if !(owner_pos == from_pos || alive.contains_index(owner_pos)) {
            return None;
        }
        let owner = self.members[owner_pos];
        let max_hops = self.len() + SUCCESSOR_LIST_LEN + 1;
        for hops in 0..max_hops {
            if pos == owner_pos {
                return Some((owner, hops));
            }
            let next = self.best_alive_step_masked(pos, owner_pos, from_pos, alive)?;
            debug_assert_ne!(next, pos, "routing must make progress");
            pos = next;
            if let Some(t) = trace.as_deref_mut() {
                if pos != owner_pos {
                    t.push(self.members[pos]);
                }
            }
        }
        None
    }

    /// Masked counterpart of [`ChordRing::successor_walk_hops`] (see
    /// [`ChordRing::lookup_avoiding_hops_masked`] for the mask
    /// contract).
    ///
    /// # Panics
    ///
    /// Panics if `from` is not on the ring.
    pub fn successor_walk_hops_masked(
        &self,
        from: NodeId,
        key: u64,
        alive: &NodeBitSet,
    ) -> Option<(NodeId, usize)> {
        let from_pos = self
            .position(from)
            .unwrap_or_else(|| panic!("{from} is not on the ring"));
        let mut pos = from_pos;
        let owner_pos = self.successor_position(key);
        if !(owner_pos == from_pos || alive.contains_index(owner_pos)) {
            return None;
        }
        let owner = self.members[owner_pos];
        for hops in 0..self.len() {
            if pos == owner_pos {
                return Some((owner, hops));
            }
            let next = self
                .successor_list(pos)
                .find(|&s| s == owner_pos || s == from_pos || alive.contains_index(s))?;
            pos = next;
        }
        None
    }

    /// [`ChordRing::best_alive_step`] over a position-indexed liveness
    /// mask (`from_pos` counts as alive). Same backward offset-table
    /// scan; the typical step costs one or two mask probes.
    fn best_alive_step_masked(
        &self,
        pos: usize,
        owner_pos: usize,
        from_pos: usize,
        alive: &NodeBitSet,
    ) -> Option<usize> {
        let n = self.len();
        let owner_off = (owner_pos + n - pos) % n;
        let offs = self.steps(pos);
        let hi = offs.partition_point(|&o| (o as usize) <= owner_off);
        for &o in offs[..hi].iter().rev() {
            let mut cand = pos + o as usize;
            if cand >= n {
                cand -= n;
            }
            if cand == from_pos || alive.contains_index(cand) {
                return Some(cand);
            }
        }
        None
    }
}

/// Resolves finger level `d` for the positions in `range`, whose targets
/// `ids[p] + d` (wrapping) ascend with `p`: `out[p]` becomes the clockwise
/// offset from `p` of the first position `q` with `ids[q]` at or past the
/// target, `n` standing for `p` itself.
///
/// A forward merge: each step either advances `q` past an id below the
/// target or settles `p`, branch-free. The two halves of `range` merge
/// in lockstep so that their load-compare chains overlap.
fn merge_level(ids: &[u64], d: u64, range: Range<usize>, out: &mut [u32]) {
    let n = ids.len();
    let lane = |p: usize, end: usize| {
        let q = if p < end {
            ids.partition_point(|&id| id < ids[p].wrapping_add(d))
        } else {
            0
        };
        (p, end, q)
    };
    let mid = range.start + range.len() / 2;
    let mut lanes = [lane(range.start, mid), lane(mid, range.end)];
    let step = |(p, _, q): &mut (usize, usize, usize), out: &mut [u32]| {
        let advance = ids[*q] < ids[*p].wrapping_add(d);
        out[*p] = if *q > *p { *q - *p } else { *q + n - *p } as u32;
        *q += advance as usize;
        *p += !advance as usize;
    };
    while lanes.iter().all(|l| l.0 < l.1) {
        for l in &mut lanes {
            step(l, out);
        }
    }
    for l in &mut lanes {
        while l.0 < l.1 {
            step(l, out);
        }
    }
}

/// Position of the first id `>= key` in the sorted `ids` (wrapping).
fn successor_position_in(ids: &[u64], key: u64) -> usize {
    let p = ids.partition_point(|&x| x < key);
    if p == ids.len() {
        0
    } else {
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ring(n: u32, seed: u64) -> ChordRing {
        let members: Vec<NodeId> = (0..n).map(NodeId).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        ChordRing::build(&mut rng, &members)
    }

    /// Clockwise distance from `a` to `b` on the 2^64 ring.
    fn clockwise_distance(a: u64, b: u64) -> u64 {
        b.wrapping_sub(a)
    }

    /// The greedy step as the pre-offset-table implementation computed
    /// it: scan every finger and successor-list entry, take the owner
    /// outright if present and alive, else the distance-argmin among
    /// alive candidates strictly closer to the key. Oracle for
    /// `best_alive_step_masked`'s backward offset scan; its candidates
    /// come from its own exhaustive finger scan over `ids`, not from
    /// the step table under test.
    fn distance_scan_step(
        r: &ChordRing,
        pos: usize,
        owner_pos: usize,
        key: u64,
        from_pos: usize,
        alive: &NodeBitSet,
    ) -> Option<usize> {
        let my_dist = clockwise_distance(r.ids[pos], key);
        let mut best: Option<(u64, usize)> = None;
        let n = r.len();
        let fingers =
            (0..ID_BITS).map(|k| successor_position_in(&r.ids, r.ids[pos].wrapping_add(1u64 << k)));
        let successors = (1..=SUCCESSOR_LIST_LEN.min(n - 1)).map(|k| (pos + k) % n);
        for cand in fingers.chain(successors) {
            if cand == pos {
                continue;
            }
            if !(cand == from_pos || alive.contains_index(cand)) {
                continue;
            }
            if cand == owner_pos {
                return Some(cand);
            }
            let d = clockwise_distance(r.ids[cand], key);
            if d < my_dist {
                match best {
                    Some((bd, _)) if bd <= d => {}
                    _ => best = Some((d, cand)),
                }
            }
        }
        best.map(|(_, p)| p)
    }

    #[test]
    fn offset_scan_step_matches_distance_scan() {
        for (n, seed) in [(3u32, 11u64), (40, 12), (100, 13), (333, 14)] {
            let r = ring(n, seed);
            let n = n as usize;
            let mut rng = StdRng::seed_from_u64(seed ^ 0xBEEF);
            let mut alive = NodeBitSet::new();
            for _ in 0..400 {
                let salt = rng.gen::<u64>();
                r.fill_alive_positions(|m| (m.0 as u64).wrapping_mul(salt) % 10 < 7, &mut alive);
                let key = rng.gen::<u64>();
                let owner_pos = r.successor_position(key);
                let pos = rng.gen_range(0..n);
                if pos == owner_pos {
                    continue;
                }
                let from_pos = rng.gen_range(0..n);
                assert_eq!(
                    r.best_alive_step_masked(pos, owner_pos, from_pos, &alive),
                    distance_scan_step(&r, pos, owner_pos, key, from_pos, &alive),
                    "n {n} pos {pos} owner {owner_pos} from {from_pos} key {key}"
                );
            }
        }
    }

    #[test]
    fn build_basics() {
        let r = ring(100, 1);
        assert_eq!(r.len(), 100);
        assert!(!r.is_empty());
        assert!(r.contains(NodeId(5)));
        assert!(!r.contains(NodeId(100)));
        assert!(r.id_of(NodeId(5)).is_some());
        assert!(r.id_of(NodeId(100)).is_none());
    }

    #[test]
    fn ids_are_sorted_and_unique() {
        let r = ring(500, 2);
        assert!(r.ids.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn lookup_matches_naive_owner() {
        let r = ring(200, 3);
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..500 {
            let key = rng.gen::<u64>();
            let from = NodeId(rng.gen_range(0..200));
            let out = r.lookup(from, key);
            assert_eq!(out.owner, r.owner_of(key), "key {key}");
            assert_eq!(*out.path.first().unwrap(), from);
            assert_eq!(*out.path.last().unwrap(), out.owner);
        }
    }

    #[test]
    fn lookup_is_logarithmic() {
        let r = ring(1_024, 4);
        let mut rng = StdRng::seed_from_u64(5);
        let mut max_hops = 0;
        for _ in 0..300 {
            let key = rng.gen::<u64>();
            let from = NodeId(rng.gen_range(0..1_024));
            max_hops = max_hops.max(r.lookup(from, key).hops());
        }
        // Chord bound: O(log n) w.h.p.; allow generous slack.
        assert!(max_hops <= 2 * 10, "max hops = {max_hops}");
        assert!(max_hops >= 2, "suspiciously short paths");
    }

    #[test]
    fn lookup_from_owner_is_trivial() {
        let r = ring(50, 6);
        let owner = r.owner_of(12345);
        let key_id = r.id_of(owner).unwrap();
        let out = r.lookup(owner, key_id);
        assert_eq!(out.owner, owner);
        assert_eq!(out.hops(), 0);
    }

    #[test]
    fn lookup_avoiding_routes_around_failures() {
        let r = ring(300, 7);
        let mut rng = StdRng::seed_from_u64(8);
        // Kill 30% of nodes (but never the queried owner or source).
        for trial in 0..100 {
            let key = rng.gen::<u64>();
            let owner = r.owner_of(key);
            let from = NodeId(rng.gen_range(0..300));
            if from == owner {
                continue;
            }
            let dead: HashSet<NodeId> = (0..300u32)
                .map(NodeId)
                .filter(|&n| n != owner && n != from && rng.gen::<f64>() < 0.3)
                .collect();
            let out = r.lookup_avoiding(from, key, |n| !dead.contains(&n));
            let out = out.unwrap_or_else(|| panic!("trial {trial} found no route"));
            assert_eq!(out.owner, owner);
            assert!(out.path.iter().all(|n| !dead.contains(n)));
        }
    }

    #[test]
    fn lookup_avoiding_fails_when_owner_dead() {
        let r = ring(50, 9);
        let key = 42u64;
        let owner = r.owner_of(key);
        let from = r.members.iter().find(|&&m| m != owner).copied().unwrap();
        assert!(r.lookup_avoiding(from, key, |n| n != owner).is_none());
    }

    #[test]
    fn join_inserts_and_keeps_lookups_correct() {
        let mut r = ring(64, 10);
        let mut rng = StdRng::seed_from_u64(11);
        for new in 64..96u32 {
            r.join(&mut rng, NodeId(new));
        }
        assert_eq!(r.len(), 96);
        for _ in 0..200 {
            let key = rng.gen::<u64>();
            let from = NodeId(rng.gen_range(0..96));
            assert_eq!(r.lookup(from, key).owner, r.owner_of(key));
        }
    }

    #[test]
    fn leave_removes_and_keeps_lookups_correct() {
        let mut r = ring(64, 12);
        let mut rng = StdRng::seed_from_u64(13);
        for gone in 0..32u32 {
            r.leave(NodeId(gone));
        }
        assert_eq!(r.len(), 32);
        for _ in 0..200 {
            let key = rng.gen::<u64>();
            let from = NodeId(rng.gen_range(32..64));
            let out = r.lookup(from, key);
            assert_eq!(out.owner, r.owner_of(key));
            assert!(out.path.iter().all(|n| n.0 >= 32));
        }
    }

    #[test]
    fn single_node_ring() {
        let members = [NodeId(7)];
        let mut rng = StdRng::seed_from_u64(14);
        let r = ChordRing::build(&mut rng, &members);
        assert_eq!(r.owner_of(0), NodeId(7));
        let out = r.lookup(NodeId(7), u64::MAX);
        assert_eq!(out.owner, NodeId(7));
        assert_eq!(out.hops(), 0);
        assert_eq!(r.successor(NodeId(7)), NodeId(7));
    }

    #[test]
    #[should_panic(expected = "duplicate members")]
    fn duplicate_members_rejected() {
        let mut rng = StdRng::seed_from_u64(15);
        ChordRing::build(&mut rng, &[NodeId(1), NodeId(1)]);
    }

    #[test]
    #[should_panic(expected = "already joined")]
    fn double_join_rejected() {
        let mut r = ring(4, 16);
        let mut rng = StdRng::seed_from_u64(17);
        r.join(&mut rng, NodeId(0));
    }

    fn assert_same_ring(a: &ChordRing, b: &ChordRing) {
        assert_eq!(a.ids, b.ids);
        assert_eq!(a.members, b.members);
        assert_eq!(a.position_of, b.position_of);
        assert_eq!(a.step_start, b.step_start);
        assert_eq!(a.step_offs, b.step_offs);
    }

    /// Builds rings over the given sorted, distinct `ids` through the
    /// production construction and through the exhaustive reference
    /// scan, asserts they agree and returns the production ring.
    fn assert_construction_matches_reference(ids: &[u64]) -> ChordRing {
        assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "ids must be sorted and distinct"
        );
        let members: Vec<NodeId> = (0..ids.len() as u32).map(NodeId).collect();
        let mut fast = ChordRing::empty();
        fast.ids = ids.to_vec();
        fast.members = members.clone();
        fast.rebuild_tables();
        let reference = ChordRing::reference_from_sorted(ids.to_vec(), members);
        assert_same_ring(&fast, &reference);
        fast
    }

    #[test]
    fn construction_matches_reference_around_successor_list_length() {
        // `L = min(16, n − 1)`: every finger is in the list at n <= 17.
        for n in [2u32, 16, 17, 18] {
            let mut rng = StdRng::seed_from_u64(u64::from(n) + 70);
            let mut ids: Vec<u64> = (0..n).map(|_| rng.gen()).collect();
            ids.sort_unstable();
            assert_construction_matches_reference(&ids);
        }
    }

    #[test]
    fn construction_matches_reference_on_clustered_ids() {
        // Consecutive ids make the smallest span tiny, so nearly every
        // level is resolved, and fingers past the cluster wrap to
        // position 0 (or to the node itself at position 0).
        assert_construction_matches_reference(&[5, 6]);
        assert_construction_matches_reference(&(1000..1040).collect::<Vec<u64>>());
        let mut ids: Vec<u64> = (0..30).collect();
        ids.extend((0..30u64).map(|i| (i + 1) << 58));
        assert_construction_matches_reference(&ids);
    }

    #[test]
    fn construction_matches_reference_across_the_wrap() {
        // Ids straddling 0 / u64::MAX: targets of the top nodes overflow
        // and resolve through the wrapped merge segment, and the tightest
        // successor-list span is one that crosses zero.
        let mut ids: Vec<u64> = (0..10).chain((0..10).map(|i| u64::MAX - i)).collect();
        ids.extend([1 << 62, 1 << 63, (1 << 63) + 1, u64::MAX / 3]);
        ids.sort_unstable();
        assert_construction_matches_reference(&ids);
    }

    #[test]
    fn construction_drops_a_top_finger_wrapped_to_self() {
        // Position 0's predecessor gap exceeds 2^63, so its 2^63 finger
        // passes every other node and lands on itself (offset 0).
        let ids: Vec<u64> = (0..30u64).map(|i| i << 40).collect();
        let fast = assert_construction_matches_reference(&ids);
        assert!(fast.steps(0).iter().all(|&o| o != 0 && o < 30));
    }

    #[test]
    fn gap_shortcut_matches_reference_construction() {
        for (n, seed) in [
            (1u32, 0u64),
            (2, 1),
            (3, 2),
            (17, 3),
            (64, 4),
            (500, 5),
            (10_000, 6),
        ] {
            let members: Vec<NodeId> = (0..n).map(NodeId).collect();
            let mut rng_a = StdRng::seed_from_u64(seed);
            let mut rng_b = StdRng::seed_from_u64(seed);
            let fast = ChordRing::build(&mut rng_a, &members);
            let reference = ChordRing::build_reference(&mut rng_b, &members);
            assert_same_ring(&fast, &reference);
            assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>());
        }
    }

    #[test]
    fn build_into_reuse_matches_fresh_build() {
        // Dirty the reused ring with a different membership first.
        let mut reused = ring(300, 42);
        for (n, seed) in [(1u32, 6u64), (64, 7), (200, 8), (512, 9)] {
            let members: Vec<NodeId> = (0..n).map(NodeId).collect();
            let mut rng_a = StdRng::seed_from_u64(seed);
            let mut rng_b = StdRng::seed_from_u64(seed);
            let fresh = ChordRing::build(&mut rng_a, &members);
            reused.build_into(&mut rng_b, &members);
            assert_same_ring(&fresh, &reused);
            assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>());
        }
    }

    #[test]
    fn hops_variants_match_path_variants() {
        let r = ring(300, 21);
        let mut rng = StdRng::seed_from_u64(22);
        for _ in 0..200 {
            let key = rng.gen::<u64>();
            let from = NodeId(rng.gen_range(0..300));
            let dead: HashSet<NodeId> = (0..300u32)
                .map(NodeId)
                .filter(|&n| n != from && rng.gen::<f64>() < 0.3)
                .collect();
            let alive = |n: NodeId| !dead.contains(&n);
            let full = r.lookup_avoiding(from, key, alive);
            let lean = r.lookup_avoiding_hops(from, key, alive);
            assert_eq!(full.as_ref().map(|o| (o.owner, o.hops())), lean);
            let full = r.successor_walk(from, key, alive);
            let lean = r.successor_walk_hops(from, key, alive);
            assert_eq!(full.as_ref().map(|o| (o.owner, o.hops())), lean);
        }
    }

    #[test]
    fn masked_lookups_match_closure_lookups() {
        let r = ring(300, 31);
        let mut rng = StdRng::seed_from_u64(32);
        let mut mask = NodeBitSet::new();
        for _ in 0..200 {
            let key = rng.gen::<u64>();
            let from = NodeId(rng.gen_range(0..300));
            // Kill 30% — sometimes including `from` itself, which the
            // closure form treats as alive via the `n == from` clause.
            let dead: HashSet<NodeId> = (0..300u32)
                .map(NodeId)
                .filter(|_| rng.gen::<f64>() < 0.3)
                .collect();
            let alive = |n: NodeId| n == from || !dead.contains(&n);
            r.fill_alive_positions(|n| !dead.contains(&n), &mut mask);
            assert_eq!(
                r.lookup_avoiding_hops(from, key, alive),
                r.lookup_avoiding_hops_masked(from, key, &mask)
            );
            assert_eq!(
                r.successor_walk_hops(from, key, alive),
                r.successor_walk_hops_masked(from, key, &mask)
            );
        }
    }

    #[test]
    fn traced_lookup_suffixes_match_fresh_lookups() {
        // The suffix-splice contract: a traced walk's intermediate `i`
        // must answer a fresh lookup with the walk's remaining hops
        // (delivered) or a blocked walk of its own (stuck) — and an
        // origin dead in the mask must leave the trace empty.
        let r = ring(300, 51);
        let mut rng = StdRng::seed_from_u64(52);
        let mut mask = NodeBitSet::new();
        let mut trace = Vec::new();
        let mut spliced = 0u32;
        for _ in 0..200 {
            let key = rng.gen::<u64>();
            let from = NodeId(rng.gen_range(0..300));
            let dead: HashSet<NodeId> = (0..300u32)
                .map(NodeId)
                .filter(|_| rng.gen::<f64>() < 0.3)
                .collect();
            r.fill_alive_positions(|n| !dead.contains(&n), &mut mask);
            let out = r.lookup_avoiding_hops_masked_traced(from, key, &mask, &mut trace);
            assert_eq!(out, r.lookup_avoiding_hops_masked(from, key, &mask));
            if dead.contains(&from) {
                assert!(trace.is_empty(), "dead origin must not trace");
                continue;
            }
            for (i, &mid) in trace.iter().enumerate() {
                spliced += 1;
                let fresh = r.lookup_avoiding_hops_masked(mid, key, &mask);
                match out {
                    Some((owner, hops)) => {
                        assert!(!trace.contains(&owner), "trace holds intermediates only");
                        assert_eq!(fresh, Some((owner, hops - (i + 1))));
                    }
                    None => assert_eq!(fresh, None),
                }
            }
        }
        assert!(spliced > 100, "walks should yield intermediates: {spliced}");
    }

    #[test]
    fn rebuild_across_sizes_keeps_step_rows_correct() {
        // A reused ring shrinks and grows its flat step table; cycle
        // through sizes (n, other n, back) and check every row starts
        // with its successor list and ascends strictly within `1..n`.
        let mut r = ring(64, 40);
        for n in [64u32, 64, 200, 17, 17, 1, 64] {
            let members: Vec<NodeId> = (0..n).map(NodeId).collect();
            let mut rng = StdRng::seed_from_u64(u64::from(n) + 1000);
            r.build_into(&mut rng, &members);
            let n = n as usize;
            let list_len = SUCCESSOR_LIST_LEN.min(n - 1);
            assert_eq!(r.step_start.len(), n + 1);
            assert_eq!(*r.step_start.last().unwrap() as usize, r.step_offs.len());
            for p in 0..n {
                let row = r.steps(p);
                let expect: Vec<u32> = (1..=list_len as u32).collect();
                assert_eq!(row[..list_len], expect[..], "position {p} of {n}");
                assert!(row.windows(2).all(|w| w[0] < w[1]), "position {p} of {n}");
                assert!(row.iter().all(|&o| (o as usize) < n), "position {p} of {n}");
            }
        }
    }

    #[test]
    fn successor_wraps_around() {
        let r = ring(16, 18);
        // The owner of a key greater than the max id is the smallest id.
        let max_id = *r.ids.last().unwrap();
        if max_id < u64::MAX {
            assert_eq!(r.owner_of(max_id.wrapping_add(1)), r.members[0]);
        }
        // successor(last) = first member.
        let last_member = *r.members.last().unwrap();
        assert_eq!(r.successor(last_member), r.members[0]);
    }
}
