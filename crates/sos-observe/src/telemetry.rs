//! Live telemetry plane: lock-free per-worker runtime counters,
//! wall-clock phase profiling, and progress/ETA reporting.
//!
//! The event/metrics layers in this crate are *post-hoc*: they tell you
//! what a run did after it finished. This module is the *live* side —
//! while a million-trial sweep runs, worker threads bump per-worker
//! [`TelemetrySlot`]s (cache-line-padded relaxed atomics: trials done,
//! routes, batches stolen, cache hits, and per-phase nanosecond clocks
//! fed by [`PhaseTimer`]), and any thread can take a coherent-enough
//! [`TelemetrySnapshot`] to render progress, ETA, utilization, or a
//! per-phase wall-clock profile.
//!
//! Three invariants keep this safe to leave compiled into the hot path:
//!
//! * **Disabled means free.** Telemetry is off by default; every entry
//!   point first reads one relaxed [`AtomicBool`]. A disabled
//!   [`PhaseTimer`] never reads the clock.
//! * **Telemetry observes, never steers.** Nothing here feeds back into
//!   trial execution and nothing draws from the trial RNG streams, so
//!   simulation results are bit-identical with telemetry on or off
//!   (pinned by `tests/telemetry.rs`).
//! * **Counters are additive.** Slots are assigned per *thread*
//!   (round-robin over [`MAX_WORKERS`] slots; beyond that threads
//!   share slots), so per-slot numbers are a partition of the totals —
//!   aggregation is a sum, never a merge conflict.
//!
//! The [`ProgressReporter`] wraps the snapshot/diff API in a background
//! thread: a human-readable progress line on stderr at a fixed
//! interval, plus an optional machine-readable sink (append-only JSONL
//! snapshots, or a Prometheus-style text exposition rewritten in
//! place — chosen by file extension, see [`ReporterOptions::out`]).

use crate::metrics::Histogram;
use std::cell::Cell;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Number of distinct telemetry slots. Threads beyond this share slots
/// round-robin; counters stay correct (they are additive), only the
/// per-worker attribution coarsens.
pub const MAX_WORKERS: usize = 64;

/// Histogram bucket count for per-phase durations: geometric bounds
/// `2^8..=2^31` ns (256 ns .. ~2.1 s) plus overflow.
const PHASE_BUCKETS: usize = 24;

/// The execution phases the engine and attackers attribute wall-clock
/// time to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseKind {
    /// Overlay + ring construction (`build_into`).
    Build,
    /// The attacker's break-in loop (layer traversal).
    BreakIn,
    /// The attacker's congestion phase (flooding known nodes).
    Congestion,
    /// Client routing through the damaged overlay.
    Routing,
}

impl PhaseKind {
    /// Every phase, in display order.
    pub const ALL: [PhaseKind; 4] = [
        PhaseKind::Build,
        PhaseKind::BreakIn,
        PhaseKind::Congestion,
        PhaseKind::Routing,
    ];

    /// Stable label for tables and exposition series.
    pub fn label(&self) -> &'static str {
        match self {
            PhaseKind::Build => "build",
            PhaseKind::BreakIn => "break-in",
            PhaseKind::Congestion => "congestion",
            PhaseKind::Routing => "routing",
        }
    }

    fn index(self) -> usize {
        match self {
            PhaseKind::Build => 0,
            PhaseKind::BreakIn => 1,
            PhaseKind::Congestion => 2,
            PhaseKind::Routing => 3,
        }
    }
}

/// Atomically-accumulated per-phase timing: total nanoseconds, sample
/// count, and a fixed geometric histogram of per-lap durations.
struct PhaseClock {
    total_ns: AtomicU64,
    samples: AtomicU64,
    buckets: [AtomicU64; PHASE_BUCKETS + 1],
}

impl PhaseClock {
    const fn new() -> Self {
        PhaseClock {
            total_ns: AtomicU64::new(0),
            samples: AtomicU64::new(0),
            buckets: [const { AtomicU64::new(0) }; PHASE_BUCKETS + 1],
        }
    }

    fn add(&self, ns: u64) {
        self.total_ns.fetch_add(ns, Relaxed);
        self.samples.fetch_add(1, Relaxed);
        // Bucket k has inclusive upper bound 2^(8+k); ceil(log2) maps a
        // duration to the same bucket `Histogram::record` would pick
        // over `phase_bounds()`.
        let ceil_log2 = 64 - ns.max(1).wrapping_sub(1).leading_zeros() as usize;
        let idx = ceil_log2.saturating_sub(8).min(PHASE_BUCKETS);
        self.buckets[idx].fetch_add(1, Relaxed);
    }
}

/// The f64 bucket bounds matching the phase clocks' geometric layout,
/// for rebuilding a [`Histogram`] from snapshot counts.
pub fn phase_bounds() -> Vec<f64> {
    (8..8 + PHASE_BUCKETS).map(|p| (1u64 << p) as f64).collect()
}

/// One worker thread's live counters. Cache-line-aligned (and padded by
/// its own size) so two workers' hot counters never share a line; all
/// updates are single relaxed atomic adds — no locks, no CAS loops.
#[repr(align(128))]
pub struct TelemetrySlot {
    trials: AtomicU64,
    routes: AtomicU64,
    batches: AtomicU64,
    cache_hits: AtomicU64,
    build_reused: AtomicU64,
    phases: [PhaseClock; PhaseKind::ALL.len()],
}

impl TelemetrySlot {
    const fn new() -> Self {
        TelemetrySlot {
            trials: AtomicU64::new(0),
            routes: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            build_reused: AtomicU64::new(0),
            phases: [const { PhaseClock::new() }; PhaseKind::ALL.len()],
        }
    }

    /// Counts one completed trial.
    #[inline]
    pub fn add_trial(&self) {
        self.trials.fetch_add(1, Relaxed);
    }

    /// Counts `n` routed client messages.
    #[inline]
    pub fn add_routes(&self, n: u64) {
        self.routes.fetch_add(n, Relaxed);
    }

    /// Counts one trial batch claimed from a work-stealing queue.
    #[inline]
    pub fn add_batch(&self) {
        self.batches.fetch_add(1, Relaxed);
    }

    /// Counts `n` sweep points answered from cache/dedup.
    #[inline]
    pub fn add_cache_hits(&self, n: u64) {
        self.cache_hits.fetch_add(n, Relaxed);
    }

    /// Counts one trial whose overlay build was answered by the
    /// engine's per-worker build memo (exact or delta reuse) instead of
    /// a fresh construction.
    #[inline]
    pub fn add_build_reused(&self) {
        self.build_reused.fetch_add(1, Relaxed);
    }

    /// Attributes `ns` nanoseconds of wall clock to `phase`.
    #[inline]
    pub fn add_phase_ns(&self, phase: PhaseKind, ns: u64) {
        self.phases[phase.index()].add(ns);
    }

    /// Busy nanoseconds: the sum over all phase clocks.
    fn busy_ns(&self) -> u64 {
        self.phases.iter().map(|p| p.total_ns.load(Relaxed)).sum()
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static SLOTS: [TelemetrySlot; MAX_WORKERS] = [const { TelemetrySlot::new() }; MAX_WORKERS];
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);
static EXPECTED_TRIALS: AtomicU64 = AtomicU64::new(0);
static EXPECTED_POINTS: AtomicU64 = AtomicU64::new(0);
static POINTS_DONE: AtomicU64 = AtomicU64::new(0);
static POINTS_CACHED: AtomicU64 = AtomicU64::new(0);
// `sosd` robustness counters. Unlike the hot-path worker slots these
// are cold-path events (a shed request, a recovery, a retry), so they
// count unconditionally — the daemon's /metrics and /healthz must show
// them even if the enable flag was toggled around the event.
static SERVE_SHED: AtomicU64 = AtomicU64::new(0);
static SERVE_DEADLINE_EXPIRED: AtomicU64 = AtomicU64::new(0);
static SERVE_RETRIES: AtomicU64 = AtomicU64::new(0);
static SERVE_RECOVERED: AtomicU64 = AtomicU64::new(0);
static SERVE_REBUILDS: AtomicU64 = AtomicU64::new(0);
static SERVE_REQUESTS: [AtomicU64; SERVE_OPS.len()] =
    [const { AtomicU64::new(0) }; SERVE_OPS.len()];
static SERVE_SLOW: AtomicU64 = AtomicU64::new(0);

/// The protocol operations `sosd` counts requests for, in display
/// order (indices match [`TelemetrySnapshot::serve_requests_by_op`]).
pub const SERVE_OPS: [&str; 7] = [
    "ping",
    "analyze",
    "simulate",
    "sweep",
    "profile",
    "shutdown",
    "trace",
];

thread_local! {
    static SLOT_IDX: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// The instant counters are measured against (first telemetry access).
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Turns the telemetry plane on or off. Off (the default) reduces every
/// instrumented call site to one relaxed boolean load; counters are
/// process-cumulative and are *not* reset by toggling.
pub fn set_enabled(on: bool) {
    if on {
        epoch(); // pin the clock epoch before any counter moves
    }
    ENABLED.store(on, Relaxed);
}

/// Whether the telemetry plane is recording.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Relaxed)
}

/// The calling thread's slot, or `None` when telemetry is off — the
/// idiom for hot paths is `if let Some(slot) = telemetry::slot()`.
#[inline]
pub fn slot() -> Option<&'static TelemetrySlot> {
    enabled().then(worker)
}

/// The calling thread's slot (assigned round-robin on first use),
/// regardless of the enabled flag.
pub fn worker() -> &'static TelemetrySlot {
    let idx = SLOT_IDX.with(|cell| {
        let mut idx = cell.get();
        if idx == usize::MAX {
            idx = NEXT_SLOT.fetch_add(1, Relaxed) % MAX_WORKERS;
            cell.set(idx);
        }
        idx
    });
    &SLOTS[idx]
}

/// Announces `n` more trials of planned work (feeds the ETA).
pub fn add_expected_trials(n: u64) {
    if enabled() {
        EXPECTED_TRIALS.fetch_add(n, Relaxed);
    }
}

/// Announces `n` more sweep points of planned work.
pub fn add_expected_points(n: u64) {
    if enabled() {
        EXPECTED_POINTS.fetch_add(n, Relaxed);
    }
}

/// Marks one executed sweep point complete.
pub fn point_done() {
    if enabled() {
        POINTS_DONE.fetch_add(1, Relaxed);
    }
}

/// Marks one sweep point answered from cache/dedup (counts as done, and
/// as a cache hit on the calling thread's slot).
pub fn point_cached() {
    if let Some(slot) = slot() {
        slot.add_cache_hits(1);
        POINTS_DONE.fetch_add(1, Relaxed);
        POINTS_CACHED.fetch_add(1, Relaxed);
    }
}

/// Counts one request shed by the daemon's admission gate (`busy`).
pub fn serve_shed() {
    SERVE_SHED.fetch_add(1, Relaxed);
}

/// Counts one request rejected because its deadline expired before
/// (or while) the daemon could serve it.
pub fn serve_deadline_expired() {
    SERVE_DEADLINE_EXPIRED.fetch_add(1, Relaxed);
}

/// Counts one client-side retry attempt (a re-send beyond a request's
/// first attempt).
pub fn serve_retry() {
    SERVE_RETRIES.fetch_add(1, Relaxed);
}

/// Records `n` cache entries recovered from the journal (or salvaged
/// past corruption) at daemon startup.
pub fn serve_recovered(n: u64) {
    SERVE_RECOVERED.fetch_add(n, Relaxed);
}

/// Counts one executor rebuild after a poisoned lock (a panic left the
/// in-memory state untrustworthy and it was reloaded from the cache).
pub fn serve_rebuild() {
    SERVE_REBUILDS.fetch_add(1, Relaxed);
}

/// Counts one protocol request by operation name. Unknown names are
/// ignored (forward compatibility with ops this build does not know).
pub fn serve_request(op: &str) {
    if let Some(i) = SERVE_OPS.iter().position(|&known| known == op) {
        SERVE_REQUESTS[i].fetch_add(1, Relaxed);
    }
}

/// Counts one request that exceeded the daemon's `--slow-ms`
/// threshold (and was therefore written to the slow-request log).
pub fn serve_slow_request() {
    SERVE_SLOW.fetch_add(1, Relaxed);
}

/// Measures wall-clock spans between instrumented points and attributes
/// them to [`PhaseKind`]s on the calling thread's slot.
///
/// A timer started while telemetry is disabled holds no instant and
/// every call is a no-op — the hot path pays one branch. `lap`
/// attributes the time since the previous lap (or start) and re-arms;
/// `reset` re-arms without attributing, for spans that belong to no
/// phase (or that an inner timer already covered).
pub struct PhaseTimer {
    last: Option<Instant>,
}

impl PhaseTimer {
    /// Starts a timer (inert when telemetry is off).
    #[inline]
    pub fn start() -> Self {
        PhaseTimer {
            last: enabled().then(Instant::now),
        }
    }

    /// Attributes the span since the last lap/start to `phase`.
    #[inline]
    pub fn lap(&mut self, phase: PhaseKind) {
        if let Some(prev) = self.last {
            let now = Instant::now();
            worker().add_phase_ns(phase, (now - prev).as_nanos() as u64);
            self.last = Some(now);
        }
    }

    /// Re-arms the timer without attributing the elapsed span.
    #[inline]
    pub fn reset(&mut self) {
        if self.last.is_some() {
            self.last = Some(Instant::now());
        }
    }
}

/// Aggregated view of one phase at snapshot time.
#[derive(Debug, Clone)]
pub struct PhaseSnapshot {
    /// Which phase this is.
    pub phase: PhaseKind,
    /// Total attributed wall clock, summed over workers.
    pub total_ns: u64,
    /// Number of laps recorded.
    pub samples: u64,
    /// Distribution of per-lap durations (ns) over [`phase_bounds`].
    pub hist: Histogram,
}

/// One worker slot's totals at snapshot time.
#[derive(Debug, Clone)]
pub struct WorkerSnapshot {
    /// Slot index.
    pub index: usize,
    /// Trials completed by threads on this slot.
    pub trials: u64,
    /// Routes completed.
    pub routes: u64,
    /// Trial batches claimed.
    pub batches: u64,
    /// Sweep cache/dedup hits counted on this slot.
    pub cache_hits: u64,
    /// Trials whose overlay build was answered by the build memo.
    pub build_reused: u64,
    /// Wall clock attributed to any phase.
    pub busy_ns: u64,
}

/// A point-in-time copy of every telemetry counter. Taken with relaxed
/// loads: totals may be a few in-flight updates stale, which is
/// harmless for progress/profiling (and irrelevant to results, which
/// never flow through here).
#[derive(Debug, Clone)]
pub struct TelemetrySnapshot {
    /// Wall clock since the telemetry epoch (first enable).
    pub elapsed: Duration,
    /// Trials completed, summed over workers.
    pub trials: u64,
    /// Routes completed.
    pub routes: u64,
    /// Trial batches claimed from work-stealing queues.
    pub batches: u64,
    /// Sweep points answered from cache/dedup.
    pub cache_hits: u64,
    /// Trials whose overlay build came from the engine's build memo
    /// (exact or delta reuse) instead of a fresh construction.
    pub build_reused: u64,
    /// Trials of announced planned work.
    pub expected_trials: u64,
    /// Sweep points of announced planned work.
    pub expected_points: u64,
    /// Sweep points completed (executed or cached).
    pub points_done: u64,
    /// Of those, answered from cache/dedup.
    pub points_cached: u64,
    /// Requests shed by the daemon's admission gate (`busy`).
    pub serve_shed: u64,
    /// Requests rejected for an expired deadline.
    pub serve_deadline_expired: u64,
    /// Client-side retry attempts.
    pub serve_retries: u64,
    /// Cache entries recovered from the journal at daemon startup.
    pub serve_recovered_entries: u64,
    /// Executor rebuilds after a poisoned lock.
    pub serve_rebuilds: u64,
    /// Protocol requests by operation, in [`SERVE_OPS`] order.
    pub serve_requests_by_op: [u64; SERVE_OPS.len()],
    /// Requests that exceeded the daemon's slow-request threshold.
    pub serve_slow_requests: u64,
    /// Per-phase timing, in [`PhaseKind::ALL`] order.
    pub phases: Vec<PhaseSnapshot>,
    /// Per-slot totals, for slots that have seen any activity.
    pub workers: Vec<WorkerSnapshot>,
}

/// Takes a snapshot of every live counter.
pub fn snapshot() -> TelemetrySnapshot {
    let elapsed = epoch().elapsed();
    let bounds = phase_bounds();
    let phases = PhaseKind::ALL
        .iter()
        .map(|&phase| {
            let mut counts = vec![0u64; PHASE_BUCKETS + 1];
            let mut total_ns = 0u64;
            let mut samples = 0u64;
            for slot in &SLOTS {
                let clock = &slot.phases[phase.index()];
                total_ns += clock.total_ns.load(Relaxed);
                samples += clock.samples.load(Relaxed);
                for (acc, bucket) in counts.iter_mut().zip(&clock.buckets) {
                    *acc += bucket.load(Relaxed);
                }
            }
            PhaseSnapshot {
                phase,
                total_ns,
                samples,
                hist: Histogram::from_parts(bounds.clone(), counts, total_ns as f64),
            }
        })
        .collect();
    let workers: Vec<WorkerSnapshot> = SLOTS
        .iter()
        .enumerate()
        .map(|(index, slot)| WorkerSnapshot {
            index,
            trials: slot.trials.load(Relaxed),
            routes: slot.routes.load(Relaxed),
            batches: slot.batches.load(Relaxed),
            cache_hits: slot.cache_hits.load(Relaxed),
            build_reused: slot.build_reused.load(Relaxed),
            busy_ns: slot.busy_ns(),
        })
        .filter(|w| {
            w.trials + w.routes + w.batches + w.cache_hits + w.build_reused + w.busy_ns > 0
        })
        .collect();
    TelemetrySnapshot {
        elapsed,
        trials: workers.iter().map(|w| w.trials).sum(),
        routes: workers.iter().map(|w| w.routes).sum(),
        batches: workers.iter().map(|w| w.batches).sum(),
        cache_hits: workers.iter().map(|w| w.cache_hits).sum(),
        build_reused: workers.iter().map(|w| w.build_reused).sum(),
        expected_trials: EXPECTED_TRIALS.load(Relaxed),
        expected_points: EXPECTED_POINTS.load(Relaxed),
        points_done: POINTS_DONE.load(Relaxed),
        points_cached: POINTS_CACHED.load(Relaxed),
        serve_shed: SERVE_SHED.load(Relaxed),
        serve_deadline_expired: SERVE_DEADLINE_EXPIRED.load(Relaxed),
        serve_retries: SERVE_RETRIES.load(Relaxed),
        serve_recovered_entries: SERVE_RECOVERED.load(Relaxed),
        serve_rebuilds: SERVE_REBUILDS.load(Relaxed),
        serve_requests_by_op: std::array::from_fn(|i| SERVE_REQUESTS[i].load(Relaxed)),
        serve_slow_requests: SERVE_SLOW.load(Relaxed),
        phases,
        workers,
    }
}

/// Content type an HTTP endpoint should declare when serving
/// [`exposition`] (the Prometheus text format version string).
pub const EXPOSITION_CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

/// Content type an HTTP endpoint should declare when serving
/// [`snapshot_json`].
pub const JSON_CONTENT_TYPE: &str = "application/json";

/// The current telemetry state in Prometheus text exposition format —
/// a one-call body for an HTTP `GET /metrics` handler (pair it with
/// [`EXPOSITION_CONTENT_TYPE`]).
pub fn exposition() -> String {
    snapshot().to_exposition()
}

/// The current telemetry state as one JSON object — a one-call
/// progress/health body for an HTTP endpoint (pair it with
/// [`JSON_CONTENT_TYPE`]). Same keys as the JSONL reporter sink.
pub fn snapshot_json() -> String {
    snapshot().to_json()
}

/// The rate-of-change view between two snapshots of a monotone counter
/// set: what a progress line actually displays.
#[derive(Debug, Clone)]
pub struct TelemetryDelta {
    /// Wall-clock seconds between the snapshots.
    pub seconds: f64,
    /// Trials completed in the window.
    pub trials: u64,
    /// Routes completed in the window.
    pub routes: u64,
    /// Completed trials per second over the window (0 when the window
    /// is empty).
    pub trials_per_sec: f64,
    /// Worker slots that did any phase work in the window.
    pub workers_active: usize,
    /// Busy fraction of the active workers over the window, in `[0, 1]`.
    pub utilization: f64,
}

impl TelemetrySnapshot {
    /// Total busy nanoseconds across workers.
    pub fn busy_ns(&self) -> u64 {
        self.workers.iter().map(|w| w.busy_ns).sum()
    }

    /// The change from `earlier` (an older snapshot of the same
    /// process) to `self`, as rates.
    pub fn since(&self, earlier: &TelemetrySnapshot) -> TelemetryDelta {
        let seconds = (self.elapsed.saturating_sub(earlier.elapsed)).as_secs_f64();
        let trials = self.trials.saturating_sub(earlier.trials);
        let busy: u64 = self
            .workers
            .iter()
            .map(|w| {
                let before = earlier
                    .workers
                    .iter()
                    .find(|e| e.index == w.index)
                    .map_or(0, |e| e.busy_ns);
                w.busy_ns.saturating_sub(before)
            })
            .sum();
        let workers_active = self
            .workers
            .iter()
            .filter(|w| {
                let before = earlier
                    .workers
                    .iter()
                    .find(|e| e.index == w.index)
                    .map_or(0, |e| e.busy_ns);
                w.busy_ns > before
            })
            .count();
        let utilization = if seconds > 0.0 && workers_active > 0 {
            (busy as f64 / 1e9 / (seconds * workers_active as f64)).min(1.0)
        } else {
            0.0
        };
        TelemetryDelta {
            seconds,
            trials,
            routes: self.routes.saturating_sub(earlier.routes),
            trials_per_sec: if seconds > 0.0 {
                trials as f64 / seconds
            } else {
                0.0
            },
            workers_active,
            utilization,
        }
    }

    /// One human-readable progress line (no trailing newline): points,
    /// trials, rate, utilization, cache hits, ETA.
    pub fn progress_line(&self, delta: &TelemetryDelta) -> String {
        let mut line = String::from("[sos]");
        if self.expected_points > 0 {
            line.push_str(&format!(
                " points {}/{}",
                self.points_done, self.expected_points
            ));
        }
        if self.expected_trials > 0 {
            line.push_str(&format!(
                " · trials {}/{}",
                self.trials, self.expected_trials
            ));
        } else {
            line.push_str(&format!(" · trials {}", self.trials));
        }
        line.push_str(&format!(" · {:.0}/s", delta.trials_per_sec));
        line.push_str(&format!(
            " · workers {} @ {:.0}%",
            delta.workers_active,
            delta.utilization * 100.0
        ));
        if self.cache_hits > 0 {
            line.push_str(&format!(" · cache {}", self.cache_hits));
        }
        let remaining = self.expected_trials.saturating_sub(self.trials);
        if remaining > 0 && delta.trials_per_sec > 0.0 {
            line.push_str(&format!(
                " · eta {}",
                fmt_secs(remaining as f64 / delta.trials_per_sec)
            ));
        }
        line
    }

    /// The `sos profile` table: per-phase self time, share of busy
    /// (phase-attributed) time, p50/p95/p99 lap durations, then run
    /// totals — including build-memo reuse — and per-worker rates. Pure
    /// text — no terminal control sequences.
    pub fn profile_table(&self) -> String {
        let mut out = String::new();
        // The phase clocks partition busy time, so "share of measured"
        // *is* share-of-busy.
        let busy: u64 = self.phases.iter().map(|p| p.total_ns).sum();
        out.push_str(&format!(
            "{:<12} {:>10} {:>7} {:>10} {:>10} {:>10} {:>10}\n",
            "phase", "self-time", "%busy", "p50", "p95", "p99", "samples"
        ));
        for p in &self.phases {
            let pct = if busy > 0 {
                p.total_ns as f64 * 100.0 / busy as f64
            } else {
                0.0
            };
            let q = |q: f64| {
                p.hist
                    .quantile(q)
                    .map_or_else(|| String::from("-"), fmt_ns)
            };
            out.push_str(&format!(
                "{:<12} {:>10} {:>6.1}% {:>10} {:>10} {:>10} {:>10}\n",
                p.phase.label(),
                fmt_ns(p.total_ns as f64),
                pct,
                q(0.50),
                q(0.95),
                q(0.99),
                p.samples
            ));
        }
        out.push_str(&format!(
            "measured {} over {} wall ({} workers)\n",
            fmt_ns(busy as f64),
            fmt_secs(self.elapsed.as_secs_f64()),
            self.workers.len()
        ));
        let wall = self.elapsed.as_secs_f64();
        let rate = if wall > 0.0 {
            self.trials as f64 / wall
        } else {
            0.0
        };
        out.push_str(&format!(
            "trials {} ({:.0}/s) · routes {} · batches {}",
            self.trials, rate, self.routes, self.batches
        ));
        if self.build_reused > 0 {
            let share = if self.trials > 0 {
                self.build_reused as f64 * 100.0 / self.trials as f64
            } else {
                0.0
            };
            out.push_str(&format!(
                " · builds reused {} ({share:.0}% of trials)",
                self.build_reused
            ));
        }
        if self.expected_points > 0 {
            out.push_str(&format!(
                " · sweep points {}/{} ({} cached)",
                self.points_done, self.expected_points, self.points_cached
            ));
        }
        out.push('\n');
        for w in &self.workers {
            let busy = w.busy_ns as f64 / 1e9;
            let per_sec = if busy > 0.0 {
                w.trials as f64 / busy
            } else {
                0.0
            };
            out.push_str(&format!(
                "  worker {:>2}: {:>8} trials ({:>6.0}/s busy) · {:>9} routes · {:>5} batches · busy {}\n",
                w.index,
                w.trials,
                per_sec,
                w.routes,
                w.batches,
                fmt_secs(busy)
            ));
        }
        out
    }

    /// Renders the snapshot as one JSON object (one JSONL line without
    /// the trailing newline). Hand-rolled like every sink in this crate;
    /// keys are stable and documented in EXPERIMENTS.md.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        s.push_str(&format!("\"elapsed_s\":{:.6}", self.elapsed.as_secs_f64()));
        s.push_str(&format!(",\"trials\":{}", self.trials));
        s.push_str(&format!(",\"expected_trials\":{}", self.expected_trials));
        s.push_str(&format!(",\"routes\":{}", self.routes));
        s.push_str(&format!(",\"batches\":{}", self.batches));
        s.push_str(&format!(",\"cache_hits\":{}", self.cache_hits));
        s.push_str(&format!(",\"build_reused\":{}", self.build_reused));
        s.push_str(&format!(",\"points_done\":{}", self.points_done));
        s.push_str(&format!(",\"points_total\":{}", self.expected_points));
        s.push_str(&format!(",\"points_cached\":{}", self.points_cached));
        s.push_str(&format!(",\"serve_shed\":{}", self.serve_shed));
        s.push_str(&format!(
            ",\"serve_deadline_expired\":{}",
            self.serve_deadline_expired
        ));
        s.push_str(&format!(",\"serve_retries\":{}", self.serve_retries));
        s.push_str(&format!(
            ",\"serve_recovered_entries\":{}",
            self.serve_recovered_entries
        ));
        s.push_str(&format!(",\"serve_rebuilds\":{}", self.serve_rebuilds));
        s.push_str(",\"serve_requests\":{");
        for (i, op) in SERVE_OPS.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\"{op}\":{}", self.serve_requests_by_op[i]));
        }
        s.push('}');
        s.push_str(&format!(
            ",\"serve_slow_requests\":{}",
            self.serve_slow_requests
        ));
        s.push_str(&format!(",\"workers\":{}", self.workers.len()));
        s.push_str(&format!(",\"busy_ns\":{}", self.busy_ns()));
        s.push_str(",\"phases\":{");
        for (i, p) in self.phases.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let q = |q: f64| p.hist.quantile(q).unwrap_or(0.0);
            s.push_str(&format!(
                "\"{}\":{{\"total_ns\":{},\"samples\":{},\"p50_ns\":{:.0},\"p95_ns\":{:.0},\"p99_ns\":{:.0}}}",
                json_key(p.phase),
                p.total_ns,
                p.samples,
                q(0.50),
                q(0.95),
                q(0.99)
            ));
        }
        s.push_str("}}");
        s
    }

    /// Renders the snapshot in Prometheus text exposition format
    /// (`# HELP`/`# TYPE` comments plus one sample per line).
    pub fn to_exposition(&self) -> String {
        let mut s = String::new();
        let mut counter = |name: &str, help: &str, value: u64| {
            s.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}\n"
            ));
        };
        counter("sos_trials_total", "Trials completed.", self.trials);
        counter("sos_routes_total", "Client messages routed.", self.routes);
        counter(
            "sos_batches_total",
            "Trial batches claimed from work-stealing queues.",
            self.batches,
        );
        counter(
            "sos_sweep_cache_hits_total",
            "Sweep points answered from cache/dedup.",
            self.cache_hits,
        );
        counter(
            "sos_sim_build_reused_total",
            "Trials whose overlay build was answered by the engine's build memo.",
            self.build_reused,
        );
        counter(
            "sos_serve_shed_total",
            "Requests shed by the daemon's admission gate.",
            self.serve_shed,
        );
        counter(
            "sos_serve_deadline_expired_total",
            "Requests rejected for an expired deadline.",
            self.serve_deadline_expired,
        );
        counter(
            "sos_serve_retries_total",
            "Client-side retry attempts.",
            self.serve_retries,
        );
        counter(
            "sos_serve_executor_rebuilds_total",
            "Executor rebuilds after a poisoned lock.",
            self.serve_rebuilds,
        );
        counter(
            "sos_serve_slow_requests_total",
            "Requests exceeding the daemon's slow-request threshold.",
            self.serve_slow_requests,
        );
        s.push_str("# HELP sos_serve_requests_total Protocol requests by operation.\n");
        s.push_str("# TYPE sos_serve_requests_total counter\n");
        for (i, op) in SERVE_OPS.iter().enumerate() {
            s.push_str(&format!(
                "sos_serve_requests_total{{op=\"{op}\"}} {}\n",
                self.serve_requests_by_op[i]
            ));
        }
        let mut gauge = |name: &str, help: &str, value: String| {
            s.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {value}\n"
            ));
        };
        gauge(
            "sos_expected_trials",
            "Trials of announced planned work.",
            self.expected_trials.to_string(),
        );
        gauge(
            "sos_sweep_points_total",
            "Sweep points of announced planned work.",
            self.expected_points.to_string(),
        );
        gauge(
            "sos_sweep_points_done",
            "Sweep points completed (executed or cached).",
            self.points_done.to_string(),
        );
        gauge(
            "sos_serve_recovered_entries",
            "Cache entries recovered from the journal at daemon startup.",
            self.serve_recovered_entries.to_string(),
        );
        gauge(
            "sos_workers",
            "Worker slots with recorded activity.",
            self.workers.len().to_string(),
        );
        gauge(
            "sos_elapsed_seconds",
            "Wall clock since the telemetry epoch.",
            format!("{:.6}", self.elapsed.as_secs_f64()),
        );
        s.push_str("# HELP sos_phase_seconds_total Wall clock attributed to each phase.\n");
        s.push_str("# TYPE sos_phase_seconds_total counter\n");
        for p in &self.phases {
            s.push_str(&format!(
                "sos_phase_seconds_total{{phase=\"{}\"}} {:.9}\n",
                p.phase.label(),
                p.total_ns as f64 / 1e9
            ));
        }
        s.push_str("# HELP sos_phase_ns Per-lap phase duration quantiles (ns).\n");
        s.push_str("# TYPE sos_phase_ns summary\n");
        for p in &self.phases {
            for q in [0.5, 0.95, 0.99] {
                s.push_str(&format!(
                    "sos_phase_ns{{phase=\"{}\",quantile=\"{q}\"}} {:.0}\n",
                    p.phase.label(),
                    p.hist.quantile(q).unwrap_or(0.0)
                ));
            }
            s.push_str(&format!(
                "sos_phase_ns_sum{{phase=\"{}\"}} {}\n",
                p.phase.label(),
                p.total_ns
            ));
            s.push_str(&format!(
                "sos_phase_ns_count{{phase=\"{}\"}} {}\n",
                p.phase.label(),
                p.samples
            ));
        }
        s.push_str("# HELP sos_worker_trials_total Trials completed per worker slot.\n");
        s.push_str("# TYPE sos_worker_trials_total counter\n");
        for w in &self.workers {
            s.push_str(&format!(
                "sos_worker_trials_total{{worker=\"{}\"}} {}\n",
                w.index, w.trials
            ));
        }
        s.push_str("# HELP sos_worker_busy_seconds_total Phase-attributed wall clock per worker slot.\n");
        s.push_str("# TYPE sos_worker_busy_seconds_total counter\n");
        for w in &self.workers {
            s.push_str(&format!(
                "sos_worker_busy_seconds_total{{worker=\"{}\"}} {:.9}\n",
                w.index,
                w.busy_ns as f64 / 1e9
            ));
        }
        s
    }
}

/// JSON object key for a phase (label with `-` → `_`).
fn json_key(phase: PhaseKind) -> &'static str {
    match phase {
        PhaseKind::Build => "build",
        PhaseKind::BreakIn => "break_in",
        PhaseKind::Congestion => "congestion",
        PhaseKind::Routing => "routing",
    }
}

/// Human-readable nanoseconds (`412ns`, `3.1µs`, `12ms`, `4.2s`).
fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.0}ns")
    } else if ns < 1e6 {
        format!("{:.1}µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.1}ms", ns / 1e6)
    } else {
        format!("{:.2}s", ns / 1e9)
    }
}

/// Human-readable seconds (`12s`, `3m04s`).
fn fmt_secs(secs: f64) -> String {
    if secs < 60.0 {
        format!("{secs:.1}s")
    } else {
        let m = (secs / 60.0).floor();
        format!("{m:.0}m{:02.0}s", secs - m * 60.0)
    }
}

/// Options for [`ProgressReporter::start`].
#[derive(Debug, Clone)]
pub struct ReporterOptions {
    /// Snapshot interval.
    pub interval: Duration,
    /// Render the human-readable progress line to stderr every
    /// interval. When stderr is a terminal the line redraws in place
    /// (`\r`); otherwise one line per interval is printed.
    pub progress: bool,
    /// Optional machine-readable sink. A `.prom`/`.txt` extension gets
    /// the Prometheus text exposition rewritten in place every
    /// interval; anything else gets one JSON snapshot line appended per
    /// interval (JSONL).
    pub out: Option<PathBuf>,
}

impl Default for ReporterOptions {
    fn default() -> Self {
        ReporterOptions {
            interval: Duration::from_millis(500),
            progress: false,
            out: None,
        }
    }
}

/// Shared stop flag + wakeup for the reporter thread.
struct ReporterShared {
    stop: Mutex<bool>,
    cv: Condvar,
}

/// A background thread that periodically snapshots the telemetry plane
/// and renders progress (stderr) and/or machine-readable snapshots
/// (file). Enables telemetry on start; [`finish`](Self::finish) stops
/// the thread, writes a final snapshot to the sink, and returns it.
pub struct ProgressReporter {
    shared: Arc<ReporterShared>,
    handle: Option<std::thread::JoinHandle<()>>,
    opts: ReporterOptions,
}

/// Writes one snapshot to the configured sink (exposition rewrite or
/// JSONL append, by extension).
fn write_sink(path: &Path, snap: &TelemetrySnapshot) {
    let exposition = matches!(
        path.extension().and_then(|e| e.to_str()),
        Some("prom") | Some("txt")
    );
    let result = if exposition {
        std::fs::write(path, snap.to_exposition())
    } else {
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{}", snap.to_json()))
    };
    if let Err(e) = result {
        eprintln!("warning: telemetry sink {}: {e}", path.display());
    }
}

impl ProgressReporter {
    /// Enables telemetry and starts the reporter thread.
    pub fn start(opts: ReporterOptions) -> Self {
        set_enabled(true);
        let shared = Arc::new(ReporterShared {
            stop: Mutex::new(false),
            cv: Condvar::new(),
        });
        let thread_shared = shared.clone();
        let thread_opts = opts.clone();
        let handle = std::thread::Builder::new()
            .name(String::from("sos-telemetry"))
            .spawn(move || reporter_loop(&thread_shared, &thread_opts))
            .expect("spawn telemetry reporter");
        ProgressReporter {
            shared,
            handle: Some(handle),
            opts,
        }
    }

    /// The machine-readable sink path, when one was configured.
    pub fn sink_path(&self) -> Option<PathBuf> {
        self.opts.out.clone()
    }

    /// Stops the reporter, writes the final snapshot to the sink, and
    /// returns it. Telemetry stays enabled (the caller owns the flag).
    pub fn finish(mut self) -> TelemetrySnapshot {
        self.stop_thread();
        let snap = snapshot();
        if let Some(path) = &self.opts.out {
            write_sink(path, &snap);
        }
        if self.opts.progress {
            let delta = snap.since(&snap); // zero-width: totals only
            eprintln!("{}", snap.progress_line(&delta));
        }
        snap
    }

    fn stop_thread(&mut self) {
        *self.shared.stop.lock().unwrap_or_else(|e| e.into_inner()) = true;
        self.shared.cv.notify_all();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ProgressReporter {
    fn drop(&mut self) {
        self.stop_thread();
    }
}

/// The reporter thread body: interval-snapshot-render until stopped.
fn reporter_loop(shared: &ReporterShared, opts: &ReporterOptions) {
    use std::io::IsTerminal;
    let redraw = opts.progress && std::io::stderr().is_terminal();
    let mut prev = snapshot();
    loop {
        let mut stop = shared.stop.lock().unwrap_or_else(|e| e.into_inner());
        while !*stop {
            let (guard, timeout) = shared
                .cv
                .wait_timeout(stop, opts.interval)
                .unwrap_or_else(|e| e.into_inner());
            stop = guard;
            if timeout.timed_out() {
                break;
            }
        }
        if *stop {
            return;
        }
        drop(stop);
        let snap = snapshot();
        let delta = snap.since(&prev);
        if opts.progress {
            if redraw {
                eprint!("\r\x1b[2K{}", snap.progress_line(&delta));
            } else {
                eprintln!("{}", snap.progress_line(&delta));
            }
        }
        if let Some(path) = &opts.out {
            write_sink(path, &snap);
        }
        prev = snap;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Telemetry state is process-global; tests that need it on share
    /// this lock so enable/disable windows don't interleave.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_plane_records_nothing_through_guards() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(false);
        assert!(slot().is_none());
        let mut timer = PhaseTimer::start();
        let before = snapshot();
        timer.lap(PhaseKind::Build);
        add_expected_trials(10);
        point_done();
        point_cached();
        let after = snapshot();
        assert_eq!(before.expected_trials, after.expected_trials);
        assert_eq!(before.points_done, after.points_done);
        assert_eq!(
            before.phases[0].samples, after.phases[0].samples,
            "disabled timer must not lap"
        );
    }

    #[test]
    fn slots_accumulate_and_snapshot_aggregates() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(true);
        let before = snapshot();
        let slot = worker();
        slot.add_trial();
        slot.add_routes(25);
        slot.add_batch();
        slot.add_phase_ns(PhaseKind::Routing, 1_500);
        add_expected_trials(4);
        point_done();
        let after = snapshot();
        set_enabled(false);
        assert_eq!(after.trials, before.trials + 1);
        assert_eq!(after.routes, before.routes + 25);
        assert_eq!(after.batches, before.batches + 1);
        assert_eq!(after.expected_trials, before.expected_trials + 4);
        assert_eq!(after.points_done, before.points_done + 1);
        let routing = &after.phases[PhaseKind::Routing.index()];
        let routing_before = &before.phases[PhaseKind::Routing.index()];
        assert_eq!(routing.samples, routing_before.samples + 1);
        assert_eq!(routing.total_ns, routing_before.total_ns + 1_500);
        assert!(after.busy_ns() >= before.busy_ns() + 1_500);
    }

    #[test]
    fn phase_clock_buckets_match_histogram_bounds() {
        // The lock-free bucket index (ceil log2) must agree with what
        // `Histogram::record` would pick over `phase_bounds()` — the
        // snapshot rebuilds a Histogram from the atomic counts.
        let clock = PhaseClock::new();
        let samples = [1u64, 255, 256, 257, 511, 512, 100_000, 1 << 31, (1 << 31) + 1, u64::MAX / 2];
        let mut reference = Histogram::new(phase_bounds());
        for &ns in &samples {
            clock.add(ns);
            reference.record(ns as f64);
        }
        let counts: Vec<u64> = clock.buckets.iter().map(|b| b.load(Relaxed)).collect();
        assert_eq!(counts, reference.bucket_counts());
    }

    #[test]
    fn delta_computes_rates_and_utilization() {
        let base = TelemetrySnapshot {
            elapsed: Duration::from_secs(1),
            trials: 100,
            routes: 1_000,
            batches: 5,
            cache_hits: 0,
            build_reused: 0,
            expected_trials: 1_000,
            expected_points: 4,
            points_done: 1,
            points_cached: 0,
            serve_shed: 0,
            serve_deadline_expired: 0,
            serve_retries: 0,
            serve_recovered_entries: 0,
            serve_rebuilds: 0,
            serve_requests_by_op: [0; SERVE_OPS.len()],
            serve_slow_requests: 0,
            phases: Vec::new(),
            workers: vec![WorkerSnapshot {
                index: 0,
                trials: 100,
                routes: 1_000,
                batches: 5,
                cache_hits: 0,
                build_reused: 0,
                busy_ns: 500_000_000,
            }],
        };
        let mut later = base.clone();
        later.elapsed = Duration::from_secs(3);
        later.trials = 500;
        later.workers[0].trials = 500;
        later.workers[0].busy_ns = 2_100_000_000;
        let delta = later.since(&base);
        assert_eq!(delta.trials, 400);
        assert!((delta.seconds - 2.0).abs() < 1e-9);
        assert!((delta.trials_per_sec - 200.0).abs() < 1e-9);
        assert_eq!(delta.workers_active, 1);
        // 1.6s busy over a 2s single-worker window.
        assert!((delta.utilization - 0.8).abs() < 1e-9);
        let line = later.progress_line(&delta);
        assert!(line.contains("points 1/4"), "{line}");
        assert!(line.contains("trials 500/1000"), "{line}");
        assert!(line.contains("200/s"), "{line}");
        assert!(line.contains("eta"), "{line}");
    }

    #[test]
    fn exposition_and_json_render_all_series() {
        let snap = TelemetrySnapshot {
            elapsed: Duration::from_secs(2),
            trials: 42,
            routes: 840,
            batches: 7,
            cache_hits: 3,
            build_reused: 11,
            expected_trials: 42,
            expected_points: 42,
            points_done: 42,
            points_cached: 3,
            serve_shed: 1,
            serve_deadline_expired: 2,
            serve_retries: 3,
            serve_recovered_entries: 4,
            serve_rebuilds: 5,
            serve_requests_by_op: [9, 8, 7, 6, 5, 4, 3],
            serve_slow_requests: 6,
            phases: PhaseKind::ALL
                .iter()
                .map(|&phase| {
                    let mut hist = Histogram::new(phase_bounds());
                    hist.record(1_000.0);
                    PhaseSnapshot {
                        phase,
                        total_ns: 1_000,
                        samples: 1,
                        hist,
                    }
                })
                .collect(),
            workers: vec![WorkerSnapshot {
                index: 2,
                trials: 42,
                routes: 840,
                batches: 7,
                cache_hits: 3,
                build_reused: 11,
                busy_ns: 4_000,
            }],
        };
        let prom = snap.to_exposition();
        for series in [
            "sos_trials_total 42",
            "sos_routes_total 840",
            "sos_sweep_points_done 42",
            "sos_sweep_cache_hits_total 3",
            "sos_sim_build_reused_total 11",
            "sos_phase_seconds_total{phase=\"build\"}",
            "sos_phase_seconds_total{phase=\"break-in\"}",
            "sos_phase_seconds_total{phase=\"congestion\"}",
            "sos_phase_seconds_total{phase=\"routing\"}",
            "sos_phase_ns{phase=\"routing\",quantile=\"0.99\"}",
            "sos_worker_trials_total{worker=\"2\"} 42",
            "sos_worker_busy_seconds_total{worker=\"2\"}",
            "sos_serve_shed_total 1",
            "sos_serve_deadline_expired_total 2",
            "sos_serve_retries_total 3",
            "sos_serve_recovered_entries 4",
            "sos_serve_executor_rebuilds_total 5",
            "sos_serve_slow_requests_total 6",
            "sos_serve_requests_total{op=\"ping\"} 9",
            "sos_serve_requests_total{op=\"simulate\"} 7",
            "sos_serve_requests_total{op=\"trace\"} 3",
        ] {
            assert!(prom.contains(series), "missing {series} in:\n{prom}");
        }
        // Every non-comment line is `name[{labels}] value`.
        for line in prom.lines().filter(|l| !l.starts_with('#')) {
            let (name, value) = line.rsplit_once(' ').expect("name and value");
            assert!(!name.is_empty(), "bad sample line: {line}");
            assert!(value.parse::<f64>().is_ok(), "bad sample line: {line}");
        }
        let json = snap.to_json();
        for key in [
            "\"trials\":42",
            "\"points_done\":42",
            "\"build_reused\":11",
            "\"serve_shed\":1",
            "\"serve_deadline_expired\":2",
            "\"serve_retries\":3",
            "\"serve_recovered_entries\":4",
            "\"serve_rebuilds\":5",
            "\"serve_requests\":{\"ping\":9",
            "\"simulate\":7",
            "\"serve_slow_requests\":6",
            "\"phases\":{\"build\"",
            "\"p95_ns\"",
            "\"busy_ns\":4000",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        let table = snap.profile_table();
        for needle in [
            "phase",
            "build",
            "break-in",
            "congestion",
            "routing",
            "p95",
            "worker  2",
            "builds reused 11",
        ] {
            assert!(table.contains(needle), "missing {needle} in:\n{table}");
        }
    }

    #[test]
    fn reporter_writes_jsonl_and_exposition_sinks() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let dir = std::env::temp_dir().join(format!(
            "sos-telemetry-test-{}-reporter_writes_jsonl_and_exposition_sinks",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let jsonl = dir.join(format!("snap-{}.jsonl", std::process::id()));
        let prom = dir.join(format!("snap-{}.prom", std::process::id()));
        let _ = std::fs::remove_file(&jsonl);
        let _ = std::fs::remove_file(&prom);

        let reporter = ProgressReporter::start(ReporterOptions {
            interval: Duration::from_millis(10),
            progress: false,
            out: Some(jsonl.clone()),
        });
        worker().add_trial();
        std::thread::sleep(Duration::from_millis(40));
        let snap = reporter.finish();
        set_enabled(false);
        assert!(snap.trials > 0);
        let text = std::fs::read_to_string(&jsonl).unwrap();
        assert!(!text.is_empty());
        for line in text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "bad JSONL: {line}");
            assert!(line.contains("\"trials\""));
        }

        write_sink(&prom, &snap);
        let text = std::fs::read_to_string(&prom).unwrap();
        assert!(text.contains("# TYPE sos_trials_total counter"));
        let _ = std::fs::remove_file(&jsonl);
        let _ = std::fs::remove_file(&prom);
        let _ = std::fs::remove_dir(&dir);
    }
}
