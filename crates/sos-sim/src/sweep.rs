//! Cross-scenario sweep executor: persistent pool + content-addressed
//! result cache.
//!
//! Every figure family in `sos-bench` is a *sweep*: dozens of small
//! [`SimulationConfig`] points that differ in one or two knobs. Running
//! them as independent [`Simulation::run_parallel`] calls pays three
//! avoidable costs per point — thread spawn/join, cold per-worker
//! [`TrialScratch`](crate::engine) state, and re-running points that an
//! overlapping panel already computed (e.g. every budget sweep shares
//! its zero-budget baseline). The [`SweepExecutor`] removes all three:
//!
//! * all points of a sweep are submitted to the persistent
//!   `crate::pool` as one job list, so workers interleave trial
//!   batches across sweep points and reuse their scratch across
//!   *scenarios*, not just trials;
//! * each config is reduced to a content fingerprint (a stable 64-bit
//!   hash of every behavior-relevant field); identical points are
//!   executed once per process (*dedup*), and — with a cache file
//!   attached — once ever (*cache*);
//! * results are returned in input order and are byte-identical to
//!   what [`Simulation::run_parallel`] produces, at any thread count.
//!
//! Cache semantics: the cache is keyed by content, not by call site, so
//! it is safe to share one cache file across figure families, CLI runs
//! and report builds. A cache hit returns the stored
//! [`SimulationResult`] verbatim (bit-for-bit: JSON floats round-trip
//! exactly), so warm runs reproduce cold CSV output byte-identically.
//!
//! Crash safety: every executed point is appended (and fsynced) to a
//! sidecar journal (`<cache>.journal`) the moment its result exists,
//! and the main file is only ever replaced atomically (temp + fsync +
//! rename) — by [`SweepExecutor::persist`] or when the journal grows
//! past a compaction threshold. Every persisted entry carries a
//! checksum; at [`SweepExecutor::attach_cache`] a damaged file is
//! quarantined to `<path>.corrupt` and damaged entries are skipped, so
//! a torn or bit-flipped cache can cost recomputation but never a
//! wrong warm answer.
//! The fingerprint folds in the master seed, trial/route counts, and
//! the full fault/retry configuration — any change to an experiment's
//! inputs misses the cache rather than aliasing a stale entry. Inert
//! knobs are canonicalized away (a no-fault config fingerprints
//! identically regardless of its fault seed or retry policy, which are
//! unobservable without faults).
//!
//! Use the process-global executor via [`run_sweep`] /
//! [`set_global_cache`] (or the `SOS_SWEEP_CACHE` environment
//! variable), or construct a private [`SweepExecutor`] for isolated
//! thread counts, caches and [`ExecOptions`] (as `bench_baseline` and
//! the tests do).
//!
//! [`Simulation::run_parallel`]: crate::engine::Simulation::run_parallel

use crate::engine::{ExecOptions, Simulation, SimulationConfig, SimulationResult};
use crate::pool::{global_pool, RangeJob, WorkerPool};
use sos_observe::{telemetry, trace};
use std::collections::HashMap;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Cumulative executor counters, exposed for benchmarks and the CLI's
/// `--cache` reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Sweep points requested (one per input config, duplicates
    /// included).
    pub points: u64,
    /// Points answered from the cache (loaded file entries or results
    /// computed by an earlier run of this executor).
    pub cache_hits: u64,
    /// Points answered by another point of the *same* run with an equal
    /// fingerprint.
    pub dedup_hits: u64,
    /// Points actually executed.
    pub points_executed: u64,
    /// Trials actually executed.
    pub trials_executed: u64,
    /// Trial batches pulled from the pool's queues (scheduling
    /// granularity; at least one per executed point).
    pub pool_batches: u64,
}

/// FNV-1a 64-bit over the canonical byte encoding of a config.
fn fnv1a(bytes: &[u8], mut hash: u64) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Content fingerprint of a config (public alias of the executor's
/// internal hash): equal fingerprints ⇒ equal simulation
/// behavior, so long-running services can report which cache entry
/// answered a request and deduplicate identical requests for free.
pub fn config_fingerprint(config: &SimulationConfig) -> u64 {
    fingerprint(config)
}

/// *Structural* fingerprint of a config: the part that determines what
/// the trial runner has to **build** — the scenario (overlay size, SOS
/// membership, layers, mapping degree, filters) and the transport
/// substrate. Everything else (attack, policy, faults, trial/route
/// counts) only decides what happens *to* a built overlay.
///
/// Two sweep points with equal structural fingerprints and equal master
/// seeds construct bit-identical overlays/rings at every trial index,
/// which is exactly the condition under which the engine's per-worker
/// build memo may answer a trial without rebuilding. Services can use
/// this to group requests by build-compatibility.
pub fn structural_fingerprint(config: &SimulationConfig) -> u64 {
    let mut canon = String::new();
    canon.push_str(
        &serde_json::to_string(&config.scenario).expect("scenario serializes"),
    );
    canon.push('|');
    canon.push_str(config.transport.label());
    fnv1a(canon.as_bytes(), 0xCBF2_9CE4_8422_2325)
}

/// Content fingerprint of a config: equal fingerprints ⇒ equal
/// simulation behavior (same result for the same engine version).
///
/// Split into a *structural* part ([`structural_fingerprint`]: the
/// scenario and transport — what gets built) folded together with the
/// attack/fault part (what happens to the build). Scenario, attack and
/// policy are folded in via their canonical JSON encoding (stable field
/// order — serde derives emit fields in declaration order); scalar
/// knobs are folded in as exact bit patterns, so float knobs that
/// differ in the last ulp still get distinct fingerprints.
fn fingerprint(config: &SimulationConfig) -> u64 {
    let mut canon = format!("s:{:016x}", structural_fingerprint(config));
    canon.push('|');
    canon.push_str(&serde_json::to_string(&config.attack).expect("attack serializes"));
    canon.push('|');
    canon.push_str(&serde_json::to_string(&config.policy).expect("policy serializes"));
    canon.push_str(&format!(
        "|{}|{}|{}",
        config.trials, config.routes_per_trial, config.seed
    ));
    match config.monitoring_tap {
        // Bit pattern, not decimal: fingerprints must separate taps that
        // differ below printing precision.
        Some(tap) => canon.push_str(&format!("|tap:{:016x}", tap.to_bits())),
        None => canon.push_str("|tap:none"),
    }
    if config.faults.is_none() {
        // No fault plane is built, so the fault seed and the retry
        // policy are unobservable — canonicalize them away so
        // equivalent configs share a cache entry (`sos-faults` tests
        // pin this invariant).
        canon.push_str("|faults:none");
    } else {
        let f = &config.faults;
        canon.push_str(&format!(
            "|faults:{:016x},{:016x},{},{:016x},{:016x},{},{:016x},{}",
            f.loss_rate.to_bits(),
            f.delay_rate.to_bits(),
            f.delay_ticks,
            f.crash_rate.to_bits(),
            f.slow_rate.to_bits(),
            f.slow_ticks,
            f.misroute_rate.to_bits(),
            f.seed,
        ));
        let r = &config.retry;
        canon.push_str(&format!(
            "|retry:{},{},{}",
            r.max_attempts, r.backoff_base, r.deadline
        ));
    }
    fnv1a(canon.as_bytes(), 0xCBF2_9CE4_8422_2325)
}

/// On-disk cache layout (JSON). Fingerprints are hex strings because
/// JSON numbers cannot carry 64 bits losslessly through every tool.
#[derive(serde::Serialize, serde::Deserialize)]
struct CacheFile {
    version: u32,
    entries: Vec<CacheEntry>,
}

/// One persisted result. `checksum` covers the fingerprint and the
/// result's canonical JSON encoding, so a torn write or a flipped bit
/// is detected at load and the entry is *skipped* (and the damaged
/// file quarantined) instead of poisoning warm answers.
#[derive(serde::Serialize, serde::Deserialize)]
struct CacheEntry {
    fingerprint: String,
    checksum: String,
    result: SimulationResult,
}

/// Version 4: message routing moved off the shared attack stream onto
/// per-route `ROUTE` sub-streams (`sos_sim::route_lane_seed`, the
/// batched route kernel's lane seeds), so every Monte Carlo routing
/// result changed — version-3 entries would alias stale results under
/// matching fingerprints and are quarantined instead. (Version 3 moved
/// the trial streams to splitmix64-keyed sub-streams; version 2 added
/// per-entry checksums; version-1 files carried none.) The cache is
/// derived data; a quarantined file only costs recomputation.
const CACHE_VERSION: u32 = 4;

/// Journal entries accumulated before the executor folds them into a
/// full atomic rewrite of the main cache file. Keeps the per-point
/// durability cost O(1) instead of O(cache size).
const JOURNAL_COMPACT_THRESHOLD: usize = 512;

/// Integrity checksum of one cache entry: FNV-1a over
/// `fingerprint | canonical-result-JSON`. Results round-trip through
/// JSON bit-for-bit (a pinned invariant of this module), so the
/// re-serialized form at load equals the serialized form at store time
/// if and only if the bytes survived intact.
fn entry_checksum(fingerprint: &str, result: &SimulationResult) -> String {
    let json = serde_json::to_string(result).expect("result serializes");
    let mut hash = fnv1a(fingerprint.as_bytes(), 0x6A09_E667_F3BC_C908);
    hash = fnv1a(b"|", hash);
    hash = fnv1a(json.as_bytes(), hash);
    format!("{hash:016x}")
}

/// The append-mode journal sitting next to a cache file: one JSON
/// entry per line, appended (and fsynced) as each sweep point
/// completes, so results are durable immediately — not only when the
/// owner drains and rewrites the main file.
fn journal_path(cache: &Path) -> PathBuf {
    let mut os = cache.as_os_str().to_os_string();
    os.push(".journal");
    PathBuf::from(os)
}

/// Where a damaged cache (or journal) file is moved/copied so an
/// operator can diff what was lost instead of silently losing it.
fn corrupt_path(original: &Path) -> PathBuf {
    let mut os = original.as_os_str().to_os_string();
    os.push(".corrupt");
    PathBuf::from(os)
}

/// Decodes and verifies one cache entry; `None` when the fingerprint
/// does not parse or the checksum does not match the stored result.
fn decode_entry(entry: &CacheEntry) -> Option<(u64, SimulationResult)> {
    let fp = u64::from_str_radix(&entry.fingerprint, 16).ok()?;
    if entry.checksum != entry_checksum(&entry.fingerprint, &entry.result) {
        return None;
    }
    Some((fp, entry.result.clone()))
}

/// What [`SweepExecutor::attach_cache_report`] found on disk.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheLoadReport {
    /// Entries loaded from the main cache file.
    pub loaded: usize,
    /// Entries recovered from the append journal (results that were
    /// executed after the last full rewrite — e.g. by a process that
    /// crashed before draining).
    pub journal_recovered: usize,
    /// Entries (or journal lines) dropped because their checksum did
    /// not verify or their encoding was damaged.
    pub skipped: usize,
    /// Set when a damaged file was quarantined for inspection.
    pub quarantined: Option<PathBuf>,
}

/// The pool a [`SweepExecutor`] schedules on: the process-global pool
/// (shared scratch, shared threads) or a private one (benchmarks and
/// tests that must control the thread count).
enum PoolHandle {
    Global,
    Owned(Box<WorkerPool>),
}

/// Executes sweeps of [`SimulationConfig`] points; see the module docs.
pub struct SweepExecutor {
    pool: PoolHandle,
    /// Applied to every [`Simulation`] this executor schedules.
    exec: ExecOptions,
    /// fingerprint → result, for every point this executor has answered
    /// (loaded from the cache file or executed).
    memory: HashMap<u64, SimulationResult>,
    cache_path: Option<PathBuf>,
    stats: SweepStats,
    /// Journal lines written (or replayed) since the last full rewrite.
    journal_entries: usize,
    /// What the last [`attach_cache`](Self::attach_cache) found.
    load_report: CacheLoadReport,
    /// When the main cache file was last rewritten in full.
    last_persist: Option<Instant>,
}

impl SweepExecutor {
    /// An executor on the process-global worker pool (sized by
    /// [`num_threads`](crate::engine::num_threads)).
    pub fn new() -> Self {
        SweepExecutor {
            pool: PoolHandle::Global,
            exec: ExecOptions::default(),
            memory: HashMap::new(),
            cache_path: None,
            stats: SweepStats::default(),
            journal_entries: 0,
            load_report: CacheLoadReport::default(),
            last_persist: None,
        }
    }

    /// An executor with a *private* pool of exactly `threads` workers —
    /// for benchmarks and determinism tests that pin the thread count.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn with_threads(threads: usize) -> Self {
        SweepExecutor {
            pool: PoolHandle::Owned(Box::new(WorkerPool::new(threads))),
            ..SweepExecutor::new()
        }
    }

    /// Runs every scheduled point with `exec` instead of the default
    /// [`ExecOptions`]. Results (and so cache entries) are
    /// byte-identical either way.
    pub fn with_exec(mut self, exec: ExecOptions) -> Self {
        self.exec = exec;
        self
    }

    /// Attaches a persistent cache file and loads any existing entries,
    /// then replays the append journal sitting next to it. Returns the
    /// total number of entries loaded (0 when neither file exists yet —
    /// that is a cold cache, not an error).
    ///
    /// Damaged state never refuses service and never poisons answers:
    /// an unparseable cache file (or one with an unknown version) is
    /// renamed to `<path>.corrupt` and the executor starts cold from
    /// whatever the journal can recover; an entry whose checksum fails
    /// is skipped (and the file copied to `<path>.corrupt` for
    /// inspection); a torn trailing journal line — the expected residue
    /// of a crash mid-append — is dropped silently.
    ///
    /// # Errors
    ///
    /// Only real I/O failures (permissions, hardware) propagate.
    pub fn attach_cache(&mut self, path: impl AsRef<Path>) -> io::Result<usize> {
        let report = self.attach_cache_report(path)?;
        Ok(report.loaded + report.journal_recovered)
    }

    /// [`attach_cache`](Self::attach_cache) with the full breakdown of
    /// what was loaded, recovered, skipped, and quarantined.
    ///
    /// # Errors
    ///
    /// Only real I/O failures (permissions, hardware) propagate.
    pub fn attach_cache_report(&mut self, path: impl AsRef<Path>) -> io::Result<CacheLoadReport> {
        let path = path.as_ref();
        let mut report = CacheLoadReport::default();
        // Read as bytes, not `read_to_string`: bit rot can make a file
        // invalid UTF-8, and that is damage to quarantine (the lossy
        // replacement characters fail the JSON parse or the per-entry
        // checksum), not an I/O error to refuse startup over.
        match std::fs::read(path) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
            Ok(bytes) => {
                self.load_main_file(path, &String::from_utf8_lossy(&bytes), &mut report)
            }
        }
        let journal = journal_path(path);
        match std::fs::read(&journal) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
            Ok(bytes) => {
                self.load_journal(&journal, &String::from_utf8_lossy(&bytes), &mut report)
            }
        }
        self.cache_path = Some(path.to_path_buf());
        self.load_report = report.clone();
        Ok(report)
    }

    /// Loads the main cache file, quarantining damage instead of
    /// propagating it.
    fn load_main_file(&mut self, path: &Path, text: &str, report: &mut CacheLoadReport) {
        let file: CacheFile = match serde_json::from_str(text) {
            Ok(f) => f,
            Err(e) => {
                self.quarantine_rename(path, report, &format!("does not parse ({e})"));
                return;
            }
        };
        if file.version != CACHE_VERSION {
            self.quarantine_rename(
                path,
                report,
                &format!("has version {}, expected {CACHE_VERSION}", file.version),
            );
            return;
        }
        let mut bad = 0usize;
        for entry in &file.entries {
            match decode_entry(entry) {
                Some((fp, result)) => {
                    self.memory.insert(fp, result);
                    report.loaded += 1;
                }
                None => bad += 1,
            }
        }
        if bad > 0 {
            report.skipped += bad;
            // Keep the good entries (they verified), but preserve the
            // damaged original for diffing before a rewrite replaces it.
            let corrupt = corrupt_path(path);
            if std::fs::write(&corrupt, text).is_ok() {
                report.quarantined = Some(corrupt.clone());
            }
            eprintln!(
                "warning: sweep cache {}: {bad} of {} entries failed checksum; \
                 skipped (original copied to {})",
                path.display(),
                file.entries.len(),
                corrupt.display(),
            );
        }
    }

    /// Replays the append journal: every line that parses and verifies
    /// is an entry some earlier process executed but never folded into
    /// the main file (e.g. it crashed mid-sweep).
    fn load_journal(&mut self, journal: &Path, text: &str, report: &mut CacheLoadReport) {
        let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
        let mut bad_lines: Vec<usize> = Vec::new();
        for (i, line) in lines.iter().enumerate() {
            let decoded = serde_json::from_str::<CacheEntry>(line)
                .ok()
                .and_then(|entry| decode_entry(&entry));
            match decoded {
                Some((fp, result)) => {
                    if self.memory.insert(fp, result).is_none() {
                        report.journal_recovered += 1;
                    }
                    self.journal_entries += 1;
                }
                None => bad_lines.push(i),
            }
        }
        report.skipped += bad_lines.len();
        // A bad *final* line is the expected residue of a crash mid-
        // append (a torn write); a bad line with valid lines after it
        // is real corruption worth quarantining for inspection.
        if bad_lines.iter().any(|&i| i + 1 < lines.len()) {
            let corrupt = corrupt_path(journal);
            if std::fs::write(&corrupt, text).is_ok() {
                report.quarantined = Some(corrupt.clone());
            }
            eprintln!(
                "warning: sweep-cache journal {}: {} damaged lines skipped \
                 (copy kept at {})",
                journal.display(),
                bad_lines.len(),
                corrupt.display(),
            );
        } else if !bad_lines.is_empty() {
            eprintln!(
                "warning: sweep-cache journal {}: dropped a torn trailing entry \
                 (crash mid-append); {} entries recovered",
                journal.display(),
                report.journal_recovered,
            );
        }
    }

    /// Moves a damaged file to `<path>.corrupt` and says what was lost.
    fn quarantine_rename(&self, path: &Path, report: &mut CacheLoadReport, reason: &str) {
        let corrupt = corrupt_path(path);
        match std::fs::rename(path, &corrupt) {
            Ok(()) => {
                report.quarantined = Some(corrupt.clone());
                eprintln!(
                    "warning: sweep cache {} {reason}; quarantined to {} \
                     (entries will be recomputed; diff the quarantine file to see what was lost)",
                    path.display(),
                    corrupt.display(),
                );
            }
            Err(e) => eprintln!(
                "warning: sweep cache {} {reason}; quarantine rename failed ({e}); running cold",
                path.display(),
            ),
        }
    }

    /// Counters accumulated over this executor's lifetime.
    pub fn stats(&self) -> SweepStats {
        self.stats
    }

    /// Number of results this executor can answer without executing
    /// (loaded cache entries plus points computed so far).
    pub fn cached_points(&self) -> usize {
        self.memory.len()
    }

    /// What the last [`attach_cache`](Self::attach_cache) loaded,
    /// recovered, skipped, and quarantined.
    pub fn load_report(&self) -> &CacheLoadReport {
        &self.load_report
    }

    /// Time since the main cache file was last rewritten in full
    /// (`None` before the first rewrite — journal appends do not
    /// count; they are durable but not compacted).
    pub fn last_persist_age(&self) -> Option<Duration> {
        self.last_persist.map(|at| at.elapsed())
    }

    /// Rewrites the attached cache file now, atomically (write to a
    /// temp file, fsync, rename), and truncates the journal the
    /// rewrite absorbed. No-op without an attached cache.
    ///
    /// [`run`](Self::run) already journals every executed point as it
    /// completes; this exists for owners with an explicit lifecycle —
    /// a resident service flushing state on graceful shutdown, where
    /// "the main file on disk is current" must hold at a specific
    /// moment rather than eventually.
    pub fn persist(&mut self) {
        self.save_cache();
    }

    /// Runs a single config — a one-point [`run`](Self::run) without
    /// the `Vec` ceremony. Same cache/dedup semantics.
    pub fn run_one(&mut self, config: &SimulationConfig) -> SimulationResult {
        self.run(std::slice::from_ref(config))
            .pop()
            .expect("one config in, one result out")
    }

    /// Runs every config (answering from cache/dedup where possible)
    /// and returns results in input order.
    pub fn run(&mut self, configs: &[SimulationConfig]) -> Vec<SimulationResult> {
        self.stats.points += configs.len() as u64;
        telemetry::add_expected_points(configs.len() as u64);
        let fingerprints: Vec<u64> = configs.iter().map(fingerprint).collect();

        // Plan: first occurrence of an uncached fingerprint becomes a
        // job; later occurrences are dedup hits, cached ones cache hits.
        let mut planned: Vec<u64> = Vec::new();
        let mut sims: Vec<Arc<Simulation>> = Vec::new();
        for (config, &fp) in configs.iter().zip(&fingerprints) {
            // Request-scoped tracing: one probe span per point, with a
            // hit/miss annotation. Reads the clock only — never the
            // sim RNG streams — so plans are identical traced or not.
            let mut probe = trace::start("cache-probe", trace::CAT_EXEC);
            if self.memory.contains_key(&fp) {
                self.stats.cache_hits += 1;
                telemetry::point_cached();
                if let Some(span) = probe.as_mut() {
                    span.arg("hit", 1);
                }
            } else if planned.contains(&fp) {
                self.stats.dedup_hits += 1;
                telemetry::point_cached();
                if let Some(span) = probe.as_mut() {
                    span.arg("hit", 1);
                    span.arg("dedup", 1);
                }
            } else {
                planned.push(fp);
                sims.push(Arc::new(Simulation::new(config.clone()).with_exec(self.exec)));
                self.stats.points_executed += 1;
                self.stats.trials_executed += config.trials;
                if let Some(span) = probe.as_mut() {
                    span.arg("hit", 0);
                }
            }
        }

        if !sims.is_empty() {
            let jobs: Vec<RangeJob> = sims
                .iter()
                .map(|sim| RangeJob {
                    sim: sim.clone(),
                    start: 0,
                    end: sim.config().trials,
                    point: true,
                })
                .collect();
            let (partials, batches) = match &mut self.pool {
                PoolHandle::Owned(pool) => pool.run(jobs),
                PoolHandle::Global => global_pool()
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .run(jobs),
            };
            self.stats.pool_batches += batches;
            let mut fresh: Vec<(u64, SimulationResult)> = Vec::with_capacity(planned.len());
            for ((fp, sim), partial) in planned.iter().zip(&sims).zip(partials) {
                let result = sim.finish(partial);
                self.memory.insert(*fp, result.clone());
                fresh.push((*fp, result));
            }
            // Durability ordering: journal-append (fsync) first, so a
            // crash at any later instant loses nothing; fold into the
            // main file only when the journal has grown enough to be
            // worth a full rewrite (owners with a lifecycle call
            // `persist` at drain).
            self.journal_append(&fresh);
            if self.journal_entries >= JOURNAL_COMPACT_THRESHOLD {
                self.save_cache();
            }
        }

        fingerprints
            .iter()
            .map(|fp| self.memory[fp].clone())
            .collect()
    }

    /// Appends freshly executed points to the journal and makes them
    /// durable (flush + fsync) before returning. No-op without an
    /// attached cache.
    fn journal_append(&mut self, fresh: &[(u64, SimulationResult)]) {
        let Some(path) = &self.cache_path else {
            return;
        };
        if fresh.is_empty() {
            return;
        }
        let journal = journal_path(path);
        let mut buf = String::new();
        for (fp, result) in fresh {
            let fingerprint = format!("{fp:016x}");
            let entry = CacheEntry {
                checksum: entry_checksum(&fingerprint, result),
                fingerprint,
                result: result.clone(),
            };
            buf.push_str(&serde_json::to_string(&entry).expect("entry serializes"));
            buf.push('\n');
        }
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&journal)
            .and_then(|mut file| {
                file.write_all(buf.as_bytes())?;
                file.sync_data()
            });
        match appended {
            Ok(()) => self.journal_entries += fresh.len(),
            // A read-only cache location should not kill a run whose
            // results are already in memory.
            Err(e) => eprintln!(
                "warning: failed to append sweep-cache journal {}: {e}",
                journal.display()
            ),
        }
    }

    /// Rewrites the attached cache file (no-op without one): write to
    /// `<path>.tmp`, fsync, atomically rename over the old file, then
    /// drop the journal the rewrite absorbed. A crash at any byte of
    /// this sequence leaves either the old state (plus the journal) or
    /// the new state — never a torn file. Entries are sorted by
    /// fingerprint so the file is deterministic for a given content
    /// set.
    fn save_cache(&mut self) {
        let Some(path) = self.cache_path.clone() else {
            return;
        };
        let mut entries: Vec<CacheEntry> = self
            .memory
            .iter()
            .map(|(fp, result)| {
                let fingerprint = format!("{fp:016x}");
                CacheEntry {
                    checksum: entry_checksum(&fingerprint, result),
                    fingerprint,
                    result: result.clone(),
                }
            })
            .collect();
        entries.sort_by(|a, b| a.fingerprint.cmp(&b.fingerprint));
        let file = CacheFile { version: CACHE_VERSION, entries };
        let text = serde_json::to_string_pretty(&file).expect("cache serializes");
        match write_atomic(&path, text.as_bytes()) {
            Ok(()) => {
                let _ = std::fs::remove_file(journal_path(&path));
                self.journal_entries = 0;
                self.last_persist = Some(Instant::now());
            }
            Err(e) => eprintln!(
                "warning: failed to write sweep cache {}: {e}",
                path.display()
            ),
        }
    }
}

/// Crash-safe whole-file replacement: temp file + fsync + rename.
fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

impl Default for SweepExecutor {
    fn default() -> Self {
        SweepExecutor::new()
    }
}

/// The process-global executor behind [`run_sweep`]: shares the global
/// worker pool and accumulates cache/dedup state for the process
/// lifetime, so every figure family and CLI command benefits from every
/// earlier one.
fn global_executor() -> &'static Mutex<SweepExecutor> {
    static EXECUTOR: OnceLock<Mutex<SweepExecutor>> = OnceLock::new();
    EXECUTOR.get_or_init(|| {
        let mut exec = SweepExecutor::new();
        if let Ok(path) = std::env::var("SOS_SWEEP_CACHE") {
            if !path.is_empty() {
                match exec.attach_cache(&path) {
                    Ok(n) => eprintln!("sweep cache {path}: {n} entries loaded"),
                    Err(e) => eprintln!(
                        "warning: ignoring sweep cache {path}: {e} (running cold)"
                    ),
                }
            }
        }
        Mutex::new(exec)
    })
}

/// Runs a sweep on the process-global executor (global pool, global
/// cache). Results come back in input order; equal configs are
/// executed once. This is the call every experiment family routes
/// through — replace a loop of `run_parallel(num_threads())` calls with
/// one `run_sweep(&configs)`.
pub fn run_sweep(configs: &[SimulationConfig]) -> Vec<SimulationResult> {
    global_executor()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .run(configs)
}

/// Attaches a persistent cache file to the process-global executor
/// (the `--cache` flag); returns the number of entries loaded. See
/// [`SweepExecutor::attach_cache`] for error semantics.
pub fn set_global_cache(path: impl AsRef<Path>) -> io::Result<usize> {
    global_executor()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .attach_cache(path)
}

/// Counters of the process-global executor so far.
pub fn sweep_stats() -> SweepStats {
    global_executor()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .stats()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::TransportKind;
    use crate::routing::RoutingPolicy;
    use sos_core::{AttackBudget, AttackConfig, MappingDegree, Scenario, SystemParams};
    use sos_faults::{FaultConfig, RetryPolicy};

    fn config(budget: u64, seed: u64) -> SimulationConfig {
        let scenario = Scenario::builder()
            .system(SystemParams::new(500, 40, 0.5).unwrap())
            .layers(3)
            .mapping(MappingDegree::OneTo(2))
            .filters(10)
            .build()
            .unwrap();
        SimulationConfig::new(
            scenario,
            AttackConfig::OneBurst {
                budget: AttackBudget::new(10, budget),
            },
        )
        .trials(8)
        .routes_per_trial(15)
        .seed(seed)
    }

    #[test]
    fn executor_matches_per_point_run_parallel() {
        let configs = vec![config(0, 1), config(100, 1), config(200, 2)];
        let mut exec = SweepExecutor::with_threads(2);
        let swept = exec.run(&configs);
        for (cfg, swept) in configs.iter().zip(&swept) {
            let reference = Simulation::new(cfg.clone()).run_parallel(2);
            assert_eq!(swept, &reference);
        }
    }

    #[test]
    fn duplicate_points_dedup_within_a_run() {
        let configs = vec![config(100, 7), config(100, 7), config(100, 7)];
        let mut exec = SweepExecutor::with_threads(1);
        let results = exec.run(&configs);
        assert_eq!(results[0], results[1]);
        assert_eq!(results[1], results[2]);
        let stats = exec.stats();
        assert_eq!(stats.points, 3);
        assert_eq!(stats.points_executed, 1);
        assert_eq!(stats.dedup_hits, 2);
        assert_eq!(stats.trials_executed, 8);
        assert!(stats.pool_batches >= 1);
    }

    #[test]
    fn repeat_runs_hit_the_in_memory_cache() {
        let configs = vec![config(100, 3)];
        let mut exec = SweepExecutor::with_threads(1);
        let cold = exec.run(&configs);
        let warm = exec.run(&configs);
        assert_eq!(cold, warm);
        let stats = exec.stats();
        assert_eq!(stats.points_executed, 1);
        assert_eq!(stats.cache_hits, 1);
    }

    #[test]
    fn fingerprint_separates_every_knob() {
        let base = config(100, 3);
        let variants = [
            base.clone().seed(4),
            base.clone().trials(9),
            base.clone().routes_per_trial(16),
            base.clone().policy(RoutingPolicy::FirstGood),
            base.clone().transport(TransportKind::Chord),
            base.clone().faults(FaultConfig::none().loss(0.1)),
        ];
        let fp = fingerprint(&base);
        for variant in &variants {
            assert_ne!(fingerprint(variant), fp, "{variant:?}");
        }
        assert_eq!(fingerprint(&base), fingerprint(&base.clone()));
    }

    #[test]
    fn structural_fingerprint_splits_build_from_attack_knobs() {
        let base = config(100, 3);
        // Attack/fault-side knobs leave the structural part unchanged —
        // these are exactly the transitions the engine's build memo can
        // answer without rebuilding.
        let attack_only = [
            base.clone().seed(4),
            base.clone().trials(9),
            base.clone().routes_per_trial(16),
            base.clone().policy(RoutingPolicy::FirstGood),
            base.clone().faults(FaultConfig::none().loss(0.1)),
            config(300, 9),
        ];
        let sfp = structural_fingerprint(&base);
        for variant in &attack_only {
            assert_eq!(structural_fingerprint(variant), sfp, "{variant:?}");
            // The *full* fingerprint still separates them (they are
            // different experiments, just build-compatible ones).
            assert_ne!(fingerprint(variant), fingerprint(&base), "{variant:?}");
        }
        // Structure-side knobs move it.
        let chord = base.clone().transport(TransportKind::Chord);
        assert_ne!(structural_fingerprint(&chord), sfp);
        let scenario = Scenario::builder()
            .system(SystemParams::new(600, 40, 0.5).unwrap())
            .layers(3)
            .mapping(MappingDegree::OneTo(2))
            .filters(10)
            .build()
            .unwrap();
        let resized = SimulationConfig::new(
            scenario,
            *base.attack(),
        )
        .trials(8)
        .routes_per_trial(15)
        .seed(3);
        assert_ne!(structural_fingerprint(&resized), sfp);
    }

    #[test]
    fn inert_fault_knobs_are_canonicalized() {
        // Without faults, the retry policy and the fault seed are
        // unobservable — configs differing only there must share one
        // cache entry.
        let base = config(100, 3);
        let retry = base.clone().retry(RetryPolicy::new(4, 1, 64));
        let seeded = base
            .clone()
            .faults(FaultConfig { seed: 99, ..FaultConfig::none() });
        assert_eq!(fingerprint(&base), fingerprint(&retry));
        assert_eq!(fingerprint(&base), fingerprint(&seeded));
        // With faults on, retry *does* matter.
        let faulty = base.clone().faults(FaultConfig::none().loss(0.2));
        let faulty_retry = faulty.clone().retry(RetryPolicy::new(4, 1, 64));
        assert_ne!(fingerprint(&faulty), fingerprint(&faulty_retry));
    }

    /// A fresh temp directory unique to this process and test, so
    /// parallel tests and concurrent test runs never share a file.
    fn test_dir(test: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("sos-sweep-cache-test-{}-{test}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn cache_file_round_trips_bit_for_bit() {
        let dir = test_dir("cache_file_round_trips_bit_for_bit");
        let path = dir.join(format!("cache-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);

        let configs = vec![config(100, 5), config(300, 5)];
        let mut cold = SweepExecutor::with_threads(1);
        assert_eq!(cold.attach_cache(&path).unwrap(), 0);
        let cold_results = cold.run(&configs);
        drop(cold);

        let mut warm = SweepExecutor::with_threads(1);
        let loaded = warm.attach_cache(&path).unwrap();
        assert_eq!(loaded, 2);
        let warm_results = warm.run(&configs);
        assert_eq!(warm.stats().points_executed, 0);
        assert_eq!(warm.stats().cache_hits, 2);
        // Byte-equal through JSON: the cache must reproduce CSVs
        // bit-for-bit, not just approximately.
        assert_eq!(
            serde_json::to_string(&cold_results).unwrap(),
            serde_json::to_string(&warm_results).unwrap(),
        );
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(journal_path(&path));
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn malformed_cache_is_quarantined_not_fatal() {
        let dir = test_dir("malformed_cache_is_quarantined_not_fatal");
        let path = dir.join(format!("bad-{}.json", std::process::id()));
        let corrupt = dir.join(format!("bad-{}.json.corrupt", std::process::id()));
        let _ = std::fs::remove_file(&corrupt);
        std::fs::write(&path, "{not json").unwrap();
        let mut exec = SweepExecutor::with_threads(1);
        let report = exec.attach_cache_report(&path).unwrap();
        assert_eq!(report.loaded, 0);
        assert_eq!(report.quarantined.as_deref(), Some(corrupt.as_path()));
        assert!(!path.exists(), "damaged original must be renamed away");
        assert_eq!(
            std::fs::read_to_string(&corrupt).unwrap(),
            "{not json",
            "quarantine must preserve the damaged bytes for diffing"
        );
        // The executor still works: it runs cold and persists fresh.
        let result = exec.run_one(&config(100, 11));
        exec.persist();
        let mut warm = SweepExecutor::with_threads(1);
        assert_eq!(warm.attach_cache(&path).unwrap(), 1);
        assert_eq!(warm.run_one(&config(100, 11)), result);
        assert_eq!(warm.stats().cache_hits, 1);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&corrupt);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn journal_makes_points_durable_without_a_full_rewrite() {
        let dir = test_dir("journal_makes_points_durable_without_a_full_rewrite");
        let path = dir.join(format!("journal-{}.json", std::process::id()));
        let journal = dir.join(format!("journal-{}.json.journal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&journal);

        let configs = vec![config(100, 21), config(200, 21)];
        let mut crashed = SweepExecutor::with_threads(1);
        crashed.attach_cache(&path).unwrap();
        let cold = crashed.run(&configs);
        // Simulated crash: drop without persist. The journal alone must
        // carry every completed point.
        assert!(!path.exists(), "main file is only written at persist/compact");
        assert!(journal.exists(), "journal must exist immediately");
        drop(crashed);

        let mut recovered = SweepExecutor::with_threads(1);
        let report = recovered.attach_cache_report(&path).unwrap();
        assert_eq!(report.journal_recovered, 2);
        assert_eq!(report.skipped, 0);
        let warm = recovered.run(&configs);
        assert_eq!(recovered.stats().points_executed, 0);
        assert_eq!(
            serde_json::to_string(&cold).unwrap(),
            serde_json::to_string(&warm).unwrap(),
        );

        // A graceful persist folds the journal into the main file,
        // atomically, and removes it.
        recovered.persist();
        assert!(path.exists());
        assert!(!journal.exists(), "persist must absorb the journal");
        assert!(recovered.last_persist_age().is_some());
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn torn_journal_tail_is_dropped_and_prefix_recovered() {
        let dir = test_dir("torn_journal_tail_is_dropped_and_prefix_recovered");
        let path = dir.join(format!("torn-{}.json", std::process::id()));
        let journal = dir.join(format!("torn-{}.json.journal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&journal);

        let configs = vec![config(100, 31), config(200, 31), config(300, 31)];
        let mut exec = SweepExecutor::with_threads(1);
        exec.attach_cache(&path).unwrap();
        let cold = exec.run(&configs);
        drop(exec);

        // Tear the final journal line mid-byte, as a crash mid-append
        // would.
        let text = std::fs::read_to_string(&journal).unwrap();
        std::fs::write(&journal, &text[..text.len() - 40]).unwrap();

        let mut recovered = SweepExecutor::with_threads(1);
        let report = recovered.attach_cache_report(&path).unwrap();
        assert_eq!(report.journal_recovered, 2, "intact prefix recovered");
        assert_eq!(report.skipped, 1, "torn tail dropped");
        // Re-running recomputes only the torn point, and every answer
        // matches the pre-crash bytes.
        let warm = recovered.run(&configs);
        assert_eq!(recovered.stats().points_executed, 1);
        assert_eq!(
            serde_json::to_string(&cold).unwrap(),
            serde_json::to_string(&warm).unwrap(),
        );
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&journal);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn checksum_mismatch_skips_the_entry_and_quarantines_a_copy() {
        let dir = test_dir("checksum_mismatch_skips_the_entry_and_quarantines_a_copy");
        let path = dir.join(format!("flip-{}.json", std::process::id()));
        let corrupt = dir.join(format!("flip-{}.json.corrupt", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&corrupt);

        let mut exec = SweepExecutor::with_threads(1);
        exec.attach_cache(&path).unwrap();
        exec.run(&[config(100, 41), config(200, 41)]);
        exec.persist();
        drop(exec);

        // Flip a digit inside a stored numeric field — the file still
        // parses, but the entry's checksum no longer matches.
        let text = std::fs::read_to_string(&path).unwrap();
        let successes = text.find("\"successes\"").unwrap();
        let mut bytes = text.into_bytes();
        let digit = bytes[successes..]
            .iter()
            .position(|b| b.is_ascii_digit())
            .unwrap()
            + successes;
        bytes[digit] = if bytes[digit] == b'9' { b'8' } else { bytes[digit] + 1 };
        std::fs::write(&path, &bytes).unwrap();

        let mut recovered = SweepExecutor::with_threads(1);
        let report = recovered.attach_cache_report(&path).unwrap();
        assert_eq!(report.loaded, 1, "intact entry kept");
        assert_eq!(report.skipped, 1, "flipped entry skipped");
        assert_eq!(report.quarantined.as_deref(), Some(corrupt.as_path()));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&corrupt);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn stats_count_points_dedup_and_trials() {
        let configs = vec![config(100, 9), config(100, 9), config(200, 9)];
        let mut exec = SweepExecutor::with_threads(1);
        exec.run(&configs);
        let stats = exec.stats();
        assert_eq!(stats.points, 3);
        assert_eq!(stats.points_executed, 2);
        assert_eq!(stats.dedup_hits, 1);
        assert_eq!(stats.trials_executed, 16);
    }
}
