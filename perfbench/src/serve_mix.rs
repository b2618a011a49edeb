//! `sosd-mix`: an in-process `sos_serve::Server` (port 0, two pool
//! threads, sweep cache in a directory under the output directory)
//! driven by two closed-loop clients over two connections. Each client
//! runs a seeded sequence of about 60% warm `simulate` (cache reads),
//! 30% `analyze` (closed form, no executor lock) and 10% cold
//! `simulate` (a fresh seed: compute plus a journal write).

use crate::replay::{replay, Point};
use crate::report::Metrics;
use crate::sim::{analyze_layer, replay_layers, telemetry_layers};
use crate::spans::{Span, SpanLog};
use crate::stats::median;
use crate::{Outcome, SETUP_REPS, THREADS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::Value;
use sos_core::{AttackConfig, Scenario};
use sos_observe::telemetry;
use sos_serve::{
    analyze_doc, analyze_outcome, Client, Request, Server, ServerHandle, ServerOptions, SimSpec,
};
use sos_sim::config_fingerprint;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Client connections (one closed-loop client each).
const CLIENTS: usize = 2;
/// Specs the warm requests draw from (computed before measuring). They
/// are also the cache every set-up replays, large enough that replay,
/// not thread wake-up jitter, is most of `setup_s`.
const WARM_SPECS: u64 = 64;
/// Specs the analyze requests draw from.
const ANALYZE_SPECS: u64 = 4;
/// Trials of every `simulate` spec in the mix.
const SIM_TRIALS: u64 = 20;
/// Cold specs replayed phase by phase in a traced run (enough trials
/// for a p99 with ten samples beyond it).
const REPLAYED_COLD: usize = 50;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Warm,
    Analyze,
    Cold,
}

impl Class {
    fn span_name(self) -> &'static str {
        match self {
            Class::Warm => "serve.warm",
            Class::Analyze => "serve.analyze",
            Class::Cold => "serve.cold",
        }
    }
}

/// The small `N = 1000` Chord spec every `simulate` in the mix uses:
/// the paper attack scaled with `N` (`N_T = 20, N_C = 200`), so that
/// routes still get through — the paper's `N_C = 2000` would congest
/// the whole overlay and leave routing nothing to do.
fn sim_spec(seed: u64) -> SimSpec {
    SimSpec {
        overlay_nodes: 1_000,
        nt: 20,
        nc: 200,
        transport: "chord".into(),
        trials: SIM_TRIALS,
        seed,
        ..SimSpec::default()
    }
}

fn warm_spec(input_seed: u64, k: u64) -> SimSpec {
    sim_spec(input_seed * 1_000 + k)
}

/// Cold seeds live above every warm seed and never repeat in a run.
fn cold_spec(input_seed: u64, n: u64) -> SimSpec {
    sim_spec((1 << 40) + input_seed * (1 << 24) + n)
}

/// Paper-scale analyze specs varying the attack.
fn analyze_spec(input_seed: u64, k: u64) -> SimSpec {
    let v = input_seed + k;
    SimSpec {
        model: if k.is_multiple_of(2) {
            "successive"
        } else {
            "one-burst"
        }
        .into(),
        nt: 100 + 50 * (v % 4),
        nc: 1_000 + 500 * (v % 3),
        ..SimSpec::default()
    }
}

/// Compact JSON of a reply with the per-request envelope
/// (`request_id`, `timing`) removed.
fn without_envelope(reply: &Value) -> String {
    let body = match reply.as_map() {
        Some(entries) => Value::Map(
            entries
                .iter()
                .filter(|(k, _)| k != "request_id" && k != "timing")
                .cloned()
                .collect(),
        ),
        None => reply.clone(),
    };
    json(&body)
}

/// Compact JSON of a value (the shim's serializer cannot fail).
fn json(value: &Value) -> String {
    serde_json::to_string(value).expect("JSON values serialize")
}

/// What the mix expects back.
struct Expected {
    /// Cold reply (`fingerprint`, `result`) per warm spec.
    warm: Vec<(String, String)>,
    /// Direct `analyze_doc` JSON per analyze spec.
    analyze: Vec<String>,
}

/// One answered (or failed) request.
struct Rec {
    class: Class,
    start: Instant,
    end: Instant,
    ok: bool,
    /// Trials the reply answered (simulate only).
    trials: u64,
    timing: Option<Timing>,
    /// Cold spec and the server's delivered count.
    cold: Option<(SimSpec, u64)>,
}

/// A reply's `timing` doc (nanoseconds, plus the trial count).
#[derive(Debug, Clone, Copy)]
struct Timing {
    total: u64,
    queue: u64,
    lock: u64,
    compute: u64,
    trials: u64,
}

fn timing_of(reply: &Value) -> Option<Timing> {
    let t = reply.get("timing")?;
    let f = |k: &str| t.get(k).and_then(Value::as_u64);
    Some(Timing {
        total: f("total_ns")?,
        queue: f("queue_ns")?,
        lock: f("lock_ns")?,
        compute: f("build_ns")? + f("break_in_ns")? + f("congestion_ns")? + f("routing_ns")?,
        trials: f("trials")?,
    })
}

fn server_options(cache: &Path) -> ServerOptions {
    ServerOptions {
        threads: Some(THREADS),
        cache: Some(cache.to_path_buf()),
        ..ServerOptions::default()
    }
}

fn shutdown(handle: ServerHandle) {
    Client::connect(handle.addr())
        .and_then(|mut c| c.shutdown().map_err(std::io::Error::other))
        .expect("shutdown request");
    handle.join().expect("server drained");
}

/// Binds a server on `cache`, replaying it, and waits for its first
/// answered `ping`; returns the handle and the seconds that took.
fn start(cache: &Path) -> (ServerHandle, f64) {
    let t = Instant::now();
    let handle = Server::bind("127.0.0.1:0", server_options(cache))
        .expect("bind sosd")
        .spawn();
    Client::connect(handle.addr())
        .expect("connect")
        .ping()
        .expect("ping");
    (handle, t.elapsed().as_secs_f64())
}

/// Computes the warm specs on a first server (their cold replies are
/// what every warm reply must equal) and the direct analyze documents.
fn prepare(input_seed: u64, cache: &Path) -> Expected {
    let (handle, _) = start(cache);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let warm = (0..WARM_SPECS)
        .map(|k| {
            let reply = client
                .simulate(&warm_spec(input_seed, k))
                .expect("cold warm-set simulate");
            (json(&reply["fingerprint"]), json(&reply["result"]))
        })
        .collect();
    drop(client);
    shutdown(handle);
    let analyze = (0..ANALYZE_SPECS)
        .map(|k| {
            let spec = analyze_spec(input_seed, k);
            let (scenario, attack, evaluator) = (
                spec.scenario().expect("analyze spec is valid"),
                spec.attack().expect("analyze spec is valid"),
                spec.evaluator().expect("analyze spec is valid"),
            );
            let outcome = analyze_outcome(&scenario, &attack, evaluator).expect("valid analysis");
            json(&analyze_doc(&scenario, &attack, evaluator, &outcome))
        })
        .collect();
    Expected { warm, analyze }
}

/// Checks one reply; `Err` carries a reason.
fn check(
    class: Class,
    reply: &Value,
    spec_idx: u64,
    spec: &SimSpec,
    expected: &Expected,
) -> Result<(), String> {
    match class {
        Class::Warm => {
            let (fingerprint, result) = &expected.warm[spec_idx as usize];
            if reply["served_from"].as_str() != Some("cache") {
                return Err("warm reply not served from cache".into());
            }
            if &json(&reply["fingerprint"]) != fingerprint || &json(&reply["result"]) != result {
                return Err("warm reply differs from the cold reply".into());
            }
        }
        Class::Analyze => {
            if without_envelope(reply) != expected.analyze[spec_idx as usize] {
                return Err("analyze reply differs from a direct analyze_doc".into());
            }
        }
        Class::Cold => {
            let config = spec.sim_config().map_err(|e| e.to_string())?;
            if reply["served_from"].as_str() != Some("computed") {
                return Err("cold reply not computed".into());
            }
            if reply["fingerprint"].as_str()
                != Some(format!("{:016x}", config_fingerprint(&config)).as_str())
            {
                return Err("cold reply has another fingerprint".into());
            }
            if reply["result"]["attempts"].as_u64() != Some(spec.trials * spec.routes) {
                return Err("cold reply routed another number of messages".into());
            }
        }
    }
    Ok(())
}

/// One client's closed loop until `deadline`.
fn client_loop(
    addr: std::net::SocketAddr,
    rng_seed: u64,
    input_seed: u64,
    cold_counter: &AtomicU64,
    deadline: Instant,
    expected: &Expected,
) -> (Vec<Rec>, Vec<String>) {
    let mut rng = StdRng::seed_from_u64(rng_seed);
    let mut recs = Vec::new();
    let mut errors = Vec::new();
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => return (recs, vec![format!("connect: {e}")]),
    };
    while Instant::now() < deadline {
        let u: f64 = rng.gen();
        let (class, idx, spec) = if u < 0.6 {
            let k = rng.gen_range(0..WARM_SPECS);
            (Class::Warm, k, warm_spec(input_seed, k))
        } else if u < 0.9 {
            let k = rng.gen_range(0..ANALYZE_SPECS);
            (Class::Analyze, k, analyze_spec(input_seed, k))
        } else {
            (
                Class::Cold,
                0,
                cold_spec(input_seed, cold_counter.fetch_add(1, Ordering::Relaxed)),
            )
        };
        let request = match class {
            Class::Analyze => Request::Analyze(spec.clone()),
            _ => Request::Simulate {
                spec: spec.clone(),
                deadline_ms: None,
            },
        };
        let start = Instant::now();
        let reply = client.request(&request);
        let end = Instant::now();
        let mut rec = Rec {
            class,
            start,
            end,
            ok: false,
            trials: 0,
            timing: None,
            cold: None,
        };
        match reply {
            Ok(reply) => match check(class, &reply, idx, &spec, expected) {
                Ok(()) => {
                    rec.ok = true;
                    rec.timing = timing_of(&reply);
                    if class != Class::Analyze {
                        rec.trials = spec.trials;
                    }
                    if class == Class::Cold {
                        let delivered = reply["result"]["successes"].as_u64().unwrap_or(u64::MAX);
                        rec.cold = Some((spec, delivered));
                    }
                }
                Err(e) => errors.push(e),
            },
            Err(e) => {
                let transport = !matches!(e, sos_serve::ClientError::Remote(_));
                errors.push(format!("{}: {e}", class.span_name()));
                if transport {
                    recs.push(rec);
                    break;
                }
            }
        }
        recs.push(rec);
    }
    (recs, errors)
}

/// Runs the two-client mix for `seconds` against `addr`.
fn run_mix(
    addr: std::net::SocketAddr,
    input_seed: u64,
    seconds: f64,
    cold_counter: &AtomicU64,
    expected: &Expected,
    pass: u64,
) -> (Vec<Rec>, Vec<String>, Instant) {
    let start = Instant::now();
    let deadline = start + std::time::Duration::from_secs_f64(seconds);
    let outputs: Vec<(Vec<Rec>, Vec<String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS as u64)
            .map(|c| {
                let rng_seed = sos_sim::trial_stream_seed(input_seed, 100 + pass, c);
                scope.spawn(move || {
                    client_loop(addr, rng_seed, input_seed, cold_counter, deadline, expected)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut recs = Vec::new();
    let mut errors = Vec::new();
    for (r, e) in outputs {
        recs.extend(r);
        errors.extend(e);
    }
    (recs, errors, start)
}

/// Median per-second completion rate of requests and of answered
/// trials over the whole one-second windows of a pass.
fn windowed_rates(recs: &[Rec], start: Instant, seconds: f64) -> (f64, f64, usize) {
    let windows = (seconds.floor() as usize).max(1);
    let mut requests = vec![0u64; windows];
    let mut trials = vec![0u64; windows];
    for r in recs.iter().filter(|r| r.ok) {
        let w = r.end.duration_since(start).as_secs_f64().floor() as usize;
        if w < windows {
            requests[w] += 1;
            trials[w] += r.trials;
        }
    }
    let as_f = |v: &[u64]| v.iter().map(|&x| x as f64).collect::<Vec<_>>();
    (median(&as_f(&requests)), median(&as_f(&trials)), windows)
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// End-to-end and `serve.*` metrics of one pass.
fn mix_metrics(recs: &[Rec], start: Instant, seconds: f64, m: &mut Metrics) {
    let (requests_per_s, trials_per_s, windows) = windowed_rates(recs, start, seconds);
    m.put_n("requests_per_s", requests_per_s, "1/s", windows);
    m.put_n("trials_per_s", trials_per_s, "1/s", windows);
    let rtt = |class: Class| -> Vec<f64> {
        recs.iter()
            .filter(|r| r.ok && r.class == class)
            .map(|r| ms(r.end - r.start))
            .collect()
    };
    let (warm, cold, analyze) = (rtt(Class::Warm), rtt(Class::Cold), rtt(Class::Analyze));
    m.put_pct("warm_rtt_p50_ms", &warm, 0.5, "ms");
    m.put_pct("warm_rtt_p99_ms", &warm, 0.99, "ms");
    m.put_pct("cold_rtt_p50_ms", &cold, 0.5, "ms");
    m.put_pct("cold_rtt_p90_ms", &cold, 0.9, "ms");
    m.put_pct("analyze_rtt_p50_ms", &analyze, 0.5, "ms");
    m.put_pct("analyze_rtt_p99_ms", &analyze, 0.99, "ms");

    let sims: Vec<&Rec> = recs
        .iter()
        .filter(|r| r.ok && r.class != Class::Analyze)
        .collect();
    let timed = |f: &dyn Fn(&Rec, &Timing) -> Option<f64>, class: Option<Class>| -> Vec<f64> {
        sims.iter()
            .filter(|r| class.is_none_or(|c| r.class == c))
            .filter_map(|r| r.timing.as_ref().and_then(|t| f(r, t)))
            .collect()
    };
    m.put_pct(
        "serve.queue_ms_p99",
        &timed(&|_, t| Some(t.queue as f64 / 1e6), None),
        0.99,
        "ms",
    );
    let lock = timed(&|_, t| Some(t.lock as f64 / 1e6), None);
    m.put_pct("serve.lock_wait_ms_p50", &lock, 0.5, "ms");
    m.put_pct("serve.lock_wait_ms_p99", &lock, 0.99, "ms");
    m.put_pct(
        "serve.compute_ms_p50",
        &timed(&|_, t| Some(t.compute as f64 / 1e6), Some(Class::Cold)),
        0.5,
        "ms",
    );
    let wire = timed(
        &|r, t| Some(((r.end - r.start).as_nanos() as f64 - t.total as f64) / 1e3),
        Some(Class::Warm),
    );
    m.put_pct("serve.wire_us_p50", &wire, 0.5, "us");
    let warm_hits = sims.iter().filter(|r| r.class == Class::Warm).count();
    if !sims.is_empty() {
        m.put_n(
            "serve.cache_hit_frac",
            warm_hits as f64 / sims.len() as f64,
            "frac",
            sims.len(),
        );
    }
    // PROTOCOL.md § 3.7 says the timing doc's parts sum to within a few
    // percent of the round trip; 5% is the target. Phase times are
    // summed over pool workers.
    let gap = timed(
        &|r, t| {
            let rtt = (r.end - r.start).as_nanos() as f64;
            let parts = (t.queue + t.lock + t.compute) as f64;
            Some((rtt - parts).abs() / rtt)
        },
        Some(Class::Cold),
    );
    m.put_pct("serve.timing_gap_frac", &gap, 0.5, "frac");
    let reported: u64 = sims.iter().filter_map(|r| r.timing.map(|t| t.trials)).sum();
    let computed: u64 = sims
        .iter()
        .filter(|r| r.class == Class::Cold)
        .map(|r| r.trials)
        .sum();
    m.put_n(
        "serve.timing_trials_excess",
        reported as f64 - computed as f64,
        "count",
        sims.len(),
    );
    m.put_n("mix.warm_requests", warm.len() as f64, "count", warm.len());
    m.put_n("mix.cold_requests", cold.len() as f64, "count", cold.len());
    m.put_n(
        "mix.analyze_requests",
        analyze.len() as f64,
        "count",
        analyze.len(),
    );
}

/// Counts a pass's requests (a failed check, error reply or transport
/// failure is a failed operation) and keeps its distinct error notes.
fn tally(out: &mut Outcome, recs: &[Rec], mut errors: Vec<String>) {
    out.attempted += recs.len() as u64;
    out.failed += recs.iter().filter(|r| !r.ok).count() as u64;
    errors.sort();
    errors.dedup();
    out.notes.extend(errors.into_iter().take(8));
}

/// The `sosd-mix` workload.
pub fn sosd_mix(input_seed: u64, seconds: f64, traced: bool, out_dir: &Path) -> Outcome {
    let dir: PathBuf = out_dir.join(format!("sosd-{}-{input_seed}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the cache directory");
    let cache = dir.join("sweep-cache.json");
    let expected = prepare(input_seed, &cache);
    let mut out = Outcome::default();

    let setup: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let (handle, secs) = start(&cache);
            shutdown(handle);
            secs
        })
        .collect();
    out.metrics
        .put_n("setup_s", median(&setup), "s", setup.len());

    let (handle, _) = start(&cache);
    let addr = handle.addr();
    let cold_counter = AtomicU64::new(0);
    let window = if traced { seconds / 2.0 } else { seconds };
    let shed_before = telemetry::snapshot().serve_shed;
    let (recs, errors, t0) = run_mix(addr, input_seed, window, &cold_counter, &expected, 0);
    let shed = telemetry::snapshot().serve_shed - shed_before;
    mix_metrics(&recs, t0, window, &mut out.metrics);
    out.metrics.put("serve.shed", shed as f64, "count");
    tally(&mut out, &recs, errors);

    if traced {
        // A second pass of the same mix; its requests become the span
        // log. The server has telemetry and request tracing on in both
        // passes and both take the same timestamps, so for this workload
        // `trace.overhead_frac` is the pass-to-pass noise floor.
        let untraced_rate = out
            .metrics
            .get("requests_per_s")
            .map_or(f64::NAN, |m| m.value);
        let before = telemetry::snapshot();
        let (recs_b, errors_b, t1) = run_mix(addr, input_seed, window, &cold_counter, &expected, 1);
        let wall = t1.elapsed().as_secs_f64();
        let after = telemetry::snapshot();
        telemetry_layers(&before, &after, wall, &mut out.metrics);
        let (traced_rate, _, _) = windowed_rates(&recs_b, t1, window);
        out.metrics.put(
            "trace.overhead_frac",
            untraced_rate / traced_rate - 1.0,
            "frac",
        );
        tally(&mut out, &recs_b, errors_b);

        let epoch = t0;
        let mut log = SpanLog::new(epoch, u64::from(u16::MAX));
        for (i, r) in recs_b.iter().enumerate() {
            log.record(r.class.span_name(), 0, i as u64 + 1, r.start, r.end);
        }
        // The first cold specs of the traced pass, replayed phase by
        // phase; each must deliver what the server said it delivered.
        let mut cold: Vec<(Instant, &SimSpec, u64)> = recs_b
            .iter()
            .filter_map(|r| r.cold.as_ref().map(|(spec, served)| (r.end, spec, *served)))
            .collect();
        cold.sort_by_key(|c| c.0);
        cold.truncate(REPLAYED_COLD);
        let points: Vec<Point> = cold
            .iter()
            .map(|(_, spec, _)| Point::from_spec(spec).expect("cold spec is valid"))
            .collect();
        let rep = replay(&points, 1, THREADS, epoch);
        for ((_, _, served), replayed) in cold.iter().zip(&rep.delivered) {
            out.attempted += 1;
            if served != replayed {
                out.failed += 1;
                out.notes.push(format!(
                    "replayed cold spec delivered {replayed}, server said {served}"
                ));
            }
        }
        replay_layers(&rep, &mut out.metrics);
        let cases: Vec<(Scenario, AttackConfig)> = (0..ANALYZE_SPECS)
            .map(|k| {
                let spec = analyze_spec(input_seed, k);
                (
                    spec.scenario().expect("analyze spec is valid"),
                    spec.attack().expect("analyze spec is valid"),
                )
            })
            .collect();
        analyze_layer(&cases, 40, &mut out.metrics);
        let mut spans: Vec<Span> = log.into_spans();
        spans.extend(rep.spans);
        out.spans = spans;
    }

    shutdown(handle);
    std::fs::remove_dir_all(&dir).ok();
    out
}
