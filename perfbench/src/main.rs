//! The repository benchmark. See `README.md` next to this crate.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! perfbench --record <file>
//! ```
//!
//! Prints a table of every metric the workload measured, one `report`
//! JSON line with all of them (sample counts included), and as the last
//! line the contract JSON: `correct`, `attempted`, `failed` and the
//! `end_to_end` (`--trace 0`) or `per_layer` (`--trace 1`) metrics of
//! `BENCHMARK.json`. A traced run also writes its spans to
//! `<out>/spans-<workload>-<seed>.jsonl`.

mod expected;
mod replay;
mod report;
mod serve_mix;
mod sim;
mod spans;
mod stats;

use report::Metrics;
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Worker threads of every pool and parallel run (the host has two).
pub const THREADS: usize = 2;
/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 21;

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Metrics,
    /// Checked operations.
    pub attempted: u64,
    /// Operations that failed or returned a wrong output.
    pub failed: u64,
    pub notes: Vec<String>,
    /// Spans of a traced run.
    pub spans: Vec<spans::Span>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = PathBuf::from(".bench_out");
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? == 1),
            "--out" => out = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !report::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {})",
            report::WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        out,
    })
}

/// Peak resident set size of this process (VmHWM), in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// A fixed CPU-bound kernel (a splitmix64 chain), timed three times;
/// the median in ms says how fast the host ran during this run. It is
/// reported beside the metrics and never used to rescale them.
fn calibration_ms() -> f64 {
    let times: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            let mut x = 0x9E37_79B9_7F4A_7C15u64;
            for _ in 0..20_000_000u32 {
                x = sos_faults::splitmix64(x);
            }
            std::hint::black_box(x);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    stats::median(&times)
}

fn run(args: &Args) -> Result<(), String> {
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("create {}: {e}", args.out.display()))?;
    let input_seed = args.seed % expected::INPUT_SEEDS;
    let seconds = args.seconds as f64;
    let calibration = calibration_ms();
    let mut outcome = match args.workload.as_str() {
        "paper-chord" => sim::paper("paper-chord", "chord", input_seed, seconds, args.trace),
        "paper-direct" => sim::paper("paper-direct", "direct", input_seed, seconds, args.trace),
        "figure-grid" => sim::figure_grid(input_seed, seconds, args.trace),
        "sosd-mix" => serve_mix::sosd_mix(input_seed, seconds, args.trace, &args.out),
        other => return Err(format!("unknown workload {other}")),
    };
    let m = &mut outcome.metrics;
    m.put(
        "peak_rss_mb",
        peak_rss_mb().ok_or("no VmHWM in /proc/self/status")?,
        "MB",
    );
    m.put_n(
        "ops_failed_frac",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        "frac",
        outcome.attempted as usize,
    );
    m.put("host.calibration_ms", calibration, "ms");

    if args.trace {
        let path = args
            .out
            .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        let mut file = std::io::BufWriter::new(
            std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?,
        );
        spans::write_jsonl(&mut file, &outcome.spans)
            .and_then(|()| file.flush())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "spans: {} written to {}",
            outcome.spans.len(),
            path.display()
        );
        println!(
            "  {:<20} {:>9} {:>12} {:>12}",
            "span", "count", "total_ms", "self_ms"
        );
        for (name, count, total, self_ns) in spans::summary(&outcome.spans) {
            println!(
                "  {name:<20} {count:>9} {:>12.3} {:>12.3}",
                total as f64 / 1e6,
                self_ns as f64 / 1e6
            );
        }
    }
    println!(
        "{} seed {} (input seed {input_seed}), trace {}:",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    print!("{}", report::table(&outcome.metrics));
    for note in &outcome.notes {
        println!("  note: {note}");
    }
    println!(
        "report {}",
        report::report_json(
            &args.workload,
            args.seed,
            input_seed,
            args.trace,
            &outcome.metrics,
            &outcome.notes
        )
    );
    let line = report::contract_json(
        args.trace,
        &outcome.metrics,
        outcome.attempted,
        outcome.failed,
    )
    .map_err(|missing| format!("metrics not measured: {}", missing.join(", ")))?;
    println!("{line}");
    Ok(())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("--record") {
        let Some(path) = raw.get(1) else {
            eprintln!("error: --record needs a file");
            return ExitCode::from(2);
        };
        return match std::fs::write(path, sim::record()) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {path}: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
