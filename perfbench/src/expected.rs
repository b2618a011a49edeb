//! Output values recorded with the benchmark: per input seed, each
//! simulate workload's per-point `successes`, `attempts` and realized
//! `P_S` (both evaluators, as exact f64 bit patterns). Every run checks
//! its results against them, so the byte-identity contract is checked
//! on every run; `--record` regenerates the file.
//!
//! Format, one line per `(workload, input seed)`:
//! `<workload> <seed> <successes>:<attempts>:<hyper bits>:<binom bits>[,...]`.

use sos_sim::SimulationResult;

const RECORDED: &str = include_str!("../expected.txt");

/// Input seeds with recorded values; a run's `--seed` selects
/// `seed % INPUT_SEEDS`.
pub const INPUT_SEEDS: u64 = 64;

/// One point's recorded values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expect {
    successes: u64,
    attempts: u64,
    hyper_bits: u64,
    binom_bits: u64,
}

impl Expect {
    fn of(r: &SimulationResult) -> Expect {
        Expect {
            successes: r.successes,
            attempts: r.attempts,
            hyper_bits: r.realized_ps_hypergeometric.to_bits(),
            binom_bits: r.realized_ps_binomial.to_bits(),
        }
    }

    /// Recorded delivered routes.
    pub fn successes(&self) -> u64 {
        self.successes
    }
}

fn parse_point(raw: &str) -> Option<Expect> {
    let mut parts = raw.split(':');
    let successes = parts.next()?.parse().ok()?;
    let attempts = parts.next()?.parse().ok()?;
    let hyper_bits = u64::from_str_radix(parts.next()?, 16).ok()?;
    let binom_bits = u64::from_str_radix(parts.next()?, 16).ok()?;
    parts.next().is_none().then_some(Expect {
        successes,
        attempts,
        hyper_bits,
        binom_bits,
    })
}

/// The recorded points of `workload` at `input_seed`.
pub fn lookup(workload: &str, input_seed: u64) -> Option<Vec<Expect>> {
    RECORDED.lines().find_map(|line| {
        let mut fields = line.split(' ');
        if fields.next()? != workload || fields.next()?.parse::<u64>().ok()? != input_seed {
            return None;
        }
        fields.next()?.split(',').map(parse_point).collect()
    })
}

/// Points of `results` that differ from the record (a length mismatch
/// counts every point).
pub fn mismatches(expect: &[Expect], results: &[SimulationResult]) -> u64 {
    if expect.len() != results.len() {
        return results.len().max(expect.len()) as u64;
    }
    expect
        .iter()
        .zip(results)
        .filter(|(e, r)| **e != Expect::of(r))
        .count() as u64
}

/// The record line for `results`.
pub fn line(workload: &str, input_seed: u64, results: &[SimulationResult]) -> String {
    let points: Vec<String> = results
        .iter()
        .map(|r| {
            let e = Expect::of(r);
            format!(
                "{}:{}:{:016x}:{:016x}",
                e.successes, e.attempts, e.hyper_bits, e.binom_bits
            )
        })
        .collect();
    format!("{workload} {input_seed} {}", points.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_simulate_workload_has_every_input_seed_recorded() {
        for (workload, points) in [("paper-chord", 1), ("paper-direct", 1), ("figure-grid", 42)] {
            for seed in 0..INPUT_SEEDS {
                let record = lookup(workload, seed).unwrap_or_else(|| panic!("{workload} {seed}"));
                assert_eq!(record.len(), points, "{workload} {seed}");
            }
        }
    }

    #[test]
    fn record_lines_round_trip() {
        let spec = sos_serve::SimSpec {
            overlay_nodes: 1000,
            trials: 2,
            routes: 10,
            ..Default::default()
        };
        let result = sos_sim::Simulation::new(spec.sim_config().unwrap()).run();
        let text = line("w", 3, &[result.clone(), result.clone()]);
        let points: Vec<Expect> = text
            .split(' ')
            .nth(2)
            .unwrap()
            .split(',')
            .map(|p| parse_point(p).unwrap())
            .collect();
        assert_eq!(mismatches(&points, &[result.clone(), result.clone()]), 0);
        let mut other = result.clone();
        other.successes += 1;
        assert_eq!(mismatches(&points, &[result, other]), 1);
    }
}
