//! The repository benchmark: runs one named workload against the crates'
//! public functions, checks every output, and prints each metric by name
//! with its unit. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports
//! the end-to-end metrics from untraced passes; `--trace 1` reports the
//! per-layer metrics from traced passes, interleaved with untraced ones to
//! measure the tracing overhead. See README.md beside this file.
//!
//! ```text
//! repobench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//! ```

mod alloc;
mod harness;
mod kl1;
mod memsys;
mod probe;
mod sim;
mod sweep;

use std::process::ExitCode;

use harness::{result_json, Checks, Outcome, Value};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// The workloads, by name.
pub const WORKLOADS: [&str; 4] = ["kl1-pim", "memsys-replay", "memsys-sharing", "sweep-grid"];

/// How one invocation runs its workload.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload name, one of [`WORKLOADS`].
    pub workload: String,
    /// Seed the workload's inputs are generated from.
    pub seed: u64,
    /// How long the passes run, at least three of them.
    pub seconds: f64,
    /// Per-layer traced run instead of the end-to-end one.
    pub trace: bool,
    /// Smoke-size inputs, for the self-tests.
    pub smoke: bool,
}

const USAGE: &str = "usage: repobench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]\n\
     workloads: kl1-pim, memsys-replay, memsys-sharing, sweep-grid";

fn parse_args(args: &[String]) -> Result<RunConfig, String> {
    let mut cfg = RunConfig {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            cfg.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => cfg.workload = value.clone(),
            "--seed" => cfg.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                cfg.seconds = value.parse().map_err(|_| bad())?;
                if !(cfg.seconds >= 0.0 && cfg.seconds.is_finite()) {
                    return Err(bad());
                }
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&cfg.workload.as_str()) {
        return Err(format!("unknown or missing --workload `{}`", cfg.workload));
    }
    Ok(cfg)
}

/// Runs the configured workload; returns its outcome and checks.
pub fn run(cfg: &RunConfig) -> (Outcome, Checks) {
    let mut checks = Checks::default();
    let mut out = match cfg.workload.as_str() {
        "kl1-pim" => kl1::run(cfg, &mut checks),
        "memsys-replay" => memsys::run_replay(cfg, &mut checks),
        "memsys-sharing" => memsys::run_sharing(cfg, &mut checks),
        _ => {
            let dir = sweep::scratch_dir();
            let out = sweep::run(cfg, &dir, &mut checks);
            let _ = std::fs::remove_dir_all(&dir);
            if let Some(parent) = dir.parent() {
                // Removed only when no other run is using it.
                let _ = std::fs::remove_dir(parent);
            }
            out
        }
    };
    out.e2e.peak_rss_mb = harness::peak_rss_mb();
    (out, checks)
}

/// The metrics the final line carries: end-to-end, or per-layer when
/// traced.
pub fn reported(cfg: &RunConfig, out: &Outcome) -> Vec<(&'static str, Value, &'static str)> {
    if cfg.trace {
        out.layers.metrics()
    } else {
        out.e2e.metrics()
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("repobench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (out, checks) = run(&cfg);
    if checks.attempted == 0 {
        eprintln!("repobench: no operation ran");
        return ExitCode::from(1);
    }
    let mode = if cfg.trace { "traced" } else { "untraced" };
    println!(
        "repobench {} seed {}: {} untraced passes ({mode} run)",
        cfg.workload, cfg.seed, out.passes
    );
    let metrics = reported(&cfg, &out);
    for (name, value, unit) in &metrics {
        match value {
            Value::F(v) => println!("  {name:<36} {v:.6} {unit}"),
            Value::U(v) => println!("  {name:<36} {v} {unit}"),
        }
    }
    println!(
        "  {:<36} {} ({} failed of {} operations)",
        "fail_frac",
        checks.fail_frac(),
        checks.failed,
        checks.attempted
    );
    for note in &out.notes {
        println!("  {note}");
    }
    println!("{}", result_json(&checks, &metrics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every metric in one section of BENCHMARK.json.
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside repobench/");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..start + text[start..].find(']').expect("section ends")];
        let field = |entry: &str, key: &str| {
            let at = entry
                .find(&format!("\"{key}\": \""))
                .expect("field present")
                + key.len()
                + 5;
            entry[at..at + entry[at..].find('"').expect("string ends")].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|entry| (field(entry, "name"), field(entry, "unit")))
            .collect()
    }

    fn smoke(workload: &str, trace: bool) -> RunConfig {
        RunConfig {
            workload: workload.to_string(),
            seed: 1,
            seconds: 0.0,
            trace,
            smoke: true,
        }
    }

    #[test]
    fn every_workload_prints_every_declared_metric_with_its_unit() {
        for workload in WORKLOADS {
            for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
                let cfg = smoke(workload, trace);
                let (out, checks) = run(&cfg);
                assert!(checks.attempted > 0, "{workload}: nothing ran");
                assert_eq!(checks.failed, 0, "{workload}: a check failed");
                let printed: Vec<(String, String)> = reported(&cfg, &out)
                    .iter()
                    .map(|(name, _, unit)| (name.to_string(), unit.to_string()))
                    .collect();
                assert_eq!(printed, declared(section), "{workload} {section}");
                let line = result_json(&checks, &reported(&cfg, &out));
                assert!(
                    !line.contains("null"),
                    "{workload}: non-finite metric in {line}"
                );
            }
        }
    }

    #[test]
    fn a_wrong_expected_answer_counts_as_a_failed_operation() {
        let (mut programs, _) = sim::compile_all(workloads::Scale::smoke()).expect("compiles");
        let mut prog = programs.remove(0);
        prog.expected = fghc::Term::Int(-1);
        let mut checks = Checks::default();
        checks.begin("wrong oracle");
        sim::run_program(&prog, 2, None, false, &mut checks);
        assert_eq!((checks.attempted, checks.failed), (1, 1));
        assert_eq!(checks.fail_frac(), 1.0);
        let line = result_json(&checks, &[]);
        assert!(
            line.starts_with("{\"correct\": false, \"attempted\": 1, \"failed\": 1"),
            "{line}"
        );
    }

    #[test]
    fn simulated_counters_repeat_exactly_across_runs() {
        let cfg = smoke("memsys-sharing", true);
        let (a, _) = run(&cfg);
        let (b, _) = run(&cfg);
        let exact = |o: &Outcome| {
            let l = o.layers;
            (
                l.sim_steps,
                l.makespan_cycles,
                l.bus_cycles,
                l.bus_transactions,
                l.hit_ratio.to_bits(),
                l.allocs_per_access.to_bits(),
            )
        };
        assert_eq!(exact(&a), exact(&b));
    }
}
