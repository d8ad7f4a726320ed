//! `kl1-pim`: the five Table-1 programs, compiled with `fghc::compile`,
//! run to completion on the paper's 8-PE PIM system.

use std::time::Instant;

use workloads::Scale;

use crate::harness::{self, check_repeat, measure, secs, Checks, Outcome, SetupTimes};
use crate::probe::Probe;
use crate::sim::{self, compile_all, mix, run_program, SimCounts};
use crate::RunConfig;

/// PEs of the paper's base system.
pub const PES: u32 = 8;

/// The problem sizes for `seed`: the `small` preset, with Pascal's row
/// count picked from 140..=160. The band is kept narrow on purpose: a
/// pass's work must stay within about a percent of every other seed's, or
/// the seed would show as noise in the timings. Tri's depth, Puzzle's
/// board and BUP's sentence length change the work in steps of 1.5x or
/// more, and Semi's closure size jumps with the modulus's factors
/// (moduli 60 and 62 differ 60-fold in run time), so those stay fixed.
pub fn scale(seed: u64, smoke: bool) -> Scale {
    if smoke {
        return Scale::smoke();
    }
    Scale {
        pascal_rows: 140 + (mix(seed, 1) % 21) as i64,
        ..Scale::small()
    }
}

/// Runs the workload.
pub fn run(cfg: &RunConfig, checks: &mut Checks) -> Outcome {
    let scale = scale(cfg.seed, cfg.smoke);
    let mut setup = SetupTimes::default();
    let mut compile_times = Vec::new();
    let programs = match setup.time(|| compile_all(scale)) {
        Ok((programs, t)) => {
            compile_times.push(t);
            programs
        }
        Err(e) => {
            checks.begin("kl1-pim compile");
            checks.check("programs compile", false, || e);
            return Outcome::default();
        }
    };

    let probe = Probe::new();
    let mut first = None;
    let mut counts = SimCounts::default();
    let mut op_s = Vec::new();
    let mut pieces = Vec::new();
    let mut traced_s = Vec::new();
    let passes = measure(cfg.seconds, cfg.trace, |traced| {
        let t = Instant::now();
        let mut pass = SimCounts::default();
        for prog in &programs {
            checks.begin(format!("kl1-pim {}", prog.bench.name()));
            let op = Instant::now();
            let run = run_program(prog, PES, traced.then_some(&probe), false, checks);
            if !traced {
                let (name, op_t) = (prog.bench.name(), secs(op));
                op_s.push((name.to_string(), op_t));
                harness::push_pieces(&mut pieces, name, op_t, &run.chunks);
            }
            pass.add(&run.counts);
        }
        let dt = secs(t);
        if traced {
            traced_s.push(dt);
        }
        check_repeat(checks, &mut first, pass.list());
        counts = pass;
        if !traced {
            if let Ok((_, t)) = setup.time(|| compile_all(scale)) {
                compile_times.push(t);
            }
        }
        dt
    });

    let run_s = harness::best_pass(&pieces);
    let mut out = Outcome {
        passes: passes.untraced.len(),
        ..Outcome::default()
    };
    out.e2e.setup_s = setup.best();
    out.notes.push(setup.note());
    out.e2e.run_s = run_s;
    out.e2e.accesses_per_s = counts.refs as f64 / run_s;
    out.notes.push(format!(
        "reductions_per_s {} 1/s ({} reductions per pass)",
        counts.reductions as f64 / run_s,
        counts.reductions
    ));
    out.notes.push(passes.note());
    out.notes.push(harness::latency_note("program run", &op_s));
    out.notes.push(harness::per_op_note(&op_s));
    out.notes.push(format!("sizes {scale:?}"));

    let l = &mut out.layers;
    l.compile_s = harness::median(&compile_times);
    l.reductions_per_s = counts.reductions as f64 / run_s;
    l.kl1_self_s = sim::fill_layers(l, &counts, &probe, &traced_s, &passes);
    l.kl1_steps = counts.steps;
    l.reductions = counts.reductions;
    l.suspensions = counts.suspensions;
    let reductions = (counts.reductions * traced_s.len() as u64).max(1) as f64;
    l.kl1_allocs_per_reduction = probe
        .step_allocs
        .get()
        .saturating_sub(probe.access_allocs.get()) as f64
        / reductions;
    out
}
