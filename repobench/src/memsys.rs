//! The memory-system workloads: reference streams replayed through
//! `Engine` + `PimSystem` with no KL1 emulation in the timed part.
//!
//! * `memsys-replay` captures the Table-1 programs' committed streams at
//!   16 PEs during set-up and replays them, with an in-memory checkpoint
//!   round trip every [`CKPT_EVERY`] steps.
//! * `memsys-sharing` replays seeded heap-mix and lock-churn streams.

use std::time::Instant;

use workloads::synthetic::{lock_churn, shared_heap_mix};

use crate::harness::{self, check_repeat, measure, secs, Checks, Outcome, SetupTimes};
use crate::probe::Probe;
use crate::sim::{self, compile_all, mix, replay, run_program, CkptTotals, SimCounts, Stream};
use crate::{kl1, RunConfig};

/// PEs of both memory-system workloads: enough to expose costs that grow
/// with the PE count.
pub const PES: u32 = 16;

/// Engine steps between checkpoint round trips in `memsys-replay`.
const CKPT_EVERY: u64 = 1 << 20;

/// The cadence for the smoke-size streams, so the self-tests round-trip
/// checkpoints too.
const CKPT_EVERY_SMOKE: u64 = sim::CHUNK;

/// Replays `streams` in passes for `cfg.seconds` and fills the outcome.
/// `every` is the checkpoint cadence; `label` names the workload. With
/// `regenerate: Some((n, f))`, `f` sets the streams up afresh after every
/// `n`th untraced pass (deterministically, so later passes replay
/// identical streams), so the set-up median samples the whole run.
fn replay_passes(
    label: &str,
    cfg: &RunConfig,
    streams: &mut Vec<Stream>,
    every: Option<u64>,
    mut regenerate: Option<(usize, &mut dyn FnMut() -> Vec<Stream>)>,
    checks: &mut Checks,
) -> Outcome {
    let probe = Probe::new();
    let mut first = None;
    let mut counts = SimCounts::default();
    let mut ckpt_traced = CkptTotals::default();
    let mut ckpt_bytes = 0;
    let mut op_s = Vec::new();
    let mut pieces = Vec::new();
    let mut untraced = 0;
    let mut traced_s = Vec::new();
    let passes = measure(cfg.seconds, cfg.trace, |traced| {
        let t = Instant::now();
        let mut pass = SimCounts::default();
        let mut ckpt = CkptTotals::default();
        for stream in streams.iter_mut() {
            checks.begin(format!("{label} {}", stream.name));
            let op = Instant::now();
            let run = replay(
                stream,
                PES,
                traced.then_some(&probe),
                every,
                &mut ckpt,
                checks,
            );
            if !traced {
                let op_t = secs(op);
                op_s.push((stream.name.clone(), op_t));
                harness::push_pieces(&mut pieces, &stream.name, op_t, &run.chunks);
            }
            pass.add(&run.counts);
        }
        let dt = secs(t);
        if traced {
            traced_s.push(dt);
            ckpt_traced.save_s += ckpt.save_s;
            ckpt_traced.restore_s += ckpt.restore_s;
        }
        let mut list = pass.list();
        list.push(("ckpt_bytes", ckpt.bytes));
        check_repeat(checks, &mut first, list);
        counts = pass;
        ckpt_bytes = ckpt.bytes;
        if !traced {
            untraced += 1;
            if let Some((n, regenerate)) = regenerate.as_mut() {
                if untraced % *n == 0 {
                    // Free the old streams first, so the peak resident
                    // set stays that of one set-up.
                    drop(std::mem::take(streams));
                    *streams = regenerate();
                }
            }
        }
        dt
    });

    let run_s = harness::best_pass(&pieces);
    let mut out = Outcome {
        passes: passes.untraced.len(),
        ..Outcome::default()
    };
    out.e2e.run_s = run_s;
    out.e2e.accesses_per_s = counts.refs as f64 / run_s;
    out.notes.push(passes.note());
    out.notes.push(harness::latency_note("replay", &op_s));
    out.notes.push(harness::per_op_note(&op_s));
    let l = &mut out.layers;
    l.replay_self_s = sim::fill_layers(l, &counts, &probe, &traced_s, &passes);
    let n = traced_s.len().max(1) as f64;
    l.ckpt_save_s = ckpt_traced.save_s / n;
    l.ckpt_restore_s = ckpt_traced.restore_s / n;
    l.ckpt_bytes = ckpt_bytes;
    l.other_s -= l.ckpt_save_s + l.ckpt_restore_s;
    out
}

/// Untraced passes between two captures in `memsys-replay`: a capture
/// takes longer than a pass, so it is repeated less often than that.
const RECAPTURE_EVERY: usize = 5;

/// Compiles the programs and captures their streams at [`PES`] PEs,
/// timing it as one set-up whose pieces are the compile and each
/// program's capture.
fn capture(
    scale: workloads::Scale,
    setup: &mut SetupTimes,
    compile_times: &mut Vec<f64>,
    capture_times: &mut Vec<f64>,
    checks: &mut Checks,
) -> Vec<Stream> {
    let start = Instant::now();
    let (programs, compile_s) = match compile_all(scale) {
        Ok(compiled) => compiled,
        Err(e) => {
            checks.begin("memsys-replay compile");
            checks.check("programs compile", false, || e);
            return Vec::new();
        }
    };
    let mut pieces = vec![("compile", compile_s)];
    let streams = programs
        .iter()
        .map(|prog| {
            let name = prog.bench.name();
            checks.begin(format!("memsys-replay capture {name}"));
            let t = Instant::now();
            let trace = run_program(prog, PES, None, true, checks).trace;
            let stream = Stream::new(name.to_string(), &trace, PES);
            pieces.push((name, secs(t)));
            stream
        })
        .collect();
    setup.record(&pieces, secs(start));
    compile_times.push(compile_s);
    capture_times.push(pieces[1..].iter().map(|(_, t)| t).sum());
    streams
}

/// The capture sizes: `kl1-pim`'s, with Tri one level shallower and the
/// small Puzzle board. That keeps the five streams near 4.2 M accesses
/// (about 65 MB) instead of 12 M: a pass takes about half a second, so a
/// run times every chunk many times, and the process stays small.
fn replay_scale(seed: u64, smoke: bool) -> workloads::Scale {
    if smoke {
        return kl1::scale(seed, smoke);
    }
    workloads::Scale {
        tri_depth: 4,
        puzzle_large: false,
        ..kl1::scale(seed, smoke)
    }
}

/// Runs `memsys-replay`.
pub fn run_replay(cfg: &RunConfig, checks: &mut Checks) -> Outcome {
    let scale = replay_scale(cfg.seed, cfg.smoke);
    let mut setup = SetupTimes::default();
    let mut compile_times = Vec::new();
    let mut capture_times = Vec::new();
    let mut streams = capture(
        scale,
        &mut setup,
        &mut compile_times,
        &mut capture_times,
        checks,
    );
    if streams.is_empty() {
        return Outcome::default();
    }
    // Later captures run between passes, while `checks` is lent to the
    // passes; their checks are added in afterwards.
    let mut recapture_checks = Checks::default();
    let mut recapture = || {
        capture(
            scale,
            &mut setup,
            &mut compile_times,
            &mut capture_times,
            &mut recapture_checks,
        )
    };
    let every = if cfg.smoke {
        CKPT_EVERY_SMOKE
    } else {
        CKPT_EVERY
    };
    let mut out = replay_passes(
        "memsys-replay",
        cfg,
        &mut streams,
        Some(every),
        Some((RECAPTURE_EVERY, &mut recapture)),
        checks,
    );
    checks.absorb(&recapture_checks);
    out.e2e.setup_s = setup.best();
    out.notes.push(setup.note());
    out.layers.compile_s = harness::median(&compile_times);
    out.layers.capture_s = harness::median(&capture_times);
    out.layers.trace_accesses = streams.iter().map(|s| s.len).sum();
    out.notes.push(format!("sizes {scale:?}"));
    out
}

/// Heap-mix accesses per pass, and lock/unlock pairs per PE in lock-churn.
fn sharing_sizes(smoke: bool) -> (u64, u64) {
    if smoke {
        (20_000, 500)
    } else {
        (400_000, 20_000)
    }
}

/// Generates the `memsys-sharing` streams for `seed`.
fn sharing_streams(seed: u64, smoke: bool) -> Vec<Stream> {
    let (heap_accesses, lock_pairs) = sharing_sizes(smoke);
    let heap = shared_heap_mix(PES, heap_accesses, 30, 1 << 14, mix(seed, 11));
    let locks = lock_churn(PES, lock_pairs, 10, mix(seed, 12));
    vec![
        Stream::new("heap-mix".to_string(), &heap, PES),
        Stream::new("lock-churn".to_string(), &locks, PES),
    ]
}

/// Runs `memsys-sharing`. The streams take tens of milliseconds to
/// generate, so they are generated afresh after every untraced pass.
pub fn run_sharing(cfg: &RunConfig, checks: &mut Checks) -> Outcome {
    let mut setup = SetupTimes::default();
    let mut generate = || setup.time(|| sharing_streams(cfg.seed, cfg.smoke));
    let mut streams = generate();
    let mut out = replay_passes(
        "memsys-sharing",
        cfg,
        &mut streams,
        None,
        Some((1, &mut generate)),
        checks,
    );
    out.e2e.setup_s = setup.best();
    out.notes.push(setup.note());
    let (heap_accesses, lock_pairs) = sharing_sizes(cfg.smoke);
    out.notes.push(format!(
        "streams heap-mix {heap_accesses} accesses, lock-churn {lock_pairs} pairs per PE"
    ));
    out
}
