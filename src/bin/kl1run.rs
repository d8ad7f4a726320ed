//! `kl1run` — run an FGHC program file on the simulated PIM machine.
//!
//! ```text
//! kl1run [options] <program.fghc> [goal]
//!
//! options:
//!   --pes N           processing elements (default 8, 1 to 64)
//!   --flat            skip the cache simulation (functional run)
//!   --illinois        use the Illinois baseline protocol
//!   --no-opt          disable the DW/ER/RP/RI optimized commands
//!   --gc WORDS        enable stop-and-copy GC with WORDS-word semispaces
//!   --indexed         compile with first-argument clause indexing
//!   --faults SPEC     inject deterministic faults into the cache
//!                     simulation, e.g. `seed=7,rate=0.01` (see tracesim)
//!   --timeout SECS    wall-clock deadline on the simulation: a
//!                     pathological program stops with a structured
//!                     wall-clock-expired diagnostic (simulated cycle
//!                     and step count reached) and exit 1 instead of
//!                     running forever. With --checkpoint, a final
//!                     snapshot is drained first so the run can resume
//!                     with a larger budget. Not available with --flat
//!   --stats           print machine and memory statistics
//!   --perf            profile the host-side run: per-phase wall-time
//!                     breakdown (parse, engine run, GC, report write)
//!                     on stderr, plus a `host_perf` block with host and
//!                     commit provenance in the `--profile` document.
//!                     Purely observational: simulation results are
//!                     byte-identical with and without it
//!   --code            dump the compiled abstract code and exit
//!   --profile FILE    write a JSON profile (cycle accounts, latency
//!                     histograms, coherence transitions) to FILE
//!   --trace FILE[:cap=N]
//!                     record cycle-stamped events (reductions,
//!                     suspensions/resumptions, GC, coherence and bus
//!                     activity, lock waits) to FILE as Chrome
//!                     trace_event JSON — load in Perfetto or analyze
//!                     with `pimtrace`. Not available with --flat
//!                     (there is no simulated time to stamp)
//!   --checkpoint FILE[:every=N]
//!                     write crash-safe `pim-ckpt/v1` snapshots of the
//!                     whole machine + cache state to FILE: every N
//!                     committed steps when `:every=N` is given, and
//!                     always on SIGINT (drain + exit 130). Not
//!                     available with --flat (nothing to snapshot
//!                     beyond the functional heap)
//!   --resume FILE     restore a `--checkpoint` snapshot and continue.
//!                     Needs the identical program source and flags
//!                     (except --checkpoint and --resume);
//!                     results and output files match an uninterrupted
//!                     run byte for byte (modulo the profile's
//!                     `checkpoint` block)
//!   --status FILE[:every=SECS]
//!                     write a crash-safe `pim-status/v1` live snapshot
//!                     (watch with `sweepwatch FILE`), updated at engine
//!                     chunk boundaries at most every SECS seconds
//!                     (default 2); purely observational
//!   --metrics FILE    write Prometheus text-format metrics (textfile-
//!                     collector compatible) on the same cadence
//!   --io-chaos seed=N[,rate=PPM][,kinds=...]
//!                     inject deterministic disk faults under every
//!                     durable write (profile, trace, checkpoint,
//!                     telemetry); all recovered with bounded retries,
//!                     emitted files byte-identical to an undisturbed
//!                     run (see pim_ckpt::vfs)
//!
//! The goal defaults to `main/1` called as `main(X)`; pass a name to call
//! `<name>(X)` instead. The binding of X is printed as the result.
//! ```
//!
//! The simulation runs on one sequential engine. The `--threads` flag of
//! earlier builds is refused (exit 2): to use more cores, run independent
//! cells side by side with `repro --threads N` or `sweeprun --threads N`.

use kl1_machine::{Cluster, ClusterConfig};
use pim_cache::{OptMask, PimSystem, SystemConfig, MAX_PES};
use pim_fault::{FaultConfig, FaultPlan, FaultStats};
use pim_obs::{Fanout, Json, Observer, SharedMetrics};
use pim_repro::report;
use pim_sim::{Engine, IllinoisSystem, MemorySystem};
use pim_trace::{PeId, StorageArea};
use pim_tracer::SharedTracer;

// With `--features perf-alloc`, count allocations so `--perf` breakdowns
// carry per-phase allocation columns (`"alloc_counting": true`).
#[cfg(feature = "perf-alloc")]
#[global_allocator]
static ALLOC: pim_perf::CountingAlloc = pim_perf::CountingAlloc;

struct Options {
    pes: u32,
    flat: bool,
    illinois: bool,
    no_opt: bool,
    gc: Option<u64>,
    indexed: bool,
    stats: bool,
    code: bool,
    perf: bool,
    faults: Option<FaultConfig>,
    timeout_secs: Option<u64>,
    profile: Option<String>,
    trace: Option<String>,
    checkpoint: Option<String>,
    resume: Option<String>,
    status: Option<String>,
    metrics: Option<String>,
    file: String,
    goal: String,
}

fn usage() -> ! {
    eprintln!(
        "usage: kl1run [--pes N] [--flat] [--illinois] [--no-opt] \
         [--gc WORDS] [--indexed] [--stats] [--code] [--perf] [--faults SPEC] \
         [--timeout SECS] [--profile FILE] [--trace FILE[:cap=N]] \
         [--checkpoint FILE[:every=N]] [--resume FILE] \
         [--status FILE[:every=SECS]] [--metrics FILE] \
         [--io-chaos seed=N[,rate=PPM][,kinds=...]] <program.fghc> [goal]"
    );
    std::process::exit(2);
}

/// Parses a numeric flag value, naming the flag and the offending value
/// on failure (exit 2, like every other bad invocation).
fn numeric_flag<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    let Some(v) = value else {
        eprintln!("kl1run: {flag} needs a numeric argument");
        std::process::exit(2);
    };
    v.parse().unwrap_or_else(|_| {
        eprintln!("kl1run: invalid value `{v}` for {flag} (expected a number)");
        std::process::exit(2);
    })
}

fn parse_args() -> Options {
    let mut opts = Options {
        pes: 8,
        flat: false,
        illinois: false,
        no_opt: false,
        gc: None,
        indexed: false,
        stats: false,
        code: false,
        perf: false,
        faults: None,
        timeout_secs: None,
        profile: None,
        trace: None,
        checkpoint: None,
        resume: None,
        status: None,
        metrics: None,
        file: String::new(),
        goal: "main".into(),
    };
    let mut positional = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--pes" => opts.pes = numeric_flag("--pes", args.next()),
            "--threads" => {
                eprintln!(
                    "kl1run: --threads is not supported: the simulation runs on one \
                     sequential engine; to use more cores, run independent cells with \
                     `repro --threads N` or `sweeprun --threads N`"
                );
                std::process::exit(2);
            }
            "--flat" => opts.flat = true,
            "--illinois" => opts.illinois = true,
            "--timeout" => {
                opts.timeout_secs = Some(numeric_flag("--timeout", args.next()));
                if opts.timeout_secs == Some(0) {
                    eprintln!("kl1run: --timeout must be at least 1 second");
                    std::process::exit(2);
                }
            }
            "--no-opt" => opts.no_opt = true,
            "--gc" => opts.gc = Some(numeric_flag("--gc", args.next())),
            "--indexed" => opts.indexed = true,
            "--stats" => opts.stats = true,
            "--code" => opts.code = true,
            "--perf" => opts.perf = true,
            "--faults" => {
                let Some(spec) = args.next() else {
                    eprintln!("kl1run: --faults needs a spec like seed=7,rate=0.01");
                    std::process::exit(2);
                };
                match FaultConfig::parse_spec(&spec) {
                    Ok(c) => opts.faults = Some(c),
                    Err(e) => {
                        eprintln!("kl1run: bad --faults spec: {e}");
                        std::process::exit(2);
                    }
                }
            }
            "--profile" => match args.next() {
                Some(path) => opts.profile = Some(path),
                None => {
                    eprintln!("kl1run: --profile needs a file argument");
                    std::process::exit(2);
                }
            },
            "--trace" => match args.next() {
                Some(spec) => opts.trace = Some(spec),
                None => {
                    eprintln!("kl1run: --trace needs a file argument (FILE[:cap=N])");
                    std::process::exit(2);
                }
            },
            "--checkpoint" => match args.next() {
                Some(spec) => opts.checkpoint = Some(spec),
                None => {
                    eprintln!("kl1run: --checkpoint needs a file argument (FILE[:every=N])");
                    std::process::exit(2);
                }
            },
            "--resume" => match args.next() {
                Some(path) => opts.resume = Some(path),
                None => {
                    eprintln!("kl1run: --resume needs a checkpoint file argument");
                    std::process::exit(2);
                }
            },
            "--status" => match args.next() {
                Some(spec) => opts.status = Some(spec),
                None => {
                    eprintln!("kl1run: --status needs a file argument (FILE[:every=SECS])");
                    std::process::exit(2);
                }
            },
            "--metrics" => match args.next() {
                Some(path) => opts.metrics = Some(path),
                None => {
                    eprintln!("kl1run: --metrics needs a file argument");
                    std::process::exit(2);
                }
            },
            "--io-chaos" => match args.next() {
                Some(spec) => match pim_ckpt::vfs::IoChaosConfig::parse_spec(&spec) {
                    Ok(cfg) => pim_ckpt::vfs::install(cfg),
                    Err(e) => {
                        eprintln!("kl1run: {e}");
                        std::process::exit(2);
                    }
                },
                None => {
                    eprintln!(
                        "kl1run: --io-chaos needs a spec argument (seed=N[,rate=PPM][,kinds=...])"
                    );
                    std::process::exit(2);
                }
            },
            "--help" | "-h" => usage(),
            other if other.starts_with("--") => {
                eprintln!("kl1run: unknown flag `{other}`");
                usage()
            }
            other => positional.push(other.to_string()),
        }
    }
    match positional.len() {
        1 => opts.file = positional.remove(0),
        2 => {
            opts.file = positional.remove(0);
            opts.goal = positional.remove(0);
        }
        _ => usage(),
    }
    if opts.pes == 0 {
        eprintln!("kl1run: --pes must be at least 1");
        std::process::exit(2);
    }
    if opts.pes > MAX_PES {
        eprintln!(
            "kl1run: --pes {} is more than the maximum of {MAX_PES}",
            opts.pes
        );
        std::process::exit(2);
    }
    opts
}

fn main() {
    let wall_start = std::time::Instant::now();
    let opts = parse_args();
    if opts.perf {
        pim_perf::enable();
    }
    let source = match std::fs::read_to_string(&opts.file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("kl1run: cannot read {}: {e}", opts.file);
            std::process::exit(1);
        }
    };
    let compile_span = pim_perf::span(pim_perf::phase::COMPILE);
    let program = match fghc::compile_with(
        &source,
        fghc::CompileOptions {
            first_arg_indexing: opts.indexed,
        },
    ) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{}: {e}", opts.file);
            std::process::exit(2);
        }
    };
    drop(compile_span);
    if opts.code {
        print!("{program}");
        return;
    }

    let mut cluster = Cluster::new(
        program,
        ClusterConfig {
            pes: opts.pes,
            heap_semispace_words: opts.gc,
            ..Default::default()
        },
    );
    // Prefer goal/1 with a result variable; fall back to goal/0.
    let arity1 = cluster.program().lookup(&opts.goal, 1).is_some();
    let query = if arity1 {
        cluster.set_query(&opts.goal, vec![fghc::Term::Var("X".into())])
    } else {
        cluster.set_query(&opts.goal, vec![])
    };
    if let Err(e) = query {
        eprintln!("kl1run: {e} in {}", opts.file);
        std::process::exit(1);
    }

    let started = std::time::Instant::now();
    let mask = if opts.no_opt {
        OptMask::none()
    } else {
        OptMask::all()
    };
    let config = SystemConfig {
        pes: opts.pes,
        opt_mask: mask,
        ..Default::default()
    };

    let print_result = |cluster: &Cluster, result: Option<fghc::Term>| {
        if let Some(msg) = cluster.failure() {
            eprintln!("kl1run: program failed: {msg}");
            std::process::exit(1);
        }
        match result {
            Some(term) => println!("X = {term}"),
            None => println!("ok"),
        }
    };

    let print_stats = |cluster: &Cluster,
                       sys: Option<&dyn MemorySystem>,
                       makespan: u64,
                       fstats: Option<&FaultStats>| {
        if !opts.stats {
            return;
        }
        let m = cluster.stats();
        eprintln!("--- machine ---");
        eprintln!("reductions:     {}", m.reductions);
        eprintln!("suspensions:    {}", m.suspensions);
        eprintln!("instructions:   {}", m.instructions);
        eprintln!("goal migrations:{}", m.goals_migrated);
        eprintln!("heap words:     {}", m.heap_words);
        if m.gc.collections > 0 {
            eprintln!(
                "gc:             {} collections, {} copied, {} reclaimed",
                m.gc.collections, m.gc.words_copied, m.gc.words_reclaimed
            );
        }
        if let Some(sys) = sys {
            eprintln!("--- memory system ---");
            eprintln!("references:     {}", sys.ref_stats().total());
            eprintln!("bus cycles:     {}", sys.bus_stats().total_cycles());
            for area in StorageArea::ALL {
                eprintln!(
                    "  {:5}         {:5.1}%",
                    area.label(),
                    sys.bus_stats().area_cycle_pct(area)
                );
            }
            eprintln!("miss ratio:     {:.4}", sys.access_stats().miss_ratio());
            eprintln!(
                "locks:          {} LR, {:.1}% free, {:.1}% unlocks silent",
                sys.lock_stats().lr_total,
                100.0 * sys.lock_stats().lr_hit_exclusive_ratio(),
                100.0 * sys.lock_stats().unlock_no_waiter_ratio(),
            );
            eprintln!("simulated time: {makespan} cycles");
        }
        if let Some(fs) = fstats {
            if fs.total_injected() > 0 {
                eprintln!(
                    "faults:         {} injected, {} recovered, {} retries, {} penalty cycles",
                    fs.total_injected(),
                    fs.total_recovered(),
                    fs.retries,
                    fs.penalty_cycles
                );
            }
        }
        eprintln!("wall time:      {:.2?}", started.elapsed());
    };

    const MAX_STEPS: u64 = u64::MAX;

    if opts.flat && opts.trace.is_some() {
        eprintln!("kl1run: --trace is not available with --flat (no simulated cycles to stamp)");
        std::process::exit(2);
    }
    if opts.flat && (opts.checkpoint.is_some() || opts.resume.is_some()) {
        eprintln!("kl1run: --checkpoint/--resume are not available with --flat");
        std::process::exit(2);
    }
    if opts.flat && opts.timeout_secs.is_some() {
        eprintln!("kl1run: --timeout is not available with --flat (no chunked engine loop)");
        std::process::exit(2);
    }
    // Validate checkpoint plumbing before the (possibly long) run: a bad
    // --checkpoint destination is a flag error (exit 2); a missing or
    // corrupt --resume file is a refused checkpoint (exit 1, named
    // diagnostic from pim-ckpt).
    let checkpoint: Option<(String, Option<u64>)> = opts.checkpoint.as_ref().map(|spec| {
        let parsed = pim_ckpt::parse_checkpoint_spec(spec).unwrap_or_else(|e| {
            eprintln!("kl1run: --checkpoint: {e}");
            std::process::exit(2);
        });
        if let Err(e) = pim_ckpt::validate_destination(std::path::Path::new(&parsed.0)) {
            eprintln!("kl1run: --checkpoint: cannot write `{}`: {e}", parsed.0);
            std::process::exit(2);
        }
        parsed
    });
    let resume_payload: Option<Vec<u8>> = opts.resume.as_ref().map(|path| {
        pim_ckpt::load_from_path(std::path::Path::new(path)).unwrap_or_else(|e| {
            eprintln!("kl1run: --resume: refused checkpoint `{path}`: {e}");
            std::process::exit(1);
        })
    });
    // Pins the run configuration (flags + program source, minus the
    // checkpoint flags) into every snapshot, so a resume under different
    // conditions is refused instead of silently diverging. The program text itself is digested again by the
    // machine's own checkpoint hook.
    let config_digest = {
        let mut bytes = format!(
            "kl1run|pes={}|illinois={}|no_opt={}|gc={:?}|indexed={}|goal={}|faults={:?}\
             |profile={}|trace_cap={:?}|",
            opts.pes,
            opts.illinois,
            opts.no_opt,
            opts.gc,
            opts.indexed,
            opts.goal,
            opts.faults,
            opts.profile.is_some(),
            opts.trace
                .as_deref()
                .map(|s| pim_tracer::parse_trace_spec(s).ok().map(|(_, cap)| cap))
        )
        .into_bytes();
        bytes.extend_from_slice(source.as_bytes());
        pim_ckpt::fnv1a64(&bytes)
    };
    let resumed_from_cycle: std::cell::Cell<Option<u64>> = std::cell::Cell::new(None);
    let snapshots_written: std::cell::Cell<u64> = std::cell::Cell::new(0);
    let sigint = checkpoint.as_ref().map(|_| pim_ckpt::install_sigint_flag());

    let shared = opts.profile.as_ref().map(|path| {
        // Validate the profile destination now, so a bad path fails in
        // milliseconds with the flag named, not after the run.
        if let Err(e) = pim_ckpt::validate_destination(std::path::Path::new(path)) {
            eprintln!("kl1run: --profile: cannot write `{path}`: {e}");
            std::process::exit(2);
        }
        SharedMetrics::new()
    });

    // Validate the trace destination before the (possibly long) run:
    // parse the spec and probe the path now — without creating or
    // truncating anything, so a failed run never leaves a zero-byte
    // trace file behind.
    let traced: Option<(String, SharedTracer)> = opts.trace.as_ref().map(|spec| {
        let (path, cap) = pim_tracer::parse_trace_spec(spec).unwrap_or_else(|e| {
            eprintln!("kl1run: --trace: {e}");
            std::process::exit(2);
        });
        if let Err(e) = pim_ckpt::validate_destination(std::path::Path::new(&path)) {
            eprintln!("kl1run: --trace: cannot write `{path}`: {e}");
            std::process::exit(2);
        }
        (path, SharedTracer::with_capacity(cap))
    });

    // Live telemetry: side-file only, so stdout, the profile and the
    // trace bytes are identical with or without it. The whole run is
    // one "cell" keyed on program and goal.
    let cell_key = format!("{} {}", opts.file, opts.goal);
    let telemetry: Option<pim_telemetry::RunStatus> =
        (opts.status.is_some() || opts.metrics.is_some()).then(|| {
            let t = pim_telemetry::RunStatus::new("kl1run");
            t.set_workers(1);
            t.register_cell(&cell_key);
            if let Some(spec) = &opts.status {
                let parsed = pim_ckpt::spec::parse_file_spec("status", spec, &["every"])
                    .unwrap_or_else(|e| {
                        eprintln!("kl1run: {e}");
                        std::process::exit(2);
                    });
                let every = parsed.get_u64("status", "every").unwrap_or_else(|e| {
                    eprintln!("kl1run: {e}");
                    std::process::exit(2);
                });
                if let Err(e) = t.attach_status_file(
                    &parsed.path,
                    every.unwrap_or(pim_telemetry::DEFAULT_EVERY_SECS),
                ) {
                    eprintln!("kl1run: --status: cannot write `{}`: {e}", parsed.path);
                    std::process::exit(2);
                }
            }
            if let Some(path) = &opts.metrics {
                if let Err(e) = t.attach_metrics_file(path) {
                    eprintln!("kl1run: --metrics: cannot write `{path}`: {e}");
                    std::process::exit(2);
                }
            }
            t
        });

    // One observer per component slot: metrics, tracer, or both fanned
    // out. `None` keeps the zero-overhead un-observed path.
    let make_observer = || -> Option<Box<dyn Observer>> {
        match (&shared, &traced) {
            (Some(s), Some((_, t))) => Some(Box::new(Fanout::from_sinks(vec![
                s.observer(),
                t.observer(),
            ]))),
            (Some(s), None) => Some(s.observer()),
            (None, Some((_, t))) => Some(t.observer()),
            (None, None) => None,
        }
    };
    if let Some(obs) = make_observer() {
        cluster.set_observer(obs);
    }

    // Exports and writes the trace file; a no-op without `--trace`.
    let write_trace = |makespan: u64| {
        let Some((path, tracer)) = &traced else {
            return;
        };
        let _perf = pim_perf::span(pim_perf::phase::REPORT_WRITE);
        let (emitted, recorded, dropped) =
            (tracer.emitted(), tracer.recorded() as u64, tracer.dropped());
        let text = pim_tracer::export_chrome(
            &tracer.take_sorted(),
            &pim_tracer::TraceMeta {
                makespan,
                pes: opts.pes as usize,
                emitted,
                recorded,
                dropped,
            },
        );
        if let Err(e) = pim_ckpt::atomic_write_class(
            pim_ckpt::vfs::PathClass::Trace,
            std::path::Path::new(path),
            text.as_bytes(),
        ) {
            eprintln!("kl1run: cannot write {path}: {e}");
            std::process::exit(1);
        }
        if dropped > 0 {
            eprintln!(
                "kl1run: trace ring full: kept {recorded} of {emitted} events \
                 ({dropped} dropped; raise with --trace {path}:cap=N)"
            );
        }
    };

    // Builds and writes the JSON profile; a no-op without `--profile`.
    let write_profile =
        |protocol: &str, cluster: &Cluster, memory: Json, pe_cycles: &[pim_obs::PeCycles]| {
            let (Some(path), Some(s)) = (&opts.profile, &shared) else {
                return;
            };
            let _perf = pim_perf::span(pim_perf::phase::REPORT_WRITE);
            let mut doc = report::envelope("kl1run");
            doc.push("program", Json::from(opts.file.as_str()));
            doc.push("goal", Json::from(opts.goal.as_str()));
            doc.push("pes", Json::from(opts.pes));
            doc.push("protocol", Json::from(protocol));
            doc.push(
                "checkpoint",
                report::checkpoint_json(resumed_from_cycle.get(), snapshots_written.get()),
            );
            doc.push("machine", report::machine_json(&cluster.stats()));
            doc.push("memory", memory);
            report::push_instrumentation(&mut doc, pe_cycles, &s.take());
            if pim_perf::is_enabled() {
                doc.push(
                    "host_perf",
                    report::host_perf_json(&pim_perf::snapshot(), &pim_perf::provenance()),
                );
            }
            if let Err(e) = report::write_report(path, &doc) {
                eprintln!("kl1run: cannot write {path}: {e}");
                std::process::exit(1);
            }
        };

    // Serializes one full snapshot (engine + system, machine state,
    // metrics, tracer ring) and writes it atomically to the checkpoint
    // path.
    macro_rules! snapshot {
        ($engine:expr, $cluster:expr, $path:expr, $cycle:expr) => {{
            let _perf = pim_perf::span(pim_perf::phase::CHECKPOINT);
            snapshots_written.set(snapshots_written.get() + 1);
            let mut w = pim_ckpt::Writer::new();
            w.section("meta", |w| {
                w.put_str("kl1run");
                w.put_u64(config_digest);
                w.put_u64($cycle);
                w.put_u64(snapshots_written.get());
            });
            w.section("engine", |w| $engine.save_ckpt(w));
            w.section("process", |w| $cluster.save_ckpt(w));
            w.section("obs", |w| match &shared {
                Some(s) => {
                    w.put_bool(true);
                    s.save_ckpt(w);
                }
                None => w.put_bool(false),
            });
            w.section("tracer", |w| match &traced {
                Some((_, t)) => {
                    w.put_bool(true);
                    t.save_ckpt(w);
                }
                None => w.put_bool(false),
            });
            if let Err(e) = pim_ckpt::save_to_path(std::path::Path::new($path), w) {
                eprintln!("kl1run: --checkpoint: {e}");
                std::process::exit(1);
            }
        }};
    }

    // Restores `--resume` state into the freshly built engine and
    // cluster. Every refusal names the reason and exits 1.
    macro_rules! resume_into {
        ($engine:expr, $cluster:expr) => {
            if let Some(payload) = resume_payload.as_deref() {
                let refused = |e: pim_ckpt::CkptError| -> ! {
                    eprintln!("kl1run: --resume: refused checkpoint: {e}");
                    std::process::exit(1)
                };
                let mut r = pim_ckpt::Reader::new(payload);
                let (cycle, _snaps) = r
                    .section("meta", |r| {
                        let tool = r.get_str()?.to_string();
                        if tool != "kl1run" {
                            return Err(pim_ckpt::CkptError::Mismatch {
                                detail: format!("checkpoint was written by `{tool}`, not kl1run"),
                            });
                        }
                        let digest = r.get_u64()?;
                        if digest != config_digest {
                            return Err(pim_ckpt::CkptError::Mismatch {
                                detail: "run configuration (flags or program source) differs \
                                         from the checkpointed run"
                                    .into(),
                            });
                        }
                        Ok((r.get_u64()?, r.get_u64()?))
                    })
                    .unwrap_or_else(|e| refused(e));
                r.section("engine", |r| $engine.restore_ckpt(r))
                    .unwrap_or_else(|e| refused(e));
                r.section("process", |r| $cluster.restore_ckpt(r))
                    .unwrap_or_else(|e| refused(e));
                r.section("obs", |r| match (&shared, r.get_bool()?) {
                    (Some(s), true) => s.restore_ckpt(r),
                    (None, false) => Ok(()),
                    _ => Err(pim_ckpt::CkptError::Mismatch {
                        detail: "--profile presence differs from the checkpointed run".into(),
                    }),
                })
                .unwrap_or_else(|e| refused(e));
                r.section("tracer", |r| match (&traced, r.get_bool()?) {
                    (Some((_, t)), true) => t.restore_ckpt(r),
                    (None, false) => Ok(()),
                    _ => Err(pim_ckpt::CkptError::Mismatch {
                        detail: "--trace presence differs from the checkpointed run".into(),
                    }),
                })
                .unwrap_or_else(|e| refused(e));
                r.expect_end().unwrap_or_else(|e| refused(e));
                resumed_from_cycle.set(Some(cycle));
            }
        };
    }

    // Wall-clock deadline for --timeout: armed when the engine starts
    // driving, checked between run chunks.
    let deadline = opts
        .timeout_secs
        .map(|secs| std::time::Instant::now() + std::time::Duration::from_secs(secs));

    // Runs the engine to completion. With --checkpoint or --timeout,
    // runs in chunks: snapshots every `every` committed steps (when
    // given), polls SIGINT and the wall-clock deadline between chunks,
    // and on interrupt drains a final snapshot and exits 130 (timeout:
    // drains, then reports a structured wall-clock-expired error at
    // exit 1). Chunking is invisible in the results: the engine
    // composes across run() calls bit-identically.
    macro_rules! drive {
        ($engine:expr, $cluster:expr) => {{
            resume_into!($engine, $cluster);
            let check = |run: Result<pim_sim::RunStats, pim_sim::SimError>| match run {
                Ok(stats) => stats,
                Err(e) => {
                    eprintln!("kl1run: simulation failed: {e}");
                    std::process::exit(1);
                }
            };
            if checkpoint.is_none() && deadline.is_none() && telemetry.is_none() {
                check($engine.run(&mut $cluster, MAX_STEPS))
            } else {
                let every = checkpoint.as_ref().and_then(|(_, e)| *e);
                let chunk = every.unwrap_or(1 << 16);
                loop {
                    let stats = check($engine.run(&mut $cluster, chunk));
                    if let Some(t) = &telemetry {
                        t.engine_chunk(stats.steps);
                    }
                    if stats.finished {
                        break stats;
                    }
                    let interrupted =
                        sigint.is_some_and(|f| f.load(std::sync::atomic::Ordering::SeqCst));
                    let expired = deadline.is_some_and(|d| std::time::Instant::now() >= d);
                    if let Some((path, _)) = &checkpoint {
                        if interrupted || expired || every.is_some() {
                            snapshot!($engine, $cluster, path, stats.makespan);
                        }
                        if interrupted {
                            eprintln!(
                                "kl1run: interrupted: state drained to `{path}` at cycle {} \
                                 (continue with --resume {path})",
                                stats.makespan
                            );
                            std::process::exit(130);
                        }
                        if expired {
                            eprintln!(
                                "kl1run: timeout: state drained to `{path}` at cycle {} \
                                 (continue with --resume {path})",
                                stats.makespan
                            );
                        }
                    } else if interrupted {
                        std::process::exit(130);
                    }
                    if expired {
                        check(Err(pim_sim::SimError::WallClockExpired {
                            budget_secs: opts.timeout_secs.unwrap_or(0),
                            cycle: stats.makespan,
                            steps: stats.steps,
                        }));
                    }
                }
            }
        }};
    }

    if let Some(t) = &telemetry {
        t.cell_running(&cell_key);
    }
    let makespan = if opts.flat {
        let port = {
            let _perf = pim_perf::span(pim_perf::phase::EMULATOR_RUN);
            kl1_machine::run_flat(&mut cluster, MAX_STEPS)
        };
        let result = if arity1 {
            cluster.extract(&port, "X")
        } else {
            None
        };
        print_result(&cluster, result);
        print_stats(&cluster, None, 0, None);
        write_profile("flat", &cluster, Json::Null, &[]);
        0
    } else if opts.illinois {
        let mut system = IllinoisSystem::new(config);
        if let Some(obs) = make_observer() {
            system.set_observer(obs);
        }
        let mut engine = Engine::new(system, opts.pes);
        if let Some(obs) = make_observer() {
            engine.set_observer(obs);
        }
        if let Some(fc) = &opts.faults {
            engine.set_fault_plan(FaultPlan::new(fc.clone()));
        }
        let run = drive!(engine, cluster);
        let result = if arity1 {
            engine.with_port(PeId(0), |p| cluster.extract(p, "X"))
        } else {
            None
        };
        print_result(&cluster, result);
        print_stats(
            &cluster,
            Some(engine.system()),
            run.makespan,
            Some(engine.fault_stats()),
        );
        let memory = report::memory_json(engine.system(), run.makespan);
        write_profile("illinois", &cluster, memory, &run.pe_cycles);
        write_trace(run.makespan);
        run.makespan
    } else {
        let mut system = PimSystem::new(config);
        if let Some(obs) = make_observer() {
            system.set_observer(obs);
        }
        let mut engine = Engine::new(system, opts.pes);
        if let Some(obs) = make_observer() {
            engine.set_observer(obs);
        }
        if let Some(fc) = &opts.faults {
            engine.set_fault_plan(FaultPlan::new(fc.clone()));
        }
        let run = drive!(engine, cluster);
        let result = if arity1 {
            engine.with_port(PeId(0), |p| cluster.extract(p, "X"))
        } else {
            None
        };
        print_result(&cluster, result);
        print_stats(
            &cluster,
            Some(engine.system()),
            run.makespan,
            Some(engine.fault_stats()),
        );
        let memory = report::memory_json(engine.system(), run.makespan);
        write_profile("pim", &cluster, memory, &run.pe_cycles);
        write_trace(run.makespan);
        run.makespan
    };
    if let Some(t) = &telemetry {
        t.cell_done(&cell_key);
        t.finish();
    }
    // Stderr only: stdout carries the program result, which the
    // determinism suites diff byte-for-byte.
    let m = cluster.stats();
    eprintln!(
        "{}",
        pim_perf::throughput_line(
            "kl1run",
            wall_start.elapsed(),
            &[(m.reductions, "reductions"), (makespan, "sim-cycles")],
        )
    );
    if pim_perf::is_enabled() {
        eprint!("{}", pim_perf::take_report().render());
    }
    if let Some(line) = pim_ckpt::vfs::summary_line() {
        eprintln!("{line}");
    }
}
