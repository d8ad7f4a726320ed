//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro [--scale smoke|small|paper] [--threads N] [--seed N] [--json DIR]
//!       [--perf] [--trace FILE[:cap=N]] [--checkpoint FILE[:every=N]]
//!       [--resume FILE] [--status FILE[:every=SECS]] [--metrics FILE]
//!       <experiment>...
//! experiments: table1 table2 table3 fig1 fig2 fig3 table4 table5
//!              buswidth assoc ablation indexing aurora gc faults all
//! ```
//!
//! `--status` mirrors the experiment lifecycle into a crash-safe
//! `pim-status/v1` snapshot (watch it with `sweepwatch`), `--metrics`
//! into a Prometheus text file. Both are side files only: rendered
//! tables and `--json` documents are byte-identical with telemetry on
//! or off.
//!
//! `--perf` profiles the host-side run: a per-phase wall-time breakdown
//! (experiments, report writes, checkpoints) on stderr, and — together
//! with `--json DIR` — a `DIR/host_perf.json` document with host and
//! commit provenance. The experiment JSON files themselves are never
//! touched by `--perf`, so they stay byte-identical with and without it.
//!
//! `--checkpoint FILE[:every=N]` records progress after every N
//! completed experiments (default 1); Ctrl-C drains a final snapshot at
//! the next experiment boundary and exits 130. `--resume FILE` skips
//! the experiments a previous interrupted invocation already finished —
//! every experiment is a deterministic unit, so the union of outputs is
//! byte-identical to an uninterrupted run.
//!
//! `--trace FILE[:cap=N]` additionally traces one representative
//! Table-1 run (`tri` on the paper's 8-PE base system) and writes
//! Chrome trace_event JSON to FILE — load it in Perfetto or analyze it
//! with `pimtrace`.
//!
//! `--threads N` caps the worker budget of the experiment fan-out
//! (default: the host's available parallelism). Every simulation is
//! deterministic, so the thread count changes wall time only — all
//! rendered tables and `--json` files are byte-identical at any value.
//!
//! With `--json DIR`, each experiment additionally writes
//! `DIR/<experiment>.json` — the same cells in the stable
//! machine-readable schema, byte-identical across invocations.
//!
//! Experiments run under the sweep executor's unwind containment
//! (`pim_sweep::exec::contained`): a panicking experiment is recorded
//! as a failure while the rest of the run completes, and `repro` exits
//! 1 naming every failed experiment instead of dying on the first one.

use pim_obs::Json;
use std::path::PathBuf;
use workloads::Scale;

// With `--features perf-alloc`, count allocations so `--perf` breakdowns
// carry per-phase allocation columns (`"alloc_counting": true`).
#[cfg(feature = "perf-alloc")]
#[global_allocator]
static ALLOC: pim_perf::CountingAlloc = pim_perf::CountingAlloc;

fn main() {
    let wall_start = std::time::Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::paper();
    let mut scale_name = "paper".to_string();
    let mut seed = 7u64;
    let mut perf = false;
    let mut json_dir: Option<PathBuf> = None;
    let mut trace_spec: Option<String> = None;
    let mut checkpoint_spec: Option<String> = None;
    let mut resume_path: Option<String> = None;
    let mut status_spec: Option<String> = None;
    let mut metrics_path: Option<String> = None;
    let mut wanted: Vec<String> = Vec::new();
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--scale" => {
                let v = iter.next().unwrap_or_default();
                scale = match v.as_str() {
                    "smoke" => Scale::smoke(),
                    "small" => Scale::small(),
                    "paper" => Scale::paper(),
                    other => {
                        eprintln!("unknown scale `{other}` (smoke|small|paper)");
                        std::process::exit(2);
                    }
                };
                scale_name = v;
            }
            "--threads" => {
                let v = iter.next().unwrap_or_default();
                match v.parse::<usize>() {
                    Ok(n) if n >= 1 => bench::pool::set_threads(n),
                    _ => {
                        eprintln!("repro: invalid value `{v}` for --threads (expected >= 1)");
                        std::process::exit(2);
                    }
                }
            }
            "--seed" => {
                let v = iter.next().unwrap_or_default();
                match v.parse::<u64>() {
                    Ok(n) => seed = n,
                    Err(_) => {
                        eprintln!("repro: invalid value `{v}` for --seed (expected a number)");
                        std::process::exit(2);
                    }
                }
            }
            "--perf" => perf = true,
            "--json" => match iter.next() {
                Some(dir) => json_dir = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("repro: --json needs a directory argument");
                    std::process::exit(2);
                }
            },
            "--trace" => match iter.next() {
                Some(spec) => trace_spec = Some(spec),
                None => {
                    eprintln!("repro: --trace needs a file argument (FILE[:cap=N])");
                    std::process::exit(2);
                }
            },
            "--checkpoint" => match iter.next() {
                Some(spec) => checkpoint_spec = Some(spec),
                None => {
                    eprintln!("repro: --checkpoint needs a file argument (FILE[:every=N])");
                    std::process::exit(2);
                }
            },
            "--resume" => match iter.next() {
                Some(path) => resume_path = Some(path),
                None => {
                    eprintln!("repro: --resume needs a checkpoint file argument");
                    std::process::exit(2);
                }
            },
            "--status" => match iter.next() {
                Some(spec) => status_spec = Some(spec),
                None => {
                    eprintln!("repro: --status needs a file argument (FILE[:every=SECS])");
                    std::process::exit(2);
                }
            },
            "--metrics" => match iter.next() {
                Some(path) => metrics_path = Some(path),
                None => {
                    eprintln!("repro: --metrics needs a file argument");
                    std::process::exit(2);
                }
            },
            "--io-chaos" => {
                match iter.next() {
                    Some(spec) => match pim_ckpt::vfs::IoChaosConfig::parse_spec(&spec) {
                        Ok(cfg) => pim_ckpt::vfs::install(cfg),
                        Err(e) => {
                            eprintln!("repro: {e}");
                            std::process::exit(2);
                        }
                    },
                    None => {
                        eprintln!("repro: --io-chaos needs a spec argument (seed=N[,rate=PPM][,kinds=...])");
                        std::process::exit(2);
                    }
                }
            }
            "--help" | "-h" => {
                println!(
                    "usage: repro [--scale smoke|small|paper] [--threads N] [--seed N] [--json DIR] [--perf] [--trace FILE[:cap=N]] [--checkpoint FILE[:every=N]] [--resume FILE] [--status FILE[:every=SECS]] [--metrics FILE] [--io-chaos seed=N[,rate=PPM][,kinds=...]] <experiment>...\n\
                     experiments: table1 table2 table3 fig1 fig2 fig3 table4 table5\n\
                     \x20            buswidth assoc ablation indexing aurora gc faults all"
                );
                return;
            }
            other => wanted.push(other.to_string()),
        }
    }
    if wanted.is_empty() {
        wanted.push("all".into());
    }
    if perf {
        pim_perf::enable();
    }
    // Validate the trace destination before any experiment runs: parse
    // the spec and probe the path now (without truncating an existing
    // file), so a bad path fails immediately with the flag named.
    let traced: Option<(String, usize)> = trace_spec.as_ref().map(|spec| {
        let (path, cap) = pim_tracer::parse_trace_spec(spec).unwrap_or_else(|e| {
            eprintln!("repro: --trace: {e}");
            std::process::exit(2);
        });
        if let Err(e) = pim_ckpt::validate_destination(std::path::Path::new(&path)) {
            eprintln!("repro: --trace: cannot write `{path}`: {e}");
            std::process::exit(2);
        }
        (path, cap)
    });
    // Validate --checkpoint and load --resume before any experiment
    // runs. A refused resume file exits 1 with the reason named; a bad
    // checkpoint destination is a flag error (exit 2).
    let checkpoint: Option<(String, Option<u64>)> = checkpoint_spec.as_ref().map(|spec| {
        let (path, every) = pim_ckpt::parse_checkpoint_spec(spec).unwrap_or_else(|e| {
            eprintln!("repro: --checkpoint: {e}");
            std::process::exit(2);
        });
        if let Err(e) = pim_ckpt::validate_destination(std::path::Path::new(&path)) {
            eprintln!("repro: --checkpoint: cannot write `{path}`: {e}");
            std::process::exit(2);
        }
        (path, every)
    });
    let resume_payload: Option<Vec<u8>> = resume_path.as_ref().map(|path| {
        pim_ckpt::load_from_path(std::path::Path::new(path)).unwrap_or_else(|e| {
            eprintln!("repro: --resume: refused checkpoint: {e}");
            std::process::exit(1);
        })
    });
    if let Some(dir) = &json_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("repro: cannot create {}: {e}", dir.display());
            std::process::exit(1);
        }
    }
    // Everything that changes experiment results participates in the
    // digest; --threads and file paths deliberately do not.
    let config_digest = pim_ckpt::fnv1a64(
        format!(
            "repro|scale={scale_name}|seed={seed}|json={}|trace_cap={:?}|",
            json_dir.is_some(),
            traced.as_ref().map(|(_, cap)| *cap),
        )
        .as_bytes(),
    );
    let sigint = checkpoint.as_ref().map(|_| pim_ckpt::install_sigint_flag());

    // Experiments a previous interrupted invocation already completed.
    let done: std::cell::RefCell<Vec<String>> =
        std::cell::RefCell::new(match resume_payload.as_deref() {
            None => Vec::new(),
            Some(payload) => {
                let refused = |e: pim_ckpt::CkptError| -> ! {
                    eprintln!("repro: --resume: refused checkpoint: {e}");
                    std::process::exit(1)
                };
                let mut r = pim_ckpt::Reader::new(payload);
                r.section("meta", |r| {
                    let tool = r.get_str()?.to_string();
                    if tool != "repro" {
                        return Err(pim_ckpt::CkptError::Mismatch {
                            detail: format!("checkpoint was written by `{tool}`, not repro"),
                        });
                    }
                    let digest = r.get_u64()?;
                    if digest != config_digest {
                        return Err(pim_ckpt::CkptError::Mismatch {
                            detail: "run configuration (scale, seed, or output flags) \
                                     differs from the checkpointed run"
                                .into(),
                        });
                    }
                    let _completed = r.get_u64()?;
                    let _snapshots = r.get_u64()?;
                    Ok(())
                })
                .unwrap_or_else(|e| refused(e));
                let names = r
                    .section("done", |r| {
                        let n = r.get_len()?;
                        let mut names = Vec::with_capacity(n);
                        for _ in 0..n {
                            names.push(r.get_str()?.to_string());
                        }
                        Ok(names)
                    })
                    .unwrap_or_else(|e| refused(e));
                r.expect_end().unwrap_or_else(|e| refused(e));
                eprintln!(
                    "[resume: skipping {} completed experiment(s): {}]",
                    names.len(),
                    names.join(" ")
                );
                names
            }
        });
    let snapshots_written = std::cell::Cell::new(0u64);
    let since_snapshot = std::cell::Cell::new(0u64);

    let save_checkpoint = |path: &str| {
        let _perf = pim_perf::span(pim_perf::phase::CHECKPOINT);
        snapshots_written.set(snapshots_written.get() + 1);
        let done = done.borrow();
        let mut w = pim_ckpt::Writer::new();
        w.section("meta", |w| {
            w.put_str("repro");
            w.put_u64(config_digest);
            w.put_u64(done.len() as u64);
            w.put_u64(snapshots_written.get());
        });
        w.section("done", |w| {
            w.put_len(done.len());
            for name in done.iter() {
                w.put_str(name);
            }
        });
        if let Err(e) = pim_ckpt::save_to_path(std::path::Path::new(path), w) {
            eprintln!("repro: --checkpoint: {e}");
            std::process::exit(1);
        }
    };

    // Called after each experiment finishes: records it, snapshots every
    // `every` completions, and drains + exits 130 if Ctrl-C arrived
    // while the experiment was running.
    let completed = |name: &str| {
        done.borrow_mut().push(name.to_string());
        if let Some((path, every)) = &checkpoint {
            since_snapshot.set(since_snapshot.get() + 1);
            let interrupted = sigint.is_some_and(|f| f.load(std::sync::atomic::Ordering::SeqCst));
            if interrupted || since_snapshot.get() >= every.unwrap_or(1) {
                save_checkpoint(path);
                since_snapshot.set(0);
            }
            if interrupted {
                eprintln!(
                    "repro: interrupted: progress drained to `{path}` after {} experiment(s) \
                     (continue with --resume {path})",
                    done.borrow().len()
                );
                std::process::exit(130);
            }
        }
    };

    let all = wanted.iter().any(|w| w == "all");
    let is_done = |name: &str| done.borrow().iter().any(|d| d == name);
    let want = |name: &str| (all || wanted.iter().any(|w| w == name)) && !is_done(name);

    // Live telemetry mirrors the experiment lifecycle into --status /
    // --metrics side files. repro already prints its own per-experiment
    // lines, so the telemetry progress lines stay off.
    const EXPERIMENTS: [&str; 15] = [
        "table1", "table2", "table3", "fig1", "fig2", "fig3", "table4", "table5", "buswidth",
        "assoc", "ablation", "indexing", "aurora", "gc", "faults",
    ];
    let telemetry: Option<pim_telemetry::RunStatus> =
        (status_spec.is_some() || metrics_path.is_some()).then(|| {
            let t = pim_telemetry::RunStatus::new("repro");
            t.set_progress_stderr(false);
            t.set_workers(1);
            for name in EXPERIMENTS {
                if all || wanted.iter().any(|w| w == name) {
                    t.register_cell(name);
                    if is_done(name) {
                        t.reuse_cell(name, false);
                    }
                }
            }
            if let Some(spec) = &status_spec {
                let parsed = pim_ckpt::spec::parse_file_spec("status", spec, &["every"])
                    .unwrap_or_else(|e| {
                        eprintln!("repro: {e}");
                        std::process::exit(2);
                    });
                let every = parsed.get_u64("status", "every").unwrap_or_else(|e| {
                    eprintln!("repro: {e}");
                    std::process::exit(2);
                });
                if let Err(e) = t.attach_status_file(
                    &parsed.path,
                    every.unwrap_or(pim_telemetry::DEFAULT_EVERY_SECS),
                ) {
                    eprintln!("repro: --status: cannot write `{}`: {e}", parsed.path);
                    std::process::exit(2);
                }
            }
            if let Some(path) = &metrics_path {
                if let Err(e) = t.attach_metrics_file(path) {
                    eprintln!("repro: --metrics: cannot write `{path}`: {e}");
                    std::process::exit(2);
                }
            }
            t
        });

    let write_json = |name: &str, doc: &Json| {
        if let Some(dir) = &json_dir {
            let _perf = pim_perf::span(pim_perf::phase::REPORT_WRITE);
            let path = dir.join(format!("{name}.json"));
            if let Err(e) = pim_ckpt::atomic_write_class(
                pim_ckpt::vfs::PathClass::Report,
                &path,
                doc.to_string_pretty().as_bytes(),
            ) {
                eprintln!("repro: cannot write {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    };

    // Experiments run under the sweep executor's unwind containment: a
    // panicking experiment is recorded as a failure and the rest of the
    // run proceeds, instead of one bad cell killing the whole
    // regeneration. Failures are named at the end and exit 1.
    let failures: std::cell::RefCell<Vec<(String, String)>> = std::cell::RefCell::new(Vec::new());
    let ran = std::cell::Cell::new(0u64);
    let run = |name: &str, f: &dyn Fn() -> (String, Json)| {
        if want(name) {
            if let Some(tm) = &telemetry {
                tm.cell_running(name);
            }
            let t = std::time::Instant::now();
            let outcome = {
                let _perf = pim_perf::span(pim_perf::phase::EXPERIMENT);
                pim_sweep::exec::contained(f)
            };
            match outcome {
                Ok((rendered, doc)) => {
                    println!("{rendered}");
                    write_json(name, &doc);
                    eprintln!("[{name}: {:.1?}]", t.elapsed());
                    ran.set(ran.get() + 1);
                    completed(name);
                    if let Some(tm) = &telemetry {
                        tm.cell_done(name);
                    }
                }
                Err(msg) => {
                    eprintln!("[{name}: FAILED after {:.1?}]", t.elapsed());
                    if let Some(tm) = &telemetry {
                        tm.cell_quarantined(name, 1, &msg);
                    }
                    failures.borrow_mut().push((name.to_string(), msg));
                }
            }
        }
    };

    run("table1", &|| {
        let rows = bench::table1(scale);
        (
            bench::render_table1(&rows),
            bench::table1_json(scale, &rows),
        )
    });
    if want("table2") || want("table3") {
        for name in ["table2", "table3"] {
            if want(name) {
                if let Some(tm) = &telemetry {
                    tm.cell_running(name);
                }
            }
        }
        let runs = {
            let _perf = pim_perf::span(pim_perf::phase::EXPERIMENT);
            pim_sweep::exec::contained(|| bench::base_runs(scale))
        };
        match runs {
            Ok(runs) => {
                if want("table2") {
                    println!("{}", bench::render_table2(&runs));
                    write_json("table2", &bench::table2_json(scale, &runs));
                    ran.set(ran.get() + 1);
                    completed("table2");
                    if let Some(tm) = &telemetry {
                        tm.cell_done("table2");
                    }
                }
                if want("table3") {
                    println!("{}", bench::render_table3(&runs));
                    write_json("table3", &bench::table3_json(scale, &runs));
                    ran.set(ran.get() + 1);
                    completed("table3");
                    if let Some(tm) = &telemetry {
                        tm.cell_done("table3");
                    }
                }
            }
            Err(msg) => {
                for name in ["table2", "table3"] {
                    if want(name) {
                        eprintln!("[{name}: FAILED]");
                        if let Some(tm) = &telemetry {
                            tm.cell_quarantined(name, 1, &msg);
                        }
                        failures.borrow_mut().push((name.to_string(), msg.clone()));
                    }
                }
            }
        }
    }
    run("fig1", &|| {
        let pts = bench::fig1(scale);
        (bench::render_fig1(&pts), bench::fig1_json(scale, &pts))
    });
    run("fig2", &|| {
        let pts = bench::fig2(scale);
        (bench::render_fig2(&pts), bench::fig2_json(scale, &pts))
    });
    run("fig3", &|| {
        let pts = bench::fig3(scale);
        (bench::render_fig3(&pts), bench::fig3_json(scale, &pts))
    });
    run("table4", &|| {
        let rows = bench::table4(scale);
        (
            bench::render_table4(&rows),
            bench::table4_json(scale, &rows),
        )
    });
    run("table5", &|| {
        let cols = bench::table5(scale);
        (
            bench::render_table5(&cols),
            bench::table5_json(scale, &cols),
        )
    });
    run("buswidth", &|| {
        let rows = bench::buswidth(scale);
        (
            bench::render_buswidth(&rows),
            bench::buswidth_json(scale, &rows),
        )
    });
    run("assoc", &|| {
        let pts = bench::assoc(scale);
        (bench::render_assoc(&pts), bench::assoc_json(scale, &pts))
    });
    run("ablation", &|| {
        let rows = bench::ablation(scale);
        (
            bench::render_ablation(&rows),
            bench::ablation_json(scale, &rows),
        )
    });
    run("indexing", &|| {
        let rows = bench::indexing(scale);
        (
            bench::render_indexing(&rows),
            bench::indexing_json(scale, &rows),
        )
    });
    run("aurora", &|| {
        let rows = bench::aurora(scale);
        (
            bench::render_aurora(&rows),
            bench::aurora_json(scale, &rows),
        )
    });
    run("gc", &|| {
        let rows = bench::gc_pressure(scale);
        (bench::render_gc(&rows), bench::gc_json(scale, &rows))
    });
    run("faults", &|| {
        let rows = bench::faults(scale, seed);
        (
            bench::render_faults(&rows, seed),
            bench::faults_json(scale, seed, &rows),
        )
    });

    if let Some((path, cap)) = &traced {
        let t = std::time::Instant::now();
        match bench::trace_table1_run(scale, path, *cap) {
            Ok((makespan, emitted, dropped)) => {
                eprintln!(
                    "[trace: tri @ 8 PEs, {makespan} cycles, {emitted} events \
                     ({dropped} dropped) -> {path}, {:.1?}]",
                    t.elapsed()
                );
            }
            Err(e) => {
                eprintln!("repro: cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
    }

    if let Some(tm) = &telemetry {
        tm.finish();
    }
    // Stderr only: stdout carries the rendered tables, which the
    // determinism suites diff byte-for-byte.
    eprintln!(
        "{}",
        pim_perf::throughput_line("repro", wall_start.elapsed(), &[(ran.get(), "experiments")],)
    );
    if pim_perf::is_enabled() {
        let report = pim_perf::take_report();
        if let Some(dir) = &json_dir {
            // The host-side profile gets its own file, never the
            // experiment documents: those stay byte-identical under
            // --perf.
            let mut doc = Json::obj([
                ("schema", Json::from("pim-repro/v1")),
                ("tool", Json::from("repro-host-perf")),
            ]);
            doc.push("provenance", pim_perf::provenance().to_json());
            if let Json::Obj(pairs) = report.to_json() {
                for (k, v) in pairs {
                    doc.push(k, v);
                }
            }
            let path = dir.join("host_perf.json");
            if let Err(e) = pim_ckpt::atomic_write_class(
                pim_ckpt::vfs::PathClass::Bench,
                &path,
                doc.to_string_pretty().as_bytes(),
            ) {
                eprintln!("repro: cannot write {}: {e}", path.display());
                std::process::exit(1);
            }
        }
        eprint!("{}", report.render());
    }

    if let Some(line) = pim_ckpt::vfs::summary_line() {
        eprintln!("{line}");
    }
    // Degraded exit: everything that could run ran, but the failures
    // are named and the exit code says the output set is incomplete.
    let failed = failures.borrow();
    if !failed.is_empty() {
        for (name, msg) in failed.iter() {
            let first_line = msg.lines().next().unwrap_or(msg);
            eprintln!("repro: experiment `{name}` failed: {first_line}");
        }
        eprintln!(
            "repro: {} experiment(s) failed, {} completed",
            failed.len(),
            ran.get()
        );
        std::process::exit(1);
    }
}
