//! End-to-end tests of `--checkpoint`/`--resume`: resuming from a
//! mid-run checkpoint must be invisible in every output (traces
//! byte-identical, reports identical modulo the `checkpoint` provenance
//! block), on every resume and under fault injection — and a corrupted
//! checkpoint must be refused with a named diagnostic, never a panic.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn kl1run() -> Command {
    Command::new(env!("CARGO_BIN_EXE_kl1run"))
}

fn tracesim() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tracesim"))
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pim_ckpt_cli_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// A report with the `checkpoint` provenance lines removed — the one
/// block allowed to differ between a resumed run and its twin.
fn modulo_checkpoint(report: &str) -> String {
    report
        .lines()
        .filter(|l| !l.contains("\"resumed_from_cycle\"") && !l.contains("\"snapshots\""))
        .collect::<Vec<_>>()
        .join("\n")
}

fn assert_ok(out: &Output) {
    assert!(
        out.status.success(),
        "expected success, got {:?}\nstderr: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
}

fn assert_refused(out: &Output, what: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(1),
        "{what}: expected exit 1, got {:?}\nstderr: {stderr}",
        out.status.code()
    );
    assert!(
        stderr.contains("refused checkpoint"),
        "{what}: diagnostic must name the refusal\nstderr: {stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "{what}: refusal must not be a panic\nstderr: {stderr}"
    );
}

#[test]
fn tracesim_resume_is_invisible_from_run_to_run() {
    let dir = tmpdir("resumes");
    let full_report = dir.join("full.json");
    let full_trace = dir.join("full.trace");
    let ck = dir.join("mid.ck");

    let out = tracesim()
        .args(["--gen", "producer-consumer", "--pes", "2"])
        .args(["--report", full_report.to_str().unwrap()])
        .args(["--trace", full_trace.to_str().unwrap()])
        .output()
        .expect("tracesim runs");
    assert_ok(&out);

    // The periodic snapshots leave `ck` holding the last mid-run state.
    // Instrumentation presence is part of the resume contract, so the
    // checkpointed run carries the same --report/--trace flags.
    let out = tracesim()
        .args(["--gen", "producer-consumer", "--pes", "2"])
        .args(["--report", dir.join("ck.json").to_str().unwrap()])
        .args(["--trace", dir.join("ck.trace").to_str().unwrap()])
        .args(["--checkpoint", &format!("{}:every=2000", ck.display())])
        .output()
        .expect("tracesim runs");
    assert_ok(&out);
    assert!(ck.exists(), "periodic checkpointing must leave a snapshot");

    for run in ["first", "second"] {
        let report = dir.join(format!("res-{run}.json"));
        let trace = dir.join(format!("res-{run}.trace"));
        let out = tracesim()
            .args(["--gen", "producer-consumer", "--pes", "2"])
            .args(["--resume", ck.to_str().unwrap()])
            .args(["--report", report.to_str().unwrap()])
            .args(["--trace", trace.to_str().unwrap()])
            .output()
            .expect("tracesim runs");
        assert_ok(&out);
        assert_eq!(
            std::fs::read(&full_trace).unwrap(),
            std::fs::read(&trace).unwrap(),
            "trace must be byte-identical after the {run} resume"
        );
        assert_eq!(
            modulo_checkpoint(&read(&full_report)),
            modulo_checkpoint(&read(&report)),
            "report must match modulo checkpoint block after the {run} resume"
        );
        assert!(
            read(&report).contains("\"resumed_from_cycle\":"),
            "resumed report must carry checkpoint provenance"
        );
    }
}

#[test]
fn tracesim_resume_is_invisible_under_fault_injection() {
    let dir = tmpdir("faults");
    let full_report = dir.join("full.json");
    let ck = dir.join("mid.ck");
    let faults = ["--faults", "seed=7,rate=0.002"];

    let out = tracesim()
        .args(["--gen", "producer-consumer", "--pes", "2"])
        .args(faults)
        .args(["--report", full_report.to_str().unwrap()])
        .output()
        .expect("tracesim runs");
    assert_ok(&out);

    let out = tracesim()
        .args(["--gen", "producer-consumer", "--pes", "2"])
        .args(faults)
        .args(["--report", dir.join("ck.json").to_str().unwrap()])
        .args(["--checkpoint", &format!("{}:every=2000", ck.display())])
        .output()
        .expect("tracesim runs");
    assert_ok(&out);

    let report = dir.join("res.json");
    let out = tracesim()
        .args(["--gen", "producer-consumer", "--pes", "2"])
        .args(faults)
        .args(["--resume", ck.to_str().unwrap()])
        .args(["--report", report.to_str().unwrap()])
        .output()
        .expect("tracesim runs");
    assert_ok(&out);
    assert_eq!(
        modulo_checkpoint(&read(&full_report)),
        modulo_checkpoint(&read(&report)),
        "fault-seeded resume must reproduce the uninterrupted report"
    );
}

#[test]
fn kl1run_resume_reproduces_answer_and_profile() {
    let dir = tmpdir("kl1run");
    let full_profile = dir.join("full.json");
    let ck = dir.join("mid.ck");

    let out = kl1run()
        .args(["--pes", "4"])
        .args(["--profile", full_profile.to_str().unwrap()])
        .arg("examples/fghc/hanoi.fghc")
        .output()
        .expect("kl1run runs");
    assert_ok(&out);
    let answer = String::from_utf8_lossy(&out.stdout).trim().to_string();
    assert_eq!(answer, "X = 1023");

    let out = kl1run()
        .args(["--pes", "4"])
        .args(["--profile", dir.join("ck.json").to_str().unwrap()])
        .args(["--checkpoint", &format!("{}:every=10000", ck.display())])
        .arg("examples/fghc/hanoi.fghc")
        .output()
        .expect("kl1run runs");
    assert_ok(&out);
    assert!(ck.exists());

    let profile = dir.join("res.json");
    let out = kl1run()
        .args(["--pes", "4"])
        .args(["--resume", ck.to_str().unwrap()])
        .args(["--profile", profile.to_str().unwrap()])
        .arg("examples/fghc/hanoi.fghc")
        .output()
        .expect("kl1run runs");
    assert_ok(&out);
    assert_eq!(
        String::from_utf8_lossy(&out.stdout).trim(),
        answer,
        "resumed run must print the same answer"
    );
    assert_eq!(
        modulo_checkpoint(&read(&full_profile)),
        modulo_checkpoint(&read(&profile)),
        "resumed profile must match modulo checkpoint block"
    );
}

#[test]
fn corrupt_checkpoints_are_refused_never_panic() {
    let dir = tmpdir("fuzz");
    let ck = dir.join("mid.ck");
    let out = tracesim()
        .args(["--gen", "producer-consumer", "--pes", "2"])
        .args(["--checkpoint", &format!("{}:every=2000", ck.display())])
        .output()
        .expect("tracesim runs");
    assert_ok(&out);
    let good = std::fs::read(&ck).unwrap();
    assert!(good.len() > 64, "checkpoint should be non-trivial");

    let resume = |path: &Path| {
        tracesim()
            .args(["--gen", "producer-consumer", "--pes", "2"])
            .args(["--resume", path.to_str().unwrap()])
            .output()
            .expect("tracesim runs")
    };

    // Truncation at every region of the file: inside the magic, the
    // length word, the payload, and just short of the checksum.
    let bad = dir.join("bad.ck");
    for cut in [0, 1, 7, 12, 19, good.len() / 2, good.len() - 1] {
        std::fs::write(&bad, &good[..cut]).unwrap();
        assert_refused(&resume(&bad), &format!("truncated to {cut} bytes"));
    }

    // Single-byte corruption in each region: the FNV checksum (or the
    // magic / length checks) must catch every one.
    for (i, flip) in [
        (0usize, 0xffu8),
        (5, 0x01),
        (12, 0x80),
        (13, 0x01),
        (24, 0xa5),
        (good.len() / 2, 0x10),
        (good.len() - 1, 0x01),
    ] {
        let mut bytes = good.clone();
        bytes[i] ^= flip;
        std::fs::write(&bad, &bytes).unwrap();
        assert_refused(&resume(&bad), &format!("byte {i} xor {flip:#x}"));
    }

    // Garbage that is not a checkpoint at all.
    std::fs::write(&bad, b"this is not a checkpoint file").unwrap();
    assert_refused(&resume(&bad), "non-checkpoint garbage");

    // A missing file is refused up front, before any simulation state
    // is built.
    let out = resume(&dir.join("does-not-exist.ck"));
    assert_refused(&out, "missing file");

    // The pristine file still resumes cleanly after all that.
    assert_ok(&resume(&ck));
}

#[test]
fn resume_refuses_a_checkpoint_from_a_different_run() {
    let dir = tmpdir("mismatch");
    let ck = dir.join("mid.ck");
    let out = tracesim()
        .args(["--gen", "producer-consumer", "--pes", "2"])
        .args(["--checkpoint", &format!("{}:every=2000", ck.display())])
        .output()
        .expect("tracesim runs");
    assert_ok(&out);

    // Same tool, different configuration.
    let out = tracesim()
        .args(["--gen", "producer-consumer", "--pes", "4"])
        .args(["--resume", ck.to_str().unwrap()])
        .output()
        .expect("tracesim runs");
    assert_refused(&out, "different --pes");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("configuration"),
        "diagnostic should blame the configuration"
    );

    // A different tool's checkpoint.
    let out = kl1run()
        .args(["--pes", "2"])
        .args(["--resume", ck.to_str().unwrap()])
        .arg("examples/fghc/hanoi.fghc")
        .output()
        .expect("kl1run runs");
    assert_refused(&out, "tracesim checkpoint fed to kl1run");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("tracesim"),
        "diagnostic should name the writing tool"
    );
}

#[test]
fn checkpoint_flags_are_validated_up_front() {
    let dir = tmpdir("flags");

    // A zero snapshot interval is a flag error.
    let out = tracesim()
        .args(["--gen", "producer-consumer", "--pes", "2"])
        .args(["--checkpoint", "x.ck:every=0"])
        .output()
        .expect("tracesim runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--checkpoint"));

    // An unwritable checkpoint destination fails before simulating.
    let out = tracesim()
        .args(["--gen", "producer-consumer", "--pes", "2"])
        .args(["--checkpoint", "/nonexistent-dir/x.ck"])
        .output()
        .expect("tracesim runs");
    assert_eq!(out.status.code(), Some(2));

    // --flat has no engine to snapshot.
    let out = kl1run()
        .args(["--flat", "--checkpoint", dir.join("x.ck").to_str().unwrap()])
        .arg("examples/fghc/hanoi.fghc")
        .output()
        .expect("kl1run runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--flat"));
}

#[test]
fn reports_always_carry_the_checkpoint_block() {
    // The `checkpoint` provenance block is part of the pinned report
    // schema: present in every document, `null`/0 for a plain run.
    let dir = tmpdir("schema");
    let report = dir.join("r.json");
    let profile = dir.join("p.json");

    let out = tracesim()
        .args(["--gen", "producer-consumer", "--pes", "2"])
        .args(["--report", report.to_str().unwrap()])
        .output()
        .expect("tracesim runs");
    assert_ok(&out);
    let doc = read(&report);
    assert!(
        doc.contains(
            "\"checkpoint\": {\n    \"resumed_from_cycle\": null,\n    \"snapshots\": 0\n  }"
        ),
        "tracesim report checkpoint block drifted:\n{doc}"
    );

    let out = kl1run()
        .args(["--pes", "2"])
        .args(["--profile", profile.to_str().unwrap()])
        .arg("examples/fghc/hanoi.fghc")
        .output()
        .expect("kl1run runs");
    assert_ok(&out);
    let doc = read(&profile);
    assert!(
        doc.contains(
            "\"checkpoint\": {\n    \"resumed_from_cycle\": null,\n    \"snapshots\": 0\n  }"
        ),
        "kl1run profile checkpoint block drifted:\n{doc}"
    );
}

#[test]
fn failed_flag_validation_leaves_existing_outputs_untouched() {
    // Up-front destination validation must not truncate files that a
    // previous successful run wrote (the probe is append-mode).
    let dir = tmpdir("preserve");
    let trace = dir.join("t.json");
    let report = dir.join("r.json");
    std::fs::write(&trace, "sentinel-trace").unwrap();
    std::fs::write(&report, "sentinel-report").unwrap();

    let out = tracesim()
        .args(["--gen", "no-such-workload", "--pes", "2"])
        .args(["--trace", trace.to_str().unwrap()])
        .args(["--report", report.to_str().unwrap()])
        .output()
        .expect("tracesim runs");
    assert_eq!(out.status.code(), Some(2));
    assert_eq!(read(&trace), "sentinel-trace");
    assert_eq!(read(&report), "sentinel-report");

    let out = kl1run()
        .args(["--pes", "0"])
        .args(["--trace", trace.to_str().unwrap()])
        .args(["--profile", report.to_str().unwrap()])
        .arg("examples/fghc/hanoi.fghc")
        .output()
        .expect("kl1run runs");
    assert_eq!(out.status.code(), Some(2));
    assert_eq!(read(&trace), "sentinel-trace");
    assert_eq!(read(&report), "sentinel-report");
}

#[test]
fn a_checkpoint_written_by_an_earlier_build_still_resumes() {
    // `tests/data/producer-consumer-pe2.ck` was written by tracesim at
    // commit 621dac9, before the replay streams were packed, with
    //   tracesim --gen producer-consumer --pes 2 --report r.json \
    //            --checkpoint producer-consumer-pe2.ck:every=2000
    // The checkpoint format did not change, so today's tracesim must
    // resume it to the report of an uninterrupted run.
    let dir = tmpdir("earlier_build");
    let ck = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/producer-consumer-pe2.ck");
    let full = dir.join("full.json");
    let resumed = dir.join("resumed.json");
    let out = tracesim()
        .args(["--gen", "producer-consumer", "--pes", "2"])
        .args(["--report", full.to_str().unwrap()])
        .output()
        .expect("tracesim runs");
    assert_ok(&out);
    let out = tracesim()
        .args(["--gen", "producer-consumer", "--pes", "2"])
        .args(["--resume", ck.to_str().unwrap()])
        .args(["--report", resumed.to_str().unwrap()])
        .output()
        .expect("tracesim runs");
    assert_ok(&out);
    let resumed = read(&resumed);
    assert!(
        resumed.contains("\"resumed_from_cycle\": "),
        "the run must say it resumed:\n{resumed}"
    );
    assert!(
        !resumed.contains("\"resumed_from_cycle\": null"),
        "{resumed}"
    );
    let diff = pim_tracer::report_diff(&read(&full), &resumed, 10);
    assert_eq!(diff.differences, 0, "{}", diff.text);
}

#[test]
fn a_pe_parked_on_a_lock_in_an_earlier_builds_checkpoint_resumes() {
    // `tests/data/lock-churn-pe3.ck` was written by tracesim at commit
    // 680f4d9, whose PIM replays ran on a parallel engine with its own
    // checkpoint layout, with
    //   tracesim --gen lock-churn --pes 3 --capacity 256 --report r.json \
    //            --checkpoint lock-churn-pe3.ck:every=7000
    // Its last snapshot was cut while PE 2 was parked on a lock held by
    // PE 1. Today's tracesim must convert that layout and resume to the
    // report of an uninterrupted run.
    let dir = tmpdir("earlier_build_parked");
    let ck = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/lock-churn-pe3.ck");
    let run = ["--gen", "lock-churn", "--pes", "3", "--capacity", "256"];
    let full = dir.join("full.json");
    let resumed = dir.join("resumed.json");
    let out = tracesim()
        .args(run)
        .args(["--report", full.to_str().unwrap()])
        .output()
        .expect("tracesim runs");
    assert_ok(&out);
    let full_stdout = out.stdout;
    let out = tracesim()
        .args(run)
        .args(["--resume", ck.to_str().unwrap()])
        .args(["--report", resumed.to_str().unwrap()])
        .output()
        .expect("tracesim runs");
    assert_ok(&out);
    assert_eq!(out.stdout, full_stdout, "resumed stdout must match");
    let resumed = read(&resumed);
    assert!(
        resumed.contains("\"resumed_from_cycle\": 15699,"),
        "the run must resume from the snapshot's cycle:\n{resumed}"
    );
    let diff = pim_tracer::report_diff(&read(&full), &resumed, 10);
    assert_eq!(diff.differences, 0, "{}", diff.text);
}

/// Splits a checkpoint payload into `(name, body)` sections.
fn sections(payload: &[u8]) -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    let mut at = 0;
    while at < payload.len() {
        let n = u32::from_le_bytes(payload[at..at + 4].try_into().unwrap()) as usize;
        let name = String::from_utf8(payload[at + 4..at + 4 + n].to_vec()).unwrap();
        at += 4 + n;
        let len = u64::from_le_bytes(payload[at..at + 8].try_into().unwrap()) as usize;
        out.push((name, payload[at + 8..at + 8 + len].to_vec()));
        at += 8 + len;
    }
    out
}

/// Frames `(name, body)` sections as a complete, checksummed
/// `pim-ckpt/v1` file.
fn frame(sections: &[(String, Vec<u8>)]) -> Vec<u8> {
    let mut payload = Vec::new();
    for (name, body) in sections {
        payload.extend_from_slice(&(name.len() as u32).to_le_bytes());
        payload.extend_from_slice(name.as_bytes());
        payload.extend_from_slice(&(body.len() as u64).to_le_bytes());
        payload.extend_from_slice(body);
    }
    let mut file = pim_ckpt::MAGIC.to_vec();
    file.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    file.extend_from_slice(&payload);
    file.extend_from_slice(&pim_ckpt::fnv1a64(&payload).to_le_bytes());
    file
}

#[test]
fn a_truncated_or_unknown_engine_section_is_refused() {
    // Well-framed files (valid magic, length and checksum) whose engine
    // section is cut short or carries a name no build wrote: the
    // refusal must be a named decode error, in both the earlier and
    // the current layout.
    let dir = tmpdir("engine_section");
    let report = dir.join("r.json");
    let run = [
        "--gen",
        "lock-churn",
        "--pes",
        "3",
        "--capacity",
        "256",
        "--report",
        report.to_str().unwrap(),
    ];
    let legacy =
        std::fs::read(Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/lock-churn-pe3.ck"))
            .unwrap();
    let current_ck = dir.join("current.ck");
    let out = tracesim()
        .args(run)
        .args([
            "--checkpoint",
            &format!("{}:every=7000", current_ck.display()),
        ])
        .output()
        .expect("tracesim runs");
    assert_ok(&out);
    let current = std::fs::read(&current_ck).unwrap();

    for (layout, file) in [("earlier", legacy), ("current", current)] {
        let original = sections(pim_ckpt::read_file_bytes(&file).unwrap());
        let engine = original
            .iter()
            .position(|(name, _)| name.starts_with("engine"))
            .expect("an engine section");
        let mut truncated = original.clone();
        let body = &mut truncated[engine].1;
        body.truncate(body.len() / 2);
        let mut unknown = original.clone();
        unknown[engine].0 = "engine/v9".into();
        for (what, variant) in [("truncated", truncated), ("unknown", unknown)] {
            let bad = dir.join(format!("{layout}-{what}.ck"));
            std::fs::write(&bad, frame(&variant)).unwrap();
            let out = tracesim()
                .args(run)
                .args(["--resume", bad.to_str().unwrap()])
                .output()
                .expect("tracesim runs");
            assert_refused(&out, &format!("{layout} layout, {what} engine section"));
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(stderr.contains("corrupt checkpoint"), "{stderr}");
        }
    }
}
