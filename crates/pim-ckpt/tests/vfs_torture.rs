//! Torture suite for the host-I/O fault-injection shim: fuzzed fault
//! schedules over save/append/replay cycles must never violate the
//! three durability invariants the ISSUE pins:
//!
//! 1. no torn file ever parses — a destination path only ever holds a
//!    complete old file or a complete new file;
//! 2. no acknowledged record is ever lost — whatever `write_atomic`
//!    returned `Ok` for is what a later read recovers;
//! 3. recovery converges — under any seed, rate, and kind subset, the
//!    bounded-retry discipline lands the byte-identical undisturbed
//!    result (the final permitted attempt is fault-free by
//!    construction).
//!
//! The sweep-journal side of the same invariants (fsync-acknowledged
//! appends surviving chaos) lives in pim-sweep's own suites, which
//! stack this shim under the real `pim-swl/v1` writer.

use proptest::prelude::*;

use pim_ckpt::vfs::{
    self, decide, IoChaosConfig, IoDir, IoFaultKind, PathClass, ScopedIoChaos, PPM,
};
use pim_ckpt::{load_from_path, save_to_path, Writer};

/// A unique scratch directory per test case, removed on success.
fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "pim-vfs-torture-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Builds a plan from fuzzed raw parts: any seed, any rate up to the
/// full million, any non-empty subset of kinds, a small retry budget.
/// Backoff is zeroed so thousands of injected faults cost no wall time.
fn plan(seed: u64, rate_ppm: u64, kind_mask: u8, retries: u32) -> IoChaosConfig {
    let kinds: Vec<IoFaultKind> = IoFaultKind::ALL
        .iter()
        .copied()
        .enumerate()
        .filter(|(i, _)| kind_mask & (1 << i) != 0)
        .map(|(_, k)| k)
        .collect();
    IoChaosConfig {
        seed,
        rate_ppm,
        kinds: if kinds.is_empty() {
            IoFaultKind::ALL.to_vec()
        } else {
            kinds
        },
        max_retries: retries,
        backoff_ms: 0,
        kill: None,
    }
}

fn ckpt_bytes(payload: &[u8]) -> Writer {
    let mut w = Writer::new();
    w.section("torture", |w| w.put_bytes(payload));
    w
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Invariant 3 (convergence) + 1 (no torn file parses): under any
    /// fault schedule, every acknowledged `save_to_path` round-trips
    /// byte-identically through `load_from_path`, and the directory
    /// holds no stranded temp siblings afterwards.
    #[test]
    fn checkpoint_cycles_converge_under_any_schedule(
        seed in any::<u64>(),
        rate in 0u64..PPM + 1,
        kind_mask in any::<u8>(),
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..200), 1..8),
    ) {
        let dir = scratch("ckpt");
        let path = dir.join("state.ck");
        {
            let _chaos = ScopedIoChaos::install(plan(seed, rate, kind_mask, 4));
            for payload in &payloads {
                save_to_path(&path, ckpt_bytes(payload)).unwrap();
                // The acknowledged write is immediately recoverable —
                // through the shim (torn reads retried) ...
                let got = load_from_path(&path).unwrap();
                prop_assert!(got.ends_with(payload.as_slice()));
            }
        }
        // ... and on the bare filesystem once chaos is gone: the final
        // durable file is a complete, parseable checkpoint.
        let _quiet = ScopedIoChaos::quiet();
        let got = load_from_path(&path).unwrap();
        prop_assert!(got.ends_with(payloads.last().unwrap().as_slice()));
        let stray: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n != "state.ck")
            .collect();
        prop_assert!(stray.is_empty(), "stranded temp files: {stray:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Invariant 2 for the raw write/read primitives across classes:
    /// whatever `write_atomic` acknowledged is exactly what `read_file`
    /// returns, for every class and any schedule.
    #[test]
    fn raw_write_read_round_trips_on_every_class(
        seed in any::<u64>(),
        rate in 0u64..PPM + 1,
        kind_mask in any::<u8>(),
        payload in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        let dir = scratch("raw");
        let _chaos = ScopedIoChaos::install(plan(seed, rate, kind_mask, 4));
        for class in PathClass::ALL {
            let path = dir.join(format!("{}.bin", class.label()));
            vfs::write_atomic(class, &path, &payload).unwrap();
            prop_assert_eq!(vfs::read_file(class, &path).unwrap(), payload.clone());
        }
        drop(_chaos);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The decision function is pure and bounded: identical inputs give
    /// identical answers, and no attempt at or past the retry budget
    /// ever faults — which is the whole convergence proof.
    #[test]
    fn decide_is_pure_and_bounded(
        seed in any::<u64>(),
        rate in 0u64..PPM + 1,
        kind_mask in any::<u8>(),
        retries in 0u32..6,
        op in any::<u64>(),
        class_ix in 0usize..7,
        attempt in 0u32..12,
    ) {
        let cfg = plan(seed, rate, kind_mask, retries);
        let class = PathClass::ALL[class_ix];
        for dir in [IoDir::Read, IoDir::Write] {
            let a = decide(&cfg, op, class, dir, attempt);
            prop_assert_eq!(a, decide(&cfg, op, class, dir, attempt));
            if attempt >= retries {
                prop_assert_eq!(a, None);
            }
            if let Some(kind) = a {
                prop_assert!(cfg.kinds.contains(&kind));
                // Kind eligibility: write faults never strike reads and
                // torn reads never strike writes.
                match dir {
                    IoDir::Read => prop_assert!(
                        matches!(kind, IoFaultKind::Eio | IoFaultKind::TornRead)),
                    IoDir::Write => prop_assert!(kind != IoFaultKind::TornRead),
                }
            }
        }
    }
}

/// Invariant 1 under a *dead* disk: when every attempt on a class
/// faults, the write fails loud — and the destination still holds the
/// previous complete file, not a torn hybrid.
#[test]
fn dead_disk_fails_loud_and_preserves_the_old_file() {
    let dir = scratch("dead");
    let path = dir.join("state.ck");
    {
        let _quiet = ScopedIoChaos::quiet();
        save_to_path(&path, ckpt_bytes(b"survivor")).unwrap();
    }
    {
        let mut cfg = plan(99, 0, 0xF, 4);
        cfg.kill = Some((PathClass::Checkpoint, 0));
        let _chaos = ScopedIoChaos::install(cfg);
        let err = save_to_path(&path, ckpt_bytes(b"doomed")).unwrap_err();
        assert!(err.to_string().contains("io-chaos"), "{err}");
        // Reads on the killed class fail too (the disk is gone) ...
        assert!(vfs::read_file(PathClass::Checkpoint, &path).is_err());
        // ... but other classes still work.
        assert!(vfs::read_file(PathClass::Report, &path).is_ok());
    }
    let _quiet = ScopedIoChaos::quiet();
    let got = load_from_path(&path).unwrap();
    assert!(got.ends_with(b"survivor"));
    std::fs::remove_dir_all(&dir).ok();
}

/// Telemetry-style degraded writes under a dead disk never panic and
/// never corrupt the destination; stats account the exhaustion.
#[test]
fn exhausted_ops_are_counted() {
    let dir = scratch("stats");
    let mut cfg = plan(7, 0, 0xF, 2);
    cfg.kill = Some((PathClass::Telemetry, 0));
    let _chaos = ScopedIoChaos::install(cfg);
    for i in 0..3 {
        let path = dir.join(format!("t{i}.json"));
        assert!(vfs::write_atomic(PathClass::Telemetry, &path, b"{}").is_err());
        assert!(!path.exists());
    }
    let stats = vfs::stats().unwrap();
    assert_eq!(stats.exhausted, 3);
    assert_eq!(stats.ops, 3);
    assert!(stats.total_injected() >= 3 * 3); // every attempt faulted
    drop(_chaos);
    std::fs::remove_dir_all(&dir).ok();
}
