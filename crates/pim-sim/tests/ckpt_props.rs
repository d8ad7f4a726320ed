//! Property tests pinning checkpoint/restore invisible: pausing a run
//! at a random step budget, serializing engine + replayer through
//! `pim-ckpt`, and restoring into freshly built objects must finish
//! bit-identical to the uninterrupted run.

use pim_cache::{PimSystem, SystemConfig};
use pim_sim::{Engine, Replayer};
use pim_trace::{Access, AreaMap, MemOp, PeId, StorageArea};
use proptest::prelude::*;

/// Builds a lock-disciplined trace: a PE holds at most one lock at a
/// time and releases everything before its stream ends, so replays
/// always terminate.
fn disciplined_trace(pes: u32, items: Vec<(u32, u8, u64)>) -> Vec<Access> {
    let map = AreaMap::standard();
    let heap = map.base(StorageArea::Heap);
    let mut held: Vec<Option<u64>> = vec![None; pes as usize];
    let mut streams: Vec<Vec<Access>> = vec![Vec::new(); pes as usize];
    let push = |streams: &mut Vec<Vec<Access>>, pe: u32, op: MemOp, addr: u64| {
        streams[pe as usize].push(Access::new(PeId(pe), op, addr, StorageArea::Heap));
    };
    for (pe, kind, word) in items {
        let i = pe as usize;
        let addr = heap + (4 + word % 64) * 4;
        let lock_addr = heap + (word % 3) * 4;
        match kind {
            0..=3 => push(&mut streams, pe, MemOp::Read, addr),
            4..=6 => push(&mut streams, pe, MemOp::Write, addr),
            7 => push(&mut streams, pe, MemOp::DirectWrite, addr),
            8 => push(&mut streams, pe, MemOp::ExclusiveRead, addr),
            9 => push(&mut streams, pe, MemOp::ReadPurge, addr),
            10 | 11 => match held[i] {
                None => {
                    push(&mut streams, pe, MemOp::LockRead, lock_addr);
                    held[i] = Some(lock_addr);
                }
                Some(l) => {
                    let op = if kind == 10 {
                        MemOp::WriteUnlock
                    } else {
                        MemOp::Unlock
                    };
                    push(&mut streams, pe, op, l);
                    held[i] = None;
                }
            },
            _ => push(&mut streams, pe, MemOp::ReadInvalidate, addr),
        }
    }
    for (i, h) in held.iter().enumerate() {
        if let Some(l) = *h {
            push(&mut streams, i as u32, MemOp::Unlock, l);
        }
    }
    streams.concat()
}

fn build(pes: u32) -> Engine<PimSystem> {
    Engine::new(
        PimSystem::new(SystemConfig {
            pes,
            ..SystemConfig::default()
        }),
        pes,
    )
}

fn fingerprint(sys: &PimSystem) -> String {
    format!(
        "{:?}|{:?}|{:?}|{:?}",
        sys.ref_stats(),
        sys.access_stats(),
        sys.lock_stats(),
        sys.bus_stats()
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Checkpoint at a random step budget, restore into a fresh engine,
    /// finish: stats and system fingerprint must match the
    /// uninterrupted run exactly.
    #[test]
    fn checkpoint_at_random_cycle_is_invisible(
        pes in 2u32..7,
        items in proptest::collection::vec((0u32..8, 0u8..13, 0u64..128), 1..220),
        pause in 1u64..1500,
    ) {
        let items: Vec<(u32, u8, u64)> =
            items.into_iter().map(|(pe, k, w)| (pe % pes, k, w)).collect();
        let trace = disciplined_trace(pes, items);

        // Uninterrupted reference.
        let mut reference = build(pes);
        let mut ref_replayer = Replayer::from_merged(&trace, pes);
        let ref_stats = reference
            .run(&mut ref_replayer, 10_000_000)
            .expect("fault-free run");
        prop_assert!(ref_stats.finished);
        let ref_fp = fingerprint(reference.system());

        // Run to the random pause point and serialize.
        let mut paused = build(pes);
        let mut paused_replayer = Replayer::from_merged(&trace, pes);
        let mid = paused
            .run(&mut paused_replayer, pause)
            .expect("fault-free run");
        if mid.finished {
            // The budget outlived the trace; nothing left to resume.
            return Ok(());
        }
        let mut w = pim_ckpt::Writer::new();
        w.section("engine", |w| paused.save_ckpt(w));
        w.section("process", |w| paused_replayer.save_ckpt(w));
        let payload = w.payload().to_vec();

        // Restore into fresh objects and finish.
        let mut resumed = build(pes);
        let mut resumed_replayer = Replayer::from_merged(&trace, pes);
        let mut r = pim_ckpt::Reader::new(&payload);
        r.section("engine", |r| resumed.restore_ckpt(r))
            .expect("engine restores");
        r.section("process", |r| resumed_replayer.restore_ckpt(r))
            .expect("replayer restores");
        r.expect_end().expect("no trailing bytes");
        let end = resumed
            .run(&mut resumed_replayer, 10_000_000)
            .expect("fault-free run");
        prop_assert!(end.finished);
        prop_assert_eq!(&end.pe_clocks, &ref_stats.pe_clocks);
        prop_assert_eq!(&end.pe_cycles, &ref_stats.pe_cycles);
        prop_assert_eq!(end.makespan, ref_stats.makespan);
        prop_assert_eq!(fingerprint(resumed.system()), ref_fp);
    }
}
