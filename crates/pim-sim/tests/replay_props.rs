//! The replayer's stream storage against the per-PE `Access` vectors it
//! is built from.
//!
//! `Replayer::from_merged` packs a merged trace into per-PE streams in
//! one pass; `Replayer::new` converts streams a caller already split.
//! Over random merged traces (1–64 PEs, every `MemOp`, PEs with empty
//! streams) both must replay to the same reference, bus, access and lock
//! statistics, PE clocks and makespan as a reference replayer that reads
//! the `Access` vectors directly. A golden test pins the replay
//! checkpoint's wire form: a cursor and a stream length per PE.

use pim_cache::{PimSystem, SystemConfig};
use pim_sim::{Engine, Process, Replayer, RunStats, StepOutcome};
use pim_trace::{Access, AreaMap, MemOp, MemoryPort, PeId, PortValue, StorageArea, Word};
use proptest::prelude::*;

/// A lock-disciplined merged trace over `pes` PEs: a PE holds at most
/// one lock at a time and releases it before its stream ends, so every
/// replay terminates. `items` are `(pe, kind, word)`; PEs that draw no
/// item get empty streams.
fn merged_trace(pes: u32, items: &[(u32, u8, u64)]) -> Vec<Access> {
    let map = AreaMap::standard();
    let heap = map.base(StorageArea::Heap);
    let mut held: Vec<Option<u64>> = vec![None; pes as usize];
    let mut trace = Vec::new();
    let mut push = |pe: u32, op: MemOp, addr: u64| {
        trace.push(Access::new(PeId(pe), op, addr, map.area(addr)));
    };
    for &(pe, kind, word) in items {
        let pe = pe % pes;
        let i = pe as usize;
        let addr = heap + 16 + word % 512;
        let lock_addr = heap + (word % 3) * 4;
        let op = match kind % 12 {
            0..=2 => MemOp::Read,
            3 | 4 => MemOp::Write,
            5 => MemOp::DirectWrite,
            6 => MemOp::DirectWriteDown,
            7 => MemOp::ExclusiveRead,
            8 => MemOp::ReadPurge,
            9 => MemOp::ReadInvalidate,
            k => {
                match held[i].take() {
                    None => {
                        held[i] = Some(lock_addr);
                        push(pe, MemOp::LockRead, lock_addr);
                    }
                    Some(l) => {
                        let op = if k == 10 {
                            MemOp::WriteUnlock
                        } else {
                            MemOp::Unlock
                        };
                        push(pe, op, l);
                    }
                }
                continue;
            }
        };
        push(pe, op, addr);
    }
    for (i, h) in held.iter().enumerate() {
        if let Some(l) = *h {
            push(i as u32, MemOp::Unlock, l);
        }
    }
    trace
}

/// The merged trace split into one stream per PE, in trace order.
fn split(trace: &[Access], pes: u32) -> Vec<Vec<Access>> {
    let mut streams = vec![Vec::new(); pes as usize];
    for &a in trace {
        streams[a.pe.index()].push(a);
    }
    streams
}

/// The reference: replays `Access` vectors as they are, with the
/// replayer's documented write payload (`pe << 32 | position`).
struct AccessReplay {
    streams: Vec<Vec<Access>>,
    cursors: Vec<usize>,
}

impl Process for AccessReplay {
    fn pe_count(&self) -> u32 {
        self.streams.len() as u32
    }

    fn step(&mut self, pe: PeId, port: &mut dyn MemoryPort) -> StepOutcome {
        let i = pe.index();
        let cursor = self.cursors[i];
        let Some(a) = self.streams[i].get(cursor) else {
            let done = self
                .streams
                .iter()
                .zip(&self.cursors)
                .all(|(s, &c)| c == s.len());
            return if done {
                StepOutcome::Finished
            } else {
                StepOutcome::Idle
            };
        };
        let data =
            a.op.is_write()
                .then_some((i as Word) << 32 | cursor as Word);
        match port.op(a.op, a.addr, data) {
            PortValue::Stall => StepOutcome::Stalled,
            PortValue::Value(_) => {
                self.cursors[i] += 1;
                StepOutcome::Ran
            }
        }
    }
}

/// Everything a replay produces: the engine's run statistics (steps,
/// per-PE clocks and cycle accounts, makespan) and the system's
/// reference, bus, access and lock statistics.
fn replay(pes: u32, process: &mut impl Process) -> (RunStats, PimSystem) {
    let system = PimSystem::new(SystemConfig {
        pes,
        ..SystemConfig::default()
    });
    let mut engine = Engine::new(system, pes);
    let stats = engine
        .run(process, 10_000_000)
        .expect("a lock-disciplined replay runs clean");
    assert!(stats.finished);
    (stats, engine.into_system())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn from_merged_and_new_replay_like_the_access_vectors(
        pes in 1u32..65,
        items in proptest::collection::vec((0u32..64, any::<u8>(), any::<u64>()), 0..600),
    ) {
        let trace = merged_trace(pes, &items);
        let mut reference = AccessReplay {
            streams: split(&trace, pes),
            cursors: vec![0; pes as usize],
        };
        let (want_run, want_sys) = replay(pes, &mut reference);
        prop_assert_eq!(want_sys.ref_stats().total(), trace.len() as u64);
        for mut replayer in [
            Replayer::from_merged(&trace, pes),
            Replayer::new(split(&trace, pes)),
        ] {
            let (run, sys) = replay(pes, &mut replayer);
            prop_assert_eq!(replayer.remaining(), 0);
            prop_assert_eq!(&run, &want_run);
            prop_assert_eq!(sys.ref_stats(), want_sys.ref_stats());
            prop_assert_eq!(sys.bus_stats(), want_sys.bus_stats());
            prop_assert_eq!(sys.access_stats(), want_sys.access_stats());
            prop_assert_eq!(sys.lock_stats(), want_sys.lock_stats());
        }
    }
}

/// A fixed 3-PE trace: PE 0 writes and reads a run of words, PE 1 reads
/// them back, PE 2 locks, rewrites and unlocks one word.
fn three_pe_trace() -> Vec<Access> {
    let heap = AreaMap::standard().base(StorageArea::Heap);
    let at = |pe, op, addr| Access::new(PeId(pe), op, addr, StorageArea::Heap);
    let mut trace = Vec::new();
    for w in 0..12 {
        trace.push(at(0, MemOp::Write, heap + w));
        trace.push(at(1, MemOp::Read, heap + w));
        if w % 4 == 0 {
            trace.push(at(2, MemOp::LockRead, heap + 64 + w));
            trace.push(at(2, MemOp::WriteUnlock, heap + 64 + w));
        }
        trace.push(at(0, MemOp::Read, heap + w));
    }
    trace
}

#[test]
fn replay_checkpoint_bytes_are_pinned() {
    let trace = three_pe_trace();
    let mut replayer = Replayer::from_merged(&trace, 3);
    let system = PimSystem::new(SystemConfig {
        pes: 3,
        ..SystemConfig::default()
    });
    let mut engine = Engine::new(system, 3);
    let stats = engine.run(&mut replayer, 25).expect("fault-free run");
    assert!(!stats.finished, "the run is cut mid-stream");
    let mut w = pim_ckpt::Writer::new();
    replayer.save_ckpt(&mut w);
    // Recorded before the replay streams were packed: the PE count, then
    // each PE's cursor and stream length as little-endian u64s (PE 0 at
    // 11 of 24, PE 1 at 6 of 12, PE 2 done with 6).
    #[rustfmt::skip]
    let expected: &[u8] = &[
        3, 0, 0, 0, 0, 0, 0, 0,
        11, 0, 0, 0, 0, 0, 0, 0,
        24, 0, 0, 0, 0, 0, 0, 0,
        6, 0, 0, 0, 0, 0, 0, 0,
        12, 0, 0, 0, 0, 0, 0, 0,
        6, 0, 0, 0, 0, 0, 0, 0,
        6, 0, 0, 0, 0, 0, 0, 0,
    ];
    assert_eq!(w.payload(), expected);

    // The bytes restore into a replayer rebuilt from the same trace.
    let mut resumed = Replayer::from_merged(&trace, 3);
    resumed
        .restore_ckpt(&mut pim_ckpt::Reader::new(w.payload()))
        .expect("own checkpoint restores");
    assert_eq!(resumed.remaining(), replayer.remaining());
}
