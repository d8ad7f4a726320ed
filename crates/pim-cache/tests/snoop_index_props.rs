//! Property check of the snoop index: random operation sequences at 1 to
//! 16 PEs over a small, heavily evicting cache keep
//! `check_coherence_invariants` (which compares the index with one
//! rebuilt from the caches and lock directories) green after every step.
//! Halfway, the system is checkpointed and restored into a fresh one; the
//! restored twin must pass the same check and answer every later
//! operation exactly as the original does.

use pim_cache::{CacheGeometry, Outcome, PimSystem, SystemConfig};
use pim_trace::{Addr, MemOp, PeId, StorageArea, Word};
use proptest::prelude::*;
use std::collections::HashMap;

const SLOTS: u64 = 48; // 12 four-word blocks over 4 lines per cache

/// Operations the test draws from. `WriteUnlock` releases the PE's
/// oldest held lock; `LockRead` keeps the lock so several can be held.
const OPS: [MemOp; 9] = [
    MemOp::Read,
    MemOp::Write,
    MemOp::DirectWrite,
    MemOp::DirectWriteDown,
    MemOp::ExclusiveRead,
    MemOp::ReadPurge,
    MemOp::ReadInvalidate,
    MemOp::LockRead,
    MemOp::WriteUnlock,
];

fn tiny_system(pes: u32) -> PimSystem {
    PimSystem::new(SystemConfig {
        pes,
        // 2 sets × 2 ways × 4-word blocks = 16 words: constant evictions.
        geometry: CacheGeometry::with_shape(16, 4, 2),
        ..SystemConfig::default()
    })
}

/// Locks each PE holds, oldest first.
type Held = HashMap<PeId, Vec<Addr>>;

/// The system under test and, after the checkpoint, its restored twin.
struct Pair {
    sys: PimSystem,
    twin: Option<PimSystem>,
}

impl Pair {
    /// Runs one access on both systems; their outcomes must agree.
    fn access(&mut self, pe: PeId, op: MemOp, addr: Addr, data: Option<Word>) -> Outcome {
        let out = self.sys.access(pe, op, addr, data).expect("no lock misuse");
        if let Some(twin) = &mut self.twin {
            let twin_out = twin.access(pe, op, addr, data).expect("no lock misuse");
            assert_eq!(twin_out, out, "restored twin diverged on {op} {addr:#x}");
        }
        out
    }

    fn check(&self) -> Result<(), TestCaseError> {
        for sys in std::iter::once(&self.sys).chain(&self.twin) {
            sys.check_coherence_invariants()
                .map_err(|e| TestCaseError::fail(format!("invariant violated: {e}")))?;
        }
        Ok(())
    }

    /// Runs `op`, releasing the refusing holder's locks until it completes.
    fn complete(&mut self, held: &mut Held, pe: PeId, op: MemOp, addr: Addr, data: Option<Word>) {
        loop {
            match self.access(pe, op, addr, data) {
                Outcome::Done { .. } => return,
                Outcome::LockBusy { holder } => {
                    let locks = held.remove(&holder).unwrap_or_default();
                    assert!(!locks.is_empty(), "refused by a PE holding no locks");
                    for l in locks {
                        self.access(holder, MemOp::Unlock, l, None);
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn snoop_index_stays_exact_through_random_traffic_and_restore(
        pes in 1u32..17,
        steps in proptest::collection::vec(
            (any::<u32>(), 0usize..OPS.len(), 0u64..SLOTS, 1u64..1000), 1..250),
        cut in 0usize..250,
    ) {
        let mut pair = Pair { sys: tiny_system(pes), twin: None };
        let heap = pair.sys.area_map().base(StorageArea::Heap);
        let mut held = Held::new();
        for (i, &(raw_pe, op, slot, value)) in steps.iter().enumerate() {
            if i == cut {
                let mut w = pim_ckpt::Writer::new();
                pair.sys.save_ckpt(&mut w);
                let mut twin = tiny_system(pes);
                let payload = w.payload().to_vec();
                let mut r = pim_ckpt::Reader::new(&payload);
                twin.restore_ckpt(&mut r).expect("restores");
                pair.twin = Some(twin);
                pair.check()?;
            }
            let pe = PeId(raw_pe % pes);
            let addr = heap + slot;
            let mine = held.entry(pe).or_default();
            match OPS[op] {
                MemOp::LockRead => {
                    let taken = held.values().any(|locks| locks.contains(&addr));
                    if taken || held.get(&pe).map_or(0, Vec::len) >= 4 {
                        continue;
                    }
                    pair.complete(&mut held, pe, MemOp::LockRead, addr, None);
                    held.entry(pe).or_default().push(addr);
                }
                MemOp::WriteUnlock => {
                    if mine.is_empty() {
                        continue;
                    }
                    let l = mine.remove(0);
                    pair.access(pe, MemOp::WriteUnlock, l, Some(value));
                }
                other => {
                    let data = other.is_write().then_some(value);
                    pair.complete(&mut held, pe, other, addr, data);
                }
            }
            pair.check()?;
        }
        for (pe, locks) in held {
            for l in locks {
                pair.access(pe, MemOp::Unlock, l, None);
            }
        }
        pair.check()?;
        for a in (0..SLOTS).map(|s| heap + s) {
            prop_assert_eq!(pair.twin.as_ref().map_or(pair.sys.peek(a), |t| t.peek(a)), pair.sys.peek(a));
        }
    }
}
