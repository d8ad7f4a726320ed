//! The scheduler's tournament tree against the linear scan it replaced.
//!
//! Over random clocks (ties and values next to `u64::MAX` included),
//! blocked sets and wake-up sequences, at PE counts from 1 to 64, the
//! tree's pick must equal the runnable PE with the lowest `(clock, id)` —
//! or `None` exactly when every PE is blocked.

use pim_sim::ClockTree;
use pim_trace::PeId;
use proptest::prelude::*;

/// The pick the engine made before the tree: a scan of every PE.
fn scan(clocks: &[u64], blocked: &[bool]) -> Option<PeId> {
    clocks
        .iter()
        .enumerate()
        .filter(|&(i, _)| !blocked[i])
        .min_by_key(|&(i, &c)| (c, i))
        .map(|(i, _)| PeId(i as u32))
}

/// A clock from one of three bands, so that ties are common and the top
/// of the `u64` range is exercised: small values, values next to
/// `u64::MAX`, and anything.
fn clock(band: u8, raw: u64) -> u64 {
    match band % 3 {
        0 => raw % 4,
        1 => u64::MAX - raw % 4,
        _ => raw,
    }
}

/// Every PE's clock and blocked flag, and the tree kept over them.
struct Model {
    clocks: Vec<u64>,
    blocked: Vec<bool>,
    tree: ClockTree,
}

impl Model {
    fn new(pes: usize, init: &[(u8, u64, bool)]) -> Model {
        let clocks: Vec<u64> = init[..pes].iter().map(|&(b, r, _)| clock(b, r)).collect();
        let blocked: Vec<bool> = init[..pes].iter().map(|&(_, _, b)| b).collect();
        let mut tree = ClockTree::new(pes);
        tree.rebuild(&clocks, &blocked);
        Model {
            clocks,
            blocked,
            tree,
        }
    }

    fn set(&mut self, pe: usize, clock: u64, blocked: bool) {
        self.clocks[pe] = clock;
        self.blocked[pe] = blocked;
        self.tree.update(PeId(pe as u32), clock, blocked);
    }

    /// One operation: `kind` picks between the engine's own moves (step
    /// the picked PE, maybe blocking it, and wake a blocked PE up to its
    /// clock) and arbitrary re-keying or a full rebuild.
    fn apply(&mut self, kind: u8, at: usize, band: u8, raw: u64) {
        let pes = self.clocks.len();
        let pe = at % pes;
        match kind % 5 {
            0 | 1 => {
                // An engine step: the picked PE advances (0 to 3 cycles,
                // saturating) and blocks on a refusal one time in four.
                if let Some(p) = self.tree.pick() {
                    let p = p.index();
                    let next = self.clocks[p].saturating_add(raw % 4);
                    self.set(p, next, raw.is_multiple_of(4));
                }
            }
            2 => {
                // A wake-up: a blocked PE resumes at the waker's clock.
                if self.blocked[pe] {
                    let waker = self.clocks[(pe + 1) % pes];
                    let c = self.clocks[pe].max(waker);
                    self.set(pe, c, false);
                }
            }
            3 => self.set(pe, clock(band, raw), raw.is_multiple_of(3)),
            _ => self.tree.rebuild(&self.clocks, &self.blocked),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn tree_pick_matches_the_linear_scan(
        pes in 1usize..65,
        init in proptest::collection::vec((0u8..3, any::<u64>(), any::<bool>()), 64..65),
        ops in proptest::collection::vec((0u8..5, 0usize..64, 0u8..3, any::<u64>()), 1..300),
    ) {
        let mut m = Model::new(pes, &init);
        prop_assert_eq!(m.tree.pick(), scan(&m.clocks, &m.blocked));
        for (i, &(kind, at, band, raw)) in ops.iter().enumerate() {
            m.apply(kind, at, band, raw);
            prop_assert_eq!(
                m.tree.pick(),
                scan(&m.clocks, &m.blocked),
                "after op {} of {:?} at {} PEs", i, ops[i], pes
            );
        }
    }
}

/// Every PE count from 1 to 64, non-powers of two included, driven by a
/// fixed xorshift sequence.
#[test]
fn every_pe_count_from_1_to_64_matches_the_scan() {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    for pes in 1..=64 {
        let init: Vec<(u8, u64, bool)> = (0..64)
            .map(|_| ((next() % 3) as u8, next(), next() % 2 == 0))
            .collect();
        let mut m = Model::new(pes, &init);
        for _ in 0..2_000 {
            let (kind, at, band, raw) = (next() as u8, next() as usize, next() as u8, next());
            m.apply(kind, at, band, raw);
            assert_eq!(m.tree.pick(), scan(&m.clocks, &m.blocked), "{pes} PEs");
        }
    }
}

#[test]
fn all_blocked_is_none_and_one_wake_up_is_picked() {
    for pes in [1, 5, 17, 63, 64] {
        let mut tree = ClockTree::new(pes);
        tree.rebuild(&vec![3; pes], &vec![true; pes]);
        assert_eq!(tree.pick(), None, "{pes} PEs");
        let last = PeId(pes as u32 - 1);
        tree.update(last, u64::MAX, false);
        assert_eq!(tree.pick(), Some(last), "{pes} PEs");
    }
}
