//! The scheduler's pick: a min-tournament tree over per-PE clock keys.
//!
//! [`crate::Engine`] always steps the runnable PE with the lowest clock,
//! ties to the lowest PE id. [`ClockTree`] answers that question in O(1)
//! and absorbs a clock change in O(log P), so the per-step cost does not
//! grow with the PE count the way a scan of every clock does.
//!
//! Each leaf holds one PE's key, `(clock << 64) | id` as a `u128`, which
//! orders exactly by `(clock, id)` for every `u64` clock. A blocked PE's
//! key is `u128::MAX`, above every runnable key, so a root of `u128::MAX`
//! means every PE is blocked. Each inner node holds the smaller of its
//! children's keys; leaves past the PE count are padding at `u128::MAX`.
//!
//! The tree is derived from the engine's clocks and blocked flags: the
//! engine rebuilds it at the start of every run and never checkpoints it.

use pim_trace::PeId;

/// The key of a PE that cannot run.
const BLOCKED: u128 = u128::MAX;

/// A min-tournament tree over `(clock, PE id)` keys.
///
/// # Examples
///
/// ```
/// use pim_sim::ClockTree;
/// use pim_trace::PeId;
///
/// let mut tree = ClockTree::new(3);
/// tree.rebuild(&[5, 2, 2], &[false, false, false]);
/// assert_eq!(tree.pick(), Some(PeId(1)), "ties go to the lowest id");
/// tree.update(PeId(1), 2, true);
/// assert_eq!(tree.pick(), Some(PeId(2)));
/// tree.update(PeId(2), 9, false);
/// assert_eq!(tree.pick(), Some(PeId(0)));
/// ```
#[derive(Debug, Clone)]
pub struct ClockTree {
    /// The leaf count: the PE count rounded up to a power of two.
    leaves: usize,
    /// `nodes[1]` is the root, node `i` has children `2i` and `2i + 1`,
    /// and PE `p`'s leaf is `nodes[leaves + p]`. `nodes[0]` is unused.
    nodes: Vec<u128>,
}

impl ClockTree {
    /// A tree for `pes` PEs, all blocked until [`ClockTree::rebuild`] or
    /// [`ClockTree::update`] gives them keys. A tree for no PEs has one
    /// padding leaf and never picks.
    pub fn new(pes: usize) -> ClockTree {
        let leaves = pes.next_power_of_two();
        ClockTree {
            leaves,
            nodes: vec![BLOCKED; 2 * leaves],
        }
    }

    /// Recomputes every key from the PE clocks and blocked flags.
    ///
    /// # Panics
    ///
    /// Panics if the two lengths differ or exceed the tree's leaf count.
    pub fn rebuild(&mut self, clocks: &[u64], blocked: &[bool]) {
        assert_eq!(clocks.len(), blocked.len(), "one blocked flag per clock");
        assert!(clocks.len() <= self.leaves, "more clocks than leaves");
        let leaves = &mut self.nodes[self.leaves..];
        leaves.fill(BLOCKED);
        for (pe, (&clock, &blocked)) in clocks.iter().zip(blocked).enumerate() {
            leaves[pe] = key(pe, clock, blocked);
        }
        for i in (1..self.leaves).rev() {
            self.nodes[i] = self.nodes[2 * i].min(self.nodes[2 * i + 1]);
        }
    }

    /// Sets `pe`'s key and replays its matches up to the root, stopping
    /// early once a match's winner is unchanged.
    #[inline]
    pub fn update(&mut self, pe: PeId, clock: u64, blocked: bool) {
        let mut i = self.leaves + pe.index();
        self.nodes[i] = key(pe.index(), clock, blocked);
        while i > 1 {
            i /= 2;
            let winner = self.nodes[2 * i].min(self.nodes[2 * i + 1]);
            if self.nodes[i] == winner {
                break;
            }
            self.nodes[i] = winner;
        }
    }

    /// The runnable PE with the lowest clock, ties to the lowest id, or
    /// `None` when every PE is blocked.
    #[inline]
    pub fn pick(&self) -> Option<PeId> {
        let root = self.nodes[1];
        // The id is the key's low half and below 2^32 by construction.
        (root != BLOCKED).then_some(PeId(root as u32))
    }
}

/// `pe`'s key: `(clock, id)` packed so that `u128` order is tuple order.
#[inline]
fn key(pe: usize, clock: u64, blocked: bool) -> u128 {
    if blocked {
        BLOCKED
    } else {
        (u128::from(clock) << 64) | pe as u128
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_pes_never_pick() {
        let mut tree = ClockTree::new(0);
        tree.rebuild(&[], &[]);
        assert_eq!(tree.pick(), None);
    }

    #[test]
    fn one_pe_is_its_own_root() {
        let mut tree = ClockTree::new(1);
        assert_eq!(tree.pick(), None);
        tree.update(PeId(0), 7, false);
        assert_eq!(tree.pick(), Some(PeId(0)));
        tree.update(PeId(0), 7, true);
        assert_eq!(tree.pick(), None);
    }

    #[test]
    fn the_largest_clock_still_beats_blocked() {
        let mut tree = ClockTree::new(5);
        tree.rebuild(&[0; 5], &[true; 5]);
        assert_eq!(tree.pick(), None);
        tree.update(PeId(4), u64::MAX, false);
        assert_eq!(tree.pick(), Some(PeId(4)));
        tree.update(PeId(3), u64::MAX, false);
        assert_eq!(tree.pick(), Some(PeId(3)));
        tree.update(PeId(0), u64::MAX - 1, false);
        assert_eq!(tree.pick(), Some(PeId(0)));
    }

    #[test]
    fn a_raised_winner_hands_the_root_on() {
        let mut tree = ClockTree::new(4);
        tree.rebuild(&[1, 2, 3, 4], &[false; 4]);
        assert_eq!(tree.pick(), Some(PeId(0)));
        tree.update(PeId(0), 10, false);
        assert_eq!(tree.pick(), Some(PeId(1)));
        tree.update(PeId(1), 10, false);
        tree.update(PeId(2), 10, false);
        tree.update(PeId(3), 10, false);
        assert_eq!(tree.pick(), Some(PeId(0)), "a four-way tie goes to PE0");
    }
}
