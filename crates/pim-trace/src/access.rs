//! Memory access records.

use crate::{Addr, MemOp, StorageArea};
use std::fmt;

/// Identifier of a processing element (PE).
///
/// The paper simulates up to eight PEs on one bus; the reproduction allows
/// any count but follows the paper's guidance that "about eight
/// high-performance PEs will be connected" per bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct PeId(pub u32);

impl PeId {
    /// Dense index for per-PE arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// This PE's bit in a `u64` PE mask (bit `i` names PE `i`, so a mask
    /// names at most 64 PEs).
    #[inline]
    pub fn bit(self) -> u64 {
        1 << self.0
    }
}

/// The PEs named by a `u64` PE mask, in ascending id order.
///
/// ```
/// use pim_trace::{pes_in, PeId};
/// let mask = PeId(5).bit() | PeId(1).bit();
/// assert_eq!(pes_in(mask).collect::<Vec<_>>(), [PeId(1), PeId(5)]);
/// ```
#[inline]
pub fn pes_in(mut mask: u64) -> impl Iterator<Item = PeId> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let pe = PeId(mask.trailing_zeros());
            mask &= mask - 1;
            pe
        })
    })
}

/// A set of PEs held as a `u64` mask: bit `i` is PE `i`, so a set names
/// at most 64 PEs. It iterates in ascending id order.
///
/// ```
/// use pim_trace::{PeId, PeSet};
/// let mut set = PeSet::default();
/// set.insert(PeId(5));
/// set.insert(PeId(1));
/// assert_eq!(set.iter().collect::<Vec<_>>(), [PeId(1), PeId(5)]);
/// assert_eq!(set, vec![PeId(1), PeId(5)]);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct PeSet(u64);

impl PeSet {
    /// Adds `pe`.
    #[inline]
    pub fn insert(&mut self, pe: PeId) {
        self.0 |= pe.bit();
    }

    /// Number of members.
    #[inline]
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the set has no members.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The members in ascending id order.
    #[inline]
    pub fn iter(self) -> impl Iterator<Item = PeId> {
        pes_in(self.0)
    }
}

/// A set equals a list that names exactly its members in ascending order.
impl PartialEq<Vec<PeId>> for PeSet {
    fn eq(&self, list: &Vec<PeId>) -> bool {
        self.iter().eq(list.iter().copied())
    }
}

impl fmt::Debug for PeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl fmt::Display for PeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PE{}", self.0)
    }
}

/// One memory reference, as emitted by a PE's reduction engine and consumed
/// by its local cache simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Access {
    /// The issuing processing element.
    pub pe: PeId,
    /// The operation performed.
    pub op: MemOp,
    /// The target word address.
    pub addr: Addr,
    /// The storage area `addr` belongs to (precomputed by the issuer so
    /// sinks need no [`crate::AreaMap`]).
    pub area: StorageArea,
}

impl Access {
    /// Creates an access record.
    #[inline]
    pub fn new(pe: PeId, op: MemOp, addr: Addr, area: StorageArea) -> Access {
        Access { pe, op, addr, area }
    }
}

impl fmt::Display for Access {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {:#x} [{}]",
            self.pe, self.op, self.addr, self.area
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_informative() {
        let a = Access::new(PeId(3), MemOp::DirectWrite, 0x40, StorageArea::Heap);
        let s = a.to_string();
        assert!(s.contains("PE3"));
        assert!(s.contains("DW"));
        assert!(s.contains("heap"));
    }
}
