//! Access and lock statistics gathered by the protocol engine.

/// Hit/miss accounting for the cache side (Figures 1 and 2's miss-ratio
/// curves), plus `DW` contract diagnostics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessStats {
    /// Accesses that went through the cache lookup path (everything except
    /// bare unlocks).
    pub lookups: u64,
    /// Lookups satisfied by a resident block.
    pub hits: u64,
    /// Direct writes that allocated without a fetch (the win case).
    pub dw_allocations: u64,
    /// Direct writes that had to fall back to an ordinary write because a
    /// remote cache still held the block — a violation of the software
    /// contract that `DW` targets are fresh memory.
    pub dw_contract_violations: u64,
    /// Blocks discarded by `ER`/`RP` purges without write-back.
    pub purges: u64,
    /// Dirty blocks among those purges (traffic that a conventional
    /// protocol would have swapped out).
    pub dirty_purges: u64,
}

impl AccessStats {
    /// Creates zeroed statistics.
    pub fn new() -> AccessStats {
        AccessStats::default()
    }

    /// Fraction of lookups that missed, in `[0, 1]`.
    pub fn miss_ratio(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            1.0 - self.hits as f64 / self.lookups as f64
        }
    }
}

/// Lock-protocol statistics (paper Table 5).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LockStats {
    /// Completed `LR` operations.
    pub lr_total: u64,
    /// `LR`s that hit a resident block.
    pub lr_hits: u64,
    /// `LR`s that hit an *exclusive* block (`EC`/`EM`) — the bus-free case.
    pub lr_hits_exclusive: u64,
    /// Completed `UW`/`U` operations.
    pub unlock_total: u64,
    /// Unlocks whose entry was still `LCK` (no waiter → no `UL` broadcast).
    pub unlock_no_waiter: u64,
    /// `LR` attempts refused with `LH` (the requester busy-waited).
    pub lr_refused: u64,
    /// The largest number of locks any one PE held simultaneously —
    /// validating the paper's sizing claim that "only one or two lock
    /// entry per directory is needed".
    pub max_simultaneous_locks: u64,
}

impl LockStats {
    /// Creates zeroed statistics.
    pub fn new() -> LockStats {
        LockStats::default()
    }

    /// Table 5 row 1: `LR` hit ratio.
    pub fn lr_hit_ratio(&self) -> f64 {
        ratio(self.lr_hits, self.lr_total)
    }

    /// Table 5 row 2: `LR` hit-to-exclusive ratio.
    pub fn lr_hit_exclusive_ratio(&self) -> f64 {
        ratio(self.lr_hits_exclusive, self.lr_total)
    }

    /// Table 5 row 3: `U`/`UW` hit-to-no-waiter ratio.
    pub fn unlock_no_waiter_ratio(&self) -> f64 {
        ratio(self.unlock_no_waiter, self.unlock_total)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_ratio_bounds() {
        let mut s = AccessStats::new();
        assert_eq!(s.miss_ratio(), 0.0);
        s.lookups = 10;
        s.hits = 7;
        assert!((s.miss_ratio() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn lock_ratios() {
        let s = LockStats {
            lr_total: 100,
            lr_hits: 80,
            lr_hits_exclusive: 70,
            unlock_total: 100,
            unlock_no_waiter: 99,
            lr_refused: 1,
            ..LockStats::new()
        };
        assert!((s.lr_hit_ratio() - 0.8).abs() < 1e-12);
        assert!((s.lr_hit_exclusive_ratio() - 0.7).abs() < 1e-12);
        assert!((s.unlock_no_waiter_ratio() - 0.99).abs() < 1e-12);
    }
}
