//! The memory-system abstraction the engine drives.

use pim_bus::BusStats;
use pim_cache::{AccessStats, LockStats, Outcome, PeShard, PimSystem, ProtocolError};
use pim_obs::Observer;
use pim_trace::{Addr, AreaMap, MemOp, PeId, RefStats, Word};

/// A coherent multiprocessor memory system: the PIM protocol, the Illinois
/// baseline, or any other comparator.
///
/// Implementations are functional (reads return the latest write) *and*
/// metered (bus, reference, hit and lock statistics).
pub trait MemorySystem {
    /// Performs one memory operation for `pe`.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError`] on lock misuse by the issuing machine.
    fn access(
        &mut self,
        pe: PeId,
        op: MemOp,
        addr: Addr,
        data: Option<Word>,
    ) -> Result<Outcome, ProtocolError>;

    /// The storage-area partition.
    fn area_map(&self) -> &AreaMap;

    /// Uncounted initialization write (program loading).
    fn poke(&mut self, addr: Addr, value: Word);

    /// Uncounted read preferring cached copies (result inspection).
    fn peek(&self, addr: Addr) -> Word;

    /// Accumulated bus statistics.
    fn bus_stats(&self) -> &BusStats;

    /// Accumulated per-area/per-op reference statistics.
    fn ref_stats(&self) -> &RefStats;

    /// Accumulated hit/miss statistics.
    fn access_stats(&self) -> &AccessStats;

    /// Accumulated lock-protocol statistics.
    fn lock_stats(&self) -> &LockStats;

    /// Attaches an observer receiving coherence state-transition events.
    /// The default discards it — implementations without instrumentation
    /// simply stay silent.
    fn set_observer(&mut self, observer: Box<dyn Observer>) {
        let _ = observer;
    }

    /// Tells the system the current simulated cycle, so events emitted
    /// from inside it (state transitions) carry issue-cycle stamps. The
    /// engine calls this before each [`MemorySystem::access`]; the
    /// default ignores it.
    fn set_now(&mut self, cycle: u64) {
        let _ = cycle;
    }

    /// Checkpoint hook: serializes the complete system state (caches,
    /// lock directories, shared memory, statistics).
    fn save_ckpt(&self, w: &mut pim_ckpt::Writer);

    /// Checkpoint hook: restores state saved by
    /// [`MemorySystem::save_ckpt`] into a system built with an identical
    /// configuration.
    ///
    /// # Errors
    ///
    /// [`pim_ckpt::CkptError`] when the checkpoint disagrees with this
    /// system's shape or is corrupt.
    fn restore_ckpt(&mut self, r: &mut pim_ckpt::Reader<'_>) -> Result<(), pim_ckpt::CkptError>;
}

/// One PE's private slice of a sharded memory system: its cache and lock
/// directory plus shard-local statistics accumulators. Owned by a worker
/// thread between epoch barriers, so it must be [`Send`].
pub trait SystemShard: Send {
    /// Speculatively executes `op` if it is provably local to this shard
    /// (a resident hit, no bus transaction). Returns the value, or `None`
    /// when the operation is global and must go through the shared system
    /// at a barrier. `now` is the cycle the operation issues at, used to
    /// stamp buffered observer events.
    fn try_local(&mut self, op: MemOp, addr: Addr, data: Option<Word>, now: u64) -> Option<Word>;

    /// Number of uncommitted speculative operations.
    fn spec_len(&self) -> usize;

    /// Rolls back speculative operations from index `len` on, restoring
    /// the shard bit-exactly and dropping their statistics.
    fn rollback_to(&mut self, len: usize);

    /// Commits all outstanding speculative operations into the shard-local
    /// accumulators.
    fn commit_speculation(&mut self);

    /// The base address of the block containing `addr` — the conflict
    /// granularity between local speculation and global operations.
    fn block_base(&self, addr: Addr) -> Addr;
}

impl SystemShard for PeShard {
    fn try_local(&mut self, op: MemOp, addr: Addr, data: Option<Word>, now: u64) -> Option<Word> {
        PeShard::try_local(self, op, addr, data, now)
    }

    fn spec_len(&self) -> usize {
        PeShard::spec_len(self)
    }

    fn rollback_to(&mut self, len: usize) {
        PeShard::rollback_to(self, len)
    }

    fn commit_speculation(&mut self) {
        PeShard::commit_speculation(self)
    }

    fn block_base(&self, addr: Addr) -> Addr {
        PeShard::block_base(self, addr)
    }
}

/// A [`MemorySystem`] whose per-PE state can be split off into owned
/// [`SystemShard`]s for the parallel engine. The remaining "core" (bus,
/// shared memory, lock bookkeeping, global statistics) stays behind and is
/// only touched by the coordinator at barriers.
pub trait ShardedSystem: MemorySystem {
    /// The owned per-PE shard type.
    type Shard: SystemShard;

    /// Moves the shards out (PE order). While taken, `access` must not be
    /// called; return them with [`ShardedSystem::put_shards`] first.
    fn take_shards(&mut self) -> Vec<Self::Shard>;

    /// Returns shards previously taken, in the same PE order.
    fn put_shards(&mut self, shards: Vec<Self::Shard>);

    /// Arms speculative undo logging on every shard for a parallel run.
    fn begin_sharded_run(&mut self);

    /// Suspends undo logging while a committed global operation runs (its
    /// effects must not be rolled back with later speculation).
    fn pause_speculation(&mut self);

    /// Re-arms undo logging after [`ShardedSystem::pause_speculation`].
    fn resume_speculation(&mut self);

    /// Commits outstanding speculation and folds every shard-local
    /// accumulator into the system totals. After this, the usual
    /// [`MemorySystem`] statistics accessors reflect the whole run.
    fn fold_shard_stats(&mut self);
}

impl ShardedSystem for PimSystem {
    type Shard = PeShard;

    fn take_shards(&mut self) -> Vec<PeShard> {
        PimSystem::take_shards(self)
    }

    fn put_shards(&mut self, shards: Vec<PeShard>) {
        PimSystem::put_shards(self, shards)
    }

    fn begin_sharded_run(&mut self) {
        PimSystem::begin_sharded_run(self)
    }

    fn pause_speculation(&mut self) {
        PimSystem::pause_speculation(self)
    }

    fn resume_speculation(&mut self) {
        PimSystem::resume_speculation(self)
    }

    fn fold_shard_stats(&mut self) {
        PimSystem::fold_shard_stats(self)
    }
}

// The per-reference methods forward with `#[inline]` so an engine
// instantiated in another crate calls `PimSystem::access` directly.
impl MemorySystem for PimSystem {
    #[inline]
    fn access(
        &mut self,
        pe: PeId,
        op: MemOp,
        addr: Addr,
        data: Option<Word>,
    ) -> Result<Outcome, ProtocolError> {
        PimSystem::access(self, pe, op, addr, data)
    }

    #[inline]
    fn area_map(&self) -> &AreaMap {
        PimSystem::area_map(self)
    }

    fn poke(&mut self, addr: Addr, value: Word) {
        PimSystem::poke(self, addr, value)
    }

    fn peek(&self, addr: Addr) -> Word {
        PimSystem::peek(self, addr)
    }

    fn bus_stats(&self) -> &BusStats {
        PimSystem::bus_stats(self)
    }

    fn ref_stats(&self) -> &RefStats {
        PimSystem::ref_stats(self)
    }

    fn access_stats(&self) -> &AccessStats {
        PimSystem::access_stats(self)
    }

    fn lock_stats(&self) -> &LockStats {
        PimSystem::lock_stats(self)
    }

    fn set_observer(&mut self, observer: Box<dyn Observer>) {
        PimSystem::set_observer(self, observer)
    }

    #[inline]
    fn set_now(&mut self, cycle: u64) {
        PimSystem::set_now(self, cycle)
    }

    fn save_ckpt(&self, w: &mut pim_ckpt::Writer) {
        PimSystem::save_ckpt(self, w)
    }

    fn restore_ckpt(&mut self, r: &mut pim_ckpt::Reader<'_>) -> Result<(), pim_ckpt::CkptError> {
        PimSystem::restore_ckpt(self, r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_cache::SystemConfig;
    use pim_trace::StorageArea;

    #[test]
    fn pim_system_implements_the_trait() {
        let mut sys: Box<dyn MemorySystem> = Box::new(PimSystem::new(SystemConfig::default()));
        let h = sys.area_map().base(StorageArea::Heap);
        sys.poke(h, 3);
        let out = sys.access(PeId(0), MemOp::Read, h, None).unwrap();
        assert_eq!(out.value(), 3);
        assert_eq!(sys.peek(h), 3);
        assert_eq!(sys.ref_stats().total(), 1);
    }
}
