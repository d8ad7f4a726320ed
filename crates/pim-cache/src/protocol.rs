//! The PIM coherence engine: N per-PE caches and lock directories around a
//! snooping bus and one shared memory.
//!
//! [`PimSystem`] is driven one memory operation at a time and is fully
//! deterministic. It plays three roles at once:
//!
//! * a **functional memory**: every read returns the value of the latest
//!   write to that address (assuming the software contracts of the
//!   optimized commands are respected);
//! * a **coherence state machine** implementing Section 3 of the paper:
//!   five block states, the separate lock directory, the `DW`/`ER`/`RP`/
//!   `RI` command special cases with their automatic downgrades;
//! * a **traffic meter** recording bus cycles, transaction patterns, bus
//!   commands, reference mixes, hit ratios and lock ratios for the paper's
//!   tables and figures.
//!
//! # Locking and the `LH` response
//!
//! A PE's lock directory snoops the bus and refuses (responds `LH` to) any
//! remote command targeting a block that contains one of its locked words.
//! The check is **block-granular** by design: if only exact word matches
//! were refused, another PE could acquire the block exclusively by touching
//! a neighbouring word and then satisfy a later `LR` *from its own cache
//! with no bus command* — silently breaking mutual exclusion. Refusing
//! exclusivity on the whole locked block keeps the zero-cost
//! `LR`-hit-to-exclusive optimization sound. Lock hold times in KL1 are a
//! handful of cycles, so the extra refusals are negligible (Table 5).
//!
//! On a refusal the requester receives [`Outcome::LockBusy`] and must retry
//! after the holder's `UL` broadcast — the woken PEs are reported in
//! [`Outcome::Done::woken`] of the unlocking operation.
//!
//! # One lookup per reference
//!
//! A hit resolves its cache line once (`CacheArray::lookup`) and reads,
//! writes, re-states or purges that `Line` directly. Remote snoops and
//! bus transactions in between touch only *other* PEs' caches, so the
//! resolved line stays valid for the rest of the operation.

use crate::array::{CacheArray, Eviction, Line, DW_POISON};
use crate::{
    AccessStats, BlockState, CacheGeometry, ConfigError, LockDirectory, LockState, LockStats,
    OptMask, ProtocolError,
};
use pim_bus::{BusCommand, BusStats, BusTiming, SharedMemory, Transaction};
use pim_obs::Observer;
use pim_trace::{pes_in, Access, Addr, AreaMap, MemOp, PeId, PeSet, RefStats, StorageArea, Word};
use std::collections::HashMap;

/// The most PEs a [`PimSystem`] (or any system sharing its snoop index)
/// can have: the index names each PE by one bit of a `u64`.
pub const MAX_PES: u32 = 64;

/// Configuration of a [`PimSystem`].
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Number of processing elements on the bus (paper default: 8).
    pub pes: u32,
    /// Per-PE cache geometry.
    pub geometry: CacheGeometry,
    /// Bus/memory timing.
    pub timing: BusTiming,
    /// Which optimized commands are honoured where.
    pub opt_mask: OptMask,
    /// Lock-directory entries per PE.
    pub lock_entries: usize,
    /// The storage-area partition of the address space.
    pub area_map: AreaMap,
}

impl SystemConfig {
    /// Checks that a memory system can be built from this configuration:
    /// 1 to [`MAX_PES`] PEs and a geometry that passes
    /// [`CacheGeometry::validate`].
    ///
    /// # Errors
    ///
    /// The first [`ConfigError`] the configuration violates.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.pes == 0 {
            return Err(ConfigError::NoPes);
        }
        if self.pes > MAX_PES {
            return Err(ConfigError::TooManyPes { pes: self.pes });
        }
        self.geometry.validate()
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            pes: 8,
            geometry: CacheGeometry::paper_default(),
            timing: BusTiming::paper_default(),
            opt_mask: OptMask::all(),
            lock_entries: 4,
            area_map: AreaMap::standard(),
        }
    }
}

/// Result of one memory operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// The operation completed.
    Done {
        /// The word read (for reads) or written (for writes); 0 for `U`.
        value: Word,
        /// Bus cycles this operation consumed (0 for local hits).
        bus_cycles: u64,
        /// Whether the cache lookup hit a resident block.
        hit: bool,
        /// PEs woken by an `UL` broadcast (only ever non-empty for
        /// `UW`/`U` on an `LWAIT` entry). A set: the waiters wake in
        /// ascending PE id, not in the order they were refused.
        woken: PeSet,
    },
    /// The operation hit a word locked by `holder` and received an `LH`
    /// response; the issuer must busy-wait and retry after `holder`
    /// broadcasts `UL`.
    LockBusy {
        /// The PE whose lock directory refused the request.
        holder: PeId,
    },
}

impl Outcome {
    /// The value of a completed operation.
    ///
    /// # Panics
    ///
    /// Panics if the outcome is [`Outcome::LockBusy`].
    pub fn value(&self) -> Word {
        match self {
            Outcome::Done { value, .. } => *value,
            Outcome::LockBusy { holder } => panic!("operation refused by {holder}"),
        }
    }

    /// The bus cycles of a completed operation (0 if refused).
    pub fn bus_cycles(&self) -> u64 {
        match self {
            Outcome::Done { bus_cycles, .. } => *bus_cycles,
            Outcome::LockBusy { .. } => 0,
        }
    }
}

/// How a fill acquired its data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FillSource {
    /// Supplied cache-to-cache by this PE; `true` if the copy was dirty.
    Cache(PeId, bool),
    /// Fetched from shared global memory.
    Memory,
}

/// A completed fill. The block's words are left in the system's
/// `fill_buf`.
struct Filled {
    cycles: u64,
    source: FillSource,
}

enum FillOutcome {
    Filled(Filled),
    Refused { holder: PeId },
}

/// Block number → PE mask. Block numbers come from trace addresses, which
/// are input from outside the program, so the map keeps the standard
/// collision-resistant hasher.
type BlockMap = HashMap<u64, u64>;

/// The snoop index: which PEs a bus snoop on a block has to ask.
///
/// Both maps are keyed by block number and hold a PE bitmask:
///
/// * `holders` — PEs whose cache holds the block. The bit is set on
///   every install and cleared whenever [`PimSystem`] drops the line
///   (invalidation, purge, eviction); every cache mutation goes through
///   the system, so the mask is exact at all times.
/// * `lockers` — PEs whose lock directory holds a word in the block;
///   exact at all times.
///
/// A snoop through the index probes the same caches and directories, in
/// the same ascending PE order, as one that asks every PE. See DESIGN.md,
/// "Snoop index".
#[derive(Debug, Clone, Default)]
struct SnoopIndex {
    holders: BlockMap,
    lockers: BlockMap,
}

impl SnoopIndex {
    /// An empty index sized for `pes` full caches of `lines` lines and
    /// lock directories of `lock_entries`, so it never grows on the hot
    /// path.
    fn with_capacity(pes: usize, lines: usize, lock_entries: usize) -> SnoopIndex {
        SnoopIndex {
            holders: BlockMap::with_capacity(pes * lines),
            lockers: BlockMap::with_capacity(pes * lock_entries),
        }
    }

    fn holders(&self, block: u64) -> u64 {
        self.holders.get(&block).copied().unwrap_or(0)
    }

    fn lockers(&self, block: u64) -> u64 {
        self.lockers.get(&block).copied().unwrap_or(0)
    }

    fn add_holder(&mut self, block: u64, pe: PeId) {
        *self.holders.entry(block).or_insert(0) |= pe.bit();
    }

    fn remove_holder(&mut self, block: u64, pe: PeId) {
        clear_bit(&mut self.holders, block, pe);
    }

    fn add_locker(&mut self, block: u64, pe: PeId) {
        *self.lockers.entry(block).or_insert(0) |= pe.bit();
    }

    fn remove_locker(&mut self, block: u64, pe: PeId) {
        clear_bit(&mut self.lockers, block, pe);
    }

    /// Recomputes both maps exactly from the caches and lock directories.
    fn rebuild(
        &mut self,
        caches: &[CacheArray],
        lockdirs: &[LockDirectory],
        geometry: &CacheGeometry,
    ) {
        self.holders.clear();
        self.lockers.clear();
        for (i, (cache, lockdir)) in caches.iter().zip(lockdirs).enumerate() {
            let pe = PeId(i as u32);
            for (base, _) in cache.valid_blocks() {
                self.add_holder(geometry.block_number(base), pe);
            }
            for addr in lockdir.held_addrs() {
                self.add_locker(geometry.block_number(addr), pe);
            }
        }
    }
}

fn clear_bit(map: &mut BlockMap, block: u64, pe: PeId) {
    if let Some(mask) = map.get_mut(&block) {
        *mask &= !pe.bit();
        if *mask == 0 {
            map.remove(&block);
        }
    }
}

/// The PIM multiprocessor memory system (Section 3 of the paper).
#[derive(Debug)]
pub struct PimSystem {
    config: SystemConfig,
    /// Each PE's cache array, indexed by PE id.
    caches: Vec<CacheArray>,
    /// Each PE's lock directory, indexed by PE id.
    lockdirs: Vec<LockDirectory>,
    memory: SharedMemory,
    bus: BusStats,
    refs: RefStats,
    access_stats: AccessStats,
    lock_stats: LockStats,
    observer: Option<Box<dyn Observer>>,
    /// The engine-supplied current cycle, stamped onto observer events
    /// emitted from inside the protocol (state transitions).
    now: u64,
    snoop: SnoopIndex,
    /// One block of scratch: the words of the block being filled.
    fill_buf: Vec<Word>,
    /// One block of scratch: a dirty victim's words on their way to
    /// memory.
    victim_buf: Vec<Word>,
}

impl Clone for PimSystem {
    /// Clones the full simulation state. The observer (not clonable) is
    /// dropped — clones observe nothing until [`PimSystem::set_observer`]
    /// is called on them. Used by state-space exploration tests.
    fn clone(&self) -> PimSystem {
        PimSystem {
            config: self.config.clone(),
            caches: self.caches.clone(),
            lockdirs: self.lockdirs.clone(),
            memory: self.memory.clone(),
            bus: self.bus.clone(),
            refs: self.refs.clone(),
            access_stats: self.access_stats,
            lock_stats: self.lock_stats,
            observer: None,
            now: self.now,
            snoop: self.snoop.clone(),
            fill_buf: self.fill_buf.clone(),
            victim_buf: self.victim_buf.clone(),
        }
    }
}

impl PimSystem {
    /// Builds a system with all caches empty and memory zeroed.
    ///
    /// # Panics
    ///
    /// Panics with the [`ConfigError`] that [`PimSystem::try_new`]
    /// returns.
    pub fn new(config: SystemConfig) -> PimSystem {
        match PimSystem::try_new(config) {
            Ok(system) => system,
            Err(e) => panic!("bad system configuration: {e}"),
        }
    }

    /// Builds a system with all caches empty and memory zeroed.
    ///
    /// # Errors
    ///
    /// The [`ConfigError`] from [`SystemConfig::validate`].
    pub fn try_new(config: SystemConfig) -> Result<PimSystem, ConfigError> {
        config.validate()?;
        let geom = config.geometry;
        let pes = config.pes as usize;
        let block = vec![0; geom.block_words as usize];
        Ok(PimSystem {
            snoop: SnoopIndex::with_capacity(
                config.pes as usize,
                (geom.sets * geom.ways) as usize,
                config.lock_entries,
            ),
            // Built one by one, not cloned: a clone of a lock directory
            // drops its reserved capacity, and its first lock would
            // then allocate on the hot path.
            caches: (0..pes).map(|_| CacheArray::new(geom)).collect(),
            lockdirs: (0..pes)
                .map(|_| LockDirectory::new(config.lock_entries))
                .collect(),
            config,
            memory: SharedMemory::new(),
            bus: BusStats::new(),
            refs: RefStats::new(),
            access_stats: AccessStats::new(),
            lock_stats: LockStats::new(),
            observer: None,
            now: 0,
            fill_buf: block.clone(),
            victim_buf: block,
        })
    }

    /// Recomputes the snoop index from the caches and lock directories.
    /// The index is derived state: it is never checkpointed, only rebuilt.
    fn rebuild_snoop_index(&mut self) {
        self.snoop
            .rebuild(&self.caches, &self.lockdirs, &self.config.geometry);
    }

    /// Checkpoint hook: serializes the complete coherence state — every
    /// PE's cache array and lock directory, the shared memory, and the
    /// system-level statistics accumulators.
    pub fn save_ckpt(&self, w: &mut pim_ckpt::Writer) {
        w.put_len(self.caches.len());
        for (cache, lockdir) in self.caches.iter().zip(&self.lockdirs) {
            cache.save_ckpt(w);
            lockdir.save_ckpt(w);
        }
        self.memory.save_ckpt(w);
        self.bus.save_ckpt(w);
        self.refs.save_ckpt(w);
        let a = &self.access_stats;
        for v in [
            a.lookups,
            a.hits,
            a.dw_allocations,
            a.dw_contract_violations,
            a.purges,
            a.dirty_purges,
        ] {
            w.put_u64(v);
        }
        let l = &self.lock_stats;
        for v in [
            l.lr_total,
            l.lr_hits,
            l.lr_hits_exclusive,
            l.unlock_total,
            l.unlock_no_waiter,
            l.lr_refused,
            l.max_simultaneous_locks,
        ] {
            w.put_u64(v);
        }
        w.put_u64(self.now);
    }

    /// Checkpoint hook: restores a system saved by
    /// [`PimSystem::save_ckpt`] into a freshly built system of the same
    /// configuration.
    ///
    /// # Errors
    ///
    /// [`pim_ckpt::CkptError::Mismatch`] when the PE count (or any nested
    /// geometry) disagrees with this system's configuration.
    pub fn restore_ckpt(
        &mut self,
        r: &mut pim_ckpt::Reader<'_>,
    ) -> Result<(), pim_ckpt::CkptError> {
        let n = r.get_len()?;
        if n != self.caches.len() {
            return Err(pim_ckpt::CkptError::Mismatch {
                detail: format!("system has {} PEs, checkpoint has {n}", self.caches.len()),
            });
        }
        for (cache, lockdir) in self.caches.iter_mut().zip(&mut self.lockdirs) {
            cache.restore_ckpt(r)?;
            lockdir.restore_ckpt(r)?;
        }
        self.memory.restore_ckpt(r)?;
        self.bus.restore_ckpt(r)?;
        self.refs.restore_ckpt(r)?;
        let a = &mut self.access_stats;
        for v in [
            &mut a.lookups,
            &mut a.hits,
            &mut a.dw_allocations,
            &mut a.dw_contract_violations,
            &mut a.purges,
            &mut a.dirty_purges,
        ] {
            *v = r.get_u64()?;
        }
        let l = &mut self.lock_stats;
        for v in [
            &mut l.lr_total,
            &mut l.lr_hits,
            &mut l.lr_hits_exclusive,
            &mut l.unlock_total,
            &mut l.unlock_no_waiter,
            &mut l.lr_refused,
            &mut l.max_simultaneous_locks,
        ] {
            *v = r.get_u64()?;
        }
        self.now = r.get_u64()?;
        self.rebuild_snoop_index();
        Ok(())
    }

    /// Reads a word from shared memory itself, ignoring caches — exposes
    /// the "is memory current?" side of the coherence invariants to tests.
    pub fn memory_word(&self, addr: Addr) -> Word {
        self.memory.read(addr)
    }

    /// The lock-directory view of `addr` across all PEs: the holding PE
    /// and its registered waiters, if any PE holds a lock on that word
    /// (testing hook for lock-invariant checks).
    pub fn lock_holder(&self, addr: Addr) -> Option<(PeId, Vec<PeId>)> {
        self.lockdirs
            .iter()
            .enumerate()
            .find_map(|(i, dir)| dir.holds(addr).then(|| (PeId(i as u32), dir.waiters(addr))))
    }

    /// The cache-side view of `addr`'s block in `pe`'s cache: its protocol
    /// state and data words, or `None` when not resident (testing hook for
    /// model checking — excludes replacement bookkeeping on purpose, so two
    /// systems with equal views are behaviorally equivalent on one block).
    pub fn cache_view(&self, pe: PeId, addr: Addr) -> Option<(BlockState, Vec<Word>)> {
        let cache = &self.caches[pe.index()];
        Some((cache.state_of(addr), cache.block(addr)?.to_vec()))
    }

    /// The lock-directory view of `addr` in `pe`'s own directory: its entry
    /// state and registered waiters, or `None` when absent (testing hook).
    pub fn lock_view(&self, pe: PeId, addr: Addr) -> Option<(LockState, Vec<PeId>)> {
        let dir = &self.lockdirs[pe.index()];
        let state = dir.state_of(addr)?;
        Some((state, dir.waiters(addr)))
    }

    /// Attaches an observer receiving a [`pim_obs::Observer::state_transition`]
    /// event for every cache-block state change in any PE's cache. With no
    /// observer attached (the default) the protocol does no extra work.
    pub fn set_observer(&mut self, observer: Box<dyn Observer>) {
        self.observer = Some(observer);
    }

    /// Sets the simulated cycle stamped onto observer events emitted by
    /// the protocol. The driving engine calls this before each
    /// [`PimSystem::access`] with the operation's issue cycle.
    #[inline]
    pub fn set_now(&mut self, cycle: u64) {
        self.now = cycle;
    }

    /// The configured area map.
    #[inline]
    pub fn area_map(&self) -> &AreaMap {
        &self.config.area_map
    }

    /// The configuration the system was built with.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Accumulated bus statistics.
    pub fn bus_stats(&self) -> &BusStats {
        &self.bus
    }

    /// Accumulated reference statistics (by area and effective operation).
    pub fn ref_stats(&self) -> &RefStats {
        &self.refs
    }

    /// Accumulated hit/miss and purge statistics.
    pub fn access_stats(&self) -> &AccessStats {
        &self.access_stats
    }

    /// Accumulated lock-protocol statistics (Table 5).
    pub fn lock_stats(&self) -> &LockStats {
        &self.lock_stats
    }

    /// Initializes memory without touching caches or statistics — used to
    /// load program text and boot images before measurement starts.
    pub fn poke(&mut self, addr: Addr, value: Word) {
        debug_assert!(
            !self.caches.iter().any(|c| c.contains(addr)),
            "poke under a cached block"
        );
        self.memory.write(addr, value);
    }

    /// Reads memory bypassing caches and statistics — for result
    /// inspection after a run. Prefers a cached copy (the freshest data)
    /// over memory.
    pub fn peek(&self, addr: Addr) -> Word {
        let block = self.config.geometry.block_number(addr);
        pes_in(self.snoop.holders(block))
            .find_map(|pe| self.caches[pe.index()].snapshot_word(addr))
            .unwrap_or_else(|| self.memory.read(addr))
    }

    /// Performs one memory operation for `pe`.
    ///
    /// `data` must be `Some` for `W`, `DW` and `UW`, and is ignored
    /// otherwise.
    ///
    /// # Errors
    ///
    /// Returns a [`ProtocolError`] on lock misuse (double lock, unlock of
    /// an unheld word, lock-directory overflow) — always a bug in the
    /// issuing abstract machine.
    ///
    /// # Panics
    ///
    /// Panics if `pe` is out of range, `addr` is outside the area map, or
    /// `data` is `None` for a write operation.
    ///
    /// This is the per-reference dispatcher, inlined into the driving
    /// engine: the area lookup, the opt-mask downgrade, the hit arms of
    /// `R`/`W`/`DW`/`DWD`/`ER`/`RI` and the reference count compile into
    /// the caller, so a hit's [`Outcome`] stays in registers. Every miss,
    /// upgrade, allocate, purge, lock and error arm is out of line.
    #[inline]
    pub fn access(
        &mut self,
        pe: PeId,
        op: MemOp,
        addr: Addr,
        data: Option<Word>,
    ) -> Result<Outcome, ProtocolError> {
        assert!((pe.index()) < self.caches.len(), "unknown {pe}");
        let area = self.config.area_map.area(addr);
        let eff = self.config.opt_mask.effective(area, op);

        let outcome = match eff {
            MemOp::Read => self.read(pe, addr, area),
            MemOp::Write => self.write(pe, addr, expect_data(eff, data), area),
            MemOp::DirectWrite => self.direct_write(pe, addr, expect_data(eff, data), area),
            MemOp::DirectWriteDown => {
                self.direct_write_down(pe, addr, expect_data(eff, data), area)
            }
            MemOp::ExclusiveRead => self.exclusive_read(pe, addr, area),
            MemOp::ReadPurge => self.read_purge(pe, addr, area),
            MemOp::ReadInvalidate => self.read_invalidate(pe, addr, area),
            MemOp::LockRead => self.lock_read(pe, addr, area)?,
            MemOp::WriteUnlock => self.write_unlock(pe, addr, expect_data(eff, data), area)?,
            MemOp::Unlock => self.unlock(pe, addr, area)?,
        };

        if matches!(outcome, Outcome::Done { .. }) {
            self.refs.record(Access::new(pe, eff, addr, area));
        }
        Ok(outcome)
    }

    // ------------------------------------------------------------------
    // Observer-aware cache mutation (every state change funnels through
    // these four wrappers; with no observer they are plain forwards)
    // ------------------------------------------------------------------

    fn emit_transition(&mut self, pe: PeId, addr: Addr, from: BlockState, to: BlockState) {
        if let Some(obs) = self.observer.as_deref_mut() {
            let area = self.config.area_map.area(addr);
            obs.state_transition(pe, area, from.into(), to.into(), self.now);
        }
    }

    /// The line holding `addr`'s block in `pe`'s cache, if resident.
    #[inline]
    fn lookup(&self, pe: PeId, addr: Addr) -> Option<Line> {
        self.caches[pe.index()].lookup(addr)
    }

    /// Writes `addr`'s word into `pe`'s resident `line`, moving it to
    /// `state`.
    #[inline(always)]
    fn write_line(&mut self, pe: PeId, line: Line, addr: Addr, value: Word, state: BlockState) {
        self.caches[pe.index()].write_line(line, addr, value, state);
        if line.state() != state {
            self.emit_transition(pe, addr, line.state(), state);
        }
    }

    /// Moves `pe`'s resident `line` to `state`.
    fn set_line_state(&mut self, pe: PeId, line: Line, addr: Addr, state: BlockState) {
        self.caches[pe.index()].set_line_state(line, state);
        if line.state() != state {
            self.emit_transition(pe, addr, line.state(), state);
        }
    }

    /// Writes a word the protocol has just made resident in `pe`'s cache
    /// (by a fill), moving its block to `state`.
    fn write_filled(&mut self, pe: PeId, addr: Addr, value: Word, state: BlockState) {
        let Some(line) = self.lookup(pe, addr) else {
            unreachable!("word {addr:#x} filled into PE{}", pe.0)
        };
        self.write_line(pe, line, addr, value, state);
    }

    /// Reads a word the protocol has just verified (or made) resident
    /// in `pe`'s cache. Residency is an invariant at every call site,
    /// so a miss here is a protocol bug, not a recoverable condition.
    fn read_resident(&mut self, pe: PeId, addr: Addr) -> Word {
        let Some(value) = self.caches[pe.index()].read(addr) else {
            unreachable!("word {addr:#x} verified resident on PE{}", pe.0)
        };
        value
    }

    fn cache_set_state(&mut self, pe: PeId, addr: Addr, state: BlockState) {
        if let Some(line) = self.lookup(pe, addr) {
            self.set_line_state(pe, line, addr, state);
        }
    }

    fn cache_invalidate(&mut self, pe: PeId, addr: Addr) -> Option<BlockState> {
        let line = self.lookup(pe, addr)?;
        Some(self.drop_line(pe, line, addr))
    }

    /// Invalidates `pe`'s resident `line` (holding `addr`'s block),
    /// returning its state before.
    fn drop_line(&mut self, pe: PeId, line: Line, addr: Addr) -> BlockState {
        let dropped = self.caches[pe.index()].invalidate_line(line);
        let block = self.config.geometry.block_number(addr);
        self.snoop.remove_holder(block, pe);
        self.emit_transition(pe, addr, dropped, BlockState::Inv);
        dropped
    }

    /// Installs `data` as `base`'s block in `pe`'s cache. A dirty
    /// victim's words are left in `victim_buf` for the swap-out.
    fn cache_install(
        &mut self,
        pe: PeId,
        base: Addr,
        data: &[Word],
        state: BlockState,
    ) -> Option<Eviction> {
        let evicted = self.caches[pe.index()].install(base, data, state, &mut self.victim_buf);
        let geom = self.config.geometry;
        if let Some(ev) = evicted {
            self.snoop.remove_holder(geom.block_number(ev.base), pe);
            self.emit_transition(pe, ev.base, ev.state, BlockState::Inv);
        }
        self.snoop.add_holder(geom.block_number(base), pe);
        self.emit_transition(pe, base, BlockState::Inv, state);
        evicted
    }

    // ------------------------------------------------------------------
    // Snooping helpers
    // ------------------------------------------------------------------

    /// A remote lock directory holding a word inside `base`'s block, if
    /// any: `(holder, locked word)`.
    fn lock_conflict(&self, requester: PeId, base: Addr) -> Option<(PeId, Addr)> {
        let geom = &self.config.geometry;
        let lockers = self.snoop.lockers(geom.block_number(base)) & !requester.bit();
        pes_in(lockers).find_map(|pe| {
            self.lockdirs[pe.index()]
                .locked_word_in_block(base, geom.block_words)
                .map(|w| (pe, w))
        })
    }

    /// The other PEs whose caches hold `addr`'s block (see
    /// [`SnoopIndex`]).
    fn remote_holders(&self, requester: PeId, addr: Addr) -> u64 {
        let block = self.config.geometry.block_number(addr);
        self.snoop.holders(block) & !requester.bit()
    }

    /// Registers `requester` as a busy-waiter on `holder`'s lock and
    /// charges the refused bus request.
    fn refuse(
        &mut self,
        requester: PeId,
        holder: PeId,
        locked_word: Addr,
        area: StorageArea,
    ) -> Outcome {
        self.lockdirs[holder.index()].register_waiter(locked_word, requester);
        self.lock_stats.lr_refused += 1;
        self.bus.record_refusal(area);
        Outcome::LockBusy { holder }
    }

    /// The PE that will supply a block cache-to-cache: prefers the dirty
    /// owner, falls back to the lowest-numbered valid holder.
    fn find_supplier(&self, requester: PeId, base: Addr) -> Option<(PeId, BlockState)> {
        let mut clean = None;
        for pe in pes_in(self.remote_holders(requester, base)) {
            let state = self.caches[pe.index()].state_of(base);
            if state.is_dirty() {
                return Some((pe, state));
            }
            if state.is_valid() && clean.is_none() {
                clean = Some((pe, state));
            }
        }
        clean
    }

    /// Whether any other cache holds `base` (the `DW` contract check).
    fn held_remotely(&self, requester: PeId, base: Addr) -> bool {
        pes_in(self.remote_holders(requester, base))
            .any(|pe| self.caches[pe.index()].contains(base))
    }

    /// Invalidates every other cache's copy of `base`'s block, in PE
    /// order (the `I` broadcast, or the invalidating half of `FI`).
    /// Returns whether a dirty copy was dropped.
    fn invalidate_remote(&mut self, requester: PeId, base: Addr) -> bool {
        let mut dropped_dirty = false;
        for pe in pes_in(self.remote_holders(requester, base)) {
            if let Some(state) = self.cache_invalidate(pe, base) {
                dropped_dirty |= state.is_dirty();
            }
        }
        dropped_dirty
    }

    // ------------------------------------------------------------------
    // The fill engine (F / FI bus transactions)
    // ------------------------------------------------------------------

    /// Acquires the block containing `addr` for `pe` via the bus.
    ///
    /// `exclusive` selects `FI` (invalidate all other copies, no memory
    /// copy-back of dirty data — the `SM`-state optimization) over `F`
    /// (supplier keeps a shared copy). `install` controls whether the
    /// block enters `pe`'s cache (false for the `RP` bypass). `with_lock`
    /// adds an `LK` broadcast riding on the command.
    fn fill(
        &mut self,
        pe: PeId,
        addr: Addr,
        exclusive: bool,
        install: bool,
        with_lock: bool,
        area: StorageArea,
    ) -> FillOutcome {
        let geom = self.config.geometry;
        let base = geom.block_base(addr);
        let bw = geom.block_words;

        if let Some((holder, word)) = self.lock_conflict(pe, base) {
            return FillOutcome::Refused {
                holder: self.refuse_holder(pe, holder, word, area),
            };
        }

        self.bus.record_cmd(if exclusive {
            BusCommand::FetchInvalidate
        } else {
            BusCommand::Fetch
        });
        if with_lock {
            self.bus.record_cmd(BusCommand::Lock);
        }

        let supplier = self.find_supplier(pe, base);
        let mut data = std::mem::take(&mut self.fill_buf);
        let (state, source) = match supplier {
            Some((sup, sup_state)) => {
                let dirty = sup_state.is_dirty();
                let Some(block) = self.caches[sup.index()].block(base) else {
                    unreachable!("supplier had the block")
                };
                data.copy_from_slice(block);
                if exclusive {
                    // FI: every other copy dies; dirty data migrates to the
                    // requester without updating memory.
                    self.invalidate_remote(pe, base);
                } else {
                    // F: the supplier keeps the data; a dirty supplier
                    // becomes the SM owner, a clean exclusive one drops
                    // to S. Memory is not updated (unlike Illinois).
                    let new_state = if dirty {
                        BlockState::Sm
                    } else {
                        BlockState::Shared
                    };
                    self.cache_set_state(sup, base, new_state);
                }
                let state = match (exclusive, dirty) {
                    (true, true) => BlockState::Em,
                    (true, false) => BlockState::Ec,
                    (false, _) => BlockState::Shared,
                };
                (state, FillSource::Cache(sup, dirty))
            }
            None => {
                self.memory.read_block(base, &mut data);
                (BlockState::Ec, FillSource::Memory)
            }
        };

        let mut swap_out = false;
        if install {
            if let Some(ev) = self.cache_install(pe, base, &data, state) {
                if ev.state.is_dirty() {
                    self.memory.write_block(ev.base, &self.victim_buf);
                    swap_out = true;
                }
            }
        }
        self.fill_buf = data;

        let tx = match source {
            FillSource::Cache(..) => Transaction::CacheToCache { swap_out },
            FillSource::Memory => Transaction::MemoryFetch { swap_out },
        };
        self.bus.record_tx(tx, area, &self.config.timing, bw);
        let cycles = self.config.timing.cycles(tx, bw);

        FillOutcome::Filled(Filled { cycles, source })
    }

    /// Like [`PimSystem::refuse`] but usable from `fill` (returns just the
    /// holder id for plumbing through [`FillOutcome`]).
    fn refuse_holder(
        &mut self,
        requester: PeId,
        holder: PeId,
        locked_word: Addr,
        area: StorageArea,
    ) -> PeId {
        match self.refuse(requester, holder, locked_word, area) {
            Outcome::LockBusy { holder } => holder,
            _ => unreachable!(),
        }
    }

    /// Invalidates every other copy of `addr`'s block via an `I` broadcast
    /// (a write/lock upgrade on a shared block). Returns `Err(holder)` on
    /// an `LH` refusal, otherwise the bus cycles consumed and whether a
    /// *dirty* remote copy was dropped — in that case the upgrader's copy
    /// (bit-identical, by the coherence invariant) inherits the write-back
    /// obligation and must end in `EM`, never `EC`.
    fn upgrade(
        &mut self,
        pe: PeId,
        addr: Addr,
        with_lock: bool,
        area: StorageArea,
    ) -> Result<(u64, bool), PeId> {
        let geom = self.config.geometry;
        let base = geom.block_base(addr);
        if let Some((holder, word)) = self.lock_conflict(pe, base) {
            return Err(self.refuse_holder(pe, holder, word, area));
        }
        self.bus.record_cmd(BusCommand::Invalidate);
        if with_lock {
            self.bus.record_cmd(BusCommand::Lock);
        }
        let dropped_dirty = self.invalidate_remote(pe, base);
        self.bus.record_tx(
            Transaction::Invalidate,
            area,
            &self.config.timing,
            geom.block_words,
        );
        Ok((
            self.config
                .timing
                .cycles(Transaction::Invalidate, geom.block_words),
            dropped_dirty,
        ))
    }

    // ------------------------------------------------------------------
    // Memory operations (Section 3.2)
    // ------------------------------------------------------------------

    #[inline]
    fn read(&mut self, pe: PeId, addr: Addr, area: StorageArea) -> Outcome {
        let line = self.lookup(pe, addr);
        self.read_at(pe, addr, area, line)
    }

    /// `R` with `addr`'s line already resolved.
    #[inline(always)]
    fn read_at(&mut self, pe: PeId, addr: Addr, area: StorageArea, line: Option<Line>) -> Outcome {
        self.access_stats.lookups += 1;
        let Some(line) = line else {
            return self.read_miss(pe, addr, area);
        };
        self.access_stats.hits += 1;
        let value = self.caches[pe.index()].read_line(line, addr);
        done(value, 0, true)
    }

    /// The fill half of `R`, kept out of line so the hit path stays small.
    #[inline(never)]
    fn read_miss(&mut self, pe: PeId, addr: Addr, area: StorageArea) -> Outcome {
        match self.fill(pe, addr, false, true, false, area) {
            FillOutcome::Refused { holder } => Outcome::LockBusy { holder },
            FillOutcome::Filled(f) => {
                let value = self.read_resident(pe, addr);
                done(value, f.cycles, false)
            }
        }
    }

    #[inline]
    fn write(&mut self, pe: PeId, addr: Addr, value: Word, area: StorageArea) -> Outcome {
        let line = self.lookup(pe, addr);
        self.write_at(pe, addr, value, area, line)
    }

    /// `W` with `addr`'s line already resolved: exclusive states write
    /// locally, shared ones upgrade first, a miss fills exclusively.
    #[inline(always)]
    fn write_at(
        &mut self,
        pe: PeId,
        addr: Addr,
        value: Word,
        area: StorageArea,
        line: Option<Line>,
    ) -> Outcome {
        self.access_stats.lookups += 1;
        match line {
            Some(line) if line.state().is_exclusive() => {
                self.access_stats.hits += 1;
                self.write_line(pe, line, addr, value, BlockState::Em);
                done(value, 0, true)
            }
            Some(line) => {
                self.access_stats.hits += 1;
                self.write_upgrade(pe, line, addr, value, area)
            }
            None => self.write_miss(pe, addr, value, area),
        }
    }

    /// The fill half of `W`, kept out of line so the hit path stays small.
    #[inline(never)]
    fn write_miss(&mut self, pe: PeId, addr: Addr, value: Word, area: StorageArea) -> Outcome {
        match self.fill(pe, addr, true, true, false, area) {
            FillOutcome::Refused { holder } => Outcome::LockBusy { holder },
            FillOutcome::Filled(f) => {
                self.write_filled(pe, addr, value, BlockState::Em);
                done(value, f.cycles, false)
            }
        }
    }

    /// A `W` hit on an `SM` or `S` line: invalidate the other copies,
    /// then write.
    #[inline(never)]
    fn write_upgrade(
        &mut self,
        pe: PeId,
        line: Line,
        addr: Addr,
        value: Word,
        area: StorageArea,
    ) -> Outcome {
        match self.upgrade(pe, addr, false, area) {
            Err(holder) => Outcome::LockBusy { holder },
            Ok((cycles, _)) => {
                self.write_line(pe, line, addr, value, BlockState::Em);
                done(value, cycles, true)
            }
        }
    }

    /// `DW` (Section 3.2 (1)): on a block-boundary miss with no remote
    /// copies, allocate without fetching; otherwise behave as `W`.
    /// Optimizes *upward*-growing allocation (heap, records).
    #[inline(always)]
    fn direct_write(&mut self, pe: PeId, addr: Addr, value: Word, area: StorageArea) -> Outcome {
        let line = self.lookup(pe, addr);
        if line.is_some() || !self.config.geometry.is_block_boundary(addr) {
            // Case (ii): not a boundary (or already resident): plain write.
            return self.write_at(pe, addr, value, area, line);
        }
        self.direct_allocate(pe, addr, value, area)
    }

    /// `DWD`: the downward-growing mirror of `DW` — the paper notes that
    /// depending on the block-boundary definition `DW` serves one stack
    /// direction only, and "to optimize both, two commands are necessary".
    /// A downward stack touches the *last* word of each new block first.
    #[inline(always)]
    fn direct_write_down(
        &mut self,
        pe: PeId,
        addr: Addr,
        value: Word,
        area: StorageArea,
    ) -> Outcome {
        let line = self.lookup(pe, addr);
        if line.is_some() || !self.config.geometry.is_last_word(addr) {
            return self.write_at(pe, addr, value, area, line);
        }
        self.direct_allocate(pe, addr, value, area)
    }

    /// The shared allocate-without-fetch path of `DW`/`DWD`, for a block
    /// not resident in `pe`'s cache.
    #[inline(never)]
    fn direct_allocate(&mut self, pe: PeId, addr: Addr, value: Word, area: StorageArea) -> Outcome {
        let geom = self.config.geometry;
        if self.held_remotely(pe, addr) {
            // The software contract ("remote caches do not have a
            // corresponding cache block") is violated; fall back to W and
            // count it so workloads can be audited.
            self.access_stats.dw_contract_violations += 1;
            return self.write_at(pe, addr, value, area, None);
        }

        self.access_stats.lookups += 1;
        self.access_stats.dw_allocations += 1;
        let base = geom.block_base(addr);
        let mut data = std::mem::take(&mut self.fill_buf);
        data.fill(DW_POISON);
        data[(addr - base) as usize] = value;
        let evicted = self.cache_install(pe, base, &data, BlockState::Em);
        self.fill_buf = data;
        let mut cycles = 0;
        if let Some(ev) = evicted {
            if ev.state.is_dirty() {
                // The only swap-out-only bus pattern in the protocol.
                self.memory.write_block(ev.base, &self.victim_buf);
                self.bus.record_tx(
                    Transaction::SwapOutOnly,
                    area,
                    &self.config.timing,
                    geom.block_words,
                );
                cycles = self
                    .config
                    .timing
                    .cycles(Transaction::SwapOutOnly, geom.block_words);
            }
        }
        done(value, cycles, false)
    }

    /// `ER` (Section 3.2 (2)): read-invalidate on a remote miss that is
    /// not the last word; read-purge on a hit to the last word; plain read
    /// otherwise.
    #[inline(always)]
    fn exclusive_read(&mut self, pe: PeId, addr: Addr, area: StorageArea) -> Outcome {
        let Some(line) = self.lookup(pe, addr) else {
            return self.exclusive_read_miss(pe, addr, area);
        };
        if self.config.geometry.is_last_word(addr) {
            // Case (ii): read, then forcibly purge the local block —
            // dead data is discarded without a swap-out.
            return self.read_and_purge(pe, addr, line);
        }
        self.read_at(pe, addr, area, Some(line))
    }

    /// The miss half of `ER`.
    #[inline(never)]
    fn exclusive_read_miss(&mut self, pe: PeId, addr: Addr, area: StorageArea) -> Outcome {
        if self.find_supplier(pe, addr).is_some() && !self.config.geometry.is_last_word(addr) {
            // Case (i): fetch with invalidation of the supplier (RI).
            return self.read_invalidate_miss(pe, addr, area);
        }
        // Case (iii): automatic downgrade to R.
        self.read_at(pe, addr, area, None)
    }

    /// `RP` (Section 3.2 (3)): read and forcibly purge; on a miss the
    /// supplier is invalidated and the transferred block bypasses the
    /// local cache entirely (it would be purged immediately anyway).
    #[inline(never)]
    fn read_purge(&mut self, pe: PeId, addr: Addr, area: StorageArea) -> Outcome {
        if let Some(line) = self.lookup(pe, addr) {
            return self.read_and_purge(pe, addr, line);
        }
        self.access_stats.lookups += 1;
        match self.fill(pe, addr, true, false, false, area) {
            FillOutcome::Refused { holder } => Outcome::LockBusy { holder },
            FillOutcome::Filled(f) => {
                let offset = (addr % self.config.geometry.block_words) as usize;
                self.access_stats.purges += 1;
                if matches!(f.source, FillSource::Cache(_, true)) {
                    self.access_stats.dirty_purges += 1;
                }
                done(self.fill_buf[offset], f.cycles, false)
            }
        }
    }

    /// The bus-free purging hit of `ER` and `RP`: read `addr` from `pe`'s
    /// resident `line`, then drop the line without a swap-out. Out of
    /// line: the purge updates the snoop index.
    #[inline(never)]
    fn read_and_purge(&mut self, pe: PeId, addr: Addr, line: Line) -> Outcome {
        self.access_stats.lookups += 1;
        self.access_stats.hits += 1;
        let value = self.caches[pe.index()].read_line(line, addr);
        let state = self.drop_line(pe, line, addr);
        self.access_stats.purges += 1;
        if state.is_dirty() {
            self.access_stats.dirty_purges += 1;
        }
        done(value, 0, true)
    }

    /// `RI` (Section 3.2 (4)): read with intent to rewrite — a miss
    /// fetches exclusively (`FI`) so the later write needs no `I`.
    #[inline(always)]
    fn read_invalidate(&mut self, pe: PeId, addr: Addr, area: StorageArea) -> Outcome {
        let line = self.lookup(pe, addr);
        if line.is_some() {
            return self.read_at(pe, addr, area, line);
        }
        self.read_invalidate_miss(pe, addr, area)
    }

    /// The exclusive fill (`FI`) of an `RI` miss, and of an `ER` miss
    /// with a remote supplier.
    #[inline(never)]
    fn read_invalidate_miss(&mut self, pe: PeId, addr: Addr, area: StorageArea) -> Outcome {
        self.access_stats.lookups += 1;
        match self.fill(pe, addr, true, true, false, area) {
            FillOutcome::Refused { holder } => Outcome::LockBusy { holder },
            FillOutcome::Filled(f) => {
                let value = self.read_resident(pe, addr);
                done(value, f.cycles, false)
            }
        }
    }

    // ------------------------------------------------------------------
    // Lock operations (Sections 3.1, 3.3)
    // ------------------------------------------------------------------

    /// `LR`: lock a word and read it. Free when the block is already held
    /// exclusively; otherwise `LK` rides on the `I`/`FI` that acquires
    /// exclusivity.
    #[inline(never)]
    fn lock_read(
        &mut self,
        pe: PeId,
        addr: Addr,
        area: StorageArea,
    ) -> Result<Outcome, ProtocolError> {
        if self.lockdirs[pe.index()].holds(addr) {
            return Err(ProtocolError::AlreadyLocked { addr });
        }
        let base = self.config.geometry.block_base(addr);
        if let Some((holder, word)) = self.lock_conflict(pe, base) {
            return Ok(self.refuse(pe, holder, word, area));
        }

        self.access_stats.lookups += 1;
        let outcome = match self.lookup(pe, addr) {
            Some(line) if line.state().is_exclusive() => {
                // The bus-free case the hardware lock exists for: no other
                // cache can hold the block, so registering locally is safe.
                self.lock_word(pe, addr)?;
                self.lock_stats.lr_total += 1;
                self.lock_stats.lr_hits += 1;
                self.lock_stats.lr_hits_exclusive += 1;
                self.access_stats.hits += 1;
                let value = self.caches[pe.index()].read_line(line, addr);
                done(value, 0, true)
            }
            Some(line) => {
                let (cycles, dropped_dirty) = match self.upgrade(pe, addr, true, area) {
                    Err(holder) => return Ok(Outcome::LockBusy { holder }),
                    Ok(c) => c,
                };
                // If we were SM, or we dropped the SM owner's copy, the
                // data differs from memory: keep the dirty obligation.
                let upgraded = if line.state() == BlockState::Sm || dropped_dirty {
                    BlockState::Em
                } else {
                    BlockState::Ec
                };
                self.set_line_state(pe, line, addr, upgraded);
                self.lock_word(pe, addr)?;
                self.lock_stats.lr_total += 1;
                self.lock_stats.lr_hits += 1;
                self.access_stats.hits += 1;
                let value = self.caches[pe.index()].read_line(line, addr);
                done(value, cycles, true)
            }
            None => match self.fill(pe, addr, true, true, true, area) {
                FillOutcome::Refused { holder } => return Ok(Outcome::LockBusy { holder }),
                FillOutcome::Filled(f) => {
                    self.lock_word(pe, addr)?;
                    self.lock_stats.lr_total += 1;
                    let value = self.read_resident(pe, addr);
                    done(value, f.cycles, false)
                }
            },
        };
        Ok(outcome)
    }

    /// `UW`: write the locked word, then unlock it. The write is always
    /// exclusive (the lock directory kept other PEs away), except after a
    /// self-eviction, which refetches from memory.
    #[inline(never)]
    fn write_unlock(
        &mut self,
        pe: PeId,
        addr: Addr,
        value: Word,
        area: StorageArea,
    ) -> Result<Outcome, ProtocolError> {
        if !self.lockdirs[pe.index()].holds(addr) {
            return Err(ProtocolError::NotLocked { addr });
        }
        let write_outcome = self.write(pe, addr, value, area);
        let (mut cycles, hit) = match write_outcome {
            Outcome::Done {
                bus_cycles, hit, ..
            } => (bus_cycles, hit),
            Outcome::LockBusy { .. } => {
                unreachable!("a held lock keeps other PEs off the block")
            }
        };
        let (ul_cycles, woken) = self.release(pe, addr, area)?;
        cycles += ul_cycles;
        Ok(Outcome::Done {
            value,
            bus_cycles: cycles,
            hit,
            woken,
        })
    }

    /// `U`: unlock without writing.
    #[inline(never)]
    fn unlock(
        &mut self,
        pe: PeId,
        addr: Addr,
        area: StorageArea,
    ) -> Result<Outcome, ProtocolError> {
        if !self.lockdirs[pe.index()].holds(addr) {
            return Err(ProtocolError::NotLocked { addr });
        }
        let (cycles, woken) = self.release(pe, addr, area)?;
        Ok(Outcome::Done {
            value: 0,
            bus_cycles: cycles,
            hit: true,
            woken,
        })
    }

    /// Registers `addr` in `pe`'s lock directory and the snoop index,
    /// and records the lock-directory occupancy high-water mark.
    fn lock_word(&mut self, pe: PeId, addr: Addr) -> Result<(), ProtocolError> {
        let dir = &mut self.lockdirs[pe.index()];
        dir.lock(addr)?;
        let depth = dir.len() as u64;
        self.lock_stats.max_simultaneous_locks = self.lock_stats.max_simultaneous_locks.max(depth);
        let block = self.config.geometry.block_number(addr);
        self.snoop.add_locker(block, pe);
        Ok(())
    }

    /// Removes the lock entry; broadcasts `UL` only when someone waits.
    fn release(
        &mut self,
        pe: PeId,
        addr: Addr,
        area: StorageArea,
    ) -> Result<(u64, PeSet), ProtocolError> {
        let geom = self.config.geometry;
        let dir = &mut self.lockdirs[pe.index()];
        let woken = dir.unlock(addr)?;
        if dir
            .locked_word_in_block(geom.block_base(addr), geom.block_words)
            .is_none()
        {
            self.snoop.remove_locker(geom.block_number(addr), pe);
        }
        self.lock_stats.unlock_total += 1;
        if woken.is_empty() {
            self.lock_stats.unlock_no_waiter += 1;
            return Ok((0, woken));
        }
        self.bus.record_cmd(BusCommand::Unlock);
        self.bus.record_tx(
            Transaction::Unlock,
            area,
            &self.config.timing,
            self.config.geometry.block_words,
        );
        let cycles = self
            .config
            .timing
            .cycles(Transaction::Unlock, self.config.geometry.block_words);
        Ok((cycles, woken))
    }

    // ------------------------------------------------------------------
    // Invariant checking (tests, property tests)
    // ------------------------------------------------------------------

    /// Verifies the coherence invariants across all caches:
    ///
    /// 1. an exclusive (`EM`/`EC`) copy is the only valid copy;
    /// 2. at most one dirty (`EM`/`SM`) copy exists per block;
    /// 3. when a block is multiply held, every holder is `S` except at
    ///    most one `SM` owner;
    /// 4. all valid copies of a block are bit-identical;
    ///
    /// and that the snoop index agrees with them:
    ///
    /// 5. the holder mask of every block names exactly the PEs whose cache
    ///    holds a valid copy of it;
    /// 6. the lock mask of every block names exactly the PEs whose lock
    ///    directory holds a word in it.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_coherence_invariants(&self) -> Result<(), String> {
        self.check_snoop_index()?;
        let mut holders: HashMap<Addr, Vec<(PeId, BlockState)>> = HashMap::new();
        for (i, cache) in self.caches.iter().enumerate() {
            for (base, state) in cache.valid_blocks() {
                holders
                    .entry(base)
                    .or_default()
                    .push((PeId(i as u32), state));
            }
        }
        for (base, list) in holders {
            let exclusive = list.iter().filter(|(_, s)| s.is_exclusive()).count();
            let dirty = list.iter().filter(|(_, s)| s.is_dirty()).count();
            if exclusive > 0 && list.len() > 1 {
                return Err(format!(
                    "block {base:#x}: exclusive copy not alone: {list:?}"
                ));
            }
            if dirty > 1 {
                return Err(format!("block {base:#x}: {dirty} dirty copies: {list:?}"));
            }
            if list.len() > 1 {
                for (pe, s) in &list {
                    if !matches!(s, BlockState::Shared | BlockState::Sm) {
                        return Err(format!(
                            "block {base:#x}: {pe} holds {s} while shared: {list:?}"
                        ));
                    }
                }
            }
            let first = self.caches[list[0].0.index()].block(base);
            for (pe, _) in &list[1..] {
                if self.caches[pe.index()].block(base) != first {
                    return Err(format!("block {base:#x}: copies diverge"));
                }
            }
        }
        Ok(())
    }

    /// Invariants 5 and 6 of [`PimSystem::check_coherence_invariants`]:
    /// compares the snoop index with one rebuilt from scratch.
    fn check_snoop_index(&self) -> Result<(), String> {
        let mut exact = SnoopIndex::default();
        exact.rebuild(&self.caches, &self.lockdirs, &self.config.geometry);
        for (&block, &mask) in &exact.holders {
            let indexed = self.snoop.holders(block);
            if mask != indexed {
                return Err(format!(
                    "block {block:#x}: holders {mask:#x} but snoop index {indexed:#x}"
                ));
            }
        }
        for (&block, &indexed) in &self.snoop.holders {
            if exact.holders(block) == 0 {
                return Err(format!(
                    "block {block:#x}: snoop index {indexed:#x} but no holders"
                ));
            }
        }
        if exact.lockers != self.snoop.lockers {
            return Err(format!(
                "lock index {:?} disagrees with lock directories {:?}",
                self.snoop.lockers, exact.lockers
            ));
        }
        Ok(())
    }

    /// The cache state of `addr` in `pe`'s cache (testing hook).
    pub fn cache_state(&self, pe: PeId, addr: Addr) -> BlockState {
        self.caches[pe.index()].state_of(addr)
    }

    /// Whether `pe` currently holds a lock on `addr` (testing hook).
    pub fn holds_lock(&self, pe: PeId, addr: Addr) -> bool {
        self.lockdirs[pe.index()].holds(addr)
    }
}

#[inline]
fn done(value: Word, bus_cycles: u64, hit: bool) -> Outcome {
    Outcome::Done {
        value,
        bus_cycles,
        hit,
        woken: PeSet::default(),
    }
}

#[inline]
fn expect_data(op: MemOp, data: Option<Word>) -> Word {
    match data {
        Some(value) => value,
        None => missing_data(op),
    }
}

#[cold]
#[inline(never)]
fn missing_data(op: MemOp) -> ! {
    panic!("{op} requires a data word")
}
