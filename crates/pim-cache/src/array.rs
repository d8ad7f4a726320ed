//! The per-PE set-associative cache array (tags, states, data, LRU).

use crate::{BlockState, CacheGeometry};
use pim_trace::{Addr, Word};

/// Fill pattern for words of a direct-written block that were never
/// written. Reading one back indicates a violated `DW` software contract,
/// which the protocol layer surfaces as a statistic.
pub const DW_POISON: Word = 0xDEAD_BEEF_DEAD_BEEF;

/// A single PE's set-associative cache array.
///
/// The array is a passive structure: it answers lookups, installs and
/// evicts blocks, and tracks LRU — all *decisions* (what to fetch, whom to
/// invalidate, what a transaction costs) live in
/// [`crate::protocol::PimSystem`].
///
/// Storage is structure-of-arrays: line `i` (set `i / ways`, way
/// `i % ways`) has its tag, state and LRU stamp at index `i` of three
/// dense arrays, and its words at `data[i * block_words..][..block_words]`
/// of one contiguous buffer. Nothing is allocated after construction:
/// fills read from a caller's slice, dirty victims are written into a
/// caller's buffer, and [`CacheArray::block`] lends a slice.
#[derive(Debug, Clone)]
pub struct CacheArray {
    geometry: CacheGeometry,
    tags: Vec<u64>,
    states: Vec<BlockState>,
    last_used: Vec<u64>,
    data: Vec<Word>,
    clock: u64,
}

/// A resident line, as resolved by [`CacheArray::lookup`]: where the
/// block sits in the array and the state it had at lookup.
///
/// Resolving the line once lets an operation read, write, re-state or
/// purge it without searching the set again. A line stays valid until
/// its own array installs a block or changes that line's state through
/// another path; the protocol only holds one across operations on
/// *other* PEs' caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Line {
    index: usize,
    state: BlockState,
}

impl Line {
    /// The line's state when it was looked up.
    #[inline]
    pub(crate) fn state(self) -> BlockState {
        self.state
    }
}

/// The valid line a fill displaced, as returned by
/// [`CacheArray::install`]. A dirty victim's words are not carried here:
/// `install` writes them into the caller's victim buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// Base address of the evicted block.
    pub base: Addr,
    /// Its state at eviction (dirty states require a swap-out).
    pub state: BlockState,
}

impl CacheArray {
    /// Creates an empty (all-invalid) cache of the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry fails [`CacheGeometry::validate`].
    pub fn new(geometry: CacheGeometry) -> CacheArray {
        if let Err(e) = geometry.validate() {
            panic!("bad cache geometry: {e}");
        }
        let lines = (geometry.sets * geometry.ways) as usize;
        CacheArray {
            geometry,
            tags: vec![0; lines],
            states: vec![BlockState::Inv; lines],
            last_used: vec![0; lines],
            data: vec![0; lines * geometry.block_words as usize],
            clock: 0,
        }
    }

    /// The cache's geometry.
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geometry
    }

    #[inline]
    fn set_range(&self, set: u64) -> std::ops::Range<usize> {
        let start = (set * self.geometry.ways) as usize;
        start..start + self.geometry.ways as usize
    }

    #[inline]
    fn find(&self, addr: Addr) -> Option<usize> {
        let (tag, set, _) = self.geometry.decompose(addr);
        self.set_range(set)
            .find(|&i| self.tags[i] == tag && self.states[i].is_valid())
    }

    /// Index into `data` of word `offset` of line `line`.
    #[inline]
    fn word_index(&self, line: usize, offset: u64) -> usize {
        line * self.geometry.block_words as usize + offset as usize
    }

    /// Index into `data` of `addr`'s word in line `line`.
    #[inline]
    fn addr_index(&self, line: usize, addr: Addr) -> usize {
        self.word_index(line, addr & (self.geometry.block_words - 1))
    }

    /// The resident line holding `addr`'s block, if any: one set search
    /// that the `*_line` methods below then reuse.
    #[inline]
    pub(crate) fn lookup(&self, addr: Addr) -> Option<Line> {
        self.find(addr).map(|index| Line {
            index,
            state: self.states[index],
        })
    }

    /// Reads `addr`'s word from `line`, bumping LRU.
    #[inline(always)]
    pub(crate) fn read_line(&mut self, line: Line, addr: Addr) -> Word {
        let i = line.index;
        self.touch(i);
        self.data[self.addr_index(i, addr)]
    }

    /// Writes `addr`'s word in `line`, bumping LRU and moving the line to
    /// `new_state` (the protocol decides the state).
    #[inline(always)]
    pub(crate) fn write_line(
        &mut self,
        line: Line,
        addr: Addr,
        value: Word,
        new_state: BlockState,
    ) {
        let i = line.index;
        let at = self.addr_index(i, addr);
        self.touch(i);
        self.data[at] = value;
        self.states[i] = new_state;
    }

    /// Sets `line`'s state without touching data or LRU (snoop-induced
    /// transitions).
    #[inline]
    pub(crate) fn set_line_state(&mut self, line: Line, state: BlockState) {
        self.states[line.index] = state;
    }

    /// Invalidates `line`, returning its state before.
    #[inline]
    pub(crate) fn invalidate_line(&mut self, line: Line) -> BlockState {
        let i = line.index;
        let state = self.states[i];
        self.states[i] = BlockState::Inv;
        state
    }

    fn line_words(&self, line: usize) -> std::ops::Range<usize> {
        let start = self.word_index(line, 0);
        start..start + self.geometry.block_words as usize
    }

    /// The state of the block containing `addr` ([`BlockState::Inv`] if
    /// absent).
    #[inline]
    pub fn state_of(&self, addr: Addr) -> BlockState {
        self.find(addr).map_or(BlockState::Inv, |i| self.states[i])
    }

    /// Whether the block containing `addr` is resident.
    #[inline]
    pub fn contains(&self, addr: Addr) -> bool {
        self.find(addr).is_some()
    }

    /// Reads the word at `addr` if resident, bumping LRU.
    #[inline]
    pub fn read(&mut self, addr: Addr) -> Option<Word> {
        let line = self.lookup(addr)?;
        Some(self.read_line(line, addr))
    }

    /// Writes the word at `addr` if resident, bumping LRU and moving the
    /// state to `new_state` (the protocol decides the state).
    #[inline]
    pub fn write(&mut self, addr: Addr, value: Word, new_state: BlockState) -> bool {
        let Some(line) = self.lookup(addr) else {
            return false;
        };
        self.write_line(line, addr, value, new_state);
        true
    }

    /// Sets the state of a resident block without touching data or LRU
    /// (snoop-induced transitions).
    pub fn set_state(&mut self, addr: Addr, state: BlockState) -> bool {
        match self.lookup(addr) {
            Some(line) => {
                self.set_line_state(line, state);
                true
            }
            None => false,
        }
    }

    /// Invalidates the block containing `addr`, returning its old state.
    /// A caller that needs the data (cache-to-cache supply) reads it with
    /// [`CacheArray::block`] first.
    pub fn invalidate(&mut self, addr: Addr) -> Option<BlockState> {
        let line = self.lookup(addr)?;
        Some(self.invalidate_line(line))
    }

    /// A resident block's words, without changing anything
    /// (cache-to-cache supply, inspection).
    pub fn block(&self, addr: Addr) -> Option<&[Word]> {
        let i = self.find(addr)?;
        Some(&self.data[self.line_words(i)])
    }

    /// Reads one resident word without touching LRU state (inspection).
    pub fn snapshot_word(&self, addr: Addr) -> Option<Word> {
        let i = self.find(addr)?;
        let (_, _, offset) = self.geometry.decompose(addr);
        Some(self.data[self.word_index(i, offset)])
    }

    /// Installs a block (fetched or direct-written) over the LRU victim of
    /// its set. Returns the victim if one had to be displaced; a dirty
    /// victim's words are first copied into `victim_data`, which the
    /// caller then swaps out.
    ///
    /// # Panics
    ///
    /// Panics if `data` or `victim_data` is not exactly one block, or the
    /// block is already resident (the protocol must not double-install).
    pub fn install(
        &mut self,
        base: Addr,
        data: &[Word],
        state: BlockState,
        victim_data: &mut [Word],
    ) -> Option<Eviction> {
        let bw = self.geometry.block_words;
        assert_eq!(data.len() as u64, bw, "bad block");
        assert_eq!(victim_data.len() as u64, bw, "bad victim buffer");
        assert!(self.geometry.is_block_boundary(base), "unaligned block");
        assert!(
            self.find(base).is_none(),
            "block {base:#x} already resident"
        );

        let (tag, set, _) = self.geometry.decompose(base);
        let victim = self.victim(set);
        let words = self.line_words(victim);
        let old = self.states[victim];
        let evicted = old.is_valid().then(|| {
            if old.is_dirty() {
                victim_data.copy_from_slice(&self.data[words.clone()]);
            }
            Eviction {
                base: self.geometry.recompose(self.tags[victim], set),
                state: old,
            }
        });

        self.tags[victim] = tag;
        self.states[victim] = state;
        self.data[words].copy_from_slice(data);
        self.touch(victim);
        evicted
    }

    /// The way a fill of `set` displaces: an invalid way if there is one,
    /// otherwise the least recently used.
    fn victim(&self, set: u64) -> usize {
        let Some(victim) = self
            .set_range(set)
            .min_by_key(|&i| (self.states[i].is_valid(), self.last_used[i]))
        else {
            unreachable!("a set always has at least one way")
        };
        victim
    }

    /// Whether installing a block for `addr` would displace a valid line,
    /// and if so which one — without performing the eviction. The protocol
    /// uses this to price the swap-out into the fill transaction.
    pub fn peek_victim(&self, addr: Addr) -> Option<(Addr, BlockState)> {
        let (_, set, _) = self.geometry.decompose(addr);
        let victim = self.victim(set);
        let state = self.states[victim];
        state
            .is_valid()
            .then(|| (self.geometry.recompose(self.tags[victim], set), state))
    }

    /// Iterates over all valid blocks as `(base address, state)` — used by
    /// invariant checks and to rebuild the protocol's snoop index.
    pub fn valid_blocks(&self) -> impl Iterator<Item = (Addr, BlockState)> + '_ {
        let ways = self.geometry.ways;
        self.states
            .iter()
            .enumerate()
            .filter(|(_, state)| state.is_valid())
            .map(move |(i, &state)| {
                let set = i as u64 / ways;
                (self.geometry.recompose(self.tags[i], set), state)
            })
    }

    #[inline]
    fn touch(&mut self, i: usize) {
        self.clock += 1;
        self.last_used[i] = self.clock;
    }

    /// Checkpoint hook: serializes the LRU clock and every line.
    pub fn save_ckpt(&self, w: &mut pim_ckpt::Writer) {
        w.put_u64(self.clock);
        w.put_len(self.tags.len());
        for i in 0..self.tags.len() {
            w.put_u64(self.tags[i]);
            w.put_u8(state_tag(self.states[i]));
            w.put_u64(self.last_used[i]);
            for &word in &self.data[self.line_words(i)] {
                w.put_u64(word);
            }
        }
    }

    /// Checkpoint hook: restores an array saved by
    /// [`CacheArray::save_ckpt`] into a freshly constructed array of the
    /// same geometry.
    ///
    /// # Errors
    ///
    /// [`pim_ckpt::CkptError::Mismatch`] when the line count disagrees
    /// with this array's geometry; [`pim_ckpt::CkptError::Corrupt`] on an
    /// unknown state tag.
    pub fn restore_ckpt(
        &mut self,
        r: &mut pim_ckpt::Reader<'_>,
    ) -> Result<(), pim_ckpt::CkptError> {
        self.clock = r.get_u64()?;
        let n = r.get_len()?;
        if n != self.tags.len() {
            return Err(pim_ckpt::CkptError::Mismatch {
                detail: format!(
                    "cache array has {} lines, checkpoint has {n}",
                    self.tags.len()
                ),
            });
        }
        for i in 0..n {
            self.tags[i] = r.get_u64()?;
            self.states[i] = state_from_tag(r.get_u8()?)?;
            self.last_used[i] = r.get_u64()?;
            for at in self.line_words(i) {
                self.data[at] = r.get_u64()?;
            }
        }
        Ok(())
    }
}

/// Stable wire encoding of a [`BlockState`] for checkpoints.
fn state_tag(state: BlockState) -> u8 {
    match state {
        BlockState::Em => 0,
        BlockState::Ec => 1,
        BlockState::Sm => 2,
        BlockState::Shared => 3,
        BlockState::Inv => 4,
    }
}

fn state_from_tag(tag: u8) -> Result<BlockState, pim_ckpt::CkptError> {
    Ok(match tag {
        0 => BlockState::Em,
        1 => BlockState::Ec,
        2 => BlockState::Sm,
        3 => BlockState::Shared,
        4 => BlockState::Inv,
        other => {
            return Err(pim_ckpt::CkptError::Corrupt {
                detail: format!("unknown cache block state tag {other}"),
            })
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CacheArray {
        // 2 sets × 2 ways × 4-word blocks = 16 words.
        CacheArray::new(CacheGeometry::with_shape(16, 4, 2))
    }

    /// Installs `data` at `base`, discarding any victim's words.
    fn fill(
        c: &mut CacheArray,
        base: Addr,
        data: [Word; 4],
        state: BlockState,
    ) -> Option<Eviction> {
        c.install(base, &data, state, &mut [0; 4])
    }

    #[test]
    fn miss_then_install_then_hit() {
        let mut c = tiny();
        assert_eq!(c.read(5), None);
        assert!(fill(&mut c, 4, [10, 11, 12, 13], BlockState::Ec).is_none());
        assert_eq!(c.read(5), Some(11));
        assert_eq!(c.state_of(5), BlockState::Ec);
    }

    #[test]
    fn write_updates_data_and_state() {
        let mut c = tiny();
        fill(&mut c, 0, [0; 4], BlockState::Ec);
        assert!(c.write(2, 99, BlockState::Em));
        assert_eq!(c.read(2), Some(99));
        assert_eq!(c.state_of(2), BlockState::Em);
        assert!(!c.write(100, 1, BlockState::Em), "miss writes fail");
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = tiny();
        // Set 0 holds blocks whose (block index % 2 == 0): bases 0, 8, 16…
        fill(&mut c, 0, [1; 4], BlockState::Ec);
        fill(&mut c, 8, [2; 4], BlockState::Ec);
        c.read(0); // make base 0 most recent
        let ev = fill(&mut c, 16, [3; 4], BlockState::Ec).expect("eviction");
        assert_eq!(ev.base, 8);
        assert!(c.contains(0) && c.contains(16) && !c.contains(8));
    }

    #[test]
    fn dirty_eviction_carries_data() {
        let mut c = tiny();
        fill(&mut c, 0, [7; 4], BlockState::Em);
        fill(&mut c, 8, [0; 4], BlockState::Ec);
        let mut victim = [0; 4];
        let ev = c
            .install(16, &[0; 4], BlockState::Ec, &mut victim)
            .expect("eviction");
        // base 0 was older than base 8.
        assert_eq!(ev.base, 0);
        assert_eq!(ev.state, BlockState::Em);
        assert_eq!(victim, [7; 4]);
    }

    #[test]
    fn clean_eviction_leaves_the_victim_buffer_alone() {
        let mut c = tiny();
        fill(&mut c, 0, [7; 4], BlockState::Ec);
        fill(&mut c, 8, [0; 4], BlockState::Ec);
        let mut victim = [1; 4];
        let ev = c.install(16, &[0; 4], BlockState::Ec, &mut victim);
        assert_eq!(ev.map(|e| e.state), Some(BlockState::Ec));
        assert_eq!(victim, [1; 4]);
    }

    #[test]
    fn invalidate_returns_contents() {
        let mut c = tiny();
        fill(&mut c, 4, [1, 2, 3, 4], BlockState::Sm);
        assert_eq!(c.block(6), Some(&[1, 2, 3, 4][..]));
        assert_eq!(c.invalidate(6), Some(BlockState::Sm));
        assert!(!c.contains(4));
        assert_eq!(c.block(6), None);
        assert_eq!(c.invalidate(6), None);
    }

    #[test]
    fn peek_victim_matches_install() {
        let mut c = tiny();
        assert_eq!(c.peek_victim(0), None);
        fill(&mut c, 0, [0; 4], BlockState::Em);
        fill(&mut c, 8, [0; 4], BlockState::Ec);
        assert_eq!(c.peek_victim(16), Some((0, BlockState::Em)));
    }

    #[test]
    fn valid_blocks_enumerates() {
        let mut c = tiny();
        fill(&mut c, 0, [0; 4], BlockState::Ec);
        fill(&mut c, 4, [0; 4], BlockState::Em);
        let mut blocks: Vec<_> = c.valid_blocks().collect();
        blocks.sort();
        assert_eq!(blocks, vec![(0, BlockState::Ec), (4, BlockState::Em)]);
    }

    #[test]
    #[should_panic(expected = "already resident")]
    fn double_install_panics() {
        let mut c = tiny();
        fill(&mut c, 0, [0; 4], BlockState::Ec);
        fill(&mut c, 0, [0; 4], BlockState::Ec);
    }

    #[test]
    #[should_panic(expected = "not a power of two")]
    fn unvalidated_geometry_panics() {
        CacheArray::new(CacheGeometry {
            block_words: 3,
            sets: 4,
            ways: 1,
        });
    }
}
