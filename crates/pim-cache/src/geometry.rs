//! Cache geometry: block size, associativity, set count, and the
//! directory-bit accounting used by the paper's Figure 2.

use crate::ConfigError;
use pim_trace::Addr;

/// Shape of one PE's cache.
///
/// The paper's base configuration is a four-Kword, four-way set-associative
/// cache with 256 columns (sets) and four-word blocks, unified for
/// instructions and data.
///
/// # Examples
///
/// ```
/// use pim_cache::CacheGeometry;
/// let g = CacheGeometry::paper_default();
/// assert_eq!(g.data_words(), 4096);
/// let (tag, set, offset) = g.decompose(0x1237);
/// assert_eq!(offset, 3);
/// assert_eq!(g.block_base(0x1237), 0x1234);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheGeometry {
    /// Words per block (power of two).
    pub block_words: u64,
    /// Number of sets / columns (power of two).
    pub sets: u64,
    /// Associativity.
    pub ways: u64,
}

impl CacheGeometry {
    /// The paper's base cache: 4-word blocks × 256 sets × 4 ways = 4 Kwords.
    pub fn paper_default() -> CacheGeometry {
        CacheGeometry {
            block_words: 4,
            sets: 256,
            ways: 4,
        }
    }

    /// A geometry with the given total data capacity (in words), keeping
    /// the paper's four-word blocks and four-way associativity. Used for
    /// the capacity sweep of Figure 2.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_words` is not a power of two or is too small to
    /// hold one set (`block_words * ways`).
    pub fn with_capacity(capacity_words: u64) -> CacheGeometry {
        CacheGeometry::with_shape(capacity_words, 4, 4)
    }

    /// A geometry with the given capacity, block size, and associativity.
    ///
    /// # Panics
    ///
    /// Panics if parameters are not powers of two or inconsistent.
    pub fn with_shape(capacity_words: u64, block_words: u64, ways: u64) -> CacheGeometry {
        assert!(capacity_words.is_power_of_two(), "capacity must be 2^k");
        assert!(block_words.is_power_of_two(), "block must be 2^k");
        let per_set = block_words * ways;
        assert!(
            capacity_words >= per_set,
            "capacity {capacity_words} below one set ({per_set})"
        );
        let sets = capacity_words / per_set;
        assert!(sets.is_power_of_two(), "sets must be 2^k");
        CacheGeometry {
            block_words,
            sets,
            ways,
        }
    }

    /// Total data capacity in words.
    pub fn data_words(&self) -> u64 {
        self.block_words * self.sets * self.ways
    }

    /// Checks that the address decomposition below is exact: block size
    /// and set count must be powers of two (they are split off with
    /// shifts and masks) and there must be at least one way.
    ///
    /// The constructors above already guarantee this; the fields are
    /// public, so a geometry built as a struct literal is checked here.
    ///
    /// # Errors
    ///
    /// The first [`ConfigError`] the geometry violates.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !self.block_words.is_power_of_two() {
            return Err(ConfigError::BlockWords {
                block_words: self.block_words,
            });
        }
        if !self.sets.is_power_of_two() {
            return Err(ConfigError::Sets { sets: self.sets });
        }
        if self.ways == 0 {
            return Err(ConfigError::NoWays);
        }
        Ok(())
    }

    /// log2 of the block size: the width of the block-offset field.
    #[inline]
    fn offset_bits(&self) -> u32 {
        self.block_words.trailing_zeros()
    }

    /// log2 of the set count: the width of the set-index field.
    #[inline]
    fn set_bits(&self) -> u32 {
        self.sets.trailing_zeros()
    }

    /// Splits an address into `(tag, set index, block offset)`.
    #[inline]
    pub fn decompose(&self, addr: Addr) -> (u64, u64, u64) {
        let offset = addr & (self.block_words - 1);
        let block = self.block_number(addr);
        let set = block & (self.sets - 1);
        let tag = block >> self.set_bits();
        (tag, set, offset)
    }

    /// The global number of the block containing `addr` (its address with
    /// the offset field shifted out).
    #[inline]
    pub fn block_number(&self, addr: Addr) -> u64 {
        addr >> self.offset_bits()
    }

    /// The first address of the block containing `addr`.
    #[inline]
    pub fn block_base(&self, addr: Addr) -> Addr {
        addr & !(self.block_words - 1)
    }

    /// Whether `addr` is the first word of its block (the `DW`
    /// block-boundary condition of Section 3.2).
    #[inline]
    pub fn is_block_boundary(&self, addr: Addr) -> bool {
        addr & (self.block_words - 1) == 0
    }

    /// Whether `addr` is the last word of its block (the `ER` purge
    /// condition of Section 3.2).
    #[inline]
    pub fn is_last_word(&self, addr: Addr) -> bool {
        let mask = self.block_words - 1;
        addr & mask == mask
    }

    /// Reconstructs a block's base address from its tag and set index.
    #[inline]
    pub fn recompose(&self, tag: u64, set: u64) -> Addr {
        ((tag << self.set_bits()) | set) << self.offset_bits()
    }

    /// Total storage bits for this cache under the paper's accounting:
    /// data array + tag array + state bits, for `bits_per_word`-bit words
    /// and a `addr_bits`-bit word-address space.
    ///
    /// The paper assumes 5-byte (40-bit) data words and reports, e.g., a
    /// "four-Kword cache" as 190 000 bits; this method reproduces that
    /// order of accounting for Figure 2's x-axis.
    pub fn total_bits(&self, bits_per_word: u64, addr_bits: u64) -> u64 {
        self.data_bits(bits_per_word) + self.directory_bits(addr_bits)
    }

    /// Bits in the data array alone.
    pub fn data_bits(&self, bits_per_word: u64) -> u64 {
        self.data_words() * bits_per_word
    }

    /// Bits in the address (tag + state) directory.
    pub fn directory_bits(&self, addr_bits: u64) -> u64 {
        let field_bits = u64::from(self.set_bits() + self.offset_bits());
        let tag_bits = addr_bits.saturating_sub(field_bits);
        // Three state bits encode the five states.
        let per_line = tag_bits + 3;
        per_line * self.sets * self.ways
    }
}

impl Default for CacheGeometry {
    fn default() -> Self {
        CacheGeometry::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_shape() {
        let g = CacheGeometry::paper_default();
        assert_eq!(g.sets, 256);
        assert_eq!(g.ways, 4);
        assert_eq!(g.block_words, 4);
        assert_eq!(g.data_words(), 4096);
    }

    #[test]
    fn paper_bit_accounting_is_about_190k_for_4kwords() {
        // The paper: a "four-Kword cache" is 190 000 bits with 5-byte words.
        let g = CacheGeometry::paper_default();
        let bits = g.total_bits(40, 32);
        assert!(
            (170_000..220_000).contains(&bits),
            "got {bits}, expected ≈190k"
        );
    }

    #[test]
    fn decompose_recompose_round_trip() {
        let g = CacheGeometry::paper_default();
        for addr in [0u64, 1, 3, 4, 4095, 4096, 123_456_789] {
            let (tag, set, offset) = g.decompose(addr);
            assert_eq!(g.recompose(tag, set) + offset, addr);
            assert_eq!(g.block_base(addr), g.recompose(tag, set));
        }
    }

    #[test]
    fn boundary_predicates() {
        let g = CacheGeometry::paper_default();
        assert!(g.is_block_boundary(0));
        assert!(g.is_block_boundary(8));
        assert!(!g.is_block_boundary(9));
        assert!(g.is_last_word(3));
        assert!(g.is_last_word(7));
        assert!(!g.is_last_word(4));
    }

    #[test]
    fn with_capacity_sweep_shapes() {
        for cap in [512u64, 1024, 2048, 4096, 8192, 16384] {
            let g = CacheGeometry::with_capacity(cap);
            assert_eq!(g.data_words(), cap);
            assert_eq!(g.block_words, 4);
            assert_eq!(g.ways, 4);
        }
    }

    #[test]
    fn with_shape_block_sweep() {
        for block in [1u64, 2, 4, 8, 16] {
            let g = CacheGeometry::with_shape(4096, block, 4);
            assert_eq!(g.data_words(), 4096);
            assert_eq!(g.block_words, block);
        }
    }

    #[test]
    #[should_panic(expected = "capacity must be 2^k")]
    fn non_power_of_two_capacity_rejected() {
        CacheGeometry::with_capacity(3000);
    }

    #[test]
    fn validate_rejects_what_shifts_cannot_decompose() {
        assert_eq!(CacheGeometry::paper_default().validate(), Ok(()));
        let g = CacheGeometry::paper_default();
        assert_eq!(
            CacheGeometry {
                block_words: 6,
                ..g
            }
            .validate(),
            Err(ConfigError::BlockWords { block_words: 6 })
        );
        assert_eq!(
            CacheGeometry { sets: 0, ..g }.validate(),
            Err(ConfigError::Sets { sets: 0 })
        );
        assert_eq!(
            CacheGeometry { ways: 0, ..g }.validate(),
            Err(ConfigError::NoWays)
        );
    }

    #[test]
    fn bigger_caches_use_more_bits() {
        let small = CacheGeometry::with_capacity(512).total_bits(40, 32);
        let big = CacheGeometry::with_capacity(16384).total_bits(40, 32);
        assert!(big > small * 8);
    }
}
