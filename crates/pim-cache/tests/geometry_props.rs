//! Property check: the shift-and-mask address decomposition agrees with
//! the division-and-remainder arithmetic it replaced, for every geometry
//! that passes `CacheGeometry::validate`.

use pim_cache::{CacheGeometry, ConfigError};
use proptest::prelude::*;

/// The division reference: `(tag, set, offset)`.
fn reference(g: &CacheGeometry, addr: u64) -> (u64, u64, u64) {
    let block = addr / g.block_words;
    (block / g.sets, block % g.sets, addr % g.block_words)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn shifts_and_masks_match_division(
        block_log in 0u32..6,
        set_log in 0u32..14,
        ways in 1u64..9,
        wide in any::<u64>(),
        narrow in 0u64..1 << 24,
        pick_wide in any::<bool>(),
    ) {
        let g = CacheGeometry { block_words: 1 << block_log, sets: 1 << set_log, ways };
        prop_assert_eq!(g.validate(), Ok(()));
        let addr = if pick_wide { wide } else { narrow };
        let bw = g.block_words;
        let (tag, set, offset) = reference(&g, addr);
        prop_assert_eq!(g.decompose(addr), (tag, set, offset));
        prop_assert_eq!(g.block_number(addr), addr / bw);
        prop_assert_eq!(g.block_base(addr), addr - addr % bw);
        prop_assert_eq!(g.is_block_boundary(addr), addr % bw == 0);
        prop_assert_eq!(g.is_last_word(addr), addr % bw == bw - 1);
        prop_assert_eq!(g.recompose(tag, set), (tag * g.sets + set) * bw);
        prop_assert_eq!(g.recompose(tag, set) + offset, addr);
    }

    #[test]
    fn validate_accepts_exactly_the_power_of_two_shapes(
        block_words in 0u64..70,
        sets in 0u64..70,
        ways in 0u64..3,
    ) {
        let g = CacheGeometry { block_words, sets, ways };
        let expected = if !block_words.is_power_of_two() {
            Err(ConfigError::BlockWords { block_words })
        } else if !sets.is_power_of_two() {
            Err(ConfigError::Sets { sets })
        } else if ways == 0 {
            Err(ConfigError::NoWays)
        } else {
            Ok(())
        };
        prop_assert_eq!(g.validate(), expected);
    }
}
