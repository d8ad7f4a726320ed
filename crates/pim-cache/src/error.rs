//! Protocol misuse errors.

use pim_trace::Addr;
use std::fmt;

/// An error signalling *misuse* of the cache/lock protocol by the abstract
/// machine — these are bugs in the issuing software, never recoverable
/// hardware conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolError {
    /// A PE issued `LR` on a word it already holds locked.
    AlreadyLocked {
        /// The doubly locked address.
        addr: Addr,
    },
    /// A PE issued `UW`/`U` on a word it does not hold locked.
    NotLocked {
        /// The address that was not locked.
        addr: Addr,
    },
    /// A PE tried to hold more simultaneous locks than its directory has
    /// entries.
    LockDirectoryFull {
        /// The address that could not be registered.
        addr: Addr,
    },
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::AlreadyLocked { addr } => {
                write!(f, "address {addr:#x} is already locked by this PE")
            }
            ProtocolError::NotLocked { addr } => {
                write!(f, "address {addr:#x} is not locked by this PE")
            }
            ProtocolError::LockDirectoryFull { addr } => {
                write!(f, "lock directory full; cannot lock {addr:#x}")
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

/// A configuration no memory system can be built from. Returned by
/// [`CacheGeometry::validate`](crate::CacheGeometry::validate),
/// [`SystemConfig::validate`](crate::SystemConfig::validate) and
/// [`PimSystem::try_new`](crate::PimSystem::try_new).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// The system has no processing elements.
    NoPes,
    /// More PEs than a `u64` snoop mask can name
    /// ([`MAX_PES`](crate::MAX_PES)).
    TooManyPes {
        /// The requested PE count.
        pes: u32,
    },
    /// The block size is not a power of two.
    BlockWords {
        /// The requested words per block.
        block_words: u64,
    },
    /// The set count is not a power of two.
    Sets {
        /// The requested number of sets.
        sets: u64,
    },
    /// The associativity is zero.
    NoWays,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NoPes => f.write_str("need at least one PE"),
            ConfigError::TooManyPes { pes } => {
                write!(
                    f,
                    "{pes} PEs is more than the maximum of {}",
                    crate::MAX_PES
                )
            }
            ConfigError::BlockWords { block_words } => {
                write!(f, "block size {block_words} is not a power of two")
            }
            ConfigError::Sets { sets } => write!(f, "set count {sets} is not a power of two"),
            ConfigError::NoWays => f.write_str("associativity must be at least 1"),
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_lowercase_and_nonempty() {
        for e in [
            ProtocolError::AlreadyLocked { addr: 1 },
            ProtocolError::NotLocked { addr: 2 },
            ProtocolError::LockDirectoryFull { addr: 3 },
        ] {
            let msg = e.to_string();
            assert!(!msg.is_empty());
            assert!(msg.starts_with(|c: char| c.is_lowercase()));
        }
    }

    #[test]
    fn config_errors_name_the_bad_value() {
        assert_eq!(
            ConfigError::TooManyPes { pes: 65 }.to_string(),
            "65 PEs is more than the maximum of 64"
        );
        assert!(ConfigError::Sets { sets: 3 }.to_string().contains('3'));
        assert!(ConfigError::BlockWords { block_words: 6 }
            .to_string()
            .contains('6'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ProtocolError>();
    }
}
