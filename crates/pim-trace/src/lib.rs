//! Shared vocabulary for the PIM cache reproduction.
//!
//! This crate defines the types that flow between the KL1 abstract machine
//! (the workload generator) and the coherent-cache simulator: word
//! [`Addr`]esses, the five KL1 [`StorageArea`]s, the nine [`MemOp`]s
//! (ordinary read/write, the optimized commands of the ISCA'89 paper plus
//! the downward direct-write extension,
//! and the three lock operations), memory [`Access`] records, the
//! [`AreaMap`] that partitions the simulated address space, and the
//! per-area/per-operation reference counters ([`RefStats`]) behind the
//! paper's Tables 2 and 3.
//!
//! # Examples
//!
//! ```
//! use pim_trace::{Access, AreaMap, MemOp, PeId, RefStats, StorageArea};
//!
//! let map = AreaMap::standard();
//! let addr = map.base(StorageArea::Heap) + 42;
//! assert_eq!(map.area(addr), StorageArea::Heap);
//!
//! let mut stats = RefStats::new();
//! stats.record(Access::new(PeId(0), MemOp::Write, addr, StorageArea::Heap));
//! assert_eq!(stats.count(StorageArea::Heap, MemOp::Write), 1);
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]

pub mod access;
pub mod area;
pub mod op;
pub mod port;
pub mod process;
pub mod sink;
pub mod stats;
pub mod textio;

pub use access::{pes_in, Access, PeId, PeSet};
pub use area::{AreaMap, StorageArea};
pub use op::{MemOp, OpClass};
pub use port::{MemoryPort, PortValue};
pub use process::{Process, StepOutcome};
pub use sink::{CountingSink, NullSink, TraceSink, VecSink};
pub use stats::RefStats;
pub use textio::{read_trace, read_trace_file, write_trace, ParseTraceError};

/// A machine word: the unit of both data transfer and addressing.
///
/// The PIM hardware used 5-byte (40-bit) words; we model payloads as `u64`
/// and keep the architectural word width a parameter of the directory-size
/// accounting (see `pim-cache`'s geometry module), which is the only place
/// the physical width matters.
pub type Word = u64;

/// A word address in the simulated shared address space.
///
/// Addresses index *words*, not bytes, matching the paper's "one word bus"
/// and "four-word block" units.
pub type Addr = u64;
