//! Trace replay: drives recorded or synthetic access streams through the
//! engine, one per PE.

use crate::{Process, StepOutcome};
use pim_trace::{Access, Addr, MemOp, MemoryPort, PeId, PortValue, Word};

/// One replayed reference: 9 bytes, where an [`Access`] takes 16. The
/// issuing PE is the stream's own index and the storage area is
/// recomputed from the address by the memory system, so neither is
/// stored. Packed, so a stream of a few million references stays a few
/// tens of megabytes; fields are read by value only (a reference to a
/// packed field would be unaligned).
#[derive(Debug, Clone, Copy)]
#[repr(C, packed)]
struct Ref {
    addr: Addr,
    op: MemOp,
}

const _: () = assert!(std::mem::size_of::<Ref>() == 9);

impl From<Access> for Ref {
    #[inline]
    fn from(a: Access) -> Ref {
        Ref {
            addr: a.addr,
            op: a.op,
        }
    }
}

/// The write payload replayed at `cursor` of PE `pe`'s stream:
/// deterministic and position-derived, so replays are functionally
/// self-consistent.
#[inline]
fn payload(pe: usize, cursor: usize, op: MemOp) -> Option<Word> {
    op.is_write().then_some((pe as Word) << 32 | cursor as Word)
}

/// A [`Process`] that replays per-PE access streams in order.
///
/// Useful for cache-only experiments (no abstract machine) and for
/// re-running traces captured with [`pim_trace::VecSink`]. Write values
/// are synthesized deterministically from the stream position, so replays
/// are functionally self-consistent.
#[derive(Debug, Clone)]
pub struct Replayer {
    streams: Vec<Vec<Ref>>,
    cursors: Vec<usize>,
    /// Accesses not yet replayed, kept in step with `cursors` so an idle
    /// PE's poll need not sum every stream.
    left: usize,
}

impl Replayer {
    /// Builds a replayer from one access stream per PE. Stream `i` is
    /// replayed as PE `i`'s; the accesses' own `pe` and `area` fields
    /// are not consulted.
    pub fn new(streams: Vec<Vec<Access>>) -> Replayer {
        let streams = streams
            .into_iter()
            .map(|s| s.into_iter().map(Ref::from).collect())
            .collect();
        Replayer::from_streams(streams)
    }

    fn from_streams(streams: Vec<Vec<Ref>>) -> Replayer {
        let cursors = vec![0; streams.len()];
        let left = streams.iter().map(Vec::len).sum();
        Replayer {
            streams,
            cursors,
            left,
        }
    }

    /// Splits a merged trace by issuing PE. `pes` fixes the PE count (PEs
    /// with no accesses get empty streams). Each stream is sized exactly
    /// before it is filled, so set-up allocates once per PE whatever the
    /// trace length.
    pub fn from_merged(trace: &[Access], pes: u32) -> Replayer {
        let mut lens = vec![0usize; pes as usize];
        for a in trace {
            let Some(len) = lens.get_mut(a.pe.index()) else {
                panic!("trace references {} beyond {pes} PEs", a.pe);
            };
            *len += 1;
        }
        let mut streams: Vec<Vec<Ref>> = lens.into_iter().map(Vec::with_capacity).collect();
        for &a in trace {
            streams[a.pe.index()].push(Ref::from(a));
        }
        Replayer::from_streams(streams)
    }

    /// Checkpoint hook: serializes the replay cursors. The streams
    /// themselves are rebuilt from the trace file on resume, so only the
    /// positions travel.
    pub fn save_ckpt(&self, w: &mut pim_ckpt::Writer) {
        w.put_len(self.cursors.len());
        for (stream, &cursor) in self.streams.iter().zip(&self.cursors) {
            w.put_u64(cursor as u64);
            // Stream length rides along so a resume against a different
            // trace file is caught instead of silently replaying garbage.
            w.put_u64(stream.len() as u64);
        }
    }

    /// Checkpoint hook: restores cursors saved by [`Replayer::save_ckpt`]
    /// into a replayer rebuilt from the same trace.
    ///
    /// # Errors
    ///
    /// [`pim_ckpt::CkptError::Mismatch`] when the PE count or any stream
    /// length disagrees with the checkpoint.
    pub fn restore_ckpt(
        &mut self,
        r: &mut pim_ckpt::Reader<'_>,
    ) -> Result<(), pim_ckpt::CkptError> {
        let n = r.get_len()?;
        if n != self.streams.len() {
            return Err(pim_ckpt::CkptError::Mismatch {
                detail: format!(
                    "checkpoint has {n} PE streams, trace has {}",
                    self.streams.len()
                ),
            });
        }
        for (i, stream) in self.streams.iter().enumerate() {
            let cursor = r.get_u64()? as usize;
            let len = r.get_u64()? as usize;
            if len != stream.len() {
                return Err(pim_ckpt::CkptError::Mismatch {
                    detail: format!(
                        "PE {i} stream has {} accesses, checkpoint recorded {len}",
                        stream.len()
                    ),
                });
            }
            if cursor > len {
                return Err(pim_ckpt::CkptError::Corrupt {
                    detail: format!("PE {i} cursor {cursor} beyond stream length {len}"),
                });
            }
            self.cursors[i] = cursor;
        }
        self.left = self.count_left();
        Ok(())
    }

    /// Accesses remaining to replay.
    pub fn remaining(&self) -> usize {
        self.left
    }

    fn count_left(&self) -> usize {
        self.streams
            .iter()
            .zip(&self.cursors)
            .map(|(s, &c)| s.len() - c)
            .sum()
    }
}

impl Process for Replayer {
    fn pe_count(&self) -> u32 {
        self.streams.len() as u32
    }

    // Inlinable into an engine instantiated in another crate: one call
    // less per replayed access.
    #[inline]
    fn step(&mut self, pe: PeId, port: &mut dyn MemoryPort) -> StepOutcome {
        let i = pe.index();
        let cursor = self.cursors[i];
        match self.streams[i].get(cursor) {
            None => {
                if self.left == 0 {
                    StepOutcome::Finished
                } else {
                    StepOutcome::Idle
                }
            }
            Some(&r) => match port.op(r.op, r.addr, payload(i, cursor, r.op)) {
                PortValue::Stall => StepOutcome::Stalled,
                PortValue::Value(_) => {
                    self.cursors[i] = cursor + 1;
                    self.left -= 1;
                    StepOutcome::Ran
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Engine;
    use pim_cache::{PimSystem, SystemConfig};
    use pim_trace::{AreaMap, MemOp, StorageArea};

    fn heap_access(pe: u32, op: MemOp, off: u64) -> Access {
        let map = AreaMap::standard();
        Access::new(
            PeId(pe),
            op,
            map.base(StorageArea::Heap) + off,
            StorageArea::Heap,
        )
    }

    #[test]
    fn replays_everything_and_finishes() {
        let trace = vec![
            heap_access(0, MemOp::Write, 0),
            heap_access(1, MemOp::Read, 0),
            heap_access(0, MemOp::Read, 4),
            heap_access(1, MemOp::Write, 4),
        ];
        let mut replayer = Replayer::from_merged(&trace, 2);
        assert_eq!(replayer.remaining(), 4);
        let system = PimSystem::new(SystemConfig {
            pes: 2,
            ..SystemConfig::default()
        });
        let mut engine = Engine::new(system, 2);
        let stats = engine.run(&mut replayer, 1_000).expect("fault-free run");
        assert!(stats.finished);
        assert_eq!(replayer.remaining(), 0);
        assert_eq!(engine.system().ref_stats().total(), 4);
    }

    #[test]
    fn uneven_streams_idle_the_empty_pe() {
        let trace = vec![
            heap_access(0, MemOp::Write, 0),
            heap_access(0, MemOp::Write, 8),
            heap_access(0, MemOp::Write, 16),
        ];
        let mut replayer = Replayer::from_merged(&trace, 2);
        let system = PimSystem::new(SystemConfig {
            pes: 2,
            ..SystemConfig::default()
        });
        let mut engine = Engine::new(system, 2);
        let stats = engine.run(&mut replayer, 1_000).expect("fault-free run");
        assert!(stats.finished);
        assert_eq!(engine.system().ref_stats().total(), 3);
    }

    #[test]
    #[should_panic(expected = "beyond")]
    fn out_of_range_pe_rejected() {
        let trace = vec![heap_access(5, MemOp::Read, 0)];
        let _ = Replayer::from_merged(&trace, 2);
    }
}
