//! Trace determinism and ring drop-accounting.
//!
//! The contract under test: a trace file is a pure function of the
//! simulated run — two replays of the same workload export
//! byte-identical bytes — and the ring never drops events silently.

use pim_cache::{PimSystem, SystemConfig};
use pim_sim::{Engine, Replayer};
use pim_trace::{Access, AreaMap, MemOp, PeId, StorageArea};
use pim_tracer::{
    critical_path, export_chrome, Event, EventKind, SharedTracer, Trace, TraceBuffer, TraceMeta,
};
use proptest::prelude::*;

const PES: u32 = 4;

/// A small workload with real contention: every PE hammers one shared
/// heap word under a lock, with private traffic in between.
fn workload() -> Vec<Access> {
    let map = AreaMap::standard();
    let heap = map.base(StorageArea::Heap);
    let goal = map.base(StorageArea::Goal);
    let mut trace = Vec::new();
    for round in 0..40u64 {
        for pe in 0..PES {
            let private = heap + 256 + u64::from(pe) * 64 + (round % 8);
            trace.push(Access::new(
                PeId(pe),
                MemOp::Read,
                private,
                StorageArea::Heap,
            ));
            trace.push(Access::new(
                PeId(pe),
                MemOp::Write,
                private,
                StorageArea::Heap,
            ));
            trace.push(Access::new(
                PeId(pe),
                MemOp::LockRead,
                heap,
                StorageArea::Heap,
            ));
            trace.push(Access::new(
                PeId(pe),
                MemOp::WriteUnlock,
                heap,
                StorageArea::Heap,
            ));
            trace.push(Access::new(
                PeId(pe),
                MemOp::DirectWrite,
                goal + u64::from(pe) * 8,
                StorageArea::Goal,
            ));
        }
    }
    trace
}

/// Replays the workload with a tracer attached and exports the trace.
fn run_traced(cap: usize) -> (String, u64) {
    let trace = workload();
    let config = SystemConfig {
        pes: PES,
        ..SystemConfig::default()
    };
    let tracer = SharedTracer::with_capacity(cap);
    let mut replayer = Replayer::from_merged(&trace, PES);
    let mut system = PimSystem::new(config);
    system.set_observer(tracer.observer());
    let mut engine = Engine::new(system, PES);
    engine.set_observer(tracer.observer());
    let makespan = engine.run(&mut replayer, u64::MAX).expect("run").makespan;
    let (emitted, recorded, dropped) = (tracer.emitted(), tracer.recorded(), tracer.dropped());
    let events = tracer.take_sorted();
    let text = export_chrome(
        &events,
        &TraceMeta {
            makespan,
            pes: PES as usize,
            emitted,
            recorded: recorded as u64,
            dropped,
        },
    );
    (text, makespan)
}

#[test]
fn traces_are_byte_identical_from_run_to_run() {
    let (first, _) = run_traced(1 << 16);
    let (second, _) = run_traced(1 << 16);
    assert_eq!(first, second, "trace bytes differ between two runs");
}

#[test]
fn capped_traces_are_still_byte_identical() {
    // Under drop pressure the retained subset is order-dependent unless
    // the ring evicts by the total event order; this pins that it does.
    let (first, _) = run_traced(100);
    let (second, _) = run_traced(100);
    assert_eq!(first, second);
    let trace = Trace::parse(&first).expect("parse");
    assert_eq!(trace.recorded, 100);
    assert_eq!(trace.dropped, trace.emitted - trace.recorded);
    assert!(
        trace.dropped > 0,
        "workload should overflow a 100-event ring"
    );
}

#[test]
fn exported_trace_is_schema_valid() {
    let (text, makespan) = run_traced(1 << 16);
    // Trace::parse already rejects events missing ph/ts/pid/tid.
    let trace = Trace::parse(&text).expect("schema-valid trace_event JSON");
    assert_eq!(trace.makespan, makespan);
    assert!(trace.events.iter().any(|e| e.ph == "X"));
    assert!(trace.events.iter().any(|e| e.ph == "i"));
    // B/E spans balance on every track and never go negative.
    let mut depth = std::collections::HashMap::new();
    for e in &trace.events {
        let d: &mut i64 = depth.entry(e.tid).or_default();
        match e.ph.as_str() {
            "B" => *d += 1,
            "E" => {
                *d -= 1;
                assert!(*d >= 0, "E before B on track {}", e.tid);
            }
            _ => {}
        }
    }
    for (tid, d) in depth {
        assert_eq!(d, 0, "unbalanced B/E on track {tid}");
    }
}

#[test]
fn critical_path_segments_sum_to_the_makespan() {
    let (text, makespan) = run_traced(1 << 16);
    let trace = Trace::parse(&text).expect("parse");
    let segments = critical_path(&trace);
    let total: u64 = segments.iter().map(|s| s.cycles()).sum();
    assert_eq!(total, makespan);
    assert_eq!(segments.first().map(|s| s.start), Some(0));
    assert_eq!(segments.last().map(|s| s.end), Some(makespan));
    // Contention on the shared heap word must put lock waits on the path.
    assert!(segments.iter().any(|s| s.label.starts_with("lock wait")));
}

fn arb_event() -> impl Strategy<Value = Event> {
    (
        0u64..500,
        0u32..4,
        0u64..64,
        prop_oneof![Just(0u8), Just(1), Just(2)],
    )
        .prop_map(|(ts, pe, x, kind)| Event {
            ts,
            pe: PeId(pe),
            kind: match kind {
                0 => EventKind::Reduction,
                1 => EventKind::Gc { words: x },
                _ => EventKind::Suspension { goal: x },
            },
        })
}

proptest! {
    /// Ring-cap enforcement never drops silently: for any stream and
    /// any cap, `dropped == emitted - recorded`, the ring never exceeds
    /// its cap, and the retained set ignores arrival order.
    #[test]
    fn ring_accounting_is_exact(
        events in proptest::collection::vec(arb_event(), 0..300),
        cap in 0usize..64,
    ) {
        let mut buf = TraceBuffer::with_capacity(cap);
        for e in &events {
            buf.record(e.clone());
        }
        prop_assert_eq!(buf.emitted(), events.len() as u64);
        prop_assert!(buf.recorded() <= cap);
        prop_assert_eq!(buf.recorded(), events.len().min(cap));
        prop_assert_eq!(buf.dropped(), buf.emitted() - buf.recorded() as u64);

        // Same multiset, reversed arrival: identical retained set.
        let mut rev = TraceBuffer::with_capacity(cap);
        for e in events.iter().rev() {
            rev.record(e.clone());
        }
        prop_assert_eq!(buf.into_sorted(), rev.into_sorted());
    }
}
