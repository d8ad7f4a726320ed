//! Allocation counts of the memory-system hot path, pinned exactly.
//!
//! The test binary installs `pim_perf::CountingAlloc` as its global
//! allocator and differences the calling thread's allocation count around
//! each measured stretch, after a warm-up that lets every buffer reach
//! its working size:
//!
//! * a miss-heavy shared heap stream driven straight through
//!   [`PimSystem::access`] makes no allocation at all;
//! * 16-PE `Engine::run` replays of the same heap stream and of a
//!   contended lock-churn stream make no allocation per step either: not
//!   in the scheduler's pick, not for `LH` refusals (waiters are a PE
//!   mask), not for wake-ups;
//! * a fresh system's first lock on every PE allocates nothing: each
//!   lock directory is built with its entries reserved;
//! * splitting a merged trace into per-PE replay streams allocates the
//!   same number of times for 1 K accesses as for 400 K: each stream is
//!   sized once.

use pim_bus::BusTiming;
use pim_cache::{CacheGeometry, OptMask, PimSystem, SystemConfig};
use pim_sim::{Engine, Replayer};
use pim_trace::{Access, MemoryPort, PeId, Process, StepOutcome, Word};

#[global_allocator]
static ALLOC: pim_perf::CountingAlloc = pim_perf::CountingAlloc;

const PES: u32 = 16;

fn system() -> PimSystem {
    PimSystem::new(SystemConfig {
        pes: PES,
        geometry: CacheGeometry::paper_default(),
        timing: BusTiming {
            bus_width_words: 1,
            memory_cycles: 8,
        },
        opt_mask: OptMask::all(),
        ..SystemConfig::default()
    })
}

fn drive(sys: &mut PimSystem, accesses: &[Access]) {
    for (i, a) in accesses.iter().enumerate() {
        let data = a.op.is_write().then_some(i as Word);
        let out = sys
            .access(a.pe, a.op, a.addr, data)
            .expect("no lock misuse");
        assert!(matches!(out, pim_cache::Outcome::Done { .. }));
    }
}

#[test]
fn shared_heap_misses_make_no_allocation_after_warm_up() {
    let warm_up: usize = 50_000;
    let stream =
        workloads::synthetic::shared_heap_mix(PES, warm_up as u64 + 100_000, 30, 1 << 14, 11);
    let mut sys = system();
    drive(&mut sys, &stream[..warm_up]);

    let misses_before = sys.access_stats().lookups - sys.access_stats().hits;
    let before = pim_perf::thread_allocs();
    drive(&mut sys, &stream[warm_up..]);
    let allocs = pim_perf::thread_allocs() - before;
    let misses = sys.access_stats().lookups - sys.access_stats().hits - misses_before;

    assert!(misses > 50_000, "the stream must stay miss-heavy: {misses}");
    assert_eq!(allocs, 0, "{allocs} allocations over 100 000 accesses");
    sys.check_coherence_invariants().expect("coherent");
}

/// A replayer that counts the allocations made between the starts of
/// consecutive steps once `warm_up` steps have run: everything the engine
/// does for a step — the scheduler's pick, the access, bus arbitration,
/// lock refusals and wake-ups — and the replay itself.
struct CountingReplayer {
    inner: Replayer,
    warm_up: u64,
    steps: u64,
    last: u64,
    allocs: u64,
}

impl CountingReplayer {
    fn new(stream: &[Access], warm_up: u64) -> CountingReplayer {
        CountingReplayer {
            inner: Replayer::from_merged(stream, PES),
            warm_up,
            steps: 0,
            last: 0,
            allocs: 0,
        }
    }
}

impl Process for CountingReplayer {
    fn pe_count(&self) -> u32 {
        self.inner.pe_count()
    }

    fn step(&mut self, pe: PeId, port: &mut dyn MemoryPort) -> StepOutcome {
        let now = pim_perf::thread_allocs();
        if self.steps > self.warm_up {
            self.allocs += now - self.last;
        }
        self.last = now;
        self.steps += 1;
        self.inner.step(pe, port)
    }
}

/// Replays `stream` through a 16-PE `Engine` to completion and returns
/// the engine and the allocations counted after `warm_up` steps.
fn replay_counting(stream: &[Access], warm_up: u64) -> (Engine<PimSystem>, u64, u64) {
    let mut replayer = CountingReplayer::new(stream, warm_up);
    let mut engine = Engine::new(system(), PES);
    let stats = engine.run(&mut replayer, u64::MAX).expect("fault-free run");
    assert!(stats.finished);
    assert!(
        replayer.steps > 2 * warm_up,
        "the measured stretch must outlast the warm-up: {} steps",
        replayer.steps
    );
    engine
        .system()
        .check_coherence_invariants()
        .expect("coherent");
    (engine, replayer.steps, replayer.allocs)
}

#[test]
fn lock_churn_makes_no_allocation_after_warm_up() {
    let stream = workloads::synthetic::lock_churn(PES, 5_000, 10, 7);
    let (engine, steps, allocs) = replay_counting(&stream, 100_000);
    let refused = engine.system().lock_stats().lr_refused;
    assert!(refused > 10_000, "the stream must contend: {refused}");
    // Refusals register waiters in a PE mask, and wake-ups reuse the
    // engine's buffer: neither allocates.
    assert_eq!(allocs, 0, "{allocs} allocations over {steps} steps");
}

#[test]
fn heap_mix_replay_through_the_engine_makes_no_allocation_after_warm_up() {
    let stream = workloads::synthetic::shared_heap_mix(PES, 150_000, 30, 1 << 14, 11);
    let (engine, steps, allocs) = replay_counting(&stream, 50_000);
    let a = engine.system().access_stats();
    assert!(
        a.lookups - a.hits > 100_000,
        "the stream must stay miss-heavy"
    );
    assert_eq!(allocs, 0, "{allocs} allocations over {steps} steps");
}

#[test]
fn first_locks_on_a_fresh_system_make_no_allocation() {
    let mut sys = system();
    let heap = sys.area_map().base(pim_trace::StorageArea::Heap);
    let before = pim_perf::thread_allocs();
    for pe in 0..PES {
        let addr = heap + u64::from(pe) * 64;
        sys.access(PeId(pe), pim_trace::MemOp::LockRead, addr, None)
            .expect("first lock");
        sys.access(PeId(pe), pim_trace::MemOp::Unlock, addr, None)
            .expect("unlock");
    }
    let allocs = pim_perf::thread_allocs() - before;
    assert_eq!(allocs, 0, "{allocs} allocations for {PES} first locks");
}

#[test]
fn replay_set_up_allocations_do_not_grow_with_stream_length() {
    let set_up_allocs = |accesses: u64| {
        let stream = workloads::synthetic::shared_heap_mix(PES, accesses, 30, 1 << 14, 11);
        let before = pim_perf::thread_allocs();
        let replayer = Replayer::from_merged(&stream, PES);
        let allocs = pim_perf::thread_allocs() - before;
        assert_eq!(replayer.remaining() as u64, accesses);
        allocs
    };
    let short = set_up_allocs(1_000);
    let long = set_up_allocs(400_000);
    assert_eq!(
        short, long,
        "from_merged made {short} allocations for 1 K accesses, {long} for 400 K"
    );
}
