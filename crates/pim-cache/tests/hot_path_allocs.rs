//! Allocation counts of the memory-system hot path, pinned exactly.
//!
//! The test binary installs `pim_perf::CountingAlloc` as its global
//! allocator and differences the calling thread's allocation count around
//! each measured stretch, after a warm-up that lets every buffer reach
//! its working size:
//!
//! * a miss-heavy shared heap stream driven straight through
//!   [`PimSystem::access`] makes no allocation at all;
//! * a lock-churn stream driven through the engine allocates only for
//!   `LH` refusals (a lock's first waiter starts its waiter list), at most
//!   once per refusal.

use pim_bus::BusTiming;
use pim_cache::{CacheGeometry, OptMask, PimSystem, SystemConfig};
use pim_sim::{Engine, Replayer};
use pim_trace::{Access, Word};

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

#[test]
fn lock_churn_allocates_at_most_once_per_refusal() {
    let stream = workloads::synthetic::lock_churn(PES, 5_000, 10, 7);
    let mut replayer = Replayer::from_merged(&stream, PES);
    let mut engine = Engine::new(system(), PES);
    let warm_up = engine.run(&mut replayer, 100_000).expect("fault-free run");
    assert!(!warm_up.finished);

    let refused_before = engine.system().lock_stats().lr_refused;
    let before = pim_perf::thread_allocs();
    let stats = engine.run(&mut replayer, u64::MAX).expect("fault-free run");
    let allocs = pim_perf::thread_allocs() - before;
    let refused = engine.system().lock_stats().lr_refused - refused_before;

    assert!(stats.finished);
    assert!(refused > 10_000, "the stream must contend: {refused}");
    // `Engine::run` returns per-PE clock and cycle vectors: two allocations
    // per call, whatever the stream.
    assert!(
        allocs <= refused + 2,
        "{allocs} allocations for {refused} refusals"
    );
    engine
        .system()
        .check_coherence_invariants()
        .expect("coherent");
}
