//! Exact simulated counters of the tracesim `heap-mix` and `lock-churn`
//! generators at 8 and 16 PEs, replayed through `Engine` + `PimSystem`
//! with tracesim's default machine.
//!
//! The values were recorded before the snoop index and the
//! structure-of-arrays cache array existed; host-side optimizations of
//! the memory system must leave every one of them unchanged. Transaction
//! counts are listed in `Transaction::ALL` order.

use pim_bus::{BusTiming, Transaction};
use pim_cache::{CacheGeometry, OptMask, PimSystem, SystemConfig};
use pim_sim::{Engine, Replayer};
use pim_trace::Access;

#[derive(Debug, PartialEq, Eq)]
struct Counters {
    steps: u64,
    makespan: u64,
    bus_cycles: u64,
    transactions: [u64; 7],
    lookups: u64,
    hits: u64,
    lr_total: u64,
    lr_hits: u64,
    lr_refused: u64,
    unlock_total: u64,
    unlock_no_waiter: u64,
}

/// Replays `trace` at `pes` PEs to completion and collects its counters.
fn run(trace: &[Access], pes: u32) -> Counters {
    let system = PimSystem::new(SystemConfig {
        pes,
        geometry: CacheGeometry::with_shape(4096, 4, 4),
        timing: BusTiming {
            bus_width_words: 1,
            memory_cycles: 8,
        },
        opt_mask: OptMask::all(),
        ..SystemConfig::default()
    });
    let mut engine = Engine::new(system, pes);
    let mut replayer = Replayer::from_merged(trace, pes);
    let stats = engine.run(&mut replayer, u64::MAX).expect("fault-free run");
    assert!(stats.finished);
    let sys = engine.system();
    let bus = sys.bus_stats();
    let (a, l) = (sys.access_stats(), sys.lock_stats());
    Counters {
        steps: stats.steps,
        makespan: stats.makespan,
        bus_cycles: bus.total_cycles(),
        transactions: Transaction::ALL.map(|tx| bus.tx_count(tx)),
        lookups: a.lookups,
        hits: a.hits,
        lr_total: l.lr_total,
        lr_hits: l.lr_hits,
        lr_refused: l.lr_refused,
        unlock_total: l.unlock_total,
        unlock_no_waiter: l.unlock_no_waiter,
    }
}

#[test]
fn heap_mix_at_8_pes() {
    let pes = 8;
    assert_eq!(
        run(
            &workloads::synthetic::shared_heap_mix(pes, 50_000, 30, 1 << 14, 7),
            pes
        ),
        Counters {
            steps: 51274,
            makespan: 348273,
            bus_cycles: 348235,
            transactions: [6782, 564, 28861, 4663, 0, 2040, 0],
            lookups: 50000,
            hits: 9130,
            lr_total: 0,
            lr_hits: 0,
            lr_refused: 0,
            unlock_total: 0,
            unlock_no_waiter: 0,
        }
    );
}

#[test]
fn lock_churn_at_8_pes() {
    let pes = 8;
    assert_eq!(
        run(&workloads::synthetic::lock_churn(pes, 5_000, 10, 7), pes),
        Counters {
            steps: 100954,
            makespan: 45505,
            bus_cycles: 60227,
            transactions: [9, 0, 3656, 0, 0, 0, 3556],
            lookups: 80000,
            hits: 76335,
            lr_total: 40000,
            lr_hits: 36335,
            lr_refused: 13703,
            unlock_total: 40000,
            unlock_no_waiter: 36444,
        }
    );
}

#[test]
fn heap_mix_at_16_pes() {
    let pes = 16;
    assert_eq!(
        run(
            &workloads::synthetic::shared_heap_mix(pes, 50_000, 30, 1 << 14, 7),
            pes
        ),
        Counters {
            steps: 52979,
            makespan: 341287,
            bus_cycles: 341233,
            transactions: [4512, 43, 37298, 1779, 0, 1571, 0],
            lookups: 50000,
            hits: 6368,
            lr_total: 0,
            lr_hits: 0,
            lr_refused: 0,
            unlock_total: 0,
            unlock_no_waiter: 0,
        }
    );
}

#[test]
fn lock_churn_at_16_pes() {
    let pes = 16;
    assert_eq!(
        run(&workloads::synthetic::lock_churn(pes, 5_000, 10, 7), pes),
        Counters {
            steps: 254220,
            makespan: 86916,
            bus_cycles: 185434,
            transactions: [17, 0, 7407, 0, 0, 0, 7522],
            lookups: 160000,
            hits: 152576,
            lr_total: 80000,
            lr_hits: 72576,
            lr_refused: 59160,
            unlock_total: 80000,
            unlock_no_waiter: 72478,
        }
    );
}
