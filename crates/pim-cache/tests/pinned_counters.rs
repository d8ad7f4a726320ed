//! Exact simulated counters of the tracesim `heap-mix` and `lock-churn`
//! generators at 8 and 16 PEs, replayed through `Engine` + `PimSystem`
//! with tracesim's default machine, and of two smoke-scale KL1 programs
//! run on the paper's 8-PE machine.
//!
//! The trace values were recorded before the snoop index and the
//! structure-of-arrays cache array existed, the KL1 values before the
//! engine picked PEs from a tournament tree; host-side optimizations of
//! the memory system and the scheduler must leave every one of them
//! unchanged. Transaction counts are listed in `Transaction::ALL` order.

use kl1_machine::{Cluster, ClusterConfig};
use pim_bus::{BusTiming, Transaction};
use pim_cache::{CacheGeometry, OptMask, PimSystem, SystemConfig};
use pim_sim::{Engine, Replayer};
use pim_trace::Access;
use workloads::{Bench, Scale};

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

/// The scheduling record of one KL1 run: every PE's final clock and where
/// its cycles went.
#[derive(Debug, PartialEq, Eq)]
struct Schedule {
    steps: u64,
    makespan: u64,
    pe_clocks: Vec<u64>,
    lock_wait: Vec<u64>,
    idle: Vec<u64>,
    bus_wait: Vec<u64>,
}

/// Runs `bench` at smoke scale on the paper's 8-PE machine (`SystemConfig`
/// defaults: 4 Kword 4-way caches, 4-word blocks, all optimized
/// commands) to completion.
fn run_kl1(bench: Bench) -> Schedule {
    let program = fghc::compile(bench.source()).expect("benchmark compiles");
    let mut cluster = Cluster::new(
        program,
        ClusterConfig {
            pes: 8,
            block_words: 4,
            ..ClusterConfig::default()
        },
    );
    let (proc, args) = bench.query(Scale::smoke());
    cluster.set_query(proc, args).expect("query");
    let mut engine = Engine::new(PimSystem::new(SystemConfig::default()), 8);
    let stats = engine.run(&mut cluster, u64::MAX).expect("fault-free run");
    assert!(stats.finished && cluster.failure().is_none());
    let account = |f: fn(&pim_obs::PeCycles) -> u64| stats.pe_cycles.iter().map(f).collect();
    Schedule {
        steps: stats.steps,
        makespan: stats.makespan,
        pe_clocks: stats.pe_clocks.clone(),
        lock_wait: account(|c| c.lock_wait),
        idle: account(|c| c.idle),
        bus_wait: account(|c| c.bus_wait),
    }
}

#[test]
fn tri_smoke_at_8_pes() {
    assert_eq!(
        run_kl1(Bench::Tri),
        Schedule {
            steps: 178538,
            makespan: 55702,
            pe_clocks: vec![55700, 55698, 55695, 55698, 55698, 55700, 55702, 55702],
            lock_wait: vec![164, 6, 183, 0, 229, 24, 92, 81],
            idle: vec![2976, 3840, 4224, 3680, 5024, 4560, 2944, 4464],
            bus_wait: vec![12338, 17596, 17248, 12613, 16178, 17475, 15614, 16446],
        }
    );
}

#[test]
fn pascal_smoke_at_8_pes() {
    assert_eq!(
        run_kl1(Bench::Pascal),
        Schedule {
            steps: 10020,
            makespan: 7987,
            pe_clocks: vec![7986, 7987, 7979, 7986, 7985, 7980, 7986, 7979],
            lock_wait: vec![0, 0, 0, 0, 0, 0, 13, 0],
            idle: vec![1232, 2672, 2304, 2656, 1888, 1472, 2064, 1488],
            bus_wait: vec![4331, 3491, 3653, 3684, 3648, 3923, 3745, 3787],
        }
    );
}
