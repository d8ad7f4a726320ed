//! Property tests across the whole stack: for randomized inputs, the
//! flat port, the PIM cache (optimized and plain), and the Illinois
//! baseline must all compute identical answers — and the simulated
//! protocol must stay coherent throughout.

use kl1_machine::{Cluster, ClusterConfig};
use pim_cache::{OptMask, PimSystem, SystemConfig};
use pim_repro::report;
use pim_sim::{Engine, IllinoisSystem, MemorySystem, Replayer};
use pim_trace::{Access, PeId};
use proptest::prelude::*;
use workloads::{Bench, Scale};

const LIST_OPS: &str = "
    main(Xs, Ys, R) :- true |
        app(Xs, Ys, Zs), rev(Zs, [], Rz), len(Rz, 0, N),
        sum(Zs, 0, S), R = result(N, S, Rz).
    app([], Y, Z) :- true | Z = Y.
    app([H|T], Y, Z) :- true | Z = [H|W], app(T, Y, W).
    rev([], A, R) :- true | R = A.
    rev([H|T], A, R) :- true | rev(T, [H|A], R).
    len([], A, R) :- true | R = A.
    len([_|T], A, R) :- true | A1 := A + 1, len(T, A1, R).
    sum([], A, S) :- true | S = A.
    sum([H|T], A, S) :- integer(H) | A1 := A + H, sum(T, A1, S).
";

fn int_list(items: &[i64]) -> fghc::Term {
    fghc::Term::list(items.iter().map(|&i| fghc::Term::Int(i)).collect(), None)
}

fn run_flat_answer(xs: &[i64], ys: &[i64], pes: u32) -> fghc::Term {
    let program = fghc::compile(LIST_OPS).unwrap();
    let mut c = Cluster::new(
        program,
        ClusterConfig {
            pes,
            ..Default::default()
        },
    );
    c.set_query(
        "main",
        vec![int_list(xs), int_list(ys), fghc::Term::Var("R".into())],
    )
    .expect("query procedure exists");
    let port = kl1_machine::run_flat(&mut c, 500_000_000);
    c.extract(&port, "R").unwrap()
}

fn run_sys_answer<S: MemorySystem + 'static>(
    xs: &[i64],
    ys: &[i64],
    pes: u32,
    system: S,
) -> fghc::Term {
    let program = fghc::compile(LIST_OPS).unwrap();
    let mut c = Cluster::new(
        program,
        ClusterConfig {
            pes,
            ..Default::default()
        },
    );
    c.set_query(
        "main",
        vec![int_list(xs), int_list(ys), fghc::Term::Var("R".into())],
    )
    .expect("query procedure exists");
    let mut engine = Engine::new(system, pes);
    let stats = engine.run(&mut c, 500_000_000).expect("fault-free run");
    assert!(stats.finished);
    assert!(c.failure().is_none(), "{:?}", c.failure());
    engine.with_port(PeId(0), |p| c.extract(p, "R").unwrap())
}

// ---------------------------------------------------------------------
// Run-to-run determinism of the engine.
//
// Each workload trace is replayed several times — in one run, in short
// chunks, and concurrently on several host threads; the resulting
// `pim-repro/v1` report documents must be *byte-identical* — determinism
// down to the serialized artifact, not just the headline numbers.
// ---------------------------------------------------------------------

/// Captures the memory-access trace of a Table-1 benchmark run at smoke
/// scale.
fn capture_bench_trace(bench: Bench, pes: u32) -> Vec<Access> {
    let program = fghc::compile(bench.source()).unwrap();
    let mut cluster = Cluster::new(
        program,
        ClusterConfig {
            pes,
            block_words: 4,
            ..Default::default()
        },
    );
    let (proc, args) = bench.query(Scale::smoke());
    cluster
        .set_query(proc, args)
        .expect("query procedure exists");
    let mut engine = Engine::new(
        PimSystem::new(SystemConfig {
            pes,
            ..Default::default()
        }),
        pes,
    );
    engine.record_trace();
    let stats = engine
        .run(&mut cluster, 500_000_000)
        .expect("fault-free run");
    assert!(stats.finished, "{} did not finish", bench.name());
    assert!(cluster.failure().is_none(), "{:?}", cluster.failure());
    engine.take_trace()
}

/// The full serialized `pim-repro/v1` report of one replay: envelope,
/// memory statistics, and per-PE cycle accounts, in the stable pretty
/// form the CLI tools write to disk.
fn replay_report(sys: &PimSystem, stats: &pim_sim::RunStats) -> String {
    let mut doc = report::envelope("differential");
    doc.push("memory", report::memory_json(sys, stats.makespan));
    doc.push("pe_cycles", pim_obs::pe_cycles_json(&stats.pe_cycles));
    doc.to_string_pretty()
}

/// Replays `trace` in chunks of at most `chunk` engine steps and renders
/// the final report.
fn replay(trace: &[Access], pes: u32, chunk: u64) -> String {
    let mut replayer = Replayer::from_merged(trace, pes);
    let mut engine = Engine::new(
        PimSystem::new(SystemConfig {
            pes,
            ..Default::default()
        }),
        pes,
    );
    loop {
        let stats = engine.run(&mut replayer, chunk).expect("fault-free run");
        if stats.finished {
            return replay_report(engine.system(), &stats);
        }
    }
}

/// Replays `trace` once for reference, once cut into short chunks, and
/// then on 1, 2 and 4 host threads at once — the cell-level parallelism
/// of `repro --threads` and `sweeprun --threads`, where independent
/// replays share one process. Every report must be byte-identical.
fn assert_replay_identical(label: &str, trace: &[Access], pes: u32) {
    let reference = replay(trace, pes, u64::MAX);
    let chunked = replay(trace, pes, 997);
    assert_eq!(chunked, reference, "{label}: chunked run diverged");
    for threads in [1usize, 2, 4] {
        let reports: Vec<String> = std::thread::scope(|s| {
            let runs: Vec<_> = (0..threads)
                .map(|_| s.spawn(|| replay(trace, pes, u64::MAX)))
                .collect();
            runs.into_iter()
                .map(|run| run.join().expect("replay thread"))
                .collect()
        });
        for report in reports {
            assert_eq!(
                report, reference,
                "{label}: report diverged with {threads} concurrent replays"
            );
        }
    }
}

#[test]
fn table1_smoke_workloads_replay_identically_at_any_thread_count() {
    for bench in Bench::ALL {
        let pes = 4;
        let trace = capture_bench_trace(bench, pes);
        assert!(trace.len() > 1_000, "{} trace too small", bench.name());
        assert_replay_identical(bench.name(), &trace, pes);
    }
}

#[test]
fn synthetic_traces_replay_identically_at_any_thread_count() {
    let pes = 8;
    let traces: Vec<(&str, Vec<Access>)> = vec![
        (
            "producer-consumer",
            workloads::synthetic::producer_consumer(512, 8, 4),
        ),
        (
            "heap-mix",
            workloads::synthetic::shared_heap_mix(pes, 20_000, 30, 1 << 14, 7),
        ),
        (
            "lock-churn",
            workloads::synthetic::lock_churn(pes, 2_000, 10, 7),
        ),
        (
            "aurora",
            workloads::synthetic::aurora_like(pes, 5_000, 1989),
        ),
    ];
    for (name, trace) in traces {
        let pes = 1 + trace.iter().map(|a| a.pe.0).max().unwrap_or(0);
        assert_replay_identical(name, &trace, pes);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn all_memory_systems_agree_on_random_inputs(
        xs in proptest::collection::vec(-50i64..50, 0..12),
        ys in proptest::collection::vec(-50i64..50, 0..12),
        pes in 1u32..5,
    ) {
        // Reference semantics from plain Rust.
        let mut zs: Vec<i64> = xs.clone();
        zs.extend(&ys);
        let n = zs.len() as i64;
        let s: i64 = zs.iter().sum();
        let want_rev: Vec<i64> = zs.iter().rev().copied().collect();

        let flat = run_flat_answer(&xs, &ys, pes);
        let expected = fghc::Term::Struct(
            "result".into(),
            vec![
                fghc::Term::Int(n),
                fghc::Term::Int(s),
                int_list(&want_rev),
            ],
        );
        prop_assert_eq!(&flat, &expected);

        let pim = run_sys_answer(
            &xs,
            &ys,
            pes,
            PimSystem::new(SystemConfig { pes, ..Default::default() }),
        );
        prop_assert_eq!(&pim, &expected);

        let plain = run_sys_answer(
            &xs,
            &ys,
            pes,
            PimSystem::new(SystemConfig {
                pes,
                opt_mask: OptMask::none(),
                ..Default::default()
            }),
        );
        prop_assert_eq!(&plain, &expected);

        let illinois = run_sys_answer(
            &xs,
            &ys,
            pes,
            IllinoisSystem::new(SystemConfig { pes, ..Default::default() }),
        );
        prop_assert_eq!(&illinois, &expected);
    }

    #[test]
    fn gc_preserves_answers_on_random_inputs(
        xs in proptest::collection::vec(0i64..50, 0..10),
        ys in proptest::collection::vec(0i64..50, 0..10),
    ) {
        let program = fghc::compile(LIST_OPS).unwrap();
        let mut c = Cluster::new(
            program,
            ClusterConfig {
                pes: 2,
                // Tiny semispaces: collections happen constantly.
                heap_semispace_words: Some(512),
                ..Default::default()
            },
        );
        c.set_query(
            "main",
            vec![int_list(&xs), int_list(&ys), fghc::Term::Var("R".into())],
        ).expect("query procedure exists");
        let port = kl1_machine::run_flat(&mut c, 500_000_000);
        let got = c.extract(&port, "R").unwrap();
        let baseline = run_flat_answer(&xs, &ys, 2);
        prop_assert_eq!(got, baseline);
    }
}
