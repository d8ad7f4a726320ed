//! Property tests of the span model: guards always balance, and
//! per-phase self times can never exceed the elapsed wall time.

use pim_perf::Profiler;
use proptest::prelude::*;

const PHASES: [&str; 4] = ["engine run", "gc", "checkpoint", "report write"];

/// Interprets a byte string as a nesting program: low bits pick
/// open-a-span (of one of four phases) vs close-the-innermost-span.
/// Whatever the sequence, the RAII guards force balanced enter/exit.
fn interpret(profiler: &Profiler, ops: &[u8]) {
    let mut guards: Vec<pim_perf::Span<'_>> = Vec::new();
    for &op in ops {
        if op % 3 != 0 || guards.is_empty() {
            guards.push(profiler.span(PHASES[(op as usize / 4) % PHASES.len()]));
            // A little real work so spans have nonzero width.
            std::hint::black_box((0..32u64).sum::<u64>());
        } else {
            guards.pop();
        }
    }
    // Unwind the remaining guards innermost-first (a plain Vec drop
    // would run front-to-back, i.e. outermost-first).
    while guards.pop().is_some() {}
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn spans_always_balance_and_self_times_fit_in_wall(
        ops in proptest::collection::vec(any::<u8>(), 0..96)
    ) {
        let profiler = Profiler::new();
        profiler.enable();
        let started = std::time::Instant::now();
        interpret(&profiler, &ops);
        let wall = started.elapsed().as_nanos() as u64;

        // Balance: every guard has dropped, nothing is left open.
        prop_assert_eq!(profiler.open_spans(), 0);

        let report = profiler.take_report();
        // Self times partition wall time on a single thread: each phase's
        // self time excludes nested children, so the sum over phases can
        // never exceed the elapsed wall clock (tolerance for the clock
        // reads around `interpret`).
        let self_sum: u64 = report.phases.iter().map(|p| p.self_ns).sum();
        prop_assert!(
            self_sum <= wall,
            "self-time sum {} exceeds wall {}", self_sum, wall
        );
        for phase in &report.phases {
            prop_assert!(
                phase.self_ns <= phase.total_ns,
                "{}: self {} > total {}", phase.name, phase.self_ns, phase.total_ns
            );
            prop_assert!(phase.count > 0);
        }
    }

    #[test]
    fn disabled_profiler_stays_empty(
        ops in proptest::collection::vec(any::<u8>(), 0..64)
    ) {
        let profiler = Profiler::new();
        interpret(&profiler, &ops);
        prop_assert_eq!(profiler.open_spans(), 0);
        prop_assert!(profiler.snapshot().phases.is_empty());
    }
}
