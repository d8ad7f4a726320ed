//! Engine runs shared by the workloads: a KL1 program on the PIM system,
//! and an access-stream replay with checkpoint round trips.

use std::rc::Rc;
use std::time::Instant;

use fghc::{CompiledProgram, Term};
use kl1_machine::{Cluster, ClusterConfig};
use pim_bus::Transaction;
use pim_cache::{OptMask, PimSystem, SystemConfig};
use pim_sim::{Engine, MemorySystem, Replayer, RunStats, SimError};
use pim_trace::{Access, PeId, Process};
use workloads::{Bench, Scale};

use crate::harness::{secs, Checks, Layers, Passes};
use crate::probe::{AsPim, Probe, TimedProcess, TimedSystem};

/// Step budget of one engine run; the workloads finish far below it.
const MAX_STEPS: u64 = 4_000_000_000;

/// Engine steps per timed chunk: a few to tens of milliseconds of host
/// time, so each chunk can meet the host at its fast speed
/// ([`crate::harness::best_pass`]).
pub const CHUNK: u64 = 1 << 16;

/// The paper's 8-PE base system with every optimization on, at `pes` PEs.
pub fn config(pes: u32) -> SystemConfig {
    bench::base_config(pes, OptMask::all())
}

/// Mixes a seed into a stream of well-spread values (splitmix64).
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One Table-1 program, compiled, with the oracle's answer.
#[derive(Debug, Clone)]
pub struct Program {
    /// Which benchmark.
    pub bench: Bench,
    /// Its problem size.
    pub scale: Scale,
    /// The compiled FGHC program.
    pub compiled: CompiledProgram,
    /// The answer `workloads::reference` expects.
    pub expected: Term,
}

/// Compiles the five Table-1 programs at `scale`; returns them with the
/// compile time alone.
pub fn compile_all(scale: Scale) -> Result<(Vec<Program>, f64), String> {
    let mut compile_s = 0.0;
    let mut out = Vec::new();
    for bench in Bench::EXTENDED {
        let t = Instant::now();
        let compiled =
            fghc::compile(bench.source()).map_err(|e| format!("{}: {e}", bench.name()))?;
        compile_s += secs(t);
        out.push(Program {
            bench,
            scale,
            compiled,
            expected: workloads::reference::expected(bench, scale),
        });
    }
    Ok((out, compile_s))
}

/// Simulated counters of engine runs. Deterministic: the same inputs give
/// the same values on every run and every host.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SimCounts {
    pub steps: u64,
    pub makespan: u64,
    pub refs: u64,
    pub bus_cycles: u64,
    pub transactions: u64,
    pub lookups: u64,
    pub hits: u64,
    pub lr_total: u64,
    pub lr_refused: u64,
    pub reductions: u64,
    pub suspensions: u64,
}

impl SimCounts {
    fn of(system: &PimSystem, stats: &RunStats, steps: u64) -> SimCounts {
        let bus = system.bus_stats();
        SimCounts {
            steps,
            makespan: stats.makespan,
            refs: system.ref_stats().total(),
            bus_cycles: bus.total_cycles(),
            transactions: Transaction::ALL.iter().map(|&t| bus.tx_count(t)).sum(),
            lookups: system.access_stats().lookups,
            hits: system.access_stats().hits,
            lr_total: system.lock_stats().lr_total,
            lr_refused: system.lock_stats().lr_refused,
            reductions: 0,
            suspensions: 0,
        }
    }

    /// Adds `o` field by field.
    pub fn add(&mut self, o: &SimCounts) {
        self.steps += o.steps;
        self.makespan += o.makespan;
        self.refs += o.refs;
        self.bus_cycles += o.bus_cycles;
        self.transactions += o.transactions;
        self.lookups += o.lookups;
        self.hits += o.hits;
        self.lr_total += o.lr_total;
        self.lr_refused += o.lr_refused;
        self.reductions += o.reductions;
        self.suspensions += o.suspensions;
    }

    /// Every counter by name, for the repeat check.
    pub fn list(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("steps", self.steps),
            ("makespan", self.makespan),
            ("refs", self.refs),
            ("bus_cycles", self.bus_cycles),
            ("transactions", self.transactions),
            ("lookups", self.lookups),
            ("hits", self.hits),
            ("lr_total", self.lr_total),
            ("lr_refused", self.lr_refused),
            ("reductions", self.reductions),
            ("suspensions", self.suspensions),
        ]
    }

    /// Hits over lookups.
    pub fn hit_ratio(&self) -> f64 {
        self.hits as f64 / self.lookups.max(1) as f64
    }

    /// Refused lock reads over all lock-read attempts.
    pub fn lock_busy_frac(&self) -> f64 {
        self.lr_refused as f64 / (self.lr_total + self.lr_refused).max(1) as f64
    }

    /// Simulated bus cycles per committed memory operation.
    pub fn bus_cycles_per_access(&self) -> f64 {
        self.bus_cycles as f64 / self.refs.max(1) as f64
    }
}

/// Runs up to `max_steps` engine steps, through the timing shim when
/// `probe` is given.
fn drive<S: MemorySystem>(
    engine: &mut Engine<S>,
    process: &mut impl Process,
    probe: Option<&Probe>,
    max_steps: u64,
) -> Result<RunStats, SimError> {
    match probe {
        None => engine.run(process, max_steps),
        Some(p) => {
            let mut timed = TimedProcess::new(process, p);
            p.time_run(|| engine.run(&mut timed, max_steps))
        }
    }
}

/// Runs `process` to completion in chunks of `chunk` steps. After every
/// unfinished chunk, `between` runs (and may replace the engine, as a
/// checkpoint round trip does); it returns false after a failed check.
/// Each chunk is timed together with its `between`. Chunked runs are
/// bit-identical to one uninterrupted run. Returns the last chunk's
/// stats, the total steps and the chunk times, or `None` after a failed
/// check.
fn run_chunked<S: MemorySystem, P: Process>(
    engine: &mut Engine<S>,
    process: &mut P,
    probe: Option<&Probe>,
    chunk: u64,
    checks: &mut Checks,
    mut between: impl FnMut(&mut Engine<S>, &mut P, &mut Checks) -> bool,
) -> Option<(RunStats, u64, Vec<f64>)> {
    let mut steps = 0;
    let mut times = Vec::new();
    loop {
        let t = Instant::now();
        let stats = match drive(engine, process, probe, chunk) {
            Ok(stats) => stats,
            Err(e) => {
                checks.check("engine run", false, || e.to_string());
                return None;
            }
        };
        steps += stats.steps;
        let done = stats.finished || steps >= MAX_STEPS;
        if !done && !between(engine, process, checks) {
            return None;
        }
        times.push(secs(t));
        if done {
            return Some((stats, steps, times));
        }
    }
}

fn check_coherence(checks: &mut Checks, system: &PimSystem) {
    let verdict = system.check_coherence_invariants();
    checks.check("coherence invariants", verdict.is_ok(), || {
        verdict.err().unwrap_or_default()
    });
}

/// What one engine-driven operation produced.
#[derive(Debug, Default)]
pub struct RunOut {
    /// Its simulated counters.
    pub counts: SimCounts,
    /// The committed reference stream, when recording.
    pub trace: Vec<Access>,
    /// Wall time of each engine chunk, in order.
    pub chunks: Vec<f64>,
}

/// Runs `prog` to completion on `pes` PEs of the base PIM system and
/// checks it. With `record`, also returns the committed reference stream.
pub fn run_program(
    prog: &Program,
    pes: u32,
    probe: Option<&Rc<Probe>>,
    record: bool,
    checks: &mut Checks,
) -> RunOut {
    let system = PimSystem::new(config(pes));
    match probe {
        None => program_on(system, prog, pes, None, record, checks),
        Some(p) => program_on(
            TimedSystem::new(system, p.clone()),
            prog,
            pes,
            Some(p),
            record,
            checks,
        ),
    }
}

fn program_on<S: MemorySystem + AsPim>(
    system: S,
    prog: &Program,
    pes: u32,
    probe: Option<&Probe>,
    record: bool,
    checks: &mut Checks,
) -> RunOut {
    let block_words = system.pim().config().geometry.block_words;
    let mut cluster = Cluster::new(
        prog.compiled.clone(),
        ClusterConfig {
            pes,
            block_words,
            ..ClusterConfig::default()
        },
    );
    let (proc, args) = prog.bench.query(prog.scale);
    if let Err(e) = cluster.set_query(proc, args) {
        checks.check("query accepted", false, || e.to_string());
        return RunOut::default();
    }
    let mut engine = Engine::new(system, pes);
    if record {
        engine.record_trace();
    }
    let no_op = |_: &mut Engine<S>, _: &mut Cluster, _: &mut Checks| true;
    let Some((stats, steps, chunks)) =
        run_chunked(&mut engine, &mut cluster, probe, CHUNK, checks, no_op)
    else {
        return RunOut::default();
    };
    checks.check("run finished", stats.finished, || {
        format!("stopped after {steps} steps")
    });
    if let Some(msg) = cluster.failure() {
        checks.check("program succeeded", false, || msg.to_string());
    }
    let answer = engine.with_port(PeId(0), |port| cluster.extract(port, "R"));
    check_answer(checks, prog, answer.as_ref());
    check_coherence(checks, engine.system().pim());
    let mut counts = SimCounts::of(engine.system().pim(), &stats, steps);
    let machine = cluster.stats();
    counts.reductions = machine.reductions;
    counts.suspensions = machine.suspensions;
    RunOut {
        counts,
        trace: engine.take_trace(),
        chunks,
    }
}

/// Checks a program's answer against the oracle's.
pub fn check_answer(checks: &mut Checks, prog: &Program, answer: Option<&Term>) {
    checks.check(
        "answer matches workloads::reference::expected",
        answer == Some(&prog.expected),
        || match answer {
            Some(a) => format!("got {a}, want {}", prog.expected),
            None => "query variable R unbound".to_string(),
        },
    );
}

/// A replayable access stream that can be rewound to its start.
#[derive(Debug)]
pub struct Stream {
    /// Name for check messages.
    pub name: String,
    replayer: Replayer,
    /// Accesses in the stream.
    pub len: u64,
    start: Vec<u8>,
}

impl Stream {
    /// Splits `trace` into per-PE streams over `pes` PEs.
    pub fn new(name: String, trace: &[Access], pes: u32) -> Stream {
        let replayer = Replayer::from_merged(trace, pes);
        let mut w = pim_ckpt::Writer::new();
        replayer.save_ckpt(&mut w);
        Stream {
            name,
            replayer,
            len: trace.len() as u64,
            start: w.payload().to_vec(),
        }
    }

    fn rewind(&mut self) -> Result<(), pim_ckpt::CkptError> {
        self.replayer
            .restore_ckpt(&mut pim_ckpt::Reader::new(&self.start))
    }
}

/// Host time and bytes of the checkpoint round trips of a replay.
#[derive(Debug, Default, Clone, Copy)]
pub struct CkptTotals {
    pub save_s: f64,
    pub restore_s: f64,
    pub bytes: u64,
}

/// Replays `stream` through the engine on `pes` PEs of the base PIM
/// system. With `every` (a multiple of [`CHUNK`]), the run stops every
/// `every` steps for an in-memory checkpoint round trip and continues on
/// the restored engine, as a checkpointed run that resumes does.
pub fn replay(
    stream: &mut Stream,
    pes: u32,
    probe: Option<&Rc<Probe>>,
    every: Option<u64>,
    ckpt: &mut CkptTotals,
    checks: &mut Checks,
) -> RunOut {
    let config = config(pes);
    match probe {
        None => replay_on(
            || PimSystem::new(config.clone()),
            stream,
            pes,
            None,
            every,
            ckpt,
            checks,
        ),
        Some(p) => replay_on(
            || TimedSystem::new(PimSystem::new(config.clone()), p.clone()),
            stream,
            pes,
            Some(p),
            every,
            ckpt,
            checks,
        ),
    }
}

fn replay_on<S: MemorySystem + AsPim>(
    make: impl Fn() -> S,
    stream: &mut Stream,
    pes: u32,
    probe: Option<&Probe>,
    every: Option<u64>,
    ckpt: &mut CkptTotals,
    checks: &mut Checks,
) -> RunOut {
    if let Err(e) = stream.rewind() {
        checks.check("stream rewinds", false, || e.to_string());
        return RunOut::default();
    }
    let mut engine = Engine::new(make(), pes);
    let mut since = 0;
    let between = |engine: &mut Engine<S>, replayer: &mut Replayer, checks: &mut Checks| {
        since += CHUNK;
        if every.is_none_or(|every| since < every) {
            return true;
        }
        since = 0;
        match round_trip(engine, replayer, &make, pes, ckpt, checks) {
            Some(restored) => {
                *engine = restored;
                true
            }
            None => false,
        }
    };
    let Some((stats, steps, chunks)) = run_chunked(
        &mut engine,
        &mut stream.replayer,
        probe,
        CHUNK,
        checks,
        between,
    ) else {
        return RunOut::default();
    };
    checks.check("run finished", stats.finished, || {
        format!("stopped after {steps} steps")
    });
    let system = engine.system().pim();
    let committed = system.ref_stats().total();
    checks.check(
        "every replayed access committed",
        committed == stream.len,
        || format!("{committed} of {} accesses committed", stream.len),
    );
    check_coherence(checks, system);
    RunOut {
        counts: SimCounts::of(system, &stats, steps),
        trace: Vec::new(),
        chunks,
    }
}

/// Saves the engine and replayer to checkpoint bytes, restores them into a
/// fresh engine, and checks that the restored pair re-serializes to the
/// same bytes. Returns the restored engine.
fn round_trip<S: MemorySystem>(
    engine: &Engine<S>,
    replayer: &mut Replayer,
    make: &impl Fn() -> S,
    pes: u32,
    ckpt: &mut CkptTotals,
    checks: &mut Checks,
) -> Option<Engine<S>> {
    let t = Instant::now();
    let mut w = pim_ckpt::Writer::new();
    engine.save_ckpt(&mut w);
    replayer.save_ckpt(&mut w);
    let bytes = w.into_file_bytes();
    ckpt.save_s += secs(t);
    ckpt.bytes += bytes.len() as u64;

    let t = Instant::now();
    let mut restored = Engine::new(make(), pes);
    let result = pim_ckpt::read_file_bytes(&bytes).and_then(|payload| {
        let mut r = pim_ckpt::Reader::new(payload);
        restored.restore_ckpt(&mut r)?;
        replayer.restore_ckpt(&mut r)?;
        r.expect_end()
    });
    ckpt.restore_s += secs(t);
    if let Err(e) = result {
        checks.check("checkpoint restores", false, || e.to_string());
        return None;
    }

    let mut again = pim_ckpt::Writer::new();
    restored.save_ckpt(&mut again);
    replayer.save_ckpt(&mut again);
    let same = again.into_file_bytes() == bytes;
    checks.check(
        "restored engine re-serializes byte-identically",
        same,
        || format!("{}-byte checkpoint differs after restore", bytes.len()),
    );
    Some(restored)
}

/// Fills the per-layer metrics every engine-driven workload shares, from
/// one pass's simulated `counts` and the `probe` of the traced passes
/// (whose durations are `traced_s`). Returns the process's self time per
/// traced pass, which the caller books to the process's own layer.
pub fn fill_layers(
    l: &mut Layers,
    counts: &SimCounts,
    probe: &Probe,
    traced_s: &[f64],
    passes: &Passes,
) -> f64 {
    let n = traced_s.len().max(1) as f64;
    let split = probe.split();
    let accesses = probe.accesses.get().max(1) as f64;
    l.engine_self_s = split.engine_self_s / n;
    l.access_s = split.access_s / n;
    l.ns_per_access = split.access_s * 1e9 / accesses;
    l.allocs_per_access = probe.access_allocs.get() as f64 / accesses;
    l.sim_steps = counts.steps;
    l.useful_step_frac = probe.useful_steps.get() as f64 / probe.steps.get().max(1) as f64;
    l.makespan_cycles = counts.makespan;
    l.hit_ratio = counts.hit_ratio();
    l.lock_busy_frac = counts.lock_busy_frac();
    l.bus_cycles = counts.bus_cycles;
    l.bus_transactions = counts.transactions;
    l.bus_cycles_per_access = counts.bus_cycles_per_access();
    l.overhead_frac = passes.overhead_frac();
    l.timer_s = split.timer_s / n;
    l.other_s = traced_s.iter().sum::<f64>() / n - split.run_s / n;
    split.process_self_s / n
}
