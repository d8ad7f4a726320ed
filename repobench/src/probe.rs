//! Traced-run shims: wrappers around the two traits the engine is generic
//! over, timing the calls into each layer from outside the program.
//!
//! [`TimedProcess`] wraps a [`Process`] (the KL1 `Cluster` or the trace
//! `Replayer`); [`TimedSystem`] wraps a [`MemorySystem`] (`PimSystem`).
//! Timing every call with `Instant` would triple a replay's run time, so
//! the shims sample: one step in [`SAMPLE_EVERY`], and one access in
//! [`SAMPLE_EVERY`] outside the timed steps, picked by a fixed xorshift
//! sequence so the choice cannot alias with the scheduler's PE rotation.
//! A timed step times nothing inside it, so its clock reads do not
//! inflate it. Each sample is corrected by the calibrated cost of one
//! clock read and scaled up by the call count. Counts (steps, accesses,
//! allocations) are taken on every call and are exact.
//!
//! The layer self times follow from one directly timed total:
//! `Engine::run` time = engine self + process self + cache access + the
//! shims' own clock reads.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

use pim_bus::BusStats;
use pim_cache::{AccessStats, LockStats, Outcome, PimSystem, ProtocolError};
use pim_sim::MemorySystem;
use pim_trace::{Addr, AreaMap, MemOp, MemoryPort, PeId, Process, RefStats, StepOutcome, Word};

use crate::alloc;

/// One call in this many is timed.
pub const SAMPLE_EVERY: u64 = 32;

/// Counters shared by the two shims of the traced engines.
#[derive(Debug)]
pub struct Probe {
    rng: Cell<u64>,
    in_timed_step: Cell<bool>,
    /// Host cost of one `Instant::now()`, in ns.
    clock_ns: f64,
    /// Process step calls.
    pub steps: Cell<u64>,
    /// Steps that committed work (`Ran` or `Finished`).
    pub useful_steps: Cell<u64>,
    /// Steps timed.
    pub sampled_steps: Cell<u64>,
    /// Summed wall time of the timed steps.
    pub sampled_step_ns: Cell<u64>,
    /// Memory-system access calls.
    pub accesses: Cell<u64>,
    /// Accesses timed.
    pub sampled_accesses: Cell<u64>,
    /// Summed wall time of the timed accesses.
    pub sampled_access_ns: Cell<u64>,
    /// Allocations made inside process steps, nested accesses included.
    pub step_allocs: Cell<u64>,
    /// Allocations made inside memory-system accesses.
    pub access_allocs: Cell<u64>,
    /// Wall time inside `Engine::run`, timed directly.
    pub run_ns: Cell<u64>,
}

fn add(cell: &Cell<u64>, v: u64) {
    cell.set(cell.get() + v);
}

fn nanos(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The host cost of one `Instant::now()`: the fastest of a few batches.
fn clock_cost_ns() -> f64 {
    const READS: u32 = 2000;
    (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..READS {
                std::hint::black_box(Instant::now());
            }
            nanos(t) as f64 / f64::from(READS)
        })
        .fold(f64::INFINITY, f64::min)
}

impl Probe {
    /// A fresh probe with every counter at zero.
    pub fn new() -> Rc<Probe> {
        Rc::new(Probe {
            rng: Cell::new(0x9e37_79b9_7f4a_7c15),
            in_timed_step: Cell::new(false),
            clock_ns: clock_cost_ns(),
            steps: Cell::new(0),
            useful_steps: Cell::new(0),
            sampled_steps: Cell::new(0),
            sampled_step_ns: Cell::new(0),
            accesses: Cell::new(0),
            sampled_accesses: Cell::new(0),
            sampled_access_ns: Cell::new(0),
            step_allocs: Cell::new(0),
            access_allocs: Cell::new(0),
            run_ns: Cell::new(0),
        })
    }

    fn sample_next(&self) -> bool {
        let mut x = self.rng.get();
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng.set(x);
        x.is_multiple_of(SAMPLE_EVERY)
    }

    /// Runs `f` (an `Engine::run` call) and adds its wall time to
    /// [`Probe::run_ns`].
    pub fn time_run<T>(&self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        add(&self.run_ns, nanos(t));
        out
    }

    /// The host-time split of everything timed so far, in seconds.
    pub fn split(&self) -> Split {
        // Mean true duration of a call: each timed interval holds about
        // one clock read beyond the call itself.
        let mean = |ns: &Cell<u64>, n: &Cell<u64>| {
            let n = n.get();
            if n == 0 {
                0.0
            } else {
                (ns.get() as f64 / n as f64 - self.clock_ns).max(0.0)
            }
        };
        let step = mean(&self.sampled_step_ns, &self.sampled_steps) * self.steps.get() as f64;
        let access =
            mean(&self.sampled_access_ns, &self.sampled_accesses) * self.accesses.get() as f64;
        // Two clock reads per timed call.
        let timer =
            2.0 * self.clock_ns * (self.sampled_steps.get() + self.sampled_accesses.get()) as f64;
        let run = self.run_ns.get() as f64;
        Split {
            run_s: run / 1e9,
            engine_self_s: (run - timer - step) / 1e9,
            process_self_s: (step - access) / 1e9,
            access_s: access / 1e9,
            timer_s: timer / 1e9,
        }
    }
}

/// Host time inside `Engine::run`, split by layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct Split {
    /// Everything inside `Engine::run`.
    pub run_s: f64,
    /// The scheduler loop: run time minus process steps and clock reads.
    pub engine_self_s: f64,
    /// Process step time minus the nested memory accesses.
    pub process_self_s: f64,
    /// Memory-system access time.
    pub access_s: f64,
    /// The shims' own clock reads.
    pub timer_s: f64,
}

/// A [`Process`] whose steps are counted and sampled.
pub struct TimedProcess<'a, P> {
    inner: &'a mut P,
    probe: &'a Probe,
}

impl<'a, P> TimedProcess<'a, P> {
    /// Wraps `inner`, reporting into `probe`.
    pub fn new(inner: &'a mut P, probe: &'a Probe) -> TimedProcess<'a, P> {
        TimedProcess { inner, probe }
    }
}

impl<P: Process> Process for TimedProcess<'_, P> {
    fn pe_count(&self) -> u32 {
        self.inner.pe_count()
    }

    fn step(&mut self, pe: PeId, port: &mut dyn MemoryPort) -> StepOutcome {
        let p = self.probe;
        add(&p.steps, 1);
        let allocs = alloc::count();
        let out = if p.sample_next() {
            p.in_timed_step.set(true);
            let t = Instant::now();
            let out = self.inner.step(pe, port);
            add(&p.sampled_step_ns, nanos(t));
            p.in_timed_step.set(false);
            add(&p.sampled_steps, 1);
            out
        } else {
            self.inner.step(pe, port)
        };
        add(&p.step_allocs, alloc::count() - allocs);
        if matches!(out, StepOutcome::Ran | StepOutcome::Finished) {
            add(&p.useful_steps, 1);
        }
        out
    }
}

/// A [`MemorySystem`] whose accesses are counted and sampled.
pub struct TimedSystem<S> {
    inner: S,
    probe: Rc<Probe>,
}

impl<S> TimedSystem<S> {
    /// Wraps `inner`, reporting into `probe`.
    pub fn new(inner: S, probe: Rc<Probe>) -> TimedSystem<S> {
        TimedSystem { inner, probe }
    }
}

/// Access to the PIM system behind an engine, wrapped or not.
pub trait AsPim {
    /// The PIM system.
    fn pim(&self) -> &PimSystem;
}

impl AsPim for PimSystem {
    fn pim(&self) -> &PimSystem {
        self
    }
}

impl AsPim for TimedSystem<PimSystem> {
    fn pim(&self) -> &PimSystem {
        &self.inner
    }
}

impl<S: MemorySystem> MemorySystem for TimedSystem<S> {
    fn access(
        &mut self,
        pe: PeId,
        op: MemOp,
        addr: Addr,
        data: Option<Word>,
    ) -> Result<Outcome, ProtocolError> {
        let p = &*self.probe;
        add(&p.accesses, 1);
        let allocs = alloc::count();
        let out = if !p.in_timed_step.get() && p.sample_next() {
            let t = Instant::now();
            let out = self.inner.access(pe, op, addr, data);
            add(&p.sampled_access_ns, nanos(t));
            add(&p.sampled_accesses, 1);
            out
        } else {
            self.inner.access(pe, op, addr, data)
        };
        add(&p.access_allocs, alloc::count() - allocs);
        out
    }

    fn area_map(&self) -> &AreaMap {
        self.inner.area_map()
    }

    fn poke(&mut self, addr: Addr, value: Word) {
        self.inner.poke(addr, value)
    }

    fn peek(&self, addr: Addr) -> Word {
        self.inner.peek(addr)
    }

    fn bus_stats(&self) -> &BusStats {
        self.inner.bus_stats()
    }

    fn ref_stats(&self) -> &RefStats {
        self.inner.ref_stats()
    }

    fn access_stats(&self) -> &AccessStats {
        self.inner.access_stats()
    }

    fn lock_stats(&self) -> &LockStats {
        self.inner.lock_stats()
    }

    fn set_now(&mut self, cycle: u64) {
        self.inner.set_now(cycle)
    }

    fn save_ckpt(&self, w: &mut pim_ckpt::Writer) {
        self.inner.save_ckpt(w)
    }

    fn restore_ckpt(&mut self, r: &mut pim_ckpt::Reader<'_>) -> Result<(), pim_ckpt::CkptError> {
        self.inner.restore_ckpt(r)
    }
}
