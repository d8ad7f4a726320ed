//! The deterministic parallel engine.
//!
//! Shards the per-PE cache simulators across worker threads and
//! synchronizes them in fixed-length epochs, with every bus transaction
//! resolved by the same pure `(cycle, PE id)` arbitration the sequential
//! engine uses — so the result is bit-identical to [`crate::Engine`] at
//! any thread count.
//!
//! # How it stays bit-identical
//!
//! The sequential engine executes one legal serialization: the runnable
//! PE with the lowest `(clock, id)` steps next. Observe that a **local**
//! operation — a resident cache hit with no bus transaction — touches
//! only its own PE's shard, so it commutes with every other PE's
//! concurrent local work. Only **global** operations (misses, upgrades,
//! DW allocations, every lock operation) read or write shared state.
//!
//! So the engine runs in epochs:
//!
//! 1. **Speculate** — worker threads run each PE forward through its own
//!    shard ([`SystemShard::try_local`]) for up to an epoch's worth of
//!    operations, journaling one block address per op in an undo log.
//!    A PE stops early at its first global operation.
//! 2. **Barrier** — the coordinator repeatedly takes the *frontier
//!    minimum*: the pending global with the lowest `(cycle, PE id)`
//!    among all lanes, provided every other lane has already speculated
//!    past that position (otherwise it speculates them further first).
//!    The global runs through the shared system exactly as the
//!    sequential engine would have run it, with bus arbitration from
//!    [`pim_bus::arbitrate`].
//! 3. **Truncate** — if a global at position `(g, p)` touches a block
//!    that another lane speculatively accessed at a position *after*
//!    `(g, p)`, that lane's journal is rolled back (bit-exactly, via the
//!    cache undo log) to just before the first such access and re-run
//!    later. Accesses *before* `(g, p)` are unaffected: the global
//!    correctly observes them.
//! 4. **Commit** — journal entries below the minimum frontier over all
//!    lanes can never be truncated again (processed globals are strictly
//!    increasing in `(cycle, id)` order) and are folded into the
//!    shard-local statistics.
//!
//! Idle polls of exhausted PEs never touch memory, so they are
//! reconstructed in closed form at the end of the run instead of being
//! interleaved, and the finishing step is charged exactly like the
//! sequential scheduler would have.
//!
//! Determinism: nothing in the result depends on thread scheduling —
//! workers only ever mutate their own lane, and the coordinator's merge
//! order is a pure function of the simulated clocks. `--threads 8` and
//! `--threads 2` produce byte-identical reports.
//!
//! # Divergence caveats
//!
//! * `max_steps` is a safety valve: a run that exceeds it stops with
//!   `finished == false`, but its partial clocks are not comparable to
//!   the sequential engine's partial state (completed runs are).
//! * A replay in which blocked PEs can never be woken (a lock held by an
//!   exhausted stream) returns [`SimError::ReplayStuck`] instead of
//!   idling up to the step budget; a closed lock wait-for cycle returns
//!   [`SimError::Deadlock`] the moment the deadlock detector sees it.

use crate::system::{ShardedSystem, SystemShard};
use crate::{Process, RunStats, SimError};
use pim_cache::Outcome;
use pim_fault::{arbitrate_with_faults, find_cycle, FaultPlan, FaultStats};
use pim_obs::{Observer, PeCycles};
use pim_trace::{Addr, MemOp, PeId, Word};
use std::collections::HashMap;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};

/// One PE's private slice of a [`ShardableProcess`]: a rewindable stream
/// of operations, owned by a worker thread between barriers.
pub trait ProcessShard: Send {
    /// The next operation, without consuming it. `None` when exhausted.
    fn peek(&self) -> Option<(MemOp, Addr, Option<Word>)>;

    /// Consumes the operation returned by [`ProcessShard::peek`].
    fn advance(&mut self);

    /// Current stream position (monotone under [`ProcessShard::advance`]).
    fn position(&self) -> usize;

    /// Rewinds to an earlier [`ProcessShard::position`] after a
    /// speculation rollback; the replayed operations must be identical.
    fn rewind(&mut self, position: usize);
}

/// A [`Process`] whose per-PE streams can be split into owned
/// [`ProcessShard`]s for the parallel engine, then reassembled.
pub trait ShardableProcess: Process {
    /// The owned per-PE stream type.
    type Shard: ProcessShard;

    /// Moves the per-PE streams out, in PE order.
    fn take_shards(&mut self) -> Vec<Self::Shard>;

    /// Restores streams previously taken, in the same PE order.
    fn put_shards(&mut self, shards: Vec<Self::Shard>);
}

/// Journal cap per speculation phase: the epoch length.
const DEFAULT_EPOCH_OPS: usize = 1024;
/// Soft cap on any lane's uncommitted journal; the frontier-minimum lane
/// may exceed it (progress requires it), everyone else parks.
const MAX_JOURNAL: usize = 1 << 16;

/// What a lane is doing, as seen at a barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// Can speculate further.
    Ready,
    /// Hit the epoch or journal cap; can speculate further when asked.
    Capped,
    /// Parked at a global operation to run at `(clock, pe)`.
    Global(MemOp, Addr, Option<Word>),
    /// Stalled on a refused lock; retries the stored op when woken.
    Blocked(MemOp, Addr, Option<Word>),
    /// Stream fully replayed (as of the current speculation).
    Exhausted,
}

/// One PE's complete runtime state: its system shard, its stream shard,
/// and the speculation journal tying them together.
struct Lane<SS, PS> {
    pe: usize,
    shard: Option<SS>,
    proc: Option<PS>,
    /// Block base touched by each uncommitted local op. Entry `i` was
    /// issued at cycle `start_clock + i` (local ops are 1 cycle each).
    journal: Vec<Addr>,
    /// Block base → ascending journal indices touching it.
    touched: HashMap<Addr, Vec<u32>>,
    start_clock: u64,
    clock: u64,
    /// Stream position at `journal[0]`.
    proc_base: usize,
    status: Status,
    /// Clock at stream exhaustion (valid while `status == Exhausted`).
    exhausted_at: u64,
    /// Issue position of the lane's latest op (journal or committed).
    last_issue: Option<(u64, u32)>,
    /// `last_issue` as of the journal start, for rollback to empty.
    base_issue: Option<(u64, u32)>,
    account: PeCycles,
    /// Per-phase journal cap (raised for the frontier-minimum lane).
    cap: usize,
    /// While `status == Blocked`: the holder of the refusing lock —
    /// this lane's out-edge in the deadlock detector's wait-for graph.
    blocked_on: Option<PeId>,
}

/// Unwraps a lane slot (`shard`/`proc`/scheduler slot) that is `None`
/// only while the lane is parked in the scheduler's slot table — never
/// while the lane is being driven.
fn live<T>(slot: Option<T>) -> T {
    match slot {
        Some(v) => v,
        None => unreachable!("lane slot empty while the lane is running"),
    }
}

impl<SS: SystemShard, PS: ProcessShard> Lane<SS, PS> {
    /// Issue position of the next operation this lane could run.
    fn frontier(&self) -> (u64, u32) {
        (self.clock, self.pe as u32)
    }

    /// Commits the whole journal into the shard-local stats.
    fn commit(&mut self, committed_steps: &mut u64) {
        live(self.shard.as_mut()).commit_speculation();
        *committed_steps += self.journal.len() as u64;
        self.journal.clear();
        self.touched.clear();
        self.start_clock = self.clock;
        self.proc_base = live(self.proc.as_ref()).position();
        self.base_issue = self.last_issue;
    }

    /// Rolls everything from journal index `k` on back out of the shard
    /// and the stream, bit-exactly.
    fn truncate(&mut self, k: usize) {
        debug_assert!(k < self.journal.len());
        for idx in k..self.journal.len() {
            let b = self.journal[idx];
            if let Some(v) = self.touched.get_mut(&b) {
                while v.last().is_some_and(|&x| x as usize >= k) {
                    v.pop();
                }
                if v.is_empty() {
                    self.touched.remove(&b);
                }
            }
        }
        live(self.shard.as_mut()).rollback_to(k);
        live(self.proc.as_mut()).rewind(self.proc_base + k);
        self.journal.truncate(k);
        self.clock = self.start_clock + k as u64;
        self.last_issue = if k > 0 {
            Some((self.start_clock + k as u64 - 1, self.pe as u32))
        } else {
            self.base_issue
        };
        self.status = Status::Ready;
    }

    /// First journal index on `block` issued lexicographically after the
    /// global at `(g, p)`, if any.
    fn first_conflict(&self, block: Addr, g: u64, p: u32) -> Option<usize> {
        let v = self.touched.get(&block)?;
        // (start + idx, pe) > (g, p)  ⇔  start + idx >= threshold.
        let threshold = if (self.pe as u32) > p { g } else { g + 1 };
        let idx_min = threshold.saturating_sub(self.start_clock);
        let at = v.partition_point(|&x| (x as u64) < idx_min);
        v.get(at).map(|&x| x as usize)
    }
}

/// Runs one lane forward through purely local operations. Worker-side:
/// touches nothing but the lane.
fn speculate<SS: SystemShard, PS: ProcessShard>(lane: &mut Lane<SS, PS>, epoch_ops: usize) {
    let shard = live(lane.shard.as_mut());
    let mut done = 0;
    loop {
        if lane.journal.len() >= lane.cap || done >= epoch_ops {
            lane.status = Status::Capped;
            return;
        }
        match live(lane.proc.as_ref()).peek() {
            None => {
                lane.status = Status::Exhausted;
                lane.exhausted_at = lane.clock;
                return;
            }
            // The op issues at `lane.clock + 1`: the sequential engine
            // charges the access cycle before the system sees it, so the
            // stamp on buffered events must match that convention.
            Some((op, addr, data)) => match shard.try_local(op, addr, data, lane.clock + 1) {
                Some(_) => {
                    let b = shard.block_base(addr);
                    let i = lane.journal.len() as u32;
                    lane.journal.push(b);
                    lane.touched.entry(b).or_default().push(i);
                    lane.last_issue = Some((lane.clock, lane.pe as u32));
                    lane.clock += 1;
                    live(lane.proc.as_mut()).advance();
                    done += 1;
                }
                None => {
                    lane.status = Status::Global(op, addr, data);
                    return;
                }
            },
        }
    }
}

/// The parallel engine: a [`ShardedSystem`] plus PE clocks, the shared
/// bus clock, and a worker pool. Drop-in for [`crate::Engine`] on
/// processes that implement [`ShardableProcess`]; produces bit-identical
/// [`RunStats`] and system statistics at any `threads` value.
///
/// # Examples
///
/// ```
/// use pim_cache::{PimSystem, SystemConfig};
/// use pim_sim::{ParallelEngine, Replayer};
/// use pim_trace::{Access, AreaMap, MemOp, PeId, StorageArea};
///
/// let map = AreaMap::standard();
/// let heap = map.base(StorageArea::Heap);
/// let trace = vec![
///     Access::new(PeId(0), MemOp::DirectWrite, heap, StorageArea::Heap),
///     Access::new(PeId(1), MemOp::Read, heap, StorageArea::Heap),
/// ];
/// let mut replayer = Replayer::from_merged(&trace, 2);
/// let mut engine = ParallelEngine::new(
///     PimSystem::new(SystemConfig { pes: 2, ..Default::default() }),
///     2,
/// );
/// engine.set_threads(2);
/// let stats = engine.run(&mut replayer, 1_000).expect("fault-free run");
/// assert!(stats.finished);
/// assert_eq!(engine.system().ref_stats().total(), 2);
/// ```
pub struct ParallelEngine<S> {
    system: S,
    clocks: Vec<u64>,
    bus_free: u64,
    idle_poll_cycles: u64,
    accounts: Vec<PeCycles>,
    observer: Option<Box<dyn Observer>>,
    threads: usize,
    epoch_ops: usize,
    fault_plan: Option<FaultPlan>,
    fault_stats: FaultStats,
    watchdog: Option<u64>,
    /// For each PE blocked on a refused lock when the last `run` call
    /// paused: the holder it waits on. Re-entering `run` reconstructs the
    /// lane as `Blocked` from this instead of re-issuing (and
    /// re-counting) the refused operation.
    parked: Vec<Option<PeId>>,
    /// Issue position of each PE's latest committed operation, carried
    /// across `run` calls for the closed-form idle-poll replay.
    last_issues: Vec<Option<(u64, u32)>>,
}

impl<S: ShardedSystem> ParallelEngine<S> {
    /// Wraps a sharded memory system for `pes` processing elements.
    /// Defaults to one worker per available hardware thread.
    pub fn new(system: S, pes: u32) -> ParallelEngine<S> {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        ParallelEngine {
            system,
            clocks: vec![0; pes as usize],
            bus_free: 0,
            idle_poll_cycles: 16,
            accounts: vec![PeCycles::default(); pes as usize],
            observer: None,
            threads,
            epoch_ops: DEFAULT_EPOCH_OPS,
            fault_plan: None,
            fault_stats: FaultStats::new(),
            watchdog: None,
            parked: vec![None; pes as usize],
            last_issues: vec![None; pes as usize],
        }
    }

    /// Attaches a deterministic fault plan — the same plan, seed for
    /// seed, as [`crate::Engine::set_fault_plan`]. Fault decisions key
    /// on `(seed, issue cycle, pe)`, all engine-independent, so a
    /// faulted parallel run stays bit-identical to the faulted
    /// sequential run at any thread count. Speculated local work that
    /// raced ahead of a fault-delayed global is rolled back through the
    /// speculation undo journals, exactly like any other conflict.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault_plan = plan.is_active().then_some(plan);
    }

    /// Counters for the faults injected and recovered so far.
    pub fn fault_stats(&self) -> &FaultStats {
        &self.fault_stats
    }

    /// Arms the livelock/starvation watchdog: if any PE's clock passes
    /// `budget` cycles before the process finishes, the run stops with
    /// [`SimError::WatchdogExpired`]. Thread-count independent: the
    /// check runs at the deterministic coordinator loop, not on worker
    /// threads.
    pub fn set_watchdog(&mut self, budget: u64) {
        self.watchdog = Some(budget);
    }

    /// Sets the worker-thread count (clamped to at least 1). With one
    /// thread the same algorithm runs inline on the coordinator — the
    /// result is identical either way, by construction.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// Sets the epoch length: how many local operations one lane may
    /// speculate per phase. Purely a scheduling knob — results are
    /// independent of it.
    pub fn set_epoch_ops(&mut self, ops: usize) {
        self.epoch_ops = ops.max(1);
    }

    /// Sets how far an idle PE's clock advances per empty poll.
    pub fn set_idle_poll_cycles(&mut self, cycles: u64) {
        self.idle_poll_cycles = cycles.max(1);
    }

    /// Attaches an observer receiving bus-grant and lock-wait events, in
    /// the exact order the sequential engine would emit them.
    pub fn set_observer(&mut self, observer: Box<dyn Observer>) {
        self.observer = Some(observer);
    }

    /// The wrapped memory system.
    pub fn system(&self) -> &S {
        &self.system
    }

    /// Consumes the engine, returning the memory system.
    pub fn into_system(self) -> S {
        self.system
    }

    /// The per-PE cycle accounting so far; same derivation as
    /// [`crate::Engine::pe_cycles`].
    pub fn pe_cycles(&self) -> Vec<PeCycles> {
        self.accounts
            .iter()
            .zip(self.clocks.iter())
            .map(|(acct, &clock)| PeCycles {
                busy: clock - acct.bus_wait - acct.lock_wait - acct.idle,
                ..*acct
            })
            .collect()
    }

    /// Checkpoint hook: serializes the wrapped system and the engine's
    /// scheduling state — PE clocks, bus clock, cycle accounts, fault
    /// counters, parked (lock-blocked) PEs, and last-issue positions.
    /// Valid between `run` calls only: a paused engine holds no
    /// uncommitted speculation (the budget break rolls it back), so this
    /// state plus the process cursors is the complete machine.
    pub fn save_ckpt(&self, w: &mut pim_ckpt::Writer) {
        self.system.save_ckpt(w);
        w.put_u64s(&self.clocks);
        w.put_u64(self.bus_free);
        w.put_u64(self.idle_poll_cycles);
        for acct in &self.accounts {
            w.put_u64(acct.busy);
            w.put_u64(acct.bus_wait);
            w.put_u64(acct.lock_wait);
            w.put_u64(acct.idle);
        }
        self.fault_stats.save_ckpt(w);
        w.put_len(self.parked.len());
        for holder in &self.parked {
            w.put_opt_u64(holder.map(|pe| pe.0 as u64));
        }
        for issue in &self.last_issues {
            match issue {
                Some((cycle, pe)) => {
                    w.put_bool(true);
                    w.put_u64(*cycle);
                    w.put_u32(*pe);
                }
                None => w.put_bool(false),
            }
        }
    }

    /// Checkpoint hook: restores an engine saved by
    /// [`ParallelEngine::save_ckpt`] (or by [`crate::Engine::save_ckpt`]
    /// — the formats differ; use matching engine kinds) into an engine
    /// built over a system of identical configuration.
    ///
    /// # Errors
    ///
    /// [`pim_ckpt::CkptError::Mismatch`] when the PE count disagrees, or
    /// any nested restore fails.
    pub fn restore_ckpt(
        &mut self,
        r: &mut pim_ckpt::Reader<'_>,
    ) -> Result<(), pim_ckpt::CkptError> {
        self.system.restore_ckpt(r)?;
        let clocks = r.get_u64s()?;
        if clocks.len() != self.clocks.len() {
            return Err(pim_ckpt::CkptError::Mismatch {
                detail: format!(
                    "engine has {} PEs, checkpoint has {}",
                    self.clocks.len(),
                    clocks.len()
                ),
            });
        }
        self.clocks = clocks;
        self.bus_free = r.get_u64()?;
        self.idle_poll_cycles = r.get_u64()?.max(1);
        for acct in self.accounts.iter_mut() {
            acct.busy = r.get_u64()?;
            acct.bus_wait = r.get_u64()?;
            acct.lock_wait = r.get_u64()?;
            acct.idle = r.get_u64()?;
        }
        self.fault_stats.restore_ckpt(r)?;
        let n = r.get_len()?;
        if n != self.parked.len() {
            return Err(pim_ckpt::CkptError::Mismatch {
                detail: format!("parked set for {n} PEs, engine has {}", self.parked.len()),
            });
        }
        for holder in self.parked.iter_mut() {
            *holder = r.get_opt_u64()?.map(|v| PeId(v as u32));
        }
        for issue in self.last_issues.iter_mut() {
            *issue = if r.get_bool()? {
                Some((r.get_u64()?, r.get_u32()?))
            } else {
                None
            };
        }
        Ok(())
    }

    /// Runs `process` to completion (or until `max_steps`), bit-identical
    /// to [`crate::Engine::run`] on the same system and process.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Deadlock`] on a lock wait-for cycle,
    /// [`SimError::Protocol`] on lock misuse, [`SimError::ReplayStuck`]
    /// when blocked PEs can never be woken, and
    /// [`SimError::WatchdogExpired`] past a configured watchdog budget.
    /// Shards are reassembled before returning, so the process and
    /// system stay inspectable after a failure.
    pub fn run<P: ShardableProcess>(
        &mut self,
        process: &mut P,
        max_steps: u64,
    ) -> Result<RunStats, SimError> {
        assert_eq!(
            process.pe_count() as usize,
            self.clocks.len(),
            "process/engine PE count mismatch"
        );
        let _perf = pim_perf::span(pim_perf::phase::ENGINE_RUN);
        let pes = self.clocks.len();
        self.system.begin_sharded_run();
        let sys_shards = self.system.take_shards();
        let proc_shards = process.take_shards();
        assert_eq!(sys_shards.len(), pes, "system shard count mismatch");
        assert_eq!(proc_shards.len(), pes, "process shard count mismatch");

        let mut lanes: Vec<Lane<S::Shard, P::Shard>> = sys_shards
            .into_iter()
            .zip(proc_shards)
            .enumerate()
            .map(|(pe, (shard, proc))| {
                // A lane parked on a refused lock by an earlier `run`
                // call resumes as Blocked on the same (still pending)
                // operation — its refusal was already counted, and its
                // waiter entry is already registered in the holder's
                // lock directory.
                let status = match (self.parked[pe], proc.peek()) {
                    (Some(_), Some((op, addr, data))) => Status::Blocked(op, addr, data),
                    _ => Status::Ready,
                };
                Lane {
                    pe,
                    shard: Some(shard),
                    proc_base: proc.position(),
                    proc: Some(proc),
                    journal: Vec::new(),
                    touched: HashMap::new(),
                    start_clock: self.clocks[pe],
                    clock: self.clocks[pe],
                    status,
                    exhausted_at: 0,
                    last_issue: self.last_issues[pe],
                    base_issue: self.last_issues[pe],
                    account: self.accounts[pe],
                    cap: MAX_JOURNAL,
                    blocked_on: self.parked[pe],
                }
            })
            .collect();

        let outcome = self.drive(&mut lanes, max_steps);

        let mut sys_back = Vec::with_capacity(pes);
        let mut proc_back = Vec::with_capacity(pes);
        for mut lane in lanes {
            self.clocks[lane.pe] = lane.clock;
            self.accounts[lane.pe] = lane.account;
            self.parked[lane.pe] = match lane.status {
                Status::Blocked(..) => lane.blocked_on,
                _ => None,
            };
            self.last_issues[lane.pe] = lane.last_issue;
            match (lane.shard.take(), lane.proc.take()) {
                (Some(shard), Some(proc)) => {
                    sys_back.push(shard);
                    proc_back.push(proc);
                }
                _ => unreachable!("lane shards are home outside worker phases"),
            }
        }
        self.system.put_shards(sys_back);
        self.system.fold_shard_stats();
        process.put_shards(proc_back);

        let (steps, finished) = outcome?;
        Ok(RunStats {
            steps,
            pe_clocks: self.clocks.clone(),
            pe_cycles: self.pe_cycles(),
            makespan: self.clocks.iter().copied().max().unwrap_or(0),
            finished,
        })
    }

    /// The coordinator loop, with the worker pool in scope.
    fn drive<PS: ProcessShard>(
        &mut self,
        lanes: &mut [Lane<S::Shard, PS>],
        max_steps: u64,
    ) -> Result<(u64, bool), SimError> {
        let epoch_ops = self.epoch_ops;
        let workers = if self.threads > 1 {
            self.threads.min(lanes.len())
        } else {
            0
        };
        let (job_tx, job_rx) = mpsc::channel::<Lane<S::Shard, PS>>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        let (done_tx, done_rx) = mpsc::channel::<Lane<S::Shard, PS>>();

        std::thread::scope(|scope| {
            for _ in 0..workers {
                let rx = Arc::clone(&job_rx);
                let tx = done_tx.clone();
                scope.spawn(move || loop {
                    // Workers block in recv (holding the mutex only while
                    // idle — no spinning); a closed channel ends them.
                    let job = match rx.lock() {
                        Ok(guard) => guard,
                        Err(poisoned) => poisoned.into_inner(),
                    }
                    .recv();
                    let Ok(mut lane) = job else { break };
                    speculate(&mut lane, epoch_ops);
                    if tx.send(lane).is_err() {
                        break;
                    }
                });
            }

            // Committed-step counters; locals count on journal commit.
            let mut steps_ops = 0u64;
            let mut steps_stalls = 0u64;
            let mut steps_locals = 0u64;
            let mut finished = false;
            let mut error: Option<SimError> = None;

            // Lanes are moved out for worker phases; `slots` tracks them.
            let mut slots: Vec<Option<Lane<S::Shard, PS>>> =
                (0..lanes.len()).map(|_| None).collect();
            // `lanes` stays the single source of truth outside phases.

            loop {
                // Commit every journal wholly below the minimum frontier
                // over *actionable* lanes: every future global runs at or
                // above that bound (a blocked lane's retry lands strictly
                // after the global that wakes it), so nothing can truncate
                // those entries any more.
                let commit_min = lanes
                    .iter()
                    .filter(|l| {
                        matches!(
                            l.status,
                            Status::Ready | Status::Capped | Status::Global(..)
                        )
                    })
                    .map(Lane::frontier)
                    .min();
                for lane in lanes.iter_mut() {
                    if lane.journal.is_empty() {
                        continue;
                    }
                    let last = (lane.clock - 1, lane.pe as u32);
                    if commit_min.is_none_or(|m| last < m) {
                        lane.commit(&mut steps_locals);
                    }
                }

                // Safety budget, checked on *committed* steps only. On a
                // break, every uncommitted journal is rolled back
                // bit-exactly, so the engine pauses at the committed
                // prefix — a legal serialization prefix the uninterrupted
                // run also passes through — and a later `run` call
                // re-speculates the rolled-back work identically (the
                // same invariance that makes epoch length a pure
                // scheduling knob). Speculation may overshoot the budget
                // before the check fires; the overshoot is rolled back.
                if steps_ops + steps_stalls + steps_locals >= max_steps {
                    for lane in lanes.iter_mut() {
                        if !lane.journal.is_empty() {
                            lane.truncate(0);
                        }
                    }
                    finished = false;
                    break;
                }

                // Livelock/starvation watchdog. The coordinator loop's
                // iteration sequence is a pure function of the simulated
                // state, so the check fires identically at any thread
                // count.
                if let Some(budget) = self.watchdog {
                    let over = lanes
                        .iter()
                        .filter(|l| l.clock > budget)
                        .map(Lane::frontier)
                        .min();
                    if let Some((clock, pe)) = over {
                        let pe = PeId(pe);
                        if let Some(obs) = self.observer.as_deref_mut() {
                            obs.watchdog(pe, clock, budget);
                        }
                        error = Some(SimError::WatchdogExpired { pe, clock, budget });
                        break;
                    }
                }

                // The actionable minimum: the lowest-position pending
                // global, or the lowest extendable lane if it is lower.
                let next_global = lanes
                    .iter()
                    .filter(|l| matches!(l.status, Status::Global(..)))
                    .map(Lane::frontier)
                    .min();
                let next_ext = lanes
                    .iter()
                    .filter(|l| matches!(l.status, Status::Ready | Status::Capped))
                    .map(Lane::frontier)
                    .min();

                match (next_ext, next_global) {
                    (None, None) => {
                        let blocked: Vec<PeId> = lanes
                            .iter()
                            .filter(|l| matches!(l.status, Status::Blocked(..)))
                            .map(|l| PeId(l.pe as u32))
                            .collect();
                        if blocked.is_empty() {
                            finished = true;
                        } else if blocked.len() == lanes.len() {
                            // All blocked: with on-block cycle detection
                            // this fallback should be unreachable, but
                            // report it structurally rather than hang.
                            error = Some(deadlock_error(lanes, self.observer.as_deref_mut()));
                        } else {
                            // Blocked PEs whose holders' streams are
                            // exhausted can never be woken.
                            error = Some(SimError::ReplayStuck { pes: blocked });
                        }
                        break;
                    }
                    (Some(e), g) if g.is_none_or(|g| e < g) => {
                        // Speculation phase: extend every willing lane;
                        // the frontier-minimum lane may exceed the soft
                        // journal cap so the run always progresses.
                        let mut spec: Vec<usize> = Vec::new();
                        for lane in lanes.iter_mut() {
                            let eligible = match lane.status {
                                Status::Ready => true,
                                Status::Capped => {
                                    lane.journal.len() < MAX_JOURNAL || lane.frontier() == e
                                }
                                _ => false,
                            };
                            if eligible {
                                lane.cap = if lane.frontier() == e {
                                    lane.journal.len().saturating_add(epoch_ops)
                                } else {
                                    MAX_JOURNAL
                                };
                                spec.push(lane.pe);
                            }
                        }
                        if workers == 0 || spec.len() == 1 {
                            for &i in &spec {
                                speculate(&mut lanes[i], epoch_ops);
                            }
                        } else {
                            // The whole fan-out/drain is the epoch
                            // barrier: coordinator time spent parked on
                            // the worker pool, the parallel engine's
                            // dominant overhead on few-core hosts.
                            let _barrier = pim_perf::span(pim_perf::phase::EPOCH_BARRIER);
                            for &i in &spec {
                                let lane = std::mem::replace(
                                    &mut lanes[i],
                                    // An empty shell parks in the slot
                                    // until the worker returns the lane;
                                    // nothing reads it in between.
                                    Lane {
                                        pe: i,
                                        shard: None,
                                        proc: None,
                                        journal: Vec::new(),
                                        touched: HashMap::new(),
                                        start_clock: 0,
                                        clock: 0,
                                        proc_base: 0,
                                        status: Status::Exhausted,
                                        exhausted_at: 0,
                                        last_issue: None,
                                        base_issue: None,
                                        blocked_on: None,
                                        account: PeCycles::default(),
                                        cap: 0,
                                    },
                                );
                                if job_tx.send(lane).is_err() {
                                    unreachable!("worker pool hung up mid-phase");
                                }
                            }
                            for _ in 0..spec.len() {
                                let Ok(lane) = done_rx.recv() else {
                                    unreachable!("worker pool hung up mid-phase");
                                };
                                let pe = lane.pe;
                                slots[pe] = Some(lane);
                            }
                            for &i in &spec {
                                lanes[i] = live(slots[i].take());
                            }
                        }
                    }
                    (_, Some((g, p))) => {
                        let _replay = pim_perf::span(pim_perf::phase::COORD_REPLAY);
                        if let Err(e) = self.process_global(
                            lanes,
                            p as usize,
                            g,
                            &mut steps_ops,
                            &mut steps_stalls,
                        ) {
                            error = Some(e);
                            break;
                        }
                    }
                    (Some(_), None) => unreachable!("guard covers this arm"),
                }
            }

            // Unblock the workers before any return: they hold no lanes
            // (every speculation phase drains fully), so dropping the
            // job channel ends them cleanly even on the error path.
            drop(job_tx);
            if let Some(e) = error {
                return Err(e);
            }
            let mut steps = steps_ops + steps_stalls + steps_locals;
            if finished {
                steps += self.settle_idle(lanes);
                steps += 1; // the scheduling step that observed Finished
            } else {
                steps = steps.min(max_steps);
            }
            Ok((steps, finished))
        })
    }

    /// Runs the pending global of lane `p`, exactly as the sequential
    /// engine would at schedule position `(g, p)`.
    fn process_global<PS: ProcessShard>(
        &mut self,
        lanes: &mut [Lane<S::Shard, PS>],
        p: usize,
        g: u64,
        steps_ops: &mut u64,
        steps_stalls: &mut u64,
    ) -> Result<(), SimError> {
        let Status::Global(op, addr, data) = lanes[p].status else {
            unreachable!("process_global on a non-global lane");
        };
        debug_assert!(
            lanes[p].journal.is_empty(),
            "requester journal must be committed before its global"
        );
        let block = lanes[p].shard.as_ref().map(|s| s.block_base(addr));
        let Some(block) = block else {
            unreachable!("lane shards are home outside worker phases");
        };

        // Roll back any speculation the global would have reordered with:
        // journal entries on the same block issued after (g, p).
        for (j, lane) in lanes.iter_mut().enumerate() {
            if j == p || lane.journal.is_empty() {
                continue;
            }
            if let Some(k) = lane.first_conflict(block, g, p as u32) {
                lane.truncate(k);
            }
        }

        // Execute through the shared system with all shards home and the
        // undo logs paused: a committed global must never roll back.
        let shards: Vec<S::Shard> = lanes.iter_mut().filter_map(|l| l.shard.take()).collect();
        self.system.put_shards(shards);
        self.system.pause_speculation();
        lanes[p].clock += 1;
        self.system.set_now(lanes[p].clock);
        let access_result = self.system.access(PeId(p as u32), op, addr, data);
        let area = self.system.area_map().area(addr);
        self.system.resume_speculation();
        for (lane, shard) in lanes.iter_mut().zip(self.system.take_shards()) {
            lane.shard = Some(shard);
        }
        let outcome = match access_result {
            Ok(outcome) => outcome,
            // Shards are already home, so the caller can reassemble the
            // process and system around this diagnostic.
            Err(error) => {
                return Err(SimError::Protocol {
                    pe: PeId(p as u32),
                    addr,
                    error,
                })
            }
        };

        match outcome {
            Outcome::Done {
                bus_cycles, woken, ..
            } => {
                let issue = lanes[p].clock;
                if bus_cycles > 0 {
                    // Same arbitration and same fault plan as the
                    // sequential engine's port, keyed on the identical
                    // issue cycle — the faulted schedule is bit-identical.
                    let grant = match self.fault_plan.as_ref() {
                        Some(plan) => {
                            let fg = arbitrate_with_faults(
                                plan,
                                self.bus_free,
                                lanes[p].clock,
                                bus_cycles,
                                PeId(p as u32),
                            );
                            if !fg.events.is_empty() {
                                self.fault_stats.absorb(&fg);
                                if let Some(obs) = self.observer.as_deref_mut() {
                                    for ev in &fg.events {
                                        obs.fault_injected(
                                            PeId(p as u32),
                                            ev.kind.label(),
                                            ev.cycle,
                                        );
                                    }
                                    obs.fault_recovered(
                                        PeId(p as u32),
                                        fg.events.len() as u32,
                                        fg.penalty,
                                        fg.grant.bus_free,
                                    );
                                }
                            }
                            fg.grant
                        }
                        None => pim_bus::arbitrate(self.bus_free, lanes[p].clock, bus_cycles),
                    };
                    lanes[p].clock = grant.bus_free;
                    self.bus_free = grant.bus_free;
                    lanes[p].account.bus_wait += grant.wait;
                    if let Some(obs) = self.observer.as_deref_mut() {
                        obs.bus_grant(
                            PeId(p as u32),
                            op,
                            area,
                            issue,
                            grant.wait - bus_cycles,
                            bus_cycles,
                        );
                    }
                }
                if let Some(obs) = self.observer.as_deref_mut() {
                    let done = lanes[p].clock;
                    match op {
                        MemOp::LockRead => obs.lock_acquired(PeId(p as u32), addr, area, done),
                        MemOp::WriteUnlock | MemOp::Unlock => {
                            obs.lock_released(PeId(p as u32), addr, area, done, woken);
                        }
                        _ => {}
                    }
                }
                live(lanes[p].proc.as_mut()).advance();
                lanes[p].last_issue = Some((g, p as u32));
                *steps_ops += 1;

                let now = lanes[p].clock;
                for w in woken.iter() {
                    let w = w.index();
                    if w == p {
                        continue;
                    }
                    let lane = &mut lanes[w];
                    let Status::Blocked(rop, raddr, rdata) = lane.status else {
                        debug_assert!(false, "woke a PE that was not blocked");
                        continue;
                    };
                    // The waiter busy-waited until the UL broadcast; the
                    // bump is exactly the stall duration.
                    let waited = now.saturating_sub(lane.clock);
                    lane.clock = lane.clock.max(now);
                    lane.account.lock_wait += waited;
                    if let Some(obs) = self.observer.as_deref_mut() {
                        obs.lock_wait(PeId(w as u32), addr, area, waited, now);
                    }
                    lane.status = Status::Global(rop, raddr, rdata);
                    lane.blocked_on = None;
                    lane.start_clock = lane.clock;
                    lane.base_issue = lane.last_issue;
                }

                let lane = &mut lanes[p];
                lane.status = if live(lane.proc.as_ref()).peek().is_none() {
                    lane.exhausted_at = lane.clock;
                    Status::Exhausted
                } else {
                    Status::Ready
                };
                lane.start_clock = lane.clock;
                lane.proc_base = live(lane.proc.as_ref()).position();
                lane.base_issue = lane.last_issue;
            }
            Outcome::LockBusy { holder } => {
                *steps_stalls += 1;
                let lane = &mut lanes[p];
                lane.status = Status::Blocked(op, addr, data);
                lane.blocked_on = Some(holder);
                lane.start_clock = lane.clock;
                lane.base_issue = lane.last_issue;
                let clock = lane.clock;
                // A new wait-for edge can close a lock cycle; detect it
                // the moment it appears instead of spinning forever.
                let edges: Vec<(PeId, PeId)> = lanes
                    .iter()
                    .filter(|l| matches!(l.status, Status::Blocked(..)))
                    .filter_map(|l| l.blocked_on.map(|h| (PeId(l.pe as u32), h)))
                    .collect();
                if let Some(cycle) = find_cycle(&edges) {
                    if let Some(obs) = self.observer.as_deref_mut() {
                        obs.deadlock(&cycle, clock);
                    }
                    return Err(SimError::Deadlock { cycle, clock });
                }
            }
        }
        Ok(())
    }

    /// Closed-form replay of the idle polls the sequential scheduler
    /// interleaves once a PE's stream is exhausted: PE `j` polls at
    /// positions `(e_j + k·poll, j)` for `k = 0, 1, …` as long as that
    /// precedes the issue position of the run's last operation. Returns
    /// the number of poll steps charged.
    fn settle_idle<PS: ProcessShard>(&mut self, lanes: &mut [Lane<S::Shard, PS>]) -> u64 {
        let Some((t, p)) = lanes.iter().filter_map(|l| l.last_issue).max() else {
            return 0; // nothing ever ran: the first poll sees Finished
        };
        let poll = self.idle_poll_cycles;
        let mut steps = 0;
        for lane in lanes.iter_mut() {
            debug_assert_eq!(lane.status, Status::Exhausted);
            let e = lane.exhausted_at;
            let pe = lane.pe as u32;
            if (e, pe) >= (t, p) {
                continue;
            }
            // Count k ≥ 0 with (e + k·poll, pe) < (t, p) lexicographically.
            let polls = if pe < p {
                (t - e) / poll + 1
            } else {
                (t - e).div_ceil(poll)
            };
            lane.clock += polls * poll;
            lane.account.idle += polls * poll;
            steps += polls;
        }
        steps
    }
}

/// Builds the structured deadlock report for an all-blocked lane set:
/// the wait-for cycle if one exists (it always should — a full block
/// with no cycle would mean a lost `UL` wakeup), otherwise every
/// blocked PE, so the failure is never silent.
fn deadlock_error<SS, PS>(
    lanes: &[Lane<SS, PS>],
    observer: Option<&mut (dyn Observer + 'static)>,
) -> SimError {
    let edges: Vec<(PeId, PeId)> = lanes
        .iter()
        .filter_map(|l| l.blocked_on.map(|h| (PeId(l.pe as u32), h)))
        .collect();
    let clock = lanes.iter().map(|l| l.clock).max().unwrap_or(0);
    let cycle =
        find_cycle(&edges).unwrap_or_else(|| lanes.iter().map(|l| PeId(l.pe as u32)).collect());
    if let Some(obs) = observer {
        obs.deadlock(&cycle, clock);
    }
    SimError::Deadlock { cycle, clock }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, Replayer};
    use pim_cache::{PimSystem, SystemConfig};
    use pim_trace::{Access, AreaMap, StorageArea};

    fn heap(pe: u32, op: MemOp, off: u64) -> Access {
        let map = AreaMap::standard();
        Access::new(
            PeId(pe),
            op,
            map.base(StorageArea::Heap) + off,
            StorageArea::Heap,
        )
    }

    /// Deterministic xorshift so the test needs no external crates here.
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    fn mixed_trace(pes: u32, len: usize, seed: u64) -> Vec<Access> {
        let mut s = seed;
        let mut trace = Vec::with_capacity(len);
        for _ in 0..len {
            let r = xorshift(&mut s);
            let pe = (r % pes as u64) as u32;
            // Skewed toward reads/writes with enough sharing to force
            // misses, transfers, invalidations and purges.
            let op = match (r >> 8) % 10 {
                0..=3 => MemOp::Read,
                4..=6 => MemOp::Write,
                7 => MemOp::DirectWrite,
                8 => MemOp::ExclusiveRead,
                _ => MemOp::ReadPurge,
            };
            let off = ((r >> 16) % 96) * 4; // 24 words: heavy block overlap
            trace.push(heap(pe, op, off));
        }
        trace
    }

    fn run_sequential(trace: &[Access], pes: u32) -> (RunStats, String) {
        let mut replayer = Replayer::from_merged(trace, pes);
        let mut engine = Engine::new(
            PimSystem::new(SystemConfig {
                pes,
                ..SystemConfig::default()
            }),
            pes,
        );
        let stats = engine
            .run(&mut replayer, 1_000_000)
            .expect("fault-free run");
        let sys = engine.system();
        let fingerprint = format!(
            "{:?}|{:?}|{:?}|{:?}",
            sys.ref_stats(),
            sys.access_stats(),
            sys.lock_stats(),
            sys.bus_stats()
        );
        (stats, fingerprint)
    }

    fn run_parallel(trace: &[Access], pes: u32, threads: usize) -> (RunStats, String) {
        let mut replayer = Replayer::from_merged(trace, pes);
        let mut engine = ParallelEngine::new(
            PimSystem::new(SystemConfig {
                pes,
                ..SystemConfig::default()
            }),
            pes,
        );
        engine.set_threads(threads);
        let stats = engine
            .run(&mut replayer, 1_000_000)
            .expect("fault-free run");
        assert_eq!(replayer.remaining(), 0);
        let sys = engine.system();
        let fingerprint = format!(
            "{:?}|{:?}|{:?}|{:?}",
            sys.ref_stats(),
            sys.access_stats(),
            sys.lock_stats(),
            sys.bus_stats()
        );
        (stats, fingerprint)
    }

    #[test]
    fn matches_sequential_on_mixed_traces() {
        for (pes, len, seed) in [(2, 200, 1), (4, 600, 2), (8, 1200, 3)] {
            let trace = mixed_trace(pes, len, seed);
            let (seq_stats, seq_fp) = run_sequential(&trace, pes);
            assert!(seq_stats.finished);
            for threads in [1, 2, 4] {
                let (par_stats, par_fp) = run_parallel(&trace, pes, threads);
                assert_eq!(
                    par_stats, seq_stats,
                    "run stats diverged: pes={pes} seed={seed} threads={threads}"
                );
                assert_eq!(
                    par_fp, seq_fp,
                    "system stats diverged: pes={pes} seed={seed} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn matches_sequential_with_uneven_streams() {
        // PE0 gets a long stream, PE1 a single op, PE2 nothing: exercises
        // the closed-form idle-poll replay and the finisher step.
        let mut trace = Vec::new();
        for i in 0..40 {
            trace.push(heap(0, MemOp::Write, (i % 16) * 4));
        }
        trace.push(heap(1, MemOp::Read, 0));
        let (seq_stats, seq_fp) = run_sequential(&trace, 3);
        for threads in [1, 2] {
            let (par_stats, par_fp) = run_parallel(&trace, 3, threads);
            assert_eq!(par_stats, seq_stats, "threads={threads}");
            assert_eq!(par_fp, seq_fp, "threads={threads}");
        }
    }

    #[test]
    fn matches_sequential_under_lock_contention() {
        // All PEs hammer the same lock word: LockRead then WriteUnlock,
        // forcing LH refusals, LWAIT registration and UL wake-ups.
        let mut trace = Vec::new();
        for round in 0..30u64 {
            for pe in 0..4u32 {
                trace.push(heap(pe, MemOp::LockRead, 0));
                trace.push(heap(pe, MemOp::Write, 4 + ((round + pe as u64) % 8) * 4));
                trace.push(heap(pe, MemOp::WriteUnlock, 0));
            }
        }
        let (seq_stats, seq_fp) = run_sequential(&trace, 4);
        assert!(seq_stats.finished);
        let sys_has_conflicts = seq_fp.contains("lr_refused: 0");
        assert!(!sys_has_conflicts, "trace must manufacture lock conflicts");
        for threads in [1, 2, 4, 8] {
            let (par_stats, par_fp) = run_parallel(&trace, 4, threads);
            assert_eq!(par_stats, seq_stats, "threads={threads}");
            assert_eq!(par_fp, seq_fp, "threads={threads}");
        }
    }

    #[test]
    fn small_epochs_change_nothing() {
        let trace = mixed_trace(4, 400, 7);
        let (seq_stats, seq_fp) = run_sequential(&trace, 4);
        let mut replayer = Replayer::from_merged(&trace, 4);
        let mut engine = ParallelEngine::new(
            PimSystem::new(SystemConfig {
                pes: 4,
                ..SystemConfig::default()
            }),
            4,
        );
        engine.set_threads(2);
        engine.set_epoch_ops(3); // pathological epoch length
        let stats = engine
            .run(&mut replayer, 1_000_000)
            .expect("fault-free run");
        let sys = engine.system();
        let fp = format!(
            "{:?}|{:?}|{:?}|{:?}",
            sys.ref_stats(),
            sys.access_stats(),
            sys.lock_stats(),
            sys.bus_stats()
        );
        assert_eq!(stats, seq_stats);
        assert_eq!(fp, seq_fp);
    }

    #[test]
    fn step_budget_reports_unfinished() {
        let trace = mixed_trace(2, 300, 11);
        let mut replayer = Replayer::from_merged(&trace, 2);
        let mut engine = ParallelEngine::new(
            PimSystem::new(SystemConfig {
                pes: 2,
                ..SystemConfig::default()
            }),
            2,
        );
        engine.set_threads(1);
        let stats = engine.run(&mut replayer, 10).expect("fault-free run");
        assert!(!stats.finished);
        assert!(stats.steps <= 10);
    }

    #[test]
    fn chunked_runs_match_one_shot() {
        // A paused engine must hold the exact committed-prefix state, so
        // resuming in arbitrary-size chunks reproduces the one-shot run —
        // including lock contention parked across the pause boundary.
        let mut trace = mixed_trace(4, 300, 17);
        for round in 0..20u64 {
            for pe in 0..4u32 {
                trace.push(heap(pe, MemOp::LockRead, 0));
                trace.push(heap(pe, MemOp::Write, 4 + ((round + pe as u64) % 8) * 4));
                trace.push(heap(pe, MemOp::WriteUnlock, 0));
            }
        }
        let (seq_stats, seq_fp) = run_sequential(&trace, 4);
        assert!(seq_stats.finished);
        for chunk in [1u64, 7, 64] {
            let mut replayer = Replayer::from_merged(&trace, 4);
            let mut engine = ParallelEngine::new(
                PimSystem::new(SystemConfig {
                    pes: 4,
                    ..SystemConfig::default()
                }),
                4,
            );
            engine.set_threads(2);
            let mut stats = engine.run(&mut replayer, chunk).expect("fault-free run");
            let mut rounds = 0u64;
            while !stats.finished {
                stats = engine.run(&mut replayer, chunk).expect("fault-free run");
                rounds += 1;
                assert!(rounds < 1_000_000, "chunked run diverged: chunk={chunk}");
            }
            let sys = engine.system();
            let fp = format!(
                "{:?}|{:?}|{:?}|{:?}",
                sys.ref_stats(),
                sys.access_stats(),
                sys.lock_stats(),
                sys.bus_stats()
            );
            assert_eq!(fp, seq_fp, "chunk={chunk}");
            assert_eq!(stats.pe_clocks, seq_stats.pe_clocks, "chunk={chunk}");
            assert_eq!(stats.pe_cycles, seq_stats.pe_cycles, "chunk={chunk}");
            assert_eq!(stats.makespan, seq_stats.makespan, "chunk={chunk}");
        }
    }

    #[test]
    fn checkpoint_round_trip_matches_uninterrupted() {
        // Pause mid-run, serialize engine + replayer, restore into freshly
        // built objects, finish — everything must match the one-shot run.
        let mut trace = mixed_trace(4, 300, 23);
        for round in 0..15u64 {
            for pe in 0..4u32 {
                trace.push(heap(pe, MemOp::LockRead, 0));
                trace.push(heap(pe, MemOp::Write, 4 + ((round + pe as u64) % 8) * 4));
                trace.push(heap(pe, MemOp::WriteUnlock, 0));
            }
        }
        let (seq_stats, seq_fp) = run_sequential(&trace, 4);
        assert!(seq_stats.finished);
        for pause_at in [1u64, 50, 200, 700] {
            let mut replayer = Replayer::from_merged(&trace, 4);
            let mut engine = ParallelEngine::new(
                PimSystem::new(SystemConfig {
                    pes: 4,
                    ..SystemConfig::default()
                }),
                4,
            );
            engine.set_threads(2);
            let paused = engine.run(&mut replayer, pause_at).expect("fault-free run");
            if paused.finished {
                // Budget outlived the trace; nothing left to resume.
                continue;
            }

            let mut w = pim_ckpt::Writer::new();
            engine.save_ckpt(&mut w);
            replayer.save_ckpt(&mut w);
            let payload = w.payload();

            let mut replayer2 = Replayer::from_merged(&trace, 4);
            let mut engine2 = ParallelEngine::new(
                PimSystem::new(SystemConfig {
                    pes: 4,
                    ..SystemConfig::default()
                }),
                4,
            );
            engine2.set_threads(4); // resume at a different thread count
            let mut r = pim_ckpt::Reader::new(payload);
            engine2.restore_ckpt(&mut r).expect("engine restores");
            replayer2.restore_ckpt(&mut r).expect("replayer restores");
            r.expect_end().expect("no trailing bytes");

            let stats = engine2
                .run(&mut replayer2, 1_000_000)
                .expect("fault-free run");
            assert!(stats.finished, "pause_at={pause_at}");
            let sys = engine2.system();
            let fp = format!(
                "{:?}|{:?}|{:?}|{:?}",
                sys.ref_stats(),
                sys.access_stats(),
                sys.lock_stats(),
                sys.bus_stats()
            );
            assert_eq!(fp, seq_fp, "pause_at={pause_at}");
            assert_eq!(stats.pe_clocks, seq_stats.pe_clocks, "pause_at={pause_at}");
            assert_eq!(stats.pe_cycles, seq_stats.pe_cycles, "pause_at={pause_at}");
            assert_eq!(stats.makespan, seq_stats.makespan, "pause_at={pause_at}");
        }
    }
}
