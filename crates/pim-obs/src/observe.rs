//! The observer interface: structured events emitted by the simulator.
//!
//! Every layer of the stack (engine, memory system, KL1 machine) holds an
//! `Option<Box<dyn Observer>>`. With `None` — the [`NullObserver`]
//! configuration — the instrumented sites cost one branch on an
//! already-loaded option and emit nothing; with an observer attached they
//! deliver structured events carrying simulated-cycle timestamps.

use pim_trace::{Addr, MemOp, PeId, PeSet, StorageArea};

/// Cache-block coherence state, mirrored from `pim-cache`'s `BlockState`
/// so that observers need no dependency on the protocol crate.
///
/// The five states of the paper's Figure 5 protocol: exclusive-modified,
/// exclusive-clean, shared-modified, shared, and invalid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CohState {
    /// `EM` — exclusive, dirty.
    Em,
    /// `EC` — exclusive, clean.
    Ec,
    /// `SM` — shared, this cache owns the dirty copy.
    Sm,
    /// `S` — shared, clean.
    Sh,
    /// `INV` — invalid.
    Inv,
}

impl CohState {
    /// All five states in display order.
    pub const ALL: [CohState; 5] = [
        CohState::Em,
        CohState::Ec,
        CohState::Sm,
        CohState::Sh,
        CohState::Inv,
    ];

    /// Dense index for the 5x5 transition matrix.
    pub fn index(self) -> usize {
        match self {
            CohState::Em => 0,
            CohState::Ec => 1,
            CohState::Sm => 2,
            CohState::Sh => 3,
            CohState::Inv => 4,
        }
    }

    /// The paper's state mnemonic.
    pub fn label(self) -> &'static str {
        match self {
            CohState::Em => "EM",
            CohState::Ec => "EC",
            CohState::Sm => "SM",
            CohState::Sh => "S",
            CohState::Inv => "INV",
        }
    }
}

impl std::fmt::Display for CohState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The full 5x5 matrix of coherence state transitions, indexed
/// `[from][to]`. Self-transitions are recorded too (e.g. a write hit on
/// an already-`EM` block), so row sums count every state-machine event.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TransitionMatrix {
    counts: [[u64; 5]; 5],
}

impl TransitionMatrix {
    /// An all-zero matrix.
    pub fn new() -> TransitionMatrix {
        TransitionMatrix::default()
    }

    /// Records one `from → to` transition.
    pub fn record(&mut self, from: CohState, to: CohState) {
        self.counts[from.index()][to.index()] += 1;
    }

    /// The count for one cell.
    pub fn count(&self, from: CohState, to: CohState) -> u64 {
        self.counts[from.index()][to.index()]
    }

    /// Total transitions recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().flatten().sum()
    }

    /// Accumulates another matrix into this one.
    pub fn merge(&mut self, other: &TransitionMatrix) {
        for (row, orow) in self.counts.iter_mut().zip(other.counts.iter()) {
            for (cell, ocell) in row.iter_mut().zip(orow.iter()) {
                *cell += ocell;
            }
        }
    }

    /// Checkpoint hook: serializes the 5x5 count matrix.
    pub fn save_ckpt(&self, w: &mut pim_ckpt::Writer) {
        for row in &self.counts {
            for &c in row {
                w.put_u64(c);
            }
        }
    }

    /// Checkpoint hook: restores a matrix saved by
    /// [`TransitionMatrix::save_ckpt`].
    pub fn restore_ckpt(
        &mut self,
        r: &mut pim_ckpt::Reader<'_>,
    ) -> Result<(), pim_ckpt::CkptError> {
        for row in &mut self.counts {
            for c in row {
                *c = r.get_u64()?;
            }
        }
        Ok(())
    }

    /// All cells in row-major `ALL` order as `(from, to, count)`.
    pub fn cells(&self) -> impl Iterator<Item = (CohState, CohState, u64)> + '_ {
        CohState::ALL.into_iter().flat_map(move |from| {
            CohState::ALL
                .into_iter()
                .map(move |to| (from, to, self.count(from, to)))
        })
    }
}

/// Where one PE's cycles went, per the four-way accounting of the
/// observability layer: doing work, waiting for the bus (arbitration +
/// its own transactions), stalled on a remote lock, or idling with an
/// empty goal queue. The four categories are exhaustive and disjoint, so
/// they sum to the PE's final clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PeCycles {
    /// Cycles spent executing (the remainder after the other three).
    pub busy: u64,
    /// Cycles waiting for bus arbitration plus holding the bus.
    pub bus_wait: u64,
    /// Cycles stalled on a remotely locked word (`LH` refusals).
    pub lock_wait: u64,
    /// Cycles spent polling an empty goal queue.
    pub idle: u64,
}

impl PeCycles {
    /// Sum of all four categories — equals the PE's final clock.
    pub fn total(&self) -> u64 {
        self.busy + self.bus_wait + self.lock_wait + self.idle
    }

    /// Accumulates another accounting into this one.
    pub fn merge(&mut self, other: &PeCycles) {
        self.busy += other.busy;
        self.bus_wait += other.bus_wait;
        self.lock_wait += other.lock_wait;
        self.idle += other.idle;
    }
}

/// Receiver for structured simulator events.
///
/// Every method has a no-op default, so observers implement only what
/// they consume. All timestamps are simulated cycles, never wall time.
/// `Debug` is a supertrait so that components holding a boxed observer
/// can keep deriving `Debug`.
pub trait Observer: std::fmt::Debug {
    /// A cache block in `pe`'s cache moved `from → to` for an access in
    /// `area` issued at `cycle`. Self-transitions are reported too.
    fn state_transition(
        &mut self,
        pe: PeId,
        area: StorageArea,
        from: CohState,
        to: CohState,
        cycle: u64,
    ) {
        let _ = (pe, area, from, to, cycle);
    }

    /// `pe` issued a bus request for `op` in `area` at cycle `issue`,
    /// won arbitration after waiting `wait` cycles, then held the bus
    /// for `tx_cycles`. The full bus span is therefore
    /// `[issue, issue + wait + tx_cycles)`, with the hold occupying its
    /// last `tx_cycles` cycles.
    fn bus_grant(
        &mut self,
        pe: PeId,
        op: MemOp,
        area: StorageArea,
        issue: u64,
        wait: u64,
        tx_cycles: u64,
    ) {
        let _ = (pe, op, area, issue, wait, tx_cycles);
    }

    /// `pe` resumed at `resume_cycle` after `wait` cycles stalled on the
    /// remotely locked word `addr` in `area` (an `LWAIT` entry in the
    /// lock directory). The stall span is
    /// `[resume_cycle - wait, resume_cycle)`.
    fn lock_wait(&mut self, pe: PeId, addr: Addr, area: StorageArea, wait: u64, resume_cycle: u64) {
        let _ = (pe, addr, area, wait, resume_cycle);
    }

    /// `pe` acquired the lock on word `addr` in `area` at `cycle` (a
    /// successful `LR` lock-read).
    fn lock_acquired(&mut self, pe: PeId, addr: Addr, area: StorageArea, cycle: u64) {
        let _ = (pe, addr, area, cycle);
    }

    /// `pe` released the lock on word `addr` in `area` at `cycle` (a
    /// `UL`/`UW` unlock), waking the stalled PEs in `woken`.
    fn lock_released(&mut self, pe: PeId, addr: Addr, area: StorageArea, cycle: u64, woken: PeSet) {
        let _ = (pe, addr, area, cycle, woken);
    }

    /// `pe` committed one goal reduction at `cycle`.
    fn reduction(&mut self, pe: PeId, cycle: u64) {
        let _ = (pe, cycle);
    }

    /// `pe` suspended the goal whose record lives at `goal` on an
    /// unbound variable at `cycle`. The goal-record address is the
    /// causal link: the `resumption` event that reschedules the same
    /// goal carries the same `goal`.
    fn suspension(&mut self, pe: PeId, cycle: u64, goal: Addr) {
        let _ = (pe, cycle, goal);
    }

    /// `pe` resumed the previously suspended goal whose record lives at
    /// `goal` at `cycle` (the binding that woke it happened on `pe`).
    fn resumption(&mut self, pe: PeId, cycle: u64, goal: Addr) {
        let _ = (pe, cycle, goal);
    }

    /// `pe` finished a garbage collection at `cycle`, having copied
    /// `words_copied` live words.
    fn gc(&mut self, pe: PeId, cycle: u64, words_copied: u64) {
        let _ = (pe, cycle, words_copied);
    }

    /// The shared goal queue's depth observed at `cycle` (sampled at
    /// enqueue/dequeue events on `pe`).
    fn goal_queue_depth(&mut self, pe: PeId, cycle: u64, depth: u64) {
        let _ = (pe, cycle, depth);
    }

    /// A fault of the named kind (a `pim-fault` [`FaultKind`] label) was
    /// injected against `pe`'s bus operation issued at `cycle`.
    fn fault_injected(&mut self, pe: PeId, kind: &'static str, cycle: u64) {
        let _ = (pe, kind, cycle);
    }

    /// Every fault injected against one bus operation of `pe` has been
    /// recovered at `cycle`: the chain carried `faults` injections and
    /// cost `penalty` extra cycles over the fault-free schedule.
    fn fault_recovered(&mut self, pe: PeId, faults: u32, penalty: u64, cycle: u64) {
        let _ = (pe, faults, penalty, cycle);
    }

    /// The lock-directory deadlock detector found a wait-for cycle
    /// among `pes` (waiter → holder order) at `cycle`.
    fn deadlock(&mut self, pes: &[PeId], cycle: u64) {
        let _ = (pes, cycle);
    }

    /// The livelock/starvation watchdog expired: `pe` reached `clock`
    /// cycles against a budget of `budget`.
    fn watchdog(&mut self, pe: PeId, clock: u64, budget: u64) {
        let _ = (pe, clock, budget);
    }
}

/// The zero-cost default observer: every hook is the inherited no-op.
/// Simulations configured with `NullObserver` (i.e. no observer attached)
/// must produce bit-identical results to an uninstrumented build.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl Observer for NullObserver {}

/// Forwards every event to each of a set of observers, so one component
/// slot (an `Option<Box<dyn Observer>>`) can feed several sinks at once
/// — e.g. the metrics aggregate and the event tracer in the same run.
#[derive(Debug, Default)]
pub struct Fanout {
    sinks: Vec<Box<dyn Observer>>,
}

impl Fanout {
    /// An empty fanout (behaves like [`NullObserver`]).
    pub fn new() -> Fanout {
        Fanout::default()
    }

    /// Adds one sink; events are delivered in insertion order.
    pub fn push(&mut self, sink: Box<dyn Observer>) {
        self.sinks.push(sink);
    }

    /// Builds a fanout from its sinks.
    pub fn from_sinks(sinks: Vec<Box<dyn Observer>>) -> Fanout {
        Fanout { sinks }
    }
}

impl Observer for Fanout {
    fn state_transition(
        &mut self,
        pe: PeId,
        area: StorageArea,
        from: CohState,
        to: CohState,
        cycle: u64,
    ) {
        for s in &mut self.sinks {
            s.state_transition(pe, area, from, to, cycle);
        }
    }

    fn bus_grant(
        &mut self,
        pe: PeId,
        op: MemOp,
        area: StorageArea,
        issue: u64,
        wait: u64,
        tx_cycles: u64,
    ) {
        for s in &mut self.sinks {
            s.bus_grant(pe, op, area, issue, wait, tx_cycles);
        }
    }

    fn lock_wait(&mut self, pe: PeId, addr: Addr, area: StorageArea, wait: u64, resume_cycle: u64) {
        for s in &mut self.sinks {
            s.lock_wait(pe, addr, area, wait, resume_cycle);
        }
    }

    fn lock_acquired(&mut self, pe: PeId, addr: Addr, area: StorageArea, cycle: u64) {
        for s in &mut self.sinks {
            s.lock_acquired(pe, addr, area, cycle);
        }
    }

    fn lock_released(&mut self, pe: PeId, addr: Addr, area: StorageArea, cycle: u64, woken: PeSet) {
        for s in &mut self.sinks {
            s.lock_released(pe, addr, area, cycle, woken);
        }
    }

    fn reduction(&mut self, pe: PeId, cycle: u64) {
        for s in &mut self.sinks {
            s.reduction(pe, cycle);
        }
    }

    fn suspension(&mut self, pe: PeId, cycle: u64, goal: Addr) {
        for s in &mut self.sinks {
            s.suspension(pe, cycle, goal);
        }
    }

    fn resumption(&mut self, pe: PeId, cycle: u64, goal: Addr) {
        for s in &mut self.sinks {
            s.resumption(pe, cycle, goal);
        }
    }

    fn gc(&mut self, pe: PeId, cycle: u64, words_copied: u64) {
        for s in &mut self.sinks {
            s.gc(pe, cycle, words_copied);
        }
    }

    fn goal_queue_depth(&mut self, pe: PeId, cycle: u64, depth: u64) {
        for s in &mut self.sinks {
            s.goal_queue_depth(pe, cycle, depth);
        }
    }

    fn fault_injected(&mut self, pe: PeId, kind: &'static str, cycle: u64) {
        for s in &mut self.sinks {
            s.fault_injected(pe, kind, cycle);
        }
    }

    fn fault_recovered(&mut self, pe: PeId, faults: u32, penalty: u64, cycle: u64) {
        for s in &mut self.sinks {
            s.fault_recovered(pe, faults, penalty, cycle);
        }
    }

    fn deadlock(&mut self, pes: &[PeId], cycle: u64) {
        for s in &mut self.sinks {
            s.deadlock(pes, cycle);
        }
    }

    fn watchdog(&mut self, pe: PeId, clock: u64, budget: u64) {
        for s in &mut self.sinks {
            s.watchdog(pe, clock, budget);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_records_all_cells() {
        let mut m = TransitionMatrix::new();
        for from in CohState::ALL {
            for to in CohState::ALL {
                m.record(from, to);
                m.record(from, to);
            }
        }
        assert_eq!(m.total(), 50);
        assert!(m.cells().all(|(_, _, n)| n == 2));
    }

    #[test]
    fn matrix_merge_adds_cellwise() {
        let mut a = TransitionMatrix::new();
        a.record(CohState::Inv, CohState::Ec);
        let mut b = TransitionMatrix::new();
        b.record(CohState::Inv, CohState::Ec);
        b.record(CohState::Ec, CohState::Em);
        a.merge(&b);
        assert_eq!(a.count(CohState::Inv, CohState::Ec), 2);
        assert_eq!(a.count(CohState::Ec, CohState::Em), 1);
        assert_eq!(a.total(), 3);
    }

    #[test]
    fn pe_cycles_total_is_sum() {
        let c = PeCycles {
            busy: 10,
            bus_wait: 4,
            lock_wait: 3,
            idle: 2,
        };
        assert_eq!(c.total(), 19);
        let mut d = c;
        d.merge(&c);
        assert_eq!(d.total(), 38);
    }

    #[test]
    fn null_observer_accepts_every_event() {
        let mut obs = NullObserver;
        let pe = PeId(0);
        obs.state_transition(pe, StorageArea::Heap, CohState::Inv, CohState::Ec, 1);
        obs.bus_grant(pe, MemOp::Read, StorageArea::Heap, 1, 3, 13);
        obs.lock_wait(pe, 0x80, StorageArea::Goal, 40, 50);
        obs.lock_acquired(pe, 0x80, StorageArea::Goal, 10);
        let mut woken = PeSet::default();
        woken.insert(PeId(1));
        obs.lock_released(pe, 0x80, StorageArea::Goal, 12, woken);
        obs.reduction(pe, 1);
        obs.suspension(pe, 2, 0x100);
        obs.resumption(pe, 3, 0x100);
        obs.gc(pe, 4, 100);
        obs.goal_queue_depth(pe, 5, 7);
        obs.fault_injected(pe, "bus_nack", 6);
        obs.fault_recovered(pe, 1, 9, 15);
        obs.deadlock(&[pe, PeId(1)], 10);
        obs.watchdog(pe, 11, 8);
    }

    /// A tiny sink that counts the events it receives, for fanout tests.
    #[derive(Debug, Default)]
    struct Counter(std::rc::Rc<std::cell::Cell<u64>>);

    impl Observer for Counter {
        fn reduction(&mut self, _pe: PeId, _cycle: u64) {
            self.0.set(self.0.get() + 1);
        }

        fn bus_grant(
            &mut self,
            _pe: PeId,
            _op: MemOp,
            _area: StorageArea,
            _issue: u64,
            _wait: u64,
            _tx: u64,
        ) {
            self.0.set(self.0.get() + 1);
        }
    }

    #[test]
    fn fanout_delivers_to_every_sink() {
        let a = std::rc::Rc::new(std::cell::Cell::new(0));
        let b = std::rc::Rc::new(std::cell::Cell::new(0));
        let mut fan = Fanout::new();
        fan.push(Box::new(Counter(a.clone())));
        fan.push(Box::new(Counter(b.clone())));
        fan.reduction(PeId(0), 1);
        fan.bus_grant(PeId(1), MemOp::Read, StorageArea::Heap, 5, 2, 13);
        assert_eq!(a.get(), 2);
        assert_eq!(b.get(), 2);
    }

    #[test]
    fn state_labels_match_paper() {
        let labels: Vec<_> = CohState::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(labels, ["EM", "EC", "SM", "S", "INV"]);
    }
}
