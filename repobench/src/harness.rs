//! What every workload shares: output checks, the timing loop, and the
//! metric sheet printed at the end of a run.

use std::time::Instant;

/// Counts attempted operations (a program run, a replay, or a sweep
/// pass's cells) and those with at least one failed output check.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations with at least one failed check.
    pub failed: u64,
    op: String,
    op_failed: bool,
}

impl Checks {
    /// Starts operation `op`: later checks are charged to it.
    pub fn begin(&mut self, op: impl Into<String>) {
        self.attempted += 1;
        self.op = op.into();
        self.op_failed = false;
    }

    /// Records check `what` of the current operation. A failure is
    /// printed with `detail` and fails the operation (once, however many
    /// of its checks fail). Returns `ok`.
    pub fn check(&mut self, what: &str, ok: bool, detail: impl FnOnce() -> String) -> bool {
        if !ok {
            eprintln!("repobench: check failed: {}: {what}: {}", self.op, detail());
            if !self.op_failed {
                self.op_failed = true;
                self.failed += 1;
            }
        }
        ok
    }

    /// Adds the operations counted in `other`.
    pub fn absorb(&mut self, other: &Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed operations over attempted ones.
    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The median of `xs` (the mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The median and the highest percentile with at least ten samples
/// beyond it, as a summary line for operation latencies (`ops` holds
/// `(operation, seconds)` samples).
pub fn latency_note(what: &str, ops: &[(String, f64)]) -> String {
    let mut v: Vec<f64> = ops.iter().map(|(_, s)| s * 1e3).collect();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let p50 = median(&v);
    // The largest whole percentile p with n * (100 - p) / 100 >= 10.
    let tail = (50..100).rev().find(|&p| n * (100 - p) >= 1000).map(|p| {
        let rank = (n * p).div_ceil(100).max(1) - 1;
        format!("cell_tail_ms {} ms (p{p})", v[rank])
    });
    format!(
        "cell_p50_ms {p50} ms, {} over {n} cells (a cell is one {what})",
        tail.unwrap_or_else(|| "cell_tail_ms needs at least 20 cells".to_string())
    )
}

/// Samples grouped by name, in first-seen order.
fn by_name(samples: &[(String, f64)]) -> Vec<(&str, Vec<f64>)> {
    let mut index = std::collections::HashMap::new();
    let mut groups: Vec<(&str, Vec<f64>)> = Vec::new();
    for (name, v) in samples {
        let i = *index.entry(name.as_str()).or_insert_with(|| {
            groups.push((name, Vec::new()));
            groups.len() - 1
        });
        groups[i].1.push(*v);
    }
    groups
}

/// The time of one pass at the host's uncontended speed: the sum, over
/// the pieces of a pass, of each piece's fastest time (`pieces` holds
/// `(piece, seconds)` samples from every untraced pass; a piece is an
/// engine chunk of a few to tens of milliseconds, see [`push_pieces`]).
///
/// Not the median: on the shared 2-vCPU host the figures were taken on,
/// the host switches every few seconds between speeds 1.6x and more
/// apart (a pure integer loop swings 2x), so the median of a run mostly
/// says which speed the run happened to meet. The noise only ever slows
/// work down, so each piece's fastest sample is the stable estimate, and
/// short pieces need only a short fast stretch to get one.
pub fn best_pass(pieces: &[(String, f64)]) -> f64 {
    by_name(pieces)
        .iter()
        .map(|(_, vs)| vs.iter().copied().fold(f64::INFINITY, f64::min))
        .sum()
}

/// Records one operation's timing pieces for [`best_pass`]: each engine
/// chunk, keyed by its position, and the rest of the operation (building
/// the engine, checking the outputs).
pub fn push_pieces(pieces: &mut Vec<(String, f64)>, op: &str, total: f64, chunks: &[f64]) {
    for (i, &t) in chunks.iter().enumerate() {
        pieces.push((format!("{op}#{i}"), t));
    }
    pieces.push((
        format!("{op}#rest"),
        (total - chunks.iter().sum::<f64>()).max(0.0),
    ));
}

/// Median and fastest time per operation name, in milliseconds, as a
/// summary line.
pub fn per_op_note(ops: &[(String, f64)]) -> String {
    let parts: Vec<String> = by_name(ops)
        .iter()
        .map(|(name, vs)| {
            let best = vs.iter().copied().fold(f64::INFINITY, f64::min);
            format!("{name} {:.3}/{:.3}", median(vs) * 1e3, best * 1e3)
        })
        .collect();
    format!("median/fastest ms per operation: {}", parts.join(", "))
}

/// Set-up wall times. The workloads time one set-up before the passes and
/// more between untraced passes. Like a pass, a set-up is timed in pieces
/// (its `rest` is whatever the named pieces leave), and its reported time
/// is the sum of each piece's fastest time ([`best_pass`]): set-ups are
/// short, so their median mostly records the host's speed at the moment.
#[derive(Debug, Default)]
pub struct SetupTimes {
    pieces: Vec<(String, f64)>,
    totals: Vec<f64>,
}

impl SetupTimes {
    /// Runs a one-piece `setup`, records its wall time, and returns its
    /// result.
    pub fn time<T>(&mut self, setup: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = setup();
        self.record(&[], secs(t));
        out
    }

    /// Records one set-up of `total` seconds made of the named `pieces`.
    pub fn record(&mut self, pieces: &[(&str, f64)], total: f64) {
        let named: f64 = pieces.iter().map(|(_, t)| t).sum();
        for (name, t) in pieces {
            self.pieces.push((name.to_string(), *t));
        }
        self.pieces
            .push(("rest".to_string(), (total - named).max(0.0)));
        self.totals.push(total);
    }

    /// The set-up time at the host's uncontended speed.
    pub fn best(&self) -> f64 {
        best_pass(&self.pieces)
    }

    /// A summary line of the whole set-up times.
    pub fn note(&self) -> String {
        format!(
            "median set-up {:.6} s over {} set-ups",
            median(&self.totals),
            self.totals.len()
        )
    }
}

/// Fewest passes a measurement makes, whatever `--seconds` says.
const MIN_PASSES: usize = 3;

/// Pass durations in seconds, split by whether the pass ran traced.
#[derive(Debug, Default)]
pub struct Passes {
    /// Untraced pass times.
    pub untraced: Vec<f64>,
    /// Traced pass times.
    pub traced: Vec<f64>,
}

impl Passes {
    /// Median traced pass time over median untraced pass time, minus 1.
    pub fn overhead_frac(&self) -> f64 {
        median(&self.traced) / median(&self.untraced) - 1.0
    }

    /// A summary line of the untraced pass times.
    pub fn note(&self) -> String {
        format!(
            "median untraced pass {:.6} s over {} passes",
            median(&self.untraced),
            self.untraced.len()
        )
    }
}

/// Repeats `pass` for `seconds` (at least [`MIN_PASSES`] times per kind).
/// With `trace`, passes alternate untraced and traced, so the tracing
/// overhead is measured against untraced passes of the same process.
/// `pass(traced)` returns its own duration in seconds.
pub fn measure(seconds: f64, trace: bool, mut pass: impl FnMut(bool) -> f64) -> Passes {
    let start = Instant::now();
    let mut out = Passes::default();
    loop {
        out.untraced.push(pass(false));
        if trace {
            out.traced.push(pass(true));
        }
        if out.untraced.len() >= MIN_PASSES && secs(start) >= seconds {
            return out;
        }
    }
}

/// Compares a pass's simulated counters with the first pass's: the
/// simulation is deterministic, so any difference is a failure.
pub fn check_repeat(
    checks: &mut Checks,
    first: &mut Option<Vec<(&'static str, u64)>>,
    now: Vec<(&'static str, u64)>,
) {
    match first {
        None => *first = Some(now),
        Some(want) => {
            let ok = *want == now;
            checks.check("simulated counters repeat exactly", ok, || {
                format!("first pass {want:?}, this pass {now:?}")
            });
        }
    }
}

/// The process's peak resident set in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A metric value: a measured time or ratio, or an exact count.
#[derive(Debug, Clone, Copy)]
pub enum Value {
    /// Measured (host time, or a ratio of counts).
    F(f64),
    /// Exact count.
    U(u64),
}

impl Value {
    fn json(self) -> String {
        match self {
            Value::F(v) if v.is_finite() => format!("{v}"),
            Value::F(_) => "null".to_string(),
            Value::U(v) => v.to_string(),
        }
    }
}

/// The end-to-end metrics: what a user of the simulator sees. Every
/// workload reports all of them.
#[derive(Debug, Default, Clone, Copy)]
pub struct EndToEnd {
    /// Set-up time ([`SetupTimes::best`]).
    pub setup_s: f64,
    /// Untraced pass time at the host's uncontended speed
    /// ([`best_pass`]).
    pub run_s: f64,
    /// Committed memory operations per host second.
    pub accesses_per_s: f64,
    /// Peak resident set of the process.
    pub peak_rss_mb: f64,
}

/// The per-layer metrics, named by crate. Every workload reports all of
/// them; a layer the workload does not run reads 0. Times are per pass
/// (the mean over traced passes); counts are one pass's exact figures.
#[derive(Debug, Default, Clone, Copy)]
pub struct Layers {
    pub compile_s: f64,
    pub kl1_self_s: f64,
    pub kl1_allocs_per_reduction: f64,
    pub kl1_steps: u64,
    pub reductions: u64,
    pub suspensions: u64,
    pub reductions_per_s: f64,
    pub engine_self_s: f64,
    pub replay_self_s: f64,
    pub sim_steps: u64,
    pub useful_step_frac: f64,
    pub makespan_cycles: u64,
    pub access_s: f64,
    pub ns_per_access: f64,
    pub allocs_per_access: f64,
    pub hit_ratio: f64,
    pub lock_busy_frac: f64,
    pub bus_cycles: u64,
    pub bus_transactions: u64,
    pub bus_cycles_per_access: f64,
    pub capture_s: f64,
    pub trace_accesses: u64,
    pub ckpt_save_s: f64,
    pub ckpt_restore_s: f64,
    pub ckpt_bytes: u64,
    pub run_sweep_s: f64,
    pub worker_busy_frac: f64,
    pub resume_s: f64,
    pub report_s: f64,
    pub journal_bytes: u64,
    pub retries: u64,
    pub cells_per_s: f64,
    pub overhead_frac: f64,
    pub timer_s: f64,
    pub other_s: f64,
}

impl Layers {
    /// Every per-layer metric as `(name, value, unit)`, in a fixed order.
    pub fn metrics(&self) -> Vec<(&'static str, Value, &'static str)> {
        use Value::{F, U};
        vec![
            ("fghc.compile_s", F(self.compile_s), "s"),
            ("kl1-machine.self_s", F(self.kl1_self_s), "s"),
            (
                "kl1-machine.allocs_per_reduction",
                F(self.kl1_allocs_per_reduction),
                "allocs/reduction",
            ),
            ("kl1-machine.steps", U(self.kl1_steps), "count"),
            ("kl1-machine.reductions", U(self.reductions), "count"),
            ("kl1-machine.suspensions", U(self.suspensions), "count"),
            (
                "kl1-machine.reductions_per_s",
                F(self.reductions_per_s),
                "1/s",
            ),
            ("pim-sim.engine_self_s", F(self.engine_self_s), "s"),
            ("pim-sim.replay_self_s", F(self.replay_self_s), "s"),
            ("pim-sim.steps", U(self.sim_steps), "count"),
            ("pim-sim.useful_step_frac", F(self.useful_step_frac), "frac"),
            ("pim-sim.makespan_cycles", U(self.makespan_cycles), "cycles"),
            ("pim-cache.access_s", F(self.access_s), "s"),
            ("pim-cache.ns_per_access", F(self.ns_per_access), "ns"),
            (
                "pim-cache.allocs_per_access",
                F(self.allocs_per_access),
                "allocs/access",
            ),
            ("pim-cache.hit_ratio", F(self.hit_ratio), "frac"),
            ("pim-cache.lock_busy_frac", F(self.lock_busy_frac), "frac"),
            ("pim-bus.cycles", U(self.bus_cycles), "cycles"),
            ("pim-bus.transactions", U(self.bus_transactions), "count"),
            (
                "pim-bus.cycles_per_access",
                F(self.bus_cycles_per_access),
                "cycles/access",
            ),
            ("pim-trace.capture_s", F(self.capture_s), "s"),
            ("pim-trace.accesses", U(self.trace_accesses), "count"),
            ("pim-ckpt.save_s", F(self.ckpt_save_s), "s"),
            ("pim-ckpt.restore_s", F(self.ckpt_restore_s), "s"),
            ("pim-ckpt.bytes", U(self.ckpt_bytes), "bytes"),
            ("pim-sweep.run_sweep_s", F(self.run_sweep_s), "s"),
            (
                "pim-sweep.worker_busy_frac",
                F(self.worker_busy_frac),
                "frac",
            ),
            ("pim-sweep.resume_s", F(self.resume_s), "s"),
            ("pim-sweep.report_s", F(self.report_s), "s"),
            ("pim-sweep.journal_bytes", U(self.journal_bytes), "bytes"),
            ("pim-sweep.retries", U(self.retries), "count"),
            ("pim-sweep.cells_per_s", F(self.cells_per_s), "1/s"),
            ("trace.overhead_frac", F(self.overhead_frac), "frac"),
            ("trace.timer_s", F(self.timer_s), "s"),
            ("trace.other_s", F(self.other_s), "s"),
        ]
    }
}

/// Everything a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metrics (untraced passes).
    pub e2e: EndToEnd,
    /// Per-layer metrics (traced passes; filled only with `--trace 1`).
    pub layers: Layers,
    /// Workload-specific lines for the human-readable summary.
    pub notes: Vec<String>,
    /// Untraced passes measured.
    pub passes: usize,
}

impl EndToEnd {
    /// Every end-to-end metric as `(name, value, unit)`.
    pub fn metrics(&self) -> Vec<(&'static str, Value, &'static str)> {
        vec![
            ("setup_s", Value::F(self.setup_s), "s"),
            ("run_s", Value::F(self.run_s), "s"),
            ("accesses_per_s", Value::F(self.accesses_per_s), "1/s"),
            ("peak_rss_mb", Value::F(self.peak_rss_mb), "MB"),
        ]
    }
}

/// The final line: one JSON object with the run's verdict and metrics.
pub fn result_json(checks: &Checks, metrics: &[(&'static str, Value, &'static str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                v.json()
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        body.join(", ")
    )
}
