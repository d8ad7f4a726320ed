//! One regenerator per table and figure of the paper's evaluation.

use crate::format::{f2, f3, millions, Table};
use pim_bus::{BusCommand, BusTiming};
use pim_cache::{CacheGeometry, OptColumn, OptMask, SystemConfig};
use pim_obs::{Histogram, PeCycles};
use pim_trace::{OpClass, StorageArea};
use workloads::runner::{run_illinois, run_pim, run_pim_observed, run_pim_profiled, RunReport};
use workloads::{Bench, Scale};

/// The paper's base system: 8 PEs, 4-Kword 4-way caches with 4-word
/// blocks, one-word bus, 8-cycle memory.
pub fn base_config(pes: u32, mask: OptMask) -> SystemConfig {
    SystemConfig {
        pes,
        geometry: CacheGeometry::paper_default(),
        timing: BusTiming::paper_default(),
        opt_mask: mask,
        ..SystemConfig::default()
    }
}

/// Traces one representative Table-1 run — `tri` on the paper's base
/// 8-PE system — through the sequential engine and writes the Chrome
/// `trace_event` file for `repro --trace`. Returns
/// `(makespan, emitted, dropped)` for the caller's summary line.
pub fn trace_table1_run(scale: Scale, path: &str, cap: usize) -> std::io::Result<(u64, u64, u64)> {
    let tracer = pim_tracer::SharedTracer::with_capacity(cap);
    let report = run_pim_observed(
        Bench::Tri,
        scale,
        base_config(8, OptMask::all()),
        &mut || tracer.observer(),
    );
    let (emitted, recorded, dropped) =
        (tracer.emitted(), tracer.recorded() as u64, tracer.dropped());
    let text = pim_tracer::export_chrome(
        &tracer.take_sorted(),
        &pim_tracer::TraceMeta {
            makespan: report.makespan,
            pes: report.pes as usize,
            emitted,
            recorded,
            dropped,
        },
    );
    pim_ckpt::atomic_write_class(
        pim_ckpt::vfs::PathClass::Trace,
        std::path::Path::new(path),
        text.as_bytes(),
    )?;
    Ok((report.makespan, emitted, dropped))
}

fn pct(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        100.0 * num as f64 / den as f64
    }
}

fn mean_sigma(xs: &[f64]) -> (f64, f64) {
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
    (mean, var.sqrt())
}

// Experiment cells run through the bounded fork-join pool: each cell is
// a self-contained deterministic simulation, so host parallelism — like
// the paper's Sequent host — changes nothing but wall time.
use crate::pool::par_map;

// ----------------------------------------------------------------------
// Table 1 — benchmark summary
// ----------------------------------------------------------------------

/// One row of Table 1.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Benchmark name.
    pub bench: Bench,
    /// Non-empty FGHC source lines.
    pub lines: usize,
    /// Simulated cycles on 8 PEs.
    pub cycles_8pe: u64,
    /// Speedup of 8 PEs over 1 PE (simulated makespan ratio).
    pub speedup: f64,
    /// Goal reductions.
    pub reductions: u64,
    /// Goal suspensions.
    pub suspensions: u64,
    /// Abstract instructions executed.
    pub instructions: u64,
    /// Memory references (instruction + data).
    pub refs: u64,
    /// Per-PE busy / bus-wait / lock-wait / idle accounting of the
    /// 8-PE run (not rendered in the text table; the JSON report
    /// carries it).
    pub pe_cycles: Vec<PeCycles>,
    /// Bus-acquisition wait distribution of the 8-PE run.
    pub bus_wait: Histogram,
}

/// Regenerates Table 1 (benchmark summary on eight PEs).
pub fn table1(scale: Scale) -> Vec<Table1Row> {
    par_map(Bench::ALL.to_vec(), |bench| {
        let mut r8 = run_pim_profiled(bench, scale, base_config(8, OptMask::all()));
        let r1 = run_pim(bench, scale, base_config(1, OptMask::all()));
        let Some(metrics) = r8.metrics.take() else {
            unreachable!("profiled run collects metrics")
        };
        Table1Row {
            bench,
            lines: bench.source_lines(),
            cycles_8pe: r8.makespan,
            speedup: r1.makespan as f64 / r8.makespan as f64,
            reductions: r8.machine.reductions,
            suspensions: r8.machine.suspensions,
            instructions: r8.machine.instructions,
            refs: r8.refs.total(),
            pe_cycles: r8.pe_cycles,
            bus_wait: metrics.bus_wait,
        }
    })
}

/// Renders Table 1.
pub fn render_table1(rows: &[Table1Row]) -> String {
    let mut t = Table::new(
        "Table 1: Short Summary of Benchmarks on Eight PEs",
        &[
            "bench", "lines", "cycles", "su", "reduct", "susp", "instr", "ref",
        ],
    );
    for r in rows {
        t.row(vec![
            r.bench.name().into(),
            r.lines.to_string(),
            millions(r.cycles_8pe),
            f2(r.speedup),
            r.reductions.to_string(),
            r.suspensions.to_string(),
            millions(r.instructions),
            millions(r.refs),
        ]);
    }
    t.render()
}

// ----------------------------------------------------------------------
// Tables 2 & 3 — reference and bus-cycle distributions (no optimizations)
// ----------------------------------------------------------------------

/// The per-benchmark base runs (8 PEs, optimizations off) shared by
/// Tables 2 and 3.
#[derive(Debug)]
pub struct BaseRuns {
    /// One report per benchmark, in [`Bench::ALL`] order.
    pub reports: Vec<RunReport>,
}

/// Runs the Table 2/3 configuration: eight PEs, the base cache, no
/// optimized commands (they are what Tables 4+ measure).
pub fn base_runs(scale: Scale) -> BaseRuns {
    BaseRuns {
        reports: par_map(Bench::ALL.to_vec(), |b| {
            run_pim(b, scale, base_config(8, OptMask::none()))
        }),
    }
}

/// Renders Table 2 (% memory references and bus cycles by area).
pub fn render_table2(runs: &BaseRuns) -> String {
    let mut out = String::new();
    let areas = StorageArea::ALL;

    // % of (inst + data) references per area, E and sigma across benches.
    let mut t = Table::new(
        "Table 2a: % Memory References by Area",
        &["stat", "inst", "data", "heap", "goal", "susp", "comm"],
    );
    let mut per_area: Vec<Vec<f64>> = vec![Vec::new(); 5];
    let mut data_pcts: Vec<Vec<f64>> = vec![Vec::new(); 5];
    for r in &runs.reports {
        for (i, &a) in areas.iter().enumerate() {
            per_area[i].push(r.refs.area_pct(a));
            data_pcts[i].push(r.refs.data_area_pct(a));
        }
    }
    let stats: Vec<(f64, f64)> = per_area.iter().map(|xs| mean_sigma(xs)).collect();
    let data_total_pct: Vec<f64> = runs
        .reports
        .iter()
        .map(|r| pct(r.refs.data_total(), r.refs.total()))
        .collect();
    let (dmean, _) = mean_sigma(&data_total_pct);
    t.row(vec![
        "E(inst+data)".into(),
        f2(stats[0].0),
        f2(dmean),
        f2(stats[1].0),
        f2(stats[2].0),
        f2(stats[3].0),
        f2(stats[4].0),
    ]);
    t.row(vec![
        "sigma".into(),
        f2(stats[0].1),
        f2(stats[0].1),
        f2(stats[1].1),
        f2(stats[2].1),
        f2(stats[3].1),
        f2(stats[4].1),
    ]);
    let dstats: Vec<(f64, f64)> = data_pcts.iter().map(|xs| mean_sigma(xs)).collect();
    t.row(vec![
        "E(data)".into(),
        "-".into(),
        "-".into(),
        f2(dstats[1].0),
        f2(dstats[2].0),
        f2(dstats[3].0),
        f2(dstats[4].0),
    ]);
    out.push_str(&t.render());

    // Bus cycles by area.
    let mut t = Table::new(
        "Table 2b: % Bus Cycles by Area",
        &["bench", "inst", "data", "heap", "goal", "susp", "comm"],
    );
    let mut bus_pcts: Vec<Vec<f64>> = vec![Vec::new(); 5];
    for r in &runs.reports {
        for (i, &a) in areas.iter().enumerate() {
            bus_pcts[i].push(r.bus.area_cycle_pct(a));
        }
    }
    let bstats: Vec<(f64, f64)> = bus_pcts.iter().map(|xs| mean_sigma(xs)).collect();
    t.row(vec![
        "E(inst+data)".into(),
        f2(bstats[0].0),
        f2(100.0 - bstats[0].0),
        f2(bstats[1].0),
        f2(bstats[2].0),
        f2(bstats[3].0),
        f2(bstats[4].0),
    ]);
    t.row(vec![
        "sigma".into(),
        f2(bstats[0].1),
        f2(bstats[0].1),
        f2(bstats[1].1),
        f2(bstats[2].1),
        f2(bstats[3].1),
        f2(bstats[4].1),
    ]);
    for r in &runs.reports {
        let inst = r.bus.area_cycle_pct(StorageArea::Instruction);
        t.row(vec![
            r.bench.name().into(),
            f2(inst),
            f2(100.0 - inst),
            f2(r.bus.area_cycle_pct(StorageArea::Heap)),
            f2(r.bus.area_cycle_pct(StorageArea::Goal)),
            f2(r.bus.area_cycle_pct(StorageArea::Suspension)),
            f2(r.bus.area_cycle_pct(StorageArea::Communication)),
        ]);
    }
    out.push_str(&t.render());
    out
}

/// Renders Table 3 (% memory references by operation class).
pub fn render_table3(runs: &BaseRuns) -> String {
    let mut t = Table::new(
        "Table 3: % Memory References by Operation",
        &["stat", "R", "LR", "W", "UW+U"],
    );
    let classes = OpClass::ALL;

    let collect = |f: &dyn Fn(&RunReport, OpClass) -> f64| -> Vec<(f64, f64)> {
        classes
            .iter()
            .map(|&c| {
                let xs: Vec<f64> = runs.reports.iter().map(|r| f(r, c)).collect();
                mean_sigma(&xs)
            })
            .collect()
    };

    let all = collect(&|r, c| pct(r.refs.class_total(c), r.refs.total()));
    let data = collect(&|r, c| pct(r.refs.data_class_total(c), r.refs.data_total()));
    let heap = collect(&|r, c| {
        pct(
            r.refs.area_class_total(StorageArea::Heap, c),
            r.refs.area_total(StorageArea::Heap),
        )
    });
    for (label, stats, idx) in [
        ("E(inst+data)", &all, 0),
        ("sigma(inst+data)", &all, 1),
        ("E(data)", &data, 0),
        ("sigma(data)", &data, 1),
        ("E(heap)", &heap, 0),
        ("sigma(heap)", &heap, 1),
    ] {
        let pick = |s: &(f64, f64)| if idx == 0 { s.0 } else { s.1 };
        t.row(vec![
            label.into(),
            f2(pick(&stats[0])),
            f2(pick(&stats[1])),
            f2(pick(&stats[2])),
            f2(pick(&stats[3])),
        ]);
    }
    for r in &runs.reports {
        let row: Vec<String> = classes
            .iter()
            .map(|&c| {
                f2(pct(
                    r.refs.area_class_total(StorageArea::Heap, c),
                    r.refs.area_total(StorageArea::Heap),
                ))
            })
            .collect();
        t.row(
            std::iter::once(format!("{} (heap)", r.bench.name()))
                .chain(row)
                .collect(),
        );
    }
    t.render()
}

// ----------------------------------------------------------------------
// Figure 1 — block size vs miss ratio and bus traffic
// ----------------------------------------------------------------------

/// One point of Figure 1.
#[derive(Debug, Clone)]
pub struct Fig1Point {
    /// Benchmark.
    pub bench: Bench,
    /// Block size in words.
    pub block_words: u64,
    /// Cache miss ratio.
    pub miss_ratio: f64,
    /// Total bus cycles.
    pub bus_cycles: u64,
}

/// Regenerates Figure 1: block size ∈ {1,2,4,8,16}, 4-Kword 4-way caches,
/// all optimizations on.
pub fn fig1(scale: Scale) -> Vec<Fig1Point> {
    let mut cells = Vec::new();
    for &block in &[1u64, 2, 4, 8, 16] {
        for &bench in &Bench::ALL {
            cells.push((block, bench));
        }
    }
    par_map(cells, |(block, bench)| {
        let config = SystemConfig {
            pes: 8,
            geometry: CacheGeometry::with_shape(4096, block, 4),
            ..base_config(8, OptMask::all())
        };
        let r = run_pim(bench, scale, config);
        Fig1Point {
            bench,
            block_words: block,
            miss_ratio: r.access.miss_ratio(),
            bus_cycles: r.bus.total_cycles(),
        }
    })
}

/// Renders Figure 1 as two series tables.
pub fn render_fig1(points: &[Fig1Point]) -> String {
    render_series(
        "Figure 1: Cache Block Size vs Miss Ratio and Bus Traffic",
        "block",
        points.iter().map(|p| {
            (
                p.bench,
                p.block_words.to_string(),
                p.miss_ratio,
                p.bus_cycles,
            )
        }),
    )
}

fn render_series(
    title: &str,
    xlabel: &str,
    points: impl Iterator<Item = (Bench, String, f64, u64)>,
) -> String {
    let pts: Vec<(Bench, String, f64, u64)> = points.collect();
    let mut xs: Vec<String> = Vec::new();
    for (_, x, _, _) in &pts {
        if !xs.contains(x) {
            xs.push(x.clone());
        }
    }
    let mut out = String::new();
    let mut header = vec![xlabel];
    let names: Vec<&str> = Bench::ALL.iter().map(|b| b.name()).collect();
    header.extend(names.iter().copied());
    let mut t1 = Table::new(format!("{title} — miss ratio"), &header);
    let mut t2 = Table::new(format!("{title} — bus cycles"), &header);
    for x in &xs {
        let mut row1 = vec![x.clone()];
        let mut row2 = vec![x.clone()];
        for &bench in &Bench::ALL {
            let Some(p) = pts.iter().find(|(b, px, _, _)| *b == bench && px == x) else {
                unreachable!("sweep grid is complete by construction")
            };
            row1.push(f3(p.2));
            row2.push(p.3.to_string());
        }
        t1.row(row1);
        t2.row(row2);
    }
    out.push_str(&t1.render());
    out.push_str(&t2.render());
    out
}

// ----------------------------------------------------------------------
// Figure 2 — cache capacity vs bus traffic
// ----------------------------------------------------------------------

/// One point of Figure 2.
#[derive(Debug, Clone)]
pub struct Fig2Point {
    /// Benchmark.
    pub bench: Bench,
    /// Cache capacity in data words.
    pub capacity_words: u64,
    /// Total cache bits under the paper's 5-byte-word accounting.
    pub total_bits: u64,
    /// Cache miss ratio.
    pub miss_ratio: f64,
    /// Total bus cycles.
    pub bus_cycles: u64,
}

/// Regenerates Figure 2: capacity ∈ {512 … 16K} words, 4-word blocks,
/// 4-way, all optimizations on.
pub fn fig2(scale: Scale) -> Vec<Fig2Point> {
    let mut cells = Vec::new();
    for &cap in &[512u64, 1024, 2048, 4096, 8192, 16384] {
        for &bench in &Bench::ALL {
            cells.push((cap, bench));
        }
    }
    par_map(cells, |(cap, bench)| {
        let geometry = CacheGeometry::with_capacity(cap);
        let config = SystemConfig {
            pes: 8,
            geometry,
            ..base_config(8, OptMask::all())
        };
        let r = run_pim(bench, scale, config);
        Fig2Point {
            bench,
            capacity_words: cap,
            total_bits: geometry.total_bits(40, 32),
            miss_ratio: r.access.miss_ratio(),
            bus_cycles: r.bus.total_cycles(),
        }
    })
}

/// Renders Figure 2.
pub fn render_fig2(points: &[Fig2Point]) -> String {
    let mut out = render_series(
        "Figure 2: Cache Capacity vs Miss Ratio and Bus Traffic",
        "words",
        points.iter().map(|p| {
            (
                p.bench,
                p.capacity_words.to_string(),
                p.miss_ratio,
                p.bus_cycles,
            )
        }),
    );
    let mut t = Table::new(
        "Figure 2 x-axis: directory-inclusive size",
        &["words", "bits"],
    );
    let mut seen = Vec::new();
    for p in points {
        if !seen.contains(&p.capacity_words) {
            seen.push(p.capacity_words);
            t.row(vec![p.capacity_words.to_string(), p.total_bits.to_string()]);
        }
    }
    out.push_str(&t.render());
    out
}

// ----------------------------------------------------------------------
// Figure 3 — number of PEs vs bus traffic
// ----------------------------------------------------------------------

/// One point of Figure 3.
#[derive(Debug, Clone)]
pub struct Fig3Point {
    /// Benchmark.
    pub bench: Bench,
    /// PE count.
    pub pes: u32,
    /// Total bus cycles.
    pub bus_cycles: u64,
    /// % of bus cycles in the communication area.
    pub comm_pct: f64,
    /// % of bus cycles in the heap area.
    pub heap_pct: f64,
    /// % of bus cycles in the suspension area.
    pub susp_pct: f64,
}

/// Regenerates Figure 3: PEs ∈ {1,2,4,8}, base cache, all optimizations.
pub fn fig3(scale: Scale) -> Vec<Fig3Point> {
    let mut cells = Vec::new();
    // 16 PEs extends past the paper's sweep to show why it concludes
    // "about eight high-performance PEs will be connected" per bus.
    for &pes in &[1u32, 2, 4, 8, 16] {
        for &bench in &Bench::ALL {
            cells.push((pes, bench));
        }
    }
    par_map(cells, |(pes, bench)| {
        let r = run_pim(bench, scale, base_config(pes, OptMask::all()));
        Fig3Point {
            bench,
            pes,
            bus_cycles: r.bus.total_cycles(),
            comm_pct: r.bus.area_cycle_pct(StorageArea::Communication),
            heap_pct: r.bus.area_cycle_pct(StorageArea::Heap),
            susp_pct: r.bus.area_cycle_pct(StorageArea::Suspension),
        }
    })
}

/// Renders Figure 3.
pub fn render_fig3(points: &[Fig3Point]) -> String {
    let mut out = String::new();
    let mut header = vec!["PEs"];
    header.extend(Bench::ALL.iter().map(|b| b.name()));
    let mut t = Table::new("Figure 3: Number of PEs vs Bus Traffic (cycles)", &header);
    for &pes in &[1u32, 2, 4, 8, 16] {
        let mut row = vec![pes.to_string()];
        for &bench in &Bench::ALL {
            let Some(p) = points.iter().find(|p| p.bench == bench && p.pes == pes) else {
                unreachable!("sweep grid is complete by construction")
            };
            row.push(p.bus_cycles.to_string());
        }
        t.row(row);
    }
    out.push_str(&t.render());

    let mut t = Table::new(
        "Figure 3 detail: average area share of bus cycles vs PEs",
        &["PEs", "heap%", "comm%", "susp%"],
    );
    for &pes in &[1u32, 2, 4, 8, 16] {
        let sel: Vec<&Fig3Point> = points.iter().filter(|p| p.pes == pes).collect();
        let avg = |f: &dyn Fn(&Fig3Point) -> f64| {
            sel.iter().map(|p| f(p)).sum::<f64>() / sel.len() as f64
        };
        t.row(vec![
            pes.to_string(),
            f2(avg(&|p| p.heap_pct)),
            f2(avg(&|p| p.comm_pct)),
            f2(avg(&|p| p.susp_pct)),
        ]);
    }
    out.push_str(&t.render());
    out
}

// ----------------------------------------------------------------------
// Table 4 — effect of the optimized commands
// ----------------------------------------------------------------------

/// One benchmark's Table 4 row plus the Section 4.6 detail counters.
#[derive(Debug, Clone)]
pub struct Table4Row {
    /// Benchmark.
    pub bench: Bench,
    /// Bus cycles per column, relative to "None" (so `rel[0] == 1.0`).
    pub rel: [f64; 5],
    /// Heap swap-ins with DW relative to without (Section 4.6: 10–55 %).
    pub heap_swap_in_ratio: f64,
    /// Goal swap-outs with ER/RP/DW relative to without.
    pub goal_swap_out_ratio: f64,
    /// Invalidate (`I`) bus commands with RI relative to without
    /// (Section 4.6: RI avoids 60–70 % of them).
    pub invalidate_ratio: f64,
}

/// Regenerates Table 4: bus cycles under each optimization column,
/// relative to the unoptimized cache.
pub fn table4(scale: Scale) -> Vec<Table4Row> {
    par_map(Bench::ALL.to_vec(), |bench| {
        let reports: Vec<RunReport> = par_map(OptColumn::ALL.to_vec(), |col| {
            run_pim(bench, scale, base_config(8, OptMask::column(col)))
        });
        let none = &reports[0];
        let base = none.bus.total_cycles() as f64;
        let mut rel = [0.0; 5];
        for (i, r) in reports.iter().enumerate() {
            rel[i] = r.bus.total_cycles() as f64 / base;
        }
        let heap_col = &reports[1];
        let goal_col = &reports[2];
        let comm_col = &reports[3];
        Table4Row {
            bench,
            rel,
            heap_swap_in_ratio: heap_col.bus.swap_ins(StorageArea::Heap) as f64
                / none.bus.swap_ins(StorageArea::Heap).max(1) as f64,
            goal_swap_out_ratio: goal_col.bus.swap_outs(StorageArea::Goal) as f64
                / none.bus.swap_outs(StorageArea::Goal).max(1) as f64,
            invalidate_ratio: comm_col.bus.cmd_count(BusCommand::Invalidate) as f64
                / none.bus.cmd_count(BusCommand::Invalidate).max(1) as f64,
        }
    })
}

/// Renders Table 4 (+ the Section 4.6 detail).
pub fn render_table4(rows: &[Table4Row]) -> String {
    let mut t = Table::new(
        "Table 4: Effect of Optimized Cache Commands (bus cycles rel. to None)",
        &["bench", "None", "Heap", "Goal", "Comm", "All"],
    );
    for r in rows {
        let mut row = vec![r.bench.name().to_string()];
        row.extend(r.rel.iter().map(|&x| f2(x)));
        t.row(row);
    }
    let mut out = t.render();
    let mut t = Table::new(
        "Section 4.6 detail: per-command effectiveness",
        &[
            "bench",
            "heap swap-in (DW)",
            "goal swap-out (ER/RP/DW)",
            "I cmds (RI)",
        ],
    );
    for r in rows {
        t.row(vec![
            r.bench.name().into(),
            f2(r.heap_swap_in_ratio),
            f2(r.goal_swap_out_ratio),
            f2(r.invalidate_ratio),
        ]);
    }
    out.push_str(&t.render());
    out
}

// ----------------------------------------------------------------------
// Table 5 — lock protocol hit ratios
// ----------------------------------------------------------------------

/// One benchmark's Table 5 column.
#[derive(Debug, Clone)]
pub struct Table5Col {
    /// Benchmark.
    pub bench: Bench,
    /// `LR` hit ratio.
    pub lr_hit: f64,
    /// `LR` hit-to-exclusive ratio (the bus-free case).
    pub lr_hit_exclusive: f64,
    /// `U`/`UW` hit-to-no-waiter ratio (the broadcast-free case).
    pub unlock_no_waiter: f64,
}

/// Regenerates Table 5 from full-system runs (8 PEs, all optimizations).
pub fn table5(scale: Scale) -> Vec<Table5Col> {
    par_map(Bench::ALL.to_vec(), |bench| {
        let r = run_pim(bench, scale, base_config(8, OptMask::all()));
        Table5Col {
            bench,
            lr_hit: r.locks.lr_hit_ratio(),
            lr_hit_exclusive: r.locks.lr_hit_exclusive_ratio(),
            unlock_no_waiter: r.locks.unlock_no_waiter_ratio(),
        }
    })
}

/// Renders Table 5.
pub fn render_table5(cols: &[Table5Col]) -> String {
    let mut header = vec![""];
    header.extend(cols.iter().map(|c| c.bench.name()));
    let mut t = Table::new("Table 5: Hit Ratios of No-Cost Lock Operations", &header);
    type ColGetter<'a> = &'a dyn Fn(&Table5Col) -> f64;
    let rows: [(&str, ColGetter); 3] = [
        ("LR hit-ratio", &|c| c.lr_hit),
        ("LR hit-to-Exclusive", &|c| c.lr_hit_exclusive),
        ("U,UW hit-to-No-waiter", &|c| c.unlock_no_waiter),
    ];
    for (label, f) in rows {
        let mut row = vec![label.to_string()];
        row.extend(cols.iter().map(|c| f3(f(c))));
        t.row(row);
    }
    t.render()
}

// ----------------------------------------------------------------------
// Section 4.4 note — bus width
// ----------------------------------------------------------------------

/// One benchmark's one- vs two-word-bus traffic.
#[derive(Debug, Clone)]
pub struct BusWidthRow {
    /// Benchmark.
    pub bench: Bench,
    /// Bus cycles with a one-word bus.
    pub one_word: u64,
    /// Bus cycles with a two-word bus.
    pub two_word: u64,
}

impl BusWidthRow {
    /// two-word traffic as a fraction of one-word (paper: 0.62–0.75).
    pub fn ratio(&self) -> f64 {
        self.two_word as f64 / self.one_word as f64
    }
}

/// Regenerates the Section 4.4 bus-width comparison.
pub fn buswidth(scale: Scale) -> Vec<BusWidthRow> {
    par_map(Bench::ALL.to_vec(), |bench| {
        let one = run_pim(bench, scale, base_config(8, OptMask::all()));
        let two = run_pim(
            bench,
            scale,
            SystemConfig {
                timing: BusTiming::two_word_bus(),
                ..base_config(8, OptMask::all())
            },
        );
        BusWidthRow {
            bench,
            one_word: one.bus.total_cycles(),
            two_word: two.bus.total_cycles(),
        }
    })
}

/// Renders the bus-width comparison.
pub fn render_buswidth(rows: &[BusWidthRow]) -> String {
    let mut t = Table::new(
        "Section 4.4: two-word bus traffic relative to one-word",
        &["bench", "1-word cycles", "2-word cycles", "ratio"],
    );
    for r in rows {
        t.row(vec![
            r.bench.name().into(),
            r.one_word.to_string(),
            r.two_word.to_string(),
            f2(r.ratio()),
        ]);
    }
    t.render()
}

// ----------------------------------------------------------------------
// Section 4.3 note — associativity
// ----------------------------------------------------------------------

/// One (benchmark, associativity) bus-traffic measurement.
#[derive(Debug, Clone)]
pub struct AssocPoint {
    /// Benchmark.
    pub bench: Bench,
    /// Ways.
    pub ways: u64,
    /// Total bus cycles.
    pub bus_cycles: u64,
}

/// Regenerates the associativity comparison (1/2/4/8-way, 4-Kword),
/// including BUP — the benchmark the paper's Section 4.3 numbers cite.
pub fn assoc(scale: Scale) -> Vec<AssocPoint> {
    let mut cells = Vec::new();
    for &ways in &[1u64, 2, 4, 8] {
        for &bench in &Bench::EXTENDED {
            cells.push((ways, bench));
        }
    }
    par_map(cells, |(ways, bench)| {
        let config = SystemConfig {
            geometry: CacheGeometry::with_shape(4096, 4, ways),
            ..base_config(8, OptMask::all())
        };
        let r = run_pim(bench, scale, config);
        AssocPoint {
            bench,
            ways,
            bus_cycles: r.bus.total_cycles(),
        }
    })
}

/// Renders the associativity comparison.
pub fn render_assoc(points: &[AssocPoint]) -> String {
    let mut header = vec!["ways"];
    header.extend(Bench::EXTENDED.iter().map(|b| b.name()));
    let mut t = Table::new(
        "Section 4.3: associativity vs bus traffic (cycles)",
        &header,
    );
    for &ways in &[1u64, 2, 4, 8] {
        let mut row = vec![ways.to_string()];
        for &bench in &Bench::EXTENDED {
            let Some(p) = points.iter().find(|p| p.bench == bench && p.ways == ways) else {
                unreachable!("sweep grid is complete by construction")
            };
            row.push(p.bus_cycles.to_string());
        }
        t.row(row);
    }
    t.render()
}

// ----------------------------------------------------------------------
// Ablation — the SM state and the lock directory vs Illinois
// ----------------------------------------------------------------------

/// PIM vs Illinois, one benchmark.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Benchmark.
    pub bench: Bench,
    /// PIM total bus cycles.
    pub pim_bus: u64,
    /// Illinois total bus cycles.
    pub illinois_bus: u64,
    /// PIM shared-memory busy cycles.
    pub pim_mem_busy: u64,
    /// Illinois shared-memory busy cycles.
    pub illinois_mem_busy: u64,
    /// PIM fraction of lock reads that were bus-free.
    pub pim_lr_free: f64,
    /// PIM fraction of unlocks that were broadcast-free.
    pub pim_ul_free: f64,
}

/// Regenerates the DESIGN.md ablations: the `SM` state (memory busy under
/// cache-to-cache transfer) and the separate lock directory (no-cost lock
/// operations), against the Illinois baseline.
pub fn ablation(scale: Scale) -> Vec<AblationRow> {
    par_map(Bench::ALL.to_vec(), |bench| {
        let pim = run_pim(bench, scale, base_config(8, OptMask::all()));
        let ill = run_illinois(bench, scale, base_config(8, OptMask::all()));
        AblationRow {
            bench,
            pim_bus: pim.bus.total_cycles(),
            illinois_bus: ill.bus.total_cycles(),
            pim_mem_busy: pim.bus.memory_busy_cycles(),
            illinois_mem_busy: ill.bus.memory_busy_cycles(),
            pim_lr_free: pim.locks.lr_hit_exclusive_ratio(),
            pim_ul_free: pim.locks.unlock_no_waiter_ratio(),
        }
    })
}

// ----------------------------------------------------------------------
// GC — stop-and-copy pressure on heap referencing (Section 4.1's note)
// ----------------------------------------------------------------------

/// One GC-pressure measurement.
#[derive(Debug, Clone)]
pub struct GcRow {
    /// Semispace size per PE in words (`None` = GC disabled).
    pub semispace: Option<u64>,
    /// Collections performed.
    pub collections: u64,
    /// Live words copied across all collections.
    pub words_copied: u64,
    /// Total bus cycles.
    pub bus_cycles: u64,
    /// Heap-area bus cycles.
    pub heap_cycles: u64,
}

/// Regenerates the GC experiment: Pascal (the allocation pipeline) under
/// shrinking semispaces. The paper notes GC choice "will significantly
/// affect heap referencing characteristics" (Section 4.1) — this measures
/// how much for stop-and-copy.
pub fn gc_pressure(scale: Scale) -> Vec<GcRow> {
    use workloads::runner::{run_pim, run_pim_gc};
    // Two PEs concentrate the allocation so semispaces actually fill;
    // GC pressure is relative to the per-PE heap.
    let pes = 2;
    let mut rows = Vec::new();
    let base = run_pim(Bench::Pascal, scale, base_config(pes, OptMask::all()));
    rows.push(GcRow {
        semispace: None,
        collections: 0,
        words_copied: 0,
        bus_cycles: base.bus.total_cycles(),
        heap_cycles: base.bus.area_cycles(StorageArea::Heap),
    });
    let semis: [u64; 3] = if scale == Scale::smoke() {
        [2048, 512, 256]
    } else {
        [64 * 1024, 16 * 1024, 4 * 1024]
    };
    for semi in semis {
        let (report, gc) = run_pim_gc(Bench::Pascal, scale, base_config(pes, OptMask::all()), semi);
        rows.push(GcRow {
            semispace: Some(semi),
            collections: gc.collections,
            words_copied: gc.words_copied,
            bus_cycles: report.bus.total_cycles(),
            heap_cycles: report.bus.area_cycles(StorageArea::Heap),
        });
    }
    rows
}

/// Renders the GC experiment.
pub fn render_gc(rows: &[GcRow]) -> String {
    let mut t = Table::new(
        "Stop-and-copy GC pressure (Pascal, 2 PEs, all optimizations)",
        &[
            "semispace",
            "collections",
            "words copied",
            "bus cycles",
            "heap cycles",
        ],
    );
    for r in rows {
        t.row(vec![
            r.semispace.map_or("off".into(), |s| s.to_string()),
            r.collections.to_string(),
            r.words_copied.to_string(),
            r.bus_cycles.to_string(),
            r.heap_cycles.to_string(),
        ]);
    }
    t.render()
}

// ----------------------------------------------------------------------
// Aurora — OR-parallel Prolog on the PIM cache (Sections 1 and 5)
// ----------------------------------------------------------------------

/// Traffic of the Aurora-like workload under one configuration.
#[derive(Debug, Clone)]
pub struct AuroraRow {
    /// Configuration label.
    pub label: &'static str,
    /// Total bus cycles.
    pub bus_cycles: u64,
    /// Shared-memory busy cycles.
    pub mem_busy: u64,
    /// Lock reads that were bus-free (exclusive hits).
    pub lr_free: f64,
}

/// Regenerates the Aurora claim: the PIM optimizations also pay off for
/// an OR-parallel Prolog (WAM) memory-reference pattern, not just KL1.
pub fn aurora(scale: Scale) -> Vec<AuroraRow> {
    use pim_cache::PimSystem;
    use pim_sim::{Engine, IllinoisSystem, MemorySystem, Replayer};

    let ops = if scale == Scale::smoke() {
        2_000
    } else {
        20_000
    };
    let trace = workloads::synthetic::aurora_like(8, ops, 1989);

    fn run_replay<S: MemorySystem>(trace: &[pim_trace::Access], system: S) -> S {
        let mut replayer = Replayer::from_merged(trace, 8);
        let mut engine = Engine::new(system, 8);
        let stats = engine
            .run(&mut replayer, u64::MAX)
            .unwrap_or_else(|e| panic!("aurora replay failed: {e}"));
        assert!(stats.finished, "aurora replay did not finish");
        engine.into_system()
    }

    let mut rows = Vec::new();
    for (label, mask) in [
        ("PIM, optimized", OptMask::all()),
        ("PIM, plain", OptMask::none()),
    ] {
        let sys = run_replay(&trace, PimSystem::new(base_config(8, mask)));
        rows.push(AuroraRow {
            label,
            bus_cycles: sys.bus_stats().total_cycles(),
            mem_busy: sys.bus_stats().memory_busy_cycles(),
            lr_free: sys.lock_stats().lr_hit_exclusive_ratio(),
        });
    }
    let sys = run_replay(&trace, IllinoisSystem::new(base_config(8, OptMask::none())));
    rows.push(AuroraRow {
        label: "Illinois",
        bus_cycles: sys.bus_stats().total_cycles(),
        mem_busy: sys.bus_stats().memory_busy_cycles(),
        lr_free: sys.lock_stats().lr_hit_exclusive_ratio(),
    });
    rows
}

/// Renders the Aurora comparison.
pub fn render_aurora(rows: &[AuroraRow]) -> String {
    let mut t = Table::new(
        "Aurora-like OR-parallel Prolog workload (8 workers)",
        &["configuration", "bus cycles", "mem busy", "LR free"],
    );
    for r in rows {
        t.row(vec![
            r.label.into(),
            r.bus_cycles.to_string(),
            r.mem_busy.to_string(),
            crate::format::f3(r.lr_free),
        ]);
    }
    t.render()
}

// ----------------------------------------------------------------------
// Ablation — first-argument clause indexing in the compiler
// ----------------------------------------------------------------------

/// Indexed vs linear clause dispatch, one benchmark.
#[derive(Debug, Clone)]
pub struct IndexingRow {
    /// Benchmark.
    pub bench: Bench,
    /// Abstract instructions with indexing.
    pub instr_indexed: u64,
    /// Abstract instructions with linear clause trial.
    pub instr_linear: u64,
    /// Instruction-area references with indexing.
    pub inst_refs_indexed: u64,
    /// Instruction-area references without.
    pub inst_refs_linear: u64,
    /// Simulated makespan with indexing.
    pub makespan_indexed: u64,
    /// Simulated makespan without.
    pub makespan_linear: u64,
}

/// Regenerates the clause-indexing ablation: KL1-B-style first-argument
/// dispatch vs linear clause trial, on the full cache system.
pub fn indexing(scale: Scale) -> Vec<IndexingRow> {
    use workloads::runner::run_pim_compiled;
    par_map(Bench::ALL.to_vec(), |bench| {
        let on = run_pim_compiled(
            bench,
            scale,
            base_config(8, OptMask::all()),
            fghc::CompileOptions {
                first_arg_indexing: true,
            },
        );
        let off = run_pim_compiled(
            bench,
            scale,
            base_config(8, OptMask::all()),
            fghc::CompileOptions {
                first_arg_indexing: false,
            },
        );
        IndexingRow {
            bench,
            instr_indexed: on.machine.instructions,
            instr_linear: off.machine.instructions,
            inst_refs_indexed: on.refs.area_total(StorageArea::Instruction),
            inst_refs_linear: off.refs.area_total(StorageArea::Instruction),
            makespan_indexed: on.makespan,
            makespan_linear: off.makespan,
        }
    })
}

/// Renders the indexing ablation.
pub fn render_indexing(rows: &[IndexingRow]) -> String {
    let mut t = Table::new(
        "Ablation: first-argument clause indexing",
        &[
            "bench",
            "instr idx",
            "instr lin",
            "inst refs idx",
            "inst refs lin",
            "cycles idx",
            "cycles lin",
        ],
    );
    for r in rows {
        t.row(vec![
            r.bench.name().into(),
            r.instr_indexed.to_string(),
            r.instr_linear.to_string(),
            r.inst_refs_indexed.to_string(),
            r.inst_refs_linear.to_string(),
            r.makespan_indexed.to_string(),
            r.makespan_linear.to_string(),
        ]);
    }
    t.render()
}

/// Renders the ablation table.
pub fn render_ablation(rows: &[AblationRow]) -> String {
    let mut t = Table::new(
        "Ablation: PIM vs Illinois (SM state + lock directory)",
        &[
            "bench",
            "PIM bus",
            "ILL bus",
            "PIM mem-busy",
            "ILL mem-busy",
            "LR free",
            "UL free",
        ],
    );
    for r in rows {
        t.row(vec![
            r.bench.name().into(),
            r.pim_bus.to_string(),
            r.illinois_bus.to_string(),
            r.pim_mem_busy.to_string(),
            r.illinois_mem_busy.to_string(),
            f3(r.pim_lr_free),
            f3(r.pim_ul_free),
        ]);
    }
    t.render()
}

// ----------------------------------------------------------------------
// Fault sweep — deterministic fault injection and recovery overhead
// ----------------------------------------------------------------------

/// Recovery overhead at one fault rate.
#[derive(Debug, Clone)]
pub struct FaultRow {
    /// Per-attempt fault probability, in parts per million.
    pub rate_ppm: u32,
    /// Faults injected over the whole replay.
    pub injected: u64,
    /// Faults recovered (equal to `injected` on every completed run).
    pub recovered: u64,
    /// Retry attempts consumed by recovery.
    pub retries: u64,
    /// Completion-delay cycles attributed to faults.
    pub penalty_cycles: u64,
    /// Simulated makespan.
    pub makespan: u64,
    /// Makespan overhead versus the fault-free run, in percent.
    pub overhead_pct: f64,
}

/// Sweeps deterministic fault rates over the lock-churn workload — the
/// trace with the most bus arbitration per access, hence the worst case
/// for NACK/stall recovery. The fault schedule is a pure function of
/// `(seed, cycle, pe, attempt)`, and every injected fault must be
/// recovered.
pub fn faults(scale: Scale, seed: u64) -> Vec<FaultRow> {
    use pim_cache::PimSystem;
    use pim_fault::{FaultConfig, FaultPlan};
    use pim_sim::{Engine, Replayer};

    let pes = 8;
    let pairs = if scale == Scale::smoke() { 500 } else { 5_000 };
    let trace = workloads::synthetic::lock_churn(pes, pairs, 10, 7);

    let mut rows = Vec::new();
    let mut base_makespan = 0u64;
    for rate_ppm in [0u32, 1_000, 10_000, 50_000] {
        let fc = FaultConfig::new(seed, rate_ppm);

        let mut replayer = Replayer::from_merged(&trace, pes);
        let mut engine = Engine::new(PimSystem::new(base_config(pes, OptMask::all())), pes);
        engine.set_fault_plan(FaultPlan::new(fc.clone()));
        let stats = engine
            .run(&mut replayer, u64::MAX)
            .unwrap_or_else(|e| panic!("fault sweep replay failed at {rate_ppm} ppm: {e}"));
        assert!(stats.finished, "fault sweep replay did not finish");
        let fs = engine.fault_stats().clone();

        assert_eq!(
            fs.injected, fs.recovered,
            "unrecovered fault at {rate_ppm} ppm"
        );
        if rate_ppm == 0 {
            base_makespan = stats.makespan;
            assert_eq!(fs.total_injected(), 0, "rate 0 must inject nothing");
        }
        let overhead_pct = if base_makespan == 0 {
            0.0
        } else {
            100.0 * (stats.makespan as f64 - base_makespan as f64) / base_makespan as f64
        };
        rows.push(FaultRow {
            rate_ppm,
            injected: fs.total_injected(),
            recovered: fs.total_recovered(),
            retries: fs.retries,
            penalty_cycles: fs.penalty_cycles,
            makespan: stats.makespan,
            overhead_pct,
        });
    }
    rows
}

/// Renders the fault sweep.
pub fn render_faults(rows: &[FaultRow], seed: u64) -> String {
    let mut t = Table::new(
        format!("Deterministic fault injection (lock-churn, 8 PEs, seed {seed})"),
        &[
            "rate",
            "injected",
            "recovered",
            "retries",
            "penalty",
            "makespan",
            "overhead",
        ],
    );
    for r in rows {
        t.row(vec![
            format!("{:.2}%", r.rate_ppm as f64 / 10_000.0),
            r.injected.to_string(),
            r.recovered.to_string(),
            r.retries.to_string(),
            r.penalty_cycles.to_string(),
            r.makespan.to_string(),
            format!("{:+.2}%", r.overhead_pct),
        ]);
    }
    t.render()
}
