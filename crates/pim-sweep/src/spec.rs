//! Sweep specs: a declarative grid of experiment cells.
//!
//! A spec is a line-oriented text file of `key = value[,value...]`
//! axes. The grid is the cross product of the axes, expanded in a fixed
//! order (protocol, then benchmark, then scale, then PEs, then block
//! words), so two parses of the same spec always enumerate the same
//! cells in the same order. Each cell has a canonical key string and an
//! FNV-1a content digest; the digest keys journal records, chaos
//! decisions, and backoff jitter, so everything downstream is
//! content-addressed by *what the cell computes*, not by its position
//! in the grid.
//!
//! ```text
//! # axes (required)
//! protocols = pim, illinois
//! benches   = tri, semi
//! scales    = smoke
//! pes       = 1, 2, 4    # each 1 to 64
//! # axes (optional, default 4)
//! blocks    = 4
//! # supervision policy (optional)
//! timeout   = 30      # per-cell wall-clock seconds
//! retries   = 3       # attempts per cell before quarantine
//! backoff   = 50      # base backoff between attempts, milliseconds
//! ```
//!
//! The special benchmark name `poison` expands to a cell that panics
//! deterministically on every attempt — the self-test target for the
//! retry/quarantine machinery.

use pim_cache::{SystemConfig, MAX_PES};
use pim_ckpt::fnv1a64;
use workloads::runner::Protocol;
use workloads::{Bench, Scale};

/// A benchmark axis value: a real benchmark, or the `poison` self-test
/// cell that panics deterministically on every attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellBench {
    /// One of the suite's benchmarks.
    Real(Bench),
    /// The self-test cell: panics on every attempt, exercising the
    /// supervisor's retry and quarantine paths.
    Poison,
}

impl CellBench {
    /// The axis value's name in specs and reports.
    pub fn name(self) -> &'static str {
        match self {
            CellBench::Real(b) => b.name(),
            CellBench::Poison => "poison",
        }
    }

    /// Parses an axis value (case-insensitive).
    pub fn from_name(name: &str) -> Option<CellBench> {
        if name.eq_ignore_ascii_case("poison") {
            return Some(CellBench::Poison);
        }
        Bench::from_name(name).map(CellBench::Real)
    }
}

/// One experiment cell of the sweep grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    /// Cache protocol.
    pub protocol: Protocol,
    /// Benchmark (or the poison self-test).
    pub bench: CellBench,
    /// Problem scale.
    pub scale: Scale,
    /// PE count.
    pub pes: u32,
    /// Cache block size in words.
    pub block_words: u64,
}

impl Cell {
    /// The cell's canonical key string — the identity everything
    /// content-addressed (journal records, chaos, backoff jitter) hangs
    /// off. Two cells with the same key compute the same result.
    pub fn key(&self) -> String {
        format!(
            "proto={} bench={} scale={} pes={} block={}",
            self.protocol.name(),
            self.bench.name(),
            self.scale.name(),
            self.pes,
            self.block_words
        )
    }

    /// FNV-1a digest of [`Cell::key`].
    pub fn digest(&self) -> u64 {
        fnv1a64(self.key().as_bytes())
    }

    /// The simulator configuration this cell runs under.
    pub fn config(&self) -> SystemConfig {
        let mut config = SystemConfig {
            pes: self.pes,
            ..SystemConfig::default()
        };
        config.geometry.block_words = self.block_words;
        config
    }
}

/// A parsed sweep spec: the grid axes plus the supervision policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepSpec {
    /// Protocol axis.
    pub protocols: Vec<Protocol>,
    /// Benchmark axis.
    pub benches: Vec<CellBench>,
    /// Scale axis.
    pub scales: Vec<Scale>,
    /// PE-count axis.
    pub pes: Vec<u32>,
    /// Block-size axis (words).
    pub blocks: Vec<u64>,
    /// Per-cell wall-clock timeout in seconds (`None` = unbounded).
    pub timeout_secs: Option<u64>,
    /// Attempts per cell before quarantine (≥ 1).
    pub max_attempts: u32,
    /// Base backoff between attempts, in milliseconds.
    pub backoff_ms: u64,
}

/// Default attempts per cell before quarantine.
pub const DEFAULT_ATTEMPTS: u32 = 3;
/// Default base backoff between attempts, in milliseconds.
pub const DEFAULT_BACKOFF_MS: u64 = 25;

impl SweepSpec {
    /// Parses a spec file. Errors name the offending line and key so
    /// callers can forward them verbatim as exit-2 diagnostics.
    pub fn parse(text: &str) -> Result<SweepSpec, String> {
        let mut protocols = Vec::new();
        let mut benches = Vec::new();
        let mut scales = Vec::new();
        let mut pes = Vec::new();
        let mut blocks = Vec::new();
        let mut timeout_secs = None;
        let mut max_attempts = DEFAULT_ATTEMPTS;
        let mut backoff_ms = DEFAULT_BACKOFF_MS;
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let lineno = lineno + 1;
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!("sweep spec line {lineno}: expected `key = value`"));
            };
            let (key, value) = (key.trim(), value.trim());
            let values = || value.split(',').map(str::trim).filter(|v| !v.is_empty());
            let one_u64 = |what: &str| -> Result<u64, String> {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("sweep spec line {lineno}: bad {what} `{value}`"))
            };
            match key {
                "protocols" => {
                    for v in values() {
                        protocols.push(Protocol::from_name(v).ok_or_else(|| {
                            format!("sweep spec line {lineno}: unknown protocol `{v}`")
                        })?);
                    }
                }
                "benches" => {
                    for v in values() {
                        benches.push(CellBench::from_name(v).ok_or_else(|| {
                            format!("sweep spec line {lineno}: unknown benchmark `{v}`")
                        })?);
                    }
                }
                "scales" => {
                    for v in values() {
                        scales.push(Scale::from_name(v).ok_or_else(|| {
                            format!("sweep spec line {lineno}: unknown scale `{v}`")
                        })?);
                    }
                }
                "pes" => {
                    for v in values() {
                        let n: u32 = v
                            .parse()
                            .map_err(|_| format!("sweep spec line {lineno}: bad PE count `{v}`"))?;
                        if n == 0 {
                            return Err(format!("sweep spec line {lineno}: pes must be >= 1"));
                        }
                        if n > MAX_PES {
                            return Err(format!(
                                "sweep spec line {lineno}: pes {n} is more than the maximum of {MAX_PES}"
                            ));
                        }
                        pes.push(n);
                    }
                }
                "blocks" => {
                    for v in values() {
                        let n: u64 = v.parse().map_err(|_| {
                            format!("sweep spec line {lineno}: bad block size `{v}`")
                        })?;
                        if n == 0 || !n.is_power_of_two() {
                            return Err(format!(
                                "sweep spec line {lineno}: block size must be a power of two"
                            ));
                        }
                        blocks.push(n);
                    }
                }
                "timeout" => {
                    let secs = one_u64("timeout")?;
                    if secs == 0 {
                        return Err(format!(
                            "sweep spec line {lineno}: timeout must be >= 1 second"
                        ));
                    }
                    timeout_secs = Some(secs);
                }
                "retries" => {
                    let n = one_u64("retry count")?;
                    if n == 0 {
                        return Err(format!("sweep spec line {lineno}: retries must be >= 1"));
                    }
                    max_attempts = u32::try_from(n)
                        .map_err(|_| format!("sweep spec line {lineno}: retries too large"))?;
                }
                "backoff" => backoff_ms = one_u64("backoff")?,
                other => {
                    return Err(format!(
                        "sweep spec line {lineno}: unknown key `{other}` \
                         (accepted: protocols, benches, scales, pes, blocks, \
                         timeout, retries, backoff)"
                    ));
                }
            }
        }
        if blocks.is_empty() {
            blocks.push(4);
        }
        for (axis, empty) in [
            ("protocols", protocols.is_empty()),
            ("benches", benches.is_empty()),
            ("scales", scales.is_empty()),
            ("pes", pes.is_empty()),
        ] {
            if empty {
                return Err(format!("sweep spec is missing the `{axis}` axis"));
            }
        }
        Ok(SweepSpec {
            protocols,
            benches,
            scales,
            pes,
            blocks,
            timeout_secs,
            max_attempts,
            backoff_ms,
        })
    }

    /// Expands the grid in its fixed enumeration order.
    pub fn cells(&self) -> Vec<Cell> {
        let mut cells = Vec::new();
        for &protocol in &self.protocols {
            for &bench in &self.benches {
                for &scale in &self.scales {
                    for &pes in &self.pes {
                        for &block_words in &self.blocks {
                            cells.push(Cell {
                                protocol,
                                bench,
                                scale,
                                pes,
                                block_words,
                            });
                        }
                    }
                }
            }
        }
        cells
    }

    /// Digest of the *grid* — the ordered cell keys, not the
    /// supervision policy. Changing timeouts or retry budgets leaves a
    /// journal resumable; changing the grid does not.
    pub fn digest(&self) -> u64 {
        let mut canon = String::new();
        for cell in self.cells() {
            canon.push_str(&cell.key());
            canon.push('\n');
        }
        fnv1a64(canon.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = "\
        # demo sweep\n\
        protocols = pim, illinois\n\
        benches = tri, semi\n\
        scales = smoke\n\
        pes = 1, 2\n\
        timeout = 30\n\
        retries = 2\n";

    #[test]
    fn parses_and_expands_in_grid_order() {
        let spec = SweepSpec::parse(SPEC).unwrap();
        assert_eq!(spec.timeout_secs, Some(30));
        assert_eq!(spec.max_attempts, 2);
        assert_eq!(spec.backoff_ms, DEFAULT_BACKOFF_MS);
        let cells = spec.cells();
        assert_eq!(cells.len(), 8); // 2 protocols x 2 benches x 1 scale x 2 pes
        assert_eq!(
            cells[0].key(),
            "proto=pim bench=Tri scale=smoke pes=1 block=4"
        );
        assert_eq!(
            cells[7].key(),
            "proto=illinois bench=Semi scale=smoke pes=2 block=4"
        );
        // Digests are content-addressed and distinct per cell.
        let digests: std::collections::HashSet<u64> = cells.iter().map(Cell::digest).collect();
        assert_eq!(digests.len(), cells.len());
    }

    #[test]
    fn spec_digest_covers_the_grid_not_the_policy() {
        let a = SweepSpec::parse(SPEC).unwrap();
        let mut b = a.clone();
        b.max_attempts = 5;
        b.timeout_secs = None;
        assert_eq!(a.digest(), b.digest());
        let mut c = a.clone();
        c.pes.push(4);
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn diagnostics_name_the_line_and_key() {
        let e = SweepSpec::parse("protocols = mesi\n").unwrap_err();
        assert!(e.contains("line 1") && e.contains("mesi"), "{e}");
        let e = SweepSpec::parse("wat = 1\n").unwrap_err();
        assert!(e.contains("unknown key `wat`"), "{e}");
        let e = SweepSpec::parse("protocols = pim\nbenches = tri\nscales = smoke\n").unwrap_err();
        assert!(e.contains("missing the `pes` axis"), "{e}");
        let e = SweepSpec::parse("blocks = 3\n").unwrap_err();
        assert!(e.contains("power of two"), "{e}");
        let e = SweepSpec::parse("pes = 64, 65\n").unwrap_err();
        assert!(e.contains("line 1") && e.contains("pes 65"), "{e}");
    }

    #[test]
    fn poison_is_a_bench_axis_value() {
        assert_eq!(CellBench::from_name("poison"), Some(CellBench::Poison));
        assert_eq!(
            CellBench::from_name("Tri"),
            Some(CellBench::Real(Bench::Tri))
        );
        let spec =
            SweepSpec::parse("protocols=pim\nbenches=poison\nscales=smoke\npes=1\n").unwrap();
        assert_eq!(spec.cells()[0].bench, CellBench::Poison);
    }
}
