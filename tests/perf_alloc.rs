//! With `--features perf-alloc`, the binaries install pim-perf's counting
//! allocator, so a `--perf` report says allocation counting is on and its
//! phases carry allocation counts. Without the feature this file is empty.
//!
//! ```sh
//! cargo test --release --features perf-alloc --test perf_alloc
//! ```

#![cfg(feature = "perf-alloc")]

use pim_obs::Json;
use pim_tracer::JsonExt;
use std::process::Command;

#[test]
fn tracesim_perf_report_counts_allocations() {
    let dir = std::env::temp_dir().join("tracesim_perf_alloc");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("report.json");
    let out = Command::new(env!("CARGO_BIN_EXE_tracesim"))
        .args(["--gen", "heap-mix", "--pes", "4", "--perf", "--report"])
        .arg(&path)
        .output()
        .expect("tracesim runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&path).unwrap();
    let doc = pim_tracer::parse_json(&text).expect("report parses");
    let host_perf = doc.get("host_perf").expect("--perf adds host_perf");
    assert!(
        matches!(host_perf.get("alloc_counting"), Some(Json::Bool(true))),
        "{text}"
    );
}
