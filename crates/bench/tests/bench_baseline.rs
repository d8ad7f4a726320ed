//! The committed `BENCH_*.json` perf-trajectory baseline must stay a
//! valid `pim-bench/v1` document: CI regenerates the suite and diffs
//! against it, so a malformed baseline would silently disable the
//! regression gate.

use bench::suite;
use pim_obs::Json;
use pim_tracer::JsonExt;

fn load_baseline() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_0006.json");
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("committed baseline {path} must be readable: {e}"));
    pim_tracer::parse_json(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn committed_baseline_is_a_valid_suite_document() {
    let doc = load_baseline();
    let entries = suite::validate(&doc).unwrap_or_else(|e| panic!("schema violation: {e}"));
    assert_eq!(
        entries,
        suite::BENCHMARKS.len(),
        "the baseline must cover every suite entry once"
    );
}

#[test]
fn committed_baseline_covers_micro_macro_and_sequential_replay() {
    let doc = load_baseline();
    let Some(Json::Arr(entries)) = doc.get("entries") else {
        panic!("entries array vanished after validate");
    };
    let kinds: Vec<&str> = entries
        .iter()
        .filter_map(|e| e.get("kind")?.as_str())
        .collect();
    assert!(kinds.contains(&"micro"), "no micro benchmarks in baseline");
    assert!(kinds.contains(&"macro"), "no macro benchmarks in baseline");
    let replay_threads: Vec<u64> = entries
        .iter()
        .filter(|e| e.get("name").and_then(Json::as_str) == Some("replay/heap-mix"))
        .filter_map(|e| e.get("threads")?.as_u64())
        .collect();
    assert_eq!(
        replay_threads,
        vec![1],
        "replay/heap-mix must run once, on the sequential engine (@t1)"
    );
}

#[test]
fn baseline_diffed_against_itself_is_clean() {
    let doc = load_baseline();
    let rows = suite::diff(&doc, &doc);
    assert_eq!(rows.len(), suite::BENCHMARKS.len());
    let (rendered, regressions) = suite::render_diff(&rows, 50.0);
    assert_eq!(regressions, 0, "{rendered}");
}
