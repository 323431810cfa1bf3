//! Self-tests of the benchmark: every workload at toy size through the
//! same code paths the measured runs take, and the reported metric names
//! against `BENCHMARK.json`.

use dashmm_obs::json::{parse, Value};
use perfbench::{layer_names, run_workload, Size, E2E, WORKLOADS};

fn smoke(workload: &str, trace: bool) {
    let out = run_workload(workload, 7, 0.05, trace, Size::smoke())
        .unwrap_or_else(|e| panic!("{workload}: {e}"));
    assert!(out.attempted > 0, "{workload}: nothing was checked");
    assert_eq!(out.failed, 0, "{workload}: {} checks failed", out.failed);
    let metrics = out
        .metrics(trace)
        .unwrap_or_else(|e| panic!("{workload}: {e}"));
    assert!(metrics.iter().all(|(_, v, _)| v.is_finite()));
}

#[test]
fn fmm_cube_smoke() {
    smoke("fmm-cube", false);
    smoke("fmm-cube", true);
}

#[test]
fn fmm_sphere_2rank_smoke() {
    smoke("fmm-sphere-2rank", false);
    smoke("fmm-sphere-2rank", true);
}

#[test]
fn serve_mixed_smoke() {
    smoke("serve-mixed", false);
    smoke("serve-mixed", true);
}

fn names_units(v: &Value, key: &str) -> Vec<(String, String)> {
    v.get(key)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Value::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// The names and units the command prints are exactly those declared.
#[test]
fn metric_names_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let spec = parse(&text).expect("BENCHMARK.json parses");
    let e2e: Vec<(String, String)> = E2E
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(names_units(&spec, "end_to_end"), e2e);
    let layers: Vec<(String, String)> = layer_names()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(names_units(&spec, "per_layer"), layers);
    let workloads: Vec<String> = names_units(&spec, "workloads")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    assert_eq!(workloads, WORKLOADS);
}
