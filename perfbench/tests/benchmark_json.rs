//! `BENCHMARK.json` (at the repository root) names exactly the rows the
//! benchmark prints: the end-to-end rows of an untraced run and the
//! per-layer rows of a traced run, with the same units and order.

use sv_perfbench::layers::zeroed_layer_sheet;
use sv_perfbench::{END_TO_END, WORKLOADS};
use sv_serve::json::{self, Value};

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn rows(v: &Value, key: &str) -> Vec<(String, String)> {
    v.get(key)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("`{key}` is an array"))
        .iter()
        .map(|m| {
            let field =
                |f: &str| m.get(f).and_then(Value::as_str).expect("string field").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn end_to_end_rows_match_what_an_untraced_run_prints() {
    let want: Vec<(String, String)> =
        END_TO_END.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect();
    assert_eq!(rows(&benchmark_json(), "end_to_end"), want);
}

#[test]
fn per_layer_rows_match_what_a_traced_run_prints() {
    let want: Vec<(String, String)> =
        zeroed_layer_sheet().rows().iter().map(|(n, _, u)| (n.clone(), (*u).to_string())).collect();
    assert_eq!(rows(&benchmark_json(), "per_layer"), want);
}

#[test]
fn workloads_are_the_ones_the_binary_runs_under_all() {
    let v = benchmark_json();
    let names: Vec<&str> = v
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
        .collect();
    assert_eq!(names, WORKLOADS);
}
