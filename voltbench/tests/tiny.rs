//! The tiny-size mode of every workload, traced and untraced, must end
//! with a correct result that carries exactly the metrics
//! `BENCHMARK.json` names, each with its declared unit.

use std::path::Path;
use std::process::Command;

use voltprop_serve::json::Json;

fn declared(benchmark: &Json, section: &str) -> Vec<(String, String)> {
    benchmark
        .get(section)
        .and_then(Json::as_arr)
        .expect("section is an array")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("string field")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn tiny_mode_emits_every_declared_metric_with_its_unit() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(manifest.join("../BENCHMARK.json")).expect("BENCHMARK.json");
    let benchmark = Json::parse(&text).expect("BENCHMARK.json parses");
    let workloads: Vec<String> = benchmark
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert_eq!(workloads.len(), 4);
    for workload in &workloads {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_voltbench"))
                .args(["--workload", workload, "--seed", "7", "--seconds", "0.3"])
                .args(["--trace", trace, "--tiny"])
                .output()
                .expect("benchmark runs");
            assert!(out.status.success(), "{workload} trace {trace} failed");
            let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
            let last = stdout.lines().last().expect("a result line");
            let result = Json::parse(last).expect("the last line is JSON");
            assert_eq!(
                result.get("correct").and_then(Json::as_bool),
                Some(true),
                "{workload}: {last}"
            );
            assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
            assert!(
                result
                    .get("attempted")
                    .and_then(Json::as_f64)
                    .expect("attempted")
                    >= 1.0
            );
            let Some(Json::Obj(metrics)) = result.get("metrics") else {
                panic!("{workload}: no metrics object");
            };
            let got: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    let unit = m.get("unit").and_then(Json::as_str).expect("unit");
                    assert!(
                        m.get("value").and_then(Json::as_f64).is_some(),
                        "{name} value"
                    );
                    (name.clone(), unit.to_string())
                })
                .collect();
            assert_eq!(
                got,
                declared(&benchmark, section),
                "{workload} trace {trace}"
            );
        }
    }
}

#[test]
fn unknown_workload_is_refused_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_voltbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("benchmark runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
