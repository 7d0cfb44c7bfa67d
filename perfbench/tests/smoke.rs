//! Tiny-size smoke of the one command: every workload, untraced and
//! traced, must exit cleanly, check its outputs, and print exactly the
//! metrics `BENCHMARK.json` declares. The workloads `BENCHMARK.json` does
//! not gate run here too.

use std::process::Command;

/// The `"name"` values of one top-level array of `BENCHMARK.json`.
fn names(spec: &str, section: &str) -> Vec<String> {
    let start = spec
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &spec[start..];
    let body = &body[..body.find(']').expect("section is an array")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closing quote")].to_string())
        .collect()
}

fn run(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.4"])
        .args(["--trace", trace, "--tiny"])
        .output()
        .expect("perfbench runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().expect("a result line").to_string()
}

#[test]
fn every_workload_prints_its_declared_metrics() {
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json next to the benchmark");
    let gated = names(&spec, "workloads");
    let all = ["hot-serve", "adhoc-cold", "exec-scan-join", "stats-churn"];
    assert!(gated.iter().all(|w| all.contains(&w.as_str())), "{gated:?}");
    for w in all {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let last = run(w, trace);
            assert!(
                last.starts_with("{\"correct\": true, \"attempted\": "),
                "{w}: {last}"
            );
            assert!(last.contains(", \"failed\": 0, "), "{w}: {last}");
            let declared = names(&spec, section);
            let printed = last.matches("{\"value\": ").count();
            assert_eq!(printed, declared.len(), "{w} trace={trace}: {last}");
            for name in declared {
                assert!(
                    last.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{w}: no {name}"
                );
            }
        }
    }
}

#[test]
fn bad_arguments_are_refused_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
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
        .expect("perfbench runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
