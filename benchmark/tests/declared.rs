//! `BENCHMARK.json` and the binaries agree: same workloads, same metrics,
//! same units; each metric is printed exactly once per run; and the counts
//! repeat exactly for a seed.

use isb_benchmark::report::{END_TO_END, PER_LAYER};
use isb_benchmark::WORKLOADS;
use std::process::Command;

const SPEC: &str = include_str!("../../BENCHMARK.json");

/// Every string value of `"key": "…"` inside the array `"section": […]`.
fn strings(section: &str, key: &str) -> Vec<String> {
    let start = SPEC.find(&format!("\"{section}\"")).unwrap_or_else(|| panic!("no {section}"));
    let body = &SPEC[start..];
    let body = &body[..body.find(']').expect("array end")];
    let pat = format!("\"{key}\"");
    body.match_indices(&pat)
        .map(|(at, _)| {
            let rest = &body[at + pat.len()..];
            let open = rest.find('"').expect("opening quote") + 1;
            let len = rest[open..].find('"').expect("closing quote");
            rest[open..open + len].to_string()
        })
        .collect()
}

fn pairs(section: &str) -> Vec<(String, String)> {
    strings(section, "name").into_iter().zip(strings(section, "unit")).collect()
}

fn owned(decl: &[(&str, &str)]) -> Vec<(String, String)> {
    decl.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
}

#[test]
fn benchmark_json_declares_what_the_binaries_emit() {
    assert_eq!(strings("workloads", "name"), WORKLOADS);
    assert_eq!(pairs("end_to_end"), owned(END_TO_END));
    assert_eq!(pairs("per_layer"), owned(PER_LAYER));
    assert!(END_TO_END.contains(&("setup_s", "s")));
}

/// Runs `isbbench` briefly and returns `(name, value, unit)` of its metric
/// lines plus its last line.
fn isbbench(workload: &str, seed: u64) -> (Vec<(String, f64, String)>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_isbbench"))
        .args(["--workload", workload, "--seed", &seed.to_string(), "--seconds", "1"])
        .output()
        .expect("run isbbench");
    assert!(out.status.success(), "isbbench failed: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).expect("utf-8");
    let metrics = text
        .lines()
        .filter_map(|l| l.strip_prefix("metric "))
        .map(|l| {
            let f: Vec<&str> = l.split(' ').collect();
            (f[0].to_string(), f[1].parse().expect("a number"), f[2].to_string())
        })
        .collect();
    (metrics, text.lines().last().expect("a last line").to_string())
}

#[test]
fn a_run_prints_each_declared_metric_once_and_counts_repeat_exactly() {
    let (first, last) = isbbench("kv_update", 11);
    let printed: Vec<(String, String)> =
        first.iter().map(|(n, _, u)| (n.clone(), u.clone())).collect();
    assert_eq!(printed, owned(END_TO_END));
    assert!(last.starts_with("{\"correct\": true, \"attempted\": "), "{last}");
    for (name, _, unit) in &first {
        let entry = format!("\"{name}\": {{\"value\": ");
        assert_eq!(last.matches(&entry).count(), 1, "{name} in {last}");
        assert!(last.contains(&format!("\"unit\": \"{unit}\"")));
    }

    let value = |run: &[(String, f64, String)], name: &str| {
        run.iter().find(|(n, _, _)| n == name).expect("declared").1
    };
    let (again, _) = isbbench("kv_update", 11);
    let (other, _) = isbbench("kv_update", 12);
    for counted in ["pwb_per_op", "fence_per_op", "heap_bytes_per_key"] {
        assert_eq!(value(&first, counted), value(&again, counted), "{counted}, same seed");
    }
    assert_ne!(value(&first, "pwb_per_op"), value(&other, "pwb_per_op"), "another seed");
}
