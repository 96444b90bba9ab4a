//! A 25x25 smoke run of every workload, untraced and traced, with every
//! output check on: each must finish with no failed operation and print
//! exactly the metrics `BENCHMARK.json` names.

use std::path::Path;
use std::process::Command;

/// The `"name"` values listed in one section of BENCHMARK.json.
fn names(section: &str) -> Vec<String> {
    section
        .split("\"name\":")
        .skip(1)
        .filter_map(|rest| rest.split('"').nth(1).map(str::to_string))
        .collect()
}

fn declared() -> (Vec<String>, Vec<String>) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let e2e = text.find("\"end_to_end\"").expect("end_to_end section");
    let layer = text.find("\"per_layer\"").expect("per_layer section");
    assert!(e2e < layer, "end_to_end is listed before per_layer");
    (names(&text[e2e..layer]), names(&text[layer..]))
}

/// The keys of the result line's `metrics` object: each is the quoted
/// name right before a `: {"value"`.
fn metric_names(json_line: &str) -> Vec<String> {
    let metrics = &json_line[json_line.find("\"metrics\"").expect("metrics")..];
    let parts: Vec<&str> = metrics.split(": {\"value\"").collect();
    parts[..parts.len() - 1]
        .iter()
        .filter_map(|before| before.rsplit('"').nth(1).map(str::to_string))
        .collect()
}

#[test]
fn every_workload_passes_every_check_at_25x25() {
    let data = std::env::temp_dir().join(format!("e2ebench-smoke-{}", std::process::id()));
    let (e2e, per_layer) = declared();
    for workload in ["read_430k", "ingest_40k", "retract_40k"] {
        for trace in ["0", "1"] {
            let out = Command::new(env!("CARGO_BIN_EXE_e2ebench"))
                .args(["--workload", workload, "--seed", "5", "--seconds", "4"])
                .args(["--trace", trace, "--scale", "25x25_d3", "--data-dir"])
                .arg(&data)
                .output()
                .expect("run e2ebench");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{workload} trace {trace}: {}\n{stdout}",
                String::from_utf8_lossy(&out.stderr)
            );
            let last = stdout.lines().last().expect("a result line");
            assert!(
                last.starts_with("{\"correct\": true, ") && last.contains("\"failed\": 0,"),
                "{workload} trace {trace}:\n{stdout}"
            );
            let mut got = metric_names(last);
            got.sort();
            let mut want = if trace == "0" {
                e2e.clone()
            } else {
                per_layer.clone()
            };
            want.sort();
            assert_eq!(got, want, "{workload} trace {trace} metric names");
        }
    }
    let _ = std::fs::remove_dir_all(&data);
}

/// A store another build prepared is never reused: a stale manifest that
/// claims a different base would fail the restart-integrity check if it
/// were read, and the run removes it.
#[test]
fn a_store_prepared_by_another_build_is_replaced() {
    let data = std::env::temp_dir().join(format!("e2ebench-stale-{}", std::process::id()));
    let stale = data.join("prepared").join("25x25_d3-0000000000000000");
    std::fs::create_dir_all(stale.join("store")).expect("stale store dir");
    std::fs::write(
        stale.join("manifest"),
        "base_triples 1\nbase_hash 0000000000000001\nserved_triples 1\n",
    )
    .expect("stale manifest");
    let out = Command::new(env!("CARGO_BIN_EXE_e2ebench"))
        .args(["--workload", "ingest_40k", "--seed", "1", "--seconds", "1"])
        .args(["--trace", "0", "--scale", "25x25_d3", "--data-dir"])
        .arg(&data)
        .output()
        .expect("run e2ebench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout
        .lines()
        .last()
        .is_some_and(|l| l.contains("\"failed\": 0,")));
    assert!(!stale.exists(), "the stale store was left in place");
    let _ = std::fs::remove_dir_all(&data);
}

#[test]
fn an_unknown_workload_or_flag_fails_without_a_result() {
    let data = std::env::temp_dir().join(format!("e2ebench-unknown-{}", std::process::id()));
    for (workload, extra) in [("nope", None), ("ingest_40k", Some("--traced"))] {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_e2ebench"));
        cmd.args(["--workload", workload, "--seed", "1", "--seconds", "1"])
            .args(["--trace", "0", "--scale", "25x25_d3", "--data-dir"])
            .arg(&data)
            .args(extra.map(|flag| [flag, "1"]).into_iter().flatten());
        let out = cmd.output().expect("run e2ebench");
        assert!(!out.status.success(), "{workload} {extra:?} succeeded");
        assert!(!String::from_utf8_lossy(&out.stdout).contains("\"correct\""));
    }
    let _ = std::fs::remove_dir_all(&data);
}
