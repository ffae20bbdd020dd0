//! The binary end to end: short runs of every workload and of the traced
//! pass, checked against the names `BENCHMARK.json` declares, and the
//! oracle self-test.

use simcov_obs::json::{self, Json};
use std::path::PathBuf;
use std::process::{Command, Output};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// A fresh working directory per test, so runs never share output files.
fn workdir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the test directory");
    dir
}

fn run(dir: &PathBuf, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_simcov-e2e"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("run simcov-e2e")
}

/// The last stdout line, which the contract makes the JSON result.
fn result(out: &Output) -> Json {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("a result line");
    json::parse(last).expect("the last line is JSON")
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` section.
fn declared(section: &str) -> Vec<(String, String)> {
    json::parse(BENCHMARK_JSON)
        .unwrap()
        .get(section)
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|m| {
            let field = |f| m.get(f).and_then(Json::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn emitted(result: &Json) -> Vec<(String, String)> {
    result
        .get("metrics")
        .and_then(Json::as_obj)
        .unwrap()
        .iter()
        .map(|(name, m)| {
            assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}");
            let unit = m.get("unit").and_then(Json::as_str).unwrap();
            (name.clone(), unit.to_string())
        })
        .collect()
}

#[test]
fn every_workload_smoke_runs_in_its_own_process_and_emits_the_declared_metrics() {
    let dir = workdir("smoke");
    let out = run(
        &dir,
        &["--workload", "all", "--seed", "3", "--seconds", "0.3"],
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let r = result(&out);
    let keys: Vec<&str> = r
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(r.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(r.get("failed").and_then(Json::as_u64), Some(0));
    let bench = json::parse(BENCHMARK_JSON).unwrap();
    let workloads = bench.get("workloads").and_then(Json::as_arr).unwrap();
    let mut want: Vec<(String, String)> = workloads
        .iter()
        .flat_map(|w| {
            let w = w.get("name").and_then(Json::as_str).unwrap().to_string();
            declared("end_to_end")
                .into_iter()
                .map(move |(m, unit)| (format!("{w}.{m}"), unit))
        })
        .collect();
    let mut got = emitted(&r);
    got.sort();
    want.sort();
    assert_eq!(got, want);
    let stdout = String::from_utf8_lossy(&out.stdout);
    for w in workloads {
        let w = w.get("name").and_then(Json::as_str).unwrap();
        assert!(
            stdout.contains(&format!("{w} error_rate 0 fraction")),
            "{stdout}"
        );
    }
}

#[test]
fn trace_pass_emits_every_layer_metric_and_a_trace_per_workload() {
    let dir = workdir("trace");
    let out = run(&dir, &["--seed", "3", "--seconds", "0.3", "--trace", "1"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let r = result(&out);
    assert_eq!(r.get("correct"), Some(&Json::Bool(true)));
    let mut got = emitted(&r);
    let mut want = declared("per_layer");
    got.sort();
    want.sort();
    assert_eq!(got, want);
    for w in ["campaign", "closure", "dlx-full", "serve"] {
        let trace = dir.join(format!("target/e2e/TRACE_{w}.jsonl"));
        let text = std::fs::read_to_string(&trace).expect("trace written");
        let first = json::parse(text.lines().next().expect("spans")).unwrap();
        for key in [
            "id", "parent", "job", "name", "start_ns", "end_ns", "self_ns",
        ] {
            assert!(first.get(key).is_some(), "{w}: span lacks {key}");
        }
    }
}

#[test]
fn tampered_oracle_counts_an_error_and_exits_1() {
    let dir = workdir("tamper");
    let record = dir.join("run.jsonl");
    let out = run(
        &dir,
        &[
            "--workload",
            "campaign",
            "--seconds",
            "0.3",
            "--tamper",
            "--out",
            record.to_str().unwrap(),
        ],
    );
    assert_eq!(out.status.code(), Some(1));
    let r = result(&out);
    assert_eq!(r.get("correct"), Some(&Json::Bool(false)));
    assert!(r.get("failed").and_then(Json::as_u64).unwrap() >= 1);
    let rec = json::parse(std::fs::read_to_string(&record).unwrap().trim()).unwrap();
    let error_rate = rec
        .get("workloads")
        .and_then(|w| w.get("campaign"))
        .and_then(|w| w.get("metrics"))
        .and_then(|m| m.get("error_rate"))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap();
    assert!(error_rate > 0.0);
    for key in ["seed", "duration_s", "nproc", "commit"] {
        assert!(rec.get(key).is_some(), "record lacks {key}");
    }
}

#[test]
fn compare_judges_a_run_against_itself() {
    let dir = workdir("compare");
    let record = dir.join("run.jsonl");
    let out = run(
        &dir,
        &[
            "--workload",
            "campaign",
            "--seconds",
            "0.3",
            "--out",
            record.to_str().unwrap(),
        ],
    );
    assert!(out.status.success());
    let path = record.to_str().unwrap();
    let out = run(&dir, &["--compare", path, path]);
    let table = String::from_utf8_lossy(&out.stdout);
    // Only `campaign` was recorded: its rows pass, other workloads miss.
    assert!(table.contains("campaign  batch_p50_ms"), "{table}");
    assert!(table
        .lines()
        .any(|l| l.starts_with("campaign") && l.ends_with("PASS")));
    assert!(table.contains("FAIL (missing)"), "{table}");
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn usage_errors_exit_2_without_a_result() {
    let dir = workdir("usage");
    for args in [
        &["--workload", "nope"][..],
        &["--seconds", "-1"],
        &["--bogus"],
    ] {
        let out = run(&dir, args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
