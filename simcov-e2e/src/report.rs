//! What a run prints and records, and `--compare` over recorded runs.

use crate::bench_spec::{self, abs_floor, BenchSpec};
use crate::stats::{median, spread, within_bound};
use simcov_obs::json::{self, Json};
use std::fmt::Write as _;
use std::fs::OpenOptions;
use std::io::Write as _;
use std::path::Path;

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// The value, with all its digits.
    pub value: f64,
    /// Unit.
    pub unit: String,
    /// Samples the value summarises.
    pub samples: usize,
}

/// The outcome of one run of one workload (or of the traced pass).
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Workload name, or `trace`.
    pub label: String,
    /// Jobs attempted.
    pub attempted: usize,
    /// Jobs that failed or produced a wrong output.
    pub failed: usize,
    /// The metrics `BENCHMARK.json` declares for this kind of run.
    pub metrics: Vec<Metric>,
    /// Further values recorded but not gated (`error_rate`, the p90 when
    /// the run has enough batches for one).
    pub extras: Vec<Metric>,
}

/// A number as JSON (non-finite values become `null`).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// `<label> <metric> <value> <unit>` lines.
pub fn human_lines(r: &RunResult) -> String {
    let mut out = String::new();
    for m in r.metrics.iter().chain(&r.extras) {
        let _ = writeln!(out, "{} {} {} {}", r.label, m.name, num(m.value), m.unit);
    }
    out
}

/// Whether every job ran and matched its oracle and every gated metric is
/// a finite number.
pub fn all_correct(results: &[RunResult]) -> bool {
    let attempted: usize = results.iter().map(|r| r.attempted).sum();
    let failed: usize = results.iter().map(|r| r.failed).sum();
    let all_finite = results
        .iter()
        .flat_map(|r| &r.metrics)
        .all(|m| m.value.is_finite());
    failed == 0 && attempted > 0 && all_finite
}

/// The one-line JSON result: `correct`, `attempted`, `failed`, `metrics`.
/// Over several results the metric names are prefixed by their label.
pub fn result_line(results: &[RunResult]) -> String {
    let attempted: usize = results.iter().map(|r| r.attempted).sum();
    let failed: usize = results.iter().map(|r| r.failed).sum();
    let metrics: Vec<String> = results
        .iter()
        .flat_map(|r| {
            r.metrics.iter().map(move |m| {
                let name = if results.len() == 1 {
                    m.name.clone()
                } else {
                    format!("{}.{}", r.label, m.name)
                };
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    json::escape(&name),
                    num(m.value),
                    json::escape(&m.unit)
                )
            })
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        all_correct(results),
        attempted,
        failed,
        metrics.join(",")
    )
}

/// Run metadata stored with a record.
#[derive(Debug, Clone)]
pub struct RunMeta {
    /// The run seed.
    pub seed: u64,
    /// Seconds measured per workload.
    pub seconds: f64,
    /// Whether this was the traced pass.
    pub trace: bool,
    /// Available parallelism of the host.
    pub nproc: usize,
    /// `git rev-parse HEAD`, or `unknown`.
    pub commit: String,
}

/// One JSONL record of a run, for `--out` and `--compare`.
pub fn record_line(meta: &RunMeta, results: &[RunResult]) -> String {
    let mut w = String::new();
    for (i, r) in results.iter().enumerate() {
        let ms: Vec<String> = r
            .metrics
            .iter()
            .chain(&r.extras)
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\",\"samples\":{}}}",
                    json::escape(&m.name),
                    num(m.value),
                    json::escape(&m.unit),
                    m.samples
                )
            })
            .collect();
        let _ = write!(
            w,
            "{}\"{}\":{{\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            if i == 0 { "" } else { "," },
            json::escape(&r.label),
            r.attempted,
            r.failed,
            ms.join(",")
        );
    }
    format!(
        "{{\"schema\":\"simcov-e2e\",\"seed\":{},\"duration_s\":{},\"trace\":{},\"nproc\":{},\
         \"commit\":\"{}\",\"workloads\":{{{w}}}}}",
        meta.seed,
        num(meta.seconds),
        meta.trace,
        meta.nproc,
        json::escape(&meta.commit)
    )
}

/// Appends one record line to a JSONL file, creating it if needed.
pub fn append_record(path: &Path, line: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = OpenOptions::new().create(true).append(true).open(path)?;
    f.write_all(format!("{line}\n").as_bytes())?;
    f.sync_all()
}

/// Rebuilds workload `label`'s result from a record, splitting its
/// metrics into the gated end-to-end ones and the rest.
pub fn result_from_record(record: &Json, label: &str) -> Option<RunResult> {
    let w = record.get("workloads")?.get(label)?;
    let gated = bench_spec::load().end_to_end;
    let (mut metrics, mut extras) = (Vec::new(), Vec::new());
    for (name, m) in w.get("metrics")?.as_obj()? {
        let metric = Metric {
            name: name.clone(),
            value: m.get("value")?.as_f64().unwrap_or(f64::NAN),
            unit: m.get("unit")?.as_str()?.to_string(),
            samples: m.get("samples")?.as_u64()? as usize,
        };
        if gated.iter().any(|g| g.name == *name) {
            metrics.push(metric);
        } else {
            extras.push(metric);
        }
    }
    Some(RunResult {
        label: label.to_string(),
        attempted: w.get("attempted")?.as_u64()? as usize,
        failed: w.get("failed")?.as_u64()? as usize,
        metrics,
        extras,
    })
}

/// Verdict of one (workload, metric) comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is within the bound of A.
    Pass,
    /// B is worse than A by more than the bound.
    Fail,
    /// A side's own run-to-run spread exceeds the bound.
    Unresolved,
    /// A side has no value for the metric.
    Missing,
}

/// One row of `--compare`.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload.
    pub workload: String,
    /// Metric.
    pub metric: String,
    /// Median of the A runs (the worst run for a zero-bound metric).
    pub a: f64,
    /// Median of the B runs (the worst run for a zero-bound metric).
    pub b: f64,
    /// Run-to-run spread (IQR / median) of A and of B.
    pub spread: (f64, f64),
    /// Runs on each side.
    pub runs: (usize, usize),
    /// The verdict.
    pub verdict: Verdict,
}

/// Parses a JSONL file of records.
pub fn parse_records(text: &str) -> Result<Vec<Json>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| json::parse(l).map_err(|e| e.to_string()))
        .collect()
}

fn values(records: &[Json], workload: &str, metric: &str) -> Vec<f64> {
    records
        .iter()
        .filter_map(|r| {
            r.get("workloads")?
                .get(workload)?
                .get("metrics")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

/// Compares run set B against run set A on every workload and end-to-end
/// metric of `spec`, plus the recorded-only metrics of
/// [`bench_spec::recorded_only`] where either side has them.
pub fn compare(spec: &BenchSpec, a: &[Json], b: &[Json]) -> Vec<Row> {
    let extra = bench_spec::recorded_only();
    let mut rows = Vec::new();
    for w in &spec.workloads {
        for (m, gated) in spec
            .end_to_end
            .iter()
            .map(|m| (m, true))
            .chain(extra.iter().map(|m| (m, false)))
        {
            let (va, vb) = (values(a, w, &m.name), values(b, w, &m.name));
            if !gated && va.is_empty() && vb.is_empty() {
                continue;
            }
            let bound = m.bound.unwrap_or(0.0);
            let spread = (spread(&va), spread(&vb));
            // A zero bound admits no worsening in any run, so it judges
            // the worst run rather than the median, and noise cannot
            // leave it unresolved.
            let absolute = bound == 0.0;
            let summary = |v: &[f64]| {
                if absolute {
                    v.iter().copied().reduce(f64::max)
                } else {
                    median(v)
                }
            };
            let (ma, mb) = (summary(&va), summary(&vb));
            let verdict = match (ma, mb) {
                (Some(ma), Some(mb)) => {
                    if !absolute && (spread.0 > bound || spread.1 > bound) {
                        Verdict::Unresolved
                    } else if within_bound(ma, mb, m.better, bound, abs_floor(&m.name)) {
                        Verdict::Pass
                    } else {
                        Verdict::Fail
                    }
                }
                _ => Verdict::Missing,
            };
            rows.push(Row {
                workload: w.clone(),
                metric: m.name.clone(),
                a: ma.unwrap_or(f64::NAN),
                b: mb.unwrap_or(f64::NAN),
                spread,
                runs: (va.len(), vb.len()),
                verdict,
            });
        }
    }
    rows
}

/// Renders `--compare` rows as a table: each side's median (its worst
/// run for a zero-bound metric), their ratio, spreads and the verdict.
pub fn render_rows(rows: &[Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<9} {:<15} {:>12} {:>12} {:>7} {:>8} {:>8} {:>5}  verdict",
        "workload", "metric", "A", "B", "B/A", "spreadA", "spreadB", "runs"
    );
    for r in rows {
        let verdict = match r.verdict {
            Verdict::Pass => "PASS",
            Verdict::Fail => "FAIL",
            Verdict::Unresolved => "UNRESOLVED",
            Verdict::Missing => "FAIL (missing)",
        };
        let _ = writeln!(
            out,
            "{:<9} {:<15} {:>12.4} {:>12.4} {:>7.4} {:>8.4} {:>8.4} {:>2}/{:<2}  {verdict}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            if r.a == r.b { 1.0 } else { r.b / r.a },
            r.spread.0,
            r.spread.1,
            r.runs.0,
            r.runs.1
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench_spec;

    fn result(label: &str, v: f64) -> RunResult {
        RunResult {
            label: label.to_string(),
            attempted: 4,
            failed: 0,
            metrics: vec![
                Metric {
                    name: "batch_p50_ms".to_string(),
                    value: v,
                    unit: "ms".to_string(),
                    samples: 9,
                },
                Metric {
                    name: "peak_rss_mb".to_string(),
                    value: 20.0,
                    unit: "MB".to_string(),
                    samples: 1,
                },
            ],
            extras: vec![],
        }
    }

    fn records(vals: &[f64]) -> Vec<Json> {
        let meta = RunMeta {
            seed: 1,
            seconds: 1.0,
            trace: false,
            nproc: 2,
            commit: "unknown".to_string(),
        };
        vals.iter()
            .map(|&v| json::parse(&record_line(&meta, &[result("campaign", v)])).unwrap())
            .collect()
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(&[result("campaign", 12.5)]);
        let v = json::parse(&line).unwrap();
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&Json::Bool(true)));
        let m = v.get("metrics").unwrap().get("batch_p50_ms").unwrap();
        assert_eq!(m.get("value").and_then(Json::as_f64), Some(12.5));
        let mut bad = result("campaign", f64::NAN);
        bad.failed = 1;
        let v = json::parse(&result_line(&[bad])).unwrap();
        assert_eq!(v.get("correct"), Some(&Json::Bool(false)));
    }

    #[test]
    fn compare_passes_fails_and_flags_noise() {
        let spec = bench_spec::load();
        let find = |rows: &[Row], m: &str| {
            rows.iter()
                .find(|r| r.workload == "campaign" && r.metric == m)
                .unwrap()
                .verdict
        };
        let base = records(&[10.0, 10.1, 9.9]);
        let rows = compare(&spec, &base, &records(&[10.2, 10.3, 10.1]));
        assert_eq!(find(&rows, "batch_p50_ms"), Verdict::Pass);
        assert_eq!(find(&rows, "peak_rss_mb"), Verdict::Pass);
        assert_eq!(find(&rows, "jobs_per_s"), Verdict::Missing);
        let rows = compare(&spec, &base, &records(&[13.0, 13.1, 12.9]));
        assert_eq!(find(&rows, "batch_p50_ms"), Verdict::Fail);
        let rows = compare(&spec, &base, &records(&[5.0, 10.0, 20.0]));
        assert_eq!(find(&rows, "batch_p50_ms"), Verdict::Unresolved);
        assert!(render_rows(&rows).contains("UNRESOLVED"));
        assert!(
            !rows.iter().any(|r| r.metric == "batch_p90_ms"),
            "a metric neither side recorded is not compared"
        );
    }

    #[test]
    fn one_failed_run_fails_the_error_rate() {
        let spec = bench_spec::load();
        let with_errors = |failed: &[usize]| -> Vec<Json> {
            failed
                .iter()
                .map(|&f| {
                    let mut r = result("serve", 10.0);
                    r.failed = f;
                    r.extras.push(Metric {
                        name: "error_rate".to_string(),
                        value: f as f64 / r.attempted as f64,
                        unit: "fraction".to_string(),
                        samples: r.attempted,
                    });
                    let meta = RunMeta {
                        seed: 1,
                        seconds: 1.0,
                        trace: false,
                        nproc: 2,
                        commit: "unknown".to_string(),
                    };
                    json::parse(&record_line(&meta, &[r])).unwrap()
                })
                .collect()
        };
        let verdict = |b: &[usize]| {
            compare(&spec, &with_errors(&[0, 0, 0]), &with_errors(b))
                .into_iter()
                .find(|r| r.workload == "serve" && r.metric == "error_rate")
                .unwrap()
                .verdict
        };
        assert_eq!(verdict(&[0, 0, 0]), Verdict::Pass);
        assert_eq!(verdict(&[0, 1, 0]), Verdict::Fail);
    }
}
