//! `simcov-e2e`: the end-to-end job benchmark.
//!
//! ```text
//! simcov-e2e [--workload campaign|closure|dlx-full|serve|all] [--seed N]
//!            [--seconds S] [--trace 0|1] [--out FILE]
//! simcov-e2e --compare A.jsonl B.jsonl
//! ```
//!
//! An untraced run prints `<workload> <metric> <value> <unit>` lines and,
//! as its last line, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. `--trace 1` runs the per-layer pass over every workload
//! instead. `--out` appends one JSON record per run (seed, seconds, nproc,
//! commit, every metric with its sample count); `--compare` judges two
//! such files against the bounds in `BENCHMARK.json`. Exit status: 0 when
//! every job ran and matched its oracle, 1 otherwise, 2 on a usage error.

mod bench_spec;
mod host;
mod measure;
mod oracle;
mod procfs;
mod report;
mod spans;
mod stats;
mod trace;
mod workloads;

use report::{Metric, RunMeta, RunResult, Verdict};
use simcov_obs::json::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use workloads::Workload;

/// Where traces, scratch files and child records go, relative to the
/// working directory.
const DEFAULT_OUT_DIR: &str = "target/e2e";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    /// Corrupts one oracle digest: the self-test that a wrong output
    /// fails the run.
    tamper: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let spec = bench_spec::load();
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: spec.run_seconds as f64,
        trace: false,
        out: None,
        compare: None,
        tamper: false,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workload = match name.as_str() {
                    "all" => None,
                    _ => Some(Workload::parse(&name).ok_or(format!(
                        "unknown workload `{name}` (campaign|closure|dlx-full|serve|all)"
                    ))?),
                };
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds needs a positive number")?;
            }
            // `--trace` alone, or with an explicit 0|1.
            "--trace" => {
                args.trace = true;
                if let Some(v @ ("0" | "1")) = it.peek().map(|s| s.as_str()) {
                    args.trace = v == "1";
                    it.next();
                }
            }
            "--out" => args.out = Some(PathBuf::from(value("a file")?)),
            "--compare" => {
                let a = value("two files")?;
                let b = value("two files")?;
                args.compare = Some((a.into(), b.into()));
            }
            "--tamper" => args.tamper = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// `git rev-parse HEAD`, or `unknown` outside a repository. The ceiling
/// keeps git from searching above the working directory.
fn commit() -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    let ceiling = cwd.parent().unwrap_or(&cwd).to_path_buf();
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Runs one workload in a child process and reads its record back, so
/// its peak RSS and allocator state are its own.
fn run_child(w: Workload, args: &Args, out_dir: &Path) -> Result<RunResult, String> {
    let record = out_dir.join(format!("child-{}-{}.jsonl", std::process::id(), w.name()));
    let _ = std::fs::remove_file(&record);
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name(), "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string(), "--trace", "0"])
        .arg("--out")
        .arg(&record)
        .stdout(Stdio::null());
    if args.tamper {
        cmd.arg("--tamper");
    }
    let status = cmd
        .status()
        .map_err(|e| format!("cannot run the {} child: {e}", w.name()))?;
    let text = std::fs::read_to_string(&record);
    let _ = std::fs::remove_file(&record);
    let text = text.map_err(|e| format!("{} child left no record ({status}): {e}", w.name()))?;
    let records = report::parse_records(&text)?;
    let result = records
        .first()
        .and_then(|r| report::result_from_record(r, w.name()))
        .ok_or(format!("{} child wrote a malformed record", w.name()))?;
    Ok(result)
}

/// Attaches the units `BENCHMARK.json` declares to traced metrics.
fn with_units(mut metrics: Vec<Metric>) -> Vec<Metric> {
    let spec = bench_spec::load();
    for m in &mut metrics {
        if let Some(s) = spec.per_layer.iter().find(|s| s.name == m.name) {
            m.unit = s.unit.clone();
        }
    }
    metrics
}

fn run(args: &Args) -> Result<bool, String> {
    let out_dir = PathBuf::from(DEFAULT_OUT_DIR);
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    let results = if args.trace {
        let layers = trace::run(args.seed, args.seconds, &out_dir, args.tamper)?;
        vec![RunResult {
            label: "trace".to_string(),
            attempted: layers.attempted,
            failed: layers.failed,
            metrics: with_units(layers.metrics),
            extras: Vec::new(),
        }]
    } else {
        match args.workload {
            Some(w) => vec![measure::run_workload(
                w,
                args.seed,
                args.seconds,
                &out_dir,
                args.tamper,
            )?],
            None => Workload::ALL
                .into_iter()
                .map(|w| run_child(w, args, &out_dir))
                .collect::<Result<_, _>>()?,
        }
    };
    for r in &results {
        print!("{}", report::human_lines(r));
    }
    if let Some(path) = &args.out {
        let meta = RunMeta {
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            commit: commit(),
        };
        report::append_record(path, &report::record_line(&meta, &results))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    println!("{}", report::result_line(&results));
    Ok(report::all_correct(&results))
}

fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let read = |p: &Path| -> Result<Vec<Json>, String> {
        let text =
            std::fs::read_to_string(p).map_err(|e| format!("cannot read {}: {e}", p.display()))?;
        report::parse_records(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let rows = report::compare(&bench_spec::load(), &read(a)?, &read(b)?);
    print!("{}", report::render_rows(&rows));
    Ok(!rows
        .iter()
        .any(|r| matches!(r.verdict, Verdict::Fail | Verdict::Missing)))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simcov-e2e: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match &args.compare {
        Some((a, b)) => compare(a, b),
        None => run(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("simcov-e2e: {e}");
            ExitCode::from(1)
        }
    }
}
