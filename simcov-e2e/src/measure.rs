//! The untraced end-to-end run of one workload.
//!
//! Order of a run: oracle (untimed), then set-ups each ending in one
//! warm-up batch (their median is `setup_s`), then closed-loop batches
//! with no think time until the measuring window has passed. Host-speed
//! probes run after every set-up and every batch, outside their time.
//! Each phase's timings are reported at nominal host speed by the probes
//! of that phase (see [`crate::host`]), and the raw values are kept
//! beside them.

use crate::host::{Correction, HostSpeed};
use crate::oracle::Oracle;
use crate::procfs;
use crate::report::{Metric, RunResult};
use crate::stats::{median, tail_percentile};
use crate::workloads::{seed_cycle, Runner, ScratchDir, Workload};
use std::path::Path;
use std::time::Instant;

/// Set-ups per run, at least. Each builds the workload from scratch
/// (specs, or a fresh server with an empty cache, a new journal and new
/// connections) and runs one untimed warm-up batch; the last one serves
/// the measured batches.
pub const SETUP_REPS: usize = 5;

/// Set-ups continue past [`SETUP_REPS`] until they have taken this long,
/// so a set-up of a few milliseconds is a median of many.
pub const SETUP_MIN_S: f64 = 2.0;

/// Set-ups per run, at most.
pub const SETUP_MAX_REPS: usize = 200;

fn metric(name: &str, value: f64, unit: &str, samples: usize) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit: unit.to_string(),
        samples,
    }
}

fn cpu_ms() -> Result<f64, String> {
    procfs::cpu_ms().ok_or_else(|| "cannot read /proc/self/stat".to_string())
}

/// The timed calls of one phase of a run, set-up or measurement: their
/// wall and CPU times, and the host-speed probes run after each. Probes
/// count in neither time.
#[derive(Debug, Default)]
struct Phase {
    times_ms: Vec<f64>,
    wall_ms: f64,
    cpu_ms: f64,
    host: HostSpeed,
}

impl Phase {
    /// Times `f`, then probes the host.
    fn time<R>(&mut self, f: impl FnOnce() -> R) -> Result<R, String> {
        let cpu = cpu_ms()?;
        let t = Instant::now();
        let r = f();
        let ms = t.elapsed().as_secs_f64() * 1e3;
        self.cpu_ms += cpu_ms()? - cpu;
        self.wall_ms += ms;
        self.times_ms.push(ms);
        self.host.after_batch(ms);
        Ok(r)
    }

    /// The phase's host-speed correction.
    fn correction(&self) -> Correction {
        let slowdown = self.host.slowdown().expect("a probe ran after every call");
        Correction::new(slowdown, self.cpu_ms, self.wall_ms)
    }
}

/// Runs workload `w` for `seconds` of measured batches.
pub fn run_workload(
    w: Workload,
    seed: u64,
    seconds: f64,
    out_dir: &Path,
    tamper: bool,
) -> Result<RunResult, String> {
    let mut oracle = Oracle::build(w, seed)?;
    if tamper {
        oracle.tamper();
    }
    let cycle = seed_cycle(seed);
    let scratch = ScratchDir::new(out_dir).map_err(|e| e.to_string())?;
    let (mut attempted, mut failed) = (0, 0);
    let mut setup = Phase::default();
    let mut runner: Option<Runner> = None;
    while setup.times_ms.len() < SETUP_REPS
        || (setup.wall_ms < SETUP_MIN_S * 1e3 && setup.times_ms.len() < SETUP_MAX_REPS)
    {
        if let Some(previous) = runner.take() {
            previous.stop()?;
        }
        // Set-up `rep` warms up with batch `rep`, so the set-ups of a run
        // cover the seed cycle as its measured batches do.
        let rep = setup.times_ms.len();
        let (r, warm) = setup
            .time(|| {
                let mut r = Runner::setup(w, &cycle, &scratch, rep)?;
                let warm = r.batch(rep);
                Ok::<_, std::io::Error>((r, warm))
            })?
            .map_err(|e| e.to_string())?;
        attempted += warm.len();
        failed += oracle.failures(rep, &warm);
        runner = Some(r);
    }
    let mut runner = runner.expect("at least one set-up");

    let mut measured = Phase::default();
    let mut jobs = 0;
    let t0 = Instant::now();
    // Timed batches continue the seed cycle after the last warm-up, which
    // also keeps served job ids unique.
    let mut b = setup.times_ms.len();
    while measured.times_ms.is_empty() || t0.elapsed().as_secs_f64() < seconds {
        let results = measured.time(|| runner.batch(b))?;
        jobs += results.len();
        failed += oracle.failures(b, &results);
        b += 1;
    }
    attempted += jobs;
    runner.stop()?;

    let fix = measured.correction();
    let batch_ms = &measured.times_ms;
    let n = batch_ms.len();
    let p50 = median(batch_ms).expect("at least one batch");
    let cpu_per_job = measured.cpu_ms / jobs as f64;
    let wall_ms = measured.wall_ms;
    let reps = setup.times_ms.len();
    let setup_s = median(&setup.times_ms).expect("set-ups ran") / 1e3;
    let per_s = |ms: f64| jobs as f64 / (ms / 1e3);
    let metrics = vec![
        metric("jobs_per_s", per_s(fix.wall(wall_ms)), "jobs/s", n),
        metric("batch_p50_ms", fix.wall(p50), "ms", n),
        metric("cpu_ms_per_job", fix.cpu(cpu_per_job), "ms", jobs),
        metric("setup_s", setup.correction().wall(setup_s), "s", reps),
        metric(
            "peak_rss_mb",
            procfs::peak_rss_mb().ok_or("cannot read /proc/self/status")?,
            "MB",
            1,
        ),
    ];
    let mut extras = vec![metric(
        "error_rate",
        failed as f64 / attempted as f64,
        "fraction",
        attempted,
    )];
    if let Some(p90) = tail_percentile(batch_ms, 90.0) {
        extras.push(metric("batch_p90_ms", fix.wall(p90), "ms", n));
    }
    extras.extend([
        metric(
            "host.slowdown",
            fix.slowdown,
            "ratio",
            measured.host.samples(),
        ),
        metric("host.busy_share", fix.busy, "fraction", n),
        metric("raw.jobs_per_s", per_s(wall_ms), "jobs/s", n),
        metric("raw.batch_p50_ms", p50, "ms", n),
        metric("raw.cpu_ms_per_job", cpu_per_job, "ms", jobs),
        metric("raw.setup_s", setup_s, "s", reps),
    ]);
    Ok(RunResult {
        label: w.name().to_string(),
        attempted,
        failed,
        metrics,
        extras,
    })
}
