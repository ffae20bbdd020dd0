//! Parallel fault-simulation scaling: the sharded campaign engine at
//! 1 worker vs all cores on the reduced DLX control model. Determinism
//! is asserted unconditionally (stats must be bit-identical at every
//! thread count); the >=2x speedup bar applies only on machines with at
//! least 4 cores, so single-core CI still runs the bench meaningfully.
//!
//! The campaign pins the *naive* simulation engine: thread-pool scaling
//! needs a simulation-bound workload, and the differential engine (see
//! the `differential_speedup` bench) finishes this fixture in a few
//! hundred microseconds, where scheduling overhead would drown the
//! signal.

use std::time::Instant;

use simcov_bench::reduced_dlx_machine;
use simcov_bench::timing::BenchReport;
use simcov_core::{
    default_jobs, enumerate_single_faults, extend_cyclically, Engine, FaultSpace, ResilientCampaign,
};
use simcov_tour::{transition_tour, TestSet};

fn main() {
    let m = reduced_dlx_machine();
    let faults = enumerate_single_faults(
        &m,
        &FaultSpace {
            max_faults: 4_000,
            ..FaultSpace::default()
        },
    );
    let tour = transition_tour(&m).unwrap();
    let tests = TestSet::single(extend_cyclically(&tour.inputs, 1));
    let jobs = default_jobs();

    eprintln!("== Parallel fault-simulation speedup ==");
    eprintln!(
        "  model: {m:?}; {} faults, {} test vectors",
        faults.len(),
        tests.total_vectors()
    );

    let time_at = |j: usize| {
        let t0 = Instant::now();
        let run = ResilientCampaign::new(&m, &faults, &tests)
            .engine(Engine::Naive)
            .jobs(j)
            .run()
            .unwrap();
        (run, t0.elapsed())
    };
    // Warm up caches so the serial baseline is not penalized.
    let _ = time_at(1);
    let (serial, t1) = time_at(1);
    let (parallel, tn) = time_at(jobs);

    assert_eq!(
        serial.stats, parallel.stats,
        "sharded campaign must be deterministic across thread counts"
    );
    assert_eq!(
        serial.report.detection_rate(),
        parallel.report.detection_rate()
    );

    let speedup = t1.as_secs_f64() / tn.as_secs_f64().max(f64::EPSILON);
    eprintln!("  jobs=1:       {t1:>10.2?}   {}", serial.stats);
    eprintln!("  jobs={jobs}:       {tn:>10.2?}   {}", parallel.stats);
    eprintln!("  speedup: {speedup:.2}x on {jobs} worker thread(s)");

    let mut rep = BenchReport::new("parallel_speedup");
    rep.sample("parallel_speedup/jobs_1", t1);
    rep.sample("parallel_speedup/jobs_all", tn);
    rep.counter("parallel_speedup/jobs", jobs as u64);
    rep.counter("parallel_speedup/faults", faults.len() as u64);
    rep.counter("parallel_speedup/speedup_x100", (speedup * 100.0) as u64);
    rep.write().expect("write bench report");

    if jobs >= 4 {
        assert!(
            speedup >= 2.0,
            "expected >=2x speedup on {jobs} cores, measured {speedup:.2}x"
        );
    } else {
        eprintln!("  (speedup bar skipped: fewer than 4 cores available)");
    }
}
